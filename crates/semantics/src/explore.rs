//! Parallel, deterministic state-space exploration over interned terms.
//!
//! This is the frontier engine behind [`crate::engine`]: a work-sharing
//! layered BFS that expands the current depth layer across worker threads
//! against a sharded concurrent seen-set, then *replays* the recorded
//! successor lists through the exact sequential numbering algorithm. The
//! split buys both properties at once:
//!
//! * **parallel discovery** — the expensive part (computing successors of
//!   every state, which walks and interns terms) fans out over
//!   [`ExploreConfig::threads`] workers;
//! * **deterministic results** — the replay is a cheap integer-only pass
//!   (no successor recomputation) that renumbers states exactly as the
//!   sequential explorers of [`crate::lts`] and the `verify` crate do, so
//!   any thread count yields the same LTS.
//!
//! Occurrence numbers (paper §3.5) are assigned by a shared table in
//! first-request order, which a parallel schedule permutes; the final pass
//! [`canonicalize_occurrences`] renames them in first-appearance order of
//! the replayed LTS, making the *output* labels schedule-independent too.
//! The renaming is injective, so it never merges distinct instances, and
//! equivalence verdicts are unaffected (service-side labels carry no
//! occurrence numbers, and composed message exchanges are hidden to `i`
//! before any comparison).
//!
//! Two depth metrics cover the two legacy explorers:
//!
//! * [`DepthMode::Steps`] — every transition counts; depth-bounded states
//!   are left unexpanded and mark the LTS incomplete (the semantics of
//!   [`crate::lts::build_term_lts_bounded`]);
//! * [`DepthMode::Observable`] — only non-internal transitions count (0–1
//!   BFS with Dijkstra-style relaxation); the bound does not count as
//!   truncation (the semantics of the verification explorer).

use crate::engine::{ChunkList, Engine, TermId};
use crate::fxhash::{fx_hash, FxHashMap, FxHashSet};
use crate::lts::Lts;
use crate::term::Label;
use std::collections::VecDeque;
use std::hash::Hash;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex, RwLock};

/// Stack size for exploration workers: successor computation recurses over
/// term structure, which can nest deeply for recursive specifications.
const WORKER_STACK: usize = 256 * 1024 * 1024;

const N_SHARDS: usize = 16;
const SHARD_BITS: u32 = 4;

/// How to build and bound an exploration. The one knob family shared by
/// LTS construction, verification and simulation (the former ad-hoc
/// `max_states`/`trace_len` arguments).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExploreConfig {
    /// Cap on distinct states; exceeding it marks the result incomplete.
    pub max_states: usize,
    /// Depth bound (interpretation depends on the [`DepthMode`] used).
    pub max_depth: usize,
    /// Worker threads. `1` forces the sequential path; `0` picks
    /// `PROTOGEN_THREADS`, then `RAYON_NUM_THREADS`, then the machine's
    /// available parallelism.
    pub threads: usize,
}

impl Default for ExploreConfig {
    fn default() -> Self {
        ExploreConfig {
            max_states: 100_000,
            max_depth: usize::MAX,
            threads: 0,
        }
    }
}

impl ExploreConfig {
    /// The default configuration (auto thread count, 100 000-state cap).
    pub fn new() -> Self {
        Self::default()
    }

    /// Builder: set the state cap.
    pub fn max_states(mut self, n: usize) -> Self {
        self.max_states = n;
        self
    }

    /// Builder: set the depth bound.
    pub fn max_depth(mut self, n: usize) -> Self {
        self.max_depth = n;
        self
    }

    /// Builder: set the worker-thread count (`0` = auto).
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = n;
        self
    }

    /// Builder: force the sequential exploration path.
    pub fn sequential(self) -> Self {
        self.threads(1)
    }

    /// Resolve `threads == 0` to a concrete worker count.
    pub fn effective_threads(&self) -> usize {
        if self.threads > 0 {
            return self.threads;
        }
        for var in ["PROTOGEN_THREADS", "RAYON_NUM_THREADS"] {
            if let Ok(v) = std::env::var(var) {
                if let Ok(n) = v.trim().parse::<usize>() {
                    if n > 0 {
                        return n;
                    }
                }
            }
        }
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    }
}

/// What a transition costs towards the depth bound.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DepthMode {
    /// Every transition counts one step; the depth boundary marks the
    /// result incomplete ([`crate::lts::build_term_lts_bounded`]).
    Steps,
    /// Only observable (non-`i`) transitions count; hidden successors stay
    /// in the current layer and the boundary is not truncation (the
    /// verification explorer's 0–1 BFS).
    Observable,
}

/// A transition system explorable in parallel. The thread-safe sibling of
/// the `verify` crate's `System` trait.
pub trait ParSystem: Sync {
    /// Global state type.
    type State: Clone + Eq + Hash + Send + Sync;
    /// The initial state.
    fn initial(&self) -> Self::State;
    /// All transitions of a state, in deterministic order.
    fn successors(&self, s: &Self::State) -> Vec<(Label, Self::State)>;
}

/// Result of a parallel exploration (field-compatible with the `verify`
/// crate's sequential `Exploration`).
pub struct ParExploration<S> {
    /// The explored LTS.
    pub lts: Lts,
    /// The states, indexed as in `lts`.
    pub states: Vec<S>,
    /// Depth (per the [`DepthMode`] used) at which each state was first
    /// reached.
    pub depth: Vec<usize>,
    /// Expanded states with no outgoing transitions, except those the
    /// state cap cut off from every successor.
    pub stuck: Vec<usize>,
}

// ---------------------------------------------------------------------
// Discovery: parallel layered BFS over a sharded concurrent seen-set.
// ---------------------------------------------------------------------

enum Intern {
    Fresh(u32),
    Known(u32),
    Capped,
}

/// Concurrent seen-set: state → dense id, plus per-id state/depth/expanded
/// slots in append-only chunked storage (ids stay valid while discovery
/// runs; slots are published by the shard mutex before the id escapes).
struct SeenSet<S> {
    shards: Box<[Mutex<FxHashMap<S, u32>>]>,
    counter: AtomicUsize,
    cap: usize,
    states: ChunkList<S>,
    depths: ChunkList<AtomicUsize>,
    expanded: ChunkList<AtomicBool>,
}

impl<S: Clone + Eq + Hash + Send + Sync> SeenSet<S> {
    fn new(cap: usize) -> Self {
        SeenSet {
            shards: (0..N_SHARDS)
                .map(|_| Mutex::new(FxHashMap::default()))
                .collect(),
            counter: AtomicUsize::new(0),
            cap,
            states: ChunkList::new(),
            depths: ChunkList::new(),
            expanded: ChunkList::new(),
        }
    }

    fn intern(&self, s: &S, depth: usize) -> Intern {
        let sh = (fx_hash(s) >> (64 - SHARD_BITS)) as usize & (N_SHARDS - 1);
        let mut map = self.shards[sh].lock().expect("seen shard poisoned");
        if let Some(&id) = map.get(s) {
            return Intern::Known(id);
        }
        let id = self.counter.fetch_add(1, Ordering::Relaxed);
        if id >= self.cap {
            return Intern::Capped;
        }
        self.states.write(id, s.clone());
        self.depths.write(id, AtomicUsize::new(depth));
        self.expanded.write(id, AtomicBool::new(false));
        map.insert(s.clone(), id as u32);
        Intern::Fresh(id as u32)
    }

    #[inline]
    fn state(&self, id: u32) -> &S {
        self.states.get(id as usize)
    }

    #[inline]
    fn depth(&self, id: u32) -> &AtomicUsize {
        self.depths.get(id as usize)
    }

    #[inline]
    fn expanded(&self, id: u32) -> &AtomicBool {
        self.expanded.get(id as usize)
    }
}

/// Per-worker, per-round output (merged by the driver between rounds).
#[derive(Default)]
struct RoundOut {
    /// `(state, successor edges)` for states expanded this round.
    edges: Vec<(u32, Vec<(Label, u32)>)>,
    /// States whose expansion dropped successors at the state cap.
    truncated: Vec<u32>,
    /// Newly discovered / relaxed states belonging to the current layer.
    same: Vec<u32>,
    /// Newly discovered states belonging to the next layer.
    next: Vec<u32>,
}

struct Discovery<'a, Y: ParSystem> {
    sys: &'a Y,
    seen: SeenSet<Y::State>,
    mode: DepthMode,
    max_depth: usize,
    complete: AtomicBool,
}

impl<Y: ParSystem> Discovery<'_, Y> {
    /// Expand one state of the current layer, if it still belongs there.
    fn process(&self, id: u32, layer: usize, out: &mut RoundOut) {
        let d = self.seen.depth(id).load(Ordering::Acquire);
        if d != layer || d >= self.max_depth {
            // Stale pool entry (the state was relaxed into an earlier
            // round) or boundary state: nothing to expand. Boundary states
            // re-enter a pool if a later relaxation lowers their depth.
            return;
        }
        if self.seen.expanded(id).swap(true, Ordering::AcqRel) {
            return;
        }
        let succs = self.sys.successors(self.seen.state(id));
        let mut edges = Vec::with_capacity(succs.len());
        let mut truncated_here = false;
        for (l, t) in succs {
            let step = match self.mode {
                DepthMode::Steps => 1,
                DepthMode::Observable => usize::from(!l.is_internal()),
            };
            let d2 = d + step;
            match self.seen.intern(&t, d2) {
                Intern::Fresh(id2) => {
                    if d2 == layer {
                        out.same.push(id2);
                    } else {
                        out.next.push(id2);
                    }
                    edges.push((l, id2));
                }
                Intern::Known(id2) => {
                    // Relax: depths only shrink, and within the layered
                    // schedule a successful relaxation always lands in the
                    // current layer (assigned depths never exceed
                    // `layer + 1`), so the state re-enters this layer.
                    let prev = self.seen.depth(id2).fetch_min(d2, Ordering::AcqRel);
                    if prev > d2 {
                        debug_assert_eq!(d2, layer);
                        out.same.push(id2);
                    }
                    edges.push((l, id2));
                }
                Intern::Capped => {
                    self.complete.store(false, Ordering::Relaxed);
                    truncated_here = true;
                }
            }
        }
        if truncated_here {
            out.truncated.push(id);
        }
        out.edges.push((id, edges));
    }
}

/// A discovered state's successor list (`None` = never expanded: a
/// depth-boundary state).
type EdgeList = Option<Box<[(Label, u32)]>>;

/// Everything discovery learned, in discovery (temporary) ids.
struct Raw<S> {
    seen: SeenSet<S>,
    /// Successor lists per expanded temporary id.
    edges: Vec<EdgeList>,
    truncated: FxHashSet<u32>,
    complete: bool,
}

struct RoundShared {
    pool: RwLock<Vec<u32>>,
    layer: AtomicUsize,
    done: AtomicBool,
    panicked: AtomicBool,
    start: Barrier,
    end: Barrier,
    outs: Vec<Mutex<RoundOut>>,
}

fn discover<Y: ParSystem>(sys: &Y, cfg: &ExploreConfig, mode: DepthMode) -> Raw<Y::State> {
    let threads = cfg.effective_threads().max(1);
    let disc = Discovery {
        sys,
        seen: SeenSet::new(cfg.max_states.max(1)),
        mode,
        max_depth: cfg.max_depth,
        complete: AtomicBool::new(true),
    };
    let init = sys.initial();
    let Intern::Fresh(root) = disc.seen.intern(&init, 0) else {
        unreachable!("root interning cannot miss or hit the cap");
    };

    let mut edges: Vec<EdgeList> = Vec::new();
    let mut truncated: FxHashSet<u32> = FxHashSet::default();
    let mut record = |out: &mut RoundOut| {
        for (id, es) in out.edges.drain(..) {
            let i = id as usize;
            if edges.len() <= i {
                edges.resize_with(i + 1, || None);
            }
            edges[i] = Some(es.into_boxed_slice());
        }
        truncated.extend(out.truncated.drain(..));
    };

    if threads == 1 {
        let mut pool = vec![root];
        let mut next_acc: Vec<u32> = Vec::new();
        let mut layer = 0usize;
        loop {
            let mut out = RoundOut::default();
            for &id in &pool {
                disc.process(id, layer, &mut out);
            }
            record(&mut out);
            next_acc.append(&mut out.next);
            if !out.same.is_empty() {
                pool = out.same;
            } else if next_acc.is_empty() {
                break;
            } else {
                pool = std::mem::take(&mut next_acc);
                layer += 1;
            }
        }
    } else {
        let shared = RoundShared {
            pool: RwLock::new(vec![root]),
            layer: AtomicUsize::new(0),
            done: AtomicBool::new(false),
            panicked: AtomicBool::new(false),
            start: Barrier::new(threads + 1),
            end: Barrier::new(threads + 1),
            outs: (0..threads)
                .map(|_| Mutex::new(RoundOut::default()))
                .collect(),
        };
        std::thread::scope(|scope| {
            for w in 0..threads {
                let disc = &disc;
                let shared = &shared;
                std::thread::Builder::new()
                    .name(format!("explore-{w}"))
                    .stack_size(WORKER_STACK)
                    .spawn_scoped(scope, move || worker_loop(w, threads, disc, shared))
                    .expect("spawn exploration worker");
            }
            let mut next_acc: Vec<u32> = Vec::new();
            loop {
                shared.start.wait();
                shared.end.wait();
                if shared.panicked.load(Ordering::Acquire) {
                    shared.done.store(true, Ordering::Release);
                    shared.start.wait();
                    panic!("exploration worker panicked");
                }
                let mut same: Vec<u32> = Vec::new();
                for slot in &shared.outs {
                    let mut out = slot.lock().expect("round output poisoned");
                    record(&mut out);
                    same.append(&mut out.same);
                    next_acc.append(&mut out.next);
                }
                let mut pool = shared.pool.write().expect("pool poisoned");
                if !same.is_empty() {
                    *pool = same;
                } else if next_acc.is_empty() {
                    drop(pool);
                    shared.done.store(true, Ordering::Release);
                    shared.start.wait();
                    break;
                } else {
                    *pool = std::mem::take(&mut next_acc);
                    shared.layer.fetch_add(1, Ordering::AcqRel);
                }
            }
        });
    }

    Raw {
        seen: disc.seen,
        edges,
        truncated,
        complete: disc.complete.load(Ordering::Acquire),
    }
}

fn worker_loop<Y: ParSystem>(
    w: usize,
    threads: usize,
    disc: &Discovery<'_, Y>,
    shared: &RoundShared,
) {
    loop {
        shared.start.wait();
        if shared.done.load(Ordering::Acquire) {
            return;
        }
        let layer = shared.layer.load(Ordering::Acquire);
        let result = catch_unwind(AssertUnwindSafe(|| {
            let pool = shared.pool.read().expect("pool poisoned");
            let mut out = RoundOut::default();
            let mut i = w;
            while i < pool.len() {
                disc.process(pool[i], layer, &mut out);
                i += threads;
            }
            out
        }));
        match result {
            Ok(out) => *shared.outs[w].lock().expect("round output poisoned") = out,
            Err(_) => shared.panicked.store(true, Ordering::Release),
        }
        shared.end.wait();
    }
}

// ---------------------------------------------------------------------
// Replay: deterministic renumbering through the sequential algorithms.
// ---------------------------------------------------------------------

/// Replay recorded edges through the plain-BFS numbering of
/// [`crate::lts::build_term_lts_bounded`].
fn replay_steps(raw: &Raw<impl Clone + Eq + Hash + Send + Sync>, max_depth: usize) -> ReplayOut {
    let mut index: FxHashMap<u32, usize> = FxHashMap::default();
    let mut tmp_of: Vec<u32> = Vec::new();
    let mut depth: Vec<usize> = Vec::new();
    let mut trans: Vec<Vec<(Label, usize)>> = Vec::new();
    let mut unexpanded = Vec::new();
    let mut complete = raw.complete;

    index.insert(0, 0);
    tmp_of.push(0);
    depth.push(0);
    trans.push(Vec::new());

    let mut next = 0usize;
    while next < tmp_of.len() {
        let s = next;
        next += 1;
        if depth[s] >= max_depth {
            complete = false;
            unexpanded.push(s);
            continue;
        }
        let tmp = tmp_of[s];
        let recorded = raw.edges.get(tmp as usize).and_then(|e| e.as_deref());
        let recorded = recorded.unwrap_or(&[]);
        let mut es = Vec::with_capacity(recorded.len());
        for (l, t) in recorded {
            let id = match index.get(t) {
                Some(&id) => id,
                None => {
                    let id = tmp_of.len();
                    index.insert(*t, id);
                    tmp_of.push(*t);
                    depth.push(depth[s] + 1);
                    trans.push(Vec::new());
                    id
                }
            };
            es.push((l.clone(), id));
        }
        if raw.truncated.contains(&tmp) {
            unexpanded.push(s);
        }
        trans[s] = es;
    }

    let expanded: Vec<bool> = depth.iter().map(|&d| d < max_depth).collect();
    ReplayOut {
        tmp_of,
        depth,
        trans,
        expanded,
        unexpanded,
        complete,
    }
}

/// Replay recorded edges through the 0–1-BFS numbering (with relaxation
/// cascades) of the verification explorer.
fn replay_observable(raw: &Raw<impl Clone + Eq + Hash + Send + Sync>, max_obs: usize) -> ReplayOut {
    let mut index: FxHashMap<u32, usize> = FxHashMap::default();
    let mut tmp_of: Vec<u32> = Vec::new();
    let mut obs_depth: Vec<usize> = Vec::new();
    let mut trans: Vec<Vec<(Label, usize)>> = Vec::new();
    let mut expanded: Vec<bool> = Vec::new();
    let mut unexpanded = Vec::new();

    index.insert(0, 0);
    tmp_of.push(0);
    obs_depth.push(0);
    trans.push(Vec::new());
    expanded.push(false);

    let mut queue: VecDeque<usize> = VecDeque::new();
    queue.push_back(0);

    while let Some(s) = queue.pop_front() {
        if expanded[s] {
            // Depth was relaxed after expansion: cascade through the
            // recorded out-edges, exactly like the sequential explorer.
            let es = trans[s].clone();
            for (l, id) in es {
                let d = obs_depth[s] + usize::from(!l.is_internal());
                if d < obs_depth[id] {
                    obs_depth[id] = d;
                    if l.is_internal() {
                        queue.push_front(id);
                    } else {
                        queue.push_back(id);
                    }
                }
            }
            continue;
        }
        if obs_depth[s] >= max_obs {
            continue;
        }
        expanded[s] = true;
        let tmp = tmp_of[s];
        let recorded = raw.edges.get(tmp as usize).and_then(|e| e.as_deref());
        let recorded = recorded.unwrap_or(&[]);
        let mut es = Vec::with_capacity(recorded.len());
        for (l, t) in recorded {
            let step = usize::from(!l.is_internal());
            let d = obs_depth[s] + step;
            let id = match index.get(t) {
                Some(&id) => {
                    if d < obs_depth[id] {
                        obs_depth[id] = d;
                        if step == 0 {
                            queue.push_front(id);
                        } else {
                            queue.push_back(id);
                        }
                    }
                    id
                }
                None => {
                    let id = tmp_of.len();
                    index.insert(*t, id);
                    tmp_of.push(*t);
                    obs_depth.push(d);
                    trans.push(Vec::new());
                    expanded.push(false);
                    if step == 0 {
                        queue.push_front(id);
                    } else {
                        queue.push_back(id);
                    }
                    id
                }
            };
            es.push((l.clone(), id));
        }
        if raw.truncated.contains(&tmp) {
            unexpanded.push(s);
        }
        trans[s] = es;
    }

    ReplayOut {
        tmp_of,
        depth: obs_depth,
        trans,
        expanded,
        unexpanded,
        complete: raw.complete,
    }
}

struct ReplayOut {
    tmp_of: Vec<u32>,
    depth: Vec<usize>,
    trans: Vec<Vec<(Label, usize)>>,
    expanded: Vec<bool>,
    unexpanded: Vec<usize>,
    complete: bool,
}

/// Rename occurrence numbers in first-appearance order (state order, then
/// edge order). The renaming is injective — distinct process instances
/// stay distinct — and makes labels independent of the exploration
/// schedule that first requested each occurrence number.
pub fn canonicalize_occurrences(lts: &mut Lts) {
    let mut map: FxHashMap<u32, u32> = FxHashMap::default();
    let mut next_occ = 1u32;
    for edges in &mut lts.trans {
        for (l, _) in edges {
            if let Label::Send { occ, .. } | Label::Recv { occ, .. } = l {
                if *occ != 0 {
                    let n = *map.entry(*occ).or_insert_with(|| {
                        let v = next_occ;
                        next_occ += 1;
                        v
                    });
                    *occ = n;
                }
            }
        }
    }
}

/// Explore `sys` under `cfg` with the given depth metric. Results are
/// deterministic: the same configuration yields the same LTS for every
/// thread count (see the module docs for the occurrence-label pass).
pub fn explore_par<Y: ParSystem>(
    sys: &Y,
    cfg: &ExploreConfig,
    mode: DepthMode,
) -> ParExploration<Y::State> {
    let raw = discover(sys, cfg, mode);
    let replay = match mode {
        DepthMode::Steps => replay_steps(&raw, cfg.max_depth),
        DepthMode::Observable => replay_observable(&raw, cfg.max_depth),
    };
    let states: Vec<Y::State> = replay
        .tmp_of
        .iter()
        .map(|&tmp| raw.seen.state(tmp).clone())
        .collect();
    // A state the cap cut off from every successor is a frontier, not a
    // deadlock (the truncated set is looked up only for edgeless states).
    let stuck: Vec<usize> = (0..states.len())
        .filter(|&s| {
            replay.expanded[s]
                && replay.trans[s].is_empty()
                && !raw.truncated.contains(&replay.tmp_of[s])
        })
        .collect();
    let mut lts = Lts {
        trans: replay.trans,
        initial: 0,
        complete: replay.complete,
        unexpanded: replay.unexpanded,
    };
    canonicalize_occurrences(&mut lts);
    ParExploration {
        lts,
        states,
        depth: replay.depth,
        stuck,
    }
}

/// Build the LTS of an interned term — the parallel, hash-consed
/// counterpart of [`crate::lts::build_term_lts`]. Returns the LTS and the
/// states' interned terms.
pub fn build_lts(engine: &Engine, root: TermId, cfg: &ExploreConfig) -> (Lts, Vec<TermId>) {
    struct Rooted<'a> {
        engine: &'a Engine,
        root: TermId,
    }
    impl ParSystem for Rooted<'_> {
        type State = TermId;
        fn initial(&self) -> TermId {
            self.root
        }
        fn successors(&self, s: &TermId) -> Vec<(Label, TermId)> {
            self.engine.transitions(*s).to_vec()
        }
    }
    let ex = explore_par(&Rooted { engine, root }, cfg, DepthMode::Steps);
    (ex.lts, ex.states)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::lts::{build_term_lts, build_term_lts_bounded};
    use crate::term::Env;
    use lotos::parser::parse_spec;

    const SPECS: &[&str] = &[
        "SPEC a1;b2;exit ENDSPEC",
        "SPEC a1;c1;exit [] b1;c1;exit ENDSPEC",
        "SPEC a1;exit ||| b2;exit ENDSPEC",
        "SPEC a1;b2;exit |[b2]| b2;exit ENDSPEC",
        "SPEC (a1;exit ||| b2;exit) >> c3;exit ENDSPEC",
        "SPEC a1;b1;exit [> c1;exit ENDSPEC",
        "SPEC A WHERE PROC A = a1 ; A [] b1 ; exit END ENDSPEC",
    ];

    fn legacy(src: &str, cap: usize) -> Lts {
        let env = Env::new(parse_spec(src).unwrap());
        let root = env.root();
        let mut lts = build_term_lts(&env, root, cap).0;
        canonicalize_occurrences(&mut lts);
        lts
    }

    fn engine_lts(src: &str, cfg: &ExploreConfig) -> Lts {
        let e = Engine::new(parse_spec(src).unwrap());
        let root = e.root();
        build_lts(&e, root, cfg).0
    }

    fn assert_lts_eq(a: &Lts, b: &Lts, ctx: &str) {
        assert_eq!(a.trans, b.trans, "{ctx}: transitions differ");
        assert_eq!(a.initial, b.initial, "{ctx}");
        assert_eq!(a.complete, b.complete, "{ctx}");
        assert_eq!(a.unexpanded, b.unexpanded, "{ctx}");
    }

    #[test]
    fn matches_legacy_builder_bit_for_bit() {
        for src in SPECS {
            let reference = legacy(src, 10_000);
            for threads in [1, 3] {
                let cfg = ExploreConfig::new().max_states(10_000).threads(threads);
                let got = engine_lts(src, &cfg);
                assert_lts_eq(&reference, &got, &format!("{src} @{threads}"));
            }
        }
    }

    #[test]
    fn parallel_equals_sequential_with_occurrences() {
        // two call sites → two occurrence numbers, assigned in schedule
        // order; canonicalization makes the output identical anyway
        let src = "SPEC A ||| A WHERE PROC A = s2(s,7); exit END ENDSPEC";
        let cfg1 = ExploreConfig::new().max_states(10_000).sequential();
        let cfg4 = ExploreConfig::new().max_states(10_000).threads(4);
        let a = engine_lts(src, &cfg1);
        let b = engine_lts(src, &cfg4);
        assert_lts_eq(&a, &b, src);
        assert!(a.complete);
    }

    #[test]
    fn depth_bound_matches_legacy_bounded() {
        // occurrence-sensitive recursion: each unfolding is a fresh state,
        // so the depth bound genuinely truncates
        let src = "SPEC A WHERE PROC A = s2(s,7) ; A END ENDSPEC";
        let env = Env::new(parse_spec(src).unwrap());
        let root = env.root();
        let mut reference = build_term_lts_bounded(&env, root, 10_000, 3).0;
        canonicalize_occurrences(&mut reference);
        for threads in [1, 2] {
            let cfg = ExploreConfig::new()
                .max_states(10_000)
                .max_depth(3)
                .threads(threads);
            let got = engine_lts(src, &cfg);
            assert_lts_eq(&reference, &got, &format!("{src} @{threads}"));
            assert!(!got.complete);
        }
    }

    #[test]
    fn state_cap_incomplete_deterministically() {
        // occurrence-sensitive recursion: genuinely infinite state space
        let src = "SPEC A WHERE PROC A = s2(s,7) ; A END ENDSPEC";
        for threads in [1, 2, 4] {
            let cfg = ExploreConfig::new().max_states(20).threads(threads);
            let lts = engine_lts(src, &cfg);
            assert!(!lts.complete, "@{threads}");
            assert_eq!(lts.len(), 20, "@{threads}");
            assert!(!lts.unexpanded.is_empty(), "@{threads}");
        }
    }

    /// The verification explorer's reference system: a counter that ticks
    /// observably up to a limit, shuffling hiddenly between phases.
    struct Counter {
        limit: u32,
    }

    impl ParSystem for Counter {
        type State = (u32, bool);
        fn initial(&self) -> (u32, bool) {
            (0, false)
        }
        fn successors(&self, s: &(u32, bool)) -> Vec<(Label, (u32, bool))> {
            let mut out = Vec::new();
            if !s.1 {
                out.push((Label::I, (s.0, true)));
            }
            if s.0 < self.limit && s.1 {
                out.push((
                    Label::Prim {
                        name: "t".into(),
                        place: 1,
                    },
                    (s.0 + 1, false),
                ));
            }
            out
        }
    }

    #[test]
    fn observable_mode_bounds_by_observable_depth() {
        let sys = Counter { limit: 100 };
        for threads in [1, 3] {
            let cfg = ExploreConfig::new()
                .max_states(10_000)
                .max_depth(3)
                .threads(threads);
            let e = explore_par(&sys, &cfg, DepthMode::Observable);
            assert!(e.lts.complete, "@{threads}");
            let max_count = e.states.iter().map(|s| s.0).max().unwrap();
            assert_eq!(max_count, 3, "@{threads}");
            let ts = crate::traces::observable_traces(&e.lts, 3);
            assert_eq!(ts.traces.len(), 4, "@{threads}");
        }
    }

    #[test]
    fn observable_mode_zero_depth_keeps_only_root() {
        let sys = Counter { limit: 3 };
        let cfg = ExploreConfig::new()
            .max_states(1000)
            .max_depth(0)
            .sequential();
        let e = explore_par(&sys, &cfg, DepthMode::Observable);
        assert_eq!(e.states.len(), 1);
    }

    #[test]
    fn observable_mode_finds_stuck_states() {
        let sys = Counter { limit: 5 };
        for threads in [1, 2] {
            let cfg = ExploreConfig::new().max_states(10_000).threads(threads);
            let e = explore_par(&sys, &cfg, DepthMode::Observable);
            assert!(e.lts.complete);
            assert_eq!(e.states.len(), 12, "@{threads}");
            assert_eq!(e.stuck.len(), 1, "@{threads}");
            assert_eq!(e.states[e.stuck[0]], (5, true), "@{threads}");
        }
    }

    /// Two branches from the root: `a` leads on to a third state, `b`
    /// to a dead end.
    struct Fork;

    impl ParSystem for Fork {
        type State = u32;
        fn initial(&self) -> u32 {
            0
        }
        fn successors(&self, s: &u32) -> Vec<(Label, u32)> {
            let prim = |name: &str| Label::Prim {
                name: name.into(),
                place: 1,
            };
            match s {
                0 => vec![(prim("a"), 1), (prim("b"), 2)],
                1 => vec![(prim("c"), 3)],
                _ => Vec::new(),
            }
        }
    }

    #[test]
    fn capped_exploration_lists_no_cut_off_state_as_stuck() {
        for mode in [DepthMode::Steps, DepthMode::Observable] {
            for threads in [1, 2] {
                let cfg = ExploreConfig::new().max_states(3).threads(threads);
                let e = explore_par(&Fork, &cfg, mode);
                assert!(!e.lts.complete);
                assert_eq!(e.states, vec![0, 1, 2], "@{threads}");
                // State 1 lost its only successor to the cap; state 2 is
                // a real dead end.
                assert_eq!(e.lts.unexpanded, vec![1], "@{threads}");
                assert_eq!(e.stuck, vec![2], "@{threads}");
            }
        }
    }

    #[test]
    fn config_builder() {
        let cfg = ExploreConfig::new()
            .max_states(1234)
            .max_depth(9)
            .threads(2);
        assert_eq!((cfg.max_states, cfg.max_depth, cfg.threads), (1234, 9, 2));
        assert_eq!(ExploreConfig::default().sequential().effective_threads(), 1);
    }
}
