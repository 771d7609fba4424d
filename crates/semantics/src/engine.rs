//! Hash-consed, thread-safe behaviour-term engine.
//!
//! The `Rc`-based machinery of [`crate::term`] and [`crate::sos`] is
//! single-threaded by construction: terms are `Rc`-shared trees, the
//! environment caches unfoldings in `RefCell`s, and every state
//! comparison hashes a whole subtree. This module is the scalable
//! replacement powering the parallel exploration of [`crate::explore`]:
//!
//! * **hash-consing** — every distinct term is interned exactly once in a
//!   sharded [`TermArena`] and named by a 4-byte [`TermId`]. Equality and
//!   hashing of states become integer operations, and structural sharing
//!   between the states of an exploration is maximal by construction;
//! * **`Send + Sync`** — the arena and the [`Engine`] environment are
//!   shared across worker threads (`Arc` handles, sharded mutex-protected
//!   intern tables, append-only lock-free node storage);
//! * **memoized SOS** — `Engine::transitions` computes the successor list
//!   of each interned term once and caches it, so re-visiting a term
//!   (which dominates fixpoint explorations) is a map lookup.
//!
//! Semantics are identical to [`crate::sos::transitions`] — the
//! differential tests in `tests/property_based.rs` hold the two engines
//! bit-for-bit equal on the LTS level.

use crate::fxhash::{fx_hash, FxHashMap};
use crate::term::{compute_occ_sensitivity, Label, OccTable};
use lotos::ast::{Expr, NodeId, ProcIdx, Spec};
use lotos::event::{Event, SyncSet};
use lotos::place::PlaceId;
use std::sync::{Arc, Mutex};

const SHARD_BITS: u32 = 4;
const N_SHARDS: usize = 1 << SHARD_BITS;

/// Interned term handle: index into a [`TermArena`]. Copyable, `Eq` and
/// `Hash` in O(1) — two `TermId`s from the same arena are equal iff the
/// terms are structurally equal.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TermId(u32);

impl TermId {
    #[inline]
    fn encode(shard: usize, idx: u32) -> TermId {
        TermId(idx << SHARD_BITS | shard as u32)
    }

    #[inline]
    fn decode(self) -> (usize, u32) {
        (
            (self.0 & (N_SHARDS as u32 - 1)) as usize,
            self.0 >> SHARD_BITS,
        )
    }

    /// The raw index (diagnostics only).
    pub fn raw(self) -> u32 {
        self.0
    }

    /// Rebuild a [`TermId`] from [`TermId::raw`] output. Only valid for
    /// values obtained from the *same* arena; anything else may panic or
    /// resolve to an unrelated term.
    pub fn from_raw(raw: u32) -> TermId {
        TermId(raw)
    }
}

/// One node of a hash-consed term. Children are [`TermId`]s, so structural
/// equality of whole terms reduces to equality of node values.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum TermNode {
    /// Inaction.
    Stop,
    /// Successful termination (offers δ).
    Exit,
    /// `label ; t`.
    Prefix(Label, TermId),
    /// `t1 [] t2`.
    Choice(TermId, TermId),
    /// `t1 |[G]| t2`.
    Par(SyncSet, TermId, TermId),
    /// `t1 >> t2`.
    Enable(TermId, TermId),
    /// `t1 [> t2`.
    Disable(TermId, TermId),
    /// Lazy process instantiation (see [`crate::term::RTerm::Call`]).
    Call { proc: ProcIdx, site: u32, occ: u32 },
    /// `hide G in t`.
    Hide(Arc<[(String, PlaceId)]>, TermId),
}

/// Append-only chunked storage: writes happen under the owning shard's
/// intern lock, reads are lock-free. Chunk `c` holds `BASE << c` slots, so
/// growth never moves existing elements (readers keep stable references).
/// Shared with [`crate::explore`]'s concurrent seen-set.
pub(crate) struct ChunkList<T> {
    chunks: [std::sync::OnceLock<ChunkSlots<T>>; MAX_CHUNKS],
    /// Number of initialized slots (monotonic; published with `Release`).
    len: std::sync::atomic::AtomicUsize,
}

/// One chunk's slot array: write-once cells, published by the owning lock.
type ChunkSlots<T> = Box<[std::cell::UnsafeCell<std::mem::MaybeUninit<T>>]>;

const CHUNK_BASE: usize = 1 << 10;
const MAX_CHUNKS: usize = 20;

// SAFETY: slots are written exactly once, before their index is published
// (the publishing store/mutex-release happens-after the write), and never
// mutated afterwards; distinct slots are disjoint memory. Readers only
// access indices they learned through a synchronizing operation.
unsafe impl<T: Send + Sync> Sync for ChunkList<T> {}
unsafe impl<T: Send> Send for ChunkList<T> {}

impl<T> ChunkList<T> {
    pub(crate) fn new() -> Self {
        ChunkList {
            chunks: std::array::from_fn(|_| std::sync::OnceLock::new()),
            len: std::sync::atomic::AtomicUsize::new(0),
        }
    }

    #[inline]
    fn locate(i: usize) -> (usize, usize) {
        let n = i / CHUNK_BASE + 1;
        let c = (usize::BITS - 1 - n.leading_zeros()) as usize;
        (c, i - CHUNK_BASE * ((1 << c) - 1))
    }

    /// Initialize slot `i`. Caller contract: each index is written exactly
    /// once, and the index is made visible to readers only through an
    /// operation that synchronizes-with their access (mutex, barrier,
    /// join).
    pub(crate) fn write(&self, i: usize, value: T) {
        let (c, off) = Self::locate(i);
        assert!(c < MAX_CHUNKS, "term arena exhausted ({i} nodes)");
        let chunk = self.chunks[c].get_or_init(|| {
            (0..CHUNK_BASE << c)
                .map(|_| std::cell::UnsafeCell::new(std::mem::MaybeUninit::uninit()))
                .collect()
        });
        // SAFETY: slot `i` is uninitialized (single writer per index by the
        // caller contract) and no reader can hold a reference yet.
        unsafe { (*chunk[off].get()).write(value) };
        self.len
            .fetch_max(i + 1, std::sync::atomic::Ordering::Release);
    }

    /// Read slot `i`. Caller contract: `i` was learned through an operation
    /// that synchronizes with the completed [`ChunkList::write`].
    #[inline]
    pub(crate) fn get(&self, i: usize) -> &T {
        let (c, off) = Self::locate(i);
        let chunk = self.chunks[c].get().expect("chunk published");
        // SAFETY: per the caller contract the slot is initialized, and
        // initialized slots are never written again.
        unsafe { (*chunk[off].get()).assume_init_ref() }
    }
}

impl<T> Drop for ChunkList<T> {
    fn drop(&mut self) {
        let n = *self.len.get_mut();
        for i in 0..n {
            let (c, off) = Self::locate(i);
            if let Some(chunk) = self.chunks[c].get() {
                // SAFETY: slots below `len` are initialized and dropped
                // exactly once (we have `&mut self`).
                unsafe { (*chunk[off].get()).assume_init_drop() };
            }
        }
    }
}

struct ArenaShard {
    map: Mutex<FxHashMap<TermNode, u32>>,
    store: ChunkList<TermNode>,
}

/// Sharded hash-consing table for [`TermNode`]s. Interning the same
/// structural term from any thread returns the same [`TermId`].
pub struct TermArena {
    shards: [ArenaShard; N_SHARDS],
}

impl Default for TermArena {
    fn default() -> Self {
        Self::new()
    }
}

impl TermArena {
    /// Fresh, empty arena.
    pub fn new() -> TermArena {
        TermArena {
            shards: std::array::from_fn(|_| ArenaShard {
                map: Mutex::new(FxHashMap::default()),
                store: ChunkList::new(),
            }),
        }
    }

    /// Intern a node, returning its canonical id.
    pub fn intern(&self, node: TermNode) -> TermId {
        let sh = (fx_hash(&node) >> (64 - SHARD_BITS)) as usize & (N_SHARDS - 1);
        let shard = &self.shards[sh];
        let mut map = shard.map.lock().expect("arena shard poisoned");
        if let Some(&idx) = map.get(&node) {
            return TermId::encode(sh, idx);
        }
        let idx = map.len() as u32;
        shard.store.write(idx as usize, node.clone());
        map.insert(node, idx);
        TermId::encode(sh, idx)
    }

    /// Resolve an id to its node. O(1), lock-free.
    #[inline]
    pub fn node(&self, id: TermId) -> &TermNode {
        let (sh, idx) = id.decode();
        self.shards[sh].store.get(idx as usize)
    }

    /// Number of distinct interned terms.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.map.lock().expect("arena shard poisoned").len())
            .sum()
    }

    /// Is the arena empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A sharded concurrent memo table (key → value, insert-once semantics).
pub struct ShardedMap<K, V> {
    shards: Box<[Mutex<FxHashMap<K, V>>]>,
}

impl<K: std::hash::Hash + Eq, V: Clone> ShardedMap<K, V> {
    fn new() -> Self {
        ShardedMap {
            shards: (0..N_SHARDS)
                .map(|_| Mutex::new(FxHashMap::default()))
                .collect(),
        }
    }

    #[inline]
    fn shard(&self, k: &K) -> &Mutex<FxHashMap<K, V>> {
        &self.shards[(fx_hash(k) >> (64 - SHARD_BITS)) as usize & (N_SHARDS - 1)]
    }

    /// Look up `k`.
    pub fn get(&self, k: &K) -> Option<V> {
        self.shard(k)
            .lock()
            .expect("shard poisoned")
            .get(k)
            .cloned()
    }

    /// Insert `v` unless `k` is present; returns the winning value.
    pub fn insert_if_absent(&self, k: K, v: V) -> V {
        self.shard(&k)
            .lock()
            .expect("shard poisoned")
            .entry(k)
            .or_insert(v)
            .clone()
    }

    /// Total number of entries.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("shard poisoned").len())
            .sum()
    }

    /// Is the map empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<K: std::hash::Hash + Eq, V: Clone> Default for ShardedMap<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

/// Thread-safe execution environment over interned terms — the parallel
/// counterpart of [`crate::term::Env`]. Multiple engines (one per protocol
/// entity) can share one arena and one occurrence table, exactly like
/// `Env::with_occ`.
pub struct Engine {
    /// The specification whose processes this engine unfolds.
    pub spec: Spec,
    arena: Arc<TermArena>,
    occ: Arc<Mutex<OccTable>>,
    unfold_cache: ShardedMap<(ProcIdx, u32), TermId>,
    trans_cache: ShardedMap<TermId, Arc<[(Label, TermId)]>>,
    occ_sensitive: Vec<bool>,
    stop: TermId,
    exit: TermId,
}

impl Engine {
    /// Engine with a private arena and occurrence table.
    pub fn new(spec: Spec) -> Engine {
        Engine::with_shared(
            spec,
            Arc::new(TermArena::new()),
            Arc::new(Mutex::new(OccTable::new())),
        )
    }

    /// Engine sharing an arena and occurrence table with other engines —
    /// required when several derived entities must agree on instance
    /// numbers (composition checking).
    pub fn with_shared(spec: Spec, arena: Arc<TermArena>, occ: Arc<Mutex<OccTable>>) -> Engine {
        let occ_sensitive = compute_occ_sensitivity(&spec);
        let stop = arena.intern(TermNode::Stop);
        let exit = arena.intern(TermNode::Exit);
        Engine {
            spec,
            arena,
            occ,
            unfold_cache: ShardedMap::default(),
            trans_cache: ShardedMap::default(),
            occ_sensitive,
            stop,
            exit,
        }
    }

    /// The shared arena handle.
    pub fn arena(&self) -> Arc<TermArena> {
        Arc::clone(&self.arena)
    }

    /// The shared occurrence-table handle.
    pub fn occ_handle(&self) -> Arc<Mutex<OccTable>> {
        Arc::clone(&self.occ)
    }

    /// Resolve an interned term.
    #[inline]
    pub fn node(&self, id: TermId) -> &TermNode {
        self.arena.node(id)
    }

    /// The initial term of the engine's specification.
    pub fn root(&self) -> TermId {
        self.instantiate(self.spec.top.expr, 0)
    }

    /// Intern `hide G in t`.
    pub fn hide(&self, gates: Vec<(String, PlaceId)>, t: TermId) -> TermId {
        self.arena.intern(TermNode::Hide(gates.into(), t))
    }

    /// Instantiate the static expression `node` under occurrence `occ`
    /// (the interned counterpart of [`crate::term::Env::instantiate`]).
    pub fn instantiate(&self, node: NodeId, occ: u32) -> TermId {
        let interned = match self.spec.node(node) {
            Expr::Exit | Expr::Empty => return self.exit,
            Expr::Stop => return self.stop,
            Expr::Prefix { event, then } => {
                let l = self.label_of(event, occ);
                TermNode::Prefix(l, self.instantiate(*then, occ))
            }
            Expr::Choice { left, right } => {
                TermNode::Choice(self.instantiate(*left, occ), self.instantiate(*right, occ))
            }
            Expr::Par { sync, left, right } => TermNode::Par(
                sync.clone(),
                self.instantiate(*left, occ),
                self.instantiate(*right, occ),
            ),
            Expr::Enable { left, right } => {
                TermNode::Enable(self.instantiate(*left, occ), self.instantiate(*right, occ))
            }
            Expr::Disable { left, right } => {
                TermNode::Disable(self.instantiate(*left, occ), self.instantiate(*right, occ))
            }
            Expr::Call { proc, tag, name } => {
                let proc = proc.unwrap_or_else(|| panic!("unresolved process `{name}` at runtime"));
                let site = if *tag != 0 { *tag } else { node + 1_000_000 };
                TermNode::Call { proc, site, occ }
            }
        };
        self.arena.intern(interned)
    }

    /// Unfold a `Call` leaf (see [`crate::term::Env::unfold`]).
    pub fn unfold(&self, proc: ProcIdx, site: u32, occ: u32) -> TermId {
        let child = if self.occ_sensitive[proc as usize] {
            self.occ
                .lock()
                .expect("occ table poisoned")
                .child(occ, site)
        } else {
            0
        };
        if let Some(t) = self.unfold_cache.get(&(proc, child)) {
            return t;
        }
        let body = self.spec.procs[proc as usize].body.expr;
        let t = self.instantiate(body, child);
        self.unfold_cache.insert_if_absent((proc, child), t)
    }

    /// All transitions of `t` — memoized per interned term, so repeated
    /// visits (the common case in fixpoint explorations) are a map lookup.
    /// Successor order is deterministic and matches
    /// [`crate::sos::transitions`] on the corresponding `RTerm`.
    pub fn transitions(&self, t: TermId) -> Arc<[(Label, TermId)]> {
        if let Some(v) = self.trans_cache.get(&t) {
            return v;
        }
        let computed: Arc<[(Label, TermId)]> = self.compute_transitions(t).into();
        self.trans_cache.insert_if_absent(t, computed)
    }

    fn compute_transitions(&self, t: TermId) -> Vec<(Label, TermId)> {
        let mut out = Vec::new();
        self.push_transitions(t, &mut out);
        out
    }

    fn push_transitions(&self, t: TermId, out: &mut Vec<(Label, TermId)>) {
        // Work on a clone of the node: recursive calls may grow the arena.
        let node = self.node(t).clone();
        match node {
            TermNode::Stop => {}
            TermNode::Exit => out.push((Label::Delta, self.stop)),
            TermNode::Prefix(l, rest) => out.push((l, rest)),
            TermNode::Choice(a, b) => {
                self.push_transitions(a, out);
                self.push_transitions(b, out);
            }
            TermNode::Par(sync, a, b) => {
                let ta = self.transitions(a);
                let tb = self.transitions(b);
                let syncs = |l: &Label| match l {
                    Label::Delta => true,
                    Label::Prim { name, place } => sync.requires_sync(&Event::Prim {
                        name: name.clone(),
                        place: *place,
                    }),
                    _ => false,
                };
                for (l, a2) in ta.iter() {
                    if !syncs(l) {
                        out.push((
                            l.clone(),
                            self.arena.intern(TermNode::Par(sync.clone(), *a2, b)),
                        ));
                    }
                }
                for (l, b2) in tb.iter() {
                    if !syncs(l) {
                        out.push((
                            l.clone(),
                            self.arena.intern(TermNode::Par(sync.clone(), a, *b2)),
                        ));
                    }
                }
                for (la, a2) in ta.iter() {
                    if syncs(la) {
                        for (lb, b2) in tb.iter() {
                            if la == lb {
                                out.push((
                                    la.clone(),
                                    self.arena.intern(TermNode::Par(sync.clone(), *a2, *b2)),
                                ));
                            }
                        }
                    }
                }
            }
            TermNode::Enable(a, b) => {
                for (l, a2) in self.transitions(a).iter() {
                    if *l == Label::Delta {
                        out.push((Label::I, b));
                    } else {
                        out.push((l.clone(), self.arena.intern(TermNode::Enable(*a2, b))));
                    }
                }
            }
            TermNode::Disable(a, b) => {
                for (l, a2) in self.transitions(a).iter() {
                    if *l == Label::Delta {
                        out.push((Label::Delta, *a2));
                    } else {
                        out.push((l.clone(), self.arena.intern(TermNode::Disable(*a2, b))));
                    }
                }
                self.push_transitions(b, out);
            }
            TermNode::Call { proc, site, occ } => {
                let body = self.unfold(proc, site, occ);
                self.push_transitions(body, out);
            }
            TermNode::Hide(gates, inner) => {
                for (l, t2) in self.transitions(inner).iter() {
                    let hidden = match l {
                        Label::Prim { name, place } => {
                            gates.iter().any(|(n, p)| n == name && p == place)
                        }
                        _ => false,
                    };
                    let l2 = if hidden { Label::I } else { l.clone() };
                    out.push((
                        l2,
                        self.arena.intern(TermNode::Hide(Arc::clone(&gates), *t2)),
                    ));
                }
            }
        }
    }

    /// Render an interned term (mirrors `RTerm`'s `Display`).
    pub fn render(&self, t: TermId) -> String {
        match self.node(t) {
            TermNode::Stop => "stop".into(),
            TermNode::Exit => "exit".into(),
            TermNode::Prefix(l, rest) => format!("{l}; {}", self.render(*rest)),
            TermNode::Choice(a, b) => {
                format!("({} [] {})", self.render(*a), self.render(*b))
            }
            TermNode::Par(s, a, b) => {
                format!("({} {s} {})", self.render(*a), self.render(*b))
            }
            TermNode::Enable(a, b) => {
                format!("({} >> {})", self.render(*a), self.render(*b))
            }
            TermNode::Disable(a, b) => {
                format!("({} [> {})", self.render(*a), self.render(*b))
            }
            TermNode::Call { proc, occ, .. } => format!("P{proc}@{occ}"),
            TermNode::Hide(g, t) => {
                let gates: Vec<String> = g.iter().map(|(n, p)| format!("{n}{p}")).collect();
                format!("hide {} in {}", gates.join(","), self.render(*t))
            }
        }
    }

    fn label_of(&self, event: &Event, occ: u32) -> Label {
        match event {
            Event::Internal => Label::I,
            Event::Prim { name, place } => Label::Prim {
                name: name.clone(),
                place: *place,
            },
            Event::Send {
                to,
                msg,
                occ: symbolic,
                kind,
            } => Label::Send {
                to: *to,
                msg: msg.clone(),
                occ: if *symbolic { occ } else { 0 },
                kind: *kind,
            },
            Event::Recv {
                from,
                msg,
                occ: symbolic,
                kind,
            } => Label::Recv {
                from: *from,
                msg: msg.clone(),
                occ: if *symbolic { occ } else { 0 },
                kind: *kind,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lotos::parser::parse_spec;

    fn engine(src: &str) -> Engine {
        Engine::new(parse_spec(src).unwrap())
    }

    fn labels(e: &Engine, t: TermId) -> Vec<String> {
        let mut v: Vec<String> = e
            .transitions(t)
            .iter()
            .map(|(l, _)| l.to_string())
            .collect();
        v.sort();
        v
    }

    #[test]
    fn hash_consing_shares_structure() {
        let e = engine("SPEC a1;c1;exit [] a1;c1;exit ENDSPEC");
        let root = e.root();
        // both branches intern to the same child: Choice(x, x)
        match e.node(root) {
            TermNode::Choice(a, b) => assert_eq!(a, b),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn transitions_match_sos_reference() {
        for src in [
            "SPEC a1;exit [] b1;exit ENDSPEC",
            "SPEC a1;exit ||| b2;exit ENDSPEC",
            "SPEC a1;b2;exit |[b2]| b2;exit ENDSPEC",
            "SPEC a1;exit >> b2;exit ENDSPEC",
            "SPEC a1;b1;exit [> c1;exit ENDSPEC",
            "SPEC A WHERE PROC A = a1 ; A [] b1 ; exit END ENDSPEC",
        ] {
            let spec = parse_spec(src).unwrap();
            let env = crate::term::Env::new(spec.clone());
            let e = Engine::new(spec);
            // compare label multisets along a 3-step breadth-first frontier
            let mut rc_frontier = vec![env.root()];
            let mut id_frontier = vec![e.root()];
            for _ in 0..3 {
                let mut rc_labels: Vec<String> = Vec::new();
                let mut next_rc = Vec::new();
                for t in &rc_frontier {
                    for (l, t2) in crate::sos::transitions(&env, t) {
                        rc_labels.push(l.to_string());
                        next_rc.push(t2);
                    }
                }
                let mut id_labels: Vec<String> = Vec::new();
                let mut next_id = Vec::new();
                for t in &id_frontier {
                    for (l, t2) in e.transitions(*t).iter() {
                        id_labels.push(l.to_string());
                        next_id.push(*t2);
                    }
                }
                rc_labels.sort();
                id_labels.sort();
                assert_eq!(rc_labels, id_labels, "{src}");
                rc_frontier = next_rc;
                id_frontier = next_id;
            }
        }
    }

    #[test]
    fn memoization_caches_transitions() {
        let e = engine("SPEC a1;exit ||| b2;exit ENDSPEC");
        let root = e.root();
        let t1 = e.transitions(root);
        let t2 = e.transitions(root);
        assert!(Arc::ptr_eq(&t1, &t2));
    }

    #[test]
    fn hide_relabels() {
        let e = engine("SPEC a1; b2; exit ENDSPEC");
        let t = e.hide(vec![("a".into(), 1)], e.root());
        let steps = e.transitions(t);
        assert_eq!(steps.len(), 1);
        assert_eq!(steps[0].0, Label::I);
        assert_eq!(labels(&e, steps[0].1), vec!["b2"]);
    }

    #[test]
    fn occurrence_sensitive_unfolds_are_distinct() {
        let e = engine("SPEC A WHERE PROC A = s2(s,7); A END ENDSPEC");
        let root = e.root();
        let s1 = e.transitions(root);
        let s2 = e.transitions(s1[0].1);
        match (&s1[0].0, &s2[0].0) {
            (Label::Send { occ: o1, .. }, Label::Send { occ: o2, .. }) => {
                assert_ne!(o1, o2)
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn engines_share_arena_across_threads() {
        let arena = Arc::new(TermArena::new());
        let occ = Arc::new(Mutex::new(OccTable::new()));
        let spec = parse_spec("SPEC a1;b2;c3;exit ENDSPEC").unwrap();
        let e = Engine::with_shared(spec, Arc::clone(&arena), occ);
        let root = e.root();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    let mut t = root;
                    while let Some((_, next)) = e.transitions(t).iter().next().cloned() {
                        t = next;
                    }
                    assert!(matches!(e.node(t), TermNode::Stop));
                });
            }
        });
        // a1;b2;c3;exit unfolds into 5 states; arena also holds stop/exit
        assert!(arena.len() >= 5);
    }

    #[test]
    fn chunk_list_locates_across_chunk_boundaries() {
        let l: ChunkList<usize> = ChunkList::new();
        for i in 0..5000 {
            l.write(i, i * 3);
        }
        for i in (0..5000).step_by(7) {
            assert_eq!(*l.get(i), i * 3);
        }
    }
}
