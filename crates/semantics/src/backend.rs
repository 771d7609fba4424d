//! The entity stepper every engine uses: interpreted vs compiled.
//!
//! The discrete-event simulator (`sim::des`), the concurrent runtime's
//! entity threads and the distributed `serve_entity` loop all drive one
//! place-local behaviour per session through [`EntityBackend`]. This
//! module holds *how* a step is taken:
//!
//! * [`InterpretedBackend`] — hash-consed [`Engine`] terms with memoized
//!   transition rows.
//! * [`CompiledBackend`] — a [`CompiledEntity`] transition table walked
//!   with array indexing; per-session state is a dense state id plus a
//!   small occurrence-register file (see `docs/COMPILED.md`).
//!
//! The row a backend exposes preserves the [`Engine::transitions`]
//! successor order exactly (tables are built from it, and it matches
//! [`crate::sos::transitions`]), so backend choice never changes which
//! move a given RNG draw selects.
//!
//! ## Call discipline
//!
//! `offers(&mut self, state)` loads the current row and returns its
//! length; [`EntityBackend::offer`] then gives borrowing views into it
//! and [`EntityBackend::step`] advances along one of its entries. The
//! row stays valid until the next `offers`/`step` call (one backend
//! instance serves many sessions by re-loading between them). Which
//! offers of the loaded row may fire is [`enabled_offers`]'s to decide;
//! an engine only answers its [`MoveGuard`].
//!
//! ## Primitive ids
//!
//! Each backend interns its entity's service-primitive names in a
//! [`PrimTable`] at construction, and [`OfferView::Prim`] carries the
//! dense id next to the borrowed name. Engines that keep traces or
//! per-primitive counters map these local ids onto their run's own
//! table once, before stepping, and never compare names on the hot path.

use crate::engine::{Engine, TermArena, TermId, TermNode};
use crate::hash::FxHashMap;
use crate::lower::{CompiledEntity, LabelTpl, OccBase, OccSrc};
use crate::term::{Label, OccTable};
use lotos::ast::{Expr, Spec};
use lotos::event::{Event, MsgId, SyncKind};
use lotos::place::PlaceId;
use std::sync::{Arc, Mutex};

/// Per-session cursor into a backend: an opaque state id plus the
/// occurrence registers of that state (empty for the interpreted
/// backend, whose terms carry concrete occurrences internally).
#[derive(Clone, Debug)]
pub struct BState {
    pub id: u32,
    pub regs: Vec<u32>,
}

/// Service-primitive names interned to dense `u32` ids, in the order
/// they were first interned.
#[derive(Clone, Debug, Default)]
pub struct PrimTable {
    names: Vec<String>,
    index: FxHashMap<String, u32>,
}

impl PrimTable {
    pub fn new() -> PrimTable {
        PrimTable::default()
    }

    /// Every primitive name of `spec`, in first-appearance order.
    pub fn of_spec(spec: &Spec) -> PrimTable {
        let mut t = PrimTable::new();
        for i in 0..spec.node_count() {
            if let Expr::Prefix {
                event: Event::Prim { name, .. },
                ..
            } = spec.node(i as u32)
            {
                t.intern(name);
            }
        }
        t
    }

    /// The id of `name`, if it is interned.
    pub fn id(&self, name: &str) -> Option<u32> {
        self.index.get(name).copied()
    }

    /// The id of `name`, interning it first when it is new.
    pub fn intern(&mut self, name: &str) -> u32 {
        if let Some(id) = self.id(name) {
            return id;
        }
        let id = self.names.len() as u32;
        self.names.push(name.to_string());
        self.index.insert(name.to_string(), id);
        id
    }

    /// The name interned as `id`.
    pub fn name(&self, id: u32) -> &str {
        &self.names[id as usize]
    }

    /// Every name, in id order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.names.iter().map(String::as_str)
    }

    /// `(name, place)` pairs as ids of this table. Names it does not
    /// hold are dropped: no offer of its backend carries them.
    pub fn resolve(&self, pairs: &[(String, PlaceId)]) -> Vec<(u32, PlaceId)> {
        pairs
            .iter()
            .filter_map(|(name, place)| Some((self.id(name)?, *place)))
            .collect()
    }
}

/// A borrowed view of one offered transition — everything an engine
/// needs to classify the move against the medium and apply it, nothing
/// owned.
#[derive(Debug, PartialEq)]
pub enum OfferView<'a> {
    I,
    Delta,
    Prim {
        /// Id of `name` in the backend's [`EntityBackend::prims`].
        id: u32,
        name: &'a str,
        place: PlaceId,
    },
    Send {
        to: PlaceId,
        msg: &'a MsgId,
        occ: u32,
        kind: SyncKind,
    },
    Recv {
        from: PlaceId,
        msg: &'a MsgId,
        occ: u32,
        kind: SyncKind,
    },
}

/// How a protocol entity is stepped, one session at a time.
pub trait EntityBackend {
    /// Fresh per-session cursor at the entity's initial state.
    fn init(&mut self) -> BState;
    /// Load the offer row of `s`; returns the number of offers. The row
    /// order is the interpreted successor order.
    fn offers(&mut self, s: &BState) -> usize;
    /// View offer `i` of the loaded row.
    fn offer(&self, i: usize) -> OfferView<'_>;
    /// Advance `s` along offer `i` of the loaded row.
    fn step(&mut self, s: &mut BState, i: usize);
    /// Is `s` literally `stop` (inaction after δ, not a deadlock)?
    fn is_stop(&self, s: &BState) -> bool;
    /// The entity's primitive names, as [`OfferView::Prim`] ids them.
    fn prims(&self) -> &PrimTable;
}

/// What an engine's medium allows one entity to do right now. The DES
/// answers from its channels, links and clock, the concurrent engine
/// from the session's shared medium, and `serve_entity` from the heads
/// of its inboxes.
pub trait MoveGuard {
    /// May the entity hand a message for `to` to the medium now?
    fn can_send(&self, to: PlaceId) -> bool;
    /// Is `msg` with occurrence `occ` from `from` deliverable now? May
    /// advance the medium to find out (a fault link surfaces due frames).
    fn can_recv(&mut self, from: PlaceId, msg: &MsgId, occ: u32) -> bool;
}

/// What [`enabled_offers`] saw in a row besides the enabled offers.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RowFacts {
    /// The row offers δ. δ is never an enabled offer: each engine
    /// decides termination over all its entities.
    pub delta: bool,
    /// The first refused primitive, in row order.
    pub refused: Option<(u32, PlaceId)>,
}

/// The one rule for which offers of `backend`'s loaded row (`n` offers
/// long) may fire: `i` always, a primitive unless its `(id, place)` is in
/// `refuse` (ids of the backend's [`PrimTable`], see
/// [`PrimTable::resolve`]), a send or receive when `guard` allows it.
/// Fills `enabled` with their indices in row order, so the same RNG draw
/// picks the same move on every engine.
pub fn enabled_offers<B: EntityBackend + ?Sized, G: MoveGuard + ?Sized>(
    backend: &B,
    n: usize,
    refuse: &[(u32, PlaceId)],
    guard: &mut G,
    enabled: &mut Vec<usize>,
) -> RowFacts {
    enabled.clear();
    let mut facts = RowFacts::default();
    for i in 0..n {
        let fires = match backend.offer(i) {
            OfferView::I => true,
            OfferView::Delta => {
                facts.delta = true;
                false
            }
            OfferView::Prim { id, place, .. } => {
                let refused = refuse.contains(&(id, place));
                if refused && facts.refused.is_none() {
                    facts.refused = Some((id, place));
                }
                !refused
            }
            OfferView::Send { to, .. } => guard.can_send(to),
            OfferView::Recv { from, msg, occ, .. } => guard.can_recv(from, msg, occ),
        };
        if fires {
            enabled.push(i);
        }
    }
    facts
}

fn view_of<'a>(label: &'a Label, prims: &PrimTable) -> OfferView<'a> {
    match label {
        Label::I => OfferView::I,
        Label::Delta => OfferView::Delta,
        Label::Prim { name, place } => OfferView::Prim {
            id: prims
                .id(name)
                .expect("every primitive label comes from a prefix of the spec"),
            name,
            place: *place,
        },
        Label::Send { to, msg, occ, kind } => OfferView::Send {
            to: *to,
            msg,
            occ: *occ,
            kind: *kind,
        },
        Label::Recv {
            from,
            msg,
            occ,
            kind,
        } => OfferView::Recv {
            from: *from,
            msg,
            occ: *occ,
            kind: *kind,
        },
    }
}

/// Term interpretation via the hash-consed engine.
pub struct InterpretedBackend {
    engine: Engine,
    row: Arc<[(Label, TermId)]>,
    prims: PrimTable,
}

impl InterpretedBackend {
    pub fn new(engine: Engine) -> InterpretedBackend {
        InterpretedBackend {
            prims: PrimTable::of_spec(&engine.spec),
            engine,
            row: Arc::from(Vec::new().into_boxed_slice()),
        }
    }
}

impl EntityBackend for InterpretedBackend {
    fn init(&mut self) -> BState {
        BState {
            id: self.engine.root().raw(),
            regs: Vec::new(),
        }
    }

    fn offers(&mut self, s: &BState) -> usize {
        self.row = self.engine.transitions(TermId::from_raw(s.id));
        self.row.len()
    }

    fn offer(&self, i: usize) -> OfferView<'_> {
        view_of(&self.row[i].0, &self.prims)
    }

    fn step(&mut self, s: &mut BState, i: usize) {
        s.id = self.row[i].1.raw();
    }

    fn is_stop(&self, s: &BState) -> bool {
        matches!(self.engine.node(TermId::from_raw(s.id)), TermNode::Stop)
    }

    fn prims(&self) -> &PrimTable {
        &self.prims
    }
}

/// Table-driven stepping over a lowered entity. Occurrence values are
/// produced by evaluating each transition's register sources against the
/// run's shared occurrence table; a local `(parent, site) → child` cache
/// keeps the shared-table mutex off the hot path (child interning is
/// append-only, so cached entries never go stale).
pub struct CompiledBackend {
    ent: Arc<CompiledEntity>,
    occ: Arc<Mutex<OccTable>>,
    child_cache: FxHashMap<(u32, u32), u32>,
    /// Evaluated occurrence per transition of the loaded row.
    occs: Vec<u32>,
    /// Start of the loaded row in `ent.trans`.
    row_start: usize,
    regs_scratch: Vec<u32>,
    prims: PrimTable,
    /// Primitive id of each label template (0 for non-primitives).
    prim_of: Vec<u32>,
}

impl CompiledBackend {
    pub fn new(ent: Arc<CompiledEntity>, occ: Arc<Mutex<OccTable>>) -> CompiledBackend {
        let mut prims = PrimTable::new();
        let prim_of = ent
            .labels
            .iter()
            .map(|l| match l {
                LabelTpl::Prim { name, .. } => prims.intern(name),
                _ => 0,
            })
            .collect();
        CompiledBackend {
            prims,
            prim_of,
            ent,
            occ,
            child_cache: FxHashMap::default(),
            occs: Vec::new(),
            row_start: 0,
            regs_scratch: Vec::new(),
        }
    }
}

/// Evaluate an occurrence source against `regs`, chaining through the
/// backend-local child cache (falling back to the shared table to
/// intern). Free function so callers can borrow the table and the cache
/// disjointly from the rest of the backend.
fn eval_src(
    src: &OccSrc,
    regs: &[u32],
    cache: &mut FxHashMap<(u32, u32), u32>,
    occ: &Mutex<OccTable>,
) -> u32 {
    let mut v = match src.base {
        OccBase::Root => 0,
        OccBase::Reg(j) => regs[j as usize],
    };
    for &site in &src.sites {
        v = match cache.get(&(v, site)) {
            Some(&c) => c,
            None => {
                let c = occ.lock().expect("occ table poisoned").child(v, site);
                cache.insert((v, site), c);
                c
            }
        };
    }
    v
}

impl EntityBackend for CompiledBackend {
    fn init(&mut self) -> BState {
        let regs = self
            .ent
            .initial_regs
            .iter()
            .map(|s| eval_src(s, &[], &mut self.child_cache, &self.occ))
            .collect();
        BState { id: 0, regs }
    }

    #[inline]
    fn offers(&mut self, s: &BState) -> usize {
        self.row_start = self.ent.row_off[s.id as usize] as usize;
        let row_end = self.ent.row_off[s.id as usize + 1] as usize;
        self.occs.clear();
        for t in &self.ent.trans[self.row_start..row_end] {
            // Occurrences only matter on Send/Recv, but evaluating
            // unconditionally is branch-free: non-message labels carry a
            // Root/empty source that evaluates to 0.
            let v = match t.occ.as_reg() {
                Some(j) => s.regs[j as usize],
                None => eval_src(&t.occ, &s.regs, &mut self.child_cache, &self.occ),
            };
            self.occs.push(v);
        }
        self.occs.len()
    }

    #[inline]
    fn offer(&self, i: usize) -> OfferView<'_> {
        let t = &self.ent.trans[self.row_start + i];
        match &self.ent.labels[t.label as usize] {
            LabelTpl::I => OfferView::I,
            LabelTpl::Delta => OfferView::Delta,
            LabelTpl::Prim { name, place } => OfferView::Prim {
                id: self.prim_of[t.label as usize],
                name,
                place: *place,
            },
            LabelTpl::Send { to, msg, kind } => OfferView::Send {
                to: *to,
                msg,
                occ: self.occs[i],
                kind: *kind,
            },
            LabelTpl::Recv { from, msg, kind } => OfferView::Recv {
                from: *from,
                msg,
                occ: self.occs[i],
                kind: *kind,
            },
        }
    }

    #[inline]
    fn step(&mut self, s: &mut BState, i: usize) {
        let t = &self.ent.trans[self.row_start + i];
        self.regs_scratch.clear();
        for src in &t.regs {
            let v = match src.as_reg() {
                Some(j) => s.regs[j as usize],
                None => eval_src(src, &s.regs, &mut self.child_cache, &self.occ),
            };
            self.regs_scratch.push(v);
        }
        std::mem::swap(&mut s.regs, &mut self.regs_scratch);
        s.id = t.next;
    }

    fn is_stop(&self, s: &BState) -> bool {
        self.ent.is_stop[s.id as usize]
    }

    fn prims(&self) -> &PrimTable {
        &self.prims
    }
}

/// The two backends behind one statically-dispatched type (engine hot
/// loops stay monomorphic; no `dyn`).
pub enum Backend {
    Interpreted(InterpretedBackend),
    Compiled(CompiledBackend),
}

impl EntityBackend for Backend {
    #[inline]
    fn init(&mut self) -> BState {
        match self {
            Backend::Interpreted(b) => b.init(),
            Backend::Compiled(b) => b.init(),
        }
    }

    #[inline]
    fn offers(&mut self, s: &BState) -> usize {
        match self {
            Backend::Interpreted(b) => b.offers(s),
            Backend::Compiled(b) => b.offers(s),
        }
    }

    #[inline]
    fn offer(&self, i: usize) -> OfferView<'_> {
        match self {
            Backend::Interpreted(b) => b.offer(i),
            Backend::Compiled(b) => b.offer(i),
        }
    }

    #[inline]
    fn step(&mut self, s: &mut BState, i: usize) {
        match self {
            Backend::Interpreted(b) => b.step(s, i),
            Backend::Compiled(b) => b.step(s, i),
        }
    }

    #[inline]
    fn is_stop(&self, s: &BState) -> bool {
        match self {
            Backend::Interpreted(b) => b.is_stop(s),
            Backend::Compiled(b) => b.is_stop(s),
        }
    }

    fn prims(&self) -> &PrimTable {
        match self {
            Backend::Interpreted(b) => b.prims(),
            Backend::Compiled(b) => b.prims(),
        }
    }
}

/// Build the backend for one entity of a run: compiled when tables were
/// lowered for it, interpreted otherwise. `arena`/`occ` are the run's
/// shared term arena and §3.5 occurrence table (both backends intern
/// occurrences through the same table, so entities agree on instance
/// numbers regardless of per-entity backend mix).
pub fn make_backend(
    spec: &Spec,
    compiled: Option<Arc<CompiledEntity>>,
    arena: &Arc<TermArena>,
    occ: &Arc<Mutex<OccTable>>,
) -> Backend {
    match compiled {
        Some(ent) => Backend::Compiled(CompiledBackend::new(ent, Arc::clone(occ))),
        None => Backend::Interpreted(InterpretedBackend::new(Engine::with_shared(
            spec.clone(),
            Arc::clone(arena),
            Arc::clone(occ),
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::{lower_entity, LowerConfig};
    use lotos::parser::parse_spec;

    fn backends(src: &str) -> (Backend, Backend) {
        let spec = parse_spec(src).unwrap();
        let arena = Arc::new(TermArena::new());
        let occ = Arc::new(Mutex::new(OccTable::new()));
        let interp = make_backend(&spec, None, &arena, &occ);
        let ent = lower_entity(&spec, 1, &LowerConfig::default()).unwrap();
        let arena2 = Arc::new(TermArena::new());
        let occ2 = Arc::new(Mutex::new(OccTable::new()));
        let comp = make_backend(&spec, Some(Arc::new(ent)), &arena2, &occ2);
        (interp, comp)
    }

    /// `v` with its backend-local primitive id cleared, so views of two
    /// backends compare by name.
    fn by_name(v: OfferView<'_>) -> OfferView<'_> {
        match v {
            OfferView::Prim { name, place, .. } => OfferView::Prim { id: 0, name, place },
            v => v,
        }
    }

    /// Walk both backends lock-step, always taking the first offer, and
    /// require identical rows all the way.
    #[test]
    fn first_offer_walk_agrees() {
        let (mut a, mut b) = backends(
            "SPEC s2(s,1); exit >> A WHERE PROC A = r2(s,2); exit >> s2(s,3); exit >> A END ENDSPEC",
        );
        let mut sa = a.init();
        let mut sb = b.init();
        for _ in 0..40 {
            let (na, nb) = (a.offers(&sa), b.offers(&sb));
            assert_eq!(na, nb);
            if na == 0 {
                break;
            }
            for i in 0..na {
                assert_eq!(by_name(a.offer(i)), by_name(b.offer(i)), "offer {i}");
            }
            if matches!(a.offer(0), OfferView::Delta) {
                break;
            }
            a.step(&mut sa, 0);
            b.step(&mut sb, 0);
        }
    }

    /// Both backends id a primitive by its name: the id names it back,
    /// and a repeated name keeps its id.
    #[test]
    fn prim_ids_name_their_primitives() {
        let (mut a, mut b) = backends("SPEC a1; b1; a1; exit ENDSPEC");
        for backend in [&mut a, &mut b] {
            let mut s = backend.init();
            let mut seen = Vec::new();
            while backend.offers(&s) > 0 {
                if let OfferView::Prim { id, name, .. } = backend.offer(0) {
                    assert_eq!(backend.prims().name(id), name);
                    seen.push(id);
                }
                backend.step(&mut s, 0);
            }
            assert_eq!(seen.len(), 3);
            assert_eq!(seen[0], seen[2], "a1 changed id");
            assert_ne!(seen[0], seen[1]);
        }
    }

    #[test]
    fn is_stop_agrees_after_termination() {
        let (mut a, mut b) = backends("SPEC a1; exit ENDSPEC");
        let mut sa = a.init();
        let mut sb = b.init();
        for _ in 0..2 {
            assert!(!a.is_stop(&sa));
            assert!(!b.is_stop(&sb));
            a.offers(&sa);
            a.step(&mut sa, 0);
            b.offers(&sb);
            b.step(&mut sb, 0);
        }
        // a1, then δ: both land on `stop`
        assert!(a.is_stop(&sa));
        assert!(b.is_stop(&sb));
    }

    /// Every send may go, and the channel from place 3 holds message 8
    /// at its head.
    struct FakeGuard;

    impl MoveGuard for FakeGuard {
        fn can_send(&self, _to: PlaceId) -> bool {
            true
        }

        fn can_recv(&mut self, from: PlaceId, msg: &MsgId, occ: u32) -> bool {
            from == 3 && *msg == MsgId::Node(8) && occ == 0
        }
    }

    /// One row with every kind of offer: the refused `a1`, a send, a
    /// receive of a message that is not at the head of its channel, `b1`
    /// and δ. Only the send and `b1` fire, in row order.
    #[test]
    fn kernel_classifies_a_row_in_order() {
        let spec =
            parse_spec("SPEC a1; exit [] s2(5); exit [] r3(7); exit [] b1; exit [] exit ENDSPEC")
                .unwrap();
        let arena = Arc::new(TermArena::new());
        let occ = Arc::new(Mutex::new(OccTable::new()));
        let mut backend = make_backend(&spec, None, &arena, &occ);
        let s = backend.init();
        let n = backend.offers(&s);
        assert_eq!(n, 5);
        let a = backend.prims().id("a").unwrap();
        let mut enabled = vec![99];
        let facts = enabled_offers(&backend, n, &[(a, 1)], &mut FakeGuard, &mut enabled);
        assert_eq!(enabled, [1, 3]);
        assert!(matches!(backend.offer(1), OfferView::Send { to: 2, .. }));
        assert!(matches!(
            backend.offer(3),
            OfferView::Prim { name: "b", .. }
        ));
        assert_eq!(
            facts,
            RowFacts {
                delta: true,
                refused: Some((a, 1)),
            }
        );
    }
}
