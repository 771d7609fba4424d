//! The protocol-entity actor: one OS thread per place, interpreting that
//! place's derived behaviour for every in-flight session.
//!
//! ## Concurrency model
//!
//! Entity threads parallelize *across sessions*: all moves of one session
//! are serialized by that session's mutex (giving each session a
//! sequentially consistent interleaving — the property the paper's
//! composition semantics assumes), while different sessions proceed
//! concurrently on the same entity set. Behaviour terms are interned
//! [`semantics::engine::TermId`]s from engines that share one arena and
//! one occurrence table, so all entities agree on §3.5 instance numbers
//! and transition memoization is shared by every session.
//!
//! ## Termination, deadlock, backpressure
//!
//! * δ-termination is a vote: an entity whose term offers δ sets its vote
//!   bit; the entity that completes the vote with all channels drained
//!   commits `Terminated`. Executing any non-δ move clears the entity's
//!   vote (δ-offers are retracted by moving away).
//! * An entity with no enabled move for a session sets its blocked bit;
//!   the entity that blocks *last* observes a true global quiescent state
//!   (every state change happens under the session lock) and resolves it:
//!   commit termination, advance the fault clock to the next link
//!   deadline, or declare deadlock.
//! * A send on a full channel is simply not enabled
//!   ([`medium::Capacity::Bounded`] semantics) — the thread never parks
//!   on one session's backpressure; it works other sessions.

use crate::config::RuntimeConfig;
use crate::session::{SessionCore, SessionEnd, SessionSlot};
use lotos::event::MsgId;
use lotos::place::PlaceId;
use medium::Msg;
use obs::{EventKind, Recorder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use semantics::backend::{enabled_offers, BState, Backend, EntityBackend, MoveGuard, OfferView};
use semantics::hash::{fx_hash, FxHashMap};
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// A control message to an entity thread.
pub enum Control {
    /// Start interpreting this session.
    Open(Arc<SessionSlot>),
    /// No more sessions; exit once the queue is drained.
    Shutdown,
}

#[derive(Default)]
struct NotifyState {
    controls: Vec<Control>,
    /// Sessions poked since the last drain; may repeat (the consumer
    /// deduplicates against its run queue).
    wakes: Vec<u64>,
}

impl NotifyState {
    fn is_empty(&self) -> bool {
        self.controls.is_empty() && self.wakes.is_empty()
    }
}

/// Wake-up channel of one entity thread: session opens, shutdown, and
/// "session `id` may have new work for you" pokes from peers.
///
/// Producers publish under the mutex but only signal the condvar on the
/// empty → non-empty transition: a consumer that saw a non-empty state
/// never parks (the wait loop rechecks under the same mutex), so
/// intermediate signals would be futex traffic for threads that are
/// already awake.
#[derive(Default)]
pub struct Notifier {
    state: Mutex<NotifyState>,
    cv: Condvar,
}

impl Notifier {
    pub fn new() -> Notifier {
        Notifier::default()
    }

    fn publish<F: FnOnce(&mut NotifyState)>(&self, f: F) {
        let mut st = self.state.lock().expect("notifier poisoned");
        let was_empty = st.is_empty();
        f(&mut st);
        drop(st);
        if was_empty {
            self.cv.notify_one();
        }
    }

    pub fn open(&self, slot: Arc<SessionSlot>) {
        self.publish(|st| st.controls.push(Control::Open(slot)));
    }

    pub fn shutdown(&self) {
        self.publish(|st| st.controls.push(Control::Shutdown));
    }

    pub fn wake(&self, session: u64) {
        self.publish(|st| st.wakes.push(session));
    }

    /// Take everything pending into `controls` and `wakes` (both must be
    /// empty; their buffers are swapped in, so a steady-state drain
    /// allocates nothing). Blocks until something arrives when `block`
    /// is set and nothing is pending.
    pub fn drain(&self, block: bool, controls: &mut Vec<Control>, wakes: &mut Vec<u64>) {
        debug_assert!(controls.is_empty() && wakes.is_empty());
        let mut st = self.state.lock().expect("notifier poisoned");
        while block && st.is_empty() {
            st = self.cv.wait(st).expect("notifier poisoned");
        }
        std::mem::swap(&mut st.controls, controls);
        std::mem::swap(&mut st.wakes, wakes);
    }
}

/// Completed sessions, handed back to the multiplexer.
#[derive(Default)]
pub struct CompletionQueue {
    state: Mutex<VecDeque<Arc<SessionSlot>>>,
    cv: Condvar,
}

impl CompletionQueue {
    pub fn new() -> CompletionQueue {
        CompletionQueue::default()
    }

    pub fn push(&self, slot: Arc<SessionSlot>) {
        let mut st = self.state.lock().expect("completion queue poisoned");
        let was_empty = st.is_empty();
        st.push_back(slot);
        drop(st);
        if was_empty {
            self.cv.notify_one();
        }
    }

    /// Block until a session completes or `timeout` passes.
    pub fn pop_timeout(&self, timeout: Duration) -> Option<Arc<SessionSlot>> {
        let st = self.state.lock().expect("completion queue poisoned");
        let (mut st, _) = self
            .cv
            .wait_timeout_while(st, timeout, |st| st.is_empty())
            .expect("completion queue poisoned");
        st.pop_front()
    }
}

/// Per-session state local to one entity thread.
struct LocalSession {
    slot: Arc<SessionSlot>,
    state: BState,
    rng: StdRng,
    /// In the thread's run queue already (wakes are deduplicated here).
    queued: bool,
}

/// Work still possible after a scheduling slice.
enum StepOutcome {
    /// Session reached a terminal state (or a peer completed it).
    Completed,
    /// No enabled move; a peer's wake will resume it.
    Blocked,
    /// Slice exhausted with moves remaining — reschedule.
    Yield,
}

/// Moves executed per session per slice before rotating to other
/// sessions (bounds per-session lock tenancy and keeps the run fair).
const SLICE: usize = 64;

/// Pack a synchronization message into recorder event words, interning
/// named message ids through the recorder's registry.
pub(crate) fn pack_msg_event(
    rec: &Recorder,
    msg: &MsgId,
    occ: u32,
    from: PlaceId,
    to: PlaceId,
) -> (u64, u64) {
    let (named, id) = match msg {
        MsgId::Named(n) => (true, rec.intern(n)),
        MsgId::Node(n) => (false, *n),
    };
    obs::pack_msg(named, id, occ, from, to)
}

/// A session's shared medium, as the move kernel asks it about the
/// entity at `place` (read under the session lock).
struct SessionGuard<'s> {
    core: &'s mut SessionCore,
    place: PlaceId,
}

impl MoveGuard for SessionGuard<'_> {
    fn can_send(&self, to: PlaceId) -> bool {
        self.core.can_send(self.place, to)
    }

    fn can_recv(&mut self, from: PlaceId, msg: &MsgId, occ: u32) -> bool {
        self.core.can_receive(from, self.place, msg, occ)
    }
}

/// One protocol-entity actor.
pub struct EntityWorker {
    /// Dense index of this entity (bit position in vote/blocked masks).
    pub idx: usize,
    pub place: PlaceId,
    /// Total number of entities.
    pub n: usize,
    /// How this entity's behaviour is stepped: interpreted terms or a
    /// compiled transition table (see [`semantics::backend`]).
    pub backend: Backend,
    pub cfg: RuntimeConfig,
    /// Notifiers of *all* entities, indexed like the entity list.
    pub notifiers: Vec<Arc<Notifier>>,
    /// Place → dense entity index, indexed by place.
    pub place_index: Vec<usize>,
    /// The backend's primitive ids → ids of the run's primitive table.
    pub prim_ids: Vec<u32>,
    /// `cfg.refuse`, as the backend's primitive ids.
    pub refuse: Vec<(u32, PlaceId)>,
    pub completions: Arc<CompletionQueue>,
    /// Flight recorder for this thread (`None` = recording disabled, one
    /// branch per event).
    pub rec: Option<Recorder>,
}

impl EntityWorker {
    /// The thread body: interpret every open session until shutdown.
    pub fn run(mut self) {
        let mut sessions: FxHashMap<u64, LocalSession> = FxHashMap::default();
        // Sessions to step, each at most once (`LocalSession::queued`).
        let mut pending: VecDeque<u64> = VecDeque::new();
        let mut controls: Vec<Control> = Vec::new();
        let mut wakes: Vec<u64> = Vec::new();
        // Offers enabled in the current classification pass.
        let mut enabled: Vec<usize> = Vec::new();
        let mut shutdown = false;
        loop {
            if shutdown && sessions.is_empty() {
                return;
            }
            self.notifiers[self.idx].drain(pending.is_empty(), &mut controls, &mut wakes);
            for c in controls.drain(..) {
                match c {
                    Control::Open(slot) => {
                        let id = slot.core.lock().expect("session poisoned").id;
                        let rng = StdRng::seed_from_u64(fx_hash(&(self.cfg.seed, id, self.place)));
                        let state = self.backend.init();
                        let local = LocalSession {
                            slot,
                            state,
                            rng,
                            queued: true,
                        };
                        sessions.insert(id, local);
                        pending.push_back(id);
                    }
                    Control::Shutdown => shutdown = true,
                }
            }
            for w in wakes.drain(..) {
                if let Some(local) = sessions.get_mut(&w) {
                    if !local.queued {
                        local.queued = true;
                        pending.push_back(w);
                    }
                }
            }
            // One pass over what is queued now; sessions that yield go
            // to the back and wait for the next pass.
            for _ in 0..pending.len() {
                let Some(id) = pending.pop_front() else { break };
                let Some(local) = sessions.get_mut(&id) else {
                    continue;
                };
                match self.step_session(local, &mut enabled) {
                    StepOutcome::Completed => {
                        sessions.remove(&id);
                    }
                    StepOutcome::Blocked => local.queued = false,
                    StepOutcome::Yield => pending.push_back(id),
                }
            }
        }
    }

    /// Run up to [`SLICE`] moves of one session, classifying offers into
    /// the caller's `enabled` buffer. Returns how the slice ended.
    fn step_session(&mut self, local: &mut LocalSession, enabled: &mut Vec<usize>) -> StepOutcome {
        for _ in 0..SLICE {
            let n_offers = self.backend.offers(&local.state);
            let mut core = local.slot.core.lock().expect("session poisoned");
            // Stage attribution: lock-held time of this move counts
            // toward the session's `step` stage when a move (or a
            // terminal verdict) actually executes; classification
            // passes fall into the `notify_wait` residual.
            let t0 = std::time::Instant::now();
            let id = core.id;
            if core.completed.is_some() {
                return StepOutcome::Completed;
            }

            // Classify which of the backend's offered transitions are
            // enabled in the current medium state.
            let mut guard = SessionGuard {
                core: &mut core,
                place: self.place,
            };
            let facts = enabled_offers(&self.backend, n_offers, &self.refuse, &mut guard, enabled);
            let vote_available = facts.delta && !core.has_vote(self.idx);
            if !facts.delta && core.has_vote(self.idx) {
                core.clear_vote(self.idx);
            }

            if enabled.is_empty() && !vote_available {
                // Blocked against a refused offer: remember it so a
                // later deadlock verdict can name the primitive the
                // conformance monitor never got to see.
                if let Some((p, place)) = facts.refused {
                    if core.refused_offer.is_none() {
                        if let Some(rec) = &self.rec {
                            rec.record_named(
                                EventKind::PrimOffer,
                                id,
                                core.steps as u64,
                                self.backend.prims().name(p),
                                place as u64,
                            );
                        }
                        core.refused_offer = Some((self.prim_ids[p as usize], place));
                    }
                }
                core.set_blocked(self.idx);
                if !core.all_blocked(self.n) {
                    return StepOutcome::Blocked;
                }
                // Global quiescence — this thread resolves it.
                if facts.delta && core.all_voted(self.n) && core.quiet() {
                    core.complete(SessionEnd::Terminated);
                    core.credit_step(t0);
                    drop(core);
                    self.finish(local, id);
                    return StepOutcome::Completed;
                }
                if let Some(t) = core.next_link_deadline() {
                    // Links still have pending retransmissions or
                    // in-flight frames: advance the logical clock past
                    // the deadline, pump, and retry everywhere.
                    core.clock = core.clock.max(t) + 1e-9;
                    core.pump_all();
                    core.clear_all_blocked();
                    drop(core);
                    for nt in &self.notifiers {
                        nt.wake(id);
                    }
                    continue;
                }
                core.complete(SessionEnd::Deadlock);
                core.credit_step(t0);
                drop(core);
                self.finish(local, id);
                return StepOutcome::Completed;
            }
            core.clear_blocked(self.idx);

            // Pick uniformly among enabled moves (+ the δ vote).
            let total = enabled.len() + usize::from(vote_available);
            let k = if total == 1 {
                0
            } else {
                local.rng.gen_range(0..total)
            };
            if k == enabled.len() {
                // The δ vote. Not a step: it retracts nothing and the
                // next classification won't re-offer it.
                core.vote(self.idx);
                if core.all_voted(self.n) && core.quiet() {
                    core.complete(SessionEnd::Terminated);
                    core.credit_step(t0);
                    drop(core);
                    self.finish(local, id);
                    return StepOutcome::Completed;
                }
                continue;
            }

            let i = enabled[k];
            core.tick();
            core.clear_vote(self.idx);
            let step_limited = core.steps >= self.cfg.max_steps;
            let mut wake_peer: Option<usize> = None;
            match self.backend.offer(i) {
                OfferView::I => core.counts.internal += 1,
                OfferView::Delta => unreachable!("δ handled by the vote path"),
                OfferView::Prim { id: p, name, place } => {
                    core.push_prim(self.prim_ids[p as usize], place);
                    if let Some(rec) = &self.rec {
                        rec.record_named(
                            EventKind::Prim,
                            id,
                            core.steps as u64,
                            name,
                            place as u64,
                        );
                    }
                }
                OfferView::Send { to, msg, occ, kind } => {
                    if let Some(rec) = &self.rec {
                        let (a, b) = pack_msg_event(rec, msg, occ, self.place, to);
                        rec.record(EventKind::MediumSend, id, core.steps as u64, a, b);
                    }
                    core.send(Msg {
                        from: self.place,
                        to,
                        id: msg.clone(),
                        occ,
                        kind,
                    });
                    // The destination may now have an enabled receive:
                    // its blocked bit is stale. Clearing it under the
                    // lock keeps the all-blocked quiescence test sound.
                    let peer = self.place_index[to as usize];
                    core.clear_blocked(peer);
                    wake_peer = Some(peer);
                }
                OfferView::Recv { from, msg, occ, .. } => {
                    core.receive(from, self.place, msg, occ)
                        .expect("classified receivable, then gone: session lock was held");
                    if let Some(rec) = &self.rec {
                        let (a, b) = pack_msg_event(rec, msg, occ, from, self.place);
                        rec.record(EventKind::MediumRecv, id, core.steps as u64, a, b);
                    }
                    // The channel drained by one slot: the sender may
                    // have a backpressured send waiting.
                    let peer = self.place_index[from as usize];
                    core.clear_blocked(peer);
                    wake_peer = Some(peer);
                }
            }
            self.backend.step(&mut local.state, i);
            core.note_state(self.idx, local.state.id as u64);
            core.credit_step(t0);
            if step_limited {
                core.complete(SessionEnd::StepLimit);
                drop(core);
                self.finish(local, id);
                return StepOutcome::Completed;
            }
            drop(core);
            if let Some(p) = wake_peer {
                if p != self.idx {
                    self.notifiers[p].wake(id);
                }
            }
        }
        StepOutcome::Yield
    }

    /// A session reached a terminal state under this thread: hand it to
    /// the multiplexer and wake every peer so they drop their local state.
    fn finish(&self, local: &LocalSession, id: u64) {
        for (i, nt) in self.notifiers.iter().enumerate() {
            if i != self.idx {
                nt.wake(id);
            }
        }
        self.completions.push(Arc::clone(&local.slot));
    }
}
