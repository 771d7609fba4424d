//! Per-session shared state: the medium (reliable or fault-injected),
//! the primitive trace, and the distributed-termination bookkeeping.
//!
//! One service session is one independent run of the derived protocol:
//! every entity thread holds its own behaviour term for the session,
//! while the session's channels, clock, and trace live here behind a
//! single mutex. The mutex serializes the *moves* of one session (which
//! keeps the interleaving semantics of one run sequentially consistent —
//! the same property the DES enforces by construction) while different
//! sessions proceed in parallel on the same entity threads.

use crate::config::RuntimeConfig;
use crate::faults::FaultLink;
use crate::metrics::StageBreakdown;
use lotos::event::{MsgId, SyncKind};
use lotos::place::PlaceId;
use medium::Msg;
use semantics::hash::fx_hash;
use std::collections::VecDeque;
use std::sync::Mutex;
use std::time::Instant;

/// How a session ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SessionEnd {
    /// Every entity offered δ and all channels drained — global
    /// successful termination.
    Terminated,
    /// No entity can move and no link activity is pending.
    Deadlock,
    /// The per-session step limit was reached while still live.
    StepLimit,
    /// The session was killed by the runtime — in distributed mode, a
    /// transport link died and did not recover within its deadline. The
    /// session's entities may hold inconsistent state; it is reported,
    /// never silently dropped.
    Aborted,
}

impl SessionEnd {
    /// The outcome's one-byte code: the `end` of a `WireMsg::Close` frame
    /// and of a recorded `SessionClose` event.
    pub fn code(self) -> u8 {
        match self {
            SessionEnd::Terminated => 0,
            SessionEnd::Deadlock => 1,
            SessionEnd::StepLimit => 2,
            SessionEnd::Aborted => 3,
        }
    }

    /// Inverse of [`Self::code`]; unknown bytes read as `Aborted` — the
    /// conservative outcome.
    pub fn from_code(b: u8) -> SessionEnd {
        match b {
            0 => SessionEnd::Terminated,
            1 => SessionEnd::Deadlock,
            2 => SessionEnd::StepLimit,
            _ => SessionEnd::Aborted,
        }
    }
}

/// What one session counted while it ran. Engines keep these in the
/// session and fold them into the run's [`crate::Metrics`] once, when
/// the session closes, so no shared counter is written per move.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SessionCounts {
    /// Messages sent into the medium.
    pub sent: usize,
    /// Messages consumed by their receivers.
    pub delivered: usize,
    /// Internal (`i`) actions executed.
    pub internal: usize,
    /// Messages sent per kind, indexed like [`SyncKind::ALL`].
    pub per_kind: [usize; SyncKind::ALL.len()],
    /// Deepest any one channel got.
    pub max_depth: usize,
}

impl SessionCounts {
    /// Count one sent message of `kind`, its channel `depth` deep after
    /// the send.
    pub fn on_send(&mut self, kind: SyncKind, depth: usize) {
        self.sent += 1;
        self.per_kind[kind as usize] += 1;
        self.max_depth = self.max_depth.max(depth);
    }
}

/// The session's channels, one per entry of the run's channel list: the
/// paper's reliable FIFO queues, or one ARQ fault link per directed
/// channel.
#[derive(Debug)]
pub enum SessionMedium {
    Reliable(Vec<VecDeque<Msg>>),
    Faulty(Vec<FaultLink>),
}

/// Mutable state of one session, shared by all entity threads. A closed
/// core is reused for a later session through [`Self::reopen`], which
/// keeps every buffer's capacity.
#[derive(Debug)]
pub struct SessionCore {
    pub id: u64,
    /// This session's derived seed (see `RuntimeConfig::session_seed`).
    pub seed: u64,
    /// Per-channel capacity; `None` is unbounded.
    capacity: Option<usize>,
    /// The run's directed channels; `medium` holds one queue or link per
    /// entry, in this order.
    chans: Vec<(PlaceId, PlaceId)>,
    pub medium: SessionMedium,
    pub counts: SessionCounts,
    /// Logical clock: one unit per executed action. Drives fault-link
    /// delays and retransmission timers.
    pub clock: f64,
    /// Executed actions (all kinds).
    pub steps: usize,
    /// The global service-primitive trace, in execution order, as ids of
    /// the run's primitive table.
    pub trace: Vec<(u32, PlaceId)>,
    /// Wall µs before each primitive of `trace` since the previous one
    /// (since the open, for the first).
    pub gaps: Vec<u64>,
    /// Termination votes: bit `k` set when entity `k` currently offers δ.
    votes: u64,
    /// Bit `k` set when entity `k` found no enabled move for this session.
    blocked: u64,
    pub completed: Option<SessionEnd>,
    pub started: Instant,
    pub ended: Option<Instant>,
    /// Wall-clock moment of the first *executed* entity move — open to
    /// here is the session's `queue_wait` stage.
    pub first_step: Option<Instant>,
    /// Nanoseconds spent executing entity moves under this lock — the
    /// session's `step` stage (pure classification passes not counted).
    pub step_ns: u64,
    /// Backend state of each entity's most recent move, indexed by
    /// entity; captured for stall forensics.
    pub entity_states: Vec<u64>,
    /// Wall-clock moment of the most recent primitive (per-primitive
    /// inter-arrival latency).
    pub last_prim: Option<Instant>,
    /// Last primitive (an id of the run's table) an entity *would* have
    /// executed but for the `--refuse` table, noted when the entity had
    /// no other move. A deadlock with this set is a refusal-induced
    /// conformance failure and is reported as a violation naming this
    /// primitive.
    pub refused_offer: Option<(u32, PlaceId)>,
}

impl SessionCore {
    pub fn new(id: u64, seed: u64, cfg: &RuntimeConfig, channels: &[(PlaceId, PlaceId)]) -> Self {
        let mut core = SessionCore {
            id,
            seed,
            capacity: None,
            chans: channels.to_vec(),
            medium: SessionMedium::Reliable(Vec::new()),
            counts: SessionCounts::default(),
            clock: 0.0,
            steps: 0,
            trace: Vec::new(),
            gaps: Vec::new(),
            votes: 0,
            blocked: 0,
            completed: None,
            started: Instant::now(),
            ended: None,
            first_step: None,
            step_ns: 0,
            entity_states: Vec::new(),
            last_prim: None,
            refused_offer: None,
        };
        core.reopen(id, seed, cfg);
        core
    }

    /// Reset this core for a new session `id` of the same run: empty
    /// channels, zero counters, a fresh clock. Buffers keep their
    /// capacity, so a recycled core allocates nothing on the reliable
    /// medium.
    pub fn reopen(&mut self, id: u64, seed: u64, cfg: &RuntimeConfig) {
        self.id = id;
        self.seed = seed;
        self.capacity = (cfg.capacity != 0).then_some(cfg.capacity);
        let chans = &self.chans;
        match &mut self.medium {
            SessionMedium::Reliable(queues) if cfg.faults.is_none() => {
                queues.resize_with(chans.len(), VecDeque::new);
                queues.iter_mut().for_each(VecDeque::clear);
            }
            medium if cfg.faults.is_none() => {
                *medium = SessionMedium::Reliable(chans.iter().map(|_| VecDeque::new()).collect());
            }
            medium => {
                *medium = SessionMedium::Faulty(
                    chans
                        .iter()
                        .map(|&(from, to)| FaultLink::new(cfg.faults, fx_hash(&(seed, from, to))))
                        .collect(),
                );
            }
        }
        self.counts = SessionCounts::default();
        self.clock = 0.0;
        self.steps = 0;
        self.trace.clear();
        self.gaps.clear();
        self.votes = 0;
        self.blocked = 0;
        self.completed = None;
        self.started = Instant::now();
        self.ended = None;
        self.first_step = None;
        self.step_ns = 0;
        self.entity_states.clear();
        self.last_prim = None;
        self.refused_offer = None;
    }

    /// Index of channel `from → to` in the run's channel list.
    fn chan(&self, from: PlaceId, to: PlaceId) -> Option<usize> {
        self.chans.iter().position(|&c| c == (from, to))
    }

    /// Note entity `idx`'s current backend state (stall forensics).
    pub fn note_state(&mut self, idx: usize, state: u64) {
        if self.entity_states.len() <= idx {
            self.entity_states.resize(idx + 1, 0);
        }
        self.entity_states[idx] = state;
    }

    /// Credit `t0 → now` to the step stage, stamping the first executed
    /// move on the way (both called with the session lock held).
    pub fn credit_step(&mut self, t0: Instant) {
        if self.first_step.is_none() {
            self.first_step = Some(t0);
        }
        self.step_ns += t0.elapsed().as_nanos() as u64;
    }

    /// The session's stage split `age_us` after it opened: queue_wait
    /// runs from open to the first executed move; step is the lock-held
    /// stepping time the entity threads credited; wire is zero
    /// in-process; the residual is notify_wait (notifier queues, lock
    /// contention, scheduler round trips).
    pub fn stages(&self, age_us: u64) -> StageBreakdown {
        let queue_us = self
            .first_step
            .map(|t| t.saturating_duration_since(self.started).as_micros() as u64)
            .unwrap_or(age_us);
        StageBreakdown::attribute(age_us, queue_us, self.step_ns / 1000, 0, None)
    }

    /// Append primitive `prim` (an id of the run's table) at `place` to
    /// the trace, with its inter-arrival gap.
    pub fn push_prim(&mut self, prim: u32, place: PlaceId) {
        let now = Instant::now();
        let since = self.last_prim.unwrap_or(self.started);
        self.gaps.push(now.duration_since(since).as_micros() as u64);
        self.last_prim = Some(now);
        self.trace.push((prim, place));
    }

    /// Is a send on `from → to` enabled (capacity backpressure)? A send
    /// on a full channel is *not enabled* — the entity simply offers its
    /// other moves, exactly the `Capacity::Bounded` semantics.
    pub fn can_send(&self, from: PlaceId, to: PlaceId) -> bool {
        let Some(cap) = self.capacity else {
            return true;
        };
        match (&self.medium, self.chan(from, to)) {
            (_, None) => true,
            (SessionMedium::Reliable(queues), Some(c)) => queues[c].len() < cap,
            (SessionMedium::Faulty(links), Some(c)) => links[c].queued() < cap,
        }
    }

    /// Enqueue a message (the caller checked [`Self::can_send`]).
    pub fn send(&mut self, msg: Msg) {
        let c = self
            .chan(msg.from, msg.to)
            .expect("send on unknown channel");
        let kind = msg.kind;
        let depth = match &mut self.medium {
            SessionMedium::Reliable(queues) => {
                debug_assert!(
                    self.capacity.is_none_or(|cap| queues[c].len() < cap),
                    "send on full channel: caller skipped can_send"
                );
                queues[c].push_back(msg);
                queues[c].len()
            }
            SessionMedium::Faulty(links) => {
                links[c].submit(msg, self.clock);
                links[c].queued()
            }
        };
        self.counts.on_send(kind, depth);
    }

    /// Can `(id, occ)` be consumed from `from → to` right now? Pumps the
    /// fault link first so frames that became due surface.
    pub fn can_receive(&mut self, from: PlaceId, to: PlaceId, id: &MsgId, occ: u32) -> bool {
        let Some(c) = self.chan(from, to) else {
            return false;
        };
        let head = match &mut self.medium {
            SessionMedium::Reliable(queues) => queues[c].front(),
            SessionMedium::Faulty(links) => {
                links[c].pump(self.clock);
                links[c].peek()
            }
        };
        head.is_some_and(|m| m.id == *id && m.occ == occ)
    }

    /// Consume `(id, occ)` from `from → to` (head-of-line under FIFO).
    pub fn receive(&mut self, from: PlaceId, to: PlaceId, id: &MsgId, occ: u32) -> Option<Msg> {
        if !self.can_receive(from, to, id, occ) {
            return None;
        }
        let c = self.chan(from, to)?;
        let msg = match &mut self.medium {
            SessionMedium::Reliable(queues) => queues[c].pop_front()?,
            SessionMedium::Faulty(links) => links[c].take()?,
        };
        self.counts.delivered += 1;
        Some(msg)
    }

    /// Record one executed action.
    pub fn tick(&mut self) {
        self.steps += 1;
        self.clock += 1.0;
    }

    // ---- distributed termination & quiescence ---------------------------

    pub fn vote(&mut self, entity: usize) {
        self.votes |= 1 << entity;
    }

    pub fn clear_vote(&mut self, entity: usize) {
        self.votes &= !(1 << entity);
    }

    pub fn has_vote(&self, entity: usize) -> bool {
        self.votes & (1 << entity) != 0
    }

    pub fn all_voted(&self, n: usize) -> bool {
        self.votes == full_mask(n)
    }

    pub fn set_blocked(&mut self, entity: usize) {
        self.blocked |= 1 << entity;
    }

    pub fn clear_blocked(&mut self, entity: usize) {
        self.blocked &= !(1 << entity);
    }

    pub fn clear_all_blocked(&mut self) {
        self.blocked = 0;
    }

    /// Every entity is blocked — because every state change of a session
    /// happens under its lock, this is a true global quiescent state.
    pub fn all_blocked(&self, n: usize) -> bool {
        self.blocked == full_mask(n)
    }

    /// All channels drained and no link activity in flight?
    pub fn quiet(&self) -> bool {
        match &self.medium {
            SessionMedium::Reliable(queues) => queues.iter().all(VecDeque::is_empty),
            SessionMedium::Faulty(links) => links.iter().all(|l| l.is_idle()),
        }
    }

    /// Earliest pending link deadline (retransmission or wire delivery),
    /// if fault links still have work.
    pub fn next_link_deadline(&self) -> Option<f64> {
        match &self.medium {
            SessionMedium::Reliable(_) => None,
            SessionMedium::Faulty(links) => links
                .iter()
                .filter_map(|l| l.next_deadline())
                .min_by(f64::total_cmp),
        }
    }

    /// Pump every fault link at the current clock.
    pub fn pump_all(&mut self) {
        if let SessionMedium::Faulty(links) = &mut self.medium {
            for l in links {
                l.pump(self.clock);
            }
        }
    }

    /// Total (frames lost, retransmissions) over all links.
    pub fn link_totals(&self) -> (usize, usize) {
        match &self.medium {
            SessionMedium::Reliable(_) => (0, 0),
            SessionMedium::Faulty(links) => links.iter().fold((0, 0), |(fl, rt), l| {
                (fl + l.frames_lost, rt + l.retransmissions())
            }),
        }
    }

    /// Per-channel `(frames lost, retransmissions)` — the per-link
    /// breakdown behind [`Self::link_totals`].
    pub fn link_breakdown(&self) -> Vec<((PlaceId, PlaceId), (usize, usize))> {
        match &self.medium {
            SessionMedium::Reliable(_) => Vec::new(),
            SessionMedium::Faulty(links) => self
                .chans
                .iter()
                .zip(links)
                .map(|(&k, l)| (k, (l.frames_lost, l.retransmissions())))
                .collect(),
        }
    }

    /// Latch the session outcome (first writer wins).
    pub fn complete(&mut self, end: SessionEnd) {
        if self.completed.is_none() {
            self.completed = Some(end);
            self.ended = Some(Instant::now());
        }
    }
}

fn full_mask(n: usize) -> u64 {
    debug_assert!(n <= 64, "PlaceSet is a u64 — at most 64 entities");
    if n >= 64 {
        u64::MAX
    } else {
        (1u64 << n) - 1
    }
}

/// A session as shared between the multiplexer and the entity threads.
#[derive(Debug)]
pub struct SessionSlot {
    pub core: Mutex<SessionCore>,
}

impl SessionSlot {
    pub fn new(core: SessionCore) -> SessionSlot {
        SessionSlot {
            core: Mutex::new(core),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FaultProfile;
    use lotos::event::SyncKind;

    fn cfg() -> RuntimeConfig {
        RuntimeConfig::new().capacity(2)
    }

    fn msg(from: PlaceId, to: PlaceId, n: u32) -> Msg {
        Msg {
            from,
            to,
            id: MsgId::Node(n),
            occ: 0,
            kind: SyncKind::Seq,
        }
    }

    #[test]
    fn bounded_capacity_backpressure() {
        let chans = [(1, 2), (2, 1)];
        let mut core = SessionCore::new(0, 1, &cfg(), &chans);
        assert!(core.can_send(1, 2));
        core.send(msg(1, 2, 10));
        core.send(msg(1, 2, 11));
        assert!(!core.can_send(1, 2), "channel at capacity still enabled");
        assert!(core.can_send(2, 1), "other channel affected");
        assert!(core.can_receive(1, 2, &MsgId::Node(10), 0));
        assert!(!core.can_receive(1, 2, &MsgId::Node(11), 0), "FIFO broken");
        core.receive(1, 2, &MsgId::Node(10), 0).unwrap();
        assert!(core.can_send(1, 2));
        assert_eq!(core.counts.sent, 2);
        assert_eq!(core.counts.delivered, 1);
        assert_eq!(core.counts.max_depth, 2);
        assert_eq!(core.counts.per_kind[SyncKind::Seq as usize], 2);
    }

    #[test]
    fn faulty_medium_preserves_fifo_and_counts_recovery() {
        let chans = [(1, 2), (2, 1)];
        let rc = RuntimeConfig::new().faults(FaultProfile::Lossy { loss: 0.5 });
        let mut core = SessionCore::new(0, 42, &rc, &chans);
        for n in 0..6 {
            core.send(msg(1, 2, n));
            core.tick();
        }
        let mut got = Vec::new();
        for _ in 0..10_000 {
            core.pump_all();
            loop {
                let head = head_id(&mut core);
                let Some(m) = core.receive(1, 2, &head, 0) else {
                    break;
                };
                got.push(m.id.clone());
                if got.len() == 6 {
                    break;
                }
            }
            if got.len() == 6 {
                break;
            }
            match core.next_link_deadline() {
                Some(t) => core.clock = core.clock.max(t) + 1e-9,
                None => break,
            }
        }
        assert_eq!(got, (0..6).map(MsgId::Node).collect::<Vec<_>>());
        // Drain the trailing ack exchange (the runtime does the same via
        // quiescence deadline jumps before committing termination).
        while let Some(t) = core.next_link_deadline() {
            core.clock = core.clock.max(t) + 1e-9;
            core.pump_all();
        }
        assert!(core.quiet());
        let (lost, retx) = core.link_totals();
        assert!(lost > 0 && retx > 0, "loss 0.5 never dropped a frame");
    }

    fn head_id(core: &mut SessionCore) -> MsgId {
        if let SessionMedium::Faulty(links) = &mut core.medium {
            // Channel (1, 2) is the first of the list.
            let l = &mut links[0];
            l.pump(0.0);
            if let Some(m) = l.peek() {
                return m.id.clone();
            }
        }
        MsgId::Node(u32::MAX)
    }

    #[test]
    fn vote_and_block_masks() {
        let mut core = SessionCore::new(0, 1, &cfg(), &[]);
        core.vote(0);
        core.vote(2);
        assert!(!core.all_voted(3));
        core.vote(1);
        assert!(core.all_voted(3));
        core.clear_vote(1);
        assert!(!core.all_voted(3));
        core.set_blocked(0);
        core.set_blocked(1);
        core.set_blocked(2);
        assert!(core.all_blocked(3));
        core.clear_blocked(1);
        assert!(!core.all_blocked(3));
    }

    #[test]
    fn end_codes_round_trip() {
        for end in [
            SessionEnd::Terminated,
            SessionEnd::Deadlock,
            SessionEnd::StepLimit,
            SessionEnd::Aborted,
        ] {
            assert_eq!(SessionEnd::from_code(end.code()), end);
        }
        assert_eq!(SessionEnd::from_code(200), SessionEnd::Aborted);
    }

    #[test]
    fn reopen_clears_a_used_core() {
        let chans = [(1, 2), (2, 1)];
        let mut core = SessionCore::new(0, 1, &cfg(), &chans);
        core.send(msg(1, 2, 10));
        core.push_prim(0, 1);
        core.tick();
        core.vote(0);
        core.set_blocked(1);
        core.note_state(1, 7);
        core.refused_offer = Some((0, 1));
        core.complete(SessionEnd::Deadlock);
        core.reopen(5, 9, &cfg());
        assert_eq!((core.id, core.seed, core.steps, core.clock), (5, 9, 0, 0.0));
        assert!(core.quiet(), "a queue kept its message");
        assert_eq!(core.counts, SessionCounts::default());
        assert!(core.trace.is_empty() && core.gaps.is_empty());
        assert!(!core.has_vote(0) && !core.all_blocked(2));
        assert!(core.entity_states.is_empty());
        assert_eq!(
            (core.completed, core.ended, core.refused_offer),
            (None, None, None)
        );
        assert!(!core.can_receive(1, 2, &MsgId::Node(10), 0));
    }

    #[test]
    fn completion_latches_first_outcome() {
        let mut core = SessionCore::new(0, 1, &cfg(), &[]);
        core.complete(SessionEnd::Terminated);
        core.complete(SessionEnd::Deadlock);
        assert_eq!(core.completed, Some(SessionEnd::Terminated));
    }
}
