//! Discrete-event simulation of the derived protocol entities.
//!
//! Each entity is stepped through [`semantics::backend`] — the same
//! stepper the concurrent and distributed runtimes use, interpreting the
//! derived behaviour term or walking its lowered table. The medium
//! delivers messages over per-channel FIFO queues after seeded random
//! delays (paper Section 1: "each of the messages is delivered after an
//! arbitrary delay"). Local actions execute instantaneously at the
//! current clock; the clock advances only when every entity is blocked on
//! in-flight messages. Nondeterminism — choice resolution by the users
//! and interleaving between entities — is resolved uniformly at random
//! from the seed, so runs are reproducible.
//!
//! The simulator drives every run through a [`ServiceMonitor`] so that
//! each executed primitive is checked against the service on the fly, and
//! collects the message metrics of Section 4.3.

use crate::lossy::{ArqChannel, Frame, LossyLink};
use crate::monitor::ServiceMonitor;
use lotos::event::{MsgId, SyncKind};
use lotos::place::PlaceId;
use medium::{Msg, Order};
use protogen::derive::Derivation;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use semantics::backend::{
    enabled_offers, make_backend, BState, Backend, EntityBackend, MoveGuard, OfferView,
};
use semantics::bigstack::with_big_stack;
use semantics::engine::TermArena;
use semantics::term::OccTable;
use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Mutex};

/// Simulation configuration.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// RNG seed (runs are deterministic per seed).
    pub seed: u64,
    /// Message delay bounds (uniform).
    pub delay_min: f64,
    pub delay_max: f64,
    /// Abort after this many executed actions.
    pub max_steps: usize,
    /// Delivery order: FIFO (paper) or arbitrary reordering.
    pub order: Order,
    /// Primitives the service users never offer. Primitives are
    /// rendezvous between an entity and its user (paper Fig. 2: "if the
    /// user at place 1 is ready to execute read1, the action won't be
    /// executed until the communication service is also ready"); listing
    /// one here models a user that is never ready for it — e.g. a user
    /// who never presses `interrupt`.
    pub refuse: Vec<(String, PlaceId)>,
    /// Link configuration: `None` = the paper's reliable medium;
    /// `Some(link)` = an unreliable link layer (paper §6 extension, see
    /// [`crate::lossy`]).
    pub link: Option<LinkConfig>,
}

/// Configuration of the unreliable link layer (paper §6).
#[derive(Clone, Copy, Debug)]
pub struct LinkConfig {
    /// i.i.d. frame/ack loss probability.
    pub loss: f64,
    /// Run stop-and-wait ARQ recovery over the lossy link. Without it, a
    /// lost synchronization message stalls the protocol forever.
    pub arq: bool,
    /// ARQ retransmission timeout (only with `arq`).
    pub arq_timeout: f64,
}

impl Default for LinkConfig {
    fn default() -> Self {
        LinkConfig {
            loss: 0.2,
            arq: true,
            arq_timeout: 25.0,
        }
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            seed: 0xC0FFEE,
            delay_min: 0.1,
            delay_max: 10.0,
            max_steps: 100_000,
            order: Order::Fifo,
            refuse: Vec::new(),
            link: None,
        }
    }
}

impl SimConfig {
    pub fn new() -> Self {
        SimConfig::default()
    }

    /// RNG seed (runs are deterministic per seed).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Uniform message-delay bounds.
    pub fn delays(mut self, min: f64, max: f64) -> Self {
        self.delay_min = min;
        self.delay_max = max;
        self
    }

    /// Abort after this many executed actions.
    pub fn max_steps(mut self, n: usize) -> Self {
        self.max_steps = n;
        self
    }

    /// Delivery order: FIFO (paper) or arbitrary reordering.
    pub fn order(mut self, order: Order) -> Self {
        self.order = order;
        self
    }

    /// Add a primitive the service users never offer.
    pub fn refuse(mut self, name: &str, place: PlaceId) -> Self {
        self.refuse.push((name.to_string(), place));
        self
    }

    /// Run over an unreliable link layer (paper §6).
    pub fn link(mut self, link: LinkConfig) -> Self {
        self.link = Some(link);
        self
    }
}

/// One logged simulation event.
#[derive(Clone, Debug, PartialEq)]
pub struct SimEvent {
    /// Simulated time at which the action executed.
    pub time: f64,
    /// Global sequence number.
    pub step: usize,
    /// What happened.
    pub kind: SimEventKind,
}

/// The kinds of logged events.
#[derive(Clone, Debug, PartialEq)]
pub enum SimEventKind {
    /// Service primitive executed at its place.
    Prim { name: String, place: PlaceId },
    /// Internal action of an entity.
    Internal { place: PlaceId },
    /// Message handed to the medium.
    Sent(Msg),
    /// Message consumed by its destination.
    Delivered(Msg),
    /// Global successful termination.
    Terminated,
    /// No entity can move and messages (if any) can never be consumed.
    Deadlock,
}

/// How a run ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SimResult {
    /// Global δ performed with an empty medium.
    Terminated,
    /// `max_steps` reached while still live.
    StepLimit,
    /// No progress possible.
    Deadlock,
}

/// Aggregated run metrics.
#[derive(Clone, Debug, Default)]
pub struct SimMetrics {
    /// Service primitives executed.
    pub primitives: usize,
    /// Messages sent, total and per synchronization kind.
    pub messages: usize,
    pub messages_per_kind: BTreeMap<SyncKind, usize>,
    /// Maximum queue depth observed on any channel.
    pub max_queue_depth: usize,
    /// Final simulated time.
    pub end_time: f64,
    /// Executed actions (all kinds).
    pub steps: usize,
    /// Link-layer frames lost (lossy mode).
    pub frames_lost: usize,
    /// ARQ retransmissions performed (lossy mode with recovery).
    pub retransmissions: usize,
    /// Per-place activity: primitives executed, messages sent, messages
    /// received. The paper's §3 "load for the server PE" argument is read
    /// straight off this table (experiment E10).
    pub per_place: BTreeMap<PlaceId, PlaceLoad>,
}

/// Activity counters for one service access point.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PlaceLoad {
    /// Service primitives executed at this place.
    pub primitives: usize,
    /// Synchronization messages sent by this place.
    pub sent: usize,
    /// Synchronization messages received by this place.
    pub received: usize,
}

impl PlaceLoad {
    /// Messages with this place as an endpoint.
    pub fn messages(&self) -> usize {
        self.sent + self.received
    }
}

impl SimMetrics {
    /// Synchronization messages per service primitive — the empirical
    /// overhead ratio of §4.3.
    pub fn overhead_ratio(&self) -> f64 {
        if self.primitives == 0 {
            0.0
        } else {
            self.messages as f64 / self.primitives as f64
        }
    }
}

/// Complete outcome of one simulation run.
pub struct SimOutcome {
    /// Event log in execution order.
    pub events: Vec<SimEvent>,
    /// The global service-primitive trace.
    pub trace: Vec<(String, PlaceId)>,
    /// Run metrics.
    pub metrics: SimMetrics,
    /// How the run ended.
    pub result: SimResult,
    /// The first service violation the monitor saw, if any.
    pub violation: Option<(String, u8)>,
    /// Whether the service could have terminated where the run did
    /// (meaningful when `result == Terminated`).
    pub service_could_terminate: bool,
}

impl SimOutcome {
    /// Did the run conform to the service (no violation; termination only
    /// where the service allows it)?
    pub fn conforms(&self) -> bool {
        self.violation.is_none()
            && (self.result != SimResult::Terminated || self.service_could_terminate)
    }
}

struct InFlight {
    msg: Msg,
    arrive: f64,
}

/// The simulator: one backend and one cursor per entity.
pub struct Simulator<'a> {
    backends: &'a mut [Backend],
    states: Vec<BState>,
    places: Vec<PlaceId>,
    /// `cfg.refuse` per entity, as ids of its backend's primitives.
    refuse: Vec<Vec<(u32, PlaceId)>>,
    channels: BTreeMap<(PlaceId, PlaceId), VecDeque<InFlight>>,
    /// Lossy-link state per directed channel (only with `cfg.link`).
    links: BTreeMap<(PlaceId, PlaceId), Link>,
    clock: f64,
    rng: StdRng,
    cfg: SimConfig,
    monitor: ServiceMonitor,
    /// One entity's enabled offers, as the kernel last classified them.
    enabled: Vec<usize>,
    /// Every move enabled now, in entity then row order.
    moves: Vec<Move>,
}

/// One directed lossy channel: the ARQ machine plus the frames and acks
/// currently on the wire.
struct Link {
    arq: ArqChannel,
    data_wire: VecDeque<(Frame, f64)>,
    ack_wire: VecDeque<(u64, f64)>,
}

impl Link {
    fn new(timeout: f64) -> Link {
        Link {
            arq: ArqChannel::new(timeout),
            data_wire: VecDeque::new(),
            ack_wire: VecDeque::new(),
        }
    }

    fn idle(&self) -> bool {
        self.arq.is_idle() && self.data_wire.is_empty() && self.ack_wire.is_empty()
    }
}

/// A move: offer `i` of entity `k` in its backend's loaded row, or
/// global δ (every entity offers it and the medium is empty).
#[derive(Clone, Copy)]
enum Move {
    Offer(usize, usize),
    Terminate,
}

/// The DES medium, as the move kernel asks it about the entity at
/// `here`.
struct DesGuard<'s> {
    here: PlaceId,
    channels: &'s BTreeMap<(PlaceId, PlaceId), VecDeque<InFlight>>,
    /// The link layer, when the run has one.
    links: Option<&'s BTreeMap<(PlaceId, PlaceId), Link>>,
    order: Order,
    clock: f64,
}

impl MoveGuard for DesGuard<'_> {
    /// DES channels are unbounded.
    fn can_send(&self, _to: PlaceId) -> bool {
        true
    }

    fn can_recv(&mut self, from: PlaceId, id: &MsgId, occ: u32) -> bool {
        if let Some(links) = self.links {
            // link layer: the head of the in-order delivered queue
            return links
                .get(&(from, self.here))
                .and_then(|l| l.arq.peek_delivered())
                .is_some_and(|m| m.id == *id && m.occ == occ);
        }
        let Some(q) = self.channels.get(&(from, self.here)) else {
            return false;
        };
        let due = |x: &InFlight| x.arrive <= self.clock && x.msg.id == *id && x.msg.occ == occ;
        match self.order {
            Order::Fifo => due(&q[0]),
            Order::Arbitrary => q.iter().any(due),
        }
    }
}

impl<'a> Simulator<'a> {
    /// Set up a simulator stepping `backends`, one per entity of `d` (in
    /// `d.entities` order), each from its initial state.
    pub fn new(d: &Derivation, cfg: SimConfig, backends: &'a mut [Backend]) -> Simulator<'a> {
        assert_eq!(backends.len(), d.entities.len(), "one backend per entity");
        let states = backends.iter_mut().map(|b| b.init()).collect();
        let refuse = backends
            .iter()
            .map(|b| b.prims().resolve(&cfg.refuse))
            .collect();
        Simulator {
            backends,
            states,
            places: d.entities.iter().map(|(p, _)| *p).collect(),
            refuse,
            channels: BTreeMap::new(),
            links: BTreeMap::new(),
            clock: 0.0,
            rng: StdRng::seed_from_u64(cfg.seed),
            cfg,
            monitor: ServiceMonitor::new(d.service.clone()),
            enabled: Vec::new(),
            moves: Vec::new(),
        }
    }

    /// Run to completion (termination, deadlock, or the step limit).
    pub fn run(mut self) -> SimOutcome {
        let mut events = Vec::new();
        let mut trace = Vec::new();
        let mut metrics = SimMetrics::default();
        let result;

        loop {
            if metrics.steps >= self.cfg.max_steps {
                result = SimResult::StepLimit;
                break;
            }
            if self.cfg.link.is_some() {
                self.pump_links(&mut metrics);
            }
            self.enabled_moves();
            if self.moves.is_empty() {
                // Advance the clock to the next *future* arrival, if any.
                // Messages that already arrived but cannot be consumed yet
                // (e.g. a Rel barrier waiting behind program order) must
                // not stall the clock at their arrival time.
                if let Some(t) = self.next_arrival_after(self.clock) {
                    self.clock = t;
                    continue;
                }
                let in_flight: usize = self.channels.values().map(|q| q.len()).sum::<usize>()
                    + self.links.values().filter(|l| !l.idle()).count();
                if in_flight > 0 || !self.all_stopped() {
                    events.push(SimEvent {
                        time: self.clock,
                        step: metrics.steps,
                        kind: SimEventKind::Deadlock,
                    });
                    result = SimResult::Deadlock;
                } else {
                    result = SimResult::Deadlock; // stopped without δ
                }
                break;
            }
            let choice = self.rng.gen_range(0..self.moves.len());
            metrics.steps += 1;
            let step = metrics.steps;
            let (k, i) = match self.moves[choice] {
                Move::Terminate => {
                    events.push(SimEvent {
                        time: self.clock,
                        step,
                        kind: SimEventKind::Terminated,
                    });
                    result = SimResult::Terminated;
                    break;
                }
                Move::Offer(k, i) => (k, i),
            };
            let here = self.places[k];
            let kind = match self.backends[k].offer(i) {
                OfferView::Prim { name, place, .. } => {
                    self.monitor.step(name, place);
                    trace.push((name.to_string(), place));
                    metrics.primitives += 1;
                    metrics.per_place.entry(place).or_default().primitives += 1;
                    SimEventKind::Prim {
                        name: name.to_string(),
                        place,
                    }
                }
                OfferView::I => SimEventKind::Internal { place: here },
                OfferView::Send { to, msg, occ, kind } => {
                    let m = Msg {
                        from: here,
                        to,
                        id: msg.clone(),
                        occ,
                        kind,
                    };
                    metrics.messages += 1;
                    *metrics.messages_per_kind.entry(m.kind).or_default() += 1;
                    metrics.per_place.entry(here).or_default().sent += 1;
                    if let Some(link_cfg) = self.cfg.link {
                        // hand the message to the link layer
                        let link = self.links.entry((here, to)).or_insert_with(|| {
                            // without ARQ the link sends each frame
                            // exactly once: an infinite timeout
                            // disables retransmission
                            Link::new(if link_cfg.arq {
                                link_cfg.arq_timeout
                            } else {
                                f64::INFINITY
                            })
                        });
                        link.arq.submit(m.clone());
                    } else {
                        let delay = self.rng.gen_range(self.cfg.delay_min..=self.cfg.delay_max);
                        let q = self.channels.entry((here, to)).or_default();
                        let arrive = match self.cfg.order {
                            // FIFO: delivery cannot overtake the queue
                            Order::Fifo => {
                                let floor = q.back().map(|x| x.arrive).unwrap_or(self.clock);
                                floor.max(self.clock) + delay
                            }
                            Order::Arbitrary => self.clock + delay,
                        };
                        q.push_back(InFlight {
                            msg: m.clone(),
                            arrive,
                        });
                        metrics.max_queue_depth = metrics.max_queue_depth.max(q.len());
                    }
                    SimEventKind::Sent(m)
                }
                OfferView::Recv { from, msg, occ, .. } => {
                    metrics.per_place.entry(here).or_default().received += 1;
                    let delivered = if self.cfg.link.is_some() {
                        let link = self.links.get_mut(&(from, here)).unwrap();
                        let delivered = link.arq.take_delivered().unwrap();
                        debug_assert!(delivered.id == *msg && delivered.occ == occ);
                        delivered
                    } else {
                        let q = self.channels.get_mut(&(from, here)).unwrap();
                        let idx = match self.cfg.order {
                            Order::Fifo => 0,
                            Order::Arbitrary => q
                                .iter()
                                .position(|x| {
                                    x.arrive <= self.clock && x.msg.id == *msg && x.msg.occ == occ
                                })
                                .unwrap(),
                        };
                        let inflight = q.remove(idx).unwrap();
                        if q.is_empty() {
                            self.channels.remove(&(from, here));
                        }
                        inflight.msg
                    };
                    SimEventKind::Delivered(delivered)
                }
                OfferView::Delta => unreachable!("δ is a global move, never an enabled offer"),
            };
            self.backends[k].step(&mut self.states[k], i);
            events.push(SimEvent {
                time: self.clock,
                step,
                kind,
            });
        }

        metrics.end_time = self.clock;
        let service_could_terminate = self.monitor.may_terminate();
        SimOutcome {
            events,
            trace,
            metrics,
            result,
            violation: self.monitor.violation().cloned(),
            service_could_terminate,
        }
    }

    fn all_stopped(&self) -> bool {
        self.backends
            .iter()
            .zip(&self.states)
            .all(|(b, s)| b.is_stop(s))
    }

    /// Earliest in-flight arrival (or link-layer deadline) strictly after
    /// `after`, if any.
    fn next_arrival_after(&self, after: f64) -> Option<f64> {
        let channel_arrivals = self
            .channels
            .values()
            .flat_map(|q| q.iter().map(|x| x.arrive));
        let wire_arrivals = self.links.values().flat_map(|l| {
            l.data_wire
                .iter()
                .map(|(_, t)| *t)
                .chain(l.ack_wire.iter().map(|(_, t)| *t))
        });
        let arq_deadlines = self
            .links
            .values()
            .filter_map(|l| l.arq.next_deadline())
            .map(|t| t.max(after + 1e-9));
        channel_arrivals
            .chain(wire_arrivals)
            .chain(arq_deadlines)
            .filter(|t| *t > after && t.is_finite())
            .min_by(|a, b| a.partial_cmp(b).unwrap())
    }

    /// Drive every lossy link at the current clock: deliver due frames
    /// and acks, and put pending (re)transmissions on the wire — each
    /// surviving the link with probability `1 − loss`.
    fn pump_links(&mut self, metrics: &mut SimMetrics) {
        let Some(link_cfg) = self.cfg.link else {
            return;
        };
        let link_model = LossyLink {
            loss: link_cfg.loss,
        };
        loop {
            let mut progressed = false;
            for link in self.links.values_mut() {
                // deliver due acks first (they may free the sender)
                while link.ack_wire.front().is_some_and(|(_, t)| *t <= self.clock) {
                    let (bit, _) = link.ack_wire.pop_front().unwrap();
                    link.arq.on_ack(bit);
                    progressed = true;
                }
                // deliver due data frames, emitting acks onto the wire
                while link
                    .data_wire
                    .front()
                    .is_some_and(|(_, t)| *t <= self.clock)
                {
                    let (frame, _) = link.data_wire.pop_front().unwrap();
                    let ack = link.arq.on_frame(frame);
                    progressed = true;
                    if link_model.survives(&mut self.rng) {
                        let delay = self.rng.gen_range(self.cfg.delay_min..=self.cfg.delay_max);
                        link.ack_wire.push_back((ack, self.clock + delay));
                    } else {
                        metrics.frames_lost += 1;
                    }
                }
                // (re)transmissions due now
                if let Some(frame) = link.arq.poll_transmit(self.clock) {
                    progressed = true;
                    if link_model.survives(&mut self.rng) {
                        let delay = self.rng.gen_range(self.cfg.delay_min..=self.cfg.delay_max);
                        link.data_wire.push_back((frame, self.clock + delay));
                    } else {
                        metrics.frames_lost += 1;
                    }
                }
            }
            if !progressed {
                break;
            }
        }
        metrics.retransmissions = self.links.values().map(|l| l.arq.retransmissions).sum();
    }

    /// Fill `self.moves`: each entity's offers the kernel enables, then
    /// global δ when every entity offers it and nothing is in flight.
    fn enabled_moves(&mut self) {
        self.moves.clear();
        let mut all_delta = true;
        for k in 0..self.backends.len() {
            let n = self.backends[k].offers(&self.states[k]);
            let mut guard = DesGuard {
                here: self.places[k],
                channels: &self.channels,
                links: self.cfg.link.map(|_| &self.links),
                order: self.cfg.order,
                clock: self.clock,
            };
            all_delta &= enabled_offers(
                &self.backends[k],
                n,
                &self.refuse[k],
                &mut guard,
                &mut self.enabled,
            )
            .delta;
            self.moves
                .extend(self.enabled.iter().map(|&i| Move::Offer(k, i)));
        }
        let in_flight: usize = self.channels.values().map(|q| q.len()).sum();
        if in_flight == 0 && all_delta {
            self.moves.push(Move::Terminate);
        }
    }
}

/// Run one simulation of a derivation, interpreting every entity with
/// fresh backends.
pub fn simulate(d: &Derivation, cfg: SimConfig) -> SimOutcome {
    let arena = Arc::new(TermArena::new());
    let occ = Arc::new(Mutex::new(OccTable::new()));
    let mut backends: Vec<Backend> = d
        .entities
        .iter()
        .map(|(_, spec)| make_backend(spec, None, &arena, &occ))
        .collect();
    simulate_on(d, cfg, &mut backends)
}

/// Run one simulation stepping the caller's backends, one per entity of
/// `d` in `d.entities` order. Each starts from its initial state; what a
/// backend memoizes (interned terms, transition rows, occurrences) carries
/// over to the next run, so a multi-session run builds them once.
///
/// Deeply recursive entities build deep terms, so the run goes to the
/// calling thread's big-stack worker ([`with_big_stack`]).
pub fn simulate_on(d: &Derivation, cfg: SimConfig, backends: &mut [Backend]) -> SimOutcome {
    with_big_stack(move || Simulator::new(d, cfg, backends).run())
}

#[cfg(test)]
mod tests {
    use super::*;
    use lotos::parser::parse_spec;
    use protogen::derive::derive;

    fn run(src: &str, cfg: SimConfig) -> SimOutcome {
        let d = derive(&parse_spec(src).unwrap()).unwrap();
        simulate(&d, cfg)
    }

    #[test]
    fn simple_sequence_terminates_and_conforms() {
        let o = run("SPEC a1; b2; c3; exit ENDSPEC", SimConfig::default());
        assert_eq!(o.result, SimResult::Terminated);
        assert!(o.conforms(), "violation: {:?}", o.violation);
        assert_eq!(
            o.trace,
            vec![("a".into(), 1), ("b".into(), 2), ("c".into(), 3)]
        );
        // two sequencing messages: 1→2 and 2→3
        assert_eq!(o.metrics.messages, 2);
    }

    #[test]
    fn deterministic_per_seed() {
        let cfg = SimConfig::default();
        let a = run("SPEC (a1;b2;c1;exit) [] (e1;c1;exit) ENDSPEC", cfg.clone());
        let b = run("SPEC (a1;b2;c1;exit) [] (e1;c1;exit) ENDSPEC", cfg);
        assert_eq!(a.trace, b.trace);
        assert_eq!(a.metrics.steps, b.metrics.steps);
    }

    #[test]
    fn different_seeds_explore_different_schedules() {
        let mut traces = std::collections::BTreeSet::new();
        for seed in 0..20 {
            let o = run(
                "SPEC a1;exit ||| b2;exit ||| c3;exit ENDSPEC",
                SimConfig {
                    seed,
                    ..SimConfig::default()
                },
            );
            assert!(o.conforms());
            traces.insert(o.trace);
        }
        // with three independent events, several interleavings show up
        assert!(traces.len() >= 3, "only {} orders", traces.len());
    }

    #[test]
    fn choice_runs_conform() {
        for seed in 0..20 {
            let o = run(
                "SPEC (a1;b2;c1;exit) [] (e1;c1;exit) ENDSPEC",
                SimConfig {
                    seed,
                    ..SimConfig::default()
                },
            );
            assert_eq!(o.result, SimResult::Terminated, "seed {seed}");
            assert!(o.conforms(), "seed {seed}: {:?}", o.violation);
        }
    }

    #[test]
    fn recursion_runs_conform() {
        // aⁿbⁿ — every run must produce a Dyck-like trace
        for seed in 0..10 {
            let o = run(
                "SPEC A WHERE PROC A = (a1 ; A >> b2 ; exit) [] (a1 ; b2 ; exit) END ENDSPEC",
                SimConfig {
                    seed,
                    max_steps: 2000,
                    ..SimConfig::default()
                },
            );
            assert!(o.conforms(), "seed {seed}: {:?}", o.violation);
            if o.result == SimResult::Terminated {
                let a_count = o.trace.iter().filter(|(n, _)| n == "a").count();
                let b_count = o.trace.iter().filter(|(n, _)| n == "b").count();
                assert_eq!(a_count, b_count, "seed {seed}");
                assert!(a_count >= 1);
            }
        }
    }

    #[test]
    fn message_overhead_counted() {
        let o = run("SPEC a1; b2; a1; b2; exit ENDSPEC", SimConfig::default());
        assert_eq!(o.metrics.primitives, 4);
        // 3 sequencing messages (1→2, 2→1, 1→2)
        assert_eq!(o.metrics.messages, 3);
        assert!((o.metrics.overhead_ratio() - 0.75).abs() < 1e-9);
    }

    #[test]
    fn events_are_time_ordered() {
        let o = run("SPEC a1; b2; c3; a1; exit ENDSPEC", SimConfig::default());
        for w in o.events.windows(2) {
            assert!(w[0].time <= w[1].time);
        }
        assert!(o.metrics.end_time > 0.0);
    }

    #[test]
    fn per_place_load_accounting() {
        let o = run("SPEC a1; b2; c3; exit ENDSPEC", SimConfig::default());
        assert_eq!(o.result, SimResult::Terminated);
        let load = &o.metrics.per_place;
        assert_eq!(load[&1].primitives, 1);
        assert_eq!(load[&2].primitives, 1);
        assert_eq!(load[&3].primitives, 1);
        // a1→b2 and b2→c3: place 1 sends 1, place 2 sends 1 + receives 1,
        // place 3 receives 1
        assert_eq!(load[&1].sent, 1);
        assert_eq!(load[&2].messages(), 2);
        assert_eq!(load[&3].received, 1);
        let total_sent: usize = load.values().map(|l| l.sent).sum();
        let total_recv: usize = load.values().map(|l| l.received).sum();
        assert_eq!(total_sent, o.metrics.messages);
        assert_eq!(total_recv, o.metrics.messages);
    }

    #[test]
    fn config_builds() {
        let cfg = SimConfig::new()
            .seed(42)
            .delays(0.5, 2.0)
            .max_steps(500)
            .link(LinkConfig {
                loss: 0.25,
                arq: false,
                arq_timeout: 12.5,
            });
        assert_eq!(cfg.seed, 42);
        assert_eq!(cfg.delay_min, 0.5);
        assert_eq!(cfg.delay_max, 2.0);
        assert_eq!(cfg.max_steps, 500);
        let link = cfg.link.unwrap();
        assert_eq!(link.loss, 0.25);
        assert!(!link.arq);
        assert_eq!(link.arq_timeout, 12.5);
        assert!(SimConfig::new().link.is_none());
    }
}
