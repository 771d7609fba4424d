//! The two execution engines and the session multiplexer.
//!
//! * **Concurrent** (`threads >= 2`): one OS thread per protocol entity
//!   ([`crate::entity::EntityWorker`]), a pipelined window of sessions in
//!   flight at once (`threads` × [`MUX_PIPELINE`]), and the calling
//!   thread as multiplexer — it opens
//!   sessions, collects completions, replays each completed session's
//!   primitive trace through [`sim::monitor::ServiceMonitor`] (the
//!   monitor is single-threaded by construction, so conformance is
//!   checked at the multiplexer, not inside entity threads), and checks
//!   its open sessions for stalls ([`crate::stall`]).
//! * **Deterministic** (`threads <= 1`): each session is one seeded run
//!   of the discrete-event simulator ([`sim::des`]) — bit-reproducible,
//!   and byte-identical to `protogen simulate` for the same seed. This is
//!   the reference engine the concurrent one is tested against.
//!
//! Both engines step entities through [`semantics::backend`], with one
//! backend per entity built once per run (`run_backends`) from the
//! same [`lower_for`] result over one shared arena and occurrence table.
//! So under `--backend auto` both run (and report) the same per-entity
//! mix of compiled and interpreted entities.

use crate::compiled::{lower_for, make_backend, Backend};
use crate::config::{FaultProfile, RuntimeConfig};
use crate::entity::{CompletionQueue, EntityWorker, Notifier};
use crate::metrics::{
    LinkReport, Metrics, RuntimeReport, SessionReport, StageBreakdown, StallRecord, TraceMeta,
    ViolationRecord,
};
use crate::session::{SessionCore, SessionCounts, SessionEnd, SessionSlot};
use crate::stall::{Capture, Forensics, StallTracker, STALL_CHECK};
use lotos::ast::Spec;
use lotos::event::SyncKind;
use lotos::place::{PlaceId, MAX_PLACES};
use obs::{EventKind, Recorder, Registry};
use protogen::derive::Derivation;
use semantics::backend::{EntityBackend, PrimTable};
use semantics::engine::TermArena;
use semantics::hash::FxHashMap;
use semantics::lower::CompiledEntity;
use semantics::term::OccTable;
use sim::des::{LinkConfig, SimConfig, SimResult};
use sim::monitor::ServiceMonitor;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Entity threads interpret recursive behaviour terms; deep specs need
/// deep stacks (same idiom as `verify`'s big-stack harness).
const ENTITY_STACK: usize = 64 << 20;

/// Multiplexer pipelining: sessions kept in flight per configured
/// thread. Each message exchange hands the session to its peer entity's
/// thread, so a deep enough in-flight batch lets one OS timeslice of an
/// entity thread advance many sessions before the scheduler flips to
/// the peer — on few-core hosts the flip, not the stepping, is the
/// dominant cost of a session.
const MUX_PIPELINE: usize = 32;

/// A session slot of the multiplexer: open (running session `id` since
/// `opened`) or closed. A closed slot is reopened for a later session
/// once no entity thread still holds it.
type MuxSlot = (Arc<SessionSlot>, Option<(u64, Instant)>);

/// Run `cfg.sessions` independent sessions of the derived protocol and
/// report. Engine selection is by `cfg.threads`, backend selection by
/// `cfg.backend`, and tracing by `cfg.record` / `cfg.registry` (see the
/// module docs and [`crate::compiled`]).
///
/// Panics when `cfg.backend` is [`crate::BackendChoice::Compiled`] and
/// some entity cannot be lowered; use [`try_run`] to handle that case.
pub fn run(d: &Derivation, cfg: &RuntimeConfig) -> RuntimeReport {
    match try_run(d, cfg) {
        Ok(report) => report,
        Err(e) => panic!("{e}"),
    }
}

/// [`run`], with backend-selection failure as an `Err` instead of a
/// panic (only `--backend compiled` on a non-lowerable entity fails).
pub fn try_run(d: &Derivation, cfg: &RuntimeConfig) -> Result<RuntimeReport, String> {
    let registry = run_registry(cfg);
    let lowered = lower_for(&d.entities, cfg.backend)?;
    Ok(if cfg.threads <= 1 {
        run_deterministic(d, cfg, registry.as_ref(), &lowered)
    } else {
        run_concurrent(d, cfg, registry.as_ref(), &lowered)
    })
}

/// The run's flight recorder: the caller's [`RuntimeConfig::registry`],
/// else a fresh one when [`RuntimeConfig::record`] is set.
pub(crate) fn run_registry(cfg: &RuntimeConfig) -> Option<Arc<Registry>> {
    cfg.registry.clone().or_else(|| {
        cfg.record
            .then(|| Registry::new(trace_id_for(cfg.seed), obs::DEFAULT_CAPACITY))
    })
}

/// What actually ran, for the report's `backend` field: `"compiled"`
/// only when *every* entity stepped from tables.
pub(crate) fn backend_desc(lowered: &[Option<Arc<CompiledEntity>>]) -> &'static str {
    let n = lowered.iter().filter(|e| e.is_some()).count();
    if n == 0 {
        "interpreted"
    } else if n == lowered.len() {
        "compiled"
    } else {
        "mixed"
    }
}

/// Lines of flight-recorder tail attached to violation and abort reports.
const TAIL_LINES: usize = 64;

/// Nonzero trace id derived from the run seed (zero means "untraced" in
/// the wire protocol's `Open.trace` field).
pub fn trace_id_for(seed: u64) -> u64 {
    semantics::hash::fx_hash(&(seed, 0x0b5_7ace_u64)).max(1)
}

/// Post-run recorder export: embed the trace metadata in the report and
/// attach each violating/aborted session's flight-recorder tail.
fn attach_recorder_artifacts(report: &mut RuntimeReport, registry: &Arc<Registry>) {
    let log = registry.snapshot();
    let (rings, events, dropped) = registry.stats();
    report.trace_meta = Some(TraceMeta {
        trace_id: registry.trace_id,
        rings,
        events,
        dropped,
    });
    for v in &mut report.violations {
        v.tail = log.tail(v.session, TAIL_LINES);
    }
    for s in &report.reports {
        if s.end == SessionEnd::Aborted {
            report.abort_tails.insert(s.id, log.tail(s.id, TAIL_LINES));
        }
    }
}

/// The service monitor's verdict on a primitive trace: the first
/// violation (primitive id, place, index) and whether the service could
/// terminate where the trace ends.
pub(crate) type MonitorVerdict = (Option<(u32, PlaceId, usize)>, bool);

/// Replay a completed session's primitive trace (ids of `prims`)
/// against the service.
fn replay_conformance(
    service: &Spec,
    prims: &PrimTable,
    trace: &[(u32, PlaceId)],
) -> MonitorVerdict {
    let mut mon = ServiceMonitor::new(service.clone());
    for (i, &(prim, place)) in trace.iter().enumerate() {
        if !mon.step(prims.name(prim), place) {
            return (Some((prim, place, i)), false);
        }
    }
    (None, mon.may_terminate())
}

/// Memoized conformance replays, keyed by the full primitive-id trace.
/// Load runs drive many sessions down identical traces; replaying the
/// service monitor once per *distinct* trace instead of once per session
/// takes conformance checking off the multiplexer's and the hub's
/// critical path.
type ReplayCache = FxHashMap<Vec<(u32, PlaceId)>, MonitorVerdict>;

/// Where a completed session's monitor verdict comes from.
pub(crate) enum Monitor {
    /// The engine stepped the monitor alongside the run (the DES does,
    /// which keeps its verdicts identical to `protogen simulate`).
    Known(MonitorVerdict),
    /// Replay the trace through the run's [`ReplayCache`].
    Replay,
}

/// What an engine measured for one completed session: the input of
/// [`Tally::close`].
pub(crate) struct Completed<'t> {
    pub(crate) id: u64,
    pub(crate) seed: u64,
    pub(crate) end: SessionEnd,
    /// The global service-primitive trace, in execution order, as ids of
    /// [`Tally::prims`].
    pub(crate) trace: &'t [(u32, PlaceId)],
    /// Wall µs before each primitive of `trace`, or empty when the
    /// engine does not measure inter-arrival gaps.
    pub(crate) gaps: &'t [u64],
    pub(crate) latency_us: u64,
    pub(crate) stages: StageBreakdown,
    pub(crate) counts: SessionCounts,
    pub(crate) steps: usize,
    /// Logical clock the close events are recorded at.
    pub(crate) lc: u64,
    /// The offer a `--refuse` entry withheld: a deadlock with this set
    /// is reported as a violation naming it.
    pub(crate) refused: Option<(String, PlaceId)>,
    pub(crate) monitor: Monitor,
}

/// The refused offer for engines that cannot see which offer an entity
/// blocked on (the DES, the hub): a deadlock under `--refuse` is the
/// refusal biting — verified derivations are otherwise deadlock-free —
/// and is attributed to the first configured refusal.
pub(crate) fn configured_refusal(
    cfg: &RuntimeConfig,
    end: SessionEnd,
) -> Option<(String, PlaceId)> {
    if end == SessionEnd::Deadlock {
        cfg.refuse.first().cloned()
    } else {
        None
    }
}

/// The verdicts and metrics of one run, shared by all three engines:
/// every completed session goes through [`Tally::close`], and
/// [`Tally::finish`] builds the run's report.
pub(crate) struct Tally<'a> {
    service: &'a Spec,
    cfg: &'a RuntimeConfig,
    /// The run's metrics, written only by the thread that owns the tally.
    pub(crate) metrics: Metrics,
    /// The run's primitive table: the service's names first, so an id
    /// indexes `metrics.per_prim`, then any other name an engine saw.
    pub(crate) prims: PrimTable,
    replays: ReplayCache,
    conforming: usize,
    terminated: usize,
    deadlocked: usize,
    step_limited: usize,
    aborted: usize,
    violations: Vec<ViolationRecord>,
    /// Messages sent per kind, indexed like [`SyncKind::ALL`].
    per_kind: [usize; SyncKind::ALL.len()],
    pub(crate) per_link: BTreeMap<String, LinkReport>,
    reports: Vec<SessionReport>,
}

impl<'a> Tally<'a> {
    pub(crate) fn new(service: &'a Spec, cfg: &'a RuntimeConfig, metrics: Metrics) -> Self {
        Tally {
            service,
            cfg,
            prims: (*metrics.prims).clone(),
            metrics,
            replays: ReplayCache::default(),
            conforming: 0,
            terminated: 0,
            deadlocked: 0,
            step_limited: 0,
            aborted: 0,
            violations: Vec::new(),
            per_kind: [0; SyncKind::ALL.len()],
            per_link: BTreeMap::new(),
            reports: Vec::new(),
        }
    }

    /// Turn a completed session into its verdict: the conformance rule
    /// (no violation, terminated, and the service may terminate there),
    /// refused-offer violations, the recorder's close events, and the
    /// session's report; fold its counters into the run's metrics. The
    /// trace is kept (with names) for violating and aborted sessions and
    /// single-session runs (load runs would hoard memory).
    pub(crate) fn close(&mut self, s: Completed, rec: Option<&Recorder>) {
        let m = &mut self.metrics;
        m.session_latency.record(s.latency_us);
        m.stages.record(&s.stages);
        m.fold_session(&s.counts, s.trace, s.gaps);
        m.sessions_completed += 1;
        for (total, c) in self.per_kind.iter_mut().zip(s.counts.per_kind) {
            *total += c;
        }
        let (violation, may_terminate) = match s.monitor {
            Monitor::Known(verdict) => verdict,
            Monitor::Replay => match self.replays.get(s.trace) {
                Some(&hit) => hit,
                None => {
                    let verdict = replay_conformance(self.service, &self.prims, s.trace);
                    self.replays.insert(s.trace.to_vec(), verdict);
                    verdict
                }
            },
        };
        let conforms = violation.is_none() && s.end == SessionEnd::Terminated && may_terminate;
        let prims = &self.prims;
        let mut violation =
            violation.map(|(prim, place, at)| (prims.name(prim).to_string(), place, at));
        // A deadlock against a refused offer is a conformance failure the
        // monitor cannot see (the primitive never executed): report the
        // offer as the violation, at the index it would have taken.
        if violation.is_none() && s.end == SessionEnd::Deadlock {
            violation = s.refused.map(|(name, place)| (name, place, s.trace.len()));
        }
        if let Some(rec) = rec {
            if let Some((name, place, _)) = &violation {
                rec.record_named(EventKind::Violation, s.id, s.lc, name, *place as u64);
            }
            if s.end == SessionEnd::Aborted {
                rec.record(EventKind::Abort, s.id, s.lc, 0, 0);
            }
            rec.record(
                EventKind::SessionClose,
                s.id,
                s.lc,
                s.end.code() as u64,
                s.steps as u64,
            );
        }
        match s.end {
            SessionEnd::Terminated => self.terminated += 1,
            SessionEnd::Deadlock => self.deadlocked += 1,
            SessionEnd::StepLimit => self.step_limited += 1,
            SessionEnd::Aborted => self.aborted += 1,
        }
        if conforms {
            self.conforming += 1;
        }
        let named = || {
            s.trace
                .iter()
                .map(|&(prim, place)| (prims.name(prim).to_string(), place))
                .collect::<Vec<_>>()
        };
        if let Some((name, place, at)) = &violation {
            self.violations.push(ViolationRecord {
                session: s.id,
                seed: s.seed,
                primitive: name.clone(),
                place: *place,
                at: *at,
                trace: named(),
                tail: Vec::new(),
            });
        }
        let keep_trace =
            violation.is_some() || self.cfg.sessions == 1 || s.end == SessionEnd::Aborted;
        self.reports.push(SessionReport {
            id: s.id,
            seed: s.seed,
            end: s.end,
            conforms,
            violation: violation.map(|(name, place, _)| (name, place)),
            primitives: s.trace.len(),
            messages: s.counts.sent,
            steps: s.steps,
            latency_us: s.latency_us,
            stages: s.stages,
            trace: if keep_trace { named() } else { Vec::new() },
        });
    }

    /// The run's report: the verdict counts plus the counters, latency
    /// histograms and gauges of the tally's own [`Metrics`], exact at
    /// the end of the run. With a recorder, violating and aborted
    /// sessions get their tails.
    pub(crate) fn finish(
        self,
        engine: &'static str,
        backend: &'static str,
        started: Instant,
        stalls: Vec<StallRecord>,
        transport_events: Vec<String>,
        registry: Option<&Arc<Registry>>,
    ) -> RuntimeReport {
        let m = &self.metrics;
        let wall_s = started.elapsed().as_secs_f64();
        let mut report = RuntimeReport {
            engine,
            backend,
            config: self.cfg.clone(),
            sessions: self.reports.len(),
            conforming: self.conforming,
            terminated: self.terminated,
            deadlocked: self.deadlocked,
            step_limited: self.step_limited,
            aborted: self.aborted,
            violations: self.violations,
            primitives: m.primitives,
            messages: m.messages_sent,
            delivered: m.messages_delivered,
            messages_per_kind: SyncKind::ALL
                .into_iter()
                .zip(self.per_kind)
                .filter(|&(_, c)| c > 0)
                .collect(),
            max_queue_depth: m.max_queue_depth,
            frames_lost: m.frames_lost,
            retransmissions: m.retransmissions,
            per_link: self.per_link,
            transport_events,
            wall_s,
            sessions_per_sec: if wall_s > 0.0 {
                self.reports.len() as f64 / wall_s
            } else {
                0.0
            },
            session_latency: m.session_latency.summary(),
            stages: m.stages.summaries(),
            stalls,
            gauges: m.gauges.clone(),
            per_prim: m
                .per_prim_by_name()
                .into_iter()
                .map(|(name, h)| (name.to_string(), h.summary()))
                .collect(),
            phases: Vec::new(),
            trace_meta: None,
            abort_tails: BTreeMap::new(),
            reports: self.reports,
        };
        if let Some(reg) = registry {
            attach_recorder_artifacts(&mut report, reg);
        }
        report
    }
}

/// One backend per entity of `d`, for a whole run. They share one arena
/// and one occurrence table, so all entities (and all sessions) agree on
/// §3.5 instance numbers and share transition memoization.
fn run_backends(d: &Derivation, lowered: &[Option<Arc<CompiledEntity>>]) -> Vec<Backend> {
    let arena = Arc::new(TermArena::new());
    let occ = Arc::new(Mutex::new(OccTable::new()));
    d.entities
        .iter()
        .zip(lowered)
        .map(|((_, spec), ent)| make_backend(spec, ent.clone(), &arena, &occ))
        .collect()
}

fn run_concurrent(
    d: &Derivation,
    cfg: &RuntimeConfig,
    registry: Option<&Arc<Registry>>,
    lowered: &[Option<Arc<CompiledEntity>>],
) -> RuntimeReport {
    let started = Instant::now();
    let places: Vec<PlaceId> = d.entities.iter().map(|(p, _)| *p).collect();
    let n = places.len();
    let mut place_index = vec![usize::MAX; MAX_PLACES as usize + 1];
    for (i, p) in places.iter().enumerate() {
        place_index[*p as usize] = i;
    }
    let channels = medium::channels(d.all);

    let notifiers: Vec<Arc<Notifier>> = (0..n).map(|_| Arc::new(Notifier::new())).collect();
    let completions = Arc::new(CompletionQueue::new());
    let mut stalls = StallTracker::new(started);

    let mut tally = Tally::new(&d.service, cfg, Metrics::for_service(&d.service));
    let workers: Vec<EntityWorker> = d
        .entities
        .iter()
        .zip(run_backends(d, lowered))
        .enumerate()
        .map(|(idx, ((place, _), backend))| {
            let prims = backend.prims();
            let prim_ids = prims.names().map(|name| tally.prims.intern(name)).collect();
            let refuse = prims.resolve(&cfg.refuse);
            EntityWorker {
                idx,
                place: *place,
                n,
                backend,
                cfg: cfg.clone(),
                notifiers: notifiers.clone(),
                place_index: place_index.clone(),
                prim_ids,
                refuse,
                completions: Arc::clone(&completions),
                rec: registry.map(|r| r.recorder(*place)),
            }
        })
        .collect();
    std::thread::scope(|scope| {
        for worker in workers {
            std::thread::Builder::new()
                .name(format!("entity-{}", worker.place))
                .stack_size(ENTITY_STACK)
                .spawn_scoped(scope, move || worker.run())
                .expect("spawn entity thread");
        }

        // The multiplexer: keep a pipelined window of sessions in flight.
        // Its recorder captures session lifecycle at place 0 (the driver);
        // entity threads record their own moves at their own places.
        let mux_rec = registry.map(|r| r.recorder(0));
        // In-flight session window. `threads` sets the concurrency the
        // user asked for; the pipelining factor keeps each entity thread
        // supplied with enough runnable sessions to absorb the scheduler
        // round trips of the message ping-pong between entity threads —
        // one OS timeslice advances a whole batch, not one session.
        let window = cfg.threads.max(1) * MUX_PIPELINE;
        tally.metrics.gauges.window_size = window;
        let mut slots: Vec<MuxSlot> = Vec::new();
        let mut next = 0usize;
        let mut in_flight = 0usize;
        while next < cfg.sessions || in_flight > 0 {
            // Refill with hysteresis: top the window up only once it has
            // drained below half, so opens (and the notifier traffic they
            // cause) arrive in bursts the entity threads absorb in one
            // wake-up each instead of once per completed session.
            if in_flight <= window / 2 {
                while next < cfg.sessions && in_flight < window {
                    let (id, seed) = (next as u64, cfg.session_seed(next));
                    if let Some(rec) = &mux_rec {
                        rec.record(EventKind::SessionOpen, id, 0, seed, 0);
                    }
                    let closed = slots
                        .iter_mut()
                        .position(|(s, open)| open.is_none() && Arc::get_mut(s).is_some());
                    let k = match closed {
                        Some(k) => {
                            let slot = Arc::get_mut(&mut slots[k].0).expect("unshared");
                            let core = slot.core.get_mut().expect("session poisoned");
                            core.reopen(id, seed, cfg);
                            slots[k].1 = Some((id, core.started));
                            k
                        }
                        None => {
                            let core = SessionCore::new(id, seed, cfg, &channels);
                            let open = Some((id, core.started));
                            slots.push((Arc::new(SessionSlot::new(core)), open));
                            slots.len() - 1
                        }
                    };
                    for nt in &notifiers {
                        nt.open(Arc::clone(&slots[k].0));
                    }
                    next += 1;
                    in_flight += 1;
                }
                tally.metrics.gauges.window_occupancy = in_flight;
            }
            // Wake at least once per `STALL_CHECK` so stalls are caught
            // even while every open session is stuck.
            if let Some(slot) = completions.pop_timeout(STALL_CHECK) {
                in_flight -= 1;
                tally.metrics.gauges.window_occupancy = in_flight;
                close_concurrent(&slot, &mut tally, mux_rec.as_ref());
                if let Some((_, open)) = slots.iter_mut().find(|(s, _)| Arc::ptr_eq(s, &slot)) {
                    *open = None;
                }
            }
            let open = slots
                .iter()
                .filter_map(|(slot, open)| open.map(|(id, opened)| (id, opened, &**slot)));
            stalls.check(Instant::now(), cfg, &tally.metrics, registry, open);
        }
        for nt in &notifiers {
            nt.shutdown();
        }
    });

    tally.finish(
        "concurrent",
        backend_desc(lowered),
        started,
        stalls.into_records(),
        Vec::new(),
        registry,
    )
}

/// The concurrent engine's capture: the locked core's stage split and
/// each entity's latest backend state. A session that completed but is
/// not collected yet is not stalled.
impl Forensics for SessionSlot {
    fn capture(&self, age_us: u64) -> Option<Capture> {
        let core = self.core.lock().expect("session poisoned");
        if core.completed.is_some() {
            return None;
        }
        let entity_state = core
            .entity_states
            .iter()
            .enumerate()
            .map(|(i, s)| (i as u32, *s))
            .collect();
        Some((core.stages(age_us), entity_state))
    }
}

/// Hand a session the entity threads completed to the tally: attribute
/// its latency to stages and merge its counters.
fn close_concurrent(slot: &SessionSlot, tally: &mut Tally, rec: Option<&Recorder>) {
    let core = slot.core.lock().expect("session poisoned");
    let end = core.completed.expect("finalized session not completed");
    let latency_us = core
        .ended
        .unwrap_or_else(Instant::now)
        .duration_since(core.started)
        .as_micros() as u64;
    let (lost, retx) = core.link_totals();
    tally.metrics.frames_lost += lost;
    tally.metrics.retransmissions += retx;
    for ((from, to), (l, r)) in core.link_breakdown() {
        let e = tally.per_link.entry(format!("{from}->{to}")).or_default();
        e.lost += l;
        e.retransmissions += r;
    }
    let id = core.id;
    let refused = core
        .refused_offer
        .map(|(prim, place)| (tally.prims.name(prim).to_string(), place));
    tally.close(
        Completed {
            id,
            seed: core.seed,
            end,
            trace: &core.trace,
            gaps: &core.gaps,
            latency_us,
            stages: core.stages(latency_us),
            counts: core.counts,
            steps: core.steps,
            lc: core.steps as u64,
            refused,
            monitor: Monitor::Replay,
        },
        rec,
    );
    if let Some(rec) = rec.filter(|_| lost + retx > 0) {
        rec.record(EventKind::FaultSummary, id, 0, lost as u64, retx as u64);
    }
}

/// Map the runtime fault profile onto the DES configuration. Wire-level
/// reordering has no DES counterpart (the DES medium is FIFO by
/// construction); `Reorder` maps to its loss component — the ARQ layer
/// absorbs reordering in the concurrent engine anyway.
fn des_config(cfg: &RuntimeConfig, session: usize) -> SimConfig {
    let mut sc = SimConfig::new()
        .seed(cfg.session_seed(session))
        .max_steps(cfg.max_steps);
    for (name, place) in &cfg.refuse {
        sc = sc.refuse(name, *place);
    }
    match cfg.faults {
        FaultProfile::None => {}
        FaultProfile::Lossy { loss } | FaultProfile::Reorder { loss, .. } => {
            sc = sc.link(LinkConfig {
                loss,
                ..LinkConfig::default()
            });
        }
        FaultProfile::Delay { min, max } => {
            sc = sc.delays(min, max.max(min + 1e-9));
        }
    }
    sc
}

fn run_deterministic(
    d: &Derivation,
    cfg: &RuntimeConfig,
    registry: Option<&Arc<Registry>>,
    lowered: &[Option<Arc<CompiledEntity>>],
) -> RuntimeReport {
    let started = Instant::now();
    let mut metrics = Metrics::for_service(&d.service);
    // Per-primitive wall latency is an inter-thread measurement; the
    // sequential engine reports session-level latency only.
    metrics.per_prim.clear();
    let mut backends = run_backends(d, lowered);
    // The DES engine is single-threaded: one recorder at place 0 replays
    // each session's primitive trace into the ring (lc = trace index + 1,
    // matching the concurrent engine's per-session step clocks).
    let rec = registry.map(|r| r.recorder(0));
    let mut tally = Tally::new(&d.service, cfg, metrics);

    for k in 0..cfg.sessions {
        let t0 = Instant::now();
        let outcome = sim::des::simulate_on(d, des_config(cfg, k), &mut backends);
        let latency_us = t0.elapsed().as_micros() as u64;
        let m = &outcome.metrics;
        tally.metrics.frames_lost += m.frames_lost;
        tally.metrics.retransmissions += m.retransmissions;
        let mut counts = SessionCounts {
            sent: m.messages,
            delivered: m.per_place.values().map(|l| l.received).sum(),
            max_depth: m.max_queue_depth,
            ..SessionCounts::default()
        };
        for (kind, c) in &m.messages_per_kind {
            counts.per_kind[*kind as usize] += c;
        }
        let trace: Vec<(u32, PlaceId)> = outcome
            .trace
            .iter()
            .map(|(name, place)| (tally.prims.intern(name), *place))
            .collect();

        let end = match outcome.result {
            SimResult::Terminated => SessionEnd::Terminated,
            SimResult::Deadlock => SessionEnd::Deadlock,
            SimResult::StepLimit => SessionEnd::StepLimit,
        };
        if let Some(rec) = &rec {
            rec.record(EventKind::SessionOpen, k as u64, 0, cfg.session_seed(k), 0);
            for (i, (name, place)) in outcome.trace.iter().enumerate() {
                rec.record_named(
                    EventKind::Prim,
                    k as u64,
                    (i + 1) as u64,
                    name,
                    *place as u64,
                );
            }
        }
        // The DES monitor stops at the first violation: it is the last
        // primitive of the trace.
        let at = trace.len().saturating_sub(1);
        let violation = outcome
            .violation
            .map(|(name, place)| (tally.prims.intern(&name), place, at));
        tally.close(
            Completed {
                id: k as u64,
                seed: cfg.session_seed(k),
                end,
                trace: &trace,
                gaps: &[],
                latency_us,
                // The DES runs a whole session inline: all of it is "step".
                stages: StageBreakdown::attribute(latency_us, 0, latency_us, 0, None),
                counts,
                steps: m.steps,
                lc: trace.len() as u64,
                refused: configured_refusal(cfg, end),
                monitor: Monitor::Known((violation, outcome.service_could_terminate)),
            },
            rec.as_ref(),
        );
    }

    // The sequential engine cannot stall (no threads to wait on) and has
    // no queues to gauge.
    tally.finish(
        "deterministic",
        backend_desc(lowered),
        started,
        Vec::new(),
        Vec::new(),
        registry,
    )
}
