//! The distributed runtime: protocol entities in separate OS processes,
//! joined by real sockets.
//!
//! ## Topology
//!
//! The paper's medium becomes a process: the **hub** (`protogen run
//! --distributed`) listens on a TCP or Unix-domain address, and every
//! protocol entity (`protogen serve --place p`) connects to it. All
//! cross-entity traffic transits the hub. Because each hub↔entity link
//! is reliable FIFO (sequence-numbered resumption over reconnects — see
//! [`transport::Link`]) and every causal chain between entities passes
//! through the hub, the hub's processing order is a valid linearization
//! of each session — which is exactly the trace the
//! [`sim::monitor::ServiceMonitor`] replays for conformance.
//!
//! ## Occurrence numbers across address spaces
//!
//! §3.5 occurrence numbers are demand-assigned per process, so two
//! processes' tables disagree on raw numbers. The wire carries the
//! canonical **site-tag path** of each occurrence instead
//! ([`OccTable::path_of`]); the receiving entity resolves the path in
//! its own table ([`OccTable::resolve_path`]). Paths are derived from
//! the shared service specification, so they are identical in every
//! process.
//!
//! ## Termination without a shared lock
//!
//! In-process, global quiescence is read under the session mutex. Over
//! sockets the hub counts: every entity reports a [`WireMsg::Status`]
//! when it parks (no enabled move), carrying how many `Data` frames it
//! has *seen* for the session. The hub treats a status as **current**
//! only when `seen` equals its own forwarded count — otherwise data is
//! still in flight and the entity will wake up. When every entity has a
//! current, parked status: all-δ-votes with empty inboxes commits
//! `Terminated`, a hit step budget commits `StepLimit`, anything else
//! is a true `Deadlock`.
//!
//! ## Supervision
//!
//! The hub heartbeats every link and tracks silence. A dead connection
//! opens a reconnect window; an entity that misses it is declared dead:
//! every in-flight session is completed as [`SessionEnd::Aborted`] with
//! a diagnostic `transport_events` entry, survivors get `Close` +
//! `Shutdown`, and the run returns (never hangs) — the CLI maps
//! aborted sessions to its distinct transport exit code. Entity-side,
//! reconnection runs under a seeded exponential backoff with a retry
//! budget ([`transport::Backoff`]); an exhausted budget fails the
//! `serve` process the same way.
//!
//! ## Event loops
//!
//! Both loops are driven by readiness, not by timers. Each hub sweep
//! blocks in one `poll(2)` ([`transport::wait_readable`]) over the
//! listener, every connected link and every connection still owing its
//! `Hello`, and reads only what is readable. The wait is zero right
//! after a sweep that moved something; otherwise it lasts until the
//! earliest timer the hub keeps anyway (a pure-ack deadline, a
//! heartbeat, a silence limit, a reconnect or join deadline, the stall
//! check). An entity polls its one socket without waiting while it has
//! runnable sessions and otherwise blocks until data arrives or its own
//! ack, heartbeat or silence timer is due. Nothing else ever needs to
//! wake either loop, so there is no self-pipe.

use crate::compiled::lower_for;
use crate::config::{BackendChoice, RuntimeConfig};
use crate::entity::pack_msg_event;
use crate::exec::{backend_desc, configured_refusal, run_registry, Completed, Monitor, Tally};
use crate::metrics::{LinkReport, Metrics, RuntimeReport, StageBreakdown};
use crate::session::{SessionCounts, SessionEnd};
use crate::stall::StallTracker;
use lotos::ast::Spec;
use lotos::place::PlaceId;
use medium::Msg;
use obs::{EventKind, Recorder, Registry};
use protogen::derive::Derivation;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use semantics::backend::{make_backend, BState, Backend, EntityBackend, OfferView, PrimTable};
use semantics::engine::TermArena;
use semantics::hash::fx_hash;
use semantics::term::{Label, OccTable};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::io;
use std::os::fd::RawFd;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use transport::{
    poll_messages, poll_messages_into, wait_readable, Addr, Backoff, BatchConfig, Channel, Link,
    Listener, WireMsg,
};

/// Read timeout set once on every connection. The event loops read a
/// socket only after [`wait_readable`] reports it ready, so a read never
/// waits in practice; this bounds the damage if one ever does.
const READ_BACKSTOP: Duration = Duration::from_millis(10);

/// How often the hub looks for sessions past their stall deadline.
const STALL_CHECK: Duration = Duration::from_millis(5);

/// How long an entity waits for one connection attempt to the hub.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(1);

/// Link batching: the transport defaults, with the configured frame
/// budget (`--batch-frames`).
fn batch_config(batch_frames: usize) -> BatchConfig {
    BatchConfig {
        batch_frames,
        ..BatchConfig::default()
    }
}

/// Concurrent sessions the hub keeps open for `threads` worker threads —
/// batching thrives on in-flight work.
fn session_window(threads: usize) -> usize {
    (threads * 8).max(32)
}

/// Timing and address knobs of the distributed runtime. The defaults
/// suit loopback; tests shrink them, WAN deployments stretch them.
#[derive(Clone, Debug)]
pub struct DistributedConfig {
    /// Where the hub listens (entities connect here).
    pub listen: Addr,
    /// Hub→entity heartbeat interval.
    pub heartbeat: Duration,
    /// Silence on a *connected* link before its connection is presumed
    /// dead and torn down (opens the reconnect window). A fresh
    /// connection gets the same time to send its `Hello`.
    pub dead_after: Duration,
    /// How long a disconnected entity may take to reconnect before it is
    /// declared dead and its sessions aborted.
    pub reconnect_deadline: Duration,
    /// How long an entity may take to join at startup.
    pub join_deadline: Duration,
    /// Global no-progress guard: if *nothing* happens for this long the
    /// run aborts every live session rather than hang.
    pub stall_timeout: Duration,
    /// Frames queued on a link before it is flushed mid-sweep instead
    /// of waiting for the per-sweep flush.
    pub batch_frames: usize,
    /// TCP address for the live observability listener (`--metrics`):
    /// serves Prometheus text exposition at `/metrics` and, when the run
    /// is recorded, a Chrome-trace snapshot of the merged log at
    /// `/trace`. `None` = no listener.
    pub metrics: Option<String>,
}

impl Default for DistributedConfig {
    fn default() -> Self {
        DistributedConfig {
            listen: Addr::Tcp("127.0.0.1:0".to_string()),
            heartbeat: Duration::from_millis(100),
            dead_after: Duration::from_secs(2),
            reconnect_deadline: Duration::from_secs(3),
            join_deadline: Duration::from_secs(30),
            stall_timeout: Duration::from_secs(20),
            batch_frames: 128,
            metrics: None,
        }
    }
}

impl DistributedConfig {
    pub fn new(listen: Addr) -> DistributedConfig {
        DistributedConfig {
            listen,
            ..DistributedConfig::default()
        }
    }
}

// ======================================================================
// Hub
// ======================================================================

/// Latest scheduling status an entity reported for one session.
#[derive(Clone, Copy, Debug)]
struct StatusRec {
    seen: u64,
    vote: bool,
    inbox_empty: bool,
    steps: u64,
}

/// What the hub just observed for a session — drives which stage the
/// interval since the previous observation is attributed to.
#[derive(Clone, Copy)]
enum Mark {
    /// Work arrived (a `Prim` or a `Data` frame): the entities were
    /// stepping.
    Step,
    /// A scheduling report arrived (`Status`) or the session closed:
    /// the entities were parked or parking.
    Notify,
}

struct HubSession {
    id: u64,
    seed: u64,
    /// Primitives as ids of the tally's table, with the gap before each.
    trace: Vec<(u32, PlaceId)>,
    gaps: Vec<u64>,
    /// Messages forwarded, per kind and deepest backlog (forwarded but
    /// not yet acked) towards one destination; folded in at close.
    counts: SessionCounts,
    /// Data frames forwarded to each entity (by dense index).
    forwarded: Vec<u64>,
    /// Data frames each entity has *reported seeing* (its latest
    /// `Status.seen`) — `Σforwarded − Σacked` is the hub's estimate of
    /// frames still on the wire.
    acked: Vec<u64>,
    status: Vec<Option<StatusRec>>,
    started: Instant,
    last_prim: Option<Instant>,
    /// Stage attribution: the hub cannot see inside the entity
    /// processes, so it classifies each interval between consecutive
    /// observations by what the observation implies (see [`Mark`]).
    last_mark: Instant,
    observed: bool,
    queue_ns: u64,
    step_ns: u64,
    wire_ns: u64,
    notify_ns: u64,
    /// Hub-side Lamport clock for the session: merged with every wire
    /// clock that arrives, so the hub's recorded observations order
    /// consistently with the entities' own events.
    lc: u64,
}

impl HubSession {
    fn new(id: u64, seed: u64, n: usize) -> HubSession {
        let now = Instant::now();
        HubSession {
            id,
            seed,
            trace: Vec::new(),
            gaps: Vec::new(),
            counts: SessionCounts::default(),
            forwarded: vec![0; n],
            acked: vec![0; n],
            status: vec![None; n],
            started: now,
            last_prim: None,
            last_mark: now,
            observed: false,
            queue_ns: 0,
            step_ns: 0,
            wire_ns: 0,
            notify_ns: 0,
            lc: 0,
        }
    }

    /// Attribute the interval since the previous observation: before
    /// anything is observed the session is queued (Opens still in
    /// flight, entities not yet stepping it); while forwarded data is
    /// unaccounted for the wire owns the interval; otherwise the kind
    /// of the observation decides (stepping vs parked).
    fn mark(&mut self, now: Instant, kind: Mark) {
        let dt = now.saturating_duration_since(self.last_mark).as_nanos() as u64;
        self.last_mark = now;
        let in_flight = self
            .forwarded
            .iter()
            .sum::<u64>()
            .saturating_sub(self.acked.iter().sum::<u64>());
        if !self.observed {
            self.observed = true;
            self.queue_ns += dt;
        } else if in_flight > 0 {
            self.wire_ns += dt;
        } else {
            match kind {
                Mark::Step => self.step_ns += dt,
                Mark::Notify => self.notify_ns += dt,
            }
        }
    }

    /// What the hub measured for a session it closes with `end`. A
    /// message counts as delivered once its receiver acked it.
    fn completed(&mut self, end: SessionEnd, cfg: &RuntimeConfig) -> Completed<'_> {
        self.mark(Instant::now(), Mark::Notify);
        let latency_us = self.started.elapsed().as_micros() as u64;
        self.counts.delivered = self.acked.iter().sum::<u64>() as usize;
        Completed {
            id: self.id,
            seed: self.seed,
            end,
            trace: &self.trace,
            gaps: &self.gaps,
            latency_us,
            stages: StageBreakdown::attribute(
                latency_us,
                self.queue_ns / 1000,
                self.step_ns / 1000,
                self.wire_ns / 1000,
                Some(self.notify_ns / 1000),
            ),
            counts: self.counts,
            steps: 0,
            lc: self.lc,
            refused: configured_refusal(cfg, end),
            monitor: Monitor::Replay,
        }
    }

    /// The committed outcome once every entity has a *current* parked
    /// status, or `None` while something can still move.
    fn decide(&self, max_steps: u64) -> Option<SessionEnd> {
        let mut all_vote = true;
        let mut all_empty = true;
        let mut step_limited = false;
        for (i, st) in self.status.iter().enumerate() {
            let Some(st) = st else { return None };
            if st.seen != self.forwarded[i] {
                return None; // stale: data still in flight to this entity
            }
            all_vote &= st.vote;
            all_empty &= st.inbox_empty;
            step_limited |= st.steps >= max_steps;
        }
        Some(if step_limited {
            SessionEnd::StepLimit
        } else if all_vote && all_empty {
            SessionEnd::Terminated
        } else {
            SessionEnd::Deadlock
        })
    }
}

/// Hub-side state of one entity link.
struct EntityLink {
    place: PlaceId,
    chan: Option<Channel>,
    link: Link,
    last_heard: Instant,
    /// When the current disconnection started (run start for
    /// never-connected links).
    disconnected_at: Option<Instant>,
    ever_connected: bool,
    last_heartbeat: Instant,
}

impl EntityLink {
    fn new(place: PlaceId, now: Instant, bcfg: BatchConfig) -> EntityLink {
        EntityLink {
            place,
            chan: None,
            link: Link::with_batch(bcfg),
            last_heard: now,
            disconnected_at: Some(now),
            ever_connected: false,
            last_heartbeat: now,
        }
    }

    /// Queue a sequenced message into the link's batch (buffered for
    /// resumption either way), or hold it for the next reconnect. The
    /// batch goes out at the sweep's flush point — or here, once it has
    /// grown past the configured frame budget.
    fn push(&mut self, msg: WireMsg, events: &mut Vec<String>) {
        match self.chan.as_mut() {
            Some(ch) => {
                self.link.queue(msg);
                if self.link.wants_flush() && self.link.flush(&mut ch.conn).is_err() {
                    // The message is in the resume buffer; only the
                    // connection is lost.
                    self.drop_conn(events, "send failed");
                }
            }
            None => {
                self.link.buffer(msg);
            }
        }
    }

    /// Queue unsequenced control traffic (dropped if disconnected).
    fn push_control(&mut self, msg: WireMsg) {
        if self.chan.is_some() {
            self.link.queue(msg);
        }
    }

    /// Sweep flush: push a pure ack if one is due, then write the
    /// queued batch with one vectored call. Returns whether any frames
    /// went out.
    fn flush(&mut self, events: &mut Vec<String>) -> bool {
        let Some(ch) = self.chan.as_mut() else {
            return false;
        };
        let had_queued = self.link.queued_frames() > 0;
        let ok = self.link.maybe_ack(&mut ch.conn, false).is_ok()
            && self.link.flush(&mut ch.conn).is_ok();
        if !ok {
            self.drop_conn(events, "flush failed");
        }
        had_queued
    }

    /// How long this link may stay disconnected before its entity is
    /// declared dead: the reconnect window once it has been connected,
    /// the join window before.
    fn connect_deadline(&self, dcfg: &DistributedConfig) -> Duration {
        if self.ever_connected {
            dcfg.reconnect_deadline
        } else {
            dcfg.join_deadline
        }
    }

    /// Adopt an identified connection: answer `Welcome`, resume the
    /// link over it and replace any previous connection. Returns `false`
    /// (and leaves the link disconnected) if either write fails.
    fn attach(&mut self, mut chan: Channel, last_seen: u64) -> bool {
        if let Some(old) = self.chan.take() {
            old.conn.shutdown();
        }
        let welcome = WireMsg::Welcome {
            last_seen: self.link.last_delivered(),
        };
        if chan.conn.write_all(&welcome.encode(0)).is_err()
            || self.link.resume(&mut chan.conn, last_seen).is_err()
        {
            chan.conn.shutdown();
            self.disconnected_at.get_or_insert_with(Instant::now);
            return false;
        }
        self.chan = Some(chan);
        self.disconnected_at = None;
        true
    }

    fn drop_conn(&mut self, events: &mut Vec<String>, why: &str) {
        if let Some(ch) = self.chan.take() {
            ch.conn.shutdown();
            // A half-encoded batch is dead with the socket; its
            // sequenced frames are retransmitted from the ring on
            // resume.
            self.link.discard_batch();
            self.link.note_fault();
            self.disconnected_at = Some(Instant::now());
            events.push(format!(
                "link place:{}: connection lost ({why})",
                self.place
            ));
        }
    }
}

/// Mirror the links' cumulative batching stats into the live metrics
/// atomics the `/metrics` endpoint serves. Stats only grow, so a plain
/// store of the sums is race-free against the scraping thread.
fn publish_batch_counters(links: &[EntityLink], metrics: &Metrics) {
    let (mut batches, mut bytes, mut piggy, mut resent) = (0usize, 0usize, 0usize, 0usize);
    for link in links {
        let s = &link.link.stats;
        batches += s.batches_sent as usize;
        bytes += s.bytes_sent as usize;
        piggy += s.piggybacked_acks as usize;
        resent += s.frames_resent as usize;
    }
    metrics.retransmissions.store(resent, Ordering::Relaxed);
    metrics.batches_sent.store(batches, Ordering::Relaxed);
    metrics.bytes_sent.store(bytes, Ordering::Relaxed);
    metrics.piggybacked_acks.store(piggy, Ordering::Relaxed);
}

/// Refresh the queue/backlog gauges: aggregate outbound backlog (queued
/// plus unacked frames) across links, encode-pool utilization, and the
/// session-window occupancy.
fn publish_gauges(links: &[EntityLink], open_sessions: usize, metrics: &Metrics) {
    let mut backlog = 0usize;
    let (mut free, mut total) = (0usize, 0usize);
    for l in links {
        backlog += l.link.queued_frames() as usize + l.link.unacked_len();
        let (f, t) = l.link.pool_available();
        free += f;
        total += t;
    }
    metrics
        .link_backlog_frames
        .store(backlog, Ordering::Relaxed);
    metrics.pool_bufs_free.store(free, Ordering::Relaxed);
    metrics.pool_bufs_total.store(total, Ordering::Relaxed);
    metrics
        .window_occupancy
        .store(open_sessions, Ordering::Relaxed);
}

/// Project a transport link's counters into the report schema.
fn report_of(link: &Link) -> LinkReport {
    let s = &link.stats;
    let (p50, p99) = link.batch_percentiles();
    LinkReport {
        lost: 0,
        retransmissions: s.frames_resent as usize,
        reconnects: s.reconnects.saturating_sub(1) as usize,
        dup_dropped: s.dup_dropped as usize,
        faults: s.faults_seen as usize,
        batches: s.batches_sent as usize,
        bytes_sent: s.bytes_sent as usize,
        piggybacked_acks: s.piggybacked_acks as usize,
        frames_per_batch_p50: p50,
        frames_per_batch_p99: p99,
    }
}

/// Run `cfg.sessions` sessions of the derived protocol over socket
/// links on `listener`, as the hub (medium + monitor + supervisor). The
/// caller binds the listener, so it can learn the resolved address
/// (port 0, generated UDS paths) before starting entities. Returns when
/// every session has completed or been aborted — never hangs: a dead
/// link aborts its sessions after [`DistributedConfig::reconnect_deadline`],
/// and total silence aborts after [`DistributedConfig::stall_timeout`].
///
/// `cfg.threads` bounds the session window (like the in-process
/// engine); `cfg.faults` and `cfg.capacity` do not apply — connection
/// faults are injected with [`transport::FaultProxy`] between the
/// entities and the hub.
///
/// Recording follows [`RuntimeConfig::registry`]/[`RuntimeConfig::record`]
/// as in [`crate::try_run`]. When recording, the hub propagates its
/// trace id in every `Open` frame, absorbs the [`WireMsg::Trace`] chunks
/// entities flush at shutdown, and merges everything into one causal
/// log; violation and abort reports carry their session's tail.
pub fn run_hub_on(
    d: &Derivation,
    cfg: &RuntimeConfig,
    dcfg: &DistributedConfig,
    listener: Listener,
) -> io::Result<RuntimeReport> {
    let started = Instant::now();
    let registry = run_registry(cfg);
    // The entities run in their own processes, but they are launched from
    // the same derivation with the same backend choice — so the hub's
    // `backend` field reports what `cfg.backend` lowers to, and a
    // `--backend compiled` request that cannot be honored fails the run
    // here, before any entity is awaited.
    let lowered = lower_for(&d.entities, cfg.backend)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
    listener.set_nonblocking(true)?;

    let places: Vec<PlaceId> = d.entities.iter().map(|(p, _)| *p).collect();
    let n = places.len();
    let place_index: BTreeMap<PlaceId, usize> =
        places.iter().enumerate().map(|(i, p)| (*p, i)).collect();
    let now = Instant::now();
    let bcfg = batch_config(dcfg.batch_frames);
    let mut links: Vec<EntityLink> = places
        .iter()
        .map(|&p| EntityLink::new(p, now, bcfg))
        .collect();

    let metrics = Arc::new(Metrics::for_service(&d.service));
    // The hub's recorder observes at place 0; entity processes record at
    // their own places and ship chunks back at shutdown.
    let rec = registry.as_ref().map(|r| r.recorder(0));
    let trace_id = registry.as_ref().map(|r| r.trace_id).unwrap_or(0);
    let server = match &dcfg.metrics {
        Some(addr) => {
            let m = Arc::clone(&metrics);
            let mut routes: Vec<(String, obs::Handler)> = vec![(
                "/metrics".to_string(),
                Arc::new(move || ("text/plain; version=0.0.4".to_string(), m.to_prometheus()))
                    as obs::Handler,
            )];
            let mh = Arc::clone(&metrics);
            routes.push((
                "/health".to_string(),
                Arc::new(move || {
                    (
                        "application/json".to_string(),
                        mh.health_json(started.elapsed().as_secs_f64()).to_string(),
                    )
                }),
            ));
            if let Some(reg) = &registry {
                let reg = Arc::clone(reg);
                routes.push((
                    "/trace".to_string(),
                    Arc::new(move || {
                        (
                            "application/json".to_string(),
                            reg.snapshot().to_chrome_json(),
                        )
                    }),
                ));
            }
            Some(obs::MetricsServer::spawn(addr, routes)?)
        }
        None => None,
    };
    let mut tally = Tally::new(&d.service, cfg, &metrics);
    let mut events: Vec<String> = Vec::new();
    let mut sessions: BTreeMap<u64, HubSession> = BTreeMap::new();
    let window = session_window(cfg.threads.max(1));
    metrics.window_size.store(window, Ordering::Relaxed);
    let stalls = StallTracker::new();
    let mut last_stall_check = Instant::now();
    let mut last_backlog_refresh = Instant::now();
    let mut next = 0usize;
    let mut last_progress = Instant::now();
    let mut dead_entity: Option<PlaceId> = None;
    let mut hellos = Handshakes::default();
    let mut fds: Vec<RawFd> = Vec::new();
    // Whether the previous sweep moved anything: if so, look again
    // without blocking, since traffic usually follows traffic.
    let mut moved = true;
    let mut inbuf: Vec<(u64, WireMsg)> = Vec::new();

    'run: loop {
        if next >= cfg.sessions && sessions.is_empty() {
            break;
        }
        let mut progress = false;

        // Keep the window full.
        while next < cfg.sessions && sessions.len() < window {
            let id = next as u64;
            let seed = cfg.session_seed(next);
            if let Some(rec) = &rec {
                rec.record(EventKind::SessionOpen, id, 0, seed, 0);
            }
            sessions.insert(id, HubSession::new(id, seed, n));
            for link in links.iter_mut() {
                link.push(
                    WireMsg::Open {
                        session: id,
                        seed,
                        max_steps: cfg.max_steps as u64,
                        trace: trace_id,
                    },
                    &mut events,
                );
            }
            next += 1;
            progress = true;
        }

        // Block until a link, the listener or a pending handshake is
        // readable, or the earliest timer is due.
        let timeout = if moved || progress {
            Some(Duration::ZERO)
        } else {
            hub_wake(
                &links,
                !sessions.is_empty(),
                dcfg,
                last_stall_check + STALL_CHECK,
                last_progress,
            )
            .into_iter()
            .chain(hellos.next_deadline())
            .min()
            .map(|t| t.saturating_duration_since(Instant::now()))
        };
        fill_poll_set(&mut fds, &listener, &links, &hellos, |_| true);
        let ready = wait_readable(&fds, timeout)?;

        // Read every readable link and process its traffic. Replies
        // and forwards queue on the destination links; they go out in
        // the flush phase below, one vectored write per link per sweep.
        let mut closed: Vec<(u64, SessionEnd)> = Vec::new();
        for idx in 0..n {
            if !ready[1 + idx] {
                continue;
            }
            let Some(ch) = links[idx].chan.as_mut() else {
                continue;
            };
            inbuf.clear();
            match poll_messages_into(&mut ch.conn, &mut ch.dec, &mut inbuf) {
                Ok(()) => {
                    if !inbuf.is_empty() {
                        links[idx].last_heard = Instant::now();
                        last_progress = Instant::now();
                        progress = true;
                    }
                    for (seq, m) in inbuf.drain(..) {
                        if let Some(m) = links[idx].link.accept(seq, m) {
                            hub_handle(
                                m,
                                idx,
                                &mut links,
                                &mut sessions,
                                &mut tally.prims,
                                &mut events,
                                &mut closed,
                                cfg,
                                rec.as_ref(),
                                registry.as_ref(),
                            );
                        }
                    }
                }
                Err(e) => {
                    if let Some(rec) = &rec {
                        rec.record_global(EventKind::LinkDown, links[idx].place as u64, 0);
                    }
                    links[idx].drop_conn(&mut events, &e.to_string());
                }
            }
        }

        // Finish the handshakes that became readable, then accept new
        // connections into the pending set (the next wait covers them).
        for (place, last_seen, chan, leftovers) in hellos.advance(&ready[1 + n..], &mut events) {
            let Some(&idx) = place_index.get(&place) else {
                events.push(format!("rejected connection for unknown place {place}"));
                continue;
            };
            let link = &mut links[idx];
            let resent_before = link.link.stats.frames_resent;
            if !link.attach(chan, last_seen) {
                continue;
            }
            let was_connected = link.ever_connected;
            link.ever_connected = true;
            link.last_heard = Instant::now();
            if was_connected {
                events.push(format!("link place:{place}: reconnected and resumed"));
            }
            if let Some(rec) = &rec {
                if was_connected {
                    rec.record_global(
                        EventKind::LinkReconnect,
                        place as u64,
                        link.link.stats.reconnects.saturating_sub(1),
                    );
                } else {
                    rec.record_global(EventKind::LinkConnect, place as u64, 0);
                }
                let resent = link.link.stats.frames_resent - resent_before;
                if resent > 0 {
                    rec.record_global(EventKind::LinkRetransmit, place as u64, resent);
                }
            }
            last_progress = Instant::now();
            progress = true;
            for (seq, m) in leftovers {
                if let Some(m) = links[idx].link.accept(seq, m) {
                    hub_handle(
                        m,
                        idx,
                        &mut links,
                        &mut sessions,
                        &mut tally.prims,
                        &mut events,
                        &mut closed,
                        cfg,
                        rec.as_ref(),
                        registry.as_ref(),
                    );
                }
            }
        }
        if ready[0] {
            hellos.accept(&listener, dcfg);
        }
        finish_closed(
            cfg,
            closed,
            &mut sessions,
            &mut links,
            &mut events,
            &mut tally,
            rec.as_ref(),
        );

        // Heartbeats and supervision.
        let now = Instant::now();
        for link in links.iter_mut() {
            if link.chan.is_some() {
                if now.duration_since(link.last_heard) > dcfg.dead_after {
                    if let Some(rec) = &rec {
                        rec.record_global(EventKind::LinkDown, link.place as u64, 0);
                    }
                    link.drop_conn(&mut events, "heartbeat silence");
                } else if now.duration_since(link.last_heartbeat) >= dcfg.heartbeat {
                    link.last_heartbeat = now;
                    let nonce = link.link.stats.frames_sent;
                    link.push_control(WireMsg::Heartbeat { nonce });
                }
            }
            if let Some(t) = link.disconnected_at {
                let deadline = link.connect_deadline(dcfg);
                if now.duration_since(t) > deadline && !sessions.is_empty() {
                    dead_entity = Some(link.place);
                    events.push(format!(
                        "link place:{}: declared dead after {:?} without a connection",
                        link.place, deadline
                    ));
                    break 'run;
                }
            }
        }

        // Flush phase: one vectored write per link per sweep carries
        // everything this sweep queued (forwards, Opens, Closes,
        // heartbeats) plus any due pure ack.
        for link in links.iter_mut() {
            progress |= link.flush(&mut events);
        }
        publish_batch_counters(&links, metrics.as_ref());
        publish_gauges(&links, sessions.len(), metrics.as_ref());
        // The labeled per-link map takes a lock the scraper shares;
        // refresh it on a throttle, not every sweep.
        if now.duration_since(last_backlog_refresh) >= Duration::from_millis(50) {
            last_backlog_refresh = now;
            let mut map = metrics.link_backlogs.lock().expect("gauge map poisoned");
            map.clear();
            for l in links.iter() {
                map.insert(
                    format!("place:{}", l.place),
                    l.link.queued_frames() as u64 + l.link.unacked_len() as u64,
                );
            }
        }

        // Stall forensics (hub side): flag sessions past the configured
        // or p99-derived deadline, once each, with the stage split and
        // backlog gauges captured at flag time.
        if now.duration_since(last_stall_check) >= STALL_CHECK {
            last_stall_check = now;
            if let Some(deadline) = StallTracker::deadline(cfg, &metrics) {
                for s in sessions.values() {
                    let age = now.saturating_duration_since(s.started);
                    if age < deadline || !stalls.wants(s.id) {
                        continue;
                    }
                    let age_us = age.as_micros() as u64;
                    let stages = StageBreakdown::attribute(
                        age_us,
                        s.queue_ns / 1000,
                        s.step_ns / 1000,
                        s.wire_ns / 1000,
                        Some(s.notify_ns / 1000),
                    );
                    // The hub cannot see backend states; each entity's
                    // last reported step count is the closest forensic
                    // analogue.
                    let entity_state = s
                        .status
                        .iter()
                        .enumerate()
                        .map(|(i, st)| (i as u32, st.map(|r| r.steps).unwrap_or(0)))
                        .collect();
                    let capture = (age_us, stages, entity_state);
                    stalls.flag(s.id, deadline, capture, &metrics, registry.as_ref());
                }
            }
        }

        // Global stall guard: nothing moved for too long — abort rather
        // than hang (this also catches bugs in quiescence accounting).
        if !sessions.is_empty() && now.duration_since(last_progress) > dcfg.stall_timeout {
            events.push(format!(
                "no progress for {:?}: aborting {} live session(s)",
                dcfg.stall_timeout,
                sessions.len()
            ));
            break 'run;
        }

        if sessions.is_empty() && next >= cfg.sessions {
            break;
        }

        moved = progress;
    }

    // Abort whatever is still live (dead entity or stall) — including
    // sessions the window had not opened yet, so every configured
    // session appears in the report with a verdict.
    while next < cfg.sessions && (dead_entity.is_some() || !sessions.is_empty()) {
        let id = next as u64;
        sessions.insert(id, HubSession::new(id, cfg.session_seed(next), n));
        next += 1;
    }
    let why = match dead_entity {
        Some(p) => format!("entity at place {p} is dead"),
        None => "run stalled".to_string(),
    };
    let live: Vec<(u64, SessionEnd)> = sessions
        .keys()
        .map(|&id| (id, SessionEnd::Aborted))
        .collect();
    for (id, _) in &live {
        events.push(format!("session {id}: aborted ({why})"));
    }
    finish_closed(
        cfg,
        live,
        &mut sessions,
        &mut links,
        &mut events,
        &mut tally,
        rec.as_ref(),
    );

    // Orderly shutdown of surviving entities, with a bounded drain: the
    // listener stays open so an entity that was mid-reconnect can come
    // back for its buffered Close/Shutdown frames. A link is done once
    // its peer has acked everything and closed the connection (an
    // entity force-acks right before exiting on Shutdown); anything
    // else is capped by the reconnect deadline.
    for link in links.iter_mut() {
        link.push(WireMsg::Shutdown, &mut events);
        // `push` only coalesces; force the batch out now — the Shutdown
        // (and any abort-path Closes still queued) must not wait for the
        // entity to time out and reconnect for its resume retransmit.
        link.flush(&mut events);
    }
    let drain_deadline = Instant::now() + dcfg.reconnect_deadline;
    let mut done: Vec<bool> = links.iter().map(|l| Some(l.place) == dead_entity).collect();
    while done.iter().any(|d| !d) {
        let now = Instant::now();
        if now >= drain_deadline {
            break;
        }
        let wake = hellos
            .next_deadline()
            .map_or(drain_deadline, |t| t.min(drain_deadline));
        fill_poll_set(&mut fds, &listener, &links, &hellos, |i| !done[i]);
        let ready = wait_readable(&fds, Some(wake.saturating_duration_since(now)))?;
        for (idx, done_flag) in done.iter_mut().enumerate() {
            if *done_flag || !ready[1 + idx] {
                continue;
            }
            let link = &mut links[idx];
            let Some(ch) = link.chan.as_mut() else {
                continue;
            };
            match poll_messages(&mut ch.conn, &mut ch.dec) {
                Ok(batch) => {
                    for (seq, m) in batch {
                        if let Some(WireMsg::Trace { chunk }) = link.link.accept(seq, m) {
                            if let Some(reg) = &registry {
                                reg.absorb(&chunk);
                            }
                        }
                    }
                    // Force-ack so a lingering entity sees delivery and
                    // exits instead of waiting out its flush window.
                    let _ = link.link.maybe_ack(&mut ch.conn, true);
                }
                Err(_) => {
                    if let Some(ch) = link.chan.take() {
                        ch.conn.shutdown();
                    }
                    // EOF with an empty resume buffer means the entity
                    // saw everything and exited; otherwise keep the
                    // reconnect window open.
                    *done_flag = link.link.unacked_len() == 0;
                }
            }
        }
        for (place, last_seen, chan, leftovers) in hellos.advance(&ready[1 + n..], &mut events) {
            let Some(&idx) = place_index.get(&place) else {
                events.push(format!("rejected connection for unknown place {place}"));
                continue;
            };
            let link = &mut links[idx];
            if !link.attach(chan, last_seen) {
                continue;
            }
            for (seq, m) in leftovers {
                // Trace chunks are the one payload still expected
                // during drain — an entity flushes its recorder right
                // before exiting.
                if let Some(WireMsg::Trace { chunk }) = link.link.accept(seq, m) {
                    if let Some(reg) = &registry {
                        reg.absorb(&chunk);
                    }
                }
            }
            // Ack what the resume delivered so the entity can retire
            // its resend buffer and exit promptly.
            if let Some(ch) = link.chan.as_mut() {
                let _ = link.link.maybe_ack(&mut ch.conn, true);
            }
        }
        if ready[0] {
            hellos.accept(&listener, dcfg);
        }
    }
    for _ in hellos.pending.drain(..) {
        events.push("handshake abandoned: the run ended before its Hello arrived".to_string());
    }

    // The drain may have resent frames: publish the final link counters.
    publish_batch_counters(&links, metrics.as_ref());
    tally.per_link = links
        .iter()
        .map(|l| (format!("place:{}", l.place), report_of(&l.link)))
        .collect();
    let report = tally.finish(
        "distributed",
        backend_desc(&lowered),
        started,
        stalls.take_records(),
        events,
        registry.as_ref(),
    );
    if let Some(srv) = server {
        srv.stop();
    }
    Ok(report)
}

/// An identified connection: the entity's place, its `last_seen`, the
/// channel, and any frames that arrived behind the `Hello` (decoded,
/// not yet accepted).
type Handshake = (PlaceId, u64, Channel, Vec<(u64, WireMsg)>);

/// Connections accepted but not yet identified. Each waits in the poll
/// set for its `Hello` until its own deadline
/// ([`DistributedConfig::dead_after`] after the accept), so a silent or
/// slow peer never holds up the sessions in flight.
#[derive(Default)]
struct Handshakes {
    pending: Vec<(Channel, Instant)>,
}

impl Handshakes {
    /// Accept every connection the listener has waiting.
    fn accept(&mut self, listener: &Listener, dcfg: &DistributedConfig) {
        while let Ok(Some(conn)) = listener.accept() {
            if conn.set_read_timeout(Some(READ_BACKSTOP)).is_ok()
                && conn.set_write_timeout(Some(dcfg.dead_after)).is_ok()
            {
                let deadline = Instant::now() + dcfg.dead_after;
                self.pending.push((Channel::new(conn), deadline));
            }
        }
    }

    fn fds(&self) -> impl Iterator<Item = RawFd> + '_ {
        self.pending.iter().map(|(ch, _)| ch.conn.raw_fd())
    }

    fn next_deadline(&self) -> Option<Instant> {
        self.pending.iter().map(|&(_, t)| t).min()
    }

    /// Read the pending connections `ready` marks (indexed like
    /// [`Handshakes::fds`]) and return those that said `Hello`. A
    /// malformed first frame, a closed peer or a passed deadline fails
    /// the handshake with a `transport_events` entry.
    fn advance(&mut self, ready: &[bool], events: &mut Vec<String>) -> Vec<Handshake> {
        let now = Instant::now();
        let mut identified = Vec::new();
        for (i, (mut chan, deadline)) in std::mem::take(&mut self.pending).into_iter().enumerate() {
            let hello = if ready.get(i) == Some(&true) {
                read_hello(&mut chan)
            } else {
                Ok(None)
            };
            match hello {
                Ok(Some((place, last_seen, rest))) => {
                    identified.push((place, last_seen, chan, rest));
                }
                Ok(None) if now < deadline => self.pending.push((chan, deadline)),
                Ok(None) => {
                    chan.conn.shutdown();
                    events.push(
                        "handshake failed: no Hello within the handshake timeout".to_string(),
                    );
                }
                Err(e) => {
                    chan.conn.shutdown();
                    events.push(format!("handshake failed: {e}"));
                }
            }
        }
        identified
    }
}

/// Read what a readable, unidentified connection sent: `None` until a
/// whole frame is in, then its `Hello` and the frames behind it.
#[allow(clippy::type_complexity)]
fn read_hello(chan: &mut Channel) -> io::Result<Option<(PlaceId, u64, Vec<(u64, WireMsg)>)>> {
    let mut batch = poll_messages(&mut chan.conn, &mut chan.dec)?.into_iter();
    let Some((_, first)) = batch.next() else {
        return Ok(None);
    };
    let WireMsg::Hello { place, last_seen } = first else {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "expected Hello as the first frame",
        ));
    };
    Ok(Some((place, last_seen, batch.collect())))
}

/// Lay out one readiness wait: the listener, then one slot per link
/// (`-1` when it is disconnected or `watch` declines it), then every
/// pending handshake.
fn fill_poll_set(
    fds: &mut Vec<RawFd>,
    listener: &Listener,
    links: &[EntityLink],
    hellos: &Handshakes,
    watch: impl Fn(usize) -> bool,
) {
    fds.clear();
    fds.push(listener.raw_fd());
    fds.extend(links.iter().enumerate().map(|(i, l)| match &l.chan {
        Some(ch) if watch(i) => ch.conn.raw_fd(),
        _ => -1,
    }));
    fds.extend(hellos.fds());
}

/// The earliest timer the hub must wake for when no socket is readable:
/// each connected link's pure-ack deadline, next heartbeat and silence
/// limit; while sessions are live, each disconnected link's reconnect
/// or join deadline, the next stall check and the global no-progress
/// guard. `None` when nothing is pending.
fn hub_wake(
    links: &[EntityLink],
    live: bool,
    dcfg: &DistributedConfig,
    stall_check: Instant,
    last_progress: Instant,
) -> Option<Instant> {
    let mut wake: Option<Instant> = None;
    let mut at = |t: Instant| wake = Some(wake.map_or(t, |w| w.min(t)));
    for l in links {
        if l.chan.is_some() {
            if let Some(t) = l.link.ack_due() {
                at(t);
            }
            at(l.last_heartbeat + dcfg.heartbeat);
            at(l.last_heard + dcfg.dead_after);
        } else if let (true, Some(t)) = (live, l.disconnected_at) {
            at(t + l.connect_deadline(dcfg));
        }
    }
    if live {
        at(stall_check);
        at(last_progress + dcfg.stall_timeout);
    }
    wake
}

/// Dispatch one accepted message from entity `idx`.
#[allow(clippy::too_many_arguments)]
fn hub_handle(
    msg: WireMsg,
    idx: usize,
    links: &mut [EntityLink],
    sessions: &mut BTreeMap<u64, HubSession>,
    prims: &mut PrimTable,
    events: &mut Vec<String>,
    closed: &mut Vec<(u64, SessionEnd)>,
    cfg: &RuntimeConfig,
    rec: Option<&Recorder>,
    registry: Option<&Arc<Registry>>,
) {
    match msg {
        WireMsg::Prim {
            session,
            name,
            place,
            lc,
        } => {
            if let Some(s) = sessions.get_mut(&session) {
                let now = Instant::now();
                let since = s.last_prim.unwrap_or(s.started);
                s.gaps.push(now.duration_since(since).as_micros() as u64);
                s.mark(now, Mark::Step);
                s.last_prim = Some(now);
                s.lc = s.lc.max(lc) + 1;
                if let Some(rec) = rec {
                    rec.record_named(EventKind::Prim, session, s.lc, &name, place as u64);
                }
                s.trace.push((prims.intern(&name), place));
            }
        }
        WireMsg::Data {
            session,
            msg,
            path,
            lc,
        } => {
            let Some(s) = sessions.get_mut(&session) else {
                return; // late traffic of a closed session
            };
            let dest = links.iter().position(|l| l.place == msg.to);
            let Some(dest) = dest else {
                events.push(format!("data for unknown place {}", msg.to));
                return;
            };
            // Mark before the forward counts: the elapsed interval is
            // classified by what was in flight *during* it.
            s.mark(Instant::now(), Mark::Step);
            s.forwarded[dest] += 1;
            let backlog = s.forwarded[dest].saturating_sub(s.acked[dest]);
            s.counts.on_send(msg.kind, backlog as usize);
            s.lc = s.lc.max(lc) + 1;
            if let Some(rec) = rec {
                let (a, b) = pack_msg_event(rec, &msg.id, msg.occ, msg.from, msg.to);
                rec.record(EventKind::Forward, session, s.lc, a, b);
            }
            links[dest].push(
                WireMsg::Data {
                    session,
                    msg,
                    path,
                    lc,
                },
                events,
            );
        }
        WireMsg::Trace { chunk } => {
            if let Some(reg) = registry {
                reg.absorb(&chunk);
            }
        }
        WireMsg::Status {
            session,
            seen,
            inbox_empty,
            vote,
            steps,
            ..
        } => {
            if let Some(s) = sessions.get_mut(&session) {
                s.mark(Instant::now(), Mark::Notify);
                s.acked[idx] = s.acked[idx].max(seen);
                s.status[idx] = Some(StatusRec {
                    seen,
                    vote,
                    inbox_empty,
                    steps,
                });
                if let Some(end) = s.decide(cfg.max_steps as u64) {
                    closed.push((session, end));
                }
            }
        }
        WireMsg::Heartbeat { nonce } => {
            links[idx].push_control(WireMsg::HeartbeatAck { nonce });
        }
        WireMsg::HeartbeatAck { .. } => {}
        other => {
            events.push(format!(
                "unexpected {other:?} from place {}",
                links[idx].place
            ));
        }
    }
}

/// Close decided sessions: notify every entity, then hand each to the
/// tally.
fn finish_closed(
    cfg: &RuntimeConfig,
    closed: Vec<(u64, SessionEnd)>,
    sessions: &mut BTreeMap<u64, HubSession>,
    links: &mut [EntityLink],
    events: &mut Vec<String>,
    tally: &mut Tally,
    rec: Option<&Recorder>,
) {
    for (id, end) in closed {
        let Some(mut s) = sessions.remove(&id) else {
            continue;
        };
        for link in links.iter_mut() {
            link.push(
                WireMsg::Close {
                    session: id,
                    end: end.code(),
                },
                events,
            );
        }
        tally.close(s.completed(end, cfg), rec);
    }
}

// ======================================================================
// Entity
// ======================================================================

/// Configuration of one entity process (`protogen serve`).
#[derive(Clone, Debug)]
pub struct ServeConfig {
    pub hub: Addr,
    pub place: PlaceId,
    /// How the place-local behaviour is stepped (`Auto` compiles to
    /// tables when the behaviour lowers, interprets otherwise — pass the
    /// same choice to the hub so its report describes the entities).
    pub backend: BackendChoice,
    /// Primitives this entity's users never offer.
    pub refuse: Vec<(String, PlaceId)>,
    /// Jitter seed for the reconnect backoff.
    pub seed: u64,
    pub heartbeat: Duration,
    /// Frames queued before a mid-sweep flush, as on the hub.
    pub batch_frames: usize,
    /// Silence from the hub before the connection is presumed dead.
    pub dead_after: Duration,
    pub backoff_base: Duration,
    pub backoff_cap: Duration,
    /// Consecutive failed reconnect attempts before giving up.
    pub retry_budget: u32,
}

impl ServeConfig {
    pub fn new(hub: Addr, place: PlaceId) -> ServeConfig {
        ServeConfig {
            hub,
            place,
            backend: BackendChoice::default(),
            refuse: Vec::new(),
            seed: 0xC0FFEE,
            heartbeat: Duration::from_millis(100),
            batch_frames: 128,
            dead_after: Duration::from_secs(2),
            backoff_base: Duration::from_millis(25),
            backoff_cap: Duration::from_secs(1),
            retry_budget: 40,
        }
    }
}

/// What a completed `serve` run did — for logging and tests.
#[derive(Clone, Debug, Default)]
pub struct ServeOutcome {
    pub sessions_opened: u64,
    pub sessions_closed: u64,
    pub primitives: u64,
    pub link: LinkReport,
}

/// One session as stepped by an entity process.
struct EntSession {
    state: BState,
    rng: StdRng,
    inbox: BTreeMap<PlaceId, VecDeque<Msg>>,
    seen: u64,
    consumed: u64,
    steps: u64,
    max_steps: u64,
    /// Per-session Lamport clock: merged with the wire clock of every
    /// arriving `Data` frame, +1 per executed move, and stamped on every
    /// outgoing `Prim`/`Data` frame and recorded event.
    lc: u64,
}

/// Entity-side flight-recorder state: created lazily when the first
/// `Open` carries a nonzero trace id (the hub is recording), so an
/// untraced hub costs the entity nothing.
#[derive(Default)]
struct EntObs {
    registry: Option<Arc<Registry>>,
    rec: Option<Recorder>,
}

impl EntObs {
    fn ensure(&mut self, trace: u64, place: PlaceId) {
        if trace != 0 && self.registry.is_none() {
            let reg = Registry::new(trace, obs::DEFAULT_CAPACITY);
            self.rec = Some(reg.recorder(place));
            self.registry = Some(reg);
        }
    }
}

/// Moves executed per session per scheduling slice.
const SLICE: usize = 128;

/// Run one protocol entity against a hub until the hub shuts the link
/// down. Returns `Err` (with a diagnostic) when the link dies for good —
/// connect/reconnect budget exhausted — so the caller can exit with the
/// transport failure code.
pub fn serve_entity(entity: &Spec, cfg: &ServeConfig) -> Result<ServeOutcome, String> {
    let occ = Arc::new(Mutex::new(OccTable::new()));
    let lowered = lower_for(&[(cfg.place, entity.clone())], cfg.backend)?;
    let mut backend = make_backend(
        entity,
        lowered.into_iter().next().flatten(),
        &Arc::new(TermArena::new()),
        &occ,
    );
    let mut link = Link::with_batch(batch_config(cfg.batch_frames));
    let mut chan: Option<Channel> = None;
    let mut backoff = Backoff::new(
        cfg.backoff_base,
        cfg.backoff_cap,
        cfg.retry_budget,
        fx_hash(&(cfg.seed, cfg.place)),
    );
    let mut sessions: BTreeMap<u64, EntSession> = BTreeMap::new();
    let mut runnable: BTreeSet<u64> = BTreeSet::new();
    let mut outcome = ServeOutcome::default();
    let mut obs = EntObs::default();
    let mut shutdown = false;
    let mut trace_flushed = false;
    let mut flush_deadline = Instant::now();
    let mut last_heard = Instant::now();
    let mut last_hb = Instant::now();
    let mut outbox: Vec<WireMsg> = Vec::new();
    let mut inbuf: Vec<(u64, WireMsg)> = Vec::new();

    loop {
        // (Re)connect under the backoff policy.
        if chan.is_none() {
            if trace_flushed && Instant::now() >= flush_deadline {
                // The run is over and the tail flush is best-effort:
                // don't burn the whole retry budget chasing a hub that
                // already closed its drain window.
                outcome.link = report_of(&link);
                return Ok(outcome);
            }
            // While lingering after a shutdown, stop retrying at the
            // flush deadline rather than spend the whole retry budget.
            let give_up = trace_flushed.then_some(flush_deadline);
            match entity_connect(cfg, &mut link, &mut backoff, give_up) {
                Ok((c, leftovers)) => {
                    chan = Some(c);
                    backoff.reset();
                    last_heard = Instant::now();
                    for (seq, m) in leftovers {
                        if let Some(m) = link.accept(seq, m) {
                            entity_handle(
                                m,
                                cfg,
                                &mut backend,
                                &occ,
                                &mut sessions,
                                &mut runnable,
                                &mut outcome,
                                &mut shutdown,
                                &mut outbox,
                                &mut obs,
                            );
                        }
                    }
                }
                Err(e) => {
                    if trace_flushed {
                        // Completed run, unreachable hub: exit cleanly
                        // rather than report a transport failure just
                        // because the trace tail could not land.
                        outcome.link = report_of(&link);
                        return Ok(outcome);
                    }
                    return Err(format!(
                        "place {}: link to hub {} is dead: {e}",
                        cfg.place, cfg.hub
                    ));
                }
            }
        }

        // Wait for the hub. While this pass has work of its own —
        // runnable sessions, replies to send, a shutdown to act on — the
        // socket is only polled. Once everything is parked this wait is
        // the idle park, bounded by the entity's own timers: the
        // pure-ack deadline, the next heartbeat, the hub's silence limit
        // and, while lingering after a shutdown, the trace-flush
        // deadline.
        let mut dropped = false;
        if let Some(ch) = chan.as_mut() {
            let busy = !runnable.is_empty()
                || !outbox.is_empty()
                || (shutdown && sessions.is_empty() && !trace_flushed);
            let timeout = if busy {
                Duration::ZERO
            } else {
                let mut wake = (last_hb + cfg.heartbeat).min(last_heard + cfg.dead_after);
                if let Some(t) = link.ack_due() {
                    wake = wake.min(t);
                }
                if trace_flushed {
                    wake = wake.min(flush_deadline);
                }
                wake.saturating_duration_since(Instant::now())
            };
            let readable = wait_readable(&[ch.conn.raw_fd()], Some(timeout))
                .map_err(|e| format!("place {}: waiting on the hub link: {e}", cfg.place))?;
            inbuf.clear();
            let read = if readable[0] {
                poll_messages_into(&mut ch.conn, &mut ch.dec, &mut inbuf)
            } else {
                Ok(())
            };
            match read {
                Ok(()) => {
                    if !inbuf.is_empty() {
                        last_heard = Instant::now();
                    }
                    for (seq, m) in inbuf.drain(..) {
                        if let Some(m) = link.accept(seq, m) {
                            entity_handle(
                                m,
                                cfg,
                                &mut backend,
                                &occ,
                                &mut sessions,
                                &mut runnable,
                                &mut outcome,
                                &mut shutdown,
                                &mut outbox,
                                &mut obs,
                            );
                        }
                    }
                }
                Err(_) => {
                    link.note_fault();
                    dropped = true;
                }
            }
        }
        if dropped {
            drop_chan(&mut chan, &mut link);
            continue;
        }

        if shutdown && sessions.is_empty() {
            // Ship the flight-recorder tail home: the hub absorbs these
            // chunks into the merged causal log during its drain window.
            // Trace frames are sequenced, so a send that dies mid-flush
            // leaves the rest in the resend buffer — flush exactly once,
            // then linger (reconnect + resume at the loop top) until the
            // hub has acked everything or a bounded deadline passes.
            if !trace_flushed {
                trace_flushed = true;
                flush_deadline = Instant::now() + cfg.dead_after.max(Duration::from_secs(2));
                if let Some(reg) = &obs.registry {
                    // Chunks batch-encode into one (usually) vectored
                    // flush; a flush that dies leaves them sequenced in
                    // the resend buffer for the reconnect below.
                    for chunk in reg.drain_chunks(512) {
                        let m = WireMsg::Trace { chunk };
                        if chan.is_some() {
                            link.queue(m);
                        } else {
                            link.buffer(m);
                        }
                    }
                    let flush_err = match chan.as_mut() {
                        Some(ch) => link.flush(&mut ch.conn).is_err(),
                        None => false,
                    };
                    if flush_err {
                        link.note_fault();
                        drop_chan(&mut chan, &mut link);
                    }
                }
            }
            if link.unacked_len() == 0 || Instant::now() >= flush_deadline {
                // Final cumulative ack so the hub can tell a clean exit
                // (everything delivered) from a dying link.
                if let Some(ch) = chan.as_mut() {
                    let _ = link.maybe_ack(&mut ch.conn, true);
                }
                outcome.link = report_of(&link);
                return Ok(outcome);
            }
        }

        // Interpret runnable sessions, collecting wire traffic.
        let ids: Vec<u64> = runnable.iter().copied().collect();
        runnable.clear();
        for id in ids {
            let Some(s) = sessions.get_mut(&id) else {
                continue;
            };
            if step_session(
                id,
                s,
                cfg,
                &mut backend,
                &occ,
                &mut outcome,
                &mut outbox,
                obs.rec.as_ref(),
            ) {
                runnable.insert(id);
            }
        }

        // Queue this sweep's traffic; everything leaves in one flush.
        if chan.is_some() {
            for m in outbox.drain(..) {
                link.queue(m);
                if link.wants_flush() {
                    if let Some(ch) = chan.as_mut() {
                        if link.flush(&mut ch.conn).is_err() {
                            drop_chan(&mut chan, &mut link);
                        }
                    }
                }
            }
        } else {
            for m in outbox.drain(..) {
                // Control replies (heartbeat acks) are ephemeral — only
                // sequenced traffic is worth carrying across the gap.
                if m.sequenced() {
                    link.buffer(m);
                }
            }
        }
        // Heartbeat + due acks + the sweep flush, then hub-death check.
        if let Some(ch) = chan.as_mut() {
            let now = Instant::now();
            if now.duration_since(last_hb) >= cfg.heartbeat {
                last_hb = now;
                link.queue(WireMsg::Heartbeat {
                    nonce: link.stats.frames_sent,
                });
            }
            let sent_ok =
                link.maybe_ack(&mut ch.conn, false).is_ok() && link.flush(&mut ch.conn).is_ok();
            if !sent_ok {
                link.note_fault();
                drop_chan(&mut chan, &mut link);
                continue;
            }
            if now.duration_since(last_heard) > cfg.dead_after {
                link.note_fault();
                drop_chan(&mut chan, &mut link);
            }
        }
    }
}

/// Tear down the entity's connection, discarding any half-encoded batch
/// (its sequenced frames survive in the resend ring for the resume).
fn drop_chan(chan: &mut Option<Channel>, link: &mut Link) {
    if let Some(ch) = chan.take() {
        ch.conn.shutdown();
    }
    link.discard_batch();
}

/// Connect + handshake + resume, retrying under the backoff schedule
/// until the retry budget is spent or the next attempt would start
/// after `give_up`.
fn entity_connect(
    cfg: &ServeConfig,
    link: &mut Link,
    backoff: &mut Backoff,
    give_up: Option<Instant>,
) -> Result<(Channel, Vec<(u64, WireMsg)>), String> {
    loop {
        match try_connect(cfg, link) {
            Ok(ok) => return Ok(ok),
            Err(e) => match backoff.next_delay() {
                Some(delay) if give_up.is_none_or(|t| Instant::now() + delay < t) => {
                    std::thread::sleep(delay)
                }
                Some(_) => return Err(format!("gave up reconnecting; last error: {e}")),
                None => {
                    return Err(format!(
                        "retry budget ({}) exhausted; last error: {e}",
                        cfg.retry_budget
                    ))
                }
            },
        }
    }
}

fn try_connect(
    cfg: &ServeConfig,
    link: &mut Link,
) -> Result<(Channel, Vec<(u64, WireMsg)>), String> {
    let conn = cfg
        .hub
        .connect(CONNECT_TIMEOUT)
        .map_err(|e| e.to_string())?;
    conn.set_read_timeout(Some(READ_BACKSTOP))
        .map_err(|e| e.to_string())?;
    conn.set_write_timeout(Some(cfg.dead_after))
        .map_err(|e| e.to_string())?;
    let mut chan = Channel::new(conn);
    let hello = WireMsg::Hello {
        place: cfg.place,
        last_seen: link.last_delivered(),
    };
    chan.conn
        .write_all(&hello.encode(0))
        .map_err(|e| e.to_string())?;
    // Wait for the Welcome; frames behind it in the same batch are
    // handed back for normal processing.
    let deadline = Instant::now() + cfg.dead_after;
    loop {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err("no Welcome within the handshake window".to_string());
        }
        if !wait_readable(&[chan.conn.raw_fd()], Some(left)).map_err(|e| e.to_string())?[0] {
            continue;
        }
        let mut batch = poll_messages(&mut chan.conn, &mut chan.dec)
            .map_err(|e| e.to_string())?
            .into_iter();
        if let Some((_, first)) = batch.next() {
            let WireMsg::Welcome { last_seen } = first else {
                return Err(format!("expected Welcome, got {first:?}"));
            };
            link.resume(&mut chan.conn, last_seen)
                .map_err(|e| e.to_string())?;
            return Ok((chan, batch.collect()));
        }
    }
}

/// Dispatch one accepted hub message.
#[allow(clippy::too_many_arguments)]
fn entity_handle(
    msg: WireMsg,
    cfg: &ServeConfig,
    backend: &mut Backend,
    occ: &Arc<Mutex<OccTable>>,
    sessions: &mut BTreeMap<u64, EntSession>,
    runnable: &mut BTreeSet<u64>,
    outcome: &mut ServeOutcome,
    shutdown: &mut bool,
    outbox: &mut Vec<WireMsg>,
    obs: &mut EntObs,
) {
    match msg {
        WireMsg::Open {
            session,
            seed,
            max_steps,
            trace,
        } => {
            obs.ensure(trace, cfg.place);
            if let Some(rec) = &obs.rec {
                rec.record(EventKind::SessionOpen, session, 0, seed, 0);
            }
            let rng = StdRng::seed_from_u64(fx_hash(&(seed, session, cfg.place)));
            sessions.insert(
                session,
                EntSession {
                    state: backend.init(),
                    rng,
                    inbox: BTreeMap::new(),
                    seen: 0,
                    consumed: 0,
                    steps: 0,
                    max_steps,
                    lc: 0,
                },
            );
            runnable.insert(session);
            outcome.sessions_opened += 1;
        }
        WireMsg::Data {
            session,
            mut msg,
            path,
            lc,
        } => {
            // Resolve the canonical site path to this process's local
            // occurrence number; the sender's raw number is meaningless
            // here.
            let Some(s) = sessions.get_mut(&session) else {
                return;
            };
            msg.occ = occ.lock().expect("occ table poisoned").resolve_path(&path);
            s.seen += 1;
            // Lamport merge: everything this session does next is causally
            // after the sender's clock at send time.
            s.lc = s.lc.max(lc);
            s.inbox.entry(msg.from).or_default().push_back(msg);
            runnable.insert(session);
        }
        WireMsg::Close { session, .. } => {
            sessions.remove(&session);
            runnable.remove(&session);
            outcome.sessions_closed += 1;
        }
        WireMsg::Shutdown => {
            *shutdown = true;
        }
        WireMsg::Heartbeat { nonce } => {
            outbox.push(WireMsg::HeartbeatAck { nonce });
        }
        WireMsg::HeartbeatAck { .. } => {}
        other => {
            debug_assert!(false, "unexpected hub message {other:?}");
        }
    }
}

/// Step up to [`SLICE`] moves of one session. Returns `true` when
/// the session still has work (reschedule), `false` when it parked (a
/// `Status` was pushed) .
#[allow(clippy::too_many_arguments)]
fn step_session(
    id: u64,
    s: &mut EntSession,
    cfg: &ServeConfig,
    backend: &mut Backend,
    occ: &Arc<Mutex<OccTable>>,
    outcome: &mut ServeOutcome,
    outbox: &mut Vec<WireMsg>,
    rec: Option<&Recorder>,
) -> bool {
    for _ in 0..SLICE {
        let n_offers = backend.offers(&s.state);
        let mut enabled: Vec<usize> = Vec::with_capacity(n_offers);
        let mut has_delta = false;
        for i in 0..n_offers {
            match backend.offer(i) {
                OfferView::I => enabled.push(i),
                OfferView::Prim { name, place, .. } => {
                    if !cfg
                        .refuse
                        .iter()
                        .any(|(n, p)| n.as_str() == name && *p == place)
                    {
                        enabled.push(i);
                    }
                }
                OfferView::Send { .. } => enabled.push(i),
                OfferView::Recv { from, msg, occ, .. } => {
                    let head_matches = s
                        .inbox
                        .get(&from)
                        .and_then(|q| q.front())
                        .is_some_and(|m| m.id == *msg && m.occ == occ);
                    if head_matches {
                        enabled.push(i);
                    }
                }
                OfferView::Delta => has_delta = true,
            }
        }
        if enabled.is_empty() || s.steps >= s.max_steps {
            park(id, s, has_delta && s.steps < s.max_steps, outbox);
            return false;
        }
        let k = if enabled.len() == 1 {
            0
        } else {
            s.rng.gen_range(0..enabled.len())
        };
        let label = backend.label(enabled[k]);
        s.steps += 1;
        s.lc += 1;
        match label {
            Label::I | Label::Delta => {}
            Label::Prim { name, place } => {
                outcome.primitives += 1;
                if let Some(rec) = rec {
                    rec.record_named(EventKind::Prim, id, s.lc, &name, place as u64);
                }
                outbox.push(WireMsg::Prim {
                    session: id,
                    name,
                    place,
                    lc: s.lc,
                });
            }
            Label::Send {
                to,
                msg,
                occ: o,
                kind,
            } => {
                let path = occ
                    .lock()
                    .expect("occ table poisoned")
                    .path_of(o)
                    .unwrap_or_default();
                let m = Msg {
                    from: cfg.place,
                    to,
                    id: msg,
                    occ: o,
                    kind,
                };
                if let Some(rec) = rec {
                    let (a, b) = pack_msg_event(rec, &m.id, m.occ, m.from, m.to);
                    rec.record(EventKind::MediumSend, id, s.lc, a, b);
                }
                outbox.push(WireMsg::Data {
                    session: id,
                    msg: m,
                    path,
                    lc: s.lc,
                });
            }
            Label::Recv { from, .. } => {
                let q = s.inbox.get_mut(&from).expect("classified enabled");
                let m = q.pop_front().expect("classified enabled");
                if let Some(rec) = rec {
                    let (a, b) = pack_msg_event(rec, &m.id, m.occ, m.from, cfg.place);
                    rec.record(EventKind::MediumRecv, id, s.lc, a, b);
                }
                s.consumed += 1;
            }
        }
        backend.step(&mut s.state, enabled[k]);
    }
    true
}

/// Park a session: report a [`WireMsg::Status`] so the hub can count
/// quiescence.
fn park(id: u64, s: &EntSession, vote: bool, outbox: &mut Vec<WireMsg>) {
    outbox.push(WireMsg::Status {
        session: id,
        seen: s.seen,
        consumed: s.consumed,
        inbox_empty: s.inbox.values().all(|q| q.is_empty()),
        vote,
        blocked: !vote,
        steps: s.steps,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use protogen::Pipeline;

    fn quick(listen: Addr) -> DistributedConfig {
        DistributedConfig {
            listen,
            heartbeat: Duration::from_millis(20),
            dead_after: Duration::from_millis(900),
            reconnect_deadline: Duration::from_millis(1500),
            join_deadline: Duration::from_secs(10),
            stall_timeout: Duration::from_secs(10),
            batch_frames: 128,
            metrics: None,
        }
    }

    fn run_distributed(src: &str, sessions: usize, listen: Addr) -> RuntimeReport {
        let derived = Pipeline::load(src)
            .expect("parse")
            .check()
            .expect("check")
            .derive()
            .expect("derive");
        let d = derived.derivation();
        let cfg = RuntimeConfig::new().sessions(sessions).threads(2).seed(7);
        let dcfg = quick(listen);
        let listener = dcfg.listen.listen().expect("bind");
        let hub_addr = listener.local_addr().expect("local addr");
        let handles: Vec<_> = d
            .entities
            .iter()
            .map(|(p, spec)| {
                let spec = spec.clone();
                let scfg = ServeConfig {
                    heartbeat: Duration::from_millis(20),
                    dead_after: Duration::from_millis(900),
                    ..ServeConfig::new(hub_addr.clone(), *p)
                };
                std::thread::spawn(move || serve_entity(&spec, &scfg))
            })
            .collect();
        let report = run_hub_on(d, &cfg, &dcfg, listener).expect("hub run");
        for h in handles {
            h.join().expect("entity thread").expect("entity outcome");
        }
        report
    }

    #[test]
    fn smoke_over_tcp() {
        let report = run_distributed(
            "SPEC a1; b2; c1; exit ENDSPEC",
            3,
            Addr::Tcp("127.0.0.1:0".to_string()),
        );
        assert_eq!(report.engine, "distributed");
        assert_eq!(report.sessions, 3);
        assert_eq!(
            report.terminated, 3,
            "events: {:?}",
            report.transport_events
        );
        assert!(report.passed(), "events: {:?}", report.transport_events);
    }

    #[test]
    fn smoke_over_uds() {
        let path = std::env::temp_dir().join(format!("pg-hub-{}.sock", std::process::id()));
        let report = run_distributed(
            "SPEC a1; (b2; exit ||| c3; exit) ENDSPEC",
            2,
            Addr::Uds(path),
        );
        assert_eq!(
            report.terminated, 2,
            "events: {:?}",
            report.transport_events
        );
        assert!(report.passed(), "events: {:?}", report.transport_events);
    }
}
