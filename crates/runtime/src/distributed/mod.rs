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
//! ([`semantics::term::OccTable::path_of`]); the receiving entity
//! resolves the path in its own table
//! ([`semantics::term::OccTable::resolve_path`]). Paths are derived
//! from the shared service specification, so they are identical in
//! every process.
//!
//! ## Termination without a shared lock
//!
//! In-process, global quiescence is read under the session mutex. Over
//! sockets the hub counts: every entity reports a
//! [`transport::WireMsg::Status`] when it parks (no enabled move),
//! carrying how many `Data` frames it has *seen* for the session. The
//! hub treats a status as **current** only when `seen` equals its own
//! forwarded count — otherwise data is still in flight and the entity
//! will wake up. When every entity has a current, parked status:
//! all-δ-votes with empty inboxes commits `Terminated`, a hit step
//! budget commits `StepLimit`, anything else is a true `Deadlock`.
//!
//! ## Supervision
//!
//! The hub heartbeats every link and tracks silence. A dead connection
//! opens a reconnect window; an entity that misses it is declared dead:
//! every in-flight session is completed as
//! [`crate::SessionEnd::Aborted`] with a diagnostic `transport_events`
//! entry, survivors get `Close` + `Shutdown`, and the run returns
//! (never hangs) — the CLI maps aborted sessions to its distinct
//! transport exit code. Entity-side,
//! reconnection runs under a seeded exponential backoff with a retry
//! budget ([`transport::Backoff`]); an exhausted budget fails the
//! `serve` process the same way.
//!
//! ## Event loops
//!
//! Each end of a link runs one event loop, driven by readiness, not by
//! timers. Each hub sweep blocks in one `poll(2)`
//! ([`transport::wait_readable`]) over the listener, every connected
//! link and every connection still owing its `Hello`, and reads only
//! what is readable. The wait is zero right after a sweep that moved
//! something; otherwise it lasts until the earliest timer the hub keeps
//! anyway (a pure-ack deadline, a heartbeat, a silence limit, a
//! reconnect or join deadline, the stall check, the drain deadline).
//! The shutdown drain is a phase of the same sweeps, not a loop of its
//! own. An entity polls its one socket without waiting while it has
//! runnable sessions and otherwise blocks until data arrives or its own
//! ack, heartbeat or silence timer is due. Nothing else ever needs to
//! wake either loop, so there is no self-pipe. Each pass reads the
//! clock once after its wait (the hub also once before, for the wait's
//! timeout) and hands that `now` down: [`transport::Link`] reads no
//! clock at all.
//!
//! ## Session slabs
//!
//! Both ends keep their live sessions in a `slab::Slab`: records in
//! slots, an id→slot map and a free list. A closed session's slot is
//! reopened for the next session in place, buffers and all, so a
//! steady run allocates no session records and the hub's window bounds
//! the slots on both ends. Wherever the hub lists sessions (aborts,
//! stall records) it sorts them by id.
//!
//! ## Modules
//!
//! * `hub` — [`run_hub_on`]: the medium, monitor and supervisor, as one
//!   sequence of sweeps that ends with the shutdown drain;
//! * `hub_session` — the hub's record of one session and its verdict;
//! * `slab` — the session slab both ends use;
//! * `link` — the hub's end of each entity link;
//! * `entity` — [`serve_entity`]: one protocol entity, stepping its
//!   sessions through the [`semantics::backend::enabled_offers`] kernel
//!   with the heads of its inboxes as the guard;
//! * `handshake` — `Hello`/`Welcome` (or `Refused`) on both ends of a
//!   connection, and the [`derivation_fingerprint`] a `Hello` carries.
//!
//! Both ends send, flush and drop a connection through the same three
//! helpers (`send`, `flush`, `disconnect`).

mod entity;
mod handshake;
mod hub;
mod hub_session;
mod link;
mod slab;

pub use entity::{serve_entity, ServeConfig, ServeOutcome};
pub use handshake::derivation_fingerprint;
pub use hub::run_hub_on;

use crate::metrics::LinkReport;
use std::time::{Duration, Instant};
use transport::{Addr, Channel, Link, WireMsg};

/// Read timeout set once on every connection. The event loops read a
/// socket only after [`transport::wait_readable`] reports it ready, so a
/// read never waits in practice; this bounds the damage if one ever
/// does.
const READ_BACKSTOP: Duration = Duration::from_millis(10);

/// Queue `msg` on one end of a link for the sweep's flush, writing the
/// batch early once it has grown past its frame budget. While
/// disconnected, sequenced messages wait in the resend buffer for the
/// resume and control traffic is dropped. Returns `false` when a write
/// lost the connection (it is then closed).
fn send(chan: &mut Option<Channel>, link: &mut Link, msg: WireMsg) -> bool {
    let Some(ch) = chan.as_mut() else {
        if msg.sequenced() {
            link.buffer(msg);
        }
        return true;
    };
    link.queue(msg);
    if link.wants_flush() && link.flush(&mut ch.conn).is_err() {
        disconnect(chan, link);
        return false;
    }
    true
}

/// Push a pure ack if one is due at `now` (or owed at all, with
/// `force_ack`), then write the queued batch in one `write_all`.
/// Returns `false` when the write lost the connection (it is then
/// closed).
fn flush(chan: &mut Option<Channel>, link: &mut Link, now: Instant, force_ack: bool) -> bool {
    let Some(ch) = chan.as_mut() else {
        return true;
    };
    if link.maybe_ack(&mut ch.conn, now, force_ack).is_ok() && link.flush(&mut ch.conn).is_ok() {
        return true;
    }
    disconnect(chan, link);
    false
}

/// Close the connection, if there is one, and count the fault. A
/// half-encoded batch dies with the socket; its sequenced frames stay
/// in the resend ring for the resume. Returns whether it was connected.
fn disconnect(chan: &mut Option<Channel>, link: &mut Link) -> bool {
    let Some(ch) = chan.take() else {
        return false;
    };
    ch.conn.shutdown();
    link.discard_batch();
    link.note_fault();
    true
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
    /// serves Prometheus text exposition at `/metrics`, a JSON snapshot
    /// at `/health`, a route index at `/` and, when the run is
    /// recorded, a Chrome-trace snapshot of the merged log at `/trace`.
    /// `None` = no listener.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{RuntimeConfig, RuntimeReport};
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
