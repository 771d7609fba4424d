//! The exported result of a run: [`RuntimeReport`] and the records it
//! carries (sessions, violations, stalls, links, trace metadata).

use super::{GaugeSnapshot, HistSummary, StageBreakdown, Stages};
use crate::config::RuntimeConfig;
use crate::session::SessionEnd;
use lotos::event::SyncKind;
use lotos::place::PlaceId;
use semantics::json::Json;
use semantics::json_obj;
use std::collections::BTreeMap;

/// Version of the [`RuntimeReport`] JSON layout, written as its
/// `schema_version`. Bump on any field rename or semantic change.
/// Version 6 carries the run counters, `config`, `backend`, `per_link`
/// fault/batching counters, `transport_events`, `phases`, `trace`
/// (flight-recorder metadata, `null` when recording is off),
/// `recorder_tails`, per-violation `tail`s, `stages` (per-stage latency
/// summaries), `stalls` (stall-forensics records) and `gauges`.
pub const REPORT_SCHEMA_VERSION: u32 = 6;

/// Flight-recorder metadata embedded in the report when recording was
/// enabled for the run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraceMeta {
    pub trace_id: u64,
    /// Recorder rings that contributed (threads + absorbed processes').
    pub rings: usize,
    /// Events captured over the whole run (including absorbed chunks).
    pub events: u64,
    /// Events that aged out of a ring before export.
    pub dropped: u64,
}

impl TraceMeta {
    pub fn to_json(&self) -> Json {
        json_obj! {
            "trace_id" => self.trace_id,
            "rings" => self.rings,
            "events" => self.events,
            "dropped" => self.dropped,
        }
    }
}

/// Fault and recovery counters of one link, accumulated over a whole
/// run. In-process runs key links by directed channel (`"1->2"`); the
/// distributed runtime keys them by peer place (`"place:2"`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LinkReport {
    /// Frames dropped by fault injection (in-process ARQ links).
    pub lost: usize,
    /// Frames retransmitted: ARQ retransmissions in-process, or
    /// sequence-resumption retransmits over sockets.
    pub retransmissions: usize,
    /// Successful reconnections (distributed links only).
    pub reconnects: usize,
    /// Duplicate frames dropped by the receive filter (distributed).
    pub dup_dropped: usize,
    /// Send/receive failures observed (distributed).
    pub faults: usize,
    /// Coalesced batches flushed (distributed links).
    pub batches: usize,
    /// Payload bytes flushed (distributed links).
    pub bytes_sent: usize,
    /// Acks carried on outgoing data frames (distributed links).
    pub piggybacked_acks: usize,
    /// Median frames per flushed batch (0 when no batch flushed).
    pub frames_per_batch_p50: u32,
    /// 99th-percentile frames per flushed batch.
    pub frames_per_batch_p99: u32,
}

impl LinkReport {
    pub fn to_json(&self) -> Json {
        json_obj! {
            "lost" => self.lost,
            "retransmissions" => self.retransmissions,
            "reconnects" => self.reconnects,
            "dup_dropped" => self.dup_dropped,
            "faults" => self.faults,
            "batches" => self.batches,
            "bytes_sent" => self.bytes_sent,
            "piggybacked_acks" => self.piggybacked_acks,
            "frames_per_batch_p50" => self.frames_per_batch_p50,
            "frames_per_batch_p99" => self.frames_per_batch_p99,
        }
    }
}

/// A conformance violation, with enough context to replay the session.
#[derive(Clone, Debug)]
pub struct ViolationRecord {
    pub session: u64,
    pub seed: u64,
    /// The offending primitive and its place.
    pub primitive: String,
    pub place: PlaceId,
    /// Index of the offending primitive in the session trace.
    pub at: usize,
    /// The full primitive trace of the violating session.
    pub trace: Vec<(String, PlaceId)>,
    /// Flight-recorder tail for the session (rendered timeline lines),
    /// attached automatically when recording was enabled.
    pub tail: Vec<String>,
}

/// Outcome of one session.
#[derive(Clone, Debug)]
pub struct SessionReport {
    pub id: u64,
    pub seed: u64,
    pub end: SessionEnd,
    /// No violation, terminated, and the service allows termination there.
    pub conforms: bool,
    pub violation: Option<(String, PlaceId)>,
    pub primitives: usize,
    pub messages: usize,
    pub steps: usize,
    /// Wall-clock session latency in microseconds.
    pub latency_us: u64,
    /// Stage attribution of `latency_us` (sums to ≤ `latency_us`).
    pub stages: StageBreakdown,
    /// The primitive trace — kept for single-session runs and for
    /// violating sessions; empty otherwise (load runs would hoard memory).
    pub trace: Vec<(String, PlaceId)>,
}

/// The exported result of a [`crate::run`] call.
#[derive(Debug)]
pub struct RuntimeReport {
    /// Which engine ran: `"concurrent"` (threads ≥ 2) or
    /// `"deterministic"` (threads ≤ 1, DES-backed).
    pub engine: &'static str,
    /// Which entity-stepping backend actually ran: `"interpreted"`,
    /// `"compiled"`, or `"mixed"` (an `auto` run that lowered only some
    /// entities). Distinct from `config.backend`, which records what was
    /// *requested*.
    pub backend: &'static str,
    pub config: RuntimeConfig,
    pub sessions: usize,
    pub conforming: usize,
    pub terminated: usize,
    pub deadlocked: usize,
    pub step_limited: usize,
    /// Sessions killed by the runtime (dead transport links).
    pub aborted: usize,
    pub violations: Vec<ViolationRecord>,
    pub primitives: usize,
    pub messages: usize,
    pub delivered: usize,
    pub messages_per_kind: BTreeMap<SyncKind, usize>,
    pub max_queue_depth: usize,
    pub frames_lost: usize,
    pub retransmissions: usize,
    /// Per-link fault/recovery counters (see [`LinkReport`] for keying).
    pub per_link: BTreeMap<String, LinkReport>,
    /// Transport-level diagnostics in occurrence order: reconnects,
    /// declared-dead links, aborts. Empty for in-process runs.
    pub transport_events: Vec<String>,
    /// Wall-clock duration of the whole run, seconds.
    pub wall_s: f64,
    pub sessions_per_sec: f64,
    pub session_latency: HistSummary,
    /// Per-stage latency summaries.
    pub stages: Stages<HistSummary>,
    /// Sessions flagged by stall forensics; capped per run.
    pub stalls: Vec<StallRecord>,
    /// Final queue/backlog gauge snapshot.
    pub gauges: GaugeSnapshot,
    pub per_prim: BTreeMap<String, HistSummary>,
    /// Pipeline phase timings `(phase, milliseconds)` in execution order
    /// (parse/attributes/derive/…), filled by the CLI driver; empty when
    /// the report came from a bare library call.
    pub phases: Vec<(String, f64)>,
    /// Flight-recorder metadata; `None` when recording was off.
    pub trace_meta: Option<TraceMeta>,
    /// Flight-recorder tails of *aborted* sessions (violating sessions
    /// carry theirs on the [`ViolationRecord`]), keyed by session id.
    pub abort_tails: BTreeMap<u64, Vec<String>>,
    /// Per-session outcomes, in completion order.
    pub reports: Vec<SessionReport>,
}

impl RuntimeReport {
    /// Did every session complete and conform?
    pub fn passed(&self) -> bool {
        self.sessions > 0
            && self.conforming == self.sessions
            && self.violations.is_empty()
            && self.aborted == 0
    }

    /// Messages per primitive — the §4.3 overhead ratio, now measured
    /// under load.
    pub fn overhead_ratio(&self) -> f64 {
        if self.primitives == 0 {
            0.0
        } else {
            self.messages as f64 / self.primitives as f64
        }
    }

    /// The report document. Per-session reports are summarized by the
    /// aggregate fields; violations are included in full.
    pub fn to_json(&self) -> Json {
        let violations = self.violations.iter().map(|v| {
            json_obj! {
                "session" => v.session,
                "seed" => v.seed,
                "primitive" => &v.primitive,
                "place" => v.place,
                "at" => v.at,
                "trace" => v.trace.iter().map(|(n, p)| format!("{n}@{p}")).collect::<Json>(),
                "tail" => v.tail.iter().collect::<Json>(),
            }
        });
        json_obj! {
            "schema_version" => REPORT_SCHEMA_VERSION,
            "engine" => self.engine,
            "backend" => self.backend,
            "config" => self.config.to_json(),
            "sessions" => self.sessions,
            "conforming" => self.conforming,
            "terminated" => self.terminated,
            "deadlocked" => self.deadlocked,
            "step_limited" => self.step_limited,
            "aborted" => self.aborted,
            "primitives" => self.primitives,
            "messages" => self.messages,
            "delivered" => self.delivered,
            "overhead_ratio" => self.overhead_ratio(),
            "messages_per_kind" => self
                .messages_per_kind
                .iter()
                .map(|(k, n)| (k.to_string(), Json::from(*n)))
                .collect::<Json>(),
            "max_queue_depth" => self.max_queue_depth,
            "frames_lost" => self.frames_lost,
            "retransmissions" => self.retransmissions,
            "per_link" => self
                .per_link
                .iter()
                .map(|(k, l)| (k.as_str(), l.to_json()))
                .collect::<Json>(),
            "transport_events" => self.transport_events.iter().collect::<Json>(),
            "wall_s" => self.wall_s,
            "sessions_per_sec" => self.sessions_per_sec,
            "session_latency" => self.session_latency.to_json(),
            "stages" => self.stages.to_json(),
            "per_prim" => self
                .per_prim
                .iter()
                .map(|(name, h)| (name.as_str(), h.to_json()))
                .collect::<Json>(),
            "phases" => self
                .phases
                .iter()
                .map(|(name, ms)| (name.as_str(), Json::from(*ms)))
                .collect::<Json>(),
            "trace" => self.trace_meta.map(|t| t.to_json()),
            "recorder_tails" => self
                .abort_tails
                .iter()
                .map(|(session, lines)| (session.to_string(), lines.iter().collect::<Json>()))
                .collect::<Json>(),
            "stalls" => self.stalls.iter().map(StallRecord::to_json).collect::<Json>(),
            "gauges" => self.gauges.to_json(),
            "violations" => violations.collect::<Json>(),
        }
    }
}

/// Forensic capture of one session that exceeded the stall deadline —
/// enough context to explain *why* it was slow, not just that it was.
#[derive(Clone, Debug)]
pub struct StallRecord {
    pub session: u64,
    /// Session age when flagged (µs).
    pub age_us: u64,
    /// The deadline it exceeded (µs), configured or p99-derived.
    pub deadline_us: u64,
    /// Partial stage attribution at capture time.
    pub stages: StageBreakdown,
    /// Per-entity backend progress as `(entity index, state)`: locally
    /// the backend `BState` id of the entity's most recent move; on the
    /// hub the entity's cumulative reported steps.
    pub entity_state: Vec<(u32, u64)>,
    /// Queue/backlog gauges at capture time.
    pub gauges: GaugeSnapshot,
    /// Flight-recorder tail (rendered timeline lines); empty when
    /// recording was off.
    pub tail: Vec<String>,
}

impl StallRecord {
    pub fn to_json(&self) -> Json {
        json_obj! {
            "session" => self.session,
            "age_us" => self.age_us,
            "deadline_us" => self.deadline_us,
            "stages" => self.stages.to_json(),
            "entity_state" => self
                .entity_state
                .iter()
                .map(|&(e, s)| Json::Arr(vec![e.into(), s.into()]))
                .collect::<Json>(),
            "gauges" => self.gauges.to_json(),
            "tail" => self.tail.iter().collect::<Json>(),
        }
    }
}
