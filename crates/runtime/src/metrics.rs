//! Observability: lock-free counters, log-scale latency histograms, and
//! the JSON [`RuntimeReport`].
//!
//! Engines count per session (see [`crate::session::SessionCounts`]) and
//! fold each session into the shared atomics once, when it closes — no
//! shared counter is written per move. The per-primitive histograms are
//! *prebuilt* from the service specification before any thread starts,
//! one per name of the run's [`PrimTable`], so recording a primitive
//! latency is an atomic add into the histogram at the primitive's id,
//! never a map lookup.

use crate::config::RuntimeConfig;
use crate::session::{SessionCounts, SessionEnd};
use lotos::ast::Spec;
use lotos::event::SyncKind;
use lotos::place::PlaceId;
use semantics::backend::PrimTable;
use semantics::json::Json;
use semantics::json_obj;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Log₂ histogram with 4 sub-buckets per octave (≈ 19% bucket width),
/// atomic throughout. Values are microseconds.
#[derive(Debug)]
pub struct Histogram {
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

const SUB: usize = 4;
const BUCKETS: usize = 64 * SUB;

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    pub fn new() -> Histogram {
        Histogram {
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    fn bucket_of(v: u64) -> usize {
        let v = v.max(1);
        let e = 63 - v.leading_zeros() as usize;
        let frac = if e >= 2 {
            (v >> (e - 2)) as usize & 3
        } else {
            0
        };
        (e * SUB + frac).min(BUCKETS - 1)
    }

    /// Representative (lower-bound) value of bucket `i`.
    fn bucket_value(i: usize) -> f64 {
        let e = (i / SUB) as i32;
        let frac = (i % SUB) as f64;
        2f64.powi(e) * (1.0 + frac / SUB as f64)
    }

    pub fn record(&self, v: u64) {
        self.buckets[Self::bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// The value at quantile `q` (0 ≤ q ≤ 1), approximated to bucket
    /// resolution; `0` when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        let n = self.count();
        if n == 0 {
            return 0.0;
        }
        let target = ((q * n as f64).ceil() as u64).clamp(1, n);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= target {
                return Self::bucket_value(i);
            }
        }
        self.max.load(Ordering::Relaxed) as f64
    }

    /// Sum of all recorded values.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Snapshot for reporting.
    pub fn summary(&self) -> HistSummary {
        let count = self.count();
        let sum = self.sum.load(Ordering::Relaxed);
        HistSummary {
            count,
            mean: if count == 0 {
                0.0
            } else {
                sum as f64 / count as f64
            },
            p50: self.quantile(0.50),
            p90: self.quantile(0.90),
            p99: self.quantile(0.99),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// A rendered histogram snapshot (microseconds).
#[derive(Clone, Copy, Debug, Default)]
pub struct HistSummary {
    pub count: u64,
    pub mean: f64,
    pub p50: f64,
    pub p90: f64,
    pub p99: f64,
    pub max: u64,
}

impl HistSummary {
    pub fn to_json(&self) -> Json {
        json_obj! {
            "count" => self.count,
            "mean_us" => self.mean,
            "p50_us" => self.p50,
            "p90_us" => self.p90,
            "p99_us" => self.p99,
            "max_us" => self.max,
        }
    }
}

/// Decomposition of one session's end-to-end latency into pipeline
/// stages (all microseconds):
///
/// * `queue_wait` — session open to its first executed entity move
///   (multiplexer admission + scheduler pickup);
/// * `step` — time actually spent executing entity moves under the
///   session lock;
/// * `notify_wait` — scheduler wake-up and blocked-on-peer time;
/// * `wire` — frames in flight between processes (distributed runs
///   only; exactly 0 for in-process engines).
///
/// Built through [`StageBreakdown::attribute`], which clamps each
/// component so `sum_us() ≤` the end-to-end latency by construction.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StageBreakdown {
    pub queue_wait_us: u64,
    pub step_us: u64,
    pub notify_wait_us: u64,
    pub wire_us: u64,
}

impl StageBreakdown {
    /// Clamp raw stage measurements into a breakdown whose sum never
    /// exceeds `e2e_us`. Components are trimmed in order (queue, step,
    /// wire); `notify` is the measured wake-up time when given,
    /// otherwise the residual — local engines measure queue and step
    /// directly and attribute the rest to scheduler wake-up.
    pub fn attribute(
        e2e_us: u64,
        queue: u64,
        step: u64,
        wire: u64,
        notify: Option<u64>,
    ) -> StageBreakdown {
        let queue_wait_us = queue.min(e2e_us);
        let step_us = step.min(e2e_us - queue_wait_us);
        let wire_us = wire.min(e2e_us - queue_wait_us - step_us);
        let rem = e2e_us - queue_wait_us - step_us - wire_us;
        let notify_wait_us = match notify {
            Some(n) => n.min(rem),
            None => rem,
        };
        StageBreakdown {
            queue_wait_us,
            step_us,
            notify_wait_us,
            wire_us,
        }
    }

    pub fn sum_us(&self) -> u64 {
        self.queue_wait_us + self.step_us + self.notify_wait_us + self.wire_us
    }

    pub fn to_json(&self) -> Json {
        json_obj! {
            "queue_wait_us" => self.queue_wait_us,
            "step_us" => self.step_us,
            "notify_wait_us" => self.notify_wait_us,
            "wire_us" => self.wire_us,
        }
    }
}

/// One log₂ [`Histogram`] per latency stage, fed at session completion.
#[derive(Debug, Default)]
pub struct StageSet {
    pub queue_wait: Histogram,
    pub step: Histogram,
    pub notify_wait: Histogram,
    pub wire: Histogram,
}

impl StageSet {
    pub fn record(&self, b: &StageBreakdown) {
        self.queue_wait.record(b.queue_wait_us);
        self.step.record(b.step_us);
        self.notify_wait.record(b.notify_wait_us);
        self.wire.record(b.wire_us);
    }

    /// `(stage label, histogram)` pairs in canonical order.
    pub fn all(&self) -> [(&'static str, &Histogram); 4] {
        [
            ("queue_wait", &self.queue_wait),
            ("step", &self.step),
            ("notify_wait", &self.notify_wait),
            ("wire", &self.wire),
        ]
    }

    pub fn summaries(&self) -> StageSummaries {
        StageSummaries {
            queue_wait: self.queue_wait.summary(),
            step: self.step.summary(),
            notify_wait: self.notify_wait.summary(),
            wire: self.wire.summary(),
        }
    }
}

/// Rendered per-stage summaries for the report (the `stages` object).
#[derive(Clone, Copy, Debug, Default)]
pub struct StageSummaries {
    pub queue_wait: HistSummary,
    pub step: HistSummary,
    pub notify_wait: HistSummary,
    pub wire: HistSummary,
}

impl StageSummaries {
    pub fn to_json(&self) -> Json {
        json_obj! {
            "queue_wait" => self.queue_wait.to_json(),
            "step" => self.step.to_json(),
            "notify_wait" => self.notify_wait.to_json(),
            "wire" => self.wire.to_json(),
        }
    }
}

/// Point-in-time queue/backlog gauges: multiplexer window
/// occupancy, hub link outbound backlog, and batch-buffer-pool
/// utilization.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct GaugeSnapshot {
    /// Sessions currently in flight in the multiplexer window.
    pub window_occupancy: usize,
    /// The window's capacity (threads × pipeline depth).
    pub window_size: usize,
    /// Frames queued or awaiting ack summed over all hub links.
    pub link_backlog_frames: usize,
    /// Free batch buffers summed over all hub link pools.
    pub pool_bufs_free: usize,
    /// Total batch buffers summed over all hub link pools.
    pub pool_bufs_total: usize,
    /// Per-link outbound backlog (queued + unacked frames), keyed like
    /// `per_link` (`"place:2"`). Empty for in-process runs.
    pub per_link_backlog: BTreeMap<String, u64>,
}

impl GaugeSnapshot {
    pub fn capture(m: &Metrics) -> GaugeSnapshot {
        GaugeSnapshot {
            window_occupancy: m.window_occupancy.load(Ordering::Relaxed),
            window_size: m.window_size.load(Ordering::Relaxed),
            link_backlog_frames: m.link_backlog_frames.load(Ordering::Relaxed),
            pool_bufs_free: m.pool_bufs_free.load(Ordering::Relaxed),
            pool_bufs_total: m.pool_bufs_total.load(Ordering::Relaxed),
            per_link_backlog: m
                .link_backlogs
                .lock()
                .map(|g| g.clone())
                .unwrap_or_default(),
        }
    }

    pub fn to_json(&self) -> Json {
        json_obj! {
            "window_occupancy" => self.window_occupancy,
            "window_size" => self.window_size,
            "link_backlog_frames" => self.link_backlog_frames,
            "pool_bufs_free" => self.pool_bufs_free,
            "pool_bufs_total" => self.pool_bufs_total,
            "per_link_backlog" => self
                .per_link_backlog
                .iter()
                .map(|(k, v)| (k.as_str(), Json::from(*v)))
                .collect::<Json>(),
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

/// Shared live counters — everything entity threads touch is atomic.
#[derive(Debug)]
pub struct Metrics {
    pub sessions_completed: AtomicUsize,
    pub primitives: AtomicUsize,
    pub messages_sent: AtomicUsize,
    pub messages_delivered: AtomicUsize,
    pub internal_actions: AtomicUsize,
    /// High-water mark over all sessions and channels.
    pub max_queue_depth: AtomicUsize,
    pub frames_lost: AtomicUsize,
    pub retransmissions: AtomicUsize,
    /// Coalesced transport batches flushed (distributed hub links).
    pub batches_sent: AtomicUsize,
    /// Payload bytes flushed over distributed links.
    pub bytes_sent: AtomicUsize,
    /// Cumulative acks that rode on outgoing data frames instead of
    /// costing a dedicated `Ack` frame (piggybacking).
    pub piggybacked_acks: AtomicUsize,
    /// End-to-end session latency (wall µs).
    pub session_latency: Histogram,
    /// Per-stage session latency attribution (wall µs).
    pub stages: StageSet,
    /// Multiplexer in-flight window occupancy (live sessions).
    pub window_occupancy: AtomicUsize,
    /// Multiplexer in-flight window capacity.
    pub window_size: AtomicUsize,
    /// Frames queued or awaiting ack, summed over all hub links.
    pub link_backlog_frames: AtomicUsize,
    /// Free batch buffers summed over all hub link pools.
    pub pool_bufs_free: AtomicUsize,
    /// Total batch buffers summed over all hub link pools.
    pub pool_bufs_total: AtomicUsize,
    /// Per-link outbound backlog for labeled exposition, refreshed by
    /// the hub on a throttle — the hot path never touches this lock.
    pub link_backlogs: Mutex<BTreeMap<String, u64>>,
    /// The service's primitive names; `per_prim[k]` belongs to id `k`.
    pub prims: PrimTable,
    /// Per-primitive inter-arrival latency (wall µs between consecutive
    /// primitives of a session), indexed by primitive id. Prebuilt — see
    /// the module docs.
    pub per_prim: Vec<Histogram>,
}

impl Metrics {
    /// Build with one histogram per primitive name of `service`.
    pub fn for_service(service: &Spec) -> Metrics {
        let prims = PrimTable::of_spec(service);
        let per_prim = prims.names().map(|_| Histogram::new()).collect();
        Metrics {
            sessions_completed: AtomicUsize::new(0),
            primitives: AtomicUsize::new(0),
            messages_sent: AtomicUsize::new(0),
            messages_delivered: AtomicUsize::new(0),
            internal_actions: AtomicUsize::new(0),
            max_queue_depth: AtomicUsize::new(0),
            frames_lost: AtomicUsize::new(0),
            retransmissions: AtomicUsize::new(0),
            batches_sent: AtomicUsize::new(0),
            bytes_sent: AtomicUsize::new(0),
            piggybacked_acks: AtomicUsize::new(0),
            session_latency: Histogram::new(),
            stages: StageSet::default(),
            window_occupancy: AtomicUsize::new(0),
            window_size: AtomicUsize::new(0),
            link_backlog_frames: AtomicUsize::new(0),
            pool_bufs_free: AtomicUsize::new(0),
            pool_bufs_total: AtomicUsize::new(0),
            link_backlogs: Mutex::new(BTreeMap::new()),
            prims,
            per_prim,
        }
    }

    /// Fold one closed session in: its counters, its primitives, and the
    /// inter-arrival gap before each (`gaps` is parallel to `trace`, or
    /// empty when the engine does not measure gaps). Primitive ids past
    /// the service's table have no histogram.
    pub fn fold_session(&self, counts: &SessionCounts, trace: &[(u32, PlaceId)], gaps: &[u64]) {
        self.primitives.fetch_add(trace.len(), Ordering::Relaxed);
        self.messages_sent.fetch_add(counts.sent, Ordering::Relaxed);
        self.messages_delivered
            .fetch_add(counts.delivered, Ordering::Relaxed);
        self.internal_actions
            .fetch_add(counts.internal, Ordering::Relaxed);
        self.max_queue_depth
            .fetch_max(counts.max_depth, Ordering::Relaxed);
        for (&(prim, _), &gap) in trace.iter().zip(gaps) {
            if let Some(h) = self.per_prim.get(prim as usize) {
                h.record(gap);
            }
        }
    }

    /// The per-primitive histograms with their names, sorted by name.
    pub fn per_prim_by_name(&self) -> Vec<(&str, &Histogram)> {
        let mut out: Vec<(&str, &Histogram)> = self.prims.names().zip(&self.per_prim).collect();
        out.sort_by_key(|&(name, _)| name);
        out
    }

    /// Render the live counters in Prometheus text exposition format
    /// (version 0.0.4) — what the hub's `--metrics` endpoint serves.
    /// Histograms export as summaries (the buckets are log-scale
    /// internal detail; quantiles are what dashboards want).
    pub fn to_prometheus(&self) -> String {
        let mut out = String::with_capacity(1024);
        let counters: [(&str, &str, usize); 16] = [
            (
                "protogen_sessions_completed_total",
                "Sessions driven to a verdict",
                self.sessions_completed.load(Ordering::Relaxed),
            ),
            (
                "protogen_primitives_total",
                "Service primitives executed",
                self.primitives.load(Ordering::Relaxed),
            ),
            (
                "protogen_messages_sent_total",
                "Synchronization messages sent into the medium",
                self.messages_sent.load(Ordering::Relaxed),
            ),
            (
                "protogen_messages_delivered_total",
                "Synchronization messages delivered",
                self.messages_delivered.load(Ordering::Relaxed),
            ),
            (
                "protogen_internal_actions_total",
                "Internal (hidden) actions executed",
                self.internal_actions.load(Ordering::Relaxed),
            ),
            (
                "protogen_frames_lost_total",
                "Frames dropped by fault injection",
                self.frames_lost.load(Ordering::Relaxed),
            ),
            (
                "protogen_retransmissions_total",
                "Frames retransmitted by recovery",
                self.retransmissions.load(Ordering::Relaxed),
            ),
            (
                "protogen_batches_sent_total",
                "Coalesced transport batches flushed",
                self.batches_sent.load(Ordering::Relaxed),
            ),
            (
                "protogen_bytes_sent_total",
                "Payload bytes flushed over distributed links",
                self.bytes_sent.load(Ordering::Relaxed),
            ),
            (
                "protogen_piggybacked_acks_total",
                "Acks carried on outgoing data frames",
                self.piggybacked_acks.load(Ordering::Relaxed),
            ),
            (
                "protogen_max_queue_depth",
                "High-water mark of medium queue depth",
                self.max_queue_depth.load(Ordering::Relaxed),
            ),
            (
                "protogen_window_occupancy",
                "Sessions in flight in the multiplexer window",
                self.window_occupancy.load(Ordering::Relaxed),
            ),
            (
                "protogen_window_size",
                "Multiplexer in-flight window capacity",
                self.window_size.load(Ordering::Relaxed),
            ),
            (
                "protogen_link_backlog_frames",
                "Frames queued or awaiting ack over all hub links",
                self.link_backlog_frames.load(Ordering::Relaxed),
            ),
            (
                "protogen_pool_bufs_free",
                "Free batch buffers over all hub link pools",
                self.pool_bufs_free.load(Ordering::Relaxed),
            ),
            (
                // Not `_total`: that suffix marks counters, and this is
                // a configured-capacity gauge.
                "protogen_pool_bufs_capacity",
                "Configured batch buffers over all hub link pools",
                self.pool_bufs_total.load(Ordering::Relaxed),
            ),
        ];
        for (name, help, value) in counters {
            let kind = if name.ends_with("_total") {
                "counter"
            } else {
                "gauge"
            };
            out.push_str(&format!(
                "# HELP {name} {help}\n# TYPE {name} {kind}\n{name} {value}\n"
            ));
        }
        push_summary(
            &mut out,
            "protogen_session_latency_us",
            "End-to-end session latency",
            None,
            &self.session_latency,
        );
        for (prim, h) in self.per_prim_by_name() {
            push_summary(
                &mut out,
                "protogen_primitive_latency_us",
                "Inter-arrival latency per primitive",
                Some(prim),
                h,
            );
        }
        push_histogram(
            &mut out,
            "protogen_session_latency_hist_us",
            "End-to-end session latency (native histogram)",
            None,
            &self.session_latency,
        );
        for (stage, h) in self.stages.all() {
            push_histogram(
                &mut out,
                "protogen_stage_latency_us",
                "Per-stage session latency attribution",
                Some(("stage", stage)),
                h,
            );
        }
        let backlogs = self
            .link_backlogs
            .lock()
            .map(|g| g.clone())
            .unwrap_or_default();
        if !backlogs.is_empty() {
            out.push_str(
                "# HELP protogen_link_outbound_backlog_frames Queued + unacked frames per hub link\n\
                 # TYPE protogen_link_outbound_backlog_frames gauge\n",
            );
            for (link, frames) in &backlogs {
                out.push_str(&format!(
                    "protogen_link_outbound_backlog_frames{{link=\"{link}\"}} {frames}\n"
                ));
            }
        }
        out
    }

    /// The `/health` JSON document — a compact live snapshot for
    /// `protogen top` and external probes: throughput, per-stage
    /// latency summaries (rendered as the report's `stages`), and
    /// queue/backlog gauges.
    pub fn health_json(&self, uptime_s: f64) -> Json {
        let sessions = self.sessions_completed.load(Ordering::Relaxed);
        let rate = if uptime_s > 0.0 {
            sessions as f64 / uptime_s
        } else {
            0.0
        };
        json_obj! {
            "status" => "ok",
            "uptime_s" => uptime_s,
            "sessions_completed" => sessions,
            "sessions_per_sec" => rate,
            "primitives" => self.primitives.load(Ordering::Relaxed),
            "messages_sent" => self.messages_sent.load(Ordering::Relaxed),
            "session_p50_us" => self.session_latency.quantile(0.50),
            "session_p99_us" => self.session_latency.quantile(0.99),
            "stages" => self.stages.summaries().to_json(),
            "gauges" => GaugeSnapshot::capture(self).to_json(),
            "batches_sent" => self.batches_sent.load(Ordering::Relaxed),
            "bytes_sent" => self.bytes_sent.load(Ordering::Relaxed),
        }
    }
}

fn push_summary(out: &mut String, name: &str, help: &str, label: Option<&str>, h: &Histogram) {
    if !out.contains(&format!("# TYPE {name} ")) {
        out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} summary\n"));
    }
    let tag = |q: &str| match label {
        Some(l) => format!("{{primitive=\"{l}\",quantile=\"{q}\"}}"),
        None => format!("{{quantile=\"{q}\"}}"),
    };
    let suffix = match label {
        Some(l) => format!("{{primitive=\"{l}\"}}"),
        None => String::new(),
    };
    for (q, v) in [
        ("0.5", h.quantile(0.50)),
        ("0.9", h.quantile(0.90)),
        ("0.99", h.quantile(0.99)),
    ] {
        out.push_str(&format!("{name}{} {v:.1}\n", tag(q)));
    }
    out.push_str(&format!("{name}_sum{suffix} {}\n", h.sum()));
    out.push_str(&format!("{name}_count{suffix} {}\n", h.count()));
}

/// Highest power-of-two `le` boundary exposed by [`push_histogram`]:
/// 2^26 µs ≈ 67 s; anything slower lands in `+Inf`.
const HIST_MAX_EXP: usize = 26;

/// Render `h` as a native Prometheus `histogram` family with cumulative
/// power-of-two `le` boundaries derived from the log₂ octaves. The
/// boundary `le = 2^k` accumulates every sub-bucket up to and including
/// the octave-k origin bucket — consistent with the lower-bound
/// representative convention of [`Histogram::quantile`].
fn push_histogram(
    out: &mut String,
    name: &str,
    help: &str,
    label: Option<(&str, &str)>,
    h: &Histogram,
) {
    if !out.contains(&format!("# TYPE {name} ")) {
        out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} histogram\n"));
    }
    let tag = |le: &str| match label {
        Some((k, v)) => format!("{{{k}=\"{v}\",le=\"{le}\"}}"),
        None => format!("{{le=\"{le}\"}}"),
    };
    let suffix = match label {
        Some((k, v)) => format!("{{{k}=\"{v}\"}}"),
        None => String::new(),
    };
    let mut cum = 0u64;
    let mut next = 0usize;
    for k in 0..=HIST_MAX_EXP {
        while next <= k * SUB {
            cum += h.buckets[next].load(Ordering::Relaxed);
            next += 1;
        }
        out.push_str(&format!(
            "{name}_bucket{} {cum}\n",
            tag(&(1u64 << k).to_string())
        ));
    }
    // `count` is bumped after the bucket in `record`; clamp so `+Inf`
    // stays monotone when a scrape races a recording thread.
    let total = h.count().max(cum);
    out.push_str(&format!("{name}_bucket{} {total}\n", tag("+Inf")));
    out.push_str(&format!("{name}_sum{suffix} {}\n", h.sum()));
    out.push_str(&format!("{name}_count{suffix} {total}\n"));
}

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
    pub stages: StageSummaries,
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_are_ordered() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let s = h.summary();
        assert_eq!(s.count, 1000);
        assert!(s.p50 <= s.p90 && s.p90 <= s.p99);
        assert!(s.p50 >= 400.0 && s.p50 <= 640.0, "p50 = {}", s.p50);
        assert_eq!(s.max, 1000);
    }

    #[test]
    fn histogram_empty_is_zero() {
        let h = Histogram::new();
        let s = h.summary();
        assert_eq!(s.count, 0);
        assert_eq!(s.p99, 0.0);
    }

    #[test]
    fn histogram_bucket_monotone() {
        let mut last = 0;
        for v in [1u64, 2, 3, 5, 9, 100, 1 << 20, u64::MAX] {
            let b = Histogram::bucket_of(v);
            assert!(b >= last, "bucket({v}) regressed");
            last = b;
        }
    }

    /// `bucket_value` is a fixed point of `bucket_of`: mapping a value
    /// to its bucket and back lands in the same bucket, and the
    /// representative never exceeds the value it stands for by more
    /// than one sub-bucket width (≈ 25%).
    #[test]
    fn histogram_bucket_of_and_value_round_trip() {
        for v in [
            1u64,
            2,
            3,
            4,
            5,
            7,
            8,
            15,
            16,
            100,
            1000,
            4097,
            1 << 30,
            1 << 62,
        ] {
            let b = Histogram::bucket_of(v);
            let rep = Histogram::bucket_value(b);
            assert_eq!(
                Histogram::bucket_of(rep as u64),
                b,
                "representative of bucket {b} (value {v}) maps elsewhere"
            );
            assert!(
                rep <= v as f64 && v as f64 <= rep * 1.25 + 1.0,
                "value {v} not within its bucket [{rep}, {})",
                rep * 1.25
            );
        }
    }

    /// Quantile extraction is monotone in q — p50 ≤ p99 on every shape,
    /// including heavily skewed ones.
    #[test]
    fn histogram_percentiles_monotone_in_q() {
        let shapes: [&[u64]; 3] = [
            &[1, 1, 1, 1, 1000],
            &[5; 100],
            &[1, 10, 100, 1000, 10_000, 100_000],
        ];
        for values in shapes {
            let h = Histogram::new();
            for &v in values {
                h.record(v);
            }
            let mut last = 0.0f64;
            for q in [0.0, 0.1, 0.5, 0.9, 0.99, 1.0] {
                let at = h.quantile(q);
                assert!(at >= last, "quantile({q}) = {at} < {last} on {values:?}");
                last = at;
            }
        }
    }

    /// Values beyond the last octave saturate into the top bucket
    /// rather than indexing out of bounds, and the quantile falls back
    /// to the exact recorded max.
    #[test]
    fn histogram_saturates_at_top_bucket() {
        assert_eq!(Histogram::bucket_of(u64::MAX), BUCKETS - 1);
        // 2^63 has zero fraction bits: first sub-bucket of the top octave.
        assert_eq!(Histogram::bucket_of(1 << 63), BUCKETS - SUB);
        let h = Histogram::new();
        h.record(u64::MAX);
        h.record(u64::MAX - 1);
        assert_eq!(h.count(), 2);
        assert_eq!(h.summary().max, u64::MAX);
        assert!(h.quantile(0.99) > 0.0);
    }

    #[test]
    fn prometheus_exposition_has_counters_and_summaries() {
        let spec = lotos::parser::parse_spec("SPEC conreq1; conind2; exit ENDSPEC").unwrap();
        let m = Metrics::for_service(&spec);
        m.sessions_completed.store(12, Ordering::Relaxed);
        // One session whose only primitive, conreq, came 40 µs in.
        let conreq = m.prims.id("conreq").unwrap();
        m.fold_session(&SessionCounts::default(), &[(conreq, 1)], &[40]);
        m.session_latency.record(900);
        let text = m.to_prometheus();
        assert!(text.contains("# TYPE protogen_sessions_completed_total counter"));
        assert!(text.contains("protogen_sessions_completed_total 12"));
        assert!(text.contains("# TYPE protogen_session_latency_us summary"));
        assert!(text.contains("protogen_session_latency_us_count 1"));
        assert!(
            text.contains("protogen_primitive_latency_us{primitive=\"conreq\",quantile=\"0.5\"}")
        );
        assert!(text.contains("protogen_primitive_latency_us_count{primitive=\"conreq\"} 1"));
        // One TYPE line per metric family, even with several primitives.
        assert_eq!(
            text.matches("# TYPE protogen_primitive_latency_us ")
                .count(),
            1
        );
    }

    fn sample_report() -> RuntimeReport {
        let mut per_link = BTreeMap::new();
        per_link.insert(
            "1->2".to_string(),
            LinkReport {
                lost: 3,
                retransmissions: 5,
                reconnects: 1,
                dup_dropped: 2,
                faults: 4,
                batches: 6,
                bytes_sent: 4096,
                piggybacked_acks: 9,
                frames_per_batch_p50: 7,
                frames_per_batch_p99: 31,
            },
        );
        RuntimeReport {
            engine: "concurrent",
            backend: "compiled",
            config: RuntimeConfig::new(),
            sessions: 7,
            conforming: 6,
            terminated: 5,
            deadlocked: 1,
            step_limited: 0,
            aborted: 1,
            violations: Vec::new(),
            primitives: 10,
            messages: 20,
            delivered: 19,
            messages_per_kind: BTreeMap::new(),
            max_queue_depth: 4,
            frames_lost: 3,
            retransmissions: 5,
            per_link,
            transport_events: vec!["link place:2 declared dead".to_string()],
            wall_s: 0.5,
            sessions_per_sec: 14.0,
            session_latency: HistSummary::default(),
            stages: StageSummaries::default(),
            stalls: vec![StallRecord {
                session: 3,
                age_us: 5000,
                deadline_us: 2000,
                stages: StageBreakdown {
                    queue_wait_us: 100,
                    step_us: 200,
                    notify_wait_us: 300,
                    wire_us: 400,
                },
                entity_state: vec![(0, 7), (1, 9)],
                gauges: GaugeSnapshot::default(),
                tail: vec!["lc=3 place=1 prim a@1".to_string()],
            }],
            gauges: GaugeSnapshot {
                window_occupancy: 5,
                window_size: 128,
                link_backlog_frames: 11,
                pool_bufs_free: 6,
                pool_bufs_total: 8,
                per_link_backlog: BTreeMap::from([("place:2".to_string(), 11u64)]),
            },
            per_prim: BTreeMap::new(),
            phases: vec![("parse".to_string(), 1.25), ("derive".to_string(), 3.5)],
            trace_meta: Some(TraceMeta {
                trace_id: 77,
                rings: 3,
                events: 420,
                dropped: 0,
            }),
            abort_tails: BTreeMap::from([(4u64, vec!["lc=9 place=1 prim a@1".to_string()])]),
            reports: Vec::new(),
        }
    }

    #[test]
    fn report_json_round_trips_schema_and_link_counters() {
        let report = sample_report();
        let json = Json::parse(&report.to_json().to_string()).unwrap();
        assert_eq!(
            json["schema_version"].as_u64(),
            Some(REPORT_SCHEMA_VERSION as u64)
        );
        assert_eq!(json["aborted"].as_u64(), Some(1));
        // The per-link map survives with its counters intact, batching
        // counters included.
        let link = &json["per_link"]["1->2"];
        for (key, want) in [
            ("reconnects", 1),
            ("dup_dropped", 2),
            ("faults", 4),
            ("batches", 6),
            ("bytes_sent", 4096),
            ("piggybacked_acks", 9),
            ("frames_per_batch_p50", 7),
            ("frames_per_batch_p99", 31),
        ] {
            assert_eq!(link[key].as_u64(), Some(want), "{key}");
        }
        assert_eq!(
            json["transport_events"][0].as_str(),
            Some("link place:2 declared dead")
        );
        // An aborted session fails the run even with zero violations.
        assert!(!report.passed());
        // Backend, phases and recorder metadata are machine-readable.
        assert_eq!(json["backend"].as_str(), Some("compiled"));
        assert_eq!(
            json["phases"],
            Json::Obj(vec![
                ("parse".to_string(), Json::F64(1.25)),
                ("derive".to_string(), Json::F64(3.5)),
            ])
        );
        assert_eq!(json["trace"]["trace_id"].as_u64(), Some(77));
        assert_eq!(json["trace"]["events"].as_u64(), Some(420));
        assert_eq!(
            json["recorder_tails"]["4"][0].as_str(),
            Some("lc=9 place=1 prim a@1")
        );
        // Stage summaries, stall records, gauges.
        assert_eq!(json["stages"]["queue_wait"]["count"].as_u64(), Some(0));
        let stall = &json["stalls"][0];
        assert_eq!(stall["age_us"].as_u64(), Some(5000));
        assert_eq!(stall["deadline_us"].as_u64(), Some(2000));
        assert_eq!(stall["entity_state"].to_string(), "[[0,7],[1,9]]");
        let gauges = &json["gauges"];
        assert_eq!(gauges["window_occupancy"].as_u64(), Some(5));
        assert_eq!(gauges["pool_bufs_total"].as_u64(), Some(8));
        assert_eq!(gauges["per_link_backlog"]["place:2"].as_u64(), Some(11));
    }

    /// A primitive name arrives from a socket peer, so quotes, newlines
    /// and backslashes in it (or in event text) must be escaped, never
    /// written raw into the report: the document parses, and every
    /// string reads back exactly.
    #[test]
    fn report_json_escapes_peer_supplied_strings() {
        let mut report = sample_report();
        report.violations.push(ViolationRecord {
            session: 2,
            seed: 9,
            primitive: "a\"b\n".to_string(),
            place: 1,
            at: 0,
            trace: vec![("a\"b\n".to_string(), 1)],
            tail: vec!["recv C:\\tmp".to_string()],
        });
        report
            .transport_events
            .push("peer said \"bye\\\"".to_string());
        let text = report.to_json().to_string();
        assert!(!text.contains('\n'), "{text}");
        let json = Json::parse(&text).unwrap();
        let v = &json["violations"][0];
        assert_eq!(v["primitive"].as_str(), Some("a\"b\n"));
        assert_eq!(v["trace"][0].as_str(), Some("a\"b\n@1"));
        assert_eq!(v["tail"][0].as_str(), Some("recv C:\\tmp"));
        assert_eq!(
            json["transport_events"][1].as_str(),
            Some("peer said \"bye\\\"")
        );
    }

    /// `attribute` clamps components in order so the stage sum never
    /// exceeds the end-to-end latency, whatever the raw measurements.
    #[test]
    fn stage_attribution_clamps_to_e2e() {
        // Local shape: measured queue + step, residual notify.
        let b = StageBreakdown::attribute(1000, 200, 300, 0, None);
        assert_eq!(
            b,
            StageBreakdown {
                queue_wait_us: 200,
                step_us: 300,
                notify_wait_us: 500,
                wire_us: 0
            }
        );
        assert_eq!(b.sum_us(), 1000);
        // Oversized raw measurements are trimmed in order.
        let b = StageBreakdown::attribute(100, 80, 50, 40, Some(90));
        assert_eq!(b.queue_wait_us, 80);
        assert_eq!(b.step_us, 20);
        assert_eq!(b.wire_us, 0);
        assert_eq!(b.notify_wait_us, 0);
        assert!(b.sum_us() <= 100);
        // Distributed shape with measured notify below the residual.
        let b = StageBreakdown::attribute(1000, 100, 200, 300, Some(250));
        assert_eq!(b.wire_us, 300);
        assert_eq!(b.notify_wait_us, 250);
        assert!(b.sum_us() <= 1000);
        // Zero end-to-end stays all-zero.
        assert_eq!(
            StageBreakdown::attribute(0, 5, 5, 5, None),
            StageBreakdown::default()
        );
    }

    /// The native histogram exposition carries monotone cumulative
    /// `_bucket` series ending at `+Inf == _count`, one family per
    /// stage label.
    #[test]
    fn prometheus_native_histograms_are_cumulative() {
        let spec = lotos::parser::parse_spec("SPEC a1; b2; exit ENDSPEC").unwrap();
        let m = Metrics::for_service(&spec);
        for v in [1u64, 3, 10, 100, 1000, 100_000_000] {
            m.session_latency.record(v);
            m.stages.record(&StageBreakdown {
                queue_wait_us: v / 2,
                step_us: v / 4,
                notify_wait_us: v / 4,
                wire_us: 0,
            });
        }
        let text = m.to_prometheus();
        assert!(text.contains("# TYPE protogen_session_latency_hist_us histogram"));
        assert!(text.contains("# TYPE protogen_stage_latency_us histogram"));
        // One TYPE line even though four stage series share the family.
        assert_eq!(text.matches("# TYPE protogen_stage_latency_us ").count(), 1);
        for stage in ["queue_wait", "step", "notify_wait", "wire"] {
            assert!(
                text.contains(&format!(
                    "protogen_stage_latency_us_bucket{{stage=\"{stage}\",le=\"1\"}}"
                )),
                "{stage} missing from:\n{text}"
            );
            assert!(text.contains(&format!(
                "protogen_stage_latency_us_count{{stage=\"{stage}\"}} 6"
            )));
        }
        // Cumulative counts are monotone in `le` and end at +Inf = count.
        let mut last = 0u64;
        for line in text
            .lines()
            .filter(|l| l.starts_with("protogen_session_latency_hist_us_bucket"))
        {
            let v: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(v >= last, "bucket counts regressed: {line}");
            last = v;
        }
        assert!(text.contains("protogen_session_latency_hist_us_bucket{le=\"+Inf\"} 6"));
        assert!(text.contains("protogen_session_latency_hist_us_count 6"));
        // 100s lands past the largest finite boundary (2^26 µs ≈ 67s)…
        let le_max = format!(
            "protogen_session_latency_hist_us_bucket{{le=\"{}\"}} 5",
            1u64 << 26
        );
        assert!(text.contains(&le_max), "{text}");
        // …and the gauges render with their declared types.
        assert!(text.contains("# TYPE protogen_window_occupancy gauge"));
        assert!(text.contains("# TYPE protogen_pool_bufs_capacity gauge"));
    }

    #[test]
    fn health_json_is_parseable_and_live() {
        let spec = lotos::parser::parse_spec("SPEC a1; b2; exit ENDSPEC").unwrap();
        let m = Metrics::for_service(&spec);
        m.sessions_completed.store(20, Ordering::Relaxed);
        m.session_latency.record(800);
        m.stages.record(&StageBreakdown {
            queue_wait_us: 100,
            step_us: 300,
            notify_wait_us: 350,
            wire_us: 50,
        });
        m.window_occupancy.store(4, Ordering::Relaxed);
        m.window_size.store(64, Ordering::Relaxed);
        m.link_backlogs
            .lock()
            .unwrap()
            .insert("place:2".to_string(), 3);
        let body = Json::parse(&m.health_json(2.0).to_string()).unwrap();
        assert_eq!(body["status"].as_str(), Some("ok"));
        assert_eq!(body["sessions_completed"].as_u64(), Some(20));
        assert_eq!(body["sessions_per_sec"], Json::F64(10.0));
        // Stages render exactly as the report's `stages` object.
        assert_eq!(body["stages"], m.stages.summaries().to_json());
        let queue = &body["stages"]["queue_wait"];
        assert_eq!(queue["count"].as_u64(), Some(1));
        assert!(queue["p50_us"].as_f64().is_some() && queue["p99_us"].as_f64().is_some());
        assert_eq!(body["gauges"]["window_occupancy"].as_u64(), Some(4));
        assert_eq!(
            body["gauges"]["per_link_backlog"]["place:2"].as_u64(),
            Some(3)
        );
    }

    #[test]
    fn service_primitive_extraction() {
        let spec = lotos::parser::parse_spec(
            "SPEC conreq1; conind2; (dtreq1; dtind2; exit [] disreq1; exit) ENDSPEC",
        )
        .unwrap();
        let metrics = Metrics::for_service(&spec);
        let mut names: Vec<&str> = metrics.prims.names().collect();
        names.sort();
        assert_eq!(names, ["conind", "conreq", "disreq", "dtind", "dtreq"]);
        assert_eq!(metrics.per_prim.len(), 5);
    }
}
