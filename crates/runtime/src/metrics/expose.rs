//! The live renderings of a [`Metrics`] snapshot: Prometheus text
//! exposition at `/metrics` and the JSON document at `/health`.

use super::hist::{Histogram, SUB};
use super::Metrics;
use semantics::json::Json;
use semantics::json_obj;
use std::fmt::Write;

/// Highest power-of-two `le` boundary exposed by [`histogram`]:
/// 2^26 µs ≈ 67 s; anything slower lands in `+Inf`.
const HIST_MAX_EXP: usize = 26;

/// The counter and gauge families in exposition order, one `name help`
/// line each. A name ending in `_total` is a counter, any other a gauge
/// (`protogen_window_size` is a configured capacity, hence not
/// `_total`).
const SCALARS: &str = "\
protogen_sessions_completed_total Sessions driven to a verdict
protogen_primitives_total Service primitives executed
protogen_messages_sent_total Synchronization messages sent into the medium
protogen_messages_delivered_total Synchronization messages delivered
protogen_internal_actions_total Internal (hidden) actions executed
protogen_frames_lost_total Frames dropped by fault injection
protogen_retransmissions_total Frames retransmitted by recovery
protogen_batches_sent_total Coalesced transport batches flushed
protogen_bytes_sent_total Payload bytes flushed over distributed links
protogen_piggybacked_acks_total Acks carried on outgoing data frames
protogen_max_queue_depth High-water mark of medium queue depth
protogen_window_occupancy Sessions in flight in the multiplexer window
protogen_window_size Multiplexer in-flight window capacity
protogen_link_backlog_frames Frames queued or awaiting ack over all hub links
";

impl Metrics {
    /// Render the metrics in Prometheus text exposition format (version
    /// 0.0.4), which the hub's `--metrics` endpoint serves. Latencies
    /// export twice: as summaries (quantiles, what dashboards want) and
    /// as native histograms with power-of-two `le` boundaries. Each
    /// family's `HELP`/`TYPE` header is written once, ahead of its
    /// series.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::with_capacity(16 << 10);
        let g = &self.gauges;
        // One per line of `SCALARS`, in its order.
        let values = [
            self.sessions_completed,
            self.primitives,
            self.messages_sent,
            self.messages_delivered,
            self.internal_actions,
            self.frames_lost,
            self.retransmissions,
            self.batches_sent,
            self.bytes_sent,
            self.piggybacked_acks,
            self.max_queue_depth,
            g.window_occupancy,
            g.window_size,
            g.link_backlog_frames,
        ];
        for (line, value) in SCALARS.lines().zip(values) {
            let (name, help) = line.split_once(' ').expect("a name, then its help");
            let kind = if name.ends_with("_total") {
                "counter"
            } else {
                "gauge"
            };
            family(&mut out, name, help, kind);
            let _ = writeln!(out, "{name} {value}");
        }

        let name = "protogen_session_latency_us";
        family(&mut out, name, "End-to-end session latency", "summary");
        summary(&mut out, name, None, &self.session_latency);
        let per_prim = self.per_prim_by_name();
        if !per_prim.is_empty() {
            let name = "protogen_primitive_latency_us";
            family(
                &mut out,
                name,
                "Inter-arrival latency per primitive",
                "summary",
            );
            for (prim, h) in per_prim {
                summary(&mut out, name, Some(("primitive", prim)), h);
            }
        }

        let name = "protogen_session_latency_hist_us";
        family(
            &mut out,
            name,
            "End-to-end session latency (native histogram)",
            "histogram",
        );
        histogram(&mut out, name, None, &self.session_latency);
        let name = "protogen_stage_latency_us";
        family(
            &mut out,
            name,
            "Per-stage session latency attribution",
            "histogram",
        );
        for (stage, h) in self.stages.all() {
            histogram(&mut out, name, Some(("stage", stage)), h);
        }

        if !g.per_link_backlog.is_empty() {
            let name = "protogen_link_outbound_backlog_frames";
            family(
                &mut out,
                name,
                "Queued + unacked frames per hub link",
                "gauge",
            );
            for (link, frames) in &g.per_link_backlog {
                let _ = writeln!(out, "{name}{{link=\"{link}\"}} {frames}");
            }
        }
        out
    }

    /// The `/health` JSON document — a compact live snapshot for
    /// `protogen top` and external probes: throughput, per-stage
    /// latency summaries (rendered as the report's `stages`), and
    /// queue/backlog gauges.
    pub fn health_json(&self, uptime_s: f64) -> Json {
        let rate = if uptime_s > 0.0 {
            self.sessions_completed as f64 / uptime_s
        } else {
            0.0
        };
        json_obj! {
            "status" => "ok",
            "uptime_s" => uptime_s,
            "sessions_completed" => self.sessions_completed,
            "sessions_per_sec" => rate,
            "primitives" => self.primitives,
            "messages_sent" => self.messages_sent,
            "session_p50_us" => self.session_latency.quantile(0.50),
            "session_p99_us" => self.session_latency.quantile(0.99),
            "stages" => self.stages.summaries().to_json(),
            "gauges" => self.gauges.to_json(),
            "batches_sent" => self.batches_sent,
            "bytes_sent" => self.bytes_sent,
        }
    }
}

/// A metric family's `HELP` and `TYPE` header.
fn family(out: &mut String, name: &str, help: &str, kind: &str) {
    let _ = write!(out, "# HELP {name} {help}\n# TYPE {name} {kind}\n");
}

/// A series' label set `{k="v",…}` from `label` then `extra`; nothing
/// when both are absent.
fn labels(out: &mut String, label: Option<(&str, &str)>, extra: Option<(&str, &str)>) {
    let mut sep = '{';
    for (k, v) in label.into_iter().chain(extra) {
        let _ = write!(out, "{sep}{k}=\"{v}\"");
        sep = ',';
    }
    if sep == ',' {
        out.push('}');
    }
}

/// One series of a `summary` family: three quantiles, sum and count.
fn summary(out: &mut String, name: &str, label: Option<(&str, &str)>, h: &Histogram) {
    for (q, v) in [
        ("0.5", h.quantile(0.50)),
        ("0.9", h.quantile(0.90)),
        ("0.99", h.quantile(0.99)),
    ] {
        out.push_str(name);
        labels(out, label, Some(("quantile", q)));
        let _ = writeln!(out, " {v:.1}");
    }
    sum_and_count(out, name, label, h);
}

/// One series of a native `histogram` family, with cumulative
/// power-of-two `le` boundaries derived from the log₂ octaves. The
/// boundary `le = 2^k` accumulates every sub-bucket up to and including
/// the octave-k origin bucket — consistent with the lower-bound
/// representative convention of [`Histogram::quantile`].
fn histogram(out: &mut String, name: &str, label: Option<(&str, &str)>, h: &Histogram) {
    let buckets = h.buckets();
    let mut cum = 0u64;
    let mut upto = 0;
    for k in 0..=HIST_MAX_EXP {
        let end = k * SUB + 1;
        cum += buckets[upto..end].iter().sum::<u64>();
        upto = end;
        let _ = write!(out, "{name}_bucket");
        labels(out, label, Some(("le", &(1u64 << k).to_string())));
        let _ = writeln!(out, " {cum}");
    }
    let _ = write!(out, "{name}_bucket");
    labels(out, label, Some(("le", "+Inf")));
    let _ = writeln!(out, " {}", h.count());
    sum_and_count(out, name, label, h);
}

fn sum_and_count(out: &mut String, name: &str, label: Option<(&str, &str)>, h: &Histogram) {
    let _ = write!(out, "{name}_sum");
    labels(out, label, None);
    let _ = write!(out, " {}\n{name}_count", h.sum());
    labels(out, label, None);
    let _ = writeln!(out, " {}", h.count());
}
