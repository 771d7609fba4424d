//! Observability: a run's counters, log-scale latency histograms and
//! gauges ([`Metrics`]), their Prometheus and `/health` renderings
//! (`expose.rs`), and the JSON [`RuntimeReport`] (`report.rs`).
//!
//! **One writer.** A run's `Metrics` is plain data owned by its tally
//! (`exec::Tally`) and written only by the thread that closes sessions:
//! the multiplexer, the hub or the DES loop. Engines count per session
//! (see [`crate::session::SessionCounts`]) and fold each session in once,
//! when it closes. The per-primitive histograms are *prebuilt* from the
//! service specification, one per name of the run's [`PrimTable`], so
//! recording a primitive latency indexes the histogram at the
//! primitive's id, never a map.
//!
//! **One snapshot.** The hub's HTTP routes are the only readers of a
//! run's metrics while it is live. They share one published copy that
//! the hub refreshes with `clone_from` at most every [`PUBLISH`].
//! `/metrics` and `/health` render from that copy, so each is
//! internally consistent (a completed session is in every count of a
//! body, or in none) and at most about `PUBLISH` old while the run is
//! live. Everything else reads the writer's own state: stall records
//! take their deadline and gauges from it on the writer's thread, and
//! the final report renders from it exactly.

mod expose;
mod hist;
mod report;
#[cfg(test)]
mod tests;

pub use hist::{HistSummary, Histogram, StageBreakdown, Stages};
pub use report::{
    LinkReport, RuntimeReport, SessionReport, StallRecord, TraceMeta, ViolationRecord,
    REPORT_SCHEMA_VERSION,
};

use crate::session::SessionCounts;
use lotos::ast::Spec;
use lotos::place::PlaceId;
use semantics::backend::PrimTable;
use semantics::json::Json;
use semantics::json_obj;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

/// How often the hub refreshes the copy its HTTP routes read: the
/// staleness bound of `/metrics` and `/health`.
pub const PUBLISH: Duration = Duration::from_millis(50);

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

/// A run's counters, histograms and gauges (see the module docs for
/// who writes and who reads them).
#[derive(Clone, Debug, Default)]
pub struct Metrics {
    pub sessions_completed: usize,
    pub primitives: usize,
    pub messages_sent: usize,
    pub messages_delivered: usize,
    pub internal_actions: usize,
    /// High-water mark over all sessions and channels.
    pub max_queue_depth: usize,
    pub frames_lost: usize,
    pub retransmissions: usize,
    /// Coalesced transport batches flushed (distributed hub links).
    pub batches_sent: usize,
    /// Payload bytes flushed over distributed links.
    pub bytes_sent: usize,
    /// Cumulative acks that rode on outgoing data frames instead of
    /// costing a dedicated `Ack` frame (piggybacking).
    pub piggybacked_acks: usize,
    /// End-to-end session latency (wall µs).
    pub session_latency: Histogram,
    /// Per-stage session latency attribution (wall µs).
    pub stages: Stages<Histogram>,
    pub gauges: GaugeSnapshot,
    /// The service's primitive names; `per_prim[k]` belongs to id `k`.
    pub prims: Arc<PrimTable>,
    /// Per-primitive inter-arrival latency (wall µs between consecutive
    /// primitives of a session), indexed by primitive id. Prebuilt — see
    /// the module docs.
    pub per_prim: Vec<Histogram>,
}

impl Metrics {
    /// Build with one histogram per primitive name of `service`.
    pub fn for_service(service: &Spec) -> Metrics {
        let prims = PrimTable::of_spec(service);
        Metrics {
            per_prim: prims.names().map(|_| Histogram::new()).collect(),
            prims: Arc::new(prims),
            ..Metrics::default()
        }
    }

    /// Fold one closed session in: its counters, its primitives, and the
    /// inter-arrival gap before each (`gaps` is parallel to `trace`, or
    /// empty when the engine does not measure gaps). Primitive ids past
    /// the service's table have no histogram.
    pub fn fold_session(&mut self, counts: &SessionCounts, trace: &[(u32, PlaceId)], gaps: &[u64]) {
        self.primitives += trace.len();
        self.messages_sent += counts.sent;
        self.messages_delivered += counts.delivered;
        self.internal_actions += counts.internal;
        self.max_queue_depth = self.max_queue_depth.max(counts.max_depth);
        for (&(prim, _), &gap) in trace.iter().zip(gaps) {
            if let Some(h) = self.per_prim.get_mut(prim as usize) {
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
}
