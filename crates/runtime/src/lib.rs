//! # `runtime` — concurrent multi-session execution of derived protocols
//!
//! The paper derives, per place, a protocol entity `PE_p`; Section 5
//! argues the entities *jointly realize the service* when composed over
//! the Section 1 medium. Everything upstream of this crate checks that
//! claim offline (LTS equivalence in `verify`, a single-threaded DES in
//! `sim`). This crate closes the loop by **running** a
//! [`protogen::derive::Derivation`] as a distributed system in
//! miniature:
//!
//! * one OS thread per protocol entity, stepping its place-local
//!   behaviour through [`semantics::backend`] — the hash-consed
//!   [`semantics::engine::Engine`] or a table lowered from it — over one
//!   shared term arena + §3.5 occurrence table, so transition memoization
//!   is shared across sessions;
//! * per-ordered-pair channels reusing [`medium::Msg`] framing with
//!   [`medium::Capacity`] send-side backpressure;
//! * a session multiplexer driving many independent service sessions
//!   through the same entity set concurrently;
//! * seeded fault injection (loss / duplication / reordering / delay)
//!   under stop-and-wait ARQ recovery ([`sim::lossy`], paper §6);
//! * per-session conformance against the service specification via
//!   [`sim::monitor::ServiceMonitor`];
//! * an observability surface — atomic counters, log-scale latency
//!   histograms, queue-depth high-water marks — exported as a JSON
//!   [`RuntimeReport`].
//!
//! ## Quickstart
//!
//! ```
//! use protogen::Pipeline;
//! use runtime::{PipelineRun, RuntimeConfig};
//!
//! let report = Pipeline::load("SPEC a1; b2; exit ENDSPEC")?
//!     .check()?
//!     .derive()?
//!     .run(&RuntimeConfig::new().sessions(20).threads(4))?;
//! assert!(report.passed());
//! # Ok::<(), protogen::ProtogenError>(())
//! ```
//!
//! With `threads <= 1` the runtime runs each session through the
//! deterministic discrete-event simulator instead — same seed, same
//! trace as `protogen simulate` — which is the reference the concurrent
//! engine's conformance suite compares against. See `docs/RUNTIME.md`.

pub mod compiled;
pub mod config;
pub mod distributed;
pub mod entity;
pub mod exec;
pub mod faults;
pub mod metrics;
pub mod pipeline_ext;
pub mod session;
mod stall;

pub use compiled::{lower_for, make_backend, BState, Backend, EntityBackend, OfferView};
pub use config::{BackendChoice, FaultProfile, RuntimeConfig};
pub use distributed::{
    derivation_fingerprint, run_hub_on, serve_entity, DistributedConfig, ServeConfig, ServeOutcome,
};
pub use exec::{run, trace_id_for, try_run};
pub use faults::FaultLink;
pub use metrics::{
    GaugeSnapshot, HistSummary, Histogram, LinkReport, Metrics, RuntimeReport, SessionReport,
    StageBreakdown, Stages, StallRecord, TraceMeta, ViolationRecord, REPORT_SCHEMA_VERSION,
};
pub use pipeline_ext::PipelineRun;
pub use session::{SessionCore, SessionEnd, SessionSlot};
