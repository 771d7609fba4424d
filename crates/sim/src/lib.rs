//! # `sim` — distributed simulation of derived protocols
//!
//! A discrete-event simulator for the protocol entities produced by
//! `protogen`: every entity runs its derived behaviour, synchronization
//! messages travel through per-channel FIFO queues with seeded random
//! delays (the paper's "arbitrary delay" medium, Section 1), and the
//! global stream of service primitives is validated *online* against the
//! service specification by a [`monitor::ServiceMonitor`].
//!
//! Besides conformance runs, the simulator produces the message metrics
//! of Section 4.3 (messages per synchronization kind, overhead per
//! primitive, queue depths) and the event logs used to exhibit the §3.3
//! disabling-semantics deviations (experiment E6).
//!
//! ```
//! use protogen::Pipeline;
//! use sim::{simulate, SimConfig, SimResult};
//!
//! let d = Pipeline::load("SPEC a1; b2; exit ENDSPEC")
//!     .unwrap()
//!     .check()
//!     .unwrap()
//!     .derive()
//!     .unwrap()
//!     .into_derivation();
//! let outcome = simulate(&d, SimConfig::default());
//! assert_eq!(outcome.result, SimResult::Terminated);
//! assert!(outcome.conforms());
//! assert_eq!(outcome.trace, vec![("a".into(), 1), ("b".into(), 2)]);
//! ```

pub mod des;
pub mod lossy;
pub mod monitor;

pub use des::{
    simulate, simulate_on, LinkConfig, PlaceLoad, SimConfig, SimEvent, SimEventKind, SimMetrics,
    SimOutcome, SimResult, Simulator,
};
pub use lossy::{ArqChannel, Frame, LossyLink};
pub use monitor::ServiceMonitor;
