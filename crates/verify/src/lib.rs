//! # `verify` — correctness harness for derived protocols
//!
//! Empirical checking of the paper's Section 5 theorem,
//!
//! ```text
//! S ≈ hide G in ( (T_1(S) ||| T_2(S) ||| … ||| T_n(S)) |[G]| Medium )
//! ```
//!
//! via three ingredients:
//!
//! * [`explorer`] — a generic explicit-state explorer with observable-depth
//!   bounding (0–1 BFS over hidden/observable edges);
//! * [`composition`] — the composed protocol system: entity terms plus the
//!   FIFO medium of the `medium` crate, with `G` (all message
//!   interactions) hidden and global δ requiring all entities plus a
//!   quiescent medium;
//! * [`harness`] — derivation + exploration + verdicts: bounded
//!   observable-trace equivalence, deadlock freedom, and full weak
//!   bisimilarity whenever both sides are finite.
//!
//! Explorations run on the hash-consed parallel engine of the
//! `semantics` crate ([`parsys`]); the sequential `Rc`-based
//! [`composition`]/[`explorer`] pair remains as the differential-testing
//! reference. The harness is also reachable as the `.verify(&opts)`
//! stage of the `protogen::Pipeline` facade ([`pipeline_ext`]):
//!
//! ```
//! use protogen::Pipeline;
//! use verify::{PipelineVerify, VerifyConfig};
//!
//! let report = Pipeline::load("SPEC a1; b2; exit ENDSPEC")?
//!     .check()?
//!     .derive()?
//!     .verify(&VerifyConfig::default())?;
//! assert!(report.passed());
//! assert_eq!(report.weak_bisimilar, Some(true));
//! # Ok::<(), protogen::ProtogenError>(())
//! ```

pub mod composition;
pub mod explorer;
pub mod harness;
pub mod parsys;
pub mod pipeline_ext;

pub use composition::{CompState, Composition};
pub use explorer::{explore, explore_full, Exploration, System};
pub use harness::{verify_derivation, verify_service, VerificationReport, VerifyConfig};
pub use parsys::{EngineCompState, EngineComposition, EngineService};
pub use pipeline_ext::PipelineVerify;
