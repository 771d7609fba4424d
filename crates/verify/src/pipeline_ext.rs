//! The verification stage of the [`protogen::Pipeline`] facade.
//!
//! `protogen` (the derivation crate) cannot depend on this crate, so the
//! `.verify(&opts)` stage is added to [`protogen::pipeline::Derived`]
//! here, completing the chain
//! `Pipeline::load(src)?.check()?.derive()?.verify(&opts)?`:
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
//! # Ok::<(), protogen::ProtogenError>(())
//! ```

use crate::harness::{verify_derivation, VerificationReport, VerifyConfig};
use protogen::pipeline::Derived;
use protogen::ProtogenError;

/// Verification as a pipeline stage on [`Derived`].
pub trait PipelineVerify {
    /// Check the Section 5 theorem instance and fail the pipeline
    /// (`ProtogenError::Verification`, exit code 4, carrying the rendered
    /// report) when it does not pass, or with
    /// `ProtogenError::Inconclusive` (exit code 7) when it held only as
    /// far as the state cap let it be compared.
    fn verify(&self, opts: &VerifyConfig) -> Result<VerificationReport, ProtogenError>;

    /// Check the theorem instance and return the report unconditionally,
    /// for callers that inspect failing instances (experiments E6/E10).
    fn verify_report(&self, opts: &VerifyConfig) -> VerificationReport;
}

impl PipelineVerify for Derived {
    fn verify(&self, opts: &VerifyConfig) -> Result<VerificationReport, ProtogenError> {
        let report = self.verify_report(opts);
        if report.passed() {
            Ok(report)
        } else if report.inconclusive() {
            Err(ProtogenError::Inconclusive(report.to_string()))
        } else {
            Err(ProtogenError::Verification(report.to_string()))
        }
    }

    fn verify_report(&self, opts: &VerifyConfig) -> VerificationReport {
        let mut opts = opts.clone();
        if opts.explore.threads == 0 {
            // inherit the pipeline's thread setting unless overridden
            opts.explore = opts.explore.threads(self.config().explore.threads);
        }
        verify_derivation(self.derivation(), opts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use protogen::Pipeline;

    #[test]
    fn full_chain_verifies() {
        let report = Pipeline::load("SPEC a1;exit >> b2;exit ENDSPEC")
            .unwrap()
            .check()
            .unwrap()
            .derive()
            .unwrap()
            .verify(&VerifyConfig::default())
            .unwrap();
        assert!(report.passed());
        assert_eq!(report.weak_bisimilar, Some(true));
    }

    #[test]
    fn failing_instance_maps_to_verification_error() {
        // A sabotaged derivation fails with the verification exit class.
        let derived = Pipeline::load("SPEC a1;exit >> b2;exit ENDSPEC")
            .unwrap()
            .check()
            .unwrap()
            .derive()
            .unwrap();
        let mut d = derived.into_derivation();
        d.entities[1].1 = lotos::parser::parse_spec("SPEC b2; exit ENDSPEC").unwrap();
        let r = verify_derivation(&d, VerifyConfig::default());
        assert!(!r.passed());
        let e = ProtogenError::Verification(r.to_string());
        assert_eq!(e.exit_code(), 4);
    }
}
