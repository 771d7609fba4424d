//! The unified pipeline error type.
//!
//! Every stage of the [`crate::pipeline::Pipeline`] facade — reading,
//! parsing, restriction checking, derivation, verification — reports
//! failures through one enum, so callers (the CLI foremost) can
//! distinguish failure classes without string matching. Each class maps
//! to a stable process exit code via [`ProtogenError::exit_code`].

use crate::derive::DeriveError;
use lotos::parser::ParseError;
use lotos::restrictions::Violation;
use std::fmt;

/// Unified error for the whole derivation pipeline.
///
/// Parse errors carry the source span (`line:col`) of the offending
/// token; restriction errors carry the full list of R1–R3 violations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProtogenError {
    /// Reading the specification source failed.
    Io { path: String, message: String },
    /// The source is not a well-formed service specification. Carries
    /// the `line`/`col` span reported by the parser.
    Parse(ParseError),
    /// The specification parses but violates the paper's derivability
    /// restrictions (R1–R3) or the service grammar.
    Restriction(Vec<Violation>),
    /// Derivation failed for a non-restriction reason (e.g. the service
    /// mentions no place at all).
    Derive(String),
    /// A Section 5 theorem instance failed verification. Carries the
    /// rendered report for diagnostics.
    Verification(String),
    /// A theorem instance matched as far as it could be compared, but a
    /// state cap cut the exploration short of the trace bound, so the
    /// verdict beyond that depth is unknown. Carries the reason.
    Inconclusive(String),
    /// A distributed transport failure: a socket link died for good
    /// (retry budget exhausted, peer declared dead) and sessions were
    /// aborted rather than completed.
    Transport(String),
    /// Bad command-line usage or option value.
    Usage(String),
}

impl ProtogenError {
    /// Stable process exit code for this failure class:
    ///
    /// | code | class |
    /// |---|---|
    /// | 2 | parse error |
    /// | 3 | restriction (R1–R3) violation |
    /// | 4 | verification failure |
    /// | 5 | other derivation error |
    /// | 6 | distributed transport failure (dead link, aborted sessions) |
    /// | 7 | inconclusive verification (state cap hit below the trace bound) |
    /// | 1 | I/O, usage, anything else |
    pub fn exit_code(&self) -> u8 {
        match self {
            ProtogenError::Parse(_) => 2,
            ProtogenError::Restriction(_) => 3,
            ProtogenError::Verification(_) => 4,
            ProtogenError::Derive(_) => 5,
            ProtogenError::Transport(_) => 6,
            ProtogenError::Inconclusive(_) => 7,
            ProtogenError::Io { .. } | ProtogenError::Usage(_) => 1,
        }
    }
}

impl fmt::Display for ProtogenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtogenError::Io { path, message } => write!(f, "{path}: {message}"),
            ProtogenError::Parse(e) => write!(f, "{e}"),
            ProtogenError::Restriction(vs) => {
                write!(f, "{} restriction violation(s)", vs.len())?;
                for v in vs {
                    write!(f, "\n  {v}")?;
                }
                Ok(())
            }
            ProtogenError::Derive(msg) => write!(f, "derivation failed: {msg}"),
            ProtogenError::Verification(msg) => write!(f, "verification failed: {msg}"),
            ProtogenError::Inconclusive(msg) => write!(f, "verification inconclusive: {msg}"),
            ProtogenError::Transport(msg) => write!(f, "transport failed: {msg}"),
            ProtogenError::Usage(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for ProtogenError {}

impl From<ParseError> for ProtogenError {
    fn from(e: ParseError) -> Self {
        ProtogenError::Parse(e)
    }
}

impl From<DeriveError> for ProtogenError {
    fn from(e: DeriveError) -> Self {
        match e {
            DeriveError::Restrictions(vs) => ProtogenError::Restriction(vs),
            other => ProtogenError::Derive(other.to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lotos::attributes::evaluate;
    use lotos::parser::parse_spec;
    use lotos::restrictions::check;

    #[test]
    fn exit_codes_distinguish_failure_classes() {
        let parse = ProtogenError::from(parse_spec("SPEC SPEC ENDSPEC").unwrap_err());
        let spec = parse_spec("SPEC a1;c3;exit [] b2;c3;exit ENDSPEC").unwrap();
        let violations = check(&spec, &evaluate(&spec));
        assert!(!violations.is_empty());
        let restr = ProtogenError::Restriction(violations);
        let verif = ProtogenError::Verification("traces differ".into());
        let transport = ProtogenError::Transport("link dead".into());
        let inconclusive = ProtogenError::Inconclusive("state cap hit".into());
        let codes = [
            parse.exit_code(),
            restr.exit_code(),
            verif.exit_code(),
            transport.exit_code(),
            inconclusive.exit_code(),
        ];
        assert_eq!(codes, [2, 3, 4, 6, 7]);
    }

    #[test]
    fn parse_errors_carry_the_source_span() {
        let e = parse_spec("SPEC a1; ; exit ENDSPEC").unwrap_err();
        let line = e.line;
        let err = ProtogenError::from(e);
        assert!(err.to_string().contains(&format!("{line}:")), "{err}");
    }

    #[test]
    fn restriction_display_lists_each_violation() {
        let spec = parse_spec("SPEC a1;c3;exit [] b2;c3;exit ENDSPEC").unwrap();
        let err = ProtogenError::Restriction(check(&spec, &evaluate(&spec)));
        let text = err.to_string();
        assert!(text.contains("violation"), "{text}");
        assert!(text.contains("R1"), "{text}");
    }
}
