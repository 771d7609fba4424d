//! The staged derivation pipeline — the one public entry point that every
//! consumer (CLI, verification harness, simulator, benches) builds on
//! instead of hand-wiring parse → check → attributes → derive.
//!
//! Each stage consumes the previous one, so the type system enforces the
//! order and every failure funnels through [`ProtogenError`]:
//!
//! ```
//! use protogen::pipeline::Pipeline;
//!
//! let derived = Pipeline::load("SPEC a1; b2; exit ENDSPEC")?
//!     .check()?
//!     .derive()?;
//! assert_eq!(derived.derivation().entities.len(), 2);
//! # Ok::<(), protogen::ProtogenError>(())
//! ```
//!
//! Verification is the one stage that lives downstream (the `verify`
//! crate implements it for [`Derived`] via an extension trait), completing
//! the chain `Pipeline::load(src)?.check()?.derive()?.verify(&opts)?`.

use crate::derive::{derive_with_threads, Derivation, Options};
use crate::error::ProtogenError;
use lotos::attributes::{evaluate, Attributes};
use lotos::parser::parse_spec;
use lotos::restrictions::check;
use lotos::Spec;
use semantics::explore::ExploreConfig;
use semantics::lts::Lts;
use semantics::{Engine, TermId};

/// Configuration shared by every pipeline stage: how to derive and how to
/// explore state spaces. Built with chained setters:
///
/// ```
/// use protogen::pipeline::PipelineConfig;
/// use protogen::derive::DisableMode;
/// use semantics::ExploreConfig;
///
/// let cfg = PipelineConfig::new()
///     .disable_mode(DisableMode::RequestAck)
///     .explore(ExploreConfig::new().max_states(10_000).threads(4));
/// ```
#[derive(Clone, Debug, Default)]
pub struct PipelineConfig {
    /// Derivation options (restriction enforcement, disable mode).
    pub derive: Options,
    /// Exploration bounds and parallelism for every state-space build.
    pub explore: ExploreConfig,
}

impl PipelineConfig {
    pub fn new() -> Self {
        PipelineConfig::default()
    }

    /// Replace the derivation options wholesale.
    pub fn derive_options(mut self, opts: Options) -> Self {
        self.derive = opts;
        self
    }

    /// Select the disabling implementation (paper §3.3).
    pub fn disable_mode(mut self, mode: crate::derive::DisableMode) -> Self {
        self.derive.disable_mode = mode;
        self
    }

    /// Skip the R1–R3 checks during derivation (for experiments on
    /// intentionally out-of-grammar services).
    pub fn unchecked(mut self) -> Self {
        self.derive.enforce_restrictions = false;
        self
    }

    /// Replace the exploration configuration wholesale.
    pub fn explore(mut self, explore: ExploreConfig) -> Self {
        self.explore = explore;
        self
    }

    /// Worker threads for exploration and per-place derivation
    /// (`0` = auto-detect).
    pub fn threads(mut self, n: usize) -> Self {
        self.explore = self.explore.threads(n);
        self
    }
}

/// Stage 0: a parsed service specification.
#[derive(Clone, Debug)]
pub struct Pipeline {
    spec: Spec,
    config: PipelineConfig,
}

impl Pipeline {
    /// Parse a service specification from source text.
    pub fn load(src: &str) -> Result<Pipeline, ProtogenError> {
        Ok(Pipeline::from_spec(parse_spec(src)?))
    }

    /// Read and parse a specification file.
    pub fn load_file(path: &str) -> Result<Pipeline, ProtogenError> {
        let src = std::fs::read_to_string(path).map_err(|e| ProtogenError::Io {
            path: path.to_string(),
            message: e.to_string(),
        })?;
        Pipeline::load(&src)
    }

    /// Start from an already-parsed specification.
    pub fn from_spec(spec: Spec) -> Pipeline {
        Pipeline {
            spec,
            config: PipelineConfig::default(),
        }
    }

    /// Attach a configuration (default: [`PipelineConfig::default`]).
    pub fn with_config(mut self, config: PipelineConfig) -> Pipeline {
        self.config = config;
        self
    }

    pub fn spec(&self) -> &Spec {
        &self.spec
    }

    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// Evaluate the SP/EP/AP attribute tables (paper Fig. 4) without
    /// committing to the restriction check.
    pub fn attrs(&self) -> Attributes {
        evaluate(&self.spec)
    }

    /// Build the service's LTS with the configured exploration bounds,
    /// on the hash-consed parallel engine. Available before the
    /// restriction check — any parseable behaviour has a transition
    /// system, derivable or not.
    pub fn service_lts(&self) -> (Lts, Vec<TermId>) {
        let engine = Engine::new(self.spec.clone());
        let root = engine.root();
        semantics::build_lts(&engine, root, &self.config.explore)
    }

    /// Check the derivability restrictions R1–R3 and the service grammar.
    pub fn check(self) -> Result<Checked, ProtogenError> {
        let attrs = evaluate(&self.spec);
        let violations = check(&self.spec, &attrs);
        if !violations.is_empty() {
            return Err(ProtogenError::Restriction(violations));
        }
        Ok(Checked {
            spec: self.spec,
            attrs,
            config: self.config,
        })
    }
}

/// Stage 1: a specification that passed the R1–R3 restriction check.
#[derive(Clone, Debug)]
pub struct Checked {
    spec: Spec,
    attrs: Attributes,
    config: PipelineConfig,
}

impl Checked {
    pub fn spec(&self) -> &Spec {
        &self.spec
    }

    pub fn attrs(&self) -> &Attributes {
        &self.attrs
    }

    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// Build the service's LTS with the configured exploration bounds,
    /// on the hash-consed parallel engine.
    pub fn service_lts(&self) -> (Lts, Vec<TermId>) {
        let engine = Engine::new(self.spec.clone());
        let root = engine.root();
        semantics::build_lts(&engine, root, &self.config.explore)
    }

    /// The service LTS quotiented by strong bisimilarity — the canonical
    /// minimal representative. Minimization runs the worklist partition
    /// refinement of the verification fast path, so requesting the
    /// quotient up front is cheap and every downstream equivalence check
    /// sees the smaller system.
    pub fn service_lts_minimized(&self) -> Lts {
        self.service_lts().0.minimize()
    }

    /// Derive one protocol entity per place (paper Tables 3–4), in
    /// parallel across places when the configuration allows threads.
    pub fn derive(self) -> Result<Derived, ProtogenError> {
        let threads = self.config.explore.effective_threads();
        let derivation = derive_with_threads(&self.spec, self.config.derive, threads)?;
        Ok(Derived {
            derivation,
            attrs: self.attrs,
            config: self.config,
        })
    }
}

/// Stage 2: a completed derivation, ready for verification or simulation.
/// The `verify` crate adds the `.verify(&opts)` stage to this type.
#[derive(Debug)]
pub struct Derived {
    derivation: Derivation,
    attrs: Attributes,
    config: PipelineConfig,
}

impl Derived {
    pub fn derivation(&self) -> &Derivation {
        &self.derivation
    }

    pub fn into_derivation(self) -> Derivation {
        self.derivation
    }

    /// The service specification the protocol was derived from.
    pub fn service(&self) -> &Spec {
        &self.derivation.service
    }

    pub fn attrs(&self) -> &Attributes {
        &self.attrs
    }

    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn staged_chain_derives_entities() {
        let d = Pipeline::load("SPEC a1; b2; c3; exit ENDSPEC")
            .unwrap()
            .check()
            .unwrap()
            .derive()
            .unwrap();
        assert_eq!(d.derivation().entities.len(), 3);
    }

    #[test]
    fn parse_failure_is_a_parse_error() {
        let e = Pipeline::load("SPEC ; ENDSPEC").unwrap_err();
        assert!(matches!(e, ProtogenError::Parse(_)), "{e:?}");
        assert_eq!(e.exit_code(), 2);
    }

    #[test]
    fn restriction_failure_is_distinguished() {
        let e = Pipeline::load("SPEC a1;c3;exit [] b2;c3;exit ENDSPEC")
            .unwrap()
            .check()
            .unwrap_err();
        assert!(matches!(e, ProtogenError::Restriction(_)), "{e:?}");
        assert_eq!(e.exit_code(), 3);
    }

    #[test]
    fn unchecked_config_skips_restrictions_at_derive_time() {
        // The check() stage still reports, but derive-with-unchecked goes
        // through the derivation despite R1.
        let p = Pipeline::load("SPEC a1;c3;exit [] b2;c3;exit ENDSPEC")
            .unwrap()
            .with_config(PipelineConfig::new().unchecked());
        assert!(p.clone().check().is_err());
        let d = Checked {
            spec: p.spec.clone(),
            attrs: p.attrs(),
            config: p.config.clone(),
        }
        .derive();
        assert!(d.is_ok(), "{d:?}");
    }

    #[test]
    fn service_lts_matches_direct_engine_build() {
        let checked = Pipeline::load("SPEC a1; b2; exit ENDSPEC")
            .unwrap()
            .check()
            .unwrap();
        let (lts, _) = checked.service_lts();
        assert!(lts.complete);
        assert_eq!(lts.len(), 4); // a1 -> b2 -> δ -> stop
    }

    #[test]
    fn minimized_service_lts_is_strongly_equivalent() {
        let checked = Pipeline::load("SPEC a1;c1;exit [] a1;c1;exit ENDSPEC")
            .unwrap()
            .check()
            .unwrap();
        let (full, _) = checked.service_lts();
        let min = checked.service_lts_minimized();
        assert!(min.len() <= full.len());
        assert_eq!(semantics::bisim::strong_equiv(&full, &min), Some(true));
    }

    #[test]
    fn parallel_and_sequential_derivations_agree() {
        let src = "SPEC S [> d2 ; exit WHERE \
                   PROC S = (a1; b2; S >> c2; exit) [] (a1; c2; exit) END ENDSPEC";
        let seq = Pipeline::load(src)
            .unwrap()
            .with_config(PipelineConfig::new().threads(1))
            .check()
            .unwrap()
            .derive()
            .unwrap();
        let par = Pipeline::load(src)
            .unwrap()
            .with_config(PipelineConfig::new().threads(4))
            .check()
            .unwrap()
            .derive()
            .unwrap();
        assert_eq!(
            seq.derivation().entities.len(),
            par.derivation().entities.len()
        );
        for ((p1, e1), (p2, e2)) in seq
            .derivation()
            .entities
            .iter()
            .zip(par.derivation().entities.iter())
        {
            assert_eq!(p1, p2);
            assert!(lotos::compare::spec_eq_exact(e1, e2), "place {p1}");
        }
    }

    #[test]
    fn config_builder() {
        let cfg = PipelineConfig::new()
            .disable_mode(crate::derive::DisableMode::RequestAck)
            .unchecked()
            .explore(ExploreConfig::new().max_states(123).threads(7));
        assert_eq!(cfg.explore, ExploreConfig::new().max_states(123).threads(7));
        assert!(!cfg.derive.enforce_restrictions);
        assert_eq!(
            cfg.derive.disable_mode,
            crate::derive::DisableMode::RequestAck
        );
    }
}
