//! Shared corpus and helpers for the benchmark harness.
//!
//! Every benchmark and experiment table draws its inputs from here so the
//! numbers in EXPERIMENTS.md are regenerable from one place.

pub mod snapshot;

use lotos::Spec;
use specgen::{GenConfig, OpWeights};

/// The paper's Example 3 (reverse file copy with interrupt).
pub const EXAMPLE3: &str = "SPEC S [> interrupt3 ; exit WHERE \
     PROC S = (read1; push2; S >> pop2; write3; exit) \
           [] (eof1; make3; exit) END ENDSPEC";

/// The paper's Example 2 (non-regular aⁿbⁿ).
pub const EXAMPLE2: &str =
    "SPEC A WHERE PROC A = (a1 ; A >> b2 ; exit) [] (a1 ; b2 ; exit) END ENDSPEC";

/// The two-party transport service (experiment E8).
pub const TRANSPORT2: &str = "SPEC conreq1; conind2; conresp2; conconf1; DATA \
    WHERE PROC DATA = (dtreq1; dtind2; DATA) [] (disreq1; disind2; exit) END \
    ENDSPEC";

/// The three-party transport service with abort (experiment E8).
pub const TRANSPORT3: &str = "SPEC \
    conreq1; conind2; conresp2; conconf1; up3; \
    ((DATA [> abort2; bye2; exit) >> down3; exit) \
    WHERE PROC DATA = (dtreq1; dtind2; DATA) [] (disreq1; disind2; bye2; exit) END \
    ENDSPEC";

/// Parse a named corpus member.
pub fn corpus_spec(src: &str) -> Spec {
    lotos::parser::parse_spec(src).expect("corpus member parses")
}

/// Derive a corpus member through the `Pipeline` facade.
pub fn pipeline_derive(src: &str) -> protogen::Derivation {
    protogen::Pipeline::load(src)
        .expect("corpus member parses")
        .check()
        .expect("corpus member derivable")
        .derive()
        .expect("corpus member derivable")
        .into_derivation()
}

/// A deterministic generated spec of roughly increasing size: `scale`
/// controls the operator-nesting depth.
pub fn scaled_spec(places: u8, scale: u32, seed: u64) -> Spec {
    specgen::generate(GenConfig {
        seed,
        places,
        max_depth: scale,
        allow_disable: false,
        allow_recursion: false,
        weights: OpWeights::default(),
    })
}

/// Count the reachable expression nodes of a spec (its "size").
pub fn spec_size(spec: &Spec) -> usize {
    let mut roots = vec![spec.top.expr];
    roots.extend(spec.procs.iter().map(|p| p.body.expr));
    let mut seen = vec![false; spec.node_count()];
    let mut count = 0usize;
    for root in roots {
        for id in spec.preorder(root) {
            if !std::mem::replace(&mut seen[id as usize], true) {
                count += 1;
            }
        }
    }
    count
}
