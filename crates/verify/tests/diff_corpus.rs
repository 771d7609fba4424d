//! Corpus differential tests: the verification fast paths against the
//! naive reference kernels, on real derived protocols from `specs/`.
//!
//! Each spec is taken through the actual pipeline (derive → compose with
//! the medium → explore) and the *fast* verdicts — condensed worklist
//! weak bisimilarity, determinized product-walk trace comparison — are
//! compared against `semantics::naive` on exactly the LTSs the harness
//! checks, at 1 and 4 threads. The harness's own stable-failures
//! verdict is checked against `semantics::failures` on every spec whose
//! explorations are complete.

use medium::MediumConfig;
use protogen::derive::derive;
use semantics::detdfa::DetDfa;
use semantics::explore::{explore_par, DepthMode, ExploreConfig};
use semantics::failures::{failures, failures_equal};
use semantics::lts::Lts;
use semantics::{naive, traces};
use std::collections::BTreeMap;
use verify::{verify_derivation, EngineComposition, EngineService, VerifyConfig};

const TRACE_LEN: usize = 5;

fn spec_path(name: &str) -> String {
    format!("{}/../../specs/{name}", env!("CARGO_MANIFEST_DIR"))
}

/// Explore service and composition the way the harness does: exhaustive
/// probe first, observable-depth-bounded fallback for infinite systems.
fn corpus_lts_pair(name: &str) -> (Lts, Lts) {
    let src = std::fs::read_to_string(spec_path(name)).expect("read spec");
    let spec = lotos::parser::parse_spec(&src).expect("parse spec");
    let d = derive(&spec).expect("derive");

    let probe = ExploreConfig::new().max_states(4_000);
    let bounded = probe.clone().max_depth(TRACE_LEN);
    fn adaptive(lts_full: Lts, bounded_lts: impl FnOnce() -> Lts) -> Lts {
        if lts_full.complete {
            lts_full
        } else {
            let mut l = bounded_lts();
            l.complete = false;
            l
        }
    }

    let service_sys = EngineService::new(d.service.clone());
    let service = adaptive(
        explore_par(&service_sys, &probe, DepthMode::Observable).lts,
        || explore_par(&service_sys, &bounded, DepthMode::Observable).lts,
    );
    let comp_sys = EngineComposition::new(&d, MediumConfig::default());
    let comp = adaptive(
        explore_par(&comp_sys, &probe, DepthMode::Observable).lts,
        || explore_par(&comp_sys, &bounded, DepthMode::Observable).lts,
    );
    (service, comp)
}

const CORPUS: &[&str] = &[
    "example1_invocation.lotos",
    "example2_anbn.lotos",
    "example3_file_copy.lotos",
    "example5_choice.lotos",
    "example6_disable.lotos",
    "transport2.lotos",
];

#[test]
fn bisim_verdicts_match_naive_on_corpus() {
    for name in CORPUS {
        let (service, comp) = corpus_lts_pair(name);
        let weak = naive::weak_equiv(&service, &comp);
        let congr = naive::observation_congruent(&service, &comp);
        for threads in [1usize, 4] {
            assert_eq!(
                semantics::bisim::weak_equiv_threads(&service, &comp, threads),
                weak,
                "{name}: weak verdict @{threads} threads"
            );
            assert_eq!(
                semantics::bisim::observation_congruent_threads(&service, &comp, threads),
                congr,
                "{name}: ≈ verdict @{threads} threads"
            );
            assert_eq!(
                semantics::bisim::weak_and_congruent_threads(&service, &comp, threads),
                weak.zip(congr),
                "{name}: fused verdicts @{threads} threads"
            );
        }
    }
}

/// The fused check's `(false, false)` early exit on a real composition:
/// one entity of a derived protocol is replaced by one that fires its
/// primitive without waiting for the synchronization message.
#[test]
fn fused_verdicts_match_naive_on_a_broken_protocol() {
    let spec = lotos::parser::parse_spec("SPEC a1;exit >> b2;exit ENDSPEC").unwrap();
    let mut d = derive(&spec).unwrap();
    d.entities[1].1 = lotos::parser::parse_spec("SPEC b2; exit ENDSPEC").unwrap();
    let cfg = ExploreConfig::new().max_states(4_000);
    let service = explore_par(
        &EngineService::new(d.service.clone()),
        &cfg,
        DepthMode::Observable,
    )
    .lts;
    let comp = explore_par(
        &EngineComposition::new(&d, MediumConfig::default()),
        &cfg,
        DepthMode::Observable,
    )
    .lts;
    let naive =
        naive::weak_equiv(&service, &comp).zip(naive::observation_congruent(&service, &comp));
    assert_eq!(naive, Some((false, false)));
    for threads in [1usize, 4] {
        assert_eq!(
            semantics::bisim::weak_and_congruent_threads(&service, &comp, threads),
            naive,
            "@{threads} threads"
        );
    }
}

#[test]
fn trace_verdicts_match_naive_on_corpus() {
    for name in CORPUS {
        let (service, comp) = corpus_lts_pair(name);
        for bound in [2usize, TRACE_LEN] {
            let ts = naive::observable_traces(&service, bound);
            let tc = naive::observable_traces(&comp, bound);
            assert_eq!(
                traces::observable_traces(&service, bound),
                ts,
                "{name}: service traces, bound {bound}"
            );
            let ds = DetDfa::build(&service, bound);
            let dc = DetDfa::build(&comp, bound);
            assert_eq!(
                DetDfa::equal(&ds, &dc),
                traces::trace_equal(&ts, &tc),
                "{name}: trace verdict, bound {bound}"
            );
            assert_eq!(
                DetDfa::first_difference(&ds, &dc),
                traces::first_difference(&ts, &tc),
                "{name}: missing-in-protocol witness, bound {bound}"
            );
            assert_eq!(
                DetDfa::first_difference(&dc, &ds),
                traces::first_difference(&tc, &ts),
                "{name}: extra-in-protocol witness, bound {bound}"
            );
        }
    }
}

#[test]
fn saturation_and_quotient_match_naive_on_corpus() {
    for name in &["example1_invocation.lotos", "example3_file_copy.lotos"] {
        let (service, comp) = corpus_lts_pair(name);
        for l in [&service, &comp] {
            assert_eq!(l.saturate(), naive::saturate(l), "{name}: saturation");
            assert_eq!(l.minimize(), naive::minimize(l), "{name}: quotient");
        }
    }
}

/// A report's `failures_equal` is the oracle's verdict on the LTSs the
/// harness decided it on — the service and the reduced composition, each
/// explored completely within the finiteness probe — for every `specs/`
/// file where both explorations are complete.
#[test]
fn report_failures_verdict_matches_oracle_on_corpus() {
    let cfg = VerifyConfig::default();
    let probe = cfg.explore.clone().max_states(cfg.finite_probe_states);
    let mut names: Vec<String> = std::fs::read_dir(spec_path(""))
        .expect("read specs/")
        .map(|e| e.expect("dir entry").file_name().into_string().unwrap())
        .filter(|n| n.ends_with(".lotos"))
        .collect();
    names.sort();
    let mut verdicts = BTreeMap::new();
    for name in &names {
        let src = std::fs::read_to_string(spec_path(name)).expect("read spec");
        let d = derive(&lotos::parser::parse_spec(&src).expect("parse spec")).expect("derive");
        let service = explore_par(
            &EngineService::new(d.service.clone()),
            &probe,
            DepthMode::Observable,
        )
        .lts;
        let comp_sys = EngineComposition::with_reduction(&d, cfg.medium, cfg.reduce);
        let comp = explore_par(&comp_sys, &probe, DepthMode::Observable).lts;
        if !(service.complete && comp.complete) {
            continue;
        }
        let oracle = failures_equal(
            &failures(&service, cfg.trace_len),
            &failures(&comp, cfg.trace_len),
        );
        let report = verify_derivation(&d, cfg.clone());
        assert_eq!(report.failures_equal, Some(oracle), "{name}\n{report}");
        verdicts.insert(name.as_str(), oracle);
    }
    assert_eq!(
        verdicts.get("example1_invocation.lotos"),
        Some(&true),
        "{verdicts:?}"
    );
    assert_eq!(
        verdicts.get("example6_disable.lotos"),
        Some(&false),
        "{verdicts:?}"
    );
}
