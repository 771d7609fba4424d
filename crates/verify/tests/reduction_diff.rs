//! Differential test of the τ-confluence reduction: every theorem
//! instance is verified with the composition reduced (the default) and
//! with every interleaving, at 1 and 4 threads, and the verdicts must
//! agree — trace equality, deadlock count, weak bisimilarity,
//! congruence, stable failures and completeness (whether a state cap
//! truncated the exploration, and to what depth traces are exact).
//!
//! The corpus is every spec in `specs/` plus generated services at
//! operator depth 2 with `|||` and `[>`, so that instances which are not
//! weakly bisimilar (the §3.3 disable deviation) are exercised too.

use protogen::derive::{derive, Derivation};
use verify::{verify_derivation, VerificationReport, VerifyConfig};

/// Generated services checked (seeds `1..=SEEDS`).
const SEEDS: u64 = 200;

/// The finiteness probe runs up to the state cap, so that a finite
/// instance is explored completely whether or not it is reduced. At the
/// default probe of 6 000 states a reduced instance can complete where
/// the unreduced one falls back to the depth-bounded exploration, and
/// then only the reduced run decides ≈ and finds deadlocks beyond the
/// trace bound.
const PROBE: usize = 60_000;

/// The verdicts the reduction must preserve.
#[derive(Debug, PartialEq, Eq)]
struct Verdicts {
    traces_equal: bool,
    deadlocks: usize,
    weak_bisimilar: Option<bool>,
    congruent: Option<bool>,
    failures_equal: Option<bool>,
    truncated: bool,
    exact_depth: Option<usize>,
}

fn verdicts(r: &VerificationReport) -> Verdicts {
    Verdicts {
        traces_equal: r.traces_equal,
        deadlocks: r.deadlocks,
        weak_bisimilar: r.weak_bisimilar,
        congruent: r.congruent,
        failures_equal: r.failures_equal,
        truncated: r.qualified,
        exact_depth: r.exact_depth,
    }
}

/// Verify `d` reduced and unreduced at 1 and 4 threads; panics on any
/// disagreement. Returns the reduced and unreduced state counts and the
/// weak-bisimilarity verdict.
fn check(name: &str, d: &Derivation) -> (usize, usize, Option<bool>) {
    let mut states = (0, 0);
    let mut weak = None;
    for threads in [1, 4] {
        let cfg = VerifyConfig::new().threads(threads).finite_probe(PROBE);
        let red = verify_derivation(d, cfg.clone());
        let full = verify_derivation(d, cfg.reduce(false));
        assert_eq!(
            verdicts(&red),
            verdicts(&full),
            "{name} at {threads} threads\nreduced:\n{red}unreduced:\n{full}"
        );
        assert!(
            red.composition_states <= full.composition_states || red.qualified,
            "{name}: the reduction grew the state space\n{red}{full}"
        );
        states = (red.composition_states, full.composition_states);
        weak = red.weak_bisimilar;
    }
    (states.0, states.1, weak)
}

#[test]
fn reduction_preserves_every_verdict_on_the_spec_corpus() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../specs");
    let mut names: Vec<_> = std::fs::read_dir(dir)
        .expect("specs directory")
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "lotos"))
        .collect();
    names.sort();
    assert!(names.len() >= 9, "{names:?}");
    for path in names {
        let src = std::fs::read_to_string(&path).unwrap();
        let d = derive(&lotos::parser::parse_spec(&src).unwrap()).unwrap();
        check(&path.display().to_string(), &d);
    }
}

#[test]
fn reduction_preserves_every_verdict_on_generated_services() {
    let (mut reduced, mut full, mut not_bisimilar) = (0, 0, 0);
    for seed in 1..=SEEDS {
        let spec = specgen::generate(specgen::GenConfig {
            seed,
            places: 3,
            max_depth: 2,
            allow_disable: true,
            ..specgen::GenConfig::default()
        });
        let Ok(d) = derive(&spec) else { continue };
        let text = lotos::printer::print_spec(&spec);
        let (r, f, weak) = check(&format!("seed {seed}: {text}"), &d);
        reduced += r;
        full += f;
        not_bisimilar += usize::from(weak == Some(false));
    }
    assert!(
        not_bisimilar > 0,
        "no instance exercised a failing ≈ verdict"
    );
    assert!(
        reduced < full,
        "reduced {reduced} vs unreduced {full} states"
    );
}
