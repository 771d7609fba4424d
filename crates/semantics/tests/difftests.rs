//! Differential property tests: the verification fast paths against the
//! naive reference implementations kept in `semantics::naive`.
//!
//! A random-LTS generator drives every kernel the fast path replaced:
//!
//! * τ-SCC condensed saturation vs the per-state-BFS saturation
//!   (edge-for-edge `Lts` equality);
//! * worklist partition refinement vs the global-fixpoint `partition`
//!   (strong / weak / observation-congruence verdicts, and the fused
//!   weak-and-congruence check), at 1 and 4 signature-hashing threads;
//! * worklist quotient vs the naive `minimize` (bit-for-bit `Lts`
//!   equality);
//! * determinized product-walk trace comparison vs materialized
//!   `TraceSet` equality and `BTreeSet`-scan `first_difference`
//!   (identical witnesses), at several trace bounds;
//! * the product-walk stable-failures verdict vs `semantics::failures`
//!   (per-trace refusal families), at bounds 0 to 5, and path counting
//!   vs the materialized trace set.

use proptest::prelude::*;
use semantics::detdfa::DetDfa;
use semantics::failures::{failures, failures_equal};
use semantics::lts::Lts;
use semantics::term::Label;
use semantics::{naive, traces};

/// Decode a label index: 0 is internal, the rest are observable.
fn label_of(code: u8) -> Label {
    match code {
        0 => Label::I,
        1 => Label::Delta,
        2 => Label::Prim {
            name: "a".into(),
            place: 1,
        },
        3 => Label::Prim {
            name: "b".into(),
            place: 2,
        },
        _ => Label::Prim {
            name: "c".into(),
            place: 1,
        },
    }
}

/// Build a complete LTS with `n` states (initial 0) from raw edge codes.
/// Sources/targets are taken modulo `n`, so every generated triple is a
/// valid edge; τ-cycles, diamonds and dead states all occur naturally.
fn lts_from(n: usize, edges: &[(usize, u8, usize)]) -> Lts {
    let mut trans: Vec<Vec<(Label, usize)>> = vec![Vec::new(); n];
    for &(s, code, t) in edges {
        trans[s % n].push((label_of(code % 5), t % n));
    }
    for es in &mut trans {
        es.sort();
        es.dedup();
    }
    Lts {
        trans,
        initial: 0,
        complete: true,
        unexpanded: Vec::new(),
    }
}

/// One random system: up to 10 states, up to 28 edges over 5 labels
/// (τ-heavy: two of five codes collapse to observable `Prim` at the same
/// place, exercising label interning dedup too).
fn edges_strategy() -> impl Strategy<Value = Vec<(usize, u8, usize)>> {
    prop::collection::vec((0usize..10, 0u8..5, 0usize..10), 0..28)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 192, ..ProptestConfig::default() })]

    #[test]
    fn saturation_matches_naive(n in 1usize..10, edges in edges_strategy()) {
        let l = lts_from(n, &edges);
        prop_assert_eq!(l.saturate(), naive::saturate(&l));
    }

    #[test]
    fn minimize_matches_naive(n in 1usize..10, edges in edges_strategy()) {
        let l = lts_from(n, &edges);
        prop_assert_eq!(l.minimize(), naive::minimize(&l));
    }

    #[test]
    fn equivalence_verdicts_match_naive(
        na in 1usize..8,
        ea in edges_strategy(),
        nb in 1usize..8,
        eb in edges_strategy(),
    ) {
        let a = lts_from(na, &ea);
        let b = lts_from(nb, &eb);
        let strong = naive::strong_equiv(&a, &b);
        let weak = naive::weak_equiv(&a, &b);
        let congr = naive::observation_congruent(&a, &b);
        for threads in [1usize, 4] {
            prop_assert_eq!(
                semantics::bisim::strong_equiv_threads(&a, &b, threads),
                strong, "strong @{} threads", threads
            );
            prop_assert_eq!(
                semantics::bisim::weak_equiv_threads(&a, &b, threads),
                weak, "weak @{} threads", threads
            );
            prop_assert_eq!(
                semantics::bisim::observation_congruent_threads(&a, &b, threads),
                congr, "congruence @{} threads", threads
            );
            prop_assert_eq!(
                semantics::bisim::weak_and_congruent_threads(&a, &b, threads),
                weak.zip(congr), "fused weak and congruence @{} threads", threads
            );
        }
    }

    #[test]
    fn trace_comparison_matches_naive(
        na in 1usize..8,
        ea in edges_strategy(),
        nb in 1usize..8,
        eb in edges_strategy(),
        bound in 1usize..5,
    ) {
        let a = lts_from(na, &ea);
        let b = lts_from(nb, &eb);

        // enumeration: DetDfa unrolling == naive subset construction
        let ta = traces::observable_traces(&a, bound);
        let tb = traces::observable_traces(&b, bound);
        prop_assert_eq!(&ta, &naive::observable_traces(&a, bound));
        prop_assert_eq!(&tb, &naive::observable_traces(&b, bound));

        // comparison: product walk == materialized set equality, and the
        // lex-least missing-trace witnesses are identical
        let da = DetDfa::build(&a, bound);
        let db = DetDfa::build(&b, bound);
        prop_assert_eq!(DetDfa::equal(&da, &db), traces::trace_equal(&ta, &tb));
        prop_assert_eq!(
            DetDfa::first_difference(&da, &db),
            traces::first_difference(&ta, &tb)
        );
        prop_assert_eq!(
            DetDfa::first_difference(&db, &da),
            traces::first_difference(&tb, &ta)
        );
    }

    #[test]
    fn failures_verdict_matches_oracle(
        na in 1usize..8,
        ea in edges_strategy(),
        nb in 1usize..8,
        eb in edges_strategy(),
    ) {
        let a = lts_from(na, &ea);
        let b = lts_from(nb, &eb);
        for bound in 0usize..=5 {
            let da = DetDfa::build(&a, bound);
            let db = DetDfa::build(&b, bound);
            prop_assert_eq!(
                DetDfa::failures_equal(&da, &db),
                failures_equal(&failures(&a, bound), &failures(&b, bound)),
                "bound {}", bound
            );
            for d in [&da, &db] {
                prop_assert_eq!(d.trace_count(), d.trace_set().traces.len() as u64);
            }
        }
    }

    #[test]
    fn self_equivalence_always_holds(n in 1usize..10, edges in edges_strategy()) {
        let l = lts_from(n, &edges);
        prop_assert_eq!(semantics::bisim::weak_equiv(&l, &l), Some(true));
        prop_assert_eq!(semantics::bisim::observation_congruent(&l, &l), Some(true));
        let d = DetDfa::build(&l, 4);
        prop_assert_eq!(DetDfa::equal(&d, &d).0, true);
        prop_assert_eq!(DetDfa::first_difference(&d, &d), None);
    }

    #[test]
    fn minimized_system_stays_weakly_equivalent(n in 1usize..10, edges in edges_strategy()) {
        let l = lts_from(n, &edges);
        let m = l.minimize();
        prop_assert_eq!(semantics::bisim::strong_equiv(&l, &m), Some(true));
        prop_assert_eq!(semantics::bisim::weak_equiv(&l, &m), Some(true));
    }
}

/// Each outcome of the fused check — `None`, the `(false, false)` early
/// exit, weak without congruence, and both — on a pair built for it,
/// against the naive kernels at 1 and 4 threads.
#[test]
fn fused_verdicts_cover_every_outcome() {
    let (i, a, b) = (0u8, 2u8, 3u8);
    let mut truncated = lts_from(1, &[]);
    truncated.complete = false;
    let cases = [
        // a ≉ b
        (
            lts_from(2, &[(0, a, 1)]),
            lts_from(2, &[(0, b, 1)]),
            Some((false, false)),
        ),
        // i;a is weakly bisimilar to a but fails the root condition
        (
            lts_from(3, &[(0, i, 1), (1, a, 2)]),
            lts_from(2, &[(0, a, 1)]),
            Some((true, false)),
        ),
        // a;i;b ≈ a;b
        (
            lts_from(4, &[(0, a, 1), (1, i, 2), (2, b, 3)]),
            lts_from(3, &[(0, a, 1), (1, b, 2)]),
            Some((true, true)),
        ),
        (truncated, lts_from(1, &[]), None),
    ];
    for (x, y, want) in &cases {
        let naive = naive::weak_equiv(x, y).zip(naive::observation_congruent(x, y));
        assert_eq!(naive, *want, "naive oracle");
        for threads in [1usize, 4] {
            assert_eq!(
                semantics::bisim::weak_and_congruent_threads(x, y, threads),
                *want,
                "@{threads} threads"
            );
        }
    }
}

/// The LTS of a behaviour expression.
fn lts_of(src: &str) -> Lts {
    let (spec, root) = lotos::parser::parse_expr(src).unwrap();
    let env = semantics::term::Env::new(spec);
    let t = env.instantiate(root, 0);
    semantics::lts::build_term_lts(&env, t, 10_000).0
}

/// Pairs chosen for each rule of the product-walk failures check: the
/// verdict agrees with the oracle at bounds 0 to 4, both ways round, and
/// is the one given at bound 4.
#[test]
fn failures_verdicts_on_pinned_pairs() {
    let i = 0u8;
    let cases = [
        // an internal choice refuses a branch the external one offers
        (
            lts_of("a1;exit [] b1;exit"),
            lts_of("i;a1;exit [] i;b1;exit"),
            false,
        ),
        // trace-equal, but after a1 the right side refuses b1 or c1
        (
            lts_of("a1;(b1;exit [] c1;exit)"),
            lts_of("a1;b1;exit [] a1;c1;exit"),
            false,
        ),
        // different alphabets: each trace reaches ⊥ on the other side
        (lts_of("a1;exit"), lts_of("b1;exit"), false),
        // an initial hidden step is invisible to failures
        (lts_of("i;a1;b1;exit"), lts_of("a1;b1;exit"), true),
        // no observable label at all: one stable state refusing
        // everything against a divergence with no stable state
        (lts_from(1, &[]), lts_from(1, &[(0, i, 0)]), false),
    ];
    for (k, (x, y, want)) in cases.iter().enumerate() {
        for bound in 0usize..=4 {
            let oracle = failures_equal(&failures(x, bound), &failures(y, bound));
            let (dx, dy) = (DetDfa::build(x, bound), DetDfa::build(y, bound));
            assert_eq!(
                DetDfa::failures_equal(&dx, &dy),
                oracle,
                "pair {k}, bound {bound}"
            );
            assert_eq!(
                DetDfa::failures_equal(&dy, &dx),
                oracle,
                "pair {k}, bound {bound}, flipped"
            );
            if bound == 4 {
                assert_eq!(oracle, *want, "pair {k}: oracle");
            }
        }
    }
}
