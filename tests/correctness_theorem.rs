//! Experiment E5 — empirical instances of the paper's Section 5 theorem:
//!
//! ```text
//! S ≈ hide G in ( (T_1(S) ||| … ||| T_n(S)) |[G]| Medium )
//! ```
//!
//! for services without the disabling operator. Finite instances are
//! checked by full weak bisimulation; recursive (infinite-state) ones by
//! bounded observable-trace equivalence plus deadlock freedom. Every
//! instance also runs under the §5.2 proof medium (1-slot FIFO channels).

use lotos_protogen::prelude::*;

fn verify_src(src: &str, opts: VerifyConfig) -> lotos_protogen::verify::VerificationReport {
    verify_service(&parse_spec(src).unwrap(), opts).unwrap()
}

/// Finite services spanning the operator set (without `[>`): the theorem
/// holds up to full weak bisimilarity.
#[test]
fn finite_instances_weakly_bisimilar() {
    let corpus = [
        // induction base: elementary expressions (§5.3.2)
        "SPEC a1; exit ENDSPEC",
        // ;" and ">>" (§5.3.3's worked induction step)
        "SPEC a1; b2; exit ENDSPEC",
        "SPEC a1;exit >> b2;exit ENDSPEC",
        "SPEC (a1;b2;exit >> c1;exit) >> d3;exit ENDSPEC",
        // choice
        "SPEC (a1; b2; c1; exit) [] (e1; c1; exit) ENDSPEC",
        "SPEC (a1;b3;exit) [] (b1;b3;exit) [] (c1;b3;exit) ENDSPEC",
        // pure interleaving and bracketed parallelism
        "SPEC a1;exit ||| b2;exit ENDSPEC",
        "SPEC (a1;exit ||| b2;exit) >> c3;exit ENDSPEC",
        "SPEC a1;exit >> (b2;exit ||| c3;exit) >> d1;exit ENDSPEC",
        // gate-synchronized parallelism
        "SPEC a1;b2;exit |[b2]| b2;c3;exit ENDSPEC",
        // process invocation *after* the first primitive: the Proc_Synch
        // message is guarded, so even rootedness survives (Example 1)
        "SPEC ( a1 ; b2 ; B ) >> ( d3 ; exit ) WHERE PROC B = c2 ; exit END ENDSPEC",
    ];
    for src in corpus {
        let r = verify_src(src, VerifyConfig::default());
        assert!(r.passed(), "{src}\n{r}");
        assert_eq!(r.weak_bisimilar, Some(true), "{src}\n{r}");
        // the theorem is stated with observation congruence ≈; on these
        // instances no message precedes the first primitive, so even the
        // rooted relation holds
        assert_eq!(r.congruent, Some(true), "{src}\n{r}");
    }
}

/// Process invocations whose Proc_Synch fires *before* the first service
/// primitive give the composition an initial hidden step: the systems are
/// weakly bisimilar but fail Milner's root condition, so the literal `≈`
/// of the paper's theorem statement holds only up to rootedness (this
/// affects the paper's own Example 3, whose place-1 entity begins with
/// `s2(1);exit ||| s3(1);exit`). Documented in EXPERIMENTS.md.
#[test]
fn invocation_instances_weakly_bisimilar_but_not_rooted() {
    let corpus = [
        // top-level invocations: Proc_Synch fires before any primitive
        "SPEC P WHERE PROC P = a1 ; Q WHERE PROC Q = b2 ; c1 ; exit END END ENDSPEC",
        "SPEC A WHERE PROC A = a1 ; b2 ; exit END ENDSPEC",
    ];
    for src in corpus {
        let r = verify_src(src, VerifyConfig::default());
        assert!(r.passed(), "{src}\n{r}");
        assert_eq!(r.weak_bisimilar, Some(true), "{src}\n{r}");
        assert_eq!(r.congruent, Some(false), "{src}\n{r}");
    }
}

/// The same corpus under the §5.2 proof assumption: at most one message
/// in transit per channel.
#[test]
fn finite_instances_under_proof_medium() {
    let corpus = [
        "SPEC a1; b2; exit ENDSPEC",
        "SPEC (a1; b2; c1; exit) [] (e1; c1; exit) ENDSPEC",
        "SPEC a1;exit >> (b2;exit ||| c3;exit) >> d1;exit ENDSPEC",
        "SPEC ( a1 ; b2 ; B ) >> ( d3 ; exit ) WHERE PROC B = c2 ; exit END ENDSPEC",
    ];
    for src in corpus {
        let r = verify_src(src, VerifyConfig::new().medium(MediumConfig::proof_model()));
        assert!(r.passed(), "{src}\n{r}");
        assert_eq!(r.weak_bisimilar, Some(true), "{src}\n{r}");
    }
}

/// Recursive services: bounded trace equivalence + deadlock freedom.
#[test]
fn recursive_instances_bounded() {
    let corpus = [
        // tail recursion
        "SPEC A WHERE PROC A = a1 ; b2 ; A [] c1 ; exit END ENDSPEC",
        // Example 2: non-regular aⁿbⁿ
        "SPEC A WHERE PROC A = (a1 ; A >> b2 ; exit) [] (a1 ; b2 ; exit) END ENDSPEC",
        // mutual recursion
        "SPEC A WHERE PROC A = a1 ; B END PROC B = b2 ; A [] b2 ; c1 ; exit END ENDSPEC",
    ];
    for src in corpus {
        let r = verify_src(src, VerifyConfig::new().trace_len(6));
        assert!(r.traces_equal, "{src}\n{r}");
        assert_eq!(r.deadlocks, 0, "{src}\n{r}");
    }
}

/// Randomized corpus: generated R1–R3-conforming services without `[>`.
#[test]
fn random_corpus_bounded_equivalence() {
    for seed in 0..25 {
        let cfg = GenConfig {
            seed,
            places: 2 + (seed % 3) as u8,
            max_depth: 2,
            allow_disable: false,
            allow_recursion: seed % 4 == 0,
            ..GenConfig::default()
        };
        let spec = generate(cfg);
        let r = verify_service(&spec, VerifyConfig::new().trace_len(5)).unwrap();
        assert!(
            r.traces_equal && r.deadlocks == 0,
            "seed {seed}:\n{}\n{r}",
            print_spec(&spec)
        );
        if let Some(false) = r.weak_bisimilar {
            panic!(
                "seed {seed}: weak bisimulation failed\n{}",
                print_spec(&spec)
            );
        }
    }
}

/// Sanity: the harness *can* fail — a deliberately broken entity is
/// detected (the check is not vacuous).
#[test]
fn harness_detects_broken_protocols() {
    let service = parse_spec("SPEC a1; b2; c3; exit ENDSPEC").unwrap();
    let mut d = derive(&service).unwrap();
    // entity 3 fires c3 without waiting
    d.entities[2].1 = parse_spec("SPEC c3; exit ENDSPEC").unwrap();
    let r = verify_derivation(&d, VerifyConfig::default());
    assert!(!r.passed());
    assert!(r.extra_in_protocol.is_some());
}

/// The paper's Example 7 at the default caps: the state cap cuts the
/// composition off at a shallow observable depth, no state it cut off
/// counts as a deadlock, and the traces it could compare agree, so the
/// verdict is inconclusive — never a difference.
#[test]
fn example7_has_no_deadlock_at_the_default_caps() {
    let r = verify_src(
        include_str!("../specs/example7_instances.lotos"),
        VerifyConfig::default(),
    );
    assert!(r.qualified, "the default caps no longer truncate:\n{r}");
    assert_eq!(r.deadlocks, 0, "{r}");
    let d = r.exact_depth.expect("compared below the trace bound");
    assert!(d < r.trace_len, "{r}");
    assert!(r.traces_equal && r.inconclusive() && !r.passed(), "{r}");
    assert!(r.to_string().contains("INCONCLUSIVE"), "{r}");
}

/// A complete exploration is never inconclusive, and a cap that cuts
/// the exploration only at the trace bound keeps the verdict conclusive.
#[test]
fn complete_and_bound_deep_explorations_are_conclusive() {
    let r = verify_src("SPEC a1; b2; exit ENDSPEC", VerifyConfig::default());
    assert_eq!(r.exact_depth, None, "{r}");
    assert!(r.passed() && !r.inconclusive(), "{r}");
    // aⁿbⁿ is infinite, so the bounded exploration stops at the bound
    // without hitting the cap: exact up to the whole bound.
    let r = verify_src(
        include_str!("../specs/example2_anbn.lotos"),
        VerifyConfig::new().trace_len(8),
    );
    assert_eq!(r.exact_depth, None, "{r}");
    assert!(r.passed(), "{r}");
}
