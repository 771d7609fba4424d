//! Experiment E10 — the paper's motivating comparison (§3): the trivial
//! centralized-server solution versus the derived distributed protocol.
//!
//! The paper argues the centralized method "requires many synchronization
//! messages and the load for the server PE becomes large"; this test
//! (a) validates that our centralized baseline is behaviourally correct
//! (bounded trace equivalence — it is *trace*-faithful even though user
//! choices become server choices), and (b) measures the message and
//! server-load gap that motivates the distributed derivation.

use lotos_protogen::prelude::*;

fn messages_touching(
    d: &Derivation,
    place: PlaceId,
    seeds: std::ops::Range<u64>,
) -> (usize, usize) {
    // (total messages, messages with `place` as an endpoint), summed over
    // simulated runs
    let mut total = 0usize;
    let mut at_place = 0usize;
    for seed in seeds {
        let o = simulate(
            d,
            SimConfig {
                seed,
                max_steps: 4000,
                ..SimConfig::default()
            },
        );
        total += o.metrics.messages;
        at_place += o
            .metrics
            .per_place
            .get(&place)
            .map_or(0, sim::PlaceLoad::messages);
    }
    (total, at_place)
}

#[test]
fn centralized_is_trace_equivalent() {
    for src in [
        "SPEC a1; b2; c3; exit ENDSPEC",
        "SPEC (a1; b2; c1; exit) [] (e1; c1; exit) ENDSPEC",
        "SPEC a1;exit >> (b2;exit ||| c3;exit) >> d1;exit ENDSPEC",
    ] {
        let spec = parse_spec(src).unwrap();
        let d = centralize(&spec, 1).unwrap();
        let r = verify_derivation(
            &d,
            // internal vs external choice: traces only
            VerifyConfig::new().trace_len(6).try_bisim(false),
        );
        assert!(r.traces_equal, "{src}\n{r}");
        assert_eq!(r.deadlocks, 0, "{src}\n{r}");
    }
}

#[test]
fn centralized_is_not_observation_congruent_on_choices() {
    // the documented weakening: the server commits internally where the
    // service offers an external choice
    let spec = parse_spec("SPEC (a2; c1; exit) [] (b2; c1; exit) ENDSPEC").unwrap();
    let d = centralize(&spec, 1).unwrap();
    let r = verify_derivation(&d, VerifyConfig::default());
    assert!(r.traces_equal, "{r}");
    assert_eq!(r.weak_bisimilar, Some(false), "{r}");
}

#[test]
fn centralized_simulations_conform() {
    for seed in 0..10 {
        let cfg = GenConfig {
            seed,
            places: 3,
            max_depth: 2,
            allow_disable: false,
            allow_recursion: false,
            ..GenConfig::default()
        };
        let spec = generate(cfg);
        let server = evaluate(&spec).all.min_place().unwrap();
        let d = centralize(&spec, server).unwrap();
        for sim_seed in 0..5 {
            let o = simulate(
                &d,
                SimConfig {
                    seed: sim_seed,
                    max_steps: 4000,
                    ..SimConfig::default()
                },
            );
            assert!(
                o.conforms(),
                "spec seed {seed} sim {sim_seed}: {:?}\n{}",
                o.violation,
                print_spec(&spec)
            );
            assert_eq!(o.result, SimResult::Terminated, "seed {seed}/{sim_seed}");
        }
    }
}

#[test]
fn distributed_beats_centralized_on_messages_and_server_load() {
    // a service whose work mostly happens *between* places 2 and 3: the
    // distributed protocol lets them synchronize directly, while the
    // centralized server at place 1 relays everything
    let src = "SPEC a1; b2; c3; b2; c3; b2; c3; d1; exit ENDSPEC";
    let spec = parse_spec(src).unwrap();

    let distributed = derive(&spec).unwrap();
    let central = centralize(&spec, 1).unwrap();

    let (dist_msgs, dist_load) = messages_touching(&distributed, 1, 0..20);
    let (cent_msgs, cent_load) = messages_touching(&central, 1, 0..20);

    // the §3 claim, quantified
    assert!(
        cent_msgs > dist_msgs,
        "centralized {cent_msgs} should exceed distributed {dist_msgs}"
    );
    assert!(
        cent_load > 2 * dist_load,
        "server load {cent_load} should dwarf distributed place-1 load {dist_load}"
    );
    // in the centralized scheme *every* message touches the server
    assert_eq!(cent_msgs, cent_load);
}

#[test]
fn centralized_message_count_is_two_per_foreign_primitive() {
    let spec = parse_spec("SPEC a1; b2; c3; b2; exit ENDSPEC").unwrap();
    let d = centralize(&spec, 1).unwrap();
    let o = simulate(&d, SimConfig::default());
    assert_eq!(o.result, SimResult::Terminated);
    // 3 foreign primitives × (order + ack) + 2 STOP broadcasts
    assert_eq!(o.metrics.messages, 3 * 2 + 2);
    assert!(o.conforms());
}

/// Stable-failures semantics separates the two implementations where
/// traces cannot: the distributed derivation preserves the service's
/// refusal behaviour, while the centralized server's internal commitment
/// refuses the un-chosen branch of a user choice. The harness's
/// product-walk check on the determinized pair gives the same verdicts
/// as the per-trace refusal families.
#[test]
fn failures_distinguish_centralized_from_distributed() {
    use lotos_protogen::semantics::detdfa::DetDfa;
    use lotos_protogen::semantics::failures::{failures, failures_equal};
    use lotos_protogen::semantics::term::Env;
    use lotos_protogen::verify::explorer::explore_full;
    use lotos_protogen::verify::harness::{with_big_stack, TermSystem};
    use lotos_protogen::verify::Composition;

    let spec = parse_spec("SPEC (a2; c1; exit) [] (b2; c1; exit) ENDSPEC").unwrap();

    with_big_stack(|| {
        let service_env = Env::new(spec.clone());
        let service_sys = TermSystem { env: &service_env };
        let service_lts = explore_full(&service_sys, 50_000).lts;
        let service_failures = failures(&service_lts, 4);

        let dist = derive(&spec).unwrap();
        let dist_lts = explore_full(&Composition::new(&dist, MediumConfig::default()), 50_000).lts;
        let dist_failures = failures(&dist_lts, 4);

        let cent = centralize(&spec, 1).unwrap();
        let cent_lts = explore_full(&Composition::new(&cent, MediumConfig::default()), 50_000).lts;
        let cent_failures = failures(&cent_lts, 4);

        // the derived protocol is testing-faithful...
        assert!(
            failures_equal(&service_failures, &dist_failures),
            "distributed failures diverge from the service"
        );
        // ...the centralized baseline is not (it refuses the un-chosen
        // branch after its internal commitment)
        assert!(
            !failures_equal(&service_failures, &cent_failures),
            "centralized baseline should be testing-distinguishable"
        );

        let service_dfa = DetDfa::build(&service_lts, 4);
        assert!(
            DetDfa::failures_equal(&service_dfa, &DetDfa::build(&dist_lts, 4)),
            "product walk: distributed failures diverge from the service"
        );
        assert!(
            !DetDfa::failures_equal(&service_dfa, &DetDfa::build(&cent_lts, 4)),
            "product walk: centralized baseline should be testing-distinguishable"
        );
    });
}
