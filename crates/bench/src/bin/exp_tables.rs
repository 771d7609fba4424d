//! Regenerates every experiment table recorded in EXPERIMENTS.md:
//!
//! * **E4** — the §4.3 message-complexity table: measured synchronization
//!   messages per operator occurrence against the paper's bounds, swept
//!   over the number of places `n`;
//! * **E5** — theorem-instance verification summary for the corpus;
//! * **E8** — simulated message overhead per service;
//! * **E9** — derivation scaling (size / places vs. wall time).
//!
//! ```text
//! cargo run --release -p bench --bin exp-tables
//! ```

use bench::{
    corpus_spec, pipeline_derive, scaled_spec, spec_size, EXAMPLE2, EXAMPLE3, TRANSPORT2,
    TRANSPORT3,
};
use lotos::event::SyncKind;
use lotos::parser::parse_spec;
use protogen::derive::derive;
use protogen::stats::message_stats;
use sim::{simulate, SimConfig};
use std::time::Instant;
use verify::harness::{verify_derivation, VerifyConfig};

fn main() {
    table_e4_message_complexity();
    table_e5_theorem_instances();
    table_e8_simulated_overhead();
    table_e9_derivation_scaling();
    table_e10_centralized_vs_distributed();
}

/// A chain `a1; b2; ...` visiting places `1..=n`, as a source string.
fn chain_over(n: u8, prefix: &str) -> String {
    (1..=n)
        .map(|p| format!("{prefix}{p}"))
        .collect::<Vec<_>>()
        .join("; ")
}

fn table_e4_message_complexity() {
    println!("== E4: message complexity per operator occurrence (paper §4.3) ==");
    println!(
        "{:>3} | {:>12} | {:>12} | {:>16} | {:>14} | {:>12}",
        "n", "seq (<=1)", "choice (<=n)", "disable (<=2n-1)", "proc (<=n-1)", "par (=0)"
    );
    for n in 2u8..=8 {
        // ;/>>: one place change
        let seq = parse_spec("SPEC a1; b2; exit ENDSPEC").unwrap();
        let seq_max = message_stats(&derive(&seq).unwrap()).max_per_point(SyncKind::Seq);

        // choice with maximally disjoint alternatives: the right
        // alternative visits places 2..n that the left never touches
        let choice_src = format!(
            "SPEC (x1; z1; exit) [] (y1; {}; z1; exit) ENDSPEC",
            chain_over(n, "m")
                .split("; ")
                .skip(1)
                .collect::<Vec<_>>()
                .join("; ")
        );
        let choice = parse_spec(&choice_src).unwrap();
        let choice_max = message_stats(&derive(&choice).unwrap()).max_per_point(SyncKind::Alt);

        // disable: normal phase over all places ending at n, interrupt at n
        let dis_src = format!(
            "SPEC ({}; exit) [> (k{n}; l{n}; exit) ENDSPEC",
            chain_over(n, "a")
        );
        let dis = parse_spec(&dis_src).unwrap();
        let dis_stats = message_stats(&derive(&dis).unwrap());
        let dis_total =
            dis_stats.max_per_point(SyncKind::Rel) + dis_stats.max_per_point(SyncKind::Interr);

        // recursion over all places: proc-synch from place 1 to the rest
        let proc_src = format!(
            "SPEC A WHERE PROC A = ({c} ; A >> t1 ; exit) [] ({c} ; t1 ; exit) END ENDSPEC",
            c = chain_over(n, "a")
        );
        let proc = parse_spec(&proc_src).unwrap();
        let proc_max = message_stats(&derive(&proc).unwrap()).max_per_point(SyncKind::Proc);

        // pure interleaving over all places
        let par_src = format!(
            "SPEC {} ENDSPEC",
            (1..=n)
                .map(|p| format!("w{p};exit"))
                .collect::<Vec<_>>()
                .join(" ||| ")
        );
        let par = parse_spec(&par_src).unwrap();
        let par_total = message_stats(&derive(&par).unwrap()).total;

        println!(
            "{:>3} | {:>12} | {:>12} | {:>16} | {:>14} | {:>12}",
            n, seq_max, choice_max, dis_total, proc_max, par_total
        );
    }
    println!();
}

fn table_e5_theorem_instances() {
    println!("== E5: Section 5 theorem instances ==");
    println!(
        "{:<42} | {:>6} | {:>9} | {:>9} | {:>11} | {:>9}",
        "service", "traces", "deadlocks", "bisim", "comp-states", "unreduced"
    );
    let corpus: &[(&str, &str)] = &[
        ("a1;b2;exit (Example 4)", "SPEC a1; b2; exit ENDSPEC"),
        (
            "choice (Example 5 shape)",
            "SPEC (a1; b2; c1; exit) [] (e1; c1; exit) ENDSPEC",
        ),
        (
            "parallel bracket",
            "SPEC a1;exit >> (b2;exit ||| c3;exit) >> d1;exit ENDSPEC",
        ),
        ("a^n b^n (Example 2)", EXAMPLE2),
        ("transport 2-party", TRANSPORT2),
        ("file copy w/ interrupt (Example 3)", EXAMPLE3),
        ("transport 3-party w/ abort", TRANSPORT3),
    ];
    for (name, src) in corpus {
        let d = pipeline_derive(src);
        let r = verify_derivation(&d, VerifyConfig::new().trace_len(5));
        let full = verify_derivation(&d, VerifyConfig::new().trace_len(5).reduce(false));
        assert_eq!(
            (r.traces_equal, r.deadlocks, r.weak_bisimilar),
            (full.traces_equal, full.deadlocks, full.weak_bisimilar),
            "{name}: the reduction changed a verdict"
        );
        println!(
            "{:<42} | {:>6} | {:>9} | {:>9} | {:>11} | {:>9}",
            name,
            if r.traces_equal { "EQUAL" } else { "DIFFER" },
            r.deadlocks,
            match r.weak_bisimilar {
                Some(true) => "yes",
                Some(false) => "NO",
                None => "infinite",
            },
            r.composition_states,
            full.composition_states,
        );
    }
    println!();
}

fn table_e8_simulated_overhead() {
    println!("== E8: simulated synchronization overhead (100 seeded sessions each) ==");
    println!(
        "{:<34} | {:>7} | {:>8} | {:>10} | {:>9}",
        "service", "prims", "messages", "msgs/prim", "max queue"
    );
    for (name, src, refuse) in [
        ("Example 2 (a^n b^n)", EXAMPLE2, None),
        ("Example 3 (file copy)", EXAMPLE3, Some(("interrupt", 3u8))),
        ("transport 2-party", TRANSPORT2, None),
        ("transport 3-party", TRANSPORT3, Some(("abort", 2u8))),
    ] {
        let d = pipeline_derive(src);
        let (mut prims, mut msgs, mut maxq) = (0usize, 0usize, 0usize);
        for seed in 0..100u64 {
            let o = simulate(
                &d,
                SimConfig {
                    seed,
                    max_steps: 3000,
                    refuse: refuse.iter().map(|(n, p)| (n.to_string(), *p)).collect(),
                    ..SimConfig::default()
                },
            );
            prims += o.metrics.primitives;
            msgs += o.metrics.messages;
            maxq = maxq.max(o.metrics.max_queue_depth);
        }
        println!(
            "{:<34} | {:>7} | {:>8} | {:>10.2} | {:>9}",
            name,
            prims,
            msgs,
            msgs as f64 / prims.max(1) as f64,
            maxq
        );
    }
    println!();
}

fn table_e9_derivation_scaling() {
    println!("== E9: derivation scaling ==");
    println!(
        "{:>6} | {:>7} | {:>12} | {:>12} | {:>10}",
        "places", "nodes", "derive (µs)", "attrs (µs)", "msgs"
    );
    for (places, scale) in [(3u8, 2u32), (3, 3), (3, 4), (3, 5), (4, 5), (6, 5), (8, 5)] {
        let spec = scaled_spec(places, scale, 42);
        let size = spec_size(&spec);
        let attrs_time = {
            let t = Instant::now();
            for _ in 0..10 {
                let _ = lotos::attributes::evaluate(&spec);
            }
            t.elapsed().as_micros() / 10
        };
        let mut d = None;
        let t1 = Instant::now();
        for _ in 0..10 {
            d = Some(derive(&spec).unwrap());
        }
        let derive_time = t1.elapsed().as_micros() / 10;
        let msgs = message_stats(d.as_ref().unwrap()).total;
        println!(
            "{:>6} | {:>7} | {:>12} | {:>12} | {:>10}",
            places, size, derive_time, attrs_time, msgs
        );
    }
    println!();
}

/// E10: the paper's §3 motivation — centralized server vs. the derived
/// distributed protocol, messages and server load (100 sessions each).
fn table_e10_centralized_vs_distributed() {
    println!("== E10: centralized baseline vs distributed derivation (§3) ==");
    println!(
        "{:<28} | {:>10} {:>10} | {:>10} {:>10}",
        "service", "dist msgs", "dist@srv", "cent msgs", "cent@srv"
    );
    let corpus: &[(&str, &str)] = &[
        (
            "3-hop chain x3",
            "SPEC a1; b2; c3; b2; c3; b2; c3; d1; exit ENDSPEC",
        ),
        ("transport 2-party", TRANSPORT2),
        (
            "choice heavy",
            "SPEC (a1; b2; c3; d1; exit) [] (e1; f3; g2; d1; exit) ENDSPEC",
        ),
    ];
    for (name, src) in corpus {
        let spec = corpus_spec(src);
        let dist = derive(&spec).unwrap();
        let cent = protogen::centralized::centralize(&spec, 1).unwrap();
        let mut stats = [(0usize, 0usize), (0usize, 0usize)];
        for (k, d) in [&dist, &cent].into_iter().enumerate() {
            for seed in 0..100u64 {
                let o = simulate(
                    d,
                    SimConfig {
                        seed,
                        max_steps: 3000,
                        ..SimConfig::default()
                    },
                );
                stats[k].0 += o.metrics.messages;
                for ev in &o.events {
                    if let sim::SimEventKind::Sent(m) = &ev.kind {
                        if m.from == 1 || m.to == 1 {
                            stats[k].1 += 1;
                        }
                    }
                }
            }
        }
        println!(
            "{:<28} | {:>10} {:>10} | {:>10} {:>10}",
            name, stats[0].0, stats[0].1, stats[1].0, stats[1].1
        );
    }
    println!();
}
