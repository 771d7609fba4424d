//! Golden outcomes of `sim::des::simulate` over the whole `specs/` corpus.
//!
//! Each case is one seeded run on the reliable medium or on a lossy link
//! (`loss 0.2`, ARQ recovery). The trace, step and message counts, the
//! result, the violation, the kind of every logged event and the link
//! layer's loss and retransmission counts are folded into one FNV-1a
//! hash per case, so any change to which move a seed picks — or to the
//! occurrence numbers on the messages — shows up here.
//! Event times are left out: they are floats derived from the same draws.

use lotos::parser::parse_spec;
use protogen::derive::derive;
use sim::des::{simulate, LinkConfig, SimConfig};

const SEEDS: [u64; 3] = [1, 0xC0FFEE, 424242];

/// `(spec, seed, lossy, hash)`.
const GOLDEN: &[(&str, u64, bool, u64)] = &[
    ("example1_invocation", 0x1, false, 0x2b4b9f9a0e65f5d9),
    ("example1_invocation", 0x1, true, 0x2b4b9f9a0e65f5d9),
    ("example1_invocation", 0xc0ffee, false, 0x2b4b9f9a0e65f5d9),
    ("example1_invocation", 0xc0ffee, true, 0x2b4b9f9a0e65f5d9),
    ("example1_invocation", 0x67932, false, 0x2b4b9f9a0e65f5d9),
    ("example1_invocation", 0x67932, true, 0x2403f49a0aaae2f6),
    ("example2_anbn", 0x1, false, 0xdac8a1c5711b3325),
    ("example2_anbn", 0x1, true, 0xd380f7c56d6021f5),
    ("example2_anbn", 0xc0ffee, false, 0x784c308d128d88a0),
    ("example2_anbn", 0xc0ffee, true, 0xdac8a1c5711b3325),
    ("example2_anbn", 0x67932, false, 0x784c308d128d88a0),
    ("example2_anbn", 0x67932, true, 0x22914c417959c574),
    ("example3_file_copy", 0x1, false, 0x160350e8b19ae812),
    ("example3_file_copy", 0x1, true, 0xf8b24371b5f95af4),
    ("example3_file_copy", 0xc0ffee, false, 0x28275c9ac173f72a),
    ("example3_file_copy", 0xc0ffee, true, 0xa9f722adc67b854c),
    ("example3_file_copy", 0x67932, false, 0xca65782d7ad9660f),
    ("example3_file_copy", 0x67932, true, 0xe3cac895614debc5),
    ("example5_choice", 0x1, false, 0x225b4283f2960c2f),
    ("example5_choice", 0x1, true, 0xdfe1c725ae36e5ce),
    ("example5_choice", 0xc0ffee, false, 0x14cbcf562c08035d),
    ("example5_choice", 0xc0ffee, true, 0x8bbef1171d64f1b2),
    ("example5_choice", 0x67932, false, 0xe54e758fc134c851),
    ("example5_choice", 0x67932, true, 0xea203d22e514bf90),
    ("example6_disable", 0x1, false, 0x19dccde118f99298),
    ("example6_disable", 0x1, true, 0xc7693a2854abbb92),
    ("example6_disable", 0xc0ffee, false, 0xe145117b61971692),
    ("example6_disable", 0xc0ffee, true, 0xac0cf0485974ad7b),
    ("example6_disable", 0x67932, false, 0xca544dc44e8c8bc2),
    ("example6_disable", 0x67932, true, 0x8507391ba5f8102d),
    ("example7_instances", 0x1, false, 0x449ec4ec7a3be38c),
    ("example7_instances", 0x1, true, 0x9ab57e54ffe06c5c),
    ("example7_instances", 0xc0ffee, false, 0x9efb65b2648b5744),
    ("example7_instances", 0xc0ffee, true, 0x9659e3d6d0394209),
    ("example7_instances", 0x67932, false, 0x30e056f111829656),
    ("example7_instances", 0x67932, true, 0x4a1638c177978b99),
    ("transport2", 0x1, false, 0x9d9a4e2d521d27c6),
    ("transport2", 0x1, true, 0xa848782d58bc3b76),
    ("transport2", 0xc0ffee, false, 0x9d9a4e2d521d27c6),
    ("transport2", 0xc0ffee, true, 0x4ed01f58e518411a),
    ("transport2", 0x67932, false, 0xf8a22d3e6b9641d3),
    ("transport2", 0x67932, true, 0xa848782d58bc3b76),
    ("transport3_abort", 0x1, false, 0x0c983dcef5adfe44),
    ("transport3_abort", 0x1, true, 0x3494c9cf0a639510),
    ("transport3_abort", 0xc0ffee, false, 0xa796174b5eaca4fc),
    ("transport3_abort", 0xc0ffee, true, 0x8bb44252e4ee1e28),
    ("transport3_abort", 0x67932, false, 0xc5d5cb9a34e839a0),
    ("transport3_abort", 0x67932, true, 0x58f381095f5bf24d),
    ("transport4_multiplex", 0x1, false, 0xe050e11f17d652ed),
    ("transport4_multiplex", 0x1, true, 0xa7f3d0e8ebb910fb),
    ("transport4_multiplex", 0xc0ffee, false, 0xafbcc9c52ab4f1ec),
    ("transport4_multiplex", 0xc0ffee, true, 0x4a5a3376bdfe27e6),
    ("transport4_multiplex", 0x67932, false, 0x3c0e3886cd64f888),
    ("transport4_multiplex", 0x67932, true, 0xebb35cda0159a3a6),
];

fn fnv1a(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn corpus() -> Vec<(String, String)> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../specs");
    let mut out: Vec<(String, String)> = std::fs::read_dir(dir)
        .expect("specs/")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "lotos"))
        .map(|p| {
            let name = p.file_stem().unwrap().to_string_lossy().into_owned();
            (name, std::fs::read_to_string(&p).expect("spec file"))
        })
        .collect();
    out.sort();
    out
}

#[test]
fn des_outcomes_match_the_golden_hashes() {
    let corpus = corpus();
    assert_eq!(corpus.len(), 9, "specs/ corpus changed");
    let mut actual = Vec::new();
    for (name, src) in &corpus {
        let d = derive(&parse_spec(src).unwrap()).unwrap();
        for seed in SEEDS {
            for lossy in [false, true] {
                let mut cfg = SimConfig::new().seed(seed);
                if lossy {
                    cfg = cfg.link(LinkConfig {
                        loss: 0.2,
                        ..LinkConfig::default()
                    });
                }
                let o = simulate(&d, cfg);
                let kinds: Vec<_> = o.events.iter().map(|e| &e.kind).collect();
                let rendered = format!(
                    "{:?}|{}|{}|{:?}|{:?}|{:?}|{}|{}",
                    o.trace,
                    o.metrics.steps,
                    o.metrics.messages,
                    o.result,
                    o.violation,
                    kinds,
                    o.metrics.frames_lost,
                    o.metrics.retransmissions
                );
                actual.push((name.clone(), seed, lossy, fnv1a(&rendered)));
            }
        }
    }
    let expected: Vec<(String, u64, bool, u64)> = GOLDEN
        .iter()
        .map(|&(n, s, l, h)| (n.to_string(), s, l, h))
        .collect();
    if actual != expected {
        let table: String = actual
            .iter()
            .map(|(n, s, l, h)| format!("    (\"{n}\", {s:#x}, {l}, {h:#018x}),\n"))
            .collect();
        panic!("DES outcomes drifted from the golden table; actual:\n{table}");
    }
}
