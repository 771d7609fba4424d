//! `runtime-snapshot` — drive the concurrent entity runtime over the
//! `specs/` corpus and write `BENCH_runtime.json` at the repository
//! root, so the load-throughput trajectory (sessions/sec, session
//! latency quantiles, protocol overhead) is tracked in-tree alongside
//! `BENCH_verify.json`.
//!
//! Each corpus spec is derived and then load-tested on the concurrent
//! engine — one OS thread per protocol entity, many sessions in flight —
//! under the reliable medium and under the lossy fault profile (ARQ
//! recovery on every channel). Every run must conform: a snapshot that
//! would record a non-conforming run panics instead. Disable (`[>`)
//! specs run with the interrupting primitive refused, the
//! normal-completion regime of EXPERIMENTS.md E6 under which the §3.3
//! deviation cannot occur.
//!
//! Usage: `cargo run --release -p bench --bin runtime-snapshot [--quick] [--record]`
//!
//! `--record` switches the per-thread flight recorders on for every
//! run and prints the measured throughput WITHOUT writing
//! `BENCH_runtime.json` — it is the recorder-overhead measurement mode
//! (compare its stdout against the committed baseline), not a baseline
//! producer.

use bench::snapshot::{runtime_entry, write_snapshot, THREADS};
use protogen::Pipeline;
use runtime::{BackendChoice, FaultProfile, PipelineRun, RuntimeConfig};
use semantics::json_obj;

const SEED: u64 = 0xC0FFEE;

/// Corpus spec + the disable trigger to refuse (if any).
const CORPUS: &[(&str, &[(&str, u8)])] = &[
    ("transport2.lotos", &[]),
    ("example3_file_copy.lotos", &[("interrupt", 3)]),
    ("transport3_abort.lotos", &[("abort", 2)]),
    ("transport4_multiplex.lotos", &[("abort", 3)]),
];

fn profile_tag(p: FaultProfile) -> &'static str {
    match p {
        FaultProfile::None => "reliable",
        FaultProfile::Lossy { .. } => "lossy",
        FaultProfile::Reorder { .. } => "reorder",
        FaultProfile::Delay { .. } => "delay",
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    // CI artifacts default to the full workload; --quick is for local
    // iteration, and every entry records which mode produced it so the
    // two are never compared as equals.
    let mode = if quick { "quick" } else { "full" };
    let record = std::env::args().any(|a| a == "--record");
    let sessions = if quick { 200 } else { 2000 };
    let root = format!("{}/../..", env!("CARGO_MANIFEST_DIR"));
    let mut entries = Vec::new();

    for &(name, refuse) in CORPUS {
        let derived = Pipeline::load_file(&format!("{root}/specs/{name}"))
            .and_then(|p| p.check())
            .and_then(|c| c.derive())
            .unwrap_or_else(|e| panic!("specs/{name}: {e}"));

        // Backend axis: `Interpreted` forces the original path,
        // `Auto` compiles each entity to tables where it lowers. The
        // entry's `backend` field records what actually ran
        // (interpreted / compiled / mixed), so numbers from different
        // backends are never compared as equals.
        for backend in [BackendChoice::Interpreted, BackendChoice::Auto] {
            for profile in [FaultProfile::None, FaultProfile::Lossy { loss: 0.2 }] {
                let mut cfg = RuntimeConfig::new()
                    .sessions(sessions)
                    .threads(THREADS)
                    .seed(SEED)
                    .faults(profile)
                    .backend(backend)
                    .record(record);
                for &(prim, place) in refuse {
                    cfg = cfg.refuse(prim, place);
                }
                // Warm-up pass (thread spawn + arena population), then the
                // measured pass.
                derived.load_test(&cfg.clone().sessions(sessions / 10 + 1));
                let report = derived.load_test(&cfg);
                assert!(
                    report.passed(),
                    "{name} [{}/{}]: {}/{} sessions conforming",
                    profile_tag(profile),
                    report.backend,
                    report.conforming,
                    report.sessions
                );

                println!(
                    "{name:28} {:8} {:11} {sessions:>5} sessions x {THREADS} threads | \
                     {:>9.0} sessions/s | latency p50 {:>5}µs p99 {:>5}µs | \
                     overhead {:.2} | lost {:>4} retx {:>4}",
                    profile_tag(profile),
                    report.backend,
                    report.sessions_per_sec,
                    report.session_latency.p50,
                    report.session_latency.p99,
                    report.overhead_ratio(),
                    report.frames_lost,
                    report.retransmissions,
                );

                entries.push(runtime_entry(name, mode, profile_tag(profile), &report));
            }
        }
    }

    if record {
        println!("--record: overhead measurement only, BENCH_runtime.json untouched");
        return;
    }
    write_snapshot(
        &format!("{root}/BENCH_runtime.json"),
        "cargo run --release -p bench --bin runtime-snapshot",
        json_obj! { "threads" => THREADS, "seed" => SEED, "quick" => quick },
        entries,
    );
}
