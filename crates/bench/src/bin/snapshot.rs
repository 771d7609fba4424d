//! `snapshot` — regenerate one `BENCH_*.json` document at the repository
//! root, so the perf trajectory is tracked in-tree.
//!
//! Usage: `cargo run --release -p bench --bin snapshot -- <runtime|distributed|verify> [--quick]`
//!
//! * **runtime** (`BENCH_runtime.json`) — each spec is load-tested on
//!   the concurrent engine (one OS thread per protocol
//!   entity, many sessions in flight) under the reliable medium and under
//!   the lossy fault profile (ARQ recovery on every channel).
//! * **distributed** (`BENCH_distributed.json`) — the same load on the
//!   hub and one `serve_entity` thread per place over
//!   loopback TCP, over clean links and with every entity behind a
//!   seeded flaky [`FaultProxy`] that kills live connections, so the
//!   flaky rows price crash recovery (reconnects and retransmissions).
//! * **verify** (`BENCH_verify.json`) — the verification kernels timed on
//!   the service and composed-protocol LTSs, explored the way the
//!   harness does (exhaustive probe at `FINITE_PROBE_STATES`,
//!   observable-depth-bounded fallback, τ-confluence-reduced
//!   composition; the unreduced composition's state count is recorded
//!   beside it): **weak-bisim** naive (`semantics::naive`: per-state-BFS
//!   saturation and global-fixpoint partition) vs fast (τ-SCC condensed
//!   saturation and worklist refinement), **traces** naive
//!   (materialized `TraceSet`s) vs fast (hash-consed determinization and
//!   product-automaton walks), and **failures** naive
//!   (`semantics::failures`: per-trace refusal families) vs fast (both
//!   determinizations and the product walk over their stable initials).
//!
//! The load suites run each spec under the interpreted and `auto`
//! backends and write one [`LoadEntry`] per run. Disable (`[>`) specs
//! run with the interrupting primitive refused, the normal-completion
//! regime of EXPERIMENTS.md E6 under which the §3.3 deviation cannot
//! occur. A snapshot that would record a non-conforming or aborted run,
//! a flaky row without a kill or without a reconnect, or disagreeing
//! kernel verdicts panics instead. `--quick` (load suites only) runs fewer
//! sessions and marks each entry `"mode":"quick"`, so `perf-gate` never
//! pairs it with a full baseline.

use bench::snapshot::{verify_entry, write_snapshot, KernelTiming, LoadEntry, THREADS};
use protogen::derive::Derivation;
use protogen::{Derived, Pipeline};
use runtime::metrics::RuntimeReport;
use runtime::{
    run_hub_on, BackendChoice, DistributedConfig, FaultProfile, PipelineRun, RuntimeConfig,
    ServeConfig,
};
use semantics::detdfa::DetDfa;
use semantics::explore::{explore_par, DepthMode, ExploreConfig};
use semantics::failures::{failures, failures_equal};
use semantics::json::Json;
use semantics::json_obj;
use semantics::lts::Lts;
use semantics::{naive, traces};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use transport::{Addr, FaultProxy, LinkFaults};
use verify::{EngineComposition, EngineService};

const ROOT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
const SEED: u64 = 0xC0FFEE;

/// A snapshot suite, named on the command line.
#[derive(Clone, Copy, PartialEq)]
enum Suite {
    Runtime,
    Distributed,
    Verify,
}
use Suite::{Distributed, Runtime, Verify};

/// Disable triggers a load run refuses, as `(primitive, place)`.
type Refusals = &'static [(&'static str, u8)];

/// Every snapshot spec, the disable triggers its load runs refuse, and
/// the suites that run it.
const CORPUS: &[(&str, Refusals, &[Suite])] = &[
    ("example1_invocation.lotos", &[], &[Verify]),
    ("example2_anbn.lotos", &[], &[Verify]),
    ("example3_file_copy.lotos", &[("interrupt", 3)], ALL),
    ("example5_choice.lotos", &[], &[Verify]),
    ("transport2.lotos", &[], ALL),
    (
        "transport3_abort.lotos",
        &[("abort", 2)],
        &[Runtime, Verify],
    ),
    ("transport4_multiplex.lotos", &[("abort", 3)], &[Runtime]),
];
const ALL: &[Suite] = &[Runtime, Distributed, Verify];

/// The link faults of a `flaky-link` row: each proxied connection dies
/// 3–15 ms after it opens, twice per entity. A flaky row lasts 27–93 ms
/// in quick mode on 2 cores, so every proxy spends its kills. This is
/// not the CLI's `--link-faults flaky-link` (60–160 ms lives), whose
/// first kill would come after these runs end.
const FLAKY: LinkFaults = LinkFaults::Flaky {
    max_kills: 2,
    life_ms: (3, 15),
};

/// Parse, check and derive `specs/{name}`.
fn derive(name: &str) -> Derived {
    Pipeline::load_file(&format!("{ROOT}/specs/{name}"))
        .and_then(|p| p.check())
        .and_then(|c| c.derive())
        .unwrap_or_else(|e| panic!("specs/{name}: {e}"))
}

/// A distributed run with a 20 000-step session budget, each entity
/// behind a fault proxy when `faults` is set: the hub's report and the
/// connections the proxies killed.
fn run_sockets(
    d: &Derivation,
    cfg: &RuntimeConfig,
    faults: Option<LinkFaults>,
) -> (RuntimeReport, u64) {
    let cfg = &cfg.clone().max_steps(20_000);
    let dcfg = DistributedConfig::new(Addr::Tcp("127.0.0.1:0".to_string()));
    let listener = dcfg.listen.listen().expect("bind hub");
    let hub_addr = listener.local_addr().expect("hub addr");
    // Scoped entity threads are joined, and their panics raised, on
    // leaving the scope.
    std::thread::scope(|scope| {
        let mut proxies = Vec::new();
        for (p, spec) in &d.entities {
            let mut scfg = ServeConfig::new(hub_addr.clone(), *p);
            if let Some(f) = faults {
                let seed = SEED
                    .wrapping_add(*p as u64)
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15);
                let local = Addr::Tcp("127.0.0.1:0".to_string());
                let proxy = FaultProxy::spawn(&local, hub_addr.clone(), f, seed).expect("proxy");
                scfg.hub = proxy.addr.clone();
                proxies.push(proxy);
            }
            scfg.backend = cfg.backend;
            scfg.seed = SEED;
            scfg.backoff_base = Duration::from_millis(15);
            scfg.backoff_cap = Duration::from_millis(300);
            scfg.refuse = cfg.refuse.clone();
            scope.spawn(move || runtime::serve_entity(spec, &scfg).expect("entity outcome"));
        }
        let report = run_hub_on(d, cfg, &dcfg, listener).expect("hub run");
        (report, proxies.iter().map(FaultProxy::kills).sum())
    })
}

/// A concurrent-engine run after a warm-up pass (thread spawn and arena
/// population); no proxies, so no kills.
fn run_local(derived: &Derived, cfg: &RuntimeConfig) -> (RuntimeReport, u64) {
    derived.load_test(&cfg.clone().sessions(cfg.sessions / 10 + 1));
    (derived.load_test(cfg), 0)
}

/// One entry per backend × faults run of `name` on the `suite`'s engine:
/// reliable and lossy media in process, clean and flaky links on sockets.
fn load_entries(
    suite: Suite,
    name: &str,
    derived: &Derived,
    refuse: &[(&str, u8)],
    quick: bool,
) -> Vec<Json> {
    let (mode, sessions) = match (suite, quick) {
        (_, false) => ("full", 2000),
        (Runtime, true) => ("quick", 200),
        (_, true) => ("quick", 1000),
    };
    let d = derived.derivation();
    let mut entries = Vec::new();
    for backend in [BackendChoice::Interpreted, BackendChoice::Auto] {
        for faulty in [false, true] {
            let mut cfg = RuntimeConfig::new()
                .sessions(sessions)
                .threads(THREADS)
                .seed(SEED)
                .backend(backend);
            for &(prim, place) in refuse {
                cfg = cfg.refuse(prim, place);
            }
            let (tag, (report, kills)) = match (suite, faulty) {
                (Runtime, false) => ("reliable", run_local(derived, &cfg)),
                (Runtime, true) => {
                    let cfg = cfg.faults(FaultProfile::Lossy { loss: 0.2 });
                    ("lossy", run_local(derived, &cfg))
                }
                (_, false) => ("clean", run_sockets(d, &cfg, None)),
                (_, true) => ("flaky-link", run_sockets(d, &cfg, Some(FLAKY))),
            };
            let e = LoadEntry::new(name, mode, tag, &report, kills);
            assert!(
                report.passed() && report.aborted == 0,
                "{}: {}/{} conforming, {} aborted",
                e.key(),
                report.conforming,
                report.sessions,
                report.aborted
            );
            if tag == "flaky-link" {
                assert!(
                    e.kills > 0 && e.reconnects > 0,
                    "{}: no recovery priced",
                    e.key()
                );
            }
            entries.push(e.to_json());
        }
    }
    entries
}

const TRACE_LEN: usize = 6;
const MAX_STATES: usize = 60_000;
const FINITE_PROBE_STATES: usize = 6_000;

/// Time `f`: one warm-up run, then repeat inside a fixed wall-clock
/// budget (at least 9 runs) and keep the fastest — the usual steady-state
/// estimator for single-shot kernels, with enough repetitions that the
/// reported number is stable across snapshot invocations.
fn time_us<T>(mut f: impl FnMut() -> T) -> (f64, T) {
    let mut out = f();
    let budget = Duration::from_millis(60);
    let start = Instant::now();
    let mut best = f64::INFINITY;
    let mut runs = 0u32;
    while runs < 9 || (start.elapsed() < budget && runs < 50_000) {
        let t0 = Instant::now();
        out = f();
        let dt = t0.elapsed().as_secs_f64() * 1e6;
        if dt < best {
            best = dt;
        }
        runs += 1;
    }
    (best, out)
}

fn explore_side(sys: &impl semantics::explore::ParSystem) -> Lts {
    let probe = ExploreConfig::new().max_states(FINITE_PROBE_STATES);
    let full = explore_par(sys, &probe, DepthMode::Observable);
    if full.lts.complete {
        return full.lts;
    }
    let cfg = ExploreConfig::new()
        .max_states(MAX_STATES)
        .max_depth(TRACE_LEN);
    explore_par(sys, &cfg, DepthMode::Observable).lts
}

/// Time a kernel's naive and fast implementations on the same input.
fn kernel<T: PartialEq>(naive: impl FnMut() -> T, fast: impl FnMut() -> T) -> KernelTiming {
    let (naive_us, nv) = time_us(naive);
    let (fast_us, fv) = time_us(fast);
    KernelTiming {
        naive_us,
        fast_us,
        agree: nv == fv,
    }
}

/// The verify entry of `name`: service and composition sizes, and both
/// kernels naive vs fast.
fn verify_entry_of(name: &str, d: &Derivation) -> Json {
    let (service, comp, unreduced) = verify::harness::with_big_stack(|| {
        let service = explore_side(&EngineService::new(d.service.clone()));
        let medium = medium::MediumConfig::default();
        let comp = explore_side(&EngineComposition::new(d, medium));
        let full_sys = EngineComposition::with_reduction(d, medium, false);
        (service, comp, explore_side(&full_sys).len())
    });
    // Bisimulation is timed on the explored graphs as-is; the
    // `complete` gate is the harness's concern, not the kernel's cost.
    let (mut s, mut c) = (service.clone(), comp.clone());
    (s.complete, c.complete) = (true, true);
    let bisim = kernel(
        || naive::weak_equiv(&s, &c),
        || semantics::bisim::weak_equiv_threads(&s, &c, 1),
    );
    let trace = kernel(
        || {
            let ts = naive::observable_traces(&service, TRACE_LEN);
            let tc = naive::observable_traces(&comp, TRACE_LEN);
            let diff = traces::first_difference;
            (
                traces::trace_equal(&ts, &tc),
                diff(&ts, &tc),
                diff(&tc, &ts),
            )
        },
        || {
            let ds = DetDfa::build(&service, TRACE_LEN);
            let dc = DetDfa::build(&comp, TRACE_LEN);
            let diff = DetDfa::first_difference;
            (DetDfa::equal(&ds, &dc), diff(&ds, &dc), diff(&dc, &ds))
        },
    );
    let fail = kernel(
        || {
            let (fs, fc) = (failures(&service, TRACE_LEN), failures(&comp, TRACE_LEN));
            failures_equal(&fs, &fc)
        },
        || {
            let ds = DetDfa::build(&service, TRACE_LEN);
            DetDfa::failures_equal(&ds, &DetDfa::build(&comp, TRACE_LEN))
        },
    );
    assert!(bisim.agree, "{name}: weak-bisim verdicts disagree");
    assert!(trace.agree, "{name}: trace verdicts disagree");
    assert!(fail.agree, "{name}: stable-failures verdicts disagree");
    verify_entry(
        name,
        service.len(),
        comp.len(),
        unreduced,
        &bisim,
        &trace,
        &fail,
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    let (name, quick) = match args[..] {
        [name] => (name, false),
        [name, "--quick"] => (name, true),
        _ => ("", false),
    };
    let suite = match (name, quick) {
        ("runtime", _) => Runtime,
        ("distributed", _) => Distributed,
        ("verify", false) => Verify,
        _ => {
            eprintln!(
                "usage: snapshot <runtime|distributed|verify> [--quick] (--quick: load suites)"
            );
            return ExitCode::from(2);
        }
    };
    let mut entries = Vec::new();
    for &(spec, refuse, _) in CORPUS.iter().filter(|c| c.2.contains(&suite)) {
        let derived = derive(spec);
        let new = match suite {
            Verify => vec![verify_entry_of(spec, derived.derivation())],
            _ => load_entries(suite, spec, &derived, refuse, quick),
        };
        for entry in new {
            println!("{entry}");
            entries.push(entry);
        }
    }
    let config = match suite {
        Verify => json_obj! {
            "trace_len" => TRACE_LEN,
            "max_states" => MAX_STATES,
            "finite_probe_states" => FINITE_PROBE_STATES,
        },
        _ => json_obj! { "threads" => THREADS, "seed" => SEED, "quick" => quick },
    };
    write_snapshot(
        &format!("{ROOT}/BENCH_{name}.json"),
        &format!("cargo run --release -p bench --bin snapshot -- {name}"),
        config,
        entries,
    );
    ExitCode::SUCCESS
}
