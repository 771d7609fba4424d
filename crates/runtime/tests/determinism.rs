//! `threads <= 1` selects the deterministic engine: a fixed seed must
//! reproduce the DES trace exactly, run after run — and backend choice
//! (interpreted terms vs compiled tables) must never change the trace.

use protogen::Pipeline;
use runtime::{BackendChoice, FaultProfile, PipelineRun, RuntimeConfig};
use semantics::json::Json;
use sim::des::SimConfig;

const SPECS: [&str; 3] = [
    "transport2.lotos",
    "example3_file_copy.lotos",
    "transport4_multiplex.lotos",
];

fn derived(name: &str) -> protogen::pipeline::Derived {
    let path = format!("{}/../../specs/{name}", env!("CARGO_MANIFEST_DIR"));
    Pipeline::load_file(&path)
        .unwrap()
        .check()
        .unwrap()
        .derive()
        .unwrap()
}

/// One session at `threads 1` is byte-identical to `sim::des::simulate`
/// under the same seed — the runtime's sequential engine IS the DES.
#[test]
fn single_thread_reproduces_the_des_trace() {
    for name in SPECS {
        let d = derived(name);
        for seed in [1u64, 0xC0FFEE, 424242] {
            let des = sim::des::simulate(d.derivation(), SimConfig::new().seed(seed));
            let cfg = RuntimeConfig::new().sessions(1).threads(1).seed(seed);
            let report = d.load_test(&cfg);
            assert_eq!(report.engine, "deterministic");
            assert_eq!(
                report.reports[0].trace, des.trace,
                "{name} seed {seed}: runtime trace diverged from the DES"
            );
            assert_eq!(report.reports[0].messages, des.metrics.messages);
            assert_eq!(report.reports[0].steps, des.metrics.steps);
        }
    }
}

/// Multi-session deterministic runs follow the CLI `simulate --runs`
/// seeding convention: session `k` behaves like seed `base + k`.
#[test]
fn session_seeds_follow_the_runs_convention() {
    let d = derived("transport2.lotos");
    let cfg = RuntimeConfig::new().sessions(3).threads(1).seed(100);
    let report = d.load_test(&cfg);
    for (k, rep) in report.reports.iter().enumerate() {
        let des = sim::des::simulate(d.derivation(), SimConfig::new().seed(100 + k as u64));
        assert_eq!(rep.steps, des.metrics.steps, "session {k}");
        assert_eq!(rep.messages, des.metrics.messages, "session {k}");
    }
}

/// Corpus members whose *every* entity lowers to tables under the
/// default budgets — the compiled-backend landscape, pinned so a
/// lowering regression (an entity silently falling back) is visible.
const FULLY_COMPILED: [&str; 4] = [
    "transport2.lotos",
    "example1_invocation.lotos",
    "example6_disable.lotos",
    "example7_instances.lotos",
];

/// Differential parity: at `threads <= 1` the compiled backend must
/// reproduce the interpreted run exactly — same traces, same verdicts,
/// same step and message counts, session by session. The table rows
/// preserve the SOS successor order, so the same RNG draw picks the
/// same move on both backends.
#[test]
fn compiled_backend_matches_interpreted_deterministic_runs() {
    for name in FULLY_COMPILED {
        let d = derived(name);
        for seed in [1u64, 0xC0FFEE] {
            let base = RuntimeConfig::new()
                .sessions(4)
                .threads(1)
                .seed(seed)
                .max_steps(20_000);
            let interp = d.load_test(&base.clone().backend(BackendChoice::Interpreted));
            let comp = d.load_test(&base.clone().backend(BackendChoice::Compiled));
            assert_eq!(interp.backend, "interpreted");
            assert_eq!(comp.backend, "compiled", "{name}: tables were not used");
            assert_eq!(interp.reports.len(), comp.reports.len());
            for (a, b) in interp.reports.iter().zip(&comp.reports) {
                assert_eq!(a.trace, b.trace, "{name} seed {seed} session {}", a.id);
                assert_eq!(a.end, b.end, "{name} seed {seed} session {}", a.id);
                assert_eq!(
                    a.conforms, b.conforms,
                    "{name} seed {seed} session {}",
                    a.id
                );
                assert_eq!(a.steps, b.steps, "{name} seed {seed} session {}", a.id);
                assert_eq!(
                    a.messages, b.messages,
                    "{name} seed {seed} session {}",
                    a.id
                );
            }
            assert_eq!(interp.conforming, comp.conforming);
            assert_eq!(interp.violations.len(), comp.violations.len());
            // Whole-report parity modulo the declared backend and
            // wall-clock timings: both reports, parsed back with those
            // fields removed, must be equal.
            assert_eq!(
                normalize(&interp.to_json().to_string()),
                normalize(&comp.to_json().to_string()),
                "{name} seed {seed}: reports differ beyond backend/timing fields"
            );
        }
    }
}

/// Parse a report and remove, at every depth, the fields that
/// legitimately differ between two otherwise identical runs: the
/// declared backend (top-level and config) and every wall-clock
/// measurement (`wall_s`, `sessions_per_sec`, `phases`, and each `*_us`
/// latency figure). Counts inside latency summaries stay.
fn normalize(json: &str) -> Json {
    fn strip(v: Json) -> Json {
        match v {
            Json::Obj(members) => Json::Obj(
                members
                    .into_iter()
                    .filter(|(k, _)| {
                        !matches!(
                            k.as_str(),
                            "backend" | "wall_s" | "sessions_per_sec" | "phases"
                        ) && !k.ends_with("_us")
                    })
                    .map(|(k, v)| (k, strip(v)))
                    .collect(),
            ),
            Json::Arr(items) => Json::Arr(items.into_iter().map(strip).collect()),
            v => v,
        }
    }
    strip(Json::parse(json).expect("report parses"))
}

/// Refusals are applied against the backend's offer views: refusing a
/// primitive must yield the same per-session verdicts whichever backend
/// steps the entities (offer-refusal parity).
#[test]
fn offer_refusal_parity_between_backends() {
    for (name, prim, place) in [
        ("transport2.lotos", "dtreq", 1u8),
        ("transport2.lotos", "conresp", 2),
        ("example6_disable.lotos", "d", 3),
    ] {
        let d = derived(name);
        for seed in [3u64, 17] {
            let base = RuntimeConfig::new()
                .sessions(4)
                .threads(1)
                .seed(seed)
                .max_steps(20_000)
                .refuse(prim, place);
            let interp = d.load_test(&base.clone().backend(BackendChoice::Interpreted));
            let comp = d.load_test(&base.clone().backend(BackendChoice::Compiled));
            for (a, b) in interp.reports.iter().zip(&comp.reports) {
                let ctx = format!("{name} refuse {prim}@{place} seed {seed} session {}", a.id);
                assert_eq!(a.end, b.end, "{ctx}");
                assert_eq!(a.conforms, b.conforms, "{ctx}");
                assert_eq!(a.trace, b.trace, "{ctx}");
                assert_eq!(a.steps, b.steps, "{ctx}");
            }
        }
    }
}

/// Entities whose live-ancestor relation keeps growing (receding
/// recursion mints fresh occurrence shapes forever) cannot be lowered:
/// `Auto` silently interprets them, `Compiled` refuses loudly.
#[test]
fn unbounded_recursion_falls_back_under_auto_and_errors_under_compiled() {
    let d = derived("example3_file_copy.lotos");
    let cfg = RuntimeConfig::new().sessions(2).threads(1).seed(7);
    let auto = d.load_test(&cfg.clone().backend(BackendChoice::Auto));
    assert_eq!(auto.backend, "interpreted", "fallback was not taken");
    let err = runtime::try_run(
        d.derivation(),
        &cfg.clone().backend(BackendChoice::Compiled),
    )
    .expect_err("compiled must refuse a non-lowerable entity");
    assert!(
        err.contains("cannot be lowered"),
        "unexpected error shape: {err}"
    );
}

/// `[>` nested inside gated parallel (`|[G]|`) lowers when the shape
/// space stays bounded: transport3's place-3 entity (abort interrupt
/// under a gated composition) compiles while places 1/2 (receding
/// recursion) interpret — a per-entity mix the concurrent engine runs
/// and reports as `mixed`. Verdicts must match the all-interpreted run.
#[test]
fn disable_inside_gated_parallel_lowers_where_bounded() {
    let d = derived("transport3_abort.lotos");
    let base = RuntimeConfig::new()
        .sessions(4)
        .threads(4)
        .seed(0xC0FFEE)
        .max_steps(20_000)
        .refuse("abort", 2);
    let auto = d.load_test(&base.clone());
    assert_eq!(auto.backend, "mixed", "expected a per-entity backend mix");
    let interp = d.load_test(&base.clone().backend(BackendChoice::Interpreted));
    assert_eq!(interp.backend, "interpreted");
    assert!(auto.passed(), "mixed-backend run failed");
    assert!(interp.passed(), "interpreted run failed");
    assert_eq!(auto.conforming, interp.conforming);
}

/// The deterministic engine is reproducible under fault profiles too —
/// same seed, same outcome, including the fault counters.
#[test]
fn deterministic_engine_is_reproducible_under_faults() {
    let d = derived("example3_file_copy.lotos");
    let run = |seed| {
        let cfg = RuntimeConfig::new()
            .sessions(5)
            .threads(1)
            .seed(seed)
            .faults(FaultProfile::Lossy { loss: 0.25 });
        let r = d.load_test(&cfg);
        (
            r.conforming,
            r.messages,
            r.frames_lost,
            r.retransmissions,
            r.reports.iter().map(|s| s.steps).collect::<Vec<_>>(),
        )
    };
    assert_eq!(run(9), run(9));
    assert_ne!(run(9).4, run(10).4, "different seeds, identical runs");
}
