//! `verify-gen`: the designer's path over seeded generated services.
//!
//! Each op takes one `specgen` service, as spec text, through
//! `Pipeline::load → check → derive → verify` on one thread. Every
//! verdict is then compared, outside the timed region, with an oracle
//! built from the legacy explorer and the `semantics::naive` kernels.

use crate::spans::Tracer;
use crate::stats::{self, Counts, Figures};
use crate::{host, Metric, Outcome};
use lotos::ast::Expr;
use lotos::event::Event;
use medium::MediumConfig;
use protogen::derive::Derivation;
use protogen::{Pipeline, PipelineConfig};
use semantics::bisim::{observation_congruent_threads, weak_equiv_threads};
use semantics::detdfa::DetDfa;
use semantics::explore::{explore_par, DepthMode, ParExploration, ParSystem};
use semantics::failures::{failures, failures_equal};
use semantics::naive;
use semantics::term::Env;
use std::time::{Duration, Instant};
use verify::harness::TermSystem;
use verify::{Composition, EngineComposition, EngineService, PipelineVerify, VerifyConfig};

/// Service access points of every generated spec.
pub const PLACES: u8 = 3;
/// Operator-nesting depth of every generated spec, under the
/// generator's default operator mix. Deeper specs have a heavy-tailed
/// cost: at depth 2 (with `|||` weight 1) one spec in a hundred takes
/// over 50 ms, the slowest 1% take 38% of the time, and a spec's cost
/// has a coefficient of variation of 4.7, so the mean over the few
/// thousand specs of a run moved by ±7% from seed to seed. At depth 1
/// the slowest spec of 3000 took 17 ms, the slowest 1% take 10%, and
/// the coefficient of variation is 1.4.
pub const MAX_DEPTH: u32 = 1;
/// Specs generated up front; more are generated (untimed) if a run
/// gets through them all.
const POOL: usize = 8192;
/// Least share of a traced op its named child spans must cover; an op
/// below it counts as failed.
pub const MIN_OP_COVERAGE: f64 = 0.9;
/// Specs verified by the per-layer side pass of the other workloads.
pub const SIDE_SPECS: usize = 400;

/// One generated service.
pub struct Item {
    pub spec_seed: u64,
    pub text: String,
}

/// The three verdicts the oracle must reproduce.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Verdict {
    pub traces_equal: bool,
    pub deadlocks: usize,
    pub weak_bisimilar: Option<bool>,
}

/// The `specgen` seed of spec `i` of a run seeded with `seed`.
pub fn spec_seed(seed: u64, i: u64) -> u64 {
    crate::mix(seed ^ crate::mix(i.wrapping_add(0x5eed)))
}

/// Generate specs `start..start + count` of the run's population.
pub fn generate(seed: u64, start: usize, count: usize) -> Vec<Item> {
    (start..start + count)
        .map(|i| {
            let spec_seed = spec_seed(seed, i as u64);
            let spec = specgen::generate(specgen::GenConfig {
                seed: spec_seed,
                places: PLACES,
                max_depth: MAX_DEPTH,
                ..specgen::GenConfig::default()
            });
            Item {
                spec_seed,
                text: lotos::printer::print_spec(&spec),
            }
        })
        .collect()
}

fn verify_config() -> VerifyConfig {
    VerifyConfig::new().threads(1)
}

fn derive(text: &str) -> Result<protogen::Derived, String> {
    Pipeline::load(text)
        .and_then(|p| p.with_config(PipelineConfig::new().threads(1)).check())
        .and_then(|c| c.derive())
        .map_err(|e| e.to_string())
}

/// The timed op: load, check, derive and verify one spec.
pub fn op(text: &str) -> Result<Verdict, String> {
    let derived = derive(text)?;
    let r = derived.verify_report(&verify_config());
    Ok(Verdict {
        traces_equal: r.traces_equal,
        deadlocks: r.deadlocks,
        weak_bisimilar: r.weak_bisimilar,
    })
}

/// The legacy explorer with the harness's policy: an exhaustive probe,
/// and only when that is truncated a depth-bounded re-exploration.
fn legacy_explore<Y: verify::System>(sys: &Y, cfg: &VerifyConfig) -> verify::Exploration<Y::State> {
    let probe = verify::explore_full(sys, cfg.finite_probe_states);
    if probe.lts.complete {
        return probe;
    }
    let mut e = verify::explore(sys, cfg.trace_len, cfg.explore.max_states);
    e.lts.complete = false;
    e
}

/// The oracle verdict: both sides explored by the legacy `Rc` explorer;
/// deadlocks are its stuck, unterminated composition states; traces and
/// weak bisimilarity come from the `semantics::naive` kernels.
pub fn oracle(text: &str) -> Result<Verdict, String> {
    let derived = derive(text)?;
    let d = derived.derivation();
    let cfg = verify_config();
    let env = Env::new(d.service.clone());
    let service = legacy_explore(&TermSystem { env: &env }, &cfg).lts;
    let comp = legacy_explore(&Composition::new(d, MediumConfig::default()), &cfg);
    let deadlocks = comp
        .stuck
        .iter()
        .filter(|&&s| !comp.states[s].terminated)
        .count();
    Ok(Verdict {
        traces_equal: naive::observable_traces(&service, cfg.trace_len).traces
            == naive::observable_traces(&comp.lts, cfg.trace_len).traces,
        deadlocks,
        weak_bisimilar: naive::weak_equiv(&service, &comp.lts),
    })
}

/// Oracle verdicts for `texts`, computed on `threads` big-stack threads.
pub fn oracle_all(texts: &[&str], threads: usize) -> Vec<Result<Verdict, String>> {
    let mut out: Vec<Option<Result<Verdict, String>>> = vec![None; texts.len()];
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|k| {
                std::thread::Builder::new()
                    .stack_size(256 << 20)
                    .spawn_scoped(s, move || {
                        (k..texts.len())
                            .step_by(threads)
                            .map(|i| (i, oracle(texts[i])))
                            .collect::<Vec<_>>()
                    })
                    .expect("spawn oracle thread")
            })
            .collect();
        for h in handles {
            for (i, v) in h.join().expect("oracle thread panicked") {
                out[i] = Some(v);
            }
        }
    });
    out.into_iter()
        .map(|v| v.expect("every spec has an oracle verdict"))
        .collect()
}

/// Compare recorded verdicts with the oracle's. Returns the number of
/// failed ops and one note per failure.
pub fn check(
    items: &[Item],
    got: &[Result<Verdict, String>],
    want: &[Result<Verdict, String>],
) -> (u64, Vec<String>) {
    let mut failed = 0;
    let mut notes = Vec::new();
    for ((item, g), w) in items.iter().zip(got).zip(want) {
        let ok = matches!((g, w), (Ok(a), Ok(b)) if a == b);
        if !ok {
            failed += 1;
            notes.push(format!(
                "FAILED spec_seed={}: verdict {g:?}, oracle {w:?}",
                item.spec_seed
            ));
        }
    }
    (failed, notes)
}

/// Specs whose verdict is "not weakly bisimilar" — kept
/// in the population and listed, never dropped.
fn non_bisimilar(items: &[Item], got: &[Result<Verdict, String>]) -> Vec<u64> {
    items
        .iter()
        .zip(got)
        .filter(|(_, v)| matches!(v, Ok(v) if v.weak_bisimilar == Some(false)))
        .map(|(item, _)| item.spec_seed)
        .collect()
}

/// §4.3 overhead of a derivation: message send sites per service
/// primitive site.
fn msgs_per_prim(d: &Derivation) -> f64 {
    let prims = d
        .service
        .iter_nodes()
        .filter(|(_, e)| {
            matches!(
                e,
                Expr::Prefix {
                    event: Event::Prim { .. },
                    ..
                }
            )
        })
        .count();
    protogen::stats::message_stats(d).total as f64 / prims.max(1) as f64
}

/// Explore like the harness: an exhaustive probe capped at the probe
/// size, and only when that is truncated a depth-bounded re-exploration.
/// Returns the exploration and whether the probe was wasted.
fn explore_adaptive<Y: ParSystem>(sys: &Y, cfg: &VerifyConfig) -> (ParExploration<Y::State>, bool) {
    let probe_cfg = cfg
        .explore
        .clone()
        .max_states(cfg.finite_probe_states.max(1));
    let probe = explore_par(sys, &probe_cfg, DepthMode::Observable);
    if probe.lts.complete {
        return (probe, false);
    }
    let bounded = cfg.explore.clone().max_depth(cfg.trace_len);
    let mut e = explore_par(sys, &bounded, DepthMode::Observable);
    e.lts.complete = false;
    (e, true)
}

/// What one traced op learned besides its verdict.
struct OpFacts {
    comp_states: usize,
    states: usize,
    probe_wasted: bool,
    msgs_per_prim: f64,
}

/// The traced op: `verify_derivation`'s sequence, step by step through
/// public calls, with a span around each layer. Also returns the share
/// of the op its child spans cover.
fn traced_op(tr: &mut Tracer, text: &str) -> (Result<(Verdict, OpFacts), String>, f64) {
    let op = tr.enter("op");
    let out: Result<_, String> = (|| {
        let p = tr.span("lotos.parse", |_| Pipeline::load(text));
        let p = p.map_err(|e| e.to_string())?;
        let c = tr.span("lotos.check", |_| {
            p.with_config(PipelineConfig::new().threads(1)).check()
        });
        let c = c.map_err(|e| e.to_string())?;
        let derived = tr.span("core.derive", |_| c.derive());
        let derived = derived.map_err(|e| e.to_string())?;
        let d = derived.derivation();
        let cfg = verify_config();
        let threads = cfg.explore.effective_threads().max(1);
        let v = tr.enter("verify");
        let res = verify::harness::with_big_stack(|| {
            let (svc, svc_wasted) = tr.span("semantics.explore", |_| {
                explore_adaptive(&EngineService::new(d.service.clone()), &cfg)
            });
            let (comp, comp_wasted) = tr.span("semantics.explore", |_| {
                explore_adaptive(&EngineComposition::new(d, cfg.medium), &cfg)
            });
            let deadlocks = comp
                .stuck
                .iter()
                .filter(|&&s| !comp.states[s].terminated)
                .count();
            let facts = OpFacts {
                comp_states: comp.states.len(),
                states: comp.states.len() + svc.states.len(),
                probe_wasted: svc_wasted || comp_wasted,
                msgs_per_prim: 0.0,
            };
            let (svc, comp) = (svc.lts, comp.lts);
            let traces_equal = tr.span("semantics.detdfa", |_| {
                let a = DetDfa::build(&svc, cfg.trace_len);
                let b = DetDfa::build(&comp, cfg.trace_len);
                let (eq, _) = DetDfa::equal(&a, &b);
                std::hint::black_box((
                    DetDfa::first_difference(&a, &b),
                    DetDfa::first_difference(&b, &a),
                    a.trace_set(),
                    b.trace_set(),
                ));
                eq
            });
            let weak_bisimilar = if cfg.try_bisim && svc.complete && comp.complete {
                let equal = tr.span("semantics.failures", |_| {
                    failures_equal(
                        &failures(&svc, cfg.trace_len),
                        &failures(&comp, cfg.trace_len),
                    )
                });
                tr.span("semantics.bisim", |_| {
                    std::hint::black_box((
                        equal,
                        observation_congruent_threads(&svc, &comp, threads),
                    ));
                    weak_equiv_threads(&svc, &comp, threads)
                })
            } else {
                None
            };
            (
                Verdict {
                    traces_equal,
                    deadlocks,
                    weak_bisimilar,
                },
                facts,
            )
        });
        tr.exit(v);
        Ok((res, derived))
    })();
    tr.exit(op);
    let covered = tr.spans[op].covered();
    // Outside the op span: the benchmark's own count, and the drop of
    // the derivation, which belongs to no layer.
    let out = out.map(|((verdict, mut facts), derived)| {
        facts.msgs_per_prim = msgs_per_prim(derived.derivation());
        (verdict, facts)
    });
    (out, covered)
}

/// A failure note for a traced op whose child spans cover less than
/// [`MIN_OP_COVERAGE`] of it: time spent outside the named layers.
pub fn coverage_failure(spec_seed: u64, covered: f64) -> Option<String> {
    (covered < MIN_OP_COVERAGE).then(|| {
        format!(
            "FAILED spec_seed={spec_seed}: child spans cover {:.1}% of the op, below {:.0}%",
            covered * 100.0,
            MIN_OP_COVERAGE * 100.0
        )
    })
}

/// Per-layer metrics of the verify path, from the run's specs traced
/// one by one until `budget` runs out or `max_specs` are done.
pub fn layer_pass(tr: &mut Tracer, seed: u64, budget: Duration, max_specs: usize) -> Outcome {
    let started = Instant::now();
    let mut items = Vec::new();
    let mut got = Vec::new();
    let mut facts = Vec::new();
    let mut uncovered = Vec::new();
    let mut retraced = 0;
    while got.len() < max_specs && started.elapsed() < budget {
        if got.len() == items.len() {
            items.extend(generate(seed, items.len(), 256));
        }
        let item = &items[got.len()];
        // An op below the coverage floor is traced again, like a stolen
        // sample: a host stall that falls between two spans does not
        // repeat, while time the spans do not name does.
        let mut runs = 0;
        let (out, covered) = loop {
            let (out, covered) = traced_op(tr, &item.text);
            runs += 1;
            if covered >= MIN_OP_COVERAGE || runs == host::ATTEMPTS {
                break (out, covered);
            }
        };
        retraced += runs - 1;
        uncovered.extend(coverage_failure(item.spec_seed, covered));
        match out {
            Ok((v, f)) => {
                got.push(Ok(v));
                facts.push(f);
            }
            Err(e) => got.push(Err(e)),
        }
    }
    let done = &items[..got.len()];
    let texts: Vec<&str> = done.iter().map(|i| i.text.as_str()).collect();
    let want = oracle_all(&texts, 2);
    let (mut failed, mut notes) = check(done, &got, &want);
    failed += uncovered.len() as u64;
    notes.extend(uncovered);
    notes.push(format!(
        "{retraced} extra traced runs of ops below {:.0}% span coverage",
        MIN_OP_COVERAGE * 100.0
    ));
    // Per-op means are over every traced run of an op.
    let n = tr.spans.iter().filter(|s| s.name == "op").count().max(1) as f64;
    let selfs = tr.self_times();
    let totals = tr.totals();
    let per_op_us = |name: &str| totals.get(name).map_or(0.0, |&t| t as f64 / 1e3 / n);
    let explore_s = totals
        .get("semantics.explore")
        .map_or(0.0, |&t| t as f64 / 1e9);
    let states: usize = facts.iter().map(|f| f.states).sum();
    let fl = facts.len().max(1) as f64;
    for (parent, children) in [("op", "lotos/core/verify"), ("verify", "semantics")] {
        if let Some(c) = tr.child_coverage(parent) {
            notes.push(format!(
                "spans: {children} children cover {:.1}% of all `{parent}` time; \
                 {:.1}% of `{parent}` spans are at least 90% covered (min {:.1}%)",
                c.total * 100.0,
                c.at_least_90 * 100.0,
                c.min * 100.0
            ));
        }
    }
    let metrics = vec![
        Metric::new("lotos.parse_us", per_op_us("lotos.parse"), "us"),
        Metric::new("lotos.check_us", per_op_us("lotos.check"), "us"),
        Metric::new("core.derive_us", per_op_us("core.derive"), "us"),
        Metric::new(
            "core.msgs_per_prim",
            facts.iter().map(|f| f.msgs_per_prim).sum::<f64>() / fl,
            "count",
        ),
        Metric::new("semantics.explore_us", per_op_us("semantics.explore"), "us"),
        Metric::new(
            "semantics.comp_states",
            facts.iter().map(|f| f.comp_states).sum::<usize>() as f64 / fl,
            "count",
        ),
        Metric::new(
            "semantics.states_per_s",
            states as f64 / explore_s.max(1e-9),
            "1/s",
        ),
        Metric::new(
            "semantics.probe_wasted_share",
            facts.iter().filter(|f| f.probe_wasted).count() as f64 / fl,
            "ratio",
        ),
        Metric::new("semantics.detdfa_us", per_op_us("semantics.detdfa"), "us"),
        Metric::new("semantics.bisim_us", per_op_us("semantics.bisim"), "us"),
        Metric::new(
            "semantics.failures_us",
            per_op_us("semantics.failures"),
            "us",
        ),
        Metric::new(
            "verify.self_us",
            selfs.get("verify").map_or(0.0, |&t| t as f64 / 1e3 / n),
            "us",
        ),
    ];
    Outcome {
        attempted: got.len() as u64,
        failed,
        metrics,
        notes,
        spans: None,
    }
}

/// Ops per slice of a run, about a second. Each timing metric is the
/// median over the run's slices of the slice's own figure, and
/// `peak_rss_mb` the median of the slices' peaks.
const SLICE_OPS: usize = 1024;

/// One timed op's wall and CPU time, in nanoseconds.
struct Sample {
    wall_ns: u64,
    cpu_ns: u64,
}

/// One slice: its ops and the host probes run between them.
struct Slice {
    ops: Vec<Sample>,
    probes: Vec<(u64, u64)>,
    peak_rss_mb: f64,
}

impl Slice {
    /// The slice's figures, times multiplied by `factors`.
    fn figures(&self, factors: (f64, f64)) -> Figures {
        let mut lat = Counts::default();
        for s in &self.ops {
            lat.add(s.wall_ns);
        }
        let wall_ns: u64 = self.ops.iter().map(|s| s.wall_ns).sum();
        let cpu_ns: u64 = self.ops.iter().map(|s| s.cpu_ns).sum();
        Figures::new(
            self.ops.len(),
            wall_ns as f64 / 1e9,
            cpu_ns,
            &lat,
            1e-3,
            factors,
        )
    }
}

/// The untraced `verify-gen` run.
///
/// The run is a sequence of slices of [`SLICE_OPS`] ops. Each slice runs
/// on one CPU (the process's CPUs in turn), so that the big-stack thread
/// each verification spawns hands off on the CPU it was spawned from
/// instead of waking the other vCPU through the hypervisor. Between ops
/// the host probe (`host::probe`) runs after every
/// [`host::PROBE_EVERY`] of op time, and a slice's wall and CPU times
/// are scaled to the nominal host by its probes' median times. The
/// unscaled figures are printed beside them.
pub fn run(seed: u64, seconds: f64) -> Result<Outcome, String> {
    let mut items = Vec::new();
    let setup_s = host::setup_scaled(|| {
        items = generate(seed, 0, POOL);
        Ok(())
    })?;

    let cpus = host::allowed_cpus();
    let mut slices: Vec<Slice> = Vec::new();
    let mut got = Vec::new();
    let mut retimed = 0usize;
    let mut nondeterministic = Vec::new();
    // Slices run until the timed op times add up to the budget, so
    // repeated runs do not cut the number of specs a run samples; wall
    // time is capped at one and a half budgets.
    let started = Instant::now();
    let mut busy_s = 0.0;
    let resettable = host::reset_peak_rss();
    while busy_s < seconds && started.elapsed().as_secs_f64() < seconds * 1.5 {
        host::pin(&[cpus[slices.len() % cpus.len()]]);
        let mut slice = Slice {
            ops: Vec::with_capacity(SLICE_OPS),
            probes: vec![host::probe()],
            peak_rss_mb: 0.0,
        };
        let mut since_probe = Duration::ZERO;
        while slice.ops.len() < SLICE_OPS {
            if since_probe >= host::PROBE_EVERY {
                slice.probes.push(host::probe());
                since_probe = Duration::ZERO;
            }
            if got.len() == items.len() {
                items.extend(generate(seed, items.len(), POOL));
            }
            let item = &items[got.len()];
            let runs = host::timed(|| Ok(op(&item.text)))?;
            retimed += runs.len() - 1;
            if runs.iter().any(|r| r.out != runs[0].out) {
                nondeterministic.push(item.spec_seed);
            }
            let last = runs.into_iter().last().expect("at least one run");
            busy_s += last.secs;
            since_probe += Duration::from_secs_f64(last.secs);
            slice.ops.push(Sample {
                wall_ns: (last.secs * 1e9) as u64,
                cpu_ns: last.cpu_ns,
            });
            got.push(last.out);
        }
        slice.probes.push(host::probe());
        slice.peak_rss_mb = host::peak_rss_mb();
        host::reset_peak_rss();
        slices.push(slice);
    }
    host::pin(&cpus);

    let n = got.len();
    items.truncate(n);
    let texts: Vec<&str> = items.iter().map(|i| i.text.as_str()).collect();
    let want = oracle_all(&texts, 2);
    let (mut failed, mut notes) = check(&items, &got, &want);
    failed += nondeterministic.len() as u64;
    for s in nondeterministic {
        notes.push(format!(
            "FAILED spec_seed={s}: verdict changed between runs"
        ));
    }
    notes.push(format!(
        "{n} specs verified in {} slices on CPUs {cpus:?} in turn, {retimed} extra runs after host steal",
        slices.len()
    ));
    let nb = non_bisimilar(&items, &got);
    notes.push(format!(
        "non-bisimilar specs kept ({}): spec_seed {:?} (places={PLACES}, max_depth={MAX_DEPTH})",
        nb.len(),
        nb
    ));

    let factors: Vec<(f64, f64)> = slices
        .iter()
        .map(|s| host::scale_factors(&s.probes))
        .collect();
    let scaled: Vec<Figures> = slices
        .iter()
        .zip(&factors)
        .map(|(s, &f)| s.figures(f))
        .collect();
    let unscaled: Vec<Figures> = slices.iter().map(|s| s.figures((1.0, 1.0))).collect();
    let peaks: Vec<f64> = slices.iter().map(|s| s.peak_rss_mb).collect();
    let rss = stats::median(&stats::sorted(peaks.clone()));
    notes.push(format!(
        "{} host probes; peak RSS: median {rss:.2} MB over {} slices, highest {:.2} MB{}",
        slices.iter().map(|s| s.probes.len()).sum::<usize>(),
        peaks.len(),
        peaks.iter().copied().fold(0.0, f64::max),
        if resettable {
            ""
        } else {
            " (VmHWM cannot be reset here: each slice reads the peak so far)"
        }
    ));
    let mut metrics = stats::timing_metrics(&scaled, &unscaled, &factors, n, &mut notes);
    metrics.push(Metric::new("setup_s", setup_s, "s").samples(host::SETUP_REPS));
    metrics.push(Metric::new("peak_rss_mb", rss, "MB").samples(slices.len()));
    Ok(Outcome {
        attempted: n as u64,
        failed,
        metrics,
        notes,
        spans: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sabotaged_expected_verdict_counts_as_failed() {
        let items = generate(7, 0, 3);
        let got: Vec<_> = items.iter().map(|i| op(&i.text)).collect();
        let mut want = oracle_all(
            &items.iter().map(|i| i.text.as_str()).collect::<Vec<_>>(),
            1,
        );
        assert_eq!(check(&items, &got, &want).0, 0);
        if let Ok(v) = &mut want[1] {
            v.traces_equal = !v.traces_equal;
        }
        assert_eq!(check(&items, &got, &want).0, 1);
    }

    #[test]
    fn an_op_its_spans_do_not_cover_counts_as_failed() {
        let mut tr = Tracer::new();
        tr.span("op", |tr| {
            tr.span("lotos.parse", |_| {
                std::thread::sleep(Duration::from_millis(2))
            });
            std::thread::sleep(Duration::from_millis(2));
        });
        assert!(coverage_failure(1, tr.spans[0].covered()).is_some());
        let (out, covered) = traced_op(&mut tr, &generate(7, 0, 1)[0].text);
        assert!(out.is_ok());
        assert!(coverage_failure(1, covered).is_none(), "{covered}");
    }

    #[test]
    fn same_seed_same_specs() {
        let a = generate(3, 0, 4);
        let b = generate(3, 0, 4);
        assert!(a.iter().zip(&b).all(|(x, y)| x.text == y.text));
        assert_ne!(a[0].text, generate(4, 0, 1)[0].text);
    }
}
