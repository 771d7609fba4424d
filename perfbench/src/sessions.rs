//! `local-clean` and `dist-loopback`: the operator's path.
//!
//! Both run sessions of the transport2 service's derived protocol,
//! closed loop from one caller thread, in batches of a fixed number of
//! sessions. `local-clean` uses the concurrent in-process engine (one
//! thread per entity, `threads = 2`, so 64 sessions in flight);
//! `dist-loopback` runs the hub in the caller thread and one
//! `serve_entity` thread per place, over loopback TCP (2 connections, a
//! session window of 32). The runtime replays every session against
//! the service; the benchmark counts each session that does not
//! conform — a violation, an abort, a deadlock, a step-limit stop or a
//! session missing from the report — as a failed op.

use crate::host::{self, Timed};
use crate::stats::{self, Counts, Figures};
use crate::{Metric, Outcome};
use protogen::derive::Derivation;
use protogen::{Pipeline, PipelineConfig};
use runtime::{
    lower_for, run_hub_on, serve_entity, BackendChoice, DistributedConfig, LinkReport,
    RuntimeConfig, RuntimeReport, ServeConfig,
};
use std::time::{Duration, Instant};
use transport::Addr;

/// The service every session runs: `specs/transport2.lotos`, kept here
/// so the benchmark's input does not change when the corpus does.
pub const TRANSPORT2: &str = "\
SPEC conreq1; conind2; conresp2; conconf1; DATA WHERE
  PROC DATA = (dtreq1; dtind2; DATA) [] (disreq1; disind2; exit) END
ENDSPEC
";

/// Session concurrency: the in-process engine keeps `threads × 32`
/// sessions in flight; the hub's window is `max(threads × 8, 32)`.
const THREADS: usize = 2;
/// Sessions in a side batch (a layer pass of another workload).
pub const SIDE_SESSIONS: usize = 2_000;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Engine {
    Local,
    Dist,
}

impl Engine {
    /// Sessions per timed batch: about half a second of work, so a run
    /// has enough batches for a median and a batch's fixed costs
    /// (thread spawn, connect, handshake, drain) stay small.
    pub fn batch(self) -> usize {
        match self {
            Engine::Local => 16_000,
            Engine::Dist => 8_000,
        }
    }
}

/// The derived protocol, with the time each preparation step took.
pub struct Prepared {
    pub derivation: Derivation,
    pub parse_us: f64,
    pub check_us: f64,
    pub derive_us: f64,
    pub lower_us: f64,
}

/// Load, check, derive and lower the session spec.
pub fn prepare() -> Result<Prepared, String> {
    let t = Instant::now();
    let p = Pipeline::load(TRANSPORT2).map_err(|e| e.to_string())?;
    let parse_us = t.elapsed().as_secs_f64() * 1e6;
    let t = Instant::now();
    let c = p
        .with_config(PipelineConfig::new().threads(1))
        .check()
        .map_err(|e| e.to_string())?;
    let check_us = t.elapsed().as_secs_f64() * 1e6;
    let t = Instant::now();
    let derivation = c.derive().map_err(|e| e.to_string())?.into_derivation();
    let derive_us = t.elapsed().as_secs_f64() * 1e6;
    let t = Instant::now();
    lower_for(&derivation.entities, BackendChoice::Auto)?;
    let lower_us = t.elapsed().as_secs_f64() * 1e6;
    Ok(Prepared {
        derivation,
        parse_us,
        check_us,
        derive_us,
        lower_us,
    })
}

pub fn config(seed: u64, sessions: usize) -> RuntimeConfig {
    RuntimeConfig::new()
        .sessions(sessions)
        .threads(THREADS)
        .seed(seed)
        .backend(BackendChoice::Auto)
}

/// What one batch of sessions did. Per-session results are reduced to
/// exact count distributions as the batch ends, so a run's memory does
/// not grow with the number of batches it ran.
pub struct Batch {
    /// `RuntimeConfig.seed` of the batch.
    pub seed: u64,
    /// Sessions the batch asked for.
    pub requested: usize,
    pub recorded: bool,
    pub sessions: usize,
    pub conforming: usize,
    pub violations: usize,
    pub deadlocked: usize,
    pub aborted: usize,
    pub step_limited: usize,
    pub messages: usize,
    pub primitives: usize,
    /// Hub-side and entity-side link counters (distributed batches).
    pub links: Vec<LinkReport>,
    /// Per-session latency, µs.
    pub lat: Counts,
    /// Per-session stage split, µs (kept only when asked for).
    pub stages: Option<Stages>,
}

/// Exact distributions of the four latency stages.
#[derive(Default)]
pub struct Stages {
    pub queue_wait: Counts,
    pub step: Counts,
    pub notify_wait: Counts,
    pub wire: Counts,
}

impl Stages {
    fn merge(&mut self, o: &Stages) {
        self.queue_wait.merge(&o.queue_wait);
        self.step.merge(&o.step);
        self.notify_wait.merge(&o.notify_wait);
        self.wire.merge(&o.wire);
    }
}

/// Sessions per second of a timed batch.
pub fn rate(b: &Timed<Batch>) -> f64 {
    b.out.sessions as f64 / b.secs
}

/// Run one batch of `cfg.sessions` sessions on `engine`.
pub fn run_batch(
    engine: Engine,
    d: &Derivation,
    cfg: &RuntimeConfig,
    keep_stages: bool,
) -> Result<Batch, String> {
    let (r, entity_links) = match engine {
        Engine::Local => (runtime::try_run(d, cfg)?, Vec::new()),
        Engine::Dist => run_distributed(d, cfg)?,
    };
    let mut lat = Counts::default();
    let mut stages = keep_stages.then(Stages::default);
    for s in &r.reports {
        lat.add(s.latency_us);
        if let Some(st) = &mut stages {
            st.queue_wait.add(s.stages.queue_wait_us);
            st.step.add(s.stages.step_us);
            st.notify_wait.add(s.stages.notify_wait_us);
            st.wire.add(s.stages.wire_us);
        }
    }
    Ok(Batch {
        seed: cfg.seed,
        requested: cfg.sessions,
        recorded: cfg.record,
        sessions: r.sessions,
        conforming: r.conforming,
        violations: r.violations.len(),
        deadlocked: r.deadlocked,
        aborted: r.aborted,
        step_limited: r.step_limited,
        messages: r.messages,
        primitives: r.primitives,
        links: r.per_link.into_values().chain(entity_links).collect(),
        lat,
        stages,
    })
}

/// The hub on this thread, one `serve_entity` thread per place, over
/// loopback TCP. Every entity thread is joined before returning.
fn run_distributed(
    d: &Derivation,
    cfg: &RuntimeConfig,
) -> Result<(RuntimeReport, Vec<LinkReport>), String> {
    let dcfg = DistributedConfig::new(Addr::Tcp("127.0.0.1:0".to_string()));
    let listener = dcfg.listen.listen().map_err(|e| format!("bind: {e}"))?;
    let hub = listener
        .local_addr()
        .map_err(|e| format!("hub addr: {e}"))?;
    std::thread::scope(|s| {
        let entities: Vec<_> = d
            .entities
            .iter()
            .map(|(place, spec)| {
                let mut scfg = ServeConfig::new(hub.clone(), *place);
                scfg.backend = cfg.backend;
                scfg.seed = cfg.seed;
                scfg.refuse = cfg.refuse.clone();
                s.spawn(move || serve_entity(spec, &scfg))
            })
            .collect();
        let report = run_hub_on(d, cfg, &dcfg, listener).map_err(|e| format!("hub: {e}"));
        let mut links = Vec::new();
        for h in entities {
            let outcome = h.join().map_err(|_| "entity thread panicked".to_string())?;
            links.push(outcome?.link);
        }
        Ok((report?, links))
    })
}

/// Failed sessions of a batch: every session that did not conform, plus
/// every requested session the report does not account for.
pub fn failures(b: &Batch) -> (u64, Vec<String>) {
    let missing = b.requested.saturating_sub(b.sessions);
    let failed = (b.sessions - b.conforming.min(b.sessions) + missing) as u64;
    let mut notes = Vec::new();
    if failed > 0 {
        notes.push(format!(
            "FAILED {failed} of {} sessions (seed {}): {} violations, {} deadlocked, \
             {} aborted, {} step-limited, {missing} missing",
            b.requested, b.seed, b.violations, b.deadlocked, b.aborted, b.step_limited
        ));
    }
    (failed, notes)
}

/// Fastest of the set-up repetitions: load → check → derive → lower, then a
/// one-session batch, which spawns the entities and, distributed,
/// binds, connects and handshakes. Every repetition runs the same
/// session.
fn setup(engine: Engine, seed: u64) -> Result<(f64, Prepared), String> {
    let mut last = None;
    let cfg = config(crate::mix(seed), 1);
    let fastest = host::setup_min(|| {
        let p = prepare()?;
        if failures(&run_batch(engine, &p.derivation, &cfg, false)?).0 > 0 {
            return Err("set-up session did not conform".to_string());
        }
        last = Some(p);
        Ok(())
    })?;
    Ok((fastest, last.expect("at least one set-up")))
}

/// Fewest timed batches in a run.
const MIN_BATCHES: usize = 8;

/// The batches of a run, and the process's peak RSS through set-up and
/// the first batch.
struct Pass {
    /// Every run of every batch; the last run of each is the timed one.
    groups: Vec<Vec<Timed<Batch>>>,
    first_peak_rss_mb: f64,
    /// Host probes run just before each batch: two on each CPU.
    probes: Vec<Vec<(u64, u64)>>,
}

/// Batches until their timed runs add up to `budget`, with at least
/// [`MIN_BATCHES`] of them; wall time is capped at one and a half
/// budgets. Each batch is run by the rule of [`host::timed`], after two
/// host probes confined to each CPU in turn.
fn pass(
    engine: Engine,
    d: &Derivation,
    seed: u64,
    budget: Duration,
    batch: usize,
) -> Result<Pass, String> {
    let started = Instant::now();
    let mut groups: Vec<Vec<Timed<Batch>>> = Vec::new();
    let mut first_peak_rss_mb = 0.0;
    let mut busy = 0.0;
    let cpus = host::allowed_cpus();
    let mut probes = Vec::new();
    while groups.len() < MIN_BATCHES
        || (busy < budget.as_secs_f64() && started.elapsed() < budget.mul_f64(1.5))
    {
        let cfg = config(batch_seed(seed, groups.len() as u64), batch);
        let mut p = Vec::new();
        for &c in &cpus {
            host::pin(&[c]);
            p.push(host::probe());
            p.push(host::probe());
        }
        host::pin(&cpus);
        probes.push(p);
        let runs = host::timed(|| run_batch(engine, d, &cfg, false))?;
        busy += runs.last().expect("at least one run").secs;
        groups.push(runs);
        if groups.len() == 1 {
            first_peak_rss_mb = host::peak_rss_mb();
        }
    }
    Ok(Pass {
        groups,
        first_peak_rss_mb,
        probes,
    })
}

/// `RuntimeConfig.seed` of batch `k`.
pub fn batch_seed(seed: u64, k: u64) -> u64 {
    crate::mix(seed.wrapping_add(k << 32))
}

/// Attempted sessions, failed sessions and failure notes over batches.
pub fn all_failures<'a>(batches: impl IntoIterator<Item = &'a Batch>) -> (u64, u64, Vec<String>) {
    let (mut attempted, mut failed) = (0, 0);
    let mut notes = Vec::new();
    for b in batches {
        let (f, n) = failures(b);
        attempted += b.requested as u64;
        failed += f;
        notes.extend(n);
    }
    (attempted, failed, notes)
}

/// The untraced `local-clean` / `dist-loopback` run.
pub fn run(engine: Engine, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let (setup_s, prepared) = setup(engine, seed)?;
    let Pass {
        groups,
        first_peak_rss_mb,
        probes,
    } = pass(
        engine,
        &prepared.derivation,
        seed,
        Duration::from_secs_f64(seconds),
        engine.batch(),
    )?;
    let (attempted, failed, mut notes) = all_failures(groups.iter().flatten().map(|r| &r.out));
    notes.push(format!(
        "peak RSS: {first_peak_rss_mb:.2} MB through the first batch, {:.2} MB through all {}",
        host::peak_rss_mb(),
        groups.len()
    ));
    let timed: Vec<&Timed<Batch>> = groups
        .iter()
        .map(|g| g.last().expect("at least one run"))
        .collect();
    notes.push(format!(
        "batches: {} timed, {} extra runs after host steal; (sessions/s, steal ticks) per timed batch: {:?}",
        timed.len(),
        groups.iter().map(|g| g.len() - 1).sum::<usize>(),
        timed
            .iter()
            .map(|b| (rate(b).round(), b.steal))
            .collect::<Vec<_>>()
    ));

    // Every timing metric is the median over batches of the batch's own
    // figure, so a minority of batches slowed by the host does not move
    // it; each batch's percentiles are exact. Each batch's times are
    // scaled to the nominal host by the probes run just before it.
    let factors: Vec<(f64, f64)> = probes.iter().map(|p| host::scale_factors(p)).collect();
    let n: usize = timed.iter().map(|b| b.out.lat.len() as usize).sum();
    let figures = |b: &Timed<Batch>, k: (f64, f64)| {
        Figures::new(b.out.sessions, b.secs, b.cpu_ns, &b.out.lat, 1.0, k)
    };
    let scaled: Vec<Figures> = timed
        .iter()
        .zip(&factors)
        .map(|(b, &k)| figures(b, k))
        .collect();
    let unscaled: Vec<Figures> = timed.iter().map(|b| figures(b, (1.0, 1.0))).collect();
    let mut metrics = stats::timing_metrics(&scaled, &unscaled, &factors, n, &mut notes);
    metrics.push(Metric::new("setup_s", setup_s, "s").samples(host::SETUP_REPS));
    metrics.push(Metric::new("peak_rss_mb", first_peak_rss_mb, "MB"));
    Ok(Outcome {
        attempted,
        failed,
        metrics,
        notes,
        spans: None,
    })
}

/// Stage distributions pooled over the unrecorded batches of a pass.
fn pooled_stages(batches: &[Timed<Batch>]) -> Stages {
    let mut all = Stages::default();
    for st in batches
        .iter()
        .map(|b| &b.out)
        .filter(|b| !b.recorded)
        .filter_map(|b| b.stages.as_ref())
    {
        all.merge(st);
    }
    all
}

fn stage_metric(name: &'static str, c: &Counts, q: f64) -> Metric {
    Metric::new(name, c.percentile(q).0, "us").samples(c.len() as usize)
}

/// Protocol messages per service primitive the sessions executed (the
/// §4.3 overhead, as run).
pub fn msgs_per_prim(batches: &[Timed<Batch>]) -> Metric {
    let messages: usize = batches.iter().map(|b| b.out.messages).sum();
    let prims: usize = batches.iter().map(|b| b.out.primitives).sum();
    Metric::new(
        "core.msgs_per_prim",
        messages as f64 / prims.max(1) as f64,
        "count",
    )
}

/// Runtime stage metrics and messages per session from the unrecorded
/// batches of a pass.
pub fn stage_metrics(batches: &[Timed<Batch>]) -> Vec<Metric> {
    let st = pooled_stages(batches);
    let unrec = || batches.iter().map(|b| &b.out).filter(|b| !b.recorded);
    let sessions: usize = unrec().map(|b| b.sessions).sum();
    let messages: usize = unrec().map(|b| b.messages).sum();
    vec![
        stage_metric("runtime.queue_wait_p50_us", &st.queue_wait, 0.5),
        stage_metric("runtime.step_p50_us", &st.step, 0.5),
        stage_metric("runtime.notify_wait_p50_us", &st.notify_wait, 0.5),
        stage_metric("runtime.notify_wait_p99_us", &st.notify_wait, 0.99),
        Metric::new(
            "runtime.msgs_per_op",
            messages as f64 / sessions.max(1) as f64,
            "count",
        ),
    ]
}

/// Wire-stage and link metrics from the unrecorded batches of a
/// distributed pass (hub links plus entity links).
pub fn transport_metrics(batches: &[Timed<Batch>]) -> Vec<Metric> {
    let unrec: Vec<&Batch> = batches
        .iter()
        .map(|b| &b.out)
        .filter(|b| !b.recorded)
        .collect();
    let links: Vec<&LinkReport> = unrec.iter().flat_map(|b| &b.links).collect();
    let sessions: usize = unrec.iter().map(|b| b.sessions).sum();
    let batches_sent: usize = links.iter().map(|l| l.batches).sum();
    let bytes: usize = links.iter().map(|l| l.bytes_sent).sum();
    let piggy: usize = links.iter().map(|l| l.piggybacked_acks).sum();
    let fpb = links
        .iter()
        .map(|l| l.frames_per_batch_p50 as f64)
        .sum::<f64>()
        / links.len().max(1) as f64;
    let wire = pooled_stages(batches).wire;
    vec![
        Metric::new("transport.frames_per_batch", fpb, "count"),
        Metric::new(
            "transport.bytes_per_op",
            bytes as f64 / sessions.max(1) as f64,
            "bytes",
        ),
        Metric::new(
            "transport.piggyback_ratio",
            piggy as f64 / batches_sent.max(1) as f64,
            "ratio",
        ),
        stage_metric("runtime.wire_p50_us", &wire, 0.5),
        stage_metric("runtime.wire_p99_us", &wire, 0.99),
    ]
}

/// Flight-recording overhead: the median unrecorded batch rate over the
/// median recorded one (1.0 = free).
pub fn trace_overhead(batches: &[Timed<Batch>]) -> Metric {
    let median_rate = |rec: bool| {
        let v: Vec<f64> = batches
            .iter()
            .filter(|b| b.out.recorded == rec)
            .map(rate)
            .collect();
        if v.is_empty() {
            f64::NAN
        } else {
            stats::median(&stats::sorted(v))
        }
    };
    Metric::new(
        "obs.trace_overhead",
        median_rate(false) / median_rate(true),
        "ratio",
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forced_non_conforming_sessions_count_as_failed() {
        let p = prepare().unwrap();
        for engine in [Engine::Local, Engine::Dist] {
            let mut ok = run_batch(engine, &p.derivation, &config(1, 40), false).unwrap();
            assert_eq!(failures(&ok).0, 0, "{engine:?}");
            // Service users who never offer `conind` at place 2: every
            // session stops short of the service.
            let cfg = config(1, 40).refuse("conind", 2);
            let bad = run_batch(engine, &p.derivation, &cfg, false).unwrap();
            assert_eq!(failures(&bad).0, 40, "{engine:?}");
            // A session missing from the report is a failure too.
            ok.requested = 41;
            assert_eq!(failures(&ok).0, 1, "{engine:?}");
        }
    }
}
