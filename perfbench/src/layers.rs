//! The traced run: every per-layer metric, on every workload.
//!
//! A layer metric comes from the workload's own ops when the workload
//! exercises that layer. Otherwise it comes from a short, fixed side
//! pass on inputs from the same seed, so every traced run prints every
//! layer metric; compare layer metrics only within one workload. The
//! layer kernels (entity stepping, conformance replay, fault link, wire
//! codec) are timed directly through each crate's public functions on
//! inputs taken from seeded sessions of the session spec.

use crate::host::{self, Timed};
use crate::sessions::{self, Batch, Engine};
use crate::spans::Tracer;
use crate::{verify_gen, Metric, Outcome, Workload};
use medium::codec::FrameDecoder;
use medium::Msg;
use protogen::derive::Derivation;
use runtime::{lower_for, make_backend, BackendChoice, EntityBackend, FaultLink, FaultProfile};
use semantics::engine::TermArena;
use semantics::term::OccTable;
use sim::des::{SimConfig, SimEventKind, SimOutcome};
use sim::monitor::ServiceMonitor;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use transport::WireMsg;

/// Seeded DES sessions of the session spec: the inputs of the kernels.
const KERNEL_SESSIONS: usize = 200;
/// Minimum timed work per kernel.
const KERNEL_TIME: Duration = Duration::from_millis(150);

fn des_sessions(d: &Derivation, seed: u64) -> Vec<SimOutcome> {
    (0..KERNEL_SESSIONS as u64)
        .map(|k| sim::des::simulate(d, SimConfig::new().seed(crate::mix(seed ^ k))))
        .collect()
}

/// Repeat `round` (which returns how many units it did) until
/// `KERNEL_TIME` has passed; nanoseconds per unit.
fn ns_per_unit(mut round: impl FnMut() -> usize) -> f64 {
    let t = Instant::now();
    let mut units = 0usize;
    while units == 0 || t.elapsed() < KERNEL_TIME {
        units += round();
    }
    t.elapsed().as_nanos() as f64 / units as f64
}

/// `EntityBackend::offers` + `step` per transition, via `make_backend`,
/// on seeded random walks through each entity (the backend `auto`
/// picks for it).
fn backend_step_ns(d: &Derivation, seed: u64) -> Result<f64, String> {
    let lowered = lower_for(&d.entities, BackendChoice::Auto)?;
    let arena = Arc::new(TermArena::new());
    let occ = Arc::new(Mutex::new(OccTable::new()));
    let mut backends: Vec<_> = d
        .entities
        .iter()
        .zip(lowered)
        .map(|((_, spec), l)| make_backend(spec, l, &arena, &occ))
        .collect();
    let mut x = crate::mix(seed) | 1;
    Ok(ns_per_unit(|| {
        let mut steps = 0;
        for b in backends.iter_mut() {
            for _ in 0..64 {
                let mut s = b.init();
                for _ in 0..32 {
                    let n = b.offers(&s);
                    if n == 0 {
                        break;
                    }
                    x = crate::mix(x);
                    b.step(&mut s, (x % n as u64) as usize);
                    steps += 1;
                }
            }
        }
        steps
    }))
}

/// `ServiceMonitor` construction and `step` per primitive over seeded
/// session traces, as the runtime's conformance replay does.
fn monitor_ns_per_prim(d: &Derivation, runs: &[SimOutcome]) -> Result<f64, String> {
    let mut bad = None;
    let ns = ns_per_unit(|| {
        let mut prims = 0;
        for r in runs {
            let mut m = ServiceMonitor::new(d.service.clone());
            for (name, place) in &r.trace {
                if !m.step(name, *place) {
                    bad = Some(name.clone());
                }
            }
            std::hint::black_box(m.may_terminate());
            prims += r.trace.len();
        }
        prims
    });
    match bad {
        Some(p) => Err(format!("monitor refused conforming primitive {p}")),
        None => Ok(ns),
    }
}

fn sent_msgs(runs: &[SimOutcome]) -> Vec<Msg> {
    runs.iter()
        .flat_map(|r| &r.events)
        .filter_map(|e| match &e.kind {
            SimEventKind::Sent(m) => Some(m.clone()),
            _ => None,
        })
        .collect()
}

/// A `FaultLink` at `lossy:0.2`: submit, pump and take, per delivered
/// message. Every message must come out, in order.
fn faults_ns_per_msg(msgs: &[Msg], seed: u64) -> Result<f64, String> {
    let mut err = None;
    let ns = ns_per_unit(|| {
        let mut link = FaultLink::new(FaultProfile::Lossy { loss: 0.2 }, seed);
        let mut now = 0.0;
        let mut delivered = 0;
        for m in msgs {
            link.submit(m.clone(), now);
            while !link.is_idle() && now < 1e9 {
                now += 1.0;
                link.pump(now);
                while let Some(got) = link.take() {
                    if got != *m {
                        err = Some("fault link reordered or changed a message");
                    }
                    delivered += 1;
                }
            }
        }
        if delivered != msgs.len() {
            err = Some("fault link lost a message");
        }
        delivered
    });
    match err {
        Some(e) => Err(e.to_string()),
        None => Ok(ns),
    }
}

/// The frames the distributed engine exchanges for `runs`: per session
/// an `Open` and a `Close` per entity, a `Prim` per primitive, each
/// message as two `Data` frames (entity → hub → entity) and a `Status`
/// per message and entity.
fn frame_mix(runs: &[SimOutcome]) -> Vec<WireMsg> {
    let mut out = Vec::new();
    for (k, r) in runs.iter().enumerate() {
        let session = k as u64;
        for _ in 0..2 {
            out.push(WireMsg::Open {
                session,
                seed: crate::mix(session),
                max_steps: 10_000,
                trace: 0,
            });
        }
        for (i, e) in r.events.iter().enumerate() {
            let lc = i as u64 + 1;
            match &e.kind {
                SimEventKind::Prim { name, place } => out.push(WireMsg::Prim {
                    session,
                    name: name.clone(),
                    place: *place,
                    lc,
                }),
                SimEventKind::Sent(msg) => {
                    for _ in 0..2 {
                        out.push(WireMsg::Data {
                            session,
                            msg: msg.clone(),
                            path: Vec::new(),
                            lc,
                        });
                        out.push(WireMsg::Status {
                            session,
                            seen: lc,
                            consumed: lc,
                            inbox_empty: true,
                            vote: false,
                            blocked: true,
                            steps: lc,
                        });
                    }
                }
                _ => {}
            }
        }
        for _ in 0..2 {
            out.push(WireMsg::Close { session, end: 0 });
        }
    }
    out
}

/// `WireMsg::encode_into` and `decode_full` per frame over `mix`; the
/// decoded frames must equal the encoded ones.
fn codec_ns(mix: &[WireMsg]) -> Result<(f64, f64), String> {
    let mut scratch = Vec::new();
    let mut wire = Vec::new();
    let enc = ns_per_unit(|| {
        wire.clear();
        for (i, m) in mix.iter().enumerate() {
            m.encode_into(i as u64 + 1, i as u64, &mut scratch, &mut wire);
        }
        mix.len()
    });
    let mut err = None;
    let dec = ns_per_unit(|| {
        let mut d = FrameDecoder::new();
        d.feed(&wire);
        let mut n = 0;
        while let Ok(Some(frame)) = d.next() {
            match WireMsg::decode_full(&frame) {
                Ok((_, m, _)) if m == mix[n] => {}
                _ => err = Some(format!("frame {n} did not round-trip")),
            }
            n += 1;
        }
        if n != mix.len() {
            err = Some(format!("decoded {n} of {} frames", mix.len()));
        }
        n
    });
    match err {
        Some(e) => Err(e),
        None => Ok((enc, dec)),
    }
}

fn kernel_metrics(d: &Derivation, seed: u64) -> Result<Vec<Metric>, String> {
    let runs = des_sessions(d, seed);
    let (enc, dec) = codec_ns(&frame_mix(&runs))?;
    Ok(vec![
        Metric::new("runtime.backend_step_ns", backend_step_ns(d, seed)?, "ns"),
        Metric::new(
            "runtime.monitor_ns_per_prim",
            monitor_ns_per_prim(d, &runs)?,
            "ns",
        ),
        Metric::new(
            "runtime.faults_ns_per_msg",
            faults_ns_per_msg(&sent_msgs(&runs), seed)?,
            "ns",
        ),
        Metric::new("transport.encode_ns_per_frame", enc, "ns"),
        Metric::new("transport.decode_ns_per_frame", dec, "ns"),
    ])
}

/// Session batches for layer metrics: the workload's own engine for the
/// whole budget (alternating recorded batches, for the tracing
/// overhead), or else a short side pass.
fn session_layer_pass(
    tr: &mut Tracer,
    engine: Engine,
    own: bool,
    d: &Derivation,
    seed: u64,
    budget: Duration,
) -> Result<Vec<Timed<Batch>>, String> {
    let name = match engine {
        Engine::Local => "runtime.local_batch",
        Engine::Dist => "runtime.dist_batch",
    };
    let (budget, batch) = if own {
        (budget, engine.batch())
    } else {
        (Duration::ZERO, sessions::SIDE_SESSIONS)
    };
    let mut out = Vec::new();
    let started = Instant::now();
    let mut k = 0u64;
    // Side passes still alternate: one plain and one recorded batch.
    while out.len() < 2 || started.elapsed() < budget {
        let cfg = sessions::config(sessions::batch_seed(seed, k), batch).record(k % 2 == 1);
        out.push(tr.span(name, |_| {
            host::measure(|| sessions::run_batch(engine, d, &cfg, true))
        })?);
        k += 1;
    }
    Ok(out)
}

/// Replace the metric of the same name.
fn replace(metrics: &mut [Metric], m: Metric) {
    let slot = metrics.iter_mut().find(|x| x.name == m.name);
    *slot.expect("replaced metric exists") = m;
}

/// The traced run of `workload`.
pub fn run(workload: Workload, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let budget = Duration::from_secs_f64(seconds);
    let own = |w: Workload| workload == w;
    let mut tr = Tracer::new();
    let prepared = tr.span("setup", |_| sessions::prepare())?;
    let d = &prepared.derivation;

    // The verify path: the whole budget on verify-gen, a side pass of a
    // fixed number of specs otherwise.
    let (vbudget, vspecs) = if own(Workload::VerifyGen) {
        (budget, usize::MAX)
    } else {
        (Duration::MAX, verify_gen::SIDE_SPECS)
    };
    let verify = verify_gen::layer_pass(&mut tr, seed, vbudget, vspecs);
    let local = session_layer_pass(
        &mut tr,
        Engine::Local,
        own(Workload::LocalClean),
        d,
        seed,
        budget,
    )?;
    let dist = session_layer_pass(
        &mut tr,
        Engine::Dist,
        own(Workload::DistLoopback),
        d,
        seed,
        budget,
    )?;
    let sessions_own = if own(Workload::DistLoopback) {
        &dist
    } else {
        &local
    };

    let mut metrics = verify.metrics;
    metrics.push(Metric::new("semantics.lower_us", prepared.lower_us, "us"));
    metrics.extend(sessions::stage_metrics(sessions_own));
    metrics.extend(sessions::transport_metrics(&dist));
    metrics.push(sessions::trace_overhead(sessions_own));
    metrics.extend(tr.span("kernels", |_| kernel_metrics(d, seed))?);
    if !own(Workload::VerifyGen) {
        // The session workloads parse, check and derive their own spec in
        // set-up, and their protocol's overhead is what their sessions send.
        for m in [
            Metric::new("lotos.parse_us", prepared.parse_us, "us"),
            Metric::new("lotos.check_us", prepared.check_us, "us"),
            Metric::new("core.derive_us", prepared.derive_us, "us"),
            sessions::msgs_per_prim(sessions_own),
        ] {
            replace(&mut metrics, m);
        }
    }

    let (mut attempted, mut failed, mut notes) = (verify.attempted, verify.failed, verify.notes);
    for batches in [&local, &dist] {
        let (a, f, n) = sessions::all_failures(batches.iter().map(|b| &b.out));
        attempted += a;
        failed += f;
        notes.extend(n);
    }
    Ok(Outcome {
        attempted,
        failed,
        metrics,
        notes,
        spans: Some(tr.to_json()),
    })
}
