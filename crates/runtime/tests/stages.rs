//! Stage-attribution invariants, per ISSUE 10:
//! * the four stages never sum past the end-to-end latency they
//!   decompose, on every engine;
//! * `wire` is zero for in-process runs and nonzero once sessions
//!   actually cross sockets;
//! * the behavioural counters (primitives, messages, verdicts) are
//!   identical across `--backend interpreted|compiled` — attribution
//!   observes the run, it must not perturb it;
//! * a configured stall deadline captures forensics on the concurrent
//!   and the distributed engine: partial stage split, per-entity
//!   progress, queue/backlog gauges, and (when recording) the
//!   flight-recorder tail.

use protogen::Pipeline;
use runtime::{
    run, run_hub_on, serve_entity, BackendChoice, DistributedConfig, RuntimeConfig, RuntimeReport,
    ServeConfig,
};
use std::time::Duration;
use transport::Addr;

const SPEC: &str = "SPEC conreq1; conind2; dtreq1; dtind2; exit ENDSPEC";

fn report_for(cfg: &RuntimeConfig) -> RuntimeReport {
    let derived = Pipeline::load(SPEC)
        .expect("parse")
        .check()
        .expect("check")
        .derive()
        .expect("derive");
    run(derived.derivation(), cfg)
}

/// Shared per-session invariant: stages decompose the latency, never
/// exceed it.
fn assert_decomposes(report: &RuntimeReport, expect_wire: bool) {
    assert!(!report.reports.is_empty());
    for s in &report.reports {
        assert!(
            s.stages.sum_us() <= s.latency_us,
            "session {}: stages {:?} sum past latency {}",
            s.id,
            s.stages,
            s.latency_us
        );
        if !expect_wire {
            assert_eq!(
                s.stages.wire_us, 0,
                "session {}: nonzero wire stage without a socket",
                s.id
            );
        }
    }
    // The aggregate stage histograms saw every session.
    assert_eq!(report.stages.queue_wait.count, report.reports.len() as u64);
    assert_eq!(report.stages.step.count, report.reports.len() as u64);
}

#[test]
fn concurrent_local_stages_decompose_with_zero_wire() {
    let report = report_for(&RuntimeConfig::new().sessions(40).threads(2).seed(11));
    assert!(report.passed());
    assert_decomposes(&report, false);
}

#[test]
fn deterministic_stages_are_pure_step() {
    let report = report_for(&RuntimeConfig::new().sessions(10).threads(1).seed(11));
    assert!(report.passed());
    assert_decomposes(&report, false);
    for s in &report.reports {
        assert_eq!(s.stages.queue_wait_us, 0);
        assert_eq!(s.stages.notify_wait_us, 0);
        assert_eq!(
            s.stages.step_us, s.latency_us,
            "the DES runs a session inline: all of it is step"
        );
    }
}

/// Attribution must observe the run, not perturb it: the behavioural
/// counters are byte-identical across backends on the deterministic
/// engine (which is bit-reproducible by construction).
#[test]
fn counters_identical_across_backends() {
    let base = RuntimeConfig::new().sessions(12).threads(1).seed(23);
    let interp = report_for(&base.clone().backend(BackendChoice::Interpreted));
    let compiled = report_for(&base.backend(BackendChoice::Compiled));
    assert_eq!(interp.backend, "interpreted");
    assert_eq!(compiled.backend, "compiled");
    assert_eq!(interp.primitives, compiled.primitives);
    assert_eq!(interp.messages, compiled.messages);
    assert_eq!(interp.terminated, compiled.terminated);
    assert_eq!(interp.conforming, compiled.conforming);
    for (a, b) in interp.reports.iter().zip(compiled.reports.iter()) {
        assert_eq!(a.primitives, b.primitives);
        assert_eq!(a.steps, b.steps);
        assert_eq!(a.end, b.end);
    }
}

fn quick_dcfg() -> DistributedConfig {
    DistributedConfig {
        heartbeat: Duration::from_millis(20),
        dead_after: Duration::from_millis(900),
        reconnect_deadline: Duration::from_secs(3),
        join_deadline: Duration::from_secs(15),
        stall_timeout: Duration::from_secs(20),
        ..DistributedConfig::new(Addr::Tcp("127.0.0.1:0".to_string()))
    }
}

fn spawn_entities(
    d: &protogen::derive::Derivation,
    hub_addr: Addr,
    delay: Option<(usize, Duration)>,
) -> Vec<std::thread::JoinHandle<Result<runtime::distributed::ServeOutcome, String>>> {
    d.entities
        .iter()
        .enumerate()
        .map(|(i, (p, spec))| {
            let spec = spec.clone();
            let scfg = ServeConfig {
                heartbeat: Duration::from_millis(20),
                dead_after: Duration::from_millis(900),
                ..ServeConfig::new(hub_addr.clone(), *p)
            };
            let nap = match delay {
                Some((idx, d)) if idx == i => Some(d),
                _ => None,
            };
            std::thread::spawn(move || {
                if let Some(d) = nap {
                    std::thread::sleep(d);
                }
                serve_entity(&spec, &scfg)
            })
        })
        .collect()
}

#[test]
fn distributed_sessions_attribute_wire_time() {
    let derived = Pipeline::load(SPEC)
        .expect("parse")
        .check()
        .expect("check")
        .derive()
        .expect("derive");
    let d = derived.derivation();
    let cfg = RuntimeConfig::new().sessions(8).threads(2).seed(7);
    let dcfg = quick_dcfg();
    let listener = dcfg.listen.listen().expect("bind");
    let hub_addr = listener.local_addr().expect("addr");
    let handles = spawn_entities(d, hub_addr, None);
    let report = run_hub_on(d, &cfg, &dcfg, listener).expect("hub run");
    for h in handles {
        h.join().expect("entity thread").expect("entity outcome");
    }
    assert!(report.passed(), "events: {:?}", report.transport_events);
    assert_decomposes(&report, true);
    // Real sockets sat between the entities: some interval of some
    // session must have been attributed to the wire.
    let wire_total: u64 = report.reports.iter().map(|s| s.stages.wire_us).sum();
    assert!(
        wire_total > 0,
        "no wire time attributed across {} distributed sessions",
        report.reports.len()
    );
    // The hub published its gauge snapshot into the report: the session
    // window for 2 threads is max(2 × 8, 32).
    assert_eq!(report.gauges.window_size, 32);
    assert!(report.gauges.pool_bufs_total > 0);
}

/// A configured deadline plus an entity that joins late: the opened
/// sessions stall (their Opens sit undeliverable), and the hub must
/// capture forensics — once per session, with the gauges and the
/// recorder tail attached.
#[test]
fn late_entity_stall_is_captured_with_forensics() {
    let derived = Pipeline::load(SPEC)
        .expect("parse")
        .check()
        .expect("check")
        .derive()
        .expect("derive");
    let d = derived.derivation();
    let cfg = RuntimeConfig::new()
        .sessions(4)
        .threads(2)
        .seed(7)
        .record(true)
        .stall_after(Duration::from_millis(120));
    let dcfg = quick_dcfg();
    let listener = dcfg.listen.listen().expect("bind");
    let hub_addr = listener.local_addr().expect("addr");
    let handles = spawn_entities(d, hub_addr, Some((1, Duration::from_millis(700))));
    let report = run_hub_on(d, &cfg, &dcfg, listener).expect("hub run");
    for h in handles {
        h.join().expect("entity thread").expect("entity outcome");
    }
    assert!(report.passed(), "events: {:?}", report.transport_events);
    assert!(
        !report.stalls.is_empty(),
        "no stall captured despite a {}ms deadline and a late entity",
        120
    );
    let mut seen = std::collections::BTreeSet::new();
    for st in &report.stalls {
        assert!(seen.insert(st.session), "session flagged twice");
        assert_eq!(st.deadline_us, 120_000);
        assert!(st.age_us >= st.deadline_us);
        assert!(st.stages.sum_us() <= st.age_us);
        assert!(
            !st.tail.is_empty(),
            "recorded run, but the stall carries no flight-recorder tail"
        );
        assert!(st.gauges.pool_bufs_total > 0);
    }
}

/// A configured deadline on the concurrent engine: sessions of an
/// endless service run until their step limit, well past the deadline,
/// and the multiplexer must capture forensics — once per session, with
/// every entity's state, the window gauges and the recorder tail.
#[test]
fn concurrent_stall_is_captured_with_forensics() {
    let derived = Pipeline::load("SPEC P WHERE PROC P = dtreq1; dtind2; P END ENDSPEC")
        .expect("parse")
        .check()
        .expect("check")
        .derive()
        .expect("derive");
    let d = derived.derivation();
    let cfg = RuntimeConfig::new()
        .sessions(2)
        .threads(2)
        .seed(7)
        .record(true)
        .max_steps(400_000)
        .stall_after(Duration::from_millis(20));
    let report = run(d, &cfg);
    assert_eq!(
        report.step_limited, 2,
        "the sessions must run to their limit"
    );
    assert_eq!(
        report.stalls.len(),
        2,
        "a 20ms deadline and sessions lasting {:?} µs",
        report
            .reports
            .iter()
            .map(|s| s.latency_us)
            .collect::<Vec<_>>()
    );
    let mut seen = std::collections::BTreeSet::new();
    for st in &report.stalls {
        assert!(seen.insert(st.session), "session flagged twice");
        assert_eq!(st.deadline_us, 20_000);
        assert!(st.age_us >= st.deadline_us);
        assert!(st.stages.sum_us() <= st.age_us);
        assert_eq!(st.stages.wire_us, 0);
        assert_eq!(st.entity_state.len(), d.entities.len());
        // The multiplexer's window for 2 threads: 2 × 32.
        assert_eq!(st.gauges.window_size, 64);
        assert!(
            !st.tail.is_empty(),
            "recorded run, but the stall carries no flight-recorder tail"
        );
    }
}
