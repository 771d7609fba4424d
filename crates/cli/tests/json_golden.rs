//! Structural golden test for every JSON writer: the run report, a
//! `/health` body, `RuntimeConfig`, transport2's codegen tables (through
//! the CLI), a Chrome trace and one entry of each BENCH snapshot layout.
//!
//! `tests/golden/*.json` holds what the writers produced for the fixed
//! fixtures below before they moved onto `semantics::json::Json`
//! (`bench_load_entry.json`: what `LoadEntry::to_json` wrote when the
//! runtime and distributed entries became that one type). Each
//! writer's current output must have the same key paths in the same
//! order, equal strings, integers and booleans, and floats equal at the
//! precision the golden file printed them with. The golden documents
//! double as real inputs for the parser's hostile-input checks.

use bench::snapshot::{verify_entry, KernelTiming, LoadEntry};
use lotos::event::SyncKind;
use obs::{Event, EventKind, TraceEvent, TraceLog, NO_SESSION};
use proptest::prelude::*;
use runtime::metrics::{
    GaugeSnapshot, HistSummary, LinkReport, Metrics, RuntimeReport, StageBreakdown, Stages,
    StallRecord, TraceMeta, ViolationRecord,
};
use runtime::{FaultProfile, RuntimeConfig};
use semantics::json::Json;
use std::collections::BTreeMap;
use std::process::Command;
use std::time::Duration;

const GOLDEN: [&str; 7] = [
    "report",
    "health",
    "config",
    "codegen_transport2",
    "chrome_trace",
    "bench_load_entry",
    "bench_verify_entry",
];

fn golden_path(name: &str) -> String {
    format!("{}/tests/golden/{name}.json", env!("CARGO_MANIFEST_DIR"))
}

fn hist(count: u64, mean: f64, p50: f64, max: u64) -> HistSummary {
    HistSummary {
        count,
        mean,
        p50,
        p90: p50 * 1.5,
        p99: p50 * 2.0,
        max,
    }
}

fn report() -> RuntimeReport {
    let link = LinkReport {
        lost: 3,
        retransmissions: 5,
        reconnects: 1,
        dup_dropped: 2,
        faults: 4,
        batches: 6,
        bytes_sent: 4096,
        piggybacked_acks: 9,
        frames_per_batch_p50: 7,
        frames_per_batch_p99: 31,
    };
    let gauges = GaugeSnapshot {
        window_occupancy: 5,
        window_size: 128,
        link_backlog_frames: 11,
        per_link_backlog: BTreeMap::from([("place:2".to_string(), 11u64)]),
    };
    RuntimeReport {
        engine: "concurrent",
        backend: "compiled",
        config: RuntimeConfig::new().seed(u64::MAX - 1),
        sessions: 7,
        conforming: 6,
        terminated: 5,
        deadlocked: 1,
        step_limited: 0,
        aborted: 1,
        violations: vec![ViolationRecord {
            session: 2,
            seed: 0xFFFF_FFFF_FFFF_FFF0,
            primitive: "a\"b\n".to_string(),
            place: 1,
            at: 0,
            trace: vec![("a\"b\n".to_string(), 1), ("c".to_string(), 2)],
            tail: vec!["recv C:\\tmp\t\u{1}".to_string()],
        }],
        primitives: 10,
        messages: 23,
        delivered: 19,
        messages_per_kind: BTreeMap::from([(SyncKind::Seq, 20), (SyncKind::Alt, 3)]),
        max_queue_depth: 4,
        frames_lost: 3,
        retransmissions: 5,
        per_link: BTreeMap::from([("1->2".to_string(), link)]),
        transport_events: vec![
            "link place:2 declared dead".to_string(),
            "peer said \"bye\\\"".to_string(),
        ],
        wall_s: 0.123_456_7,
        sessions_per_sec: 14.285_714,
        session_latency: hist(7, 812.345, 767.75, 2048),
        stages: Stages {
            queue_wait: hist(7, 10.25, 8.25, 40),
            step: hist(7, 3.333, 1.25, 9),
            notify_wait: hist(7, 700.05, 640.5, 1900),
            wire: HistSummary::default(),
        },
        stalls: vec![StallRecord {
            session: 3,
            age_us: 5000,
            deadline_us: 2000,
            stages: StageBreakdown {
                queue_wait_us: 100,
                step_us: 200,
                notify_wait_us: 300,
                wire_us: 400,
            },
            entity_state: vec![(0, 7), (1, 9)],
            gauges: gauges.clone(),
            tail: vec!["lc=3 place=1 prim a@1".to_string()],
        }],
        gauges,
        per_prim: BTreeMap::from([
            ("conreq".to_string(), hist(7, 1.5, 1.75, 3)),
            ("dt\"ind".to_string(), HistSummary::default()),
        ]),
        phases: vec![
            ("parse".to_string(), 1.25),
            ("derive".to_string(), 3.5),
            ("run".to_string(), 120.123_456),
        ],
        trace_meta: Some(TraceMeta {
            trace_id: u64::MAX,
            rings: 3,
            events: 420,
            dropped: 0,
        }),
        abort_tails: BTreeMap::from([(4u64, vec!["lc=9 place=1 prim a@1".to_string()])]),
        reports: Vec::new(),
    }
}

fn health() -> String {
    let spec = lotos::parser::parse_spec("SPEC a1; b2; exit ENDSPEC").unwrap();
    let mut m = Metrics::for_service(&spec);
    m.sessions_completed = 20;
    m.primitives = 40;
    m.messages_sent = 35;
    m.batches_sent = 12;
    m.bytes_sent = 9000;
    for v in [800, 1000, 3000] {
        m.session_latency.record(v);
    }
    for (queue_wait_us, step_us) in [(100, 300), (301, 2)] {
        m.stages.record(&StageBreakdown {
            queue_wait_us,
            step_us,
            notify_wait_us: 350,
            wire_us: 50,
        });
    }
    m.gauges.window_occupancy = 4;
    m.gauges.window_size = 64;
    m.gauges.per_link_backlog.insert("place:2".to_string(), 3);
    m.health_json(3.25).to_string()
}

/// The `/metrics` text of a fixed `Metrics`: two primitives, all four
/// stages, two per-link backlog entries and one session latency past the
/// last finite `le` boundary (2^26 µs). Compared byte for byte with
/// `tests/golden/metrics.txt`.
fn prometheus() -> String {
    let spec = lotos::parser::parse_spec("SPEC a1; b2; exit ENDSPEC").unwrap();
    let mut m = Metrics::for_service(&spec);
    m.sessions_completed = 4;
    m.primitives = 8;
    m.messages_sent = 7;
    m.messages_delivered = 6;
    m.internal_actions = 2;
    m.max_queue_depth = 3;
    m.frames_lost = 1;
    m.retransmissions = 5;
    m.batches_sent = 12;
    m.bytes_sent = 9000;
    m.piggybacked_acks = 9;
    m.gauges.window_occupancy = 4;
    m.gauges.window_size = 64;
    m.gauges.link_backlog_frames = 3;
    for v in [800, 1000, 3000, 100_000_000] {
        m.session_latency.record(v);
    }
    for (queue_wait_us, wire_us) in [(100, 50), (301, 7), (2, 70_000_000)] {
        m.stages.record(&StageBreakdown {
            queue_wait_us,
            step_us: 300,
            notify_wait_us: 350,
            wire_us,
        });
    }
    let a = m.prims.id("a").unwrap() as usize;
    let b = m.prims.id("b").unwrap() as usize;
    for v in [40, 41, 900] {
        m.per_prim[a].record(v);
    }
    m.per_prim[b].record(90);
    m.gauges.per_link_backlog.insert("place:1".to_string(), 0);
    m.gauges.per_link_backlog.insert("place:2".to_string(), 3);
    m.to_prometheus()
}

/// The Prometheus exposition is compared byte for byte: scrapers parse
/// it line by line, so any change of order, spacing or number format is
/// a change of the interface.
#[test]
fn prometheus_text_matches_its_golden_bytes() {
    let path = format!("{}/tests/golden/metrics.txt", env!("CARGO_MANIFEST_DIR"));
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let text = prometheus();
    assert!(text == golden, "/metrics text differs from {path}:\n{text}");
}

fn config() -> String {
    RuntimeConfig::new()
        .sessions(500)
        .threads(4)
        .seed(u64::MAX)
        .capacity(8)
        .max_steps(9000)
        .faults(FaultProfile::Lossy { loss: 0.25 })
        .record(true)
        .stall_after(Duration::from_millis(250))
        .to_json()
        .to_string()
}

fn codegen() -> String {
    let spec = format!(
        "{}/../../specs/transport2.lotos",
        env!("CARGO_MANIFEST_DIR")
    );
    let out = Command::new(env!("CARGO_BIN_EXE_protogen"))
        .args(["codegen", &spec])
        .output()
        .expect("run protogen codegen");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 tables")
}

fn chrome_trace() -> String {
    let ev = |kind, place, session, lc, wall_ns, a, b| Event {
        kind,
        place,
        session,
        lc,
        wall_ns,
        a,
        b,
    };
    let named = |ev: Event, name: &str| TraceEvent {
        ev,
        name: Some(name.to_string()),
    };
    let (a, b) = obs::pack_msg(false, 14, 0, 1, 2);
    TraceLog {
        trace_id: 0xBEEF,
        events: vec![
            named(
                ev(EventKind::PhaseStart, 0, NO_SESSION, 0, 1_000, 0, 0),
                "parse",
            ),
            named(
                ev(EventKind::PhaseEnd, 0, NO_SESSION, 0, 2_501, 0, 0),
                "parse",
            ),
            TraceEvent {
                ev: ev(EventKind::SessionOpen, 0, 5, 0, 3_000, 42, 0),
                name: None,
            },
            named(ev(EventKind::Prim, 1, 5, 1, 4_123, 0, 1), "con\"req\\"),
            TraceEvent {
                ev: ev(EventKind::MediumSend, 1, 5, 2, 5_000, a, b),
                name: None,
            },
            TraceEvent {
                ev: ev(EventKind::LinkDown, 0, NO_SESSION, 0, 6_000, 2, 0),
                name: None,
            },
        ],
    }
    .to_chrome_json()
    .to_string()
}

fn bench_load_entry() -> String {
    let mut r = report();
    r.backend = "mixed";
    r.sessions = 2000;
    r.sessions_per_sec = 84_303.712;
    r.session_latency = hist(2000, 950.5, 896.0, 4000);
    LoadEntry::new("transport2.lotos", "full", "flaky-link", &r, 6)
        .to_json()
        .to_string()
}

fn bench_verify_entry() -> String {
    let bisim = KernelTiming {
        naive_us: 3749.123,
        fast_us: 362.34,
        agree: true,
    };
    let traces = KernelTiming {
        naive_us: 38.66,
        fast_us: 14.7,
        agree: false,
    };
    let failures = KernelTiming {
        naive_us: 61.31,
        fast_us: 12.5,
        agree: true,
    };
    verify_entry(
        "example2_anbn.lotos",
        19,
        134,
        240,
        &bisim,
        &traces,
        &failures,
    )
    .to_string()
}

fn current(name: &str) -> String {
    match name {
        "report" => report().to_json().to_string(),
        "health" => health(),
        "config" => config(),
        "codegen_transport2" => codegen(),
        "chrome_trace" => chrome_trace(),
        "bench_load_entry" => bench_load_entry(),
        "bench_verify_entry" => bench_verify_entry(),
        _ => unreachable!("{name}"),
    }
}

/// Assert `new` has `old`'s structure: the same keys in the same order,
/// equal strings, integers, booleans and nulls, and floats equal at the
/// number of decimals `old` was printed with.
fn assert_same(path: &str, old: &Json, new: &Json) {
    match (old, new) {
        (Json::Obj(a), Json::Obj(b)) => {
            let keys = |m: &[(String, Json)]| m.iter().map(|(k, _)| k.clone()).collect::<Vec<_>>();
            assert_eq!(keys(a), keys(b), "{path}: keys differ");
            for ((k, va), (_, vb)) in a.iter().zip(b) {
                assert_same(&format!("{path}.{k}"), va, vb);
            }
        }
        (Json::Arr(a), Json::Arr(b)) => {
            assert_eq!(a.len(), b.len(), "{path}: lengths differ");
            for (i, (va, vb)) in a.iter().zip(b).enumerate() {
                assert_same(&format!("{path}[{i}]"), va, vb);
            }
        }
        (Json::F64(p), Json::F64(n)) => {
            let d = (0..=17)
                .find(|&d| format!("{p:.d$}").parse::<f64>() == Ok(*p))
                .expect("a float prints exactly within 17 decimals");
            assert_eq!(format!("{n:.d$}"), format!("{p:.d$}"), "{path}");
        }
        _ => assert_eq!(old, new, "{path}"),
    }
}

fn golden(name: &str) -> String {
    std::fs::read_to_string(golden_path(name)).unwrap_or_else(|e| panic!("{name}: {e}"))
}

#[test]
fn every_writer_matches_its_golden_structure() {
    for name in GOLDEN {
        let old = Json::parse(&golden(name)).unwrap_or_else(|e| panic!("golden {name}: {e}"));
        let text = current(name);
        let new = Json::parse(&text).unwrap_or_else(|e| panic!("{name}: {e}\n{text}"));
        assert_same(name, &old, &new);
    }
}

#[test]
fn truncated_goldens_are_errors_not_panics() {
    for name in GOLDEN {
        let text = golden(name);
        let text = text.trim_end();
        for cut in (0..text.len()).filter(|&c| text.is_char_boundary(c)) {
            assert!(Json::parse(&text[..cut]).is_err(), "{name} cut at {cut}");
        }
    }
}

proptest! {
    #[test]
    fn mutated_goldens_never_panic(
        which in 0usize..GOLDEN.len(),
        at in any::<usize>(),
        byte in any::<u8>(),
        span in 1usize..4,
    ) {
        let mut bytes = golden(GOLDEN[which]).into_bytes();
        let at = at % bytes.len();
        let end = (at + span).min(bytes.len());
        for b in &mut bytes[at..end] {
            *b = byte;
        }
        let _ = Json::parse(&String::from_utf8_lossy(&bytes));
        bytes.drain(at..end);
        let _ = Json::parse(&String::from_utf8_lossy(&bytes));
    }
}
