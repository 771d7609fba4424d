use super::hist::{BUCKETS, SUB};
use super::*;
use crate::config::RuntimeConfig;

#[test]
fn histogram_quantiles_are_ordered() {
    let mut h = Histogram::new();
    for v in 1..=1000u64 {
        h.record(v);
    }
    let s = h.summary();
    assert_eq!(s.count, 1000);
    assert!(s.p50 <= s.p90 && s.p90 <= s.p99);
    assert!(s.p50 >= 400.0 && s.p50 <= 640.0, "p50 = {}", s.p50);
    assert_eq!(s.max, 1000);
}

#[test]
fn histogram_empty_is_zero() {
    let h = Histogram::new();
    let s = h.summary();
    assert_eq!(s.count, 0);
    assert_eq!(s.p99, 0.0);
}

#[test]
fn histogram_bucket_monotone() {
    let mut last = 0;
    for v in [1u64, 2, 3, 5, 9, 100, 1 << 20, u64::MAX] {
        let b = Histogram::bucket_of(v);
        assert!(b >= last, "bucket({v}) regressed");
        last = b;
    }
}

/// `bucket_value` is a fixed point of `bucket_of`: mapping a value
/// to its bucket and back lands in the same bucket, and the
/// representative never exceeds the value it stands for by more
/// than one sub-bucket width (≈ 25%).
#[test]
fn histogram_bucket_of_and_value_round_trip() {
    for v in [
        1u64,
        2,
        3,
        4,
        5,
        7,
        8,
        15,
        16,
        100,
        1000,
        4097,
        1 << 30,
        1 << 62,
    ] {
        let b = Histogram::bucket_of(v);
        let rep = Histogram::bucket_value(b);
        assert_eq!(
            Histogram::bucket_of(rep as u64),
            b,
            "representative of bucket {b} (value {v}) maps elsewhere"
        );
        assert!(
            rep <= v as f64 && v as f64 <= rep * 1.25 + 1.0,
            "value {v} not within its bucket [{rep}, {})",
            rep * 1.25
        );
    }
}

/// Quantile extraction is monotone in q — p50 ≤ p99 on every shape,
/// including heavily skewed ones.
#[test]
fn histogram_percentiles_monotone_in_q() {
    let shapes: [&[u64]; 3] = [
        &[1, 1, 1, 1, 1000],
        &[5; 100],
        &[1, 10, 100, 1000, 10_000, 100_000],
    ];
    for values in shapes {
        let mut h = Histogram::new();
        for &v in values {
            h.record(v);
        }
        let mut last = 0.0f64;
        for q in [0.0, 0.1, 0.5, 0.9, 0.99, 1.0] {
            let at = h.quantile(q);
            assert!(at >= last, "quantile({q}) = {at} < {last} on {values:?}");
            last = at;
        }
    }
}

/// Values beyond the last octave saturate into the top bucket
/// rather than indexing out of bounds, and the quantile falls back
/// to the exact recorded max.
#[test]
fn histogram_saturates_at_top_bucket() {
    assert_eq!(Histogram::bucket_of(u64::MAX), BUCKETS - 1);
    // 2^63 has zero fraction bits: first sub-bucket of the top octave.
    assert_eq!(Histogram::bucket_of(1 << 63), BUCKETS - SUB);
    let mut h = Histogram::new();
    h.record(u64::MAX);
    h.record(u64::MAX - 1);
    assert_eq!(h.count(), 2);
    assert_eq!(h.summary().max, u64::MAX);
    assert!(h.quantile(0.99) > 0.0);
}

#[test]
fn prometheus_exposition_has_counters_and_summaries() {
    let spec = lotos::parser::parse_spec("SPEC conreq1; conind2; exit ENDSPEC").unwrap();
    let mut m = Metrics::for_service(&spec);
    m.sessions_completed = 12;
    // One session whose only primitive, conreq, came 40 µs in.
    let conreq = m.prims.id("conreq").unwrap();
    m.fold_session(&SessionCounts::default(), &[(conreq, 1)], &[40]);
    m.session_latency.record(900);
    let text = m.to_prometheus();
    assert!(text.contains("# TYPE protogen_sessions_completed_total counter"));
    assert!(text.contains("protogen_sessions_completed_total 12"));
    assert!(text.contains("# TYPE protogen_session_latency_us summary"));
    assert!(text.contains("protogen_session_latency_us_count 1"));
    assert!(text.contains("protogen_primitive_latency_us{primitive=\"conreq\",quantile=\"0.5\"}"));
    assert!(text.contains("protogen_primitive_latency_us_count{primitive=\"conreq\"} 1"));
    // One TYPE line per metric family, even with several primitives.
    assert_eq!(
        text.matches("# TYPE protogen_primitive_latency_us ")
            .count(),
        1
    );
}

fn sample_report() -> RuntimeReport {
    let mut per_link = BTreeMap::new();
    per_link.insert(
        "1->2".to_string(),
        LinkReport {
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
        },
    );
    RuntimeReport {
        engine: "concurrent",
        backend: "compiled",
        config: RuntimeConfig::new(),
        sessions: 7,
        conforming: 6,
        terminated: 5,
        deadlocked: 1,
        step_limited: 0,
        aborted: 1,
        violations: Vec::new(),
        primitives: 10,
        messages: 20,
        delivered: 19,
        messages_per_kind: BTreeMap::new(),
        max_queue_depth: 4,
        frames_lost: 3,
        retransmissions: 5,
        per_link,
        transport_events: vec!["link place:2 declared dead".to_string()],
        wall_s: 0.5,
        sessions_per_sec: 14.0,
        session_latency: HistSummary::default(),
        stages: Stages::default(),
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
            gauges: GaugeSnapshot::default(),
            tail: vec!["lc=3 place=1 prim a@1".to_string()],
        }],
        gauges: GaugeSnapshot {
            window_occupancy: 5,
            window_size: 128,
            link_backlog_frames: 11,
            pool_bufs_free: 6,
            pool_bufs_total: 8,
            per_link_backlog: BTreeMap::from([("place:2".to_string(), 11u64)]),
        },
        per_prim: BTreeMap::new(),
        phases: vec![("parse".to_string(), 1.25), ("derive".to_string(), 3.5)],
        trace_meta: Some(TraceMeta {
            trace_id: 77,
            rings: 3,
            events: 420,
            dropped: 0,
        }),
        abort_tails: BTreeMap::from([(4u64, vec!["lc=9 place=1 prim a@1".to_string()])]),
        reports: Vec::new(),
    }
}

#[test]
fn report_json_round_trips_schema_and_link_counters() {
    let report = sample_report();
    let json = Json::parse(&report.to_json().to_string()).unwrap();
    assert_eq!(
        json["schema_version"].as_u64(),
        Some(REPORT_SCHEMA_VERSION as u64)
    );
    assert_eq!(json["aborted"].as_u64(), Some(1));
    // The per-link map survives with its counters intact, batching
    // counters included.
    let link = &json["per_link"]["1->2"];
    for (key, want) in [
        ("reconnects", 1),
        ("dup_dropped", 2),
        ("faults", 4),
        ("batches", 6),
        ("bytes_sent", 4096),
        ("piggybacked_acks", 9),
        ("frames_per_batch_p50", 7),
        ("frames_per_batch_p99", 31),
    ] {
        assert_eq!(link[key].as_u64(), Some(want), "{key}");
    }
    assert_eq!(
        json["transport_events"][0].as_str(),
        Some("link place:2 declared dead")
    );
    // An aborted session fails the run even with zero violations.
    assert!(!report.passed());
    // Backend, phases and recorder metadata are machine-readable.
    assert_eq!(json["backend"].as_str(), Some("compiled"));
    assert_eq!(
        json["phases"],
        Json::Obj(vec![
            ("parse".to_string(), Json::F64(1.25)),
            ("derive".to_string(), Json::F64(3.5)),
        ])
    );
    assert_eq!(json["trace"]["trace_id"].as_u64(), Some(77));
    assert_eq!(json["trace"]["events"].as_u64(), Some(420));
    assert_eq!(
        json["recorder_tails"]["4"][0].as_str(),
        Some("lc=9 place=1 prim a@1")
    );
    // Stage summaries, stall records, gauges.
    assert_eq!(json["stages"]["queue_wait"]["count"].as_u64(), Some(0));
    let stall = &json["stalls"][0];
    assert_eq!(stall["age_us"].as_u64(), Some(5000));
    assert_eq!(stall["deadline_us"].as_u64(), Some(2000));
    assert_eq!(stall["entity_state"].to_string(), "[[0,7],[1,9]]");
    let gauges = &json["gauges"];
    assert_eq!(gauges["window_occupancy"].as_u64(), Some(5));
    assert_eq!(gauges["pool_bufs_total"].as_u64(), Some(8));
    assert_eq!(gauges["per_link_backlog"]["place:2"].as_u64(), Some(11));
}

/// A primitive name arrives from a socket peer, so quotes, newlines
/// and backslashes in it (or in event text) must be escaped, never
/// written raw into the report: the document parses, and every
/// string reads back exactly.
#[test]
fn report_json_escapes_peer_supplied_strings() {
    let mut report = sample_report();
    report.violations.push(ViolationRecord {
        session: 2,
        seed: 9,
        primitive: "a\"b\n".to_string(),
        place: 1,
        at: 0,
        trace: vec![("a\"b\n".to_string(), 1)],
        tail: vec!["recv C:\\tmp".to_string()],
    });
    report
        .transport_events
        .push("peer said \"bye\\\"".to_string());
    let text = report.to_json().to_string();
    assert!(!text.contains('\n'), "{text}");
    let json = Json::parse(&text).unwrap();
    let v = &json["violations"][0];
    assert_eq!(v["primitive"].as_str(), Some("a\"b\n"));
    assert_eq!(v["trace"][0].as_str(), Some("a\"b\n@1"));
    assert_eq!(v["tail"][0].as_str(), Some("recv C:\\tmp"));
    assert_eq!(
        json["transport_events"][1].as_str(),
        Some("peer said \"bye\\\"")
    );
}

/// `attribute` clamps components in order so the stage sum never
/// exceeds the end-to-end latency, whatever the raw measurements.
#[test]
fn stage_attribution_clamps_to_e2e() {
    // Local shape: measured queue + step, residual notify.
    let b = StageBreakdown::attribute(1000, 200, 300, 0, None);
    assert_eq!(
        b,
        StageBreakdown {
            queue_wait_us: 200,
            step_us: 300,
            notify_wait_us: 500,
            wire_us: 0
        }
    );
    assert_eq!(b.sum_us(), 1000);
    // Oversized raw measurements are trimmed in order.
    let b = StageBreakdown::attribute(100, 80, 50, 40, Some(90));
    assert_eq!(b.queue_wait_us, 80);
    assert_eq!(b.step_us, 20);
    assert_eq!(b.wire_us, 0);
    assert_eq!(b.notify_wait_us, 0);
    assert!(b.sum_us() <= 100);
    // Distributed shape with measured notify below the residual.
    let b = StageBreakdown::attribute(1000, 100, 200, 300, Some(250));
    assert_eq!(b.wire_us, 300);
    assert_eq!(b.notify_wait_us, 250);
    assert!(b.sum_us() <= 1000);
    // Zero end-to-end stays all-zero.
    assert_eq!(
        StageBreakdown::attribute(0, 5, 5, 5, None),
        StageBreakdown::default()
    );
}

/// The native histogram exposition carries monotone cumulative
/// `_bucket` series ending at `+Inf == _count`, one family per
/// stage label.
#[test]
fn prometheus_native_histograms_are_cumulative() {
    let spec = lotos::parser::parse_spec("SPEC a1; b2; exit ENDSPEC").unwrap();
    let mut m = Metrics::for_service(&spec);
    for v in [1u64, 3, 10, 100, 1000, 100_000_000] {
        m.session_latency.record(v);
        m.stages.record(&StageBreakdown {
            queue_wait_us: v / 2,
            step_us: v / 4,
            notify_wait_us: v / 4,
            wire_us: 0,
        });
    }
    let text = m.to_prometheus();
    assert!(text.contains("# TYPE protogen_session_latency_hist_us histogram"));
    assert!(text.contains("# TYPE protogen_stage_latency_us histogram"));
    // One TYPE line even though four stage series share the family.
    assert_eq!(text.matches("# TYPE protogen_stage_latency_us ").count(), 1);
    for stage in ["queue_wait", "step", "notify_wait", "wire"] {
        assert!(
            text.contains(&format!(
                "protogen_stage_latency_us_bucket{{stage=\"{stage}\",le=\"1\"}}"
            )),
            "{stage} missing from:\n{text}"
        );
        assert!(text.contains(&format!(
            "protogen_stage_latency_us_count{{stage=\"{stage}\"}} 6"
        )));
    }
    // Cumulative counts are monotone in `le` and end at +Inf = count.
    let mut last = 0u64;
    for line in text
        .lines()
        .filter(|l| l.starts_with("protogen_session_latency_hist_us_bucket"))
    {
        let v: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
        assert!(v >= last, "bucket counts regressed: {line}");
        last = v;
    }
    assert!(text.contains("protogen_session_latency_hist_us_bucket{le=\"+Inf\"} 6"));
    assert!(text.contains("protogen_session_latency_hist_us_count 6"));
    // 100s lands past the largest finite boundary (2^26 µs ≈ 67s)…
    let le_max = format!(
        "protogen_session_latency_hist_us_bucket{{le=\"{}\"}} 5",
        1u64 << 26
    );
    assert!(text.contains(&le_max), "{text}");
    // …and the gauges render with their declared types.
    assert!(text.contains("# TYPE protogen_window_occupancy gauge"));
    assert!(text.contains("# TYPE protogen_pool_bufs_capacity gauge"));
}

#[test]
fn health_json_is_parseable_and_live() {
    let spec = lotos::parser::parse_spec("SPEC a1; b2; exit ENDSPEC").unwrap();
    let mut m = Metrics::for_service(&spec);
    m.sessions_completed = 20;
    m.session_latency.record(800);
    m.stages.record(&StageBreakdown {
        queue_wait_us: 100,
        step_us: 300,
        notify_wait_us: 350,
        wire_us: 50,
    });
    m.gauges.window_occupancy = 4;
    m.gauges.window_size = 64;
    m.gauges.per_link_backlog.insert("place:2".to_string(), 3);
    let body = Json::parse(&m.health_json(2.0).to_string()).unwrap();
    assert_eq!(body["status"].as_str(), Some("ok"));
    assert_eq!(body["sessions_completed"].as_u64(), Some(20));
    assert_eq!(body["sessions_per_sec"], Json::F64(10.0));
    // Stages render exactly as the report's `stages` object.
    assert_eq!(body["stages"], m.stages.summaries().to_json());
    let queue = &body["stages"]["queue_wait"];
    assert_eq!(queue["count"].as_u64(), Some(1));
    assert!(queue["p50_us"].as_f64().is_some() && queue["p99_us"].as_f64().is_some());
    assert_eq!(body["gauges"]["window_occupancy"].as_u64(), Some(4));
    assert_eq!(
        body["gauges"]["per_link_backlog"]["place:2"].as_u64(),
        Some(3)
    );
}

#[test]
fn service_primitive_extraction() {
    let spec = lotos::parser::parse_spec(
        "SPEC conreq1; conind2; (dtreq1; dtind2; exit [] disreq1; exit) ENDSPEC",
    )
    .unwrap();
    let metrics = Metrics::for_service(&spec);
    let mut names: Vec<&str> = metrics.prims.names().collect();
    names.sort();
    assert_eq!(names, ["conind", "conreq", "disreq", "dtind", "dtreq"]);
    assert_eq!(metrics.per_prim.len(), 5);
}
