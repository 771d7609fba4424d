//! End-to-end flight-recorder acceptance: a distributed run under link
//! faults merges hub- and entity-side events into ONE causal trace
//! (retransmissions and reconnects ordered consistently with the
//! per-session logical clocks), a conformance violation automatically
//! carries the offending session's recorder tail, and the hub's
//! `--metrics` listener serves Prometheus text plus a trace drain.

use obs::EventKind;
use protogen::Pipeline;
use runtime::{
    run_hub_on, serve_entity, trace_id_for, DistributedConfig, RuntimeConfig, RuntimeReport,
    ServeConfig,
};
use std::io::{Read, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use transport::{Addr, FaultProxy, LinkFaults};

static UDS_COUNTER: AtomicU64 = AtomicU64::new(0);

fn uds_addr() -> Addr {
    let n = UDS_COUNTER.fetch_add(1, Ordering::Relaxed);
    Addr::Uds(std::env::temp_dir().join(format!("pg-tr{}-{n}.sock", std::process::id())))
}

fn transport2() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../specs/transport2.lotos");
    std::fs::read_to_string(path).expect("transport2.lotos")
}

fn dcfg(listen: Addr) -> DistributedConfig {
    DistributedConfig {
        heartbeat: Duration::from_millis(20),
        dead_after: Duration::from_millis(700),
        reconnect_deadline: Duration::from_secs(5),
        join_deadline: Duration::from_secs(20),
        stall_timeout: Duration::from_secs(30),
        ..DistributedConfig::new(listen)
    }
}

/// One recorded distributed run of transport2 behind fault proxies.
/// Returns the hub report and the merged causal log.
fn run_traced(
    src: &str,
    faults: LinkFaults,
    seed: u64,
    sessions: usize,
) -> (RuntimeReport, obs::TraceLog) {
    let derived = Pipeline::load(src)
        .unwrap()
        .check()
        .unwrap()
        .derive()
        .unwrap();
    let d = derived.derivation();
    let dcfg = dcfg(uds_addr());
    let listener = dcfg.listen.listen().expect("hub bind");
    let hub_addr = listener.local_addr().expect("hub addr");

    let registry = obs::Registry::new(trace_id_for(seed), obs::DEFAULT_CAPACITY);
    let cfg = RuntimeConfig::new()
        .sessions(sessions)
        .threads(2)
        .seed(seed)
        .max_steps(20_000)
        .registry(Arc::clone(&registry));

    let mut proxies = Vec::new();
    let mut handles = Vec::new();
    for (i, (p, spec)) in d.entities.iter().enumerate() {
        let proxy = FaultProxy::spawn(
            &uds_addr(),
            hub_addr.clone(),
            faults,
            seed.wrapping_add(i as u64)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15),
        )
        .expect("proxy spawn");
        let mut scfg = ServeConfig::new(proxy.addr.clone(), *p);
        scfg.heartbeat = Duration::from_millis(20);
        scfg.dead_after = Duration::from_millis(700);
        scfg.backoff_base = Duration::from_millis(15);
        scfg.backoff_cap = Duration::from_millis(300);
        scfg.retry_budget = 80;
        scfg.seed = seed;
        let spec = spec.clone();
        handles.push(std::thread::spawn(move || serve_entity(&spec, &scfg)));
        proxies.push(proxy);
    }

    let report = run_hub_on(d, &cfg, &dcfg, listener).expect("hub run");
    for p in proxies {
        p.stop();
    }
    for h in handles {
        h.join().expect("entity thread").expect("entity run");
    }
    (report, registry.snapshot())
}

/// Acceptance: a distributed transport2 run under the flaky-link fault
/// profile yields ONE merged causal trace — entity-side events shipped
/// back over the wire — where every retransmission and reconnect is
/// ordered consistently with the per-session logical clocks.
#[test]
fn distributed_flaky_run_merges_one_causal_trace() {
    let src = transport2();
    let mut saw_reconnect = false;
    let mut saw_retransmit = false;
    // The fault schedule is seeded; scan seeds until one produces both
    // a reconnect and a retransmission (each run must be causally sound
    // regardless). Short connection lives and a deep session backlog
    // keep frames in flight when the kill lands, so a retransmitting
    // resume shows up within a few seeds on any host. A hundred
    // sessions last a few milliseconds over loopback, so the kills come
    // within the first milliseconds of a connection; the recorder rings
    // (4096 events each) still hold every event of the run.
    for seed in [0xC0FFEEu64, 991, 7, 42, 0xBEEF, 12345, 5, 0xDEAD, 99, 2024] {
        let faults = LinkFaults::Flaky {
            max_kills: 4,
            life_ms: (2, 8),
        };
        let (report, log) = run_traced(&src, faults, seed, 100);
        assert!(
            report.passed(),
            "seed {seed}: flaky run failed: {:?}",
            report.transport_events
        );
        assert_eq!(log.trace_id, trace_id_for(seed), "trace id mismatch");
        let meta = report.trace_meta.as_ref().expect("trace metadata");
        assert!(meta.events > 0, "empty recorder");

        // Entity processes recorded at their own places and the hub
        // absorbed the chunks: the merged log spans multiple places.
        assert!(
            log.events
                .iter()
                .any(|t| t.ev.place != 0 && t.ev.kind == EventKind::MediumSend),
            "seed {seed}: no entity-side medium events in the merged log"
        );
        assert!(
            log.events
                .iter()
                .any(|t| t.ev.place == 0 && t.ev.kind == EventKind::Prim),
            "seed {seed}: no hub-side primitive events"
        );

        // Causal soundness of the merged log: per-(session, place)
        // logical clocks strictly increase and no receive precedes its
        // send. This is the acceptance bar for the merge.
        let violations = log.causal_violations();
        assert!(
            violations.is_empty(),
            "seed {seed}: causal violations in merged trace: {violations:?}"
        );

        saw_reconnect |= log
            .events
            .iter()
            .any(|t| t.ev.kind == EventKind::LinkReconnect);
        saw_retransmit |= log
            .events
            .iter()
            .any(|t| t.ev.kind == EventKind::LinkRetransmit);
        if saw_reconnect && saw_retransmit {
            break;
        }
    }
    assert!(
        saw_reconnect && saw_retransmit,
        "no seed produced both a reconnect and a retransmission event \
         (reconnect={saw_reconnect} retransmit={saw_retransmit})"
    );
}

/// Acceptance: a conformance violation provoked by refusing a required
/// primitive automatically attaches the offending session's
/// flight-recorder tail to the report — both engines.
#[test]
fn refused_offer_attaches_flight_recorder_tail() {
    let derived = Pipeline::load("SPEC a1; b2; exit ENDSPEC")
        .unwrap()
        .check()
        .unwrap()
        .derive()
        .unwrap();
    for threads in [1usize, 2] {
        let cfg = RuntimeConfig::new()
            .sessions(3)
            .threads(threads)
            .seed(11)
            .record(true)
            .refuse("b", 2);
        let report = runtime::run(derived.derivation(), &cfg);
        assert!(
            !report.passed(),
            "threads={threads}: refusing b@2 must fail the run"
        );
        assert!(
            !report.violations.is_empty(),
            "threads={threads}: refusal produced no violation record"
        );
        for v in &report.violations {
            assert_eq!(v.primitive, "b", "threads={threads}");
            assert!(
                !v.tail.is_empty(),
                "threads={threads}: violation for session {} carries no recorder tail",
                v.session
            );
            assert!(
                v.tail
                    .iter()
                    .any(|l| l.contains("prim") || l.contains("offer")),
                "threads={threads}: tail has no primitive activity: {:?}",
                v.tail
            );
        }
        assert!(report.trace_meta.is_some(), "threads={threads}");
        // The tail also lands in the JSON export.
        let json = report.to_json();
        assert!(
            json["violations"][0]["tail"]
                .as_array()
                .is_some_and(|t| !t.is_empty()),
            "{json}"
        );
    }
}

fn http_get(addr: &str, path: &str) -> Option<String> {
    let mut s = std::net::TcpStream::connect(addr).ok()?;
    s.set_read_timeout(Some(Duration::from_secs(2))).ok()?;
    write!(
        s,
        "GET {path} HTTP/1.1\r\nHost: h\r\nConnection: close\r\n\r\n"
    )
    .ok()?;
    let mut buf = String::new();
    s.read_to_string(&mut buf).ok()?;
    if !buf.starts_with("HTTP/1.1 200") {
        return None;
    }
    let body = buf.split_once("\r\n\r\n")?.1;
    Some(body.to_string())
}

/// The hub's `--metrics` listener serves Prometheus text exposition on
/// `/metrics` and drains the recorder as Chrome trace JSON on `/trace`
/// while the run is live. The scrape happens while the hub waits for
/// the (deliberately delayed) entities to join.
#[test]
fn hub_metrics_endpoint_serves_prometheus_and_trace() {
    let src = transport2();
    let derived = Pipeline::load(&src)
        .unwrap()
        .check()
        .unwrap()
        .derive()
        .unwrap();
    let entities = derived.derivation().entities.clone();

    // Reserve an ephemeral port for the metrics listener.
    let probe = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let maddr = probe.local_addr().unwrap().to_string();
    drop(probe);

    let mut dcfg = dcfg(uds_addr());
    dcfg.metrics = Some(maddr.clone());
    let listener = dcfg.listen.listen().expect("hub bind");
    let hub_addr = listener.local_addr().expect("hub addr");
    let cfg = RuntimeConfig::new()
        .sessions(2)
        .threads(2)
        .seed(3)
        .record(true);

    let cfg2 = cfg.clone().registry(obs::Registry::new(
        trace_id_for(cfg.seed),
        obs::DEFAULT_CAPACITY,
    ));
    let hub = std::thread::spawn(move || run_hub_on(derived.derivation(), &cfg2, &dcfg, listener));

    // Scrape while the hub is waiting for entities to join.
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut metrics_body = None;
    while metrics_body.is_none() && Instant::now() < deadline {
        metrics_body = http_get(&maddr, "/metrics");
        if metrics_body.is_none() {
            std::thread::sleep(Duration::from_millis(20));
        }
    }
    let metrics_body = metrics_body.expect("scraping /metrics never succeeded");
    assert!(
        metrics_body.contains("# TYPE protogen_sessions_completed_total counter"),
        "{metrics_body}"
    );
    let trace_body = http_get(&maddr, "/trace").expect("trace drain");
    obs::parse_chrome_json(&trace_body).expect("trace drain is valid Chrome trace JSON");
    assert!(
        http_get(&maddr, "/nope").is_none(),
        "unknown route must 404"
    );

    // Now let the run proceed to completion.
    let mut handles = Vec::new();
    for (p, spec) in entities.iter() {
        let mut scfg = ServeConfig::new(hub_addr.clone(), *p);
        scfg.heartbeat = Duration::from_millis(20);
        scfg.dead_after = Duration::from_millis(700);
        let spec = spec.clone();
        handles.push(std::thread::spawn(move || serve_entity(&spec, &scfg)));
    }
    let report = hub.join().unwrap().expect("hub run");
    for h in handles {
        h.join().unwrap().expect("entity");
    }
    assert!(report.passed(), "{:?}", report.transport_events);
    // The listener is down after the run.
    std::thread::sleep(Duration::from_millis(50));
    assert!(
        http_get(&maddr, "/metrics").is_none(),
        "metrics listener survived the run"
    );
}

/// The value of every sample line of a Prometheus body, keyed by series
/// (name plus label set).
fn prom_samples(body: &str) -> std::collections::BTreeMap<&str, f64> {
    body.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (series, value) = l.rsplit_once(' ')?;
            Some((series, value.parse().ok()?))
        })
        .collect()
}

/// Check one `/metrics` or `/health` body: the completed-session count
/// equals every latency count in it. Returns that count.
fn consistent_counts(route: &str, body: &str) -> u64 {
    const STAGES: [&str; 4] = ["queue_wait", "step", "notify_wait", "wire"];
    if route == "/health" {
        let h = semantics::json::Json::parse(body).expect("/health is JSON");
        let completed = h["sessions_completed"]
            .as_u64()
            .expect("sessions_completed");
        for stage in STAGES {
            let count = h["stages"][stage]["count"].as_u64();
            assert_eq!(count, Some(completed), "{stage} count in /health: {body}");
        }
        return completed;
    }
    let s = prom_samples(body);
    let completed = s["protogen_sessions_completed_total"];
    let mut counts = vec![
        ("session summary", s["protogen_session_latency_us_count"]),
        (
            "session histogram",
            s["protogen_session_latency_hist_us_count"],
        ),
    ];
    for stage in STAGES {
        let series = format!("protogen_stage_latency_us_count{{stage=\"{stage}\"}}");
        counts.push((stage, s[series.as_str()]));
    }
    for (what, count) in counts {
        assert_eq!(count, completed, "{what} count in /metrics:\n{body}");
    }
    completed as u64
}

/// `/metrics` and `/health` render from one published copy of the hub's
/// metrics, so within any one body the completed-session count equals
/// every latency count, even while 2000 sessions complete under a
/// scraper per route.
#[test]
fn metrics_and_health_scrapes_agree_within_each_body() {
    let derived = Pipeline::load(&transport2())
        .unwrap()
        .check()
        .unwrap()
        .derive()
        .unwrap();
    let entities = derived.derivation().entities.clone();
    let probe = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let maddr = probe.local_addr().unwrap().to_string();
    drop(probe);
    let mut dcfg = dcfg(uds_addr());
    dcfg.metrics = Some(maddr.clone());
    let listener = dcfg.listen.listen().expect("hub bind");
    let hub_addr = listener.local_addr().expect("hub addr");
    let cfg = RuntimeConfig::new().sessions(2000).threads(2).seed(5);
    let done = std::sync::atomic::AtomicBool::new(false);
    let (report, seen) = std::thread::scope(|scope| {
        // Two scrapers per route, so requests queue at the listener and
        // are served back to back.
        let scrapers: Vec<_> = ["/metrics", "/health", "/metrics", "/health"]
            .into_iter()
            .map(|route| {
                let (maddr, done) = (&maddr, &done);
                scope.spawn(move || {
                    let mut seen = Vec::new();
                    while !done.load(Ordering::Relaxed) {
                        if let Some(body) = http_get(maddr, route) {
                            seen.push(consistent_counts(route, &body));
                        }
                    }
                    seen
                })
            })
            .collect();
        let hub = scope.spawn(|| run_hub_on(derived.derivation(), &cfg, &dcfg, listener));
        let entities: Vec<_> = entities
            .iter()
            .map(|(p, spec)| {
                let mut scfg = ServeConfig::new(hub_addr.clone(), *p);
                scfg.heartbeat = Duration::from_millis(20);
                scfg.dead_after = Duration::from_millis(700);
                scope.spawn(move || serve_entity(spec, &scfg))
            })
            .collect();
        let report = hub.join().unwrap().expect("hub run");
        done.store(true, Ordering::Relaxed);
        for e in entities {
            e.join().unwrap().expect("entity");
        }
        let seen: Vec<Vec<u64>> = scrapers.into_iter().map(|s| s.join().unwrap()).collect();
        (report, seen)
    });
    assert!(report.passed(), "{:?}", report.transport_events);
    for (route, seen) in ["/metrics", "/health", "/metrics", "/health"]
        .iter()
        .zip(&seen)
    {
        assert!(
            !seen.is_empty(),
            "no {route} scrape succeeded during the run"
        );
        eprintln!("{route}: {} scrapes, completed counts {:?}", seen.len(), {
            let mut distinct = seen.clone();
            distinct.dedup();
            distinct
        });
    }
}
