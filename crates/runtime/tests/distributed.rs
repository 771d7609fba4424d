//! Distributed conformance suite: the whole spec corpus executed over
//! *real sockets* — hub process loop + one entity loop per place, joined
//! by TCP or Unix-domain links — under connection-level fault injection
//! ([`transport::FaultProxy`] between every entity and the hub).
//!
//! Invariants, per ISSUE 4:
//! * every surviving session conforms to the service (zero monitor
//!   violations) and the run passes under clean, flaky-link, and
//!   partition-heal profiles — reliable FIFO survives real faults;
//! * a killed link never hangs the run: its sessions are aborted with
//!   diagnostics and every configured session gets a verdict.

use protogen::Pipeline;
use runtime::{
    derivation_fingerprint, run_hub_on, serve_entity, BackendChoice, DistributedConfig,
    RuntimeConfig, RuntimeReport, ServeConfig,
};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use transport::{Addr, FaultProxy, LinkFaults, WireMsg};

const SEEDS: [u64; 2] = [0xC0FFEE, 991];
const SESSIONS: usize = 2;

/// Wall-clock guard: a wedged distributed run must fail CI with the
/// case in flight dumped, not hang (same discipline as conformance.rs).
struct Watchdog {
    done: Arc<AtomicBool>,
    current: Arc<Mutex<String>>,
}

impl Watchdog {
    fn arm(name: &'static str, budget: Duration) -> Watchdog {
        let done = Arc::new(AtomicBool::new(false));
        let current = Arc::new(Mutex::new(String::from("<not started>")));
        let (d, c) = (Arc::clone(&done), Arc::clone(&current));
        std::thread::spawn(move || {
            let start = Instant::now();
            while start.elapsed() < budget {
                std::thread::sleep(Duration::from_millis(200));
                if d.load(Ordering::Relaxed) {
                    return;
                }
            }
            eprintln!(
                "WATCHDOG: {name} exceeded its {budget:?} budget.\ncase in flight: {}",
                c.lock().unwrap()
            );
            std::process::exit(101);
        });
        Watchdog { done, current }
    }

    fn enter(&self, case: String) {
        *self.current.lock().unwrap() = case;
    }
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        self.done.store(true, Ordering::Relaxed);
    }
}

fn corpus() -> Vec<(String, String)> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../specs");
    let mut specs: Vec<(String, String)> = std::fs::read_dir(dir)
        .expect("specs directory")
        .filter_map(|e| {
            let p = e.ok()?.path();
            if p.extension()? != "lotos" {
                return None;
            }
            let name = p.file_name()?.to_string_lossy().into_owned();
            let src = std::fs::read_to_string(&p).ok()?;
            Some((name, src))
        })
        .collect();
    specs.sort();
    assert!(specs.len() >= 8, "corpus went missing");
    specs
}

/// Same refusal table as conformance.rs: disable triggers are refused so
/// conformance is checked on the normal-completion side (the paper's
/// theorem excludes `[>`).
fn refusals(name: &str) -> Vec<(&'static str, u8)> {
    match name {
        "example3_file_copy.lotos" => vec![("interrupt", 3)],
        "example6_disable.lotos" => vec![("d", 3)],
        "transport3_abort.lotos" => vec![("abort", 2)],
        "transport4_multiplex.lotos" => vec![("abort", 3)],
        _ => Vec::new(),
    }
}

/// Fast-cadence fault profiles (the CLI-facing parse() defaults are
/// tuned for human-scale runs; the matrix wants tight windows). A
/// two-session run takes a few milliseconds to a few tens of them, so
/// the faults have to strike within the first milliseconds of a
/// connection to land inside the run at all.
fn profile(which: &str) -> LinkFaults {
    match which {
        "clean" => LinkFaults::Clean,
        "flaky-link" => LinkFaults::Flaky {
            max_kills: 2,
            life_ms: (3, 15),
        },
        "partition-heal" => LinkFaults::Partition {
            after_ms: (3, 15),
            heal_ms: (20, 60),
        },
        other => panic!("unknown profile {other}"),
    }
}

/// How long after its proxy starts a profile's faults can still land
/// on a connection that stays open: the longest first connection
/// lifetime under `Flaky`, the end of the latest partition window under
/// `Partition`.
fn fault_window(faults: LinkFaults) -> Duration {
    Duration::from_millis(match faults {
        LinkFaults::Clean => 0,
        LinkFaults::Flaky { life_ms, .. } => life_ms.1,
        LinkFaults::Partition { after_ms, heal_ms } => after_ms.1 + heal_ms.1,
    })
}

static UDS_COUNTER: AtomicU64 = AtomicU64::new(0);

fn listen_addr(uds: bool) -> Addr {
    if uds {
        let n = UDS_COUNTER.fetch_add(1, Ordering::Relaxed);
        Addr::Uds(std::env::temp_dir().join(format!("pg-d{}-{n}.sock", std::process::id())))
    } else {
        Addr::Tcp("127.0.0.1:0".to_string())
    }
}

/// One distributed run: hub in this thread, one entity thread per
/// place, one fault proxy per entity link. Returns the hub report and
/// the total connections the proxies killed.
///
/// Under a faulty profile the last place's entity starts only once
/// every proxy's [`fault_window`] has passed. No session can finish
/// without it, so the run outlasts its fault window by construction:
/// the other entities' links are open, with sessions in flight, when
/// their faults land, however fast the sessions themselves run.
fn run_one(
    src: &str,
    name: &str,
    faults: LinkFaults,
    seed: u64,
    uds: bool,
) -> (RuntimeReport, u64) {
    let derived = Pipeline::load(src)
        .unwrap_or_else(|e| panic!("{name}: {e}"))
        .check()
        .unwrap_or_else(|e| panic!("{name}: {e}"))
        .derive()
        .unwrap_or_else(|e| panic!("{name}: {e}"));
    let d = derived.derivation();
    let dcfg = DistributedConfig {
        heartbeat: Duration::from_millis(20),
        dead_after: Duration::from_millis(700),
        reconnect_deadline: Duration::from_secs(5),
        join_deadline: Duration::from_secs(15),
        stall_timeout: Duration::from_secs(30),
        ..DistributedConfig::new(listen_addr(uds))
    };
    let listener = dcfg.listen.listen().expect("hub bind");
    let hub_addr = listener.local_addr().expect("hub addr");

    let mut cfg = RuntimeConfig::new()
        .sessions(SESSIONS)
        .threads(2)
        .seed(seed)
        .max_steps(20_000);
    for (prim, place) in refusals(name) {
        cfg = cfg.refuse(prim, place);
    }

    let mut proxies = Vec::new();
    let mut handles = Vec::new();
    let last = d.entities.len() - 1;
    for (i, (p, spec)) in d.entities.iter().enumerate() {
        let proxy = FaultProxy::spawn(
            &listen_addr(uds),
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
        scfg.refuse = cfg.refuse.clone();
        let spec = spec.clone();
        // Proxies start in place order, so a release timed from the
        // last one's start comes after every proxy's window.
        let hold = if i == last {
            fault_window(faults)
        } else {
            Duration::ZERO
        };
        let release = Instant::now() + hold;
        handles.push(std::thread::spawn(move || {
            std::thread::sleep(release.saturating_duration_since(Instant::now()));
            serve_entity(&spec, &scfg)
        }));
        proxies.push(proxy);
    }

    let report = run_hub_on(d, &cfg, &dcfg, listener).expect("hub run");
    let kills: u64 = proxies.iter().map(|p| p.kills()).sum();
    for p in proxies {
        p.stop();
    }
    for h in handles {
        h.join()
            .expect("entity thread")
            .unwrap_or_else(|e| panic!("{name}: entity failed: {e}"));
    }
    (report, kills)
}

/// Corpus × seeds under one profile and transport: every session must
/// conform and terminate with zero violations, no aborts, no hangs.
fn matrix(which: &str, uds: bool) {
    let transport = if uds { "uds" } else { "tcp" };
    let watchdog = Watchdog::arm("distributed matrix", Duration::from_secs(600));
    let faults = profile(which);
    let mut kills_total = 0;
    let mut reconnects_total = 0usize;
    for (name, src) in corpus() {
        for seed in SEEDS {
            watchdog.enter(format!(
                "{name} transport={transport} profile={which} seed={seed}"
            ));
            let (report, kills) = run_one(&src, &name, faults, seed, uds);
            assert_eq!(
                report.sessions, SESSIONS,
                "{name} {transport} {which} seed={seed}: sessions missing from the report"
            );
            assert!(
                report.violations.is_empty(),
                "{name} {transport} {which} seed={seed}: monitor violations {:?}",
                report.violations
            );
            assert_eq!(
                report.aborted, 0,
                "{name} {transport} {which} seed={seed}: sessions aborted; events: {:?}",
                report.transport_events
            );
            assert!(
                report.passed(),
                "{name} {transport} {which} seed={seed}: failed; events: {:?}",
                report.transport_events
            );
            kills_total += kills;
            reconnects_total += report
                .per_link
                .values()
                .map(|l| l.reconnects)
                .sum::<usize>();
        }
    }
    if which != "clean" {
        assert!(
            kills_total > 0 || reconnects_total > 0,
            "{which} profile never disturbed a connection across the matrix — vacuous"
        );
    }
}

#[test]
fn tcp_clean_corpus_conforms() {
    matrix("clean", false);
}

#[test]
fn tcp_flaky_link_corpus_conforms() {
    matrix("flaky-link", false);
}

#[test]
fn tcp_partition_heal_corpus_conforms() {
    matrix("partition-heal", false);
}

#[test]
fn uds_clean_corpus_conforms() {
    matrix("clean", true);
}

#[test]
fn uds_flaky_link_corpus_conforms() {
    matrix("flaky-link", true);
}

#[test]
fn uds_partition_heal_corpus_conforms() {
    matrix("partition-heal", true);
}

/// Kill one entity's link for good mid-run: the hub must abort the
/// in-flight sessions with diagnostics — reported, never hung — and
/// every configured session must still get a verdict.
#[test]
fn dead_entity_aborts_sessions_with_diagnostics() {
    let watchdog = Watchdog::arm(
        "dead_entity_aborts_sessions_with_diagnostics",
        Duration::from_secs(120),
    );
    watchdog.enter("kill-one-entity".to_string());
    let derived = Pipeline::load("SPEC a1; b2; c1; exit ENDSPEC")
        .unwrap()
        .check()
        .unwrap()
        .derive()
        .unwrap();
    let d = derived.derivation();
    let dcfg = DistributedConfig {
        heartbeat: Duration::from_millis(20),
        dead_after: Duration::from_millis(400),
        reconnect_deadline: Duration::from_millis(800),
        join_deadline: Duration::from_secs(10),
        stall_timeout: Duration::from_secs(20),
        ..DistributedConfig::new(Addr::Tcp("127.0.0.1:0".to_string()))
    };
    let listener = dcfg.listen.listen().unwrap();
    let hub_addr = listener.local_addr().unwrap();
    // Far more sessions than the window — and far more than the batched
    // hub can finish before the kill below fires (it closes about 10k
    // sessions of this spec in those 80 ms on one CPU) — so plenty are
    // unopened when the link dies; they must be reported as aborted too.
    // The dead-entity declaration ends the run long before the count
    // could matter for wall time.
    const SESSIONS: usize = 100_000;
    let cfg = RuntimeConfig::new().sessions(SESSIONS).threads(1).seed(7);

    // Entity 1 is healthy and direct; entity 2 goes through a proxy that
    // is stopped shortly after startup — its link dies and stays dead.
    let (p1, spec1) = d.entities[0].clone();
    let mut scfg1 = ServeConfig::new(hub_addr.clone(), p1);
    scfg1.heartbeat = Duration::from_millis(20);
    scfg1.dead_after = Duration::from_millis(400);
    let h1 = std::thread::spawn(move || serve_entity(&spec1, &scfg1));

    let (p2, spec2) = d.entities[1].clone();
    let proxy = FaultProxy::spawn(
        &Addr::Tcp("127.0.0.1:0".to_string()),
        hub_addr.clone(),
        LinkFaults::Clean,
        7,
    )
    .unwrap();
    let mut scfg2 = ServeConfig::new(proxy.addr.clone(), p2);
    scfg2.heartbeat = Duration::from_millis(20);
    scfg2.dead_after = Duration::from_millis(400);
    scfg2.backoff_base = Duration::from_millis(15);
    scfg2.backoff_cap = Duration::from_millis(100);
    scfg2.retry_budget = 8;
    let h2 = std::thread::spawn(move || serve_entity(&spec2, &scfg2));

    let killer = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(80));
        proxy.stop();
    });

    let report = run_hub_on(d, &cfg, &dcfg, listener).expect("hub run");
    killer.join().unwrap();

    assert!(report.aborted > 0, "no session recorded the dead link");
    assert_eq!(
        report.terminated + report.deadlocked + report.step_limited + report.aborted,
        SESSIONS,
        "sessions vanished from the report"
    );
    assert!(
        !report.passed(),
        "a run with aborted sessions must not pass"
    );
    assert!(
        report
            .transport_events
            .iter()
            .any(|e| e.contains("dead") || e.contains("aborted")),
        "no diagnostic transport event: {:?}",
        report.transport_events
    );
    // Every aborted session report carries the Aborted verdict.
    assert!(report
        .reports
        .iter()
        .filter(|r| r.end == runtime::SessionEnd::Aborted)
        .count()
        .eq(&report.aborted));

    // The healthy entity is shut down cleanly; the dead one fails with
    // its retry budget exhausted.
    h1.join().unwrap().expect("healthy entity");
    let dead = h2.join().unwrap();
    assert!(
        dead.is_err(),
        "the cut-off entity should report a dead link"
    );
}

/// A peer speaking another wire version gets a typed error, not a hang:
/// a fake entity for place 1 opens with a `Hello` framed at version 2
/// (valid magic and checksum). The hub must log the handshake failure,
/// declare the place dead once `join_deadline` lapses, and return with
/// every session aborted.
#[test]
fn wrong_version_peer_fails_handshake_and_aborts() {
    use medium::codec::{crc32, put_varint, MAGIC};

    let watchdog = Watchdog::arm(
        "wrong_version_peer_fails_handshake_and_aborts",
        Duration::from_secs(60),
    );
    watchdog.enter("v2-hello".to_string());
    let derived = Pipeline::load("SPEC a1; b2; exit ENDSPEC")
        .unwrap()
        .check()
        .unwrap()
        .derive()
        .unwrap();
    let d = derived.derivation();
    let dcfg = DistributedConfig {
        heartbeat: Duration::from_millis(20),
        dead_after: Duration::from_millis(400),
        join_deadline: Duration::from_millis(500),
        stall_timeout: Duration::from_secs(20),
        ..DistributedConfig::new(Addr::Tcp("127.0.0.1:0".to_string()))
    };
    let listener = dcfg.listen.listen().unwrap();
    let hub_addr = listener.local_addr().unwrap();
    const SESSIONS: usize = 3;
    let cfg = RuntimeConfig::new().sessions(SESSIONS).threads(1).seed(7);

    // Place 2 is a real entity; place 1 is the down-level peer.
    let (p2, spec2) = d.entities[1].clone();
    let mut scfg2 = ServeConfig::new(hub_addr.clone(), p2);
    scfg2.heartbeat = Duration::from_millis(20);
    let h2 = std::thread::spawn(move || serve_entity(&spec2, &scfg2));

    // Hello { place: 1, last_seen: 0 } as a version-2 frame: payload is
    // seq 0, place, last_seen (no trailing ack); kind 0 is Hello.
    let payload = [0u8, d.entities[0].0, 0];
    let mut frame = MAGIC.to_vec();
    frame.extend_from_slice(&[2, 0]);
    put_varint(&mut frame, payload.len() as u64);
    frame.extend_from_slice(&payload);
    let crc = crc32(&frame[2..]);
    frame.extend_from_slice(&crc.to_le_bytes());
    let mut fake = hub_addr.connect(Duration::from_secs(2)).unwrap();
    fake.write_all(&frame).unwrap();

    let report = run_hub_on(d, &cfg, &dcfg, listener).expect("hub run");
    drop(fake);

    assert!(
        report
            .transport_events
            .iter()
            .any(|e| e == "handshake failed: unsupported wire version 2"),
        "no version diagnostic: {:?}",
        report.transport_events
    );
    assert_eq!(report.aborted, SESSIONS, "{:?}", report.transport_events);
    assert!(!report.passed());
    h2.join().unwrap().expect("healthy entity");
}

/// One verdict whatever executes the entities: refusing `b@2` in
/// `a1; b2; exit` deadlocks every session, and the deterministic engine
/// (threads 1), the concurrent engine (threads 2) and the hub must all
/// count the same conforming and deadlocked sessions and report the
/// refused primitive as the same violations.
#[test]
fn refusal_verdicts_agree_across_engines() {
    let watchdog = Watchdog::arm(
        "refusal_verdicts_agree_across_engines",
        Duration::from_secs(60),
    );
    watchdog.enter("refuse b@2".to_string());
    let derived = Pipeline::load("SPEC a1; b2; exit ENDSPEC")
        .unwrap()
        .check()
        .unwrap()
        .derive()
        .unwrap();
    let d = derived.derivation();
    let cfg = |threads: usize| {
        RuntimeConfig::new()
            .sessions(3)
            .threads(threads)
            .seed(7)
            .refuse("b", 2)
    };
    let verdict = |r: &RuntimeReport| {
        let mut prims: Vec<String> = r.violations.iter().map(|v| v.primitive.clone()).collect();
        prims.sort();
        (r.conforming, r.deadlocked, prims)
    };

    let deterministic = runtime::run(d, &cfg(1));
    let concurrent = runtime::run(d, &cfg(2));

    let dist_cfg = cfg(2);
    let dcfg = DistributedConfig {
        heartbeat: Duration::from_millis(20),
        ..DistributedConfig::new(Addr::Tcp("127.0.0.1:0".to_string()))
    };
    let listener = dcfg.listen.listen().unwrap();
    let hub_addr = listener.local_addr().unwrap();
    let handles: Vec<_> = d
        .entities
        .iter()
        .map(|(p, spec)| {
            let mut scfg = ServeConfig::new(hub_addr.clone(), *p);
            scfg.heartbeat = Duration::from_millis(20);
            scfg.refuse = dist_cfg.refuse.clone();
            let spec = spec.clone();
            std::thread::spawn(move || serve_entity(&spec, &scfg))
        })
        .collect();
    let distributed = run_hub_on(d, &dist_cfg, &dcfg, listener).expect("hub run");
    for h in handles {
        h.join().expect("entity thread").expect("entity outcome");
    }

    let expected = (0, 3, vec!["b".to_string(); 3]);
    assert_eq!(verdict(&deterministic), expected, "threads 1");
    assert_eq!(verdict(&concurrent), expected, "threads 2");
    assert_eq!(
        verdict(&distributed),
        expected,
        "distributed; events: {:?}",
        distributed.transport_events
    );
}

/// One backend report whatever executes the entities: under
/// `--backend auto` each entity steps from tables where it lowers, so a
/// derivation with some lowerable entities reports `mixed` on the
/// deterministic engine (threads 1), the concurrent engine (threads 2)
/// and the hub alike.
#[test]
fn backend_report_agrees_across_engines() {
    let watchdog = Watchdog::arm(
        "backend_report_agrees_across_engines",
        Duration::from_secs(60),
    );
    for name in [
        "example2_anbn.lotos",
        "example5_choice.lotos",
        "transport3_abort.lotos",
    ] {
        watchdog.enter(name.to_string());
        let path = format!("{}/../../specs/{name}", env!("CARGO_MANIFEST_DIR"));
        let derived = Pipeline::load_file(&path)
            .unwrap()
            .check()
            .unwrap()
            .derive()
            .unwrap();
        let d = derived.derivation();
        let cfg = |threads: usize| {
            let mut cfg = RuntimeConfig::new()
                .sessions(2)
                .threads(threads)
                .seed(5)
                .max_steps(20_000);
            for (prim, place) in refusals(name) {
                cfg = cfg.refuse(prim, place);
            }
            cfg
        };
        let deterministic = runtime::run(d, &cfg(1));
        let concurrent = runtime::run(d, &cfg(2));

        let hub_cfg = cfg(2);
        let dcfg = DistributedConfig {
            heartbeat: Duration::from_millis(20),
            ..DistributedConfig::new(Addr::Tcp("127.0.0.1:0".to_string()))
        };
        let listener = dcfg.listen.listen().unwrap();
        let hub_addr = listener.local_addr().unwrap();
        let handles: Vec<_> = d
            .entities
            .iter()
            .map(|(p, spec)| {
                let mut scfg = ServeConfig::new(hub_addr.clone(), *p);
                scfg.heartbeat = Duration::from_millis(20);
                scfg.refuse = hub_cfg.refuse.clone();
                let spec = spec.clone();
                std::thread::spawn(move || serve_entity(&spec, &scfg))
            })
            .collect();
        let distributed = run_hub_on(d, &hub_cfg, &dcfg, listener).expect("hub run");
        for h in handles {
            h.join().expect("entity thread").expect("entity outcome");
        }

        assert_eq!(deterministic.backend, "mixed", "{name}: threads 1");
        assert_eq!(concurrent.backend, "mixed", "{name}: threads 2");
        assert_eq!(distributed.backend, "mixed", "{name}: hub");
    }
}

fn transport2() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../specs/transport2.lotos");
    std::fs::read_to_string(path).expect("specs/transport2.lotos")
}

/// A connection that never says `Hello` must not hold up the run: the
/// hub keeps it in its poll set with its own deadline (`dead_after`)
/// while the sessions flow. One silent peer is queued on the listener
/// before any entity joins, so its deadline passes during the run and
/// it must be reported as timed out; a second connects while the
/// sessions are running. Every session must conform, and none may wait
/// anywhere near the 300 ms the hub gives a silent connection.
#[test]
fn silent_peer_does_not_stall_the_hub() {
    let watchdog = Watchdog::arm(
        "silent_peer_does_not_stall_the_hub",
        Duration::from_secs(120),
    );
    watchdog.enter("transport2, 2000 sessions, two silent peers".to_string());
    let derived = Pipeline::load(&transport2())
        .unwrap()
        .check()
        .unwrap()
        .derive()
        .unwrap();
    let d = derived.derivation();
    let dcfg = DistributedConfig {
        heartbeat: Duration::from_millis(20),
        dead_after: Duration::from_millis(300),
        join_deadline: Duration::from_secs(10),
        stall_timeout: Duration::from_secs(20),
        ..DistributedConfig::new(Addr::Tcp("127.0.0.1:0".to_string()))
    };
    let listener = dcfg.listen.listen().unwrap();
    let hub_addr = listener.local_addr().unwrap();
    const SESSIONS: usize = 2000;
    let cfg = RuntimeConfig::new().sessions(SESSIONS).threads(2).seed(7);

    let early_silent = hub_addr.connect(Duration::from_secs(2)).unwrap();
    let entities = d.entities.clone();
    let launcher = std::thread::spawn(move || {
        // Join after the early peer's handshake deadline has passed.
        std::thread::sleep(Duration::from_millis(450));
        let handles: Vec<_> = entities
            .into_iter()
            .map(|(p, spec)| {
                let mut scfg = ServeConfig::new(hub_addr.clone(), p);
                scfg.heartbeat = Duration::from_millis(20);
                std::thread::spawn(move || serve_entity(&spec, &scfg))
            })
            .collect();
        std::thread::sleep(Duration::from_millis(20));
        let late_silent = hub_addr.connect(Duration::from_secs(2)).unwrap();
        let outcomes: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        // Still open: the hub may be in its shutdown drain.
        (outcomes, late_silent)
    });

    let report = run_hub_on(d, &cfg, &dcfg, listener).expect("hub run");
    let (outcomes, late_silent) = launcher.join().unwrap();
    for outcome in outcomes {
        outcome.expect("entity outcome");
    }
    drop((early_silent, late_silent));

    assert_eq!(report.sessions, SESSIONS);
    assert_eq!(
        report.conforming, SESSIONS,
        "events: {:?}",
        report.transport_events
    );
    let slowest = report.reports.iter().map(|r| r.latency_us).max().unwrap();
    assert!(
        slowest < 1_000_000,
        "a silent peer stalled the hub: slowest session took {slowest} µs"
    );
    assert!(
        report
            .transport_events
            .iter()
            .any(|e| e == "handshake failed: no Hello within the handshake timeout"),
        "silent peer not reported: {:?}",
        report.transport_events
    );
    let hello_events = report
        .transport_events
        .iter()
        .filter(|e| e.contains("Hello"))
        .count();
    assert_eq!(
        hello_events, 2,
        "each silent peer is reported once: {:?}",
        report.transport_events
    );
}

/// With one session in flight the hub must be woken by the traffic, not
/// by a timer: the fastest of five one-session transport2 runs over
/// loopback finishes (set-up, session and shutdown drain) within 10 ms.
#[test]
fn single_session_is_not_timer_bound() {
    let watchdog = Watchdog::arm("single_session_is_not_timer_bound", Duration::from_secs(60));
    watchdog.enter("transport2, 1 session, 5 runs".to_string());
    let derived = Pipeline::load(&transport2())
        .unwrap()
        .check()
        .unwrap()
        .derive()
        .unwrap();
    let d = derived.derivation();
    let cfg = RuntimeConfig::new().sessions(1).threads(1).seed(7);
    let mut walls = Vec::new();
    for _ in 0..5 {
        let dcfg = DistributedConfig::new(Addr::Tcp("127.0.0.1:0".to_string()));
        let listener = dcfg.listen.listen().unwrap();
        let hub_addr = listener.local_addr().unwrap();
        let handles: Vec<_> = d
            .entities
            .iter()
            .map(|(p, spec)| {
                let scfg = ServeConfig::new(hub_addr.clone(), *p);
                let spec = spec.clone();
                std::thread::spawn(move || serve_entity(&spec, &scfg))
            })
            .collect();
        let report = run_hub_on(d, &cfg, &dcfg, listener).expect("hub run");
        for h in handles {
            h.join().expect("entity thread").expect("entity outcome");
        }
        assert!(report.passed(), "events: {:?}", report.transport_events);
        walls.push(report.wall_s);
    }
    let fastest = walls.iter().copied().fold(f64::INFINITY, f64::min);
    assert!(
        fastest < 0.010,
        "fastest one-session run took {:.1} ms (runs: {walls:?})",
        fastest * 1e3
    );
}

/// Every report's totals are the sums of what its sessions counted, on
/// every engine: primitives and messages over the session reports, the
/// per-kind message split over the message total, and the per-primitive
/// latency counts over the primitive total. The deterministic engine
/// measures no inter-arrival latency, so its `per_prim` stays empty.
#[test]
fn counters_agree_across_engines() {
    let watchdog = Watchdog::arm("counters_agree_across_engines", Duration::from_secs(120));
    for (name, src) in corpus() {
        let derived = Pipeline::load(&src)
            .unwrap()
            .check()
            .unwrap()
            .derive()
            .unwrap();
        let d = derived.derivation();
        let mut cfg = RuntimeConfig::new()
            .sessions(6)
            .threads(2)
            .seed(17)
            .max_steps(20_000);
        for (prim, place) in refusals(&name) {
            cfg = cfg.refuse(prim, place);
        }
        let check = |engine: &str, r: &RuntimeReport| {
            let case = format!("{name} on the {engine} engine");
            assert_eq!(r.sessions, 6, "{case}: sessions");
            let prims: usize = r.reports.iter().map(|s| s.primitives).sum();
            assert_eq!(r.primitives, prims, "{case}: primitives vs sessions");
            let msgs: usize = r.reports.iter().map(|s| s.messages).sum();
            assert_eq!(r.messages, msgs, "{case}: messages vs sessions");
            let per_kind: usize = r.messages_per_kind.values().sum();
            assert_eq!(
                per_kind, r.messages,
                "{case}: messages_per_kind vs messages"
            );
            let per_prim: u64 = r.per_prim.values().map(|h| h.count).sum();
            if engine == "deterministic" {
                assert_eq!(per_prim, 0, "{case}: per_prim");
            } else {
                assert_eq!(
                    per_prim as usize, r.primitives,
                    "{case}: per_prim vs primitives"
                );
            }
        };

        watchdog.enter(format!("{name}: deterministic"));
        check("deterministic", &runtime::run(d, &cfg.clone().threads(1)));
        watchdog.enter(format!("{name}: concurrent"));
        check("concurrent", &runtime::run(d, &cfg));

        watchdog.enter(format!("{name}: distributed"));
        let dcfg = DistributedConfig {
            heartbeat: Duration::from_millis(20),
            ..DistributedConfig::new(Addr::Tcp("127.0.0.1:0".to_string()))
        };
        let listener = dcfg.listen.listen().unwrap();
        let hub_addr = listener.local_addr().unwrap();
        let handles: Vec<_> = d
            .entities
            .iter()
            .map(|(p, spec)| {
                let mut scfg = ServeConfig::new(hub_addr.clone(), *p);
                scfg.heartbeat = Duration::from_millis(20);
                scfg.refuse = cfg.refuse.clone();
                let spec = spec.clone();
                std::thread::spawn(move || serve_entity(&spec, &scfg))
            })
            .collect();
        let distributed = run_hub_on(d, &cfg, &dcfg, listener).expect("hub run");
        for h in handles {
            h.join().expect("entity thread").expect("entity outcome");
        }
        check("distributed", &distributed);
    }
}

/// A transport2 run with both real entities and one hostile peer. Once
/// the hub has recorded the first entity's connection, `fake` runs
/// against the hub address, with that entity's place and derivation
/// fingerprint, and returns whatever it must keep open until the hub is
/// done. Every session must still conform.
fn run_beside_fake_peer<K>(case: &str, fake: impl FnOnce(Addr, u8, u64) -> K) -> RuntimeReport {
    use obs::EventKind;

    let watchdog = Watchdog::arm("hostile handshake", Duration::from_secs(120));
    watchdog.enter(case.to_string());
    let derived = Pipeline::load(&transport2())
        .unwrap()
        .check()
        .unwrap()
        .derive()
        .unwrap();
    let d = derived.derivation();
    let dcfg = DistributedConfig {
        heartbeat: Duration::from_millis(20),
        dead_after: Duration::from_millis(500),
        stall_timeout: Duration::from_secs(20),
        ..DistributedConfig::new(Addr::Tcp("127.0.0.1:0".to_string()))
    };
    let listener = dcfg.listen.listen().unwrap();
    let hub_addr = listener.local_addr().unwrap();
    const SESSIONS: usize = 2000;
    let registry = obs::Registry::new(runtime::trace_id_for(7), obs::DEFAULT_CAPACITY);
    let cfg = RuntimeConfig::new()
        .sessions(SESSIONS)
        .threads(2)
        .seed(7)
        .registry(Arc::clone(&registry));
    let handles: Vec<_> = d
        .entities
        .iter()
        .map(|(p, spec)| {
            let mut scfg = ServeConfig::new(hub_addr.clone(), *p);
            scfg.heartbeat = Duration::from_millis(20);
            let spec = spec.clone();
            std::thread::spawn(move || serve_entity(&spec, &scfg))
        })
        .collect();
    let place = d.entities[0].0;
    let fingerprint = derivation_fingerprint(&d.entities[0].1, cfg.backend);

    let report = std::thread::scope(|s| {
        let hub = s.spawn(|| run_hub_on(d, &cfg, &dcfg, listener).expect("hub run"));
        let connected = || {
            registry
                .snapshot()
                .events
                .iter()
                .any(|e| e.ev.kind == EventKind::LinkConnect && e.ev.a == u64::from(place))
        };
        while !connected() && !hub.is_finished() {
            std::thread::sleep(Duration::from_millis(1));
        }
        let kept = fake(hub_addr.clone(), place, fingerprint);
        let report = hub.join().unwrap();
        drop(kept);
        report
    });
    for h in handles {
        h.join().expect("entity thread").expect("entity outcome");
    }
    assert_eq!(report.sessions, SESSIONS, "{case}");
    assert_eq!(
        report.conforming, SESSIONS,
        "{case}: events {:?}",
        report.transport_events
    );
    report
}

fn has_event(report: &RuntimeReport, event: &str) -> bool {
    report.transport_events.iter().any(|e| e == event)
}

/// A `Hello` for a place the run does not have is turned away with a
/// typed entry; the run goes on.
#[test]
fn hello_for_unknown_place_is_rejected() {
    let report = run_beside_fake_peer("Hello for place 9", |addr, _, fingerprint| {
        let mut fake = addr.connect(Duration::from_secs(2)).unwrap();
        let hello = WireMsg::Hello {
            place: 9,
            last_seen: 0,
            fingerprint,
        };
        fake.write_all(&hello.encode(0)).unwrap();
        fake
    });
    assert!(
        has_event(&report, "rejected connection for unknown place 9"),
        "{:?}",
        report.transport_events
    );
}

/// A peer that sends half a `Hello` frame and closes fails its
/// handshake with a typed entry; the run goes on.
#[test]
fn half_a_hello_then_close_fails_the_handshake() {
    let report = run_beside_fake_peer("half a Hello, then close", |addr, place, fingerprint| {
        let mut fake = addr.connect(Duration::from_secs(2)).unwrap();
        let hello = WireMsg::Hello {
            place,
            last_seen: 0,
            fingerprint,
        }
        .encode(0);
        fake.write_all(&hello[..hello.len() / 2]).unwrap();
        fake.shutdown();
    });
    assert!(
        has_event(&report, "handshake failed: peer closed"),
        "{:?}",
        report.transport_events
    );
}

/// A second `Hello` for a place whose entity is connected and running
/// is turned away: the real entity keeps its link, and the run goes on.
#[test]
fn second_hello_for_a_connected_place_is_rejected() {
    let mut place = 0;
    let report = run_beside_fake_peer(
        "second Hello for a connected place",
        |addr, p, fingerprint| {
            place = p;
            let mut fake = addr.connect(Duration::from_secs(2)).unwrap();
            let hello = WireMsg::Hello {
                place: p,
                last_seen: 0,
                fingerprint,
            };
            fake.write_all(&hello.encode(0)).unwrap();
            fake
        },
    );
    assert!(
        has_event(
            &report,
            &format!("rejected connection for place {place}: already connected")
        ),
        "{:?}",
        report.transport_events
    );
    assert_eq!(
        report.per_link[&format!("place:{place}")].reconnects,
        0,
        "the real entity lost its link: {:?}",
        report.transport_events
    );
}

/// A hub deriving `hub_src` under `hub_backend`, beside one entity per
/// place of `entity_src` derived under `entity_backend`. The mismatch
/// must be caught at the handshake: each place's entity is refused with
/// a typed entry, no frame of any session leaves the hub, and each
/// entity gives up at once instead of spending its retry budget (40
/// attempts, more than 30 s of backoff). The hub declares the refused
/// place dead one reconnect deadline after the refusal, well before
/// its 30 s join deadline or 20 s stall guard, and says why. Its
/// shutdown drain then ends at once: no entity ever joined the other
/// place's link either, so there is nothing to wait another reconnect
/// deadline for.
fn assert_refused_at_handshake(
    hub_src: &str,
    hub_backend: BackendChoice,
    entity_src: &str,
    entity_backend: BackendChoice,
) {
    let derive = |src: &str| {
        Pipeline::load(src)
            .unwrap()
            .check()
            .unwrap()
            .derive()
            .unwrap()
    };
    let (hub_d, entity_d) = (derive(hub_src), derive(entity_src));
    let dcfg = DistributedConfig {
        reconnect_deadline: Duration::from_secs(1),
        ..DistributedConfig::new(Addr::Tcp("127.0.0.1:0".to_string()))
    };
    assert!(dcfg.join_deadline >= Duration::from_secs(30));
    assert!(dcfg.stall_timeout >= Duration::from_secs(20));
    let listener = dcfg.listen.listen().unwrap();
    let hub_addr = listener.local_addr().unwrap();
    let cfg = RuntimeConfig::new()
        .sessions(5)
        .threads(2)
        .seed(7)
        .backend(hub_backend);
    let handles: Vec<_> = entity_d
        .derivation()
        .entities
        .iter()
        .map(|(p, spec)| {
            let mut scfg = ServeConfig::new(hub_addr.clone(), *p);
            scfg.backend = entity_backend;
            let spec = spec.clone();
            std::thread::spawn(move || {
                let t = Instant::now();
                (serve_entity(&spec, &scfg), t.elapsed())
            })
        })
        .collect();
    let started = Instant::now();
    let report = run_hub_on(hub_d.derivation(), &cfg, &dcfg, listener).expect("hub run");
    let hub_took = started.elapsed();
    assert!(
        hub_took < Duration::from_secs(5),
        "the hub ran {hub_took:?}: {:?}",
        report.transport_events
    );
    assert!(
        hub_took < Duration::from_millis(1600),
        "the hub drained never-joined links for a reconnect deadline: ran {hub_took:?}: {:?}",
        report.transport_events
    );
    assert!(
        report
            .transport_events
            .iter()
            .any(|e| e.contains("aborted (entity at place")
                && e.contains("was refused: derivation fingerprint mismatch")),
        "{:?}",
        report.transport_events
    );
    for (place, link) in &report.per_link {
        let place = place.trim_start_matches("place:");
        let event =
            format!("rejected connection for place {place}: derivation fingerprint mismatch");
        assert!(has_event(&report, &event), "{:?}", report.transport_events);
        assert_eq!(link.bytes_sent, 0, "place {place} was sent frames");
    }
    assert_eq!(report.terminated, 0, "{:?}", report.transport_events);
    assert_eq!(report.aborted, report.sessions);
    assert_eq!(handles.len(), 2);
    for h in handles {
        let (outcome, took) = h.join().unwrap();
        let err = outcome.expect_err("a mismatched entity served");
        assert!(err.contains("refused by the hub"), "{err}");
        assert!(took < Duration::from_secs(10), "gave up after {took:?}");
    }
}

#[test]
fn entities_serving_a_different_spec_are_refused_at_the_handshake() {
    assert_refused_at_handshake(
        "SPEC a1; b2; c1; exit ENDSPEC",
        BackendChoice::Auto,
        "SPEC a1; b2; exit ENDSPEC",
        BackendChoice::Auto,
    );
}

#[test]
fn entities_with_a_different_backend_choice_are_refused_at_the_handshake() {
    let src = transport2();
    assert_refused_at_handshake(
        &src,
        BackendChoice::Interpreted,
        &src,
        BackendChoice::Compiled,
    );
}
