//! `distributed-snapshot` — drive the socket-backed distributed runtime
//! (hub + one OS thread per protocol entity, loopback TCP) over a small
//! corpus slice and write `BENCH_distributed.json` at the repository
//! root, so socket-transport throughput and recovery cost are tracked
//! in-tree alongside `BENCH_runtime.json`.
//!
//! Each spec runs twice: over clean links, and with every entity routed
//! through a seeded flaky [`FaultProxy`] that kills live connections —
//! the supervised link must reconnect and resume, so the flaky column
//! prices real crash recovery (reconnects + retransmissions), not just
//! serialization. Every surviving session must conform; a snapshot that
//! would record a non-conforming or aborted run panics instead.
//!
//! Usage: `cargo run --release -p bench --bin distributed-snapshot [--quick]`

use bench::snapshot::{distributed_entry, write_snapshot, THREADS};
use protogen::Pipeline;
use runtime::{run_hub_on, BackendChoice, DistributedConfig, RuntimeConfig, ServeConfig};
use semantics::json_obj;
use std::time::Duration;
use transport::{Addr, FaultProxy, LinkFaults};

const SEED: u64 = 0xC0FFEE;

/// Corpus spec + the disable trigger to refuse (if any).
const CORPUS: &[(&str, &[(&str, u8)])] = &[
    ("transport2.lotos", &[]),
    ("example3_file_copy.lotos", &[("interrupt", 3)]),
];

fn faults_tag(f: Option<LinkFaults>) -> &'static str {
    match f {
        None => "clean",
        Some(_) => "flaky-link",
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    // CI artifacts default to the full workload; --quick is for local
    // iteration, and every entry records which mode produced it so the
    // two are never compared as equals.
    let mode = if quick { "quick" } else { "full" };
    // The batched transport finishes 200 sessions in tens of
    // milliseconds — inside thread-spawn/connect overhead and shorter
    // than a flaky proxy's first kill window. The full workload is sized
    // so clean columns measure steady state and flaky columns actually
    // contain kills.
    let sessions = if quick { 40 } else { 2000 };
    let root = format!("{}/../..", env!("CARGO_MANIFEST_DIR"));
    let mut entries = Vec::new();

    for &(name, refuse) in CORPUS {
        let derived = Pipeline::load_file(&format!("{root}/specs/{name}"))
            .and_then(|p| p.check())
            .and_then(|c| c.derive())
            .unwrap_or_else(|e| panic!("specs/{name}: {e}"));
        let d = derived.derivation();

        let profiles = [
            None,
            Some(LinkFaults::Flaky {
                max_kills: 6,
                life_ms: (60, 160),
            }),
        ];
        // Same backend axis as BENCH_runtime.json: the interpreted
        // baseline plus `auto` (which lowers to `compiled` where it
        // can), so the two snapshots line up column for column.
        let backends = [BackendChoice::Interpreted, BackendChoice::Auto];
        for (faults, backend) in profiles
            .into_iter()
            .flat_map(|f| backends.into_iter().map(move |b| (f, b)))
        {
            let mut cfg = RuntimeConfig::new()
                .sessions(sessions)
                .threads(THREADS)
                .seed(SEED)
                .max_steps(20_000);
            cfg.backend = backend;
            for &(prim, place) in refuse {
                cfg = cfg.refuse(prim, place);
            }
            let dcfg = DistributedConfig::new(Addr::Tcp("127.0.0.1:0".to_string()));
            let listener = dcfg.listen.listen().expect("bind hub");
            let hub_addr = listener.local_addr().expect("hub addr");

            let mut proxies = Vec::new();
            let handles: Vec<_> = d
                .entities
                .iter()
                .map(|(p, spec)| {
                    let entity_hub = match faults {
                        Some(f) => {
                            let proxy = FaultProxy::spawn(
                                &Addr::Tcp("127.0.0.1:0".to_string()),
                                hub_addr.clone(),
                                f,
                                SEED.wrapping_add(*p as u64)
                                    .wrapping_mul(0x9E37_79B9_7F4A_7C15),
                            )
                            .expect("spawn proxy");
                            let a = proxy.addr.clone();
                            proxies.push(proxy);
                            a
                        }
                        None => hub_addr.clone(),
                    };
                    let mut scfg = ServeConfig::new(entity_hub, *p);
                    scfg.backend = cfg.backend;
                    scfg.seed = SEED;
                    scfg.backoff_base = Duration::from_millis(15);
                    scfg.backoff_cap = Duration::from_millis(300);
                    scfg.refuse = cfg.refuse.iter().map(|(n, pl)| (n.clone(), *pl)).collect();
                    let spec = spec.clone();
                    std::thread::spawn(move || runtime::serve_entity(&spec, &scfg))
                })
                .collect();

            let report = run_hub_on(d, &cfg, &dcfg, listener).expect("hub run");
            let kills: u64 = proxies.iter().map(|p| p.kills()).sum();
            for proxy in proxies {
                proxy.stop();
            }
            for h in handles {
                h.join().expect("entity thread").expect("entity outcome");
            }
            assert!(
                report.passed() && report.aborted == 0,
                "{name} [{} {backend}]: {}/{} conforming, {} aborted",
                faults_tag(faults),
                report.conforming,
                report.sessions,
                report.aborted,
            );

            let reconnects: usize = report.per_link.values().map(|l| l.reconnects).sum();
            let retx: usize = report.per_link.values().map(|l| l.retransmissions).sum();
            println!(
                "{name:28} {:10} {:11} {sessions:>4} sessions x {THREADS} window | \
                 {:>8.0} sessions/s | latency p50 {:>6}µs p99 {:>6}µs | \
                 kills {kills:>2} reconnects {reconnects:>2} retx {retx:>3}",
                faults_tag(faults),
                format!("{backend}"),
                report.sessions_per_sec,
                report.session_latency.p50,
                report.session_latency.p99,
            );

            entries.push(distributed_entry(
                name,
                mode,
                faults_tag(faults),
                &report,
                kills,
            ));
        }
    }

    write_snapshot(
        &format!("{root}/BENCH_distributed.json"),
        "cargo run --release -p bench --bin distributed-snapshot",
        json_obj! { "threads" => THREADS, "seed" => SEED, "quick" => quick },
        entries,
    );
}
