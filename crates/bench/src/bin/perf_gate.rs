//! `perf-gate` — the CI performance-regression gate. Compares a fresh
//! `snapshot runtime`/`snapshot distributed` output against the
//! committed baseline (`BENCH_runtime.json` / `BENCH_distributed.json`)
//! and exits nonzero when throughput fell past a noise threshold.
//!
//! Entries are read through [`LoadEntry::from_json`] and paired by its
//! key — `(spec, mode, faults, backend, threads)`, where `backend` is the
//! requested choice — so the same workload is always compared against
//! itself and `--quick` runs never gate against full baselines. An entry
//! missing a field, or a key two entries share, is a parse error. A
//! pairing holds two checks:
//!
//! * **throughput**: fresh `sessions_per_sec` below
//!   `baseline × (1 − THRESHOLD)` is a regression;
//! * **tail latency**: the latency quantiles are log₂-bucketed, so a
//!   single bucket step is already 2× — only a fresh `latency_p99_us`
//!   beyond 4× baseline is flagged.
//!
//! Keys present on only one side are reported (the corpus changed) but
//! never gate. Exit codes: 0 clean (or `--report-only`), 1 regression,
//! 2 usage / unreadable / unparseable input.
//!
//! Usage:
//!   perf-gate --baseline BENCH_runtime.json --fresh fresh.json [--report-only]

use bench::snapshot::LoadEntry;
use semantics::json::Json;
use std::collections::{BTreeSet, HashMap};
use std::process::ExitCode;

/// Relative throughput drop tolerated as noise. Shared CI runners
/// jitter hard; a quarter keeps the gate quiet on noise while still
/// catching the 2x cliffs the gate exists for.
const THRESHOLD: f64 = 0.25;

/// Tail-latency multiplier: quantiles come from log₂ histograms, so
/// anything under one bucket step (2x) is indistinguishable from noise.
const P99_FACTOR: f64 = 4.0;

/// One compared pairing (or an unpaired key).
struct Verdict {
    line: String,
    regression: bool,
}

/// The entries of a snapshot document's `entries` array, each under a
/// key no other entry has.
fn parse_snapshot(text: &str) -> Result<Vec<LoadEntry>, String> {
    let doc = Json::parse(text)?;
    let entries = doc["entries"].as_array().ok_or("no \"entries\" array")?;
    if entries.is_empty() {
        return Err("snapshot has no entries".to_string());
    }
    let entries = entries
        .iter()
        .map(LoadEntry::from_json)
        .collect::<Result<Vec<_>, String>>()?;
    let mut keys = BTreeSet::new();
    for e in &entries {
        if !keys.insert(e.key()) {
            return Err(format!("duplicate entry key {}", e.key()));
        }
    }
    Ok(entries)
}

/// Pair baseline and fresh entries by key and judge each pairing.
fn compare(baseline: &[LoadEntry], fresh: &[LoadEntry]) -> Vec<Verdict> {
    let mut out = Vec::new();
    let mut unpaired: HashMap<String, &LoadEntry> = fresh.iter().map(|f| (f.key(), f)).collect();
    for b in baseline {
        let Some(f) = unpaired.remove(&b.key()) else {
            out.push(Verdict {
                line: format!("  MISSING  {}  (baseline only — corpus changed?)", b.key()),
                regression: false,
            });
            continue;
        };
        let floor = b.sessions_per_sec * (1.0 - THRESHOLD);
        let delta = (f.sessions_per_sec - b.sessions_per_sec) / b.sessions_per_sec * 100.0;
        let slow = f.sessions_per_sec < floor;
        let p99_blown =
            b.latency_p99_us > 0 && f.latency_p99_us as f64 > b.latency_p99_us as f64 * P99_FACTOR;
        let tag = if slow {
            "REGRESSION"
        } else if p99_blown {
            "P99-REGRESSION"
        } else {
            "ok"
        };
        out.push(Verdict {
            line: format!(
                "  {tag:<14} {}  {:.1} -> {:.1}/s ({delta:+.1}%)  p99 {} -> {}us",
                b.key(),
                b.sessions_per_sec,
                f.sessions_per_sec,
                b.latency_p99_us,
                f.latency_p99_us
            ),
            regression: slow || p99_blown,
        });
    }
    for f in fresh {
        if unpaired.contains_key(&f.key()) {
            out.push(Verdict {
                line: format!("  NEW      {}  (no baseline yet)", f.key()),
                regression: false,
            });
        }
    }
    out
}

fn run() -> Result<bool, String> {
    let mut args = std::env::args().skip(1);
    let (mut baseline_path, mut fresh_path, mut report_only) = (None, None, false);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--baseline" => baseline_path = args.next(),
            "--fresh" => fresh_path = args.next(),
            "--report-only" => report_only = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let baseline_path = baseline_path.ok_or("missing --baseline <file>")?;
    let fresh_path = fresh_path.ok_or("missing --fresh <file>")?;

    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("read {p}: {e}"));
    let baseline = parse_snapshot(&read(&baseline_path)?)
        .map_err(|e| format!("parse {baseline_path}: {e}"))?;
    let fresh =
        parse_snapshot(&read(&fresh_path)?).map_err(|e| format!("parse {fresh_path}: {e}"))?;

    println!(
        "perf-gate: {} baseline vs {} fresh entries, threshold {:.0}%{}",
        baseline.len(),
        fresh.len(),
        THRESHOLD * 100.0,
        if report_only { " (report only)" } else { "" }
    );
    let verdicts = compare(&baseline, &fresh);
    for v in &verdicts {
        println!("{}", v.line);
    }
    let regressions = verdicts.iter().filter(|v| v.regression).count();
    if regressions > 0 {
        println!("perf-gate: {regressions} regression(s) past the {THRESHOLD:.2} threshold");
    } else {
        println!("perf-gate: no regressions");
    }
    Ok(regressions > 0 && !report_only)
}

fn main() -> ExitCode {
    match run() {
        Ok(false) => ExitCode::SUCCESS,
        Ok(true) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perf-gate: {e}");
            eprintln!("usage: perf-gate --baseline <file> --fresh <file> [--report-only]");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(key: &str, rate: f64, p99: u64) -> LoadEntry {
        let mut parts = key.split('/').map(str::to_string);
        let mut part = || parts.next().unwrap();
        LoadEntry {
            spec: part(),
            mode: part(),
            faults: part(),
            backend: part(),
            threads: 4,
            ran: "compiled".to_string(),
            sessions: 2000,
            sessions_per_sec: rate,
            latency_p50_us: p99 / 2,
            latency_p99_us: p99,
            overhead_ratio: 0.88,
            messages: 14234,
            frames_lost: 0,
            retransmissions: 0,
            reconnects: 0,
            kills: 0,
        }
    }

    fn snapshot(rates: &[(&str, f64, u64)]) -> String {
        let entries = rates
            .iter()
            .map(|&(key, rate, p99)| entry(key, rate, p99).to_json());
        let doc = semantics::json_obj! {
            "config" => semantics::json_obj! { "threads" => 4u64 },
            "entries" => entries.collect::<Json>(),
        };
        format!("{doc:#}")
    }

    #[test]
    fn identical_snapshots_pass() {
        let s = snapshot(&[("a.lotos/full/reliable/compiled", 1000.0, 512)]);
        let e = parse_snapshot(&s).unwrap();
        let v = compare(&e, &e);
        assert_eq!(v.len(), 1);
        assert!(!v[0].regression, "{}", v[0].line);
    }

    #[test]
    fn degraded_throughput_is_a_regression() {
        let base = parse_snapshot(&snapshot(&[
            ("a.lotos/full/reliable/compiled", 1000.0, 512),
            ("a.lotos/full/lossy/compiled", 800.0, 1024),
        ]))
        .unwrap();
        // One workload dropped 40% — past a 25% threshold.
        let fresh = parse_snapshot(&snapshot(&[
            ("a.lotos/full/reliable/compiled", 600.0, 512),
            ("a.lotos/full/lossy/compiled", 790.0, 1024),
        ]))
        .unwrap();
        let v = compare(&base, &fresh);
        assert!(v[0].regression, "{}", v[0].line);
        assert!(!v[1].regression, "{}", v[1].line);
    }

    #[test]
    fn noise_below_threshold_passes() {
        let base = parse_snapshot(&snapshot(&[(
            "a.lotos/full/reliable/compiled",
            1000.0,
            512,
        )]))
        .unwrap();
        let fresh =
            parse_snapshot(&snapshot(&[("a.lotos/full/reliable/compiled", 801.0, 512)])).unwrap();
        assert!(!compare(&base, &fresh)[0].regression);
    }

    #[test]
    fn p99_blowup_is_flagged() {
        let base = parse_snapshot(&snapshot(&[(
            "a.lotos/full/reliable/compiled",
            1000.0,
            512,
        )]))
        .unwrap();
        let fresh = parse_snapshot(&snapshot(&[(
            "a.lotos/full/reliable/compiled",
            990.0,
            4096,
        )]))
        .unwrap();
        let v = compare(&base, &fresh);
        assert!(v[0].regression, "{}", v[0].line);
        assert!(v[0].line.contains("P99-REGRESSION"), "{}", v[0].line);
    }

    #[test]
    fn duplicate_keys_are_rejected() {
        let key = "a.lotos/full/reliable/auto";
        let err = parse_snapshot(&snapshot(&[(key, 1000.0, 512), (key, 500.0, 512)])).unwrap_err();
        assert!(err.contains("duplicate entry key"), "{err}");
        assert!(err.contains("a.lotos/full/reliable/auto/t4"), "{err}");
        // The same key under another backend is a different workload.
        let ok = snapshot(&[
            (key, 1000.0, 512),
            ("a.lotos/full/reliable/interpreted", 500.0, 512),
        ]);
        assert_eq!(parse_snapshot(&ok).unwrap().len(), 2);
    }

    #[test]
    fn corpus_drift_reports_but_does_not_gate() {
        let base = parse_snapshot(&snapshot(&[(
            "old.lotos/full/reliable/compiled",
            1000.0,
            512,
        )]))
        .unwrap();
        let fresh = parse_snapshot(&snapshot(&[(
            "new.lotos/full/reliable/compiled",
            10.0,
            512,
        )]))
        .unwrap();
        let v = compare(&base, &fresh);
        assert_eq!(v.len(), 2);
        assert!(v.iter().all(|v| !v.regression));
        assert!(v.iter().any(|v| v.line.contains("MISSING")));
        assert!(v.iter().any(|v| v.line.contains("NEW")));
    }

    #[test]
    fn quick_mode_never_gates_against_full_baseline() {
        let base = parse_snapshot(&snapshot(&[(
            "a.lotos/full/reliable/compiled",
            1000.0,
            512,
        )]))
        .unwrap();
        let fresh = parse_snapshot(&snapshot(&[(
            "a.lotos/quick/reliable/compiled",
            100.0,
            512,
        )]))
        .unwrap();
        assert!(compare(&base, &fresh).iter().all(|v| !v.regression));
    }

    /// Entries may carry nested objects and arrays (spread records,
    /// per-layer breakdowns); the gate reads its fields around them.
    #[test]
    fn nested_entries_parse() {
        let mut e = entry("a.lotos/full/reliable/auto", 900.5, 64).to_json();
        let Json::Obj(members) = &mut e else {
            unreachable!()
        };
        let spread = Json::parse(r#"{"iqr": [1, {"x": 2}]}"#).unwrap();
        members.insert(1, ("spread".to_string(), spread));
        let e = parse_snapshot(&format!(r#"{{"entries": [{e}]}}"#)).unwrap();
        assert_eq!(e.len(), 1);
        assert_eq!(e[0].key(), "a.lotos/full/reliable/auto/t4");
        assert_eq!(e[0].sessions_per_sec, 900.5);
        assert_eq!(e[0].latency_p99_us, 64);
        // Rows that name no workload are errors, not defaults.
        let keyless = r#"{"entries": [{"spec": "b.lotos", "sessions_per_sec": 10}]}"#;
        assert!(parse_snapshot(keyless).is_err());
        assert!(parse_snapshot(r#"{"entries": [{"spec": "a"}]}"#).is_err());
        assert!(parse_snapshot(r#"{"entries": []}"#).is_err());
        assert!(parse_snapshot(r#"{"entries": [{"#).is_err());
    }

    /// An entry without one of its key columns is a parse error: the
    /// gate never files it under a default such as `full`, `-` or `t0`.
    #[test]
    fn missing_key_column_is_rejected() {
        for column in ["spec", "mode", "faults", "backend", "threads"] {
            let mut e = entry("a.lotos/full/reliable/auto", 1000.0, 512).to_json();
            let Json::Obj(members) = &mut e else {
                unreachable!()
            };
            members.retain(|(k, _)| k != column);
            let err = parse_snapshot(&format!(r#"{{"entries": [{e}]}}"#)).unwrap_err();
            assert!(err.contains(&format!("entry without {column}")), "{err}");
        }
    }

    #[test]
    fn committed_baselines_parse() {
        let root = format!("{}/../..", env!("CARGO_MANIFEST_DIR"));
        for name in ["BENCH_runtime.json", "BENCH_distributed.json"] {
            let text = std::fs::read_to_string(format!("{root}/{name}")).expect(name);
            let entries = parse_snapshot(&text).expect(name);
            assert!(entries.len() >= 4, "{name}: {} entries", entries.len());
            // Comparing a committed baseline against itself is clean.
            assert!(compare(&entries, &entries).iter().all(|v| !v.regression));
        }
    }

    /// Every committed flaky-link row prices recovery: its proxies cut a
    /// connection and the hub saw the entity reconnect.
    #[test]
    fn committed_flaky_rows_price_recovery() {
        let root = format!("{}/../..", env!("CARGO_MANIFEST_DIR"));
        let text = std::fs::read_to_string(format!("{root}/BENCH_distributed.json")).unwrap();
        let entries = parse_snapshot(&text).unwrap();
        let flaky: Vec<_> = entries
            .iter()
            .filter(|e| e.faults == "flaky-link")
            .collect();
        assert!(!flaky.is_empty());
        for e in flaky {
            assert!(e.kills >= 1 && e.reconnects >= 1, "{}: {e:?}", e.key());
        }
    }
}
