//! `perf-gate` — the CI performance-regression gate. Compares a fresh
//! `runtime-snapshot`/`distributed-snapshot` output against the
//! committed baseline (`BENCH_runtime.json` / `BENCH_distributed.json`)
//! and exits nonzero when throughput fell past a noise threshold.
//!
//! Entries are paired by the benchmark key — `(spec, mode,
//! profile/link_faults, backend, threads)` — positionally within
//! duplicates, so the same workload is always compared against itself
//! and `--quick` runs never gate against full baselines. A pairing
//! holds two checks:
//!
//! * **throughput**: fresh `sessions_per_sec` below
//!   `baseline × (1 − threshold)` is a regression;
//! * **tail latency**: the latency quantiles are log₂-bucketed, so a
//!   single bucket step is already 2× — only a fresh `latency_p99_us`
//!   beyond 4× baseline is flagged.
//!
//! Keys present on only one side are reported (the corpus changed) but
//! never gate. Exit codes: 0 clean (or `--report-only`), 1 regression,
//! 2 usage / unreadable / unparseable input.
//!
//! Usage:
//!   perf-gate --baseline BENCH_runtime.json --fresh fresh.json \
//!             [--threshold 0.25] [--report-only]

use semantics::json::Json;
use std::process::ExitCode;

/// Default relative throughput drop tolerated as noise. Shared CI
/// runners jitter hard; a quarter keeps the gate quiet on noise while
/// still catching the 2x cliffs the gate exists for.
const DEFAULT_THRESHOLD: f64 = 0.25;

/// Tail-latency multiplier: quantiles come from log₂ histograms, so
/// anything under one bucket step (2x) is indistinguishable from noise.
const P99_FACTOR: f64 = 4.0;

#[derive(Debug, Clone)]
struct Entry {
    key: String,
    sessions_per_sec: f64,
    latency_p99_us: u64,
}

/// One compared pairing (or an unpaired key).
#[derive(Debug)]
struct Verdict {
    line: String,
    regression: bool,
}

/// The entries of a snapshot document's `entries` array.
fn parse_snapshot(text: &str) -> Result<Vec<Entry>, String> {
    let doc = Json::parse(text)?;
    let entries = doc["entries"].as_array().ok_or("no \"entries\" array")?;
    if entries.is_empty() {
        return Err("snapshot has no entries".to_string());
    }
    entries
        .iter()
        .map(|e| {
            let spec = e["spec"]
                .as_str()
                .ok_or_else(|| format!("entry without spec: {e}"))?;
            let mode = e["mode"].as_str().unwrap_or("full");
            // runtime snapshots call the fault column `profile`,
            // distributed ones `link_faults`; either names the workload.
            let profile = e["profile"]
                .as_str()
                .or(e["link_faults"].as_str())
                .unwrap_or("-");
            let backend = e["backend"].as_str().unwrap_or("-");
            let threads = e["threads"].as_u64().unwrap_or(0);
            Ok(Entry {
                key: format!("{spec}/{mode}/{profile}/{backend}/t{threads}"),
                sessions_per_sec: e["sessions_per_sec"]
                    .as_f64()
                    .ok_or_else(|| format!("entry without sessions_per_sec: {e}"))?,
                latency_p99_us: e["latency_p99_us"].as_f64().map_or(0, |v| v as u64),
            })
        })
        .collect()
}

/// Pair baseline and fresh entries by key — positionally within
/// duplicate keys — and judge each pairing.
fn compare(baseline: &[Entry], fresh: &[Entry], threshold: f64) -> Vec<Verdict> {
    let mut out = Vec::new();
    let mut fresh_used = vec![false; fresh.len()];
    for b in baseline {
        let candidate = fresh
            .iter()
            .enumerate()
            .find(|(i, f)| !fresh_used[*i] && f.key == b.key);
        let Some((i, f)) = candidate else {
            out.push(Verdict {
                line: format!("  MISSING  {}  (baseline only — corpus changed?)", b.key),
                regression: false,
            });
            continue;
        };
        fresh_used[i] = true;
        let floor = b.sessions_per_sec * (1.0 - threshold);
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
                b.key, b.sessions_per_sec, f.sessions_per_sec, b.latency_p99_us, f.latency_p99_us
            ),
            regression: slow || p99_blown,
        });
    }
    for (i, f) in fresh.iter().enumerate() {
        if !fresh_used[i] {
            out.push(Verdict {
                line: format!("  NEW      {}  (no baseline yet)", f.key),
                regression: false,
            });
        }
    }
    out
}

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn run() -> Result<bool, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let baseline_path = flag_value(&args, "--baseline").ok_or("missing --baseline <file>")?;
    let fresh_path = flag_value(&args, "--fresh").ok_or("missing --fresh <file>")?;
    let threshold: f64 = match flag_value(&args, "--threshold") {
        Some(v) => v
            .parse()
            .map_err(|_| format!("bad --threshold value: {v}"))?,
        None => DEFAULT_THRESHOLD,
    };
    if !(0.0..1.0).contains(&threshold) {
        return Err(format!("--threshold must be in [0,1): {threshold}"));
    }
    let report_only = args.iter().any(|a| a == "--report-only");

    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("read {p}: {e}"));
    let baseline = parse_snapshot(&read(&baseline_path)?)
        .map_err(|e| format!("parse {baseline_path}: {e}"))?;
    let fresh =
        parse_snapshot(&read(&fresh_path)?).map_err(|e| format!("parse {fresh_path}: {e}"))?;

    println!(
        "perf-gate: {} baseline vs {} fresh entries, threshold {:.0}%{}",
        baseline.len(),
        fresh.len(),
        threshold * 100.0,
        if report_only { " (report only)" } else { "" }
    );
    let verdicts = compare(&baseline, &fresh, threshold);
    for v in &verdicts {
        println!("{}", v.line);
    }
    let regressions = verdicts.iter().filter(|v| v.regression).count();
    if regressions > 0 {
        println!("perf-gate: {regressions} regression(s) past the {threshold:.2} threshold");
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
            eprintln!(
                "usage: perf-gate --baseline <file> --fresh <file> \
                 [--threshold <frac>] [--report-only]"
            );
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snapshot(rates: &[(&str, f64, u64)]) -> String {
        let entries = rates.iter().map(|(key, rate, p99)| {
            let mut parts = key.split('/');
            let mut part = || parts.next().unwrap();
            semantics::json_obj! {
                "spec" => part(),
                "mode" => part(),
                "profile" => part(),
                "backend" => part(),
                "threads" => 4u64,
                "sessions_per_sec" => *rate,
                "latency_p99_us" => *p99,
            }
        });
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
        let v = compare(&e, &e, 0.25);
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
        let v = compare(&base, &fresh, 0.25);
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
        assert!(!compare(&base, &fresh, 0.25)[0].regression);
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
        let v = compare(&base, &fresh, 0.25);
        assert!(v[0].regression, "{}", v[0].line);
        assert!(v[0].line.contains("P99-REGRESSION"), "{}", v[0].line);
    }

    #[test]
    fn duplicate_keys_pair_positionally() {
        let key = "a.lotos/full/reliable/compiled";
        let base = parse_snapshot(&snapshot(&[(key, 1000.0, 512), (key, 500.0, 512)])).unwrap();
        let fresh = parse_snapshot(&snapshot(&[(key, 950.0, 512), (key, 480.0, 512)])).unwrap();
        // Positional pairing: 1000 vs 950 and 500 vs 480 — both fine.
        // Cross pairing (1000 vs 480) would flag a phantom regression.
        for v in compare(&base, &fresh, 0.25) {
            assert!(!v.regression, "{}", v.line);
        }
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
        let v = compare(&base, &fresh, 0.25);
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
        assert!(compare(&base, &fresh, 0.25).iter().all(|v| !v.regression));
    }

    /// Entries may carry nested objects and arrays (spread records,
    /// per-layer breakdowns); the gate reads its fields around them.
    #[test]
    fn nested_entries_parse() {
        let text = r#"{"entries": [
            {"spec": "a.lotos", "spread": {"iqr": [1, {"x": 2}]},
             "sessions_per_sec": 900.5, "threads": 2, "latency_p99_us": 64},
            {"spec": "b.lotos", "sessions_per_sec": 10}]}"#;
        let e = parse_snapshot(text).unwrap();
        assert_eq!(e.len(), 2);
        assert_eq!(e[0].key, "a.lotos/full/-/-/t2");
        assert_eq!(e[0].sessions_per_sec, 900.5);
        assert_eq!(e[0].latency_p99_us, 64);
        assert_eq!(e[1].sessions_per_sec, 10.0);
        assert!(parse_snapshot(r#"{"entries": [{"spec": "a"}]}"#).is_err());
        assert!(parse_snapshot(r#"{"entries": []}"#).is_err());
        assert!(parse_snapshot(r#"{"entries": [{"#).is_err());
    }

    #[test]
    fn committed_baselines_parse() {
        let root = format!("{}/../..", env!("CARGO_MANIFEST_DIR"));
        for name in ["BENCH_runtime.json", "BENCH_distributed.json"] {
            let text = std::fs::read_to_string(format!("{root}/{name}")).expect(name);
            let entries = parse_snapshot(&text).expect(name);
            assert!(entries.len() >= 4, "{name}: {} entries", entries.len());
            // Comparing a committed baseline against itself is clean.
            assert!(compare(&entries, &entries, 0.25)
                .iter()
                .all(|v| !v.regression));
        }
    }
}
