//! `perfbench` — the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <verify-gen|local-clean|dist-loopback> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one closed-loop workload for `--seconds` of measured time,
//! checks every op's output, and prints, as the last line of standard
//! output, one JSON object: `correct`, `attempted`, `failed` and
//! `metrics` (each `{value, unit}`). `--trace 0` gives the end-to-end
//! metrics; `--trace 1` is the separate traced run, which gives the
//! per-layer metrics. Each run also appends its host record, sample
//! counts and notes to `perfbench/out/runs.jsonl`, and a traced run
//! writes its spans to `perfbench/out/spans-<workload>-<seed>.json`.
//! See `perfbench/README.md`.

mod host;
mod layers;
mod sessions;
mod spans;
mod stats;
mod verify_gen;

use std::fmt::Write as _;
use std::io::Write as _;
use std::time::Instant;

/// End-to-end metrics, printed by every untraced run in this order.
pub const END_TO_END: &[(&str, &str)] = &[
    ("ops_per_s", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_p90_us", "us"),
    ("cpu_us_per_op", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by every traced run.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("lotos.parse_us", "us"),
    ("lotos.check_us", "us"),
    ("core.derive_us", "us"),
    ("core.msgs_per_prim", "count"),
    ("semantics.explore_us", "us"),
    ("semantics.comp_states", "count"),
    ("semantics.states_per_s", "1/s"),
    ("semantics.probe_wasted_share", "ratio"),
    ("semantics.detdfa_us", "us"),
    ("semantics.bisim_us", "us"),
    ("semantics.failures_us", "us"),
    ("verify.self_us", "us"),
    ("semantics.lower_us", "us"),
    ("runtime.backend_step_ns", "ns"),
    ("runtime.monitor_ns_per_prim", "ns"),
    ("runtime.msgs_per_op", "count"),
    ("runtime.queue_wait_p50_us", "us"),
    ("runtime.step_p50_us", "us"),
    ("runtime.notify_wait_p50_us", "us"),
    ("runtime.notify_wait_p99_us", "us"),
    ("runtime.faults_ns_per_msg", "ns"),
    ("transport.encode_ns_per_frame", "ns"),
    ("transport.decode_ns_per_frame", "ns"),
    ("transport.frames_per_batch", "count"),
    ("transport.bytes_per_op", "bytes"),
    ("transport.piggyback_ratio", "ratio"),
    ("runtime.wire_p50_us", "us"),
    ("runtime.wire_p99_us", "us"),
    ("obs.trace_overhead", "ratio"),
];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    VerifyGen,
    LocalClean,
    DistLoopback,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::VerifyGen,
        Workload::LocalClean,
        Workload::DistLoopback,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::VerifyGen => "verify-gen",
            Workload::LocalClean => "local-clean",
            Workload::DistLoopback => "dist-loopback",
        }
    }

    fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// One measured value.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Samples the value was computed from, where it is a statistic.
    pub samples: Option<usize>,
    /// Samples beyond a reported tail percentile.
    pub beyond: Option<usize>,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric {
            name,
            value,
            unit,
            samples: None,
            beyond: None,
        }
    }

    pub fn samples(mut self, n: usize) -> Metric {
        self.samples = Some(n);
        self
    }

    pub fn beyond(mut self, n: usize) -> Metric {
        self.beyond = Some(n);
        self
    }
}

/// What a run measured and checked.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub notes: Vec<String>,
    /// The traced run's spans, as JSON.
    pub spans: Option<String>,
}

/// SplitMix64 finalizer: derives every seed of a run from `--seed`.
pub fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(v).ok_or(format!("unknown workload {v}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".to_string());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace must be 0 or 1, not {v}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Run one workload, untraced or traced.
pub fn run(a: &Args) -> Result<Outcome, String> {
    let mut out = match (a.trace, a.workload) {
        (true, w) => layers::run(w, a.seed, a.seconds)?,
        (false, Workload::VerifyGen) => verify_gen::run(a.seed, a.seconds)?,
        (false, Workload::LocalClean) => sessions::run(sessions::Engine::Local, a.seed, a.seconds)?,
        (false, Workload::DistLoopback) => {
            sessions::run(sessions::Engine::Dist, a.seed, a.seconds)?
        }
    };
    let expected = if a.trace { PER_LAYER } else { END_TO_END };
    let mut ordered = Vec::new();
    for &(name, unit) in expected {
        let i = out
            .metrics
            .iter()
            .position(|m| m.name == name)
            .ok_or(format!("metric {name} was not measured"))?;
        let m = out.metrics.swap_remove(i);
        if m.unit != unit || !m.value.is_finite() {
            return Err(format!("metric {name}: bad value {} {}", m.value, m.unit));
        }
        if m.beyond.is_some_and(|b| b < stats::MIN_BEYOND) {
            return Err(format!(
                "metric {name}: too few samples beyond the percentile"
            ));
        }
        ordered.push(m);
    }
    if let Some(extra) = out.metrics.first() {
        return Err(format!(
            "metric {} measured twice or not declared",
            extra.name
        ));
    }
    out.metrics = ordered;
    Ok(out)
}

/// The result line.
pub fn result_json(out: &Outcome) -> String {
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        out.failed == 0 && out.attempted > 0,
        out.attempted,
        out.failed
    );
    for (i, m) in out.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    s.push_str("}}");
    s
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// The run record appended to `out/runs.jsonl`.
fn record_json(a: &Args, out: &Outcome, host: &str) -> String {
    let mut metrics = String::new();
    for (i, m) in out.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            metrics,
            "{sep}\"{}\":{{\"value\":{:?},\"unit\":\"{}\",\"samples\":{},\"beyond\":{}}}",
            m.name,
            m.value,
            m.unit,
            m.samples.map_or("null".into(), |n| n.to_string()),
            m.beyond.map_or("null".into(), |n| n.to_string()),
        );
    }
    let notes: Vec<String> = out.notes.iter().map(|n| json_str(n)).collect();
    format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"attempted\":{},\
         \"failed\":{},\"host\":{host},\"metrics\":{{{metrics}}},\"notes\":[{}]}}",
        a.workload.name(),
        a.seed,
        a.seconds,
        a.trace as u8,
        out.attempted,
        out.failed,
        notes.join(",")
    )
}

fn write_artifacts(a: &Args, out: &Outcome, host: &str) -> std::io::Result<()> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    std::fs::create_dir_all(dir)?;
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(format!("{dir}/runs.jsonl"))?;
    writeln!(f, "{}", record_json(a, out, host))?;
    if let Some(spans) = &out.spans {
        std::fs::write(
            format!("{dir}/spans-{}-{}.json", a.workload.name(), a.seed),
            spans,
        )?;
    }
    Ok(())
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let a = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload <verify-gen|local-clean|dist-loopback> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let started = Instant::now();
    host::wait_quiet();
    let before = host::HostSample::take();
    let out = match run(&a) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", a.workload.name());
            std::process::exit(1);
        }
    };
    let after = host::HostSample::take();
    let host = host::record_json(&before, &after, started.elapsed().as_secs_f64());
    if let Err(e) = write_artifacts(&a, &out, &host) {
        eprintln!("perfbench: cannot write run record: {e}");
        std::process::exit(1);
    }
    for m in &out.metrics {
        let mut line = format!("{:32} {:>16.4} {}", m.name, m.value, m.unit);
        if let Some(n) = m.samples {
            let _ = write!(line, "  (n={n}");
            if let Some(b) = m.beyond {
                let _ = write!(line, ", {b} beyond");
            }
            line.push(')');
        }
        println!("{line}");
    }
    for n in &out.notes {
        println!("{n}");
    }
    println!("host {host}");
    println!("{}", result_json(&out));
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` pairs of one list in `BENCHMARK.json`.
    fn declared(list: &str) -> Vec<(String, String)> {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json beside perfbench/");
        let start = text.find(&format!("\"{list}\"")).expect("list declared");
        let body = &text[start..];
        let body = &body[..body.find(']').expect("list closes")];
        body.split('{')
            .skip(1)
            .map(|entry| {
                let field = |k: &str| {
                    let at = entry.find(&format!("\"{k}\"")).expect("field") + k.len() + 2;
                    let rest = &entry[at..];
                    let open = rest.find('"').expect("value") + 1;
                    let close = rest[open..].find('"').expect("value end") + open;
                    rest[open..close].to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn run_quick(w: Workload, trace: bool) -> Outcome {
        // Long enough for ten verified specs beyond the p90.
        let seconds = if w == Workload::VerifyGen && !trace {
            3.0
        } else {
            1.0
        };
        let a = Args {
            workload: w,
            seed: 1,
            seconds,
            trace,
        };
        let out = run(&a).unwrap_or_else(|e| panic!("{}: {e}", w.name()));
        assert_eq!(out.failed, 0, "{}: {:?}", w.name(), out.notes);
        assert!(out.attempted > 0);
        let line = result_json(&out);
        for m in &out.metrics {
            assert!(line.contains(&format!("\"{}\": {{\"value\": ", m.name)));
            assert!(line.contains(&format!("\"unit\": \"{}\"", m.unit)));
        }
        out
    }

    #[test]
    fn every_declared_metric_is_printed_with_its_unit_on_every_workload() {
        let e2e = declared("end_to_end");
        let layer = declared("per_layer");
        assert_eq!(layer.len(), PER_LAYER.len());
        assert_eq!(e2e.len(), END_TO_END.len());
        let names: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        for w in Workload::ALL {
            let out = run_quick(w, false);
            let got: Vec<(String, String)> = out
                .metrics
                .iter()
                .map(|m| (m.name.to_string(), m.unit.to_string()))
                .collect();
            assert_eq!(got, names);
            for pair in &got {
                assert!(e2e.contains(pair), "{pair:?} not declared");
            }
            let out = run_quick(w, true);
            let got: Vec<(String, String)> = out
                .metrics
                .iter()
                .map(|m| (m.name.to_string(), m.unit.to_string()))
                .collect();
            assert_eq!(got, layer, "{}", w.name());
        }
    }

    #[test]
    fn bad_arguments_are_refused() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        assert!(parse_args(&args("--workload nope")).is_err());
        assert!(parse_args(&args("--workload verify-gen --trace 2")).is_err());
        assert!(parse_args(&args("--seed 3")).is_err());
        let a = parse_args(&args(
            "--workload dist-loopback --seed 9 --seconds 2 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Workload::DistLoopback, 9, 2.0, true)
        );
    }
}
