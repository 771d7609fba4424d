//! The `BENCH_*.json` snapshot documents, shared by the
//! `runtime-snapshot`, `distributed-snapshot` and `perf-snapshot`
//! binaries (and pinned by the JSON golden test).

use runtime::metrics::RuntimeReport;
use semantics::json::Json;
use semantics::json_obj;

/// Threads every load snapshot runs with.
pub const THREADS: usize = 4;

/// One `BENCH_runtime.json` entry. `backend` is the requested choice,
/// part of the entry's key; `ran` is what the run resolved it to
/// (`auto` falls back to `interpreted` where an entity does not lower).
pub fn runtime_entry(spec: &str, mode: &str, profile: &str, report: &RuntimeReport) -> Json {
    json_obj! {
        "spec" => spec,
        "mode" => mode,
        "profile" => profile,
        "backend" => report.config.backend.to_string(),
        "ran" => report.backend,
        "sessions" => report.sessions,
        "threads" => THREADS,
        "sessions_per_sec" => report.sessions_per_sec,
        "latency_p50_us" => report.session_latency.p50 as u64,
        "latency_p99_us" => report.session_latency.p99 as u64,
        "overhead_ratio" => report.overhead_ratio(),
        "messages" => report.messages,
        "frames_lost" => report.frames_lost,
        "retransmissions" => report.retransmissions,
    }
}

/// One `BENCH_distributed.json` entry; `kills` counts the connections
/// the fault proxies cut, `backend`/`ran` as in [`runtime_entry`].
pub fn distributed_entry(
    spec: &str,
    mode: &str,
    link_faults: &str,
    report: &RuntimeReport,
    kills: u64,
) -> Json {
    json_obj! {
        "spec" => spec,
        "mode" => mode,
        "link_faults" => link_faults,
        "backend" => report.config.backend.to_string(),
        "ran" => report.backend,
        "sessions" => report.sessions,
        "threads" => THREADS,
        "sessions_per_sec" => report.sessions_per_sec,
        "latency_p50_us" => report.session_latency.p50 as u64,
        "latency_p99_us" => report.session_latency.p99 as u64,
        "messages" => report.messages,
        "kills" => kills,
        "reconnects" => report.per_link.values().map(|l| l.reconnects).sum::<usize>(),
        "retransmissions" => report.per_link.values().map(|l| l.retransmissions).sum::<usize>(),
    }
}

/// Naive-vs-fast timing of one verification kernel.
pub struct KernelTiming {
    pub naive_us: f64,
    pub fast_us: f64,
    pub agree: bool,
}

impl KernelTiming {
    pub fn speedup(&self) -> f64 {
        self.naive_us / self.fast_us.max(1e-3)
    }

    fn to_json(&self) -> Json {
        json_obj! {
            "naive_us" => self.naive_us,
            "fast_us" => self.fast_us,
            "speedup" => self.speedup(),
            "verdicts_agree" => self.agree,
        }
    }
}

/// The full verification kernel (weak bisimulation + trace
/// comparison), naive vs fast — the headline number of an entry.
pub fn verify_speedup(bisim: &KernelTiming, traces: &KernelTiming) -> f64 {
    (bisim.naive_us + traces.naive_us) / (bisim.fast_us + traces.fast_us).max(1e-3)
}

/// One `BENCH_verify.json` entry. `composition_states` counts the
/// reduced composition the kernels ran on, `unreduced_states` the same
/// exploration with every interleaving.
pub fn verify_entry(
    spec: &str,
    service_states: usize,
    composition_states: usize,
    unreduced_states: usize,
    bisim: &KernelTiming,
    traces: &KernelTiming,
) -> Json {
    json_obj! {
        "spec" => spec,
        "service_states" => service_states,
        "composition_states" => composition_states,
        "composition_states_unreduced" => unreduced_states,
        "weak_bisim" => bisim.to_json(),
        "traces" => traces.to_json(),
        "verify_speedup" => verify_speedup(bisim, traces),
    }
}

/// Write a snapshot document to `path`, one entry per line.
pub fn write_snapshot(path: &str, generated_by: &str, config: Json, entries: Vec<Json>) {
    let doc = json_obj! {
        "generated_by" => generated_by,
        "config" => config,
        "entries" => Json::Arr(entries),
    };
    std::fs::write(path, format!("{doc:#}\n")).unwrap_or_else(|e| panic!("write {path}: {e}"));
    println!("wrote {path}");
}
