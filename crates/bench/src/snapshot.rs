//! The `BENCH_*.json` snapshot documents: written by the `snapshot`
//! binary, read back by `perf-gate`, and pinned by the JSON golden test.

use runtime::metrics::RuntimeReport;
use semantics::json::Json;
use semantics::json_obj;

/// Threads (concurrent engine) or session window (hub) of every load run.
pub const THREADS: usize = 4;

/// Declare [`LoadEntry`] from one field list, so its writer and its
/// reader cannot drift apart: each field is written under its own name
/// and read back with the `Json` accessor named beside it.
macro_rules! load_entry {
    ($($field:ident: $ty:ty = $read:ident,)*) => {
        /// One `BENCH_runtime.json` or `BENCH_distributed.json` entry: a
        /// load run on one engine, keyed by [`LoadEntry::key`]. `backend`
        /// is the requested choice; `ran` is what the run resolved it to
        /// (`auto` falls back to `interpreted` where an entity does not
        /// lower). Every measured field but `kills` (the connections the
        /// fault proxies cut) comes from the run's [`RuntimeReport`]; a
        /// field the engine does not produce is 0.
        #[derive(Clone, Debug, PartialEq)]
        pub struct LoadEntry {
            $(pub $field: $ty,)*
        }

        impl LoadEntry {
            pub fn to_json(&self) -> Json {
                json_obj! { $(stringify!($field) => self.$field.clone(),)* }
            }

            /// Read an entry back; `Err` names the first missing or
            /// mistyped field. Members the type does not know are ignored.
            pub fn from_json(e: &Json) -> Result<Self, String> {
                Ok(LoadEntry {
                    $($field: e[stringify!($field)]
                        .$read()
                        .map(Into::into)
                        .ok_or_else(|| format!("entry without {}: {e}", stringify!($field)))?,)*
                })
            }
        }
    };
}

load_entry! {
    spec: String = as_str,
    mode: String = as_str,
    faults: String = as_str,
    backend: String = as_str,
    ran: String = as_str,
    sessions: u64 = as_u64,
    threads: u64 = as_u64,
    sessions_per_sec: f64 = as_f64,
    latency_p50_us: u64 = as_u64,
    latency_p99_us: u64 = as_u64,
    overhead_ratio: f64 = as_f64,
    messages: u64 = as_u64,
    frames_lost: u64 = as_u64,
    retransmissions: u64 = as_u64,
    reconnects: u64 = as_u64,
    kills: u64 = as_u64,
}

impl LoadEntry {
    pub fn new(spec: &str, mode: &str, faults: &str, report: &RuntimeReport, kills: u64) -> Self {
        LoadEntry {
            spec: spec.to_string(),
            mode: mode.to_string(),
            faults: faults.to_string(),
            backend: report.config.backend.to_string(),
            ran: report.backend.to_string(),
            sessions: report.sessions as u64,
            threads: THREADS as u64,
            sessions_per_sec: report.sessions_per_sec,
            latency_p50_us: report.session_latency.p50 as u64,
            latency_p99_us: report.session_latency.p99 as u64,
            overhead_ratio: report.overhead_ratio(),
            messages: report.messages as u64,
            frames_lost: report.frames_lost as u64,
            retransmissions: report.retransmissions as u64,
            reconnects: report.per_link.values().map(|l| l.reconnects as u64).sum(),
            kills,
        }
    }

    /// The key no other entry of a snapshot may share:
    /// `(spec, mode, faults, backend, threads)`.
    pub fn key(&self) -> String {
        format!(
            "{}/{}/{}/{}/t{}",
            self.spec, self.mode, self.faults, self.backend, self.threads
        )
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

/// The full verification kernel (weak bisimulation, trace comparison
/// and stable failures), naive vs fast — the headline number of an
/// entry.
pub fn verify_speedup(kernels: &[&KernelTiming]) -> f64 {
    let naive: f64 = kernels.iter().map(|k| k.naive_us).sum();
    let fast: f64 = kernels.iter().map(|k| k.fast_us).sum();
    naive / fast.max(1e-3)
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
    failures: &KernelTiming,
) -> Json {
    json_obj! {
        "spec" => spec,
        "service_states" => service_states,
        "composition_states" => composition_states,
        "composition_states_unreduced" => unreduced_states,
        "weak_bisim" => bisim.to_json(),
        "traces" => traces.to_json(),
        "failures" => failures.to_json(),
        "verify_speedup" => verify_speedup(&[bisim, traces, failures]),
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
