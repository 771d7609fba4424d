//! Runtime configuration — the builder/JSON config family member for the
//! concurrent executor (mirrors `ExploreConfig`/`SimConfig`/`VerifyConfig`).

use lotos::place::PlaceId;
use obs::Registry;
use semantics::json::Json;
use semantics::json_obj;
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

/// A seeded channel-fault profile applied to every directed channel.
///
/// All profiles run the stop-and-wait ARQ link layer of
/// [`sim::lossy::ArqChannel`] underneath the derived entities, so the
/// protocol still sees a reliable FIFO channel — faults exercise the
/// *recovery* machinery (paper §6), they do not corrupt the derivation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FaultProfile {
    /// The paper's Section 1 medium: no loss, in-order delivery.
    None,
    /// Frames and acks are dropped i.i.d. with probability `loss`.
    Lossy { loss: f64 },
    /// Wire-level reordering plus duplication (probability `dup`) plus
    /// loss. The ARQ sequence bit deduplicates and restores FIFO order.
    Reorder { loss: f64, dup: f64 },
    /// No loss, but each hop takes a uniform delay in `[min, max]` clock
    /// units — stretches in-flight windows and exercises retransmission
    /// timers.
    Delay { min: f64, max: f64 },
}

impl FaultProfile {
    /// Is this the fault-free reliable medium?
    pub fn is_none(&self) -> bool {
        matches!(self, FaultProfile::None)
    }

    /// Parse a CLI profile string: `none`, `lossy`, `lossy:0.3`,
    /// `reorder`, `reorder:0.1`, `delay`, `delay:2..20`.
    pub fn parse(s: &str) -> Result<FaultProfile, String> {
        let (name, arg) = match s.split_once(':') {
            Some((n, a)) => (n, Some(a)),
            None => (s, None),
        };
        let prob = |a: Option<&str>, d: f64| -> Result<f64, String> {
            match a {
                None => Ok(d),
                Some(a) => {
                    let p: f64 = a
                        .parse()
                        .map_err(|_| format!("bad probability `{a}` in fault profile `{s}`"))?;
                    if !(0.0..1.0).contains(&p) {
                        return Err(format!("probability `{a}` not in [0,1) in `{s}`"));
                    }
                    Ok(p)
                }
            }
        };
        match name {
            "none" => Ok(FaultProfile::None),
            "lossy" => Ok(FaultProfile::Lossy {
                loss: prob(arg, 0.2)?,
            }),
            "reorder" => Ok(FaultProfile::Reorder {
                loss: prob(arg, 0.1)?,
                dup: 0.2,
            }),
            "delay" => match arg {
                None => Ok(FaultProfile::Delay {
                    min: 1.0,
                    max: 16.0,
                }),
                Some(a) => {
                    let (lo, hi) = a
                        .split_once("..")
                        .ok_or_else(|| format!("expected `delay:<min>..<max>`, got `{s}`"))?;
                    let min: f64 = lo.parse().map_err(|_| format!("bad delay bound `{lo}`"))?;
                    let max: f64 = hi.parse().map_err(|_| format!("bad delay bound `{hi}`"))?;
                    if !(min >= 0.0 && max >= min) {
                        return Err(format!("need 0 <= min <= max in `{s}`"));
                    }
                    Ok(FaultProfile::Delay { min, max })
                }
            },
            _ => Err(format!(
                "unknown fault profile `{s}` (try none, lossy[:p], reorder[:p], delay[:min..max])"
            )),
        }
    }
}

impl fmt::Display for FaultProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultProfile::None => write!(f, "none"),
            FaultProfile::Lossy { loss } => write!(f, "lossy:{loss}"),
            FaultProfile::Reorder { loss, .. } => write!(f, "reorder:{loss}"),
            FaultProfile::Delay { min, max } => write!(f, "delay:{min}..{max}"),
        }
    }
}

/// Which entity-stepping backend the executors use (see
/// `docs/COMPILED.md` and [`crate::compiled`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum BackendChoice {
    /// Interpret hash-consed behaviour terms (the original path).
    Interpreted,
    /// Walk pre-lowered transition tables; a hard error for entities
    /// that cannot be lowered.
    Compiled,
    /// Per entity: compiled where lowering succeeds, interpreted where
    /// it does not (unbounded recursion unrolling).
    #[default]
    Auto,
}

impl BackendChoice {
    /// Parse a CLI backend string: `interpreted`, `compiled`, or `auto`.
    pub fn parse(s: &str) -> Result<BackendChoice, String> {
        match s {
            "interpreted" => Ok(BackendChoice::Interpreted),
            "compiled" => Ok(BackendChoice::Compiled),
            "auto" => Ok(BackendChoice::Auto),
            _ => Err(format!(
                "unknown backend `{s}` (try interpreted, compiled, auto)"
            )),
        }
    }
}

impl fmt::Display for BackendChoice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            BackendChoice::Interpreted => "interpreted",
            BackendChoice::Compiled => "compiled",
            BackendChoice::Auto => "auto",
        })
    }
}

/// Configuration for [`crate::run`] — how many sessions to drive, how
/// concurrently, over which medium discipline, under which faults.
#[derive(Clone)]
pub struct RuntimeConfig {
    /// Independent service sessions to run.
    pub sessions: usize,
    /// Concurrency: `<= 1` selects the deterministic sequential engine
    /// (each session is one seeded DES run, bit-reproducible); `>= 2`
    /// selects the concurrent actor engine with this many sessions in
    /// flight at once (one OS thread per protocol entity regardless).
    pub threads: usize,
    /// Master seed; session `k` derives its own seed from it.
    pub seed: u64,
    /// Per-channel capacity: a send on a full channel is not enabled
    /// until the receiver drains it (`0` = unbounded, paper Section 1).
    pub capacity: usize,
    /// Abort a session after this many executed actions.
    pub max_steps: usize,
    /// Channel fault profile.
    pub faults: FaultProfile,
    /// Primitives the service users never offer (see
    /// [`sim::des::SimConfig::refuse`]).
    pub refuse: Vec<(String, PlaceId)>,
    /// Flight-record the run: every engine thread captures its causal
    /// event tail into a lock-free ring (see the `obs` crate) and
    /// violation/abort reports carry the offending session's tail.
    /// Off by default — disabled recording costs one branch per event.
    pub record: bool,
    /// Entity-stepping backend (see [`BackendChoice`]).
    pub backend: BackendChoice,
    /// Stall-forensics deadline: flag (and forensically capture) any
    /// session still live after this long. `None` derives a deadline
    /// from the run's own p99 once enough sessions completed.
    pub stall_after: Option<Duration>,
    /// Record into this caller-supplied flight-recorder registry instead
    /// of a run-private one, so pipeline-phase spans and the run merge
    /// into one trace. Implies recording when set; not serialized.
    pub registry: Option<Arc<Registry>>,
}

impl fmt::Debug for RuntimeConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RuntimeConfig")
            .field("sessions", &self.sessions)
            .field("threads", &self.threads)
            .field("seed", &self.seed)
            .field("capacity", &self.capacity)
            .field("max_steps", &self.max_steps)
            .field("faults", &self.faults)
            .field("refuse", &self.refuse)
            .field("record", &self.record)
            .field("backend", &self.backend)
            .field("stall_after", &self.stall_after)
            .field("registry", &self.registry.as_ref().map(|_| "<registry>"))
            .finish()
    }
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            sessions: 1,
            threads: 1,
            seed: 0xC0FFEE,
            capacity: 64,
            max_steps: 100_000,
            faults: FaultProfile::None,
            refuse: Vec::new(),
            record: false,
            backend: BackendChoice::default(),
            stall_after: None,
            registry: None,
        }
    }
}

impl RuntimeConfig {
    pub fn new() -> Self {
        RuntimeConfig::default()
    }

    /// Number of independent service sessions to run.
    pub fn sessions(mut self, n: usize) -> Self {
        self.sessions = n;
        self
    }

    /// Session concurrency (see the field docs for the `<= 1` contract).
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = n;
        self
    }

    /// Master RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Per-channel capacity (`0` = unbounded).
    pub fn capacity(mut self, n: usize) -> Self {
        self.capacity = n;
        self
    }

    /// Per-session step limit.
    pub fn max_steps(mut self, n: usize) -> Self {
        self.max_steps = n;
        self
    }

    /// Channel fault profile.
    pub fn faults(mut self, p: FaultProfile) -> Self {
        self.faults = p;
        self
    }

    /// Add a primitive the service users never offer.
    pub fn refuse(mut self, name: &str, place: PlaceId) -> Self {
        self.refuse.push((name.to_string(), place));
        self
    }

    /// Enable or disable flight recording.
    pub fn record(mut self, on: bool) -> Self {
        self.record = on;
        self
    }

    /// Select the entity-stepping backend.
    pub fn backend(mut self, b: BackendChoice) -> Self {
        self.backend = b;
        self
    }

    /// Flag sessions still live after `d` for stall forensics.
    pub fn stall_after(mut self, d: Duration) -> Self {
        self.stall_after = Some(d);
        self
    }

    /// Record into a caller-supplied registry (implies recording).
    pub fn registry(mut self, r: Arc<Registry>) -> Self {
        self.registry = Some(r);
        self
    }

    /// The seed session `k` runs under (matches the CLI's
    /// `simulate --runs` convention, so `threads 1` reproduces DES runs).
    pub fn session_seed(&self, k: usize) -> u64 {
        self.seed.wrapping_add(k as u64)
    }

    pub fn to_json(&self) -> Json {
        json_obj! {
            "sessions" => self.sessions,
            "threads" => self.threads,
            "seed" => self.seed,
            "capacity" => self.capacity,
            "max_steps" => self.max_steps,
            "faults" => self.faults.to_string(),
            "record" => self.record,
            "backend" => self.backend.to_string(),
            "stall_after_ms" => self.stall_after.map_or(0, |d| d.as_millis() as u64),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_profiles() {
        assert_eq!(FaultProfile::parse("none").unwrap(), FaultProfile::None);
        assert_eq!(
            FaultProfile::parse("lossy:0.3").unwrap(),
            FaultProfile::Lossy { loss: 0.3 }
        );
        assert!(matches!(
            FaultProfile::parse("reorder").unwrap(),
            FaultProfile::Reorder { .. }
        ));
        assert_eq!(
            FaultProfile::parse("delay:2..20").unwrap(),
            FaultProfile::Delay {
                min: 2.0,
                max: 20.0
            }
        );
        assert!(FaultProfile::parse("lossy:1.5").is_err());
        assert!(FaultProfile::parse("gremlins").is_err());
        assert!(FaultProfile::parse("delay:9..3").is_err());
    }

    #[test]
    fn config_builder_and_json() {
        let cfg = RuntimeConfig::new()
            .sessions(500)
            .threads(4)
            .seed(42)
            .capacity(8)
            .max_steps(9000)
            .faults(FaultProfile::Lossy { loss: 0.25 })
            .record(true)
            .backend(BackendChoice::Compiled)
            .stall_after(Duration::from_millis(250));
        assert_eq!(cfg.sessions, 500);
        assert_eq!(cfg.threads, 4);
        assert_eq!(cfg.seed, 42);
        assert_eq!(cfg.capacity, 8);
        assert_eq!(cfg.max_steps, 9000);
        assert_eq!(cfg.faults, FaultProfile::Lossy { loss: 0.25 });
        assert!(cfg.record);
        assert_eq!(cfg.backend, BackendChoice::Compiled);
        assert_eq!(cfg.stall_after, Some(Duration::from_millis(250)));
        assert_eq!(
            cfg.to_json().to_string(),
            concat!(
                r#"{"sessions":500,"threads":4,"seed":42,"capacity":8,"max_steps":9000,"#,
                r#""faults":"lossy:0.25","record":true,"backend":"compiled","stall_after_ms":250}"#
            )
        );
        // The defaults: no recording, auto backend, and no configured
        // stall deadline (written as `stall_after_ms: 0`).
        let dflt = RuntimeConfig::new();
        assert!(!dflt.record);
        assert_eq!(dflt.backend, BackendChoice::Auto);
        assert_eq!(dflt.stall_after, None);
        assert_eq!(dflt.to_json()["stall_after_ms"], Json::U64(0));
    }

    #[test]
    fn parse_backends() {
        assert_eq!(
            BackendChoice::parse("interpreted").unwrap(),
            BackendChoice::Interpreted
        );
        assert_eq!(
            BackendChoice::parse("compiled").unwrap(),
            BackendChoice::Compiled
        );
        assert_eq!(BackendChoice::parse("auto").unwrap(), BackendChoice::Auto);
        assert!(BackendChoice::parse("jit").is_err());
    }

    #[test]
    fn session_seeds_match_cli_runs_convention() {
        let cfg = RuntimeConfig::new().seed(100);
        assert_eq!(cfg.session_seed(0), 100);
        assert_eq!(cfg.session_seed(3), 103);
    }
}
