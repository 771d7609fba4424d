//! Stall forensics: a sampler that flags sessions exceeding a deadline
//! and captures enough context to turn "it's slow" into a causal
//! explanation — partial stage attribution, each entity's backend
//! state, the queue/backlog gauges, and the session's flight-recorder
//! tail.
//!
//! The deadline is either configured (`RuntimeConfig::stall_after`) or
//! derived from the live p99 once enough sessions completed; a derived
//! deadline never drops below a floor so scheduler jitter on short
//! local sessions cannot flood the report. Each session is flagged at
//! most once and the record count is capped, so forensics cost is
//! bounded no matter how pathological the run.

use crate::config::RuntimeConfig;
use crate::metrics::{Metrics, StageBreakdown, StallRecord};
use crate::session::SessionSlot;
use obs::Registry;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Most stall records kept per run — the report stays bounded even when
/// every session stalls.
const MAX_STALLS: usize = 32;

/// Sampler poll period.
const POLL: Duration = Duration::from_millis(5);

/// Floor for the p99-derived deadline.
const DERIVED_FLOOR: Duration = Duration::from_secs(1);

/// Multiplier on the live p99 for the derived deadline.
const DERIVED_FACTOR: f64 = 8.0;

/// Completed sessions required before a derived deadline is trusted.
const MIN_SAMPLES: u64 = 50;

/// Flight-recorder tail lines attached to a stall record.
const STALL_TAIL: usize = 16;

/// What a stall record captures from its session: age (µs), partial
/// stage attribution, and per-entity progress.
type StallCapture = (u64, StageBreakdown, Vec<(u32, u64)>);

/// Shared between the multiplexer (which registers sessions at open and
/// unregisters them at completion) and the sampler thread. The
/// distributed hub uses only its flag-once, capped record policy
/// ([`Self::wants`], [`Self::flag`]).
pub(crate) struct StallTracker {
    open: Mutex<BTreeMap<u64, Arc<SessionSlot>>>,
    flagged: Mutex<(BTreeSet<u64>, Vec<StallRecord>)>,
    /// Set once by [`Self::stop_sampler`]; `wake` interrupts the
    /// sampler's wait between sweeps when it is.
    stop: Mutex<bool>,
    wake: Condvar,
}

impl StallTracker {
    pub(crate) fn new() -> StallTracker {
        StallTracker {
            open: Mutex::new(BTreeMap::new()),
            flagged: Mutex::new((BTreeSet::new(), Vec::new())),
            stop: Mutex::new(false),
            wake: Condvar::new(),
        }
    }

    pub(crate) fn insert(&self, id: u64, slot: Arc<SessionSlot>) {
        self.open
            .lock()
            .expect("stall tracker poisoned")
            .insert(id, slot);
    }

    pub(crate) fn remove(&self, id: u64) {
        self.open
            .lock()
            .expect("stall tracker poisoned")
            .remove(&id);
    }

    /// Stop the sampler: it wakes at once, not at its next poll.
    pub(crate) fn stop_sampler(&self) {
        *self.stop.lock().expect("stall tracker poisoned") = true;
        self.wake.notify_all();
    }

    /// Would a stall of `id` be recorded (not flagged yet, cap not
    /// reached)?
    pub(crate) fn wants(&self, id: u64) -> bool {
        let fl = self.flagged.lock().expect("stall tracker poisoned");
        !fl.0.contains(&id) && fl.1.len() < MAX_STALLS
    }

    /// Flag session `id` once, recording its capture together with the
    /// gauges of the run's published metrics and its flight-recorder
    /// tail as of now.
    pub(crate) fn flag(
        &self,
        id: u64,
        deadline: Duration,
        (age_us, stages, entity_state): StallCapture,
        published: &Mutex<Metrics>,
        registry: Option<&Arc<Registry>>,
    ) {
        let tail = registry
            .map(|r| r.snapshot().tail(id, STALL_TAIL))
            .unwrap_or_default();
        let record = StallRecord {
            session: id,
            age_us,
            deadline_us: deadline.as_micros() as u64,
            stages,
            entity_state,
            gauges: published.lock().expect("metrics poisoned").gauges.clone(),
            tail,
        };
        let mut fl = self.flagged.lock().expect("stall tracker poisoned");
        if fl.0.insert(id) && fl.1.len() < MAX_STALLS {
            fl.1.push(record);
        }
    }

    pub(crate) fn take_records(&self) -> Vec<StallRecord> {
        std::mem::take(&mut self.flagged.lock().expect("stall tracker poisoned").1)
    }

    /// The active deadline: configured, or `DERIVED_FACTOR × p99`
    /// (floored) once `MIN_SAMPLES` sessions completed. `None` while
    /// there is nothing trustworthy to compare against.
    pub(crate) fn deadline(cfg: &RuntimeConfig, metrics: &Metrics) -> Option<Duration> {
        if let Some(d) = cfg.stall_after {
            return Some(d);
        }
        if metrics.session_latency.count() < MIN_SAMPLES {
            return None;
        }
        let p99 = metrics.session_latency.quantile(0.99);
        Some(DERIVED_FLOOR.max(Duration::from_micros((p99 * DERIVED_FACTOR) as u64)))
    }

    /// Sampler thread body: poll until [`Self::stop_sampler`], taking
    /// the deadline and the gauges from the run's published metrics.
    pub(crate) fn run(
        &self,
        cfg: &RuntimeConfig,
        published: &Mutex<Metrics>,
        registry: Option<&Arc<Registry>>,
    ) {
        loop {
            let stop = self.stop.lock().expect("stall tracker poisoned");
            let (stop, _) = self
                .wake
                .wait_timeout_while(stop, POLL, |stop| !*stop)
                .expect("stall tracker poisoned");
            if *stop {
                return;
            }
            drop(stop);
            let deadline = Self::deadline(cfg, &published.lock().expect("metrics poisoned"));
            if let Some(deadline) = deadline {
                self.sweep(deadline, published, registry);
            }
        }
    }

    /// One pass over the open sessions, flagging those past `deadline`.
    pub(crate) fn sweep(
        &self,
        deadline: Duration,
        published: &Mutex<Metrics>,
        registry: Option<&Arc<Registry>>,
    ) {
        let now = Instant::now();
        let open: Vec<(u64, Arc<SessionSlot>)> = self
            .open
            .lock()
            .expect("stall tracker poisoned")
            .iter()
            .map(|(id, slot)| (*id, Arc::clone(slot)))
            .collect();
        for (id, slot) in open {
            if !self.wants(id) {
                continue;
            }
            let capture = {
                let core = slot.core.lock().expect("session poisoned");
                if core.completed.is_some() {
                    continue;
                }
                let age = now.saturating_duration_since(core.started);
                if age < deadline {
                    continue;
                }
                let age_us = age.as_micros() as u64;
                let queue_us = core
                    .first_step
                    .map(|t| t.saturating_duration_since(core.started).as_micros() as u64)
                    .unwrap_or(age_us);
                let stages =
                    StageBreakdown::attribute(age_us, queue_us, core.step_ns / 1000, 0, None);
                let entity_state: Vec<(u32, u64)> = core
                    .entity_states
                    .iter()
                    .enumerate()
                    .map(|(i, s)| (i as u32, *s))
                    .collect();
                (age_us, stages, entity_state)
            };
            self.flag(id, deadline, capture, published, registry);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::GaugeSnapshot;
    use crate::session::SessionCore;

    fn metrics() -> Metrics {
        let spec = lotos::parser::parse_spec("SPEC a1; b2; exit ENDSPEC").unwrap();
        Metrics::for_service(&spec)
    }

    #[test]
    fn sweep_flags_old_sessions_once_with_partial_stages() {
        // The published copy is what a flagged record's gauges show.
        let mut copy = metrics();
        copy.gauges.window_size = 64;
        copy.gauges
            .per_link_backlog
            .insert("place:2".to_string(), 5);
        let published = Mutex::new(copy);
        let tracker = StallTracker::new();
        let cfg = RuntimeConfig::new();
        let mut core = SessionCore::new(9, 1, &cfg, &[(1, 2), (2, 1)]);
        // Backdate activity: pretend the first move ran immediately and
        // the session has been live ever since.
        core.note_state(0, 4);
        core.note_state(1, 2);
        core.step_ns = 5_000; // 5 µs of stepping
        let slot = Arc::new(SessionSlot::new(core));
        tracker.insert(9, Arc::clone(&slot));
        std::thread::sleep(Duration::from_millis(10));
        tracker.sweep(Duration::from_millis(1), &published, None);
        let records = tracker.take_records();
        assert_eq!(records.len(), 1);
        let r = &records[0];
        assert_eq!(r.session, 9);
        assert_eq!(r.deadline_us, 1000);
        assert!(r.age_us >= 1000, "age {} below deadline", r.age_us);
        assert!(r.stages.sum_us() <= r.age_us);
        assert_eq!(r.entity_state, vec![(0, 4), (1, 2)]);
        assert!(r.tail.is_empty());
        assert_eq!(
            r.gauges,
            GaugeSnapshot {
                window_size: 64,
                per_link_backlog: [("place:2".to_string(), 5)].into(),
                ..GaugeSnapshot::default()
            }
        );
        // Flagged once: a second sweep adds nothing.
        tracker.sweep(Duration::from_millis(1), &published, None);
        assert!(tracker.take_records().is_empty());
        // Completed sessions are never flagged.
        let tracker = StallTracker::new();
        slot.core
            .lock()
            .unwrap()
            .complete(crate::session::SessionEnd::Terminated);
        tracker.insert(9, slot);
        tracker.sweep(Duration::from_millis(1), &published, None);
        assert!(tracker.take_records().is_empty());
    }

    #[test]
    fn stop_sampler_wakes_the_sampler_at_once() {
        let published = Mutex::new(metrics());
        let cfg = RuntimeConfig::new();
        let mut joins: Vec<Duration> = (0..20)
            .map(|_| {
                let tracker = StallTracker::new();
                std::thread::scope(|s| {
                    let sampler = s.spawn(|| tracker.run(&cfg, &published, None));
                    // Stop a fifth of the way into the sampler's wait: a
                    // sampler that sleeps out its poll would take the
                    // remaining four fifths to notice.
                    std::thread::sleep(POLL / 5);
                    let stopped = Instant::now();
                    tracker.stop_sampler();
                    sampler.join().unwrap();
                    stopped.elapsed()
                })
            })
            .collect();
        joins.sort();
        assert!(
            joins[joins.len() / 2] < POLL / 2,
            "median stop-to-join {:?}, poll {POLL:?}",
            joins[joins.len() / 2]
        );
    }

    #[test]
    fn deadline_prefers_config_then_derives_from_p99() {
        let mut metrics = metrics();
        let cfg = RuntimeConfig::new().stall_after(Duration::from_millis(40));
        assert_eq!(
            StallTracker::deadline(&cfg, &metrics),
            Some(Duration::from_millis(40))
        );
        let cfg = RuntimeConfig::new();
        assert_eq!(StallTracker::deadline(&cfg, &metrics), None);
        for _ in 0..MIN_SAMPLES {
            metrics.session_latency.record(100);
        }
        // 8 × p99 of ~100 µs is far below the floor.
        assert_eq!(StallTracker::deadline(&cfg, &metrics), Some(DERIVED_FLOOR));
    }
}
