//! Stall forensics: flag sessions exceeding a deadline and capture
//! enough context to turn "it's slow" into a causal explanation —
//! partial stage attribution, each entity's progress, the queue/backlog
//! gauges, and the session's flight-recorder tail.
//!
//! There is one check ([`StallTracker::check`]), a plain-data step of
//! the loop that owns the run's tally: the multiplexer on the
//! concurrent engine, the hub loop on the distributed one. It applies
//! the cadence, the deadline, flag-once and the record cap; each engine
//! supplies only the capture of a session past its deadline
//! ([`Forensics`]), as it supplies a guard to the move kernel.
//!
//! The deadline is either configured (`RuntimeConfig::stall_after`) or
//! derived from the writer's live p99 once enough sessions completed; a
//! derived deadline never drops below a floor so scheduler jitter on
//! short local sessions cannot flood the report. Each session is
//! flagged at most once and the record count is capped, so forensics
//! cost is bounded no matter how pathological the run.

use crate::config::RuntimeConfig;
use crate::metrics::{Metrics, StageBreakdown, StallRecord};
use obs::Registry;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Most stall records kept per run — the report stays bounded even when
/// every session stalls.
const MAX_STALLS: usize = 32;

/// How often the owning loop looks for sessions past their deadline.
pub(crate) const STALL_CHECK: Duration = Duration::from_millis(5);

/// Floor for the p99-derived deadline.
const DERIVED_FLOOR: Duration = Duration::from_secs(1);

/// Multiplier on the live p99 for the derived deadline.
const DERIVED_FACTOR: f64 = 8.0;

/// Completed sessions required before a derived deadline is trusted.
const MIN_SAMPLES: u64 = 50;

/// Flight-recorder tail lines attached to a stall record.
const STALL_TAIL: usize = 16;

/// What an engine captures from a session past its deadline: the
/// partial stage split and each entity's progress.
pub(crate) type Capture = (StageBreakdown, Vec<(u32, u64)>);

/// An engine's open session, as the stall check sees it.
pub(crate) trait Forensics {
    /// The session's capture `age_us` after it opened, or `None` when it
    /// has already completed.
    fn capture(&self, age_us: u64) -> Option<Capture>;
}

/// The run's stall records and when it last checked for stalls.
pub(crate) struct StallTracker {
    /// At most [`MAX_STALLS`], at most one per session.
    records: Vec<StallRecord>,
    last_check: Instant,
}

impl StallTracker {
    /// A tracker whose first check is due [`STALL_CHECK`] after `now`.
    pub(crate) fn new(now: Instant) -> StallTracker {
        StallTracker {
            records: Vec::new(),
            last_check: now,
        }
    }

    /// When the next [`Self::check`] is due.
    pub(crate) fn next_check(&self) -> Instant {
        self.last_check + STALL_CHECK
    }

    /// Once every [`STALL_CHECK`], flag each of the open `sessions`
    /// (`(id, opened, session)`) that is past the deadline and not
    /// flagged yet, while fewer than [`MAX_STALLS`] are: record its
    /// capture with the gauges of the writer's `metrics` and its
    /// flight-recorder tail as of `now`.
    pub(crate) fn check<'s, S: Forensics + 's>(
        &mut self,
        now: Instant,
        cfg: &RuntimeConfig,
        metrics: &Metrics,
        registry: Option<&Arc<Registry>>,
        sessions: impl IntoIterator<Item = (u64, Instant, &'s S)>,
    ) {
        if now < self.next_check() {
            return;
        }
        self.last_check = now;
        let Some(deadline) = Self::deadline(cfg, metrics) else {
            return;
        };
        for (id, opened, session) in sessions {
            if self.records.len() >= MAX_STALLS {
                return;
            }
            let age = now.saturating_duration_since(opened);
            if age < deadline || self.records.iter().any(|r| r.session == id) {
                continue;
            }
            let age_us = age.as_micros() as u64;
            let Some((stages, entity_state)) = session.capture(age_us) else {
                continue;
            };
            self.records.push(StallRecord {
                session: id,
                age_us,
                deadline_us: deadline.as_micros() as u64,
                stages,
                entity_state,
                gauges: metrics.gauges.clone(),
                tail: registry
                    .map(|r| r.snapshot().tail(id, STALL_TAIL))
                    .unwrap_or_default(),
            });
        }
    }

    pub(crate) fn into_records(self) -> Vec<StallRecord> {
        self.records
    }

    /// The active deadline: configured, or `DERIVED_FACTOR × p99`
    /// (floored) once `MIN_SAMPLES` sessions completed. `None` while
    /// there is nothing trustworthy to compare against.
    fn deadline(cfg: &RuntimeConfig, metrics: &Metrics) -> Option<Duration> {
        if let Some(d) = cfg.stall_after {
            return Some(d);
        }
        if metrics.session_latency.count() < MIN_SAMPLES {
            return None;
        }
        let p99 = metrics.session_latency.quantile(0.99);
        Some(DERIVED_FLOOR.max(Duration::from_micros((p99 * DERIVED_FACTOR) as u64)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::GaugeSnapshot;
    use crate::session::{SessionCore, SessionEnd, SessionSlot};

    fn metrics() -> Metrics {
        let spec = lotos::parser::parse_spec("SPEC a1; b2; exit ENDSPEC").unwrap();
        Metrics::for_service(&spec)
    }

    /// A session slot of the concurrent engine, opened 10 ms ago.
    fn old_slot(id: u64, cfg: &RuntimeConfig) -> (Instant, SessionSlot) {
        let mut core = SessionCore::new(id, 1, cfg, &[(1, 2), (2, 1)]);
        // Backdate activity: pretend the first move ran immediately and
        // the session has been live ever since.
        core.note_state(0, 4);
        core.note_state(1, 2);
        core.step_ns = 5_000; // 5 µs of stepping
        let opened = core.started;
        std::thread::sleep(Duration::from_millis(10));
        (opened, SessionSlot::new(core))
    }

    #[test]
    fn check_flags_old_sessions_once_with_partial_stages() {
        // The writer's metrics are what a flagged record's gauges show.
        let mut metrics = metrics();
        metrics.gauges.window_size = 64;
        metrics
            .gauges
            .per_link_backlog
            .insert("place:2".to_string(), 5);
        let cfg = RuntimeConfig::new().stall_after(Duration::from_millis(1));
        let (opened, slot) = old_slot(9, &cfg);
        let mut tracker = StallTracker::new(opened);
        let now = Instant::now();
        tracker.check(now, &cfg, &metrics, None, [(9, opened, &slot)]);
        // Flagged once: a second check adds nothing.
        tracker.check(
            now + STALL_CHECK,
            &cfg,
            &metrics,
            None,
            [(9, opened, &slot)],
        );
        let records = tracker.into_records();
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
        // Completed sessions are never flagged.
        let mut tracker = StallTracker::new(opened);
        slot.core.lock().unwrap().complete(SessionEnd::Terminated);
        tracker.check(now, &cfg, &metrics, None, [(9, opened, &slot)]);
        assert!(tracker.into_records().is_empty());
    }

    #[test]
    fn check_keeps_its_cadence_and_cap() {
        let metrics = metrics();
        let cfg = RuntimeConfig::new().stall_after(Duration::from_millis(1));
        let (opened, slot) = old_slot(0, &cfg);
        let now = Instant::now();
        // Not yet due: a check within `STALL_CHECK` of the last looks at
        // nothing.
        let mut tracker = StallTracker::new(now);
        tracker.check(now, &cfg, &metrics, None, [(0, opened, &slot)]);
        assert!(tracker.records.is_empty());
        assert_eq!(tracker.next_check(), now + STALL_CHECK);
        // Due: every stalled session is flagged, up to the cap.
        let many = (0..2 * MAX_STALLS as u64).map(|id| (id, opened, &slot));
        tracker.check(now + STALL_CHECK, &cfg, &metrics, None, many);
        assert_eq!(tracker.into_records().len(), MAX_STALLS);
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
