//! Log₂ latency histograms, their rendered summaries, and the four
//! stages a session's latency is split into.

use semantics::json::Json;
use semantics::json_obj;

/// Log₂ histogram with 4 sub-buckets per octave (≈ 19% bucket width).
/// Values are microseconds. The buckets are inline, so a clone is one
/// copy with no allocation.
#[derive(Clone, Debug)]
pub struct Histogram {
    buckets: [u64; BUCKETS],
    count: u64,
    sum: u64,
    max: u64,
}

pub(super) const SUB: usize = 4;
pub(super) const BUCKETS: usize = 64 * SUB;

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    pub fn new() -> Histogram {
        Histogram {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    pub(super) fn bucket_of(v: u64) -> usize {
        let v = v.max(1);
        let e = 63 - v.leading_zeros() as usize;
        let frac = if e >= 2 {
            (v >> (e - 2)) as usize & 3
        } else {
            0
        };
        (e * SUB + frac).min(BUCKETS - 1)
    }

    /// Representative (lower-bound) value of bucket `i`.
    pub(super) fn bucket_value(i: usize) -> f64 {
        let e = (i / SUB) as i32;
        let frac = (i % SUB) as f64;
        2f64.powi(e) * (1.0 + frac / SUB as f64)
    }

    pub fn record(&mut self, v: u64) {
        self.buckets[Self::bucket_of(v)] += 1;
        self.count += 1;
        self.sum = self.sum.wrapping_add(v);
        self.max = self.max.max(v);
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    /// The per-bucket counts, indexed like [`Self::bucket_of`].
    pub(super) fn buckets(&self) -> &[u64] {
        &self.buckets
    }

    /// The value at quantile `q` (0 ≤ q ≤ 1), approximated to bucket
    /// resolution; `0` when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        let n = self.count;
        if n == 0 {
            return 0.0;
        }
        let target = ((q * n as f64).ceil() as u64).clamp(1, n);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= target {
                return Self::bucket_value(i);
            }
        }
        self.max as f64
    }

    /// Sum of all recorded values.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Snapshot for reporting.
    pub fn summary(&self) -> HistSummary {
        HistSummary {
            count: self.count,
            mean: if self.count == 0 {
                0.0
            } else {
                self.sum as f64 / self.count as f64
            },
            p50: self.quantile(0.50),
            p90: self.quantile(0.90),
            p99: self.quantile(0.99),
            max: self.max,
        }
    }
}

/// A rendered histogram snapshot (microseconds).
#[derive(Clone, Copy, Debug, Default)]
pub struct HistSummary {
    pub count: u64,
    pub mean: f64,
    pub p50: f64,
    pub p90: f64,
    pub p99: f64,
    pub max: u64,
}

impl HistSummary {
    pub fn to_json(&self) -> Json {
        json_obj! {
            "count" => self.count,
            "mean_us" => self.mean,
            "p50_us" => self.p50,
            "p90_us" => self.p90,
            "p99_us" => self.p99,
            "max_us" => self.max,
        }
    }
}

/// Decomposition of one session's end-to-end latency into pipeline
/// stages (all microseconds):
///
/// * `queue_wait` — session open to its first executed entity move
///   (multiplexer admission + scheduler pickup);
/// * `step` — time actually spent executing entity moves under the
///   session lock;
/// * `notify_wait` — scheduler wake-up and blocked-on-peer time;
/// * `wire` — frames in flight between processes (distributed runs
///   only; exactly 0 for in-process engines).
///
/// Built through [`StageBreakdown::attribute`], which clamps each
/// component so `sum_us() ≤` the end-to-end latency by construction.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StageBreakdown {
    pub queue_wait_us: u64,
    pub step_us: u64,
    pub notify_wait_us: u64,
    pub wire_us: u64,
}

impl StageBreakdown {
    /// Clamp raw stage measurements into a breakdown whose sum never
    /// exceeds `e2e_us`. Components are trimmed in order (queue, step,
    /// wire); `notify` is the measured wake-up time when given,
    /// otherwise the residual — local engines measure queue and step
    /// directly and attribute the rest to scheduler wake-up.
    pub fn attribute(
        e2e_us: u64,
        queue: u64,
        step: u64,
        wire: u64,
        notify: Option<u64>,
    ) -> StageBreakdown {
        let queue_wait_us = queue.min(e2e_us);
        let step_us = step.min(e2e_us - queue_wait_us);
        let wire_us = wire.min(e2e_us - queue_wait_us - step_us);
        let rem = e2e_us - queue_wait_us - step_us - wire_us;
        let notify_wait_us = match notify {
            Some(n) => n.min(rem),
            None => rem,
        };
        StageBreakdown {
            queue_wait_us,
            step_us,
            notify_wait_us,
            wire_us,
        }
    }

    pub fn sum_us(&self) -> u64 {
        self.queue_wait_us + self.step_us + self.notify_wait_us + self.wire_us
    }

    pub fn to_json(&self) -> Json {
        json_obj! {
            "queue_wait_us" => self.queue_wait_us,
            "step_us" => self.step_us,
            "notify_wait_us" => self.notify_wait_us,
            "wire_us" => self.wire_us,
        }
    }
}

/// One `T` per latency stage of [`StageBreakdown`]: a [`Histogram`]
/// each in the live metrics, a [`HistSummary`] each in the report and
/// `/health` (the `stages` object).
#[derive(Clone, Copy, Debug, Default)]
pub struct Stages<T> {
    pub queue_wait: T,
    pub step: T,
    pub notify_wait: T,
    pub wire: T,
}

impl<T> Stages<T> {
    /// `(stage label, value)` pairs in canonical order.
    pub fn all(&self) -> [(&'static str, &T); 4] {
        [
            ("queue_wait", &self.queue_wait),
            ("step", &self.step),
            ("notify_wait", &self.notify_wait),
            ("wire", &self.wire),
        ]
    }

    pub fn map<U>(&self, mut f: impl FnMut(&T) -> U) -> Stages<U> {
        Stages {
            queue_wait: f(&self.queue_wait),
            step: f(&self.step),
            notify_wait: f(&self.notify_wait),
            wire: f(&self.wire),
        }
    }
}

impl Stages<Histogram> {
    pub fn record(&mut self, b: &StageBreakdown) {
        self.queue_wait.record(b.queue_wait_us);
        self.step.record(b.step_us);
        self.notify_wait.record(b.notify_wait_us);
        self.wire.record(b.wire_us);
    }

    pub fn summaries(&self) -> Stages<HistSummary> {
        self.map(Histogram::summary)
    }
}

impl Stages<HistSummary> {
    pub fn to_json(&self) -> Json {
        self.all()
            .into_iter()
            .map(|(stage, s)| (stage, s.to_json()))
            .collect()
    }
}
