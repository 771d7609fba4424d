//! Exact order statistics over raw samples.
//!
//! Every percentile here is computed from the full list of per-op
//! samples, never from log-bucketed histograms: a log₂ bucket moves in
//! steps of about 19%, which is larger than the changes the benchmark
//! has to resolve.

use std::collections::BTreeMap;

/// Sort samples ascending (total order; the inputs are finite timings).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Exact median: the middle sample, or the mean of the two middle
/// samples for an even count.
pub fn median(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Exact distribution of whole-unit samples (whole microseconds of the
/// runtime's session reports, whole nanoseconds of `verify-gen` ops): a
/// count per value. It holds every sample, in memory that grows with the
/// number of distinct values rather than the number of samples, so a
/// run's footprint does not depend on how many ops it completed.
#[derive(Clone, Debug, Default)]
pub struct Counts(BTreeMap<u64, u64>);

impl Counts {
    pub fn add(&mut self, v: u64) {
        *self.0.entry(v).or_default() += 1;
    }

    pub fn merge(&mut self, other: &Counts) {
        for (&v, &c) in &other.0 {
            *self.0.entry(v).or_default() += c;
        }
    }

    pub fn len(&self) -> u64 {
        self.0.values().sum()
    }

    /// The benchmark's one percentile. Samples are truncated from a finer
    /// clock (a sample `k` stands for a value in `[k, k + 1)`), so the
    /// class holding the `q` quantile is interpolated within by the
    /// grouped-data formula `k + (q·n − below) / in_class`. Without the
    /// interpolation a percentile of whole-microsecond samples moves in
    /// whole microseconds, and reads 0 whenever most samples are below
    /// 1 µs. Returns the value and the number of samples above its class.
    pub fn percentile(&self, q: f64) -> (f64, u64) {
        let n = self.len();
        assert!(n > 0, "percentile of no samples");
        let target = q * n as f64;
        let index = (target.floor() as u64).min(n - 1);
        let mut below = 0u64;
        for (&k, &c) in &self.0 {
            if index < below + c {
                let value = k as f64 + (target - below as f64) / c as f64;
                return (value, n - below - c);
            }
            below += c;
        }
        unreachable!("index < n")
    }
}

/// Minimum number of samples a reported tail percentile must have
/// beyond it.
pub const MIN_BEYOND: usize = 10;

/// The timing figures of one slice or batch of ops.
pub struct Figures {
    pub ops_per_s: f64,
    pub p50_us: f64,
    pub p90_us: f64,
    /// Samples beyond the p90.
    pub beyond90: u64,
    pub p99_us: f64,
    pub cpu_us_per_op: f64,
}

impl Figures {
    /// Figures of `ops` ops that took `wall_s` and `cpu_ns` in all, with
    /// per-op latencies `lat` in units of `unit_us` µs; wall and CPU
    /// times multiplied by `(fw, fc)`.
    pub fn new(
        ops: usize,
        wall_s: f64,
        cpu_ns: u64,
        lat: &Counts,
        unit_us: f64,
        (fw, fc): (f64, f64),
    ) -> Figures {
        let us = |q: f64| lat.percentile(q).0 * unit_us * fw;
        Figures {
            ops_per_s: ops as f64 / (wall_s * fw),
            p50_us: us(0.50),
            p90_us: us(0.90),
            beyond90: lat.percentile(0.90).1,
            p99_us: us(0.99),
            cpu_us_per_op: cpu_ns as f64 * fc / 1e3 / ops.max(1) as f64,
        }
    }
}

/// A run's timing metrics, each the median over its slices or batches
/// of their figures scaled by `factors` (one `(wall, CPU)` pair per
/// slice or batch), and a note giving its p99 (not gated), the unscaled
/// medians and the median wall factor. `n` is the number of ops.
pub fn timing_metrics(
    scaled: &[Figures],
    unscaled: &[Figures],
    factors: &[(f64, f64)],
    n: usize,
    notes: &mut Vec<String>,
) -> Vec<crate::Metric> {
    use crate::Metric;
    let median =
        |of: &[Figures], f: fn(&Figures) -> f64| self::median(&sorted(of.iter().map(f).collect()));
    notes.push(format!(
        "latency_p99_us {:.1} (median over {} slices or batches; not gated); unscaled medians: \
         ops_per_s {:.2}, latency_p50_us {:.1}, latency_p90_us {:.1}, cpu_us_per_op {:.2}; \
         median wall scale factor {:.3}",
        median(scaled, |f| f.p99_us),
        scaled.len(),
        median(unscaled, |f| f.ops_per_s),
        median(unscaled, |f| f.p50_us),
        median(unscaled, |f| f.p90_us),
        median(unscaled, |f| f.cpu_us_per_op),
        self::median(&sorted(factors.iter().map(|f| f.0).collect())),
    ));
    let k = scaled.len();
    let beyond90 = scaled.iter().map(|f| f.beyond90).min().unwrap_or(0);
    vec![
        Metric::new("ops_per_s", median(scaled, |f| f.ops_per_s), "1/s").samples(k),
        Metric::new("latency_p50_us", median(scaled, |f| f.p50_us), "us").samples(n),
        Metric::new("latency_p90_us", median(scaled, |f| f.p90_us), "us")
            .samples(n)
            .beyond(beyond90 as usize),
        Metric::new("cpu_us_per_op", median(scaled, |f| f.cpu_us_per_op), "us").samples(k),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_is_exact_for_odd_and_even_counts() {
        assert_eq!(median(&[1.0, 2.0, 9.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 9.0]), 2.5);
    }

    fn counts(v: impl IntoIterator<Item = u64>) -> Counts {
        let mut c = Counts::default();
        v.into_iter().for_each(|x| c.add(x));
        c
    }

    #[test]
    fn truncated_percentile_interpolates_within_the_unit() {
        // 70% of samples below 1 µs: the median sits 5/7 into [0, 1).
        let (m, beyond) = counts([0, 0, 0, 0, 0, 0, 0, 3, 4, 9]).percentile(0.5);
        assert!((m - 5.0 / 7.0).abs() < 1e-12);
        assert_eq!(beyond, 3);
        // Distinct samples: the class of the nearest-rank value.
        let mut c = counts(0..500);
        c.merge(&counts(500..1000));
        assert_eq!(c.len(), 1000);
        assert_eq!(c.percentile(0.99), (990.0, 9));
    }
}
