//! Streaming log-bucketed histogram.
//!
//! Used for degree distributions and latency measurements. Values are placed
//! into power-of-two buckets, which keeps the structure tiny (64 counters)
//! while preserving order-of-magnitude shape — exactly the granularity the
//! query planner needs to distinguish "rare" from "frequent" structures.

use serde::{Deserialize, Serialize};

/// A histogram over `u64` values with power-of-two bucket boundaries.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LogHistogram {
    /// `buckets[i]` counts values `v` with `floor(log2(v.max(1))) == i`
    /// (bucket 0 also counts zero).
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LogHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        LogHistogram {
            buckets: vec![0; 64],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    fn bucket_of(value: u64) -> usize {
        63 - value.max(1).leading_zeros() as usize
    }

    /// Rebuilds a histogram from the raw counters [`Self::bucket_counts`],
    /// [`Self::count`], [`Self::sum`], [`Self::min`] and [`Self::max`] read,
    /// e.g. a persisted copy. Buckets past the 64th are ignored and missing
    /// ones read 0; a zero `count` gives the empty histogram.
    pub fn from_parts(buckets: &[u64], count: u64, sum: u64, min: u64, max: u64) -> Self {
        let mut h = LogHistogram::new();
        if count > 0 {
            for (a, &b) in h.buckets.iter_mut().zip(buckets) {
                *a = b;
            }
            h.count = count;
            h.sum = sum;
            h.min = min;
            h.max = max;
        }
        h
    }

    /// Records a value. Counters saturate rather than overflow.
    pub fn record(&mut self, value: u64) {
        let bucket = &mut self.buckets[Self::bucket_of(value)];
        *bucket = bucket.saturating_add(1);
        self.count = self.count.saturating_add(1);
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded values.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Mean of recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Minimum recorded value (`None` when empty).
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Maximum recorded value (`None` when empty).
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Approximate quantile: returns the *upper bound* of the bucket that
    /// contains the `q`-quantile observation (`q` in `[0, 1]`).
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((self.count as f64) * q).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                // Upper bound of bucket i is 2^(i+1) - 1, clamped to observed max.
                let upper = if i >= 63 {
                    u64::MAX
                } else {
                    (1u64 << (i + 1)) - 1
                };
                return Some(upper.min(self.max));
            }
        }
        Some(self.max)
    }

    /// Raw per-bucket counts: `bucket_counts()[i]` counts the values `v`
    /// with `floor(log2(v.max(1))) == i`.
    pub fn bucket_counts(&self) -> &[u64] {
        &self.buckets
    }

    /// Iterates non-empty buckets as `(lower_bound, upper_bound, count)`.
    pub fn buckets(&self) -> impl Iterator<Item = (u64, u64, u64)> + '_ {
        self.buckets.iter().enumerate().filter_map(|(i, &c)| {
            if c == 0 {
                None
            } else {
                let lower = if i == 0 { 0 } else { 1u64 << i };
                let upper = if i >= 63 {
                    u64::MAX
                } else {
                    (1u64 << (i + 1)) - 1
                };
                Some((lower, upper, c))
            }
        })
    }

    /// Merges another histogram into this one. Counters saturate rather than
    /// overflow, so merging a crafted copy cannot panic.
    pub fn merge(&mut self, other: &LogHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a = a.saturating_add(*b);
        }
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
        if other.count > 0 {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_reports_nothing() {
        let h = LogHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.quantile(0.5), None);
    }

    #[test]
    fn record_tracks_min_max_mean() {
        let mut h = LogHistogram::new();
        for v in [1u64, 2, 3, 4, 100] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.min(), Some(1));
        assert_eq!(h.max(), Some(100));
        assert!((h.mean() - 22.0).abs() < 1e-9);
    }

    #[test]
    fn zero_goes_into_first_bucket() {
        let mut h = LogHistogram::new();
        h.record(0);
        h.record(1);
        let buckets: Vec<_> = h.buckets().collect();
        assert_eq!(buckets.len(), 1);
        assert_eq!(buckets[0].2, 2);
    }

    #[test]
    fn quantile_is_monotone_and_bounded() {
        let mut h = LogHistogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let q10 = h.quantile(0.1).unwrap();
        let q50 = h.quantile(0.5).unwrap();
        let q99 = h.quantile(0.99).unwrap();
        assert!(q10 <= q50 && q50 <= q99);
        assert!(q99 <= 1000);
        // The median of 1..=1000 is ~500; the bucket upper bound containing it
        // is 511.
        assert_eq!(q50, 511);
    }

    #[test]
    fn merge_combines_counts() {
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        a.record(5);
        b.record(500);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.min(), Some(5));
        assert_eq!(a.max(), Some(500));
        assert_eq!(a.sum(), 505);
    }

    #[test]
    fn from_parts_round_trips_the_raw_counters() {
        let mut h = LogHistogram::new();
        for v in [3u64, 9, 700] {
            h.record(v);
        }
        let back = LogHistogram::from_parts(
            h.bucket_counts(),
            h.count(),
            h.sum(),
            h.min().unwrap(),
            h.max().unwrap(),
        );
        assert_eq!(back, h);
        // A short bucket list reads as zeros past its end; an empty count is
        // the empty histogram whatever the other fields say.
        assert_eq!(
            LogHistogram::from_parts(&[1], 1, 1, 1, 1)
                .bucket_counts()
                .len(),
            64
        );
        assert_eq!(
            LogHistogram::from_parts(&[5; 70], 0, 9, 0, 9),
            LogHistogram::new()
        );
    }

    #[test]
    fn bucket_bounds_are_powers_of_two() {
        let mut h = LogHistogram::new();
        h.record(9); // bucket 3: [8, 15]
        let b: Vec<_> = h.buckets().collect();
        assert_eq!(b, vec![(8, 15, 1)]);
    }
}
