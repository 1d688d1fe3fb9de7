//! Power-of-two bucketed histogram.

use crate::json::Value;

/// Number of buckets: one for the value 0 plus one per power of two.
const BUCKETS: usize = 65;

/// A power-of-two bucketed histogram of `u64` samples.
///
/// Bucket 0 holds the value 0; bucket `b` (for `b >= 1`) holds values
/// in `[2^(b-1), 2^b - 1]`. Exact `count`, `sum`, `min` and `max` are
/// kept alongside the buckets, so means are exact and only percentile
/// queries are quantized. Recording is `#[inline]` and costs a handful
/// of integer ops — cheap enough to leave on unconditionally at event
/// sites (run ends, miss completions), which is how the simulator uses
/// it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram { buckets: [0; BUCKETS], count: 0, sum: 0, min: u64::MAX, max: 0 }
    }
}

/// Bucket index for a sample: 0 for 0, else `64 - leading_zeros`.
#[inline]
fn bucket_of(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one sample.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.buckets[bucket_of(v)] += 1;
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of samples recorded.
    #[inline]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    #[inline]
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest sample, or 0 if empty.
    #[inline]
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest sample, or 0 if empty.
    #[inline]
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Exact arithmetic mean, or 0.0 if empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// True if no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Approximate `p`-th percentile (`0.0..=1.0`): the upper bound of
    /// the first bucket whose cumulative count reaches `p * count`,
    /// clamped to the exact observed `max`. Returns 0 if empty.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (p.clamp(0.0, 1.0) * self.count as f64).ceil() as u64;
        let rank = rank.max(1);
        let mut seen = 0;
        for (b, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_high(b).min(self.max);
            }
        }
        self.max
    }

    /// Fold another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Non-empty buckets as `(low, high, count)` ranges, in ascending
    /// value order.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (u64, u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(b, &n)| (bucket_low(b), bucket_high(b), n))
    }

    /// Discard all samples (used when a simulation discards warmup
    /// state).
    pub fn reset(&mut self) {
        *self = Histogram::default();
    }

    /// Reconstructs a histogram from its serialized JSON object (the
    /// `{"count","sum","min","max","mean","buckets"}` shape written by
    /// [`crate::Registry::to_json_line`]). The reconstruction is exact — the
    /// same buckets, count, sum, min, and max — which is what lets
    /// sweep checkpoints (a shard's included) reproduce byte-identical
    /// artifacts. Returns `None` if the value is not such an object, or
    /// if its bucket counts overflow.
    pub fn from_value(v: &Value) -> Option<Histogram> {
        let count = v.get("count")?.as_u64()?;
        let mut h = Histogram {
            buckets: [0; BUCKETS],
            count,
            sum: v.get("sum")?.as_u64()?,
            // `to_json_line` writes the *observed* min, which reads as 0 for
            // an empty histogram; restore the internal sentinel so a
            // later `merge`/`record` keeps tracking the true minimum.
            min: if count == 0 { u64::MAX } else { v.get("min")?.as_u64()? },
            max: v.get("max")?.as_u64()?,
        };
        for b in v.get("buckets")?.as_arr()? {
            let lo = b.get("lo")?.as_u64()?;
            let n = b.get("n")?.as_u64()?;
            let bucket = &mut h.buckets[bucket_of(lo)];
            *bucket = bucket.checked_add(n)?;
        }
        Some(h)
    }
}

/// Inclusive lower bound of bucket `b`.
fn bucket_low(b: usize) -> u64 {
    if b == 0 {
        0
    } else {
        1u64 << (b - 1)
    }
}

/// Inclusive upper bound of bucket `b`.
fn bucket_high(b: usize) -> u64 {
    if b == 0 {
        0
    } else if b == 64 {
        u64::MAX
    } else {
        (1u64 << b) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_value_rejects_overflowing_bucket_counts() {
        // 2,049 entries of the largest JSON-safe count in one bucket sum
        // past `u64::MAX`; a checkpoint file can hold exactly this.
        let entry = format!("{{\"lo\": 1, \"n\": {}}}", crate::json::MAX_SAFE_INTEGER);
        let doc = format!(
            "{{\"count\": 1, \"sum\": 1, \"min\": 1, \"max\": 1, \"buckets\": [{}]}}",
            vec![entry; 2049].join(", ")
        );
        assert!(Histogram::from_value(&crate::json::parse(&doc).unwrap()).is_none());
    }

    #[test]
    fn empty_is_benign() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.percentile(0.5), 0);
        assert!(h.is_empty());
    }

    #[test]
    fn buckets_by_power_of_two() {
        let mut h = Histogram::new();
        for v in [0, 1, 2, 3, 4, 7, 8, 1000] {
            h.record(v);
        }
        let got: Vec<_> = h.nonzero_buckets().collect();
        assert_eq!(
            got,
            vec![(0, 0, 1), (1, 1, 1), (2, 3, 2), (4, 7, 2), (8, 15, 1), (512, 1023, 1)]
        );
        assert_eq!(h.count(), 8);
        assert_eq!(h.sum(), 1025);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 1000);
    }

    #[test]
    fn mean_is_exact() {
        let mut h = Histogram::new();
        h.record(3);
        h.record(5);
        assert_eq!(h.mean(), 4.0);
    }

    #[test]
    fn percentile_clamps_to_max() {
        let mut h = Histogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        assert_eq!(h.percentile(1.0), 100);
        assert!(h.percentile(0.5) >= 50);
        assert!(h.percentile(0.0) >= 1);
    }

    #[test]
    fn merge_combines() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(2);
        b.record(9);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.sum(), 11);
        assert_eq!(a.min(), 2);
        assert_eq!(a.max(), 9);
    }

    #[test]
    fn extreme_values() {
        let mut h = Histogram::new();
        h.record(u64::MAX);
        assert_eq!(h.max(), u64::MAX);
        assert_eq!(h.nonzero_buckets().count(), 1);
    }
}
