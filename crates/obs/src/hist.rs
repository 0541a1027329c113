//! Fixed-bucket power-of-two latency histograms.
//!
//! Bucket `0` holds the value `0`; bucket `i >= 1` holds values in
//! `[2^(i-1), 2^i - 1]`. With 64-bit values that is 65 buckets total —
//! enough to span nanoseconds to centuries with one `fetch_add` per
//! record and no configuration. Percentiles are answered from a snapshot
//! as the *upper bound* of the bucket containing the requested rank
//! (conservative: never under-reports).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Number of buckets in a [`Histogram`]: one per power of two of a `u64`,
/// plus a dedicated zero bucket.
pub const HIST_BUCKETS: usize = 65;

/// The bucket a value falls into.
fn bucket_of(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// Inclusive upper bound of a bucket (what percentile queries report).
fn bucket_upper(i: usize) -> u64 {
    match i {
        0 => 0,
        64 => u64::MAX,
        _ => (1u64 << i) - 1,
    }
}

struct HistInner {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

/// A lock-free fixed-bucket histogram handle. Cloning is cheap and clones
/// share the same underlying buckets.
#[derive(Clone)]
pub struct Histogram {
    inner: Arc<HistInner>,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// A new, empty histogram (detached from any registry).
    pub fn new() -> Self {
        Histogram {
            inner: Arc::new(HistInner {
                buckets: [(); HIST_BUCKETS].map(|_| AtomicU64::new(0)),
                count: AtomicU64::new(0),
                sum: AtomicU64::new(0),
            }),
        }
    }

    /// Records one observation.
    pub fn record(&self, v: u64) {
        self.record_n(v, 1);
    }

    /// Records `n` observations of the same value — one add per cell
    /// however large `n` is (a batch that measured one shared latency).
    pub fn record_n(&self, v: u64, n: u64) {
        let i = bucket_of(v);
        self.inner.buckets[i].fetch_add(n, Ordering::Relaxed);
        self.inner.count.fetch_add(n, Ordering::Relaxed);
        self.inner.sum.fetch_add(v.wrapping_mul(n), Ordering::Relaxed);
    }

    /// Number of observations recorded so far.
    pub fn count(&self) -> u64 {
        self.inner.count.load(Ordering::Relaxed)
    }

    /// A point-in-time copy of the buckets. Concurrent recording may tear
    /// across buckets (a record between two bucket reads), which shifts the
    /// snapshot's totals by at most the number of in-flight records.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets = std::array::from_fn(|i| self.inner.buckets[i].load(Ordering::Relaxed));
        HistogramSnapshot {
            buckets,
            count: self.inner.count.load(Ordering::Relaxed),
            sum: self.inner.sum.load(Ordering::Relaxed),
        }
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram").field("count", &self.count()).finish()
    }
}

/// An immutable copy of a [`Histogram`]'s buckets, mergeable and queryable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    buckets: [u64; HIST_BUCKETS],
    count: u64,
    sum: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot { buckets: [0; HIST_BUCKETS], count: 0, sum: 0 }
    }
}

impl HistogramSnapshot {
    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observed values, modulo 2^64: recording is one relaxed
    /// `fetch_add` per observation, so the sum wraps rather than saturates.
    /// (At nanosecond granularity that is ~584 years of accumulated time.)
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Observations in bucket `i` (values in `[2^(i-1), 2^i - 1]`; bucket 0
    /// is the value 0). Out-of-range indices read as 0.
    pub fn bucket(&self, i: usize) -> u64 {
        self.buckets.get(i).copied().unwrap_or(0)
    }

    /// Inclusive upper bound of bucket `i`'s value range.
    pub fn bucket_bound(i: usize) -> u64 {
        bucket_upper(i.min(HIST_BUCKETS - 1))
    }

    /// Folds another snapshot into this one: bucket counts add
    /// (saturating), and `sum` adds modulo 2^64 so that merging two
    /// snapshots equals recording both observation streams into one
    /// histogram — wrapping addition is associative, saturation is not.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b = b.saturating_add(*o);
        }
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.wrapping_add(other.sum);
    }

    /// Bucket-wise difference against an earlier snapshot of the same
    /// histogram (saturating, so a reset or mismatched baseline degrades to
    /// zeros rather than wrapping).
    pub fn delta(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        let mut out = HistogramSnapshot::default();
        for i in 0..HIST_BUCKETS {
            out.buckets[i] = self.buckets[i].saturating_sub(earlier.buckets[i]);
        }
        out.count = self.count.saturating_sub(earlier.count);
        out.sum = self.sum.saturating_sub(earlier.sum);
        out
    }

    /// The value at quantile `q` in `[0, 1]`, reported as the upper bound of
    /// the bucket containing that rank (a conservative over-estimate within
    /// 2x of the true value). Returns 0 for an empty histogram.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        // Rank of the requested observation, 1-based.
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut cum = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            cum += b;
            if cum >= rank {
                return bucket_upper(i);
            }
        }
        bucket_upper(HIST_BUCKETS - 1)
    }

    /// Mean observed value (0 for an empty histogram).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Index of the highest non-empty bucket, or `None` when empty.
    pub fn max_bucket(&self) -> Option<usize> {
        self.buckets.iter().rposition(|&b| b > 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_powers_of_two() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(255), 8);
        assert_eq!(bucket_of(256), 9);
        assert_eq!(bucket_of(u64::MAX), 64);
        for i in 1..HIST_BUCKETS {
            // The lower edge of bucket i is one past the upper edge of i-1.
            assert_eq!(bucket_of(bucket_upper(i - 1).wrapping_add(1)), i);
            assert_eq!(bucket_of(bucket_upper(i)), i);
        }
    }

    #[test]
    fn record_and_percentiles() {
        let h = Histogram::new();
        for v in [0u64, 7, 100, 1000] {
            h.record(v);
        }
        h.record_n(1, 2);
        let s = h.snapshot();
        assert_eq!(s.count(), 6);
        assert_eq!(s.sum(), 1109);
        assert_eq!(s.bucket(0), 1);
        assert_eq!(s.bucket(1), 2);
        // p50 -> rank 3 -> the second `1`, reported as bucket 1's bound.
        assert_eq!(s.percentile(0.5), 1);
        // p100 -> the 1000, bucket 10 (512..=1023), bound 1023.
        assert_eq!(s.percentile(1.0), 1023);
        assert_eq!(s.max_bucket(), Some(10));
    }

    #[test]
    fn empty_histogram_answers_zero() {
        let s = Histogram::new().snapshot();
        assert_eq!(s.percentile(0.99), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.max_bucket(), None);
    }

    #[test]
    fn merge_adds_bucketwise() {
        let a = Histogram::new();
        let b = Histogram::new();
        a.record(3);
        b.record(3);
        b.record(1000);
        let mut s = a.snapshot();
        s.merge(&b.snapshot());
        assert_eq!(s.count(), 3);
        assert_eq!(s.bucket(2), 2);
        assert_eq!(s.sum(), 1006);
    }

    #[test]
    fn delta_subtracts_earlier() {
        let h = Histogram::new();
        h.record(5);
        let before = h.snapshot();
        h.record(5);
        h.record(9);
        let d = h.snapshot().delta(&before);
        assert_eq!(d.count(), 2);
        assert_eq!(d.sum(), 14);
        assert_eq!(d.bucket(3), 1);
        assert_eq!(d.bucket(4), 1);
    }
}
