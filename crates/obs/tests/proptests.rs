//! Property tests for the observability crate: histogram bucket geometry
//! and snapshot merge/delta algebra over arbitrary inputs.

use payg_obs::{Histogram, HistogramSnapshot, ObsSnapshot, Registry, HIST_BUCKETS};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every recorded value lands in exactly one bucket, and that bucket's
    /// bounds bracket the value: `bound(i-1) < v <= bound(i)`.
    #[test]
    fn histogram_buckets_bracket_their_values(
        values in prop::collection::vec(any::<u64>(), 1..200),
    ) {
        let h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        let snap = h.snapshot();
        prop_assert_eq!(snap.count(), values.len() as u64);
        let mut total = 0u64;
        for i in 0..HIST_BUCKETS {
            total += snap.bucket(i);
        }
        prop_assert_eq!(total, values.len() as u64, "each value in exactly one bucket");
        for &v in &values {
            // Find the one bucket whose upper bound is the first >= v.
            let i = (0..HIST_BUCKETS)
                .find(|&i| HistogramSnapshot::bucket_bound(i) >= v)
                .expect("some bucket bounds every u64");
            if i > 0 {
                prop_assert!(HistogramSnapshot::bucket_bound(i - 1) < v, "v={v} bucket={i}");
            }
        }
        // The running sum is one relaxed fetch_add per record: modulo 2^64.
        let expect: u64 = values.iter().fold(0u64, |a, &v| a.wrapping_add(v));
        prop_assert_eq!(snap.sum(), expect);
    }

    /// Percentiles walk the cumulative distribution: the reported bound is
    /// an upper bound for at least `q` of the recorded values, and p100
    /// bounds everything.
    #[test]
    fn histogram_percentiles_cover_their_rank(
        values in prop::collection::vec(any::<u64>(), 1..200),
    ) {
        let h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        let snap = h.snapshot();
        for q in [0.5, 0.9, 0.99, 1.0] {
            let bound = snap.percentile(q);
            let covered = values.iter().filter(|&&v| v <= bound).count() as f64;
            let need = (q * values.len() as f64).ceil().max(1.0);
            prop_assert!(
                covered >= need,
                "p{q}: bound {bound} covers {covered} of {} (need {need})",
                values.len()
            );
        }
    }

    /// Merging two histogram snapshots is bucket-wise addition, and the
    /// merged percentile never decreases relative to either half.
    #[test]
    fn histogram_merge_is_bucketwise_sum(
        a in prop::collection::vec(any::<u64>(), 0..100),
        b in prop::collection::vec(any::<u64>(), 0..100),
    ) {
        let ha = Histogram::new();
        let hb = Histogram::new();
        let hall = Histogram::new();
        for &v in &a {
            ha.record(v);
            hall.record(v);
        }
        for &v in &b {
            hb.record(v);
            hall.record(v);
        }
        let mut merged = ha.snapshot();
        merged.merge(&hb.snapshot());
        let all = hall.snapshot();
        prop_assert_eq!(merged.count(), all.count());
        prop_assert_eq!(merged.sum(), all.sum());
        for i in 0..HIST_BUCKETS {
            prop_assert_eq!(merged.bucket(i), all.bucket(i), "bucket {i}");
        }
        if !a.is_empty() && !b.is_empty() {
            let p99 = merged.percentile(0.99);
            prop_assert!(p99 >= ha.snapshot().percentile(0.99).min(hb.snapshot().percentile(0.99)));
        }
    }

    /// Registry snapshots: `delta(before)` recovers exactly what happened
    /// in between.
    #[test]
    fn snapshot_delta_is_exact(
        before_incs in prop::collection::vec(any::<u8>(), 0..50),
        after_incs in prop::collection::vec(any::<u8>(), 0..50),
    ) {
        let names = ["alpha", "beta", "gamma"];
        let r = Registry::new();
        for &sel in &before_incs {
            r.counter(names[sel as usize % 3]).inc();
        }
        let before = ObsSnapshot::collect(&r);
        for &sel in &after_incs {
            r.counter(names[sel as usize % 3]).inc();
        }
        let after = ObsSnapshot::collect(&r);
        let delta = after.delta(&before);
        for (i, name) in names.iter().enumerate() {
            let expect = after_incs.iter().filter(|&&s| s as usize % 3 == i).count() as u64;
            prop_assert_eq!(delta.counter(name), expect, "delta of {}", name);
        }
    }
}
