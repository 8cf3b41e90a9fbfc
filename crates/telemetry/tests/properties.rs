//! Property-based tests for the metrics subsystem: the algebra the
//! sharded engine leans on (merge associativity/commutativity and
//! order-independence) plus the histogram's accuracy contract.

use doe_telemetry::{bucket_floor, bucket_index, Histogram, HistogramSnapshot, Labels, Registry};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// The `BTreeMap`-bucketed histogram that the indexed vector replaced,
/// verbatim: the reference for counts, quantiles and snapshot bytes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct ReferenceHistogram {
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    buckets: BTreeMap<u64, u64>,
}

impl ReferenceHistogram {
    fn observe(&mut self, value: u64) {
        if self.count == 0 || value < self.min {
            self.min = value;
        }
        if value > self.max {
            self.max = value;
        }
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        *self.buckets.entry(bucket_index(value)).or_insert(0) += 1;
    }

    fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    fn merge(&mut self, other: &ReferenceHistogram) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 || other.min < self.min {
            self.min = other.min;
        }
        if other.max > self.max {
            self.max = other.max;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        for (&index, &n) in &other.buckets {
            *self.buckets.entry(index).or_insert(0) += n;
        }
    }

    fn quantile(&self, permille: u64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = permille.min(1000).saturating_mul(self.count - 1) / 1000;
        let mut seen = 0u64;
        for (&index, &n) in &self.buckets {
            seen += n;
            if seen > rank {
                return bucket_floor(index);
            }
        }
        bucket_floor(self.buckets.keys().next_back().copied().unwrap_or(0))
    }

    fn bucket_counts(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .map(|(&index, &n)| (bucket_floor(index), n))
            .collect()
    }

    fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count,
            sum: self.sum,
            min: self.min(),
            max: self.max,
            p50: self.quantile(500),
            p90: self.quantile(900),
            p99: self.quantile(990),
            buckets: self.bucket_counts(),
        }
    }
}

/// Samples across the whole range: exact unit buckets, latency-like
/// magnitudes and the top octaves.
fn arb_samples() -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(prop_oneof![0u64..64, 0u64..50_000_000, any::<u64>()], 0..40)
}

fn both_of(values: &[u64]) -> (Histogram, ReferenceHistogram) {
    let mut reference = ReferenceHistogram::default();
    for &v in values {
        reference.observe(v);
    }
    (histogram_of(values), reference)
}

fn histogram_of(values: &[u64]) -> Histogram {
    let mut h = Histogram::new();
    for &v in values {
        h.observe(v);
    }
    h
}

/// Build a registry holding one counter, one gauge and one histogram per
/// (name index, value) pair, so merges exercise every slot kind.
fn registry_of(series: &[(u8, u64)]) -> Registry {
    let mut reg = Registry::enabled();
    for &(which, value) in series {
        let labels = Labels::one("s", &(which % 4).to_string());
        match which % 3 {
            0 => reg.count("prop.counter", labels, value),
            1 => reg.gauge_max("prop.gauge", labels, value),
            _ => reg.record("prop.histogram", labels, value),
        }
    }
    reg
}

proptest! {
    #[test]
    fn histogram_merge_is_commutative(
        a in proptest::collection::vec(any::<u64>(), 0..40),
        b in proptest::collection::vec(any::<u64>(), 0..40),
    ) {
        let (ha, hb) = (histogram_of(&a), histogram_of(&b));
        let mut ab = ha.clone();
        ab.merge(&hb);
        let mut ba = hb.clone();
        ba.merge(&ha);
        prop_assert_eq!(&ab, &ba);
    }

    #[test]
    fn histogram_merge_is_associative(
        a in proptest::collection::vec(any::<u64>(), 0..30),
        b in proptest::collection::vec(any::<u64>(), 0..30),
        c in proptest::collection::vec(any::<u64>(), 0..30),
    ) {
        let (ha, hb, hc) = (histogram_of(&a), histogram_of(&b), histogram_of(&c));
        // (a ⊕ b) ⊕ c
        let mut left = ha.clone();
        left.merge(&hb);
        left.merge(&hc);
        // a ⊕ (b ⊕ c)
        let mut bc = hb.clone();
        bc.merge(&hc);
        let mut right = ha.clone();
        right.merge(&bc);
        prop_assert_eq!(&left, &right);
    }

    #[test]
    fn merging_shards_equals_observing_in_one(
        a in proptest::collection::vec(0u64..1_000_000, 1..40),
        b in proptest::collection::vec(0u64..1_000_000, 1..40),
    ) {
        let mut merged = histogram_of(&a);
        merged.merge(&histogram_of(&b));
        let mut all: Vec<u64> = a.clone();
        all.extend_from_slice(&b);
        prop_assert_eq!(&merged, &histogram_of(&all));
    }

    #[test]
    fn quantile_lands_in_the_exact_sample_bucket(
        samples in proptest::collection::vec(0u64..10_000_000, 1..80),
        permille in 0u64..=1000,
    ) {
        let h = histogram_of(&samples);
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        // The estimator uses the same nearest-rank rule as this oracle;
        // log-bucketing means it can only be off by the bucket rounding.
        let rank = (permille * (sorted.len() as u64 - 1) / 1000) as usize;
        let exact = sorted[rank];
        let estimate = h.quantile(permille);
        prop_assert_eq!(
            bucket_index(estimate),
            bucket_index(exact),
            "p{} estimate {} not in exact value {}'s bucket",
            permille,
            estimate,
            exact
        );
        prop_assert!(estimate <= exact, "bucket floor exceeds the exact sample");
    }

    #[test]
    fn histogram_matches_the_btreemap_reference(a in arb_samples(), b in arb_samples()) {
        let (mut h, mut r) = both_of(&a);
        let (hb, rb) = both_of(&b);
        h.merge(&hb);
        r.merge(&rb);
        prop_assert_eq!(h.count(), r.count);
        prop_assert_eq!(h.sum(), r.sum);
        prop_assert_eq!(h.min(), r.min());
        prop_assert_eq!(h.max(), r.max);
        for permille in 0..=1000 {
            prop_assert_eq!(h.quantile(permille), r.quantile(permille), "p{}", permille);
        }
        prop_assert_eq!(h.bucket_counts(), r.bucket_counts());
        prop_assert_eq!(
            serde_json::to_string(&HistogramSnapshot::of(&h)).unwrap(),
            serde_json::to_string(&r.snapshot()).unwrap()
        );
        // Equality tracks the reference's, whichever side holds the
        // higher buckets: merging either way round, or observing all the
        // samples in one histogram, gives equal histograms.
        let mut swapped = hb.clone();
        swapped.merge(&histogram_of(&a));
        let mut all = a.clone();
        all.extend_from_slice(&b);
        let (whole, whole_ref) = both_of(&all);
        prop_assert_eq!(&swapped, &h);
        prop_assert_eq!(whole == h, whole_ref == r);
        prop_assert_eq!(histogram_of(&a) == hb, both_of(&a).1 == rb);
    }

    #[test]
    fn registry_merge_is_order_independent(
        a in proptest::collection::vec((any::<u8>(), 0u64..1_000_000), 0..30),
        b in proptest::collection::vec((any::<u8>(), 0u64..1_000_000), 0..30),
        c in proptest::collection::vec((any::<u8>(), 0u64..1_000_000), 0..30),
    ) {
        let (ra, rb, rc) = (registry_of(&a), registry_of(&b), registry_of(&c));
        // Absorb order (a, b, c) into an empty parent...
        let mut forward = Registry::enabled();
        forward.merge(&ra);
        forward.merge(&rb);
        forward.merge(&rc);
        // ...must match absorb order (c, a, b).
        let mut shuffled = Registry::enabled();
        shuffled.merge(&rc);
        shuffled.merge(&ra);
        shuffled.merge(&rb);
        prop_assert_eq!(forward.snapshot(), shuffled.snapshot());
    }

    #[test]
    fn registry_merge_totals_match_single_registry(
        a in proptest::collection::vec((any::<u8>(), 0u64..1_000_000), 0..40),
        split in 0usize..40,
    ) {
        let cut = split.min(a.len());
        let mut sharded = registry_of(&a[..cut]);
        sharded.merge(&registry_of(&a[cut..]));
        prop_assert_eq!(sharded.snapshot(), registry_of(&a).snapshot());
    }
}
