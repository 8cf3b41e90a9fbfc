//! Log-bucketed (HDR-style) histograms over `u64` samples.
//!
//! Values below [`SUB_BUCKETS`] land in exact unit buckets; above that,
//! each power-of-two octave is split into [`SUB_BUCKETS`] sub-buckets, so
//! the relative quantization error is bounded by `1 / SUB_BUCKETS`
//! (~3.1%). Bucket counts sit in a vector indexed by bucket, so a sample
//! costs one increment, and the merge is a plain per-bucket addition —
//! associative and commutative, the property the sharded engine's absorb
//! step relies on.

use serde::Serialize;

/// Sub-bucket precision: `log2` of the bucket count per octave.
pub const SUB_BITS: u32 = 5;

/// Buckets per octave (and the exact-bucket threshold).
pub const SUB_BUCKETS: u64 = 1 << SUB_BITS;

/// The bucket index a value falls into.
pub fn bucket_index(value: u64) -> u64 {
    if value < SUB_BUCKETS {
        return value;
    }
    let msb = 63 - u64::from(value.leading_zeros());
    let shift = msb - u64::from(SUB_BITS);
    let sub = (value >> shift) & (SUB_BUCKETS - 1);
    (shift + 1) * SUB_BUCKETS + sub
}

/// [`bucket_index`] as a vector position. Indices stay below 1,920
/// (`bucket_index(u64::MAX)` is 1,919), so the conversion never fails.
fn bucket_slot(value: u64) -> usize {
    usize::try_from(bucket_index(value)).unwrap_or(usize::MAX)
}

/// The smallest value mapping to bucket `index` — the representative the
/// histogram reports for every sample in the bucket (quantiles are
/// therefore lower bounds, never interpolated floats).
pub fn bucket_floor(index: u64) -> u64 {
    if index < SUB_BUCKETS {
        return index;
    }
    let octave = index / SUB_BUCKETS - 1;
    let sub = index % SUB_BUCKETS;
    // Max shift is 58 (msb 63), so `(SUB_BUCKETS + sub) << octave` cannot
    // exceed 2^64 - 2^58: no overflow for any reachable index.
    (SUB_BUCKETS + sub) << octave
}

/// A mergeable distribution of `u64` samples (virtual-time microseconds,
/// byte counts, ...).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Histogram {
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    /// Sample count per bucket index. The vector grows only to hold a
    /// non-zero bucket, so its last entry is never zero and two
    /// histograms with the same counts have the same vector.
    buckets: Vec<u64>,
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Record one sample.
    pub fn observe(&mut self, value: u64) {
        if self.count == 0 || value < self.min {
            self.min = value;
        }
        if value > self.max {
            self.max = value;
        }
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        let index = bucket_slot(value);
        if index >= self.buckets.len() {
            self.buckets.resize(index + 1, 0);
        }
        self.buckets[index] += 1;
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest sample (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Fold another histogram into this one. Bucket-count addition:
    /// associative, commutative, and lossless with respect to the bucket
    /// resolution, so any absorb order yields the same result.
    pub fn merge(&mut self, other: &Histogram) {
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
        if other.buckets.len() > self.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (mine, &theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
    }

    /// The quantile at `permille` (500 = median, 990 = p99), reported as
    /// the floor of the bucket holding the rank-`⌊q·(n-1)⌋` sample.
    /// Integer arithmetic only, so the estimate is bit-stable across
    /// platforms; it is within one bucket (≤ ~3.1% relative) of exact.
    pub fn quantile(&self, permille: u64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = permille.min(1000).saturating_mul(self.count - 1) / 1000;
        let mut seen = 0u64;
        let mut last = 0u64;
        for (index, &n) in (0u64..).zip(&self.buckets) {
            seen += n;
            if seen > rank {
                return bucket_floor(index);
            }
            last = index;
        }
        bucket_floor(last)
    }

    /// Sparse `(bucket floor, count)` pairs in ascending value order.
    pub fn bucket_counts(&self) -> Vec<(u64, u64)> {
        (0u64..)
            .zip(&self.buckets)
            .filter(|&(_, &n)| n > 0)
            .map(|(index, &n)| (bucket_floor(index), n))
            .collect()
    }
}

/// The integer-only exported form of one histogram — everything a report
/// needs, nothing that could differ across platforms.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct HistogramSnapshot {
    /// Samples recorded.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Smallest sample.
    pub min: u64,
    /// Largest sample.
    pub max: u64,
    /// Median (bucket floor).
    pub p50: u64,
    /// 90th percentile (bucket floor).
    pub p90: u64,
    /// 99th percentile (bucket floor).
    pub p99: u64,
    /// Sparse `(bucket floor, count)` pairs, ascending.
    pub buckets: Vec<(u64, u64)>,
}

impl HistogramSnapshot {
    /// Snapshot a live histogram.
    pub fn of(h: &Histogram) -> HistogramSnapshot {
        HistogramSnapshot {
            count: h.count(),
            sum: h.sum(),
            min: h.min(),
            max: h.max(),
            p50: h.quantile(500),
            p90: h.quantile(900),
            p99: h.quantile(990),
            buckets: h.bucket_counts(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        for v in 0..SUB_BUCKETS {
            assert_eq!(bucket_index(v), v);
            assert_eq!(bucket_floor(v), v);
        }
    }

    #[test]
    fn floor_is_a_fixed_point_of_index() {
        for v in [
            0u64,
            1,
            31,
            32,
            33,
            63,
            64,
            65,
            1000,
            123_456,
            u64::MAX / 2,
            u64::MAX,
        ] {
            let i = bucket_index(v);
            let floor = bucket_floor(i);
            assert!(floor <= v, "floor({i}) = {floor} > {v}");
            assert_eq!(bucket_index(floor), i, "v={v}");
        }
    }

    #[test]
    fn quantiles_track_the_distribution() {
        let mut h = Histogram::new();
        for v in 1..=1000u64 {
            h.observe(v);
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 1000);
        let p50 = h.quantile(500);
        // Within one bucket (~3.1%) of the exact median.
        assert!((480..=500).contains(&p50), "p50 = {p50}");
        assert!(h.quantile(990) > h.quantile(500));
        assert_eq!(h.quantile(0), bucket_floor(bucket_index(1)));
    }

    #[test]
    fn merge_equals_union() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut all = Histogram::new();
        for v in [3u64, 700, 41, 0, 9_999_999] {
            a.observe(v);
            all.observe(v);
        }
        for v in [5u64, 5, 123_456] {
            b.observe(v);
            all.observe(v);
        }
        a.merge(&b);
        assert_eq!(a, all);
    }
}
