//! Order statistics over run samples, and the output digest.

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Median of `values` (mean of the middle pair for an even count, like
/// Python's `statistics.median`); 0 for no samples.
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// `(q1, median, q3)` exactly as Python's
/// `statistics.quantiles(values, n=4)` computes them (its default
/// "exclusive" method), so the spreads this crate reports are the ones an
/// external check recomputes from the same samples. One sample is its own
/// quartiles; no samples give zeros.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let s = sorted(values);
    let len = s.len() as i64;
    if len < 2 {
        let v = s.first().copied().unwrap_or(0.0);
        return (v, v, v);
    }
    let m = len + 1;
    let cut = |i: i64| {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Interquartile distance as a share of the median (0 when the median is).
pub fn spread(values: &[f64]) -> f64 {
    let (q1, med, q3) = quartiles(values);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

/// How a metric moved between a base and a new set of runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// At least ten pairs, nine tenths of them won by the new side, and
    /// the medians differ by more than the base's interquartile distance.
    Improved,
    /// The new median is worse than the base median by more than the bound.
    Regressed,
    /// Within the bound, on runs steadier than the bound.
    Unchanged,
    /// Within the bound, but the runs spread wider than the bound.
    Unresolved,
}

impl Verdict {
    /// Lower-case label.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Regressed => "regressed",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge `new` against `base` (runs paired by index) for a metric where
/// `lower_is_better` says which way is good and `bound` is the share of
/// the base median it may worsen by.
pub fn verdict(base: &[f64], new: &[f64], lower_is_better: bool, bound: f64) -> Verdict {
    let sign = if lower_is_better { -1.0 } else { 1.0 };
    let gain = |b: f64, n: f64| sign * (n - b);
    let (b_q1, b_med, b_q3) = quartiles(base);
    let n_med = median(new);
    let pairs = base.len().min(new.len());
    let wins = (0..pairs).filter(|&i| gain(base[i], new[i]) > 0.0).count();
    let worse_share = if b_med == 0.0 {
        0.0
    } else {
        -gain(b_med, n_med) / b_med.abs()
    };
    if pairs >= 10 && wins * 10 >= pairs * 9 && gain(b_med, n_med) > b_q3 - b_q1 {
        Verdict::Improved
    } else if worse_share > bound {
        Verdict::Regressed
    } else if spread(base) > bound || spread(new) > bound {
        Verdict::Unresolved
    } else {
        Verdict::Unchanged
    }
}

/// 64-bit FNV-1a — the digest of one output's bytes.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// [`fnv1a`] as the fixed-width hex string the records store.
pub fn digest_hex(bytes: &[u8]) -> String {
    format!("{:016x}", fnv1a(bytes))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 3.0, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0, 7.0));
    }

    #[test]
    fn quartile_middle_is_the_median() {
        for n in 2..12 {
            let xs: Vec<f64> = (0..n).map(|i| f64::from(i * i % 7)).collect();
            assert_eq!(quartiles(&xs).1, median(&xs), "n = {n}");
        }
    }

    #[test]
    fn spread_is_relative_iqr() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&ten) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(spread(&[0.0, 0.0]), 0.0);
    }

    #[test]
    fn verdicts() {
        let base: Vec<f64> = (0..10).map(|i| 10.0 + 0.01 * f64::from(i)).collect();
        let faster: Vec<f64> = base.iter().map(|b| b * 0.8).collect();
        let slower: Vec<f64> = base.iter().map(|b| b * 1.2).collect();
        let noisy: Vec<f64> = (0..10)
            .map(|i| if i % 2 == 0 { 8.0 } else { 12.0 })
            .collect();
        assert_eq!(verdict(&base, &faster, true, 0.1), Verdict::Improved);
        assert_eq!(verdict(&base, &slower, true, 0.1), Verdict::Regressed);
        assert_eq!(verdict(&base, &base, true, 0.1), Verdict::Unchanged);
        assert_eq!(verdict(&base, &noisy, true, 0.1), Verdict::Unresolved);
        // Higher-is-better flips the direction.
        assert_eq!(verdict(&base, &faster, false, 0.1), Verdict::Regressed);
        assert_eq!(verdict(&base, &slower, false, 0.1), Verdict::Improved);
        // Fewer than ten pairs never claim a gain.
        assert_eq!(
            verdict(&base[..3], &faster[..3], true, 0.1),
            Verdict::Unchanged
        );
    }

    #[test]
    fn fnv1a_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
        assert_eq!(digest_hex(b"a"), "af63dc4c8601ec8c");
    }
}
