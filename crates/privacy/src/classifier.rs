//! The adversary: a k-nearest-neighbour sequence classifier.
//!
//! Distance is the Damerau–Levenshtein (optimal string alignment)
//! distance over the direction/size symbol strings of
//! [`MessageSequence::symbols`](crate::MessageSequence::symbols) — the
//! classifier family the FOCI '20 DoH-fingerprinting work found most
//! effective on short DNS flows. Everything here is integer arithmetic
//! with total, explicit tie-breaks, so a seeded evaluation is
//! bit-reproducible.

/// A training trace: the symbol string of one observed flow plus the
/// ground-truth domain index it belongs to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LabeledTrace {
    /// Closed-world domain index.
    pub domain: u32,
    /// Symbol string (see `MessageSequence::symbols`).
    pub symbols: Vec<u16>,
}

/// Damerau–Levenshtein distance (optimal string alignment variant:
/// insert, delete, substitute, transpose-adjacent, all cost 1) between
/// two symbol strings.
pub fn sequence_distance(a: &[u16], b: &[u16]) -> u32 {
    // With no bound the band spans the whole table, no cell is clamped
    // and no row is abandoned.
    Rows::default()
        .distance_within(a, b, u32::MAX)
        .expect("an unbounded distance is never over")
}

/// Three rolling rows of the OSA table (i−2, i−1, i), reused across one
/// query's comparisons.
#[derive(Debug, Default)]
struct Rows {
    prev2: Vec<u32>,
    prev: Vec<u32>,
    cur: Vec<u32>,
}

impl Rows {
    /// The OSA distance between `a` and `b` if it is at most `bound`,
    /// `None` ("over") otherwise.
    ///
    /// Exact within the bound. Cell `(i, j)` is at least `|i − j|`, so
    /// only the band `|i − j| ≤ bound` is computed; every cell outside it
    /// reads as `bound + 1`. Clamping every cell at `bound + 1` changes
    /// no value at or below the bound, because the recurrence only adds.
    /// Once two consecutive rows exceed the bound, so does every later
    /// cell: each is reached from one of the previous two rows (the
    /// transposition reads two rows back) at no lower cost.
    fn distance_within(&mut self, a: &[u16], b: &[u16], bound: u32) -> Option<u32> {
        let (n, m) = (a.len(), b.len());
        // No cell exceeds max(n, m), so a larger bound changes nothing
        // and `over` cannot overflow.
        let bound = bound.min(n.max(m) as u32);
        let over = bound + 1;
        let band = bound as usize;
        if n.abs_diff(m) > band {
            return None;
        }
        if n == 0 || m == 0 {
            return Some(n.max(m) as u32);
        }
        let Rows { prev2, prev, cur } = self;
        for row in [&mut *prev2, &mut *prev, &mut *cur] {
            row.clear();
            row.resize(m + 1, over);
        }
        for (j, cell) in prev.iter_mut().enumerate().take(band.min(m) + 1) {
            *cell = j as u32;
        }
        let mut prev_min = 0;
        for i in 1..=n {
            let lo = i.saturating_sub(band).max(1);
            let hi = (i + band).min(m);
            // The cell left of the band may still hold a value from three
            // rows up; the recurrence must read it as out of band.
            cur[0] = (i as u32).min(over);
            if lo > 1 {
                cur[lo - 1] = over;
            }
            let mut row_min = cur[0];
            for j in lo..=hi {
                let sub = u32::from(a[i - 1] != b[j - 1]);
                let mut d = (prev[j] + 1).min(cur[j - 1] + 1).min(prev[j - 1] + sub);
                if i > 1 && j > 1 && a[i - 1] == b[j - 2] && a[i - 2] == b[j - 1] {
                    d = d.min(prev2[j - 2] + 1);
                }
                let d = d.min(over);
                cur[j] = d;
                row_min = row_min.min(d);
            }
            if row_min > bound && prev_min > bound {
                return None;
            }
            prev_min = row_min;
            std::mem::swap(prev2, prev);
            std::mem::swap(prev, cur);
        }
        Some(prev[m]).filter(|&d| d <= bound)
    }
}

/// Classify one sample against a training set with k-NN majority vote.
///
/// Determinism contract: neighbours are ranked by
/// `(distance, domain, training index)` — a total order — and vote ties
/// are broken by (smaller summed distance, smaller domain index). The
/// result depends only on the inputs, never on sort stability or
/// iteration order.
///
/// The search is exact but pruned. Training traces are visited nearest
/// length first; each distance is bounded by the current k-th distance
/// (inclusively, as a tie can still win on domain and index), and the
/// walk stops once the length gap alone, a lower bound on the distance,
/// exceeds it. The k nearest are therefore exactly those of a full
/// ranking.
pub fn knn_classify(train: &[LabeledTrace], sample: &[u16], k: usize) -> Option<u32> {
    if train.is_empty() || k == 0 {
        return None;
    }
    let mut order: Vec<(usize, usize)> = train
        .iter()
        .enumerate()
        .map(|(idx, t)| (t.symbols.len().abs_diff(sample.len()), idx))
        .collect();
    order.sort_unstable();
    let mut rows = Rows::default();
    // The nearest so far, ascending by (distance, domain, index).
    let mut ranked: Vec<(u32, u32, usize)> = Vec::with_capacity(k + 1);
    for (gap, idx) in order {
        let t = &train[idx];
        let dist = if ranked.len() < k {
            // No bound yet: grow the band from the length gap until it
            // holds the distance, so even these comparisons stay banded.
            let mut band = gap.max(1) as u32;
            loop {
                if let Some(d) = rows.distance_within(&t.symbols, sample, band) {
                    break d;
                }
                band = band.saturating_mul(2);
            }
        } else {
            let kth = ranked[k - 1].0;
            if gap > kth as usize {
                break;
            }
            match rows.distance_within(&t.symbols, sample, kth) {
                Some(d) => d,
                None => continue,
            }
        };
        let entry = (dist, t.domain, idx);
        let at = ranked.partition_point(|e| *e < entry);
        if at < k {
            ranked.insert(at, entry);
            ranked.truncate(k);
        }
    }
    // Tally votes over the k nearest: (count desc, summed distance asc,
    // domain asc). Domains are small dense indices, so a sorted Vec
    // keyed by domain keeps this hash-free.
    let mut tally: Vec<(u32, u32, u64)> = Vec::with_capacity(k); // (domain, votes, dist_sum)
    for &(dist, domain, _) in &ranked {
        match tally.iter_mut().find(|t| t.0 == domain) {
            Some(t) => {
                t.1 += 1;
                t.2 += u64::from(dist);
            }
            None => tally.push((domain, 1, u64::from(dist))),
        }
    }
    tally
        .into_iter()
        .min_by_key(|&(domain, votes, dist_sum)| (std::cmp::Reverse(votes), dist_sum, domain))
        .map(|(domain, _, _)| domain)
}

/// Closed-world evaluation: classify every test trace, return
/// `(correct, total)`.
pub fn evaluate_closed_world(
    train: &[LabeledTrace],
    test: &[LabeledTrace],
    k: usize,
) -> (u64, u64) {
    let mut correct = 0u64;
    for t in test {
        if knn_classify(train, &t.symbols, k) == Some(t.domain) {
            correct += 1;
        }
    }
    (correct, test.len() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const U: u16 = 0x8000 | 9;
    const D: u16 = 9;

    fn up_down(t: usize) -> Vec<u16> {
        [U, D].repeat(t)
    }

    /// One edit applied at `pos` (taken modulo the length): 0 inserts
    /// `sym`, 1 deletes, 2 substitutes `sym`, 3 transposes two neighbours.
    fn apply_edits(mut s: Vec<u16>, edits: &[(u8, usize, u16)]) -> Vec<u16> {
        for &(op, pos, sym) in edits {
            let len = s.len();
            match op {
                0 => s.insert(pos % (len + 1), sym),
                1 if len > 0 => {
                    s.remove(pos % len);
                }
                2 if len > 0 => s[pos % len] = sym,
                3 if len > 1 => s.swap(pos % (len - 1), pos % (len - 1) + 1),
                _ => {}
            }
        }
        s
    }

    fn arb_edits() -> impl Strategy<Value = Vec<(u8, usize, u16)>> {
        proptest::collection::vec((0u8..4, any::<usize>(), 0u16..3), 0..5)
    }

    /// Pairs over a 2- or 3-symbol alphabet, so transpositions and ties
    /// are common: unrelated strings, near-identical strings, and long
    /// `(a b)^t` runs with a few edits.
    fn arb_pair() -> impl Strategy<Value = (Vec<u16>, Vec<u16>)> {
        let unrelated = (
            2u16..4,
            proptest::collection::vec(0u16..3, 0..24),
            proptest::collection::vec(0u16..3, 0..24),
        )
            .prop_map(|(alphabet, a, b)| {
                let fold = |s: Vec<u16>| s.into_iter().map(|x| x % alphabet).collect();
                (fold(a), fold(b))
            });
        let near = (proptest::collection::vec(0u16..3, 0..40), arb_edits())
            .prop_map(|(a, edits)| (a.clone(), apply_edits(a, &edits)));
        let runs = (0usize..48, 0usize..48, arb_edits())
            .prop_map(|(s, t, edits)| (up_down(s), apply_edits(up_down(t), &edits)));
        prop_oneof![unrelated, near, runs]
    }

    proptest! {
        /// The bounded kernel is exact up to its bound and "over" past
        /// it, for every bound, with rows reused across calls. The full
        /// distance is the kernel with no bound, which the property
        /// tests pin to the unpruned DP.
        #[test]
        fn distance_within_is_exact_up_to_the_bound((a, b) in arb_pair()) {
            let full = sequence_distance(&a, &b);
            let mut rows = Rows::default();
            let last = a.len().max(b.len()) as u32 + 1;
            for bound in (0..=last).chain([u32::MAX]) {
                let want = Some(full).filter(|&d| d <= bound);
                prop_assert_eq!(rows.distance_within(&a, &b, bound), want);
                prop_assert_eq!(rows.distance_within(&b, &a, bound), want);
            }
        }
    }

    #[test]
    fn alternating_cells_are_twice_the_tick_difference() {
        for s in 0..12usize {
            for t in 0..12usize {
                let want = 2 * s.abs_diff(t) as u32;
                assert_eq!(
                    sequence_distance(&up_down(s), &up_down(t)),
                    want,
                    "{s} vs {t}"
                );
            }
        }
    }

    #[test]
    fn bound_at_the_distance_is_inclusive() {
        let mut rows = Rows::default();
        let (a, b) = ([1u16, 2, 3, 4, 5, 6], [2u16, 1, 3, 9, 5]);
        let d = sequence_distance(&a, &b);
        assert_eq!(d, 3); // one transposition, one substitution, one deletion
        assert_eq!(rows.distance_within(&a, &b, d), Some(d));
        assert_eq!(rows.distance_within(&a, &b, d - 1), None);
        let (u, v) = (up_down(20), up_down(23));
        assert_eq!(rows.distance_within(&u, &v, 6), Some(6));
        assert_eq!(rows.distance_within(&u, &v, 5), None);
    }

    #[test]
    fn distance_basics() {
        assert_eq!(sequence_distance(&[], &[]), 0);
        assert_eq!(sequence_distance(&[1, 2, 3], &[1, 2, 3]), 0);
        assert_eq!(sequence_distance(&[1, 2, 3], &[]), 3);
        assert_eq!(sequence_distance(&[1, 2, 3], &[1, 3, 3]), 1); // substitution
        assert_eq!(sequence_distance(&[1, 2, 3], &[1, 3, 2]), 1); // transposition
        assert_eq!(sequence_distance(&[1, 2], &[1, 2, 9, 9]), 2); // insertions
    }

    #[test]
    fn distance_is_symmetric() {
        let a = [5u16, 9, 9, 2, 7];
        let b = [5u16, 9, 2, 7, 7, 1];
        assert_eq!(sequence_distance(&a, &b), sequence_distance(&b, &a));
    }

    #[test]
    fn knn_recovers_clean_clusters() {
        let mut train = Vec::new();
        for rep in 0..3u16 {
            train.push(LabeledTrace {
                domain: 0,
                symbols: vec![10, 20, 10, 20, rep],
            });
            train.push(LabeledTrace {
                domain: 1,
                symbols: vec![90, 80, 90, 80, 90, 80, rep],
            });
        }
        assert_eq!(knn_classify(&train, &[10, 20, 10, 20, 99], 3), Some(0));
        assert_eq!(knn_classify(&train, &[90, 80, 90, 80, 90, 80], 3), Some(1));
    }

    #[test]
    fn ties_break_to_smallest_domain() {
        let train = vec![
            LabeledTrace {
                domain: 7,
                symbols: vec![1, 1],
            },
            LabeledTrace {
                domain: 3,
                symbols: vec![1, 1],
            },
        ];
        // Both neighbours are at distance 0 with one vote each; the
        // smaller domain index must win, deterministically.
        assert_eq!(knn_classify(&train, &[1, 1], 2), Some(3));
    }

    #[test]
    fn empty_inputs_yield_none() {
        assert_eq!(knn_classify(&[], &[1], 3), None);
        let train = vec![LabeledTrace {
            domain: 0,
            symbols: vec![1],
        }];
        assert_eq!(knn_classify(&train, &[1], 0), None);
    }
}
