//! Property-based tests: the shapers must conserve real traffic, keep
//! their documented cost profile (who pays latency, who pays bandwidth)
//! and stay bit-deterministic; the classifier's distance must behave
//! like an edit distance on every input, and its pruned search must
//! agree exactly with the unpruned DP and all-pairs ranking it replaced.

use dnswire::PaddingPolicy;
use doe_privacy::classifier::{knn_classify, sequence_distance, LabeledTrace};
use doe_privacy::shaper::shape_sequence;
use doe_privacy::{MessageSequence, SeqMessage};
use doe_protocols::TapDirection;
use proptest::prelude::*;

const CELL: usize = 128;
/// One framed cell on the wire (cell payload + 2-byte length prefix).
const CELL_WIRE: u64 = CELL as u64 + 2;

fn arb_message() -> impl Strategy<Value = SeqMessage> {
    (0u64..50_000, any::<bool>(), 1u32..2_000).prop_map(|(gap_us, up, size)| SeqMessage {
        gap_us,
        dir: if up {
            TapDirection::Up
        } else {
            TapDirection::Down
        },
        size,
    })
}

fn arb_sequence() -> impl Strategy<Value = MessageSequence> {
    proptest::collection::vec(arb_message(), 0..20)
        .prop_map(|messages| MessageSequence { messages })
}

fn arb_symbols() -> impl Strategy<Value = Vec<u16>> {
    proptest::collection::vec(0u16..64, 0..24)
}

/// The classifier's distance before pruning, verbatim: the full OSA
/// table over three rolling rows.
fn reference_distance(a: &[u16], b: &[u16]) -> u32 {
    let (n, m) = (a.len(), b.len());
    if n == 0 {
        return m as u32;
    }
    if m == 0 {
        return n as u32;
    }
    // Three rolling rows: i-2, i-1, i.
    let mut prev2 = vec![0u32; m + 1];
    let mut prev = (0..=m as u32).collect::<Vec<_>>();
    let mut cur = vec![0u32; m + 1];
    for i in 1..=n {
        cur[0] = i as u32;
        for j in 1..=m {
            let sub = if a[i - 1] == b[j - 1] { 0 } else { 1 };
            let mut d = (prev[j] + 1).min(cur[j - 1] + 1).min(prev[j - 1] + sub);
            if i > 1 && j > 1 && a[i - 1] == b[j - 2] && a[i - 2] == b[j - 1] {
                d = d.min(prev2[j - 2] + 1);
            }
            cur[j] = d;
        }
        std::mem::swap(&mut prev2, &mut prev);
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[m]
}

/// The classifier before pruning, verbatim: every distance, one full
/// sort, then the vote.
fn reference_knn(train: &[LabeledTrace], sample: &[u16], k: usize) -> Option<u32> {
    if train.is_empty() || k == 0 {
        return None;
    }
    let mut ranked: Vec<(u32, u32, usize)> = train
        .iter()
        .enumerate()
        .map(|(idx, t)| (reference_distance(&t.symbols, sample), t.domain, idx))
        .collect();
    ranked.sort_unstable();
    ranked.truncate(k);
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

/// `(U D)^t`: `t` constant-rate ticks, one upstream and one downstream
/// cell each.
fn up_down(t: usize) -> Vec<u16> {
    [0x8000 | 9, 9].repeat(t)
}

/// One edit applied at `pos` (taken modulo the length): 0 inserts `sym`,
/// 1 deletes, 2 substitutes `sym`, 3 transposes two neighbours.
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

/// A string over a 2- or 3-symbol alphabet, so that transpositions and
/// distance ties are common.
fn arb_small_alphabet(max_len: usize) -> impl Strategy<Value = Vec<u16>> {
    (2u16..4, proptest::collection::vec(0u16..3, 0..max_len))
        .prop_map(|(alphabet, s)| s.into_iter().map(|x| x % alphabet).collect())
}

/// Unrelated strings, near-identical strings, and long `(U D)^t` runs
/// with a few edits.
fn arb_pair() -> impl Strategy<Value = (Vec<u16>, Vec<u16>)> {
    let unrelated = (arb_small_alphabet(24), arb_small_alphabet(24));
    let near = (arb_small_alphabet(40), arb_edits())
        .prop_map(|(a, edits)| (a.clone(), apply_edits(a, &edits)));
    let runs = (0usize..100, 0usize..100, arb_edits())
        .prop_map(|(s, t, edits)| (up_down(s), apply_edits(up_down(t), &edits)));
    prop_oneof![unrelated, near, runs]
}

/// A training set with repeated symbol strings under other domains,
/// and query samples: fresh strings and edited copies of training
/// traces. Strings may be empty.
#[allow(clippy::type_complexity)]
fn arb_knn_case() -> impl Strategy<Value = (Vec<LabeledTrace>, Vec<Vec<u16>>)> {
    let trace = prop_oneof![
        arb_small_alphabet(16),
        (0usize..12, arb_edits()).prop_map(|(t, edits)| apply_edits(up_down(t), &edits)),
    ];
    let sample = (
        any::<bool>(),
        any::<usize>(),
        arb_small_alphabet(16),
        arb_edits(),
    );
    (
        proptest::collection::vec((0u32..4, trace), 0..10),
        proptest::collection::vec((any::<usize>(), 0u32..4), 0..4),
        proptest::collection::vec(sample, 1..8),
    )
        .prop_map(|(traces, repeats, samples)| {
            let mut train: Vec<LabeledTrace> = traces
                .into_iter()
                .map(|(domain, symbols)| LabeledTrace { domain, symbols })
                .collect();
            for (pick, domain) in repeats {
                if !train.is_empty() {
                    let symbols = train[pick % train.len()].symbols.clone();
                    train.push(LabeledTrace { domain, symbols });
                }
            }
            let samples = samples
                .into_iter()
                .map(|(copy, pick, fresh, edits)| match (copy, train.len()) {
                    (true, len) if len > 0 => {
                        apply_edits(train[pick % len].symbols.clone(), &edits)
                    }
                    _ => fresh,
                })
                .collect();
            (train, samples)
        })
}

proptest! {
    /// Policies without a shaping component pass every sequence through
    /// untouched, at zero cost.
    #[test]
    fn pure_padding_policies_are_pass_through(input in arb_sequence(), seed in any::<u64>()) {
        for policy in [
            PaddingPolicy::None,
            PaddingPolicy::rfc8467(),
            PaddingPolicy::RandomBlock { query_block: 128, response_block: 468, max_extra: 3 },
        ] {
            let out = shape_sequence(policy, &input, seed);
            prop_assert_eq!(&out.seq, &input);
            prop_assert_eq!(out.dummy_cells, 0);
            prop_assert_eq!(out.latency_added_us, 0);
        }
    }

    /// Constant-rate output is nothing but uniform framed cells, one per
    /// direction per tick, with the tick count quantized — and every
    /// real cell accounted for.
    #[test]
    fn constant_rate_emits_only_uniform_quantized_cells(input in arb_sequence()) {
        let policy = PaddingPolicy::ConstantRate { interval_us: 2_000, cell: CELL };
        let out = shape_sequence(policy, &input, 0);
        if input.is_empty() {
            prop_assert!(out.seq.is_empty());
            return Ok(());
        }
        prop_assert!(out.seq.messages.iter().all(|m| u64::from(m.size) == CELL_WIRE));
        let ups = out.seq.messages.iter().filter(|m| m.dir == TapDirection::Up).count() as u64;
        let downs = out.seq.messages.len() as u64 - ups;
        prop_assert_eq!(ups, downs);
        // Ticks are rounded up to the shaper's TICK_QUANTUM (4), so flow
        // length leaks only in coarse steps.
        prop_assert_eq!(ups % 4, 0);
        // Conservation: total cells minus dummies is exactly the cells
        // the real messages fragment into.
        let real_cells: u64 = input
            .messages
            .iter()
            .map(|m| u64::from(m.size.div_ceil(CELL as u32).max(1)))
            .sum();
        prop_assert_eq!(ups + downs - out.dummy_cells, real_cells);
    }

    /// The constant-rate shaper has no random component: the seed must
    /// never influence its output.
    #[test]
    fn constant_rate_ignores_the_seed(input in arb_sequence(), s1 in any::<u64>(), s2 in any::<u64>()) {
        let policy = PaddingPolicy::ConstantRate { interval_us: 2_000, cell: CELL };
        prop_assert_eq!(
            shape_sequence(policy, &input, s1),
            shape_sequence(policy, &input, s2)
        );
    }

    /// Adaptive padding never delays real traffic; its entire cost is
    /// the dummy cells, which the output carries one-for-one on top of
    /// the input's messages and bytes.
    #[test]
    fn adaptive_padding_adds_exactly_its_dummies(input in arb_sequence(), seed in any::<u64>()) {
        let policy = PaddingPolicy::AdaptivePadding { burst_gap_us: 4_000, cell: CELL };
        let out = shape_sequence(policy, &input, seed);
        prop_assert_eq!(out.latency_added_us, 0);
        prop_assert_eq!(
            out.seq.len() as u64,
            input.len() as u64 + out.dummy_cells
        );
        prop_assert_eq!(
            out.seq.wire_bytes(),
            input.wire_bytes() + out.dummy_cells * CELL_WIRE
        );
        // Same flow, same seed → the identical dummy schedule.
        prop_assert_eq!(out, shape_sequence(policy, &input, seed));
    }

    /// The OSA edit distance is a sane metric-like function: zero on
    /// equal strings, symmetric, and bounded by the usual edit-distance
    /// envelope `|n - m| ≤ d ≤ max(n, m)`.
    #[test]
    fn sequence_distance_envelope(a in arb_symbols(), b in arb_symbols()) {
        prop_assert_eq!(sequence_distance(&a, &a), 0);
        let d = sequence_distance(&a, &b);
        prop_assert_eq!(d, sequence_distance(&b, &a));
        let (n, m) = (a.len() as u32, b.len() as u32);
        prop_assert!(d >= n.abs_diff(m));
        prop_assert!(d <= n.max(m));
    }

    /// k-NN always answers from the training label set (never invents a
    /// domain), and an exact training match with k = 1 recalls its label.
    #[test]
    fn knn_answers_from_training_labels(
        traces in proptest::collection::vec((0u32..8, arb_symbols()), 1..12),
        sample in arb_symbols(),
        k in 1usize..5,
    ) {
        let train: Vec<LabeledTrace> = traces
            .into_iter()
            .map(|(domain, symbols)| LabeledTrace { domain, symbols })
            .collect();
        let verdict = knn_classify(&train, &sample, k).expect("non-empty training set");
        prop_assert!(train.iter().any(|t| t.domain == verdict));
        let exact = knn_classify(&train, &train[0].symbols, 1).expect("non-empty");
        let zero_dist: Vec<u32> = train
            .iter()
            .filter(|t| t.symbols == train[0].symbols)
            .map(|t| t.domain)
            .collect();
        prop_assert!(zero_dist.contains(&exact));
    }

    /// The pruned kernel with no bound is the unpruned DP.
    #[test]
    fn sequence_distance_matches_reference(
        pairs in proptest::collection::vec(arb_pair(), 1..16),
    ) {
        for (a, b) in &pairs {
            prop_assert_eq!(sequence_distance(a, b), reference_distance(a, b));
            prop_assert_eq!(sequence_distance(b, a), reference_distance(b, a));
        }
    }

    /// The pruned search votes exactly like the all-pairs ranking, also
    /// when k exceeds the training set and on exact duplicates that only
    /// the (domain, index) tie-break orders.
    #[test]
    fn knn_matches_reference((train, samples) in arb_knn_case()) {
        for sample in &samples {
            for k in 0..=6 {
                prop_assert_eq!(
                    knn_classify(&train, sample, k),
                    reference_knn(&train, sample, k),
                    "k = {}, sample {:?}, train {:?}", k, sample, train
                );
            }
        }
    }
}
