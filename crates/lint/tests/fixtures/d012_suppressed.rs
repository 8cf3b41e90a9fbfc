//! Graph fixture: the allocation carries a justified pragma.
fn snapshot(buckets: &[u64]) -> Vec<u64> {
    // doe-lint: allow(D012) — fixture: cold slow-path taken once per
    // epoch rollover, never per probe
    buckets.to_vec()
}

pub fn observe(buckets: &[u64]) -> usize {
    snapshot(buckets).len()
}
