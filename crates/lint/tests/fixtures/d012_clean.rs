//! Graph fixture: the hot path only indexes pre-sized storage.
pub struct Hist {
    buckets: [u64; 8],
}

fn bucket_for(v: u64) -> usize {
    (64 - v.leading_zeros() as usize).min(7)
}

pub fn observe(h: &mut Hist, v: u64) {
    h.buckets[bucket_for(v)] += 1;
}
