//! Graph fixture: the telemetry hot path allocates — a heap round
//! trip per probe destroys the alloc-free ~23 ns budget.
fn label(id: u64) -> String {
    format!("probe-{id}")
}

pub fn observe(id: u64) -> usize {
    label(id).len()
}
