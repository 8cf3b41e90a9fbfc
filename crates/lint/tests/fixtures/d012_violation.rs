//! Graph fixture: the telemetry hot path allocates — a heap round
//! trip per probe destroys the alloc-free per-probe budget.
fn label(id: u64) -> String {
    format!("probe-{id}")
}

pub fn observe(id: u64) -> usize {
    label(id).len()
}
