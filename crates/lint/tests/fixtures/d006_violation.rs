//! Token fixture: a library type hides shared mutable state behind a
//! lock and an atomic counter.
use std::sync::atomic::AtomicU64;
use std::sync::Mutex;

pub struct Cache {
    entries: Mutex<Vec<u64>>,
    hits: AtomicU64,
}
