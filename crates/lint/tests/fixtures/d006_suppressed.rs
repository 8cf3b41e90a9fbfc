//! Token fixture: the interior mutability carries a justified pragma.
pub struct Config {
    // doe-lint: allow(D006) — fixture: written once, before the value is shared
    value: std::sync::OnceLock<u64>,
}
