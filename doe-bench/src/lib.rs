//! # doe-benchmark — end-to-end and per-layer benchmark of the reproduction
//!
//! The `doe-bench` binary times the work users of this reproduction wait
//! on — the §3 port-853 scan with DoT verification, the §4 vantage
//! reachability and latency study, the event-driven stub fleet and the
//! §5/padding-leakage analytics — as four workloads, checks that every
//! batch regenerates byte-identical outputs, and breaks the time down by
//! layer in a separate traced run. See `README.md` for the workloads,
//! metrics and bounds.
//!
//! The harness drives the library only through stable entry points:
//! [`doe_core::Study`] and its cached stage methods, `experiments::run`,
//! the sharded scan runners, `Registry::snapshot`, the dnswire codec and
//! `doe_privacy::sequence_distance`.
//!
//! * [`workload`] — configurations, experiment steps, batches and shape
//!   checks,
//! * [`layers`] — the per-layer metrics of a traced run,
//! * [`trace`] — the in-memory span recorder,
//! * [`stats`] — medians, quartiles and output digests,
//! * [`procfs`] — CPU time and resident-set readings.

pub mod layers;
pub mod procfs;
pub mod stats;
pub mod trace;
pub mod workload;
