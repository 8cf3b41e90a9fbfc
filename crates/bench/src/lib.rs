//! # doe-bench — benchmark fixtures
//!
//! Shared fixture builders for the Criterion benches. Nine bench
//! binaries live under `benches/`:
//!
//! * `substrates` — microbenchmarks of the building blocks (DNS codec,
//!   TLS handshake, NetFlow sampling, scan permutation, policy
//!   evaluation),
//! * `dnswire_codec` — owned decode vs the zero-copy view on the sweep's
//!   reply packets, with allocation counts,
//! * `experiments` — one group per paper table/figure, timing the
//!   regeneration harness itself (cheap artefacts end-to-end; measured
//!   artefacts per unit of work on a pre-built world),
//! * `ablations` — the design choices the paper discusses, toggled one
//!   at a time,
//! * `sweep_shards` — wall-clock scaling of the sharded SYN sweep,
//! * `telemetry_overhead` — the same sweep with metrics off and on,
//! * `lint_workspace` — the determinism analyzer over the live
//!   workspace, stage by stage,
//! * `sim_clients` — the event-driven stub fleet at 100K–1M clients,
//! * `padding_policies` — the privacy experiment's shapers and k-NN
//!   adversary.

use worldgen::{World, WorldConfig};

/// A small world for measured benches (2% client scale, first scan date).
pub fn bench_world(seed: u64) -> World {
    World::build(WorldConfig::test_scale(seed))
}

/// A clean (unafflicted) client from the pool.
pub fn clean_client(world: &World) -> worldgen::ClientInfo {
    world
        .proxyrack
        .clients
        .iter()
        .find(|c| c.affliction == worldgen::Affliction::None)
        .expect("clean client")
        .clone()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_build() {
        let world = bench_world(1);
        assert!(world.proxyrack.clients.len() > 100);
        let c = clean_client(&world);
        assert_eq!(c.affliction, worldgen::Affliction::None);
    }
}
