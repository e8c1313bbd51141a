//! Shape sweep: topologies whose containment once failed, each run with
//! rate sync long enough for the failure to show, on seeds 1–3. Every run
//! must hold containment and raise no monitor violation and no CF failure.
//!
//! Before rate sync took the true median of an even count of estimates,
//! its upper-median bias ramped the ensemble's rate away from UTC: at
//! seed 1, `default_lan(9)` failed 7,578 of 21,249 containment checks
//! over 1,200 s, and the other two shapes failed too.
//!
//! The nine 1,200-sim-s runs take seconds in release and minutes in
//! debug, so they run only in release (`scripts/check.sh` runs
//! `cargo test --release --test shapes`).

use nti::core::cluster::{Cluster, ClusterConfig};
use nti::netsim::Topology;
use nti::prelude::*;

/// Simulated length of every run.
const SECS: u64 = 1_200;

/// Run `shape(seed)` with rate sync for [`SECS`], with a warm-up of
/// min(T/3, 20 s), on seeds 1–3, and assert that each run is clean.
fn sweep(name: &str, shape: impl Fn(u64) -> ClusterConfig) {
    for seed in 1..=3 {
        let mut cfg = shape(seed);
        cfg.rate_sync = true;
        cfg.duration = SimDuration::from_secs(SECS);
        cfg.warmup = SimDuration::from_secs((SECS / 3).min(20));
        let rep = Cluster::new(cfg).run();
        assert_eq!(
            (rep.containment.0, rep.monitor_violations, rep.cf_failures),
            (0, 0, 0),
            "{name}, seed {seed}: containment violations (of {} checks), \
             monitor violations and CF failures",
            rep.containment.1
        );
    }
}

/// A multi-segment `topology` with f = 0.
fn segmented(topology: Topology, seed: u64) -> ClusterConfig {
    let mut cfg = ClusterConfig::default_lan(0, seed);
    cfg.topology = topology;
    cfg.f = 0;
    cfg
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release-only: scripts/check.sh")]
fn lan9_with_rate_sync() {
    sweep("default_lan(9)", |seed| ClusterConfig::default_lan(9, seed));
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release-only: scripts/check.sh")]
fn chain_of_lans_2x8_with_rate_sync() {
    sweep("chain_of_lans(2, 8)", |seed| {
        segmented(Topology::chain_of_lans(2, 8), seed)
    });
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release-only: scripts/check.sh")]
fn mesh_tree_5_2_2_with_rate_sync() {
    sweep("mesh_tree(5, 2, 2)", |seed| {
        segmented(Topology::mesh_tree(5, 2, 2), seed)
    });
}
