//! Cross-crate invariant: the containment property `t ∈ A(t)` (Figure 1)
//! holds under every hardware-stamped configuration — the load-bearing
//! guarantee of interval-based clock synchronization.

use nti::core::cluster::{Cluster, ClusterConfig, DriftSpec, GpsNodeCfg};
use nti::core::params::TimestampMode;
use nti::faults::FaultPlan;
use nti::gps::{GpsConfig, GpsFault};
use nti::prelude::*;

fn base(n: usize, seed: u64) -> ClusterConfig {
    let mut cfg = ClusterConfig::default_lan(n, seed);
    cfg.duration = SimDuration::from_secs(20);
    cfg.warmup = SimDuration::from_secs(6);
    cfg
}

#[test]
fn containment_across_seeds() {
    for seed in [1u64, 2, 3, 4, 5] {
        let rep = Cluster::new(base(4, seed)).run();
        assert_eq!(rep.containment.0, 0, "seed {seed}: {rep:?}");
        assert!(rep.containment.1 > 50, "seed {seed}: too few checks");
    }
}

#[test]
fn containment_with_rate_sync() {
    for seed in [10u64, 11, 12] {
        let mut cfg = base(4, seed);
        cfg.rate_sync = true;
        let rep = Cluster::new(cfg).run();
        assert_eq!(rep.containment.0, 0, "seed {seed}");
    }
}

#[test]
fn containment_under_random_walk_oscillators() {
    let mut cfg = base(4, 77);
    cfg.drift = DriftSpec::RandomWalk {
        rho_max_ppm: 10.0,
        sigma_ppb: 100.0,
        interval: SimDuration::from_millis(100),
    };
    let rep = Cluster::new(cfg).run();
    assert_eq!(rep.containment.0, 0, "{rep:?}");
}

#[test]
fn containment_in_interrupt_rx_mode() {
    let mut cfg = base(3, 21);
    cfg.mode = TimestampMode::InterruptRx;
    cfg.f = 0;
    let rep = Cluster::new(cfg).run();
    assert_eq!(rep.containment.0, 0, "{rep:?}");
}

#[test]
fn containment_with_faulty_gps() {
    let mut cfg = base(4, 33);
    cfg.gps = vec![
        GpsNodeCfg {
            node: 0,
            cfg: GpsConfig::default(),
        },
        GpsNodeCfg {
            node: 1,
            cfg: GpsConfig::default(),
        },
    ];
    cfg.fault_plan = FaultPlan::gps(
        1,
        0,
        GpsFault::Offset {
            from: 0,
            until: 1000,
            offset: SimDuration::from_millis(1),
        },
    );
    cfg.fault_plan.merge(&FaultPlan::gps(
        1,
        0,
        GpsFault::Dropout { from: 8, until: 12 },
    ));
    let rep = Cluster::new(cfg).run();
    assert_eq!(rep.containment.0, 0, "{rep:?}");
    assert!(rep.gps.1 > 0, "offset receiver must be rejected");
}

#[test]
fn containment_at_high_fosc() {
    // 20 MHz — the top of the UTCSU's range, smallest G and u.
    let mut cfg = base(3, 55);
    cfg.fosc_hz = 20_000_000;
    cfg.f = 0;
    let rep = Cluster::new(cfg).run();
    assert_eq!(rep.containment.0, 0, "{rep:?}");
}

#[test]
fn accuracy_interval_grows_without_external_source() {
    // Internal-only synchronization cannot bound |C − t| forever: the
    // claimed accuracy must keep covering the (growing) common-mode drift.
    let mut short = base(4, 66);
    short.duration = SimDuration::from_secs(12);
    let mut long = base(4, 66);
    long.duration = SimDuration::from_secs(30);
    let r_short = Cluster::new(short).run();
    let r_long = Cluster::new(long).run();
    assert!(r_long.worst_alpha_s >= r_short.worst_alpha_s);
    assert_eq!(r_long.containment.0, 0);
}

#[test]
fn gps_anchoring_bounds_accuracy() {
    // With f+1 healthy anchors, |C − t| stays bounded near the receiver
    // accuracy instead of growing.
    let mut cfg = base(6, 88);
    cfg.rate_sync = true;
    cfg.duration = SimDuration::from_secs(30);
    cfg.warmup = SimDuration::from_secs(15);
    cfg.gps = vec![
        GpsNodeCfg {
            node: 0,
            cfg: GpsConfig::default(),
        },
        GpsNodeCfg {
            node: 1,
            cfg: GpsConfig::default(),
        },
    ];
    let rep = Cluster::new(cfg).run();
    assert_eq!(rep.containment.0, 0);
    assert!(
        rep.worst_accuracy_s < 20e-6,
        "anchored accuracy should be tens of µs at worst, got {}",
        rep.worst_accuracy_s
    );
}
