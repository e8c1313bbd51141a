//! Fault-tolerant external synchronization with clock validation.
//!
//! Three of eight nodes carry GPS receivers; two are healthy, one develops
//! a 2 ms offset fault (a real failure class from the authors' two-month
//! receiver study \[HS97\]). Interval-based clock validation (Section 2 of
//! the paper) masks the faulty receiver: its external intervals fail to
//! intersect the internal validation interval and are discarded, while the
//! healthy receivers anchor the whole cluster to UTC.
//!
//! Note the fault-tolerance economics: with convergence degree f = 1, a
//! *single* healthy anchor would be trimmed by the fault-tolerant midpoint
//! (it looks like an outlier to everyone else) — f + 1 healthy receivers
//! are needed for guaranteed accuracy propagation. That is precisely the
//! trade the paper's validation scheme optimizes: fewer receivers than
//! "one per node", but more than f.
//!
//! Run with:
//! ```text
//! cargo run --release --example gps_validation
//! ```

use nti::core::cluster::{Cluster, ClusterConfig, GpsNodeCfg};
use nti::faults::FaultPlan;
use nti::gps::{GpsConfig, GpsFault};
use nti::prelude::*;

fn main() {
    let mut cfg = ClusterConfig::default_lan(8, 7);
    cfg.rate_sync = true;
    cfg.duration = SimDuration::from_secs(60);
    cfg.warmup = SimDuration::from_secs(20);
    cfg.gps = vec![
        // Healthy receivers on nodes 0 and 1 (f + 1 = 2 anchors).
        GpsNodeCfg {
            node: 0,
            cfg: GpsConfig::default(),
        },
        GpsNodeCfg {
            node: 1,
            cfg: GpsConfig::default(),
        },
        GpsNodeCfg {
            node: 2,
            cfg: GpsConfig::default(),
        },
    ];
    // Node 2's receiver develops a 2 ms offset from second 10 on.
    cfg.fault_plan = FaultPlan::gps(
        2,
        0,
        GpsFault::Offset {
            from: 10,
            until: u64::MAX,
            offset: SimDuration::from_millis(2),
        },
    );

    println!("== external synchronization: 8 nodes, 3 GPS receivers (1 faulty) ==");
    let report = Cluster::new(cfg).run();

    println!();
    println!(
        "GPS intervals accepted / rejected by validation : {} / {}",
        report.gps.0, report.gps.1
    );
    println!(
        "precision : {:8.3} us    accuracy vs UTC : {:8.3} us",
        report.worst_precision_s * 1e6,
        report.worst_accuracy_s * 1e6
    );
    println!(
        "claimed accuracy bound (mean) : {:8.3} us",
        report.mean_alpha_s * 1e6
    );
    println!(
        "containment : {} violations in {} checks",
        report.containment.0, report.containment.1
    );

    assert_eq!(
        report.containment.0, 0,
        "validation must protect containment"
    );
    assert!(report.gps.1 > 0, "the faulty receivers must get rejections");
    println!();
    println!("ok: faulty receivers masked, cluster stays anchored to UTC.");
}
