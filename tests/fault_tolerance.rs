//! Fault-tolerance scenarios across the full stack: Byzantine nodes,
//! CRC-corrupted CSPs (footnote 4), node crash + reintegration, injected
//! network faults, and the WAN-of-LANs extension (footnote 2).

use nti::core::cluster::{Cluster, ClusterConfig, Report};
use nti::faults::{Direction, FaultEpisode, FaultKind, FaultPlan, FaultTarget};
use nti::netsim::Topology;
use nti::prelude::*;
use nti::simcore::SimTime;

fn base(n: usize, seed: u64) -> ClusterConfig {
    let mut cfg = ClusterConfig::default_lan(n, seed);
    cfg.duration = SimDuration::from_secs(20);
    cfg.warmup = SimDuration::from_secs(8);
    cfg
}

#[test]
fn byzantine_node_is_masked_with_f1() {
    let mut cfg = base(5, 13);
    cfg.f = 1;
    cfg.fault_plan = FaultPlan::byzantine(&[4]);
    let rep = Cluster::new(cfg).run();
    // The four honest nodes keep tight precision: the Byzantine stamps
    // (off by 0.1..0.9 s!) must not drag the ensemble.
    assert!(
        rep.worst_precision_s < 1e-3,
        "Byzantine node leaked into the ensemble: {}",
        rep.worst_precision_s
    );
    assert_eq!(rep.containment.0, 0, "{rep:?}");
}

#[test]
fn byzantine_beyond_f_breaks_precision() {
    // Negative control: two Byzantine nodes with f = 1 must visibly hurt.
    let run = |byz: &[usize]| {
        let mut cfg = base(5, 14);
        cfg.f = 1;
        cfg.fault_plan = FaultPlan::byzantine(byz);
        Cluster::new(cfg).run().worst_precision_s
    };
    let ok = run(&[4]);
    let broken = run(&[3, 4]);
    assert!(
        broken > ok * 10.0,
        "2 liars with f=1 should break things: {ok} vs {broken}"
    );
}

#[test]
fn crc_corrupted_csps_are_dropped_without_misattribution() {
    let mut cfg = base(4, 15);
    cfg.fault_plan = FaultPlan::crc_errors(0.2);
    let rep = Cluster::new(cfg).run();
    assert!(
        rep.csps.2 > 5,
        "corrupted frames must be dropped: {:?}",
        rep.csps
    );
    // Losing 20% of CSPs must not break synchronization or attribution of
    // the surviving stamps.
    assert!(
        rep.worst_precision_s < 50e-6,
        "precision {}",
        rep.worst_precision_s
    );
    assert_eq!(rep.containment.0, 0);
}

#[test]
fn wan_of_lans_three_segments() {
    // Footnote 2: WANs-of-LANs work when gateways carry NTIs too. Three
    // segments, two gateways (each using a second SSU for its second LAN).
    let mut cfg = base(0, 16);
    cfg.topology = Topology::chain_of_lans(3, 2);
    cfg.f = 0;
    cfg.rate_sync = true;
    cfg.duration = SimDuration::from_secs(30);
    cfg.warmup = SimDuration::from_secs(12);
    let rep = Cluster::new(cfg).run();
    assert!(
        rep.csps.1 > 50,
        "CSPs must flow on all segments: {:?}",
        rep.csps
    );
    assert!(
        rep.worst_precision_s < 30e-6,
        "three-segment precision {}",
        rep.worst_precision_s
    );
    assert_eq!(rep.containment.0, 0);
}

#[test]
fn crashed_node_reintegrates_within_three_rounds() {
    // The ISSUE's flagship scenario: six nodes, one crashes at 10 s and
    // restarts cold at 14 s. The survivors must never violate containment,
    // and the restarted node must reintegrate (α back below 10× its
    // steady-state) within three convergence rounds of rejoining.
    let mut cfg = base(6, 21);
    cfg.f = 1;
    cfg.duration = SimDuration::from_secs(26);
    cfg.warmup = SimDuration::from_secs(6);
    cfg.fault_plan = FaultPlan::crash(2, SimTime::from_secs(10), Some(SimTime::from_secs(14)));
    let rep = Cluster::new(cfg).run();
    assert_eq!(rep.churn, (1, 1), "one crash, one rejoin: {rep:?}");
    assert_eq!(rep.containment.0, 0, "survivor containment: {rep:?}");
    assert!(
        (1..=3).contains(&rep.rejoin_recovery_rounds),
        "rejoin α recovery took {} rounds: {rep:?}",
        rep.rejoin_recovery_rounds
    );
    assert!(
        rep.worst_precision_s < 50e-6,
        "ensemble precision with churn: {}",
        rep.worst_precision_s
    );
}

#[test]
fn node_that_never_restarts_degrades_to_survivors() {
    let mut cfg = base(5, 22);
    cfg.f = 1;
    cfg.fault_plan = FaultPlan::crash(4, SimTime::from_secs(9), None);
    let rep = Cluster::new(cfg).run();
    assert_eq!(rep.churn, (1, 0), "{rep:?}");
    assert_eq!(rep.containment.0, 0, "{rep:?}");
    assert!(rep.worst_precision_s < 50e-6, "{}", rep.worst_precision_s);
}

#[test]
fn injected_packet_loss_is_attributed_and_tolerated() {
    let mut cfg = base(5, 23);
    cfg.f = 1;
    cfg.fault_plan = FaultPlan::new().with(FaultEpisode {
        from: SimTime::from_secs(6),
        until: SimTime::from_secs(16),
        target: FaultTarget::All,
        kind: FaultKind::PacketLoss { rate: 0.25 },
    });
    let rep = Cluster::new(cfg).run();
    let (crc, _, injected) = rep.csp_drop_causes;
    assert!(injected > 10, "injected losses recorded: {rep:?}");
    assert_eq!(crc, 0, "no CRC errors configured: {rep:?}");
    assert_eq!(rep.containment.0, 0, "{rep:?}");
    assert!(rep.worst_precision_s < 50e-6, "{}", rep.worst_precision_s);
}

#[test]
fn asymmetric_delay_hurts_but_containment_holds() {
    let mut cfg = base(4, 24);
    cfg.f = 1;
    cfg.fault_plan = FaultPlan::new().with(FaultEpisode {
        from: SimTime::from_secs(8),
        until: SimTime::from_secs(14),
        target: FaultTarget::Node(1),
        kind: FaultKind::PacketDelay {
            extra: SimDuration::from_micros(30),
            jitter: SimDuration::from_micros(10),
            direction: Direction::Rx,
        },
    });
    let rep = Cluster::new(cfg).run();
    assert_eq!(rep.containment.0, 0, "{rep:?}");
}

/// The fault-plan catalogue the determinism property samples from.
fn plan_catalog(idx: usize) -> FaultPlan {
    match idx {
        0 => FaultPlan::new(),
        1 => FaultPlan::crash(1, SimTime::from_secs(4), Some(SimTime::from_secs(6))),
        _ => FaultPlan::new()
            .with(FaultEpisode {
                from: SimTime::from_secs(3),
                until: SimTime::from_secs(7),
                target: FaultTarget::All,
                kind: FaultKind::PacketLoss { rate: 0.3 },
            })
            .with(FaultEpisode {
                from: SimTime::from_secs(4),
                until: SimTime::from_secs(8),
                target: FaultTarget::Node(0),
                kind: FaultKind::LateTrigger {
                    rate: 0.5,
                    delay: SimDuration::from_nanos(300),
                },
            }),
    }
}

proptest::proptest! {
    #![proptest_config(proptest::test_runner::Config::with_cases(6))]
    /// Determinism: identical seed + identical FaultPlan must reproduce the
    /// whole Report bit-for-bit — the property the debug workflow (shrink a
    /// failing chaos run, replay it) rests on.
    #[test]
    fn same_seed_and_plan_reproduce_bitwise(seed in 0u64..(1 << 16), idx in 0usize..3) {
        let run = || -> Report {
            let mut cfg = base(4, seed);
            cfg.f = 1;
            cfg.duration = SimDuration::from_secs(10);
            cfg.warmup = SimDuration::from_secs(4);
            cfg.fault_plan = plan_catalog(idx);
            Cluster::new(cfg).run()
        };
        let (a, b) = (run(), run());
        proptest::prop_assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }
}

#[test]
fn dedicated_cpu_beats_shared_cpu_in_software_mode() {
    // The i6040 deployment (Section 4): running the sync software on a
    // dedicated communications CPU shrinks the software-stamp latencies.
    use nti::core::params::TimestampMode;
    use nti::kernel::KernelConfig;
    let run = |k: KernelConfig| {
        let mut cfg = base(3, 17);
        cfg.mode = TimestampMode::Software;
        cfg.f = 0;
        cfg.kernel = k;
        Cluster::new(cfg).run().eps_spread_s
    };
    let shared = run(KernelConfig::psos_mvme162());
    let dedicated = run(KernelConfig::dedicated_i6040());
    assert!(
        dedicated < shared / 3.0,
        "dedicated CPU should cut software ε: {dedicated} vs {shared}"
    );
}
