//! End-to-end causal-span and invariant-monitor checks: a traced cluster
//! run must yield a fully connected span forest whose per-hop durations
//! telescope into the measured stamp-pair delay; a nominal run raises no
//! monitor violations; an injected late-trigger fault provably trips the
//! trigger-latency monitor.

use nti_core::cluster::{Cluster, ClusterConfig, SPAN_HOPS};
use nti_core::params::TimestampMode;
use nti_faults::{FaultEpisode, FaultKind, FaultPlan, FaultTarget};
use nti_obs::{records_from_events, MetricKey, SimObserver, SpanForest, Subsystem};
use nti_simcore::time::{SimDuration, SimTime};

/// Everything span-bearing except the engine (whose per-event tracing
/// would dwarf the chain) and the unused GPS/App subsystems.
fn span_mask() -> u32 {
    Subsystem::Cluster.bit()
        | Subsystem::Net.bit()
        | Subsystem::Kernel.bit()
        | Subsystem::Utcsu.bit()
        | Subsystem::Faults.bit()
}

fn traced_cfg(n: usize, seed: u64, obs: &SimObserver) -> ClusterConfig {
    let mut cfg = ClusterConfig::default_lan(n, seed);
    cfg.duration = SimDuration::from_secs(10);
    cfg.warmup = SimDuration::from_secs(3);
    cfg.obs = obs.clone();
    cfg
}

/// A traced 4-node run produces parent-linked spans forming a DAG with no
/// orphans, and every accepted CSP's chain walks the full
/// send→trigger→wire→trigger→latch→interrupt→ISR→accept pipeline back to
/// its root, each hop under the subsystem of the layer that produces it
/// and starting where its parent ends.
#[test]
fn traced_run_yields_connected_span_forest() {
    let obs = SimObserver::with_trace(1 << 20, span_mask());
    let rep = Cluster::new(traced_cfg(4, 11, &obs)).run();
    assert!(rep.csps.1 > 10, "run delivered CSPs: {:?}", rep.csps);

    let forest = SpanForest::build(records_from_events(&obs.events()));
    assert!(!forest.is_empty(), "spans were recorded");
    assert_eq!(forest.orphans(), &[] as &[u64], "no orphaned spans");
    assert_eq!(forest.duplicates(), 0, "span ids are unique");
    assert!(forest.is_well_formed(), "forest is a DAG rooted at sends");

    // Every root is a csp_send; every accept chain covers all eight hops
    // in pipeline order.
    for &r in forest.roots() {
        assert_eq!(forest.get(r).unwrap().kind, "csp_send");
    }
    let accepts = forest.ids_of_kind("accept");
    assert_eq!(
        accepts.len() as u64,
        rep.csps.1,
        "one accept span per delivered CSP"
    );
    let mut expected: Vec<&str> = SPAN_HOPS.to_vec();
    expected.reverse();
    let layers = [
        "cluster", "kernel", "cluster", "utcsu", "cluster", "net", "cluster", "cluster",
    ];
    for &a in &accepts {
        let chain = forest.chain_to_root(a);
        let kinds: Vec<&str> = chain.iter().map(|r| r.kind.as_str()).collect();
        assert_eq!(kinds, expected, "accept chain covers every hop");
        let subs: Vec<&str> = chain.iter().map(|r| r.sub.as_str()).collect();
        assert_eq!(subs, layers, "each hop is traced under its layer");
        for hop in chain.windows(2) {
            assert_eq!(
                hop[0].start_fs(),
                hop[1].end_fs,
                "{} starts where {} ends",
                hop[0].kind,
                hop[1].kind
            );
        }
        // The hops between the TRANSMIT trigger and the RECEIVE trigger
        // telescope exactly: wire + rcv_trigger spans sum to the measured
        // end-to-end stamp-pair delay ε of this CSP.
        let rcv = chain[4]; // rcv_trigger
        let wire = chain[5]; // wire
        let xmit = chain[6]; // xmit_trigger
        assert_eq!(
            wire.dur_fs + rcv.dur_fs,
            rcv.end_fs - xmit.end_fs,
            "per-hop decomposition sums to the observed ε"
        );
        // The UTCSU's synchronizer delay: 2 ticks at 10 MHz with the
        // RELIABLE pin.
        assert_eq!(chain[3].dur_fs, 200_000_000, "latch lasts 200 ns");
    }
}

/// On a nominal (fault-free) seed every online invariant holds: no
/// containment, precision, monotonicity or trigger-latency violations.
#[test]
fn nominal_run_raises_no_violations() {
    let obs = SimObserver::enabled();
    let mut cfg = traced_cfg(4, 13, &obs);
    // Generous precision budget so the opt-in monitor is exercised too.
    cfg.precision_budget = Some(SimDuration::from_millis(5));
    let rep = Cluster::new(cfg).run();
    assert!(rep.csps.1 > 10);
    assert_eq!(rep.monitor_violations, 0, "nominal run violates nothing");
    for kind in [
        "viol_containment",
        "viol_precision",
        "viol_monotonic",
        "viol_trigger_latency",
    ] {
        let c = obs.counter(MetricKey::global("monitor", kind)).unwrap();
        assert_eq!(c.get(), 0, "{kind} stays zero on a nominal run");
    }
}

/// An injected late receive trigger adds 2 ms to the trigger-to-latch
/// path — far beyond the static delay bound — and must trip the
/// trigger-latency monitor; the annotated fault span rides the chain.
#[test]
fn late_trigger_fault_trips_trigger_latency_monitor() {
    let obs = SimObserver::with_trace(1 << 20, span_mask());
    let mut cfg = traced_cfg(4, 17, &obs);
    cfg.fault_plan = FaultPlan::new().with(FaultEpisode {
        from: SimTime::from_secs(5),
        until: SimTime::from_secs(7),
        target: FaultTarget::Node(2),
        kind: FaultKind::LateTrigger {
            rate: 1.0,
            delay: SimDuration::from_millis(2),
        },
    });
    let rep = Cluster::new(cfg).run();
    assert!(rep.monitor_violations >= 1, "late triggers violate budgets");
    let c = obs
        .counter(MetricKey::global("monitor", "viol_trigger_latency"))
        .unwrap();
    assert!(
        c.get() >= 1,
        "the trigger-latency monitor specifically fired"
    );
    // The fault annotation spans hang off the affected trigger spans.
    let events = obs.events();
    assert!(
        events
            .iter()
            .any(|e| e.subsystem == Subsystem::Faults && e.kind == "fault_trigger_late"),
        "late-trigger injections are annotated on the span chain"
    );
    let forest = SpanForest::build(records_from_events(&events));
    assert!(
        forest.is_well_formed(),
        "fault annotations keep the forest connected"
    );

    // Control: the same seed without the plan stays violation-free.
    let obs2 = SimObserver::enabled();
    let rep2 = Cluster::new(traced_cfg(4, 17, &obs2)).run();
    assert_eq!(rep2.monitor_violations, 0);
}

/// Mode ablation: the span chain stays complete in the software-stamp and
/// interrupt-stamp modes too (the pipeline structure is mode-independent).
#[test]
fn span_chain_survives_timestamp_mode_ablation() {
    for mode in [TimestampMode::InterruptRx, TimestampMode::Software] {
        let obs = SimObserver::with_trace(1 << 20, span_mask());
        let mut cfg = traced_cfg(3, 19, &obs);
        cfg.duration = SimDuration::from_secs(6);
        cfg.warmup = SimDuration::from_secs(2);
        cfg.mode = mode;
        let rep = Cluster::new(cfg).run();
        assert!(rep.csps.1 > 0, "{mode:?} delivered CSPs");
        let forest = SpanForest::build(records_from_events(&obs.events()));
        assert!(forest.is_well_formed(), "{mode:?} forest is connected");
        assert_eq!(
            forest.ids_of_kind("accept").len() as u64,
            rep.csps.1,
            "{mode:?}: one accept span per delivery"
        );
    }
}
