//! End-to-end causal-span and invariant checks: a traced cluster run must
//! yield a fully connected span forest whose per-hop durations telescope
//! into the measured stamp-pair delay; a nominal run counts no invariant
//! violations; an injected late-trigger fault provably trips the
//! trigger-latency check, once per late trigger; a drifting partitioned node's containment
//! failures are counted apart while it is in holdover; and the precision
//! check runs only against a budget. The counts reach `Report` with
//! metrics off too.

use nti_core::cluster::{Cluster, ClusterConfig, Report, HOP_HIST_NAMES, SPAN_HOPS};
use nti_core::params::TimestampMode;
use nti_faults::{FaultEpisode, FaultKind, FaultPlan, FaultTarget};
use nti_obs::{
    records_from_events, MetricKey, Payload, SimObserver, SpanForest, SpanId, Subsystem,
};
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

/// Node 2's RECEIVE triggers fire `delay` late at `rate` from 5 to 7 s.
fn late_triggers(rate: f64, delay: SimDuration) -> FaultPlan {
    FaultPlan::new().with(FaultEpisode {
        from: SimTime::from_secs(5),
        until: SimTime::from_secs(7),
        target: FaultTarget::Node(2),
        kind: FaultKind::LateTrigger { rate, delay },
    })
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

/// On a nominal (fault-free) seed every invariant holds: no containment,
/// precision, monotonicity or trigger-latency violations.
#[test]
fn nominal_run_raises_no_violations() {
    let obs = SimObserver::enabled();
    let mut cfg = traced_cfg(4, 13, &obs);
    // Generous precision budget so the opt-in check is exercised too.
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
/// trigger-latency check, each traced violation valued at the delay minus
/// the bound; the annotated fault span rides the chain.
#[test]
fn late_trigger_fault_trips_trigger_latency_monitor() {
    let obs = SimObserver::with_trace(1 << 20, span_mask());
    let mut cfg = traced_cfg(4, 17, &obs);
    cfg.fault_plan = late_triggers(1.0, SimDuration::from_millis(2));
    let rep = Cluster::new(cfg).run();
    assert!(rep.monitor_violations >= 1, "late triggers violate budgets");
    let c = obs
        .counter(MetricKey::global("monitor", "viol_trigger_latency"))
        .unwrap();
    assert!(c.get() >= 1, "the trigger-latency check specifically fired");
    let events = obs.events();
    let excess: Vec<i64> = events
        .iter()
        .filter(|e| e.kind == "viol_trigger_latency")
        .map(|e| match e.payload {
            Payload::Value { value } => value,
            ref p => panic!("viol_trigger_latency carries {p:?}"),
        })
        .collect();
    assert_eq!(excess.len() as u64, c.get(), "every violation is traced");
    assert!(
        excess.iter().all(|&v| v > 0),
        "traced value is the delay minus the bound: {excess:?}"
    );
    // The fault annotation spans hang off the affected trigger spans.
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

/// A late trigger whose reception survives is one violation, not two:
/// the trigger's own event checks the pair, and the reception interrupt,
/// whose receive end in the hardware mode is that same trigger instant,
/// does not check it again. A 3-µs delay is past the bound but inside the
/// latch window, so the receptions survive; every traced violation is then
/// a distinct (node, excess) offense.
#[test]
fn surviving_late_trigger_is_counted_once() {
    let obs = SimObserver::with_trace(1 << 20, span_mask());
    let mut cfg = traced_cfg(4, 17, &obs);
    cfg.fault_plan = late_triggers(0.5, SimDuration::from_micros(3));
    let rep = Cluster::new(cfg).run();
    let offenses: Vec<(u32, i64)> = obs
        .events()
        .iter()
        .filter(|e| e.kind == "viol_trigger_latency")
        .map(|e| match e.payload {
            Payload::Value { value } => (e.node, value),
            ref p => panic!("viol_trigger_latency carries {p:?}"),
        })
        .collect();
    assert!(!offenses.is_empty(), "the late triggers violate the bound");
    let mut distinct = offenses.clone();
    distinct.sort_unstable();
    distinct.dedup();
    assert_eq!(
        offenses.len(),
        distinct.len(),
        "each late trigger is counted once: {offenses:?}"
    );
    assert_eq!(rep.monitor_violations, offenses.len() as u64);
}

/// Span ids exist only where a trace records them. A metrics-only run and
/// one that traces the engine alone allocate no span id and emit no
/// `SpanLink`, yet record the same eight hop histograms as a run that
/// traces every subsystem, and all three report the same. The 3-µs late
/// triggers reach the fault annotations too.
#[test]
fn untraced_runs_allocate_no_span_ids_and_record_the_same_hops() {
    let runs = [
        SimObserver::enabled(),
        SimObserver::with_trace(1 << 20, Subsystem::Engine.bit()),
        SimObserver::with_trace(1 << 20, Subsystem::mask_from_spec("all")),
    ]
    .map(|obs| {
        let mut cfg = traced_cfg(4, 17, &obs);
        cfg.fault_plan = late_triggers(0.5, SimDuration::from_micros(3));
        let report = Cluster::new(cfg).run().to_json().to_string();
        let hops = HOP_HIST_NAMES.map(|nm| {
            let h = obs.hist(MetricKey::global("span", nm)).unwrap();
            (h.count(), h.sum(), h.min(), h.max())
        });
        (obs, report, hops)
    });
    let links = |obs: &SimObserver| {
        obs.events()
            .iter()
            .filter(|e| matches!(e.payload, Payload::SpanLink { .. }))
            .count()
    };
    assert!(!runs[1].0.events().is_empty(), "the engine was traced");
    for (obs, ..) in &runs[..2] {
        assert_eq!(links(obs), 0, "an untraced chain links no span");
        assert_eq!(obs.new_span(), SpanId(1), "no span id was allocated");
    }
    let all = runs[2].0.events();
    assert!(links(&runs[2].0) > 0, "the fully traced run links spans");
    assert!(
        all.iter().any(|e| e.kind == "fault_trigger_late"),
        "a late trigger is annotated"
    );
    assert!(runs[0].2.iter().all(|&(count, ..)| count > 0), "every hop");
    for (_, report, hops) in &runs[1..] {
        assert_eq!(report, &runs[0].1, "the report does not move");
        assert_eq!(hops, &runs[0].2, "hop histograms: count, sum, min, max");
    }
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

/// The run behind the holdover test: node 2 of five is partitioned from
/// 6 to 16 s while its oscillator runs 200 ppm fast, far past the 12 ppm
/// drift budget its free-running accuracy interval deteriorates by.
fn drifting_partition(obs: &SimObserver) -> Report {
    let mut cfg = ClusterConfig::default_lan(5, 7);
    cfg.duration = SimDuration::from_secs(20);
    cfg.warmup = SimDuration::from_secs(3);
    cfg.obs = obs.clone();
    let episode = |kind| FaultEpisode {
        from: SimTime::from_secs(6),
        until: SimTime::from_secs(16),
        target: FaultTarget::Node(2),
        kind,
    };
    cfg.fault_plan = FaultPlan::new()
        .with(episode(FaultKind::Partition))
        .with(episode(FaultKind::DriftExcursion { extra_ppm: 200.0 }));
    Cluster::new(cfg).run()
}

/// A containment failure is counted under `viol_holdover_containment`
/// while the node is in holdover and under `viol_containment` otherwise;
/// the two sum to the report's containment failures, each is traced once,
/// and the report counts the same with metrics off.
#[test]
fn holdover_containment_is_counted_apart() {
    let obs = SimObserver::with_trace(1 << 16, Subsystem::Cluster.bit());
    let rep = drifting_partition(&obs);
    let count = |kind| {
        obs.counter(MetricKey::global("monitor", kind))
            .unwrap()
            .get()
    };
    let traced = |kind| obs.events().iter().filter(|e| e.kind == kind).count() as u64;
    let (sync, holdover) = (
        count("viol_containment"),
        count("viol_holdover_containment"),
    );
    assert_eq!(rep.containment, (17, 175));
    assert_eq!((sync, holdover), (3, 14));
    assert_eq!(sync + holdover, rep.containment.0);
    assert_eq!(traced("viol_containment"), sync);
    assert_eq!(traced("viol_holdover_containment"), holdover);
    assert_eq!(rep.monitor_violations, sync + holdover);

    let off = drifting_partition(&SimObserver::disabled());
    assert_eq!(off.monitor_violations, rep.monitor_violations);
}

/// The precision check needs a budget: without one nothing counts, and
/// with a 1 ns budget every snapshot in the window counts once, with
/// metrics on or off.
#[test]
fn precision_is_checked_only_with_a_budget() {
    let obs = SimObserver::enabled();
    let rep = Cluster::new(traced_cfg(4, 13, &obs)).run();
    let c = obs
        .counter(MetricKey::global("monitor", "viol_precision"))
        .unwrap();
    assert_eq!((c.get(), rep.monitor_violations), (0, 0));

    for obs in [SimObserver::enabled(), SimObserver::disabled()] {
        let mut cfg = traced_cfg(4, 13, &obs);
        cfg.precision_budget = Some(SimDuration::from_nanos(1));
        let (rep, metrics) = Cluster::new(cfg).finish();
        let snapshots = metrics.precision.count() as u64;
        assert!(snapshots > 10, "{snapshots} snapshots in the window");
        assert_eq!(rep.monitor_violations, snapshots);
        if let Some(c) = obs.counter(MetricKey::global("monitor", "viol_precision")) {
            assert_eq!(c.get(), snapshots);
        }
    }
}
