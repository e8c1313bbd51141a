//! End-to-end observability check: run a traced 4-node cluster and verify
//! that (a) the JSONL trace export is well-formed and time-ordered, (b)
//! the Chrome export is loadable JSON, (c) the registry's cluster
//! metrics agree with the `Report` the run produced, and (d) they agree
//! with the running `World` after every `advance_until` chunk.

use nti_core::cluster::{Cluster, ClusterConfig, Report};
use nti_faults::{FaultEpisode, FaultKind, FaultPlan, FaultTarget};
use nti_obs::{Json, MetricKey, SimObserver, Subsystem};
use nti_simcore::{SimDuration, SimTime};
use std::path::PathBuf;

/// One traced 4-node run. The trace is restricted to the `cluster`
/// subsystem, whose events are stamped with engine time (the UTCSU traces
/// use each chip's nominal local time, which is close to but not equal to
/// simulation time).
fn traced_run() -> (Report, SimObserver) {
    let obs = SimObserver::with_trace(1 << 16, Subsystem::Cluster.bit());
    let mut cfg = ClusterConfig::default_lan(4, 7);
    cfg.duration = SimDuration::from_secs(12);
    cfg.warmup = SimDuration::from_secs(4);
    cfg.obs = obs.clone();
    let rep = Cluster::new(cfg).run();
    (rep, obs)
}

fn tmp(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    std::fs::create_dir_all(&dir).expect("tmpdir");
    dir.join(name)
}

#[test]
fn traced_cluster_exports_match_report() {
    let (rep, obs) = traced_run();
    assert!(rep.csps.0 > 10, "run produced traffic: {:?}", rep.csps);

    // --- the in-memory trace is non-empty and time-ordered ---
    let events = obs.events();
    assert!(!events.is_empty(), "cluster tracing produced events");
    let mut last = 0u128;
    for e in &events {
        assert!(
            e.sim_time_fs >= last,
            "events must be non-decreasing in sim_time_fs: {} after {last}",
            e.sim_time_fs
        );
        last = e.sim_time_fs;
        assert_eq!(
            e.subsystem,
            Subsystem::Cluster,
            "mask admits only cluster events"
        );
    }
    assert!(
        events.iter().any(|e| e.kind == "round_start"),
        "round_start events present"
    );
    assert!(
        events.iter().any(|e| e.kind == "precision_ns"),
        "per-snapshot precision events present"
    );

    // --- JSONL export: every line parses, times are ordered ---
    let jsonl = tmp("cluster_trace.jsonl");
    obs.export_trace(&jsonl).expect("jsonl export");
    let body = std::fs::read_to_string(&jsonl).expect("read jsonl");
    let mut lines = 0usize;
    let mut last_fs = 0u128;
    for line in body.lines() {
        let v = Json::parse(line).unwrap_or_else(|e| panic!("bad JSONL line {line:?}: {e}"));
        let t: u128 = v
            .get("t_fs")
            .and_then(Json::as_str)
            .expect("t_fs string field")
            .parse()
            .expect("t_fs is a decimal femtosecond count");
        assert!(t >= last_fs, "JSONL out of order");
        last_fs = t;
        assert!(v.get("kind").and_then(Json::as_str).is_some(), "kind field");
        assert!(v.get("sub").and_then(Json::as_str).is_some(), "sub field");
        lines += 1;
    }
    assert_eq!(lines, events.len(), "one JSONL line per event");

    // --- Chrome export: a loadable JSON array of trace_event objects ---
    let chrome = tmp("cluster_trace.json");
    obs.export_trace(&chrome).expect("chrome export");
    let parsed =
        Json::parse(&std::fs::read_to_string(&chrome).expect("read")).expect("chrome JSON");
    let arr = parsed.as_arr().expect("trace_event array");
    assert_eq!(arr.len(), events.len());
    for ev in arr {
        assert!(ev.get("ph").and_then(Json::as_str).is_some(), "phase field");
        assert!(
            ev.get("ts").and_then(Json::as_f64).is_some(),
            "timestamp field"
        );
    }

    // --- registry metrics agree with the report ---
    let reg = &obs.core().expect("enabled").registry;
    let key = |name| MetricKey::global("cluster", name);
    let sent = reg.find_counter(key("csps_sent")).expect("csps_sent").get();
    let delivered = reg
        .find_counter(key("csps_delivered"))
        .expect("csps_delivered")
        .get();
    let dropped = reg
        .find_counter(key("csps_dropped"))
        .expect("csps_dropped")
        .get();
    assert_eq!(
        (sent, delivered, dropped),
        rep.csps,
        "CSP counters match report"
    );

    let precision = reg.find_hist(key("precision_ns")).expect("precision_ns");
    assert!(precision.count() > 0, "precision snapshots recorded");
    // Both sides truncate worst-precision to whole nanoseconds the same
    // way, and the histogram tracks its extremes exactly.
    assert_eq!(
        precision.max(),
        (rep.worst_precision_s * 1e9) as u64,
        "histogram max is the report's worst precision"
    );
    let eps = reg.find_hist(key("eps_excess_ns")).expect("eps_excess_ns");
    assert_eq!(
        eps.count() as usize,
        rep.eps_samples,
        "one ε sample per stamp pair"
    );
}

/// The kernel latencies every reception draws, in draw order.
const KERNEL_RX_HISTS: [&str; 3] = ["isr_entry_ns", "isr_body_ns", "dispatch_ns"];

/// The per-reception metrics are local accumulators flushed at the end of
/// each `advance_until`, so what a live reader of the registry sees
/// between chunks (the serve plane's telemetry) equals the running
/// `World` counts — drops included. The kernels' reception latencies are
/// cluster-scoped: one `kernel/<name>_ns` histogram each, holding one draw
/// per reception that reached the ISR, as many as the ISR + dispatch hop
/// of the span decomposition counts (no fault here misses a trigger, so
/// every such reception carries a span chain).
#[test]
fn registry_matches_world_after_every_advance_chunk() {
    let obs = SimObserver::enabled();
    let mut cfg = ClusterConfig::default_lan(6, 11);
    cfg.duration = SimDuration::from_secs(8);
    cfg.warmup = SimDuration::from_secs(2);
    cfg.fault_plan = FaultPlan::new().with(FaultEpisode {
        from: SimTime::from_secs(3),
        until: SimTime::from_secs(5),
        target: FaultTarget::All,
        kind: FaultKind::PacketLoss { rate: 0.2 },
    });
    cfg.obs = obs.clone();
    let mut cluster = Cluster::new(cfg);
    let reg = &obs.core().expect("enabled").registry;
    let counter = |name| {
        reg.find_counter(MetricKey::global("cluster", name))
            .expect(name)
            .get()
    };
    let mut t = SimTime::ZERO;
    while t < SimTime::from_secs(8) {
        t = cluster.advance_until(t + SimDuration::from_millis(350));
        let m = &cluster.world().metrics;
        assert_eq!(
            [
                counter("csps_sent"),
                counter("csps_delivered"),
                counter("csps_dropped"),
                counter("csps_dropped_crc"),
                counter("csps_dropped_overrun"),
                counter("csps_dropped_injected"),
            ],
            [
                m.csps_sent,
                m.csps_delivered,
                m.csps_dropped,
                m.csps_dropped_crc,
                m.csps_dropped_overrun,
                m.csps_dropped_injected,
            ],
            "at {t:?}"
        );
        let eps = reg
            .find_hist(MetricKey::global("cluster", "eps_excess_ns"))
            .expect("eps_excess_ns");
        assert_eq!(eps.count() as usize, m.eps_delay.count(), "at {t:?}");
        let kernel_keys: Vec<MetricKey> = reg
            .entries()
            .into_iter()
            .map(|(k, _)| k)
            .filter(|k| k.subsystem == "kernel" && k.name.ends_with("_ns"))
            .collect();
        let isr_counts = KERNEL_RX_HISTS.map(|name| {
            assert_eq!(
                kernel_keys.iter().filter(|k| k.name == name).count(),
                1,
                "one kernel/{name} at {t:?}"
            );
            reg.find_hist(MetricKey::global("kernel", name))
                .expect(name)
                .count()
        });
        assert!(
            kernel_keys.iter().all(|k| k.node.is_none()),
            "per-node kernel histogram at {t:?}: {kernel_keys:?}"
        );
        let isr_hops = reg
            .find_hist(MetricKey::global("span", "hop_isr_dispatch_ns"))
            .expect("hop_isr_dispatch_ns")
            .count();
        assert_eq!(isr_counts, [isr_hops; 3], "at {t:?}");
    }
    let m = &cluster.world().metrics;
    assert!(
        m.csps_delivered > 100 && m.csps_dropped_injected > 0,
        "{m:?}"
    );
    let isrs = reg
        .find_hist(MetricKey::global("kernel", "isr_entry_ns"))
        .expect("isr_entry_ns")
        .count();
    assert!(isrs >= m.csps_delivered, "{isrs} ISRs, {m:?}");
}

/// Every power-up attaches the node's fresh UTCSU to the observer, and
/// the chip a restart replaces lands its unflushed counts when dropped:
/// node 3's triggers survive its 4–5 s outage and keep counting after it.
#[test]
fn restarted_node_keeps_its_utcsu_metrics() {
    let obs = SimObserver::enabled();
    let mut cfg = ClusterConfig::default_lan(4, 0x601D);
    cfg.fault_plan = FaultPlan::crash(3, SimTime::from_secs(4), Some(SimTime::from_secs(5)));
    cfg.obs = obs.clone();
    let mut cluster = Cluster::new(cfg);
    let triggers = obs
        .counter(MetricKey::node(3, "utcsu", "triggers"))
        .expect("enabled");
    cluster.advance_until(SimTime::from_millis(5_500));
    let after_restart = triggers.get();
    assert!(
        after_restart >= 20,
        "pre-crash triggers lost: {after_restart}"
    );
    cluster.advance_until(SimTime::from_secs(8));
    assert!(
        triggers.get() > after_restart,
        "restarted node stopped counting: {} at 8 s, {after_restart} at 5.5 s",
        triggers.get()
    );
}

/// A disabled observer leaves no trace and registers no metrics — the
/// default configuration stays observability-free.
#[test]
fn disabled_observer_stays_inert() {
    let mut cfg = ClusterConfig::default_lan(2, 9);
    cfg.f = 0;
    cfg.duration = SimDuration::from_secs(6);
    cfg.warmup = SimDuration::from_secs(2);
    let obs = cfg.obs.clone();
    let rep = Cluster::new(cfg).run();
    assert!(rep.csps.0 > 0);
    assert!(!obs.is_enabled());
    assert!(obs.events().is_empty());
    assert_eq!(obs.summary_table(), "(observer disabled)\n");
}
