//! Golden behaviour fingerprints: a small corpus of short fixed-seed cluster
//! runs whose `Report` and full cluster trace must stay bit-identical across
//! commits. A refactor that claims "same behaviour, less code" has to keep
//! every entry green.
//!
//! Each entry is fingerprinted two ways — FNV-1a of `Report::to_json()` and
//! FNV-1a of every `Subsystem::Cluster` trace event — and stored in
//! `tests/golden/<entry>.txt` next to the report's top-level fields, so a
//! mismatch names the fields that moved. Two entries, `all_subsystems`
//! and `trigger_faults_all_subsystems`, hash the trace of every subsystem
//! instead, so a reordered UTCSU, kernel, netsim, fault or engine record
//! moves them too, and `recurring_generators_across_a_crash` hashes the
//! engine's records beside the cluster's. A deliberate behaviour
//! change is re-recorded with
//!
//! ```text
//! NTI_BLESS=1 cargo test --test golden
//! ```
//!
//! which rewrites the files and prints the same list of moved fields.
//! One more test runs two corpus configurations unobserved as well, and
//! asserts that observing a run leaves its report byte-identical.

use nti::core::cluster::{BgLoad, Cluster, ClusterConfig, GpsNodeCfg};
use nti::core::params::TimestampMode;
use nti::core::status::StatusCell;
use nti::core::CongestionPolicy;
use nti::faults::{ChurnPlan, FaultEpisode, FaultKind, FaultPlan, FaultTarget};
use nti::gps::{GpsConfig, GpsFault};
use nti::netsim::Topology;
use nti::prelude::*;
use nti_obs::{Json, Payload, SimObserver, Subsystem, TraceEvent};
use std::path::PathBuf;
use std::sync::Arc;

/// Trace-ring capacity: large enough that no corpus entry wraps it.
const TRACE_CAPACITY: usize = 1 << 16;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// FNV-1a over each event's fields in a fixed byte layout.
fn trace_fingerprint(events: &[TraceEvent]) -> u64 {
    events.iter().fold(FNV_OFFSET, |h, e| {
        let h = fnv1a(h, &e.sim_time_fs.to_le_bytes());
        let h = fnv1a(h, &e.node.to_le_bytes());
        let h = fnv1a(h, &[e.subsystem as u8]);
        let h = fnv1a(h, e.kind.as_bytes());
        match e.payload {
            Payload::Instant => fnv1a(h, &[0]),
            Payload::Span { dur_fs } => fnv1a(fnv1a(h, &[1]), &dur_fs.to_le_bytes()),
            Payload::Value { value } => fnv1a(fnv1a(h, &[2]), &value.to_le_bytes()),
            Payload::SpanLink {
                span,
                parent,
                dur_fs,
            } => {
                let h = fnv1a(fnv1a(h, &[3]), &span.to_le_bytes());
                fnv1a(fnv1a(h, &parent.to_le_bytes()), &dur_fs.to_le_bytes())
            }
        }
    })
}

/// Run `cfg` with the trace of the subsystems in `mask` on and render its
/// golden record: the two fingerprints, the trace length, then one
/// `report.<field>` line per top-level `Report` field.
fn record(mut cfg: ClusterConfig, mask: u32) -> String {
    let obs = SimObserver::with_trace(TRACE_CAPACITY, mask);
    cfg.obs = obs.clone();
    let report = Cluster::new(cfg).run().to_json();
    let dropped = obs.core().expect("enabled").tracer.dropped();
    assert_eq!(dropped, 0, "trace ring dropped {dropped} events");
    let events = obs.events();
    let mut out = format!(
        "report_fnv1a {:016x}\ntrace_fnv1a {:016x}\ntrace_events {}\n",
        fnv1a(FNV_OFFSET, report.to_string().as_bytes()),
        trace_fingerprint(&events),
        events.len()
    );
    let Json::Obj(fields) = report else {
        panic!("Report::to_json is not an object")
    };
    for (name, value) in fields {
        out.push_str(&format!("report.{name} {value}\n"));
    }
    out
}

/// `key value` lines of a record, by key.
fn lines(record: &str) -> Vec<(&str, &str)> {
    record.lines().filter_map(|l| l.split_once(' ')).collect()
}

/// Human-readable list of the record lines that differ.
fn moved(old: &str, new: &str) -> Vec<String> {
    let (old, new) = (lines(old), lines(new));
    let mut out = Vec::new();
    for &(key, v_new) in &new {
        match old.iter().find(|(k, _)| *k == key) {
            Some(&(_, v_old)) if v_old == v_new => {}
            Some(&(_, v_old)) => out.push(format!("{key}: {v_old} -> {v_new}")),
            None => out.push(format!("{key}: (absent) -> {v_new}")),
        }
    }
    for &(key, v_old) in &old {
        if !new.iter().any(|(k, _)| *k == key) {
            out.push(format!("{key}: {v_old} -> (absent)"));
        }
    }
    out
}

/// Compare `cfg`'s run, with the cluster trace, against
/// `tests/golden/<name>.txt`, or rewrite that file when `NTI_BLESS=1`.
fn check(name: &str, cfg: ClusterConfig) {
    check_traced(name, cfg, Subsystem::Cluster.bit());
}

/// [`check`] with the trace of the subsystems in `mask`.
fn check_traced(name: &str, cfg: ClusterConfig, mask: u32) {
    let path: PathBuf = [env!("CARGO_MANIFEST_DIR"), "tests", "golden", name]
        .iter()
        .collect::<PathBuf>()
        .with_extension("txt");
    let new = record(cfg, mask);
    let old = std::fs::read_to_string(&path).unwrap_or_default();
    let diff = moved(&old, &new);
    if std::env::var("NTI_BLESS").is_ok_and(|v| v == "1") {
        for d in &diff {
            eprintln!("golden {name}: {d}");
        }
        std::fs::write(&path, &new).expect("write golden file");
        return;
    }
    assert!(
        diff.is_empty(),
        "golden {name} moved ({}):\n  {}\nre-record deliberate changes with NTI_BLESS=1",
        path.display(),
        diff.join("\n  ")
    );
}

/// The trace mask with every subsystem on.
fn every_subsystem() -> u32 {
    Subsystem::ALL.iter().fold(0, |m, s| m | s.bit())
}

fn base(n: usize, seed: u64) -> ClusterConfig {
    let mut cfg = ClusterConfig::default_lan(n, seed);
    cfg.duration = SimDuration::from_secs(8);
    cfg.warmup = SimDuration::from_secs(3);
    cfg
}

fn gps(node: usize) -> GpsNodeCfg {
    GpsNodeCfg {
        node,
        cfg: GpsConfig::default(),
    }
}

fn all_nodes(from: u64, until: u64, kind: FaultKind) -> FaultEpisode {
    FaultEpisode {
        from: SimTime::from_secs(from),
        until: SimTime::from_secs(until),
        target: FaultTarget::All,
        kind,
    }
}

#[test]
fn lan4() {
    check("lan4", base(4, 0x601D));
}

#[test]
fn lan16() {
    let mut cfg = base(16, 0x601D);
    cfg.duration = SimDuration::from_secs(5);
    check("lan16", cfg);
}

#[test]
fn chain_of_lans_3x4() {
    let mut cfg = base(0, 0x601D);
    cfg.topology = Topology::chain_of_lans(3, 4);
    cfg.f = 0;
    check("chain_of_lans_3x4", cfg);
}

/// Software stamps on four nodes: every containment check of this short
/// run fails.
fn software_mode() -> ClusterConfig {
    let mut cfg = base(4, 0x601D);
    cfg.mode = TimestampMode::Software;
    cfg
}

#[test]
fn software_stamps() {
    check("software_stamps", software_mode());
}

#[test]
fn interrupt_rx_1us() {
    let mut cfg = base(3, 0x601D);
    cfg.mode = TimestampMode::InterruptRx;
    cfg.granularity = SimDuration::from_micros(1);
    cfg.f = 0;
    check("interrupt_rx_1us", cfg);
}

#[test]
fn gps_leap_insert() {
    let mut cfg = base(4, 0x601D);
    cfg.duration = SimDuration::from_secs(10);
    cfg.gps = vec![gps(0), gps(1)];
    cfg.leap_insert_at_sec = Some(6);
    check("gps_leap_insert", cfg);
}

/// Byzantine node, CRC errors and GPS receiver faults. The record was taken
/// when these faults were still set through dedicated config knobs, so it
/// also proves the plan constructors replaced those knobs bit for bit.
#[test]
fn deprecated_shims() {
    let mut cfg = base(5, 0x601D);
    // The faulty receiver is node 2's second one: receiver index 1.
    cfg.gps = vec![gps(0), gps(2), gps(2)];
    let mut plan = FaultPlan::byzantine(&[4]);
    plan.merge(&FaultPlan::crc_errors(0.1));
    plan.merge(&FaultPlan::gps(
        2,
        1,
        GpsFault::Offset {
            from: 2,
            until: 1000,
            offset: SimDuration::from_millis(1),
        },
    ));
    plan.merge(&FaultPlan::gps(
        2,
        1,
        GpsFault::Dropout { from: 5, until: 6 },
    ));
    cfg.fault_plan = plan;
    check("deprecated_shims", cfg);
}

#[test]
fn chaos_plan() {
    let mut cfg = base(6, 0x601D);
    cfg.duration = SimDuration::from_secs(12);
    cfg.fault_plan = FaultPlan::crash(2, SimTime::from_secs(4), Some(SimTime::from_secs(6)))
        .with(all_nodes(3, 9, FaultKind::PacketLoss { rate: 0.1 }))
        .with(all_nodes(
            3,
            9,
            FaultKind::LateTrigger {
                rate: 0.3,
                delay: SimDuration::from_micros(2),
            },
        ));
    check("chaos_plan", cfg);
}

#[test]
fn churn_mesh_ecn_discount() {
    let mut cfg = base(0, 0x601D);
    cfg.topology = Topology::mesh_tree(2, 2, 2);
    cfg.f = 0;
    cfg.rate_sync = true;
    cfg.duration = SimDuration::from_secs(12);
    cfg.churn_plan = ChurnPlan::new()
        .leave(5, SimTime::from_secs(5))
        .join(5, SimTime::from_secs(8))
        .move_to(2, SimTime::from_secs(6), 0);
    cfg.medium.ecn_threshold = Some(SimDuration::from_micros(200));
    cfg.bg_load = Some(BgLoad {
        frames_per_sec: 40.0,
        frame_bytes: 700,
    });
    cfg.congestion = CongestionPolicy::Discount { widen_factor: 4 };
    check("churn_mesh_ecn_discount", cfg);
}

#[test]
fn status_cell_publication() {
    let mut cfg = base(4, 0x601D);
    cfg.status_cell = Some(Arc::new(StatusCell::new(4)));
    check("status_cell_publication", cfg);
}

/// Missed, late and duplicated receive triggers on a two-LAN chain: the
/// late-trigger, missed-trigger and duplicate-reception paths, and the
/// gateways' second SSU.
fn trigger_faults() -> ClusterConfig {
    let mut cfg = base(0, 0x601D);
    cfg.topology = Topology::chain_of_lans(2, 4);
    cfg.f = 0;
    cfg.fault_plan = FaultPlan::new()
        .with(all_nodes(3, 7, FaultKind::MissedTrigger { rate: 0.1 }))
        .with(all_nodes(
            3,
            7,
            FaultKind::LateTrigger {
                rate: 0.2,
                delay: SimDuration::from_micros(3),
            },
        ))
        .with(all_nodes(3, 7, FaultKind::PacketDuplicate { rate: 0.1 }));
    cfg
}

#[test]
fn trigger_faults_gateways() {
    check("trigger_faults_gateways", trigger_faults());
}

/// [`trigger_faults`] with every subsystem traced: the one entry whose
/// trace holds the `faults` spans that annotate a late or missed trigger.
#[test]
fn trigger_faults_all_subsystems() {
    check_traced(
        "trigger_faults_all_subsystems",
        trigger_faults(),
        every_subsystem(),
    );
}

/// Observing a run leaves its report byte-identical: the invariant checks
/// count with metrics off as with metrics on, on two entries that fail
/// them.
#[test]
fn observing_a_run_does_not_change_its_report() {
    for cfg in [trigger_faults(), software_mode()] {
        let off = Cluster::new(cfg.clone()).run();
        let mut observed = cfg;
        observed.obs = SimObserver::enabled();
        let on = Cluster::new(observed).run();
        assert!(on.monitor_violations > 0, "the entry fails no check");
        assert_eq!(off.to_json().to_string(), on.to_json().to_string());
    }
}

/// Synchronized actuations and application events with one node crashed
/// mid-run: both all-node barriers must skip the outage.
#[test]
fn actuation_app_events_crash() {
    let mut cfg = base(4, 0x601D);
    cfg.actuation_start_sec = Some(2);
    cfg.app_event_period = Some(SimDuration::from_millis(700));
    cfg.fault_plan = FaultPlan::crash(3, SimTime::from_secs(4), Some(SimTime::from_secs(5)));
    check("actuation_app_events_crash", cfg);
}

/// The simulator's recurring generators (GPS seconds on two nodes,
/// application events and the HWSNAP sweep) across a crash of one GPS
/// node, with the engine traced: every occurrence's schedule and fire
/// record is hashed, so a generator that loses or reorders an occurrence
/// while its node is down moves this entry.
#[test]
fn recurring_generators_across_a_crash() {
    let mut cfg = base(4, 0x601D);
    cfg.duration = SimDuration::from_secs(10);
    cfg.gps = vec![gps(1), gps(2)];
    cfg.app_event_period = Some(SimDuration::from_millis(700));
    cfg.fault_plan = FaultPlan::crash(1, SimTime::from_secs(4), Some(SimTime::from_secs(6)));
    check_traced(
        "recurring_generators_across_a_crash",
        cfg,
        Subsystem::Engine.bit() | Subsystem::Cluster.bit(),
    );
}

/// Every subsystem traced on a two-LAN chain: the engine's schedule/fire
/// records, the media, the kernels, and the UTCSUs of both the segment
/// members and the gateways (whose second SSU serves the other LAN), in
/// the order they were emitted.
#[test]
fn all_subsystems() {
    let mut cfg = base(0, 0x601D);
    cfg.topology = Topology::chain_of_lans(2, 4);
    cfg.f = 0;
    check_traced("all_subsystems", cfg, every_subsystem());
}

/// `cfg` run for `secs` sim-s with a third of it as warm-up, the split
/// the benchmark's shapes use.
fn bench_shape(mut cfg: ClusterConfig, secs: u64) -> ClusterConfig {
    cfg.duration = SimDuration::from_secs(secs);
    cfg.warmup = SimDuration::from_fs(cfg.duration.as_fs() / 3);
    cfg
}

/// The `sim-lan128` benchmark shape at seed 1: `default_lan(128)` for
/// 20 sim-s. Its `report_fnv1a` is the benchmark's seed-1 fingerprint.
#[test]
#[cfg_attr(debug_assertions, ignore = "release-only: scripts/check.sh")]
fn bench_lan128() {
    check_traced(
        "bench_lan128",
        bench_shape(ClusterConfig::default_lan(128, 1), 20),
        0,
    );
}

/// The `sim-mesh` benchmark shape at seed 1: `mesh_tree(5, 2, 2)`, f = 0,
/// no rate sync, 600 sim-s. Its `report_fnv1a` is the benchmark's seed-1
/// fingerprint.
#[test]
#[cfg_attr(debug_assertions, ignore = "release-only: scripts/check.sh")]
fn bench_mesh() {
    let mut cfg = ClusterConfig::default_lan(0, 1);
    cfg.topology = Topology::mesh_tree(5, 2, 2);
    cfg.f = 0;
    cfg.rate_sync = false;
    check_traced("bench_mesh", bench_shape(cfg, 600), 0);
}
