//! Golden behaviour fingerprints: a small corpus of short fixed-seed cluster
//! runs whose `Report` and full cluster trace must stay bit-identical across
//! commits. A refactor that claims "same behaviour, less code" has to keep
//! every entry green.
//!
//! Each entry is fingerprinted two ways — FNV-1a of `Report::to_json()` and
//! FNV-1a of every `Subsystem::Cluster` trace event — and stored in
//! `tests/golden/<entry>.txt` next to the report's top-level fields, so a
//! mismatch names the fields that moved. A deliberate behaviour change is
//! re-recorded with
//!
//! ```text
//! NTI_BLESS=1 cargo test --test golden
//! ```
//!
//! which rewrites the files and prints the same list of moved fields.

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

/// Run `cfg` with the cluster trace on and render its golden record: the
/// two fingerprints, the trace length, then one `report.<field>` line per
/// top-level `Report` field.
fn record(mut cfg: ClusterConfig) -> String {
    let obs = SimObserver::with_trace(TRACE_CAPACITY, Subsystem::Cluster.bit());
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

/// Compare `cfg`'s run against `tests/golden/<name>.txt`, or rewrite that
/// file when `NTI_BLESS=1`.
fn check(name: &str, cfg: ClusterConfig) {
    let path: PathBuf = [env!("CARGO_MANIFEST_DIR"), "tests", "golden", name]
        .iter()
        .collect::<PathBuf>()
        .with_extension("txt");
    let new = record(cfg);
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

#[test]
fn software_stamps() {
    let mut cfg = base(4, 0x601D);
    cfg.mode = TimestampMode::Software;
    check("software_stamps", cfg);
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
