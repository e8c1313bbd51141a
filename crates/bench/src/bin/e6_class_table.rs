//! **E6 — synchronization tightness by approach class** (paper §1 and §5):
//!
//! * purely software-based solutions: "a synchronization tightness in the
//!   ms-range";
//! * CesiumSpray-style a posteriori agreement \[VRC97\]: "10 µs-range";
//! * the CSU of \[KO87\]: "10 µs-range";
//! * the CSU successor of \[KKMS95\]: "a few µs" (with granularity ignored);
//! * the NTI: "1 µs-range" — "an improvement of at least one order of
//!   magnitude over existing approaches".
//!
//! Each class is expressed as a configuration of the same simulated
//! substrate and run under identical load; the achieved worst-case
//! precision must land in the right decade and preserve the ordering.

use nti_bench::obs_cli::ObsOpts;
use nti_bench::{eng, header, record, secs, with_duration};
use nti_core::cluster::{BgLoad, Cluster, ClusterConfig};
use nti_core::params::{AlgoKind, TimestampMode};
use nti_kernel::KernelConfig;
use nti_simcore::SimDuration;

struct Class {
    name: &'static str,
    paper: &'static str,
    mode: TimestampMode,
    algo: AlgoKind,
    granularity: SimDuration,
    kernel: KernelConfig,
    rate_sync: bool,
}

fn main() {
    let opts = ObsOpts::from_env();
    let obs = opts.observer();
    println!("E6: synchronization tightness by approach class (4 nodes, moderate load)");
    println!("paper §1/§5 comparison; NTI claims ≥ 1 order of magnitude improvement\n");
    let classes = [
        Class {
            name: "software (pSOS, shared CPU)",
            paper: "ms-range",
            mode: TimestampMode::Software,
            algo: AlgoKind::Ftm,
            granularity: SimDuration::from_micros(1),
            kernel: KernelConfig::psos_mvme162(),
            rate_sync: false,
        },
        Class {
            name: "software (dedicated CPU)",
            paper: "~10-100 us",
            mode: TimestampMode::Software,
            algo: AlgoKind::Ftm,
            granularity: SimDuration::from_micros(1),
            kernel: KernelConfig::dedicated_i6040(),
            rate_sync: false,
        },
        Class {
            name: "CSU [KO87], G = 1 us",
            paper: "10 us-range",
            mode: TimestampMode::InterruptRx,
            algo: AlgoKind::Ftm,
            granularity: SimDuration::from_micros(1),
            kernel: KernelConfig::psos_mvme162(),
            rate_sync: false,
        },
        Class {
            name: "KKMS95-style, G = 1 us",
            paper: "a few us",
            mode: TimestampMode::Hardware,
            algo: AlgoKind::Ftm,
            granularity: SimDuration::from_micros(1),
            kernel: KernelConfig::psos_mvme162(),
            rate_sync: false,
        },
        Class {
            name: "NTI (interval + rate sync)",
            paper: "1 us-range",
            mode: TimestampMode::Hardware,
            algo: AlgoKind::IntervalOa,
            granularity: SimDuration::from_nanos(60),
            kernel: KernelConfig::psos_mvme162(),
            rate_sync: true,
        },
    ];
    let h = format!(
        "{:<28} {:>12} {:>14} {:>14} {:>12}",
        "class", "paper says", "measured prec", "eps spread", "order ok"
    );
    header(&h);
    let mut results = Vec::new();
    for c in &classes {
        let mut cfg = with_duration(ClusterConfig::default_lan(4, 0xE6), secs(60, 12));
        cfg.obs = obs.clone();
        cfg.mode = c.mode;
        cfg.algo = c.algo;
        cfg.granularity = c.granularity;
        cfg.kernel = c.kernel;
        cfg.rate_sync = c.rate_sync;
        cfg.bg_load = Some(BgLoad {
            frames_per_sec: 60.0,
            frame_bytes: 400,
        });
        let rep = Cluster::new(cfg).run();
        record("e6_class_table", c.name, &rep.to_json());
        results.push(rep.worst_precision_s);
        let order_ok =
            results.len() < 2 || rep.worst_precision_s <= results[results.len() - 2] * 1.5;
        println!(
            "{:<28} {:>12} {:>14} {:>14} {:>12}",
            c.name,
            c.paper,
            eng(rep.worst_precision_s),
            eng(rep.eps_spread_s),
            if order_ok { "yes" } else { "NO" }
        );
    }
    println!();
    let improvement = results[2] / results[4];
    println!(
        "NTI vs CSU improvement: {improvement:.1}x -> {}",
        if improvement >= 8.0 {
            "at least one order of magnitude (paper claim reproduced)"
        } else {
            "below the claimed order of magnitude (!)"
        }
    );
    opts.finish(&obs);
}
