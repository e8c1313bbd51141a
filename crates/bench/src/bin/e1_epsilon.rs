//! **E1 — transmission/reception uncertainty ε** (paper §4: "preliminary
//! experiments with a two-node system revealed a transmission/reception
//! time uncertainty ε well below 1 µs").
//!
//! Measures the stamp-pair delay distribution for the three timestamping
//! placements of §3.1, on an idle and on a loaded segment, two-node
//! MVME-162-like setup. Also includes the CAN-style on-chip-storage COMCO
//! the paper calls "definitely inappropriate". The closing figure is the
//! NTI idle case's `cluster/eps_delay_ns` registry histogram.

use nti_bench::obs_cli::ObsOpts;
use nti_bench::{eng, header, record, record_precision, secs, with_duration};
use nti_core::cluster::{BgLoad, Cluster, ClusterConfig};
use nti_core::params::TimestampMode;
use nti_netsim::ComcoTiming;
use nti_obs::{MetricKey, SimObserver};

fn run(
    mode: TimestampMode,
    loaded: bool,
    comco: ComcoTiming,
    obs: &SimObserver,
) -> nti_core::cluster::Report {
    let mut cfg = with_duration(ClusterConfig::default_lan(2, 0xE1), secs(60, 10));
    cfg.mode = mode;
    cfg.f = 0;
    cfg.comco = comco;
    cfg.rate_sync = true;
    cfg.obs = obs.clone();
    if loaded {
        cfg.bg_load = Some(BgLoad {
            frames_per_sec: 100.0,
            frame_bytes: 600,
        });
    }
    Cluster::new(cfg).run()
}

fn main() {
    let opts = ObsOpts::from_env();
    let obs = opts.observer();
    println!("E1: stamp-to-stamp uncertainty ε by timestamping placement (2 nodes)");
    println!("paper claim: NTI triggers give ε well below 1 us; software is ms-range\n");
    let h = format!(
        "{:<26} {:>6} {:>14} {:>14} {:>10}",
        "placement", "load", "eps spread", "eps std", "samples"
    );
    header(&h);
    let cases: Vec<(&str, TimestampMode, bool, ComcoTiming)> = vec![
        (
            "software (steps 1/7)",
            TimestampMode::Software,
            false,
            ComcoTiming::i82596(),
        ),
        (
            "software (steps 1/7)",
            TimestampMode::Software,
            true,
            ComcoTiming::i82596(),
        ),
        (
            "interrupt rx (CSU/KO87)",
            TimestampMode::InterruptRx,
            false,
            ComcoTiming::i82596(),
        ),
        (
            "interrupt rx (CSU/KO87)",
            TimestampMode::InterruptRx,
            true,
            ComcoTiming::i82596(),
        ),
        (
            "NTI triggers (steps 4/5)",
            TimestampMode::Hardware,
            false,
            ComcoTiming::i82596(),
        ),
        (
            "NTI triggers (steps 4/5)",
            TimestampMode::Hardware,
            true,
            ComcoTiming::i82596(),
        ),
        (
            "NTI + on-chip-storage",
            TimestampMode::Hardware,
            false,
            ComcoTiming::onchip_storage(),
        ),
    ];
    let mut hw_idle = f64::NAN;
    for (name, mode, loaded, comco) in cases {
        let r = run(mode, loaded, comco, &obs);
        record(
            "e1_epsilon",
            &format!("{name}/{}", if loaded { "busy" } else { "idle" }),
            &r.to_json(),
        );
        if name.starts_with("NTI triggers") && !loaded {
            hw_idle = r.eps_spread_s;
            // The headline operating point lands one line in the
            // BENCH_precision.json trajectory (with per-hop p99s when
            // observability was requested).
            record_precision("e1_epsilon", "NTI triggers/idle", &r, &obs);
        }
        println!(
            "{:<26} {:>6} {:>14} {:>14} {:>10}",
            name,
            if loaded { "busy" } else { "idle" },
            eng(r.eps_spread_s),
            eng(r.eps_std_s),
            r.eps_samples
        );
    }
    // Figure: the NTI idle case once more, metrics on, so that its
    // registry histogram holds this case's stamp-pair delays alone.
    let fig = SimObserver::enabled();
    run(TimestampMode::Hardware, false, ComcoTiming::i82596(), &fig);
    let eps = fig
        .hist(MetricKey::global("cluster", "eps_delay_ns"))
        .expect("metrics on");
    println!();
    println!(
        "NTI idle: stamp-pair delay histogram (buckets up to {:.1} % of the delay wide):",
        eps.relative_error() * 100.0
    );
    let peak = eps.nonzero_buckets().map(|(_, c)| c).max().unwrap_or(1);
    for (upper, c) in eps.nonzero_buckets() {
        let bar = "#".repeat((c * 50 / peak) as usize);
        println!("  <= {:>9.3}us {c:>8} {bar}", upper as f64 / 1e3);
    }
    println!();
    println!(
        "NTI idle ε spread = {} -> {}",
        eng(hw_idle),
        if hw_idle < 1e-6 {
            "WELL BELOW 1 us (paper claim reproduced)"
        } else {
            "above 1 us (!)"
        }
    );
    opts.finish(&obs);
}
