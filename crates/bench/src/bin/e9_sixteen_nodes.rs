//! **E9 — the 16-node prototype** (paper §4: "a more thorough experimental
//! evaluation … will be conducted on a 16 node prototype distributed
//! system consisting of four MVME-162 with four NTIs each").
//!
//! Runs the 16-node system at three operating points and reports the
//! numbers the authors intended to measure: worst/mean precision, worst
//! accuracy, claimed accuracy bound, ε, and containment — with the paper's
//! full recipe (hardware stamps + OA intervals + rate sync + 16 MHz)
//! landing in the 1 µs range.
//!
//! `--obs-gate` instead runs the CI gate on the simulator's metrics cost:
//! [`OBS_GATE_PAIRS`] pairs of `default_lan(16)` runs over 300 sim-s,
//! unobserved then with `SimObserver::enabled()`, failing when the median
//! observed/unobserved wall ratio exceeds [`OBS_GATE_MAX_RATIO`] or an
//! observed run reports differently.

use nti_bench::obs_cli::ObsOpts;
use nti_bench::{append_bench, eng, header, record, record_precision, secs, with_duration};
use nti_core::cluster::{Cluster, ClusterConfig, DriftSpec, GpsNodeCfg};
use nti_gps::GpsConfig;
use nti_obs::{Json, SimObserver};
use nti_simcore::SimDuration;
use std::time::Instant;

/// Unobserved/observed run pairs the obs gate times.
const OBS_GATE_PAIRS: usize = 7;

/// The largest median observed/unobserved wall ratio the obs gate passes.
const OBS_GATE_MAX_RATIO: f64 = 1.25;

/// `--obs-gate`: time [`OBS_GATE_PAIRS`] alternating unobserved and
/// metrics-on runs of `default_lan(16)` (300 sim-s, 100 s warm-up), print
/// each pair, append the median ratio to `BENCH_obs.json`, and exit
/// non-zero when it exceeds [`OBS_GATE_MAX_RATIO`] or the observed run's
/// report differs from the unobserved one's.
fn obs_gate() -> ! {
    let run = |obs: SimObserver| {
        let mut cfg = ClusterConfig::default_lan(16, 0xE9);
        cfg.duration = SimDuration::from_secs(300);
        cfg.warmup = SimDuration::from_secs(100);
        cfg.obs = obs;
        let t0 = Instant::now();
        let rep = Cluster::new(cfg).run();
        (t0.elapsed().as_secs_f64(), rep.to_json().to_string())
    };
    println!("E9 obs gate: default_lan(16), 300 sim-s, unobserved vs metrics on");
    let mut ratios = Vec::with_capacity(OBS_GATE_PAIRS);
    let mut same_reports = true;
    for pair in 1..=OBS_GATE_PAIRS {
        // Unobserved first: any cross-run warm-up favours the observed
        // run, so the ordering cannot manufacture a pass.
        let (off_s, off_rep) = run(SimObserver::disabled());
        let (on_s, on_rep) = run(SimObserver::enabled());
        same_reports &= off_rep == on_rep;
        let ratio = on_s / off_s;
        println!(
            "pair {pair}: off {:>8.1} ms  on {:>8.1} ms  ratio {ratio:.3}",
            off_s * 1e3,
            on_s * 1e3
        );
        ratios.push(ratio);
    }
    let mut sorted = ratios.clone();
    sorted.sort_by(f64::total_cmp);
    let median = sorted[sorted.len() / 2];
    let pass = median <= OBS_GATE_MAX_RATIO && same_reports;
    append_bench(
        "BENCH_obs.json",
        "alternate runs: off, metrics",
        &Json::obj([
            ("experiment", Json::str("e9_obs_gate")),
            ("nodes", Json::num(16.0)),
            ("sim_s", Json::num(300.0)),
            (
                "ratios",
                Json::Arr(ratios.iter().map(|&r| Json::num(r)).collect()),
            ),
            ("ratio_median", Json::num(median)),
            ("max_ratio", Json::num(OBS_GATE_MAX_RATIO)),
            ("same_reports", Json::Bool(same_reports)),
            ("pass", Json::Bool(pass)),
        ]),
    );
    println!("median observed/unobserved wall ratio {median:.3} (gate <= {OBS_GATE_MAX_RATIO})");
    if !same_reports {
        eprintln!("obs gate FAIL: an observed run reported differently from its unobserved twin");
    }
    if median > OBS_GATE_MAX_RATIO {
        eprintln!("obs gate FAIL: median ratio {median:.3} > {OBS_GATE_MAX_RATIO}");
    }
    if !pass {
        std::process::exit(1);
    }
    println!("obs gate: PASS");
    std::process::exit(0);
}

fn main() {
    if std::env::args().any(|a| a == "--obs-gate") {
        obs_gate();
    }
    let opts = ObsOpts::from_env();
    let obs = opts.observer();
    println!("E9: the 16-node prototype (4 x MVME-162 with 4 NTIs each)");
    println!();
    let h = format!(
        "{:<34} {:>13} {:>13} {:>13} {:>12}",
        "operating point", "prec worst", "prec mean", "eps spread", "containment"
    );
    header(&h);
    let points: Vec<(&str, u64, bool, bool)> = vec![
        // (name, fosc, rate_sync, gps)
        ("10 MHz, no rate sync", 10_000_000, false, false),
        ("16 MHz, rate sync", 16_000_000, true, false),
        ("16 MHz, rate sync + 3 GPS", 16_000_000, true, true),
    ];
    for (name, fosc, rate_sync, gps) in points {
        let mut cfg = with_duration(ClusterConfig::default_lan(16, 0xE9), secs(90, 15));
        cfg.fosc_hz = fosc;
        cfg.rate_sync = rate_sync;
        cfg.f = 2;
        cfg.drift = DriftSpec::RandomWalk {
            rho_max_ppm: 10.0,
            sigma_ppb: 20.0,
            interval: SimDuration::from_millis(200),
        };
        if gps {
            cfg.gps = (0..3)
                .map(|n| GpsNodeCfg {
                    node: n,
                    cfg: GpsConfig::default(),
                })
                .collect();
        }
        cfg.obs = obs.clone();
        let rep = Cluster::new(cfg).run();
        record("e9_sixteen_nodes", name, &rep.to_json());
        record_precision("e9_sixteen_nodes", name, &rep, &obs);
        println!(
            "{:<34} {:>13} {:>13} {:>13} {:>9}/{}",
            name,
            eng(rep.worst_precision_s),
            eng(rep.mean_precision_s),
            eng(rep.eps_spread_s),
            rep.containment.0,
            rep.containment.1
        );
        if gps {
            println!(
                "{:<34} {:>13} (worst |C-t|)  alpha mean {:>10}",
                "  external accuracy:",
                eng(rep.worst_accuracy_s),
                eng(rep.mean_alpha_s)
            );
        }
    }
    println!();
    println!("paper target: worst-case precision/accuracy in the 1 us range with the");
    println!("full recipe — the bottom rows must be sub-/low-microsecond.");
    opts.finish(&obs);
}
