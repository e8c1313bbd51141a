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
//! [`OBS_GATE_PAIRS`] pairs of `default_lan(16)` clusters over 300 sim-s,
//! one unobserved and one with `SimObserver::enabled()`, advanced in
//! lockstep chunks, failing when the median observed/unobserved wall
//! ratio exceeds [`OBS_GATE_MAX_RATIO`] or an observed cluster reports
//! differently.

use nti_bench::obs_cli::ObsOpts;
use nti_bench::{append_bench, eng, header, record, record_precision, secs, with_duration};
use nti_core::cluster::{Cluster, ClusterConfig, DriftSpec, GpsNodeCfg};
use nti_gps::GpsConfig;
use nti_obs::{Json, SimObserver};
use nti_simcore::{SimDuration, SimTime};
use std::time::Instant;

/// Unobserved/observed cluster pairs the obs gate times.
const OBS_GATE_PAIRS: usize = 7;

/// The largest median observed/unobserved wall ratio the obs gate passes.
const OBS_GATE_MAX_RATIO: f64 = 1.25;

/// Simulated seconds each gate cluster runs.
const OBS_GATE_SIM_S: u64 = 300;

/// Simulated seconds of one lockstep chunk (~10 ms of wall time here).
const OBS_GATE_CHUNK_S: u64 = 10;

/// A gate cluster: `default_lan(16)` over [`OBS_GATE_SIM_S`] (100 s
/// warm-up), unobserved or with metrics on.
fn gate_config(metrics: bool) -> ClusterConfig {
    let mut cfg = ClusterConfig::default_lan(16, 0xE9);
    cfg.duration = SimDuration::from_secs(OBS_GATE_SIM_S);
    cfg.warmup = SimDuration::from_secs(100);
    if metrics {
        cfg.obs = SimObserver::enabled();
    }
    cfg
}

/// Run `step`, adding its wall seconds to `acc`.
fn timed<T>(acc: &mut f64, step: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let out = step();
    *acc += t0.elapsed().as_secs_f64();
    out
}

/// One lockstep pair of gate clusters, `[unobserved, metrics on]`: both
/// are built in this process and advanced by the same
/// [`OBS_GATE_CHUNK_S`] chunk in turn, the first side alternating from
/// chunk to chunk, so host drift lands on both sides alike. Returns each
/// side's summed wall seconds (build, chunks and finish) and report.
fn lockstep_pair() -> ([f64; 2], [String; 2]) {
    let mut wall = [0.0f64; 2];
    let mut clusters =
        [0, 1].map(|side| timed(&mut wall[side], || Cluster::new(gate_config(side == 1))));
    for chunk in 0..OBS_GATE_SIM_S / OBS_GATE_CHUNK_S {
        let until = SimTime::from_secs((chunk + 1) * OBS_GATE_CHUNK_S);
        let order = if chunk % 2 == 0 { [0, 1] } else { [1, 0] };
        for side in order {
            timed(&mut wall[side], || clusters[side].advance_until(until));
        }
    }
    let [off, on] = clusters;
    let reports = [
        timed(&mut wall[0], || off.run()),
        timed(&mut wall[1], || on.run()),
    ];
    (wall, reports.map(|rep| rep.to_json().to_string()))
}

/// `--obs-gate`: time [`OBS_GATE_PAIRS`] lockstep pairs (see
/// [`lockstep_pair`]) of `default_lan(16)` (300 sim-s, 100 s warm-up),
/// print each pair, append the ratios and their median to
/// `BENCH_obs.json`, and exit non-zero when the median exceeds
/// [`OBS_GATE_MAX_RATIO`] or an observed cluster's report differs from
/// its unobserved twin's.
fn obs_gate() -> ! {
    println!(
        "E9 obs gate: default_lan(16), {OBS_GATE_SIM_S} sim-s, unobserved and metrics-on \
         clusters in lockstep {OBS_GATE_CHUNK_S}-sim-s chunks"
    );
    let mut ratios = Vec::with_capacity(OBS_GATE_PAIRS);
    let mut same_reports = true;
    for pair in 1..=OBS_GATE_PAIRS {
        let ([off_s, on_s], [off_rep, on_rep]) = lockstep_pair();
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
        "lockstep chunks: off, metrics",
        &Json::obj([
            ("experiment", Json::str("e9_obs_gate")),
            ("nodes", Json::num(16.0)),
            ("sim_s", Json::num(OBS_GATE_SIM_S as f64)),
            ("chunk_sim_s", Json::num(OBS_GATE_CHUNK_S as f64)),
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
