//! **E2 — precision impairment `4G + 10u`** (paper §5: "clock granularity
//! G and discrete rate adjustment uncertainty u impair the achievable
//! worst case precision by 4G + 10u").
//!
//! Sweeps the stamp granularity G at a fixed oscillator (u fixed) and the
//! oscillator frequency (u = 1/f_osc) at fixed G, measuring achieved
//! worst-case precision with everything else tightly controlled (rate
//! sync on, idle medium). Expectation: precision grows with G and with u;
//! the analytic `4G + 10u` envelope is printed for comparison. Absolute
//! constants differ from the adversarial worst case (we measure a finite
//! run), but the *slope/shape* must track the formula.

use nti_bench::obs_cli::ObsOpts;
use nti_bench::{eng, header, secs, with_duration};
use nti_core::cluster::{Cluster, ClusterConfig};
use nti_obs::SimObserver;
use nti_simcore::SimDuration;

fn run(granularity: SimDuration, fosc: u64, seed: u64, obs: &SimObserver) -> f64 {
    let mut cfg = with_duration(ClusterConfig::default_lan(4, seed), secs(60, 9));
    cfg.obs = obs.clone();
    cfg.granularity = granularity;
    cfg.fosc_hz = fosc;
    cfg.rate_sync = true;
    // Quiet oscillators: the sweep isolates the G/u terms.
    cfg.drift = nti_core::cluster::DriftSpec::ConstantSpread { rho_max_ppm: 2.0 };
    cfg.rho_budget_ppm = 3.0;
    Cluster::new(cfg).run().worst_precision_s
}

fn main() {
    let opts = ObsOpts::from_env();
    let obs = opts.observer();
    println!("E2: precision impairment by granularity G and rate uncertainty u");
    println!("paper: worst-case precision impaired by 4G + 10u\n");

    println!("sweep 1: G at fixed f_osc = 10 MHz (u = 100 ns)");
    let h = format!(
        "{:<12} {:>16} {:>18} {:>8}",
        "G", "measured prec", "4G + 10u envelope", "ratio"
    );
    header(&h);
    let u = 100e-9;
    let mut prev = 0.0;
    let mut monotone = true;
    for g_ns in [60u64, 250, 1000, 4000, 16000] {
        let g = g_ns as f64 * 1e-9;
        let measured = run(SimDuration::from_nanos(g_ns), 10_000_000, 0xE2 + g_ns, &obs);
        let envelope = 4.0 * g + 10.0 * u;
        println!(
            "{:<12} {:>16} {:>18} {:>8.2}",
            eng(g),
            eng(measured),
            eng(envelope),
            measured / envelope
        );
        if g_ns > 60 && measured < prev * 0.8 {
            monotone = false;
        }
        prev = measured;
    }
    println!(
        "-> precision must grow with G: {}",
        if monotone { "ok" } else { "NOT monotone (!)" }
    );

    println!();
    println!("sweep 2: u = 1/f_osc at fixed G = 1 us (CSU-class stamps)");
    let h = format!(
        "{:<12} {:>12} {:>16} {:>18}",
        "f_osc", "u", "measured prec", "4G + 10u envelope"
    );
    header(&h);
    for fosc_mhz in [1u64, 2, 5, 10, 20] {
        let fosc = fosc_mhz * 1_000_000;
        let u = 1.0 / fosc as f64;
        let measured = run(SimDuration::from_micros(1), fosc, 0x2E2 + fosc_mhz, &obs);
        let envelope = 4.0e-6 + 10.0 * u;
        println!(
            "{:<12} {:>12} {:>16} {:>18}",
            format!("{fosc_mhz} MHz"),
            eng(u),
            eng(measured),
            eng(envelope)
        );
    }
    println!();
    println!("shape check: both sweeps must show precision tracking the 4G+10u envelope.");
    opts.finish(&obs);
}
