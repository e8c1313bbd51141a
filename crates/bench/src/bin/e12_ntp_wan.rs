//! **E12 — the class-III baseline: NTP over long-haul paths** (paper §1:
//! type-III systems suffer "potentially unbounded and highly variable"
//! queueing delays; NTP reaches "maximum UTC deviations in the 10 ms-range
//! under 'reasonable' conditions" \[Tro94\] — with no deterministic
//! guarantee).
//!
//! A drifting client polls a UTC server every 64 s across a simulated
//! Internet path (queueing + congestion + routing asymmetry) for several
//! simulated hours; the client runs the NTP-style min-δ filter and damped
//! discipline. The UTC deviation distribution is reported per path
//! condition — landing in the ms / 10 ms / >10 ms decades, versus the
//! NTI's µs decade on a LAN.

use nti_bench::obs_cli::ObsOpts;
use nti_bench::{eng, header, parallel_sweep, record_precision, secs, with_duration};
use nti_core::cluster::{BgLoad, Cluster, ClusterConfig, Report};
use nti_core::ntp_sync::NtpClient;
use nti_core::CongestionPolicy;
use nti_netsim::wan::{Direction, WanConfig, WanPath};
use nti_netsim::Topology;
use nti_obs::quantile::percentile_sorted;
use nti_obs::{MetricKey, SimObserver};
use nti_simcore::ntp::NtpTime;
use nti_simcore::{SimDuration, SimRng, SimTime};

/// Simulate `hours` of a client polling across `cfg`; returns the UTC
/// deviations (seconds, absolute values sampled at every poll, in poll
/// order) and their maximum.
fn run(cfg: WanConfig, seed: u64, sim: SimDuration) -> (Vec<f64>, f64) {
    let mut path = WanPath::new(cfg, SimRng::new(seed));
    let mut client = NtpClient::new();
    let mut rng = SimRng::new(seed ^ 0xD15C);
    // Client clock state: offset from UTC (seconds) and drift (s/s).
    let mut offset = rng.uniform(-0.05, 0.05);
    let drift = rng.uniform(-50e-6, 50e-6); // a typical PC crystal
    let poll_every = SimDuration::from_secs(64);
    let mut now = SimTime::ZERO;
    let mut dev = Vec::new();
    let mut worst: f64 = 0.0;
    let end = SimTime::ZERO + sim;
    while now < end {
        // Drift between polls.
        offset += drift * poll_every.as_secs_f64();
        now += poll_every;
        // Four-stamp exchange: T1/T4 on the client clock, T2/T3 on UTC.
        let d_fwd = path.delay(Direction::Forward).as_secs_f64();
        let d_ret = path.delay(Direction::Return).as_secs_f64();
        let t = now.as_secs_f64();
        let t1 = NtpTime::from_sim_time(SimTime::from_fs(((t + offset) * 1e15) as u128));
        let t2 = NtpTime::from_sim_time(SimTime::from_fs(((t + d_fwd) * 1e15) as u128));
        let t3 = NtpTime::from_sim_time(SimTime::from_fs(((t + d_fwd + 0.001) * 1e15) as u128));
        let t4 = NtpTime::from_sim_time(SimTime::from_fs(
            ((t + offset + d_fwd + 0.001 + d_ret) * 1e15) as u128,
        ));
        if let Some(corr) = client.on_poll(t1, t2, t3, t4) {
            // θ = server − client: a positive correction advances the
            // client clock, i.e. increases offset = client − UTC.
            offset += corr as f64 / (1u128 << 59) as f64;
        }
        dev.push(offset.abs());
        worst = worst.max(offset.abs());
    }
    (dev, worst)
}

fn main() {
    let opts = ObsOpts::from_env();
    let obs = opts.observer();
    println!("E12: NTP over long-haul paths — the class-III baseline");
    println!("client: ±50 ppm crystal, 64 s polls, min-δ filter, damped discipline\n");
    let sim = secs(4 * 3600, 1800);
    let h = format!(
        "{:<26} {:>12} {:>12} {:>12} {:>12}",
        "path condition", "mean |C-t|", "p99 |C-t|", "max |C-t|", "decade"
    );
    header(&h);
    let cases: [(&str, WanConfig); 3] = [
        ("light (research net)", WanConfig::internet_light()),
        ("reasonable [Tro94]", WanConfig::internet_reasonable()),
        ("congested", WanConfig::internet_congested()),
    ];
    let mut reasonable_max = 0.0;
    for (case, (name, cfg)) in cases.into_iter().enumerate() {
        let (mut dev, worst) = run(cfg, 0xE12, sim);
        let mean = dev.iter().sum::<f64>() / dev.len() as f64;
        dev.sort_by(f64::total_cmp);
        let p99 = percentile_sorted(&dev, 99.0);
        // Headline deviation per path condition, keyed by the case index
        // as the metric "node" so --obs-summary lists one row per path.
        if let Some(g) = obs.gauge(MetricKey::node(case as u32, "app", "ntp_dev_max_ns")) {
            g.set((worst * 1e9) as i64);
        }
        if let Some(g) = obs.gauge(MetricKey::node(case as u32, "app", "ntp_dev_p99_ns")) {
            g.set((p99 * 1e9) as i64);
        }
        if name.starts_with("reasonable") {
            reasonable_max = worst;
        }
        let decade = if worst < 1e-3 {
            "sub-ms"
        } else if worst < 20e-3 {
            "10 ms-range"
        } else {
            "above 10 ms"
        };
        println!(
            "{:<26} {:>12} {:>12} {:>12} {:>12}",
            name,
            eng(mean),
            eng(p99),
            eng(worst),
            decade
        );
    }
    println!();
    println!(
        "reasonable-path max deviation {} -> {}",
        eng(reasonable_max),
        if (1e-3..30e-3).contains(&reasonable_max) {
            "the paper's '10 ms-range under reasonable conditions' [Tro94]"
        } else {
            "outside the expected decade (!)"
        }
    );
    println!("versus the NTI on a LAN: sub-us (E1/E9) — four orders of magnitude,");
    println!("which is exactly why class-II systems warrant dedicated hardware.");
    println!();
    precision_vs_load(&obs);
    opts.finish(&obs);
}

/// Offered serve loads, as background frames per node per second of
/// 700-byte frames (≈ 560 µs of medium time each at 10 Mb/s). 150 fps per
/// node ≈ 8 % utilization each; 600 fps per node drives the shared
/// segment toward saturation — the regime where a busy front-end's
/// response traffic visibly queues CSPs.
const LOADS: [f64; 3] = [0.0, 150.0, 600.0];

/// ECN marking thresholds on the medium access delay. `None` leaves
/// congestion invisible to the algorithm; 200 µs is the e18 default;
/// 50 µs marks aggressively so even moderate queueing gets discounted.
const ECN: [Option<u64>; 3] = [None, Some(200), Some(50)];

fn load_cell(fps: f64, ecn_us: Option<u64>, obs: &SimObserver) -> (String, Report) {
    let mut cfg = with_duration(ClusterConfig::default_lan(0, 0xE12_10AD), secs(30, 10));
    // The WAN-of-LANs shape from E10: two segments of two ordinary nodes
    // bridged by a gateway — the topology a serving front-end actually
    // sits on, where queueing on the shared media hurts CSPs most.
    cfg.topology = Topology::chain_of_lans(2, 2);
    cfg.rate_sync = true;
    cfg.f = 0; // the bridge must survive the convergence trim (cf. E10)
    if fps > 0.0 {
        cfg.bg_load = Some(BgLoad {
            frames_per_sec: fps,
            frame_bytes: 700,
        });
    }
    if let Some(us) = ecn_us {
        cfg.medium.ecn_threshold = Some(SimDuration::from_micros(us));
        cfg.congestion = CongestionPolicy::Discount { widen_factor: 4 };
    }
    cfg.obs = obs.clone();
    let ecn_label = match ecn_us {
        None => "ecn-off".to_string(),
        Some(us) => format!("ecn-{us}us"),
    };
    let label = format!("serve-load/{fps:.0}fps/{ecn_label}");
    (label, Cluster::new(cfg).run())
}

/// The satellite sweep: what serving-scale background traffic does to the
/// ensemble's precision, with and without ECN-discounted CSPs. Each cell
/// appends one `BENCH_precision.json` row, so the trajectory records how
/// the precision/load trade-off moves as the repo evolves.
fn precision_vs_load(obs: &SimObserver) {
    println!("precision vs offered serve load x ECN (WAN-of-LANs, discount policy)");
    let h = format!(
        "{:<28} {:>12} {:>12} {:>12} {:>12}",
        "cell", "pi worst", "pi mean", "alpha worst", "containment"
    );
    header(&h);
    let cells: Vec<(f64, Option<u64>)> = LOADS
        .iter()
        .flat_map(|&fps| ECN.iter().map(move |&e| (fps, e)))
        .collect();
    let results = parallel_sweep(cells, |(fps, ecn)| load_cell(fps, ecn, obs));
    for (label, rep) in &results {
        record_precision("e12_ntp_wan", label, rep, obs);
        println!(
            "{:<28} {:>12} {:>12} {:>12} {:>9}/{}",
            label,
            eng(rep.worst_precision_s),
            eng(rep.mean_precision_s),
            eng(rep.worst_accuracy_s),
            rep.containment.0,
            rep.containment.1,
        );
        assert_eq!(
            rep.containment.0, 0,
            "containment must hold under serve load ({label})"
        );
    }
    println!();
    println!("reading: load inflates access-delay tails. With ECN armed, the");
    println!("discount policy widens marked CSPs 4x rather than trusting them:");
    println!("pi and alpha grow with offered load, but the claims stay honest —");
    println!("containment holds in every cell, saturation included.");
}
