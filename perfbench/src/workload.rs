//! The three workloads: what each measures end to end (`--trace 0`) and
//! layer by layer (`--trace 1`).

use crate::client::Tally;
use crate::pace::Reference;
use crate::probe;
use crate::replay;
use crate::serve::{self, Plan};
use crate::sim::{self, Run, Shape};
use crate::spans::Spans;
use crate::stats::{median, quantile, tail_quantile, Metrics};
use nti_core::cluster::Cluster;
use nti_obs::{Json, SimObserver};
use nti_serve::telemetry::STAGES;
use nti_serve::TelemetryConfig;
use nti_simcore::{SimDuration, SimTime};
use std::time::{Duration, Instant};

/// A named workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// 128-node LAN, 20 sim-s.
    SimLan128,
    /// 92-node mesh of 31 segments, 600 sim-s.
    SimMesh,
    /// NTP front-end over an 8-node LAN ensemble.
    ServeNtp,
}

impl Workload {
    /// Parse a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "sim-lan128" => Some(Workload::SimLan128),
            "sim-mesh" => Some(Workload::SimMesh),
            "serve-ntp" => Some(Workload::ServeNtp),
            _ => None,
        }
    }

    /// The ensemble this workload simulates.
    pub fn shape(self) -> Shape {
        match self {
            Workload::SimLan128 => Shape::Lan128,
            Workload::SimMesh => Shape::Mesh,
            Workload::ServeNtp => Shape::Lan8,
        }
    }
}

/// Open-loop rates of the serving workload (queries/s).
pub const LIGHT_QPS: f64 = 2_000.0;
/// See [`LIGHT_QPS`].
pub const HEAVY_QPS: f64 = 10_000.0;

/// The result of one benchmark run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every output check passed.
    pub correct: bool,
    /// Operations attempted (simulation runs, or queries).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// The metrics of the run, in print order.
    pub metrics: Metrics,
    /// Details for the record line: fingerprints, counts, ratio bases.
    pub details: Vec<(&'static str, Json)>,
    /// Which of the program's observability the measured runs had on.
    pub obs: &'static str,
}

/// `--trace 0`: the end-to-end metrics, measured for about `seconds`.
pub fn end_to_end(w: Workload, seed: u64, seconds: f64) -> std::io::Result<Outcome> {
    match w {
        Workload::ServeNtp => serve_end_to_end(seed, seconds),
        _ => Ok(sim_end_to_end(w.shape(), seed, seconds)),
    }
}

fn sim_end_to_end(shape: Shape, seed: u64, seconds: f64) -> Outcome {
    let cfg = shape.config(seed);
    let setup = sim::setup_times(&cfg, 101);
    let mut reference = Reference::new();
    let sim_s = cfg.duration.as_secs_f64();
    let t0 = Instant::now();
    let (mut off, mut on) = (Vec::new(), Vec::new());
    // Pairs of runs until the next pair would overrun `seconds` (at
    // least two pairs).
    loop {
        off.push(sim::run(cfg.clone(), None, Some(&mut reference)));
        let mut c = cfg.clone();
        c.obs = SimObserver::enabled();
        on.push(sim::run(c, None, Some(&mut reference)));
        let spent = t0.elapsed().as_secs_f64();
        let pairs = off.len() as f64;
        if pairs >= 2.0 && spent * (pairs + 1.0) / pairs > seconds {
            break;
        }
    }
    let mut out = sim_outcome(&off, &on);
    out.obs = "alternate runs: off, metrics";
    let m = &mut out.metrics;
    m.put("setup_s", median(&setup), "s");
    m.put("peak_rss_mb", probe::peak_rss_mb(), "MB");
    m.put("sim_rate", sim_s / sim::robust_wall_s(&off), "sim-s/s");
    m.put("sim_rate_obs", sim_s / sim::robust_wall_s(&on), "sim-s/s");
    let raw = |runs: &[Run]| {
        let walls: Vec<f64> = runs.iter().map(Run::wall_s).collect();
        Json::num(sim_s / median(&walls))
    };
    let slowdowns: Vec<f64> = off
        .iter()
        .chain(&on)
        .filter_map(|r| r.pace.as_ref())
        .flat_map(|p| p.slowdown.iter().copied())
        .collect();
    out.details.extend([
        ("runs_per_mode", Json::num(off.len() as f64)),
        (
            "unscaled_sim_rate",
            Json::obj([("off", raw(&off)), ("metrics", raw(&on))]),
        ),
        (
            "host_slowdown",
            Json::obj([
                ("p10", Json::num(quantile(&slowdowns, 0.1))),
                ("p50", Json::num(median(&slowdowns))),
                ("p90", Json::num(quantile(&slowdowns, 0.9))),
                ("gauges", Json::num(slowdowns.len() as f64)),
            ]),
        ),
    ]);
    out
}

/// Correctness over repeated runs of one seed: every run clean, and every
/// run (observed or not) with the same fingerprint.
fn sim_outcome(off: &[Run], on: &[Run]) -> Outcome {
    let first = off[0].fingerprint;
    let bad = off
        .iter()
        .chain(on)
        .filter(|r| !r.clean() || r.fingerprint != first)
        .count() as u64;
    let rep = &off[0].report;
    Outcome {
        correct: bad == 0,
        attempted: (off.len() + on.len()) as u64,
        failed: bad,
        details: vec![
            ("fingerprint", Json::str(format!("{first:016x}"))),
            (
                "containment",
                Json::Arr(vec![
                    Json::num(rep.containment.0 as f64),
                    Json::num(rep.containment.1 as f64),
                ]),
            ),
            (
                "csps",
                Json::Arr(vec![
                    Json::num(rep.csps.0 as f64),
                    Json::num(rep.csps.1 as f64),
                    Json::num(rep.csps.2 as f64),
                ]),
            ),
        ],
        ..Outcome::default()
    }
}

fn serve_end_to_end(seed: u64, seconds: f64) -> std::io::Result<Outcome> {
    let cfg = Shape::Lan8.config(seed);
    let setup = (0..15)
        .map(|_| serve::setup_time(&cfg))
        .collect::<std::io::Result<Vec<f64>>>()?;
    let part = |share: f64| Duration::from_secs_f64(seconds * share);
    let plan = Plan {
        rounds: 5,
        light: (LIGHT_QPS, part(0.25)),
        heavy: (HEAVY_QPS, part(0.25)),
        closed: part(0.2),
        closed_obs: part(0.2),
    };
    let mut spans = Spans::default();
    let obs = SimObserver::enabled();
    let r = serve::run(
        cfg,
        plan,
        TelemetryConfig::default(),
        &obs,
        seed,
        &mut spans,
        None,
    )?;
    let mut out = serve_outcome(&r);
    out.obs = "simulation off; telemetry on for throughput_obs only";
    let m = &mut out.metrics;
    m.put("setup_s", median(&setup), "s");
    m.put("peak_rss_mb", probe::peak_rss_mb(), "MB");
    m.put("serve_qps", r.closed.window_qps(), "1/s");
    m.put("serve_qps_obs", r.closed_obs.window_qps(), "1/s");
    m.put("serve_p50_us.light", median(&latency_us(&r.light)), "us");
    m.put("serve_p50_us.heavy", median(&latency_us(&r.heavy)), "us");
    out.details.push((
        "open_loop_tail_us",
        Json::obj([
            ("light", Json::num(tail_us(&r.light))),
            ("heavy", Json::num(tail_us(&r.heavy))),
        ]),
    ));
    Ok(out)
}

/// An open-loop phase's response times in µs.
fn latency_us(t: &Tally) -> Vec<f64> {
    t.latency_ns.iter().map(|&n| n as f64 / 1e3).collect()
}

/// An open-loop phase's tail response time (µs): the highest percentile
/// with ten samples beyond it.
fn tail_us(t: &Tally) -> f64 {
    let xs = latency_us(t);
    quantile(&xs, tail_quantile(xs.len()))
}

/// Correctness of a serving run: wrong answers (malformed, mismatched,
/// refused, or breaking containment, on the wire or in the simulation)
/// and anything the servers' own counters show refused or rejected make
/// the run incorrect; lost queries count as failed.
fn serve_outcome(r: &serve::ServeRun) -> Outcome {
    let phases = r.phases();
    let sum = |f: fn(&Tally) -> u64| phases.iter().map(|t| f(t)).sum::<u64>();
    let wrong = sum(|t| t.malformed + t.origin_mismatches + t.kod + t.containment_violations)
        + r.ensemble.containment.0
        + r.server.refused;
    let late: Vec<f64> = r.heavy.late_ns.iter().map(|&n| n as f64 / 1e3).collect();
    Outcome {
        correct: wrong == 0,
        attempted: sum(|t| t.sent),
        failed: sum(Tally::failed) + r.ensemble.containment.0,
        details: vec![
            (
                "queries",
                Json::obj([
                    ("sent", Json::num(sum(|t| t.sent) as f64)),
                    ("lost", Json::num(sum(|t| t.lost) as f64)),
                    ("malformed", Json::num(sum(|t| t.malformed) as f64)),
                    (
                        "origin_mismatches",
                        Json::num(sum(|t| t.origin_mismatches) as f64),
                    ),
                    ("kod", Json::num(sum(|t| t.kod) as f64)),
                    (
                        "containment_checks",
                        Json::num(sum(|t| t.containment_checks) as f64),
                    ),
                    (
                        "containment_violations",
                        Json::num(sum(|t| t.containment_violations) as f64),
                    ),
                ]),
            ),
            (
                "server",
                Json::obj([
                    ("queries", Json::num(r.server.queries as f64)),
                    ("responses", Json::num(r.server.responses as f64)),
                    ("refused", Json::num(r.server.refused as f64)),
                ]),
            ),
            (
                "sim_containment",
                Json::Arr(vec![
                    Json::num(r.ensemble.containment.0 as f64),
                    Json::num(r.ensemble.containment.1 as f64),
                ]),
            ),
            ("gen_late_us_max", Json::num(quantile(&late, 1.0))),
        ],
        ..Outcome::default()
    }
}

/// `--trace 1`: the per-layer metrics. The workload's ensemble runs
/// unobserved, observed, and traced; each layer's hot function is
/// replayed standalone on inputs shaped like the run; then the ensemble
/// is served over loopback with the telemetry plane on. Layer shares are
/// call count × replay cost ÷ unobserved wall time; what the replays do
/// not explain is the residual `core.glue_share_est`.
pub fn traced(w: Workload, seed: u64, spans: &mut Spans) -> std::io::Result<Outcome> {
    let cfg = w.shape().config(seed);
    let sim_s = cfg.duration.as_secs_f64();
    let root = spans.open("workload", None);

    let sim_span = spans.open("simulate", Some(root));
    let obs = SimObserver::enabled();
    let with = |o: SimObserver| {
        let mut c = cfg.clone();
        c.obs = o;
        c
    };
    let runs = [
        sim::run(cfg.clone(), Some((spans, sim_span)), None),
        sim::run(with(obs.clone()), Some((spans, sim_span)), None),
        sim::run(with(sim::observer(true)), Some((spans, sim_span)), None),
    ];
    spans.close(sim_span);
    let c = sim::counts(&obs, &runs[1].report);
    let mut out = sim_outcome(&runs[..1], &runs[1..]);
    out.obs = "sim runs: off, metrics, trace ring; serving: telemetry on";
    let wall_ns = runs[0].wall_s() * 1e9;

    let rp = spans.open("replay", Some(root));
    let gap = SimDuration::from_fs((sim_s * 1e15 / c.events.max(1) as f64) as u128);
    let dispatch = replay::dispatch_ns(c.queue_depth_mean.round() as usize, gap, seed);
    let plan_rx = replay::plan_rx_ns(seed);
    let plan_tx = replay::plan_tx_ns(seed);
    let lans = cfg.topology.lan_count() as f64;
    let grant_gap = SimDuration::from_fs((sim_s * 1e15 * lans / c.grants.max(1) as f64) as u128);
    let grant = replay::grant_ns(grant_gap, seed);
    let trigger = replay::trigger_ns();
    let isr = replay::isr_ns(seed);
    let rx_per_csp = c.receptions as f64 / c.csps_sent.max(1) as f64;
    let oa_inputs = rx_per_csp.round() as usize + 1;
    let oa = replay::oa_ns(oa_inputs, cfg.f, seed);
    let update = replay::update_ns();
    let frame = {
        let mut cluster = Cluster::new(cfg.clone());
        cluster.advance_until(SimTime::ZERO + cfg.round_period);
        cluster.status()
    };
    let [decode, classify, check, respond, encode] = replay::serve_ns(&frame);
    spans.close(rp);

    let sv = spans.open("serve", Some(root));
    let tobs = SimObserver::enabled();
    let second = Duration::from_secs(1);
    let plan = Plan {
        rounds: 1,
        light: (LIGHT_QPS, second),
        heavy: (HEAVY_QPS, second),
        closed: second,
        closed_obs: Duration::ZERO,
    };
    let telemetry = serve::telemetry_on(&tobs, 8);
    let r = serve::run(cfg.clone(), plan, telemetry, &tobs, seed, spans, Some(sv))?;
    spans.close(sv);
    spans.close(root);
    let so = serve_outcome(&r);
    out.correct &= so.correct;
    out.attempted += so.attempted;
    out.failed += so.failed;
    out.details.extend(so.details);

    let share = |calls: u64, ns: f64| calls as f64 * ns / wall_ns;
    let shares = [
        share(c.events, dispatch),
        share(c.receptions, plan_rx) + share(c.grants, plan_tx + grant),
        share(c.triggers, trigger),
        share(c.isrs, isr),
        share(c.cf_rounds, oa),
    ];
    let rate = |n: u64| n as f64 / sim_s;
    let off = &runs[0];
    let round_ms: Vec<f64> = off.round_s.iter().map(|s| s * 1e3).collect();
    let m = &mut out.metrics;
    m.put("simcore.events_per_sim_s", rate(c.events), "1/s");
    m.put(
        "simcore.events_per_rx",
        c.events as f64 / c.receptions.max(1) as f64,
        "count",
    );
    m.put("simcore.cancels_per_sim_s", rate(c.cancels), "1/s");
    m.put(
        "simcore.wall_ns_per_event",
        wall_ns / c.events.max(1) as f64,
        "ns",
    );
    m.put("simcore.dispatch_ns", dispatch, "ns");
    m.put("simcore.share_est", shares[0], "ratio");
    m.put("netsim.grants_per_sim_s", rate(c.grants), "1/s");
    m.put("netsim.deferrals_per_sim_s", rate(c.deferrals), "1/s");
    m.put("netsim.plan_rx_ns", plan_rx, "ns");
    m.put("netsim.plan_tx_ns", plan_tx, "ns");
    m.put("netsim.grant_ns", grant, "ns");
    m.put("netsim.share_est", shares[1], "ratio");
    m.put("utcsu.triggers_per_sim_s", rate(c.triggers), "1/s");
    m.put("utcsu.trigger_ns", trigger, "ns");
    m.put("utcsu.share_est", shares[2], "ratio");
    m.put("kernel.isr_per_sim_s", rate(c.isrs), "1/s");
    m.put("kernel.isr_ns", isr, "ns");
    m.put("kernel.share_est", shares[3], "ratio");
    m.put("core.round_wall_ms.p50", median(&round_ms), "ms");
    let tail = tail_quantile(round_ms.len());
    m.put("core.round_wall_ms.tail", quantile(&round_ms, tail), "ms");
    m.put("core.finish_ms", off.finish_s * 1e3, "ms");
    m.put("core.rx_per_csp", rx_per_csp, "count");
    m.put("core.oa_ns", oa, "ns");
    m.put("core.cf_share_est", shares[4], "ratio");
    m.put(
        "core.glue_share_est",
        1.0 - shares.iter().sum::<f64>(),
        "ratio",
    );
    m.put(
        "core.chunk_wall_us",
        median(&r.ensemble.chunk_s) * 1e6,
        "us",
    );
    m.put(
        "obs.overhead_ratio",
        runs[1].wall_s() / off.wall_s(),
        "ratio",
    );
    m.put("obs.update_ns", update, "ns");
    m.put(
        "obs.trace_overhead",
        runs[2].wall_s() / runs[1].wall_s(),
        "ratio",
    );

    let reg = &tobs.core().expect("enabled observer").registry;
    let stages: Vec<_> = STAGES
        .iter()
        .map(|s| (s, reg.merged_hist("serve", &format!("stage_{s}_ns"))))
        .collect();
    let stage_total: u64 = stages.iter().map(|(_, h)| h.sum()).sum();
    for (s, h) in &stages {
        m.put(format!("serve.stage_{s}_ns.mean"), h.mean(), "ns");
        m.put(
            format!("serve.stage_{s}_ns.share"),
            h.sum() as f64 / stage_total.max(1) as f64,
            "ratio",
        );
    }
    m.put("serve.decode_ns", decode, "ns");
    m.put("serve.classify_ns", classify, "ns");
    m.put("serve.check_ns", check, "ns");
    m.put("serve.respond_ns", respond, "ns");
    m.put("serve.encode_ns", encode, "ns");
    let answered = (r.light.received + r.heavy.received + r.closed.received).max(1) as f64;
    let gen_cpu = r.light.cpu_ns + r.heavy.cpu_ns + r.closed.cpu_ns;
    m.put(
        "serve.cpu_us_per_query.shard",
        r.shard_cpu_ns as f64 / answered / 1e3,
        "us",
    );
    m.put(
        "serve.cpu_us_per_query.sim",
        r.sim_cpu_ns as f64 / answered / 1e3,
        "us",
    );
    m.put(
        "serve.cpu_us_per_query.generator",
        gen_cpu as f64 / answered / 1e3,
        "us",
    );
    m.put("serve.tail_us.light", tail_us(&r.light), "us");
    m.put("serve.tail_us.heavy", tail_us(&r.heavy), "us");
    let late: Vec<f64> = r.heavy.late_ns.iter().map(|&n| n as f64 / 1e3).collect();
    m.put("serve.gen_late_us.p99", quantile(&late, 0.99), "us");
    m.put(
        "serve.publishes_per_s",
        r.ensemble.publishes as f64 / r.ensemble.elapsed.as_secs_f64(),
        "1/s",
    );

    out.details.push((
        "bases",
        Json::obj([
            ("sim_s", Json::num(sim_s)),
            ("wall_ns.unobserved", Json::num(wall_ns)),
            ("wall_ns.metrics", Json::num(runs[1].wall_s() * 1e9)),
            ("wall_ns.traced", Json::num(runs[2].wall_s() * 1e9)),
            ("events", Json::num(c.events as f64)),
            ("cancels", Json::num(c.cancels as f64)),
            ("queue_depth_mean", Json::num(c.queue_depth_mean)),
            ("receptions", Json::num(c.receptions as f64)),
            ("csps_sent", Json::num(c.csps_sent as f64)),
            ("grants", Json::num(c.grants as f64)),
            ("deferrals", Json::num(c.deferrals as f64)),
            ("triggers", Json::num(c.triggers as f64)),
            ("isrs", Json::num(c.isrs as f64)),
            ("cf_rounds", Json::num(c.cf_rounds as f64)),
            ("oa_inputs", Json::num(oa_inputs as f64)),
            ("rounds", Json::num(round_ms.len() as f64)),
            ("round_tail_quantile", Json::num(tail)),
            ("queries_answered", Json::num(answered)),
            ("stage_samples", Json::num(stages[0].1.count() as f64)),
            (
                "ensemble_chunks",
                Json::num(r.ensemble.chunk_s.len() as f64),
            ),
        ]),
    ));
    Ok(out)
}
