//! Ensemble shapes and timed, observed runs of the simulator, driven
//! only through `Cluster`'s public API.

use crate::pace::{Pace, Reference};
use crate::probe::{fnv1a, FNV_OFFSET};
use crate::spans::Spans;
use nti_core::cluster::{Cluster, ClusterConfig, Report};
use nti_netsim::Topology;
use nti_obs::{keys, MetricHandle, SimObserver, Subsystem};
use nti_simcore::{SimDuration, SimTime};
use std::time::Instant;

/// The ensemble a workload simulates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Shape {
    /// `default_lan(128)` for 20 sim-s: one segment, reception-heavy.
    Lan128,
    /// `mesh_tree(5, 2, 2)` (31 segments, 92 nodes, 30 bridge gateways),
    /// f = 0, no rate sync, 600 sim-s: transmit-heavy, many small media.
    Mesh,
    /// `default_lan(8)`: the ensemble the NTP front-end serves from.
    Lan8,
}

impl Shape {
    /// The configuration for `seed` (observability off).
    pub fn config(self, seed: u64) -> ClusterConfig {
        let mut cfg = match self {
            Shape::Lan128 => ClusterConfig::default_lan(128, seed),
            Shape::Mesh => {
                let mut c = ClusterConfig::default_lan(0, seed);
                c.topology = Topology::mesh_tree(5, 2, 2);
                c.f = 0;
                c.rate_sync = false;
                c
            }
            Shape::Lan8 => ClusterConfig::default_lan(8, seed),
        };
        let secs = match self {
            Shape::Lan128 => 20,
            Shape::Mesh => 600,
            Shape::Lan8 => 60,
        };
        // The experiments' duration/warm-up split (warm-up = a third).
        cfg.duration = SimDuration::from_secs(secs);
        cfg.warmup = SimDuration::from_fs(cfg.duration.as_fs() / 3);
        cfg
    }
}

/// Hash of the report's JSON form: equal fingerprints, equal behaviour.
pub fn fingerprint(report: &Report) -> u64 {
    fnv1a(FNV_OFFSET, report.to_json().to_string().as_bytes())
}

/// One complete run, driven round by round.
#[derive(Debug)]
pub struct Run {
    /// Wall time of each round (the sum of its `advance_until` calls).
    pub round_s: Vec<f64>,
    /// Wall time of each `advance_until` call: one per round, or
    /// [`CALLS_PER_ROUND`] per round in a run paced by a reference.
    pub call_s: Vec<f64>,
    /// `Cluster::finish` wall time.
    pub finish_s: f64,
    /// With a reference: the host's slowdown around each block of calls.
    pub pace: Option<Pace>,
    /// The final report.
    pub report: Report,
    /// [`fingerprint`] of `report`.
    pub fingerprint: u64,
}

impl Run {
    /// Wall time of the simulation proper (rounds plus finish).
    pub fn wall_s(&self) -> f64 {
        self.round_s.iter().sum::<f64>() + self.finish_s
    }

    /// Each call's wall time scaled to the reference speed, then the
    /// scaled finish (raw times when the run had no reference).
    pub fn scaled_s(&self) -> (Vec<f64>, f64) {
        let Some(p) = &self.pace else {
            return (self.call_s.clone(), self.finish_s);
        };
        let mut b = 0;
        let calls = (0..self.call_s.len())
            .map(|k| {
                while k >= p.block_end[b] {
                    b += 1;
                }
                self.call_s[k] / p.block(b)
            })
            .collect();
        let last = p.block_end.len() - 1;
        (calls, self.finish_s / p.block(last))
    }

    /// Did the run keep every invariant it checks?
    pub fn clean(&self) -> bool {
        self.report.containment.0 == 0 && self.report.monitor_violations == 0
    }
}

/// Wall time of the program between two gauges of the host's speed.
const BLOCK_S: f64 = 0.01;

/// `advance_until` calls per round in a paced run, so that a block can
/// end inside a long round.
pub const CALLS_PER_ROUND: usize = 8;

/// Build the cluster and advance it one round period at a time to the
/// configured duration, timing each call. With `spans`, each call is
/// also recorded as a span under `parent`. With a `reference`, each
/// round is advanced in [`CALLS_PER_ROUND`] equal steps, and a slice of
/// the reference runs before the first call and after every [`BLOCK_S`]
/// of calls (the last block takes in `Cluster::finish`).
pub fn run(
    cfg: ClusterConfig,
    spans: Option<(&mut Spans, usize)>,
    reference: Option<&mut Reference>,
) -> Run {
    let calls_per_round = if reference.is_some() {
        CALLS_PER_ROUND
    } else {
        1
    };
    let step = SimDuration::from_fs(cfg.round_period.as_fs() / calls_per_round as u128);
    let end = SimTime::ZERO + cfg.duration;
    let mut spans = spans;
    let mut reference = reference;
    let mut pace = Pace::default();
    let mut gauge = |pace: &mut Pace, end: usize| {
        if let Some(r) = reference.as_mut() {
            if end > 0 {
                pace.block_end.push(end);
            }
            pace.slowdown.push(r.slowdown());
        }
    };
    gauge(&mut pace, 0);
    let t0 = Instant::now();
    let mut cluster = Cluster::new(cfg);
    let setup = t0.elapsed();
    if let Some((s, parent)) = spans.as_mut() {
        s.record("Cluster::new", Some(*parent), t0, setup);
    }
    let mut call_s = Vec::new();
    let mut block = 0.0;
    let mut t = SimTime::ZERO;
    while t < end {
        t = (t + step).min(end);
        let r0 = Instant::now();
        cluster.advance_until(t);
        let d = r0.elapsed();
        call_s.push(d.as_secs_f64());
        if let Some((s, parent)) = spans.as_mut() {
            s.record("Cluster::advance_until", Some(*parent), r0, d);
        }
        block += d.as_secs_f64();
        if block >= BLOCK_S && t < end {
            gauge(&mut pace, call_s.len());
            block = 0.0;
        }
    }
    let f0 = Instant::now();
    let (report, _) = cluster.finish();
    let finish = f0.elapsed();
    if let Some((s, parent)) = spans.as_mut() {
        s.record("Cluster::finish", Some(*parent), f0, finish);
    }
    gauge(&mut pace, call_s.len());
    let fingerprint = fingerprint(&report);
    Run {
        round_s: call_s
            .chunks(calls_per_round)
            .map(|c| c.iter().sum())
            .collect(),
        call_s,
        finish_s: finish.as_secs_f64(),
        pace: (!pace.slowdown.is_empty()).then_some(pace),
        report,
        fingerprint,
    }
}

/// Untimed builds before [`setup_times`] starts timing. The first builds
/// of a fresh process vary several-fold while the allocator takes memory
/// from the system; after a few, the median of the timed builds varied
/// about half as much from process to process.
const SETUP_WARMUP: usize = 20;

/// `Cluster::new` wall times of `reps` fresh builds of `cfg`. They are
/// not scaled to the reference speed: across fresh processes on a
/// drifting host, raw medians of `sim-mesh` builds varied ±4 % while the
/// reference's gauge varied ±12 %, so scaling only added the gauge's
/// drift.
pub fn setup_times(cfg: &ClusterConfig, reps: usize) -> Vec<f64> {
    for _ in 0..SETUP_WARMUP {
        drop(std::hint::black_box(Cluster::new(cfg.clone())));
    }
    (0..reps)
        .map(|_| {
            let cfg = cfg.clone();
            let t0 = Instant::now();
            let cluster = Cluster::new(cfg);
            let d = t0.elapsed().as_secs_f64();
            drop(std::hint::black_box(cluster));
            d
        })
        .collect()
}

/// A robust total wall time over repeated runs of one configuration: the
/// median of each call's scaled wall time across runs, summed, plus the
/// median scaled finish. A transient stall inflates one run's call, not
/// the sum.
pub fn robust_wall_s(runs: &[Run]) -> f64 {
    let scaled: Vec<(Vec<f64>, f64)> = runs.iter().map(Run::scaled_s).collect();
    let Some((first, _)) = scaled.first() else {
        return 0.0;
    };
    let rounds: f64 = (0..first.len())
        .map(|k| {
            let xs: Vec<f64> = scaled
                .iter()
                .filter_map(|(r, _)| r.get(k).copied())
                .collect();
            crate::stats::median(&xs)
        })
        .sum();
    let finish: Vec<f64> = scaled.iter().map(|(_, f)| *f).collect();
    rounds + crate::stats::median(&finish)
}

/// Counts the program exports through its observer registry after an
/// observed run.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Counts {
    /// Engine events fired.
    pub events: u64,
    /// Engine events effectively cancelled.
    pub cancels: u64,
    /// Mean live queue depth sampled after each fired event.
    pub queue_depth_mean: f64,
    /// Medium grants (one per transmission per segment).
    pub grants: u64,
    /// Grants that had to defer behind a busy channel.
    pub deferrals: u64,
    /// UTCSU timestamp triggers of every kind.
    pub triggers: u64,
    /// Kernel packet interrupts (ISR entries).
    pub isrs: u64,
    /// Convergence-function rounds (one per node per round).
    pub cf_rounds: u64,
    /// CSPs sent (one per transmission per segment).
    pub csps_sent: u64,
    /// CSP receptions (delivered plus dropped).
    pub receptions: u64,
}

/// Read [`Counts`] off an enabled observer and the run's report.
pub fn counts(obs: &SimObserver, report: &Report) -> Counts {
    let Some(core) = obs.core() else {
        return Counts::default();
    };
    let reg = &core.registry;
    let counter = |sub: &str, name: &str| -> u64 {
        reg.entries()
            .iter()
            .filter(|(k, _)| k.subsystem == sub && k.name == name)
            .map(|(_, h)| match h {
                MetricHandle::Counter(c) => c.get(),
                _ => 0,
            })
            .sum()
    };
    let get = |key| reg.find_counter(key).map_or(0, |c| c.get());
    Counts {
        events: get(keys::engine_events_fired()),
        cancels: get(keys::engine_events_cancelled()),
        queue_depth_mean: reg
            .find_hist(keys::engine_queue_depth())
            .map_or(0.0, |h| h.mean()),
        grants: counter("net", "grants"),
        deferrals: counter("net", "deferrals"),
        triggers: counter("utcsu", "triggers"),
        isrs: reg.merged_hist("kernel", "isr_entry_ns").count(),
        cf_rounds: reg.merged_hist("cluster", "cf_input_spread_ns").count(),
        csps_sent: report.csps.0,
        receptions: report.csps.1 + report.csps.2,
    }
}

/// An observer with the metric registry on and, when `trace` is set, the
/// trace ring recording every subsystem.
pub fn observer(trace: bool) -> SimObserver {
    if trace {
        SimObserver::with_trace(1 << 16, Subsystem::mask_from_spec("all"))
    } else {
        SimObserver::enabled()
    }
}
