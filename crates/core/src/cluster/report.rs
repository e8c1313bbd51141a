//! Run-wide measurement accumulators and the final [`Report`].

use super::*;

/// Run-wide measurement accumulators. The summaries keep no samples, so
/// these hold the same memory however long the run. The CSP and violation
/// counts are their only store: `World::flush_obs` publishes them into the
/// observer's `cluster/csps_*` and `monitor/viol_*` counters.
#[derive(Debug, Default)]
pub struct Metrics {
    /// Per-snapshot maximum pairwise clock difference (s).
    pub precision: Summary,
    /// Per-snapshot per-node |C − t| (s).
    pub true_error: Summary,
    /// Per-snapshot per-node max(α⁻, α⁺) (s).
    pub alpha: Summary,
    /// Stamp-pair delays (s) — ε is this distribution's spread.
    pub eps_delay: Summary,
    /// Containment checks that failed (`t ∉ A(t)`).
    pub containment_violations: u64,
    /// Containment checks performed.
    pub containment_checks: u64,
    /// CSPs broadcast.
    pub csps_sent: u64,
    /// CSP receptions processed.
    pub csps_delivered: u64,
    /// CSP receptions dropped, all causes (= crc + overrun + injected).
    pub csps_dropped: u64,
    /// … of which CRC-discarded frames (trigger fired, frame bad).
    pub csps_dropped_crc: u64,
    /// … of which receive-latch overruns and memory-path losses (the stamp
    /// could not be attributed to its frame).
    pub csps_dropped_overrun: u64,
    /// … of which fault-plan injections (packet loss, partitions, missed
    /// triggers).
    pub csps_dropped_injected: u64,
    /// Node crashes executed by the fault plan.
    pub crashes: u64,
    /// Restarted nodes that completed reintegration (first successful
    /// convergence after the cold restart).
    pub rejoins: u64,
    /// Post-rejoin α trajectories, one entry per restart (**every**
    /// restart of a node opens its own trajectory; a node crashing again
    /// mid-recovery closes the open one as interrupted).
    pub rejoin_alpha: Vec<RejoinTrajectory>,
    /// Churn-plan joins executed.
    pub joins: u64,
    /// Churn-plan leaves executed.
    pub leaves: u64,
    /// Churn-plan LAN moves executed.
    pub moves: u64,
    /// Background frames generated.
    pub bg_frames: u64,
    /// Effective rate spread (max−min, ppm) at the last snapshot.
    pub rate_spread_ppm_last: f64,
    /// Cross-node spread of APU stamps of the same physical event (s).
    pub app_event_spread: Summary,
    /// Cross-node spread of synchronized duty-timer actuations (s).
    pub actuation_spread: Summary,
    /// Sum of GPS validation stats over nodes (filled at teardown).
    pub gps_accepted: u64,
    /// Rejected external intervals.
    pub gps_rejected: u64,
    /// Invariant violations per check, index-aligned with
    /// `VIOLATION_NAMES`: containment, precision, monotonicity, trigger
    /// latency and holdover containment. Counted with metrics on or off.
    pub violations: [u64; VIOLATION_NAMES.len()],
}

/// Registry names of [`Metrics::csp_counts`], index-aligned: each is
/// published as the `cluster/<name>` counter.
pub(super) const CSP_COUNT_NAMES: [&str; 6] = [
    "csps_sent",
    "csps_delivered",
    "csps_dropped",
    "csps_dropped_crc",
    "csps_dropped_overrun",
    "csps_dropped_injected",
];

/// Registry names of [`Metrics::violations`], index-aligned: each is
/// published as the `monitor/<name>` counter and traced as a value event
/// of that kind, whose value is the observed quantity minus its bound.
pub(super) const VIOLATION_NAMES: [&str; 5] = [
    "viol_containment",
    "viol_precision",
    "viol_monotonic",
    "viol_trigger_latency",
    "viol_holdover_containment",
];

/// Reference time outside a synchronized node's accuracy interval.
pub(super) const VIOL_CONTAINMENT: usize = 0;
/// Worst pairwise clock difference above `ClusterConfig::precision_budget`.
pub(super) const VIOL_PRECISION: usize = 1;
/// An amortized clock read earlier than at the previous snapshot.
pub(super) const VIOL_MONOTONIC: usize = 2;
/// A stamp-pair delay above the static bound `delay_max`.
pub(super) const VIOL_TRIGGER_LATENCY: usize = 3;
/// Reference time outside a holdover node's accuracy interval.
pub(super) const VIOL_HOLDOVER_CONTAINMENT: usize = 4;

impl Metrics {
    /// The CSP counts, index-aligned with [`CSP_COUNT_NAMES`].
    pub(super) fn csp_counts(&self) -> [u64; CSP_COUNT_NAMES.len()] {
        [
            self.csps_sent,
            self.csps_delivered,
            self.csps_dropped,
            self.csps_dropped_crc,
            self.csps_dropped_overrun,
            self.csps_dropped_injected,
        ]
    }
}

/// One restarted node's post-rejoin α recovery trajectory.
#[derive(Clone, Debug, Default)]
pub struct RejoinTrajectory {
    /// Which node restarted.
    pub node: usize,
    /// `max(α⁻, α⁺)` in seconds after each post-rejoin convergence, from
    /// the acquisition round on (capped at [`REJOIN_TRACK_ROUNDS`]).
    pub alpha: Vec<f64>,
    /// The node crashed (or left) again before the tracking window closed:
    /// this restart never recovered.
    pub interrupted: bool,
}

/// How many post-rejoin convergence rounds of α are recorded per restart.
pub const REJOIN_TRACK_ROUNDS: usize = 12;

/// Final report of a run.
#[derive(Clone, Debug)]
pub struct Report {
    /// Worst observed pairwise clock difference (s).
    pub worst_precision_s: f64,
    /// Mean of per-snapshot precision (s).
    pub mean_precision_s: f64,
    /// Worst observed |C − t| (s).
    pub worst_accuracy_s: f64,
    /// Mean claimed accuracy bound (s).
    pub mean_alpha_s: f64,
    /// Worst claimed accuracy bound (s).
    pub worst_alpha_s: f64,
    /// ε: spread (max − min) of the stamp-pair delay (s).
    pub eps_spread_s: f64,
    /// Standard deviation of the stamp-pair delay (s).
    pub eps_std_s: f64,
    /// Stamp-pair delay sample count.
    pub eps_samples: usize,
    /// Containment violations / checks.
    pub containment: (u64, u64),
    /// CSPs sent / delivered / dropped.
    pub csps: (u64, u64, u64),
    /// Dropped-CSP attribution: CRC / latch-overrun / fault-injected.
    pub csp_drop_causes: (u64, u64, u64),
    /// Node crashes / completed reintegrations.
    pub churn: (u64, u64),
    /// Churn-plan joins / leaves / LAN moves executed.
    pub membership: (u64, u64, u64),
    /// Worst number of post-rejoin convergence rounds any restarted node
    /// needed to shrink α below 10× its steady-state value (−1 when no
    /// restart completed or a trajectory never recovered). Interrupted
    /// trajectories (crashed again mid-recovery) are excluded here; see
    /// `rejoin_recoveries`.
    pub rejoin_recovery_rounds: i64,
    /// Per-restart recovery rounds, one entry per restart in lifecycle
    /// order (−1: interrupted by another crash/leave, or never recovered).
    pub rejoin_recoveries: Vec<i64>,
    /// Final health state per node (`HealthState::name` strings).
    pub final_states: Vec<&'static str>,
    /// Health-state transitions summed over nodes.
    pub health_transitions: u64,
    /// Rounds spent frozen in holdover, summed over nodes.
    pub holdover_rounds: u64,
    /// Congestion-marked CSPs seen / accepted discounted / discarded,
    /// summed over nodes.
    pub congestion: (u64, u64, u64),
    /// GPS intervals accepted / rejected by validation.
    pub gps: (u64, u64),
    /// Effective rate spread at the end (ppm).
    pub rate_spread_ppm: f64,
    /// Convergence-function failures summed over nodes.
    pub cf_failures: u64,
    /// Worst cross-node spread of APU stamps of one physical event (s),
    /// and the number of events measured.
    pub app_events: (f64, usize),
    /// Worst cross-node spread of synchronized duty-timer actuations (s),
    /// and the number of actuations measured.
    pub actuations: (f64, usize),
    /// Invariant violations summed over the five checks (containment,
    /// precision, monotonicity, trigger latency, holdover containment);
    /// the same with metrics on or off.
    pub monitor_violations: u64,
}

impl Report {
    /// Machine-readable form of the report (field names match the struct).
    pub fn to_json(&self) -> nti_obs::Json {
        use nti_obs::Json;
        Json::obj([
            ("worst_precision_s", Json::num(self.worst_precision_s)),
            ("mean_precision_s", Json::num(self.mean_precision_s)),
            ("worst_accuracy_s", Json::num(self.worst_accuracy_s)),
            ("mean_alpha_s", Json::num(self.mean_alpha_s)),
            ("worst_alpha_s", Json::num(self.worst_alpha_s)),
            ("eps_spread_s", Json::num(self.eps_spread_s)),
            ("eps_std_s", Json::num(self.eps_std_s)),
            ("eps_samples", Json::num(self.eps_samples as f64)),
            (
                "containment",
                Json::Arr(vec![
                    Json::num(self.containment.0 as f64),
                    Json::num(self.containment.1 as f64),
                ]),
            ),
            (
                "csps",
                Json::Arr(vec![
                    Json::num(self.csps.0 as f64),
                    Json::num(self.csps.1 as f64),
                    Json::num(self.csps.2 as f64),
                ]),
            ),
            (
                "csp_drop_causes",
                Json::Arr(vec![
                    Json::num(self.csp_drop_causes.0 as f64),
                    Json::num(self.csp_drop_causes.1 as f64),
                    Json::num(self.csp_drop_causes.2 as f64),
                ]),
            ),
            (
                "churn",
                Json::Arr(vec![
                    Json::num(self.churn.0 as f64),
                    Json::num(self.churn.1 as f64),
                ]),
            ),
            (
                "membership",
                Json::Arr(vec![
                    Json::num(self.membership.0 as f64),
                    Json::num(self.membership.1 as f64),
                    Json::num(self.membership.2 as f64),
                ]),
            ),
            (
                "rejoin_recovery_rounds",
                Json::num(self.rejoin_recovery_rounds as f64),
            ),
            (
                "rejoin_recoveries",
                Json::Arr(
                    self.rejoin_recoveries
                        .iter()
                        .map(|&r| Json::num(r as f64))
                        .collect(),
                ),
            ),
            (
                "final_states",
                Json::Arr(self.final_states.iter().map(|&s| Json::str(s)).collect()),
            ),
            (
                "health_transitions",
                Json::num(self.health_transitions as f64),
            ),
            ("holdover_rounds", Json::num(self.holdover_rounds as f64)),
            (
                "congestion",
                Json::Arr(vec![
                    Json::num(self.congestion.0 as f64),
                    Json::num(self.congestion.1 as f64),
                    Json::num(self.congestion.2 as f64),
                ]),
            ),
            (
                "gps",
                Json::Arr(vec![
                    Json::num(self.gps.0 as f64),
                    Json::num(self.gps.1 as f64),
                ]),
            ),
            ("rate_spread_ppm", Json::num(self.rate_spread_ppm)),
            ("cf_failures", Json::num(self.cf_failures as f64)),
            (
                "app_events",
                Json::Arr(vec![
                    Json::num(self.app_events.0),
                    Json::num(self.app_events.1 as f64),
                ]),
            ),
            (
                "actuations",
                Json::Arr(vec![
                    Json::num(self.actuations.0),
                    Json::num(self.actuations.1 as f64),
                ]),
            ),
            (
                "monitor_violations",
                Json::num(self.monitor_violations as f64),
            ),
        ])
    }
}

/// Sum the per-node counters into the metrics and build the report.
pub(super) fn finalize(w: &mut World) -> Report {
    for n in &w.nodes {
        w.metrics.gps_accepted += n.vstats.accepted;
        w.metrics.gps_rejected += n.vstats.rejected;
    }
    let cf_failures = w.nodes.iter().map(|n| n.core.cf_failures).sum();
    let final_states: Vec<&'static str> = w.nodes.iter().map(|n| n.health.state().name()).collect();
    let health_transitions = w.nodes.iter().map(|n| n.health.transitions()).sum();
    let holdover_rounds = w.nodes.iter().map(|n| n.health.holdover_rounds()).sum();
    let congestion = w.nodes.iter().fold((0, 0, 0), |acc, n| {
        (
            acc.0 + n.core.csps_marked,
            acc.1 + n.core.csps_discounted,
            acc.2 + n.core.csps_discarded,
        )
    });
    let m = &mut w.metrics;
    Report {
        worst_precision_s: m.precision.max(),
        mean_precision_s: m.precision.mean(),
        worst_accuracy_s: m.true_error.max(),
        mean_alpha_s: m.alpha.mean(),
        worst_alpha_s: m.alpha.max(),
        eps_spread_s: if m.eps_delay.count() > 1 {
            m.eps_delay.max() - m.eps_delay.min()
        } else {
            0.0
        },
        eps_std_s: m.eps_delay.std_dev(),
        eps_samples: m.eps_delay.count(),
        containment: (m.containment_violations, m.containment_checks),
        csps: (m.csps_sent, m.csps_delivered, m.csps_dropped),
        csp_drop_causes: (
            m.csps_dropped_crc,
            m.csps_dropped_overrun,
            m.csps_dropped_injected,
        ),
        churn: (m.crashes, m.rejoins),
        membership: (m.joins, m.leaves, m.moves),
        rejoin_recovery_rounds: rejoin_recovery_rounds(&m.rejoin_alpha),
        rejoin_recoveries: rejoin_recoveries(&m.rejoin_alpha),
        final_states,
        health_transitions,
        holdover_rounds,
        congestion,
        gps: (m.gps_accepted, m.gps_rejected),
        rate_spread_ppm: m.rate_spread_ppm_last,
        cf_failures,
        app_events: (m.app_event_spread.max(), m.app_event_spread.count()),
        actuations: (m.actuation_spread.max(), m.actuation_spread.count()),
        monitor_violations: m.violations.iter().sum(),
    }
}

/// Rounds-to-recover of one completed trajectory: the first convergence
/// (1-based) at which α fell below 10× the trajectory's steady-state (its
/// minimum). `None` for an empty trajectory.
fn recovery_rounds(traj: &[f64]) -> Option<i64> {
    let steady = traj.iter().copied().reduce(f64::min)?;
    traj.iter()
        .position(|&a| a <= steady * 10.0)
        .map(|i| i as i64 + 1)
}

/// Worst rounds-to-recover over all *completed* post-rejoin trajectories
/// (interrupted restarts are excluded — they never had a chance). −1 when
/// no trajectory recovered or none was recorded.
fn rejoin_recovery_rounds(trajectories: &[RejoinTrajectory]) -> i64 {
    let mut worst: i64 = -1;
    for t in trajectories {
        if t.interrupted {
            continue;
        }
        match recovery_rounds(&t.alpha) {
            Some(r) => worst = worst.max(r),
            None if t.alpha.is_empty() => continue,
            None => return -1,
        }
    }
    worst
}

/// Per-restart recovery rounds in lifecycle order — **every** restart gets
/// an entry, −1 marking trajectories that were interrupted by another
/// crash/leave or never recovered.
fn rejoin_recoveries(trajectories: &[RejoinTrajectory]) -> Vec<i64> {
    trajectories
        .iter()
        .map(|t| {
            if t.interrupted {
                -1
            } else {
                recovery_rounds(&t.alpha).unwrap_or(-1)
            }
        })
        .collect()
}
