#![warn(missing_docs)]

//! Deterministic cross-layer fault injection.
//!
//! The paper's central claim is that interval-based synchronization
//! *contains* faults: accuracy intervals deteriorate honestly, clock
//! validation guards external time, and the convergence function masks up to
//! `f` arbitrary participants. This crate provides the machinery to put that
//! claim under stress — a [`FaultPlan`] is a schedule of typed
//! [`FaultEpisode`]s (activation window + target + parameters) that a seeded
//! [`FaultInjector`] applies at every layer of the simulation:
//!
//! | layer          | episode kinds                                            |
//! |----------------|----------------------------------------------------------|
//! | netsim         | [`FaultKind::PacketLoss`], [`FaultKind::PacketDuplicate`], [`FaultKind::PacketDelay`] (asymmetric per direction; jitter reorders), [`FaultKind::Partition`] |
//! | simcore/osc    | [`FaultKind::DriftExcursion`] (temperature steps, frequency glitches) |
//! | nti/comco      | [`FaultKind::MissedTrigger`], [`FaultKind::LateTrigger`] (lost / late timestamps) |
//! | gps            | [`FaultKind::Gps`] (the HS97 catalogue from `nti-gps`)    |
//! | node lifecycle | [`FaultKind::Crash`] (crash at `from`, restart at `until`), [`FaultKind::Byzantine`], [`FaultKind::CrcError`] |
//!
//! All randomness flows from one `SimRng` handed to the injector, split into
//! named per-class streams, so a run with the same seed and the same plan is
//! bit-identical — and a run with an *empty* plan draws nothing at all.
//! Every injected event is observable through `nti-obs` under the `faults`
//! subsystem (episode boundaries, drops, duplicates, missed/late triggers,
//! crashes, rejoins).

use nti_gps::GpsFault;
use nti_obs::{MetricKey, SimObserver, SpanId, Subsystem};
use nti_simcore::{DriftExcursion, SimDuration, SimRng, SimTime};
use std::sync::Arc;

pub mod serve_path;

pub use serve_path::{
    fuzz_corpus, FloodShape, FloodSource, IngressFate, ServeFaultEpisode, ServeFaultInjector,
    ServeFaultKind, ServeFaultPlan,
};

/// "Never": an episode `until` of this value means the fault lasts for the
/// whole run (for [`FaultKind::Crash`]: the node never restarts).
pub const FOREVER: SimTime = SimTime::MAX;

/// What a fault episode applies to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultTarget {
    /// A single node (cluster index).
    Node(usize),
    /// A whole LAN segment (topology index).
    Lan(usize),
    /// Every node / every segment.
    All,
}

impl FaultTarget {
    /// Does this target cover node `n`?
    pub fn covers_node(self, n: usize) -> bool {
        matches!(self, FaultTarget::All) || self == FaultTarget::Node(n)
    }

    /// Does this target cover LAN `l`?
    pub fn covers_lan(self, l: usize) -> bool {
        matches!(self, FaultTarget::All) || self == FaultTarget::Lan(l)
    }
}

/// Which direction of a node's traffic a [`FaultKind::PacketDelay`] affects.
/// Asymmetric path delay (only one direction slowed) is the classic
/// worst case for round-trip-based sync and a first-class scenario here.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    /// Frames the target transmits.
    Tx,
    /// Frames the target receives.
    Rx,
    /// Both directions.
    Both,
}

/// The typed fault taxonomy. Each variant names the layer it is injected at.
#[derive(Clone, Copy, Debug)]
pub enum FaultKind {
    /// netsim: drop each covered reception independently with `rate`.
    PacketLoss {
        /// Per-reception drop probability in `[0, 1]`.
        rate: f64,
    },
    /// netsim: deliver each covered reception twice with `rate` (the copy
    /// arrives one frame-time later — exercising duplicate suppression and
    /// receive-latch pressure).
    PacketDuplicate {
        /// Per-reception duplication probability in `[0, 1]`.
        rate: f64,
    },
    /// netsim: add `extra` (+ uniform `jitter`) one-way delay to covered
    /// receptions. With a node target the `direction` selects transmit-side,
    /// receive-side, or both — asymmetric delay. Jitter makes deliveries
    /// reorder relative to each other. With a LAN target the delay is
    /// applied to the segment's propagation (direction is ignored).
    PacketDelay {
        /// Deterministic extra one-way delay.
        extra: SimDuration,
        /// Additional uniform random delay in `[0, jitter)` per reception.
        jitter: SimDuration,
        /// Which direction of node traffic is slowed.
        direction: Direction,
    },
    /// netsim: no frame crosses the target (a partitioned node hears and
    /// reaches nobody; a partitioned LAN isolates its members).
    Partition,
    /// simcore/osc: the target node's oscillator runs `extra_ppm` off its
    /// modelled drift during the window (temperature step / glitch).
    DriftExcursion {
        /// Additional fractional frequency offset in ppm.
        extra_ppm: f64,
    },
    /// nti/comco: each covered receive-timestamp trigger is lost with
    /// `rate` — the frame arrives but carries no hardware timestamp.
    MissedTrigger {
        /// Per-trigger loss probability in `[0, 1]`.
        rate: f64,
    },
    /// nti/comco: each covered receive-timestamp trigger fires `delay` late
    /// with `rate` — the timestamp is taken at the wrong instant.
    LateTrigger {
        /// Per-trigger probability in `[0, 1]`.
        rate: f64,
        /// How late the trigger fires.
        delay: SimDuration,
    },
    /// gps: inject one fault from the HS97 catalogue into the target node's
    /// `receiver`-th GPS receiver. The `GpsFault` carries its own activation
    /// window (UTC seconds); the episode window is ignored.
    Gps {
        /// Index of the receiver on the target node.
        receiver: usize,
        /// The fault to inject.
        fault: GpsFault,
    },
    /// lifecycle: the target node crashes at `from` and restarts at `until`
    /// with cold clock state ([`FOREVER`] = never), then reintegrates via
    /// the initial-sync machinery before rejoining convergence.
    Crash,
    /// lifecycle: the target node sends arbitrarily wrong (two-faced)
    /// synchronization intervals while the episode is active.
    Byzantine,
    /// lifecycle/netsim: each CSP the target transmits is CRC-corrupted with
    /// `rate` (receivers still see the receive trigger, then discard —
    /// footnote 4 semantics).
    CrcError {
        /// Per-transmission corruption probability in `[0, 1]`.
        rate: f64,
    },
}

/// One scheduled fault: a [`FaultKind`] applied to a [`FaultTarget`] while
/// `from <= now < until`.
#[derive(Clone, Copy, Debug)]
pub struct FaultEpisode {
    /// Activation start (inclusive). For [`FaultKind::Crash`]: crash time.
    pub from: SimTime,
    /// Activation end (exclusive). For [`FaultKind::Crash`]: restart time.
    pub until: SimTime,
    /// What the episode applies to.
    pub target: FaultTarget,
    /// What happens.
    pub kind: FaultKind,
}

impl FaultEpisode {
    /// Is the episode active at `now`?
    pub fn active(&self, now: SimTime) -> bool {
        self.from <= now && now < self.until
    }
}

/// A deterministic schedule of fault episodes.
///
/// Build one with [`FaultPlan::with`] chains or the constructors
/// ([`FaultPlan::byzantine`], [`FaultPlan::crc_errors`], [`FaultPlan::gps`],
/// [`FaultPlan::crash`]), combine plans with [`FaultPlan::merge`], then hand
/// the result to `ClusterConfig.fault_plan`. An empty plan injects nothing
/// and leaves the simulation bit-identical to a fault-free run.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    episodes: Vec<FaultEpisode>,
}

impl FaultPlan {
    /// An empty plan (no faults).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// True when the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.episodes.is_empty()
    }

    /// The scheduled episodes.
    pub fn episodes(&self) -> &[FaultEpisode] {
        &self.episodes
    }

    /// Append an episode.
    pub fn push(&mut self, episode: FaultEpisode) {
        self.episodes.push(episode);
    }

    /// Builder-style [`FaultPlan::push`].
    pub fn with(mut self, episode: FaultEpisode) -> Self {
        self.push(episode);
        self
    }

    /// Append all episodes of `other`.
    pub fn merge(&mut self, other: &FaultPlan) {
        self.episodes.extend_from_slice(&other.episodes);
    }

    /// The given nodes behave Byzantine for the whole run.
    pub fn byzantine(nodes: &[usize]) -> Self {
        let mut plan = FaultPlan::new();
        for &n in nodes {
            plan.push(FaultEpisode {
                from: SimTime::ZERO,
                until: FOREVER,
                target: FaultTarget::Node(n),
                kind: FaultKind::Byzantine,
            });
        }
        plan
    }

    /// Every node corrupts each transmitted CSP with `rate` for the whole
    /// run.
    pub fn crc_errors(rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "rate must be in [0,1]");
        FaultPlan::new().with(FaultEpisode {
            from: SimTime::ZERO,
            until: FOREVER,
            target: FaultTarget::All,
            kind: FaultKind::CrcError { rate },
        })
    }

    /// Inject `fault` into receiver `receiver` of node `node`, counting
    /// only that node's receivers in `ClusterConfig.gps` order. The
    /// `GpsFault` carries its own activation window.
    pub fn gps(node: usize, receiver: usize, fault: GpsFault) -> Self {
        FaultPlan::new().with(FaultEpisode {
            from: SimTime::ZERO,
            until: FOREVER,
            target: FaultTarget::Node(node),
            kind: FaultKind::Gps { receiver, fault },
        })
    }

    /// Node `node` crashes at `at` and restarts at `restart` (`None` =
    /// never) with cold clock state.
    pub fn crash(node: usize, at: SimTime, restart: Option<SimTime>) -> Self {
        let until = restart.unwrap_or(FOREVER);
        assert!(at < until, "restart must come after crash");
        FaultPlan::new().with(FaultEpisode {
            from: at,
            until,
            target: FaultTarget::Node(node),
            kind: FaultKind::Crash,
        })
    }
}

/// What a membership-churn event does to its node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChurnKind {
    /// The node powers up and starts reintegrating. A node whose *first*
    /// churn event is a `Join` is dark from simulation start until then
    /// (it must still be present in the topology — joining reserves the
    /// seat, it does not create the hardware).
    Join,
    /// The node leaves the ensemble (graceful departure; operationally a
    /// crash without the surprise — peers see silence either way).
    Leave,
    /// The node detaches from its current segment and reattaches to
    /// `to_lan` (ordinary nodes only; bridges are the topology).
    Move {
        /// Destination LAN id.
        to_lan: usize,
    },
}

/// One scheduled membership change.
#[derive(Clone, Copy, Debug)]
pub struct ChurnEvent {
    /// When it happens.
    pub at: SimTime,
    /// The node it happens to.
    pub node: usize,
    /// What happens.
    pub kind: ChurnKind,
}

/// A deterministic schedule of membership churn: plan-driven joins, leaves
/// and moves, the dynamic-membership analogue of [`FaultPlan`]. Follows the
/// same determinism contract: churn handling is active **only when the plan
/// is non-empty**, and any randomness (cold-boot clock offsets of joining
/// nodes) comes from a dedicated named stream, so an empty plan leaves the
/// run bit-identical to a churn-free one and the same seed + same plan
/// reproduces the same `Report` bit-for-bit.
#[derive(Clone, Debug, Default)]
pub struct ChurnPlan {
    events: Vec<ChurnEvent>,
}

impl ChurnPlan {
    /// An empty plan (static membership).
    pub fn new() -> Self {
        ChurnPlan::default()
    }

    /// True when the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The scheduled events, in plan order (ties at equal times resolve in
    /// plan order too).
    pub fn events(&self) -> &[ChurnEvent] {
        &self.events
    }

    /// Append an event.
    pub fn push(&mut self, event: ChurnEvent) {
        self.events.push(event);
    }

    /// Builder-style [`ChurnPlan::push`].
    pub fn with(mut self, event: ChurnEvent) -> Self {
        self.push(event);
        self
    }

    /// Builder: `node` joins (powers up dark-started or rejoins) at `at`.
    pub fn join(self, node: usize, at: SimTime) -> Self {
        self.with(ChurnEvent {
            at,
            node,
            kind: ChurnKind::Join,
        })
    }

    /// Builder: `node` leaves the ensemble at `at`.
    pub fn leave(self, node: usize, at: SimTime) -> Self {
        self.with(ChurnEvent {
            at,
            node,
            kind: ChurnKind::Leave,
        })
    }

    /// Builder: `node` moves to segment `to_lan` at `at`.
    pub fn move_to(self, node: usize, at: SimTime, to_lan: usize) -> Self {
        self.with(ChurnEvent {
            at,
            node,
            kind: ChurnKind::Move { to_lan },
        })
    }

    /// Which of `n` nodes start the run powered down: those whose first
    /// scheduled event is a `Join`.
    pub fn initially_down(&self, n: usize) -> Vec<bool> {
        let mut down = vec![false; n];
        let mut seen = vec![false; n];
        let mut by_time: Vec<&ChurnEvent> = self.events.iter().collect();
        by_time.sort_by_key(|e| e.at);
        for e in by_time {
            if e.node < n && !seen[e.node] {
                seen[e.node] = true;
                down[e.node] = e.kind == ChurnKind::Join;
            }
        }
        down
    }
}

/// Pre-resolved `faults`-subsystem instrumentation.
struct FaultObs {
    obs: SimObserver,
    pkt_dropped: Arc<nti_obs::Counter>,
    pkt_duplicated: Arc<nti_obs::Counter>,
    triggers_missed: Arc<nti_obs::Counter>,
    triggers_late: Arc<nti_obs::Counter>,
    crashes: Arc<nti_obs::Counter>,
    rejoins: Arc<nti_obs::Counter>,
}

/// Applies a [`FaultPlan`] with seeded, per-class RNG streams.
///
/// The cluster queries the injector at each decision point (transmission,
/// reception scheduling, trigger arming, …). Query methods that consult the
/// RNG draw **only when at least one matching episode is active**, so an
/// empty or inactive plan never perturbs the simulation's draw sequence.
pub struct FaultInjector {
    episodes: Vec<FaultEpisode>,
    /// Stream for packet loss / duplication decisions.
    net_rng: SimRng,
    /// Stream for per-reception delay jitter.
    delay_rng: SimRng,
    /// Stream for missed/late trigger decisions.
    trigger_rng: SimRng,
    /// Stream for CRC corruption decisions.
    crc_rng: SimRng,
    /// Stream for lifecycle draws (cold-restart clock offset).
    lifecycle_rng: SimRng,
    /// Stream for churn draws (cold-boot offset of plan-driven joins) —
    /// separate from `lifecycle_rng` so a churn plan composes with a fault
    /// plan without perturbing its draw sequence.
    churn_rng: SimRng,
    obs: Option<FaultObs>,
}

/// Combine independent per-episode probabilities into one draw:
/// P(any fires) = 1 − Π(1 − rᵢ).
fn combine(rates: impl Iterator<Item = f64>) -> f64 {
    let mut miss = 1.0;
    let mut any = false;
    for r in rates {
        any = true;
        miss *= 1.0 - r.clamp(0.0, 1.0);
    }
    if any {
        1.0 - miss
    } else {
        0.0
    }
}

impl FaultInjector {
    /// Build an injector for `plan`, deriving all streams from `rng`.
    pub fn new(plan: &FaultPlan, rng: &SimRng) -> Self {
        FaultInjector {
            episodes: plan.episodes.clone(),
            net_rng: rng.split("faults.net"),
            delay_rng: rng.split("faults.delay"),
            trigger_rng: rng.split("faults.trigger"),
            crc_rng: rng.split("faults.crc"),
            lifecycle_rng: rng.split("faults.lifecycle"),
            churn_rng: rng.split("faults.churn"),
            obs: None,
        }
    }

    /// Attach nti-obs instrumentation (no-op for a disabled observer).
    pub fn attach_observer(&mut self, obs: &SimObserver) {
        self.obs = if obs.is_enabled() {
            Some(FaultObs {
                obs: obs.clone(),
                pkt_dropped: obs
                    .counter(MetricKey::global("faults", "pkt_dropped"))
                    .expect("enabled"),
                pkt_duplicated: obs
                    .counter(MetricKey::global("faults", "pkt_duplicated"))
                    .expect("enabled"),
                triggers_missed: obs
                    .counter(MetricKey::global("faults", "triggers_missed"))
                    .expect("enabled"),
                triggers_late: obs
                    .counter(MetricKey::global("faults", "triggers_late"))
                    .expect("enabled"),
                crashes: obs
                    .counter(MetricKey::global("faults", "crashes"))
                    .expect("enabled"),
                rejoins: obs
                    .counter(MetricKey::global("faults", "rejoins"))
                    .expect("enabled"),
            })
        } else {
            None
        };
    }

    /// True when the plan schedules nothing at all.
    pub fn is_empty(&self) -> bool {
        self.episodes.is_empty()
    }

    /// The scheduled episodes.
    pub fn episodes(&self) -> &[FaultEpisode] {
        &self.episodes
    }

    /// All finite episode boundaries (starts and ends), sorted and deduped —
    /// the instants at which LAN-level fault state must be recomputed.
    pub fn boundaries(&self) -> Vec<SimTime> {
        let mut ts: Vec<SimTime> = Vec::new();
        for e in &self.episodes {
            if matches!(e.kind, FaultKind::Gps { .. }) {
                continue; // windows live inside the GpsFault itself
            }
            ts.push(e.from);
            if e.until < FOREVER {
                ts.push(e.until);
            }
        }
        ts.sort_unstable();
        ts.dedup();
        ts
    }

    /// Crash schedules: `(node, crash_at, restart_at)` per crash episode
    /// (`None` = never restarts). `All`/`Lan` targets are rejected — a crash
    /// must name its node.
    pub fn crash_windows(&self) -> Vec<(usize, SimTime, Option<SimTime>)> {
        self.episodes
            .iter()
            .filter(|e| matches!(e.kind, FaultKind::Crash))
            .map(|e| match e.target {
                FaultTarget::Node(n) => {
                    let restart = (e.until < FOREVER).then_some(e.until);
                    (n, e.from, restart)
                }
                t => panic!("Crash episodes must target a node, got {t:?}"),
            })
            .collect()
    }

    /// Drift excursions to install on node `n`'s oscillator at build time.
    pub fn drift_excursions(&self, n: usize) -> Vec<DriftExcursion> {
        self.episodes
            .iter()
            .filter(|e| e.target.covers_node(n))
            .filter_map(|e| match e.kind {
                FaultKind::DriftExcursion { extra_ppm } => Some(DriftExcursion {
                    from: e.from,
                    until: e.until,
                    extra_ppm,
                }),
                _ => None,
            })
            .collect()
    }

    /// GPS faults to inject into node `n`'s receivers at build time:
    /// `(receiver, fault)`.
    pub fn gps_faults(&self, n: usize) -> Vec<(usize, GpsFault)> {
        self.episodes
            .iter()
            .filter(|e| e.target.covers_node(n))
            .filter_map(|e| match e.kind {
                FaultKind::Gps { receiver, fault } => Some((receiver, fault)),
                _ => None,
            })
            .collect()
    }

    /// Is node `n` Byzantine at `now`?
    pub fn is_byzantine(&self, n: usize, now: SimTime) -> bool {
        self.episodes.iter().any(|e| {
            matches!(e.kind, FaultKind::Byzantine) && e.target.covers_node(n) && e.active(now)
        })
    }

    /// Should the CSP node `src` transmits at `now` be CRC-corrupted?
    /// Draws at most once.
    pub fn crc_corrupt(&mut self, src: usize, now: SimTime) -> bool {
        let p = combine(self.episodes.iter().filter_map(|e| match e.kind {
            FaultKind::CrcError { rate } if e.target.covers_node(src) && e.active(now) => {
                Some(rate)
            }
            _ => None,
        }));
        p > 0.0 && self.crc_rng.chance(p)
    }

    /// Is node `n` partitioned away (hears and reaches nobody) at `now`?
    pub fn node_partitioned(&self, n: usize, now: SimTime) -> bool {
        self.episodes.iter().any(|e| {
            matches!(e.kind, FaultKind::Partition)
                && e.target == FaultTarget::Node(n)
                && e.active(now)
        })
    }

    /// Is LAN `l` partitioned (no frame crosses it) at `now`? `All`-target
    /// partitions cover every segment.
    pub fn lan_partitioned(&self, l: usize, now: SimTime) -> bool {
        self.episodes.iter().any(|e| {
            matches!(e.kind, FaultKind::Partition) && e.target.covers_lan(l) && e.active(now)
        })
    }

    /// Extra propagation delay in force on LAN `l` at `now` (LAN-targeted
    /// [`FaultKind::PacketDelay`] episodes only; deterministic part, no
    /// jitter — applied via `Medium::set_extra_propagation`).
    pub fn lan_extra_delay(&self, l: usize, now: SimTime) -> SimDuration {
        let mut total = SimDuration::ZERO;
        for e in &self.episodes {
            if let FaultKind::PacketDelay { extra, .. } = e.kind {
                if matches!(e.target, FaultTarget::Lan(x) if x == l) && e.active(now) {
                    total += extra;
                }
            }
        }
        total
    }

    /// Should the reception `src → dst` at `now` be dropped? Covers
    /// node-targeted (tx or rx side) and `All` packet-loss episodes plus
    /// node partitions. Draws at most once; counts the drop when it fires.
    pub fn drop_reception(&mut self, src: usize, dst: usize, now: SimTime) -> bool {
        if self.node_partitioned(src, now) || self.node_partitioned(dst, now) {
            self.count_instant(now, dst, "fault_pkt_dropped", |o| &o.pkt_dropped);
            return true;
        }
        let p = combine(self.episodes.iter().filter_map(|e| match e.kind {
            FaultKind::PacketLoss { rate }
                if (e.target.covers_node(src) || e.target.covers_node(dst)) && e.active(now) =>
            {
                Some(rate)
            }
            _ => None,
        }));
        let dropped = p > 0.0 && self.net_rng.chance(p);
        if dropped {
            self.count_instant(now, dst, "fault_pkt_dropped", |o| &o.pkt_dropped);
        }
        dropped
    }

    /// Should the reception `src → dst` at `now` be delivered twice?
    /// Draws at most once; counts the duplicate when it fires.
    pub fn duplicate_reception(&mut self, src: usize, dst: usize, now: SimTime) -> bool {
        let p = combine(self.episodes.iter().filter_map(|e| match e.kind {
            FaultKind::PacketDuplicate { rate }
                if (e.target.covers_node(src) || e.target.covers_node(dst)) && e.active(now) =>
            {
                Some(rate)
            }
            _ => None,
        }));
        let dup = p > 0.0 && self.net_rng.chance(p);
        if dup {
            self.count_instant(now, dst, "fault_pkt_duplicated", |o| &o.pkt_duplicated);
        }
        dup
    }

    /// Extra arrival delay for the reception `src → dst` at `now`
    /// (node-/`All`-targeted [`FaultKind::PacketDelay`]; direction-aware;
    /// jitter drawn per reception — LAN-targeted delay is handled by
    /// [`FaultInjector::lan_extra_delay`] instead).
    pub fn extra_arrival_delay(&mut self, src: usize, dst: usize, now: SimTime) -> SimDuration {
        let mut total = SimDuration::ZERO;
        let mut jitter_bound = SimDuration::ZERO;
        for e in &self.episodes {
            let FaultKind::PacketDelay {
                extra,
                jitter,
                direction,
            } = e.kind
            else {
                continue;
            };
            if matches!(e.target, FaultTarget::Lan(_)) || !e.active(now) {
                continue;
            }
            let applies = match direction {
                Direction::Tx => e.target.covers_node(src),
                Direction::Rx => e.target.covers_node(dst),
                Direction::Both => e.target.covers_node(src) || e.target.covers_node(dst),
            };
            if applies {
                total += extra;
                jitter_bound += jitter;
            }
        }
        if jitter_bound > SimDuration::ZERO {
            let j = self
                .delay_rng
                .below(jitter_bound.as_fs().min(u64::MAX as u128) as u64);
            total += SimDuration::from_fs(j as u128);
        }
        total
    }

    /// Is node `n`'s receive-timestamp trigger at `now` lost? Draws at most
    /// once; counts when it fires.
    pub fn missed_trigger(&mut self, n: usize, now: SimTime) -> bool {
        let p = combine(self.episodes.iter().filter_map(|e| match e.kind {
            FaultKind::MissedTrigger { rate } if e.target.covers_node(n) && e.active(now) => {
                Some(rate)
            }
            _ => None,
        }));
        let missed = p > 0.0 && self.trigger_rng.chance(p);
        if missed {
            self.count_instant(now, n, "fault_trigger_missed", |o| &o.triggers_missed);
        }
        missed
    }

    /// Does node `n`'s receive-timestamp trigger at `now` fire late, and by
    /// how much? Draws at most once; counts when it fires. The delay is the
    /// maximum over active matching episodes.
    pub fn late_trigger(&mut self, n: usize, now: SimTime) -> Option<SimDuration> {
        let mut p_inputs: Vec<f64> = Vec::new();
        let mut max_delay = SimDuration::ZERO;
        for e in &self.episodes {
            if let FaultKind::LateTrigger { rate, delay } = e.kind {
                if e.target.covers_node(n) && e.active(now) {
                    p_inputs.push(rate);
                    max_delay = max_delay.max(delay);
                }
            }
        }
        let p = combine(p_inputs.into_iter());
        if p > 0.0 && max_delay > SimDuration::ZERO && self.trigger_rng.chance(p) {
            self.count_instant(now, n, "fault_trigger_late", |o| &o.triggers_late);
            Some(max_delay)
        } else {
            None
        }
    }

    /// The lifecycle RNG stream (cold-restart clock offset draws).
    pub fn lifecycle_rng(&mut self) -> &mut SimRng {
        &mut self.lifecycle_rng
    }

    /// The churn RNG stream (cold-boot offset draws of plan-driven joins).
    pub fn churn_rng(&mut self) -> &mut SimRng {
        &mut self.churn_rng
    }

    /// Record a node crash.
    pub fn note_crash(&mut self, now: SimTime, n: usize) {
        self.count_instant(now, n, "fault_crash", |o| &o.crashes);
    }

    /// Record a restarted node completing reintegration.
    pub fn note_rejoin(&mut self, now: SimTime, n: usize) {
        self.count_instant(now, n, "fault_rejoin", |o| &o.rejoins);
    }

    /// Annotate a causal span with an injected-fault marker: a child span
    /// (kind `fault_<what>`, e.g. `fault_trigger_late`) under `parent` in
    /// the `faults` subsystem ending at `now`, whose duration `value_fs`
    /// is the magnitude of the anomaly (e.g. the injected delay) — so the
    /// fault shows up *inside* the affected CSP's span tree and an
    /// analyzer can tell injected anomalies from organic ones. No-op when
    /// no observer is attached or `parent` is null.
    pub fn annotate_span(
        &self,
        now: SimTime,
        node: usize,
        kind: &'static str,
        parent: SpanId,
        value_fs: u128,
    ) {
        let Some(o) = &self.obs else { return };
        if parent.is_none() {
            return;
        }
        let span = o.obs.new_span();
        o.obs.span_link(
            now.as_fs(),
            value_fs,
            node as u32,
            Subsystem::Faults,
            kind,
            span,
            parent,
        );
    }

    /// Trace the episode boundaries crossing `now` (start/end instants).
    pub fn note_boundary(&self, now: SimTime) {
        let Some(o) = &self.obs else { return };
        for e in &self.episodes {
            if matches!(e.kind, FaultKind::Gps { .. }) {
                continue;
            }
            let node = match e.target {
                FaultTarget::Node(n) => n as u32,
                _ => nti_obs::GLOBAL_NODE,
            };
            if e.from == now {
                o.obs
                    .instant(now.as_fs(), node, Subsystem::Faults, "episode_start");
            }
            if e.until == now {
                o.obs
                    .instant(now.as_fs(), node, Subsystem::Faults, "episode_end");
            }
        }
    }

    fn count_instant(
        &self,
        now: SimTime,
        node: usize,
        kind: &'static str,
        pick: impl Fn(&FaultObs) -> &Arc<nti_obs::Counter>,
    ) {
        if let Some(o) = &self.obs {
            pick(o).inc();
            o.obs
                .instant(now.as_fs(), node as u32, Subsystem::Faults, kind);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn episode_windows_are_half_open() {
        let e = FaultEpisode {
            from: t(2),
            until: t(5),
            target: FaultTarget::All,
            kind: FaultKind::Partition,
        };
        assert!(!e.active(t(1)));
        assert!(e.active(t(2)));
        assert!(e.active(t(4)));
        assert!(!e.active(t(5)));
    }

    #[test]
    fn plan_constructors_build_expected_episodes() {
        let plan = FaultPlan::byzantine(&[1, 4]);
        assert_eq!(plan.episodes().len(), 2);
        let inj = FaultInjector::new(&plan, &SimRng::new(1));
        assert!(inj.is_byzantine(1, t(0)));
        assert!(inj.is_byzantine(4, t(1_000_000)));
        assert!(!inj.is_byzantine(2, t(0)));

        let mut inj = FaultInjector::new(&FaultPlan::crc_errors(1.0), &SimRng::new(1));
        assert!(inj.crc_corrupt(0, t(3)));

        let crash = FaultInjector::new(&FaultPlan::crash(2, t(5), Some(t(9))), &SimRng::new(1));
        assert_eq!(crash.crash_windows(), vec![(2, t(5), Some(t(9)))]);
        let dead = FaultInjector::new(&FaultPlan::crash(2, t(5), None), &SimRng::new(1));
        assert_eq!(dead.crash_windows(), vec![(2, t(5), None)]);
    }

    #[test]
    fn churn_plan_builders_and_initially_down() {
        let plan = ChurnPlan::new()
            .leave(1, t(10))
            .join(1, t(14))
            .join(3, t(6))
            .move_to(0, t(8), 2);
        assert!(!plan.is_empty());
        assert_eq!(plan.events().len(), 4);
        assert_eq!(plan.events()[3].kind, ChurnKind::Move { to_lan: 2 });
        // Node 3's first event (by time) is a Join: it starts dark. Node 1
        // leaves before it rejoins, so it starts up.
        assert_eq!(
            plan.initially_down(5),
            vec![false, false, false, true, false]
        );
        assert!(ChurnPlan::new().is_empty());
        assert_eq!(ChurnPlan::new().initially_down(3), vec![false; 3]);
    }

    #[test]
    fn churn_stream_is_independent_of_lifecycle() {
        // Drawing from the churn stream must not disturb the lifecycle
        // stream's sequence (a churn plan composes with a fault plan).
        let mut a = FaultInjector::new(&FaultPlan::new(), &SimRng::new(77));
        let mut b = FaultInjector::new(&FaultPlan::new(), &SimRng::new(77));
        let _ = b.churn_rng().below(1_000);
        assert_eq!(
            a.lifecycle_rng().below(1_000_000),
            b.lifecycle_rng().below(1_000_000)
        );
    }

    #[test]
    fn packet_loss_respects_window_target_and_rate_extremes() {
        let plan = FaultPlan::new().with(FaultEpisode {
            from: t(10),
            until: t(20),
            target: FaultTarget::Node(3),
            kind: FaultKind::PacketLoss { rate: 1.0 },
        });
        let mut inj = FaultInjector::new(&plan, &SimRng::new(9));
        // Outside window: never drops, never draws.
        assert!(!inj.drop_reception(3, 0, t(5)));
        // Inside window, src side and rx side both covered.
        assert!(inj.drop_reception(3, 0, t(15)));
        assert!(inj.drop_reception(0, 3, t(15)));
        // Unrelated pair unaffected.
        assert!(!inj.drop_reception(0, 1, t(15)));
    }

    #[test]
    fn partition_drops_all_node_traffic() {
        let plan = FaultPlan::new().with(FaultEpisode {
            from: t(1),
            until: t(2),
            target: FaultTarget::Node(0),
            kind: FaultKind::Partition,
        });
        let mut inj = FaultInjector::new(&plan, &SimRng::new(3));
        assert!(inj.drop_reception(0, 5, t(1)));
        assert!(inj.drop_reception(5, 0, t(1)));
        assert!(!inj.drop_reception(4, 5, t(1)));
        assert!(!inj.node_partitioned(0, t(2)));
    }

    #[test]
    fn lan_partition_and_delay_only_cover_their_segment() {
        let plan = FaultPlan::new()
            .with(FaultEpisode {
                from: t(1),
                until: t(2),
                target: FaultTarget::Lan(1),
                kind: FaultKind::Partition,
            })
            .with(FaultEpisode {
                from: t(1),
                until: t(2),
                target: FaultTarget::Lan(0),
                kind: FaultKind::PacketDelay {
                    extra: SimDuration::from_micros(40),
                    jitter: SimDuration::ZERO,
                    direction: Direction::Both,
                },
            });
        let inj = FaultInjector::new(&plan, &SimRng::new(3));
        assert!(inj.lan_partitioned(1, t(1)));
        assert!(!inj.lan_partitioned(0, t(1)));
        assert_eq!(inj.lan_extra_delay(0, t(1)), SimDuration::from_micros(40));
        assert_eq!(inj.lan_extra_delay(1, t(1)), SimDuration::ZERO);
        assert_eq!(inj.lan_extra_delay(0, t(3)), SimDuration::ZERO);
    }

    #[test]
    fn asymmetric_delay_applies_per_direction() {
        let plan = FaultPlan::new().with(FaultEpisode {
            from: t(0),
            until: FOREVER,
            target: FaultTarget::Node(2),
            kind: FaultKind::PacketDelay {
                extra: SimDuration::from_micros(100),
                jitter: SimDuration::ZERO,
                direction: Direction::Tx,
            },
        });
        let mut inj = FaultInjector::new(&plan, &SimRng::new(3));
        // Frames node 2 sends are slowed …
        assert_eq!(
            inj.extra_arrival_delay(2, 0, t(1)),
            SimDuration::from_micros(100)
        );
        // … frames it receives are not.
        assert_eq!(inj.extra_arrival_delay(0, 2, t(1)), SimDuration::ZERO);
    }

    #[test]
    fn delay_jitter_is_bounded_and_varies() {
        let plan = FaultPlan::new().with(FaultEpisode {
            from: t(0),
            until: FOREVER,
            target: FaultTarget::All,
            kind: FaultKind::PacketDelay {
                extra: SimDuration::ZERO,
                jitter: SimDuration::from_micros(10),
                direction: Direction::Both,
            },
        });
        let mut inj = FaultInjector::new(&plan, &SimRng::new(3));
        let mut distinct = std::collections::HashSet::new();
        for _ in 0..64 {
            let d = inj.extra_arrival_delay(0, 1, t(1));
            assert!(d < SimDuration::from_micros(10));
            distinct.insert(d.as_fs());
        }
        assert!(distinct.len() > 8, "jitter should vary per reception");
    }

    #[test]
    fn trigger_faults_fire_within_window() {
        let plan = FaultPlan::new()
            .with(FaultEpisode {
                from: t(0),
                until: t(10),
                target: FaultTarget::Node(1),
                kind: FaultKind::MissedTrigger { rate: 1.0 },
            })
            .with(FaultEpisode {
                from: t(10),
                until: t(20),
                target: FaultTarget::Node(1),
                kind: FaultKind::LateTrigger {
                    rate: 1.0,
                    delay: SimDuration::from_nanos(300),
                },
            });
        let mut inj = FaultInjector::new(&plan, &SimRng::new(11));
        assert!(inj.missed_trigger(1, t(5)));
        assert!(!inj.missed_trigger(1, t(15)));
        assert!(!inj.missed_trigger(0, t(5)));
        assert_eq!(
            inj.late_trigger(1, t(15)),
            Some(SimDuration::from_nanos(300))
        );
        assert_eq!(inj.late_trigger(1, t(5)), None);
    }

    #[test]
    fn same_seed_same_plan_same_decisions() {
        let plan = FaultPlan::new().with(FaultEpisode {
            from: t(0),
            until: FOREVER,
            target: FaultTarget::All,
            kind: FaultKind::PacketLoss { rate: 0.3 },
        });
        let mut a = FaultInjector::new(&plan, &SimRng::new(77));
        let mut b = FaultInjector::new(&plan, &SimRng::new(77));
        for i in 0..200u64 {
            let now = SimTime::from_millis(i);
            assert_eq!(a.drop_reception(0, 1, now), b.drop_reception(0, 1, now));
        }
    }

    #[test]
    fn boundaries_are_sorted_finite_and_deduped() {
        let plan = FaultPlan::new()
            .with(FaultEpisode {
                from: t(5),
                until: t(9),
                target: FaultTarget::All,
                kind: FaultKind::Partition,
            })
            .with(FaultEpisode {
                from: t(2),
                until: FOREVER,
                target: FaultTarget::Node(0),
                kind: FaultKind::Byzantine,
            })
            .with(FaultEpisode {
                from: t(5),
                until: t(9),
                target: FaultTarget::Node(1),
                kind: FaultKind::PacketLoss { rate: 0.5 },
            });
        let inj = FaultInjector::new(&plan, &SimRng::new(1));
        assert_eq!(inj.boundaries(), vec![t(2), t(5), t(9)]);
    }

    #[test]
    fn combined_rate_uses_one_draw() {
        // Two rate-0.5 episodes combine to 0.75 — and a rate-1.0 episode
        // forces the drop regardless of the draw.
        let plan = FaultPlan::new()
            .with(FaultEpisode {
                from: t(0),
                until: FOREVER,
                target: FaultTarget::All,
                kind: FaultKind::PacketLoss { rate: 0.5 },
            })
            .with(FaultEpisode {
                from: t(0),
                until: FOREVER,
                target: FaultTarget::All,
                kind: FaultKind::PacketLoss { rate: 1.0 },
            });
        let mut inj = FaultInjector::new(&plan, &SimRng::new(5));
        for i in 0..32u64 {
            assert!(inj.drop_reception(0, 1, SimTime::from_millis(i)));
        }
    }

    #[test]
    fn drift_excursions_extract_per_node() {
        let plan = FaultPlan::new().with(FaultEpisode {
            from: t(3),
            until: t(6),
            target: FaultTarget::Node(2),
            kind: FaultKind::DriftExcursion { extra_ppm: 4.0 },
        });
        let inj = FaultInjector::new(&plan, &SimRng::new(1));
        assert!(inj.drift_excursions(0).is_empty());
        let ex = inj.drift_excursions(2);
        assert_eq!(ex.len(), 1);
        assert_eq!(ex[0].from, t(3));
        assert_eq!(ex[0].until, t(6));
        assert_eq!(ex[0].extra_ppm, 4.0);
    }
}
