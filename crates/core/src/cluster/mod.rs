//! Full-cluster assembly: wires nodes, mediums and the event engine into a
//! runnable synchronization experiment.
//!
//! A [`Cluster`] owns a discrete-event [`Engine`] over a [`World`] holding
//! all nodes, LAN segments and in-flight frames, and reproduces the whole
//! CSP life cycle of Section 3.1:
//!
//! ```text
//! duty timer kP ──► CSP assembly (step 1, software stamp here in SW mode)
//!   ──► COMCO command (2) ──► medium access (3) ──► DMA header reads (4)
//!       [read of 0x14 ⇒ TRANSMIT trigger; 0x18/0x20 mapped into packet]
//!   ──► wire ──► per-receiver DMA header writes (5)
//!       [write of 0x1C ⇒ RECEIVE trigger + header-base latch]
//!   ──► packet interrupt (6) ──► ISR + task dispatch (7, SW stamp here)
//!   ──► preprocessing; at kP+Δ the convergence function + enforcement
//! ```
//!
//! The timestamping mode selects which pair of events provides the stamps,
//! which is exactly the paper's software / interrupt-driven / NTI ablation.
//! Everything else (GPS validation, rate synchronization, background load,
//! HWSNAP-based precision snapshots) hangs off the same engine.
//!
//! The handlers live by layer: `csp` (transmit, wire, receive), `round`
//! (duty timers, convergence, GPS), `lifecycle` (power-up, crashes, churn),
//! `snapshot` (HWSNAP sweeps, status, barriers) and `report`.

use crate::algo::{CongestionPolicy, ReceivedCsp, SyncCore};
use crate::fxhash::FxHashMap;
use crate::health::{HealthConfig, HealthState, HealthTracker, RoundAction, HEALTH_STATES};
use crate::interval::AccInterval;
use crate::node::{quant_units_for, Node, UTCSU_QUANT_UNITS};
use crate::params::{
    delay_bounds_hardware, delay_bounds_interrupt_rx, delay_bounds_software, AlgoKind, SyncParams,
    TimestampMode,
};
use crate::payload::{CspPayload, CSP_PAYLOAD_LEN};
use crate::rate::RateSync;
use crate::status::{ClusterStatus, NodeStatus, StatusCell};
use crate::validate::{gps_observation, validate, ValidationStats};
use nti_faults::{ChurnEvent, ChurnKind, ChurnPlan, FaultInjector, FaultPlan};
use nti_gps::{GpsConfig, GpsReceiver};
use nti_kernel::{Kernel, KernelConfig};
use nti_module::{CpldConfig, Nti, UTCSU_BASE};
use nti_netsim::{Comco, ComcoTiming, Frame, Medium, MediumConfig, Topology};
use nti_obs::{
    fs_to_ns, publish, Counter, Gauge, LocalHist, MetricKey, SimObserver, SpanId, Subsystem,
    GLOBAL_NODE,
};
use nti_simcore::ntp::{NtpTime, FRAC_BITS, NTP_FRAC_BITS};
use nti_simcore::time::{SimDuration, SimTime};
use nti_simcore::{Accuracy, Engine, Oscillator, SimRng, Summary};
use nti_utcsu::regs as uregs;
use nti_utcsu::{IntSource, UtcsuConfig};
use std::collections::HashMap;
use std::sync::Arc;

mod csp;
mod lifecycle;
mod report;
mod round;
mod snapshot;
#[cfg(test)]
mod tests;

use csp::{bg_load, csp_send};
use lifecycle::{
    apply_lan_faults, boot_offset, churn_event, crash_node, fault_boundary, note_health_edge,
    restart_node,
};
use report::{
    finalize, CSP_COUNT_NAMES, VIOLATION_NAMES, VIOL_CONTAINMENT, VIOL_HOLDOVER_CONTAINMENT,
    VIOL_MONOTONIC, VIOL_PRECISION, VIOL_TRIGGER_LATENCY,
};
pub use report::{Metrics, RejoinTrajectory, Report, REJOIN_TRACK_ROUNDS};
use round::{arm_round_timers, arm_timer, gps_second, schedule_utcsu_service};
use snapshot::{actuation_fired, app_event, ref_time, snapshot};

/// Oscillator population model.
#[derive(Clone, Copy, Debug)]
pub enum DriftSpec {
    /// All oscillators perfect (unit tests, lower bounds).
    Perfect,
    /// Each node draws a constant drift uniformly from ±`rho_max_ppm`.
    ConstantSpread {
        /// Drift bound in ppm.
        rho_max_ppm: f64,
    },
    /// Bounded random walk per node.
    RandomWalk {
        /// Drift bound in ppm.
        rho_max_ppm: f64,
        /// Walk step sigma in ppb.
        sigma_ppb: f64,
        /// Walk step interval.
        interval: SimDuration,
    },
    /// Temperature-cycled TCXOs: sinusoidal drift with per-node random
    /// phase (a rack warming and cooling).
    Temperature {
        /// Mean drift in ppm (population-wide spread applied per node).
        mean_ppm: f64,
        /// Sinusoidal amplitude in ppm.
        amp_ppm: f64,
        /// Temperature-cycle period.
        period: SimDuration,
    },
}

impl DriftSpec {
    fn build(&self, rng: &mut SimRng, fosc: u64, osc_rng: SimRng) -> Oscillator {
        // Small random start phase: the oscillators are unsynchronized.
        let phase = SimTime::from_fs(rng.below(1_000_000_000) as u128); // < 1 us
        let model = match *self {
            DriftSpec::Perfect => nti_simcore::DriftModel::perfect(),
            DriftSpec::ConstantSpread { rho_max_ppm } => nti_simcore::DriftModel::Constant {
                rho_ppm: rng.uniform(-rho_max_ppm, rho_max_ppm),
            },
            DriftSpec::RandomWalk {
                rho_max_ppm,
                sigma_ppb,
                interval,
            } => nti_simcore::DriftModel::RandomWalk {
                rho_max_ppm,
                step_sigma_ppb: sigma_ppb,
                step_interval: interval,
                initial_ppm: rng.uniform(-rho_max_ppm, rho_max_ppm),
            },
            DriftSpec::Temperature {
                mean_ppm,
                amp_ppm,
                period,
            } => nti_simcore::DriftModel::Temperature {
                mean_ppm: rng.uniform(-mean_ppm, mean_ppm),
                amp_ppm,
                period,
                phase: rng.uniform(0.0, std::f64::consts::TAU),
                step_interval: SimDuration::from_fs(period.as_fs() / 64),
            },
        };
        Oscillator::new(fosc, model, osc_rng, phase)
    }

    /// The worst-case drift bound of the population.
    pub fn rho_bound_ppm(&self) -> f64 {
        match *self {
            DriftSpec::Perfect => 0.0,
            DriftSpec::ConstantSpread { rho_max_ppm } => rho_max_ppm,
            DriftSpec::RandomWalk { rho_max_ppm, .. } => rho_max_ppm,
            DriftSpec::Temperature {
                mean_ppm, amp_ppm, ..
            } => mean_ppm.abs() + amp_ppm.abs(),
        }
    }
}

/// GPS attachment of one node.
#[derive(Clone, Debug)]
pub struct GpsNodeCfg {
    /// The node carrying the receiver.
    pub node: usize,
    /// Receiver characteristics (faults are injected through
    /// `FaultPlan::gps`).
    pub cfg: GpsConfig,
}

/// Background (NI) traffic occupying the medium and the kernel.
#[derive(Clone, Copy, Debug)]
pub struct BgLoad {
    /// Mean frames per second per node (Poisson).
    pub frames_per_sec: f64,
    /// Frame payload size.
    pub frame_bytes: usize,
}

/// Everything needed to run a cluster experiment.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Segment membership.
    pub topology: Topology,
    /// Root seed; every stochastic element derives from it.
    pub seed: u64,
    /// Oscillator frequency (1…20 MHz).
    pub fosc_hz: u64,
    /// Oscillator population.
    pub drift: DriftSpec,
    /// Where stamps are taken.
    pub mode: TimestampMode,
    /// Which algorithm runs on them.
    pub algo: AlgoKind,
    /// Round period `P`.
    pub round_period: SimDuration,
    /// Fault-tolerance degree `f`.
    pub f: usize,
    /// Shared-medium parameters.
    pub medium: MediumConfig,
    /// COMCO timing.
    pub comco: ComcoTiming,
    /// CPLD programming (trigger/mapping offsets, header geometry) — the
    /// paper's portability knob: "a transition to a different hardware
    /// only requires redevelopment of the network controller's part of the
    /// COMCO driver and perhaps some reprogramming of the CPLD" (§4).
    pub cpld: CpldConfig,
    /// Kernel timing.
    pub kernel: KernelConfig,
    /// Stamp granularity (UTCSU: 60 ns; CSU baseline: 1 µs).
    pub granularity: SimDuration,
    /// Whether rate synchronization trims STEP each round.
    pub rate_sync: bool,
    /// Drift budget (ppm) for deterioration + compensation. Must bound the
    /// population drift (asserted).
    pub rho_budget_ppm: f64,
    /// Initial clock scatter: offsets uniform in `[0, 2·init_offset]`.
    pub init_offset: SimDuration,
    /// GPS receivers.
    pub gps: Vec<GpsNodeCfg>,
    /// Background traffic, if any.
    pub bg_load: Option<BgLoad>,
    /// The fault schedule: typed episodes applied across every layer
    /// (netsim, oscillators, trigger path, GPS, node lifecycle) by a
    /// seeded injector. An empty plan leaves the run bit-identical to a
    /// fault-free one. See `nti-faults`.
    pub fault_plan: FaultPlan,
    /// Dynamic membership: plan-driven joins, leaves and LAN moves applied
    /// by a seeded churn stream. A node whose *first* event is a join
    /// starts the run dark. An empty plan leaves the run bit-identical to
    /// a churn-free one. See `nti-faults`.
    pub churn_plan: ChurnPlan,
    /// How congestion-marked CSPs (ECN-style, see
    /// `MediumConfig::ecn_threshold`) are treated by the algorithm:
    /// accepted as-is, accepted with a widened (down-weighted) interval,
    /// or discarded.
    pub congestion: CongestionPolicy,
    /// Disable clock validation and trust every GPS interval blindly — the
    /// "questionable undertaking" of Section 5, as a negative control.
    pub gps_blind_trust: bool,
    /// Period of a global application event (a physical stimulus hitting
    /// every node's APU 0 input simultaneously — the paper's "relating
    /// sensor data gathered at different nodes" use case). `None` = off.
    pub app_event_period: Option<SimDuration>,
    /// Synchronized distributed actuation: every node arms duty timer 2
    /// for this clock second; the spread of the real instants at which the
    /// timers fire is the achievable actuation simultaneity (the paper's
    /// duty timers "generate application-related events"). Repeats every
    /// round period.
    pub actuation_start_sec: Option<u32>,
    /// Coordinated leap-second *insertion* at this UTC second: every node
    /// arms its UTCSU leap hardware for the same boundary; the metric
    /// reference axis follows the leap (UTC itself repeats a second).
    /// Checks are suspended in a ±1.5 s window around the boundary, where
    /// nodes cross it at slightly different real instants.
    pub leap_insert_at_sec: Option<u32>,
    /// Total simulated time.
    pub duration: SimDuration,
    /// Snapshot (HWSNAP) period.
    pub snapshot_every: SimDuration,
    /// Metrics warm-up exclusion window.
    pub warmup: SimDuration,
    /// Precision budget π: a snapshot whose worst pairwise clock
    /// difference exceeds this counts a `viol_precision` violation, with
    /// metrics on or off. `None` disables the check (the simulation
    /// derives no closed-form π; callers supply their own budget).
    pub precision_budget: Option<SimDuration>,
    /// Observability sink: threaded into the engine, every medium, every
    /// node's kernel and UTCSU, and the cluster-level round metrics.
    /// Disabled by default (one branch per instrumentation site).
    pub obs: SimObserver,
    /// Mid-run status publication: when set, every HWSNAP sweep publishes
    /// a [`ClusterStatus`] frame (per-node clock, α, health state) into
    /// the seqlock cell. Reader threads — the `nti-serve` NTP front-end —
    /// see the latest frame without ever blocking the simulation thread
    /// (the publish is wait-free). `None` leaves runs bit-identical to
    /// pre-status builds.
    pub status_cell: Option<Arc<StatusCell>>,
}

impl ClusterConfig {
    /// A sensible default experiment: `n` nodes, one LAN, NTI hardware
    /// stamps, OA intervals, P = 1 s, Δ = 250 ms, 10 ppm TCXOs.
    pub fn default_lan(n: usize, seed: u64) -> Self {
        ClusterConfig {
            topology: Topology::single_lan(n),
            seed,
            fosc_hz: 10_000_000,
            drift: DriftSpec::ConstantSpread { rho_max_ppm: 10.0 },
            mode: TimestampMode::Hardware,
            algo: AlgoKind::IntervalOa,
            round_period: SimDuration::from_secs(1),
            f: if n >= 4 { 1 } else { 0 },
            medium: MediumConfig::ethernet_10m(),
            comco: ComcoTiming::i82596(),
            cpld: CpldConfig::default(),
            kernel: KernelConfig::psos_mvme162(),
            granularity: SimDuration::from_nanos(60),
            rate_sync: false,
            rho_budget_ppm: 12.0,
            init_offset: SimDuration::from_micros(500),
            gps: Vec::new(),
            bg_load: None,
            fault_plan: FaultPlan::new(),
            churn_plan: ChurnPlan::new(),
            congestion: CongestionPolicy::Ignore,
            gps_blind_trust: false,
            app_event_period: None,
            actuation_start_sec: None,
            leap_insert_at_sec: None,
            duration: SimDuration::from_secs(30),
            snapshot_every: SimDuration::from_millis(500),
            warmup: SimDuration::from_secs(5),
            precision_budget: None,
            obs: SimObserver::disabled(),
            status_cell: None,
        }
    }
}

/// CF application offset Δ after each round's start.
const CF_DELTA: SimDuration = SimDuration::from_millis(250);
/// Duration of the continuous amortization of each state correction.
const AMORTIZATION: SimDuration = SimDuration::from_millis(100);
/// Per-node broadcast stagger within the round (collision avoidance).
const STAGGER: SimDuration = SimDuration::from_millis(2);

/// A frame in flight on some segment. Plain data with the payload inline,
/// so each receiver's packet interrupt takes a copy without allocating.
#[derive(Clone, Copy, Debug)]
struct Flight {
    src: usize,
    lan: usize,
    attachment: usize,
    payload: CspPayload,
    /// The payload bytes as serialized into the sender's NTI data buffer —
    /// what actually rides the wire and lands in the receiver's memory.
    payload_bytes: [u8; CSP_PAYLOAD_LEN],
    wire_end: SimTime,
    sw_stamp_real: SimTime,
    xmit_trigger_real: Option<SimTime>,
    corrupted: bool,
    byzantine: bool,
    /// ECN-style congestion mark from the medium-access grant: the frame
    /// saw queue occupancy above the marking threshold.
    marked: bool,
    receivers_pending: usize,
    /// A late RECEIVE trigger recorded into `World::rx`. Its reception's
    /// packet interrupt may already have passed, so the last receiver's
    /// interrupt drops whatever records of this flight remain.
    late_records: bool,
    /// This flight's causal chain: the last sender-side hop, up to the
    /// wire once the frame has left it.
    head: Head,
}

/// The head of a CSP's causal chain: the last hop's span and the real
/// instant that hop ended, where the next hop starts. Only
/// [`ClusterObs::hop`] advances it, so consecutive hops abut by
/// construction. `span` stays [`SpanId::NONE`] unless spans are traced
/// (`ClusterObs::spans`); with metrics off nothing reads the head.
#[derive(Clone, Copy, Debug)]
struct Head {
    span: SpanId,
    end: SimTime,
}

/// The causal-span hop kinds of a CSP's life, in pipeline order: CSP
/// assembly, TRANSMIT trigger, wire serialization, RECEIVE trigger, UTCSU
/// latch, packet interrupt, ISR + task dispatch, and algorithm acceptance.
/// Also indexes the `span/hop_<kind>_ns` histogram family.
pub const SPAN_HOPS: [&str; 8] = [
    "csp_send",
    "xmit_trigger",
    "wire",
    "rcv_trigger",
    "latch",
    "interrupt",
    "isr_dispatch",
    "accept",
];

/// Registry names of the per-hop latency-decomposition histograms
/// (`span` subsystem, global scope), index-aligned with [`SPAN_HOPS`].
pub const HOP_HIST_NAMES: [&str; 8] = [
    "hop_csp_send_ns",
    "hop_xmit_trigger_ns",
    "hop_wire_ns",
    "hop_rcv_trigger_ns",
    "hop_latch_ns",
    "hop_interrupt_ns",
    "hop_isr_dispatch_ns",
    "hop_accept_ns",
];

/// Registry names of the `membership` transition counters
/// (`enter_<state>`), index-aligned with [`HEALTH_STATES`].
pub const ENTER_STATE_NAMES: [&str; 5] = [
    "enter_synchronized",
    "enter_degraded",
    "enter_holdover",
    "enter_down",
    "enter_reintegrating",
];

/// The subsystem each hop's span is traced under, index-aligned with
/// [`SPAN_HOPS`]: the layer that produces the hop, though the cluster
/// emits every span of the chain.
const HOP_SUBSYSTEMS: [Subsystem; SPAN_HOPS.len()] = [
    Subsystem::Cluster,
    Subsystem::Cluster,
    Subsystem::Net,
    Subsystem::Cluster,
    Subsystem::Utcsu,
    Subsystem::Cluster,
    Subsystem::Kernel,
    Subsystem::Cluster,
];

const HOP_CSP_SEND: usize = 0;
const HOP_XMIT_TRIGGER: usize = 1;
const HOP_WIRE: usize = 2;
const HOP_RCV_TRIGGER: usize = 3;
const HOP_LATCH: usize = 4;
const HOP_INTERRUPT: usize = 5;
const HOP_ISR_DISPATCH: usize = 6;
const HOP_ACCEPT: usize = 7;

/// Pre-resolved cluster-level observability handles (metrics under the
/// `cluster` subsystem, global scope unless noted). Every histogram is a
/// local accumulator, flushed by [`World::flush_obs`] and on drop. The CSP
/// and violation counts are kept in [`Metrics`] alone; `flush_obs`
/// publishes what they gained since the last flush. The membership
/// counters and gauges and `status_publishes` are written directly.
struct ClusterObs {
    obs: SimObserver,
    /// Some hop's subsystem, or `faults`, is traced: only then do hops
    /// allocate span ids and emit `SpanLink` events. Fixed with the
    /// observer's mask.
    spans: bool,
    /// Per-snapshot worst pairwise clock difference (ns).
    precision_ns: LocalHist,
    /// Per-snapshot per-node |C − t| (ns).
    true_error_ns: LocalHist,
    /// Per-snapshot per-node max(α⁻, α⁺) (ns).
    alpha_ns: LocalHist,
    /// Stamp-pair delays above the static bound `delay_min` (ns).
    eps_excess_ns: LocalHist,
    /// Per-round convergence-input offset spread (ns).
    cf_input_spread_ns: LocalHist,
    /// `cluster/<name>` for each of [`CSP_COUNT_NAMES`], index-aligned.
    csp_counters: [Arc<Counter>; CSP_COUNT_NAMES.len()],
    /// The [`Metrics::csp_counts`] the last flush published.
    csp_published: [u64; CSP_COUNT_NAMES.len()],
    /// Per-hop latency decomposition of the CSP causal chain, one
    /// histogram per [`SPAN_HOPS`] entry.
    hop_ns: [LocalHist; SPAN_HOPS.len()],
    /// `kernel/isr_entry_ns`, `kernel/isr_body_ns`, `kernel/dispatch_ns`:
    /// the latencies every node's kernel draws per reception. All nodes
    /// draw from the one `cfg.kernel`, so one histogram each holds them.
    isr_entry_ns: LocalHist,
    isr_body_ns: LocalHist,
    dispatch_ns: LocalHist,
    /// `kernel/csp_assembly_ns`: the assembly latency drawn per CSP sent.
    csp_assembly_ns: LocalHist,
    /// `membership/enter_<state>` — transitions into each health state,
    /// index-aligned with [`HEALTH_STATES`].
    enter_state: [Arc<Counter>; HEALTH_STATES.len()],
    /// `membership/<state>` — how many nodes currently sit in each health
    /// state, refreshed at every snapshot.
    state_gauge: [Arc<Gauge>; HEALTH_STATES.len()],
    /// `cluster/status_publishes` — frames published into the status
    /// cell; serving-side staleness alarms correlate against this.
    status_publishes: Arc<Counter>,
    /// `monitor/<name>` for each of [`VIOLATION_NAMES`], index-aligned.
    violation_counters: [Arc<Counter>; VIOLATION_NAMES.len()],
    /// The [`Metrics::violations`] the last flush published.
    violations_published: [u64; VIOLATION_NAMES.len()],
}

impl ClusterObs {
    /// Advance a CSP's causal chain by one hop, from `head` to `end`: the
    /// hop lasts from the head's end to `end` and is recorded into its
    /// decomposition histogram; with spans traced it also gets a span id,
    /// linked under the head's span (none ⇒ root) and traced under its
    /// [`HOP_SUBSYSTEMS`] entry. `node` is the node the hop happens on,
    /// or for `wire` the LAN. The hop becomes the new head.
    fn hop(&mut self, idx: usize, head: &mut Head, end: SimTime, node: u32) {
        let dur_fs = end.saturating_since(head.end).as_fs();
        self.hop_ns[idx].record(fs_to_ns(dur_fs));
        if self.spans {
            let span = self.obs.new_span();
            self.obs.span_link(
                end.as_fs(),
                dur_fs,
                node,
                HOP_SUBSYSTEMS[idx],
                SPAN_HOPS[idx],
                span,
                head.span,
            );
            head.span = span;
        }
        head.end = end;
    }

    /// Mark an injected fault inside a CSP's chain when spans are traced:
    /// a `faults` child span of `kind` (`fault_trigger_late`,
    /// `fault_trigger_missed`) under `head`, ending at `end`, whose
    /// duration `dur` is the anomaly's magnitude (the injected delay), so
    /// an analyzer can tell injected anomalies from organic ones.
    fn annotate(&self, head: Head, end: SimTime, dur: SimDuration, node: u32, kind: &'static str) {
        if self.spans {
            let span = self.obs.new_span();
            self.obs.span_link(
                end.as_fs(),
                dur.as_fs(),
                node,
                Subsystem::Faults,
                kind,
                span,
                head.span,
            );
        }
    }

    fn flush(&mut self, metrics: &Metrics) {
        for h in [
            &mut self.precision_ns,
            &mut self.true_error_ns,
            &mut self.alpha_ns,
            &mut self.eps_excess_ns,
            &mut self.cf_input_spread_ns,
            &mut self.isr_entry_ns,
            &mut self.isr_body_ns,
            &mut self.dispatch_ns,
            &mut self.csp_assembly_ns,
        ]
        .into_iter()
        .chain(&mut self.hop_ns)
        {
            h.flush();
        }
        publish(
            &self.csp_counters,
            &mut self.csp_published,
            metrics.csp_counts(),
        );
        publish(
            &self.violation_counters,
            &mut self.violations_published,
            metrics.violations,
        );
    }
}

/// One receiver's record of one flight's RECEIVE trigger, kept from the
/// trigger until the packet interrupt (`rx_complete`) consumes it.
#[derive(Clone, Copy, Debug)]
struct Rx {
    /// Real instant of the trigger (the receive end of the ε pair).
    trigger: SimTime,
    /// The reception's causal chain, up to the UTCSU latch.
    head: Head,
    /// The trigger was injected late, and its own event already checked
    /// the trigger-latency invariant for this pair.
    late: bool,
}

/// What a node keeps across a power cycle: its physical oscillator, COMCOs,
/// kernel model and GPS receivers, and the ensemble's membership record of
/// it.
struct Hardware {
    osc: Oscillator,
    comcos: Vec<Comco>,
    kernel: Kernel,
    health: HealthTracker,
    gps: Vec<GpsReceiver>,
}

/// The simulated world (the engine's state type).
pub struct World {
    /// All nodes.
    pub nodes: Vec<Node>,
    /// One medium per LAN segment.
    pub mediums: Vec<Medium>,
    /// Segment membership.
    pub topology: Topology,
    /// Frames in flight.
    flights: FxHashMap<u64, Flight>,
    /// RECEIVE-trigger records per (flight, receiver). None outlives its
    /// flight.
    rx: FxHashMap<(u64, usize), Rx>,
    next_flight: u64,
    /// The fault-plan applicator (owns all fault RNG streams).
    injector: FaultInjector,
    /// Restarted nodes whose post-rejoin α trajectory is still being
    /// recorded: node → index into `metrics.rejoin_alpha`.
    rejoin_track: HashMap<usize, usize>,
    /// Per-application-event collected APU stamps (event id -> stamps).
    app_pending: HashMap<u64, Vec<NtpTime>>,
    /// Real fire instants of the current actuation, collected per node.
    actuation_pending: Vec<SimTime>,
    /// Measurements.
    pub metrics: Metrics,
    /// Frames published into `cfg.status_cell` so far.
    status_publishes: u64,
    obs: Option<ClusterObs>,
    cfg: ClusterConfig,
    params: SyncParams,
}

impl World {
    /// The derived synchronization parameters of this run (delay bounds,
    /// granularity, drift budget).
    pub fn params(&self) -> SyncParams {
        self.params
    }

    /// The configuration this run was built from.
    pub fn config(&self) -> &ClusterConfig {
        &self.cfg
    }

    /// Is node `id` currently crashed?
    pub fn is_down(&self, id: usize) -> bool {
        self.nodes[id].is_down()
    }

    /// Count one violation of invariant `kind` (a `VIOL_*` index) at
    /// `t_fs` on `node` (`GLOBAL_NODE` for the ensemble-wide precision
    /// check), by `excess_fs`, the observed quantity minus its bound; with
    /// metrics on, also trace it as a `viol_<kind>` value event.
    fn violation(&mut self, kind: usize, t_fs: u128, node: u32, excess_fs: i128) {
        self.metrics.violations[kind] += 1;
        if let Some(o) = &self.obs {
            o.obs.value(
                t_fs,
                node,
                Subsystem::Cluster,
                VIOLATION_NAMES[kind],
                excess_fs.clamp(i64::MIN as i128, i64::MAX as i128) as i64,
            );
        }
    }

    /// Flush every local accumulator (the cluster's, and each node's
    /// UTCSU) into the observer's registry, and publish the CSP and
    /// violation counts gained since the last flush.
    fn flush_obs(&mut self) {
        if let Some(o) = &mut self.obs {
            o.flush(&self.metrics);
        }
        for node in &mut self.nodes {
            node.nti.utcsu_mut().flush_obs();
        }
    }
}

type Eng = Engine<World>;

/// A cluster experiment: engine + world.
pub struct Cluster {
    eng: Eng,
    world: World,
}

/// CSP frame wire size in bits (fixed-size payload ⇒ constant).
pub fn csp_frame_bits() -> u64 {
    Frame::csp(Frame::mac(0), CspPayload::default_bytes()).wire_bits()
}

impl CspPayload {
    /// A zeroed payload of the fixed wire size (for size computations).
    pub fn default_bytes() -> bytes::Bytes {
        bytes::Bytes::from(vec![0u8; CSP_PAYLOAD_LEN])
    }
}

/// Derive the SyncParams (including the statically computed delay bounds)
/// from a cluster configuration.
pub fn derive_params(cfg: &ClusterConfig) -> SyncParams {
    let bits = csp_frame_bits();
    // The trigger offsets decide how many header accesses precede each
    // trigger (the k_x/k_r terms of the delay bounds).
    let reads_before = cfg.cpld.xmt_trigger_off / 4 + 1;
    let writes_before = cfg.cpld.rcv_trigger_off / 4 + 1;
    let header_words = cfg.cpld.header_len / 4;
    let (dmin, dmax) = match cfg.mode {
        TimestampMode::Hardware => {
            delay_bounds_hardware(&cfg.comco, &cfg.medium, bits, reads_before, writes_before)
        }
        TimestampMode::InterruptRx => {
            delay_bounds_interrupt_rx(&cfg.comco, &cfg.medium, bits, reads_before, header_words)
        }
        TimestampMode::Software => {
            delay_bounds_software(&cfg.comco, &cfg.medium, &cfg.kernel, bits, 64)
        }
    };
    SyncParams {
        round_period: cfg.round_period,
        cf_delta: CF_DELTA,
        f: cfg.f,
        delay_min: dmin,
        delay_max: dmax,
        rho_ppm: cfg.rho_budget_ppm,
        rate_adj_uncertainty: SimDuration::from_fs(1_000_000_000_000_000 / cfg.fosc_hz as u128),
        granularity: cfg.granularity,
        amortization: AMORTIZATION,
    }
}

impl Cluster {
    /// Build a cluster and schedule its initial events.
    pub fn new(cfg: ClusterConfig) -> Self {
        assert!(
            cfg.rho_budget_ppm >= cfg.drift.rho_bound_ppm(),
            "drift budget must bound the oscillator population"
        );
        assert!(CF_DELTA < cfg.round_period, "Δ must fit inside the round");
        if let Some(cell) = &cfg.status_cell {
            assert_eq!(
                cell.node_count(),
                cfg.topology.node_count(),
                "status cell must be sized for the cluster"
            );
        }
        let params = derive_params(&cfg);
        let root = SimRng::new(cfg.seed);
        let n = cfg.topology.node_count();
        let mut injector = FaultInjector::new(&cfg.fault_plan, &root);
        injector.attach_observer(&cfg.obs);
        for (node, at, _) in injector.crash_windows() {
            assert!(node < n, "crash episode targets node {node} of {n}");
            assert!(at > SimTime::ZERO, "crash at t=0 is not meaningful");
        }
        // GPS receivers, with the plan's receiver faults: an episode rides
        // on a receiver declared in `cfg.gps` (it cannot conjure hardware),
        // and `receiver` counts the node's own.
        let mut gps: Vec<Vec<GpsReceiver>> = (0..n).map(|_| Vec::new()).collect();
        for (k, g) in cfg.gps.iter().enumerate() {
            let rx = GpsReceiver::new(g.cfg, root.split_idx("gps", k as u64));
            assert!(
                gps[g.node].len() < nti_utcsu::NUM_GPU,
                "at most 3 receivers per node"
            );
            gps[g.node].push(rx);
        }
        for (id, receivers) in gps.iter_mut().enumerate() {
            for (receiver, fault) in injector.gps_faults(id) {
                assert!(
                    receiver < receivers.len(),
                    "Gps fault episode targets receiver {receiver} of node {id}, \
                     which has {} receivers configured",
                    receivers.len()
                );
                receivers[receiver].inject(fault);
            }
        }
        // Each layer is attached to the observer where it is built: one
        // medium per LAN here, each node's UTCSU in `World::power_up`, the
        // engine and the cluster metrics (the kernels' latency histograms
        // among them) below.
        let mediums = (0..cfg.topology.lan_count())
            .map(|l| {
                let mut m = Medium::new(cfg.medium, root.split_idx("medium", l as u64));
                m.attach_observer(&cfg.obs, l as u32);
                m
            })
            .collect();

        let mut world = World {
            nodes: Vec::with_capacity(n),
            mediums,
            topology: cfg.topology.clone(),
            flights: FxHashMap::default(),
            rx: FxHashMap::default(),
            next_flight: 0,
            injector,
            rejoin_track: HashMap::new(),
            app_pending: HashMap::new(),
            actuation_pending: Vec::new(),
            metrics: Metrics::default(),
            status_publishes: 0,
            obs: None,
            cfg,
            params,
        };
        let mut cfg_rng = root.split("cfg");
        for (id, gps) in gps.into_iter().enumerate() {
            let cfg = &world.cfg;
            let node_rng = root.split_idx("node", id as u64);
            let mut osc = cfg
                .drift
                .build(&mut cfg_rng, cfg.fosc_hz, node_rng.split("osc"));
            let excursions = world.injector.drift_excursions(id);
            if !excursions.is_empty() {
                osc.set_excursions(&excursions);
            }
            let comcos = (0..cfg.topology.attachments(id).len())
                .map(|a| {
                    Comco::new(
                        cfg.comco,
                        cfg.medium.bitrate_bps,
                        node_rng.split_idx("comco", a as u64),
                    )
                })
                .collect();
            let hw = Hardware {
                osc,
                comcos,
                kernel: Kernel::new(cfg.kernel, node_rng.split("kernel")),
                health: HealthTracker::new(HealthConfig::for_f(cfg.f)),
                gps,
            };
            // Initial clock: UTC + uniform [0, 2·init_offset).
            let boot = SimTime::ZERO + boot_offset(&mut cfg_rng, cfg.init_offset);
            let node = world.power_up(id, hw, NtpTime::from_sim_time(boot), 0, SimTime::ZERO);
            world.nodes.push(node);
        }
        if let Some(sec) = world.cfg.actuation_start_sec {
            for node in &mut world.nodes {
                arm_timer(node, 2, NtpTime::from_secs(sec));
            }
        }
        let obs = world.cfg.obs.clone();
        if obs.is_enabled() {
            let key = |name| MetricKey::global("cluster", name);
            let hist = |key| LocalHist::new(obs.hist(key).expect("enabled"));
            let kernel = |name| hist(MetricKey::global("kernel", name));
            world.obs = Some(ClusterObs {
                obs: obs.clone(),
                spans: HOP_SUBSYSTEMS
                    .into_iter()
                    .chain([Subsystem::Faults])
                    .any(|s| obs.tracing(s)),
                precision_ns: hist(key("precision_ns")),
                true_error_ns: hist(key("true_error_ns")),
                alpha_ns: hist(key("alpha_ns")),
                eps_excess_ns: hist(key("eps_excess_ns")),
                cf_input_spread_ns: hist(key("cf_input_spread_ns")),
                csp_counters: CSP_COUNT_NAMES.map(|nm| obs.counter(key(nm)).expect("enabled")),
                csp_published: [0; CSP_COUNT_NAMES.len()],
                hop_ns: HOP_HIST_NAMES.map(|nm| hist(MetricKey::global("span", nm))),
                isr_entry_ns: kernel("isr_entry_ns"),
                isr_body_ns: kernel("isr_body_ns"),
                dispatch_ns: kernel("dispatch_ns"),
                csp_assembly_ns: kernel("csp_assembly_ns"),
                enter_state: ENTER_STATE_NAMES.map(|nm| {
                    obs.counter(MetricKey::global("membership", nm))
                        .expect("enabled")
                }),
                state_gauge: HEALTH_STATES.map(|s| {
                    obs.gauge(MetricKey::global("membership", s.name()))
                        .expect("enabled")
                }),
                status_publishes: obs.counter(key("status_publishes")).expect("enabled"),
                violation_counters: VIOLATION_NAMES.map(|nm| {
                    obs.counter(MetricKey::global("monitor", nm))
                        .expect("enabled")
                }),
                violations_published: [0; VIOLATION_NAMES.len()],
            });
        }
        let mut eng = Eng::new();
        eng.attach_observer(&obs);
        // Dark-start churn nodes: a node whose *first* churn event is a
        // join spends the run's opening `Down` — no clock, no timers, no
        // CSPs — until that join fires. (`initially_down` draws nothing,
        // so an empty plan perturbs no state here.)
        for (id, dark) in world
            .cfg
            .churn_plan
            .initially_down(n)
            .into_iter()
            .enumerate()
        {
            if dark {
                let edge = world.nodes[id].health.set_down();
                note_health_edge(&mut world, SimTime::ZERO, id, edge);
            }
        }
        // Arm the first round's timers and start services.
        for id in 0..n {
            if world.nodes[id].is_down() {
                continue;
            }
            arm_round_timers(&mut world, id, 1);
            schedule_utcsu_service(&mut world, &mut eng, id);
        }
        // The recurring generators: each occurrence schedules the next.
        // Snapshots (the HWSNAP sweep).
        eng.schedule_at(SimTime::ZERO + world.cfg.snapshot_every, snapshot);
        // GPS seconds: one generator per (node, receiver), half a second
        // ahead of the pulse.
        for id in 0..n {
            for g in 0..world.nodes[id].gps.len() {
                eng.schedule_at(SimTime::from_millis(500), move |w, e| {
                    gps_second(w, e, id, g, 1)
                });
            }
        }
        // Application events: one physical stimulus hits every node's APU 0.
        if let Some(period) = world.cfg.app_event_period {
            eng.schedule_at(SimTime::ZERO + period, |w, e| app_event(w, e, 0));
        }
        // Background load.
        if world.cfg.bg_load.is_some() {
            for id in 0..n {
                eng.schedule_at(SimTime::from_millis(1 + id as u64), move |w, e| {
                    bg_load(w, e, id)
                });
            }
        }
        // Fault-plan lifecycle and boundary events. Scheduled only when
        // the plan is non-empty: extra events would perturb the engine's
        // tie-break sequence numbers even with no-op handlers, and an
        // empty plan must leave the run bit-identical to the seed.
        if !world.injector.is_empty() {
            let end = SimTime::ZERO + world.cfg.duration;
            apply_lan_faults(&mut world, SimTime::ZERO);
            for t in world.injector.boundaries() {
                if t > SimTime::ZERO && t < end {
                    eng.schedule_at(t, fault_boundary);
                }
            }
            for (id, at, restart) in world.injector.crash_windows() {
                if at < end {
                    eng.schedule_at(at, move |w, e| crash_node(w, e, id));
                }
                if let Some(r) = restart {
                    if r < end {
                        eng.schedule_at(r, move |w, e| restart_node(w, e, id));
                    }
                }
            }
        }
        // Dynamic membership: schedule the churn plan. Gated on plan
        // non-emptiness for the same bit-identity reason as the fault
        // lifecycle above.
        if !world.cfg.churn_plan.is_empty() {
            let end = SimTime::ZERO + world.cfg.duration;
            for ev in world.cfg.churn_plan.events().to_vec() {
                assert!(ev.node < n, "churn event targets node {} of {n}", ev.node);
                if let ChurnKind::Move { to_lan } = ev.kind {
                    assert!(
                        to_lan < world.topology.lan_count(),
                        "churn move targets LAN {to_lan} of {}",
                        world.topology.lan_count()
                    );
                    assert!(
                        world.topology.attachments(ev.node).len() == 1,
                        "only ordinary (non-gateway) nodes can move"
                    );
                }
                if ev.at < end {
                    eng.schedule_at(ev.at, move |w, e| churn_event(w, e, ev));
                }
            }
        }
        Cluster { eng, world }
    }

    /// Run to the configured duration and produce the report.
    pub fn run(self) -> Report {
        self.finish().0
    }

    /// Advance the simulation to `until` (capped at the configured
    /// duration) and return the new simulation time. Incremental driving:
    /// call repeatedly to interleave the simulation with outside work —
    /// the serving layer's simulation thread advances in wall-clock-sized
    /// chunks and checks a stop flag between calls.
    pub fn advance_until(&mut self, until: SimTime) -> SimTime {
        let end = SimTime::ZERO + self.world.cfg.duration;
        self.eng.run_until(&mut self.world, until.min(end));
        self.world.flush_obs();
        self.eng.now()
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.eng.now()
    }

    /// A consistent mid-run ensemble snapshot at the current simulation
    /// time (see [`World::status`]).
    pub fn status(&mut self) -> ClusterStatus {
        let now = self.eng.now();
        self.world.status(now)
    }

    /// Finish an incrementally-driven run: run any remaining span to the
    /// configured duration and produce the report plus raw accumulators.
    pub fn finish(mut self) -> (Report, Metrics) {
        let until = SimTime::ZERO + self.world.cfg.duration;
        self.eng.run_until(&mut self.world, until);
        self.world.flush_obs();
        let report = finalize(&mut self.world);
        (report, self.world.metrics)
    }

    /// Access the world (post-construction inspection in tests).
    pub fn world(&self) -> &World {
        &self.world
    }

    /// Mutable access to the world (mid-run inspection when driving the
    /// simulation incrementally with [`Cluster::advance_until`]).
    pub fn world_mut(&mut self) -> &mut World {
        &mut self.world
    }
}

/// Units of 2⁻⁵⁹ s for a duration (ceil).
fn units(d: SimDuration) -> u128 {
    crate::interval::units_ceil(d)
}
