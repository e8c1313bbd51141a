//! Node lifecycle: power-up, fault-plan crashes and restarts, churn joins,
//! leaves and moves, LAN fault state, and health-transition records.

use super::*;

/// Record a health-state transition: the `membership/enter_<state>`
/// counter plus a trace instant. A `None` edge (no transition) is a no-op,
/// so callers can feed `HealthTracker` results through unconditionally.
pub(super) fn note_health_edge(
    world: &mut World,
    now: SimTime,
    id: usize,
    edge: Option<(HealthState, HealthState)>,
) {
    let Some((_, next)) = edge else { return };
    if let Some(o) = &world.obs {
        o.enter_state[next.index()].inc();
        o.obs.instant(
            now.as_fs(),
            id as u32,
            Subsystem::Cluster,
            "health_transition",
        );
    }
}

/// A churn-plan event fired: execute the join / leave / LAN move. Joins
/// ride the restart machinery but draw their boot offset from the
/// dedicated `faults.churn` RNG stream, so churn composes with fault plans
/// without perturbing the lifecycle stream.
pub(super) fn churn_event(world: &mut World, eng: &mut Eng, ev: ChurnEvent) {
    match ev.kind {
        ChurnKind::Join => {
            if !world.nodes[ev.node].is_down() {
                return; // already up
            }
            world.metrics.joins += 1;
            let off = boot_offset(world.injector.churn_rng(), world.cfg.init_offset);
            restart_node_with(world, eng, ev.node, off);
        }
        ChurnKind::Leave => {
            if world.nodes[ev.node].is_down() {
                return; // already down
            }
            world.metrics.leaves += 1;
            crash_node(world, eng, ev.node);
        }
        ChurnKind::Move { to_lan } => {
            world.metrics.moves += 1;
            world.topology.move_node(ev.node, to_lan);
        }
    }
}

/// A fault-plan episode boundary: re-evaluate every window-dependent
/// injection that is applied as *state* rather than sampled per event.
pub(super) fn fault_boundary(world: &mut World, eng: &mut Eng) {
    let now = eng.now();
    world.injector.note_boundary(now);
    apply_lan_faults(world, now);
}

/// Push the currently active LAN-targeted episodes into the mediums:
/// partition flags and asymmetric extra propagation delay.
pub(super) fn apply_lan_faults(world: &mut World, now: SimTime) {
    for l in 0..world.mediums.len() {
        world.mediums[l].set_extra_propagation(world.injector.lan_extra_delay(l, now));
        world.mediums[l].set_partitioned(world.injector.lan_partitioned(l, now));
    }
}

/// A crash episode begins: the node loses power. Its UTCSU state is gone,
/// pending service events are cancelled, and any frame it currently has on
/// the wire is truncated (receivers see an FCS failure).
pub(super) fn crash_node(world: &mut World, eng: &mut Eng, id: usize) {
    if world.nodes[id].is_down() {
        return;
    }
    let now = eng.now();
    world.nodes[id].advance(now);
    world.metrics.crashes += 1;
    world.injector.note_crash(now, id);
    let edge = world.nodes[id].health.set_down();
    note_health_edge(world, now, id, edge);
    if let Some(idx) = world.rejoin_track.remove(&id) {
        // Crashed (or left) again before the post-rejoin tracking window
        // closed: that restart never recovered.
        world.metrics.rejoin_alpha[idx].interrupted = true;
    }
    if let Some(ev) = world.nodes[id].utcsu_event.take() {
        eng.cancel(ev);
    }
    for flight in world.flights.values_mut() {
        if flight.src == id {
            flight.corrupted = true;
        }
    }
}

/// A boot-clock offset, uniform in `[0, 2·init_offset)`: how far a node's
/// power-up estimate of UTC sits from the reference.
pub(super) fn boot_offset(rng: &mut SimRng, init_offset: SimDuration) -> SimDuration {
    SimDuration::from_fs(rng.below((2 * init_offset.as_fs()).max(1) as u64) as u128)
}

impl World {
    /// Power node `id` up on `hw`: a fresh NTI, its UTCSU caught up to
    /// oscillator tick `tick`, with its clock loaded to `boot` under an
    /// accuracy cover of the boot scatter, the SYNCRUN started and every
    /// interrupt unmasked; a fresh `SyncCore`; SCB and rate state reset,
    /// and no clock sample for the monotonicity check (a reseeded boot
    /// clock may read earlier than the pre-crash clock); the drift budget
    /// programmed; and the GPS, application-event
    /// and leap hardware enabled as configured, the leap only while its
    /// boundary lies after `now`; and the UTCSU attached to the observer.
    pub(super) fn power_up(
        &self,
        id: usize,
        hw: Hardware,
        boot: NtpTime,
        tick: u128,
        now: SimTime,
    ) -> Node {
        let cfg = &self.cfg;
        let mut nti = Nti::new(utcsu_config(cfg), cfg.cpld);
        // Catch the fresh UTCSU's tick counter up with the physical
        // oscillator (which never stopped) *before* starting the clock, so
        // no clock time accumulates during an outage.
        nti.utcsu_mut().advance_to_tick(tick);
        let g_margin = SimDuration::from_nanos(120);
        nti.utcsu_mut().stage_time_load(boot);
        nti.utcsu_mut().stage_acc_load(
            Accuracy::from_duration_ceil(cfg.init_offset * 2 + g_margin),
            Accuracy::from_duration_ceil(g_margin),
        );
        nti.utcsu_mut().sync_run();
        nti.write32(UTCSU_BASE + uregs::R_INT_MASK, u32::MAX);
        let mut core = SyncCore::new(self.params, cfg.algo);
        core.blind_external = cfg.gps_blind_trust;
        core.reintegration_quorum = reintegration_quorum_for(&self.topology, id, cfg.f);
        core.congestion = cfg.congestion;
        let mut node = Node {
            id,
            osc: hw.osc,
            nti,
            comcos: hw.comcos,
            kernel: hw.kernel,
            scb: nti_module::ScbDriver::default(),
            core,
            health: hw.health,
            rate: RateSync::new(),
            gps: hw.gps,
            vstats: ValidationStats::default(),
            rx_slot: 0,
            tx_slot: 0,
            utcsu_event: None,
            amort_dstep_saved: None,
            cum_adj_units: 0,
            last_clock_fs: None,
            quant_units: if cfg.granularity <= SimDuration::from_nanos(60) {
                UTCSU_QUANT_UNITS
            } else {
                quant_units_for(cfg.granularity)
            },
        };
        node.scb.init(&mut node.nti);
        node.program_dsteps(cfg.rho_budget_ppm);
        for g in 0..node.gps.len() {
            node.nti.utcsu_mut().gpu[g].enabled = true;
        }
        if cfg.app_event_period.is_some() {
            node.nti.utcsu_mut().apu[0].enabled = true;
        }
        if let Some(sec) = cfg.leap_insert_at_sec {
            if now < SimTime::from_secs(sec as u64) {
                node.nti.write32(UTCSU_BASE + uregs::R_LEAP_SECS, sec);
                node.nti.write32(
                    UTCSU_BASE + uregs::R_CTRL,
                    uregs::CTRL_RUN | uregs::CTRL_LEAP_INSERT,
                );
            }
        }
        // Every power-up builds a fresh chip, so this is the UTCSU's one
        // attach site: a restarted or joined node keeps its trigger count
        // and trace instants.
        node.nti.utcsu_mut().attach_observer(&cfg.obs, id as u32);
        node
    }
}

/// A reintegrating node only rejoins once it can hear a real quorum:
/// `f + 1` masks faults, and a majority of the node's *neighborhood* (the
/// distinct peers sharing a segment with it — all a node can ever hear
/// directly) prevents a minority island inside a partition from counting
/// as "recovered". On a single LAN the neighborhood is the whole ensemble
/// and this reduces to `n / 2`.
fn reintegration_quorum_for(topo: &Topology, id: usize, f: usize) -> usize {
    let mut peers: Vec<usize> = topo
        .attachments(id)
        .iter()
        .flat_map(|&l| topo.members(l).iter().copied())
        .filter(|&p| p != id)
        .collect();
    peers.sort_unstable();
    peers.dedup();
    (f + 1).max(peers.len().div_ceil(2))
}

/// A crash episode ends: the node powers back up with a cold UTCSU. It
/// re-seeds its clock near the reference (boot-time estimate, e.g. from an
/// RTC) with a wide accuracy cover and rejoins the algorithm as a
/// *reintegrating* participant: it listens and converges on peer CSPs but
/// contributes no own interval until its first convergence completes
/// (a-posteriori initial synchronization, Section 6 of the paper).
pub(super) fn restart_node(world: &mut World, eng: &mut Eng, id: usize) {
    if !world.nodes[id].is_down() {
        return;
    }
    let off = boot_offset(world.injector.lifecycle_rng(), world.cfg.init_offset);
    restart_node_with(world, eng, id, off);
}

/// [`restart_node`] with the boot-clock offset supplied by the caller —
/// the fault lifecycle and churn joins draw it from *different* RNG
/// streams so the two compose deterministically.
fn restart_node_with(world: &mut World, eng: &mut Eng, id: usize, off: SimDuration) {
    if !world.nodes[id].is_down() {
        return;
    }
    let now = eng.now();
    let boot = NtpTime::from_sim_time(ref_time(world, now) + off);
    let tick = world.nodes[id].osc.ticks_at(now);
    let Node {
        osc,
        comcos,
        kernel,
        health,
        gps,
        ..
    } = world.nodes.remove(id);
    let hw = Hardware {
        osc,
        comcos,
        kernel,
        health,
        gps,
    };
    let node = world.power_up(id, hw, boot, tick, now);
    world.nodes.insert(id, node);
    world.nodes[id].core.reintegrating = true;
    // Resume the round schedule at the next boundary after the boot clock.
    let p = units(world.cfg.round_period);
    let k = (boot.raw() / p + 1) as u32;
    world.nodes[id].core.round = k - 1;
    arm_round_timers(world, id, k);
    if let Some(sec) = world.cfg.actuation_start_sec {
        let start = (sec as u128) << FRAC_BITS;
        let target = if boot.raw() >= start {
            start + ((boot.raw() - start) / p + 1) * p
        } else {
            start
        };
        arm_timer(&mut world.nodes[id], 2, NtpTime::from_raw(target));
    }
    let edge = world.nodes[id].health.set_reintegrating();
    note_health_edge(world, now, id, edge);
    // Every restart opens its own trajectory (an interrupted predecessor
    // was already closed by `crash_node`).
    world.metrics.rejoin_alpha.push(RejoinTrajectory {
        node: id,
        alpha: Vec::new(),
        interrupted: false,
    });
    world
        .rejoin_track
        .insert(id, world.metrics.rejoin_alpha.len() - 1);
    schedule_utcsu_service(world, eng, id);
}
