//! The round: UTCSU duty-timer service, the round start that sends the CSP,
//! the CF time (rate correction, convergence, enforcement), and the GPS
//! inputs that feed the convergence function.

use super::*;

fn round_target(world: &World, id: usize, k: u32) -> NtpTime {
    let p = units(world.cfg.round_period);
    let stagger = units(STAGGER) * id as u128;
    NtpTime::from_raw(k as u128 * p + stagger)
}

pub(super) fn arm_timer(node: &mut Node, idx: usize, target: NtpTime) {
    let secs = target.secs();
    let frac24 = ((target.raw() >> (FRAC_BITS - NTP_FRAC_BITS)) & 0x00FF_FFFF) as u32;
    node.nti.utcsu_mut().arm_timer_regs(idx, secs, frac24);
}

pub(super) fn arm_round_timers(world: &mut World, id: usize, k: u32) {
    let t0 = round_target(world, id, k);
    let t1 = t0.wrapping_add_units(units(CF_DELTA) as i128);
    let node = &mut world.nodes[id];
    arm_timer(node, 0, t0);
    arm_timer(node, 1, t1);
}

/// (Re)schedule the DES event that services the node's next UTCSU event.
pub(super) fn schedule_utcsu_service(world: &mut World, eng: &mut Eng, id: usize) {
    if let Some(ev) = world.nodes[id].utcsu_event.take() {
        eng.cancel(ev);
    }
    let node = &mut world.nodes[id];
    if let Some(tick) = node.nti.utcsu().next_event_tick() {
        let t = node.osc.time_of_tick(tick);
        let at = t.max(eng.now());
        world.nodes[id].utcsu_event =
            Some(eng.schedule_at(at, move |w, e| utcsu_service(w, e, id)));
    }
}

/// The node's interrupt dispatcher: fires when the UTCSU reaches its next
/// internal event (duty timer, amortization end, leap).
fn utcsu_service(world: &mut World, eng: &mut Eng, id: usize) {
    world.nodes[id].utcsu_event = None;
    if world.nodes[id].is_down() {
        return;
    }
    let now = eng.now();
    world.nodes[id].advance(now);
    let pending = world.nodes[id].nti.utcsu().itu.pending();
    // Acknowledge everything we will handle below.
    world.nodes[id]
        .nti
        .write32(UTCSU_BASE + uregs::R_INT_ACK, pending);
    if pending & IntSource::Timer(0).mask() != 0 {
        round_start(world, eng, id);
    }
    if pending & IntSource::Timer(1).mask() != 0 {
        cf_time(world, eng, id);
    }
    if pending & IntSource::Timer(2).mask() != 0 {
        actuation_fired(world, eng, id);
    }
    if pending & IntSource::AmortEnd.mask() != 0 {
        if let Some((dm, dp)) = world.nodes[id].amort_dstep_saved.take() {
            let u = world.nodes[id].nti.utcsu_mut();
            u.acu.set_dstep_minus(dm);
            u.acu.set_dstep_plus(dp);
        }
    }
    schedule_utcsu_service(world, eng, id);
}

/// Step 1: the round duty timer fired — assemble and send the CSP.
fn round_start(world: &mut World, eng: &mut Eng, id: usize) {
    let now = eng.now();
    if let Some(o) = &world.obs {
        o.obs
            .instant(now.as_fs(), id as u32, Subsystem::Cluster, "round_start");
    }
    // Re-arm for the next round.
    let k = world.nodes[id].core.round + 2; // timers armed one round ahead
    let t0 = round_target(world, id, k);
    arm_timer(&mut world.nodes[id], 0, t0);

    // Software transmit stamp is taken during assembly (step 1).
    let sw_stamp = world.nodes[id].read_clock_regs(now);
    let assembly = world.nodes[id].kernel.csp_assembly();
    eng.schedule_at(now + assembly, move |w, e| {
        csp_send(w, e, id, sw_stamp, now)
    });
}

/// Step 3: the CF duty timer fired — rate correction, convergence and
/// enforcement.
fn cf_time(world: &mut World, eng: &mut Eng, id: usize) {
    let now = eng.now();
    // Re-arm CF timer for the next round.
    let k = world.nodes[id].core.round + 2;
    let t1 = round_target(world, id, k).wrapping_add_units(units(CF_DELTA) as i128);
    arm_timer(&mut world.nodes[id], 1, t1);

    // Membership watchdog: decide from this round's evidence whether to
    // converge or to freeze. A holdover freeze skips *everything*
    // downstream — convergence, enforcement and the rate trim — so the
    // clock free-runs on its last trimmed rate while the ACU keeps
    // deteriorating α at the drift bound (containment is preserved
    // without fresh samples; see `crate::health`).
    let heard = world.nodes[id].core.inbox_len();
    let ext_n = world.nodes[id].core.ext_len();
    if world.nodes[id].health.round_action(heard, ext_n) == RoundAction::Freeze {
        world.nodes[id].core.skip_round();
        if let Some(o) = &world.obs {
            o.obs.instant(
                now.as_fs(),
                id as u32,
                Subsystem::Cluster,
                "holdover_freeze",
            );
        }
        return;
    }

    // Rate synchronization first (the state algorithm assumes the trimmed
    // rate for the coming round). Corrections start after a warm-up (the
    // first rounds' estimates span the initial large state corrections) and
    // are clamped per round so one noisy estimate cannot fling the rate.
    if world.cfg.rate_sync {
        let f = world.cfg.f;
        let corr = world.nodes[id].rate.round_correction(f);
        if world.nodes[id].core.round >= 3 {
            if let Some(corr) = corr {
                // Per-round clamp proportional to the drift budget: poor
                // oscillators need faster trimming; the budget still bounds
                // the reachable rates.
                let clamp = (world.cfg.rho_budget_ppm * 1e-6 / 4.0).max(3e-6);
                let corr = corr.clamp(-clamp, clamp);
                let node = &mut world.nodes[id];
                let step = node.nti.utcsu().ltu.step_units();
                let new = RateSync::corrected_step(step, corr);
                node.nti.utcsu_mut().ltu.set_step_units(new);
            }
        }
    }

    // Convergence-input disagreement, measured before converge() drains
    // the inbox.
    if let Some(o) = &world.obs {
        if let Some(spread) = world.nodes[id].core.inbox_offset_spread_units() {
            let ns = ((spread.unsigned_abs() * 1_000_000_000) >> FRAC_BITS) as u64;
            o.cf_input_spread_ns.record(ns);
            o.obs.value(
                now.as_fs(),
                id as u32,
                Subsystem::Cluster,
                "cf_input_spread_ns",
                ns.min(i64::MAX as u64) as i64,
            );
        }
    }
    let clock = world.nodes[id].read_clock_regs(now);
    let alpha = world.nodes[id].read_alpha_regs(now);
    let was_reintegrating = world.nodes[id].core.reintegrating;
    let converged = world.nodes[id].core.converge(clock, alpha);
    // Digest the round's outcome into the watchdog (quorum evidence was
    // recorded by `round_action` above); `Down`/`Reintegrating` never
    // escalate from here.
    let edge = world.nodes[id].health.note_round(converged.is_some());
    note_health_edge(world, now, id, edge);
    let Some(enf) = converged else {
        return;
    };
    if was_reintegrating && !world.nodes[id].core.reintegrating {
        // First convergence built from a quorum of peer CSPs: the
        // restarted node has reacquired synchronized time and rejoins the
        // ensemble.
        world.metrics.rejoins += 1;
        world.injector.note_rejoin(now, id);
        let edge = world.nodes[id].health.note_rejoined();
        note_health_edge(world, now, id, edge);
    }
    let node = &mut world.nodes[id];
    match world.cfg.algo {
        AlgoKind::IntervalOa | AlgoKind::IntervalMarzullo => {
            let amort_ticks = node.ticks_for(AMORTIZATION);
            // Load the slew-covering accuracies atomically.
            node.nti
                .utcsu_mut()
                .stage_acc_load(enf.new_alpha.0, enf.new_alpha.1);
            node.nti.write32(
                UTCSU_BASE + uregs::R_CTRL,
                uregs::CTRL_RUN | uregs::CTRL_APPLY_ALOAD,
            );
            // Continuous amortization: ASTEP = STEP + δ/ticks.
            if enf.delta_units != 0 {
                let step = node.nti.utcsu().ltu.step_units() as i128;
                let per_tick59 = enf.delta_units / amort_ticks as i128;
                let astep =
                    (step + (per_tick59 >> nti_simcore::ntp::STEP_UNIT_SHIFT)).max(1) as u64;
                let u = node.nti.utcsu_mut();
                u.ltu.set_astep_units(astep);
                u.start_amortization(amort_ticks);
                // Shrink α back by the applied delta over the slew via a
                // temporary negative deterioration (zero-masked by the ACU).
                let applied = ((astep as i128 - step) << nti_simcore::ntp::STEP_UNIT_SHIFT)
                    * amort_ticks as i128;
                node.cum_adj_units += applied;
                let removal = (applied.unsigned_abs() / amort_ticks) as i64;
                let (dm, dp) = u.acu.dsteps();
                node.amort_dstep_saved = Some((dm, dp));
                if enf.delta_units >= 0 {
                    // Clock slews forward: the α⁻ cover shrinks.
                    u.acu.set_dstep_minus(dm - removal);
                } else {
                    u.acu.set_dstep_plus(dp - removal);
                }
            }
        }
        AlgoKind::Ftm => {
            // Instantaneous state step, no interval maintenance.
            let cur = node.nti.utcsu().time();
            node.cum_adj_units += enf.delta_units;
            node.nti
                .utcsu_mut()
                .stage_time_load(cur.wrapping_add_units(enf.delta_units));
            node.nti
                .utcsu_mut()
                .stage_acc_load(Accuracy::MAX, Accuracy::MAX);
            node.nti.utcsu_mut().apply_load();
        }
    }
    // α-recovery trajectory for recently restarted nodes: one sample per
    // completed round, until the tracking window closes.
    if !world.nodes[id].core.reintegrating {
        if let Some(&idx) = world.rejoin_track.get(&id) {
            let (am, ap) = world.nodes[id].read_alpha_regs(now);
            let worst = am.max(ap).as_secs_f64();
            world.metrics.rejoin_alpha[idx].alpha.push(worst);
            if world.metrics.rejoin_alpha[idx].alpha.len() >= REJOIN_TRACK_ROUNDS {
                world.rejoin_track.remove(&id);
            }
        }
    }
    schedule_utcsu_service(world, eng, id);
}

/// GPS per-second generator: emit the pulse for `sec` and schedule the
/// stamp and TOD handling. The per-second cadence itself is a periodic
/// engine event (`schedule_every` in `Cluster::new`).
pub(super) fn gps_second(world: &mut World, eng: &mut Eng, id: usize, g: usize, sec: u64) {
    if world.nodes[id].is_down() {
        // The receiver keeps running, but the crashed node samples nothing.
        return;
    }
    if let Some(pulse) = world.nodes[id].gps[g].pulse_for_second(sec) {
        let sample_at = world.nodes[id].sample_instant(pulse.at);
        eng.schedule_at(sample_at, move |w, e| {
            if w.nodes[id].is_down() {
                return;
            }
            w.nodes[id].advance(e.now());
            w.nodes[id].nti.utcsu_mut().trigger_gpu(g);
        });
        eng.schedule_at(pulse.tod_at, move |w, e| gps_tod(w, e, id, g, pulse));
    }
}

/// TOD message arrived: validate the external interval and feed it to the
/// CF on acceptance.
fn gps_tod(world: &mut World, eng: &mut Eng, id: usize, g: usize, pulse: nti_gps::PpsEvent) {
    let now = eng.now();
    if world.nodes[id].is_down() {
        return;
    }
    world.nodes[id].advance(now);
    let Some(stamp) = world.nodes[id].nti.utcsu_mut().gpu[g].pps.take() else {
        return;
    };
    let Some(stamp_local) = stamp.time() else {
        return;
    };
    let fosc = world.nodes[id].osc.nominal_hz();
    let extra = SimDuration::from_fs(3 * 1_000_000_000_000_000 / fosc as u128);
    let ext = gps_observation(pulse.tod_second, pulse.claimed_accuracy, stamp_local, extra);
    // Validation interval: the node's own current interval, with the
    // external observation drift-compensated to now.
    let clock = world.nodes[id].read_clock_regs(now);
    let alpha = world.nodes[id].read_alpha_regs(now);
    let own = AccInterval::from_alpha(clock, alpha.0, alpha.1);
    let ext_now = world.nodes[id].core.drift_compensate(&ext, clock);
    if world.cfg.gps_blind_trust || validate(&ext_now, &own).is_some() {
        world.nodes[id].vstats.accepted += 1;
        world.nodes[id].core.accept_external(ext);
    } else {
        world.nodes[id].vstats.rejected += 1;
    }
}
