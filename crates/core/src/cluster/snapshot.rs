//! Measurement during the run: the periodic HWSNAP sweep, mid-run status
//! frames, and the all-node application-event and actuation barriers.

use super::*;

impl World {
    /// A consistent mid-run snapshot of the ensemble at `now`: per-node
    /// clock, accuracy interval and health state, plus the frame header.
    /// This is what `Report.final_states` and the membership gauges cannot
    /// give you — the state *while the run is still going* — and it is the
    /// frame every HWSNAP sweep publishes into `ClusterConfig::status_cell`.
    pub fn status(&mut self, now: SimTime) -> ClusterStatus {
        let ref_fs = ref_time(self, now).as_fs();
        let nodes = (0..self.nodes.len())
            .map(|id| {
                if self.nodes[id].is_down() {
                    return NodeStatus {
                        clock: NtpTime::ZERO,
                        alpha_minus: SimDuration::ZERO,
                        alpha_plus: SimDuration::ZERO,
                        state: self.nodes[id].health.state(),
                        down: true,
                    };
                }
                self.nodes[id].advance(now);
                let (am, ap) = self.nodes[id].nti.utcsu().alpha();
                NodeStatus {
                    clock: self.nodes[id].nti.utcsu().time(),
                    alpha_minus: am.to_duration(),
                    alpha_plus: ap.to_duration(),
                    state: self.nodes[id].health.state(),
                    down: false,
                }
            })
            .collect();
        ClusterStatus {
            publishes: self.status_publishes,
            sim_time_fs: now.as_fs(),
            ref_time_fs: ref_fs,
            nodes,
        }
    }
}

/// The metric reference instant: simulation time adjusted for a
/// coordinated leap (after an insertion, UTC — and every UTC-following
/// clock — reads one second less).
pub(super) fn ref_time(world: &World, now: SimTime) -> SimTime {
    match world.cfg.leap_insert_at_sec {
        Some(sec) if now >= SimTime::from_secs(sec as u64) => now - SimDuration::from_secs(1),
        _ => now,
    }
}

/// Whether metric collection is suspended (nodes straddle the leap
/// boundary at slightly different real instants).
fn in_leap_blackout(world: &World, now: SimTime) -> bool {
    match world.cfg.leap_insert_at_sec {
        Some(sec) => {
            let t = SimTime::from_secs(sec as u64);
            now.abs_diff(t) < SimDuration::from_millis(1500)
        }
        None => false,
    }
}

/// A clock reading as femtoseconds since the NTP epoch (for the
/// monotonicity check; split so the fraction multiply cannot overflow).
fn ntp_to_fs(t: NtpTime) -> i128 {
    let secs = (t.raw() >> FRAC_BITS) as i128;
    let frac = (t.raw() & ((1u128 << FRAC_BITS) - 1)) as i128;
    secs * 1_000_000_000_000_000 + ((frac * 1_000_000_000_000_000) >> FRAC_BITS)
}

/// A synchronized actuation duty timer fired: record the real instant;
/// once every node fired, the spread is one simultaneity sample. Re-arms
/// one round period later.
pub(super) fn actuation_fired(world: &mut World, eng: &mut Eng, id: usize) {
    let now = eng.now();
    if world.nodes.iter().any(Node::is_down) {
        // A crashed node can never complete the barrier; discard partial
        // samples rather than recording a bogus spread.
        world.actuation_pending.clear();
    } else {
        world.actuation_pending.push(now);
        if world.actuation_pending.len() == world.nodes.len() {
            let v = std::mem::take(&mut world.actuation_pending);
            if now.as_fs() >= world.cfg.warmup.as_fs() {
                let min = v.iter().min().expect("nonempty");
                let max = v.iter().max().expect("nonempty");
                world
                    .metrics
                    .actuation_spread
                    .add(max.saturating_since(*min).as_secs_f64());
            }
        }
    }
    // Re-arm at the previous absolute target plus one round period (the
    // disarmed timer still holds its old target registers).
    let node = &mut world.nodes[id];
    let next = node.nti.utcsu().timers[2]
        .target()
        .wrapping_add_units(units(world.cfg.round_period) as i128);
    arm_timer(node, 2, next);
}

/// HWSNAP sweep: precision, accuracy, containment, and the invariant
/// checks on them; then schedules the next sweep `snapshot_every` on.
pub(super) fn snapshot(world: &mut World, eng: &mut Eng) {
    let now = eng.now();
    let mut times: Vec<NtpTime> = Vec::with_capacity(world.nodes.len());
    let mut rates: Vec<f64> = Vec::with_capacity(world.nodes.len());
    let in_window = now.as_fs() >= world.cfg.warmup.as_fs() && !in_leap_blackout(world, now);
    // Amortized interval clocks slew continuously and never read
    // backwards; instantaneous-step modes and leap insertion legitimately
    // do.
    let check_monotonic = world.cfg.leap_insert_at_sec.is_none()
        && matches!(
            world.cfg.algo,
            AlgoKind::IntervalOa | AlgoKind::IntervalMarzullo
        );
    for id in 0..world.nodes.len() {
        // Crashed nodes hold no clock; reintegrating nodes are excluded
        // from ensemble metrics until they have reacquired synchronized
        // time (their cold-start interval would otherwise dominate).
        if world.nodes[id].is_down() || world.nodes[id].core.reintegrating {
            continue;
        }
        world.nodes[id].advance(now);
        world.nodes[id].nti.utcsu_mut().trigger_hwsnap();
        let _ = world.nodes[id].nti.utcsu_mut().snu.take();
        let t = world.nodes[id].nti.utcsu().time();
        // A holdover node free-runs outside the precision ensemble (its
        // clock is honest but no longer trimmed); its containment claim is
        // still checked, and counted apart below.
        let holdover = world.nodes[id].health.state() == HealthState::Holdover;
        if !holdover {
            times.push(t);
            rates.push(world.nodes[id].effective_rate_ppm(now));
        }
        if in_window {
            let reference = ref_time(world, now);
            let (am, ap) = world.nodes[id].nti.utcsu().alpha();
            let iv = AccInterval::from_alpha(t, am, ap);
            let signed_err = iv.value_error_secs(reference);
            world.metrics.containment_checks += 1;
            if !iv.contains_time(reference) {
                world.metrics.containment_violations += 1;
                let kind = if holdover {
                    VIOL_HOLDOVER_CONTAINMENT
                } else {
                    VIOL_CONTAINMENT
                };
                world.violation(kind, now.as_fs(), id as u32, (signed_err * 1e15) as i128);
            }
            let err = signed_err.abs();
            let a_max = am.as_secs_f64().max(ap.as_secs_f64());
            world.metrics.true_error.add(err);
            world.metrics.alpha.add(a_max);
            if let Some(o) = &mut world.obs {
                o.true_error_ns.record((err * 1e9) as u64);
                o.alpha_ns.record((a_max * 1e9) as u64);
            }
            if check_monotonic {
                let clock = ntp_to_fs(t);
                if let Some(prev) = world.nodes[id].last_clock_fs.replace(clock) {
                    if clock < prev {
                        world.violation(VIOL_MONOTONIC, now.as_fs(), id as u32, clock - prev);
                    }
                }
            }
        }
    }
    if in_window {
        let worst = NtpTime::spread_secs(&times);
        world.metrics.precision.add(worst);
        if let Some(budget) = world.cfg.precision_budget {
            let worst_fs = (worst * 1e15) as u128;
            if worst_fs > budget.as_fs() {
                let excess = worst_fs as i128 - budget.as_fs() as i128;
                world.violation(VIOL_PRECISION, now.as_fs(), GLOBAL_NODE, excess);
            }
        }
        if let Some(o) = &mut world.obs {
            let ns = (worst * 1e9) as u64;
            o.precision_ns.record(ns);
            o.obs.value(
                now.as_fs(),
                GLOBAL_NODE,
                Subsystem::Cluster,
                "precision_ns",
                ns.min(i64::MAX as u64) as i64,
            );
        }
        let rmax = rates.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let rmin = rates.iter().copied().fold(f64::INFINITY, f64::min);
        world.metrics.rate_spread_ppm_last = rmax - rmin;
    }
    // Membership gauges: how many nodes currently sit in each state.
    if let Some(o) = &world.obs {
        let mut counts = [0i64; HEALTH_STATES.len()];
        for node in &world.nodes {
            counts[node.health.state().index()] += 1;
        }
        for (g, &c) in o.state_gauge.iter().zip(counts.iter()) {
            g.set(c);
        }
    }
    // Mid-run status publication for external readers (the serving layer).
    // Wait-free for this (the simulation) thread; gated on the cell so
    // cell-less runs stay bit-identical.
    if world.cfg.status_cell.is_some() {
        world.status_publishes += 1;
        let frame = world.status(now);
        let cell = world.cfg.status_cell.as_ref().expect("checked above");
        cell.publish(&frame);
        if let Some(o) = &world.obs {
            o.status_publishes.add(1);
        }
    }
    eng.schedule_after(world.cfg.snapshot_every, snapshot);
}

/// A global application event: the same physical edge reaches every
/// node's APU 0; each UTCSU samples it at its own next-tick-plus-
/// synchronizer instant. The cross-node spread of the resulting stamps is
/// the end-to-end "relating sensor data" error: clock skew plus sampling
/// quantization. Then schedules event `ev + 1` one period on.
pub(super) fn app_event(world: &mut World, eng: &mut Eng, ev: u64) {
    app_event_barrier(world, eng, ev);
    let period = world
        .cfg
        .app_event_period
        .expect("app events have a period");
    eng.schedule_after(period, move |w, e| app_event(w, e, ev + 1));
}

/// Application event `ev`'s all-node barrier: every node stamps the edge,
/// and the last stamp records the spread.
fn app_event_barrier(world: &mut World, eng: &mut Eng, ev: u64) {
    let now = eng.now();
    let n = world.nodes.len();
    if world.nodes.iter().any(Node::is_down) {
        // The barrier cannot complete while any node is dark; skip this
        // event (`app_event` keeps the cadence).
        return;
    }
    world.app_pending.insert(ev, Vec::with_capacity(n));
    for id in 0..n {
        let sample_at = world.nodes[id].sample_instant(now);
        eng.schedule_at(sample_at, move |w, e| {
            if w.nodes[id].is_down() {
                return;
            }
            w.nodes[id].advance(e.now());
            if let Some(stamp) = w.nodes[id].nti.utcsu_mut().trigger_apu(0) {
                if let Some(t) = w.nodes[id].nti.utcsu_mut().apu[0]
                    .event
                    .take()
                    .and_then(|_| stamp.time())
                {
                    if let Some(v) = w.app_pending.get_mut(&ev) {
                        v.push(t);
                        if v.len() == w.nodes.len() {
                            let v = w.app_pending.remove(&ev).expect("just present");
                            if e.now().as_fs() >= w.cfg.warmup.as_fs() {
                                w.metrics.app_event_spread.add(NtpTime::spread_secs(&v));
                            }
                        }
                    }
                }
            }
        });
    }
}
