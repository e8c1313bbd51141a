//! The shared broadcast medium (CSMA/CD bus).
//!
//! Type-(II) systems in the paper's classification are LANs on shared
//! broadcast channels: "almost deterministic propagation delays but a
//! considerable **medium access uncertainty**" (Section 1). That access
//! uncertainty is the dominant ε term for software-timestamped clock
//! synchronization and the very thing the NTI's DMA-level timestamping
//! removes — so the medium model must produce it faithfully.
//!
//! The model is an event-level abstraction of CSMA/CD: a transmitter
//! becomes *ready*, defers while the channel is busy (carrier sense), and —
//! when it was forced to defer or collides with simultaneous contenders —
//! backs off by a random number of slot times with truncated binary
//! exponential backoff. Serialization occupies the channel for
//! `wire_bits / bitrate`; propagation adds a fixed per-segment delay
//! (a 10BASE bus of ≤ a few 100 m: tens to hundreds of ns).

use nti_obs::{fs_to_ns, Counter, Gauge, Histogram, MetricKey, Payload, SimObserver, Subsystem};
use nti_simcore::rng::SimRng;
use nti_simcore::time::{SimDuration, SimTime};
use std::sync::Arc;

/// Medium access behaviour.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AccessModel {
    /// Perfectly arbitrated FIFO access (no jitter) — the idealised bound.
    Ideal,
    /// CSMA/CD with truncated binary exponential backoff.
    CsmaCd,
}

/// Static medium parameters.
#[derive(Clone, Copy, Debug)]
pub struct MediumConfig {
    /// Channel bit rate (10 Mb/s Ethernet by default).
    pub bitrate_bps: u64,
    /// One-way propagation delay between any two taps.
    pub prop_delay: SimDuration,
    /// Inter-frame gap (96 bit times on Ethernet).
    pub ifg: SimDuration,
    /// Backoff slot time (512 bit times on Ethernet).
    pub slot_time: SimDuration,
    /// Access behaviour.
    pub access: AccessModel,
    /// ECN-style congestion marking: a grant whose access delay (the
    /// queue-occupancy proxy of this serialized-arbiter model) exceeds the
    /// threshold is marked, and receivers may down-weight or discard the
    /// carried CSP. `None` disables marking entirely.
    pub ecn_threshold: Option<SimDuration>,
}

impl MediumConfig {
    /// Classic 10 Mb/s Ethernet on a ≤ 200 m segment.
    pub fn ethernet_10m() -> Self {
        MediumConfig {
            bitrate_bps: 10_000_000,
            prop_delay: SimDuration::from_nanos(800), // ~160 m of coax
            ifg: SimDuration::from_micros(10),        // 96 bit times briefly above 9.6us
            slot_time: SimDuration::from_micros(51),  // 512 bit times
            access: AccessModel::CsmaCd,
            ecn_threshold: None,
        }
    }

    /// The same segment with an ideal (jitter-free) arbiter, for ablations.
    pub fn ideal_10m() -> Self {
        MediumConfig {
            access: AccessModel::Ideal,
            ..Self::ethernet_10m()
        }
    }
}

/// A transmission grant: when the first preamble bit hits the wire and when
/// the last bit leaves it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Grant {
    /// First bit on the wire.
    pub wire_start: SimTime,
    /// Last bit off the wire.
    pub wire_end: SimTime,
    /// How long the transmitter had to defer past its ready time.
    pub access_delay: SimDuration,
    /// Congestion-marked: the access delay exceeded the segment's ECN
    /// threshold (always `false` when marking is disabled). The mark rides
    /// the frame to its receivers.
    pub marked: bool,
}

/// Pre-resolved observability handles for one segment (see
/// [`Medium::attach_observer`]). Keyed by the LAN index so multi-segment
/// topologies report per-LAN utilization separately.
#[derive(Clone, Debug)]
struct MediumObs {
    obs: SimObserver,
    /// `net` is traced; resolved at attach, since the mask is fixed.
    trace: bool,
    lan: u32,
    grants: Arc<Counter>,
    deferrals: Arc<Counter>,
    backoffs: Arc<Counter>,
    ecn_marks: Arc<Counter>,
    access_delay_ns: Arc<Histogram>,
    util_permille: Arc<Gauge>,
}

/// One shared-bus segment.
#[derive(Clone, Debug)]
pub struct Medium {
    cfg: MediumConfig,
    busy_until: SimTime,
    /// Current backoff exponent (contention estimator).
    backoff_k: u32,
    rng: SimRng,
    /// Total channel-occupied time (serialization), for utilization.
    busy_total: SimDuration,
    /// Fault-injected extra one-way propagation delay (congestion episode).
    extra_prop: SimDuration,
    /// Fault-injected partition: while set, no frame crosses this segment.
    partitioned: bool,
    obs: Option<MediumObs>,
}

impl Medium {
    /// A fresh idle segment.
    pub fn new(cfg: MediumConfig, rng: SimRng) -> Self {
        Medium {
            cfg,
            busy_until: SimTime::ZERO,
            backoff_k: 0,
            rng,
            busy_total: SimDuration::ZERO,
            extra_prop: SimDuration::ZERO,
            partitioned: false,
            obs: None,
        }
    }

    /// Attach an observer; `lan` labels this segment's metrics, which are
    /// its only grant, deferral and mark counts. A disabled observer
    /// detaches instrumentation (a grant's cost returns to one branch).
    pub fn attach_observer(&mut self, obs: &SimObserver, lan: u32) {
        self.obs = if obs.is_enabled() {
            Some(MediumObs {
                obs: obs.clone(),
                trace: obs.tracing(Subsystem::Net),
                lan,
                grants: obs
                    .counter(MetricKey::node(lan, "net", "grants"))
                    .expect("enabled"),
                deferrals: obs
                    .counter(MetricKey::node(lan, "net", "deferrals"))
                    .expect("enabled"),
                backoffs: obs
                    .counter(MetricKey::node(lan, "net", "backoff_rounds"))
                    .expect("enabled"),
                ecn_marks: obs
                    .counter(MetricKey::node(lan, "net", "ecn_marks"))
                    .expect("enabled"),
                access_delay_ns: obs
                    .hist(MetricKey::node(lan, "net", "access_delay_ns"))
                    .expect("enabled"),
                util_permille: obs
                    .gauge(MetricKey::node(lan, "net", "util_permille"))
                    .expect("enabled"),
            })
        } else {
            None
        };
    }

    /// The configuration.
    pub fn config(&self) -> MediumConfig {
        self.cfg
    }

    /// One-way propagation delay of this segment, including any
    /// fault-injected extra delay currently in force.
    pub fn propagation(&self) -> SimDuration {
        self.cfg.prop_delay + self.extra_prop
    }

    /// Set the fault-injected extra propagation delay (zero to clear).
    pub fn set_extra_propagation(&mut self, extra: SimDuration) {
        self.extra_prop = extra;
    }

    /// Partition or heal this segment. While partitioned, callers must not
    /// deliver frames across it ([`Medium::is_partitioned`]); grants still
    /// proceed so transmitter-side timing is unchanged (the frames are lost,
    /// not the channel access).
    pub fn set_partitioned(&mut self, partitioned: bool) {
        self.partitioned = partitioned;
    }

    /// Is this segment currently partitioned by a fault episode?
    pub fn is_partitioned(&self) -> bool {
        self.partitioned
    }

    /// Serialization time for `bits` at the channel rate.
    pub fn serialize(&self, bits: u64) -> SimDuration {
        SimDuration::from_fs(bits as u128 * 1_000_000_000_000_000 / self.cfg.bitrate_bps as u128)
    }

    /// Request the channel: the transmitter is ready at `ready` with a
    /// frame of `bits`. Returns the grant, advancing the channel state.
    pub fn grant(&mut self, ready: SimTime, bits: u64) -> Grant {
        let contended = ready < self.busy_until;
        let mut start = if contended { self.busy_until } else { ready } + self.cfg.ifg;
        let mut backoff_slots: Option<u64> = None;
        match self.cfg.access {
            AccessModel::Ideal => {
                self.backoff_k = 0;
            }
            AccessModel::CsmaCd => {
                if contended {
                    // A deferral is carrier-sense waiting; only with some
                    // probability does it turn into a collision that backs
                    // off (two stations starting within the collision
                    // window). The exponent is truncated at 2⁵ slots: the
                    // serialized-arbiter abstraction already queues losers,
                    // so the full 2¹⁰ Ethernet truncation would double-count
                    // contention and saturate the channel.
                    if self.rng.chance(0.5) {
                        self.backoff_k = (self.backoff_k + 1).min(5);
                        let slots = self.rng.below(1 << self.backoff_k);
                        start += self.cfg.slot_time * slots as u128;
                        backoff_slots = Some(slots);
                    }
                } else if self.backoff_k > 0 {
                    self.backoff_k -= 1;
                }
            }
        }
        let serialize = self.serialize(bits);
        let end = start + serialize;
        self.busy_until = end;
        self.busy_total += serialize;
        let access_delay = start.saturating_since(ready);
        let marked = self.cfg.ecn_threshold.is_some_and(|th| access_delay > th);
        if let Some(o) = &self.obs {
            o.grants.inc();
            if contended {
                o.deferrals.inc();
            }
            if backoff_slots.is_some() {
                o.backoffs.inc();
            }
            if marked {
                o.ecn_marks.inc();
            }
            o.access_delay_ns.record(fs_to_ns(access_delay.as_fs()));
            if end.as_fs() > 0 {
                o.util_permille
                    .set((self.busy_total.as_fs() * 1000 / end.as_fs()) as i64);
            }
            if o.trace {
                o.obs.span(
                    start.as_fs(),
                    access_delay.as_fs(),
                    o.lan,
                    Subsystem::Net,
                    "medium_acquire",
                );
                o.obs.span(
                    end.as_fs(),
                    serialize.as_fs(),
                    o.lan,
                    Subsystem::Net,
                    "serialize",
                );
                o.obs.span(
                    (end + self.cfg.prop_delay).as_fs(),
                    self.cfg.prop_delay.as_fs(),
                    o.lan,
                    Subsystem::Net,
                    "propagate",
                );
                if let Some(slots) = backoff_slots {
                    o.obs.event(
                        start.as_fs(),
                        o.lan,
                        Subsystem::Net,
                        "backoff",
                        Payload::Value {
                            value: slots as i64,
                        },
                    );
                }
            }
        }
        Grant {
            wire_start: start,
            wire_end: end,
            access_delay,
            marked,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn medium(access: AccessModel) -> Medium {
        let cfg = MediumConfig {
            access,
            ..MediumConfig::ethernet_10m()
        };
        Medium::new(cfg, SimRng::new(42))
    }

    #[test]
    fn idle_channel_grants_after_ifg() {
        let mut m = medium(AccessModel::Ideal);
        let g = m.grant(SimTime::from_secs(1), 1000);
        assert_eq!(g.wire_start, SimTime::from_secs(1) + m.config().ifg);
        assert_eq!(g.wire_end, g.wire_start + m.serialize(1000));
        assert_eq!(g.access_delay, m.config().ifg);
    }

    #[test]
    fn serialization_matches_bitrate() {
        let m = medium(AccessModel::Ideal);
        // 10_000 bits at 10 Mb/s = 1 ms.
        assert_eq!(m.serialize(10_000), SimDuration::from_millis(1));
    }

    #[test]
    fn busy_channel_defers() {
        let mut m = medium(AccessModel::Ideal);
        let g1 = m.grant(SimTime::from_secs(1), 10_000); // occupies 1 ms
        let g2 = m.grant(SimTime::from_secs(1), 10_000); // must wait
        assert!(g2.wire_start >= g1.wire_end + m.config().ifg);
        assert!(g2.access_delay > g1.access_delay);
    }

    #[test]
    fn csma_backoff_adds_jitter() {
        // Two contending transmitters on CSMA: access delays should show
        // slot-time-scale variation across repetitions.
        let mut delays = Vec::new();
        for seed in 0..50 {
            let cfg = MediumConfig::ethernet_10m();
            let mut m = Medium::new(cfg, SimRng::new(seed));
            let _ = m.grant(SimTime::from_secs(1), 10_000);
            let g = m.grant(SimTime::from_secs(1), 10_000);
            delays.push(g.access_delay.as_micros_f64());
        }
        let min = delays.iter().copied().fold(f64::INFINITY, f64::min);
        let max = delays.iter().copied().fold(0.0f64, f64::max);
        assert!(
            max - min >= 40.0,
            "expected ≥ 1 slot of spread, got {min}..{max}"
        );
    }

    #[test]
    fn ideal_access_is_deterministic() {
        for _ in 0..3 {
            let mut m = medium(AccessModel::Ideal);
            let _ = m.grant(SimTime::from_secs(1), 10_000);
            let g = m.grant(SimTime::from_secs(1), 10_000);
            // Deterministic: exactly busy_until + ifg.
            let expect =
                SimTime::from_secs(1) + m.config().ifg + m.serialize(10_000) + m.config().ifg;
            assert_eq!(g.wire_start, expect);
        }
    }

    /// LAN 0's `net/<name>` counter in `obs`.
    fn count(obs: &SimObserver, name: &'static str) -> u64 {
        obs.counter(MetricKey::node(0, "net", name)).unwrap().get()
    }

    #[test]
    fn backoff_exponent_decays_when_uncontended() {
        let mut m = medium(AccessModel::CsmaCd);
        let obs = SimObserver::enabled();
        m.attach_observer(&obs, 0);
        // Build contention.
        let _ = m.grant(SimTime::from_secs(1), 10_000);
        let _ = m.grant(SimTime::from_secs(1), 10_000);
        assert_eq!(count(&obs, "deferrals"), 1);
        // Long quiet period: next uncontended grant decays the exponent.
        let g = m.grant(SimTime::from_secs(10), 10_000);
        assert_eq!(g.access_delay, m.config().ifg);
    }

    #[test]
    fn grants_are_serialized_never_overlapping() {
        let mut m = medium(AccessModel::CsmaCd);
        let mut last_end = SimTime::ZERO;
        for i in 0..100 {
            let g = m.grant(SimTime::from_millis(i), 8_000);
            assert!(g.wire_start >= last_end, "overlap at grant {i}");
            last_end = g.wire_end;
        }
    }

    #[test]
    fn ecn_marks_only_above_threshold() {
        // Threshold just above the IFG: an uncontended grant (access delay
        // == IFG) stays clean, a queued-behind-a-frame grant is marked.
        let mut cfg = MediumConfig {
            access: AccessModel::Ideal,
            ..MediumConfig::ethernet_10m()
        };
        cfg.ecn_threshold = Some(cfg.ifg + SimDuration::from_micros(1));
        let mut m = Medium::new(cfg, SimRng::new(7));
        let obs = SimObserver::enabled();
        m.attach_observer(&obs, 0);
        let g1 = m.grant(SimTime::from_secs(1), 10_000); // idle channel
        assert!(!g1.marked);
        let g2 = m.grant(SimTime::from_secs(1), 10_000); // waits ~1 ms
        assert!(g2.marked, "queued grant must carry the congestion mark");
        assert_eq!(count(&obs, "ecn_marks"), 1);
    }

    #[test]
    fn ecn_disabled_never_marks() {
        let mut m = medium(AccessModel::CsmaCd);
        assert_eq!(m.config().ecn_threshold, None);
        for i in 0..50 {
            let g = m.grant(SimTime::from_millis(i), 10_000);
            assert!(!g.marked);
        }
    }

    #[test]
    fn extra_propagation_adds_to_base_delay() {
        let mut m = medium(AccessModel::CsmaCd);
        let base = m.propagation();
        m.set_extra_propagation(SimDuration::from_micros(50));
        assert_eq!(m.propagation(), base + SimDuration::from_micros(50));
        m.set_extra_propagation(SimDuration::ZERO);
        assert_eq!(m.propagation(), base);
    }

    #[test]
    fn partition_flag_toggles_without_touching_grants() {
        let mut m = medium(AccessModel::CsmaCd);
        assert!(!m.is_partitioned());
        m.set_partitioned(true);
        assert!(m.is_partitioned());
        // Channel access is unaffected: the frames die on the wire instead.
        let g = m.grant(SimTime::from_secs(1), 10_000);
        assert!(g.wire_end > g.wire_start);
        m.set_partitioned(false);
        assert!(!m.is_partitioned());
    }
}
