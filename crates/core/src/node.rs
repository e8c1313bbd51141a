//! One synchronized node: CPU + kernel + NTI (UTCSU) + oscillator +
//! COMCO(s) + optional GPS receivers.
//!
//! This mirrors Figure 2 of the paper: CPU and COMCO share the NTI's
//! memory; the UTCSU sits beside it; GPS receivers feed the GPU inputs.
//! A node may attach to several LAN segments (gateway, Section 1 footnote
//! 2) — attachment `i` uses SSU `i` and its own COMCO.
//!
//! The node is also where the **lazy clock evaluation** contract is
//! enforced: every interaction first maps the current simulation time to an
//! oscillator tick count and advances the UTCSU, so register reads and
//! triggers always observe current hardware state.

use crate::algo::SyncCore;
use crate::health::{HealthState, HealthTracker};
use crate::rate::RateSync;
use crate::validate::ValidationStats;
use nti_gps::GpsReceiver;
use nti_kernel::{ComcoDriver, Kernel};
use nti_module::{Nti, ScbDriver};
use nti_netsim::Comco;
use nti_simcore::ntp::{NtpTime, FRAC_BITS};
use nti_simcore::time::{SimDuration, SimTime};
use nti_simcore::{Accuracy, Macrostamp, Oscillator, Timestamp};
use nti_utcsu::regs as uregs;

/// A complete node.
pub struct Node {
    /// Node id (index in the cluster).
    pub id: usize,
    /// The quartz oscillator pacing the UTCSU.
    pub osc: Oscillator,
    /// The NTI MA-Module (contains the UTCSU).
    pub nti: Nti,
    /// One COMCO per LAN attachment (attachment i ↔ SSU i).
    pub comcos: Vec<Comco>,
    /// The RT executive (latency model).
    pub kernel: Kernel,
    /// The COMCO driver (KI/NI/CI demultiplexer).
    pub driver: ComcoDriver,
    /// The SCB command-block driver (the System Structures rendezvous).
    pub scb: ScbDriver,
    /// Synchronization algorithm state.
    pub core: SyncCore,
    /// Membership / holdover state machine (the CSP-round watchdog).
    pub health: HealthTracker,
    /// Rate synchronization state.
    pub rate: RateSync,
    /// GPS receivers wired to GPU units 0..3.
    pub gps: Vec<GpsReceiver>,
    /// Clock-validation counters.
    pub vstats: ValidationStats,
    /// Next receive-header slot to hand to the COMCO (round-robin).
    pub rx_slot: u32,
    /// Next transmit-header slot.
    pub tx_slot: u32,
    /// Pending DES event id for the UTCSU service routine.
    pub utcsu_event: Option<nti_simcore::EventId>,
    /// DSTEP values to restore when amortization ends.
    pub amort_dstep_saved: Option<(i64, i64)>,
    /// Cumulative state adjustment applied by enforcement (2⁻⁵⁹ s units) —
    /// subtracted from local stamps before rate estimation so the rate loop
    /// does not chase state-correction slews.
    pub cum_adj_units: i128,
    /// Timestamp-quantization granularity in internal 2⁻⁵⁹ s units
    /// (UTCSU: 2³⁵ = one 2⁻²⁴ s granule; CSU baseline: ≈1 µs).
    pub quant_units: u128,
}

impl Node {
    /// Is the node powered off (crashed, left, or not yet joined)? Its
    /// membership state is the one record of that.
    pub(crate) fn is_down(&self) -> bool {
        self.health.state() == HealthState::Down
    }

    /// Advance the node's UTCSU to the tick corresponding to `now`.
    pub fn advance(&mut self, now: SimTime) {
        let n = self.osc.ticks_at(now);
        self.nti.utcsu_mut().advance_to_tick(n);
    }

    /// Advance and return the raw (internal) clock value.
    pub fn clock(&mut self, now: SimTime) -> NtpTime {
        self.advance(now);
        self.nti.utcsu().time()
    }

    /// Read the clock the way software does — TIMESTAMP then MACROSTAMP
    /// through the register file — and reconstruct the 56-bit value,
    /// quantized to the node's stamp granularity.
    pub fn read_clock_regs(&mut self, now: SimTime) -> NtpTime {
        self.advance(now);
        let base = nti_module::UTCSU_BASE;
        let ts = self.nti.read32(base + uregs::R_TIMESTAMP);
        let ms = self.nti.read32(base + uregs::R_MACROSTAMP);
        let t = NtpTime::from_stamp_pair(Timestamp(ts), Macrostamp(ms))
            .expect("register pair checksum");
        self.quantize(t)
    }

    /// Read the accuracy registers.
    pub fn read_alpha_regs(&mut self, now: SimTime) -> (Accuracy, Accuracy) {
        self.advance(now);
        let v = self.nti.read32(nti_module::UTCSU_BASE + uregs::R_ALPHA);
        (Accuracy((v & 0xFFFF) as u16), Accuracy((v >> 16) as u16))
    }

    /// Quantize a clock value to the node's stamp granularity (models the
    /// coarser clock of the CSU baseline; the UTCSU's native granularity is
    /// one 2⁻²⁴ s unit).
    pub fn quantize(&self, t: NtpTime) -> NtpTime {
        if self.quant_units <= 1 {
            return t;
        }
        NtpTime::from_raw((t.raw() / self.quant_units) * self.quant_units)
    }

    /// Reconstruct a stamp latched by SSU `a` (receive side), consuming it.
    ///
    /// Returns `None` on an overrun: the latch then holds the *newest*
    /// trigger's stamp, but this consumer is serving an earlier frame's
    /// interrupt — handing the stamp out would attribute it to the wrong
    /// frame. The driver drops both frames instead (counted as overrun
    /// losses by the cluster).
    pub fn take_rx_stamp(&mut self, a: usize) -> Option<NtpTime> {
        let overrun = self.nti.utcsu().ssu[a].receive.overrun();
        let s = self.nti.utcsu_mut().ssu[a].receive.take()?;
        if overrun {
            return None;
        }
        s.time().map(|t| self.quantize(t))
    }

    /// The effective clock rate deviation of this node in ppm: oscillator
    /// drift composed with the STEP trim (instrumentation for E4).
    pub fn effective_rate_ppm(&mut self, now: SimTime) -> f64 {
        let rho = self.osc.rho_ppm_at(now);
        let nominal = nti_utcsu::ltu::Ltu::nominal_step_units(self.osc.nominal_hz());
        let step = self.nti.utcsu().ltu.step_units();
        let trim = step as f64 / nominal as f64;
        ((1.0 + rho * 1e-6) * trim - 1.0) * 1e6
    }

    /// Program the ACU deterioration for a drift budget (both cells).
    pub fn program_dsteps(&mut self, rho_ppm: f64) {
        let d = nti_utcsu::Acu::dstep_for_drift(self.osc.nominal_hz(), rho_ppm);
        self.nti.utcsu_mut().acu.set_dstep_minus(d);
        self.nti.utcsu_mut().acu.set_dstep_plus(d);
    }

    /// The real instant at which the UTCSU samples an asynchronous input
    /// edge (GPS pulse, APU event) arriving at `edge`: the first tick after
    /// it plus the synchronizer stages.
    pub(crate) fn sample_instant(&mut self, edge: SimTime) -> SimTime {
        let stages = self.nti.utcsu().stamp_delay_ticks();
        let idx = self.osc.ticks_at(edge) + (stages - 1);
        self.osc.time_of_tick(idx).max(edge)
    }

    /// Convert a duration to whole oscillator ticks (nominal rate, floor).
    pub fn ticks_for(&self, d: SimDuration) -> u128 {
        (d.as_fs() * self.osc.nominal_hz() as u128) / nti_simcore::time::FS_PER_SEC
    }
}

/// Granularity helper: internal units (2⁻⁵⁹ s) for a physical granularity.
pub fn quant_units_for(granularity: SimDuration) -> u128 {
    let u = crate::interval::units_floor(granularity);
    u.max(1)
}

/// The UTCSU's native stamp granularity (one 2⁻²⁴ s unit) in internal
/// units.
pub const UTCSU_QUANT_UNITS: u128 = 1 << (FRAC_BITS - nti_simcore::ntp::NTP_FRAC_BITS);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{AlgoKind, SyncParams};
    use nti_kernel::KernelConfig;
    use nti_module::CpldConfig;
    use nti_netsim::ComcoTiming;
    use nti_simcore::{DriftModel, SimRng};
    use nti_utcsu::UtcsuConfig;

    fn params() -> SyncParams {
        SyncParams {
            round_period: SimDuration::from_secs(1),
            cf_delta: SimDuration::from_millis(100),
            f: 0,
            delay_min: SimDuration::from_micros(100),
            delay_max: SimDuration::from_micros(120),
            rho_ppm: 10.0,
            rate_adj_uncertainty: SimDuration::from_nanos(100),
            granularity: SimDuration::from_nanos(60),
            amortization: SimDuration::from_millis(50),
        }
    }

    fn node() -> Node {
        let rng = SimRng::new(1);
        let mut nti = Nti::new(UtcsuConfig::default(), CpldConfig::default());
        nti.write32(
            nti_module::UTCSU_BASE + uregs::R_CTRL,
            uregs::CTRL_SYNCRUN | uregs::CTRL_RUN,
        );
        Node {
            id: 0,
            osc: Oscillator::new(
                10_000_000,
                DriftModel::perfect(),
                rng.split("osc"),
                SimTime::ZERO,
            ),
            nti,
            comcos: vec![Comco::new(
                ComcoTiming::i82596(),
                10_000_000,
                rng.split("comco"),
            )],
            kernel: Kernel::new(KernelConfig::ideal(), rng.split("kern")),
            driver: ComcoDriver::new(),
            scb: ScbDriver::default(),
            core: SyncCore::new(params(), AlgoKind::IntervalOa),
            health: HealthTracker::new(crate::health::HealthConfig::for_f(0)),
            rate: RateSync::new(),
            gps: Vec::new(),
            vstats: ValidationStats::default(),
            rx_slot: 0,
            tx_slot: 0,
            utcsu_event: None,
            amort_dstep_saved: None,
            cum_adj_units: 0,
            quant_units: UTCSU_QUANT_UNITS,
        }
    }

    #[test]
    fn clock_tracks_simulation_time() {
        let mut n = node();
        let t = SimTime::from_millis(1500);
        let c = n.clock(t);
        let err = c.diff_secs_f64(NtpTime::from_sim_time(t));
        assert!(err.abs() < 5e-6, "err={err}");
    }

    #[test]
    fn register_read_matches_direct_clock() {
        let mut n = node();
        let t = SimTime::from_millis(777);
        let direct = n.clock(t);
        let via_regs = n.read_clock_regs(t);
        let err = via_regs.diff_secs_f64(direct).abs();
        // Register path quantizes to 2^-24 s.
        assert!(err <= 6e-8, "err={err}");
    }

    #[test]
    fn quantize_floors_to_granularity() {
        let mut n = node();
        n.quant_units = quant_units_for(SimDuration::from_micros(1));
        let t = NtpTime::from_sim_time(SimTime::from_nanos(1_234_567));
        let q = n.quantize(t);
        let qs = q.as_secs_f64();
        assert!((qs - 1.234e-3).abs() < 1e-6);
        assert!(q.raw() <= t.raw());
        assert_eq!(q.raw() % n.quant_units, 0);
    }

    #[test]
    fn rx_stamp_roundtrip() {
        let mut n = node();
        n.advance(SimTime::from_millis(10));
        n.nti.utcsu_mut().trigger_ssu_receive(0);
        let s = n.take_rx_stamp(0).expect("latched");
        let err = s.diff_secs_f64(NtpTime::from_sim_time(SimTime::from_millis(10)));
        assert!(err.abs() < 5e-6);
        assert!(n.take_rx_stamp(0).is_none(), "consumed");
    }

    #[test]
    fn rx_stamp_overrun_drops_both_frames() {
        // Two triggers before the ISR consumes the latch: the newest stamp
        // is retained by the hardware, but it belongs to the *second*
        // frame while the pending interrupt serves the first — handing it
        // out would misattribute it. take_rx_stamp must refuse.
        let mut n = node();
        n.advance(SimTime::from_millis(10));
        n.nti.utcsu_mut().trigger_ssu_receive(0);
        n.advance(SimTime::from_millis(11));
        n.nti.utcsu_mut().trigger_ssu_receive(0);
        assert!(n.nti.utcsu().ssu[0].receive.overrun());
        assert!(
            n.take_rx_stamp(0).is_none(),
            "overrun must not yield a stamp"
        );
        // The refusal consumed the latch and cleared the overrun flag, so
        // the *next* frame stamps cleanly.
        n.advance(SimTime::from_millis(12));
        n.nti.utcsu_mut().trigger_ssu_receive(0);
        assert!(n.take_rx_stamp(0).is_some(), "latch usable after overrun");
    }

    #[test]
    fn effective_rate_includes_step_trim() {
        let mut n = node();
        let base = n.nti.utcsu().ltu.step_units();
        assert!(n.effective_rate_ppm(SimTime::ZERO).abs() < 0.01);
        // Trim STEP by +100 units: ~ +100 * fosc * 2^-51 relative.
        n.nti.utcsu_mut().ltu.set_step_units(base + 100);
        let ppm = n.effective_rate_ppm(SimTime::ZERO);
        let expect = 100.0 * 10e6 * (0.5f64.powi(51)) * 1e6;
        assert!(
            (ppm - expect).abs() < expect * 0.01,
            "ppm={ppm} expect={expect}"
        );
    }

    #[test]
    fn ticks_for_nominal_rate() {
        let n = node();
        assert_eq!(n.ticks_for(SimDuration::from_secs(1)), 10_000_000);
        assert_eq!(n.ticks_for(SimDuration::from_micros(1)), 10);
    }

    #[test]
    fn dstep_programming_deteriorates() {
        let mut n = node();
        n.program_dsteps(10.0);
        n.advance(SimTime::from_secs(1));
        let (m, p) = n.nti.utcsu().alpha();
        assert!(m.as_secs_f64() > 9e-6 && m.as_secs_f64() < 12e-6);
        assert_eq!(m, p);
    }
}
