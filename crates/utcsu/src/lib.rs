#![warn(missing_docs)]

//! Functional simulation of the **UTCSU** — the Universal Time Coordinated
//! Synchronization Unit ASIC at the heart of the NTI M-Module.
//!
//! The real chip (0.7 µm CMOS, ≈65 000 gates, 180-pin PGA) contains, per
//! Section 3.3 of the paper and Figure 5:
//!
//! | unit | role | module |
//! |------|------|--------|
//! | LTU  | adder-based local clock (91-bit adder, NTP format) | [`ltu`] |
//! | ACU  | self-deteriorating accuracy cells α⁻/α⁺ | [`acu`] |
//! | SSU ×6 | CSP transmit/receive time/accuracy stamps | [`stamp`] |
//! | GPU ×3 | GPS 1pps time/accuracy stamps | [`stamp`] |
//! | APU ×9 | application time/accuracy stamps | [`stamp`] |
//! | duty timers | round scheduling, amortization, leap, app events | [`timer`] |
//! | ITU  | interrupt mapping to INTN/INTT/INTA | [`itu`] |
//! | BTU  | checksums/blocksums/signatures (self-test) | [`btu`] |
//! | SNU  | HWSNAP snapshots + SYNCRUN start | [`snu`] |
//! | BIU  | bus interface (register file) | [`regs`] |
//!
//! # Tick-domain model
//!
//! The chip is driven by oscillator ticks, not wall-clock time: the owner
//! (a simulated node) maps real time to tick counts through its oscillator
//! model and calls [`Utcsu::advance_to_tick`] *before* any register access
//! or trigger, so the chip state is always current. Advancing is O(1) per
//! internal boundary (duty-timer expiry, amortization end, leap boundary) —
//! the 91-bit adder is applied in bulk, which is exact because the augend is
//! constant between boundaries.

pub mod acu;
pub mod btu;
pub mod itu;
pub mod ltu;
pub mod regs;
pub mod snu;
pub mod stamp;
pub mod timer;

pub use acu::Acu;
pub use btu::Btu;
pub use itu::{IntLines, IntSource, Itu};
pub use ltu::{LeapDir, Ltu, LtuEvent};
pub use snu::Snu;
pub use stamp::{Apu, Gpu, Ssu, Stamp, StampLatch};
pub use timer::{DutyTimer, NUM_TIMERS};

use nti_obs::{Counter, Histogram, LocalCounter, MetricKey, Payload, SimObserver, Subsystem};
use nti_simcore::ntp::{NtpTime, FRAC_BITS, NTP_FRAC_BITS};
use nti_simcore::Accuracy;
use std::sync::Arc;

/// Number of Synchronization Subnet Units (redundant networks/gateways).
pub const NUM_SSU: usize = 6;
/// Number of GPS units.
pub const NUM_GPU: usize = 3;
/// Number of application units.
pub const NUM_APU: usize = 9;

/// Static configuration of a UTCSU instance.
#[derive(Clone, Copy, Debug)]
pub struct UtcsuConfig {
    /// Oscillator frequency the chip is paced with (1…20 MHz per the
    /// datasheet; checked).
    pub fosc_hz: u64,
    /// State of the `reliable` pin: `true` selects two-stage synchronizers
    /// on the asynchronous stamp inputs (extra tick of latency, smaller
    /// metastability probability).
    pub reliable_pin: bool,
}

impl Default for UtcsuConfig {
    fn default() -> Self {
        UtcsuConfig {
            fosc_hz: 10_000_000,
            reliable_pin: false,
        }
    }
}

/// Pre-resolved observability handles, populated by
/// [`Utcsu::attach_observer`]. The chip runs in the tick domain, so trace
/// timestamps use *nominal* local time (tick / f_osc) rather than simulated
/// real time. The per-trigger count is a local accumulator, flushed by
/// [`Utcsu::flush_obs`] and on drop; a clone starts it empty.
#[derive(Clone, Debug)]
struct UtcsuObs {
    obs: SimObserver,
    /// `utcsu` is traced; resolved at attach, since the mask is fixed.
    trace: bool,
    node: u32,
    /// All external triggers (SSU/GPU/APU/HWSNAP) that latched a stamp.
    triggers: LocalCounter,
    /// Continuous amortization phases started.
    amort_starts: Arc<Counter>,
    /// Length of each amortization phase (ticks).
    amort_ticks: Arc<Histogram>,
}

/// Nominal local time in femtoseconds after `tick` oscillator ticks at
/// `fosc_hz` (tick / f_osc) — the timestamp base of a chip's trace events.
fn nominal_fs(tick: u128, fosc_hz: u64) -> u128 {
    tick * 1_000_000_000_000_000u128 / fosc_hz as u128
}

/// The simulated UTCSU ASIC.
#[derive(Clone, Debug)]
pub struct Utcsu {
    cfg: UtcsuConfig,
    /// Oscillator ticks applied so far.
    tick: u128,
    /// Local Time Unit.
    pub ltu: Ltu,
    /// Accuracy Unit.
    pub acu: Acu,
    /// Synchronization Subnet Units.
    pub ssu: [Ssu; NUM_SSU],
    /// GPS Units.
    pub gpu: [Gpu; NUM_GPU],
    /// Application Units.
    pub apu: [Apu; NUM_APU],
    /// Duty timers.
    pub timers: [DutyTimer; NUM_TIMERS],
    /// Interrupt Unit.
    pub itu: Itu,
    /// Built-In Test Unit.
    pub btu: Btu,
    /// Snapshot Unit.
    pub snu: Snu,
    // --- staged registers (BIU) ---
    tload_secs: u32,
    tload_frac24: u32,
    aload_packed: u32,
    amort_lo: u32,
    amort_hi: u32,
    leap_secs: u32,
    obs: Option<UtcsuObs>,
}

impl Utcsu {
    /// Instantiate a chip. Panics on an out-of-range oscillator frequency.
    pub fn new(cfg: UtcsuConfig) -> Self {
        assert!(
            (1_000_000..=20_000_000).contains(&cfg.fosc_hz),
            "UTCSU oscillator range is 1..=20 MHz, got {} Hz",
            cfg.fosc_hz
        );
        let ltu = Ltu::new(Ltu::nominal_step_units(cfg.fosc_hz));
        Utcsu {
            cfg,
            tick: 0,
            ltu,
            acu: Acu::new(),
            ssu: Default::default(),
            gpu: Default::default(),
            apu: Default::default(),
            timers: Default::default(),
            itu: Itu::new(),
            btu: Btu::new(),
            snu: Snu::new(),
            tload_secs: 0,
            tload_frac24: 0,
            aload_packed: 0,
            amort_lo: 0,
            amort_hi: 0,
            leap_secs: 0,
            obs: None,
        }
    }

    /// Attach an observer; metrics are registered under node `node`,
    /// subsystem `utcsu`. With a disabled observer this detaches (every
    /// instrumentation site reduces to one `Option` branch).
    pub fn attach_observer(&mut self, obs: &SimObserver, node: u32) {
        self.obs = if obs.is_enabled() {
            let key = |name| MetricKey::node(node, "utcsu", name);
            Some(UtcsuObs {
                obs: obs.clone(),
                trace: obs.tracing(Subsystem::Utcsu),
                node,
                triggers: LocalCounter::new(obs.counter(key("triggers")).expect("enabled")),
                amort_starts: obs.counter(key("amort_starts")).expect("enabled"),
                amort_ticks: obs.hist(key("amort_ticks")).expect("enabled"),
            })
        } else {
            None
        };
    }

    /// Flush the locally accumulated trigger count into the observer's
    /// registry.
    pub fn flush_obs(&mut self) {
        if let Some(o) = &mut self.obs {
            o.triggers.flush();
        }
    }

    /// Record one trigger sample: count it and emit a trace instant when
    /// the `utcsu` subsystem is traced.
    fn obs_trigger(&mut self, kind: &'static str) {
        let Some(o) = &mut self.obs else { return };
        o.triggers.inc();
        if o.trace {
            let fs = nominal_fs(self.tick, self.cfg.fosc_hz);
            o.obs.instant(fs, o.node, Subsystem::Utcsu, kind);
        }
    }

    /// The static configuration.
    pub fn config(&self) -> UtcsuConfig {
        self.cfg
    }

    /// Ticks applied so far.
    pub fn tick(&self) -> u128 {
        self.tick
    }

    /// Synchronizer latency (in ticks) of the asynchronous stamp inputs:
    /// 1 (reliable pin low) or 2 (high). The sampling uncertainty is one
    /// oscillator period either way; the recovery time for metastability is
    /// `stages / f_osc`.
    pub fn stamp_delay_ticks(&self) -> u128 {
        if self.cfg.reliable_pin {
            2
        } else {
            1
        }
    }

    /// Current local clock value (internal 91-bit representation).
    pub fn time(&self) -> NtpTime {
        self.ltu.time()
    }

    /// Current accuracy cells (α⁻, α⁺).
    pub fn alpha(&self) -> (Accuracy, Accuracy) {
        self.acu.alpha()
    }

    /// The staged time-load value as an internal clock value.
    fn staged_time(&self) -> NtpTime {
        let secs = self.tload_secs as u128;
        let frac = (self.tload_frac24 as u128 & 0x00FF_FFFF) << (FRAC_BITS - NTP_FRAC_BITS);
        NtpTime::from_raw((secs << FRAC_BITS) | frac)
    }

    /// Stage a time value for the next atomic load (convenience over the
    /// two registers).
    pub fn stage_time_load(&mut self, t: NtpTime) {
        self.tload_secs = t.secs();
        self.tload_frac24 = ((t.raw() >> (FRAC_BITS - NTP_FRAC_BITS)) & 0x00FF_FFFF) as u32;
    }

    /// Stage accuracies for the next atomic load.
    pub fn stage_acc_load(&mut self, minus: Accuracy, plus: Accuracy) {
        self.aload_packed = acu::pack_alpha(minus, plus);
    }

    /// Stage accuracies from raw register units (2⁻²⁴ s each), rejecting
    /// out-of-range values: an α wider than the 16-bit register cannot be
    /// represented, and truncating it would *understate* the interval (a
    /// containment violation), so the write is refused and the previously
    /// staged value stands. Returns whether the stage was accepted.
    pub fn stage_acc_load_units(&mut self, minus_units: u32, plus_units: u32) -> bool {
        match acu::try_pack_alpha_units(minus_units, plus_units) {
            Some(packed) => {
                self.aload_packed = packed;
                true
            }
            None => false,
        }
    }

    /// Apply the staged time + accuracy load atomically ("can be
    /// (re)initialized atomically in conjunction with the clock register",
    /// Section 3.3).
    pub fn apply_load(&mut self) {
        self.ltu.load_time(self.staged_time());
        self.acu.load_packed(self.aload_packed);
    }

    /// SYNCRUN pin: apply the staged load and start the clock. Used to
    /// release all clocks of an experiment simultaneously.
    pub fn sync_run(&mut self) {
        self.apply_load();
        self.ltu.set_running(true);
    }

    /// Start continuous amortization using the staged tick count.
    pub fn start_amortization_staged(&mut self) {
        let ticks = ((self.amort_hi as u128) << 32) | self.amort_lo as u128;
        self.start_amortization(ticks);
    }

    /// Start continuous amortization for `ticks` ticks. Equivalent to
    /// `ltu.start_amortization`, but also records the phase with the
    /// attached observer.
    pub fn start_amortization(&mut self, ticks: u128) {
        self.ltu.start_amortization(ticks);
        if let Some(o) = &self.obs {
            o.amort_starts.inc();
            o.amort_ticks.record(ticks.min(u64::MAX as u128) as u64);
            if o.trace {
                o.obs.event(
                    nominal_fs(self.tick, self.cfg.fosc_hz),
                    o.node,
                    Subsystem::Utcsu,
                    "amort_start",
                    Payload::Value {
                        value: ticks.min(i64::MAX as u128) as i64,
                    },
                );
            }
        }
    }

    /// Current interrupt line states.
    pub fn int_lines(&self) -> IntLines {
        self.itu.lines()
    }

    /// Advance the chip to absolute tick `n` (monotone; earlier values are
    /// a no-op). Fires duty timers, amortization end and leap events along
    /// the way, raising the corresponding interrupt sources.
    pub fn advance_to_tick(&mut self, n: u128) {
        loop {
            self.fire_expired_timers();
            if self.tick >= n {
                return;
            }
            let remaining = n - self.tick;
            let mut seg = remaining;
            if self.ltu.running() {
                if let Some(b) = self.ltu.ticks_to_boundary() {
                    seg = seg.min(b);
                }
                for t in &self.timers {
                    if t.armed {
                        let k = self.ltu.ticks_until(t.target());
                        if k > 0 {
                            seg = seg.min(k);
                        }
                    }
                }
            }
            debug_assert!(seg > 0);
            let events = self.ltu.advance(seg);
            if self.ltu.running() {
                self.acu.advance(seg);
            }
            self.tick += seg;
            for e in events {
                match e {
                    LtuEvent::AmortizationEnd => {
                        self.itu.raise(IntSource::AmortEnd);
                        if let Some(o) = self.obs.as_ref().filter(|o| o.trace) {
                            let fs = nominal_fs(self.tick, self.cfg.fosc_hz);
                            o.obs.instant(fs, o.node, Subsystem::Utcsu, "amort_end");
                        }
                    }
                    LtuEvent::LeapApplied(_) => self.itu.raise(IntSource::Leap),
                }
            }
        }
    }

    fn fire_expired_timers(&mut self) {
        if !self.ltu.running() {
            return;
        }
        let now = self.ltu.time();
        for (i, t) in self.timers.iter_mut().enumerate() {
            if t.expired(now) {
                t.disarm();
                self.itu.raise(IntSource::Timer(i));
            }
        }
    }

    /// The absolute tick of the next internal event (armed timer expiry,
    /// amortization end, leap boundary), if any. A node schedules a DES
    /// event at the corresponding real time, then calls
    /// [`Utcsu::advance_to_tick`] to make it fire.
    pub fn next_event_tick(&self) -> Option<u128> {
        if !self.ltu.running() {
            return None;
        }
        let mut next: Option<u128> = self.ltu.ticks_to_boundary();
        for t in &self.timers {
            if t.armed {
                let k = self.ltu.ticks_until(t.target()).max(1);
                next = Some(next.map_or(k, |n| n.min(k)));
            }
        }
        next.map(|k| self.tick + k)
    }

    // --- external triggers ---------------------------------------------
    //
    // All triggers sample the *current* chip state: the caller must have
    // advanced the chip to the sampling tick (including synchronizer
    // latency for the asynchronous GPU/APU/HWSNAP inputs) first.

    /// TRANSMIT trigger from the NTI decode logic for SSU `idx`.
    pub fn trigger_ssu_transmit(&mut self, idx: usize) -> Stamp {
        let s = Stamp::sample(self.ltu.time(), self.acu.alpha());
        self.ssu[idx].transmit.latch(s);
        self.itu.raise(IntSource::SsuTransmit(idx));
        self.obs_trigger("ssu_transmit");
        s
    }

    /// RECEIVE trigger from the NTI decode logic for SSU `idx`.
    pub fn trigger_ssu_receive(&mut self, idx: usize) -> Stamp {
        let s = Stamp::sample(self.ltu.time(), self.acu.alpha());
        self.ssu[idx].receive.latch(s);
        self.itu.raise(IntSource::SsuReceive(idx));
        self.obs_trigger("ssu_receive");
        s
    }

    /// An edge (`rising` true/false) on GPS unit `idx`'s 1pps input. The
    /// inputs are "polarity programmable" (Section 3.3): the unit stamps
    /// only on its configured edge, and only while enabled.
    pub fn gpu_edge(&mut self, idx: usize, rising: bool) -> Option<Stamp> {
        if !self.gpu[idx].enabled || self.gpu[idx].rising != rising {
            return None;
        }
        let s = Stamp::sample(self.ltu.time(), self.acu.alpha());
        self.gpu[idx].pps.latch(s);
        self.itu.raise(IntSource::Gpu(idx));
        self.obs_trigger("gpu_pps");
        Some(s)
    }

    /// Convenience: an edge of the unit's configured polarity on GPS unit
    /// `idx` (what a correctly wired receiver produces).
    pub fn trigger_gpu(&mut self, idx: usize) -> Option<Stamp> {
        let rising = self.gpu[idx].rising;
        self.gpu_edge(idx, rising)
    }

    /// An edge on application unit `idx`'s input; stamps only on the
    /// configured polarity while enabled.
    pub fn apu_edge(&mut self, idx: usize, rising: bool) -> Option<Stamp> {
        if !self.apu[idx].enabled || self.apu[idx].rising != rising {
            return None;
        }
        let s = Stamp::sample(self.ltu.time(), self.acu.alpha());
        self.apu[idx].event.latch(s);
        self.itu.raise(IntSource::Apu(idx));
        self.obs_trigger("apu_event");
        Some(s)
    }

    /// Convenience: an edge of the configured polarity on APU `idx`.
    pub fn trigger_apu(&mut self, idx: usize) -> Option<Stamp> {
        let rising = self.apu[idx].rising;
        self.apu_edge(idx, rising)
    }

    /// HWSNAP pin: snapshot time + accuracy for precision evaluation.
    pub fn trigger_hwsnap(&mut self) -> Stamp {
        self.snu.snapshot(self.ltu.time(), self.acu.alpha());
        self.obs_trigger("hwsnap");
        self.snu.peek().expect("just latched")
    }

    /// The 48-bit multiplexed **NTPA-bus** (Section 3.3): "additional
    /// application-related features can be realized off-chip by tapping
    /// the 48 bit wide multiplexed NTPA-Bus, which exports the entire
    /// local time and accuracy information at full speed."
    ///
    /// Two phases per bus cycle: phase A carries the 32-bit timestamp plus
    /// α⁻, phase B the 32-bit macrostamp plus α⁺. An extension module (or
    /// a directly attached GPS receiver, which the intermodule port also
    /// carries) latches both phases to obtain the full interval.
    pub fn ntpa_phases(&mut self) -> (u64, u64) {
        let (am, ap) = self.acu.alpha();
        let ts = self.ltu.read_timestamp();
        let ms = self.ltu.read_macrostamp();
        let a = ((ts as u64) << 16) | am.0 as u64;
        let b = ((ms as u64) << 16) | ap.0 as u64;
        (a, b)
    }
}

/// Decode a pair of NTPA-bus phases back into `(time, α⁻, α⁺)`; `None`
/// when the embedded checksum does not verify (a torn tap).
pub fn ntpa_decode(a: u64, b: u64) -> Option<(NtpTime, Accuracy, Accuracy)> {
    let ts = nti_simcore::Timestamp((a >> 16) as u32);
    let ms = nti_simcore::Macrostamp((b >> 16) as u32);
    let t = NtpTime::from_stamp_pair(ts, ms)?;
    Some((
        t,
        Accuracy((a & 0xFFFF) as u16),
        Accuracy((b & 0xFFFF) as u16),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn polarity_gates_edges() {
        let mut u = Utcsu::new(UtcsuConfig::default());
        u.sync_run();
        u.gpu[0].enabled = true;
        u.gpu[0].rising = true;
        assert!(u.gpu_edge(0, false).is_none(), "falling edge ignored");
        assert!(u.gpu_edge(0, true).is_some());
        u.apu[2].enabled = true;
        u.apu[2].rising = false;
        assert!(u.apu_edge(2, true).is_none(), "rising edge ignored");
        assert!(u.apu_edge(2, false).is_some());
    }

    #[test]
    fn ntpa_bus_roundtrip() {
        let mut u = Utcsu::new(UtcsuConfig::default());
        u.sync_run();
        u.acu.load(Accuracy(11), Accuracy(22));
        u.advance_to_tick(123_456_789);
        let direct = u.time();
        let (a, b) = u.ntpa_phases();
        let (t, am, ap) = ntpa_decode(a, b).expect("checksum");
        assert_eq!(t.ntp56(), direct.ntp56());
        assert_eq!(am, Accuracy(11));
        assert_eq!(ap, Accuracy(22));
    }

    #[test]
    fn ntpa_decode_rejects_torn_tap() {
        let mut u = Utcsu::new(UtcsuConfig::default());
        u.sync_run();
        u.advance_to_tick(999_999);
        let (a, b) = u.ntpa_phases();
        // Corrupt the macrostamp phase: checksum must fail.
        assert!(ntpa_decode(a, b ^ (1 << 40)).is_none());
    }

    fn chip(fosc: u64) -> Utcsu {
        let mut u = Utcsu::new(UtcsuConfig {
            fosc_hz: fosc,
            reliable_pin: false,
        });
        u.sync_run();
        u
    }

    #[test]
    fn advance_tracks_real_time() {
        let mut u = chip(10_000_000);
        u.advance_to_tick(10_000_000); // one nominal second
        let err = u.time().diff_secs_f64(NtpTime::from_secs(1));
        assert!(err.abs() < 3e-6, "err={err}");
        assert_eq!(u.tick(), 10_000_000);
    }

    #[test]
    fn advance_is_monotone_and_idempotent() {
        let mut u = chip(10_000_000);
        u.advance_to_tick(1000);
        let t = u.time();
        u.advance_to_tick(1000);
        u.advance_to_tick(500); // earlier: no-op
        assert_eq!(u.time(), t);
    }

    #[test]
    fn duty_timer_fires_and_raises_intt() {
        let mut u = chip(10_000_000);
        u.itu.set_mask(u32::MAX);
        u.timers[0].arm_at(NtpTime::from_raw(1u128 << (FRAC_BITS - 1))); // 0.5 s
        assert!(u.next_event_tick().is_some());
        u.advance_to_tick(10_000_000);
        assert!(u.int_lines().intt);
        assert!(!u.timers[0].armed, "one-shot");
        u.itu.ack(IntSource::Timer(0).mask());
        assert!(!u.int_lines().intt);
    }

    #[test]
    fn timer_fire_tick_is_exact() {
        let mut u = chip(10_000_000);
        u.itu.set_mask(u32::MAX);
        let target = NtpTime::from_raw(1u128 << (FRAC_BITS - 1)); // 0.5 s
        u.timers[0].arm_at(target);
        let fire_tick = u.next_event_tick().expect("armed");
        u.advance_to_tick(fire_tick - 1);
        assert!(!u.int_lines().intt, "one tick early: not yet");
        u.advance_to_tick(fire_tick);
        assert!(u.int_lines().intt);
        // At the firing tick, local time is within one step of the target.
        let over = u.time().wrapping_diff_units(target);
        assert!(over >= 0, "fired before target");
        assert!((over as u128) < (1u128 << 40), "overshoot beyond one tick");
    }

    #[test]
    fn amortization_end_raises_interrupt() {
        let mut u = chip(10_000_000);
        u.itu.set_mask(u32::MAX);
        u.amort_lo = 1000;
        u.start_amortization_staged();
        assert!(u.ltu.amortizing());
        u.advance_to_tick(1000);
        assert!(!u.ltu.amortizing());
        assert!(u.int_lines().intt);
        assert_eq!(
            u.itu.pending() & IntSource::AmortEnd.mask(),
            IntSource::AmortEnd.mask()
        );
    }

    #[test]
    fn leap_insert_during_advance() {
        let mut u = chip(10_000_000);
        u.itu.set_mask(u32::MAX);
        u.ltu.arm_leap(1, LeapDir::Insert);
        u.advance_to_tick(15_000_000); // past 1 s nominal
                                       // Inserted second: clock now reads ~0.5 s instead of ~1.5 s.
        assert_eq!(u.time().secs(), 0);
        assert!(u.itu.pending() & IntSource::Leap.mask() != 0);
    }

    #[test]
    fn triggers_latch_and_raise() {
        let mut u = chip(10_000_000);
        u.itu.set_mask(u32::MAX);
        u.advance_to_tick(123_456);
        let s = u.trigger_ssu_receive(2);
        assert!(u.ssu[2].receive.valid());
        assert!(u.int_lines().intn);
        assert_eq!(u.ssu[2].receive.peek().unwrap(), s);
        // GPU disabled by default:
        assert!(u.trigger_gpu(0).is_none());
        u.gpu[0].enabled = true;
        assert!(u.trigger_gpu(0).is_some());
        assert!(u.int_lines().inta);
    }

    #[test]
    fn back_to_back_receive_triggers_report_overrun() {
        // Two frames trigger the same SSU before the ISR services either:
        // the latch must flag the overrun and hand out the *second* stamp,
        // so software can discard both rather than attribute the second
        // frame's timestamp to the first frame.
        let mut u = chip(10_000_000);
        u.itu.set_mask(u32::MAX);
        u.advance_to_tick(1_000);
        let first = u.trigger_ssu_receive(1);
        u.advance_to_tick(2_000);
        let second = u.trigger_ssu_receive(1);
        assert!(u.ssu[1].receive.overrun(), "overrun must be visible");
        let taken = u.ssu[1].receive.take().expect("latch holds a stamp");
        assert_eq!(taken, second, "latch keeps the newest stamp");
        assert_ne!(taken, first);
        assert!(!u.ssu[1].receive.overrun(), "take clears the condition");
        // A clean third trigger stamps normally again.
        u.advance_to_tick(3_000);
        u.trigger_ssu_receive(1);
        assert!(u.ssu[1].receive.valid());
        assert!(!u.ssu[1].receive.overrun());
    }

    #[test]
    fn hwsnap_samples_current_state() {
        let mut u = chip(10_000_000);
        u.acu.load(Accuracy(5), Accuracy(9));
        u.advance_to_tick(1_000);
        let s = u.trigger_hwsnap();
        assert_eq!(s.alpha_minus, Accuracy(5));
        assert_eq!(s.alpha_plus, Accuracy(9));
        assert_eq!(u.snu.count(), 1);
    }

    #[test]
    fn stage_and_apply_load_atomic() {
        let mut u = chip(10_000_000);
        u.stage_time_load(NtpTime::from_secs(100));
        u.stage_acc_load(Accuracy(10), Accuracy(20));
        u.advance_to_tick(500);
        u.apply_load();
        assert_eq!(u.time().secs(), 100);
        assert_eq!(u.alpha(), (Accuracy(10), Accuracy(20)));
    }

    #[test]
    fn stopped_clock_freezes_time_and_accuracy() {
        let mut u = Utcsu::new(UtcsuConfig::default());
        u.acu.set_dstep_plus(1 << 30);
        u.advance_to_tick(1_000_000);
        assert_eq!(u.time(), NtpTime::ZERO);
        assert_eq!(u.alpha().1, Accuracy::ZERO);
        assert_eq!(u.next_event_tick(), None);
    }

    /// The trigger count accumulates locally: nothing reaches the registry
    /// before a flush, a clone starts empty, and a chip dropped unflushed
    /// (a restart replaces a node's NTI) still lands its triggers.
    #[test]
    fn dropped_utcsu_lands_its_unflushed_triggers() {
        let obs = SimObserver::enabled();
        let mut u = Utcsu::new(UtcsuConfig::default());
        u.attach_observer(&obs, 2);
        let triggers = obs
            .counter(MetricKey::node(2, "utcsu", "triggers"))
            .unwrap();
        for _ in 0..3 {
            u.trigger_ssu_receive(0);
        }
        assert_eq!(triggers.get(), 0);
        u.flush_obs();
        assert_eq!(triggers.get(), 3);
        u.trigger_ssu_transmit(1);
        let mut copy = u.clone();
        copy.trigger_ssu_receive(1);
        drop(u);
        assert_eq!(
            triggers.get(),
            4,
            "the clone did not copy the pending trigger"
        );
        drop(copy);
        assert_eq!(triggers.get(), 5);
    }

    #[test]
    fn stamp_delay_depends_on_reliable_pin() {
        let a = Utcsu::new(UtcsuConfig {
            fosc_hz: 10_000_000,
            reliable_pin: false,
        });
        let b = Utcsu::new(UtcsuConfig {
            fosc_hz: 10_000_000,
            reliable_pin: true,
        });
        assert_eq!(a.stamp_delay_ticks(), 1);
        assert_eq!(b.stamp_delay_ticks(), 2);
    }

    #[test]
    #[should_panic(expected = "oscillator range")]
    fn rejects_out_of_range_fosc() {
        let _ = Utcsu::new(UtcsuConfig {
            fosc_hz: 25_000_000,
            reliable_pin: false,
        });
    }

    #[test]
    fn multiple_timers_fire_in_order() {
        let mut u = chip(10_000_000);
        u.itu.set_mask(u32::MAX);
        u.timers[0].arm_at(NtpTime::from_secs(2));
        u.timers[1].arm_at(NtpTime::from_secs(1));
        let first = u.next_event_tick().unwrap();
        u.advance_to_tick(first);
        assert!(
            u.itu.pending() & IntSource::Timer(1).mask() != 0,
            "timer 1 first"
        );
        assert!(u.itu.pending() & IntSource::Timer(0).mask() == 0);
        u.advance_to_tick(30_000_000);
        assert!(u.itu.pending() & IntSource::Timer(0).mask() != 0);
    }
}
