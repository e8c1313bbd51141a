//! LTU — Local Time Unit: the adder-based clock.
//!
//! The centerpiece of the UTCSU (Section 3.3): instead of a simple counter,
//! a large high-speed adder sums the elapsed time between successive
//! oscillator ticks. Local time is a 91-bit fixed-point value (32 integer +
//! 59 fractional bits); the **STEP** augend is programmed in multiples of
//! 2⁻⁵¹ s ≈ 0.44 fs, which makes the clock fine-grained *rate adjustable*:
//! at f_osc = 10 MHz one STEP unit changes the clock rate by
//! 10⁷ · 2⁻⁵¹ ≈ 4.4 ns/s (the paper's "steps of about 10 ns/s").
//!
//! State adjustment is performed by **continuous amortization**: for a
//! programmed number of ticks the adder uses the alternative augend ASTEP,
//! slewing the clock monotonically instead of stepping it. Leap-second
//! insertion/deletion is armed for a target second boundary and applied in
//! hardware.
//!
//! The model is *tick-domain*: `advance(n)` applies `n` oscillator ticks.
//! Crossing an amortization end or an armed leap boundary must be handled by
//! the caller segmenting the advance (see `Utcsu::advance_to_tick`), which
//! asks the LTU for the distance to its next boundary first.

use nti_simcore::ntp::{NtpTime, STEP_UNIT_SHIFT, UNITS_PER_SEC};

/// Leap second direction.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LeapDir {
    /// Insert a leap second: the clock repeats a second (jumps back by 1 s
    /// when the armed boundary is reached).
    Insert,
    /// Delete a leap second: the clock skips a second (jumps forward).
    Delete,
}

/// Events produced when an advance crosses an LTU boundary.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LtuEvent {
    /// Continuous amortization completed; the clock reverted to STEP.
    AmortizationEnd,
    /// The armed leap second was applied.
    LeapApplied(LeapDir),
}

/// The maximum programmable STEP value: 40 bits of 2⁻⁵¹ s units
/// (≈ 0.49 ms per tick — far beyond any sane oscillator).
pub const STEP_MAX: u64 = (1 << 40) - 1;

/// The adder-based clock.
#[derive(Clone, Debug)]
pub struct Ltu {
    /// Current local time (91-bit internal representation).
    time: NtpTime,
    /// Normal augend, in 2⁻⁵¹ s units.
    step_units: u64,
    /// Amortization augend, in 2⁻⁵¹ s units.
    astep_units: u64,
    /// Remaining amortization ticks (0 = not amortizing).
    amort_ticks_left: u128,
    /// Whether the clock is running (SYNCRUN gates this).
    running: bool,
    /// Armed leap second: target second boundary + direction.
    leap: Option<(u32, LeapDir)>,
    /// Macrostamp latched on TIMESTAMP read for a torn-read-free pair.
    latched_macro: u32,
}

impl Ltu {
    /// A stopped clock at time zero with the given initial STEP.
    pub fn new(step_units: u64) -> Self {
        assert!(step_units <= STEP_MAX, "STEP exceeds 40 bits");
        Ltu {
            time: NtpTime::ZERO,
            step_units,
            astep_units: step_units,
            amort_ticks_left: 0,
            running: false,
            leap: None,
            latched_macro: 0,
        }
    }

    /// The nominal STEP value for an oscillator of `fosc_hz`: the closest
    /// 2⁻⁵¹ s multiple to one nominal period. (The clock-rate algorithm
    /// later trims this to compensate measured drift.)
    pub fn nominal_step_units(fosc_hz: u64) -> u64 {
        // step = 2^51 / fosc, rounded to nearest.
        (((1u128 << 51) + (fosc_hz as u128 / 2)) / fosc_hz as u128) as u64
    }

    /// Current internal time.
    pub fn time(&self) -> NtpTime {
        self.time
    }

    /// Whether the clock is running.
    pub fn running(&self) -> bool {
        self.running
    }

    /// Start/stop the clock.
    pub fn set_running(&mut self, on: bool) {
        self.running = on;
    }

    /// Current STEP in 2⁻⁵¹ s units.
    pub fn step_units(&self) -> u64 {
        self.step_units
    }

    /// Program STEP (the rate-synchronization algorithm's knob).
    pub fn set_step_units(&mut self, units: u64) {
        self.step_units = units.min(STEP_MAX);
    }

    /// Program ASTEP, the augend used while amortizing.
    pub fn set_astep_units(&mut self, units: u64) {
        self.astep_units = units.min(STEP_MAX);
    }

    /// Current ASTEP in 2⁻⁵¹ s units.
    pub fn astep_units(&self) -> u64 {
        self.astep_units
    }

    /// Begin continuous amortization for `ticks` oscillator ticks.
    pub fn start_amortization(&mut self, ticks: u128) {
        self.amort_ticks_left = ticks;
    }

    /// Abort any running amortization (reverts to STEP immediately).
    pub fn abort_amortization(&mut self) {
        self.amort_ticks_left = 0;
    }

    /// Whether the clock is currently amortizing.
    pub fn amortizing(&self) -> bool {
        self.amort_ticks_left > 0
    }

    /// Remaining amortization ticks.
    pub fn amort_ticks_left(&self) -> u128 {
        self.amort_ticks_left
    }

    /// Arm a leap second at the given target second boundary.
    pub fn arm_leap(&mut self, target_sec: u32, dir: LeapDir) {
        self.leap = Some((target_sec, dir));
    }

    /// Disarm any pending leap second.
    pub fn disarm_leap(&mut self) {
        self.leap = None;
    }

    /// The currently armed leap, if any.
    pub fn leap(&self) -> Option<(u32, LeapDir)> {
        self.leap
    }

    /// Set the time directly (the staged atomic load applied by CTRL; also
    /// used by SYNCRUN).
    pub fn load_time(&mut self, t: NtpTime) {
        self.time = t;
    }

    /// The augend currently in effect, in internal 2⁻⁵⁹ units.
    fn augend_units59(&self) -> u128 {
        let u = if self.amort_ticks_left > 0 {
            self.astep_units
        } else {
            self.step_units
        };
        (u as u128) << STEP_UNIT_SHIFT
    }

    /// Number of ticks until the next LTU-internal boundary (amortization
    /// end or leap boundary), if any, assuming the current augend stays in
    /// effect. `None` means no boundary ahead.
    pub fn ticks_to_boundary(&self) -> Option<u128> {
        if !self.running {
            return None;
        }
        let mut next: Option<u128> = None;
        if self.amort_ticks_left > 0 {
            next = Some(self.amort_ticks_left);
        }
        if let Some((sec, _)) = self.leap {
            let target = NtpTime::from_secs(sec);
            let diff = target.wrapping_diff_units(self.time);
            let aug = self.augend_units59();
            if aug > 0 {
                let ticks = if diff <= 0 {
                    1 // already past: apply at the next tick
                } else {
                    div_ceil(diff as u128, aug)
                };
                next = Some(next.map_or(ticks, |n| n.min(ticks)));
            }
        }
        next
    }

    /// Number of ticks until local time reaches `target` (for duty timers),
    /// assuming the current augend stays in effect. Returns 0 if the target
    /// is now or in the past (within the wrap interpretation).
    pub fn ticks_until(&self, target: NtpTime) -> u128 {
        let diff = target.wrapping_diff_units(self.time);
        if diff <= 0 {
            return 0;
        }
        let aug = self.augend_units59();
        if aug == 0 {
            return u128::MAX;
        }
        div_ceil(diff as u128, aug)
    }

    /// Apply `n` oscillator ticks. The caller must have segmented the
    /// advance so that no boundary lies strictly inside `n`; crossing the
    /// amortization end or the leap boundary exactly at the end is fine and
    /// reported as events.
    pub fn advance(&mut self, n: u128) -> Vec<LtuEvent> {
        let mut events = Vec::new();
        if !self.running || n == 0 {
            return events;
        }
        debug_assert!(
            self.amort_ticks_left == 0 || n <= self.amort_ticks_left,
            "advance crosses amortization end"
        );
        let aug = self.augend_units59();
        let before = self.time;
        self.time = self.time.wrapping_add_units((aug * n) as i128);
        if self.amort_ticks_left > 0 {
            self.amort_ticks_left -= n;
            if self.amort_ticks_left == 0 {
                events.push(LtuEvent::AmortizationEnd);
            }
        }
        if let Some((sec, dir)) = self.leap {
            let target = NtpTime::from_secs(sec);
            // Crossed if target was ahead of `before` and is no longer ahead.
            let was_ahead = target.wrapping_diff_units(before) > 0;
            let now_ahead = target.wrapping_diff_units(self.time) > 0;
            if was_ahead && !now_ahead {
                let delta = match dir {
                    LeapDir::Insert => -(UNITS_PER_SEC as i128),
                    LeapDir::Delete => UNITS_PER_SEC as i128,
                };
                self.time = self.time.wrapping_add_units(delta);
                self.leap = None;
                events.push(LtuEvent::LeapApplied(dir));
            }
        }
        events
    }

    /// BIU read of the TIMESTAMP register: returns the 8.24 timestamp and
    /// latches the matching macrostamp so the subsequent MACROSTAMP read is
    /// consistent (no torn read across a second boundary).
    pub fn read_timestamp(&mut self) -> u32 {
        self.latched_macro = self.time.macrostamp().0;
        self.time.timestamp().0
    }

    /// BIU read of the MACROSTAMP register (the value latched at the last
    /// TIMESTAMP read).
    pub fn read_macrostamp(&self) -> u32 {
        self.latched_macro
    }
}

/// `n.div_ceil(d)`, divided in `u64` when both operands fit. Every
/// `advance` asks for the distance to each armed duty timer and to the
/// LTU's own boundary; those distances are almost always below 2⁶⁴ units
/// (32 s), and the augend has at most 48 bits.
fn div_ceil(n: u128, d: u128) -> u128 {
    match (u64::try_from(n), u64::try_from(d)) {
        (Ok(n), Ok(d)) => n.div_ceil(d) as u128,
        _ => n.div_ceil(d),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nti_simcore::ntp::FRAC_BITS;

    fn running_ltu(fosc: u64) -> Ltu {
        let mut l = Ltu::new(Ltu::nominal_step_units(fosc));
        l.set_running(true);
        l
    }

    #[test]
    fn nominal_step_is_one_period() {
        // 10 MHz: step = 2^51/1e7 units of 2^-51 s = 100 ns.
        let step = Ltu::nominal_step_units(10_000_000);
        let secs_per_tick = step as f64 / (1u64 << 51) as f64;
        assert!((secs_per_tick - 1e-7).abs() < 1e-15);
    }

    #[test]
    fn advancing_one_second_of_ticks() {
        let mut l = running_ltu(10_000_000);
        l.advance(10_000_000);
        let err = l.time().diff_secs_f64(NtpTime::from_secs(1));
        // Rounding of the step to 2^-51 s accumulates < 10M * 2^-52 s ~ 2.2 us.
        assert!(err.abs() < 3e-6, "err={err}");
    }

    #[test]
    fn stopped_clock_does_not_advance() {
        let mut l = Ltu::new(Ltu::nominal_step_units(10_000_000));
        assert!(!l.running());
        l.advance(1_000_000);
        assert_eq!(l.time(), NtpTime::ZERO);
    }

    #[test]
    fn rate_adjustment_granularity() {
        // One STEP unit at 10 MHz changes the rate by fosc * 2^-51 s/s.
        let fosc = 10_000_000u64;
        let base = Ltu::nominal_step_units(fosc);
        let mut a = running_ltu(fosc);
        let mut b = running_ltu(fosc);
        b.set_step_units(base + 1);
        a.advance(fosc as u128); // one nominal second
        b.advance(fosc as u128);
        let diff = b.time().diff_secs_f64(a.time());
        let expect = fosc as f64 * (1.0 / (1u64 << 51) as f64);
        assert!((diff - expect).abs() < 1e-12, "diff={diff} expect={expect}");
        // ~4.44 ns/s at 10 MHz -- the paper's "about 10 ns/s" knob.
        assert!(expect > 3e-9 && expect < 1e-8);
    }

    #[test]
    fn amortization_slews_then_reverts() {
        let fosc = 10_000_000u64;
        let base = Ltu::nominal_step_units(fosc);
        let mut l = running_ltu(fosc);
        // Slew +10 us over 1_000_000 ticks (0.1 s): astep = base + delta.
        let delta_units = ((10_000_000_000u128 /* 10us in fs */ << 51)
            / 1_000_000_000_000_000u128
            / 1_000_000u128) as u64;
        l.set_astep_units(base + delta_units);
        l.start_amortization(1_000_000);
        assert!(l.amortizing());
        let ev = l.advance(1_000_000);
        assert_eq!(ev, vec![LtuEvent::AmortizationEnd]);
        assert!(!l.amortizing());
        let t_amort = l.time();
        // Against a non-amortized twin:
        let mut plain = running_ltu(fosc);
        plain.advance(1_000_000);
        let gained = t_amort.diff_secs_f64(plain.time());
        assert!((gained - 10e-6).abs() < 0.5e-6, "gained={gained}");
        // After amortization the rate reverts to STEP.
        let before = l.time();
        l.advance(1);
        let per_tick = l.time().diff_secs_f64(before);
        assert!((per_tick - 1e-7).abs() < 1e-12);
    }

    #[test]
    fn ticks_to_boundary_tracks_amortization() {
        let mut l = running_ltu(10_000_000);
        assert_eq!(l.ticks_to_boundary(), None);
        l.start_amortization(500);
        assert_eq!(l.ticks_to_boundary(), Some(500));
        l.advance(200);
        assert_eq!(l.ticks_to_boundary(), Some(300));
    }

    #[test]
    fn ticks_until_target() {
        let mut l = running_ltu(10_000_000);
        let target = NtpTime::from_secs(1);
        let n = l.ticks_until(target);
        // 1 s at ~100 ns/tick: ~10M ticks (exact value depends on rounding).
        assert!((9_999_000..=10_001_000).contains(&n), "n={n}");
        l.advance(n);
        assert!(l.time().wrapping_diff_units(target) >= 0);
        assert_eq!(l.ticks_until(target), 0);
    }

    #[test]
    fn leap_insert_jumps_back() {
        let mut l = running_ltu(10_000_000);
        l.arm_leap(1, LeapDir::Insert);
        let n = l.ticks_until(NtpTime::from_secs(1));
        // Advance in two segments honouring the boundary.
        let b = l.ticks_to_boundary().expect("leap boundary pending");
        assert!(b >= n && b <= n + 1, "b={b} n={n}");
        let ev = l.advance(b);
        assert_eq!(ev.len(), 1);
        assert!(matches!(ev[0], LtuEvent::LeapApplied(LeapDir::Insert)));
        // Time jumped back by one second: now just past second 0.
        assert_eq!(l.time().secs(), 0);
        assert!(l.leap().is_none());
    }

    #[test]
    fn leap_delete_jumps_forward() {
        let mut l = running_ltu(10_000_000);
        l.arm_leap(1, LeapDir::Delete);
        let b = l.ticks_to_boundary().unwrap();
        let ev = l.advance(b);
        assert!(matches!(ev[0], LtuEvent::LeapApplied(LeapDir::Delete)));
        assert_eq!(l.time().secs(), 2);
    }

    #[test]
    fn timestamp_macrostamp_pair_is_consistent() {
        let mut l = running_ltu(10_000_000);
        // Move just below a 256 s boundary so the halves would tear.
        l.load_time(NtpTime::from_raw((256u128 << FRAC_BITS) - 1));
        let ts = l.read_timestamp();
        // Clock advances past the boundary before the macrostamp read.
        l.advance(100);
        let ms = l.read_macrostamp();
        let pair =
            NtpTime::from_stamp_pair(nti_simcore::Timestamp(ts), nti_simcore::Macrostamp(ms));
        assert!(pair.is_some(), "latched pair must verify");
        assert_eq!(pair.unwrap().secs(), 255);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

        /// The distances to a duty-timer target and to an armed leap are
        /// the `u128` ceiling division on both sides of 2⁶⁴ units, for any
        /// programmable augend.
        #[test]
        fn distances_equal_the_u128_division_across_2_pow_64(
            step in 1u64..=STEP_MAX,
            astep in 1u64..=STEP_MAX,
            amortizing in proptest::prelude::any::<bool>(),
            diff in (1u128 << 64) - (1 << 50)..(1u128 << 64) + (1 << 50),
            small in 1u128..1 << 40,
            secs in 1u32..1 << 20,
        ) {
            let mut l = Ltu::new(step);
            l.set_astep_units(astep);
            l.set_running(true);
            if amortizing {
                // Never ending, so the leap stays the nearer boundary.
                l.start_amortization(u128::MAX);
            }
            let aug = (if amortizing { astep } else { step } as u128) << STEP_UNIT_SHIFT;
            for d in [diff, small] {
                let target = l.time().wrapping_add_units(d as i128);
                proptest::prop_assert_eq!(l.ticks_until(target), d.div_ceil(aug));
                let leap = NtpTime::from_secs(secs);
                l.load_time(leap.wrapping_add_units(-(d as i128)));
                l.arm_leap(secs, LeapDir::Insert);
                proptest::prop_assert_eq!(l.ticks_to_boundary(), Some(d.div_ceil(aug)));
            }
        }
    }

    #[test]
    fn step_saturates_at_40_bits() {
        let mut l = Ltu::new(0);
        l.set_step_units(u64::MAX);
        assert_eq!(l.step_units(), STEP_MAX);
    }

    #[test]
    #[should_panic(expected = "STEP exceeds 40 bits")]
    fn new_rejects_oversized_step() {
        let _ = Ltu::new(1 << 40);
    }
}
