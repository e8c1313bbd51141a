//! Property-based tests for the UTCSU model.

use nti_simcore::ntp::NtpTime;
use nti_simcore::Accuracy;
use nti_utcsu::ltu::Ltu;
use nti_utcsu::{Acu, Utcsu, UtcsuConfig, NUM_TIMERS};
use proptest::prelude::*;

fn running_chip(fosc: u64) -> Utcsu {
    let mut u = Utcsu::new(UtcsuConfig {
        fosc_hz: fosc,
        reliable_pin: false,
    });
    u.sync_run();
    u
}

proptest! {
    /// Clock time is strictly monotone over any advance while running and
    /// not amortizing backwards past a leap.
    #[test]
    fn clock_monotone(fosc in 1_000_000u64..=20_000_000, steps in proptest::collection::vec(1u64..1_000_000, 1..20)) {
        let mut u = running_chip(fosc);
        let mut tick = 0u128;
        let mut prev = u.time();
        for s in steps {
            tick += s as u128;
            u.advance_to_tick(tick);
            let now = u.time();
            prop_assert!(now.wrapping_diff_units(prev) > 0);
            prev = now;
        }
    }

    /// Advancing in one chunk equals advancing through any increasing
    /// sequence of intermediate ticks: the adder is linear between
    /// boundaries, and the boundaries (amortization end, timer expiry, the
    /// ACU's clamps) land on the same tick however the advance is split.
    /// Checked with an amortization in progress, duty timers armed and
    /// DSTEPs programmed, on time, α⁻/α⁺, the raised interrupt sources and
    /// each timer's armed state. A node relies on this to advance its chip
    /// only where the chip is read or triggered.
    #[test]
    fn advance_is_linear(
        fosc in 1_000_000u64..=20_000_000,
        gaps in proptest::collection::vec(0u64..500_000, 0..8),
        last in 1u64..500_000,
        amort in 0u64..2_000_000,
        delta in -20_000i64..20_000,
        timer_frac in proptest::collection::vec(1u32..0x00FF_FFFF, NUM_TIMERS),
        dstep_minus in -(1i64 << 30)..(1i64 << 30),
        dstep_plus in 0i64..(1i64 << 30),
        init in 0u16..60_000,
    ) {
        let chip = || {
            let mut u = running_chip(fosc);
            u.itu.set_mask(u32::MAX);
            u.acu.load(Accuracy(init), Accuracy(init));
            u.acu.set_dstep_minus(dstep_minus);
            u.acu.set_dstep_plus(dstep_plus);
            if amort > 0 {
                let base = Ltu::nominal_step_units(fosc);
                u.ltu.set_astep_units((base as i64 + delta).max(1) as u64);
                u.start_amortization(amort as u128);
            }
            // Timer i targets second i: some expire inside the advance,
            // some stay armed.
            for (i, &frac) in timer_frac.iter().enumerate() {
                u.arm_timer_regs(i, i as u32, frac);
            }
            u
        };
        let splits: Vec<u128> = gaps
            .iter()
            .scan(0u128, |t, &g| {
                *t += g as u128;
                Some(*t)
            })
            .collect();
        let end = splits.last().copied().unwrap_or(0) + last as u128;
        let mut one = chip();
        one.advance_to_tick(end);
        let mut many = chip();
        for &t in &splits {
            many.advance_to_tick(t);
        }
        many.advance_to_tick(end);
        prop_assert_eq!(one.tick(), many.tick());
        prop_assert_eq!(one.time(), many.time());
        prop_assert_eq!(one.alpha(), many.alpha());
        prop_assert_eq!(one.ltu.amort_ticks_left(), many.ltu.amort_ticks_left());
        prop_assert_eq!(one.itu.pending(), many.itu.pending());
        for i in 0..NUM_TIMERS {
            prop_assert_eq!(one.timers[i].armed, many.timers[i].armed, "timer {}", i);
        }
    }

    /// After an amortization of `k` ticks with augend `astep`, the total
    /// elapsed clock time equals k*astep + (n-k)*step exactly.
    #[test]
    fn amortization_arithmetic_exact(k in 1u64..100_000, extra in 0u64..100_000, delta in -20_000i64..20_000) {
        let fosc = 10_000_000u64;
        let base = Ltu::nominal_step_units(fosc);
        let astep = (base as i64 + delta).max(1) as u64;
        let mut u = running_chip(fosc);
        u.ltu.set_astep_units(astep);
        u.ltu.start_amortization(k as u128);
        u.advance_to_tick(k as u128 + extra as u128);
        let expect = (k as i128) * ((astep as i128) << 8) + (extra as i128) * ((base as i128) << 8);
        prop_assert_eq!(u.time().wrapping_diff_units(NtpTime::ZERO), expect);
    }

    /// A duty timer armed at a future time never fires early, and always
    /// fires within one tick past its target.
    #[test]
    fn timer_never_early(fosc in 1_000_000u64..=20_000_000, frac in 1u32..0x00FF_FFFF) {
        let mut u = running_chip(fosc);
        u.itu.set_mask(u32::MAX);
        u.arm_timer_regs(0, 0, frac);
        let target = u.timers[0].target();
        let fire = u.next_event_tick().expect("armed timer");
        if fire > 1 {
            u.advance_to_tick(fire - 1);
            prop_assert!(u.time().wrapping_diff_units(target) < 0, "early fire");
            prop_assert_eq!(u.itu.pending() & 1, 0);
        }
        u.advance_to_tick(fire);
        prop_assert!(u.itu.pending() & 1 != 0);
        let over = u.time().wrapping_diff_units(target);
        prop_assert!(over >= 0);
        // Overshoot bounded by one augend.
        prop_assert!((over as u128) <= ((u.ltu.step_units() as u128) << 8));
    }

    /// ACU deterioration never shrinks a cell with non-negative dstep, and
    /// the register value always over-covers the internal accumulator.
    #[test]
    fn acu_register_over_covers(init in 0u16..60_000, dstep in 0i64..(1i64 << 30), ticks in 0u64..1_000_000) {
        let mut a = Acu::new();
        a.load(Accuracy(init), Accuracy(init));
        a.set_dstep_minus(dstep);
        a.set_dstep_plus(dstep);
        a.advance(ticks as u128);
        let (m, p) = a.alpha();
        prop_assert!(m.0 >= init);
        prop_assert_eq!(m, p);
        // register (in 2^-24 s) * 2^35 >= internal accumulation
        let internal = (init as u128) << 35;
        let grown = internal + (dstep as u128) * (ticks as u128);
        prop_assert!(((m.0 as u128) << 35) >= grown.min((u16::MAX as u128) << 35));
    }

    /// Leap seconds and amortization interact safely: whatever the order
    /// of boundaries, total elapsed clock time is the tick-sum plus/minus
    /// exactly one second.
    #[test]
    fn leap_amortization_interaction(
        leap_sec in 1u32..3,
        amort_ticks in 1u64..2_000_000,
        delta in -20_000i64..20_000,
        insert in any::<bool>(),
        extra in 0u64..5_000_000,
    ) {
        let fosc = 10_000_000u64;
        let base = Ltu::nominal_step_units(fosc);
        let astep = (base as i64 + delta).max(1) as u64;
        let mut u = running_chip(fosc);
        u.ltu.set_astep_units(astep);
        u.ltu.start_amortization(amort_ticks as u128);
        let dir = if insert { nti_utcsu::LeapDir::Insert } else { nti_utcsu::LeapDir::Delete };
        u.ltu.arm_leap(leap_sec, dir);
        // Advance far enough to cross both boundaries.
        let total = amort_ticks as u128 + extra as u128 + 4 * fosc as u128;
        u.advance_to_tick(total);
        let expect_ticks = (amort_ticks as i128) * ((astep as i128) << 8)
            + ((total - amort_ticks as u128) as i128) * ((base as i128) << 8);
        let leap_units = 1i128 << 59;
        let expect = if insert { expect_ticks - leap_units } else { expect_ticks + leap_units };
        prop_assert_eq!(u.time().wrapping_diff_units(NtpTime::ZERO), expect);
        prop_assert!(u.ltu.leap().is_none(), "leap must have fired");
        prop_assert!(!u.ltu.amortizing());
    }

    /// The NTPA bus decodes to the chip's own state at any clock value.
    #[test]
    fn ntpa_bus_always_consistent(ticks in 0u64..200_000_000, am in any::<u16>(), ap in any::<u16>()) {
        let mut u = running_chip(10_000_000);
        u.acu.load(nti_simcore::Accuracy(am), nti_simcore::Accuracy(ap));
        u.advance_to_tick(ticks as u128);
        let (a, b) = u.ntpa_phases();
        let (t, dm, dp) = nti_utcsu::ntpa_decode(a, b).expect("fresh tap verifies");
        prop_assert_eq!(t.ntp56(), u.time().ntp56());
        prop_assert_eq!(dm.0, am);
        prop_assert_eq!(dp.0, ap);
    }

    /// Fuzzing the whole register window: any sequence of aligned reads
    /// and writes anywhere in the 512-byte window must never panic, and
    /// the clock must stay monotone while running.
    #[test]
    fn register_window_fuzz(
        ops in proptest::collection::vec((any::<bool>(), 0u32..0x80, any::<u32>()), 0..200),
        ticks in proptest::collection::vec(1u64..100_000, 0..20),
    ) {
        let mut u = running_chip(10_000_000);
        let mut prev = u.time();
        let mut tick = 0u128;
        let mut tick_iter = ticks.into_iter();
        for (is_write, reg, val) in ops {
            let off = reg * 4; // aligned within the 0x200 window
            if is_write {
                // Avoid stopping the clock or loading time backwards for
                // the monotonicity check: skip CTRL and the load trigger.
                if off != nti_utcsu::regs::R_CTRL {
                    u.write32(off, val);
                }
            } else {
                let _ = u.read32(off);
            }
            if let Some(t) = tick_iter.next() {
                tick += t as u128;
                u.advance_to_tick(tick);
                let now = u.time();
                prop_assert!(now.wrapping_diff_units(prev) >= 0, "clock ran backwards");
                prev = now;
            }
        }
    }

    /// Register sub-word writes compose to the same result as one 32-bit
    /// write for plain storage registers.
    #[test]
    fn subword_write_composition(v in any::<u32>()) {
        let mut a = running_chip(10_000_000);
        let mut b = running_chip(10_000_000);
        a.write32(nti_utcsu::regs::R_TLOAD_SECS, v);
        b.write16(nti_utcsu::regs::R_TLOAD_SECS, v as u16);
        b.write16(nti_utcsu::regs::R_TLOAD_SECS + 2, (v >> 16) as u16);
        prop_assert_eq!(a.read32(nti_utcsu::regs::R_TLOAD_SECS), b.read32(nti_utcsu::regs::R_TLOAD_SECS));
    }
}
