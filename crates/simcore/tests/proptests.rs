//! Property-based tests for the simulation substrate.

use nti_simcore::ntp::{checksum8, FRAC_BITS, NTP_FRAC_BITS, RAW_MASK};
use nti_simcore::osc::{DriftModel, Oscillator};
use nti_simcore::rng::SimRng;
use nti_simcore::time::{SimDuration, SimTime, FS_PER_SEC};
use nti_simcore::NtpTime;
use proptest::prelude::*;

/// `SimRng::below` with the rejection threshold divided out on every call
/// (the formula the nearly divisionless form must reproduce).
fn below_reference(rng: &mut SimRng, n: u64) -> u64 {
    let threshold = n.wrapping_neg() % n;
    loop {
        let wide = rng.next_u64_raw() as u128 * n as u128;
        if wide as u64 >= threshold {
            return (wide >> 64) as u64;
        }
    }
}

/// A `below` bound: 1, 2, a power of two, 2^63 + 1 (rejects almost half
/// of all draws), `u64::MAX`, a small value, or any non-zero value.
fn below_bound(kind: u8, raw: u64) -> u64 {
    match kind {
        0 => 1,
        1 => 2,
        2 => 1 << (raw % 64),
        3 => (1 << 63) + 1,
        4 => u64::MAX,
        5 => raw % 1_000 + 1,
        _ => raw.max(1),
    }
}

proptest! {
    /// SimTime -> NtpTime -> fs roundtrip loses at most 2 fs to truncation.
    #[test]
    fn ntp_roundtrip_error_bounded(fs in 0u128..(1u128 << 80)) {
        let t = SimTime::from_fs(fs);
        let n = NtpTime::from_sim_time(t);
        let back = n.to_fs();
        prop_assert!(fs.abs_diff(back) <= 2);
    }

    /// Wrapping add/diff are inverse operations over the 91-bit ring.
    #[test]
    fn wrapping_add_diff_inverse(raw in 0u128..=RAW_MASK, delta in -(1i128 << 60)..(1i128 << 60)) {
        let a = NtpTime::from_raw(raw);
        let b = a.wrapping_add_units(delta);
        prop_assert_eq!(b.wrapping_diff_units(a), delta);
    }

    /// Timestamp monotonicity: increasing raw time never decreases the
    /// timestamp within a 256 s window.
    #[test]
    fn timestamp_monotone_within_wrap(start in 0u128..(200u128 << FRAC_BITS), step in 1u128..(1u128 << 40)) {
        let a = NtpTime::from_raw(start);
        let b = NtpTime::from_raw(start + step);
        prop_assert!(b.timestamp().0 >= a.timestamp().0
            || (b.secs() >> 8) != (a.secs() >> 8));
    }

    /// Checksum changes when any single byte of the 56-bit value changes by
    /// a non-256-multiple amount in one byte lane.
    #[test]
    fn checksum_detects_single_byte_flip(v in any::<u64>(), lane in 0usize..7, flip in 1u8..=255) {
        let v = v & ((1u64 << 56) - 1);
        let flipped = v ^ ((flip as u64) << (8 * lane));
        // XOR of a nonzero byte changes the byte value, which changes the sum
        // unless the add wraps to the same value - impossible for a sum of
        // bytes when only one byte changes by a nonzero amount.
        prop_assert_ne!(checksum8(v), checksum8(flipped));
    }

    /// Stamp-pair reassembly reproduces the NTP56 value whenever the
    /// checksum verifies.
    #[test]
    fn stamp_pair_roundtrip(raw in 0u128..=RAW_MASK) {
        let t = NtpTime::from_raw(raw);
        let back = NtpTime::from_stamp_pair(t.timestamp(), t.macrostamp());
        prop_assert!(back.is_some());
        prop_assert_eq!(back.unwrap().ntp56(), t.ntp56());
    }

    /// Accuracy conversion always over-covers the physical duration (below
    /// the 16-bit register's saturation point of 65535 * 2^-24 s ~ 3.906 ms;
    /// beyond that the hardware saturates and the claimed bound is clamped).
    #[test]
    fn accuracy_over_covers(ns in 0u64..3_900_000) {
        let d = SimDuration::from_nanos(ns);
        let a = nti_simcore::Accuracy::from_duration_ceil(d);
        prop_assert!(a.to_duration() >= d, "a={:?} d={:?}", a, d);
        // ...but not by more than one granule (2^-24 s ~ 60 ns) + 1 fs.
        let slack = a.to_duration() - d;
        prop_assert!(slack.as_fs() <= FS_PER_SEC / (1 << NTP_FRAC_BITS) + 1);
    }

    /// Oscillator tick times are strictly increasing and inversion is exact.
    #[test]
    fn oscillator_inversion(seed in any::<u64>(), hz in 1_000_000u64..20_000_000, n in 0u128..10_000_000) {
        let mut o = Oscillator::new(
            hz,
            DriftModel::RandomWalk {
                rho_max_ppm: 50.0,
                step_sigma_ppb: 100.0,
                step_interval: SimDuration::from_millis(50),
                initial_ppm: 0.0,
            },
            SimRng::new(seed),
            SimTime::ZERO,
        );
        let t = o.time_of_tick(n);
        prop_assert_eq!(o.ticks_at(t), n + 1);
        if n > 0 {
            prop_assert!(o.time_of_tick(n - 1) < t);
        }
    }

    /// The nearly divisionless `below` returns what the per-call-division
    /// formula returns and consumes the same draws: after every call the
    /// next raw draws agree, and since SplitMix64's output mix is a
    /// bijection of the state, so do the states.
    #[test]
    fn below_matches_per_call_division(
        seed in any::<u64>(),
        calls in proptest::collection::vec((0u8..7, any::<u64>()), 1..64),
    ) {
        let mut fast = SimRng::new(seed);
        let mut reference = SimRng::new(seed);
        for (kind, raw) in calls {
            let n = below_bound(kind, raw);
            let got = fast.below(n);
            prop_assert_eq!(got, below_reference(&mut reference, n), "n = {}", n);
            prop_assert!(got < n, "below({}) = {}", n, got);
            prop_assert_eq!(fast.clone().next_u64_raw(), reference.clone().next_u64_raw());
        }
    }

    /// ticks_at is monotone in time.
    #[test]
    fn ticks_monotone(seed in any::<u64>(), a_ms in 0u64..10_000, b_ms in 0u64..10_000) {
        let (lo, hi) = if a_ms <= b_ms { (a_ms, b_ms) } else { (b_ms, a_ms) };
        let mut o = Oscillator::new(
            10_000_000,
            DriftModel::RandomWalk {
                rho_max_ppm: 100.0,
                step_sigma_ppb: 1000.0,
                step_interval: SimDuration::from_millis(7),
                initial_ppm: 3.0,
            },
            SimRng::new(seed),
            SimTime::ZERO,
        );
        prop_assert!(o.ticks_at(SimTime::from_millis(lo)) <= o.ticks_at(SimTime::from_millis(hi)));
    }
}
