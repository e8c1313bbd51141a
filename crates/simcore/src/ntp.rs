//! The UTCSU's NTP-style fixed-point time formats.
//!
//! The UTCSU maintains local clock time in a **56-bit NTP format** (32-bit
//! integer seconds + 24-bit fraction, granularity 2⁻²⁴ s ≈ 59.6 ns) backed by
//! a wider internal register summed by the 91-bit adder: we model the
//! internal representation as a **32.59 fixed-point** value (32 integer +
//! 59 fractional bits = 91 bits), so that the STEP augend — programmed in
//! multiples of 2⁻⁵¹ s ≈ 0.44 fs per the paper — is an exact integer
//! (1 STEP unit = 2⁸ internal units).
//!
//! Reads of the clock come in two atomic halves, exactly as in Section 3.3
//! of the paper:
//!
//! * a 32-bit [`Timestamp`] — 8 bits of seconds + the 24-bit fraction; wraps
//!   every 256 s, resolution 2⁻²⁴ s;
//! * a 32-bit [`Macrostamp`] — the remaining 24 most-significant bits of
//!   seconds plus an 8-bit checksum protecting the entire 56-bit time.
//!
//! Accuracies (the α⁻/α⁺ cells of the ACU) are 16-bit unsigned values in
//! units of 2⁻²⁴ s (≈ 59.6 ns), giving a maximum representable accuracy of
//! ≈ 3.9 ms per side. Converting a physical duration into an accuracy
//! register value **rounds up** so the register always over-covers the true
//! bound (required for the containment invariant `t ∈ A(t)`).

use crate::time::{SimDuration, SimTime, FS_PER_SEC};
use core::fmt;

/// Number of fractional bits in the internal (adder) representation.
pub const FRAC_BITS: u32 = 59;
/// Total width of the internal representation (the paper's 91-bit adder).
pub const TOTAL_BITS: u32 = 91;
/// Mask selecting the valid 91 bits.
pub const RAW_MASK: u128 = (1u128 << TOTAL_BITS) - 1;
/// Number of fractional bits in the externally visible NTP format.
pub const NTP_FRAC_BITS: u32 = 24;
/// A STEP register unit is 2⁻⁵¹ s = 2⁸ internal units.
pub const STEP_UNIT_SHIFT: u32 = FRAC_BITS - 51;
/// Internal units per second (2⁵⁹).
pub const UNITS_PER_SEC: u128 = 1u128 << FRAC_BITS;

/// The UTCSU's internal clock value: 91-bit fixed point, 32.59 format,
/// wrapping modulo 2³² seconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NtpTime {
    raw: u128,
}

impl NtpTime {
    /// Time zero.
    pub const ZERO: NtpTime = NtpTime { raw: 0 };

    /// Construct from a raw 91-bit value (masked).
    pub const fn from_raw(raw: u128) -> Self {
        NtpTime {
            raw: raw & RAW_MASK,
        }
    }
    /// The raw 91-bit value.
    pub const fn raw(self) -> u128 {
        self.raw
    }

    /// Construct from whole seconds.
    pub const fn from_secs(s: u32) -> Self {
        NtpTime {
            raw: (s as u128) << FRAC_BITS,
        }
    }

    /// Convert a point on the real-time axis into the corresponding clock
    /// value (used to initialise perfect clocks and for instrumentation).
    /// Exact up to the 2⁻⁵⁹ s quantum, truncating.
    pub fn from_sim_time(t: SimTime) -> Self {
        let fs = t.as_fs();
        let secs = fs / FS_PER_SEC;
        let rem = fs % FS_PER_SEC;
        // rem < 1e15 < 2^50, shifted by 59 stays < 2^109: no overflow.
        let frac = (rem << FRAC_BITS) / FS_PER_SEC;
        NtpTime::from_raw((secs << FRAC_BITS) | frac)
    }

    /// Convert into femtoseconds on the real axis (interprets the 32-bit
    /// second counter as absolute, i.e. without wrap disambiguation).
    pub fn to_fs(self) -> u128 {
        let secs = self.raw >> FRAC_BITS;
        let frac = self.raw & (UNITS_PER_SEC - 1);
        secs * FS_PER_SEC + ((frac * FS_PER_SEC) >> FRAC_BITS)
    }

    /// Value in seconds as a float (lossy; for reporting only).
    pub fn as_secs_f64(self) -> f64 {
        (self.raw >> FRAC_BITS) as f64
            + (self.raw & (UNITS_PER_SEC - 1)) as f64 / UNITS_PER_SEC as f64
    }

    /// Wrapping addition of a signed amount of internal units (the adder).
    pub fn wrapping_add_units(self, units: i128) -> NtpTime {
        let raw = (self.raw as i128 + units).rem_euclid(1i128 << TOTAL_BITS) as u128;
        NtpTime { raw }
    }

    /// Signed difference `self - other` in internal units, interpreted in
    /// the shortest-wrap sense (result in ±2⁹⁰).
    pub fn wrapping_diff_units(self, other: NtpTime) -> i128 {
        let modulus = 1i128 << TOTAL_BITS;
        let mut d = (self.raw as i128 - other.raw as i128).rem_euclid(modulus);
        if d >= modulus / 2 {
            d -= modulus;
        }
        d
    }

    /// Signed difference `self - other` in seconds, as a float.
    pub fn diff_secs_f64(self, other: NtpTime) -> f64 {
        self.wrapping_diff_units(other) as f64 / UNITS_PER_SEC as f64
    }

    /// The worst pairwise difference `max |a.diff_secs_f64(b)|` over
    /// `clocks`, in one pass: each clock's shortest-wrap offset from the
    /// first, max minus min. Bit-identical to the pairwise maximum while
    /// the clocks lie on an arc shorter than 2⁹⁰ units (68 years): every
    /// pairwise wrapping difference is then the exact difference of two
    /// offsets, and i128 → f64 rounding is monotone. 0 for fewer than two
    /// clocks.
    pub fn spread_secs(clocks: &[NtpTime]) -> f64 {
        let Some(&first) = clocks.first() else {
            return 0.0;
        };
        let (lo, hi) = clocks.iter().fold((0i128, 0i128), |(lo, hi), c| {
            let d = c.wrapping_diff_units(first);
            (lo.min(d), hi.max(d))
        });
        (hi - lo) as f64 / UNITS_PER_SEC as f64
    }

    /// The externally visible 56-bit NTP value (32.24), truncated.
    pub fn ntp56(self) -> u64 {
        (self.raw >> (FRAC_BITS - NTP_FRAC_BITS)) as u64
    }

    /// The 32-bit timestamp read: 8 bits of seconds + 24-bit fraction.
    /// Wraps every 256 s; granularity 2⁻²⁴ s ≈ 59.6 ns.
    pub fn timestamp(self) -> Timestamp {
        Timestamp((self.ntp56() & 0xFFFF_FFFF) as u32)
    }

    /// The 32-bit macrostamp read: 24 most-significant bits of seconds plus
    /// an 8-bit checksum over the full 56-bit time.
    pub fn macrostamp(self) -> Macrostamp {
        Macrostamp::new((self.secs() >> 8) & 0x00FF_FFFF, checksum8(self.ntp56()))
    }

    /// The 32-bit second counter.
    pub const fn secs(self) -> u32 {
        (self.raw >> FRAC_BITS) as u32
    }

    /// Reassemble a full clock value from a timestamp + macrostamp pair,
    /// verifying the checksum. Returns `None` if the checksum does not match
    /// (a faulty or torn read).
    pub fn from_stamp_pair(ts: Timestamp, ms: Macrostamp) -> Option<NtpTime> {
        let secs = ((ms.high_secs() as u128) << 8) | ((ts.0 >> NTP_FRAC_BITS) as u128);
        let frac24 = (ts.0 & 0x00FF_FFFF) as u128;
        let t = NtpTime::from_raw((secs << FRAC_BITS) | (frac24 << (FRAC_BITS - NTP_FRAC_BITS)));
        if checksum8(t.ntp56()) == ms.checksum() {
            Some(t)
        } else {
            None
        }
    }
}

impl fmt::Debug for NtpTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "C={:.9}s", self.as_secs_f64())
    }
}

/// The 8-bit checksum used in the macrostamp: two's-complement sum of the
/// seven bytes of the 56-bit NTP time, negated, so that summing all eight
/// bytes (including the checksum) yields zero.
pub fn checksum8(ntp56: u64) -> u8 {
    let mut s: u8 = 0;
    for i in 0..7 {
        s = s.wrapping_add(((ntp56 >> (8 * i)) & 0xFF) as u8);
    }
    s.wrapping_neg()
}

/// The 32-bit atomically-read timestamp: 8.24 fixed point (8 bits of
/// seconds, 24 bits of fraction), wrapping every 256 s.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Timestamp(pub u32);

impl Timestamp {
    /// Seconds-within-wrap component (0..=255).
    pub const fn secs8(self) -> u8 {
        (self.0 >> NTP_FRAC_BITS) as u8
    }
    /// Fractional component in 2⁻²⁴ s units.
    pub const fn frac24(self) -> u32 {
        self.0 & 0x00FF_FFFF
    }
    /// Value in seconds as a float (within the 256 s wrap).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / (1u32 << NTP_FRAC_BITS) as f64
    }
    /// Signed difference `self - other` in 2⁻²⁴ s units under the 256 s
    /// wrap (shortest-way interpretation, valid when the true difference is
    /// below 128 s).
    pub fn wrapping_diff(self, other: Timestamp) -> i64 {
        let modulus = 1i64 << 32;
        let mut d = (self.0 as i64 - other.0 as i64).rem_euclid(modulus);
        if d >= modulus / 2 {
            d -= modulus;
        }
        d
    }
}

impl fmt::Debug for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TS({:.7}s)", self.as_secs_f64())
    }
}

/// The 32-bit macrostamp: bits 31..8 hold the 24 most-significant bits of
/// the second counter, bits 7..0 the checksum.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Macrostamp(pub u32);

impl Macrostamp {
    /// Assemble from the high 24 bits of seconds and the checksum byte.
    pub const fn new(high_secs: u32, checksum: u8) -> Self {
        Macrostamp(((high_secs & 0x00FF_FFFF) << 8) | checksum as u32)
    }
    /// The 24 most-significant bits of the second counter.
    pub const fn high_secs(self) -> u32 {
        self.0 >> 8
    }
    /// The checksum byte.
    pub const fn checksum(self) -> u8 {
        (self.0 & 0xFF) as u8
    }
}

impl fmt::Debug for Macrostamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "MS(high={:#08x}, ck={:#04x})",
            self.high_secs(),
            self.checksum()
        )
    }
}

/// A 16-bit accuracy register value in units of 2⁻²⁴ s (≈ 59.6 ns),
/// saturating at the maximum representable ≈ 3.9 ms.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Accuracy(pub u16);

impl Accuracy {
    /// The zero accuracy (perfectly known time).
    pub const ZERO: Accuracy = Accuracy(0);
    /// The saturated maximum (≈ 3.9 ms).
    pub const MAX: Accuracy = Accuracy(u16::MAX);

    /// Convert a physical duration into an accuracy value, **rounding up**
    /// and saturating, so the register over-covers the physical bound.
    pub fn from_duration_ceil(d: SimDuration) -> Accuracy {
        let fs = d.as_fs();
        // units = ceil(fs * 2^24 / 1e15); fs <= ~2^62 here in practice, but
        // guard the shift anyway.
        let num = match fs.checked_shl(NTP_FRAC_BITS) {
            Some(n) => n,
            None => return Accuracy::MAX,
        };
        let units = num.div_ceil(FS_PER_SEC);
        if units > u16::MAX as u128 {
            Accuracy::MAX
        } else {
            Accuracy(units as u16)
        }
    }

    /// The claimed bound as a physical duration (exact value of
    /// `units · 2⁻²⁴ s`, rounded up to the next femtosecond).
    pub fn to_duration(self) -> SimDuration {
        SimDuration::from_fs(((self.0 as u128) * FS_PER_SEC).div_ceil(1u128 << NTP_FRAC_BITS))
    }

    /// Value in seconds as a float (lossy; for reporting only).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / (1u32 << NTP_FRAC_BITS) as f64
    }

    /// Saturating addition.
    pub fn saturating_add(self, other: Accuracy) -> Accuracy {
        Accuracy(self.0.saturating_add(other.0))
    }
    /// Saturating subtraction (the ACU zero-masks negative accuracies during
    /// continuous amortization, per Section 3.3).
    pub fn saturating_sub(self, other: Accuracy) -> Accuracy {
        Accuracy(self.0.saturating_sub(other.0))
    }
}

impl fmt::Debug for Accuracy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}us", self.as_secs_f64() * 1e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimTime;

    #[test]
    fn sim_time_roundtrip() {
        let t = SimTime::from_nanos(123_456_789_012);
        let n = NtpTime::from_sim_time(t);
        let back = n.to_fs();
        // Truncation error is below one 2^-59 s quantum (≈ 1.8 fs in fs terms
        // the conversion may lose up to 2 fs total).
        assert!(t.as_fs().abs_diff(back) <= 2, "{} vs {}", t.as_fs(), back);
    }

    #[test]
    fn timestamp_wraps_at_256s() {
        let a = NtpTime::from_secs(255).timestamp();
        let b = NtpTime::from_secs(256).timestamp();
        assert_eq!(a.secs8(), 255);
        assert_eq!(b.secs8(), 0);
        assert_eq!(b.wrapping_diff(a), 1 << NTP_FRAC_BITS);
    }

    #[test]
    fn timestamp_granularity_is_2e24() {
        let one_granule = NtpTime::from_raw(1u128 << (FRAC_BITS - NTP_FRAC_BITS));
        assert_eq!(one_granule.timestamp().0, 1);
        let below = NtpTime::from_raw((1u128 << (FRAC_BITS - NTP_FRAC_BITS)) - 1);
        assert_eq!(below.timestamp().0, 0);
    }

    #[test]
    fn macrostamp_checksum_roundtrip() {
        let t = NtpTime::from_sim_time(SimTime::from_secs(1_000_000)) // > 256 s
            .wrapping_add_units(0xDEAD_BEEF);
        let ts = t.timestamp();
        let ms = t.macrostamp();
        let back = NtpTime::from_stamp_pair(ts, ms).expect("checksum must verify");
        // Reassembly has NTP56 granularity.
        assert_eq!(back.ntp56(), t.ntp56());
    }

    #[test]
    fn macrostamp_checksum_detects_corruption() {
        let t = NtpTime::from_sim_time(SimTime::from_secs(12345));
        let ts = t.timestamp();
        let ms = t.macrostamp();
        let bad = Macrostamp::new(ms.high_secs() ^ 1, ms.checksum());
        assert!(NtpTime::from_stamp_pair(ts, bad).is_none());
    }

    #[test]
    fn wrapping_add_and_diff() {
        let t = NtpTime::from_raw(RAW_MASK); // all ones: just below wrap
        let t2 = t.wrapping_add_units(1);
        assert_eq!(t2.raw(), 0);
        assert_eq!(t2.wrapping_diff_units(t), 1);
        assert_eq!(t.wrapping_diff_units(t2), -1);
    }

    #[test]
    fn negative_units_wrap() {
        let t = NtpTime::ZERO.wrapping_add_units(-1);
        assert_eq!(t.raw(), RAW_MASK);
    }

    #[test]
    fn checksum_sums_to_zero() {
        for v in [0u64, 1, 0xFF_FFFF_FFFF_FFFF, 0x12_3456_789A_BCDE] {
            let ck = checksum8(v);
            let mut s = ck;
            for i in 0..7 {
                s = s.wrapping_add(((v >> (8 * i)) & 0xFF) as u8);
            }
            assert_eq!(s, 0);
        }
    }

    #[test]
    fn accuracy_rounds_up() {
        // 100 ns is not a multiple of 2^-24 s: must round up to 2 units.
        let a = Accuracy::from_duration_ceil(SimDuration::from_nanos(100));
        assert_eq!(a.0, 2);
        assert!(a.to_duration() >= SimDuration::from_nanos(100));
    }

    #[test]
    fn accuracy_saturates() {
        let a = Accuracy::from_duration_ceil(SimDuration::from_secs(1));
        assert_eq!(a, Accuracy::MAX);
        assert_eq!(
            Accuracy(60000).saturating_add(Accuracy(60000)),
            Accuracy::MAX
        );
        assert_eq!(Accuracy(5).saturating_sub(Accuracy(9)), Accuracy::ZERO);
    }

    #[test]
    fn accuracy_to_duration_over_covers() {
        for units in [0u16, 1, 17, 1000, u16::MAX] {
            let a = Accuracy(units);
            let d = a.to_duration();
            assert!(d.as_secs_f64() >= a.as_secs_f64() - 1e-15);
        }
    }

    #[test]
    fn diff_secs_f64_sign() {
        let a = NtpTime::from_secs(10);
        let b = NtpTime::from_secs(11);
        assert!(b.diff_secs_f64(a) > 0.0);
        assert!(a.diff_secs_f64(b) < 0.0);
    }
}
