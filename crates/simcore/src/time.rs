//! The global simulation time axis.
//!
//! Simulation time is an unsigned 128-bit count of **femtoseconds** since the
//! simulation epoch. One femtosecond comfortably resolves the finest quantum
//! in the system — the UTCSU's STEP register granule of 2⁻⁵¹ s ≈ 0.444 fs is
//! handled exactly inside [`crate::ntp`]; everything that crosses the
//! real-time axis (oscillator periods, propagation delays, jitter draws) is
//! at least tens of femtoseconds.
//!
//! In the paper's terminology this axis **is** real time `t` (UTC): the
//! simulator can observe it perfectly, which is strictly better
//! instrumentation than the authors' testbed had, and lets every experiment
//! check the containment invariant `t ∈ A(t)` directly.

use core::fmt;
use core::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// Femtoseconds per second.
pub const FS_PER_SEC: u128 = 1_000_000_000_000_000;
/// Femtoseconds per millisecond.
pub const FS_PER_MS: u128 = FS_PER_SEC / 1_000;
/// Femtoseconds per microsecond.
pub const FS_PER_US: u128 = FS_PER_SEC / 1_000_000;
/// Femtoseconds per nanosecond.
pub const FS_PER_NS: u128 = FS_PER_SEC / 1_000_000_000;

/// An absolute point on the simulation (= real/UTC) time axis, in
/// femtoseconds since the simulation epoch.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u128);

/// A non-negative span of simulation time, in femtoseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(pub u128);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant; used as an "infinitely far" sentinel.
    pub const MAX: SimTime = SimTime(u128::MAX);

    /// Construct from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s as u128 * FS_PER_SEC)
    }
    /// Construct from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms as u128 * FS_PER_MS)
    }
    /// Construct from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us as u128 * FS_PER_US)
    }
    /// Construct from nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns as u128 * FS_PER_NS)
    }
    /// Construct from femtoseconds.
    pub const fn from_fs(fs: u128) -> Self {
        SimTime(fs)
    }

    /// Raw femtosecond count.
    pub const fn as_fs(self) -> u128 {
        self.0
    }
    /// Whole seconds (truncated).
    pub const fn as_secs(self) -> u128 {
        self.0 / FS_PER_SEC
    }
    /// Value in seconds as a float (lossy; for reporting only).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / FS_PER_SEC as f64
    }
    /// Time elapsed since `earlier`, or `None` if `earlier` is later.
    pub fn checked_since(self, earlier: SimTime) -> Option<SimDuration> {
        self.0.checked_sub(earlier.0).map(SimDuration)
    }
    /// Time elapsed since `earlier`, saturating at zero.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
    /// Absolute difference between two instants.
    pub fn abs_diff(self, other: SimTime) -> SimDuration {
        SimDuration(self.0.abs_diff(other.0))
    }
    /// Saturating subtraction of a duration.
    pub fn saturating_sub(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_sub(d.0))
    }
}

impl SimDuration {
    /// Zero-length span.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Construct from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s as u128 * FS_PER_SEC)
    }
    /// Construct from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms as u128 * FS_PER_MS)
    }
    /// Construct from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us as u128 * FS_PER_US)
    }
    /// Construct from nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns as u128 * FS_PER_NS)
    }
    /// Construct from femtoseconds.
    pub const fn from_fs(fs: u128) -> Self {
        SimDuration(fs)
    }
    /// Construct from a float number of seconds (for configuration
    /// convenience; rounds to the nearest femtosecond, clamps negatives to 0).
    pub fn from_secs_f64(s: f64) -> Self {
        if s <= 0.0 || !s.is_finite() {
            return SimDuration(0);
        }
        SimDuration((s * FS_PER_SEC as f64).round() as u128)
    }

    /// Raw femtosecond count.
    pub const fn as_fs(self) -> u128 {
        self.0
    }
    /// Value in seconds as a float (lossy; for reporting only).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / FS_PER_SEC as f64
    }
    /// Value in microseconds as a float (lossy; for reporting only).
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / FS_PER_US as f64
    }
    /// Whole nanoseconds (truncated).
    pub const fn as_nanos(self) -> u128 {
        self.0 / FS_PER_NS
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }
    /// Multiply by an integer factor.
    pub const fn mul_u128(self, k: u128) -> SimDuration {
        SimDuration(self.0 * k)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}
impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}
impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}
impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}
impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}
impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}
impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}
impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 -= rhs.0;
    }
}
impl Mul<u128> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u128) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}
impl Div<u128> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u128) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.9}s", self.as_secs_f64())
    }
}
impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.9}s", self.as_secs_f64())
    }
}
impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}
impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let fs = self.0;
        if fs >= FS_PER_SEC {
            write!(f, "{:.6}s", self.as_secs_f64())
        } else if fs >= FS_PER_MS {
            write!(f, "{:.3}ms", fs as f64 / FS_PER_MS as f64)
        } else if fs >= FS_PER_US {
            write!(f, "{:.3}us", fs as f64 / FS_PER_US as f64)
        } else if fs >= FS_PER_NS {
            write!(f, "{:.3}ns", fs as f64 / FS_PER_NS as f64)
        } else {
            write!(f, "{}fs", fs)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(SimTime::from_secs(1), SimTime::from_millis(1000));
        assert_eq!(SimTime::from_millis(1), SimTime::from_micros(1000));
        assert_eq!(SimTime::from_micros(1), SimTime::from_nanos(1000));
        assert_eq!(SimTime::from_nanos(1), SimTime::from_fs(FS_PER_NS));
    }

    #[test]
    fn arithmetic_roundtrips() {
        let t = SimTime::from_secs(5);
        let d = SimDuration::from_micros(250);
        assert_eq!((t + d) - t, d);
        assert_eq!((t + d) - d, t);
    }

    #[test]
    fn checked_since_ordering() {
        let a = SimTime::from_secs(1);
        let b = SimTime::from_secs(2);
        assert_eq!(b.checked_since(a), Some(SimDuration::from_secs(1)));
        assert_eq!(a.checked_since(b), None);
        assert_eq!(a.saturating_since(b), SimDuration::ZERO);
    }

    #[test]
    fn abs_diff_symmetric() {
        let a = SimTime::from_nanos(10);
        let b = SimTime::from_nanos(17);
        assert_eq!(a.abs_diff(b), b.abs_diff(a));
        assert_eq!(a.abs_diff(b), SimDuration::from_nanos(7));
    }

    #[test]
    fn float_conversions() {
        let d = SimDuration::from_micros(1500);
        assert!((d.as_secs_f64() - 0.0015).abs() < 1e-12);
        assert!((d.as_micros_f64() - 1500.0).abs() < 1e-9);
        let back = SimDuration::from_secs_f64(0.0015);
        assert_eq!(back, d);
    }

    #[test]
    fn from_secs_f64_edge_cases() {
        assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::NAN), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(0.0), SimDuration::ZERO);
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(format!("{}", SimDuration::from_nanos(5)), "5.000ns");
        assert_eq!(format!("{}", SimDuration::from_micros(5)), "5.000us");
        assert_eq!(format!("{}", SimDuration::from_millis(5)), "5.000ms");
        assert_eq!(format!("{}", SimDuration::from_fs(12)), "12fs");
    }

    #[test]
    fn duration_scaling() {
        let d = SimDuration::from_nanos(100);
        assert_eq!(d * 10, SimDuration::from_micros(1));
        assert_eq!(d / 4, SimDuration::from_nanos(25));
    }
}
