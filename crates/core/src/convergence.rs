//! Interval-valued convergence functions.
//!
//! Step 3 of the generic algorithm (Section 2) applies a convergence
//! function to the round's preprocessed accuracy intervals to compute the
//! improved interval that is then enforced. Implemented here:
//!
//! * [`marzullo`] — Marzullo's fault-tolerant intersection **M**: the
//!   smallest interval containing every point covered by at least `n − f`
//!   of the `n` inputs. If at most `f` inputs are faulty, real time lies in
//!   every non-faulty input and therefore in **M** — the containment
//!   workhorse, also used for clock validation;
//! * [`ftm`] — the fault-tolerant midpoint over scalar clock values
//!   (Welch–Lynch style: drop the `f` lowest and `f` highest, midpoint of
//!   the extremes of the rest) — the convergence rule of the CSU/FTA
//!   baseline \[KO87\], and the value-selection rule inside OA;
//! * [`oa`] — the **orthogonal accuracy** convergence function of \[Sch97b\],
//!   reconstructed from the paper's description (the full reference was
//!   unpublished at the time): the new clock *value* is the fault-tolerant
//!   midpoint of the input reference values — this drives *precision* — and
//!   the new *accuracies* are taken from Marzullo's interval (clamping the
//!   value into it) — this preserves *containment*; value and accuracy are
//!   handled "orthogonally", hence the name. The paper's worst-case
//!   precision impairment for OA, `4G + 10u` (Section 5), is reproduced as
//!   experiment E2.
//!
//! All functions work on edge offsets (i128 counts of 2⁻⁵⁹ s) relative to a
//! caller-chosen base value, so the 91-bit wrap never bites.

use crate::interval::AccInterval;
use nti_simcore::ntp::NtpTime;

/// Marzullo's function over `intervals`, tolerating up to `f` faulty
/// inputs: the smallest interval containing all points that lie in at
/// least `n − f` inputs. Returns `None` when no point reaches the quorum
/// (more than `f` inputs were actually faulty/disjoint).
///
/// ```
/// use nti_core::convergence::marzullo;
/// use nti_core::interval::AccInterval;
/// use nti_simcore::{NtpTime, SimDuration};
///
/// let near = |us: u64| AccInterval::from_halfwidth(
///     NtpTime::from_secs(1).wrapping_add_units(us as i128 * (1 << 39)),
///     SimDuration::from_micros(50),
/// );
/// // Three agreeing intervals and one liar far away: with f = 1 the liar
/// // cannot drag the result.
/// let inputs = [near(0), near(3), near(7), near(100_000)];
/// let m = marzullo(&inputs, 1).expect("quorum of 3 agrees");
/// assert!(m.contains(inputs[0].value));
/// assert!(!m.contains(inputs[3].value));
/// ```
pub fn marzullo(intervals: &[AccInterval], f: usize) -> Option<AccInterval> {
    let n = intervals.len();
    if n == 0 || f >= n {
        return None;
    }
    let need = (n - f) as i64;
    let base = intervals[0].value;
    // Edge events: (offset, +1 at lower edge) / (offset, -1 just past upper).
    let mut events: Vec<(i128, i64)> = Vec::with_capacity(2 * n);
    for iv in intervals {
        let off = iv.value.wrapping_diff_units(base);
        events.push((off - iv.minus as i128, 1));
        events.push((off + iv.plus as i128, -1));
    }
    // Sort by offset; at equal offsets, opens before closes (edges touch =>
    // they intersect in a point). Events with equal keys are equal, so an
    // unstable sort gives the stable order.
    events.sort_unstable_by_key(|&(x, d)| (x, -d));
    let mut count = 0i64;
    let mut lo: Option<i128> = None;
    let mut hi: Option<i128> = None;
    for &(x, d) in &events {
        count += d;
        if d > 0 && count >= need && lo.is_none() {
            lo = Some(x);
        }
        if d < 0 && count == need - 1 {
            hi = Some(x); // just dropped below quorum: x was the last covered point
        }
    }
    let (lo, hi) = (lo?, hi?);
    debug_assert!(lo <= hi);
    let v = 0i128.clamp(lo, hi);
    Some(AccInterval {
        value: base.wrapping_add_units(v),
        minus: (v - lo) as u128,
        plus: (hi - v) as u128,
    })
}

/// Fault-tolerant midpoint of scalar offsets: drop the `f` lowest and `f`
/// highest, midpoint of the surviving extremes. Panics if `2f ≥ n`.
pub fn ftm(offsets: &[i128], f: usize) -> i128 {
    let n = offsets.len();
    assert!(
        2 * f < n,
        "fault-tolerant midpoint needs n > 2f (n={n}, f={f})"
    );
    // The (f+1)-th lowest and the (f+1)-th highest, without a full sort:
    // everything above the lower one is at least it, so the upper one is
    // selected among those.
    let mut v: Vec<i128> = offsets.to_vec();
    let (_, &mut lo, above) = v.select_nth_unstable(f);
    let hi = match (n - 1 - f).checked_sub(f + 1) {
        Some(k) => *above.select_nth_unstable(k).1,
        None => lo,
    };
    // Midpoint rounded toward negative infinity (deterministic).
    (lo + hi) >> 1
}

/// The orthogonal accuracy convergence function (reconstruction; see module
/// docs). Inputs are this round's compatible accuracy intervals (own
/// interval included); `f` is the fault-tolerance degree. Returns `None`
/// when Marzullo fails (more than `f` actually faulty).
pub fn oa(intervals: &[AccInterval], f: usize) -> Option<AccInterval> {
    let n = intervals.len();
    if n == 0 || 2 * f >= n {
        return None;
    }
    let m = marzullo(intervals, f)?;
    let base = intervals[0].value;
    let offsets: Vec<i128> = intervals
        .iter()
        .map(|iv| iv.value.wrapping_diff_units(base))
        .collect();
    let v = ftm(&offsets, f);
    // Clamp the midpoint-selected value into Marzullo's interval so the new
    // interval keeps containment, then attach M's edges.
    let m_off = m.value.wrapping_diff_units(base);
    let m_lo = m_off - m.minus as i128;
    let m_hi = m_off + m.plus as i128;
    let v = v.clamp(m_lo, m_hi);
    Some(AccInterval {
        value: base.wrapping_add_units(v),
        minus: (v - m_lo) as u128,
        plus: (m_hi - v) as u128,
    })
}

/// Convenience: OA's new value expressed as an adjustment (in 2⁻⁵⁹ s units)
/// relative to a node's current clock value.
pub fn adjustment_units(new: &AccInterval, current: NtpTime) -> i128 {
    new.value.wrapping_diff_units(current)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interval::units_ceil;
    use nti_simcore::time::SimDuration;

    fn iv_us(center_us: i64, half_us: u64) -> AccInterval {
        let base = NtpTime::from_secs(1000);
        let off = units_ceil(SimDuration::from_micros(center_us.unsigned_abs())) as i128
            * center_us.signum() as i128;
        AccInterval::new(
            base.wrapping_add_units(off),
            units_ceil(SimDuration::from_micros(half_us)),
            units_ceil(SimDuration::from_micros(half_us)),
        )
    }

    #[test]
    fn marzullo_all_agree() {
        let ivs = [iv_us(0, 10), iv_us(1, 10), iv_us(-1, 10)];
        let m = marzullo(&ivs, 0).expect("non-empty");
        // Intersection of all three: [-9, 9] us around base.
        let (lo, hi) = m.alpha_secs_f64();
        assert!((lo + hi - 18e-6).abs() < 1e-7, "width {}", lo + hi);
        for iv in &ivs {
            assert!(iv.contains(m.value));
        }
    }

    #[test]
    fn marzullo_tolerates_f_outliers() {
        // Three tight intervals + one liar far away; f = 1 must ignore it.
        let ivs = [iv_us(0, 5), iv_us(2, 5), iv_us(-2, 5), iv_us(500, 1)];
        let m = marzullo(&ivs, 1).expect("quorum of 3");
        // Result must be near 0, not dragged to 500.
        let err = m.value.diff_secs_f64(NtpTime::from_secs(1000));
        assert!(err.abs() < 10e-6, "err={err}");
    }

    #[test]
    fn marzullo_none_when_too_many_faulty() {
        let ivs = [iv_us(0, 1), iv_us(100, 1), iv_us(200, 1)];
        assert!(marzullo(&ivs, 0).is_none(), "pairwise disjoint, f=0");
        assert!(marzullo(&ivs, 1).is_none(), "still no 2-quorum point");
        // f = 2: every single interval is a quorum; result spans them all.
        let m = marzullo(&ivs, 2).expect("quorum of 1");
        assert!(m.contains(ivs[0].value) && m.contains(ivs[2].value));
    }

    #[test]
    fn marzullo_empty_and_degenerate() {
        assert!(marzullo(&[], 0).is_none());
        let one = [iv_us(3, 7)];
        let m = marzullo(&one, 0).unwrap();
        assert_eq!(m.lower(), one[0].lower());
        assert_eq!(m.upper(), one[0].upper());
    }

    #[test]
    fn marzullo_touching_edges_count_as_intersecting() {
        // [0,10] and [10,20]: the point 10 lies in both.
        let a = AccInterval::new(NtpTime::from_secs(1000), 0, 10);
        let b = AccInterval::new(NtpTime::from_secs(1000).wrapping_add_units(10), 0, 10);
        let m = marzullo(&[a, b], 0).expect("touching point");
        assert_eq!(m.width(), 0);
    }

    #[test]
    fn ftm_drops_extremes() {
        assert_eq!(ftm(&[0, 10, 20, 1000], 1), 15);
        assert_eq!(ftm(&[-1000, 0, 10, 20], 1), 5);
        assert_eq!(ftm(&[5], 0), 5);
    }

    #[test]
    #[should_panic(expected = "n > 2f")]
    fn ftm_requires_quorum() {
        let _ = ftm(&[1, 2], 1);
    }

    #[test]
    fn oa_improves_width_and_keeps_containment() {
        // Own interval wide, peers tight: OA must shrink the interval and
        // stay inside the quorum region.
        let ivs = [iv_us(0, 50), iv_us(1, 8), iv_us(-1, 8), iv_us(2, 8)];
        let new = oa(&ivs, 1).expect("converged");
        assert!(new.width() < ivs[0].width(), "must improve own accuracy");
        // Containment vs the "true" base point (all intervals centred near it).
        assert!(new.contains(NtpTime::from_secs(1000)));
    }

    #[test]
    fn oa_ignores_byzantine_interval() {
        let ivs = [iv_us(0, 5), iv_us(1, 5), iv_us(-1, 5), iv_us(400, 2)];
        let new = oa(&ivs, 1).expect("converged");
        let err = new.value.diff_secs_f64(NtpTime::from_secs(1000));
        assert!(err.abs() < 10e-6, "Byzantine input dragged value: {err}");
    }

    #[test]
    fn oa_value_clamped_into_marzullo() {
        // Construct inputs where the FTM midpoint would fall outside M.
        let ivs = [iv_us(-20, 2), iv_us(-18, 6), iv_us(40, 30)];
        if let Some(new) = oa(&ivs, 1) {
            let m = marzullo(&ivs, 1).unwrap();
            assert!(m.contains(new.value));
        }
    }

    #[test]
    fn oa_two_nodes_f0_converges_to_midpoint() {
        let ivs = [iv_us(-4, 10), iv_us(4, 10)];
        let new = oa(&ivs, 0).expect("converged");
        let err = new.value.diff_secs_f64(NtpTime::from_secs(1000));
        assert!(err.abs() < 1e-6, "midpoint expected, err={err}");
    }

    /// Marzullo's function with a stable sort of its edges: the reference
    /// the unstable sort must equal.
    fn marzullo_sorted(intervals: &[AccInterval], f: usize) -> Option<AccInterval> {
        let n = intervals.len();
        if n == 0 || f >= n {
            return None;
        }
        let need = (n - f) as i64;
        let base = intervals[0].value;
        let mut events: Vec<(i128, i64)> = Vec::with_capacity(2 * n);
        for iv in intervals {
            let off = iv.value.wrapping_diff_units(base);
            events.push((off - iv.minus as i128, 1));
            events.push((off + iv.plus as i128, -1));
        }
        events.sort_by_key(|&(x, d)| (x, -d));
        let mut count = 0i64;
        let (mut lo, mut hi) = (None, None);
        for &(x, d) in &events {
            count += d;
            if d > 0 && count >= need && lo.is_none() {
                lo = Some(x);
            }
            if d < 0 && count == need - 1 {
                hi = Some(x);
            }
        }
        let (lo, hi) = (lo?, hi?);
        let v = 0i128.clamp(lo, hi);
        Some(AccInterval {
            value: base.wrapping_add_units(v),
            minus: (v - lo) as u128,
            plus: (hi - v) as u128,
        })
    }

    /// The fault-tolerant midpoint by a full sort.
    fn ftm_sorted(offsets: &[i128], f: usize) -> i128 {
        let mut v = offsets.to_vec();
        v.sort_unstable();
        (v[f] + v[v.len() - 1 - f]) >> 1
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

        /// `marzullo` and `ftm` equal their sort-based versions for every
        /// f with 2f < n, on inputs drawn from a few values each, so that
        /// edges and offsets tie and whole intervals repeat.
        #[test]
        fn selections_equal_the_sorted_references(
            raw in proptest::collection::vec((-4i64..4, 0u32..4, 0u32..4), 1..14),
        ) {
            let base = NtpTime::from_secs(1000);
            let ivs: Vec<AccInterval> = raw
                .iter()
                .map(|&(c, m, p)| {
                    AccInterval::new(
                        base.wrapping_add_units(c as i128 * 1_000),
                        m as u128 * 1_000,
                        p as u128 * 1_000,
                    )
                })
                .collect();
            let offsets: Vec<i128> = raw.iter().map(|&(c, m, _)| (c * 7 + m as i64) as i128).collect();
            let n = ivs.len();
            for f in (0..n).take_while(|f| 2 * f < n) {
                proptest::prop_assert_eq!(marzullo(&ivs, f), marzullo_sorted(&ivs, f), "f = {}", f);
                proptest::prop_assert_eq!(ftm(&offsets, f), ftm_sorted(&offsets, f), "f = {}", f);
            }
        }
    }

    #[test]
    fn adjustment_units_sign() {
        let cur = NtpTime::from_secs(1000);
        let new = AccInterval::exact(cur.wrapping_add_units(42));
        assert_eq!(adjustment_units(&new, cur), 42);
    }
}
