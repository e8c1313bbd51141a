//! Quartz oscillator models with exact tick ↔ time mapping.
//!
//! The UTCSU is paced by an on-board TCXO/OCXO (or an external frequency
//! source) in the 1…20 MHz range (Section 3.3). The oscillator's imperfection
//! — its drift ρ(t) = f(t)/f_nom − 1 — is what clock synchronization fights,
//! so the model must be exact: tick times are integer attoseconds, and the
//! mapping between real time and tick count is piecewise linear with a
//! constant period per segment.
//!
//! Three drift models cover the hardware the paper mentions:
//!
//! * [`DriftModel::Constant`] — a fixed frequency offset (ideal for unit
//!   tests and worst-case analyses);
//! * [`DriftModel::RandomWalk`] — a bounded random walk, the usual model for
//!   free-running crystal ageing/jitter;
//! * [`DriftModel::Temperature`] — a sinusoidal drift component modelling
//!   diurnal temperature swings on a TCXO.
//!
//! Ticks are numbered 0, 1, 2, … with tick 0 at the oscillator's start
//! offset; the period is constant within a segment and changes only at
//! segment boundaries (which lie on tick boundaries, so no fractional phase
//! is ever lost).

use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};

/// Attoseconds per femtosecond.
const AS_PER_FS: u128 = 1_000;
/// Attoseconds per second.
const AS_PER_SEC: u128 = 1_000_000_000_000_000_000;

/// Drift behaviour of an oscillator.
#[derive(Clone, Debug)]
pub enum DriftModel {
    /// Constant drift of `rho_ppm` parts per million.
    Constant {
        /// Fractional frequency offset in ppm (positive = fast clock).
        rho_ppm: f64,
    },
    /// Bounded random walk: every `step_interval` the drift takes a normal
    /// step of standard deviation `step_sigma_ppb` and is clamped to
    /// ±`rho_max_ppm`.
    RandomWalk {
        /// Hard bound on |ρ| in ppm (the datasheet figure an algorithm may
        /// rely on).
        rho_max_ppm: f64,
        /// Standard deviation of each walk step, in parts per billion.
        step_sigma_ppb: f64,
        /// Interval between drift re-draws.
        step_interval: SimDuration,
        /// Initial drift in ppm (clamped to the bound).
        initial_ppm: f64,
    },
    /// Sinusoidal (temperature-induced) drift:
    /// ρ(t) = mean + amp·sin(2πt/period + phase), sampled per segment.
    Temperature {
        /// Mean fractional frequency offset in ppm.
        mean_ppm: f64,
        /// Amplitude of the sinusoidal component in ppm.
        amp_ppm: f64,
        /// Period of the temperature cycle.
        period: SimDuration,
        /// Phase offset in radians.
        phase: f64,
        /// Segment length for the piecewise-constant approximation.
        step_interval: SimDuration,
    },
}

impl DriftModel {
    /// A perfect oscillator (zero drift).
    pub fn perfect() -> Self {
        DriftModel::Constant { rho_ppm: 0.0 }
    }

    /// A worst-case bound on |ρ| in ppm that holds for the whole run — the
    /// figure a synchronization algorithm would take from the datasheet.
    pub fn rho_bound_ppm(&self) -> f64 {
        match *self {
            DriftModel::Constant { rho_ppm } => rho_ppm.abs(),
            DriftModel::RandomWalk { rho_max_ppm, .. } => rho_max_ppm,
            DriftModel::Temperature {
                mean_ppm, amp_ppm, ..
            } => mean_ppm.abs() + amp_ppm.abs(),
        }
    }

    fn segment_ticks(&self, nominal_hz: u64) -> u128 {
        let interval = match *self {
            DriftModel::Constant { .. } => return u128::MAX,
            DriftModel::RandomWalk { step_interval, .. } => step_interval,
            DriftModel::Temperature { step_interval, .. } => step_interval,
        };
        let ticks = (interval.as_secs_f64() * nominal_hz as f64).round() as u128;
        ticks.max(1)
    }
}

/// A time-windowed additive drift offset — models a temperature step or a
/// frequency glitch injected by a fault plan. While `from <= t < until` the
/// oscillator's instantaneous drift is the model's ρ(t) plus `extra_ppm`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DriftExcursion {
    /// Start of the excursion window (inclusive).
    pub from: SimTime,
    /// End of the excursion window (exclusive).
    pub until: SimTime,
    /// Additional fractional frequency offset in ppm during the window.
    pub extra_ppm: f64,
}

#[derive(Clone, Copy, Debug)]
struct Segment {
    /// First tick index covered by this segment.
    start_tick: u128,
    /// Time of that tick, in attoseconds.
    start_as: u128,
    /// Oscillator period during this segment, in attoseconds.
    period_as: u128,
    /// Instantaneous drift during this segment, in ppm (for instrumentation).
    rho_ppm: f64,
}

/// A simulated quartz oscillator with lazily generated drift segments.
#[derive(Clone, Debug)]
pub struct Oscillator {
    nominal_hz: u64,
    model: DriftModel,
    rng: SimRng,
    segments: Vec<Segment>,
    seg_ticks: u128,
    /// Random-walk state: current drift in ppm.
    walk_rho_ppm: f64,
    /// Fault-injected drift overlays: (from_as, until_as, extra_ppm).
    /// Applied additively on top of the model's ρ, after any RNG draw, so
    /// installing an excursion never perturbs the draw sequence.
    excursions: Vec<(u128, u128, f64)>,
}

impl Oscillator {
    /// Create an oscillator with nominal frequency `nominal_hz`, the given
    /// drift model, and a start offset: tick 0 occurs at `start` (models the
    /// unknown power-up phase).
    pub fn new(nominal_hz: u64, model: DriftModel, rng: SimRng, start: SimTime) -> Self {
        assert!(
            (1_000_000..=20_000_000).contains(&nominal_hz) || nominal_hz > 0,
            "oscillator frequency must be positive"
        );
        let walk_rho_ppm = match model {
            DriftModel::RandomWalk {
                initial_ppm,
                rho_max_ppm,
                ..
            } => initial_ppm.clamp(-rho_max_ppm, rho_max_ppm),
            _ => 0.0,
        };
        let seg_ticks = model.segment_ticks(nominal_hz);
        let mut o = Oscillator {
            nominal_hz,
            model,
            rng,
            segments: Vec::new(),
            seg_ticks,
            walk_rho_ppm,
            excursions: Vec::new(),
        };
        let rho = o.draw_rho(start.as_fs() * AS_PER_FS);
        o.segments.push(Segment {
            start_tick: 0,
            start_as: start.as_fs() * AS_PER_FS,
            period_as: period_for(nominal_hz, rho),
            rho_ppm: rho,
        });
        o
    }

    /// Nominal frequency in Hz.
    pub fn nominal_hz(&self) -> u64 {
        self.nominal_hz
    }

    /// Worst-case drift bound in ppm (the datasheet figure).
    pub fn rho_bound_ppm(&self) -> f64 {
        self.model.rho_bound_ppm()
    }

    /// Install fault-injected drift excursions. Must be called before the
    /// oscillator has been asked about any tick beyond its first segment
    /// (i.e. at construction/configuration time): the overlay changes tick
    /// times, and rewriting history would corrupt the tick↔time mapping.
    ///
    /// For the `Constant` model (which normally uses a single infinite
    /// segment) a finite ~10 ms segmentation is installed so excursion
    /// windows take effect at segment granularity. An empty slice leaves the
    /// oscillator bit-identical to an unconfigured one.
    pub fn set_excursions(&mut self, excursions: &[DriftExcursion]) {
        assert_eq!(
            self.segments.len(),
            1,
            "set_excursions must be called before the oscillator is used"
        );
        self.excursions = excursions
            .iter()
            .map(|e| {
                (
                    e.from.as_fs() * AS_PER_FS,
                    e.until.as_fs() * AS_PER_FS,
                    e.extra_ppm,
                )
            })
            .collect();
        if self.excursions.is_empty() {
            return;
        }
        if self.seg_ticks == u128::MAX {
            self.seg_ticks = (self.nominal_hz as u128 / 100).max(1);
        }
        // Rebuild segment 0 with the overlay applied (its stored rho is the
        // bare model ρ at this point, so adding the overlay is exact).
        let first = self.segments[0];
        let rho = first.rho_ppm + self.excursion_ppm(first.start_as);
        self.segments[0] = Segment {
            period_as: period_for(self.nominal_hz, rho),
            rho_ppm: rho,
            ..first
        };
    }

    /// Sum of active excursion offsets at `t_as`, in ppm.
    fn excursion_ppm(&self, t_as: u128) -> f64 {
        self.excursions
            .iter()
            .filter(|&&(from, until, _)| from <= t_as && t_as < until)
            .map(|&(_, _, ppm)| ppm)
            .sum()
    }

    fn draw_rho(&mut self, t_as: u128) -> f64 {
        match self.model {
            DriftModel::Constant { rho_ppm } => rho_ppm,
            DriftModel::RandomWalk {
                rho_max_ppm,
                step_sigma_ppb,
                ..
            } => {
                let step = self.rng.gauss() * step_sigma_ppb / 1000.0;
                self.walk_rho_ppm = (self.walk_rho_ppm + step).clamp(-rho_max_ppm, rho_max_ppm);
                self.walk_rho_ppm
            }
            DriftModel::Temperature {
                mean_ppm,
                amp_ppm,
                period,
                phase,
                ..
            } => {
                let t_s = t_as as f64 / AS_PER_SEC as f64;
                let omega = 2.0 * std::f64::consts::PI / period.as_secs_f64().max(1e-9);
                mean_ppm + amp_ppm * (omega * t_s + phase).sin()
            }
        }
    }

    /// Extend segments so the last one starts at or after tick `n` or time
    /// `t_as` (whichever criterion the caller needs).
    fn extend_to_tick(&mut self, n: u128) {
        loop {
            let last = *self.segments.last().expect("segments never empty");
            if self.seg_ticks == u128::MAX || n < last.start_tick.saturating_add(self.seg_ticks) {
                return;
            }
            let start_tick = last.start_tick + self.seg_ticks;
            let start_as = last.start_as + self.seg_ticks * last.period_as;
            let rho = self.draw_rho(start_as) + self.excursion_ppm(start_as);
            self.segments.push(Segment {
                start_tick,
                start_as,
                period_as: period_for(self.nominal_hz, rho),
                rho_ppm: rho,
            });
        }
    }

    fn extend_to_time(&mut self, t_as: u128) {
        loop {
            let last = *self.segments.last().expect("segments never empty");
            if self.seg_ticks == u128::MAX {
                return;
            }
            let end_as = last.start_as + self.seg_ticks * last.period_as;
            if t_as < end_as {
                return;
            }
            let rho = self.draw_rho(end_as) + self.excursion_ppm(end_as);
            self.segments.push(Segment {
                start_tick: last.start_tick + self.seg_ticks,
                start_as: end_as,
                period_as: period_for(self.nominal_hz, rho),
                rho_ppm: rho,
            });
        }
    }

    fn segment_for_tick(&mut self, n: u128) -> Segment {
        self.extend_to_tick(n);
        let idx = self
            .segments
            .partition_point(|s| s.start_tick <= n)
            .checked_sub(1)
            .expect("tick before first segment");
        self.segments[idx]
    }

    fn segment_for_time(&mut self, t_as: u128) -> Segment {
        self.extend_to_time(t_as);
        let idx = self.segments.partition_point(|s| s.start_as <= t_as);
        self.segments[idx.saturating_sub(1)]
    }

    /// The real time of tick `n`.
    pub fn time_of_tick(&mut self, n: u128) -> SimTime {
        let seg = self.segment_for_tick(n);
        let t_as = seg.start_as + (n - seg.start_tick) * seg.period_as;
        SimTime::from_fs(t_as / AS_PER_FS)
    }

    /// Number of ticks that have occurred at or before `t` (i.e. the highest
    /// tick index whose time is ≤ `t`, plus one). Returns 0 before tick 0.
    pub fn ticks_at(&mut self, t: SimTime) -> u128 {
        let t_as = t.as_fs() * AS_PER_FS + (AS_PER_FS - 1); // include ticks within the same fs
        let first = self.segments[0];
        if t_as < first.start_as {
            return 0;
        }
        let seg = self.segment_for_time(t_as);
        let n = seg.start_tick + (t_as - seg.start_as) / seg.period_as;
        n + 1
    }

    /// The index and time of the first tick occurring strictly after `t`.
    pub fn next_tick_after(&mut self, t: SimTime) -> (u128, SimTime) {
        let n = self.ticks_at(t);
        (n, self.time_of_tick(n))
    }

    /// Instantaneous drift in ppm at time `t` (instrumentation).
    pub fn rho_ppm_at(&mut self, t: SimTime) -> f64 {
        let t_as = t.as_fs() * AS_PER_FS;
        let first = self.segments[0];
        if t_as < first.start_as {
            return first.rho_ppm;
        }
        self.segment_for_time(t_as).rho_ppm
    }
}

/// The oscillator period in attoseconds for a drift of `rho_ppm`.
fn period_for(nominal_hz: u64, rho_ppm: f64) -> u128 {
    let f = nominal_hz as f64 * (1.0 + rho_ppm * 1e-6);
    let period = AS_PER_SEC as f64 / f;
    let p = period.round() as u128;
    p.max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn perfect_10mhz() -> Oscillator {
        Oscillator::new(
            10_000_000,
            DriftModel::perfect(),
            SimRng::new(1),
            SimTime::ZERO,
        )
    }

    #[test]
    fn perfect_oscillator_tick_times() {
        let mut o = perfect_10mhz();
        assert_eq!(o.time_of_tick(0), SimTime::ZERO);
        assert_eq!(o.time_of_tick(1), SimTime::from_nanos(100));
        assert_eq!(o.time_of_tick(10_000_000), SimTime::from_secs(1));
    }

    #[test]
    fn ticks_at_counts_inclusively() {
        let mut o = perfect_10mhz();
        assert_eq!(o.ticks_at(SimTime::ZERO), 1); // tick 0 at t=0 has occurred
        assert_eq!(o.ticks_at(SimTime::from_nanos(99)), 1);
        assert_eq!(o.ticks_at(SimTime::from_nanos(100)), 2);
        assert_eq!(o.ticks_at(SimTime::from_secs(1)), 10_000_001);
    }

    #[test]
    fn start_offset_shifts_phase() {
        let mut o = Oscillator::new(
            10_000_000,
            DriftModel::perfect(),
            SimRng::new(1),
            SimTime::from_nanos(37),
        );
        assert_eq!(o.time_of_tick(0), SimTime::from_nanos(37));
        assert_eq!(o.ticks_at(SimTime::from_nanos(36)), 0);
        assert_eq!(o.ticks_at(SimTime::from_nanos(37)), 1);
    }

    #[test]
    fn constant_drift_changes_rate() {
        // +100 ppm fast: after 1 nominal second, 10_001_000 ticks have passed
        // (to within rounding of the attosecond period).
        let mut o = Oscillator::new(
            10_000_000,
            DriftModel::Constant { rho_ppm: 100.0 },
            SimRng::new(1),
            SimTime::ZERO,
        );
        let n = o.ticks_at(SimTime::from_secs(1));
        assert!((10_000_990..=10_001_010).contains(&n), "n={n}");
    }

    #[test]
    fn tick_time_inversion_roundtrip() {
        let mut o = Oscillator::new(
            16_000_000,
            DriftModel::RandomWalk {
                rho_max_ppm: 10.0,
                step_sigma_ppb: 50.0,
                step_interval: SimDuration::from_millis(100),
                initial_ppm: 2.0,
            },
            SimRng::new(77),
            SimTime::from_nanos(13),
        );
        for n in [0u128, 1, 999, 1_000_000, 123_456_789] {
            let t = o.time_of_tick(n);
            // The tick at time t must be counted by ticks_at(t).
            assert_eq!(o.ticks_at(t), n + 1, "n={n}");
        }
    }

    #[test]
    fn random_walk_respects_bound() {
        let mut o = Oscillator::new(
            10_000_000,
            DriftModel::RandomWalk {
                rho_max_ppm: 5.0,
                step_sigma_ppb: 2000.0,
                step_interval: SimDuration::from_millis(10),
                initial_ppm: 0.0,
            },
            SimRng::new(5),
            SimTime::ZERO,
        );
        for k in 0..1000 {
            let rho = o.rho_ppm_at(SimTime::from_millis(k * 10));
            assert!(rho.abs() <= 5.0 + 1e-12, "rho={rho}");
        }
        assert_eq!(o.rho_bound_ppm(), 5.0);
    }

    #[test]
    fn temperature_model_oscillates() {
        let mut o = Oscillator::new(
            10_000_000,
            DriftModel::Temperature {
                mean_ppm: 1.0,
                amp_ppm: 0.5,
                period: SimDuration::from_secs(100),
                phase: 0.0,
                step_interval: SimDuration::from_secs(1),
            },
            SimRng::new(5),
            SimTime::ZERO,
        );
        let quarter = o.rho_ppm_at(SimTime::from_secs(25));
        let three_quarter = o.rho_ppm_at(SimTime::from_secs(75));
        assert!(quarter > 1.2, "rho(T/4)={quarter}");
        assert!(three_quarter < 0.8, "rho(3T/4)={three_quarter}");
        assert!((o.rho_bound_ppm() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn next_tick_after_is_strictly_later() {
        let mut o = perfect_10mhz();
        let (n, t) = o.next_tick_after(SimTime::from_nanos(100));
        assert_eq!(n, 2);
        assert_eq!(t, SimTime::from_nanos(200));
        let (n0, t0) = o.next_tick_after(SimTime::from_nanos(50));
        assert_eq!(n0, 1);
        assert_eq!(t0, SimTime::from_nanos(100));
    }

    #[test]
    fn excursion_overlays_constant_model_within_window() {
        let mut o = Oscillator::new(
            10_000_000,
            DriftModel::Constant { rho_ppm: 2.0 },
            SimRng::new(1),
            SimTime::ZERO,
        );
        o.set_excursions(&[DriftExcursion {
            from: SimTime::from_secs(1),
            until: SimTime::from_secs(2),
            extra_ppm: 50.0,
        }]);
        assert!((o.rho_ppm_at(SimTime::from_millis(500)) - 2.0).abs() < 1e-9);
        assert!((o.rho_ppm_at(SimTime::from_millis(1500)) - 52.0).abs() < 1e-9);
        assert!((o.rho_ppm_at(SimTime::from_millis(2500)) - 2.0).abs() < 1e-9);
        // Over the excursion second the clock gains ~50 µs worth of ticks:
        // the overlay must change actual tick pacing, not just rho_ppm_at.
        let n3 = o.ticks_at(SimTime::from_secs(3));
        let expect = 30_000_000.0 * (1.0 + 2.0e-6) + 10_000_000.0 * 50.0e-6;
        assert!(
            (n3 as f64 - expect).abs() < 50.0,
            "n3={n3}, expect~{expect}"
        );
    }

    #[test]
    fn empty_excursions_leave_oscillator_identical() {
        let mk = || {
            Oscillator::new(
                10_000_000,
                DriftModel::RandomWalk {
                    rho_max_ppm: 10.0,
                    step_sigma_ppb: 100.0,
                    step_interval: SimDuration::from_millis(10),
                    initial_ppm: 0.0,
                },
                SimRng::new(42),
                SimTime::ZERO,
            )
        };
        let mut a = mk();
        let mut b = mk();
        b.set_excursions(&[]);
        for k in 0..200u128 {
            assert_eq!(a.time_of_tick(k * 12_345), b.time_of_tick(k * 12_345));
        }
    }

    #[test]
    fn excursions_do_not_perturb_walk_draw_sequence() {
        // Outside the excursion window, tick times must match an oscillator
        // without the overlay: the overlay is applied after the RNG draw.
        let mk = || {
            Oscillator::new(
                10_000_000,
                DriftModel::RandomWalk {
                    rho_max_ppm: 10.0,
                    step_sigma_ppb: 100.0,
                    step_interval: SimDuration::from_millis(10),
                    initial_ppm: 0.0,
                },
                SimRng::new(7),
                SimTime::ZERO,
            )
        };
        let mut plain = mk();
        let mut faulty = mk();
        faulty.set_excursions(&[DriftExcursion {
            from: SimTime::from_secs(10),
            until: SimTime::from_secs(11),
            extra_ppm: 5.0,
        }]);
        // All segments before the window carry identical rho.
        for ms in (0..9_000u64).step_by(400) {
            let t = SimTime::from_millis(ms);
            assert_eq!(
                plain.rho_ppm_at(t).to_bits(),
                faulty.rho_ppm_at(t).to_bits(),
                "ms={ms}"
            );
        }
    }

    #[test]
    fn drift_segments_are_monotone() {
        let mut o = Oscillator::new(
            10_000_000,
            DriftModel::RandomWalk {
                rho_max_ppm: 20.0,
                step_sigma_ppb: 500.0,
                step_interval: SimDuration::from_millis(1),
                initial_ppm: 0.0,
            },
            SimRng::new(123),
            SimTime::ZERO,
        );
        // Force many segments and check monotonicity of tick times.
        let mut prev = o.time_of_tick(0);
        for n in 1..50_000u128 {
            let t = o.time_of_tick(n * 100);
            assert!(t > prev);
            prev = t;
        }
    }
}
