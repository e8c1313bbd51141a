#![warn(missing_docs)]

//! Simulation substrate for the NTI reproduction.
//!
//! This crate provides everything below the hardware models:
//!
//! * [`time`] — the global simulation time axis ([`SimTime`], femtosecond
//!   resolution) and durations. In the reproduction the simulation time axis
//!   plays the role of UTC ("real time `t`" in the paper), so accuracy is
//!   measured against it directly.
//! * [`ntp`] — the UTCSU's NTP-style fixed-point time formats: the 91-bit
//!   internal representation (32 integer + 59 fractional bits), the 32-bit
//!   8.24 timestamp with ~60 ns granularity and 256 s wrap, and the
//!   checksummed macrostamp.
//! * [`engine`] — a deterministic discrete-event engine generic over the
//!   simulated world state.
//! * [`rng`] — a splittable, deterministic PRNG with the handful of
//!   distributions the hardware models need (uniform, normal, exponential).
//! * [`osc`] — quartz oscillator models (constant drift, bounded random walk,
//!   temperature-induced sinusoidal drift) with exact tick ↔ time mapping.
//! * [`stats`] — constant-memory running statistics (count, mean,
//!   standard deviation, min, max) for the experiment harness.

pub mod engine;
pub mod ntp;
pub mod osc;
pub mod rng;
pub mod stats;
pub mod time;

pub use engine::{Engine, EventId};
pub use ntp::{Accuracy, Macrostamp, NtpTime, Timestamp};
pub use osc::{DriftExcursion, DriftModel, Oscillator};
pub use rng::SimRng;
pub use stats::Summary;
pub use time::{SimDuration, SimTime};
