#![warn(missing_docs)]

//! **nti-core** — interval-based clock synchronization on the simulated
//! NTI/UTCSU hardware stack.
//!
//! This crate is the reproduction of the paper's algorithmic payload plus
//! the cluster assembly that wires every hardware substrate together:
//!
//! * [`interval`] — accuracy intervals `A(t) = [C−α⁻, C+α⁺]` with exact
//!   fixed-point arithmetic and the containment invariant `t ∈ A(t)`;
//! * [`convergence`] — Marzullo's function, the fault-tolerant midpoint,
//!   and the orthogonal-accuracy (OA) convergence function;
//! * [`algo`] — the generic round-based algorithm of \[SS97\]: CSP broadcast,
//!   delay + drift compensation, convergence, enforcement;
//! * [`rate`] — interval-based clock **rate** synchronization (\[Scho97\]);
//! * [`rtt`] — round-trip-based transmission-delay measurement;
//! * [`ntp_sync`] — an NTP-style client (the class-III baseline of §1);
//! * [`aposteriori`] — the CesiumSpray-style a-posteriori agreement
//!   baseline (\[VRC97\], §5);
//! * [`validate`](mod@validate) — clock validation of external (GPS) time sources;
//! * [`health`] — the per-node membership / holdover state machine
//!   (`Synchronized → Degraded → Holdover → Down → Reintegrating`);
//! * [`status`] — mid-run ensemble snapshots through a seqlock cell
//!   (wait-free for the simulation thread; the serving layer's read path);
//! * [`params`] — timestamping modes and statically derived delay bounds;
//! * [`payload`] — the CSP wire payload;
//! * [`node`] — one node (CPU + kernel + NTI + oscillator + COMCO + GPS);
//! * [`cluster`] — the runnable experiment: a discrete-event world
//!   reproducing the full CSP life cycle of Section 3.1 and measuring
//!   precision, accuracy, containment and ε.
//!
//! # Quick start
//!
//! ```
//! use nti_core::cluster::{Cluster, ClusterConfig};
//! use nti_simcore::SimDuration;
//!
//! let mut cfg = ClusterConfig::default_lan(4, 1);
//! cfg.rate_sync = true; // "inevitable" for the 1 µs target (Section 2)
//! cfg.duration = SimDuration::from_secs(20);
//! cfg.warmup = SimDuration::from_secs(10);
//! let report = Cluster::new(cfg).run();
//! assert!(report.worst_precision_s < 10e-6);
//! assert_eq!(report.containment.0, 0);
//! ```

pub mod algo;
pub mod aposteriori;
pub mod cluster;
pub mod convergence;
pub mod health;
pub mod interval;
pub mod node;
pub mod ntp_sync;
pub mod params;
pub mod payload;
pub mod rate;
pub mod rtt;
pub mod status;
pub mod validate;

pub use algo::{CongestionPolicy, Enforcement, Preprocessed, ReceivedCsp, SyncCore};
pub use aposteriori::{simulate_spray, SprayConfig, SprayReport};
pub use cluster::{BgLoad, Cluster, ClusterConfig, DriftSpec, GpsNodeCfg, Metrics, Report, World};
pub use convergence::{ftm, marzullo, oa};
pub use health::{HealthConfig, HealthState, HealthTracker, RoundAction, HEALTH_STATES};
pub use interval::AccInterval;
pub use node::Node;
pub use ntp_sync::NtpClient;
pub use params::{AlgoKind, SyncParams, TimestampMode};
pub use payload::CspPayload;
pub use rate::RateSync;
pub use rtt::RttEstimator;
pub use status::{ClusterStatus, NodeClock, NodeStatus, StatusCell};
pub use validate::{gps_observation, validate, ValidationStats};
