//! # nti-serve — an NTP front-end for the simulated ensemble
//!
//! The paper's NTI delivers high-accuracy time to the node that hosts
//! it; this crate puts that time on the network. It is the serving layer
//! over `nti-core`'s simulation: a real UDP server speaking real NTPv4
//! client/server-mode packets, answering from a chosen simulated node's
//! adder-based clock.
//!
//! The pieces, bottom-up:
//!
//! * [`packet`] — the RFC 5905 wire codec: 48-byte header, 16.16 short
//!   format for root delay/dispersion, era-safe 32.32 timestamps, and
//!   the exact truncations from the UTCSU's 32+59-bit clock format.
//! * [`clock`] — [`clock::ClockHandle`]: one seqlock read of the
//!   [`nti_core::status::StatusCell`] the cluster publishes every HWSNAP
//!   sweep, plus the health→stratum degradation table (Holdover widens
//!   root dispersion, Down answers kiss-o'-death `RATE`, an unpublished
//!   cell answers `INIT`).
//! * [`admission`] — per-client token-bucket policing over a bounded,
//!   keyed-hash (SipHash-1-3, seeded) LRU client table: the
//!   Admit → KoD `RATE` → silent-drop ladder that keeps hostile traffic
//!   from crowding out legitimate clients.
//! * [`server`] — per-core sharded non-blocking sockets (`SO_REUSEPORT`
//!   group on Linux, distinct-port fallback elsewhere) draining batches
//!   of datagrams; the per-query path is allocation-free.
//! * [`loadgen`] — a closed-loop load generator that validates every
//!   response, including the wire-level containment invariant
//!   `reference ∈ [transmit − rootdisp, transmit + rootdisp]`.
//! * [`telemetry`] — the live telemetry plane: sampled pipeline-stage
//!   timing into per-shard histograms, a windowed rates/quantiles view,
//!   a slow-request flight recorder, and a dependency-free Prometheus +
//!   JSON exposition endpoint.
//!
//! The simulation side never blocks on any of this: the cluster's
//! publisher is wait-free (straight-line atomic stores), and serving
//! threads only ever read the cell.

pub mod admission;
pub mod clock;
pub mod loadgen;
pub mod packet;
pub mod server;
pub mod telemetry;

pub use admission::{AdmissionConfig, ClientTable, Verdict};
pub use clock::{response_profile, ClockHandle, ResponseProfile};
pub use loadgen::{containment_holds, LoadGenConfig, LoadReport};
pub use packet::{NtpPacket, PacketError, PACKET_LEN};
pub use server::{classify, Ingress, RunningServer, Server, ServerConfig, Stats, StatsSnapshot};
pub use telemetry::{SlowRing, SlowTrace, TelemetryConfig, STAGES};
