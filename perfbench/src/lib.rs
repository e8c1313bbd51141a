//! The repository benchmark. It measures the simulator and the NTP
//! front-end from outside: it drives each crate's public API, times the
//! calls it makes, replays each layer's hot function standalone, and
//! reads the counters the program already exports. Nothing is added to
//! the program itself. See `perfbench/README.md` for the workloads and
//! metrics.

pub mod client;
pub mod pace;
pub mod probe;
pub mod replay;
pub mod serve;
pub mod sim;
pub mod spans;
pub mod stats;
pub mod workload;
