//! Uniform observability command-line handling for experiment binaries.
//!
//! Every experiment accepts:
//!
//! * `--obs-summary` — print the metric summary table (counters, gauges
//!   and the `p50/p90/p99/p999/max` histogram quantile lines) after the
//!   run;
//! * `--trace-out <path>` — export the structured trace; a `.json`
//!   extension produces Chrome `trace_event` format (open in
//!   `chrome://tracing` or Perfetto), anything else JSONL;
//! * `--trace-subsystems <spec>` — comma-separated subsystem filter
//!   (`engine,net,kernel,utcsu,cluster,gps,app,faults,serve` or `all`;
//!   default `all` when `--trace-out` is given).

use nti_obs::{SimObserver, Subsystem};
use std::path::PathBuf;

/// Parsed observability options.
#[derive(Debug, Clone, Default)]
pub struct ObsOpts {
    /// Print the metric summary table after the run.
    pub summary: bool,
    /// Export the trace to this path (format chosen by extension).
    pub trace_out: Option<PathBuf>,
    /// Subsystem enable mask for tracing.
    pub trace_mask: u32,
}

impl ObsOpts {
    /// Parse `std::env::args()`, consuming the flags described in the
    /// module docs. Unknown arguments are ignored (experiments have no
    /// other flags today; anything unrecognized is reported to stderr).
    pub fn from_env() -> ObsOpts {
        let mut opts = ObsOpts {
            summary: false,
            trace_out: None,
            trace_mask: u32::MAX,
        };
        let mut args = std::env::args().skip(1);
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--obs-summary" => opts.summary = true,
                "--trace-out" => match args.next() {
                    Some(p) => opts.trace_out = Some(PathBuf::from(p)),
                    None => eprintln!("warning: --trace-out needs a path argument"),
                },
                "--trace-subsystems" => match args.next() {
                    Some(spec) => {
                        opts.trace_mask = Subsystem::mask_from_spec(&spec);
                        for part in spec.split(',').map(str::trim) {
                            let known = part.is_empty()
                                || part.eq_ignore_ascii_case("all")
                                || Subsystem::ALL
                                    .iter()
                                    .any(|s| part.eq_ignore_ascii_case(s.name()));
                            if !known {
                                eprintln!(
                                    "warning: unknown trace subsystem {part:?} (known: \
                                     engine,net,kernel,utcsu,cluster,gps,app,faults,serve,all)"
                                );
                            }
                        }
                    }
                    None => eprintln!("warning: --trace-subsystems needs a spec argument"),
                },
                // Experiment-owned mode flags (e16_chaos, nti_analyze,
                // e19/e20 telemetry, the e9 obs gate).
                "--smoke" | "--no-telemetry" | "--telemetry-gate" | "--obs-gate" => {}
                "--metrics-addr" => {
                    if args.next().is_none() {
                        eprintln!("warning: --metrics-addr needs an ip:port argument");
                    }
                }
                other => eprintln!("warning: ignoring unknown argument {other:?}"),
            }
        }
        opts
    }

    /// Build the observer these options ask for: disabled when neither
    /// flag was given, metrics-only for `--obs-summary`, metrics + trace
    /// ring when `--trace-out` is set.
    pub fn observer(&self) -> SimObserver {
        match (&self.trace_out, self.summary) {
            (Some(_), _) => {
                SimObserver::with_trace(nti_obs::observer::DEFAULT_TRACE_CAPACITY, self.trace_mask)
            }
            (None, true) => SimObserver::enabled(),
            (None, false) => SimObserver::disabled(),
        }
    }

    /// Post-run reporting: print the summary table and/or write the trace
    /// file, as requested.
    pub fn finish(&self, obs: &SimObserver) {
        if self.summary {
            println!();
            println!("== observability summary ==");
            print!("{}", obs.summary_table());
        }
        if let Some(path) = &self.trace_out {
            match obs.export_trace(path) {
                Ok(()) => {
                    let n = obs.events().len();
                    println!("trace: wrote {n} events to {}", path.display());
                }
                Err(e) => eprintln!("trace: failed to write {}: {e}", path.display()),
            }
        }
    }
}
