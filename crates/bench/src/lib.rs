#![warn(missing_docs)]

//! Shared harness utilities for the NTI reproduction experiments.
//!
//! Each experiment from DESIGN.md §6 is a binary in `src/bin/` printing the
//! table/series the corresponding paper claim describes:
//!
//! | binary | reproduces |
//! |--------|------------|
//! | `e1_epsilon` | §4: "transmission/reception time uncertainty ε well below 1 µs" |
//! | `e2_granularity` | §5: worst-case precision impairment `4G + 10u` |
//! | `e3_fosc_crossover` | §5: `G = u < 70 ns (f_osc > 14 MHz)` for < 1 µs |
//! | `e4_rate_sync` | §2: rate synchronization reduces the maximum drift |
//! | `e5_gps_validation` | §2/§5: clock validation vs the HS97 fault catalogue |
//! | `e6_class_table` | §1/§5: synchronization tightness by approach class |
//! | `e7_adder_clock` | §3.3/§5: adder-based vs counter-based clock |
//! | `e8_lower_bound` | §3.1: the \[LL84\] bound ε(1 − 1/n) |
//! | `e9_sixteen_nodes` | §4: the 16-node prototype system |
//! | `e10_wan_of_lans` | §1 fn.2: WANs-of-LANs with NTI gateways |
//! | `e11_rtt_measurement` | §2: dynamically measured round-trip delay bounds |
//! | `e12_ntp_wan` | §1: the class-III baseline, NTP over long-haul paths |
//! | `e13_aposteriori` | §5: a-posteriori agreement (CesiumSpray) baseline |
//! | `e14_header_base` | §3.4 fn.4: why the Receive Header Base register exists |
//! | `e15_convergence_functions` | §2/§5: OA vs Marzullo vs FTM convergence functions |
//! | `e16_chaos` | §2 robustness: fault intensity × type matrix over the `nti-faults` taxonomy (`--smoke` = CI gate) |
//! | `e18_churn` | membership churn × congestion × mesh depth (`--smoke` = CI gate) |
//! | `e19_serve` | serving real NTPv4 traffic from the ensemble (`--smoke`, `--telemetry-gate` = CI gates) |
//! | `e20_abuse` | serve goodput under fuzz, flood and a stalled sim (`--smoke` = CI gate) |
//! | `nti_analyze` | offline span-forest and invariant-violation report over exported traces (`--smoke` = CI gate) |
//!
//! Set `NTI_EXP_FAST=1` to shrink the simulated durations (CI smoke runs).
//! Simulator and server performance is measured by `perfbench/`, not here.

use nti_core::cluster::{ClusterConfig, Report, HOP_HIST_NAMES, SPAN_HOPS};
use nti_obs::{Json, MetricKey, SimObserver, Subsystem};
use nti_simcore::SimDuration;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::sync::{Mutex, OnceLock};

pub mod obs_cli;

/// Serializes result-record appends across sweep threads.
static RECORD_LOCK: Mutex<()> = Mutex::new(());

/// Whether fast (CI) mode is requested.
pub fn fast_mode() -> bool {
    std::env::var("NTI_EXP_FAST").is_ok_and(|v| v != "0" && !v.is_empty())
}

/// Pick a duration: `normal` seconds, or `fast` seconds under fast mode.
pub fn secs(normal: u64, fast: u64) -> SimDuration {
    SimDuration::from_secs(if fast_mode() { fast } else { normal })
}

/// Apply the standard experiment duration/warmup split to a config.
pub fn with_duration(mut cfg: ClusterConfig, duration: SimDuration) -> ClusterConfig {
    cfg.duration = duration;
    cfg.warmup = SimDuration::from_fs(duration.as_fs() / 3);
    cfg
}

/// Format seconds as an adaptive engineering string.
pub fn eng(seconds: f64) -> String {
    let a = seconds.abs();
    if a == 0.0 {
        "0".into()
    } else if a >= 1.0 {
        format!("{seconds:.3} s")
    } else if a >= 1e-3 {
        format!("{:.3} ms", seconds * 1e3)
    } else if a >= 1e-6 {
        format!("{:.3} us", seconds * 1e6)
    } else {
        format!("{:.1} ns", seconds * 1e9)
    }
}

/// Print a horizontal rule sized to a header line.
pub fn rule(header: &str) {
    println!("{}", "-".repeat(header.len()));
}

/// Print a table header + rule.
pub fn header(h: &str) {
    println!("{h}");
    rule(h);
}

/// The shared machine-readable output directory,
/// `$CARGO_TARGET_DIR/experiments` (defaulting to `target/experiments`).
pub fn experiments_dir() -> PathBuf {
    PathBuf::from(std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into()))
        .join("experiments")
}

/// Append one record to a `BENCH_*.json` trajectory file in
/// [`experiments_dir`] (JSON Lines: each run accretes one line, so a file
/// read top-to-bottom is the metric's history across runs). The row holds
/// the fields of `value` (an object; anything else is kept under `value`)
/// and where it came from: `commit` (the checkout's
/// `git rev-parse --short=12 HEAD`, `null` outside a git checkout),
/// `available_parallelism`, `fast_mode`, and `obs`, the observability the
/// measured runs had on (e.g. [`obs_mode`]).
pub fn append_bench(file: &str, obs: &str, value: &Json) {
    let dir = experiments_dir();
    if std::fs::create_dir_all(&dir).is_err() {
        return; // best-effort, like `record`
    }
    let row = bench_row(value, obs);
    use std::io::Write;
    let _guard = RECORD_LOCK.lock().expect("record lock poisoned");
    if let Ok(mut f) = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(dir.join(file))
    {
        let _ = writeln!(f, "{row}");
    }
}

/// The row [`append_bench`] writes for `value`.
fn bench_row(value: &Json, obs: &str) -> Json {
    static COMMIT: OnceLock<Option<String>> = OnceLock::new();
    let commit = COMMIT.get_or_init(|| {
        Command::new("git")
            .args(["rev-parse", "--short=12", "HEAD"])
            .stderr(Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    });
    let mut row = match value {
        Json::Obj(fields) => fields.clone(),
        other => BTreeMap::from([("value".to_string(), other.clone())]),
    };
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    row.insert(
        "commit".into(),
        commit.as_deref().map_or(Json::Null, Json::str),
    );
    row.insert("available_parallelism".into(), Json::num(cores as f64));
    row.insert("fast_mode".into(), Json::Bool(fast_mode()));
    row.insert("obs".into(), Json::str(obs));
    Json::Obj(row)
}

/// The observability `obs` records: `off`, `metrics`, or `metrics+trace`
/// when any subsystem is traced.
pub fn obs_mode(obs: &SimObserver) -> &'static str {
    if !obs.is_enabled() {
        "off"
    } else if Subsystem::ALL.iter().any(|&s| obs.tracing(s)) {
        "metrics+trace"
    } else {
        "metrics"
    }
}

/// The per-hop p99 latencies (nanoseconds) accumulated in an enabled
/// observer's `span/hop_*_ns` histogram family, keyed by hop kind.
/// `Json::Null` when the observer is disabled (nothing was recorded).
pub fn hop_p99_json(obs: &SimObserver) -> Json {
    if !obs.is_enabled() {
        return Json::Null;
    }
    Json::obj(SPAN_HOPS.iter().zip(HOP_HIST_NAMES).filter_map(|(&k, nm)| {
        let h = obs.hist(MetricKey::global("span", nm))?;
        (h.count() > 0).then(|| (k, Json::num(h.quantile(0.99) as f64)))
    }))
}

/// Append one line of the `BENCH_precision.json` trajectory: the achieved
/// precision π and worst-case accuracy α of a run, the stamp-pair
/// uncertainty ε, and the per-hop p99 latency decomposition (when the run
/// was observed). `nti_analyze` appends to the same file, so the
/// trajectory interleaves live runs with offline trace analyses.
pub fn record_precision(experiment: &str, label: &str, rep: &Report, obs: &SimObserver) {
    append_bench(
        "BENCH_precision.json",
        obs_mode(obs),
        &Json::obj([
            ("experiment", Json::str(experiment)),
            ("label", Json::str(label)),
            ("precision_worst_s", Json::num(rep.worst_precision_s)),
            ("precision_mean_s", Json::num(rep.mean_precision_s)),
            ("alpha_worst_s", Json::num(rep.worst_accuracy_s)),
            ("eps_spread_s", Json::num(rep.eps_spread_s)),
            (
                "monitor_violations",
                Json::num(rep.monitor_violations as f64),
            ),
            ("hop_p99_ns", hop_p99_json(obs)),
        ]),
    );
}

/// Append a JSON result record under `target/experiments/<experiment>.jsonl`
/// so runs are machine-readable alongside the printed tables. `label`
/// distinguishes rows within one experiment (e.g. the sweep point).
pub fn record(experiment: &str, label: &str, value: &Json) {
    let dir = experiments_dir();
    if std::fs::create_dir_all(&dir).is_err() {
        return; // recording is best-effort; the printed table is canonical
    }
    let path = dir.join(format!("{experiment}.jsonl"));
    let line = Json::obj([
        ("experiment", Json::str(experiment)),
        ("label", Json::str(label)),
        ("fast_mode", Json::Bool(fast_mode())),
        ("result", value.clone()),
    ]);
    use std::io::Write;
    let _guard = RECORD_LOCK.lock().expect("record lock poisoned");
    if let Ok(mut f) = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
    {
        let _ = writeln!(f, "{line}");
    }
}

/// Iterate the `(metric-with-labels, value)` samples of one metric
/// family in a Prometheus text exposition body, matching on the base
/// name (labels, if any, are ignored).
fn prom_samples<'a>(text: &'a str, name: &'a str) -> impl Iterator<Item = f64> + 'a {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(move |l| {
            let (metric, val) = l.rsplit_once(' ')?;
            let base = metric.split('{').next().unwrap_or(metric);
            if base == name {
                val.parse::<f64>().ok()
            } else {
                None
            }
        })
}

/// Sum every sample of Prometheus metric `name` (any label set) in an
/// exposition body — e.g. per-shard counters folded into one total.
pub fn prom_sum(text: &str, name: &str) -> f64 {
    prom_samples(text, name).sum()
}

/// Whether at least one sample of metric `name` appears in the body.
pub fn prom_present(text: &str, name: &str) -> bool {
    prom_samples(text, name).next().is_some()
}

/// The sweep worker cap: `NTI_SWEEP_THREADS` if set to a positive integer,
/// otherwise [`std::thread::available_parallelism`].
pub fn sweep_threads() -> usize {
    std::env::var("NTI_SWEEP_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
}

/// Run a parameter sweep in parallel on a bounded worker pool and return
/// the results in input order.
///
/// At most [`sweep_threads`] workers run concurrently (the old
/// implementation spawned one OS thread per point, which oversubscribed
/// small CI machines on e16's fault-type × intensity grid). Workers pull
/// the next unclaimed index from a shared counter, so results land in
/// their input slots regardless of completion order. Each cluster is
/// constructed inside its own worker, so nothing non-`Send` crosses a
/// thread boundary.
pub fn parallel_sweep<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    parallel_sweep_with_cap(items, f, sweep_threads())
}

/// [`parallel_sweep`] with an explicit worker cap (testable without
/// touching the process environment).
pub fn parallel_sweep_with_cap<T, R, F>(items: Vec<T>, f: F, cap: usize) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    use std::sync::atomic::{AtomicUsize, Ordering};
    let n = items.len();
    let workers = cap.max(1).min(n);
    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|it| Mutex::new(Some(it))).collect();
    let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        let (f, slots, results, next) = (&f, &slots, &results, &next);
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(move || loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        return;
                    }
                    let item = slots[i]
                        .lock()
                        .expect("sweep slot")
                        .take()
                        .expect("taken once");
                    let r = f(item);
                    *results[i].lock().expect("sweep result") = Some(r);
                })
            })
            .collect();
        for h in handles {
            h.join().expect("sweep thread panicked");
        }
    });
    results
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("sweep result")
                .expect("worker filled slot")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_rows_carry_provenance() {
        let row = bench_row(&Json::obj([("qps", Json::num(5.0))]), "metrics");
        let Json::Obj(m) = &row else {
            panic!("row is an object: {row}");
        };
        assert_eq!(m["qps"], Json::num(5.0));
        assert_eq!(m["obs"], Json::str("metrics"));
        assert_eq!(m["fast_mode"], Json::Bool(fast_mode()));
        let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
        assert_eq!(m["available_parallelism"], Json::num(cores as f64));
        match &m["commit"] {
            Json::Null => {}
            Json::Str(c) => assert!(
                c.len() == 12 && c.chars().all(|ch| ch.is_ascii_hexdigit()),
                "commit {c:?}"
            ),
            other => panic!("commit {other}"),
        }
        // A non-object value is kept under `value`.
        let Json::Obj(m) = bench_row(&Json::num(1.0), "off") else {
            panic!("row is an object");
        };
        assert_eq!(
            (&m["value"], &m["obs"]),
            (&Json::num(1.0), &Json::str("off"))
        );
    }

    #[test]
    fn obs_mode_names_what_is_on() {
        assert_eq!(obs_mode(&SimObserver::disabled()), "off");
        assert_eq!(obs_mode(&SimObserver::enabled()), "metrics");
        let traced = SimObserver::with_trace(8, Subsystem::Utcsu.bit());
        assert_eq!(obs_mode(&traced), "metrics+trace");
    }

    #[test]
    fn prom_helpers_match_base_names_only() {
        let body = "# HELP nti_serve_queries total\n\
                    # TYPE nti_serve_queries counter\n\
                    nti_serve_queries 10\n\
                    nti_serve_queries_rate{node=\"0\"} 2.5\n\
                    nti_serve_queries_rate{node=\"1\"} 1.5\n";
        assert_eq!(prom_sum(body, "nti_serve_queries"), 10.0);
        assert_eq!(prom_sum(body, "nti_serve_queries_rate"), 4.0);
        assert_eq!(prom_sum(body, "nti_serve_querie"), 0.0);
        assert!(prom_present(body, "nti_serve_queries_rate"));
        assert!(!prom_present(body, "nti_serve_missing"));
    }

    #[test]
    fn eng_formats_ranges() {
        assert_eq!(eng(0.0), "0");
        assert_eq!(eng(2.5), "2.500 s");
        assert_eq!(eng(0.0025), "2.500 ms");
        assert_eq!(eng(2.5e-6), "2.500 us");
        assert_eq!(eng(2.5e-8), "25.0 ns");
    }

    #[test]
    fn with_duration_sets_warmup_third() {
        let cfg = with_duration(ClusterConfig::default_lan(2, 1), SimDuration::from_secs(30));
        assert_eq!(cfg.duration, SimDuration::from_secs(30));
        assert_eq!(cfg.warmup, SimDuration::from_secs(10));
    }

    #[test]
    fn sweep_preserves_input_order() {
        let out = parallel_sweep_with_cap((0..64).collect::<Vec<i64>>(), |x| x * x, 4);
        assert_eq!(out, (0..64).map(|x| x * x).collect::<Vec<_>>());
    }

    /// Regression (PR 5): a 64-item sweep must never hold more workers
    /// than the cap concurrently (the old implementation spawned 64
    /// threads at once).
    #[test]
    fn sweep_never_exceeds_worker_cap() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        const CAP: usize = 3;
        let current = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        let out = parallel_sweep_with_cap(
            (0..64usize).collect::<Vec<_>>(),
            |i| {
                let c = current.fetch_add(1, Ordering::SeqCst) + 1;
                peak.fetch_max(c, Ordering::SeqCst);
                // Hold the slot long enough that unbounded spawning would
                // overlap far more than CAP workers.
                std::thread::sleep(std::time::Duration::from_millis(2));
                current.fetch_sub(1, Ordering::SeqCst);
                i
            },
            CAP,
        );
        assert_eq!(out, (0..64).collect::<Vec<_>>());
        let p = peak.load(Ordering::SeqCst);
        assert!(p <= CAP, "peak concurrency {p} exceeded cap {CAP}");
        assert!(p >= 2, "pool should actually run workers in parallel");
    }

    #[test]
    fn sweep_handles_empty_and_single() {
        let empty: Vec<u32> = parallel_sweep_with_cap(Vec::<u32>::new(), |x| x, 8);
        assert!(empty.is_empty());
        assert_eq!(parallel_sweep_with_cap(vec![41u32], |x| x + 1, 8), vec![42]);
    }
}
