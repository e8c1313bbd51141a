//! The serving scenario: a simulated ensemble publishing into a
//! `StatusCell` from its own thread, one `nti-serve` shard answering from
//! it with admission on, and the benchmark's clients offering load.

use crate::client::{self, Tally};
use crate::probe;
use crate::spans::Spans;
use nti_core::cluster::{Cluster, ClusterConfig};
use nti_core::status::StatusCell;
use nti_obs::SimObserver;
use nti_serve::admission::AdmissionConfig;
use nti_serve::clock::ClockHandle;
use nti_serve::server::{RunningServer, Server, ServerConfig, StatsSnapshot};
use nti_serve::TelemetryConfig;
use nti_simcore::{SimDuration, SimTime};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering::Relaxed};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// What the ensemble thread reports when stopped.
#[derive(Debug, Default)]
pub struct EnsembleOutcome {
    /// Frames published into the cell.
    pub publishes: u64,
    /// Wall time of each chunk (`advance_until` of one snapshot period).
    pub chunk_s: Vec<f64>,
    /// Containment violations / checks so far.
    pub containment: (u64, u64),
    /// Wall span the thread ran.
    pub elapsed: Duration,
}

/// How much faster than real time the serving ensemble runs: one
/// snapshot-period chunk (one published frame) every `chunk / SPEEDUP`
/// of wall time.
pub const SPEEDUP: u32 = 20;

/// Simulated seconds the serving ensemble is configured for. Runs of
/// this benchmark stay far below it at [`SPEEDUP`] (and below the
/// ~3,000 sim-s at which the 8-node LAN loses containment; see the
/// README's known-bad shapes).
pub const ENSEMBLE_SECS: u64 = 2_000;

/// The running ensemble: a thread advancing the cluster one snapshot
/// period per chunk (each chunk publishes one frame), paced at
/// [`SPEEDUP`] times real time, until stopped or out of simulated time.
pub struct Ensemble {
    stop: Arc<AtomicBool>,
    thread: JoinHandle<EnsembleOutcome>,
    /// The cell the ensemble publishes into.
    pub cell: Arc<StatusCell>,
}

impl Ensemble {
    /// Start simulating `cfg` for [`ENSEMBLE_SECS`] (the warm-up stays
    /// as configured).
    pub fn start(mut cfg: ClusterConfig) -> Ensemble {
        let cell = Arc::new(StatusCell::new(cfg.topology.node_count()));
        cfg.status_cell = Some(Arc::clone(&cell));
        cfg.duration = SimDuration::from_secs(ENSEMBLE_SECS);
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let thread = std::thread::Builder::new()
            .name("perf-sim".into())
            .spawn(move || {
                let started = Instant::now();
                let chunk = cfg.snapshot_every;
                let pace = Duration::from_nanos((chunk.as_fs() / 1_000_000) as u64) / SPEEDUP;
                let end = SimTime::ZERO + cfg.duration;
                let mut cluster = Cluster::new(cfg);
                let mut t = SimTime::ZERO;
                let mut chunk_s = Vec::new();
                let mut due = Instant::now();
                while !flag.load(Relaxed) {
                    if t < end {
                        t += chunk;
                        let c0 = Instant::now();
                        cluster.advance_until(t);
                        chunk_s.push(c0.elapsed().as_secs_f64());
                    }
                    due += pace;
                    // Sleep in short slices so a stop is seen promptly.
                    while !flag.load(Relaxed) && Instant::now() < due {
                        let left = due.saturating_duration_since(Instant::now());
                        std::thread::sleep(left.min(Duration::from_millis(5)));
                    }
                }
                let publishes = cluster.status().publishes;
                let m = &cluster.world().metrics;
                EnsembleOutcome {
                    publishes,
                    chunk_s,
                    containment: (m.containment_violations, m.containment_checks),
                    elapsed: started.elapsed(),
                }
            })
            .expect("spawn ensemble thread");
        Ensemble { stop, thread, cell }
    }

    /// Block until the first frame is published (or the thread died,
    /// which [`Ensemble::stop`] then reports).
    pub fn wait_first_frame(&self) {
        while self.cell.generation() == 0 && !self.thread.is_finished() {
            std::thread::yield_now();
        }
    }

    /// Stop and join the thread.
    pub fn stop(self) -> EnsembleOutcome {
        self.stop.store(true, Relaxed);
        self.thread.join().expect("ensemble thread panicked")
    }
}

/// One shard, admission on with a per-client budget far above any rate
/// the clients offer, telemetry as given.
fn server_config(telemetry: TelemetryConfig) -> ServerConfig {
    ServerConfig {
        shards: 1,
        admission: Some(AdmissionConfig {
            rate_per_sec: 10_000_000,
            burst: 10_000_000,
            ..AdmissionConfig::default()
        }),
        telemetry,
        ..ServerConfig::default()
    }
}

/// Bind and start a server over node 0 of `cell`.
pub fn start_server(
    cell: &Arc<StatusCell>,
    telemetry: TelemetryConfig,
    spans: &mut Spans,
    parent: Option<usize>,
) -> std::io::Result<(RunningServer, SocketAddr)> {
    let handle = ClockHandle::new(Arc::clone(cell), 0);
    let server = spans.time("Server::bind", parent, || {
        Server::bind(&server_config(telemetry), handle)
    })?;
    let addr = server.local_addrs()[0];
    let running = spans.time("Server::start", parent, || server.start());
    Ok((running, addr))
}

/// Telemetry on, recording into `obs`, with the stages of one datagram
/// in `sample_every` timed.
pub fn telemetry_on(obs: &SimObserver, sample_every: u32) -> TelemetryConfig {
    TelemetryConfig {
        obs: obs.clone(),
        sample_every,
        ..TelemetryConfig::default()
    }
}

/// The load phases of one serving run. Each round runs every phase for
/// its share (total ÷ rounds), so slow drift in the machine's background
/// load is spread over all phases instead of landing on one.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    /// Rounds the phases are interleaved over.
    pub rounds: u32,
    /// Open-loop light rate (queries/s) and total phase length.
    pub light: (f64, Duration),
    /// Open-loop heavy rate (queries/s) and total phase length.
    pub heavy: (f64, Duration),
    /// Total closed-loop phase length (one client).
    pub closed: Duration,
    /// Total closed-loop phase length against a second server with the
    /// telemetry plane on (zero skips it).
    pub closed_obs: Duration,
}

/// Everything one serving run measured, each phase merged over rounds.
#[derive(Debug, Default)]
pub struct ServeRun {
    /// Open loop at the light rate.
    pub light: Tally,
    /// Open loop at the heavy rate.
    pub heavy: Tally,
    /// Closed loop, one client.
    pub closed: Tally,
    /// Closed loop, one client, telemetry plane on.
    pub closed_obs: Tally,
    /// The ensemble thread's outcome.
    pub ensemble: EnsembleOutcome,
    /// Server-side counters, summed over every server started.
    pub server: ServerTotals,
    /// CPU ns of the shard over the phases against the first server.
    pub shard_cpu_ns: u64,
    /// CPU ns of the ensemble thread over the same phases.
    pub sim_cpu_ns: u64,
}

/// The servers' own view of a run, from their `StatsSnapshot`s.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServerTotals {
    /// Client-mode queries accepted.
    pub queries: u64,
    /// Responses sent.
    pub responses: u64,
    /// Queries refused or dropped (KoD of any kind, admission drops) or
    /// datagrams rejected (malformed, foreign) or responses not sent.
    pub refused: u64,
}

impl ServerTotals {
    fn add(&mut self, s: StatsSnapshot) {
        self.queries += s.queries;
        self.responses += s.responses;
        self.refused += s.kod + s.dropped + s.malformed + s.ignored + s.send_errors;
    }
}

impl ServeRun {
    /// Every client phase, in order.
    pub fn phases(&self) -> [&Tally; 4] {
        [&self.light, &self.heavy, &self.closed, &self.closed_obs]
    }
}

/// Run one client phase on its own named thread, as a span.
fn phase(
    name: &'static str,
    spans: &mut Spans,
    parent: Option<usize>,
    f: impl FnOnce() -> std::io::Result<Tally> + Send,
) -> std::io::Result<Tally> {
    spans.time(name, parent, || {
        std::thread::scope(|s| {
            std::thread::Builder::new()
                .name("perf-gen".into())
                .spawn_scoped(s, f)
                .expect("spawn client thread")
                .join()
                .expect("client thread panicked")
        })
    })
}

/// Run `plan` against a fresh ensemble of `cfg`. Each round starts a
/// server with `telemetry` for the open-loop and closed-loop phases, then
/// a second server with the telemetry plane on (recording into `obs`)
/// for the last closed-loop phase.
pub fn run(
    cfg: ClusterConfig,
    plan: Plan,
    telemetry: TelemetryConfig,
    obs: &SimObserver,
    salt: u64,
    spans: &mut Spans,
    parent: Option<usize>,
) -> std::io::Result<ServeRun> {
    let ensemble = Ensemble::start(cfg);
    ensemble.wait_first_frame();
    let mut out = ServeRun::default();
    let mut result = Ok(());
    for round in 0..plan.rounds {
        let salt = salt ^ (u64::from(round) << 32);
        result = one_round(
            &ensemble, &plan, &telemetry, obs, salt, spans, parent, &mut out,
        );
        if result.is_err() {
            break;
        }
    }
    out.ensemble = ensemble.stop();
    result.map(|()| out)
}

#[allow(clippy::too_many_arguments)]
fn one_round(
    ensemble: &Ensemble,
    plan: &Plan,
    telemetry: &TelemetryConfig,
    obs: &SimObserver,
    salt: u64,
    spans: &mut Spans,
    parent: Option<usize>,
    out: &mut ServeRun,
) -> std::io::Result<()> {
    let share = |d: Duration| d / plan.rounds;
    let grace = Duration::from_millis(300);
    let (server, addr) = start_server(&ensemble.cell, telemetry.clone(), spans, parent)?;
    let cpu0 = probe::thread_cpu_ns();
    let light = phase("open_loop.light", spans, parent, || {
        let (rate, d) = plan.light;
        client::open_loop(addr, rate, share(d), salt, Instant::now(), grace)
    });
    let heavy = phase("open_loop.heavy", spans, parent, || {
        let (rate, d) = plan.heavy;
        client::open_loop(addr, rate, share(d), salt ^ 1, Instant::now(), grace)
    });
    let closed = phase("closed_loop", spans, parent, || {
        client::closed_loop(addr, share(plan.closed), salt ^ 2, grace)
    });
    let cpu1 = probe::thread_cpu_ns();
    out.server
        .add(spans.time("RunningServer::stop", parent, || server.stop()));
    out.light.merge(light?);
    out.heavy.merge(heavy?);
    out.closed.merge(closed?);
    out.shard_cpu_ns += probe::cpu_delta(&cpu0, &cpu1, "nti-serve");
    out.sim_cpu_ns += probe::cpu_delta(&cpu0, &cpu1, "perf-sim");
    if !plan.closed_obs.is_zero() {
        let (server, addr) = start_server(&ensemble.cell, telemetry_on(obs, 32), spans, parent)?;
        let t = phase("closed_loop.telemetry", spans, parent, || {
            client::closed_loop(addr, share(plan.closed_obs), salt ^ 3, grace)
        });
        out.server
            .add(spans.time("RunningServer::stop", parent, || server.stop()));
        out.closed_obs.merge(t?);
    }
    Ok(())
}

/// Wall time to bring serving up from nothing: build the ensemble, wait
/// for its first frame, bind and start the server (then tear it down,
/// untimed).
pub fn setup_time(cfg: &ClusterConfig) -> std::io::Result<f64> {
    let mut spans = Spans::default();
    let t0 = Instant::now();
    let ensemble = Ensemble::start(cfg.clone());
    ensemble.wait_first_frame();
    let started = start_server(&ensemble.cell, TelemetryConfig::default(), &mut spans, None);
    let d = t0.elapsed().as_secs_f64();
    let stopped = started.map(|(server, _)| {
        server.stop();
        d
    });
    ensemble.stop();
    stopped
}
