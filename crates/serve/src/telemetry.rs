//! The serve-side telemetry plane: hot-path stage timing, a windowed
//! live view, a slow-request flight recorder, and the exposition
//! endpoint that serves all of it.
//!
//! ## What gets measured
//!
//! Each shard times the pipeline stages of a **sampled** subset of its
//! datagrams — recv → classify → admission → clock lookup → encode →
//! send — on the monotonic clock, into per-shard HDR histograms
//! (`serve/stage_<s>_ns`, node = shard id). Sampling is a power-of-two
//! mask ([`TelemetryConfig::sample_every`]): a non-sampled datagram pays
//! one counter increment and one branch, which is how full-rate serving
//! stays inside the <2 % overhead budget (`e19_serve --telemetry-gate`
//! measures it).
//!
//! ## Counters
//!
//! The server's counters (see [`Stats`](crate::server::Stats)) live in
//! the observer's registry as `serve/<name>`, and the shards bump them
//! there; the plane records into that same observer, so `/metrics`
//! exports the counters the shards write, with no copy in between.
//!
//! ## The live view
//!
//! A ticker thread closes one [`LiveWindows`] window per
//! [`LiveConfig::window`], turning the registry's lifetime counters into
//! per-second rates and rolling p50/p99/p999 — and on the same cadence
//! exports the simulation's published [`ClusterStatus`] as health gauges
//! plus `serve/status_generation` / `serve/status_age_ms` (wall-clock
//! age of the newest frame generation, the ensemble-liveness signal).
//!
//! ## The endpoint
//!
//! [`MetricsServer`] (one thread, dependency-free) serves:
//!
//! | path       | content                                                |
//! |------------|--------------------------------------------------------|
//! | `/metrics` | Prometheus text: registry + live rates/rollups         |
//! | `/json`    | JSON snapshot: stats, cluster status, metrics, live    |
//! | `/slow`    | the slow-request flight recorder ring                  |
//!
//! Bind it to `127.0.0.1` (the default stance): the exposition path is
//! for operators, not the public internet — it shares nothing with the
//! serve shards but atomics, so a scrape can never block a shard.

use crate::clock::ClockHandle;
use crate::server::{ServerStats, StatsSnapshot};
use nti_obs::expo::Provider;
use nti_obs::{
    Gauge, Histogram, Json, LiveConfig, LiveWindows, MetricKey, MetricsServer, SimObserver,
};
use std::collections::VecDeque;
use std::net::{IpAddr, SocketAddr};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Pipeline stage names, in pipeline order. Indexes into
/// [`SlowTrace::stage_ns`] and the `serve/stage_<s>_ns` histograms.
pub const STAGES: [&str; 6] = ["recv", "classify", "admission", "lookup", "encode", "send"];

/// Static metric names for the per-stage histograms ([`MetricKey`] wants
/// `&'static str`, so the names cannot be formatted at runtime).
const STAGE_METRICS: [&str; 6] = [
    "stage_recv_ns",
    "stage_classify_ns",
    "stage_admission_ns",
    "stage_lookup_ns",
    "stage_encode_ns",
    "stage_send_ns",
];

/// How (and whether) a server measures itself.
#[derive(Clone, Debug)]
pub struct TelemetryConfig {
    /// Metrics sink, and the store of the server's counters
    /// (`serve/<name>`). A disabled observer with no
    /// [`metrics_addr`](TelemetryConfig::metrics_addr) turns the whole
    /// plane off. With a disabled observer the server keeps its counters
    /// in a private enabled one, which an endpoint, if set, serves.
    pub obs: SimObserver,
    /// Where to bind the exposition endpoint; `None` = no endpoint.
    /// Bind loopback unless the scrape network is trusted.
    pub metrics_addr: Option<SocketAddr>,
    /// Time the pipeline stages of one in every `sample_every` datagrams
    /// (rounded to a power of two; 0 and 1 both mean "every datagram").
    pub sample_every: u32,
    /// A sampled request slower end-to-end than this gets a
    /// [`SlowTrace`] in the flight recorder.
    pub slow_threshold: Duration,
    /// Flight-recorder capacity (oldest traces are overwritten).
    pub slow_capacity: usize,
    /// Shape of the live windowed view.
    pub live: LiveConfig,
}

impl Default for TelemetryConfig {
    fn default() -> TelemetryConfig {
        TelemetryConfig {
            obs: SimObserver::disabled(),
            metrics_addr: None,
            sample_every: 32,
            slow_threshold: Duration::from_millis(1),
            slow_capacity: 256,
            live: LiveConfig::default(),
        }
    }
}

impl TelemetryConfig {
    /// Is any part of the plane on?
    pub fn enabled(&self) -> bool {
        self.obs.core().is_some() || self.metrics_addr.is_some()
    }
}

/// One slow request's structured trace.
#[derive(Clone, Copy, Debug)]
pub struct SlowTrace {
    /// Monotone trace number (total slow requests ever seen, including
    /// ones the bounded ring has since dropped).
    pub seq: u64,
    /// Shard that served the request.
    pub shard: u32,
    /// FNV-1a hash of the client's `(ip, port)` — a correlation
    /// identifier, **not** an anonymization guarantee.
    pub client_hash: u64,
    /// What happened: `admit`, `rate`, `drop`, `foreign`, `malformed`.
    pub verdict: &'static str,
    /// End-to-end handle time (ns).
    pub total_ns: u64,
    /// Per-stage breakdown (ns), indexed like [`STAGES`].
    pub stage_ns: [u64; 6],
}

/// The bounded slow-request ring. Pushes are mutex-guarded but only
/// taken for requests already past the slow threshold — never on the
/// per-datagram fast path.
#[derive(Debug)]
pub struct SlowRing {
    cap: usize,
    seq: AtomicU64,
    ring: Mutex<VecDeque<SlowTrace>>,
}

impl SlowRing {
    /// A ring keeping the most recent `cap` traces (`cap == 0` keeps
    /// one — a recorder you asked for should never be a black hole).
    pub fn new(cap: usize) -> SlowRing {
        let cap = cap.max(1);
        SlowRing {
            cap,
            seq: AtomicU64::new(0),
            ring: Mutex::new(VecDeque::with_capacity(cap)),
        }
    }

    /// Record one trace (stamps [`SlowTrace::seq`]).
    pub fn push(&self, mut t: SlowTrace) {
        t.seq = self.seq.fetch_add(1, Relaxed);
        let mut ring = self.ring.lock().expect("slow ring");
        if ring.len() == self.cap {
            ring.pop_front();
        }
        ring.push_back(t);
    }

    /// Total slow requests ever recorded (≥ the ring's current length).
    pub fn total(&self) -> u64 {
        self.seq.load(Relaxed)
    }

    /// Dump the ring, oldest first.
    pub fn to_json(&self) -> Json {
        let ring = self.ring.lock().expect("slow ring");
        let traces = ring
            .iter()
            .map(|t| {
                let stages = STAGES
                    .iter()
                    .zip(t.stage_ns)
                    .map(|(name, ns)| (*name, Json::num(ns as f64)))
                    .collect::<Vec<_>>();
                Json::obj([
                    ("seq", Json::num(t.seq as f64)),
                    ("shard", Json::num(t.shard as f64)),
                    ("client_hash", Json::str(format!("{:016x}", t.client_hash))),
                    ("verdict", Json::str(t.verdict)),
                    ("total_ns", Json::num(t.total_ns as f64)),
                    ("stages_ns", Json::obj(stages)),
                ])
            })
            .collect();
        Json::obj([
            ("total_recorded", Json::num(self.total() as f64)),
            ("capacity", Json::num(self.cap as f64)),
            ("traces", Json::Arr(traces)),
        ])
    }
}

/// FNV-1a over the client's address — cheap, stable within a run.
pub fn client_hash(peer: SocketAddr) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |b: u8| {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    match peer.ip() {
        IpAddr::V4(ip) => ip.octets().iter().for_each(|&b| eat(b)),
        IpAddr::V6(ip) => ip.octets().iter().for_each(|&b| eat(b)),
    }
    peer.port().to_be_bytes().iter().for_each(|&b| eat(b));
    h
}

/// One shard's telemetry handles: owned by the shard thread, shared
/// storage (`Arc`ed histograms/counters) readable by the endpoint.
#[derive(Debug)]
pub(crate) struct ShardTelemetry {
    shard: u32,
    stage_hists: [Arc<Histogram>; 6],
    total_hist: Arc<Histogram>,
    occupancy: Arc<Gauge>,
    sample_mask: u32,
    tick: u32,
    slow: Arc<SlowRing>,
    slow_threshold_ns: u64,
}

impl ShardTelemetry {
    /// Should this datagram's stages be timed? Advances the sampling
    /// counter — call exactly once per drained datagram.
    #[inline]
    pub(crate) fn should_sample(&mut self) -> bool {
        let t = self.tick;
        self.tick = self.tick.wrapping_add(1);
        t & self.sample_mask == 0
    }

    /// Publish the shard's admission-table occupancy.
    pub(crate) fn set_occupancy(&self, occupied: usize) {
        self.occupancy.set(occupied as i64);
    }

    /// Record one sampled datagram's stage breakdown. Zero stages (not
    /// reached on this verdict path, or no admission table) are skipped
    /// so their histograms only ever hold real measurements.
    pub(crate) fn record(&self, verdict: &'static str, peer: SocketAddr, stage_ns: [u64; 6]) {
        let total: u64 = stage_ns.iter().sum();
        for (h, ns) in self.stage_hists.iter().zip(stage_ns) {
            if ns > 0 {
                h.record(ns);
            }
        }
        self.total_hist.record(total);
        if total >= self.slow_threshold_ns {
            self.slow.push(SlowTrace {
                seq: 0, // stamped by the ring
                shard: self.shard,
                client_hash: client_hash(peer),
                verdict,
                total_ns: total,
                stage_ns,
            });
        }
    }
}

/// The running telemetry plane, owned by the `RunningServer`.
#[derive(Debug)]
pub(crate) struct Runtime {
    obs: SimObserver,
    live: Arc<LiveWindows>,
    slow: Arc<SlowRing>,
    sample_mask: u32,
    slow_threshold_ns: u64,
    endpoint: Option<MetricsServer>,
    ticker_stop: Arc<AtomicBool>,
    ticker: Option<JoinHandle<()>>,
    epoch: Instant,
}

/// Wall-clock tracker for `serve/status_age_ms`: age of the newest frame
/// generation, reset whenever the generation advances.
struct GenAge {
    last_gen: u64,
    changed_at: Instant,
}

impl GenAge {
    fn observe(&mut self, generation: u64) -> Duration {
        if generation != self.last_gen {
            self.last_gen = generation;
            self.changed_at = Instant::now();
        }
        self.changed_at.elapsed()
    }
}

impl Runtime {
    /// Start the plane for `cfg`, or `None` when it is fully off. `obs`
    /// is the enabled observer holding the server's counters `stats`; the
    /// plane records into it too, and `/json` reports `stats` less
    /// `base`. An endpoint bind failure is reported and tolerated — a
    /// server must not refuse to serve time because its metrics port is
    /// taken.
    pub(crate) fn start(
        cfg: &TelemetryConfig,
        obs: &SimObserver,
        handle: &ClockHandle,
        stats: &ServerStats,
        base: StatsSnapshot,
    ) -> Option<Runtime> {
        if !cfg.enabled() {
            return None;
        }
        let obs = obs.clone();
        let core = Arc::clone(obs.core().expect("server observer is enabled"));
        let live = Arc::new(LiveWindows::new(cfg.live));
        let slow = Arc::new(SlowRing::new(cfg.slow_capacity));
        let sample_mask = cfg.sample_every.max(1).next_power_of_two() - 1;
        let epoch = Instant::now();

        let ticker_stop = Arc::new(AtomicBool::new(false));
        let ticker = {
            let stop = Arc::clone(&ticker_stop);
            let live = Arc::clone(&live);
            let core = Arc::clone(&core);
            let obs = obs.clone();
            let handle = handle.clone();
            let window = cfg.live.window;
            std::thread::Builder::new()
                .name("nti-telemetry".into())
                .spawn(move || {
                    let mut age = GenAge {
                        last_gen: u64::MAX,
                        changed_at: Instant::now(),
                    };
                    let gen_gauge = obs.gauge(MetricKey::global("serve", "status_generation"));
                    let age_gauge = obs.gauge(MetricKey::global("serve", "status_age_ms"));
                    live.tick(&core.registry, epoch.elapsed().as_nanos() as u64);
                    while !stop.load(Relaxed) {
                        // Sleep in short slices so stop stays responsive
                        // even with multi-second windows.
                        let deadline = Instant::now() + window;
                        while Instant::now() < deadline && !stop.load(Relaxed) {
                            std::thread::sleep(
                                (deadline - Instant::now()).min(Duration::from_millis(20)),
                            );
                        }
                        if stop.load(Relaxed) {
                            break;
                        }
                        let generation = handle.generation();
                        let frame_age = age.observe(generation);
                        if let Some(g) = &gen_gauge {
                            g.set(generation.min(i64::MAX as u64) as i64);
                        }
                        if let Some(g) = &age_gauge {
                            g.set(frame_age.as_millis().min(i64::MAX as u128) as i64);
                        }
                        handle.status().export_gauges(&obs);
                        live.tick(&core.registry, epoch.elapsed().as_nanos() as u64);
                    }
                })
                .expect("spawn telemetry ticker")
        };

        let endpoint = cfg.metrics_addr.and_then(|addr| {
            let provider = make_provider(
                Arc::clone(&core),
                Arc::clone(&live),
                Arc::clone(&slow),
                stats.clone(),
                base,
                handle.clone(),
            );
            match MetricsServer::spawn(addr, provider) {
                Ok(s) => Some(s),
                Err(e) => {
                    eprintln!("nti-serve: metrics endpoint bind {addr} failed: {e}");
                    None
                }
            }
        });

        Some(Runtime {
            obs,
            live,
            slow,
            sample_mask,
            slow_threshold_ns: cfg.slow_threshold.as_nanos() as u64,
            endpoint,
            ticker_stop,
            ticker: Some(ticker),
            epoch,
        })
    }

    /// Where the endpoint is listening, if it bound.
    pub(crate) fn metrics_addr(&self) -> Option<SocketAddr> {
        self.endpoint.as_ref().map(MetricsServer::local_addr)
    }

    /// Build shard `i`'s telemetry handles (registers its metrics).
    pub(crate) fn shard(&self, i: usize) -> ShardTelemetry {
        let shard = i as u32;
        let key = |name: &'static str| MetricKey::node(shard, "serve", name);
        let h = |name: &'static str| {
            self.obs
                .hist(key(name))
                .expect("telemetry observer is enabled")
        };
        ShardTelemetry {
            shard,
            stage_hists: STAGE_METRICS.map(h),
            total_hist: h("stage_total_ns"),
            occupancy: self
                .obs
                .gauge(key("admission_occupancy"))
                .expect("telemetry observer is enabled"),
            sample_mask: self.sample_mask,
            tick: shard, // stagger shards so they don't sample in lockstep
            slow: Arc::clone(&self.slow),
            slow_threshold_ns: self.slow_threshold_ns,
        }
    }

    /// Stop the ticker and the endpoint. Closes one final window first so
    /// short runs still get a live view of their tail.
    pub(crate) fn stop(mut self) {
        if let Some(core) = self.obs.core() {
            self.live
                .tick(&core.registry, self.epoch.elapsed().as_nanos() as u64);
        }
        self.ticker_stop.store(true, Relaxed);
        if let Some(t) = self.ticker.take() {
            let _ = t.join();
        }
        if let Some(e) = self.endpoint.take() {
            e.stop();
        }
    }
}

/// The endpoint's route table.
fn make_provider(
    core: Arc<nti_obs::ObsCore>,
    live: Arc<LiveWindows>,
    slow: Arc<SlowRing>,
    stats: ServerStats,
    base: StatsSnapshot,
    handle: ClockHandle,
) -> Provider {
    Arc::new(move |path: &str| {
        match path {
        "/" => Some((
            "text/plain; charset=utf-8",
            "nti-serve telemetry\n\n/metrics  Prometheus text\n/json     JSON snapshot\n/slow     slow-request flight recorder\n"
                .to_string(),
        )),
        "/metrics" => Some((
            "text/plain; version=0.0.4; charset=utf-8",
            nti_obs::render_prometheus(&core.registry, Some(&live)),
        )),
        "/json" => {
            let stats = stats.since(&base);
            let stats = stats.fields().map(|(name, v)| (name, Json::num(*v as f64)));
            let snapshot = Json::obj([
                ("stats", Json::obj(stats)),
                ("status", handle.status().to_json()),
                ("generation", Json::num(handle.generation() as f64)),
                ("metrics", core.registry.to_json()),
                ("live", live.to_json()),
            ]);
            Some(("application/json", snapshot.to_string()))
        }
        "/slow" => Some(("application/json", slow.to_json().to_string())),
        _ => None,
    }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slow_ring_is_bounded_and_stamps_seq() {
        let ring = SlowRing::new(3);
        for i in 0..5u64 {
            ring.push(SlowTrace {
                seq: 0,
                shard: 0,
                client_hash: i,
                verdict: "admit",
                total_ns: 1000 + i,
                stage_ns: [i, 0, 0, 0, 0, 0],
            });
        }
        assert_eq!(ring.total(), 5);
        let j = ring.to_json();
        let traces = j.get("traces").and_then(Json::as_arr).expect("traces");
        assert_eq!(traces.len(), 3, "ring bounded");
        // Oldest dropped: seqs 2, 3, 4 remain in order.
        let seqs: Vec<f64> = traces
            .iter()
            .map(|t| t.get("seq").and_then(Json::as_f64).expect("seq"))
            .collect();
        assert_eq!(seqs, vec![2.0, 3.0, 4.0]);
        // Dump parses with the strict parser.
        assert!(Json::parse(&j.to_string()).is_ok());
    }

    #[test]
    fn client_hash_distinguishes_peers() {
        let a: SocketAddr = "10.0.0.1:123".parse().expect("addr");
        let b: SocketAddr = "10.0.0.1:124".parse().expect("addr");
        let c: SocketAddr = "10.0.0.2:123".parse().expect("addr");
        assert_ne!(client_hash(a), client_hash(b));
        assert_ne!(client_hash(a), client_hash(c));
        assert_eq!(client_hash(a), client_hash(a));
    }

    #[test]
    fn sample_mask_rounds_to_power_of_two() {
        for (every, expect_period) in [(0u32, 1u32), (1, 1), (2, 2), (3, 4), (32, 32), (33, 64)] {
            let mask = every.max(1).next_power_of_two() - 1;
            let mut hits = 0;
            for t in 0..256u32 {
                if t & mask == 0 {
                    hits += 1;
                }
            }
            assert_eq!(hits, 256 / expect_period, "sample_every={every}");
        }
    }
}
