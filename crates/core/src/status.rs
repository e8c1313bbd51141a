//! Mid-run cluster status publication: a seqlock-style snapshot cell.
//!
//! `Report.final_states` and the membership gauges are only meaningful
//! after a run completes; nothing could observe the ensemble *while the
//! engine runs* without borrowing the `World` — impossible from another
//! thread. This module closes that gap with a [`StatusCell`]: a fixed-size
//! block of atomic words guarded by a sequence counter. The simulation
//! thread [`publish`](StatusCell::publish)es a [`ClusterStatus`] frame at
//! every HWSNAP sweep; any number of reader threads
//! [`read`](StatusCell::read) the latest frame without ever blocking the
//! writer.
//!
//! The protocol is the classic seqlock, built entirely on `AtomicU64`
//! words so torn reads are detected, never undefined:
//!
//! * **writer** (wait-free — no loops, no locks, no reader can delay it):
//!   bump `seq` to odd, release-fence, store the payload words, then store
//!   `seq + 1` (even) with release ordering;
//! * **reader**: load `seq` (acquire); if odd, the writer is mid-frame —
//!   retry. Load the payload words, acquire-fence, re-load `seq`; if it
//!   moved, the frame was overwritten mid-read — retry.
//!
//! A reader therefore costs the writer nothing, which is what the serving
//! layer (`nti-serve`) needs: the NTP front-end answers queries from the
//! last published frame at full socket rate while the simulation thread
//! proceeds at its own pace.

use crate::health::{HealthState, HEALTH_STATES};
use nti_obs::{Json, MetricKey, SimObserver};
use nti_simcore::ntp::NtpTime;
use nti_simcore::time::SimDuration;
use std::sync::atomic::{fence, AtomicU64, Ordering};

/// The `status/nodes_<state>` gauge name for a health state. A `const`
/// match so the [`MetricKey`] names stay `&'static str`.
fn state_gauge_name(s: HealthState) -> &'static str {
    match s {
        HealthState::Synchronized => "nodes_synchronized",
        HealthState::Degraded => "nodes_degraded",
        HealthState::Holdover => "nodes_holdover",
        HealthState::Down => "nodes_down",
        HealthState::Reintegrating => "nodes_reintegrating",
    }
}

/// One node's slice of a published status frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NodeStatus {
    /// The node's adder-based clock at publish time (zero while down).
    pub clock: NtpTime,
    /// Accuracy interval lower deviation α⁻ at publish time.
    pub alpha_minus: SimDuration,
    /// Accuracy interval upper deviation α⁺ at publish time.
    pub alpha_plus: SimDuration,
    /// Membership/health state.
    pub state: HealthState,
    /// Whether the node is crashed / not yet joined (no clock).
    pub down: bool,
}

/// A consistent cluster-wide snapshot, published mid-run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ClusterStatus {
    /// How many frames have been published into the cell so far (0 =
    /// nothing published yet; the frame is all-zero placeholder data).
    pub publishes: u64,
    /// Simulation time of the frame (femtoseconds).
    pub sim_time_fs: u128,
    /// The metric reference instant for the frame (femtoseconds) — equal
    /// to `sim_time_fs` except after a coordinated leap insertion, where
    /// UTC reads one second less.
    pub ref_time_fs: u128,
    /// Per-node status, indexed by node id.
    pub nodes: Vec<NodeStatus>,
}

impl ClusterStatus {
    /// Simulation-time age of this frame at `now_fs` (femtoseconds).
    /// Saturates at zero if `now_fs` predates the frame (a reader racing
    /// ahead of the clock it compares against), so age is total and never
    /// wraps. A frame with `publishes == 0` is placeholder data — its age
    /// against any positive `now_fs` is simply `now_fs`, which correctly
    /// reads as "stale since forever".
    pub fn age_fs(&self, now_fs: u128) -> u128 {
        now_fs.saturating_sub(self.sim_time_fs)
    }

    /// How many nodes currently sit in each health state, indexed by
    /// [`HealthState::index`] — the mid-run equivalent of the
    /// `membership/<state>` gauges.
    pub fn state_counts(&self) -> [usize; HEALTH_STATES.len()] {
        let mut counts = [0usize; HEALTH_STATES.len()];
        for n in &self.nodes {
            counts[n.state.index()] += 1;
        }
        counts
    }

    /// Per-node state names — the mid-run equivalent of
    /// `Report.final_states`.
    pub fn states(&self) -> Vec<&'static str> {
        self.nodes.iter().map(|n| n.state.name()).collect()
    }

    /// Machine-readable frame dump. Femtosecond stamps are emitted as
    /// strings (they exceed JSON's 2⁵³ exact-integer range); deviations
    /// are downscaled to nanoseconds as numbers.
    pub fn to_json(&self) -> Json {
        let nodes = self
            .nodes
            .iter()
            .map(|n| {
                Json::obj([
                    ("clock_raw", Json::str(n.clock.raw().to_string())),
                    (
                        "alpha_minus_ns",
                        Json::num((n.alpha_minus.as_fs() / 1_000_000) as f64),
                    ),
                    (
                        "alpha_plus_ns",
                        Json::num((n.alpha_plus.as_fs() / 1_000_000) as f64),
                    ),
                    ("state", Json::str(n.state.name())),
                    ("down", Json::Bool(n.down)),
                ])
            })
            .collect();
        Json::obj([
            ("publishes", Json::num(self.publishes as f64)),
            ("sim_time_fs", Json::str(self.sim_time_fs.to_string())),
            ("ref_time_fs", Json::str(self.ref_time_fs.to_string())),
            ("nodes", Json::Arr(nodes)),
        ])
    }

    /// Export the frame's membership/health view as gauges on `obs`:
    /// `status/nodes_<state>` occupancy per health state (zeroed states
    /// included, so a scrape sees transitions to zero), plus
    /// `status/publishes` and `status/nodes_total`. No-op when `obs` is
    /// disabled. Called by the serve-side telemetry ticker so sim-side
    /// health reaches the metrics endpoint.
    pub fn export_gauges(&self, obs: &SimObserver) {
        if obs.core().is_none() {
            return;
        }
        let counts = self.state_counts();
        for s in HEALTH_STATES {
            if let Some(g) = obs.gauge(MetricKey::global("status", state_gauge_name(s))) {
                g.set(counts[s.index()] as i64);
            }
        }
        if let Some(g) = obs.gauge(MetricKey::global("status", "publishes")) {
            g.set(self.publishes.min(i64::MAX as u64) as i64);
        }
        if let Some(g) = obs.gauge(MetricKey::global("status", "nodes_total")) {
            g.set(self.nodes.len() as i64);
        }
    }
}

/// One node's clock as read through [`StatusCell::read_node`]: the node
/// slice plus the frame header it was consistent with.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NodeClock {
    /// Frame number (0 = nothing published yet).
    pub publishes: u64,
    /// Simulation time of the frame (femtoseconds).
    pub sim_time_fs: u128,
    /// Reference instant of the frame (femtoseconds).
    pub ref_time_fs: u128,
    /// The node slice.
    pub node: NodeStatus,
}

impl NodeClock {
    /// Simulation-time age of the frame this slice came from (see
    /// [`ClusterStatus::age_fs`]).
    pub fn age_fs(&self, now_fs: u128) -> u128 {
        now_fs.saturating_sub(self.sim_time_fs)
    }
}

/// Words per node slice: clock (2), α⁻ (1), α⁺ (1), state/down (1).
const NODE_WORDS: usize = 5;
/// Header words: publishes (1), sim_time (2), ref_time (2).
const HEADER_WORDS: usize = 5;

/// The seqlock cell. Construct with [`StatusCell::new`], hand an
/// `Arc<StatusCell>` to `ClusterConfig::status_cell` (the writer side) and
/// clone the same `Arc` into reader threads.
pub struct StatusCell {
    seq: AtomicU64,
    words: Box<[AtomicU64]>,
    n: usize,
}

impl std::fmt::Debug for StatusCell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StatusCell")
            .field("nodes", &self.n)
            .field("seq", &self.seq.load(Ordering::Relaxed))
            .finish()
    }
}

/// Saturate a `SimDuration` into one word (u64 femtoseconds covers ±5 h of
/// accuracy deviation — far beyond `Accuracy::MAX`).
fn dur_word(d: SimDuration) -> u64 {
    u64::try_from(d.as_fs()).unwrap_or(u64::MAX)
}

impl StatusCell {
    /// A cell for an `n`-node cluster. All words start zero; readers see
    /// `publishes == 0` until the first frame lands.
    pub fn new(n: usize) -> StatusCell {
        let len = HEADER_WORDS + n * NODE_WORDS;
        StatusCell {
            seq: AtomicU64::new(0),
            words: (0..len).map(|_| AtomicU64::new(0)).collect(),
            n,
        }
    }

    /// Node capacity of the cell.
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// How many frames have been **completed** into the cell — a two-load
    /// probe (no payload read, no retry loop) that lets a reader ask "is
    /// there anything new?" without paying for a frame decode. Distinct
    /// from the `publishes` field inside a frame only in cost: a seqlock
    /// retry re-reads the same generation, so a reader polling this value
    /// can tell "no new frame" (generation unchanged) from "I raced a
    /// writer" (generation advanced while I was reading).
    pub fn generation(&self) -> u64 {
        // seq counts half-steps: odd while a publish is in flight, even
        // once it completes — so completed frames = seq / 2.
        self.seq.load(Ordering::Acquire) >> 1
    }

    /// Publish a frame. **Wait-free**: a straight-line sequence of atomic
    /// stores — readers can never delay or block the writer, which is the
    /// property the simulation thread relies on.
    pub fn publish(&self, status: &ClusterStatus) {
        assert_eq!(
            status.nodes.len(),
            self.n,
            "status frame node count must match the cell"
        );
        let s = self.seq.load(Ordering::Relaxed);
        self.seq.store(s.wrapping_add(1), Ordering::Relaxed);
        fence(Ordering::Release);
        let w = &self.words;
        w[0].store(status.publishes, Ordering::Relaxed);
        w[1].store(status.sim_time_fs as u64, Ordering::Relaxed);
        w[2].store((status.sim_time_fs >> 64) as u64, Ordering::Relaxed);
        w[3].store(status.ref_time_fs as u64, Ordering::Relaxed);
        w[4].store((status.ref_time_fs >> 64) as u64, Ordering::Relaxed);
        for (i, node) in status.nodes.iter().enumerate() {
            let base = HEADER_WORDS + i * NODE_WORDS;
            let raw = node.clock.raw();
            w[base].store(raw as u64, Ordering::Relaxed);
            w[base + 1].store((raw >> 64) as u64, Ordering::Relaxed);
            w[base + 2].store(dur_word(node.alpha_minus), Ordering::Relaxed);
            w[base + 3].store(dur_word(node.alpha_plus), Ordering::Relaxed);
            let tag = node.state.index() as u64 | if node.down { 1 << 8 } else { 0 };
            w[base + 4].store(tag, Ordering::Relaxed);
        }
        self.seq.store(s.wrapping_add(2), Ordering::Release);
    }

    /// Run `f` over the words under seqlock read validation, retrying
    /// until a consistent frame is observed.
    fn read_consistent<T>(&self, f: impl Fn(&[AtomicU64]) -> T) -> T {
        loop {
            let s1 = self.seq.load(Ordering::Acquire);
            if s1 & 1 != 0 {
                std::hint::spin_loop();
                continue;
            }
            let out = f(&self.words);
            fence(Ordering::Acquire);
            if self.seq.load(Ordering::Relaxed) == s1 {
                return out;
            }
            std::hint::spin_loop();
        }
    }

    fn decode_node(w: &[AtomicU64], i: usize) -> NodeStatus {
        let base = HEADER_WORDS + i * NODE_WORDS;
        let lo = w[base].load(Ordering::Relaxed) as u128;
        let hi = w[base + 1].load(Ordering::Relaxed) as u128;
        let tag = w[base + 4].load(Ordering::Relaxed);
        NodeStatus {
            clock: NtpTime::from_raw(lo | (hi << 64)),
            alpha_minus: SimDuration::from_fs(w[base + 2].load(Ordering::Relaxed) as u128),
            alpha_plus: SimDuration::from_fs(w[base + 3].load(Ordering::Relaxed) as u128),
            state: HEALTH_STATES[(tag & 0xFF) as usize % HEALTH_STATES.len()],
            down: tag & (1 << 8) != 0,
        }
    }

    fn decode_header(w: &[AtomicU64]) -> (u64, u128, u128) {
        let publishes = w[0].load(Ordering::Relaxed);
        let sim =
            w[1].load(Ordering::Relaxed) as u128 | ((w[2].load(Ordering::Relaxed) as u128) << 64);
        let rf =
            w[3].load(Ordering::Relaxed) as u128 | ((w[4].load(Ordering::Relaxed) as u128) << 64);
        (publishes, sim, rf)
    }

    /// Read the latest full frame (allocates the node vector).
    pub fn read(&self) -> ClusterStatus {
        self.read_consistent(|w| {
            let (publishes, sim_time_fs, ref_time_fs) = Self::decode_header(w);
            ClusterStatus {
                publishes,
                sim_time_fs,
                ref_time_fs,
                nodes: (0..self.n).map(|i| Self::decode_node(w, i)).collect(),
            }
        })
    }

    /// Read one node's slice plus the frame header — the serving layer's
    /// fast path (a handful of atomic loads, no allocation). `None` if the
    /// node id is out of range.
    pub fn read_node(&self, id: usize) -> Option<NodeClock> {
        if id >= self.n {
            return None;
        }
        Some(self.read_consistent(|w| {
            let (publishes, sim_time_fs, ref_time_fs) = Self::decode_header(w);
            NodeClock {
                publishes,
                sim_time_fs,
                ref_time_fs,
                node: Self::decode_node(w, id),
            }
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    fn frame(k: u64, n: usize) -> ClusterStatus {
        // Every field is a deterministic function of k, so a reader can
        // verify it observed one frame, not a blend of two.
        ClusterStatus {
            publishes: k,
            sim_time_fs: (k as u128) << 64 | k as u128,
            ref_time_fs: (k as u128) * 3,
            nodes: (0..n)
                .map(|i| NodeStatus {
                    clock: NtpTime::from_raw(((k as u128) << 32) + i as u128),
                    alpha_minus: SimDuration::from_fs(k as u128 + i as u128),
                    alpha_plus: SimDuration::from_fs(2 * k as u128 + i as u128),
                    state: HEALTH_STATES[(k as usize + i) % HEALTH_STATES.len()],
                    down: (k as usize + i).is_multiple_of(3),
                })
                .collect(),
        }
    }

    #[test]
    fn round_trips_a_frame() {
        let cell = StatusCell::new(4);
        assert_eq!(cell.read().publishes, 0, "unpublished cell reads zero");
        let f = frame(7, 4);
        cell.publish(&f);
        assert_eq!(cell.read(), f);
        let nc = cell.read_node(2).expect("in range");
        assert_eq!(nc.publishes, 7);
        assert_eq!(nc.sim_time_fs, f.sim_time_fs);
        assert_eq!(nc.node, f.nodes[2]);
        assert!(cell.read_node(4).is_none());
    }

    #[test]
    fn state_counts_and_names() {
        let f = frame(1, 5);
        let counts = f.state_counts();
        assert_eq!(counts.iter().sum::<usize>(), 5);
        assert_eq!(f.states().len(), 5);
        for (s, n) in f.nodes.iter().zip(f.states()) {
            assert_eq!(s.state.name(), n);
        }
    }

    #[test]
    fn json_and_gauge_export_cover_the_frame() {
        let f = frame(4, 3);
        let j = f.to_json();
        assert_eq!(j.get("publishes").and_then(Json::as_f64), Some(4.0));
        assert_eq!(
            j.get("sim_time_fs").and_then(Json::as_str),
            Some(f.sim_time_fs.to_string().as_str())
        );
        assert_eq!(
            j.get("nodes").and_then(Json::as_arr).map(<[Json]>::len),
            Some(3)
        );
        // Round-trips through the strict parser.
        let reparsed = Json::parse(&j.to_string()).expect("valid JSON");
        assert_eq!(reparsed, j);

        let obs = SimObserver::enabled();
        f.export_gauges(&obs);
        let counts = f.state_counts();
        let reg = &obs.core().expect("enabled").registry;
        let mut total = 0i64;
        for s in HEALTH_STATES {
            let g = obs
                .gauge(MetricKey::global("status", state_gauge_name(s)))
                .expect("gauge");
            assert_eq!(g.get(), counts[s.index()] as i64);
            total += g.get();
        }
        assert_eq!(total, 3);
        assert_eq!(
            obs.gauge(MetricKey::global("status", "publishes"))
                .expect("gauge")
                .get(),
            4
        );
        assert!(reg.len() >= HEALTH_STATES.len() + 2);
        // Disabled observer: a silent no-op.
        f.export_gauges(&SimObserver::disabled());
    }

    #[test]
    fn generation_counts_completed_publishes() {
        let cell = StatusCell::new(2);
        assert_eq!(cell.generation(), 0);
        for k in 1..=5 {
            cell.publish(&frame(k, 2));
            assert_eq!(cell.generation(), k);
            assert_eq!(cell.read().publishes, k);
        }
    }

    #[test]
    fn age_saturates_and_tracks_sim_time() {
        let cell = StatusCell::new(1);
        let mut f = frame(3, 1);
        f.sim_time_fs = 1_000;
        cell.publish(&f);
        let got = cell.read();
        assert_eq!(got.age_fs(4_000), 3_000);
        assert_eq!(got.age_fs(500), 0, "age never wraps");
        let nc = cell.read_node(0).expect("in range");
        assert_eq!(nc.age_fs(4_000), 3_000);
        // The unpublished placeholder frame is "stale since forever".
        let empty = StatusCell::new(1);
        assert_eq!(empty.read().age_fs(7), 7);
    }

    /// Frames the readers of a seqlock torture test check before it stops.
    const CHECKS: u64 = 1_000;

    /// Raise `stop` once the readers have checked at least [`CHECKS`]
    /// frames (counted in `checked`) and the writer has published more
    /// than 100. A fixed sleep could stop a reader racing an unpaced
    /// writer on a loaded host after almost no checks; this waits for the
    /// progress instead, and fails the test if it takes over 10 s.
    fn stop_after_progress(cell: &StatusCell, checked: &AtomicU64, stop: &AtomicBool) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while checked.load(Ordering::Relaxed) < CHECKS || cell.generation() <= 100 {
            if Instant::now() > deadline {
                stop.store(true, Ordering::Relaxed);
                panic!(
                    "no progress within 10 s: {} checks, {} frames",
                    checked.load(Ordering::Relaxed),
                    cell.generation()
                );
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        stop.store(true, Ordering::Relaxed);
    }

    /// Age computation across seqlock retries: a writer publishes frames
    /// whose sim-time stamp advances monotonically while readers compute
    /// ages against a "now" at least as late as any published stamp. Any
    /// torn read that blended the stamp of one frame with the generation
    /// of another would produce an age/generation pair violating the
    /// k-derivation (stamp = k<<64 | k), and a generation probe taken
    /// around the read bounds which frames the reader could have seen.
    #[test]
    fn age_is_consistent_across_seqlock_retries() {
        let n = 2;
        let cell = Arc::new(StatusCell::new(n));
        let stop = Arc::new(AtomicBool::new(false));
        let writer = {
            let cell = Arc::clone(&cell);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut k = 1u64;
                while !stop.load(Ordering::Relaxed) {
                    // sim_time_fs advances with the generation (frame(k)
                    // stamps k<<64 | k), so newer frames are never older.
                    cell.publish(&frame(k, n));
                    k += 1;
                }
                k - 1
            })
        };
        let progress = Arc::new(AtomicU64::new(0));
        let reader = {
            let cell = Arc::clone(&cell);
            let stop = Arc::clone(&stop);
            let progress = Arc::clone(&progress);
            std::thread::spawn(move || {
                let mut checked = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let g_before = cell.generation();
                    let f = cell.read();
                    let g_after = cell.generation();
                    if f.publishes == 0 {
                        continue;
                    }
                    // The observed frame is one of the generations the
                    // probe pair brackets — a retry can only move forward.
                    assert!(
                        f.publishes >= g_before && f.publishes <= g_after,
                        "frame {} outside probe window [{}, {}]",
                        f.publishes,
                        g_before,
                        g_after
                    );
                    // Stamp matches the frame's own generation (no blend),
                    // so age against any later stamp is exact.
                    let expect_stamp = (f.publishes as u128) << 64 | f.publishes as u128;
                    assert_eq!(f.sim_time_fs, expect_stamp, "blended stamp");
                    let now = frame(g_after + 1, n).sim_time_fs;
                    assert_eq!(f.age_fs(now), now - expect_stamp);
                    checked += 1;
                    progress.fetch_add(1, Ordering::Relaxed);
                }
                checked
            })
        };
        stop_after_progress(&cell, &progress, &stop);
        let frames = writer.join().expect("writer");
        let checked = reader.join().expect("reader");
        assert!(frames > 100, "writer made progress ({frames})");
        assert!(checked > 100, "reader made progress ({checked})");
    }

    /// Seqlock torture: one writer publishing self-consistent frames as
    /// fast as it can, several readers checking every observed frame for
    /// internal consistency. A torn read would blend two frames and break
    /// the k-derivation invariant.
    #[test]
    fn concurrent_readers_never_observe_torn_frames() {
        let n = 3;
        let cell = Arc::new(StatusCell::new(n));
        let stop = Arc::new(AtomicBool::new(false));
        let writer = {
            let cell = Arc::clone(&cell);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut k = 1u64;
                while !stop.load(Ordering::Relaxed) {
                    cell.publish(&frame(k, n));
                    k += 1;
                }
                k
            })
        };
        let progress = Arc::new(AtomicU64::new(0));
        let readers: Vec<_> = (0..3)
            .map(|_| {
                let cell = Arc::clone(&cell);
                let stop = Arc::clone(&stop);
                let progress = Arc::clone(&progress);
                std::thread::spawn(move || {
                    let mut seen = 0u64;
                    let mut last = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        let f = cell.read();
                        if f.publishes == 0 {
                            continue; // nothing published yet
                        }
                        assert_eq!(f, frame(f.publishes, n), "torn frame");
                        assert!(f.publishes >= last, "frames went backwards");
                        last = f.publishes;
                        let nc = cell.read_node(1).expect("in range");
                        assert_eq!(nc.node, frame(nc.publishes, n).nodes[1]);
                        seen += 1;
                        progress.fetch_add(1, Ordering::Relaxed);
                    }
                    seen
                })
            })
            .collect();
        stop_after_progress(&cell, &progress, &stop);
        let frames = writer.join().expect("writer");
        let mut total = 0;
        for r in readers {
            total += r.join().expect("reader");
        }
        assert!(frames > 100, "writer made progress ({frames} frames)");
        assert!(total > 100, "readers made progress ({total} reads)");
    }
}
