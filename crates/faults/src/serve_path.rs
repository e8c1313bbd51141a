//! Deterministic fault injection for the **serving path** (`nti-serve`).
//!
//! The simulation-side [`FaultPlan`](crate::FaultPlan) schedules faults in
//! *simulation* time; the serving layer lives in *wall-clock* time — shard
//! threads draining real UDP sockets while the simulation publishes status
//! frames at its own pace. A [`ServeFaultPlan`] is the serve-side analogue:
//! a schedule of [`ServeFaultEpisode`]s whose windows are wall-clock offsets
//! from server start, applied by a seeded [`ServeFaultInjector`]:
//!
//! | where            | episode kinds                                       |
//! |------------------|-----------------------------------------------------|
//! | server ingress   | [`ServeFaultKind::IngressDrop`], [`ServeFaultKind::IngressDuplicate`], [`ServeFaultKind::IngressTruncate`], [`ServeFaultKind::IngressCorrupt`] |
//! | offered traffic  | [`ServeFaultKind::Flood`] (abusive datagrams from N spoofed sources) |
//! | upstream ensemble| [`ServeFaultKind::SimStall`] (the publisher wedges; frames freeze) |
//!
//! The ingress kinds mangle datagrams *after* the socket but *before* the
//! codec — the server must classify whatever survives without panicking,
//! answering only well-formed client-mode queries. `Flood` and `SimStall`
//! are consumed by the harness (`e20_abuse`): flood episodes shape the
//! attack traffic generator, stall episodes wedge the simulation thread so
//! the staleness ladder in `nti-serve` is exercised end to end.
//!
//! Determinism follows the crate's contract: all randomness comes from
//! named streams split off one seed ([`ServeFaultInjector::for_shard`]
//! derives per-shard streams so shard threads never share RNG state), and
//! an empty plan draws nothing at all.

use crate::combine;
use nti_simcore::SimRng;
use std::time::Duration;

/// What a serve-path episode does while active.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ServeFaultKind {
    /// Ingress: drop each arriving datagram with `rate` before decode.
    IngressDrop {
        /// Per-datagram drop probability in `[0, 1]`.
        rate: f64,
    },
    /// Ingress: process each arriving datagram twice with `rate`
    /// (a duplicated request must produce at most duplicated replies,
    /// never corrupted state).
    IngressDuplicate {
        /// Per-datagram duplication probability in `[0, 1]`.
        rate: f64,
    },
    /// Ingress: truncate each arriving datagram to a uniform prefix with
    /// `rate` (hostile short reads; the codec must reject, not panic).
    IngressTruncate {
        /// Per-datagram truncation probability in `[0, 1]`.
        rate: f64,
    },
    /// Ingress: XOR one uniformly-chosen byte of the datagram with a
    /// non-zero mask with `rate` (bit rot anywhere in the header or
    /// trailer; decode must stay total).
    IngressCorrupt {
        /// Per-datagram corruption probability in `[0, 1]`.
        rate: f64,
    },
    /// Harness: an abuse episode — `sources` distinct spoofed origins
    /// send hostile datagrams as fast as they can while the window is
    /// open. Consumed by the load harness, not the server.
    Flood {
        /// How many distinct attack sources (sockets) fire concurrently.
        sources: usize,
    },
    /// Harness: the simulation thread stalls — no frame is published while
    /// the window is open, so served frames age and the staleness ladder
    /// (stratum escalation → dispersion widening → KoD) must engage.
    SimStall,
}

/// One scheduled serve-path fault: a [`ServeFaultKind`] active while
/// `from <= elapsed < until` (offsets from server/harness start).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ServeFaultEpisode {
    /// Activation start (inclusive), as wall-clock offset from start.
    pub from: Duration,
    /// Activation end (exclusive).
    pub until: Duration,
    /// What happens.
    pub kind: ServeFaultKind,
}

impl ServeFaultEpisode {
    /// Is the episode active at wall offset `now`?
    pub fn active(&self, now: Duration) -> bool {
        self.from <= now && now < self.until
    }
}

/// A deterministic schedule of serve-path faults. An empty plan injects
/// nothing and leaves the serving path byte-identical to an uninjected one.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ServeFaultPlan {
    episodes: Vec<ServeFaultEpisode>,
}

impl ServeFaultPlan {
    /// An empty plan (no serve-path faults).
    pub fn new() -> Self {
        ServeFaultPlan::default()
    }

    /// True when the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.episodes.is_empty()
    }

    /// The scheduled episodes.
    pub fn episodes(&self) -> &[ServeFaultEpisode] {
        &self.episodes
    }

    /// Append an episode.
    pub fn push(&mut self, episode: ServeFaultEpisode) {
        self.episodes.push(episode);
    }

    /// Builder-style [`ServeFaultPlan::push`].
    pub fn with(mut self, episode: ServeFaultEpisode) -> Self {
        self.push(episode);
        self
    }

    /// Builder: ingress mangling (drop + truncate + corrupt + duplicate,
    /// each at `rate`) active over `[from, until)`.
    pub fn mangle_ingress(self, from: Duration, until: Duration, rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "rate must be in [0,1]");
        self.with(ServeFaultEpisode {
            from,
            until,
            kind: ServeFaultKind::IngressDrop { rate },
        })
        .with(ServeFaultEpisode {
            from,
            until,
            kind: ServeFaultKind::IngressTruncate { rate },
        })
        .with(ServeFaultEpisode {
            from,
            until,
            kind: ServeFaultKind::IngressCorrupt { rate },
        })
        .with(ServeFaultEpisode {
            from,
            until,
            kind: ServeFaultKind::IngressDuplicate { rate },
        })
    }

    /// Builder: a flood episode from `sources` spoofed origins.
    pub fn flood(self, from: Duration, until: Duration, sources: usize) -> Self {
        self.with(ServeFaultEpisode {
            from,
            until,
            kind: ServeFaultKind::Flood { sources },
        })
    }

    /// Builder: a sim-stall episode.
    pub fn stall(self, from: Duration, until: Duration) -> Self {
        self.with(ServeFaultEpisode {
            from,
            until,
            kind: ServeFaultKind::SimStall,
        })
    }

    /// The first flood episode, if any (the harness shapes its attack
    /// phase from it).
    pub fn flood_episode(&self) -> Option<(Duration, Duration, usize)> {
        self.episodes.iter().find_map(|e| match e.kind {
            ServeFaultKind::Flood { sources } => Some((e.from, e.until, sources)),
            _ => None,
        })
    }

    /// The first sim-stall episode, if any.
    pub fn stall_episode(&self) -> Option<(Duration, Duration)> {
        self.episodes.iter().find_map(|e| match e.kind {
            ServeFaultKind::SimStall => Some((e.from, e.until)),
            _ => None,
        })
    }

    /// Is a sim-stall episode active at wall offset `now`?
    pub fn stalled(&self, now: Duration) -> bool {
        self.episodes
            .iter()
            .any(|e| matches!(e.kind, ServeFaultKind::SimStall) && e.active(now))
    }
}

/// What the ingress injector decided for one arriving datagram.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IngressFate {
    /// Process the datagram as received.
    Deliver,
    /// Discard the datagram before decode.
    Drop,
    /// Process the datagram twice.
    Duplicate,
    /// Process only the first `len` bytes.
    Truncate {
        /// Surviving prefix length (strictly less than the original).
        len: usize,
    },
    /// XOR byte `at` with `mask` (non-zero), then process.
    Corrupt {
        /// Index of the corrupted byte.
        at: usize,
        /// Non-zero XOR mask.
        mask: u8,
    },
}

/// Applies the ingress episodes of a [`ServeFaultPlan`] with a seeded,
/// per-shard RNG stream. One injector per shard thread: shard `i` draws
/// from the `serve.ingress/<i>` stream, so shard threads never contend and
/// a run's decisions depend only on (seed, shard, arrival sequence).
#[derive(Debug)]
pub struct ServeFaultInjector {
    episodes: Vec<ServeFaultEpisode>,
    rng: SimRng,
}

impl ServeFaultInjector {
    /// Build the injector for shard `shard`, deriving its stream from `rng`.
    pub fn for_shard(plan: &ServeFaultPlan, rng: &SimRng, shard: usize) -> Self {
        ServeFaultInjector {
            episodes: plan.episodes.clone(),
            rng: rng.split_idx("serve.ingress", shard as u64),
        }
    }

    /// True when the plan schedules no ingress episodes at all (the server
    /// can skip the per-datagram consultation entirely).
    pub fn has_ingress(&self) -> bool {
        self.episodes.iter().any(|e| {
            matches!(
                e.kind,
                ServeFaultKind::IngressDrop { .. }
                    | ServeFaultKind::IngressDuplicate { .. }
                    | ServeFaultKind::IngressTruncate { .. }
                    | ServeFaultKind::IngressCorrupt { .. }
            )
        })
    }

    /// Decide the fate of one arriving `len`-byte datagram at wall offset
    /// `now`. Draws only while at least one matching episode is active, so
    /// outside every window the arrival sequence is undisturbed. At most
    /// one fault applies per datagram (drop > truncate > corrupt >
    /// duplicate when several fire on the same draw).
    pub fn ingress_fate(&mut self, now: Duration, len: usize) -> IngressFate {
        let p = |want: fn(&ServeFaultKind) -> Option<f64>| {
            combine(self.episodes.iter().filter_map(|e| {
                if e.active(now) {
                    want(&e.kind)
                } else {
                    None
                }
            }))
        };
        let p_drop = p(|k| match k {
            ServeFaultKind::IngressDrop { rate } => Some(*rate),
            _ => None,
        });
        if p_drop > 0.0 && self.rng.chance(p_drop) {
            return IngressFate::Drop;
        }
        let p_trunc = p(|k| match k {
            ServeFaultKind::IngressTruncate { rate } => Some(*rate),
            _ => None,
        });
        if len > 0 && p_trunc > 0.0 && self.rng.chance(p_trunc) {
            return IngressFate::Truncate {
                len: self.rng.below(len as u64) as usize,
            };
        }
        let p_corrupt = p(|k| match k {
            ServeFaultKind::IngressCorrupt { rate } => Some(*rate),
            _ => None,
        });
        if len > 0 && p_corrupt > 0.0 && self.rng.chance(p_corrupt) {
            return IngressFate::Corrupt {
                at: self.rng.below(len as u64) as usize,
                mask: self.rng.range_inclusive(1, 255) as u8,
            };
        }
        let p_dup = p(|k| match k {
            ServeFaultKind::IngressDuplicate { rate } => Some(*rate),
            _ => None,
        });
        if p_dup > 0.0 && self.rng.chance(p_dup) {
            return IngressFate::Duplicate;
        }
        IngressFate::Deliver
    }
}

/// Hostile-traffic shapes a flood source cycles through.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FloodShape {
    /// A runt: fewer than 48 bytes, rejected by the codec.
    Runt,
    /// Uniform garbage, 48..=1200 bytes (decodes to an arbitrary header).
    Garbage,
    /// A well-formed non-client-mode packet (must be ignored, not echoed).
    ForeignMode,
    /// A well-formed client-mode query — rate abuse from a single source;
    /// the admission ladder, not the codec, must contain it.
    AbusiveQuery,
}

/// Deterministic generator of abusive datagrams for one flood source.
/// Source `i` draws from the `serve.flood/<i>` stream.
#[derive(Debug)]
pub struct FloodSource {
    rng: SimRng,
    seq: u64,
}

impl FloodSource {
    /// Build the generator for flood source `source`.
    pub fn new(rng: &SimRng, source: usize) -> Self {
        FloodSource {
            rng: rng.split_idx("serve.flood", source as u64),
            seq: 0,
        }
    }

    /// Fill `buf` with the next hostile datagram; returns its length and
    /// shape. `buf` must hold at least 1200 bytes.
    pub fn next_datagram(&mut self, buf: &mut [u8]) -> (usize, FloodShape) {
        assert!(buf.len() >= 1200, "flood scratch buffer too small");
        self.seq = self.seq.wrapping_add(1);
        let shape = match self.rng.below(4) {
            0 => FloodShape::Runt,
            1 => FloodShape::Garbage,
            2 => FloodShape::ForeignMode,
            _ => FloodShape::AbusiveQuery,
        };
        let len = match shape {
            FloodShape::Runt => {
                let n = self.rng.below(48) as usize;
                self.rng.fill_bytes(&mut buf[..n]);
                n
            }
            FloodShape::Garbage => {
                let n = self.rng.range_inclusive(48, 1200) as usize;
                self.rng.fill_bytes(&mut buf[..n]);
                n
            }
            FloodShape::ForeignMode => {
                self.rng.fill_bytes(&mut buf[..48]);
                // LI 0 / version 4 / a mode that is not 3 (client).
                let mode = [0u8, 1, 2, 4, 5, 6, 7][self.rng.below(7) as usize];
                buf[0] = (4 << 3) | mode;
                48
            }
            FloodShape::AbusiveQuery => {
                buf[..48].fill(0);
                buf[0] = (4 << 3) | 3; // v4 client mode
                                       // A moving transmit nonce so replies (if any) look distinct.
                buf[40..48].copy_from_slice(&self.seq.to_be_bytes());
                48
            }
        };
        (len, shape)
    }
}

/// Deterministic arbitrary-datagram corpus for decoder fuzz replay: `n`
/// pseudo-random datagrams (lengths 0..=`max_len`) from the
/// `serve.fuzz` stream of `seed`. The `e20_abuse` smoke gate replays the
/// corpus through the full classify/respond path; tests replay it through
/// the codec. Same seed ⇒ same corpus, so a failure reproduces exactly.
pub fn fuzz_corpus(seed: u64, n: usize, max_len: usize) -> Vec<Vec<u8>> {
    let mut rng = SimRng::new(seed).split("serve.fuzz");
    (0..n)
        .map(|_| {
            // Bias towards header-sized datagrams so the interesting
            // decode paths (exactly 48, 48±few, huge trailers) all appear.
            let len = match rng.below(4) {
                0 => rng.below(64) as usize,
                1 => 40 + rng.below(16) as usize,
                _ => rng.below(max_len.max(1) as u64) as usize,
            };
            let mut d = vec![0u8; len];
            rng.fill_bytes(&mut d);
            d
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    #[test]
    fn empty_plan_never_draws_and_always_delivers() {
        let plan = ServeFaultPlan::new();
        assert!(plan.is_empty());
        let mut inj = ServeFaultInjector::for_shard(&plan, &SimRng::new(7), 0);
        assert!(!inj.has_ingress());
        for i in 0..100 {
            assert_eq!(inj.ingress_fate(ms(i), 48), IngressFate::Deliver);
        }
    }

    #[test]
    fn windows_gate_ingress_decisions() {
        let plan = ServeFaultPlan::new().with(ServeFaultEpisode {
            from: ms(10),
            until: ms(20),
            kind: ServeFaultKind::IngressDrop { rate: 1.0 },
        });
        let mut inj = ServeFaultInjector::for_shard(&plan, &SimRng::new(7), 0);
        assert!(inj.has_ingress());
        assert_eq!(inj.ingress_fate(ms(9), 48), IngressFate::Deliver);
        assert_eq!(inj.ingress_fate(ms(10), 48), IngressFate::Drop);
        assert_eq!(inj.ingress_fate(ms(19), 48), IngressFate::Drop);
        assert_eq!(inj.ingress_fate(ms(20), 48), IngressFate::Deliver);
    }

    #[test]
    fn truncate_and_corrupt_stay_in_bounds() {
        let plan = ServeFaultPlan::new()
            .with(ServeFaultEpisode {
                from: ms(0),
                until: ms(1000),
                kind: ServeFaultKind::IngressTruncate { rate: 0.5 },
            })
            .with(ServeFaultEpisode {
                from: ms(0),
                until: ms(1000),
                kind: ServeFaultKind::IngressCorrupt { rate: 0.5 },
            });
        let mut inj = ServeFaultInjector::for_shard(&plan, &SimRng::new(3), 1);
        let mut saw_truncate = false;
        let mut saw_corrupt = false;
        for i in 0..500 {
            match inj.ingress_fate(ms(i % 1000), 48) {
                IngressFate::Truncate { len } => {
                    assert!(len < 48);
                    saw_truncate = true;
                }
                IngressFate::Corrupt { at, mask } => {
                    assert!(at < 48);
                    assert_ne!(mask, 0);
                    saw_corrupt = true;
                }
                IngressFate::Deliver => {}
                f => panic!("unexpected fate {f:?}"),
            }
        }
        assert!(saw_truncate && saw_corrupt);
    }

    #[test]
    fn shard_streams_are_independent_and_deterministic() {
        let plan = ServeFaultPlan::new().mangle_ingress(ms(0), ms(1000), 0.3);
        let seed = SimRng::new(0xE20);
        let fates = |shard: usize| {
            let mut inj = ServeFaultInjector::for_shard(&plan, &seed, shard);
            (0..64)
                .map(|i| inj.ingress_fate(ms(i), 256))
                .collect::<Vec<_>>()
        };
        assert_eq!(fates(0), fates(0), "same shard replays identically");
        assert_ne!(fates(0), fates(1), "shards draw independent streams");
    }

    #[test]
    fn plan_queries_find_flood_and_stall() {
        let plan = ServeFaultPlan::new()
            .flood(ms(100), ms(200), 8)
            .stall(ms(300), ms(450));
        assert_eq!(plan.flood_episode(), Some((ms(100), ms(200), 8)));
        assert_eq!(plan.stall_episode(), Some((ms(300), ms(450))));
        assert!(!plan.stalled(ms(299)));
        assert!(plan.stalled(ms(300)));
        assert!(!plan.stalled(ms(450)));
        assert_eq!(ServeFaultPlan::new().flood_episode(), None);
    }

    #[test]
    fn flood_sources_emit_every_shape_deterministically() {
        let rng = SimRng::new(42);
        let mut src = FloodSource::new(&rng, 0);
        let mut buf = [0u8; 1200];
        let mut shapes = std::collections::HashSet::new();
        for _ in 0..64 {
            let (len, shape) = src.next_datagram(&mut buf);
            shapes.insert(shape);
            match shape {
                FloodShape::Runt => assert!(len < 48),
                FloodShape::Garbage => assert!((48..=1200).contains(&len)),
                FloodShape::ForeignMode => {
                    assert_eq!(len, 48);
                    assert_ne!(buf[0] & 0x7, 3, "never client mode");
                }
                FloodShape::AbusiveQuery => {
                    assert_eq!(len, 48);
                    assert_eq!(buf[0] & 0x7, 3);
                }
            }
        }
        assert_eq!(shapes.len(), 4, "all shapes appear in 64 draws");
        // Replay: the same (seed, source) reproduces the same bytes.
        let mut a = FloodSource::new(&rng, 0);
        let mut b = FloodSource::new(&rng, 0);
        let (mut ba, mut bb) = ([0u8; 1200], [0u8; 1200]);
        for _ in 0..16 {
            let (la, sa) = a.next_datagram(&mut ba);
            let (lb, sb) = b.next_datagram(&mut bb);
            assert_eq!((la, sa), (lb, sb));
            assert_eq!(ba[..la], bb[..lb]);
        }
    }

    #[test]
    fn fuzz_corpus_is_reproducible_and_bounded() {
        let a = fuzz_corpus(9, 128, 65536);
        let b = fuzz_corpus(9, 128, 65536);
        assert_eq!(a, b);
        assert_eq!(a.len(), 128);
        assert!(a.iter().all(|d| d.len() <= 65536));
        assert!(
            a.iter().filter(|d| (40..64).contains(&d.len())).count() >= 16,
            "corpus is biased towards header-boundary lengths"
        );
        assert_ne!(fuzz_corpus(10, 128, 65536), a, "seed changes the corpus");
    }
}
