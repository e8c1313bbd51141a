//! Per-call timings of each layer's public hot function, driven
//! standalone on inputs shaped like the workload ("replay"). A layer's
//! estimated share of a run is its call count times its replay cost,
//! divided by the run's wall time.

use nti_core::cluster::csp_frame_bits;
use nti_core::convergence::oa;
use nti_core::interval::AccInterval;
use nti_core::status::{ClusterStatus, StatusCell};
use nti_kernel::{Kernel, KernelConfig};
use nti_netsim::{Comco, ComcoTiming, Medium, MediumConfig};
use nti_obs::{MetricKey, SimObserver};
use nti_serve::admission::{AdmissionConfig, ClientTable};
use nti_serve::clock::ClockHandle;
use nti_serve::packet::{NtpPacket, MODE_CLIENT};
use nti_serve::server::classify;
use nti_simcore::ntp::NtpTime;
use nti_simcore::{Engine, SimDuration, SimRng, SimTime};
use nti_utcsu::{Utcsu, UtcsuConfig};
use std::hint::black_box;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Instant;

/// Median ns per call of `f` over `reps` batches of `batch` calls, after
/// one untimed warm-up batch. `f` gets the call index.
fn per_call_ns(batch: u64, reps: usize, mut f: impl FnMut(u64)) -> f64 {
    let mut i = 0u64;
    let mut batch_run = |f: &mut dyn FnMut(u64)| {
        let t0 = Instant::now();
        for _ in 0..batch {
            f(i);
            i += 1;
        }
        t0.elapsed().as_nanos() as f64 / batch as f64
    };
    batch_run(&mut f);
    let xs: Vec<f64> = (0..reps).map(|_| batch_run(&mut f)).collect();
    crate::stats::median(&xs)
}

const BATCH: u64 = 50_000;
const REPS: usize = 5;

/// The engine's per-event cost at queue depth `depth`: schedule one
/// event at a random delay (mean gap `gap` between events, as in the
/// workload) and run the queue to its next event, keeping the depth
/// steady. Returns ns per fired event.
pub fn dispatch_ns(depth: usize, gap: SimDuration, seed: u64) -> f64 {
    let mut eng: Engine<u64> = Engine::new();
    let mut rng = SimRng::new(seed);
    let horizon = gap.as_fs().max(1) as u64 * 2 * depth.max(1) as u64;
    for _ in 0..depth {
        let at = eng.now() + SimDuration::from_fs(rng.below(horizon) as u128);
        eng.schedule_at(at, |s: &mut u64, _| *s += 1);
    }
    let mut fired = 0u64;
    let mut samples = Vec::new();
    for rep in 0..=REPS {
        let before = fired;
        let t0 = Instant::now();
        for _ in 0..BATCH {
            let at = eng.now() + SimDuration::from_fs(rng.below(horizon) as u128);
            eng.schedule_at(at, |s: &mut u64, _| *s += 1);
            if let Some(next) = eng.next_event_time() {
                eng.run_until(&mut fired, next);
            }
        }
        let ns = t0.elapsed().as_nanos() as f64;
        if rep > 0 {
            samples.push(ns / (fired - before).max(1) as f64);
        }
    }
    crate::stats::median(&samples)
}

/// `Comco::plan_receive` for one 64-byte-header reception.
pub fn plan_rx_ns(seed: u64) -> f64 {
    let mut c = Comco::new(ComcoTiming::i82596(), 10_000_000, SimRng::new(seed));
    per_call_ns(BATCH, REPS, |i| {
        black_box(c.plan_receive(SimTime::from_micros(i * 100), 64));
    })
}

/// `Comco::plan_transmit` for one 64-byte-header transmission.
pub fn plan_tx_ns(seed: u64) -> f64 {
    let mut c = Comco::new(ComcoTiming::i82596(), 10_000_000, SimRng::new(seed));
    per_call_ns(BATCH, REPS, |i| {
        black_box(c.plan_transmit(SimTime::from_micros(1000 + i * 100), 64));
    })
}

/// `Medium::grant` with transmitters becoming ready every `gap`, the
/// workload's mean spacing between grants on one segment.
pub fn grant_ns(gap: SimDuration, seed: u64) -> f64 {
    let mut m = Medium::new(MediumConfig::ethernet_10m(), SimRng::new(seed));
    let bits = csp_frame_bits();
    per_call_ns(BATCH, REPS, |i| {
        let ready = SimTime::ZERO + SimDuration::from_fs(gap.as_fs() * i as u128);
        black_box(m.grant(ready, bits));
    })
}

/// `Utcsu::trigger_ssu_receive` on a running chip.
pub fn trigger_ns() -> f64 {
    let mut u = Utcsu::new(UtcsuConfig {
        fosc_hz: 10_000_000,
        reliable_pin: true,
    });
    u.sync_run();
    per_call_ns(BATCH, REPS, |_| {
        black_box(u.trigger_ssu_receive(0));
    })
}

/// One reception's kernel path: `isr_entry` + `isr_body` +
/// `task_dispatch`.
pub fn isr_ns(seed: u64) -> f64 {
    let mut k = Kernel::new(KernelConfig::psos_mvme162(), SimRng::new(seed));
    per_call_ns(BATCH, REPS, |_| {
        black_box(k.isr_entry() + k.isr_body() + k.task_dispatch());
    })
}

/// `convergence::oa` over `n` compatible intervals with fault degree `f`.
pub fn oa_ns(n: usize, f: usize, seed: u64) -> f64 {
    let mut rng = SimRng::new(seed);
    let base = SimTime::from_secs(30);
    let intervals: Vec<AccInterval> = (0..n.max(1))
        .map(|_| {
            let off = SimDuration::from_nanos(rng.below(5_000));
            let hw = SimDuration::from_nanos(10_000 + rng.below(10_000));
            AccInterval::from_halfwidth(NtpTime::from_sim_time(base + off), hw)
        })
        .collect();
    let batch = (BATCH / n.max(1) as u64).max(100);
    per_call_ns(batch, REPS, |_| {
        black_box(oa(black_box(&intervals), f));
    })
}

/// One counter increment plus one histogram record on an enabled
/// registry: the metrics-on cost of an instrumentation site.
pub fn update_ns() -> f64 {
    let obs = SimObserver::enabled();
    let c = obs
        .counter(MetricKey::global("bench", "c"))
        .expect("enabled observer");
    let h = obs
        .hist(MetricKey::global("bench", "h"))
        .expect("enabled observer");
    per_call_ns(BATCH, REPS, |i| {
        c.inc();
        h.record(black_box(i & 0xFFFF));
    })
}

/// A client-mode request as it arrives on the wire.
fn request(i: u64) -> [u8; 48] {
    NtpPacket {
        version: 4,
        mode: MODE_CLIENT,
        transmit_ts: i,
        ..NtpPacket::default()
    }
    .encode()
}

/// Serve-side replays: `(decode, classify, check, respond, encode)` ns
/// per call, with `respond` reading node 0 of a cell holding `frame`.
pub fn serve_ns(frame: &ClusterStatus) -> [f64; 5] {
    let req = request(42);
    let decode = per_call_ns(BATCH, REPS, |_| {
        black_box(NtpPacket::decode(black_box(&req)).ok());
    });
    let classify = per_call_ns(BATCH, REPS, |_| {
        black_box(classify(black_box(&req)));
    });
    let mut table = ClientTable::new(&AdmissionConfig {
        rate_per_sec: 10_000_000,
        burst: 10_000_000,
        ..AdmissionConfig::default()
    });
    let peer: SocketAddr = "127.0.0.1:40000".parse().expect("literal address");
    let check = per_call_ns(BATCH, REPS, |i| {
        black_box(table.check(peer, i * 1_000));
    });
    let cell = Arc::new(StatusCell::new(frame.nodes.len()));
    cell.publish(frame);
    let handle = ClockHandle::new(cell, 0);
    let parsed = NtpPacket::decode(&req).expect("well-formed request");
    let respond = per_call_ns(BATCH, REPS, |_| {
        black_box(handle.respond(black_box(&parsed)));
    });
    let resp = handle.respond(&parsed);
    let encode = per_call_ns(BATCH, REPS, |_| {
        black_box(black_box(&resp).encode());
    });
    [decode, classify, check, respond, encode]
}
