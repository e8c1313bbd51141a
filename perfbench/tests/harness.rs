//! The benchmark's own tests. Run them optimized (the simulation tests
//! replay a full 128-node run):
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

use nti_obs::SimObserver;
use nti_perfbench::client;
use nti_perfbench::pace::Reference;
use nti_perfbench::sim::{self, Shape};
use nti_serve::packet::{NtpPacket, MODE_SERVER, STRATUM_UNSYNC};
use std::net::UdpSocket;
use std::sync::atomic::{AtomicBool, Ordering::Relaxed};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One observed `sim-lan128` run: its counts and fingerprint.
fn observed_lan128(seed: u64) -> (sim::Counts, u64) {
    let obs = SimObserver::enabled();
    let mut cfg = Shape::Lan128.config(seed);
    cfg.obs = obs.clone();
    let run = sim::run(cfg, None, None);
    assert!(run.clean(), "sim-lan128 seed {seed} broke an invariant");
    (sim::counts(&obs, &run.report), run.fingerprint)
}

#[test]
fn traced_sim_runs_repeat_exactly() {
    let (a, fa) = observed_lan128(17);
    let (b, fb) = observed_lan128(17);
    assert_eq!(fa, fb, "same seed, different behaviour");
    assert_eq!(a, b, "same seed, different counts");
    // The reference shape: 5,919,529 events over 308,863 receptions.
    assert_eq!(a.events, 5_919_529);
    assert_eq!(a.receptions, 308_863);
    assert_eq!(a.csps_sent, 2_432);
}

#[test]
fn observing_a_run_does_not_change_it() {
    let cfg = Shape::Mesh.config(3);
    let mut observed = cfg.clone();
    observed.obs = sim::observer(true);
    let plain = sim::run(cfg, None, None);
    let traced = sim::run(observed, None, None);
    assert!(plain.clean() && traced.clean());
    assert_eq!(plain.fingerprint, traced.fingerprint);
}

#[test]
fn pacing_a_run_does_not_change_it() {
    let cfg = Shape::Mesh.config(3);
    let plain = sim::run(cfg.clone(), None, None);
    let mut reference = Reference::new();
    let paced = sim::run(cfg, None, Some(&mut reference));
    assert!(plain.clean() && paced.clean());
    assert_eq!(plain.fingerprint, paced.fingerprint);
    assert_eq!(
        paced.call_s.len(),
        plain.call_s.len() * sim::CALLS_PER_ROUND
    );
    assert_eq!(paced.round_s.len(), plain.round_s.len());
    let pace = paced.pace.as_ref().expect("a paced run records its gauges");
    assert_eq!(pace.slowdown.len(), pace.block_end.len() + 1);
    assert_eq!(pace.block_end.last(), Some(&paced.call_s.len()));
    assert!(pace.slowdown.iter().all(|&s| s > 0.0));
}

/// A stand-in server answering every query with a well-formed
/// stratum-16 response (no time claimed, so no containment obligation).
fn responder() -> (
    std::net::SocketAddr,
    Arc<AtomicBool>,
    std::thread::JoinHandle<()>,
) {
    let sock = UdpSocket::bind("127.0.0.1:0").expect("bind responder");
    sock.set_read_timeout(Some(Duration::from_millis(20)))
        .expect("timeout");
    let addr = sock.local_addr().expect("addr");
    let stop = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&stop);
    let thread = std::thread::spawn(move || {
        let mut buf = [0u8; 512];
        while !flag.load(Relaxed) {
            let Ok((n, peer)) = sock.recv_from(&mut buf) else {
                continue;
            };
            let req = NtpPacket::decode(&buf[..n]).expect("client sends valid queries");
            let resp = NtpPacket {
                version: 4,
                mode: MODE_SERVER,
                stratum: STRATUM_UNSYNC,
                origin_ts: req.transmit_ts,
                ..NtpPacket::default()
            };
            let _ = sock.send_to(&resp.encode(), peer);
        }
    });
    (addr, stop, thread)
}

#[test]
fn open_loop_times_from_due_time_and_reports_lateness() {
    let (addr, stop, thread) = responder();
    // The schedule started 30 ms ago: the first 30 queries are already
    // overdue, so the generator sends them late and must charge that
    // wait to their response times.
    let behind = Duration::from_millis(30);
    let start = Instant::now() - behind;
    let t = client::open_loop(
        addr,
        1_000.0,
        Duration::from_millis(100),
        0x5EED,
        start,
        Duration::from_millis(500),
    )
    .expect("open loop");
    stop.store(true, Relaxed);
    thread.join().expect("responder");

    assert_eq!(t.sent, 100);
    assert_eq!(t.failed(), 0, "{t:?}");
    assert_eq!(t.late_ns.len(), 100);
    let first_late = Duration::from_nanos(t.late_ns[0]);
    assert!(first_late >= behind, "first query only {first_late:?} late");
    let first_rtt = Duration::from_nanos(t.latency_ns[0]);
    assert!(
        first_rtt >= behind,
        "response time {first_rtt:?} not counted from the due time"
    );
    // Queries due after the generator caught up leave (nearly) on time.
    assert!(t.late_ns[99] < t.late_ns[0]);
}

#[test]
fn closed_loop_counts_every_answer() {
    let (addr, stop, thread) = responder();
    let t = client::closed_loop(
        addr,
        Duration::from_millis(350),
        7,
        Duration::from_millis(500),
    )
    .expect("closed loop");
    stop.store(true, Relaxed);
    thread.join().expect("responder");
    assert!(t.sent > 0);
    assert_eq!(t.failed(), 0, "{t:?}");
    assert_eq!(t.received, t.sent);
    assert!(t.window_qps() > 0.0);
}
