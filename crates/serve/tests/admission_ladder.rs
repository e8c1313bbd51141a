//! End-to-end hardening tests over loopback: the admission ladder as a
//! client experiences it (answered → KoD `RATE` → silence → forgiveness
//! after idle), table evictions reaching the server's counters,
//! drain-loop fairness under an asymmetric flood, and stale-ensemble
//! degradation visible on the wire.

use nti_core::health::HealthState;
use nti_core::status::{ClusterStatus, NodeStatus, StatusCell};
use nti_obs::{MetricKey, SimObserver};
use nti_serve::clock::{ClockHandle, StalenessPolicy};
use nti_serve::loadgen::containment_holds;
use nti_serve::packet::{NtpPacket, KISS_RATE, KISS_STALE, MODE_CLIENT, MODE_SERVER};
use nti_serve::server::{Server, ServerConfig};
use nti_serve::{AdmissionConfig, TelemetryConfig};
use nti_simcore::ntp::NtpTime;
use nti_simcore::time::{SimDuration, SimTime};
use std::net::UdpSocket;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Sandboxes without loopback sockets skip the whole file.
fn loopback_available() -> bool {
    UdpSocket::bind("127.0.0.1:0").is_ok()
}

fn frame(publishes: u64) -> ClusterStatus {
    let fs = SimTime::from_secs(42).as_fs();
    ClusterStatus {
        publishes,
        sim_time_fs: fs,
        ref_time_fs: fs,
        nodes: vec![NodeStatus {
            clock: NtpTime::from_raw((fs / 1_000_000_000_000_000) << nti_simcore::ntp::FRAC_BITS),
            alpha_minus: SimDuration::from_micros(5),
            alpha_plus: SimDuration::from_micros(5),
            state: HealthState::Synchronized,
            down: false,
        }],
    }
}

/// One query; `None` on timeout (the silent-drop rung).
fn try_query(client: &UdpSocket, nonce: u64) -> Option<NtpPacket> {
    let req = NtpPacket {
        version: 4,
        mode: MODE_CLIENT,
        transmit_ts: nonce,
        ..NtpPacket::default()
    };
    client.send(&req.encode()).expect("send query");
    let mut buf = [0u8; 96];
    loop {
        let n = match client.recv(&mut buf) {
            Ok(n) => n,
            Err(_) => return None,
        };
        let resp = NtpPacket::decode(&buf[..n]).expect("well-formed response");
        assert_eq!(resp.mode, MODE_SERVER);
        if resp.origin_ts == nonce {
            return Some(resp);
        }
        // A late answer to an earlier nonce: skip it, keep waiting.
    }
}

/// The full ladder as one client walks it: burst answered, then KoD
/// `RATE` at the capped reply budget, then pure silence, and — after
/// backing off — service again. No blacklist, no amnesty shortcut.
#[test]
fn rate_limit_ladder_walks_ok_kod_silence_recovery() {
    if !loopback_available() {
        eprintln!("skipping: loopback sockets unavailable in this sandbox");
        return;
    }
    let cell = Arc::new(StatusCell::new(1));
    cell.publish(&frame(1));
    let server = Server::bind(
        &ServerConfig {
            admission: Some(AdmissionConfig {
                rate_per_sec: 1,
                burst: 3,
                kod_per_sec: 1,
                kod_burst: 2,
                capacity: 64,
                seed: 42,
            }),
            ..ServerConfig::default()
        },
        ClockHandle::new(cell, 0),
    )
    .expect("bind server");
    let addr = server.local_addrs()[0];
    let running = server.start();

    let client = UdpSocket::bind("127.0.0.1:0").expect("client bind");
    client.connect(addr).expect("connect");
    client
        .set_read_timeout(Some(Duration::from_millis(100)))
        .expect("timeout");

    // Rung 1: the burst of 3 is served real time.
    for q in 0..3u64 {
        let resp = try_query(&client, 0x100 + q).expect("burst query answered");
        assert_eq!(resp.stratum, 1, "query {q} served normally");
    }
    // Rung 2: over budget — KoD RATE, origin still echoed.
    for q in 0..2u64 {
        let resp = try_query(&client, 0x200 + q).expect("KoD rung still replies");
        assert!(resp.is_kod(), "query {q} refused");
        assert_eq!(resp.ref_id, KISS_RATE);
        assert_eq!(resp.transmit_ts, 0, "KoD claims no time");
    }
    // Rung 3: both buckets dry — silence, however hard we hammer.
    for q in 0..3u64 {
        assert!(
            try_query(&client, 0x300 + q).is_none(),
            "query {q} must be silently dropped"
        );
    }
    // Recovery: ~1.6 s of idleness refills at 1 token/s.
    std::thread::sleep(Duration::from_millis(1600));
    let resp = try_query(&client, 0x400).expect("served again after backing off");
    assert_eq!(resp.stratum, 1, "forgiveness, not a blacklist");

    // A different client was never limited by our abuse.
    let other = UdpSocket::bind("127.0.0.1:0").expect("client bind");
    other.connect(addr).expect("connect");
    other
        .set_read_timeout(Some(Duration::from_millis(500)))
        .expect("timeout");
    let resp = try_query(&other, 0x500).expect("other client unaffected");
    assert_eq!(resp.stratum, 1);

    let snap = running.stop();
    assert_eq!(snap.rate_kod, 2);
    assert_eq!(snap.dropped, 3);
    assert!(snap.queries >= 5, "admitted: 3 burst + recovery + other");
}

/// Eight clients through a four-slot admission table: every query is
/// admitted (a fresh client gets a full burst) and each client past the
/// fourth evicts one, so the server counts 4 evictions. With telemetry
/// on, every `serve/<name>` registry counter equals the snapshot field of
/// the same name.
#[test]
fn evictions_reach_the_server_counters() {
    if !loopback_available() {
        eprintln!("skipping: loopback sockets unavailable in this sandbox");
        return;
    }
    let obs = SimObserver::enabled();
    let cell = Arc::new(StatusCell::new(1));
    cell.publish(&frame(1));
    let server = Server::bind(
        &ServerConfig {
            admission: Some(AdmissionConfig {
                capacity: 4,
                ..AdmissionConfig::default()
            }),
            telemetry: TelemetryConfig {
                obs: obs.clone(),
                ..TelemetryConfig::default()
            },
            ..ServerConfig::default()
        },
        ClockHandle::new(cell, 0),
    )
    .expect("bind server");
    let addr = server.local_addrs()[0];
    let running = server.start();
    for c in 0..8u64 {
        let client = UdpSocket::bind("127.0.0.1:0").expect("client bind");
        client.connect(addr).expect("connect");
        client
            .set_read_timeout(Some(Duration::from_secs(2)))
            .expect("timeout");
        let resp = try_query(&client, 0x800 + c).expect("fresh client answered");
        assert_eq!(resp.stratum, 1);
    }
    let snap = running.stop();
    assert_eq!(snap.queries, 8);
    assert_eq!(snap.evictions, 4);
    for (name, value) in snap.fields() {
        let counter = obs
            .counter(MetricKey::global("serve", name))
            .expect("enabled observer");
        assert_eq!(counter.get(), *value, "serve/{name}");
    }
}

/// Regression for the drain-loop bound: one shard under a garbage flood
/// must neither stall its sibling shard nor wedge shutdown. Uses the
/// IPv6 distinct-port fallback so the flood can target one shard
/// precisely.
#[test]
fn asymmetric_flood_does_not_starve_the_sibling_shard() {
    if UdpSocket::bind("[::1]:0").is_err() {
        eprintln!("skipping: IPv6 loopback unavailable in this sandbox");
        return;
    }
    let cell = Arc::new(StatusCell::new(1));
    cell.publish(&frame(1));
    let server = Server::bind(
        &ServerConfig {
            addr: "[::1]:0".parse().expect("literal"),
            shards: 2,
            batch: 8,
            ..ServerConfig::default()
        },
        ClockHandle::new(cell, 0),
    )
    .expect("bind server");
    assert!(!server.reuseport(), "IPv6 base forces distinct ports");
    let flooded = server.local_addrs()[0];
    let quiet = server.local_addrs()[1];
    assert_ne!(flooded, quiet);
    let running = server.start();

    // Flood shard 0 with runts as fast as a socket can send them.
    let stop_flood = Arc::new(AtomicBool::new(false));
    let floods_sent = Arc::new(AtomicU64::new(0));
    let flooder = {
        let stop = Arc::clone(&stop_flood);
        let sent = Arc::clone(&floods_sent);
        std::thread::spawn(move || {
            let sock = UdpSocket::bind("[::1]:0").expect("flood bind");
            let junk = [0xA5u8; 20]; // runt: counted malformed, unanswered
            while !stop.load(Relaxed) {
                if sock.send_to(&junk, flooded).is_ok() {
                    sent.fetch_add(1, Relaxed);
                }
            }
        })
    };

    // Let the flood get going first: 25 loopback queries can finish
    // before the flooder thread is first scheduled, and then the flooded
    // shard never sees a runt.
    let deadline = Instant::now() + Duration::from_secs(10);
    while floods_sent.load(Relaxed) < 1_000 {
        assert!(Instant::now() < deadline, "the flooder never got going");
        std::thread::sleep(Duration::from_millis(1));
    }

    // Meanwhile the sibling shard must keep answering, promptly.
    let client = UdpSocket::bind("[::1]:0").expect("client bind");
    client.connect(quiet).expect("connect");
    client
        .set_read_timeout(Some(Duration::from_secs(2)))
        .expect("timeout");
    for q in 0..25u64 {
        let resp = try_query(&client, 0x600 + q).expect("sibling shard answers under flood");
        assert_eq!(resp.stratum, 1);
    }

    // And shutdown must be prompt *while the flood is still running* —
    // the batch bound guarantees the flooded shard rechecks its stop
    // flag every 8 datagrams no matter how deep the backlog.
    let shutdown_started = Instant::now();
    let snap = running.stop();
    let shutdown_took = shutdown_started.elapsed();
    stop_flood.store(true, Relaxed);
    flooder.join().expect("flooder");

    assert!(
        shutdown_took < Duration::from_secs(2),
        "stop under flood took {shutdown_took:?}"
    );
    assert!(
        snap.malformed > 0,
        "the flood was actually hitting the shard"
    );
    assert_eq!(snap.responses, 25, "only the real queries were answered");
}

/// Stale-ensemble degradation on the wire: a sim that stops publishing
/// drags the served stratum up, widens the claimed interval, and finally
/// flips to KoD `XSTL` — then one fresh frame restores full service.
#[test]
fn stalled_sim_escalates_then_kods_then_recovers() {
    if !loopback_available() {
        eprintln!("skipping: loopback sockets unavailable in this sandbox");
        return;
    }
    let cell = Arc::new(StatusCell::new(1));
    cell.publish(&frame(1));
    let policy = StalenessPolicy {
        fresh: Duration::from_millis(200),
        escalate_every: Duration::from_millis(200),
        kod_after: Duration::from_millis(1200),
        rho_ppm: 100,
    };
    let server = Server::bind(
        &ServerConfig::default(),
        ClockHandle::new(Arc::clone(&cell), 0).with_staleness(policy),
    )
    .expect("bind server");
    let addr = server.local_addrs()[0];
    let running = server.start();

    let client = UdpSocket::bind("127.0.0.1:0").expect("client bind");
    client.connect(addr).expect("connect");
    client
        .set_read_timeout(Some(Duration::from_millis(300)))
        .expect("timeout");

    // Fresh: full service. This query also pins the generation's epoch.
    let first = try_query(&client, 0x700).expect("fresh frame served");
    assert_eq!(first.stratum, 1);
    let fresh_disp = first.root_dispersion;

    // Poll until escalation shows (deadline-bound, not sleep-calibrated:
    // the exact stratum at any instant depends on scheduling).
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut nonce = 0x701u64;
    let escalated = loop {
        assert!(Instant::now() < deadline, "no escalation before deadline");
        let resp = try_query(&client, nonce).expect("escalated frames still answer");
        nonce += 1;
        if resp.stratum > 1 && !resp.is_kod() {
            break resp;
        }
        std::thread::sleep(Duration::from_millis(50));
    };
    assert!(
        escalated.root_dispersion > fresh_disp,
        "staleness widens the claimed interval"
    );
    assert!(
        containment_holds(&escalated),
        "the widened claim still contains reference time"
    );

    // Keep polling: past the budget the server must refuse outright.
    let kod = loop {
        assert!(Instant::now() < deadline, "no KoD before deadline");
        let resp = try_query(&client, nonce).expect("KoD still replies");
        nonce += 1;
        if resp.is_kod() {
            break resp;
        }
        assert!(resp.stratum > 1, "stratum never falls back while stalled");
        std::thread::sleep(Duration::from_millis(50));
    };
    assert_eq!(kod.ref_id, KISS_STALE);
    assert_eq!(kod.transmit_ts, 0, "no time claimed once stale");

    // One fresh generation restores stratum-1 service immediately.
    cell.publish(&frame(2));
    let resp = try_query(&client, nonce).expect("recovered");
    assert_eq!(resp.stratum, 1, "fresh frame, full service");

    running.stop();
}
