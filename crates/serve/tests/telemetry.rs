//! Integration tests for the serve telemetry plane against a real
//! loopback server: stage histograms fill under full sampling, the
//! registry counters are live *during* the run (not just at shard exit),
//! servers taking turns on one observer each report their own totals,
//! the slow-request flight recorder captures structured traces, and
//! garbage on the metrics port never blocks NTP serving.

use nti_core::health::HealthState;
use nti_core::status::{ClusterStatus, NodeStatus, StatusCell};
use nti_obs::{http_get, Json, LiveConfig, MetricKey, SimObserver};
use nti_serve::clock::ClockHandle;
use nti_serve::packet::{NtpPacket, MODE_CLIENT, MODE_SERVER};
use nti_serve::server::{Server, ServerConfig};
use nti_serve::{TelemetryConfig, STAGES};
use nti_simcore::ntp::{NtpTime, FRAC_BITS};
use nti_simcore::time::{SimDuration, SimTime};
use std::io::Write;
use std::net::{TcpStream, UdpSocket};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Sandboxes without loopback sockets skip the whole file.
fn loopback_available() -> bool {
    UdpSocket::bind("127.0.0.1:0").is_ok()
}

/// A healthy synchronized frame.
fn frame(publishes: u64) -> ClusterStatus {
    let ref_fs = SimTime::from_secs(42).as_fs();
    let clock = NtpTime::from_raw(
        ((ref_fs / 1_000_000_000_000_000) << FRAC_BITS)
            | (((ref_fs % 1_000_000_000_000_000) << FRAC_BITS) / 1_000_000_000_000_000),
    );
    ClusterStatus {
        publishes,
        sim_time_fs: ref_fs,
        ref_time_fs: ref_fs,
        nodes: vec![NodeStatus {
            clock,
            alpha_minus: SimDuration::from_micros(8),
            alpha_plus: SimDuration::from_micros(8),
            state: HealthState::Synchronized,
            down: false,
        }],
    }
}

fn query(client: &UdpSocket, nonce: u64) {
    let req = NtpPacket {
        version: 4,
        mode: MODE_CLIENT,
        transmit_ts: nonce,
        ..NtpPacket::default()
    };
    client.send(&req.encode()).expect("send query");
    let mut buf = [0u8; 96];
    let n = client.recv(&mut buf).expect("response within timeout");
    let resp = NtpPacket::decode(&buf[..n]).expect("well-formed response");
    assert_eq!(resp.mode, MODE_SERVER);
    assert_eq!(resp.origin_ts, nonce);
}

fn client_for(addr: std::net::SocketAddr) -> UdpSocket {
    let client = UdpSocket::bind("127.0.0.1:0").expect("client bind");
    client.connect(addr).expect("connect");
    client
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    client
}

/// Full sampling: every stage histogram fills, and the shared observer
/// sees the query counter move *while the server is still running*.
#[test]
fn stage_timing_and_live_mirror_under_full_sampling() {
    if !loopback_available() {
        eprintln!("skipping: loopback sockets unavailable in this sandbox");
        return;
    }
    const QUERIES: u64 = 64;
    let obs = SimObserver::enabled();
    let cell = Arc::new(StatusCell::new(1));
    cell.publish(&frame(1));
    let server = Server::bind(
        &ServerConfig {
            shards: 2,
            telemetry: TelemetryConfig {
                obs: obs.clone(),
                sample_every: 1,
                live: LiveConfig {
                    window: Duration::from_millis(50),
                    ..LiveConfig::default()
                },
                ..TelemetryConfig::default()
            },
            ..ServerConfig::default()
        },
        ClockHandle::new(Arc::clone(&cell), 0),
    )
    .expect("bind server");
    let addrs: Vec<_> = server.local_addrs().to_vec();
    let running = server.start();

    let clients: Vec<_> = addrs.iter().map(|&a| client_for(a)).collect();
    for i in 0..QUERIES {
        query(&clients[(i % clients.len() as u64) as usize], 0x1000 + i);
    }

    // Shards bump the registry counters themselves, so the shared
    // observer must see all the queries while the server still runs.
    let queries_ctr = obs
        .counter(MetricKey::global("serve", "queries"))
        .expect("enabled observer");
    let deadline = Instant::now() + Duration::from_secs(5);
    while queries_ctr.get() < QUERIES && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(
        queries_ctr.get(),
        QUERIES,
        "all queries visible before stop"
    );

    let snap = running.stop();
    assert_eq!(snap.queries, QUERIES);

    // Per-shard telemetry: every pipeline stage histogram holds samples
    // (sample_every = 1).
    let total_count: u64 = (0..2)
        .filter_map(|s| obs.hist(MetricKey::node(s, "serve", "stage_total_ns")))
        .map(|h| h.count())
        .sum();
    assert_eq!(total_count, QUERIES, "every datagram's total was timed");
    for stage in ["stage_recv_ns", "stage_classify_ns", "stage_lookup_ns"] {
        let n: u64 = (0..2)
            .filter_map(|s| obs.hist(MetricKey::node(s, "serve", stage)))
            .map(|h| h.count())
            .sum();
        assert!(n > 0, "{stage} histogram populated");
    }
}

/// Two telemetry-on servers bound, queried and stopped in turn on one
/// observer: each `stop()` reports its own queries, while the registry
/// counter, the one store, holds both.
#[test]
fn sequential_servers_on_one_observer_report_their_own_counts() {
    if !loopback_available() {
        eprintln!("skipping: loopback sockets unavailable in this sandbox");
        return;
    }
    let obs = SimObserver::enabled();
    let cell = Arc::new(StatusCell::new(1));
    cell.publish(&frame(1));
    for (queries, nonce) in [(3u64, 0x4000u64), (5, 0x5000)] {
        let server = Server::bind(
            &ServerConfig {
                telemetry: TelemetryConfig {
                    obs: obs.clone(),
                    ..TelemetryConfig::default()
                },
                ..ServerConfig::default()
            },
            ClockHandle::new(Arc::clone(&cell), 0),
        )
        .expect("bind server");
        let client = client_for(server.local_addrs()[0]);
        let running = server.start();
        for i in 0..queries {
            query(&client, nonce + i);
        }
        assert_eq!(running.stop().queries, queries, "this server's own count");
    }
    let total = obs
        .counter(MetricKey::global("serve", "queries"))
        .expect("enabled observer");
    assert_eq!(total.get(), 8, "the registry holds both servers' queries");
}

/// With a zero slow threshold every sampled request lands in the flight
/// recorder; `/slow` serves them as strict JSON with a per-stage
/// breakdown that reconciles with the recorded total.
#[test]
fn slow_recorder_dumps_structured_traces() {
    if !loopback_available() {
        eprintln!("skipping: loopback sockets unavailable in this sandbox");
        return;
    }
    let cell = Arc::new(StatusCell::new(1));
    cell.publish(&frame(1));
    let server = Server::bind(
        &ServerConfig {
            telemetry: TelemetryConfig {
                metrics_addr: Some("127.0.0.1:0".parse().expect("addr")),
                sample_every: 1,
                slow_threshold: Duration::ZERO,
                slow_capacity: 32,
                ..TelemetryConfig::default()
            },
            ..ServerConfig::default()
        },
        ClockHandle::new(Arc::clone(&cell), 0),
    )
    .expect("bind server");
    let addr = server.local_addrs()[0];
    let running = server.start();
    let Some(maddr) = running.metrics_addr() else {
        eprintln!("skipping: metrics endpoint could not bind");
        running.stop();
        return;
    };

    let client = client_for(addr);
    for i in 0..8u64 {
        query(&client, 0x2000 + i);
    }

    let body = http_get(maddr, "/slow", Duration::from_secs(2)).expect("/slow answers");
    let dump = Json::parse(&body).expect("slow dump is strict JSON");
    let total = dump
        .get("total_recorded")
        .and_then(Json::as_f64)
        .expect("total_recorded");
    assert!(total >= 8.0, "all 8 queries traced, got {total}");
    let traces = dump.get("traces").and_then(Json::as_arr).expect("traces");
    assert!(!traces.is_empty());
    for t in traces {
        assert_eq!(t.get("verdict").and_then(Json::as_str), Some("admit"));
        let trace_total = t.get("total_ns").and_then(Json::as_f64).expect("total_ns");
        let stages = t.get("stages_ns").expect("stage breakdown");
        let sum: f64 = STAGES
            .iter()
            .filter_map(|s| stages.get(s).and_then(Json::as_f64))
            .sum();
        assert_eq!(sum, trace_total, "stage breakdown sums to the total");
        assert!(
            t.get("client_hash").and_then(Json::as_str).is_some(),
            "traces carry the client correlation hash"
        );
    }
    running.stop();
}

/// Hostile bytes on the metrics TCP port must never interfere with NTP
/// service: queries keep being answered while garbage pours in, and the
/// endpoint itself still answers a well-formed scrape afterwards.
#[test]
fn metrics_port_garbage_never_blocks_serving() {
    if !loopback_available() {
        eprintln!("skipping: loopback sockets unavailable in this sandbox");
        return;
    }
    let cell = Arc::new(StatusCell::new(1));
    cell.publish(&frame(1));
    let server = Server::bind(
        &ServerConfig {
            telemetry: TelemetryConfig {
                metrics_addr: Some("127.0.0.1:0".parse().expect("addr")),
                ..TelemetryConfig::default()
            },
            ..ServerConfig::default()
        },
        ClockHandle::new(Arc::clone(&cell), 0),
    )
    .expect("bind server");
    let addr = server.local_addrs()[0];
    let running = server.start();
    let Some(maddr) = running.metrics_addr() else {
        eprintln!("skipping: metrics endpoint could not bind");
        running.stop();
        return;
    };

    let client = client_for(addr);
    for round in 0..10u64 {
        // Open a connection and pour garbage at the endpoint…
        if let Ok(mut s) = TcpStream::connect_timeout(&maddr, Duration::from_secs(1)) {
            let _ = s.write_all(&[0xff; 1024]);
            // …and leave it dangling (dropped here) while NTP queries run.
        }
        query(&client, 0x3000 + round);
    }
    // The endpoint is still healthy after the abuse.
    let body = http_get(maddr, "/metrics", Duration::from_secs(2)).expect("scrape after garbage");
    assert!(body.contains("nti_serve_queries"));
    let snap = running.stop();
    assert_eq!(snap.queries, 10);
}
