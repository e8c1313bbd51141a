//! NTP clients that validate every response: an open-loop generator that
//! sends on a fixed schedule and times each query from when it was due,
//! and a closed-loop client that waits for each answer before the next.

use nti_serve::containment_holds;
use nti_serve::packet::{NtpPacket, MODE_CLIENT, MODE_SERVER};
use std::io::{self, ErrorKind};
use std::net::{SocketAddr, UdpSocket};
use std::time::{Duration, Instant};

/// What one client phase saw.
#[derive(Clone, Debug, Default)]
pub struct Tally {
    /// Queries sent.
    pub sent: u64,
    /// Valid answers to our own queries (KoD included).
    pub received: u64,
    /// Queries that never got an answer.
    pub lost: u64,
    /// Datagrams that failed to decode or were not server mode.
    pub malformed: u64,
    /// Answers whose origin timestamp echoed no outstanding query.
    pub origin_mismatches: u64,
    /// Kiss-o'-death answers.
    pub kod: u64,
    /// Time-claiming answers checked for containment.
    pub containment_checks: u64,
    /// Checks where the reference fell outside the claimed interval.
    pub containment_violations: u64,
    /// Response time of each answered query from its due time, ns, in
    /// query order (open loop only).
    pub latency_ns: Vec<u64>,
    /// How late each query left the generator, ns (open loop only).
    pub late_ns: Vec<u64>,
    /// CPU time the client thread spent in the phase, ns.
    pub cpu_ns: u64,
    /// Answers completed in each consecutive [`WINDOW`] (closed loop).
    pub window_answers: Vec<u64>,
}

/// Closed-loop throughput is counted per window of this length.
pub const WINDOW: Duration = Duration::from_millis(100);

impl Tally {
    /// Queries that failed in any way: lost, malformed, mismatched,
    /// refused, or answered with a broken containment promise.
    pub fn failed(&self) -> u64 {
        self.lost + self.malformed + self.origin_mismatches + self.kod + self.containment_violations
    }

    /// Fold a later phase of the same kind into this one.
    pub fn merge(&mut self, o: Tally) {
        self.sent += o.sent;
        self.received += o.received;
        self.lost += o.lost;
        self.malformed += o.malformed;
        self.origin_mismatches += o.origin_mismatches;
        self.kod += o.kod;
        self.containment_checks += o.containment_checks;
        self.containment_violations += o.containment_violations;
        self.latency_ns.extend(o.latency_ns);
        self.late_ns.extend(o.late_ns);
        self.cpu_ns += o.cpu_ns;
        self.window_answers.extend(o.window_answers);
    }

    /// Answers per wall-clock second: the median over [`WINDOW`]s, so a
    /// transient stall moves one window, not the figure.
    pub fn window_qps(&self) -> f64 {
        let xs: Vec<f64> = self.window_answers.iter().map(|&n| n as f64).collect();
        crate::stats::median(&xs) / WINDOW.as_secs_f64()
    }

    /// Validate one datagram: decode it, recover the query number from its
    /// origin timestamp, and check containment. Returns the query number
    /// when it answers a query `outstanding` accepts.
    fn check(&mut self, bytes: &[u8], salt: u64, outstanding: impl Fn(u64) -> bool) -> Option<u64> {
        let resp = match NtpPacket::decode(bytes) {
            Ok(p) if p.mode == MODE_SERVER => p,
            _ => {
                self.malformed += 1;
                return None;
            }
        };
        let seq = resp.origin_ts ^ salt;
        if !outstanding(seq) {
            self.origin_mismatches += 1;
            return None;
        }
        self.received += 1;
        if resp.is_kod() {
            self.kod += 1;
        } else if (1..=15).contains(&resp.stratum) {
            self.containment_checks += 1;
            if !containment_holds(&resp) {
                self.containment_violations += 1;
            }
        }
        Some(seq)
    }
}

fn query(seq: u64, salt: u64) -> [u8; 48] {
    NtpPacket {
        version: 4,
        mode: MODE_CLIENT,
        transmit_ts: seq ^ salt,
        ..NtpPacket::default()
    }
    .encode()
}

fn socket_for(target: SocketAddr) -> io::Result<UdpSocket> {
    let local = match target {
        SocketAddr::V4(_) => "127.0.0.1:0",
        SocketAddr::V6(_) => "[::1]:0",
    };
    let sock = UdpSocket::bind(local)?;
    sock.connect(target)?;
    Ok(sock)
}

/// Open loop: query `n = rate · duration` times from one socket, query
/// `i` due at `start + i / rate`, regardless of answers. Each response
/// time runs from the due time, so a generator stall is charged to every
/// query it delays; `late_ns` records how late each send actually was.
/// After a stall the backlog goes out at no more than twice the rate,
/// as independent clients would not have bunched up. Answers still
/// missing `grace` after the last due time are lost.
pub fn open_loop(
    target: SocketAddr,
    rate_qps: f64,
    duration: Duration,
    salt: u64,
    start: Instant,
    grace: Duration,
) -> io::Result<Tally> {
    let cpu0 = crate::probe::this_thread_cpu_ns();
    let sock = socket_for(target)?;
    sock.set_nonblocking(true)?;
    let n = (rate_qps * duration.as_secs_f64()).round().max(1.0) as u64;
    let period_ns = 1e9 / rate_qps;
    let due = |i: u64| start + Duration::from_nanos((i as f64 * period_ns) as u64);
    let last_due = due(n - 1);
    // Response time by query number; `None` while unanswered.
    let mut answered: Vec<Option<u64>> = vec![None; n as usize];
    let mut t = Tally {
        late_ns: Vec::with_capacity(n as usize),
        ..Tally::default()
    };
    let min_gap = Duration::from_nanos((period_ns / 2.0) as u64);
    let mut next = 0u64;
    let mut next_allowed = start;
    let mut buf = [0u8; 512];
    loop {
        let now = Instant::now();
        if next < n && due(next) <= now && next_allowed <= now {
            match sock.send(&query(next, salt)) {
                Ok(_) => {
                    t.late_ns
                        .push(now.saturating_duration_since(due(next)).as_nanos() as u64);
                    t.sent += 1;
                    next += 1;
                    next_allowed = now + min_gap;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {}
                Err(e) => return Err(e),
            }
        }
        loop {
            match sock.recv(&mut buf) {
                Ok(len) => {
                    let at = Instant::now();
                    let sent = next;
                    let open = |s: u64| s < sent && answered[s as usize].is_none();
                    if let Some(seq) = t.check(&buf[..len], salt, open) {
                        let ns = at.saturating_duration_since(due(seq)).as_nanos() as u64;
                        answered[seq as usize] = Some(ns);
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                // ICMP-driven errors on a connected socket: the answer
                // is simply missing and will count as lost.
                Err(_) => break,
            }
        }
        if next == n && (t.received == n || Instant::now() > last_due + grace) {
            break;
        }
    }
    t.latency_ns = answered.into_iter().flatten().collect();
    t.lost = n - t.received;
    t.cpu_ns = crate::probe::this_thread_cpu_ns().saturating_sub(cpu0);
    Ok(t)
}

/// Closed loop: one client, one query in flight, for `duration`.
pub fn closed_loop(
    target: SocketAddr,
    duration: Duration,
    salt: u64,
    timeout: Duration,
) -> io::Result<Tally> {
    let cpu0 = crate::probe::this_thread_cpu_ns();
    let sock = socket_for(target)?;
    sock.set_read_timeout(Some(timeout))?;
    let mut t = Tally::default();
    let mut buf = [0u8; 512];
    let start = Instant::now();
    let mut seq = 0u64;
    while start.elapsed() < duration {
        sock.send(&query(seq, salt))?;
        t.sent += 1;
        loop {
            match sock.recv(&mut buf) {
                Ok(len) => {
                    // Only the query in flight is outstanding; a late
                    // answer to an earlier one is a mismatch, keep waiting.
                    if t.check(&buf[..len], salt, |s| s == seq).is_some() {
                        let w = (start.elapsed().as_nanos() / WINDOW.as_nanos()) as usize;
                        if w >= t.window_answers.len() {
                            t.window_answers.resize(w + 1, 0);
                        }
                        t.window_answers[w] += 1;
                        break;
                    }
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => {
                    t.lost += 1;
                    break;
                }
            }
        }
        seq += 1;
    }
    // The last window is cut short by the deadline.
    t.window_answers.pop();
    t.cpu_ns = crate::probe::this_thread_cpu_ns().saturating_sub(cpu0);
    Ok(t)
}
