//! Dependency-free metrics exposition: a Prometheus text renderer and a
//! tiny blocking HTTP/1.0 listener to serve it.
//!
//! The renderer walks a [`Registry`] and emits the Prometheus text
//! format (`# HELP` / `# TYPE` + sample lines); per-node metrics become
//! one family with a `node` label, histograms become summaries
//! (`quantile="…"` + `_sum` + `_count`), and when a
//! [`LiveWindows`] is attached its per-window
//! rates and rolling quantiles are appended as gauges. Output is sorted
//! by metric name so scrapes are byte-stable for a quiescent registry —
//! which is what the golden test pins.
//!
//! [`MetricsServer`] is deliberately primitive: one thread, a
//! non-blocking accept loop, HTTP parsed with `find` — in the spirit of
//! `ntpdsim`'s built-in mode-6 status responder rather than a web
//! framework. It exists so an operator can `curl` a running server, not
//! to serve the public internet; bind it to 127.0.0.1 (the serve-side
//! default) unless you know better.

use crate::live::LiveWindows;
use crate::metrics::{MetricHandle, MetricKey, Registry};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::{ErrorKind, Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

/// Sanitize a metric-name fragment to Prometheus's `[a-zA-Z0-9_]`.
fn sanitize(s: &str) -> String {
    s.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

/// The exported name for a key: `nti_<subsystem>_<name>`, sanitized.
pub fn prom_name(key: MetricKey) -> String {
    format!("nti_{}_{}", sanitize(key.subsystem), sanitize(key.name))
}

fn labels(key: MetricKey) -> String {
    match key.node {
        Some(n) => format!("{{node=\"{n}\"}}"),
        None => String::new(),
    }
}

fn labels_q(key: MetricKey, q: &str) -> String {
    match key.node {
        Some(n) => format!("{{node=\"{n}\",quantile=\"{q}\"}}"),
        None => format!("{{quantile=\"{q}\"}}"),
    }
}

enum Kind {
    Counter,
    Gauge,
    Summary,
}

struct Family {
    kind: Kind,
    /// `(key, rendered sample lines)` per series.
    series: Vec<String>,
}

fn fmt_f64(v: f64) -> String {
    if !v.is_finite() {
        "0".into()
    } else if v.fract() == 0.0 && v.abs() < 9.0e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// Render `registry` (plus, optionally, the live windowed view) in
/// Prometheus text exposition format. Families are emitted in name
/// order; per-node series within a family in node order (registration
/// order for ties), each preceded by `# HELP` / `# TYPE`.
pub fn render_prometheus(registry: &Registry, live: Option<&LiveWindows>) -> String {
    let mut fams: BTreeMap<String, Family> = BTreeMap::new();
    for (key, handle) in registry.entries() {
        let name = prom_name(key);
        match handle {
            MetricHandle::Counter(c) => {
                let f = fams.entry(name.clone()).or_insert(Family {
                    kind: Kind::Counter,
                    series: Vec::new(),
                });
                f.series
                    .push(format!("{name}{} {}\n", labels(key), c.get()));
            }
            MetricHandle::Gauge(g) => {
                let f = fams.entry(name.clone()).or_insert(Family {
                    kind: Kind::Gauge,
                    series: Vec::new(),
                });
                f.series
                    .push(format!("{name}{} {}\n", labels(key), g.get()));
            }
            MetricHandle::Hist(h) => {
                let f = fams.entry(name.clone()).or_insert(Family {
                    kind: Kind::Summary,
                    series: Vec::new(),
                });
                let mut s = String::new();
                for (q, v) in [
                    ("0.5", h.quantile(0.50)),
                    ("0.9", h.quantile(0.90)),
                    ("0.99", h.quantile(0.99)),
                    ("0.999", h.quantile(0.999)),
                ] {
                    let _ = writeln!(s, "{name}{} {v}", labels_q(key, q));
                }
                let _ = writeln!(s, "{name}_sum{} {}", labels(key), h.sum());
                let _ = writeln!(s, "{name}_count{} {}", labels(key), h.count());
                f.series.push(s);
            }
        }
    }
    let mut out = String::new();
    for (name, fam) in &fams {
        let (kind, help) = match fam.kind {
            Kind::Counter => ("counter", "monotone event count"),
            Kind::Gauge => ("gauge", "last observed value"),
            Kind::Summary => ("summary", "value distribution (ns for *_ns)"),
        };
        let _ = writeln!(out, "# HELP {name} {help}");
        let _ = writeln!(out, "# TYPE {name} {kind}");
        for s in &fam.series {
            out.push_str(s);
        }
    }
    if let Some(live) = live {
        let cfg = live.config();
        let _ = writeln!(
            out,
            "# HELP nti_live_window_seconds aggregation window length"
        );
        let _ = writeln!(out, "# TYPE nti_live_window_seconds gauge");
        let _ = writeln!(
            out,
            "nti_live_window_seconds {}",
            fmt_f64(cfg.window.as_secs_f64())
        );
        let _ = writeln!(out, "# HELP nti_live_windows completed windows in ring");
        let _ = writeln!(out, "# TYPE nti_live_windows gauge");
        let _ = writeln!(out, "nti_live_windows {}", live.window_count());
        // Group per-node series under one HELP/TYPE per family — a
        // repeated header for the same name is invalid exposition.
        let mut rate_fams: BTreeMap<String, Vec<(MetricKey, crate::live::RateStats)>> =
            BTreeMap::new();
        for (key, r) in live.counter_rates() {
            rate_fams.entry(prom_name(key)).or_default().push((key, r));
        }
        for (name, series) in &rate_fams {
            let _ = writeln!(out, "# HELP {name}_rate per-second rate, last window");
            let _ = writeln!(out, "# TYPE {name}_rate gauge");
            for (key, r) in series {
                let _ = writeln!(out, "{name}_rate{} {}", labels(*key), fmt_f64(r.last_rate));
            }
            let _ = writeln!(
                out,
                "# HELP {name}_rolling_rate per-second rate, rolling windows"
            );
            let _ = writeln!(out, "# TYPE {name}_rolling_rate gauge");
            for (key, r) in series {
                let _ = writeln!(
                    out,
                    "{name}_rolling_rate{} {}",
                    labels(*key),
                    fmt_f64(r.rolling_rate)
                );
            }
        }
        let mut roll_fams: BTreeMap<String, Vec<(MetricKey, crate::live::RollingQuantiles)>> =
            BTreeMap::new();
        for (key, r) in live.hist_rollups() {
            roll_fams.entry(prom_name(key)).or_default().push((key, r));
        }
        for (name, series) in &roll_fams {
            let _ = writeln!(out, "# HELP {name}_rolling rolling-window quantiles");
            let _ = writeln!(out, "# TYPE {name}_rolling summary");
            for (key, r) in series {
                for (q, v) in [("0.5", r.p50), ("0.99", r.p99), ("0.999", r.p999)] {
                    let _ = writeln!(out, "{name}_rolling{} {v}", labels_q(*key, q));
                }
                let _ = writeln!(out, "{name}_rolling_count{} {}", labels(*key), r.count);
            }
        }
    }
    out
}

/// What the server returns for one request path: `(content_type, body)`.
/// `None` → 404.
pub type Response = Option<(&'static str, String)>;

/// A route handler: maps a request path to a [`Response`]. Runs on the
/// listener thread, so it must not block on anything slow.
pub type Provider = Arc<dyn Fn(&str) -> Response + Send + Sync>;

/// A minimal single-threaded HTTP/1.0 exposition server.
///
/// One background thread accepts connections (non-blocking, 5 ms poll),
/// reads at most one request of at most 4 KiB, answers, and closes.
/// Malformed or slow clients get a 400 or a timeout — never a panic, and
/// never back-pressure on whoever registered the provider (the serve
/// shards share nothing with this thread but atomics).
pub struct MetricsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<thread::JoinHandle<()>>,
}

impl std::fmt::Debug for MetricsServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsServer")
            .field("addr", &self.addr)
            .finish()
    }
}

impl MetricsServer {
    /// Bind `addr` (port 0 picks a free port — read it back with
    /// [`local_addr`](MetricsServer::local_addr)) and serve `provider`
    /// until [`stop`](MetricsServer::stop) or drop.
    pub fn spawn(addr: SocketAddr, provider: Provider) -> std::io::Result<MetricsServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let thread = thread::Builder::new()
            .name("nti-metrics".into())
            .spawn(move || {
                while !stop2.load(Ordering::Relaxed) {
                    match listener.accept() {
                        Ok((stream, _)) => {
                            // Errors talking to one client never take the
                            // listener down.
                            let _ = serve_conn(stream, &provider);
                        }
                        Err(e) if e.kind() == ErrorKind::WouldBlock => {
                            thread::sleep(Duration::from_millis(5));
                        }
                        Err(_) => thread::sleep(Duration::from_millis(5)),
                    }
                }
            })
            .expect("spawn metrics thread");
        Ok(MetricsServer {
            addr,
            stop,
            thread: Some(thread),
        })
    }

    /// The bound address (useful after binding port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Signal the listener thread and join it.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

const MAX_REQUEST: usize = 4096;

fn serve_conn(mut stream: TcpStream, provider: &Provider) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_millis(250)))?;
    stream.set_write_timeout(Some(Duration::from_millis(250)))?;
    let mut buf = [0u8; MAX_REQUEST];
    let mut len = 0usize;
    let head_end = loop {
        if len == buf.len() {
            return respond(&mut stream, 400, "text/plain", "request too large");
        }
        let n = stream.read(&mut buf[len..])?;
        if n == 0 {
            return respond(&mut stream, 400, "text/plain", "truncated request");
        }
        len += n;
        if let Some(p) = find(&buf[..len], b"\r\n\r\n") {
            break p;
        }
        // Tolerate bare-LF clients (netcat et al).
        if let Some(p) = find(&buf[..len], b"\n\n") {
            break p;
        }
    };
    let head = &buf[..head_end];
    let Some(path) = parse_get_path(head) else {
        return respond(&mut stream, 400, "text/plain", "bad request");
    };
    match provider(path) {
        Some((ctype, body)) => respond(&mut stream, 200, ctype, &body),
        None => respond(&mut stream, 404, "text/plain", "not found"),
    }
}

fn find(hay: &[u8], needle: &[u8]) -> Option<usize> {
    hay.windows(needle.len()).position(|w| w == needle)
}

/// Parse `GET <path> HTTP/…` from a request head. Only GET is served.
fn parse_get_path(head: &[u8]) -> Option<&str> {
    let line_end = head
        .iter()
        .position(|&b| b == b'\r' || b == b'\n')
        .unwrap_or(head.len());
    let line = std::str::from_utf8(&head[..line_end]).ok()?;
    let mut parts = line.split_ascii_whitespace();
    if parts.next()? != "GET" {
        return None;
    }
    let path = parts.next()?;
    // Strip any query string; routes don't take parameters.
    Some(path.split('?').next().unwrap_or(path))
}

fn respond(stream: &mut TcpStream, code: u16, ctype: &str, body: &str) -> std::io::Result<()> {
    let reason = match code {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        _ => "Error",
    };
    let head = format!(
        "HTTP/1.0 {code} {reason}\r\nContent-Type: {ctype}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

/// Minimal HTTP GET client for tests and bench scrapes: fetch `path`
/// from `addr`, return the response body (headers stripped). Errors on
/// connect failure, timeout, or a non-200 status line.
pub fn http_get(addr: SocketAddr, path: &str, timeout: Duration) -> std::io::Result<String> {
    let mut stream = TcpStream::connect_timeout(&addr, timeout)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    stream.write_all(format!("GET {path} HTTP/1.0\r\nHost: nti\r\n\r\n").as_bytes())?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    let text = String::from_utf8_lossy(&raw);
    let Some((head, body)) = text.split_once("\r\n\r\n") else {
        return Err(std::io::Error::new(
            ErrorKind::InvalidData,
            "no header terminator in response",
        ));
    };
    let status = head.lines().next().unwrap_or("");
    if !status.contains(" 200 ") {
        return Err(std::io::Error::other(format!("non-200 response: {status}")));
    }
    Ok(body.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Registry;

    #[test]
    fn names_are_sanitized() {
        assert_eq!(
            prom_name(MetricKey::global("serve", "kod rate!")),
            "nti_serve_kod_rate_"
        );
    }

    #[test]
    fn renders_all_kinds_sorted() {
        let r = Registry::new();
        r.counter(MetricKey::global("serve", "queries")).add(7);
        r.gauge(MetricKey::node(1, "core", "health")).set(-2);
        r.hist(MetricKey::global("serve", "lat_ns")).record(1000);
        let text = render_prometheus(&r, None);
        let qpos = text.find("nti_serve_queries 7").expect("counter");
        let hpos = text.find("nti_core_health{node=\"1\"} -2").expect("gauge");
        assert!(hpos < qpos, "families sorted by name");
        assert!(text.contains("# TYPE nti_serve_queries counter"));
        assert!(text.contains("# TYPE nti_core_health gauge"));
        assert!(text.contains("# TYPE nti_serve_lat_ns summary"));
        assert!(text.contains("nti_serve_lat_ns{quantile=\"0.99\"}"));
        assert!(text.contains("nti_serve_lat_ns_count 1"));
    }

    #[test]
    fn parse_get_path_handles_garbage() {
        assert_eq!(parse_get_path(b"GET /metrics HTTP/1.1"), Some("/metrics"));
        assert_eq!(
            parse_get_path(b"GET /json?pretty=1 HTTP/1.0"),
            Some("/json")
        );
        assert_eq!(parse_get_path(b"POST /metrics HTTP/1.1"), None);
        assert_eq!(parse_get_path(b"\x00\xffgarbage"), None);
        assert_eq!(parse_get_path(b""), None);
    }
}
