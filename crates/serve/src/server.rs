//! The UDP front-end: per-core sharded sockets, each with its own
//! non-blocking batched receive/respond loop.
//!
//! ## Sharding
//!
//! With `shards > 1` the server first tries to build a true
//! `SO_REUSEPORT` group — N sockets bound to the *same* address, with the
//! kernel hashing flows across them — via a small hand-rolled FFI shim
//! (no libc crate in this workspace). Where that is unavailable (non-Linux,
//! IPv6 base address, or the syscalls fail) it degrades to N independent
//! sockets on distinct ephemeral ports; [`Server::local_addrs`] reports
//! every address so a client can spread load itself.
//!
//! ## Why plain threads and not an async runtime
//!
//! The per-query work is a seqlock read plus ~100 ns of arithmetic; there
//! is nothing to await. A non-blocking drain loop per shard keeps the
//! whole data path allocation-free and syscall-bounded, and `yield_now`
//! on an empty drain keeps idle shards polite.
//!
//! ## Ingress hardening
//!
//! Every drained datagram passes through [`classify`] (a pure total
//! function — decode only, testable without sockets) and, when
//! [`ServerConfig::admission`] is set, through a per-shard
//! [`ClientTable`]: the Admit → KoD `RATE` → silent-drop ladder that
//! keeps one abusive source from crowding out everyone else. Every
//! non-`WouldBlock` poll outcome — packet, transient error, anything —
//! counts toward the drain batch, so neither a datagram flood nor an
//! ICMP-driven error storm can keep a shard from rechecking its stop
//! flag. A [`ServeFaultPlan`] can be attached to mangle ingress
//! deterministically (drop/duplicate/truncate/corrupt) for chaos tests.

use crate::admission::{AdmissionConfig, ClientTable, Verdict};
use crate::clock::{rate_limit_kod, ClockHandle};
use crate::packet::{NtpPacket, KISS_STALE, MODE_CLIENT};
use crate::telemetry::{self, ShardTelemetry, TelemetryConfig};
use nti_faults::{IngressFate, ServeFaultInjector, ServeFaultPlan};
use nti_obs::{Counter, MetricKey, SimObserver};
use nti_simcore::rng::SimRng;
use std::io::{self, ErrorKind};
use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, Ordering::Relaxed};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How a server should bind and drain its sockets.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Base address. Port 0 picks an ephemeral port (the reuseport group,
    /// if one forms, shares whatever port the first socket got).
    pub addr: SocketAddr,
    /// Socket shards; pin to the number of serving cores.
    pub shards: usize,
    /// Max datagrams drained per shard per poll iteration before the
    /// stop flag is rechecked.
    pub batch: usize,
    /// Per-client admission control; `None` serves everyone unpoliced.
    pub admission: Option<AdmissionConfig>,
    /// Deterministic ingress mangling for chaos tests; an empty plan
    /// leaves the data path untouched (and draws no randomness).
    pub faults: ServeFaultPlan,
    /// Seed for the fault injector's per-shard RNG streams.
    pub fault_seed: u64,
    /// The telemetry plane (see [`crate::telemetry`]); off by default.
    pub telemetry: TelemetryConfig,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".parse().expect("valid literal"),
            shards: 1,
            batch: 32,
            admission: None,
            faults: ServeFaultPlan::new(),
            fault_seed: 0,
            telemetry: TelemetryConfig::default(),
        }
    }
}

/// Declares [`Stats`] from one documented list of counter names, plus
/// the by-name helpers every other use goes through: a counter added to
/// the list is registered, bumped, snapshotted and exported with no
/// further wiring.
macro_rules! serve_counters {
    ($($(#[doc = $doc:literal])+ $name:ident,)+) => {
        /// The serving counters, one field each. A server holds them as
        /// the registry counters `serve/<field>` its shards bump, the only
        /// store; a [`StatsSnapshot`] holds values read off them.
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
        pub struct Stats<T> {
            $($(#[doc = $doc])+ pub $name: T,)+
        }

        impl<T> Stats<T> {
            /// Build every counter from its name.
            pub(crate) fn from_fn(mut f: impl FnMut(&'static str) -> T) -> Stats<T> {
                Stats { $($name: f(stringify!($name)),)+ }
            }

            /// Every counter as `(name, value)`, in declaration order.
            pub fn fields(&self) -> [(&'static str, &T); [$(stringify!($name)),+].len()] {
                [$((stringify!($name), &self.$name)),+]
            }
        }

        impl ServerStats {
            /// Every counter's value less `base`: the counts added since
            /// `base` was read. Relaxed reads, exact once the shards have
            /// stopped (the counters are independent monotone counts).
            pub(crate) fn since(&self, base: &StatsSnapshot) -> StatsSnapshot {
                Stats { $($name: self.$name.get() - base.$name,)+ }
            }
        }
    };
}

serve_counters! {
    /// Well-formed client-mode requests accepted.
    queries,
    /// Responses that went out on the wire.
    responses,
    /// Responses that were kiss-o'-death refusals.
    kod,
    /// KoD refusals specifically for ensemble staleness (`XSTL`) — the
    /// "my simulation stopped publishing" alarm, split out from `kod` so
    /// a scrape can tell degradation from admission back-pressure.
    stale_kod,
    /// Datagrams that failed to decode (truncated).
    malformed,
    /// Well-formed packets in a non-client mode, dropped without answer.
    ignored,
    /// `send_to` failures.
    send_errors,
    /// Queries answered with admission-control KoD `RATE`.
    rate_kod,
    /// Queries silently dropped by admission control (sustained abuse).
    dropped,
    /// Admission-table clients evicted to make room.
    evictions,
    /// Datagrams swallowed by the ingress fault injector.
    ingress_dropped,
    /// Datagrams delivered twice by the ingress fault injector.
    ingress_duplicated,
    /// Datagrams truncated by the ingress fault injector.
    ingress_truncated,
    /// Datagrams bit-corrupted by the ingress fault injector.
    ingress_corrupted,
}

/// The live counters one server bumps: handles into the registry.
pub(crate) type ServerStats = Stats<Arc<Counter>>;

/// The counters' values at one instant.
pub type StatsSnapshot = Stats<u64>;

/// A bound (not yet serving) server: sockets exist, threads do not.
#[derive(Debug)]
pub struct Server {
    sockets: Vec<UdpSocket>,
    addrs: Vec<SocketAddr>,
    reuseport: bool,
    handle: ClockHandle,
    obs: SimObserver,
    stats: ServerStats,
    base: StatsSnapshot,
    batch: usize,
    admission: Option<AdmissionConfig>,
    faults: ServeFaultPlan,
    fault_seed: u64,
    telemetry: TelemetryConfig,
}

impl Server {
    /// Bind the shard sockets. No traffic flows until [`Server::start`].
    pub fn bind(cfg: &ServerConfig, handle: ClockHandle) -> io::Result<Server> {
        assert!(cfg.shards > 0, "need at least one shard");
        assert!(cfg.batch > 0, "need a positive drain batch");
        let (sockets, reuseport) = bind_shards(cfg.addr, cfg.shards)?;
        let mut addrs = Vec::with_capacity(sockets.len());
        for s in &sockets {
            s.set_nonblocking(true)?;
            addrs.push(s.local_addr()?);
        }
        // The registry is the counters' one store: the telemetry
        // observer's, or a private one when telemetry is off. `base` lets
        // `stop` report only this server's counts on an observer that
        // earlier servers counted into too.
        let obs = if cfg.telemetry.obs.is_enabled() {
            cfg.telemetry.obs.clone()
        } else {
            SimObserver::enabled()
        };
        let registry = &obs.core().expect("observer is enabled").registry;
        let stats = ServerStats::from_fn(|name| registry.counter(MetricKey::global("serve", name)));
        let base = stats.since(&StatsSnapshot::default());
        Ok(Server {
            sockets,
            addrs,
            reuseport,
            handle,
            obs,
            stats,
            base,
            batch: cfg.batch,
            admission: cfg.admission,
            faults: cfg.faults.clone(),
            fault_seed: cfg.fault_seed,
            telemetry: cfg.telemetry.clone(),
        })
    }

    /// Every bound address. One entry repeated per shard for a reuseport
    /// group; distinct ports in fallback mode.
    pub fn local_addrs(&self) -> &[SocketAddr] {
        &self.addrs
    }

    /// Did a real `SO_REUSEPORT` group form?
    pub fn reuseport(&self) -> bool {
        self.reuseport
    }

    /// Spawn one drain thread per shard and start answering.
    pub fn start(self) -> RunningServer {
        let stop = Arc::new(AtomicBool::new(false));
        let fault_rng = SimRng::new(self.fault_seed);
        // Telemetry plane (ticker + endpoint), if configured. A failed
        // endpoint bind is reported inside and does not stop serving.
        let runtime = telemetry::Runtime::start(
            &self.telemetry,
            &self.obs,
            &self.handle,
            &self.stats,
            self.base,
        );
        let mut threads = Vec::with_capacity(self.sockets.len());
        for (i, sock) in self.sockets.into_iter().enumerate() {
            // Per-shard policing state: each shard owns its table (the
            // kernel pins a flow to one shard in a reuseport group) and
            // its own named RNG stream, so shards never contend.
            let worker = ShardWorker {
                sock,
                handle: self.handle.clone(),
                stats: self.stats.clone(),
                stop: Arc::clone(&stop),
                batch: self.batch,
                admission: self.admission.as_ref().map(ClientTable::new),
                injector: (!self.faults.is_empty())
                    .then(|| ServeFaultInjector::for_shard(&self.faults, &fault_rng, i)),
                tele: runtime.as_ref().map(|rt| rt.shard(i)),
            };
            threads.push(
                std::thread::Builder::new()
                    .name(format!("nti-serve-{i}"))
                    .spawn(move || worker.run())
                    .expect("spawn serve shard"),
            );
        }
        RunningServer {
            stop,
            threads,
            stats: self.stats,
            base: self.base,
            addrs: self.addrs,
            runtime,
        }
    }
}

/// A serving server; dropping it without [`RunningServer::stop`] leaks
/// the shard threads (they spin on the stop flag), so stop it.
#[derive(Debug)]
pub struct RunningServer {
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
    stats: ServerStats,
    base: StatsSnapshot,
    addrs: Vec<SocketAddr>,
    runtime: Option<telemetry::Runtime>,
}

impl RunningServer {
    /// Every bound address (see [`Server::local_addrs`]).
    pub fn addrs(&self) -> &[SocketAddr] {
        &self.addrs
    }

    /// Where the metrics endpoint is listening — `None` when telemetry
    /// is off, no [`TelemetryConfig::metrics_addr`] was set, or the bind
    /// failed (reported to stderr at start).
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.runtime
            .as_ref()
            .and_then(telemetry::Runtime::metrics_addr)
    }

    /// Stop the shards, join them, shut the telemetry plane down, and
    /// return this server's totals: the registry counters less their
    /// values at [`Server::bind`]. Servers that take turns on one
    /// [`TelemetryConfig::obs`] each report their own traffic; servers
    /// sharing it *at the same time* see each other's counts.
    pub fn stop(self) -> StatsSnapshot {
        self.stop.store(true, Relaxed);
        for t in self.threads {
            let _ = t.join();
        }
        if let Some(rt) = self.runtime {
            rt.stop();
        }
        self.stats.since(&self.base)
    }
}

/// What one drained datagram turned out to be.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Ingress {
    /// A well-formed client-mode query — the only thing we ever answer.
    Query(NtpPacket),
    /// Well-formed, but not a client-mode query (server/broadcast/
    /// symmetric modes, hostile reflections): dropped without answer.
    Foreign,
    /// Failed to decode (runt / truncated): dropped without answer.
    Malformed,
}

/// Classify one datagram. Pure and total over arbitrary bytes — decode
/// only, no side effects — so the entire hostile-input policy ("never
/// answer anything but a well-formed client-mode query") is provable
/// without a socket in sight; the fuzz harness drives exactly this.
pub fn classify(datagram: &[u8]) -> Ingress {
    match NtpPacket::decode(datagram) {
        Ok(req) if req.mode == MODE_CLIENT => Ingress::Query(req),
        Ok(_) => Ingress::Foreign,
        Err(_) => Ingress::Malformed,
    }
}

/// A lap timer for sampled stage timing: each `lap` returns nanoseconds
/// since the previous lap (clamped to ≥ 1, so a recorded stage is never
/// confused with a skipped one).
struct StageTimer {
    last: Instant,
}

impl StageTimer {
    fn start() -> StageTimer {
        StageTimer {
            last: Instant::now(),
        }
    }

    #[inline]
    fn lap(&mut self) -> u64 {
        let now = Instant::now();
        let d = now.duration_since(self.last).as_nanos() as u64;
        self.last = now;
        d.max(1)
    }
}

/// Everything one shard thread owns: socket, clock handle, shared
/// counters, its private policing table, and (optionally) its telemetry
/// handles.
struct ShardWorker {
    sock: UdpSocket,
    handle: ClockHandle,
    stats: ServerStats,
    stop: Arc<AtomicBool>,
    batch: usize,
    admission: Option<ClientTable>,
    injector: Option<ServeFaultInjector>,
    tele: Option<ShardTelemetry>,
}

impl ShardWorker {
    /// One shard's life: drain up to `batch` poll outcomes, answer each
    /// admitted query, surface the admission table's state, check the
    /// stop flag, yield when idle.
    fn run(mut self) {
        let mut buf = [0u8; 2048];
        let epoch = Instant::now();
        while !self.stop.load(Relaxed) {
            let mut drained = 0usize;
            while drained < self.batch {
                // The sampling decision is made before the recv syscall
                // so the recv stage itself can be timed.
                let sampled = match self.tele.as_mut() {
                    Some(t) => t.should_sample(),
                    None => false,
                };
                let t_recv = sampled.then(Instant::now);
                let (n, peer) = match self.sock.recv_from(&mut buf) {
                    Ok(ok) => ok,
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    // Transient errors (EINTR, ICMP-driven ECONNREFUSED
                    // from a gone client) must not kill the shard — but
                    // they MUST count toward the batch: an error storm has
                    // to recheck the stop flag exactly as often as a
                    // packet flood does, or one hot socket wedges its
                    // shard forever.
                    Err(_) => {
                        drained += 1;
                        continue;
                    }
                };
                let recv_ns = t_recv.map(|t0| (t0.elapsed().as_nanos() as u64).max(1));
                drained += 1;
                let now = epoch.elapsed();
                let mut n = n;
                let mut deliveries = 1usize;
                if let Some(inj) = self.injector.as_mut() {
                    match inj.ingress_fate(now, n) {
                        IngressFate::Deliver => {}
                        IngressFate::Drop => {
                            self.stats.ingress_dropped.inc();
                            continue;
                        }
                        IngressFate::Duplicate => {
                            self.stats.ingress_duplicated.inc();
                            deliveries = 2;
                        }
                        IngressFate::Truncate { len } => {
                            self.stats.ingress_truncated.inc();
                            n = len.min(n);
                        }
                        IngressFate::Corrupt { at, mask } => {
                            self.stats.ingress_corrupted.inc();
                            if n > 0 {
                                buf[at % n] ^= mask;
                            }
                        }
                    }
                }
                for _ in 0..deliveries {
                    self.handle_datagram(&buf[..n], peer, now, recv_ns);
                }
            }
            if drained == 0 {
                std::thread::yield_now();
            } else if let Some(a) = &mut self.admission {
                // Batch boundary: surface the table's evictions and
                // occupancy.
                self.stats.evictions.add(a.take_evictions());
                if let Some(t) = &self.tele {
                    t.set_occupancy(a.occupancy());
                }
            }
        }
    }

    /// Answer one drained datagram. `recv_ns` is `Some` exactly when this
    /// datagram was chosen for stage timing (and carries the timed recv
    /// syscall); the non-sampled path takes no timestamps at all.
    fn handle_datagram(
        &mut self,
        datagram: &[u8],
        peer: SocketAddr,
        now: Duration,
        recv_ns: Option<u64>,
    ) {
        let mut stage_ns = [0u64; 6];
        let mut timer = match recv_ns {
            Some(r) => {
                stage_ns[0] = r;
                Some(StageTimer::start())
            }
            None => None,
        };
        let req = match classify(datagram) {
            Ingress::Query(req) => {
                if let Some(t) = &mut timer {
                    stage_ns[1] = t.lap();
                }
                req
            }
            Ingress::Foreign => {
                self.stats.ignored.inc();
                if let Some(t) = &mut timer {
                    stage_ns[1] = t.lap();
                }
                self.finish_sample(timer, "foreign", peer, stage_ns);
                return;
            }
            Ingress::Malformed => {
                self.stats.malformed.inc();
                if let Some(t) = &mut timer {
                    stage_ns[1] = t.lap();
                }
                self.finish_sample(timer, "malformed", peer, stage_ns);
                return;
            }
        };
        if let Some(table) = self.admission.as_mut() {
            let verdict = table.check(peer, now.as_nanos() as u64);
            if let Some(t) = &mut timer {
                stage_ns[2] = t.lap();
            }
            match verdict {
                Verdict::Admit => {}
                Verdict::RateKod => {
                    self.stats.rate_kod.inc();
                    self.stats.kod.inc();
                    let bytes = rate_limit_kod(&req).encode();
                    if let Some(t) = &mut timer {
                        stage_ns[4] = t.lap();
                    }
                    self.send(&bytes, peer);
                    if let Some(t) = &mut timer {
                        stage_ns[5] = t.lap();
                    }
                    self.finish_sample(timer, "rate", peer, stage_ns);
                    return;
                }
                Verdict::Drop => {
                    self.stats.dropped.inc();
                    self.finish_sample(timer, "drop", peer, stage_ns);
                    return;
                }
            }
        }
        self.stats.queries.inc();
        let resp = self.handle.respond(&req);
        if let Some(t) = &mut timer {
            stage_ns[3] = t.lap();
        }
        if resp.is_kod() {
            self.stats.kod.inc();
            if resp.ref_id == KISS_STALE {
                self.stats.stale_kod.inc();
            }
        }
        let bytes = resp.encode();
        if let Some(t) = &mut timer {
            stage_ns[4] = t.lap();
        }
        self.send(&bytes, peer);
        if let Some(t) = &mut timer {
            stage_ns[5] = t.lap();
        }
        self.finish_sample(timer, "admit", peer, stage_ns);
    }

    fn send(&self, bytes: &[u8], peer: SocketAddr) {
        match self.sock.send_to(bytes, peer) {
            Ok(_) => {
                self.stats.responses.inc();
            }
            Err(_) => {
                self.stats.send_errors.inc();
            }
        }
    }

    /// Close out a sampled datagram: record its stage breakdown (and, if
    /// slow, a flight-recorder trace). A no-op for unsampled datagrams.
    fn finish_sample(
        &self,
        timer: Option<StageTimer>,
        verdict: &'static str,
        peer: SocketAddr,
        stage_ns: [u64; 6],
    ) {
        if timer.is_some() {
            if let Some(t) = &self.tele {
                t.record(verdict, peer, stage_ns);
            }
        }
    }
}

/// Bind `shards` sockets for `addr`: a reuseport group when possible,
/// otherwise independent ephemeral-port sockets.
fn bind_shards(addr: SocketAddr, shards: usize) -> io::Result<(Vec<UdpSocket>, bool)> {
    if shards == 1 {
        return Ok((vec![UdpSocket::bind(addr)?], false));
    }
    if let SocketAddr::V4(v4) = addr {
        if let Ok(group) = reuseport::bind_group(v4, shards) {
            return Ok((group, true));
        }
    }
    // Fallback: N sockets on distinct ephemeral ports at the same host.
    let mut ephemeral = addr;
    ephemeral.set_port(0);
    let mut sockets = Vec::with_capacity(shards);
    for _ in 0..shards {
        sockets.push(UdpSocket::bind(ephemeral)?);
    }
    Ok((sockets, false))
}

/// `SO_REUSEPORT` group construction. The workspace vendors no libc
/// crate, so the three syscalls involved are declared by hand; every
/// failure path backs out cleanly and the caller falls back to
/// independent sockets.
#[cfg(target_os = "linux")]
mod reuseport {
    use std::io;
    use std::net::{SocketAddrV4, UdpSocket};
    use std::os::fd::FromRawFd;

    const AF_INET: i32 = 2;
    const SOCK_DGRAM: i32 = 2;
    const SOCK_CLOEXEC: i32 = 0o2000000;
    const SOL_SOCKET: i32 = 1;
    const SO_REUSEPORT: i32 = 15;

    extern "C" {
        fn socket(domain: i32, ty: i32, protocol: i32) -> i32;
        fn setsockopt(fd: i32, level: i32, name: i32, val: *const u8, len: u32) -> i32;
        fn bind(fd: i32, addr: *const u8, len: u32) -> i32;
        fn getsockname(fd: i32, addr: *mut u8, len: *mut u32) -> i32;
        fn close(fd: i32) -> i32;
    }

    /// `struct sockaddr_in` as a byte image: family (host order), port
    /// (network order), address (network order), 8 bytes of padding.
    fn sockaddr_in(addr: SocketAddrV4) -> [u8; 16] {
        let mut sa = [0u8; 16];
        sa[0..2].copy_from_slice(&(AF_INET as u16).to_ne_bytes());
        sa[2..4].copy_from_slice(&addr.port().to_be_bytes());
        sa[4..8].copy_from_slice(&addr.ip().octets());
        sa
    }

    fn bound_port(fd: i32) -> io::Result<u16> {
        let mut sa = [0u8; 16];
        let mut len = sa.len() as u32;
        // SAFETY: `sa` outlives the call and `len` starts at its size.
        if unsafe { getsockname(fd, sa.as_mut_ptr(), &mut len) } != 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(u16::from_be_bytes([sa[2], sa[3]]))
    }

    fn reuseport_socket(addr: SocketAddrV4) -> io::Result<i32> {
        // SAFETY: plain syscall, no pointers.
        let fd = unsafe { socket(AF_INET, SOCK_DGRAM | SOCK_CLOEXEC, 0) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        let one: u32 = 1;
        let sa = sockaddr_in(addr);
        // SAFETY: `one` and `sa` live across the calls; lengths match.
        let rc = unsafe {
            if setsockopt(
                fd,
                SOL_SOCKET,
                SO_REUSEPORT,
                (&one as *const u32).cast(),
                size_of::<u32>() as u32,
            ) != 0
            {
                -1
            } else {
                bind(fd, sa.as_ptr(), sa.len() as u32)
            }
        };
        if rc != 0 {
            let err = io::Error::last_os_error();
            // SAFETY: fd came from `socket` above and is not yet owned.
            unsafe { close(fd) };
            return Err(err);
        }
        Ok(fd)
    }

    /// Bind `shards` sockets to the same address in one reuseport group.
    pub fn bind_group(addr: SocketAddrV4, shards: usize) -> io::Result<Vec<UdpSocket>> {
        let first = reuseport_socket(addr)?;
        // SAFETY: `first` is an open, bound, unowned UDP socket fd.
        let first = unsafe { UdpSocket::from_raw_fd(first) };
        // With port 0 the kernel chose; the rest of the group must name
        // the concrete port explicitly.
        let port = match addr.port() {
            0 => bound_port({
                use std::os::fd::AsRawFd;
                first.as_raw_fd()
            })?,
            p => p,
        };
        let concrete = SocketAddrV4::new(*addr.ip(), port);
        let mut group = vec![first];
        for _ in 1..shards {
            let fd = reuseport_socket(concrete)?;
            // SAFETY: as above — open, bound, unowned fd.
            group.push(unsafe { UdpSocket::from_raw_fd(fd) });
        }
        Ok(group)
    }
}

#[cfg(not(target_os = "linux"))]
mod reuseport {
    use std::io;
    use std::net::{SocketAddrV4, UdpSocket};

    /// No portable reuseport here; force the distinct-port fallback.
    pub fn bind_group(_addr: SocketAddrV4, _shards: usize) -> io::Result<Vec<UdpSocket>> {
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "SO_REUSEPORT groups are only attempted on linux",
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ClockHandle;
    use nti_core::status::StatusCell;

    fn loopback_server(shards: usize) -> Option<Server> {
        let cell = Arc::new(StatusCell::new(1));
        let cfg = ServerConfig {
            shards,
            ..ServerConfig::default()
        };
        // Sandboxes without loopback sockets skip these tests.
        Server::bind(&cfg, ClockHandle::new(cell, 0)).ok()
    }

    #[test]
    fn sharded_bind_yields_usable_addrs() {
        let Some(server) = loopback_server(4) else {
            eprintln!("skipping: loopback bind unavailable");
            return;
        };
        assert_eq!(server.local_addrs().len(), 4);
        if server.reuseport() {
            let first = server.local_addrs()[0];
            assert!(server.local_addrs().iter().all(|a| *a == first));
        } else {
            let mut ports: Vec<u16> = server.local_addrs().iter().map(|a| a.port()).collect();
            ports.sort_unstable();
            ports.dedup();
            assert_eq!(ports.len(), 4, "fallback ports must be distinct");
        }
        let stopped = server.start().stop();
        assert_eq!(stopped, StatsSnapshot::default());
    }

    #[test]
    fn malformed_and_foreign_modes_are_counted_not_answered() {
        let Some(server) = loopback_server(1) else {
            eprintln!("skipping: loopback bind unavailable");
            return;
        };
        let addr = server.local_addrs()[0];
        let running = server.start();
        let client = UdpSocket::bind("127.0.0.1:0").expect("client bind");
        client
            .set_read_timeout(Some(std::time::Duration::from_millis(200)))
            .expect("timeout");
        client.send_to(&[1, 2, 3], addr).expect("send runt");
        let broadcast = NtpPacket {
            version: 4,
            mode: 5, // broadcast — not ours to answer
            ..NtpPacket::default()
        };
        client.send_to(&broadcast.encode(), addr).expect("send b");
        let mut buf = [0u8; 64];
        assert!(client.recv_from(&mut buf).is_err(), "no response due");
        let snap = running.stop();
        assert_eq!(snap.malformed, 1);
        assert_eq!(snap.ignored, 1);
        assert_eq!(snap.responses, 0);
    }
}
