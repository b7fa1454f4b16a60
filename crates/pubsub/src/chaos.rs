//! A fault-injecting TCP proxy for chaos-testing the real broker path.
//!
//! [`ChaosProxy`] sits between a client and a broker, forwarding bytes
//! in both directions, and injects faults on command:
//!
//! - [`reset_all`](ChaosProxy::reset_all) — tear down every proxied
//!   connection at once (what clients see when a broker dies);
//! - [`kill_upstream_hard`](ChaosProxy::kill_upstream_hard) — tear down
//!   every flow *and* close the listener for good, so new connection
//!   attempts are refused at the TCP level (a whole broker host dying,
//!   as a failure-detector probe sees it);
//! - [`set_black_hole`](ChaosProxy::set_black_hole) — accept new
//!   connections but forward nothing, the classic *half-open*
//!   connection TCP itself never reports;
//! - [`stall`](ChaosProxy::stall) — pause forwarding in one direction
//!   for a while (a congested or GC-pausing broker);
//! - [`set_latency`](ChaosProxy::set_latency) — delay every forwarded
//!   chunk (a WAN hop);
//! - [`set_truncate_probability`](ChaosProxy::set_truncate_probability)
//!   — randomly cut a forwarded chunk in half and kill the connection,
//!   leaving the peer a torn RESP frame.
//!
//! Random decisions come from [`SimRng`] generators forked per
//! connection and direction from the proxy's seed, so a failing chaos
//! run replays with the same fault schedule (modulo OS chunk
//! boundaries). The proxy also retargets: point
//! [`set_upstream`](ChaosProxy::set_upstream) at a replacement broker
//! and new connections go there — which is exactly how the chaos suite
//! stages "broker restarted elsewhere" without racing on port reuse.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use dynamoth_sim::SimRng;

/// A forwarding direction through the proxy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Bytes flowing from the connecting client toward the upstream
    /// broker.
    ClientToServer,
    /// Bytes flowing from the upstream broker back to the client.
    ServerToClient,
}

struct ProxyShared {
    upstream: Mutex<SocketAddr>,
    running: AtomicBool,
    hard_killed: AtomicBool,
    black_hole: AtomicBool,
    latency_micros: AtomicU64,
    truncate_permille: AtomicU64,
    stall_until: [Mutex<Option<Instant>>; 2],
    seed: u64,
    next_conn: AtomicU64,
    /// Socket clones of live proxied connections, for `reset_all`.
    conns: Mutex<HashMap<u64, Vec<TcpStream>>>,
    pumps: Mutex<Vec<JoinHandle<()>>>,
    connections_accepted: AtomicU64,
    bytes_forwarded: AtomicU64,
    truncations: AtomicU64,
}

impl ProxyShared {
    fn stall_slot(&self, dir: Direction) -> &Mutex<Option<Instant>> {
        match dir {
            Direction::ClientToServer => &self.stall_until[0],
            Direction::ServerToClient => &self.stall_until[1],
        }
    }

    fn deregister(&self, conn: u64) {
        if let Some(streams) = self.conns.lock().remove(&conn) {
            for s in streams {
                let _ = s.shutdown(Shutdown::Both);
            }
        }
    }
}

/// A seeded fault-injecting TCP proxy (see the module docs).
///
/// # Examples
///
/// ```no_run
/// use dynamoth_pubsub::{ChaosProxy, TcpBroker, TcpPubSubClient};
///
/// let broker = TcpBroker::bind("127.0.0.1:0").expect("bind");
/// let proxy = ChaosProxy::spawn(broker.local_addr(), 42).expect("proxy");
/// let client = TcpPubSubClient::connect(proxy.local_addr()).expect("client");
/// proxy.reset_all(); // chaos: the client must reconnect
/// # drop(client);
/// ```
pub struct ChaosProxy {
    shared: Arc<ProxyShared>,
    local_addr: SocketAddr,
    accept_thread: Option<JoinHandle<()>>,
}

impl ChaosProxy {
    /// Binds the proxy on an ephemeral loopback port, forwarding to
    /// `upstream`. All fault dice derive from `seed`.
    ///
    /// # Errors
    ///
    /// Returns any socket error from binding the listener.
    pub fn spawn(upstream: SocketAddr, seed: u64) -> std::io::Result<ChaosProxy> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let local_addr = listener.local_addr()?;
        let shared = Arc::new(ProxyShared {
            upstream: Mutex::new(upstream),
            running: AtomicBool::new(true),
            hard_killed: AtomicBool::new(false),
            black_hole: AtomicBool::new(false),
            latency_micros: AtomicU64::new(0),
            truncate_permille: AtomicU64::new(0),
            stall_until: [Mutex::new(None), Mutex::new(None)],
            seed,
            next_conn: AtomicU64::new(0),
            conns: Mutex::new(HashMap::new()),
            pumps: Mutex::new(Vec::new()),
            connections_accepted: AtomicU64::new(0),
            bytes_forwarded: AtomicU64::new(0),
            truncations: AtomicU64::new(0),
        });
        let accept_shared = Arc::clone(&shared);
        let accept_thread = std::thread::spawn(move || accept_loop(listener, accept_shared));
        Ok(ChaosProxy {
            shared,
            local_addr,
            accept_thread: Some(accept_thread),
        })
    }

    /// The address clients should connect to.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Retargets *new* connections at `upstream` (existing ones keep
    /// their current peer — combine with [`reset_all`](Self::reset_all)
    /// to force everyone over).
    pub fn set_upstream(&self, upstream: SocketAddr) {
        *self.shared.upstream.lock() = upstream;
    }

    /// Tears down every currently proxied connection. Clients see a
    /// reset/EOF, exactly like a broker crash.
    pub fn reset_all(&self) {
        let conns: Vec<u64> = self.shared.conns.lock().keys().copied().collect();
        for conn in conns {
            self.shared.deregister(conn);
        }
    }

    /// Kills the upstream *permanently*: tears down every proxied flow
    /// at once and closes the listener itself, so new connection
    /// attempts — including bare failure-detector probes — fail at the
    /// TCP level with "connection refused". Unlike
    /// [`set_black_hole`](Self::set_black_hole) the handshake itself
    /// fails, and unlike [`set_upstream`](Self::set_upstream) there is
    /// no retarget: this proxy never serves again (stage a replacement
    /// broker on a fresh address instead).
    pub fn kill_upstream_hard(&self) {
        self.shared.hard_killed.store(true, Ordering::SeqCst);
        // Wake the accept loop so it observes the kill and drops the
        // listener — the close is what turns new connects into
        // refusals instead of backlog accepts.
        let _ = TcpStream::connect(self.local_addr);
        self.reset_all();
    }

    /// While enabled, new connections are accepted and their bytes read
    /// and discarded, but nothing is ever forwarded or answered — a
    /// half-open connection that only application-level liveness can
    /// detect.
    pub fn set_black_hole(&self, enabled: bool) {
        self.shared.black_hole.store(enabled, Ordering::SeqCst);
    }

    /// Adds a fixed delay in front of every forwarded chunk.
    pub fn set_latency(&self, latency: Duration) {
        self.shared
            .latency_micros
            .store(latency.as_micros() as u64, Ordering::SeqCst);
    }

    /// Pauses forwarding in `dir` for `duration` (bytes queue behind
    /// the stall; nothing is lost).
    pub fn stall(&self, dir: Direction, duration: Duration) {
        *self.shared.stall_slot(dir).lock() = Some(Instant::now() + duration);
    }

    /// With probability `p` per forwarded chunk, forward only half the
    /// chunk and kill the connection — the peer is left holding a
    /// truncated RESP frame.
    pub fn set_truncate_probability(&self, p: f64) {
        let permille = (p.clamp(0.0, 1.0) * 1000.0).round() as u64;
        self.shared
            .truncate_permille
            .store(permille, Ordering::SeqCst);
    }

    /// Connections accepted since the proxy started.
    pub fn connections_accepted(&self) -> u64 {
        self.shared.connections_accepted.load(Ordering::Relaxed)
    }

    /// Bytes forwarded (both directions) since the proxy started.
    pub fn bytes_forwarded(&self) -> u64 {
        self.shared.bytes_forwarded.load(Ordering::Relaxed)
    }

    /// Connections killed by injected truncation so far.
    pub fn truncations(&self) -> u64 {
        self.shared.truncations.load(Ordering::Relaxed)
    }

    /// Stops the proxy and tears down every connection.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.shared.running.store(false, Ordering::SeqCst);
        let _ = TcpStream::connect(self.local_addr);
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
        self.reset_all();
        let pumps: Vec<JoinHandle<()>> = std::mem::take(&mut *self.shared.pumps.lock());
        for pump in pumps {
            let _ = pump.join();
        }
    }
}

impl Drop for ChaosProxy {
    fn drop(&mut self) {
        if self.accept_thread.is_some() {
            self.stop();
        }
    }
}

impl std::fmt::Debug for ChaosProxy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChaosProxy")
            .field("local_addr", &self.local_addr)
            .finish_non_exhaustive()
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<ProxyShared>) {
    loop {
        let client = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if !shared.running.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
        };
        if !shared.running.load(Ordering::SeqCst) {
            return; // the shutdown self-connect
        }
        if shared.hard_killed.load(Ordering::SeqCst) {
            // Hard kill: drop the just-accepted stream unanswered and
            // exit, closing the listener — every later connect is
            // refused by the kernel.
            return;
        }
        shared.connections_accepted.fetch_add(1, Ordering::Relaxed);
        let conn = shared.next_conn.fetch_add(1, Ordering::Relaxed);
        if shared.black_hole.load(Ordering::SeqCst) {
            spawn_black_hole(conn, client, &shared);
            continue;
        }
        let upstream_addr = *shared.upstream.lock();
        let server = match TcpStream::connect_timeout(&upstream_addr, Duration::from_secs(1)) {
            Ok(s) => s,
            Err(_) => continue, // upstream down: refuse by closing
        };
        spawn_pumps(conn, client, server, &shared);
    }
}

/// Half-open mode: keep the client's connection established (reading
/// and discarding whatever it sends, so its writes keep succeeding) but
/// never speak back.
fn spawn_black_hole(conn: u64, client: TcpStream, shared: &Arc<ProxyShared>) {
    let Ok(reader) = client.try_clone() else {
        return;
    };
    shared.conns.lock().insert(conn, vec![client]);
    let pump_shared = Arc::clone(shared);
    let handle = std::thread::spawn(move || {
        let shared = pump_shared;
        let mut reader = reader;
        let _ = reader.set_read_timeout(Some(Duration::from_millis(25)));
        let mut sink = [0u8; 4096];
        loop {
            if !shared.running.load(Ordering::SeqCst) {
                break;
            }
            match reader.read(&mut sink) {
                Ok(0) => break,
                Ok(_) => {}
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut => {}
                Err(_) => break,
            }
        }
        shared.deregister(conn);
    });
    shared.pumps.lock().push(handle);
}

fn spawn_pumps(conn: u64, client: TcpStream, server: TcpStream, shared: &Arc<ProxyShared>) {
    let (Ok(c2s_src), Ok(s2c_src), Ok(c2s_dst), Ok(s2c_dst)) = (
        client.try_clone(),
        server.try_clone(),
        server.try_clone(),
        client.try_clone(),
    ) else {
        return;
    };
    shared.conns.lock().insert(conn, vec![client, server]);
    let mut handles = Vec::with_capacity(2);
    for (src, dst, dir) in [
        (c2s_src, c2s_dst, Direction::ClientToServer),
        (s2c_src, s2c_dst, Direction::ServerToClient),
    ] {
        let shared = Arc::clone(shared);
        // Fork a deterministic per-(connection, direction) dice stream
        // from the proxy seed.
        let dir_bit = match dir {
            Direction::ClientToServer => 0,
            Direction::ServerToClient => 1,
        };
        let rng = SimRng::new(shared.seed ^ ((conn << 1) | dir_bit)).fork();
        handles.push(std::thread::spawn(move || {
            pump(conn, src, dst, dir, rng, &shared);
            shared.deregister(conn);
        }));
    }
    let mut pumps = shared.pumps.lock();
    pumps.retain(|h| !h.is_finished());
    pumps.extend(handles);
}

/// Forwards bytes `src` → `dst` through the fault filters until either
/// socket dies, the proxy stops, or a truncation die kills the
/// connection.
fn pump(
    conn: u64,
    mut src: TcpStream,
    mut dst: TcpStream,
    dir: Direction,
    mut rng: SimRng,
    shared: &ProxyShared,
) {
    let _ = src.set_read_timeout(Some(Duration::from_millis(25)));
    let mut chunk = [0u8; 4096];
    loop {
        if !shared.running.load(Ordering::SeqCst) {
            return;
        }
        let n = match src.read(&mut chunk) {
            Ok(0) => return,
            Ok(n) => n,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(_) => return,
        };
        // Per-direction stall: bytes wait, nothing is lost.
        loop {
            let until = *shared.stall_slot(dir).lock();
            match until {
                Some(t) if Instant::now() < t && shared.running.load(Ordering::SeqCst) => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                _ => break,
            }
        }
        // Added latency.
        let latency = shared.latency_micros.load(Ordering::SeqCst);
        if latency > 0 {
            std::thread::sleep(Duration::from_micros(latency));
        }
        // Seeded truncation: forward half the chunk, then kill the
        // connection under the peer.
        let permille = shared.truncate_permille.load(Ordering::SeqCst);
        if permille > 0 && rng.next_below(1000) < permille.min(1000) {
            let _ = dst.write_all(&chunk[..n / 2]);
            shared.truncations.fetch_add(1, Ordering::Relaxed);
            shared.deregister(conn);
            return;
        }
        if dst.write_all(&chunk[..n]).is_err() {
            return;
        }
        shared
            .bytes_forwarded
            .fetch_add(n as u64, Ordering::Relaxed);
    }
}
