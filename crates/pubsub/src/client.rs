//! A fault-tolerant RESP pub/sub client for the TCP broker.
//!
//! The paper's lazy-reconfiguration machinery assumes clients that
//! survive broker churn: they detect dead or silent servers, reconnect,
//! re-issue their subscriptions, retry in-flight publications, and
//! suppress the duplicates retries can create (via globally unique
//! message ids — the paper's §V duplicate-suppression scheme).
//! [`TcpPubSubClient`] is that client for the real-network path:
//!
//! - **Reconnect**: capped exponential backoff with full jitter
//!   (AWS-style: `delay = uniform(0, min(cap, base·2ᵃᵗᵗᵉᵐᵖᵗ))`), so a
//!   thundering herd of clients re-spreads itself after a broker
//!   restart.
//! - **Resubscribe + resume**: the desired channel set survives the
//!   socket; on every reconnect the client transparently
//!   re-`SUBSCRIBE`s before anything else. With
//!   [`ClientConfig::resume`] on (the default) each subscription uses
//!   the broker's `DMSEQ1` from-sequence form: the client tracks the
//!   highest sequence seen per channel and asks the broker to replay
//!   everything after it, so an outage longer than the dedup window
//!   loses nothing while the gap still fits the broker's retention
//!   ring — and surfaces [`ClientEvent::Gap`] (never silence) when it
//!   does not.
//! - **Publish retry + dedup**: each publication carries a globally
//!   unique wire id (`origin`, `seq`) inside the payload
//!   ([`frame_payload`]); unacknowledged publications are retried after
//!   a reconnect, and the receive path suppresses re-deliveries through
//!   a sliding dedup window, giving exactly-once delivery to a
//!   connected subscriber across broker failures.
//! - **Liveness**: `PING` heartbeats plus a receive deadline detect a
//!   silent (half-open) broker within [`ClientConfig::liveness_timeout`]
//!   instead of hanging forever.
//! - **Observability**: every state change is surfaced as a
//!   [`ClientEvent`] (`Connected` / `Disconnected` / `Resubscribed` /
//!   `Dropped` / `GaveUp`), so callers see degradation instead of
//!   silence.
//!
//! - **Wake on work**: the worker thread sleeps in an `epoll` poller
//!   (the vendored `mio` shim the broker's reactor uses) on its socket
//!   and a waker. Deliveries are read when they arrive; subscribe,
//!   unsubscribe, [`TcpPubSubClient::take_unsent`] and shutdown act at
//!   once. Publications are batched: everything queued goes out in one
//!   `write` per flush, on a cadence of [`ClientConfig::tick`]. A
//!   publish on a connection that has just (re)connected or has been
//!   quiet for a full tick flushes at once; one issued inside the tick
//!   after a flush waits for the next slot without waking the worker.
//!
//! The client interoperates with any RESP pub/sub server: payloads
//! published by id-unaware clients are delivered verbatim (no id, no
//! dedup).

use std::collections::{BTreeMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Condvar, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dynamoth_sim::SimRng;
use mio::{Events, Interest, Poll, Token, Waker};
use parking_lot::Mutex;

use crate::dedup::Dedup;
use crate::resp::{self, Value};
use crate::seq;

/// Tuning knobs of a [`TcpPubSubClient`].
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// First-retry backoff ceiling; doubles per failed attempt.
    pub reconnect_base: Duration,
    /// Upper bound of the backoff ceiling.
    pub reconnect_cap: Duration,
    /// Consecutive failed connection attempts before the client emits
    /// [`ClientEvent::GaveUp`] and stops. `None` retries forever.
    pub max_reconnect_attempts: Option<u32>,
    /// TCP connect timeout per attempt.
    pub connect_timeout: Duration,
    /// How often to send `PING` when the connection is otherwise idle
    /// (clamped to at most half the liveness timeout).
    pub heartbeat_interval: Duration,
    /// A connection that has received nothing for this long is declared
    /// dead ([`DisconnectReason::LivenessTimeout`]) — this is what
    /// catches half-open connections that TCP alone never reports.
    pub liveness_timeout: Duration,
    /// Sliding dedup window size, in message ids (the paper's
    /// duplicate-suppression window).
    pub dedup_window: usize,
    /// Send attempts per publication before it is dropped with
    /// [`DropCause::RetriesExhausted`].
    pub publish_retries: u32,
    /// Queued publications (pending + unacknowledged) before the oldest
    /// is dropped with [`DropCause::QueueFull`].
    pub max_pending_publishes: usize,
    /// Publish cadence: queued publications go out in one `write` per
    /// flush, at most one flush per tick. A publish on a connection
    /// that has just (re)connected or has been quiet for a full tick
    /// flushes at once; later ones wait for the next slot. Deliveries,
    /// subscribe, unsubscribe and shutdown never wait for it.
    pub tick: Duration,
    /// Seed for the jitter PRNG and the origin id; `None` uses OS
    /// entropy. Fixing it makes reconnect timing reproducible in tests.
    pub seed: Option<u64>,
    /// Subscribe with the broker's `DMSEQ1` from-sequence form and
    /// resume from the per-channel high-water sequence after every
    /// reconnect. Against a broker with retention disabled the form
    /// degrades to a plain subscription; disabling it here restores the
    /// pre-resume wire behaviour entirely.
    pub resume: bool,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            reconnect_base: Duration::from_millis(50),
            reconnect_cap: Duration::from_secs(2),
            max_reconnect_attempts: None,
            connect_timeout: Duration::from_secs(1),
            heartbeat_interval: Duration::from_millis(500),
            liveness_timeout: Duration::from_secs(3),
            dedup_window: 1024,
            publish_retries: 8,
            max_pending_publishes: 4096,
            tick: Duration::from_millis(20),
            seed: None,
            resume: true,
        }
    }
}

/// Globally unique wire id of a publication: the publishing client's
/// random 64-bit `origin` plus its monotonically increasing `seq`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MessageId {
    /// The publishing client instance.
    pub origin: u64,
    /// Per-origin sequence number.
    pub seq: u64,
}

/// Why a connection ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DisconnectReason {
    /// A socket read/write error.
    Io,
    /// The server closed the connection in an orderly way.
    ServerClosed,
    /// Nothing was received within the liveness timeout — the broker is
    /// silent or the connection is half-open.
    LivenessTimeout,
    /// The server sent bytes that are not valid RESP.
    Protocol,
}

/// Why a message or publication was dropped instead of delivered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DropCause {
    /// An incoming delivery carried an id already inside the dedup
    /// window (a retry duplicate), and was suppressed.
    Duplicate {
        /// Channel the duplicate arrived on.
        channel: String,
    },
    /// An outgoing publication exhausted its send attempts.
    RetriesExhausted {
        /// Channel it was addressed to.
        channel: String,
    },
    /// The publish queue overflowed and shed its oldest entry.
    QueueFull {
        /// Channel the shed publication was addressed to.
        channel: String,
    },
}

/// A state change of a [`TcpPubSubClient`], delivered via
/// [`TcpPubSubClient::try_event`] so callers observe degradation
/// instead of hanging.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientEvent {
    /// A TCP connection to the broker was established.
    Connected {
        /// 1-based connection attempt this session took (resets after a
        /// connection that received data).
        attempt: u32,
    },
    /// The connection was lost; the client will reconnect.
    Disconnected {
        /// Why it was lost.
        reason: DisconnectReason,
    },
    /// The desired channel set was re-issued after a (re)connect.
    Resubscribed {
        /// How many channels were re-subscribed.
        channels: usize,
    },
    /// A message or publication was dropped.
    Dropped {
        /// What was dropped and why.
        cause: DropCause,
    },
    /// A from-sequence resubscribe finished replaying the broker's
    /// retained suffix; live delivery continues seamlessly after it.
    Resumed {
        /// Channel that resumed.
        channel: String,
        /// Frames the broker replayed.
        replayed: u64,
    },
    /// The broker could not replay back to the requested sequence — the
    /// missing frames were evicted from retention (or the broker
    /// restarted and reset its sequence space). Loss is bounded and
    /// *explicit*: it is exactly `missed` frames (zero only for the
    /// discontinuities, which still surface as a gap).
    Gap {
        /// Channel with the hole.
        channel: String,
        /// Frames between the requested and first-replayable sequence.
        missed: u64,
        /// Why the hole exists.
        reason: GapReason,
    },
    /// `max_reconnect_attempts` consecutive attempts failed; the worker
    /// stopped.
    GaveUp,
}

/// Why a [`ClientEvent::Gap`] was emitted. Sequences are per-broker
/// *incarnation*: a broker that restarts — and a channel that fails over
/// to a different broker — starts a fresh sequence stream, so continuity
/// with the old stream is impossible and the discontinuity is surfaced
/// instead of silently conflated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GapReason {
    /// The broker evicted the requested frames from retention; `missed`
    /// counts them exactly.
    Evicted,
    /// The broker's sequence space restarted under us (broker restart):
    /// the old high-water mark is meaningless in the new incarnation.
    Restart,
    /// The channel's home broker died and the channel was re-pointed to
    /// a survivor with a fresh sequence stream. Frames acknowledged by
    /// the dead broker but never delivered are unquantifiable across
    /// incarnations, so `missed` is 0; applications that need stronger
    /// guarantees should re-publish their unconfirmed tail on this
    /// event.
    Failover,
}

/// A delivered publication.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Message {
    /// Channel it was published on.
    pub channel: String,
    /// Payload with the wire-id header (if any) stripped.
    pub payload: Vec<u8>,
    /// The publication's unique id, when the publisher framed one.
    pub id: Option<MessageId>,
    /// The broker-assigned per-channel sequence, when this subscription
    /// is sequenced (see [`ClientConfig::resume`]).
    pub seq: Option<u64>,
}

/// A generator drawn from `seed`, or from per-process entropy (the std
/// hasher's random keys) when the caller did not ask for reproducible
/// jitter, origins and member picks.
pub(crate) fn seeded_rng(seed: Option<u64>) -> SimRng {
    SimRng::new(seed.unwrap_or_else(|| {
        use std::hash::{BuildHasher, Hasher};
        let mut h = std::collections::hash_map::RandomState::new().build_hasher();
        h.write_u64(std::process::id() as u64);
        h.finish()
    }))
}

const ID_MAGIC: &[u8] = b"DMID1;";
/// Bytes the wire-id header adds in front of a framed payload.
pub const ID_HEADER_LEN: usize = 6 + 16 + 16 + 1;

/// Frames `body` with `id` for the paper's duplicate-suppression
/// scheme: `DMID1;<origin:016x><seq:016x>;<body>`. The header is plain
/// payload bytes to the broker, so unmodified RESP servers forward it
/// untouched.
pub fn frame_payload(id: MessageId, body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(ID_HEADER_LEN + body.len());
    out.extend_from_slice(ID_MAGIC);
    out.extend_from_slice(format!("{:016x}{:016x}", id.origin, id.seq).as_bytes());
    out.push(b';');
    out.extend_from_slice(body);
    out
}

/// Splits a delivered payload into its wire id (if the publisher framed
/// one) and the body. Payloads without a valid header pass through
/// verbatim.
pub fn parse_payload(payload: &[u8]) -> (Option<MessageId>, &[u8]) {
    if payload.len() < ID_HEADER_LEN
        || !payload.starts_with(ID_MAGIC)
        || payload[ID_HEADER_LEN - 1] != b';'
    {
        return (None, payload);
    }
    let hex = &payload[ID_MAGIC.len()..ID_HEADER_LEN - 1];
    let Ok(hex) = std::str::from_utf8(hex) else {
        return (None, payload);
    };
    let (origin, seq) = hex.split_at(16);
    match (
        u64::from_str_radix(origin, 16),
        u64::from_str_radix(seq, 16),
    ) {
        (Ok(origin), Ok(seq)) => (Some(MessageId { origin, seq }), &payload[ID_HEADER_LEN..]),
        _ => (None, payload),
    }
}

enum Cmd {
    Subscribe {
        channel: String,
        from: Option<u64>,
    },
    Unsubscribe(String),
    Publish {
        channel: String,
        body: Vec<u8>,
    },
    PublishRaw {
        channel: String,
        payload: Vec<u8>,
    },
    /// Drain every queued/unacknowledged publication and hand it to the
    /// caller (failover rescue; see [`TcpPubSubClient::take_unsent`]).
    TakeUnsent(mpsc::Sender<Vec<(String, Vec<u8>)>>),
}

/// Per-channel resume bookkeeping: where the caller asked to start and
/// the highest broker sequence seen so far.
#[derive(Debug, Default, Clone, Copy)]
struct ResumeState {
    /// Caller-requested starting sequence ([`TcpPubSubClient::subscribe_from`]).
    base_from: Option<u64>,
    /// Highest sequence received on the channel; the next resubscribe
    /// resumes at `high_water + 1`.
    high_water: Option<u64>,
}

impl ResumeState {
    /// The `SUBSCRIBE` argument re-establishing this subscription:
    /// plain name without resume, `DMSEQ1`-framed otherwise — from the
    /// furthest point already covered, live when nothing is.
    fn subscribe_arg(&self, resume: bool, channel: &str) -> String {
        if !resume {
            return channel.to_owned();
        }
        let from = match (self.base_from, self.high_water) {
            (None, None) => None,
            (base, hw) => Some(base.unwrap_or(0).max(hw.map_or(0, |h| h + 1))),
        };
        seq::encode_subscribe_arg(channel, from)
    }
}

/// Token of the worker's broker socket.
const SOCKET: Token = Token(0);
/// Token of the worker's waker.
const WAKE: Token = Token(1);
/// Bytes taken from the socket per readiness event.
const READ_CHUNK: usize = 64 * 1024;

/// Commands from the caller, plus the worker's sleep state.
struct Inbox {
    cmds: VecDeque<Cmd>,
    /// True while the worker sleeps with no flush slot pending: the
    /// connection has been quiet for a full tick, so the next publish
    /// must wake it to flush at once. While false, a publish rides the
    /// slot the worker already wakes for.
    idle: bool,
}

/// Wakes one thread that drains several clients (the router and
/// sidecar pumps). A client's worker rings it after each pass of its
/// loop that delivered messages or emitted events; the drainer sleeps
/// in [`Doorbell::wait_until`] until then or its next housekeeping
/// deadline.
#[derive(Default)]
pub(crate) struct Doorbell {
    rung: std::sync::Mutex<bool>,
    cv: Condvar,
}

impl Doorbell {
    /// Marks work as pending and wakes the waiter, if one sleeps.
    pub(crate) fn ring(&self) {
        let mut rung = self.rung.lock().unwrap_or_else(|p| p.into_inner());
        if !std::mem::replace(&mut *rung, true) {
            self.cv.notify_one();
        }
    }

    /// Sleeps until the bell rings or `deadline` passes, then clears it.
    pub(crate) fn wait_until(&self, deadline: Instant) {
        let mut rung = self.rung.lock().unwrap_or_else(|p| p.into_inner());
        while !*rung {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            rung = match self.cv.wait_timeout(rung, deadline - now) {
                Ok((g, _)) => g,
                Err(p) => p.into_inner().0,
            };
        }
        *rung = false;
    }
}

struct ClientShared {
    running: AtomicBool,
    inbox: Mutex<Inbox>,
    /// The worker's waker, set once its poller exists.
    waker: OnceLock<Waker>,
    /// `true` once the worker thread has exited (gave up or shut down);
    /// after that, commands are never processed again.
    exited: AtomicBool,
    /// Publications the worker deposited when it gave up, so
    /// [`TcpPubSubClient::take_unsent`] can still rescue them from a
    /// client whose worker is gone.
    stranded: Mutex<Vec<(String, Vec<u8>)>>,
}

impl ClientShared {
    fn wake(&self) {
        if let Some(waker) = self.waker.get() {
            let _ = waker.wake();
        }
    }

    /// Queues a command the worker acts on at once.
    fn command(&self, cmd: Cmd) {
        self.inbox.lock().cmds.push_back(cmd);
        self.wake();
    }

    /// Queues a publication for the next flush slot, waking the worker
    /// only when it is idle (no slot pending).
    fn publication(&self, cmd: Cmd) {
        let idle = {
            let mut inbox = self.inbox.lock();
            inbox.cmds.push_back(cmd);
            std::mem::replace(&mut inbox.idle, false)
        };
        if idle {
            self.wake();
        }
    }
}

/// A resilient RESP pub/sub client (see the module docs for the failure
/// model).
///
/// # Examples
///
/// ```no_run
/// use dynamoth_pubsub::{ClientEvent, TcpPubSubClient};
/// use std::time::Duration;
///
/// let client = TcpPubSubClient::connect("127.0.0.1:6379").expect("resolve");
/// client.subscribe("tile_1");
/// client.publish("tile_1", b"hello");
/// while let Some(msg) = client.message_timeout(Duration::from_secs(1)) {
///     println!("{}: {} bytes", msg.channel, msg.payload.len());
/// }
/// client.shutdown();
/// ```
pub struct TcpPubSubClient {
    shared: Arc<ClientShared>,
    worker: Option<JoinHandle<()>>,
    messages: Mutex<mpsc::Receiver<Message>>,
    events: Mutex<mpsc::Receiver<ClientEvent>>,
    origin: u64,
}

impl TcpPubSubClient {
    /// Starts a client for the broker at `addr` with default tuning.
    /// Returns immediately; the connection is established (and forever
    /// re-established) by a background worker — watch
    /// [`ClientEvent`]s to observe it.
    ///
    /// # Errors
    ///
    /// Returns an error only when `addr` cannot be resolved.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<TcpPubSubClient> {
        TcpPubSubClient::connect_with(addr, ClientConfig::default())
    }

    /// Starts a client with explicit [`ClientConfig`] tuning.
    ///
    /// # Errors
    ///
    /// Returns an error only when `addr` cannot be resolved.
    pub fn connect_with(
        addr: impl ToSocketAddrs,
        config: ClientConfig,
    ) -> std::io::Result<TcpPubSubClient> {
        let addr = addr.to_socket_addrs()?.next().ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::AddrNotAvailable, "no address resolved")
        })?;
        Ok(TcpPubSubClient::connect_addr(addr, config))
    }

    /// Starts a client for an already-resolved address. Infallible: the
    /// TCP connection itself is established (and re-established, with
    /// capped-exponential backoff) by the background worker, so there is
    /// nothing left that can fail synchronously — watch
    /// [`ClientEvent`]s to observe connection state. This is the entry
    /// point for infrastructure that must never panic or abort on a
    /// temporarily unreachable peer (dispatcher sidecars, the live
    /// balancer).
    pub fn connect_addr(addr: SocketAddr, config: ClientConfig) -> TcpPubSubClient {
        TcpPubSubClient::connect_with_doorbell(addr, config, None)
    }

    /// [`Self::connect_addr`], ringing `doorbell` after every batch of
    /// the worker that delivered messages or emitted events.
    pub(crate) fn connect_with_doorbell(
        addr: SocketAddr,
        config: ClientConfig,
        doorbell: Option<Arc<Doorbell>>,
    ) -> TcpPubSubClient {
        let shared = Arc::new(ClientShared {
            running: AtomicBool::new(true),
            inbox: Mutex::new(Inbox {
                cmds: VecDeque::new(),
                idle: false,
            }),
            waker: OnceLock::new(),
            exited: AtomicBool::new(false),
            stranded: Mutex::new(Vec::new()),
        });
        let (msg_tx, msg_rx) = mpsc::channel();
        let (event_tx, event_rx) = mpsc::channel();
        let mut rng = seeded_rng(config.seed);
        let origin = rng.next_u64();
        let worker = Worker {
            addr,
            cfg: config,
            shared: Arc::clone(&shared),
            messages: msg_tx,
            events: event_tx,
            rng,
            origin,
            next_seq: 0,
            desired: BTreeMap::new(),
            pending: VecDeque::new(),
            unacked: VecDeque::new(),
            dedup: Dedup::new(),
            doorbell,
            produced: false,
        };
        let handle = std::thread::spawn(move || worker.run());
        TcpPubSubClient {
            shared,
            worker: Some(handle),
            messages: Mutex::new(msg_rx),
            events: Mutex::new(event_rx),
            origin,
        }
    }

    /// This client's random 64-bit origin — the first half of every
    /// wire id it frames. The routed tier derives per-client control
    /// channel names from it.
    pub fn origin(&self) -> u64 {
        self.origin
    }

    /// Adds `channel` to the desired subscription set; the worker
    /// subscribes now (if connected) and after every reconnect. With
    /// [`ClientConfig::resume`] on, delivery starts live and every
    /// later reconnect resumes from the highest sequence seen.
    pub fn subscribe(&self, channel: &str) {
        self.shared.command(Cmd::Subscribe {
            channel: channel.to_owned(),
            from: None,
        });
    }

    /// Like [`Self::subscribe`], but asks the broker to first replay
    /// its retained frames of `channel` starting at sequence `from`
    /// (after a `<switch>` migration the routed tier passes 0 on a
    /// broker it never took the channel from, so the new home's whole
    /// post-migration suffix replays). The
    /// replay ends with a [`ClientEvent::Resumed`], or surfaces a
    /// [`ClientEvent::Gap`] when `from` is no longer retained.
    pub fn subscribe_from(&self, channel: &str, from: u64) {
        self.shared.command(Cmd::Subscribe {
            channel: channel.to_owned(),
            from: Some(from),
        });
    }

    /// Removes `channel` from the desired subscription set.
    pub fn unsubscribe(&self, channel: &str) {
        self.shared.command(Cmd::Unsubscribe(channel.to_owned()));
    }

    /// Publishes `body` on `channel` with a fresh globally unique wire
    /// id. The publication is queued, retried across reconnects until
    /// acknowledged, and eventually dropped (with a
    /// [`ClientEvent::Dropped`]) if the broker never accepts it.
    pub fn publish(&self, channel: &str, body: &[u8]) {
        self.shared.publication(Cmd::Publish {
            channel: channel.to_owned(),
            body: body.to_vec(),
        });
    }

    /// Publishes an already-framed payload verbatim — no new wire id is
    /// allocated and any existing `DMID1` header is preserved. This is
    /// the forwarding primitive of the routed tier: a dispatcher
    /// re-publishing a wrong-server publication keeps the original id,
    /// so receive-side dedup windows still suppress duplicates.
    pub fn publish_raw(&self, channel: &str, payload: &[u8]) {
        self.shared.publication(Cmd::PublishRaw {
            channel: channel.to_owned(),
            payload: payload.to_vec(),
        });
    }

    /// Drains every publication still queued or unacknowledged and
    /// returns it as `(channel, framed payload)` pairs, oldest first.
    /// The payloads keep their original `DMID1` wire ids, so
    /// re-publishing them via [`Self::publish_raw`] on another broker is
    /// dedup-safe: entries that in fact landed before the drain are
    /// suppressed by receive-side windows. This is the failover rescue
    /// primitive — when this client's broker is declared dead, the
    /// router moves the stranded tail to a survivor instead of retrying
    /// into the corpse. Works on a worker that already gave up (it
    /// deposits its queue on exit); a live worker that does not respond
    /// within `timeout` yields an empty result.
    pub fn take_unsent(&self, timeout: Duration) -> Vec<(String, Vec<u8>)> {
        let (tx, rx) = mpsc::channel();
        self.shared.command(Cmd::TakeUnsent(tx));
        // A worker that already gave up deposited its queue instead;
        // only wait on the command round-trip while the worker lives.
        let mut out = std::mem::take(&mut *self.shared.stranded.lock());
        if !self.shared.exited.load(Ordering::SeqCst) {
            out.extend(rx.recv_timeout(timeout).unwrap_or_default());
        }
        out.extend(std::mem::take(&mut *self.shared.stranded.lock()));
        out
    }

    /// The next delivered message, if one is already queued.
    pub fn try_message(&self) -> Option<Message> {
        self.messages.lock().try_recv().ok()
    }

    /// Blocks up to `timeout` for the next delivered message.
    pub fn message_timeout(&self, timeout: Duration) -> Option<Message> {
        self.messages.lock().recv_timeout(timeout).ok()
    }

    /// The next client event, if one is already queued.
    pub fn try_event(&self) -> Option<ClientEvent> {
        self.events.lock().try_recv().ok()
    }

    /// Blocks up to `timeout` for the next client event.
    pub fn event_timeout(&self, timeout: Duration) -> Option<ClientEvent> {
        self.events.lock().recv_timeout(timeout).ok()
    }

    /// Stops the worker and closes the connection.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.shared.running.store(false, Ordering::SeqCst);
        self.shared.wake();
        if let Some(handle) = self.worker.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for TcpPubSubClient {
    fn drop(&mut self) {
        if self.worker.is_some() {
            self.stop();
        }
    }
}

impl std::fmt::Debug for TcpPubSubClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpPubSubClient").finish_non_exhaustive()
    }
}

struct PendingPub {
    channel: String,
    /// Id-framed payload; every send encodes the same `PUBLISH` frame
    /// from it, so a retry re-sends byte-identical data — same id,
    /// dedupable — and a failover rescue can re-home it verbatim.
    framed: Vec<u8>,
    attempts: u32,
}

impl PendingPub {
    /// Appends this publication's `PUBLISH` frame to `wire`.
    fn encode_into(&self, wire: &mut Vec<u8>) {
        resp::encode(
            &Value::array(vec![
                Value::bulk("PUBLISH"),
                Value::bulk(self.channel.as_str()),
                Value::Bulk(Some(self.framed.clone())),
            ]),
            wire,
        );
    }
}

struct Worker {
    addr: SocketAddr,
    cfg: ClientConfig,
    shared: Arc<ClientShared>,
    messages: mpsc::Sender<Message>,
    events: mpsc::Sender<ClientEvent>,
    rng: SimRng,
    origin: u64,
    next_seq: u64,
    desired: BTreeMap<String, ResumeState>,
    pending: VecDeque<PendingPub>,
    unacked: VecDeque<PendingPub>,
    dedup: Dedup<MessageId>,
    /// Rung after each batch that delivered or emitted something.
    doorbell: Option<Arc<Doorbell>>,
    /// Something was delivered or emitted since the doorbell last rang.
    produced: bool,
}

impl Worker {
    fn running(&self) -> bool {
        self.shared.running.load(Ordering::SeqCst)
    }

    fn emit(&mut self, event: ClientEvent) {
        let _ = self.events.send(event);
        self.produced = true;
    }

    fn deliver(&mut self, message: Message) {
        let _ = self.messages.send(message);
        self.produced = true;
    }

    /// Ends a batch: rings the doorbell if the batch produced anything.
    fn ring(&mut self) {
        if std::mem::take(&mut self.produced) {
            if let Some(bell) = &self.doorbell {
                bell.ring();
            }
        }
    }

    /// The worker's poller, created on first use and kept for the
    /// worker's life; its waker is published to the caller side.
    fn open_poll(&self, poll: &mut Option<Poll>) -> std::io::Result<()> {
        if poll.is_none() {
            let fresh = Poll::new()?;
            let waker = Waker::new(fresh.registry(), WAKE)?;
            let _ = self.shared.waker.set(waker);
            *poll = Some(fresh);
        }
        Ok(())
    }

    fn run(mut self) {
        let mut poll: Option<Poll> = None;
        // Failed attempts since the last connection that received data.
        let mut attempts: u32 = 0;
        while self.running() {
            // A poller that cannot be created (fd exhaustion) fails the
            // attempt exactly like a refused connect.
            let connected = self
                .open_poll(&mut poll)
                .and_then(|()| TcpStream::connect_timeout(&self.addr, self.cfg.connect_timeout));
            match (connected, poll.as_mut()) {
                (Ok(stream), Some(p)) => {
                    attempts += 1;
                    self.emit(ClientEvent::Connected { attempt: attempts });
                    let got_data = self.session(stream, p);
                    // Whatever was in flight when the session died goes
                    // back to the head of the queue, oldest first.
                    while let Some(p) = self.unacked.pop_back() {
                        self.pending.push_front(p);
                    }
                    if got_data {
                        attempts = 0;
                    }
                }
                _ => {
                    attempts += 1;
                    // A refused/timed-out connect is down-ness evidence
                    // too: without this a broker that died *before* the
                    // first contact would never trip the router's
                    // failover timer (no session, no event, no probe).
                    self.emit(ClientEvent::Disconnected {
                        reason: DisconnectReason::Io,
                    });
                }
            }
            self.ring();
            if !self.running() {
                break;
            }
            if let Some(max) = self.cfg.max_reconnect_attempts {
                if attempts >= max {
                    // Deposit the undeliverable queue where
                    // `take_unsent` can rescue it after this worker is
                    // gone (a failover re-homes it to a survivor).
                    let stranded: Vec<(String, Vec<u8>)> = self
                        .unacked
                        .drain(..)
                        .chain(self.pending.drain(..))
                        .map(|p| (p.channel, p.framed))
                        .collect();
                    *self.shared.stranded.lock() = stranded;
                    self.emit(ClientEvent::GaveUp);
                    self.ring();
                    break;
                }
            }
            self.backoff_sleep(attempts, poll.as_mut());
        }
        self.shared.exited.store(true, Ordering::SeqCst);
    }

    /// Runs one connected session; returns whether any bytes were
    /// received (which is what resets the backoff counter — a half-open
    /// accept that never speaks does not count as progress).
    fn session(&mut self, mut stream: TcpStream, poll: &mut Poll) -> bool {
        let _ = stream.set_nodelay(true);
        // Reads only follow readiness; the timeout merely bounds one
        // that a spurious wake-up might start.
        let _ = stream.set_read_timeout(Some(self.cfg.tick));
        if poll
            .registry()
            .register(&stream, SOCKET, Interest::READABLE)
            .is_err()
        {
            self.emit(ClientEvent::Disconnected {
                reason: DisconnectReason::Io,
            });
            return false;
        }
        let got_data = self.serve(&mut stream, poll);
        let _ = poll.registry().deregister(&stream);
        got_data
    }

    /// The session's event loop: sleep in the poller until the socket,
    /// a caller or the next deadline (heartbeat, liveness, flush slot)
    /// has work, then do it.
    fn serve(&mut self, stream: &mut TcpStream, poll: &mut Poll) -> bool {
        // Transparent re-subscribe before anything else, resuming each
        // channel from its high-water sequence.
        if !self.desired.is_empty() {
            let mut words = vec![Value::bulk("SUBSCRIBE")];
            words.extend(
                self.desired
                    .iter()
                    .map(|(c, st)| Value::bulk(st.subscribe_arg(self.cfg.resume, c))),
            );
            let mut wire = Vec::new();
            resp::encode(&Value::array(words), &mut wire);
            if stream.write_all(&wire).is_err() {
                self.emit(ClientEvent::Disconnected {
                    reason: DisconnectReason::Io,
                });
                return false;
            }
            self.emit(ClientEvent::Resubscribed {
                channels: self.desired.len(),
            });
        }
        // PING often enough that a silent broker misses several
        // heartbeats before the liveness deadline fires.
        let ping_every = self
            .cfg
            .heartbeat_interval
            .min(self.cfg.liveness_timeout / 2)
            .max(Duration::from_millis(1));
        let mut last_rx = Instant::now();
        let mut last_ping = Instant::now();
        // `None` until the first flush: a fresh connection flushes its
        // queue at once.
        let mut last_flush: Option<Instant> = None;
        let mut got_data = false;
        let mut readable = false;
        let mut events = Events::with_capacity(8);
        let mut buf: Vec<u8> = Vec::new();
        let mut chunk = vec![0u8; READ_CHUNK];
        loop {
            let reason = 'fail: {
                if readable {
                    match stream.read(&mut chunk) {
                        Ok(0) => break 'fail Some(DisconnectReason::ServerClosed),
                        Ok(n) => {
                            last_rx = Instant::now();
                            got_data = true;
                            buf.extend_from_slice(&chunk[..n]);
                            if !self.decode_frames(&mut buf) {
                                break 'fail Some(DisconnectReason::Protocol);
                            }
                        }
                        Err(e)
                            if matches!(
                                e.kind(),
                                ErrorKind::WouldBlock
                                    | ErrorKind::TimedOut
                                    | ErrorKind::Interrupted
                            ) => {}
                        Err(_) => break 'fail Some(DisconnectReason::Io),
                    }
                }
                if !self.apply_commands(Some(stream)) {
                    break 'fail Some(DisconnectReason::Io);
                }
                let now = Instant::now();
                if !self.pending.is_empty() && last_flush.is_none_or(|t| now >= t + self.cfg.tick) {
                    if !self.flush(stream) {
                        break 'fail Some(DisconnectReason::Io);
                    }
                    last_flush = Some(now);
                }
                if now >= last_rx + self.cfg.liveness_timeout {
                    break 'fail Some(DisconnectReason::LivenessTimeout);
                }
                if now >= last_ping + ping_every {
                    let mut wire = Vec::new();
                    encode_command(&["PING"], &mut wire);
                    if stream.write_all(&wire).is_err() {
                        break 'fail Some(DisconnectReason::Io);
                    }
                    last_ping = now;
                }
                None
            };
            if let Some(reason) = reason {
                self.emit(ClientEvent::Disconnected { reason });
                return got_data;
            }
            self.ring();
            let now = Instant::now();
            let mut deadline = (last_ping + ping_every).min(last_rx + self.cfg.liveness_timeout);
            match last_flush.map(|t| t + self.cfg.tick) {
                // Inside the tick after a flush: wake at the slot to
                // collect the publications queued meanwhile.
                Some(slot) if slot > now => deadline = deadline.min(slot),
                // Quiet for a full tick: go idle, so the next publish
                // wakes the worker and flushes at once.
                _ => {
                    let mut inbox = self.shared.inbox.lock();
                    if inbox.cmds.is_empty() && self.pending.is_empty() {
                        inbox.idle = true;
                    } else {
                        deadline = now;
                    }
                }
            }
            if !self.running() {
                return got_data;
            }
            if poll
                .poll(&mut events, Some(deadline.saturating_duration_since(now)))
                .is_err()
            {
                self.emit(ClientEvent::Disconnected {
                    reason: DisconnectReason::Io,
                });
                return got_data;
            }
            readable = events.iter().any(|ev| ev.token() == SOCKET);
            self.shared.inbox.lock().idle = false;
        }
    }

    /// Interprets every complete frame in `buf`, then drops the bytes
    /// consumed in one drain. Returns `false` on a protocol error.
    fn decode_frames(&mut self, buf: &mut Vec<u8>) -> bool {
        let mut pos = 0;
        let ok = loop {
            match resp::decode(&buf[pos..]) {
                Ok(Some((value, used))) => {
                    pos += used;
                    self.handle_frame(value);
                }
                Ok(None) => break true,
                Err(_) => break false,
            }
        };
        buf.drain(..pos);
        ok
    }

    /// Interprets one server frame.
    fn handle_frame(&mut self, value: Value) {
        match value {
            Value::Array(Some(items)) => {
                let kind = match items.first() {
                    Some(Value::Bulk(Some(k))) => k.as_slice(),
                    _ => return,
                };
                if kind != b"message" || items.len() != 3 {
                    return; // subscribe/unsubscribe confirmations etc.
                }
                let channel = match &items[1] {
                    Value::Bulk(Some(c)) => String::from_utf8_lossy(c).into_owned(),
                    _ => return,
                };
                let mut payload = match &items[2] {
                    Value::Bulk(Some(p)) => p.as_slice(),
                    _ => return,
                };
                let mut broker_seq = None;
                if self.cfg.resume {
                    // Resume-protocol markers arrive as unicast pushes
                    // on the channel; intercept them before the normal
                    // delivery path.
                    if let Some((requested, resume_from)) = seq::parse_gap(payload) {
                        // `resume_from < requested` means the broker's
                        // sequence space restarted under us: the stale
                        // high-water must be forgotten or every future
                        // resubscribe re-requests it.
                        let reason = if resume_from < requested {
                            if let Some(st) = self.desired.get_mut(&channel) {
                                st.base_from = None;
                                st.high_water = None;
                            }
                            GapReason::Restart
                        } else {
                            GapReason::Evicted
                        };
                        self.emit(ClientEvent::Gap {
                            channel,
                            missed: resume_from.saturating_sub(requested),
                            reason,
                        });
                        return;
                    }
                    if let Some((replayed, _next)) = seq::parse_resume(payload) {
                        self.emit(ClientEvent::Resumed { channel, replayed });
                        return;
                    }
                    if let Some((s, body)) = seq::parse_seq_payload(payload) {
                        broker_seq = Some(s);
                        payload = body;
                        if let Some(st) = self.desired.get_mut(&channel) {
                            st.high_water = Some(st.high_water.map_or(s, |h| h.max(s)));
                        }
                    }
                }
                let (id, body) = parse_payload(payload);
                if let Some(id) = id {
                    if !self.dedup.insert(id, self.cfg.dedup_window) {
                        self.emit(ClientEvent::Dropped {
                            cause: DropCause::Duplicate { channel },
                        });
                        return;
                    }
                }
                self.deliver(Message {
                    channel,
                    payload: body.to_vec(),
                    id,
                    seq: broker_seq,
                });
            }
            // Publish acknowledgement (receiver count). Replies on one
            // connection are FIFO, so it acks the oldest in flight.
            Value::Integer(_) => {
                self.unacked.pop_front();
            }
            // An error reply deliberately acks nothing: a broker that
            // choked on a torn frame error-replies before closing, and
            // the publish it refused must be retried, not silently
            // counted delivered. Retrying a publish that *did* land is
            // safe (the dedup window suppresses it); dropping one that
            // did not is a lost message.
            // +PONG, -ERR and anything else: receipt already fed
            // liveness.
            _ => {}
        }
    }

    /// Applies queued caller commands, writing their subscription
    /// changes in one `write`; `stream` is `None` while disconnected
    /// (the desired set and publish queue still update). Returns
    /// `false` on a write error.
    fn apply_commands(&mut self, stream: Option<&mut TcpStream>) -> bool {
        let cmds = std::mem::take(&mut self.shared.inbox.lock().cmds);
        let mut wire = Vec::new();
        for cmd in cmds {
            match cmd {
                Cmd::Subscribe { channel, from } => {
                    let is_new = !self.desired.contains_key(&channel);
                    let st = self.desired.entry(channel.clone()).or_default();
                    if from.is_some() {
                        st.base_from = from;
                    }
                    // An explicit `from` re-issues the SUBSCRIBE even on
                    // an already-subscribed channel: the broker replaces
                    // the registration and replays from the new point.
                    if is_new || from.is_some() {
                        let arg = st.subscribe_arg(self.cfg.resume, &channel);
                        encode_command(&["SUBSCRIBE", &arg], &mut wire);
                    }
                }
                Cmd::Unsubscribe(channel) => {
                    if self.desired.remove(&channel).is_some() {
                        encode_command(&["UNSUBSCRIBE", &channel], &mut wire);
                    }
                }
                Cmd::Publish { channel, body } => {
                    let id = MessageId {
                        origin: self.origin,
                        seq: self.next_seq,
                    };
                    self.next_seq += 1;
                    let framed = frame_payload(id, &body);
                    self.enqueue_publish(channel, framed);
                }
                Cmd::PublishRaw { channel, payload } => {
                    self.enqueue_publish(channel, payload);
                }
                Cmd::TakeUnsent(reply) => {
                    // Oldest first: in-flight (unacked) precede queued.
                    let drained: Vec<(String, Vec<u8>)> = self
                        .unacked
                        .drain(..)
                        .chain(self.pending.drain(..))
                        .map(|p| (p.channel, p.framed))
                        .collect();
                    let _ = reply.send(drained);
                }
            }
        }
        match stream {
            Some(s) if !wire.is_empty() => s.write_all(&wire).is_ok(),
            _ => true,
        }
    }

    /// Queues one fully framed payload for publication, shedding the
    /// oldest pending entry when the queue is full.
    fn enqueue_publish(&mut self, channel: String, framed: Vec<u8>) {
        if self.pending.len() + self.unacked.len() >= self.cfg.max_pending_publishes {
            if let Some(shed) = self.pending.pop_front() {
                self.emit(ClientEvent::Dropped {
                    cause: DropCause::QueueFull {
                        channel: shed.channel,
                    },
                });
            }
        }
        self.pending.push_back(PendingPub {
            channel,
            framed,
            attempts: 0,
        });
    }

    /// Sends every queued publication in one `write`, dropping those
    /// that exhausted their attempts. Returns `false` on a write error
    /// (the publications stay in flight and are re-queued with it).
    fn flush(&mut self, stream: &mut TcpStream) -> bool {
        let mut wire = Vec::new();
        while let Some(mut p) = self.pending.pop_front() {
            if p.attempts >= self.cfg.publish_retries {
                self.emit(ClientEvent::Dropped {
                    cause: DropCause::RetriesExhausted { channel: p.channel },
                });
                continue;
            }
            p.attempts += 1;
            p.encode_into(&mut wire);
            self.unacked.push_back(p);
        }
        wire.is_empty() || stream.write_all(&wire).is_ok()
    }

    /// Sleeps for a full-jitter backoff delay, staying responsive to
    /// shutdown and still absorbing caller commands. The poller (absent
    /// only when it could not be created) wakes on every command that
    /// acts at once.
    fn backoff_sleep(&mut self, attempts: u32, mut poll: Option<&mut Poll>) {
        let base = self.cfg.reconnect_base.as_millis().max(1) as u64;
        let cap = self.cfg.reconnect_cap.as_millis().max(1) as u64;
        let exp = attempts.saturating_sub(1).min(16);
        let ceiling = cap.min(base.saturating_mul(1u64 << exp)).max(1);
        let delay = Duration::from_millis(1 + self.rng.next_below(ceiling));
        let deadline = Instant::now() + delay;
        let mut events = Events::with_capacity(1);
        while self.running() {
            self.apply_commands(None);
            let now = Instant::now();
            if now >= deadline {
                return;
            }
            match poll.as_deref_mut() {
                Some(p) => {
                    let _ = p.poll(&mut events, Some(deadline - now));
                }
                None => std::thread::sleep((deadline - now).min(Duration::from_millis(10))),
            }
        }
    }
}

/// Appends one command array to `wire`.
fn encode_command(words: &[&str], wire: &mut Vec<u8>) {
    resp::encode(
        &Value::array(words.iter().map(|w| Value::bulk(*w)).collect()),
        wire,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_ids_roundtrip() {
        let id = MessageId {
            origin: 0xdead_beef_cafe_f00d,
            seq: 42,
        };
        let framed = frame_payload(id, b"position update");
        let (parsed, body) = parse_payload(&framed);
        assert_eq!(parsed, Some(id));
        assert_eq!(body, b"position update");
    }

    #[test]
    fn unframed_payloads_pass_through() {
        for raw in [&b"plain"[..], b"", b"DMID1;short", &[0u8; 64][..]] {
            let (id, body) = parse_payload(raw);
            assert_eq!(id, None);
            assert_eq!(body, raw);
        }
    }

    #[test]
    fn header_lookalike_with_bad_hex_passes_through() {
        let mut fake = Vec::new();
        fake.extend_from_slice(ID_MAGIC);
        fake.extend_from_slice(&[b'z'; 32]);
        fake.push(b';');
        fake.extend_from_slice(b"body");
        let (id, body) = parse_payload(&fake);
        assert_eq!(id, None);
        assert_eq!(body, &fake[..]);
    }

    #[test]
    fn resubscribe_arg_resumes_past_the_furthest_point() {
        let fresh = ResumeState::default();
        // A fresh subscription goes live-sequenced: no history replay.
        assert_eq!(fresh.subscribe_arg(true, "ch"), "DMSEQ1;-;ch");
        assert_eq!(fresh.subscribe_arg(false, "ch"), "ch");
        let hw = ResumeState {
            base_from: None,
            high_water: Some(9),
        };
        assert_eq!(
            hw.subscribe_arg(true, "ch"),
            format!("DMSEQ1;{:016x};ch", 10)
        );
        // An explicit base only wins while it lies beyond the
        // high-water mark.
        let both = ResumeState {
            base_from: Some(3),
            high_water: Some(9),
        };
        assert_eq!(
            both.subscribe_arg(true, "ch"),
            format!("DMSEQ1;{:016x};ch", 10)
        );
        let ahead = ResumeState {
            base_from: Some(42),
            high_water: Some(9),
        };
        assert_eq!(
            ahead.subscribe_arg(true, "ch"),
            format!("DMSEQ1;{:016x};ch", 42)
        );
    }

    /// Client tuning with a one-second publish cadence: long enough
    /// that anything waiting for a tick shows up plainly.
    fn slow_tick() -> ClientConfig {
        ClientConfig {
            tick: Duration::from_secs(1),
            seed: Some(7),
            ..ClientConfig::default()
        }
    }

    fn await_connected(client: &TcpPubSubClient) {
        let deadline = Instant::now() + Duration::from_secs(5);
        while Instant::now() < deadline {
            if let Some(ClientEvent::Connected { .. }) =
                client.event_timeout(Duration::from_millis(50))
            {
                return;
            }
        }
        panic!("client never connected");
    }

    /// A plain listener standing in for a broker: it records which
    /// read brought each `PUBLISH` and when.
    struct RawPeer {
        stream: TcpStream,
        buf: Vec<u8>,
        reads: usize,
    }

    impl RawPeer {
        /// The next `PUBLISH` payload, with its arrival time and the
        /// index of the read that brought it.
        fn next_publish(&mut self) -> (Vec<u8>, Instant, usize) {
            let deadline = Instant::now() + Duration::from_secs(5);
            loop {
                while let Ok(Some((value, used))) = resp::decode(&self.buf) {
                    self.buf.drain(..used);
                    if let Value::Array(Some(items)) = value {
                        if items.first() == Some(&Value::bulk("PUBLISH")) {
                            if let Some(Value::Bulk(Some(payload))) = items.get(2) {
                                return (payload.clone(), Instant::now(), self.reads);
                            }
                        }
                    }
                }
                assert!(Instant::now() < deadline, "no PUBLISH arrived");
                let mut chunk = [0u8; 4096];
                match self.stream.read(&mut chunk) {
                    Ok(0) => panic!("client closed the connection"),
                    Ok(n) => {
                        self.reads += 1;
                        self.buf.extend_from_slice(&chunk[..n]);
                    }
                    Err(_) => {}
                }
            }
        }
    }

    fn raw_peer(config: ClientConfig) -> (TcpPubSubClient, RawPeer) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpPubSubClient::connect_addr(listener.local_addr().unwrap(), config);
        let (stream, _) = listener.accept().unwrap();
        stream
            .set_read_timeout(Some(Duration::from_millis(20)))
            .unwrap();
        await_connected(&client);
        let peer = RawPeer {
            stream,
            buf: Vec::new(),
            reads: 0,
        };
        (client, peer)
    }

    #[test]
    fn subscribe_on_an_idle_client_registers_at_once() {
        let broker = crate::TcpBroker::bind("127.0.0.1:0").unwrap();
        let client = TcpPubSubClient::connect_addr(broker.local_addr(), slow_tick());
        await_connected(&client);
        std::thread::sleep(Duration::from_millis(100));
        let t0 = Instant::now();
        client.subscribe("idle.sub");
        while broker.channel_subscribers("idle.sub") == 0 {
            assert!(t0.elapsed() < Duration::from_secs(2), "never registered");
            std::thread::sleep(Duration::from_micros(200));
        }
        let took = t0.elapsed();
        assert!(
            took < Duration::from_millis(50),
            "registered after {took:?}"
        );
        client.shutdown();
        broker.shutdown();
    }

    #[test]
    fn an_isolated_publish_goes_out_at_once() {
        let (client, mut peer) = raw_peer(slow_tick());
        std::thread::sleep(Duration::from_millis(100));
        let t0 = Instant::now();
        client.publish("lone", b"first");
        let (payload, at, _) = peer.next_publish();
        assert!(payload.ends_with(b"first"));
        let took = at - t0;
        assert!(took < Duration::from_millis(50), "arrived after {took:?}");
        client.shutdown();
    }

    #[test]
    fn quiet_window_publishes_share_the_next_slot() {
        let (client, mut peer) = raw_peer(slow_tick());
        client.publish("slot", b"a");
        let (_, first_at, _) = peer.next_publish();
        // Both land inside the tick after the first flush: neither
        // wakes the worker, and they leave together at the next slot.
        client.publish("slot", b"b");
        client.publish("slot", b"c");
        let (b, b_at, b_read) = peer.next_publish();
        let (c, c_at, c_read) = peer.next_publish();
        assert!(b.ends_with(b"b") && c.ends_with(b"c"));
        assert_eq!(b_read, c_read, "b and c came in separate writes");
        let gap = b_at - first_at;
        assert!(
            gap >= Duration::from_millis(900),
            "b left {gap:?} after the previous flush, inside the tick"
        );
        assert!(c_at - b_at < Duration::from_millis(50));
        client.shutdown();
    }

    #[test]
    fn shutdown_does_not_wait_for_a_tick() {
        let broker = crate::TcpBroker::bind("127.0.0.1:0").unwrap();
        let client = TcpPubSubClient::connect_addr(broker.local_addr(), slow_tick());
        await_connected(&client);
        std::thread::sleep(Duration::from_millis(100));
        let t0 = Instant::now();
        client.shutdown();
        let took = t0.elapsed();
        assert!(took < Duration::from_millis(100), "shutdown took {took:?}");
        broker.shutdown();
    }
}
