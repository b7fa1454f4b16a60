//! Byte-budgeted subscriber outboxes drained by the reactor loops.
//!
//! Each broker connection owns one outbox: a bounded queue of encoded
//! RESP frames measured in **bytes** (the Redis
//! `client-output-buffer-limit` analogue — a frame-count bound lets a
//! few huge payloads exhaust memory while thousands of tiny pushes trip
//! the limit spuriously; a byte budget bounds actual memory). Producers
//! ([`OutboxSender::push`]) never block; what happens when a push would
//! exceed the budget is the connection's [`OverflowPolicy`]:
//!
//! - [`OverflowPolicy::Kill`] rejects the push and the broker kills the
//!   overflowing connection (Redis' behaviour);
//! - [`OverflowPolicy::DropOldest`] sheds the oldest queued frames to
//!   make room, counts them, and keeps the connection alive — a lossy
//!   subscriber instead of a dead one;
//! - [`OverflowPolicy::ConflateByChannel`] sheds the oldest queued
//!   frame **of the same channel** as the incoming one (market-data
//!   conflation: a stalled feed subscriber keeps getting the latest
//!   value per channel instead of an ever-staler backlog), falling back
//!   to oldest-first when no same-channel frame is queued. Because only
//!   older frames of the channel are removed and the new frame is
//!   appended at the tail, the PR-6 per-channel sequence stream stays
//!   monotone — conflation advances it, it never reorders it.
//!
//! The draining side is **not** a thread: the connection's home reactor
//! loop calls [`OutboxSender::flush_to`] against the non-blocking
//! socket, flushing as many queued frames as the kernel will take with
//! [`Write::write_vectored`], so N frames queued behind a slow socket
//! cost one `writev` syscall instead of N `write` syscalls. Under a
//! publish storm the queue depth grows exactly when coalescing pays off
//! most, which is what makes the bound in bytes (not frames) safe. A
//! flush stopped short by `EWOULDBLOCK` remembers its offset into the
//! front frame and resumes mid-frame when the socket turns writable.
//!
//! Producers and the draining loop meet through the *scheduled* flag:
//! the first push onto an empty, unscheduled queue fires the outbox's
//! notifier exactly once (telling the home loop "this connection has
//! pending output"), and the flag stays set until a flush fully drains
//! the queue — so a burst of pushes costs one notification, not one
//! per frame, and an idle reactor loop is woken at most once per burst.
//!
//! A burst that arrives as one read batch on another loop would still
//! ping-pong: the home loop wakes on the first frame, drains it, and
//! re-arms the flag before the next one is pushed. A [`DeferNotify`]
//! scope closes that gap: while a thread holds one, the notifications
//! its pushes raise are held back and fired once, when the scope ends,
//! so the home loop wakes once per batch and flushes it in one
//! `writev`.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::io::{ErrorKind, IoSlice, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// An encoded RESP frame shared by every outbox it is queued on.
pub(crate) type Frame = Arc<[u8]>;

/// Linux caps `writev` at `IOV_MAX` (1024) iovecs; larger batches are
/// flushed in chunks of this size.
const MAX_IOVECS: usize = 1024;

/// What a connection's outbox does with a push that would exceed its
/// byte budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OverflowPolicy {
    /// Reject the push; the broker disconnects the subscriber exactly
    /// like Redis' `client-output-buffer-limit` (the default).
    #[default]
    Kill,
    /// Shed the oldest queued frames until the new one fits, count the
    /// shed frames, and keep the connection alive. A subscriber that
    /// cannot keep up sees gaps instead of a disconnect.
    DropOldest,
    /// Shed the oldest queued frame **for the same channel** as the
    /// incoming one until it fits (market-data conflation: a slow
    /// subscriber keeps the latest value per channel instead of a
    /// stale backlog), falling back to oldest-first when no queued
    /// frame shares the channel. Like [`DropOldest`], the connection
    /// stays alive and every shed frame is counted.
    ///
    /// [`DropOldest`]: OverflowPolicy::DropOldest
    ConflateByChannel,
}

/// Aggregate flush counters shared by every reactor loop of one broker:
/// `frames / writes` is the measured coalescing ratio.
#[derive(Debug, Default)]
pub(crate) struct FlushCounters {
    /// Frames handed to the kernel.
    pub frames: AtomicU64,
    /// Vectored write syscalls issued.
    pub writes: AtomicU64,
    /// Frames shed before reaching the kernel: `DropOldest` overflow,
    /// frames abandoned when a connection's socket dies, and frames
    /// still queued when a shutdown drain deadline passes.
    pub dropped: AtomicU64,
}

/// Per-reactor-loop I/O counters ([`FlushCounters`] is the broker-wide
/// sum of the first three; wakeups are loop-local by nature).
#[derive(Debug, Default)]
pub(crate) struct LoopIoStats {
    /// Frames this loop handed to the kernel.
    pub frames: AtomicU64,
    /// Vectored write syscalls this loop issued.
    pub writes: AtomicU64,
    /// Payload bytes this loop handed to the kernel.
    pub bytes: AtomicU64,
    /// Times this loop was woken from `epoll_wait` via its eventfd
    /// (cross-thread work arriving while it slept).
    pub wakeups: AtomicU64,
}

/// Outcome of one [`OutboxSender::flush_to`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Flush {
    /// Every queued frame reached the kernel; the loop can disarm
    /// write-readiness for this connection.
    Drained,
    /// The socket stopped accepting bytes mid-queue; the loop must arm
    /// write-readiness and resume when the socket turns writable.
    Pending,
    /// The socket died. Remaining frames were counted as dropped and
    /// the outbox closed; the caller tears the connection down.
    Failed,
}

/// The channel a queued frame belongs to, when the producer knows it.
/// Compared by **string content** (never a hash) so two distinct
/// channels can never conflate into each other; `None` frames (replies,
/// control markers, replays) are never conflation victims of a publish.
pub(crate) type FrameKey = Option<Arc<str>>;

struct Queue {
    frames: VecDeque<(Frame, FrameKey)>,
    /// Bytes of the front frame already handed to the kernel by an
    /// earlier partial flush. The front frame is *in flight* whenever
    /// this is non-zero — it can never be shed, or the byte stream
    /// would be corrupted mid-frame.
    front_offset: usize,
    /// Sum of the **full** lengths of queued frames (the budget is
    /// charged until a frame is completely on the wire).
    bytes: usize,
    closed: bool,
    /// True from the first push onto an empty queue until a flush fully
    /// drains it — the home loop has been told about the pending data
    /// and needs no further notification.
    scheduled: bool,
}

/// Callback fired (outside all outbox locks) when the queue goes from
/// empty-and-unscheduled to non-empty: tells the connection's home
/// reactor loop to flush this outbox.
pub(crate) type Notifier = Box<dyn Fn() + Send + Sync>;

struct Inner {
    queue: Mutex<Queue>,
    limit_bytes: usize,
    policy: OverflowPolicy,
    /// Frames this connection shed (see [`FlushCounters::dropped`] for
    /// the broker-wide total).
    dropped: AtomicU64,
    counters: Arc<FlushCounters>,
    notify: Option<Notifier>,
}

thread_local! {
    /// Outboxes whose notification an open [`DeferNotify`] scope on
    /// this thread holds back; `None` while no scope is open.
    static DEFERRED: RefCell<Option<Vec<Arc<Inner>>>> = const { RefCell::new(None) };
}

/// Holds back the empty→pending notifications raised on this thread
/// until the outermost scope drops, then fires each one. A nested
/// scope defers to the outer one, so nothing fires twice.
pub(crate) struct DeferNotify {
    outermost: bool,
}

impl DeferNotify {
    /// Opens a scope (or joins the one already open on this thread).
    pub fn begin() -> DeferNotify {
        let outermost = DEFERRED.with(|d| {
            let mut d = d.borrow_mut();
            if d.is_some() {
                return false;
            }
            *d = Some(Vec::new());
            true
        });
        DeferNotify { outermost }
    }
}

impl Drop for DeferNotify {
    fn drop(&mut self) {
        if !self.outermost {
            return;
        }
        let held = DEFERRED.with(|d| d.borrow_mut().take()).unwrap_or_default();
        for inner in held {
            inner.notify();
        }
    }
}

impl Inner {
    /// Tells the home loop this outbox has pending output.
    fn notify(&self) {
        if let Some(notify) = &self.notify {
            notify();
        }
    }

    /// Records `n` frames as shed, on both the per-connection and the
    /// broker-wide counter.
    fn record_dropped(&self, n: u64) {
        if n > 0 {
            self.dropped.fetch_add(n, Ordering::Relaxed);
            self.counters.dropped.fetch_add(n, Ordering::Relaxed);
        }
    }
}

/// Producer handle to a connection's outbox. Cloneable; all clones feed
/// the same queue, drained by the connection's home reactor loop.
#[derive(Clone)]
pub(crate) struct OutboxSender {
    inner: Arc<Inner>,
}

impl OutboxSender {
    /// Creates an outbox bounded at `limit_bytes` queued bytes with the
    /// [`Kill`](OverflowPolicy::Kill) overflow policy, private counters
    /// and no notifier (convenience for tests).
    #[cfg(test)]
    pub fn new(limit_bytes: usize) -> OutboxSender {
        OutboxSender::new_with(
            limit_bytes,
            OverflowPolicy::Kill,
            Arc::new(FlushCounters::default()),
            None,
        )
    }

    /// Creates an outbox bounded at `limit_bytes` queued bytes with an
    /// explicit overflow `policy`, reporting into `counters`, firing
    /// `notify` on each empty-to-pending transition.
    pub fn new_with(
        limit_bytes: usize,
        policy: OverflowPolicy,
        counters: Arc<FlushCounters>,
        notify: Option<Notifier>,
    ) -> OutboxSender {
        OutboxSender {
            inner: Arc::new(Inner {
                queue: Mutex::new(Queue {
                    frames: VecDeque::new(),
                    front_offset: 0,
                    bytes: 0,
                    closed: false,
                    scheduled: false,
                }),
                limit_bytes,
                policy,
                dropped: AtomicU64::new(0),
                counters,
                notify,
            }),
        }
    }

    /// Enqueues `frame` without blocking. Returns `false` when the
    /// outbox is closed, or when the frame would exceed the byte budget
    /// under [`OverflowPolicy::Kill`] — the caller must then treat the
    /// connection as dead. Under [`OverflowPolicy::DropOldest`] the
    /// push always succeeds on an open outbox: older frames (or, when
    /// the frame alone exceeds the whole budget, the frame itself) are
    /// shed and counted instead. A frame mid-write from an earlier
    /// partial flush is never shed.
    pub fn push(&self, frame: Frame) -> bool {
        self.push_keyed(frame, None)
    }

    /// Like [`Self::push`], but tags the frame with the channel it
    /// carries so [`OverflowPolicy::ConflateByChannel`] can pick a
    /// same-channel victim on overflow. Under the other policies the
    /// key is carried but never consulted.
    pub fn push_keyed(&self, frame: Frame, key: FrameKey) -> bool {
        let mut shed = 0u64;
        let mut fire = false;
        let pushed = {
            let mut q = lock(&self.inner.queue);
            if q.closed {
                return false;
            }
            if q.bytes + frame.len() > self.inner.limit_bytes {
                match self.inner.policy {
                    OverflowPolicy::Kill => return false,
                    // A frame that alone exceeds the whole budget is
                    // shed itself, without pointlessly evicting the
                    // queue first.
                    _ if frame.len() > self.inner.limit_bytes => {}
                    OverflowPolicy::DropOldest => {
                        shed += shed_oldest(&mut q, frame.len(), self.inner.limit_bytes);
                    }
                    OverflowPolicy::ConflateByChannel => {
                        // Stale frames of the same channel go first —
                        // that is the conflation — then oldest-first
                        // like DropOldest once no same-channel victim
                        // remains.
                        if let Some(key) = key.as_deref() {
                            shed +=
                                shed_same_channel(&mut q, key, frame.len(), self.inner.limit_bytes);
                        }
                        shed += shed_oldest(&mut q, frame.len(), self.inner.limit_bytes);
                    }
                }
            }
            if q.bytes + frame.len() <= self.inner.limit_bytes {
                q.bytes += frame.len();
                q.frames.push_back((frame, key));
                if !q.scheduled {
                    q.scheduled = true;
                    fire = true;
                }
                true
            } else {
                shed += 1;
                false
            }
        };
        self.inner.record_dropped(shed);
        if fire && self.inner.notify.is_some() {
            let deferred = DEFERRED.with(|d| match d.borrow_mut().as_mut() {
                Some(held) => {
                    held.push(Arc::clone(&self.inner));
                    true
                }
                None => false,
            });
            if !deferred {
                self.inner.notify();
            }
        }
        // DropOldest and ConflateByChannel never report failure for an
        // open outbox: the connection stays alive even when the frame
        // itself was shed.
        pushed
            || matches!(
                self.inner.policy,
                OverflowPolicy::DropOldest | OverflowPolicy::ConflateByChannel
            )
    }

    /// Closes the outbox: queued frames still drain via
    /// [`Self::flush_to`], but further pushes fail.
    pub fn close(&self) {
        lock(&self.inner.queue).closed = true;
    }

    /// Frames this connection has shed (overflow under `DropOldest`,
    /// socket death, or an expired drain deadline).
    pub fn dropped_frames(&self) -> u64 {
        self.inner.dropped.load(Ordering::Relaxed)
    }

    /// True when no frames are queued (nothing left to flush).
    pub fn is_empty(&self) -> bool {
        lock(&self.inner.queue).frames.is_empty()
    }

    /// Flushes as many queued frames as `w` will take, with at most one
    /// `writev` per [`MAX_IOVECS`] frames. Called only by the
    /// connection's home reactor loop against its non-blocking socket.
    ///
    /// Frame/write/byte counts land in both the broker-wide
    /// [`FlushCounters`] and the loop's [`LoopIoStats`]; a frame is
    /// counted once, when its last byte is handed to the kernel. On
    /// socket death every remaining frame is counted as dropped and the
    /// outbox closes.
    pub fn flush_to<W: Write>(&self, w: &mut W, loop_stats: &LoopIoStats) -> Flush {
        let counters = &self.inner.counters;
        let mut q = lock(&self.inner.queue);
        loop {
            if q.frames.is_empty() {
                q.scheduled = false;
                return Flush::Drained;
            }
            let mut slices: Vec<IoSlice<'_>> = Vec::with_capacity(q.frames.len().min(MAX_IOVECS));
            for (i, (f, _)) in q.frames.iter().take(MAX_IOVECS).enumerate() {
                slices.push(IoSlice::new(if i == 0 { &f[q.front_offset..] } else { f }));
            }
            match w.write_vectored(&slices) {
                Ok(0) => {
                    let abandoned = self::fail(&mut q);
                    drop(q);
                    self.inner.record_dropped(abandoned);
                    return Flush::Failed;
                }
                Ok(mut n) => {
                    counters.writes.fetch_add(1, Ordering::Relaxed);
                    loop_stats.writes.fetch_add(1, Ordering::Relaxed);
                    loop_stats.bytes.fetch_add(n as u64, Ordering::Relaxed);
                    let mut done = 0u64;
                    // A buggy `Write` impl can report more bytes than
                    // the slices it was handed held; stop at an empty
                    // queue instead of indexing past it.
                    while n > 0 {
                        let Some((front, _)) = q.frames.front() else {
                            q.front_offset = 0;
                            break;
                        };
                        let remaining = front.len() - q.front_offset;
                        if n >= remaining {
                            n -= remaining;
                            if let Some((f, _)) = q.frames.pop_front() {
                                q.bytes -= f.len();
                            }
                            q.front_offset = 0;
                            done += 1;
                        } else {
                            q.front_offset += n;
                            n = 0;
                        }
                    }
                    counters.frames.fetch_add(done, Ordering::Relaxed);
                    loop_stats.frames.fetch_add(done, Ordering::Relaxed);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Flush::Pending,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => {
                    let abandoned = self::fail(&mut q);
                    drop(q);
                    self.inner.record_dropped(abandoned);
                    return Flush::Failed;
                }
            }
        }
    }

    /// Discards whatever is still queued, counting it as dropped, and
    /// returns the number of frames discarded. Called after a drain
    /// deadline expires so shutdown accounting matches reality.
    pub fn discard_remaining(&self) -> u64 {
        let n = {
            let mut q = lock(&self.inner.queue);
            let n = q.frames.len() as u64;
            q.frames.clear();
            q.front_offset = 0;
            q.bytes = 0;
            q.scheduled = false;
            n
        };
        self.inner.record_dropped(n);
        n
    }
}

/// Sheds the oldest *sheddable* frames (index 0, or index 1 while the
/// front is mid-write) until `incoming` more bytes fit under `limit`,
/// or nothing sheddable remains. Returns the shed count.
fn shed_oldest(q: &mut Queue, incoming: usize, limit: usize) -> u64 {
    let mut shed = 0u64;
    while q.bytes + incoming > limit {
        let victim = usize::from(q.front_offset > 0);
        match q.frames.remove(victim) {
            Some((old, _)) => {
                q.bytes -= old.len();
                shed += 1;
            }
            None => break, // only the in-flight frame remains
        }
    }
    shed
}

/// Sheds the oldest sheddable frames whose key matches `key` (string
/// comparison — a hash could conflate distinct channels on collision)
/// until `incoming` more bytes fit under `limit`, or no same-channel
/// victim remains. The in-flight front frame is never shed. Returns the
/// shed count.
fn shed_same_channel(q: &mut Queue, key: &str, incoming: usize, limit: usize) -> u64 {
    let mut shed = 0u64;
    while q.bytes + incoming > limit {
        let start = usize::from(q.front_offset > 0);
        let Some(pos) = q
            .frames
            .iter()
            .skip(start)
            .position(|(_, k)| k.as_deref() == Some(key))
            .map(|p| p + start)
        else {
            break;
        };
        if let Some((old, _)) = q.frames.remove(pos) {
            q.bytes -= old.len();
            shed += 1;
        }
    }
    shed
}

/// Marks a queue dead after a socket error: everything still queued is
/// abandoned. Returns the abandoned frame count (recorded by the caller
/// after the lock drops).
fn fail(q: &mut Queue) -> u64 {
    let abandoned = q.frames.len() as u64;
    q.frames.clear();
    q.front_offset = 0;
    q.bytes = 0;
    q.closed = true;
    q.scheduled = false;
    abandoned
}

fn lock(m: &Mutex<Queue>) -> std::sync::MutexGuard<'_, Queue> {
    match m.lock() {
        Ok(g) => g,
        Err(p) => p.into_inner(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(n: usize) -> Frame {
        vec![b'x'; n].into()
    }

    /// A writer with a depleting byte budget — a socket send buffer:
    /// once the budget is spent every write is `WouldBlock` until the
    /// test "drains the kernel" by refilling it.
    struct Throttled {
        budget: usize,
        sunk: Vec<u8>,
    }

    impl Write for Throttled {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            let n = buf.len().min(self.budget);
            if n == 0 {
                return Err(ErrorKind::WouldBlock.into());
            }
            self.budget -= n;
            self.sunk.extend_from_slice(&buf[..n]);
            Ok(n)
        }
        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
            let mut wrote = 0usize;
            for b in bufs {
                let n = b.len().min(self.budget);
                self.budget -= n;
                self.sunk.extend_from_slice(&b[..n]);
                wrote += n;
                if self.budget == 0 {
                    break;
                }
            }
            if wrote == 0 {
                return Err(ErrorKind::WouldBlock.into());
            }
            Ok(wrote)
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// A writer whose socket has died.
    struct Broken;

    impl Write for Broken {
        fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
            Err(ErrorKind::BrokenPipe.into())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn push_respects_byte_budget_not_frame_count() {
        let tx = OutboxSender::new(100);
        // Many tiny frames fit …
        for _ in 0..10 {
            assert!(tx.push(frame(10)));
        }
        // … but the budget is exhausted in bytes.
        assert!(!tx.push(frame(1)));
    }

    #[test]
    fn one_big_frame_can_overflow_alone() {
        let tx = OutboxSender::new(100);
        assert!(!tx.push(frame(101)));
        assert!(tx.push(frame(100)));
    }

    #[test]
    fn closed_outbox_rejects_pushes() {
        let tx = OutboxSender::new(100);
        tx.close();
        assert!(!tx.push(frame(1)));
    }

    #[test]
    fn drop_oldest_sheds_exactly_the_overflow() {
        let counters = Arc::new(FlushCounters::default());
        let tx =
            OutboxSender::new_with(100, OverflowPolicy::DropOldest, Arc::clone(&counters), None);
        // 3 × 30 bytes fit; each further push sheds exactly one oldest
        // frame (nothing drains, so this is deterministic).
        for _ in 0..10 {
            assert!(tx.push(frame(30)));
        }
        assert_eq!(tx.dropped_frames(), 7);
        assert_eq!(counters.dropped.load(Ordering::Relaxed), 7);
    }

    #[test]
    fn drop_oldest_survives_a_frame_bigger_than_the_budget() {
        let tx = OutboxSender::new_with(
            100,
            OverflowPolicy::DropOldest,
            Arc::new(FlushCounters::default()),
            None,
        );
        assert!(tx.push(frame(60)));
        // The oversized frame itself is shed — without evicting the
        // queued frame — and the connection stays alive.
        assert!(tx.push(frame(101)));
        assert_eq!(tx.dropped_frames(), 1);
        // The queue still holds the original 60 bytes.
        assert!(tx.push(frame(40)));
        assert_eq!(tx.dropped_frames(), 1);
    }

    #[test]
    fn closed_drop_oldest_outbox_still_rejects() {
        let tx = OutboxSender::new_with(
            100,
            OverflowPolicy::DropOldest,
            Arc::new(FlushCounters::default()),
            None,
        );
        tx.close();
        assert!(!tx.push(frame(1)));
    }

    #[test]
    fn flush_coalesces_a_burst_into_one_write() {
        let counters = Arc::new(FlushCounters::default());
        let tx = OutboxSender::new_with(1024, OverflowPolicy::Kill, Arc::clone(&counters), None);
        for _ in 0..8 {
            assert!(tx.push(frame(16)));
        }
        let stats = LoopIoStats::default();
        let mut sink: Vec<u8> = Vec::new();
        assert_eq!(tx.flush_to(&mut sink, &stats), Flush::Drained);
        assert_eq!(sink.len(), 128);
        assert_eq!(counters.frames.load(Ordering::Relaxed), 8);
        // `Vec` accepts every iovec at once: one syscall-equivalent.
        assert_eq!(counters.writes.load(Ordering::Relaxed), 1);
        assert_eq!(stats.frames.load(Ordering::Relaxed), 8);
        assert_eq!(stats.writes.load(Ordering::Relaxed), 1);
        assert_eq!(stats.bytes.load(Ordering::Relaxed), 128);
        assert!(tx.is_empty());
    }

    #[test]
    fn partial_flush_resumes_mid_frame_without_corruption() {
        let counters = Arc::new(FlushCounters::default());
        let tx = OutboxSender::new_with(1024, OverflowPolicy::Kill, Arc::clone(&counters), None);
        let payload: Vec<u8> = (0u16..300).map(|i| (i % 251) as u8).collect();
        tx.push(payload.clone().into());
        let stats = LoopIoStats::default();
        // The socket takes 100 bytes per writability cycle.
        let mut socket = Throttled {
            budget: 100,
            sunk: Vec::new(),
        };
        assert_eq!(tx.flush_to(&mut socket, &stats), Flush::Pending);
        // The frame is mid-write: not yet counted, still budgeted.
        assert_eq!(counters.frames.load(Ordering::Relaxed), 0);
        assert!(!tx.is_empty());
        socket.budget = 100;
        assert_eq!(tx.flush_to(&mut socket, &stats), Flush::Pending);
        socket.budget = 100;
        assert_eq!(tx.flush_to(&mut socket, &stats), Flush::Drained);
        assert_eq!(socket.sunk, payload);
        assert_eq!(counters.frames.load(Ordering::Relaxed), 1);
        assert_eq!(counters.writes.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn drop_oldest_never_sheds_the_in_flight_frame() {
        let tx = OutboxSender::new_with(
            100,
            OverflowPolicy::DropOldest,
            Arc::new(FlushCounters::default()),
            None,
        );
        let front: Vec<u8> = vec![b'a'; 60];
        tx.push(front.clone().into());
        let stats = LoopIoStats::default();
        let mut socket = Throttled {
            budget: 10,
            sunk: Vec::new(),
        };
        // 10 of the front frame's 60 bytes reach the wire: in flight.
        assert_eq!(tx.flush_to(&mut socket, &stats), Flush::Pending);
        // Overflow now: the second frame (not the in-flight front) is
        // the eviction victim.
        assert!(tx.push(frame(40)));
        assert!(tx.push(frame(40)));
        assert_eq!(tx.dropped_frames(), 1);
        // Unthrottle: the wire sees the *complete* front frame.
        socket.budget = 1024;
        assert_eq!(tx.flush_to(&mut socket, &stats), Flush::Drained);
        assert_eq!(&socket.sunk[..60], &front[..]);
        assert_eq!(socket.sunk.len(), 100);
    }

    #[test]
    fn dead_socket_fails_the_flush_and_counts_the_queue_dropped() {
        let counters = Arc::new(FlushCounters::default());
        let tx = OutboxSender::new_with(1024, OverflowPolicy::Kill, Arc::clone(&counters), None);
        for _ in 0..5 {
            tx.push(frame(10));
        }
        let stats = LoopIoStats::default();
        assert_eq!(tx.flush_to(&mut Broken, &stats), Flush::Failed);
        assert_eq!(tx.dropped_frames(), 5);
        assert_eq!(counters.dropped.load(Ordering::Relaxed), 5);
        // The outbox is closed: later pushes fail.
        assert!(!tx.push(frame(1)));
    }

    #[test]
    fn notifier_fires_once_per_burst() {
        let fired = Arc::new(AtomicU64::new(0));
        let hits = Arc::clone(&fired);
        let tx = OutboxSender::new_with(
            1024,
            OverflowPolicy::Kill,
            Arc::new(FlushCounters::default()),
            Some(Box::new(move || {
                hits.fetch_add(1, Ordering::Relaxed);
            })),
        );
        // First push of the burst notifies; the rest ride along.
        for _ in 0..10 {
            tx.push(frame(8));
        }
        assert_eq!(fired.load(Ordering::Relaxed), 1);
        // Draining re-arms the notifier for the next burst.
        let stats = LoopIoStats::default();
        let mut sink: Vec<u8> = Vec::new();
        assert_eq!(tx.flush_to(&mut sink, &stats), Flush::Drained);
        tx.push(frame(8));
        assert_eq!(fired.load(Ordering::Relaxed), 2);
        // A flush stopped short keeps the connection scheduled: no
        // extra notification until the queue fully drains.
        let mut socket = Throttled {
            budget: 4,
            sunk: Vec::new(),
        };
        assert_eq!(tx.flush_to(&mut socket, &stats), Flush::Pending);
        tx.push(frame(8));
        assert_eq!(fired.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn deferral_fires_each_outbox_once_after_the_scope() {
        const M: usize = 5;
        let fired = Arc::new(AtomicU64::new(0));
        let outboxes: Vec<OutboxSender> = (0..M)
            .map(|_| {
                let hits = Arc::clone(&fired);
                OutboxSender::new_with(
                    1024,
                    OverflowPolicy::Kill,
                    Arc::new(FlushCounters::default()),
                    Some(Box::new(move || {
                        hits.fetch_add(1, Ordering::Relaxed);
                    })),
                )
            })
            .collect();
        {
            let _outer = DeferNotify::begin();
            for tx in &outboxes {
                for _ in 0..3 {
                    assert!(tx.push(frame(8)));
                }
            }
            {
                // A nested scope joins the outer one: its end fires
                // nothing, and the outer end fires nothing twice.
                let _inner = DeferNotify::begin();
                for tx in &outboxes {
                    assert!(tx.push(frame(8)));
                }
            }
            assert_eq!(fired.load(Ordering::Relaxed), 0);
        }
        assert_eq!(fired.load(Ordering::Relaxed), M as u64);
        // With no scope open, the next burst notifies at once again.
        let stats = LoopIoStats::default();
        let mut sink: Vec<u8> = Vec::new();
        assert_eq!(outboxes[0].flush_to(&mut sink, &stats), Flush::Drained);
        outboxes[0].push(frame(8));
        assert_eq!(fired.load(Ordering::Relaxed), M as u64 + 1);
    }

    fn key(s: &str) -> FrameKey {
        Some(Arc::from(s))
    }

    fn conflating(limit: usize) -> (OutboxSender, Arc<FlushCounters>) {
        let counters = Arc::new(FlushCounters::default());
        let tx = OutboxSender::new_with(
            limit,
            OverflowPolicy::ConflateByChannel,
            Arc::clone(&counters),
            None,
        );
        (tx, counters)
    }

    /// Drains the outbox and returns the concatenated wire bytes.
    fn drain(tx: &OutboxSender) -> Vec<u8> {
        let stats = LoopIoStats::default();
        let mut sink: Vec<u8> = Vec::new();
        assert_eq!(tx.flush_to(&mut sink, &stats), Flush::Drained);
        sink
    }

    fn tagged(tag: u8, n: usize) -> Frame {
        vec![tag; n].into()
    }

    #[test]
    fn conflate_sheds_the_same_channel_first() {
        let (tx, counters) = conflating(100);
        assert!(tx.push_keyed(tagged(b'a', 40), key("prices.AAPL")));
        assert!(tx.push_keyed(tagged(b'b', 40), key("prices.MSFT")));
        // Overflow: the stale AAPL tick is the victim, not the oldest
        // frame per se and not the MSFT tick.
        assert!(tx.push_keyed(tagged(b'c', 40), key("prices.AAPL")));
        assert_eq!(tx.dropped_frames(), 1);
        assert_eq!(counters.dropped.load(Ordering::Relaxed), 1);
        let wire = drain(&tx);
        // MSFT survives ahead of the fresh AAPL tick; order preserved.
        assert_eq!(&wire[..40], &vec![b'b'; 40][..]);
        assert_eq!(&wire[40..], &vec![b'c'; 40][..]);
    }

    #[test]
    fn conflate_falls_back_to_oldest_when_no_channel_match() {
        let (tx, _) = conflating(100);
        assert!(tx.push_keyed(tagged(b'a', 40), key("prices.AAPL")));
        assert!(tx.push_keyed(tagged(b'b', 40), key("prices.MSFT")));
        // A third channel has no stale frame to replace: oldest-first.
        assert!(tx.push_keyed(tagged(b'c', 40), key("prices.GOOG")));
        assert_eq!(tx.dropped_frames(), 1);
        let wire = drain(&tx);
        assert_eq!(&wire[..40], &vec![b'b'; 40][..]);
        assert_eq!(&wire[40..], &vec![b'c'; 40][..]);
    }

    #[test]
    fn conflate_matches_by_string_never_by_prefix() {
        let (tx, _) = conflating(100);
        assert!(tx.push_keyed(tagged(b'a', 40), key("tile.1")));
        assert!(tx.push_keyed(tagged(b'b', 40), key("tile.11")));
        // "tile.1" != "tile.11": the distinct channel is only shed by
        // the oldest-first fallback, and "tile.1" goes first (stale
        // same-channel), leaving "tile.11" untouched.
        assert!(tx.push_keyed(tagged(b'c', 40), key("tile.1")));
        let wire = drain(&tx);
        assert_eq!(&wire[..40], &vec![b'b'; 40][..]);
        assert_eq!(&wire[40..], &vec![b'c'; 40][..]);
    }

    #[test]
    fn conflate_never_sheds_the_in_flight_frame() {
        let (tx, _) = conflating(100);
        let front: Vec<u8> = vec![b'a'; 60];
        tx.push_keyed(front.clone().into(), key("feed"));
        let stats = LoopIoStats::default();
        let mut socket = Throttled {
            budget: 10,
            sunk: Vec::new(),
        };
        // 10 of the front frame's 60 bytes are on the wire: in flight.
        assert_eq!(tx.flush_to(&mut socket, &stats), Flush::Pending);
        // Same channel overflows — the in-flight front must survive
        // even though it is the conflation victim by channel.
        assert!(tx.push_keyed(tagged(b'b', 40), key("feed")));
        assert!(tx.push_keyed(tagged(b'c', 40), key("feed")));
        assert_eq!(tx.dropped_frames(), 1);
        socket.budget = 1024;
        assert_eq!(tx.flush_to(&mut socket, &stats), Flush::Drained);
        assert_eq!(&socket.sunk[..60], &front[..]);
        assert_eq!(&socket.sunk[60..], &vec![b'c'; 40][..]);
    }

    #[test]
    fn conflate_survives_a_frame_bigger_than_the_budget() {
        let (tx, _) = conflating(100);
        assert!(tx.push_keyed(tagged(b'a', 60), key("feed")));
        // The oversized frame itself is shed without evicting the queue.
        assert!(tx.push_keyed(tagged(b'b', 101), key("feed")));
        assert_eq!(tx.dropped_frames(), 1);
        assert_eq!(drain(&tx), vec![b'a'; 60]);
    }

    #[test]
    fn conflate_unkeyed_frames_are_never_channel_victims() {
        let (tx, _) = conflating(100);
        // A control reply (no key) queued between ticks.
        assert!(tx.push(tagged(b'r', 40)));
        assert!(tx.push_keyed(tagged(b'a', 40), key("feed")));
        assert!(tx.push_keyed(tagged(b'b', 40), key("feed")));
        // The stale same-channel tick was shed; the reply survived.
        assert_eq!(tx.dropped_frames(), 1);
        let wire = drain(&tx);
        assert_eq!(&wire[..40], &vec![b'r'; 40][..]);
        assert_eq!(&wire[40..], &vec![b'b'; 40][..]);
    }

    /// A writer that reports having written more bytes than the
    /// slices it was handed held (a buggy `Write` impl). Regression
    /// test for the former `expect("non-empty queue")` in `flush_to`:
    /// the flush must drain and stop, not index past the queue.
    struct OverReporting;

    impl Write for OverReporting {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            Ok(buf.len() + 64)
        }
        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
            Ok(bufs.iter().map(|b| b.len()).sum::<usize>() + 64)
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn overreporting_writer_does_not_panic_the_flush() {
        let tx = OutboxSender::new(1024);
        for _ in 0..4 {
            assert!(tx.push(frame(16)));
        }
        let stats = LoopIoStats::default();
        assert_eq!(tx.flush_to(&mut OverReporting, &stats), Flush::Drained);
        assert!(tx.is_empty());
    }

    #[test]
    fn discard_remaining_counts_exactly_the_leftovers() {
        let tx = OutboxSender::new(100);
        assert!(tx.is_empty());
        tx.push(frame(10));
        tx.push(frame(10));
        assert_eq!(tx.discard_remaining(), 2);
        assert!(tx.is_empty());
        assert_eq!(tx.dropped_frames(), 2);
    }
}
