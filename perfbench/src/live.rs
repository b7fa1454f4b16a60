//! The live-TCP workloads (`paced`, `flood`, `hotspot`): brokers,
//! sidecars, reporters and the balancer run in this process; one
//! open-loop generator thread drives one publisher [`RoutedClient`] and
//! one receive thread drains one subscriber [`RoutedClient`].
//!
//! Every publication body starts with its publication key `g` (u64 LE)
//! and its scheduled send time in microseconds since the run's epoch
//! (u64 LE). The key indexes the seeded schedule, so the receive thread
//! knows each publication's channel and checks exactly-once delivery
//! and per-channel FIFO without any side channel.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dynamoth_pubsub::{
    channel_id_of, BalancerConfig, BrokerConfig, ClientConfig, ClientEvent, DispatcherSidecar,
    DropCause, LiveLoadBalancer, LoadReporter, Ring, RoutedClient, RouterConfig, ServerId,
    SidecarConfig, TcpBroker, TcpPubSubClient, DEFAULT_VNODES,
};

use dynamoth_sim::SimRng;

use crate::procfs::{self, RoleCpu};
use crate::report::{self, quantile, sorted, us_since, SpanLog};

/// Key bit marking warm-up publications (sent during set-up, never
/// measured).
const WARM: u64 = 1 << 63;
/// Every `SAMPLE`-th publication is traced (tap split, publish span).
const SAMPLE: u64 = 16;
/// Set-ups per run; `setup_s` is their [`SETUP_QUANTILE`] quantile.
const SETUPS: usize = 41;
/// A set-up takes about 6 ms when every command reaches an awake client
/// worker, and 10–40 ms when some command waits out a worker's 20 ms
/// read tick. Which of the two happens turns on thread timing, so the
/// share of slow set-ups follows the host's load: the median of a run
/// went from 6.6 ms to 12.3 ms between a quiet and a busy period of
/// the host, while the 10th percentile moved by 5 %. That percentile
/// is the set-up's own work (bind, spawn, connect, subscribe, first
/// delivery), which is what a change that moves work into set-up adds
/// to; the median is in `info`.
pub const SETUP_QUANTILE: f64 = 0.1;
/// Share of the latency sub-windows, those with the highest p99, left
/// out of the gated percentiles (at least one): a host stall moves a
/// few sub-windows, a regression moves most of them.
const DROP_SHARE: f64 = 0.1;
/// How often set-up polls for registrations and warm-up deliveries;
/// fine enough not to quantise a 10 ms set-up.
const POLL: Duration = Duration::from_micros(100);

/// One scheduled publication: due time (µs after the measured window
/// opens) and channel index.
#[derive(Debug, Clone, Copy)]
pub struct Ev {
    pub due_us: u64,
    pub chan: u16,
}

/// A hot-spot episode of the `hotspot` workload.
#[derive(Debug, Clone, Copy)]
pub struct Episode {
    pub onset_us: u64,
    pub end_us: u64,
    pub broker: usize,
}

/// Balancer settings of a control-plane workload.
#[derive(Debug, Clone, Copy)]
pub struct Control {
    /// Provisioned broker capacity, egress bytes per 100 ms report.
    pub capacity_floor: f64,
}

/// Everything a live workload is made of.
#[derive(Debug, Clone)]
pub struct LiveSpec {
    pub brokers: usize,
    pub names: Vec<String>,
    pub schedule: Vec<Ev>,
    pub body: usize,
    /// Length of the measured window and of its latency sub-windows
    /// (the [`DROP_SHARE`] with the highest p99 are left out of the
    /// gated percentiles).
    pub window_us: u64,
    pub sub_us: u64,
    pub control: Option<Control>,
    pub episodes: Vec<Episode>,
    pub seed: u64,
}

/// The ring every router uses by default, over `brokers` brokers.
pub fn default_ring(brokers: usize) -> Ring {
    let servers: Vec<ServerId> = (0..brokers).map(ServerId::from_index).collect();
    Ring::new(&servers, DEFAULT_VNODES)
}

/// The broker a channel name is ring-homed on.
pub fn home_of(ring: &Ring, name: &str) -> usize {
    ring.server_for(channel_id_of(name)).index()
}

/// `count` channel names with prefix `stem` homed on broker `broker`.
pub fn names_on(ring: &Ring, stem: &str, broker: usize, count: usize) -> Vec<String> {
    (0..)
        .map(|i| format!("{stem}-{i:04}"))
        .filter(|n| home_of(ring, n) == broker)
        .take(count)
        .collect()
}

/// Evenly spaced open-loop schedule at `rate`/s over `window_us`,
/// channels drawn uniformly from `chans`.
pub fn uniform_schedule(rng: &mut SimRng, rate: f64, window_us: u64, chans: &[u16]) -> Vec<Ev> {
    let n = (rate * window_us as f64 / 1e6) as u64;
    let period = 1e6 / rate;
    (0..n)
        .map(|i| Ev {
            due_us: (i as f64 * period) as u64,
            chan: chans[rng.next_below(chans.len() as u64) as usize],
        })
        .collect()
}

/// Counters and samples the receive thread hands back.
#[derive(Debug, Default)]
struct Received {
    /// (due time µs, publish→deliver latency ms) per distinct delivery.
    latencies: Vec<(u64, f64)>,
    /// Sampled publication key / SAMPLE → delivery time (µs).
    deliver_at: Vec<u64>,
    distinct: u64,
    duplicates: u64,
    reordered: u64,
    misrouted: u64,
    malformed: u64,
    gaps: u64,
    /// Channel → duplicates delivered on it.
    duplicated_on: std::collections::BTreeMap<String, u64>,
}

/// Sampled publication key / SAMPLE → time the tap saw it (µs).
#[derive(Debug, Default)]
struct Tapped {
    tap_at: Vec<u64>,
    frames: u64,
}

struct Shared {
    epoch: Instant,
    stop: AtomicBool,
    /// Distinct measured deliveries so far.
    delivered: AtomicU64,
    warm: AtomicU64,
}

/// A running cluster plus the benchmark's client handles.
struct Rig {
    brokers: Vec<TcpBroker>,
    sidecars: Vec<DispatcherSidecar>,
    reporters: Vec<LoadReporter>,
    balancer: Option<LiveLoadBalancer>,
    publisher: Arc<RoutedClient>,
    subscriber: Arc<RoutedClient>,
    shared: Arc<Shared>,
    receiver: JoinHandle<Received>,
    tap: Option<JoinHandle<Tapped>>,
}

fn spawn_named<T: Send + 'static>(
    name: &str,
    f: impl FnOnce() -> T + Send + 'static,
) -> JoinHandle<T> {
    std::thread::Builder::new()
        .name(name.to_owned())
        .spawn(f)
        .expect("spawn thread")
}

fn key_of(payload: &[u8]) -> Option<(u64, u64)> {
    if payload.len() < 16 {
        return None;
    }
    let g = u64::from_le_bytes(payload[0..8].try_into().ok()?);
    let due = u64::from_le_bytes(payload[8..16].try_into().ok()?);
    Some((g, due))
}

fn write_key(body: &mut [u8], g: u64, due_us: u64) {
    body[0..8].copy_from_slice(&g.to_le_bytes());
    body[8..16].copy_from_slice(&due_us.to_le_bytes());
}

impl Rig {
    /// Builds the cluster, subscribes, and warms every channel up: one
    /// publication per channel must arrive before set-up counts as done,
    /// so lazy per-broker connects happen here and not in the window.
    fn start(spec: &LiveSpec, trace: bool, epoch: Instant) -> Rig {
        let brokers: Vec<TcpBroker> = (0..spec.brokers)
            .map(|_| TcpBroker::bind_with("127.0.0.1:0", BrokerConfig::default()).expect("bind"))
            .collect();
        let directory: Vec<SocketAddr> = brokers.iter().map(|b| b.local_addr()).collect();
        let (sidecars, reporters, balancer) = match spec.control {
            None => (Vec::new(), Vec::new(), None),
            Some(ctl) => {
                let sidecars = (0..spec.brokers)
                    .map(|i| {
                        DispatcherSidecar::start(
                            ServerId::from_index(i),
                            directory.clone(),
                            SidecarConfig::default(),
                        )
                    })
                    .collect();
                let interval = Duration::from_millis(100);
                let reporters = brokers
                    .iter()
                    .enumerate()
                    .map(|(i, b)| {
                        LoadReporter::start(
                            b.load_handle(),
                            i,
                            directory[i],
                            interval,
                            ClientConfig::default(),
                        )
                    })
                    .collect();
                let balancer = LiveLoadBalancer::start(
                    directory.clone(),
                    BalancerConfig {
                        capacity_floor: ctl.capacity_floor,
                        tick: interval,
                        report_interval: interval,
                        window: 2,
                        warmup_ticks: 2,
                        install_refresh: Duration::from_secs(2),
                        ..BalancerConfig::default()
                    },
                );
                (sidecars, reporters, Some(balancer))
            }
        };
        let router_cfg = |salt: u64| RouterConfig {
            seed: Some(spec.seed ^ salt),
            ..RouterConfig::default()
        };
        let publisher = Arc::new(RoutedClient::connect(directory.clone(), router_cfg(0xA1)));
        let subscriber = Arc::new(RoutedClient::connect(directory.clone(), router_cfg(0xB2)));
        for name in &spec.names {
            subscriber.subscribe(name);
        }
        let shared = Arc::new(Shared {
            epoch,
            stop: AtomicBool::new(false),
            delivered: AtomicU64::new(0),
            warm: AtomicU64::new(0),
        });
        let receiver = {
            let sub = Arc::clone(&subscriber);
            let shared = Arc::clone(&shared);
            let names = spec.names.clone();
            let chans: Vec<u16> = spec.schedule.iter().map(|e| e.chan).collect();
            spawn_named("bench-sub", move || {
                receive(&sub, &shared, &names, &chans, trace)
            })
        };
        // Every channel registered somewhere before traffic starts.
        let deadline = Instant::now() + Duration::from_secs(20);
        while spec.names.iter().any(|n| {
            brokers
                .iter()
                .map(|b| b.channel_subscribers(n))
                .sum::<usize>()
                == 0
        }) {
            assert!(Instant::now() < deadline, "subscriptions never registered");
            std::thread::sleep(POLL);
        }
        let tap = trace.then(|| {
            // The tap watches the broker homing the most channels.
            let ring = default_ring(spec.brokers);
            let broker = (0..spec.brokers)
                .max_by_key(|&b| spec.names.iter().filter(|n| home_of(&ring, n) == b).count())
                .unwrap_or(0);
            let client = TcpPubSubClient::connect_addr(
                directory[broker],
                ClientConfig {
                    resume: false,
                    ..ClientConfig::default()
                },
            );
            let watched: Vec<&String> = spec
                .names
                .iter()
                .filter(|n| home_of(&ring, n) == broker)
                .collect();
            for n in &watched {
                client.subscribe(n);
            }
            while watched
                .iter()
                .any(|n| brokers[broker].channel_subscribers(n) < 2)
            {
                assert!(Instant::now() < deadline, "tap never registered");
                std::thread::sleep(POLL);
            }
            let shared = Arc::clone(&shared);
            let n = spec.schedule.len() as u64 / SAMPLE + 1;
            spawn_named("bench-tap", move || {
                let mut out = Tapped {
                    tap_at: vec![0; n as usize],
                    frames: 0,
                };
                loop {
                    match client.message_timeout(Duration::from_millis(20)) {
                        Some(msg) => {
                            let now = us_since(epoch);
                            match key_of(&msg.payload) {
                                Some((g, _)) if g & WARM != 0 => {}
                                Some((g, _)) => {
                                    out.frames += 1;
                                    if g.is_multiple_of(SAMPLE) && g / SAMPLE < n {
                                        out.tap_at[(g / SAMPLE) as usize] = now;
                                    }
                                }
                                None => out.frames += 1,
                            }
                        }
                        None if shared.stop.load(Ordering::SeqCst) => break,
                        None => {}
                    }
                    while client.try_event().is_some() {}
                }
                client.shutdown();
                out
            })
        });
        // Warm-up: one publication per channel, all must arrive.
        let mut body = vec![b'w'; spec.body.max(16)];
        for (i, name) in spec.names.iter().enumerate() {
            write_key(&mut body, WARM | i as u64, us_since(epoch));
            publisher.publish(name, &body);
        }
        while shared.warm.load(Ordering::SeqCst) < spec.names.len() as u64 {
            assert!(
                Instant::now() < deadline,
                "warm-up publications never arrived"
            );
            std::thread::sleep(POLL);
        }
        while publisher.try_event().is_some() {}
        Rig {
            brokers,
            sidecars,
            reporters,
            balancer,
            publisher,
            subscriber,
            shared,
            receiver,
            tap,
        }
    }

    /// Stops everything; returns what the receive and tap threads saw.
    fn stop(self) -> (Received, Option<Tapped>) {
        self.shared.stop.store(true, Ordering::SeqCst);
        let received = self.receiver.join().expect("receive thread");
        let tapped = self.tap.map(|t| t.join().expect("tap thread"));
        // Each shutdown waits out its component's own tick; in parallel
        // they cost one tick instead of the sum, which keeps the many
        // set-ups of a run short. The brokers go last.
        std::thread::scope(|scope| {
            for client in [self.publisher, self.subscriber] {
                if let Ok(c) = Arc::try_unwrap(client) {
                    scope.spawn(move || c.shutdown());
                }
            }
            if let Some(b) = self.balancer {
                scope.spawn(move || b.shutdown());
            }
            for r in self.reporters {
                scope.spawn(move || r.shutdown());
            }
            for s in self.sidecars {
                scope.spawn(move || s.shutdown());
            }
        });
        for b in self.brokers {
            b.shutdown();
        }
        (received, tapped)
    }
}

/// The subscriber's receive loop: the correctness oracle and the
/// latency clock.
fn receive(
    sub: &RoutedClient,
    shared: &Shared,
    names: &[String],
    chans: &[u16],
    trace: bool,
) -> Received {
    let n = chans.len() as u64;
    let mut out = Received {
        deliver_at: if trace {
            vec![0; (n / SAMPLE + 1) as usize]
        } else {
            Vec::new()
        },
        latencies: Vec::with_capacity(n as usize),
        ..Received::default()
    };
    let mut seen = vec![false; n as usize];
    let mut last: Vec<i64> = vec![-1; names.len()];
    loop {
        match sub.message_timeout(Duration::from_millis(20)) {
            Some(msg) => {
                let now = us_since(shared.epoch);
                let Some((g, due)) = key_of(&msg.payload) else {
                    out.malformed += 1;
                    continue;
                };
                if g & WARM != 0 {
                    shared.warm.fetch_add(1, Ordering::SeqCst);
                    continue;
                }
                if g >= n {
                    out.malformed += 1;
                    continue;
                }
                let c = chans[g as usize] as usize;
                if names[c] != msg.channel {
                    out.misrouted += 1;
                }
                if seen[g as usize] {
                    out.duplicates += 1;
                    *out.duplicated_on.entry(msg.channel.clone()).or_default() += 1;
                    continue;
                }
                seen[g as usize] = true;
                if last[c] > g as i64 {
                    out.reordered += 1;
                }
                last[c] = last[c].max(g as i64);
                out.latencies
                    .push((due, now.saturating_sub(due) as f64 / 1e3));
                if trace && g.is_multiple_of(SAMPLE) {
                    out.deliver_at[(g / SAMPLE) as usize] = now;
                }
                out.distinct += 1;
                shared.delivered.fetch_add(1, Ordering::SeqCst);
            }
            None if shared.stop.load(Ordering::SeqCst) => break,
            None => {}
        }
        while let Some(ev) = sub.try_event() {
            if matches!(ev.event, ClientEvent::Gap { .. }) {
                out.gaps += 1;
            }
        }
    }
    out
}

/// What the generator thread reports.
#[derive(Debug, Default)]
struct Generated {
    published: u64,
    late_ms: Vec<f64>,
    shed: u64,
    spans: SpanLog,
    /// The generator thread's own CPU, read just before it exits.
    cpu_s: f64,
}

fn count_shed(publisher: &RoutedClient) -> u64 {
    let mut shed = 0;
    while let Some(ev) = publisher.try_event() {
        if let ClientEvent::Dropped { cause } = ev.event {
            if !matches!(cause, DropCause::Duplicate { .. }) {
                shed += 1;
            }
        }
    }
    shed
}

/// The open-loop generator: publication `g` is sent at (or as soon as
/// possible after) `t0 + schedule[g].due_us`, stamped with that due
/// time, never waiting for earlier publications to complete.
fn generate(
    publisher: &RoutedClient,
    spec: &LiveSpec,
    epoch: Instant,
    t0_us: u64,
    trace: bool,
) -> Generated {
    let mut out = Generated {
        late_ms: Vec::with_capacity(spec.schedule.len()),
        ..Generated::default()
    };
    let mut body = vec![b'x'; spec.body.max(16)];
    for (g, ev) in spec.schedule.iter().enumerate() {
        let g = g as u64;
        let due = t0_us + ev.due_us;
        let mut now = us_since(epoch);
        if now < due {
            std::thread::sleep(Duration::from_micros(due - now));
            now = us_since(epoch);
        }
        out.late_ms.push(now.saturating_sub(due) as f64 / 1e3);
        write_key(&mut body, g, due);
        publisher.publish(&spec.names[ev.chan as usize], &body);
        if trace && g.is_multiple_of(SAMPLE) {
            out.spans
                .push("router.publish", "client.upstream", g, now, us_since(epoch));
        }
        out.published += 1;
        if g % 1024 == 1023 {
            out.shed += count_shed(publisher);
        }
    }
    out.shed += count_shed(publisher);
    out.cpu_s = procfs::this_thread_cpu_s();
    out
}

/// Control-plane timings of one hot-spot episode (ms after onset).
#[derive(Debug, Clone, Copy)]
pub struct EpisodeTiming {
    pub detect_ms: f64,
    pub decide_ms: f64,
    pub switch_ms: f64,
}

/// Watches the balancer and the subscriber through each episode:
/// onset → first report harvested after onset (detect) → plan
/// installed (decide) → subscriber's local plan updated (switch).
fn watch_control(
    balancer: &LiveLoadBalancer,
    subscriber: &RoutedClient,
    episodes: &[Episode],
    epoch: Instant,
    t0_us: u64,
    stop: &AtomicBool,
    spans: &Mutex<SpanLog>,
) -> (Vec<EpisodeTiming>, u64) {
    let mut timings = Vec::new();
    let mut unanswered = 0;
    let applied = |r: &RoutedClient| {
        let s = r.stats();
        s.switches_applied + s.moved_applied
    };
    for ep in episodes {
        let onset = t0_us + ep.onset_us;
        let end = t0_us + ep.end_us;
        while us_since(epoch) < onset {
            if stop.load(Ordering::SeqCst) {
                return (timings, unanswered);
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        let base = balancer.stats();
        let (mut detect, mut decide, mut switch) = (None, None, None);
        let mut applied_base = applied(subscriber);
        while us_since(epoch) < end && switch.is_none() && !stop.load(Ordering::SeqCst) {
            let now = us_since(epoch);
            let s = balancer.stats();
            if detect.is_none() && s.reports_received > base.reports_received {
                detect = Some(now);
            }
            if detect.is_some() && decide.is_none() && s.plans_installed > base.plans_installed {
                decide = Some(now);
                applied_base = applied(subscriber);
            } else if decide.is_some() && applied(subscriber) > applied_base {
                switch = Some(now);
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        match (detect, decide, switch) {
            (Some(a), Some(b), Some(c)) => {
                let mut log = spans.lock().expect("span log");
                log.push("converge", "", u64::MAX, onset, c);
                log.push("balancer.detect", "converge", u64::MAX, onset, a);
                log.push("balancer.decide", "converge", u64::MAX, a, b);
                log.push("router.switch", "converge", u64::MAX, b, c);
                timings.push(EpisodeTiming {
                    detect_ms: (a - onset) as f64 / 1e3,
                    decide_ms: (b - a) as f64 / 1e3,
                    switch_ms: (c - b) as f64 / 1e3,
                });
            }
            _ => unanswered += 1,
        }
    }
    (timings, unanswered)
}

/// Per-broker counter totals at one instant.
#[derive(Debug, Clone, Copy, Default)]
struct BrokerCounters {
    frames: u64,
    writes: u64,
    bytes: u64,
    wakeups: u64,
}

fn broker_counters(brokers: &[TcpBroker]) -> BrokerCounters {
    let mut c = BrokerCounters::default();
    for b in brokers {
        for l in b.per_loop_flush_stats() {
            c.frames += l.frames;
            c.writes += l.writes;
            c.bytes += l.bytes;
            c.wakeups += l.wakeups;
        }
    }
    c
}

/// Everything one measured window produced.
#[derive(Debug, Default)]
pub struct LiveOutcome {
    pub setup_s: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub lost: u64,
    pub shed: u64,
    pub duplicates: u64,
    pub reordered: u64,
    pub deliveries: u64,
    pub latencies_ms: Vec<f64>,
    /// p99 (ms) of each sub-window of scheduled send times.
    pub sub_window_p99_ms: Vec<f64>,
    /// Every latency sample except those of the [`DROP_SHARE`] of the
    /// sub-windows with the highest p99, sorted.
    pub gated_ms: Vec<f64>,
    pub late_ms: Vec<f64>,
    pub window_s: f64,
    pub process_cpu_s: f64,
    pub roles: RoleCpu,
    pub rss_peak_mb: f64,
    /// Checks that failed, by name.
    pub problems: Vec<String>,
    pub notes: Vec<(&'static str, String)>,
    /// Per-layer metrics (traced runs only).
    pub layers: Vec<(String, f64, &'static str)>,
    pub converge_ms: Vec<f64>,
    pub unanswered: u64,
    pub spans: SpanLog,
}

/// Runs one live workload: [`SETUPS`] set-ups (the last one measured),
/// the open-loop window, the drain, then every correctness check.
pub fn run(spec: &LiveSpec, trace: bool) -> LiveOutcome {
    let epoch = Instant::now();
    let mut out = LiveOutcome::default();
    let mut rig = None;
    for i in 0..SETUPS {
        let t = Instant::now();
        let r = Rig::start(spec, trace, epoch);
        out.setup_s.push(t.elapsed().as_secs_f64());
        if i + 1 < SETUPS {
            r.stop();
        } else {
            rig = Some(r);
        }
    }
    let rig = rig.expect("at least one set-up");

    // Open the window: counters, CPU and the schedule's origin.
    for b in &rig.brokers {
        b.load_report();
    }
    let counters0 = broker_counters(&rig.brokers);
    let threads0 = procfs::thread_cpu();
    let cpu0 = procfs::process_cpu_s();
    let t0_us = us_since(epoch) + 2_000;
    let wall0 = Instant::now();

    let control_spans = Mutex::new(SpanLog::default());
    let stop_watch = AtomicBool::new(false);
    let mut watcher_cpu = 0.0;
    let generated = std::thread::scope(|scope| {
        let watcher = rig.balancer.as_ref().map(|balancer| {
            let sub = &rig.subscriber;
            let stop = &stop_watch;
            let spans = &control_spans;
            let episodes = &spec.episodes;
            std::thread::Builder::new()
                .name("bench-ctl".into())
                .spawn_scoped(scope, move || {
                    let r = watch_control(balancer, sub, episodes, epoch, t0_us, stop, spans);
                    (r, procfs::this_thread_cpu_s())
                })
                .expect("spawn watcher")
        });
        let publisher = &rig.publisher;
        let generated = std::thread::Builder::new()
            .name("gen-0".into())
            .spawn_scoped(scope, move || {
                generate(publisher, spec, epoch, t0_us, trace)
            })
            .expect("spawn generator")
            .join()
            .expect("generator");
        // Drain: wait for every publication, or for progress to stop.
        let mut last = rig.shared.delivered.load(Ordering::SeqCst);
        let mut last_change = Instant::now();
        let hard = Instant::now() + Duration::from_secs(10);
        while last < generated.published
            && last_change.elapsed() < Duration::from_secs(2)
            && Instant::now() < hard
        {
            std::thread::sleep(Duration::from_millis(5));
            let now = rig.shared.delivered.load(Ordering::SeqCst);
            if now != last {
                last = now;
                last_change = Instant::now();
            }
        }
        stop_watch.store(true, Ordering::SeqCst);
        if let Some(((timings, unanswered), cpu)) = watcher.map(|w| w.join().expect("watcher")) {
            watcher_cpu = cpu;
            out.unanswered = unanswered;
            out.converge_ms = timings
                .iter()
                .map(|t| t.detect_ms + t.decide_ms + t.switch_ms)
                .collect();
            if trace {
                let f = |v: Vec<f64>| report::mean(&v);
                out.layers.push((
                    "balancer.detect_ms".into(),
                    f(timings.iter().map(|t| t.detect_ms).collect()),
                    "ms",
                ));
                out.layers.push((
                    "balancer.decide_ms".into(),
                    f(timings.iter().map(|t| t.decide_ms).collect()),
                    "ms",
                ));
                out.layers.push((
                    "router.switch_ms".into(),
                    f(timings.iter().map(|t| t.switch_ms).collect()),
                    "ms",
                ));
            }
        }
        generated
    });
    let window_s = wall0.elapsed().as_secs_f64();
    let cpu = procfs::process_cpu_s() - cpu0;
    let threads1 = procfs::thread_cpu();
    let counters1 = broker_counters(&rig.brokers);
    // The generator and watcher threads have exited by now; they read
    // their own CPU just before exiting.
    out.roles = RoleCpu::between(&threads0, &threads1);
    out.roles.generator += generated.cpu_s;
    out.roles.client += watcher_cpu;
    out.window_s = window_s;
    out.process_cpu_s = cpu;

    // Broker-side accounting, read before anything shuts down.
    let sent: u64 = rig
        .brokers
        .iter()
        .map(|b| b.load_report().sent_messages)
        .sum();
    let healths: Vec<_> = rig.brokers.iter().map(|b| b.health()).collect();
    let retained: u64 = spec
        .names
        .iter()
        .map(|n| {
            rig.brokers
                .iter()
                .map(|b| b.channel_retention(n).1)
                .sum::<u64>()
        })
        .sum();
    let router_stats = [rig.publisher.stats(), rig.subscriber.stats()];
    let sidecar_stats: Vec<_> = rig.sidecars.iter().map(|s| s.stats()).collect();
    let balancer_stats = rig.balancer.as_ref().map(|b| b.stats());
    let io_loops: usize = rig.brokers.iter().map(|b| b.io_loops()).sum();
    let (received, tapped) = rig.stop();
    out.rss_peak_mb = procfs::rss_peak_mb();

    // Correctness: exactly once, per-channel FIFO, nothing shed.
    out.attempted = generated.published;
    out.deliveries = received.distinct;
    out.lost = generated.published.saturating_sub(received.distinct);
    out.shed = generated.shed;
    out.duplicates = received.duplicates;
    out.reordered = received.reordered;
    out.failed = out.lost + out.duplicates + out.reordered;
    for (what, n) in [
        ("lost", out.lost),
        ("duplicated", out.duplicates),
        ("reordered", out.reordered),
        ("shed", out.shed),
        ("misrouted", received.misrouted),
        ("malformed", received.malformed),
        ("gaps", received.gaps),
    ] {
        if n > 0 {
            out.problems.push(format!("{what}={n}"));
        }
    }
    // Broker reconciliation. Without a control plane every frame a
    // broker fanned out is a measured delivery or a tap copy; with one,
    // the reporters harvest `load_report` themselves, so only the flush
    // counters are checked.
    let tap_frames = tapped.as_ref().map_or(0, |t| t.frames);
    let frames = counters1.frames - counters0.frames;
    if spec.control.is_none() && sent != received.distinct + tap_frames {
        out.problems.push(format!(
            "broker sent_messages {sent} != deliveries {} + tap {tap_frames}",
            received.distinct
        ));
    }
    // Flushed frames are deliveries plus one `:N` reply per PUBLISH,
    // plus PONGs and (un)subscribe acks, for which a small slack per
    // connection per second is allowed. With a control plane, the
    // reporters' publications, control frames, forwarded copies and
    // migration-overlap copies ride the data path too: only the lower
    // bound holds, and the excess is reported.
    let conns: u64 = healths.iter().map(|h| h.open_connections as u64).sum();
    let slack = conns * (window_s.ceil() as u64 + 1) * 4;
    let replies = generated.published - generated.shed;
    let counted = received.distinct + tap_frames + replies;
    let upper = if spec.control.is_some() {
        u64::MAX
    } else {
        counted + slack
    };
    if frames < counted || frames > upper {
        out.problems.push(format!(
            "broker flushed {frames} frames for {counted} deliveries and replies (slack {slack})"
        ));
    }
    out.notes.push((
        "broker_extra_frames_per_publication",
        report::num((frames as f64 - counted as f64) / generated.published.max(1) as f64),
    ));
    if !received.duplicated_on.is_empty() {
        let list: Vec<String> = received
            .duplicated_on
            .iter()
            .map(|(c, n)| format!("{c}:{n}"))
            .collect();
        out.notes
            .push(("duplicated_on", report::jstr(&list.join(" "))));
    }
    out.notes.push(("broker_sent_messages", sent.to_string()));
    out.notes
        .push(("broker_frames_flushed", frames.to_string()));

    out.latencies_ms = received.latencies.iter().map(|&(_, l)| l).collect();
    let n_sub = (spec.window_us / spec.sub_us).max(1) as usize;
    let mut buckets: Vec<Vec<f64>> = vec![Vec::new(); n_sub];
    for &(due, l) in &received.latencies {
        let i = ((due - t0_us) / spec.sub_us) as usize;
        buckets[i.min(n_sub - 1)].push(l);
    }
    let buckets: Vec<Vec<f64>> = buckets.into_iter().map(sorted).collect();
    out.sub_window_p99_ms = buckets.iter().map(|b| quantile(b, 0.99)).collect();
    let mut by_p99: Vec<usize> = (0..n_sub).collect();
    by_p99.sort_by(|&a, &b| out.sub_window_p99_ms[b].total_cmp(&out.sub_window_p99_ms[a]));
    let dropped = if n_sub == 1 {
        0
    } else {
        ((n_sub as f64 * DROP_SHARE) as usize).max(1)
    };
    out.gated_ms = sorted(
        by_p99[dropped..]
            .iter()
            .flat_map(|&i| buckets[i].iter().copied())
            .collect(),
    );
    out.late_ms = generated.late_ms;
    out.spans.extend(generated.spans);
    out.spans
        .extend(control_spans.into_inner().expect("span log"));

    if trace {
        let deliveries = received.distinct.max(1) as f64;
        let mut put =
            |name: &str, v: f64, unit: &'static str| out.layers.push((name.into(), v, unit));
        let calls = sorted(
            out.spans
                .durations_ms("router.publish")
                .iter()
                .map(|ms| ms * 1e3)
                .collect(),
        );
        put("router.publish_call_us_p50", quantile(&calls, 0.5), "us");
        put("router.publish_call_us_p99", quantile(&calls, 0.99), "us");
        // Tap split of each sampled publication.
        let mut up = Vec::new();
        let mut down = Vec::new();
        let mut mismatched = 0u64;
        let mut negative = 0u64;
        if let Some(t) = &tapped {
            for (i, (&tap, &del)) in t.tap_at.iter().zip(&received.deliver_at).enumerate() {
                if tap == 0 || del == 0 {
                    continue;
                }
                let g = i as u64 * SAMPLE;
                let due = t0_us + spec.schedule[g as usize].due_us;
                let (u, d) = (tap as i64 - due as i64, del as i64 - tap as i64);
                if u + d != del as i64 - due as i64 {
                    mismatched += 1;
                }
                if d < 0 {
                    // The tap saw a later copy (a forwarded one after a
                    // migration): no split for this publication.
                    negative += 1;
                    continue;
                }
                up.push(u as f64 / 1e3);
                down.push(d as f64 / 1e3);
                out.spans.push("deliver", "", g, due, del);
                out.spans.push("client.upstream", "deliver", g, due, tap);
                out.spans.push("router.downstream", "deliver", g, tap, del);
            }
        }
        let (up, down) = (sorted(up), sorted(down));
        put("client.upstream_ms_p50", quantile(&up, 0.5), "ms");
        put("client.upstream_ms_p99", quantile(&up, 0.99), "ms");
        put("router.downstream_ms_p50", quantile(&down, 0.5), "ms");
        put("router.downstream_ms_p99", quantile(&down, 0.99), "ms");
        put("trace.tap_samples", up.len() as f64, "count");
        // A split that does not add up, or a tap that saw a message
        // after the subscriber did, is a broken measurement.
        if mismatched > 0 {
            out.problems
                .push(format!("tap split mismatched={mismatched}"));
        }
        put("trace.tap_after_delivery", negative as f64, "count");

        let router = |f: fn(&dynamoth_pubsub::RouterStats) -> u64| {
            router_stats.iter().map(f).sum::<u64>() as f64
        };
        put(
            "router.duplicates_suppressed",
            router(|s| s.duplicates_suppressed),
            "count",
        );
        put(
            "router.switches_applied",
            router(|s| s.switches_applied),
            "count",
        );
        put("router.moved_applied", router(|s| s.moved_applied), "count");
        put(
            "router.stale_control_frames",
            router(|s| s.stale_control_frames),
            "count",
        );

        let roles = out.roles;
        put(
            "client.cpu_us_per_delivery",
            roles.client * 1e6 / deliveries,
            "us",
        );
        put("client.publish_drops", generated.shed as f64, "count");
        put(
            "broker.cpu_us_per_delivery",
            roles.broker * 1e6 / deliveries,
            "us",
        );
        put(
            "broker.busy_frac",
            roles.broker / (window_s * io_loops.max(1) as f64),
            "ratio",
        );
        put("gen.cpu_s", roles.generator, "s");
        let d = |a: u64, b: u64| (a - b) as f64;
        let frames_f = d(counters1.frames, counters0.frames).max(1.0);
        put(
            "broker.frames_per_write",
            frames_f / d(counters1.writes, counters0.writes).max(1.0),
            "count",
        );
        put(
            "broker.wakeups_per_frame",
            d(counters1.wakeups, counters0.wakeups) / frames_f,
            "ratio",
        );
        // Bytes of delivery frames: everything flushed minus the
        // 4-byte `:N\r\n` PUBLISH replies (N < 10 in every workload).
        let delivery_frames = (frames_f - replies as f64).max(1.0);
        let bpd = (d(counters1.bytes, counters0.bytes) - 4.0 * replies as f64) / delivery_frames;
        put("broker.bytes_per_delivery", bpd, "B");
        put(
            "broker.header_bytes_per_delivery",
            bpd - spec.body.max(16) as f64,
            "B",
        );
        put("broker.retained_bytes", retained as f64, "B");
        let health = |f: fn(&dynamoth_pubsub::BrokerHealth) -> u64| {
            healths.iter().map(f).sum::<u64>() as f64
        };
        put(
            "broker.dropped_frames",
            health(|h| h.dropped_frames),
            "count",
        );
        put(
            "broker.overflow_kills",
            health(|h| h.overflow_kills),
            "count",
        );
        put(
            "broker.protocol_errors",
            health(|h| h.protocol_errors),
            "count",
        );

        let b = balancer_stats.clone().unwrap_or_default();
        put(
            "balancer.reports_received",
            b.reports_received as f64,
            "count",
        );
        put(
            "balancer.plans_installed",
            b.plans_installed as f64,
            "count",
        );
        put(
            "balancer.reactive_migrations",
            b.reactive_migrations as f64,
            "count",
        );
        put(
            "balancer.placement_installs",
            b.placement_installs as f64,
            "count",
        );
        put(
            "balancer.low_load_drains",
            b.low_load_drains as f64,
            "count",
        );
        let side = |f: fn(&dynamoth_pubsub::SidecarStats) -> u64| {
            sidecar_stats.iter().map(f).sum::<u64>() as f64
        };
        put("dispatcher.forwarded", side(|s| s.forwarded), "count");
        put(
            "dispatcher.switches_emitted",
            side(|s| s.switches_emitted),
            "count",
        );
        put(
            "dispatcher.moved_emitted",
            side(|s| s.moved_emitted),
            "count",
        );
        put(
            "dispatcher.duplicates_suppressed",
            side(|s| s.duplicates_suppressed),
            "count",
        );
        put(
            "dispatcher.unforwardable",
            side(|s| s.unforwardable),
            "count",
        );
    }
    out
}
