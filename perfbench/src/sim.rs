//! The `sim_game` workload: a fig5-style RGame ramp on the discrete-event
//! simulator with the Dynamoth balancer, assembled from the public
//! `Cluster` and `workloads` APIs at reduced scale.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::sync::Arc;
use std::time::Instant;

use dynamoth_core::{BalancerStrategy, Cluster, ClusterConfig, RebalanceKind};
use dynamoth_sim::{SimDuration, SimTime};
use dynamoth_workloads::{rgame::RGameConfig, schedule::Schedule, setup::spawn_players};

use crate::procfs;
use crate::report::{self, SpanLog};

/// Players at the top of the ramp. The ramp climbs 120 → [`PLAYERS`]
/// over [`RAMP_S`] simulated seconds, 2.8 players/s, gentler than the
/// paper's 3.6/s, and the balancer grows the cluster from one server to
/// three on the way. Steeper ramps at this scale overload a server
/// before the balancer reacts on some seeds, and that tail dominates
/// the seed-to-seed spread of `deliver_p99_ms`.
pub const PLAYERS: usize = 400;
pub const RAMP_S: u64 = 100;
/// Simulated seconds after the ramp.
pub const TAIL_S: u64 = 15;

/// FNV-1a offset basis.
pub const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// One simulation, start to end.
#[derive(Debug, Clone)]
pub struct SimRep {
    /// Seconds of each of the repetition's set-ups.
    pub setup_s: Vec<f64>,
    /// Wall and CPU (this thread) seconds spent simulating, reference
    /// slices excluded.
    pub run_wall_s: f64,
    pub run_cpu_s: f64,
    /// Speed of the interleaved [`Reference`] kernel over the run,
    /// operations per CPU second.
    pub ref_ops_per_s: f64,
    pub events: u64,
    pub messages_sent: u64,
    pub messages_dropped: u64,
    pub delivered: u64,
    /// Per simulated second, mean response time (ms).
    pub response_series: Vec<f64>,
    pub mean_response_ms: f64,
    /// Log-histogram p50/p99 of every simulated response sample (ms).
    pub hist_p50_ms: f64,
    pub hist_p99_ms: f64,
    pub server_s: u64,
    pub servers_peak: usize,
    pub players_peak: usize,
    pub rebalances: Vec<(String, u64)>,
    pub lost_subscriptions: u64,
    /// FNV-1a digest of every simulated series.
    pub digest: u64,
}

impl SimRep {
    pub fn events_per_s(&self) -> f64 {
        self.events as f64 / self.run_wall_s
    }

    /// Simulated deliveries per CPU second, as measured.
    pub fn deliveries_per_cpu_s(&self) -> f64 {
        self.delivered as f64 / self.run_cpu_s.max(1e-9)
    }

    /// How much faster this repetition's host ran than the reference
    /// host: the reference kernel's speed beside it over
    /// [`REF_NOMINAL_OPS_PER_S`].
    pub fn host_speed(&self) -> f64 {
        self.ref_ops_per_s.max(1.0) / REF_NOMINAL_OPS_PER_S
    }

    /// Simulated deliveries per CPU second of the reference host.
    pub fn deliveries_per_ref_cpu_s(&self) -> f64 {
        self.deliveries_per_cpu_s() / self.host_speed()
    }

    /// The set-up times as the reference host would take them.
    pub fn setup_ref_s(&self) -> impl Iterator<Item = f64> + '_ {
        self.setup_s.iter().map(|s| s * self.host_speed())
    }
}

/// Reference operations run after every simulated second (a quarter of
/// it after every set-up).
const REF_SLICE_OPS: u64 = 20_000;
/// The reference kernel's speed, in operations per CPU second, that
/// [`SimRep::deliveries_per_ref_cpu_s`] is expressed at: about its
/// speed on the 2-vCPU host that sized this benchmark.
pub const REF_NOMINAL_OPS_PER_S: f64 = 4.0e6;

/// A fixed event-queue kernel: heap pops and pushes, hash-map updates
/// and a small allocation every 16 operations, the same kinds of work
/// as the simulator's event loop. A shared host's speed drifts by
/// ±20 % within a minute, and this kernel's speed drifts with it.
/// Run in slices between set-ups and simulated seconds, so both see the
/// same host, it turns the simulator's CPU and set-up times into
/// figures that move with the program and much less with the host. It
/// uses only `std` and its own xorshift generator, so no change to the
/// repository's crates can change its speed.
pub struct Reference {
    heap: BinaryHeap<(Reverse<u64>, u32)>,
    map: HashMap<u32, u64>,
    x: u64,
    sum: u64,
    ops: u64,
    cpu_ns: u64,
}

impl Reference {
    pub fn new() -> Reference {
        let mut r = Reference {
            heap: BinaryHeap::new(),
            map: HashMap::new(),
            x: 0x5EED,
            sum: 0,
            ops: 0,
            cpu_ns: 0,
        };
        for i in 0..16_384u32 {
            let t = r.next() % 1_000_000;
            r.heap.push((Reverse(t), i));
        }
        r
    }

    fn next(&mut self) -> u64 {
        self.x ^= self.x << 13;
        self.x ^= self.x >> 7;
        self.x ^= self.x << 17;
        self.x
    }

    /// Runs `ops` operations and adds their CPU time to the total.
    pub fn slice(&mut self, ops: u64) {
        let t0 = procfs::this_thread_cpu_ns();
        for k in 0..ops {
            let Some((Reverse(t), id)) = self.heap.pop() else {
                break;
            };
            let key = id ^ (self.next() as u32 & 0xFFFF);
            *self.map.entry(key).or_default() += t;
            if k % 16 == 0 {
                let v: Vec<u64> = (0..8).map(|j| j + t).collect();
                self.sum = self.sum.wrapping_add(v.iter().sum::<u64>());
            }
            let delay = self.next() % 10_000;
            self.heap.push((Reverse(t + delay), id));
        }
        std::hint::black_box(self.sum);
        self.ops += ops;
        self.cpu_ns += procfs::this_thread_cpu_ns() - t0;
    }

    pub fn ops_per_s(&self) -> f64 {
        self.ops as f64 * 1e9 / self.cpu_ns.max(1) as f64
    }
}

/// Folds `bytes` into an FNV-1a digest (start from [`FNV_OFFSET`]).
pub fn fnv(digest: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *digest ^= b as u64;
        *digest = digest.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

fn kind_name(kind: RebalanceKind) -> &'static str {
    match kind {
        RebalanceKind::HighLoad => "high_load",
        RebalanceKind::LowLoad => "low_load",
        RebalanceKind::ChannelLevel => "channel_level",
        RebalanceKind::ConsistentHash => "consistent_hash",
        RebalanceKind::Failover => "failover",
    }
}

/// Set-ups timed per repetition. One takes well under a millisecond, so
/// a single timing is mostly noise; the last cluster built is run.
const SETUPS: usize = 25;

/// Builds the cluster and its players: the timed set-up.
fn build(seed: u64) -> Cluster {
    let mut cluster = Cluster::build(ClusterConfig {
        seed,
        strategy: BalancerStrategy::Dynamoth,
        ..ClusterConfig::default()
    });
    let schedule = Schedule::ramp(
        120,
        PLAYERS,
        SimTime::from_secs(5),
        SimTime::from_secs(5 + RAMP_S),
    );
    spawn_players(&mut cluster, &Arc::new(RGameConfig::default()), &schedule);
    cluster
}

/// Builds the cluster [`SETUPS`] times, then runs the last one
/// simulated second by simulated second, recording a span per second
/// when `spans` is given.
pub fn run_once(seed: u64, epoch: Instant, mut spans: Option<&mut SpanLog>) -> SimRep {
    let mut reference = Reference::new();
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut cluster = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        let built = build(seed);
        setup_s.push(t.elapsed().as_secs_f64());
        cluster = Some(built);
        reference.slice(REF_SLICE_OPS / 4);
    }
    let mut cluster = cluster.expect("at least one set-up");

    let mut run_wall_s = 0.0;
    let mut run_cpu_ns = 0;
    for _ in 0..(5 + RAMP_S + TAIL_S) {
        let start = report::us_since(epoch);
        let wall = Instant::now();
        let cpu0 = procfs::this_thread_cpu_ns();
        cluster.run_for(SimDuration::from_secs(1));
        run_cpu_ns += procfs::this_thread_cpu_ns() - cpu0;
        run_wall_s += wall.elapsed().as_secs_f64();
        if let Some(log) = spans.as_deref_mut() {
            log.push("sim.run_for", "", u64::MAX, start, report::us_since(epoch));
        }
        reference.slice(REF_SLICE_OPS);
    }

    let stats = cluster.world.stats();
    let trace = &cluster.trace;
    let response = trace.response_series();
    let servers = trace.server_series();
    let players = trace.player_series();
    let deliveries = trace.delivery_series();
    let rebalance_marks = trace.rebalance_series();
    let mut digest = FNV_OFFSET;
    for (s, v) in &response {
        fnv(&mut digest, &s.to_le_bytes());
        fnv(&mut digest, &v.to_bits().to_le_bytes());
    }
    for (s, v) in &servers {
        fnv(&mut digest, &s.to_le_bytes());
        fnv(&mut digest, &(*v as u64).to_le_bytes());
    }
    for (s, v) in &players {
        fnv(&mut digest, &s.to_le_bytes());
        fnv(&mut digest, &(*v as u64).to_le_bytes());
    }
    for (s, v) in &deliveries {
        fnv(&mut digest, &s.to_le_bytes());
        fnv(&mut digest, &v.to_le_bytes());
    }
    for (t, k) in &rebalance_marks {
        fnv(&mut digest, &t.to_bits().to_le_bytes());
        fnv(&mut digest, kind_name(*k).as_bytes());
    }
    fnv(&mut digest, &stats.events_processed.to_le_bytes());
    let mut rebalances: Vec<(String, u64)> = [
        RebalanceKind::HighLoad,
        RebalanceKind::LowLoad,
        RebalanceKind::ChannelLevel,
        RebalanceKind::ConsistentHash,
        RebalanceKind::Failover,
    ]
    .iter()
    .map(|&k| (kind_name(k).to_owned(), 0))
    .collect();
    for (_, k) in &rebalance_marks {
        if let Some(e) = rebalances.iter_mut().find(|(n, _)| n == kind_name(*k)) {
            e.1 += 1;
        }
    }
    SimRep {
        setup_s,
        run_wall_s,
        run_cpu_s: run_cpu_ns as f64 / 1e9,
        ref_ops_per_s: reference.ops_per_s(),
        events: stats.events_processed,
        messages_sent: stats.messages_sent,
        messages_dropped: stats.messages_dropped,
        delivered: trace.delivered_total(),
        response_series: response.iter().map(|&(_, v)| v).collect(),
        mean_response_ms: trace.mean_response_ms().unwrap_or(0.0),
        hist_p50_ms: trace.response_quantile_ms(0.5).unwrap_or(0.0),
        hist_p99_ms: trace.response_quantile_ms(0.99).unwrap_or(0.0),
        server_s: trace.server_seconds(),
        servers_peak: servers.iter().map(|&(_, n)| n).max().unwrap_or(0),
        players_peak: players.iter().map(|&(_, n)| n).max().unwrap_or(0),
        rebalances,
        lost_subscriptions: trace.lost_subscriptions(),
        digest,
    }
}
