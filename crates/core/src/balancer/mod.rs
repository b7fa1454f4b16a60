//! The Dynamoth load balancer node (§III), plus the consistent-hashing
//! baseline used in the paper's Experiment 2.
//!
//! The [`LoadBalancer`] actor ingests [`LlaReport`](crate::LlaReport)s
//! from every Local
//! Load Analyzer, and on every evaluation tick (gated by `T_wait`) runs
//! the shared [`reactive_pass`]: channel-level replication (Algorithm 1)
//! then system-level high-load rebalancing (Algorithm 2) or, when the
//! system is underloaded, the low-load drain. New plans are pushed
//! reliably to every dispatcher. Server rental/release is simulated with
//! a provisioning delay. A dead server's channels are remapped by the
//! same bounded-load replan the live balancer runs.

pub mod adaptive;
// The algorithm implementations moved to `dynamoth-pubsub` so the live
// TCP control plane can reuse them; re-exported here under the
// historical `dynamoth_core::balancer::*` paths.
pub use dynamoth_pubsub::balance::{channel_level, estimator, high_load, low_load};

use std::sync::Arc;

use dynamoth_sim::{Actor, ActorContext, NodeId, SimTime};

use crate::config::DynamothConfig;
use crate::hashing::Ring;
use crate::message::Msg;
use crate::metrics::MetricsStore;
use crate::plan::{ChannelMapping, Plan};
use crate::trace::{RebalanceKind, TraceHandle};
use crate::types::{PlanId, ServerId};

use adaptive::AdaptiveThresholds;
use dynamoth_pubsub::balance::bounded::replan_dead;
use dynamoth_pubsub::balance::reactive_pass;
use estimator::LoadView;

/// Timer tag of the periodic evaluation tick.
pub const TAG_EVAL: u64 = 1;

/// Which balancing policy the node runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BalancerStrategy {
    /// The paper's contribution: hierarchical channel/system balancing.
    Dynamoth,
    /// The baseline: grow a consistent-hashing ring on overload, with
    /// every server shedding 1/N of its channels to the new server.
    ConsistentHash,
    /// No automatic rebalancing: plans only change through
    /// [`LoadBalancer::install_manual_plan`]. Used by the
    /// micro-benchmarks of Experiment 1, where the paper fixes the
    /// replication configuration by hand.
    Manual,
}

/// The load balancer actor.
#[derive(Debug)]
pub struct LoadBalancer {
    cfg: Arc<DynamothConfig>,
    strategy: BalancerStrategy,
    ring: Arc<Ring>,
    /// The baseline's growing ring (starts as a copy of the bootstrap
    /// ring).
    ch_ring: Ring,
    pool: Vec<ServerId>,
    active: Vec<ServerId>,
    pending: Vec<(ServerId, SimTime)>,
    store: MetricsStore,
    plan: Plan,
    next_plan_id: u64,
    last_plan_at: Option<SimTime>,
    trace: TraceHandle,
    /// Last instant each server's LLA was heard from.
    last_report: std::collections::HashMap<ServerId, SimTime>,
    /// Every channel ever observed in a report (needed to remap a failed
    /// server's consistent-hash home channels).
    known_channels: std::collections::BTreeSet<crate::types::ChannelId>,
    /// Servers declared failed; excluded from provisioning until their
    /// LLA reports again (i.e. the process restarted).
    failed: std::collections::HashSet<ServerId>,
    /// Working copy of the thresholds, mutated by the adaptive
    /// controller when enabled.
    effective: DynamothConfig,
    adaptive: Option<AdaptiveThresholds>,
}

impl LoadBalancer {
    /// Creates a balancer managing `pool`, with the first
    /// `initial_active` servers rented up front. `ring` is the bootstrap
    /// consistent-hashing ring shared with clients and dispatchers.
    ///
    /// # Panics
    ///
    /// Panics if `initial_active` is zero or exceeds the pool size.
    pub fn new(
        cfg: Arc<DynamothConfig>,
        strategy: BalancerStrategy,
        ring: Arc<Ring>,
        pool: Vec<ServerId>,
        initial_active: usize,
        trace: TraceHandle,
    ) -> Self {
        assert!(
            initial_active >= 1 && initial_active <= pool.len(),
            "initial_active must be within the pool"
        );
        let active = pool[..initial_active].to_vec();
        let window = cfg.metrics_window;
        let effective = (*cfg).clone();
        let adaptive = cfg
            .adaptive_thresholds
            .then(|| AdaptiveThresholds::new(cfg.lr_high, cfg.lr_safe, cfg.danger_lr));
        LoadBalancer {
            cfg,
            strategy,
            ch_ring: (*ring).clone(),
            ring,
            pool,
            active,
            pending: Vec::new(),
            store: MetricsStore::new(window),
            plan: Plan::bootstrap(),
            next_plan_id: 0,
            last_plan_at: None,
            trace,
            last_report: std::collections::HashMap::new(),
            known_channels: std::collections::BTreeSet::new(),
            failed: std::collections::HashSet::new(),
            effective,
            adaptive,
        }
    }

    /// The thresholds currently in force (differ from the configuration
    /// when adaptive tuning is enabled).
    pub fn effective_thresholds(&self) -> (f64, f64) {
        (self.effective.lr_high, self.effective.lr_safe)
    }

    /// Currently rented (serving) servers.
    pub fn active_servers(&self) -> &[ServerId] {
        &self.active
    }

    /// Servers being provisioned.
    pub fn pending_count(&self) -> usize {
        self.pending.len()
    }

    /// The current global plan.
    pub fn plan(&self) -> &Plan {
        &self.plan
    }

    /// Replaces the current plan without running any algorithm; the
    /// caller is responsible for pushing it to the dispatchers (see
    /// [`Cluster::install_plan`](crate::Cluster::install_plan)). Returns
    /// the plan stamped with its new version.
    pub fn install_manual_plan(&mut self, mut plan: Plan) -> Plan {
        self.next_plan_id += 1;
        plan.set_id(PlanId(self.next_plan_id));
        self.plan = plan.clone();
        plan
    }

    /// The CPU term for [`LoadView::from_store_with_cpu`], when the
    /// CPU-aware extension is enabled.
    fn cpu_term(&self) -> Option<(f64, u64)> {
        self.cfg
            .cpu_aware
            .then_some((self.cfg.cpu_capacity, self.cfg.tick.as_micros()))
    }

    /// Effective load ratio of `server`: bandwidth, or the max of
    /// bandwidth and normalized CPU under the CPU-aware extension.
    fn effective_load_ratio(&self, server: ServerId) -> Option<f64> {
        let bw = self.store.load_ratio(server)?;
        match self.cpu_term() {
            Some((cpu_capacity, tick_micros)) => {
                let cpu = self.store.cpu_ratio(server, tick_micros).unwrap_or(0.0);
                Some(bw.max(cpu / cpu_capacity))
            }
            None => Some(bw),
        }
    }

    fn gate_open(&self, now: SimTime) -> bool {
        self.last_plan_at
            .is_none_or(|t| now.saturating_since(t) >= self.cfg.t_wait)
    }

    fn spawn_servers(&mut self, now: SimTime, wanted: usize) -> usize {
        if !self.pending.is_empty() {
            return 0; // one provisioning wave at a time
        }
        let mut spawned = 0;
        for &s in &self.pool {
            if spawned >= wanted {
                break;
            }
            if self.active.contains(&s)
                || self.failed.contains(&s)
                || self.pending.iter().any(|&(p, _)| p == s)
            {
                continue;
            }
            self.pending.push((s, now + self.cfg.provisioning_delay));
            spawned += 1;
        }
        spawned
    }

    fn promote_pending(&mut self, ctx: &mut dyn ActorContext<Msg>, now: SimTime) {
        let ready: Vec<ServerId> = self
            .pending
            .iter()
            .filter(|&&(_, at)| at <= now)
            .map(|&(s, _)| s)
            .collect();
        if ready.is_empty() {
            return;
        }
        self.pending.retain(|&(_, at)| at > now);
        for s in ready {
            self.active.push(s);
            if self.strategy == BalancerStrategy::ConsistentHash {
                self.ch_ring.add_server(s);
            }
        }
        if self.strategy == BalancerStrategy::ConsistentHash {
            // The ring change remaps 1/N of every server's channels to
            // the newcomer, regardless of individual loads — exactly
            // the weakness the paper demonstrates.
            let mut plan = Plan::bootstrap();
            for channel in self.store.channels() {
                plan.set(
                    channel,
                    ChannelMapping::Single(self.ch_ring.server_for(channel)),
                );
            }
            self.push_plan(ctx, now, plan, RebalanceKind::ConsistentHash);
        }
        // Under the Dynamoth strategy the next evaluation migrates
        // channels onto the fresh server via Algorithm 2.
    }

    fn push_plan(
        &mut self,
        ctx: &mut dyn ActorContext<Msg>,
        now: SimTime,
        mut plan: Plan,
        kind: RebalanceKind,
    ) {
        self.next_plan_id += 1;
        plan.set_id(PlanId(self.next_plan_id));
        self.plan = plan.clone();
        let shared = Arc::new(plan);
        for &s in &self.pool {
            ctx.send(s.node(), Msg::PlanPush(Arc::clone(&shared)));
        }
        self.last_plan_at = Some(now);
        self.trace.record_rebalance(now, kind);
    }

    fn evaluate_dynamoth(&mut self, ctx: &mut dyn ActorContext<Msg>, now: SimTime) {
        if !self.gate_open(now) {
            return;
        }
        let view = LoadView::from_store_with_cpu(
            &self.store,
            &self.active,
            self.cfg.capacity_per_tick(),
            self.cpu_term(),
        );
        // Failed servers are routed around, so every resolve the
        // algorithms gate on must agree with where traffic really goes.
        let excluded: Vec<ServerId> = self.failed.iter().copied().collect();
        let out = reactive_pass(
            &self.plan,
            &self.ring,
            &self.store,
            view,
            &self.active,
            &self.effective,
            &excluded,
        );
        if out.servers_wanted > 0 {
            self.spawn_servers(now, out.servers_wanted);
        }
        if out.changed() {
            let kind = if let Some(victim) = out.drained {
                self.active.retain(|&s| s != victim);
                self.store.forget(victim);
                RebalanceKind::LowLoad
            } else if out.high_load {
                RebalanceKind::HighLoad
            } else {
                RebalanceKind::ChannelLevel
            };
            self.push_plan(ctx, now, out.plan, kind);
        }
    }

    fn evaluate_consistent_hash(&mut self, now: SimTime) {
        if !self.gate_open(now) {
            return;
        }
        let max_lr = self
            .active
            .iter()
            .filter_map(|&s| self.effective_load_ratio(s))
            .fold(0.0f64, f64::max);
        if max_lr > self.effective.lr_high {
            // The only lever consistent hashing has: rent another server.
            if self.spawn_servers(now, 1) > 0 {
                self.last_plan_at = Some(now);
            }
        }
    }

    /// Declares active servers that stopped reporting as failed and
    /// migrates every channel they were responsible for to healthy
    /// servers (the reliability extension; §VII future work). Clients
    /// recover lazily: their publications to the dead server go
    /// unanswered, the client-side failover timeout fires, and the
    /// consistent-hash fallback leads them to a dispatcher holding the
    /// failover plan.
    fn detect_failures(&mut self, ctx: &mut dyn ActorContext<Msg>, now: SimTime) {
        if !self.cfg.fault_tolerance || self.strategy == BalancerStrategy::Manual {
            return;
        }
        let timeout = self.cfg.server_failure_timeout;
        let failed: Vec<ServerId> = self
            .active
            .iter()
            .copied()
            .filter(|s| {
                self.last_report
                    .get(s)
                    .is_some_and(|&at| now.saturating_since(at) > timeout)
            })
            .collect();
        if failed.is_empty() {
            return;
        }
        for &s in &failed {
            self.active.retain(|&a| a != s);
            self.last_report.remove(&s);
            self.failed.insert(s);
        }
        // A failed server that was mid-provisioning must not be promoted.
        self.pending.retain(|&(s, _)| !failed.contains(&s));
        // Replan each corpse onto the healthy pool with the bounded-load
        // walk *before* its metrics are forgotten: they are the only
        // estimate of what each of its channels carries. Resolution
        // excludes every other corpse (traffic routes around them) but
        // not this one, so the replan still sees the mapping it must
        // replace.
        let mut plan = self.plan.clone();
        for &dead in &failed {
            let prior: Vec<ServerId> = self.failed.iter().copied().filter(|&s| s != dead).collect();
            (plan, _) = replan_dead(
                &plan,
                &self.ring,
                &self.store,
                self.known_channels.iter().copied(),
                dead,
                &self.active,
                &prior,
            );
        }
        for &s in &failed {
            self.store.forget(s);
        }
        if self.active.is_empty() {
            // Nothing healthy to fail over to; wait for provisioning.
            self.spawn_servers(now, failed.len());
            return;
        }
        self.push_plan(ctx, now, plan, RebalanceKind::Failover);
        // Replace the lost capacity.
        self.spawn_servers(now, failed.len());
    }

    fn record_tick_trace(&mut self, now: SimTime) {
        let mut sum = 0.0;
        let mut max: f64 = 0.0;
        let mut n = 0usize;
        for &s in &self.active {
            if let Some(lr) = self.effective_load_ratio(s) {
                sum += lr;
                max = max.max(lr);
                n += 1;
            }
        }
        if n > 0 {
            self.trace.record_load(now, sum / n as f64, max);
            if let Some(controller) = &mut self.adaptive {
                if controller.observe(max) {
                    self.effective.lr_high = controller.lr_high();
                    self.effective.lr_safe = controller.lr_safe();
                }
            }
        }
        self.trace.record_server_count(now, self.active.len());
        self.trace.add_server_seconds(self.active.len());
    }
}

impl Actor<Msg> for LoadBalancer {
    fn on_message(&mut self, _ctx: &mut dyn ActorContext<Msg>, _from: NodeId, msg: Msg) {
        if let Msg::LlaReport(report) = msg {
            let deliveries: u64 = report.channels.iter().map(|&(_, t)| t.deliveries).sum();
            if deliveries > 0 {
                self.trace.add_deliveries(report.tick, deliveries);
            }
            self.last_report.insert(report.server, _ctx.now());
            // A report from a failed server means it restarted: it
            // becomes a provisioning candidate again.
            self.failed.remove(&report.server);
            self.known_channels
                .extend(report.channels.iter().map(|&(c, _)| c));
            self.store.record(report);
        }
    }

    fn on_timer(&mut self, ctx: &mut dyn ActorContext<Msg>, tag: u64) {
        if tag != TAG_EVAL {
            return;
        }
        let now = ctx.now();
        self.promote_pending(ctx, now);
        self.detect_failures(ctx, now);
        match self.strategy {
            BalancerStrategy::Dynamoth => self.evaluate_dynamoth(ctx, now),
            BalancerStrategy::ConsistentHash => self.evaluate_consistent_hash(now),
            BalancerStrategy::Manual => {}
        }
        self.record_tick_trace(now);
        ctx.set_timer(self.cfg.tick, TAG_EVAL);
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}
