//! The Dynamoth balancing algorithms (§III of the paper), shared by the
//! simulator (`dynamoth-core`) and the live TCP control plane
//! ([`LiveLoadBalancer`](crate::LiveLoadBalancer)).
//!
//! These modules used to live in `dynamoth-core`; they moved here so the
//! live balancer can reuse them without a dependency cycle (core depends
//! on this crate for the plan/ring machinery). `dynamoth-core`
//! re-exports them under the historical paths. The algorithms are
//! parameterized by a plain [`Tuning`] snapshot of the thresholds
//! instead of the simulator's full `DynamothConfig`, so callers on
//! either tier pass whatever configuration type they hold (`core`
//! provides `impl From<&DynamothConfig> for Tuning`).
//!
//! The two drivers also share the *sequence* the algorithms run in:
//! [`reactive_pass`] is the one Algorithm 1 → Algorithm 2 → low-load
//! drain evaluation, and [`bounded::replan_dead`] the one dead-server
//! remap. Each driver keeps only its own gate (the simulator's
//! `T_wait`; the live tier's warm-up and settle windows) and its own
//! follow-up (renting servers, journaling, installing plan deltas).

pub mod bounded;
pub mod channel_level;
pub mod estimator;
pub mod high_load;
pub mod low_load;
pub mod metrics;

use crate::hashing::Ring;
use crate::ids::ServerId;
use crate::plan::Plan;
use estimator::LoadView;
use metrics::MetricsStore;

/// The threshold parameters consumed by Algorithms 1/2 and the low-load
/// drain — the subset of the paper's tunables that the balancing math
/// itself reads. Defaults mirror the calibrated simulator defaults.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tuning {
    /// `AllSubs_threshold`: minimum publications-to-subscribers ratio
    /// (`P_ratio`) for *all-subscribers* replication.
    pub all_subs_threshold: f64,
    /// `Publication_threshold`: minimum publications per tick before
    /// all-subscribers replication is considered.
    pub publication_threshold: f64,
    /// `AllPubs_threshold`: minimum subscribers-to-publications ratio
    /// (`S_ratio`) for *all-publishers* replication.
    pub all_pubs_threshold: f64,
    /// `Subscriber_threshold`: minimum subscriber count before
    /// all-publishers replication is considered.
    pub subscriber_threshold: f64,
    /// Upper bound on `N_servers` for a replicated channel.
    pub max_replication: usize,
    /// `LR_high`: a server above this load ratio triggers high-load
    /// rebalancing.
    pub lr_high: f64,
    /// `LR_safe`: high-load rebalancing sheds channels until the
    /// estimated load ratio falls below this value.
    pub lr_safe: f64,
    /// Global average load ratio below which low-load rebalancing tries
    /// to drain and release servers.
    pub lr_low: f64,
}

impl Default for Tuning {
    fn default() -> Self {
        Tuning {
            all_subs_threshold: 600.0,
            publication_threshold: 800.0,
            all_pubs_threshold: 25.0,
            subscriber_threshold: 200.0,
            max_replication: 4,
            lr_high: 0.9,
            lr_safe: 0.7,
            lr_low: 0.35,
        }
    }
}

impl From<&Tuning> for Tuning {
    fn from(t: &Tuning) -> Tuning {
        *t
    }
}

/// What one [`reactive_pass`] proposes, and which stages fired.
#[derive(Debug, Clone, PartialEq)]
pub struct ReactiveOutcome {
    /// The candidate plan after every stage that fired.
    pub plan: Plan,
    /// Algorithm 1 changed a channel's replication.
    pub channel_level: bool,
    /// Algorithm 2 migrated channels off an overloaded server.
    pub high_load: bool,
    /// Servers Algorithm 2 wants added because the pool cannot absorb
    /// the load.
    pub servers_wanted: usize,
    /// The server the low-load drain emptied, to be released.
    pub drained: Option<ServerId>,
}

impl ReactiveOutcome {
    /// `true` if any stage changed the plan.
    pub fn changed(&self) -> bool {
        self.channel_level || self.high_load || self.drained.is_some()
    }
}

/// One reactive balancing evaluation (§III-B): channel aggregates under
/// `plan` (sorted, so decisions are deterministic, and resolved around
/// the `excluded` quarantine set), then channel-level replication
/// (Algorithm 1), then system-level high-load migration (Algorithm 2),
/// then — only when neither changed the plan and no server is wanted —
/// the low-load drain. `view` holds the per-server load estimates over
/// `active`; the pass stages its migrations on it.
///
/// A pure function of its inputs: the caller decides whether to
/// install the candidate.
pub fn reactive_pass(
    plan: &Plan,
    ring: &Ring,
    store: &MetricsStore,
    mut view: LoadView,
    active: &[ServerId],
    tuning: impl Into<Tuning>,
    excluded: &[ServerId],
) -> ReactiveOutcome {
    let tuning: Tuning = tuning.into();
    let mut aggregates: Vec<_> = store
        .channel_aggregates(|c| plan.resolve_excluding(c, ring, excluded))
        .into_iter()
        .collect();
    aggregates.sort_by_key(|&(c, _)| c);

    let mut candidate = plan.clone();
    let channel_level = channel_level::apply(
        &mut candidate,
        ring,
        &aggregates,
        &mut view,
        active,
        tuning,
        excluded,
    );
    let high = high_load::rebalance(&candidate, &mut view, ring, tuning, excluded);
    let mut out = ReactiveOutcome {
        plan: high.plan,
        channel_level,
        high_load: high.changed,
        servers_wanted: high.servers_wanted,
        drained: None,
    };
    if !out.changed() && out.servers_wanted == 0 {
        if let Some(low) = low_load::rebalance(&out.plan, &mut view, ring, tuning, excluded) {
            out.plan = low.plan;
            out.drained = Some(low.release);
        }
    }
    out
}

/// Observed-capacity estimator for the load-ratio denominator `T_i`.
///
/// The paper defines `T_i` as the *measured maximum* outgoing throughput
/// of a server, not its advertised bandwidth. This estimator tracks the
/// maximum **sustained** egress (bytes per tick) a server has actually
/// demonstrated — the minimum over a short trailing window, so a
/// one-tick burst does not count — decaying the memory slowly so an old
/// peak does not inflate the denominator forever, and never reporting
/// less than the provisioned floor. Shared by the simulator's `Lla` and
/// the live tier's balancer, so `LR_i` stops lying when provisioned
/// capacity ≠ real capacity: a server *sustaining* 1.3× its advertised
/// bandwidth is at capacity (LR ≈ 1.0), not at 1.3, while a transient
/// overload spike still reads above 1.0 (the adaptive-threshold
/// controller keys off exactly those near-failure episodes).
#[derive(Debug, Clone)]
pub struct CapacityEstimator {
    floor: f64,
    observed: f64,
    decay: f64,
    window: usize,
    recent: std::collections::VecDeque<f64>,
}

impl CapacityEstimator {
    /// Default per-observation decay factor of the observed maximum.
    pub const DEFAULT_DECAY: f64 = 0.98;
    /// Default number of consecutive observations a level must hold for
    /// before it counts as "sustained".
    pub const DEFAULT_WINDOW: usize = 3;

    /// Creates an estimator with the provisioned capacity `floor`
    /// (bytes per tick) and the default decay/window.
    pub fn new(floor: f64) -> CapacityEstimator {
        CapacityEstimator::with_decay(floor, Self::DEFAULT_DECAY)
    }

    /// Creates an estimator with an explicit decay factor in `(0, 1]`;
    /// values closer to 1 remember demonstrated peaks longer.
    pub fn with_decay(floor: f64, decay: f64) -> CapacityEstimator {
        CapacityEstimator {
            floor: floor.max(1.0),
            observed: 0.0,
            decay: decay.clamp(f64::EPSILON, 1.0),
            window: Self::DEFAULT_WINDOW,
            recent: std::collections::VecDeque::new(),
        }
    }

    /// Feeds one tick's measured egress (bytes) into the estimate. The
    /// estimate rises only when a level holds across the whole trailing
    /// window (sustained throughput demonstrates capacity; one hot tick
    /// is an overload transient, not evidence of headroom).
    pub fn observe(&mut self, egress_bytes: f64) {
        self.recent.push_back(egress_bytes);
        while self.recent.len() > self.window {
            self.recent.pop_front();
        }
        self.observed *= self.decay;
        if self.recent.len() == self.window {
            let sustained = self.recent.iter().copied().fold(f64::INFINITY, f64::min);
            self.observed = self.observed.max(sustained);
        }
    }

    /// Discards the trailing observation window without touching the
    /// demonstrated-capacity estimate. Called when a broker is declared
    /// dead: its final (often artificially high or truncated) egress
    /// samples must not complete a "sustained" window and skew the
    /// capacity — and with it the mean-load math every survivor's LR is
    /// measured against — after the broker is gone.
    pub fn forget_window(&mut self) {
        self.recent.clear();
    }

    /// The current estimate of `T_i`: the decayed maximum sustained
    /// egress, never below the provisioned floor.
    pub fn capacity(&self) -> f64 {
        self.observed.max(self.floor)
    }

    /// The provisioned floor this estimator was built with.
    pub fn floor(&self) -> f64 {
        self.floor
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_internally_consistent() {
        let t = Tuning::default();
        assert!(t.lr_safe < t.lr_high);
        assert!(t.lr_low < t.lr_safe);
        assert!(t.max_replication >= 2);
    }

    #[test]
    fn capacity_never_drops_below_floor() {
        let mut c = CapacityEstimator::new(1_000.0);
        assert_eq!(c.capacity(), 1_000.0);
        c.observe(400.0);
        assert_eq!(c.capacity(), 1_000.0);
    }

    #[test]
    fn capacity_tracks_sustained_maximum() {
        let mut c = CapacityEstimator::new(1_000.0);
        for _ in 0..CapacityEstimator::DEFAULT_WINDOW {
            c.observe(1_500.0);
        }
        assert!((c.capacity() - 1_500.0).abs() < 1e-9);
        // A quieter tick decays the memory but keeps most of it.
        c.observe(100.0);
        assert!((c.capacity() - 1_470.0).abs() < 1e-9);
    }

    #[test]
    fn transient_burst_does_not_raise_capacity() {
        // One hot tick is an overload transient, not demonstrated
        // capacity: `T_i` must stay at the floor so the load ratio keeps
        // reading > 1 during near-failure episodes.
        let mut c = CapacityEstimator::new(1_000.0);
        c.observe(1_500.0);
        assert_eq!(c.capacity(), 1_000.0);
        c.observe(100.0);
        c.observe(100.0);
        assert_eq!(c.capacity(), 1_000.0);
    }

    #[test]
    fn decayed_maximum_returns_to_floor() {
        let mut c = CapacityEstimator::with_decay(1_000.0, 0.5);
        for _ in 0..CapacityEstimator::DEFAULT_WINDOW {
            c.observe(1_600.0);
        }
        for _ in 0..8 {
            c.observe(0.0);
        }
        assert_eq!(c.capacity(), 1_000.0);
    }

    #[test]
    fn tuning_converts_from_reference() {
        let t = Tuning {
            lr_high: 0.5,
            ..Tuning::default()
        };
        let u: Tuning = (&t).into();
        assert_eq!(u, t);
    }
}
