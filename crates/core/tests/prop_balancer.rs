//! Property tests for the load-balancing algorithms: Algorithm 2's
//! post-conditions, the estimator's conservation laws and the ordering
//! of the shared reactive pass under arbitrary load distributions.

use dynamoth_core::balancer::estimator::LoadView;
use dynamoth_core::balancer::{high_load, low_load};
use dynamoth_core::{
    ChannelId, ChannelTick, DynamothConfig, LlaReport, MetricsStore, Plan, Ring, ServerId,
    DEFAULT_VNODES,
};
use dynamoth_pubsub::balance::reactive_pass;
use dynamoth_sim::NodeId;
use proptest::prelude::*;

fn sid(i: usize) -> ServerId {
    ServerId(NodeId::from_index(i))
}

/// Builds a store where server `i` hosts the given channels with the
/// given per-tick byte loads.
fn store_from(dist: &[Vec<(u64, u64)>]) -> (MetricsStore, Vec<ServerId>) {
    let ticks: Vec<Vec<(u64, ChannelTick)>> = dist
        .iter()
        .map(|channels| {
            channels
                .iter()
                .map(|&(c, b)| {
                    let tick = ChannelTick {
                        bytes_out: b,
                        ..Default::default()
                    };
                    (c, tick)
                })
                .collect()
        })
        .collect();
    store_with_ticks(&ticks)
}

/// Builds a store where server `i` reports the given channel ticks.
fn store_with_ticks(dist: &[Vec<(u64, ChannelTick)>]) -> (MetricsStore, Vec<ServerId>) {
    let mut store = MetricsStore::new(1);
    let servers: Vec<ServerId> = (0..dist.len()).map(sid).collect();
    for (i, channels) in dist.iter().enumerate() {
        store.record(LlaReport {
            server: sid(i),
            tick: 0,
            measured_egress_bytes: channels.iter().map(|(_, t)| t.bytes_out).sum(),
            capacity_bytes: 1_000.0,
            cpu_busy_micros: 0,
            channels: channels.iter().map(|&(c, t)| (ChannelId(c), t)).collect(),
        });
    }
    (store, servers)
}

/// Like [`arb_distribution`], with publication and subscriber counts
/// wide enough that Algorithm 1 replicates some channels.
fn arb_traffic() -> impl Strategy<Value = Vec<Vec<(u64, ChannelTick)>>> {
    let channel = (1u64..600, 0u64..2_000, 0u32..400);
    prop::collection::vec(prop::collection::vec(channel, 0..6), 2..6).prop_map(|loads| {
        let mut next_channel = 0u64;
        loads
            .into_iter()
            .map(|server_loads| {
                server_loads
                    .into_iter()
                    .map(|(bytes, publications, subscribers)| {
                        next_channel += 1;
                        let tick = ChannelTick {
                            bytes_out: bytes,
                            publications,
                            subscribers,
                            publishers: 1,
                            ..Default::default()
                        };
                        (next_channel, tick)
                    })
                    .collect()
            })
            .collect()
    })
}

/// A random per-server channel distribution with disjoint channel ids.
fn arb_distribution() -> impl Strategy<Value = Vec<Vec<(u64, u64)>>> {
    prop::collection::vec(prop::collection::vec(1u64..600, 0..6), 2..6).prop_map(|loads| {
        let mut next_channel = 0u64;
        loads
            .into_iter()
            .map(|server_loads| {
                server_loads
                    .into_iter()
                    .map(|bytes| {
                        next_channel += 1;
                        (next_channel, bytes)
                    })
                    .collect()
            })
            .collect()
    })
}

fn ring_of(servers: &[ServerId]) -> Ring {
    Ring::new(servers, DEFAULT_VNODES)
}

fn cfg() -> DynamothConfig {
    DynamothConfig {
        lr_high: 0.9,
        lr_safe: 0.7,
        lr_low: 0.35,
        ..DynamothConfig::default()
    }
}

proptest! {
    /// Total estimated load is conserved by arbitrary migrations.
    #[test]
    fn estimator_conserves_load(dist in arb_distribution(), moves in prop::collection::vec((0usize..6, 0usize..6, 0u64..20), 0..20)) {
        let (store, servers) = store_from(&dist);
        let mut view = LoadView::from_store(&store, &servers, 1_000.0);
        let total_before: f64 = view.servers().map(|s| view.load_ratio(s)).sum();
        for (from, to, ch) in moves {
            let from = servers[from % servers.len()];
            let to = servers[to % servers.len()];
            if from != to {
                view.migrate(ChannelId(ch), from, to);
            }
        }
        let total_after: f64 = view.servers().map(|s| view.load_ratio(s)).sum();
        prop_assert!((total_before - total_after).abs() < 1e-6,
            "{total_before} vs {total_after}");
    }

    /// Algorithm 2 either brings every server's *estimated* load below
    /// `LR_high` or asks for more servers; it never overloads a target
    /// beyond `LR_safe` by its own migrations, and it always terminates.
    #[test]
    fn algorithm2_postconditions(dist in arb_distribution()) {
        let (store, servers) = store_from(&dist);
        let mut view = LoadView::from_store(&store, &servers, 1_000.0);
        let before: Vec<f64> = servers.iter().map(|&s| view.load_ratio(s)).collect();
        let out = high_load::rebalance(&Plan::bootstrap(), &mut view, &ring_of(&servers), &cfg(), &[]);
        if out.servers_wanted == 0 {
            for &s in &servers {
                prop_assert!(
                    view.load_ratio(s) < 0.9 + 1e-9,
                    "server {s} still above LR_high with no growth requested"
                );
            }
        }
        // No server that was below LR_safe before may end above it
        // (migrations must not create new hotspots).
        for (i, &s) in servers.iter().enumerate() {
            if before[i] <= 0.7 {
                prop_assert!(view.load_ratio(s) <= 0.7 + 1e-9,
                    "server {s} pushed past LR_safe: {} -> {}", before[i], view.load_ratio(s));
            }
        }
    }

    /// The low-load drain, when it fires, empties exactly one server and
    /// never pushes a receiving server past `LR_safe` (servers that were
    /// already above it are high-load rebalancing's problem, not the
    /// drain's).
    #[test]
    fn low_load_drain_is_safe(dist in arb_distribution()) {
        let (store, servers) = store_from(&dist);
        let mut view = LoadView::from_store(&store, &servers, 1_000.0);
        let before: Vec<f64> = servers.iter().map(|&s| view.load_ratio(s)).collect();
        if let Some(out) = low_load::rebalance(&Plan::bootstrap(), &mut view, &ring_of(&servers), &cfg(), &[]) {
            prop_assert!(view.channels_on(out.release).is_empty());
            for (i, &s) in servers.iter().enumerate() {
                prop_assert!(view.load_ratio(s) <= before[i].max(0.7) + 1e-9);
            }
            // Every migrated channel is mapped somewhere else.
            for (c, m) in out.plan.iter() {
                prop_assert!(m.servers().iter().all(|&s| s != out.release),
                    "channel {c} still mapped to the released server");
            }
        }
    }

    /// When the low-load drain aborts (returns `None`), the shared load
    /// view must be byte-for-byte what it was before the call: a partial
    /// drain that was rolled back may not leave phantom migrations in
    /// the estimator. Run with `lr_low = 0.5` because with the other
    /// properties' `lr_low = lr_safe / 2` an abort after a successful
    /// staged migration is arithmetically unreachable.
    #[test]
    fn low_load_abort_leaves_estimates_intact(dist in arb_distribution()) {
        let (store, servers) = store_from(&dist);
        let mut view = LoadView::from_store(&store, &servers, 1_000.0);
        let reference = LoadView::from_store(&store, &servers, 1_000.0);
        let cfg = DynamothConfig { lr_low: 0.5, ..cfg() };
        if low_load::rebalance(&Plan::bootstrap(), &mut view, &ring_of(&servers), &cfg, &[]).is_none() {
            for &s in &servers {
                prop_assert!(
                    (view.load_ratio(s) - reference.load_ratio(s)).abs() < 1e-12,
                    "aborted drain corrupted {s}: {} -> {}",
                    reference.load_ratio(s), view.load_ratio(s)
                );
                prop_assert_eq!(view.channels_on(s), reference.channels_on(s));
            }
        }
    }

    /// Algorithm 2 never *unmaps* a channel: everything it touches ends
    /// with a concrete single-server mapping.
    #[test]
    fn algorithm2_only_migrates(dist in arb_distribution()) {
        let (store, servers) = store_from(&dist);
        let mut view = LoadView::from_store(&store, &servers, 1_000.0);
        let out = high_load::rebalance(&Plan::bootstrap(), &mut view, &ring_of(&servers), &cfg(), &[]);
        for (_, mapping) in out.plan.iter() {
            prop_assert_eq!(mapping.replication_factor(), 1);
            prop_assert!(servers.contains(&mapping.servers()[0]));
        }
    }
    /// The reactive pass both balancers share: the low-load drain fires
    /// only in an evaluation where neither Algorithm 1 nor Algorithm 2
    /// changed the plan and no server is wanted, and the outcome is a
    /// function of the inputs alone.
    #[test]
    fn reactive_pass_drains_only_a_quiet_system(dist in arb_traffic(), lr_low in 0.0f64..0.7) {
        let (store, servers) = store_with_ticks(&dist);
        let ring = ring_of(&servers);
        let cfg = DynamothConfig { lr_low, ..cfg() };
        let run = || {
            let view = LoadView::from_store(&store, &servers, 1_000.0);
            reactive_pass(&Plan::bootstrap(), &ring, &store, view, &servers, &cfg, &[])
        };
        let out = run();
        if out.drained.is_some() {
            prop_assert!(
                !out.channel_level && !out.high_load && out.servers_wanted == 0,
                "drain fired in a busy evaluation: {out:?}"
            );
        }
        prop_assert_eq!(out, run());
    }
}

/// Deterministic replay of the counterexample recorded in
/// `prop_balancer.proptest-regressions` (`dist = [[(1, 546), (2, 155)],
/// [], []]`): one server sits just above `LR_safe` while the global
/// average is below `LR_low`, so the drain fires and must release an
/// idle server without touching the loaded one. Pinned as a plain test
/// so the case runs on every `cargo test` regardless of the proptest
/// implementation's regression-file handling.
#[test]
fn saved_regression_boundary_drain_is_safe() {
    let dist: Vec<Vec<(u64, u64)>> = vec![vec![(1, 546), (2, 155)], vec![], vec![]];
    let (store, servers) = store_from(&dist);

    // Algorithm 2: LR_0 = 0.701 is below LR_high, so no migration and
    // no growth request.
    let mut view = LoadView::from_store(&store, &servers, 1_000.0);
    let out = high_load::rebalance(
        &Plan::bootstrap(),
        &mut view,
        &ring_of(&servers),
        &cfg(),
        &[],
    );
    assert!(!out.changed);
    assert_eq!(out.servers_wanted, 0);
    assert!(out.plan.is_empty());

    // Low-load drain: average 0.2337 is below LR_low, so one of the two
    // idle servers is released; the loaded server's estimate must be
    // exactly untouched even though it sits above LR_safe.
    let mut view = LoadView::from_store(&store, &servers, 1_000.0);
    let out = low_load::rebalance(
        &Plan::bootstrap(),
        &mut view,
        &ring_of(&servers),
        &cfg(),
        &[],
    )
    .expect("drain fires");
    assert!(out.release == servers[1] || out.release == servers[2]);
    assert!(view.channels_on(out.release).is_empty());
    assert!(out.plan.is_empty(), "an idle server needs no migrations");
    assert!((view.load_ratio(servers[0]) - 0.701).abs() < 1e-12);
}
