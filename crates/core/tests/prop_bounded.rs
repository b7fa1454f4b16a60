//! Property tests for the bounded-load placer (consistent hashing with
//! bounded loads): the `(1+ε)×mean` cap is respected whenever any
//! eligible server has room, placement is a pure function of its
//! inputs, and `rehome` implements the balls-and-bins minimal-movement
//! contract — a channel moves only off an over-cap or ineligible home.
//! The dead-server replan both balancers share is checked the same way.

use std::collections::{BTreeMap, HashMap};

use dynamoth_pubsub::balance::bounded::replan_dead;
use dynamoth_pubsub::balance::metrics::{ChannelTick, LlaReport, MetricsStore};
use dynamoth_pubsub::{BoundedPlacer, Channel as ChannelId, ChannelMapping, Plan, Ring, ServerId};
use proptest::prelude::*;

fn servers(n: usize) -> Vec<ServerId> {
    (0..n).map(ServerId::from_index).collect()
}

fn seeded(ids: &[ServerId], loads: &[f64]) -> Vec<(ServerId, f64)> {
    ids.iter().copied().zip(loads.iter().copied()).collect()
}

/// A cluster of `n` servers for the replan properties: `channels` are
/// `(id, pinned home, bytes)`; a channel is pinned to `Single(home)`
/// when `pin` says so and rides the ring otherwise. Each server reports
/// the bytes of the channels that resolve to it. Returns the ring, the
/// plan, the store and every channel with its bytes.
fn replan_cluster(
    n: usize,
    channels: &[(u64, usize, u64, bool)],
) -> (Ring, Plan, MetricsStore, BTreeMap<ChannelId, u64>) {
    let ids = servers(n);
    let ring = Ring::new(&ids, 64);
    let mut plan = Plan::bootstrap();
    let mut universe = BTreeMap::new();
    for &(c, home, bytes, pin) in channels {
        if universe.insert(ChannelId(c), bytes).is_none() && pin {
            plan.set(ChannelId(c), ChannelMapping::Single(ids[home % n]));
        }
    }
    let mut store = MetricsStore::new(1);
    for &s in &ids {
        let on: Vec<(ChannelId, ChannelTick)> = universe
            .iter()
            .filter(|&(&c, _)| plan.resolve(c, &ring).servers() == [s])
            .map(|(&c, &b)| {
                let tick = ChannelTick {
                    bytes_out: b,
                    ..Default::default()
                };
                (c, tick)
            })
            .collect();
        store.record(LlaReport {
            server: s,
            tick: 0,
            measured_egress_bytes: on.iter().map(|(_, t)| t.bytes_out).sum(),
            capacity_bytes: 1_000.0,
            cpu_busy_micros: 0,
            channels: on,
        });
    }
    (ring, plan, store, universe)
}

fn arb_replan_channels() -> impl Strategy<Value = Vec<(u64, usize, u64, bool)>> {
    prop::collection::vec((0u64..5_000, 0usize..8, 0u64..500, any::<bool>()), 1..48)
}

proptest! {
    /// Greedy cap feasibility: whenever at least one eligible server
    /// could take the channel without blowing the cap, the chosen
    /// server does not blow it either. (When nobody fits, the placer
    /// falls back to least-projected — bounding imbalance, not
    /// admission — and the cap check is vacuous.)
    #[test]
    fn cap_is_respected_whenever_feasible(
        loads in prop::collection::vec(0.0f64..1_000.0, 2..8),
        epsilon in 0.0f64..1.0,
        channels in prop::collection::vec((any::<u64>(), 0.0f64..500.0), 1..64),
    ) {
        let ids = servers(loads.len());
        let ring = Ring::new(&ids, 64);
        let pending: f64 = channels.iter().map(|&(_, b)| b).sum();
        let mut placer = BoundedPlacer::new(&seeded(&ids, &loads), epsilon, pending, 0.0);
        let cap = placer.cap_bytes();
        for &(c, bytes) in &channels {
            let before: HashMap<ServerId, f64> = placer.loads().collect();
            let feasible = before.values().any(|&p| p + bytes <= cap);
            let target = placer
                .place(&ring, ChannelId(c), bytes, &[])
                .expect("non-empty pool always places");
            prop_assert!(before.contains_key(&target), "placed on unknown server");
            if feasible {
                prop_assert!(
                    before[&target] + bytes <= cap + 1e-6,
                    "feasible placement blew the cap: {} + {} > {}",
                    before[&target], bytes, cap
                );
            }
        }
    }

    /// Placement is deterministic: identical loads, ε and channel
    /// sequence produce the identical assignment sequence.
    #[test]
    fn placement_is_a_pure_function_of_its_inputs(
        loads in prop::collection::vec(0.0f64..1_000.0, 2..8),
        epsilon in 0.0f64..1.0,
        channels in prop::collection::vec((any::<u64>(), 0.0f64..500.0), 1..48),
    ) {
        let ids = servers(loads.len());
        let ring = Ring::new(&ids, 64);
        let pending: f64 = channels.iter().map(|&(_, b)| b).sum();
        let run = || {
            let mut placer =
                BoundedPlacer::new(&seeded(&ids, &loads), epsilon, pending, 0.0);
            channels
                .iter()
                .map(|&(c, bytes)| placer.place(&ring, ChannelId(c), bytes, &[]))
                .collect::<Vec<_>>()
        };
        prop_assert_eq!(run(), run());
    }

    /// Minimal movement (balls-and-bins hysteresis): `rehome` keeps the
    /// current home whenever it is eligible and under the cap; a home
    /// that is ineligible (removed/quarantined server) always yields an
    /// eligible replacement.
    #[test]
    fn rehome_moves_only_cap_violating_or_ineligible_channels(
        loads in prop::collection::vec(0.0f64..1_000.0, 2..8),
        epsilon in 0.0f64..1.0,
        channel in any::<u64>(),
        bytes in 0.0f64..500.0,
        cur in 0usize..8,
        cap_floor in 0.0f64..2_000.0,
    ) {
        let ids = servers(loads.len());
        let ring = Ring::new(&ids, 64);
        let cur = cur % loads.len();
        let current = ids[cur];

        let mut placer =
            BoundedPlacer::new(&seeded(&ids, &loads), epsilon, 0.0, cap_floor);
        let over = placer.is_over_cap(current);
        let target = placer
            .rehome(&ring, ChannelId(channel), bytes, Some(current))
            .expect("non-empty pool always rehomes");
        if !over {
            prop_assert_eq!(target, current, "under-cap home was moved");
        } else {
            prop_assert!(placer.is_eligible(target));
        }

        // The same channel homed on a server outside the pool (rented
        // away or quarantined) must be re-placed on a live one.
        let ghost = ServerId::from_index(loads.len() + 3);
        let mut placer2 =
            BoundedPlacer::new(&seeded(&ids, &loads), epsilon, 0.0, cap_floor);
        let landed = placer2
            .rehome(&ring, ChannelId(channel), bytes, Some(ghost))
            .expect("non-empty pool always rehomes");
        prop_assert!(ids.contains(&landed), "rehome landed on the ghost");
    }

    /// Server-set change end to end: place a batch over `n` servers,
    /// then add one server and `rehome` every channel against the
    /// post-placement loads. Channels whose old home is still under the
    /// new cap stay put — the hysteresis that keeps a broker rent from
    /// cascading into mass migration.
    #[test]
    fn adding_a_server_moves_only_over_cap_channels(
        loads in prop::collection::vec(0.0f64..500.0, 2..7),
        epsilon in 0.1f64..1.0,
        channels in prop::collection::vec((any::<u64>(), 1.0f64..300.0), 1..32),
    ) {
        let ids = servers(loads.len());
        let ring = Ring::new(&ids, 64);
        let pending: f64 = channels.iter().map(|&(_, b)| b).sum();
        let mut placer =
            BoundedPlacer::new(&seeded(&ids, &loads), epsilon, pending, 0.0);
        let assigned: Vec<(u64, f64, ServerId)> = channels
            .iter()
            .map(|&(c, bytes)| {
                let s = placer.place(&ring, ChannelId(c), bytes, &[]).unwrap();
                (c, bytes, s)
            })
            .collect();
        let after: Vec<(ServerId, f64)> = placer.loads().collect();

        // Rent one more broker (measured load 0) and re-examine.
        let mut grown = ids.clone();
        grown.push(ServerId::from_index(loads.len()));
        let grown_ring = Ring::new(&grown, 64);
        let mut seeds = after;
        seeds.push((ServerId::from_index(loads.len()), 0.0));
        let mut replacer = BoundedPlacer::new(&seeds, epsilon, 0.0, 0.0);
        for &(c, bytes, home) in &assigned {
            let keeps = !replacer.is_over_cap(home);
            let target = replacer
                .rehome(&grown_ring, ChannelId(c), bytes, Some(home))
                .unwrap();
            if keeps {
                prop_assert_eq!(target, home, "under-cap channel migrated on growth");
            }
        }
    }
    /// The shared dead-server replan touches only the channels that
    /// resolve to the dead server; each of those lands on survivors.
    #[test]
    fn replan_moves_only_the_dead_servers_channels(
        n in 2usize..7,
        dead in 0usize..7,
        channels in arb_replan_channels(),
    ) {
        let (ring, plan, store, universe) = replan_cluster(n, &channels);
        let ids = servers(n);
        let dead = ids[dead % n];
        let survivors: Vec<ServerId> = ids.iter().copied().filter(|&s| s != dead).collect();
        let (after, _) =
            replan_dead(&plan, &ring, &store, universe.keys().copied(), dead, &survivors, &[]);
        for &c in universe.keys() {
            let old = plan.resolve(c, &ring);
            let new = after.resolve(c, &ring);
            if old.contains(dead) {
                prop_assert!(
                    new.servers().iter().all(|s| survivors.contains(s)),
                    "channel {c} left on {new:?}"
                );
            } else {
                prop_assert_eq!(old, new, "channel {} of a live server moved", c);
            }
        }
    }

    /// Replayed in the replan's own order (heaviest first, ties by id),
    /// every placement stays under the cap whenever some survivor had
    /// room for it.
    #[test]
    fn replan_respects_the_cap_whenever_feasible(
        n in 2usize..7,
        dead in 0usize..7,
        channels in arb_replan_channels(),
    ) {
        let (ring, plan, store, universe) = replan_cluster(n, &channels);
        let ids = servers(n);
        let dead = ids[dead % n];
        let survivors: Vec<ServerId> = ids.iter().copied().filter(|&s| s != dead).collect();
        let (after, placer) =
            replan_dead(&plan, &ring, &store, universe.keys().copied(), dead, &survivors, &[]);
        let cap = placer.cap_bytes();
        let mut loads: HashMap<ServerId, f64> = survivors
            .iter()
            .map(|&s| (s, store.egress_bytes_per_tick(s).unwrap_or(0.0)))
            .collect();
        let mut homeless: Vec<(ChannelId, f64)> = universe
            .iter()
            .filter(|&(&c, _)| plan.resolve(c, &ring).contains(dead))
            .map(|(&c, &b)| (c, b as f64))
            .collect();
        homeless.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        for (c, bytes) in homeless {
            let feasible = loads.values().any(|&p| p + bytes <= cap);
            let target = after.resolve(c, &ring).servers()[0];
            if feasible {
                prop_assert!(
                    loads[&target] + bytes <= cap + 1e-6,
                    "feasible replan blew the cap: {} + {} > {}",
                    loads[&target], bytes, cap
                );
            }
            *loads.get_mut(&target).expect("survivor") += bytes;
        }
    }
}
