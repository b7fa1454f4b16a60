//! Bounded-load channel placement — *Consistent Hashing with Bounded
//! Loads* (arXiv 1608.01350) over the Dynamoth fallback ring.
//!
//! Plain consistent hashing (§II-C of the paper) maps every channel a
//! plan does not mention to the first server clockwise from the
//! channel's hash point, regardless of load: a skewed channel-name
//! population piles unmapped load onto one broker until the reactive
//! balancer notices. The bounded-load rule fixes this with a *cap*: no
//! server may exceed `(1+ε)×` the mean load; a channel whose natural
//! owner is at the cap spills clockwise to the next server on the ring
//! walk. [`BoundedPlacer`] packages that rule so the balancer's
//! steady-state placement pass and the whole-broker emergency replan
//! run one implementation, and [`replan_dead`] is the dead-server
//! remap both the simulator's and the live balancer's failover call.
//!
//! Churn on server-set changes follows *Load Balancing with Dynamic Set
//! of Balls and Bins* (arXiv 2104.05093): [`BoundedPlacer::rehome`]
//! keeps a channel on its current server unless that server left the
//! eligible set or violates the cap, so renting or deallocating a
//! broker moves only the channels that must move.

use std::collections::HashMap;

use super::metrics::MetricsStore;
use crate::channel::Channel as ChannelId;
use crate::hashing::Ring;
use crate::ids::ServerId;
use crate::plan::{ChannelMapping, Plan};

/// ε of the bounded-load rule: a server is skipped (spilling the
/// channel to the next ring node) once its projected load would exceed
/// `(1+ε)×` the projected mean.
pub const EPSILON: f64 = 0.25;

/// A load-capped first-fit placer over a consistent-hashing ring.
///
/// Construction snapshots the eligible servers with their current loads
/// and fixes the cap; [`place`](Self::place) / [`rehome`](Self::rehome)
/// then assign channels one at a time, committing each channel's bytes
/// to the chosen server's projected load so later placements see the
/// earlier ones and the walk does not dogpile one server.
///
/// Placement is deterministic for a fixed (ring, load snapshot, ε,
/// channel sequence): every observer running the same inputs computes
/// the same homes.
///
/// # Examples
///
/// ```
/// use dynamoth_pubsub::{balance::bounded::BoundedPlacer, Channel, Ring, ServerId};
///
/// let s: Vec<ServerId> = (0..3).map(ServerId::from_index).collect();
/// let ring = Ring::new(&s, 64);
/// // No load anywhere: the walk degenerates to plain consistent
/// // hashing, which is exactly the deterministic cold-start choice.
/// let mut placer = BoundedPlacer::new(&s.iter().map(|&x| (x, 0.0)).collect::<Vec<_>>(), 0.25, 0.0, 0.0);
/// assert_eq!(placer.place(&ring, Channel(7), 0.0, &[]), Some(ring.server_for(Channel(7))));
/// ```
#[derive(Debug, Clone)]
pub struct BoundedPlacer {
    /// Projected load (bytes per tick) per eligible server; updated as
    /// channels are placed.
    projected: HashMap<ServerId, f64>,
    /// The bounded-load cap in bytes per tick: `(1+ε)×` the projected
    /// mean, floored (see [`Self::new`]). Infinite when nothing has been
    /// measured and no floor was given — an uncapped walk is plain
    /// consistent hashing.
    cap_bytes: f64,
}

impl BoundedPlacer {
    /// Creates a placer over `loads` — the eligible servers with their
    /// measured loads (bytes per tick) — with spill parameter `epsilon`.
    ///
    /// `pending_bytes` is load known to be incoming but not yet in any
    /// eligible server's measurement (e.g. a dead broker's channels
    /// awaiting reassignment); it raises the mean so the cap reflects
    /// the post-placement system.
    ///
    /// `cap_floor` keeps the cap non-degenerate: a cap far below what a
    /// server can actually carry would shuffle channels to smooth
    /// imbalances nobody can feel. When the total measured load is zero
    /// *and* no floor is given, the cap is infinite — a cold start must
    /// degenerate to the plain deterministic ring walk, not to the
    /// least-projected fallback (which is what a literal `(1+ε)×0/n = 0`
    /// cap used to cause).
    pub fn new(
        loads: &[(ServerId, f64)],
        epsilon: f64,
        pending_bytes: f64,
        cap_floor: f64,
    ) -> BoundedPlacer {
        let projected: HashMap<ServerId, f64> = loads
            .iter()
            .map(|&(s, b)| (s, if b.is_finite() { b.max(0.0) } else { 0.0 }))
            .collect();
        let total: f64 = projected.values().sum::<f64>() + pending_bytes.max(0.0);
        let n = projected.len().max(1) as f64;
        let floor = cap_floor.max(0.0);
        let cap_bytes = if total > 0.0 {
            ((1.0 + epsilon.max(0.0)) * total / n).max(floor)
        } else if floor > 0.0 {
            floor
        } else {
            f64::INFINITY
        };
        BoundedPlacer {
            projected,
            cap_bytes,
        }
    }

    /// The bounded-load cap in bytes per tick (infinite on an uncapped
    /// cold start).
    pub fn cap_bytes(&self) -> f64 {
        self.cap_bytes
    }

    /// `true` if `server` is in the eligible set.
    pub fn is_eligible(&self, server: ServerId) -> bool {
        self.projected.contains_key(&server)
    }

    /// `true` if `server`'s projected load strictly exceeds the cap.
    /// Ineligible servers are never "over" — they are simply not
    /// placement targets.
    pub fn is_over_cap(&self, server: ServerId) -> bool {
        self.projected
            .get(&server)
            .is_some_and(|&b| b > self.cap_bytes)
    }

    /// The projected load of `server`, if eligible.
    pub fn projected(&self, server: ServerId) -> Option<f64> {
        self.projected.get(&server).copied()
    }

    /// Iterates the eligible servers with their projected loads.
    pub fn loads(&self) -> impl Iterator<Item = (ServerId, f64)> + '_ {
        self.projected.iter().map(|(&s, &b)| (s, b))
    }

    /// Subtracts `bytes` from `server`'s projected load (saturating at
    /// zero); used when a channel is taken away from its current home
    /// before being re-placed.
    pub fn release(&mut self, server: ServerId, bytes: f64) {
        if let Some(b) = self.projected.get_mut(&server) {
            *b = (*b - bytes.max(0.0)).max(0.0);
        }
    }

    /// Assigns `channel` (carrying `bytes` per tick) to the first
    /// eligible server on its ring walk whose projected load stays
    /// within the cap, skipping servers in `exclude` (e.g. replica
    /// members the channel already occupies). When every eligible
    /// server is over the cap, falls back to the least projected one —
    /// the cap bounds imbalance, not admission — with ties broken by
    /// walk order, so the fallback is as deterministic as the walk.
    ///
    /// Commits `bytes` to the chosen server's projected load. Returns
    /// `None` only when no eligible server remains.
    pub fn place(
        &mut self,
        ring: &Ring,
        channel: ChannelId,
        bytes: f64,
        exclude: &[ServerId],
    ) -> Option<ServerId> {
        let bytes = if bytes.is_finite() {
            bytes.max(0.0)
        } else {
            0.0
        };
        let walk = ring.walk(channel);
        let eligible = |s: &ServerId| self.projected.contains_key(s) && !exclude.contains(s);
        let target = walk
            .iter()
            .copied()
            .filter(eligible)
            .find(|s| self.projected[s] + bytes <= self.cap_bytes)
            .or_else(|| {
                // `min_by` keeps the first minimum, i.e. the earliest
                // walk entry among equally loaded servers.
                walk.iter()
                    .copied()
                    .filter(eligible)
                    .min_by(|a, b| self.projected[a].total_cmp(&self.projected[b]))
            })?;
        *self.projected.get_mut(&target)? += bytes;
        Some(target)
    }

    /// Balls-and-bins hysteresis: keeps `channel` on `current` when that
    /// server is still eligible and within the cap (its measured load
    /// already contains the channel's bytes, so nothing is committed);
    /// otherwise releases the channel's share from `current` and places
    /// it afresh down the walk. Pass `current: None` for a channel with
    /// no usable home (e.g. one whose ring home is quarantined).
    ///
    /// Returns the server the channel should live on; a result equal to
    /// `current` means "do not move".
    pub fn rehome(
        &mut self,
        ring: &Ring,
        channel: ChannelId,
        bytes: f64,
        current: Option<ServerId>,
    ) -> Option<ServerId> {
        if let Some(cur) = current {
            if self.is_eligible(cur) && !self.is_over_cap(cur) {
                return Some(cur);
            }
            // Over the cap (or gone from the eligible set): this
            // channel's share leaves `cur`; if shedding it is enough to
            // bring `cur` under the cap and `cur` leads the walk, the
            // placement below may legitimately keep it there.
            self.release(cur, bytes);
        }
        self.place(ring, channel, bytes, &[])
    }
}

/// Reassigns every channel that resolves to the dead server `dead`
/// (resolution honours the earlier corpses in `prior`, which traffic
/// already routes around) onto `survivors`: heaviest first — first-fit
/// decreasing packs tightest under the cap, ties by id for determinism
/// — each through the [`BoundedPlacer`] walk. Surviving replica members
/// are kept; a replicated channel left with one member collapses to
/// `Single`.
///
/// Channel weights and survivor loads come from `store`, so call this
/// *before* forgetting the dead server's metrics: they are the only
/// estimate of what each of its channels carries. The dead load counts
/// as pending, so the cap reflects the post-failover system; with
/// nothing measured anywhere the placer runs uncapped and the walk is
/// plain consistent hashing.
///
/// Returns the candidate plan and the placer holding the projected
/// post-replan loads and the cap.
pub fn replan_dead(
    plan: &Plan,
    ring: &Ring,
    store: &MetricsStore,
    channels: impl IntoIterator<Item = ChannelId>,
    dead: ServerId,
    survivors: &[ServerId],
    prior: &[ServerId],
) -> (Plan, BoundedPlacer) {
    let mut homeless: Vec<(ChannelId, f64)> = channels
        .into_iter()
        .filter(|&id| {
            plan.resolve_excluding(id, ring, prior)
                .servers()
                .contains(&dead)
        })
        .map(|id| (id, store.channel_bytes_on(dead, id)))
        .collect();
    homeless.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));

    let loads: Vec<(ServerId, f64)> = survivors
        .iter()
        .map(|&s| (s, store.egress_bytes_per_tick(s).unwrap_or(0.0)))
        .collect();
    let pending: f64 = homeless.iter().map(|&(_, b)| b).sum();
    let mut placer = BoundedPlacer::new(&loads, EPSILON, pending, 0.0);

    let mut candidate = plan.clone();
    for &(id, bytes) in &homeless {
        let old = plan.resolve_excluding(id, ring, prior);
        let keep: Vec<ServerId> = old
            .servers()
            .iter()
            .copied()
            .filter(|&s| s != dead && placer.is_eligible(s))
            .collect();
        let mut members = keep.clone();
        if let Some(target) = placer.place(ring, id, bytes, &keep) {
            members.push(target);
        }
        let mapping = match (&old, members.len()) {
            (_, 0) => continue, // no survivors: nothing to place onto
            (ChannelMapping::AllSubscribers(_), n) if n >= 2 => {
                ChannelMapping::AllSubscribers(members)
            }
            (ChannelMapping::AllPublishers(_), n) if n >= 2 => {
                ChannelMapping::AllPublishers(members)
            }
            _ => ChannelMapping::Single(members[0]),
        };
        candidate.set(id, mapping);
    }
    (candidate, placer)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sid(i: usize) -> ServerId {
        ServerId::from_index(i)
    }

    fn servers(n: usize) -> Vec<ServerId> {
        (0..n).map(sid).collect()
    }

    fn flat(n: usize, load: f64) -> Vec<(ServerId, f64)> {
        (0..n).map(|i| (sid(i), load)).collect()
    }

    #[test]
    fn zero_total_is_uncapped_and_follows_the_ring() {
        // Regression (cold start): a literal (1+ε)×0/n cap of 0 bytes
        // used to send every channel to the least-projected fallback;
        // an uncapped walk must reproduce plain consistent hashing.
        let ss = servers(4);
        let ring = Ring::new(&ss, 64);
        let mut placer = BoundedPlacer::new(&flat(4, 0.0), 0.25, 0.0, 0.0);
        assert!(placer.cap_bytes().is_infinite());
        for c in 0..100 {
            let ch = ChannelId(c);
            assert_eq!(placer.place(&ring, ch, 0.0, &[]), Some(ring.server_for(ch)));
        }
    }

    #[test]
    fn cap_floor_keeps_small_loads_unmoved() {
        let ss = servers(3);
        let ring = Ring::new(&ss, 64);
        // Tiny skew, generous floor: the natural owner always fits.
        let loads = vec![(sid(0), 30.0), (sid(1), 1.0), (sid(2), 1.0)];
        let mut placer = BoundedPlacer::new(&loads, 0.25, 0.0, 1_000.0);
        assert_eq!(placer.cap_bytes(), 1_000.0);
        for c in 0..50 {
            let ch = ChannelId(c);
            assert_eq!(placer.place(&ring, ch, 5.0, &[]), Some(ring.server_for(ch)));
        }
    }

    #[test]
    fn overloaded_owner_spills_to_next_walk_entry() {
        let ss = servers(3);
        let ring = Ring::new(&ss, 64);
        let ch = ChannelId(42);
        let walk = ring.walk(ch);
        // The natural owner is far over the cap; the others are idle.
        let loads: Vec<(ServerId, f64)> = ss
            .iter()
            .map(|&s| (s, if s == walk[0] { 900.0 } else { 0.0 }))
            .collect();
        let mut placer = BoundedPlacer::new(&loads, 0.25, 0.0, 0.0);
        // cap = 1.25 × 900/3 = 375 < 900.
        assert_eq!(placer.place(&ring, ch, 10.0, &[]), Some(walk[1]));
    }

    #[test]
    fn all_over_cap_falls_back_to_least_projected() {
        let ss = servers(3);
        let ring = Ring::new(&ss, 64);
        let ch = ChannelId(7);
        let walk = ring.walk(ch);
        let loads: Vec<(ServerId, f64)> = walk
            .iter()
            .enumerate()
            .map(|(k, &s)| (s, 1_000.0 - 100.0 * k as f64))
            .collect();
        // Huge channel: nobody fits under the cap.
        let mut placer = BoundedPlacer::new(&loads, 0.0, 0.0, 0.0);
        let target = placer.place(&ring, ch, 1e9, &[]).unwrap();
        assert_eq!(target, walk[2], "least projected server must win");
    }

    #[test]
    fn exclusion_skips_replica_members() {
        let ss = servers(3);
        let ring = Ring::new(&ss, 64);
        let ch = ChannelId(3);
        let walk = ring.walk(ch);
        let mut placer = BoundedPlacer::new(&flat(3, 0.0), 0.25, 0.0, 0.0);
        assert_eq!(placer.place(&ring, ch, 0.0, &[walk[0]]), Some(walk[1]));
    }

    #[test]
    fn placement_commits_bytes_and_later_channels_see_them() {
        let ss = servers(2);
        let ring = Ring::new(&ss, 64);
        let ch = ChannelId(11);
        let walk = ring.walk(ch);
        let mut placer = BoundedPlacer::new(&flat(2, 100.0), 0.0, 600.0, 0.0);
        // cap = (100+100+600)/2 = 400.
        assert_eq!(placer.place(&ring, ch, 290.0, &[]), Some(walk[0]));
        assert!((placer.projected(walk[0]).unwrap() - 390.0).abs() < 1e-9);
        // The owner now sits at 390; another 290-byte channel with the
        // same owner must spill.
        let ch2 = (0..)
            .map(ChannelId)
            .find(|&c| ring.walk(c)[0] == walk[0] && c != ch)
            .unwrap();
        assert_eq!(
            placer.place(&ring, ch2, 290.0, &[]),
            Some(ring.walk(ch2)[1])
        );
    }

    #[test]
    fn rehome_keeps_current_under_cap() {
        let ss = servers(3);
        let ring = Ring::new(&ss, 64);
        let loads = vec![(sid(0), 100.0), (sid(1), 100.0), (sid(2), 100.0)];
        let mut placer = BoundedPlacer::new(&loads, 0.25, 0.0, 0.0);
        // Every server is at the mean; none over the cap: channels stay
        // wherever they are, even off their natural ring home.
        for c in 0..50 {
            let cur = sid(c as usize % 3);
            assert_eq!(
                placer.rehome(&ring, ChannelId(c), 10.0, Some(cur)),
                Some(cur)
            );
        }
    }

    #[test]
    fn rehome_moves_only_from_over_cap_or_ineligible_servers() {
        let ss = servers(3);
        let ring = Ring::new(&ss, 64);
        // Server 0 over the cap (cap = 1.25 × 1200/3 = 500).
        let loads = vec![(sid(0), 1_000.0), (sid(1), 100.0), (sid(2), 100.0)];
        let mut placer = BoundedPlacer::new(&loads, 0.25, 0.0, 0.0);
        assert!(placer.is_over_cap(sid(0)));
        let target = placer
            .rehome(&ring, ChannelId(1), 600.0, Some(sid(0)))
            .unwrap();
        assert_ne!(target, sid(0), "cap-violating home must shed the channel");
        // A channel on an under-cap server does not move. (The shed 600
        // bytes may have pushed its landing server over the cap, so pick
        // whichever of the two small servers is still calm.)
        let calm = [sid(1), sid(2)]
            .into_iter()
            .find(|&s| !placer.is_over_cap(s))
            .unwrap();
        assert_eq!(
            placer.rehome(&ring, ChannelId(2), 50.0, Some(calm)),
            Some(calm)
        );
        // A channel whose home is not eligible (e.g. quarantined) is
        // placed afresh on an eligible server.
        let fresh = placer
            .rehome(&ring, ChannelId(3), 10.0, Some(sid(9)))
            .unwrap();
        assert!(ss.contains(&fresh));
    }

    #[test]
    fn placement_is_deterministic() {
        let ss = servers(4);
        let ring = Ring::new(&ss, 64);
        let loads = vec![
            (sid(0), 700.0),
            (sid(1), 20.0),
            (sid(2), 350.0),
            (sid(3), 0.0),
        ];
        let run = || {
            let mut placer = BoundedPlacer::new(&loads, 0.25, 500.0, 0.0);
            (0..200)
                .map(|c| placer.place(&ring, ChannelId(c), (c % 17) as f64 * 13.0, &[]))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn no_eligible_server_returns_none() {
        let ss = servers(2);
        let ring = Ring::new(&ss, 64);
        let mut placer = BoundedPlacer::new(&[], 0.25, 0.0, 0.0);
        assert_eq!(placer.place(&ring, ChannelId(1), 1.0, &[]), None);
        let mut placer = BoundedPlacer::new(&[(sid(0), 0.0)], 0.25, 0.0, 0.0);
        assert_eq!(placer.place(&ring, ChannelId(1), 1.0, &[sid(0)]), None);
    }

    #[test]
    fn garbage_inputs_are_sanitized() {
        let ss = servers(2);
        let ring = Ring::new(&ss, 64);
        let loads = vec![(sid(0), f64::NAN), (sid(1), -50.0)];
        let mut placer = BoundedPlacer::new(&loads, -3.0, f64::NEG_INFINITY, -1.0);
        // All garbage collapses to the uncapped cold start.
        assert!(placer.cap_bytes().is_infinite());
        let ch = ChannelId(5);
        assert_eq!(
            placer.place(&ring, ch, f64::NAN, &[]),
            Some(ring.server_for(ch))
        );
        placer.release(sid(0), 1e9);
        assert_eq!(placer.projected(sid(0)), Some(0.0));
    }
}
