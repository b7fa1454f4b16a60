//! The Dynamoth client library (§II-A, §II-C, §IV).
//!
//! [`DynamothClient`] exposes the standard pub/sub API (`subscribe`,
//! `unsubscribe`, `publish`) and hides all middleware mechanics:
//!
//! * a **local plan** `P(C)` containing only the channels the client
//!   actually uses, updated lazily from server notifications
//!   ([`Msg::WrongServer`], [`Msg::SubscriptionMoved`], [`Msg::Switch`]);
//! * **consistent hashing fallback** for channels with no plan entry;
//! * **replication awareness** — publications and subscriptions are
//!   routed per the channel's [`ChannelMapping`];
//! * **duplicate suppression** with globally unique message ids, needed
//!   because a subscriber may briefly be subscribed on both the old and
//!   the new server during reconfiguration;
//! * **plan-entry timers**: entries unused for `plan_entry_ttl` are
//!   dropped, so a later use falls back to consistent hashing, exactly
//!   mirroring the dispatcher-side forwarding timeout (§IV-A5).
//!
//! The struct is transport-agnostic: every method returns the list of
//! `(destination, message)` pairs to put on the wire, which the embedding
//! actor sends. This makes the protocol logic directly unit-testable.

use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

use dynamoth_pubsub::Dedup;
#[cfg(test)]
use dynamoth_sim::SimDuration;
use dynamoth_sim::{NodeId, SimRng, SimTime};

use crate::config::DynamothConfig;
use crate::hashing::Ring;
use crate::message::{Msg, Publication};
use crate::plan::ChannelMapping;
use crate::types::{ChannelId, MessageId, PlanId, ServerId};

/// An application-visible event produced by the client library.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientEvent {
    /// A (non-duplicate) publication was delivered.
    Delivery(Publication),
    /// A server killed our connection (output-buffer overflow); the
    /// listed subscriptions were lost and are *not* automatically
    /// restored.
    SubscriptionsLost {
        /// The server that dropped us.
        server: ServerId,
        /// Channels whose subscriptions were lost on that server.
        channels: Vec<ChannelId>,
    },
}

/// Counters describing the client's protocol activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClientStats {
    /// Publications delivered to the application.
    pub deliveries: u64,
    /// `DeliverBatch` wire messages unpacked (each carries ≥ 2
    /// publications; singletons arrive as plain `Deliver`).
    pub batches_received: u64,
    /// Duplicate deliveries suppressed.
    pub duplicates_suppressed: u64,
    /// `WrongServer` notices received.
    pub wrong_server_notices: u64,
    /// `Switch` / `SubscriptionMoved` notifications acted upon.
    pub subscription_moves: u64,
    /// Publications sent (counting one per publish call, not per
    /// replica).
    pub publishes: u64,
}

#[derive(Debug, Clone)]
struct PlanEntry {
    mapping: ChannelMapping,
    last_used: SimTime,
    /// Plan version the mapping was learned under; stamped onto
    /// publications and subscriptions so dispatchers can detect
    /// outdated entries.
    version: PlanId,
}

/// The client-side middleware state machine.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use dynamoth_core::{ChannelId, DynamothClient, DynamothConfig, Ring, ServerId};
/// use dynamoth_sim::{NodeId, SimRng, SimTime};
///
/// let ring = Arc::new(Ring::new(&[ServerId(NodeId::from_index(0))], 16));
/// let mut client = DynamothClient::new(
///     NodeId::from_index(5),
///     ring,
///     Arc::new(DynamothConfig::default()),
/// );
/// let mut rng = SimRng::new(1);
/// let out = client.subscribe(SimTime::ZERO, &mut rng, ChannelId(1));
/// assert_eq!(out.len(), 1); // one Subscribe to the hash-determined server
/// ```
#[derive(Debug)]
pub struct DynamothClient {
    node: NodeId,
    ring: Arc<Ring>,
    cfg: Arc<DynamothConfig>,
    plan: HashMap<ChannelId, PlanEntry>,
    subs: HashMap<ChannelId, BTreeSet<ServerId>>,
    /// Old subscriptions kept alive for a grace period after a move so
    /// no publication is lost while the new subscription is in flight.
    deferred_unsubs: Vec<(SimTime, ServerId, ChannelId)>,
    /// Last instant each subscribed server was heard from (deliveries,
    /// pongs, corrections); drives the reliability extension's
    /// client-side failover.
    last_heard: HashMap<ServerId, SimTime>,
    /// Last instant we pinged each server.
    last_ping: HashMap<ServerId, SimTime>,
    /// Servers declared dead, routed around until the blacklist expires.
    dead_servers: HashMap<ServerId, SimTime>,
    /// Servers we recently published to (publishers get no deliveries,
    /// so liveness must watch these explicitly).
    last_published: HashMap<ServerId, SimTime>,
    dedup: Dedup<MessageId>,
    next_seq: u64,
    stats: ClientStats,
}

impl DynamothClient {
    /// Creates a client for the node `node`, given the bootstrap
    /// consistent-hashing ring and the middleware configuration.
    pub fn new(node: NodeId, ring: Arc<Ring>, cfg: Arc<DynamothConfig>) -> Self {
        DynamothClient {
            node,
            ring,
            cfg,
            plan: HashMap::new(),
            subs: HashMap::new(),
            deferred_unsubs: Vec::new(),
            last_heard: HashMap::new(),
            last_ping: HashMap::new(),
            dead_servers: HashMap::new(),
            last_published: HashMap::new(),
            dedup: Dedup::default(),
            next_seq: 0,
            stats: ClientStats::default(),
        }
    }

    /// The node this client runs on.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The middleware configuration this client was built with.
    pub fn config(&self) -> &DynamothConfig {
        &self.cfg
    }

    /// Protocol counters.
    pub fn stats(&self) -> ClientStats {
        self.stats
    }

    /// Channels the client currently wants to be subscribed to.
    pub fn subscriptions(&self) -> impl Iterator<Item = ChannelId> + '_ {
        self.subs.keys().copied()
    }

    /// `true` if the client holds a subscription to `channel`.
    pub fn is_subscribed(&self, channel: ChannelId) -> bool {
        self.subs.contains_key(&channel)
    }

    /// The servers currently holding our subscription to `channel`.
    pub fn subscription_servers(&self, channel: ChannelId) -> Vec<ServerId> {
        self.subs
            .get(&channel)
            .map(|s| s.iter().copied().collect())
            .unwrap_or_default()
    }

    /// Number of local-plan entries (should stay small: only channels
    /// the client uses, §II-C).
    pub fn plan_len(&self) -> usize {
        self.plan.len()
    }

    fn resolve(&self, channel: ChannelId) -> (ChannelMapping, PlanId) {
        if let Some(e) = self.plan.get(&channel) {
            // Route around blacklisted servers: keep the live members of
            // a replicated mapping, otherwise fall back to the ring.
            let live: Vec<ServerId> = e
                .mapping
                .servers()
                .iter()
                .copied()
                .filter(|s| !self.dead_servers.contains_key(s))
                .collect();
            if live.len() == e.mapping.replication_factor() {
                return (e.mapping.clone(), e.version);
            }
            match (&e.mapping, live.len()) {
                (_, 0) => {} // fall through to the ring
                (ChannelMapping::Single(_), _) => unreachable!("live ⊆ {{single}}"),
                (ChannelMapping::AllSubscribers(_), 1) | (ChannelMapping::AllPublishers(_), 1) => {
                    return (ChannelMapping::Single(live[0]), e.version)
                }
                (ChannelMapping::AllSubscribers(_), _) => {
                    return (ChannelMapping::AllSubscribers(live), e.version)
                }
                (ChannelMapping::AllPublishers(_), _) => {
                    return (ChannelMapping::AllPublishers(live), e.version)
                }
            }
        }
        let dead: Vec<ServerId> = self.dead_servers.keys().copied().collect();
        let home = self
            .ring
            .server_for_excluding(channel, &dead)
            .unwrap_or_else(|| self.ring.server_for(channel));
        (ChannelMapping::Single(home), PlanId(0))
    }

    fn touch(&mut self, now: SimTime, channel: ChannelId) {
        if let Some(e) = self.plan.get_mut(&channel) {
            e.last_used = now;
        }
    }

    /// Records a server-provided mapping. Returns `None` for notices
    /// older than what we already know (stale corrections can race
    /// switches), `Some(true)` when the notice carries *new* information
    /// (version advanced) and `Some(false)` for a same-version
    /// duplicate.
    fn learn(
        &mut self,
        now: SimTime,
        channel: ChannelId,
        mapping: ChannelMapping,
        version: PlanId,
    ) -> Option<bool> {
        let advanced = match self.plan.get(&channel) {
            Some(existing) if version < existing.version => return None,
            Some(existing) => version > existing.version,
            None => true,
        };
        self.plan.insert(
            channel,
            PlanEntry {
                mapping,
                last_used: now,
                version,
            },
        );
        Some(advanced)
    }

    /// Subscribes to `channel`, returning the wire messages to send.
    pub fn subscribe(
        &mut self,
        now: SimTime,
        rng: &mut SimRng,
        channel: ChannelId,
    ) -> Vec<(NodeId, Msg)> {
        let (mapping, plan_hint) = self.resolve(channel);
        self.touch(now, channel);
        let targets = mapping.subscribe_targets(rng);
        let current = self.subs.entry(channel).or_default();
        let mut out = Vec::new();
        for s in targets {
            if current.insert(s) {
                out.push((s.node(), Msg::Subscribe { channel, plan_hint }));
            }
        }
        for (to, _) in &out {
            self.last_heard.entry(ServerId(*to)).or_insert(now);
        }
        out
    }

    /// Unsubscribes from `channel` on every server holding the
    /// subscription, including servers still in their post-move grace
    /// period.
    pub fn unsubscribe(&mut self, _now: SimTime, channel: ChannelId) -> Vec<(NodeId, Msg)> {
        let mut servers: BTreeSet<ServerId> = self.subs.remove(&channel).unwrap_or_default();
        self.deferred_unsubs.retain(|&(_, s, c)| {
            if c == channel {
                servers.insert(s);
                false
            } else {
                true
            }
        });
        servers
            .into_iter()
            .map(|s| (s.node(), Msg::Unsubscribe { channel }))
            .collect()
    }

    /// Emits the unsubscribes whose grace period has elapsed. Actors
    /// should call this from periodic timers (the client library also
    /// polls it on every incoming message).
    pub fn poll_deferred(&mut self, now: SimTime) -> Vec<(NodeId, Msg)> {
        let mut out = Vec::new();
        let subs = &self.subs;
        self.deferred_unsubs.retain(|&(due, server, channel)| {
            if subs.get(&channel).is_some_and(|set| set.contains(&server)) {
                return false; // re-desired in the meantime: keep it
            }
            if due <= now {
                out.push((server.node(), Msg::Unsubscribe { channel }));
                false
            } else {
                true
            }
        });
        out
    }

    /// Publishes `payload` bytes on `channel`. Returns the message id
    /// (for correlating the echo) and the wire messages — one per target
    /// server as dictated by the channel's replication mode.
    pub fn publish(
        &mut self,
        now: SimTime,
        rng: &mut SimRng,
        channel: ChannelId,
        payload: u32,
    ) -> (MessageId, Vec<(NodeId, Msg)>) {
        let id = MessageId {
            origin: self.node,
            seq: self.next_seq,
        };
        self.next_seq += 1;
        self.stats.publishes += 1;
        let (mapping, plan_hint) = self.resolve(channel);
        self.touch(now, channel);
        let publication = Publication {
            channel,
            id,
            payload,
            sent_at: now,
            publisher: self.node,
            hops: 0,
        };
        let out: Vec<(NodeId, Msg)> = mapping
            .publish_targets(rng)
            .into_iter()
            .map(|s| {
                (
                    s.node(),
                    Msg::Publish {
                        publication,
                        plan_hint,
                    },
                )
            })
            .collect();
        for (to, _) in &out {
            let server = ServerId(*to);
            self.last_published.insert(server, now);
            self.last_heard.entry(server).or_insert(now);
        }
        (id, out)
    }

    /// Processes an incoming message from server node `from`; returns
    /// application events and any wire messages triggered (subscription
    /// moves).
    pub fn on_message(
        &mut self,
        now: SimTime,
        rng: &mut SimRng,
        from: NodeId,
        msg: Msg,
    ) -> (Vec<ClientEvent>, Vec<(NodeId, Msg)>) {
        self.last_heard.insert(ServerId(from), now);
        let mut events = Vec::new();
        let mut out = self.poll_deferred(now);
        match msg {
            Msg::Deliver(p) => {
                self.touch(now, p.channel);
                if self.dedup.insert(p.id, self.cfg.dedup_capacity) {
                    self.stats.deliveries += 1;
                    events.push(ClientEvent::Delivery(p));
                } else {
                    self.stats.duplicates_suppressed += 1;
                }
            }
            // A batch is unpacked entry by entry through the same dedup
            // window as single deliveries, so duplicate suppression
            // during reconfiguration behaves identically whether the
            // server batched or not. Each entry keeps its own `sent_at`,
            // so per-publication latency accounting is unaffected.
            Msg::DeliverBatch(batch) => {
                self.stats.batches_received += 1;
                for p in batch {
                    self.touch(now, p.channel);
                    if self.dedup.insert(p.id, self.cfg.dedup_capacity) {
                        self.stats.deliveries += 1;
                        events.push(ClientEvent::Delivery(p));
                    } else {
                        self.stats.duplicates_suppressed += 1;
                    }
                }
            }
            Msg::WrongServer {
                channel,
                mapping,
                plan,
            } => {
                self.stats.wrong_server_notices += 1;
                // A publisher that is also subscribed must keep its
                // subscription consistent with the new mapping too.
                if let Some(advanced) = self.learn(now, channel, mapping.clone(), plan) {
                    out.extend(self.retarget_subscription(now, rng, channel, &mapping, advanced));
                }
            }
            Msg::SubscriptionMoved {
                channel,
                mapping,
                plan,
            }
            | Msg::Switch {
                channel,
                mapping,
                plan,
            } => {
                self.stats.subscription_moves += 1;
                if let Some(advanced) = self.learn(now, channel, mapping.clone(), plan) {
                    out.extend(self.retarget_subscription(now, rng, channel, &mapping, advanced));
                }
            }
            Msg::Disconnected { channels } => {
                let server = ServerId(from);
                let mut lost = Vec::new();
                for ch in channels {
                    if let Some(set) = self.subs.get_mut(&ch) {
                        if set.remove(&server) {
                            lost.push(ch);
                        }
                        if set.is_empty() {
                            self.subs.remove(&ch);
                        }
                    }
                }
                if !lost.is_empty() {
                    events.push(ClientEvent::SubscriptionsLost {
                        server,
                        channels: lost,
                    });
                }
            }
            // Clients ignore infrastructure-plane traffic.
            _ => {}
        }
        (events, out)
    }

    /// Moves our subscription to `channel` onto the servers dictated by
    /// `mapping`: subscribe to missing targets first, then unsubscribe
    /// from servers no longer used (§IV-A4).
    ///
    /// When `rebalance` is `false` (a same-version duplicate notice),
    /// a subscription that already satisfies the mapping is left alone;
    /// when it is `true` (the mapping really changed) the target servers
    /// are re-drawn so that the subscriber population spreads over the
    /// new member set.
    fn retarget_subscription(
        &mut self,
        _now: SimTime,
        rng: &mut SimRng,
        channel: ChannelId,
        mapping: &ChannelMapping,
        rebalance: bool,
    ) -> Vec<(NodeId, Msg)> {
        let Some(current) = self.subs.get(&channel).cloned() else {
            return Vec::new(); // not subscribed: nothing to move
        };
        if !rebalance {
            // Idempotence: duplicate notices must not cause a random
            // re-roll and churn.
            let satisfied = match mapping {
                ChannelMapping::Single(s) => current.len() == 1 && current.contains(s),
                ChannelMapping::AllSubscribers(v) => {
                    current.len() == v.len() && v.iter().all(|s| current.contains(s))
                }
                ChannelMapping::AllPublishers(v) => {
                    current.len() == 1 && current.iter().all(|s| v.contains(s))
                }
            };
            if satisfied {
                return Vec::new();
            }
        }
        let desired: BTreeSet<ServerId> = mapping.subscribe_targets(rng).into_iter().collect();
        let plan_hint = self
            .plan
            .get(&channel)
            .map(|e| e.version)
            .unwrap_or(PlanId(0));
        let mut out = Vec::new();
        for &s in desired.difference(&current) {
            out.push((s.node(), Msg::Subscribe { channel, plan_hint }));
        }
        // Old servers are released only after the grace period so the
        // new subscription is live before the old one dies; duplicate
        // deliveries in the overlap are suppressed by message ids.
        let due = _now + self.cfg.unsubscribe_grace;
        for &s in current.difference(&desired) {
            if !self
                .deferred_unsubs
                .iter()
                .any(|&(_, ds, dc)| ds == s && dc == channel)
            {
                self.deferred_unsubs.push((due, s, channel));
            }
        }
        self.subs.insert(channel, desired);
        out
    }

    /// Liveness maintenance for the reliability extension: pings the
    /// servers holding our subscriptions, and fails over subscriptions
    /// held on servers that have been silent past the failover timeout —
    /// the plan entries of affected channels are dropped so resolution
    /// falls back to consistent hashing, whose home dispatcher redirects
    /// us to the failover plan. Call from a periodic timer.
    pub fn liveness_actions(&mut self, now: SimTime, rng: &mut SimRng) -> Vec<(NodeId, Msg)> {
        let mut out = self.poll_deferred(now);
        if !self.cfg.fault_tolerance {
            return out;
        }
        self.dead_servers.retain(|_, &mut until| now < until);
        // Monitor servers holding our subscriptions plus servers we
        // published to recently (fire-and-forget publishers otherwise
        // never notice a dead broker).
        let publish_window = self.cfg.client_failover_timeout * 2;
        self.last_published
            .retain(|_, &mut at| now.saturating_since(at) <= publish_window);
        let mut subscribed: BTreeSet<ServerId> = self.subs.values().flatten().copied().collect();
        subscribed.extend(self.last_published.keys().copied());
        let mut dead: Vec<ServerId> = Vec::new();
        for &server in &subscribed {
            let heard = *self.last_heard.entry(server).or_insert(now);
            let silent = now.saturating_since(heard);
            if silent > self.cfg.client_failover_timeout {
                dead.push(server);
            } else if silent >= self.cfg.client_ping_interval {
                let pinged = self
                    .last_ping
                    .get(&server)
                    .copied()
                    .unwrap_or(SimTime::ZERO);
                if now.saturating_since(pinged) >= self.cfg.client_ping_interval {
                    self.last_ping.insert(server, now);
                    out.push((server.node(), Msg::Ping));
                }
            }
        }
        for server in dead {
            self.last_heard.remove(&server);
            self.last_ping.remove(&server);
            self.last_published.remove(&server);
            self.dead_servers
                .insert(server, now + self.cfg.dead_server_blacklist);
            // Forget every plan entry involving the dead server so the
            // next use re-resolves around it.
            self.plan.retain(|_, e| !e.mapping.contains(server));
            let affected: Vec<ChannelId> = self
                .subs
                .iter()
                .filter(|(_, servers)| servers.contains(&server))
                .map(|(&c, _)| c)
                .collect();
            for channel in affected {
                // Drop the dead subscription and re-subscribe from
                // scratch through the (blacklist-aware) resolution.
                if let Some(set) = self.subs.get_mut(&channel) {
                    set.remove(&server);
                }
                self.deferred_unsubs
                    .retain(|&(_, s, c)| !(s == server && c == channel));
                out.extend(self.subscribe(now, rng, channel));
            }
        }
        out
    }

    /// Drops plan entries that have not been used for
    /// `plan_entry_ttl` and that the client is not subscribed to
    /// (§IV-A5). Call periodically.
    pub fn expire_plan_entries(&mut self, now: SimTime) {
        let ttl = self.cfg.plan_entry_ttl;
        let subs = &self.subs;
        self.plan
            .retain(|c, e| subs.contains_key(c) || now.saturating_since(e.last_used) < ttl);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sid(i: usize) -> ServerId {
        ServerId(NodeId::from_index(i))
    }

    fn setup(n_servers: usize) -> (DynamothClient, SimRng, Arc<Ring>) {
        let servers: Vec<ServerId> = (0..n_servers).map(sid).collect();
        let ring = Arc::new(Ring::new(&servers, 32));
        let client = DynamothClient::new(
            NodeId::from_index(100),
            Arc::clone(&ring),
            Arc::new(DynamothConfig {
                // The liveness/failover unit tests exercise the
                // reliability extension.
                fault_tolerance: true,
                ..Default::default()
            }),
        );
        (client, SimRng::new(9), ring)
    }

    fn publication(ch: u64, seq: u64) -> Publication {
        Publication {
            channel: ChannelId(ch),
            id: MessageId {
                origin: NodeId::from_index(7),
                seq,
            },
            payload: 100,
            sent_at: SimTime::ZERO,
            publisher: NodeId::from_index(7),
            hops: 0,
        }
    }

    #[test]
    fn subscribe_uses_consistent_hashing_without_plan() {
        let (mut client, mut rng, ring) = setup(4);
        let out = client.subscribe(SimTime::ZERO, &mut rng, ChannelId(3));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, ring.server_for(ChannelId(3)).node());
        assert!(matches!(
            out[0].1,
            Msg::Subscribe {
                channel: ChannelId(3),
                ..
            }
        ));
        assert!(client.is_subscribed(ChannelId(3)));
    }

    #[test]
    fn duplicate_subscribe_sends_nothing() {
        let (mut client, mut rng, _) = setup(2);
        let first = client.subscribe(SimTime::ZERO, &mut rng, ChannelId(1));
        assert_eq!(first.len(), 1);
        let second = client.subscribe(SimTime::ZERO, &mut rng, ChannelId(1));
        assert!(second.is_empty());
    }

    #[test]
    fn publish_goes_to_hash_server_then_learned_server() {
        let (mut client, mut rng, ring) = setup(4);
        let (_, out) = client.publish(SimTime::ZERO, &mut rng, ChannelId(5), 200);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, ring.server_for(ChannelId(5)).node());

        // Server corrects us.
        let (_, _) = client.on_message(
            SimTime::from_secs(1),
            &mut rng,
            out[0].0,
            Msg::WrongServer {
                channel: ChannelId(5),
                mapping: ChannelMapping::Single(sid(2)),
                plan: PlanId(1),
            },
        );
        let (_, out2) = client.publish(SimTime::from_secs(1), &mut rng, ChannelId(5), 200);
        assert_eq!(out2[0].0, sid(2).node());
        assert_eq!(client.stats().wrong_server_notices, 1);
    }

    #[test]
    fn publish_to_all_publishers_channel_hits_every_replica() {
        let (mut client, mut rng, _) = setup(4);
        client.learn(
            SimTime::ZERO,
            ChannelId(1),
            ChannelMapping::AllPublishers(vec![sid(0), sid(1), sid(2)]),
            PlanId(1),
        );
        let (_, out) = client.publish(SimTime::ZERO, &mut rng, ChannelId(1), 10);
        let mut targets: Vec<NodeId> = out.iter().map(|(n, _)| *n).collect();
        targets.sort();
        assert_eq!(targets, vec![sid(0).node(), sid(1).node(), sid(2).node()]);
    }

    #[test]
    fn subscribe_to_all_subscribers_channel_hits_every_replica() {
        let (mut client, mut rng, _) = setup(4);
        client.learn(
            SimTime::ZERO,
            ChannelId(1),
            ChannelMapping::AllSubscribers(vec![sid(0), sid(1)]),
            PlanId(1),
        );
        let out = client.subscribe(SimTime::ZERO, &mut rng, ChannelId(1));
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn deliveries_are_deduplicated() {
        let (mut client, mut rng, _) = setup(2);
        let p = publication(1, 0);
        let (ev1, _) = client.on_message(SimTime::ZERO, &mut rng, sid(0).node(), Msg::Deliver(p));
        assert_eq!(ev1, vec![ClientEvent::Delivery(p)]);
        let (ev2, _) = client.on_message(SimTime::ZERO, &mut rng, sid(1).node(), Msg::Deliver(p));
        assert!(ev2.is_empty());
        assert_eq!(client.stats().duplicates_suppressed, 1);
        // A different message passes.
        let p2 = publication(1, 1);
        let (ev3, _) = client.on_message(SimTime::ZERO, &mut rng, sid(0).node(), Msg::Deliver(p2));
        assert_eq!(ev3.len(), 1);
    }

    #[test]
    fn dedup_window_is_bounded() {
        let (mut client, mut rng, _) = setup(1);
        let cap = client.cfg.dedup_capacity;
        for seq in 0..(cap as u64 + 10) {
            let p = publication(1, seq);
            client.on_message(SimTime::ZERO, &mut rng, sid(0).node(), Msg::Deliver(p));
        }
        assert!(client.dedup.len() <= cap);
    }

    #[test]
    fn batch_unpacks_through_the_dedup_window() {
        let (mut client, mut rng, _) = setup(2);
        let a = publication(1, 0);
        let b = publication(1, 1);
        let c = publication(1, 2);
        // `a` already arrived singly (say, from the old server before a
        // migration); the batch re-delivers it plus two fresh entries.
        client.on_message(SimTime::ZERO, &mut rng, sid(0).node(), Msg::Deliver(a));
        let (events, _) = client.on_message(
            SimTime::ZERO,
            &mut rng,
            sid(1).node(),
            Msg::DeliverBatch(vec![a, b, c]),
        );
        assert_eq!(
            events,
            vec![ClientEvent::Delivery(b), ClientEvent::Delivery(c)]
        );
        assert_eq!(client.stats().duplicates_suppressed, 1);
        assert_eq!(client.stats().batches_received, 1);
        assert_eq!(client.stats().deliveries, 3);
        // A second copy of the whole batch is fully suppressed.
        let (events, _) = client.on_message(
            SimTime::ZERO,
            &mut rng,
            sid(0).node(),
            Msg::DeliverBatch(vec![a, b, c]),
        );
        assert!(events.is_empty());
        assert_eq!(client.stats().duplicates_suppressed, 4);
    }

    #[test]
    fn batch_entries_keep_their_own_sent_at() {
        let (mut client, mut rng, _) = setup(1);
        let mut early = publication(1, 0);
        early.sent_at = SimTime::from_millis(10);
        let mut late = publication(1, 1);
        late.sent_at = SimTime::from_millis(25);
        let (events, _) = client.on_message(
            SimTime::from_millis(40),
            &mut rng,
            sid(0).node(),
            Msg::DeliverBatch(vec![early, late]),
        );
        // Latency accounting reads `sent_at` per publication; batching
        // must not collapse entries onto the batch's arrival metadata.
        match &events[..] {
            [ClientEvent::Delivery(p0), ClientEvent::Delivery(p1)] => {
                assert_eq!(p0.sent_at, SimTime::from_millis(10));
                assert_eq!(p1.sent_at, SimTime::from_millis(25));
            }
            other => panic!("unexpected events: {other:?}"),
        }
    }

    #[test]
    fn switch_moves_subscription() {
        let (mut client, mut rng, ring) = setup(4);
        client.subscribe(SimTime::ZERO, &mut rng, ChannelId(2));
        let old = ring.server_for(ChannelId(2));
        let new_mapping = ChannelMapping::Single(sid((old.0.index() + 1) % 4));
        let (_, out) = client.on_message(
            SimTime::from_secs(1),
            &mut rng,
            old.node(),
            Msg::Switch {
                channel: ChannelId(2),
                mapping: new_mapping.clone(),
                plan: PlanId(1),
            },
        );
        // Subscribe to the new server immediately; the unsubscribe from
        // the old server is deferred by the grace period so no message
        // is lost while the new subscription is in flight.
        assert_eq!(out.len(), 1);
        assert!(out
            .iter()
            .any(|(n, m)| *n == new_mapping.servers()[0].node()
                && matches!(m, Msg::Subscribe { .. })));
        assert_eq!(
            client.subscription_servers(ChannelId(2)),
            new_mapping.servers()
        );
        // Before the grace period: nothing. After: the unsubscribe.
        assert!(client.poll_deferred(SimTime::from_secs(1)).is_empty());
        let grace = DynamothConfig::default().unsubscribe_grace;
        let later = SimTime::from_secs(1) + grace + SimDuration::from_millis(1);
        let deferred = client.poll_deferred(later);
        assert_eq!(deferred.len(), 1);
        assert!(
            matches!(deferred[0], (n, Msg::Unsubscribe { .. }) if n == old.node()),
            "{deferred:?}"
        );
        // Polling again yields nothing.
        assert!(client.poll_deferred(later).is_empty());
    }

    #[test]
    fn switch_without_subscription_only_updates_plan() {
        let (mut client, mut rng, _) = setup(2);
        let (_, out) = client.on_message(
            SimTime::ZERO,
            &mut rng,
            sid(0).node(),
            Msg::Switch {
                channel: ChannelId(9),
                mapping: ChannelMapping::Single(sid(1)),
                plan: PlanId(1),
            },
        );
        assert!(out.is_empty());
        assert_eq!(client.plan_len(), 1);
    }

    #[test]
    fn all_publishers_switch_rerolls_but_duplicates_are_idempotent() {
        let (mut client, mut rng, _) = setup(4);
        client.learn(
            SimTime::ZERO,
            ChannelId(1),
            ChannelMapping::Single(sid(0)),
            PlanId(1),
        );
        client.subscribe(SimTime::ZERO, &mut rng, ChannelId(1));
        // Channel becomes all-publishers over {s0, s1}: the subscriber
        // re-draws its target among the members (spreading the
        // population), ending on exactly one member.
        let mapping = ChannelMapping::AllPublishers(vec![sid(0), sid(1)]);
        let (_, _out) = client.on_message(
            SimTime::ZERO,
            &mut rng,
            sid(0).node(),
            Msg::Switch {
                channel: ChannelId(1),
                mapping: mapping.clone(),
                plan: PlanId(2),
            },
        );
        let servers = client.subscription_servers(ChannelId(1));
        assert_eq!(servers.len(), 1);
        assert!(mapping.contains(servers[0]));
        // A duplicate notice of the same version changes nothing.
        let (_, out2) = client.on_message(
            SimTime::ZERO,
            &mut rng,
            sid(1).node(),
            Msg::Switch {
                channel: ChannelId(1),
                mapping: mapping.clone(),
                plan: PlanId(2),
            },
        );
        assert!(out2.is_empty(), "{out2:?}");
        assert_eq!(client.subscription_servers(ChannelId(1)), servers);
    }

    #[test]
    fn disconnect_drops_subscriptions_and_reports() {
        let (mut client, mut rng, ring) = setup(2);
        client.subscribe(SimTime::ZERO, &mut rng, ChannelId(1));
        let server = ring.server_for(ChannelId(1));
        let (events, _) = client.on_message(
            SimTime::ZERO,
            &mut rng,
            server.node(),
            Msg::Disconnected {
                channels: vec![ChannelId(1)],
            },
        );
        assert_eq!(
            events,
            vec![ClientEvent::SubscriptionsLost {
                server,
                channels: vec![ChannelId(1)]
            }]
        );
        assert!(!client.is_subscribed(ChannelId(1)));
    }

    #[test]
    fn plan_entries_expire_when_unused_and_unsubscribed() {
        let (mut client, mut rng, _) = setup(2);
        client.learn(
            SimTime::ZERO,
            ChannelId(1),
            ChannelMapping::Single(sid(1)),
            PlanId(1),
        );
        client.learn(
            SimTime::ZERO,
            ChannelId(2),
            ChannelMapping::Single(sid(1)),
            PlanId(1),
        );
        client.subscribe(SimTime::ZERO, &mut rng, ChannelId(2));
        let late = SimTime::ZERO + DynamothConfig::default().plan_entry_ttl * 2;
        client.expire_plan_entries(late);
        // Entry 1 expired; entry 2 kept (still subscribed).
        assert_eq!(client.plan_len(), 1);
        assert!(client.plan.contains_key(&ChannelId(2)));
    }

    #[test]
    fn unsubscribe_clears_state() {
        let (mut client, mut rng, _) = setup(2);
        client.subscribe(SimTime::ZERO, &mut rng, ChannelId(1));
        let out = client.unsubscribe(SimTime::ZERO, ChannelId(1));
        assert_eq!(out.len(), 1);
        assert!(matches!(out[0].1, Msg::Unsubscribe { .. }));
        assert!(!client.is_subscribed(ChannelId(1)));
        assert!(client.unsubscribe(SimTime::ZERO, ChannelId(1)).is_empty());
    }

    #[test]
    fn liveness_pings_subscribed_and_published_servers() {
        let (mut client, mut rng, ring) = setup(4);
        client.subscribe(SimTime::ZERO, &mut rng, ChannelId(1));
        client.publish(SimTime::ZERO, &mut rng, ChannelId(2), 10);
        let sub_server = ring.server_for(ChannelId(1));
        let pub_server = ring.server_for(ChannelId(2));
        // Before the ping interval: silence.
        assert!(client
            .liveness_actions(SimTime::from_millis(500), &mut rng)
            .is_empty());
        // After it: one ping per monitored server.
        let interval = DynamothConfig::default().client_ping_interval;
        let out = client.liveness_actions(SimTime::ZERO + interval, &mut rng);
        let mut pinged: Vec<NodeId> = out
            .iter()
            .filter(|(_, m)| matches!(m, Msg::Ping))
            .map(|&(n, _)| n)
            .collect();
        pinged.sort();
        pinged.dedup();
        let mut expected = vec![sub_server.node(), pub_server.node()];
        expected.sort();
        expected.dedup();
        assert_eq!(pinged, expected);
        // A pong resets the clock: no more pings right away.
        client.on_message(
            SimTime::ZERO + interval,
            &mut rng,
            sub_server.node(),
            Msg::Pong,
        );
        let out = client.liveness_actions(SimTime::ZERO + interval, &mut rng);
        assert!(!out
            .iter()
            .any(|&(n, ref m)| n == sub_server.node() && matches!(m, Msg::Ping)));
    }

    #[test]
    fn silent_server_triggers_failover_resubscription() {
        let (mut client, mut rng, ring) = setup(4);
        client.subscribe(SimTime::ZERO, &mut rng, ChannelId(1));
        let dead = ring.server_for(ChannelId(1));
        let cfg = DynamothConfig::default();
        let late = SimTime::ZERO + cfg.client_failover_timeout + SimDuration::from_millis(1);
        let out = client.liveness_actions(late, &mut rng);
        // A fresh Subscribe went somewhere else.
        let resub: Vec<NodeId> = out
            .iter()
            .filter(|(_, m)| matches!(m, Msg::Subscribe { .. }))
            .map(|&(n, _)| n)
            .collect();
        assert_eq!(resub.len(), 1);
        assert_ne!(resub[0], dead.node(), "resubscribed to the dead server");
        assert_eq!(
            client.subscription_servers(ChannelId(1)),
            vec![ServerId(resub[0])]
        );
        // Publishes route around the blacklisted server too.
        let (_, out) = client.publish(late, &mut rng, ChannelId(1), 10);
        assert_ne!(out[0].0, dead.node());
    }

    #[test]
    fn blacklist_expires_and_the_home_returns() {
        let (mut client, mut rng, ring) = setup(4);
        client.subscribe(SimTime::ZERO, &mut rng, ChannelId(1));
        let home = ring.server_for(ChannelId(1));
        let cfg = DynamothConfig::default();
        let late = SimTime::ZERO + cfg.client_failover_timeout + SimDuration::from_millis(1);
        client.liveness_actions(late, &mut rng);
        // While blacklisted, resolution avoids the home.
        let (_, out) = client.publish(late, &mut rng, ChannelId(1), 10);
        assert_ne!(out[0].0, home.node());
        // After expiry (and with the plan entry gone) the ring home is
        // used again.
        let after = late + cfg.dead_server_blacklist + SimDuration::from_secs(1);
        client.liveness_actions(after, &mut rng);
        client.unsubscribe(after, ChannelId(1));
        client.plan.remove(&ChannelId(1));
        let (_, out) = client.publish(after, &mut rng, ChannelId(1), 10);
        assert_eq!(out[0].0, home.node());
    }

    #[test]
    fn replicated_mapping_sheds_dead_members() {
        let (mut client, mut rng, _) = setup(4);
        client.learn(
            SimTime::ZERO,
            ChannelId(1),
            ChannelMapping::AllSubscribers(vec![sid(0), sid(1), sid(2)]),
            PlanId(1),
        );
        client.subscribe(SimTime::ZERO, &mut rng, ChannelId(1));
        assert_eq!(client.subscription_servers(ChannelId(1)).len(), 3);
        // Publish once so s1 is monitored… actually mark s1 dead directly
        // through silence: only s1's subscription goes quiet is not
        // distinguishable per-server here, so drive the blacklist path:
        client
            .dead_servers
            .insert(sid(1), SimTime::from_secs(1_000));
        let (mapping, _) = client.resolve(ChannelId(1));
        assert_eq!(
            mapping,
            ChannelMapping::AllSubscribers(vec![sid(0), sid(2)])
        );
    }

    #[test]
    fn message_ids_are_unique_and_increasing() {
        let (mut client, mut rng, _) = setup(1);
        let (id1, _) = client.publish(SimTime::ZERO, &mut rng, ChannelId(1), 10);
        let (id2, _) = client.publish(SimTime::ZERO, &mut rng, ChannelId(1), 10);
        assert_ne!(id1, id2);
        assert!(id2.seq > id1.seq);
        assert_eq!(id1.origin, client.node());
    }
}
