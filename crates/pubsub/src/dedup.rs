//! The paper's sliding duplicate-suppression window (§IV-3): a set for
//! O(1) membership plus FIFO eviction order.
//!
//! One implementation serves every receiver that must absorb the
//! duplicates reconfiguration creates: the simulator's
//! `DynamothClient`, each [`TcpPubSubClient`](crate::TcpPubSubClient)
//! connection, the cross-broker [`RoutedClient`](crate::RoutedClient)
//! and the [`DispatcherSidecar`](crate::DispatcherSidecar)'s
//! forwarding-loop guard. Generic over the id type because the
//! simulator and the wire tier name publications differently.

use std::collections::{HashSet, VecDeque};
use std::hash::Hash;

/// A bounded memory of recently seen ids; the oldest is forgotten first.
///
/// ```
/// use dynamoth_pubsub::Dedup;
///
/// let mut window = Dedup::new();
/// assert!(window.insert(7u64, 2)); // new
/// assert!(!window.insert(7u64, 2)); // duplicate
/// ```
#[derive(Debug)]
pub struct Dedup<T> {
    seen: HashSet<T>,
    order: VecDeque<T>,
}

impl<T: Copy + Eq + Hash> Dedup<T> {
    /// An empty window.
    pub fn new() -> Dedup<T> {
        Dedup {
            seen: HashSet::new(),
            order: VecDeque::new(),
        }
    }

    /// Returns `true` when `id` is new (and records it), `false` for a
    /// duplicate inside the window. At most `cap` ids (at least one)
    /// are remembered.
    pub fn insert(&mut self, id: T, cap: usize) -> bool {
        if !self.seen.insert(id) {
            return false;
        }
        self.order.push_back(id);
        while self.order.len() > cap.max(1) {
            if let Some(evicted) = self.order.pop_front() {
                self.seen.remove(&evicted);
            }
        }
        true
    }

    /// Ids currently remembered.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// `true` when nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }
}

impl<T: Copy + Eq + Hash> Default for Dedup<T> {
    fn default() -> Self {
        Dedup::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dedup_window_is_sliding_and_bounded() {
        let mut dedup = Dedup::new();
        for seq in 0..10u64 {
            assert!(dedup.insert(seq, 4));
        }
        assert_eq!(dedup.seen.len(), 4);
        // Recent ids are suppressed …
        for seq in 6..10 {
            assert!(!dedup.insert(seq, 4));
        }
        // … while ids past the window are (correctly) fresh again.
        assert!(dedup.insert(0, 4));
    }

    #[test]
    fn dedup_eviction_is_strictly_fifo() {
        // Over-fill the window far past capacity and assert the oldest
        // ids — and only the oldest — have been forgotten. If eviction
        // ever discards an arbitrary entry instead of the oldest, a
        // reconfiguration duplicate of a recent message would slip
        // through as a fresh delivery.
        let cap = 8;
        let mut dedup = Dedup::new();
        for seq in 0..3 * cap as u64 {
            assert!(dedup.insert(seq, cap), "id {seq} is new");
        }
        // Exactly the `cap` most recent ids are remembered, in order.
        assert_eq!(dedup.order.len(), cap);
        assert_eq!(
            dedup.order.iter().copied().collect::<Vec<_>>(),
            (2 * cap as u64..3 * cap as u64).collect::<Vec<_>>()
        );
        for seq in 2 * cap as u64..3 * cap as u64 {
            assert!(!dedup.insert(seq, cap), "recent id {seq} must still dedup");
        }
        // Evicted (oldest) ids are treated as new again — the window is
        // a bounded memory, not a permanent filter.
        assert!(dedup.insert(0, cap));
    }

    #[test]
    fn dedup_reinserting_a_seen_id_does_not_grow_the_window() {
        // A duplicate insert must not push a second FIFO entry for the
        // same id: that would make the window evict fresh ids early.
        let mut dedup = Dedup::new();
        for seq in 0..4u64 {
            assert!(dedup.insert(seq, 4));
        }
        for seq in 0..4 {
            assert!(!dedup.insert(seq, 4));
        }
        assert_eq!(dedup.order.len(), 4);
        // One more fresh id evicts exactly the oldest.
        assert!(dedup.insert(10, 4));
        assert!(!dedup.seen.contains(&0));
        assert!(dedup.seen.contains(&1));
    }
}
