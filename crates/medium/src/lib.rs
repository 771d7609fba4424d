//! # `medium` — the reliable communication medium
//!
//! Paper Section 1: *"in the communication medium there is a communication
//! channel from each entity i to any other entity j; each communication
//! channel is assumed to be a FIFO queue whose capacity is infinite. The
//! channel does not lose, duplicate or insert messages; each of the
//! messages is delivered after an arbitrary delay."*
//!
//! This crate models exactly that: a [`Network`] of per-ordered-pair
//! queues carrying [`Msg`] values. Three knobs support the paper's
//! different uses:
//!
//! * [`Capacity::Unbounded`] — the Section 1 model (default);
//! * [`Capacity::Bounded`]`(1)` — the Section 5.2 proof assumption ("at
//!   most one message may be in transit over a given channel"), where a
//!   send blocks while the channel is occupied;
//! * [`Order::Arbitrary`] — a *non-FIFO* variant used by experiments that
//!   probe how much the algorithm's correctness depends on channel FIFO
//!   order (it does depend on it — see EXPERIMENTS.md).
//!
//! [`Network`] is a pure value (`Clone + Eq + Hash`), so composition
//! explorers can use it directly inside hashed global states.

pub mod codec;

use lotos::event::{MsgId, SyncKind};
use lotos::place::{PlaceId, PlaceSet};
use std::collections::{BTreeMap, VecDeque};
use std::fmt;

/// A synchronization message in transit (long form `s_k^i(m)` — both the
/// sender and the destination are explicit; paper Section 5.2).
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Msg {
    /// Sending entity.
    pub from: PlaceId,
    /// Destination entity.
    pub to: PlaceId,
    /// Message identifier — the service-tree node number `N`.
    pub id: MsgId,
    /// Process-occurrence number `s` (paper §3.5; 0 for the root/default).
    pub occ: u32,
    /// Which Table 4 helper produced the message (instrumentation only —
    /// never used for matching).
    pub kind: SyncKind,
}

impl fmt::Display for Msg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}^{}({},{})", self.to, self.from, self.occ, self.id)
    }
}

/// Channel capacity discipline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Capacity {
    /// Infinite queues (paper Section 1).
    Unbounded,
    /// At most `n` messages in transit per channel; a send while full is
    /// not enabled (paper Section 5.2 uses `Bounded(1)`).
    Bounded(usize),
}

/// Delivery order discipline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Order {
    /// First-in first-out per channel (the paper's model).
    Fifo,
    /// Any in-flight message of a channel may be delivered next —
    /// deliberately *weaker* than the paper's assumption, for experiments.
    Arbitrary,
}

/// Medium configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MediumConfig {
    pub capacity: Capacity,
    pub order: Order,
}

impl Default for MediumConfig {
    fn default() -> Self {
        MediumConfig {
            capacity: Capacity::Unbounded,
            order: Order::Fifo,
        }
    }
}

impl MediumConfig {
    /// The Section 5.2 proof configuration: 1-slot FIFO channels.
    pub fn proof_model() -> Self {
        MediumConfig {
            capacity: Capacity::Bounded(1),
            order: Order::Fifo,
        }
    }
}

/// The in-flight state of all channels — a pure value suitable for use
/// inside hashed exploration states.
#[derive(Clone, Debug, PartialEq, Eq, Hash, Default)]
pub struct Network {
    queues: BTreeMap<(PlaceId, PlaceId), VecDeque<Msg>>,
}

impl Network {
    /// An empty network.
    pub fn new() -> Network {
        Network::default()
    }

    /// Is a send on channel `from → to` currently enabled?
    pub fn can_send(&self, cfg: &MediumConfig, from: PlaceId, to: PlaceId) -> bool {
        match cfg.capacity {
            Capacity::Unbounded => true,
            Capacity::Bounded(n) => self.depth(from, to) < n,
        }
    }

    /// Enqueue a message. Returns `false` (and leaves the network
    /// unchanged) if the channel is full.
    pub fn send(&mut self, cfg: &MediumConfig, msg: Msg) -> bool {
        if !self.can_send(cfg, msg.from, msg.to) {
            return false;
        }
        self.queues
            .entry((msg.from, msg.to))
            .or_default()
            .push_back(msg);
        true
    }

    /// The messages of channel `from → to` that may be delivered next:
    /// under FIFO only the head; under arbitrary order every one.
    pub fn deliverable(&self, cfg: &MediumConfig, from: PlaceId, to: PlaceId) -> Vec<&Msg> {
        match self.queues.get(&(from, to)) {
            None => Vec::new(),
            Some(q) => match cfg.order {
                Order::Fifo => q.front().into_iter().collect(),
                Order::Arbitrary => q.iter().collect(),
            },
        }
    }

    /// Can the receiver at `to` consume message `(id, occ)` from `from`
    /// right now?
    pub fn can_receive(
        &self,
        cfg: &MediumConfig,
        from: PlaceId,
        to: PlaceId,
        id: &MsgId,
        occ: u32,
    ) -> bool {
        self.deliverable(cfg, from, to)
            .iter()
            .any(|m| m.id == *id && m.occ == occ)
    }

    /// Consume message `(id, occ)` from channel `from → to`. Returns the
    /// delivered message, or `None` if it is not deliverable (absent, or
    /// behind another message under FIFO).
    pub fn receive(
        &mut self,
        cfg: &MediumConfig,
        from: PlaceId,
        to: PlaceId,
        id: &MsgId,
        occ: u32,
    ) -> Option<Msg> {
        let q = self.queues.get_mut(&(from, to))?;
        let idx = match cfg.order {
            Order::Fifo => {
                let head = q.front()?;
                if head.id == *id && head.occ == occ {
                    0
                } else {
                    return None;
                }
            }
            Order::Arbitrary => q.iter().position(|m| m.id == *id && m.occ == occ)?,
        };
        let msg = q.remove(idx);
        if q.is_empty() {
            self.queues.remove(&(from, to));
        }
        msg
    }

    /// Number of messages in transit on channel `from → to`.
    pub fn depth(&self, from: PlaceId, to: PlaceId) -> usize {
        self.queues.get(&(from, to)).map_or(0, |q| q.len())
    }

    /// Total number of messages in transit.
    pub fn in_flight(&self) -> usize {
        self.queues.values().map(|q| q.len()).sum()
    }

    /// Is the network empty (all messages delivered)?
    pub fn is_empty(&self) -> bool {
        self.queues.is_empty()
    }

    /// Iterate over all in-flight messages.
    pub fn iter(&self) -> impl Iterator<Item = &Msg> {
        self.queues.values().flatten()
    }
}

/// All (ordered) channels of an `n`-place network — `n(n−1)` of them, one
/// per ordered pair (paper Fig. 5).
pub fn channels(all: PlaceSet) -> Vec<(PlaceId, PlaceId)> {
    let mut out = Vec::new();
    for i in all.iter() {
        for j in all.iter() {
            if i != j {
                out.push((i, j));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use lotos::place::places;

    fn msg(from: PlaceId, to: PlaceId, n: u32, occ: u32) -> Msg {
        Msg {
            from,
            to,
            id: MsgId::Node(n),
            occ,
            kind: SyncKind::Seq,
        }
    }

    #[test]
    fn fifo_order_enforced() {
        let cfg = MediumConfig::default();
        let mut net = Network::new();
        assert!(net.send(&cfg, msg(1, 2, 10, 0)));
        assert!(net.send(&cfg, msg(1, 2, 11, 0)));
        // message 11 is behind 10
        assert!(!net.can_receive(&cfg, 1, 2, &MsgId::Node(11), 0));
        assert!(net.receive(&cfg, 1, 2, &MsgId::Node(11), 0).is_none());
        // head delivery works, then 11 becomes available
        let m = net.receive(&cfg, 1, 2, &MsgId::Node(10), 0).unwrap();
        assert_eq!(m.id, MsgId::Node(10));
        assert!(net.can_receive(&cfg, 1, 2, &MsgId::Node(11), 0));
    }

    #[test]
    fn arbitrary_order_allows_overtaking() {
        let cfg = MediumConfig {
            order: Order::Arbitrary,
            ..MediumConfig::default()
        };
        let mut net = Network::new();
        net.send(&cfg, msg(1, 2, 10, 0));
        net.send(&cfg, msg(1, 2, 11, 0));
        assert!(net.can_receive(&cfg, 1, 2, &MsgId::Node(11), 0));
        let m = net.receive(&cfg, 1, 2, &MsgId::Node(11), 0).unwrap();
        assert_eq!(m.id, MsgId::Node(11));
        assert_eq!(net.depth(1, 2), 1);
    }

    #[test]
    fn channels_are_independent() {
        let cfg = MediumConfig::default();
        let mut net = Network::new();
        net.send(&cfg, msg(1, 2, 10, 0));
        net.send(&cfg, msg(2, 1, 20, 0));
        net.send(&cfg, msg(3, 2, 30, 0));
        // each channel's head is deliverable
        assert!(net.can_receive(&cfg, 1, 2, &MsgId::Node(10), 0));
        assert!(net.can_receive(&cfg, 2, 1, &MsgId::Node(20), 0));
        assert!(net.can_receive(&cfg, 3, 2, &MsgId::Node(30), 0));
        assert_eq!(net.in_flight(), 3);
    }

    #[test]
    fn occurrence_must_match() {
        let cfg = MediumConfig::default();
        let mut net = Network::new();
        net.send(&cfg, msg(1, 2, 10, 5));
        assert!(!net.can_receive(&cfg, 1, 2, &MsgId::Node(10), 4));
        assert!(net.can_receive(&cfg, 1, 2, &MsgId::Node(10), 5));
    }

    #[test]
    fn bounded_capacity_blocks_send() {
        let cfg = MediumConfig::proof_model();
        let mut net = Network::new();
        assert!(net.send(&cfg, msg(1, 2, 10, 0)));
        assert!(!net.can_send(&cfg, 1, 2));
        assert!(!net.send(&cfg, msg(1, 2, 11, 0)));
        assert_eq!(net.depth(1, 2), 1);
        // other channels unaffected
        assert!(net.can_send(&cfg, 2, 1));
        net.receive(&cfg, 1, 2, &MsgId::Node(10), 0).unwrap();
        assert!(net.can_send(&cfg, 1, 2));
    }

    #[test]
    fn network_is_hashable_state() {
        use std::collections::HashSet;
        let cfg = MediumConfig::default();
        let mut a = Network::new();
        let mut b = Network::new();
        a.send(&cfg, msg(1, 2, 10, 0));
        b.send(&cfg, msg(1, 2, 10, 0));
        assert_eq!(a, b);
        let mut set = HashSet::new();
        set.insert(a.clone());
        assert!(set.contains(&b));
        b.receive(&cfg, 1, 2, &MsgId::Node(10), 0);
        assert_ne!(a, b);
        // empty channels are normalized away (receive removes the queue)
        assert_eq!(b, Network::new());
    }

    #[test]
    fn channel_enumeration() {
        let chans = channels(places([1, 2, 3]));
        assert_eq!(chans.len(), 6); // n(n-1) = 3·2
        assert!(chans.contains(&(1, 2)));
        assert!(chans.contains(&(2, 1)));
        assert!(!chans.contains(&(1, 1)));
    }
}
