//! Events (interactions) of the specification language.
//!
//! Paper Section 2 distinguishes three kinds of `Event_Id`:
//!
//! * a **service primitive** interaction `a_p` — primitive `a` offered at
//!   service access point (place) `p`;
//! * a **send-a-message** interaction `s_k(m)` — send message `m` to the
//!   entity at place `k`;
//! * a **receive-a-message** interaction `r_j(m)` — receive message `m`
//!   from the entity at place `j`.
//!
//! In addition the language allows the **internal action** `i` (Section 2,
//! "a process may execute two kinds of actions").
//!
//! Messages generated by the derivation algorithm are parameterized with
//! the syntax-tree node number `N` and the process-instance occurrence
//! number `s` (Sections 3.5 and 4.1), printed as `s2(s,7)`. Hand-written
//! protocol specifications may instead use symbolic message names
//! (`s2(x)`), which we also support.

use crate::place::PlaceId;
use std::fmt;

/// The payload identifier of a synchronization message — the `m` in
/// `s_k(m)` / `r_j(m)`.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum MsgId {
    /// A symbolic name, as used in hand-written specs: `s2(x)`.
    Named(String),
    /// A syntax-tree node number `N`, as generated by the derivation
    /// algorithm: `s2(7)`.
    Node(u32),
}

impl fmt::Display for MsgId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MsgId::Named(s) => write!(f, "{s}"),
            MsgId::Node(n) => write!(f, "{n}"),
        }
    }
}

/// Why a synchronization message exists — which Table 4 helper produced it.
///
/// This tag is *instrumentation only*: it never participates in message
/// matching (the paper's messages are identified solely by `(s, N)` and the
/// channel they travel on). It feeds the Section 4.3 message-complexity
/// accounting and simulator diagnostics.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SyncKind {
    /// `Synch_Left` / `Synch_Right` — sequencing for `;` and `>>` (§3.1).
    Seq,
    /// `Alternative` — empty-alternative avoidance for `[]` (§3.2).
    Alt,
    /// `Rel` — termination synchronization for `[>` (§3.3).
    Rel,
    /// `Interr` — interrupt broadcast for `[>` (§3.3).
    Interr,
    /// `Proc_Synch` — process-invocation synchronization (§3.4).
    Proc,
    /// Message from a hand-written specification (unknown purpose).
    User,
}

impl SyncKind {
    /// Every kind, in declaration order: `SyncKind::ALL[k as usize] == k`,
    /// so per-kind counters can be plain arrays.
    pub const ALL: [SyncKind; 6] = [
        SyncKind::Seq,
        SyncKind::Alt,
        SyncKind::Rel,
        SyncKind::Interr,
        SyncKind::Proc,
        SyncKind::User,
    ];
}

impl fmt::Display for SyncKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            SyncKind::Seq => "seq",
            SyncKind::Alt => "alt",
            SyncKind::Rel => "rel",
            SyncKind::Interr => "interr",
            SyncKind::Proc => "proc",
            SyncKind::User => "user",
        };
        f.write_str(s)
    }
}

/// An event (interaction or internal action) of the language.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Event {
    /// The unobservable internal action `i`.
    Internal,
    /// Service primitive `name` at `place` — e.g. `read1`.
    Prim { name: String, place: PlaceId },
    /// `s_to(m)`: send message `m` to the entity at place `to`.
    ///
    /// `occ` records whether the message is parameterized with the symbolic
    /// process-occurrence variable `s` (true for all derived messages when
    /// the spec declares processes; see §3.5). `kind` is instrumentation.
    Send {
        to: PlaceId,
        msg: MsgId,
        occ: bool,
        kind: SyncKind,
    },
    /// `r_from(m)`: receive message `m` from the entity at place `from`.
    Recv {
        from: PlaceId,
        msg: MsgId,
        occ: bool,
        kind: SyncKind,
    },
}

impl Event {
    /// Construct a service primitive event.
    pub fn prim(name: impl Into<String>, place: PlaceId) -> Event {
        Event::Prim {
            name: name.into(),
            place,
        }
    }

    /// Construct a derived send event `s_to(s,N)`.
    pub fn send_node(to: PlaceId, n: u32, occ: bool, kind: SyncKind) -> Event {
        Event::Send {
            to,
            msg: MsgId::Node(n),
            occ,
            kind,
        }
    }

    /// Construct a derived receive event `r_from(s,N)`.
    pub fn recv_node(from: PlaceId, n: u32, occ: bool, kind: SyncKind) -> Event {
        Event::Recv {
            from,
            msg: MsgId::Node(n),
            occ,
            kind,
        }
    }

    /// The place where this event is executed, if it is a service
    /// primitive. The paper's `place(a_i) = i` function (Section 4.1) is
    /// defined on primitives only; sends/receives are located at the entity
    /// that contains them and `i` has no place.
    pub fn place(&self) -> Option<PlaceId> {
        match self {
            Event::Prim { place, .. } => Some(*place),
            _ => None,
        }
    }

    /// Is this the internal action?
    pub fn is_internal(&self) -> bool {
        matches!(self, Event::Internal)
    }

    /// Is this a send or receive interaction?
    pub fn is_message(&self) -> bool {
        matches!(self, Event::Send { .. } | Event::Recv { .. })
    }

    /// Is this a service-primitive interaction?
    pub fn is_prim(&self) -> bool {
        matches!(self, Event::Prim { .. })
    }

    /// Gate name used for synchronization-set membership tests: service
    /// primitives synchronize on their full `name_place` identity.
    pub fn gate(&self) -> Option<Gate> {
        match self {
            Event::Prim { name, place } => Some(Gate {
                name: name.clone(),
                place: *place,
            }),
            _ => None,
        }
    }
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Event::Internal => write!(f, "i"),
            Event::Prim { name, place } => write!(f, "{name}{place}"),
            Event::Send { to, msg, occ, .. } => {
                if *occ {
                    write!(f, "s{to}(s,{msg})")
                } else {
                    write!(f, "s{to}({msg})")
                }
            }
            Event::Recv { from, msg, occ, .. } => {
                if *occ {
                    write!(f, "r{from}(s,{msg})")
                } else {
                    write!(f, "r{from}({msg})")
                }
            }
        }
    }
}

/// An observable gate identity used in `|[event_subset]|` synchronization
/// sets: a service primitive name together with its place, e.g. `a2`.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Gate {
    /// Primitive name (`a` in `a2`).
    pub name: String,
    /// Place (`2` in `a2`).
    pub place: PlaceId,
}

impl fmt::Display for Gate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{}", self.name, self.place)
    }
}

/// The synchronization discipline of a parallel operator.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum SyncSet {
    /// `|||` — pure interleaving (empty event subset).
    Interleave,
    /// `|[g1, g2, ...]|` — synchronize on the listed gates only.
    Gates(Vec<Gate>),
    /// `||` — full synchronization (event subset = all events).
    Full,
}

impl SyncSet {
    /// Does this synchronization set require synchronization on `ev`?
    ///
    /// Only service primitives can appear in event subsets; messages and
    /// `i` never synchronize through a parallel operator.
    pub fn requires_sync(&self, ev: &Event) -> bool {
        match self {
            SyncSet::Interleave => false,
            SyncSet::Full => ev.is_prim(),
            SyncSet::Gates(gates) => match ev.gate() {
                Some(g) => gates.contains(&g),
                None => false,
            },
        }
    }

    /// Restrict the set to gates located at place `p` — the paper's
    /// `select_p(event_subset)` of Table 4.
    pub fn select(&self, p: PlaceId) -> SyncSet {
        match self {
            SyncSet::Interleave => SyncSet::Interleave,
            SyncSet::Full => SyncSet::Full,
            SyncSet::Gates(gates) => {
                let kept: Vec<Gate> = gates.iter().filter(|g| g.place == p).cloned().collect();
                if kept.is_empty() {
                    SyncSet::Interleave
                } else {
                    SyncSet::Gates(kept)
                }
            }
        }
    }
}

impl fmt::Display for SyncSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SyncSet::Interleave => write!(f, "|||"),
            SyncSet::Full => write!(f, "||"),
            SyncSet::Gates(gates) => {
                write!(f, "|[")?;
                for (i, g) in gates.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{g}")?;
                }
                write!(f, "]|")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_prim() {
        assert_eq!(Event::prim("read", 1).to_string(), "read1");
        assert_eq!(Event::prim("interrupt", 3).to_string(), "interrupt3");
    }

    #[test]
    fn display_internal() {
        assert_eq!(Event::Internal.to_string(), "i");
    }

    #[test]
    fn display_messages() {
        assert_eq!(
            Event::send_node(2, 7, false, SyncKind::Seq).to_string(),
            "s2(7)"
        );
        assert_eq!(
            Event::send_node(2, 7, true, SyncKind::Seq).to_string(),
            "s2(s,7)"
        );
        assert_eq!(
            Event::recv_node(3, 1, false, SyncKind::Rel).to_string(),
            "r3(1)"
        );
        let named = Event::Recv {
            from: 1,
            msg: MsgId::Named("x".into()),
            occ: false,
            kind: SyncKind::User,
        };
        assert_eq!(named.to_string(), "r1(x)");
    }

    #[test]
    fn place_of_events() {
        assert_eq!(Event::prim("a", 4).place(), Some(4));
        assert_eq!(Event::Internal.place(), None);
        assert_eq!(Event::send_node(2, 1, false, SyncKind::Seq).place(), None);
    }

    #[test]
    fn kind_predicates() {
        assert!(Event::Internal.is_internal());
        assert!(Event::prim("a", 1).is_prim());
        assert!(Event::send_node(1, 1, false, SyncKind::Seq).is_message());
        assert!(Event::recv_node(1, 1, false, SyncKind::Seq).is_message());
        assert!(!Event::prim("a", 1).is_message());
    }

    #[test]
    fn syncset_requires_sync() {
        let a1 = Event::prim("a", 1);
        let b2 = Event::prim("b", 2);
        let msg = Event::send_node(2, 1, false, SyncKind::Seq);

        assert!(!SyncSet::Interleave.requires_sync(&a1));
        assert!(SyncSet::Full.requires_sync(&a1));
        assert!(!SyncSet::Full.requires_sync(&msg));
        assert!(!SyncSet::Full.requires_sync(&Event::Internal));

        let gs = SyncSet::Gates(vec![Gate {
            name: "a".into(),
            place: 1,
        }]);
        assert!(gs.requires_sync(&a1));
        assert!(!gs.requires_sync(&b2));
        assert!(!gs.requires_sync(&msg));
    }

    #[test]
    fn syncset_select_projects_by_place() {
        let gs = SyncSet::Gates(vec![
            Gate {
                name: "a".into(),
                place: 1,
            },
            Gate {
                name: "b".into(),
                place: 2,
            },
        ]);
        assert_eq!(
            gs.select(1),
            SyncSet::Gates(vec![Gate {
                name: "a".into(),
                place: 1
            }])
        );
        // no gates at place 3 -> degenerates to interleaving
        assert_eq!(gs.select(3), SyncSet::Interleave);
        assert_eq!(SyncSet::Full.select(1), SyncSet::Full);
        assert_eq!(SyncSet::Interleave.select(1), SyncSet::Interleave);
    }

    #[test]
    fn syncset_display() {
        assert_eq!(SyncSet::Interleave.to_string(), "|||");
        assert_eq!(SyncSet::Full.to_string(), "||");
        let gs = SyncSet::Gates(vec![
            Gate {
                name: "a".into(),
                place: 1,
            },
            Gate {
                name: "b".into(),
                place: 2,
            },
        ]);
        assert_eq!(gs.to_string(), "|[a1,b2]|");
    }
}
