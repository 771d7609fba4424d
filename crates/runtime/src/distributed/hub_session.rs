//! The hub's record of one session: what each entity reported, where
//! the session's time went, and its verdict once every entity has
//! parked ([`HubSession::decide`]).

use super::slab::Reopen;
use crate::config::RuntimeConfig;
use crate::exec::{configured_refusal, Completed, Monitor};
use crate::metrics::StageBreakdown;
use crate::session::{SessionCounts, SessionEnd};
use crate::stall::{Capture, Forensics};
use lotos::place::PlaceId;
use std::time::Instant;

/// Latest scheduling status an entity reported for one session.
#[derive(Clone, Copy, Debug)]
pub(super) struct StatusRec {
    pub(super) seen: u64,
    pub(super) vote: bool,
    pub(super) inbox_empty: bool,
    pub(super) steps: u64,
}

/// What the hub knows of one entity's part in a session.
#[derive(Clone, Copy, Debug, Default)]
pub(super) struct Peer {
    /// Data frames forwarded to the entity.
    pub(super) forwarded: u64,
    /// Data frames the entity has *reported seeing* (its latest
    /// `Status.seen`) — `Σforwarded − Σacked` is the hub's estimate of
    /// frames still on the wire.
    pub(super) acked: u64,
    pub(super) status: Option<StatusRec>,
}

/// What the hub just observed for a session — drives which stage the
/// interval since the previous observation is attributed to.
#[derive(Clone, Copy)]
pub(super) enum Mark {
    /// Work arrived (a `Prim` or a `Data` frame): the entities were
    /// stepping.
    Step,
    /// A scheduling report arrived (`Status`) or the session closed:
    /// the entities were parked or parking.
    Notify,
}

pub(super) struct HubSession {
    pub(super) id: u64,
    pub(super) seed: u64,
    /// Primitives as ids of the tally's table, with the gap before each.
    pub(super) trace: Vec<(u32, PlaceId)>,
    pub(super) gaps: Vec<u64>,
    /// Messages forwarded, per kind and deepest backlog (forwarded but
    /// not yet acked) towards one destination; folded in at close.
    pub(super) counts: SessionCounts,
    /// One record per entity, by dense index.
    pub(super) peers: Vec<Peer>,
    pub(super) started: Instant,
    pub(super) last_prim: Option<Instant>,
    /// Stage attribution: the hub cannot see inside the entity
    /// processes, so it classifies each interval between consecutive
    /// observations by what the observation implies (see [`Mark`]).
    last_mark: Instant,
    observed: bool,
    queue_ns: u64,
    step_ns: u64,
    wire_ns: u64,
    notify_ns: u64,
    /// Hub-side Lamport clock for the session: merged with every wire
    /// clock that arrives, so the hub's recorded observations order
    /// consistently with the entities' own events.
    pub(super) lc: u64,
}

/// What opening a session takes: its id and seed, the number of
/// entities, and the time it opens.
type OpenArgs = (u64, u64, usize, Instant);

impl Reopen for HubSession {
    type Args = OpenArgs;

    fn new((id, seed, n, now): OpenArgs) -> HubSession {
        HubSession::in_buffers(
            id,
            seed,
            now,
            Vec::new(),
            Vec::new(),
            vec![Peer::default(); n],
        )
    }

    /// Keeps the `trace`, `gaps` and `peers` buffers, emptied.
    fn reopen(&mut self, (id, seed, n, now): OpenArgs) {
        let mut trace = std::mem::take(&mut self.trace);
        let mut gaps = std::mem::take(&mut self.gaps);
        let mut peers = std::mem::take(&mut self.peers);
        trace.clear();
        gaps.clear();
        peers.clear();
        peers.resize(n, Peer::default());
        *self = HubSession::in_buffers(id, seed, now, trace, gaps, peers);
    }
}

impl HubSession {
    /// A session opened at `now`, recording into the given empty
    /// buffers, with one blank peer per entity in `peers`.
    fn in_buffers(
        id: u64,
        seed: u64,
        now: Instant,
        trace: Vec<(u32, PlaceId)>,
        gaps: Vec<u64>,
        peers: Vec<Peer>,
    ) -> HubSession {
        HubSession {
            id,
            seed,
            trace,
            gaps,
            counts: SessionCounts::default(),
            peers,
            started: now,
            last_prim: None,
            last_mark: now,
            observed: false,
            queue_ns: 0,
            step_ns: 0,
            wire_ns: 0,
            notify_ns: 0,
            lc: 0,
        }
    }

    /// Data frames the entities reported seeing, summed.
    fn acked(&self) -> u64 {
        self.peers.iter().map(|p| p.acked).sum()
    }

    /// Attribute the interval since the previous observation: before
    /// anything is observed the session is queued (Opens still in
    /// flight, entities not yet stepping it); while forwarded data is
    /// unaccounted for the wire owns the interval; otherwise the kind
    /// of the observation decides (stepping vs parked).
    pub(super) fn mark(&mut self, now: Instant, kind: Mark) {
        let dt = now.saturating_duration_since(self.last_mark).as_nanos() as u64;
        self.last_mark = now;
        let forwarded: u64 = self.peers.iter().map(|p| p.forwarded).sum();
        let in_flight = forwarded.saturating_sub(self.acked());
        if !self.observed {
            self.observed = true;
            self.queue_ns += dt;
        } else if in_flight > 0 {
            self.wire_ns += dt;
        } else {
            match kind {
                Mark::Step => self.step_ns += dt,
                Mark::Notify => self.notify_ns += dt,
            }
        }
    }

    /// The stage split of the session's first `age_us` µs.
    pub(super) fn stages(&self, age_us: u64) -> StageBreakdown {
        StageBreakdown::attribute(
            age_us,
            self.queue_ns / 1000,
            self.step_ns / 1000,
            self.wire_ns / 1000,
            Some(self.notify_ns / 1000),
        )
    }

    /// What the hub measured for a session it closes with `end` at
    /// `now`. A message counts as delivered once its receiver acked it.
    pub(super) fn completed(
        &mut self,
        end: SessionEnd,
        cfg: &RuntimeConfig,
        now: Instant,
    ) -> Completed<'_> {
        self.mark(now, Mark::Notify);
        let latency_us = now.saturating_duration_since(self.started).as_micros() as u64;
        self.counts.delivered = self.acked() as usize;
        Completed {
            id: self.id,
            seed: self.seed,
            end,
            trace: &self.trace,
            gaps: &self.gaps,
            latency_us,
            stages: self.stages(latency_us),
            counts: self.counts,
            steps: 0,
            lc: self.lc,
            refused: configured_refusal(cfg, end),
            monitor: Monitor::Replay,
        }
    }

    /// The committed outcome once every entity has a *current* parked
    /// status, or `None` while something can still move.
    pub(super) fn decide(&self, max_steps: u64) -> Option<SessionEnd> {
        let mut all_vote = true;
        let mut all_empty = true;
        let mut step_limited = false;
        for peer in &self.peers {
            let st = peer.status?;
            if st.seen != peer.forwarded {
                return None; // stale: data still in flight to this entity
            }
            all_vote &= st.vote;
            all_empty &= st.inbox_empty;
            step_limited |= st.steps >= max_steps;
        }
        Some(if step_limited {
            SessionEnd::StepLimit
        } else if all_vote && all_empty {
            SessionEnd::Terminated
        } else {
            SessionEnd::Deadlock
        })
    }
}

/// The hub's capture: its inferred stage split and, since the hub cannot
/// see backend states, each entity's last reported step count as the
/// closest forensic analogue.
impl Forensics for HubSession {
    fn capture(&self, age_us: u64) -> Option<Capture> {
        let entity_state = self
            .peers
            .iter()
            .enumerate()
            .map(|(i, p)| (i as u32, p.status.map_or(0, |r| r.steps)))
            .collect();
        Some((self.stages(age_us), entity_state))
    }
}
