//! Engine-backed (thread-safe) views of the two systems the harness
//! explores: the service itself and the composed protocol
//! `hide G in ((T_1 ||| … ||| T_n) |[G]| Medium)`.
//!
//! These mirror [`crate::harness::TermSystem`] and
//! [`crate::composition::Composition`] exactly, but run over the
//! hash-consed [`semantics::Engine`] with interned [`TermId`] states, so
//! they implement [`ParSystem`] and can be explored across threads with
//! memoized transition derivation.

use lotos::place::PlaceId;
use medium::{MediumConfig, Msg, Network};
use protogen::derive::Derivation;
use semantics::explore::ParSystem;
use semantics::term::{Label, OccTable};
use semantics::{Engine, TermArena, TermId};
use std::sync::{Arc, Mutex};

/// The service specification as a [`ParSystem`] over interned terms.
pub struct EngineService {
    engine: Engine,
    root: TermId,
}

impl EngineService {
    pub fn new(spec: lotos::Spec) -> EngineService {
        let engine = Engine::new(spec);
        let root = engine.root();
        EngineService { engine, root }
    }

    pub fn engine(&self) -> &Engine {
        &self.engine
    }
}

impl ParSystem for EngineService {
    type State = TermId;
    fn initial(&self) -> TermId {
        self.root
    }
    fn successors(&self, s: &TermId) -> Vec<(Label, TermId)> {
        self.engine.transitions(*s).to_vec()
    }
}

/// A global state of the composed protocol: one interned term per entity
/// plus the messages in flight.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct EngineCompState {
    /// One runtime term per entity (indexed like
    /// [`EngineComposition::places`]).
    pub entities: Vec<TermId>,
    /// Messages in flight.
    pub net: Network,
    /// Set once the global δ has been performed.
    pub terminated: bool,
}

/// An entity term's transitions, as its engine memoizes them.
type Moves = Arc<[(Label, TermId)]>;

/// Longest chain of forced moves [`EngineComposition::successors`]
/// follows to decide that a state may be reduced (see there).
const FORCED_CHAIN_LIMIT: usize = 64;

/// The composed protocol system of a [`Derivation`], entity engines
/// sharing one term arena and one occurrence table (so `(s, N)`
/// message parameters match up across entities — paper §3.5).
pub struct EngineComposition {
    /// Entity engines, one per place.
    pub engines: Vec<Engine>,
    /// Place of each entity.
    pub places: Vec<PlaceId>,
    /// Medium configuration.
    pub cfg: MediumConfig,
    /// Explore only the forced hidden move of a state that has one
    /// (τ-confluence reduction; see [`EngineComposition::successors`]).
    reduce: bool,
}

impl EngineComposition {
    /// Build the reduced composition of a derivation's entities.
    pub fn new(d: &Derivation, cfg: MediumConfig) -> EngineComposition {
        EngineComposition::with_reduction(d, cfg, true)
    }

    /// Build the composition, reduced or with every interleaving.
    pub fn with_reduction(d: &Derivation, cfg: MediumConfig, reduce: bool) -> EngineComposition {
        let arena = Arc::new(TermArena::new());
        let occ = Arc::new(Mutex::new(OccTable::new()));
        let mut engines = Vec::new();
        let mut places = Vec::new();
        for (p, spec) in &d.entities {
            engines.push(Engine::with_shared(
                spec.clone(),
                Arc::clone(&arena),
                Arc::clone(&occ),
            ));
            places.push(*p);
        }
        EngineComposition {
            engines,
            places,
            cfg,
            reduce,
        }
    }

    /// Is entity `k`'s move `l` enabled in `s.net`? Sends need room in
    /// the channel, receives a deliverable message; δ is global and
    /// never enabled alone.
    fn enabled(&self, s: &EngineCompState, k: usize, l: &Label) -> bool {
        let here = self.places[k];
        match l {
            Label::Prim { .. } | Label::I => true,
            Label::Send { to, .. } => s.net.can_send(&self.cfg, here, *to),
            Label::Recv { from, msg, occ, .. } => {
                s.net.can_receive(&self.cfg, *from, here, msg, *occ)
            }
            Label::Delta => false,
        }
    }

    /// Take entity `k`'s enabled move `l` to term `t2`, in place.
    fn take(&self, s: &mut EngineCompState, k: usize, l: &Label, t2: TermId) {
        let here = self.places[k];
        s.entities[k] = t2;
        match l {
            Label::Send { to, msg, occ, kind } => {
                s.net.send(
                    &self.cfg,
                    Msg {
                        from: here,
                        to: *to,
                        id: msg.clone(),
                        occ: *occ,
                        kind: *kind,
                    },
                );
            }
            Label::Recv { from, msg, occ, .. } => {
                s.net.receive(&self.cfg, *from, here, msg, *occ);
            }
            _ => {}
        }
    }

    /// The forced move of `s`: the only transition of the lowest-index
    /// entity `k` whose term has exactly one transition and that
    /// transition hidden and enabled in `s.net`. Returns `k` and its
    /// transitions.
    fn forced_move(&self, s: &EngineCompState) -> Option<(usize, Moves)> {
        s.entities.iter().enumerate().find_map(|(k, &term)| {
            let ts = self.engines[k].transitions(term);
            let forced = match &ts[..] {
                [(l @ (Label::I | Label::Send { .. } | Label::Recv { .. }), _)] => {
                    self.enabled(s, k, l)
                }
                _ => false,
            };
            forced.then_some((k, ts))
        })
    }

    /// Take the forced move `(k, ts)` of [`Self::forced_move`] in place.
    fn take_forced(&self, s: &mut EngineCompState, (k, ts): (usize, Moves)) {
        let (l, t2) = &ts[0];
        self.take(s, k, l, *t2);
    }

    /// The one successor of `s` under the reduction, or `None` when `s`
    /// must be expanded in full: it has no forced move, or its chain of
    /// forced moves does not reach a state without one within
    /// [`FORCED_CHAIN_LIMIT`] moves (a cycle of forced moves never does).
    fn reduced_successor(&self, s: &EngineCompState) -> Option<EngineCompState> {
        let forced = self.forced_move(s)?;
        let mut next = s.clone();
        self.take_forced(&mut next, forced);
        let mut walk = next.clone();
        for _ in 0..FORCED_CHAIN_LIMIT {
            match self.forced_move(&walk) {
                None => return Some(next),
                Some(forced) => self.take_forced(&mut walk, forced),
            }
        }
        None
    }
}

impl ParSystem for EngineComposition {
    type State = EngineCompState;

    fn initial(&self) -> EngineCompState {
        EngineCompState {
            entities: self.engines.iter().map(|e| e.root()).collect(),
            net: Network::new(),
            terminated: false,
        }
    }

    /// All interleavings of the entities' moves, or — in a composition
    /// built with the reduction — only the forced move of a state that
    /// has one.
    ///
    /// A forced move is the only transition of the lowest-index entity
    /// `k` whose term has exactly one transition, that transition hidden
    /// (`Send`, `Recv` or `i`) and enabled. It is τ-confluent (Groote and
    /// van de Pol, MFCS 2000): only `k` changes `k`'s term, only `k`
    /// appends to its out-channels and only `k` pops its in-channels, so
    /// no other move disables it, and it commutes with every other move,
    /// both orders ending in the same state. Global δ needs `k`'s δ,
    /// which its term lacks. So a path of the full system from a reduced
    /// state either contains the move, which can be permuted to its
    /// front, or leaves it enabled to the end, where it can be appended
    /// and permuted to the front, being hidden. Either way the reduced
    /// system reaches the same end state with the same observable trace:
    /// every stuck state and every stable state stays reachable, and the
    /// deadlock count, traces, stable failures and ≈ are all preserved.
    /// "Only *enabled* move" would be unsound: a `Send` beside a `Recv`
    /// whose message has not arrived is enabled alone, yet another
    /// entity's send can enable the `Recv`, and taking it disables the
    /// `Send`.
    ///
    /// Each state has at most one forced successor, so forced moves form
    /// a functional graph, and the reduction must not follow a cycle of
    /// them forever while ignoring the other moves enabled on it. A state
    /// is therefore reduced only when its chain of forced moves reaches a
    /// state without one (a fully expanded state) within 64 moves
    /// (`FORCED_CHAIN_LIMIT`). Its forced successor then is reduced
    /// too, so every reduced state reaches a full expansion, and every
    /// state on a cycle of forced moves (whose chain never ends) is
    /// expanded in full. The decision reads only the state itself, so it
    /// is the same whichever thread asks and in whatever order: the
    /// explored LTS does not depend on the thread count.
    fn successors(&self, s: &EngineCompState) -> Vec<(Label, EngineCompState)> {
        if s.terminated {
            return Vec::new();
        }
        if self.reduce {
            if let Some(next) = self.reduced_successor(s) {
                return vec![(Label::I, next)];
            }
        }
        let mut out = Vec::new();
        let mut delta_parts: Vec<Option<TermId>> = vec![None; s.entities.len()];
        for (k, &term) in s.entities.iter().enumerate() {
            for (l, t2) in self.engines[k].transitions(term).iter() {
                if let Label::Delta = l {
                    delta_parts[k] = Some(*t2);
                } else if self.enabled(s, k, l) {
                    let mut s2 = s.clone();
                    self.take(&mut s2, k, l, *t2);
                    // message interactions are in G — the theorem hides
                    // them, so their observable label is i
                    let shown = match l {
                        Label::Prim { .. } => l.clone(),
                        _ => Label::I,
                    };
                    out.push((shown, s2));
                }
            }
        }
        // Global termination: all entities δ together, medium quiescent.
        if s.net.is_empty() && delta_parts.iter().all(|d| d.is_some()) {
            let s2 = EngineCompState {
                entities: delta_parts.into_iter().map(|d| d.unwrap()).collect(),
                net: Network::new(),
                terminated: true,
            };
            out.push((Label::Delta, s2));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::composition::Composition;
    use crate::explorer::{explore, explore_full};
    use lotos::parser::parse_spec;
    use protogen::derive::derive;
    use semantics::explore::{canonicalize_occurrences, explore_par, DepthMode, ExploreConfig};

    /// The unreduced engine composition must produce the same LTS as the
    /// legacy `Rc`-based composition, bit for bit (after occurrence-label
    /// canonicalization of both), for any thread count.
    #[test]
    fn engine_composition_matches_legacy_composition() {
        for src in [
            "SPEC a1;exit >> b2;exit ENDSPEC",
            "SPEC a1;exit ||| b2;exit ENDSPEC",
            "SPEC (a1;b2;c1;exit) [] (e1;c1;exit) ENDSPEC",
            "SPEC A WHERE PROC A = (a1 ; A >> b2 ; exit) [] (a1 ; b2 ; exit) END ENDSPEC",
        ] {
            let d = derive(&parse_spec(src).unwrap()).unwrap();
            let legacy_comp = Composition::new(&d, MediumConfig::default());
            let legacy_full = explore_full(&legacy_comp, 3_000);
            let mut legacy_lts = if legacy_full.lts.complete {
                legacy_full.lts
            } else {
                explore(&legacy_comp, 4, 50_000).lts
            };
            canonicalize_occurrences(&mut legacy_lts);

            for threads in [1, 4] {
                let comp = EngineComposition::with_reduction(&d, MediumConfig::default(), false);
                let probe = ExploreConfig::new().max_states(3_000).threads(threads);
                let full = explore_par(&comp, &probe, DepthMode::Observable);
                let got = if full.lts.complete {
                    full.lts
                } else {
                    let cfg = ExploreConfig::new()
                        .max_states(50_000)
                        .max_depth(4)
                        .threads(threads);
                    explore_par(&comp, &cfg, DepthMode::Observable).lts
                };
                assert_eq!(got, legacy_lts, "{src} with {threads} threads");
            }
        }
    }

    /// The reduced composition is weakly bisimilar to the unreduced one,
    /// keeps its deadlock count and never has more states; its LTS is the
    /// same at 1 and 4 threads.
    #[test]
    fn reduced_composition_is_weakly_bisimilar_to_the_unreduced_one() {
        let mut states = [0usize; 2];
        for src in [
            "SPEC a1;exit >> b2;exit ENDSPEC",
            "SPEC a1;exit ||| b2;exit ENDSPEC",
            "SPEC (a1;b2;c1;exit) [] (e1;c1;exit) ENDSPEC",
            "SPEC (a1;exit ||| b2;exit) >> c3;exit ENDSPEC",
            "SPEC a1;b2;exit |[b2]| b2;c3;exit ENDSPEC",
            "SPEC (a1; b2; c3; exit) [> (d3; exit) ENDSPEC",
        ] {
            let d = derive(&parse_spec(src).unwrap()).unwrap();
            let cfg = ExploreConfig::new().max_states(50_000);
            let deadlocks = |e: &semantics::explore::ParExploration<EngineCompState>| {
                e.stuck.iter().filter(|&&s| !e.states[s].terminated).count()
            };
            let full_sys = EngineComposition::with_reduction(&d, MediumConfig::default(), false);
            let full = explore_par(&full_sys, &cfg.clone().threads(1), DepthMode::Observable);
            let mut reduced = Vec::new();
            for threads in [1, 4] {
                let sys = EngineComposition::new(&d, MediumConfig::default());
                let cfg = cfg.clone().threads(threads);
                reduced.push(explore_par(&sys, &cfg, DepthMode::Observable));
            }
            assert_eq!(reduced[0].lts, reduced[1].lts, "{src}: 1 vs 4 threads");
            let red = &reduced[0];
            assert!(full.lts.complete && red.lts.complete, "{src}");
            assert!(red.states.len() <= full.states.len(), "{src}");
            states[0] += red.states.len();
            states[1] += full.states.len();
            assert_eq!(deadlocks(red), deadlocks(&full), "{src}");
            assert_eq!(
                semantics::bisim::weak_equiv_threads(&red.lts, &full.lts, 1),
                Some(true),
                "{src}"
            );
        }
        assert!(
            states[0] < states[1],
            "reduced vs unreduced states: {states:?}"
        );
    }

    #[test]
    fn terminated_states_have_empty_network() {
        let d =
            derive(&parse_spec("SPEC (a1;b2;c1;exit) [] (e1;c1;exit) ENDSPEC").unwrap()).unwrap();
        let comp = EngineComposition::new(&d, MediumConfig::default());
        let e = explore_par(
            &comp,
            &ExploreConfig::new().max_states(50_000),
            DepthMode::Observable,
        );
        assert!(e.lts.complete);
        for st in &e.states {
            if st.terminated {
                assert!(st.net.is_empty());
            }
        }
    }
}
