//! Generic explicit-state exploration bounded by *observable* depth.
//!
//! Equivalence against the service is checked on observable traces up to a
//! length `L` (see `semantics::traces`). Hidden steps (message exchanges,
//! `i`) do not advance the observable depth, so the explorer runs a 0–1
//! BFS: hidden successors join the current layer, observable successors
//! the next one. Every state whose observable depth is `< L` is expanded,
//! which guarantees that *all* observable traces of length ≤ `L` are
//! present in the resulting LTS (unless the state cap truncated the
//! search, which the result records).

use semantics::lts::Lts;
use semantics::term::Label;
use std::collections::{HashMap, VecDeque};
use std::hash::Hash;

/// A transition system to explore.
pub trait System {
    /// Global state type.
    type State: Clone + Eq + Hash;
    /// The initial state.
    fn initial(&self) -> Self::State;
    /// All transitions of a state.
    fn successors(&self, s: &Self::State) -> Vec<(Label, Self::State)>;
}

/// Result of an exploration.
pub struct Exploration<S> {
    /// The explored LTS (`complete == false` iff the state cap truncated
    /// the search; the observable-depth bound itself does not count as
    /// truncation since traces beyond it are not requested).
    pub lts: Lts,
    /// The states, indexed as in `lts`.
    pub states: Vec<S>,
    /// Observable depth at which each state was first reached.
    pub obs_depth: Vec<usize>,
    /// Expanded states with no outgoing transitions, except those the
    /// state cap cut off from every successor.
    pub stuck: Vec<usize>,
}

/// Explore `sys` up to observable depth `max_obs` and at most `max_states`
/// states.
pub fn explore<Y: System>(sys: &Y, max_obs: usize, max_states: usize) -> Exploration<Y::State> {
    let mut index: HashMap<Y::State, usize> = HashMap::new();
    let mut states: Vec<Y::State> = Vec::new();
    let mut obs_depth: Vec<usize> = Vec::new();
    let mut trans: Vec<Vec<(Label, usize)>> = Vec::new();
    let mut expanded: Vec<bool> = Vec::new();
    let mut complete = true;
    let mut unexpanded_by_cap = Vec::new();
    let mut stuck: Vec<usize> = Vec::new();

    let init = sys.initial();
    index.insert(init.clone(), 0);
    states.push(init);
    obs_depth.push(0);
    trans.push(Vec::new());
    expanded.push(false);

    // 0–1 BFS: hidden edges keep the observable depth, observable edges
    // increase it.
    let mut queue: VecDeque<usize> = VecDeque::new();
    queue.push_back(0);

    while let Some(s) = queue.pop_front() {
        if expanded[s] {
            // Depth was relaxed after expansion: cascade the relaxation
            // through the already-recorded out-edges (Dijkstra-style), so
            // boundary states found earlier at a deeper level get their
            // chance to be expanded.
            let edges = trans[s].clone();
            for (l, id) in edges {
                let d = obs_depth[s] + usize::from(!l.is_internal());
                if d < obs_depth[id] {
                    obs_depth[id] = d;
                    if l.is_internal() {
                        queue.push_front(id);
                    } else {
                        queue.push_back(id);
                    }
                }
            }
            continue;
        }
        if obs_depth[s] >= max_obs {
            continue; // boundary state: traces up to max_obs don't need it
        }
        expanded[s] = true;
        let succs = sys.successors(&states[s]);
        let mut edges = Vec::with_capacity(succs.len());
        let mut truncated_here = false;
        for (l, t) in succs {
            let step = usize::from(!l.is_internal());
            let d = obs_depth[s] + step;
            let id = match index.get(&t) {
                Some(&id) => {
                    // relax the depth if we found a shorter route
                    if d < obs_depth[id] {
                        obs_depth[id] = d;
                        if step == 0 {
                            queue.push_front(id);
                        } else {
                            queue.push_back(id);
                        }
                    }
                    id
                }
                None => {
                    if states.len() >= max_states {
                        complete = false;
                        truncated_here = true;
                        continue;
                    }
                    let id = states.len();
                    index.insert(t.clone(), id);
                    states.push(t);
                    obs_depth.push(d);
                    trans.push(Vec::new());
                    expanded.push(false);
                    if step == 0 {
                        queue.push_front(id);
                    } else {
                        queue.push_back(id);
                    }
                    id
                }
            };
            edges.push((l, id));
        }
        if truncated_here {
            unexpanded_by_cap.push(s);
        } else if edges.is_empty() {
            // Stuck; a state the cap cut off from every successor is a
            // frontier, not a deadlock.
            stuck.push(s);
        }
        trans[s] = edges;
    }
    stuck.sort_unstable();

    Exploration {
        lts: Lts {
            trans,
            initial: 0,
            complete,
            unexpanded: unexpanded_by_cap,
        },
        states,
        obs_depth,
        stuck,
    }
}

/// Exhaustive exploration (no observable-depth bound) — used when the
/// system is expected to be finite, e.g. for weak-bisimulation checking.
pub fn explore_full<Y: System>(sys: &Y, max_states: usize) -> Exploration<Y::State> {
    explore(sys, usize::MAX, max_states)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny test system: a counter that can "tick" (observable) up to a
    /// limit and "shuffle" (hidden) between phases.
    struct Counter {
        limit: u32,
    }

    impl System for Counter {
        type State = (u32, bool);
        fn initial(&self) -> (u32, bool) {
            (0, false)
        }
        fn successors(&self, s: &(u32, bool)) -> Vec<(Label, (u32, bool))> {
            let mut out = Vec::new();
            if !s.1 {
                out.push((Label::I, (s.0, true)));
            }
            if s.0 < self.limit && s.1 {
                out.push((
                    Label::Prim {
                        name: "t".into(),
                        place: 1,
                    },
                    (s.0 + 1, false),
                ));
            }
            out
        }
    }

    #[test]
    fn observable_depth_bounds_exploration() {
        let sys = Counter { limit: 100 };
        let e = explore(&sys, 3, 10_000);
        // states reached: counts 0..=3 with both phases (phase of count 3
        // is reached but not expanded)
        assert!(e.lts.complete);
        let max_count = e.states.iter().map(|s| s.0).max().unwrap();
        assert_eq!(max_count, 3);
        // traces up to length 3 are exactly t, t.t, t.t.t
        let ts = semantics::traces::observable_traces(&e.lts, 3);
        assert_eq!(ts.traces.len(), 4); // ε + 3
    }

    #[test]
    fn full_exploration_of_finite_system() {
        let sys = Counter { limit: 5 };
        let e = explore_full(&sys, 10_000);
        assert!(e.lts.complete);
        // 6 counts × 2 phases, minus the unreachable (5,*) tick successor
        assert_eq!(e.states.len(), 12);
        // final state (5, true) is stuck (limit reached, already shuffled)
        assert_eq!(e.stuck.len(), 1);
        assert_eq!(e.states[e.stuck[0]], (5, true));
    }

    #[test]
    fn state_cap_marks_incomplete() {
        let sys = Counter { limit: 1000 };
        let e = explore_full(&sys, 10);
        assert!(!e.lts.complete);
        assert_eq!(e.states.len(), 10);
        assert!(!e.lts.unexpanded.is_empty());
    }

    /// Two branches from the root: `a` leads on to a third state, `b`
    /// to a dead end.
    struct Fork;

    impl System for Fork {
        type State = u32;
        fn initial(&self) -> u32 {
            0
        }
        fn successors(&self, s: &u32) -> Vec<(Label, u32)> {
            let prim = |name: &str| Label::Prim {
                name: name.into(),
                place: 1,
            };
            match s {
                0 => vec![(prim("a"), 1), (prim("b"), 2)],
                1 => vec![(prim("c"), 3)],
                _ => Vec::new(),
            }
        }
    }

    #[test]
    fn capped_exploration_lists_no_cut_off_state_as_stuck() {
        let e = explore_full(&Fork, 3);
        assert!(!e.lts.complete);
        assert_eq!(e.states, vec![0, 1, 2]);
        // State 1 lost its only successor to the cap; state 2 is a real
        // dead end.
        assert_eq!(e.lts.unexpanded, vec![1]);
        assert_eq!(e.stuck, vec![2]);
    }

    #[test]
    fn hidden_steps_do_not_consume_depth() {
        // with max_obs = 0 we still expand the hidden step at depth 0
        let sys = Counter { limit: 3 };
        let e = explore(&sys, 0, 1000);
        // no observable transitions explored at all
        let obs_edges: usize = e
            .lts
            .trans
            .iter()
            .flatten()
            .filter(|(l, _)| !l.is_internal())
            .count();
        // 0-depth states are not expanded when max_obs = 0
        assert_eq!(obs_edges, 0);
        assert_eq!(e.states.len(), 1);
    }
}
