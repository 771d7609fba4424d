//! Bounded determinization and product-automaton trace comparison.
//!
//! The old trace checker materialized [`crate::traces::TraceSet`]s — a
//! `BTreeSet<Vec<Label>>` whose size is exponential in the trace bound —
//! and compared them. This module builds the *determinized automaton*
//! once per LTS (subset construction with hash-consed state sets, each
//! distinct subset expanded exactly once) and answers the questions
//! verification actually asks directly on the automata:
//!
//! * [`DetDfa::equal`] — do the systems have the same observable traces
//!   up to the bound? A BFS over the product automaton comparing enabled
//!   label sets; visits each reachable state pair once.
//! * [`DetDfa::first_difference`] — the lexicographically least trace of
//!   one system that the other lacks, identical to what scanning the two
//!   `BTreeSet`s produced, found by a label-ordered DFS over the product
//!   with a "no difference within k steps" memo.
//! * [`DetDfa::failures_equal`] — do the systems have the same bounded
//!   stable failures? A trace's refusals depend only on the ε-closed
//!   subset it reaches, so each subset records, when it is interned, the
//!   antichain of minimal initials sets of its stable members (over the
//!   union alphabet a refusal is the complement of an initials set), and
//!   the verdict is one BFS over the product. It agrees with
//!   [`crate::failures::failures_equal`] on every pair of LTSs.
//!
//! Labels are interned per automaton with ids assigned in [`Label`] sort
//! order, so the hot walks compare and search plain `u32`s; comparing two
//! automata needs only a linear merge of their sorted label tables.
//! [`DetDfa::trace_set`] still enumerates the full `TraceSet` for
//! human-facing reports; it is no longer on the verification hot path.

use crate::fxhash::{FxHashMap, FxHashSet};
use crate::lts::Lts;
use crate::term::Label;
use crate::traces::TraceSet;
use std::borrow::Cow;
use std::collections::BTreeSet;
use std::ops::Range;
use std::rc::Rc;

/// The bounded determinization of an LTS: ε-closed subset states, each
/// expanded once, with interned labels and successor lists sorted by
/// label id (= [`Label`] order).
pub struct DetDfa {
    /// Per determinized state: observable successors as
    /// `(label id, target)`, sorted by label id. Label ids are
    /// deduplicated per state by construction (determinism).
    pub trans: Vec<Vec<(u32, u32)>>,
    /// The interned observable labels, sorted; a label's id is its index.
    pub labels: Vec<Label>,
    /// Initial determinized state (the ε-closure of the LTS initial).
    pub initial: u32,
    /// BFS depth at which each determinized state was first reached.
    pub depth: Vec<u32>,
    /// The trace-length bound the automaton was built for: states at this
    /// depth are frontier leaves and were not expanded.
    pub bound: usize,
    /// Whether the underlying LTS was complete.
    pub complete: bool,
    /// Per determinized state, the minimal initials sets of its stable
    /// members (LTS states with no τ move).
    stable: Antichains,
}

/// ⊥ in a product pair: the side that cannot follow the trace. It has
/// no moves and no stable member.
const BOTTOM: u32 = u32::MAX;

/// Per determinized state `d`, an antichain of label sets: sets
/// `off[d]..off[d + 1]` of one flat arena, each `words` bitset words
/// (bit = label id). A state with no set has no stable member. A stable
/// member with no observable move contributes the empty set, which
/// counts even when the alphabet is empty and a set has no words.
#[derive(Clone)]
struct Antichains {
    off: Vec<u32>,
    sets: Vec<u64>,
    words: usize,
    /// Sets recorded so far (`sets.len() / words` unless `words` is 0).
    len: usize,
}

/// Is bitset `x` a subset of bitset `y`?
fn subset(x: &[u64], y: &[u64]) -> bool {
    x.iter().zip(y).all(|(a, b)| a & !b == 0)
}

impl Antichains {
    fn new(words: usize) -> Antichains {
        Antichains {
            off: vec![0],
            sets: Vec::new(),
            words,
            len: 0,
        }
    }

    fn set(&self, k: usize) -> &[u64] {
        &self.sets[k * self.words..(k + 1) * self.words]
    }

    /// The set indices of state `d` (none for ⊥).
    fn range(&self, d: u32) -> Range<usize> {
        if d == BOTTOM {
            return 0..0;
        }
        self.off[d as usize] as usize..self.off[d as usize + 1] as usize
    }

    /// Add `set` to the antichain of the state being recorded: dropped
    /// when one of its sets is a subset of it, and otherwise replacing
    /// its supersets.
    fn insert(&mut self, set: &[u64]) {
        let start = *self.off.last().expect("offsets start at 0") as usize;
        if (start..self.len).any(|k| subset(self.set(k), set)) {
            return;
        }
        let w = self.words;
        let mut kept = start;
        for k in start..self.len {
            if !subset(set, self.set(k)) {
                self.sets.copy_within(k * w..(k + 1) * w, kept * w);
                kept += 1;
            }
        }
        self.sets.truncate(kept * w);
        self.sets.extend_from_slice(set);
        self.len = kept + 1;
    }

    /// Close the antichain of the state being recorded.
    fn close(&mut self) {
        self.off.push(self.len as u32);
    }

    /// The same antichains over a label index of `n` labels that
    /// contains this one, `map` taking each label id to its id there.
    fn remap(&self, map: &[u32], n: usize) -> Cow<'_, Antichains> {
        if n == map.len() {
            // an order-preserving map onto as many labels is the identity
            return Cow::Borrowed(self);
        }
        let words = n.div_ceil(64);
        let mut sets = vec![0u64; self.len * words];
        for k in 0..self.len {
            for (w, &bits) in self.set(k).iter().enumerate() {
                let mut bits = bits;
                while bits != 0 {
                    let id = map[w * 64 + bits.trailing_zeros() as usize] as usize;
                    sets[k * words + id / 64] |= 1 << (id % 64);
                    bits &= bits - 1;
                }
            }
        }
        Cow::Owned(Antichains {
            off: self.off.clone(),
            sets,
            words,
            len: self.len,
        })
    }
}

impl DetDfa {
    /// Subset-construct the determinization of `lts`, exploring to
    /// `bound` observable steps. Each distinct ε-closed subset is
    /// hash-consed and expanded at most once (at its minimal depth).
    pub fn build(lts: &Lts, bound: usize) -> DetDfa {
        let n = lts.len();
        // One hashing pass over the edges: intern the observable alphabet
        // (first-encounter ids), count the per-state τ/observable degrees
        // for the CSR tables, and remember each edge's provisional label
        // id so the fill pass below never hashes a `Label` again.
        let mut interned: Vec<&Label> = Vec::new();
        let mut label_ids: FxHashMap<&Label, u32> = FxHashMap::default();
        let mut edge_ids: Vec<u32> = Vec::new();
        let mut tau_off = vec![0u32; n + 1];
        let mut obs_off = vec![0u32; n + 1];
        for (s, es) in lts.trans.iter().enumerate() {
            for (l, _) in es {
                if l.is_internal() {
                    tau_off[s + 1] += 1;
                } else {
                    obs_off[s + 1] += 1;
                    let id = match label_ids.get(l) {
                        Some(&id) => id,
                        None => {
                            let id = interned.len() as u32;
                            interned.push(l);
                            label_ids.insert(l, id);
                            id
                        }
                    };
                    edge_ids.push(id);
                }
            }
        }
        // Renumber the interned labels into sort order (the `DetDfa`
        // invariant: a label's id is its index in the sorted table).
        let mut order: Vec<u32> = (0..interned.len() as u32).collect();
        order.sort_unstable_by_key(|&i| interned[i as usize]);
        let mut rank = vec![0u32; interned.len()];
        for (r, &i) in order.iter().enumerate() {
            rank[i as usize] = r as u32;
        }
        let labels: Vec<Label> = order
            .iter()
            .map(|&i| interned[i as usize].clone())
            .collect();

        // Fill the CSR tables — τ successors and `(label id, target)`
        // observable moves — so subset expansion works on plain `u32`s no
        // matter how many subsets a state appears in.
        for s in 1..=n {
            tau_off[s] += tau_off[s - 1];
            obs_off[s] += obs_off[s - 1];
        }
        let mut tau_flat = vec![0u32; tau_off[n] as usize];
        let mut obs_flat = vec![(0u32, 0u32); obs_off[n] as usize];
        {
            let mut tc: Vec<u32> = tau_off[..n].to_vec();
            let mut oc: Vec<u32> = obs_off[..n].to_vec();
            let mut eid = edge_ids.iter();
            for (s, es) in lts.trans.iter().enumerate() {
                for (l, t) in es {
                    if l.is_internal() {
                        tau_flat[tc[s] as usize] = *t as u32;
                        tc[s] += 1;
                    } else {
                        let id = rank[*eid.next().expect("edge id underflow") as usize];
                        obs_flat[oc[s] as usize] = (id, *t as u32);
                        oc[s] += 1;
                    }
                }
            }
        }

        // ε-closure into a reusable scratch buffer with a reusable stamp
        // buffer — no allocation at all unless the subset turns out to be
        // new (then one `Rc<[u32]>` holds it, shared between the interner
        // key and the worklist).
        let mut stamp: Vec<u32> = vec![u32::MAX; n.max(1)];
        let mut round: u32 = 0;
        let mut closure = |seed: &[u32], stack: &mut Vec<u32>, out: &mut Vec<u32>| {
            round += 1;
            let r = round;
            out.clear();
            for &s in seed {
                if stamp[s as usize] != r {
                    stamp[s as usize] = r;
                    out.push(s);
                    stack.push(s);
                }
            }
            while let Some(s) = stack.pop() {
                let su = s as usize;
                for &t in &tau_flat[tau_off[su] as usize..tau_off[su + 1] as usize] {
                    if stamp[t as usize] != r {
                        stamp[t as usize] = r;
                        out.push(t);
                        stack.push(t);
                    }
                }
            }
            out.sort_unstable();
        };

        // The antichain of a new subset: the minimal initials sets of its
        // stable members, built in one reusable bitset.
        let mut stable = Antichains::new(labels.len().div_ceil(64));
        let mut initials = vec![0u64; stable.words];
        let mut record = |subset: &[u32], stable: &mut Antichains| {
            for &s in subset {
                let su = s as usize;
                if tau_off[su] != tau_off[su + 1] {
                    continue;
                }
                initials.fill(0);
                for &(id, _) in &obs_flat[obs_off[su] as usize..obs_off[su + 1] as usize] {
                    initials[id as usize / 64] |= 1 << (id % 64);
                }
                stable.insert(&initials);
            }
            stable.close();
        };

        let mut stack: Vec<u32> = Vec::new();
        let mut scratch: Vec<u32> = Vec::new();
        let mut index: FxHashMap<Rc<[u32]>, u32> = FxHashMap::default();
        let mut subsets: Vec<Rc<[u32]>> = Vec::new();
        let mut trans: Vec<Vec<(u32, u32)>> = Vec::new();
        let mut depth: Vec<u32> = Vec::new();

        closure(&[lts.initial as u32], &mut stack, &mut scratch);
        record(&scratch, &mut stable);
        let init: Rc<[u32]> = Rc::from(&scratch[..]);
        index.insert(init.clone(), 0);
        subsets.push(init);
        trans.push(Vec::new());
        depth.push(0);

        // successor-collection buffers, indexed by label id, reused
        // across subset expansions
        let mut succs_of: Vec<Vec<u32>> = vec![Vec::new(); labels.len()];
        let mut hit: Vec<u32> = Vec::new();

        let mut next = 0usize;
        while next < subsets.len() {
            let d = depth[next];
            if (d as usize) >= bound {
                next += 1;
                continue;
            }
            // group strong observable successors by label id
            let subset = subsets[next].clone();
            for &s in subset.iter() {
                let su = s as usize;
                for &(id, t) in &obs_flat[obs_off[su] as usize..obs_off[su + 1] as usize] {
                    if succs_of[id as usize].is_empty() {
                        hit.push(id);
                    }
                    succs_of[id as usize].push(t);
                }
            }
            hit.sort_unstable();
            let mut edges: Vec<(u32, u32)> = Vec::with_capacity(hit.len());
            for &lid in &hit {
                closure(&succs_of[lid as usize], &mut stack, &mut scratch);
                succs_of[lid as usize].clear();
                let id = match index.get(&scratch[..]) {
                    Some(&id) => id,
                    None => {
                        let id = subsets.len() as u32;
                        record(&scratch, &mut stable);
                        let closed: Rc<[u32]> = Rc::from(&scratch[..]);
                        index.insert(closed.clone(), id);
                        subsets.push(closed);
                        trans.push(Vec::new());
                        depth.push(d + 1);
                        id
                    }
                };
                edges.push((lid, id));
            }
            hit.clear();
            trans[next] = edges;
            next += 1;
        }

        DetDfa {
            trans,
            labels,
            initial: 0,
            depth,
            bound,
            complete: lts.complete,
            stable,
        }
    }

    /// Map each of `a`'s label ids to the matching id in `b` (or
    /// `u32::MAX` when `b` lacks the label) — a linear merge of the two
    /// sorted label tables.
    fn label_map(a: &DetDfa, b: &DetDfa) -> Vec<u32> {
        let mut map = vec![u32::MAX; a.labels.len()];
        let (mut i, mut j) = (0usize, 0usize);
        while i < a.labels.len() && j < b.labels.len() {
            match a.labels[i].cmp(&b.labels[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    map[i] = j as u32;
                    i += 1;
                    j += 1;
                }
            }
        }
        map
    }

    /// Enumerate the full bounded trace set (for reports). Every path of
    /// the deterministic automaton is one distinct trace, so this is a
    /// plain DFS with no state-set cloning.
    pub fn trace_set(&self) -> TraceSet {
        let mut traces: BTreeSet<Vec<Label>> = BTreeSet::new();
        let mut path: Vec<Label> = Vec::new();
        traces.insert(Vec::new());
        self.enumerate(self.initial, 0, &mut path, &mut traces);
        TraceSet {
            traces,
            max_len: self.bound,
            complete: self.complete,
        }
    }

    fn enumerate(&self, d: u32, len: usize, path: &mut Vec<Label>, out: &mut BTreeSet<Vec<Label>>) {
        if len >= self.bound {
            return;
        }
        for &(l, t) in &self.trans[d as usize] {
            path.push(self.labels[l as usize].clone());
            out.insert(path.clone());
            self.enumerate(t, len + 1, path, out);
            path.pop();
        }
    }

    /// The number of distinct traces up to the bound, the empty trace
    /// included: `trace_set().traces.len()` without building the set.
    /// Every path of the deterministic automaton is one trace, so this
    /// counts paths, one level of remaining length at a time (saturating
    /// at `u64::MAX`).
    pub fn trace_count(&self) -> u64 {
        // paths[d] = paths of length ≤ r from state d, for r = 0, 1, …
        let mut paths = vec![1u64; self.trans.len()];
        for _ in 0..self.bound {
            paths = self
                .trans
                .iter()
                .map(|es| {
                    es.iter()
                        .fold(1u64, |n, &(_, t)| n.saturating_add(paths[t as usize]))
                })
                .collect();
        }
        paths[self.initial as usize]
    }

    /// Do `a` and `b` have the same stable failures up to the common
    /// bound? The same verdict as [`crate::failures::failures_equal`] on
    /// the two LTSs' [`crate::failures::failures`], decided by a BFS over
    /// the product that compares each reachable pair once:
    ///
    /// * a trace's refusals depend only on the ε-closed subset it
    ///   reaches, so they are compared per product pair;
    /// * over the union alphabet `U` a stable state `s` refuses exactly
    ///   `U \ init(s)`, so `X ⊆ Y ⇔ init(s) ⊇ init(t)`: maximal refusals
    ///   are the minimal initials sets, and one side's refusals are all
    ///   subsumed by the other's when each of its minimal initials sets
    ///   has a subset among the other's;
    /// * a trace only one system has pairs that system's subset with ⊥,
    ///   which has no stable member: it differs exactly when the subset
    ///   has one.
    pub fn failures_equal(a: &DetDfa, b: &DetDfa) -> bool {
        let bound = a.bound.min(b.bound);
        let (map_a, map_b, n) = Self::union_index(a, b);
        let (sa, sb) = (a.stable.remap(&map_a, n), b.stable.remap(&map_b, n));
        let refusals_equal = |da: u32, db: u32| {
            let (ra, rb) = (sa.range(da), sb.range(db));
            if ra.is_empty() || rb.is_empty() {
                return ra.is_empty() == rb.is_empty();
            }
            let covered = |x: &Antichains, rx: &Range<usize>, y: &Antichains, ry: &Range<usize>| {
                rx.clone()
                    .all(|i| ry.clone().any(|j| subset(y.set(j), x.set(i))))
            };
            covered(&sa, &ra, &sb, &rb) && covered(&sb, &rb, &sa, &ra)
        };
        // BFS over the product; each pair compared and expanded at its
        // minimal depth, which dominates any later (deeper) visit.
        let mut seen: FxHashSet<(u32, u32)> = FxHashSet::default();
        let mut frontier: Vec<(u32, u32)> = vec![(a.initial, b.initial)];
        seen.insert((a.initial, b.initial));
        for level in 0..=bound {
            let mut next: Vec<(u32, u32)> = Vec::new();
            for (da, db) in frontier {
                if !refusals_equal(da, db) {
                    return false;
                }
                if level == bound {
                    continue;
                }
                // merge the two successor lists by union label id
                let (ea, eb) = (a.moves(da), b.moves(db));
                let (mut i, mut j) = (0, 0);
                while i < ea.len() || j < eb.len() {
                    let la = ea.get(i).map_or(u32::MAX, |&(l, _)| map_a[l as usize]);
                    let lb = eb.get(j).map_or(u32::MAX, |&(l, _)| map_b[l as usize]);
                    let pair = match la.cmp(&lb) {
                        std::cmp::Ordering::Less => (ea[i].1, BOTTOM),
                        std::cmp::Ordering::Greater => (BOTTOM, eb[j].1),
                        std::cmp::Ordering::Equal => (ea[i].1, eb[j].1),
                    };
                    i += usize::from(la <= lb);
                    j += usize::from(lb <= la);
                    if seen.insert(pair) {
                        next.push(pair);
                    }
                }
            }
            if next.is_empty() {
                break;
            }
            frontier = next;
        }
        true
    }

    /// The observable moves of state `d` (none for ⊥).
    fn moves(&self, d: u32) -> &[(u32, u32)] {
        if d == BOTTOM {
            &[]
        } else {
            &self.trans[d as usize]
        }
    }

    /// The union of the two sorted label tables: each side's label ids
    /// mapped to their ids in the union, and the union's size — a linear
    /// merge like [`DetDfa::label_map`].
    fn union_index(a: &DetDfa, b: &DetDfa) -> (Vec<u32>, Vec<u32>, usize) {
        let mut map_a = Vec::with_capacity(a.labels.len());
        let mut map_b = Vec::with_capacity(b.labels.len());
        let (mut i, mut j, mut n) = (0usize, 0usize, 0u32);
        while i < a.labels.len() || j < b.labels.len() {
            let ord = match (a.labels.get(i), b.labels.get(j)) {
                (Some(x), Some(y)) => x.cmp(y),
                (Some(_), None) => std::cmp::Ordering::Less,
                _ => std::cmp::Ordering::Greater,
            };
            if ord.is_le() {
                map_a.push(n);
                i += 1;
            }
            if ord.is_ge() {
                map_b.push(n);
                j += 1;
            }
            n += 1;
        }
        (map_a, map_b, n as usize)
    }

    /// Are the bounded trace sets of `a` and `b` equal up to the smaller
    /// of the two bounds? Returns `(equal, qualified)` with the same
    /// meaning as [`crate::traces::trace_equal`]: `qualified` is true
    /// when either underlying LTS was truncated.
    pub fn equal(a: &DetDfa, b: &DetDfa) -> (bool, bool) {
        let bound = a.bound.min(b.bound);
        let qualified = !a.complete || !b.complete;
        let map = Self::label_map(a, b);
        // BFS over the product; each pair expanded at its minimal depth,
        // which dominates any later (deeper) visit.
        let mut seen: FxHashSet<(u32, u32)> = FxHashSet::default();
        let mut frontier: Vec<(u32, u32)> = vec![(a.initial, b.initial)];
        seen.insert((a.initial, b.initial));
        for _level in 0..bound {
            let mut next: Vec<(u32, u32)> = Vec::new();
            for (da, db) in frontier {
                let ea = &a.trans[da as usize];
                let eb = &b.trans[db as usize];
                if ea.len() != eb.len() {
                    return (false, qualified);
                }
                for (&(la, ta), &(lb, tb)) in ea.iter().zip(eb.iter()) {
                    if map[la as usize] != lb {
                        return (false, qualified);
                    }
                    if seen.insert((ta, tb)) {
                        next.push((ta, tb));
                    }
                }
            }
            if next.is_empty() {
                return (true, qualified);
            }
            frontier = next;
        }
        (true, qualified)
    }

    /// The lexicographically least trace (by [`Label`] order, shorter
    /// prefixes first) of `a`, up to the common bound, that `b` does not
    /// have — bit-for-bit the witness
    /// [`crate::traces::first_difference`] finds on materialized sets.
    pub fn first_difference(a: &DetDfa, b: &DetDfa) -> Option<Vec<Label>> {
        let bound = a.bound.min(b.bound);
        let map = Self::label_map(a, b);
        // memo: per product pair, the largest remaining step budget
        // already verified difference-free.
        let mut verified: FxHashMap<(u32, u32), usize> = FxHashMap::default();
        let mut path: Vec<u32> = Vec::new();
        if Self::diff_walk(
            a,
            b,
            &map,
            a.initial,
            b.initial,
            bound,
            &mut path,
            &mut verified,
        ) {
            Some(
                path.into_iter()
                    .map(|l| a.labels[l as usize].clone())
                    .collect(),
            )
        } else {
            None
        }
    }

    /// Label-ordered DFS; returns true when `path` holds a trace of `a`
    /// missing from `b`. Since the automata's successor lists are sorted
    /// by label and trace sets are prefix-closed, the first hit of the
    /// preorder walk is the lexicographically least missing trace.
    #[allow(clippy::too_many_arguments)] // internal walker, flat state
    fn diff_walk(
        a: &DetDfa,
        b: &DetDfa,
        map: &[u32],
        da: u32,
        db: u32,
        remaining: usize,
        path: &mut Vec<u32>,
        verified: &mut FxHashMap<(u32, u32), usize>,
    ) -> bool {
        if remaining == 0 {
            return false;
        }
        if let Some(&k) = verified.get(&(da, db)) {
            if k >= remaining {
                return false;
            }
        }
        let eb = &b.trans[db as usize];
        for &(la, ta) in &a.trans[da as usize] {
            let lb = map[la as usize];
            let hit = if lb == u32::MAX {
                Err(())
            } else {
                eb.binary_search_by_key(&lb, |&(l, _)| l).map_err(|_| ())
            };
            match hit {
                Err(()) => {
                    path.push(la);
                    return true;
                }
                Ok(i) => {
                    path.push(la);
                    if Self::diff_walk(a, b, map, ta, eb[i].1, remaining - 1, path, verified) {
                        return true;
                    }
                    path.pop();
                }
            }
        }
        verified.insert((da, db), remaining);
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lts::build_term_lts;
    use crate::term::Env;
    use lotos::parser::parse_spec;

    fn lts_of(src: &str) -> Lts {
        let env = Env::new(parse_spec(src).unwrap());
        let root = env.root();
        build_term_lts(&env, root, 10_000).0
    }

    #[test]
    fn determinization_is_memoized() {
        // A WHERE A = a1;A — one subset, revisited at every depth but
        // expanded once.
        let l = lts_of("SPEC A WHERE PROC A = a1 ; A END ENDSPEC");
        let dfa = DetDfa::build(&l, 50);
        assert!(dfa.trans.len() <= 3, "{} det states", dfa.trans.len());
    }

    #[test]
    fn labels_are_sorted_and_edges_follow_them() {
        let dfa = DetDfa::build(&lts_of("SPEC b1;exit [] a1;exit ENDSPEC"), 4);
        let mut sorted = dfa.labels.clone();
        sorted.sort();
        assert_eq!(dfa.labels, sorted);
        for es in &dfa.trans {
            assert!(es.windows(2).all(|w| w[0].0 < w[1].0), "{es:?}");
        }
    }

    #[test]
    fn equal_systems_compare_equal() {
        let a = DetDfa::build(&lts_of("SPEC a1;exit [] b1;exit ENDSPEC"), 4);
        let b = DetDfa::build(&lts_of("SPEC b1;exit [] a1;exit ENDSPEC"), 4);
        assert_eq!(DetDfa::equal(&a, &b), (true, false));
        assert_eq!(DetDfa::first_difference(&a, &b), None);
    }

    #[test]
    fn difference_is_lex_least() {
        let a = DetDfa::build(&lts_of("SPEC a1;exit [] b1;exit ENDSPEC"), 4);
        let c = DetDfa::build(&lts_of("SPEC a1;exit ENDSPEC"), 4);
        let d = DetDfa::first_difference(&a, &c).unwrap();
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].to_string(), "b1");
        // and nothing is missing the other way... except nothing: c ⊆ a
        assert_eq!(DetDfa::first_difference(&c, &a), None);
    }

    #[test]
    fn internal_steps_are_transparent() {
        let a = DetDfa::build(&lts_of("SPEC a1;exit >> b2;exit ENDSPEC"), 6);
        let b = DetDfa::build(&lts_of("SPEC a1; b2; exit ENDSPEC"), 6);
        assert_eq!(DetDfa::equal(&a, &b), (true, false));
    }

    #[test]
    fn trace_set_matches_depth_bound() {
        let l = lts_of("SPEC A WHERE PROC A = a1 ; A END ENDSPEC");
        let ts = DetDfa::build(&l, 3).trace_set();
        assert_eq!(ts.traces.len(), 4); // ε, a1, a1a1, a1a1a1
        assert_eq!(ts.max_len, 3);
    }
}
