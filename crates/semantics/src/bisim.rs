//! Strong and weak bisimulation equivalence on finite LTSs.
//!
//! Paper Section 5 states the correctness theorem in terms of observation
//! congruence `≈`; its witness relation is a weak bisimulation. This
//! module decides (weak) bisimilarity of finite systems by **splitter
//! worklist partition refinement** (Kanellakis–Smolka style):
//!
//! * **strong** bisimilarity refines blocks on signatures
//!   `{(label, block-of-target)}`, recomputing only the blocks whose
//!   neighbourhood changed (a dirty-block worklist driven by predecessor
//!   lists) over *interned* `u32` label ids — no `Label` clone, sort or
//!   hash in the hot loop;
//! * **weak** bisimilarity is strong bisimilarity of the saturated
//!   system, decided on the **τ-SCC condensation**
//!   ([`crate::condense::SaturatedView`]): states of one τ-SCC are weakly
//!   bisimilar by construction, so refinement runs over condensed states
//!   and never materializes the O(n²) saturated edge list.
//!
//! Signature hashing inside a refinement round is parallelized across a
//! caller-provided thread count (the engine's `ExploreConfig.threads`
//! family); verdicts are deterministic — identical for every thread
//! count, and identical to the naive global-fixpoint oracle kept in
//! [`crate::naive`].
//!
//! Both checks run on the disjoint union of the two systems and compare
//! the blocks of the initial states. The verdict is only meaningful for
//! complete LTSs; [`weak_equiv`]/[`strong_equiv`] return `None` when
//! either input was truncated.

use crate::condense::SaturatedView;
use crate::fxhash::FxHashMap;
use crate::lts::Lts;
use crate::term::Label;

/// Below this many member signatures in one refinement round, parallel
/// hashing costs more than it saves.
const PAR_SIG_THRESHOLD: usize = 2_048;

/// Decide strong bisimilarity of the initial states of two complete LTSs.
/// `None` if either LTS is incomplete (truncated by a state cap).
pub fn strong_equiv(a: &Lts, b: &Lts) -> Option<bool> {
    strong_equiv_threads(a, b, 1)
}

/// [`strong_equiv`] with signature hashing spread over `threads` workers.
/// The verdict is identical for every thread count.
pub fn strong_equiv_threads(a: &Lts, b: &Lts, threads: usize) -> Option<bool> {
    if !a.complete || !b.complete {
        return None;
    }
    let (off, flat, na) = union_edges(a, b);
    let block = refine(&off, &flat, threads);
    Some(block[a.initial] == block[na + b.initial])
}

/// Decide weak (observation) bisimilarity of the initial states of two
/// complete LTSs. `None` if either is incomplete.
pub fn weak_equiv(a: &Lts, b: &Lts) -> Option<bool> {
    weak_equiv_threads(a, b, 1)
}

/// [`weak_equiv`] with signature hashing spread over `threads` workers.
/// Saturation is never materialized: both sides are condensed to their
/// τ-SCC DAGs and refinement runs on the condensed weak moves.
pub fn weak_equiv_threads(a: &Lts, b: &Lts, threads: usize) -> Option<bool> {
    weak_and_congruent_threads(a, b, threads).map(|(weak, _)| weak)
}

/// Decide **observation congruence** `≈` (the relation of the paper's
/// theorem and Annex A): weak bisimilarity plus the *root condition* —
/// every initial `i`-move of one system must be matched by a weak move of
/// the other that contains **at least one** `i` (Milner's `=` / rooted
/// weak bisimilarity). This is what makes `≈` substitutive in choice
/// contexts: `i;a ≉ a` although the two are weakly bisimilar.
///
/// `None` if either LTS is incomplete.
pub fn observation_congruent(a: &Lts, b: &Lts) -> Option<bool> {
    observation_congruent_threads(a, b, 1)
}

/// [`observation_congruent`] with parallel signature hashing.
pub fn observation_congruent_threads(a: &Lts, b: &Lts, threads: usize) -> Option<bool> {
    weak_and_congruent_threads(a, b, threads).map(|(_, congruent)| congruent)
}

/// Weak bisimilarity and observation congruence of the initial states of
/// two complete LTSs, `(≈ weak, ≈ rooted)`, from **one** refinement: the
/// root condition is read off the same weak-bisimulation partition that
/// gives the weak verdict. Congruence implies weak bisimilarity, so a
/// weak `false` returns `(false, false)` without the root check. `None`
/// if either LTS is incomplete.
pub fn weak_and_congruent_threads(a: &Lts, b: &Lts, threads: usize) -> Option<(bool, bool)> {
    if !a.complete || !b.complete {
        return None;
    }
    let va = SaturatedView::build(a);
    let vb = SaturatedView::build(b);
    let (off, flat, offset) = condensed_union(&va, &vb);
    let block = refine(&off, &flat, threads);
    // block of SCC `c` of side 0 (a) or side 1 (b)
    let block_of_scc = |side: usize, c: usize| block[side * offset + c];
    if block_of_scc(0, va.initial_scc as usize) != block_of_scc(1, vb.initial_scc as usize) {
        return Some((false, false));
    }
    // Root condition, both directions, on the strong systems:
    // x --i--> x' must be matched by y ==i·ε==> y' (≥ 1 internal step)
    // with x' and y' weakly bisimilar. The ε-successors of a state are
    // exactly the members of the SCCs its τ-SCC reaches, so the check
    // walks `reach` instead of saturated I-edges.
    let sides = [(a, &va), (b, &vb)];
    let root_ok = |xside: usize| {
        let yside = 1 - xside;
        let ((x, vx), (y, vy)) = (sides[xside], sides[yside]);
        x.trans[x.initial]
            .iter()
            .filter(|(l, _)| l.is_internal())
            .all(|(_, xt)| {
                let want = block_of_scc(xside, vx.scc_of[*xt] as usize);
                y.trans[y.initial].iter().any(|(yl, ym)| {
                    yl.is_internal()
                        && vy
                            .reach(vy.scc_of[*ym] as usize)
                            .iter()
                            .any(|&f| block_of_scc(yside, f as usize) == want)
                })
            })
    };
    let congruent = root_ok(0) && root_ok(1);
    Some((true, congruent))
}

// ---------------------------------------------------------------------
// Union construction with interned labels.
// ---------------------------------------------------------------------

/// Intern the labels of both LTSs (one interner per comparison) and build
/// the disjoint-union edge table over `u32` pairs in CSR form (state `s`
/// owns `flat[off[s]..off[s+1]]`). Returns `(off, flat, offset-of-b)`.
fn union_edges(a: &Lts, b: &Lts) -> (Vec<u32>, Vec<(u32, u32)>, usize) {
    let na = a.len();
    let n = na + b.len();
    let total: usize = a.trans.iter().chain(b.trans.iter()).map(Vec::len).sum();
    let mut ids: FxHashMap<&Label, u32> = FxHashMap::default();
    let mut off: Vec<u32> = Vec::with_capacity(n + 1);
    off.push(0);
    let mut flat: Vec<(u32, u32)> = Vec::with_capacity(total);
    for (lts, base) in [(a, 0usize), (b, na)] {
        for s in 0..lts.len() {
            for (l, t) in &lts.trans[s] {
                let next = ids.len() as u32;
                let id = *ids.entry(l).or_insert(next);
                flat.push((id, (base + *t) as u32));
            }
            off.push(flat.len() as u32);
        }
    }
    (off, flat, na)
}

/// Build the disjoint-union condensed edge table of two saturated views
/// in CSR form, remapping each view's local label ids through a shared
/// interner (ε stays id 0 on both sides).
fn condensed_union(va: &SaturatedView, vb: &SaturatedView) -> (Vec<u32>, Vec<(u32, u32)>, usize) {
    let sa = va.scc_count();
    let n = sa + vb.scc_count();
    let total = va.wedge_count() + vb.wedge_count();
    let mut ids: FxHashMap<&Label, u32> = FxHashMap::default();
    ids.insert(&Label::I, 0);
    let mut off: Vec<u32> = Vec::with_capacity(n + 1);
    off.push(0);
    let mut flat: Vec<(u32, u32)> = Vec::with_capacity(total);
    for (view, base) in [(va, 0usize), (vb, sa)] {
        // view-local label id → union label id
        let map: Vec<u32> = view
            .labels
            .iter()
            .map(|l| {
                let next = ids.len() as u32;
                *ids.entry(l).or_insert(next)
            })
            .collect();
        for c in 0..view.scc_count() {
            for &(l, f) in view.wedges(c) {
                flat.push((map[l as usize], (base + f as usize) as u32));
            }
            off.push(flat.len() as u32);
        }
    }
    (off, flat, sa)
}

// ---------------------------------------------------------------------
// Worklist partition refinement.
// ---------------------------------------------------------------------

/// One worker's output: a flat signature arena plus the `(start, end)`
/// range of each member's signature within it.
type SigChunk = (Vec<(u32, u32)>, Vec<(u32, u32)>);

/// Append the signatures of `members` (in order) to a flat buffer: each
/// member's sorted, deduplicated `(label id, block-of-target)` pairs
/// occupy `buf[a..e]` for the matching `(a, e)` pushed onto `ranges`.
/// One growable arena instead of one heap `Vec` per member per round.
fn fill_signatures_seq(
    members: &[u32],
    off: &[u32],
    flat: &[(u32, u32)],
    block: &[u32],
    buf: &mut Vec<(u32, u32)>,
    ranges: &mut Vec<(u32, u32)>,
) {
    for &s in members {
        let su = s as usize;
        let start = buf.len();
        buf.extend(
            flat[off[su] as usize..off[su + 1] as usize]
                .iter()
                .map(|&(l, t)| (l, block[t as usize])),
        );
        let seg = &mut buf[start..];
        seg.sort_unstable();
        // in-place dedup of the segment
        let mut w = usize::from(!seg.is_empty());
        for r in 1..seg.len() {
            if seg[r] != seg[w - 1] {
                seg[w] = seg[r];
                w += 1;
            }
        }
        buf.truncate(start + w);
        ranges.push((start as u32, (start + w) as u32));
    }
}

/// Compute the signatures of `members`, fanning the hashing out over
/// `threads` workers when the round is large enough. Worker chunks are
/// merged back in member order, so the buffer contents are identical for
/// every thread count.
fn fill_signatures(
    members: &[u32],
    off: &[u32],
    flat: &[(u32, u32)],
    block: &[u32],
    threads: usize,
    buf: &mut Vec<(u32, u32)>,
    ranges: &mut Vec<(u32, u32)>,
) {
    buf.clear();
    ranges.clear();
    if threads <= 1 || members.len() < PAR_SIG_THRESHOLD {
        fill_signatures_seq(members, off, flat, block, buf, ranges);
        return;
    }
    let workers = threads.min(members.len());
    let chunk = members.len().div_ceil(workers);
    let mut parts: Vec<SigChunk> = Vec::with_capacity(workers);
    std::thread::scope(|scope| {
        let handles: Vec<_> = members
            .chunks(chunk)
            .map(|part| {
                scope.spawn(move || {
                    let mut b = Vec::new();
                    let mut r = Vec::new();
                    fill_signatures_seq(part, off, flat, block, &mut b, &mut r);
                    (b, r)
                })
            })
            .collect();
        for h in handles {
            parts.push(h.join().expect("signature worker panicked"));
        }
    });
    for (b, r) in parts {
        let base = buf.len() as u32;
        buf.extend_from_slice(&b);
        ranges.extend(r.into_iter().map(|(a, e)| (a + base, e + base)));
    }
}

/// Coarsest partition of the CSR edge table (`off.len() - 1` states,
/// state `s` owning `flat[off[s]..off[s+1]]`) stable under the labelled
/// transition signatures — the strong-bisimilarity partition. Block ids
/// are arbitrary but the partition itself is canonical (it is the unique
/// coarsest stable refinement of the all-in-one partition), so verdicts
/// and quotients derived from it are deterministic for every `threads`.
pub(crate) fn refine(off: &[u32], flat: &[(u32, u32)], threads: usize) -> Vec<u32> {
    let n = off.len() - 1;
    if n == 0 {
        return Vec::new();
    }
    let mut block: Vec<u32> = vec![0; n];
    let mut members: Vec<Vec<u32>> = vec![(0..n as u32).collect()];

    // CSR predecessor lists (counting sort) drive the dirty-block
    // worklist. Duplicates only cost a dirty-flag re-check, so they are
    // kept rather than deduplicated.
    let mut pred_off = vec![0u32; n + 1];
    for &(_, t) in flat {
        pred_off[t as usize + 1] += 1;
    }
    for i in 1..=n {
        pred_off[i] += pred_off[i - 1];
    }
    let mut pred_flat = vec![0u32; flat.len()];
    let mut cursor: Vec<u32> = pred_off[..n].to_vec();
    for s in 0..n {
        for &(_, t) in &flat[off[s] as usize..off[s + 1] as usize] {
            let c = &mut cursor[t as usize];
            pred_flat[*c as usize] = s as u32;
            *c += 1;
        }
    }

    let mut dirty: Vec<bool> = vec![true];
    let mut queue: Vec<u32> = vec![0];
    let mut sig_buf: Vec<(u32, u32)> = Vec::new();
    let mut sig_ranges: Vec<(u32, u32)> = Vec::new();

    while let Some(x) = queue.pop() {
        let xu = x as usize;
        dirty[xu] = false;
        if members[xu].len() <= 1 {
            continue;
        }
        let mem = std::mem::take(&mut members[xu]);
        fill_signatures(
            &mem,
            off,
            flat,
            &block,
            threads,
            &mut sig_buf,
            &mut sig_ranges,
        );

        // Group members by signature in member order; the first group
        // keeps the block id, later groups get fresh ids.
        let mut group_of: FxHashMap<&[(u32, u32)], u32> = FxHashMap::default();
        let mut group_id: Vec<u32> = Vec::with_capacity(mem.len());
        for &(a, e) in sig_ranges.iter() {
            let next = group_of.len() as u32;
            let g = *group_of
                .entry(&sig_buf[a as usize..e as usize])
                .or_insert(next);
            group_id.push(g);
        }
        let n_groups = group_of.len();
        drop(group_of);
        if n_groups == 1 {
            members[xu] = mem;
            continue;
        }
        let mut groups: Vec<Vec<u32>> = vec![Vec::new(); n_groups];
        for (i, &s) in mem.iter().enumerate() {
            groups[group_id[i] as usize].push(s);
        }
        let mut moved: Vec<u32> = Vec::new();
        let mut iter = groups.into_iter();
        members[xu] = iter.next().unwrap();
        for g in iter {
            let nb = members.len() as u32;
            for &s in &g {
                block[s as usize] = nb;
                moved.push(s);
            }
            members.push(g);
            dirty.push(false);
        }
        // Every predecessor of a moved state sees a changed signature.
        for &s in &moved {
            let su = s as usize;
            for &p in &pred_flat[pred_off[su] as usize..pred_off[su + 1] as usize] {
                let pb = block[p as usize] as usize;
                if !dirty[pb] {
                    dirty[pb] = true;
                    queue.push(pb as u32);
                }
            }
        }
    }
    block
}

/// Renumber a block assignment canonically: blocks take ids in order of
/// first appearance over the state index. This reproduces exactly the
/// numbering the naive global-fixpoint refinement converges to, keeping
/// quotient LTSs ([`Lts::minimize`]) bit-for-bit stable.
pub(crate) fn canonicalize_partition(block: &mut [u32]) -> usize {
    let mut map: FxHashMap<u32, u32> = FxHashMap::default();
    for b in block.iter_mut() {
        let next = map.len() as u32;
        *b = *map.entry(*b).or_insert(next);
    }
    map.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lts::build_term_lts;
    use crate::term::{hide, Env};
    use lotos::parser::parse_expr;
    use std::rc::Rc;

    /// Weak-bisim check of two behaviour expressions sharing one spec
    /// context (no process definitions needed for the law corpus).
    fn weak_eq(x: &str, y: &str) -> bool {
        let (sx, rx) = parse_expr(x).unwrap();
        let (sy, ry) = parse_expr(y).unwrap();
        let ex = Env::new(sx);
        let ey = Env::new(sy);
        let tx = ex.instantiate(rx, 0);
        let ty = ey.instantiate(ry, 0);
        let (la, _) = build_term_lts(&ex, tx, 10_000);
        let (lb, _) = build_term_lts(&ey, ty, 10_000);
        weak_equiv(&la, &lb).expect("law corpus must be finite")
    }

    fn strong_eq(x: &str, y: &str) -> bool {
        let (sx, rx) = parse_expr(x).unwrap();
        let (sy, ry) = parse_expr(y).unwrap();
        let ex = Env::new(sx);
        let ey = Env::new(sy);
        let tx = ex.instantiate(rx, 0);
        let ty = ey.instantiate(ry, 0);
        let (la, _) = build_term_lts(&ex, tx, 10_000);
        let (lb, _) = build_term_lts(&ey, ty, 10_000);
        strong_equiv(&la, &lb).expect("law corpus must be finite")
    }

    #[test]
    fn identical_terms_equal() {
        assert!(strong_eq("a1;b2;exit", "a1;b2;exit"));
        assert!(weak_eq("a1;b2;exit", "a1;b2;exit"));
    }

    #[test]
    fn different_terms_differ() {
        assert!(!strong_eq("a1;exit", "b1;exit"));
        assert!(!weak_eq("a1;exit", "b1;exit"));
        assert!(!weak_eq("a1;exit", "a1;stop"));
    }

    #[test]
    fn weak_absorbs_internal_steps() {
        // a;i;B = a;B (law I1)
        assert!(weak_eq("a1;i;b1;exit", "a1;b1;exit"));
        assert!(!strong_eq("a1;i;b1;exit", "a1;b1;exit"));
    }

    #[test]
    fn internal_choice_not_equivalent_to_external() {
        // a [] i;b ≠ a [] b (the i commits)
        assert!(!weak_eq("a1;exit [] i;b1;exit", "a1;exit [] b1;exit"));
    }

    #[test]
    fn choice_laws_c1_c2_c3() {
        assert!(strong_eq("a1;exit [] b1;exit", "b1;exit [] a1;exit")); // C1
        assert!(strong_eq(
            "a1;exit [] (b1;exit [] c1;exit)",
            "(a1;exit [] b1;exit) [] c1;exit"
        )); // C2
        assert!(strong_eq("a1;exit [] a1;exit", "a1;exit")); // C3
    }

    #[test]
    fn parallel_laws_p1_p2() {
        assert!(strong_eq("a1;exit ||| b2;exit", "b2;exit ||| a1;exit")); // P1
        assert!(strong_eq(
            "a1;exit ||| (b2;exit ||| c3;exit)",
            "(a1;exit ||| b2;exit) ||| c3;exit"
        )); // P2
    }

    #[test]
    fn enable_laws_e1_e2() {
        // E1: exit >> B = i;B
        assert!(strong_eq("exit >> a1;exit", "i;a1;exit"));
        // E2: (B1 >> B2) >> B3 = B1 >> (B2 >> B3)
        assert!(weak_eq(
            "(a1;exit >> b1;exit) >> c1;exit",
            "a1;exit >> (b1;exit >> c1;exit)"
        ));
    }

    #[test]
    fn disable_laws_d1_d2() {
        // D1: B1 [> (B2 [> B3) = (B1 [> B2) [> B3
        assert!(strong_eq(
            "a1;exit [> (b1;exit [> c1;exit)",
            "(a1;exit [> b1;exit) [> c1;exit"
        ));
        // D2: (B1 [> B2) [] B2 = B1 [> B2
        assert!(strong_eq(
            "(a1;exit [> b1;exit) [] b1;exit",
            "a1;exit [> b1;exit"
        ));
        // exit [> B = exit [] B
        assert!(strong_eq("exit [> b1;exit", "exit [] b1;exit"));
    }

    #[test]
    fn internal_laws_i2_i3() {
        // I2: B [] i;B = i;B
        assert!(weak_eq("a1;exit [] i;a1;exit", "i;a1;exit"));
        // I3: a;(B1 [] i;B2) [] a;B2 = a;(B1 [] i;B2)
        assert!(weak_eq(
            "a1;(b1;exit [] i;c1;exit) [] a1;c1;exit",
            "a1;(b1;exit [] i;c1;exit)"
        ));
    }

    #[test]
    fn hiding_laws() {
        // H5: hide a in (a;B) = i; hide a in B
        let (s1, r1) = parse_expr("a1;b2;exit").unwrap();
        let e1 = Env::new(s1);
        let t1 = hide(vec![("a".into(), 1)], e1.instantiate(r1, 0));
        let (l1, _) = build_term_lts(&e1, t1, 1000);

        let (s2, r2) = parse_expr("i;b2;exit").unwrap();
        let e2 = Env::new(s2);
        let t2 = e2.instantiate(r2, 0);
        let (l2, _) = build_term_lts(&e2, t2, 1000);
        assert_eq!(strong_equiv(&l1, &l2), Some(true));

        // H4: hide list in B = B if list ∩ L(B) = ∅
        let (s3, r3) = parse_expr("a1;b2;exit").unwrap();
        let e3 = Env::new(s3);
        let plain = e3.instantiate(r3, 0);
        let hidden = hide(vec![("z".into(), 9)], Rc::clone(&plain));
        let (l3, _) = build_term_lts(&e3, plain, 1000);
        let (l4, _) = build_term_lts(&e3, hidden, 1000);
        assert_eq!(strong_equiv(&l3, &l4), Some(true));
    }

    #[test]
    fn truncated_inputs_give_none() {
        let (s, r) = parse_expr("a1;exit").unwrap();
        let e = Env::new(s);
        let t = e.instantiate(r, 0);
        let (mut l, _) = build_term_lts(&e, t, 1000);
        l.complete = false;
        let (s2, r2) = parse_expr("a1;exit").unwrap();
        let e2 = Env::new(s2);
        let t2 = e2.instantiate(r2, 0);
        let (l2, _) = build_term_lts(&e2, t2, 1000);
        assert_eq!(weak_equiv(&l, &l2), None);
        assert_eq!(strong_equiv(&l, &l2), None);
    }

    #[test]
    fn delta_is_observable() {
        // exit ≠ stop even weakly (δ must be matched)
        assert!(!weak_eq("exit", "stop"));
        // a;exit ≠ a;stop
        assert!(!weak_eq("a1;exit", "a1;stop"));
    }

    fn congruent(x: &str, y: &str) -> bool {
        let (sx, rx) = parse_expr(x).unwrap();
        let (sy, ry) = parse_expr(y).unwrap();
        let ex = Env::new(sx);
        let ey = Env::new(sy);
        let tx = ex.instantiate(rx, 0);
        let ty = ey.instantiate(ry, 0);
        let (la, _) = build_term_lts(&ex, tx, 10_000);
        let (lb, _) = build_term_lts(&ey, ty, 10_000);
        observation_congruent(&la, &lb).expect("finite")
    }

    #[test]
    fn congruence_distinguishes_initial_i() {
        // i;a ≈/ a although weakly bisimilar (Milner's classic)
        assert!(weak_eq("i;a1;exit", "a1;exit"));
        assert!(!congruent("i;a1;exit", "a1;exit"));
        // but i;B [] B = i;B IS congruent (law I2)
        assert!(congruent("a1;exit [] i;a1;exit", "i;a1;exit"));
    }

    #[test]
    fn congruence_on_non_initial_i() {
        // a;i;B = a;B holds as a congruence (law I1: the i is guarded)
        assert!(congruent("a1;i;b1;exit", "a1;b1;exit"));
    }

    #[test]
    fn congruence_matches_strong_equality() {
        assert!(congruent("a1;exit [] b1;exit", "b1;exit [] a1;exit"));
        assert!(!congruent("a1;exit", "b1;exit"));
    }

    #[test]
    fn congruence_e1() {
        // E1: exit >> B = i;B — both sides start with an i
        assert!(congruent("exit >> b1;exit", "i;b1;exit"));
        // ...and neither is congruent to the bare B
        assert!(!congruent("exit >> b1;exit", "b1;exit"));
    }

    #[test]
    fn congruence_root_condition_both_directions() {
        assert!(!congruent("a1;exit", "i;a1;exit"));
        assert!(!congruent("i;a1;exit", "a1;exit"));
        assert!(congruent("i;a1;exit", "i;i;a1;exit"));
    }

    #[test]
    fn threaded_variants_agree_with_sequential() {
        let pairs = [
            ("a1;i;b1;exit", "a1;b1;exit"),
            ("a1;exit [] i;b1;exit", "a1;exit [] b1;exit"),
            ("i;a1;exit", "a1;exit"),
            ("exit >> b1;exit", "i;b1;exit"),
        ];
        for (x, y) in pairs {
            let (sx, rx) = parse_expr(x).unwrap();
            let (sy, ry) = parse_expr(y).unwrap();
            let ex = Env::new(sx);
            let ey = Env::new(sy);
            let tx = ex.instantiate(rx, 0);
            let ty = ey.instantiate(ry, 0);
            let (la, _) = build_term_lts(&ex, tx, 10_000);
            let (lb, _) = build_term_lts(&ey, ty, 10_000);
            for threads in [2, 4] {
                assert_eq!(
                    weak_equiv(&la, &lb),
                    weak_equiv_threads(&la, &lb, threads),
                    "{x} vs {y} weak @{threads}"
                );
                assert_eq!(
                    strong_equiv(&la, &lb),
                    strong_equiv_threads(&la, &lb, threads),
                    "{x} vs {y} strong @{threads}"
                );
                assert_eq!(
                    observation_congruent(&la, &lb),
                    observation_congruent_threads(&la, &lb, threads),
                    "{x} vs {y} ≈ @{threads}"
                );
            }
        }
    }
}
