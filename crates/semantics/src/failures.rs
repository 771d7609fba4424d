//! Stable-failures semantics (bounded).
//!
//! Paper §3.3 compares candidate disable implementations up to *testing
//! equivalence*; the classical extensional characterization is CSP-style
//! **stable failures**: the pairs `(σ, X)` such that the system can reach,
//! after observable trace `σ`, a *stable* state (no internal transition)
//! that refuses every action in `X`. Trace-equivalent systems can differ
//! in failures — e.g. a system that internally commits to one branch of a
//! choice refuses the other branch afterwards, which the uncommitted
//! system never does. That is precisely how the §3 centralized baseline
//! differs from the service it implements (experiment E10), and why the
//! paper's alternative interrupt implementation "would still not be
//! testing equivalent" to LOTOS.
//!
//! Failures are computed over a finite [`Lts`] for traces up to a bound,
//! recording per trace the **maximal refusal sets** (every refusal is a
//! subset of a maximal one, so families compare by mutual subsumption).
//!
//! This module is the oracle: the verification harness decides the
//! same verdict with [`crate::detdfa::DetDfa::failures_equal`] on the
//! determinized pair its trace check already built, and the
//! differential tests hold the two to the same answer.

use crate::lts::Lts;
use crate::term::Label;
use std::collections::{BTreeMap, BTreeSet};

/// The bounded stable-failures of a system: per observable trace, the
/// antichain of maximal refusal sets.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FailureSet {
    /// trace → maximal refusals observed in stable states after it.
    pub per_trace: BTreeMap<Vec<Label>, Vec<BTreeSet<Label>>>,
    /// The alphabet refusals are drawn from (observable labels of the LTS).
    pub alphabet: BTreeSet<Label>,
    /// Trace-length bound used.
    pub max_len: usize,
    /// Whether the verdict is exact (LTS complete).
    pub complete: bool,
}

/// Compute bounded stable failures of `lts` for traces of length ≤
/// `max_len`.
pub fn failures(lts: &Lts, max_len: usize) -> FailureSet {
    let alphabet: BTreeSet<Label> = lts
        .alphabet()
        .into_iter()
        .filter(|l| !l.is_internal())
        .cloned()
        .collect();

    let closure = |seed: &BTreeSet<usize>| -> BTreeSet<usize> {
        let mut set = seed.clone();
        let mut stack: Vec<usize> = set.iter().copied().collect();
        while let Some(s) = stack.pop() {
            for (l, t) in &lts.trans[s] {
                if l.is_internal() && set.insert(*t) {
                    stack.push(*t);
                }
            }
        }
        set
    };

    let stable = |s: usize| lts.trans[s].iter().all(|(l, _)| !l.is_internal());
    let initials =
        |s: usize| -> BTreeSet<Label> { lts.trans[s].iter().map(|(l, _)| l.clone()).collect() };

    let mut per_trace: BTreeMap<Vec<Label>, Vec<BTreeSet<Label>>> = BTreeMap::new();
    let mut record = |trace: &Vec<Label>, set: &BTreeSet<usize>| {
        let mut refusals: Vec<BTreeSet<Label>> = Vec::new();
        for &s in set {
            if stable(s) {
                let ref_set: BTreeSet<Label> = alphabet.difference(&initials(s)).cloned().collect();
                // keep only maximal refusals
                if refusals.iter().any(|r| ref_set.is_subset(r)) {
                    continue;
                }
                refusals.retain(|r| !r.is_subset(&ref_set));
                refusals.push(ref_set);
            }
        }
        if !refusals.is_empty() {
            refusals.sort();
            per_trace.insert(trace.clone(), refusals);
        }
    };

    // subset construction, recording stable refusals per trace
    let mut init = BTreeSet::new();
    init.insert(lts.initial);
    let start = closure(&init);
    let empty_trace = Vec::new();
    record(&empty_trace, &start);
    let mut level: Vec<(BTreeSet<usize>, Vec<Label>)> = vec![(start, empty_trace)];

    for depth in 0..max_len {
        let mut next = Vec::new();
        for (set, trace) in level {
            let mut by_label: BTreeMap<Label, BTreeSet<usize>> = BTreeMap::new();
            for &s in &set {
                for (l, t) in &lts.trans[s] {
                    if !l.is_internal() {
                        by_label.entry(l.clone()).or_default().insert(*t);
                    }
                }
            }
            for (l, succs) in by_label {
                let closed = closure(&succs);
                let mut trace2 = trace.clone();
                trace2.push(l);
                record(&trace2, &closed);
                if depth + 1 < max_len {
                    next.push((closed, trace2));
                }
            }
        }
        level = next;
        if level.is_empty() {
            break;
        }
    }

    FailureSet {
        per_trace,
        alphabet,
        max_len,
        complete: lts.complete,
    }
}

/// Are two bounded failure families equal? Each side's refusals must be
/// subsumed by the other's (per trace, over the union alphabet — labels
/// absent from one system's alphabet are implicitly refused by it).
pub fn failures_equal(a: &FailureSet, b: &FailureSet) -> bool {
    if a.alphabet != b.alphabet {
        // normalize: a refusal family is relative to its alphabet; align
        // by extending each refusal with the labels the system never has
        let union: BTreeSet<Label> = a.alphabet.union(&b.alphabet).cloned().collect();
        let extend = |fs: &FailureSet| -> BTreeMap<Vec<Label>, Vec<BTreeSet<Label>>> {
            let missing: BTreeSet<Label> = union.difference(&fs.alphabet).cloned().collect();
            fs.per_trace
                .iter()
                .map(|(t, refs)| {
                    (
                        t.clone(),
                        refs.iter()
                            .map(|r| r.union(&missing).cloned().collect())
                            .collect(),
                    )
                })
                .collect()
        };
        return families_equal(&extend(a), &extend(b));
    }
    families_equal(&a.per_trace, &b.per_trace)
}

fn families_equal(
    a: &BTreeMap<Vec<Label>, Vec<BTreeSet<Label>>>,
    b: &BTreeMap<Vec<Label>, Vec<BTreeSet<Label>>>,
) -> bool {
    let subsumed = |x: &BTreeMap<Vec<Label>, Vec<BTreeSet<Label>>>,
                    y: &BTreeMap<Vec<Label>, Vec<BTreeSet<Label>>>| {
        x.iter().all(|(trace, refs)| match y.get(trace) {
            None => false,
            Some(yrefs) => refs.iter().all(|r| yrefs.iter().any(|yr| r.is_subset(yr))),
        })
    };
    subsumed(a, b) && subsumed(b, a)
}

/// The first trace whose refusals differ, for diagnostics.
pub fn first_failure_difference(a: &FailureSet, b: &FailureSet) -> Option<Vec<Label>> {
    let traces: BTreeSet<&Vec<Label>> = a.per_trace.keys().chain(b.per_trace.keys()).collect();
    for t in traces {
        let ar = a.per_trace.get(t);
        let br = b.per_trace.get(t);
        match (ar, br) {
            (Some(x), Some(y)) => {
                let sub = |p: &Vec<BTreeSet<Label>>, q: &Vec<BTreeSet<Label>>| {
                    p.iter().all(|r| q.iter().any(|s| r.is_subset(s)))
                };
                if !(sub(x, y) && sub(y, x)) {
                    return Some(t.clone());
                }
            }
            _ => return Some(t.clone()),
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lts::build_term_lts;
    use crate::term::Env;
    use lotos::parser::parse_expr;

    fn fail_of(src: &str, len: usize) -> FailureSet {
        let (spec, root) = parse_expr(src).unwrap();
        let env = Env::new(spec);
        let t = env.instantiate(root, 0);
        let (lts, _) = build_term_lts(&env, t, 10_000);
        failures(&lts, len)
    }

    #[test]
    fn external_choice_refuses_nothing_initially() {
        let f = fail_of("a1;exit [] b1;exit", 3);
        // initial stable state: refuses neither a1 nor b1, only δ
        let initial = &f.per_trace[&vec![]];
        for r in initial {
            assert!(!r.iter().any(|l| l.to_string() == "a1"));
            assert!(!r.iter().any(|l| l.to_string() == "b1"));
        }
    }

    #[test]
    fn internal_choice_refuses_a_branch() {
        // i;a [] i;b — after committing, one branch is refused
        let f = fail_of("i;a1;exit [] i;b1;exit", 3);
        let initial = &f.per_trace[&vec![]];
        let refuses = |name: &str| {
            initial
                .iter()
                .any(|r| r.iter().any(|l| l.to_string() == name))
        };
        assert!(refuses("a1"));
        assert!(refuses("b1"));
    }

    #[test]
    fn internal_vs_external_choice_not_failures_equal() {
        let ext = fail_of("a1;exit [] b1;exit", 3);
        let int = fail_of("i;a1;exit [] i;b1;exit", 3);
        assert!(!failures_equal(&ext, &int));
        assert_eq!(first_failure_difference(&ext, &int), Some(vec![]));
    }

    #[test]
    fn initial_tau_invisible_to_failures() {
        // i;a and a have the same stable failures (unlike ≈)
        let a = fail_of("a1;b1;exit", 4);
        let b = fail_of("i;a1;b1;exit", 4);
        assert!(failures_equal(&a, &b));
    }

    #[test]
    fn guarded_tau_absorbed() {
        let a = fail_of("a1;i;b1;exit", 4);
        let b = fail_of("a1;b1;exit", 4);
        assert!(failures_equal(&a, &b));
    }

    #[test]
    fn trace_equal_but_failures_differ() {
        // a;(b [] c)  vs  a;b [] a;c — the classic testing-inequivalent pair
        let x = fail_of("a1;(b1;exit [] c1;exit)", 3);
        let y = fail_of("a1;b1;exit [] a1;c1;exit", 3);
        assert!(!failures_equal(&x, &y));
        assert_eq!(
            first_failure_difference(&x, &y).map(|t| t.len()),
            Some(1) // after the a1
        );
    }

    #[test]
    fn failures_equal_is_reflexive_on_corpus() {
        for src in [
            "a1;exit",
            "a1;exit [] b1;exit",
            "a1;exit ||| b2;exit",
            "a1;b1;exit [> c1;exit",
            "exit >> a1;exit",
        ] {
            let f = fail_of(src, 4);
            assert!(failures_equal(&f, &f), "{src}");
        }
    }

    #[test]
    fn different_alphabets_compare_correctly() {
        // a1;exit vs b1;exit: both refuse the other's action everywhere
        let a = fail_of("a1;exit", 2);
        let b = fail_of("b1;exit", 2);
        assert!(!failures_equal(&a, &b));
    }
}
