//! Runtime behaviour terms and process environments.
//!
//! The syntax trees of the `lotos` crate are static; executing them
//! requires (a) unfolding process instantiations and (b) resolving the
//! symbolic occurrence parameter `s` of synchronization messages to a
//! concrete occurrence number per process instance (paper §3.5).
//!
//! [`RTerm`] is the runtime term: an immutable, `Rc`-shared tree whose
//! message events carry concrete occurrence numbers and whose `Call`
//! leaves unfold lazily against an [`Env`]. Occurrence numbers are
//! interned from the pair *(parent occurrence, invocation-site tag)* in a
//! shared [`OccTable`]; since every derived entity reaches corresponding
//! invocation sites with the same tag (the service-tree number `N` stamped
//! by the derivation) and the same parent occurrence, all entities agree
//! on instance numbers without any extra message exchange — exactly the
//! "numbering scheme that generates unique process numbers" the paper
//! postulates.

use lotos::ast::{Expr, NodeId, ProcIdx, Spec};
use lotos::event::{Event, MsgId, SyncKind, SyncSet};
use lotos::place::PlaceId;
use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::rc::Rc;

/// A transition label (the paper's actions: `i`, δ, service primitives,
/// and message interactions).
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Label {
    /// The internal action `i`.
    I,
    /// Successful termination δ.
    Delta,
    /// Service primitive `name` at `place`.
    Prim { name: String, place: PlaceId },
    /// Send message `(occ, msg)` to place `to`.
    Send {
        to: PlaceId,
        msg: MsgId,
        occ: u32,
        kind: SyncKind,
    },
    /// Receive message `(occ, msg)` from place `from`.
    Recv {
        from: PlaceId,
        msg: MsgId,
        occ: u32,
        kind: SyncKind,
    },
}

impl Label {
    /// Is this the internal action?
    pub fn is_internal(&self) -> bool {
        matches!(self, Label::I)
    }
}

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Label::I => write!(f, "i"),
            Label::Delta => write!(f, "δ"),
            Label::Prim { name, place } => write!(f, "{name}{place}"),
            Label::Send { to, msg, occ, .. } => write!(f, "s{to}({occ},{msg})"),
            Label::Recv { from, msg, occ, .. } => write!(f, "r{from}({occ},{msg})"),
        }
    }
}

/// A runtime behaviour term. Structure mirrors [`lotos::ast::Expr`], with
/// events resolved to [`Label`]s and sharing via `Rc`.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum RTerm {
    /// Inaction.
    Stop,
    /// Successful termination (offers δ).
    Exit,
    /// `label ; term`.
    Prefix(Label, Rc<RTerm>),
    /// `t1 [] t2`.
    Choice(Rc<RTerm>, Rc<RTerm>),
    /// `t1 |[G]| t2`.
    Par(SyncSet, Rc<RTerm>, Rc<RTerm>),
    /// `t1 >> t2`.
    Enable(Rc<RTerm>, Rc<RTerm>),
    /// `t1 [> t2`.
    Disable(Rc<RTerm>, Rc<RTerm>),
    /// Lazy process instantiation. `occ` is the occurrence of the
    /// *calling* instance; `site` identifies the invocation site.
    Call { proc: ProcIdx, site: u32, occ: u32 },
    /// `hide G in t` — gates in `G` (service primitives) become `i`.
    Hide(Rc<Vec<(String, PlaceId)>>, Rc<RTerm>),
}

impl RTerm {
    /// Convenience: `Rc::new(self)`.
    pub fn rc(self) -> Rc<RTerm> {
        Rc::new(self)
    }
}

impl fmt::Display for RTerm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RTerm::Stop => write!(f, "stop"),
            RTerm::Exit => write!(f, "exit"),
            RTerm::Prefix(l, t) => write!(f, "{l}; {t}"),
            RTerm::Choice(a, b) => write!(f, "({a} [] {b})"),
            RTerm::Par(s, a, b) => write!(f, "({a} {s} {b})"),
            RTerm::Enable(a, b) => write!(f, "({a} >> {b})"),
            RTerm::Disable(a, b) => write!(f, "({a} [> {b})"),
            RTerm::Call { proc, occ, .. } => write!(f, "P{proc}@{occ}"),
            RTerm::Hide(g, t) => {
                write!(f, "hide ")?;
                for (i, (n, p)) in g.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{n}{p}")?;
                }
                write!(f, " in {t}")
            }
        }
    }
}

/// Shared occurrence-number interner (paper §3.5). The root instance has
/// occurrence 0; each invocation site reached under parent occurrence `c`
/// with site tag `t` deterministically maps to a fresh number.
#[derive(Debug, Default)]
pub struct OccTable {
    map: HashMap<(u32, u32), u32>,
    /// Reverse map: `rev[occ - 1]` is the `(parent, site)` pair that
    /// created occurrence `occ` (occurrence 0 is the root and has none).
    rev: Vec<(u32, u32)>,
    next: u32,
}

impl OccTable {
    /// Create a table; occurrence numbers start at 1 (0 = root).
    pub fn new() -> OccTable {
        OccTable {
            map: HashMap::new(),
            rev: Vec::new(),
            next: 1,
        }
    }

    /// Occurrence number of the instance created at site `site` by the
    /// instance with occurrence `parent`.
    pub fn child(&mut self, parent: u32, site: u32) -> u32 {
        *self.map.entry((parent, site)).or_insert_with(|| {
            let v = self.next;
            self.next += 1;
            self.rev.push((parent, site));
            v
        })
    }

    /// The `(parent, site)` pair that created occurrence `occ`, or `None`
    /// for the root (0) and unknown numbers.
    pub fn parent_site(&self, occ: u32) -> Option<(u32, u32)> {
        if occ == 0 {
            return None;
        }
        self.rev.get(occ as usize - 1).copied()
    }

    /// The invocation-site path of `occ`: the site tags from the root to
    /// the instance, outermost first (empty for the root). Site-tag paths
    /// are canonical across processes — two occurrence tables that grew in
    /// different demand orders still agree on every path — so they are the
    /// portable wire representation of an occurrence number.
    pub fn path_of(&self, occ: u32) -> Option<Vec<u32>> {
        let mut path = Vec::new();
        let mut cur = occ;
        while cur != 0 {
            let (parent, site) = self.parent_site(cur)?;
            path.push(site);
            cur = parent;
        }
        path.reverse();
        Some(path)
    }

    /// Resolve a site-tag path back to this table's occurrence number,
    /// interning any occurrences not yet demanded locally.
    pub fn resolve_path(&mut self, path: &[u32]) -> u32 {
        let mut cur = 0u32;
        for &site in path {
            cur = self.child(cur, site);
        }
        cur
    }
}

/// Execution environment: the specification providing process bodies,
/// plus the (possibly shared) occurrence table and an unfold cache.
pub struct Env {
    /// The specification whose processes this environment unfolds.
    pub spec: Spec,
    occ: Rc<RefCell<OccTable>>,
    unfold_cache: RefCell<HashMap<(ProcIdx, u32), Rc<RTerm>>>,
    /// Per process: does its body (transitively) contain
    /// occurrence-parameterized message events? Processes that do not —
    /// in particular every process of a *service* specification — are
    /// unfolded at occurrence 0, so plain recursion yields a finite state
    /// space instead of one fresh term per instance.
    occ_sensitive: Vec<bool>,
}

impl Env {
    /// Environment with a private occurrence table.
    pub fn new(spec: Spec) -> Env {
        Env::with_occ(spec, Rc::new(RefCell::new(OccTable::new())))
    }

    /// Environment sharing an occurrence table with other environments —
    /// required when several derived entities must agree on instance
    /// numbers (composition checking, simulation).
    pub fn with_occ(spec: Spec, occ: Rc<RefCell<OccTable>>) -> Env {
        let occ_sensitive = compute_occ_sensitivity(&spec);
        Env {
            spec,
            occ,
            unfold_cache: RefCell::new(HashMap::new()),
            occ_sensitive,
        }
    }

    /// The shared occurrence table handle.
    pub fn occ_handle(&self) -> Rc<RefCell<OccTable>> {
        Rc::clone(&self.occ)
    }

    /// The initial term of the environment's specification (its top-level
    /// expression, instantiated at root occurrence 0).
    pub fn root(&self) -> Rc<RTerm> {
        self.instantiate(self.spec.top.expr, 0)
    }

    /// Instantiate the static expression `node` under occurrence `occ`.
    pub fn instantiate(&self, node: NodeId, occ: u32) -> Rc<RTerm> {
        match self.spec.node(node) {
            Expr::Exit => RTerm::Exit.rc(),
            Expr::Stop => RTerm::Stop.rc(),
            // `empty` should be simplified away; treat a stray one as the
            // neutral `exit` (all the paper's elimination rules are the
            // unit laws of `exit`-like neutrality).
            Expr::Empty => RTerm::Exit.rc(),
            Expr::Prefix { event, then } => {
                let l = self.label_of(event, occ);
                RTerm::Prefix(l, self.instantiate(*then, occ)).rc()
            }
            Expr::Choice { left, right } => {
                RTerm::Choice(self.instantiate(*left, occ), self.instantiate(*right, occ)).rc()
            }
            Expr::Par { sync, left, right } => RTerm::Par(
                sync.clone(),
                self.instantiate(*left, occ),
                self.instantiate(*right, occ),
            )
            .rc(),
            Expr::Enable { left, right } => {
                RTerm::Enable(self.instantiate(*left, occ), self.instantiate(*right, occ)).rc()
            }
            Expr::Disable { left, right } => {
                RTerm::Disable(self.instantiate(*left, occ), self.instantiate(*right, occ)).rc()
            }
            Expr::Call { proc, tag, name } => {
                let proc = proc.unwrap_or_else(|| panic!("unresolved process `{name}` at runtime"));
                // Site identity: explicit tag when present (derived
                // entities), otherwise the node id itself (service specs).
                let site = if *tag != 0 { *tag } else { node + 1_000_000 };
                RTerm::Call { proc, site, occ }.rc()
            }
        }
    }

    /// Unfold a `Call` leaf: create (or fetch) the instance body under its
    /// fresh occurrence number. Processes without occurrence-sensitive
    /// events unfold at occurrence 0 (instance identity is irrelevant to
    /// their behaviour, and pinning it keeps recursion finite-state).
    pub fn unfold(&self, proc: ProcIdx, site: u32, occ: u32) -> Rc<RTerm> {
        let child = if self.occ_sensitive[proc as usize] {
            self.occ.borrow_mut().child(occ, site)
        } else {
            0
        };
        if let Some(t) = self.unfold_cache.borrow().get(&(proc, child)) {
            return Rc::clone(t);
        }
        let body = self.spec.procs[proc as usize].body.expr;
        let t = self.instantiate(body, child);
        self.unfold_cache
            .borrow_mut()
            .insert((proc, child), Rc::clone(&t));
        t
    }

    fn label_of(&self, event: &Event, occ: u32) -> Label {
        match event {
            Event::Internal => Label::I,
            Event::Prim { name, place } => Label::Prim {
                name: name.clone(),
                place: *place,
            },
            Event::Send {
                to,
                msg,
                occ: symbolic,
                kind,
            } => Label::Send {
                to: *to,
                msg: msg.clone(),
                occ: if *symbolic { occ } else { 0 },
                kind: *kind,
            },
            Event::Recv {
                from,
                msg,
                occ: symbolic,
                kind,
            } => Label::Recv {
                from: *from,
                msg: msg.clone(),
                occ: if *symbolic { occ } else { 0 },
                kind: *kind,
            },
        }
    }
}

/// Wrap a term in `hide G in ...` for a set of service-primitive gates.
pub fn hide(gates: Vec<(String, PlaceId)>, t: Rc<RTerm>) -> Rc<RTerm> {
    RTerm::Hide(Rc::new(gates), t).rc()
}

/// Which processes (transitively) contain occurrence-parameterized message
/// events? Fixpoint over the call graph.
pub(crate) fn compute_occ_sensitivity(spec: &Spec) -> Vec<bool> {
    let n = spec.procs.len();
    let mut sensitive = vec![false; n];
    // direct sensitivity + call edges
    let mut calls: Vec<Vec<ProcIdx>> = vec![Vec::new(); n];
    for (pi, p) in spec.procs.iter().enumerate() {
        for id in spec.preorder(p.body.expr) {
            match spec.node(id) {
                Expr::Prefix {
                    event: Event::Send { occ: true, .. } | Event::Recv { occ: true, .. },
                    ..
                } => {
                    sensitive[pi] = true;
                }
                Expr::Call { proc: Some(q), .. } => calls[pi].push(*q),
                _ => {}
            }
        }
    }
    // propagate: a caller of a sensitive process is itself sensitive (its
    // instances must keep distinct occurrence contexts for the callee).
    let mut changed = true;
    while changed {
        changed = false;
        for pi in 0..n {
            if !sensitive[pi] && calls[pi].iter().any(|&q| sensitive[q as usize]) {
                sensitive[pi] = true;
                changed = true;
            }
        }
    }
    sensitive
}

#[cfg(test)]
mod tests {
    use super::*;
    use lotos::parser::parse_spec;

    #[test]
    fn instantiate_simple() {
        let spec = parse_spec("SPEC a1; b2; exit ENDSPEC").unwrap();
        let env = Env::new(spec);
        let t = env.root();
        match &*t {
            RTerm::Prefix(Label::Prim { name, place }, rest) => {
                assert_eq!(name, "a");
                assert_eq!(*place, 1);
                assert!(matches!(&**rest, RTerm::Prefix(_, _)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn occurrence_numbers_deterministic() {
        let mut t = OccTable::new();
        let a = t.child(0, 7);
        let b = t.child(0, 9);
        let a2 = t.child(0, 7);
        assert_eq!(a, a2);
        assert_ne!(a, b);
        let nested = t.child(a, 7);
        assert_ne!(nested, a);
        assert_ne!(nested, b);
    }

    #[test]
    fn occurrence_paths_are_portable_across_demand_orders() {
        // Table A discovers (0,7) before (0,9); table B the other way
        // round. The raw numbers disagree, but site-tag paths translate
        // between them exactly.
        let mut a = OccTable::new();
        let mut b = OccTable::new();
        let a7 = a.child(0, 7);
        let _a9 = a.child(0, 9);
        let _b9 = b.child(0, 9);
        let b7 = b.child(0, 7);
        assert_ne!(a7, b7, "demand orders coincided; test is vacuous");
        let path = a.path_of(a7).unwrap();
        assert_eq!(path, vec![7]);
        assert_eq!(b.resolve_path(&path), b7);
        // nested instance, resolved into a table that never saw it
        let deep = a.child(a7, 31);
        let deep_path = a.path_of(deep).unwrap();
        assert_eq!(deep_path, vec![7, 31]);
        let b_deep = b.resolve_path(&deep_path);
        assert_eq!(b.path_of(b_deep).unwrap(), deep_path);
        assert_eq!(a.path_of(0), Some(Vec::new()));
        assert_eq!(a.parent_site(0), None);
        assert_eq!(a.path_of(1_000), None, "unknown occ must not resolve");
    }

    #[test]
    fn shared_occ_table_across_envs() {
        // two entities asking for the same (parent, site) chain get the
        // same occurrence number, regardless of order
        let occ = Rc::new(RefCell::new(OccTable::new()));
        let s1 = parse_spec("SPEC A WHERE PROC A = a1 ; A END ENDSPEC").unwrap();
        let s2 = parse_spec("SPEC A WHERE PROC A = b2 ; A END ENDSPEC").unwrap();
        let e1 = Env::with_occ(s1, Rc::clone(&occ));
        let e2 = Env::with_occ(s2, Rc::clone(&occ));
        let x = occ.borrow_mut().child(0, 42);
        let _ = (e1, e2);
        let y = occ.borrow_mut().child(0, 42);
        assert_eq!(x, y);
    }

    #[test]
    fn message_occurrence_resolution() {
        let spec = parse_spec("SPEC s2(s,7); exit ENDSPEC").unwrap();
        let env = Env::new(spec);
        // instantiate under occurrence 5: the symbolic `s` becomes 5
        let t = env.instantiate(env.spec.top.expr, 5);
        match &*t {
            RTerm::Prefix(Label::Send { occ, .. }, _) => assert_eq!(*occ, 5),
            other => panic!("unexpected {other:?}"),
        }
        // non-symbolic messages keep occurrence 0
        let spec0 = parse_spec("SPEC s2(7); exit ENDSPEC").unwrap();
        let env0 = Env::new(spec0);
        let t0 = env0.instantiate(env0.spec.top.expr, 5);
        match &*t0 {
            RTerm::Prefix(Label::Send { occ, .. }, _) => assert_eq!(*occ, 0),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn unfold_creates_fresh_instance() {
        let spec = parse_spec("SPEC A WHERE PROC A = s2(s,7); A END ENDSPEC").unwrap();
        let env = Env::new(spec);
        let root = env.root();
        let RTerm::Call { proc, site, occ } = &*root else {
            panic!("root should be a call");
        };
        let body = env.unfold(*proc, *site, *occ);
        // the unfolded body's message carries the *child* occurrence (≥1)
        match &*body {
            RTerm::Prefix(Label::Send { occ, .. }, _) => assert!(*occ >= 1),
            other => panic!("unexpected {other:?}"),
        }
        // unfolding again yields the cached identical term
        let body2 = env.unfold(*proc, *site, *occ);
        assert!(Rc::ptr_eq(&body, &body2));
    }

    #[test]
    fn display_forms() {
        let spec = parse_spec("SPEC a1;exit [] i;b2;exit ENDSPEC").unwrap();
        let env = Env::new(spec);
        assert_eq!(env.root().to_string(), "(a1; exit [] i; b2; exit)");
    }
}
