//! Arena-based abstract syntax tree for the specification language.
//!
//! The grammar (paper Table 1, plus the extension rules 9₁–9₄) is
//! stratified purely to encode operator precedence; the AST collapses the
//! chain productions into one expression type with eight constructors.
//! Behaviour expressions live in a flat arena (`Vec<Expr>`) owned by a
//! [`Spec`]; a [`NodeId`] is an index into that arena. Side tables indexed
//! by `NodeId` carry the paper's synthesized attributes (`SP`, `EP`, `AP`)
//! and the preorder node numbering `N` used to identify synchronization
//! messages (Section 4.1).

use crate::event::{Event, SyncSet};
use crate::place::{PlaceId, PlaceSet};
use std::fmt;

/// Index of a behaviour-expression node in a [`Spec`]'s arena.
pub type NodeId = u32;

/// Index of a process definition in a [`Spec`]'s flat process table.
pub type ProcIdx = u32;

/// A behaviour expression node.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Expr {
    /// `exit` — successful termination (offers δ).
    Exit,
    /// `stop` — inaction. Not part of the paper's service grammar, but
    /// needed as a semantic normal form and accepted in protocol specs.
    Stop,
    /// `empty` — the derivation algorithm's "no actions here" placeholder
    /// (paper Section 4.2). Eliminated by the simplifier; must not appear
    /// in service specifications.
    Empty,
    /// `event ; B` — action prefix (rules 16, 17; `i ; B` from Section 2).
    Prefix { event: Event, then: NodeId },
    /// `B1 [] B2` — choice (rules 14, 9₂).
    Choice { left: NodeId, right: NodeId },
    /// `B1 |[G]| B2` / `B1 ||| B2` / `B1 || B2` — parallel (rules 11–12).
    Par {
        sync: SyncSet,
        left: NodeId,
        right: NodeId,
    },
    /// `B1 >> B2` — enabling / sequential composition (rule 7).
    Enable { left: NodeId, right: NodeId },
    /// `B1 [> B2` — disabling (rule 9₁).
    Disable { left: NodeId, right: NodeId },
    /// `P` — process instantiation (rule 18). `proc` is filled by name
    /// resolution ([`Spec::resolve`]).
    ///
    /// `tag` identifies the invocation *site* for the process-occurrence
    /// numbering of paper §3.5. For service specifications it is 0 (the
    /// node's own id serves as the site identity); the derivation sets it
    /// to the service-tree number `N` of the originating call, so that
    /// every derived entity computes the *same* occurrence number for
    /// corresponding instances without exchanging extra messages.
    Call {
        name: String,
        proc: Option<ProcIdx>,
        tag: u32,
    },
}

/// A `Def_block`: a behaviour expression together with the process
/// definitions of its `WHERE` clause (rules 2–3).
#[derive(Clone, Debug, PartialEq, Eq, Hash, Default)]
pub struct DefBlock {
    /// The block's behaviour expression.
    pub expr: NodeId,
    /// Processes defined in this block's `WHERE` clause, in source order.
    pub procs: Vec<ProcIdx>,
}

/// A process definition `PROC Id = Def_block END` (rule 6).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct ProcDef {
    /// Process identifier (capitalized, per Section 2 convention).
    pub name: String,
    /// The process body.
    pub body: DefBlock,
    /// Enclosing process (the one whose `WHERE` clause defines this one),
    /// or `None` for top-level definitions. Used for scoped name lookup.
    pub parent: Option<ProcIdx>,
}

/// A complete specification `SPEC Def_block ENDSPEC` (rule 1).
#[derive(Clone, Debug, Default, Hash)]
pub struct Spec {
    nodes: Vec<Expr>,
    /// All process definitions, flattened; scoping is recorded in
    /// [`ProcDef::parent`].
    pub procs: Vec<ProcDef>,
    /// The top-level definition block.
    pub top: DefBlock,
}

impl Spec {
    /// Create an empty specification (arena starts with no nodes; the
    /// caller must set `top` after building the expression).
    pub fn new() -> Spec {
        Spec::default()
    }

    /// Number of nodes in the arena.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Access a node.
    pub fn node(&self, id: NodeId) -> &Expr {
        &self.nodes[id as usize]
    }

    /// Mutable access to a node.
    pub fn node_mut(&mut self, id: NodeId) -> &mut Expr {
        &mut self.nodes[id as usize]
    }

    /// Append a node to the arena, returning its id.
    pub fn add(&mut self, e: Expr) -> NodeId {
        let id = self.nodes.len() as NodeId;
        self.nodes.push(e);
        id
    }

    // ---- convenience builders -------------------------------------------

    /// `exit`
    pub fn exit(&mut self) -> NodeId {
        self.add(Expr::Exit)
    }

    /// `stop`
    pub fn stop(&mut self) -> NodeId {
        self.add(Expr::Stop)
    }

    /// `empty`
    pub fn empty(&mut self) -> NodeId {
        self.add(Expr::Empty)
    }

    /// `event ; then`
    pub fn prefix(&mut self, event: Event, then: NodeId) -> NodeId {
        self.add(Expr::Prefix { event, then })
    }

    /// Service primitive prefix `name_place ; then`.
    pub fn prim(&mut self, name: &str, place: PlaceId, then: NodeId) -> NodeId {
        self.prefix(Event::prim(name, place), then)
    }

    /// Chain of primitives ending in `exit`: `a_p ; b_q ; ... ; exit`.
    pub fn prim_seq(&mut self, evs: &[(&str, PlaceId)]) -> NodeId {
        let mut t = self.exit();
        for (name, place) in evs.iter().rev() {
            t = self.prim(name, *place, t);
        }
        t
    }

    /// `left [] right`
    pub fn choice(&mut self, left: NodeId, right: NodeId) -> NodeId {
        self.add(Expr::Choice { left, right })
    }

    /// `left ||| right`
    pub fn interleave(&mut self, left: NodeId, right: NodeId) -> NodeId {
        self.add(Expr::Par {
            sync: SyncSet::Interleave,
            left,
            right,
        })
    }

    /// `left |[sync]| right`
    pub fn par(&mut self, sync: SyncSet, left: NodeId, right: NodeId) -> NodeId {
        self.add(Expr::Par { sync, left, right })
    }

    /// `left >> right`
    pub fn enable(&mut self, left: NodeId, right: NodeId) -> NodeId {
        self.add(Expr::Enable { left, right })
    }

    /// `left [> right`
    pub fn disable(&mut self, left: NodeId, right: NodeId) -> NodeId {
        self.add(Expr::Disable { left, right })
    }

    /// Process instantiation `name` (unresolved; call [`Spec::resolve`]).
    pub fn call(&mut self, name: &str) -> NodeId {
        self.add(Expr::Call {
            name: name.to_string(),
            proc: None,
            tag: 0,
        })
    }

    /// Process instantiation with an explicit invocation-site tag (used by
    /// the derivation to propagate the service-tree call number; see
    /// [`Expr::Call`]).
    pub fn call_tagged(&mut self, name: &str, proc: Option<ProcIdx>, tag: u32) -> NodeId {
        self.add(Expr::Call {
            name: name.to_string(),
            proc,
            tag,
        })
    }

    /// Define a process and return its index. `parent` is the enclosing
    /// process for scoped lookup.
    pub fn define_proc(&mut self, name: &str, body: DefBlock, parent: Option<ProcIdx>) -> ProcIdx {
        let idx = self.procs.len() as ProcIdx;
        self.procs.push(ProcDef {
            name: name.to_string(),
            body,
            parent,
        });
        idx
    }

    // ---- name resolution -------------------------------------------------

    /// Look up process `name` visible from scope `from` (a process index,
    /// or `None` for the top level). Search order: the `WHERE` clause of
    /// the current scope, then enclosing scopes, then the top-level block.
    pub fn lookup_proc(&self, name: &str, from: Option<ProcIdx>) -> Option<ProcIdx> {
        let mut scope = from;
        loop {
            let block = match scope {
                Some(p) => &self.procs[p as usize].body,
                None => &self.top,
            };
            // A process's own WHERE clause, and the process itself (to
            // allow direct self-recursion `PROC A = ... A ... END`).
            for &pi in &block.procs {
                if self.procs[pi as usize].name == name {
                    return Some(pi);
                }
            }
            if let Some(p) = scope {
                if self.procs[p as usize].name == name {
                    return Some(p);
                }
                scope = self.procs[p as usize].parent;
            } else {
                return None;
            }
        }
    }

    /// Resolve every `Call` node to a process index. Returns the list of
    /// unresolved names (empty on success).
    pub fn resolve(&mut self) -> Vec<String> {
        let mut unresolved = Vec::new();
        // Determine, for every node, the scope it belongs to by walking
        // each block's expression tree.
        let mut scope_of: Vec<Option<Option<ProcIdx>>> = vec![None; self.nodes.len()];
        let mut stack: Vec<(NodeId, Option<ProcIdx>)> = vec![(self.top.expr, None)];
        for (pi, p) in self.procs.iter().enumerate() {
            stack.push((p.body.expr, Some(pi as ProcIdx)));
        }
        while let Some((id, scope)) = stack.pop() {
            if scope_of[id as usize].is_some() {
                continue;
            }
            scope_of[id as usize] = Some(scope);
            match &self.nodes[id as usize] {
                Expr::Prefix { then, .. } => stack.push((*then, scope)),
                Expr::Choice { left, right }
                | Expr::Par { left, right, .. }
                | Expr::Enable { left, right }
                | Expr::Disable { left, right } => {
                    stack.push((*left, scope));
                    stack.push((*right, scope));
                }
                _ => {}
            }
        }
        // Resolve calls using the computed scopes.
        #[allow(clippy::needless_range_loop)] // id is both index and NodeId
        for id in 0..self.nodes.len() {
            if let Expr::Call { name, .. } = &self.nodes[id] {
                let name = name.clone();
                let scope = scope_of[id].flatten();
                match self.lookup_proc(&name, scope) {
                    Some(pi) => {
                        if let Expr::Call { proc, .. } = &mut self.nodes[id] {
                            *proc = Some(pi);
                        }
                    }
                    None => unresolved.push(name),
                }
            }
        }
        unresolved
    }

    // ---- traversal helpers -----------------------------------------------

    /// Children of a node, in left-to-right order.
    pub fn children(&self, id: NodeId) -> Vec<NodeId> {
        match self.node(id) {
            Expr::Prefix { then, .. } => vec![*then],
            Expr::Choice { left, right }
            | Expr::Par { left, right, .. }
            | Expr::Enable { left, right }
            | Expr::Disable { left, right } => vec![*left, *right],
            _ => vec![],
        }
    }

    /// Preorder traversal of the expression tree rooted at `id`.
    pub fn preorder(&self, id: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        let mut stack = vec![id];
        while let Some(n) = stack.pop() {
            out.push(n);
            // push children reversed so left is visited first
            for c in self.children(n).into_iter().rev() {
                stack.push(c);
            }
        }
        out
    }

    /// The paper's preorder node numbering `N` (Section 4.1): assigns each
    /// node of the specification a unique integer, numbering the top-level
    /// expression first and then each process body, in definition order.
    /// Returns a table indexed by `NodeId` (0 = unnumbered/unreachable).
    pub fn number_nodes(&self) -> Vec<u32> {
        let mut n = vec![0u32; self.nodes.len()];
        let mut next = 1u32;
        let assign = |spec: &Spec, root: NodeId, n: &mut Vec<u32>, next: &mut u32| {
            for id in spec.preorder(root) {
                if n[id as usize] == 0 {
                    n[id as usize] = *next;
                    *next += 1;
                }
            }
        };
        assign(self, self.top.expr, &mut n, &mut next);
        for p in &self.procs {
            assign(self, p.body.expr, &mut n, &mut next);
        }
        n
    }

    /// All places mentioned by service-primitive events anywhere in the
    /// specification (including unreachable process bodies). The paper's
    /// `ALL` attribute is `AP(root)` after fixpoint evaluation; this richer
    /// set is used by sanity checks.
    pub fn mentioned_places(&self) -> PlaceSet {
        let mut s = PlaceSet::new();
        for e in &self.nodes {
            if let Expr::Prefix { event, .. } = e {
                if let Some(p) = event.place() {
                    s.insert(p);
                }
            }
        }
        s
    }

    /// All service-primitive events in the specification.
    pub fn primitives(&self) -> Vec<Event> {
        let mut out = Vec::new();
        for e in &self.nodes {
            if let Expr::Prefix { event, .. } = e {
                if event.is_prim() && !out.contains(event) {
                    out.push(event.clone());
                }
            }
        }
        out
    }

    /// Iterate over `(NodeId, &Expr)` pairs of the whole arena.
    pub fn iter_nodes(&self) -> impl Iterator<Item = (NodeId, &Expr)> {
        self.nodes.iter().enumerate().map(|(i, e)| (i as NodeId, e))
    }
}

impl fmt::Display for Spec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&crate::printer::print_spec(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Build Example 2 of the paper:
    /// `SPEC A WHERE PROC A = (ai;A >> bk;exit) [] (ai;bk;exit) END ENDSPEC`
    /// with i=1, k=2.
    fn example2() -> Spec {
        let mut s = Spec::new();
        // body of A
        let call_a = s.call("A");
        let a1 = s.prim("a", 1, call_a);
        let bk = s.prim_seq(&[("b", 2)]);
        let left = s.enable(a1, bk);
        let right = {
            let e = s.exit();
            let b = s.prim("b", 2, e);
            s.prim("a", 1, b)
        };
        let body = s.choice(left, right);
        let pa = s.define_proc(
            "A",
            DefBlock {
                expr: body,
                procs: vec![],
            },
            None,
        );
        let top_call = s.call("A");
        s.top = DefBlock {
            expr: top_call,
            procs: vec![pa],
        };
        s
    }

    #[test]
    fn build_and_resolve_example2() {
        let mut s = example2();
        let unresolved = s.resolve();
        assert!(unresolved.is_empty());
        // both Call nodes resolved to proc 0
        for (_, e) in s.iter_nodes() {
            if let Expr::Call { proc, .. } = e {
                assert_eq!(*proc, Some(0));
            }
        }
    }

    #[test]
    fn unresolved_call_reported() {
        let mut s = Spec::new();
        let c = s.call("MISSING");
        s.top = DefBlock {
            expr: c,
            procs: vec![],
        };
        let unresolved = s.resolve();
        assert_eq!(unresolved, vec!["MISSING".to_string()]);
    }

    #[test]
    fn scoped_lookup_prefers_inner() {
        // top: X WHERE PROC X = Y WHERE PROC Y = a1;exit END END
        //      and a top-level PROC Y = b2;exit END. The Y inside X must
        //      resolve to the inner definition.
        let mut s = Spec::new();
        let inner_body = s.prim_seq(&[("a", 1)]);
        let outer_y = s.prim_seq(&[("b", 2)]);
        let call_y_inner = s.call("Y");

        // inner Y is defined inside X; parent will be X's index (0).
        let x_idx: ProcIdx = 0;
        let y_inner = s.define_proc(
            "X",
            DefBlock {
                expr: call_y_inner,
                procs: vec![], // fill in below once we know inner Y's idx
            },
            None,
        );
        assert_eq!(y_inner, x_idx);
        let yi = s.define_proc(
            "Y",
            DefBlock {
                expr: inner_body,
                procs: vec![],
            },
            Some(x_idx),
        );
        s.procs[x_idx as usize].body.procs.push(yi);
        let yo = s.define_proc(
            "Y",
            DefBlock {
                expr: outer_y,
                procs: vec![],
            },
            None,
        );
        let call_x = s.call("X");
        s.top = DefBlock {
            expr: call_x,
            procs: vec![x_idx, yo],
        };
        let unresolved = s.resolve();
        assert!(unresolved.is_empty());
        // the call inside X's body resolves to the inner Y
        if let Expr::Call { proc, name, .. } = s.node(call_y_inner) {
            assert_eq!(name, "Y");
            assert_eq!(*proc, Some(yi));
        } else {
            panic!("expected call node");
        }
    }

    #[test]
    fn preorder_numbering_is_dense_and_unique() {
        let s = example2();
        let n = s.number_nodes();
        let mut seen: Vec<u32> = n.iter().copied().filter(|&x| x != 0).collect();
        seen.sort_unstable();
        // all reachable nodes numbered 1..=k with no duplicates
        for (i, v) in seen.iter().enumerate() {
            assert_eq!(*v, i as u32 + 1);
        }
        // root gets number 1
        assert_eq!(n[s.top.expr as usize], 1);
    }

    #[test]
    fn mentioned_places_and_primitives() {
        let s = example2();
        assert_eq!(s.mentioned_places(), crate::place::places([1, 2]));
        let prims = s.primitives();
        assert_eq!(prims.len(), 2);
        assert!(prims.contains(&Event::prim("a", 1)));
        assert!(prims.contains(&Event::prim("b", 2)));
    }

    #[test]
    fn children_and_preorder() {
        let mut s = Spec::new();
        let e = s.exit();
        let b = s.prim("b", 2, e);
        let e2 = s.exit();
        let a = s.prim("a", 1, e2);
        let ch = s.choice(a, b);
        assert_eq!(s.children(ch), vec![a, b]);
        let pre = s.preorder(ch);
        assert_eq!(pre[0], ch);
        assert_eq!(pre[1], a); // left subtree first
        assert!(pre.contains(&e) && pre.contains(&e2));
        assert_eq!(pre.len(), 5);
    }
}
