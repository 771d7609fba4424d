//! # `semantics` — operational semantics for the specification language
//!
//! The behavioural substrate of the reproduction: Basic-LOTOS structured
//! operational semantics for the language of the `lotos` crate, plus the
//! machinery the paper's Section 5 correctness argument needs —
//!
//! * [`term`] — runtime terms ([`term::RTerm`]), transition labels
//!   ([`term::Label`]), process environments with lazy unfolding, and the
//!   process-occurrence numbering of paper §3.5 ([`term::OccTable`]);
//! * [`sos`] — the transition relation (all of Annex A's operators,
//!   including `exit`/δ, `>>`, `[>` and `hide`);
//! * [`lts`] — explicit finite LTS construction with state caps;
//! * [`bisim`] — strong and weak (observation) bisimilarity by partition
//!   refinement — the checker behind the Annex A law corpus and the
//!   finite instances of the Section 5 theorem;
//! * [`traces`] — bounded observable trace sets for the infinite-state
//!   cases (unrestricted recursion makes full checking undecidable);
//! * [`backend`] — the one entity stepper every engine drives: the
//!   interned [`engine`] or a table from [`lower`], behind one API, and
//!   the one rule for which of its offers may fire;
//! * [`bigstack`] — deep recursion on one reused 256 MiB-stack worker
//!   per calling thread.
//!
//! ## Example — law I1 (`a;i;B = a;B`)
//!
//! ```
//! use lotos::parser::parse_expr;
//! use semantics::term::Env;
//! use semantics::lts::build_term_lts;
//! use semantics::bisim::weak_equiv;
//!
//! let (sx, rx) = parse_expr("a1; i; b1; exit").unwrap();
//! let (sy, ry) = parse_expr("a1; b1; exit").unwrap();
//! let (ex, ey) = (Env::new(sx), Env::new(sy));
//! let tx = ex.instantiate(rx, 0);
//! let ty = ey.instantiate(ry, 0);
//! let (lx, _) = build_term_lts(&ex, tx, 1000);
//! let (ly, _) = build_term_lts(&ey, ty, 1000);
//! assert_eq!(weak_equiv(&lx, &ly), Some(true));
//! ```

pub mod backend;
pub mod bigstack;
pub mod bisim;
pub mod condense;
pub mod detdfa;
pub mod dot;
pub mod engine;
pub mod explore;
pub mod failures;
pub mod fxhash;
/// The workspace's shared non-cryptographic hasher (FxHash). Downstream
/// crates (`runtime` session/state hashing, exploration shard selection)
/// use this alias instead of duplicating the hasher:
/// [`hash::FxHashMap`]/[`hash::FxHashSet`] for keyed collections,
/// [`hash::fx_hash`] for one-shot hashing (e.g. deriving per-link RNG
/// seeds from a session seed).
pub use fxhash as hash;
pub mod json;
pub mod lower;
pub mod lts;
#[doc(hidden)]
pub mod naive;
pub mod sos;
pub mod term;
pub mod traces;

pub use bisim::{
    observation_congruent, observation_congruent_threads, strong_equiv, strong_equiv_threads,
    weak_and_congruent_threads, weak_equiv, weak_equiv_threads,
};
pub use condense::SaturatedView;
pub use detdfa::DetDfa;
pub use dot::to_dot;
pub use engine::{Engine, TermArena, TermId, TermNode};
pub use explore::{build_lts, ExploreConfig, ParSystem};
pub use failures::{failures, failures_equal, first_failure_difference, FailureSet};
pub use lower::{
    lower_entities, lower_entity, CompiledEntity, CompiledSet, LabelTpl, LowerConfig, LowerError,
    OccBase, OccSrc,
};
pub use lts::{build_term_lts, Lts};
pub use sos::transitions;
pub use term::{hide, Env, Label, OccTable, RTerm};
pub use traces::{first_difference, observable_traces, trace_equal, TraceSet};
