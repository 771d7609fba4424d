//! Backend selection for a run: which entities step from tables.
//!
//! The stepper itself — [`EntityBackend`], [`Backend`] and its
//! interpreted and compiled implementations — lives in
//! [`semantics::backend`], because the discrete-event simulator in `sim`
//! steps entities through it too. This module adds what needs the
//! runtime's [`BackendChoice`]: [`lower_for`] lowers each entity of a
//! derivation once per run, and every engine (deterministic, concurrent,
//! the hub and `serve_entity`) builds its backends from the result with
//! [`make_backend`].

use crate::config::BackendChoice;
use lotos::ast::Spec;
use lotos::place::PlaceId;
use semantics::lower::{lower_entity, CompiledEntity, LowerConfig};
use std::sync::Arc;

pub use semantics::backend::{make_backend, BState, Backend, EntityBackend, OfferView};

/// Lower each entity of a derivation once per run, honoring the backend
/// choice. Returns `None` per entity that must interpret:
///
/// * `Interpreted` — never lowers;
/// * `Auto` — lowers where possible, silently falls back where not
///   (unbounded recursion unrolling, see
///   [`semantics::lower::LowerError`]);
/// * `Compiled` — lowering failure is a hard error (the caller asked for
///   tables; running something else would silently change what is being
///   measured).
pub fn lower_for(
    entities: &[(PlaceId, Spec)],
    choice: BackendChoice,
) -> Result<Vec<Option<Arc<CompiledEntity>>>, String> {
    let cfg = LowerConfig::default();
    entities
        .iter()
        .map(|(place, spec)| match choice {
            BackendChoice::Interpreted => Ok(None),
            BackendChoice::Auto => Ok(lower_entity(spec, *place, &cfg).ok().map(Arc::new)),
            BackendChoice::Compiled => match lower_entity(spec, *place, &cfg) {
                Ok(e) => Ok(Some(Arc::new(e))),
                Err(e) => Err(format!(
                    "--backend compiled: entity at place {place} cannot be lowered ({e}); \
                     use --backend auto to fall back to interpretation"
                )),
            },
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lotos::parser::parse_spec;

    #[test]
    fn lower_for_honors_choice() {
        let spec = parse_spec("SPEC a1; exit ENDSPEC").unwrap();
        let ents = vec![(1u8, spec)];
        assert!(lower_for(&ents, BackendChoice::Interpreted).unwrap()[0].is_none());
        assert!(lower_for(&ents, BackendChoice::Auto).unwrap()[0].is_some());
        assert!(lower_for(&ents, BackendChoice::Compiled).unwrap()[0].is_some());
        // an unboundedly-spawning entity: auto falls back, compiled errors
        let diverging =
            parse_spec("SPEC A WHERE PROC A = a1; (b1; exit ||| A) END ENDSPEC").unwrap();
        let ents = vec![(1u8, diverging)];
        assert!(lower_for(&ents, BackendChoice::Auto).unwrap()[0].is_none());
        assert!(lower_for(&ents, BackendChoice::Compiled).is_err());
    }
}
