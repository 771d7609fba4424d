//! `Engine::transitions` must list the same labels in the same order as
//! `sos::transitions`, state by state. Every engine steps entities
//! through the interned engine (directly, or through tables lowered from
//! it), and a seeded run picks a move by its index in that list — so
//! this order is what keeps seeded traces stable.
//!
//! Each derived entity of the `specs/` corpus is walked at random from
//! its initial state, the interned term and the `Rc` term in lock-step,
//! and the full label lists (occurrence numbers included) are compared
//! at every state.

use lotos::parser::parse_spec;
use protogen::derive::derive;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use semantics::engine::Engine;
use semantics::sos::transitions;
use semantics::term::{Env, Label};

const WALKS: u64 = 40;
const WALK_LEN: usize = 120;

fn corpus() -> Vec<(String, String)> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../specs");
    let mut out: Vec<(String, String)> = std::fs::read_dir(dir)
        .expect("specs/")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "lotos"))
        .map(|p| {
            let name = p.file_stem().unwrap().to_string_lossy().into_owned();
            (name, std::fs::read_to_string(&p).expect("spec file"))
        })
        .collect();
    out.sort();
    out
}

/// Walk every entity of every spec; returns the number of states compared.
fn walk_corpus() -> usize {
    let mut states = 0;
    for (name, src) in corpus() {
        let d = derive(&parse_spec(&src).unwrap()).unwrap();
        for (place, spec) in &d.entities {
            for walk in 0..WALKS {
                let mut rng = StdRng::seed_from_u64(walk);
                let env = Env::new(spec.clone());
                let engine = Engine::new(spec.clone());
                let mut rc = env.root();
                let mut id = engine.root();
                for step in 0..WALK_LEN {
                    let reference = transitions(&env, &rc);
                    let interned = engine.transitions(id);
                    let want: Vec<&Label> = reference.iter().map(|(l, _)| l).collect();
                    let got: Vec<&Label> = interned.iter().map(|(l, _)| l).collect();
                    assert_eq!(
                        got, want,
                        "{name} place {place} walk {walk} step {step}: order differs"
                    );
                    states += 1;
                    if reference.is_empty() {
                        break;
                    }
                    let i = rng.gen_range(0..reference.len());
                    rc = reference[i].1.clone();
                    id = interned[i].1;
                }
            }
        }
    }
    states
}

#[test]
fn engine_transitions_follow_sos_order_on_every_derived_entity() {
    // Deep recursion in `sos` wants a big stack, as in the simulator.
    let states = std::thread::Builder::new()
        .stack_size(256 << 20)
        .spawn(walk_corpus)
        .unwrap()
        .join()
        .unwrap();
    assert!(
        states > 1000,
        "walks too short to mean much: {states} states"
    );
}
