//! Heap allocations per session on the concurrent and distributed
//! engines.
//!
//! A counting global allocator measures two whole `runtime::run` calls
//! of transport2 (threads 2): 2k and 18k sessions. Their difference over
//! the 16k extra sessions is what one more session costs, free of the
//! run's fixed set-up (threads, backends, tables). The compiled backend
//! (what `auto` picks for transport2) must stay within the budget; the
//! interpreted figure is printed alongside. The distributed figure is
//! measured the same way over `run_hub_on` and two `serve_entity`
//! threads on loopback TCP (1k and 5k sessions), and counts the hub, both
//! entities and their wire traffic.

use protogen::Pipeline;
use runtime::{
    run_hub_on, serve_entity, BackendChoice, DistributedConfig, RuntimeConfig, ServeConfig,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Most heap allocations (reallocations included) one more transport2
/// session may cost.
const BUDGET: f64 = 16.0;

/// Most heap allocations one more transport2 session may cost on the
/// distributed engine, hub and entities together.
const DISTRIBUTED_BUDGET: f64 = 35.0;

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Marginal allocations per session between a 2k- and an 18k-session
/// run on `backend`.
fn per_session(d: &protogen::derive::Derivation, backend: BackendChoice) -> f64 {
    let allocs = |sessions: usize| {
        let cfg = RuntimeConfig::new()
            .sessions(sessions)
            .threads(2)
            .seed(1)
            .backend(backend);
        let before = ALLOCS.load(Ordering::Relaxed);
        let report = runtime::run(d, &cfg);
        let after = ALLOCS.load(Ordering::Relaxed);
        assert_eq!(
            report.conforming, sessions,
            "{backend:?}: sessions must conform"
        );
        after - before
    };
    let (small, large) = (allocs(2_000), allocs(18_000));
    large.saturating_sub(small) as f64 / 16_000.0
}

/// Marginal allocations per session between a 1k- and a 5k-session
/// distributed run over loopback TCP.
fn per_distributed_session(d: &protogen::derive::Derivation) -> f64 {
    let allocs = |sessions: usize| {
        let cfg = RuntimeConfig::new().sessions(sessions).threads(2).seed(1);
        let dcfg = DistributedConfig::default();
        let listener = dcfg.listen.listen().expect("bind");
        let hub = listener.local_addr().expect("local addr");
        let before = ALLOCS.load(Ordering::Relaxed);
        let entities: Vec<_> = d
            .entities
            .iter()
            .map(|(p, spec)| {
                let (spec, scfg) = (spec.clone(), ServeConfig::new(hub.clone(), *p));
                std::thread::spawn(move || serve_entity(&spec, &scfg))
            })
            .collect();
        let report = run_hub_on(d, &cfg, &dcfg, listener).expect("hub run");
        for e in entities {
            e.join().unwrap().expect("entity outcome");
        }
        let after = ALLOCS.load(Ordering::Relaxed);
        assert_eq!(
            report.conforming, sessions,
            "distributed: sessions must conform"
        );
        after - before
    };
    let (small, large) = (allocs(1_000), allocs(5_000));
    large.saturating_sub(small) as f64 / 4_000.0
}

/// One test for every measurement: the allocator's counter is global,
/// so two measurements must not run at once.
#[test]
fn transport2_session_stays_within_allocation_budget() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../specs/transport2.lotos");
    let derived = Pipeline::load_file(path)
        .unwrap()
        .check()
        .unwrap()
        .derive()
        .unwrap();
    let d = derived.derivation();
    let interpreted = per_session(d, BackendChoice::Interpreted);
    let compiled = per_session(d, BackendChoice::Auto);
    let distributed = per_distributed_session(d);
    println!("allocations per transport2 session: {compiled:.2} compiled (auto), {interpreted:.2} interpreted, {distributed:.2} distributed");
    assert!(
        compiled <= BUDGET,
        "{compiled:.2} allocations per session (compiled) exceed the budget of {BUDGET}"
    );
    assert!(
        distributed <= DISTRIBUTED_BUDGET,
        "{distributed:.2} allocations per distributed session exceed the budget of {DISTRIBUTED_BUDGET}"
    );
}
