//! Lock-free flight-recorder rings and the per-trace [`Registry`].
//!
//! Each recording thread owns one [`Recorder`] backed by a fixed-size
//! seqlock ring: the writer stamps a slot's sequence odd, stores the six
//! event words with relaxed atomics, then stamps it even. Readers
//! ([`Registry::snapshot`]) re-check the sequence after loading and drop
//! slots that were overwritten mid-read. The hot path is eight atomic
//! stores and one `Instant::elapsed` — no locks, no allocation — and
//! when recording is disabled call sites hold `None` and pay a single
//! branch.
//!
//! The ring overwrites its oldest entries when full, so what survives is
//! always the *tail* of each thread's history — exactly what a
//! conformance post-mortem wants.

use crate::event::{Event, EventKind, NO_SESSION};
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;

/// Default per-ring capacity (events). Must be a power of two.
pub const DEFAULT_CAPACITY: usize = 4096;

struct Slot {
    /// `2*generation + 1` while the writer is in the slot, `2*(i+1)` once
    /// write `i` is published. Zero = never written.
    seq: AtomicU64,
    words: [AtomicU64; 6],
}

impl Slot {
    fn new() -> Slot {
        Slot {
            seq: AtomicU64::new(0),
            words: Default::default(),
        }
    }
}

/// One single-producer ring. Created through [`Registry::recorder`].
pub struct Ring {
    mask: usize,
    slots: Box<[Slot]>,
    /// Events ever written (monotone; `head - capacity` of them are gone).
    head: AtomicU64,
}

impl Ring {
    fn new(capacity: usize) -> Ring {
        let cap = capacity.next_power_of_two().max(8);
        Ring {
            mask: cap - 1,
            slots: (0..cap).map(|_| Slot::new()).collect(),
            head: AtomicU64::new(0),
        }
    }

    fn push(&self, ev: Event) {
        let h = self.head.load(Ordering::Relaxed);
        let slot = &self.slots[(h as usize) & self.mask];
        slot.seq.store(2 * h + 1, Ordering::Release);
        let words = ev.to_words();
        for (w, v) in slot.words.iter().zip(words) {
            w.store(v, Ordering::Relaxed);
        }
        slot.seq.store(2 * (h + 1), Ordering::Release);
        self.head.store(h + 1, Ordering::Release);
    }

    /// Copy out every event still resident, oldest first. Slots the
    /// writer is overwriting concurrently are skipped, never torn.
    fn snapshot(&self) -> Vec<Event> {
        let head = self.head.load(Ordering::Acquire);
        let cap = self.slots.len() as u64;
        let start = head.saturating_sub(cap);
        let mut out = Vec::with_capacity((head - start) as usize);
        for i in start..head {
            let slot = &self.slots[(i as usize) & self.mask];
            if slot.seq.load(Ordering::Acquire) != 2 * (i + 1) {
                continue; // mid-write or already overwritten
            }
            let mut words = [0u64; 6];
            for (w, v) in words.iter_mut().zip(&slot.words) {
                *w = v.load(Ordering::Relaxed);
            }
            if slot.seq.load(Ordering::Acquire) != 2 * (i + 1) {
                continue; // overwritten while we were reading
            }
            if let Some(ev) = Event::from_words(words) {
                out.push(ev);
            }
        }
        out
    }
}

#[derive(Default)]
struct Interner {
    names: Vec<String>,
    ids: HashMap<String, u32>,
}

impl Interner {
    fn intern(&mut self, name: &str) -> u32 {
        if let Some(&id) = self.ids.get(name) {
            return id;
        }
        let id = self.names.len() as u32;
        self.names.push(name.to_string());
        self.ids.insert(name.to_string(), id);
        id
    }
}

/// A batch of events plus the slice of the name table they reference,
/// self-contained for shipping across a process boundary. Name ids
/// inside the events index `names`; [`Registry::absorb`] re-maps them
/// into the receiving interner.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Chunk {
    pub names: Vec<String>,
    pub events: Vec<Event>,
}

impl Chunk {
    /// Serialize with the same varint/string primitives as the wire
    /// codec, so a chunk can ride inside a transport frame.
    pub fn encode(&self, out: &mut Vec<u8>) {
        medium::codec::put_varint(out, self.names.len() as u64);
        for n in &self.names {
            medium::codec::put_str(out, n);
        }
        medium::codec::put_varint(out, self.events.len() as u64);
        for ev in &self.events {
            out.push(ev.kind as u8);
            out.push(ev.place);
            for w in [ev.session, ev.lc, ev.wall_ns, ev.a, ev.b] {
                medium::codec::put_varint(out, w);
            }
        }
    }

    /// Decode from the front of `buf`; returns the chunk and bytes used.
    pub fn decode(buf: &[u8]) -> Option<(Chunk, usize)> {
        let mut at = 0;
        let (n_names, used) = medium::codec::get_varint(&buf[at..])?;
        at += used;
        // Reserve no more than the bytes left could hold (a name takes at
        // least one, an event at least seven), whatever the count claims.
        let mut names = Vec::with_capacity(n_names.min((buf.len() - at) as u64) as usize);
        for _ in 0..n_names {
            let (s, used) = medium::codec::get_str(&buf[at..]).ok()?;
            at += used;
            names.push(s);
        }
        let (n_events, used) = medium::codec::get_varint(&buf[at..])?;
        at += used;
        let mut events = Vec::with_capacity(n_events.min((buf.len() - at) as u64 / 7) as usize);
        for _ in 0..n_events {
            if buf.len() < at + 2 {
                return None;
            }
            let kind = EventKind::from_u8(buf[at])?;
            let place = buf[at + 1];
            at += 2;
            let mut w = [0u64; 5];
            for v in &mut w {
                let (x, used) = medium::codec::get_varint(&buf[at..])?;
                at += used;
                *v = x;
            }
            events.push(Event {
                kind,
                place,
                session: w[0],
                lc: w[1],
                wall_ns: w[2],
                a: w[3],
                b: w[4],
            });
        }
        Some((Chunk { names, events }, at))
    }
}

/// Recorder/ring registry for one trace: owns the name interner, the
/// epoch, every local ring, and events absorbed from remote processes.
/// Shared as `Arc<Registry>`; one exists per traced run per process.
pub struct Registry {
    pub trace_id: u64,
    capacity: usize,
    epoch: Instant,
    rings: Mutex<Vec<Arc<Ring>>>,
    interner: RwLock<Interner>,
    /// Events merged in from remote chunks, name ids already re-mapped.
    absorbed: Mutex<Vec<Event>>,
}

impl Registry {
    pub fn new(trace_id: u64, capacity: usize) -> Arc<Registry> {
        Arc::new(Registry {
            trace_id,
            capacity,
            epoch: Instant::now(),
            rings: Mutex::new(Vec::new()),
            interner: RwLock::new(Interner::default()),
            absorbed: Mutex::new(Vec::new()),
        })
    }

    /// Nanoseconds since this registry came up.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Intern `name`, returning its stable id.
    pub fn intern(&self, name: &str) -> u32 {
        if let Some(&id) = self.interner.read().unwrap().ids.get(name) {
            return id;
        }
        self.interner.write().unwrap().intern(name)
    }

    /// Create a recorder for a thread at `place`. Each recorder owns its
    /// ring; create one per producing thread.
    pub fn recorder(self: &Arc<Self>, place: u8) -> Recorder {
        let ring = Arc::new(Ring::new(self.capacity));
        self.rings.lock().unwrap().push(ring.clone());
        Recorder {
            ring,
            registry: self.clone(),
            place,
            names: RefCell::new(HashMap::new()),
        }
    }

    /// `(rings, events_recorded, events_dropped)` — dropped counts ring
    /// overwrites, i.e. history that aged out.
    pub fn stats(&self) -> (usize, u64, u64) {
        let rings = self.rings.lock().unwrap();
        let mut total = 0u64;
        let mut dropped = 0u64;
        for r in rings.iter() {
            let head = r.head.load(Ordering::Acquire);
            total += head;
            dropped += head.saturating_sub(r.slots.len() as u64);
        }
        (
            rings.len(),
            total + self.absorbed.lock().unwrap().len() as u64,
            dropped,
        )
    }

    /// Merge a remote chunk: re-intern its names and keep its events.
    pub fn absorb(&self, chunk: &Chunk) {
        let map: Vec<u32> = {
            let mut int = self.interner.write().unwrap();
            chunk.names.iter().map(|n| int.intern(n)).collect()
        };
        let mut absorbed = self.absorbed.lock().unwrap();
        for ev in &chunk.events {
            let mut ev = *ev;
            ev.remap_name(|id| map.get(id as usize).copied().unwrap_or(0));
            absorbed.push(ev);
        }
    }

    /// Drain every local ring into self-contained chunks of at most
    /// `max_events` events, for shipping to a collecting process.
    pub fn drain_chunks(&self, max_events: usize) -> Vec<Chunk> {
        let events = self.local_events();
        let interner = self.interner.read().unwrap();
        let mut chunks = Vec::new();
        for batch in events.chunks(max_events.max(1)) {
            let mut names = Vec::new();
            let mut local: HashMap<u32, u32> = HashMap::new();
            let batch: Vec<Event> = batch
                .iter()
                .map(|ev| {
                    let mut ev = *ev;
                    ev.remap_name(|id| {
                        *local.entry(id).or_insert_with(|| {
                            let n = names.len() as u32;
                            names
                                .push(interner.names.get(id as usize).cloned().unwrap_or_default());
                            n
                        })
                    });
                    ev
                })
                .collect();
            chunks.push(Chunk {
                names,
                events: batch,
            });
        }
        chunks
    }

    fn local_events(&self) -> Vec<Event> {
        let rings = self.rings.lock().unwrap();
        let mut out = Vec::new();
        for r in rings.iter() {
            out.extend(r.snapshot());
        }
        out
    }

    /// Resolve every event (local rings + absorbed chunks) into a
    /// [`crate::TraceLog`] ready for export.
    pub fn snapshot(&self) -> crate::TraceLog {
        let mut events = self.local_events();
        events.extend(self.absorbed.lock().unwrap().iter().copied());
        let interner = self.interner.read().unwrap();
        let resolve = |id: u64| interner.names.get(id as usize).cloned().unwrap_or_default();
        let events = events
            .into_iter()
            .map(|ev| {
                let name = match ev.name_ref() {
                    crate::event::NameRef::Direct => Some(resolve(ev.a)),
                    crate::event::NameRef::Tagged => Some(resolve(ev.a & 0xffff_ffff)),
                    crate::event::NameRef::None => None,
                };
                crate::TraceEvent { ev, name }
            })
            .collect();
        crate::TraceLog {
            trace_id: self.trace_id,
            events,
        }
    }
}

/// Handle for one producing thread. Intentionally neither `Clone` nor
/// `Sync`: one recorder = one ring = one writer.
pub struct Recorder {
    ring: Arc<Ring>,
    registry: Arc<Registry>,
    place: u8,
    /// Writer-local memo of the shared interner: after the first use of
    /// a name, [`Recorder::intern`] and [`Recorder::record_named`] skip
    /// the registry's `RwLock` entirely — under load the primitive
    /// vocabulary is tiny and every event would otherwise take the read
    /// lock on a cache line all worker threads share.
    names: RefCell<HashMap<String, u32>>,
}

impl Recorder {
    /// Record one event; `wall_ns` is stamped here.
    #[inline]
    pub fn record(&self, kind: EventKind, session: u64, lc: u64, a: u64, b: u64) {
        self.ring.push(Event {
            kind,
            place: self.place,
            session,
            lc,
            wall_ns: self.registry.now_ns(),
            a,
            b,
        });
    }

    /// Record a named event (primitive, phase, violation). The name id
    /// comes from the writer-local memo, so steady-state cost equals
    /// [`Recorder::record`] plus one private hash lookup.
    pub fn record_named(&self, kind: EventKind, session: u64, lc: u64, name: &str, b: u64) {
        let id = self.intern(name);
        self.record(kind, session, lc, id as u64, b);
    }

    /// Intern a name, memoized per recorder (shared registry `RwLock`
    /// taken only on this recorder's first sight of the name).
    pub fn intern(&self, name: &str) -> u32 {
        if let Some(&id) = self.names.borrow().get(name) {
            return id;
        }
        let id = self.registry.intern(name);
        self.names.borrow_mut().insert(name.to_string(), id);
        id
    }

    /// Record an unsessioned event (link lifecycle, phases).
    pub fn record_global(&self, kind: EventKind, a: u64, b: u64) {
        self.record(kind, NO_SESSION, 0, a, b);
    }

    pub fn place(&self) -> u8 {
        self.place
    }

    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(lc: u64) -> Event {
        Event {
            kind: EventKind::Prim,
            place: 1,
            session: 0,
            lc,
            wall_ns: 0,
            a: 0,
            b: 0,
        }
    }

    #[test]
    fn ring_keeps_the_tail_when_overwritten() {
        let ring = Ring::new(8);
        for i in 0..20 {
            ring.push(ev(i));
        }
        let snap = ring.snapshot();
        assert_eq!(snap.len(), 8);
        let lcs: Vec<u64> = snap.iter().map(|e| e.lc).collect();
        assert_eq!(lcs, (12..20).collect::<Vec<_>>(), "not the newest tail");
    }

    #[test]
    fn snapshot_under_concurrent_writes_never_tears() {
        let reg = Registry::new(1, 64);
        let rec = reg.recorder(2);
        let reg2 = reg.clone();
        std::thread::scope(|s| {
            s.spawn(move || {
                for i in 0..200_000u64 {
                    // Keep a/b correlated so a torn read is detectable.
                    rec.record(EventKind::Prim, 9, i, i, i.wrapping_mul(3));
                }
            });
            for _ in 0..50 {
                for tev in reg2.snapshot().events {
                    assert_eq!(tev.ev.b, tev.ev.a.wrapping_mul(3), "torn event escaped");
                    assert_eq!(tev.ev.lc, tev.ev.a);
                }
            }
        });
    }

    #[test]
    fn chunk_round_trip_preserves_names() {
        let reg = Registry::new(7, 64);
        let rec = reg.recorder(1);
        rec.record_named(EventKind::Prim, 3, 1, "conreq", 1);
        rec.record_named(EventKind::Prim, 3, 2, "conconf", 1);
        let chunks = reg.drain_chunks(512);
        assert_eq!(chunks.len(), 1);
        let mut bytes = Vec::new();
        chunks[0].encode(&mut bytes);
        let (back, used) = Chunk::decode(&bytes).unwrap();
        assert_eq!(used, bytes.len());
        assert_eq!(back, chunks[0]);

        // Absorb into a registry that interns in a different order.
        let other = Registry::new(7, 64);
        other.intern("conconf");
        other.absorb(&back);
        let log = other.snapshot();
        let names: Vec<_> = log.events.iter().filter_map(|e| e.name.clone()).collect();
        assert_eq!(names, vec!["conreq", "conconf"]);
    }

    #[test]
    fn registry_stats_count_drops() {
        let reg = Registry::new(1, 8);
        let rec = reg.recorder(1);
        for i in 0..20 {
            rec.record(EventKind::Prim, 0, i, 0, 0);
        }
        let (rings, total, dropped) = reg.stats();
        assert_eq!(rings, 1);
        assert_eq!(total, 20);
        assert_eq!(dropped, 12);
    }
}
