//! Property tests of the wire path: encoding random `WireMsg`
//! sequences back to back into one reused buffer and decoding the
//! concatenation must be the identity — including the piggybacked ack
//! and across reuse of the cleared buffer — and decoding garbage must
//! give a typed error, never a panic.
//!
//! The vendored proptest subset has no `prop_oneof!`/`Just`, so variant
//! choice is a sampled selector mapped onto the message vocabulary.

use lotos::event::{MsgId, SyncKind};
use medium::codec::{encode_frame, put_str, put_varint, CodecError, FrameDecoder};
use medium::Msg;
use obs::{Chunk, Event, EventKind};
use proptest::collection::vec;
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use transport::WireMsg;

thread_local! {
    /// The largest single allocation this thread asked for since the
    /// last [`largest_alloc_during`] began.
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

/// The system allocator, noting each thread's largest request.
struct Largest;

fn note(size: usize) {
    let _ = LARGEST.try_with(|m| m.set(m.get().max(size)));
}

unsafe impl GlobalAlloc for Largest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Largest = Largest;

/// Run `f` and return its result with the largest single allocation it
/// made on this thread.
fn largest_alloc_during<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LARGEST.with(|m| m.set(0));
    let out = f();
    (out, LARGEST.with(|m| m.get()))
}

/// Lowercase word from arbitrary bytes (the codec's strings are utf-8).
fn word(bytes: &[u8]) -> String {
    bytes.iter().map(|b| (b'a' + b % 26) as char).collect()
}

const EVENT_KINDS: [EventKind; 6] = [
    EventKind::PhaseStart,
    EventKind::SessionOpen,
    EventKind::Prim,
    EventKind::MediumSend,
    EventKind::Forward,
    EventKind::LinkDown,
];

const SYNC_KINDS: [SyncKind; 6] = [
    SyncKind::Seq,
    SyncKind::Alt,
    SyncKind::Rel,
    SyncKind::Interr,
    SyncKind::Proc,
    SyncKind::User,
];

type EventTuple = (u8, u8, u64, u64, u64, u64, u64);

fn build_event((k, place, session, lc, wall_ns, a, b): EventTuple) -> Event {
    Event {
        kind: EVENT_KINDS[k as usize % EVENT_KINDS.len()],
        place,
        session,
        lc,
        wall_ns,
        a,
        b,
    }
}

/// One random `(seq, msg, ack)` triple covering every `WireMsg` variant.
fn arb_frame() -> impl Strategy<Value = (u64, WireMsg, u64)> {
    (
        (0usize..12, any::<u64>(), any::<u64>()),
        (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
        (any::<u8>(), any::<u8>(), any::<u8>()),
        vec(any::<u8>(), 0..10),
        vec(any::<u32>(), 0..6),
        vec(
            (
                any::<u8>(),
                any::<u8>(),
                any::<u64>(),
                any::<u64>(),
                any::<u64>(),
                any::<u64>(),
                any::<u64>(),
            ),
            0..4,
        ),
        vec(vec(any::<u8>(), 0..6), 0..3),
    )
        .prop_map(
            |((variant, seq, ack), w, (pa, pb, flags), name, path, events, names)| {
                let msg = match variant {
                    0 => WireMsg::Hello {
                        place: pa,
                        last_seen: w.0,
                    },
                    1 => WireMsg::Welcome { last_seen: w.0 },
                    2 => WireMsg::Ack { upto: w.0 },
                    3 => WireMsg::Heartbeat { nonce: w.0 },
                    4 => WireMsg::HeartbeatAck { nonce: w.0 },
                    5 => WireMsg::Open {
                        session: w.0,
                        seed: w.1,
                        max_steps: w.2,
                        trace: w.3,
                    },
                    6 => WireMsg::Data {
                        session: w.0,
                        msg: Msg {
                            from: pa,
                            to: pb,
                            id: if flags & 1 == 0 {
                                MsgId::Node(w.1 as u32)
                            } else {
                                MsgId::Named(word(&name))
                            },
                            occ: w.2 as u32,
                            kind: SYNC_KINDS[(flags >> 1) as usize % SYNC_KINDS.len()],
                        },
                        path,
                        lc: w.3,
                    },
                    7 => WireMsg::Prim {
                        session: w.0,
                        name: word(&name),
                        place: pa,
                        lc: w.1,
                    },
                    8 => WireMsg::Status {
                        session: w.0,
                        seen: w.1,
                        consumed: w.2,
                        inbox_empty: flags & 1 != 0,
                        vote: flags & 2 != 0,
                        blocked: flags & 4 != 0,
                        steps: w.3,
                    },
                    9 => WireMsg::Close {
                        session: w.0,
                        end: pa,
                    },
                    10 => WireMsg::Shutdown,
                    _ => WireMsg::Trace {
                        chunk: Chunk {
                            names: names.iter().map(|n| word(n)).collect(),
                            events: events.into_iter().map(build_event).collect(),
                        },
                    },
                };
                // Sequenced-or-not is a link-layer concern; the codec
                // round-trips any (seq, ack) pair.
                (seq, msg, ack)
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Batch-encode a random message sequence into one buffer, decode
    /// the concatenated byte stream, and get the exact `(seq, msg, ack)`
    /// triples back — over several rounds reusing the cleared buffer,
    /// as a link does, so a dirty reused buffer would be caught.
    #[test]
    fn batch_encode_decode_is_identity_across_pool_reuse(
        rounds in vec(vec(arb_frame(), 1..12), 1..4)
    ) {
        let (mut out, mut scratch) = (Vec::new(), Vec::new());
        for frames in &rounds {
            out.clear();
            for (seq, msg, ack) in frames {
                msg.encode_into(*seq, *ack, &mut scratch, &mut out);
            }
            let mut dec = FrameDecoder::new();
            dec.feed(&out);
            let mut got = Vec::with_capacity(frames.len());
            while let Some(frame) = dec.next().unwrap() {
                got.push(WireMsg::decode_full(&frame).unwrap());
            }
            prop_assert_eq!(got.len(), frames.len());
            for ((seq, msg, ack), (dseq, dmsg, dack)) in frames.iter().zip(&got) {
                prop_assert_eq!(seq, dseq);
                prop_assert_eq!(msg, dmsg);
                prop_assert_eq!(ack, dack);
            }
        }
    }

    /// `decode` (which drops the trailing ack) agrees with `decode_full`
    /// on every frame, and both recover the encoded values exactly.
    #[test]
    fn decode_and_decode_full_agree(frame in arb_frame()) {
        let (seq, msg, ack) = frame;
        let mut scratch = Vec::new();
        let mut out = Vec::new();
        msg.encode_into(seq, ack, &mut scratch, &mut out);
        let mut dec = FrameDecoder::new();
        dec.feed(&out);
        let f = dec.next().unwrap().unwrap();
        let (s1, m1) = WireMsg::decode(&f).unwrap();
        let (s2, m2, a2) = WireMsg::decode_full(&f).unwrap();
        prop_assert_eq!(s1, s2);
        prop_assert_eq!(&m1, &m2);
        prop_assert_eq!(s2, seq);
        prop_assert_eq!(&m2, &msg);
        prop_assert_eq!(a2, ack);
    }

    /// A frame with a valid checksum and a garbage payload gives a
    /// typed error (or happens to decode), never a panic: decoded
    /// directly under an arbitrary kind byte and under a kind the codec
    /// knows, and sealed by the frame codec and read back through a
    /// `FrameDecoder` as a socket would deliver it.
    #[test]
    fn garbage_payloads_decode_to_a_typed_error_or_a_message(
        kind in any::<u8>(),
        payload in vec(any::<u8>(), 0..513)
    ) {
        for kind in [kind, kind % 12] {
            let direct = WireMsg::decode_parts(kind, &payload);
            let mut sealed = Vec::new();
            encode_frame(kind, &payload, &mut sealed);
            let mut dec = FrameDecoder::new();
            dec.feed(&sealed);
            let frame = dec.next().unwrap().expect("one whole frame");
            prop_assert_eq!(frame.kind, kind);
            prop_assert_eq!(WireMsg::decode_full(&frame), direct);
        }
    }
}

/// The kind byte and payload of `msg` as the codec frames it.
fn frame_of(msg: &WireMsg) -> (u8, Vec<u8>) {
    let mut out = Vec::new();
    msg.encode_into(1, 0, &mut Vec::new(), &mut out);
    let mut dec = FrameDecoder::new();
    dec.feed(&out);
    let f = dec.next().unwrap().unwrap();
    (f.kind, f.payload)
}

#[test]
fn data_path_longer_than_1024_is_rejected_without_allocating_it() {
    let data = WireMsg::Data {
        session: 3,
        msg: Msg {
            from: 1,
            to: 2,
            id: MsgId::Node(4),
            occ: 0,
            kind: SyncKind::Seq,
        },
        path: vec![7; 1025],
        lc: 0,
    };
    let (kind, payload) = frame_of(&data);
    let (res, largest) = largest_alloc_during(|| WireMsg::decode_parts(kind, &payload));
    assert_eq!(res, Err(CodecError::Truncated));
    assert!(
        largest < 1024,
        "allocated {largest} bytes for a rejected path"
    );
}

#[test]
fn trace_chunk_claiming_2_pow_40_names_is_rejected_without_a_large_allocation() {
    let (kind, _) = frame_of(&WireMsg::Trace {
        chunk: Chunk {
            names: Vec::new(),
            events: Vec::new(),
        },
    });
    let mut payload = Vec::new();
    put_varint(&mut payload, 1); // seq
    put_varint(&mut payload, 1 << 40); // names claimed
    put_str(&mut payload, "only-one");
    let (res, largest) = largest_alloc_during(|| WireMsg::decode_parts(kind, &payload));
    assert_eq!(res, Err(CodecError::Truncated));
    assert!(
        largest < 1024,
        "allocated {largest} bytes for a 2^40-name claim"
    );
}
