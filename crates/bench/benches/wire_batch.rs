//! Micro-benchmarks of the wire encode path: the per-frame allocating
//! encode (one `Vec` per frame, as the pre-batching link sent) against
//! the batched zero-allocation path (`encode_into` with a reused
//! scratch buffer into one reused output buffer — what
//! [`transport::Link`] flushes with a single `write_all`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lotos::event::{MsgId, SyncKind};
use medium::codec::FrameDecoder;
use medium::Msg;
use std::hint::black_box;
use transport::WireMsg;

/// A representative hub↔entity frame mix: mostly session data, with the
/// periodic status/primitive traffic that rides along.
fn frame_mix(n: usize) -> Vec<(u64, WireMsg, u64)> {
    (0..n)
        .map(|i| {
            let seq = i as u64 + 1;
            let ack = (i as u64) / 2;
            let msg = match i % 8 {
                0 => WireMsg::Prim {
                    session: i as u64 % 32,
                    name: "dtreq".to_string(),
                    place: 1,
                    lc: i as u64,
                },
                1 => WireMsg::Status {
                    session: i as u64 % 32,
                    seen: i as u64,
                    consumed: i as u64,
                    inbox_empty: true,
                    vote: i % 2 == 0,
                    blocked: false,
                    steps: i as u64 * 3,
                },
                _ => WireMsg::Data {
                    session: i as u64 % 32,
                    msg: Msg {
                        from: 1,
                        to: 2,
                        id: MsgId::Node(i as u32 % 40),
                        occ: i as u32 % 7,
                        kind: SyncKind::Seq,
                    },
                    path: vec![i as u32 % 5, 1, 2],
                    lc: i as u64,
                },
            };
            (seq, msg, ack)
        })
        .collect()
}

fn bench_encode(c: &mut Criterion) {
    const FRAMES: usize = 256;
    let mix = frame_mix(FRAMES);
    let mut g = c.benchmark_group("wire_batch");

    g.bench_function(BenchmarkId::new("encode", "per_frame"), |b| {
        b.iter(|| {
            let mut total = 0usize;
            for (seq, msg, _) in &mix {
                // The pre-batching path: one allocation per frame.
                total += black_box(msg.encode(*seq)).len();
            }
            total
        })
    });

    g.bench_function(BenchmarkId::new("encode", "batched"), |b| {
        let (mut out, mut scratch) = (Vec::new(), Vec::new());
        b.iter(|| {
            out.clear();
            for (seq, msg, ack) in &mix {
                msg.encode_into(*seq, *ack, &mut scratch, &mut out);
            }
            black_box(&out).len()
        })
    });

    g.bench_function(BenchmarkId::new("encode_decode", "batched"), |b| {
        let (mut out, mut scratch) = (Vec::new(), Vec::new());
        b.iter(|| {
            out.clear();
            for (seq, msg, ack) in &mix {
                msg.encode_into(*seq, *ack, &mut scratch, &mut out);
            }
            let mut dec = FrameDecoder::new();
            dec.feed(&out);
            let mut n = 0usize;
            while let Some(frame) = dec.next().expect("clean stream") {
                black_box(WireMsg::decode_full(&frame).expect("valid frame"));
                n += 1;
            }
            n
        })
    });

    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(40);
    targets = bench_encode
}
criterion_main!(benches);
