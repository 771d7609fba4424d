//! The hub ↔ entity message vocabulary, layered on [`medium::codec`]
//! frames.
//!
//! Every payload begins with a varint **link sequence number**: `0` marks
//! unsequenced control traffic (handshake, heartbeats, acks) that is
//! never retransmitted; sequenced messages are numbered `1, 2, …` per
//! direction for the lifetime of the link, surviving reconnects — the
//! resumption handshake ([`WireMsg::Hello`]/[`WireMsg::Welcome`])
//! exchanges the last sequence number each side has seen, so the sender
//! retransmits exactly the gap and the receiver drops duplicates. FIFO
//! order and exactly-once delivery therefore hold across connection
//! drops.
//!
//! Occurrence numbers travel as **site-tag paths**
//! ([`semantics`-level §3.5 instance numbering]) rather than raw table
//! indices: the raw numbers are demand-ordered per process and would
//! disagree between address spaces, while the site-tag path of an
//! instance is canonical. [`WireMsg::Data`] carries the path; each
//! endpoint resolves it against its local table.
//!
//! **Trace context.** [`WireMsg::Open`] carries the run's trace id
//! (0 = recording off), [`WireMsg::Data`]/[`WireMsg::Prim`] carry the
//! sender's per-session Lamport clock, and [`WireMsg::Trace`] ships
//! flight-recorder chunks back to the hub at shutdown, so one process
//! can merge a causal log of the whole run.
//!
//! **Piggybacked acks.** Every payload ends with a trailing
//! cumulative-ack varint: the sender's `last_delivered` high-water mark
//! for *incoming* sequenced traffic rides on every outgoing frame, so a
//! busy link almost never spends a frame on a pure [`WireMsg::Ack`].
//! [`poll_messages_into`] surfaces a nonzero trailing ack as a synthetic
//! `(0, Ack)` entry ahead of the message it rode on, so link
//! bookkeeping is identical for pure and piggybacked acks.
//!
//! Only [`WIRE_VERSION`](medium::codec::WIRE_VERSION) is written or
//! read; the codec rejects any other version with
//! [`CodecError::BadVersion`].

use medium::codec::{self, encode_frame, put_str, put_varint, CodecError, Frame, FrameDecoder};
use medium::Msg;
use std::io;

use crate::conn::{is_poll_timeout, Conn};

/// A decoded wire message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireMsg {
    /// Entity → hub on every (re)connect: which place this is, the
    /// highest hub→entity sequence number already delivered, and the
    /// fingerprint of the derivation it serves (its entity spec and
    /// requested backend), which must equal the hub's for that place.
    Hello {
        place: u8,
        last_seen: u64,
        fingerprint: u64,
    },
    /// Hub → entity handshake reply: the highest entity→hub sequence
    /// number the hub has delivered — the entity retransmits the rest.
    Welcome {
        last_seen: u64,
    },
    /// Hub → entity handshake reply instead of `Welcome`: the
    /// connection is turned away for good, and reconnecting cannot help.
    Refused {
        why: Refusal,
    },
    /// Cumulative acknowledgement of sequenced traffic (buffer pruning).
    Ack {
        upto: u64,
    },
    Heartbeat {
        nonce: u64,
    },
    HeartbeatAck {
        nonce: u64,
    },
    /// Hub → entity: start interpreting a session. `trace` is the run's
    /// trace id; non-zero asks the entity to flight-record the session.
    Open {
        session: u64,
        seed: u64,
        max_steps: u64,
        trace: u64,
    },
    /// A synchronization message of one session. `msg.occ` is the
    /// *sender-local* occurrence number (informational); `path` is the
    /// canonical site-tag path the receiver resolves locally. `lc` is
    /// the sender's per-session Lamport clock at the send (0 when
    /// recording is off).
    Data {
        session: u64,
        msg: Msg,
        path: Vec<u32>,
        lc: u64,
    },
    /// Entity → hub: a service primitive was executed. `lc` as on
    /// [`WireMsg::Data`].
    Prim {
        session: u64,
        name: String,
        place: u8,
        lc: u64,
    },
    /// Entity → hub: scheduling status for a session, sent on every
    /// blocked/vote transition. `seen`/`consumed` count Data frames
    /// delivered to / consumed by this entity for the session; the hub
    /// treats the report as current only when `seen` matches its own
    /// forwarded count.
    Status {
        session: u64,
        seen: u64,
        consumed: u64,
        inbox_empty: bool,
        vote: bool,
        blocked: bool,
        steps: u64,
    },
    /// Hub → entity: the session is over; drop its state. `end` encodes
    /// the [`SessionEnd`-like] outcome for diagnostics.
    Close {
        session: u64,
        end: u8,
    },
    /// Hub → entity: no more sessions; exit cleanly.
    Shutdown,
    /// Entity → hub: a flight-recorder chunk, flushed at shutdown so the
    /// hub can merge one causal log across processes.
    Trace {
        chunk: obs::Chunk,
    },
}

/// Why the hub answered a `Hello` with [`WireMsg::Refused`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Refusal {
    /// The run has no entity at the `Hello`'s place.
    UnknownPlace,
    /// The `Hello`'s fingerprint is not the hub's for that place: the
    /// entity derived a different spec or asked for a different backend.
    Fingerprint,
}

impl std::fmt::Display for Refusal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Refusal::UnknownPlace => "the run has no entity at this place",
            Refusal::Fingerprint => {
                "derivation fingerprint mismatch (a different spec or backend choice)"
            }
        })
    }
}

const K_HELLO: u8 = 0;
const K_WELCOME: u8 = 1;
const K_ACK: u8 = 2;
const K_HEARTBEAT: u8 = 3;
const K_HEARTBEAT_ACK: u8 = 4;
const K_OPEN: u8 = 5;
const K_DATA: u8 = 6;
const K_PRIM: u8 = 7;
const K_STATUS: u8 = 8;
const K_CLOSE: u8 = 9;
const K_SHUTDOWN: u8 = 10;
const K_TRACE: u8 = 11;
const K_REFUSED: u8 = 12;

impl WireMsg {
    /// Is this message sequenced (retransmitted on reconnect)?
    pub fn sequenced(&self) -> bool {
        !matches!(
            self,
            WireMsg::Hello { .. }
                | WireMsg::Welcome { .. }
                | WireMsg::Refused { .. }
                | WireMsg::Ack { .. }
                | WireMsg::Heartbeat { .. }
                | WireMsg::HeartbeatAck { .. }
        )
    }

    /// Encode as one complete frame with the given sequence number
    /// (`0` for control traffic) and no piggybacked ack.
    pub fn encode(&self, seq: u64) -> Vec<u8> {
        let mut scratch = Vec::with_capacity(24);
        let mut out = Vec::with_capacity(34);
        self.encode_into(seq, 0, &mut scratch, &mut out);
        out
    }

    /// Append one complete frame to `out`, reusing `scratch` for the
    /// payload bytes — the allocation-free path the batch encoder and
    /// resume retransmission run on. `ack` is the piggybacked cumulative
    /// ack.
    pub fn encode_into(&self, seq: u64, ack: u64, scratch: &mut Vec<u8>, out: &mut Vec<u8>) {
        scratch.clear();
        let kind = self.encode_payload(seq, ack, scratch);
        encode_frame(kind, scratch, out);
    }

    /// Write the payload bytes into `p` (appended) and return the frame
    /// kind.
    fn encode_payload(&self, seq: u64, ack: u64, p: &mut Vec<u8>) -> u8 {
        put_varint(p, seq);
        let kind = match self {
            WireMsg::Hello {
                place,
                last_seen,
                fingerprint,
            } => {
                p.push(*place);
                put_varint(p, *last_seen);
                put_varint(p, *fingerprint);
                K_HELLO
            }
            WireMsg::Welcome { last_seen } => {
                put_varint(p, *last_seen);
                K_WELCOME
            }
            WireMsg::Refused { why } => {
                p.push(match why {
                    Refusal::UnknownPlace => 0,
                    Refusal::Fingerprint => 1,
                });
                K_REFUSED
            }
            WireMsg::Ack { upto } => {
                put_varint(p, *upto);
                K_ACK
            }
            WireMsg::Heartbeat { nonce } => {
                put_varint(p, *nonce);
                K_HEARTBEAT
            }
            WireMsg::HeartbeatAck { nonce } => {
                put_varint(p, *nonce);
                K_HEARTBEAT_ACK
            }
            WireMsg::Open {
                session,
                seed,
                max_steps,
                trace,
            } => {
                put_varint(p, *session);
                put_varint(p, *seed);
                put_varint(p, *max_steps);
                put_varint(p, *trace);
                K_OPEN
            }
            WireMsg::Data {
                session,
                msg,
                path,
                lc,
            } => {
                put_varint(p, *session);
                codec::encode_msg(msg, p);
                put_varint(p, path.len() as u64);
                for site in path {
                    put_varint(p, *site as u64);
                }
                put_varint(p, *lc);
                K_DATA
            }
            WireMsg::Prim {
                session,
                name,
                place,
                lc,
            } => {
                put_varint(p, *session);
                p.push(*place);
                put_str(p, name);
                put_varint(p, *lc);
                K_PRIM
            }
            WireMsg::Status {
                session,
                seen,
                consumed,
                inbox_empty,
                vote,
                blocked,
                steps,
            } => {
                put_varint(p, *session);
                put_varint(p, *seen);
                put_varint(p, *consumed);
                let flags = u8::from(*inbox_empty) | u8::from(*vote) << 1 | u8::from(*blocked) << 2;
                p.push(flags);
                put_varint(p, *steps);
                K_STATUS
            }
            WireMsg::Close { session, end } => {
                put_varint(p, *session);
                p.push(*end);
                K_CLOSE
            }
            WireMsg::Shutdown => K_SHUTDOWN,
            WireMsg::Trace { chunk } => {
                chunk.encode(p);
                K_TRACE
            }
        };
        put_varint(p, ack);
        kind
    }

    /// Decode a frame into `(sequence number, message)`, discarding the
    /// piggybacked ack.
    pub fn decode(frame: &Frame) -> Result<(u64, WireMsg), CodecError> {
        let (seq, msg, _ack) = Self::decode_parts(frame.kind, &frame.payload)?;
        Ok((seq, msg))
    }

    /// Decode a frame into `(sequence number, message, piggybacked ack)`.
    pub fn decode_full(frame: &Frame) -> Result<(u64, WireMsg, u64), CodecError> {
        Self::decode_parts(frame.kind, &frame.payload)
    }

    /// [`WireMsg::decode_full`] on borrowed frame parts — what the
    /// zero-copy receive path ([`poll_messages_into`]) uses.
    pub fn decode_parts(kind: u8, payload: &[u8]) -> Result<(u64, WireMsg, u64), CodecError> {
        let b = payload;
        let mut at = 0usize;
        let seq = rd_varint(b, &mut at)?;
        let msg = match kind {
            K_HELLO => {
                let place = rd_byte(b, &mut at)?;
                let last_seen = rd_varint(b, &mut at)?;
                let fingerprint = rd_varint(b, &mut at)?;
                WireMsg::Hello {
                    place,
                    last_seen,
                    fingerprint,
                }
            }
            K_WELCOME => WireMsg::Welcome {
                last_seen: rd_varint(b, &mut at)?,
            },
            K_REFUSED => WireMsg::Refused {
                why: match rd_byte(b, &mut at)? {
                    0 => Refusal::UnknownPlace,
                    1 => Refusal::Fingerprint,
                    _ => return Err(CodecError::Truncated),
                },
            },
            K_ACK => WireMsg::Ack {
                upto: rd_varint(b, &mut at)?,
            },
            K_HEARTBEAT => WireMsg::Heartbeat {
                nonce: rd_varint(b, &mut at)?,
            },
            K_HEARTBEAT_ACK => WireMsg::HeartbeatAck {
                nonce: rd_varint(b, &mut at)?,
            },
            K_OPEN => {
                let session = rd_varint(b, &mut at)?;
                let seed = rd_varint(b, &mut at)?;
                let max_steps = rd_varint(b, &mut at)?;
                let trace = rd_varint(b, &mut at)?;
                WireMsg::Open {
                    session,
                    seed,
                    max_steps,
                    trace,
                }
            }
            K_DATA => {
                let session = rd_varint(b, &mut at)?;
                let (msg, used) = codec::decode_msg(&b[at..])?;
                at += used;
                let n = rd_varint(b, &mut at)? as usize;
                if n > 1024 {
                    return Err(CodecError::Truncated);
                }
                let mut path = Vec::with_capacity(n);
                for _ in 0..n {
                    path.push(rd_varint(b, &mut at)? as u32);
                }
                let lc = rd_varint(b, &mut at)?;
                WireMsg::Data {
                    session,
                    msg,
                    path,
                    lc,
                }
            }
            K_PRIM => {
                let session = rd_varint(b, &mut at)?;
                let place = rd_byte(b, &mut at)?;
                let (name, used) = codec::get_str(&b[at..])?;
                at += used;
                let lc = rd_varint(b, &mut at)?;
                WireMsg::Prim {
                    session,
                    name,
                    place,
                    lc,
                }
            }
            K_STATUS => {
                let session = rd_varint(b, &mut at)?;
                let seen = rd_varint(b, &mut at)?;
                let consumed = rd_varint(b, &mut at)?;
                let flags = rd_byte(b, &mut at)?;
                let steps = rd_varint(b, &mut at)?;
                WireMsg::Status {
                    session,
                    seen,
                    consumed,
                    inbox_empty: flags & 1 != 0,
                    vote: flags & 2 != 0,
                    blocked: flags & 4 != 0,
                    steps,
                }
            }
            K_CLOSE => {
                let session = rd_varint(b, &mut at)?;
                let end = rd_byte(b, &mut at)?;
                WireMsg::Close { session, end }
            }
            K_SHUTDOWN => WireMsg::Shutdown,
            K_TRACE => {
                let (chunk, used) = obs::Chunk::decode(&b[at..]).ok_or(CodecError::Truncated)?;
                at += used;
                WireMsg::Trace { chunk }
            }
            _ => return Err(CodecError::Truncated),
        };
        let ack = rd_varint(b, &mut at)?;
        Ok((seq, msg, ack))
    }
}

fn rd_varint(b: &[u8], at: &mut usize) -> Result<u64, CodecError> {
    let (v, n) = codec::get_varint(&b[*at..]).ok_or(CodecError::Truncated)?;
    *at += n;
    Ok(v)
}

fn rd_byte(b: &[u8], at: &mut usize) -> Result<u8, CodecError> {
    let v = *b.get(*at).ok_or(CodecError::Truncated)?;
    *at += 1;
    Ok(v)
}

/// Read whatever bytes are available within the connection's read
/// timeout, feed the frame decoder, and append the decoded messages to
/// `out`, which callers reuse so a steady-state poll allocates nothing
/// for framing (message payloads still own their strings/paths).
/// `Ok(())` with nothing appended means no whole frame arrived (the
/// read timed out, or only part of a frame is in); `Err` means the
/// connection is gone (EOF, reset, or corrupt stream).
///
/// A frame carrying a nonzero piggybacked ack yields a synthetic
/// `(0, WireMsg::Ack)` entry *before* the message itself, so callers
/// route every ack — pure or piggybacked — through the same
/// [`crate::Link::accept`] bookkeeping.
pub fn poll_messages_into(
    conn: &mut Conn,
    dec: &mut FrameDecoder,
    out: &mut Vec<(u64, WireMsg)>,
) -> io::Result<()> {
    let mut buf = [0u8; 16 * 1024];
    match conn.read(&mut buf) {
        Ok(0) => return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "peer closed")),
        Ok(n) => dec.feed(&buf[..n]),
        Err(e) if is_poll_timeout(&e) => return Ok(()),
        Err(e) => return Err(e),
    }
    loop {
        match dec.next_ref() {
            Ok(Some(frame)) => {
                let (seq, msg, ack) = WireMsg::decode_parts(frame.kind, frame.payload)
                    .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
                if ack > 0 {
                    out.push((0, WireMsg::Ack { upto: ack }));
                }
                out.push((seq, msg));
            }
            Ok(None) => return Ok(()),
            Err(e) => return Err(io::Error::new(io::ErrorKind::InvalidData, e.to_string())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lotos::event::{MsgId, SyncKind};

    fn encode_with_ack(m: &WireMsg, seq: u64, ack: u64) -> Vec<u8> {
        let mut out = Vec::new();
        m.encode_into(seq, ack, &mut Vec::new(), &mut out);
        out
    }

    fn round_trip(m: WireMsg, seq: u64) {
        let bytes = m.encode(seq);
        let mut dec = FrameDecoder::new();
        dec.feed(&bytes);
        let frame = dec.next().unwrap().unwrap();
        let (s, back) = WireMsg::decode(&frame).unwrap();
        assert_eq!(s, seq);
        assert_eq!(back, m);
    }

    #[test]
    fn all_variants_round_trip() {
        for (seq, m, _) in one_of_each() {
            round_trip(m, seq);
        }
        round_trip(
            WireMsg::Refused {
                why: Refusal::UnknownPlace,
            },
            0,
        );
    }

    /// One message of every variant, each with the sequence number and
    /// piggybacked ack it is pinned with in `frames_are_pinned_byte_for_byte`.
    fn one_of_each() -> Vec<(u64, WireMsg, u64)> {
        let msg = Msg {
            from: 1,
            to: 2,
            id: MsgId::Node(14),
            occ: 2,
            kind: SyncKind::Seq,
        };
        let chunk = obs::Chunk {
            names: vec!["conreq".into()],
            events: vec![obs::Event {
                kind: obs::EventKind::Prim,
                place: 1,
                session: 3,
                lc: 4,
                wall_ns: 123,
                a: 0,
                b: 1,
            }],
        };
        vec![
            (
                0,
                WireMsg::Hello {
                    place: 2,
                    last_seen: 300,
                    fingerprint: 0x0123_4567_89AB_CDEF,
                },
                0,
            ),
            (0, WireMsg::Welcome { last_seen: 77 }, 0),
            (
                0,
                WireMsg::Refused {
                    why: Refusal::Fingerprint,
                },
                0,
            ),
            (0, WireMsg::Ack { upto: 1 << 20 }, 0),
            (0, WireMsg::Heartbeat { nonce: 5 }, 9),
            (0, WireMsg::HeartbeatAck { nonce: 6 }, 0),
            (
                1,
                WireMsg::Open {
                    session: 12,
                    seed: 0xC0FFEE,
                    max_steps: 100_000,
                    trace: 0xBEEF,
                },
                0,
            ),
            (
                45,
                WireMsg::Data {
                    session: 3,
                    msg,
                    path: vec![7, 31, 7],
                    lc: 99,
                },
                44,
            ),
            (
                46,
                WireMsg::Prim {
                    session: 3,
                    name: "conreq".into(),
                    place: 1,
                    lc: 1 << 33,
                },
                0,
            ),
            (
                47,
                WireMsg::Status {
                    session: 3,
                    seen: 10,
                    consumed: 9,
                    inbox_empty: false,
                    vote: true,
                    blocked: true,
                    steps: 512,
                },
                300,
            ),
            (48, WireMsg::Close { session: 3, end: 2 }, 0),
            (49, WireMsg::Shutdown, 0),
            (50, WireMsg::Trace { chunk }, 0),
        ]
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// The wire bytes of one frame of every variant, pinned so that no
    /// codec change (the CRC implementation included) alters the wire
    /// without failing here. A deliberate layout change bumps
    /// `WIRE_VERSION` and re-pins these.
    #[test]
    fn frames_are_pinned_byte_for_byte() {
        const GOLDEN: [&str; 13] = [
            "504704000e0002ac02ef9bafcdf8acd1910100f96ee275",
            "5047040103004d00a3545140",
            "5047040c030001001b900de4",
            "50470402050080804000b7b32fda",
            "50470403030005096a7aed7b",
            "50470404030006001d4d3c9b",
            "504704050d010ceeff8306a08d06effd020019c52b02",
            "504704060e2d0301020002000e03071f07632caeced83b",
            "50470407102e030106636f6e72657180808080200015d504b7",
            "50470408092f030a09068004ac02060a11e7",
            "5047040904300302001f28f77b",
            "5047040a0231006562c699",
            "5047040b12320106636f6e72657101040103047b0001001c906eca",
        ];
        let frames = one_of_each();
        assert_eq!(frames.len(), GOLDEN.len());
        let mut kinds = std::collections::BTreeSet::new();
        for ((seq, m, ack), want) in frames.into_iter().zip(GOLDEN) {
            let bytes = encode_with_ack(&m, seq, ack);
            kinds.insert(bytes[3]);
            assert_eq!(hex(&bytes), want, "{m:?}");
        }
        assert!(
            kinds.into_iter().eq(K_HELLO..=K_REFUSED),
            "a variant is missing"
        );
    }

    #[test]
    fn control_traffic_is_unsequenced() {
        assert!(!WireMsg::Hello {
            place: 1,
            last_seen: 0,
            fingerprint: 0,
        }
        .sequenced());
        assert!(!WireMsg::Refused {
            why: Refusal::Fingerprint
        }
        .sequenced());
        assert!(!WireMsg::Ack { upto: 3 }.sequenced());
        assert!(!WireMsg::Heartbeat { nonce: 1 }.sequenced());
        assert!(WireMsg::Shutdown.sequenced());
        assert!(WireMsg::Open {
            session: 0,
            seed: 0,
            max_steps: 1,
            trace: 0
        }
        .sequenced());
    }

    /// The trailing piggybacked ack round-trips; `decode` discards it,
    /// `decode_full` surfaces it.
    #[test]
    fn piggybacked_ack_round_trips() {
        let m = WireMsg::Data {
            session: 5,
            msg: Msg {
                from: 1,
                to: 2,
                id: MsgId::Node(3),
                occ: 1,
                kind: SyncKind::Seq,
            },
            path: vec![2, 9],
            lc: 12,
        };
        let bytes = encode_with_ack(&m, 41, 1 << 33);
        let mut dec = FrameDecoder::new();
        dec.feed(&bytes);
        let frame = dec.next().unwrap().unwrap();
        let (seq, back, ack) = WireMsg::decode_full(&frame).unwrap();
        assert_eq!((seq, ack), (41, 1 << 33));
        assert_eq!(back, m);
        let (seq, back) = WireMsg::decode(&frame).unwrap();
        assert_eq!(seq, 41);
        assert_eq!(back, m);
    }

    /// A frame with a nonzero piggybacked ack surfaces through
    /// `poll_messages_into` as a synthetic `(0, Ack)` ahead of the message.
    #[test]
    fn poll_messages_synthesizes_ack_from_piggyback() {
        use crate::addr::Addr;
        use std::time::Duration;
        let l = Addr::parse("tcp:127.0.0.1:0").unwrap().listen().unwrap();
        let addr = l.local_addr().unwrap();
        let mut a = addr.connect(Duration::from_secs(1)).unwrap();
        let mut b = l.accept().unwrap().unwrap();
        b.set_read_timeout(Some(Duration::from_millis(50))).unwrap();
        let m = WireMsg::Close { session: 1, end: 0 };
        a.write_all(&encode_with_ack(&m, 4, 9)).unwrap();
        let mut dec = FrameDecoder::new();
        let mut got = Vec::new();
        for _ in 0..20 {
            poll_messages_into(&mut b, &mut dec, &mut got).unwrap();
            if got.len() >= 2 {
                break;
            }
        }
        assert_eq!(got[0], (0, WireMsg::Ack { upto: 9 }));
        assert_eq!(got[1], (4, m));
    }
}
