//! Length-prefixed wire codec for [`Msg`] and transport frames.
//!
//! The distributed runtime ships synchronization messages between
//! protocol-entity processes over real sockets. This module defines the
//! byte-level framing both ends agree on:
//!
//! ```text
//! +----+----+---------+------+-----------------+---------+------------+
//! | 'P'| 'G'| version | kind | payload_len (v) | payload | crc32 (LE) |
//! +----+----+---------+------+-----------------+---------+------------+
//! ```
//!
//! * `version` is [`WIRE_VERSION`]; decoders reject any other version
//!   with an explicit [`CodecError::BadVersion`], so a peer built from a
//!   different layout fails loudly instead of being misread;
//! * `kind` is an application discriminant the codec carries opaquely
//!   (the transport crate maps it to its message vocabulary);
//! * `payload_len` is a LEB128 varint ([`put_varint`]); payloads above
//!   [`MAX_PAYLOAD`] are rejected before allocation, so a corrupted
//!   length can not balloon memory;
//! * `crc32` (IEEE, little-endian) covers `version`, `kind`, the length
//!   varint, and the payload — truncated or bit-flipped frames fail the
//!   checksum and are rejected, never half-decoded.
//!
//! [`Msg`] payloads use varints throughout — occurrence ids especially
//! (`occ` is almost always tiny) — so a typical derived-protocol message
//! is 6–8 bytes on the wire.

use crate::Msg;
use lotos::event::{MsgId, SyncKind};

/// The one wire-format version this build writes and reads. Bump on
/// any layout change. (v2 added trace context, v3 the piggybacked ack,
/// v4 the derivation fingerprint in `Hello` and the `Refused` reply.)
pub const WIRE_VERSION: u8 = 4;

/// Frame magic: `b"PG"`.
pub const MAGIC: [u8; 2] = *b"PG";

/// Upper bound on a frame payload (1 MiB). Real payloads are tiny; the
/// bound exists so a corrupted varint length cannot trigger a huge
/// allocation.
pub const MAX_PAYLOAD: usize = 1 << 20;

/// Why a frame failed to decode.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CodecError {
    /// The first two bytes are not [`MAGIC`] — the stream is not speaking
    /// this protocol (or desynchronized beyond repair).
    BadMagic,
    /// The frame declares a version this decoder does not understand.
    BadVersion(u8),
    /// The declared payload length exceeds [`MAX_PAYLOAD`].
    TooLarge(u64),
    /// The checksum did not match — the frame was truncated or corrupted.
    BadChecksum,
    /// The payload ended mid-field while decoding a [`Msg`].
    Truncated,
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::BadMagic => write!(f, "bad frame magic"),
            CodecError::BadVersion(v) => write!(f, "unsupported wire version {v}"),
            CodecError::TooLarge(n) => write!(f, "frame payload of {n} bytes exceeds the limit"),
            CodecError::BadChecksum => write!(f, "frame checksum mismatch"),
            CodecError::Truncated => write!(f, "payload truncated"),
        }
    }
}

impl std::error::Error for CodecError {}

// ---- varints ------------------------------------------------------------

/// Append `v` as a LEB128 varint.
pub fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Decode a LEB128 varint from the front of `buf`; `None` if `buf` ends
/// mid-varint or the value overflows 64 bits.
pub fn get_varint(buf: &[u8]) -> Option<(u64, usize)> {
    let mut v = 0u64;
    for (i, &byte) in buf.iter().enumerate().take(10) {
        let bits = (byte & 0x7f) as u64;
        if i == 9 && byte > 1 {
            return None; // would overflow u64
        }
        v |= bits << (7 * i);
        if byte & 0x80 == 0 {
            return Some((v, i + 1));
        }
    }
    None
}

// ---- crc32 (IEEE 802.3) -------------------------------------------------

/// Slicing-by-8 tables: `T[0]` is the classic byte-at-a-time table of
/// the reflected IEEE polynomial, and `T[k][b]` is `T[0][b]` carried on
/// through `k` more zero bytes, so eight table lookups advance the CRC
/// over eight input bytes at once.
const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut i = 0;
    while i < 256 {
        let mut k = 1;
        while k < 8 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xff) as usize];
            k += 1;
        }
        i += 1;
    }
    t
}

static CRC_TABLES: [[u32; 256]; 8] = crc32_tables();

/// CRC-32 (IEEE) of `data`, eight bytes per step (slicing-by-8); the
/// tail of fewer than eight bytes goes byte by byte.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        c = t[7][(lo & 0xff) as usize]
            ^ t[6][((lo >> 8) & 0xff) as usize]
            ^ t[5][((lo >> 16) & 0xff) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][w[4] as usize]
            ^ t[2][w[5] as usize]
            ^ t[1][w[6] as usize]
            ^ t[0][w[7] as usize];
    }
    for &b in words.remainder() {
        c = t[0][((c ^ b as u32) & 0xff) as usize] ^ (c >> 8);
    }
    !c
}

// ---- frames -------------------------------------------------------------

/// A decoded transport frame: an opaque `kind` and payload bytes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Frame {
    pub kind: u8,
    pub payload: Vec<u8>,
}

/// A [`Frame`] whose payload borrows the decoder's buffer — the
/// zero-copy variant [`FrameDecoder::next_ref`] hands out, so the hot
/// receive path never clones payload bytes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FrameRef<'a> {
    pub kind: u8,
    pub payload: &'a [u8],
}

/// Encode one frame (header, payload, checksum) into `out` at
/// [`WIRE_VERSION`].
pub fn encode_frame(kind: u8, payload: &[u8], out: &mut Vec<u8>) {
    debug_assert!(payload.len() <= MAX_PAYLOAD);
    out.extend_from_slice(&MAGIC);
    let body_start = out.len();
    out.push(WIRE_VERSION);
    out.push(kind);
    put_varint(out, payload.len() as u64);
    out.extend_from_slice(payload);
    let crc = crc32(&out[body_start..]);
    out.extend_from_slice(&crc.to_le_bytes());
}

/// Incremental frame decoder over a byte stream: feed arbitrary chunks,
/// take complete frames out. Errors are fatal for the stream (framing is
/// lost once magic or a checksum fails).
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    /// Bytes already consumed from the front of `buf` (compacted lazily).
    start: usize,
}

impl FrameDecoder {
    pub fn new() -> FrameDecoder {
        FrameDecoder::default()
    }

    /// Append raw bytes from the stream.
    pub fn feed(&mut self, bytes: &[u8]) {
        if self.start > 0 && self.start == self.buf.len() {
            self.buf.clear();
            self.start = 0;
        } else if self.start > 4096 && self.start * 2 > self.buf.len() {
            // Compact once the consumed prefix dominates the buffer —
            // done here (not in `next_ref`) so borrowed payloads stay
            // valid until the next feed.
            self.buf.drain(..self.start);
            self.start = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet decoded.
    pub fn pending(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Try to decode the next complete frame. `Ok(None)` means more bytes
    /// are needed; errors mean the stream is corrupt. (Fallible, so this
    /// deliberately is not `Iterator::next`.)
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Result<Option<Frame>, CodecError> {
        Ok(self.next_ref()?.map(|f| Frame {
            kind: f.kind,
            payload: f.payload.to_vec(),
        }))
    }

    /// Zero-copy variant of [`FrameDecoder::next`]: the returned payload
    /// borrows the decoder's buffer, valid until the next [`FrameDecoder::feed`].
    /// The hot receive path decodes straight out of this slice, so
    /// steady-state frame decoding allocates nothing at the codec layer.
    pub fn next_ref(&mut self) -> Result<Option<FrameRef<'_>>, CodecError> {
        let b = &self.buf[self.start..];
        if b.len() < 2 {
            return Ok(None);
        }
        if b[0] != MAGIC[0] || b[1] != MAGIC[1] {
            return Err(CodecError::BadMagic);
        }
        if b.len() < 4 {
            return Ok(None);
        }
        let version = b[2];
        if version != WIRE_VERSION {
            return Err(CodecError::BadVersion(version));
        }
        let kind = b[3];
        let Some((len, len_bytes)) = get_varint(&b[4..]) else {
            return if b.len() - 4 >= 10 {
                Err(CodecError::TooLarge(u64::MAX))
            } else {
                Ok(None)
            };
        };
        if len as usize > MAX_PAYLOAD {
            return Err(CodecError::TooLarge(len));
        }
        let payload_at = 4 + len_bytes;
        let crc_at = payload_at + len as usize;
        if b.len() < crc_at + 4 {
            return Ok(None);
        }
        let crc_stored =
            u32::from_le_bytes([b[crc_at], b[crc_at + 1], b[crc_at + 2], b[crc_at + 3]]);
        if crc32(&b[2..crc_at]) != crc_stored {
            return Err(CodecError::BadChecksum);
        }
        let at = self.start;
        self.start += crc_at + 4;
        Ok(Some(FrameRef {
            kind,
            payload: &self.buf[at + payload_at..at + crc_at],
        }))
    }
}

// ---- Msg payload encoding ----------------------------------------------

fn kind_to_byte(k: SyncKind) -> u8 {
    match k {
        SyncKind::Seq => 0,
        SyncKind::Alt => 1,
        SyncKind::Rel => 2,
        SyncKind::Interr => 3,
        SyncKind::Proc => 4,
        SyncKind::User => 5,
    }
}

fn kind_from_byte(b: u8) -> Option<SyncKind> {
    Some(match b {
        0 => SyncKind::Seq,
        1 => SyncKind::Alt,
        2 => SyncKind::Rel,
        3 => SyncKind::Interr,
        4 => SyncKind::Proc,
        5 => SyncKind::User,
        _ => return None,
    })
}

/// Append a length-prefixed UTF-8 string.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_varint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

/// Decode a length-prefixed UTF-8 string from the front of `buf`.
pub fn get_str(buf: &[u8]) -> Result<(String, usize), CodecError> {
    let (len, n) = get_varint(buf).ok_or(CodecError::Truncated)?;
    let len = len as usize;
    if buf.len() < n + len {
        return Err(CodecError::Truncated);
    }
    let s = std::str::from_utf8(&buf[n..n + len])
        .map_err(|_| CodecError::Truncated)?
        .to_string();
    Ok((s, n + len))
}

/// Append a [`MsgId`]: tag byte 0 + varint node number, or tag byte 1 +
/// length-prefixed name.
pub fn put_msg_id(out: &mut Vec<u8>, id: &MsgId) {
    match id {
        MsgId::Node(n) => {
            out.push(0);
            put_varint(out, *n as u64);
        }
        MsgId::Named(s) => {
            out.push(1);
            put_str(out, s);
        }
    }
}

/// Decode a [`MsgId`] from the front of `buf`.
pub fn get_msg_id(buf: &[u8]) -> Result<(MsgId, usize), CodecError> {
    let tag = *buf.first().ok_or(CodecError::Truncated)?;
    match tag {
        0 => {
            let (n, used) = get_varint(&buf[1..]).ok_or(CodecError::Truncated)?;
            Ok((MsgId::Node(n as u32), 1 + used))
        }
        1 => {
            let (s, used) = get_str(&buf[1..])?;
            Ok((MsgId::Named(s), 1 + used))
        }
        _ => Err(CodecError::Truncated),
    }
}

/// Encode a [`Msg`] payload: `from`, `to`, kind byte, varint occurrence
/// id, message id.
pub fn encode_msg(msg: &Msg, out: &mut Vec<u8>) {
    out.push(msg.from);
    out.push(msg.to);
    out.push(kind_to_byte(msg.kind));
    put_varint(out, msg.occ as u64);
    put_msg_id(out, &msg.id);
}

/// Decode a [`Msg`] from the front of `buf`; returns the message and the
/// bytes consumed.
pub fn decode_msg(buf: &[u8]) -> Result<(Msg, usize), CodecError> {
    if buf.len() < 3 {
        return Err(CodecError::Truncated);
    }
    let from = buf[0];
    let to = buf[1];
    let kind = kind_from_byte(buf[2]).ok_or(CodecError::Truncated)?;
    let mut at = 3;
    let (occ, used) = get_varint(&buf[at..]).ok_or(CodecError::Truncated)?;
    at += used;
    let (id, used) = get_msg_id(&buf[at..])?;
    at += used;
    Ok((
        Msg {
            from,
            to,
            id,
            occ: occ as u32,
            kind,
        },
        at,
    ))
}

/// Convenience: one [`Msg`] as one complete frame with the given kind.
pub fn msg_frame(kind: u8, msg: &Msg) -> Vec<u8> {
    let mut payload = Vec::with_capacity(16);
    encode_msg(msg, &mut payload);
    let mut out = Vec::with_capacity(payload.len() + 10);
    encode_frame(kind, &payload, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Msg {
        Msg {
            from: 1,
            to: 3,
            id: MsgId::Node(42),
            occ: 7,
            kind: SyncKind::Alt,
        }
    }

    #[test]
    fn varint_round_trip() {
        let mut out = Vec::new();
        for v in [0u64, 1, 127, 128, 300, 1 << 20, u64::MAX] {
            out.clear();
            put_varint(&mut out, v);
            let (back, used) = get_varint(&out).unwrap();
            assert_eq!(back, v);
            assert_eq!(used, out.len());
        }
        assert_eq!(get_varint(&[0x80]), None, "unterminated varint accepted");
    }

    #[test]
    fn crc32_known_vector() {
        // The classic check value: CRC32("123456789") = 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The CRC one bit at a time, straight from the polynomial.
    fn crc32_bitwise(data: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in data {
            c ^= b as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
        }
        !c
    }

    proptest::proptest! {
        /// Slicing-by-8 equals the bitwise CRC on random strings of 0 to
        /// 64 bytes and on every prefix of each, so every tail length
        /// from 0 to 7 is covered behind every word count.
        #[test]
        fn crc32_matches_the_bitwise_reference(
            bytes in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..65),
        ) {
            for n in 0..=bytes.len() {
                proptest::prop_assert_eq!(crc32(&bytes[..n]), crc32_bitwise(&bytes[..n]));
            }
        }
    }

    #[test]
    fn msg_round_trip() {
        let mut buf = Vec::new();
        encode_msg(&sample(), &mut buf);
        let (back, used) = decode_msg(&buf).unwrap();
        assert_eq!(back, sample());
        assert_eq!(used, buf.len());
        let named = Msg {
            id: MsgId::Named("x".into()),
            ..sample()
        };
        buf.clear();
        encode_msg(&named, &mut buf);
        assert_eq!(decode_msg(&buf).unwrap().0, named);
    }

    #[test]
    fn frame_round_trip_and_streaming() {
        let bytes = msg_frame(9, &sample());
        let mut dec = FrameDecoder::new();
        // feed byte by byte: no frame until the last byte arrives
        for (i, b) in bytes.iter().enumerate() {
            dec.feed(&[*b]);
            let got = dec.next().unwrap();
            if i + 1 < bytes.len() {
                assert!(got.is_none(), "frame decoded early at byte {i}");
            } else {
                let frame = got.unwrap();
                assert_eq!(frame.kind, 9);
                assert_eq!(decode_msg(&frame.payload).unwrap().0, sample());
            }
        }
        assert_eq!(dec.pending(), 0);
    }

    #[test]
    fn corrupted_frame_fails_checksum() {
        let mut bytes = msg_frame(2, &sample());
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        let mut dec = FrameDecoder::new();
        dec.feed(&bytes);
        assert!(matches!(
            dec.next(),
            Err(CodecError::BadChecksum)
                | Err(CodecError::Truncated)
                | Err(CodecError::TooLarge(_))
        ));
    }

    #[test]
    fn future_version_rejected_explicitly() {
        // A peer speaking any other layout must fail loudly, never be
        // misread: each frame below has valid magic and a valid crc, and
        // differs from a good frame only in its version byte.
        for version in [0u8, 1, 2, 3, WIRE_VERSION + 1, 255] {
            let mut bytes = msg_frame(2, &sample());
            bytes[2] = version;
            let crc_at = bytes.len() - 4;
            let crc = crc32(&bytes[2..crc_at]);
            bytes[crc_at..].copy_from_slice(&crc.to_le_bytes());
            let mut dec = FrameDecoder::new();
            dec.feed(&bytes);
            assert_eq!(dec.next(), Err(CodecError::BadVersion(version)));
        }
    }

    #[test]
    fn bad_magic_rejected() {
        let mut dec = FrameDecoder::new();
        dec.feed(b"XY\x01\x00\x00");
        assert_eq!(dec.next(), Err(CodecError::BadMagic));
    }

    #[test]
    fn oversized_length_rejected_before_allocation() {
        let mut out = Vec::new();
        out.extend_from_slice(&MAGIC);
        out.push(WIRE_VERSION);
        out.push(0);
        put_varint(&mut out, (MAX_PAYLOAD + 1) as u64);
        let mut dec = FrameDecoder::new();
        dec.feed(&out);
        assert!(matches!(dec.next(), Err(CodecError::TooLarge(_))));
    }

    #[test]
    fn back_to_back_frames_decode_in_order() {
        let mut bytes = msg_frame(1, &sample());
        let second = Msg {
            occ: 0,
            id: MsgId::Node(5),
            ..sample()
        };
        bytes.extend_from_slice(&msg_frame(4, &second));
        let mut dec = FrameDecoder::new();
        dec.feed(&bytes);
        let f1 = dec.next().unwrap().unwrap();
        let f2 = dec.next().unwrap().unwrap();
        assert_eq!(f1.kind, 1);
        assert_eq!(f2.kind, 4);
        assert_eq!(decode_msg(&f2.payload).unwrap().0, second);
        assert!(dec.next().unwrap().is_none());
    }
}
