//! Sequence-numbered link endpoint and the reconnect policy around it.
//!
//! A [`Link`] wraps one direction-pair of a hub↔entity connection with
//! the bookkeeping that makes reliable-FIFO survive real faults:
//!
//! * outgoing sequenced messages are numbered `1, 2, …` and kept in an
//!   unacked ring until the peer's cumulative [`WireMsg::Ack`] prunes
//!   them;
//! * incoming sequenced messages are delivered exactly once — anything
//!   at or below the last delivered sequence number is a retransmission
//!   and is dropped;
//! * on reconnect, [`Link::resume`] uses the peer's `last_seen` from the
//!   handshake to prune acknowledged frames and retransmit the gap, so
//!   the stream continues exactly where it left off.
//!
//! [`Backoff`] is the entity-side retry policy: exponential with
//! seeded jitter and a hard attempt budget, after which the link is
//! declared dead.

use std::collections::VecDeque;
use std::io;
use std::time::{Duration, Instant};

use medium::codec::FrameDecoder;
use rand::{rngs::StdRng, Rng, SeedableRng};

use crate::conn::Conn;
use crate::wire::WireMsg;

/// How often (in sequenced frames received) a cumulative ack is pushed
/// without waiting for other traffic. This is a backstop:
/// acks normally piggyback on outgoing frames, and an idle receiver
/// acks after [`ACK_DELAY`] instead.
const ACK_EVERY: u64 = 64;

/// Idle timer for pure acks: traffic received while nothing flows the
/// other way is acknowledged this long after it arrived.
const ACK_DELAY: Duration = Duration::from_micros(500);

/// Bins of the frames-per-batch histogram: exact counts 0..=63, with
/// the last bin aggregating every larger batch.
const BATCH_HIST: usize = 65;

/// Counters a link accumulates over its lifetime, across reconnects.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Successful (re)connections after the first.
    pub reconnects: u64,
    /// Sequenced frames sent for the first time.
    pub frames_sent: u64,
    /// Sequenced frames retransmitted after a reconnect.
    pub frames_resent: u64,
    /// Incoming duplicates dropped by the dedup filter.
    pub dup_dropped: u64,
    /// Pure cumulative-ack frames pushed to the peer.
    pub acks_sent: u64,
    /// Cumulative acks that rode an outgoing frame instead of costing a
    /// pure ack frame.
    pub piggybacked_acks: u64,
    /// Batches flushed to the socket.
    pub batches_sent: u64,
    /// Payload bytes flushed (framing included).
    pub bytes_sent: u64,
    /// Send/receive failures observed (each one precedes a reconnect or
    /// link death).
    pub faults_seen: u64,
}

/// One endpoint of a sequenced, resumable link.
#[derive(Debug)]
pub struct Link {
    /// Sequence number assigned to the next outgoing sequenced message.
    next_seq: u64,
    /// Outgoing sequenced messages not yet cumulatively acked, as
    /// `(seq, message, transmitted-at-least-once)` in sequence order.
    /// The flag keeps [`Link::buffer`]ed frames that first go out during
    /// a [`Link::resume`] from counting as retransmissions.
    unacked: VecDeque<(u64, WireMsg, bool)>,
    /// Highest incoming sequence number delivered to the application.
    last_delivered: u64,
    /// Sequenced frames received since the last ack (pure or
    /// piggybacked) went out.
    since_ack: u64,
    /// When a pure ack for the traffic behind `since_ack` is owed
    /// ([`ACK_DELAY`] after it started accruing); `None` when nothing
    /// is owed.
    ack_due: Option<Instant>,
    /// The outgoing batch: frames encoded back to back, written with one
    /// `write_all` and cleared. It keeps its capacity, so steady-state
    /// encoding allocates nothing.
    out: Vec<u8>,
    /// Payload scratch shared by every encode.
    scratch: Vec<u8>,
    /// Frames in `out`.
    queued: u32,
    /// Frames queued before [`Link::wants_flush`] asks the driving loop
    /// to flush early (bounds batching latency under sustained load).
    batch_frames: usize,
    /// Frames-per-flushed-batch histogram (last bin = 64+).
    batch_hist: [u64; BATCH_HIST],
    pub stats: LinkStats,
}

impl Link {
    /// A link whose driving loop flushes early once `batch_frames`
    /// frames are queued (`--batch-frames`).
    pub fn new(batch_frames: usize) -> Link {
        Link {
            next_seq: 1,
            unacked: VecDeque::new(),
            last_delivered: 0,
            since_ack: 0,
            ack_due: None,
            out: Vec::new(),
            scratch: Vec::new(),
            queued: 0,
            batch_frames,
            batch_hist: [0; BATCH_HIST],
            stats: LinkStats::default(),
        }
    }

    /// Highest incoming sequence number delivered so far — the value to
    /// put in a `Hello`/`Welcome` handshake.
    pub fn last_delivered(&self) -> u64 {
        self.last_delivered
    }

    /// Sequenced messages buffered awaiting acknowledgement.
    pub fn unacked_len(&self) -> usize {
        self.unacked.len()
    }

    /// Queue a message into the outgoing batch without flushing it.
    /// Sequenced messages get the next sequence number and are buffered
    /// for retransmission; control messages carry sequence 0 and are
    /// never buffered. Every frame piggybacks the cumulative ack, so
    /// queueing while acks are owed settles them for free.
    pub fn queue(&mut self, msg: WireMsg) {
        let ack = self.last_delivered;
        if self.since_ack > 0 {
            self.stats.piggybacked_acks += 1;
            self.since_ack = 0;
            self.ack_due = None;
        }
        if msg.sequenced() {
            let s = self.next_seq;
            self.next_seq += 1;
            self.stats.frames_sent += 1;
            self.unacked.push_back((s, msg, true));
            // Encode straight out of the ring — no clone of the message.
            let (seq, m, _) = self.unacked.back().expect("just pushed");
            m.encode_into(*seq, ack, &mut self.scratch, &mut self.out);
        } else {
            msg.encode_into(0, ack, &mut self.scratch, &mut self.out);
        }
        self.queued += 1;
    }

    /// Flush the queued batch with one `write_all`. Success or failure,
    /// the batch is consumed: on error sequenced frames survive in the
    /// unacked ring for the next [`Link::resume`], and the fault is
    /// counted.
    pub fn flush(&mut self, conn: &mut Conn) -> io::Result<()> {
        if self.queued == 0 {
            return Ok(());
        }
        let res = conn.write_all(&self.out);
        let (frames, bytes) = (self.queued, self.out.len() as u64);
        self.discard_batch();
        match res {
            Ok(()) => {
                self.stats.batches_sent += 1;
                self.stats.bytes_sent += bytes;
                self.batch_hist[(frames as usize).min(BATCH_HIST - 1)] += 1;
                Ok(())
            }
            Err(e) => {
                self.stats.faults_seen += 1;
                Err(e)
            }
        }
    }

    /// Frames queued but not yet flushed.
    pub fn queued_frames(&self) -> u32 {
        self.queued
    }

    /// Has the batch grown enough that the driving loop should flush
    /// now rather than keep coalescing?
    pub fn wants_flush(&self) -> bool {
        self.queued as usize >= self.batch_frames
    }

    /// Drop any queued-but-unflushed frames. Must be called when the
    /// connection is torn down: sequenced frames are retransmitted from
    /// the unacked ring on resume, so flushing a stale batch afterwards
    /// would duplicate them.
    pub fn discard_batch(&mut self) {
        self.out.clear();
        self.queued = 0;
    }

    /// `(p50, p99)` of frames per flushed batch over the link's
    /// lifetime; `(0, 0)` before the first flush. The top bin
    /// aggregates batches of 64 frames and larger.
    pub fn batch_percentiles(&self) -> (u32, u32) {
        let total: u64 = self.batch_hist.iter().sum();
        if total == 0 {
            return (0, 0);
        }
        let (t50, t99) = (total.div_ceil(2), (total * 99).div_ceil(100));
        let (mut p50, mut p99) = (0u32, 0u32);
        let mut seen = 0u64;
        let mut got50 = false;
        for (i, n) in self.batch_hist.iter().enumerate() {
            seen += n;
            if !got50 && seen >= t50 {
                p50 = i as u32;
                got50 = true;
            }
            if seen >= t99 {
                p99 = i as u32;
                break;
            }
        }
        (p50, p99)
    }

    /// Send a message immediately: queue it and flush the batch (along
    /// with anything already queued). Sequenced messages are buffered
    /// for retransmission; a send error leaves them buffered, so a
    /// later [`Link::resume`] retransmits.
    pub fn send(&mut self, conn: &mut Conn, msg: WireMsg) -> io::Result<()> {
        self.queue(msg);
        self.flush(conn)
    }

    /// Assign the next sequence number and buffer a sequenced message
    /// *without* writing it — for sends while the peer is disconnected.
    /// The next [`Link::resume`] transmits it. Must not be used for
    /// control traffic (control is never retransmitted).
    pub fn buffer(&mut self, msg: WireMsg) -> u64 {
        debug_assert!(msg.sequenced(), "control traffic cannot be buffered");
        let s = self.next_seq;
        self.next_seq += 1;
        self.unacked.push_back((s, msg, false));
        self.stats.frames_sent += 1;
        s
    }

    /// Process a peer's cumulative ack: drop buffered frames with
    /// sequence numbers `<= upto`.
    pub fn on_ack(&mut self, upto: u64) {
        while self.unacked.front().is_some_and(|(s, ..)| *s <= upto) {
            self.unacked.pop_front();
        }
    }

    /// Filter one incoming message. Control traffic (sequence 0) always
    /// passes. Sequenced messages pass exactly once, in order; stale
    /// retransmissions return `None`.
    pub fn accept(&mut self, seq: u64, msg: WireMsg) -> Option<WireMsg> {
        if seq == 0 {
            if let WireMsg::Ack { upto } = msg {
                self.on_ack(upto);
                return None;
            }
            return Some(msg);
        }
        if seq <= self.last_delivered {
            self.stats.dup_dropped += 1;
            return None;
        }
        debug_assert_eq!(
            seq,
            self.last_delivered + 1,
            "sequence gap on a FIFO stream"
        );
        self.last_delivered = seq;
        self.since_ack += 1;
        if self.ack_due.is_none() {
            self.ack_due = Some(Instant::now() + ACK_DELAY);
        }
        Some(msg)
    }

    /// When the idle timer makes a pure ack due, if one is owed: the
    /// latest an event loop may sleep before calling
    /// [`Link::maybe_ack`].
    pub fn ack_due(&self) -> Option<Instant> {
        self.ack_due
    }

    /// Push a pure cumulative ack if one is owed: unconditionally with
    /// `force`, after [`ACK_EVERY`] sequenced frames as a backstop, or
    /// once the idle timer ([`ACK_DELAY`]) expires with no outgoing
    /// frame having piggybacked the ack meanwhile.
    pub fn maybe_ack(&mut self, conn: &mut Conn, force: bool) -> io::Result<()> {
        if self.since_ack == 0 {
            return Ok(());
        }
        let due = self.since_ack >= ACK_EVERY || self.ack_due.is_some_and(|t| Instant::now() >= t);
        if !force && !due {
            return Ok(());
        }
        self.since_ack = 0;
        self.ack_due = None;
        self.stats.acks_sent += 1;
        let upto = self.last_delivered;
        self.queue(WireMsg::Ack { upto });
        self.flush(conn)
    }

    /// Resume after a reconnect: the peer reported having delivered
    /// everything up to `peer_last_seen`, so prune that prefix and
    /// retransmit the rest with their original sequence numbers — all
    /// encoded in place from the unacked ring into one batch, one
    /// flush, no per-frame clone.
    pub fn resume(&mut self, conn: &mut Conn, peer_last_seen: u64) -> io::Result<()> {
        self.on_ack(peer_last_seen);
        self.stats.reconnects += 1;
        // Anything still queued was encoded for the dead connection; the
        // sequenced frames it held live on in the unacked ring.
        self.discard_batch();
        let ack = self.last_delivered;
        for (seq, msg, sent_before) in self.unacked.iter_mut() {
            if *sent_before {
                self.stats.frames_resent += 1;
            }
            *sent_before = true;
            msg.encode_into(*seq, ack, &mut self.scratch, &mut self.out);
            self.queued += 1;
        }
        if self.queued > 0 && self.since_ack > 0 {
            self.stats.piggybacked_acks += 1;
            self.since_ack = 0;
            self.ack_due = None;
        }
        self.flush(conn)
    }

    /// Note a receive-side failure (EOF, reset, corrupt stream) for the
    /// fault counters.
    pub fn note_fault(&mut self) {
        self.stats.faults_seen += 1;
    }
}

/// Exponential backoff with seeded jitter and a retry budget.
#[derive(Debug)]
pub struct Backoff {
    base: Duration,
    cap: Duration,
    budget: u32,
    attempt: u32,
    rng: StdRng,
}

impl Backoff {
    pub fn new(base: Duration, cap: Duration, budget: u32, seed: u64) -> Backoff {
        Backoff {
            base,
            cap,
            budget,
            attempt: 0,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Sensible defaults for loopback testing: fast, bounded retries.
    pub fn quick(seed: u64) -> Backoff {
        Backoff::new(
            Duration::from_millis(20),
            Duration::from_millis(500),
            30,
            seed,
        )
    }

    /// Next delay before a reconnect attempt, or `None` once the retry
    /// budget is exhausted (the link is then declared dead). The delay
    /// doubles per attempt up to the cap, with ±50% seeded jitter so a
    /// fleet of entities does not reconnect in lockstep.
    pub fn next_delay(&mut self) -> Option<Duration> {
        if self.attempt >= self.budget {
            return None;
        }
        let exp = self.attempt.min(16);
        self.attempt += 1;
        let raw = self
            .base
            .saturating_mul(1u32 << exp)
            .min(self.cap)
            .as_micros() as u64;
        let jittered = raw / 2 + self.rng.gen_range(0..=raw.max(1));
        Some(Duration::from_micros(jittered))
    }

    /// A successful connection resets the schedule (and refunds the
    /// budget: only *consecutive* failures kill a link).
    pub fn reset(&mut self) {
        self.attempt = 0;
    }

    /// Attempts consumed since the last reset.
    pub fn attempts(&self) -> u32 {
        self.attempt
    }
}

/// A connection bundled with its frame decoder — what the poll loops
/// actually carry around.
#[derive(Debug)]
pub struct Channel {
    pub conn: Conn,
    pub dec: FrameDecoder,
}

impl Channel {
    pub fn new(conn: Conn) -> Channel {
        Channel {
            conn,
            dec: FrameDecoder::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::Addr;
    use crate::wire::poll_messages;

    /// The runtime's default `--batch-frames`.
    const BATCH_FRAMES: usize = 128;

    fn pair() -> (Conn, Conn) {
        let l = Addr::parse("tcp:127.0.0.1:0").unwrap().listen().unwrap();
        let addr = l.local_addr().unwrap();
        let a = addr.connect(Duration::from_secs(1)).unwrap();
        let b = l.accept().unwrap().unwrap();
        (a, b)
    }

    fn drain(conn: &mut Conn, dec: &mut FrameDecoder) -> Vec<(u64, WireMsg)> {
        conn.set_read_timeout(Some(Duration::from_millis(50)))
            .unwrap();
        let mut got = Vec::new();
        for _ in 0..20 {
            got.extend(poll_messages(conn, dec).unwrap());
            if !got.is_empty() {
                break;
            }
        }
        got
    }

    #[test]
    fn sequenced_messages_number_from_one() {
        let (mut a, mut b) = pair();
        let mut link = Link::new(BATCH_FRAMES);
        link.send(
            &mut a,
            WireMsg::Open {
                session: 1,
                seed: 2,
                max_steps: 3,
                trace: 0,
            },
        )
        .unwrap();
        link.send(&mut a, WireMsg::Heartbeat { nonce: 9 }).unwrap();
        link.send(&mut a, WireMsg::Close { session: 1, end: 0 })
            .unwrap();
        let mut dec = FrameDecoder::new();
        let mut got = Vec::new();
        while got.len() < 3 {
            got.extend(drain(&mut b, &mut dec));
        }
        assert_eq!(got[0].0, 1);
        assert_eq!(got[1].0, 0); // heartbeat is unsequenced
        assert_eq!(got[2].0, 2);
        assert_eq!(link.unacked_len(), 2);
        link.on_ack(1);
        assert_eq!(link.unacked_len(), 1);
        link.on_ack(2);
        assert_eq!(link.unacked_len(), 0);
    }

    #[test]
    fn accept_dedups_retransmissions() {
        let mut link = Link::new(BATCH_FRAMES);
        let m = WireMsg::Shutdown;
        assert!(link.accept(1, m.clone()).is_some());
        assert!(link.accept(1, m.clone()).is_none(), "duplicate delivered");
        assert!(link.accept(2, m.clone()).is_some());
        assert_eq!(link.stats.dup_dropped, 1);
        // Control traffic always passes; acks are consumed internally.
        assert!(link.accept(0, WireMsg::Heartbeat { nonce: 1 }).is_some());
        assert!(link.accept(0, WireMsg::Ack { upto: 0 }).is_none());
    }

    #[test]
    fn resume_retransmits_only_the_unacked_gap() {
        let (mut a, b) = pair();
        let mut link = Link::new(BATCH_FRAMES);
        for s in 0..4u64 {
            link.send(
                &mut a,
                WireMsg::Open {
                    session: s,
                    seed: 0,
                    max_steps: 1,
                    trace: 0,
                },
            )
            .unwrap();
        }
        drop(b); // connection dies
                 // New connection; peer says it delivered up to seq 2.
        let (mut a2, mut b2) = pair();
        link.resume(&mut a2, 2).unwrap();
        let mut dec = FrameDecoder::new();
        let mut got = Vec::new();
        while got.len() < 2 {
            got.extend(drain(&mut b2, &mut dec));
        }
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].0, 3);
        assert_eq!(got[1].0, 4);
        assert_eq!(
            got[1].1,
            WireMsg::Open {
                session: 3,
                seed: 0,
                max_steps: 1,
                trace: 0
            }
        );
        assert_eq!(link.stats.frames_resent, 2);
        assert_eq!(link.stats.reconnects, 1);
    }

    #[test]
    fn batched_frames_arrive_in_order_with_piggybacked_ack() {
        let (mut a, mut b) = pair();
        let mut la = Link::new(BATCH_FRAMES);
        let mut lb = Link::new(BATCH_FRAMES);
        // b sends first so a owes an ack.
        lb.send(&mut b, WireMsg::Shutdown).unwrap();
        let mut dec_a = FrameDecoder::new();
        let mut got_a = Vec::new();
        while got_a.is_empty() {
            got_a = drain(&mut a, &mut dec_a);
        }
        for (seq, msg) in got_a {
            assert!(la.accept(seq, msg).is_some());
        }
        // a queues a batch; the first frame piggybacks the ack for b's
        // Shutdown, so b's unacked ring empties without a pure Ack.
        for s in 0..3u64 {
            la.queue(WireMsg::Close { session: s, end: 0 });
        }
        assert_eq!(la.queued_frames(), 3);
        la.flush(&mut a).unwrap();
        assert_eq!(la.queued_frames(), 0);
        assert_eq!(la.stats.batches_sent, 1);
        assert_eq!(la.stats.piggybacked_acks, 1);
        assert!(la.stats.bytes_sent > 0);
        assert_eq!(la.batch_percentiles(), (3, 3));
        let mut dec_b = FrameDecoder::new();
        let mut delivered = Vec::new();
        while delivered.len() < 3 {
            for (seq, msg) in drain(&mut b, &mut dec_b) {
                if let Some(m) = lb.accept(seq, msg) {
                    delivered.push((seq, m));
                }
            }
        }
        assert_eq!(
            delivered.iter().map(|(s, _)| *s).collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
        assert_eq!(lb.unacked_len(), 0, "piggybacked ack did not prune");
        assert_eq!(lb.stats.acks_sent, 0);
    }

    #[test]
    fn big_batch_leaves_in_one_flush_and_the_buffer_is_reused() {
        let (mut a, mut b) = pair();
        let mut la = Link::new(BATCH_FRAMES);
        // A batch past 16 KiB (the size a `Trace` flush can reach).
        let big = WireMsg::Trace {
            chunk: obs::Chunk {
                names: (0..1000).map(|i| format!("name-{i:04}-padding")).collect(),
                events: Vec::new(),
            },
        };
        let n = 40u64;
        for s in 0..n {
            la.queue(WireMsg::Open {
                session: s,
                seed: s,
                max_steps: 9,
                trace: 0,
            });
        }
        la.queue(big.clone());
        la.flush(&mut a).unwrap();
        assert_eq!(la.stats.batches_sent, 1);
        assert!(la.stats.bytes_sent > 16 * 1024, "{}", la.stats.bytes_sent);
        // A small batch on the same (grown, cleared) buffer.
        la.queue(WireMsg::Close { session: 9, end: 1 });
        la.flush(&mut a).unwrap();
        assert_eq!(la.stats.batches_sent, 2);
        let mut dec = FrameDecoder::new();
        let mut got = Vec::new();
        while got.len() < n as usize + 2 {
            got.extend(drain(&mut b, &mut dec));
        }
        assert_eq!(got.len(), n as usize + 2);
        for (i, (seq, msg)) in got[..n as usize].iter().enumerate() {
            assert_eq!(*seq, i as u64 + 1);
            assert!(matches!(msg, WireMsg::Open { session, .. } if *session == i as u64));
        }
        assert_eq!(got[n as usize], (n + 1, big));
        assert_eq!(
            got[n as usize + 1],
            (n + 2, WireMsg::Close { session: 9, end: 1 })
        );
    }

    #[test]
    fn idle_timer_triggers_pure_ack() {
        let (mut a, _b) = pair();
        let mut link = Link::new(BATCH_FRAMES);
        assert!(link.ack_due().is_none());
        assert!(link.accept(1, WireMsg::Shutdown).is_some());
        let due = link.ack_due().expect("ack owed after a sequenced frame");
        // Not yet due: no backstop count, timer still running.
        if Instant::now() < due {
            link.maybe_ack(&mut a, false).unwrap();
            assert_eq!(link.stats.acks_sent, 0);
        }
        std::thread::sleep(due.saturating_duration_since(Instant::now()));
        link.maybe_ack(&mut a, false).unwrap();
        assert_eq!(link.stats.acks_sent, 1);
        assert!(link.ack_due().is_none());
        // Nothing further owed.
        link.maybe_ack(&mut a, true).unwrap();
        assert_eq!(link.stats.acks_sent, 1);
    }

    #[test]
    fn discard_batch_drops_queued_frames_but_keeps_them_resumable() {
        let (a, b) = pair();
        let mut link = Link::new(BATCH_FRAMES);
        link.queue(WireMsg::Close { session: 7, end: 1 });
        link.discard_batch();
        assert_eq!(link.queued_frames(), 0);
        assert_eq!(link.unacked_len(), 1);
        drop(b);
        let (mut a2, mut b2) = pair();
        drop(a);
        link.resume(&mut a2, 0).unwrap();
        let mut dec = FrameDecoder::new();
        let mut got = Vec::new();
        while got.is_empty() {
            got = drain(&mut b2, &mut dec);
        }
        assert_eq!(got[0].0, 1);
        assert_eq!(got[0].1, WireMsg::Close { session: 7, end: 1 });
    }

    #[test]
    fn backoff_grows_jitters_and_exhausts() {
        let mut b = Backoff::new(Duration::from_millis(10), Duration::from_millis(80), 5, 42);
        let delays: Vec<Duration> = std::iter::from_fn(|| b.next_delay()).collect();
        assert_eq!(delays.len(), 5, "budget not enforced");
        // Jitter keeps every delay within [raw/2, raw*3/2] of the ideal curve.
        for (i, d) in delays.iter().enumerate() {
            let raw = (10u64 << i.min(3)).min(80) * 1000; // µs, capped
            assert!(
                d.as_micros() as u64 >= raw / 2,
                "attempt {i}: {d:?} too small"
            );
            assert!(
                d.as_micros() as u64 <= raw * 3 / 2,
                "attempt {i}: {d:?} too large"
            );
        }
        assert!(b.next_delay().is_none());
        b.reset();
        assert!(b.next_delay().is_some(), "reset did not refund the budget");
    }

    #[test]
    fn two_seeds_jitter_differently() {
        let mut b1 = Backoff::quick(1);
        let mut b2 = Backoff::quick(2);
        let d1: Vec<_> = (0..5).map(|_| b1.next_delay().unwrap()).collect();
        let d2: Vec<_> = (0..5).map(|_| b2.next_delay().unwrap()).collect();
        assert_ne!(d1, d2, "seeded jitter produced identical schedules");
    }
}
