//! The hub's end of each entity link: the connection (when there is
//! one), its sequenced [`Link`], supervision timestamps, and the
//! readiness set the hub waits on.

use super::handshake::Handshakes;
use super::DistributedConfig;
use lotos::place::PlaceId;
use std::os::fd::RawFd;
use std::time::{Duration, Instant};
use transport::{Channel, Link, Listener, WireMsg};

/// Hub-side state of one entity link.
pub(super) struct EntityLink {
    pub(super) place: PlaceId,
    /// The derivation fingerprint this place's entity must send.
    pub(super) fingerprint: u64,
    pub(super) chan: Option<Channel>,
    pub(super) link: Link,
    pub(super) last_heard: Instant,
    /// When the current disconnection started (run start for
    /// never-connected links).
    pub(super) disconnected_at: Option<Instant>,
    pub(super) ever_connected: bool,
    /// When the hub last refused a connection for this place, while it
    /// had none, for a derivation fingerprint mismatch; cleared when a
    /// connection is adopted.
    pub(super) refused_at: Option<Instant>,
    pub(super) last_heartbeat: Instant,
}

impl EntityLink {
    pub(super) fn new(
        place: PlaceId,
        fingerprint: u64,
        now: Instant,
        batch_frames: usize,
    ) -> EntityLink {
        EntityLink {
            place,
            fingerprint,
            chan: None,
            link: Link::new(batch_frames),
            last_heard: now,
            disconnected_at: Some(now),
            ever_connected: false,
            refused_at: None,
            last_heartbeat: now,
        }
    }

    /// Queue `msg` for the sweep's flush (see [`super::send`]) at `now`.
    pub(super) fn push(&mut self, msg: WireMsg, now: Instant, events: &mut Vec<String>) {
        if !super::send(&mut self.chan, &mut self.link, msg) {
            self.lost(now, events, "send failed");
        }
    }

    /// Sweep flush at `now` (see [`super::flush`]), acking any owed
    /// frame with `force_ack`. Returns whether any frames went out.
    pub(super) fn flush(
        &mut self,
        now: Instant,
        force_ack: bool,
        events: &mut Vec<String>,
    ) -> bool {
        let had_queued = self.chan.is_some() && self.link.queued_frames() > 0;
        if !super::flush(&mut self.chan, &mut self.link, now, force_ack) {
            self.lost(now, events, "flush failed");
        }
        had_queued
    }

    /// Frames queued or sent but not yet acked.
    pub(super) fn backlog(&self) -> usize {
        self.link.queued_frames() as usize + self.link.unacked_len()
    }

    /// How long this link may stay disconnected before its entity is
    /// declared dead: the reconnect window once it has been connected,
    /// the join window before.
    pub(super) fn connect_deadline(&self, dcfg: &DistributedConfig) -> Duration {
        if self.ever_connected {
            dcfg.reconnect_deadline
        } else {
            dcfg.join_deadline
        }
    }

    /// When this disconnected link's entity is declared dead: its
    /// connect deadline after the disconnection, or the reconnect
    /// deadline after a refusal if that comes first. `None` while
    /// connected.
    pub(super) fn dead_at(&self, dcfg: &DistributedConfig) -> Option<Instant> {
        let t = self.disconnected_at? + self.connect_deadline(dcfg);
        Some(match self.refused_at {
            Some(r) => t.min(r + dcfg.reconnect_deadline),
            None => t,
        })
    }

    /// Adopt an identified connection for this disconnected link at
    /// `now`: answer `Welcome` and resume the link over it. Returns
    /// `false` (and leaves the link disconnected) if either write fails.
    pub(super) fn attach(&mut self, mut chan: Channel, last_seen: u64, now: Instant) -> bool {
        let welcome = WireMsg::Welcome {
            last_seen: self.link.last_delivered(),
        };
        if chan.conn.write_all(&welcome.encode(0)).is_err()
            || self.link.resume(&mut chan.conn, last_seen).is_err()
        {
            chan.conn.shutdown();
            self.disconnected_at.get_or_insert(now);
            return false;
        }
        self.chan = Some(chan);
        self.disconnected_at = None;
        self.refused_at = None;
        true
    }

    pub(super) fn drop_conn(&mut self, now: Instant, events: &mut Vec<String>, why: &str) {
        if super::disconnect(&mut self.chan, &mut self.link) {
            self.lost(now, events, why);
        }
    }

    /// Open the reconnect window of a connection just closed at `now`.
    fn lost(&mut self, now: Instant, events: &mut Vec<String>, why: &str) {
        self.disconnected_at = Some(now);
        events.push(format!(
            "link place:{}: connection lost ({why})",
            self.place
        ));
    }
}

/// Lay out one readiness wait: the listener, then one slot per link
/// (`-1` when it is disconnected), then every pending handshake.
pub(super) fn fill_poll_set(
    fds: &mut Vec<RawFd>,
    listener: &Listener,
    links: &[EntityLink],
    hellos: &Handshakes,
) {
    fds.clear();
    fds.push(listener.raw_fd());
    fds.extend(links.iter().map(|l| match &l.chan {
        Some(ch) => ch.conn.raw_fd(),
        _ => -1,
    }));
    fds.extend(hellos.fds());
}
