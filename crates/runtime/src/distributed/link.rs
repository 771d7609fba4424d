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
    pub(super) chan: Option<Channel>,
    pub(super) link: Link,
    pub(super) last_heard: Instant,
    /// When the current disconnection started (run start for
    /// never-connected links).
    pub(super) disconnected_at: Option<Instant>,
    pub(super) ever_connected: bool,
    pub(super) last_heartbeat: Instant,
}

impl EntityLink {
    pub(super) fn new(place: PlaceId, now: Instant, batch_frames: usize) -> EntityLink {
        EntityLink {
            place,
            chan: None,
            link: Link::new(batch_frames),
            last_heard: now,
            disconnected_at: Some(now),
            ever_connected: false,
            last_heartbeat: now,
        }
    }

    /// Queue `msg` for the sweep's flush (see [`super::send`]).
    pub(super) fn push(&mut self, msg: WireMsg, events: &mut Vec<String>) {
        if !super::send(&mut self.chan, &mut self.link, msg) {
            self.lost(events, "send failed");
        }
    }

    /// Sweep flush (see [`super::flush`]). Returns whether any frames
    /// went out.
    pub(super) fn flush(&mut self, events: &mut Vec<String>) -> bool {
        let had_queued = self.chan.is_some() && self.link.queued_frames() > 0;
        if !super::flush(&mut self.chan, &mut self.link) {
            self.lost(events, "flush failed");
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

    /// Adopt an identified connection for this disconnected link: answer
    /// `Welcome` and resume the link over it. Returns `false` (and
    /// leaves the link disconnected) if either write fails.
    pub(super) fn attach(&mut self, mut chan: Channel, last_seen: u64) -> bool {
        let welcome = WireMsg::Welcome {
            last_seen: self.link.last_delivered(),
        };
        if chan.conn.write_all(&welcome.encode(0)).is_err()
            || self.link.resume(&mut chan.conn, last_seen).is_err()
        {
            chan.conn.shutdown();
            self.disconnected_at.get_or_insert_with(Instant::now);
            return false;
        }
        self.chan = Some(chan);
        self.disconnected_at = None;
        true
    }

    pub(super) fn drop_conn(&mut self, events: &mut Vec<String>, why: &str) {
        if super::disconnect(&mut self.chan, &mut self.link) {
            self.lost(events, why);
        }
    }

    /// Open the reconnect window of a connection just closed.
    fn lost(&mut self, events: &mut Vec<String>, why: &str) {
        self.disconnected_at = Some(Instant::now());
        events.push(format!(
            "link place:{}: connection lost ({why})",
            self.place
        ));
    }
}

/// Lay out one readiness wait: the listener, then one slot per link
/// (`-1` when it is disconnected or `watch` declines it), then every
/// pending handshake.
pub(super) fn fill_poll_set(
    fds: &mut Vec<RawFd>,
    listener: &Listener,
    links: &[EntityLink],
    hellos: &Handshakes,
    watch: impl Fn(usize) -> bool,
) {
    fds.clear();
    fds.push(listener.raw_fd());
    fds.extend(links.iter().enumerate().map(|(i, l)| match &l.chan {
        Some(ch) if watch(i) => ch.conn.raw_fd(),
        _ => -1,
    }));
    fds.extend(hellos.fds());
}
