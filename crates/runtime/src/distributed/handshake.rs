//! `Hello`/`Welcome`: how a connection learns which entity it carries.
//!
//! An entity opens every connection with `Hello { place, last_seen }`;
//! the hub answers `Welcome { last_seen }` and both ends resume their
//! sequenced link from what the other saw. The hub side keeps
//! connections that have not yet said `Hello` in [`Handshakes`], each
//! under its own deadline; the entity side is [`try_connect`].

use super::{DistributedConfig, ServeConfig, READ_BACKSTOP};
use lotos::place::PlaceId;
use std::io;
use std::os::fd::RawFd;
use std::time::{Duration, Instant};
use transport::{poll_messages, wait_readable, Channel, Link, Listener, WireMsg};

/// How long an entity waits for one connection attempt to the hub.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(1);

/// Frames decoded behind a handshake frame, not yet accepted.
pub(super) type Leftovers = Vec<(u64, WireMsg)>;

/// An identified connection: the entity's place, its `last_seen`, the
/// channel, and any frames that arrived behind the `Hello`.
pub(super) type Handshake = (PlaceId, u64, Channel, Leftovers);

/// Connections accepted but not yet identified. Each waits in the poll
/// set for its `Hello` until its own deadline
/// ([`DistributedConfig::dead_after`] after the accept), so a silent or
/// slow peer never holds up the sessions in flight.
#[derive(Default)]
pub(super) struct Handshakes {
    pub(super) pending: Vec<(Channel, Instant)>,
}

impl Handshakes {
    /// Accept every connection the listener has waiting.
    pub(super) fn accept(&mut self, listener: &Listener, dcfg: &DistributedConfig) {
        while let Ok(Some(conn)) = listener.accept() {
            if conn.set_read_timeout(Some(READ_BACKSTOP)).is_ok()
                && conn.set_write_timeout(Some(dcfg.dead_after)).is_ok()
            {
                let deadline = Instant::now() + dcfg.dead_after;
                self.pending.push((Channel::new(conn), deadline));
            }
        }
    }

    pub(super) fn fds(&self) -> impl Iterator<Item = RawFd> + '_ {
        self.pending.iter().map(|(ch, _)| ch.conn.raw_fd())
    }

    pub(super) fn next_deadline(&self) -> Option<Instant> {
        self.pending.iter().map(|&(_, t)| t).min()
    }

    /// Read the pending connections `ready` marks (indexed like
    /// [`Handshakes::fds`]) and return those that said `Hello`. A
    /// malformed first frame, a closed peer or a passed deadline fails
    /// the handshake with a `transport_events` entry.
    pub(super) fn advance(&mut self, ready: &[bool], events: &mut Vec<String>) -> Vec<Handshake> {
        let now = Instant::now();
        let mut identified = Vec::new();
        for (i, (mut chan, deadline)) in std::mem::take(&mut self.pending).into_iter().enumerate() {
            let hello = if ready.get(i) == Some(&true) {
                read_hello(&mut chan)
            } else {
                Ok(None)
            };
            match hello {
                Ok(Some((place, last_seen, rest))) => {
                    identified.push((place, last_seen, chan, rest));
                }
                Ok(None) if now < deadline => self.pending.push((chan, deadline)),
                Ok(None) => {
                    chan.conn.shutdown();
                    events.push(
                        "handshake failed: no Hello within the handshake timeout".to_string(),
                    );
                }
                Err(e) => {
                    chan.conn.shutdown();
                    events.push(format!("handshake failed: {e}"));
                }
            }
        }
        identified
    }
}

/// Read what a readable, unidentified connection sent: `None` until a
/// whole frame is in, then its `Hello` and the frames behind it.
fn read_hello(chan: &mut Channel) -> io::Result<Option<(PlaceId, u64, Leftovers)>> {
    let mut batch = poll_messages(&mut chan.conn, &mut chan.dec)?.into_iter();
    let Some((_, first)) = batch.next() else {
        return Ok(None);
    };
    let WireMsg::Hello { place, last_seen } = first else {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "expected Hello as the first frame",
        ));
    };
    Ok(Some((place, last_seen, batch.collect())))
}

/// One connection attempt from an entity: connect, say `Hello`, wait
/// for the `Welcome` and resume `link` over the new channel. Frames that
/// came behind the `Welcome` are handed back for normal processing.
pub(super) fn try_connect(
    cfg: &ServeConfig,
    link: &mut Link,
) -> Result<(Channel, Leftovers), String> {
    let conn = cfg
        .hub
        .connect(CONNECT_TIMEOUT)
        .map_err(|e| e.to_string())?;
    conn.set_read_timeout(Some(READ_BACKSTOP))
        .map_err(|e| e.to_string())?;
    conn.set_write_timeout(Some(cfg.dead_after))
        .map_err(|e| e.to_string())?;
    let mut chan = Channel::new(conn);
    let hello = WireMsg::Hello {
        place: cfg.place,
        last_seen: link.last_delivered(),
    };
    chan.conn
        .write_all(&hello.encode(0))
        .map_err(|e| e.to_string())?;
    let deadline = Instant::now() + cfg.dead_after;
    loop {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err("no Welcome within the handshake window".to_string());
        }
        if !wait_readable(&[chan.conn.raw_fd()], Some(left)).map_err(|e| e.to_string())?[0] {
            continue;
        }
        let mut batch = poll_messages(&mut chan.conn, &mut chan.dec)
            .map_err(|e| e.to_string())?
            .into_iter();
        if let Some((_, first)) = batch.next() {
            let WireMsg::Welcome { last_seen } = first else {
                return Err(format!("expected Welcome, got {first:?}"));
            };
            link.resume(&mut chan.conn, last_seen)
                .map_err(|e| e.to_string())?;
            return Ok((chan, batch.collect()));
        }
    }
}
