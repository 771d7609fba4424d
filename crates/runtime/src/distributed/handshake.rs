//! `Hello`/`Welcome`: how a connection learns which entity it carries.
//!
//! An entity opens every connection with `Hello { place, last_seen,
//! fingerprint }`. The hub checks the place and the [`fingerprint`],
//! then answers `Welcome { last_seen }` and both ends resume their
//! sequenced link from what the other saw, or answers `Refused` and
//! closes: an entity that derived a different spec, asked for a
//! different backend or serves a place the run lacks gives up at once
//! instead of retrying. The hub side keeps connections that have not
//! yet said `Hello` in [`Handshakes`], each under its own deadline; the
//! entity side is [`try_connect`].

use super::{DistributedConfig, ServeConfig, READ_BACKSTOP};
use crate::config::BackendChoice;
use lotos::ast::Spec;
use lotos::place::PlaceId;
use semantics::hash::fx_hash;
use std::io;
use std::os::fd::RawFd;
use std::time::{Duration, Instant};
use transport::{poll_messages_into, wait_readable, Channel, Link, Listener, Refusal, WireMsg};

/// How long an entity waits for one connection attempt to the hub.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(1);

/// The derivation fingerprint of one entity: a hash of its derived spec
/// (the AST itself, never its printed text) and of the backend it is
/// asked to run. An entity sends it in every `Hello`; the hub computes
/// it once per run for each place of its own derivation and turns a
/// mismatch away.
pub fn derivation_fingerprint(entity: &Spec, backend: BackendChoice) -> u64 {
    fx_hash(&(entity, backend))
}

/// Frames decoded behind a handshake frame, not yet accepted.
pub(super) type Leftovers = Vec<(u64, WireMsg)>;

/// An identified connection: what its `Hello` said, the channel, and
/// any frames that arrived behind the `Hello`.
pub(super) struct Handshake {
    pub(super) place: PlaceId,
    pub(super) last_seen: u64,
    pub(super) fingerprint: u64,
    pub(super) chan: Channel,
    pub(super) leftovers: Leftovers,
}

/// Turn an identified connection away for good: tell the entity why,
/// so it stops retrying, and close.
pub(super) fn refuse(mut chan: Channel, why: Refusal) {
    let _ = chan.conn.write_all(&WireMsg::Refused { why }.encode(0));
    chan.conn.shutdown();
}

/// Why one connection attempt of an entity failed.
pub(super) enum ConnectError {
    /// The attempt failed; another may succeed.
    Retry(String),
    /// The hub turned the entity away; no attempt can succeed.
    Refused(Refusal),
}

impl From<io::Error> for ConnectError {
    fn from(e: io::Error) -> ConnectError {
        ConnectError::Retry(e.to_string())
    }
}

/// Connections accepted but not yet identified. Each waits in the poll
/// set for its `Hello` until its own deadline
/// ([`DistributedConfig::dead_after`] after the accept), so a silent or
/// slow peer never holds up the sessions in flight.
#[derive(Default)]
pub(super) struct Handshakes {
    pub(super) pending: Vec<(Channel, Instant)>,
    /// Frames read off one pending connection, reused.
    buf: Vec<(u64, WireMsg)>,
}

impl Handshakes {
    /// Accept every connection the listener has waiting at `now`.
    pub(super) fn accept(&mut self, listener: &Listener, dcfg: &DistributedConfig, now: Instant) {
        while let Ok(Some(conn)) = listener.accept() {
            if conn.set_read_timeout(Some(READ_BACKSTOP)).is_ok()
                && conn.set_write_timeout(Some(dcfg.dead_after)).is_ok()
            {
                let deadline = now + dcfg.dead_after;
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
    /// malformed first frame, a closed peer or a deadline passed at
    /// `now` fails the handshake with a `transport_events` entry.
    pub(super) fn advance(
        &mut self,
        ready: &[bool],
        events: &mut Vec<String>,
        now: Instant,
    ) -> Vec<Handshake> {
        let mut identified = Vec::new();
        for (i, (mut chan, deadline)) in std::mem::take(&mut self.pending).into_iter().enumerate() {
            let hello = if ready.get(i) == Some(&true) {
                read_hello(&mut chan, &mut self.buf)
            } else {
                Ok(None)
            };
            match hello {
                Ok(Some((place, last_seen, fingerprint, leftovers))) => {
                    identified.push(Handshake {
                        place,
                        last_seen,
                        fingerprint,
                        chan,
                        leftovers,
                    });
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

/// Read what a readable, unidentified connection sent into `buf`:
/// `None` until a whole frame is in, then its `Hello` (place,
/// `last_seen`, fingerprint) and the frames behind it.
fn read_hello(
    chan: &mut Channel,
    buf: &mut Vec<(u64, WireMsg)>,
) -> io::Result<Option<(PlaceId, u64, u64, Leftovers)>> {
    buf.clear();
    poll_messages_into(&mut chan.conn, &mut chan.dec, buf)?;
    let mut batch = buf.drain(..);
    let Some((_, first)) = batch.next() else {
        return Ok(None);
    };
    let WireMsg::Hello {
        place,
        last_seen,
        fingerprint,
    } = first
    else {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "expected Hello as the first frame",
        ));
    };
    Ok(Some((place, last_seen, fingerprint, batch.collect())))
}

/// One connection attempt from an entity: connect, say `Hello` with the
/// entity's `fingerprint`, wait for the `Welcome` and resume `link` over
/// the new channel. Frames that came behind the `Welcome` are left in
/// `buf` for normal processing; a `Refused` answer is final.
pub(super) fn try_connect(
    cfg: &ServeConfig,
    link: &mut Link,
    fingerprint: u64,
    buf: &mut Vec<(u64, WireMsg)>,
) -> Result<Channel, ConnectError> {
    let conn = cfg.hub.connect(CONNECT_TIMEOUT)?;
    conn.set_read_timeout(Some(READ_BACKSTOP))?;
    conn.set_write_timeout(Some(cfg.dead_after))?;
    let mut chan = Channel::new(conn);
    let hello = WireMsg::Hello {
        place: cfg.place,
        last_seen: link.last_delivered(),
        fingerprint,
    };
    chan.conn.write_all(&hello.encode(0))?;
    let deadline = Instant::now() + cfg.dead_after;
    buf.clear();
    loop {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(ConnectError::Retry(
                "no Welcome within the handshake window".to_string(),
            ));
        }
        if !wait_readable(&[chan.conn.raw_fd()], Some(left))?[0] {
            continue;
        }
        poll_messages_into(&mut chan.conn, &mut chan.dec, buf)?;
        if buf.is_empty() {
            continue;
        }
        match buf.remove(0).1 {
            WireMsg::Welcome { last_seen } => {
                link.resume(&mut chan.conn, last_seen)?;
                return Ok(chan);
            }
            WireMsg::Refused { why } => return Err(ConnectError::Refused(why)),
            first => {
                return Err(ConnectError::Retry(format!(
                    "expected Welcome, got {first:?}"
                )))
            }
        }
    }
}
