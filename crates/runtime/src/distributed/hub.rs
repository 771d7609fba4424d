//! The hub: medium, monitor and supervisor of a distributed run
//! ([`run_hub_on`]).
//!
//! One [`Hub`] owns every entity link, the open sessions and the tally.
//! Its one event loop is a sequence of sweeps ([`Hub::sweep`]), each
//! reading the clock once before its wait and once after, and passing
//! that `now` down. Once every session has closed — or an entity died,
//! or the run stalled — a sweep aborts what is still live and queues
//! `Shutdown` on every link; the sweeps that follow are the drain, which
//! lets entities ship their trace tails home and ends once every link is
//! finished ([`Hub::finished`]) or the drain deadline passes.

use super::handshake::{derivation_fingerprint, refuse, Handshake, Handshakes, Leftovers};
use super::hub_session::{HubSession, Mark, StatusRec};
use super::link::{fill_poll_set, EntityLink};
use super::slab::Slab;
use super::{report_of, DistributedConfig};
use crate::compiled::lower_for;
use crate::config::RuntimeConfig;
use crate::entity::pack_msg_event;
use crate::exec::{backend_desc, run_registry, Tally};
use crate::metrics::{Metrics, RuntimeReport, PUBLISH};
use crate::session::SessionEnd;
use crate::stall::StallTracker;
use lotos::place::PlaceId;
use obs::{EventKind, Recorder, Registry};
use protogen::derive::Derivation;
use std::io;
use std::os::fd::RawFd;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use transport::{poll_messages_into, wait_readable, Listener, Refusal, WireMsg};

/// The live observability routes: Prometheus text at `/metrics` and
/// the JSON snapshot at `/health`, both rendered from the run's
/// published metrics, and, when the run is recorded, the merged trace at
/// `/trace`.
fn metrics_routes(
    published: &Arc<Mutex<Metrics>>,
    registry: Option<&Arc<Registry>>,
    started: Instant,
) -> Vec<(String, obs::Handler)> {
    let m = Arc::clone(published);
    let mh = Arc::clone(published);
    let mut routes: Vec<(String, obs::Handler)> = vec![
        (
            "/metrics".to_string(),
            Arc::new(move || {
                let body = m.lock().expect("metrics poisoned").to_prometheus();
                ("text/plain; version=0.0.4".to_string(), body)
            }),
        ),
        (
            "/health".to_string(),
            Arc::new(move || {
                let uptime_s = started.elapsed().as_secs_f64();
                let body = mh.lock().expect("metrics poisoned").health_json(uptime_s);
                ("application/json".to_string(), body.to_string())
            }),
        ),
    ];
    if let Some(reg) = registry {
        let reg = Arc::clone(reg);
        routes.push((
            "/trace".to_string(),
            Arc::new(move || {
                (
                    "application/json".to_string(),
                    reg.snapshot().to_chrome_json(),
                )
            }),
        ));
    }
    routes
}

/// Run `cfg.sessions` sessions of the derived protocol over socket
/// links on `listener`, as the hub (medium + monitor + supervisor). The
/// caller binds the listener, so it can learn the resolved address
/// (port 0, generated UDS paths) before starting entities. Returns when
/// every session has completed or been aborted — never hangs: a dead
/// link aborts its sessions after [`DistributedConfig::reconnect_deadline`],
/// and total silence aborts after [`DistributedConfig::stall_timeout`].
///
/// `cfg.threads` bounds the session window (like the in-process
/// engine); `cfg.faults` and `cfg.capacity` do not apply — connection
/// faults are injected with [`transport::FaultProxy`] between the
/// entities and the hub.
///
/// Recording follows [`RuntimeConfig::registry`]/[`RuntimeConfig::record`]
/// as in [`crate::try_run`]. When recording, the hub propagates its
/// trace id in every `Open` frame, absorbs the [`WireMsg::Trace`] chunks
/// entities flush at shutdown, and merges everything into one causal
/// log; violation and abort reports carry their session's tail.
pub fn run_hub_on(
    d: &Derivation,
    cfg: &RuntimeConfig,
    dcfg: &DistributedConfig,
    listener: Listener,
) -> io::Result<RuntimeReport> {
    let registry = run_registry(cfg);
    // The entities run in their own processes, and the handshake admits
    // only those whose derivation fingerprint (entity spec and backend
    // choice) is the hub's — so the hub's `backend` field reports what
    // `cfg.backend` lowers to, and a `--backend compiled` request that
    // cannot be honored fails the run here, before any entity is
    // awaited.
    let lowered = lower_for(&d.entities, cfg.backend)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
    // The run's clock starts once the lowering is done, so `wall_s` and
    // the rates count sessions, not set-up.
    let started = Instant::now();
    listener.set_nonblocking(true)?;
    let mut hub = Hub::new(d, cfg, dcfg, listener, registry, started);
    let server = match &dcfg.metrics {
        Some(addr) => Some(obs::MetricsServer::spawn(
            addr,
            metrics_routes(&hub.share(started), hub.registry.as_ref(), started),
        )?),
        None => None,
    };
    hub.run()?;
    let report = hub.finish(backend_desc(&lowered), started);
    if let Some(srv) = server {
        srv.stop();
    }
    Ok(report)
}

/// Everything one hub run keeps between sweeps.
struct Hub<'r> {
    cfg: &'r RuntimeConfig,
    dcfg: &'r DistributedConfig,
    listener: Listener,
    /// One link per entity, by dense index.
    links: Vec<EntityLink>,
    sessions: Slab<HubSession>,
    /// Sessions decided and not yet closed (see [`Hub::close_decided`]).
    closed: Vec<(u64, SessionEnd)>,
    /// The run's verdicts and metrics; the hub thread is their only
    /// writer.
    tally: Tally<'r>,
    /// The copy of the metrics the HTTP routes read (see [`Hub::share`])
    /// and when it was last refreshed; `None` without routes.
    published: Option<(Arc<Mutex<Metrics>>, Instant)>,
    events: Vec<String>,
    registry: Option<Arc<Registry>>,
    /// The hub's recorder observes at place 0; entity processes record
    /// at their own places and ship chunks back at shutdown.
    rec: Option<Recorder>,
    stalls: StallTracker,
    hellos: Handshakes,
    /// The readiness set of the next wait, reused.
    fds: Vec<RawFd>,
    /// Frames read off one link, reused.
    inbuf: Vec<(u64, WireMsg)>,
    /// Sessions kept open at once: 8 per configured thread, at least
    /// 32 — batching thrives on in-flight work.
    window: usize,
    /// The next session to open.
    next: usize,
    last_progress: Instant,
    dead_entity: Option<PlaceId>,
    /// Set once the run has stopped and `Shutdown` is queued on every
    /// link: when the drain gives up on links not yet finished.
    drain_until: Option<Instant>,
}

impl<'r> Hub<'r> {
    fn new(
        d: &'r Derivation,
        cfg: &'r RuntimeConfig,
        dcfg: &'r DistributedConfig,
        listener: Listener,
        registry: Option<Arc<Registry>>,
        now: Instant,
    ) -> Hub<'r> {
        let window = (cfg.threads.max(1) * 8).max(32);
        let mut hub = Hub {
            cfg,
            dcfg,
            listener,
            links: d
                .entities
                .iter()
                .map(|(p, spec)| {
                    let fingerprint = derivation_fingerprint(spec, cfg.backend);
                    EntityLink::new(*p, fingerprint, now, dcfg.batch_frames)
                })
                .collect(),
            sessions: Slab::new(),
            closed: Vec::new(),
            tally: Tally::new(&d.service, cfg, Metrics::for_service(&d.service)),
            published: None,
            events: Vec::new(),
            rec: registry.as_ref().map(|r| r.recorder(0)),
            registry,
            stalls: StallTracker::new(now),
            hellos: Handshakes::default(),
            fds: Vec::new(),
            inbuf: Vec::new(),
            window,
            next: 0,
            last_progress: now,
            dead_entity: None,
            drain_until: None,
        };
        hub.tally.metrics.gauges.window_size = window;
        hub.refresh_metrics();
        hub
    }

    /// The copy of the metrics the HTTP routes read, taken from the live
    /// metrics on the first call (at `now`); [`Self::publish`] keeps it
    /// fresh.
    fn share(&mut self, now: Instant) -> Arc<Mutex<Metrics>> {
        let (shared, _) = self
            .published
            .get_or_insert_with(|| (Arc::new(Mutex::new(self.tally.metrics.clone())), now));
        Arc::clone(shared)
    }

    /// Once the shared copy is [`PUBLISH`] old, refresh it from the
    /// live metrics, link counters and gauges included.
    fn publish(&mut self, now: Instant) {
        let due = |(_, at): &(_, Instant)| now.duration_since(*at) >= PUBLISH;
        if !self.published.as_ref().is_some_and(due) {
            return;
        }
        self.refresh_metrics();
        if let Some((shared, at)) = &mut self.published {
            shared
                .lock()
                .expect("metrics poisoned")
                .clone_from(&self.tally.metrics);
            *at = now;
        }
    }

    /// Sweep until the run stops — every session closed, an entity
    /// declared dead or a stall — and then on through the drain.
    /// Handshakes still pending at the end are reported as abandoned.
    fn run(&mut self) -> io::Result<()> {
        // Whether the previous sweep moved anything: if so, look again
        // without blocking, since traffic usually follows traffic.
        let mut moved = true;
        while let Some(m) = self.sweep(moved)? {
            moved = m;
        }
        for _ in self.hellos.pending.drain(..) {
            self.events
                .push("handshake abandoned: the run ended before its Hello arrived".to_string());
        }
        Ok(())
    }

    /// One pass of the event loop: wait for readiness, read and handle
    /// what arrived, supervise the links, stop the run when it must, and
    /// flush every link. Returns whether anything moved, or `None` once
    /// the drain is over.
    fn sweep(&mut self, moved: bool) -> io::Result<Option<bool>> {
        let now = Instant::now();
        let mut progress = self.open_sessions(now);

        // Block until a link, the listener or a pending handshake is
        // readable, or the earliest timer is due.
        let timeout = if moved || progress {
            Some(Duration::ZERO)
        } else {
            self.next_wake().map(|t| t.saturating_duration_since(now))
        };
        fill_poll_set(&mut self.fds, &self.listener, &self.links, &self.hellos);
        let ready = wait_readable(&self.fds, timeout)?;
        let now = Instant::now();
        let n = self.links.len();

        // Read every readable link and process its traffic. Replies and
        // forwards queue on the destination links; they go out in the
        // flush below, one write per link per sweep.
        progress |= self.read_links(&ready[1..=n], now);

        // Finish the handshakes that became readable, then accept new
        // connections into the pending set (the next wait covers them).
        for hs in self.hellos.advance(&ready[1 + n..], &mut self.events, now) {
            if let Some((idx, leftovers)) = self.adopt(hs, now) {
                progress = true;
                self.dispatch(idx, leftovers, now);
            }
        }
        if ready[0] {
            self.hellos.accept(&self.listener, self.dcfg, now);
        }
        self.close_decided(now);
        if self.drain_until.is_none() && self.must_stop(now) {
            self.abort_live(now);
            for link in self.links.iter_mut() {
                link.push(WireMsg::Shutdown, now, &mut self.events);
            }
            self.drain_until = Some(now + self.dcfg.reconnect_deadline);
        }

        // One write per link carries everything this sweep queued
        // (forwards, Opens, Closes, heartbeats, the Shutdown) plus any
        // due pure ack. The drain acks every frame it read at once, so
        // an entity sees its trace tail delivered and exits instead of
        // waiting out its flush window.
        let draining = self.drain_until.is_some();
        for link in self.links.iter_mut() {
            progress |= link.flush(now, draining, &mut self.events);
        }
        self.publish(now);
        self.check_stalls(now);
        match self.drain_until {
            Some(t) if now >= t || self.links.iter().all(|l| self.finished(l)) => Ok(None),
            _ => Ok(Some(progress)),
        }
    }

    /// Whether the run must stop: every session has closed, an entity
    /// is declared dead ([`Self::supervise`]) or nothing moved for
    /// [`DistributedConfig::stall_timeout`] — a global guard that
    /// aborts rather than hangs, and also catches bugs in quiescence
    /// accounting.
    fn must_stop(&mut self, now: Instant) -> bool {
        if self.next >= self.cfg.sessions && self.sessions.is_empty() {
            return true;
        }
        if !self.supervise(now) {
            return true;
        }
        if !self.sessions.is_empty()
            && now.duration_since(self.last_progress) > self.dcfg.stall_timeout
        {
            self.events.push(format!(
                "no progress for {:?}: aborting {} live session(s)",
                self.dcfg.stall_timeout,
                self.sessions.len()
            ));
            return true;
        }
        false
    }

    /// Whether the drain is done with link `l`: its connection is closed
    /// and either its entity acked everything, `Shutdown` included, or
    /// it is the dead entity, or no entity ever joined it. A link whose
    /// connection dropped with frames unacked keeps the drain open for a
    /// reconnect.
    fn finished(&self, l: &EntityLink) -> bool {
        l.chan.is_none()
            && (l.link.unacked_len() == 0 || !l.ever_connected || Some(l.place) == self.dead_entity)
    }

    /// Keep the session window full, stamping what opens with `now`;
    /// returns whether a session opened.
    fn open_sessions(&mut self, now: Instant) -> bool {
        if self.next >= self.cfg.sessions || self.sessions.len() >= self.window {
            return false;
        }
        let mut opened = false;
        while self.next < self.cfg.sessions && self.sessions.len() < self.window {
            let id = self.next as u64;
            let seed = self.cfg.session_seed(self.next);
            if let Some(rec) = &self.rec {
                rec.record(EventKind::SessionOpen, id, 0, seed, 0);
            }
            self.sessions.open(id, (id, seed, self.links.len(), now));
            let open = WireMsg::Open {
                session: id,
                seed,
                max_steps: self.cfg.max_steps as u64,
                trace: self.registry.as_ref().map_or(0, |r| r.trace_id),
            };
            for link in self.links.iter_mut() {
                link.push(open.clone(), now, &mut self.events);
            }
            self.next += 1;
            opened = true;
        }
        opened
    }

    /// The earliest timer the hub must wake for when no socket is
    /// readable: the next handshake deadline; each connected link's
    /// pure-ack deadline and, until the drain, its next heartbeat and
    /// silence limit; while sessions are live, each disconnected link's
    /// reconnect or join deadline, the next stall check and the global
    /// no-progress guard; the drain deadline. `None` when nothing is
    /// pending.
    fn next_wake(&self) -> Option<Instant> {
        let (dcfg, live) = (self.dcfg, !self.sessions.is_empty());
        let mut wake = self.hellos.next_deadline();
        let mut at = |t: Instant| wake = Some(wake.map_or(t, |w| w.min(t)));
        if let Some(t) = self.drain_until {
            at(t);
        }
        for l in &self.links {
            if l.chan.is_some() {
                if let Some(t) = l.link.ack_due() {
                    at(t);
                }
                if self.drain_until.is_none() {
                    at(l.last_heartbeat + dcfg.heartbeat);
                    at(l.last_heard + dcfg.dead_after);
                }
            } else if let (true, Some(t)) = (live, l.dead_at(dcfg)) {
                at(t);
            }
        }
        if live {
            at(self.stalls.next_check());
            at(self.last_progress + dcfg.stall_timeout);
        }
        wake
    }

    /// Read each link `ready` marks (indexed like `links`) and handle
    /// what it sent, at `now`. A read error drops its connection, or,
    /// during the drain with nothing left unacked, closes it as the
    /// entity's clean exit. Returns whether any traffic arrived.
    fn read_links(&mut self, ready: &[bool], now: Instant) -> bool {
        let mut progress = false;
        let mut inbuf = std::mem::take(&mut self.inbuf);
        for (idx, _) in ready.iter().enumerate().filter(|(_, r)| **r) {
            let Some(ch) = self.links[idx].chan.as_mut() else {
                continue;
            };
            inbuf.clear();
            match poll_messages_into(&mut ch.conn, &mut ch.dec, &mut inbuf) {
                Ok(()) if inbuf.is_empty() => {}
                Ok(()) => {
                    self.links[idx].last_heard = now;
                    self.last_progress = now;
                    progress = true;
                    self.dispatch(idx, inbuf.drain(..), now);
                }
                Err(_) if self.drain_until.is_some() && self.links[idx].link.unacked_len() == 0 => {
                    if let Some(ch) = self.links[idx].chan.take() {
                        ch.conn.shutdown();
                    }
                }
                Err(e) => {
                    if let Some(rec) = &self.rec {
                        rec.record_global(EventKind::LinkDown, self.links[idx].place as u64, 0);
                    }
                    self.links[idx].drop_conn(now, &mut self.events, &e.to_string());
                }
            }
        }
        self.inbuf = inbuf;
        progress
    }

    /// Handle every message link `idx` accepts of `frames`, which
    /// arrived at `now`.
    fn dispatch(
        &mut self,
        idx: usize,
        frames: impl IntoIterator<Item = (u64, WireMsg)>,
        now: Instant,
    ) {
        for (seq, m) in frames {
            if let Some(m) = self.links[idx].link.accept(seq, m, now) {
                self.handle(m, idx, now);
            }
        }
    }

    /// Attach an identified connection to the link of its place.
    /// Returns that link's index and the frames that came behind the
    /// `Hello`, or `None` when the connection is turned away: an
    /// unknown place or a fingerprint that is not the hub's for the
    /// place (both refused for good), or a place whose entity is still
    /// connected, with a `transport_events` entry in each case; or a
    /// failed `Welcome`.
    fn adopt(&mut self, hs: Handshake, now: Instant) -> Option<(usize, Leftovers)> {
        let Handshake {
            place,
            last_seen,
            fingerprint,
            chan,
            leftovers,
        } = hs;
        let Some(idx) = self.link_of(place) else {
            refuse(chan, Refusal::UnknownPlace);
            self.events
                .push(format!("rejected connection for unknown place {place}"));
            return None;
        };
        let link = &mut self.links[idx];
        if fingerprint != link.fingerprint {
            refuse(chan, Refusal::Fingerprint);
            if link.chan.is_none() {
                link.refused_at = Some(now);
            }
            self.events.push(format!(
                "rejected connection for place {place}: derivation fingerprint mismatch"
            ));
            return None;
        }
        if link.chan.is_some() {
            chan.conn.shutdown();
            self.events.push(format!(
                "rejected connection for place {place}: already connected"
            ));
            return None;
        }
        let resent_before = link.link.stats.frames_resent;
        if !link.attach(chan, last_seen, now) {
            return None;
        }
        let was_connected = std::mem::replace(&mut link.ever_connected, true);
        link.last_heard = now;
        if was_connected {
            self.events
                .push(format!("link place:{place}: reconnected and resumed"));
        }
        if let Some(rec) = &self.rec {
            if was_connected {
                rec.record_global(
                    EventKind::LinkReconnect,
                    place as u64,
                    link.link.stats.reconnects.saturating_sub(1),
                );
            } else {
                rec.record_global(EventKind::LinkConnect, place as u64, 0);
            }
            let resent = link.link.stats.frames_resent - resent_before;
            if resent > 0 {
                rec.record_global(EventKind::LinkRetransmit, place as u64, resent);
            }
        }
        self.last_progress = now;
        Some((idx, leftovers))
    }

    /// The index of the link for `place`.
    fn link_of(&self, place: PlaceId) -> Option<usize> {
        self.links.iter().position(|l| l.place == place)
    }

    /// Dispatch one accepted message from entity `idx`, read at `now`.
    fn handle(&mut self, msg: WireMsg, idx: usize, now: Instant) {
        let rec = self.rec.as_ref();
        match msg {
            WireMsg::Prim {
                session,
                name,
                place,
                lc,
            } => {
                if let Some(s) = self.sessions.get_mut(session) {
                    let since = s.last_prim.unwrap_or(s.started);
                    s.gaps.push(now.duration_since(since).as_micros() as u64);
                    s.mark(now, Mark::Step);
                    s.last_prim = Some(now);
                    s.lc = s.lc.max(lc) + 1;
                    if let Some(rec) = rec {
                        rec.record_named(EventKind::Prim, session, s.lc, &name, place as u64);
                    }
                    s.trace.push((self.tally.prims.intern(&name), place));
                }
            }
            WireMsg::Data {
                session,
                msg,
                path,
                lc,
            } => {
                let dest = self.link_of(msg.to);
                let Some(s) = self.sessions.get_mut(session) else {
                    return; // late traffic of a closed session
                };
                let Some(dest) = dest else {
                    self.events
                        .push(format!("data for unknown place {}", msg.to));
                    return;
                };
                // Mark before the forward counts: the elapsed interval is
                // classified by what was in flight *during* it.
                s.mark(now, Mark::Step);
                let peer = &mut s.peers[dest];
                peer.forwarded += 1;
                let backlog = peer.forwarded.saturating_sub(peer.acked);
                s.counts.on_send(msg.kind, backlog as usize);
                s.lc = s.lc.max(lc) + 1;
                if let Some(rec) = rec {
                    let (a, b) = pack_msg_event(rec, &msg.id, msg.occ, msg.from, msg.to);
                    rec.record(EventKind::Forward, session, s.lc, a, b);
                }
                self.links[dest].push(
                    WireMsg::Data {
                        session,
                        msg,
                        path,
                        lc,
                    },
                    now,
                    &mut self.events,
                );
            }
            WireMsg::Trace { chunk } => {
                if let Some(reg) = &self.registry {
                    reg.absorb(&chunk);
                }
            }
            WireMsg::Status {
                session,
                seen,
                inbox_empty,
                vote,
                steps,
                ..
            } => {
                if let Some(s) = self.sessions.get_mut(session) {
                    s.mark(now, Mark::Notify);
                    let peer = &mut s.peers[idx];
                    peer.acked = peer.acked.max(seen);
                    peer.status = Some(StatusRec {
                        seen,
                        vote,
                        inbox_empty,
                        steps,
                    });
                    if let Some(end) = s.decide(self.cfg.max_steps as u64) {
                        self.closed.push((session, end));
                    }
                }
            }
            WireMsg::Heartbeat { nonce } => {
                self.links[idx].push(WireMsg::HeartbeatAck { nonce }, now, &mut self.events);
            }
            WireMsg::HeartbeatAck { .. } => {}
            other => {
                self.events.push(format!(
                    "unexpected {other:?} from place {}",
                    self.links[idx].place
                ));
            }
        }
    }

    /// Close the sessions in `self.closed` at `now`: notify every
    /// entity, hand each to the tally and free its slot.
    fn close_decided(&mut self, now: Instant) {
        if self.closed.is_empty() {
            return;
        }
        let mut closed = std::mem::take(&mut self.closed);
        for &(id, end) in &closed {
            let Some(slot) = self.sessions.close(id) else {
                continue; // decided twice in one sweep
            };
            for link in self.links.iter_mut() {
                link.push(
                    WireMsg::Close {
                        session: id,
                        end: end.code(),
                    },
                    now,
                    &mut self.events,
                );
            }
            let s = self.sessions.at_mut(slot);
            self.tally
                .close(s.completed(end, self.cfg, now), self.rec.as_ref());
            self.sessions.free(slot);
        }
        closed.clear();
        self.closed = closed;
    }

    /// Heartbeats and supervision: drop silent connections, heartbeat
    /// the rest, and declare an entity dead once it has stayed
    /// disconnected past its deadline, or past the reconnect deadline
    /// after its connection was refused, while sessions are live.
    /// Returns `false` when an entity is dead.
    fn supervise(&mut self, now: Instant) -> bool {
        for link in self.links.iter_mut() {
            if link.chan.is_some() {
                if now.duration_since(link.last_heard) > self.dcfg.dead_after {
                    if let Some(rec) = &self.rec {
                        rec.record_global(EventKind::LinkDown, link.place as u64, 0);
                    }
                    link.drop_conn(now, &mut self.events, "heartbeat silence");
                } else if now.duration_since(link.last_heartbeat) >= self.dcfg.heartbeat {
                    link.last_heartbeat = now;
                    let nonce = link.link.stats.frames_sent;
                    link.push(WireMsg::Heartbeat { nonce }, now, &mut self.events);
                }
            }
            match link.dead_at(self.dcfg) {
                Some(t) if now > t && !self.sessions.is_empty() => {
                    self.dead_entity = Some(link.place);
                    self.events.push(match link.refused_at {
                        Some(r) => format!(
                            "link place:{}: declared dead {:?} after refusing its entity (derivation fingerprint mismatch)",
                            link.place,
                            now.duration_since(r)
                        ),
                        None => format!(
                            "link place:{}: declared dead after {:?} without a connection",
                            link.place,
                            link.connect_deadline(self.dcfg)
                        ),
                    });
                    return false;
                }
                _ => {}
            }
        }
        true
    }

    /// Bring the link-derived part of the tally's metrics up to date:
    /// the links' batching and resend totals, the outbound backlog
    /// (queued plus unacked frames) per link and overall, and the
    /// session-window occupancy.
    fn refresh_metrics(&mut self) {
        let m = &mut self.tally.metrics;
        let g = &mut m.gauges;
        (m.batches_sent, m.bytes_sent, m.piggybacked_acks) = (0, 0, 0);
        m.retransmissions = 0;
        g.link_backlog_frames = 0;
        g.per_link_backlog.clear();
        for l in &self.links {
            let s = &l.link.stats;
            m.batches_sent += s.batches_sent as usize;
            m.bytes_sent += s.bytes_sent as usize;
            m.piggybacked_acks += s.piggybacked_acks as usize;
            m.retransmissions += s.frames_resent as usize;
            let backlog = l.backlog();
            g.link_backlog_frames += backlog;
            g.per_link_backlog
                .insert(format!("place:{}", l.place), backlog as u64);
        }
        g.window_occupancy = self.sessions.len();
    }

    /// Stall forensics: the run's one check, over the hub's sessions.
    /// The link gauges the records carry are refreshed first.
    fn check_stalls(&mut self, now: Instant) {
        if now < self.stalls.next_check() {
            return;
        }
        self.refresh_metrics();
        let open = self.sessions.ascending();
        let open = open.into_iter().map(|(id, s)| (id, s.started, s));
        let registry = self.registry.as_ref();
        self.stalls
            .check(now, self.cfg, &self.tally.metrics, registry, open);
    }

    /// Abort whatever is still live (dead entity or stall) at `now` —
    /// including sessions the window had not opened yet, so every
    /// configured session appears in the report with a verdict.
    fn abort_live(&mut self, now: Instant) {
        while self.next < self.cfg.sessions
            && (self.dead_entity.is_some() || !self.sessions.is_empty())
        {
            let id = self.next as u64;
            let seed = self.cfg.session_seed(self.next);
            self.sessions.open(id, (id, seed, self.links.len(), now));
            self.next += 1;
        }
        let refused = |p| {
            self.links
                .iter()
                .any(|l| l.place == p && l.refused_at.is_some())
        };
        let why = match self.dead_entity {
            Some(p) if refused(p) => {
                format!("entity at place {p} was refused: derivation fingerprint mismatch")
            }
            Some(p) => format!("entity at place {p} is dead"),
            None => "run stalled".to_string(),
        };
        for (id, _) in self.sessions.ascending() {
            self.events.push(format!("session {id}: aborted ({why})"));
            self.closed.push((id, SessionEnd::Aborted));
        }
        self.close_decided(now);
    }

    /// The run's report, once the drain is over.
    fn finish(mut self, backend: &'static str, started: Instant) -> RuntimeReport {
        // The drain may have resent frames: count the final link state.
        self.refresh_metrics();
        self.tally.per_link = self
            .links
            .iter()
            .map(|l| (format!("place:{}", l.place), report_of(&l.link)))
            .collect();
        self.tally.finish(
            "distributed",
            backend,
            started,
            self.stalls.into_records(),
            self.events,
            self.registry.as_ref(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use protogen::Pipeline;
    use transport::Addr;

    /// Aborts and stall records name sessions in ascending id order,
    /// although reused slots hold them in another order.
    #[test]
    fn aborts_and_stalls_list_sessions_by_ascending_id() {
        let derived = Pipeline::load("SPEC a1; b2; exit ENDSPEC")
            .unwrap()
            .check()
            .unwrap()
            .derive()
            .unwrap();
        let d = derived.derivation();
        let cfg = RuntimeConfig::new()
            .sessions(40)
            .threads(2)
            .stall_after(Duration::ZERO);
        let dcfg = DistributedConfig::new(Addr::Tcp("127.0.0.1:0".to_string()));
        let listener = dcfg.listen.listen().unwrap();
        let now = Instant::now();
        let mut hub = Hub::new(d, &cfg, &dcfg, listener, None, now);
        assert!(hub.open_sessions(now));
        assert_eq!(hub.sessions.len(), 32);
        // Free the slots of sessions 3 and 1; sessions 32 and 33 take
        // them, so slot order is no longer id order.
        hub.closed = vec![(3, SessionEnd::Deadlock), (1, SessionEnd::Deadlock)];
        hub.close_decided(now);
        assert!(hub.open_sessions(now));
        let (s1, s3) = (hub.sessions.slot(32), hub.sessions.slot(33));
        assert!(s1.is_some() && s1 < s3, "slots were not reused in order");
        let live: Vec<u64> = (0..34).filter(|id| ![1, 3].contains(id)).collect();

        hub.check_stalls(now + Duration::from_secs(1));
        let stalls = std::mem::replace(&mut hub.stalls, StallTracker::new(now));
        let flagged: Vec<u64> = stalls.into_records().iter().map(|r| r.session).collect();
        assert_eq!(flagged, live);

        hub.dead_entity = Some(1);
        hub.abort_live(now);
        let aborted: Vec<u64> = hub
            .events
            .iter()
            .filter_map(|e| e.strip_prefix("session ")?.split(':').next()?.parse().ok())
            .collect();
        let all: Vec<u64> = live.into_iter().chain(34..40).collect();
        assert_eq!(aborted, all);
        assert!(hub.sessions.is_empty());
    }
}
