//! The hub: medium, monitor and supervisor of a distributed run
//! ([`run_hub_on`]).
//!
//! One [`Hub`] owns every entity link, the open sessions and the tally.
//! Its event loop is a sequence of sweeps ([`Hub::sweep`]); once every
//! session has closed — or an entity died, or the run stalled — it
//! aborts what is still live and drains the surviving links
//! ([`Hub::drain`]) so entities can ship their trace tails home.

use super::handshake::{Handshake, Handshakes, Leftovers};
use super::hub_session::{HubSession, Mark, StatusRec};
use super::link::{fill_poll_set, EntityLink};
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
use std::collections::BTreeMap;
use std::io;
use std::os::fd::RawFd;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use transport::{poll_messages, poll_messages_into, wait_readable, Listener, WireMsg};

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
    let started = Instant::now();
    let registry = run_registry(cfg);
    // The entities run in their own processes, but they are launched from
    // the same derivation with the same backend choice — so the hub's
    // `backend` field reports what `cfg.backend` lowers to, and a
    // `--backend compiled` request that cannot be honored fails the run
    // here, before any entity is awaited.
    let lowered = lower_for(&d.entities, cfg.backend)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
    listener.set_nonblocking(true)?;
    let mut hub = Hub::new(d, cfg, dcfg, listener, registry);
    let server = match &dcfg.metrics {
        Some(addr) => Some(obs::MetricsServer::spawn(
            addr,
            metrics_routes(&hub.share(), hub.registry.as_ref(), started),
        )?),
        None => None,
    };
    hub.run()?;
    hub.abort_live();
    hub.drain()?;
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
    sessions: BTreeMap<u64, HubSession>,
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
}

impl<'r> Hub<'r> {
    fn new(
        d: &'r Derivation,
        cfg: &'r RuntimeConfig,
        dcfg: &'r DistributedConfig,
        listener: Listener,
        registry: Option<Arc<Registry>>,
    ) -> Hub<'r> {
        let now = Instant::now();
        let window = (cfg.threads.max(1) * 8).max(32);
        let mut hub = Hub {
            cfg,
            dcfg,
            listener,
            links: d
                .entities
                .iter()
                .map(|(p, _)| EntityLink::new(*p, now, dcfg.batch_frames))
                .collect(),
            sessions: BTreeMap::new(),
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
        };
        hub.tally.metrics.gauges.window_size = window;
        hub.refresh_metrics();
        hub
    }

    /// The copy of the metrics the HTTP routes read, taken from the live
    /// metrics on the first call; [`Self::publish`] keeps it fresh.
    fn share(&mut self) -> Arc<Mutex<Metrics>> {
        let (shared, _) = self.published.get_or_insert_with(|| {
            (
                Arc::new(Mutex::new(self.tally.metrics.clone())),
                Instant::now(),
            )
        });
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

    /// Sweep until every session has closed, an entity is declared dead
    /// or the run stalls.
    fn run(&mut self) -> io::Result<()> {
        // Whether the previous sweep moved anything: if so, look again
        // without blocking, since traffic usually follows traffic.
        let mut moved = true;
        while self.next < self.cfg.sessions || !self.sessions.is_empty() {
            match self.sweep(moved)? {
                Some(m) => moved = m,
                None => break,
            }
        }
        Ok(())
    }

    /// One pass of the event loop: wait for readiness, read and handle
    /// what arrived, supervise the links and flush them. Returns whether
    /// anything moved, or `None` when the run must stop (a dead entity
    /// or a stall).
    fn sweep(&mut self, moved: bool) -> io::Result<Option<bool>> {
        let mut progress = self.open_sessions();

        // Block until a link, the listener or a pending handshake is
        // readable, or the earliest timer is due.
        let timeout = if moved || progress {
            Some(Duration::ZERO)
        } else {
            self.next_wake()
                .map(|t| t.saturating_duration_since(Instant::now()))
        };
        fill_poll_set(
            &mut self.fds,
            &self.listener,
            &self.links,
            &self.hellos,
            |_| true,
        );
        let ready = wait_readable(&self.fds, timeout)?;
        let n = self.links.len();

        // Read every readable link and process its traffic. Replies and
        // forwards queue on the destination links; they go out in the
        // flush below, one write per link per sweep.
        progress |= self.read_links(&ready[1..=n]);

        // Finish the handshakes that became readable, then accept new
        // connections into the pending set (the next wait covers them).
        for hs in self.hellos.advance(&ready[1 + n..], &mut self.events) {
            if let Some((idx, leftovers)) = self.adopt(hs) {
                progress = true;
                self.dispatch(idx, leftovers);
            }
        }
        if ready[0] {
            self.hellos.accept(&self.listener, self.dcfg);
        }
        self.close_decided();

        let now = Instant::now();
        if !self.supervise(now) {
            return Ok(None);
        }
        // One write per link carries everything this sweep
        // queued (forwards, Opens, Closes, heartbeats) plus any due
        // pure ack.
        for link in self.links.iter_mut() {
            progress |= link.flush(&mut self.events);
        }
        self.publish(now);
        self.check_stalls(now);

        // Global stall guard: nothing moved for too long — abort rather
        // than hang (this also catches bugs in quiescence accounting).
        if !self.sessions.is_empty()
            && now.duration_since(self.last_progress) > self.dcfg.stall_timeout
        {
            self.events.push(format!(
                "no progress for {:?}: aborting {} live session(s)",
                self.dcfg.stall_timeout,
                self.sessions.len()
            ));
            return Ok(None);
        }
        Ok(Some(progress))
    }

    /// Keep the session window full; returns whether a session opened.
    fn open_sessions(&mut self) -> bool {
        let mut opened = false;
        while self.next < self.cfg.sessions && self.sessions.len() < self.window {
            let id = self.next as u64;
            let seed = self.cfg.session_seed(self.next);
            if let Some(rec) = &self.rec {
                rec.record(EventKind::SessionOpen, id, 0, seed, 0);
            }
            self.sessions
                .insert(id, HubSession::new(id, seed, self.links.len()));
            let open = WireMsg::Open {
                session: id,
                seed,
                max_steps: self.cfg.max_steps as u64,
                trace: self.registry.as_ref().map_or(0, |r| r.trace_id),
            };
            for link in self.links.iter_mut() {
                link.push(open.clone(), &mut self.events);
            }
            self.next += 1;
            opened = true;
        }
        opened
    }

    /// The earliest timer the hub must wake for when no socket is
    /// readable: the next handshake deadline; each connected link's
    /// pure-ack deadline, next heartbeat and silence limit; while
    /// sessions are live, each disconnected link's reconnect or join
    /// deadline, the next stall check and the global no-progress guard.
    /// `None` when nothing is pending.
    fn next_wake(&self) -> Option<Instant> {
        let (dcfg, live) = (self.dcfg, !self.sessions.is_empty());
        let mut wake = self.hellos.next_deadline();
        let mut at = |t: Instant| wake = Some(wake.map_or(t, |w| w.min(t)));
        for l in &self.links {
            if l.chan.is_some() {
                if let Some(t) = l.link.ack_due() {
                    at(t);
                }
                at(l.last_heartbeat + dcfg.heartbeat);
                at(l.last_heard + dcfg.dead_after);
            } else if let (true, Some(t)) = (live, l.disconnected_at) {
                at(t + l.connect_deadline(dcfg));
            }
        }
        if live {
            at(self.stalls.next_check());
            at(self.last_progress + dcfg.stall_timeout);
        }
        wake
    }

    /// Read each link `ready` marks (indexed like `links`) and handle
    /// what it sent; a read error drops its connection. Returns whether
    /// any traffic arrived.
    fn read_links(&mut self, ready: &[bool]) -> bool {
        let mut progress = false;
        let mut inbuf = std::mem::take(&mut self.inbuf);
        for (idx, _) in ready.iter().enumerate().filter(|(_, r)| **r) {
            let Some(ch) = self.links[idx].chan.as_mut() else {
                continue;
            };
            inbuf.clear();
            match poll_messages_into(&mut ch.conn, &mut ch.dec, &mut inbuf) {
                Ok(()) => {
                    if !inbuf.is_empty() {
                        let now = Instant::now();
                        self.links[idx].last_heard = now;
                        self.last_progress = now;
                        progress = true;
                    }
                    self.dispatch(idx, inbuf.drain(..));
                }
                Err(e) => {
                    if let Some(rec) = &self.rec {
                        rec.record_global(EventKind::LinkDown, self.links[idx].place as u64, 0);
                    }
                    self.links[idx].drop_conn(&mut self.events, &e.to_string());
                }
            }
        }
        self.inbuf = inbuf;
        progress
    }

    /// Handle every message link `idx` accepts of `frames`.
    fn dispatch(&mut self, idx: usize, frames: impl IntoIterator<Item = (u64, WireMsg)>) {
        for (seq, m) in frames {
            if let Some(m) = self.links[idx].link.accept(seq, m) {
                self.handle(m, idx);
            }
        }
    }

    /// Attach an identified connection to the link of its place.
    /// Returns that link's index and the frames that came behind the
    /// `Hello`, or `None` when the connection is turned away: an
    /// unknown place or a place whose entity is still connected (with a
    /// `transport_events` entry either way), or a failed `Welcome`.
    fn adopt(
        &mut self,
        (place, last_seen, chan, leftovers): Handshake,
    ) -> Option<(usize, Leftovers)> {
        let Some(idx) = self.link_of(place) else {
            chan.conn.shutdown();
            self.events
                .push(format!("rejected connection for unknown place {place}"));
            return None;
        };
        let link = &mut self.links[idx];
        if link.chan.is_some() {
            chan.conn.shutdown();
            self.events.push(format!(
                "rejected connection for place {place}: already connected"
            ));
            return None;
        }
        let resent_before = link.link.stats.frames_resent;
        if !link.attach(chan, last_seen) {
            return None;
        }
        let was_connected = std::mem::replace(&mut link.ever_connected, true);
        link.last_heard = Instant::now();
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
        self.last_progress = Instant::now();
        Some((idx, leftovers))
    }

    /// The index of the link for `place`.
    fn link_of(&self, place: PlaceId) -> Option<usize> {
        self.links.iter().position(|l| l.place == place)
    }

    /// Dispatch one accepted message from entity `idx`.
    fn handle(&mut self, msg: WireMsg, idx: usize) {
        let rec = self.rec.as_ref();
        match msg {
            WireMsg::Prim {
                session,
                name,
                place,
                lc,
            } => {
                if let Some(s) = self.sessions.get_mut(&session) {
                    let now = Instant::now();
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
                let Some(s) = self.sessions.get_mut(&session) else {
                    return; // late traffic of a closed session
                };
                let Some(dest) = dest else {
                    self.events
                        .push(format!("data for unknown place {}", msg.to));
                    return;
                };
                // Mark before the forward counts: the elapsed interval is
                // classified by what was in flight *during* it.
                s.mark(Instant::now(), Mark::Step);
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
                if let Some(s) = self.sessions.get_mut(&session) {
                    s.mark(Instant::now(), Mark::Notify);
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
                self.links[idx].push(WireMsg::HeartbeatAck { nonce }, &mut self.events);
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

    /// Close the sessions in `self.closed`: notify every entity, then
    /// hand each to the tally.
    fn close_decided(&mut self) {
        let mut closed = std::mem::take(&mut self.closed);
        for &(id, end) in &closed {
            let Some(mut s) = self.sessions.remove(&id) else {
                continue;
            };
            for link in self.links.iter_mut() {
                link.push(
                    WireMsg::Close {
                        session: id,
                        end: end.code(),
                    },
                    &mut self.events,
                );
            }
            self.tally
                .close(s.completed(end, self.cfg), self.rec.as_ref());
        }
        closed.clear();
        self.closed = closed;
    }

    /// Heartbeats and supervision: drop silent connections, heartbeat
    /// the rest, and declare an entity dead once it has stayed
    /// disconnected past its deadline while sessions are live. Returns
    /// `false` when an entity is dead.
    fn supervise(&mut self, now: Instant) -> bool {
        for link in self.links.iter_mut() {
            if link.chan.is_some() {
                if now.duration_since(link.last_heard) > self.dcfg.dead_after {
                    if let Some(rec) = &self.rec {
                        rec.record_global(EventKind::LinkDown, link.place as u64, 0);
                    }
                    link.drop_conn(&mut self.events, "heartbeat silence");
                } else if now.duration_since(link.last_heartbeat) >= self.dcfg.heartbeat {
                    link.last_heartbeat = now;
                    let nonce = link.link.stats.frames_sent;
                    link.push(WireMsg::Heartbeat { nonce }, &mut self.events);
                }
            }
            if let Some(t) = link.disconnected_at {
                let deadline = link.connect_deadline(self.dcfg);
                if now.duration_since(t) > deadline && !self.sessions.is_empty() {
                    self.dead_entity = Some(link.place);
                    self.events.push(format!(
                        "link place:{}: declared dead after {:?} without a connection",
                        link.place, deadline
                    ));
                    return false;
                }
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
        if now >= self.stalls.next_check() {
            self.refresh_metrics();
        }
        let open = self.sessions.values().map(|s| (s.id, s.started, s));
        let registry = self.registry.as_ref();
        self.stalls
            .check(now, self.cfg, &self.tally.metrics, registry, open);
    }

    /// Abort whatever is still live (dead entity or stall) — including
    /// sessions the window had not opened yet, so every configured
    /// session appears in the report with a verdict.
    fn abort_live(&mut self) {
        while self.next < self.cfg.sessions
            && (self.dead_entity.is_some() || !self.sessions.is_empty())
        {
            let id = self.next as u64;
            let seed = self.cfg.session_seed(self.next);
            self.sessions
                .insert(id, HubSession::new(id, seed, self.links.len()));
            self.next += 1;
        }
        let why = match self.dead_entity {
            Some(p) => format!("entity at place {p} is dead"),
            None => "run stalled".to_string(),
        };
        for &id in self.sessions.keys() {
            self.events.push(format!("session {id}: aborted ({why})"));
            self.closed.push((id, SessionEnd::Aborted));
        }
        self.close_decided();
    }

    /// Orderly shutdown of surviving entities, with a bounded drain: the
    /// listener stays open so an entity that was mid-reconnect can come
    /// back for its buffered Close/Shutdown frames. A link is done once
    /// its peer has acked everything and closed the connection (an
    /// entity force-acks right before exiting on Shutdown); anything
    /// else is capped by the reconnect deadline.
    fn drain(&mut self) -> io::Result<()> {
        for link in self.links.iter_mut() {
            link.push(WireMsg::Shutdown, &mut self.events);
            // `push` only coalesces; force the batch out now — the
            // Shutdown (and any abort-path Closes still queued) must not
            // wait for the entity to time out and reconnect for its
            // resume retransmit.
            link.flush(&mut self.events);
        }
        let drain_deadline = Instant::now() + self.dcfg.reconnect_deadline;
        let mut done: Vec<bool> = self
            .links
            .iter()
            .map(|l| Some(l.place) == self.dead_entity)
            .collect();
        let n = self.links.len();
        while done.iter().any(|d| !d) {
            let now = Instant::now();
            if now >= drain_deadline {
                break;
            }
            let wake = self
                .hellos
                .next_deadline()
                .map_or(drain_deadline, |t| t.min(drain_deadline));
            fill_poll_set(
                &mut self.fds,
                &self.listener,
                &self.links,
                &self.hellos,
                |i| !done[i],
            );
            let ready = wait_readable(&self.fds, Some(wake.saturating_duration_since(now)))?;
            for (idx, done_flag) in done.iter_mut().enumerate() {
                if !*done_flag && ready[1 + idx] {
                    *done_flag = self.drain_link(idx);
                }
            }
            for hs in self.hellos.advance(&ready[1 + n..], &mut self.events) {
                if let Some((idx, leftovers)) = self.adopt(hs) {
                    self.drain_frames(idx, leftovers);
                }
            }
            if ready[0] {
                self.hellos.accept(&self.listener, self.dcfg);
            }
        }
        for _ in self.hellos.pending.drain(..) {
            self.events
                .push("handshake abandoned: the run ended before its Hello arrived".to_string());
        }
        Ok(())
    }

    /// Accept `frames` on link `idx` during the drain, absorbing trace
    /// chunks — the one payload still expected: an entity flushes its
    /// recorder right before exiting. Then force-ack, so the entity sees
    /// delivery, retires its resend buffer and exits instead of waiting
    /// out its flush window.
    fn drain_frames(&mut self, idx: usize, frames: impl IntoIterator<Item = (u64, WireMsg)>) {
        let link = &mut self.links[idx];
        for (seq, m) in frames {
            if let Some(WireMsg::Trace { chunk }) = link.link.accept(seq, m) {
                if let Some(reg) = &self.registry {
                    reg.absorb(&chunk);
                }
            }
        }
        if let Some(ch) = link.chan.as_mut() {
            let _ = link.link.maybe_ack(&mut ch.conn, true);
        }
    }

    /// Read a readable link during the drain. Returns whether the link
    /// is done: its entity closed the connection with nothing left
    /// unacked.
    fn drain_link(&mut self, idx: usize) -> bool {
        let link = &mut self.links[idx];
        let Some(ch) = link.chan.as_mut() else {
            return false;
        };
        match poll_messages(&mut ch.conn, &mut ch.dec) {
            Ok(batch) => {
                self.drain_frames(idx, batch);
                false
            }
            Err(_) => {
                if let Some(ch) = link.chan.take() {
                    ch.conn.shutdown();
                }
                // EOF with an empty resume buffer means the entity saw
                // everything and exited; otherwise keep the reconnect
                // window open.
                link.link.unacked_len() == 0
            }
        }
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
