//! One protocol entity over a hub link: [`serve_entity`].
//!
//! The entity steps every session the hub opens through the same kernel
//! as the other engines ([`enabled_offers`]), with the heads of the
//! session's inboxes as the guard: a receive fires only for the message
//! its sender's inbox holds first. What a move emits (`Prim`, `Data`)
//! and the `Status` of a parked session queue in one outbox, which
//! leaves in one flush per sweep.

use super::handshake::{try_connect, Leftovers};
use super::{disconnect, flush, report_of, send};
use crate::compiled::lower_for;
use crate::config::BackendChoice;
use crate::entity::pack_msg_event;
use crate::metrics::LinkReport;
use lotos::ast::Spec;
use lotos::event::MsgId;
use lotos::place::PlaceId;
use medium::Msg;
use obs::{EventKind, Recorder, Registry};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use semantics::backend::{
    enabled_offers, make_backend, BState, Backend, EntityBackend, MoveGuard, OfferView,
};
use semantics::engine::TermArena;
use semantics::hash::fx_hash;
use semantics::term::OccTable;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use transport::{poll_messages_into, wait_readable, Addr, Backoff, Channel, Link, WireMsg};

/// Configuration of one entity process (`protogen serve`).
#[derive(Clone, Debug)]
pub struct ServeConfig {
    pub hub: Addr,
    pub place: PlaceId,
    /// How the place-local behaviour is stepped (`Auto` compiles to
    /// tables when the behaviour lowers, interprets otherwise — pass the
    /// same choice to the hub so its report describes the entities).
    pub backend: BackendChoice,
    /// Primitives this entity's users never offer.
    pub refuse: Vec<(String, PlaceId)>,
    /// Jitter seed for the reconnect backoff.
    pub seed: u64,
    pub heartbeat: Duration,
    /// Frames queued before a mid-sweep flush, as on the hub.
    pub batch_frames: usize,
    /// Silence from the hub before the connection is presumed dead.
    pub dead_after: Duration,
    pub backoff_base: Duration,
    pub backoff_cap: Duration,
    /// Consecutive failed reconnect attempts before giving up.
    pub retry_budget: u32,
}

impl ServeConfig {
    pub fn new(hub: Addr, place: PlaceId) -> ServeConfig {
        ServeConfig {
            hub,
            place,
            backend: BackendChoice::default(),
            refuse: Vec::new(),
            seed: 0xC0FFEE,
            heartbeat: Duration::from_millis(100),
            batch_frames: 128,
            dead_after: Duration::from_secs(2),
            backoff_base: Duration::from_millis(25),
            backoff_cap: Duration::from_secs(1),
            retry_budget: 40,
        }
    }
}

/// What a completed `serve` run did — for logging and tests.
#[derive(Clone, Debug, Default)]
pub struct ServeOutcome {
    pub sessions_opened: u64,
    pub sessions_closed: u64,
    pub primitives: u64,
    pub link: LinkReport,
}

/// One session as stepped by an entity process.
struct EntSession {
    state: BState,
    rng: StdRng,
    inbox: BTreeMap<PlaceId, VecDeque<Msg>>,
    seen: u64,
    consumed: u64,
    steps: u64,
    max_steps: u64,
    /// Per-session Lamport clock: merged with the wire clock of every
    /// arriving `Data` frame, +1 per executed move, and stamped on every
    /// outgoing `Prim`/`Data` frame and recorded event.
    lc: u64,
}

/// A session's inboxes, as the move kernel asks about them.
struct InboxGuard<'s> {
    inbox: &'s BTreeMap<PlaceId, VecDeque<Msg>>,
}

impl MoveGuard for InboxGuard<'_> {
    /// The hub link takes every send; it buffers across reconnects.
    fn can_send(&self, _to: PlaceId) -> bool {
        true
    }

    fn can_recv(&mut self, from: PlaceId, msg: &MsgId, occ: u32) -> bool {
        self.inbox
            .get(&from)
            .and_then(|q| q.front())
            .is_some_and(|m| m.id == *msg && m.occ == occ)
    }
}

/// Moves executed per session per scheduling slice.
const SLICE: usize = 128;

/// One entity process's sessions and what steps them; the connection
/// itself stays with [`serve_entity`].
struct Entity<'c> {
    cfg: &'c ServeConfig,
    backend: Backend,
    occ: Arc<Mutex<OccTable>>,
    /// `cfg.refuse`, as ids of the backend's primitives.
    refuse: Vec<(u32, PlaceId)>,
    sessions: BTreeMap<u64, EntSession>,
    runnable: BTreeSet<u64>,
    /// The sessions one sweep steps, reused from sweep to sweep.
    stepping: Vec<u64>,
    /// One row's enabled offers, reused for every move.
    enabled: Vec<usize>,
    /// Frames for the hub, sent at the end of the sweep.
    outbox: Vec<WireMsg>,
    outcome: ServeOutcome,
    /// The flight recorder, created when the first `Open` carries a
    /// nonzero trace id (the hub is recording), so an untraced hub costs
    /// the entity nothing.
    registry: Option<Arc<Registry>>,
    rec: Option<Recorder>,
    shutdown: bool,
}

impl<'c> Entity<'c> {
    fn new(entity: &Spec, cfg: &'c ServeConfig) -> Result<Entity<'c>, String> {
        let occ = Arc::new(Mutex::new(OccTable::new()));
        let lowered = lower_for(&[(cfg.place, entity.clone())], cfg.backend)?;
        let backend = make_backend(
            entity,
            lowered.into_iter().next().flatten(),
            &Arc::new(TermArena::new()),
            &occ,
        );
        Ok(Entity {
            refuse: backend.prims().resolve(&cfg.refuse),
            cfg,
            backend,
            occ,
            sessions: BTreeMap::new(),
            runnable: BTreeSet::new(),
            stepping: Vec::new(),
            enabled: Vec::new(),
            outbox: Vec::new(),
            outcome: ServeOutcome::default(),
            registry: None,
            rec: None,
            shutdown: false,
        })
    }

    /// The outcome to return, with `link`'s counters.
    fn finish(self, link: &Link) -> ServeOutcome {
        ServeOutcome {
            link: report_of(link),
            ..self.outcome
        }
    }

    /// Handle every message `link` accepts of `frames`.
    fn accept_all(&mut self, link: &mut Link, frames: impl IntoIterator<Item = (u64, WireMsg)>) {
        for (seq, m) in frames {
            if let Some(m) = link.accept(seq, m) {
                self.handle(m);
            }
        }
    }

    /// Dispatch one accepted hub message.
    fn handle(&mut self, msg: WireMsg) {
        match msg {
            WireMsg::Open {
                session,
                seed,
                max_steps,
                trace,
            } => {
                if trace != 0 && self.registry.is_none() {
                    let reg = Registry::new(trace, obs::DEFAULT_CAPACITY);
                    self.rec = Some(reg.recorder(self.cfg.place));
                    self.registry = Some(reg);
                }
                if let Some(rec) = &self.rec {
                    rec.record(EventKind::SessionOpen, session, 0, seed, 0);
                }
                let rng = StdRng::seed_from_u64(fx_hash(&(seed, session, self.cfg.place)));
                self.sessions.insert(
                    session,
                    EntSession {
                        state: self.backend.init(),
                        rng,
                        inbox: BTreeMap::new(),
                        seen: 0,
                        consumed: 0,
                        steps: 0,
                        max_steps,
                        lc: 0,
                    },
                );
                self.runnable.insert(session);
                self.outcome.sessions_opened += 1;
            }
            WireMsg::Data {
                session,
                mut msg,
                path,
                lc,
            } => {
                // Resolve the canonical site path to this process's local
                // occurrence number; the sender's raw number is
                // meaningless here.
                let Some(s) = self.sessions.get_mut(&session) else {
                    return;
                };
                msg.occ = self
                    .occ
                    .lock()
                    .expect("occ table poisoned")
                    .resolve_path(&path);
                s.seen += 1;
                // Lamport merge: everything this session does next is
                // causally after the sender's clock at send time.
                s.lc = s.lc.max(lc);
                s.inbox.entry(msg.from).or_default().push_back(msg);
                self.runnable.insert(session);
            }
            WireMsg::Close { session, .. } => {
                self.sessions.remove(&session);
                self.runnable.remove(&session);
                self.outcome.sessions_closed += 1;
            }
            WireMsg::Shutdown => self.shutdown = true,
            WireMsg::Heartbeat { nonce } => self.outbox.push(WireMsg::HeartbeatAck { nonce }),
            WireMsg::HeartbeatAck { .. } => {}
            other => {
                debug_assert!(false, "unexpected hub message {other:?}");
            }
        }
    }

    /// Step every runnable session once, keeping those with work left.
    fn step_runnable(&mut self) {
        let mut stepping = std::mem::take(&mut self.stepping);
        stepping.clear();
        stepping.extend(&self.runnable);
        self.runnable.clear();
        for &id in &stepping {
            if self.step_session(id) {
                self.runnable.insert(id);
            }
        }
        self.stepping = stepping;
    }

    /// Step up to [`SLICE`] moves of one session. Returns `true` when
    /// the session still has work (reschedule), `false` when it parked
    /// (a `Status` is in the outbox) or is gone.
    fn step_session(&mut self, id: u64) -> bool {
        let Some(s) = self.sessions.get_mut(&id) else {
            return false;
        };
        let rec = self.rec.as_ref();
        for _ in 0..SLICE {
            let n = self.backend.offers(&s.state);
            let mut guard = InboxGuard { inbox: &s.inbox };
            let facts = enabled_offers(
                &self.backend,
                n,
                &self.refuse,
                &mut guard,
                &mut self.enabled,
            );
            if self.enabled.is_empty() || s.steps >= s.max_steps {
                park(
                    id,
                    s,
                    facts.delta && s.steps < s.max_steps,
                    &mut self.outbox,
                );
                return false;
            }
            let k = if self.enabled.len() == 1 {
                0
            } else {
                s.rng.gen_range(0..self.enabled.len())
            };
            let i = self.enabled[k];
            s.steps += 1;
            s.lc += 1;
            match self.backend.offer(i) {
                OfferView::I | OfferView::Delta => {}
                OfferView::Prim { name, place, .. } => {
                    self.outcome.primitives += 1;
                    if let Some(rec) = rec {
                        rec.record_named(EventKind::Prim, id, s.lc, name, place as u64);
                    }
                    self.outbox.push(WireMsg::Prim {
                        session: id,
                        name: name.to_string(),
                        place,
                        lc: s.lc,
                    });
                }
                OfferView::Send { to, msg, occ, kind } => {
                    let path = self
                        .occ
                        .lock()
                        .expect("occ table poisoned")
                        .path_of(occ)
                        .unwrap_or_default();
                    let m = Msg {
                        from: self.cfg.place,
                        to,
                        id: msg.clone(),
                        occ,
                        kind,
                    };
                    if let Some(rec) = rec {
                        let (a, b) = pack_msg_event(rec, &m.id, m.occ, m.from, m.to);
                        rec.record(EventKind::MediumSend, id, s.lc, a, b);
                    }
                    self.outbox.push(WireMsg::Data {
                        session: id,
                        msg: m,
                        path,
                        lc: s.lc,
                    });
                }
                OfferView::Recv { from, .. } => {
                    let q = s.inbox.get_mut(&from).expect("classified enabled");
                    let m = q.pop_front().expect("classified enabled");
                    if let Some(rec) = rec {
                        let (a, b) = pack_msg_event(rec, &m.id, m.occ, m.from, self.cfg.place);
                        rec.record(EventKind::MediumRecv, id, s.lc, a, b);
                    }
                    s.consumed += 1;
                }
            }
            self.backend.step(&mut s.state, i);
        }
        true
    }
}

/// Park a session: report a [`WireMsg::Status`] so the hub can count
/// quiescence.
fn park(id: u64, s: &EntSession, vote: bool, outbox: &mut Vec<WireMsg>) {
    outbox.push(WireMsg::Status {
        session: id,
        seen: s.seen,
        consumed: s.consumed,
        inbox_empty: s.inbox.values().all(|q| q.is_empty()),
        vote,
        blocked: !vote,
        steps: s.steps,
    });
}

/// Run one protocol entity against a hub until the hub shuts the link
/// down. Returns `Err` (with a diagnostic) when the link dies for good —
/// connect/reconnect budget exhausted — so the caller can exit with the
/// transport failure code.
pub fn serve_entity(entity: &Spec, cfg: &ServeConfig) -> Result<ServeOutcome, String> {
    let mut ent = Entity::new(entity, cfg)?;
    let mut link = Link::new(cfg.batch_frames);
    let mut chan: Option<Channel> = None;
    let mut backoff = Backoff::new(
        cfg.backoff_base,
        cfg.backoff_cap,
        cfg.retry_budget,
        fx_hash(&(cfg.seed, cfg.place)),
    );
    let mut trace_flushed = false;
    let mut flush_deadline = Instant::now();
    let mut last_heard = Instant::now();
    let mut last_hb = Instant::now();
    let mut inbuf: Vec<(u64, WireMsg)> = Vec::new();

    loop {
        // (Re)connect under the backoff policy.
        if chan.is_none() {
            if trace_flushed && Instant::now() >= flush_deadline {
                // The run is over and the tail flush is best-effort:
                // don't burn the whole retry budget chasing a hub that
                // already closed its drain window.
                return Ok(ent.finish(&link));
            }
            // While lingering after a shutdown, stop retrying at the
            // flush deadline rather than spend the whole retry budget.
            let give_up = trace_flushed.then_some(flush_deadline);
            match entity_connect(cfg, &mut link, &mut backoff, give_up) {
                Ok((c, leftovers)) => {
                    chan = Some(c);
                    backoff.reset();
                    last_heard = Instant::now();
                    ent.accept_all(&mut link, leftovers);
                }
                Err(e) => {
                    if trace_flushed {
                        // Completed run, unreachable hub: exit cleanly
                        // rather than report a transport failure just
                        // because the trace tail could not land.
                        return Ok(ent.finish(&link));
                    }
                    return Err(format!(
                        "place {}: link to hub {} is dead: {e}",
                        cfg.place, cfg.hub
                    ));
                }
            }
        }

        // Wait for the hub. While this pass has work of its own —
        // runnable sessions, replies to send, a shutdown to act on — the
        // socket is only polled. Once everything is parked this wait is
        // the idle park, bounded by the entity's own timers: the
        // pure-ack deadline, the next heartbeat, the hub's silence limit
        // and, while lingering after a shutdown, the trace-flush
        // deadline.
        let mut dropped = false;
        if let Some(ch) = chan.as_mut() {
            let busy = !ent.runnable.is_empty()
                || !ent.outbox.is_empty()
                || (ent.shutdown && ent.sessions.is_empty() && !trace_flushed);
            let timeout = if busy {
                Duration::ZERO
            } else {
                let mut wake = (last_hb + cfg.heartbeat).min(last_heard + cfg.dead_after);
                if let Some(t) = link.ack_due() {
                    wake = wake.min(t);
                }
                if trace_flushed {
                    wake = wake.min(flush_deadline);
                }
                wake.saturating_duration_since(Instant::now())
            };
            let readable = wait_readable(&[ch.conn.raw_fd()], Some(timeout))
                .map_err(|e| format!("place {}: waiting on the hub link: {e}", cfg.place))?;
            inbuf.clear();
            let read = if readable[0] {
                poll_messages_into(&mut ch.conn, &mut ch.dec, &mut inbuf)
            } else {
                Ok(())
            };
            match read {
                Ok(()) => {
                    if !inbuf.is_empty() {
                        last_heard = Instant::now();
                    }
                    ent.accept_all(&mut link, inbuf.drain(..));
                }
                Err(_) => dropped = true,
            }
        }
        if dropped {
            disconnect(&mut chan, &mut link);
            continue;
        }

        if ent.shutdown && ent.sessions.is_empty() {
            // Ship the flight-recorder tail home: the hub absorbs these
            // chunks into the merged causal log during its drain window.
            // Trace frames are sequenced, so a send that dies mid-flush
            // leaves the rest in the resend buffer — flush exactly once,
            // then linger (reconnect + resume at the loop top) until the
            // hub has acked everything or a bounded deadline passes.
            if !trace_flushed {
                trace_flushed = true;
                flush_deadline = Instant::now() + cfg.dead_after.max(Duration::from_secs(2));
                if let Some(reg) = &ent.registry {
                    // Chunks batch-encode into the link's one buffer and
                    // leave in one write; a flush that dies leaves them
                    // sequenced in the resend buffer for the reconnect
                    // below.
                    for chunk in reg.drain_chunks(512) {
                        send(&mut chan, &mut link, WireMsg::Trace { chunk });
                    }
                    flush(&mut chan, &mut link);
                }
            }
            if link.unacked_len() == 0 || Instant::now() >= flush_deadline {
                // Final cumulative ack so the hub can tell a clean exit
                // (everything delivered) from a dying link.
                if let Some(ch) = chan.as_mut() {
                    let _ = link.maybe_ack(&mut ch.conn, true);
                }
                return Ok(ent.finish(&link));
            }
        }

        // Interpret runnable sessions, collecting wire traffic.
        ent.step_runnable();

        // Queue this sweep's traffic and a due heartbeat; everything
        // leaves in one flush, then the hub-death check.
        for m in ent.outbox.drain(..) {
            send(&mut chan, &mut link, m);
        }
        if chan.is_some() {
            let now = Instant::now();
            if now.duration_since(last_hb) >= cfg.heartbeat {
                last_hb = now;
                let nonce = link.stats.frames_sent;
                send(&mut chan, &mut link, WireMsg::Heartbeat { nonce });
            }
            if flush(&mut chan, &mut link) && now.duration_since(last_heard) > cfg.dead_after {
                disconnect(&mut chan, &mut link);
            }
        }
    }
}

/// Connect + handshake + resume, retrying under the backoff schedule
/// until the retry budget is spent or the next attempt would start
/// after `give_up`.
fn entity_connect(
    cfg: &ServeConfig,
    link: &mut Link,
    backoff: &mut Backoff,
    give_up: Option<Instant>,
) -> Result<(Channel, Leftovers), String> {
    loop {
        match try_connect(cfg, link) {
            Ok(ok) => return Ok(ok),
            Err(e) => match backoff.next_delay() {
                Some(delay) if give_up.is_none_or(|t| Instant::now() + delay < t) => {
                    std::thread::sleep(delay)
                }
                Some(_) => return Err(format!("gave up reconnecting; last error: {e}")),
                None => {
                    return Err(format!(
                        "retry budget ({}) exhausted; last error: {e}",
                        cfg.retry_budget
                    ))
                }
            },
        }
    }
}
