//! Exporters over a merged [`TraceLog`]: Chrome `trace_event` JSON, a
//! human-readable causal timeline, and the causal-consistency checker
//! used by the distributed acceptance tests.

use crate::event::{unpack_msg, Event, EventKind, NO_SESSION};
use semantics::json::Json;
use semantics::json_obj;
use std::collections::BTreeMap;

/// A resolved event: the raw [`Event`] plus its interned name, if any.
#[derive(Clone, Debug)]
pub struct TraceEvent {
    pub ev: Event,
    pub name: Option<String>,
}

impl TraceEvent {
    /// Compact human label, e.g. `prim conreq`, `send n14#0 1->2`.
    pub fn label(&self) -> String {
        let ev = &self.ev;
        match ev.kind {
            EventKind::Prim => format!("prim {}@{}", self.name_or("?"), ev.b),
            EventKind::PrimOffer => {
                format!("refused offer {}@{}", self.name_or("?"), ev.b)
            }
            EventKind::MediumSend | EventKind::MediumRecv | EventKind::Forward => {
                let (named, id, occ, from, to) = unpack_msg(ev.a, ev.b);
                let id = if named {
                    self.name_or("?").to_string()
                } else {
                    format!("n{id}")
                };
                format!("{} {id}#{occ} {from}->{to}", ev.kind.tag())
            }
            EventKind::PhaseStart | EventKind::PhaseEnd => {
                format!("{} {}", ev.kind.tag(), self.name_or("?"))
            }
            EventKind::SessionOpen => format!("open seed={}", ev.a),
            EventKind::SessionClose => format!(
                "close {} steps={}",
                match ev.a {
                    0 => "terminated",
                    1 => "deadlock",
                    2 => "step-limit",
                    _ => "aborted",
                },
                ev.b
            ),
            EventKind::LinkConnect => format!("link-connect peer={}", ev.a),
            EventKind::LinkReconnect => {
                format!("link-reconnect peer={} count={}", ev.a, ev.b)
            }
            EventKind::LinkRetransmit => {
                format!("link-retransmit peer={} frames={}", ev.a, ev.b)
            }
            EventKind::LinkDown => format!("link-down peer={}", ev.a),
            EventKind::FaultSummary => format!("faults lost={} retx={}", ev.a, ev.b),
            EventKind::Violation => {
                format!("violation {}@{}", self.name_or("?"), ev.b)
            }
            EventKind::Abort => "abort".to_string(),
        }
    }

    fn name_or<'a>(&'a self, fallback: &'a str) -> &'a str {
        match &self.name {
            Some(n) if !n.is_empty() => n,
            _ => fallback,
        }
    }
}

/// A merged causal log: everything one process knows about a trace.
#[derive(Clone, Debug)]
pub struct TraceLog {
    pub trace_id: u64,
    pub events: Vec<TraceEvent>,
}

impl TraceLog {
    /// Render as Chrome `trace_event` JSON (the "JSON object format").
    /// One event object per line, so the output is grep-friendly; load it
    /// at `chrome://tracing` or in Perfetto. `pid` is the place, `tid`
    /// the session.
    pub fn to_chrome_json(&self) -> String {
        let us = |ns: u64| ns as f64 / 1000.0;
        let mut events = Vec::with_capacity(self.events.len());
        // Pair phase spans into single "X" events; everything else is an
        // instant.
        let mut open_phases: BTreeMap<(u8, String), u64> = BTreeMap::new();
        for tev in &self.events {
            let ev = &tev.ev;
            events.push(match ev.kind {
                EventKind::PhaseStart => {
                    open_phases
                        .insert((ev.place, tev.name.clone().unwrap_or_default()), ev.wall_ns);
                    continue;
                }
                EventKind::PhaseEnd => {
                    let name = tev.name.clone().unwrap_or_default();
                    let start = open_phases.remove(&(ev.place, name.clone())).unwrap_or(0);
                    json_obj! {
                        "name" => name,
                        "cat" => "phase",
                        "ph" => "X",
                        "ts" => us(start),
                        "dur" => us(ev.wall_ns.saturating_sub(start)),
                        "pid" => ev.place,
                        "tid" => 0u64,
                        "args" => json_obj! { "lc" => 0u64, "session" => -1i64 },
                    }
                }
                _ => {
                    let session = (ev.session != NO_SESSION).then_some(ev.session);
                    json_obj! {
                        "name" => tev.label(),
                        "cat" => ev.kind.tag(),
                        "ph" => "i",
                        "s" => "t",
                        "ts" => us(ev.wall_ns),
                        "pid" => ev.place,
                        "tid" => session.unwrap_or(0),
                        "args" => json_obj! {
                            "lc" => ev.lc,
                            "session" => session.map_or(Json::I64(-1), Json::from),
                        },
                    }
                }
            });
        }
        let doc = json_obj! {
            "traceEvents" => Json::Arr(events),
            "displayTimeUnit" => "ms",
            "otherData" => json_obj! {
                "tool" => "protogen",
                "trace_id" => format!("{:#x}", self.trace_id),
            },
        };
        format!("{doc:#}\n")
    }

    /// Render a per-session causal timeline, sessions in order, events
    /// ordered by logical clock (bookkeeping events with `lc == 0` come
    /// first in wall order).
    pub fn to_timeline(&self) -> String {
        let mut by_session: BTreeMap<u64, Vec<&TraceEvent>> = BTreeMap::new();
        for tev in &self.events {
            by_session.entry(tev.ev.session).or_default().push(tev);
        }
        let mut out = String::new();
        out.push_str(&format!("trace {:#x}\n", self.trace_id));
        for (session, mut evs) in by_session {
            evs.sort_by_key(|t| (t.ev.lc, t.ev.place, t.ev.wall_ns));
            if session == NO_SESSION {
                out.push_str("== global ==\n");
            } else {
                out.push_str(&format!("== session {session} ==\n"));
            }
            for t in evs {
                out.push_str(&format!(
                    "  lc={:<5} place={:<3} {}\n",
                    t.ev.lc,
                    t.ev.place,
                    t.label()
                ));
            }
        }
        out
    }

    /// Last `n` events of `session`, rendered as timeline lines — the
    /// flight-recorder tail attached to violation and abort reports.
    pub fn tail(&self, session: u64, n: usize) -> Vec<String> {
        let mut evs: Vec<&TraceEvent> = self
            .events
            .iter()
            .filter(|t| t.ev.session == session)
            .collect();
        evs.sort_by_key(|t| (t.ev.lc, t.ev.place, t.ev.wall_ns));
        evs.iter()
            .rev()
            .take(n)
            .rev()
            .map(|t| format!("lc={} place={} {}", t.ev.lc, t.ev.place, t.label()))
            .collect()
    }

    /// Check causal consistency of the merged log. Returns one line per
    /// violation found (empty = consistent):
    ///
    /// 1. per `(session, recorder-place)`, the Lamport clocks of
    ///    action events (prim/send/recv/forward) are strictly
    ///    increasing in emission (wall) order;
    /// 2. the k-th receive of a `(session, from, to, message)` stream
    ///    carries a clock strictly greater than the k-th send's.
    pub fn causal_violations(&self) -> Vec<String> {
        let mut problems = Vec::new();
        let actions = |t: &&TraceEvent| {
            matches!(
                t.ev.kind,
                EventKind::Prim
                    | EventKind::MediumSend
                    | EventKind::MediumRecv
                    | EventKind::Forward
            ) && t.ev.lc > 0
        };
        // 1. per-(session, place) monotonicity.
        let mut streams: BTreeMap<(u64, u8), Vec<&TraceEvent>> = BTreeMap::new();
        for t in self.events.iter().filter(actions) {
            streams
                .entry((t.ev.session, t.ev.place))
                .or_default()
                .push(t);
        }
        for ((session, place), mut evs) in streams {
            evs.sort_by_key(|t| t.ev.wall_ns);
            for w in evs.windows(2) {
                if w[1].ev.lc <= w[0].ev.lc {
                    problems.push(format!(
                        "session {session} place {place}: lc {} not after {} ({} vs {})",
                        w[1].ev.lc,
                        w[0].ev.lc,
                        w[1].label(),
                        w[0].label()
                    ));
                }
            }
        }
        // 2. send happens-before matching receive, matched FIFO per
        // (session, from, to, message id) — occurrence ids are
        // per-address-space, so FIFO rank is the cross-process key.
        let mut sends: BTreeMap<(u64, u8, u8, u64), Vec<u64>> = BTreeMap::new();
        let mut recvs: BTreeMap<(u64, u8, u8, u64), Vec<u64>> = BTreeMap::new();
        for t in self.events.iter().filter(actions) {
            let (_, id, _, from, to) = unpack_msg(t.ev.a, t.ev.b);
            let key = (t.ev.session, from, to, id as u64);
            match t.ev.kind {
                EventKind::MediumSend => sends.entry(key).or_default().push(t.ev.lc),
                EventKind::MediumRecv => recvs.entry(key).or_default().push(t.ev.lc),
                _ => {}
            }
        }
        for (key, rlcs) in recvs {
            let slcs = sends.remove(&key).unwrap_or_default();
            for (k, rlc) in rlcs.iter().enumerate() {
                match slcs.get(k) {
                    None => problems.push(format!(
                        "session {} {}->{} msg {}: receive #{k} has no matching send",
                        key.0, key.1, key.2, key.3
                    )),
                    Some(slc) if rlc <= slc => problems.push(format!(
                        "session {} {}->{} msg {}: receive lc {rlc} not after send lc {slc}",
                        key.0, key.1, key.2, key.3
                    )),
                    _ => {}
                }
            }
        }
        problems
    }
}

/// One event as parsed back from Chrome `trace_event` JSON — enough for
/// `protogen trace --inspect/--validate`, not a general JSON reader.
#[derive(Clone, Debug)]
pub struct ChromeEvent {
    pub name: String,
    pub cat: String,
    pub ph: String,
    pub ts_us: f64,
    pub dur_us: f64,
    pub pid: u64,
    pub tid: u64,
    pub lc: u64,
    pub session: i64,
}

/// Parse a Chrome `trace_event` document such as
/// [`TraceLog::to_chrome_json`] writes. `Err` names the first problem:
/// malformed JSON, a missing `traceEvents` array, or an event without
/// `name`, `ph`, `ts`, `pid` or `tid`.
pub fn parse_chrome_json(text: &str) -> Result<Vec<ChromeEvent>, String> {
    let doc = Json::parse(text)?;
    let events = doc["traceEvents"]
        .as_array()
        .ok_or("missing traceEvents array")?;
    events
        .iter()
        .enumerate()
        .map(|(i, e)| {
            let field = |key: &str| format!("event {i}: missing or mistyped {key}");
            let str_of = |key: &str| {
                e[key]
                    .as_str()
                    .map(str::to_string)
                    .ok_or_else(|| field(key))
            };
            Ok(ChromeEvent {
                name: str_of("name")?,
                cat: e["cat"].as_str().unwrap_or_default().to_string(),
                ph: str_of("ph")?,
                ts_us: e["ts"].as_f64().ok_or_else(|| field("ts"))?,
                dur_us: e["dur"].as_f64().unwrap_or(0.0),
                pid: e["pid"].as_u64().ok_or_else(|| field("pid"))?,
                tid: e["tid"].as_u64().ok_or_else(|| field("tid"))?,
                lc: e["args"]["lc"].as_u64().unwrap_or(0),
                session: e["args"]["session"].as_f64().unwrap_or(-1.0) as i64,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ring::Registry;

    fn sample_log() -> TraceLog {
        let reg = Registry::new(0xBEEF, 256);
        let hub = reg.recorder(0);
        let e1 = reg.recorder(1);
        let e2 = reg.recorder(2);
        hub.record(EventKind::SessionOpen, 5, 0, 42, 0);
        e1.record_named(EventKind::Prim, 5, 1, "conreq", 1);
        let (a, b) = crate::event::pack_msg(false, 14, 0, 1, 2);
        e1.record(EventKind::MediumSend, 5, 2, a, b);
        e2.record(EventKind::MediumRecv, 5, 3, a, b);
        e2.record_named(EventKind::Prim, 5, 4, "conind", 2);
        hub.record(EventKind::SessionClose, 5, 0, 0, 9);
        reg.snapshot()
    }

    #[test]
    fn chrome_export_parses_back() {
        let json = sample_log().to_chrome_json();
        let events = parse_chrome_json(&json).unwrap();
        assert_eq!(events.len(), 6);
        assert!(events.iter().any(|e| e.name.contains("conreq")));
        assert!(events.iter().all(|e| e.ph == "i"));
        assert!(parse_chrome_json("{}").is_err());
    }

    #[test]
    fn phase_spans_pair_into_duration_events() {
        let reg = Registry::new(1, 64);
        let rec = reg.recorder(0);
        rec.record_named(EventKind::PhaseStart, NO_SESSION, 0, "parse", 0);
        rec.record_named(EventKind::PhaseEnd, NO_SESSION, 0, "parse", 0);
        let json = reg.snapshot().to_chrome_json();
        let events = parse_chrome_json(&json).unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].ph, "X");
        assert_eq!(events[0].name, "parse");
    }

    #[test]
    fn consistent_log_has_no_causal_violations() {
        assert_eq!(sample_log().causal_violations(), Vec::<String>::new());
    }

    #[test]
    fn recv_before_send_is_flagged() {
        let reg = Registry::new(1, 64);
        let e1 = reg.recorder(1);
        let e2 = reg.recorder(2);
        let (a, b) = crate::event::pack_msg(false, 3, 0, 1, 2);
        e1.record(EventKind::MediumSend, 7, 5, a, b);
        e2.record(EventKind::MediumRecv, 7, 4, a, b); // lc not after send
        let problems = reg.snapshot().causal_violations();
        assert_eq!(problems.len(), 1);
        assert!(problems[0].contains("not after send"));
    }

    #[test]
    fn non_monotone_place_clock_is_flagged() {
        let reg = Registry::new(1, 64);
        let e1 = reg.recorder(1);
        e1.record_named(EventKind::Prim, 7, 2, "a", 1);
        e1.record_named(EventKind::Prim, 7, 2, "b", 1);
        let problems = reg.snapshot().causal_violations();
        assert!(problems.iter().any(|p| p.contains("not after")));
    }

    #[test]
    fn tail_returns_newest_lines_of_one_session() {
        let log = sample_log();
        let tail = log.tail(5, 2);
        assert_eq!(tail.len(), 2);
        assert!(tail[1].contains("prim conind"), "{tail:?}");
        assert!(log.tail(99, 4).is_empty());
    }
}
