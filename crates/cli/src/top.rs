//! `protogen top` — a live terminal dashboard over a running hub's
//! observability endpoints (`--metrics <h:p>`): polls `/health` (compact
//! JSON snapshot) and `/metrics` (Prometheus text) on an interval and
//! redraws throughput, per-stage latency quantiles, link batching, and
//! a backlog sparkline. Standard library only — a plain TCP `GET` is
//! all the hub's exposition server needs.

use protogen::ProtogenError;
use semantics::json::Json;
use std::collections::{BTreeMap, VecDeque};
use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// History window for the backlog sparkline.
const SPARK_LEN: usize = 40;

const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];

/// Blocking HTTP/1.1 GET, returning the response body.
fn http_get(addr: &str, path: &str) -> Result<String, String> {
    let mut conn = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let _ = conn.set_read_timeout(Some(Duration::from_secs(2)));
    let _ = conn.set_write_timeout(Some(Duration::from_secs(2)));
    write!(
        conn,
        "GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n"
    )
    .map_err(|e| format!("send to {addr}: {e}"))?;
    let mut buf = String::new();
    conn.read_to_string(&mut buf)
        .map_err(|e| format!("read from {addr}: {e}"))?;
    match buf.split_once("\r\n\r\n") {
        Some((_, body)) => Ok(body.to_string()),
        None => Err(format!("{addr}{path}: malformed HTTP response")),
    }
}

/// Parse Prometheus text exposition into `full-series-name -> value`
/// (label sets stay inside the key: `name{label="x"}`).
fn parse_prom(text: &str) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    for line in text.lines() {
        if line.starts_with('#') || line.trim().is_empty() {
            continue;
        }
        if let Some((name, value)) = line.rsplit_once(' ') {
            if let Ok(v) = value.parse::<f64>() {
                out.insert(name.to_string(), v);
            }
        }
    }
    out
}

/// The `/health` document; a body that is not JSON reads as `null`, so
/// every field renders as zero.
fn health_doc(body: &str) -> Json {
    Json::parse(body).unwrap_or(Json::Null)
}

fn sparkline(history: &VecDeque<u64>) -> String {
    let max = history.iter().copied().max().unwrap_or(0).max(1);
    history
        .iter()
        .map(|v| BARS[((v * (BARS.len() as u64 - 1)) / max) as usize])
        .collect()
}

fn fmt_bytes(b: f64) -> String {
    if b >= 1024.0 * 1024.0 {
        format!("{:.1} MiB", b / (1024.0 * 1024.0))
    } else if b >= 1024.0 {
        format!("{:.1} KiB", b / 1024.0)
    } else {
        format!("{b:.0} B")
    }
}

/// Rate state between polls.
struct Deltas {
    at: Instant,
    sessions: u64,
    bytes: f64,
}

fn render(
    addr: &str,
    health: &Json,
    prom: &BTreeMap<String, f64>,
    backlog_history: &VecDeque<u64>,
    prev: Option<&Deltas>,
    now: Instant,
) -> String {
    let mut out = String::with_capacity(1024);
    let num = |v: &Json| v.as_f64().unwrap_or(0.0);
    let uptime = num(&health["uptime_s"]);
    let sessions = health["sessions_completed"].as_u64().unwrap_or(0);
    let avg_rate = num(&health["sessions_per_sec"]);
    let live_rate = prev.map(|p| {
        let dt = now.duration_since(p.at).as_secs_f64().max(1e-9);
        sessions.saturating_sub(p.sessions) as f64 / dt
    });
    out.push_str(&format!("protogen top — {addr}   uptime {uptime:.1}s\n"));
    match live_rate {
        Some(r) => out.push_str(&format!(
            "sessions  {sessions} completed   {r:.1}/s live   {avg_rate:.1}/s avg\n"
        )),
        None => out.push_str(&format!(
            "sessions  {sessions} completed   {avg_rate:.1}/s avg\n"
        )),
    }
    out.push_str(&format!(
        "latency   p50 {:.0}us   p99 {:.0}us\n",
        num(&health["session_p50_us"]),
        num(&health["session_p99_us"]),
    ));
    out.push_str(&format!(
        "\n{:<12} {:>10} {:>10} {:>10}\n",
        "stage", "p50(us)", "p99(us)", "count"
    ));
    for stage in ["queue_wait", "step", "notify_wait", "wire"] {
        let s = &health["stages"][stage];
        out.push_str(&format!(
            "{stage:<12} {:>10.0} {:>10.0} {:>10}\n",
            num(&s["p50_us"]),
            num(&s["p99_us"]),
            s["count"].as_u64().unwrap_or(0)
        ));
    }
    let gauge = |key: &str| health["gauges"][key].as_u64().unwrap_or(0);
    out.push_str(&format!(
        "\nwindow    {}/{} in flight\n",
        gauge("window_occupancy"),
        gauge("window_size"),
    ));
    let bytes = *prom.get("protogen_bytes_sent_total").unwrap_or(&0.0);
    let batches = *prom.get("protogen_batches_sent_total").unwrap_or(&0.0);
    let msgs = *prom.get("protogen_messages_sent_total").unwrap_or(&0.0);
    let density = if batches > 0.0 { msgs / batches } else { 0.0 };
    match prev {
        Some(p) => {
            let dt = now.duration_since(p.at).as_secs_f64().max(1e-9);
            out.push_str(&format!(
                "batching  {batches:.0} batches   {}/s   ~{density:.1} msgs/batch\n",
                fmt_bytes((bytes - p.bytes).max(0.0) / dt)
            ));
        }
        None => out.push_str(&format!(
            "batching  {batches:.0} batches   {} total   ~{density:.1} msgs/batch\n",
            fmt_bytes(bytes)
        )),
    }
    out.push_str(&format!(
        "backlog   {:>4} frames  {}\n",
        backlog_history.back().copied().unwrap_or(0),
        sparkline(backlog_history)
    ));
    let mut links: Vec<(&str, f64)> = prom
        .iter()
        .filter_map(|(k, v)| {
            k.strip_prefix("protogen_link_outbound_backlog_frames{link=\"")
                .and_then(|rest| rest.strip_suffix("\"}"))
                .map(|l| (l, *v))
        })
        .collect();
    links.sort_by(|a, b| a.0.cmp(b.0));
    if !links.is_empty() {
        out.push_str("per-link  ");
        for (i, (l, v)) in links.iter().enumerate() {
            if i > 0 {
                out.push_str("   ");
            }
            out.push_str(&format!("{l}: {v:.0}"));
        }
        out.push('\n');
    }
    out
}

/// Entry point for the `top` subcommand. `args` are everything after
/// `protogen top`.
pub fn top(args: &[String]) -> Result<(), ProtogenError> {
    let mut addr: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--interval" => i += 2,
            a if a.starts_with('-') => i += 1,
            a => {
                addr = Some(a.to_string());
                i += 1;
            }
        }
    }
    let addr = addr.ok_or_else(|| {
        ProtogenError::Usage(
            "usage: protogen top <host:port> [--interval <ms>] [--once]\n\
             point it at a hub started with --metrics <host:port>"
                .to_string(),
        )
    })?;
    let interval: u64 = match args.iter().position(|a| a == "--interval") {
        Some(i) => args
            .get(i + 1)
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| ProtogenError::Usage("bad --interval value".into()))?,
        None => 1000,
    };
    let once = args.iter().any(|a| a == "--once");

    let mut history: VecDeque<u64> = VecDeque::with_capacity(SPARK_LEN);
    let mut prev: Option<Deltas> = None;
    loop {
        let health = health_doc(&http_get(&addr, "/health").map_err(ProtogenError::Transport)?);
        let prom = parse_prom(&http_get(&addr, "/metrics").map_err(ProtogenError::Transport)?);
        let now = Instant::now();
        let backlog = *prom.get("protogen_link_backlog_frames").unwrap_or(&0.0) as u64;
        if history.len() == SPARK_LEN {
            history.pop_front();
        }
        history.push_back(backlog);
        let frame = render(&addr, &health, &prom, &history, prev.as_ref(), now);
        if once {
            print!("{frame}");
            return Ok(());
        }
        // Clear + home, then the frame — a plain full-redraw TUI.
        print!("\x1b[2J\x1b[H{frame}");
        let _ = std::io::stdout().flush();
        prev = Some(Deltas {
            at: now,
            sessions: health["sessions_completed"].as_u64().unwrap_or(0),
            bytes: *prom.get("protogen_bytes_sent_total").unwrap_or(&0.0),
        });
        std::thread::sleep(Duration::from_millis(interval));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prometheus_lines_parse_with_labels() {
        let m = parse_prom(
            "# HELP x y\n# TYPE x counter\nx 4\n\
             protogen_stage_latency_us_bucket{stage=\"step\",le=\"1\"} 2\n\
             protogen_link_outbound_backlog_frames{link=\"place:1\"} 7\n",
        );
        assert_eq!(m.get("x"), Some(&4.0));
        assert_eq!(
            m.get("protogen_link_outbound_backlog_frames{link=\"place:1\"}"),
            Some(&7.0)
        );
        assert_eq!(m.len(), 3);
    }

    fn frame(health: &str) -> String {
        render(
            "127.0.0.1:9464",
            &health_doc(health),
            &BTreeMap::new(),
            &VecDeque::new(),
            None,
            Instant::now(),
        )
    }

    #[test]
    fn health_objects_slice_per_stage() {
        let f = frame(
            r#"{"stages": {"queue_wait": {"p50_us": 5.0, "p99_us": 9.0, "count": 3},
                           "step": {"p50_us": 1.25, "p99_us": 2.0, "count": 3}},
                "gauges": {"window_occupancy": 4, "window_size": 64},
                "session_p99_us": 2560.0}"#,
        );
        assert!(
            f.contains("queue_wait            5          9          3"),
            "{f}"
        );
        assert!(
            f.contains("step                  1          2          3"),
            "{f}"
        );
        assert!(
            f.contains("wire                  0          0          0"),
            "{f}"
        );
        assert!(f.contains("window    4/64 in flight"), "{f}");
        assert!(f.contains("p99 2560us"), "{f}");
    }

    /// `/health` bytes come from a network peer: truncated, mistyped or
    /// non-JSON bodies render as zeros, never a panic.
    #[test]
    fn malformed_health_renders_zeros() {
        let good =
            r#"{"uptime_s": 2.0, "sessions_completed": 20, "stages": {"step": {"count": 3}}}"#;
        for body in [
            &good[..good.len() - 1],
            r#"{"stages": [1, 2], "gauges": "x", "sessions_completed": -4, "uptime_s": "7"}"#,
            "HTTP/1.1 500",
            "",
        ] {
            let f = frame(body);
            assert!(f.contains("sessions  0 completed"), "{body}: {f}");
            assert!(
                f.contains("step                  0          0          0"),
                "{f}"
            );
            assert!(f.contains("window    0/0 in flight"), "{f}");
        }
    }

    #[test]
    fn sparkline_scales_to_max() {
        let h: VecDeque<u64> = vec![0, 1, 7, 14].into_iter().collect();
        let s = sparkline(&h);
        assert_eq!(s.chars().count(), 4);
        assert!(s.starts_with('▁'));
        assert!(s.ends_with('█'));
    }

    #[test]
    fn render_survives_empty_inputs() {
        let frame = frame("{}");
        assert!(frame.contains("protogen top"));
        assert!(frame.contains("queue_wait"));
    }
}
