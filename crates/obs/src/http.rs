//! A deliberately tiny HTTP/1.1 responder for the hub's `--metrics`
//! listener: GET-only, fixed route table, one thread, no keep-alive.
//! Enough for a Prometheus scraper and `curl`; anything fancier belongs
//! in a real server.

use std::io::{Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A route handler: returns `(content_type, body)`.
pub type Handler = Arc<dyn Fn() -> (String, String) + Send + Sync>;

/// A background HTTP listener. Dropping it leaves the thread running
/// until [`MetricsServer::stop`] or process exit; the hub stops it
/// explicitly when the run finishes.
pub struct MetricsServer {
    pub addr: std::net::SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl MetricsServer {
    /// Bind `addr` (e.g. `127.0.0.1:9464`; port 0 picks a free one) and
    /// serve `routes` — `(path, handler)` pairs — until stopped. Unknown
    /// paths get 404; non-GET requests get 405. The listener blocks in
    /// `accept`, so a scrape is answered as soon as it connects.
    pub fn spawn(addr: &str, routes: Vec<(String, Handler)>) -> std::io::Result<MetricsServer> {
        let listener = TcpListener::bind(addr)?;
        let bound = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = stop.clone();
        let handle = std::thread::Builder::new()
            .name("obs-metrics".to_string())
            .spawn(move || {
                for conn in listener.incoming() {
                    let Ok(mut conn) = conn else { break };
                    if stop2.load(Ordering::Acquire) {
                        break;
                    }
                    // A client that stops reading must not hold the one
                    // listener thread (and so every other scrape, and
                    // `stop`) behind a large body.
                    let _ = conn.set_write_timeout(Some(REQUEST_TIMEOUT));
                    let req = read_request(&mut conn);
                    let (status, ctype, body) = respond(&String::from_utf8_lossy(&req), &routes);
                    let _ = write!(
                        conn,
                        "HTTP/1.1 {status}\r\nContent-Type: {ctype}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
                        body.len(),
                    );
                    let _ = conn.flush();
                }
            })?;
        Ok(MetricsServer {
            addr: bound,
            stop,
            handle: Some(handle),
        })
    }

    /// Stop the listener thread and join it: set the flag, then wake the
    /// blocked `accept` by connecting to the listener.
    pub fn stop(mut self) {
        self.stop.store(true, Ordering::Release);
        let mut wake = self.addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake.ip() {
                IpAddr::V4(_) => IpAddr::V4(Ipv4Addr::LOCALHOST),
                IpAddr::V6(_) => IpAddr::V6(Ipv6Addr::LOCALHOST),
            });
        }
        let _ = TcpStream::connect(wake);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// Most request bytes read, and longest wait for the rest of a request
/// or for a blocked response write to make progress.
const MAX_REQUEST: usize = 1024;
const REQUEST_TIMEOUT: Duration = Duration::from_millis(500);

/// Read a request head up to its blank line (`\r\n\r\n`), however many
/// segments it arrives in, stopping at [`MAX_REQUEST`] bytes, at EOF, or
/// once [`REQUEST_TIMEOUT`] has passed since the first read. Leaving part
/// of a request unread would make the close send a reset instead of the
/// response.
fn read_request(conn: &mut TcpStream) -> Vec<u8> {
    let deadline = Instant::now() + REQUEST_TIMEOUT;
    let mut req = Vec::with_capacity(MAX_REQUEST);
    let mut buf = [0u8; MAX_REQUEST];
    while req.len() < MAX_REQUEST && !req.windows(4).any(|w| w == b"\r\n\r\n") {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() || conn.set_read_timeout(Some(left)).is_err() {
            break;
        }
        match conn.read(&mut buf[..MAX_REQUEST - req.len()]) {
            Ok(0) | Err(_) => break,
            Ok(n) => req.extend_from_slice(&buf[..n]),
        }
    }
    req
}

fn respond(req: &str, routes: &[(String, Handler)]) -> (&'static str, String, String) {
    let mut parts = req.split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("/").split('?').next().unwrap_or("/");
    if method != "GET" {
        return (
            "405 Method Not Allowed",
            "text/plain".into(),
            "GET only\n".into(),
        );
    }
    for (route, handler) in routes {
        if route == path {
            let (ctype, body) = handler();
            return ("200 OK", ctype, body);
        }
    }
    // Bare `/` (unless explicitly routed) indexes the route table, so a
    // curl at the listener discovers /metrics and /health.
    if path == "/" {
        let mut body = String::new();
        for (route, _) in routes {
            body.push_str(route);
            body.push('\n');
        }
        return ("200 OK", "text/plain".into(), body);
    }
    (
        "404 Not Found",
        "text/plain".into(),
        "no such route\n".into(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::TcpStream;

    /// Send `parts` as separate writes, then read the whole response.
    fn request(addr: std::net::SocketAddr, parts: &[&str]) -> String {
        let mut conn = TcpStream::connect(addr).unwrap();
        conn.set_nodelay(true).unwrap();
        for (i, part) in parts.iter().enumerate() {
            if i > 0 {
                std::thread::sleep(Duration::from_millis(20));
            }
            conn.write_all(part.as_bytes()).unwrap();
        }
        let mut out = String::new();
        conn.read_to_string(&mut out).unwrap();
        out
    }

    fn get(addr: std::net::SocketAddr, path: &str) -> String {
        request(addr, &[&format!("GET {path} HTTP/1.1\r\nHost: x\r\n\r\n")])
    }

    #[test]
    fn serves_routes_and_404s() {
        let routes: Vec<(String, Handler)> = vec![(
            "/metrics".to_string(),
            Arc::new(|| ("text/plain; version=0.0.4".to_string(), "x 1\n".to_string())),
        )];
        let server = MetricsServer::spawn("127.0.0.1:0", routes).unwrap();
        let ok = get(server.addr, "/metrics");
        assert!(ok.starts_with("HTTP/1.1 200 OK"), "{ok}");
        assert!(ok.ends_with("x 1\n"));
        let missing = get(server.addr, "/nope");
        assert!(missing.starts_with("HTTP/1.1 404"));
        server.stop();
    }

    #[test]
    fn request_split_across_segments_gets_a_response() {
        let routes: Vec<(String, Handler)> = vec![(
            "/metrics".to_string(),
            Arc::new(|| ("text/plain".to_string(), "x 1\n".to_string())),
        )];
        let server = MetricsServer::spawn("127.0.0.1:0", routes).unwrap();
        let ok = request(
            server.addr,
            &["GET /met", "rics HTTP/1.1\r\nHo", "st: x\r\n\r\n"],
        );
        assert!(ok.starts_with("HTTP/1.1 200 OK"), "{ok}");
        assert!(ok.ends_with("x 1\n"), "{ok}");
        server.stop();
    }

    /// An idle listener answers each scrape at once: it blocks in
    /// `accept` instead of sleeping between polls.
    #[test]
    fn idle_listener_answers_each_scrape_at_once() {
        let routes: Vec<(String, Handler)> = vec![(
            "/metrics".to_string(),
            Arc::new(|| ("text/plain".to_string(), "x 1\n".to_string())),
        )];
        let server = MetricsServer::spawn("127.0.0.1:0", routes).unwrap();
        let mut took: Vec<Duration> = (0..20)
            .map(|_| {
                let t0 = Instant::now();
                let ok = get(server.addr, "/metrics");
                assert!(ok.starts_with("HTTP/1.1 200 OK"), "{ok}");
                t0.elapsed()
            })
            .collect();
        took.sort();
        let median = took[took.len() / 2];
        assert!(
            median < Duration::from_millis(5),
            "median scrape {median:?}"
        );
        server.stop();
    }

    #[test]
    fn stop_wakes_a_listener_bound_to_every_interface() {
        let server = MetricsServer::spawn("0.0.0.0:0", Vec::new()).unwrap();
        server.stop();
    }

    #[test]
    fn root_indexes_the_route_table() {
        let routes: Vec<(String, Handler)> = vec![
            (
                "/metrics".to_string(),
                Arc::new(|| ("text/plain".to_string(), "x 1\n".to_string())),
            ),
            (
                "/health".to_string(),
                Arc::new(|| ("application/json".to_string(), "{}".to_string())),
            ),
        ];
        let server = MetricsServer::spawn("127.0.0.1:0", routes).unwrap();
        let index = get(server.addr, "/");
        assert!(index.starts_with("HTTP/1.1 200 OK"), "{index}");
        assert!(index.ends_with("/metrics\n/health\n"), "{index}");
        let health = get(server.addr, "/health");
        assert!(health.contains("application/json"), "{health}");
        server.stop();
    }

    /// A client that asks for a large body and never reads it cannot
    /// hold the listener: the next scrape is answered and `stop`
    /// returns promptly. Both waits are bounded, so a regression fails
    /// the test instead of hanging the suite.
    #[test]
    fn a_client_that_never_reads_cannot_hold_the_listener() {
        let routes: Vec<(String, Handler)> = vec![
            (
                "/trace".to_string(),
                Arc::new(|| ("application/json".to_string(), "x".repeat(64 << 20))),
            ),
            (
                "/metrics".to_string(),
                Arc::new(|| ("text/plain".to_string(), "x 1\n".to_string())),
            ),
        ];
        let server = MetricsServer::spawn("127.0.0.1:0", routes).unwrap();
        let mut stuck = TcpStream::connect(server.addr).unwrap();
        stuck
            .write_all(b"GET /trace HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap();

        let mut conn = TcpStream::connect(server.addr).unwrap();
        conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        conn.write_all(b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap();
        let mut ok = String::new();
        let _ = conn.read_to_string(&mut ok);
        assert!(
            ok.starts_with("HTTP/1.1 200 OK"),
            "scrape behind a stuck client: {ok:?}"
        );
        assert!(ok.ends_with("x 1\n"), "{ok}");

        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            server.stop();
            let _ = tx.send(());
        });
        assert!(
            rx.recv_timeout(Duration::from_secs(2)).is_ok(),
            "stop() did not return within 2 s behind a client that never reads"
        );
        drop(stuck);
    }
}
