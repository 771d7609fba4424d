//! A seeded connection-level fault injector.
//!
//! The in-process runtime injects faults per message
//! (`runtime::faults::FaultLink`); real networks also fail per
//! *connection* — a NAT timeout kills the socket, a switch partition
//! blackholes a subnet for seconds. [`FaultProxy`] sits between an
//! entity and the hub as a TCP/UDS forwarder and injects exactly those
//! faults, deterministically from a seed:
//!
//! * [`LinkFaults::Clean`] — transparent forwarding;
//! * [`LinkFaults::Flaky`] — each proxied connection is killed after a
//!   seeded lifetime, up to a kill budget (after which the link runs
//!   clean, so tests terminate); the supervised link must reconnect and
//!   resume without losing or duplicating messages;
//! * [`LinkFaults::Partition`] — after a seeded delay the proxy
//!   blackholes everything (existing connections die, new ones are
//!   accepted and dropped) for a seeded window, then heals.

use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use rand::{rngs::StdRng, Rng, SeedableRng};

use crate::addr::Addr;
use crate::conn::{is_poll_timeout, wait_readable, Conn};

/// How often the proxy's threads look at the stop flag, the kill
/// deadline and the partition window while no bytes arrive.
const STOP_CHECK: Duration = Duration::from_millis(5);

/// Connection-level fault profile.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LinkFaults {
    /// Transparent forwarding.
    Clean,
    /// Kill each proxied connection after a seeded lifetime in
    /// `life_ms`, at most `max_kills` times in total.
    Flaky { max_kills: u32, life_ms: (u64, u64) },
    /// After a seeded delay in `after_ms`, drop everything for a seeded
    /// window in `heal_ms`, then forward cleanly again.
    Partition {
        after_ms: (u64, u64),
        heal_ms: (u64, u64),
    },
}

impl LinkFaults {
    /// Parse a CLI profile name.
    pub fn parse(s: &str) -> Result<LinkFaults, String> {
        match s {
            "clean" => Ok(LinkFaults::Clean),
            "flaky" | "flaky-link" => Ok(LinkFaults::Flaky {
                max_kills: 4,
                life_ms: (60, 160),
            }),
            "partition" | "partition-heal" => Ok(LinkFaults::Partition {
                after_ms: (80, 160),
                heal_ms: (120, 260),
            }),
            other => Err(format!(
                "unknown link fault profile `{other}` (clean, flaky-link, partition-heal)"
            )),
        }
    }
}

/// A running fault proxy. Listens on `addr`, forwards to the target it
/// was spawned with, injecting its configured faults.
pub struct FaultProxy {
    /// The address entities should connect to instead of the hub.
    pub addr: Addr,
    stop: Arc<AtomicBool>,
    kills: Arc<AtomicU64>,
    handle: Option<JoinHandle<()>>,
}

impl FaultProxy {
    /// Bind `listen`, start forwarding to `target` in a background
    /// thread, and return immediately.
    pub fn spawn(
        listen: &Addr,
        target: Addr,
        faults: LinkFaults,
        seed: u64,
    ) -> io::Result<FaultProxy> {
        let listener = listen.listen()?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let kills = Arc::new(AtomicU64::new(0));
        let mut rng = StdRng::seed_from_u64(seed);
        let started = Instant::now();
        // Partition window, fixed at spawn time from the seed.
        let window = match faults {
            LinkFaults::Partition { after_ms, heal_ms } => {
                let at = rng.gen_range(after_ms.0..=after_ms.1);
                let len = rng.gen_range(heal_ms.0..=heal_ms.1);
                Some((
                    started + Duration::from_millis(at),
                    started + Duration::from_millis(at + len),
                ))
            }
            _ => None,
        };
        let stop2 = Arc::clone(&stop);
        let kills2 = Arc::clone(&kills);
        let handle = thread::spawn(move || {
            let mut workers: Vec<JoinHandle<()>> = Vec::new();
            while !stop2.load(Ordering::Relaxed) {
                match listener.accept() {
                    Ok(Some(client)) => {
                        if in_window(window, Instant::now()) {
                            client.shutdown(); // blackholed: accept-and-drop
                            continue;
                        }
                        let Ok(upstream) = target.connect(Duration::from_millis(500)) else {
                            client.shutdown();
                            continue;
                        };
                        // Per-connection kill deadline for the flaky profile.
                        let kill_at = match faults {
                            LinkFaults::Flaky { max_kills, life_ms }
                                if kills2.load(Ordering::Relaxed) < max_kills as u64 =>
                            {
                                let life = rng.gen_range(life_ms.0..=life_ms.1);
                                Some(Instant::now() + Duration::from_millis(life))
                            }
                            _ => None,
                        };
                        let stop3 = Arc::clone(&stop2);
                        let kills3 = Arc::clone(&kills2);
                        workers.push(thread::spawn(move || {
                            pump(client, upstream, kill_at, window, stop3, kills3);
                        }));
                    }
                    Ok(None) => {
                        let _ = wait_readable(&[listener.raw_fd()], Some(STOP_CHECK));
                    }
                    Err(_) => break,
                }
            }
            for w in workers {
                let _ = w.join();
            }
        });
        Ok(FaultProxy {
            addr,
            stop,
            kills,
            handle: Some(handle),
        })
    }

    /// Connections the proxy has deliberately killed so far.
    pub fn kills(&self) -> u64 {
        self.kills.load(Ordering::Relaxed)
    }

    /// Stop forwarding and join the background threads.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for FaultProxy {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn in_window(window: Option<(Instant, Instant)>, now: Instant) -> bool {
    window.is_some_and(|(from, to)| now >= from && now < to)
}

/// Forward bytes in both directions on one thread, full duplex: wait
/// until either side is readable and move what arrived, so neither
/// direction waits on the other. The wait is bounded by [`STOP_CHECK`],
/// which is also the granularity of the kill deadline and the partition
/// window.
fn pump(
    mut client: Conn,
    mut upstream: Conn,
    kill_at: Option<Instant>,
    window: Option<(Instant, Instant)>,
    stop: Arc<AtomicBool>,
    kills: Arc<AtomicU64>,
) {
    // Reads follow readiness; the timeout is only a backstop.
    let backstop = Some(STOP_CHECK);
    if client.set_read_timeout(backstop).is_err() || upstream.set_read_timeout(backstop).is_err() {
        return;
    }
    let _ = client.set_write_timeout(Some(Duration::from_millis(500)));
    let _ = upstream.set_write_timeout(Some(Duration::from_millis(500)));
    let mut buf = [0u8; 16 * 1024];
    loop {
        if stop.load(Ordering::Relaxed) {
            break;
        }
        let now = Instant::now();
        if kill_at.is_some_and(|t| now >= t) {
            kills.fetch_add(1, Ordering::Relaxed);
            break;
        }
        if in_window(window, now) {
            break; // partition hits established connections too
        }
        let Ok(ready) = wait_readable(&[client.raw_fd(), upstream.raw_fd()], Some(STOP_CHECK))
        else {
            break;
        };
        if ready[0] && !forward(&mut client, &mut upstream, &mut buf) {
            break;
        }
        if ready[1] && !forward(&mut upstream, &mut client, &mut buf) {
            break;
        }
    }
    client.shutdown();
    upstream.shutdown();
}

/// Move whatever bytes are ready from `src` to `dst`. `false` once
/// either side is gone.
fn forward(src: &mut Conn, dst: &mut Conn, buf: &mut [u8]) -> bool {
    match src.read(buf) {
        Ok(0) => false, // orderly EOF: tear down both directions
        Ok(n) => dst.write_all(&buf[..n]).is_ok(),
        Err(e) => is_poll_timeout(&e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    fn echo_server() -> (Addr, JoinHandle<()>) {
        let l = Addr::parse("tcp:127.0.0.1:0").unwrap().listen().unwrap();
        let addr = l.local_addr().unwrap();
        let h = thread::spawn(move || {
            while let Ok(Some(mut c)) = l.accept() {
                let _ = c.set_read_timeout(Some(Duration::from_millis(200)));
                let mut buf = [0u8; 1024];
                loop {
                    match c.read(&mut buf) {
                        Ok(0) | Err(_) => break,
                        Ok(n) => {
                            if c.write_all(&buf[..n]).is_err() {
                                break;
                            }
                        }
                    }
                }
            }
        });
        (addr, h)
    }

    #[test]
    fn clean_proxy_forwards_both_ways() {
        let (target, _h) = echo_server();
        let listen = Addr::parse("tcp:127.0.0.1:0").unwrap();
        let proxy = FaultProxy::spawn(&listen, target, LinkFaults::Clean, 1).unwrap();
        let mut c = proxy.addr.connect(Duration::from_secs(1)).unwrap();
        c.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        c.write_all(b"hello through proxy").unwrap();
        let mut got = [0u8; 19];
        let mut at = 0;
        while at < got.len() {
            match c.read(&mut got[at..]) {
                Ok(0) => panic!("proxy closed early"),
                Ok(n) => at += n,
                Err(e) if is_poll_timeout(&e) => {}
                Err(e) => panic!("{e}"),
            }
        }
        assert_eq!(&got, b"hello through proxy");
        proxy.stop();
    }

    #[test]
    fn flaky_proxy_kills_then_allows_reconnect() {
        let (target, _h) = echo_server();
        let listen = Addr::parse("tcp:127.0.0.1:0").unwrap();
        let faults = LinkFaults::Flaky {
            max_kills: 1,
            life_ms: (10, 30),
        };
        let proxy = FaultProxy::spawn(&listen, target, faults, 7).unwrap();
        let mut c = proxy.addr.connect(Duration::from_secs(1)).unwrap();
        c.set_read_timeout(Some(Duration::from_millis(100)))
            .unwrap();
        // The connection dies within its seeded lifetime.
        let mut buf = [0u8; 64];
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            assert!(
                Instant::now() < deadline,
                "proxy never killed the connection"
            );
            let _ = c.write_all(b"x");
            match c.read(&mut buf) {
                Ok(0) => break,
                Err(e) if !is_poll_timeout(&e) => break,
                _ => thread::sleep(Duration::from_millis(5)),
            }
        }
        assert_eq!(proxy.kills(), 1);
        // Kill budget spent: the next connection survives.
        let mut c2 = proxy.addr.connect(Duration::from_secs(1)).unwrap();
        c2.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        c2.write_all(b"back").unwrap();
        let mut got = [0u8; 4];
        let mut at = 0;
        while at < got.len() {
            match c2.read(&mut got[at..]) {
                Ok(0) => panic!("second connection killed despite spent budget"),
                Ok(n) => at += n,
                Err(e) if is_poll_timeout(&e) => {}
                Err(e) => panic!("{e}"),
            }
        }
        assert_eq!(&got, b"back");
        proxy.stop();
    }

    #[test]
    fn partition_blackholes_then_heals() {
        let (target, _h) = echo_server();
        let listen = Addr::parse("tcp:127.0.0.1:0").unwrap();
        let faults = LinkFaults::Partition {
            after_ms: (30, 40),
            heal_ms: (60, 80),
        };
        let proxy = FaultProxy::spawn(&listen, target, faults, 3).unwrap();
        // Wait until well inside the partition window.
        thread::sleep(Duration::from_millis(55));
        let mut c = proxy.addr.connect(Duration::from_secs(1)).unwrap();
        c.set_read_timeout(Some(Duration::from_millis(50))).unwrap();
        let _ = c.write_all(b"ping");
        let mut buf = [0u8; 8];
        let dead = matches!(c.read(&mut buf), Ok(0) | Err(_));
        assert!(dead, "partitioned proxy forwarded traffic");
        // After the heal point traffic flows again.
        thread::sleep(Duration::from_millis(100));
        let mut c2 = proxy.addr.connect(Duration::from_secs(1)).unwrap();
        c2.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        c2.write_all(b"ping").unwrap();
        let mut got = [0u8; 4];
        let mut at = 0;
        while at < got.len() {
            match c2.read(&mut got[at..]) {
                Ok(0) => panic!("proxy still dead after heal window"),
                Ok(n) => at += n,
                Err(e) if is_poll_timeout(&e) => {}
                Err(e) => panic!("{e}"),
            }
        }
        proxy.stop();
    }
}
