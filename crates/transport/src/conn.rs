//! A connected stream socket of either family, with the timeout plumbing
//! the link supervisor relies on, and [`wait_readable`], the readiness
//! wait the hub and entity loops block in.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::time::Duration;

/// A connected byte stream: TCP or Unix-domain.
#[derive(Debug)]
pub enum Conn {
    Tcp(TcpStream),
    Uds(UnixStream),
}

impl Conn {
    /// Bound the blocking window of subsequent reads. `None` blocks
    /// forever. The event loops read only after [`wait_readable`]
    /// reports the fd ready, so this is a backstop; the socket stays in
    /// blocking mode so writes on the same fd stay blocking-with-timeout.
    pub fn set_read_timeout(&self, t: Option<Duration>) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.set_read_timeout(t),
            Conn::Uds(s) => s.set_read_timeout(t),
        }
    }

    /// Bound the blocking window of subsequent writes — a stalled peer
    /// surfaces as a send timeout instead of a hung thread.
    pub fn set_write_timeout(&self, t: Option<Duration>) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.set_write_timeout(t),
            Conn::Uds(s) => s.set_write_timeout(t),
        }
    }

    /// The socket's file descriptor, for [`wait_readable`].
    pub fn raw_fd(&self) -> RawFd {
        match self {
            Conn::Tcp(s) => s.as_raw_fd(),
            Conn::Uds(s) => s.as_raw_fd(),
        }
    }

    /// Tear the connection down in both directions.
    pub fn shutdown(&self) {
        match self {
            Conn::Tcp(s) => {
                let _ = s.shutdown(std::net::Shutdown::Both);
            }
            Conn::Uds(s) => {
                let _ = s.shutdown(std::net::Shutdown::Both);
            }
        }
    }

    /// Read into `buf`. Returns `Ok(0)` on EOF. A read that times out
    /// returns `Err` of kind `WouldBlock` or `TimedOut`, which
    /// [`is_poll_timeout`] classifies as "no data yet".
    pub fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.read(buf),
            Conn::Uds(s) => s.read(buf),
        }
    }

    /// Write all of `buf` or fail (including on send timeout).
    pub fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.write_all(buf),
            Conn::Uds(s) => s.write_all(buf),
        }
    }

    fn write_vectored(&mut self, bufs: &[io::IoSlice<'_>]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.write_vectored(bufs),
            Conn::Uds(s) => s.write_vectored(bufs),
        }
    }

    /// Write every segment, in order, completely — the batch-flush
    /// primitive. Multiple segments go out through `write_vectored`
    /// (one syscall in the common case, resumed across partial writes);
    /// a single segment falls back to plain [`Conn::write_all`].
    pub fn write_vectored_all(&mut self, segs: &[&[u8]]) -> io::Result<()> {
        match segs {
            [] => return Ok(()),
            [only] => return self.write_all(only),
            _ => {}
        }
        let mut first = 0usize; // first segment not fully written
        let mut off = 0usize; // bytes of `segs[first]` already written
        let mut slices: Vec<io::IoSlice<'_>> = Vec::with_capacity(segs.len());
        while first < segs.len() {
            slices.clear();
            slices.push(io::IoSlice::new(&segs[first][off..]));
            for s in &segs[first + 1..] {
                slices.push(io::IoSlice::new(s));
            }
            match self.write_vectored(&slices) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::WriteZero,
                        "vectored write made no progress",
                    ))
                }
                Ok(mut n) => {
                    while n > 0 && first < segs.len() {
                        let rem = segs[first].len() - off;
                        if n >= rem {
                            n -= rem;
                            first += 1;
                            off = 0;
                        } else {
                            off += n;
                            n = 0;
                        }
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }
}

/// Is this error just "the read timed out with no data"?
pub fn is_poll_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut | io::ErrorKind::Interrupted
    )
}

/// `struct pollfd` from `<poll.h>`.
#[repr(C)]
struct PollFd {
    fd: RawFd,
    events: i16,
    revents: i16,
}

extern "C" {
    fn poll(fds: *mut PollFd, nfds: std::ffi::c_ulong, timeout_ms: i32) -> i32;
}

const POLLIN: i16 = 0x1;

/// Block until at least one of `fds` is readable or `timeout` elapses,
/// and report which are: `ready[i]` belongs to `fds[i]`. "Readable"
/// includes a closed or failed peer, so the next read returns EOF or
/// the error instead of blocking. Negative entries (a disconnected
/// link's slot) are never ready. `None` waits without a bound.
///
/// `poll(2)` counts whole milliseconds, so a timeout is rounded up: the
/// wait never ends before the timer the caller computed it from. An
/// interrupted wait returns with nothing ready; callers loop anyway.
pub fn wait_readable(fds: &[RawFd], timeout: Option<Duration>) -> io::Result<Vec<bool>> {
    let mut set: Vec<PollFd> = fds
        .iter()
        .map(|&fd| PollFd {
            fd,
            events: POLLIN,
            revents: 0,
        })
        .collect();
    let timeout_ms = match timeout {
        None => -1,
        Some(t) => i32::try_from(t.as_nanos().div_ceil(1_000_000)).unwrap_or(i32::MAX),
    };
    // SAFETY: `set` is a live array of `set.len()` pollfd structs laid
    // out as the C struct; poll(2) writes only their `revents`.
    let rc = unsafe { poll(set.as_mut_ptr(), set.len() as std::ffi::c_ulong, timeout_ms) };
    if rc < 0 {
        let e = io::Error::last_os_error();
        if e.kind() != io::ErrorKind::Interrupted {
            return Err(e);
        }
        return Ok(vec![false; fds.len()]);
    }
    Ok(set.iter().map(|p| p.revents != 0).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::Addr;

    #[test]
    fn read_timeout_polls_without_data() {
        let l = Addr::parse("tcp:127.0.0.1:0").unwrap().listen().unwrap();
        let addr = l.local_addr().unwrap();
        let mut client = addr.connect(Duration::from_secs(1)).unwrap();
        let _server = l.accept().unwrap().unwrap();
        client
            .set_read_timeout(Some(Duration::from_millis(10)))
            .unwrap();
        let mut buf = [0u8; 8];
        let err = client.read(&mut buf).unwrap_err();
        assert!(is_poll_timeout(&err), "{err:?}");
    }

    fn pair() -> (Conn, Conn) {
        let l = Addr::parse("tcp:127.0.0.1:0").unwrap().listen().unwrap();
        let addr = l.local_addr().unwrap();
        let client = addr.connect(Duration::from_secs(1)).unwrap();
        let server = l.accept().unwrap().unwrap();
        (client, server)
    }

    #[test]
    fn wait_readable_reports_pending_data() {
        let (mut client, server) = pair();
        let (_quiet_client, quiet) = pair();
        client.write_all(b"x").unwrap();
        let ready = wait_readable(
            &[quiet.raw_fd(), server.raw_fd()],
            Some(Duration::from_secs(5)),
        )
        .unwrap();
        assert_eq!(ready, vec![false, true]);
    }

    #[test]
    fn wait_readable_times_out_with_nothing_ready() {
        let (_client, server) = pair();
        let t0 = std::time::Instant::now();
        let ready = wait_readable(&[server.raw_fd()], Some(Duration::from_millis(30))).unwrap();
        let waited = t0.elapsed();
        assert_eq!(ready, vec![false]);
        assert!(
            waited >= Duration::from_millis(30),
            "returned early: {waited:?}"
        );
        assert!(waited < Duration::from_secs(2), "overslept: {waited:?}");
    }

    #[test]
    fn wait_readable_reports_a_closed_peer_and_read_sees_eof() {
        let (client, mut server) = pair();
        drop(client);
        let ready = wait_readable(&[server.raw_fd()], Some(Duration::from_secs(5))).unwrap();
        assert_eq!(ready, vec![true]);
        let mut buf = [0u8; 8];
        assert_eq!(server.read(&mut buf).unwrap(), 0, "expected EOF");
    }

    #[test]
    fn wait_readable_ignores_negative_entries() {
        let (mut client, server) = pair();
        client.write_all(b"x").unwrap();
        let ready =
            wait_readable(&[-1, server.raw_fd(), -1], Some(Duration::from_secs(5))).unwrap();
        assert_eq!(ready, vec![false, true, false]);
        // Nothing but ignored slots: a plain timed wait.
        let ready = wait_readable(&[-1], Some(Duration::from_millis(5))).unwrap();
        assert_eq!(ready, vec![false]);
    }

    #[test]
    fn vectored_write_delivers_all_segments_in_order() {
        let l = Addr::parse("tcp:127.0.0.1:0").unwrap().listen().unwrap();
        let addr = l.local_addr().unwrap();
        let mut client = addr.connect(Duration::from_secs(1)).unwrap();
        let mut server = l.accept().unwrap().unwrap();
        // Segments larger than typical socket buffers force partial
        // writes, so the resume-across-partial-writes loop is exercised.
        let a = vec![0xAAu8; 300_000];
        let b = vec![0xBBu8; 77];
        let c = vec![0xCCu8; 150_001];
        let total = a.len() + b.len() + c.len();
        let writer = std::thread::spawn(move || {
            client.write_vectored_all(&[&a, &b, &c]).unwrap();
            client
        });
        let mut got = Vec::with_capacity(total);
        let mut buf = [0u8; 65536];
        while got.len() < total {
            let n = server.read(&mut buf).unwrap();
            assert!(n > 0, "EOF before all segments arrived");
            got.extend_from_slice(&buf[..n]);
        }
        writer.join().unwrap();
        assert_eq!(got.len(), total);
        assert!(got[..300_000].iter().all(|&x| x == 0xAA));
        assert!(got[300_000..300_077].iter().all(|&x| x == 0xBB));
        assert!(got[300_077..].iter().all(|&x| x == 0xCC));
    }

    #[test]
    fn uds_round_trips_bytes() {
        let dir = std::env::temp_dir().join(format!("protogen-conn-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.sock");
        let addr = Addr::Uds(path);
        let l = addr.listen().unwrap();
        let mut client = addr.connect(Duration::from_secs(1)).unwrap();
        let mut server = l.accept().unwrap().unwrap();
        client.write_all(b"ping").unwrap();
        let mut buf = [0u8; 4];
        server.read(&mut buf).unwrap();
        assert_eq!(&buf, b"ping");
        drop(l);
        let _ = std::fs::remove_dir_all(dir);
    }
}
