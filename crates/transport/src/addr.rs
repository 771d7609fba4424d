//! Transport addresses: TCP sockets and Unix-domain sockets behind one
//! `Addr` type, so every layer above is agnostic to the socket family.

use std::fmt;
use std::io;
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::time::Duration;

use crate::conn::Conn;

/// A transport endpoint address.
///
/// Parsed forms: `tcp:HOST:PORT`, `uds:/path/to.sock`, and bare
/// `HOST:PORT` (TCP).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Addr {
    Tcp(String),
    Uds(PathBuf),
}

impl Addr {
    /// Parse an address string.
    pub fn parse(s: &str) -> Result<Addr, String> {
        if let Some(rest) = s.strip_prefix("tcp:") {
            if !rest.contains(':') {
                return Err(format!("tcp address `{rest}` needs host:port"));
            }
            Ok(Addr::Tcp(rest.to_string()))
        } else if let Some(rest) = s.strip_prefix("uds:") {
            if rest.is_empty() {
                return Err("empty uds path".to_string());
            }
            Ok(Addr::Uds(PathBuf::from(rest)))
        } else if s.contains(':') {
            Ok(Addr::Tcp(s.to_string()))
        } else {
            Err(format!(
                "bad address `{s}` (expected tcp:host:port, uds:/path, or host:port)"
            ))
        }
    }

    /// Bind a listener on this address. For UDS a stale socket file from a
    /// previous run is removed first.
    pub fn listen(&self) -> io::Result<Listener> {
        match self {
            Addr::Tcp(hp) => Ok(Listener::Tcp(TcpListener::bind(hp)?)),
            Addr::Uds(path) => {
                if path.exists() {
                    let _ = std::fs::remove_file(path);
                }
                Ok(Listener::Uds(UnixListener::bind(path)?, path.clone()))
            }
        }
    }

    /// Connect with a timeout. UDS connects have no kernel timeout knob;
    /// they either succeed or fail immediately on the local machine.
    pub fn connect(&self, timeout: Duration) -> io::Result<Conn> {
        match self {
            Addr::Tcp(hp) => {
                let sa = hp
                    .to_socket_addrs()?
                    .next()
                    .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "unresolvable"))?;
                let s = TcpStream::connect_timeout(&sa, timeout)?;
                s.set_nodelay(true)?;
                Ok(Conn::Tcp(s))
            }
            Addr::Uds(path) => Ok(Conn::Uds(UnixStream::connect(path)?)),
        }
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Addr::Tcp(hp) => write!(f, "tcp:{hp}"),
            Addr::Uds(p) => write!(f, "uds:{}", p.display()),
        }
    }
}

/// A bound listener for either address family.
#[derive(Debug)]
pub enum Listener {
    Tcp(TcpListener),
    Uds(UnixListener, PathBuf),
}

impl Listener {
    /// The actual bound address — resolves `port 0` to the assigned port.
    pub fn local_addr(&self) -> io::Result<Addr> {
        match self {
            Listener::Tcp(l) => Ok(Addr::Tcp(l.local_addr()?.to_string())),
            Listener::Uds(_, path) => Ok(Addr::Uds(path.clone())),
        }
    }

    /// The listening socket's file descriptor: readable when a
    /// connection is waiting to be accepted.
    pub fn raw_fd(&self) -> RawFd {
        match self {
            Listener::Tcp(l) => l.as_raw_fd(),
            Listener::Uds(l, _) => l.as_raw_fd(),
        }
    }

    /// Switch the listener to non-blocking accepts.
    pub fn set_nonblocking(&self, nb: bool) -> io::Result<()> {
        match self {
            Listener::Tcp(l) => l.set_nonblocking(nb),
            Listener::Uds(l, _) => l.set_nonblocking(nb),
        }
    }

    /// Accept one connection; with non-blocking listeners, `WouldBlock`
    /// maps to `Ok(None)`.
    pub fn accept(&self) -> io::Result<Option<Conn>> {
        let conn = match self {
            Listener::Tcp(l) => match l.accept() {
                Ok((s, _)) => {
                    s.set_nodelay(true)?;
                    Some(Conn::Tcp(s))
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => None,
                Err(e) => return Err(e),
            },
            Listener::Uds(l, _) => match l.accept() {
                Ok((s, _)) => Some(Conn::Uds(s)),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => None,
                Err(e) => return Err(e),
            },
        };
        Ok(conn)
    }
}

impl Drop for Listener {
    fn drop(&mut self) {
        if let Listener::Uds(_, path) = self {
            let _ = std::fs::remove_file(path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_all_forms() {
        assert_eq!(
            Addr::parse("tcp:127.0.0.1:9000").unwrap(),
            Addr::Tcp("127.0.0.1:9000".into())
        );
        assert_eq!(
            Addr::parse("127.0.0.1:9000").unwrap(),
            Addr::Tcp("127.0.0.1:9000".into())
        );
        assert_eq!(
            Addr::parse("uds:/tmp/x.sock").unwrap(),
            Addr::Uds(PathBuf::from("/tmp/x.sock"))
        );
        assert!(Addr::parse("nonsense").is_err());
        assert!(Addr::parse("uds:").is_err());
        assert!(Addr::parse("tcp:nohostport").is_err());
    }

    #[test]
    fn display_round_trips() {
        for s in ["tcp:127.0.0.1:1234", "uds:/tmp/a.sock"] {
            let a = Addr::parse(s).unwrap();
            assert_eq!(Addr::parse(&a.to_string()).unwrap(), a);
        }
    }

    #[test]
    fn tcp_listen_resolves_ephemeral_port() {
        let l = Addr::parse("tcp:127.0.0.1:0").unwrap().listen().unwrap();
        let bound = l.local_addr().unwrap();
        let Addr::Tcp(hp) = &bound else { panic!() };
        assert!(!hp.ends_with(":0"), "{hp}");
    }
}
