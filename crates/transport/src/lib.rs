//! Socket-backed distributed transport for derived protocol entities.
//!
//! The derivation of [the paper] places each protocol entity `PE_p` at a
//! site and connects them through a reliable-FIFO medium. In-process,
//! `runtime` realizes that medium with queues; this crate realizes it
//! with real sockets, so entities can run in separate OS processes —
//! and keeps the reliable-FIFO contract honest when the network is not:
//!
//! * [`addr`] — TCP and Unix-domain endpoints behind one [`Addr`] type;
//! * [`wire`] — the hub ↔ entity message vocabulary ([`WireMsg`]) over
//!   the checksummed frames of `medium::codec`;
//! * [`link`] — sequence-numbered send/receive with cumulative acks,
//!   exactly-once resumption across reconnects, and the seeded
//!   exponential [`Backoff`] policy with a retry budget. Sends coalesce
//!   into one reusable buffer per link that goes out with one
//!   `write_all` per batch (`batch_frames` bounds its length), so the
//!   steady state allocates nothing; acks piggyback on outgoing frames;
//! * [`proxy`] — a seeded connection-level fault injector
//!   ([`FaultProxy`]) for conformance runs: flaky links that kill
//!   connections, partitions that blackhole and heal.
//!
//! The topology is a star: the medium runs as the *hub* process and
//! every entity connects to it. Each link is FIFO and all cross-entity
//! traffic transits the hub, so the hub's processing order is a valid
//! linearization of every session — which is exactly what the service
//! monitor replays for conformance.

pub mod addr;
pub mod conn;
pub mod link;
pub mod proxy;
pub mod wire;

pub use addr::{Addr, Listener};
pub use conn::{is_poll_timeout, wait_readable, Conn};
pub use link::{Backoff, Channel, Link, LinkStats};
pub use proxy::{FaultProxy, LinkFaults};
pub use wire::{poll_messages, poll_messages_into, WireMsg};
