//! A simulated broadcast network for the Amoeba reproduction.
//!
//! The paper's protocols rest on three physical-layer properties that
//! this crate enforces exactly:
//!
//! 1. **Broadcast medium with associative addressing** (§2.2): every
//!    packet is visible to every network interface; an interface
//!    delivers a packet to its machine only if the machine has *claimed*
//!    the packet's destination port ("protected associative
//!    addressing"). Claims and the egress transformation are mediated by
//!    a [`NetworkInterface`] so that the F-box (see `amoeba-fbox`)
//!    **cannot be bypassed** — user code on a machine never touches raw
//!    frames.
//! 2. **Unforgeable source addresses** (§2.4): "in nearly all networks
//!    an intruder can forge nearly all parts of a message being sent
//!    except the source address, which is supplied by the network
//!    interface hardware". Every send through the network stamps the sender's
//!    [`MachineId`] itself; no API lets a caller choose the source.
//! 3. **An intruder toolkit**: promiscuous [taps](Network::tap) (wire
//!    sniffing), arbitrary injection (with the intruder's own source
//!    address) and replay — everything the paper's adversary can do, so
//!    the security claims can be validated by real attacks in tests.
//!
//! The simulator also offers per-link latency and probabilistic drop for
//! failure injection, and atomic [traffic counters](NetworkStats) used
//! by the locate/broadcast benchmarks.
//!
//! # Example
//!
//! ```
//! use amoeba_net::{Network, Header, Port};
//! use bytes::Bytes;
//!
//! let net = Network::new();
//! let server = net.attach_open();
//! let client = net.attach_open();
//!
//! let port = Port::new(0x1234).unwrap();
//! server.claim(port);
//! client.send(Header::to(port), Bytes::from_static(b"hi"));
//! let pkt = server.recv().unwrap();
//! assert_eq!(&pkt.payload[..], b"hi");
//! assert_eq!(pkt.source, client.id());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod addr;
mod network;
mod nic;
mod packet;
mod pool;
mod reactor;
mod sim;
mod stats;
mod sync;

pub use addr::{MachineId, Port};
pub use network::{Endpoint, Network, RecvError, Sent, SimRelease};
pub use nic::{NetworkInterface, OpenNic};
pub use packet::{Header, Packet};
pub use pool::BufPool;
pub use reactor::{Clock, Reactor, SimClock, Timestamp, WallClock};
pub use sim::{
    splitmix64, ActorPoll, CrashWindow, FaultCounters, FaultPlan, PartitionWindow, SimExecutor,
    SimStall, SEED_PLAN_TARGETS,
};
pub use stats::{HotPathSnapshot, NetworkStats, StatsSnapshot};
pub use sync::{hot_lock_acquisitions, HotMutex, HotMutexGuard, LockMeter};

// Observability is threaded through every layer above `net`, so the
// transport crate re-exports the whole handle surface.
pub use amoeba_obs::{Counter, EventKind, FlightEvent, Histogram, Metrics, MetricsSnapshot, Obs};
