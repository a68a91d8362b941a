//! Amoeba remote operations (§2.1–2.2): blocking request/reply over
//! ports, with no connections or other long-lived communication state.
//!
//! * A **server** does `GET(G)` on its secret get-port and loops over
//!   [`ServerPort::next_request`].
//! * A **client** calls [`Client::trans`] with the server's published
//!   put-port `P = F(G)`: it claims a fresh reply get-port `G′`, sends
//!   the request (its F-box transmits `F(G′)` in the reply field), and
//!   blocks until the reply lands on `F(G′)` — "a simple remote
//!   procedure call mechanism".
//! * **Signatures**: a client may attach its secret signature `S`; the
//!   F-box transmits `F(S)` and the server compares that against the
//!   sender's published `F(S)` — digital signatures for free (§2.2).
//! * **LOCATE** (§2.2): when asked, a client can resolve which machine
//!   serves a port by broadcasting a LOCATE message; servers answer for
//!   ports they have claimed. One port may be served by several
//!   machines (service replicas): the [`Locator`] caches the full
//!   replica set, hands it out round-robin, and exposes
//!   [`Locator::invalidate_machine`] so failover code can drop a dead
//!   replica without losing the survivors. The hit/miss counters feed
//!   the match-making benchmark. Without broadcast, a [`Matchmaker`]
//!   posts and locates at a rendezvous node instead.
//! * **Batching** ([`Client::batch`]) ships many request bodies
//!   in one wire frame; the server worker that receives it serves the
//!   entries in order and writes their replies into one frame. The wire layout is
//!   specified in `docs/PROTOCOL.md`.
//!
//! # Example
//!
//! ```
//! use amoeba_crypto::oneway::ShaOneWay;
//! use amoeba_fbox::FBox;
//! use amoeba_net::{Network, Port};
//! use amoeba_rpc::{Client, ServerPort};
//! use bytes::Bytes;
//! use std::sync::Arc;
//!
//! let net = Network::new();
//! let server_ep = net.attach(Arc::new(FBox::hardware(ShaOneWay)));
//! let g = Port::new(0xFEED).unwrap();
//! let server = ServerPort::bind(server_ep, g);
//! let p = server.put_port();
//!
//! let handle = std::thread::spawn(move || {
//!     let req = server.next_request().unwrap();
//!     let mut data = req.payload.to_vec();
//!     data.reverse();
//!     server.reply(&req, Bytes::from(data));
//! });
//!
//! let client_ep = net.attach(Arc::new(FBox::hardware(ShaOneWay)));
//! let client = Client::new(client_ep);
//! let reply = client.trans(p, Bytes::from_static(b"abc")).unwrap();
//! assert_eq!(&reply[..], b"cba");
//! handle.join().unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod client;
mod demux;
mod frame;
mod locate;
pub mod matchmaker;
mod server;

pub use client::{BatchResult, Client, Completion, RpcConfig, RpcError};

pub use frame::{BatchReplyEntry, BatchStatus, Frame, FrameKind, BATCH_VERSION, MAX_BATCH_ENTRIES};
pub use locate::{Locator, ReplicaCache};
pub use matchmaker::{Matchmaker, RendezvousNode};
pub use server::{IncomingRequest, ServerPort};
