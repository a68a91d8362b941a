//! The **cluster subsystem**: multi-node service placement, replicated
//! LOCATE and transparent failover.
//!
//! §3.4 of the paper makes distribution transparent — a capability's
//! port routes to *whichever machine* currently serves it, and "unless
//! the client compared the SERVER fields … it wouldn't even notice that
//! succeeding requests were going to different servers." This crate
//! turns that observation into horizontal scaling: one service is
//! served by **several** `ServiceRunner` replicas on distinct machines,
//! and clients use them without any caller-visible change.
//!
//! Two placement shapes, matching the two kinds of service state:
//!
//! * **Replicated** ([`ServiceCluster`] + [`ClusterClient`]) — every
//!   replica can serve every request (stateless or replicated-state
//!   services). All replicas bind the *same* put-port; discovery
//!   (broadcast LOCATE or the rendezvous [`ClusterRegistry`]) yields
//!   the live replica set, a [`PlacementPolicy`] picks one per call,
//!   and the frame is machine-targeted at it. A replica that stops
//!   answering is invalidated on timeout and the call transparently
//!   retries the next replica — callers see retries, not errors.
//! * **Sharded** ([`ShardedCluster`] + [`ShardedClient`]) — stateful
//!   services whose objects live exactly where they were created. The
//!   [`ObjectTable`](amoeba_server::ObjectTable) shard index (the low
//!   bits of every object number) becomes the **placement key**: each
//!   replica mints only object numbers in its owned shard range, so
//!   any capability names its owning replica. Creations spread
//!   round-robin; every later operation routes by the capability's
//!   placement range. The per-range capabilities are stored in a
//!   directory exactly as §3.4 prescribes, so clients bootstrap the
//!   range map with ordinary directory lookups.
//!
//! A third, finer-grained shape handles hot *directories* rather than
//! hot services: [`ShardedDir`] hashes the entries of one logical
//! directory across several directory-server replicas, with fan-out
//! operations batched one frame per replica.
//!
//! Static sharding melts under skewed traffic, so the sharded shape
//! also comes *elastic*: [`ElasticCluster`] keeps the shard→replica
//! map mutable, moving whole shards between replicas with **live
//! migration** ([`migrate`] streams a shard's objects and secrets over
//! the TRANSFER frames, then flips ownership with the old owner
//! forwarding stale traffic), and a load-driven [`Rebalancer`] decides
//! which shards should move. [`ElasticClient`] refreshes its shard map
//! from the directory when a call hits a drained replica.
//!
//! The discovery machinery lives in `amoeba-rpc` (`Locator` replica
//! sets, `Matchmaker` registration, the cluster wire frames of
//! `docs/PROTOCOL.md`); this crate composes it with the server runtime
//! into deployable placement groups.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dir;
mod elastic;
pub mod migrate;
mod rebalance;
mod registry;
mod replicated;
mod sharded;
mod sim;

pub use amoeba_rpc::{PlacementPolicy, Replica};
pub use dir::ShardedDir;
pub use elastic::{ElasticClient, ElasticCluster};
pub use migrate::{MigrateError, MigrationStats, ShardMigration};
pub use rebalance::Rebalancer;
pub use registry::ClusterRegistry;
pub use replicated::{ClusterClient, HealthProber, ServiceCluster};
pub use sharded::{range_capability, ShardedClient, ShardedCluster};
pub use sim::SimReplicaSet;
