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
//!   services). All replicas bind the *same* put-port; a broadcast
//!   LOCATE yields the live replica set, the client takes one replica
//!   per call round-robin, and the frame is machine-targeted at it. A
//!   replica that stops answering is invalidated on timeout and the
//!   call transparently retries the next replica — callers see
//!   retries, not errors.
//! * **Sharded** ([`ElasticCluster`] + [`ElasticClient`]) — stateful
//!   services whose objects live exactly where they were created. The
//!   [`ObjectTable`](amoeba_server::ObjectTable) shard index (the low
//!   bits of every object number) becomes the **placement key**: each
//!   replica mints only object numbers in the shards it owns, so any
//!   capability names its owning replica. Creations spread
//!   round-robin; every later operation routes by the capability's
//!   shard. The per-shard capabilities are stored in a directory
//!   exactly as §3.4 prescribes, so clients bootstrap the shard map
//!   with ordinary directory lookups. The map starts static (shard `s`
//!   on replica `s % n`) and may move: **live migration**
//!   ([`migrate`] streams a shard's objects and secrets to the new
//!   owner as `STD_TRANSFER_*` requests, each carrying the target's
//!   migration capability, then flips ownership with the old owner
//!   forwarding stale traffic) relieves skew, a load-driven
//!   [`Rebalancer`] decides which shards should move, and the client
//!   refreshes its map from the directory when a call hits a drained
//!   replica. A group that never migrates is the static case.
//!
//! The discovery machinery lives in `amoeba-rpc` (the `Locator`'s
//! replica-set cache over broadcast LOCATE); this crate composes it
//! with the server runtime into deployable placement groups.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod elastic;
pub mod migrate;
mod rebalance;
mod replicated;
mod sim;

pub use elastic::{range_capability, ElasticClient, ElasticCluster};
pub use migrate::{MigrateError, MigrationStats, ShardMigration};
pub use rebalance::Rebalancer;
pub use replicated::{ClusterClient, HealthProber, ServiceCluster};
pub use sim::SimReplicaSet;

#[cfg(test)]
/// The static sharded case: an [`ElasticCluster`] whose shard map never
/// moves, reached through an [`ElasticClient`] bootstrapped from the
/// directory.
mod sharded {
    mod tests {
        use crate::{ElasticClient, ElasticCluster};
        use amoeba_cap::schemes::SchemeKind;
        use amoeba_cap::{Capability, Rights};
        use amoeba_dirsvr::{DirClient, DirServer};
        use amoeba_flatfs::{ops, FlatFsServer};
        use amoeba_net::{Network, Port};
        use amoeba_server::proto::Status;
        use amoeba_server::{wire, ClientError, ServiceRunner};
        use bytes::Bytes;

        /// A sharded flat-file group with its map published as
        /// `"flatfs"` in a fresh directory, and one client bootstrapped
        /// from it.
        struct Group {
            cluster: ElasticCluster,
            client: ElasticClient,
            dir_runner: ServiceRunner,
            root: Capability,
        }

        impl Group {
            fn bootstrap(&self, net: &Network, name: &str) -> Result<ElasticClient, ClientError> {
                let dirs = DirClient::open(net, self.dir_runner.put_port());
                ElasticClient::from_directory(net, dirs, &self.root, name)
            }

            fn stop(self) {
                self.cluster.stop();
                self.dir_runner.stop();
            }
        }

        fn sharded_fs(net: &Network, replicas: usize) -> Group {
            let dir_runner = ServiceRunner::spawn_open(net, DirServer::new(SchemeKind::OneWay));
            let dirs = DirClient::open(net, dir_runner.put_port());
            let root = dirs.create_dir().unwrap();
            let cluster = ElasticCluster::spawn_open(net, replicas, 1, |_| {
                FlatFsServer::new(SchemeKind::Commutative)
            });
            cluster.publish(&dirs, &root, "flatfs").unwrap();
            let client = ElasticClient::from_directory(net, dirs, &root, "flatfs").unwrap();
            Group {
                cluster,
                client,
                dir_runner,
                root,
            }
        }

        fn create(client: &ElasticClient) -> Capability {
            let body = client.call_create(ops::CREATE, Bytes::new()).unwrap();
            wire::Reader::new(&body).cap().unwrap()
        }

        #[test]
        fn placement_key_matches_the_minting_replica() {
            let net = Network::new();
            let group = sharded_fs(&net, 3);
            for _ in 0..12 {
                let cap = create(&group.client);
                // The replica that minted the capability stamped its own
                // put-port; the placement key must route right back to it.
                assert_eq!(
                    group.client.port_for(&cap),
                    cap.port,
                    "object {} routed to the wrong replica",
                    cap.object
                );
            }
            group.stop();
        }

        #[test]
        fn creations_spread_over_every_range() {
            let net = Network::new();
            let group = sharded_fs(&net, 4);
            let used: std::collections::HashSet<Port> =
                (0..8).map(|_| create(&group.client).port).collect();
            assert_eq!(used.len(), 4, "round-robin must use every replica");
            group.stop();
        }

        #[test]
        fn data_lives_and_validates_on_its_owning_range() {
            let net = Network::new();
            let group = sharded_fs(&net, 3);
            let client = &group.client;
            let caps: Vec<Capability> = (0..9).map(|_| create(client)).collect();
            for (i, cap) in caps.iter().enumerate() {
                client
                    .call(
                        cap,
                        ops::WRITE,
                        wire::Writer::new()
                            .u64(0)
                            .bytes(format!("file-{i}").as_bytes())
                            .finish(),
                    )
                    .unwrap();
            }
            for (i, cap) in caps.iter().enumerate() {
                let body = client
                    .call(cap, ops::READ, wire::Writer::new().u64(0).u32(16).finish())
                    .unwrap();
                assert_eq!(&body[..], format!("file-{i}").as_bytes());
            }
            // The restricted capability keeps its object number, so it
            // routes to the same owner, which validates it there.
            let ro = client.service().restrict(&caps[0], Rights::READ).unwrap();
            assert_eq!(client.port_for(&ro), client.port_for(&caps[0]));
            assert_eq!(
                client.call(
                    &ro,
                    ops::WRITE,
                    wire::Writer::new().u64(0).bytes(b"x").finish()
                ),
                Err(ClientError::Status(Status::RightsViolation))
            );
            group.stop();
        }

        #[test]
        fn foreign_range_rejects_a_misrouted_capability() {
            // Routing a capability to the wrong replica must fail closed:
            // the foreign replica has no such object.
            let net = Network::new();
            let group = sharded_fs(&net, 2);
            let cap = create(&group.client);
            let wrong = (0..group.cluster.replicas())
                .map(|i| group.cluster.replica_port(i))
                .find(|&p| p != group.client.port_for(&cap))
                .unwrap();
            let err = group
                .client
                .service()
                .call_at(
                    wrong,
                    &cap,
                    ops::READ,
                    wire::Writer::new().u64(0).u32(1).finish(),
                )
                .unwrap_err();
            assert!(
                matches!(
                    err,
                    ClientError::Status(Status::NoSuchObject | Status::Forged)
                ),
                "a foreign replica must reject: {err:?}"
            );
            group.stop();
        }

        #[test]
        fn directory_publishes_and_bootstraps_the_range_map() {
            let net = Network::new();
            let group = sharded_fs(&net, 3);
            // A fresh client knows nothing but the directory; one create
            // per shard reaches each of the three replicas, and every
            // capability routes back to the replica that minted it.
            let client = group.bootstrap(&net, "flatfs").unwrap();
            let caps: Vec<Capability> = (0..amoeba_server::DEFAULT_SHARDS)
                .map(|_| create(&client))
                .collect();
            for cap in &caps {
                assert_eq!(client.port_for(cap), cap.port);
            }
            let minters: std::collections::HashSet<Port> = caps.iter().map(|c| c.port).collect();
            assert_eq!(minters.len(), 3);

            // Unknown service name: NotFound.
            assert_eq!(
                group.bootstrap(&net, "ghost").unwrap_err(),
                ClientError::Status(Status::NotFound)
            );
            group.stop();
        }
    }
}
