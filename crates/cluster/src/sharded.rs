//! Sharded placement: each replica owns an object-number range; the
//! shard index in a capability's object number routes to its owner.
//!
//! A stateful service cannot be served by "any replica" — an object
//! lives where it was created. The [`ObjectTable`] already stamps a
//! shard index into the low bits of every object number (the
//! lock-striping key); here that index becomes the **placement key**:
//! replica `i` of a `n`-way group only mints objects whose
//! `shard % n == i` (via [`Service::bind_shard_range`]), so any
//! capability names its owning replica. The directory server stores
//! one capability per range (§3.4: "the directory server … returns the
//! capability" — clients walk names, not machines), and the client
//! routes every call with [`placement_range`].
//!
//! [`ObjectTable`]: amoeba_server::ObjectTable
//! [`Service::bind_shard_range`]: amoeba_server::Service::bind_shard_range
//! [`placement_range`]: amoeba_server::placement_range

use amoeba_cap::{Capability, ObjectNum, Rights};
use amoeba_dirsvr::DirClient;
use amoeba_net::{Network, Port};
use amoeba_server::{placement_range, ClientError, Service, ServiceClient, ServiceRunner};
use amoeba_server::{wire, DEFAULT_SHARDS};
use bytes::Bytes;
use rand::{RngCore, SeedableRng};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The capability a directory stores for one object range: it names
/// the range owner's put-port and nothing else (object 0, no secret).
/// It is a *locator*, not an authorisation — the real per-object
/// capabilities are minted and validated by the range's server; this
/// entry only tells clients where requests for the range go, exactly
/// like the per-server directory entries of §3.4.
pub fn range_capability(port: Port) -> Capability {
    Capability::new(
        port,
        ObjectNum::new(0).expect("zero is a valid object number"),
        Rights::NONE,
        0,
    )
}

/// A sharded placement group: `n` replicas of one stateful service,
/// each on its own machine with its own put-port, each minting only
/// object numbers in its owned shard range.
#[derive(Debug)]
pub struct ShardedCluster {
    runners: Vec<ServiceRunner>,
    range_ports: Vec<Port>,
}

impl ShardedCluster {
    /// Spawns `replicas` instances (one per fresh open-interface
    /// machine, `workers` dispatch workers each). `factory(i)` builds
    /// the `i`-th replica, which is then bound to shard range `i` via
    /// [`Service::bind_shard_range`] before serving begins.
    ///
    /// # Panics
    /// Panics if `replicas` is zero or exceeds the object table's
    /// shard count ([`DEFAULT_SHARDS`]).
    pub fn spawn_open<S: Service>(
        net: &Network,
        replicas: usize,
        workers: usize,
        mut factory: impl FnMut(usize) -> S,
    ) -> ShardedCluster {
        assert!(
            (1..=DEFAULT_SHARDS).contains(&replicas),
            "1..={DEFAULT_SHARDS} replicas per sharded group"
        );
        let mut rng = rand::rngs::StdRng::from_entropy();
        let runners: Vec<ServiceRunner> = (0..replicas)
            .map(|i| {
                let mut service = factory(i);
                service.bind_shard_range(i, replicas);
                let get_port = Port::random(&mut rng);
                ServiceRunner::spawn_workers(net.attach_open(), get_port, service, workers)
            })
            .collect();
        let range_ports = runners.iter().map(|r| r.put_port()).collect();
        ShardedCluster {
            runners,
            range_ports,
        }
    }

    /// The put-port of each range owner, in range order.
    pub fn range_ports(&self) -> &[Port] {
        &self.range_ports
    }

    /// Number of ranges/replicas.
    pub fn replicas(&self) -> usize {
        self.runners.len()
    }

    /// Stores the per-range capabilities under `dir` as
    /// `"<service>.range-<i>"` entries — the §3.4 directory shape a
    /// client bootstraps its range map from.
    ///
    /// # Errors
    /// Directory errors (`Conflict` if already published, rights).
    pub fn publish(
        &self,
        dirs: &DirClient,
        dir: &Capability,
        service: &str,
    ) -> Result<(), ClientError> {
        for (i, port) in self.range_ports.iter().enumerate() {
            dirs.enter(dir, &range_entry_name(service, i), &range_capability(*port))?;
        }
        Ok(())
    }

    /// Stops every replica.
    pub fn stop(self) {
        for r in self.runners {
            r.stop();
        }
    }
}

fn range_entry_name(service: &str, range: usize) -> String {
    format!("{service}.range-{range}")
}

/// A client for a sharded placement group: creations spread round-robin
/// over the ranges, and every capability-carrying call routes by the
/// capability's placement key — transparently, per §3.4: the caller
/// hands over a capability and never mentions a machine.
#[derive(Debug)]
pub struct ShardedClient {
    svc: ServiceClient,
    range_ports: Vec<Port>,
    /// Round-robin cursor for placements with no capability (CREATE).
    next_range: AtomicUsize,
}

impl ShardedClient {
    /// A client over an explicit range-port map (range `i` → port).
    ///
    /// # Panics
    /// Panics if `range_ports` is empty.
    pub fn new(svc: ServiceClient, range_ports: Vec<Port>) -> ShardedClient {
        assert!(!range_ports.is_empty(), "at least one range required");
        // Start each client's cursor at a random offset: a fleet of
        // clients created together would otherwise march over the
        // ranges in lockstep, convoying on one replica at a time.
        let start = rand::rngs::StdRng::from_entropy().next_u64() as usize % range_ports.len();
        ShardedClient {
            svc,
            range_ports,
            next_range: AtomicUsize::new(start),
        }
    }

    /// Bootstraps the range map from the `"<service>.range-<i>"`
    /// entries a [`ShardedCluster::publish`] stored under `dir`,
    /// reading consecutive ranges until the first missing index.
    ///
    /// # Errors
    /// [`ClientError`] from the directory walk; an empty map (no
    /// `range-0`) surfaces as the lookup's `NotFound`.
    pub fn from_directory(
        svc: ServiceClient,
        dirs: &DirClient,
        dir: &Capability,
        service: &str,
    ) -> Result<ShardedClient, ClientError> {
        let mut range_ports = Vec::new();
        loop {
            match dirs.lookup(dir, &range_entry_name(service, range_ports.len())) {
                Ok(cap) => range_ports.push(cap.port),
                Err(e) if range_ports.is_empty() => return Err(e),
                Err(_) => break,
            }
        }
        Ok(ShardedClient::new(svc, range_ports))
    }

    /// Number of ranges.
    pub fn ranges(&self) -> usize {
        self.range_ports.len()
    }

    /// The port owning `cap`'s object, by placement key. Assumes the
    /// replicas' object tables use the default
    /// [`DEFAULT_SHARDS`] striping — the contract
    /// [`Service::bind_shard_range`] documents.
    pub fn port_for(&self, cap: &Capability) -> Port {
        let range = placement_range(cap.object, DEFAULT_SHARDS, self.range_ports.len());
        self.range_ports[range]
    }

    /// Invokes a capability-less placement command (CREATE and
    /// friends) on the next range in round-robin order; the owning
    /// replica mints a capability whose object number carries that
    /// range.
    ///
    /// # Errors
    /// As for [`ServiceClient::call_anonymous`].
    pub fn call_create(&self, command: u32, params: Bytes) -> Result<Bytes, ClientError> {
        let range = self.next_range.fetch_add(1, Ordering::Relaxed) % self.range_ports.len();
        self.svc
            .call_anonymous(self.range_ports[range], command, params)
    }

    /// Invokes `command` on the object named by `cap`, routed to the
    /// replica owning `cap`'s shard range.
    ///
    /// # Errors
    /// As for [`ServiceClient::call`].
    pub fn call(
        &self,
        cap: &Capability,
        command: u32,
        params: Bytes,
    ) -> Result<Bytes, ClientError> {
        self.svc.call_at(self.port_for(cap), cap, command, params)
    }

    /// Asks the owning replica to fabricate a restricted
    /// sub-capability (the standard RESTRICT, routed by placement).
    ///
    /// # Errors
    /// As for [`ServiceClient::restrict`].
    pub fn restrict(&self, cap: &Capability, keep: Rights) -> Result<Capability, ClientError> {
        let body = self.call(
            cap,
            amoeba_server::proto::cmd::STD_RESTRICT,
            wire::Writer::new().u32(keep.bits() as u32).finish(),
        )?;
        wire::Reader::new(&body).cap().ok_or(ClientError::Malformed)
    }

    /// The underlying generic service client.
    pub fn service(&self) -> &ServiceClient {
        &self.svc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amoeba_cap::schemes::SchemeKind;
    use amoeba_dirsvr::DirServer;
    use amoeba_flatfs::{ops, FlatFsServer};

    fn sharded_fs(net: &Network, replicas: usize) -> (ShardedCluster, ShardedClient) {
        let cluster = ShardedCluster::spawn_open(net, replicas, 1, |_| {
            FlatFsServer::new(SchemeKind::Commutative)
        });
        let client = ShardedClient::new(ServiceClient::open(net), cluster.range_ports().to_vec());
        (cluster, client)
    }

    fn create(client: &ShardedClient) -> Capability {
        let body = client.call_create(ops::CREATE, Bytes::new()).unwrap();
        wire::Reader::new(&body).cap().unwrap()
    }

    #[test]
    fn placement_key_matches_the_minting_replica() {
        let net = Network::new();
        let (cluster, client) = sharded_fs(&net, 3);
        for _ in 0..12 {
            let cap = create(&client);
            // The replica that minted the capability stamped its own
            // put-port; the placement key must route right back to it.
            assert_eq!(
                client.port_for(&cap),
                cap.port,
                "object {} routed to the wrong range",
                cap.object
            );
        }
        cluster.stop();
    }

    #[test]
    fn creations_spread_over_every_range() {
        let net = Network::new();
        let (cluster, client) = sharded_fs(&net, 4);
        let used: std::collections::HashSet<Port> = (0..8).map(|_| create(&client).port).collect();
        assert_eq!(used.len(), 4, "round-robin must use every range");
        cluster.stop();
    }

    #[test]
    fn data_lives_and_validates_on_its_owning_range() {
        let net = Network::new();
        let (cluster, client) = sharded_fs(&net, 3);
        let caps: Vec<Capability> = (0..9).map(|_| create(&client)).collect();
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
        // Restriction routes by placement too.
        let ro = client.restrict(&caps[0], Rights::READ).unwrap();
        assert!(matches!(
            client.call(
                &ro,
                ops::WRITE,
                wire::Writer::new().u64(0).bytes(b"x").finish()
            ),
            Err(ClientError::Status(
                amoeba_server::proto::Status::RightsViolation
            ))
        ));
        cluster.stop();
    }

    #[test]
    fn foreign_range_rejects_a_misrouted_capability() {
        // Routing a capability to the wrong range must fail closed:
        // the foreign replica has no such object.
        let net = Network::new();
        let (cluster, client) = sharded_fs(&net, 2);
        let cap = create(&client);
        let wrong: Vec<Port> = cluster
            .range_ports()
            .iter()
            .copied()
            .filter(|&p| p != client.port_for(&cap))
            .collect();
        let err = client
            .service()
            .call_at(
                wrong[0],
                &cap,
                ops::READ,
                wire::Writer::new().u64(0).u32(1).finish(),
            )
            .unwrap_err();
        assert!(
            matches!(
                err,
                ClientError::Status(amoeba_server::proto::Status::NoSuchObject)
                    | ClientError::Status(amoeba_server::proto::Status::Forged)
            ),
            "foreign range must reject: {err:?}"
        );
        cluster.stop();
    }

    #[test]
    fn directory_publishes_and_bootstraps_the_range_map() {
        let net = Network::new();
        let dir_runner = ServiceRunner::spawn_open(&net, DirServer::new(SchemeKind::OneWay));
        let dirs = DirClient::open(&net, dir_runner.put_port());
        let root = dirs.create_dir().unwrap();

        let (cluster, _direct) = sharded_fs(&net, 3);
        cluster.publish(&dirs, &root, "flatfs").unwrap();

        // A fresh client knows nothing but the directory.
        let client =
            ShardedClient::from_directory(ServiceClient::open(&net), &dirs, &root, "flatfs")
                .unwrap();
        assert_eq!(client.ranges(), 3);
        let cap = create(&client);
        assert_eq!(client.port_for(&cap), cap.port);

        // Unknown service name: NotFound.
        assert!(
            ShardedClient::from_directory(ServiceClient::open(&net), &dirs, &root, "ghost")
                .is_err()
        );
        cluster.stop();
        dir_runner.stop();
    }
}
