//! Sharded placement: each replica owns a set of object-table shards,
//! the shard index in a capability's object number routes to its
//! owner, and the shard→replica map can change at runtime via live
//! migration.
//!
//! A stateful service cannot be served by "any replica" — an object
//! lives where it was created. The [`ObjectTable`] stamps a shard index
//! into the low bits of every object number (the lock-striping key);
//! here that index becomes the **placement key**. Replica `i` of an
//! `n`-way group starts owning the shards with `shard % n == i` (via
//! [`Service::bind_shard_range`]), the directory server stores one
//! locator capability per shard (§3.4: clients walk names, not
//! machines), and [`ElasticClient`] routes every call with
//! [`placement_range`]. A group that never migrates keeps that static
//! map for its whole life.
//!
//! Static placement melts under a skewed workload, so the map is
//! *mutable*: [`migrate`](ElasticCluster::migrate) streams one shard to
//! a new owner (the cutover protocol of [`crate::migrate`]),
//! [`drain`](ElasticCluster::drain) empties a replica for maintenance,
//! and the per-shard directory entries are republished so new clients
//! bootstrap the fresh map.
//!
//! Clients with a stale map stay correct throughout: the old owner
//! *forwards* requests for a released shard to the new owner
//! (capability validation happens there — the secrets moved with the
//! objects), and [`ElasticClient`] refreshes its map from the
//! directory when a call hits a drained replica.
//!
//! [`ObjectTable`]: amoeba_server::ObjectTable

use crate::migrate::{MigrateError, MigrationStats, ShardMigration};
use amoeba_cap::{Capability, ObjectNum, Rights};
use amoeba_dirsvr::DirClient;
use amoeba_net::{Network, Port};
use amoeba_rpc::Client;
use amoeba_server::proto::{null_cap, Status};
use amoeba_server::DEFAULT_SHARDS;
use amoeba_server::{placement_range, ClientError, Service, ServiceClient, ServiceRunner};
use bytes::Bytes;
use parking_lot::{Mutex, RwLock};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

fn shard_entry_name(service: &str, shard: usize) -> String {
    format!("{service}.shard-{shard}")
}

/// The capability a directory stores for one shard: it names the
/// owner's put-port and nothing else (object 0, no secret). It is a
/// *locator*, not an authorisation — the real per-object capabilities
/// are minted and validated by the owner; this entry only tells clients
/// where requests for the shard go, exactly like the per-server
/// directory entries of §3.4.
pub fn range_capability(port: Port) -> Capability {
    Capability::new(
        port,
        ObjectNum::new(0).expect("zero is a valid object number"),
        Rights::NONE,
        0,
    )
}

/// A placement group of `n` replicas serving all [`DEFAULT_SHARDS`]
/// table shards, with a runtime-mutable shard→replica ownership map.
pub struct ElasticCluster {
    runners: Vec<ServiceRunner>,
    /// Authoritative shard→replica map (control-plane view; the data
    /// plane tolerates staleness via forwarding).
    owner: Mutex<Vec<usize>>,
    next_xfer: AtomicU64,
}

impl std::fmt::Debug for ElasticCluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ElasticCluster")
            .field("replicas", &self.runners.len())
            .field("owner", &*self.owner.lock())
            .finish()
    }
}

impl ElasticCluster {
    /// Spawns `replicas` instances (one per fresh open-interface
    /// machine, `workers` dispatch workers each); replica `i` starts
    /// owning the shards with `shard % replicas == i`.
    ///
    /// # Panics
    /// Panics if `replicas` is zero or exceeds [`DEFAULT_SHARDS`].
    pub fn spawn_open<S: Service>(
        net: &Network,
        replicas: usize,
        workers: usize,
        mut factory: impl FnMut(usize) -> S,
    ) -> ElasticCluster {
        assert!(
            (1..=DEFAULT_SHARDS).contains(&replicas),
            "1..={DEFAULT_SHARDS} replicas per elastic group"
        );
        let runners: Vec<ServiceRunner> = (0..replicas)
            .map(|i| {
                let mut service = factory(i);
                service.bind_shard_range(i, replicas);
                ServiceRunner::spawn_workers(net.attach_open(), Port::random(), service, workers)
            })
            .collect();
        let owner = (0..DEFAULT_SHARDS).map(|s| s % replicas).collect();
        ElasticCluster {
            runners,
            owner: Mutex::new(owner),
            next_xfer: AtomicU64::new(1),
        }
    }

    /// Number of replicas.
    pub fn replicas(&self) -> usize {
        self.runners.len()
    }

    /// The put-port of replica `i`.
    pub fn replica_port(&self, i: usize) -> Port {
        self.runners[i].put_port()
    }

    /// The current shard→replica ownership map (a snapshot).
    pub fn owners(&self) -> Vec<usize> {
        self.owner.lock().clone()
    }

    /// The current shard→port map (a snapshot).
    pub fn shard_ports(&self) -> Vec<Port> {
        self.owner
            .lock()
            .iter()
            .map(|&r| self.runners[r].put_port())
            .collect()
    }

    /// Per-shard request counts, read from each shard's current
    /// owner. A freshly migrated shard restarts near zero on its new
    /// owner, which is the figure a load balancer wants: recent load
    /// at the serving machine.
    pub fn shard_loads(&self) -> Vec<u64> {
        let owner = self.owner.lock();
        owner
            .iter()
            .enumerate()
            .map(|(s, &r)| {
                self.runners[r]
                    .service()
                    .migrator()
                    .map(|m| m.shard_ops()[s])
                    .unwrap_or(0)
            })
            .collect()
    }

    /// Stores one locator capability per shard under `dir` as
    /// `"<service>.shard-<s>"` entries, pointing at each shard's
    /// current owner.
    ///
    /// # Errors
    /// Directory errors (`Conflict` if already published, rights).
    pub fn publish(
        &self,
        dirs: &DirClient,
        dir: &Capability,
        service: &str,
    ) -> Result<(), ClientError> {
        for (s, port) in self.shard_ports().into_iter().enumerate() {
            dirs.enter(dir, &shard_entry_name(service, s), &range_capability(port))?;
        }
        Ok(())
    }

    /// Re-points shard `s`'s directory entry at its current owner
    /// (call after a successful [`migrate`](Self::migrate)). Clients
    /// that read the old entry keep working through forwarding.
    ///
    /// # Errors
    /// Directory errors from the replace ( a missing old entry is not
    /// an error).
    pub fn republish(
        &self,
        dirs: &DirClient,
        dir: &Capability,
        service: &str,
        shard: usize,
    ) -> Result<(), ClientError> {
        let port = self.shard_ports()[shard];
        let name = shard_entry_name(service, shard);
        match dirs.remove(dir, &name) {
            Ok(()) | Err(ClientError::Status(Status::NotFound)) => {}
            Err(e) => return Err(e),
        }
        dirs.enter(dir, &name, &range_capability(port))
    }

    /// Live-migrates `shard` to replica `to`, blocking until the
    /// cutover completes. A no-op (zero stats) if `to` already owns
    /// the shard. `client` supplies the transport for the transfer
    /// stream.
    ///
    /// # Errors
    /// [`MigrateError`]; on failure the current owner keeps serving.
    ///
    /// # Panics
    /// Panics if `shard` or `to` is out of range.
    pub fn migrate(
        &self,
        client: &Client,
        shard: usize,
        to: usize,
    ) -> Result<MigrationStats, MigrateError> {
        assert!(shard < DEFAULT_SHARDS, "shard out of range");
        assert!(to < self.runners.len(), "replica out of range");
        let from = self.owner.lock()[shard];
        if from == to {
            return Ok(MigrationStats::default());
        }
        let source_service = self.runners[from].service();
        let source = source_service.migrator().ok_or(MigrateError::NoMigrator)?;
        let target = self.runners[to].service().migrator();
        let target = target.ok_or(MigrateError::NoMigrator)?.capability();
        let xfer = self.next_xfer.fetch_add(1, Ordering::Relaxed);
        let stats = ShardMigration::new(client, source, shard, xfer, target, None).run()?;
        self.owner.lock()[shard] = to;
        Ok(stats)
    }

    /// Empties replica `i` for maintenance: every shard it owns is
    /// migrated to whichever *other* replica currently owns the fewest
    /// shards. Returns the moves performed as `(shard, new_owner)`.
    ///
    /// # Errors
    /// The first [`MigrateError`]; earlier moves stay in effect.
    ///
    /// # Panics
    /// Panics if `i` is out of range or the group has a single
    /// replica (nowhere to drain to).
    pub fn drain(&self, client: &Client, i: usize) -> Result<Vec<(usize, usize)>, MigrateError> {
        assert!(i < self.runners.len(), "replica out of range");
        assert!(
            self.runners.len() > 1,
            "cannot drain a single-replica group"
        );
        let owned: Vec<usize> = {
            let owner = self.owner.lock();
            (0..DEFAULT_SHARDS).filter(|&s| owner[s] == i).collect()
        };
        let mut moves = Vec::with_capacity(owned.len());
        for shard in owned {
            let to = {
                let owner = self.owner.lock();
                let mut counts = vec![0usize; self.runners.len()];
                for &r in owner.iter() {
                    counts[r] += 1;
                }
                (0..self.runners.len())
                    .filter(|&r| r != i)
                    .min_by_key(|&r| counts[r])
                    .expect("more than one replica")
            };
            self.migrate(client, shard, to)?;
            moves.push((shard, to));
        }
        Ok(moves)
    }

    /// Stops every replica.
    pub fn stop(self) {
        for r in self.runners {
            r.stop();
        }
    }
}

/// A client for an [`ElasticCluster`]: routes by the capability's
/// shard, and re-reads the directory map when a call lands on a
/// replica that no longer mints (drained) or the transport times out —
/// so migrations behind its back cost one retry, never an error.
pub struct ElasticClient {
    svc: ServiceClient,
    dirs: DirClient,
    dir: Capability,
    service: String,
    /// shard → owning port, refreshed from the directory on demand.
    ports: RwLock<Vec<Port>>,
    /// Round-robin cursor for placements with no capability (CREATE).
    next_shard: AtomicUsize,
}

impl std::fmt::Debug for ElasticClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ElasticClient")
            .field("service", &self.service)
            .field("ports", &*self.ports.read())
            .finish()
    }
}

impl ElasticClient {
    /// Bootstraps the shard map from the `"<service>.shard-<s>"`
    /// entries an [`ElasticCluster::publish`] stored under `dir`, over
    /// a fresh open-interface client.
    ///
    /// # Errors
    /// As for [`with_service`](Self::with_service).
    pub fn from_directory(
        net: &Network,
        dirs: DirClient,
        dir: &Capability,
        service: &str,
    ) -> Result<ElasticClient, ClientError> {
        Self::with_service(ServiceClient::open(net), dirs, dir, service)
    }

    /// Like [`from_directory`](Self::from_directory), calling through
    /// `svc` — how a caller picks its own transport configuration.
    ///
    /// The create cursor starts at an offset taken from `svc`'s machine
    /// id: clients built together would otherwise march over the owners
    /// in lockstep, convoying on one replica at a time.
    ///
    /// # Errors
    /// [`ClientError`] from the directory lookups (all
    /// [`DEFAULT_SHARDS`] entries must exist; an unpublished service
    /// surfaces as the lookup's `NotFound`).
    pub fn with_service(
        svc: ServiceClient,
        dirs: DirClient,
        dir: &Capability,
        service: &str,
    ) -> Result<ElasticClient, ClientError> {
        let start = svc.rpc().endpoint().id().as_u32() as usize % DEFAULT_SHARDS;
        let client = ElasticClient {
            svc,
            dirs,
            dir: *dir,
            service: service.to_string(),
            ports: RwLock::new(Vec::new()),
            next_shard: AtomicUsize::new(start),
        };
        client.refresh()?;
        Ok(client)
    }

    /// Re-reads the whole shard map from the directory. A shard whose
    /// entry is missing keeps the port it had — a republish removes
    /// the entry before it enters the new one, and the old owner
    /// forwards meanwhile. On the bootstrap read a missing entry is an
    /// error.
    ///
    /// # Errors
    /// [`ClientError`] from the directory lookups.
    pub fn refresh(&self) -> Result<(), ClientError> {
        let known = self.ports.read().clone();
        let mut fresh = Vec::with_capacity(DEFAULT_SHARDS);
        for s in 0..DEFAULT_SHARDS {
            let port = match self
                .dirs
                .lookup(&self.dir, &shard_entry_name(&self.service, s))
            {
                Ok(cap) => cap.port,
                Err(ClientError::Status(Status::NotFound)) if !known.is_empty() => known[s],
                Err(e) => return Err(e),
            };
            fresh.push(port);
        }
        *self.ports.write() = fresh;
        Ok(())
    }

    /// The port currently mapped for `cap`'s shard.
    pub fn port_for(&self, cap: &Capability) -> Port {
        let shard = placement_range(cap.object, DEFAULT_SHARDS, DEFAULT_SHARDS);
        self.ports.read()[shard]
    }

    fn should_refresh(err: &ClientError) -> bool {
        matches!(
            err,
            ClientError::Rpc(_) | ClientError::Status(Status::Unsupported)
        )
    }

    /// Invokes `command` on the object named by `cap`, routed to its
    /// shard's owner. A transport failure or a drained-replica refusal
    /// triggers one map refresh and one retry.
    ///
    /// # Errors
    /// As for [`ServiceClient::call`], after the retry.
    pub fn call(
        &self,
        cap: &Capability,
        command: u32,
        params: Bytes,
    ) -> Result<Bytes, ClientError> {
        self.call_refreshing(|| self.port_for(cap), cap, command, params)
    }

    /// Invokes a capability-less placement command (CREATE and
    /// friends) on the next shard owner in round-robin order. A
    /// drained replica answers `Unsupported` (it has no mintable
    /// shard left); that triggers one map refresh and one retry on
    /// the refreshed owner.
    ///
    /// # Errors
    /// As for [`ServiceClient::call_anonymous`], after the retry.
    pub fn call_create(&self, command: u32, params: Bytes) -> Result<Bytes, ClientError> {
        let shard = self.next_shard.fetch_add(1, Ordering::Relaxed) % DEFAULT_SHARDS;
        self.call_refreshing(|| self.ports.read()[shard], &null_cap(), command, params)
    }

    /// Calls the port `route` names, and once more on the port it names
    /// after a map refresh when the first attempt calls for one. Each
    /// attempt writes `params` into its own frame; the blob is released
    /// once, at the end.
    fn call_refreshing(
        &self,
        route: impl Fn() -> Port,
        cap: &Capability,
        command: u32,
        params: Bytes,
    ) -> Result<Bytes, ClientError> {
        let attempt = || {
            self.svc
                .call_with(route(), None, cap, command, params.len(), |w| {
                    w.raw(&params)
                })
        };
        let result = match attempt() {
            Err(e) if Self::should_refresh(&e) => self.refresh().and_then(|()| attempt()),
            settled => settled,
        };
        self.svc.rpc().buf_pool().release(params);
        result
    }

    /// The underlying generic service client.
    pub fn service(&self) -> &ServiceClient {
        &self.svc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Rebalancer;
    use amoeba_cap::schemes::SchemeKind;
    use amoeba_dirsvr::DirServer;
    use amoeba_flatfs::{ops, FlatFsServer};
    use amoeba_server::wire;

    fn elastic_fs(net: &Network, replicas: usize) -> ElasticCluster {
        ElasticCluster::spawn_open(net, replicas, 1, |_| {
            FlatFsServer::new(SchemeKind::Commutative)
        })
    }

    fn shard_of(cap: &Capability) -> usize {
        placement_range(cap.object, DEFAULT_SHARDS, DEFAULT_SHARDS)
    }

    fn create_at(svc: &ServiceClient, port: Port) -> Capability {
        let body = svc.call_anonymous(port, ops::CREATE, Bytes::new()).unwrap();
        wire::Reader::new(&body).cap().unwrap()
    }

    fn write(svc: &ServiceClient, cap: &Capability, data: &[u8]) {
        svc.call(
            cap,
            ops::WRITE,
            wire::Writer::new().u64(0).bytes(data).finish(),
        )
        .unwrap();
    }

    fn read(svc: &ServiceClient, cap: &Capability) -> Bytes {
        svc.call(cap, ops::READ, wire::Writer::new().u64(0).u32(32).finish())
            .unwrap()
    }

    #[test]
    fn migration_moves_objects_and_old_port_forwards() {
        let net = Network::new();
        let cluster = elastic_fs(&net, 2);
        let svc = ServiceClient::open(&net);
        let caps: Vec<Capability> = (0..8)
            .map(|_| create_at(&svc, cluster.replica_port(0)))
            .collect();
        for (i, cap) in caps.iter().enumerate() {
            write(&svc, cap, format!("body-{i}").as_bytes());
        }
        let shard = shard_of(&caps[0]);
        let rpc = Client::new(net.attach_open());
        let stats = cluster.migrate(&rpc, shard, 1).unwrap();
        assert!(stats.chunks >= 1, "a populated shard ships chunks");
        assert_eq!(cluster.owners()[shard], 1);

        // Every capability still works addressed at the port it was
        // minted with: the migrated shard is *forwarded* by the old
        // owner, the rest are served there as before.
        for (i, cap) in caps.iter().enumerate() {
            assert_eq!(&read(&svc, cap)[..], format!("body-{i}").as_bytes());
        }
        // The new owner serves the migrated shard directly — secrets
        // moved with the objects, so old capabilities validate there.
        for (i, cap) in caps.iter().enumerate() {
            if shard_of(cap) != shard {
                continue;
            }
            let body = svc
                .call_at(
                    cluster.replica_port(1),
                    cap,
                    ops::READ,
                    wire::Writer::new().u64(0).u32(32).finish(),
                )
                .unwrap();
            assert_eq!(&body[..], format!("body-{i}").as_bytes());
        }
        cluster.stop();
    }

    #[test]
    fn repeated_stale_map_calls_do_not_wait_out_a_retransmit() {
        // After a migration a stale-map client keeps addressing the old
        // owner's port. The old owner forwards and the *new* owner
        // answers, which once taught the client's route cache "the new
        // owner's machine serves the old port": the next call was
        // machine-targeted at a machine that does not listen there and
        // sat out the 500 ms retransmission timeout. Every repeat must
        // now complete at forwarding speed.
        let net = Network::new();
        let cluster = elastic_fs(&net, 2);
        let svc = ServiceClient::open(&net);
        let cap = create_at(&svc, cluster.replica_port(0));
        write(&svc, &cap, b"moved");
        let rpc = Client::new(net.attach_open());
        cluster.migrate(&rpc, shard_of(&cap), 1).unwrap();

        for call in 1..=4 {
            let before = net.stats().snapshot();
            let t0 = std::time::Instant::now();
            assert_eq!(&read(&svc, &cap)[..], b"moved");
            let took = t0.elapsed();
            let frames = (net.stats().snapshot() - before).packets_sent;
            assert!(
                took < std::time::Duration::from_millis(100),
                "stale-map call {call} took {took:?} ({frames} frames)"
            );
            // Request, forward, reply — plus at most one hinted frame
            // that reached nobody and was re-sent at once.
            assert!((3..=4).contains(&frames), "call {call}: {frames} frames");
        }
        cluster.stop();
    }

    #[test]
    fn migration_is_invisible_to_a_live_writer() {
        let net = Network::new();
        let cluster = elastic_fs(&net, 2);
        let svc = ServiceClient::open(&net);
        let cap = create_at(&svc, cluster.replica_port(0));
        let shard = shard_of(&cap);

        const WRITES: u32 = 200;
        std::thread::scope(|s| {
            let writer = s.spawn(|| {
                // Always addresses the *original* owner: the held
                // window retransmits, the forwarded window relays.
                let svc = ServiceClient::open(&net);
                for i in 0..WRITES {
                    write(&svc, &cap, format!("v{i:04}").as_bytes());
                }
            });
            let rpc = Client::new(net.attach_open());
            cluster.migrate(&rpc, shard, 1).unwrap();
            writer.join().unwrap();
        });
        // The last write survived the cutover, wherever it landed.
        let last = WRITES - 1;
        assert_eq!(&read(&svc, &cap)[..], format!("v{last:04}").as_bytes());
        cluster.stop();
    }

    #[test]
    fn drain_republish_and_stale_clients_recover() {
        let net = Network::new();
        let dir_runner = ServiceRunner::spawn_open(&net, DirServer::new(SchemeKind::OneWay));
        let dirs = DirClient::open(&net, dir_runner.put_port());
        let root = dirs.create_dir().unwrap();
        let cluster = elastic_fs(&net, 3);
        cluster.publish(&dirs, &root, "fs").unwrap();

        let client = ElasticClient::from_directory(
            &net,
            DirClient::open(&net, dir_runner.put_port()),
            &root,
            "fs",
        )
        .unwrap();
        let caps: Vec<Capability> = (0..9)
            .map(|_| {
                let body = client.call_create(ops::CREATE, Bytes::new()).unwrap();
                wire::Reader::new(&body).cap().unwrap()
            })
            .collect();
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

        let rpc = Client::new(net.attach_open());
        let moves = cluster.drain(&rpc, 0).unwrap();
        assert!(!moves.is_empty(), "replica 0 owned shards to move");
        let owners = cluster.owners();
        assert!(owners.iter().all(|&r| r != 0), "replica 0 fully drained");
        for &(shard, _) in &moves {
            cluster.republish(&dirs, &root, "fs", shard).unwrap();
        }

        // The drained replica refuses to mint.
        let direct = ServiceClient::open(&net);
        assert!(matches!(
            direct.call_anonymous(cluster.replica_port(0), ops::CREATE, Bytes::new()),
            Err(ClientError::Status(Status::Unsupported))
        ));

        // The elastic client's map is stale — reads route through
        // forwarding, creates hit `Unsupported` once, refresh, and
        // succeed on the new owner.
        for (i, cap) in caps.iter().enumerate() {
            let body = client
                .call(cap, ops::READ, wire::Writer::new().u64(0).u32(32).finish())
                .unwrap();
            assert_eq!(&body[..], format!("file-{i}").as_bytes());
        }
        for _ in 0..6 {
            let body = client.call_create(ops::CREATE, Bytes::new()).unwrap();
            let cap = wire::Reader::new(&body).cap().unwrap();
            assert_ne!(cap.port, cluster.replica_port(0), "drained replica minted");
        }
        cluster.stop();
        dir_runner.stop();
    }

    #[test]
    fn a_refresh_inside_a_republish_window_keeps_the_old_port() {
        // `republish` removes a shard's entry before it enters the new
        // one. A refresh that reads the map in between keeps that
        // shard's old port — its owner serves or forwards — instead of
        // failing the call that asked for the refresh.
        let net = Network::new();
        let dir_runner = ServiceRunner::spawn_open(&net, DirServer::new(SchemeKind::OneWay));
        let dirs = DirClient::open(&net, dir_runner.put_port());
        let root = dirs.create_dir().unwrap();
        let cluster = elastic_fs(&net, 2);
        cluster.publish(&dirs, &root, "fs").unwrap();
        let bootstrap = || {
            ElasticClient::from_directory(
                &net,
                DirClient::open(&net, dir_runner.put_port()),
                &root,
                "fs",
            )
        };
        let client = bootstrap().unwrap();

        // Shard 1 stays on replica 1; its entry is caught mid-republish.
        dirs.remove(&root, &shard_entry_name("fs", 1)).unwrap();
        let rpc = Client::new(net.attach_open());
        for (shard, _) in cluster.drain(&rpc, 0).unwrap() {
            cluster.republish(&dirs, &root, "fs", shard).unwrap();
        }
        // The creates the stale map sends to the drained replica come
        // back `Unsupported` and refresh the map past the gap.
        for _ in 0..DEFAULT_SHARDS {
            let body = client.call_create(ops::CREATE, Bytes::new()).unwrap();
            let cap = wire::Reader::new(&body).cap().unwrap();
            assert_eq!(cap.port, cluster.replica_port(1));
        }
        // A bootstrap has no old port to keep.
        assert_eq!(
            bootstrap().unwrap_err(),
            ClientError::Status(Status::NotFound)
        );
        cluster.stop();
        dir_runner.stop();
    }

    #[test]
    fn rebalancer_spreads_a_hot_replica() {
        let net = Network::new();
        let cluster = elastic_fs(&net, 4);
        let svc = ServiceClient::open(&net);
        // Hammer replica 0's objects; everyone else stays cold.
        let caps: Vec<Capability> = (0..4)
            .map(|_| create_at(&svc, cluster.replica_port(0)))
            .collect();
        for (i, cap) in caps.iter().enumerate() {
            write(&svc, cap, format!("hot-{i}").as_bytes());
            for _ in 0..25 {
                read(&svc, cap);
            }
        }
        let loads = cluster.shard_loads();
        let rpc = Client::new(net.attach_open());
        let moves = Rebalancer::default().rebalance(&cluster, &rpc).unwrap();
        assert!(!moves.is_empty(), "the skew must trigger moves");
        let owners = cluster.owners();
        // Replica 0 carried every request; after the repack no replica
        // carries more than 1/1.5 of them — ≥ 1.5x the capacity on
        // single-worker replicas, counted instead of timed.
        let mut carried = [0u64; 4];
        for (shard, load) in loads.iter().enumerate() {
            carried[owners[shard]] += load;
        }
        let (hottest, total) = (*carried.iter().max().unwrap(), loads.iter().sum::<u64>());
        assert!(
            total > 0 && hottest * 3 <= total * 2,
            "hottest replica still carries {hottest} of {total}: {carried:?}"
        );
        let hot_owners: std::collections::HashSet<usize> =
            caps.iter().map(|c| owners[shard_of(c)]).collect();
        assert!(hot_owners.len() > 1, "hot shards no longer share one owner");
        // Nothing was lost and stale routing still works.
        for (i, cap) in caps.iter().enumerate() {
            assert_eq!(&read(&svc, cap)[..], format!("hot-{i}").as_bytes());
        }
        cluster.stop();
    }

    #[test]
    fn a_migration_to_a_silent_replica_aborts_and_the_source_serves_on() {
        let net = Network::new();
        let mut cluster = elastic_fs(&net, 2);
        let svc = ServiceClient::open(&net);
        let caps: Vec<Capability> = (0..4)
            .map(|_| create_at(&svc, cluster.replica_port(0)))
            .collect();
        for (i, cap) in caps.iter().enumerate() {
            write(&svc, cap, format!("body-{i}").as_bytes());
        }
        // Replica 1 keeps its port claimed but answers nothing.
        cluster.runners[1].halt();
        let owners = cluster.owners();
        let rpc = Client::with_config(
            net.attach_open(),
            amoeba_rpc::RpcConfig {
                timeout: std::time::Duration::from_millis(20),
                attempts: 2,
            },
        );
        assert_eq!(
            cluster.migrate(&rpc, shard_of(&caps[0]), 1),
            Err(MigrateError::Transport(amoeba_rpc::RpcError::Timeout))
        );
        assert_eq!(cluster.owners(), owners);
        for (i, cap) in caps.iter().enumerate() {
            assert_eq!(&read(&svc, cap)[..], format!("body-{i}").as_bytes());
        }
        cluster.stop();
    }

    #[test]
    fn migrate_to_current_owner_is_a_no_op() {
        let net = Network::new();
        let cluster = elastic_fs(&net, 2);
        let rpc = Client::new(net.attach_open());
        let stats = cluster.migrate(&rpc, 0, 0).unwrap();
        assert_eq!(stats, MigrationStats::default());
        assert_eq!(cluster.owners()[0], 0);
        cluster.stop();
    }
}
