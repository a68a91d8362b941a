//! Cluster subsystem integration: replicated failover under load and
//! sharded multi-node placement of the metered-create workload.
//!
//! Everything here runs on the wall clock: the placement test's 2 ms
//! hops are slept out for real. Sleeping needs no core, so the
//! modelled ratio survives a loaded runner; the nested flatfs→bank
//! call blocks a worker thread, which is why that test cannot be a
//! simulator actor yet (ROADMAP item 1(b)).

use amoeba::prelude::*;
use amoeba::server::proto::Reply;
use amoeba::server::{wire, DEFAULT_SHARDS};
use bytes::Bytes;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A patient RPC config for the queueing workloads: a retransmitted
/// metered create would run twice, and the wait at a saturated single
/// replica can approach the default 500 ms timeout.
fn patient() -> amoeba::rpc::RpcConfig {
    amoeba::rpc::RpcConfig {
        timeout: Duration::from_secs(30),
        attempts: 2,
    }
}

/// A stateless service any replica can serve: sums the bytes of the
/// request parameters.
struct Summer;

const CMD_SUM: u32 = 1;

impl Service for Summer {
    fn handle(&self, req: &Request, _ctx: &amoeba::server::RequestCtx) -> Reply {
        let sum: u64 = req.params.iter().map(|&b| b as u64).sum();
        Reply::ok(wire::Writer::new().u64(sum).finish())
    }
}

#[test]
fn killing_one_of_three_replicas_mid_hammer_loses_no_requests() {
    // The failover acceptance test: three replicas serve one port; one
    // is halted (machine stays up, workers dead — a crash as clients
    // see it) while four client threads hammer the service. Every call
    // must succeed: callers pay retries, never see errors.
    const CLIENTS: usize = 4;
    const CALLS: usize = 24;

    let net = Network::new();
    let mut cluster = ServiceCluster::spawn_open(&net, 3, 1, |_| Summer);
    let port = cluster.put_port();
    let client = Arc::new(ClusterClient::broadcast(&net));
    // Warm the replica cache so the halted machine is definitely in
    // it. On a loaded host a replica can miss the first gather window;
    // re-resolve until all three have answered.
    let deadline = Instant::now() + Duration::from_secs(5);
    while client.replicas(port).len() < 3 {
        assert!(
            Instant::now() < deadline,
            "replicas never all answered LOCATE: {:?}",
            client.replicas(port)
        );
        client.invalidate(port);
        std::thread::sleep(Duration::from_millis(5));
    }

    let progress = Arc::new(std::sync::atomic::AtomicUsize::new(0));
    let workers: Vec<_> = (0..CLIENTS)
        .map(|t| {
            let client = Arc::clone(&client);
            let net = net.clone();
            let progress = Arc::clone(&progress);
            std::thread::spawn(move || {
                for i in 0..CALLS {
                    let params = Bytes::from(vec![t as u8, i as u8, 7]);
                    let expect = t as u64 + i as u64 + 7;
                    let body = client
                        .call_anonymous(port, CMD_SUM, params)
                        .unwrap_or_else(|e| {
                            panic!("client {t} call {i} failed during failover: {e}")
                        });
                    assert_eq!(wire::Reader::new(&body).u64().unwrap(), expect);
                    progress.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    // Spread the hammer so the halt lands mid-flight.
                    net.sleep(Duration::from_millis(2));
                }
            })
        })
        .collect();

    // Let the hammer demonstrably ramp up, then kill one replica under
    // it — progress-based, so the halt lands mid-flight however fast
    // the calls run.
    let ramp = Instant::now() + Duration::from_secs(10);
    while progress.load(std::sync::atomic::Ordering::Relaxed) < CLIENTS * 2 {
        assert!(Instant::now() < ramp, "hammer never ramped up");
        std::thread::sleep(Duration::from_millis(1));
    }
    let dead = cluster.halt_replica(1);
    for w in workers {
        w.join().unwrap();
    }
    // The crash must have been *noticed*: either a call tripped over
    // the cached dead replica and failed over, or the cache TTL
    // expired mid-hammer and the re-resolve dead-listed the vanished
    // machine. Both routes route around the crash with zero
    // caller-visible errors.
    assert!(
        client.failovers() >= 1 || client.dead_replicas(port).contains(&dead),
        "the halted replica was neither failed over nor dead-listed"
    );
    let survivors = client.replicas(port);
    assert!(
        !survivors.contains(&dead),
        "the dead machine must stay invalidated"
    );
    cluster.stop();
}

/// The metered flat file service (§3.6 pre-payment through a nested
/// bank transaction) on a sharded cluster of `replicas` machines, its
/// shard map published in a directory, and a funded wallet.
struct MeteredRig {
    bank: ServiceRunner,
    directory: ServiceRunner,
    root: Capability,
    cluster: ElasticCluster,
    wallet: Capability,
}

impl MeteredRig {
    fn spawn(net: &Network, replicas: usize) -> MeteredRig {
        let (bank_server, treasury_rx) =
            BankServer::new(vec![Currency::convertible("dollar", 1)], SchemeKind::OneWay);
        let bank_runner = ServiceRunner::spawn_open(net, bank_server);
        let bank_port = bank_runner.put_port();
        let treasury = treasury_rx.recv().unwrap();
        let bank = BankClient::open(net, bank_port);
        let server_account = bank.open_account().unwrap();
        let wallet = bank.open_account().unwrap();
        bank.mint(&treasury, &wallet, CurrencyId(0), 1_000_000)
            .unwrap();

        let cluster = ElasticCluster::spawn_open(net, replicas, 1, |_| {
            // Every replica runs its own embedded bank client against the
            // one shared bank; payments land in one server account. The
            // embedded client is patient: a payment retransmitted while
            // queued at the single bank would be made twice.
            FlatFsServer::with_quota(
                SchemeKind::OneWay,
                QuotaPolicy {
                    bank: BankClient::with_service(
                        ServiceClient::open_with_config(net, patient()),
                        bank_port,
                    ),
                    server_account,
                    currency: CurrencyId(0),
                    price_per_kib: 1,
                },
            )
        });
        let directory = ServiceRunner::spawn_open(net, DirServer::new(SchemeKind::OneWay));
        let dirs = DirClient::open(net, directory.put_port());
        let root = dirs.create_dir().unwrap();
        cluster.publish(&dirs, &root, "fs").unwrap();
        MeteredRig {
            bank: bank_runner,
            directory,
            root,
            cluster,
            wallet,
        }
    }

    /// A client calling through `svc` that knows nothing but the
    /// directory.
    fn client(&self, net: &Network, svc: ServiceClient) -> ElasticClient {
        let dirs = DirClient::open(net, self.directory.put_port());
        ElasticClient::with_service(svc, dirs, &self.root, "fs").unwrap()
    }

    fn stop(self) {
        self.cluster.stop();
        self.directory.stop();
        self.bank.stop();
    }
}

/// One client thread's share of the metered-create workload: the ports
/// of the minted capabilities, in order. Every create parks the owning
/// replica's dispatch worker on a nested bank round-trip, so replica
/// count is what sets throughput.
fn hammer_creates(client: &ElasticClient, wallet: &Capability, calls: usize) -> Vec<Port> {
    (0..calls)
        .map(|_| {
            let params = wire::Writer::new().cap(wallet).u64(1).finish();
            let body = client
                .call_create(amoeba::flatfs::ops::CREATE, params)
                .unwrap();
            wire::Reader::new(&body).cap().unwrap().port
        })
        .collect()
}

fn timed_metered_round(net: &Network, replicas: usize) -> Duration {
    // Large enough that hop latency dominates what host scheduling
    // adds per hand-off. CALLS is a multiple of the shard count: every
    // client's create cursor starts at its own offset and then walks
    // the shards round-robin, so whatever the offset each client
    // creates once per shard — 6 : 5 : 5 over 3 replicas, which makes
    // the model 96 / 36 ≈ 2.7× for the gate's 2×.
    const CLIENTS: usize = 6;
    const CALLS: usize = DEFAULT_SHARDS;
    let rig = MeteredRig::spawn(net, replicas);
    let clients: Vec<Arc<ElasticClient>> = (0..CLIENTS)
        .map(|_| Arc::new(rig.client(net, ServiceClient::open_with_config(net, patient()))))
        .collect();
    let wallet = rig.wallet;
    net.set_latency(Duration::from_millis(2));
    let v0 = net.now();
    let handles: Vec<_> = clients
        .into_iter()
        .map(|client| std::thread::spawn(move || hammer_creates(&client, &wallet, CALLS)))
        .collect();
    let minted: Vec<Vec<Port>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    let elapsed = net.now().saturating_duration_since(v0);
    net.set_latency(Duration::ZERO);
    // Replica r owns the shards with s % replicas == r, so each client
    // minted exactly that many capabilities there.
    for ports in &minted {
        let split: Vec<usize> = (0..replicas)
            .map(|r| {
                let port = rig.cluster.replica_port(r);
                ports.iter().filter(|&&p| p == port).count()
            })
            .collect();
        let owned: Vec<usize> = (0..replicas)
            .map(|r| (0..DEFAULT_SHARDS).filter(|s| s % replicas == r).count())
            .collect();
        assert_eq!(split, owned, "creates per replica");
    }
    rig.stop();
    elapsed
}

#[test]
fn three_sharded_replicas_at_least_double_metered_create_throughput() {
    // The placement acceptance bar: on the metered-create workload at
    // nonzero hop latency, 3 replicas must be ≥2× the throughput of 1.
    // Every create parks a dispatch worker on a nested bank round-trip
    // (2 ms per hop), so capacity scales with machines, not cycles —
    // the waiting is sleep, which a busy host does not slow down.
    let net = Network::new();
    let single = timed_metered_round(&net, 1);
    let triple = timed_metered_round(&net, 3);
    assert!(
        triple * 2 <= single,
        "3 replicas must be ≥2× faster on metered creates: 1 replica {single:?}, 3 replicas {triple:?}"
    );
}

#[test]
fn sharded_capabilities_survive_cross_client_use() {
    // Capabilities minted through one sharded client route correctly
    // through another (the shard map, not client state, places them).
    let net = Network::new();
    let rig = MeteredRig::spawn(&net, 3);
    let a = rig.client(&net, ServiceClient::open(&net));
    let b = rig.client(&net, ServiceClient::open(&net));

    let params = wire::Writer::new().cap(&rig.wallet).u64(1).finish();
    let caps: Vec<Capability> = (0..6)
        .map(|_| {
            let body = a
                .call_create(amoeba::flatfs::ops::CREATE, params.clone())
                .unwrap();
            wire::Reader::new(&body).cap().unwrap()
        })
        .collect();
    for (i, cap) in caps.iter().enumerate() {
        b.call(
            cap,
            amoeba::flatfs::ops::WRITE,
            wire::Writer::new()
                .u64(0)
                .bytes(format!("x{i}").as_bytes())
                .finish(),
        )
        .unwrap();
        let read = b
            .call(
                cap,
                amoeba::flatfs::ops::READ,
                wire::Writer::new().u64(0).u32(8).finish(),
            )
            .unwrap();
        assert_eq!(&read[..], format!("x{i}").as_bytes());
    }
    rig.stop();
}

#[test]
fn discovery_traffic_is_accounted_as_broadcast_bytes() {
    // Discovery overhead is read off the broadcast byte counter; make
    // sure LOCATE traffic is what lands there and request/reply
    // traffic is not.
    let net = Network::new();
    let cluster = ServiceCluster::spawn_open(&net, 3, 1, |_| Summer);
    let client = ClusterClient::broadcast(&net);
    let before = net.stats().snapshot();
    for i in 0..8u8 {
        client
            .call_anonymous(cluster.put_port(), CMD_SUM, Bytes::from(vec![i]))
            .unwrap();
    }
    let d = net.stats().snapshot() - before;
    assert_eq!(d.broadcasts_sent, 1, "one LOCATE for eight calls");
    assert!(
        d.broadcast_bytes_sent > 0 && d.broadcast_bytes_sent < d.bytes_sent / 4,
        "discovery bytes ({}) must be a small, separately-visible slice of {}",
        d.broadcast_bytes_sent,
        d.bytes_sent
    );
    cluster.stop();
}
