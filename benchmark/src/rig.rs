//! Every party the benchmark stands up: all `spawn_*`, `attach`, `bind`
//! and cluster constructor calls live here, so a change to how the
//! library spawns servers is a change to this one file.
//!
//! Each rig is built on the calling thread; server threads the library
//! spawns inherit that thread's core (see [`crate::place`]). Nothing
//! here sees the workload seed — rigs take generated inputs only.

use amoeba_bank::{BankClient, BankServer, Currency, CurrencyId};
use amoeba_block::{BlockClient, BlockServer, DiskConfig};
use amoeba_cap::schemes::SchemeKind;
use amoeba_cap::Capability;
use amoeba_cluster::{ElasticClient, ElasticCluster, MigrationStats};
use amoeba_crypto::oneway::ShaOneWay;
use amoeba_dirsvr::{DirClient, DirServer};
use amoeba_fbox::FBox;
use amoeba_flatfs::{ops as fs_ops, BlockFlatFsServer, FlatFsClient, FlatFsServer, QuotaPolicy};
use amoeba_net::{Endpoint, Network, Port};
use amoeba_rpc::{Client, RpcConfig, ServerPort};
use amoeba_server::proto::{Reply, Request};
use amoeba_server::{
    placement_range, wire, RequestCtx, Service, ServiceClient, ServiceRunner, SimPump,
    DEFAULT_SHARDS,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The one currency every metered rig charges in.
pub const DOLLAR: CurrencyId = CurrencyId(0);
/// What a wallet starts with; far more than any window can spend.
pub const MINTED: u64 = 1_000_000_000;
/// Directory depth of the VFS tree; the first half lives on one
/// directory server, the second half on another.
pub const TREE_DEPTH: usize = 8;
/// Bytes per block of the VFS rigs' disk.
pub const BLOCK_SIZE: u32 = 512;

/// No retransmission inside a window: the metered operations are not
/// idempotent, and the default 500 ms attempt timeout would turn one
/// host stall into a double charge the bank oracle then reports.
fn patient() -> RpcConfig {
    RpcConfig {
        timeout: Duration::from_secs(30),
        attempts: 2,
    }
}

fn open_client(net: &Network) -> ServiceClient {
    ServiceClient::with_client(Client::with_config(net.attach_open(), patient()))
}

fn fbox_endpoint(net: &Network) -> Endpoint {
    net.attach(Arc::new(FBox::hardware(ShaOneWay)))
}

fn fbox_client(net: &Network) -> ServiceClient {
    ServiceClient::with_client(Client::with_config(fbox_endpoint(net), patient()))
}

/// Replies with the request's parameters: the null service.
struct EchoService;

impl Service for EchoService {
    fn handle(&self, req: &Request, _ctx: &RequestCtx) -> Reply {
        Reply::ok(req.params.clone())
    }
}

/// The command number echo requests carry (the service ignores it).
pub const ECHO_COMMAND: u32 = 0xEC40;

/// One client, one single-worker echo server, open interfaces, zero
/// wire latency.
pub struct Echo {
    pub net: Network,
    pub client: ServiceClient,
    pub port: Port,
    runner: ServiceRunner,
}

impl Echo {
    pub fn build() -> Echo {
        let net = Network::new();
        let runner = ServiceRunner::spawn_open(&net, EchoService);
        Echo {
            client: open_client(&net),
            port: runner.put_port(),
            net,
            runner,
        }
    }

    pub fn stop(self) {
        self.runner.stop();
    }
}

/// A bank plus the accounts a metered file service needs.
struct Treasury {
    runner: ServiceRunner,
    /// The harness's own bank client: opens accounts, audits balances.
    auditor: BankClient,
    wallet: Capability,
    server_account: Capability,
}

impl Treasury {
    fn open(net: &Network, fbox: bool) -> Treasury {
        let (server, treasury_rx) =
            BankServer::new(vec![Currency::convertible("dollar", 1)], SchemeKind::OneWay);
        let (runner, svc) = if fbox {
            (ServiceRunner::spawn_fbox(net, server), fbox_client(net))
        } else {
            (ServiceRunner::spawn_open(net, server), open_client(net))
        };
        let treasury = treasury_rx.recv().expect("treasury capability");
        let auditor = BankClient::with_service(svc, runner.put_port());
        let server_account = auditor.open_account().expect("server account");
        let wallet = auditor.open_account().expect("wallet");
        auditor
            .mint(&treasury, &wallet, DOLLAR, MINTED)
            .expect("mint");
        Treasury {
            runner,
            auditor,
            wallet,
            server_account,
        }
    }

    /// A metered flat file server that pays into this treasury through
    /// its own embedded bank client `bank`.
    fn metered_flatfs(&self, bank: ServiceClient) -> FlatFsServer {
        FlatFsServer::with_quota(
            SchemeKind::OneWay,
            QuotaPolicy {
                bank: BankClient::with_service(bank, self.runner.put_port()),
                server_account: self.server_account,
                currency: DOLLAR,
                price_per_kib: 1,
            },
        )
    }

    /// (wallet, server account) balances.
    fn balances(&self) -> (u64, u64) {
        (
            self.auditor
                .balance(&self.wallet, DOLLAR)
                .expect("wallet balance"),
            self.auditor
                .balance(&self.server_account, DOLLAR)
                .expect("server balance"),
        )
    }
}

/// The paper's §3.6 shape: a file server that is itself a bank client,
/// every machine behind a hardware F-box.
pub struct Metered {
    pub net: Network,
    pub fs: FlatFsClient,
    pub wallet: Capability,
    treasury: Treasury,
    runner: ServiceRunner,
}

impl Metered {
    pub fn build() -> Metered {
        let net = Network::new();
        let treasury = Treasury::open(&net, true);
        let runner = ServiceRunner::spawn_fbox(&net, treasury.metered_flatfs(fbox_client(&net)));
        Metered {
            fs: FlatFsClient::with_service(fbox_client(&net), runner.put_port()),
            wallet: treasury.wallet,
            net,
            treasury,
            runner,
        }
    }

    pub fn balances(&self) -> (u64, u64) {
        self.treasury.balances()
    }

    /// One bank transfer of one unit, wallet → server account or (as a
    /// `refund`) back: the nested transaction of a metered create, alone.
    pub fn transfer(&self, refund: bool) {
        let t = &self.treasury;
        let (from, to) = if refund {
            (&t.server_account, &t.wallet)
        } else {
            (&t.wallet, &t.server_account)
        };
        t.auditor.transfer(from, to, DOLLAR, 1).expect("transfer");
    }

    pub fn stop(self) {
        self.runner.stop();
        self.treasury.runner.stop();
    }
}

/// An unmetered in-memory flat file server and its client, open
/// interfaces: `flatfs` without the bank.
pub struct PlainFlatFs {
    pub fs: FlatFsClient,
    runner: ServiceRunner,
}

impl PlainFlatFs {
    pub fn build() -> PlainFlatFs {
        let net = Network::new();
        let runner = ServiceRunner::spawn_open(&net, FlatFsServer::new(SchemeKind::OneWay));
        PlainFlatFs {
            fs: FlatFsClient::with_service(open_client(&net), runner.put_port()),
            runner,
        }
    }

    pub fn stop(self) {
        self.runner.stop();
    }
}

/// A capability file system: a depth-[`TREE_DEPTH`] directory chain
/// across two directory servers, over a block-backed flat file server
/// and its disk.
pub struct Vfs {
    pub net: Network,
    /// Directory client with the capability cache on.
    pub dirs: DirClient,
    pub fs: FlatFsClient,
    pub root: Capability,
    /// The deepest directory, where leaves are entered.
    pub leaf_dir: Capability,
    /// `/`-joined names of the chain from `root` to `leaf_dir`.
    pub dir_path: String,
    runners: Vec<ServiceRunner>,
}

impl Vfs {
    pub fn build(capacity_blocks: u32) -> Vfs {
        let net = Network::new();
        let near = ServiceRunner::spawn_open(&net, DirServer::new(SchemeKind::OneWay));
        let far = ServiceRunner::spawn_open(&net, DirServer::new(SchemeKind::Commutative));
        let disk = ServiceRunner::spawn_open(
            &net,
            BlockServer::new(
                DiskConfig {
                    block_size: BLOCK_SIZE,
                    capacity_blocks,
                },
                SchemeKind::OneWay,
            ),
        );
        let files = ServiceRunner::spawn_open(
            &net,
            BlockFlatFsServer::new(&net, disk.put_port(), SchemeKind::Commutative),
        );
        // Entries must outlive any window; staleness is not under test.
        let dirs = DirClient::with_service(open_client(&net), near.put_port())
            .with_cache(Duration::from_secs(3600));
        let root = dirs.create_dir_on(near.put_port()).expect("root");
        let mut current = root;
        let mut names = Vec::with_capacity(TREE_DEPTH);
        for level in 0..TREE_DEPTH {
            let port = if level < TREE_DEPTH / 2 {
                near.put_port()
            } else {
                far.put_port()
            };
            let next = dirs.create_dir_on(port).expect("directory");
            let name = format!("seg{level}");
            dirs.enter(&current, &name, &next).expect("enter directory");
            names.push(name);
            current = next;
        }
        Vfs {
            fs: FlatFsClient::with_service(open_client(&net), files.put_port()),
            dirs,
            root,
            leaf_dir: current,
            dir_path: names.join("/"),
            net,
            runners: vec![near, far, disk, files],
        }
    }

    /// Machine ids of the two clients an operation goes through.
    pub fn client_machines(&self) -> Vec<u32> {
        [self.dirs.service(), self.fs.service()]
            .map(|svc| svc.rpc().endpoint().id().as_u32())
            .to_vec()
    }

    /// A directory client without the capability cache, on a machine
    /// of its own: the layer timings and the oracle's read-backs go
    /// through it, so the stage table (which follows the generator's
    /// machines) does not count them.
    pub fn uncached_dirs(&self) -> DirClient {
        DirClient::with_service(open_client(&self.net), self.runners[0].put_port())
    }

    /// A second file client, for the same reasons.
    pub fn second_fs(&self) -> FlatFsClient {
        FlatFsClient::with_service(open_client(&self.net), self.fs.port())
    }

    /// A client of the rig's disk, for the per-layer block timings.
    pub fn disk_client(&self) -> BlockClient {
        BlockClient::with_service(open_client(&self.net), self.runners[2].put_port())
    }

    pub fn stop(self) {
        for runner in self.runners {
            runner.stop();
        }
    }
}

/// Tenants of the cluster workload, by popularity rank.
pub const TENANTS: usize = 16;
const REPLICAS: usize = 4;
const CLUSTER_SERVICE: &str = "files";

/// Tenant rank → home shard. Ranks 0–3 land on shards 0, 4, 8, 12,
/// which the initial `shard % replicas` map puts on one replica: the
/// skew live migration exists to relieve.
const RANK_TO_SHARD: [usize; TENANTS] = [0, 4, 8, 12, 1, 5, 9, 13, 2, 6, 10, 14, 3, 7, 11, 15];

fn shard_of(cap: &Capability) -> usize {
    placement_range(cap.object, DEFAULT_SHARDS, DEFAULT_SHARDS)
}

/// A 4-replica elastic cluster of metered flat file servers sharing one
/// bank, with one anchor file per tenant on the tenant's home shard.
/// Set-up live-migrates the hottest shard, checks that a client whose
/// shard map predates the move is still served (the old owner forwards),
/// republishes, and hands the window a client bootstrapped afterwards.
///
/// Forwarding is probed in set-up, not run through the window, because
/// of what it costs today: the forwarded reply teaches the client's
/// route cache that the *new* owner's machine answers the *old* port, so
/// the next request to that port is targeted at a machine that does not
/// serve it and sits out the 500 ms retransmission timeout. At Zipf(1.0)
/// the hot tenant is 30 % of picks; a window of such stalls measures the
/// timeout constant and nothing else. `forward_probe` records it.
pub struct Cluster {
    pub net: Network,
    pub client: ElasticClient,
    pub wallet: Capability,
    /// Tenant rank → anchor file; its content is the rank, 8 bytes LE.
    pub anchors: Vec<Capability>,
    pub migration: MigrationStats,
    pub migrate_time: Duration,
    /// Time of the first forwarded read and, when `probe_repeat` was
    /// asked for, of the one after it (zero otherwise).
    pub forward_probe: [Duration; 2],
    treasury: Treasury,
    cluster: ElasticCluster,
    directory: ServiceRunner,
}

impl Cluster {
    /// `probe_repeat` adds the second forwarded read (see the type
    /// docs); the traced pass asks for it, the timed pass does not pay
    /// its half second in `setup_s`.
    pub fn build(probe_repeat: bool) -> Cluster {
        let net = Network::new();
        let treasury = Treasury::open(&net, false);
        let cluster = ElasticCluster::spawn_open(&net, REPLICAS, 1, |_| {
            treasury.metered_flatfs(open_client(&net))
        });
        let directory = ServiceRunner::spawn_open(&net, DirServer::new(SchemeKind::OneWay));
        let dirs = || DirClient::with_service(open_client(&net), directory.put_port());
        let publisher = dirs();
        let dir = publisher.create_dir().expect("cluster directory");
        cluster
            .publish(&publisher, &dir, CLUSTER_SERVICE)
            .expect("publish shard map");
        let stale = ElasticClient::from_directory(&net, dirs(), &dir, CLUSTER_SERVICE)
            .expect("bootstrap shard map");

        // A replica's table round-robins creates over its own mintable
        // shards, so a few creates at the owner land one on the wanted
        // shard; the misses are destroyed (and refunded).
        let ports = cluster.shard_ports();
        let svc = stale.service();
        let anchors: Vec<Capability> = RANK_TO_SHARD
            .iter()
            .enumerate()
            .map(|(rank, &shard)| {
                for _ in 0..4 * DEFAULT_SHARDS {
                    let params = wire::Writer::new().cap(&treasury.wallet).u64(1).finish();
                    let body = svc
                        .call_anonymous(ports[shard], fs_ops::CREATE, params)
                        .expect("anchor create");
                    let cap = wire::Reader::new(&body).cap().expect("anchor capability");
                    if shard_of(&cap) == shard {
                        let content = (rank as u64).to_le_bytes();
                        let params = wire::Writer::new().u64(0).bytes(&content).finish();
                        svc.call_at(ports[shard], &cap, fs_ops::WRITE, params)
                            .expect("anchor write");
                        return cap;
                    }
                    svc.call_at(ports[shard], &cap, fs_ops::DESTROY, bytes::Bytes::new())
                        .expect("destroy stray anchor");
                }
                panic!("shard {shard} never minted an anchor");
            })
            .collect();

        let hot = RANK_TO_SHARD[0];
        let to = (cluster.owners()[hot] + 1) % REPLICAS;
        let mover = Client::with_config(net.attach_open(), patient());
        let t0 = Instant::now();
        let migration = cluster
            .migrate(&mover, hot, to)
            .expect("live migration of the hot shard");
        let migrate_time = t0.elapsed();

        let forwarded_read = || {
            let t0 = Instant::now();
            let content = stale
                .call(
                    &anchors[0],
                    fs_ops::READ,
                    wire::Writer::new().u64(0).u32(8).finish(),
                )
                .expect("read through the pre-migration map");
            assert_eq!(
                content[..],
                0u64.to_le_bytes(),
                "forwarded read returned another file"
            );
            t0.elapsed()
        };
        let first = forwarded_read();
        let repeat = if probe_repeat {
            forwarded_read()
        } else {
            Duration::ZERO
        };

        cluster
            .republish(&publisher, &dir, CLUSTER_SERVICE, hot)
            .expect("republish the moved shard");
        let client = ElasticClient::from_directory(&net, dirs(), &dir, CLUSTER_SERVICE)
            .expect("bootstrap the post-migration map");
        Cluster {
            client,
            wallet: treasury.wallet,
            anchors,
            migration,
            migrate_time,
            forward_probe: [first, repeat],
            net,
            treasury,
            cluster,
            directory,
        }
    }

    /// The port a tenant's requests go to, per the client's shard map.
    pub fn tenant_port(&self, rank: usize) -> Port {
        self.client.port_for(&self.anchors[rank])
    }

    pub fn balances(&self) -> (u64, u64) {
        self.treasury.balances()
    }

    pub fn stop(self) {
        self.cluster.stop();
        self.directory.stop();
        self.treasury.runner.stop();
    }
}

/// The simulated swarm's parties: polled echo shards and the driver
/// clients, on a seeded deterministic network.
pub struct Swarm {
    pub net: Network,
    pub pumps: Vec<Arc<SimPump>>,
    pub drivers: Vec<Client>,
}

impl Swarm {
    /// `driver_seeds` fixes each driver client's reply-port stream.
    pub fn build(
        sim_seed: u64,
        wire_latency: Duration,
        shards: usize,
        driver_seeds: &[u64],
    ) -> Swarm {
        let net = Network::new_sim(sim_seed);
        net.set_latency(wire_latency);
        let pumps = (0..shards)
            .map(|s| {
                let port = Port::new(0x5A12_0000 + s as u64).expect("shard port");
                Arc::new(SimPump::bind(net.attach_open(), port, EchoService))
            })
            .collect();
        let drivers = driver_seeds
            .iter()
            .map(|&seed| {
                Client::with_config(
                    net.attach_open(),
                    RpcConfig {
                        timeout: Duration::from_millis(250),
                        attempts: 4,
                    },
                )
                .with_rng_seed(seed)
            })
            .collect();
        Swarm {
            net,
            pumps,
            drivers,
        }
    }
}

/// A bound port answered with an empty reply by a bare loop — no
/// `Service`, no request decoding — so `rpc.trans_us` times the
/// transaction layer alone.
pub struct BareServer {
    pub client: Client,
    pub port: Port,
    stop: Arc<AtomicBool>,
    thread: std::thread::JoinHandle<()>,
}

impl BareServer {
    pub fn build() -> BareServer {
        let net = Network::new();
        let server = ServerPort::bind(
            net.attach_open(),
            Port::new(0xBA5E_0001).expect("bare port"),
        );
        let port = server.put_port();
        let stop = Arc::new(AtomicBool::new(false));
        let thread = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    if let Ok(req) = server.next_request_timeout(Duration::from_millis(20)) {
                        server.reply(&req, bytes::Bytes::new());
                    }
                }
            })
        };
        BareServer {
            client: Client::with_config(net.attach_open(), patient()),
            port,
            stop,
            thread,
        }
    }

    pub fn stop(self) {
        self.stop.store(true, Ordering::Relaxed);
        self.thread.join().expect("bare server thread");
    }
}

/// Two open endpoints on one zero-latency network, for timing raw
/// send/receive and the cross-thread hand-off.
pub fn endpoint_pair() -> (Network, Endpoint, Endpoint) {
    let net = Network::new();
    let a = net.attach_open();
    let b = net.attach_open();
    (net, a, b)
}

/// A memoizing hardware F-box, as every metered machine sits behind.
pub fn hardware_fbox() -> FBox<ShaOneWay> {
    FBox::hardware(ShaOneWay)
}
