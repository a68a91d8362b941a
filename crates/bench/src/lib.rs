//! Shared scaffolding for the experiment benchmarks.
//!
//! Every bench target in `benches/` regenerates one experiment from
//! EXPERIMENTS.md; this crate holds the common setup so each target
//! reads as the experiment it implements.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use amoeba_cap::schemes::{ObjectSecret, ProtectionScheme, SchemeKind};
use amoeba_cap::{Capability, ObjectNum};
use amoeba_net::{Network, Port};
use criterion::Criterion;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

/// A deterministic RNG for benchmark setup.
pub fn bench_rng() -> StdRng {
    StdRng::seed_from_u64(0xBE_7C_4A_11)
}

/// A server port constant used when minting stand-alone capabilities.
pub fn bench_port() -> Port {
    Port::new(0xBEC4).expect("valid port")
}

/// Mints a (scheme, secret, capability) triple for scheme benchmarks.
pub fn minted(kind: SchemeKind) -> (Box<dyn ProtectionScheme>, ObjectSecret, Capability) {
    let scheme = kind.instantiate();
    let mut rng = bench_rng();
    let secret = scheme.new_secret(&mut rng);
    let cap = scheme.mint(bench_port(), ObjectNum::new(1).expect("small"), &secret);
    (scheme, secret, cap)
}

/// Criterion tuning for pure-CPU experiments.
pub fn cpu_group<'a>(
    c: &'a mut Criterion,
    name: &str,
) -> criterion::BenchmarkGroup<'a, criterion::measurement::WallTime> {
    let mut g = c.benchmark_group(name);
    g.warm_up_time(Duration::from_millis(300));
    g.measurement_time(Duration::from_secs(1));
    g
}

/// Criterion tuning for experiments that cross the simulated network
/// (fewer samples; each iteration blocks on real thread wake-ups).
pub fn net_group<'a>(
    c: &'a mut Criterion,
    name: &str,
) -> criterion::BenchmarkGroup<'a, criterion::measurement::WallTime> {
    let mut g = c.benchmark_group(name);
    g.warm_up_time(Duration::from_millis(300));
    g.measurement_time(Duration::from_secs(2));
    g.sample_size(20);
    g
}

/// A fresh zero-latency network.
pub fn quiet_network() -> Network {
    Network::new()
}

/// The hop latency the metered-create comparisons run at.
pub const METERED_HOP_LATENCY: Duration = Duration::from_millis(2);

/// One measured leg of the hot-path experiment: how much CPU-side cost
/// (buffer allocations, one-way-function evaluations, wire frames,
/// wall-clock) a batch of metered creates paid.
#[derive(Debug, Clone, Copy)]
pub struct HotPathMeasure {
    /// Operations measured (one op = one paid create + one destroy).
    pub ops: u64,
    /// Real wall-clock of the measured phase.
    pub elapsed: Duration,
    /// Fresh frame/body-buffer allocations by the parties' shared
    /// [`amoeba_net::BufPool`] during the measured phase.
    pub fresh_allocs: u64,
    /// Buffer takes (fresh + recycled) during the measured phase.
    pub pool_takes: u64,
    /// One-way-function (`F`) evaluations by the parties' F-boxes
    /// during the measured phase.
    pub oneway_evals: u64,
    /// Wire frames sent during the measured phase.
    pub frames: u64,
    /// Hot-mutex acquisitions recorded by the fleet's shared
    /// [`LockMeter`](amoeba_net::LockMeter) during the measured phase
    /// (pool spill queues, demux overflow, batch accumulators, lease
    /// broker — see `amoeba_net::hot_lock_acquisitions` for scope).
    pub hot_locks: u64,
    /// Messages pushed onto the network's queues (machine inboxes,
    /// ready queues, reply mailboxes) during the measured phase — the
    /// cross-thread hand-offs.
    pub queue_pushes: u64,
    /// Wake-ups those pushes issued to parked receivers.
    pub queue_wakes: u64,
    /// Parks (condition-variable waits) by receivers that found those
    /// queues empty.
    pub queue_parks: u64,
    /// Messages taken at the end of a spin instead: no park, no wake.
    pub queue_spin_hits: u64,
}

impl HotPathMeasure {
    /// Fresh buffer allocations per operation.
    pub fn allocs_per_op(&self) -> f64 {
        self.fresh_allocs as f64 / self.ops as f64
    }

    /// `F` evaluations per operation.
    pub fn oneway_per_op(&self) -> f64 {
        self.oneway_evals as f64 / self.ops as f64
    }

    /// Nanoseconds of real wall-clock per operation.
    pub fn ns_per_op(&self) -> f64 {
        self.elapsed.as_secs_f64() * 1e9 / self.ops as f64
    }

    /// Fleet-metered hot-mutex acquisitions per operation.
    pub fn locks_per_op(&self) -> f64 {
        self.hot_locks as f64 / self.ops as f64
    }

    /// Queue pushes (cross-thread hand-offs) per operation.
    pub fn pushes_per_op(&self) -> f64 {
        self.queue_pushes as f64 / self.ops as f64
    }

    /// Wake-ups issued to parked receivers per operation.
    pub fn wakes_per_op(&self) -> f64 {
        self.queue_wakes as f64 / self.ops as f64
    }

    /// Receiver parks per operation.
    pub fn parks_per_op(&self) -> f64 {
        self.queue_parks as f64 / self.ops as f64
    }

    /// Messages taken by a spinning receiver per operation.
    pub fn spin_hits_per_op(&self) -> f64 {
        self.queue_spin_hits as f64 / self.ops as f64
    }

    /// Operations per second of real wall-clock.
    pub fn ops_per_sec(&self) -> f64 {
        self.ops as f64 / self.elapsed.as_secs_f64()
    }
}

/// The steady-state §3.6 metered-create workload with **every machine
/// behind an F-box**, instrumented for per-operation hot-path cost.
///
/// All parties — bank server, file server (with its embedded bank
/// client), and the hammering client — share one
/// [`BufPool`](amoeba_net::BufPool) handle, so `fresh_allocs` is the
/// whole fleet's codec allocation count, race-free even when other
/// tests run in the same process. `legacy = true` runs the pre-PR
/// codec (no buffer pooling, fresh random reply ports, uncached
/// F-boxes); `legacy = false` runs the zero-copy fast path. The wire
/// bytes are identical either way, which is the point: the comparison
/// isolates codec cost.
///
/// `warmup` operations run before counters are snapshotted so pools
/// and memo tables reach steady state; `creates` operations are then
/// measured. Shared by the `hot_path` bench and the acceptance gates
/// in `tests/scale.rs`.
pub fn hot_path_round(
    net: &Network,
    legacy: bool,
    warmup: usize,
    creates: usize,
) -> HotPathMeasure {
    // One pool handle for the whole fleet (disabled = the baseline that
    // allocates on every take, but still counts).
    let codec = if legacy {
        amoeba_rpc::CodecConfig::legacy()
    } else {
        amoeba_rpc::CodecConfig::default()
    };
    let pool = codec.pool.clone();
    let fleet = HotPathFleet::build(net, codec, legacy);
    net.set_latency(METERED_HOP_LATENCY);
    for _ in 0..warmup {
        fleet.one_op();
    }

    let allocs0 = pool.fresh_allocs();
    let takes0 = pool.takes();
    let locks0 = pool.lock_acquisitions();
    let hot0 = net.hot_path();
    let t0 = std::time::Instant::now();
    for _ in 0..creates {
        fleet.one_op();
    }
    let elapsed = t0.elapsed();
    let hot = net.hot_path() - hot0;
    let measure = HotPathMeasure {
        ops: creates as u64,
        elapsed,
        fresh_allocs: pool.fresh_allocs() - allocs0,
        pool_takes: pool.takes() - takes0,
        oneway_evals: hot.oneway_evals,
        frames: hot.frames_sent,
        hot_locks: pool.lock_acquisitions() - locks0,
        queue_pushes: hot.queue_pushes,
        queue_wakes: hot.queue_wakes,
        queue_parks: hot.queue_parks,
        queue_spin_hits: hot.queue_spin_hits,
    };

    net.set_latency(Duration::ZERO);
    fleet.stop();
    measure
}

/// The full metered-create party set of [`hot_path_round`] — bank,
/// quota'd file server, hammering client — as a reusable fleet, so the
/// contended leg can stand up one fleet per core against a shared
/// [`BufPool`](amoeba_net::BufPool).
pub struct HotPathFleet {
    fs: amoeba_flatfs::FlatFsClient,
    wallet: amoeba_cap::Capability,
    runner: amoeba_server::ServiceRunner,
    bank_runner: amoeba_server::ServiceRunner,
}

impl std::fmt::Debug for HotPathFleet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HotPathFleet").finish_non_exhaustive()
    }
}

impl HotPathFleet {
    /// Stands the fleet up on `net` with every party sharing `codec`'s
    /// pool. `legacy` selects uncached F-boxes (the pre-PR baseline);
    /// otherwise the parties run behind memoized hardware F-boxes.
    pub fn build(net: &Network, codec: amoeba_rpc::CodecConfig, legacy: bool) -> HotPathFleet {
        use amoeba_bank::{BankClient, BankServer, Currency, CurrencyId};
        use amoeba_cap::schemes::SchemeKind as Kind;
        use amoeba_crypto::oneway::ShaOneWay;
        use amoeba_fbox::FBox;
        use amoeba_flatfs::{FlatFsClient, FlatFsServer, QuotaPolicy};
        use amoeba_net::Endpoint;
        use amoeba_rpc::Client;
        use amoeba_server::{ServiceClient, ServiceRunner};
        use std::sync::Arc;

        let patient = amoeba_rpc::RpcConfig {
            timeout: Duration::from_secs(30),
            attempts: 2,
        };
        let attach_fbox = |net: &Network| -> Endpoint {
            if legacy {
                net.attach(Arc::new(FBox::uncached(ShaOneWay)))
            } else {
                net.attach(Arc::new(FBox::hardware(ShaOneWay)))
            }
        };
        let mut rng = bench_rng();

        let (bank_server, treasury_rx) =
            BankServer::new(vec![Currency::convertible("dollar", 1)], Kind::OneWay);
        let bank_runner = ServiceRunner::spawn_workers_with_codec(
            attach_fbox(net),
            Port::random(&mut rng),
            bank_server,
            1,
            codec.clone(),
        );
        let bank_port = bank_runner.put_port();
        let treasury = treasury_rx.recv().expect("treasury cap");
        let svc_client = |net: &Network| {
            ServiceClient::with_client(
                Client::with_config(attach_fbox(net), patient).with_codec(codec.clone()),
            )
        };
        let bank = BankClient::with_service(svc_client(net), bank_port);
        let server_account = bank.open_account().expect("server account");
        let wallet = bank.open_account().expect("wallet");
        bank.mint(&treasury, &wallet, CurrencyId(0), 1_000_000)
            .expect("mint");

        let runner = ServiceRunner::spawn_workers_with_codec(
            attach_fbox(net),
            Port::random(&mut rng),
            FlatFsServer::with_quota(
                Kind::OneWay,
                QuotaPolicy {
                    bank: BankClient::with_service(svc_client(net), bank_port),
                    server_account,
                    currency: CurrencyId(0),
                    price_per_kib: 1,
                },
            ),
            2,
            codec.clone(),
        );
        let fs = FlatFsClient::with_service(svc_client(net), runner.put_port());
        HotPathFleet {
            fs,
            wallet,
            runner,
            bank_runner,
        }
    }

    /// One operation: a paid create and its destroy.
    pub fn one_op(&self) {
        let cap = self
            .fs
            .create_paid(&self.wallet, 1)
            .expect("metered create");
        self.fs.destroy(&cap).expect("destroy");
    }

    /// Stops both runners.
    pub fn stop(self) {
        self.runner.stop();
        self.bank_runner.stop();
    }
}

/// The contended leg: `threads` independent metered-create fleets, each
/// on its own virtual network, all sharing **one**
/// [`BufPool`](amoeba_net::BufPool) — the shared structure whose lock
/// behaviour is under test. Threads warm up, rendezvous on a barrier,
/// then hammer concurrently; the returned measure aggregates every
/// fleet's ops over the contended wall-clock window, with `hot_locks`
/// diffed from the shared pool's fleet meter.
///
/// With the lock-free demux and thread-local pool caches the fleets
/// share no hot lock, so throughput should scale with cores (the CI
/// gate wants ≥1.5× from one thread to two on a 2-core runner).
pub fn contended_hot_path(threads: usize, warmup: usize, creates: usize) -> HotPathMeasure {
    use std::sync::{Arc, Barrier};

    let codec = amoeba_rpc::CodecConfig::default();
    let pool = codec.pool.clone();
    // Three rendezvous: fleets warm → counters snapshotted, go → done.
    let barrier = Arc::new(Barrier::new(threads + 1));
    let handles: Vec<_> = (0..threads)
        .map(|_| {
            let codec = codec.clone();
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let net = Network::new_virtual();
                let fleet = HotPathFleet::build(&net, codec, false);
                net.set_latency(METERED_HOP_LATENCY);
                for _ in 0..warmup {
                    fleet.one_op();
                }
                barrier.wait();
                barrier.wait();
                let hot0 = net.hot_path();
                for _ in 0..creates {
                    fleet.one_op();
                }
                let hot = net.hot_path() - hot0;
                barrier.wait();
                net.set_latency(Duration::ZERO);
                fleet.stop();
                hot
            })
        })
        .collect();

    barrier.wait();
    let allocs0 = pool.fresh_allocs();
    let takes0 = pool.takes();
    let locks0 = pool.lock_acquisitions();
    let t0 = std::time::Instant::now();
    barrier.wait();
    barrier.wait();
    let elapsed = t0.elapsed();
    let fresh_allocs = pool.fresh_allocs() - allocs0;
    let pool_takes = pool.takes() - takes0;
    let hot_locks = pool.lock_acquisitions() - locks0;
    let mut oneway_evals = 0;
    let mut frames = 0;
    let mut queue_pushes = 0;
    let mut queue_wakes = 0;
    let mut queue_parks = 0;
    let mut queue_spin_hits = 0;
    for handle in handles {
        let hot = handle.join().expect("contended fleet thread");
        oneway_evals += hot.oneway_evals;
        frames += hot.frames_sent;
        queue_pushes += hot.queue_pushes;
        queue_wakes += hot.queue_wakes;
        queue_parks += hot.queue_parks;
        queue_spin_hits += hot.queue_spin_hits;
    }
    HotPathMeasure {
        ops: (threads * creates) as u64,
        elapsed,
        fresh_allocs,
        pool_takes,
        oneway_evals,
        frames,
        hot_locks,
        queue_pushes,
        queue_wakes,
        queue_parks,
        queue_spin_hits,
    }
}

/// One §3.6 metered-create round — every CREATE pays through a nested
/// bank transaction — at [`METERED_HOP_LATENCY`] per hop, on whichever
/// clock `net` carries. Returns the **real wall-clock** the round
/// took; under `Network::new_virtual()` the hops are timeline jumps,
/// under `Network::new()` they are slept out. Shared by the
/// `reactor_transport` bench and the `tests/scale.rs` ≥10× acceptance
/// gate so both measure the identical workload.
pub fn metered_create_round(net: &Network, creates: usize) -> Duration {
    use amoeba_bank::{BankClient, Currency, CurrencyId};
    use amoeba_cap::schemes::SchemeKind as Kind;
    use amoeba_flatfs::{FlatFsClient, FlatFsServer, QuotaPolicy};
    use amoeba_server::{ServiceClient, ServiceRunner};

    let patient = amoeba_rpc::RpcConfig {
        timeout: Duration::from_secs(30),
        attempts: 2,
    };
    let (bank_server, treasury_rx) =
        amoeba_bank::BankServer::new(vec![Currency::convertible("dollar", 1)], Kind::OneWay);
    let bank_runner = ServiceRunner::spawn_open(net, bank_server);
    let treasury = treasury_rx.recv().expect("treasury cap");
    let bank = BankClient::open(net, bank_runner.put_port());
    let server_account = bank.open_account().expect("server account");
    let wallet = bank.open_account().expect("wallet");
    bank.mint(&treasury, &wallet, CurrencyId(0), 100_000)
        .expect("mint");
    let runner = ServiceRunner::spawn_open_workers(
        net,
        FlatFsServer::with_quota(
            Kind::OneWay,
            QuotaPolicy {
                bank: BankClient::with_service(
                    ServiceClient::open_with_config(net, patient),
                    bank_runner.put_port(),
                ),
                server_account,
                currency: CurrencyId(0),
                price_per_kib: 1,
            },
        ),
        2,
    );
    let fs = FlatFsClient::with_service(
        ServiceClient::open_with_config(net, patient),
        runner.put_port(),
    );
    net.set_latency(METERED_HOP_LATENCY);
    let t0 = std::time::Instant::now();
    for _ in 0..creates {
        let cap = fs.create_paid(&wallet, 1).expect("metered create");
        fs.destroy(&cap).expect("destroy");
    }
    let elapsed = t0.elapsed();
    net.set_latency(Duration::ZERO);
    runner.stop();
    bank_runner.stop();
    elapsed
}
