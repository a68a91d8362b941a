//! Hot path: what the zero-copy codec buys, per operation.
//!
//! The paper's premise is that sparse-capability checking is cheap
//! enough to run on every message — the F-box is imagined as hardware
//! precisely because `F` sits on the per-packet path. With transport
//! latency virtualised (PR 4), per-message CPU and allocator traffic
//! are the dominant *real* cost of the metered-create hammer, so this
//! bench meters exactly those: for the steady-state workload it
//! reports **ns/op**, **buffer allocs/op**, **one-way-function
//! evals/op**, **locks/op** and the cross-thread hand-offs behind the
//! lock count — **queue pushes/op**, **wakes/op**, receiver
//! **parks/op** and **spin hits/op** — for these shapes (the single
//! shape is gated at 2 pushes per transaction in `tests/scale.rs`; the
//! batched shape fans entries out through the ready queue, and its
//! figures are recorded here, not gated; every leg runs on a virtual
//! clock, whose endpoints are polled from the reactor and so neither
//! parked on nor spun on — wakes, parks and spin hits read 0 except
//! for the batched leg's pipelined callers, which block on a result
//! queue; `tests/handoff.rs` prints the wall-clock figures):
//!
//! * **single** — the §3.6 metered create (nested bank payment), every
//!   machine behind an F-box, one frame per request;
//! * **batched** — the same creates shipped 16 to a `BATCH_REQUEST`
//!   frame, server-side fan-out, embedded bank client pipelined;
//! * **cluster** — the creates spread over a 3-replica sharded
//!   placement group (open interfaces; the leg isolates pooling, not
//!   crypto);
//! * **contended** — independent fleets sharing one `BufPool`, at one
//!   thread and at two: per-op hot-lock acquisitions and the 1→2-core
//!   throughput scaling (the lock-free demux and thread-local pool
//!   caches should leave nothing for a second core to wait on).
//!
//! Each shape runs twice: once with [`CodecConfig::legacy`] (fresh
//! allocation per frame, fresh random reply port per transaction,
//! uncached F-boxes — the pre-PR codec) and once with the default
//! zero-copy fast path (pooled buffers, recycled reply ports, memoized
//! F). The wire bytes are identical in both modes; only the CPU-side
//! cost differs. `tests/scale.rs` gates the single-shape ratios at
//! ≥5× (allocs/op) and ≥10× (oneway/op).
//!
//! Besides stdout, the headline numbers go to `BENCH_hotpath.json`
//! (override with `BENCH_HOTPATH_OUT`) so CI can archive the perf
//! trajectory and fail on allocation regressions.

use amoeba_bank::{BankClient, BankServer, Currency, CurrencyId};
use amoeba_bench::{contended_hot_path, hot_path_round, HotPathMeasure, METERED_HOP_LATENCY};
use amoeba_cap::schemes::SchemeKind;
use amoeba_cap::Capability;
use amoeba_cluster::{ShardedClient, ShardedCluster};
use amoeba_flatfs::{ops, FlatFsServer, QuotaPolicy};
use amoeba_net::Network;
use amoeba_rpc::{Client, CodecConfig, DemuxPolicy, PipelineConfig, RpcConfig};
use amoeba_server::proto::null_cap;
use amoeba_server::{wire, ServiceClient, ServiceRunner};
use criterion::{criterion_group, criterion_main, Criterion};
use std::time::Duration;

const WARMUP_OPS: usize = 8;
const MEASURED_OPS: usize = 32;
const BATCH: usize = 16;
const CLUSTER_REPLICAS: usize = 3;

fn patient() -> RpcConfig {
    RpcConfig {
        timeout: Duration::from_secs(60),
        attempts: 2,
    }
}

fn codec_for(legacy: bool) -> CodecConfig {
    if legacy {
        CodecConfig::legacy()
    } else {
        CodecConfig::default()
    }
}

/// The batched shape: metered creates shipped [`BATCH`] to a frame
/// (then batch-destroyed), embedded bank pipelined, every pool shared
/// so allocation counts cover the whole fleet.
fn batched_leg(legacy: bool) -> HotPathMeasure {
    let net = Network::new_virtual();
    let codec = codec_for(legacy);
    let pool = codec.pool.clone();

    let (bank_server, treasury_rx) =
        BankServer::new(vec![Currency::convertible("dollar", 1)], SchemeKind::OneWay);
    // The bank serves metered traffic during measurement, so it must
    // ride the leg's codec too — a default-codec bank would quietly
    // run pooled inside the "legacy" leg.
    let bank_runner = ServiceRunner::spawn_workers_with_codec(
        net.attach_open(),
        amoeba_net::Port::new(0xBA2C).expect("port"),
        bank_server,
        1,
        codec.clone(),
    );
    let bank_port = bank_runner.put_port();
    let treasury = treasury_rx.recv().expect("treasury");
    let bank = BankClient::with_service(
        ServiceClient::with_client(
            Client::with_config(net.attach_open(), patient()).with_codec(codec.clone()),
        ),
        bank_port,
    );
    let server_account = bank.open_account().expect("server account");
    let wallet = bank.open_account().expect("wallet");
    bank.mint(&treasury, &wallet, CurrencyId(0), 1_000_000)
        .expect("mint");

    // The embedded bank client pipelines so the pool workers' payment
    // transfers coalesce (the PR 2 shape), on the shared codec.
    let quota_bank = BankClient::with_service(
        ServiceClient::with_client(
            Client::with_config(net.attach_open(), patient())
                .with_demux_policy(DemuxPolicy {
                    contended_tick: Duration::from_micros(250),
                    idle_tick: DemuxPolicy::DEFAULT_IDLE_TICK,
                })
                .with_pipeline(PipelineConfig {
                    flush_window: Duration::from_millis(10),
                    max_entries: BATCH,
                })
                .with_codec(codec.clone()),
        ),
        bank_port,
    );
    let runner = ServiceRunner::spawn_workers_with_codec(
        net.attach_open(),
        amoeba_net::Port::new(0xB47C).expect("port"),
        FlatFsServer::with_quota(
            SchemeKind::OneWay,
            QuotaPolicy {
                bank: quota_bank,
                server_account,
                currency: CurrencyId(0),
                price_per_kib: 1,
            },
        ),
        BATCH,
        codec.clone(),
    );
    let port = runner.put_port();
    let svc = ServiceClient::with_client(
        Client::with_config(net.attach_open(), patient()).with_codec(codec.clone()),
    );
    net.set_latency(METERED_HOP_LATENCY);

    let one_round = |svc: &ServiceClient| {
        let create = wire::Writer::new().cap(&wallet).u64(1).finish();
        let creates = (0..BATCH)
            .map(|_| (null_cap(), ops::CREATE, create.clone()))
            .collect();
        let caps: Vec<Capability> = svc
            .call_batch(port, creates)
            .expect("batched create")
            .into_iter()
            .map(|r| wire::Reader::new(&r.expect("entry")).cap().expect("cap"))
            .collect();
        let destroys = caps
            .iter()
            .map(|cap| (*cap, ops::DESTROY, bytes::Bytes::new()))
            .collect();
        for r in svc.call_batch(port, destroys).expect("batched destroy") {
            r.expect("destroy entry");
        }
    };

    let warm_rounds = WARMUP_OPS.div_ceil(BATCH).max(1);
    let rounds = MEASURED_OPS.div_ceil(BATCH).max(1);
    for _ in 0..warm_rounds {
        one_round(&svc);
    }
    let allocs0 = pool.fresh_allocs();
    let takes0 = pool.takes();
    let locks0 = pool.lock_acquisitions();
    let hot0 = net.hot_path();
    let t0 = std::time::Instant::now();
    for _ in 0..rounds {
        one_round(&svc);
    }
    let elapsed = t0.elapsed();
    let hot = net.hot_path() - hot0;
    let measure = HotPathMeasure {
        ops: (rounds * BATCH) as u64,
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
    runner.stop();
    bank_runner.stop();
    measure
}

/// The cluster shape: creates spread over a 3-replica sharded group,
/// every replica metering through one shared bank. Open interfaces —
/// the leg isolates what pooling buys under placement routing.
fn cluster_leg(legacy: bool) -> HotPathMeasure {
    let net = Network::new_virtual();
    let codec = codec_for(legacy);
    let pool = codec.pool.clone();

    let (bank_server, treasury_rx) =
        BankServer::new(vec![Currency::convertible("dollar", 1)], SchemeKind::OneWay);
    // On the leg's codec, like every other party (see batched_leg).
    let bank_runner = ServiceRunner::spawn_workers_with_codec(
        net.attach_open(),
        amoeba_net::Port::new(0xBA2C).expect("port"),
        bank_server,
        1,
        codec.clone(),
    );
    let bank_port = bank_runner.put_port();
    let treasury = treasury_rx.recv().expect("treasury");
    let bank = BankClient::with_service(
        ServiceClient::with_client(
            Client::with_config(net.attach_open(), patient()).with_codec(codec.clone()),
        ),
        bank_port,
    );
    let server_account = bank.open_account().expect("server account");
    let wallet = bank.open_account().expect("wallet");
    bank.mint(&treasury, &wallet, CurrencyId(0), 1_000_000)
        .expect("mint");

    let cluster =
        ShardedCluster::spawn_open_with_codec(&net, CLUSTER_REPLICAS, 2, codec.clone(), |_| {
            FlatFsServer::with_quota(
                SchemeKind::OneWay,
                QuotaPolicy {
                    bank: BankClient::with_service(
                        ServiceClient::with_client(
                            Client::with_config(net.attach_open(), patient())
                                .with_codec(codec.clone()),
                        ),
                        bank_port,
                    ),
                    server_account,
                    currency: CurrencyId(0),
                    price_per_kib: 1,
                },
            )
        });
    let client = ShardedClient::new(
        ServiceClient::with_client(
            Client::with_config(net.attach_open(), patient()).with_codec(codec.clone()),
        ),
        cluster.range_ports().to_vec(),
    );
    net.set_latency(METERED_HOP_LATENCY);

    let one_op = |client: &ShardedClient| {
        let params = wire::Writer::new().cap(&wallet).u64(1).finish();
        let body = client
            .call_create(ops::CREATE, params)
            .expect("sharded create");
        let cap = wire::Reader::new(&body).cap().expect("cap");
        client
            .call(&cap, ops::DESTROY, bytes::Bytes::new())
            .expect("sharded destroy");
    };
    for _ in 0..WARMUP_OPS {
        one_op(&client);
    }
    let allocs0 = pool.fresh_allocs();
    let takes0 = pool.takes();
    let locks0 = pool.lock_acquisitions();
    let hot0 = net.hot_path();
    let t0 = std::time::Instant::now();
    for _ in 0..MEASURED_OPS {
        one_op(&client);
    }
    let elapsed = t0.elapsed();
    let hot = net.hot_path() - hot0;
    let measure = HotPathMeasure {
        ops: MEASURED_OPS as u64,
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
    cluster.stop();
    bank_runner.stop();
    measure
}

/// Reduction factor `legacy/fast` with a floor of 1 on the denominator
/// (a perfect fast path measures zero).
fn reduction(legacy: u64, fast: u64) -> f64 {
    legacy as f64 / fast.max(1) as f64
}

fn leg_json(name: &str, legacy: &HotPathMeasure, fast: &HotPathMeasure) -> String {
    format!(
        "  \"{name}\": {{\n    \"ops\": {},\n    \"ns_per_op\": {:.0},\n    \
         \"allocs_per_op\": {:.3},\n    \"oneway_per_op\": {:.3},\n    \
         \"locks_per_op\": {:.3},\n    \
         \"pushes_per_op\": {:.3},\n    \"wakes_per_op\": {:.3},\n    \
         \"parks_per_op\": {:.3},\n    \"spin_hits_per_op\": {:.3},\n    \
         \"frames_per_op\": {:.3},\n    \"legacy_ns_per_op\": {:.0},\n    \
         \"legacy_allocs_per_op\": {:.3},\n    \"legacy_oneway_per_op\": {:.3},\n    \
         \"alloc_reduction\": {:.1},\n    \"oneway_reduction\": {:.1}\n  }}",
        fast.ops,
        fast.ns_per_op(),
        fast.allocs_per_op(),
        fast.oneway_per_op(),
        fast.locks_per_op(),
        fast.pushes_per_op(),
        fast.wakes_per_op(),
        fast.parks_per_op(),
        fast.spin_hits_per_op(),
        fast.frames as f64 / fast.ops as f64,
        legacy.ns_per_op(),
        legacy.allocs_per_op(),
        legacy.oneway_per_op(),
        reduction(legacy.fresh_allocs, fast.fresh_allocs),
        reduction(legacy.oneway_evals, fast.oneway_evals),
    )
}

/// The contended-leg JSON block: absolute throughput at one and two
/// fleets, their ratio (the 1→2-core scaling CI gates at ≥1.5× on a
/// 2-core runner), and locks/op under contention.
fn contended_json(one: &HotPathMeasure, two: &HotPathMeasure) -> String {
    format!(
        "  \"contended\": {{\n    \"threads_1_ops_per_sec\": {:.1},\n    \
         \"threads_2_ops_per_sec\": {:.1},\n    \"scaling\": {:.3},\n    \
         \"locks_per_op\": {:.3},\n    \"allocs_per_op\": {:.3},\n    \
         \"parks_per_op\": {:.3},\n    \"spin_hits_per_op\": {:.3}\n  }}",
        one.ops_per_sec(),
        two.ops_per_sec(),
        two.ops_per_sec() / one.ops_per_sec(),
        two.locks_per_op(),
        two.allocs_per_op(),
        two.parks_per_op(),
        two.spin_hits_per_op(),
    )
}

fn print_leg(name: &str, legacy: &HotPathMeasure, fast: &HotPathMeasure) {
    println!(
        "hot-path/{name}: fast {:.0} ns/op, {:.2} allocs/op, {:.2} oneway/op, \
         {:.2} locks/op, {:.2} pushes/op, {:.2} wakes/op (legacy {:.0} ns/op, \
         {:.2} allocs/op, {:.2} oneway/op — {:.0}x / {:.0}x fewer)",
        fast.ns_per_op(),
        fast.allocs_per_op(),
        fast.oneway_per_op(),
        fast.locks_per_op(),
        fast.pushes_per_op(),
        fast.wakes_per_op(),
        legacy.ns_per_op(),
        legacy.allocs_per_op(),
        legacy.oneway_per_op(),
        reduction(legacy.fresh_allocs, fast.fresh_allocs),
        reduction(legacy.oneway_evals, fast.oneway_evals),
    );
}

fn report_headline_numbers() {
    let single_legacy = hot_path_round(&Network::new_virtual(), true, WARMUP_OPS, MEASURED_OPS);
    let single_fast = hot_path_round(&Network::new_virtual(), false, WARMUP_OPS, MEASURED_OPS);
    print_leg("single", &single_legacy, &single_fast);
    let batched_legacy = batched_leg(true);
    let batched_fast = batched_leg(false);
    print_leg("batched", &batched_legacy, &batched_fast);
    let cluster_legacy = cluster_leg(true);
    let cluster_fast = cluster_leg(false);
    print_leg("cluster", &cluster_legacy, &cluster_fast);

    // The contended leg: identical independent fleets against one
    // shared BufPool, at one thread and at two. On a machine with ≥2
    // cores the second fleet should run on its own core, so the ratio
    // measures how much shared-structure locking steals.
    let contended_1 = contended_hot_path(1, WARMUP_OPS, MEASURED_OPS);
    let contended_2 = contended_hot_path(2, WARMUP_OPS, MEASURED_OPS);
    println!(
        "hot-path/contended: 1 fleet {:.0} ops/s, 2 fleets {:.0} ops/s \
         (scaling {:.2}x, {:.2} locks/op contended)",
        contended_1.ops_per_sec(),
        contended_2.ops_per_sec(),
        contended_2.ops_per_sec() / contended_1.ops_per_sec(),
        contended_2.locks_per_op(),
    );

    let json = format!(
        "{{\n  \"workload\": \"metered-create hot path\",\n  \
         \"hop_latency_ms\": {},\n{},\n{},\n{},\n{}\n}}\n",
        METERED_HOP_LATENCY.as_millis(),
        leg_json("single", &single_legacy, &single_fast),
        leg_json("batched", &batched_legacy, &batched_fast),
        leg_json("cluster", &cluster_legacy, &cluster_fast),
        contended_json(&contended_1, &contended_2),
    );
    let out = std::env::var("BENCH_HOTPATH_OUT").unwrap_or_else(|_| "BENCH_hotpath.json".into());
    match std::fs::write(&out, &json) {
        Ok(()) => println!("hot-path: wrote {out}"),
        Err(e) => println!("hot-path: could not write {out}: {e}"),
    }
}

fn bench_rounds(c: &mut Criterion) {
    let mut g = amoeba_bench::net_group(c, "hot-path");
    g.sample_size(10);
    g.bench_function("metered-create/fast", |b| {
        b.iter(|| hot_path_round(&Network::new_virtual(), false, 0, MEASURED_OPS))
    });
    g.finish();
}

fn bench_hot_path(c: &mut Criterion) {
    bench_rounds(c);
    report_headline_numbers();
}

criterion_group!(benches, bench_hot_path);
criterion_main!(benches);
