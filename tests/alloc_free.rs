//! The zero-allocation gate on the **wall-clock** rigs — the shapes
//! `benchmark/` drives (`echo`, `metered_create`, `vfs_write`), which
//! the recorder gate in `tests/obs_hotpath.rs` does not cover:
//! separate pools per party, a worker that serves one port and calls
//! through an embedded client, parameter and reply blobs built by
//! `wire::Writer`. The metered leg is also the hot-path budget in
//! absolute terms — frames, queue pushes, `F` evaluations (the
//! F-boxes' and the object tables'), fresh buffers and hot locks per
//! operation, recorder enabled.
//!
//! This binary holds ONE test, so nothing else in the process touches
//! the process-wide counters it reads (`bytes::stats::buffer_allocs`
//! and the hot-mutex count, both via `Network::hot_path`, and
//! `crypto::oneway::stats::evals`) and the figures are exact.

use amoeba::bank::{BankClient, BankServer, Currency, CurrencyId};
use amoeba::block::{BlockServer, DiskConfig};
use amoeba::cap::schemes::SchemeKind;
use amoeba::cluster::{ClusterClient, ServiceCluster};
use amoeba::crypto::oneway;
use amoeba::flatfs::{BlockFlatFsServer, FlatFsClient, FlatFsServer, QuotaPolicy};
use amoeba::net::{HotPathSnapshot, Network};
use amoeba::server::proto::{Reply, Request};
use amoeba::server::{wire, RequestCtx, Service, ServiceClient, ServiceRunner};

const WARMUP: usize = 64;
const OPS: usize = 1_000;
/// Fresh buffers the whole measured run may add while the working set
/// settles: these threads are not pinned, and the first time a frame's
/// receiver (on the other core) still holds its slice when the sender
/// takes its next buffer, one more buffer joins the circulation — for
/// good. A per-op cost would read `OPS` or more (the parent: 2 000 on
/// echo, 16 000 on metered create).
const SETTLING: u64 = 4;

/// Runs `op` `WARMUP` times unmeasured, then `OPS` times, and returns
/// what the measured ones added to the process-wide counters: the hot
/// path's, and the one-way evaluations made anywhere in the process.
fn measure(net: &Network, mut op: impl FnMut()) -> (HotPathSnapshot, u64) {
    for _ in 0..WARMUP {
        op();
    }
    let before = (net.hot_path(), oneway::stats::evals());
    for _ in 0..OPS {
        op();
    }
    (net.hot_path() - before.0, oneway::stats::evals() - before.1)
}

struct Echo;

impl Service for Echo {
    fn handle(&self, req: &Request, _ctx: &RequestCtx) -> Reply {
        Reply::ok(req.params.clone())
    }
}

/// Metered create + destroy (§3.6) with every machine behind an F-box
/// and the flight recorder **enabled**: the file server's ONE worker
/// serves its port and calls the bank through an embedded client, so it
/// alternates between two pools on every request. Asserts the absolute
/// hot-path budget of an operation and returns the measured counters.
fn metered_leg() -> HotPathSnapshot {
    let net = Network::new();
    net.obs().enable();
    let dollar = CurrencyId(0);
    let (bank_server, treasury_rx) =
        BankServer::new(vec![Currency::convertible("dollar", 1)], SchemeKind::OneWay);
    let bank_runner = ServiceRunner::spawn_fbox(&net, bank_server);
    let treasury = treasury_rx.recv().expect("treasury capability");
    let auditor = BankClient::with_service(ServiceClient::fbox(&net), bank_runner.put_port());
    let server_account = auditor.open_account().expect("server account");
    let wallet = auditor.open_account().expect("wallet");
    auditor
        .mint(&treasury, &wallet, dollar, 1_000_000)
        .expect("mint");
    let fs_runner = ServiceRunner::spawn_fbox(
        &net,
        FlatFsServer::with_quota(
            SchemeKind::OneWay,
            QuotaPolicy {
                bank: BankClient::with_service(ServiceClient::fbox(&net), bank_runner.put_port()),
                server_account,
                currency: dollar,
                price_per_kib: 1,
            },
        ),
    );
    let fs = FlatFsClient::with_service(ServiceClient::fbox(&net), fs_runner.put_port());
    let (metered, evals) = measure(&net, || {
        let cap = fs.create_paid(&wallet, 1).expect("paid create");
        fs.destroy(&cap).expect("destroy");
    });
    assert_eq!(
        auditor.balance(&wallet, dollar).expect("balance"),
        1_000_000,
        "every paid create was refunded"
    );
    fs_runner.stop();
    bank_runner.stop();

    let ops = OPS as u64;
    assert_eq!(
        metered.frames_sent,
        8 * ops,
        "a metered create + destroy is 4 two-frame transactions: {metered:?}"
    );
    assert_eq!(
        metered.queue_pushes, metered.frames_sent,
        "one queue push per frame — nothing re-queued between receive and handler: {metered:?}"
    );
    assert!(
        metered.queue_wakes <= metered.queue_pushes,
        "at most one wake per push: {metered:?}"
    );
    assert_eq!(
        metered.oneway_evals, 0,
        "recycled reply ports and memoized F-boxes: a warm operation evaluates F nowhere: {metered:?}"
    );
    assert_eq!(
        evals, ops,
        "exactly 1 one-way evaluation per warm op, the file's mint (8 before object-table \
         entries remembered what they proved: 3 per bank TRANSFER twice, the mint, the delete)"
    );
    assert!(
        metered.buffer_allocs <= SETTLING && metered.lock_acquisitions == 0,
        "metered create+destroy: {OPS} ops must add no fresh buffer and no hot lock: {metered:?}"
    );
    metered
}

#[test]
fn wall_clock_rigs_run_without_fresh_buffers() {
    // Echo: one client, one single-worker server, a Writer-built
    // parameter blob per call.
    let net = Network::new();
    let runner = ServiceRunner::spawn_open(&net, Echo);
    let client = ServiceClient::open(&net);
    let mut seq = 0u64;
    let (echo, _) = measure(&net, || {
        seq += 1;
        let params = wire::Writer::new().u64(seq).finish();
        let body = client
            .call_anonymous(runner.put_port(), 0xEC40, params)
            .expect("echo");
        assert_eq!(body[..], seq.to_be_bytes());
    });
    runner.stop();
    assert!(
        echo.buffer_allocs <= SETTLING && echo.lock_acquisitions == 0,
        "echo: {OPS} calls must add no fresh buffer and no hot lock: {echo:?}"
    );

    // The same echo through a failover client on two replicas: every
    // attempt writes the parameter blob into its own frame, and the
    // blob goes back to the pool once, after the call.
    let net = Network::new();
    let cluster = ServiceCluster::spawn_open(&net, 2, 1, |_| Echo);
    let client = ClusterClient::broadcast(&net);
    let (replicated, _) = measure(&net, || {
        seq += 1;
        let params = wire::Writer::new().u64(seq).finish();
        let body = client
            .call_anonymous(cluster.put_port(), 0xEC40, params)
            .expect("replicated echo");
        assert_eq!(body[..], seq.to_be_bytes());
    });
    cluster.stop();
    assert!(
        replicated.buffer_allocs <= SETTLING && replicated.lock_acquisitions == 0,
        "replicated echo: {OPS} calls must add no fresh buffer and no hot lock: {replicated:?}"
    );

    // Metered create + destroy behind F-boxes.
    let metered = metered_leg();
    // A receiver that finds its queue empty waits on it — parked (and
    // then woken), spinning where that pays, or handed the core back
    // by a yield where sender and receiver share one: a warm
    // transaction may make no wake at all.
    assert!(
        metered.queue_parks + metered.queue_spin_hits + metered.queue_yield_hits > 0,
        "receivers wait on their queues: {metered:?}"
    );

    // Block-backed 32 KiB write + read + destroy: the data crosses two
    // hops each way; only the frames carry it.
    const BYTES: usize = 32 * 1024;
    let net = Network::new();
    let disk = ServiceRunner::spawn_open(
        &net,
        BlockServer::new(
            DiskConfig {
                block_size: 512,
                capacity_blocks: 4 * BYTES as u32 / 512,
            },
            SchemeKind::OneWay,
        ),
    );
    let files = ServiceRunner::spawn_open(
        &net,
        BlockFlatFsServer::new(&net, disk.put_port(), SchemeKind::Commutative),
    );
    let fs = FlatFsClient::open(&net, files.put_port());
    let payload: Vec<u8> = (0..BYTES).map(|i| (i * 31 % 251) as u8).collect();
    let (block_backed, _) = measure(&net, || {
        let cap = fs.create().expect("create");
        assert_eq!(fs.write(&cap, 0, &payload).expect("write"), BYTES as u64);
        assert_eq!(fs.read(&cap, 0, BYTES as u32).expect("read"), payload);
        fs.destroy(&cap).expect("destroy");
    });
    files.stop();
    disk.stop();
    assert_eq!(
        block_backed.frames_sent,
        12 * OPS as u64,
        "block-backed create + write + read + destroy is 6 transactions: the write's and the \
         read's each nest one disk round trip, and the destroy's extents ride the next \
         write's ALLOC_WRITE (14 frames when the destroy paid its own FREE): {block_backed:?}"
    );
    assert!(
        block_backed.buffer_allocs <= 3 * OPS as u64 && block_backed.lock_acquisitions == 0,
        "block-backed write+read+destroy: {} fresh buffers over {OPS} ops (> 3 per op), \
         or a hot lock: {block_backed:?}",
        block_backed.buffer_allocs
    );
    println!("metered create + destroy, {OPS} ops: {metered:?}");
    println!(
        "fresh buffers per op: echo {:.3}, replicated echo {:.3}, metered {:.3}, \
         block-backed {:.3} (locks/op {:.2})",
        echo.buffer_allocs as f64 / OPS as f64,
        replicated.buffer_allocs as f64 / OPS as f64,
        metered.buffer_allocs as f64 / OPS as f64,
        block_backed.buffer_allocs as f64 / OPS as f64,
        block_backed.lock_acquisitions as f64 / OPS as f64,
    );
}
