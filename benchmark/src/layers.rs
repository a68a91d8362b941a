//! Per-layer micro-timings, taken from outside: single-threaded loops
//! over each layer's public functions, pinned to the first core (only
//! the two-core hand-off leaves it). Every figure is a median — of
//! batch means for nanosecond-scale calls, of single calls for
//! microsecond-scale ones.

use crate::place::{pin_current_thread, Cores};
use crate::{rig, stats};
use amoeba_cap::schemes::SchemeKind;
use amoeba_cap::{ObjectNum, Rights};
use amoeba_crypto::oneway::{OneWay, ShaOneWay};
use amoeba_net::{BufPool, Header, Port};
use amoeba_rpc::Frame;
use amoeba_server::ObjectTable;
use bytes::{Bytes, BytesMut};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Wall time one nanosecond-scale loop may take.
const NS_BUDGET: Duration = Duration::from_millis(40);
/// Wall time one microsecond-scale loop may take.
const US_BUDGET: Duration = Duration::from_millis(120);
const BATCHES: usize = 9;

/// Median over [`BATCHES`] batches of the mean nanoseconds per call.
fn ns_per_call(mut call: impl FnMut()) -> f64 {
    // Size a batch from a short calibration so the whole loop fits the
    // budget whatever the call costs.
    let calibrate = Instant::now();
    let mut calls = 0u64;
    while calibrate.elapsed() < NS_BUDGET / 10 {
        for _ in 0..64 {
            call();
        }
        calls += 64;
    }
    let per_batch = (calls * 10 / BATCHES as u64).max(64);
    let batches: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..per_batch {
                call();
            }
            t0.elapsed().as_nanos() as f64 / per_batch as f64
        })
        .collect();
    stats::median(&batches)
}

/// Median microseconds of `timed`, which returns the time of its own
/// measured section (so untimed preparation and clean-up can surround
/// it), over as many calls as fit the budget.
fn us_per_call(mut timed: impl FnMut() -> Duration) -> f64 {
    for _ in 0..16 {
        timed(); // caches, memo tables, route cache, pools
    }
    let until = Instant::now() + US_BUDGET;
    let mut samples = Vec::new();
    while Instant::now() < until {
        samples.push(timed().as_nanos() as u64);
    }
    samples.sort_unstable();
    stats::percentile(&samples, 500) as f64 / 1e3
}

fn timed<T>(call: impl FnOnce() -> T) -> Duration {
    let t0 = Instant::now();
    black_box(call());
    t0.elapsed()
}

/// Cross-thread ping-pong over two raw endpoints: the median one-way
/// hand-off (half a round trip), µs, with the echoing thread on
/// `peer_core` and the caller where it already is.
fn handoff_us(peer_core: usize, home_core: usize) -> f64 {
    let (_net, a, b) = rig::endpoint_pair();
    let ping = a.claim(Port::new(0x9191_0001).expect("port"));
    let pong = b.claim(Port::new(0x9191_0002).expect("port"));
    let payload = Bytes::from_static(&[0u8; 8]);
    let stop = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|scope| {
        pin_current_thread(&[peer_core]);
        let echo = scope.spawn(|| {
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                if let Ok(pkt) = b.recv_timeout(Duration::from_millis(20)) {
                    b.send(Header::to(ping), pkt.payload);
                }
            }
        });
        pin_current_thread(&[home_core]);
        let round_trip = us_per_call(|| {
            timed(|| {
                a.send(Header::to(pong), payload.clone());
                a.recv().expect("pong")
            })
        });
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        echo.join().expect("echo thread");
        round_trip / 2.0
    })
}

/// Runs every micro-loop and returns `(metric, value)` pairs.
pub fn measure(cores: &Cores) -> Vec<(&'static str, f64)> {
    pin_current_thread(&[cores.first]);
    let mut out: Vec<(&'static str, f64)> = Vec::new();
    let port = Port::new(0xBEC4).expect("port");
    let object = ObjectNum::new(1).expect("object number");
    let mut x = 0x1234_5678u64;

    // crypto, core, fbox: what a capability check costs.
    out.push((
        "crypto.sha_oneway_ns",
        ns_per_call(|| {
            x = ShaOneWay.apply48(black_box(x));
        }),
    ));
    let scheme = SchemeKind::OneWay.instantiate();
    let secret = amoeba_cap::schemes::ObjectSecret::from_value(0x0000_5EC2_E700_0001);
    let cap = scheme.mint(port, object, &secret);
    out.push((
        "core.mint_ns",
        ns_per_call(|| {
            black_box(scheme.mint(port, object, black_box(&secret)));
        }),
    ));
    out.push((
        "core.validate_ns",
        ns_per_call(|| {
            black_box(scheme.validate(black_box(&cap), &secret)).expect("valid");
        }),
    ));
    out.push((
        "core.restrict_ns",
        ns_per_call(|| {
            black_box(scheme.restrict(black_box(&cap), Rights::READ, &secret)).expect("subset");
        }),
    ));
    let commutative = SchemeKind::Commutative.instantiate();
    let commutative_cap = commutative.mint(port, object, &secret);
    out.push((
        "core.diminish_ns",
        ns_per_call(|| {
            black_box(commutative.diminish(black_box(&commutative_cap), Rights::WRITE))
                .expect("diminish");
        }),
    ));
    let fbox = rig::hardware_fbox();
    fbox.put_port(port);
    out.push((
        "fbox.put_port_hit_ns",
        ns_per_call(|| {
            black_box(fbox.put_port(black_box(port)));
        }),
    ));

    // net: one frame through the wire on one thread, the buffer pool,
    // and the cross-thread hand-off on one core and on two.
    {
        let (_net, a, b) = rig::endpoint_pair();
        let dest = b.claim(Port::new(0x9191_0003).expect("port"));
        let payload = Bytes::from_static(&[0u8; 8]);
        out.push((
            "net.send_recv_ns",
            ns_per_call(|| {
                a.send(Header::to(dest), payload.clone());
                black_box(b.try_recv()).expect("delivered");
            }),
        ));
    }
    let pool = BufPool::new();
    out.push((
        "net.pool_take_retire_ns",
        ns_per_call(|| {
            let mut buf = pool.take();
            buf.extend_from_slice(&[0u8; 32]);
            pool.retire(buf.freeze());
        }),
    ));
    out.push(("net.handoff_1c_us", handoff_us(cores.first, cores.first)));
    out.push(("net.handoff_2c_us", handoff_us(cores.second, cores.first)));

    // rpc: the frame codec and a transaction against a bare port loop.
    let body = Bytes::from_static(&[7u8; 28]);
    let mut buf = BytesMut::with_capacity(64);
    out.push((
        "rpc.frame_encode_ns",
        ns_per_call(|| {
            buf.clear();
            Frame::Request(body.clone()).encode_into(&mut buf);
            black_box(&buf);
        }),
    ));
    let encoded = Frame::Request(body.clone()).encode();
    out.push((
        "rpc.frame_decode_ns",
        ns_per_call(|| {
            black_box(Frame::decode(black_box(&encoded))).expect("decodes");
        }),
    ));
    let bare = rig::BareServer::build();
    let trans_us =
        us_per_call(|| timed(|| bare.client.trans(bare.port, body.clone()).expect("trans")));
    out.push(("rpc.trans_us", trans_us));
    bare.stop();

    // server: the object table, and what dispatch adds to a transaction.
    let table: ObjectTable<u64> = ObjectTable::with_port(SchemeKind::OneWay.instantiate(), port);
    let (_, table_cap) = table.create(0);
    out.push((
        "server.table_validate_ns",
        ns_per_call(|| {
            black_box(table.validate(black_box(&table_cap))).expect("valid");
        }),
    ));
    out.push((
        "server.table_create_delete_ns",
        ns_per_call(|| {
            let (_, cap) = table.create(0);
            table.delete(&cap, Rights::DELETE).expect("delete");
        }),
    ));
    let echo = rig::Echo::build();
    let call_us = us_per_call(|| {
        timed(|| {
            echo.client
                .call_anonymous(echo.port, rig::ECHO_COMMAND, Bytes::new())
                .expect("echo")
        })
    });
    out.push(("server.dispatch_self_us", call_us - trans_us));
    echo.stop();

    // bank and in-memory flatfs: the services under `metered_create`.
    let metered = rig::Metered::build();
    let mut refund = true;
    out.push((
        "bank.transfer_us",
        us_per_call(|| {
            refund = !refund;
            timed(|| metered.transfer(refund))
        }),
    ));
    metered.stop();
    let plain = rig::PlainFlatFs::build();
    out.push((
        "flatfs.create_destroy_us",
        us_per_call(|| {
            timed(|| {
                let cap = plain.fs.create().expect("create");
                plain.fs.destroy(&cap).expect("destroy");
            })
        }),
    ));
    plain.stop();

    // dirsvr, block-backed flatfs, block: the layers under the VFS pair.
    let vfs = rig::Vfs::build(1024);
    let file = vfs.fs.create().expect("file");
    vfs.fs.write(&file, 0, &[5u8; 4096]).expect("write");
    vfs.dirs.enter(&vfs.leaf_dir, "leaf", &file).expect("enter");
    out.push((
        "flatfs.read_4k_us",
        us_per_call(|| timed(|| vfs.fs.read(&file, 0, 4096).expect("read"))),
    ));
    let payload = vec![9u8; 64 * rig::BLOCK_SIZE as usize];
    out.push((
        "flatfs.write_64blk_us",
        us_per_call(|| {
            let cap = vfs.fs.create().expect("create");
            let took = timed(|| vfs.fs.write(&cap, 0, &payload).expect("write"));
            vfs.fs.destroy(&cap).expect("destroy");
            took
        }),
    ));
    let disk = vfs.disk_client();
    let (extent, _) = disk.alloc_n(8).expect("extent");
    out.push((
        "block.read_many_us",
        us_per_call(|| timed(|| disk.read_many(&[(extent, 0, 4096)]).expect("gather"))),
    ));
    out.push((
        "block.alloc_n_us",
        us_per_call(|| {
            let mut made = None;
            let took = timed(|| made = Some(disk.alloc_n(64).expect("alloc").0));
            disk.free(&made.expect("allocated")).expect("free");
            took
        }),
    ));
    let uncached = vfs.uncached_dirs();
    let deep = format!("{}/leaf", vfs.dir_path);
    out.push((
        "dirsvr.resolve_d8_us",
        us_per_call(|| timed(|| uncached.resolve(&vfs.root, &deep).expect("resolve"))),
    ));
    out.push((
        "dirsvr.lookup_us",
        us_per_call(|| timed(|| uncached.lookup(&vfs.leaf_dir, "leaf").expect("lookup"))),
    ));
    out.push((
        "dirsvr.enter_remove_us",
        us_per_call(|| {
            timed(|| {
                uncached.enter(&vfs.leaf_dir, "tmp", &file).expect("enter");
                uncached.remove(&vfs.leaf_dir, "tmp").expect("remove");
            })
        }),
    ));
    vfs.dirs.resolve(&vfs.root, &deep).expect("warm the cache");
    out.push((
        "dirsvr.cache_hit_ns",
        ns_per_call(|| {
            black_box(vfs.dirs.resolve(&vfs.root, black_box(&deep))).expect("hit");
        }),
    ));
    vfs.stop();

    // cluster: the client-side routing decision.
    let cluster = rig::Cluster::build(false);
    let anchor = cluster.anchors[0];
    out.push((
        "cluster.route_ns",
        ns_per_call(|| {
            black_box(cluster.client.port_for(black_box(&anchor)));
        }),
    ));
    cluster.stop();
    out
}
