//! Capability-VFS fast-path gates: batched path resolution, extent
//! block allocation, and the client-side capability cache.
//!
//! The acceptance bars this binary pins:
//!
//! * a depth-8 path resolves in **≥4× fewer frames** than the
//!   per-segment walk (one frame per hop-chain, not per component);
//! * a 64-block file write costs the flat file server **one disk
//!   round-trip** (`ALLOC_WRITE`: the extent is allocated by the frame
//!   that fills it) — four frames total including the client's own
//!   call, and as many when a write grows a file it also overwrites;
//! * `resolve` agrees with the sequential `walk` oracle over random
//!   trees, including cross-server links, down to the failing segment
//!   index;
//! * a cached entry never outlives an external rename beyond the TTL;
//! * under the deterministic simulation executor, resolution hammered
//!   mid-rename only ever observes the two legal outcomes.

mod sim_support;

use amoeba::dirsvr::{ops as dir_ops, DirClient, DirServer};
use amoeba::prelude::*;
use amoeba::rpc::Client;
use amoeba::server::proto::{null_cap, Reply, Request};
use amoeba::server::wire;
use bytes::{Bytes, BytesMut};
use proptest::prelude::*;
use std::cell::Cell;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Duration;

fn frames(net: &Network) -> u64 {
    net.stats().snapshot().packets_sent
}

/// Builds a depth-8 chain straddling two directory servers: the first
/// four components live on server 1, the rest on server 2.
fn cross_server_chain(
    net: &Network,
) -> (
    ServiceRunner,
    ServiceRunner,
    DirClient,
    Capability,
    Capability,
) {
    let s1 = ServiceRunner::spawn_open(net, DirServer::new(SchemeKind::OneWay));
    let s2 = ServiceRunner::spawn_open(net, DirServer::new(SchemeKind::Commutative));
    let dirs = DirClient::open(net, s1.put_port());
    let root = dirs.create_dir_on(s1.put_port()).unwrap();
    let mut current = root;
    let mut leaf = root;
    for i in 0..8 {
        let port = if i < 4 { s1.put_port() } else { s2.put_port() };
        let next = dirs.create_dir_on(port).unwrap();
        dirs.enter(&current, &format!("seg{i}"), &next).unwrap();
        current = next;
        leaf = next;
    }
    (s1, s2, dirs, root, leaf)
}

const DEEP_PATH: &str = "seg0/seg1/seg2/seg3/seg4/seg5/seg6/seg7";

#[test]
fn deep_tree_resolve_is_at_least_4x_fewer_frames() {
    let net = Network::new();
    let (s1, s2, dirs, root, leaf) = cross_server_chain(&net);

    let before = frames(&net);
    let walked = dirs.walk(&root, DEEP_PATH).unwrap();
    let walk_frames = frames(&net) - before;

    let before = frames(&net);
    let resolved = dirs.resolve(&root, DEEP_PATH).unwrap();
    let resolve_frames = frames(&net) - before;

    assert_eq!(walked, leaf);
    assert_eq!(resolved, leaf);
    // Eight per-segment round-trips vs one per hop-chain (the chain
    // crosses servers once, so exactly two round-trips).
    assert_eq!(walk_frames, 16);
    assert_eq!(resolve_frames, 4);
    assert!(
        walk_frames >= 4 * resolve_frames,
        "resolution gate: walk {walk_frames} frames vs resolve {resolve_frames}"
    );
    s1.stop();
    s2.stop();
}

#[test]
fn sixty_four_block_write_costs_one_disk_round_trip() {
    let net = Network::new();
    let disk = ServiceRunner::spawn_open(
        &net,
        BlockServer::new(
            DiskConfig {
                block_size: 128,
                capacity_blocks: 256,
            },
            SchemeKind::OneWay,
        ),
    );
    let server =
        amoeba::flatfs::BlockFlatFsServer::new(&net, disk.put_port(), SchemeKind::Commutative);
    let fs_runner = ServiceRunner::spawn_open(&net, server);
    let fs = FlatFsClient::open(&net, fs_runner.put_port());

    let cap = fs.create().unwrap();
    let body: Vec<u8> = (0..64 * 128u32).map(|i| (i % 251) as u8).collect();

    // client→fs (2) + fs→disk ALLOC_WRITE (2): the frame that carries
    // the 64 blocks of data is the one that allocates them, regardless
    // of block count.
    let before = frames(&net);
    fs.write(&cap, 0, &body).unwrap();
    assert_eq!(frames(&net) - before, 4, "first write: 1 disk RTT");

    // A rewrite touching already-allocated blocks allocates nothing:
    // one client call + one WRITE frame.
    let before = frames(&net);
    fs.write(&cap, 100, &[9u8; 64]).unwrap();
    assert_eq!(frames(&net) - before, 4, "rewrite: 1 disk RTT");

    // Growth appends ONE new extent — again in the data's own frame.
    let before = frames(&net);
    fs.write(&cap, 64 * 128, &body).unwrap();
    assert_eq!(frames(&net) - before, 4, "growth: 1 disk RTT");

    // Growth that also overwrites the tail of the last extent: the
    // WRITE on the old extent and the ALLOC_WRITE of the new one share
    // one batch frame.
    let before = frames(&net);
    fs.write(&cap, 2 * 64 * 128 - 50, &[7u8; 200]).unwrap();
    assert_eq!(frames(&net) - before, 4, "overlapping growth: 1 disk RTT");

    // And it all reads back: one gather round-trip against the disk.
    let before = frames(&net);
    let read = fs.read(&cap, 0, 2 * 64 * 128 + 150).unwrap();
    assert_eq!(frames(&net) - before, 4);
    let second = 64 * 128;
    assert_eq!(read[..100], body[..100]);
    assert_eq!(read[100..164], [9u8; 64]);
    assert_eq!(read[164..second], body[164..]);
    assert_eq!(read[second..2 * second - 50], body[..second - 50]);
    assert_eq!(read[2 * second - 50..], [7u8; 200]);
    assert_eq!(fs.size(&cap).unwrap(), 2 * second as u64 + 150);

    fs.destroy(&cap).unwrap();
    let stats = BlockClient::open(&net, disk.put_port());
    assert_eq!(stats.statfs().unwrap().allocated_blocks, 0);
    fs_runner.stop();
    disk.stop();
}

/// One generated tree node: which existing node it hangs under (taken
/// modulo the nodes built so far) and which of the two servers hosts it.
#[derive(Debug, Clone)]
struct TreeSpec {
    nodes: Vec<(u32, bool)>,
}

fn tree_spec() -> impl Strategy<Value = TreeSpec> {
    proptest::collection::vec((any::<u32>(), any::<bool>()), 1..20)
        .prop_map(|nodes| TreeSpec { nodes })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `resolve` must agree with the sequential `walk` oracle on every
    /// node of a random tree with cross-server links — same capability
    /// on success, same failing index/segment/status on error — and a
    /// caching client must agree with itself on the repeat (cached)
    /// resolution.
    #[test]
    fn resolve_agrees_with_walk_on_random_trees(spec in tree_spec()) {
        let net = Network::new();
        let s1 = ServiceRunner::spawn_open(&net, DirServer::new(SchemeKind::OneWay));
        let s2 = ServiceRunner::spawn_open(&net, DirServer::new(SchemeKind::Commutative));
        let dirs = DirClient::open(&net, s1.put_port());
        let cached = DirClient::open(&net, s1.put_port()).with_cache(Duration::from_secs(3600));

        let root = dirs.create_dir_on(s1.put_port()).unwrap();
        let mut caps = vec![root];
        let mut paths = vec![String::new()];
        for (i, (parent, on_s2)) in spec.nodes.iter().enumerate() {
            let parent = *parent as usize % caps.len();
            let port = if *on_s2 { s2.put_port() } else { s1.put_port() };
            let cap = dirs.create_dir_on(port).unwrap();
            let name = format!("d{i}");
            dirs.enter(&caps[parent], &name, &cap).unwrap();
            let path = if paths[parent].is_empty() {
                name
            } else {
                format!("{}/{}", paths[parent], name)
            };
            caps.push(cap);
            paths.push(path);
        }

        for (cap, path) in caps.iter().zip(&paths) {
            prop_assert_eq!(&dirs.walk(&root, path).unwrap(), cap);
            prop_assert_eq!(&dirs.resolve(&root, path).unwrap(), cap);
            // The caching client answers identically, cold and warm.
            prop_assert_eq!(&cached.resolve(&root, path).unwrap(), cap);
            prop_assert_eq!(&cached.resolve(&root, path).unwrap(), cap);

            // Error parity: a ghost appended anywhere fails at the
            // same (index, segment, status) in both implementations.
            let ghost = if path.is_empty() {
                "ghost".to_owned()
            } else {
                format!("{path}/ghost")
            };
            let w = dirs.walk(&root, &ghost).unwrap_err();
            let r = dirs.resolve(&root, &ghost).unwrap_err();
            prop_assert_eq!(&w, &r);
            prop_assert_eq!(&w.segment, "ghost");
        }
        s1.stop();
        s2.stop();
    }
}

#[test]
fn cache_staleness_is_bounded_by_the_ttl() {
    // Long next to the few round trips before the stale read, short
    // enough to sleep out.
    const TTL: Duration = Duration::from_millis(100);
    let net = Network::new();
    let runner = ServiceRunner::spawn_open(&net, DirServer::new(SchemeKind::Commutative));
    let dirs = DirClient::open(&net, runner.put_port()).with_cache(TTL);
    let other = DirClient::open(&net, runner.put_port());

    let root = dirs.create_dir().unwrap();
    let target = dirs.create_dir().unwrap();
    dirs.enter(&root, "x", &target).unwrap();
    assert_eq!(dirs.lookup(&root, "x").unwrap(), target); // warm

    // ANOTHER client renames; our cache cannot see it. Within the TTL
    // the stale hit is the documented contract...
    other.rename(&root, "x", "y").unwrap();
    assert_eq!(
        dirs.lookup(&root, "x").unwrap(),
        target,
        "within the TTL a cached entry may legally serve stale"
    );

    // ...but once the shared timeline passes the TTL, the cache MUST
    // miss and the server's truth wins.
    net.sleep(TTL + Duration::from_millis(5));
    assert_eq!(
        dirs.lookup(&root, "x").unwrap_err(),
        ClientError::Status(Status::NotFound),
        "a cache hit must never outlive the TTL"
    );
    assert_eq!(dirs.lookup(&root, "y").unwrap(), target);
    runner.stop();
}

/// Pins the `RESOLVE`, `ALLOC_N` and `ALLOC_WRITE` byte tables of
/// `docs/PROTOCOL.md` ("Path-resolution and extent-allocation
/// bodies"): request params, reply bodies, and the handoff shape of
/// the worked example.
#[test]
fn documented_resolve_and_extent_frames_are_what_the_wire_carries() {
    let net = Network::new();

    // --- RESOLVE ---------------------------------------------------
    // root and `a` live on server 1, but `a` is served by server 2:
    // resolving "a/b" at server 1 consumes one segment and hands off.
    let s1 = ServiceRunner::spawn_open(&net, DirServer::new(SchemeKind::OneWay));
    let s2 = ServiceRunner::spawn_open(&net, DirServer::new(SchemeKind::Commutative));
    let dirs = DirClient::open(&net, s1.put_port());
    let root = dirs.create_dir_on(s1.put_port()).unwrap();
    let a = dirs.create_dir_on(s2.put_port()).unwrap();
    let b = dirs.create_dir_on(s2.put_port()).unwrap();
    dirs.enter(&root, "a", &a).unwrap();
    dirs.enter(&a, "b", &b).unwrap();

    // Request body: capability(16) ‖ command(4) ‖ params, where the
    // RESOLVE params are one length-prefixed path string.
    let body = encode_req(
        &root,
        dir_ops::RESOLVE,
        wire::Writer::new().str("a/b").finish(),
    );
    let mut documented = Vec::new();
    documented.extend_from_slice(&root.encode());
    documented.extend_from_slice(&8u32.to_be_bytes());
    documented.extend_from_slice(&3u32.to_be_bytes());
    documented.extend_from_slice(b"a/b");
    assert_eq!(&body[..], &documented[..], "RESOLVE request layout");

    // Reply body: consumed(4) ‖ walk status(4) ‖ capability(16), in
    // an OK transport envelope even though the hop only went partway.
    let raw = dirs.service().rpc().trans(s1.put_port(), body).unwrap();
    let reply = Reply::decode(&raw).unwrap();
    assert_eq!(reply.status, Status::Ok);
    assert_eq!(reply.body.len(), 24, "consumed + status + capability");
    assert_eq!(
        &reply.body[..4],
        &1u32.to_be_bytes(),
        "consumed 1 (handoff)"
    );
    assert_eq!(&reply.body[4..8], &(Status::Ok as u32).to_be_bytes());
    assert_eq!(
        Capability::decode(reply.body[8..24].try_into().unwrap()),
        Some(a),
        "the handoff capability is `a` on its home server"
    );

    // A walk that dies mid-path reports the failure INSIDE the body.
    let body = encode_req(
        &root,
        dir_ops::RESOLVE,
        wire::Writer::new().str("ghost").finish(),
    );
    let raw = dirs.service().rpc().trans(s1.put_port(), body).unwrap();
    let reply = Reply::decode(&raw).unwrap();
    assert_eq!(reply.status, Status::Ok, "the envelope stays OK");
    assert_eq!(reply.body.len(), 8, "no capability after a failed walk");
    assert_eq!(&reply.body[..4], &0u32.to_be_bytes());
    assert_eq!(&reply.body[4..8], &(Status::NotFound as u32).to_be_bytes());
    s1.stop();
    s2.stop();

    // --- ALLOC_N ---------------------------------------------------
    let disk = ServiceRunner::spawn_open(
        &net,
        BlockServer::new(
            DiskConfig {
                block_size: 64,
                capacity_blocks: 128,
            },
            SchemeKind::OneWay,
        ),
    );
    let body = encode_req(
        &null_cap(),
        amoeba::block::ops::ALLOC_N,
        wire::Writer::new().u32(64).finish(),
    );
    assert_eq!(&body[20..], &64u32.to_be_bytes(), "params: one u32 count");
    let raw = dirs.service().rpc().trans(disk.put_port(), body).unwrap();
    let reply = Reply::decode(&raw).unwrap();
    assert_eq!(reply.status, Status::Ok);
    assert_eq!(reply.body.len(), 20, "capability + blocks granted");
    assert_eq!(
        &reply.body[16..],
        &64u32.to_be_bytes(),
        "blocks granted = n"
    );
    let extent = Capability::decode(reply.body[..16].try_into().unwrap()).unwrap();

    // The granted extent is live: FREE through it returns all blocks.
    let blocks = BlockClient::open(&net, disk.put_port());
    assert_eq!(blocks.statfs().unwrap().allocated_blocks, 64);
    blocks.free(&extent).unwrap();
    assert_eq!(blocks.statfs().unwrap().allocated_blocks, 0);

    // --- ALLOC_WRITE -----------------------------------------------
    // The worked example: 2 blocks of 64 bytes, "hello" at offset 60.
    let body = encode_req(
        &null_cap(),
        amoeba::block::ops::ALLOC_WRITE,
        wire::Writer::new().u32(2).u32(60).bytes(b"hello").finish(),
    );
    let mut documented = Vec::new();
    documented.extend_from_slice(&null_cap().encode());
    documented.extend_from_slice(&7u32.to_be_bytes());
    documented.extend_from_slice(&2u32.to_be_bytes());
    documented.extend_from_slice(&60u32.to_be_bytes());
    documented.extend_from_slice(&5u32.to_be_bytes());
    documented.extend_from_slice(b"hello");
    assert_eq!(&body[..], &documented[..], "ALLOC_WRITE request layout");
    let raw = dirs.service().rpc().trans(disk.put_port(), body).unwrap();
    let reply = Reply::decode(&raw).unwrap();
    assert_eq!(reply.status, Status::Ok);
    assert_eq!(
        reply.body.len(),
        20,
        "the ALLOC_N reply: capability + blocks"
    );
    assert_eq!(&reply.body[16..], &2u32.to_be_bytes(), "blocks granted = n");
    let extent = Capability::decode(reply.body[..16].try_into().unwrap()).unwrap();
    assert_eq!(blocks.statfs().unwrap().allocated_blocks, 2);
    let mut expected = vec![0u8; 128];
    expected[60..65].copy_from_slice(b"hello");
    assert_eq!(
        blocks.read(&extent, 0, 128).unwrap(),
        expected,
        "the payload where it was put, zeros everywhere else"
    );

    // Refused is refused whole: one byte too many reserves nothing.
    let body = encode_req(
        &null_cap(),
        amoeba::block::ops::ALLOC_WRITE,
        wire::Writer::new().u32(2).u32(124).bytes(b"hello").finish(),
    );
    let raw = dirs.service().rpc().trans(disk.put_port(), body).unwrap();
    let reply = Reply::decode(&raw).unwrap();
    assert_eq!(reply.status, Status::OutOfRange);
    assert!(reply.body.is_empty());
    assert_eq!(blocks.statfs().unwrap().allocated_blocks, 2);
    blocks.free(&extent).unwrap();
    disk.stop();
}

fn encode_req(cap: &Capability, command: u32, params: Bytes) -> Bytes {
    let req = Request {
        cap: *cap,
        command,
        params,
    };
    let mut buf = BytesMut::new();
    req.encode_into(&mut buf);
    buf.freeze()
}

/// What one seeded resolve-vs-rename run observed.
#[derive(Debug, PartialEq, Eq)]
struct RaceOutcome {
    resolved: u64,
    renamed_away: u64,
}

/// A path-workload actor on the deterministic simulation executor:
/// one actor hammers RESOLVE `a/b/c` while another renames `b` back
/// and forth. Every reply must be one of exactly two legal outcomes —
/// the full chain, or NotFound at segment index 1.
fn resolve_mid_rename_run(seed: u64, resolves: usize, renames: usize) -> RaceOutcome {
    let net = Network::new_sim(seed);
    net.set_latency(Duration::from_millis(1));
    let port = Port::new(0xD1_25_07).unwrap();
    let pump = Arc::new(SimPump::bind(
        net.attach_open(),
        port,
        DirServer::new(SchemeKind::Commutative),
    ));
    let put_port = pump.put_port();

    let clients: Vec<Client> = (0..3)
        .map(|i| Client::new(net.attach_open()).with_rng_seed(seed ^ i))
        .collect();
    // (root, a, c) once the setup actor has built the tree.
    let ready: Rc<Cell<Option<(Capability, Capability, Capability)>>> = Rc::new(Cell::new(None));
    let resolved = Rc::new(Cell::new(0u64));
    let renamed_away = Rc::new(Cell::new(0u64));

    let mut exec = SimExecutor::new(&net);
    {
        let pump = Arc::clone(&pump);
        exec.spawn_daemon(pump.machine(), move || {
            if pump.poll() {
                ActorPoll::Progress
            } else {
                ActorPoll::Idle
            }
        });
    }

    // Setup: create root/a/b/c and link them, one step per reply.
    {
        let ready = Rc::clone(&ready);
        let client = &clients[0];
        let mut step = 0usize;
        let mut caps: Vec<Capability> = Vec::new();
        let mut current: Option<amoeba::rpc::Completion<'_, Bytes>> = None;
        exec.spawn(client.endpoint().id(), move || loop {
            if let Some(comp) = current.as_mut() {
                match comp.poll() {
                    Some(Ok(raw)) => {
                        let reply = Reply::decode(&raw).expect("setup reply decodes");
                        assert_eq!(reply.status, Status::Ok, "setup step {step}");
                        if step < 4 {
                            caps.push(wire::Reader::new(&reply.body).cap().expect("a capability"));
                        }
                        current = None;
                        step += 1;
                        if step == 7 {
                            ready.set(Some((caps[0], caps[1], caps[3])));
                            return ActorPoll::Done;
                        }
                    }
                    Some(Err(e)) => panic!("setup step {step}: {e}"),
                    None => return ActorPoll::IdleUntil(comp.deadline()),
                }
            } else {
                let body = match step {
                    0..=3 => encode_req(&null_cap(), dir_ops::CREATE, Bytes::new()),
                    4 => encode_req(
                        &caps[0],
                        dir_ops::ENTER,
                        wire::Writer::new().str("a").cap(&caps[1]).finish(),
                    ),
                    5 => encode_req(
                        &caps[1],
                        dir_ops::ENTER,
                        wire::Writer::new().str("b").cap(&caps[2]).finish(),
                    ),
                    6 => encode_req(
                        &caps[2],
                        dir_ops::ENTER,
                        wire::Writer::new().str("c").cap(&caps[3]).finish(),
                    ),
                    _ => unreachable!(),
                };
                current = Some(client.trans_async(put_port, body));
            }
        });
    }

    // The resolver: hammers the batched server-side walk.
    {
        let ready = Rc::clone(&ready);
        let resolved = Rc::clone(&resolved);
        let renamed_away = Rc::clone(&renamed_away);
        let client = &clients[1];
        let mut done = 0usize;
        let mut current: Option<amoeba::rpc::Completion<'_, Bytes>> = None;
        exec.spawn(client.endpoint().id(), move || loop {
            let Some((root, _a, c)) = ready.get() else {
                // A bare `Idle` only rewakes on packet delivery, and
                // nothing is addressed at this machine yet — poll the
                // ready flag on a short timer instead.
                return ActorPoll::IdleUntil(client.endpoint().now() + Duration::from_millis(1));
            };
            if let Some(comp) = current.as_mut() {
                match comp.poll() {
                    Some(Ok(raw)) => {
                        let reply = Reply::decode(&raw).expect("resolve reply decodes");
                        assert_eq!(reply.status, Status::Ok, "RESOLVE uses an Ok envelope");
                        let mut r = wire::Reader::new(&reply.body);
                        let consumed = r.u32().expect("consumed");
                        let status = Status::from_u32(r.u32().expect("status")).expect("known");
                        match status {
                            Status::Ok => {
                                assert_eq!(consumed, 3, "full chain");
                                assert_eq!(r.cap().expect("cap"), c);
                                resolved.set(resolved.get() + 1);
                            }
                            Status::NotFound => {
                                // The rename window: `b` was absent, so
                                // the walk died at segment index 1.
                                assert_eq!(consumed, 1, "must fail exactly at `b`");
                                renamed_away.set(renamed_away.get() + 1);
                            }
                            other => panic!("illegal resolve outcome: {other:?}"),
                        }
                        current = None;
                        done += 1;
                        if done == resolves {
                            return ActorPoll::Done;
                        }
                    }
                    Some(Err(e)) => panic!("resolve {done}: {e}"),
                    None => return ActorPoll::IdleUntil(comp.deadline()),
                }
            } else {
                let body = encode_req(
                    &root,
                    dir_ops::RESOLVE,
                    wire::Writer::new().str("a/b/c").finish(),
                );
                current = Some(client.trans_async(put_port, body));
            }
        });
    }

    // The renamer: flips `b` ↔ `hidden` under directory `a`.
    {
        let ready = Rc::clone(&ready);
        let client = &clients[2];
        let mut round = 0usize;
        let mut current: Option<amoeba::rpc::Completion<'_, Bytes>> = None;
        exec.spawn(client.endpoint().id(), move || loop {
            let Some((_root, a, _c)) = ready.get() else {
                // A bare `Idle` only rewakes on packet delivery, and
                // nothing is addressed at this machine yet — poll the
                // ready flag on a short timer instead.
                return ActorPoll::IdleUntil(client.endpoint().now() + Duration::from_millis(1));
            };
            if let Some(comp) = current.as_mut() {
                match comp.poll() {
                    Some(Ok(raw)) => {
                        let reply = Reply::decode(&raw).expect("rename reply decodes");
                        assert_eq!(reply.status, Status::Ok, "rename round {round}");
                        current = None;
                        round += 1;
                        if round == renames {
                            return ActorPoll::Done;
                        }
                    }
                    Some(Err(e)) => panic!("rename {round}: {e}"),
                    None => return ActorPoll::IdleUntil(comp.deadline()),
                }
            } else {
                let (from, to) = if round.is_multiple_of(2) {
                    ("b", "hidden")
                } else {
                    ("hidden", "b")
                };
                let body = encode_req(
                    &a,
                    dir_ops::RENAME,
                    wire::Writer::new().str(from).str(to).finish(),
                );
                current = Some(client.trans_async(put_port, body));
            }
        });
    }

    exec.run().expect("race scenario must not stall");
    drop(exec);
    let outcome = RaceOutcome {
        resolved: resolved.get(),
        renamed_away: renamed_away.get(),
    };
    assert_eq!(
        outcome.resolved + outcome.renamed_away,
        resolves as u64,
        "every resolve must land in a legal outcome"
    );
    outcome
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Seeded schedules interleave RESOLVE with renames arbitrarily;
    /// every observed outcome must be legal, and one seed must replay
    /// to the identical outcome tally.
    #[test]
    fn sim_resolve_mid_rename_sees_only_legal_outcomes(seed in any::<u64>()) {
        let a = resolve_mid_rename_run(seed, 12, 8);
        let b = resolve_mid_rename_run(seed, 12, 8);
        prop_assert_eq!(a, b, "same seed must replay the same interleaving tally");
    }
}
