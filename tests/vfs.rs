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
//!   call, and as many when a write grows a file it also overwrites
//!   and frees a destroyed file's extent besides, each frame built in
//!   one buffer; the destroy itself costs the disk nothing;
//! * `resolve` agrees with the sequential `walk` oracle over random
//!   trees, including cross-server links, down to the failing segment
//!   index;
//! * a cached entry never outlives an external rename beyond the TTL,
//!   and an error met below a cached directory is never reported
//!   without asking again from the root;
//! * the capability cache is keyed by parent directory: a sibling of a
//!   resolved leaf costs **one single-segment transaction**, a cold
//!   path costs what it always did, and a `RESOLVE` reply names no
//!   capability a segment-by-segment walk would not have returned;
//! * the block-backed file server's page cache holds bytes and no
//!   authority: with a file's page warm (a miss, the miss that admits
//!   it, a hit — 1, 1, 0 disk round trips), a revoked, read-less,
//!   forged or destroyed capability, and the old capability of a reused
//!   object number, are answered exactly as by the in-memory server,
//!   which has no cache: the same status and an empty body;
//! * under the deterministic simulation executor, resolution hammered
//!   mid-rename only ever observes the two legal outcomes.

mod sim_support;

use amoeba::dirsvr::{ops as dir_ops, DirClient, DirServer};
use amoeba::net::BufPool;
use amoeba::prelude::*;
use amoeba::rpc::Client;
use amoeba::server::proto::{null_cap, Reply, Request};
use amoeba::server::{wire, RequestCtx, Service};
use bytes::{Bytes, BytesMut};
use proptest::prelude::*;
use std::cell::Cell;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
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
    let (root, leaf) = enter_deep_path(&dirs, s1.put_port(), s2.put_port());
    (s1, s2, dirs, root, leaf)
}

/// Creates a root on `near` and enters [`DEEP_PATH`] under it — `seg0`
/// to `seg3` on `near`, `seg4` to `seg7` on `far` — returning the root
/// and `seg7`.
fn enter_deep_path(dirs: &DirClient, near: Port, far: Port) -> (Capability, Capability) {
    let root = dirs.create_dir_on(near).unwrap();
    let mut current = root;
    for i in 0..8 {
        let next = dirs.create_dir_on(if i < 4 { near } else { far }).unwrap();
        dirs.enter(&current, &format!("seg{i}"), &next).unwrap();
        current = next;
    }
    (root, current)
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
    let taken = Arc::new(AtomicU64::new(0));
    let server = Metered {
        inner: amoeba::flatfs::BlockFlatFsServer::new(
            &net,
            disk.put_port(),
            SchemeKind::Commutative,
        ),
        taken: Arc::clone(&taken),
    };
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

    // A destroy sends the disk nothing: the file server holds the
    // destroyed file's extent for its next allocation to free.
    let scratch = fs.create().unwrap();
    fs.write(&scratch, 0, b"scratch").unwrap();
    let before = frames(&net);
    fs.destroy(&scratch).unwrap();
    assert_eq!(frames(&net) - before, 2, "destroy: no disk RTT");

    // Growth that also overwrites the tail of the last extent: the
    // WRITE on the old extent and the ALLOC_WRITE of the new one share
    // one batch frame, and the ALLOC_WRITE frees the destroyed file's
    // extent. Each frame is built in one pooled buffer, the payload
    // copied straight in: the client's request, and the file server's
    // disk frame beside its 8-byte reply body.
    let before = (frames(&net), BufPool::taken_on_this_thread());
    taken.store(0, Ordering::Relaxed);
    fs.write(&cap, 2 * 64 * 128 - 50, &[7u8; 200]).unwrap();
    assert_eq!(frames(&net) - before.0, 4, "overlapping growth: 1 disk RTT");
    assert_eq!(BufPool::taken_on_this_thread() - before.1, 1, "the request");
    assert_eq!(
        taken.load(Ordering::Relaxed),
        2,
        "the disk frame and the reply body, and no parameter blob"
    );

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

    // The scratch file's block is gone; the destroyed file's 130 are
    // held until the next allocation, which takes them back.
    let stats = BlockClient::open(&net, disk.put_port());
    fs.destroy(&cap).unwrap();
    assert_eq!(stats.statfs().unwrap().allocated_blocks, 130);
    let next = fs.create().unwrap();
    fs.write(&next, 0, b"x").unwrap();
    assert_eq!(stats.statfs().unwrap().allocated_blocks, 1);
    fs_runner.stop();
    disk.stop();
}

/// A service that counts the buffers its handler takes on the worker
/// thread: every frame it sends as a client, every reply body, and any
/// parameter blob built on the way to a frame.
struct Metered<S> {
    inner: S,
    taken: Arc<AtomicU64>,
}

impl<S: Service> Service for Metered<S> {
    fn bind(&mut self, put_port: Port) {
        self.inner.bind(put_port);
    }

    fn handle(&self, req: &Request, ctx: &RequestCtx) -> Reply {
        let before = BufPool::taken_on_this_thread();
        let reply = self.inner.handle(req, ctx);
        let taken = BufPool::taken_on_this_thread() - before;
        self.taken.fetch_add(taken, Ordering::Relaxed);
        reply
    }
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
            // The same through a warm cache, where the walk starts at
            // the ghost's cached parent: same index, same segment —
            // and the same again once the NotFound has been noted.
            prop_assert_eq!(&cached.resolve(&root, &ghost).unwrap_err(), &w);
            prop_assert_eq!(&cached.resolve(&root, &format!("/{ghost}//")).unwrap_err(), &w);
        }
        // Every node again, now that its siblings and the ghosts beside
        // it have been through the cache, under another spelling.
        for (cap, path) in caps.iter().zip(&paths) {
            let respelt = format!("/{}/", path.replace('/', "//"));
            prop_assert_eq!(&cached.resolve(&root, &respelt).unwrap(), cap);
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

#[test]
fn an_error_below_a_cached_directory_is_asked_again_from_the_root() {
    // Nothing expires here: what is under test is what the TTL does
    // NOT excuse.
    const TTL: Duration = Duration::from_secs(3600);
    let net = Network::new();
    let runner = ServiceRunner::spawn_open(&net, DirServer::new(SchemeKind::Commutative));
    let dirs = DirClient::open(&net, runner.put_port()).with_cache(TTL);
    let other = DirClient::open(&net, runner.put_port());

    let root = other.create_dir().unwrap();
    let (old, x) = (other.create_dir().unwrap(), other.create_dir().unwrap());
    other.enter(&root, "d", &old).unwrap();
    other.enter(&old, "x", &x).unwrap();
    assert_eq!(dirs.resolve(&root, "d/x").unwrap(), x); // (root, "d") is warm

    // ANOTHER client replaces `d` with a directory that holds `y`.
    let (new, y) = (other.create_dir().unwrap(), other.create_dir().unwrap());
    other.enter(&new, "y", &y).unwrap();
    other.remove(&root, "d").unwrap();
    other.enter(&root, "d", &new).unwrap();

    // The cached `d` has no `y`. That NotFound is the old directory's,
    // not the path's: one failed transaction, one from the root.
    let before = frames(&net);
    assert_eq!(
        dirs.resolve(&root, "d/y").unwrap(),
        y,
        "a NotFound below a cached directory was reported as the path's"
    );
    assert_eq!(frames(&net) - before, 4);
    // The stale entry was killed on the way: `d` is the new directory
    // now, so its sibling is one transaction and `x` is truly gone.
    let z = other.create_dir().unwrap();
    other.enter(&new, "z", &z).unwrap();
    let before = frames(&net);
    assert_eq!(dirs.resolve(&root, "d/z").unwrap(), z);
    assert_eq!(frames(&net) - before, 2);
    let gone = dirs.resolve(&root, "d/x").unwrap_err();
    assert_eq!(gone, other.walk(&root, "d/x").unwrap_err());
    assert_eq!((gone.index, gone.segment.as_str()), (1, "x"));

    // The same for an error that is not NotFound: the cached directory
    // is deleted outright, and its capability validates nowhere.
    assert_eq!(dirs.resolve(&root, "d/z").unwrap(), z); // (root, "d") warm again
    let newer = other.create_dir().unwrap();
    other.enter(&newer, "y", &y).unwrap();
    other.remove(&root, "d").unwrap();
    other.enter(&root, "d", &newer).unwrap();
    for name in ["y", "z"] {
        other.remove(&new, name).unwrap();
    }
    other.delete_dir(&new).unwrap();
    assert_eq!(dirs.resolve(&root, "d/y").unwrap(), y);

    // What the TTL does excuse is unchanged: a stale POSITIVE. `y` is
    // renamed by the other client and still served here.
    other.rename(&newer, "y", "w").unwrap();
    assert_eq!(dirs.resolve(&root, "d/y").unwrap(), y);
    runner.stop();
}

/// A directory server that notes every `RESOLVE` it answers: the path
/// it was asked and the `consumed` it replied.
struct ResolveTap {
    inner: DirServer,
    seen: Arc<Mutex<Vec<(String, u32)>>>,
}

impl Service for ResolveTap {
    fn bind(&mut self, put_port: Port) {
        self.inner.bind(put_port);
    }

    fn handle(&self, req: &Request, ctx: &RequestCtx) -> Reply {
        let reply = self.inner.handle(req, ctx);
        if req.command == dir_ops::RESOLVE {
            let path = wire::Reader::new(&req.params).str().expect("a path");
            let consumed = wire::Reader::new(&reply.body).u32().expect("consumed");
            self.seen.lock().unwrap().push((path, consumed));
        }
        reply
    }
}

/// The benchmark's tree with taps on both servers: [`DEEP_PATH`] across
/// the two, `files.len()` leaves `f0`, `f1`, … in its last directory.
struct TappedTree {
    runners: [ServiceRunner; 2],
    /// Every `RESOLVE` either server answered: (path asked, consumed).
    seen: Arc<Mutex<Vec<(String, u32)>>>,
    /// A caching client that took no part in building the tree: cold.
    dirs: DirClient,
    root: Capability,
    /// `seg7`, where the leaves are.
    leaf_dir: Capability,
    files: Vec<Capability>,
}

impl TappedTree {
    fn build(net: &Network, leaves: usize) -> TappedTree {
        let seen = Arc::new(Mutex::new(Vec::new()));
        let tap = |scheme| ResolveTap {
            inner: DirServer::new(scheme),
            seen: Arc::clone(&seen),
        };
        let s1 = ServiceRunner::spawn_open(net, tap(SchemeKind::OneWay));
        let s2 = ServiceRunner::spawn_open(net, tap(SchemeKind::Commutative));
        let builder = DirClient::open(net, s1.put_port());
        let (root, leaf_dir) = enter_deep_path(&builder, s1.put_port(), s2.put_port());
        let files = (0..leaves)
            .map(|i| {
                let file = builder.create_dir_on(s2.put_port()).unwrap();
                builder.enter(&leaf_dir, &format!("f{i}"), &file).unwrap();
                file
            })
            .collect();
        TappedTree {
            dirs: DirClient::open(net, s1.put_port()).with_cache(Duration::from_secs(3600)),
            runners: [s1, s2],
            seen,
            root,
            leaf_dir,
            files,
        }
    }

    /// The `RESOLVE`s answered since the last call.
    fn take_seen(&self) -> Vec<(String, u32)> {
        std::mem::take(&mut *self.seen.lock().unwrap())
    }

    fn stop(self) {
        for runner in self.runners {
            runner.stop();
        }
    }
}

#[test]
fn a_sibling_of_a_resolved_leaf_costs_one_single_segment_transaction() {
    let net = Network::new();
    let tree = TappedTree::build(&net, 3);
    let (dirs, root, files) = (&tree.dirs, tree.root, &tree.files);

    // Cold, the depth-8 directory chain plus the leaf is what it was
    // before directories were cached: one transaction per server.
    let before = frames(&net);
    assert_eq!(
        dirs.resolve(&root, &format!("{DEEP_PATH}/f0")).unwrap(),
        files[0]
    );
    assert_eq!(frames(&net) - before, 4);
    assert_eq!(
        tree.take_seen(),
        [
            (format!("{DEEP_PATH}/f0"), 5),
            ("seg5/seg6/seg7/f0".to_owned(), 4)
        ]
    );

    // Its siblings share the directory: each asks that directory's
    // server for its own name and nothing else.
    for (i, file) in files.iter().enumerate().skip(1) {
        let before = frames(&net);
        assert_eq!(
            dirs.resolve(&root, &format!("{DEEP_PATH}/f{i}")).unwrap(),
            *file
        );
        assert_eq!(frames(&net) - before, 2, "f{i}: one transaction");
        assert_eq!(
            tree.take_seen(),
            [(format!("f{i}"), 1)],
            "one segment asked, one consumed"
        );
    }

    // And all of them are hits now.
    let before = frames(&net);
    for (i, file) in files.iter().enumerate() {
        assert_eq!(
            dirs.resolve(&root, &format!("{DEEP_PATH}/f{i}")).unwrap(),
            *file
        );
    }
    assert_eq!(frames(&net), before);
    tree.stop();
}

#[test]
fn cold_paths_in_distinct_directories_cost_what_whole_path_memos_did() {
    // Keyed by whole path, the cache took two transactions for a cold
    // path across two servers and learnt nothing its neighbour in
    // another directory could use. Keyed by directory it must not take
    // more: a cold path never pays a round trip to learn its parent.
    const DIRECTORIES: usize = 8;
    let net = Network::new();
    let tree = TappedTree::build(&net, 0);
    let (dirs, root, seg7) = (&tree.dirs, tree.root, tree.leaf_dir);
    let builder = DirClient::open(&net, root.port);
    let files: Vec<Capability> = (0..DIRECTORIES)
        .map(|i| {
            let dir = builder.create_dir_on(seg7.port).unwrap();
            let file = builder.create_dir_on(seg7.port).unwrap();
            builder.enter(&seg7, &format!("d{i}"), &dir).unwrap();
            builder.enter(&dir, "f", &file).unwrap();
            file
        })
        .collect();

    let before = frames(&net);
    for (i, file) in files.iter().enumerate() {
        assert_eq!(
            dirs.resolve(&root, &format!("{DEEP_PATH}/d{i}/f")).unwrap(),
            *file
        );
    }
    let transactions = tree.take_seen().len();
    assert_eq!(transactions, 2 * DIRECTORIES, "two per cold path, as ever");
    assert_eq!(frames(&net) - before, 4 * DIRECTORIES as u64);
    tree.stop();
}

#[test]
fn a_resolve_reply_names_only_capabilities_a_walk_would_return() {
    let net = Network::new();
    let (s1, s2, dirs, root, _leaf) = cross_server_chain(&net);
    // The caller holds READ on the root and nothing else; `seg1` is
    // itself entered READ-only, so "the stored entry" and "a capability
    // for the object" are different bit patterns.
    let ro = dirs.service().restrict(&root, Rights::READ).unwrap();
    let seg0 = dirs.lookup(&root, "seg0").unwrap();
    let seg1 = dirs.lookup(&seg0, "seg1").unwrap();
    let seg1_ro = dirs.service().restrict(&seg1, Rights::READ).unwrap();
    dirs.remove(&seg0, "seg1").unwrap();
    dirs.enter(&seg0, "seg1", &seg1_ro).unwrap();

    let segments: Vec<&str> = DEEP_PATH.split('/').collect();
    for depth in 1..=segments.len() {
        // Hop by hop, as the client would, decoding every reply raw.
        let (mut current, mut done) = (ro, 0usize);
        while done < depth {
            let body = encode_req(
                &current,
                dir_ops::RESOLVE,
                wire::Writer::new()
                    .str(&segments[done..depth].join("/"))
                    .finish(),
            );
            let raw = dirs.service().rpc().trans(current.port, body).unwrap();
            let reply = Reply::decode(&raw).unwrap();
            let mut r = wire::Reader::new(&reply.body);
            let consumed = r.u32().unwrap() as usize;
            assert_eq!(r.u32(), Some(Status::Ok as u32));
            let (cap, parent) = (r.cap().unwrap(), r.cap().unwrap());
            assert!(consumed >= 1);
            let reached = segments[..done + consumed].join("/");
            let found_in = segments[..done + consumed - 1].join("/");
            assert_eq!(cap, dirs.walk(&ro, &reached).unwrap(), "{reached}");
            assert_eq!(
                parent,
                dirs.walk(&ro, &found_in).unwrap(),
                "parent of {reached}"
            );
            if consumed == 1 {
                assert_eq!(parent, current, "one segment: the request capability");
            }
            (current, done) = (cap, done + consumed);
        }
    }
    // The stored entry, rights and all — not one minted for the reply.
    assert_eq!(dirs.walk(&ro, "seg0/seg1").unwrap(), seg1_ro);
    assert_ne!(seg1_ro, seg1);

    // Without READ there is no walk and no capability of either kind.
    let blind = dirs.service().restrict(&root, Rights::NONE).unwrap();
    let body = encode_req(
        &blind,
        dir_ops::RESOLVE,
        wire::Writer::new().str(DEEP_PATH).finish(),
    );
    let raw = dirs.service().rpc().trans(blind.port, body).unwrap();
    let reply = Reply::decode(&raw).unwrap();
    assert_eq!(reply.body.len(), 8, "consumed and status, nothing else");
    assert_eq!(&reply.body[..4], &0u32.to_be_bytes());
    assert_eq!(
        &reply.body[4..8],
        &(Status::RightsViolation as u32).to_be_bytes()
    );
    s1.stop();
    s2.stop();
}

/// Pins the `RESOLVE`, `ALLOC_N` and `ALLOC_WRITE` byte tables of
/// `docs/PROTOCOL.md` ("Path-resolution and extent-allocation
/// bodies"): request params, reply bodies, the handoff shape of the
/// worked example, and the retire list's.
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

    // Reply body: consumed(4) ‖ walk status(4) ‖ capability(16) ‖
    // parent(16), in an OK transport envelope even though the hop only
    // went partway.
    let raw = dirs.service().rpc().trans(s1.put_port(), body).unwrap();
    let reply = Reply::decode(&raw).unwrap();
    assert_eq!(reply.status, Status::Ok);
    assert_eq!(
        reply.body.len(),
        40,
        "consumed + status + capability + parent"
    );
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
    assert_eq!(
        Capability::decode(reply.body[24..40].try_into().unwrap()),
        Some(root),
        "one segment consumed: `a` was found in the request capability"
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
    assert_eq!(reply.body.len(), 8, "no capabilities after a failed walk");
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

    // With a retire list: 1 block holding "hi", and the 2-block extent
    // above listed twice — freed once, and the duplicate counted.
    let body = encode_req(
        &null_cap(),
        amoeba::block::ops::ALLOC_WRITE,
        wire::Writer::new()
            .u32(1)
            .u32(0)
            .bytes(b"hi")
            .u32(2)
            .cap(&extent)
            .cap(&extent)
            .finish(),
    );
    let mut documented = Vec::new();
    documented.extend_from_slice(&null_cap().encode());
    documented.extend_from_slice(&7u32.to_be_bytes());
    documented.extend_from_slice(&1u32.to_be_bytes());
    documented.extend_from_slice(&0u32.to_be_bytes());
    documented.extend_from_slice(&2u32.to_be_bytes());
    documented.extend_from_slice(b"hi");
    documented.extend_from_slice(&2u32.to_be_bytes());
    documented.extend_from_slice(&extent.encode());
    documented.extend_from_slice(&extent.encode());
    assert_eq!(&body[..], &documented[..], "ALLOC_WRITE retire-list layout");
    assert_eq!(body.len(), 20 + 50, "params: 14 as before, then 4 + 2 × 16");
    let raw = dirs.service().rpc().trans(disk.put_port(), body).unwrap();
    let reply = Reply::decode(&raw).unwrap();
    assert_eq!(reply.status, Status::Ok);
    assert_eq!(
        reply.body.len(),
        24,
        "capability + blocks + listed extents not freed"
    );
    assert_eq!(&reply.body[16..20], &1u32.to_be_bytes(), "blocks granted");
    assert_eq!(&reply.body[20..], &1u32.to_be_bytes(), "the duplicate");
    assert_eq!(
        blocks.statfs().unwrap().allocated_blocks,
        1,
        "2 freed, 1 granted"
    );
    assert!(blocks.read(&extent, 0, 1).is_err(), "the extent is gone");
    let granted = Capability::decode(reply.body[..16].try_into().unwrap()).unwrap();
    blocks.free(&granted).unwrap();
    disk.stop();
}

/// One raw `READ` of `[0, len)`: the whole reply, so a refusal's body
/// can be looked at as well as its status.
fn raw_read(fs: &FlatFsClient, cap: &Capability, len: u32) -> (Status, Bytes) {
    let params = wire::Writer::new().u64(0).u32(len).finish();
    let body = encode_req(cap, amoeba::flatfs::ops::READ, params);
    let raw = fs.service().rpc().trans(cap.port, body).unwrap();
    let reply = Reply::decode(&raw).unwrap();
    (reply.status, reply.body)
}

/// The life of one file, read at each turn through a capability that
/// should get nothing: what each attempt was answered, in order.
fn hostile_reads(fs: &FlatFsClient, secret: &[u8]) -> Vec<(&'static str, Status, Bytes)> {
    let len = secret.len() as u32;
    let cap = fs.create().unwrap();
    fs.write(&cap, 0, secret).unwrap();
    for _ in 0..3 {
        assert_eq!(fs.read(&cap, 0, len).unwrap(), secret);
    }
    let mut answers = Vec::new();
    let mut attempt = |why, cap: &Capability| {
        let (status, body) = raw_read(fs, cap, len);
        answers.push((why, status, body));
    };
    let blind = fs
        .service()
        .restrict(&cap, Rights::WRITE | Rights::DELETE)
        .unwrap();
    attempt("restricted to no READ", &blind);
    let forged = Capability {
        check: cap.check ^ 1,
        ..cap
    };
    attempt("a guessed check field", &forged);
    let fresh = fs.service().revoke(&cap).unwrap();
    attempt("revoked", &cap);
    assert_eq!(fs.read(&fresh, 0, len).unwrap(), secret);
    fs.destroy(&fresh).unwrap();
    attempt("destroyed", &fresh);
    let reborn = fs.create().unwrap();
    assert_eq!(reborn.object, fresh.object, "the object number is reused");
    attempt("its number now another file's", &fresh);
    attempt("the new file, still empty", &reborn);
    fs.write(&reborn, 0, b"new tenant").unwrap();
    attempt("the new file, written", &reborn);
    answers
}

#[test]
fn a_warm_page_cache_grants_nothing_the_object_table_refuses() {
    let net = Network::new();
    net.obs().enable();
    let disk = ServiceRunner::spawn_open(
        &net,
        BlockServer::new(DiskConfig::small(), SchemeKind::OneWay),
    );
    let server =
        amoeba::flatfs::BlockFlatFsServer::new(&net, disk.put_port(), SchemeKind::Commutative);
    let cached = ServiceRunner::spawn_open(&net, server);
    let plain = ServiceRunner::spawn_open(&net, FlatFsServer::new(SchemeKind::Commutative));
    let secret: Vec<u8> = (0..4096u32).map(|i| (i % 251) as u8).collect();

    // The cache is in play: a miss, the miss that admits the page, a
    // hit — and from then on the file's reads send nothing to the disk.
    let fs = FlatFsClient::open(&net, cached.put_port());
    let cap = fs.create().unwrap();
    fs.write(&cap, 0, &secret).unwrap();
    let counts = || {
        let m = net.obs().snapshot().unwrap();
        (
            m.page_cache_hits,
            m.page_cache_misses,
            m.page_cache_admissions,
        )
    };
    for (disk_trips, counted) in [(1, (0, 1, 0)), (1, (0, 2, 1)), (0, (1, 2, 1))] {
        let before = frames(&net);
        assert_eq!(fs.read(&cap, 0, 4096).unwrap(), secret);
        assert_eq!((frames(&net) - before - 2) / 2, disk_trips);
        assert_eq!(counts(), counted, "hits, misses, admissions");
    }

    let before = frames(&net);
    let answers = hostile_reads(&fs, &secret);
    let sent = frames(&net) - before;
    let twin = hostile_reads(&FlatFsClient::open(&net, plain.put_port()), &secret);
    assert_eq!(answers, twin, "what the server without a cache answers");
    for (why, status, body) in &answers[..5] {
        assert_ne!(*status, Status::Ok, "{why}");
        assert!(body.is_empty(), "{why}: not one byte, cached or not");
    }
    assert_eq!(
        answers[5..],
        [
            ("the new file, still empty", Status::Ok, Bytes::new()),
            (
                "the new file, written",
                Status::Ok,
                Bytes::from_static(b"new tenant")
            ),
        ]
    );
    // 18 transactions with the client and five with the disk: two
    // writes, the two misses that warm the page, the new file's first
    // read. The destroy sent the disk nothing (its extent rode the new
    // file's write), no refusal got as far as the disk, and the warm
    // page was served to the capability revocation put in place.
    assert_eq!(sent, 2 * 18 + 2 * 5);
    cached.stop();
    plain.stop();
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
    let pump = SimPump::bind(
        net.attach_open(),
        port,
        DirServer::new(SchemeKind::Commutative),
    );
    let put_port = pump.put_port();

    let clients: Vec<Client> = (0..3)
        .map(|i| Client::new(net.attach_open()).with_rng_seed(seed ^ i))
        .collect();
    // (root, a, b, c) once the setup actor has built the tree.
    type Tree = (Capability, Capability, Capability, Capability);
    let ready: Rc<Cell<Option<Tree>>> = Rc::new(Cell::new(None));
    let resolved = Rc::new(Cell::new(0u64));
    let renamed_away = Rc::new(Cell::new(0u64));

    let mut exec = SimExecutor::new(&net);
    {
        let pump = &pump;
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
                            ready.set(Some((caps[0], caps[1], caps[2], caps[3])));
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
            let Some((root, _a, b, c)) = ready.get() else {
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
                                assert_eq!(r.cap().expect("parent"), b, "`c` was found in `b`");
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
            let Some((_root, a, _b, _c)) = ready.get() else {
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
