//! The *modular* flat file server of §3.2–3.3: file bytes live in
//! **block-server blocks**, not in the file server's memory.
//!
//! "The first file system is highly modular, consisting of a block
//! server, flat file server, and directory server." This implementation
//! completes that stack: it speaks the exact same wire protocol as
//! [`FlatFsServer`](crate::FlatFsServer) (one [`FlatFsClient`] works
//! against both), but every byte of file data is stored in raw blocks
//! it allocates, as a client, from a block server — which is what lets
//! "any user implement any kind of special-purpose file system without
//! having to get into the details of disk storage management".
//!
//! The in-memory [`FlatFsServer`](crate::FlatFsServer) and this one are
//! an ablation pair: the same client code runs against either, which
//! prices the extra block-server hop.
//!
//! [`FlatFsClient`]: crate::FlatFsClient

use crate::ops;
use crate::page_cache::{PageCache, PAGE};
use amoeba_block::BlockClient;
use amoeba_cap::schemes::SchemeKind;
use amoeba_cap::{Capability, Rights};
use amoeba_net::{Network, Obs, Port};
use amoeba_server::proto::{Reply, Request, Status};
use amoeba_server::{wire, ClientError, ObjectLocks, ObjectTable, RequestCtx, Service};
use bytes::Bytes;
use std::sync::atomic::{AtomicU64, Ordering};

/// One contiguous allocation: a block-server extent capability and the
/// number of blocks it covers. Each file write that grows the file
/// adds at most one extent (an `ALLOC_WRITE` entry in the write's one
/// disk frame), so a file's metadata is O(growth events), not
/// O(blocks).
#[derive(Debug, Clone, Copy)]
struct Extent {
    /// Full-rights extent capability, private to this server.
    cap: Capability,
    blocks: u32,
}

#[derive(Debug)]
struct Inode {
    size: u64,
    extents: Vec<Extent>,
    /// Names this file's bytes as they are now: stamped at `create`,
    /// and again after every disk frame that may have changed them
    /// ([`BlockFlatFsServer::stamp`]). The page cache is keyed on it.
    version: u64,
}

/// Maps the byte range `[start, end)` onto `(extent capability,
/// within-extent offset, length)` runs, in order. Bytes past the last
/// extent belong to no run.
fn extent_runs(extents: &[Extent], bs: u64, start: u64, end: u64) -> Vec<(Capability, u32, u32)> {
    let mut runs = Vec::new();
    let mut base = 0u64;
    for ext in extents {
        let ext_end = base + u64::from(ext.blocks) * bs;
        if ext_end > start && base < end {
            let run_start = start.max(base);
            let run_end = end.min(ext_end);
            runs.push((
                ext.cap,
                (run_start - base) as u32,
                (run_end - run_start) as u32,
            ));
        }
        if ext_end >= end {
            break;
        }
        base = ext_end;
    }
    runs
}

/// A flat file server whose storage is a block server.
///
/// The RPC client demuxes concurrent transactions, so reads go to the
/// block server with no locking at all — those that go: a read whose
/// pages the server has fetched twice already is answered from its
/// page cache, after the capability check every read gets. Mutating
/// operations (WRITE,
/// DESTROY) serialise **per inode** on a striped [`ObjectLocks`]: a
/// write snapshots the inode, allocates blocks and writes data in
/// separate steps, and two concurrent writers to *one* file would
/// otherwise leak blocks and lose metadata — but writers to distinct
/// files share no metadata and proceed in parallel across the worker
/// pool. (The in-memory [`FlatFsServer`](crate::FlatFsServer) has no
/// disk hop and scales across workers freely.)
#[derive(Debug)]
pub struct BlockFlatFsServer {
    table: ObjectTable<Inode>,
    disk: BlockClient,
    inode_locks: ObjectLocks,
    block_size: u64,
    pages: PageCache,
    /// The last content version handed out.
    versions: AtomicU64,
    obs: Obs,
}

impl BlockFlatFsServer {
    /// Creates the server as a client of the block server at
    /// `disk_port`.
    ///
    /// # Panics
    /// Panics if the block server cannot be reached to learn its
    /// geometry.
    pub fn new(net: &Network, disk_port: Port, scheme: SchemeKind) -> BlockFlatFsServer {
        let disk = BlockClient::open(net, disk_port);
        let block_size = disk
            .statfs()
            .expect("block server must be reachable at construction")
            .block_size as u64;
        BlockFlatFsServer {
            table: ObjectTable::unbound(scheme.instantiate()),
            disk,
            inode_locks: ObjectLocks::default(),
            block_size,
            pages: PageCache::new(net.obs().clone()),
            versions: AtomicU64::new(0),
            obs: net.obs().clone(),
        }
    }

    /// Counts extents the disk was asked to free and did not confirm
    /// freed. The client's reply does not change — its file is gone
    /// either way — but the disk's capacity is, until someone looks.
    fn leaked(&self, extents: usize) {
        if let Some(m) = self.obs.metrics() {
            m.extents_leaked.add(extents as u64);
        }
    }

    /// A content version no inode has held before. Only uniqueness is
    /// asked of the counter: the version reaches readers through the
    /// inode, under the object table's lock.
    fn stamp(&self) -> u64 {
        self.versions.fetch_add(1, Ordering::Relaxed) + 1
    }

    fn create(&self) -> Reply {
        let (_, cap) = self.table.create(Inode {
            size: 0,
            extents: Vec::new(),
            version: self.stamp(),
        });
        Reply::ok(wire::Writer::new().cap(&cap).finish())
    }

    fn read(&self, req: &Request) -> Reply {
        let mut r = wire::Reader::new(&req.params);
        let (Some(offset), Some(len)) = (r.u64(), r.u32()) else {
            return Reply::status(Status::BadRequest);
        };
        // The capability is validated first, on every read, and the
        // version, the range and the disk runs come from the inode
        // where it lives, under its table lock. Only then is the page
        // cache looked at: it holds bytes, and no authority.
        let plan = self.table.with_object(&req.cap, Rights::READ, |f| {
            let want = offset.min(f.size)..offset.saturating_add(len as u64).min(f.size);
            // What a miss fetches: the pages `want` touches, whole, up
            // to the end of the file.
            let fetch = want.start / PAGE * PAGE..(want.end.div_ceil(PAGE) * PAGE).min(f.size);
            let runs = extent_runs(&f.extents, self.block_size, fetch.start, fetch.end);
            (f.version, want, fetch, runs)
        });
        let (version, want, fetch, runs) = match plan {
            Ok(p) => p,
            Err(e) => return Reply::status(e.into()),
        };
        if want.is_empty() {
            return Reply::ok(Bytes::new());
        }
        let pool = self.disk.service().rpc().buf_pool();
        if let Some(body) = self.pages.serve(version, &want, pool) {
            return Reply::ok(body);
        }
        // One gather frame covers the whole range, however many extents
        // it crosses. No lock on the way to the disk: the RPC client
        // demuxes concurrent transactions and reads never touch inode
        // metadata.
        let bodies = match self.disk.read_many(&runs) {
            Ok(bodies) => bodies,
            Err(ClientError::Status(s)) => return Reply::status(s),
            Err(_) => return Reply::status(Status::NoSpace),
        };
        // A single run is passed on as it stands — a slice of the block
        // server's reply frame, copied once more, into ours.
        let fetched = match <[Bytes; 1]>::try_from(bodies) {
            Ok([body]) => body,
            Err(bodies) => {
                let total = bodies.iter().map(Bytes::len).sum();
                let joined = bodies
                    .iter()
                    .fold(wire::Writer::with_capacity(total), |w, body| w.raw(body));
                joined.finish()
            }
        };
        if fetched.len() as u64 != fetch.end - fetch.start {
            return Reply::status(Status::NoSpace);
        }
        // A write that raced this fetch re-stamps the inode once its
        // frame is back: these pages land under a version nothing will
        // ask for again.
        self.pages.offer(version, fetch.start / PAGE, &fetched);
        let within = (want.start - fetch.start) as usize..(want.end - fetch.start) as usize;
        Reply::ok(fetched.slice(within))
    }

    fn write(&self, req: &Request) -> Reply {
        let mut r = wire::Reader::new(&req.params);
        let (Some(offset), Some(data)) = (r.u64(), r.bytes()) else {
            return Reply::status(Status::BadRequest);
        };
        let bs = self.block_size;
        let Some(end) = offset.checked_add(data.len() as u64) else {
            return Reply::status(Status::OutOfRange);
        };
        // Serialise writers *of this inode* before looking at it, so a
        // concurrent writer's allocations are always visible (no leaked
        // blocks, no lost metadata). Writers to other files take other
        // stripes and run in parallel.
        let _writing = self.inode_locks.lock(req.cap.object);
        let meta = self.table.with_object(&req.cap, Rights::WRITE, |f| {
            let have: u64 = f.extents.iter().map(|e| u64::from(e.blocks)).sum();
            (f.size, have, extent_runs(&f.extents, bs, offset, end))
        });
        let (old_size, have, runs) = match meta {
            Ok(m) => m,
            Err(e) => return Reply::status(e.into()),
        };
        // One disk frame, whatever the write touches: the runs on
        // extents the inode has already are forwarded from the request
        // frame's data slice as WRITE scatters...
        let mut taken = 0usize;
        let scatters: Vec<(Capability, u32, &[u8])> = runs
            .into_iter()
            .map(|(cap, within, take)| {
                let run = &data[taken..taken + take as usize];
                taken += take as usize;
                (cap, within, run)
            })
            .collect();
        // ...and whatever lies past them goes into ONE fresh extent
        // that the same frame allocates, however many blocks it takes.
        let needed = end.div_ceil(bs);
        let grow = if needed > have {
            let from = offset.max(have * bs);
            let (Ok(shortfall), Ok(within)) = (
                u32::try_from(needed - have),
                u32::try_from(from - have * bs),
            ) else {
                return Reply::status(Status::OutOfRange);
            };
            Some((shortfall, within, &data[taken..]))
        } else {
            None
        };
        // A failed frame leaves no extent behind (the block client
        // frees one that was granted beside a failed scatter), and the
        // inode's size and extents change only if it succeeded.
        let written = self.disk.write_extending(&scatters, grow);
        let fresh = match &written {
            Ok(granted) => granted.map(|(cap, blocks)| Extent { cap, blocks }),
            Err(_) => None,
        };
        let new_size = old_size.max(end);
        // The version changes either way, and only now that the frame
        // is back. Either way: batch entries run independently, so a
        // refused write may have landed its scatters. Only now: what a
        // reader fetches while the frame is in flight may be the old
        // bytes, and must not end up under the version that names the
        // new ones.
        let stamped = self.table.with_object_mut(&req.cap, Rights::WRITE, |f| {
            f.version = self.stamp();
            if written.is_ok() {
                f.size = new_size;
                f.extents.extend(fresh);
            }
        });
        if stamped.is_err() {
            // The capability, good when this write began, died under
            // it. If it was revoked, the file lives on under a new one
            // and its pages are as stale.
            self.table
                .with_data_mut(req.cap.object, |f| f.version = self.stamp());
        }
        match (written, stamped) {
            (Ok(_), Ok(())) => Reply::ok(wire::Writer::new().u64(new_size).finish()),
            (Ok(_), Err(e)) => {
                // The new extent never made it into any inode and
                // would otherwise leak disk capacity forever.
                if let Some(ext) = &fresh {
                    if self.disk.free(&ext.cap).is_err() {
                        self.leaked(1);
                    }
                }
                Reply::status(e.into())
            }
            (Err(ClientError::Status(s)), _) => Reply::status(s),
            (Err(_), _) => Reply::status(Status::NoSpace),
        }
    }

    fn size(&self, req: &Request) -> Reply {
        match self.table.with_object(&req.cap, Rights::READ, |f| f.size) {
            Ok(s) => Reply::ok(wire::Writer::new().u64(s).finish()),
            Err(e) => Reply::status(e.into()),
        }
    }

    fn destroy(&self, req: &Request) -> Reply {
        match self.table.delete(&req.cap, Rights::DELETE) {
            Ok(inode) => {
                // Wait for any in-flight writer of this inode before
                // freeing its extents (one batch frame); unrelated
                // files are unaffected.
                let _writing = self.inode_locks.lock(req.cap.object);
                let caps: Vec<Capability> = inode.extents.iter().map(|e| e.cap).collect();
                if let Err((unconfirmed, _)) = self.disk.free_many(&caps) {
                    self.leaked(unconfirmed);
                }
                Reply::ok(Bytes::new())
            }
            Err(e) => Reply::status(e.into()),
        }
    }
}

impl Service for BlockFlatFsServer {
    fn bind(&mut self, put_port: Port) {
        self.table.set_port(put_port);
    }

    fn handle(&self, req: &Request, _ctx: &RequestCtx) -> Reply {
        if let Some(reply) = self.table.handle_std(req) {
            return reply;
        }
        match req.command {
            ops::CREATE => self.create(),
            ops::DESTROY => self.destroy(req),
            ops::READ => self.read(req),
            ops::WRITE => self.write(req),
            ops::SIZE => self.size(req),
            _ => Reply::status(Status::BadCommand),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FlatFsClient;
    use amoeba_block::{BlockServer, DiskConfig};
    use amoeba_server::ServiceRunner;

    fn setup(cfg: DiskConfig) -> (Network, ServiceRunner, ServiceRunner, FlatFsClient) {
        let net = Network::new();
        let disk = ServiceRunner::spawn_open(&net, BlockServer::new(cfg, SchemeKind::OneWay));
        let server = BlockFlatFsServer::new(&net, disk.put_port(), SchemeKind::Commutative);
        let fs_runner = ServiceRunner::spawn_open(&net, server);
        let client = FlatFsClient::open(&net, fs_runner.put_port());
        (net, disk, fs_runner, client)
    }

    fn small() -> DiskConfig {
        DiskConfig {
            block_size: 128,
            capacity_blocks: 32,
        }
    }

    /// Room for files of several pages, in blocks of a size that does
    /// not divide a page.
    fn paged() -> DiskConfig {
        DiskConfig {
            block_size: 768,
            capacity_blocks: 64,
        }
    }

    fn frames(net: &Network) -> u64 {
        net.stats().snapshot().packets_sent
    }

    /// Disk round trips the file server spends on one read that must
    /// return `expect`: the frames on the network, less the client's
    /// own two, halved.
    fn disk_trips(
        net: &Network,
        fs: &FlatFsClient,
        cap: &Capability,
        offset: u64,
        expect: &[u8],
    ) -> u64 {
        let before = frames(net);
        assert_eq!(fs.read(cap, offset, expect.len() as u32).unwrap(), expect);
        (frames(net) - before - 2) / 2
    }

    /// Reads `[offset, offset + len)` until it comes from memory: a
    /// miss, the miss that admits, a hit.
    fn warm(net: &Network, fs: &FlatFsClient, cap: &Capability, offset: u64, expect: &[u8]) {
        let trips = [(); 3].map(|()| disk_trips(net, fs, cap, offset, expect));
        assert_eq!(trips, [1, 1, 0], "miss, admission, hit");
    }

    fn patterned(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i % 251) as u8).collect()
    }

    #[test]
    fn same_client_same_protocol_block_backed_storage() {
        // The ordinary FlatFsClient drives the modular server untouched.
        let (_n, disk, fsr, fs) = setup(small());
        let cap = fs.create().unwrap();
        fs.write(&cap, 0, b"modular file system").unwrap();
        assert_eq!(&fs.read(&cap, 8, 4).unwrap(), b"file");
        assert_eq!(fs.size(&cap).unwrap(), 19);
        fsr.stop();
        disk.stop();
    }

    #[test]
    fn data_really_lives_on_the_block_server() {
        let (net, disk, fsr, fs) = setup(small());
        let stats = BlockClient::open(&net, disk.put_port());
        assert_eq!(stats.statfs().unwrap().allocated_blocks, 0);
        let cap = fs.create().unwrap();
        fs.write(&cap, 0, &vec![3u8; 300]).unwrap(); // 3 × 128B blocks
        assert_eq!(stats.statfs().unwrap().allocated_blocks, 3);
        fs.destroy(&cap).unwrap();
        assert_eq!(
            stats.statfs().unwrap().allocated_blocks,
            0,
            "destroy must return its blocks"
        );
        fsr.stop();
        disk.stop();
    }

    #[test]
    fn spanning_writes_and_reads() {
        let (_n, disk, fsr, fs) = setup(small());
        let cap = fs.create().unwrap();
        let data: Vec<u8> = (0..=255u8).chain(0..=255u8).collect(); // 512 B, 4 blocks
        let mut off = 0u64;
        for chunk in data.chunks(200) {
            fs.write(&cap, off, chunk).unwrap();
            off += chunk.len() as u64;
        }
        assert_eq!(fs.read(&cap, 0, 512).unwrap(), data);
        assert_eq!(fs.read(&cap, 120, 20).unwrap(), data[120..140]);
        fsr.stop();
        disk.stop();
    }

    #[test]
    fn disk_exhaustion_propagates() {
        let (net, disk, fsr, fs) = setup(DiskConfig {
            block_size: 64,
            capacity_blocks: 2,
        });
        let stats = BlockClient::open(&net, disk.put_port());
        let cap = fs.create().unwrap();
        fs.write(&cap, 0, &[1u8; 128]).unwrap();
        assert_eq!(
            fs.write(&cap, 128, b"x").unwrap_err(),
            ClientError::Status(Status::NoSpace)
        );
        // The failed write changed nothing: not the size, not a byte,
        // and it holds no block it was refused.
        assert_eq!(fs.size(&cap).unwrap(), 128);
        assert_eq!(fs.read(&cap, 0, 256).unwrap(), vec![1u8; 128]);
        assert_eq!(stats.statfs().unwrap().allocated_blocks, 2);
        // A refused write that also addressed bytes the file has
        // already is a partial write: its scatter landed before the
        // allocation beside it was turned down. With the file's page
        // in memory (the read above missed once; this one admits it),
        // the next read must still return what the disk holds.
        assert_eq!(disk_trips(&net, &fs, &cap, 0, &[1u8; 128]), 1);
        assert_eq!(disk_trips(&net, &fs, &cap, 0, &[1u8; 128]), 0);
        assert_eq!(
            fs.write(&cap, 100, &[7u8; 64]).unwrap_err(),
            ClientError::Status(Status::NoSpace)
        );
        let on_disk = [[1u8; 100].as_slice(), &[7u8; 28]].concat();
        assert_eq!(fs.size(&cap).unwrap(), 128);
        assert_eq!(disk_trips(&net, &fs, &cap, 0, &on_disk), 1);
        assert_eq!(stats.statfs().unwrap().allocated_blocks, 2);
        // Nor did either leave an extent in the inode: the file still
        // takes a write that fits, and destroy returns exactly two.
        fs.write(&cap, 64, &[2u8; 64]).unwrap();
        fs.destroy(&cap).unwrap();
        assert_eq!(stats.statfs().unwrap().allocated_blocks, 0);
        fsr.stop();
        disk.stop();
    }

    #[test]
    fn rights_still_enforced_through_the_stack() {
        let (_n, disk, fsr, fs) = setup(small());
        let cap = fs.create().unwrap();
        fs.write(&cap, 0, b"layered").unwrap();
        let ro = fs.service().restrict(&cap, Rights::READ).unwrap();
        assert_eq!(&fs.read(&ro, 0, 7).unwrap(), b"layered");
        assert_eq!(
            fs.write(&ro, 0, b"x").unwrap_err(),
            ClientError::Status(Status::RightsViolation)
        );
        fsr.stop();
        disk.stop();
    }

    #[test]
    fn writes_to_distinct_files_proceed_in_parallel() {
        // Per-inode locking acceptance: four concurrent writers to
        // four DISTINCT files must beat half the serial bound (4 × one
        // write's span). The replaced global write mutex serialised
        // exactly this workload and would fail the gate.
        use std::time::Duration;

        // One write = 1 RTT against the disk (allocation and data in
        // one frame) plus the client↔fs RTT: 20 ms of slept-out hops,
        // which a busy host does not stretch the way it stretches
        // computation. (The file server blocks a worker on the disk,
        // so this cannot be a simulator actor yet.)
        const HOP: Duration = Duration::from_millis(5);

        let run = |writers: usize| -> Duration {
            let net = Network::new();
            let disk = ServiceRunner::spawn_open_workers(
                &net,
                BlockServer::new(
                    DiskConfig {
                        block_size: 128,
                        capacity_blocks: 64,
                    },
                    SchemeKind::OneWay,
                ),
                4,
            );
            let server = BlockFlatFsServer::new(&net, disk.put_port(), SchemeKind::Commutative);
            let fs_runner = ServiceRunner::spawn_open_workers(&net, server, 4);
            let fs = FlatFsClient::open(&net, fs_runner.put_port());
            let caps: Vec<Capability> = (0..writers).map(|_| fs.create().unwrap()).collect();
            net.set_latency(HOP);
            let v0 = net.now();
            let handles: Vec<_> = caps
                .into_iter()
                .map(|cap| {
                    let net = net.clone();
                    let port = fs_runner.put_port();
                    std::thread::spawn(move || {
                        FlatFsClient::open(&net, port)
                            .write(&cap, 0, &[7u8; 100])
                            .unwrap();
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
            let elapsed = net.now().saturating_duration_since(v0);
            net.set_latency(Duration::ZERO);
            fs_runner.stop();
            disk.stop();
            elapsed
        };

        let single = run(1);
        let parallel = run(4);
        assert!(
            parallel * 2 <= single * 4,
            "4 distinct-file writes must overlap their disk hops \
             (≥2× over serial): single={single:?} 4-parallel={parallel:?}"
        );
    }

    #[test]
    fn concurrent_distinct_file_writes_stay_correct_under_a_pool() {
        // Correctness side of per-inode locking: a worker pool writing
        // many files at once must neither mix data nor leak blocks.
        use amoeba_server::ServiceClient;

        let net = Network::new();
        let disk = ServiceRunner::spawn_open_workers(
            &net,
            BlockServer::new(
                DiskConfig {
                    block_size: 64,
                    capacity_blocks: 256,
                },
                SchemeKind::OneWay,
            ),
            4,
        );
        let server = BlockFlatFsServer::new(&net, disk.put_port(), SchemeKind::Commutative);
        let fs_runner = ServiceRunner::spawn_open_workers(&net, server, 4);
        let port = fs_runner.put_port();
        let handles: Vec<_> = (0..6u8)
            .map(|t| {
                let net = net.clone();
                std::thread::spawn(move || {
                    let fs = FlatFsClient::with_service(ServiceClient::open(&net), port);
                    for round in 0..4u8 {
                        let cap = fs.create().unwrap();
                        let body = vec![t * 16 + round; 150]; // 3 blocks
                        fs.write(&cap, 0, &body).unwrap();
                        assert_eq!(fs.read(&cap, 0, 150).unwrap(), body);
                        fs.destroy(&cap).unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let stats = BlockClient::open(&net, disk.put_port());
        assert_eq!(
            stats.statfs().unwrap().allocated_blocks,
            0,
            "every destroyed file must have returned its blocks"
        );
        fs_runner.stop();
        disk.stop();
    }

    #[test]
    fn a_page_is_admitted_on_its_second_miss_and_served_from_memory_after() {
        let (net, disk, fsr, fs) = setup(paged());
        net.obs().enable();
        let counts = || {
            let m = net.obs().snapshot().expect("recorder is on");
            (
                m.page_cache_hits,
                m.page_cache_misses,
                m.page_cache_admissions,
            )
        };
        // Two pages and a 100-byte third, across two extents.
        let body = patterned(2 * PAGE as usize + 100);
        let cap = fs.create().unwrap();
        fs.write(&cap, 0, &body[..5000]).unwrap();
        fs.write(&cap, 5000, &body[5000..]).unwrap();

        let first = &body[..PAGE as usize];
        assert_eq!(disk_trips(&net, &fs, &cap, 0, first), 1);
        assert_eq!(counts(), (0, 1, 0), "a miss");
        assert_eq!(disk_trips(&net, &fs, &cap, 0, first), 1);
        assert_eq!(counts(), (0, 2, 1), "a miss, and the page is kept");
        assert_eq!(disk_trips(&net, &fs, &cap, 0, first), 0);
        assert_eq!(counts(), (1, 2, 1), "a hit");

        // Any part of a held page is a hit; a range that reaches into
        // a page that is not held goes to the disk, once, for all of it
        // — and offers page 1 a second time.
        assert_eq!(disk_trips(&net, &fs, &cap, 100, &body[100..150]), 0);
        assert_eq!(disk_trips(&net, &fs, &cap, 4000, &body[4000..4200]), 1);
        assert_eq!(counts(), (2, 4, 1));
        assert_eq!(disk_trips(&net, &fs, &cap, 4096, &body[4096..4100]), 1);
        assert_eq!(counts(), (2, 5, 2));
        assert_eq!(disk_trips(&net, &fs, &cap, 10, &body[10..8000]), 0);
        assert_eq!(counts(), (4, 5, 2), "two pages, both from memory");

        // The short last page is a page like the others, and a read is
        // clipped to the file in memory as it is on the disk.
        let tail = &body[2 * PAGE as usize..];
        warm(&net, &fs, &cap, 2 * PAGE, tail);
        let before = frames(&net);
        assert_eq!(fs.read(&cap, 2 * PAGE + 90, 500).unwrap(), tail[90..]);
        assert_eq!(fs.read(&cap, 5, u32::MAX).unwrap(), body[5..]);
        assert_eq!(fs.read(&cap, 9000, 10).unwrap(), b"");
        assert_eq!(fs.read(&cap, 77, 0).unwrap(), b"");
        assert_eq!(frames(&net) - before, 8, "four reads, no disk frame");
        fsr.stop();
        disk.stop();
    }

    #[test]
    fn a_warm_cache_serves_no_capability_the_table_refuses() {
        let (net, disk, fsr, fs) = setup(paged());
        let secret = patterned(3000);
        let cap = fs.create().unwrap();
        fs.write(&cap, 0, &secret).unwrap();
        warm(&net, &fs, &cap, 0, &secret);
        let refused = |cap: &Capability, status: Status, why: &str| {
            let before = frames(&net);
            let got = fs.read(cap, 0, 3000).unwrap_err();
            assert_eq!(got, ClientError::Status(status), "{why}");
            assert_eq!(frames(&net) - before, 2, "{why}: refused before the disk");
        };

        let blind = fs
            .service()
            .restrict(&cap, Rights::WRITE | Rights::DELETE)
            .unwrap();
        refused(&blind, Status::RightsViolation, "restricted to no READ");
        let forged = Capability {
            check: cap.check ^ 1,
            ..cap
        };
        refused(&forged, Status::Forged, "a guessed check field");
        let widened = Capability {
            rights: Rights::ALL,
            ..blind
        };
        refused(&widened, Status::Forged, "rights put back by hand");

        // Revocation ends the old capability; the bytes are the file's,
        // so its new capability finds them where they were.
        let fresh = fs.service().revoke(&cap).unwrap();
        refused(&cap, Status::Forged, "revoked");
        assert_eq!(disk_trips(&net, &fs, &fresh, 0, &secret), 0);

        fs.destroy(&fresh).unwrap();
        refused(&fresh, Status::NoSuchObject, "destroyed");

        // The object number goes to the next file. Neither the dead
        // capability nor the new one reaches the dead file's page.
        let reborn = fs.create().unwrap();
        assert_eq!(reborn.object, fresh.object, "the number is reused");
        refused(&fresh, Status::Forged, "another file's number now");
        assert_eq!(disk_trips(&net, &fs, &reborn, 0, b""), 0);
        fs.write(&reborn, 0, b"new tenant").unwrap();
        let before = frames(&net);
        assert_eq!(fs.read(&reborn, 0, 3000).unwrap(), b"new tenant");
        assert_eq!(frames(&net) - before, 4, "a first read: from the disk");
        fsr.stop();
        disk.stop();
    }

    /// A block server whose `WRITE`s wait at the door until the test
    /// lets them in, so the interleavings below are forced, not hoped
    /// for. (A file's first write is an `ALLOC_WRITE` and walks through.)
    struct GatedDisk {
        inner: BlockServer,
        arrived: std::sync::mpsc::Sender<()>,
        admit: parking_lot::Mutex<std::sync::mpsc::Receiver<()>>,
    }

    impl Service for GatedDisk {
        fn bind(&mut self, put_port: Port) {
            self.inner.bind(put_port);
        }

        fn handle(&self, req: &Request, ctx: &RequestCtx) -> Reply {
            if req.command == amoeba_block::ops::WRITE {
                self.arrived.send(()).unwrap();
                self.admit.lock().recv().unwrap();
            }
            self.inner.handle(req, ctx)
        }
    }

    /// A one-page file of 1s, and a second client overwriting it with
    /// 2s whose disk frame has arrived at the disk and is held there;
    /// the closure lets the frame in and returns what the write was
    /// answered.
    fn write_held_at_the_disk() -> (
        Network,
        [ServiceRunner; 2],
        FlatFsClient,
        Capability,
        impl FnOnce() -> Result<u64, ClientError>,
    ) {
        let net = Network::new();
        let (arrived, at_the_door) = std::sync::mpsc::channel();
        let (let_in, admit) = std::sync::mpsc::channel();
        let gated = GatedDisk {
            inner: BlockServer::new(paged(), SchemeKind::OneWay),
            arrived,
            admit: parking_lot::Mutex::new(admit),
        };
        let disk = ServiceRunner::spawn_open_workers(&net, gated, 2);
        let server = BlockFlatFsServer::new(&net, disk.put_port(), SchemeKind::Commutative);
        let fsr = ServiceRunner::spawn_open_workers(&net, server, 2);
        let fs = FlatFsClient::open(&net, fsr.put_port());
        let cap = fs.create().unwrap();
        fs.write(&cap, 0, &[1u8; PAGE as usize]).unwrap();
        let writer = {
            let other = FlatFsClient::open(&net, fsr.put_port());
            std::thread::spawn(move || other.write(&cap, 0, &[2u8; PAGE as usize]))
        };
        at_the_door.recv().unwrap();
        let finish = move || {
            let_in.send(()).unwrap();
            writer.join().unwrap()
        };
        (net, [disk, fsr], fs, cap, finish)
    }

    #[test]
    fn pages_fetched_while_a_write_is_in_flight_are_not_served_after_it() {
        let (net, runners, fs, cap, finish_write) = write_held_at_the_disk();
        // The write is unacknowledged: reading the old bytes is right,
        // and reading them twice admits the page — under the version
        // the file had before the write, because the inode is stamped
        // only when the frame is back.
        warm(&net, &fs, &cap, 0, &[1u8; PAGE as usize]);
        assert_eq!(finish_write().unwrap(), PAGE);
        assert_eq!(
            disk_trips(&net, &fs, &cap, 0, &[2u8; PAGE as usize]),
            1,
            "an acknowledged write is what every later read returns"
        );
        runners.into_iter().for_each(ServiceRunner::stop);
    }

    #[test]
    fn a_write_that_outlives_its_capability_still_ends_the_cached_version() {
        let (net, runners, fs, cap, finish_write) = write_held_at_the_disk();
        warm(&net, &fs, &cap, 0, &[1u8; PAGE as usize]);
        // Revoked under the writer: its frame lands on the disk all the
        // same, the write is refused, and the file lives on under the
        // new capability with bytes its cached page does not have.
        let fresh = fs.service().revoke(&cap).unwrap();
        assert_eq!(
            finish_write().unwrap_err(),
            ClientError::Status(Status::Forged)
        );
        assert_eq!(disk_trips(&net, &fs, &fresh, 0, &[2u8; PAGE as usize]), 1);
        runners.into_iter().for_each(ServiceRunner::stop);
    }

    /// A disk that serves everything but `FREE`.
    struct NeverFrees(BlockServer);

    impl Service for NeverFrees {
        fn bind(&mut self, put_port: Port) {
            self.0.bind(put_port);
        }

        fn handle(&self, req: &Request, ctx: &RequestCtx) -> Reply {
            match req.command {
                amoeba_block::ops::FREE => Reply::status(Status::Unsupported),
                _ => self.0.handle(req, ctx),
            }
        }
    }

    #[test]
    fn extents_the_disk_did_not_free_are_counted() {
        let net = Network::new();
        net.obs().enable();
        let leaked = || net.obs().snapshot().expect("recorder is on").extents_leaked;
        let disk = ServiceRunner::spawn_open(
            &net,
            NeverFrees(BlockServer::new(small(), SchemeKind::OneWay)),
        );
        let server = BlockFlatFsServer::new(&net, disk.put_port(), SchemeKind::Commutative);
        let fsr = ServiceRunner::spawn_open(&net, server);
        let fs = FlatFsClient::open(&net, fsr.put_port());

        // Three extents, freed in one batch frame whose entries fail
        // one by one; then a lone extent, freed by a plain FREE.
        let cap = fs.create().unwrap();
        for chunk in 0..3 {
            fs.write(&cap, chunk * 128, &[7u8; 128]).unwrap();
        }
        assert_eq!(leaked(), 0);
        fs.destroy(&cap).unwrap();
        assert_eq!(
            leaked(),
            3,
            "the client's file is gone, the disk's blocks are not"
        );
        let cap = fs.create().unwrap();
        fs.write(&cap, 0, b"one extent").unwrap();
        fs.destroy(&cap).unwrap();
        assert_eq!(leaked(), 4);

        let stats = BlockClient::open(&net, disk.put_port());
        assert_eq!(stats.statfs().unwrap().allocated_blocks, 4);
        fsr.stop();
        disk.stop();
    }

    #[test]
    fn revocation_works_on_the_modular_server_too() {
        let (_n, disk, fsr, fs) = setup(small());
        let cap = fs.create().unwrap();
        fs.write(&cap, 0, b"will be orphaned").unwrap();
        let fresh = fs.service().revoke(&cap).unwrap();
        assert!(fs.read(&cap, 0, 1).is_err());
        assert_eq!(&fs.read(&fresh, 0, 4).unwrap(), b"will");
        fsr.stop();
        disk.stop();
    }
}
