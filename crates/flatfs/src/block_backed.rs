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
//! A `DESTROY` sends nothing to the disk. The server holds the
//! destroyed file's extents as *retired*, and the next `ALLOC_WRITE`
//! it sends anyway — the next write that grows a file — carries them
//! to the block server, which frees them inside that handler
//! (docs/PROTOCOL.md, `ALLOC_WRITE`). It holds one destroyed file's
//! extents at most: a destroy that finds some already held frees
//! those, in one frame, before it holds its own. What an observer can
//! tell: the disk's `STATFS` may count one destroyed file's blocks
//! until this server's next allocation, and a crash leaks that one
//! file's extents (as a crash between the table delete and the `FREE`
//! always could). Nothing else: no client capability reaches a retired
//! extent, and the file's cached pages sit under a version no inode
//! holds.
//!
//! [`FlatFsClient`]: crate::FlatFsClient

use crate::page_cache::{PageCache, PAGE};
use crate::{command, ops};
use amoeba_block::{disk_status, BlockClient, Extended, Fresh};
use amoeba_cap::schemes::SchemeKind;
use amoeba_cap::{Capability, Rights};
use amoeba_net::{Network, Obs, Port};
use amoeba_server::proto::{Reply, Request, Status};
use amoeba_server::{dispatch, wire, Command, ObjectLocks, ObjectTable, RequestCtx, Service};
use bytes::Bytes;
use parking_lot::Mutex;
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
    /// Extents no inode holds any more — the last destroyed file's, or
    /// a write's orphan — for the next `ALLOC_WRITE` to free.
    retired: Mutex<Vec<Capability>>,
    obs: Obs,
}

impl BlockFlatFsServer {
    const COMMANDS: &'static [Command<Self>] = &[
        command(ops::CREATE, Self::create),
        command(ops::DESTROY, Self::destroy),
        command(ops::READ, Self::read),
        command(ops::WRITE, Self::write),
        command(ops::SIZE, Self::size),
    ];

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
            retired: Mutex::new(Vec::new()),
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

    /// Holds `caps` — one destroyed file's extents, or one write's
    /// orphan — for the next `ALLOC_WRITE` to free in its own frame. The
    /// one way an extent goes back to the disk. Whatever was held
    /// already is freed now, in one frame, so no more than one such set
    /// is ever held.
    fn retire(&self, caps: Vec<Capability>) {
        if caps.is_empty() {
            return;
        }
        let earlier = std::mem::replace(&mut *self.retired.lock(), caps);
        if let Err((unconfirmed, _)) = self.disk.free_many(&earlier) {
            self.leaked(unconfirmed);
        }
    }

    /// A content version no inode has held before. Only uniqueness is
    /// asked of the counter: the version reaches readers through the
    /// inode, under the object table's lock.
    fn stamp(&self) -> u64 {
        self.versions.fetch_add(1, Ordering::Relaxed) + 1
    }

    fn create(&self, _: &Request, _: Rights) -> Result<Bytes, Status> {
        let (_, cap) = self.table.create(Inode {
            size: 0,
            extents: Vec::new(),
            version: self.stamp(),
        });
        Ok(wire::Writer::new().cap(&cap).finish())
    }

    fn read(&self, req: &Request, need: Rights) -> Result<Bytes, Status> {
        let mut r = wire::Reader::new(&req.params);
        let (Some(offset), Some(len)) = (r.u64(), r.u32()) else {
            return Err(Status::BadRequest);
        };
        // The capability is validated first, on every read, and the
        // version, the range and the disk runs come from the inode
        // where it lives, under its table lock. Only then is the page
        // cache looked at: it holds bytes, and no authority.
        let (version, want, fetch, runs) = self.table.with_object(&req.cap, need, |f| {
            let want = offset.min(f.size)..offset.saturating_add(len as u64).min(f.size);
            // What a miss fetches: the pages `want` touches, whole, up
            // to the end of the file.
            let fetch = want.start / PAGE * PAGE..(want.end.div_ceil(PAGE) * PAGE).min(f.size);
            let runs = extent_runs(&f.extents, self.block_size, fetch.start, fetch.end);
            (f.version, want, fetch, runs)
        })?;
        if want.is_empty() {
            return Ok(Bytes::new());
        }
        let pool = self.disk.service().rpc().buf_pool();
        if let Some(body) = self.pages.serve(version, &want, pool) {
            return Ok(body);
        }
        // One gather frame covers the whole range, however many extents
        // it crosses. No lock on the way to the disk: the RPC client
        // demuxes concurrent transactions and reads never touch inode
        // metadata.
        let bodies = self.disk.read_many(&runs).map_err(disk_status)?;
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
            return Err(Status::NoSpace);
        }
        // A write that raced this fetch re-stamps the inode once its
        // frame is back: these pages land under a version nothing will
        // ask for again.
        self.pages.offer(version, fetch.start / PAGE, &fetched);
        let within = (want.start - fetch.start) as usize..(want.end - fetch.start) as usize;
        Ok(fetched.slice(within))
    }

    fn write(&self, req: &Request, need: Rights) -> Result<Bytes, Status> {
        let mut r = wire::Reader::new(&req.params);
        let (Some(offset), Some(data)) = (r.u64(), r.bytes()) else {
            return Err(Status::BadRequest);
        };
        let bs = self.block_size;
        let end = offset
            .checked_add(data.len() as u64)
            .ok_or(Status::OutOfRange)?;
        // Serialise writers *of this inode* before looking at it, so a
        // concurrent writer's allocations are always visible (no leaked
        // blocks, no lost metadata). Writers to other files take other
        // stripes and run in parallel.
        let _writing = self.inode_locks.lock(req.cap.object);
        let (old_size, have, runs) = self.table.with_object(&req.cap, need, |f| {
            let have: u64 = f.extents.iter().map(|e| u64::from(e.blocks)).sum();
            (f.size, have, extent_runs(&f.extents, bs, offset, end))
        })?;
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
                return Err(Status::OutOfRange);
            };
            Some((shortfall, within, &data[taken..]))
        } else {
            None
        };
        // An allocating frame carries the retired extents; one the
        // disk turned down leaves them held for the next.
        let retiring = match grow {
            Some(_) => std::mem::take(&mut *self.retired.lock()),
            None => Vec::new(),
        };
        let fresh = grow.map(|(n, offset, data)| Fresh {
            n,
            offset,
            data,
            retire: &retiring,
        });
        // A failed frame leaves no extent behind (the block client
        // frees one that was granted beside a failed scatter), and the
        // inode's size and extents change only if it succeeded.
        let Extended { written, not_freed } = self.disk.write_extending(&scatters, fresh);
        match not_freed {
            Some(not_freed) => self.leaked(not_freed as usize),
            None => self.retire(retiring),
        }
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
        let stamped = self.table.with_object_mut(&req.cap, need, |f| {
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
        written.map_err(disk_status)?;
        if let Err(e) = stamped {
            // The new extent never made it into any inode and would
            // otherwise leak disk capacity forever.
            self.retire(fresh.iter().map(|ext| ext.cap).collect());
            return Err(e.into());
        }
        Ok(wire::Writer::new().u64(new_size).finish())
    }

    fn size(&self, req: &Request, need: Rights) -> Result<Bytes, Status> {
        let size = self.table.with_object(&req.cap, need, |f| f.size)?;
        Ok(wire::Writer::new().u64(size).finish())
    }

    fn destroy(&self, req: &Request, need: Rights) -> Result<Bytes, Status> {
        let inode = self.table.delete(&req.cap, need)?;
        // Wait for any in-flight writer of this inode before retiring
        // its extents; unrelated files are unaffected.
        let _writing = self.inode_locks.lock(req.cap.object);
        self.retire(inode.extents.iter().map(|e| e.cap).collect());
        Ok(Bytes::new())
    }
}

impl Service for BlockFlatFsServer {
    fn bind(&mut self, put_port: Port) {
        self.table.set_port(put_port);
    }

    fn handle(&self, req: &Request, _ctx: &RequestCtx) -> Reply {
        dispatch(self, &self.table, Self::COMMANDS, req)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FlatFsClient;
    use amoeba_block::{BlockServer, DiskConfig};
    use amoeba_server::{ClientError, ServiceRunner};

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
        // Destroy sends the disk nothing: its blocks are held until the
        // server's next allocation, whose frame frees them.
        let before = frames(&net);
        fs.destroy(&cap).unwrap();
        assert_eq!(frames(&net) - before, 2, "no disk frame");
        assert_eq!(stats.statfs().unwrap().allocated_blocks, 3, "held");
        let next = fs.create().unwrap();
        fs.write(&next, 0, b"x").unwrap();
        assert_eq!(
            stats.statfs().unwrap().allocated_blocks,
            1,
            "the next allocation must return the destroyed file's blocks"
        );
        fsr.stop();
        disk.stop();
    }

    #[test]
    fn a_destroy_then_a_write_of_its_size_fits_a_full_disk_in_one_round_trip() {
        let (net, disk, fsr, fs) = setup(DiskConfig {
            block_size: 64,
            capacity_blocks: 2,
        });
        let stats = BlockClient::open(&net, disk.put_port());
        let old = fs.create().unwrap();
        fs.write(&old, 0, &[1u8; 128]).unwrap();
        assert_eq!(stats.statfs().unwrap().allocated_blocks, 2, "full");
        let new = fs.create().unwrap();
        let before = frames(&net);
        fs.destroy(&old).unwrap();
        fs.write(&new, 0, &[2u8; 128]).unwrap();
        assert_eq!(
            frames(&net) - before,
            2 + 4,
            "the destroy sends the disk nothing, and the write's one disk \
             round trip frees the two blocks it is granted"
        );
        assert_eq!(stats.statfs().unwrap().allocated_blocks, 2);
        assert_eq!(fs.read(&new, 0, 128).unwrap(), [2u8; 128]);
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
        // takes a write that fits, and its destroy retires exactly two —
        // which a new file's write of two blocks gets on the full disk.
        fs.write(&cap, 64, &[2u8; 64]).unwrap();
        fs.destroy(&cap).unwrap();
        assert_eq!(stats.statfs().unwrap().allocated_blocks, 2);
        let next = fs.create().unwrap();
        fs.write(&next, 0, &[3u8; 128]).unwrap();
        assert_eq!(stats.statfs().unwrap().allocated_blocks, 2);
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
        // Every write came before its own file's destroy, so the last
        // destroy's three blocks are the only ones the server holds.
        let stats = BlockClient::open(&net, disk.put_port());
        assert_eq!(
            stats.statfs().unwrap().allocated_blocks,
            3,
            "every destroyed file but the last must have returned its blocks"
        );
        let fs = FlatFsClient::open(&net, port);
        fs.write(&fs.create().unwrap(), 0, b"x").unwrap();
        assert_eq!(stats.statfs().unwrap().allocated_blocks, 1);
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

    /// A block server where the first frame of one command to arrive
    /// once the gate is armed waits at the door until the test lets it
    /// in, so the interleavings below are forced, not hoped for.
    struct GatedDisk {
        inner: BlockServer,
        gated: u32,
        armed: std::sync::Arc<std::sync::atomic::AtomicBool>,
        arrived: std::sync::mpsc::Sender<()>,
        admit: parking_lot::Mutex<std::sync::mpsc::Receiver<()>>,
    }

    impl Service for GatedDisk {
        fn bind(&mut self, put_port: Port) {
            self.inner.bind(put_port);
        }

        fn handle(&self, req: &Request, ctx: &RequestCtx) -> Reply {
            if req.command == self.gated && self.armed.swap(false, Ordering::SeqCst) {
                self.arrived.send(()).unwrap();
                self.admit.lock().recv().unwrap();
            }
            self.inner.handle(req, ctx)
        }
    }

    /// A one-page file of 1s, and a second client writing `with` at
    /// `offset` whose disk frame — the first of command `gated` — has
    /// arrived at the disk and is held there; the closure lets the
    /// frame in and returns what the write was answered.
    fn write_held_at_the_disk(
        gated: u32,
        offset: u64,
        with: u8,
    ) -> (
        Network,
        [ServiceRunner; 2],
        FlatFsClient,
        Capability,
        impl FnOnce() -> Result<u64, ClientError>,
    ) {
        let net = Network::new();
        let (arrived, at_the_door) = std::sync::mpsc::channel();
        let (let_in, admit) = std::sync::mpsc::channel();
        let armed = std::sync::Arc::default();
        let door = GatedDisk {
            inner: BlockServer::new(paged(), SchemeKind::OneWay),
            gated,
            armed: std::sync::Arc::clone(&armed),
            arrived,
            admit: parking_lot::Mutex::new(admit),
        };
        let disk = ServiceRunner::spawn_open_workers(&net, door, 2);
        let server = BlockFlatFsServer::new(&net, disk.put_port(), SchemeKind::Commutative);
        let fsr = ServiceRunner::spawn_open_workers(&net, server, 2);
        let fs = FlatFsClient::open(&net, fsr.put_port());
        let cap = fs.create().unwrap();
        fs.write(&cap, 0, &[1u8; PAGE as usize]).unwrap();
        armed.store(true, Ordering::SeqCst);
        let writer = {
            let other = FlatFsClient::open(&net, fsr.put_port());
            std::thread::spawn(move || other.write(&cap, offset, &[with; PAGE as usize]))
        };
        at_the_door.recv().unwrap();
        let finish = move || {
            let_in.send(()).unwrap();
            writer.join().unwrap()
        };
        (net, [disk, fsr], fs, cap, finish)
    }

    /// An overwrite of the one page with 2s, held at the disk.
    fn overwrite_held_at_the_disk() -> (
        Network,
        [ServiceRunner; 2],
        FlatFsClient,
        Capability,
        impl FnOnce() -> Result<u64, ClientError>,
    ) {
        write_held_at_the_disk(amoeba_block::ops::WRITE, 0, 2)
    }

    #[test]
    fn pages_fetched_while_a_write_is_in_flight_are_not_served_after_it() {
        let (net, runners, fs, cap, finish_write) = overwrite_held_at_the_disk();
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
        let (net, runners, fs, cap, finish_write) = overwrite_held_at_the_disk();
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

    #[test]
    fn an_extent_orphaned_under_its_writer_is_retired_like_a_destroyed_files() {
        // A write that grows the one-page file by a page, held at the
        // disk while the file is revoked.
        let (net, runners, fs, cap, finish_write) =
            write_held_at_the_disk(amoeba_block::ops::ALLOC_WRITE, PAGE, 3);
        let fresh = fs.service().revoke(&cap).unwrap();
        assert_eq!(
            finish_write().unwrap_err(),
            ClientError::Status(Status::Forged)
        );
        // The extent it was granted is in no inode: held, as a destroyed
        // file's would be, and gone with the next allocation.
        let stats = BlockClient::open(&net, runners[0].put_port());
        let blocks = |bytes: u64| bytes.div_ceil(paged().block_size as u64) as u32;
        assert_eq!(stats.statfs().unwrap().allocated_blocks, blocks(2 * PAGE));
        assert_eq!(fs.size(&fresh).unwrap(), PAGE);
        fs.write(&fs.create().unwrap(), 0, b"x").unwrap();
        assert_eq!(stats.statfs().unwrap().allocated_blocks, blocks(PAGE) + 1);
        runners.into_iter().for_each(ServiceRunner::stop);
    }

    /// A disk that serves everything but freeing: `FREE` is refused,
    /// and an `ALLOC_WRITE` is served without its retire list, every
    /// listed extent counted as not freed.
    struct NeverFrees(BlockServer);

    impl Service for NeverFrees {
        fn bind(&mut self, put_port: Port) {
            self.0.bind(put_port);
        }

        fn handle(&self, req: &Request, ctx: &RequestCtx) -> Reply {
            let mut r = wire::Reader::new(&req.params);
            match (req.command, r.u32(), r.u32(), r.bytes()) {
                (amoeba_block::ops::FREE, ..) => Reply::status(Status::Unsupported),
                (amoeba_block::ops::ALLOC_WRITE, Some(_), Some(_), Some(_)) if !r.is_empty() => {
                    let bare = Request {
                        cap: req.cap,
                        command: req.command,
                        params: req.params.slice(..req.params.len() - r.remainder().len()),
                    };
                    let listed = r.u32().unwrap_or_default();
                    let reply = self.0.handle(&bare, ctx);
                    match reply.status {
                        Status::Ok => {
                            Reply::ok(wire::Writer::new().raw(&reply.body).u32(listed).finish())
                        }
                        _ => reply,
                    }
                }
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

        // Files of three extents, one and three, written while nothing
        // is held, so no write carries a list.
        let files = [3, 1, 3].map(|extents| {
            let cap = fs.create().unwrap();
            for chunk in 0..extents {
                fs.write(&cap, chunk * 128, &[7u8; 128]).unwrap();
            }
            cap
        });
        // A destroy holds its file's extents and tells the disk nothing.
        fs.destroy(&files[0]).unwrap();
        assert_eq!(leaked(), 0);
        // The next one frees the three held in one batch frame, whose
        // entries fail one by one...
        fs.destroy(&files[1]).unwrap();
        assert_eq!(
            leaked(),
            3,
            "the client's file is gone, the disk's blocks are not"
        );
        // ...and the one after that the lone extent, by a plain FREE.
        fs.destroy(&files[2]).unwrap();
        assert_eq!(leaked(), 4);
        // The last three go with the next allocation, which frees none.
        let next = fs.create().unwrap();
        fs.write(&next, 0, b"one extent").unwrap();
        assert_eq!(leaked(), 7);

        let stats = BlockClient::open(&net, disk.put_port());
        assert_eq!(stats.statfs().unwrap().allocated_blocks, 8);
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

    /// Disk-capacity conservation: a model of the files' sizes checked
    /// against the disk's own count after every step.
    mod conservation {
        use super::*;
        use amoeba_server::proto::{cmd, null_cap};
        use proptest::prelude::*;

        const DISK: DiskConfig = DiskConfig {
            block_size: 64,
            capacity_blocks: 16,
        };

        #[derive(Debug, Clone)]
        enum Step {
            Create,
            /// Bytes the file has already: nothing is allocated.
            Overwrite {
                file: usize,
                at: u64,
                len: u64,
            },
            /// From `back` bytes before the end of the file to `len`
            /// past it: a fresh write on an empty file, and growth that
            /// overlaps the last extent whenever `back` reaches into it.
            Grow {
                file: usize,
                back: u64,
                len: u64,
            },
            Destroy {
                file: usize,
            },
            Revoke {
                file: usize,
            },
        }

        fn steps() -> impl Strategy<Value = Vec<Step>> {
            let step =
                prop_oneof![
                    Just(Step::Create),
                    (any::<usize>(), any::<u64>(), 0u64..200)
                        .prop_map(|(file, at, len)| Step::Overwrite { file, at, len }),
                    (any::<usize>(), 0u64..200, 1u64..400)
                        .prop_map(|(file, back, len)| Step::Grow { file, back, len }),
                    any::<usize>().prop_map(|file| Step::Destroy { file }),
                    any::<usize>().prop_map(|file| Step::Revoke { file }),
                ];
            proptest::collection::vec(step, 1..32)
        }

        /// A live file, as the model sees it.
        struct File {
            cap: Capability,
            size: u64,
            extents: usize,
        }

        fn blocks(size: u64) -> u32 {
            size.div_ceil(u64::from(DISK.block_size)) as u32
        }

        /// One request straight into the handler, so the test can look
        /// at what the server holds between requests.
        fn ask(server: &BlockFlatFsServer, cap: Capability, command: u32, params: Bytes) -> Reply {
            let req = Request {
                cap,
                command,
                params,
            };
            let ctx = RequestCtx {
                source: amoeba_net::MachineId::from(1),
                signature: None,
            };
            server.handle(&req, &ctx)
        }

        fn write(server: &BlockFlatFsServer, cap: Capability, offset: u64, len: u64) -> Status {
            let data = vec![0xA5; len as usize];
            let params = wire::Writer::new().u64(offset).bytes(&data).finish();
            ask(server, cap, ops::WRITE, params).status
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// After every create, fresh write, overwrite, overlapping
            /// growth, destroy and revoke, the disk counts exactly the
            /// blocks of every live file's extents plus those the server
            /// holds retired; and what it holds is the last destroyed
            /// file's extents (the last one that had any), or nothing
            /// once an allocation has carried them — never more.
            #[test]
            fn the_disk_counts_live_extents_and_one_destroyed_files(steps in steps()) {
                let net = Network::new();
                net.obs().enable();
                let disk = ServiceRunner::spawn_open(&net, BlockServer::new(DISK, SchemeKind::OneWay));
                let stats = BlockClient::open(&net, disk.put_port());
                let mut server = BlockFlatFsServer::new(&net, disk.put_port(), SchemeKind::Commutative);
                server.bind(Port::new(0xF5).unwrap());
                let mut files: Vec<File> = Vec::new();
                // The retired set's blocks and extents, and the blocks of
                // the last file destroyed with any.
                let (mut held, mut held_extents, mut last_destroyed) = (0u32, 0usize, 0u32);
                for step in steps {
                    let live: u32 = files.iter().map(|f| blocks(f.size)).sum();
                    let pick = |i: usize| (!files.is_empty()).then(|| i % files.len());
                    match step {
                        Step::Create => {
                            let reply = ask(&server, null_cap(), ops::CREATE, Bytes::new());
                            prop_assert_eq!(reply.status, Status::Ok);
                            let cap = wire::Reader::new(&reply.body).cap().unwrap();
                            files.push(File { cap, size: 0, extents: 0 });
                        }
                        Step::Overwrite { file, at, len } => {
                            let Some(i) = pick(file) else { continue };
                            let f = &files[i];
                            let offset = at % (f.size + 1);
                            let len = len.min(f.size - offset);
                            prop_assert_eq!(write(&server, f.cap, offset, len), Status::Ok);
                        }
                        Step::Grow { file, back, len } => {
                            let Some(i) = pick(file) else { continue };
                            let f = &mut files[i];
                            let offset = f.size - back.min(f.size);
                            let end = f.size + len;
                            let grows = blocks(end) - blocks(f.size);
                            // Reserved net of what the server holds.
                            let fits = live + grows <= DISK.capacity_blocks;
                            let status = write(&server, f.cap, offset, end - offset);
                            if grows == 0 || fits {
                                prop_assert_eq!(status, Status::Ok);
                                f.size = end;
                            } else {
                                prop_assert_eq!(status, Status::NoSpace);
                            }
                            if grows > 0 && fits {
                                f.extents += 1;
                                (held, held_extents) = (0, 0);
                            }
                        }
                        Step::Destroy { file } => {
                            let Some(i) = pick(file) else { continue };
                            let f = files.remove(i);
                            let reply = ask(&server, f.cap, ops::DESTROY, Bytes::new());
                            prop_assert_eq!(reply.status, Status::Ok);
                            if f.extents > 0 {
                                (held, held_extents) = (blocks(f.size), f.extents);
                                last_destroyed = held;
                            }
                        }
                        Step::Revoke { file } => {
                            let Some(i) = pick(file) else { continue };
                            let reply = ask(&server, files[i].cap, cmd::STD_REVOKE, Bytes::new());
                            prop_assert_eq!(reply.status, Status::Ok);
                            files[i].cap = wire::Reader::new(&reply.body).cap().unwrap();
                        }
                    }
                    let live: u32 = files.iter().map(|f| blocks(f.size)).sum();
                    prop_assert_eq!(stats.statfs().unwrap().allocated_blocks, live + held);
                    prop_assert_eq!(server.retired.lock().len(), held_extents);
                    prop_assert!(held <= last_destroyed);
                }
                let leaked = net.obs().snapshot().expect("recorder is on").extents_leaked;
                prop_assert_eq!(leaked, 0);
                disk.stop();
            }
        }
    }

    #[test]
    fn every_command_refuses_a_capability_lacking_its_rights() {
        let (_n, disk, fs_runner, fs) = setup(small());
        crate::tests::assert_flat_file_rights(&fs, BlockFlatFsServer::COMMANDS);
        fs_runner.stop();
        disk.stop();
    }
}
