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
use amoeba_block::BlockClient;
use amoeba_cap::schemes::SchemeKind;
use amoeba_cap::{Capability, Rights};
use amoeba_net::{Network, Port};
use amoeba_server::proto::{Reply, Request, Status};
use amoeba_server::{wire, ClientError, ObjectLocks, ObjectTable, RequestCtx, Service};
use bytes::Bytes;

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
/// block server with no locking at all. Mutating operations (WRITE,
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
        }
    }

    fn create(&self) -> Reply {
        let (_, cap) = self.table.create(Inode {
            size: 0,
            extents: Vec::new(),
        });
        Reply::ok(wire::Writer::new().cap(&cap).finish())
    }

    fn read(&self, req: &Request) -> Reply {
        let mut r = wire::Reader::new(&req.params);
        let (Some(offset), Some(len)) = (r.u64(), r.u32()) else {
            return Reply::status(Status::BadRequest);
        };
        // The runs are computed from the inode where it lives, under
        // its table lock: nothing of it is copied out but them.
        let gathers = self.table.with_object(&req.cap, Rights::READ, |f| {
            let start = offset.min(f.size);
            let end = offset.saturating_add(len as u64).min(f.size);
            extent_runs(&f.extents, self.block_size, start, end)
        });
        let gathers = match gathers {
            Ok(g) => g,
            Err(e) => return Reply::status(e.into()),
        };
        // One gather frame covers the whole range, however many extents
        // it crosses. No lock on the read path: the RPC client demuxes
        // concurrent transactions and reads never touch inode metadata.
        match self.disk.read_many(&gathers).as_deref() {
            Ok([]) => Reply::ok(Bytes::new()),
            // A single run is the reply as it stands — a slice of the
            // block server's reply frame, copied once more, into ours.
            Ok([body]) => Reply::ok(body.clone()),
            Ok(bodies) => {
                let total = bodies.iter().map(Bytes::len).sum();
                let out = bodies
                    .iter()
                    .fold(wire::Writer::with_capacity(total), |w, body| w.raw(body));
                Reply::ok(out.finish())
            }
            Err(ClientError::Status(s)) => Reply::status(*s),
            Err(_) => Reply::status(Status::NoSpace),
        }
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
        // inode is not touched until the frame has succeeded.
        let fresh = match self.disk.write_extending(&scatters, grow) {
            Ok(granted) => granted.map(|(cap, blocks)| Extent { cap, blocks }),
            Err(ClientError::Status(s)) => return Reply::status(s),
            Err(_) => return Reply::status(Status::NoSpace),
        };
        let new_size = old_size.max(end);
        match self.table.with_object_mut(&req.cap, Rights::WRITE, |f| {
            f.size = new_size;
            f.extents.extend(fresh);
        }) {
            Ok(()) => Reply::ok(wire::Writer::new().u64(new_size).finish()),
            Err(e) => {
                // The file vanished mid-write (revoked/destroyed): the
                // new extent never made it into any inode and would
                // otherwise leak disk capacity forever.
                if let Some(ext) = &fresh {
                    let _ = self.disk.free(&ext.cap);
                }
                Reply::status(e.into())
            }
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
                let _ = self.disk.free_many(&caps);
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
        // Nor did it leave an extent in the inode: the file still
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
