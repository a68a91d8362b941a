//! A capability-based **UNIX-like file system** (the third file system
//! of §3.5, "to ease the problem of moving existing applications from
//! UNIX to Amoeba").
//!
//! Files have i-node-style metadata and their data lives in raw blocks
//! obtained from the **block server** — the UNIX server is itself an
//! ordinary block-server *client*, demonstrating §3.2's claim that
//! splitting the block server off lets "any user implement any kind of
//! special-purpose file system". Directory entries map names to
//! capabilities, and the OBJECT field of a capability plays the role of
//! the i-number ("for a UNIX-like file server, the object number would
//! be the i-number").
//!
//! # Example
//!
//! ```
//! use amoeba_block::{BlockServer, DiskConfig};
//! use amoeba_cap::schemes::SchemeKind;
//! use amoeba_net::Network;
//! use amoeba_server::ServiceRunner;
//! use amoeba_unixfs::{UnixFsClient, UnixFsServer};
//!
//! let net = Network::new();
//! let disk = ServiceRunner::spawn_open(
//!     &net, BlockServer::new(DiskConfig::small(), SchemeKind::OneWay));
//! let fs_server = UnixFsServer::new(&net, disk.put_port(), SchemeKind::Commutative);
//! let fs_runner = ServiceRunner::spawn_open(&net, fs_server);
//! let fs = UnixFsClient::open(&net, fs_runner.put_port());
//!
//! let root = fs.root().unwrap();
//! let dir = fs.mkdir(&root, "home").unwrap();
//! let file = fs.create(&dir, "notes.txt").unwrap();
//! fs.write(&file, 0, b"unix on amoeba").unwrap();
//! let found = fs.lookup_path(&root, "home/notes.txt").unwrap();
//! assert_eq!(&fs.read(&found, 0, 14).unwrap(), b"unix on amoeba");
//! fs_runner.stop();
//! disk.stop();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use amoeba_block::{disk_status, BlockClient};
use amoeba_cap::schemes::SchemeKind;
use amoeba_cap::{Capability, Rights};
use amoeba_net::{Network, Port};
use amoeba_server::proto::{Reply, Request, Status};
use amoeba_server::{
    dispatch, wire, ClientError, Command, ObjectLocks, ObjectTable, RequestCtx, Service,
    ServiceClient,
};
use bytes::Bytes;
use std::collections::BTreeMap;

/// UNIX-file-system operation codes. What each needs of the presented
/// capability is declared once, in the server's command table.
pub mod ops {
    /// The root directory capability.
    pub const ROOT: u32 = 1;
    /// Create an empty file in a directory. Params: `str name`.
    pub const CREATE: u32 = 2;
    /// Create a subdirectory. Params: `str name`.
    pub const MKDIR: u32 = 3;
    /// Look up one name. Params: `str name`. Reply: capability.
    pub const LOOKUP: u32 = 4;
    /// List a directory. Reply: `u32 n`, n × (`str`, `u32 kind`).
    pub const READDIR: u32 = 5;
    /// Remove a name (frees files; directories must be empty).
    /// Params: `str name`.
    pub const UNLINK: u32 = 6;
    /// Read file bytes. Params: `u64 offset`, `u32 len`.
    pub const READ: u32 = 7;
    /// Write file bytes (extends). Params: `u64 offset`, bytes.
    pub const WRITE: u32 = 8;
    /// Stat. Reply: `u32 kind` (0 file, 1 dir), `u64 size`,
    /// `u32 blocks`.
    pub const STAT: u32 = 9;
    /// Rename within a directory. Params: `str from`, `str to`.
    pub const RENAME: u32 = 10;
    /// Truncate a file to `u64 size` (frees whole blocks past the end).
    pub const TRUNCATE: u32 = 11;
}

/// What an i-node is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    /// A regular file.
    File,
    /// A directory.
    Dir,
}

#[derive(Debug)]
enum Node {
    File {
        size: u64,
        /// Full-rights block capabilities, private to this server.
        blocks: Vec<Capability>,
    },
    Dir {
        entries: BTreeMap<String, Capability>,
    },
}

/// Stat result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stat {
    /// File or directory.
    pub kind: NodeKind,
    /// Size in bytes (0 for directories).
    pub size: u64,
    /// Allocated blocks (0 for directories).
    pub blocks: u32,
}

/// The UNIX-like file server.
#[derive(Debug)]
pub struct UnixFsServer {
    table: ObjectTable<Node>,
    /// The block-server client. The RPC client demuxes concurrent
    /// transactions, so reads use it lock-free; mutating operations
    /// serialise **per inode** on `inode_locks` because they snapshot
    /// inode metadata, touch the disk, then write the metadata back —
    /// writers to distinct files share no metadata and run in parallel
    /// across the worker pool.
    disk: BlockClient,
    inode_locks: ObjectLocks,
    block_size: u32,
    root: Option<Capability>,
}

impl UnixFsServer {
    const COMMANDS: &'static [Command<Self>] = &[
        Command::anonymous(ops::ROOT, Self::root),
        Command::new(ops::CREATE, Rights::WRITE, Self::create),
        Command::new(ops::MKDIR, Rights::WRITE, Self::mkdir),
        Command::new(ops::LOOKUP, Rights::READ, Self::lookup),
        Command::new(ops::READDIR, Rights::READ, Self::readdir),
        Command::new(ops::UNLINK, Rights::WRITE, Self::unlink),
        Command::new(ops::READ, Rights::READ, Self::read),
        Command::new(ops::WRITE, Rights::WRITE, Self::write),
        Command::new(ops::STAT, Rights::READ, Self::stat),
        Command::new(ops::RENAME, Rights::WRITE, Self::rename),
        Command::new(ops::TRUNCATE, Rights::WRITE, Self::truncate),
    ];

    /// Creates the server as a client of the block server at
    /// `disk_port`.
    ///
    /// # Panics
    /// Panics if the block server cannot be reached to learn its
    /// geometry.
    pub fn new(net: &Network, disk_port: Port, scheme: SchemeKind) -> UnixFsServer {
        let disk = BlockClient::open(net, disk_port);
        let block_size = disk
            .statfs()
            .expect("block server must be reachable at construction")
            .block_size;
        UnixFsServer {
            table: ObjectTable::unbound(scheme.instantiate()),
            disk,
            inode_locks: ObjectLocks::default(),
            block_size,
            root: None,
        }
    }

    fn root(&self, _: &Request, _: Rights) -> Result<Bytes, Status> {
        let root = self.root.ok_or(Status::NoSuchObject)?;
        Ok(wire::Writer::new().cap(&root).finish())
    }

    fn create(&self, req: &Request, need: Rights) -> Result<Bytes, Status> {
        let file = Node::File {
            size: 0,
            blocks: Vec::new(),
        };
        self.dir_insert(req, need, file)
    }

    fn mkdir(&self, req: &Request, need: Rights) -> Result<Bytes, Status> {
        let dir = Node::Dir {
            entries: BTreeMap::new(),
        };
        self.dir_insert(req, need, dir)
    }

    /// CREATE and MKDIR: `node` under the name the params carry.
    fn dir_insert(&self, req: &Request, need: Rights, node: Node) -> Result<Bytes, Status> {
        let name = wire::Reader::new(&req.params)
            .str()
            .ok_or(Status::BadRequest)?;
        if name.is_empty() || name.contains('/') {
            return Err(Status::BadRequest);
        }
        // Create the inode first, then claim the name with a single
        // atomic check-and-insert on the directory: concurrent inserts
        // of the same name cannot both pass the duplicate check (one
        // wins, the loser's inode is deleted below). The parent
        // disappearing between the two steps is handled the same way.
        let (_, new_cap) = self.table.create(node);
        let inserted = self.table.with_object_mut(&req.cap, need, |n| match n {
            Node::Dir { entries } => {
                if entries.contains_key(&name) {
                    Err(Status::Conflict)
                } else {
                    entries.insert(name.clone(), new_cap);
                    Ok(())
                }
            }
            Node::File { .. } => Err(Status::BadRequest),
        });
        if let Err(status) = inserted.map_err(Status::from).and_then(|r| r) {
            let _ = self.table.delete(&new_cap, Rights::NONE);
            return Err(status);
        }
        Ok(wire::Writer::new().cap(&new_cap).finish())
    }

    fn lookup(&self, req: &Request, need: Rights) -> Result<Bytes, Status> {
        let name = wire::Reader::new(&req.params)
            .str()
            .ok_or(Status::BadRequest)?;
        let found = self.table.with_object(&req.cap, need, |n| match n {
            Node::Dir { entries } => Some(entries.get(&name).copied()),
            Node::File { .. } => None,
        });
        let cap = found?.ok_or(Status::BadRequest)?.ok_or(Status::NotFound)?;
        Ok(wire::Writer::new().cap(&cap).finish())
    }

    fn readdir(&self, req: &Request, need: Rights) -> Result<Bytes, Status> {
        let listing = self.table.with_object(&req.cap, need, |n| match n {
            Node::Dir { entries } => Some(entries.clone()),
            Node::File { .. } => None,
        });
        let entries = listing?.ok_or(Status::BadRequest)?;
        let mut w = wire::Writer::new().u32(entries.len() as u32);
        for (name, cap) in &entries {
            let kind = self
                .table
                .with_data(cap.object, |n| matches!(n, Node::Dir { .. }) as u32)
                .unwrap_or(0);
            w = w.str(name).u32(kind);
        }
        Ok(w.finish())
    }

    fn unlink(&self, req: &Request, need: Rights) -> Result<Bytes, Status> {
        let name = wire::Reader::new(&req.params)
            .str()
            .ok_or(Status::BadRequest)?;
        // Atomically claim the unlink by removing the entry first:
        // concurrent unlinks of the same name cannot both proceed, and
        // a concurrent insert of the same name either lands before the
        // removal (and is unlinked with it) or after (and survives).
        let removed = self.table.with_object_mut(&req.cap, need, |n| match n {
            Node::Dir { entries } => Some(entries.remove(&name)),
            Node::File { .. } => None,
        });
        let victim_cap = removed?
            .ok_or(Status::BadRequest)?
            .ok_or(Status::NotFound)?;
        // Directories must be empty; files give their blocks back. A
        // non-empty directory gets its entry restored. (A bearer of the
        // victim's own capability can still insert into it between this
        // check and the delete — inherent to capability semantics; such
        // a child becomes unreachable exactly as if inserted into a
        // directory whose last link was already gone.)
        let blocks = match self.table.with_data(victim_cap.object, |n| match n {
            Node::Dir { entries } => {
                if entries.is_empty() {
                    Some(Vec::new())
                } else {
                    None
                }
            }
            Node::File { blocks, .. } => Some(blocks.clone()),
        }) {
            Some(Some(b)) => b,
            Some(None) => {
                let _ = self.table.with_object_mut(&req.cap, need, |n| {
                    if let Node::Dir { entries } = n {
                        entries.entry(name.clone()).or_insert(victim_cap);
                    }
                });
                return Err(Status::Conflict);
            }
            None => Vec::new(), // dangling entry: just drop it
        };
        // Destroy the inode and free its disk blocks in one batch
        // frame, waiting out any in-flight writer of this inode
        // (unrelated files unaffected).
        let _ = self.table.delete(&victim_cap, Rights::NONE);
        let _writing = self.inode_locks.lock(victim_cap.object);
        let _ = self.disk.free_many(&blocks);
        Ok(Bytes::new())
    }

    fn read(&self, req: &Request, need: Rights) -> Result<Bytes, Status> {
        let mut r = wire::Reader::new(&req.params);
        let (Some(offset), Some(len)) = (r.u64(), r.u32()) else {
            return Err(Status::BadRequest);
        };
        let meta = self.table.with_object(&req.cap, need, |n| match n {
            Node::File { size, blocks } => Some((*size, blocks.clone())),
            Node::Dir { .. } => None,
        });
        let (size, blocks) = meta?.ok_or(Status::BadRequest)?;
        let start = offset.min(size);
        let end = offset.saturating_add(len as u64).min(size);
        let bs = self.block_size as u64;
        // Plan the whole range first — allocated blocks become one
        // gather batch (a single frame however many blocks the read
        // spans), holes stay local zeros. No lock on the read path: the
        // RPC client demuxes concurrent transactions and reads never
        // touch inode metadata.
        enum Seg {
            Disk,
            Hole(u32),
        }
        let mut segs = Vec::new();
        let mut gathers: Vec<(Capability, u32, u32)> = Vec::new();
        let mut pos = start;
        while pos < end {
            let block_idx = (pos / bs) as usize;
            let within = (pos % bs) as u32;
            let take = ((bs - within as u64).min(end - pos)) as u32;
            match blocks.get(block_idx) {
                Some(bcap) => {
                    segs.push(Seg::Disk);
                    gathers.push((*bcap, within, take));
                }
                None => segs.push(Seg::Hole(take)),
            }
            pos += take as u64;
        }
        let bodies = self.disk.read_many(&gathers).map_err(|_| Status::NoSpace)?;
        let mut bodies = bodies.into_iter();
        let mut out = Vec::with_capacity((end - start) as usize);
        for seg in segs {
            match seg {
                Seg::Disk => out.extend_from_slice(&bodies.next().ok_or(Status::NoSpace)?),
                Seg::Hole(take) => out.extend(std::iter::repeat_n(0u8, take as usize)),
            }
        }
        Ok(Bytes::from(out))
    }

    fn write(&self, req: &Request, need: Rights) -> Result<Bytes, Status> {
        let mut r = wire::Reader::new(&req.params);
        let (Some(offset), Some(data)) = (r.u64(), r.bytes()) else {
            return Err(Status::BadRequest);
        };
        // Serialise writers *of this inode* before snapshotting it so
        // concurrent writers to one file never leak blocks or lose
        // metadata; writers to other files take other stripes.
        let _writing = self.inode_locks.lock(req.cap.object);
        let meta = self.table.with_object(&req.cap, need, |n| match n {
            Node::File { size, blocks } => Some((*size, blocks.clone())),
            Node::Dir { .. } => None,
        });
        let (old_size, mut blocks) = meta?.ok_or(Status::BadRequest)?;
        let bs = self.block_size as u64;
        let end = offset
            .checked_add(data.len() as u64)
            .ok_or(Status::OutOfRange)?;
        // Allocate every missing block in ONE batch frame. Truncate
        // frees per block, so the inode keeps independent single-block
        // capabilities rather than an extent; `alloc_many` gives back
        // any partial run itself, so a failure here leaks nothing.
        let needed_blocks = (end.div_ceil(bs)) as usize;
        let original_blocks = blocks.len();
        let free_new = |blocks: &[Capability]| {
            let _ = self.disk.free_many(&blocks[original_blocks..]);
        };
        if needed_blocks > original_blocks {
            let fresh = self
                .disk
                .alloc_many(needed_blocks - original_blocks)
                .map_err(disk_status)?;
            blocks.extend(fresh);
        }
        // Scatter the data across blocks in one batch frame.
        let mut scatters: Vec<(Capability, u32, &[u8])> = Vec::new();
        let mut pos = offset;
        let mut remaining = data;
        while !remaining.is_empty() {
            let block_idx = (pos / bs) as usize;
            let within = (pos % bs) as u32;
            let take = ((bs - within as u64) as usize).min(remaining.len());
            scatters.push((blocks[block_idx], within, &remaining[..take]));
            pos += take as u64;
            remaining = &remaining[take..];
        }
        if let Err(e) = self.disk.write_many(&scatters) {
            free_new(&blocks);
            return Err(disk_status(e));
        }
        let new_size = old_size.max(end);
        let update = self.table.with_object_mut(&req.cap, need, |n| {
            if let Node::File { size, blocks: b } = n {
                *size = new_size;
                *b = blocks.clone();
            }
        });
        if let Err(e) = update {
            free_new(&blocks);
            return Err(e.into());
        }
        Ok(wire::Writer::new().u64(new_size).finish())
    }

    fn rename(&self, req: &Request, need: Rights) -> Result<Bytes, Status> {
        let mut r = wire::Reader::new(&req.params);
        let (Some(from), Some(to)) = (r.str(), r.str()) else {
            return Err(Status::BadRequest);
        };
        if to.is_empty() || to.contains('/') {
            return Err(Status::BadRequest);
        }
        self.table.with_object_mut(&req.cap, need, |n| match n {
            Node::Dir { entries } => {
                if from == to {
                    return if entries.contains_key(&from) {
                        Ok(())
                    } else {
                        Err(Status::NotFound)
                    };
                }
                if entries.contains_key(&to) {
                    return Err(Status::Conflict);
                }
                match entries.remove(&from) {
                    Some(cap) => {
                        entries.insert(to.clone(), cap);
                        Ok(())
                    }
                    None => Err(Status::NotFound),
                }
            }
            Node::File { .. } => Err(Status::BadRequest),
        })??;
        Ok(Bytes::new())
    }

    fn truncate(&self, req: &Request, need: Rights) -> Result<Bytes, Status> {
        let new_size = wire::Reader::new(&req.params)
            .u64()
            .ok_or(Status::BadRequest)?;
        let bs = self.block_size as u64;
        let freed = self.table.with_object_mut(&req.cap, need, |n| match n {
            Node::File { size, blocks } => {
                if new_size > *size {
                    return Err(Status::OutOfRange); // truncate shrinks only
                }
                *size = new_size;
                let keep = new_size.div_ceil(bs) as usize;
                Ok(blocks.split_off(keep))
            }
            Node::Dir { .. } => Err(Status::BadRequest),
        })??;
        let _writing = self.inode_locks.lock(req.cap.object);
        let _ = self.disk.free_many(&freed);
        Ok(Bytes::new())
    }

    fn stat(&self, req: &Request, need: Rights) -> Result<Bytes, Status> {
        let (kind, size, blocks) = self.table.with_object(&req.cap, need, |n| match n {
            Node::File { size, blocks } => (0u32, *size, blocks.len() as u32),
            Node::Dir { entries } => (1u32, entries.len() as u64, 0),
        })?;
        Ok(wire::Writer::new().u32(kind).u64(size).u32(blocks).finish())
    }
}

impl Service for UnixFsServer {
    fn bind(&mut self, put_port: Port) {
        self.table.set_port(put_port);
        let (_, root) = self.table.create(Node::Dir {
            entries: BTreeMap::new(),
        });
        self.root = Some(root);
    }

    fn handle(&self, req: &Request, _ctx: &RequestCtx) -> Reply {
        dispatch(self, &self.table, Self::COMMANDS, req)
    }
}

/// A typed client for the UNIX-like file system.
#[derive(Debug)]
pub struct UnixFsClient {
    svc: ServiceClient,
    port: Port,
}

impl UnixFsClient {
    /// A client on a fresh open-interface machine.
    pub fn open(net: &Network, port: Port) -> UnixFsClient {
        UnixFsClient {
            svc: ServiceClient::open(net),
            port,
        }
    }

    /// A client over an existing [`ServiceClient`].
    pub fn with_service(svc: ServiceClient, port: Port) -> UnixFsClient {
        UnixFsClient { svc, port }
    }

    /// The root directory capability.
    ///
    /// # Errors
    /// Transport errors.
    pub fn root(&self) -> Result<Capability, ClientError> {
        let body = self
            .svc
            .call_anonymous(self.port, ops::ROOT, Bytes::new())?;
        wire::Reader::new(&body).cap().ok_or(ClientError::Malformed)
    }

    /// Creates an empty file named `name` in `dir`.
    ///
    /// # Errors
    /// `Conflict` if the name exists; rights/validation errors.
    pub fn create(&self, dir: &Capability, name: &str) -> Result<Capability, ClientError> {
        let body = self
            .svc
            .call(dir, ops::CREATE, wire::Writer::new().str(name).finish())?;
        wire::Reader::new(&body).cap().ok_or(ClientError::Malformed)
    }

    /// Creates a subdirectory.
    ///
    /// # Errors
    /// As for [`create`](Self::create).
    pub fn mkdir(&self, dir: &Capability, name: &str) -> Result<Capability, ClientError> {
        let body = self
            .svc
            .call(dir, ops::MKDIR, wire::Writer::new().str(name).finish())?;
        wire::Reader::new(&body).cap().ok_or(ClientError::Malformed)
    }

    /// Looks up one name in a directory.
    ///
    /// # Errors
    /// `NotFound`; rights/validation errors.
    pub fn lookup(&self, dir: &Capability, name: &str) -> Result<Capability, ClientError> {
        let body = self
            .svc
            .call(dir, ops::LOOKUP, wire::Writer::new().str(name).finish())?;
        wire::Reader::new(&body).cap().ok_or(ClientError::Malformed)
    }

    /// Walks a `/`-separated path from `dir`.
    ///
    /// # Errors
    /// `NotFound` at the failing segment.
    pub fn lookup_path(&self, dir: &Capability, path: &str) -> Result<Capability, ClientError> {
        let mut current = *dir;
        for seg in path.split('/').filter(|s| !s.is_empty()) {
            current = self.lookup(&current, seg)?;
        }
        Ok(current)
    }

    /// Lists a directory as (name, kind) pairs.
    ///
    /// # Errors
    /// Rights/validation errors.
    pub fn readdir(&self, dir: &Capability) -> Result<Vec<(String, NodeKind)>, ClientError> {
        let body = self.svc.call(dir, ops::READDIR, Bytes::new())?;
        let mut r = wire::Reader::new(&body);
        let n = r.u32().ok_or(ClientError::Malformed)?;
        let mut out = Vec::with_capacity(n as usize);
        for _ in 0..n {
            let name = r.str().ok_or(ClientError::Malformed)?;
            let kind = match r.u32().ok_or(ClientError::Malformed)? {
                0 => NodeKind::File,
                _ => NodeKind::Dir,
            };
            out.push((name, kind));
        }
        Ok(out)
    }

    /// Removes `name` from `dir` (files are freed; directories must be
    /// empty).
    ///
    /// # Errors
    /// `NotFound`, `Conflict` for non-empty directories.
    pub fn unlink(&self, dir: &Capability, name: &str) -> Result<(), ClientError> {
        self.svc
            .call(dir, ops::UNLINK, wire::Writer::new().str(name).finish())?;
        Ok(())
    }

    /// Reads up to `len` bytes at `offset` (short at EOF).
    ///
    /// # Errors
    /// Rights/validation errors.
    pub fn read(&self, file: &Capability, offset: u64, len: u32) -> Result<Vec<u8>, ClientError> {
        let body = self.svc.call(
            file,
            ops::READ,
            wire::Writer::new().u64(offset).u32(len).finish(),
        )?;
        Ok(body.to_vec())
    }

    /// Writes at `offset`, extending the file; returns the new size.
    ///
    /// # Errors
    /// `NoSpace` when the underlying disk fills.
    pub fn write(&self, file: &Capability, offset: u64, data: &[u8]) -> Result<u64, ClientError> {
        let body = self.svc.call(
            file,
            ops::WRITE,
            wire::Writer::new().u64(offset).bytes(data).finish(),
        )?;
        wire::Reader::new(&body).u64().ok_or(ClientError::Malformed)
    }

    /// Stats a file or directory.
    ///
    /// # Errors
    /// Rights/validation errors.
    pub fn stat(&self, cap: &Capability) -> Result<Stat, ClientError> {
        let body = self.svc.call(cap, ops::STAT, Bytes::new())?;
        let mut r = wire::Reader::new(&body);
        match (r.u32(), r.u64(), r.u32()) {
            (Some(kind), Some(size), Some(blocks)) => Ok(Stat {
                kind: if kind == 0 {
                    NodeKind::File
                } else {
                    NodeKind::Dir
                },
                size,
                blocks,
            }),
            _ => Err(ClientError::Malformed),
        }
    }

    /// Renames `from` to `to` within `dir`.
    ///
    /// # Errors
    /// `NotFound`/`Conflict` as for the directory server.
    pub fn rename(&self, dir: &Capability, from: &str, to: &str) -> Result<(), ClientError> {
        self.svc.call(
            dir,
            ops::RENAME,
            wire::Writer::new().str(from).str(to).finish(),
        )?;
        Ok(())
    }

    /// Truncates `file` to `size` bytes (shrink only); whole blocks past
    /// the new end are returned to the block server.
    ///
    /// # Errors
    /// `OutOfRange` for growth; rights/validation errors.
    pub fn truncate(&self, file: &Capability, size: u64) -> Result<(), ClientError> {
        self.svc
            .call(file, ops::TRUNCATE, wire::Writer::new().u64(size).finish())?;
        Ok(())
    }

    /// Access to the generic capability operations.
    pub fn service(&self) -> &ServiceClient {
        &self.svc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amoeba_block::{BlockServer, DiskConfig};
    use amoeba_server::ServiceRunner;

    fn setup_with(cfg: DiskConfig) -> (Network, ServiceRunner, ServiceRunner, UnixFsClient) {
        let net = Network::new();
        let disk = ServiceRunner::spawn_open(&net, BlockServer::new(cfg, SchemeKind::OneWay));
        let server = UnixFsServer::new(&net, disk.put_port(), SchemeKind::Commutative);
        let fs_runner = ServiceRunner::spawn_open(&net, server);
        let client = UnixFsClient::open(&net, fs_runner.put_port());
        (net, disk, fs_runner, client)
    }

    fn setup() -> (Network, ServiceRunner, ServiceRunner, UnixFsClient) {
        setup_with(DiskConfig {
            block_size: 256,
            capacity_blocks: 64,
        })
    }

    #[test]
    fn tree_construction_and_path_walk() {
        let (_n, disk, fsr, fs) = setup();
        let root = fs.root().unwrap();
        let usr = fs.mkdir(&root, "usr").unwrap();
        let bin = fs.mkdir(&usr, "bin").unwrap();
        let ls = fs.create(&bin, "ls").unwrap();
        fs.write(&ls, 0, b"#!ls binary").unwrap();
        let found = fs.lookup_path(&root, "usr/bin/ls").unwrap();
        assert_eq!(found, ls);
        assert_eq!(&fs.read(&found, 0, 11).unwrap(), b"#!ls binary");
        fsr.stop();
        disk.stop();
    }

    #[test]
    fn multi_block_file_io() {
        let (_n, disk, fsr, fs) = setup();
        let root = fs.root().unwrap();
        let f = fs.create(&root, "big").unwrap();
        // 1000 bytes across four 256-byte blocks, written in odd chunks.
        let data: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
        let mut off = 0usize;
        for chunk in data.chunks(313) {
            fs.write(&f, off as u64, chunk).unwrap();
            off += chunk.len();
        }
        assert_eq!(fs.stat(&f).unwrap().size, 1000);
        assert_eq!(fs.stat(&f).unwrap().blocks, 4);
        assert_eq!(fs.read(&f, 0, 1000).unwrap(), data);
        // Unaligned read spanning a block boundary.
        assert_eq!(fs.read(&f, 250, 12).unwrap(), data[250..262]);
        fsr.stop();
        disk.stop();
    }

    #[test]
    fn write_at_offset_creates_hole() {
        let (_n, disk, fsr, fs) = setup();
        let root = fs.root().unwrap();
        let f = fs.create(&root, "sparse").unwrap();
        fs.write(&f, 600, b"tail").unwrap();
        assert_eq!(fs.stat(&f).unwrap().size, 604);
        let head = fs.read(&f, 0, 600).unwrap();
        assert!(head.iter().all(|&b| b == 0));
        fsr.stop();
        disk.stop();
    }

    #[test]
    fn unlink_frees_disk_blocks() {
        let (net, disk, fsr, fs) = setup();
        let stats = BlockClient::open(&net, disk.put_port());
        let root = fs.root().unwrap();
        let f = fs.create(&root, "victim").unwrap();
        fs.write(&f, 0, &vec![7u8; 1024]).unwrap(); // 4 blocks
        assert_eq!(stats.statfs().unwrap().allocated_blocks, 4);
        fs.unlink(&root, "victim").unwrap();
        assert_eq!(stats.statfs().unwrap().allocated_blocks, 0);
        assert_eq!(
            fs.lookup(&root, "victim").unwrap_err(),
            ClientError::Status(Status::NotFound)
        );
        fsr.stop();
        disk.stop();
    }

    #[test]
    fn unlink_nonempty_directory_refused() {
        let (_n, disk, fsr, fs) = setup();
        let root = fs.root().unwrap();
        let d = fs.mkdir(&root, "d").unwrap();
        fs.create(&d, "f").unwrap();
        assert_eq!(
            fs.unlink(&root, "d").unwrap_err(),
            ClientError::Status(Status::Conflict)
        );
        fs.unlink(&d, "f").unwrap();
        fs.unlink(&root, "d").unwrap();
        fsr.stop();
        disk.stop();
    }

    #[test]
    fn readdir_kinds() {
        let (_n, disk, fsr, fs) = setup();
        let root = fs.root().unwrap();
        fs.mkdir(&root, "dir").unwrap();
        fs.create(&root, "file").unwrap();
        let listing = fs.readdir(&root).unwrap();
        assert_eq!(
            listing,
            vec![
                ("dir".to_string(), NodeKind::Dir),
                ("file".to_string(), NodeKind::File),
            ]
        );
        fsr.stop();
        disk.stop();
    }

    #[test]
    fn disk_exhaustion_surfaces_as_no_space() {
        let (_n, disk, fsr, fs) = setup_with(DiskConfig {
            block_size: 128,
            capacity_blocks: 2,
        });
        let root = fs.root().unwrap();
        let f = fs.create(&root, "hog").unwrap();
        fs.write(&f, 0, &vec![1u8; 256]).unwrap(); // both blocks
        assert_eq!(
            fs.write(&f, 256, b"more").unwrap_err(),
            ClientError::Status(Status::NoSpace)
        );
        fsr.stop();
        disk.stop();
    }

    #[test]
    fn read_only_file_cap_cannot_write() {
        let (_n, disk, fsr, fs) = setup();
        let root = fs.root().unwrap();
        let f = fs.create(&root, "f").unwrap();
        fs.write(&f, 0, b"data").unwrap();
        let ro = fs.service().restrict(&f, Rights::READ).unwrap();
        assert_eq!(&fs.read(&ro, 0, 4).unwrap(), b"data");
        assert_eq!(
            fs.write(&ro, 0, b"nope").unwrap_err(),
            ClientError::Status(Status::RightsViolation)
        );
        fsr.stop();
        disk.stop();
    }

    #[test]
    fn rename_moves_entries() {
        let (_n, disk, fsr, fs) = setup();
        let root = fs.root().unwrap();
        let f = fs.create(&root, "draft.txt").unwrap();
        fs.write(&f, 0, b"words").unwrap();
        fs.rename(&root, "draft.txt", "final.txt").unwrap();
        assert_eq!(fs.lookup(&root, "final.txt").unwrap(), f);
        assert_eq!(
            fs.lookup(&root, "draft.txt").unwrap_err(),
            ClientError::Status(Status::NotFound)
        );
        fsr.stop();
        disk.stop();
    }

    #[test]
    fn truncate_frees_blocks_and_clamps_reads() {
        let (net, disk, fsr, fs) = setup();
        let stats = BlockClient::open(&net, disk.put_port());
        let root = fs.root().unwrap();
        let f = fs.create(&root, "log").unwrap();
        fs.write(&f, 0, &vec![9u8; 1000]).unwrap(); // 4 × 256B blocks
        assert_eq!(stats.statfs().unwrap().allocated_blocks, 4);

        fs.truncate(&f, 300).unwrap(); // keep 2 blocks
        assert_eq!(stats.statfs().unwrap().allocated_blocks, 2);
        assert_eq!(fs.stat(&f).unwrap().size, 300);
        assert_eq!(fs.read(&f, 0, 2000).unwrap().len(), 300);

        // Growth via truncate is refused; writes still extend.
        assert_eq!(
            fs.truncate(&f, 301).unwrap_err(),
            ClientError::Status(Status::OutOfRange)
        );
        fs.write(&f, 300, b"more").unwrap();
        assert_eq!(fs.stat(&f).unwrap().size, 304);
        fsr.stop();
        disk.stop();
    }

    #[test]
    fn duplicate_create_conflicts() {
        let (_n, disk, fsr, fs) = setup();
        let root = fs.root().unwrap();
        fs.create(&root, "x").unwrap();
        assert_eq!(
            fs.create(&root, "x").unwrap_err(),
            ClientError::Status(Status::Conflict)
        );
        assert_eq!(
            fs.mkdir(&root, "x").unwrap_err(),
            ClientError::Status(Status::Conflict)
        );
        fsr.stop();
        disk.stop();
    }

    #[test]
    fn every_command_refuses_a_capability_lacking_its_rights() {
        use amoeba_server::rights_check::{assert_rights_enforced, Probe};
        let (_n, disk, fsr, fs) = setup();
        let root = fs.root().unwrap();
        let made = std::cell::Cell::new(0);
        // A fresh directory holding one file "a" of four bytes.
        let dir = || {
            made.set(made.get() + 1);
            let d = fs.mkdir(&root, &format!("d{}", made.get())).unwrap();
            let a = fs.create(&d, "a").unwrap();
            fs.write(&a, 0, b"abcd").unwrap();
            (d, a)
        };
        let name = |n: &str| wire::Writer::new().str(n).finish();
        let new_name = || (dir().0, name("b"));
        let old_name = || (dir().0, name("a"));
        let listing = || (dir().0, Bytes::new());
        let rename = || (dir().0, wire::Writer::new().str("a").str("b").finish());
        let read = || (dir().1, wire::Writer::new().u64(0).u32(4).finish());
        let write = || (dir().1, wire::Writer::new().u64(1).bytes(b"x").finish());
        let stat = || (dir().1, Bytes::new());
        let truncate = || (dir().1, wire::Writer::new().u64(2).finish());
        assert_rights_enforced(
            fs.service(),
            UnixFsServer::COMMANDS,
            &[
                Probe::new(ops::CREATE, Rights::WRITE, &new_name),
                Probe::new(ops::MKDIR, Rights::WRITE, &new_name),
                Probe::new(ops::LOOKUP, Rights::READ, &old_name),
                Probe::new(ops::READDIR, Rights::READ, &listing),
                Probe::new(ops::UNLINK, Rights::WRITE, &old_name),
                Probe::new(ops::READ, Rights::READ, &read),
                Probe::new(ops::WRITE, Rights::WRITE, &write),
                Probe::new(ops::STAT, Rights::READ, &stat),
                Probe::new(ops::RENAME, Rights::WRITE, &rename),
                Probe::new(ops::TRUNCATE, Rights::WRITE, &truncate),
            ],
            |cap| (fs.stat(cap), fs.readdir(cap), fs.read(cap, 0, 16)),
        );
        fsr.stop();
        disk.stop();
    }
}
