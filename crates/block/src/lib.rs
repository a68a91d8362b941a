//! The Amoeba **block server** (§3.2).
//!
//! "The block server can be requested to allocate a disk block and
//! return a capability for it. Using this capability, the block can be
//! written, read, or deallocated. The block server has no concept of a
//! file." Splitting it from the file servers lets "any user implement
//! any kind of special-purpose file system" — `amoeba-unixfs` does
//! exactly that on top of this crate.
//!
//! The simulated disk has a fixed block size and capacity; allocation
//! beyond capacity answers `NoSpace`. Blocks are zero-filled on
//! allocation — wherever the allocating request itself supplies no
//! bytes (`ALLOC_WRITE`) — so no data leaks between tenants.
//!
//! # Example
//!
//! ```
//! use amoeba_block::{BlockClient, BlockServer, DiskConfig};
//! use amoeba_cap::schemes::SchemeKind;
//! use amoeba_net::Network;
//! use amoeba_server::ServiceRunner;
//!
//! let net = Network::new();
//! let server = BlockServer::new(DiskConfig::small(), SchemeKind::Commutative);
//! let runner = ServiceRunner::spawn_open(&net, server);
//! let client = BlockClient::open(&net, runner.put_port());
//!
//! let cap = client.alloc().unwrap();
//! client.write(&cap, 0, b"boot sector").unwrap();
//! assert_eq!(&client.read(&cap, 0, 11).unwrap(), b"boot sector");
//! client.free(&cap).unwrap();
//! runner.stop();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use amoeba_cap::schemes::SchemeKind;
use amoeba_cap::{Capability, Rights};
use amoeba_net::{Network, Port};
use amoeba_server::proto::{null_cap, Reply, Request, Status};
use amoeba_server::{wire, ClientError, ObjectTable, RequestCtx, Service, ServiceClient};
use bytes::Bytes;
use std::sync::atomic::{AtomicU32, Ordering};

/// Block-server operation codes.
pub mod ops {
    /// Allocate a zeroed block; anonymous. Reply: capability.
    pub const ALLOC: u32 = 1;
    /// Read `len` bytes at `offset`. Params: `u32 offset`, `u32 len`.
    pub const READ: u32 = 2;
    /// Write bytes at `offset`. Params: `u32 offset`, `bytes data`.
    pub const WRITE: u32 = 3;
    /// Deallocate the block or extent. Requires DELETE.
    pub const FREE: u32 = 4;
    /// Report disk geometry; anonymous. Reply: `u32 block_size`,
    /// `u32 capacity`, `u32 allocated`.
    pub const STATFS: u32 = 5;
    /// Allocate a contiguous extent of `n` zeroed blocks under ONE
    /// capability; anonymous. Params: `u32 n` (≥ 1). Reply: capability,
    /// `u32 blocks`. The extent reads and writes like one large block
    /// of `n × block_size` bytes, and FREE returns all `n` blocks at
    /// once — a file server pays one allocation round-trip regardless
    /// of how many blocks it needs.
    pub const ALLOC_N: u32 = 6;
    /// [`ALLOC_N`] and the first [`WRITE`] in one request; anonymous.
    /// Params: `u32 n` (≥ 1), `u32 offset`, `bytes data`. Reply:
    /// capability, `u32 blocks`. The extent is built from the payload —
    /// `data` at `offset`, zeros everywhere else — so a file server
    /// that grows a file pays one disk round-trip, not two, and no byte
    /// of the extent is written twice. All-or-nothing: a request that
    /// is refused (`BadRequest` for `n == 0`, `OutOfRange` when
    /// `offset + len` exceeds `n × block_size`, `NoSpace`) reserves
    /// nothing.
    pub const ALLOC_WRITE: u32 = 7;
}

/// Simulated disk geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiskConfig {
    /// Bytes per block.
    pub block_size: u32,
    /// Total blocks on the device.
    pub capacity_blocks: u32,
}

impl DiskConfig {
    /// 4 KiB blocks, 4096 of them (16 MiB) — handy for tests.
    pub fn small() -> DiskConfig {
        DiskConfig {
            block_size: 4096,
            capacity_blocks: 4096,
        }
    }
}

impl Default for DiskConfig {
    fn default() -> Self {
        Self::small()
    }
}

/// One allocation unit: a run of `blocks` contiguous blocks addressed
/// through a single capability. A plain ALLOC is an extent of 1.
#[derive(Debug)]
struct Extent {
    data: Box<[u8]>,
    blocks: u32,
}

/// The block server.
#[derive(Debug)]
pub struct BlockServer {
    table: ObjectTable<Extent>,
    config: DiskConfig,
    /// Blocks currently allocated; an atomic reservation counter so
    /// concurrent ALLOCs cannot overshoot the disk capacity.
    allocated: AtomicU32,
}

impl BlockServer {
    /// A server over a fresh simulated disk, protecting blocks with the
    /// given capability scheme.
    pub fn new(config: DiskConfig, scheme: SchemeKind) -> BlockServer {
        assert!(config.block_size > 0, "block size must be nonzero");
        assert!(config.capacity_blocks > 0, "capacity must be nonzero");
        BlockServer {
            table: ObjectTable::unbound(scheme.instantiate()),
            config,
            allocated: AtomicU32::new(0),
        }
    }

    /// Atomically reserves `n` blocks against capacity and mints one
    /// capability covering all of them: `data` at `offset`, zeros
    /// everywhere else. The caller has checked that `data` fits.
    fn alloc_extent(&self, n: u32, offset: usize, data: &[u8]) -> Result<Capability, Status> {
        let capacity = self.config.capacity_blocks;
        self.allocated
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |cur| {
                cur.checked_add(n).filter(|&next| next <= capacity)
            })
            .map_err(|_| Status::NoSpace)?;
        let len = self.config.block_size as usize * n as usize;
        let bytes = if data.is_empty() {
            // Nothing but zeros: leave it to the allocator, which may
            // have pages that are zero already.
            vec![0u8; len]
        } else {
            // Each byte is written once — the payload where it lands,
            // zeros only around it — and heap reuse can leak nothing.
            let mut bytes = Vec::with_capacity(len);
            bytes.resize(offset, 0);
            bytes.extend_from_slice(data);
            bytes.resize(len, 0);
            bytes
        };
        let (_, cap) = self.table.create(Extent {
            data: bytes.into_boxed_slice(),
            blocks: n,
        });
        Ok(cap)
    }

    fn alloc(&self) -> Reply {
        // A single block's reply carries only the capability — the
        // pre-extent wire shape, kept frozen for old clients.
        match self.alloc_extent(1, 0, &[]) {
            Ok(cap) => Reply::ok(wire::Writer::new().cap(&cap).finish()),
            Err(status) => Reply::status(status),
        }
    }

    /// The reply `ALLOC_N` and `ALLOC_WRITE` share: capability, blocks.
    fn extent_reply(granted: Result<Capability, Status>, n: u32) -> Reply {
        match granted {
            Ok(cap) => Reply::ok(wire::Writer::new().cap(&cap).u32(n).finish()),
            Err(status) => Reply::status(status),
        }
    }

    fn alloc_n(&self, req: &Request) -> Reply {
        let Some(n) = wire::Reader::new(&req.params).u32() else {
            return Reply::status(Status::BadRequest);
        };
        if n == 0 {
            return Reply::status(Status::BadRequest);
        }
        Self::extent_reply(self.alloc_extent(n, 0, &[]), n)
    }

    fn alloc_write(&self, req: &Request) -> Reply {
        let mut r = wire::Reader::new(&req.params);
        let (Some(n), Some(offset), Some(data)) = (r.u32(), r.u32(), r.bytes()) else {
            return Reply::status(Status::BadRequest);
        };
        if n == 0 {
            return Reply::status(Status::BadRequest);
        }
        // Checked before anything is reserved, and in u64, where
        // neither side can wrap.
        let size = u64::from(n) * u64::from(self.config.block_size);
        if u64::from(offset) + data.len() as u64 > size {
            return Reply::status(Status::OutOfRange);
        }
        Self::extent_reply(self.alloc_extent(n, offset as usize, data), n)
    }

    fn read(&self, req: &Request) -> Reply {
        let mut r = wire::Reader::new(&req.params);
        let (Some(offset), Some(len)) = (r.u32(), r.u32()) else {
            return Reply::status(Status::BadRequest);
        };
        let result = self.table.with_object(&req.cap, Rights::READ, |ext| {
            let end = offset.checked_add(len)? as usize;
            if end > ext.data.len() {
                return None;
            }
            // Extent → a recycled buffer of exactly this size; the
            // dispatch loop copies it on into the reply frame.
            let span = &ext.data[offset as usize..end];
            Some(wire::Writer::with_capacity(span.len()).raw(span).finish())
        });
        match result {
            Ok(Some(data)) => Reply::ok(data),
            Ok(None) => Reply::status(Status::OutOfRange),
            Err(e) => Reply::status(e.into()),
        }
    }

    fn write(&self, req: &Request) -> Reply {
        let mut r = wire::Reader::new(&req.params);
        let (Some(offset), Some(data)) = (r.u32(), r.bytes()) else {
            return Reply::status(Status::BadRequest);
        };
        let result = self.table.with_object_mut(&req.cap, Rights::WRITE, |ext| {
            let end = (offset as usize).checked_add(data.len())?;
            if end > ext.data.len() {
                return None;
            }
            ext.data[offset as usize..end].copy_from_slice(data);
            Some(())
        });
        match result {
            Ok(Some(())) => Reply::ok(Bytes::new()),
            Ok(None) => Reply::status(Status::OutOfRange),
            Err(e) => Reply::status(e.into()),
        }
    }

    fn free(&self, req: &Request) -> Reply {
        match self.table.delete(&req.cap, Rights::DELETE) {
            Ok(ext) => {
                // The whole extent comes back at once — a failed
                // multi-block allocation can never strand part of its
                // reservation.
                self.allocated.fetch_sub(ext.blocks, Ordering::AcqRel);
                Reply::ok(Bytes::new())
            }
            Err(e) => Reply::status(e.into()),
        }
    }

    fn statfs(&self) -> Reply {
        Reply::ok(
            wire::Writer::new()
                .u32(self.config.block_size)
                .u32(self.config.capacity_blocks)
                .u32(self.allocated.load(Ordering::Acquire))
                .finish(),
        )
    }
}

impl Service for BlockServer {
    fn bind(&mut self, put_port: Port) {
        self.table.set_port(put_port);
    }

    fn handle(&self, req: &Request, _ctx: &RequestCtx) -> Reply {
        if let Some(reply) = self.table.handle_std(req) {
            return reply;
        }
        match req.command {
            ops::ALLOC => self.alloc(),
            ops::ALLOC_N => self.alloc_n(req),
            ops::ALLOC_WRITE => self.alloc_write(req),
            ops::READ => self.read(req),
            ops::WRITE => self.write(req),
            ops::FREE => self.free(req),
            ops::STATFS => self.statfs(),
            _ => Reply::status(Status::BadCommand),
        }
    }
}

/// Disk geometry and usage, as reported by [`BlockClient::statfs`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiskStats {
    /// Bytes per block.
    pub block_size: u32,
    /// Total blocks.
    pub capacity_blocks: u32,
    /// Currently allocated blocks.
    pub allocated_blocks: u32,
}

/// A typed client for the block server.
#[derive(Debug)]
pub struct BlockClient {
    svc: ServiceClient,
    port: Port,
}

impl BlockClient {
    /// A client on a fresh open-interface machine.
    pub fn open(net: &Network, port: Port) -> BlockClient {
        BlockClient {
            svc: ServiceClient::open(net),
            port,
        }
    }

    /// A client over an existing [`ServiceClient`].
    pub fn with_service(svc: ServiceClient, port: Port) -> BlockClient {
        BlockClient { svc, port }
    }

    /// The server's put-port.
    pub fn port(&self) -> Port {
        self.port
    }

    /// Allocates a zeroed block.
    ///
    /// # Errors
    /// `Status::NoSpace` when the disk is full; transport errors.
    pub fn alloc(&self) -> Result<Capability, ClientError> {
        let body = self
            .svc
            .call_anonymous(self.port, ops::ALLOC, Bytes::new())?;
        wire::Reader::new(&body).cap().ok_or(ClientError::Malformed)
    }

    /// Allocates a contiguous extent of `n` zeroed blocks under one
    /// capability — one round-trip regardless of `n`. The extent reads
    /// and writes as a single `n × block_size` byte range, and
    /// [`free`](Self::free) returns all of it at once.
    ///
    /// # Errors
    /// `Status::NoSpace` when fewer than `n` blocks remain,
    /// `Status::BadRequest` for `n == 0`; transport errors.
    pub fn alloc_n(&self, n: u32) -> Result<(Capability, u32), ClientError> {
        let body = self.svc.call_anonymous(
            self.port,
            ops::ALLOC_N,
            wire::Writer::new().u32(n).finish(),
        )?;
        decode_extent(&body)
    }

    /// [`alloc_n`](Self::alloc_n) and the first [`write`](Self::write)
    /// in one round-trip: an extent of `n` blocks holding `data` at
    /// `offset` and zeros everywhere else. `data` is copied once, into
    /// the request frame.
    ///
    /// # Errors
    /// As for [`alloc_n`](Self::alloc_n), plus `Status::OutOfRange`
    /// when `data` does not fit; a refused request reserves nothing.
    pub fn alloc_write(
        &self,
        n: u32,
        offset: u32,
        data: &[u8],
    ) -> Result<(Capability, u32), ClientError> {
        let len = 12 + data.len();
        let body =
            self.svc
                .call_with(self.port, None, &null_cap(), ops::ALLOC_WRITE, len, |w| {
                    w.u32(n).u32(offset).bytes(data)
                })?;
        decode_extent(&body)
    }

    /// Allocates `n` *independent* single-block capabilities in one
    /// BATCH_REQUEST frame — for file servers (like `amoeba-unixfs`)
    /// whose truncate semantics need to free blocks one at a time. On
    /// any entry failing, already-allocated blocks are freed and the
    /// failure is returned: the caller never holds a partial run.
    ///
    /// # Errors
    /// As for [`alloc`](Self::alloc).
    pub fn alloc_many(&self, n: usize) -> Result<Vec<Capability>, ClientError> {
        if n == 0 {
            return Ok(Vec::new());
        }
        let calls = (0..n)
            .map(|_| (null_cap(), ops::ALLOC, Bytes::new()))
            .collect();
        let results = self.svc.call_batch(self.port, calls)?;
        let mut caps = Vec::with_capacity(n);
        for entry in results {
            match entry
                .and_then(|body| wire::Reader::new(&body).cap().ok_or(ClientError::Malformed))
            {
                Ok(cap) => caps.push(cap),
                Err(e) => {
                    let _ = self.free_many(&caps);
                    return Err(e);
                }
            }
        }
        Ok(caps)
    }

    /// Reads `len` bytes at `offset`.
    ///
    /// # Errors
    /// `Status::OutOfRange` beyond the block; rights/validation errors.
    pub fn read(&self, cap: &Capability, offset: u32, len: u32) -> Result<Vec<u8>, ClientError> {
        let body = self.svc.call(
            cap,
            ops::READ,
            wire::Writer::new().u32(offset).u32(len).finish(),
        )?;
        Ok(body.to_vec())
    }

    /// Writes `data` at `offset`.
    ///
    /// # Errors
    /// As for [`read`](Self::read), plus `RightsViolation` without WRITE.
    pub fn write(&self, cap: &Capability, offset: u32, data: &[u8]) -> Result<(), ClientError> {
        // In place: `data` is copied once, into the request frame.
        let len = 8 + data.len();
        self.svc
            .call_with(cap.port, None, cap, ops::WRITE, len, |w| {
                w.u32(offset).bytes(data)
            })?;
        Ok(())
    }

    /// Writes many `(capability, offset, data)` scatters in one
    /// BATCH_REQUEST frame — a file server's data round-trip stays O(1)
    /// no matter how many blocks or extents a write spans.
    ///
    /// # Errors
    /// The first entry failure, in order; transport errors.
    pub fn write_many(&self, writes: &[(Capability, u32, &[u8])]) -> Result<(), ClientError> {
        self.write_extending(writes, None).map(|_| ())
    }

    /// [`write_many`](Self::write_many) plus, when `fresh` names one
    /// (`n`, `offset`, `data`, as for [`alloc_write`](Self::alloc_write)),
    /// a new extent allocated and filled by the same frame: a write
    /// that grows a file is one disk round-trip, whatever it overlaps.
    /// Returns the new extent. Entries run independently on the
    /// server; if any fails, an extent that was granted is freed again
    /// before the error is returned, so the caller never holds one it
    /// was not told about.
    ///
    /// # Errors
    /// The first entry failure, in order, the allocation last;
    /// transport errors.
    pub fn write_extending(
        &self,
        writes: &[(Capability, u32, &[u8])],
        fresh: Option<(u32, u32, &[u8])>,
    ) -> Result<Option<(Capability, u32)>, ClientError> {
        match (writes, fresh) {
            ([], None) => Ok(None),
            // One entry needs no batch envelope.
            ([(cap, offset, data)], None) => self.write(cap, *offset, data).map(|()| None),
            ([], Some((n, offset, data))) => self.alloc_write(n, offset, data).map(Some),
            _ => {
                let scatters = writes.iter().map(|(cap, offset, data)| {
                    let params = wire::Writer::with_capacity(8 + data.len())
                        .u32(*offset)
                        .bytes(data);
                    (*cap, ops::WRITE, params.finish())
                });
                let grow = fresh.map(|(n, offset, data)| {
                    let params = wire::Writer::with_capacity(12 + data.len())
                        .u32(n)
                        .u32(offset)
                        .bytes(data);
                    (null_cap(), ops::ALLOC_WRITE, params.finish())
                });
                let mut entries = self
                    .svc
                    .call_batch(self.port, scatters.chain(grow).collect())?;
                let granted = fresh
                    .and_then(|_| entries.pop())
                    .map(|entry| entry.and_then(|body| decode_extent(&body)))
                    .transpose();
                let written = entries.into_iter().try_for_each(|entry| entry.map(drop));
                if let (Err(_), Ok(Some((cap, _)))) = (&written, &granted) {
                    let _ = self.free(cap);
                }
                written.and(granted)
            }
        }
    }

    /// Reads many `(capability, offset, len)` gathers in one
    /// BATCH_REQUEST frame, returning the bodies in order. A lone
    /// gather travels as a plain `READ`, without the batch envelope.
    ///
    /// # Errors
    /// The first entry failure, in order; transport errors.
    pub fn read_many(&self, reads: &[(Capability, u32, u32)]) -> Result<Vec<Bytes>, ClientError> {
        let read = |(cap, offset, len): &(Capability, u32, u32)| {
            let params = wire::Writer::new().u32(*offset).u32(*len).finish();
            (*cap, ops::READ, params)
        };
        match reads {
            [] => Ok(Vec::new()),
            [one] => {
                let (cap, command, params) = read(one);
                Ok(vec![self.svc.call(&cap, command, params)?])
            }
            _ => {
                let calls = reads.iter().map(read).collect();
                self.svc.call_batch(self.port, calls)?.into_iter().collect()
            }
        }
    }

    /// Deallocates the block (requires DELETE).
    ///
    /// # Errors
    /// Rights/validation errors.
    pub fn free(&self, cap: &Capability) -> Result<(), ClientError> {
        self.svc.call(cap, ops::FREE, Bytes::new())?;
        Ok(())
    }

    /// Frees many blocks/extents in one BATCH_REQUEST frame. Entries
    /// fail independently; failures are reported after the whole batch
    /// has been attempted, so one dead capability cannot strand its
    /// neighbours' disk space.
    ///
    /// # Errors
    /// How many entries the disk did not confirm freed, and the first
    /// of their errors (rights/validation; a transport error is every
    /// entry's).
    pub fn free_many(&self, caps: &[Capability]) -> Result<(), (usize, ClientError)> {
        match caps {
            [] => Ok(()),
            [cap] => self.free(cap).map_err(|e| (1, e)),
            _ => {
                let calls = caps
                    .iter()
                    .map(|cap| (*cap, ops::FREE, Bytes::new()))
                    .collect();
                let entries = self
                    .svc
                    .call_batch(self.port, calls)
                    .map_err(|e| (caps.len(), e))?;
                let mut failed = entries.into_iter().filter_map(Result::err);
                match failed.next() {
                    None => Ok(()),
                    Some(first) => Err((1 + failed.count(), first)),
                }
            }
        }
    }

    /// Reports disk geometry and usage.
    ///
    /// # Errors
    /// Transport errors.
    pub fn statfs(&self) -> Result<DiskStats, ClientError> {
        let body = self
            .svc
            .call_anonymous(self.port, ops::STATFS, Bytes::new())?;
        let mut r = wire::Reader::new(&body);
        match (r.u32(), r.u32(), r.u32()) {
            (Some(block_size), Some(capacity_blocks), Some(allocated_blocks)) => Ok(DiskStats {
                block_size,
                capacity_blocks,
                allocated_blocks,
            }),
            _ => Err(ClientError::Malformed),
        }
    }

    /// Access to the generic capability operations (restrict, revoke…).
    pub fn service(&self) -> &ServiceClient {
        &self.svc
    }
}

/// Decodes the `capability ‖ u32 blocks` reply of `ALLOC_N` and
/// `ALLOC_WRITE`.
fn decode_extent(body: &[u8]) -> Result<(Capability, u32), ClientError> {
    let mut r = wire::Reader::new(body);
    match (r.cap(), r.u32()) {
        (Some(cap), Some(blocks)) => Ok((cap, blocks)),
        _ => Err(ClientError::Malformed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amoeba_server::ServiceRunner;

    fn setup(cfg: DiskConfig) -> (Network, ServiceRunner, BlockClient) {
        let net = Network::new();
        let runner = ServiceRunner::spawn_open(&net, BlockServer::new(cfg, SchemeKind::OneWay));
        let client = BlockClient::open(&net, runner.put_port());
        (net, runner, client)
    }

    #[test]
    fn alloc_blocks_are_zeroed() {
        let (_net, runner, client) = setup(DiskConfig::small());
        let cap = client.alloc().unwrap();
        assert_eq!(client.read(&cap, 0, 16).unwrap(), vec![0u8; 16]);
        runner.stop();
    }

    #[test]
    fn write_read_roundtrip_at_offset() {
        let (_net, runner, client) = setup(DiskConfig::small());
        let cap = client.alloc().unwrap();
        client.write(&cap, 100, b"hello").unwrap();
        assert_eq!(&client.read(&cap, 100, 5).unwrap(), b"hello");
        // Bytes around the write remain zero.
        assert_eq!(client.read(&cap, 99, 1).unwrap(), vec![0]);
        assert_eq!(client.read(&cap, 105, 1).unwrap(), vec![0]);
        runner.stop();
    }

    #[test]
    fn out_of_range_rejected() {
        let (_net, runner, client) = setup(DiskConfig {
            block_size: 128,
            capacity_blocks: 4,
        });
        let cap = client.alloc().unwrap();
        assert_eq!(
            client.read(&cap, 100, 100).unwrap_err(),
            ClientError::Status(Status::OutOfRange)
        );
        assert_eq!(
            client.write(&cap, 127, b"too long").unwrap_err(),
            ClientError::Status(Status::OutOfRange)
        );
        // Offset overflow must not wrap.
        assert_eq!(
            client.read(&cap, u32::MAX, 2).unwrap_err(),
            ClientError::Status(Status::OutOfRange)
        );
        runner.stop();
    }

    #[test]
    fn disk_fills_up_and_free_reclaims() {
        let (_net, runner, client) = setup(DiskConfig {
            block_size: 64,
            capacity_blocks: 2,
        });
        let a = client.alloc().unwrap();
        let _b = client.alloc().unwrap();
        assert_eq!(
            client.alloc().unwrap_err(),
            ClientError::Status(Status::NoSpace)
        );
        client.free(&a).unwrap();
        assert!(client.alloc().is_ok());
        runner.stop();
    }

    #[test]
    fn freed_block_capability_is_dead() {
        let (_net, runner, client) = setup(DiskConfig::small());
        let cap = client.alloc().unwrap();
        client.free(&cap).unwrap();
        assert!(matches!(
            client.read(&cap, 0, 1).unwrap_err(),
            ClientError::Status(Status::NoSuchObject) | ClientError::Status(Status::Forged)
        ));
        runner.stop();
    }

    #[test]
    fn read_only_delegation() {
        let (_net, runner, client) = setup(DiskConfig::small());
        let cap = client.alloc().unwrap();
        client.write(&cap, 0, b"mine").unwrap();
        let ro = client.service().restrict(&cap, Rights::READ).unwrap();
        assert_eq!(&client.read(&ro, 0, 4).unwrap(), b"mine");
        assert_eq!(
            client.write(&ro, 0, b"evil").unwrap_err(),
            ClientError::Status(Status::RightsViolation)
        );
        assert_eq!(
            client.free(&ro).unwrap_err(),
            ClientError::Status(Status::RightsViolation)
        );
        runner.stop();
    }

    #[test]
    fn statfs_reports_usage() {
        let (_net, runner, client) = setup(DiskConfig {
            block_size: 256,
            capacity_blocks: 8,
        });
        let s0 = client.statfs().unwrap();
        assert_eq!(s0.allocated_blocks, 0);
        assert_eq!(s0.block_size, 256);
        let _cap = client.alloc().unwrap();
        assert_eq!(client.statfs().unwrap().allocated_blocks, 1);
        runner.stop();
    }

    #[test]
    fn extent_reads_writes_and_frees_as_one_unit() {
        let (_net, runner, client) = setup(DiskConfig {
            block_size: 64,
            capacity_blocks: 16,
        });
        let (ext, blocks) = client.alloc_n(4).unwrap();
        assert_eq!(blocks, 4);
        assert_eq!(client.statfs().unwrap().allocated_blocks, 4);
        // The extent addresses all 4 × 64 bytes through one capability,
        // including a write spanning what would be a block boundary.
        client.write(&ext, 60, b"spanning").unwrap();
        assert_eq!(&client.read(&ext, 60, 8).unwrap(), b"spanning");
        assert_eq!(client.read(&ext, 255, 1).unwrap(), vec![0]);
        assert_eq!(
            client.read(&ext, 256, 1).unwrap_err(),
            ClientError::Status(Status::OutOfRange)
        );
        client.free(&ext).unwrap();
        assert_eq!(
            client.statfs().unwrap().allocated_blocks,
            0,
            "freeing an extent must return every block it reserved"
        );
        runner.stop();
    }

    #[test]
    fn extent_allocation_respects_capacity_atomically() {
        let (_net, runner, client) = setup(DiskConfig {
            block_size: 64,
            capacity_blocks: 4,
        });
        let _one = client.alloc().unwrap();
        assert_eq!(
            client.alloc_n(4).unwrap_err(),
            ClientError::Status(Status::NoSpace),
            "an oversized extent must not partially reserve"
        );
        // The failed request reserved nothing: 3 blocks still fit.
        let (ext, _) = client.alloc_n(3).unwrap();
        assert_eq!(client.statfs().unwrap().allocated_blocks, 4);
        client.free(&ext).unwrap();
        assert_eq!(
            client.alloc_n(0).unwrap_err(),
            ClientError::Status(Status::BadRequest)
        );
        runner.stop();
    }

    #[test]
    fn batched_alloc_write_read_free_roundtrip() {
        let (_net, runner, client) = setup(DiskConfig {
            block_size: 32,
            capacity_blocks: 8,
        });
        let caps = client.alloc_many(3).unwrap();
        assert_eq!(caps.len(), 3);
        assert_eq!(client.statfs().unwrap().allocated_blocks, 3);
        let writes: Vec<(Capability, u32, &[u8])> = caps
            .iter()
            .enumerate()
            .map(|(i, cap)| (*cap, i as u32, b"data".as_slice()))
            .collect();
        client.write_many(&writes).unwrap();
        let reads: Vec<(Capability, u32, u32)> = caps
            .iter()
            .enumerate()
            .map(|(i, cap)| (*cap, i as u32, 4))
            .collect();
        for body in client.read_many(&reads).unwrap() {
            assert_eq!(&body[..], b"data");
        }
        client.free_many(&caps).unwrap();
        assert_eq!(client.statfs().unwrap().allocated_blocks, 0);
        runner.stop();
    }

    #[test]
    fn oversized_batched_alloc_returns_the_partial_run() {
        let (_net, runner, client) = setup(DiskConfig {
            block_size: 32,
            capacity_blocks: 2,
        });
        assert_eq!(
            client.alloc_many(3).unwrap_err(),
            ClientError::Status(Status::NoSpace)
        );
        assert_eq!(
            client.statfs().unwrap().allocated_blocks,
            0,
            "the two blocks that did allocate must have been freed"
        );
        runner.stop();
    }

    #[test]
    fn alloc_write_zero_fills_around_the_payload_after_heap_reuse() {
        let (_net, runner, client) = setup(DiskConfig {
            block_size: 64,
            capacity_blocks: 8,
        });
        // Leave 0xFF in a heap block of exactly the size the next
        // extent will ask the allocator for.
        let (dirty, _) = client.alloc_n(4).unwrap();
        client.write(&dirty, 0, &[0xFF; 256]).unwrap();
        client.free(&dirty).unwrap();

        let (ext, blocks) = client.alloc_write(4, 100, b"payload").unwrap();
        assert_eq!(blocks, 4);
        assert_eq!(client.statfs().unwrap().allocated_blocks, 4);
        let mut expected = vec![0u8; 256];
        expected[100..107].copy_from_slice(b"payload");
        assert_eq!(
            client.read(&ext, 0, 256).unwrap(),
            expected,
            "every byte the payload does not cover must read as zero"
        );
        // The extent is an ordinary one afterwards.
        client.write(&ext, 250, b"tail").unwrap();
        assert_eq!(&client.read(&ext, 250, 4).unwrap(), b"tail");
        client.free(&ext).unwrap();
        assert_eq!(client.statfs().unwrap().allocated_blocks, 0);
        runner.stop();
    }

    #[test]
    fn refused_alloc_write_reserves_nothing() {
        let (_net, runner, client) = setup(DiskConfig {
            block_size: 64,
            capacity_blocks: 4,
        });
        let _held = client.alloc().unwrap();
        let refused = [
            ((0, 0, &b"x"[..]), Status::BadRequest),
            ((2, 128, &b"x"[..]), Status::OutOfRange),
            ((2, 120, &b"nine byte"[..]), Status::OutOfRange),
            // `offset + len` wraps a u32; it must not wrap the check.
            ((2, u32::MAX, &b"xx"[..]), Status::OutOfRange),
            ((4, 0, &b"x"[..]), Status::NoSpace),
        ];
        for ((n, offset, data), status) in refused {
            assert_eq!(
                client.alloc_write(n, offset, data).unwrap_err(),
                ClientError::Status(status),
                "alloc_write({n}, {offset}, {} bytes)",
                data.len()
            );
            assert_eq!(
                client.statfs().unwrap().allocated_blocks,
                1,
                "a refused {status:?} must not reserve"
            );
        }
        // The last byte of the extent is still in range.
        let (ext, _) = client.alloc_write(3, 191, b"x").unwrap();
        assert_eq!(client.read(&ext, 191, 1).unwrap(), b"x");
        assert_eq!(client.statfs().unwrap().allocated_blocks, 4);
        runner.stop();
    }

    #[test]
    fn write_extending_allocates_and_scatters_in_one_frame() {
        let (net, runner, client) = setup(DiskConfig {
            block_size: 32,
            capacity_blocks: 8,
        });
        let (old, _) = client.alloc_n(2).unwrap();
        let sent = || net.stats().snapshot().packets_sent;

        let before = sent();
        let (fresh, blocks) = client
            .write_extending(
                &[(old, 60, b"tail")],
                Some((3, 0, b"head of the new extent")),
            )
            .unwrap()
            .expect("an extent was asked for");
        assert_eq!(sent() - before, 2, "one request frame, one reply frame");
        assert_eq!(blocks, 3);
        assert_eq!(&client.read(&old, 60, 4).unwrap(), b"tail");
        assert_eq!(
            &client.read(&fresh, 0, 22).unwrap(),
            b"head of the new extent"
        );
        assert_eq!(client.statfs().unwrap().allocated_blocks, 5);

        // A scatter that fails takes the extent granted beside it back.
        assert_eq!(
            client
                .write_extending(&[(old, 62, b"too long")], Some((3, 0, b"x")))
                .unwrap_err(),
            ClientError::Status(Status::OutOfRange)
        );
        assert_eq!(client.statfs().unwrap().allocated_blocks, 5);
        // And a refused allocation is the error when the scatters land.
        assert_eq!(
            client
                .write_extending(&[(old, 0, b"ok")], Some((4, 0, b"x")))
                .unwrap_err(),
            ClientError::Status(Status::NoSpace)
        );
        assert_eq!(client.statfs().unwrap().allocated_blocks, 5);
        runner.stop();
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        const DISK: DiskConfig = DiskConfig {
            block_size: 16,
            capacity_blocks: 64,
        };

        fn server() -> BlockServer {
            let mut server = BlockServer::new(DISK, SchemeKind::OneWay);
            server.bind(Port::new(0xB10C).unwrap());
            server
        }

        /// One request straight into the handler — no network between
        /// the generated bytes and the code that parses them.
        fn ask(server: &BlockServer, cap: Capability, command: u32, params: Bytes) -> Reply {
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

        fn allocated(server: &BlockServer) -> u32 {
            server.allocated.load(Ordering::Acquire)
        }

        fn read_all(server: &BlockServer, ext: Capability, n: u32) -> Bytes {
            let params = wire::Writer::new().u32(0).u32(n * DISK.block_size).finish();
            let reply = ask(server, ext, ops::READ, params);
            assert_eq!(reply.status, Status::Ok);
            reply.body
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]

            /// `ALLOC_WRITE` is `ALLOC_N` followed by `WRITE`, byte for
            /// byte and status for status — with the one difference
            /// that a payload that does not fit reserves nothing.
            #[test]
            fn alloc_write_equals_alloc_n_then_write(
                n in 1u32..8,
                offset in 0u32..160,
                data in proptest::collection::vec(any::<u8>(), 0..96),
            ) {
                let (fused, split) = (server(), server());
                let params = wire::Writer::new().u32(n).u32(offset).bytes(&data).finish();
                let one = ask(&fused, null_cap(), ops::ALLOC_WRITE, params);

                let granted = ask(&split, null_cap(), ops::ALLOC_N, wire::Writer::new().u32(n).finish());
                prop_assert_eq!(granted.status, Status::Ok);
                let ext = wire::Reader::new(&granted.body).cap().unwrap();
                let params = wire::Writer::new().u32(offset).bytes(&data).finish();
                let written = ask(&split, ext, ops::WRITE, params);

                prop_assert_eq!(one.status, written.status);
                if one.status == Status::Ok {
                    let mut r = wire::Reader::new(&one.body);
                    let (fused_ext, blocks) = (r.cap().unwrap(), r.u32().unwrap());
                    prop_assert_eq!(blocks, n);
                    prop_assert_eq!(allocated(&fused), n);
                    prop_assert_eq!(read_all(&fused, fused_ext, n), read_all(&split, ext, n));
                } else {
                    prop_assert_eq!(one.status, Status::OutOfRange);
                    prop_assert_eq!(allocated(&fused), 0);
                }
            }

            /// Hostile allocation params — arbitrary bytes, and every
            /// truncation of a well-formed request — never panic the
            /// handler, and whatever is refused reserves nothing.
            #[test]
            fn hostile_allocation_params_reserve_only_what_they_are_granted(
                command in prop_oneof![Just(ops::ALLOC_N), Just(ops::ALLOC_WRITE)],
                noise in proptest::collection::vec(any::<u8>(), 0..48),
                n in any::<u32>(),
                offset in any::<u32>(),
                data in proptest::collection::vec(any::<u8>(), 0..40),
                cut in 0usize..64,
            ) {
                let server = server();
                let whole = if command == ops::ALLOC_N {
                    wire::Writer::new().u32(n).finish()
                } else {
                    wire::Writer::new().u32(n).u32(offset).bytes(&data).finish()
                };
                let cut = cut % whole.len();
                for params in [Bytes::from(noise), whole.slice(..cut), whole] {
                    let before = allocated(&server);
                    let reply = ask(&server, null_cap(), command, params);
                    let granted = match reply.status {
                        Status::Ok => wire::Reader::new(&reply.body[16..]).u32().unwrap(),
                        _ => 0,
                    };
                    prop_assert_eq!(allocated(&server), before + granted);
                    prop_assert!(allocated(&server) <= DISK.capacity_blocks);
                }
                // A request cut short anywhere is malformed, not a
                // smaller request.
                if command == ops::ALLOC_WRITE {
                    let whole = wire::Writer::new().u32(1).u32(0).bytes(&data).finish();
                    let short = whole.slice(..cut % whole.len());
                    prop_assert_eq!(
                        ask(&server, null_cap(), command, short).status,
                        Status::BadRequest
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "block size")]
    fn zero_block_size_rejected() {
        BlockServer::new(
            DiskConfig {
                block_size: 0,
                capacity_blocks: 1,
            },
            SchemeKind::Simple,
        );
    }
}
