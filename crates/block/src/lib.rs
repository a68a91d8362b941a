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
use amoeba_cap::{Capability, ObjectNum, Rights};
use amoeba_net::{Network, Port};
use amoeba_server::proto::{null_cap, Reply, Request, Status};
use amoeba_server::wire::FrameWriter;
use amoeba_server::{
    dispatch, wire, ClientError, Command, ObjectTable, RequestCtx, Service, ServiceClient,
};
use bytes::Bytes;
use std::sync::atomic::{AtomicU32, Ordering};

/// Block-server operation codes. What each needs of the presented
/// capability is declared once, in the server's command table.
pub mod ops {
    /// Allocate a zeroed block. Reply: capability.
    pub const ALLOC: u32 = 1;
    /// Read `len` bytes at `offset`. Params: `u32 offset`, `u32 len`.
    pub const READ: u32 = 2;
    /// Write bytes at `offset`. Params: `u32 offset`, `bytes data`.
    pub const WRITE: u32 = 3;
    /// Deallocate the block or extent.
    pub const FREE: u32 = 4;
    /// Report disk geometry. Reply: `u32 block_size`,
    /// `u32 capacity`, `u32 allocated`.
    pub const STATFS: u32 = 5;
    /// Allocate a contiguous extent of `n` zeroed blocks under ONE
    /// capability. Params: `u32 n` (≥ 1). Reply: capability,
    /// `u32 blocks`. The extent reads and writes like one large block
    /// of `n × block_size` bytes, and FREE returns all `n` blocks at
    /// once — a file server pays one allocation round-trip regardless
    /// of how many blocks it needs.
    pub const ALLOC_N: u32 = 6;
    /// [`ALLOC_N`] and the first [`WRITE`] in one request.
    /// Params: `u32 n` (≥ 1), `u32 offset`, `bytes data`, then
    /// optionally a retire list: `u32 count` and that many extent
    /// capabilities to free. Reply: capability, `u32 blocks`, and —
    /// when the request carried a list — `u32` how many listed extents
    /// were not freed. The extent is built from the payload — `data` at
    /// `offset`, zeros everywhere else — so a file server that grows a
    /// file pays one disk round-trip, not two, and no byte of the
    /// extent is written twice; the list lets it return a destroyed
    /// file's extents in that same frame. Each listed extent is freed
    /// exactly as [`FREE`] would free it (a forged, dead, duplicated or
    /// rights-less entry frees nothing and is counted), and the `n` blocks are reserved net of what the list
    /// frees. All-or-nothing: a request that is refused (`BadRequest`
    /// for `n == 0` or a malformed list, `OutOfRange` when
    /// `offset + len` exceeds `n × block_size`, `NoSpace`) reserves and
    /// frees nothing.
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
    /// Set by the one request freeing the extent, between its
    /// capability check and its removal, so no `FREE` or retire list
    /// running beside it can count the same blocks twice.
    freeing: bool,
}

/// What freeing an extent needs of its capability: `FREE`'s, and each
/// entry of an `ALLOC_WRITE`'s retire list.
const FREEING: Rights = Rights::DELETE;

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
    const COMMANDS: &'static [Command<Self>] = &[
        Command::anonymous(ops::ALLOC, Self::alloc),
        Command::anonymous(ops::ALLOC_N, Self::alloc_n),
        Command::anonymous(ops::ALLOC_WRITE, Self::alloc_write),
        Command::new(ops::READ, Rights::READ, Self::read),
        Command::new(ops::WRITE, Rights::WRITE, Self::write),
        Command::new(ops::FREE, FREEING, Self::free),
        Command::anonymous(ops::STATFS, Self::statfs),
    ];

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

    /// Atomically reserves `n` blocks against capacity, net of `freed`
    /// blocks of claimed extents that leave with this reservation, and
    /// mints one capability covering all of them: `data` at `offset`,
    /// zeros everywhere else. The caller has checked that `data` fits.
    fn alloc_extent(
        &self,
        n: u32,
        freed: u32,
        offset: usize,
        data: &[u8],
    ) -> Result<Capability, Status> {
        let capacity = self.config.capacity_blocks;
        self.allocated
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |cur| {
                // Claimed blocks are still counted in `cur`, and only
                // their claimant can take them out.
                cur.checked_sub(freed)?
                    .checked_add(n)
                    .filter(|&next| next <= capacity)
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
            freeing: false,
        });
        Ok(cap)
    }

    /// Claims the extent `cap` names for freeing, on the terms `FREE`
    /// sets: [`FREEING`], and no other request freeing it already.
    /// Returns its blocks, still counted as allocated.
    fn claim(&self, cap: &Capability, need: Rights) -> Result<u32, Status> {
        let claimed = self.table.with_object_mut(cap, need, |ext| {
            (!std::mem::replace(&mut ext.freeing, true)).then_some(ext.blocks)
        });
        claimed?.ok_or(Status::NoSuchObject)
    }

    fn alloc(&self, _: &Request, _: Rights) -> Result<Bytes, Status> {
        // A single block's reply carries only the capability — the
        // pre-extent wire shape, kept frozen for old clients.
        let cap = self.alloc_extent(1, 0, 0, &[])?;
        Ok(wire::Writer::new().cap(&cap).finish())
    }

    fn alloc_n(&self, req: &Request, _: Rights) -> Result<Bytes, Status> {
        let n = wire::Reader::new(&req.params)
            .u32()
            .ok_or(Status::BadRequest)?;
        if n == 0 {
            return Err(Status::BadRequest);
        }
        let cap = self.alloc_extent(n, 0, 0, &[])?;
        Ok(wire::Writer::new().cap(&cap).u32(n).finish())
    }

    fn alloc_write(&self, req: &Request, _: Rights) -> Result<Bytes, Status> {
        let mut r = wire::Reader::new(&req.params);
        let (Some(n), Some(offset), Some(data)) = (r.u32(), r.u32(), r.bytes()) else {
            return Err(Status::BadRequest);
        };
        // Whatever follows the payload is the retire list: a count and
        // exactly that many capabilities.
        let retire = if r.is_empty() {
            None
        } else {
            match r
                .u32()
                .and_then(|k| (0..k).map(|_| r.cap()).collect::<Option<Vec<_>>>())
            {
                Some(caps) if r.is_empty() => Some(caps),
                _ => return Err(Status::BadRequest),
            }
        };
        if n == 0 {
            return Err(Status::BadRequest);
        }
        // Checked before anything is claimed or reserved, and in u64,
        // where neither side can wrap.
        let size = u64::from(n) * u64::from(self.config.block_size);
        if u64::from(offset) + data.len() as u64 > size {
            return Err(Status::OutOfRange);
        }
        let listed = retire.as_deref().unwrap_or_default();
        let claimed: Vec<(ObjectNum, u32)> = listed
            .iter()
            .filter_map(|cap| Some((cap.object, self.claim(cap, FREEING).ok()?)))
            .collect();
        let freed = claimed.iter().map(|&(_, blocks)| blocks).sum();
        match self.alloc_extent(n, freed, offset as usize, data) {
            Ok(cap) => {
                for &(object, _) in &claimed {
                    self.table.remove(object);
                }
                let reply = wire::Writer::new().cap(&cap).u32(n);
                let reply = match retire {
                    Some(_) => reply.u32((listed.len() - claimed.len()) as u32),
                    None => reply,
                };
                Ok(reply.finish())
            }
            Err(status) => {
                // Refused whole: what was claimed stays as it was.
                for &(object, _) in &claimed {
                    self.table.with_data_mut(object, |ext| ext.freeing = false);
                }
                Err(status)
            }
        }
    }

    fn read(&self, req: &Request, need: Rights) -> Result<Bytes, Status> {
        let mut r = wire::Reader::new(&req.params);
        let (Some(offset), Some(len)) = (r.u32(), r.u32()) else {
            return Err(Status::BadRequest);
        };
        let result = self.table.with_object(&req.cap, need, |ext| {
            let end = offset.checked_add(len)? as usize;
            if end > ext.data.len() {
                return None;
            }
            // Extent → a recycled buffer of exactly this size; the
            // dispatch loop copies it on into the reply frame.
            let span = &ext.data[offset as usize..end];
            Some(wire::Writer::with_capacity(span.len()).raw(span).finish())
        });
        result?.ok_or(Status::OutOfRange)
    }

    fn write(&self, req: &Request, need: Rights) -> Result<Bytes, Status> {
        let mut r = wire::Reader::new(&req.params);
        let (Some(offset), Some(data)) = (r.u32(), r.bytes()) else {
            return Err(Status::BadRequest);
        };
        let result = self.table.with_object_mut(&req.cap, need, |ext| {
            let end = (offset as usize).checked_add(data.len())?;
            if end > ext.data.len() {
                return None;
            }
            ext.data[offset as usize..end].copy_from_slice(data);
            Some(())
        });
        result?.ok_or(Status::OutOfRange)?;
        Ok(Bytes::new())
    }

    fn free(&self, req: &Request, need: Rights) -> Result<Bytes, Status> {
        let blocks = self.claim(&req.cap, need)?;
        // The whole extent comes back at once — a failed multi-block
        // allocation can never strand part of its reservation.
        self.table.remove(req.cap.object);
        self.allocated.fetch_sub(blocks, Ordering::AcqRel);
        Ok(Bytes::new())
    }

    fn statfs(&self, _: &Request, _: Rights) -> Result<Bytes, Status> {
        Ok(wire::Writer::new()
            .u32(self.config.block_size)
            .u32(self.config.capacity_blocks)
            .u32(self.allocated.load(Ordering::Acquire))
            .finish())
    }
}

impl Service for BlockServer {
    fn bind(&mut self, put_port: Port) {
        self.table.set_port(put_port);
    }

    fn handle(&self, req: &Request, _ctx: &RequestCtx) -> Reply {
        dispatch(self, &self.table, Self::COMMANDS, req)
    }
}

/// What a server built on the block server answers its own client when
/// a disk request fails: the disk's status, or `NoSpace` when the disk
/// could not be reached.
pub fn disk_status(e: ClientError) -> Status {
    match e {
        ClientError::Status(s) => s,
        _ => Status::NoSpace,
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

/// An `ALLOC_WRITE`: the extent [`BlockClient::write_extending`]
/// allocates and fills in a write's own frame, and the extents that
/// frame frees.
#[derive(Debug, Clone, Copy)]
pub struct Fresh<'a> {
    /// Blocks in the extent (≥ 1).
    pub n: u32,
    /// Where `data` starts in the extent.
    pub offset: u32,
    /// The payload; every other byte of the extent reads as zero.
    pub data: &'a [u8],
    /// Extents to free in the same frame, each named by a capability
    /// with DELETE. Empty, the request is the one without a list.
    pub retire: &'a [Capability],
}

impl Fresh<'_> {
    /// The params' length.
    fn len(&self) -> usize {
        let list = match self.retire.len() {
            0 => 0,
            k => 4 + 16 * k,
        };
        12 + self.data.len() + list
    }

    /// Writes the params in place: the retire list only if there is one.
    fn params<'w>(&self, w: FrameWriter<'w>) -> FrameWriter<'w> {
        let w = w.u32(self.n).u32(self.offset).bytes(self.data);
        if self.retire.is_empty() {
            return w;
        }
        let w = w.u32(self.retire.len() as u32);
        self.retire.iter().fold(w, |w, cap| w.cap(cap))
    }

    /// Decodes the reply: the extent, its blocks, and how many listed
    /// extents the disk did not free — all of them when the reply
    /// carries no count, as from a disk that predates the list.
    fn granted(&self, body: &[u8]) -> Result<(Capability, u32, u32), ClientError> {
        let mut r = wire::Reader::new(body);
        let (Some(cap), Some(blocks)) = (r.cap(), r.u32()) else {
            return Err(ClientError::Malformed);
        };
        let listed = self.retire.len() as u32;
        let not_freed = match listed {
            0 => 0,
            _ => r.u32().map_or(listed, |k| k.min(listed)),
        };
        Ok((cap, blocks, not_freed))
    }
}

/// What [`BlockClient::write_extending`] did.
#[derive(Debug)]
pub struct Extended {
    /// The write, and the fresh extent and its blocks if one was asked
    /// for.
    pub written: Result<Option<(Capability, u32)>, ClientError>,
    /// How many of the fresh extent's `retire` list the disk did not
    /// free — `Some` exactly when the allocation was granted, which is
    /// when the list was acted on, even if a scatter beside it failed.
    /// `None`: refused, and the listed extents are as they were; or
    /// unanswered, and nobody knows.
    pub not_freed: Option<u32>,
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
        let fresh = Fresh {
            n,
            offset,
            data,
            retire: &[],
        };
        let (cap, blocks, _) = self.alloc_write_retiring(&fresh)?;
        Ok((cap, blocks))
    }

    /// One `ALLOC_WRITE` frame, its retire list included: the extent,
    /// its blocks, and how many listed extents were not freed.
    fn alloc_write_retiring(
        &self,
        fresh: &Fresh<'_>,
    ) -> Result<(Capability, u32, u32), ClientError> {
        let body = self.svc.call_with(
            self.port,
            None,
            &null_cap(),
            ops::ALLOC_WRITE,
            fresh.len(),
            |w| fresh.params(w),
        )?;
        fresh.granted(&body)
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
        let results = self.svc.batch(self.port, n, 0, |_, buf| {
            Request::encode_with(buf, &null_cap(), ops::ALLOC, |w| w)
        })?;
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
        let body = self.svc.call_with(cap.port, None, cap, ops::READ, 8, |w| {
            w.u32(offset).u32(len)
        })?;
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
        self.write_extending(writes, None).written.map(drop)
    }

    /// [`write_many`](Self::write_many) plus, when `fresh` names one, a
    /// new extent allocated and filled by the same frame, which also
    /// frees `fresh.retire`: a write that grows a file is one disk
    /// round-trip, whatever it overlaps and whatever it frees. Every
    /// scatter and the allocation are written once, into the frame.
    /// Entries run independently on the server; if any fails, an extent
    /// that was granted is freed again before the error is returned, so
    /// the caller never holds one it was not told about.
    ///
    /// # Errors
    /// In [`Extended::written`]: the first entry failure, in order, the
    /// allocation last; transport errors.
    pub fn write_extending(
        &self,
        writes: &[(Capability, u32, &[u8])],
        fresh: Option<Fresh<'_>>,
    ) -> Extended {
        let (written, granted) = match (writes, &fresh) {
            ([], None) => (Ok(()), None),
            // One entry needs no batch envelope.
            ([(cap, offset, data)], None) => (self.write(cap, *offset, data), None),
            ([], Some(fresh)) => (Ok(()), Some(self.alloc_write_retiring(fresh))),
            _ => {
                let count = writes.len() + usize::from(fresh.is_some());
                let len = writes
                    .iter()
                    .map(|(_, _, data)| 8 + data.len())
                    .sum::<usize>()
                    + fresh.as_ref().map_or(0, Fresh::len);
                let batch = self.svc.batch(self.port, count, len, |i, buf| {
                    match (writes.get(i), &fresh) {
                        (Some((cap, offset, data)), _) => {
                            Request::encode_with(buf, cap, ops::WRITE, |w| {
                                w.u32(*offset).bytes(data)
                            })
                        }
                        (None, Some(fresh)) => {
                            Request::encode_with(buf, &null_cap(), ops::ALLOC_WRITE, |w| {
                                fresh.params(w)
                            })
                        }
                        (None, None) => unreachable!("one entry per scatter, one for the extent"),
                    }
                });
                match batch {
                    Ok(mut entries) => {
                        let granted = fresh.as_ref().and_then(|fresh| {
                            let entry = entries.pop()?;
                            Some(entry.and_then(|body| fresh.granted(&body)))
                        });
                        let written = entries.into_iter().try_for_each(|entry| entry.map(drop));
                        (written, granted)
                    }
                    Err(e) => (Err(e), None),
                }
            }
        };
        let not_freed = match &granted {
            Some(Ok((_, _, not_freed))) => Some(*not_freed),
            _ => None,
        };
        if let (Err(_), Some(Ok((cap, _, _)))) = (&written, &granted) {
            let _ = self.free(cap);
        }
        let granted = granted
            .map(|entry| entry.map(|(cap, blocks, _)| (cap, blocks)))
            .transpose();
        Extended {
            written: written.and(granted),
            not_freed,
        }
    }

    /// Reads many `(capability, offset, len)` gathers in one
    /// BATCH_REQUEST frame, returning the bodies in order. A lone
    /// gather travels as a plain `READ`, without the batch envelope.
    ///
    /// # Errors
    /// The first entry failure, in order; transport errors.
    pub fn read_many(&self, reads: &[(Capability, u32, u32)]) -> Result<Vec<Bytes>, ClientError> {
        match reads {
            [] => Ok(Vec::new()),
            [(cap, offset, len)] => {
                let body = self.svc.call_with(cap.port, None, cap, ops::READ, 8, |w| {
                    w.u32(*offset).u32(*len)
                })?;
                Ok(vec![body])
            }
            _ => self
                .svc
                .batch(self.port, reads.len(), 8 * reads.len(), |i, buf| {
                    let (cap, offset, len) = &reads[i];
                    Request::encode_with(buf, cap, ops::READ, |w| w.u32(*offset).u32(*len))
                })?
                .into_iter()
                .collect(),
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
                let entries = self
                    .svc
                    .batch(self.port, caps.len(), 0, |i, buf| {
                        Request::encode_with(buf, &caps[i], ops::FREE, |w| w)
                    })
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

    /// An `ALLOC_WRITE` of `n` blocks, `data` at 0, freeing `retire`.
    fn fresh<'a>(n: u32, data: &'a [u8], retire: &'a [Capability]) -> Option<Fresh<'a>> {
        Some(Fresh {
            n,
            offset: 0,
            data,
            retire,
        })
    }

    #[test]
    fn write_extending_allocates_and_scatters_in_one_frame() {
        let (net, runner, client) = setup(DiskConfig {
            block_size: 32,
            capacity_blocks: 8,
        });
        let (old, _) = client.alloc_n(2).unwrap();
        let (victim, _) = client.alloc_n(1).unwrap();
        let allocated = || client.statfs().unwrap().allocated_blocks;
        let sent = || net.stats().snapshot().packets_sent;

        // Every payload is written once, into the one frame: no
        // parameter blob is built to be copied in after.
        let (before, taken) = (sent(), amoeba_net::BufPool::taken_on_this_thread());
        let done = client.write_extending(
            &[(old, 60, b"tail")],
            fresh(3, b"head of the new extent", &[victim]),
        );
        let taken = amoeba_net::BufPool::taken_on_this_thread() - taken;
        assert_eq!(taken, 1, "one buffer taken: the frame");
        assert_eq!(sent() - before, 2, "one request frame, one reply frame");
        assert_eq!(done.not_freed, Some(0), "the victim went with the frame");
        let (new, blocks) = done.written.unwrap().expect("an extent was asked for");
        assert_eq!(blocks, 3);
        assert_eq!(&client.read(&old, 60, 4).unwrap(), b"tail");
        assert_eq!(
            &client.read(&new, 0, 22).unwrap(),
            b"head of the new extent"
        );
        assert!(client.read(&victim, 0, 1).is_err());
        assert_eq!(allocated(), 5);

        // A scatter that fails takes the extent granted beside it back;
        // the list went with the grant.
        let (victim, _) = client.alloc_n(1).unwrap();
        let done = client.write_extending(&[(old, 62, b"too long")], fresh(3, b"x", &[victim]));
        assert_eq!(
            done.written.unwrap_err(),
            ClientError::Status(Status::OutOfRange)
        );
        assert_eq!(done.not_freed, Some(0));
        assert_eq!(allocated(), 5);

        // A refused allocation is the error when the scatters land, and
        // leaves the listed extent where it was...
        let (victim, _) = client.alloc_n(1).unwrap();
        let done = client.write_extending(&[(old, 0, b"ok")], fresh(4, b"x", &[victim]));
        assert_eq!(
            done.written.unwrap_err(),
            ClientError::Status(Status::NoSpace)
        );
        assert_eq!(done.not_freed, None);
        assert_eq!(allocated(), 6);
        // ...which counts toward the reservation: 6 - 1 + 3 fills the disk.
        let done = client.write_extending(&[], fresh(3, b"x", &[victim]));
        assert_eq!(done.not_freed, Some(0));
        assert!(done.written.unwrap().is_some());
        assert_eq!(allocated(), 8);
        runner.stop();
    }

    /// A disk from before retire lists: it reads `ALLOC_WRITE`'s params
    /// up to the payload and ignores the rest, so its reply has no count.
    struct Predates(BlockServer);

    impl Service for Predates {
        fn bind(&mut self, put_port: Port) {
            self.0.bind(put_port);
        }

        fn handle(&self, req: &Request, ctx: &RequestCtx) -> Reply {
            let mut r = wire::Reader::new(&req.params);
            let (ops::ALLOC_WRITE, Some(_), Some(_), Some(_)) =
                (req.command, r.u32(), r.u32(), r.bytes())
            else {
                return self.0.handle(req, ctx);
            };
            let upto = req.params.len() - r.remainder().len();
            let req = Request {
                cap: req.cap,
                command: req.command,
                params: req.params.slice(..upto),
            };
            self.0.handle(&req, ctx)
        }
    }

    #[test]
    fn a_disk_that_predates_the_list_has_every_listed_extent_counted() {
        let net = Network::new();
        let disk = Predates(BlockServer::new(DiskConfig::small(), SchemeKind::OneWay));
        let runner = ServiceRunner::spawn_open(&net, disk);
        let client = BlockClient::open(&net, runner.put_port());
        let (kept, _) = client.alloc_n(1).unwrap();
        let done = client.write_extending(&[], fresh(2, b"x", &[kept, kept]));
        assert_eq!(done.not_freed, Some(2), "no count: nothing confirmed freed");
        assert!(done.written.unwrap().is_some());
        assert_eq!(client.statfs().unwrap().allocated_blocks, 3);
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

        fn alloc_n(server: &BlockServer, n: u32) -> Option<Capability> {
            let reply = ask(
                server,
                null_cap(),
                ops::ALLOC_N,
                wire::Writer::new().u32(n).finish(),
            );
            (reply.status == Status::Ok).then(|| wire::Reader::new(&reply.body).cap().unwrap())
        }

        fn write(server: &BlockServer, ext: Capability, offset: u32, data: &[u8]) -> Status {
            let params = wire::Writer::new().u32(offset).bytes(data).finish();
            ask(server, ext, ops::WRITE, params).status
        }

        /// `ALLOC_WRITE`'s params, encoded by hand: the retire list
        /// (count, capabilities) only if there is one.
        fn alloc_write_params(n: u32, offset: u32, data: &[u8], retire: &[Capability]) -> Bytes {
            let w = wire::Writer::new().u32(n).u32(offset).bytes(data);
            if retire.is_empty() {
                return w.finish();
            }
            let w = w.u32(retire.len() as u32);
            retire.iter().fold(w, |w, cap| w.cap(cap)).finish()
        }

        /// The extents of the given sizes that fit, and a retire list
        /// drawn from them by `recipe`: which extent, presented how —
        /// as minted, restricted to DELETE, restricted to everything
        /// but DELETE, forged, or as a capability freed before any of
        /// them was allocated (whose number the first one reuses).
        fn extents_and_list(
            server: &BlockServer,
            sizes: &[u32],
            recipe: &[(usize, u8)],
        ) -> (Vec<Capability>, Vec<Capability>) {
            let stale = alloc_n(server, 1).unwrap();
            assert_eq!(
                ask(server, stale, ops::FREE, Bytes::new()).status,
                Status::Ok
            );
            let held: Vec<Capability> = sizes.iter().filter_map(|&n| alloc_n(server, n)).collect();
            let restrict = |cap: Capability, keep: Rights| {
                let params = wire::Writer::new().u32(keep.bits() as u32).finish();
                let reply = ask(server, cap, amoeba_server::proto::cmd::STD_RESTRICT, params);
                wire::Reader::new(&reply.body).cap().unwrap()
            };
            let list = recipe
                .iter()
                .map(|&(i, how)| match held.get(i % held.len().max(1)) {
                    None => stale,
                    Some(&cap) => match how {
                        0 => cap,
                        1 => restrict(cap, Rights::DELETE),
                        2 => restrict(cap, Rights::ALL.without(Rights::DELETE)),
                        3 => Capability {
                            check: cap.check ^ 1,
                            ..cap
                        },
                        _ => stale,
                    },
                })
                .collect();
            (held, list)
        }

        /// Whether the extent `cap` was minted for is still on the disk.
        fn alive(server: &BlockServer, cap: Capability) -> bool {
            let info = amoeba_server::proto::cmd::STD_INFO;
            ask(server, cap, info, Bytes::new()).status == Status::Ok
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]

            /// A granted `ALLOC_WRITE` is `FREE` of each retire-list
            /// entry, then `ALLOC_N`, then `WRITE` — byte for byte,
            /// extent for extent, and with the `FREE`s that failed as
            /// its count; without a list its reply is `ALLOC_N`'s. A
            /// refused one is refused whole: it frees and reserves
            /// nothing (a payload that does not fit, where `ALLOC_N`
            /// would have reserved).
            #[test]
            fn alloc_write_equals_alloc_n_then_write(
                n in prop_oneof![1u32..8, 24u32..72],
                offset in 0u32..160,
                data in proptest::collection::vec(any::<u8>(), 0..96),
                sizes in proptest::collection::vec(4u32..32, 0..5),
                recipe in proptest::collection::vec((any::<usize>(), 0u8..5), 0..6),
            ) {
                let (fused, split) = (server(), server());
                let (held_fused, list_fused) = extents_and_list(&fused, &sizes, &recipe);
                let (held_split, list_split) = extents_and_list(&split, &sizes, &recipe);
                let before = allocated(&fused);
                let params = alloc_write_params(n, offset, &data, &list_fused);
                let one = ask(&fused, null_cap(), ops::ALLOC_WRITE, params);

                let refused_frees = list_split
                    .iter()
                    .filter(|&&cap| ask(&split, cap, ops::FREE, Bytes::new()).status != Status::Ok)
                    .count() as u32;
                let granted = alloc_n(&split, n);
                if one.status == Status::Ok {
                    let ext = granted.expect("reserved net of the list, so after its FREEs");
                    prop_assert_eq!(write(&split, ext, offset, &data), Status::Ok);
                    let mut r = wire::Reader::new(&one.body);
                    let (fused_ext, blocks) = (r.cap().unwrap(), r.u32().unwrap());
                    prop_assert_eq!(blocks, n);
                    prop_assert_eq!(r.u32(), (!list_fused.is_empty()).then_some(refused_frees));
                    prop_assert!(r.is_empty());
                    prop_assert_eq!(allocated(&fused), allocated(&split));
                    prop_assert_eq!(read_all(&fused, fused_ext, n), read_all(&split, ext, n));
                    for (&f, &s) in held_fused.iter().zip(&held_split) {
                        prop_assert_eq!(alive(&fused, f), alive(&split, s));
                    }
                } else {
                    match (one.status, granted) {
                        (Status::NoSpace, granted) => prop_assert!(granted.is_none()),
                        (Status::OutOfRange, Some(ext)) => {
                            prop_assert_eq!(write(&split, ext, offset, &data), Status::OutOfRange)
                        }
                        (Status::OutOfRange, None) => {}
                        (other, _) => prop_assert!(false, "refused with {other:?}"),
                    }
                    prop_assert!(one.body.is_empty());
                    prop_assert_eq!(allocated(&fused), before);
                    // Nothing is left claimed: each extent still frees.
                    for &cap in &held_fused {
                        prop_assert_eq!(ask(&fused, cap, ops::FREE, Bytes::new()).status, Status::Ok);
                    }
                    prop_assert_eq!(allocated(&fused), 0);
                }
            }

            /// Hostile allocation params — arbitrary bytes, retire lists
            /// of forged, rights-less, stale and duplicated entries, and
            /// every truncation of a well-formed request — never panic
            /// the handler: whatever is refused reserves and frees
            /// nothing, a grant frees exactly the listed extents `FREE`
            /// would have and counts the rest, and the count of
            /// allocated blocks neither passes capacity nor wraps.
            #[test]
            fn hostile_allocation_params_reserve_only_what_they_are_granted(
                command in prop_oneof![Just(ops::ALLOC_N), Just(ops::ALLOC_WRITE)],
                noise in proptest::collection::vec(any::<u8>(), 0..48),
                n in prop_oneof![0u32..8, any::<u32>()],
                offset in prop_oneof![0u32..16, any::<u32>()],
                data in proptest::collection::vec(any::<u8>(), 0..40),
                recipe in proptest::collection::vec((any::<usize>(), 0u8..5), 0..6),
                cut in any::<usize>(),
            ) {
                let server = server();
                // One-block extents: what a request frees is how many
                // of them it kills.
                let (held, list) = extents_and_list(&server, &[1, 1, 1], &recipe);
                let live = || held.iter().filter(|&&cap| alive(&server, cap)).count() as u32;
                let whole = if command == ops::ALLOC_N {
                    wire::Writer::new().u32(n).finish()
                } else {
                    alloc_write_params(n, offset, &data, &list)
                };
                let cut = cut % whole.len();
                for params in [Bytes::from(noise), whole.slice(..cut), whole.clone()] {
                    let listed = params == whole && command == ops::ALLOC_WRITE && !list.is_empty();
                    let before = (allocated(&server), live());
                    let reply = ask(&server, null_cap(), command, params);
                    let freed = before.1 - live();
                    let granted = match reply.status {
                        Status::Ok => {
                            let mut r = wire::Reader::new(&reply.body[16..]);
                            let granted = r.u32().unwrap();
                            if listed {
                                prop_assert_eq!(r.u32(), Some(list.len() as u32 - freed));
                            }
                            granted
                        }
                        _ => {
                            prop_assert_eq!(freed, 0);
                            0
                        }
                    };
                    prop_assert_eq!(allocated(&server), before.0 + granted - freed);
                    prop_assert!(allocated(&server) <= DISK.capacity_blocks);
                }
                // A request cut short anywhere is malformed, not a
                // smaller request — except right after the payload,
                // where the list is optional.
                if command == ops::ALLOC_WRITE {
                    let whole = alloc_write_params(1, 0, &data, &list);
                    let short = cut % whole.len();
                    if short != 12 + data.len() {
                        let before = (allocated(&server), live());
                        prop_assert_eq!(
                            ask(&server, null_cap(), command, whole.slice(..short)).status,
                            Status::BadRequest
                        );
                        prop_assert_eq!((allocated(&server), live()), before);
                    }
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

    #[test]
    fn every_command_refuses_a_capability_lacking_its_rights() {
        use amoeba_server::rights_check::{assert_rights_enforced, Probe};
        let (_net, runner, client) = setup(DiskConfig::small());
        let block = |params: Bytes| (client.alloc().unwrap(), params);
        let read = || block(wire::Writer::new().u32(0).u32(4).finish());
        let write = || block(wire::Writer::new().u32(0).bytes(b"x").finish());
        let free = || block(Bytes::new());
        assert_rights_enforced(
            client.service(),
            BlockServer::COMMANDS,
            &[
                Probe::new(ops::READ, Rights::READ, &read),
                Probe::new(ops::WRITE, Rights::WRITE, &write),
                Probe::new(ops::FREE, Rights::DELETE, &free),
            ],
            |cap| (client.read(cap, 0, 4096), client.statfs()),
        );
        runner.stop();
    }
}
