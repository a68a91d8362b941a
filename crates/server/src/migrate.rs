//! The shard-migration surface: how a live [`ObjectTable`] shard is
//! exported off one machine and imported on another without clients
//! observing a gap. A [`ShardHost`] does it for one placed table.
//!
//! # The cutover protocol (driven from `amoeba-cluster`)
//!
//! 1. **Track** — [`begin_export`] flips the shard into dirty-tracking
//!    mode: every mutation records its slot while the driver streams a
//!    full snapshot to the target (a [`STD_TRANSFER_BEGIN`] request,
//!    then [`STD_TRANSFER_CHUNK`]s, staged there keyed by transfer id).
//! 2. **Catch up** — the driver repeatedly drains [`take_dirty`] and
//!    ships delta chunks until the dirty set runs dry.
//! 3. **Seal** — [`seal`] closes the shard: newly dispatched requests
//!    are *held* (dropped without a reply, so the client's standard
//!    retransmission machinery retries them — at-least-once is the
//!    transport contract already). The driver waits for [`inflight`]
//!    to reach zero, drains the final dirty delta, and commits.
//! 4. **Flip** — the target installs the staged records and adopts the
//!    shard ([`handle_transfer`] with [`STD_TRANSFER_COMMIT`]); the source
//!    [`release`]s it into forwarding mode, relaying the held
//!    retransmissions (and any stale-map traffic) straight to the new
//!    owner, which replies directly to the client.
//!
//! Object numbers and per-object secrets are preserved exactly, so
//! every outstanding capability validates unchanged on the new owner —
//! the paper's port indirection means clients address the *service*,
//! and the shard map (or the forwarding relay) finds the machine.
//!
//! Why no request is lost or doubly executed: dirty slots are recorded
//! under the shard's entry write lock, so an export round that drained
//! the dirty set and then read the entries sees either the mutation or
//! its dirty record; after sealing, the inflight gauge proves every
//! already-dispatched request has finished (and dirtied) before the
//! final delta ships. Requests arriving later are held or forwarded —
//! executed exactly once, on exactly one owner. (Retransmits can still
//! duplicate *idempotent* executions, but that is the pre-existing
//! at-least-once transport contract, unchanged by migration.)
//!
//! [`ObjectTable`]: crate::ObjectTable
//! [`begin_export`]: ShardMigrator::begin_export
//! [`take_dirty`]: ShardMigrator::take_dirty
//! [`seal`]: ShardMigrator::seal
//! [`inflight`]: ShardMigrator::inflight
//! [`release`]: ShardMigrator::release
//! [`handle_transfer`]: ShardMigrator::handle_transfer
//! [`STD_TRANSFER_BEGIN`]: cmd::STD_TRANSFER_BEGIN
//! [`STD_TRANSFER_CHUNK`]: cmd::STD_TRANSFER_CHUNK
//! [`STD_TRANSFER_COMMIT`]: cmd::STD_TRANSFER_COMMIT
//!
//! # Migration ops are ordinary requests
//!
//! The three ops are standard requests (see `docs/PROTOCOL.md`,
//! "Migration bodies") whose capability field carries the target's
//! migration capability ([`ShardMigrator::capability`]); the target
//! answers any other capability `Forged` before it reads the params.
//! Dispatch hands them to the migrator before any shard disposition, so
//! they are never held or forwarded. Only a server a cluster placed has
//! a migrator — the [`ShardHost`] `Service::bind_shard_range` creates —
//! so an unplaced server answers all three `Unsupported`.

use crate::proto::{cmd, Reply, Request, Status};
use crate::wire::{Reader, Writer};
use crate::ObjectTable;
use amoeba_cap::schemes::ObjectSecret;
use amoeba_cap::{Capability, ObjectNum, Rights};
use amoeba_crypto::SecretStream;
use amoeba_net::Port;
use bytes::{Bytes, BytesMut};
use parking_lot::Mutex;
use std::borrow::BorrowMut;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::Arc;

/// What the dispatch layer should do with a request, given the
/// migration mode of the shard its capability addresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardDisposition {
    /// Serve locally (the steady state).
    Serve,
    /// Cutover window: drop without replying, so the client
    /// retransmits and lands after the flip. Batch entries are
    /// rejected instead (their replies cannot be relayed).
    Hold,
    /// Migrated away: relay the raw request to the new owner's
    /// put-port; the new owner replies straight to the client.
    Forward(Port),
}

/// Serialisation of a service's per-object payload for migration.
/// The encoding is private to the service (both ends run the same
/// code); only the framing around it is fixed by the record codec.
pub trait MigrateData: Sized + Send {
    /// Serialises the payload.
    fn encode(&self) -> Vec<u8>;
    /// Deserialises a payload; `None` rejects the record (and the
    /// whole commit).
    fn decode(bytes: &[u8]) -> Option<Self>;
}

impl MigrateData for Vec<u8> {
    fn encode(&self) -> Vec<u8> {
        self.clone()
    }
    fn decode(bytes: &[u8]) -> Option<Self> {
        Some(bytes.to_vec())
    }
}

impl MigrateData for String {
    fn encode(&self) -> Vec<u8> {
        self.as_bytes().to_vec()
    }
    fn decode(bytes: &[u8]) -> Option<Self> {
        String::from_utf8(bytes.to_vec()).ok()
    }
}

/// One decoded migration record: a slot and either `(secret, data)`
/// for a live object or `None` for a tombstone (the slot was deleted
/// after the snapshot).
pub(crate) type Record<T> = (u32, Option<(u64, T)>);

const KIND_TOMBSTONE: u8 = 0;
const KIND_LIVE: u8 = 1;

/// Appends one live record: `slot ‖ kind=1 ‖ secret ‖ len ‖ data`.
pub(crate) fn encode_live_record(out: &mut Vec<u8>, slot: u32, secret: u64, data: &[u8]) {
    out.extend_from_slice(&slot.to_be_bytes());
    out.push(KIND_LIVE);
    out.extend_from_slice(&secret.to_be_bytes());
    out.extend_from_slice(&(u32::try_from(data.len()).expect("record fits in u32")).to_be_bytes());
    out.extend_from_slice(data);
}

/// Appends one tombstone record: `slot ‖ kind=0`.
pub(crate) fn encode_tombstone(out: &mut Vec<u8>, slot: u32) {
    out.extend_from_slice(&slot.to_be_bytes());
    out.push(KIND_TOMBSTONE);
}

/// Decodes a chunk's record blob; `None` on any malformed framing
/// (truncation, trailing bytes, an undecodable payload).
pub(crate) fn decode_records<T: MigrateData>(mut bytes: &[u8]) -> Option<Vec<Record<T>>> {
    let mut records = Vec::new();
    while !bytes.is_empty() {
        let slot = u32::from_be_bytes(bytes.get(..4)?.try_into().ok()?);
        match *bytes.get(4)? {
            KIND_TOMBSTONE => {
                records.push((slot, None));
                bytes = &bytes[5..];
            }
            KIND_LIVE => {
                let secret = u64::from_be_bytes(bytes.get(5..13)?.try_into().ok()?);
                let len = u32::from_be_bytes(bytes.get(13..17)?.try_into().ok()?) as usize;
                let end = 17usize.checked_add(len)?;
                let data = T::decode(bytes.get(17..end)?)?;
                records.push((slot, Some((secret, data))));
                bytes = &bytes[end..];
            }
            _ => return None,
        }
    }
    Some(records)
}

/// One shard-migration op: the params of a `STD_TRANSFER_*` request.
/// The `xfer` id is chosen by the migration driver and keys the
/// target's staging area, which is what makes every op idempotent under
/// the at-least-once transaction layer: a repeated `Begin` resets the
/// same staging entry, a repeated `Chunk` with an already-staged `seq`
/// is acknowledged without re-staging, and a repeated `Commit` for an
/// already-installed transfer acknowledges success again.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransferOp {
    /// Open (or reset) the staging area for transfer `xfer`, covering
    /// table shard `shard` on the source.
    Begin {
        /// Driver-chosen transfer identifier.
        xfer: u64,
        /// The table shard index being migrated.
        shard: u8,
    },
    /// Stage chunk `seq` of transfer `xfer`; `records` is a
    /// concatenation of serialised object records.
    Chunk {
        /// Driver-chosen transfer identifier.
        xfer: u64,
        /// Chunk sequence number, starting at 0.
        seq: u32,
        /// Serialised object records (zero-copy slice of the request
        /// frame).
        records: Bytes,
    },
    /// Install the staged records of transfer `xfer` — all `chunks`
    /// of them — and take ownership of the shard named by the `Begin`.
    Commit {
        /// Driver-chosen transfer identifier.
        xfer: u64,
        /// Total number of chunks the transfer carried.
        chunks: u32,
    },
}

impl TransferOp {
    /// The standard command that carries this op.
    pub fn command(&self) -> u32 {
        match self {
            TransferOp::Begin { .. } => cmd::STD_TRANSFER_BEGIN,
            TransferOp::Chunk { .. } => cmd::STD_TRANSFER_CHUNK,
            TransferOp::Commit { .. } => cmd::STD_TRANSFER_COMMIT,
        }
    }

    /// The length of what [`write_params`](Self::write_params) appends.
    pub fn params_len(&self) -> usize {
        match self {
            TransferOp::Begin { .. } => 9,
            TransferOp::Chunk { records, .. } => 16 + records.len(),
            TransferOp::Commit { .. } => 12,
        }
    }

    /// Appends this op's params: `xfer ‖ shard` (one byte),
    /// `xfer ‖ seq ‖ len ‖ records`, or `xfer ‖ chunks`.
    pub fn write_params<B: BorrowMut<BytesMut>>(&self, w: Writer<B>) -> Writer<B> {
        match self {
            TransferOp::Begin { xfer, shard } => w.u64(*xfer).raw(&[*shard]),
            TransferOp::Chunk { xfer, seq, records } => w.u64(*xfer).u32(*seq).bytes(records),
            TransferOp::Commit { xfer, chunks } => w.u64(*xfer).u32(*chunks),
        }
    }

    /// Decodes the op a request carries; `None` if its command is not
    /// one of the three or its params are malformed (truncated, a
    /// record length past the end, trailing bytes). A chunk's records
    /// are a slice of the request, not a copy.
    pub fn decode(req: &Request) -> Option<TransferOp> {
        let mut r = Reader::new(&req.params);
        let xfer = r.u64()?;
        let op = match req.command {
            cmd::STD_TRANSFER_BEGIN => {
                let &[shard] = r.remainder() else {
                    return None;
                };
                return Some(TransferOp::Begin { xfer, shard });
            }
            cmd::STD_TRANSFER_CHUNK => {
                let seq = r.u32()?;
                let len = r.bytes()?.len();
                TransferOp::Chunk {
                    xfer,
                    seq,
                    records: req.params.slice(16..16 + len),
                }
            }
            cmd::STD_TRANSFER_COMMIT => TransferOp::Commit {
                xfer,
                chunks: r.u32()?,
            },
            _ => return None,
        };
        r.is_empty().then_some(op)
    }
}

/// The object-safe migration handle a [`Service`] exposes so generic
/// machinery (the dispatch loop, the cluster-layer migration driver,
/// the rebalancer) can move its shards without knowing the service
/// type. [`ShardHost`] implements it; a service holds one only once a
/// cluster placed it, and returns it from [`Service::migrator`].
///
/// [`Service`]: crate::Service
/// [`Service::migrator`]: crate::Service::migrator
pub trait ShardMigrator: Send + Sync {
    /// The capability every migration op sent here must carry; it names
    /// the service's put-port, so read it once the service is bound.
    /// The control plane reads it locally and hands it to the driver;
    /// it never travels in a reply.
    fn capability(&self) -> Capability;
    /// The shard a request's capability addresses, or `None` for
    /// anonymous capabilities (the null capability and published range
    /// capabilities both carry no rights and a zero check field);
    /// anonymous requests are always served locally.
    fn shard_of(&self, req: &Request) -> Option<usize>;
    /// The dispatch disposition for a shard right now. Only sealed and
    /// forwarded shards deviate from [`ShardDisposition::Serve`].
    fn disposition(&self, shard: usize) -> ShardDisposition;
    /// Counts one request for `shard` entering a service handler.
    /// Paired with [`exit`](Self::exit) by the dispatch layer; the
    /// gauge lets a migration driver prove quiescence after sealing.
    fn enter(&self, shard: usize);
    /// Counts one request for `shard` leaving its service handler.
    fn exit(&self, shard: usize);
    /// Requests for `shard` currently inside handlers.
    fn inflight(&self, shard: usize) -> u64;
    /// The shards this replica currently owns (mints into).
    fn owned_shards(&self) -> Vec<usize>;
    /// Cumulative requests per shard that reached dispatch with a
    /// capability for it — the load signal the rebalancer steers by.
    /// Index = shard.
    fn shard_ops(&self) -> Vec<u64>;
    /// Starts (or restarts) dirty-tracking for an export of `shard`.
    /// `false` if the shard is out of range or not owned by this
    /// replica (sealed and migrated-away shards are not).
    fn begin_export(&self, shard: usize) -> bool;
    /// Serialises records into chunk blobs of at most `max_records`
    /// records each: the whole shard when `slots` is `None` (snapshot),
    /// otherwise exactly the listed slots, with absent ones encoded as
    /// tombstones (catch-up delta — a dirty slot whose object was
    /// deleted must erase the target's copy).
    fn export_chunks(&self, shard: usize, slots: Option<&[u32]>, max_records: usize) -> Vec<Bytes>;
    /// Drains the shard's dirty-slot set, sorted so the export stream
    /// is deterministic for a given mutation history.
    fn take_dirty(&self, shard: usize) -> Vec<u32>;
    /// Seals a tracking shard for cutover: dispatch holds new requests
    /// while already-dispatched ones drain (watch
    /// [`inflight`](Self::inflight)), and `create` stops minting there.
    fn seal(&self, shard: usize);
    /// Completes an export: the shard leaves this replica's owned set
    /// and every subsequent request for it is relayed to `forward_to`
    /// (the new owner's put-port).
    fn release(&self, shard: usize, forward_to: Port);
    /// Abandons an in-progress export: back to normal service with
    /// ownership unchanged. No-op unless the shard is tracking or
    /// sealed.
    fn abort(&self, shard: usize);
    /// The import side, which the dispatch loop calls for the three
    /// `STD_TRANSFER_*` requests: refuses any capability but
    /// [`capability`](Self::capability) with `Forged`, then stages
    /// `Begin` / `Chunk` ops and installs + adopts the shard on
    /// `Commit`. Every op is idempotent (an op for an already-committed
    /// transfer is re-acknowledged with `Ok`), so the driver's
    /// at-least-once transactions are safe.
    ///
    /// Commit is all-or-nothing: every chunk `0..chunks` must be
    /// staged and every record must decode before anything is
    /// installed, so a half-arrived transfer can never leave the shard
    /// in a mixed state. A commit into a shard this replica already
    /// owns gets `Conflict`.
    fn handle_transfer(&self, req: &Request) -> Reply;
}

/// Slots mutated in the shards an export is tracking: the one place an
/// [`ObjectTable`] mutation meets its [`ShardHost`]. Until an export
/// runs it is empty, and a mutation pays one atomic load.
#[derive(Default)]
pub(crate) struct DirtyHook {
    /// How many shards are tracked.
    armed: AtomicUsize,
    /// Per tracked shard, the slots mutated since the last drain.
    sets: Mutex<Vec<(usize, Vec<u32>)>>,
}

impl DirtyHook {
    /// Records `slot` of `shard` when an export tracks the shard.
    /// Called under the shard's entry write lock, so an export round
    /// that drained the set and then read the entries sees either the
    /// mutation or its record.
    pub(crate) fn note(&self, shard: usize, slot: usize) {
        if self.armed.load(Ordering::SeqCst) == 0 {
            return;
        }
        if let Some((_, dirty)) = self.sets.lock().iter_mut().find(|(s, _)| *s == shard) {
            let slot = slot as u32;
            if !dirty.contains(&slot) {
                dirty.push(slot);
            }
        }
    }

    /// Tracks `shard` from an empty set (`on`), or stops tracking it.
    fn track(&self, shard: usize, on: bool) {
        let mut sets = self.sets.lock();
        sets.retain(|(s, _)| *s != shard);
        if on {
            sets.push((shard, Vec::new()));
        }
        self.armed.store(sets.len(), Ordering::SeqCst);
    }

    fn take(&self, shard: usize) -> Vec<u32> {
        let mut sets = self.sets.lock();
        let dirty = sets.iter_mut().find(|(s, _)| *s == shard);
        let mut out = dirty.map(|(_, d)| std::mem::take(d)).unwrap_or_default();
        out.sort_unstable();
        out
    }
}

/// Per-shard migration mode, mirrored in a lock-free tag so the hot
/// request path reads one atomic.
mod mode {
    pub const NORMAL: u8 = 0;
    /// Being exported: mutations are recorded in the dirty hook.
    pub const TRACKING: u8 = 1;
    /// Cutover window: requests for the shard are held (dropped, so
    /// clients retransmit); mutations from already-dispatched requests
    /// still record dirty slots.
    pub const SEALED: u8 = 2;
    /// Migrated away: requests are relayed to the new owner's port.
    pub const FORWARDED: u8 = 3;
}

/// What a host keeps per table shard.
#[derive(Default)]
struct HostedShard {
    /// One of the [`mode`] tags.
    mode: AtomicU8,
    /// The new owner's put-port (raw value) while [`mode::FORWARDED`].
    forward_to: AtomicU64,
    /// Requests for this shard currently inside a service handler
    /// (maintained by the dispatch layer via enter/exit). The
    /// migration driver waits for this to reach zero after sealing,
    /// so every mutation that passed the dispatch check lands in the
    /// dirty set before the final catch-up round.
    inflight: AtomicU64,
    /// Requests that entered for this shard: the load signal.
    ops: AtomicU64,
}

/// One incoming transfer's staged (still serialised) chunks, keyed by
/// chunk sequence number.
struct Staging {
    shard: usize,
    chunks: BTreeMap<u32, Bytes>,
}

/// Bound on concurrently staged incoming transfers — a hostile or
/// confused peer cannot grow the staging map without bound.
pub(crate) const MAX_STAGED_TRANSFERS: usize = 8;

/// How many committed transfer ids are remembered for idempotent
/// re-acknowledgement of retransmitted `Commit`/`Begin` ops.
const REMEMBERED_TRANSFERS: usize = 64;

/// The shard migration of one placed [`ObjectTable`]: the dispositions
/// and gauges dispatch reads, the export side the cluster's driver
/// calls, and the import side behind one migration capability.
///
/// A service holds one only after a cluster placed it
/// (`Service::bind_shard_range`), so a server no cluster placed has
/// nothing that answers a migration op.
pub struct ShardHost<T> {
    table: Arc<ObjectTable<T>>,
    /// The migration capability's secret, drawn from a stream of its
    /// own: no table's secret draws move.
    secret: ObjectSecret,
    shards: Box<[HostedShard]>,
    /// Incoming transfers staged ahead of their commit, keyed by
    /// transfer id.
    staging: Mutex<BTreeMap<u64, Staging>>,
    /// Recently committed transfer ids (newest last), for idempotent
    /// acknowledgement of retransmitted transfer ops.
    committed: Mutex<Vec<u64>>,
}

impl<T> std::fmt::Debug for ShardHost<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardHost").finish_non_exhaustive()
    }
}

impl<T> ShardHost<T> {
    /// Places `table` as replica `owner` of a `replicas`-way sharded
    /// group — it mints only into the shards with
    /// `shard % replicas == owner` (see
    /// [`placement_range`](crate::placement_range)) — and hosts those
    /// shards' migrations.
    ///
    /// # Panics
    /// Panics unless `owner < replicas` and `replicas ≤ shard count`.
    pub fn new(table: Arc<ObjectTable<T>>, owner: usize, replicas: usize) -> ShardHost<T> {
        table.set_owned_shards(owner, replicas);
        ShardHost {
            secret: table.scheme().new_secret(&mut SecretStream::from_entropy()),
            shards: (0..table.shard_count())
                .map(|_| HostedShard::default())
                .collect(),
            staging: Mutex::default(),
            committed: Mutex::default(),
            table,
        }
    }

    /// Whether `cap` is this host's migration capability: its port,
    /// and every right under its secret.
    fn admits(&self, cap: &Capability) -> bool {
        cap.port == self.table.port()
            && self.table.scheme().validate(cap, &self.secret) == Ok(Rights::ALL)
    }

    /// Takes ownership of a shard (the import side of a cutover): the
    /// shard joins the owned set and serves normally.
    fn adopt_shard(&self, shard: usize) {
        self.table.own_shard(shard, true);
        let s = &self.shards[shard];
        s.mode.store(mode::NORMAL, Ordering::SeqCst);
        s.forward_to.store(0, Ordering::SeqCst);
        self.table.dirty.track(shard, false);
    }
}

impl<T: MigrateData + Send + Sync> ShardMigrator for ShardHost<T> {
    fn capability(&self) -> Capability {
        let object = ObjectNum::new(0).expect("zero is a valid object number");
        self.table
            .scheme()
            .mint(self.table.port(), object, &self.secret)
    }
    fn shard_of(&self, req: &Request) -> Option<usize> {
        if req.cap.rights.bits() == 0 && req.cap.check == 0 {
            return None;
        }
        Some(self.table.shard_index(req.cap.object))
    }
    fn disposition(&self, shard: usize) -> ShardDisposition {
        let s = &self.shards[shard];
        match s.mode.load(Ordering::SeqCst) {
            mode::SEALED => ShardDisposition::Hold,
            mode::FORWARDED => match Port::new(s.forward_to.load(Ordering::SeqCst)) {
                Some(port) => ShardDisposition::Forward(port),
                None => ShardDisposition::Hold,
            },
            _ => ShardDisposition::Serve,
        }
    }
    fn enter(&self, shard: usize) {
        let s = &self.shards[shard];
        s.ops.fetch_add(1, Ordering::Relaxed);
        s.inflight.fetch_add(1, Ordering::SeqCst);
    }
    fn exit(&self, shard: usize) {
        self.shards[shard].inflight.fetch_sub(1, Ordering::SeqCst);
    }
    fn inflight(&self, shard: usize) -> u64 {
        self.shards[shard].inflight.load(Ordering::SeqCst)
    }
    fn owned_shards(&self) -> Vec<usize> {
        self.table.owned_shards()
    }
    fn shard_ops(&self) -> Vec<u64> {
        self.shards
            .iter()
            .map(|s| s.ops.load(Ordering::Relaxed))
            .collect()
    }
    fn begin_export(&self, shard: usize) -> bool {
        // An owned shard is serving or already tracking: sealing and
        // releasing disown it.
        if shard >= self.shards.len() || !self.table.owns_shard(shard) {
            return false;
        }
        self.table.dirty.track(shard, true);
        let s = &self.shards[shard];
        s.mode.store(mode::TRACKING, Ordering::SeqCst);
        true
    }
    fn export_chunks(&self, shard: usize, slots: Option<&[u32]>, max_records: usize) -> Vec<Bytes> {
        let max_records = max_records.max(1);
        let (mut chunks, mut cur, mut count) = (Vec::new(), Vec::new(), 0);
        self.table.export_records(shard, slots, |slot, record| {
            match record {
                Some((secret, data)) => encode_live_record(&mut cur, slot, secret, &data.encode()),
                None => encode_tombstone(&mut cur, slot),
            }
            count += 1;
            if count == max_records {
                chunks.push(Bytes::from(std::mem::take(&mut cur)));
                count = 0;
            }
        });
        if count > 0 {
            chunks.push(Bytes::from(cur));
        }
        chunks
    }
    fn take_dirty(&self, shard: usize) -> Vec<u32> {
        self.table.dirty.take(shard)
    }
    fn seal(&self, shard: usize) {
        let sealed = self.shards[shard].mode.compare_exchange(
            mode::TRACKING,
            mode::SEALED,
            Ordering::SeqCst,
            Ordering::SeqCst,
        );
        if sealed.is_ok() {
            self.table.own_shard(shard, false);
        }
    }
    fn release(&self, shard: usize, forward_to: Port) {
        self.table.own_shard(shard, false);
        let s = &self.shards[shard];
        s.forward_to.store(forward_to.value(), Ordering::SeqCst);
        s.mode.store(mode::FORWARDED, Ordering::SeqCst);
        self.table.dirty.track(shard, false);
    }
    fn abort(&self, shard: usize) {
        let s = &self.shards[shard];
        let tag = s.mode.load(Ordering::SeqCst);
        if tag == mode::TRACKING || tag == mode::SEALED {
            self.table.own_shard(shard, true);
            s.mode.store(mode::NORMAL, Ordering::SeqCst);
            self.table.dirty.track(shard, false);
        }
    }
    fn handle_transfer(&self, req: &Request) -> Reply {
        if !self.admits(&req.cap) {
            return Reply::status(Status::Forged);
        }
        let Some(op) = TransferOp::decode(req) else {
            return Reply::status(Status::BadRequest);
        };
        // An op of a committed transfer is re-acknowledged, not re-run.
        let (TransferOp::Begin { xfer, .. }
        | TransferOp::Chunk { xfer, .. }
        | TransferOp::Commit { xfer, .. }) = &op;
        if self.committed.lock().contains(xfer) {
            return Reply::ok(Bytes::new());
        }
        match &op {
            TransferOp::Begin { xfer, shard } => {
                let shard = *shard as usize;
                if shard >= self.shards.len() {
                    return Reply::status(Status::BadRequest);
                }
                let mut staging = self.staging.lock();
                if !staging.contains_key(xfer) && staging.len() >= MAX_STAGED_TRANSFERS {
                    return Reply::status(Status::NoSpace);
                }
                staging.insert(
                    *xfer,
                    Staging {
                        shard,
                        chunks: BTreeMap::new(),
                    },
                );
                Reply::ok(Bytes::new())
            }
            TransferOp::Chunk { xfer, seq, records } => {
                let mut staging = self.staging.lock();
                match staging.get_mut(xfer) {
                    Some(st) => {
                        st.chunks.entry(*seq).or_insert_with(|| records.clone());
                        Reply::ok(Bytes::new())
                    }
                    None => Reply::status(Status::Conflict),
                }
            }
            TransferOp::Commit { xfer, chunks } => {
                // Install while holding the staging lock, so a racing
                // retransmitted commit observes either "still staged"
                // or "committed" — never a window where the transfer
                // has vanished (which would read as Conflict).
                let mut staging = self.staging.lock();
                let Some(st) = staging.get(xfer) else {
                    return Reply::status(Status::Conflict);
                };
                let complete = st.chunks.len() == *chunks as usize
                    && st.chunks.keys().enumerate().all(|(i, &s)| s == i as u32);
                // A shard this replica owns is live here: nothing may
                // overwrite it.
                if !complete || self.table.owns_shard(st.shard) {
                    return Reply::status(Status::Conflict);
                }
                let mut records = Vec::new();
                for blob in st.chunks.values() {
                    match decode_records::<T>(blob) {
                        Some(r) => records.extend(r),
                        None => return Reply::status(Status::BadRequest),
                    }
                }
                let shard = st.shard;
                if !self.table.install_records(shard, records) {
                    return Reply::status(Status::BadRequest);
                }
                self.adopt_shard(shard);
                staging.remove(xfer);
                let mut committed = self.committed.lock();
                committed.push(*xfer);
                if committed.len() > REMEMBERED_TRANSFERS {
                    committed.remove(0);
                }
                Reply::ok(Bytes::new())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DEFAULT_SHARDS;
    use crate::{ClientError, RequestCtx, Service, ServiceClient, ServiceRunner};
    use amoeba_cap::schemes::SchemeKind;
    use amoeba_net::Network;
    use amoeba_rpc::Frame;

    /// A table-backed service that migrates once a cluster places it.
    struct Store {
        table: Arc<ObjectTable<Vec<u8>>>,
        host: Option<ShardHost<Vec<u8>>>,
    }

    impl Service for Store {
        fn bind(&mut self, put_port: Port) {
            self.table.set_port(put_port);
        }
        fn bind_shard_range(&mut self, owner: usize, replicas: usize) {
            self.host = Some(ShardHost::new(Arc::clone(&self.table), owner, replicas));
        }
        fn handle(&self, req: &Request, _ctx: &RequestCtx) -> Reply {
            self.table
                .handle_std(req)
                .unwrap_or(Reply::status(Status::BadCommand))
        }
        fn migrator(&self) -> Option<&dyn ShardMigrator> {
            self.host.as_ref().map(|h| h as &dyn ShardMigrator)
        }
    }

    /// A store, placed as replica 0 of 2 when `placed`.
    fn store(net: &Network, placed: bool) -> ServiceRunner {
        let mut store = Store {
            table: Arc::new(ObjectTable::unbound(SchemeKind::Commutative.instantiate())),
            host: None,
        };
        if placed {
            store.bind_shard_range(0, 2);
        }
        ServiceRunner::spawn_open(net, store)
    }

    fn params(op: &TransferOp) -> Vec<u8> {
        op.write_params(Writer::new()).finish().to_vec()
    }

    /// The capability of the worked example in `docs/PROTOCOL.md`: the
    /// target's put-port, object 0, every right, and a check field
    /// that only the target's secret produces.
    fn example_cap() -> Capability {
        Capability::new(
            Port::new(0xA0EB_0011).unwrap(),
            ObjectNum::new(0).unwrap(),
            Rights::ALL,
            0x1234_5678_9ABC,
        )
    }

    /// The REQUEST frame a migration driver puts on the wire for `op`.
    fn request_frame(op: &TransferOp) -> Bytes {
        let mut frame = BytesMut::new();
        Frame::request_with(&mut frame, |buf| {
            Request::encode_with(buf, &example_cap(), op.command(), |w| op.write_params(w));
        });
        assert_eq!(frame.len(), 1 + 20 + op.params_len());
        frame.freeze()
    }

    /// What the dispatch loop decodes from a received frame.
    fn decode_frame(frame: &Bytes) -> Option<TransferOp> {
        let Some(Frame::Request(body)) = Frame::decode(frame) else {
            return None;
        };
        TransferOp::decode(&Request::decode(&body)?)
    }

    #[test]
    fn transfer_frame_roundtrips() {
        let ops = [
            TransferOp::Begin {
                xfer: 0xFEED_F00D_0000_0001,
                shard: 13,
            },
            TransferOp::Chunk {
                xfer: 0xFEED_F00D_0000_0001,
                seq: 2,
                records: Bytes::from_static(b"opaque record bytes"),
            },
            TransferOp::Chunk {
                xfer: 1,
                seq: 0,
                records: Bytes::new(),
            },
            TransferOp::Commit {
                xfer: 0xFEED_F00D_0000_0001,
                chunks: 3,
            },
        ];
        for op in ops {
            let frame = request_frame(&op);
            let decoded = decode_frame(&frame).expect("decodes");
            if let TransferOp::Chunk { records, .. } = &decoded {
                assert!(records.is_empty() || records.shares_storage(&frame));
            }
            assert_eq!(decoded, op);
        }
    }

    /// The migration example frames from `docs/PROTOCOL.md`, byte for
    /// byte. If this fails, either the encoder or the documentation is
    /// wrong — fix whichever diverged.
    #[test]
    fn documented_transfer_example_frames() {
        // PROTOCOL.md "Worked example (migration bodies)": transfer
        // 0x000000000000002A opens for table shard 5.
        const MIGRATION_CAP: [u8; 16] = [
            0x00, 0x00, 0xA0, 0xEB, 0x00, 0x11, // port
            0x00, 0x00, 0x00, // object 0
            0xFF, // every right
            0x12, 0x34, 0x56, 0x78, 0x9A, 0xBC, // check
        ];
        let frame = |command: [u8; 4], params: &[u8]| {
            let mut f = vec![0x00]; // tag: REQUEST
            f.extend_from_slice(&MIGRATION_CAP);
            f.extend_from_slice(&command);
            f.extend_from_slice(params);
            Bytes::from(f)
        };
        let documented = frame(
            [0xFF, 0xFF, 0x00, 0x04], // STD_TRANSFER_BEGIN
            &[
                0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x2A, // xfer 42
                0x05, // shard 5
            ],
        );
        let expect = TransferOp::Begin { xfer: 42, shard: 5 };
        assert_eq!(documented.len(), 30);
        assert_eq!(request_frame(&expect), documented);
        assert_eq!(decode_frame(&documented), Some(expect));

        // Chunk 0 of the same transfer, carrying three record bytes.
        let documented = frame(
            [0xFF, 0xFF, 0x00, 0x05], // STD_TRANSFER_CHUNK
            &[
                0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x2A, // xfer 42
                0x00, 0x00, 0x00, 0x00, // seq 0
                0x00, 0x00, 0x00, 0x03, // record blob length 3
                0xAA, 0xBB, 0xCC, // record bytes
            ],
        );
        let expect = TransferOp::Chunk {
            xfer: 42,
            seq: 0,
            records: Bytes::from_static(&[0xAA, 0xBB, 0xCC]),
        };
        assert_eq!(documented.len(), 40);
        assert_eq!(request_frame(&expect), documented);
        assert_eq!(decode_frame(&documented), Some(expect));

        // The commit: one chunk in total.
        let documented = frame(
            [0xFF, 0xFF, 0x00, 0x06], // STD_TRANSFER_COMMIT
            &[
                0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x2A, // xfer 42
                0x00, 0x00, 0x00, 0x01, // chunk count 1
            ],
        );
        let expect = TransferOp::Commit {
            xfer: 42,
            chunks: 1,
        };
        assert_eq!(documented.len(), 33);
        assert_eq!(request_frame(&expect), documented);
        assert_eq!(decode_frame(&documented), Some(expect));
    }

    /// Hostile params under the valid migration capability get
    /// `BadRequest` from a live dispatch and stage nothing.
    #[test]
    fn hostile_transfer_frames_rejected() {
        let net = Network::new();
        let runner = store(&net, true);
        let cap = runner.service().migrator().unwrap().capability();
        let client = ServiceClient::open(&net);
        let call = |command: u32, params: &[u8]| {
            client.call_at(
                runner.put_port(),
                &cap,
                command,
                Bytes::copy_from_slice(params),
            )
        };
        let bad = Err(ClientError::Status(Status::BadRequest));

        let begin = params(&TransferOp::Begin { xfer: 7, shard: 1 });
        let chunk = params(&TransferOp::Chunk {
            xfer: 8,
            seq: 0,
            records: Bytes::from_static(b"abc"),
        });
        let commit = params(&TransferOp::Commit { xfer: 7, chunks: 0 });
        let mut hostile = vec![
            // Truncated bodies.
            (cmd::STD_TRANSFER_BEGIN, Vec::new()),
            (cmd::STD_TRANSFER_BEGIN, begin[..begin.len() - 1].to_vec()),
            (cmd::STD_TRANSFER_CHUNK, chunk[..15].to_vec()),
            (
                cmd::STD_TRANSFER_COMMIT,
                commit[..commit.len() - 2].to_vec(),
            ),
            // A record blob shorter than its length field claims.
            (cmd::STD_TRANSFER_CHUNK, chunk[..chunk.len() - 1].to_vec()),
        ];
        // Record lengths past the end, up to ~u32::MAX (no overflow).
        for len in [[0, 0, 0, 0xFF], [0xFF; 4]] {
            let mut bad = chunk.clone();
            bad[12..16].copy_from_slice(&len);
            hostile.push((cmd::STD_TRANSFER_CHUNK, bad));
        }
        // Trailing bytes.
        for (command, good) in [
            (cmd::STD_TRANSFER_BEGIN, &begin),
            (cmd::STD_TRANSFER_CHUNK, &chunk),
            (cmd::STD_TRANSFER_COMMIT, &commit),
        ] {
            let mut bad = good.clone();
            bad.push(0);
            hostile.push((command, bad));
        }
        for (command, p) in &hostile {
            let req = Request {
                cap,
                command: *command,
                params: Bytes::copy_from_slice(p),
            };
            assert_eq!(TransferOp::decode(&req), None, "{p:02x?}");
        }
        // Well-formed, but naming a shard the table does not have.
        let out_of_range = TransferOp::Begin {
            xfer: 7,
            shard: DEFAULT_SHARDS as u8,
        };
        hostile.push((cmd::STD_TRANSFER_BEGIN, params(&out_of_range)));

        // Transfer 8 is open, so a staged hostile chunk would show.
        let open = TransferOp::Begin { xfer: 8, shard: 1 };
        assert!(call(open.command(), &params(&open)).is_ok());
        for (command, p) in &hostile {
            assert_eq!(call(*command, p), bad, "{p:02x?}");
        }

        // Nothing was staged: transfer 7 never opened, and transfer 8
        // holds no chunk 0.
        let conflict = Err(ClientError::Status(Status::Conflict));
        let stray = TransferOp::Chunk {
            xfer: 7,
            seq: 0,
            records: Bytes::new(),
        };
        assert_eq!(call(stray.command(), &params(&stray)), conflict);
        let commit8 = TransferOp::Commit { xfer: 8, chunks: 1 };
        assert_eq!(call(commit8.command(), &params(&commit8)), conflict);
        runner.stop();
    }

    #[test]
    fn a_service_without_a_migrator_answers_unsupported() {
        let net = Network::new();
        let runner = store(&net, false);
        let client = ServiceClient::open(&net);
        for op in [
            TransferOp::Begin { xfer: 1, shard: 0 },
            TransferOp::Chunk {
                xfer: 1,
                seq: 0,
                records: Bytes::new(),
            },
            TransferOp::Commit { xfer: 1, chunks: 0 },
        ] {
            assert_eq!(
                client.call_anonymous(runner.put_port(), op.command(), Bytes::from(params(&op))),
                Err(ClientError::Status(Status::Unsupported)),
                "{op:?}"
            );
        }
        runner.stop();
    }
}
