//! The live shard-migration driver: streams one [`ObjectTable`] shard
//! from its current owner to a new one as ordinary requests — the
//! three standard `STD_TRANSFER_*` commands in plain `REQUEST` frames,
//! each carrying the target's migration capability — then flips
//! ownership without clients observing a gap.
//!
//! The table-side mechanics (dirty tracking, sealing, the inflight
//! gauge, idempotent staging) live in `amoeba_server::migrate`; this
//! module is the *conductor*: it holds the source's [`ShardMigrator`],
//! the target's migration capability and an RPC [`Client`], and
//! runs the copy → catch-up → seal → quiesce → commit → release
//! sequence. The sequence is one state machine, [`ShardMigration`],
//! advanced a step per [`poll`](ShardMigration::poll), and two drivers
//! run it:
//!
//! * [`run`](ShardMigration::run) — the blocking driver a control
//!   plane ([`ElasticCluster::migrate`](crate::ElasticCluster::migrate),
//!   so the [`Rebalancer`](crate::Rebalancer) and a drain) calls from a
//!   thread: it waits on each op's reply;
//! * the deterministic simulation executor, which polls it as an actor
//!   so fault plans can crash machines *in the middle of* a migration.
//!
//! Every step is observable through the flight recorder
//! (`MigrateBegin`/`MigrateChunk`/`MigrateCommit`/`MigrateAbort`).
//!
//! [`ObjectTable`]: amoeba_server::ObjectTable
//! [`ShardMigrator`]: amoeba_server::ShardMigrator

use amoeba_cap::Capability;
use amoeba_net::{ActorPoll, EventKind, MachineId};
use amoeba_rpc::{Client, Completion, RpcError};
use amoeba_server::migrate::TransferOp;
use amoeba_server::proto::{Reply, Request, Status};
use amoeba_server::ShardMigrator;
use bytes::Bytes;
use std::collections::VecDeque;

/// Records per transfer chunk: small enough that one chunk request stays
/// comfortably inside a single simulated packet, large enough that a
/// populated shard ships in a handful of round trips.
pub const CHUNK_RECORDS: usize = 64;

/// Catch-up rounds before the driver stops chasing a write-hot shard
/// and seals it: sealing always converges (held requests retransmit
/// after the flip), so a bounded chase only trades a slightly longer
/// hold window for a guaranteed finish.
pub const MAX_CATCHUP_ROUNDS: usize = 8;

/// Why a migration did not complete. The source table is always rolled
/// back to normal service on failure (`ShardMigrator::abort`), so a failed
/// migration is invisible to clients.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MigrateError {
    /// The source refused to export (shard sealed, already migrated
    /// away, or not owned).
    SourceBusy,
    /// The source or target service has no [`ShardMigrator`] handle.
    NoMigrator,
    /// The transfer RPC failed (target crashed or unreachable).
    Transport(RpcError),
    /// The target answered a transfer op with a non-OK status.
    Refused(Status),
}

impl std::fmt::Display for MigrateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MigrateError::SourceBusy => write!(f, "source shard is not exportable"),
            MigrateError::NoMigrator => write!(f, "service exposes no shard migrator"),
            MigrateError::Transport(e) => write!(f, "transfer transport: {e}"),
            MigrateError::Refused(s) => write!(f, "target refused transfer: {s}"),
        }
    }
}

impl std::error::Error for MigrateError {}

/// What a completed migration shipped.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MigrationStats {
    /// Total `STD_TRANSFER_CHUNK` requests sent (snapshot + deltas).
    pub chunks: u32,
    /// Catch-up rounds run before the shard was sealed.
    pub catchup_rounds: usize,
}

enum Phase {
    Start,
    CatchUp,
    Quiesce,
    FinalDrain,
    Committing,
    Done,
}

/// One shard migration of `shard` to the replica whose migration
/// capability is `target` (on `target_machine` when several machines
/// serve its port), advanced one step per [`poll`](Self::poll).
///
/// Sequence: snapshot-copy while serving → bounded catch-up of dirty
/// slots → seal (new requests held) → wait for in-flight handlers to
/// drain → ship the final delta → `STD_TRANSFER_COMMIT` (target installs
/// and adopts) → release the source shard into forwarding mode. On any
/// transport or protocol failure the export is aborted and the source
/// keeps serving — `xfer` ids make a retried migration idempotent on
/// the target.
///
/// The simulation executor polls it, so seeded fault plans can crash
/// the source or target machine mid-copy, mid-catch-up, or mid-commit;
/// [`run`](Self::run) drives it to the end on a thread. Terminal state
/// is reported by [`result`](Self::result): `Ok` after the source
/// released the shard, `Err` after a clean abort (the source serves on
/// as if the migration never started).
pub struct ShardMigration<'a> {
    client: &'a Client,
    source: &'a dyn ShardMigrator,
    shard: usize,
    xfer: u64,
    target: Capability,
    target_machine: Option<MachineId>,
    phase: Phase,
    queue: VecDeque<TransferOp>,
    pending: Option<Completion<'a, Bytes>>,
    seq: u32,
    rounds: usize,
    outcome: Option<Result<MigrationStats, MigrateError>>,
}

impl std::fmt::Debug for ShardMigration<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardMigration")
            .field("shard", &self.shard)
            .field("xfer", &self.xfer)
            .field("seq", &self.seq)
            .finish()
    }
}

impl<'a> ShardMigration<'a> {
    /// Prepares (but does not start) a migration of `shard` from
    /// `source` to the replica whose [`ShardMigrator::capability`] is
    /// `target`, driven through `client`'s endpoint.
    pub fn new(
        client: &'a Client,
        source: &'a dyn ShardMigrator,
        shard: usize,
        xfer: u64,
        target: Capability,
        target_machine: Option<MachineId>,
    ) -> ShardMigration<'a> {
        ShardMigration {
            client,
            source,
            shard,
            xfer,
            target,
            target_machine,
            phase: Phase::Start,
            queue: VecDeque::new(),
            pending: None,
            seq: 0,
            rounds: 0,
            outcome: None,
        }
    }

    /// The migration's outcome, once [`poll`](Self::poll) has returned
    /// [`ActorPoll::Done`].
    pub fn result(&self) -> Option<&Result<MigrationStats, MigrateError>> {
        self.outcome.as_ref()
    }

    /// Runs the migration to its end on the calling thread: the
    /// blocking driver. A transfer on the wire is waited for, never
    /// busy-polled; the quiesce phase yields until the source's
    /// in-flight handlers have drained.
    ///
    /// # Errors
    /// [`MigrateError`]; the source is rolled back to normal service.
    pub fn run(mut self) -> Result<MigrationStats, MigrateError> {
        loop {
            match self.poll() {
                ActorPoll::Progress => {}
                ActorPoll::Idle => std::thread::yield_now(),
                ActorPoll::IdleUntil(_) => {
                    let transfer = self.pending.take().expect("only a transfer idles until");
                    self.settle(transfer.wait());
                }
                ActorPoll::Done => {
                    return self.outcome.take().expect("a finished one has an outcome")
                }
            }
        }
    }

    fn stamp(&self, kind: EventKind, a: u64, b: u64) {
        let endpoint = self.client.endpoint();
        let obs = endpoint.obs();
        if obs.enabled() {
            obs.record(
                kind,
                endpoint.now().since_epoch().as_nanos() as u64,
                0,
                a,
                b,
            );
        }
    }

    fn fail(&mut self, err: MigrateError) -> ActorPoll {
        self.source.abort(self.shard);
        self.stamp(EventKind::MigrateAbort, self.shard as u64, self.xfer);
        self.pending = None;
        self.queue.clear();
        self.phase = Phase::Done;
        self.outcome = Some(Err(err));
        ActorPoll::Done
    }

    /// Settles a finished transfer: an acknowledged op lets the
    /// sequence go on; a transport error or a refusal aborts it.
    fn settle(&mut self, reply: Result<Bytes, RpcError>) -> ActorPoll {
        let status = match reply {
            Ok(raw) => Reply::decode(&raw).map_or(Status::BadRequest, |r| r.status),
            Err(e) => return self.fail(MigrateError::Transport(e)),
        };
        if status == Status::Ok {
            ActorPoll::Progress
        } else {
            self.fail(MigrateError::Refused(status))
        }
    }

    fn queue_chunks(&mut self, slots: Option<&[u32]>) -> usize {
        let chunks = self.source.export_chunks(self.shard, slots, CHUNK_RECORDS);
        let n = chunks.len();
        for records in chunks {
            self.stamp(
                EventKind::MigrateChunk,
                self.seq as u64,
                records.len() as u64,
            );
            self.queue.push_back(TransferOp::Chunk {
                xfer: self.xfer,
                seq: self.seq,
                records,
            });
            self.seq += 1;
        }
        n
    }

    /// Advances the migration one step. Feed this to
    /// [`SimExecutor::spawn`](amoeba_net::SimExecutor) from the
    /// driver's machine.
    pub fn poll(&mut self) -> ActorPoll {
        if self.outcome.is_some() {
            return ActorPoll::Done;
        }
        // 1. An op on the wire: drive its completion.
        if let Some(transfer) = self.pending.as_mut() {
            let Some(reply) = transfer.poll() else {
                return ActorPoll::IdleUntil(transfer.deadline());
            };
            self.pending = None;
            return self.settle(reply);
        }
        // 2. Queued ops: put the next one on the wire, as a request.
        if let Some(op) = self.queue.pop_front() {
            let len = 20 + op.params_len();
            self.pending = Some(self.client.start(
                self.target.port,
                self.target_machine,
                len,
                |buf| Request::encode_with(buf, &self.target, op.command(), |w| op.write_params(w)),
            ));
            return ActorPoll::Progress;
        }
        // 3. Phase transitions (queue drained, nothing in flight).
        match self.phase {
            Phase::Start => {
                if !self.source.begin_export(self.shard) {
                    return self.fail(MigrateError::SourceBusy);
                }
                self.stamp(EventKind::MigrateBegin, self.shard as u64, self.xfer);
                self.queue.push_back(TransferOp::Begin {
                    xfer: self.xfer,
                    shard: self.shard as u8,
                });
                self.queue_chunks(None);
                self.phase = Phase::CatchUp;
                ActorPoll::Progress
            }
            Phase::CatchUp => {
                let dirty = self.source.take_dirty(self.shard);
                if dirty.is_empty() || self.rounds >= MAX_CATCHUP_ROUNDS {
                    self.source.seal(self.shard);
                    self.phase = Phase::Quiesce;
                    if !dirty.is_empty() {
                        self.queue_chunks(Some(&dirty));
                    }
                } else {
                    self.queue_chunks(Some(&dirty));
                    self.rounds += 1;
                }
                ActorPoll::Progress
            }
            Phase::Quiesce => {
                if self.source.inflight(self.shard) == 0 {
                    self.phase = Phase::FinalDrain;
                    ActorPoll::Progress
                } else {
                    ActorPoll::Idle
                }
            }
            Phase::FinalDrain => {
                let dirty = self.source.take_dirty(self.shard);
                if dirty.is_empty() {
                    self.queue.push_back(TransferOp::Commit {
                        xfer: self.xfer,
                        chunks: self.seq,
                    });
                    self.phase = Phase::Committing;
                } else {
                    self.queue_chunks(Some(&dirty));
                }
                ActorPoll::Progress
            }
            Phase::Committing => {
                // The commit's reply has been verified OK.
                self.source.release(self.shard, self.target.port);
                self.stamp(EventKind::MigrateCommit, self.shard as u64, self.xfer);
                self.phase = Phase::Done;
                self.outcome = Some(Ok(MigrationStats {
                    chunks: self.seq,
                    catchup_rounds: self.rounds,
                }));
                ActorPoll::Done
            }
            Phase::Done => ActorPoll::Done,
        }
    }
}
