//! The client side: blocking transactions and explicit batches.
//!
//! # The demultiplexer and its back-off policy
//!
//! One [`Client`] may serve many threads at once (a dispatch worker
//! pool embedding a client does exactly that). All in-flight
//! transactions share the endpoint's single packet queue, so whichever
//! waiter happens to pull a packet routes it to the transaction that
//! owns its destination port via the lock-free demux slot table (see
//! the `demux` module: resolution is one atomic load plus one
//! generation compare — no lock, no hash), and every waiter
//! alternates between two waits:
//!
//! 1. a non-blocking check of its private mailbox (a peer may have
//!    routed its reply there), then
//! 2. a bounded block on the shared endpoint queue (which spins before
//!    it parks while that has been paying — see [`Completion::wait`]).
//!
//! The bound on (2) is the **demux tick**, a constant in two steps:
//!
//! * **contended** (1 ms): while more than one transaction is in
//!   flight, a waiter's reply can be claimed by a peer at any moment,
//!   so it re-checks its mailbox frequently.
//! * **idle** (25 ms): when a waiter is the *only* in-flight
//!   transaction nobody can steal its reply, so frequent wake-ups would
//!   be pure overhead; the residual coarse tick only covers a peer
//!   *starting* mid-block.
//!
//! # One completion step, two drivers
//!
//! A [`Completion`] is the transaction's state machine, and every
//! arrival — from the mailbox, from a non-blocking look at the shared
//! queue, or from a blocking receive — goes through its one completion
//! step, which also decides a closed endpoint
//! ([`RpcError::Disconnected`]). [`Completion::poll`] takes what has
//! already arrived; [`Completion::wait`] is a driver over the same
//! step: on the wall clock it blocks on the shared queue a tick at a
//! time, under the simulator it parks on the reactor, then polls.
//!
//! # Batching
//!
//! [`Client::batch`] writes many request bodies into one
//! `BATCH_REQUEST` frame and demultiplexes the matching `BATCH_REPLY`
//! by `(batch id, entry index)` — see `docs/PROTOCOL.md`. A caller
//! batches explicitly, by handing over the requests it already has;
//! [`Client::start`] is always one frame out and one frame back.

use crate::demux::{encode_reply_port, DemuxTable, RouteCache, SlotToken};
use crate::frame::{self, BatchStatus, Frame, FrameKind, MAX_BATCH_ENTRIES};
use amoeba_net::{
    splitmix64, BufPool, Endpoint, EventKind, Header, MachineId, Packet, Port, RecvError, Timestamp,
};
use bytes::{Bytes, BytesMut};
use crossbeam::channel::Receiver;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::time::Duration;

/// Tunables for [`Client::trans`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RpcConfig {
    /// How long to wait for a reply before retransmitting.
    pub timeout: Duration,
    /// Total attempts (first try + retries). At-least-once semantics:
    /// servers whose operations are not idempotent must deduplicate.
    pub attempts: u32,
}

impl Default for RpcConfig {
    fn default() -> Self {
        RpcConfig {
            timeout: Duration::from_millis(500),
            attempts: 3,
        }
    }
}

/// The wall-clock demux tick while *other* transactions are in flight
/// and a peer may have routed this waiter's reply to its mailbox: short
/// enough that such a reply is picked up promptly, long enough that a
/// pool of blocked waiters is not a spin loop.
const CONTENDED_TICK: Duration = Duration::from_millis(1);

/// The wall-clock demux tick while this is the only transaction in
/// flight: its reply can only arrive on the queue it is blocked on, so
/// this only bounds how stale its "am I still alone?" view may get.
const IDLE_TICK: Duration = Duration::from_millis(25);

const _: () = assert!(CONTENDED_TICK.as_nanos() < IDLE_TICK.as_nanos());

/// Upper bound on recycled reply-port bindings a client parks between
/// transactions; beyond it ports are released normally. Bounds both the
/// claim table and the concurrency level that benefits from recycling.
const MAX_RECYCLED_REPLY_PORTS: u32 = 64;

/// Errors from a transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RpcError {
    /// No reply after all attempts.
    Timeout,
    /// The local endpoint is detached from the network.
    Disconnected,
    /// The server's RPC layer rejected this batch entry before
    /// dispatch (transport-level rejection; see `docs/PROTOCOL.md`,
    /// "Error and partial-failure semantics").
    Rejected,
}

impl std::fmt::Display for RpcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RpcError::Timeout => write!(f, "no reply from server after all attempts"),
            RpcError::Disconnected => write!(f, "endpoint detached from network"),
            RpcError::Rejected => write!(f, "server rejected the batch entry as malformed"),
        }
    }
}

impl std::error::Error for RpcError {}

/// Per-entry result of a batch transaction.
pub type BatchResult = Result<Bytes, RpcError>;

/// A client able to perform blocking transactions on a network endpoint.
///
/// "After making a request, a client blocks until the reply comes in"
/// (§2.1). The endpoint must not concurrently be used as a server — an
/// Amoeba process is one addressable party.
///
/// `trans` is safe to call from many threads at once: every in-flight
/// transaction registers its private reply port in a demux table, and
/// whichever waiter pulls a packet off the shared endpoint routes it to
/// the transaction it belongs to. This is what lets a service embed a
/// client (file server → bank server, file server → block server) and
/// still run on a dispatch worker pool (see the module docs for the
/// waiting cadence).
#[derive(Debug)]
pub struct Client {
    endpoint: Endpoint,
    config: RpcConfig,
    signature: Option<Port>,
    /// [`splitmix64`] state: a lock-free source of port salts and
    /// request ids, advanced with one `fetch_add` per draw. Reply-port
    /// secrecy rests on the 48-bit sparseness argument of §2.2, not on
    /// cryptographic stream quality, so a statistically-uniform mixer
    /// seeded from a secret word is the right tool on the hot path.
    rng_state: AtomicU64,
    /// Monotonic source of batch ids; uniqueness per client plus the
    /// per-batch private reply port makes `(reply port, id)` unique on
    /// the wire — a reply port never outlives the client that minted
    /// it, so ids restarting at 1 in the next client cannot collide.
    next_batch_id: AtomicU32,
    /// In-flight transactions: the lock-free slot table (see the
    /// `demux` module) that routes each wire reply port to its
    /// waiter's pooled mailbox, parks recycled bindings on an indexed
    /// freelist, and falls back to a counted-mutex map only on
    /// overflow.
    table: DemuxTable,
    /// The frame-buffer pool requests are encoded into: steady-state
    /// sends allocate nothing.
    pool: BufPool,
    /// The §2.1 kernel cache: put-port → the machine that last answered
    /// it. "To avoid having to broadcast the LOCATE message for every
    /// transaction, each kernel maintains a cache of (port, machine)
    /// pairs" — here it upgrades associative sends to machine-targeted
    /// ones, which is also what makes reply-port recycling sound (a
    /// targeted request reaches one machine, so at most one reply ever
    /// exists). A hint, never load-bearing: a hinted attempt that times
    /// out — or that no interface accepted, which is known at once —
    /// evicts the entry and retransmits associatively, so replica
    /// failover and migrated services still work. Lock-free (see
    /// `demux::RouteCache`).
    routes: RouteCache,
    /// Client-local trace-id mint (no cross-client coordination): the
    /// endpoint's machine id occupies the high 32 bits, a per-client
    /// counter the low 32, so spans from different clients never alias
    /// in a shared flight recording. Never on the wire.
    next_trace: AtomicU64,
}

impl Client {
    /// Wraps an endpoint with default configuration.
    pub fn new(endpoint: Endpoint) -> Client {
        Self::with_config(endpoint, RpcConfig::default())
    }

    /// Wraps an endpoint with explicit timeouts/retries.
    pub fn with_config(endpoint: Endpoint, config: RpcConfig) -> Client {
        let pool = BufPool::new();
        let trace_base = (u64::from(endpoint.id().as_u32()) << 32) | 1;
        let table = DemuxTable::new(endpoint.network(), pool.lock_meter());
        Client {
            endpoint,
            config,
            signature: None,
            rng_state: AtomicU64::new(amoeba_crypto::secret_u64()),
            next_batch_id: AtomicU32::new(1),
            table,
            pool,
            routes: RouteCache::new(),
            next_trace: AtomicU64::new(trace_base),
        }
    }

    /// Builder knob: pins the client's reply-port/request-id RNG
    /// stream to a seed. Every port mint and request id becomes a
    /// deterministic function of the seed — required for reproducible
    /// runs under the deterministic simulation executor, where the
    /// default entropy seeding would diverge between replays.
    pub fn with_rng_seed(mut self, seed: u64) -> Client {
        *self.rng_state.get_mut() = seed;
        self
    }

    /// The next value of the lock-free splitmix64 stream.
    fn next_rand(&self) -> u64 {
        let mut state = self
            .rng_state
            .fetch_add(0x9E37_79B9_7F4A_7C15, Ordering::Relaxed);
        splitmix64(&mut state)
    }

    /// The frame-buffer pool this client encodes into.
    pub fn buf_pool(&self) -> &BufPool {
        &self.pool
    }

    /// The trace id the *next* transaction on this client will mint
    /// (meaningful only while the recorder is enabled — a disabled
    /// recorder mints nothing). Multi-RPC operations (e.g. a batched
    /// path resolution) peek this before their first hop to stamp
    /// their own span events with the hop-chain's trace id.
    pub fn trace_peek(&self) -> u64 {
        self.next_trace.load(Ordering::Relaxed)
    }

    /// Attaches a secret signature `S` to every outgoing request; the
    /// F-box will transmit `F(S)`, which servers can compare against
    /// this principal's published `F(S)`.
    pub fn set_signature(&mut self, s: Port) {
        self.signature = Some(s);
    }

    /// The underlying endpoint.
    pub fn endpoint(&self) -> &Endpoint {
        &self.endpoint
    }

    /// Performs a blocking transaction: send `request` to put-port
    /// `dest`, await the reply. A thin caller of [`start`](Self::start)
    /// for a body that already exists (forwarding, a caller-built
    /// blob); code that *builds* its request writes it in place
    /// instead.
    ///
    /// # Errors
    /// As for [`start`](Self::start).
    pub fn trans(&self, dest: Port, request: Bytes) -> Result<Bytes, RpcError> {
        self.trans_async(dest, request).wait()
    }

    /// [`start`](Self::start) for a body that already exists: copies
    /// `request` behind the tag and lets the handle go (its storage
    /// recycles if this was the last one).
    pub fn trans_async(&self, dest: Port, request: Bytes) -> Completion<'_, Bytes> {
        let completion = self.start(dest, None, request.len(), |buf| {
            buf.extend_from_slice(&request);
        });
        self.pool.release(request);
        completion
    }

    /// Starts a transaction, the one way every request goes out: takes
    /// **one** pooled buffer sized for a `len`-byte body, writes the
    /// `REQUEST` tag, and lets `build` append the body straight after
    /// it — the frame is the only buffer the message ever lives in.
    /// `len` is a capacity hint: a body that outgrows it still goes
    /// out, at the price of a reallocation.
    ///
    /// The frame is on the wire when this returns; the caller decides
    /// when (and whether) to [`wait`](Completion::wait) or
    /// [`poll`](Completion::poll) for the reply. Dropping the handle
    /// abandons the transaction (the reply port is released; a late
    /// reply is dropped as stale noise).
    ///
    /// `target` pins delivery to one machine: the frame reaches only
    /// that machine (if it claims `dest`), not every claimer of the
    /// port. This is how a placement-aware caller turns a cached
    /// `(port, machine)` LOCATE answer into routing when several
    /// replicas serve one put-port. `None` lets the route cache pick.
    ///
    /// # Errors
    /// The completion yields [`RpcError::Timeout`] if no reply arrives
    /// within `config.attempts × config.timeout` — in particular from a
    /// dead or detached `target`, which failover callers treat as
    /// "invalidate this replica and try the next" — and
    /// [`RpcError::Disconnected`] if the endpoint is detached.
    pub fn start(
        &self,
        dest: Port,
        target: Option<MachineId>,
        len: usize,
        build: impl FnOnce(&mut BytesMut),
    ) -> Completion<'_, Bytes> {
        let mut buf = self.pool.take_sized(1 + len);
        Frame::request_with(&mut buf, build);
        self.launch(dest, target, buf.freeze(), accept_reply)
    }

    /// Performs a batch transaction: `entry(i, buf)` appends the body
    /// of entry `i` straight into the `BATCH_REQUEST` frame (its length
    /// prefix is back-patched), so `count` requests cost one pooled
    /// buffer, sized for `len` bytes of entries. More than
    /// [`MAX_BATCH_ENTRIES`] entries go out as several frames. Returns
    /// one result per entry, in request order.
    ///
    /// Partial failure is per entry: an entry the server rejected
    /// before dispatch comes back as [`RpcError::Rejected`]; entries
    /// missing from a (hostile or truncated) reply come back as
    /// [`RpcError::Timeout`]. Application-level failures are ordinary
    /// reply bodies.
    ///
    /// # Errors
    /// [`RpcError::Timeout`]/[`RpcError::Disconnected`] as for
    /// [`start`](Self::start), applied per wire frame: if one chunk's
    /// frame times out the whole call fails, since the caller can no
    /// longer line results up with requests.
    pub fn batch(
        &self,
        dest: Port,
        count: usize,
        len: usize,
        mut entry: impl FnMut(usize, &mut BytesMut),
    ) -> Result<Vec<BatchResult>, RpcError> {
        let mut results = Vec::with_capacity(count);
        for first in (0..count).step_by(MAX_BATCH_ENTRIES) {
            let n = (count - first).min(MAX_BATCH_ENTRIES);
            results.extend(self.batch_chunk(dest, n, len, |i, buf| entry(first + i, buf))?);
        }
        Ok(results)
    }

    /// One wire frame's worth of a batch transaction, written in place.
    fn batch_chunk(
        &self,
        dest: Port,
        n: usize,
        len: usize,
        mut entry: impl FnMut(usize, &mut BytesMut),
    ) -> Result<Vec<BatchResult>, RpcError> {
        let id = self.next_batch_id.fetch_add(1, Ordering::Relaxed);
        let mut buf = self.pool.take_sized(8 + len);
        frame::batch_preamble(&mut buf, FrameKind::BatchRequest, id, n);
        for i in 0..n {
            frame::batch_entry_with(&mut buf, |b| entry(i, b));
        }
        let accept = move |frame| match frame {
            Frame::BatchReply { id: rid, entries } if rid == id => {
                // Entries the server never answered (impossible from
                // our server, conceivable from a hostile one) surface
                // as per-entry timeouts rather than misaligned bodies.
                let mut results: Vec<BatchResult> = vec![Err(RpcError::Timeout); n];
                for e in entries {
                    if let Some(slot) = results.get_mut(e.index as usize) {
                        *slot = match e.status {
                            BatchStatus::Ok => Ok(e.body),
                            BatchStatus::Rejected => Err(RpcError::Rejected),
                        };
                    }
                }
                Some(results)
            }
            _ => None,
        };
        self.launch(dest, None, buf.freeze(), accept).wait()
    }

    /// Routes a packet that is not ours to whichever in-flight
    /// transaction owns its destination port (concurrent `trans` calls
    /// share one endpoint queue) — one index load plus one generation
    /// compare, no lock. Unclaimed packets are stale noise and are
    /// dropped.
    fn route_foreign(&self, pkt: Packet) {
        // A failed deposit means nobody owns the port (a straggler or
        // forged packet): drop it.
        let _ = self.table.deposit(pkt);
    }

    /// Records `machine` as the route-cache answer for put-port `dest`.
    /// No-op for broadcasts.
    fn note_route(&self, dest: Port, machine: MachineId) {
        if dest.is_broadcast() {
            return;
        }
        self.routes
            .insert(dest.value(), u64::from(machine.as_u32()) + 1);
    }

    /// The machine the route cache currently names for put-port `dest`.
    pub fn cached_route(&self, dest: Port) -> Option<MachineId> {
        self.routes
            .lookup(dest.value())
            .map(|v| MachineId::from((v - 1) as u32))
    }

    /// Occupied route-cache entries.
    pub fn cached_routes(&self) -> usize {
        self.routes.len()
    }

    /// Transactions currently in flight on this client.
    pub fn active_transactions(&self) -> u32 {
        self.table.active()
    }

    /// Reply-port bindings currently parked for recycling.
    pub fn parked_reply_ports(&self) -> u32 {
        self.table.parked()
    }

    /// Binds a reply port in the slot table (recycled when possible,
    /// minted otherwise). Returns the binding plus its get/wire ports.
    fn bind_reply_port(&self) -> (Binding, Port, Port, Receiver<Packet>) {
        // Recycled from a cleanly completed transaction when one is
        // parked: the port is then already claimed (an F-box has its F
        // values memoized) and still resolvable in the index — claiming
        // it is one O(1) freelist pop.
        if let Some((token, get, wire)) = self.table.claim_parked() {
            if let Some(m) = self.endpoint.obs().metrics() {
                m.reply_ports_recycled.add(1);
            }
            let rx = self.table.receiver(token);
            return (Binding::Slot(token), get, wire, rx);
        }
        // Fresh mint: reserve a slot and engrave its (index, gen) in
        // the minted get-port.
        if let Some((idx, gen8)) = self.table.reserve_fresh() {
            let get = encode_reply_port(idx as u8, gen8, self.next_rand() as u32);
            let wire = self.endpoint.claim(get);
            if let Some(token) = self.table.activate_fresh(idx, get, wire) {
                if let Some(m) = self.endpoint.obs().metrics() {
                    m.reply_ports_fresh.add(1);
                }
                let rx = self.table.receiver(token);
                return (Binding::Slot(token), get, wire, rx);
            }
            // Index probe window full: give the slot back and fall
            // through to the overflow map.
            self.table.abort_reserved(idx);
            self.endpoint.release(get);
        }
        // Overflow (more concurrent transactions than slots, or a
        // pathological index collision run): a plain random port and a
        // per-transaction mailbox under the counted overflow lock.
        let get = Port::from_raw(self.next_rand());
        if let Some(m) = self.endpoint.obs().metrics() {
            m.reply_ports_fresh.add(1);
            m.demux_overflows.add(1);
        }
        let wire = self.endpoint.claim(get);
        let rx = self.table.register_overflow(wire);
        (Binding::Overflow, get, wire, rx)
    }

    /// Registers the demux entry, transmits the first attempt of the
    /// frame `payload`, and hands back the in-flight transaction state.
    fn launch<T>(
        &self,
        dest: Port,
        target: Option<MachineId>,
        payload: Bytes,
        accept: impl Fn(Frame) -> Option<T> + Send + Sync + 'static,
    ) -> Completion<'_, T> {
        // Reply get-port per transaction, stable across retries so a
        // late first reply satisfies a retransmitted request.
        let (binding, reply_get, reply_wire, mailbox) = self.bind_reply_port();
        let mut header = Header::to(dest).with_reply(reply_get);
        let mut hinted = false;
        match target {
            Some(machine) => header = header.targeted(machine),
            // Untargeted: upgrade to a targeted send when the route
            // cache knows which machine answers this port. Broadcasts
            // stay broadcasts — the network ignores the hint for them
            // anyway, so a cached target would be a lie.
            None if !dest.is_broadcast() => {
                if let Some(val) = self.routes.lookup(dest.value()) {
                    header = header.targeted(MachineId::from((val - 1) as u32));
                    hinted = true;
                }
            }
            None => {}
        }
        if let Some(s) = self.signature {
            header = header.with_signature(s);
        }
        // Span root: a trace id is minted only when the recorder is
        // live, so the disabled path never touches the mint counter.
        let started_at = self.endpoint.now();
        let obs = self.endpoint.obs();
        let mut trace = 0;
        if obs.enabled() {
            trace = self.next_trace.fetch_add(1, Ordering::Relaxed);
            let t = started_at.since_epoch().as_nanos() as u64;
            obs.record(
                EventKind::TransStart,
                t,
                trace,
                dest.value(),
                payload.len() as u64,
            );
            obs.record(EventKind::Encode, t, trace, reply_wire.value(), 0);
            if let Some(m) = obs.metrics() {
                m.trans_started.add(1);
            }
        }
        let mut completion = Completion {
            client: self,
            header,
            payload,
            reply_get,
            reply_wire,
            binding,
            mailbox,
            accept: Box::new(accept),
            attempts_left: self.config.attempts.max(1),
            attempt_deadline: Timestamp::ZERO,
            transmits: 0,
            completed: false,
            hinted,
            trace,
            started_at,
        };
        completion.transmit(started_at);
        completion
    }
}

/// What a single-frame transaction accepts: the REPLY frame's body.
fn accept_reply(frame: Frame) -> Option<Bytes> {
    match frame {
        Frame::Reply(body) => Some(body),
        _ => None,
    }
}

/// How a completion's replies are routed: a slot-table binding (the
/// hot path) or an overflow-map entry.
#[derive(Debug, Clone, Copy)]
enum Binding {
    Slot(SlotToken),
    Overflow,
}

/// An in-flight transaction: the completion side of
/// [`Client::start`].
///
/// The handle owns the transaction's demux registration and drives the
/// retransmission schedule. Progress is made whenever the caller calls
/// [`poll`](Self::poll) (non-blocking) or [`wait`](Self::wait)
/// (blocking, reactor-parked under the simulator) — there is no
/// hidden thread. Dropping the handle abandons the transaction.
pub struct Completion<'c, T> {
    client: &'c Client,
    header: Header,
    payload: Bytes,
    reply_get: Port,
    reply_wire: Port,
    /// The demux registration this transaction owns.
    binding: Binding,
    /// Replies claimed from the shared endpoint by *peer* waiters and
    /// routed here: a clone of the slot's pooled mailbox receiver (no
    /// channel is constructed per transaction), or the overflow
    /// mailbox.
    mailbox: Receiver<Packet>,
    accept: Box<dyn Fn(Frame) -> Option<T> + Send + Sync>,
    /// Attempts not yet transmitted (the first transmit happens in
    /// [`Client::launch`]).
    attempts_left: u32,
    attempt_deadline: Timestamp,
    /// Attempts actually put on the wire.
    transmits: u32,
    /// Whether the transaction finished with an accepted reply. Only a
    /// `completed && transmits == 1` **machine-targeted** transaction
    /// may recycle its reply port: exactly one request frame existed
    /// and reached exactly one machine, so exactly one reply could ever
    /// have been produced — and it was consumed. An untargeted request
    /// is offered to every claimer of the destination port, so replicas
    /// can leave straggler replies in flight and the port must burn.
    completed: bool,
    /// Whether `header.target` came from the client's route cache
    /// rather than the caller. A hinted attempt that times out evicts
    /// the cache entry and falls back to associative addressing.
    hinted: bool,
    /// Flight-recorder span id (0 when the recorder was disabled at
    /// start — events are suppressed for the whole span then, so a
    /// mid-flight enable never produces a headless trace).
    trace: u64,
    /// When the span opened; completion latency is measured from here.
    started_at: Timestamp,
}

impl<T> std::fmt::Debug for Completion<'_, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Completion")
            .field("dest", &self.header.dest)
            .field("attempts_left", &self.attempts_left)
            .finish()
    }
}

impl<T> Completion<'_, T> {
    /// The current attempt's retransmission deadline. A poll-driven
    /// caller (the deterministic simulation executor's actors) that
    /// got `None` from [`poll`](Self::poll) need not be polled again
    /// until a packet arrives or the timeline reaches this instant.
    pub fn deadline(&self) -> Timestamp {
        self.attempt_deadline
    }

    /// Transmits one attempt and arms its retransmission deadline from
    /// `now` (the transaction's start, or the expiry check's reading).
    ///
    /// A *hinted* frame that no interface accepted went nowhere: the
    /// cached machine no longer serves the port. That is known here,
    /// before any loss or fault draw, so the hint is evicted and the
    /// frame goes out again associatively at once — no attempt spent,
    /// no timeout sat out.
    fn transmit(&mut self, now: Timestamp) {
        self.attempts_left -= 1;
        loop {
            self.transmits += 1;
            // Must clone: the payload is retained for retransmission
            // until the transaction completes (a refcount bump, no
            // byte copy).
            let sent = self.client.endpoint.send(self.header, self.payload.clone());
            self.note_transmitted();
            if !(self.hinted && sent.accepted == 0) {
                break;
            }
            self.evict_hint();
        }
        self.attempt_deadline = now + self.client.config.timeout;
    }

    /// Drops the route-cache hint this transaction was addressed by
    /// (unless a peer already learned a newer one) and falls back to
    /// associative addressing.
    fn evict_hint(&mut self) {
        if let Some(stale) = self.header.target.take() {
            self.client
                .routes
                .evict_if(self.header.dest.value(), u64::from(stale.as_u32()) + 1);
        }
        self.hinted = false;
    }

    fn note_transmitted(&self) {
        if self.trace == 0 {
            return;
        }
        let obs = self.client.endpoint.obs();
        let t = self.client.endpoint.now().since_epoch().as_nanos() as u64;
        let kind = if self.transmits > 1 {
            if let Some(m) = obs.metrics() {
                m.retransmits.add(1);
            }
            EventKind::Retransmit
        } else {
            EventKind::FrameOnWire
        };
        obs.record(
            kind,
            t,
            self.trace,
            self.header.dest.value(),
            u64::from(self.transmits),
        );
    }

    /// Closes the span: records the completion wake-up (with the
    /// start-to-finish latency as payload) and feeds the latency
    /// histogram, so reported percentiles and live metrics come from
    /// the one completion step.
    fn note_completed(&self) {
        let obs = self.client.endpoint.obs();
        if !obs.enabled() {
            return;
        }
        let now = self.client.endpoint.now();
        let latency = now.saturating_duration_since(self.started_at).as_nanos() as u64;
        if self.trace != 0 {
            obs.record(
                EventKind::CompletionWake,
                now.since_epoch().as_nanos() as u64,
                self.trace,
                latency,
                u64::from(self.transmits),
            );
        }
        if let Some(m) = obs.metrics() {
            m.trans_completed.add(1);
            m.trans_latency_ns.record(latency);
        }
    }

    /// The one completion step, fed whatever arrived for this
    /// transaction (`Err(Timeout)`: nothing yet). A closed endpoint
    /// ends the transaction; a packet owned by another in-flight
    /// transaction is routed to it; the accepted reply marks the
    /// transaction completed and closes its span.
    fn step(&mut self, arrival: Result<Packet, RecvError>) -> Option<Result<T, RpcError>> {
        let pkt = match arrival {
            Ok(pkt) => pkt,
            Err(RecvError::Timeout) => return None,
            Err(RecvError::Disconnected) => return Some(Err(RpcError::Disconnected)),
        };
        if pkt.header.dest != self.reply_wire {
            self.client.route_foreign(pkt);
            return None;
        }
        let source = pkt.source;
        let value = Frame::decode(&pkt.payload).and_then(&*self.accept)?;
        if self.trace != 0 {
            self.client.endpoint.obs().record(
                EventKind::ReplyDemux,
                self.client.endpoint.now().since_epoch().as_nanos() as u64,
                self.trace,
                self.reply_wire.value(),
                u64::from(source.as_u32()),
            );
        }
        // Feed the route cache: this machine answers for `dest`, so the
        // next transaction to it can be machine-targeted (and thereby
        // recycle its reply port). Not when another machine than the
        // addressee replies: the addressee relayed the request (a
        // migrated shard's old owner), and the replier does not serve
        // `dest`.
        if self.header.target.is_none_or(|t| t == source) {
            self.client.note_route(self.header.dest, source);
        }
        self.completed = true;
        self.note_completed();
        Some(Ok(value))
    }

    /// Makes all currently-possible progress: drains the mailbox and
    /// the shared endpoint queue, and retransmits (or gives up) when
    /// the attempt deadline has passed.
    ///
    /// Non-blocking caveat: consuming an arrived packet advances the
    /// clock over its remaining simulated latency — a jump under the
    /// simulator, but a **real wait** under the wall clock. A caller
    /// multiplexing other work on its thread should poll on a
    /// simulation network, where this returns promptly.
    ///
    /// Returns `Some(result)` once the transaction completed — with
    /// [`RpcError::Disconnected`] at once if the endpoint was closed —
    /// and `None` while it is still in flight. After `Some` is returned
    /// the handle is spent and must be dropped.
    pub fn poll(&mut self) -> Option<Result<T, RpcError>> {
        self.poll_at(None)
    }

    /// [`poll`](Self::poll) sharing the wall-clock wait loop's one
    /// clock reading per turn. `None` reads the clock at the expiry
    /// check itself — after the drains, which move the simulator's.
    fn poll_at(&mut self, now: Option<Timestamp>) -> Option<Result<T, RpcError>> {
        let client = self.client;
        loop {
            // A peer waiter may have claimed our reply from the shared
            // endpoint and routed it to our mailbox; then our own queue.
            let arrival = self
                .mailbox
                .try_recv()
                .or_else(|_| client.endpoint.poll_arrival());
            if let Ok(pkt) = &arrival {
                client.endpoint.reactor().deliver(pkt);
            }
            if !matches!(arrival, Err(RecvError::Timeout)) {
                if let Some(done) = self.step(arrival) {
                    return Some(done);
                }
                continue; // keep draining
            }
            let now = now.unwrap_or_else(|| client.endpoint.now());
            if now < self.attempt_deadline {
                return None;
            }
            if self.hinted {
                // The cached machine never answered — crashed, or the
                // service moved. Evict the route and fall back to
                // associative addressing, so a surviving replica can
                // take the retransmission — or, when this was the last
                // attempt, the *next* transaction: the cache is a
                // hint, never load-bearing for reachability, which is
                // why eviction must happen before the out-of-attempts
                // return below.
                self.evict_hint();
            }
            if self.attempts_left == 0 {
                if let Some(m) = client.endpoint.obs().metrics() {
                    m.trans_timeouts.add(1);
                }
                return Some(Err(RpcError::Timeout));
            }
            self.transmit(now);
        }
    }

    /// Blocks until the transaction completes: a driver over the
    /// completion step. Under the simulator's
    /// [`SimClock`](amoeba_net::SimClock) the waiter parks on the
    /// reactor, which releases the deliveries it waits for, then
    /// polls. Under the wall clock it blocks on the shared endpoint
    /// queue a demux tick at a time (see the module docs), feeds what
    /// arrives to the step, and re-checks its mailbox each tick. Each
    /// block is the channel's one receive: it spins briefly before it
    /// parks while replies on this endpoint have been arriving within
    /// a spin (the channel crate's "Park rule"), so between two cores
    /// a warm transaction's reply is taken without a futex wait here
    /// or a wake at the server.
    ///
    /// # Errors
    /// [`RpcError::Timeout`] after all attempts,
    /// [`RpcError::Disconnected`] if the endpoint is closed or detached.
    pub fn wait(mut self) -> Result<T, RpcError> {
        let client = self.client;
        let endpoint = &client.endpoint;
        let reactor = endpoint.reactor();
        if reactor.is_deterministic() {
            loop {
                if let Some(result) = self.poll() {
                    return result;
                }
                // Wake on a mailbox deposit or an endpoint arrival, or
                // at the attempt deadline, whichever the timeline
                // reaches first.
                let mailbox = &self.mailbox;
                let _: Option<()> = reactor.park_until(Some(self.attempt_deadline), || {
                    (!mailbox.is_empty() || endpoint.has_arrivals()).then_some(())
                });
            }
        }
        // The first turn needs no fresh clock reading: the request went
        // out a moment after `started_at`. Every later turn takes one.
        let mut now = self.started_at;
        loop {
            if let Some(result) = self.poll_at(Some(now)) {
                return result;
            }
            let tick = if client.table.active() > 1 {
                CONTENDED_TICK
            } else {
                IDLE_TICK
            };
            // This wait keeps its timer: it is the retransmission
            // deadline (and the demux tick).
            let arrival = endpoint.recv_deadline(self.attempt_deadline.min(now + tick));
            if let Some(result) = self.step(arrival) {
                return result;
            }
            now = endpoint.now();
        }
    }
}

impl<T> Drop for Completion<'_, T> {
    fn drop(&mut self) {
        // The frame buffer returns to the pool for the next encode.
        self.client.pool.retire(std::mem::take(&mut self.payload));
        // A machine-targeted transaction that completed on its single
        // transmission and left no stragglers can park its reply port
        // (still claimed, still indexed) for reuse — one frame reached
        // one machine, so the one possible reply could ever have been
        // produced — and it was consumed. Untargeted (or broadcast)
        // requests are offered to every claimer of the destination
        // port: N replicas send N replies, and stragglers still in
        // flight would alias whatever transaction reused the port —
        // the completion step correlates by reply port alone. Those ports, and
        // those of timed-out, retransmitted or abandoned transactions,
        // are burned instead: a late reply must find a dead port,
        // never a recycled one. Unconsumed deposits are detected (and
        // dropped) inside try_park/burn.
        match self.binding {
            Binding::Slot(token) => {
                let unicast = self.header.target.is_some() && !self.header.dest.is_broadcast();
                // "One transmit, one machine ⇒ at most one reply" is
                // only a theorem on a network that never duplicates
                // frames. A fault plan that duplicates, on either clock,
                // can turn one targeted request into two served
                // requests — two replies — so recycling is unsound there
                // and every port burns.
                let at_most_once = !self.client.endpoint.network().may_duplicate();
                let clean = self.completed && self.transmits == 1 && unicast && at_most_once;
                if clean && self.client.table.try_park(token, MAX_RECYCLED_REPLY_PORTS) {
                    return;
                }
                self.client.table.burn(token);
                self.client.endpoint.release(self.reply_get);
            }
            Binding::Overflow => {
                self.client.table.remove_overflow(self.reply_wire);
                self.client.endpoint.release(self.reply_get);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amoeba_net::Network;
    use std::sync::Arc;

    #[test]
    fn trans_times_out_when_nobody_listens() {
        let net = Network::new();
        let client = Client::with_config(
            net.attach_open(),
            RpcConfig {
                timeout: Duration::from_millis(5),
                attempts: 2,
            },
        );
        let before = net.stats().snapshot();
        let err = client
            .trans(Port::new(0x5050).unwrap(), Bytes::from_static(b"x"))
            .unwrap_err();
        assert_eq!(err, RpcError::Timeout);
        // Both attempts were transmitted.
        assert_eq!(net.stats().snapshot().packets_sent - before.packets_sent, 2);
    }

    #[test]
    fn concurrent_transactions_on_one_client_all_complete() {
        // The demux table must route every reply to its own waiter even
        // though all waiters share one endpoint queue.
        let net = Network::new();
        let server = crate::ServerPort::bind(net.attach_open(), Port::new(0xCC).unwrap());
        let p = server.put_port();
        let server_thread = std::thread::spawn(move || {
            // Echo each request body back, out of order in bursts.
            let mut backlog = Vec::new();
            loop {
                match server.next_request_timeout(Duration::from_millis(300)) {
                    Ok(req) => {
                        backlog.push(req);
                        if backlog.len() >= 4 {
                            for req in backlog.drain(..).rev() {
                                server.reply(&req, req.payload.clone());
                            }
                        }
                    }
                    Err(_) => {
                        for req in backlog.drain(..) {
                            server.reply(&req, req.payload.clone());
                        }
                        break;
                    }
                }
            }
        });
        let client = Arc::new(Client::with_config(
            net.attach_open(),
            RpcConfig {
                timeout: Duration::from_secs(2),
                attempts: 2,
            },
        ));
        let workers: Vec<_> = (0..8u32)
            .map(|i| {
                let client = Arc::clone(&client);
                std::thread::spawn(move || {
                    let body = Bytes::from(i.to_be_bytes().to_vec());
                    let reply = client.trans(p, body.clone()).unwrap();
                    assert_eq!(reply, body, "worker {i} got someone else's reply");
                })
            })
            .collect();
        for w in workers {
            w.join().unwrap();
        }
        server_thread.join().unwrap();
    }

    #[test]
    fn targeted_trans_reaches_only_the_named_replica() {
        // Two servers bind the same put-port; a targeted transaction
        // must be served by the named machine and leave the other
        // replica's queue untouched.
        let net = Network::new();
        let a = crate::ServerPort::bind(net.attach_open(), Port::new(0xEE).unwrap());
        let b = crate::ServerPort::bind(net.attach_open(), Port::new(0xEE).unwrap());
        let p = a.put_port();
        let a_machine = a.endpoint().id();
        let t = std::thread::spawn(move || {
            let req = a.next_request().unwrap();
            a.reply(&req, Bytes::from_static(b"from-a"));
        });
        let client = Client::with_config(
            net.attach_open(),
            RpcConfig {
                timeout: Duration::from_secs(2),
                attempts: 2,
            },
        );
        let reply = client
            .start(p, Some(a_machine), 2, |buf| buf.extend_from_slice(b"hi"))
            .wait()
            .unwrap();
        assert_eq!(&reply[..], b"from-a");
        t.join().unwrap();
        // Replica b never even saw the frame.
        assert_eq!(
            b.next_request_timeout(Duration::from_millis(30))
                .unwrap_err(),
            amoeba_net::RecvError::Timeout
        );
    }

    #[test]
    fn targeted_trans_to_dead_machine_times_out() {
        let net = Network::new();
        let server = crate::ServerPort::bind(net.attach_open(), Port::new(0xEF).unwrap());
        let p = server.put_port();
        let ghost = net.attach_open().id(); // detached immediately
        let client = Client::with_config(
            net.attach_open(),
            RpcConfig {
                timeout: Duration::from_millis(20),
                attempts: 2,
            },
        );
        assert_eq!(
            client.start(p, Some(ghost), 0, |_| {}).wait().unwrap_err(),
            RpcError::Timeout,
            "failover callers need Timeout, not a hang"
        );
        drop(server);
    }

    #[test]
    fn replica_fanout_burns_the_reply_port_then_the_learned_route_recycles() {
        // An untargeted request to a replicated port is answered by
        // every replica, so a straggler reply may still be in flight
        // when the transaction completes: its reply port must burn,
        // never park. The answering machine is cached, making the next
        // call machine-targeted — and that one may recycle its port.
        let net = Network::new();
        let g = Port::new(0xD0).unwrap();
        let a = crate::ServerPort::bind(net.attach_open(), g);
        let b = crate::ServerPort::bind(net.attach_open(), g);
        let p = a.put_port();
        let a_machine = a.endpoint().id();
        let serve = |s: crate::ServerPort, tag: &'static [u8]| {
            std::thread::spawn(move || {
                while let Ok(req) = s.next_request_timeout(Duration::from_millis(200)) {
                    s.reply(&req, Bytes::from_static(tag));
                }
            })
        };
        let ta = serve(a, b"replica-a");
        let tb = serve(b, b"replica-b");
        let client = Client::with_config(
            net.attach_open(),
            RpcConfig {
                timeout: Duration::from_secs(2),
                attempts: 2,
            },
        );
        let first = client.trans(p, Bytes::from_static(b"one")).unwrap();
        assert_eq!(
            client.parked_reply_ports(),
            0,
            "fan-out reply port was recycled"
        );
        let learned = client.cached_route(p).expect("route cached");
        let expected: &[u8] = if learned == a_machine {
            b"replica-a"
        } else {
            b"replica-b"
        };
        assert_eq!(
            &first[..],
            expected,
            "cached machine must be the one that answered"
        );
        let second = client.trans(p, Bytes::from_static(b"two")).unwrap();
        assert_eq!(second, first, "hinted call must hit the learned replica");
        assert_eq!(
            client.parked_reply_ports(),
            1,
            "targeted call must recycle its reply port"
        );
        ta.join().unwrap();
        tb.join().unwrap();
    }

    #[test]
    fn a_duplicating_wall_plan_turns_reply_port_recycling_off() {
        for (dup_per_mille, recycles) in [(0, true), (1000, false)] {
            let plan = amoeba_net::FaultPlan {
                dup_per_mille,
                ..amoeba_net::FaultPlan::quiet()
            };
            let net = Network::new_with_plan(1, plan);
            net.obs().enable();
            let server = crate::ServerPort::bind(net.attach_open(), Port::new(0xD1).unwrap());
            let p = server.put_port();
            let serve = std::thread::spawn(move || {
                while let Ok(req) = server.next_request_timeout(Duration::from_millis(200)) {
                    server.reply(&req, Bytes::from_static(b"ok"));
                }
            });
            // The first call learns the route; targeted calls after it
            // may park their port, and the next one reuses it.
            let client = Client::new(net.attach_open());
            for _ in 0..4 {
                assert_eq!(
                    &client.trans(p, Bytes::from_static(b"hi")).unwrap()[..],
                    b"ok"
                );
            }
            let recycled = net.obs().snapshot().unwrap().reply_ports_recycled;
            assert_eq!(recycled > 0, recycles, "dup {dup_per_mille}‰: {recycled}");
            serve.join().unwrap();
        }
    }

    #[test]
    fn stale_route_evicts_even_when_out_of_attempts() {
        // A one-attempt client (the replicated-service shape) whose
        // cached machine died must not stay wedged on it: the timed-out
        // hinted transaction evicts the route even though it has no
        // retransmission left, so the *next* call goes associative and
        // reaches a live server.
        let net = Network::new();
        let g = Port::new(0xD3).unwrap();
        let server = crate::ServerPort::bind(net.attach_open(), g);
        let t = std::thread::spawn(move || {
            while let Ok(req) = server.next_request_timeout(Duration::from_millis(300)) {
                server.reply(&req, Bytes::from_static(b"alive"));
            }
        });
        // A crashed replica: still attached, still claiming the port,
        // never answering.
        let ghost = net.attach_open();
        ghost.claim(g);
        let client = Client::with_config(
            net.attach_open(),
            RpcConfig {
                timeout: Duration::from_millis(20),
                attempts: 1,
            },
        );
        client.note_route(g, ghost.id());
        assert_eq!(
            client.trans(g, Bytes::from_static(b"x")).unwrap_err(),
            RpcError::Timeout
        );
        assert!(
            client.cached_route(g).is_none(),
            "stale route must evict on the final attempt"
        );
        assert_eq!(
            &client.trans(g, Bytes::from_static(b"y")).unwrap()[..],
            b"alive"
        );
        t.join().unwrap();
    }

    #[test]
    fn hint_nobody_accepts_goes_associative_at_once() {
        // The cached machine no longer listens on the port (detached,
        // or it never served it — a route learned from a forwarded
        // reply). The hinted frame reaches no interface, which the
        // send reports; the client must evict the hint and go
        // associative immediately, not sit out the timeout — here
        // with its single attempt, on a timeout long enough that
        // waiting it out would fail the time bound.
        let net = Network::new();
        let g = Port::new(0xD4).unwrap();
        let server = crate::ServerPort::bind(net.attach_open(), g);
        let t = std::thread::spawn(move || {
            while let Ok(req) = server.next_request_timeout(Duration::from_millis(300)) {
                server.reply(&req, Bytes::from_static(b"alive"));
            }
        });
        let bystander = net.attach_open(); // attached, does not claim g
        let client = Client::with_config(
            net.attach_open(),
            RpcConfig {
                timeout: Duration::from_secs(5),
                attempts: 1,
            },
        );
        client.note_route(g, bystander.id());
        let before = net.stats().snapshot();
        let t0 = std::time::Instant::now();
        assert_eq!(
            &client.trans(g, Bytes::from_static(b"x")).unwrap()[..],
            b"alive"
        );
        assert!(t0.elapsed() < Duration::from_secs(1), "{:?}", t0.elapsed());
        let sent = net.stats().snapshot() - before;
        assert_eq!(sent.packets_sent, 3, "hinted, associative, reply");
        assert_ne!(client.cached_route(g), Some(bystander.id()));
        t.join().unwrap();
    }

    #[test]
    fn reply_from_another_machine_than_addressed_teaches_no_route() {
        // Machine `old` relays the request to `new`, which answers the
        // client directly (a migrated shard's forwarding). A request
        // addressed to `old` must not leave "`new` serves old's port"
        // in the route cache.
        let net = Network::new();
        let old = crate::ServerPort::bind(net.attach_open(), Port::new(0xD5).unwrap());
        let new = crate::ServerPort::bind(net.attach_open(), Port::new(0xD6).unwrap());
        let (old_port, old_machine) = (old.put_port(), old.endpoint().id());
        let new_port = new.put_port();
        let relay = std::thread::spawn(move || {
            while let Ok(req) = old.next_request_timeout(Duration::from_millis(300)) {
                assert!(old.forward(&req, new_port));
            }
        });
        let serve = std::thread::spawn(move || {
            while let Ok(req) = new.next_request_timeout(Duration::from_millis(300)) {
                new.reply(&req, Bytes::from_static(b"from-new"));
            }
        });
        let client = Client::new(net.attach_open());
        for _ in 0..2 {
            let reply = client
                .start(old_port, Some(old_machine), 1, |buf| {
                    buf.extend_from_slice(b"x")
                })
                .wait()
                .unwrap();
            assert_eq!(&reply[..], b"from-new");
            assert_eq!(client.cached_route(old_port), None);
        }
        relay.join().unwrap();
        serve.join().unwrap();
    }

    #[test]
    fn route_cache_stays_bounded() {
        use crate::demux::MAX_CACHED_ROUTES;
        let net = Network::new();
        let client = Client::new(net.attach_open());
        let machine = client.endpoint().id();
        for v in 1..=(MAX_CACHED_ROUTES as u64 + 7) {
            client.note_route(Port::new(v).unwrap(), machine);
        }
        let cached = client.cached_routes();
        assert!(
            cached <= MAX_CACHED_ROUTES,
            "route cache exceeded its bound: {cached}"
        );
        // Broadcast notes are dropped, not cached.
        client.note_route(Port::BROADCAST, machine);
        assert!(client.cached_route(Port::BROADCAST).is_none());
    }

    #[test]
    fn straggler_replica_reply_never_aliases_a_later_transaction() {
        // Two replicas answer call 1; the straggler reply is still in
        // flight when the transaction completes. Call 2 — which under
        // unsound recycling would inherit call 1's reply port — must
        // return its own server's body, not the straggler.
        let net = Network::new();
        net.set_latency(Duration::from_millis(10));
        let g1 = Port::new(0xD1).unwrap();
        let g2 = Port::new(0xD2).unwrap();
        let serve = |s: crate::ServerPort, tag: &'static [u8]| {
            std::thread::spawn(move || {
                while let Ok(req) = s.next_request_timeout(Duration::from_millis(200)) {
                    s.reply(&req, Bytes::from_static(tag));
                }
            })
        };
        let ta = serve(crate::ServerPort::bind(net.attach_open(), g1), b"dup");
        let tb = serve(crate::ServerPort::bind(net.attach_open(), g1), b"dup");
        let tc = serve(crate::ServerPort::bind(net.attach_open(), g2), b"fresh");
        let client = Client::with_config(
            net.attach_open(),
            RpcConfig {
                timeout: Duration::from_secs(2),
                attempts: 2,
            },
        );
        assert_eq!(
            &client.trans(g1, Bytes::from_static(b"x")).unwrap()[..],
            b"dup"
        );
        assert_eq!(
            &client.trans(g2, Bytes::from_static(b"y")).unwrap()[..],
            b"fresh",
            "straggler reply aliased a later transaction"
        );
        net.set_latency(Duration::ZERO);
        for t in [ta, tb, tc] {
            t.join().unwrap();
        }
    }

    #[test]
    fn trans_async_completes_via_poll_and_wait() {
        let net = Network::new();
        let server = crate::ServerPort::bind(net.attach_open(), Port::new(0xA5).unwrap());
        let p = server.put_port();
        let t = std::thread::spawn(move || {
            for _ in 0..2 {
                let req = server.next_request().unwrap();
                server.reply(&req, req.payload.clone());
            }
        });
        let client = Client::with_config(
            net.attach_open(),
            RpcConfig {
                timeout: Duration::from_secs(2),
                attempts: 2,
            },
        );
        // Completion via wait().
        let pending = client.trans_async(p, Bytes::from_static(b"one"));
        assert_eq!(&pending.wait().unwrap()[..], b"one");
        // Completion via poll(): the caller drives progress.
        let mut pending = client.trans_async(p, Bytes::from_static(b"two"));
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        let result = loop {
            if let Some(r) = pending.poll() {
                break r;
            }
            assert!(std::time::Instant::now() < deadline, "poll never completed");
            std::thread::yield_now();
        };
        drop(pending);
        assert_eq!(&result.unwrap()[..], b"two");
        t.join().unwrap();
    }

    #[test]
    fn dropping_a_completion_abandons_the_transaction() {
        let net = Network::new();
        let client = Client::new(net.attach_open());
        let pending = client.trans_async(Port::new(0xAB).unwrap(), Bytes::from_static(b"x"));
        assert_eq!(client.active_transactions(), 1);
        drop(pending); // releases the demux entry and the reply port
        assert_eq!(client.active_transactions(), 0, "demux entry must be gone");
    }

    #[test]
    fn a_blocking_trans_on_the_simulator_times_out_in_timeline_time_only() {
        // `wait`'s reactor park: the blocked caller is the thread that
        // moves the simulated clock from one attempt deadline to the
        // next.
        let net = Network::new_sim(1);
        let client = Client::with_config(
            net.attach_open(),
            RpcConfig {
                timeout: Duration::from_millis(500),
                attempts: 3,
            },
        );
        let before = net.stats().snapshot();
        let t0 = std::time::Instant::now();
        let v0 = net.now();
        let err = client
            .trans(Port::new(0x5051).unwrap(), Bytes::from_static(b"x"))
            .unwrap_err();
        assert_eq!(err, RpcError::Timeout);
        assert_eq!(
            net.stats().snapshot().packets_sent - before.packets_sent,
            3,
            "all attempts must still be transmitted"
        );
        assert_eq!(net.now() - v0, Duration::from_millis(1500));
        assert!(
            t0.elapsed() < Duration::from_millis(750),
            "1.5 s of simulated timeout must not block wall-clock: {:?}",
            t0.elapsed()
        );
    }

    #[test]
    fn config_default_is_sane() {
        let c = RpcConfig::default();
        assert!(c.attempts >= 1);
        assert!(c.timeout > Duration::ZERO);
    }

    #[test]
    fn closing_the_endpoint_disconnects_a_simulated_transaction_at_once() {
        let net = Network::new_sim(3);
        let client = Client::new(net.attach_open());
        let dest = Port::new(0x5052).unwrap();
        let mut pending = client.trans_async(dest, Bytes::from_static(b"x"));
        let t0 = net.now();
        client.endpoint().close();
        assert_eq!(pending.poll(), Some(Err(RpcError::Disconnected)));
        drop(pending);
        assert_eq!(
            client.trans(dest, Bytes::from_static(b"y")),
            Err(RpcError::Disconnected)
        );
        assert_eq!(net.now(), t0, "a disconnect is not waited out");
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let net = Network::new();
        let client = Client::new(net.attach_open());
        let before = net.stats().snapshot();
        let results = client
            .batch(Port::new(0x7).unwrap(), 0, 0, |_, _| {
                unreachable!("no entries")
            })
            .unwrap();
        assert!(results.is_empty());
        assert_eq!(net.stats().snapshot().packets_sent, before.packets_sent);
    }

    #[test]
    fn batch_round_trip_uses_one_frame_each_way() {
        let net = Network::new();
        let server = crate::ServerPort::bind(net.attach_open(), Port::new(0xB0).unwrap());
        let p = server.put_port();
        let t = std::thread::spawn(move || {
            for _ in 0..8 {
                let req = server.next_request().unwrap();
                let mut body = req.payload.to_vec();
                body.reverse();
                server.reply(&req, Bytes::from(body));
            }
        });
        let client = Client::with_config(
            net.attach_open(),
            RpcConfig {
                timeout: Duration::from_secs(2),
                attempts: 2,
            },
        );
        let before = net.stats().snapshot();
        let results = client
            .batch(p, 8, 8 * 6, |i, buf| {
                buf.extend_from_slice(&[i as u8, b'x'])
            })
            .unwrap();
        let frames = net.stats().snapshot().packets_sent - before.packets_sent;
        assert_eq!(
            frames, 2,
            "8 transactions must cost 1 request + 1 reply frame"
        );
        for (i, r) in results.into_iter().enumerate() {
            assert_eq!(r.unwrap(), Bytes::from(vec![b'x', i as u8]));
        }
        t.join().unwrap();
    }

    #[test]
    fn a_batch_over_the_entry_limit_splits_into_frames_in_request_order() {
        const COUNT: usize = MAX_BATCH_ENTRIES + 3;
        let net = Network::new();
        let server = crate::ServerPort::bind(net.attach_open(), Port::new(0xB1).unwrap());
        let p = server.put_port();
        let t = std::thread::spawn(move || {
            for _ in 0..COUNT {
                let req = server.next_request().unwrap();
                server.reply(&req, req.payload.clone());
            }
        });
        let client = Client::with_config(
            net.attach_open(),
            RpcConfig {
                timeout: Duration::from_secs(5),
                attempts: 1,
            },
        );
        let tap = net.tap();
        let before = net.stats().snapshot();
        let results = client
            .batch(p, COUNT, 8 * COUNT, |i, buf| {
                buf.extend_from_slice(&(i as u32).to_be_bytes())
            })
            .unwrap();
        let sent = net.stats().snapshot() - before;
        assert_eq!(results.len(), COUNT);
        for (i, r) in results.into_iter().enumerate() {
            assert_eq!(r.unwrap()[..], (i as u32).to_be_bytes(), "entry {i}");
        }
        let (mut requests, mut replies) = (0, 0);
        while let Ok(pkt) = tap.try_recv() {
            match Frame::decode(&pkt.payload) {
                Some(Frame::BatchRequest { .. }) => requests += 1,
                Some(Frame::BatchReply { .. }) => replies += 1,
                other => panic!("unexpected frame {other:?}"),
            }
        }
        assert_eq!(
            (requests, replies),
            (2, 2),
            "{COUNT} entries: two frames each way"
        );
        assert_eq!(sent.packets_sent, 4);
        t.join().unwrap();
    }

    #[test]
    fn a_dead_clients_straggler_never_reaches_its_successor() {
        // An untargeted call to a replicated port leaves a straggler
        // reply in flight, so its port is dirty and must burn, never
        // park — even though the client dies while the straggler is
        // still on the wire. The next client must see its own replies
        // only: its reply ports are its own mints, never the dead
        // client's.
        let net = Network::new();
        net.set_latency(Duration::from_millis(10));
        let g1 = Port::new(0xE2).unwrap();
        let g2 = Port::new(0xE3).unwrap();
        let serve = |s: crate::ServerPort, tag: &'static [u8]| {
            std::thread::spawn(move || {
                while let Ok(req) = s.next_request_timeout(Duration::from_millis(250)) {
                    s.reply(&req, Bytes::from_static(tag));
                }
            })
        };
        let ta = serve(crate::ServerPort::bind(net.attach_open(), g1), b"dup");
        let tb = serve(crate::ServerPort::bind(net.attach_open(), g1), b"dup");
        let tc = serve(crate::ServerPort::bind(net.attach_open(), g2), b"fresh");
        let cfg = RpcConfig {
            timeout: Duration::from_secs(2),
            attempts: 2,
        };
        {
            let a = Client::with_config(net.attach_open(), cfg);
            // Untargeted, two replicas answer: one reply consumed, one
            // straggler in flight when the client dies.
            assert_eq!(&a.trans(g1, Bytes::from_static(b"x")).unwrap()[..], b"dup");
            assert_eq!(a.parked_reply_ports(), 0, "fan-out port must burn");
        }
        let b = Client::with_config(net.attach_open(), cfg);
        assert_eq!(
            &b.trans(g2, Bytes::from_static(b"y")).unwrap()[..],
            b"fresh",
            "a straggler from the dead client aliased the new one"
        );
        net.set_latency(Duration::ZERO);
        for t in [ta, tb, tc] {
            t.join().unwrap();
        }
    }
}
