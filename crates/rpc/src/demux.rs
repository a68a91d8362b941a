//! The lock-free reply demultiplexer: slot table, pooled mailboxes,
//! and the recycled-port freelists.
//!
//! PR 5 left the client demux as a `Mutex<HashMap<Port, Sender>>`
//! insert/remove per transaction plus a freshly constructed mailbox
//! channel per call. This module replaces both with a fixed **slot
//! table** (the ObjectTable low-bits trick applied to reply ports):
//!
//! * Each in-flight transaction owns one of [`SLOTS`] slots. The
//!   minted reply get-port engraves the slot index and an 8-bit
//!   **generation tag** in its low bits (see [`encode_reply_port`]) —
//!   `[ salt:32 | gen:8 | slot:8 ]` — so owner-side bookkeeping
//!   (parking, recycling) is a direct index, never a scan.
//! * What arrives on the wire is the **F-transformed** port `F(G′)`,
//!   whose bits carry no trace of the engraving (that is the point of
//!   F). Incoming replies therefore resolve through a fixed
//!   open-addressed **index**: one `AtomicU64` per entry packing
//!   `[ wire:48 | gen:8 | slot:8 ]`, probed from the wire value's low
//!   bits. A resolve is one load + one compare — no lock, no hash
//!   table, no allocation.
//! * Each slot owns one **pooled mailbox** (created once, in a
//!   `OnceLock`, reused by every transaction that occupies the slot),
//!   so `Client::start` performs zero channel construction in steady
//!   state.
//! * Recycled bindings park on an **indexed freelist** — a Treiber
//!   stack of slot indices whose head packs a version counter against
//!   ABA (`[ version:32 | index+1:32 ]`, safe-Rust atomics only) — so
//!   claiming a recycled reply port is O(1) however many are parked,
//!   replacing PR 5's linear-scan `Mutex<Vec>`.
//!
//! # Generation tags and straggler soundness
//!
//! A slot's generation survives parking and is bumped on every
//! **burn** (port release). A depositor routing a foreign reply
//! validates `(wire, gen)` from the index against the live slot
//! *before and after* the deposit; the owner flips the slot state
//! *before* draining on teardown. Between the two, any packet is
//! drained by one side or the other, so no deposit outlives its
//! binding in a pooled mailbox and no stale deposit can
//! be accepted: the accepting completion still compares the packet's
//! full 48-bit wire port against its own binding, so even a mailbox
//! reused across bindings cannot alias transactions. The PR 5
//! recycling rules (only a machine-targeted, single-transmit,
//! stragglerless completion may park its port) are unchanged and are
//! what make port reuse sound. Reuse never crosses clients: a reply
//! port lives and dies with the client that minted it.
//!
//! Overflow (more concurrent transactions than free slots, or a full
//! probe window) falls back to a mutex-guarded map. The mutex is a
//! counted [`HotMutex`] and the fallback is gated by an atomic
//! counter, so the steady state neither takes the lock nor pays for
//! checking the map.

use amoeba_net::{HotMutex, LockMeter, Network, Packet, Port};
use crossbeam::channel::{Receiver, Sender};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::OnceLock;

/// Number of demux slots — the engraving budget of the 8 slot bits.
pub(crate) const SLOTS: usize = 256;

/// Entries in the wire-value index. Twice the slot count keeps the
/// load factor at or below one half, so a bounded probe suffices.
const INDEX_SLOTS: usize = 512;

/// Linear-probe window for the wire index. With load ≤ 0.5 a run of
/// 16 occupied entries is vanishingly rare; a full window falls back
/// to the overflow map rather than probing further.
const PROBE_WINDOW: usize = 16;

/// Slot lifecycle states.
const EMPTY: u32 = 0;
/// Claimed by an owner mid-bind (or mid-teardown); not yet resolvable.
const RESERVED: u32 = 1;
/// Bound to an in-flight transaction; deposits accepted.
const ACTIVE: u32 = 2;
/// Bound to a recycled (claimed, quiescent) port awaiting reuse.
const PARKED: u32 = 3;

/// Mints a reply get-port engraving `(slot, gen)` in its low 16 bits:
/// `[ salt:32 | gen:8 | slot:8 ]`. Salt values 0 and `u32::MAX` are
/// remapped (to 1 and `u32::MAX - 1`) so the result can never collide
/// with the reserved broadcast/null port values; slot and generation
/// always round-trip exactly.
pub(crate) fn encode_reply_port(slot: u8, gen: u8, salt: u32) -> Port {
    let salt = match salt {
        0 => 1,
        u32::MAX => u32::MAX - 1,
        s => s,
    };
    let value = (u64::from(salt) << 16) | (u64::from(gen) << 8) | u64::from(slot);
    Port::new(value).expect("salt remap keeps the value off the reserved ports")
}

/// One demux slot. All fields are atomics (or write-once); the slot is
/// never guarded by a lock.
struct Slot {
    state: AtomicU32,
    /// Generation of the current (or next) binding. Survives parking;
    /// bumped on burn. The low 8 bits are what ports engrave and the
    /// index carries.
    gen: AtomicU32,
    /// The secret get-port value of the current binding (0 when empty).
    get: AtomicU64,
    /// The wire (F-transformed) reply-port value of the current
    /// binding (0 when empty).
    wire: AtomicU64,
    /// Freelist link: index+1 of the next stacked slot, 0 = end. A
    /// slot is on at most one freelist at a time.
    next: AtomicU32,
    /// The pooled mailbox: constructed once per slot, reused by every
    /// binding that occupies it. Peers deposit via the sender; the
    /// owner drains via (a clone of) the receiver.
    mailbox: OnceLock<(Sender<Packet>, Receiver<Packet>)>,
}

impl Slot {
    const fn new() -> Slot {
        Slot {
            state: AtomicU32::new(EMPTY),
            gen: AtomicU32::new(0),
            get: AtomicU64::new(0),
            wire: AtomicU64::new(0),
            next: AtomicU32::new(0),
            mailbox: OnceLock::new(),
        }
    }

    fn mailbox(&self, net: &Network) -> &(Sender<Packet>, Receiver<Packet>) {
        self.mailbox.get_or_init(|| net.channel())
    }

    /// Drains every queued deposit; whether there was one. Callers
    /// flip `state`/`gen` first, so a concurrent depositor either
    /// loses the race (we drain its packet) or observes the change and
    /// drains its own.
    fn drain_discard(&self) -> bool {
        let mut any = false;
        if let Some((_, rx)) = self.mailbox.get() {
            while rx.try_recv().is_ok() {
                any = true;
            }
        }
        any
    }
}

/// A Treiber stack of slot indices, ABA-proof via a packed version:
/// `[ version:32 | index+1:32 ]` in one `AtomicU64`. Push/pop are
/// O(1) and lock-free — this is the "indexed freelist" that replaces
/// the linear-scan parked-port vector.
struct SlotStack {
    head: AtomicU64,
}

impl SlotStack {
    const fn new() -> SlotStack {
        SlotStack {
            head: AtomicU64::new(0),
        }
    }

    fn push(&self, slots: &[Slot], idx: usize) {
        let mut head = self.head.load(Ordering::Acquire);
        loop {
            slots[idx].next.store(head as u32, Ordering::Relaxed);
            let next = ((head >> 32).wrapping_add(1) << 32) | (idx as u64 + 1);
            match self
                .head
                .compare_exchange_weak(head, next, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => return,
                Err(h) => head = h,
            }
        }
    }

    /// Pops the top index, counting loop iterations into `steps` (the
    /// O(1)-recycling regression probe).
    fn pop(&self, slots: &[Slot], steps: &AtomicU64) -> Option<usize> {
        let mut head = self.head.load(Ordering::Acquire);
        loop {
            steps.fetch_add(1, Ordering::Relaxed);
            let top = (head & 0xFFFF_FFFF) as u32;
            if top == 0 {
                return None;
            }
            let idx = top as usize - 1;
            let next_link = u64::from(slots[idx].next.load(Ordering::Relaxed));
            let next = ((head >> 32).wrapping_add(1) << 32) | next_link;
            match self
                .head
                .compare_exchange_weak(head, next, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => return Some(idx),
                Err(h) => head = h,
            }
        }
    }
}

/// The owner-side handle to a bound slot, kept in a `Completion`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SlotToken {
    pub idx: usize,
    /// The generation this binding was created under; teardown
    /// validates it defensively.
    pub gen: u32,
}

/// The packed wire-index entry: `[ wire:48 | gen:8 | slot:8 ]`.
fn pack_index(wire: u64, gen8: u8, slot: usize) -> u64 {
    (wire << 16) | (u64::from(gen8) << 8) | slot as u64
}

/// The client demultiplexer (see the module docs).
pub(crate) struct DemuxTable {
    /// The owning client's network: mailboxes are its queues, so their
    /// pushes count toward its hand-off meter.
    net: Network,
    slots: Vec<Slot>,
    /// Open-addressed wire-value index; 0 = empty (a wire reply port
    /// is never 0 — the broadcast value is unmintable and F outputs
    /// are remapped off it).
    index: Vec<AtomicU64>,
    /// Slots available for fresh bindings.
    free: SlotStack,
    /// Slots holding recycled (parked) bindings, ready for O(1) reuse.
    parked: SlotStack,
    parked_count: AtomicU32,
    active_count: AtomicU32,
    /// Pop-loop iterations on the parked stack — the O(1) recycling
    /// regression probe (`tests` assert it stays flat as the parked
    /// set grows).
    pub(crate) recycle_pop_steps: AtomicU64,
    /// Overflow registrations: wire value → depositor. Guarded by a
    /// counted lock; `overflow_count` lets the steady state skip it
    /// without locking.
    overflow: HotMutex<HashMap<u64, Sender<Packet>>>,
    overflow_count: AtomicU32,
}

impl std::fmt::Debug for DemuxTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DemuxTable")
            .field("active", &self.active_count.load(Ordering::Relaxed))
            .field("parked", &self.parked_count.load(Ordering::Relaxed))
            .finish()
    }
}

impl DemuxTable {
    pub(crate) fn new(net: &Network, meter: LockMeter) -> DemuxTable {
        let slots: Vec<Slot> = (0..SLOTS).map(|_| Slot::new()).collect();
        let table = DemuxTable {
            // Must clone: the table outlives no endpoint but needs its
            // own handle for lazily built mailboxes (an Arc bump).
            net: net.clone(),
            index: (0..INDEX_SLOTS).map(|_| AtomicU64::new(0)).collect(),
            free: SlotStack::new(),
            parked: SlotStack::new(),
            parked_count: AtomicU32::new(0),
            active_count: AtomicU32::new(0),
            recycle_pop_steps: AtomicU64::new(0),
            overflow: HotMutex::with_meter(HashMap::new(), meter),
            overflow_count: AtomicU32::new(0),
            slots,
        };
        // Stack in reverse so early bindings get low slot indices.
        for idx in (0..SLOTS).rev() {
            table.free.push(&table.slots, idx);
        }
        table
    }

    /// In-flight (ACTIVE) transactions right now.
    pub(crate) fn active(&self) -> u32 {
        self.active_count.load(Ordering::Relaxed)
    }

    /// Parked recycled bindings right now.
    pub(crate) fn parked(&self) -> u32 {
        self.parked_count.load(Ordering::Relaxed)
    }

    /// Reserves a free slot for a fresh binding and returns
    /// `(index, gen)` — the caller mints the port from these, claims
    /// it, then calls [`activate_fresh`](Self::activate_fresh).
    pub(crate) fn reserve_fresh(&self) -> Option<(usize, u8)> {
        let idx = self.free.pop(&self.slots, &self.recycle_pop_steps)?;
        let slot = &self.slots[idx];
        slot.state.store(RESERVED, Ordering::Release);
        let gen8 = (slot.gen.load(Ordering::Relaxed) & 0xFF) as u8;
        Some((idx, gen8))
    }

    /// Binds a reserved slot to `(get, wire)` and makes it resolvable.
    /// Returns the owner token, or `None` if the index probe window is
    /// full (the caller should abort the binding and go overflow).
    pub(crate) fn activate_fresh(&self, idx: usize, get: Port, wire: Port) -> Option<SlotToken> {
        let slot = &self.slots[idx];
        let gen = slot.gen.load(Ordering::Relaxed);
        let packed = pack_index(wire.value(), (gen & 0xFF) as u8, idx);
        if !self.index_insert(wire.value(), packed) {
            return None;
        }
        slot.get.store(get.value(), Ordering::Relaxed);
        slot.wire.store(wire.value(), Ordering::Relaxed);
        // Defensive: a fresh binding must start with an empty mailbox.
        debug_assert!(slot.mailbox.get().is_none_or(|(_, rx)| rx.is_empty()));
        slot.state.store(ACTIVE, Ordering::Release);
        self.active_count.fetch_add(1, Ordering::Relaxed);
        Some(SlotToken { idx, gen })
    }

    /// Rolls back a reservation whose bind failed.
    pub(crate) fn abort_reserved(&self, idx: usize) {
        self.slots[idx].state.store(EMPTY, Ordering::Release);
        self.free.push(&self.slots, idx);
    }

    /// Claims a parked recycled binding — O(1) regardless of how many
    /// are parked. The port is already claimed on the interface and
    /// already resolvable in the index; this just flips it live.
    pub(crate) fn claim_parked(&self) -> Option<(SlotToken, Port, Port)> {
        let idx = self.parked.pop(&self.slots, &self.recycle_pop_steps)?;
        self.parked_count.fetch_sub(1, Ordering::Relaxed);
        let slot = &self.slots[idx];
        // Defensive drain: a parked binding is quiescent by the
        // recycling invariant, but noise injected at its port must not
        // leak into the new transaction.
        slot.drain_discard();
        let gen = slot.gen.load(Ordering::Relaxed);
        let get = Port::from_raw(slot.get.load(Ordering::Relaxed));
        let wire = Port::from_raw(slot.wire.load(Ordering::Relaxed));
        slot.state.store(ACTIVE, Ordering::Release);
        self.active_count.fetch_add(1, Ordering::Relaxed);
        Some((SlotToken { idx, gen }, get, wire))
    }

    /// Parks a completed binding for reuse: the port stays claimed and
    /// resolvable, the slot leaves ACTIVE. Returns `false` (leaving
    /// the slot RESERVED) if a stale deposit raced in — the binding is
    /// then not quiescent and the caller must burn it — or if the
    /// parked set is at `cap`.
    pub(crate) fn try_park(&self, token: SlotToken, cap: u32) -> bool {
        let slot = &self.slots[token.idx];
        debug_assert_eq!(
            slot.gen.load(Ordering::Relaxed),
            token.gen,
            "a token must only tear down its own binding"
        );
        // Leave ACTIVE first: depositors observing RESERVED either
        // skip (pre-send check) or self-drain (post-send re-check).
        slot.state.store(RESERVED, Ordering::Release);
        self.active_count.fetch_sub(1, Ordering::Relaxed);
        if slot.drain_discard() {
            return false; // straggler observed: caller burns
        }
        if self.parked_count.load(Ordering::Relaxed) >= cap {
            return false;
        }
        slot.state.store(PARKED, Ordering::Release);
        self.parked_count.fetch_add(1, Ordering::Relaxed);
        self.parked.push(&self.slots, token.idx);
        true
    }

    /// Tears down a binding completely: unresolvable, generation
    /// bumped (so in-flight deposits self-drain), mailbox drained,
    /// slot freed. The caller releases the port on the interface.
    ///
    /// Accepts a slot in ACTIVE (abandon/burn) or RESERVED (a failed
    /// park). The currently-active count is only decremented for the
    /// former.
    pub(crate) fn burn(&self, token: SlotToken) {
        let slot = &self.slots[token.idx];
        let was_active = slot.state.swap(RESERVED, Ordering::AcqRel) == ACTIVE;
        if was_active {
            self.active_count.fetch_sub(1, Ordering::Relaxed);
        }
        // Invalidate before draining: a depositor that already
        // resolved re-checks the generation after its send and drains
        // its own packet if it lost this race.
        slot.gen.fetch_add(1, Ordering::Release);
        let wire = slot.wire.swap(0, Ordering::Relaxed);
        if wire != 0 {
            self.index_remove(wire);
        }
        slot.get.store(0, Ordering::Relaxed);
        slot.drain_discard();
        slot.state.store(EMPTY, Ordering::Release);
        self.free.push(&self.slots, token.idx);
    }

    /// A clone of the pooled mailbox receiver for an owned binding.
    pub(crate) fn receiver(&self, token: SlotToken) -> Receiver<Packet> {
        self.slots[token.idx].mailbox(&self.net).1.clone()
    }

    /// Deposits a foreign reply with the transaction that owns its
    /// wire port. Returns `false` if nobody owns it (stale noise; the
    /// caller discards). Lock-free on the slot path; the overflow map
    /// is consulted — under its counted lock — only while overflow
    /// registrations exist.
    pub(crate) fn deposit(&self, pkt: Packet) -> bool {
        let wire = pkt.header.dest.value();
        if let Some((idx, gen8)) = self.index_resolve(wire) {
            let slot = &self.slots[idx];
            let live = |s: &Slot| {
                s.state.load(Ordering::Acquire) == ACTIVE
                    && (s.gen.load(Ordering::Acquire) & 0xFF) as u8 == gen8
                    && s.wire.load(Ordering::Relaxed) == wire
            };
            if !live(slot) {
                return false;
            }
            let (tx, _) = slot.mailbox(&self.net);
            if tx.send(pkt).is_err() {
                // Unreachable: the OnceLock keeps a receiver alive.
                return false;
            }
            // Post-send validation: if the owner tore the binding down
            // while we were depositing, it may have drained before our
            // packet landed — drain ourselves so the slot's next
            // binding starts with an empty mailbox.
            if !live(slot) {
                slot.drain_discard();
            }
            return true;
        }
        if self.overflow_count.load(Ordering::Acquire) > 0 {
            if let Some(tx) = self.overflow.lock().get(&wire) {
                let _ = tx.send(pkt);
                return true;
            }
        }
        false
    }

    /// Registers an overflow binding (no slot available). Returns the
    /// mailbox the owner drains.
    pub(crate) fn register_overflow(&self, wire: Port) -> Receiver<Packet> {
        let (tx, rx) = self.net.channel();
        self.overflow_count.fetch_add(1, Ordering::AcqRel);
        self.overflow.lock().insert(wire.value(), tx);
        rx
    }

    /// Removes an overflow binding.
    pub(crate) fn remove_overflow(&self, wire: Port) {
        self.overflow.lock().remove(&wire.value());
        self.overflow_count.fetch_sub(1, Ordering::AcqRel);
    }

    fn index_insert(&self, wire: u64, packed: u64) -> bool {
        let start = (wire as usize) & (INDEX_SLOTS - 1);
        for i in 0..PROBE_WINDOW {
            let entry = &self.index[(start + i) & (INDEX_SLOTS - 1)];
            if entry
                .compare_exchange(0, packed, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                return true;
            }
        }
        false
    }

    fn index_resolve(&self, wire: u64) -> Option<(usize, u8)> {
        let start = (wire as usize) & (INDEX_SLOTS - 1);
        for i in 0..PROBE_WINDOW {
            let packed = self.index[(start + i) & (INDEX_SLOTS - 1)].load(Ordering::Acquire);
            if packed >> 16 == wire {
                return Some(((packed & 0xFF) as usize, ((packed >> 8) & 0xFF) as u8));
            }
        }
        None
    }

    fn index_remove(&self, wire: u64) {
        let start = (wire as usize) & (INDEX_SLOTS - 1);
        for i in 0..PROBE_WINDOW {
            let entry = &self.index[(start + i) & (INDEX_SLOTS - 1)];
            let packed = entry.load(Ordering::Acquire);
            if packed >> 16 == wire {
                // Only the owner removes its own entry; a plain store
                // suffices (no concurrent writer targets this entry).
                entry.store(0, Ordering::Release);
                return;
            }
        }
    }
}

/// The §2.1 kernel route cache, lock-free: put-port → the machine that
/// last answered it. "To avoid having to broadcast the LOCATE message
/// for every transaction, each kernel maintains a cache of
/// (port, machine) pairs." A fixed open-addressed array of atomic
/// `(key, value)` pairs; the two words of an entry are not read or
/// written atomically *together*, which is sound because the cache is
/// a **hint, never load-bearing**: a torn entry at worst targets the
/// wrong single machine, and that attempt times out, evicts the entry
/// and retransmits associatively. Insertion clobbers the probe-start
/// entry when the window is full (the memo-table idiom: correctness
/// unaffected, the displaced port just goes associative once).
pub(crate) struct RouteCache {
    /// Port values; 0 = never used.
    keys: Vec<AtomicU64>,
    /// Machine id + 1; 0 = no route (empty or evicted).
    vals: Vec<AtomicU64>,
}

impl std::fmt::Debug for RouteCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RouteCache")
            .field("len", &self.len())
            .finish()
    }
}

/// Route-cache capacity. Clients talk to a bounded service fleet in
/// practice, so the cap is generous.
pub(crate) const MAX_CACHED_ROUTES: usize = 1024;

/// Route-cache probe window.
const ROUTE_PROBE: usize = 8;

impl RouteCache {
    pub(crate) fn new() -> RouteCache {
        RouteCache {
            keys: (0..MAX_CACHED_ROUTES).map(|_| AtomicU64::new(0)).collect(),
            vals: (0..MAX_CACHED_ROUTES).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    fn probe(&self, key: u64) -> impl Iterator<Item = usize> + '_ {
        let start = (key as usize) & (MAX_CACHED_ROUTES - 1);
        (0..ROUTE_PROBE).map(move |i| (start + i) & (MAX_CACHED_ROUTES - 1))
    }

    /// The cached machine (as `id + 1`) for `key`, if any.
    pub(crate) fn lookup(&self, key: u64) -> Option<u64> {
        for i in self.probe(key) {
            if self.keys[i].load(Ordering::Acquire) == key {
                let val = self.vals[i].load(Ordering::Acquire);
                return (val != 0).then_some(val);
            }
        }
        None
    }

    /// Records `key → val` (val must be machine id + 1, nonzero).
    pub(crate) fn insert(&self, key: u64, val: u64) {
        debug_assert_ne!(val, 0);
        let mut fallback = None;
        for i in self.probe(key) {
            let k = self.keys[i].load(Ordering::Acquire);
            if k == key {
                self.vals[i].store(val, Ordering::Release);
                return;
            }
            if k == 0
                && self.keys[i]
                    .compare_exchange(0, key, Ordering::AcqRel, Ordering::Acquire)
                    .is_ok()
            {
                self.vals[i].store(val, Ordering::Release);
                return;
            }
            fallback.get_or_insert(i);
        }
        // Window full of other ports: clobber the probe-start entry.
        if let Some(i) = fallback {
            self.vals[i].store(0, Ordering::Release);
            self.keys[i].store(key, Ordering::Release);
            self.vals[i].store(val, Ordering::Release);
        }
    }

    /// Evicts `key`'s route, but only if it still names `stale` — a
    /// peer may have learned a newer answer meanwhile.
    pub(crate) fn evict_if(&self, key: u64, stale: u64) {
        for i in self.probe(key) {
            if self.keys[i].load(Ordering::Acquire) == key {
                let _ =
                    self.vals[i].compare_exchange(stale, 0, Ordering::AcqRel, Ordering::Acquire);
                return;
            }
        }
    }

    /// Occupied (valued) entries — O(capacity), for tests and
    /// diagnostics only.
    pub(crate) fn len(&self) -> usize {
        self.vals
            .iter()
            .filter(|v| v.load(Ordering::Relaxed) != 0)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amoeba_net::{Header, LockMeter};
    use bytes::Bytes;
    use proptest::prelude::*;

    /// Recovers `(slot, gen, salt)` from a port minted by
    /// [`encode_reply_port`].
    fn decode_reply_port(port: Port) -> (u8, u8, u32) {
        let v = port.value();
        ((v & 0xFF) as u8, ((v >> 8) & 0xFF) as u8, (v >> 16) as u32)
    }

    fn pkt_to(wire: Port) -> Packet {
        // Build a packet through a real network so its bookkeeping
        // (source, deliver_at) is well-formed.
        let net = amoeba_net::Network::new();
        let a = net.attach_open();
        let b = net.attach_open();
        b.claim(wire);
        a.send(Header::to(wire), Bytes::from_static(b"x"));
        b.recv().expect("delivery")
    }

    #[test]
    fn fresh_bind_resolve_and_burn() {
        let table = DemuxTable::new(&amoeba_net::Network::new(), LockMeter::new());
        let (idx, gen8) = table.reserve_fresh().expect("slots available");
        let get = encode_reply_port(idx as u8, gen8, 0xABCD_1234);
        let wire = Port::new(0x9999).unwrap();
        let token = table.activate_fresh(idx, get, wire).expect("index room");
        assert_eq!(table.active(), 1);

        assert!(table.deposit(pkt_to(wire)), "owner must resolve");
        let rx = table.receiver(token);
        let got = rx.try_recv().expect("deposited packet");
        assert_eq!(got.header.dest, wire);

        table.burn(token);
        assert_eq!(table.active(), 0);
        assert!(
            !table.deposit(pkt_to(wire)),
            "burned binding must be unresolvable"
        );
    }

    #[test]
    fn stale_generation_deposits_are_rejected() {
        let table = DemuxTable::new(&amoeba_net::Network::new(), LockMeter::new());
        let (idx, gen8) = table.reserve_fresh().unwrap();
        let get = encode_reply_port(idx as u8, gen8, 7);
        let wire = Port::new(0xABC0).unwrap();
        let token = table.activate_fresh(idx, get, wire).unwrap();
        table.burn(token);

        // Rebind the same slot (new generation) at a different wire.
        let (idx2, gen8_2) = table.reserve_fresh().unwrap();
        assert_eq!(idx2, idx, "freelist must hand the slot back");
        assert_ne!(gen8_2, gen8, "burn must bump the generation");
        let get2 = encode_reply_port(idx2 as u8, gen8_2, 8);
        let wire2 = Port::new(0xABC1).unwrap();
        let token2 = table.activate_fresh(idx2, get2, wire2).unwrap();

        // A straggler addressed to the OLD wire finds nothing.
        assert!(!table.deposit(pkt_to(wire)));
        // The live binding still resolves.
        assert!(table.deposit(pkt_to(wire2)));
        assert!(table.receiver(token2).try_recv().is_ok());
        table.burn(token2);
    }

    #[test]
    fn parked_bindings_recycle_in_constant_steps() {
        // The satellite regression: claiming a recycled port must stay
        // O(1) however many bindings are parked (the PR 5 code scanned
        // a Vec under a lock).
        let table = DemuxTable::new(&amoeba_net::Network::new(), LockMeter::new());
        let park = |n: usize| {
            for k in 0..n {
                let (idx, gen8) = table.reserve_fresh().unwrap();
                let get = encode_reply_port(idx as u8, gen8, k as u32 + 1);
                let wire = Port::new(0x4_0000 + k as u64).unwrap();
                let token = table.activate_fresh(idx, get, wire).unwrap();
                assert!(table.try_park(token, 64));
            }
        };
        park(4);
        let before = table.recycle_pop_steps.load(Ordering::Relaxed);
        assert!(table.claim_parked().is_some());
        let small = table.recycle_pop_steps.load(Ordering::Relaxed) - before;

        park(60);
        assert_eq!(table.parked(), 63);
        let before = table.recycle_pop_steps.load(Ordering::Relaxed);
        assert!(table.claim_parked().is_some());
        let large = table.recycle_pop_steps.load(Ordering::Relaxed) - before;
        assert_eq!(
            small, large,
            "recycling cost must not grow with the parked set"
        );
        assert_eq!(small, 1, "an uncontended pop is one step");
    }

    #[test]
    fn park_cap_refuses_and_caller_burns() {
        let table = DemuxTable::new(&amoeba_net::Network::new(), LockMeter::new());
        let mut tokens = Vec::new();
        for k in 0..3u64 {
            let (idx, gen8) = table.reserve_fresh().unwrap();
            let get = encode_reply_port(idx as u8, gen8, 99);
            let wire = Port::new(0x5_0000 + k).unwrap();
            tokens.push(table.activate_fresh(idx, get, wire).unwrap());
        }
        assert!(table.try_park(tokens[0], 2));
        assert!(table.try_park(tokens[1], 2));
        assert!(!table.try_park(tokens[2], 2), "cap must refuse");
        table.burn(tokens[2]);
        assert_eq!(table.parked(), 2);
    }

    #[test]
    fn overflow_path_still_routes() {
        let table = DemuxTable::new(&amoeba_net::Network::new(), LockMeter::new());
        let wire = Port::new(0xFACE).unwrap();
        let rx = table.register_overflow(wire);
        assert!(table.deposit(pkt_to(wire)));
        assert!(rx.try_recv().is_ok());
        table.remove_overflow(wire);
        assert!(!table.deposit(pkt_to(wire)));
    }

    #[test]
    fn route_cache_bounds_and_eviction() {
        let cache = RouteCache::new();
        for k in 1..=(MAX_CACHED_ROUTES as u64 + 64) {
            cache.insert(k, 7);
        }
        assert!(cache.len() <= MAX_CACHED_ROUTES);
        cache.insert(42, 9);
        assert_eq!(cache.lookup(42), Some(9));
        cache.evict_if(42, 3); // wrong stale value: keep
        assert_eq!(cache.lookup(42), Some(9));
        cache.evict_if(42, 9); // right stale value: evict
        assert_eq!(cache.lookup(42), None);
    }

    proptest! {
        /// Slot and generation round-trip through the port encoding
        /// for ALL values — the engraving the freelists index by.
        #[test]
        fn port_code_roundtrips_slot_and_gen(slot: u8, gen: u8, salt: u32) {
            let port = encode_reply_port(slot, gen, salt);
            let (s, g, sa) = decode_reply_port(port);
            prop_assert_eq!(s, slot);
            prop_assert_eq!(g, gen);
            // Salt round-trips except for the two reserved-value
            // remaps.
            if salt != 0 && salt != u32::MAX {
                prop_assert_eq!(sa, salt);
            }
            prop_assert!(!port.is_broadcast() && !port.is_null());
        }

        /// Forged wire ports — any value not currently bound — never
        /// resolve, and a burned binding's port (stale generation)
        /// never resolves again even though the slot was rebound.
        #[test]
        fn forged_and_stale_ports_never_resolve(forged in 1u64..0xFFFF_FFFF_FFFFu64, salt: u32) {
            let table = DemuxTable::new(&amoeba_net::Network::new(), LockMeter::new());
            let (idx, gen8) = table.reserve_fresh().unwrap();
            let get = encode_reply_port(idx as u8, gen8, salt);
            let wire = Port::new(0xB0B0).unwrap();
            let token = table.activate_fresh(idx, get, wire).unwrap();

            if forged != wire.value() {
                let forged_port = Port::from_raw(forged);
                prop_assert!(
                    !table.deposit(pkt_to(forged_port)),
                    "forged port must not resolve"
                );
            }

            // Burn, rebind the same slot elsewhere: the old wire is a
            // stale-generation port now and must stay dead.
            table.burn(token);
            let (idx2, gen8_2) = table.reserve_fresh().unwrap();
            let get2 = encode_reply_port(idx2 as u8, gen8_2, salt ^ 1);
            let wire2 = Port::new(0xB0B1).unwrap();
            let token2 = table.activate_fresh(idx2, get2, wire2).unwrap();
            prop_assert!(!table.deposit(pkt_to(wire)));
            table.burn(token2);
        }
    }
}
