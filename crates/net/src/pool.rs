//! Reusable frame-buffer pools for the allocation-free, lock-free
//! send path.
//!
//! Every wire frame this workspace transmits is built in a `BytesMut`
//! and frozen into the packet's [`Bytes`] payload. Before this pool
//! existed, each frame paid a fresh heap allocation; with it, the
//! steady-state send path allocates **nothing**: the encoder takes a
//! recycled buffer from its endpoint's [`BufPool`], the sender retires
//! the frozen frame back into the pool after transmission, and the
//! pool resurrects the backing storage once every receiver has dropped
//! its zero-copy slices of the payload.
//!
//! # Lifecycle
//!
//! ```text
//! take() ──► BytesMut ──encode──► freeze() ──send──► retire()
//!    ▲                                                  │
//!    │            (receivers still hold slices)         ▼
//!  free list ◄──try_reclaim() once unique──── retired queue
//! ```
//!
//! A retired frame whose payload is still referenced (a packet in
//! flight, a decoded body held by a handler) parks in a bounded queue;
//! a `take` that finds no free buffer big enough sweeps that queue for
//! buffers that have become uniquely owned. All queues are bounded, so
//! a pool can never hoard more than a fixed amount of memory, and
//! oversized buffers are dropped rather than retained.
//!
//! # Thread-local fast path
//!
//! The steady-state take/retire cycle runs entirely on a per-thread
//! cache: **one** small free list and retired queue per thread, shared
//! by every pool that thread touches. Storage is fungible — a worker
//! that serves one port and calls through an embedded client (file
//! server → bank, file server → block server) alternates between two
//! pools on every request, and keeps its warm buffers across the
//! switch; so does a [`take_local`](BufPool::take_local) that has no
//! pool at hand (a parameter blob). Pool identity only selects the
//! counters and the spill queues. A client thread recycles its request
//! frames and a server worker its reply frames with **zero lock
//! acquisitions**. The shared, mutex-guarded queues remain as spill
//! targets (cache overflow, cross-thread imbalance) and their locks
//! are counted [`HotMutex`]es — the hot-path gate measures that steady
//! state never touches them.
//!
//! A take that knows how long its frame will be
//! ([`take_sized`](BufPool::take_sized)) gets the **smallest** cached
//! buffer that holds it: a 32 KiB data frame never lands in a 256-byte
//! buffer and grows, and a 30-byte reply never walks off with the one
//! large buffer the next data frame needs.
//!
//! Two retire disciplines keep buffers circulating back to the thread
//! that will take them next:
//!
//! * [`retire`](BufPool::retire) — for frames **this thread took**
//!   (a client's request frame, a server's reply frame). Still-shared
//!   frames park in this thread's cache; the storage comes home once
//!   receivers drop their slices.
//! * [`release`](BufPool::release) — for **foreign** handles (a server
//!   releasing slices of a client-built request, a handler's reply
//!   body that may alias the request). Reclaims if already unique,
//!   otherwise just drops the handle so the frame's owner — not this
//!   thread — parks the storage. Parking foreign storage here would
//!   strand client buffers in server caches (and risk two threads
//!   parking siblings of one allocation, pinning it forever).
//!
//! # Measurement
//!
//! The pool counts `takes`, `fresh_allocs` (takes that had to
//! allocate) and `reuses` (takes served from recycled storage) per
//! instance, plus every acquisition of its spill locks via a
//! [`LockMeter`] shared with the rest of the fleet's hot mutexes —
//! race-free accounting for benchmarks and acceptance gates even when
//! unrelated tests run concurrently in the same process. The metric is
//! **backing storage**: each take→freeze→retire cycle still creates
//! and frees one small `Arc` control block for shared ownership of the
//! payload — bounded, size-independent, and deliberately outside the
//! counter (see `bytes::stats`).

use crate::sync::{HotMutex, LockMeter};

use bytes::{Bytes, BytesMut};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Least capacity of a freshly allocated pool buffer — enough for a
/// typical request/reply frame (tag + 16-byte capability header + small
/// params) without a growth reallocation.
const FRESH_CAPACITY: usize = 256;

/// Upper bound on reclaimed buffers kept ready in the shared free list.
const MAX_FREE: usize = 64;

/// Upper bound on retired-but-still-shared frames awaiting reclamation
/// in the shared queue. Beyond this the oldest entry is dropped (its
/// storage simply returns to the allocator when the last reference
/// dies).
const MAX_RETIRED: usize = 128;

/// Buffers that grew beyond this are dropped instead of pooled, so one
/// giant frame cannot pin megabytes in every pool forever.
const MAX_RETAINED_CAPACITY: usize = 64 * 1024;

/// Per-thread free-list bound. A thread's steady-state working set is
/// a handful of in-flight frames; overflow is dropped — owner-parking
/// already routes every taken buffer back to its taking thread, so a
/// full list means this thread holds a genuine surplus.
const TL_MAX_FREE: usize = 8;

/// Per-thread retired-queue bound. Overflow triggers a lock-free local
/// sweep; only frames still shared after a whole cap cycle spill to
/// the shared queue.
const TL_MAX_RETIRED: usize = 16;

/// One thread's buffers, whichever pool they were taken through.
struct TlCache {
    free: Vec<Vec<u8>>,
    retired: Vec<Bytes>,
    /// Takes made on this thread, cached, shared or fresh.
    taken: u64,
}

thread_local! {
    static TL_CACHE: RefCell<TlCache> = const {
        RefCell::new(TlCache {
            free: Vec::new(),
            retired: Vec::new(),
            taken: 0,
        })
    };
}

fn with_cache<R>(f: impl FnOnce(&mut TlCache) -> R) -> R {
    TL_CACHE.with(|cell| f(&mut cell.borrow_mut()))
}

impl TlCache {
    /// The smallest free buffer that holds `len` bytes; the retired
    /// frames are swept for ones whose receivers have finished only
    /// when no free buffer fits.
    fn take(&mut self, len: usize) -> Option<Vec<u8>> {
        self.taken += 1;
        self.best_fit(len).or_else(|| {
            self.sweep();
            self.best_fit(len)
        })
    }

    fn best_fit(&mut self, len: usize) -> Option<Vec<u8>> {
        let (at, _) = self
            .free
            .iter()
            .enumerate()
            .filter(|(_, storage)| storage.capacity() >= len)
            .min_by_key(|(_, storage)| storage.capacity())?;
        Some(self.free.swap_remove(at))
    }

    /// Reclaims every parked frame whose other holders have dropped.
    /// Entirely thread-local: no lock.
    fn sweep(&mut self) {
        for frame in std::mem::take(&mut self.retired) {
            match frame.try_reclaim() {
                Ok(storage) => self.stash(storage),
                Err(still_shared) => self.retired.push(still_shared),
            }
        }
    }

    /// Keeps reclaimed storage, or drops it when it is oversized (let
    /// the allocator have it back) or the list is full. A full list
    /// means this thread already holds more storage than it consumes,
    /// and spilling the surplus to a shared list would put a lock
    /// acquisition on the steady-state path for storage nobody reads
    /// back (cross-thread circulation rides the shared *retired* queue
    /// instead — see [`BufPool::retire`]).
    fn stash(&mut self, storage: Vec<u8>) {
        if storage.capacity() <= MAX_RETAINED_CAPACITY && self.free.len() < TL_MAX_FREE {
            self.free.push(storage);
        }
    }
}

/// A fresh buffer for a `len`-byte frame.
fn fresh(len: usize) -> BytesMut {
    BytesMut::with_capacity(len.max(FRESH_CAPACITY))
}

#[derive(Debug)]
struct PoolInner {
    /// Reclaimed storage, ready to hand out (shared spill).
    free: HotMutex<Vec<Vec<u8>>>,
    /// Sent frames whose payload may still be referenced (shared spill).
    retired: HotMutex<VecDeque<Bytes>>,
    /// Entries in the two spill queues together. A take whose
    /// thread-local cache ran dry reads it first: with nothing spilled
    /// there is nothing to lock for, and a thread that just needs one
    /// more buffer than it has owned so far pays only the allocation.
    spilled: AtomicU64,
    takes: AtomicU64,
    fresh: AtomicU64,
    reused: AtomicU64,
    meter: LockMeter,
}

/// A bounded pool of reusable frame buffers (see the module docs).
///
/// Cheap to clone — clones share the same pool, so one pool can serve
/// an endpoint's encoder and the completion handles that retire frames
/// back into it.
#[derive(Debug, Clone)]
pub struct BufPool {
    inner: Arc<PoolInner>,
}

impl Default for BufPool {
    fn default() -> Self {
        Self::new()
    }
}

impl BufPool {
    /// An empty pool with its own counters and lock meter.
    pub fn new() -> BufPool {
        let meter = LockMeter::new();
        BufPool {
            inner: Arc::new(PoolInner {
                free: HotMutex::with_meter(Vec::new(), meter.clone()),
                retired: HotMutex::with_meter(VecDeque::new(), meter.clone()),
                spilled: AtomicU64::new(0),
                takes: AtomicU64::new(0),
                fresh: AtomicU64::new(0),
                reused: AtomicU64::new(0),
                meter,
            }),
        }
    }

    /// The lock meter every hot mutex of this pool's fleet shares.
    ///
    /// The pool feeds its own spill-queue locks into it; RPC components
    /// built around the same pool (demux overflow, batch accumulators)
    /// attach theirs too, so diffing
    /// [`lock_acquisitions`](BufPool::lock_acquisitions) around a
    /// workload counts the whole fleet's hot-path lock traffic without
    /// interference from concurrent tests.
    pub fn lock_meter(&self) -> LockMeter {
        self.inner.meter.clone()
    }

    /// Hot-mutex acquisitions recorded by this fleet's meter so far.
    pub fn lock_acquisitions(&self) -> u64 {
        self.inner.meter.count()
    }

    /// Hands out an empty buffer for a frame of unknown length: the
    /// smallest one cached. See [`take_sized`](Self::take_sized).
    pub fn take(&self) -> BytesMut {
        self.take_sized(0)
    }

    /// Hands out an empty buffer for a frame of `len` bytes: the
    /// smallest recycled buffer that holds it when there is one, a
    /// fresh allocation of that capacity otherwise. The steady-state
    /// take is served from the thread-local cache without any lock;
    /// the shared spill queues are consulted (and swept) only when the
    /// cache has nothing that fits.
    pub fn take_sized(&self, len: usize) -> BytesMut {
        self.inner.takes.fetch_add(1, Ordering::Relaxed);
        if let Some(storage) = with_cache(|cache| cache.take(len)) {
            self.inner.reused.fetch_add(1, Ordering::Relaxed);
            return BytesMut::from_recycled(storage);
        }
        if self.inner.spilled.load(Ordering::Acquire) > 0 {
            if let Some(storage) = self.pop_shared_free() {
                return BytesMut::from_recycled(storage);
            }
            self.sweep_shared_retired();
            if let Some(storage) = self.pop_shared_free() {
                return BytesMut::from_recycled(storage);
            }
        }
        self.inner.fresh.fetch_add(1, Ordering::Relaxed);
        fresh(len)
    }

    /// [`take_sized`](Self::take_sized) for a caller with no pool at
    /// hand (a parameter or reply blob built outside any endpoint):
    /// the calling thread's cache or a fresh allocation, no counters.
    /// [`release`](Self::release) through any pool brings the storage
    /// back.
    pub fn take_local(len: usize) -> BytesMut {
        match with_cache(|cache| cache.take(len)) {
            Some(storage) => BytesMut::from_recycled(storage),
            None => fresh(len),
        }
    }

    /// Returns a frame **this thread took** to the pool. If the
    /// payload is still shared — receivers hold zero-copy slices — it
    /// parks in this thread's retired cache until it becomes uniquely
    /// owned; reclamation happens lazily on later
    /// [`take`](BufPool::take)s. Use [`release`](BufPool::release) for
    /// handles of frames another thread owns.
    pub fn retire(&self, frame: Bytes) {
        // Static-backed buffers can never be reclaimed; parking them
        // would waste retired-queue slots on permanent misses.
        if frame.is_empty() || frame.is_static() {
            return;
        }
        with_cache(|cache| match frame.try_reclaim() {
            Ok(storage) => cache.stash(storage),
            Err(still_shared) => {
                // Park at most one handle per allocation: parked
                // siblings would hold each other's refcount above one
                // forever, making every one of them unreclaimable.
                // Dropping the duplicate instead walks the refcount
                // down toward the parked handle becoming unique.
                if cache
                    .retired
                    .iter()
                    .any(|f| f.shares_storage(&still_shared))
                {
                    return;
                }
                cache.retired.push(still_shared);
                if cache.retired.len() > TL_MAX_RETIRED {
                    // Sweep locally first: take() only sweeps when no
                    // free buffer fits, so on a thread whose free
                    // cache never empties reclaimable parked frames
                    // would pile up here and every park would spill
                    // through the shared lock. A local sweep is
                    // lock-free and keeps the queue at the genuine
                    // in-flight count.
                    cache.sweep();
                }
                if cache.retired.len() > TL_MAX_RETIRED {
                    // Still over cap after the sweep: the eldest parked
                    // frame has been shared for a whole cap cycle —
                    // hand it to the shared queue so any thread's sweep
                    // can reclaim it eventually.
                    let spilled = cache.retired.remove(0);
                    let mut retired = self.inner.retired.lock();
                    if !retired.iter().any(|f| f.shares_storage(&spilled)) {
                        retired.push_back(spilled);
                        if retired.len() > MAX_RETIRED {
                            retired.pop_front();
                        } else {
                            self.inner.spilled.fetch_add(1, Ordering::AcqRel);
                        }
                    }
                }
            }
        });
    }

    fn pop_shared_free(&self) -> Option<Vec<u8>> {
        let storage = self.inner.free.lock().pop()?;
        self.inner.spilled.fetch_sub(1, Ordering::AcqRel);
        self.inner.reused.fetch_add(1, Ordering::Relaxed);
        Some(storage)
    }

    /// Lets go of a **foreign** handle — a zero-copy slice of a frame
    /// some other thread built and will retire (a server worker done
    /// with a request body, a client done with a reply body it fed
    /// back as params). Reclaims the storage if this was the last
    /// handle; otherwise simply drops it, leaving parking to the
    /// frame's owner so buffers flow back to the thread that takes
    /// them. Safe (just suboptimal) to call on frames this thread
    /// owns.
    pub fn release(&self, handle: Bytes) {
        if handle.is_empty() || handle.is_static() {
            return;
        }
        if let Ok(storage) = handle.try_reclaim() {
            with_cache(|cache| cache.stash(storage));
        }
    }

    /// Moves every shared-queue retired frame that has become uniquely
    /// owned into the shared free list.
    fn sweep_shared_retired(&self) {
        // One pass over a snapshot of the queue under a single lock
        // hold; stashing (which takes the free-list lock) happens after
        // release. Frames retired concurrently wait for the next sweep.
        let mut reclaimed = Vec::new();
        {
            let mut retired = self.inner.retired.lock();
            for _ in 0..retired.len() {
                let Some(frame) = retired.pop_front() else {
                    break;
                };
                match frame.try_reclaim() {
                    Ok(storage) => reclaimed.push(storage),
                    Err(still_shared) => retired.push_back(still_shared),
                }
            }
        }
        self.inner
            .spilled
            .fetch_sub(reclaimed.len() as u64, Ordering::AcqRel);
        for storage in reclaimed {
            self.stash_shared(storage);
        }
    }

    fn stash_shared(&self, storage: Vec<u8>) {
        if storage.capacity() > MAX_RETAINED_CAPACITY {
            return;
        }
        let mut free = self.inner.free.lock();
        if free.len() < MAX_FREE {
            free.push(storage);
            self.inner.spilled.fetch_add(1, Ordering::AcqRel);
        }
    }

    /// Sweeps the calling thread's retired frames and returns how many
    /// are still shared. A test diagnostic: with every receiver done it
    /// reads zero unless a frame's other holder is parked on *another*
    /// thread, which no sweep can ever reclaim.
    pub fn parked_on_this_thread(&self) -> usize {
        with_cache(|cache| {
            cache.sweep();
            cache.retired.len()
        })
    }

    /// Buffers the calling thread has taken so far, through any pool or
    /// none ([`take_local`](Self::take_local)): what a per-pool count
    /// cannot see, a parameter blob built before the frame that copies
    /// it. A test diagnostic — a frame built in place takes one.
    pub fn taken_on_this_thread() -> u64 {
        with_cache(|cache| cache.taken)
    }

    /// Takes served so far (fresh + reused).
    pub fn takes(&self) -> u64 {
        self.inner.takes.load(Ordering::Relaxed)
    }

    /// Takes that had to allocate fresh storage — the hot-path
    /// allocation count benchmarks gate on.
    pub fn fresh_allocs(&self) -> u64 {
        self.inner.fresh.load(Ordering::Relaxed)
    }

    /// Takes served from recycled storage.
    pub fn reuses(&self) -> u64 {
        self.inner.reused.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retired_unique_frames_are_reused() {
        let pool = BufPool::new();
        let mut buf = pool.take();
        buf.extend_from_slice(b"frame one");
        let frame = buf.freeze();
        pool.retire(frame); // sole owner: reclaimable immediately

        let buf = pool.take();
        assert_eq!(pool.takes(), 2);
        assert_eq!(pool.fresh_allocs(), 1, "second take must reuse");
        assert_eq!(pool.reuses(), 1);
        assert!(buf.is_empty(), "recycled buffers come back empty");
    }

    #[test]
    fn duplicate_retired_siblings_do_not_wedge_reclamation() {
        // Retiring several handles of ONE allocation (a batch that
        // shipped N clones of the same body) must not park them all:
        // parked siblings would keep each other's refcount above one
        // forever, so none could ever be reclaimed.
        let pool = BufPool::new();
        let mut buf = pool.take();
        buf.extend_from_slice(b"shared body");
        let frame = buf.freeze();
        let dup1 = frame.clone();
        let dup2 = frame.clone();
        pool.retire(frame); // still shared: parks
        pool.retire(dup1); // sibling already parked: dropped instead
        pool.retire(dup2); // ditto — parked handle is now the sole owner
        let _b = pool.take();
        assert_eq!(pool.reuses(), 1, "parked sibling must reclaim, not wedge");
    }

    #[test]
    fn shared_frames_park_until_receivers_drop() {
        let pool = BufPool::new();
        let mut buf = pool.take();
        buf.extend_from_slice(b"payload");
        let frame = buf.freeze();
        let receiver_slice = frame.slice(1..4); // a decoded body
        pool.retire(frame);

        // Still shared: the next take cannot reclaim it.
        let _other = pool.take();
        assert_eq!(pool.fresh_allocs(), 2);

        drop(receiver_slice);
        let _third = pool.take();
        assert_eq!(pool.fresh_allocs(), 2, "freed slice unlocks reuse");
        assert_eq!(pool.reuses(), 1);
    }

    #[test]
    fn release_reclaims_unique_and_drops_shared() {
        let pool = BufPool::new();
        // Unique handle: release reclaims it like retire would.
        let mut buf = pool.take();
        buf.extend_from_slice(b"body");
        pool.release(buf.freeze());
        let _again = pool.take();
        assert_eq!(pool.reuses(), 1);

        // Shared handle: release drops it WITHOUT parking, so the
        // owner's later retire is the one that parks — the storage is
        // reclaimed on the owner's side, never stranded here.
        let mut buf = pool.take(); // fresh (the reclaimed one is out)
        buf.extend_from_slice(b"frame");
        let frame = buf.freeze();
        let foreign_slice = frame.slice(1..3);
        pool.release(foreign_slice); // a worker finishing with a body
        pool.retire(frame); // the owner retires: now unique, reclaims
        let _b = pool.take();
        assert_eq!(pool.reuses(), 2, "owner-retired storage must reclaim");
    }

    #[test]
    fn clones_share_one_pool() {
        let pool = BufPool::new();
        let retirer = pool.clone();
        let mut buf = pool.take();
        buf.extend_from_slice(b"x");
        retirer.retire(buf.freeze());
        let _again = pool.take();
        assert_eq!(pool.reuses(), 1);
        assert_eq!(retirer.reuses(), 1, "counters are shared");
    }

    #[test]
    fn steady_state_cycle_takes_no_locks() {
        // The invariant `tests/alloc_free.rs` gates on: once warm, the
        // take→retire cycle runs on the thread-local cache alone.
        let pool = BufPool::new();
        for _ in 0..4 {
            let mut buf = pool.take();
            buf.extend_from_slice(b"warm");
            pool.retire(buf.freeze());
        }
        let locks_before = pool.lock_acquisitions();
        for _ in 0..32 {
            let mut buf = pool.take();
            buf.extend_from_slice(b"steady");
            pool.retire(buf.freeze());
        }
        assert_eq!(
            pool.lock_acquisitions() - locks_before,
            0,
            "steady-state take/retire must not touch the spill locks"
        );
        assert_eq!(pool.fresh_allocs(), 1, "and must not allocate either");
    }

    #[test]
    fn one_thread_keeps_its_cache_across_pools() {
        // A worker that serves one port and calls through an embedded
        // client alternates between two pools on every request. The
        // cache is the thread's, not the pool's: after the first round
        // neither pool allocates again. (Per-pool counters: exact even
        // with other tests allocating in this process.)
        let (serving, calling) = (BufPool::new(), BufPool::new());
        let round = || {
            for pool in [&serving, &calling] {
                let mut buf = pool.take();
                buf.extend_from_slice(b"frame");
                pool.retire(buf.freeze());
            }
        };
        round();
        let fresh_after_first_round = serving.fresh_allocs() + calling.fresh_allocs();
        for _ in 0..32 {
            round();
        }
        assert_eq!(
            serving.fresh_allocs() + calling.fresh_allocs(),
            fresh_after_first_round,
            "switching pools must not discard the thread's cache"
        );
        assert_eq!(serving.reuses() + calling.reuses(), 65);
        // A pool-less take draws on the same cache.
        let allocs = bytes::stats::buffer_reuses();
        let local = BufPool::take_local(0);
        assert!(local.capacity() > 0 && local.is_empty());
        assert!(bytes::stats::buffer_reuses() > allocs);
    }

    #[test]
    fn sized_take_picks_the_smallest_buffer_that_fits() {
        let pool = BufPool::new();
        let big = pool.take_sized(32 * 1024);
        let small = pool.take_sized(16);
        assert!(big.capacity() >= 32 * 1024);
        assert!(small.capacity() < 32 * 1024);
        let (big_cap, small_cap) = (big.capacity(), small.capacity());
        let refill = |a: BytesMut, b: BytesMut| {
            for mut buf in [a, b] {
                buf.extend_from_slice(b"x");
                pool.retire(buf.freeze());
            }
        };
        refill(big, small);
        // Whatever order they came back in, a short frame leaves the
        // large buffer for the data frame that needs it …
        let short = pool.take_sized(30);
        assert_eq!(short.capacity(), small_cap);
        let data = pool.take_sized(32 * 1024);
        assert_eq!(data.capacity(), big_cap);
        assert_eq!(pool.fresh_allocs(), 2);
        refill(short, data);
        // … and a frame nothing cached can hold is allocated at its
        // own size rather than grown out of a small buffer.
        let huge = pool.take_sized(48 * 1024);
        assert!(huge.capacity() >= 48 * 1024);
        assert_eq!(pool.fresh_allocs(), 3);
    }

    #[test]
    fn cross_thread_retires_spill_to_the_shared_queues() {
        // A thread that parks more still-shared frames than its local
        // retired cache holds spills the overflow to the shared retired
        // queue; once the other holders drop, any thread's sweep can
        // reclaim the storage. (Uniquely-owned surplus is dropped, not
        // spilled — the free list is thread-local by design.)
        let pool = BufPool::new();
        let feeder = pool.clone();
        let clones = std::thread::spawn(move || {
            let mut clones = Vec::new();
            for _ in 0..(TL_MAX_RETIRED + 4) {
                let mut buf = feeder.take();
                buf.extend_from_slice(b"z");
                let frame = buf.freeze();
                clones.push(frame.clone()); // keeps the frame shared
                feeder.retire(frame); // parks, overflows, spills
            }
            clones
        })
        .join()
        .unwrap();
        assert!(
            !pool.inner.retired.lock().is_empty(),
            "retired-cache overflow must reach the shared queue"
        );
        drop(clones); // the spilled frames are now uniquely owned
        let takes_before_reuse = pool.reuses();
        let _buf = pool.take(); // this thread's cache is cold
        assert_eq!(
            pool.reuses(),
            takes_before_reuse + 1,
            "spilled storage must be takeable from another thread"
        );
    }

    #[test]
    fn bounded_queues_never_grow_past_their_caps() {
        let pool = BufPool::new();
        // Park far more shared frames than MAX_RETIRED allows.
        let mut keep_alive = Vec::new();
        for _ in 0..(MAX_RETIRED + TL_MAX_RETIRED + 50) {
            let mut buf = pool.take();
            buf.extend_from_slice(b"y");
            let frame = buf.freeze();
            keep_alive.push(frame.clone());
            pool.retire(frame);
        }
        assert!(pool.inner.retired.lock().len() <= MAX_RETIRED);
        drop(keep_alive);
        // Everything reclaimable now, but the free lists stay bounded.
        let _ = pool.take();
        pool.sweep_shared_retired();
        assert!(pool.inner.free.lock().len() <= MAX_FREE);
    }
}
