//! Metered mutual exclusion for the transaction hot path.
//!
//! PR 5 made the steady-state transaction allocation-free; the next
//! invariant is **lock-free**: zero blocking lock acquisitions per
//! steady-state transaction. Like every other hot-path invariant in
//! this workspace, it is measured, not asserted — [`HotMutex`] is a
//! drop-in mutex whose every `lock` bumps a process-wide counter
//! (readable via [`hot_lock_acquisitions`], surfaced through
//! `HotPathSnapshot`) and an optional per-fleet [`LockMeter`], so
//! benchmarks can diff locks around a workload and tests can assert on
//! a meter no concurrent test shares.
//!
//! # Scope of the metric
//!
//! The counter covers the workspace's own shared-state software locks:
//! the buffer pool's spill queues, the RPC demux overflow map and the
//! batch accumulator. Deliberately outside
//! the count, mirroring how `bytes::stats` excludes `Arc` control
//! blocks:
//!
//! * **Channel and condvar internals** (the vendored `crossbeam` shim,
//!   blocking receives) — these model kernel scheduling and wakeup,
//!   which the paper's transaction primitives also pay inside the
//!   kernel; the metric is *protocol-layer* lock traffic.
//! * **Network-simulator bookkeeping** (machine registry `RwLock`,
//!   taps) — stand-ins for wire hardware, not part of a real
//!   endpoint's per-message cost.
//! * **The F-box memo table** — the paper's F-box is a VLSI chip
//!   beside the interface; its lookup cost is hardware, and the memo
//!   is only consulted on claim/egress paths the memoized codec
//!   already avoids.
//!
//! "0 locks/op" therefore means: a steady-state transaction touches no
//! workspace mutex at all — demux, mailbox reuse, port recycling,
//! route lookup and buffer recycling all resolve on atomics or
//! thread-local state.

use parking_lot::{Mutex, MutexGuard};
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Process-wide count of [`HotMutex`] acquisitions since start.
static HOT_LOCK_ACQUISITIONS: AtomicU64 = AtomicU64::new(0);

/// Cumulative [`HotMutex`] lock acquisitions since process start.
///
/// Process-global and therefore only meaningful diffed around a
/// workload in a sequential process (`benchmark/`); concurrent
/// tests should assert on a [`LockMeter`] instead.
pub fn hot_lock_acquisitions() -> u64 {
    HOT_LOCK_ACQUISITIONS.load(Ordering::Relaxed)
}

/// A cloneable, shareable lock-acquisition counter.
///
/// Every [`HotMutex`] built with [`HotMutex::with_meter`] bumps its
/// meter on each acquisition in addition to the process-wide counter.
/// A fleet shares one meter (via its `BufPool`), giving tests
/// race-free per-fleet accounting even when unrelated tests lock their
/// own mutexes concurrently.
#[derive(Clone, Debug, Default)]
pub struct LockMeter {
    count: Arc<AtomicU64>,
}

impl LockMeter {
    /// A fresh meter starting at zero.
    pub fn new() -> LockMeter {
        LockMeter::default()
    }

    /// Acquisitions recorded by this meter so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    fn bump(&self) {
        self.count.fetch_add(1, Ordering::Relaxed);
    }
}

/// A mutex whose acquisitions are counted (see the module docs).
///
/// Semantics are exactly `parking_lot::Mutex`; the only addition is
/// that `lock` (and a successful `try_lock`) bumps the process-wide
/// counter and, when present, the per-instance [`LockMeter`].
pub struct HotMutex<T: ?Sized> {
    meter: Option<LockMeter>,
    inner: Mutex<T>,
}

/// RAII guard for [`HotMutex`].
pub struct HotMutexGuard<'a, T: ?Sized> {
    inner: MutexGuard<'a, T>,
}

impl<T> HotMutex<T> {
    /// A counted mutex feeding only the process-wide counter.
    pub fn new(value: T) -> HotMutex<T> {
        HotMutex {
            meter: None,
            inner: Mutex::new(value),
        }
    }

    /// A counted mutex that additionally feeds `meter`.
    pub fn with_meter(value: T, meter: LockMeter) -> HotMutex<T> {
        HotMutex {
            meter: Some(meter),
            inner: Mutex::new(value),
        }
    }

    /// Consumes the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner()
    }
}

impl<T: ?Sized> HotMutex<T> {
    fn note(&self) {
        HOT_LOCK_ACQUISITIONS.fetch_add(1, Ordering::Relaxed);
        if let Some(meter) = &self.meter {
            meter.bump();
        }
    }

    /// Acquires the lock, blocking until available. Counted.
    pub fn lock(&self) -> HotMutexGuard<'_, T> {
        self.note();
        HotMutexGuard {
            inner: self.inner.lock(),
        }
    }

    /// Tries to acquire without blocking; counted only on success.
    pub fn try_lock(&self) -> Option<HotMutexGuard<'_, T>> {
        let guard = self.inner.try_lock()?;
        self.note();
        Some(HotMutexGuard { inner: guard })
    }

    /// Mutable access without locking (requires exclusive borrow);
    /// never counted — no acquisition happens.
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut()
    }
}

impl<T: ?Sized> Deref for HotMutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> DerefMut for HotMutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for HotMutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.inner.try_lock() {
            Some(g) => f.debug_struct("HotMutex").field("data", &&*g).finish(),
            None => f
                .debug_struct("HotMutex")
                .field("data", &"<locked>")
                .finish(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lock_bumps_global_and_meter() {
        let meter = LockMeter::new();
        let m = HotMutex::with_meter(0u32, meter.clone());
        let global_before = hot_lock_acquisitions();
        *m.lock() += 1;
        *m.lock() += 1;
        assert_eq!(meter.count(), 2);
        assert!(hot_lock_acquisitions() >= global_before + 2);
    }

    #[test]
    fn try_lock_counts_only_success() {
        let meter = LockMeter::new();
        let m = HotMutex::with_meter((), meter.clone());
        let held = m.lock();
        assert!(m.try_lock().is_none());
        assert_eq!(meter.count(), 1, "failed try_lock must not count");
        drop(held);
        assert!(m.try_lock().is_some());
        assert_eq!(meter.count(), 2);
    }

    #[test]
    fn get_mut_is_free() {
        let meter = LockMeter::new();
        let mut m = HotMutex::with_meter(5u8, meter.clone());
        *m.get_mut() = 6;
        assert_eq!(m.into_inner(), 6);
        assert_eq!(meter.count(), 0);
    }
}
