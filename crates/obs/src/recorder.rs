//! The flight recorder: a fixed-capacity lock-free ring of recent
//! events, cheap enough to leave on for an entire fault-seed run and
//! dumped only when something goes wrong.
//!
//! Writers take a sequence number with one `fetch_add` on the head
//! counter, claim the slot it maps to with one compare-exchange (the
//! stamp goes odd: a writer is inside) and publish the fields under
//! the slot's new even stamp (a seqlock): readers that observe the
//! same even, non-zero stamp before and after reading the fields know
//! the slot was not being rewritten mid-read. A writer that finds the
//! slot busy — another writer a whole ring of sequence numbers away
//! is still inside it — or already holding a later event drops its
//! own: two writers never interleave their stores in one slot, so no
//! stamp can ever validate a mix of two events. The dropped event has
//! taken its sequence number, so it shows as a gap in `seq`, like one
//! that was overwritten. A torn slot is simply skipped by readers —
//! this is forensics, not accounting; the metrics registry owns exact
//! counts.

use crate::EventKind;
use std::sync::atomic::{AtomicU64, Ordering};

/// Number of events the flight recorder retains. Power of two so the
/// slot index is one mask. 4096 events at 48 bytes/slot ≈ 192 KiB per
/// enabled recorder, allocated only on [`Obs::enable`](crate::Obs::enable).
pub const RING_CAPACITY: usize = 4096;

#[derive(Debug)]
struct Slot {
    /// 0 = never written; odd = a writer is inside; otherwise
    /// `2 × (seq + 1)` of the event it holds.
    stamp: AtomicU64,
    t_nanos: AtomicU64,
    kind: AtomicU64,
    trace: AtomicU64,
    a: AtomicU64,
    b: AtomicU64,
}

impl Slot {
    const fn empty() -> Slot {
        Slot {
            stamp: AtomicU64::new(0),
            t_nanos: AtomicU64::new(0),
            kind: AtomicU64::new(0),
            trace: AtomicU64::new(0),
            a: AtomicU64::new(0),
            b: AtomicU64::new(0),
        }
    }
}

/// One event recovered from the ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlightEvent {
    /// Global record sequence number (total order of recording).
    pub seq: u64,
    /// Timeline time of the event, in nanoseconds since the epoch.
    pub t_nanos: u64,
    /// What happened.
    pub kind: EventKind,
    /// The client-local trace id (0 = not transaction-scoped).
    pub trace: u64,
    /// Event-specific operand (port value, machine id, ...).
    pub a: u64,
    /// Second event-specific operand (payload length, attempt, ...).
    pub b: u64,
}

impl FlightEvent {
    /// One JSON object describing the event.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"seq\":{},\"t_ns\":{},\"kind\":\"{}\",\"trace\":{},\"a\":{},\"b\":{}}}",
            self.seq,
            self.t_nanos,
            self.kind.name(),
            self.trace,
            self.a,
            self.b
        )
    }
}

/// The lock-free event ring. Writers never block or allocate; readers
/// reconstruct a best-effort ordered timeline.
#[derive(Debug)]
pub(crate) struct Ring {
    head: AtomicU64,
    slots: [Slot; RING_CAPACITY],
}

impl Ring {
    pub(crate) fn new() -> Ring {
        #[allow(clippy::declare_interior_mutable_const)] // repeat seed
        const EMPTY: Slot = Slot::empty();
        Ring {
            head: AtomicU64::new(0),
            slots: [EMPTY; RING_CAPACITY],
        }
    }

    /// Records one event: one `fetch_add`, one compare-exchange and
    /// six stores — or drops it, if the slot is busy or already holds
    /// a later event.
    #[inline]
    pub(crate) fn push(&self, kind: EventKind, t_nanos: u64, trace: u64, a: u64, b: u64) {
        let seq = self.head.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(seq as usize) & (RING_CAPACITY - 1)];
        let publish = 2 * (seq + 1);
        // Claim, write fields, then publish the new stamp: a
        // concurrent reader either sees an odd / a mismatched stamp
        // (and skips the slot) or a stable stamp bracketing its reads.
        // The claim's Acquire keeps the field stores after it, and
        // every store is Release so the chain retains program order
        // (a later relaxed store may legally hoist above a release
        // store, which would let a reader accept a torn slot).
        let held = slot.stamp.load(Ordering::Relaxed);
        if held % 2 == 1
            || held > publish
            || slot
                .stamp
                .compare_exchange(held, held + 1, Ordering::AcqRel, Ordering::Relaxed)
                .is_err()
        {
            return;
        }
        slot.t_nanos.store(t_nanos, Ordering::Release);
        slot.kind.store(kind as u64, Ordering::Release);
        slot.trace.store(trace, Ordering::Release);
        slot.a.store(a, Ordering::Release);
        slot.b.store(b, Ordering::Release);
        slot.stamp.store(publish, Ordering::Release);
    }

    /// Snapshots the ring's surviving events in recording order.
    pub(crate) fn events(&self) -> Vec<FlightEvent> {
        let mut out = Vec::with_capacity(RING_CAPACITY);
        for slot in &self.slots {
            let s1 = slot.stamp.load(Ordering::Acquire);
            if s1 == 0 || s1 % 2 == 1 {
                continue;
            }
            let ev = FlightEvent {
                seq: s1 / 2 - 1,
                t_nanos: slot.t_nanos.load(Ordering::Relaxed),
                kind: EventKind::from_u64(slot.kind.load(Ordering::Relaxed)),
                trace: slot.trace.load(Ordering::Relaxed),
                a: slot.a.load(Ordering::Relaxed),
                b: slot.b.load(Ordering::Relaxed),
            };
            // Field loads must complete before the validation load.
            std::sync::atomic::fence(Ordering::Acquire);
            let s2 = slot.stamp.load(Ordering::Acquire);
            if s1 == s2 {
                out.push(ev);
            }
        }
        out.sort_unstable_by_key(|e| e.seq);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_come_back_in_order() {
        let ring = Ring::new();
        for i in 0..100u64 {
            ring.push(EventKind::FrameOnWire, i * 10, i, i, i);
        }
        let evs = ring.events();
        assert_eq!(evs.len(), 100);
        for (i, e) in evs.iter().enumerate() {
            assert_eq!(e.seq, i as u64);
            assert_eq!(e.trace, i as u64);
            assert_eq!(e.kind, EventKind::FrameOnWire);
        }
    }

    #[test]
    fn ring_keeps_only_the_most_recent_capacity_events() {
        let ring = Ring::new();
        let total = RING_CAPACITY as u64 + 500;
        for i in 0..total {
            ring.push(EventKind::Delivered, i, 0, 0, 0);
        }
        let evs = ring.events();
        assert_eq!(evs.len(), RING_CAPACITY);
        assert_eq!(evs.first().unwrap().seq, 500);
        assert_eq!(evs.last().unwrap().seq, total - 1);
    }

    #[test]
    fn concurrent_writers_never_corrupt_the_ring() {
        use std::sync::Arc;
        let ring = Arc::new(Ring::new());
        let handles: Vec<_> = (0..4)
            .map(|w| {
                let ring = Arc::clone(&ring);
                std::thread::spawn(move || {
                    for i in 0..10_000u64 {
                        ring.push(EventKind::ReplyDemux, i, w, i, i * 2);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let evs = ring.events();
        assert!(!evs.is_empty());
        for e in evs {
            assert_eq!(e.kind, EventKind::ReplyDemux);
            assert_eq!(e.b, e.a * 2, "torn slot survived the seqlock");
        }
    }
}
