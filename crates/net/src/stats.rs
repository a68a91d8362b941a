//! Atomic traffic counters, used by the locate and match-making
//! benchmarks to count broadcast vs unicast traffic, and by the RPC
//! batching benchmark to count frames and bytes on the wire.

use std::sync::atomic::{AtomicU64, Ordering};

/// Monotonic counters of network activity.
///
/// All counters are cumulative since network creation; use
/// [`snapshot`](NetworkStats::snapshot) to diff around a workload.
#[derive(Debug, Default)]
pub struct NetworkStats {
    pub(crate) packets_sent: AtomicU64,
    pub(crate) packets_delivered: AtomicU64,
    pub(crate) broadcasts_sent: AtomicU64,
    pub(crate) packets_dropped: AtomicU64,
    pub(crate) packets_filtered: AtomicU64,
    pub(crate) bytes_sent: AtomicU64,
    pub(crate) payload_bytes_sent: AtomicU64,
    pub(crate) broadcast_bytes_sent: AtomicU64,
}

/// A point-in-time copy of [`NetworkStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatsSnapshot {
    /// Send operations performed (unicast and broadcast alike).
    pub packets_sent: u64,
    /// Copies delivered into machine inboxes (a broadcast counts once
    /// per recipient).
    pub packets_delivered: u64,
    /// Sends whose destination was the broadcast port.
    pub broadcasts_sent: u64,
    /// Copies dropped at the delivery gate, or on arrival (simulator).
    pub packets_dropped: u64,
    /// (machine, packet) pairs rejected by interface filtering — the
    /// associative-addressing misses.
    pub packets_filtered: u64,
    /// Wire bytes in send operations: payload plus the fixed per-frame
    /// header overhead ([`Packet::WIRE_HEADER_BYTES`]); what batching
    /// amortises is exactly the header share of this.
    ///
    /// [`Packet::WIRE_HEADER_BYTES`]: crate::Packet::WIRE_HEADER_BYTES
    pub bytes_sent: u64,
    /// Payload bytes alone in send operations (excluding the per-frame
    /// header overhead).
    pub payload_bytes_sent: u64,
    /// Wire bytes (header + payload) of broadcast-destination frames —
    /// the LOCATE discovery traffic. A subset of `bytes_sent`, split
    /// out so placement benchmarks can report discovery overhead
    /// separately from request/reply traffic.
    pub broadcast_bytes_sent: u64,
}

impl NetworkStats {
    /// Copies the current counter values.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            packets_sent: self.packets_sent.load(Ordering::Relaxed),
            packets_delivered: self.packets_delivered.load(Ordering::Relaxed),
            broadcasts_sent: self.broadcasts_sent.load(Ordering::Relaxed),
            packets_dropped: self.packets_dropped.load(Ordering::Relaxed),
            packets_filtered: self.packets_filtered.load(Ordering::Relaxed),
            bytes_sent: self.bytes_sent.load(Ordering::Relaxed),
            payload_bytes_sent: self.payload_bytes_sent.load(Ordering::Relaxed),
            broadcast_bytes_sent: self.broadcast_bytes_sent.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time view of the hot-path cost counters the zero-copy
/// codec, the lock-free demux and the frame-path budget optimise:
/// frames on the wire, payload-buffer allocations, one-way-function
/// evaluations, blocking lock acquisitions, and cross-thread hand-offs
/// (queue pushes, the wake-ups they issue, and how the receivers
/// waited: parked, spinning or yielding). Diff two snapshots around a
/// workload to get per-operation costs.
///
/// `frames_sent` and the seven `queue_*` counts are per network
/// (machine inboxes plus every [`Network::channel`](crate::Network::channel)); `oneway_evals` sums the
/// [`crypto_evals`](crate::NetworkInterface::crypto_evals) of the
/// machines *currently attached* (detached machines take their counts
/// with them, so snapshot while the fleet is stable); `buffer_allocs`
/// is the process-wide counter from the vendored `bytes` shim (for
/// race-free per-workload accounting prefer diffing
/// [`BufPool`](crate::BufPool) instances directly);
/// `lock_acquisitions` is the process-wide [`HotMutex`](crate::HotMutex) counter (see
/// [`hot_lock_acquisitions`](crate::hot_lock_acquisitions) for its
/// scope, and prefer [`LockMeter`](crate::LockMeter) accounting under
/// concurrent tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HotPathSnapshot {
    /// Send operations performed on this network.
    pub frames_sent: u64,
    /// One-way-function evaluations by this network's attached
    /// interfaces.
    pub oneway_evals: u64,
    /// Process-wide fresh payload-buffer allocations
    /// ([`bytes::stats::buffer_allocs`]).
    pub buffer_allocs: u64,
    /// Process-wide counted mutex acquisitions
    /// ([`crate::hot_lock_acquisitions`]).
    pub lock_acquisitions: u64,
    /// Messages pushed onto this network's queues; a two-frame
    /// transaction budgets exactly two.
    pub queue_pushes: u64,
    /// Wake-ups (a futex-wake syscall each) issued to receivers parked
    /// on those queues: at most one per push.
    pub queue_wakes: u64,
    /// Condition-variable waits (a futex-wait syscall each) entered by
    /// receivers that found those queues empty.
    pub queue_parks: u64,
    /// Messages a receiver took at the end of a spin, with no park and
    /// no wake: the cross-core hand-offs the kernel never saw.
    pub queue_spin_hits: u64,
    /// Ticks at which a spinning receiver looked at one of those
    /// queues, hit or miss. Per spin hit, 2.0 is a request–reply
    /// exchange in step with the spin grid; above ≈ 2.1 the peer's step
    /// no longer fits in a tick (`vendor/crossbeam`'s `SPIN_TICK_NANOS`;
    /// its length and scan: `docs/ARCHITECTURE.md`, "The frame path's
    /// budget").
    pub queue_spin_looks: u64,
    /// Yields (a `sched_yield` syscall each) made by receivers that
    /// found those queues empty and were about to park.
    pub queue_yields: u64,
    /// Messages a receiver took on return from such a yield, with no
    /// park and no wake: the same-core hand-offs that cost no futex.
    pub queue_yield_hits: u64,
}

impl std::ops::Sub for HotPathSnapshot {
    type Output = HotPathSnapshot;

    fn sub(self, rhs: HotPathSnapshot) -> HotPathSnapshot {
        HotPathSnapshot {
            frames_sent: self.frames_sent - rhs.frames_sent,
            // Saturating: the eval sum spans *currently attached*
            // machines, so it can legitimately shrink when a machine
            // detaches between snapshots (e.g. a halted replica).
            oneway_evals: self.oneway_evals.saturating_sub(rhs.oneway_evals),
            buffer_allocs: self.buffer_allocs - rhs.buffer_allocs,
            lock_acquisitions: self.lock_acquisitions - rhs.lock_acquisitions,
            queue_pushes: self.queue_pushes - rhs.queue_pushes,
            queue_wakes: self.queue_wakes - rhs.queue_wakes,
            queue_parks: self.queue_parks - rhs.queue_parks,
            queue_spin_hits: self.queue_spin_hits - rhs.queue_spin_hits,
            queue_spin_looks: self.queue_spin_looks - rhs.queue_spin_looks,
            queue_yields: self.queue_yields - rhs.queue_yields,
            queue_yield_hits: self.queue_yield_hits - rhs.queue_yield_hits,
        }
    }
}

impl std::ops::Sub for StatsSnapshot {
    type Output = StatsSnapshot;

    fn sub(self, rhs: StatsSnapshot) -> StatsSnapshot {
        StatsSnapshot {
            packets_sent: self.packets_sent - rhs.packets_sent,
            packets_delivered: self.packets_delivered - rhs.packets_delivered,
            broadcasts_sent: self.broadcasts_sent - rhs.broadcasts_sent,
            packets_dropped: self.packets_dropped - rhs.packets_dropped,
            packets_filtered: self.packets_filtered - rhs.packets_filtered,
            bytes_sent: self.bytes_sent - rhs.bytes_sent,
            payload_bytes_sent: self.payload_bytes_sent - rhs.payload_bytes_sent,
            broadcast_bytes_sent: self.broadcast_bytes_sent - rhs.broadcast_bytes_sent,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_diff() {
        let stats = NetworkStats::default();
        stats.packets_sent.store(10, Ordering::Relaxed);
        let a = stats.snapshot();
        stats.packets_sent.store(17, Ordering::Relaxed);
        stats.packets_delivered.store(3, Ordering::Relaxed);
        let b = stats.snapshot();
        let d = b - a;
        assert_eq!(d.packets_sent, 7);
        assert_eq!(d.packets_delivered, 3);
        assert_eq!(d.broadcasts_sent, 0);
    }
}
