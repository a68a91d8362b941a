//! The lock-free metrics registry: atomic counters and fixed-bucket
//! log-scale histograms, alloc-free and lock-free on the record path.
//!
//! Everything here is a plain field on [`Metrics`] — no registration,
//! no string lookups, no maps. A record is one or two `fetch_add`s on
//! pre-existing atomics, which is what lets the RPC hot path keep its
//! CI-gated *0 allocs/op, 0 locks/op* steady-state invariants with
//! metrics enabled. Reading is the cold path:
//! [`Metrics::snapshot`] copies every atomic into a plain
//! [`MetricsSnapshot`], and [`MetricsSnapshot::to_json`] formats it.

use std::sync::atomic::{AtomicU64, Ordering};

/// A monotonically increasing event counter.
///
/// `add` is a single relaxed `fetch_add`; `get` a single load. Both
/// are alloc-free and lock-free.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A counter at zero.
    pub const fn new() -> Counter {
        Counter(AtomicU64::new(0))
    }

    /// Adds `n` to the counter.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// The current count.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Number of histogram buckets: 16 linear buckets for values `0..16`,
/// then 16 log-linear sub-buckets per power of two up to `u64::MAX`
/// (HDR-histogram style), which tops out at index 975.
pub const HISTOGRAM_BUCKETS: usize = 1024;

/// A fixed-bucket log-scale histogram of `u64` samples (latencies in
/// nanoseconds or microseconds, queue depths, ...).
///
/// Buckets are log₂ groups split into 16 linear sub-buckets, so the
/// relative bucket resolution is ≤ 1/16 (6.25 %) everywhere above 16.
/// Recording is three relaxed `fetch_add`s plus a `fetch_min`/
/// `fetch_max` — no locks, no allocation, no floats.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub const fn new() -> Histogram {
        #[allow(clippy::declare_interior_mutable_const)] // repeat seed
        const ZERO: AtomicU64 = AtomicU64::new(0);
        Histogram {
            buckets: [ZERO; HISTOGRAM_BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// The bucket index covering `v`: identity below 16, then
    /// `16·(msb-3) + next-4-bits`.
    #[inline]
    pub fn bucket_index(v: u64) -> usize {
        if v < 16 {
            return v as usize;
        }
        let msb = 63 - v.leading_zeros() as usize; // >= 4 here
        let group = msb - 3;
        let sub = ((v >> (msb - 4)) & 0xF) as usize;
        group * 16 + sub
    }

    /// The half-open value range `[lo, hi)` of bucket `idx`.
    pub fn bucket_bounds(idx: usize) -> (u64, u64) {
        if idx < 16 {
            return (idx as u64, idx as u64 + 1);
        }
        let group = (idx / 16) as u32;
        let sub = (idx % 16) as u64;
        let lo = (16 + sub) << (group - 1);
        let hi = lo.saturating_add(1u64 << (group - 1));
        (lo, hi)
    }

    /// Records one sample. Lock-free and alloc-free.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[Self::bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded samples (wrapping).
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Smallest recorded sample, or `None` if empty.
    pub fn min(&self) -> Option<u64> {
        let v = self.min.load(Ordering::Relaxed);
        (v != u64::MAX || self.count() > 0).then_some(v)
    }

    /// Largest recorded sample, or `None` if empty.
    pub fn max(&self) -> Option<u64> {
        (self.count() > 0).then(|| self.max.load(Ordering::Relaxed))
    }

    /// The bucket `[lo, hi)` containing the `per_mille`-th percentile
    /// sample (rank `ceil(count · per_mille / 1000)`, matching a
    /// sorted-vector percentile), or `None` if the histogram is empty.
    ///
    /// The exact sample at that rank is guaranteed to lie inside the
    /// returned bounds — the contract `tests/obs_trace.rs` asserts
    /// against its sorted open-loop sampler.
    pub fn percentile_bounds(&self, per_mille: u64) -> Option<(u64, u64)> {
        let count = self.count();
        if count == 0 {
            return None;
        }
        let rank = ((count * per_mille).div_ceil(1000)).max(1);
        let mut cum = 0u64;
        for idx in 0..HISTOGRAM_BUCKETS {
            cum += self.buckets[idx].load(Ordering::Relaxed);
            if cum >= rank {
                return Some(Self::bucket_bounds(idx));
            }
        }
        // Races between count and bucket loads can leave the walk one
        // short; the answer is then in the last non-empty bucket.
        (0..HISTOGRAM_BUCKETS)
            .rev()
            .find(|&idx| self.buckets[idx].load(Ordering::Relaxed) > 0)
            .map(Self::bucket_bounds)
    }

    /// A point estimate of the `per_mille`-th percentile: the upper
    /// bound of its bucket, clamped to the recorded min/max. Within
    /// one bucket (≤ 6.25 %) of the exact sorted-sample percentile.
    pub fn percentile(&self, per_mille: u64) -> Option<u64> {
        let (lo, hi) = self.percentile_bounds(per_mille)?;
        let est = hi.saturating_sub(1).max(lo);
        let est = self.max().map_or(est, |m| est.min(m));
        Some(self.min().map_or(est, |m| est.max(m)))
    }
}

/// The fixed registry of live metrics. One instance per enabled
/// [`Obs`](crate::Obs); every field is lock-free to record.
#[derive(Debug, Default)]
pub struct Metrics {
    /// Client transactions started.
    pub trans_started: Counter,
    /// Client transactions completed with a reply.
    pub trans_completed: Counter,
    /// Client transactions that exhausted every attempt.
    pub trans_timeouts: Counter,
    /// Per-attempt retransmissions (transmits beyond the first).
    pub retransmits: Counter,
    /// Reply ports minted fresh from the demux slot table.
    pub reply_ports_fresh: Counter,
    /// Reply ports recycled from a parked slot (warm-path reuse).
    pub reply_ports_recycled: Counter,
    /// Transactions that fell off the demux slot table into the
    /// locked overflow map (the gated slow path).
    pub demux_overflows: Counter,
    /// Cluster-client failovers (a replica timed out or disconnected
    /// and the call moved on).
    pub failovers: Counter,
    /// Frames lost by the fault plan.
    pub faults_lost: Counter,
    /// Duplicate frame copies injected by the fault plan.
    pub faults_duplicated: Counter,
    /// Frames delay-spiked by the fault plan.
    pub faults_spiked: Counter,
    /// Frames dropped by crash windows.
    pub faults_crash_dropped: Counter,
    /// Frames dropped by partition windows.
    pub faults_partition_dropped: Counter,
    /// Requests taken by server workers.
    pub server_requests: Counter,
    /// Service handler invocations completed.
    pub handlers_completed: Counter,
    /// File pages a block-backed file server served from its page
    /// cache (no disk frame).
    pub page_cache_hits: Counter,
    /// File pages it fetched from its disk.
    pub page_cache_misses: Counter,
    /// Fetched pages it kept (a page is admitted on its second miss).
    pub page_cache_admissions: Counter,
    /// Disk extents a block-backed file server asked its disk to free
    /// (a destroyed file's, or an orphan of a failed write) without
    /// the disk confirming it: capacity leaked until someone looks.
    pub extents_leaked: Counter,
    /// End-to-end transaction latency (start → completion wake), in
    /// nanoseconds of timeline time.
    pub trans_latency_ns: Histogram,
}

impl Metrics {
    /// Copies every metric into a plain [`MetricsSnapshot`].
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            trans_started: self.trans_started.get(),
            trans_completed: self.trans_completed.get(),
            trans_timeouts: self.trans_timeouts.get(),
            retransmits: self.retransmits.get(),
            reply_ports_fresh: self.reply_ports_fresh.get(),
            reply_ports_recycled: self.reply_ports_recycled.get(),
            reply_ports_leased: 0,
            demux_overflows: self.demux_overflows.get(),
            failovers: self.failovers.get(),
            faults_lost: self.faults_lost.get(),
            faults_duplicated: self.faults_duplicated.get(),
            faults_spiked: self.faults_spiked.get(),
            faults_crash_dropped: self.faults_crash_dropped.get(),
            faults_partition_dropped: self.faults_partition_dropped.get(),
            server_requests: self.server_requests.get(),
            handlers_completed: self.handlers_completed.get(),
            page_cache_hits: self.page_cache_hits.get(),
            page_cache_misses: self.page_cache_misses.get(),
            page_cache_admissions: self.page_cache_admissions.get(),
            extents_leaked: self.extents_leaked.get(),
            latency_count: self.trans_latency_ns.count(),
            latency_sum_ns: self.trans_latency_ns.sum(),
            latency_min_ns: self.trans_latency_ns.min().unwrap_or(0),
            latency_max_ns: self.trans_latency_ns.max().unwrap_or(0),
            latency_p50_ns: self.trans_latency_ns.percentile(500).unwrap_or(0),
            latency_p99_ns: self.trans_latency_ns.percentile(990).unwrap_or(0),
            latency_p999_ns: self.trans_latency_ns.percentile(999).unwrap_or(0),
        }
    }
}

/// A point-in-time copy of every metric — plain data, comparable,
/// serializable via [`to_json`](MetricsSnapshot::to_json).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)] // field names mirror `Metrics` docs 1:1
pub struct MetricsSnapshot {
    pub trans_started: u64,
    pub trans_completed: u64,
    pub trans_timeouts: u64,
    pub retransmits: u64,
    pub reply_ports_fresh: u64,
    pub reply_ports_recycled: u64,
    /// Always 0: reply ports no longer pass between clients. Kept only
    /// because the repository's benchmark still reads it.
    pub reply_ports_leased: u64,
    pub demux_overflows: u64,
    pub failovers: u64,
    pub faults_lost: u64,
    pub faults_duplicated: u64,
    pub faults_spiked: u64,
    pub faults_crash_dropped: u64,
    pub faults_partition_dropped: u64,
    pub server_requests: u64,
    pub handlers_completed: u64,
    pub page_cache_hits: u64,
    pub page_cache_misses: u64,
    pub page_cache_admissions: u64,
    pub extents_leaked: u64,
    pub latency_count: u64,
    pub latency_sum_ns: u64,
    pub latency_min_ns: u64,
    pub latency_max_ns: u64,
    pub latency_p50_ns: u64,
    pub latency_p99_ns: u64,
    pub latency_p999_ns: u64,
}

impl MetricsSnapshot {
    /// Formats the snapshot as a flat JSON object (cold path; this is
    /// the one place in the crate that allocates).
    pub fn to_json(&self) -> String {
        let fields: [(&str, u64); 27] = [
            ("trans_started", self.trans_started),
            ("trans_completed", self.trans_completed),
            ("trans_timeouts", self.trans_timeouts),
            ("retransmits", self.retransmits),
            ("reply_ports_fresh", self.reply_ports_fresh),
            ("reply_ports_recycled", self.reply_ports_recycled),
            ("reply_ports_leased", self.reply_ports_leased),
            ("demux_overflows", self.demux_overflows),
            ("failovers", self.failovers),
            ("faults_lost", self.faults_lost),
            ("faults_duplicated", self.faults_duplicated),
            ("faults_spiked", self.faults_spiked),
            ("faults_crash_dropped", self.faults_crash_dropped),
            ("faults_partition_dropped", self.faults_partition_dropped),
            ("server_requests", self.server_requests),
            ("handlers_completed", self.handlers_completed),
            ("page_cache_hits", self.page_cache_hits),
            ("page_cache_misses", self.page_cache_misses),
            ("page_cache_admissions", self.page_cache_admissions),
            ("extents_leaked", self.extents_leaked),
            ("latency_count", self.latency_count),
            ("latency_sum_ns", self.latency_sum_ns),
            ("latency_min_ns", self.latency_min_ns),
            ("latency_max_ns", self.latency_max_ns),
            ("latency_p50_ns", self.latency_p50_ns),
            ("latency_p99_ns", self.latency_p99_ns),
            ("latency_p999_ns", self.latency_p999_ns),
        ];
        let mut out = String::with_capacity(512);
        out.push_str("{\n");
        for (i, (name, v)) in fields.iter().enumerate() {
            out.push_str("  \"");
            out.push_str(name);
            out.push_str("\": ");
            out.push_str(&v.to_string());
            if i + 1 < fields.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_and_bounds_agree() {
        for v in [
            0u64,
            1,
            15,
            16,
            17,
            31,
            32,
            33,
            100,
            1_000,
            12_345,
            1 << 20,
            (1 << 20) + 7,
            u64::MAX / 3,
            u64::MAX,
        ] {
            let idx = Histogram::bucket_index(v);
            assert!(idx < HISTOGRAM_BUCKETS, "idx {idx} for {v}");
            let (lo, hi) = Histogram::bucket_bounds(idx);
            assert!(lo <= v, "lo {lo} > v {v}");
            // The topmost bucket's upper bound saturates at u64::MAX.
            assert!(v < hi || hi == u64::MAX, "v {v} >= hi {hi}");
        }
    }

    #[test]
    fn bucket_indices_are_monotone() {
        let mut last = 0;
        let mut v = 1u64;
        while v < u64::MAX / 4 {
            let idx = Histogram::bucket_index(v);
            assert!(idx >= last, "index regressed at {v}");
            last = idx;
            v = v + v / 2 + 1;
        }
    }

    #[test]
    fn percentiles_track_a_known_distribution() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.min(), Some(1));
        assert_eq!(h.max(), Some(1000));
        let (lo, hi) = h.percentile_bounds(500).unwrap();
        assert!(lo <= 500 && 500 < hi, "p50 bucket [{lo},{hi}) misses 500");
        let (lo, hi) = h.percentile_bounds(999).unwrap();
        assert!(lo <= 999 && 999 < hi, "p999 bucket [{lo},{hi}) misses 999");
        let p50 = h.percentile(500).unwrap();
        assert!((450..=560).contains(&p50), "p50 estimate {p50}");
    }

    #[test]
    fn percentile_matches_sorted_rank_bucket() {
        // The cross-check contract: for any sample set, the sorted
        // rank-th sample falls inside the histogram's percentile
        // bucket, because both use rank = ceil(n*pm/1000).
        let mut samples: Vec<u64> = (0..997).map(|i| (i * 7919 + 13) % 100_000).collect();
        let h = Histogram::new();
        for &s in &samples {
            h.record(s);
        }
        samples.sort_unstable();
        for pm in [500u64, 900, 990, 999] {
            let rank = ((samples.len() as u64 * pm).div_ceil(1000)).max(1) as usize;
            let exact = samples[rank - 1];
            let (lo, hi) = h.percentile_bounds(pm).unwrap();
            assert!(
                lo <= exact && exact < hi,
                "pm {pm}: exact {exact} outside [{lo},{hi})"
            );
        }
    }

    #[test]
    fn snapshot_json_is_well_formed() {
        let m = Metrics::default();
        m.trans_started.add(3);
        m.trans_latency_ns.record(1500);
        let json = m.snapshot().to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"trans_started\": 3"));
        assert!(json.contains("\"latency_count\": 1"));
    }
}
