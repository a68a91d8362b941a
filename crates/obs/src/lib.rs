//! **amoeba-obs** — zero-cost-when-disabled observability for the
//! Amoeba reproduction: transaction tracing, a lock-free flight
//! recorder, and an alloc-free metrics registry.
//!
//! The crate is a dependency-free leaf so every layer (`net` upward)
//! can hold an [`Obs`] handle. Design constraints, in order:
//!
//! 1. **Disabled is literally free.** An [`Obs`] starts disabled;
//!    every record call is then a single `OnceLock` load and a
//!    branch — no allocation, no lock, no atomic write. The CI-gated
//!    hot-path invariants (0 allocs/op, 0 locks/op) hold with the
//!    layer compiled in and switched off, and a scale-test gate
//!    proves it.
//! 2. **Enabled stays off the lock path.** [`Obs::enable`] allocates
//!    the [`Metrics`] registry and the flight-recorder ring once;
//!    after that, recording an event or bumping a counter is a
//!    handful of relaxed atomics. No mutex is ever taken to record.
//! 3. **Traces are causal under every clock.** Events carry timeline
//!    timestamps (nanoseconds since the shared `Clock` epoch) handed
//!    in by the instrumented layer, so wall-clock and
//!    deterministic-sim runs both produce ordered span timelines, and
//!    a failing sim seed replays to the byte-identical trace.
//!
//! # Trace ids
//!
//! A trace id is **client-local**: the RPC client stamps each
//! transaction from a per-client counter (machine id in the high 32
//! bits, so spans from different clients never alias in one shared
//! recording) and records every span event (start, encode,
//! frame-on-wire, retransmit, reply-demux, completion wake) itself,
//! sequentially. Network- and server-side events carry trace 0 and
//! correlate by port/machine operands instead — nothing is added to
//! the wire format.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod metrics;
mod recorder;

pub use metrics::{Counter, Histogram, Metrics, MetricsSnapshot, HISTOGRAM_BUCKETS};
pub use recorder::{FlightEvent, RING_CAPACITY};

use recorder::Ring;
use std::sync::{Arc, OnceLock};

/// What a flight-recorder event describes. Discriminants are stable
/// (they are stored raw in the ring).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u64)]
pub enum EventKind {
    /// Recovered from a slot whose kind field was unrecognized.
    Unknown = 0,
    /// A client transaction started (`a` = dest port, `b` = payload len).
    TransStart = 1,
    /// The request frame was encoded (`a` = reply wire port).
    Encode = 2,
    /// A frame left the client (`a` = dest port, `b` = transmit count).
    FrameOnWire = 3,
    /// A retransmission of an in-flight attempt (`a` = dest port,
    /// `b` = transmit count).
    Retransmit = 4,
    /// The sim delivery gate parked a copy (`a` = dest port,
    /// `b` = target machine).
    DeliveryGate = 5,
    /// The fault plan lost a frame (`a` = dest port, `b` = target).
    Loss = 6,
    /// The fault plan duplicated a frame (`a` = dest port,
    /// `b` = target machine).
    Duplicate = 7,
    /// The fault plan delay-spiked a frame (`a` = dest port,
    /// `b` = target machine).
    Spike = 8,
    /// A crash window dropped a frame (`a` = dest port, `b` = target).
    CrashDrop = 9,
    /// A partition window dropped a frame (`a` = dest port,
    /// `b` = target machine).
    PartitionDrop = 10,
    /// The sim released a delivery into a machine queue (`a` = dest
    /// port, `b` = target machine).
    Delivered = 11,
    /// A server pump dequeued a request (`a` = put port, `b` = machine).
    PumpDequeue = 12,
    /// A service handler started (`a` = put port, `b` = machine).
    HandlerStart = 13,
    /// A service handler finished (`a` = put port, `b` = machine).
    HandlerEnd = 14,
    /// A reply matched the client's demux (`a` = reply wire port).
    ReplyDemux = 15,
    /// A transaction completed and its waiter woke (`a` = latency ns).
    CompletionWake = 16,
    /// A cluster client failed over off a dead replica (`a` = machine).
    Failover = 17,
    /// A batched path resolution completed (`a` = server hops,
    /// `b` = segments consumed). Recorded under the first hop's trace
    /// id, so a flight recording shows each hop-chain's fan-out;
    /// trace 0 marks a pure cache hit (no transaction ran).
    PathResolve = 18,
    /// A shard migration opened (`a` = shard index, `b` = transfer id).
    MigrateBegin = 19,
    /// One transfer chunk shipped (`a` = chunk seq, `b` = record
    /// bytes).
    MigrateChunk = 20,
    /// A shard migration committed on the target and cut over
    /// (`a` = shard index, `b` = transfer id).
    MigrateCommit = 21,
    /// A shard migration aborted; the source kept ownership
    /// (`a` = shard index, `b` = transfer id).
    MigrateAbort = 22,
    /// The old owner relayed an in-flight request to the new owner
    /// during cutover (`a` = destination port, `b` = client reply
    /// port).
    RequestForwarded = 23,
}

impl EventKind {
    /// The stable display name (used in JSON dumps).
    pub fn name(self) -> &'static str {
        match self {
            EventKind::Unknown => "Unknown",
            EventKind::TransStart => "TransStart",
            EventKind::Encode => "Encode",
            EventKind::FrameOnWire => "FrameOnWire",
            EventKind::Retransmit => "Retransmit",
            EventKind::DeliveryGate => "DeliveryGate",
            EventKind::Loss => "Loss",
            EventKind::Duplicate => "Duplicate",
            EventKind::Spike => "Spike",
            EventKind::CrashDrop => "CrashDrop",
            EventKind::PartitionDrop => "PartitionDrop",
            EventKind::Delivered => "Delivered",
            EventKind::PumpDequeue => "PumpDequeue",
            EventKind::HandlerStart => "HandlerStart",
            EventKind::HandlerEnd => "HandlerEnd",
            EventKind::ReplyDemux => "ReplyDemux",
            EventKind::CompletionWake => "CompletionWake",
            EventKind::Failover => "Failover",
            EventKind::PathResolve => "PathResolve",
            EventKind::MigrateBegin => "MigrateBegin",
            EventKind::MigrateChunk => "MigrateChunk",
            EventKind::MigrateCommit => "MigrateCommit",
            EventKind::MigrateAbort => "MigrateAbort",
            EventKind::RequestForwarded => "RequestForwarded",
        }
    }

    /// Decodes a raw ring value back to a kind.
    pub fn from_u64(v: u64) -> EventKind {
        match v {
            1 => EventKind::TransStart,
            2 => EventKind::Encode,
            3 => EventKind::FrameOnWire,
            4 => EventKind::Retransmit,
            5 => EventKind::DeliveryGate,
            6 => EventKind::Loss,
            7 => EventKind::Duplicate,
            8 => EventKind::Spike,
            9 => EventKind::CrashDrop,
            10 => EventKind::PartitionDrop,
            11 => EventKind::Delivered,
            12 => EventKind::PumpDequeue,
            13 => EventKind::HandlerStart,
            14 => EventKind::HandlerEnd,
            15 => EventKind::ReplyDemux,
            16 => EventKind::CompletionWake,
            17 => EventKind::Failover,
            18 => EventKind::PathResolve,
            19 => EventKind::MigrateBegin,
            20 => EventKind::MigrateChunk,
            21 => EventKind::MigrateCommit,
            22 => EventKind::MigrateAbort,
            23 => EventKind::RequestForwarded,
            _ => EventKind::Unknown,
        }
    }
}

/// The enabled half of an [`Obs`]: the metrics registry plus the
/// flight-recorder ring, allocated once on enable.
#[derive(Debug)]
struct Live {
    metrics: Metrics,
    ring: Ring,
}

#[derive(Debug, Default)]
struct ObsCore {
    /// Lazily initialized on [`Obs::enable`]: ~200 KiB of atomics that
    /// disabled networks (the common case — unit tests build hundreds)
    /// never pay for.
    live: OnceLock<Box<Live>>,
}

/// A cloneable observability handle. Starts **disabled**: recording
/// and counting are no-ops costing one atomic load. [`enable`]
/// switches the handle (and every clone of it) live, irreversibly.
///
/// [`enable`]: Obs::enable
#[derive(Debug, Clone, Default)]
pub struct Obs {
    core: Arc<ObsCore>,
}

impl Obs {
    /// A fresh, disabled handle.
    pub fn new() -> Obs {
        Obs::default()
    }

    /// Switches this handle live, allocating the metrics registry and
    /// the flight-recorder ring. Idempotent; never disables.
    pub fn enable(&self) {
        let _ = self.core.live.set(Box::new(Live {
            metrics: Metrics::default(),
            ring: Ring::new(),
        }));
    }

    /// Whether the handle is live.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.core.live.get().is_some()
    }

    /// The live metrics registry, or `None` while disabled. Call
    /// sites gate their counter bumps on this, so the disabled path
    /// is one load and a branch.
    #[inline]
    pub fn metrics(&self) -> Option<&Metrics> {
        self.core.live.get().map(|l| &l.metrics)
    }

    /// Records one flight-recorder event. A no-op while disabled;
    /// lock-free and alloc-free while enabled. `t_nanos` is timeline
    /// time (nanoseconds since the clock epoch), `trace` the
    /// client-local trace id (0 when not transaction-scoped), `a`/`b`
    /// event-specific operands (see [`EventKind`]).
    #[inline]
    pub fn record(&self, kind: EventKind, t_nanos: u64, trace: u64, a: u64, b: u64) {
        if let Some(live) = self.core.live.get() {
            live.ring.push(kind, t_nanos, trace, a, b);
        }
    }

    /// Snapshots the metrics registry, or `None` while disabled.
    pub fn snapshot(&self) -> Option<MetricsSnapshot> {
        self.metrics().map(Metrics::snapshot)
    }

    /// The flight recorder's surviving events in recording order
    /// (empty while disabled).
    pub fn events(&self) -> Vec<FlightEvent> {
        self.core
            .live
            .get()
            .map(|l| l.ring.events())
            .unwrap_or_default()
    }

    /// The flight recorder as JSON lines — one event object per line,
    /// oldest first (empty while disabled).
    pub fn flight_json(&self) -> String {
        let evs = self.events();
        let mut out = String::with_capacity(evs.len() * 96);
        for e in &evs {
            out.push_str(&e.to_json());
            out.push('\n');
        }
        out
    }

    /// Dumps the flight recorder and a metrics snapshot to stderr,
    /// and — when the `OBS_DUMP_DIR` environment variable names a
    /// directory — to `flight-<pid>-<reason>.json` inside it (the
    /// artifact CI uploads on a failed sim seed). The directory is
    /// created if missing. No-op while disabled.
    pub fn dump(&self, reason: &str) {
        if !self.enabled() {
            return;
        }
        let flight = self.flight_json();
        let metrics = self.snapshot().unwrap_or_default().to_json();
        eprintln!("=== flight recorder dump: {reason} ===");
        eprint!("{flight}");
        eprintln!("=== metrics ===");
        eprintln!("{metrics}");
        eprintln!("=== end dump ===");
        if let Some(dir) = std::env::var_os("OBS_DUMP_DIR") {
            // Best effort: a dump must never turn one failure into two.
            let _ = std::fs::create_dir_all(&dir);
            let path = std::path::Path::new(&dir).join(format!(
                "flight-{}-{}.json",
                std::process::id(),
                sanitize(reason)
            ));
            let body = format!(
                "{{\"reason\":\"{}\",\"metrics\":{},\"events\":[\n{}]}}\n",
                sanitize(reason),
                metrics,
                join_events(&flight)
            );
            if let Err(e) = std::fs::write(&path, body) {
                eprintln!("flight dump write failed ({}): {e}", path.display());
            }
        }
    }
}

/// Keeps dump reasons filesystem- and JSON-safe.
fn sanitize(reason: &str) -> String {
    reason
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
        .collect()
}

/// Turns newline-separated JSON objects into a comma-separated array
/// body.
fn join_events(lines: &str) -> String {
    let items: Vec<&str> = lines.lines().filter(|l| !l.is_empty()).collect();
    items.join(",\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_records_nothing() {
        let obs = Obs::new();
        assert!(!obs.enabled());
        obs.record(EventKind::TransStart, 1, 1, 1, 1);
        assert!(obs.events().is_empty());
        assert!(obs.snapshot().is_none());
        assert!(obs.metrics().is_none());
        assert_eq!(obs.flight_json(), "");
    }

    #[test]
    fn enable_is_shared_across_clones_and_idempotent() {
        let obs = Obs::new();
        let clone = obs.clone();
        obs.enable();
        obs.enable();
        assert!(clone.enabled());
        clone.record(EventKind::Encode, 5, 9, 0, 0);
        let evs = obs.events();
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].kind, EventKind::Encode);
        assert_eq!(evs[0].trace, 9);
    }

    #[test]
    fn metrics_flow_through_the_handle() {
        let obs = Obs::new();
        obs.enable();
        let m = obs.metrics().unwrap();
        m.retransmits.add(2);
        m.trans_latency_ns.record(10_000);
        let snap = obs.snapshot().unwrap();
        assert_eq!(snap.retransmits, 2);
        assert_eq!(snap.latency_count, 1);
        assert!(snap.to_json().contains("\"retransmits\": 2"));
    }

    #[test]
    fn event_kinds_round_trip_through_raw_values() {
        for k in [
            EventKind::TransStart,
            EventKind::Encode,
            EventKind::FrameOnWire,
            EventKind::Retransmit,
            EventKind::DeliveryGate,
            EventKind::Loss,
            EventKind::Duplicate,
            EventKind::Spike,
            EventKind::CrashDrop,
            EventKind::PartitionDrop,
            EventKind::Delivered,
            EventKind::PumpDequeue,
            EventKind::HandlerStart,
            EventKind::HandlerEnd,
            EventKind::ReplyDemux,
            EventKind::CompletionWake,
            EventKind::Failover,
            EventKind::PathResolve,
            EventKind::MigrateBegin,
            EventKind::MigrateChunk,
            EventKind::MigrateCommit,
            EventKind::MigrateAbort,
            EventKind::RequestForwarded,
        ] {
            assert_eq!(EventKind::from_u64(k as u64), k);
            assert_ne!(k.name(), "Unknown");
        }
        assert_eq!(EventKind::from_u64(4096), EventKind::Unknown);
    }

    #[test]
    fn flight_json_is_one_object_per_line() {
        let obs = Obs::new();
        obs.enable();
        obs.record(EventKind::FrameOnWire, 100, 7, 42, 1);
        obs.record(EventKind::ReplyDemux, 200, 7, 42, 0);
        let json = obs.flight_json();
        let lines: Vec<&str> = json.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"kind\":\"FrameOnWire\""));
        assert!(lines[1].contains("\"t_ns\":200"));
    }

    #[test]
    fn dump_writes_the_ci_artifact_file() {
        // Only this test touches OBS_DUMP_DIR in this binary, and the
        // dump filename carries the (sanitized) reason, so a unique
        // reason keeps reruns from reading a stale file.
        let dir = std::env::temp_dir().join(format!("obs-dump-test-{}", std::process::id()));
        std::env::set_var("OBS_DUMP_DIR", &dir);
        let obs = Obs::new();
        obs.enable();
        obs.record(EventKind::Loss, 50, 0, 11, 0);
        obs.record(EventKind::CompletionWake, 90, 3, 40, 1);
        obs.dump("seed 0xBAD panicked");
        std::env::remove_var("OBS_DUMP_DIR");

        let path = dir.join(format!(
            "flight-{}-seed-0xBAD-panicked.json",
            std::process::id()
        ));
        let body = std::fs::read_to_string(&path).expect("dump file written");
        assert!(body.contains("\"reason\":\"seed-0xBAD-panicked\""));
        assert!(
            body.contains("\"kind\":\"Loss\""),
            "injected fault recorded"
        );
        assert!(body.contains("\"kind\":\"CompletionWake\""));
        assert!(body.contains("\"trans_completed\""), "metrics embedded");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
