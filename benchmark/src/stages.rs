//! The stage table: where a transaction's time went, read from the span
//! events the layers already stamp into the flight recorder.
//!
//! A client-side event carries its transaction's trace id; a
//! server-side event carries trace 0 and the wire reply port, which the
//! client's `Encode` event also carries — that is the join. Only the
//! generator client's transactions are followed; a server's nested
//! transactions (file server → bank) sit inside its handler stage.

use amoeba_net::{EventKind, FlightEvent};
use std::collections::HashMap;

/// The stages, in order; each runs from the previous boundary to its
/// own. Together they span `TransStart` → `CompletionWake` exactly.
pub const STAGES: [&str; 6] = [
    "stage.encode_us",      // TransStart → FrameOnWire: bind reply port, send
    "stage.wire_us",        // → PumpDequeue: queued, server thread woken
    "stage.pump_us",        // → HandlerStart: claimed off the ready queue
    "stage.handler_us",     // → HandlerEnd: decode, service, reply sent
    "stage.reply_demux_us", // → ReplyDemux: client thread woken, reply matched
    "stage.wake_us",        // → CompletionWake: result handed to the caller
];

/// Boundary timestamps of one followed transaction, ns. `TransStart`,
/// then one per stage.
#[derive(Default, Clone, Copy)]
struct Span {
    start: u64,
    ends: [Option<u64>; 6],
}

/// Per-stage means over the recorder's surviving transactions. Means,
/// not medians, because an operation is several transactions of
/// different sizes and only means add up across them.
pub struct StageTable {
    /// Mean duration of each of [`STAGES`], µs per transaction.
    pub means_us: [f64; 6],
    /// Complete transactions of the generator's clients found in the ring.
    pub transactions: usize,
    /// The generator's own share of all transactions in the ring.
    pub client_share: f64,
    /// Events recorded before the oldest surviving one.
    pub overwritten: u64,
    /// `RequestForwarded` events per server request in the ring.
    pub forwarded_share: f64,
}

pub fn table(events: &[FlightEvent], client_machines: &[u32]) -> StageTable {
    let ours = |trace: u64| trace != 0 && client_machines.contains(&((trace >> 32) as u32));
    let mut spans: HashMap<u64, Span> = HashMap::new(); // by trace id
                                                        // Wire reply port → (the latest transaction that used it, the one
                                                        // before). Ports are recycled, and a server stamps `HandlerEnd`
                                                        // after the reply has left — on one core the woken client can have
                                                        // started its next transaction on the same port by then.
    let mut by_reply_port: HashMap<u64, (u64, Option<u64>)> = HashMap::new();
    let (mut all_started, mut forwarded, mut dequeued) = (0u64, 0u64, 0u64);

    for e in events {
        match e.kind {
            EventKind::TransStart => {
                all_started += 1;
                if ours(e.trace) {
                    let span = Span {
                        start: e.t_nanos,
                        ..Span::default()
                    };
                    spans.insert(e.trace, span);
                }
            }
            EventKind::Encode if spans.contains_key(&e.trace) => {
                let previous = by_reply_port.get(&e.a).map(|(latest, _)| *latest);
                by_reply_port.insert(e.a, (e.trace, previous));
            }
            EventKind::FrameOnWire | EventKind::ReplyDemux | EventKind::CompletionWake => {
                if let Some(span) = spans.get_mut(&e.trace) {
                    let stage = match e.kind {
                        EventKind::FrameOnWire => 0,
                        EventKind::ReplyDemux => 4,
                        _ => 5,
                    };
                    span.ends[stage] = Some(e.t_nanos);
                }
            }
            EventKind::PumpDequeue | EventKind::HandlerStart | EventKind::HandlerEnd => {
                dequeued += u64::from(e.kind == EventKind::PumpDequeue);
                let Some(&(latest, previous)) = by_reply_port.get(&e.a) else {
                    continue;
                };
                // A handler cannot end before it started: an end seen
                // before the latest transaction's start is the previous
                // transaction's, stamped late.
                let late = e.kind == EventKind::HandlerEnd && spans[&latest].ends[2].is_none();
                let owner = if late { previous } else { Some(latest) };
                let Some(span) = owner.and_then(|t| spans.get_mut(&t)) else {
                    continue;
                };
                match e.kind {
                    // A forwarded request is dequeued and started twice;
                    // the first hop opens the stage, the last closes it.
                    EventKind::PumpDequeue => span.ends[1] = span.ends[1].or(Some(e.t_nanos)),
                    EventKind::HandlerStart => span.ends[2] = span.ends[2].or(Some(e.t_nanos)),
                    _ => span.ends[3] = Some(e.t_nanos),
                }
            }
            EventKind::RequestForwarded => forwarded += 1,
            _ => {}
        }
    }

    // Stage durations of every transaction whose boundaries all
    // survived. Two threads stamp one clock, so a server boundary can
    // read later than the client boundary after it; clamping each
    // boundary to its successor keeps the stages summing to the whole.
    let complete: Vec<[u64; 6]> = spans
        .values()
        .filter_map(|span| {
            let mut ends = [0u64; 6];
            for (slot, end) in ends.iter_mut().zip(span.ends) {
                *slot = end?;
            }
            for i in (0..5).rev() {
                ends[i] = ends[i].min(ends[i + 1]);
            }
            let mut from = span.start.min(ends[0]);
            Some(ends.map(|end| {
                let took = end - from;
                from = end;
                took
            }))
        })
        .collect();
    let mut means_us = [0.0; 6];
    for (stage, mean) in means_us.iter_mut().enumerate() {
        let total: u64 = complete.iter().map(|d| d[stage]).sum();
        *mean = total as f64 / 1e3 / complete.len().max(1) as f64;
    }
    StageTable {
        means_us,
        transactions: complete.len(),
        client_share: spans.len() as f64 / all_started.max(1) as f64,
        overwritten: events.first().map_or(0, |e| e.seq),
        forwarded_share: forwarded as f64 / dequeued.max(1) as f64,
    }
}
