//! Trace causality: every transaction span the flight recorder
//! captures must be internally ordered — event timestamps monotone
//! along the span, and each span phase recorded before the phases it
//! causes (start before wire, wire before demux, demux before the
//! completion wake). The property must hold under both clocks: wall
//! (real sleeps, real threads) and the deterministic simulation
//! executor (timeline jumps, seeded single-threaded scheduling) — the
//! recorder reads the shared `Clock`, so a clock whose timeline ever
//! ran backwards would fail here.

mod sim_support;

use amoeba::prelude::*;
use amoeba::rpc::Client;
use bytes::Bytes;
use proptest::prelude::*;
use sim_support::EchoService;
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Duration;

/// Groups the recording into per-trace spans and asserts causal order
/// within each. Returns how many spans were checked.
fn assert_traces_causal(events: &[FlightEvent], context: &str) -> usize {
    use std::collections::BTreeMap;
    let mut spans: BTreeMap<u64, Vec<&FlightEvent>> = BTreeMap::new();
    for e in events {
        if e.trace != 0 {
            // `Obs::events` yields recording order (sorted by seq).
            spans.entry(e.trace).or_default().push(e);
        }
    }
    for (trace, span) in &spans {
        for w in span.windows(2) {
            assert!(
                w[0].t_nanos <= w[1].t_nanos,
                "{context}: trace {trace} ran backwards: {} at {} ns \
                 recorded before {} at {} ns",
                w[0].kind.name(),
                w[0].t_nanos,
                w[1].kind.name(),
                w[1].t_nanos,
            );
        }
        // Parent-before-child along the span's phase chain. Retransmits
        // make FrameOnWire/ReplyDemux repeatable, so compare the FIRST
        // occurrence of each phase.
        let first = |kind: EventKind| span.iter().position(|e| e.kind == kind);
        let chain = [
            EventKind::TransStart,
            EventKind::Encode,
            EventKind::FrameOnWire,
            EventKind::ReplyDemux,
            EventKind::CompletionWake,
        ];
        let mut last_seen: Option<(EventKind, usize)> = None;
        for kind in chain {
            let Some(pos) = first(kind) else {
                // A span may legitimately lack later phases (timed out,
                // still in flight when the recording was taken) — but
                // never earlier ones.
                continue;
            };
            if let Some((parent, parent_pos)) = last_seen {
                assert!(
                    parent_pos < pos,
                    "{context}: trace {trace}: {} recorded before its \
                     parent {}",
                    kind.name(),
                    parent.name(),
                );
            }
            last_seen = Some((kind, pos));
        }
        assert_eq!(
            first(EventKind::TransStart),
            Some(0),
            "{context}: trace {trace} must open with TransStart",
        );
    }
    spans.len()
}

/// A blocking echo workload on the wall clock, threads and all;
/// returns the recording.
fn threaded_workload(ops: usize) -> Vec<FlightEvent> {
    let net = Network::new();
    net.obs().enable();
    let runner = ServiceRunner::spawn_open(&net, EchoService);
    let client = Client::new(net.attach_open());
    for i in 0..ops {
        let tag = format!("op-{i}");
        let body = sim_support::encode_echo(tag.as_bytes());
        let raw = client
            .trans(runner.put_port(), body)
            .expect("echo completes");
        let reply = amoeba::server::proto::Reply::decode(&raw).expect("decodes");
        assert_eq!(&reply.body[..], tag.as_bytes());
    }
    let events = net.obs().events();
    runner.stop();
    events
}

/// A poll-driven echo workload on the deterministic simulation
/// executor; returns the network (for its recording and registry) and
/// the latency each driver measured per transaction, in timeline
/// nanoseconds.
fn sim_workload(seed: u64, clients: usize, ops: usize) -> (Network, Vec<u64>) {
    let net = Network::new_sim(seed);
    net.obs().enable();
    net.set_latency(Duration::from_millis(1));
    let port = Port::new(0x0B5_7ACE).unwrap();
    let pump = SimPump::bind(net.attach_open(), port, EchoService);
    let put_port = pump.put_port();

    let arena: Vec<Client> = (0..clients)
        .map(|i| Client::new(net.attach_open()).with_rng_seed(seed ^ i as u64))
        .collect();
    let latencies = Rc::new(RefCell::new(Vec::with_capacity(clients * ops)));
    let mut exec = SimExecutor::new(&net);
    {
        let pump = &pump;
        exec.spawn_daemon(pump.machine(), move || {
            if pump.poll() {
                ActorPoll::Progress
            } else {
                ActorPoll::Idle
            }
        });
    }
    for (ci, client) in arena.iter().enumerate() {
        let latencies = Rc::clone(&latencies);
        let net = net.clone();
        let mut op = 0usize;
        let mut current: Option<(amoeba::rpc::Completion<'_, Bytes>, Timestamp)> = None;
        exec.spawn(client.endpoint().id(), move || loop {
            if let Some((comp, started)) = current.as_mut() {
                match comp.poll() {
                    Some(Ok(_)) => {
                        let latency = net.now().saturating_duration_since(*started);
                        latencies.borrow_mut().push(latency.as_nanos() as u64);
                        current = None;
                        op += 1;
                        if op == ops {
                            return ActorPoll::Done;
                        }
                    }
                    Some(Err(e)) => panic!("sim client {ci} op {op}: {e}"),
                    None => return ActorPoll::IdleUntil(comp.deadline()),
                }
            } else {
                let tag = format!("c{ci}.o{op}");
                let body = sim_support::encode_echo(tag.as_bytes());
                // Hop latency varies from one transaction to the next,
                // so the latencies have a spread to take percentiles of.
                net.set_latency(Duration::from_micros(1_000 + 125 * ((ci + op) % 8) as u64));
                current = Some((client.trans_async(put_port, body), net.now()));
            }
        });
    }
    exec.run().expect("sim workload must not stall");
    drop(exec);
    let latencies = Rc::try_unwrap(latencies)
        .expect("actors dropped")
        .into_inner();
    assert_eq!(latencies.len(), clients * ops);
    (net, latencies)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Sim clock: seeded schedules, several interleaved clients.
    #[test]
    fn sim_traces_are_causal(seed in any::<u64>()) {
        let events = sim_workload(seed, 3, 2).0.obs().events();
        let spans = assert_traces_causal(&events, "sim");
        prop_assert_eq!(spans, 6, "one span per transaction");
    }
}

/// The registry agrees with the drivers: every completion a driver saw
/// is one `trans_completed` and one latency sample, and the drivers'
/// exact sorted-sample p50/p99/p999 each fall *inside* the bucket the
/// registry's histogram resolves the same per-mille to — the two
/// percentile paths compute the same statistic.
#[test]
fn sim_metrics_registry_agrees_with_the_drivers() {
    let (net, mut latencies) = sim_workload(0x5EED_00B5, 8, 400);
    latencies.sort_unstable();
    assert!(latencies[0] < latencies[latencies.len() - 1]);
    let completed = latencies.len() as u64;
    let snapshot = net.obs().snapshot().expect("recorder enabled");
    assert_eq!(snapshot.trans_completed, completed);
    assert_eq!(snapshot.latency_count, snapshot.trans_completed);
    let histogram = &net
        .obs()
        .metrics()
        .expect("recorder enabled")
        .trans_latency_ns;
    for per_mille in [500, 990, 999] {
        let rank = (completed * per_mille).div_ceil(1000).max(1);
        let exact = latencies[rank as usize - 1];
        let (lo, hi) = histogram.percentile_bounds(per_mille).expect("samples");
        assert!(
            lo <= exact && (exact < hi || hi == u64::MAX),
            "p{per_mille}: drivers measured {exact} ns, registry bucket is [{lo}, {hi}) ns"
        );
    }
}

/// Wall clock: real time, real thread scheduling. Not proptest-swept —
/// wall-clock runs cost real milliseconds, one pass is the point.
#[test]
fn wall_traces_are_causal() {
    let events = threaded_workload(3);
    let spans = assert_traces_causal(&events, "wall");
    assert_eq!(spans, 3);
}

/// A batched path resolution records one `PathResolve` span event —
/// operands (hops, segments consumed) — threaded under the trace id of
/// its FIRST hop, without breaking span causality.
#[test]
fn resolve_records_a_path_span_under_the_first_hop_trace() {
    let net = Network::new();
    net.obs().enable();
    let s1 = ServiceRunner::spawn_open(&net, DirServer::new(SchemeKind::OneWay));
    let s2 = ServiceRunner::spawn_open(&net, DirServer::new(SchemeKind::Commutative));
    let dirs = DirClient::open(&net, s1.put_port());

    // root/a on server 1; b/c on server 2 → exactly two hops.
    let root = dirs.create_dir_on(s1.put_port()).unwrap();
    let a = dirs.create_dir_on(s1.put_port()).unwrap();
    let b = dirs.create_dir_on(s2.put_port()).unwrap();
    let c = dirs.create_dir_on(s2.put_port()).unwrap();
    dirs.enter(&root, "a", &a).unwrap();
    dirs.enter(&a, "b", &b).unwrap();
    dirs.enter(&b, "c", &c).unwrap();

    assert_eq!(dirs.resolve(&root, "a/b/c").unwrap(), c);
    let events = net.obs().events();

    let resolves: Vec<&FlightEvent> = events
        .iter()
        .filter(|e| e.kind == EventKind::PathResolve)
        .collect();
    assert_eq!(resolves.len(), 1, "one span event per resolution");
    let span = resolves[0];
    assert_eq!(span.a, 2, "two server hops for the cross-server chain");
    assert_eq!(span.b, 3, "all three segments consumed");
    assert_ne!(span.trace, 0, "threaded from the first hop's trace");
    assert!(
        events
            .iter()
            .any(|e| e.trace == span.trace && e.kind == EventKind::TransStart),
        "the span's trace id must belong to a recorded transaction"
    );
    // The extra span event must not disturb per-transaction causality.
    assert!(assert_traces_causal(&events, "resolve") >= 2);
    s1.stop();
    s2.stop();
}
