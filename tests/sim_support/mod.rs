//! Shared harness for the deterministic-simulation tests: an echo
//! cluster plus poll-driven client actors, the whole scenario a pure
//! function of a `u64` seed.
//!
//! Every invariant the threaded integration tests check by hammering
//! real schedules is asserted here under *adversarial* seeded
//! schedules instead: replies must never alias across transactions,
//! recycled reply ports or client lifetimes (each request carries a
//! unique body the echo service mirrors back), every transaction must
//! eventually complete despite loss/duplication/crash windows (the
//! plan's faults are bounded in time), and two runs of one seed must
//! produce identical event fingerprints.

// Shared by several integration-test binaries; not every binary uses
// every helper or reads every report field.
#![allow(dead_code)]

use amoeba::net::splitmix64;
use amoeba::prelude::*;
use amoeba::rpc::{Client, RpcError};
use amoeba::server::proto::{null_cap, Reply, Request, Status};
use bytes::{Bytes, BytesMut};
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Duration;

/// The echo command (anything the std handler doesn't claim).
pub const ECHO_CMD: u32 = 0x0E_C0;

/// The fixed service get-port (explicit: sim mode draws no entropy).
pub fn service_port() -> Port {
    Port::new(0xA0EB_A5E1).unwrap()
}

/// Mirrors each request's params back — the aliasing canary: a client
/// that ever receives a body it did not send this transaction has
/// caught a recycled-port or demux soundness bug.
pub struct EchoService;

impl Service for EchoService {
    fn handle(&self, req: &Request, _ctx: &RequestCtx) -> Reply {
        Reply::ok(req.params.clone())
    }
}

/// What one seeded scenario run observed.
#[derive(Debug, Clone)]
pub struct ScenarioReport {
    /// `(fnv1a_hash, event_count)` over the full delivery schedule.
    pub fingerprint: (u64, u64),
    /// Cumulative fault-injection counters.
    pub counters: FaultCounters,
    /// Transactions that completed with a verified echo.
    pub completed: u64,
    /// Full-attempt timeouts that were retried as a fresh transaction.
    pub timeouts: u64,
    /// The network traffic counters at the end of the run — part of the
    /// determinism contract: two runs of one seed must not just deliver
    /// the same events, they must *send* the same packets.
    pub stats: StatsSnapshot,
    /// The live metrics registry at the end of the run (the recorder is
    /// always enabled for scenarios, so a failing seed dumps a flight
    /// recording with the injected faults on its timeline).
    pub metrics: MetricsSnapshot,
    /// The raw event log (empty unless `record_log` was set).
    pub log: Vec<u8>,
}

/// Encodes one echo request carrying `tag` as its body.
pub fn encode_echo(tag: &[u8]) -> Bytes {
    let req = Request {
        cap: null_cap(),
        command: ECHO_CMD,
        params: Bytes::copy_from_slice(tag),
    };
    let mut buf = BytesMut::new();
    req.encode_into(&mut buf);
    buf.freeze()
}

#[derive(Debug, Default)]
struct WaveStats {
    completed: u64,
    timeouts: u64,
}

/// A transaction may legitimately time out many times while a fault
/// window covers its path; all windows end by ~500 ms of simulated
/// time, so a bounded retry budget distinguishes "rode out the faults"
/// from a genuine liveness bug.
const MAX_LOGICAL_RETRIES: u32 = 60;

/// Runs one wave of poll-driven clients against the replica set and
/// returns its stats. Clients are owned by an arena that outlives the
/// executor (completions borrow their client).
fn run_wave(
    net: &Network,
    replicas: &SimReplicaSet,
    wave_seed: u64,
    clients: usize,
    ops_per_client: usize,
) -> WaveStats {
    let mut seed = wave_seed;
    let arena: Vec<Client> = (0..clients)
        .map(|_| {
            Client::with_config(
                net.attach_open(),
                RpcConfig {
                    timeout: Duration::from_millis(25),
                    attempts: 10,
                },
            )
            .with_rng_seed(splitmix64(&mut seed))
        })
        .collect();
    // The first few client machines become fault targets after the
    // replicas, so seeded crash windows can kill a client
    // mid-transaction (its in-flight request or reply dies with it).
    for (i, client) in arena.iter().take(3).enumerate() {
        net.sim_bind_fault_target(replicas.replicas() + i, client.endpoint().id());
    }

    let stats = Rc::new(RefCell::new(WaveStats::default()));
    let mut exec = SimExecutor::new(net);
    replicas.spawn_actors(&mut exec);
    let port = replicas.put_port();
    for (ci, client) in arena.iter().enumerate() {
        let stats = Rc::clone(&stats);
        let mut op = 0usize;
        let mut retries = 0u32;
        let mut current: Option<(amoeba::rpc::Completion<'_, Bytes>, Bytes)> = None;
        exec.spawn(client.endpoint().id(), move || loop {
            if let Some((comp, expected)) = current.as_mut() {
                match comp.poll() {
                    Some(Ok(raw)) => {
                        let reply = Reply::decode(&raw).expect("echo reply decodes");
                        assert_eq!(reply.status, Status::Ok);
                        assert_eq!(
                            reply.body, *expected,
                            "reply aliasing: client {ci} op {op} got a body from \
                             another transaction"
                        );
                        stats.borrow_mut().completed += 1;
                        current = None;
                        retries = 0;
                        op += 1;
                        if op == ops_per_client {
                            return ActorPoll::Done;
                        }
                    }
                    Some(Err(RpcError::Timeout)) => {
                        stats.borrow_mut().timeouts += 1;
                        retries += 1;
                        assert!(
                            retries <= MAX_LOGICAL_RETRIES,
                            "client {ci} op {op} starved: {retries} full-attempt \
                             timeouts (liveness bug, not fault noise)"
                        );
                        current = None;
                    }
                    Some(Err(e)) => panic!("client {ci} op {op}: {e}"),
                    None => return ActorPoll::IdleUntil(comp.deadline()),
                }
            } else {
                let tag = format!("c{ci}.o{op}.r{retries}");
                let body = encode_echo(tag.as_bytes());
                let comp = client.trans_async(port, body);
                current = Some((comp, Bytes::copy_from_slice(tag.as_bytes())));
            }
        });
    }
    exec.run().unwrap_or_else(|stall| {
        panic!("wave stalled: {stall}");
    });
    drop(exec);
    drop(arena);
    Rc::try_unwrap(stats).expect("actors dropped").into_inner()
}

/// Runs the full seeded scenario: a 3-replica echo cluster, two waves
/// of clients (the second cold-starts — fresh reply ports, no learned
/// routes — while the first wave's stragglers may still be on the
/// wire: client churn under faults), all scheduling and faults drawn
/// from `seed`.
pub fn run_scenario(
    seed: u64,
    plan: FaultPlan,
    clients_per_wave: usize,
    ops_per_client: usize,
    record_log: bool,
) -> ScenarioReport {
    let net = Network::new_sim_with_plan(seed, plan);
    net.set_latency(Duration::from_millis(1));
    // The flight recorder rides every scenario: when a seed fails (any
    // panic — aliasing canary, liveness budget, stall), the recording
    // is dumped to stderr and, when `OBS_DUMP_DIR` is set, to a JSON
    // file CI uploads as an artifact. Recording never touches the sim
    // RNG, fingerprint or byte log, so determinism is unaffected.
    net.obs().enable();
    if record_log {
        net.sim_record_log(true);
    }
    let replicas = SimReplicaSet::bind(&net, service_port(), 3, |_| EchoService);

    let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let mut totals = WaveStats::default();
        for wave in 0..2u64 {
            let w = run_wave(
                &net,
                &replicas,
                seed ^ (0x57A6E << 8) ^ wave,
                clients_per_wave,
                ops_per_client,
            );
            totals.completed += w.completed;
            totals.timeouts += w.timeouts;
        }
        totals
    }));
    let totals = match run {
        Ok(totals) => totals,
        Err(panic) => {
            net.obs().dump(&format!("scenario seed {seed:#x} panicked"));
            std::panic::resume_unwind(panic);
        }
    };

    let expected = 2 * (clients_per_wave * ops_per_client) as u64;
    assert_eq!(
        totals.completed, expected,
        "every transaction must complete once the fault windows pass"
    );
    ScenarioReport {
        fingerprint: net.sim_fingerprint(),
        counters: net.sim_fault_counters(),
        completed: totals.completed,
        timeouts: totals.timeouts,
        stats: net.stats().snapshot(),
        metrics: net.obs().snapshot().expect("recorder enabled above"),
        log: if record_log {
            net.sim_take_log()
        } else {
            Vec::new()
        },
    }
}
