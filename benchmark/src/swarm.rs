//! `swarm_sim`: an open-loop swarm of logical clients against polled
//! echo shards, on the deterministic simulation executor.
//!
//! No threads run: every arrival, transmission and reply is an event on
//! the modelled timeline, so latency is exact in modelled time and two
//! runs of one schedule must agree event for event. A driver serves its
//! arrival queue serially; latency runs from the *scheduled* arrival, so
//! it includes the wait a busy driver imposes.

use crate::gen::SplitMix64;
use crate::rig;
use amoeba_net::{ActorPoll, MetricsSnapshot, StatsSnapshot, Timestamp};
use amoeba_rpc::{Completion, RpcError};
use amoeba_server::proto::{null_cap, Reply, Request, Status};
use bytes::{Bytes, BytesMut};
use std::cell::RefCell;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Logical clients per repetition, each contributing one transaction.
pub const CLIENTS: usize = 100_000;
const SHARDS: usize = 8;
const DRIVERS: usize = 64;
/// One-way wire latency: an uncontended echo round trip is 2 ms.
const WIRE_LATENCY: Duration = Duration::from_millis(1);
/// Arrivals are uniform over a window of 50 µs per client: an offered
/// load of 20 000 transactions per modelled second.
const WINDOW_PER_CLIENT: Duration = Duration::from_micros(50);

#[derive(Debug, Clone, Copy)]
struct Arrival {
    at: Timestamp,
    shard: usize,
}

/// The generated input of one swarm: who sends what, when.
#[derive(Debug, Clone)]
pub struct Schedule {
    /// Per driver, its clients' arrivals in time order.
    queues: Vec<Vec<Arrival>>,
    driver_seeds: Vec<u64>,
    sim_seed: u64,
}

impl Schedule {
    pub fn generate(seed: u64) -> Schedule {
        let mut rng = SplitMix64::new(seed ^ 0x5AA2_A221_7A15_0000);
        let window = (WINDOW_PER_CLIENT * CLIENTS as u32).as_nanos() as u64;
        let mut queues = vec![Vec::new(); DRIVERS];
        for client in 0..CLIENTS {
            let at = Timestamp::ZERO + Duration::from_nanos(rng.next() % window);
            let shard = (rng.next() % SHARDS as u64) as usize;
            queues[client % DRIVERS].push(Arrival { at, shard });
        }
        for queue in &mut queues {
            queue.sort_unstable_by_key(|a| a.at);
        }
        Schedule {
            queues,
            driver_seeds: (0..DRIVERS).map(|_| rng.next()).collect(),
            sim_seed: rng.next(),
        }
    }
}

/// What one repetition produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outcome {
    /// Modelled latency per completed transaction, ns, ascending.
    pub latencies_ns: Vec<u64>,
    /// Attempt timeouts the drivers retried (driver overload; the plan
    /// injects no loss).
    pub timeouts: u64,
    /// Modelled time at which the last transaction completed.
    pub model_elapsed: Duration,
    pub events: u64,
    pub event_hash: u64,
}

/// One repetition's outcome plus what it cost the host.
pub struct Repetition {
    pub outcome: Outcome,
    pub setup: Duration,
    pub wall: Duration,
    pub frames: StatsSnapshot,
    /// Present when the repetition ran with the recorder on.
    pub metrics: Option<MetricsSnapshot>,
}

/// Runs `schedule` once, start to finish. Set-up is everything before
/// the first event: the rig and the actors.
///
/// # Panics
/// Panics if the simulation stalls or a reply fails to decode: both are
/// bugs in the program under test that no metric should paper over.
pub fn run(schedule: &Schedule, traced: bool) -> Repetition {
    let t0 = Instant::now();
    let swarm = rig::Swarm::build(
        schedule.sim_seed,
        WIRE_LATENCY,
        SHARDS,
        &schedule.driver_seeds,
    );
    if traced {
        swarm.net.obs().enable();
    }
    let ports: Vec<_> = swarm.pumps.iter().map(|p| p.put_port()).collect();
    // The request is identical for every transaction (the reply port
    // tells them apart), so it is encoded once.
    let body = {
        let mut buf = BytesMut::new();
        Request {
            cap: null_cap(),
            command: rig::ECHO_COMMAND,
            params: Bytes::new(),
        }
        .encode_into(&mut buf);
        buf.freeze()
    };
    let tally = RefCell::new((Vec::with_capacity(CLIENTS), 0u64));

    let mut exec = amoeba_net::SimExecutor::new(&swarm.net);
    for pump in &swarm.pumps {
        let pump = Arc::clone(pump);
        exec.spawn_daemon(pump.machine(), move || {
            if pump.poll() {
                ActorPoll::Progress
            } else {
                ActorPoll::Idle
            }
        });
    }
    for (client, queue) in swarm.drivers.iter().zip(&schedule.queues) {
        let (net, ports, body, tally) = (&swarm.net, &ports, &body, &tally);
        let mut next = 0usize;
        let mut current: Option<(Completion<'_, Bytes>, Timestamp)> = None;
        exec.spawn(client.endpoint().id(), move || loop {
            if let Some((completion, arrival)) = current.as_mut() {
                match completion.poll() {
                    Some(Ok(raw)) => {
                        let reply = Reply::decode(&raw).expect("echo reply decodes");
                        assert_eq!(reply.status, Status::Ok, "echo shard refused");
                        let latency = net.now().saturating_duration_since(*arrival);
                        tally.borrow_mut().0.push(latency.as_nanos() as u64);
                        current = None;
                        next += 1;
                    }
                    Some(Err(RpcError::Timeout)) => {
                        // Retry the same arrival; its latency keeps
                        // accruing from the scheduled time.
                        tally.borrow_mut().1 += 1;
                        let arrival = *arrival;
                        let retry = client.trans_async(ports[queue[next].shard], body.clone());
                        current = Some((retry, arrival));
                    }
                    Some(Err(e)) => panic!("swarm driver: {e}"),
                    None => return ActorPoll::IdleUntil(completion.deadline()),
                }
            } else if next == queue.len() {
                return ActorPoll::Done;
            } else {
                let arrival = queue[next];
                if net.now() < arrival.at {
                    return ActorPoll::IdleUntil(arrival.at);
                }
                let completion = client.trans_async(ports[arrival.shard], body.clone());
                current = Some((completion, arrival.at));
            }
        });
    }
    let setup = t0.elapsed();

    let t1 = Instant::now();
    exec.run()
        .unwrap_or_else(|stall| panic!("swarm stalled: {stall}"));
    let wall = t1.elapsed();
    drop(exec);

    let (mut latencies_ns, timeouts) = tally.into_inner();
    latencies_ns.sort_unstable();
    let (event_hash, events) = swarm.net.sim_fingerprint();
    Repetition {
        outcome: Outcome {
            latencies_ns,
            timeouts,
            model_elapsed: swarm.net.now().since_epoch(),
            events,
            event_hash,
        },
        setup,
        wall,
        frames: swarm.net.stats().snapshot(),
        metrics: swarm.net.obs().snapshot(),
    }
}
