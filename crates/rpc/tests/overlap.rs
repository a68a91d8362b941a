//! Overlap of concurrent transactions, on the deterministic simulator:
//! modelled latency shows up on the timeline, flows that the model runs
//! in parallel cost one round trip together, and — the schedule being
//! a function of the seed — the figures are equalities.

use amoeba_net::{ActorPoll, Network, Port, SimExecutor, Timestamp};
use amoeba_rpc::{Client, Completion, IncomingRequest, RpcConfig, ServerPort};
use bytes::Bytes;
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Duration;

const HOP: Duration = Duration::from_millis(200);

fn patient() -> RpcConfig {
    RpcConfig {
        timeout: Duration::from_secs(60),
        attempts: 2,
    }
}

/// What a daemon that serves whatever has arrived reports.
fn progress_if(any: bool) -> ActorPoll {
    if any {
        ActorPoll::Progress
    } else {
        ActorPoll::Idle
    }
}

/// A daemon that answers every request on `server` with its payload.
fn spawn_echo<'a>(exec: &mut SimExecutor<'a>, server: &'a ServerPort) {
    exec.spawn_daemon(server.endpoint().id(), move || {
        let mut served = false;
        while let Some(req) = server.poll_request() {
            server.reply(&req, req.payload.clone());
            served = true;
        }
        progress_if(served)
    });
}

/// What a run observed: the timeline cost and the schedule fingerprint.
type Run = (Duration, (u64, u64));

/// A request the frontend holds while its backend transaction is out.
type InnerCall<'c> = (IncomingRequest, Completion<'c, Bytes>);

/// Four concurrent transactions on one shared client cost one RTT of
/// timeline, not four: the demux overlaps them.
fn four_on_one_client(seed: u64) -> Run {
    let net = Network::new_sim(seed);
    let server = ServerPort::bind(net.attach_open(), Port::new(0xEE).unwrap());
    let p = server.put_port();
    let client = Client::with_config(net.attach_open(), patient()).with_rng_seed(seed);
    net.set_latency(HOP);
    let v0 = net.now();

    let mut exec = SimExecutor::new(&net);
    spawn_echo(&mut exec, &server);
    let mut calls: Vec<(Bytes, Completion<'_, Bytes>)> = (0..4u32)
        .map(|i| {
            let body = Bytes::from(i.to_be_bytes().to_vec());
            (body.clone(), client.trans_async(p, body))
        })
        .collect();
    exec.spawn(client.endpoint().id(), move || {
        calls.retain_mut(|(body, call)| match call.poll() {
            Some(reply) => {
                assert_eq!(reply.unwrap(), *body);
                false
            }
            None => true,
        });
        match calls.iter().map(|(_, call)| call.deadline()).min() {
            Some(deadline) => ActorPoll::IdleUntil(deadline),
            None => ActorPoll::Done,
        }
    });
    exec.run().expect("no stall");
    (net.now() - v0, net.sim_fingerprint())
}

#[test]
fn concurrent_trans_on_one_client_cost_one_rtt() {
    let (elapsed, fingerprint) = four_on_one_client(7);
    assert_eq!(
        elapsed,
        2 * HOP,
        "four overlapped transactions cost exactly one round trip"
    );
    assert_eq!(four_on_one_client(7), (elapsed, fingerprint), "same seed");
}

/// The nested shape (a frontend calling a backend through one shared
/// embedded client — the metered-create pattern): four outer calls
/// cost two RTTs of timeline, not five.
fn four_nested(seed: u64) -> Run {
    let net = Network::new_sim(seed);
    let backend = ServerPort::bind(net.attach_open(), Port::new(0xB1).unwrap());
    let bp = backend.put_port();
    let frontend = ServerPort::bind(net.attach_open(), Port::new(0xF1).unwrap());
    let fp = frontend.put_port();
    let nested = Client::with_config(net.attach_open(), patient()).with_rng_seed(seed);
    let outer: Vec<Client> = (1..=4)
        .map(|i| Client::with_config(net.attach_open(), patient()).with_rng_seed(seed ^ i))
        .collect();
    net.set_latency(HOP);
    let v0 = net.now();

    let mut exec = SimExecutor::new(&net);
    spawn_echo(&mut exec, &backend);
    // The frontend is two actors over one list of inner transactions,
    // because it listens on two machines: requests arrive at its port,
    // the backend's answers at its embedded client.
    let inner: Rc<RefCell<Vec<InnerCall<'_>>>> = Rc::default();
    {
        let (inner, frontend, nested) = (Rc::clone(&inner), &frontend, &nested);
        exec.spawn_daemon(frontend.endpoint().id(), move || {
            let mut accepted = false;
            while let Some(req) = frontend.poll_request() {
                let call = nested.trans_async(bp, req.payload.clone());
                inner.borrow_mut().push((req, call));
                accepted = true;
            }
            progress_if(accepted)
        });
    }
    {
        let (inner, frontend) = (Rc::clone(&inner), &frontend);
        exec.spawn_daemon(nested.endpoint().id(), move || {
            let mut inner = inner.borrow_mut();
            inner.retain_mut(|(req, call)| match call.poll() {
                Some(reply) => {
                    frontend.reply(req, reply.unwrap());
                    false
                }
                None => true,
            });
            match inner.iter().map(|(_, call)| call.deadline()).min() {
                Some(deadline) => ActorPoll::IdleUntil(deadline),
                None => ActorPoll::Idle,
            }
        });
    }
    let finished: Rc<RefCell<Vec<Timestamp>>> = Rc::default();
    for (i, client) in outer.iter().enumerate() {
        let body = Bytes::from((i as u32).to_be_bytes().to_vec());
        let mut call = client.trans_async(fp, body.clone());
        let (net, finished) = (net.clone(), Rc::clone(&finished));
        exec.spawn(client.endpoint().id(), move || match call.poll() {
            Some(reply) => {
                assert_eq!(reply.unwrap(), body);
                finished.borrow_mut().push(net.now());
                ActorPoll::Done
            }
            None => ActorPoll::IdleUntil(call.deadline()),
        });
    }
    exec.run().expect("no stall");
    assert_eq!(
        *finished.borrow(),
        vec![v0 + 4 * HOP; 4],
        "every outer call finishes at the same instant"
    );
    (net.now() - v0, net.sim_fingerprint())
}

#[test]
fn nested_service_calls_overlap() {
    let (elapsed, fingerprint) = four_nested(11);
    assert_eq!(
        elapsed,
        4 * HOP,
        "four nested calls cost exactly two round trips"
    );
    assert_eq!(four_nested(11), (elapsed, fingerprint), "same seed");
}
