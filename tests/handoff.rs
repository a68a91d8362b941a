//! The cross-thread hand-off, outside the benchmark: two machines on
//! two threads play ping-pong over bare endpoints on the wall clock —
//! alone, and beside busy neighbours — and a client calls an echo
//! service through a service that forwards; the network's queue meter
//! says how each frame changed hands — pushed, woken for, parked for,
//! or taken by a receiver that spun or yielded.

use amoeba::net::RecvError;
use amoeba::prelude::*;
use amoeba::server::proto::{Reply, Request};
use amoeba::server::{wire, RequestCtx, Service, ServiceClient, ServiceRunner};
use bytes::Bytes;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

const WARM_UP: u64 = 2_000;
const ROUND_TRIPS: u64 = 20_000;
/// Measured calls or round trips of the two scenarios that have no
/// verdict to wait for.
const FEWER: u64 = 3_000;

/// One scenario at a time: each is a statement about who gets the
/// cores, and the neighbours' busy loops would be in the others'.
fn the_host() -> MutexGuard<'static, ()> {
    static HOST: Mutex<()> = Mutex::new(());
    HOST.lock().unwrap_or_else(PoisonError::into_inner)
}

fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

fn port(n: u64) -> Port {
    Port::new(n).expect("48-bit port")
}

/// One line of the hand-off table: `hot` per one of `per` units, and
/// the spinners' looks per spin hit — 2.00 is an exchange in step with
/// the spin grid (one look at the tick the peer first sees the message,
/// one that finds the answer); above ≈ 2.1 the peer's step no longer
/// fits in a tick (`vendor/crossbeam`'s `SPIN_TICK_NANOS`, priced in
/// `docs/ARCHITECTURE.md`, "The frame path's budget"), or spins are
/// running out their bound. That is the ping-pong's reading; in the
/// chain the outer caller's spin spans the whole inner transaction, and
/// four or so is in step. Not a number (or `inf`: a probe looked) where
/// no spin hit: the threads shared a core.
fn row(what: &str, hot: &HotPathSnapshot, per: u64) {
    let each = |count: u64| count as f64 / per as f64;
    println!(
        "handoff {what} ({} cores): {:.3} pushes, {:.3} wakes, {:.3} parks, \
         {:.3} spin hits, {:.2} looks per spin hit, {:.3} yields, {:.3} yield hits",
        cores(),
        each(hot.queue_pushes),
        each(hot.queue_wakes),
        each(hot.queue_parks),
        each(hot.queue_spin_hits),
        hot.queue_spin_looks as f64 / hot.queue_spin_hits as f64,
        each(hot.queue_yields),
        each(hot.queue_yield_hits),
    );
}

/// One ping-pong: `WARM_UP` + `round_trips` echoes, every reply checked
/// against its request, then the server's machine is closed under its
/// blocked receive. Returns the hand-offs of the measured round trips.
fn ping_pong(round_trips: u64) -> HotPathSnapshot {
    let net = Network::new();
    let client = net.attach_open();
    let server = Arc::new(net.attach_open());
    let ping = server.claim(port(0x70_0001));
    let pong = client.claim(port(0x70_0002));

    let echo = {
        let server = Arc::clone(&server);
        std::thread::spawn(move || loop {
            match server.recv() {
                Ok(pkt) => server.send(Header::to(pong), pkt.payload),
                Err(e) => return e,
            };
        })
    };

    let mut before = net.hot_path();
    for n in 0..WARM_UP + round_trips {
        if n == WARM_UP {
            before = net.hot_path();
        }
        client.send(Header::to(ping), Bytes::copy_from_slice(&n.to_le_bytes()));
        let reply = client.recv().expect("echo");
        assert_eq!(&reply.payload[..], &n.to_le_bytes()[..], "round trip {n}");
    }
    let hot = net.hot_path() - before;

    // The server is back in its receive — spinning, if that was paying,
    // or parked. Closing its machine must end either.
    server.close();
    assert_eq!(echo.join().expect("echo thread"), RecvError::Disconnected);
    hot
}

#[test]
fn a_warm_round_trip_never_pays_two_wakes() {
    let _host = the_host();
    let mut wakes_per_trip = Vec::new();
    for attempt in 1..=5 {
        let hot = ping_pong(ROUND_TRIPS);
        row(
            &format!("attempt {attempt}, per round trip"),
            &hot,
            ROUND_TRIPS,
        );
        assert_eq!(hot.queue_pushes, 2 * ROUND_TRIPS, "one push per frame");
        assert!(hot.queue_wakes <= hot.queue_pushes);
        assert!(hot.queue_yield_hits <= hot.queue_yields);
        let per_trip = hot.queue_wakes as f64 / ROUND_TRIPS as f64;
        wakes_per_trip.push(per_trip);
        // A share, not a time: a loaded host can delay the verdict
        // (hence five attempts) but cannot fake it. Where the threads
        // run is the scheduler's choice. Sharing a core, no spin can
        // hit and a round trip starts out at about one wake and one
        // park; a receiver about to park yields instead while that
        // brings its message, and once both sides do there is neither
        // (some 15 000 round trips in: the spin's early probes each
        // cost the other side's yield its bound). On two cores both
        // receivers spin once warm and the wakes vanish. What must not
        // survive the warm-up is two cores *and* two wakes per round
        // trip — the parked cross-core hand-off, at 36–42 µs many times
        // the spinning pair's two ticks (`SPIN_TICK_NANOS`; see
        // `docs/ARCHITECTURE.md`, "The frame path's budget") and
        // fifteen times the yielding pair's two `sched_yield`s.
        if per_trip < 1.5 {
            return;
        }
    }
    panic!(
        "wakes per round trip on {} cores, five attempts: {wakes_per_trip:?}",
        cores()
    );
}

/// Forwards every request to the service at `next`, through a client
/// of its own: a server that is also a client, like the file server
/// that charges the bank.
struct Forward {
    client: ServiceClient,
    next: Port,
}

impl Service for Forward {
    fn handle(&self, req: &Request, _ctx: &RequestCtx) -> Reply {
        match self
            .client
            .call_anonymous(self.next, req.command, req.params.clone())
        {
            Ok(body) => Reply::ok(body),
            Err(e) => panic!("forwarded call: {e:?}"),
        }
    }
}

struct Echo;

impl Service for Echo {
    fn handle(&self, req: &Request, _ctx: &RequestCtx) -> Reply {
        Reply::ok(req.params.clone())
    }
}

/// The nested call: client → forwarding service → echo service, three
/// threads and two transactions per call. Four frames, so four pushes,
/// whoever runs where; how many of them cost a wake is the scheduler's
/// doing and is printed, not asserted — on a shared core the preempted
/// client used to get the core back in mid-chain, find nothing and
/// park (3.4 wakes per call where two transactions alone cost 2.1).
#[test]
fn a_chained_call_is_four_pushes_and_no_more_wakes_than_that() {
    let _host = the_host();
    let net = Network::new();
    let echo = ServiceRunner::spawn_open(&net, Echo);
    let forward = ServiceRunner::spawn_open(
        &net,
        Forward {
            client: ServiceClient::open(&net),
            next: echo.put_port(),
        },
    );
    let client = ServiceClient::open(&net);
    let mut before = net.hot_path();
    for n in 0..WARM_UP + FEWER {
        if n == WARM_UP {
            before = net.hot_path();
        }
        let body = client
            .call_anonymous(
                forward.put_port(),
                0xEC40,
                wire::Writer::new().u64(n).finish(),
            )
            .expect("chained echo");
        assert_eq!(body[..], n.to_be_bytes(), "call {n}");
    }
    let hot = net.hot_path() - before;
    forward.stop();
    echo.stop();
    row("chain, per chained call", &hot, FEWER);
    assert_eq!(hot.queue_pushes, 4 * FEWER, "one push per frame");
    assert_eq!(hot.frames_sent, hot.queue_pushes);
    assert!(hot.queue_wakes <= hot.queue_pushes);
    assert!(hot.queue_yield_hits <= hot.queue_yields);
}

/// The neighbour case: the same ping-pong with a busy-looping thread
/// for every core, so whichever core the pair lands on, a yield there
/// hands it to a thread that keeps it for a scheduler slice. Such a
/// yield comes back late and is scored a miss whatever it finds, and
/// the next is 8192 parks away: yields must stay a small share of the
/// receives, or the rule that saves a futex pair would be costing a
/// slice per message. A count, not a time.
#[test]
fn busy_neighbours_stop_the_yielding() {
    let _host = the_host();
    // Plain threads, not scoped ones: if the ping-pong panics they
    // are left spinning until the process exits, not joined for ever.
    let stop = Arc::new(AtomicBool::new(false));
    let neighbours: Vec<_> = (0..cores())
        .map(|_| {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    std::hint::spin_loop();
                }
            })
        })
        .collect();
    let hot = ping_pong(FEWER);
    stop.store(true, Ordering::Relaxed);
    for neighbour in neighbours {
        neighbour.join().expect("neighbour");
    }
    row(
        &format!("beside {} busy neighbours, per round trip", cores()),
        &hot,
        FEWER,
    );
    assert_eq!(hot.queue_pushes, 2 * FEWER, "one push per frame");
    // Every push is one blocking receive.
    assert!(
        hot.queue_yields * 10 <= hot.queue_pushes,
        "yields are over a tenth of the receives: {hot:?}"
    );
}
