//! The cross-thread hand-off, outside the benchmark: two machines on
//! two threads play ping-pong over bare endpoints on the wall clock,
//! and the network's queue meter says how each frame changed hands —
//! pushed, woken for, parked for, or taken by a spinning receiver.

use amoeba::net::RecvError;
use amoeba::prelude::*;
use bytes::Bytes;
use std::sync::Arc;

const WARM_UP: u64 = 2_000;
const ROUND_TRIPS: u64 = 20_000;

fn port(n: u64) -> Port {
    Port::new(n).expect("48-bit port")
}

/// One ping-pong: `WARM_UP` + `ROUND_TRIPS` echoes, every reply checked
/// against its request, then the server's machine is closed under its
/// blocked receive. Returns the hand-offs of the measured round trips.
fn ping_pong() -> HotPathSnapshot {
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
    for n in 0..WARM_UP + ROUND_TRIPS {
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
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let mut wakes_per_trip = Vec::new();
    for attempt in 1..=5 {
        let hot = ping_pong();
        let per_trip = |count: u64| count as f64 / ROUND_TRIPS as f64;
        println!(
            "handoff attempt {attempt} ({cores} cores), per round trip: {:.3} pushes, \
             {:.3} wakes, {:.3} parks, {:.3} spin hits",
            per_trip(hot.queue_pushes),
            per_trip(hot.queue_wakes),
            per_trip(hot.queue_parks),
            per_trip(hot.queue_spin_hits),
        );
        assert_eq!(hot.queue_pushes, 2 * ROUND_TRIPS, "one push per frame");
        assert!(hot.queue_wakes <= hot.queue_pushes);
        wakes_per_trip.push(per_trip(hot.queue_wakes));
        // A share, not a time: a loaded host can delay the verdict
        // (hence five attempts) but cannot fake it. Where the threads
        // run is the scheduler's choice. Sharing a core, a round trip
        // costs about one wake and one park, and no spin can hit; on
        // two cores both receivers spin once warm and the wakes vanish.
        // What must not survive the warm-up is two cores *and* two
        // wakes per round trip — the parked cross-core hand-off, ten
        // times the cost of either.
        if per_trip(hot.queue_wakes) < 1.5 {
            return;
        }
    }
    panic!("wakes per round trip on {cores} cores, five attempts: {wakes_per_trip:?}");
}
