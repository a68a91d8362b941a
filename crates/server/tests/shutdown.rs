//! Shutdown wakes idle workers at once, plain and sealed. These checks
//! time a few milliseconds of wall clock, so they sit in a test binary
//! of their own and hold one lock while they run: no other test's
//! threads compete with a shutdown for the CPU.

use amoeba_crypto::SecretStream;
use amoeba_net::{Network, Port};
use amoeba_server::proto::{Reply, Request, Status};
use amoeba_server::{RequestCtx, Service, ServiceRunner};
use amoeba_softprot::{CapSealer, KeyMatrix};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Held by each test for its whole run.
fn alone() -> MutexGuard<'static, ()> {
    static ALONE: Mutex<()> = Mutex::new(());
    ALONE
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// A service that is never called: only its workers' shutdown is timed.
struct Idle;

impl Service for Idle {
    fn handle(&self, _req: &Request, _ctx: &RequestCtx) -> Reply {
        Reply::status(Status::BadCommand)
    }
}

/// Shutdown must wake idle workers, not wait out a tick of theirs:
/// ten runners are spawned, left to go idle and ended by `end`
/// (`stop` or drop); at least nine must end within 5 ms (one
/// straggler is allowed to a loaded host). With the former 20 ms
/// idle tick three in four would miss the bound.
fn assert_ends_promptly<R>(spawn: impl Fn() -> R, end: impl Fn(R)) {
    let slow = (0..10)
        .filter(|_| {
            let runner = spawn();
            // Let every worker reach its blocking wait (the bound
            // holds either way; parked is the case worth timing).
            std::thread::sleep(Duration::from_millis(2));
            let t0 = Instant::now();
            end(runner);
            t0.elapsed() >= Duration::from_millis(5)
        })
        .count();
    assert!(slow <= 1, "{slow} of 10 shutdowns took 5 ms or more");
}

#[test]
fn stop_and_drop_wake_idle_workers() {
    let _alone = alone();
    for workers in [1, 4] {
        let net = Network::new();
        let spawn = || ServiceRunner::spawn_open_workers(&net, Idle, workers);
        assert_ends_promptly(spawn, ServiceRunner::stop);
        assert_ends_promptly(spawn, drop);
    }
}

#[test]
fn stop_and_drop_wake_idle_sealed_workers() {
    let _alone = alone();
    for workers in [1, 4] {
        let net = Network::new();
        let spawn = || {
            let endpoint = net.attach_open();
            let sealer = Arc::new(CapSealer::new(
                KeyMatrix::random(&[endpoint.id()], &mut SecretStream::from_seed(1))
                    .view_for(endpoint.id()),
            ));
            let port = Port::new(0x5EA1).unwrap();
            ServiceRunner::spawn_sealed(endpoint, port, Idle, sealer, workers)
        };
        assert_ends_promptly(spawn, ServiceRunner::stop);
        assert_ends_promptly(spawn, drop);
    }
}
