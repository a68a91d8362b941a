//! Failure injection: the connectionless RPC design under loss, delay
//! and server restart. §2.1's "no connections or virtual circuits or
//! any other long-lived communication structures" means recovery needs
//! no state machinery — a retransmitted request either reaches a server
//! or it does not.
//!
//! The threaded tests run a `FaultPlan` on the wall clock: seeded, but
//! not replayable across thread interleavings. The seeded variants at
//! the bottom run the same failure classes through the deterministic
//! simulation, where the schedule is exact, replayable, and adversarial
//! (see `tests/sim_fault_plans.rs`).

mod sim_support;

use amoeba::prelude::*;
use sim_support::run_scenario;
use std::time::Duration;

fn patient() -> RpcConfig {
    RpcConfig {
        timeout: Duration::from_millis(40),
        attempts: 50,
    }
}

#[test]
fn rpc_completes_under_heavy_loss() {
    let plan = FaultPlan {
        loss_per_mille: 500,
        ..FaultPlan::quiet()
    };
    let net = Network::new_with_plan(1, plan);
    let runner = ServiceRunner::spawn_open(&net, FlatFsServer::new(SchemeKind::OneWay));
    let fs = FlatFsClient::with_service(
        ServiceClient::open_with_config(&net, patient()),
        runner.put_port(),
    );
    let cap = fs.create().expect("create at 50% loss");
    for i in 0..10u64 {
        fs.write(&cap, i * 3, b"abc").expect("write at 50% loss");
    }
    assert_eq!(fs.size(&cap).unwrap(), 9 * 3 + 3);
    runner.stop();
}

#[test]
fn writes_are_idempotent_under_duplication() {
    // At-least-once delivery duplicates operations; absolute-offset
    // writes are naturally idempotent, which is why the flat file
    // interface uses them (no append).
    let plan = FaultPlan {
        dup_per_mille: 500,
        ..FaultPlan::quiet()
    };
    let net = Network::new_with_plan(7, plan);
    let runner = ServiceRunner::spawn_open(&net, FlatFsServer::new(SchemeKind::Simple));
    let fs = FlatFsClient::with_service(ServiceClient::open(&net), runner.put_port());
    let cap = fs.create().unwrap();
    let before = net.stats().snapshot();
    for _ in 0..20 {
        // The same logical write twenty times, each frame duplicated
        // on the wire half the time...
        fs.write(&cap, 0, b"exactly these bytes").unwrap();
    }
    // ...leaves exactly one copy of the data.
    assert_eq!(fs.size(&cap).unwrap(), 19);
    assert_eq!(&fs.read(&cap, 0, 100).unwrap(), b"exactly these bytes");
    // Every frame since `create` is a unicast request or reply, which
    // at most one machine accepts: more copies landed than were sent.
    let wire = net.stats().snapshot() - before;
    assert!(
        wire.packets_delivered > wire.packets_sent,
        "duplicates must land: {wire:?}"
    );
    runner.stop();
}

#[test]
fn stale_capabilities_do_not_survive_a_fresh_server() {
    // Capabilities are pure data and outlive their server process; but
    // a *replacement* server with fresh per-object secrets must reject
    // them — holding the bits is worthless without the secrets.
    let net = Network::new();
    let runner1 = ServiceRunner::spawn_open(&net, FlatFsServer::new(SchemeKind::Commutative));
    let fs1 = FlatFsClient::with_service(ServiceClient::open(&net), runner1.put_port());
    let cap1 = fs1.create().unwrap();
    fs1.write(&cap1, 0, b"persistent?").unwrap();
    runner1.stop();

    let runner2 = ServiceRunner::spawn_open(&net, FlatFsServer::new(SchemeKind::Commutative));
    let fs2 = FlatFsClient::with_service(
        ServiceClient::open_with_config(
            &net,
            RpcConfig {
                timeout: Duration::from_millis(100),
                attempts: 2,
            },
        ),
        runner2.put_port(),
    );
    let rerouted = Capability::new(runner2.put_port(), cap1.object, cap1.rights, cap1.check);
    assert!(
        fs2.read(&rerouted, 0, 4).is_err(),
        "fresh secrets must reject the old capability"
    );
    runner2.stop();
}

#[test]
fn slow_network_still_correct() {
    let net = Network::new();
    net.set_latency(Duration::from_millis(5));
    let runner = ServiceRunner::spawn_open(&net, DirServer::new(SchemeKind::OneWay));
    let dirs = DirClient::with_service(
        ServiceClient::open_with_config(
            &net,
            RpcConfig {
                timeout: Duration::from_millis(500),
                attempts: 3,
            },
        ),
        runner.put_port(),
    );
    let d = dirs.create_dir().unwrap();
    let t = dirs.create_dir().unwrap();
    dirs.enter(&d, "slow", &t).unwrap();
    assert_eq!(dirs.lookup(&d, "slow").unwrap(), t);
    runner.stop();
}

#[test]
fn mixed_loss_and_latency_with_concurrent_clients() {
    let plan = FaultPlan {
        loss_per_mille: 200,
        ..FaultPlan::quiet()
    };
    let net = Network::new_with_plan(99, plan);
    net.set_latency(Duration::from_millis(1));
    let runner = ServiceRunner::spawn_open(&net, FlatFsServer::new(SchemeKind::OneWay));
    let port = runner.put_port();

    let mut handles = Vec::new();
    for t in 0..4u64 {
        let net = net.clone();
        handles.push(std::thread::spawn(move || {
            let fs =
                FlatFsClient::with_service(ServiceClient::open_with_config(&net, patient()), port);
            let cap = fs.create().expect("create");
            let body = format!("thread {t} data");
            fs.write(&cap, 0, body.as_bytes()).expect("write");
            assert_eq!(fs.read(&cap, 0, 64).expect("read"), body.as_bytes());
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    runner.stop();
}

// --- Seeded FaultPlan variants -------------------------------------
//
// The same failure classes as above, but the schedule is drawn from a
// seed and injected at the simulated delivery gate: exact, replayable,
// and counted. The harness itself asserts every transaction completes
// and no reply ever aliases across transactions.

/// Heavy loss as a *plan*, not a coin-flip on a live wire: every
/// dropped frame is logged and counted, and the run is replayable.
#[test]
fn seeded_loss_plan_completes_every_transaction() {
    let plan = FaultPlan {
        loss_per_mille: 350,
        jitter_max: Duration::from_micros(500),
        ..FaultPlan::quiet()
    };
    let report = run_scenario(0xFA17_1055, plan, 3, 3, false);
    assert!(
        report.counters.lost > 0,
        "a 35% loss plan must actually drop frames, got {:?}",
        report.counters
    );
}

/// Frame duplication at the delivery gate. The echo body canary inside
/// the harness turns any straggler-reply aliasing into a panic, which
/// is exactly how the sim caught the recycling bug this plan guards.
#[test]
fn seeded_duplication_never_aliases_replies() {
    let plan = FaultPlan {
        dup_per_mille: 250,
        jitter_max: Duration::from_micros(500),
        ..FaultPlan::quiet()
    };
    let report = run_scenario(0xFA17_D0B1, plan, 3, 3, false);
    assert!(
        report.counters.duplicated > 0,
        "a 25% duplication plan must actually fork frames, got {:?}",
        report.counters
    );
}

/// A replica crashes *mid-transaction* and restarts: the window opens
/// one network latency after the first fan-out, so replica 0 has the
/// request on its wire (or in hand) when it dies — the frame is eaten
/// at delivery, or the reply dies with the machine. The surviving
/// replicas answer, the client routes around the corpse, and §2.1's
/// statelessness under restart plays out on an exact schedule instead
/// of a racing thread kill.
#[test]
fn seeded_crash_window_mid_transaction_recovers() {
    let plan = FaultPlan {
        jitter_max: Duration::from_micros(300),
        crashes: vec![CrashWindow {
            victim: 0, // replica 0 — fault targets 0..2 are the replicas
            from: Duration::from_millis(1),
            until: Duration::from_millis(60),
        }],
        ..FaultPlan::quiet()
    };
    let report = run_scenario(0xFA17_C4A5, plan, 3, 3, false);
    assert!(
        report.counters.crash_dropped > 0,
        "the crash window must intersect live traffic, got {:?}",
        report.counters
    );
}

/// The seeded plans on the wall clock, against a real flat file server
/// and a patient client bound as fault targets 0 and 1. Each pinned
/// seed's plan has loss and a crash or partition window on one of
/// them (checked below: a window on an unbound target is inert).
/// Nothing deduplicates, so a retransmitted write may run twice; every
/// write the server acknowledged must still read back byte-exact.
#[test]
fn acknowledged_writes_read_back_under_a_seeded_wall_plan() {
    for seed in [10, 24, 31] {
        let plan = FaultPlan::from_seed(seed);
        let bites = plan.crashes.iter().any(|w| w.victim < 2)
            || plan.partitions.iter().any(|w| w.a < 2 && w.b < 2);
        assert!(plan.loss_per_mille > 0 && bites, "seed {seed} bites");
        let windows = plan.crashes.iter().map(|w| w.until);
        let horizon = windows.chain(plan.partitions.iter().map(|w| w.until)).max();
        let net = Network::new_with_plan(seed, plan);
        net.obs().enable();
        let runner = ServiceRunner::spawn_open(&net, FlatFsServer::new(SchemeKind::OneWay));
        let fs = FlatFsClient::with_service(
            ServiceClient::open_with_config(&net, patient()),
            runner.put_port(),
        );
        net.bind_fault_target(0, runner.machine());
        net.bind_fault_target(1, fs.service().rpc().endpoint().id());
        let cap = fs.create().expect("create");
        let mut acknowledged = Vec::new();
        let mut i = 0u64;
        while Some(net.now().since_epoch()) <= horizon {
            if fs.write(&cap, i * 8, &i.to_le_bytes()).is_ok() {
                acknowledged.push(i);
            }
            i += 1;
            net.sleep(Duration::from_millis(4));
        }
        let data = fs.read(&cap, 0, (i * 8) as u32).expect("read back");
        for i in acknowledged {
            let at = (i * 8) as usize;
            assert_eq!(data[at..at + 8], i.to_le_bytes(), "seed {seed}, write {i}");
        }
        let m = net.obs().snapshot().unwrap();
        assert!(m.faults_lost > 0, "seed {seed}: {m:?}");
        assert!(
            m.faults_crash_dropped + m.faults_partition_dropped > 0,
            "seed {seed}: {m:?}"
        );
        runner.stop();
    }
}
