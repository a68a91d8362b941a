//! Kill-during-migration: live shard migration under seeded fault
//! plans in the deterministic simulation.
//!
//! Two FlatFs replicas split the shard space; poll-driven clients
//! create files, write unique bodies and read them back while a
//! [`ShardMigration`] actor streams one shard from the source to the
//! target — and the fault plan crashes the source, the target, or the
//! migration driver mid-copy. The invariants, per seed:
//!
//! * **No lost requests**: every client op completes within a bounded
//!   retry budget, and a final verification wave re-reads every object
//!   through the *original* (stale) route — the old owner must either
//!   serve or forward, never drop into a gap.
//! * **No double-execution / divergence**: every re-read returns the
//!   exact unique body its writer verified, wherever the object now
//!   lives.
//! * **Clean ends only**: the migration either commits (source
//!   forwards, target owns) or aborts (source serves on, untouched).
//! * **Exact replay**: two runs of one seed are byte-identical.
//!
//! Environment knobs: `SIM_MIG_SEED=<n>` replays one seed,
//! `SIM_MIG_SEEDS=<n>` sets the hammer's sweep width (default 10),
//! `SIM_SHARDS`/`SIM_SHARD` split a sweep across CI jobs.

use amoeba::flatfs::ops;
use amoeba::net::splitmix64;
use amoeba::prelude::*;
use amoeba::rpc::{Client, RpcError};
use amoeba::server::proto::{null_cap, Reply, Request, Status};
use amoeba::server::{placement_range, wire, ShardDisposition, DEFAULT_SHARDS};
use bytes::{Bytes, BytesMut};
use std::cell::RefCell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::time::Duration;

/// Base of this hammer's seed space — distinct from the fault-plan and
/// proptest bases so CI shards never repeat another job's seed.
const MIG_SEED_BASE: u64 = 0x316A_0000;

/// A transaction may time out repeatedly while a fault window covers
/// its path; windows end by ~500 ms of simulated time.
const MAX_LOGICAL_RETRIES: u32 = 60;

fn source_port() -> Port {
    Port::new(0xA0EB_0010).unwrap()
}

fn target_port() -> Port {
    Port::new(0xA0EB_0011).unwrap()
}

fn env_u64(name: &str) -> Option<u64> {
    std::env::var(name).ok()?.trim().parse().ok()
}

fn encode_request(cap: &Capability, command: u32, params: Bytes) -> Bytes {
    let req = Request {
        cap: *cap,
        command,
        params,
    };
    let mut buf = BytesMut::new();
    req.encode_into(&mut buf);
    buf.freeze()
}

fn shard_of(cap: &Capability) -> usize {
    placement_range(cap.object, DEFAULT_SHARDS, DEFAULT_SHARDS)
}

/// Two replicas splitting the shard space, as an elastic pair would:
/// the source owns the even shards, the target the odd ones. Secrets
/// are seed-derived so two runs of one seed mint identical
/// capabilities.
fn replica_pair(net: &Network, kind: SchemeKind, seed: u64) -> (SimPump, SimPump) {
    let mut src_fs = FlatFsServer::new(kind);
    src_fs.reseed_secrets(seed ^ 0x5EC0);
    amoeba::server::Service::bind_shard_range(&mut src_fs, 0, 2);
    let src_pump = SimPump::bind(net.attach_open(), source_port(), src_fs);
    let mut tgt_fs = FlatFsServer::new(kind);
    tgt_fs.reseed_secrets(seed ^ 0x7A67);
    amoeba::server::Service::bind_shard_range(&mut tgt_fs, 1, 2);
    let tgt_pump = SimPump::bind(net.attach_open(), target_port(), tgt_fs);
    (src_pump, tgt_pump)
}

/// What one seeded migration scenario observed.
#[derive(Debug, Clone)]
struct MigReport {
    fingerprint: (u64, u64),
    counters: FaultCounters,
    completed: u64,
    timeouts: u64,
    migration: Result<MigrationStats, MigrateError>,
    log: Vec<u8>,
}

/// One client op's progress: create a file, write a unique body, read
/// it back. Completed objects are pushed into the shared registry for
/// the final verification wave.
enum OpStep {
    Create,
    Write(Capability),
    Read(Capability),
}

/// Runs one seeded scenario and asserts every invariant that must hold
/// regardless of when (or whether) the migration survives the plan.
fn run_migration_scenario(
    seed: u64,
    plan: FaultPlan,
    clients: usize,
    ops_per_client: usize,
    record_log: bool,
) -> MigReport {
    let net = Network::new_sim_with_plan(seed, plan);
    net.set_latency(Duration::from_millis(1));
    net.obs().enable();
    if record_log {
        net.sim_record_log(true);
    }

    let (src_pump, tgt_pump) = replica_pair(&net, SchemeKind::Simple, seed);
    net.bind_fault_target(0, src_pump.machine());
    net.bind_fault_target(1, tgt_pump.machine());

    // The shard under migration: one of the source's (even) shards.
    let shard = (seed as usize % (DEFAULT_SHARDS / 2)) * 2;

    let mut rng_seed = seed ^ 0x00C1_1E57;
    let config = RpcConfig {
        timeout: Duration::from_millis(25),
        attempts: 10,
    };
    let mig_client =
        Client::with_config(net.attach_open(), config).with_rng_seed(splitmix64(&mut rng_seed));
    // The driver is a fault target too: a crash window over it freezes
    // the migration mid-protocol, then resumes it against a target that
    // may have staged chunks long ago.
    net.bind_fault_target(2, mig_client.endpoint().id());
    let arena: Vec<Client> = (0..clients)
        .map(|_| {
            Client::with_config(net.attach_open(), config).with_rng_seed(splitmix64(&mut rng_seed))
        })
        .collect();
    for (i, client) in arena.iter().take(3).enumerate() {
        net.bind_fault_target(3 + i, client.endpoint().id());
    }
    let verifier =
        Client::with_config(net.attach_open(), config).with_rng_seed(splitmix64(&mut rng_seed));

    let registry: Rc<RefCell<Vec<(Capability, Bytes)>>> = Rc::new(RefCell::new(Vec::new()));
    let clients_done = Rc::new(RefCell::new(0usize));
    let mig_done: Rc<RefCell<Option<Result<MigrationStats, MigrateError>>>> =
        Rc::new(RefCell::new(None));
    let stats = Rc::new(RefCell::new((0u64, 0u64))); // (completed, timeouts)

    let run = catch_unwind(AssertUnwindSafe(|| {
        let mut exec = SimExecutor::new(&net);
        for pump in [&src_pump, &tgt_pump] {
            exec.spawn_daemon(pump.machine(), move || {
                if pump.poll() {
                    ActorPoll::Progress
                } else {
                    ActorPoll::Idle
                }
            });
        }

        let migrator = src_pump.service().migrator().expect("flatfs migrates");
        let target = tgt_pump.service().migrator().unwrap().capability();
        let mut migration = ShardMigration::new(
            &mig_client,
            migrator,
            shard,
            seed | 1, // nonzero transfer id
            target,
            None,
        );
        {
            let mig_done = Rc::clone(&mig_done);
            let mig_ep = mig_client.endpoint();
            let mut started = false;
            exec.spawn(mig_client.endpoint().id(), move || {
                if !started {
                    // Let the first creates land so the snapshot, the
                    // catch-up rounds and the cutover all overlap live
                    // traffic instead of copying an empty table.
                    started = true;
                    return ActorPoll::IdleUntil(mig_ep.now() + Duration::from_millis(12));
                }
                let p = migration.poll();
                if matches!(p, ActorPoll::Done) && mig_done.borrow().is_none() {
                    *mig_done.borrow_mut() = Some(*migration.result().expect("done has result"));
                }
                p
            });
        }

        for (ci, client) in arena.iter().enumerate() {
            let registry = Rc::clone(&registry);
            let clients_done = Rc::clone(&clients_done);
            let stats = Rc::clone(&stats);
            let mut op = 0usize;
            let mut retries = 0u32;
            let mut step = OpStep::Create;
            let mut current: Option<amoeba::rpc::Completion<'_, Bytes>> = None;
            exec.spawn(client.endpoint().id(), move || loop {
                if let Some(comp) = current.as_mut() {
                    match comp.poll() {
                        None => return ActorPoll::IdleUntil(comp.deadline()),
                        Some(Err(RpcError::Timeout)) => {
                            stats.borrow_mut().1 += 1;
                            retries += 1;
                            assert!(
                                retries <= MAX_LOGICAL_RETRIES,
                                "client {ci} op {op} starved: a request was lost past \
                                 the fault windows (liveness bug)"
                            );
                            current = None; // retry the same step afresh
                        }
                        Some(Err(e)) => panic!("client {ci} op {op}: {e}"),
                        Some(Ok(raw)) => {
                            let reply = Reply::decode(&raw).expect("reply decodes");
                            assert_eq!(
                                reply.status,
                                Status::Ok,
                                "client {ci} op {op}: server refused a live request"
                            );
                            current = None;
                            retries = 0;
                            step = match std::mem::replace(&mut step, OpStep::Create) {
                                OpStep::Create => {
                                    let cap =
                                        wire::Reader::new(&reply.body).cap().expect("create cap");
                                    OpStep::Write(cap)
                                }
                                OpStep::Write(cap) => OpStep::Read(cap),
                                OpStep::Read(cap) => {
                                    let body = format!("c{ci}.o{op}");
                                    assert_eq!(
                                        &reply.body[..],
                                        body.as_bytes(),
                                        "client {ci} op {op}: read returned another \
                                         transaction's data"
                                    );
                                    registry
                                        .borrow_mut()
                                        .push((cap, Bytes::copy_from_slice(body.as_bytes())));
                                    stats.borrow_mut().0 += 1;
                                    op += 1;
                                    if op == ops_per_client {
                                        *clients_done.borrow_mut() += 1;
                                        return ActorPoll::Done;
                                    }
                                    OpStep::Create
                                }
                            };
                        }
                    }
                } else {
                    let body = format!("c{ci}.o{op}");
                    let frame = match &step {
                        // Creates always go to the source: it keeps a
                        // mintable shard throughout (only one of its
                        // eight is migrating).
                        OpStep::Create => encode_request(&null_cap(), ops::CREATE, Bytes::new()),
                        OpStep::Write(cap) => encode_request(
                            cap,
                            ops::WRITE,
                            wire::Writer::new().u64(0).bytes(body.as_bytes()).finish(),
                        ),
                        OpStep::Read(cap) => encode_request(
                            cap,
                            ops::READ,
                            wire::Writer::new().u64(0).u32(64).finish(),
                        ),
                    };
                    // Stale routing throughout: everything is addressed
                    // at the source's port, so the cutover window and
                    // post-commit forwarding are on every op's path.
                    current = Some(client.trans_async(source_port(), frame));
                }
            });
        }

        // The verification wave: once every client finished and the
        // migration reached a terminal state, re-read every object
        // through the original route and demand the exact body.
        {
            let registry = Rc::clone(&registry);
            let clients_done = Rc::clone(&clients_done);
            let mig_done = Rc::clone(&mig_done);
            let verifier = &verifier;
            let mut index = 0usize;
            let mut retries = 0u32;
            let mut current: Option<amoeba::rpc::Completion<'_, Bytes>> = None;
            exec.spawn(verifier.endpoint().id(), move || loop {
                if let Some(comp) = current.as_mut() {
                    match comp.poll() {
                        None => return ActorPoll::IdleUntil(comp.deadline()),
                        Some(Err(RpcError::Timeout)) => {
                            retries += 1;
                            assert!(
                                retries <= MAX_LOGICAL_RETRIES,
                                "verifier starved re-reading object {index}"
                            );
                            current = None;
                        }
                        Some(Err(e)) => panic!("verifier object {index}: {e}"),
                        Some(Ok(raw)) => {
                            let reply = Reply::decode(&raw).expect("reply decodes");
                            let (cap, expected) = registry.borrow()[index].clone();
                            assert_eq!(
                                reply.status,
                                Status::Ok,
                                "object {:?} (shard {}) was lost by the migration",
                                cap.object,
                                shard_of(&cap)
                            );
                            assert_eq!(
                                reply.body,
                                expected,
                                "object {:?} (shard {}) diverged after the cutover",
                                cap.object,
                                shard_of(&cap)
                            );
                            retries = 0;
                            index += 1;
                            current = None;
                        }
                    }
                } else {
                    if *clients_done.borrow() < clients || mig_done.borrow().is_none() {
                        // A timer-armed wait: a bare Idle with no
                        // deliveries pending would read as a stall.
                        return ActorPoll::IdleUntil(
                            verifier.endpoint().now() + Duration::from_millis(5),
                        );
                    }
                    if index == registry.borrow().len() {
                        return ActorPoll::Done;
                    }
                    let (cap, _) = registry.borrow()[index].clone();
                    current = Some(verifier.trans_async(
                        source_port(),
                        encode_request(
                            &cap,
                            ops::READ,
                            wire::Writer::new().u64(0).u32(64).finish(),
                        ),
                    ));
                }
            });
        }

        exec.run()
            .unwrap_or_else(|stall| panic!("scenario stalled: {stall}"));
    }));
    if let Err(panic) = run {
        net.obs()
            .dump(&format!("migration scenario seed {seed:#x} panicked"));
        resume_unwind(panic);
    }

    // Terminal-state invariants: commit and abort are the only ends.
    let migration = mig_done
        .borrow()
        .expect("migration reached a terminal state");
    let src = src_pump.service().migrator().unwrap();
    let tgt = tgt_pump.service().migrator().unwrap();
    match migration {
        Ok(_) => {
            assert!(
                !src.owned_shards().contains(&shard),
                "a committed migration leaves the source shard released"
            );
            assert!(
                tgt.owned_shards().contains(&shard),
                "a committed migration leaves the target owning the shard"
            );
            assert_eq!(
                src.disposition(shard),
                ShardDisposition::Forward(target_port()),
                "the source must forward the released shard"
            );
        }
        Err(_) => {
            assert!(
                src.owned_shards().contains(&shard),
                "an aborted migration leaves the source serving, untouched"
            );
            assert_eq!(src.disposition(shard), ShardDisposition::Serve);
        }
    }
    let (completed, timeouts) = *stats.borrow();
    assert_eq!(
        completed,
        (clients * ops_per_client) as u64,
        "every client op must complete once the fault windows pass"
    );
    assert_eq!(registry.borrow().len() as u64, completed);

    MigReport {
        fingerprint: net.sim_fingerprint(),
        counters: net.sim_fault_counters(),
        completed,
        timeouts,
        migration,
        log: if record_log {
            net.sim_take_log()
        } else {
            Vec::new()
        },
    }
}

fn hammer_one(seed: u64) {
    let result = catch_unwind(AssertUnwindSafe(|| {
        run_migration_scenario(seed, FaultPlan::from_seed(seed), 4, 3, false)
    }));
    match result {
        Ok(report) => {
            println!(
                "seed {seed:#x}: {} ({} tx, {} retried, {} chunks, faults {:?})",
                match report.migration {
                    Ok(_) => "committed",
                    Err(_) => "aborted",
                },
                report.completed,
                report.timeouts,
                report.migration.map(|s| s.chunks).unwrap_or(0),
                report.counters
            );
        }
        Err(panic) => {
            eprintln!(
                "\nseed {seed} FAILED — replay with:\n  \
                 SIM_MIG_SEED={seed} cargo test --release --test sim_migration \
                 migration_hammer -- --nocapture\n"
            );
            resume_unwind(panic);
        }
    }
}

/// The kill-during-migration hammer: N seeds, each a full scenario
/// under a seed-derived fault plan whose crash windows land on the
/// source, the target, the driver and the first clients.
#[test]
fn migration_hammer() {
    if let Some(seed) = env_u64("SIM_MIG_SEED") {
        hammer_one(seed);
        return;
    }
    let count = env_u64("SIM_MIG_SEEDS").unwrap_or(10);
    let shard = env_u64("SIM_SHARD").unwrap_or(0);
    for i in 0..count {
        hammer_one(MIG_SEED_BASE + shard * count + i);
    }
}

/// Two runs of one seed must be byte-identical — the event log, the
/// fingerprint, the fault counters *and the migration's outcome*.
#[test]
fn same_seed_migration_runs_are_byte_identical() {
    for seed in [MIG_SEED_BASE + 0x100, MIG_SEED_BASE + 0x101] {
        let a = run_migration_scenario(seed, FaultPlan::from_seed(seed), 3, 2, true);
        let b = run_migration_scenario(seed, FaultPlan::from_seed(seed), 3, 2, true);
        assert!(!a.log.is_empty(), "the scenario must generate traffic");
        assert_eq!(a.log, b.log, "event logs must match byte for byte");
        assert_eq!(a.fingerprint, b.fingerprint);
        assert_eq!(a.counters, b.counters);
        assert_eq!(a.migration, b.migration, "the cutover must replay exactly");
        assert_eq!(a.timeouts, b.timeouts);
    }
}

/// A quiet plan must commit: full snapshot, cutover, forwarding — no
/// faults to hide behind.
#[test]
fn quiet_plan_commits_the_migration() {
    let report = run_migration_scenario(MIG_SEED_BASE + 0x200, FaultPlan::quiet(), 4, 3, false);
    let stats = report.migration.expect("no faults, no abort");
    assert!(stats.chunks >= 1);
    assert_eq!(report.timeouts, 0, "quiet plans drop nothing");
}

/// A crash window squarely over the **source** machine mid-migration:
/// the copy stalls with the machine (its driver shares the window via
/// fault target 2 living elsewhere — here we pin the window to the
/// source alone, so held/forwarded traffic and the transfer stream
/// both ride out the outage).
#[test]
fn source_crash_mid_migration_loses_nothing() {
    let plan = FaultPlan {
        crashes: vec![CrashWindow {
            victim: 0,
            from: Duration::from_millis(8),
            until: Duration::from_millis(60),
        }],
        ..FaultPlan::quiet()
    };
    let report = run_migration_scenario(MIG_SEED_BASE + 0x300, plan, 4, 3, false);
    assert!(report.counters.crash_dropped > 0, "the window must bite");
}

/// A crash window squarely over the **target** machine mid-migration:
/// staged chunks survive the outage (state survives a sim crash; only
/// frames die), so the transfer resumes by retransmission — or aborts
/// cleanly if the window outlasts the driver's patience. Both ends are
/// legal; losing a client's object is not.
#[test]
fn target_crash_mid_migration_loses_nothing() {
    let plan = FaultPlan {
        crashes: vec![CrashWindow {
            victim: 1,
            from: Duration::from_millis(8),
            until: Duration::from_millis(60),
        }],
        ..FaultPlan::quiet()
    };
    let report = run_migration_scenario(MIG_SEED_BASE + 0x301, plan, 4, 3, false);
    assert!(report.counters.crash_dropped > 0, "the window must bite");
}

/// A capability revoked on the source **while its shard is being
/// copied** — after `begin_export` queued a snapshot that still carries
/// the old secret, before `STD_TRANSFER_COMMIT` — stays revoked on the new
/// owner. The delta round carries the new secret over the snapshot's;
/// nothing the source's entry remembered proving travels with it
/// (docs/ARCHITECTURE.md, "What a table remembers it proved"), so the
/// target answers the old capability `Forged` and the new one `Ok` on
/// their first presentation there, and the old one `Forged` again once
/// the new one has warmed the entry.
#[test]
fn a_revocation_during_the_copy_survives_the_commit() {
    for kind in SchemeKind::ALL {
        let seed = MIG_SEED_BASE + 0x400;
        let net = Network::new_sim(seed);
        net.set_latency(Duration::from_millis(1));
        let (src_pump, tgt_pump) = replica_pair(&net, kind, seed);
        let client = Client::with_config(
            net.attach_open(),
            RpcConfig {
                timeout: Duration::from_millis(25),
                attempts: 10,
            },
        )
        .with_rng_seed(seed);
        let migrator = src_pump.service().migrator().expect("flatfs migrates");
        let target = tgt_pump.service().migrator().unwrap().capability();

        let mut exec = SimExecutor::new(&net);
        for pump in [&src_pump, &tgt_pump] {
            exec.spawn_daemon(pump.machine(), move || {
                if pump.poll() {
                    ActorPoll::Progress
                } else {
                    ActorPoll::Idle
                }
            });
        }
        // Every request takes the stale route — the source's port — so
        // after the commit each one is forwarded to the new owner.
        let size_of = |cap: &Capability| encode_request(cap, ops::SIZE, Bytes::new());
        let client = &client;
        let mut step = 0usize;
        let mut owner = null_cap();
        let mut fresh = null_cap();
        let mut migration: Option<ShardMigration<'_>> = None;
        let mut current: Option<amoeba::rpc::Completion<'_, Bytes>> = None;
        exec.spawn(client.endpoint().id(), move || loop {
            if let Some(comp) = current.as_mut() {
                let Some(raw) = comp.poll() else {
                    return ActorPoll::IdleUntil(comp.deadline());
                };
                let reply = Reply::decode(&raw.expect("quiet network")).expect("reply decodes");
                current = None;
                let expected = match step {
                    3 | 5 => Status::Forged,
                    _ => Status::Ok,
                };
                assert_eq!(reply.status, expected, "{kind}: step {step}");
                match step {
                    0 => owner = wire::Reader::new(&reply.body).cap().expect("create cap"),
                    1 => fresh = wire::Reader::new(&reply.body).cap().expect("revoke cap"),
                    4 => assert_eq!(wire::Reader::new(&reply.body).u64(), Some(0), "{kind}"),
                    _ => assert!(reply.body.is_empty(), "{kind}: a refusal carries no body"),
                }
                step += 1;
                continue;
            }
            let frame = match step {
                0 => encode_request(&null_cap(), ops::CREATE, Bytes::new()),
                1 => {
                    // One poll is `begin_export` plus the queued
                    // snapshot of the shard as it stands: old secret.
                    let m = migration.insert(ShardMigration::new(
                        client,
                        migrator,
                        shard_of(&owner),
                        seed | 1,
                        target,
                        None,
                    ));
                    assert_eq!(m.poll(), ActorPoll::Progress);
                    encode_request(&owner, amoeba::server::proto::cmd::STD_REVOKE, Bytes::new())
                }
                2 => match migration.as_mut().expect("started").poll() {
                    ActorPoll::Done => {
                        let m = migration.as_ref().expect("started");
                        let stats = m.result().expect("done").expect("quiet plan commits");
                        assert!(stats.catchup_rounds >= 1, "{kind}: the revoke was a delta");
                        assert_eq!(
                            migrator.disposition(shard_of(&owner)),
                            ShardDisposition::Forward(target_port()),
                            "{kind}: what follows is answered by the new owner"
                        );
                        step = 3;
                        continue;
                    }
                    p => return p,
                },
                3 | 5 => size_of(&owner),
                4 => size_of(&fresh),
                _ => return ActorPoll::Done,
            };
            current = Some(client.trans_async(source_port(), frame));
        });
        exec.run()
            .unwrap_or_else(|stall| panic!("{kind}: scenario stalled: {stall}"));
    }
}
