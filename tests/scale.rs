//! Moderate-scale workloads: many servers, many objects, many clients —
//! the sizes are chosen to finish in seconds while still exercising the
//! slab reuse, cache and isolation paths that small tests never reach.

use amoeba::prelude::*;
use amoeba::server::ServerError;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

#[test]
fn eight_file_servers_are_cryptographically_isolated() {
    // Capabilities from one server must be rejected by every other,
    // even with identical object numbers and scheme.
    let net = Network::new();
    let runners: Vec<ServiceRunner> = (0..8)
        .map(|_| ServiceRunner::spawn_open(&net, FlatFsServer::new(SchemeKind::Commutative)))
        .collect();
    let clients: Vec<FlatFsClient> = runners
        .iter()
        .map(|r| FlatFsClient::with_service(ServiceClient::open(&net), r.put_port()))
        .collect();

    // Create file 0 on every server.
    let caps: Vec<Capability> = clients.iter().map(|c| c.create().unwrap()).collect();
    for (i, c) in clients.iter().enumerate() {
        c.write(&caps[i], 0, format!("server {i}").as_bytes())
            .unwrap();
    }

    // Same object number everywhere; transplanting the check field of
    // server i's capability onto server j's port must fail.
    for i in 0..8 {
        for j in 0..8 {
            if i == j {
                continue;
            }
            let cross =
                Capability::new(caps[j].port, caps[i].object, caps[i].rights, caps[i].check);
            assert!(
                clients[j].read(&cross, 0, 8).is_err(),
                "server {j} accepted server {i}'s check field"
            );
        }
    }
    for r in runners {
        r.stop();
    }
}

#[test]
fn thousand_objects_with_slab_reuse() {
    let net = Network::new();
    let runner = ServiceRunner::spawn_open(&net, FlatFsServer::new(SchemeKind::OneWay));
    let fs = FlatFsClient::with_service(ServiceClient::open(&net), runner.put_port());

    // Create 500, destroy every other one, create 500 more: slots are
    // reused and every surviving capability still maps to its own data.
    let mut caps = Vec::new();
    for i in 0..500u32 {
        let cap = fs.create().unwrap();
        fs.write(&cap, 0, format!("gen1-{i}").as_bytes()).unwrap();
        caps.push((cap, format!("gen1-{i}")));
    }
    let mut survivors = Vec::new();
    for (i, (cap, tag)) in caps.into_iter().enumerate() {
        if i % 2 == 0 {
            fs.destroy(&cap).unwrap();
        } else {
            survivors.push((cap, tag));
        }
    }
    for i in 0..500u32 {
        let cap = fs.create().unwrap();
        fs.write(&cap, 0, format!("gen2-{i}").as_bytes()).unwrap();
        survivors.push((cap, format!("gen2-{i}")));
    }
    for (cap, tag) in &survivors {
        assert_eq!(&fs.read(cap, 0, 32).unwrap(), tag.as_bytes());
    }
    runner.stop();
}

#[test]
fn wide_directory_with_hundreds_of_entries() {
    let net = Network::new();
    let runner = ServiceRunner::spawn_open(&net, DirServer::new(SchemeKind::Commutative));
    let dirs = DirClient::with_service(ServiceClient::open(&net), runner.put_port());
    let d = dirs.create_dir().unwrap();
    let target = dirs.create_dir().unwrap();

    let n = 400;
    for i in 0..n {
        dirs.enter(&d, &format!("entry-{i:04}"), &target).unwrap();
    }
    let listing = dirs.list(&d).unwrap();
    assert_eq!(listing.len(), n);
    assert_eq!(listing[0], "entry-0000");
    assert_eq!(listing[n - 1], format!("entry-{:04}", n - 1));
    // Spot lookups stay correct at width.
    for i in [0usize, 199, 399] {
        assert_eq!(dirs.lookup(&d, &format!("entry-{i:04}")).unwrap(), target);
    }
    runner.stop();
}

#[test]
fn deep_version_history_stays_consistent() {
    let net = Network::new();
    let runner = ServiceRunner::spawn_open(&net, MvfsServer::new(SchemeKind::OneWay));
    let fs = MvfsClient::with_service(ServiceClient::open(&net), runner.put_port());
    let file = fs.create_file().unwrap();

    // 50 committed generations; keep every 10th version capability and
    // verify all snapshots afterwards.
    let mut snapshots = Vec::new();
    for gen in 0..50u32 {
        let v = fs.new_version(&file).unwrap();
        fs.write_page(&v, 0, format!("generation {gen}").as_bytes())
            .unwrap();
        fs.commit(&v).unwrap();
        if gen % 10 == 0 {
            snapshots.push((v, gen));
        }
    }
    assert_eq!(fs.file_info(&file).unwrap().committed_versions, 50);
    for (v, gen) in &snapshots {
        let page = fs.read_page(v, 0).unwrap();
        let expect = format!("generation {gen}");
        assert_eq!(&page[..expect.len()], expect.as_bytes());
    }
    // Head is the last generation.
    let head = fs.read_page(&file, 0).unwrap();
    assert_eq!(&head[..13], b"generation 49");
    runner.stop();
}

#[test]
fn sixteen_concurrent_bank_clients_conserve_money() {
    let net = Network::new();
    let (server, treasury_rx) = BankServer::new(
        vec![Currency::convertible("dollar", 1)],
        SchemeKind::Commutative,
    );
    let runner = ServiceRunner::spawn_open(&net, server);
    let port = runner.put_port();
    let treasury = treasury_rx.recv().unwrap();
    let bank = BankClient::open(&net, port);

    let accounts: Vec<Capability> = (0..8).map(|_| bank.open_account().unwrap()).collect();
    let total = 8_000u64;
    for a in &accounts {
        bank.mint(&treasury, a, CurrencyId(0), total / 8).unwrap();
    }

    let mut handles = Vec::new();
    for t in 0..16usize {
        let net = net.clone();
        let accounts = accounts.clone();
        handles.push(std::thread::spawn(move || {
            let bank = BankClient::open(&net, port);
            for i in 0..50u64 {
                let from = &accounts[(t + i as usize) % 8];
                let to = &accounts[(t + i as usize + 3) % 8];
                let _ = bank.transfer(from, to, CurrencyId(0), (i % 7) + 1);
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }

    let sum: u64 = accounts
        .iter()
        .map(|a| bank.balance(a, CurrencyId(0)).unwrap())
        .sum();
    assert_eq!(sum, total, "money must be conserved under concurrency");
    runner.stop();
}

#[test]
fn worker_pool_hammer_keeps_capability_semantics() {
    // The tentpole test for the concurrent dispatch engine: many client
    // threads × one FlatFsServer with a 4-worker pool. Capability
    // checks, revocation and free-list reuse must all stay correct
    // while requests are claimed by arbitrary workers.
    const WORKERS: usize = 4;
    const CLIENTS: usize = 8;
    const ROUNDS: usize = 12;

    let net = Network::new();
    let runner = ServiceRunner::spawn_open_workers(
        &net,
        FlatFsServer::new(SchemeKind::Commutative),
        WORKERS,
    );
    assert_eq!(runner.workers(), WORKERS);
    let port = runner.put_port();
    let forged_rejections = Arc::new(AtomicU32::new(0));

    let mut handles = Vec::new();
    for t in 0..CLIENTS {
        let net = net.clone();
        let forged_rejections = Arc::clone(&forged_rejections);
        handles.push(std::thread::spawn(move || {
            let fs = FlatFsClient::open(&net, port);
            for round in 0..ROUNDS {
                // Create, write, read back: plain data-path integrity.
                let cap = fs.create().unwrap();
                let tag = format!("client-{t}-round-{round}");
                fs.write(&cap, 0, tag.as_bytes()).unwrap();
                assert_eq!(fs.read(&cap, 0, tag.len() as u32).unwrap(), tag.as_bytes());

                // Capability checks: a forged check field must be
                // rejected by whichever worker picks it up.
                let forged = cap.with_check(cap.check ^ 0x5A5A);
                match fs.read(&forged, 0, 4) {
                    Err(ClientError::Status(Status::Forged)) => {
                        forged_rejections.fetch_add(1, Ordering::Relaxed);
                    }
                    other => panic!("forged capability accepted or odd error: {other:?}"),
                }

                // Restriction + rights enforcement under contention.
                let ro = fs.service().restrict(&cap, Rights::READ).unwrap();
                assert!(fs.read(&ro, 0, 4).is_ok());
                assert!(matches!(
                    fs.write(&ro, 0, b"nope"),
                    Err(ClientError::Status(Status::RightsViolation))
                ));

                // Revocation: the old caps die, the fresh one lives.
                let fresh = fs.service().revoke(&cap).unwrap();
                assert!(matches!(
                    fs.read(&ro, 0, 1),
                    Err(ClientError::Status(Status::Forged))
                ));
                assert!(fs.read(&fresh, 0, 1).is_ok());

                // Delete every other round: exercises free-list reuse
                // across shards while other clients create.
                if round % 2 == 0 {
                    fs.destroy(&fresh).unwrap();
                    assert!(fs.size(&fresh).is_err(), "deleted file must be gone");
                } else {
                    assert_eq!(fs.size(&fresh).unwrap() as usize, tag.len());
                }
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(
        forged_rejections.load(Ordering::Relaxed) as usize,
        CLIENTS * ROUNDS,
        "every forgery attempt must be rejected"
    );
    runner.stop();
}

#[test]
fn worker_pool_free_list_reuse_is_exclusive() {
    // Hammer create/destroy from many clients at once: a freed slot
    // must never be handed to two creations, and stale capabilities
    // must never validate against a recycled slot.
    const WORKERS: usize = 4;
    const CLIENTS: usize = 6;
    const ROUNDS: usize = 25;

    let net = Network::new();
    let runner =
        ServiceRunner::spawn_open_workers(&net, FlatFsServer::new(SchemeKind::OneWay), WORKERS);
    let port = runner.put_port();

    let mut handles = Vec::new();
    for t in 0..CLIENTS {
        let net = net.clone();
        handles.push(std::thread::spawn(move || {
            let fs = FlatFsClient::open(&net, port);
            let mut dead: Vec<Capability> = Vec::new();
            let mut live: Vec<(Capability, Vec<u8>)> = Vec::new();
            for round in 0..ROUNDS {
                let cap = fs.create().unwrap();
                let body = format!("{t}:{round}").into_bytes();
                fs.write(&cap, 0, &body).unwrap();
                if round % 3 == 0 {
                    fs.destroy(&cap).unwrap();
                    dead.push(cap);
                } else {
                    live.push((cap, body));
                }
            }
            // Every live file still holds exactly its own data …
            for (cap, body) in &live {
                assert_eq!(&fs.read(cap, 0, 64).unwrap(), body);
            }
            // … and every destroyed capability stays dead, even though
            // other clients have recycled those slots by now.
            for cap in &dead {
                assert!(
                    matches!(
                        fs.read(cap, 0, 1),
                        Err(ClientError::Status(Status::Forged))
                            | Err(ClientError::Status(Status::NoSuchObject))
                    ),
                    "stale capability validated against a recycled slot"
                );
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    runner.stop();
}

#[test]
fn revocation_outruns_what_a_table_remembers_it_proved() {
    // An entry remembers the last capability its secret validated
    // (docs/ARCHITECTURE.md, "What a table remembers it proved"), and
    // `revoke` forgets it under the same lock that replaces the secret.
    // Four validators keep the word hot — and flipping — by alternating
    // an owner and a restricted capability; one thread revokes 1 000
    // times. No validator may see `Ok` for a capability whose `revoke`
    // had returned before its call began.
    const VALIDATORS: usize = 4;
    const REVOKES: u64 = 1_000;
    /// Validator rounds the revoker lets through between two
    /// revocations, so the race is spread over the run on any number
    /// of cores.
    const PACE: u64 = 8;

    let table: ObjectTable<u32> = ObjectTable::with_port(
        SchemeKind::OneWay.instantiate(),
        Port::new(0xA0EB_0022).unwrap(),
    );
    let (_, owner) = table.create(0);
    let pair = |owner: Capability| (owner, table.restrict(&owner, Rights::READ).unwrap());
    // `issued[g]` is the pair the g-th revocation returned (0: the
    // mint); `revoked` counts revocations that have returned, so pair
    // `g` is dead from the moment `revoked > g`.
    let issued = std::sync::RwLock::new(vec![pair(owner)]);
    let revoked = AtomicU64::new(0);
    let rounds = AtomicU64::new(0);
    // Verdicts are counted, not asserted in the threads: the revoker
    // paces itself on the validators, so they must outlive a failure.
    let accepted = AtomicU64::new(0);
    let accepted_dead = AtomicU64::new(0);
    let wrong_answers = AtomicU64::new(0);
    let start = std::sync::Barrier::new(VALIDATORS + 1);

    std::thread::scope(|scope| {
        for _ in 0..VALIDATORS {
            scope.spawn(|| {
                start.wait();
                let mut as_owner = false;
                while revoked.load(Ordering::SeqCst) < REVOKES {
                    let (g, latest, previous) = {
                        let issued = issued.read().expect("no holder panics");
                        let g = issued.len() - 1;
                        (g, issued[g], issued[g.saturating_sub(1)])
                    };
                    as_owner = !as_owner;
                    // The dead pair first: straight after a revocation
                    // it is what the entry last proved.
                    for (g, (owner, restricted)) in [(g.saturating_sub(1), previous), (g, latest)] {
                        let (cap, grants) = if as_owner {
                            (owner, Rights::ALL)
                        } else {
                            (restricted, Rights::READ)
                        };
                        let dead = revoked.load(Ordering::SeqCst) > g as u64;
                        match table.validate(&cap) {
                            Ok(_) if dead => accepted_dead.fetch_add(1, Ordering::Relaxed),
                            Ok(rights) if rights == grants => {
                                accepted.fetch_add(1, Ordering::Relaxed)
                            }
                            Err(ServerError::Forged) => 0,
                            _ => wrong_answers.fetch_add(1, Ordering::Relaxed),
                        };
                    }
                    rounds.fetch_add(1, Ordering::SeqCst);
                    // Five threads on fewer cores: without this each
                    // revocation would wait out whole time slices.
                    std::thread::yield_now();
                }
            });
        }
        scope.spawn(|| {
            start.wait();
            let mut owner = owner;
            for n in 1..=REVOKES {
                let floor = rounds.load(Ordering::SeqCst) + PACE;
                while rounds.load(Ordering::SeqCst) < floor {
                    std::thread::yield_now();
                }
                owner = table.revoke(&owner).expect("the live owner capability");
                revoked.store(n, Ordering::SeqCst);
                let fresh = pair(owner);
                issued.write().expect("no holder panics").push(fresh);
            }
        });
    });
    assert_eq!(
        accepted_dead.load(Ordering::Relaxed),
        0,
        "a capability validated after its revoke had returned"
    );
    assert_eq!(
        wrong_answers.load(Ordering::Relaxed),
        0,
        "a recalled answer is the computed one: the capability's own rights, or Forged"
    );
    assert!(
        accepted.load(Ordering::Relaxed) > REVOKES,
        "live capabilities were accepted between revocations (else the race never ran)"
    );
}

#[test]
fn mixed_batched_and_single_traffic_hammer() {
    // Four clients — two speaking single frames, two speaking batch
    // frames — hammer one 4-worker FlatFsServer at once. Batch entries
    // interleave with single requests in the same worker pool, and a
    // deliberately forged entry inside each batch must fail alone
    // without poisoning its neighbours.
    use amoeba::flatfs::ops;
    use amoeba::server::proto::{null_cap, Request};
    use amoeba::server::wire;

    const WORKERS: usize = 4;
    const ROUNDS: usize = 6;
    const BATCH: usize = 8;

    let net = Network::new();
    let runner = ServiceRunner::spawn_open_workers(
        &net,
        FlatFsServer::new(SchemeKind::Commutative),
        WORKERS,
    );
    let port = runner.put_port();

    let mut handles = Vec::new();
    for t in 0..2usize {
        // Batched clients.
        let net = net.clone();
        handles.push(std::thread::spawn(move || {
            let svc = ServiceClient::open(&net);
            for round in 0..ROUNDS {
                // One batch: create BATCH files.
                let caps: Vec<Capability> = svc
                    .batch(port, BATCH, 0, |_, buf| {
                        Request::encode_with(buf, &null_cap(), ops::CREATE, |w| w)
                    })
                    .unwrap()
                    .into_iter()
                    .map(|r| wire::Reader::new(&r.unwrap()).cap().unwrap())
                    .collect();

                // One batch: write every file, with a forged-capability
                // entry slipped into the middle.
                let mut writes: Vec<(Capability, String)> = caps
                    .iter()
                    .enumerate()
                    .map(|(i, cap)| (*cap, format!("b{t}-r{round}-f{i}")))
                    .collect();
                let forged = caps[0].with_check(caps[0].check ^ 0x0F0F);
                writes.insert(BATCH / 2, (forged, "evil".to_string()));
                let results = svc
                    .batch(port, writes.len(), 64 * writes.len(), |i, buf| {
                        let (cap, tag) = &writes[i];
                        Request::encode_with(buf, cap, ops::WRITE, |w| {
                            w.u64(0).bytes(tag.as_bytes())
                        })
                    })
                    .unwrap();
                for (i, r) in results.iter().enumerate() {
                    if i == BATCH / 2 {
                        assert!(
                            matches!(r, Err(ClientError::Status(Status::Forged))),
                            "forged batch entry must fail alone: {r:?}"
                        );
                    } else {
                        assert!(r.is_ok(), "honest entry {i} failed: {r:?}");
                    }
                }

                // One batch: read back and verify, then destroy.
                let reads = svc
                    .batch(port, BATCH, 12 * BATCH, |i, buf| {
                        Request::encode_with(buf, &caps[i], ops::READ, |w| w.u64(0).u32(64))
                    })
                    .unwrap();
                for (i, r) in reads.into_iter().enumerate() {
                    let expect = format!("b{t}-r{round}-f{i}");
                    assert_eq!(&r.unwrap()[..], expect.as_bytes());
                }
                let destroys = svc.batch(port, BATCH, 0, |i, buf| {
                    Request::encode_with(buf, &caps[i], ops::DESTROY, |w| w)
                });
                for r in destroys.unwrap() {
                    r.unwrap();
                }
            }
        }));
    }
    for t in 0..2usize {
        // Single-frame clients, interleaving with the batches.
        let net = net.clone();
        handles.push(std::thread::spawn(move || {
            let fs = FlatFsClient::open(&net, port);
            for round in 0..ROUNDS * 2 {
                let cap = fs.create().unwrap();
                let tag = format!("s{t}-r{round}");
                fs.write(&cap, 0, tag.as_bytes()).unwrap();
                assert_eq!(fs.read(&cap, 0, 64).unwrap(), tag.as_bytes());
                fs.destroy(&cap).unwrap();
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    runner.stop();
}

#[test]
fn batched_metered_create_shares_only_the_outer_frames() {
    // A 16-entry batched metered-create round against 16 sequential
    // single-frame creates, counted in frames with the net stats,
    // nested bank traffic included. Exact, because every client is
    // patient enough that nothing retransmits:
    //
    // * unbatched: 16 × 4 = 64 — each create is its own request and
    //   reply, and the file server's payment transfer to the bank is a
    //   nested request and reply of its own;
    // * batched: 2 + 2 × 16 = 34 — one BATCH_REQUEST and one
    //   BATCH_REPLY carry the 16 creates, but the server's workers
    //   still pay each create's bank transfer as its own round trip.
    //
    // Batching the nested hop is the handler's job: a handler that
    // issues its independent transactions together (ROADMAP item
    // 1(c)), not a client that waits to see whether callers pile up.
    use amoeba::flatfs::ops;
    use amoeba::server::proto::{null_cap, Request};
    use amoeba::server::wire;

    const CALLS: u64 = 16;

    let net = Network::new();
    let (bank_server, treasury_rx) =
        BankServer::new(vec![Currency::convertible("dollar", 1)], SchemeKind::OneWay);
    let bank_runner = ServiceRunner::spawn_open(&net, bank_server);
    let bank_port = bank_runner.put_port();
    let treasury = treasury_rx.recv().unwrap();
    let bank = BankClient::open(&net, bank_port);
    let server_account = bank.open_account().unwrap();
    let wallet = bank.open_account().unwrap();
    bank.mint(&treasury, &wallet, CurrencyId(0), 10_000)
        .unwrap();

    // Frame counts are the assertion, so every client must be patient
    // enough that no retransmission ever distorts them (a
    // retransmitted non-idempotent create/destroy can race its
    // original through two pool workers).
    let patient = RpcConfig {
        timeout: Duration::from_secs(60),
        attempts: 2,
    };
    let quota_bank = BankClient::with_service(
        ServiceClient::with_client(Client::with_config(net.attach_open(), patient)),
        bank_port,
    );
    let runner = ServiceRunner::spawn_open_workers(
        &net,
        FlatFsServer::with_quota(
            SchemeKind::OneWay,
            QuotaPolicy {
                bank: quota_bank,
                server_account,
                currency: CurrencyId(0),
                price_per_kib: 1,
            },
        ),
        4,
    );
    let port = runner.put_port();
    let svc = ServiceClient::open_with_config(&net, patient);
    let fs = FlatFsClient::with_service(ServiceClient::open_with_config(&net, patient), port);

    // Unbatched: 16 sequential pre-paid creates.
    let before = net.stats().snapshot();
    let mut caps = Vec::new();
    for _ in 0..CALLS {
        caps.push(fs.create_paid(&wallet, 1).unwrap());
    }
    let unbatched = (net.stats().snapshot() - before).packets_sent;
    for cap in caps.drain(..) {
        fs.destroy(&cap).unwrap();
    }

    // Batched: the same 16 creates in one BATCH_REQUEST frame.
    let before = net.stats().snapshot();
    let results = svc
        .batch(port, CALLS as usize, 24 * CALLS as usize, |_, buf| {
            Request::encode_with(buf, &null_cap(), ops::CREATE, |w| w.cap(&wallet).u64(1))
        })
        .unwrap();
    let batched = (net.stats().snapshot() - before).packets_sent;
    for r in results {
        let cap = wire::Reader::new(&r.unwrap()).cap().unwrap();
        fs.destroy(&cap).unwrap();
    }

    assert_eq!(
        unbatched,
        CALLS * 4,
        "request + transfer + two replies each"
    );
    assert_eq!(
        batched,
        2 + 2 * CALLS,
        "one batch frame each way, plus every nested transfer's round trip"
    );
    runner.stop();
    bank_runner.stop();
}
