//! The paper's own experiments, one table each: counts and outcomes
//! (attack successes, traffic, sharing ratios, conservation) and the
//! cost ladder the paper argues from, timed with plain `Instant` loops.
//!
//! | id  | paper   | what is reproduced |
//! |-----|---------|--------------------|
//! | F1  | §2.2, Fig 1 | impersonation, replay and signature forgery against F-boxes: 0 successes (control without F-boxes: every one) |
//! | F1b | §2.2    | the F-box's price: `F` itself (Purdy 1974 vs SHA-256), the egress transform, a request/reply with and without boxes |
//! | E1  | §2.3    | the four protection schemes: sparseness (random forgeries accepted) and the mint / validate / restrict / reject cost ladder |
//! | E2  | §2.3    | scheme 3 diminishes "without going back to the server": packets and time against STD_RESTRICT as the wire gets slower |
//! | E3  | §2.3    | "the RIGHTS field … merely speeds up the checking": validation with it against the 2^N search without |
//! | E4  | §2.3    | revocation by replacing the random number: O(1) in outstanding capabilities, all of them dead afterwards |
//! | E5  | §2.4    | software protection: replays from a third machine recover nothing; DES sealing and what the capability caches save |
//! | E6  | §2.4    | public-key key establishment: the price of a machine (re)joining |
//! | E7  | §2.2    | LOCATE by broadcast against the (port, machine) cache and rendezvous match-making |
//! | E8  | §3.3–3.4 | path walks across one and two directory servers, flat-file I/O, no "open" state |
//! | E9  | §3.5    | copy-on-write versions: pages shared, and COW against a page-by-page copy |
//! | E10 | §3.6    | the bank as quota mechanism: refusal past the limit, money conserved, what a paid create costs |
//! | E11 | §3.1    | remote process creation against the FORK + EXEC shape (build locally, copy every segment) |
//! | —   | —       | primitives ablation: the from-scratch SHA-256, DES/3DES, Feistel-56 and commutative one-way functions every row above reduces to |
//!
//! The system's own hot-path and end-to-end numbers are `benchmark/`'s
//! job; nothing here is gated on a time. The counts are asserted.
//!
//! Run with: `cargo run --release --example paper_report` (< 60 s).

use amoeba::crypto::commutative::CommutativeOwfFamily;
use amoeba::crypto::des::{Des, TripleDes};
use amoeba::crypto::feistel::{Block56, Cipher56, Feistel56};
use amoeba::crypto::sha256::Sha256;
use amoeba::net::{splitmix64, NetworkInterface};
use amoeba::prelude::*;
use bytes::Bytes;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn main() {
    println!("# Amoeba reproduction — the paper's experiments\n");
    f1_attack_outcomes();
    f1b_fbox_cost();
    e1_scheme_ladder();
    e2_diminish_vs_restrict();
    e3_rights_bruteforce();
    e4_revocation();
    e5_softprot();
    e6_key_establishment();
    e7_locate();
    e8_fileserver_paths();
    e9_copy_on_write();
    e10_bank_quota();
    e11_remote_process();
    primitives_ablation();
    println!("report complete.");
}

/// Median over five batches of the mean time of one call to `f`, each
/// batch `iters` calls (the first batch doubles as the warm-up: a
/// median of five ignores it).
fn time<R>(iters: u32, mut f: impl FnMut() -> R) -> Duration {
    let mut batches: Vec<Duration> = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            t0.elapsed() / iters
        })
        .collect();
    batches.sort_unstable();
    batches[2]
}

fn heading(title: &str, columns: &str) {
    println!("## {title}\n\n{columns}");
    println!("{}|", "|---".repeat(columns.matches('|').count() - 1));
}

fn timing(title: &str) {
    heading(title, "| what | median per call |");
}

fn row(what: impl std::fmt::Display, per_call: Duration) {
    println!("| {what} | {per_call:.2?} |");
}

fn report_rng() -> SecretStream {
    SecretStream::from_seed(0xBE_7C_4A_11)
}

fn fbox_machine(net: &Network) -> Endpoint {
    net.attach(Arc::new(FBox::hardware(ShaOneWay)))
}

/// F1: the four Fig-1 attacks, each run 100 times; with F-boxes none
/// may succeed (and the no-F-box control must succeed every time).
fn f1_attack_outcomes() {
    heading(
        "F1 — Fig 1 attack outcomes (100 trials each)",
        "| attack | F-boxes | successes |",
    );

    // Impersonation with F-boxes.
    let mut successes = 0;
    for i in 0..100u64 {
        let net = Network::new();
        let server_ep = fbox_machine(&net);
        let g = Port::new(0x1000 + i).unwrap();
        let server = ServerPort::bind(server_ep, g);
        let p = server.put_port();
        let intruder = fbox_machine(&net);
        intruder.claim(p);
        let client = fbox_machine(&net);
        client.send(Header::to(p), Bytes::from_static(b"secret"));
        if intruder.try_recv().is_some() {
            successes += 1;
        }
    }
    println!("| impersonation (GET on put-port) | yes | {successes} |");
    assert_eq!(successes, 0, "GET(P) listens on the useless port F(P)");

    // Control: no F-boxes.
    let mut control = 0;
    for i in 0..100u64 {
        let net = Network::new();
        let server = net.attach_open();
        let p = Port::new(0x2000 + i).unwrap();
        server.claim(p);
        let intruder = net.attach_open();
        intruder.claim(p);
        let client = net.attach_open();
        client.send(Header::to(p), Bytes::from_static(b"secret"));
        if intruder.try_recv().is_some() {
            control += 1;
        }
    }
    println!("| impersonation (control) | **no** | {control} |");
    assert_eq!(
        control, 100,
        "without F-boxes the intruder hears everything"
    );

    // Replay through the intruder's own F-box.
    let mut replay_hits = 0;
    for i in 0..100u64 {
        let net = Network::new();
        let wire = net.tap();
        let server_ep = fbox_machine(&net);
        let server = ServerPort::bind(server_ep, Port::new(0x3000 + i).unwrap());
        let p = server.put_port();
        let handle = std::thread::spawn(move || {
            while let Ok(req) = server.next_request_timeout(Duration::from_millis(200)) {
                server.reply(&req, Bytes::from_static(b"reply"));
            }
        });
        let client = Client::new(fbox_machine(&net));
        let _ = client.trans(p, Bytes::from_static(b"req"));
        if let Ok(frame) = wire.try_recv() {
            let replayer = fbox_machine(&net);
            replayer.send(frame.header, frame.payload.clone());
            std::thread::sleep(Duration::from_millis(5));
            if replayer.try_recv().is_some() {
                replay_hits += 1;
            }
        }
        handle.join().unwrap();
    }
    println!("| replay captured request, receive reply | yes | {replay_hits} |");
    assert_eq!(
        replay_hits, 0,
        "the reply goes to F(G'), which only G' hears"
    );

    // Signature forgery: forged F(S) never matches the published value.
    let f = ShaOneWay;
    let fbox = FBox::hardware(f.clone());
    let mut sig_hits = 0;
    for i in 1..=100u64 {
        let s = Port::new(0x4000 + i).unwrap();
        let published = amoeba::fbox::put_port_of(&f, s);
        let mut forged = Header::to(Port::new(1).unwrap()).with_signature(published);
        fbox.egress(&mut forged);
        if forged.signature == published {
            sig_hits += 1;
        }
    }
    println!("| signature forgery with published F(S) | yes | {sig_hits} |\n");
    assert_eq!(sig_hits, 0, "sending F(S) puts F(F(S)) on the wire");
}

/// A single-threaded echo server on an open or F-boxed machine, and a
/// client of the same kind.
fn echo_pair(protected: bool) -> (Client, Port, std::thread::JoinHandle<()>) {
    let net = Network::new();
    let attach = |net: &Network| {
        if protected {
            fbox_machine(net)
        } else {
            net.attach_open()
        }
    };
    let server = ServerPort::bind(attach(&net), Port::new(0x3E2).unwrap());
    let put_port = server.put_port();
    let handle = std::thread::spawn(move || {
        while let Ok(req) = server.next_request_timeout(Duration::from_secs(120)) {
            if &req.payload[..] == b"STOP" {
                server.reply(&req, Bytes::new());
                break;
            }
            server.reply(&req, req.payload.clone());
        }
    });
    (Client::new(attach(&net)), put_port, handle)
}

/// F1b: what port protection costs — `F`, the per-packet transform,
/// and a whole request/reply through boxes against open interfaces.
fn f1b_fbox_cost() {
    timing("F1b — the F-box itself");
    let (sha, purdy) = (ShaOneWay, PurdyOneWay::new());
    let mut x = 0x1234_5678u64;
    row(
        "F = SHA-256, 48 bit",
        time(2_000, || {
            x = sha.apply48(x);
            x
        }),
    );
    row(
        "F = Purdy 1974, 48 bit",
        time(2_000, || {
            x = purdy.apply48(x);
            x
        }),
    );
    let fbox = FBox::hardware(ShaOneWay);
    let header = Header::to(Port::new(1).unwrap())
        .with_reply(Port::new(2).unwrap())
        .with_signature(Port::new(3).unwrap());
    row(
        "egress transform (reply + signature, F memoized)",
        time(10_000, || {
            let mut h = header;
            fbox.egress(&mut h);
            h
        }),
    );
    for (label, protected) in [("open interfaces", false), ("F-boxes", true)] {
        let (client, port, handle) = echo_pair(protected);
        row(
            format!("request/reply through {label}"),
            time(2_000, || {
                client.trans(port, Bytes::from_static(b"ping")).unwrap()
            }),
        );
        client.trans(port, Bytes::from_static(b"STOP")).unwrap();
        handle.join().unwrap();
    }
    println!();
}

/// `ObjectTable::validate` against an entry that has proven nothing
/// (every call a first presentation) and against one that has just
/// proven the same capability. `present` derives the capability to
/// present from the object's owner capability. One-way evaluations are
/// counted: none warm, and under scheme 2 exactly one per cold call.
fn table_validate_cold_warm(
    kind: SchemeKind,
    present: impl Fn(&Capability) -> Capability,
) -> (Duration, Duration) {
    const ITERS: u32 = 2_000;
    let evals = amoeba::crypto::oneway::stats::evals;
    let table = ObjectTable::<u32>::with_port(kind.instantiate(), Port::new(0x4E1).unwrap());
    // A mint leaves its entry warm with the owner capability; a
    // revocation leaves it cold, whatever is presented next.
    let caps: Vec<Capability> = (0..5 * ITERS)
        .map(|i| present(&table.revoke(&table.create(i).1).expect("revoke")))
        .collect();
    let mut first_presentations = caps.iter();
    let before = evals();
    let cold = time(ITERS, || {
        let cap = first_presentations.next().expect("one object per call");
        table.validate(cap).unwrap()
    });
    let cold_evals = evals() - before;
    if kind == SchemeKind::OneWay {
        assert_eq!(cold_evals, caps.len() as u64, "one F per cold validation");
    }
    let before = evals();
    let warm = time(ITERS, || table.validate(&caps[0]).unwrap());
    assert_eq!(evals() - before, 0, "{kind}: a warm validation evaluates F");
    (cold, warm)
}

/// E1: sparseness (random 48-bit check fields against every scheme)
/// and the cost ladder — scheme 0 a bare comparison, scheme 1 a block
/// cipher, scheme 2 one one-way evaluation, scheme 3 up to N modular
/// exponentiations.
fn e1_scheme_ladder() {
    heading(
        "E1 — sparseness: random check-field forgeries (100k/scheme)",
        "| scheme | trials | forgeries accepted |",
    );
    let mut rng = SecretStream::from_seed(7);
    let port = Port::new(0xAB).unwrap();
    let obj = ObjectNum::new(1).unwrap();
    for kind in SchemeKind::ALL {
        let scheme = kind.instantiate();
        let secret = scheme.new_secret(&mut rng);
        let cap = scheme.mint(port, obj, &secret);
        let mut hits = 0u64;
        for _ in 0..100_000 {
            let guess = cap.with_check(rng.next_u64());
            if guess.check != cap.check && scheme.validate(&guess, &secret).is_ok() {
                hits += 1;
            }
        }
        println!("| {kind} | 100000 | {hits} |");
        assert_eq!(hits, 0, "{kind}: a random check field validated");
    }
    println!();

    heading(
        "E1 — cost of the four schemes",
        "| scheme | mint | validate | reject forgery | server restrict | table validate, cold | table validate, warm |",
    );
    for kind in SchemeKind::ALL {
        let scheme = kind.instantiate();
        let secret = scheme.new_secret(&mut report_rng());
        let cap = scheme.mint(port, obj, &secret);
        let forged = cap.with_check(cap.check ^ 1);
        let mint = time(2_000, || scheme.mint(port, obj, &secret));
        let validate = time(2_000, || scheme.validate(&cap, &secret).unwrap());
        // The fail path matters: servers validate every incoming request.
        let reject = time(2_000, || scheme.validate(&forged, &secret).is_err());
        // Scheme 0 has no rights to restrict.
        let restrict = if kind == SchemeKind::Simple {
            "—".to_string()
        } else {
            let d = time(2_000, || {
                scheme.restrict(&cap, Rights::READ, &secret).unwrap()
            });
            format!("{d:.2?}")
        };
        let (cold, warm) = table_validate_cold_warm(kind, |owner| *owner);
        println!(
            "| {kind} | {mint:.2?} | {validate:.2?} | {reject:.2?} | {restrict} | {cold:.2?} | {warm:.2?} |"
        );
    }
    // The ladder's top rung: every right deleted client-side, so the
    // server applies all eight F_k to check it.
    let commutative = CommutativeScheme::standard();
    let (cold, warm) = table_validate_cold_warm(SchemeKind::Commutative, |owner| {
        commutative.diminish(owner, Rights::ALL).unwrap()
    });
    println!("| commutative, 8 rights deleted | — | — | — | — | {cold:.2?} | {warm:.2?} |");
    println!(
        "\nThe cold column is the ladder the paper draws: an object-table entry that has \
         proven nothing runs the scheme, so the first presentation of a capability costs what \
         its scheme costs. The warm column is flat because an entry remembers the last \
         capability its secret validated and answers a repeat from that word — \"the RIGHTS \
         field merely speeds up the checking\" is a statement about the first presentation, \
         and the comparison between the schemes is unchanged there.\n"
    );

    // Scheme 3's validate cost grows with the number of *deleted*
    // rights (one F_k application each).
    timing("E1 — scheme 3 validate by deleted rights");
    let scheme = CommutativeScheme::standard();
    let secret = scheme.new_secret(&mut report_rng());
    let cap = scheme.mint(port, obj, &secret);
    for deleted in [0u32, 1, 4, 7] {
        let drop = Rights::from_bits(((1u16 << deleted) - 1) as u8);
        let reduced = scheme.diminish(&cap, drop).unwrap();
        row(
            format!("{deleted} deleted"),
            time(2_000, || scheme.validate(&reduced, &secret).unwrap()),
        );
    }
    println!();
}

/// E2: packets on the wire and time per read-only delegation, local
/// diminish against the STD_RESTRICT round trip schemes 1 and 2 need.
fn e2_diminish_vs_restrict() {
    let net = Network::new();
    let runner = ServiceRunner::spawn_open(&net, FlatFsServer::new(SchemeKind::Commutative));
    let fs = FlatFsClient::with_service(ServiceClient::open(&net), runner.put_port());
    let cap = fs.create().unwrap();
    let scheme = CommutativeScheme::standard();
    let drop = Rights::ALL.without(Rights::READ);

    let before = net.stats().snapshot();
    let _local = scheme.diminish(&cap, drop).unwrap();
    let mid = net.stats().snapshot();
    let _remote = fs.service().restrict(&cap, Rights::READ).unwrap();
    let after = net.stats().snapshot();
    heading(
        "E2 — network traffic per read-only delegation",
        "| method | packets sent |",
    );
    println!(
        "| scheme 3 local diminish | {} |",
        (mid - before).packets_sent
    );
    println!(
        "| STD_RESTRICT server RPC | {} |\n",
        (after - mid).packets_sent
    );

    timing("E2 — time per read-only delegation, by wire latency");
    row(
        "scheme 3 local diminish (any latency)",
        time(2_000, || scheme.diminish(&cap, drop).unwrap()),
    );
    for (latency_us, iters) in [(0u64, 1_000), (200, 50), (1_000, 10)] {
        net.set_latency(Duration::from_micros(latency_us));
        row(
            format!("STD_RESTRICT server RPC at {latency_us} µs/hop"),
            time(iters, || fs.service().restrict(&cap, Rights::READ).unwrap()),
        );
    }
    net.set_latency(Duration::ZERO);
    println!();
    runner.stop();
}

/// E3: validation with the plaintext rights field applies exactly the
/// deleted-bit functions; without it the server tries all 2^N masks.
fn e3_rights_bruteforce() {
    heading(
        "E3 — scheme 3 validate with and without the RIGHTS field",
        "| N rights | with rights field | brute force over 2^N masks |",
    );
    let scheme = CommutativeScheme::standard();
    let secret = scheme.new_secret(&mut report_rng());
    let cap = scheme.mint(
        Port::new(0xBEC4).unwrap(),
        ObjectNum::new(9).unwrap(),
        &secret,
    );
    for n in [2usize, 4, 8] {
        // Delete the top half of the first n rights so the brute force
        // has real work to do.
        let drop_mask = ((1u16 << n) - 1) as u8 & 0xAA;
        let reduced = scheme.diminish(&cap, Rights::from_bits(drop_mask)).unwrap();
        let with_field = time(1_000, || scheme.validate(&reduced, &secret).unwrap());
        // Erase the rights field: the server must search.
        let anonymous = reduced.with_rights(Rights::NONE);
        let search = time(50, || {
            scheme
                .validate_bruteforce(&anonymous, &secret, n)
                .expect("recoverable")
        });
        println!("| {n} | {with_field:.2?} | {search:.2?} |");
    }
    println!();
}

/// E4: "it is easy to revoke existing capabilities" — one random-number
/// replacement whatever is outstanding, and every delegation dies.
fn e4_revocation() {
    heading(
        "E4 — revocation by random-number replacement",
        "| outstanding caps | revoke (median) | still valid afterwards |",
    );
    for outstanding in [10usize, 100, 1_000, 10_000] {
        let table = ObjectTable::<u32>::with_port(
            SchemeKind::Commutative.instantiate(),
            Port::new(0xE4).unwrap(),
        );
        let (_, cap) = table.create(0);
        // The delegations live in client address spaces; the server
        // keeps no record — that is the point.
        let delegated: Vec<Capability> = (0..outstanding)
            .map(|_| table.restrict(&cap, Rights::READ).unwrap())
            .collect();
        // Each revocation kills the owner capability it was given.
        let mut owner = cap;
        let revoke = time(500, || {
            owner = table.revoke(&owner).expect("revoke");
            owner
        });
        let alive = delegated
            .iter()
            .filter(|c| table.validate(c).is_ok())
            .count();
        println!("| {outstanding} | {revoke:.2?} | {alive} |");
        assert_eq!(alive, 0, "a revoked capability validated");
    }
    println!();

    // The fail path a server takes for every revoked capability that
    // still floats around the system.
    timing("E4 — rejecting a revoked capability, by scheme");
    for kind in SchemeKind::ALL {
        let table = ObjectTable::<u32>::with_port(kind.instantiate(), Port::new(0x4E1).unwrap());
        let (_, cap) = table.create(1);
        table.revoke(&cap).expect("revoke");
        row(kind, time(2_000, || table.validate(&cap).is_err()));
    }
    println!();
}

fn sample_cap(i: u64) -> Capability {
    Capability::new(
        Port::new(0x5EA1).unwrap(),
        ObjectNum::new((i % 1000) as u32).unwrap(),
        Rights::ALL,
        i.wrapping_mul(0x9E37_79B9),
    )
}

/// E5: §2.4 replay outcomes, cache effectiveness, and the DES cost the
/// caches exist to avoid.
fn e5_softprot() {
    println!("## E5 — §2.4 software protection\n");
    let net = Network::new();
    let c = net.attach_open();
    let s = net.attach_open();
    let i = net.attach_open();
    let mut rng = SecretStream::from_seed(11);
    let matrix = KeyMatrix::random(&[c.id(), s.id(), i.id()], &mut rng);
    let client = CapSealer::new(matrix.view_for(c.id()));
    let server = CapSealer::new(matrix.view_for(s.id()));

    // 1000 replays from the intruder's source address.
    let mut recovered = 0;
    for n in 0..1000u64 {
        let cap = Capability::new(
            Port::new(0xE5).unwrap(),
            ObjectNum::new((n % 100) as u32).unwrap(),
            Rights::ALL,
            n,
        );
        let sealed = client.seal(&cap, s.id()).unwrap();
        match server.unseal(sealed, i.id()) {
            Ok(g) if g == cap => recovered += 1,
            _ => {}
        }
    }
    println!("replays decrypted with M[I][S]: 1000 trials, {recovered} recovered the capability\n");
    assert_eq!(recovered, 0, "a replay from a third machine unsealed");

    // Cache hit rate for a zipf-ish working set.
    let sealer = CapSealer::new(matrix.view_for(c.id()));
    let mut state = 12;
    for _ in 0..10_000 {
        let unit = (splitmix64(&mut state) >> 11) as f64 / (1u64 << 53) as f64;
        let obj = (unit.powi(3) * 100.0) as u32; // skewed
        let cap = Capability::new(
            Port::new(0xE5).unwrap(),
            ObjectNum::new(obj).unwrap(),
            Rights::ALL,
            obj as u64,
        );
        sealer.seal(&cap, s.id()).unwrap();
    }
    let stats = sealer.cache_stats();
    println!(
        "capability cache over 10k skewed sends: {} hits / {} misses ({:.1}% hit rate)\n",
        stats.hits,
        stats.misses,
        100.0 * stats.hits as f64 / (stats.hits + stats.misses) as f64
    );

    timing("E5 — DES sealing and the capability caches");
    let des = Des::new(0x0123_4567_89AB_CDEF);
    row(
        "DES key schedule",
        time(2_000, || Des::new(black_box(0x0123_4567_89AB_CDEF))),
    );
    row(
        "seal one 128-bit capability (raw DES)",
        time(2_000, || des.encrypt_u128(black_box(42))),
    );
    let hot = sample_cap(1);
    let mut n = 0u64;
    let cold = CapSealer::new(matrix.view_for(c.id()));
    row(
        "seal, every capability new (0 % hits)",
        time(2_000, || {
            n += 1;
            cold.seal(&sample_cap(n), s.id()).unwrap()
        }),
    );
    let mixed = CapSealer::new(matrix.view_for(c.id()));
    row(
        "seal, one hot : one new (50 % hits)",
        time(2_000, || {
            n += 1;
            let cap = if n.is_multiple_of(2) {
                hot
            } else {
                sample_cap(n + 10_000)
            };
            mixed.seal(&cap, s.id()).unwrap()
        }),
    );
    let warm = CapSealer::new(matrix.view_for(c.id()));
    row(
        "seal, one hot capability (100 % hits)",
        time(2_000, || warm.seal(&hot, s.id()).unwrap()),
    );
    row(
        "seal + unseal, new capability",
        time(2_000, || {
            n += 1;
            let sealed = client.seal(&sample_cap(n + 50_000), s.id()).unwrap();
            server.unseal(sealed, c.id()).unwrap()
        }),
    );
    let sealed = client.seal(&hot, s.id()).unwrap();
    row(
        "unseal, cached",
        time(2_000, || server.unseal(sealed, c.id()).unwrap()),
    );
    println!();
}

/// E6: the full public-key handshake of §2.4.
fn e6_key_establishment() {
    timing("E6 — public-key key establishment");
    let mut rng = report_rng();
    let port = Port::new(0xB007).unwrap();
    row(
        "server boot (key generation)",
        time(5, || ServerBoot::new(port, &mut rng)),
    );
    let boot = ServerBoot::new(port, &mut rng);
    row(
        "full client handshake",
        time(20, || {
            let (session, keyreq) = ClientSession::start(boot.announcement(), &mut rng);
            let (keyrep, _, _) = boot.handle_keyreq(&keyreq, &mut rng).unwrap();
            session.finish(&keyrep).unwrap()
        }),
    );
    println!();
}

/// E7: broadcasts saved by the locate cache, what a broadcast costs as
/// the network grows, and the no-broadcast rendezvous alternative.
fn e7_locate() {
    heading(
        "E7 — LOCATE: broadcast, cache, rendezvous",
        "| machines | lookups | broadcasts (cold cache) | broadcasts (warm) \
         | cold broadcast | warm cache hit | cold rendezvous unicast |",
    );
    for machines in [4usize, 16, 64] {
        let net = Network::new();
        let stop = Arc::new(AtomicBool::new(false));
        // One target that answers LOCATE for its port, and bystanders
        // on other ports that still hear (and ignore) every broadcast.
        let target_get = Port::new(0x7A46E7).unwrap();
        let mut servers = vec![ServerPort::bind(net.attach_open(), target_get)];
        let target_port = servers[0].put_port();
        for j in 0..machines.saturating_sub(2) {
            let port = Port::new(0x99000 + j as u64).unwrap();
            servers.push(ServerPort::bind(net.attach_open(), port));
        }
        let handles: Vec<_> = servers
            .into_iter()
            .map(|server| {
                let stop = stop.clone();
                std::thread::spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        let _ = server.next_request_timeout(Duration::from_millis(5));
                    }
                })
            })
            .collect();
        let client = net.attach_open();

        // Cold: clear between lookups. Warm: 20 more without clearing.
        let locator = Locator::with_timeout(Duration::from_millis(300));
        let before = net.stats().snapshot();
        for _ in 0..20 {
            locator.clear();
            locator.locate(&client, target_port).expect("found");
        }
        let mid = net.stats().snapshot();
        for _ in 0..20 {
            locator.locate(&client, target_port).expect("found");
        }
        let after = net.stats().snapshot();
        let cold = time(20, || {
            locator.clear();
            locator.locate(&client, target_port).expect("found")
        });
        let warm = time(2_000, || locator.locate(&client, target_port).expect("hit"));
        stop.store(true, Ordering::Relaxed);
        for h in handles {
            let _ = h.join();
        }

        // Mullender–Vitányi: a cold lookup is one unicast query to a
        // hash-selected rendezvous node, whatever the machine count.
        let net = Network::new();
        let _bystanders: Vec<_> = (0..machines.saturating_sub(3))
            .map(|_| net.attach_open())
            .collect();
        let node = RendezvousNode::spawn(net.attach_open(), Port::new(0xAA10).unwrap());
        let mm = Matchmaker::new(vec![node.service_port()]);
        let served = Port::new(0x5E21).unwrap();
        let server = net.attach_open();
        mm.post(&server, served);
        let seeker = net.attach_open();
        let rendezvous = time(200, || {
            mm.invalidate(served);
            mm.locate(&seeker, served).expect("found")
        });
        node.stop();

        println!(
            "| {machines} | 20+20 | {} | {} | {cold:.2?} | {warm:.2?} | {rendezvous:.2?} |",
            (mid - before).broadcasts_sent,
            (after - mid).broadcasts_sent
        );
    }
    println!();
}

/// Builds a chain root/d0/d1/…/d{depth-1} alternating between the
/// given directory servers; returns (root, path).
fn build_chain(dirs: &DirClient, server_ports: &[Port], depth: usize) -> (Capability, String) {
    let root = dirs.create_dir_on(server_ports[0]).unwrap();
    let mut current = root;
    let mut names = Vec::new();
    for i in 0..depth {
        let next = dirs
            .create_dir_on(server_ports[i % server_ports.len()])
            .unwrap();
        names.push(format!("d{i}"));
        dirs.enter(&current, &names[i], &next).unwrap();
        current = next;
    }
    (root, names.join("/"))
}

/// E8: one RPC per path component, the same whether the directories
/// sit on one server or two; flat-file I/O; and no "open" state — the
/// first access to a capability costs what the thousandth does.
fn e8_fileserver_paths() {
    let net = Network::new();
    let dir1 = ServiceRunner::spawn_open(&net, DirServer::new(SchemeKind::Commutative));
    let dir2 = ServiceRunner::spawn_open(&net, DirServer::new(SchemeKind::Commutative));
    let dirs = DirClient::open(&net, dir1.put_port());
    heading(
        "E8 — path walk by depth",
        "| depth | one server | two servers |",
    );
    for depth in [1usize, 2, 4, 8] {
        let (root1, path1) = build_chain(&dirs, &[dir1.put_port()], depth);
        let one = time(200, || dirs.walk(&root1, &path1).unwrap());
        let (root2, path2) = build_chain(&dirs, &[dir1.put_port(), dir2.put_port()], depth);
        let two = time(200, || dirs.walk(&root2, &path2).unwrap());
        println!("| {depth} | {one:.2?} | {two:.2?} |");
    }
    println!();
    dir1.stop();
    dir2.stop();

    let runner = ServiceRunner::spawn_open(&net, FlatFsServer::new(SchemeKind::Commutative));
    let fs = FlatFsClient::open(&net, runner.put_port());
    heading("E8 — flat-file I/O", "| bytes | write | read |");
    for size in [1usize << 10, 16 << 10, 64 << 10] {
        let cap = fs.create().unwrap();
        let data = vec![0xABu8; size];
        let write = time(200, || fs.write(&cap, 0, &data).unwrap());
        let read = time(200, || fs.read(&cap, 0, size as u32).unwrap());
        println!("| {size} | {write:.2?} | {read:.2?} |");
    }
    println!();

    timing("E8 — no open state");
    let caps: Vec<Capability> = (0..256)
        .map(|i| {
            let cap = fs.create().unwrap();
            fs.write(&cap, 0, format!("file {i}").as_bytes()).unwrap();
            cap
        })
        .collect();
    let mut i = 0usize;
    row(
        "16-byte read, rotating over 256 files",
        time(1_000, || {
            i = (i + 1) % caps.len();
            fs.read(&caps[i], 0, 16).unwrap()
        }),
    );
    row(
        "16-byte read, same file",
        time(1_000, || fs.read(&caps[0], 0, 16).unwrap()),
    );
    println!();
    runner.stop();
}

/// E9: "pages are only copied when they are changed" — pages shared
/// after a 1-page edit, and the derive/edit/commit path against the
/// page-by-page copy it replaces.
fn e9_copy_on_write() {
    heading(
        "E9 — copy-on-write versions (1 page of N modified)",
        "| file pages | pages copied | pages shared | shared % | COW version | full copy |",
    );
    let net = Network::new();
    let runner = ServiceRunner::spawn_open(&net, MvfsServer::new(SchemeKind::Commutative));
    let fs = MvfsClient::open(&net, runner.put_port());
    let payload = vec![7u8; 1024];
    for pages in [16u32, 64, 256, 1024] {
        let file = fs.create_file().unwrap();
        let v0 = fs.new_version(&file).unwrap();
        for p in 0..pages {
            fs.write_page(&v0, p, &payload).unwrap();
        }
        fs.commit(&v0).unwrap();
        let v1 = fs.new_version(&file).unwrap();
        fs.write_page(&v1, pages / 2, b"edit").unwrap();
        let info = fs.version_info(&v1).unwrap();
        let copied = info.pages - info.shared_with_head;

        let cow = time(20, || {
            let v = fs.new_version(&file).unwrap();
            fs.write_page(&v, pages / 2, b"edited").unwrap();
            fs.commit(&v).unwrap();
        });
        // What a versioning file server WITHOUT COW must do: physically
        // rewrite every page into the new version.
        let full = time(3, || {
            let v = fs.new_version(&file).unwrap();
            for p in 0..pages {
                fs.write_page(&v, p, &payload).unwrap();
            }
            fs.write_page(&v, pages / 2, b"edited").unwrap();
            fs.commit(&v).unwrap();
        });
        println!(
            "| {pages} | {copied} | {} | {:.1}% | {cow:.2?} | {full:.2?} |",
            info.shared_with_head,
            100.0 * info.shared_with_head as f64 / info.pages as f64
        );
    }
    println!();

    // Optimistic concurrency: of two versions derived from one head,
    // exactly one commits.
    timing("E9 — optimistic concurrency");
    let file = fs.create_file().unwrap();
    let v0 = fs.new_version(&file).unwrap();
    fs.write_page(&v0, 0, b"seed").unwrap();
    fs.commit(&v0).unwrap();
    row(
        "derive two versions, commit both (one conflicts)",
        time(100, || {
            let a = fs.new_version(&file).unwrap();
            let b = fs.new_version(&file).unwrap();
            fs.write_page(&a, 0, b"A").unwrap();
            fs.write_page(&b, 0, b"B").unwrap();
            assert!(fs.commit(&a).is_ok());
            assert!(fs.commit(&b).is_err(), "second committer must conflict");
        }),
    );
    println!();
    runner.stop();
}

/// E10: money conservation under a quota workload, and what the nested
/// bank transaction adds to a create — the cost "pre-pay for a
/// substantial amount of work" amortises.
fn e10_bank_quota() {
    println!("## E10 — bank-backed quotas: conservation audit\n");
    let net = Network::new();
    let dollar = CurrencyId(0);
    let yen = CurrencyId(1);
    let (bank_server, treasury_rx) = BankServer::new(
        vec![
            Currency::convertible("dollar", 150),
            Currency::convertible("yen", 1),
        ],
        SchemeKind::Commutative,
    );
    let bank_runner = ServiceRunner::spawn_open(&net, bank_server);
    let treasury = treasury_rx.recv().unwrap();
    let bank = BankClient::open(&net, bank_runner.put_port());

    let fs_account = bank.open_account().unwrap();
    let fs_audit = bank.service().restrict(&fs_account, Rights::READ).unwrap();
    let fs_runner = ServiceRunner::spawn_open(
        &net,
        FlatFsServer::with_quota(
            SchemeKind::OneWay,
            QuotaPolicy {
                bank: BankClient::open(&net, bank_runner.put_port()),
                server_account: fs_account,
                currency: dollar,
                price_per_kib: 1,
            },
        ),
    );
    let fs = FlatFsClient::open(&net, fs_runner.put_port());

    let minted = 1_000u64;
    let wallet = bank.open_account().unwrap();
    bank.mint(&treasury, &wallet, dollar, minted).unwrap();

    let mut created = 0u32;
    let mut refused = 0u32;
    loop {
        match fs.create_paid(&wallet, 100) {
            Ok(cap) => {
                created += 1;
                // Fill the purchased quota exactly.
                fs.write(&cap, 0, &vec![1u8; 100 * 1024]).unwrap();
                assert!(fs.write(&cap, 100 * 1024, b"x").is_err());
            }
            Err(_) => {
                refused += 1;
                break;
            }
        }
    }
    let wallet_left = bank.balance(&wallet, dollar).unwrap();
    let earned = bank.balance(&fs_audit, dollar).unwrap();
    println!("minted {minted} dollars; file server price 1 $/KiB, 100 $ per file");
    println!("files created: {created}; refused for lack of funds: {refused}");
    println!(
        "wallet remainder {wallet_left} + server earnings {earned} = {} (must equal {minted})\n",
        wallet_left + earned
    );
    assert_eq!(wallet_left + earned, minted, "money must be conserved");

    timing("E10 — bank operations and the paid create");
    let a = bank.open_account().unwrap();
    let b = bank.open_account().unwrap();
    bank.mint(&treasury, &a, dollar, u64::MAX / 4).unwrap();
    bank.mint(&treasury, &a, yen, u64::MAX / 4).unwrap();
    row(
        "transfer",
        time(500, || bank.transfer(&a, &b, dollar, 1).unwrap()),
    );
    row(
        "balance query",
        time(500, || bank.balance(&a, dollar).unwrap()),
    );
    row(
        "convert dollars to yen",
        time(500, || bank.convert(&a, dollar, yen, 1).unwrap()),
    );
    let free_runner = ServiceRunner::spawn_open(&net, FlatFsServer::new(SchemeKind::OneWay));
    let fs_free = FlatFsClient::open(&net, free_runner.put_port());
    row("unmetered create", time(500, || fs_free.create().unwrap()));
    row(
        "metered create (one nested bank transaction)",
        time(500, || fs.create_paid(&a, 4).unwrap()),
    );
    println!();
    free_runner.stop();
    fs_runner.stop();
    bank_runner.stop();
}

/// (size, loaded bytes) of the child's text, data and stack segments.
const SEGMENTS: [(u64, usize); 3] = [(4096, 4096), (2048, 2048), (8192, 0)];

/// Creates and loads the child's segments on `mem`.
fn load_segments(mem: &MemClient, payload: &[u8]) -> Vec<Capability> {
    SEGMENTS
        .iter()
        .map(|&(size, loaded)| {
            let seg = mem.create_segment(size).unwrap();
            if loaded > 0 {
                mem.write(&seg, 0, &payload[..loaded]).unwrap();
            }
            seg
        })
        .collect()
}

/// E11: a 3-segment child built directly on the target machine against
/// the FORK + EXEC shape (build locally, then copy every segment over).
fn e11_remote_process() {
    heading(
        "E11 — create a 3-segment process on a remote machine",
        "| wire latency | direct on the remote memory server | build locally, then copy |",
    );
    let payload = vec![0xC0u8; 4096];
    for (latency_us, iters) in [(0u64, 50), (500, 3)] {
        let net = Network::new();
        net.set_latency(Duration::from_micros(latency_us));
        let remote_runner = ServiceRunner::spawn_open(&net, MemServer::new(SchemeKind::OneWay));
        let local_runner = ServiceRunner::spawn_open(&net, MemServer::new(SchemeKind::OneWay));
        let remote = MemClient::with_service(ServiceClient::open(&net), remote_runner.put_port());
        let local = MemClient::with_service(ServiceClient::open(&net), local_runner.put_port());
        // The parent and the "local" memory server share a machine:
        // traffic between them skips the network latency.
        net.colocate(
            local.service().rpc().endpoint().id(),
            local_runner.machine(),
        );
        let run_and_reap = |segs: &[Capability]| {
            let child = remote.make_process(segs).unwrap();
            remote.start(&child).unwrap();
            remote.kill(&child).unwrap();
            for seg in segs {
                remote.delete_segment(seg).unwrap();
            }
        };

        let direct = time(iters, || run_and_reap(&load_segments(&remote, &payload)));
        let copied = time(iters, || {
            let local_segs = load_segments(&local, &payload);
            // Copy to the remote machine (read back + rewrite).
            let remote_segs: Vec<Capability> = local_segs
                .iter()
                .zip(SEGMENTS)
                .map(|(seg, (size, loaded))| {
                    let r = remote.create_segment(size).unwrap();
                    if loaded > 0 {
                        let data = local.read(seg, 0, loaded as u32).unwrap();
                        remote.write(&r, 0, &data).unwrap();
                    }
                    r
                })
                .collect();
            run_and_reap(&remote_segs);
            for seg in &local_segs {
                local.delete_segment(seg).unwrap();
            }
        });
        println!("| {latency_us} µs/hop | {direct:.2?} | {copied:.2?} |");
        remote_runner.stop();
        local_runner.stop();
    }
    println!();
}

/// The from-scratch primitives everything above reduces to; their
/// relative costs explain every row of E1 and E5 (`F` itself is in
/// F1b).
fn primitives_ablation() {
    timing("Primitives ablation");
    for size in [64usize, 1024, 16 * 1024] {
        let data = vec![0xAAu8; size];
        let d = time(200, || Sha256::digest(&data));
        println!(
            "| SHA-256 of {size} bytes | {d:.2?} ({:.0} MB/s) |",
            size as f64 / d.as_secs_f64() / 1e6
        );
    }
    let des = Des::new(0x0123_4567_89AB_CDEF);
    let tdes = TripleDes::two_key(0x0123_4567_89AB_CDEF, 0xFEDC_BA98_7654_3210);
    row(
        "DES block",
        time(2_000, || des.encrypt_block(black_box(42))),
    );
    row(
        "3DES block (two-key)",
        time(2_000, || tdes.encrypt_block(black_box(42))),
    );
    let kib = vec![0x55u8; 1024];
    row("DES-CBC, 1 KiB", time(200, || des.encrypt_cbc(&kib, 7)));
    let cipher = Feistel56::new(0xDEAD_BEEF);
    let block = Block56::truncate(0x1234_5678_9ABC);
    row(
        "Feistel-56 encrypt (scheme 1)",
        time(2_000, || cipher.encrypt(block)),
    );
    row(
        "Feistel-56 key setup",
        time(2_000, || Feistel56::new(black_box(0xDEAD_BEEF))),
    );
    let family = CommutativeOwfFamily::standard();
    row(
        "commutative F_k, one application (scheme 3)",
        time(2_000, || family.apply(3, black_box(0x1234_5678))),
    );
    row(
        "commutative F_k, all 8",
        time(2_000, || family.apply_mask(0xFF, black_box(0x1234_5678))),
    );
    println!();
}
