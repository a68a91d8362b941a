//! Edge cases across every service, exercised through the public API:
//! degenerate sizes, wrong-kind capabilities, deleted objects, identity
//! operations, and the standard command set on every server.

use amoeba::prelude::*;
use bytes::Bytes;

// ---------------------------------------------------------------------
// Standard commands work on every service
// ---------------------------------------------------------------------

#[test]
fn std_info_restrict_revoke_on_every_service() {
    let net = Network::new();

    // One object per service, then the generic STD_ ops on each.
    let (bank_server, _treasury) = BankServer::new(
        vec![Currency::convertible("dollar", 1)],
        SchemeKind::Commutative,
    );
    let bank_runner = ServiceRunner::spawn_open(&net, bank_server);
    let disk_runner = ServiceRunner::spawn_open(
        &net,
        BlockServer::new(DiskConfig::small(), SchemeKind::Commutative),
    );
    let fs_runner = ServiceRunner::spawn_open(&net, FlatFsServer::new(SchemeKind::Commutative));
    let bfs_runner = ServiceRunner::spawn_open(
        &net,
        BlockFlatFsServer::new(&net, disk_runner.put_port(), SchemeKind::Commutative),
    );
    let dir_runner = ServiceRunner::spawn_open(&net, DirServer::new(SchemeKind::Commutative));
    let mem_runner = ServiceRunner::spawn_open(&net, MemServer::new(SchemeKind::Commutative));
    let mvfs_runner = ServiceRunner::spawn_open(&net, MvfsServer::new(SchemeKind::Commutative));
    let unix_runner = ServiceRunner::spawn_open(
        &net,
        UnixFsServer::new(&net, disk_runner.put_port(), SchemeKind::Commutative),
    );

    let svc = ServiceClient::open(&net);
    let bank = BankClient::with_service(ServiceClient::open(&net), bank_runner.put_port());
    let disk = BlockClient::with_service(ServiceClient::open(&net), disk_runner.put_port());
    let fs = FlatFsClient::with_service(ServiceClient::open(&net), fs_runner.put_port());
    let bfs = FlatFsClient::with_service(ServiceClient::open(&net), bfs_runner.put_port());
    let dirs = DirClient::with_service(ServiceClient::open(&net), dir_runner.put_port());
    let mem = MemClient::with_service(ServiceClient::open(&net), mem_runner.put_port());
    let mvfs = MvfsClient::with_service(ServiceClient::open(&net), mvfs_runner.put_port());
    let unix = UnixFsClient::with_service(ServiceClient::open(&net), unix_runner.put_port());

    let caps = [
        bank.open_account().unwrap(),
        disk.alloc().unwrap(),
        fs.create().unwrap(),
        bfs.create().unwrap(),
        dirs.create_dir().unwrap(),
        mem.create_segment(64).unwrap(),
        mvfs.create_file().unwrap(),
        unix.create(&unix.root().unwrap(), "f").unwrap(),
    ];
    for cap in caps {
        assert_eq!(svc.info(&cap).unwrap(), Rights::ALL);
        let ro = svc.restrict(&cap, Rights::READ).unwrap();
        assert_eq!(svc.info(&ro).unwrap(), Rights::READ);
        let fresh = svc.revoke(&cap).unwrap();
        assert!(svc.info(&cap).is_err(), "old capability dead");
        assert!(svc.info(&ro).is_err(), "restricted copy dead");
        assert_eq!(svc.info(&fresh).unwrap(), Rights::ALL);
        // A command the service does not declare, on a good capability.
        assert_eq!(
            svc.call(&fresh, 0xBAD, Bytes::new()).unwrap_err(),
            ClientError::Status(Status::BadCommand),
            "unknown command on {:?}",
            fresh.port
        );
    }

    for runner in [
        unix_runner,
        mvfs_runner,
        mem_runner,
        dir_runner,
        bfs_runner,
        fs_runner,
        disk_runner,
        bank_runner,
    ] {
        runner.stop();
    }
}

// ---------------------------------------------------------------------
// Degenerate sizes
// ---------------------------------------------------------------------

#[test]
fn zero_length_operations() {
    let net = Network::new();
    let runner = ServiceRunner::spawn_open(&net, FlatFsServer::new(SchemeKind::OneWay));
    let fs = FlatFsClient::with_service(ServiceClient::open(&net), runner.put_port());

    let cap = fs.create().unwrap();
    // Zero-length write at offset 0 of an empty file: size stays 0.
    assert_eq!(fs.write(&cap, 0, b"").unwrap(), 0);
    // Zero-length read anywhere: empty.
    assert!(fs.read(&cap, 0, 0).unwrap().is_empty());
    assert!(fs.read(&cap, 10_000, 0).unwrap().is_empty());
    // Zero-length write at a far offset extends with zeros (POSIX-ish:
    // the write's end defines the size).
    assert_eq!(fs.write(&cap, 100, b"").unwrap(), 100);
    assert_eq!(fs.size(&cap).unwrap(), 100);
    runner.stop();
}

#[test]
fn zero_sized_segment_and_empty_process() {
    let net = Network::new();
    let runner = ServiceRunner::spawn_open(&net, MemServer::new(SchemeKind::Simple));
    let mem = MemClient::with_service(ServiceClient::open(&net), runner.put_port());

    let seg = mem.create_segment(0).unwrap();
    assert_eq!(mem.size(&seg).unwrap(), 0);
    assert!(mem.read(&seg, 0, 0).unwrap().is_empty());
    assert!(matches!(
        mem.read(&seg, 0, 1).unwrap_err(),
        ClientError::Status(Status::OutOfRange)
    ));

    // A process with zero segments is legal (weird, but nothing in the
    // model forbids it) and has a working lifecycle.
    let p = mem.make_process(&[]).unwrap();
    mem.start(&p).unwrap();
    mem.kill(&p).unwrap();
    runner.stop();
}

// ---------------------------------------------------------------------
// Wrong-kind capabilities
// ---------------------------------------------------------------------

#[test]
fn file_capability_presented_to_directory_ops() {
    let net = Network::new();
    let dir_runner = ServiceRunner::spawn_open(&net, DirServer::new(SchemeKind::OneWay));
    let dirs = DirClient::with_service(ServiceClient::open(&net), dir_runner.put_port());

    let d = dirs.create_dir().unwrap();
    // A *directory* capability with its port rewritten toward the same
    // server but a bogus object: must fail cleanly, not hang or panic.
    let phantom = Capability::new(d.port, ObjectNum::new(12345).unwrap(), d.rights, d.check);
    assert!(matches!(
        dirs.lookup(&phantom, "x").unwrap_err(),
        ClientError::Status(Status::NoSuchObject) | ClientError::Status(Status::Forged)
    ));
    dir_runner.stop();
}

#[test]
fn mvfs_kind_confusion_rejected() {
    let net = Network::new();
    let runner = ServiceRunner::spawn_open(&net, MvfsServer::new(SchemeKind::Commutative));
    let fs = MvfsClient::with_service(ServiceClient::open(&net), runner.put_port());

    let file = fs.create_file().unwrap();
    let version = fs.new_version(&file).unwrap();

    // Deriving a version *from a version* is refused.
    assert_eq!(
        fs.new_version(&version).unwrap_err(),
        ClientError::Status(Status::BadRequest)
    );
    // Writing a page of a *file* capability is refused.
    assert_eq!(
        fs.write_page(&file, 0, b"x").unwrap_err(),
        ClientError::Status(Status::BadRequest)
    );
    // version_info on a file / file_info on a version: refused.
    assert_eq!(
        fs.version_info(&file).unwrap_err(),
        ClientError::Status(Status::BadRequest)
    );
    assert_eq!(
        fs.file_info(&version).unwrap_err(),
        ClientError::Status(Status::BadRequest)
    );
    // Committing the file itself: refused.
    assert_eq!(
        fs.commit(&file).unwrap_err(),
        ClientError::Status(Status::BadRequest)
    );
    runner.stop();
}

#[test]
fn empty_mvfs_file_has_no_pages() {
    let net = Network::new();
    let runner = ServiceRunner::spawn_open(&net, MvfsServer::new(SchemeKind::Simple));
    let fs = MvfsClient::with_service(ServiceClient::open(&net), runner.put_port());
    let file = fs.create_file().unwrap();
    assert_eq!(
        fs.read_page(&file, 0).unwrap_err(),
        ClientError::Status(Status::OutOfRange)
    );
    let info = fs.file_info(&file).unwrap();
    assert_eq!((info.committed_versions, info.pages), (0, 0));
    runner.stop();
}

// ---------------------------------------------------------------------
// Bank corner cases
// ---------------------------------------------------------------------

#[test]
fn bank_self_transfer_conserves() {
    let net = Network::new();
    let (server, treasury_rx) =
        BankServer::new(vec![Currency::convertible("dollar", 1)], SchemeKind::OneWay);
    let runner = ServiceRunner::spawn_open(&net, server);
    let bank = BankClient::open(&net, runner.put_port());
    let treasury = treasury_rx.recv().unwrap();

    let a = bank.open_account().unwrap();
    bank.mint(&treasury, &a, CurrencyId(0), 100).unwrap();
    bank.transfer(&a, &a, CurrencyId(0), 60).unwrap();
    assert_eq!(bank.balance(&a, CurrencyId(0)).unwrap(), 100);
    runner.stop();
}

#[test]
fn bank_zero_amount_operations() {
    let net = Network::new();
    let (server, treasury_rx) =
        BankServer::new(vec![Currency::convertible("dollar", 1)], SchemeKind::Simple);
    let runner = ServiceRunner::spawn_open(&net, server);
    let bank = BankClient::open(&net, runner.put_port());
    let _treasury = treasury_rx.recv().unwrap();

    let a = bank.open_account().unwrap();
    let b = bank.open_account().unwrap();
    // Zero transfers succeed and change nothing.
    bank.transfer(&a, &b, CurrencyId(0), 0).unwrap();
    assert_eq!(bank.balance(&a, CurrencyId(0)).unwrap(), 0);
    assert_eq!(bank.balance(&b, CurrencyId(0)).unwrap(), 0);
    runner.stop();
}

#[test]
fn bank_conversion_rounding_floors() {
    let net = Network::new();
    let (server, treasury_rx) = BankServer::new(
        vec![
            Currency::convertible("cent", 1),
            Currency::convertible("dollar", 100),
        ],
        SchemeKind::OneWay,
    );
    let runner = ServiceRunner::spawn_open(&net, server);
    let bank = BankClient::open(&net, runner.put_port());
    let treasury = treasury_rx.recv().unwrap();
    let a = bank.open_account().unwrap();
    bank.mint(&treasury, &a, CurrencyId(0), 199).unwrap();
    // 199 cents = 1 dollar, flooring away 99 base units within the
    // conversion — the 99 cents are consumed (documented floor).
    let credited = bank.convert(&a, CurrencyId(0), CurrencyId(1), 199).unwrap();
    assert_eq!(credited, 1);
    assert_eq!(bank.balance(&a, CurrencyId(1)).unwrap(), 1);
    runner.stop();
}

// ---------------------------------------------------------------------
// Directory structure edge cases
// ---------------------------------------------------------------------

#[test]
fn directory_cycles_are_representable_and_walkable() {
    // Directories are (name, capability) sets — nothing stops a cycle,
    // and the paper's model doesn't forbid it ("arbitrary directory
    // trees, graphs"). Walking a cycle must terminate per path segment.
    let net = Network::new();
    let runner = ServiceRunner::spawn_open(&net, DirServer::new(SchemeKind::Commutative));
    let dirs = DirClient::with_service(ServiceClient::open(&net), runner.put_port());

    let a = dirs.create_dir().unwrap();
    let b = dirs.create_dir().unwrap();
    dirs.enter(&a, "b", &b).unwrap();
    dirs.enter(&b, "a", &a).unwrap(); // cycle
    let back = dirs.walk(&a, "b/a/b/a/b/a").unwrap();
    assert_eq!(back, a);
    runner.stop();
}

#[test]
fn directory_entries_survive_target_deletion_as_dangling_caps() {
    // Directories store capabilities, not objects. Destroying the
    // target leaves a dangling entry whose use fails at the *object's*
    // server — exactly the semantics of bearer capabilities.
    let net = Network::new();
    let dir_runner = ServiceRunner::spawn_open(&net, DirServer::new(SchemeKind::OneWay));
    let fs_runner = ServiceRunner::spawn_open(&net, FlatFsServer::new(SchemeKind::OneWay));
    let dirs = DirClient::with_service(ServiceClient::open(&net), dir_runner.put_port());
    let fs = FlatFsClient::with_service(ServiceClient::open(&net), fs_runner.put_port());

    let d = dirs.create_dir().unwrap();
    let f = fs.create().unwrap();
    dirs.enter(&d, "ghost-to-be", &f).unwrap();
    fs.destroy(&f).unwrap();

    let dangling = dirs.lookup(&d, "ghost-to-be").unwrap();
    assert!(matches!(
        fs.size(&dangling).unwrap_err(),
        ClientError::Status(Status::NoSuchObject) | ClientError::Status(Status::Forged)
    ));
    dir_runner.stop();
    fs_runner.stop();
}

// ---------------------------------------------------------------------
// Block server edge cases
// ---------------------------------------------------------------------

#[test]
fn block_boundary_writes() {
    let net = Network::new();
    let runner = ServiceRunner::spawn_open(
        &net,
        BlockServer::new(
            DiskConfig {
                block_size: 16,
                capacity_blocks: 2,
            },
            SchemeKind::Simple,
        ),
    );
    let disk = BlockClient::open(&net, runner.put_port());
    let cap = disk.alloc().unwrap();
    // Exactly filling the block is fine; one past is not.
    disk.write(&cap, 0, &[7u8; 16]).unwrap();
    assert_eq!(disk.read(&cap, 15, 1).unwrap(), vec![7]);
    assert!(matches!(
        disk.write(&cap, 16, &[1]).unwrap_err(),
        ClientError::Status(Status::OutOfRange)
    ));
    assert!(matches!(
        disk.read(&cap, 16, 1).unwrap_err(),
        ClientError::Status(Status::OutOfRange)
    ));
    runner.stop();
}

#[test]
fn concurrent_allocation_respects_capacity() {
    let net = Network::new();
    let runner = ServiceRunner::spawn_open(
        &net,
        BlockServer::new(
            DiskConfig {
                block_size: 32,
                capacity_blocks: 20,
            },
            SchemeKind::OneWay,
        ),
    );
    let port = runner.put_port();
    let mut handles = Vec::new();
    for _ in 0..4 {
        let net = net.clone();
        handles.push(std::thread::spawn(move || {
            let disk = BlockClient::open(&net, port);
            let mut got = 0;
            while disk.alloc().is_ok() {
                got += 1;
            }
            got
        }));
    }
    let total: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
    assert_eq!(total, 20, "exactly the disk capacity, no over-allocation");
    runner.stop();
}

// ---------------------------------------------------------------------
// RPC robustness
// ---------------------------------------------------------------------

#[test]
fn noise_on_the_reply_port_does_not_confuse_the_client() {
    // An attacker spraying junk at a client's reply port must not make
    // trans() return garbage: only well-formed Reply frames count.
    let net = Network::new();
    let runner = ServiceRunner::spawn_open(&net, FlatFsServer::new(SchemeKind::Simple));
    let fs = FlatFsClient::with_service(ServiceClient::open(&net), runner.put_port());

    // A jammer floods every port it has seen on the wire.
    let wire = net.tap();
    let jammer = net.attach_open();
    let jam = std::thread::spawn(move || {
        for _ in 0..50 {
            if let Ok(pkt) = wire.recv_timeout(std::time::Duration::from_millis(100)) {
                // Spray malformed junk at whatever reply port appears.
                if !pkt.header.reply.is_null() {
                    jammer.send(
                        Header::to(pkt.header.reply),
                        Bytes::from_static(b"\xFFjunk"),
                    );
                }
            } else {
                break;
            }
        }
    });

    for i in 0..20u64 {
        let cap = fs.create().unwrap();
        fs.write(&cap, 0, format!("msg {i}").as_bytes()).unwrap();
        assert_eq!(fs.read(&cap, 0, 32).unwrap(), format!("msg {i}").as_bytes());
    }
    jam.join().unwrap();
    runner.stop();
}
