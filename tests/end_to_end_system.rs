//! A whole-system integration test: every Amoeba service from §3
//! running together on one simulated network, exercised by a realistic
//! user session.

use amoeba::prelude::*;
use std::time::Duration;

const DOLLAR: CurrencyId = CurrencyId(0);

struct World {
    net: Network,
    runners: Vec<ServiceRunner>,
    bank_port: Port,
    treasury: Capability,
    fs_port: Port,
    dir_port: Port,
    mvfs_port: Port,
    mem_port: Port,
    #[allow(dead_code)]
    disk_port: Port,
    ufs_port: Port,
}

fn boot_world() -> World {
    let net = Network::new();
    let mut runners = Vec::new();

    let (bank_server, treasury_rx) = BankServer::new(
        vec![Currency::convertible("dollar", 1)],
        SchemeKind::Commutative,
    );
    let bank_runner = ServiceRunner::spawn_open(&net, bank_server);
    let bank_port = bank_runner.put_port();
    let treasury = treasury_rx
        .recv_timeout(Duration::from_secs(5))
        .expect("treasury");
    runners.push(bank_runner);

    let fs = ServiceRunner::spawn_open(&net, FlatFsServer::new(SchemeKind::Commutative));
    let fs_port = fs.put_port();
    runners.push(fs);

    let dirs = ServiceRunner::spawn_open(&net, DirServer::new(SchemeKind::OneWay));
    let dir_port = dirs.put_port();
    runners.push(dirs);

    let mvfs = ServiceRunner::spawn_open(&net, MvfsServer::new(SchemeKind::Commutative));
    let mvfs_port = mvfs.put_port();
    runners.push(mvfs);

    let mem = ServiceRunner::spawn_open(&net, MemServer::new(SchemeKind::Encrypted));
    let mem_port = mem.put_port();
    runners.push(mem);

    let disk = ServiceRunner::spawn_open(
        &net,
        BlockServer::new(DiskConfig::small(), SchemeKind::OneWay),
    );
    let disk_port = disk.put_port();
    let ufs = ServiceRunner::spawn_open(
        &net,
        UnixFsServer::new(&net, disk_port, SchemeKind::Commutative),
    );
    let ufs_port = ufs.put_port();
    runners.push(disk);
    runners.push(ufs);

    World {
        net,
        runners,
        bank_port,
        treasury,
        fs_port,
        dir_port,
        mvfs_port,
        mem_port,
        disk_port,
        ufs_port,
    }
}

#[test]
fn user_session_across_all_services() {
    let w = boot_world();
    let net = &w.net;

    // The user's toolbox.
    let bank = BankClient::open(net, w.bank_port);
    let fs = FlatFsClient::open(net, w.fs_port);
    let dirs = DirClient::open(net, w.dir_port);
    let mvfs = MvfsClient::open(net, w.mvfs_port);
    let mem = MemClient::open(net, w.mem_port);
    let ufs = UnixFsClient::open(net, w.ufs_port);

    // 1. Payroll: the user gets an account with money.
    let wallet = bank.open_account().unwrap();
    bank.mint(&w.treasury, &wallet, DOLLAR, 1000).unwrap();

    // 2. Home directory with a flat file and a versioned document.
    let home = dirs.create_dir().unwrap();
    let report = fs.create().unwrap();
    fs.write(&report, 0, b"Q2 numbers: 42").unwrap();
    dirs.enter(&home, "report.txt", &report).unwrap();

    let doc = mvfs.create_file().unwrap();
    let v1 = mvfs.new_version(&doc).unwrap();
    mvfs.write_page(&v1, 0, b"draft").unwrap();
    mvfs.commit(&v1).unwrap();
    dirs.enter(&home, "thesis.mv", &doc).unwrap();

    // 3. A UNIX-style tree for ported applications.
    let ufs_root = ufs.root().unwrap();
    let etc = ufs.mkdir(&ufs_root, "etc").unwrap();
    let passwd = ufs.create(&etc, "passwd").unwrap();
    ufs.write(&passwd, 0, b"ast:x:1:1:Andy:/:").unwrap();
    dirs.enter(&home, "unix-etc", &etc).unwrap();

    // 4. Launch a worker process whose text comes from the flat file.
    let program = fs.read(&report, 0, 100).unwrap();
    let text_seg = mem.create_segment(4096).unwrap();
    mem.write(&text_seg, 0, &program).unwrap();
    let worker = mem.make_process(&[text_seg]).unwrap();
    mem.start(&worker).unwrap();
    assert_eq!(mem.status(&worker).unwrap(), ProcState::Running);

    // 5. Hand the report (read-only) to an auditor via the directory.
    let auditor_view = fs.service().restrict(&report, Rights::READ).unwrap();
    dirs.enter(&home, "report-for-audit.txt", &auditor_view)
        .unwrap();

    // --- The auditor's machine --------------------------------------------
    let auditor_dirs = DirClient::open(net, w.dir_port);
    let auditor_fs = FlatFsClient::open(net, w.fs_port);
    let found = auditor_dirs.walk(&home, "report-for-audit.txt").unwrap();
    assert_eq!(&auditor_fs.read(&found, 0, 100).unwrap(), b"Q2 numbers: 42");
    assert!(
        auditor_fs.write(&found, 0, b"cooked books").is_err(),
        "auditor must not modify"
    );

    // The versioned document keeps history even as work continues.
    let found_doc = auditor_dirs.walk(&home, "thesis.mv").unwrap();
    let v2 = mvfs.new_version(&found_doc).unwrap();
    mvfs.write_page(&v2, 0, b"final").unwrap();
    mvfs.commit(&v2).unwrap();
    assert_eq!(&mvfs.read_page(&v1, 0).unwrap()[..5], b"draft");
    assert_eq!(&mvfs.read_page(&found_doc, 0).unwrap()[..5], b"final");

    // The UNIX tree reached through the Amoeba directory.
    let found_etc = auditor_dirs.walk(&home, "unix-etc").unwrap();
    let auditor_ufs = UnixFsClient::open(net, w.ufs_port);
    let found_passwd = auditor_ufs.lookup(&found_etc, "passwd").unwrap();
    assert_eq!(&auditor_ufs.read(&found_passwd, 0, 3).unwrap(), b"ast");

    // 6. Pay for the audit.
    let auditor_account = bank.open_account().unwrap();
    bank.transfer(&wallet, &auditor_account, DOLLAR, 250)
        .unwrap();
    assert_eq!(bank.balance(&wallet, DOLLAR).unwrap(), 750);
    assert_eq!(bank.balance(&auditor_account, DOLLAR).unwrap(), 250);

    // 7. Wind down: stop the worker, revoke the audit view.
    mem.stop(&worker).unwrap();
    let _fresh = fs.service().revoke(&report).unwrap();
    assert!(auditor_fs.read(&found, 0, 1).is_err(), "revoked");

    for r in w.runners {
        r.stop();
    }
}

#[test]
fn services_under_packet_loss() {
    // RPC retries make the system usable on a lossy network. Only the
    // file server boots: in `boot_world` the unix file server's
    // boot-time `statfs` would run under the same loss with default
    // retries.
    let plan = FaultPlan {
        loss_per_mille: 300,
        ..FaultPlan::quiet()
    };
    let net = Network::new_with_plan(42, plan);
    let runner = ServiceRunner::spawn_open(&net, FlatFsServer::new(SchemeKind::Commutative));
    let fs = FlatFsClient::with_service(
        ServiceClient::open_with_config(
            &net,
            RpcConfig {
                timeout: Duration::from_millis(50),
                attempts: 20,
            },
        ),
        runner.put_port(),
    );
    let cap = fs.create().expect("create despite 30% loss");
    fs.write(&cap, 0, b"lossy but alive").expect("write");
    assert_eq!(&fs.read(&cap, 0, 100).unwrap(), b"lossy but alive");
    runner.stop();
}

#[test]
fn cross_service_capability_misuse_is_rejected() {
    // A capability minted by one server presented to another: the
    // object number may exist there, but the check field cannot
    // validate against the other server's secrets.
    let w = boot_world();
    let fs = FlatFsClient::open(&w.net, w.fs_port);
    let mvfs = MvfsClient::open(&w.net, w.mvfs_port);
    let bank = BankClient::open(&w.net, w.bank_port);

    let file_cap = fs.create().unwrap();
    // Force-route the file capability to the MVFS server.
    let cross = Capability::new(
        mvfs_port_of(&w),
        file_cap.object,
        file_cap.rights,
        file_cap.check,
    );
    assert!(
        matches!(
            mvfs.read_page(&cross, 0).unwrap_err(),
            ClientError::Status(Status::Forged) | ClientError::Status(Status::NoSuchObject)
        ),
        "foreign capability must not validate"
    );

    // And at the bank (object 0 = treasury exists there!).
    let cross_bank = Capability::new(
        w.bank_port,
        ObjectNum::new(0).unwrap(),
        Rights::ALL,
        file_cap.check,
    );
    assert!(bank.balance(&cross_bank, DOLLAR).is_err());

    for r in w.runners {
        r.stop();
    }
}

fn mvfs_port_of(w: &World) -> Port {
    w.mvfs_port
}
