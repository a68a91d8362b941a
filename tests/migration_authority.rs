//! Who may move a shard. A `STD_TRANSFER_*` request installs object
//! records — secrets and all — so it is the strongest request a server
//! answers. Only a server that a cluster placed answers it, and only
//! when the request carries that server's own migration capability.
//!
//! Each test plays the same takeover: three requests that name a
//! victim's file slot and a record with a secret of the sender's
//! choosing (7), followed by a capability the sender minted locally
//! under that secret.

use amoeba::flatfs::ops;
use amoeba::prelude::*;
use amoeba::server::migrate::TransferOp;
use amoeba::server::proto::null_cap;
use amoeba::server::{wire, DEFAULT_SHARDS};
use bytes::Bytes;

/// The secret every forged record carries.
const CHOSEN_SECRET: u64 = 7;

/// An object number's (shard, slot) in a table of [`DEFAULT_SHARDS`].
fn split(object: ObjectNum) -> (u8, u32) {
    let raw = object.value();
    (
        (raw % DEFAULT_SHARDS as u32) as u8,
        raw / DEFAULT_SHARDS as u32,
    )
}

/// A flat file server's `File` as its migration record encodes it:
/// data ‖ quota ‖ payer. The encoding is public, so any sender can
/// build one.
fn file_body(data: &[u8], quota: Option<u64>, paid: Option<(&Capability, u64)>) -> Vec<u8> {
    let mut w = wire::Writer::new().bytes(data);
    w = match quota {
        Some(q) => w.u32(1).u64(q),
        None => w.u32(0),
    };
    w = match paid {
        Some((account, prepay)) => w.u32(1).cap(account).u64(prepay),
        None => w.u32(0),
    };
    w.finish().to_vec()
}

/// One live record: slot ‖ live ‖ secret ‖ length ‖ body.
fn record(slot: u32, body: &[u8]) -> Bytes {
    let mut out = slot.to_be_bytes().to_vec();
    out.push(1);
    out.extend_from_slice(&CHOSEN_SECRET.to_be_bytes());
    out.extend_from_slice(&(body.len() as u32).to_be_bytes());
    out.extend_from_slice(body);
    Bytes::from(out)
}

/// A capability for `object` at `port`, minted locally under the
/// chosen secret — what the sender would hold if a record were taken.
fn self_minted(kind: SchemeKind, port: Port, object: ObjectNum) -> Capability {
    kind.instantiate()
        .mint(port, object, &ObjectSecret::from_value(CHOSEN_SECRET))
}

/// Sends transfer `xfer` — `Begin` for `shard`, one `Chunk` holding
/// `records`, `Commit` — to `port` with `cap` in every request, and
/// returns each op's answer.
fn send_transfer(
    svc: &ServiceClient,
    port: Port,
    cap: &Capability,
    xfer: u64,
    shard: u8,
    records: Bytes,
) -> Vec<Result<Bytes, ClientError>> {
    [
        TransferOp::Begin { xfer, shard },
        TransferOp::Chunk {
            xfer,
            seq: 0,
            records,
        },
        TransferOp::Commit { xfer, chunks: 1 },
    ]
    .iter()
    .map(|op| {
        let params = op.write_params(wire::Writer::new()).finish();
        svc.call_at(port, cap, op.command(), params)
    })
    .collect()
}

fn refused(status: Status) -> Result<Bytes, ClientError> {
    Err(ClientError::Status(status))
}

#[test]
fn an_unplaced_server_answers_no_migration_op() {
    for kind in SchemeKind::ALL {
        let net = Network::new();
        let runner = ServiceRunner::spawn_open(&net, FlatFsServer::new(kind));
        let port = runner.put_port();
        let owner = FlatFsClient::open(&net, port);
        let cap = owner.create().unwrap();
        owner.write(&cap, 0, b"still mine").unwrap();

        let (shard, slot) = split(cap.object);
        let pwned = record(slot, &file_body(b"pwned", None, None));
        let attacker = ServiceClient::open(&net);
        assert_eq!(
            send_transfer(&attacker, port, &null_cap(), 0xBAD, shard, pwned),
            vec![refused(Status::Unsupported); 3],
            "{kind}"
        );
        assert_eq!(owner.read(&cap, 0, 64).unwrap(), b"still mine", "{kind}");
        assert_eq!(
            owner.read(&self_minted(kind, port, cap.object), 0, 64),
            refused(Status::Forged).map(|b| b.to_vec()),
            "{kind}"
        );
        runner.stop();
    }
}

#[test]
fn a_metered_unplaced_server_pays_no_forged_record() {
    let net = Network::new();
    let dollar = CurrencyId(0);
    let (bank_server, treasury_rx) =
        BankServer::new(vec![Currency::convertible("dollar", 1)], SchemeKind::OneWay);
    let bank_runner = ServiceRunner::spawn_open(&net, bank_server);
    let treasury = treasury_rx.recv().unwrap();
    let bank = BankClient::open(&net, bank_runner.put_port());
    let server_account = bank.open_account().unwrap();
    let payer = bank.open_account().unwrap();
    let thief = bank.open_account().unwrap();
    bank.mint(&treasury, &payer, dollar, 1_000).unwrap();
    let fs_runner = ServiceRunner::spawn_open(
        &net,
        FlatFsServer::with_quota(
            SchemeKind::OneWay,
            QuotaPolicy {
                bank: BankClient::open(&net, bank_runner.put_port()),
                server_account,
                currency: dollar,
                price_per_kib: 1,
            },
        ),
    );
    let port = fs_runner.put_port();
    let fs = FlatFsClient::open(&net, port);
    let file = fs.create_paid(&payer, 100).unwrap();
    fs.write(&file, 0, b"paid for").unwrap();
    let balances =
        || [server_account, payer, thief].map(|account| bank.balance(&account, dollar).unwrap());
    assert_eq!(balances(), [100, 900, 0]);

    // An empty file at a slot the server never opened, prepaid 100 by
    // the thief's account: destroying it refunds the whole prepay.
    let (shard, _) = split(file.object);
    let slot = 1_000;
    let object = ObjectNum::new(slot * DEFAULT_SHARDS as u32 + u32::from(shard)).unwrap();
    let forged = record(slot, &file_body(b"", Some(100 * 1024), Some((&thief, 100))));
    let attacker = ServiceClient::open(&net);
    assert_eq!(
        send_transfer(&attacker, port, &null_cap(), 0xBAD, shard, forged),
        vec![refused(Status::Unsupported); 3]
    );
    let destroy = attacker.call(
        &self_minted(SchemeKind::OneWay, port, object),
        ops::DESTROY,
        Bytes::new(),
    );
    assert_eq!(destroy, refused(Status::NoSuchObject));
    assert_eq!(
        balances(),
        [100, 900, 0],
        "the server's account still holds the payer's prepay"
    );
    fs_runner.stop();
    bank_runner.stop();
}

#[test]
fn a_placed_replica_answers_only_its_own_migration_capability() {
    for kind in SchemeKind::ALL {
        let net = Network::new();
        // A two-replica group, placed as `ElasticCluster::spawn_open`
        // places one: the range first, then the port.
        let replicas: Vec<ServiceRunner> = (0..2)
            .map(|i| {
                let mut fs = FlatFsServer::new(kind);
                fs.bind_shard_range(i, 2);
                ServiceRunner::spawn_open(&net, fs)
            })
            .collect();
        let (target, sibling) = (&replicas[0], &replicas[1]);
        let migrator = target
            .service()
            .migrator()
            .expect("a placed replica migrates");
        let owned = migrator.owned_shards();
        let port = target.put_port();
        let owner = FlatFsClient::open(&net, port);
        let cap = owner.create().unwrap();
        owner.write(&cap, 0, b"still mine").unwrap();

        let sibling_cap = sibling.service().migrator().unwrap().capability();
        let (shard, slot) = split(cap.object);
        let attacker = ServiceClient::open(&net);
        for (xfer, forged) in [
            null_cap(),
            self_minted(kind, port, migrator.capability().object),
            sibling_cap,
        ]
        .iter()
        .enumerate()
        {
            let pwned = record(slot, &file_body(b"pwned", None, None));
            assert_eq!(
                send_transfer(&attacker, port, forged, xfer as u64, shard, pwned),
                vec![refused(Status::Forged); 3],
                "{kind}: {forged:?}"
            );
            // Nothing was staged: the real capability finds no open
            // transfer under that id.
            let probe = TransferOp::Commit {
                xfer: xfer as u64,
                chunks: 1,
            };
            assert_eq!(
                attacker.call_at(
                    port,
                    &migrator.capability(),
                    probe.command(),
                    probe.write_params(wire::Writer::new()).finish()
                ),
                refused(Status::Conflict),
                "{kind}: {forged:?}"
            );
        }
        assert_eq!(owner.read(&cap, 0, 64).unwrap(), b"still mine", "{kind}");
        assert_eq!(
            owner.read(&self_minted(kind, port, cap.object), 0, 64),
            refused(Status::Forged).map(|b| b.to_vec()),
            "{kind}"
        );
        assert_eq!(migrator.owned_shards(), owned, "{kind}");
        for r in replicas {
            r.stop();
        }
    }
}
