//! A real service (the flat file server) running over §2.4 sealed
//! transport, driven through the public API — request capabilities are
//! DES ciphertext on the wire, keyed by the unforgeable source address.

use amoeba::prelude::*;
use bytes::Bytes;
use std::sync::Arc;

/// Builds a sealed flat-file deployment: the flat file server behind a
/// sealed [`ServiceRunner`], a client with matching matrix keys, and an
/// intruder machine with its own (useless) keys.
struct SealedWorld {
    net: Network,
    runner: ServiceRunner,
    client: SealedServiceClient,
    server_machine: MachineId,
}

fn world() -> SealedWorld {
    let net = Network::new();
    let server_ep = net.attach_open();
    let client_ep = net.attach_open();
    let intruder_ep = net.attach_open();
    let mut rng = SecretStream::from_seed(24);
    let matrix = KeyMatrix::random(
        &[server_ep.id(), client_ep.id(), intruder_ep.id()],
        &mut rng,
    );

    let server_machine = server_ep.id();
    let server_sealer = Arc::new(CapSealer::new(matrix.view_for(server_machine)));
    let client_sealer = Arc::new(CapSealer::new(matrix.view_for(client_ep.id())));

    let runner = ServiceRunner::spawn_sealed(
        server_ep,
        Port::new(0xF17E5).unwrap(),
        FlatFsServer::new(SchemeKind::Commutative),
        server_sealer,
        1,
    );
    // The matrix keys bind to client_ep's machine id, so the sealing
    // client must ride exactly that endpoint.
    let client = SealedServiceClient::with_client(
        Client::new(client_ep),
        Arc::clone(&client_sealer),
        server_machine,
    );
    drop(intruder_ep);
    SealedWorld {
        net,
        runner,
        client,
        server_machine,
    }
}

#[test]
fn flatfs_over_sealed_transport() {
    let w = world();
    // CREATE is anonymous; the *reply* carries the capability in the
    // clear here (the flat file server predates sealing) — the test
    // focuses on request-path sealing, which the runner enforces.
    let body = w
        .client
        .call_anonymous(
            w.runner.put_port(),
            amoeba::flatfs::ops::CREATE,
            Bytes::new(),
        )
        .unwrap();
    let cap = amoeba::server::wire::Reader::new(&body).cap().unwrap();

    // WRITE and READ carry the capability sealed.
    w.client
        .call(
            w.runner.put_port(),
            &cap,
            amoeba::flatfs::ops::WRITE,
            amoeba::server::wire::Writer::new()
                .u64(0)
                .bytes(b"sealed bytes")
                .finish(),
        )
        .unwrap();
    let data = w
        .client
        .call(
            w.runner.put_port(),
            &cap,
            amoeba::flatfs::ops::READ,
            amoeba::server::wire::Writer::new().u64(0).u32(64).finish(),
        )
        .unwrap();
    assert_eq!(&data[..], b"sealed bytes");
    w.runner.stop();
}

#[test]
fn request_capability_is_ciphertext_on_the_wire() {
    let w = world();
    let body = w
        .client
        .call_anonymous(
            w.runner.put_port(),
            amoeba::flatfs::ops::CREATE,
            Bytes::new(),
        )
        .unwrap();
    let cap = amoeba::server::wire::Reader::new(&body).cap().unwrap();

    let wire = w.net.tap();
    w.client
        .call(
            w.runner.put_port(),
            &cap,
            amoeba::flatfs::ops::SIZE,
            Bytes::new(),
        )
        .unwrap();
    let plain = cap.encode();
    let mut request_frames = 0;
    while let Ok(pkt) = wire.try_recv() {
        if pkt.header.dest == w.runner.put_port() {
            request_frames += 1;
            assert!(
                !pkt.payload.windows(16).any(|win| win == plain),
                "plaintext capability in a sealed request"
            );
        }
    }
    assert!(request_frames >= 1, "the request crossed the tap");
    w.runner.stop();
}

#[test]
fn stolen_sealed_bits_are_useless_to_another_machine() {
    let w = world();
    let body = w
        .client
        .call_anonymous(
            w.runner.put_port(),
            amoeba::flatfs::ops::CREATE,
            Bytes::new(),
        )
        .unwrap();
    let cap = amoeba::server::wire::Reader::new(&body).cap().unwrap();
    w.client
        .call(
            w.runner.put_port(),
            &cap,
            amoeba::flatfs::ops::WRITE,
            amoeba::server::wire::Writer::new()
                .u64(0)
                .bytes(b"mine")
                .finish(),
        )
        .unwrap();

    // An intruder machine without matrix keys cannot even form a sealed
    // request for the stolen (plaintext) capability — and injecting the
    // stolen *ciphertext* from its own machine is covered by the
    // in-crate replay test: the server unseals with M[intruder][server]
    // and rejects.
    let intruder_sealer = Arc::new(CapSealer::new(MachineKeys::empty(w.server_machine)));
    let intruder_client = SealedServiceClient::open(&w.net, intruder_sealer, w.server_machine);
    assert!(matches!(
        intruder_client
            .call(
                w.runner.put_port(),
                &cap,
                amoeba::flatfs::ops::READ,
                amoeba::server::wire::Writer::new().u64(0).u32(16).finish(),
            )
            .unwrap_err(),
        ClientError::Malformed
    ));
    w.runner.stop();
}

/// Creates a file holding `data` through the sealed client.
fn sealed_file(w: &SealedWorld, data: &[u8]) -> Capability {
    let body = w
        .client
        .call_anonymous(
            w.runner.put_port(),
            amoeba::flatfs::ops::CREATE,
            Bytes::new(),
        )
        .unwrap();
    let cap = amoeba::server::wire::Reader::new(&body).cap().unwrap();
    w.client
        .call(
            w.runner.put_port(),
            &cap,
            amoeba::flatfs::ops::WRITE,
            amoeba::server::wire::Writer::new()
                .u64(0)
                .bytes(data)
                .finish(),
        )
        .unwrap();
    cap
}

fn read_back(w: &SealedWorld, cap: &Capability) -> Bytes {
    w.client
        .call(
            w.runner.put_port(),
            cap,
            amoeba::flatfs::ops::READ,
            amoeba::server::wire::Writer::new().u64(0).u32(64).finish(),
        )
        .unwrap()
}

#[test]
fn sealed_requests_are_recorded_like_plain_ones() {
    let w = world();
    let cap = sealed_file(&w, b"counted");
    w.net.obs().enable();
    for _ in 0..8 {
        assert_eq!(&read_back(&w, &cap)[..], b"counted");
    }
    // Stopping joins the worker, so its last count has landed.
    w.runner.stop();
    let m = w.net.obs().snapshot().unwrap();
    assert_eq!(m.server_requests, 8);
    assert_eq!(m.handlers_completed, 8);
    let events = w.net.obs().events();
    for kind in [EventKind::HandlerStart, EventKind::HandlerEnd] {
        assert!(
            events.iter().any(|e| e.kind == kind),
            "no {} recorded",
            kind.name()
        );
    }
}

/// A sealed runner calls the service's handler directly, with no
/// migration dispatch: the three migration ops, sent anonymously, are
/// refused, and a live file keeps its bytes and its capability.
#[test]
fn a_sealed_runner_refuses_migration_ops() {
    use amoeba::server::migrate::TransferOp;
    use amoeba::server::DEFAULT_SHARDS;

    let w = world();
    let cap = sealed_file(&w, b"still mine");
    // The file's shard and slot, and a record that would overwrite it
    // with a secret of the sender's choosing: slot ‖ live ‖ secret ‖
    // length ‖ data.
    let object = cap.object.value();
    let shard = object % DEFAULT_SHARDS as u32;
    let slot = object / DEFAULT_SHARDS as u32;
    let mut record = slot.to_be_bytes().to_vec();
    record.push(1);
    record.extend_from_slice(&7u64.to_be_bytes());
    record.extend_from_slice(&0u32.to_be_bytes());
    let xfer = 0xBAD;
    for op in [
        TransferOp::Begin {
            xfer,
            shard: shard as u8,
        },
        TransferOp::Chunk {
            xfer,
            seq: 0,
            records: Bytes::from(record),
        },
        TransferOp::Commit { xfer, chunks: 1 },
    ] {
        let params = op
            .write_params(amoeba::server::wire::Writer::new())
            .finish();
        let refused = w
            .client
            .call_anonymous(w.runner.put_port(), op.command(), params);
        assert!(
            matches!(refused, Err(ClientError::Status(s)) if s != Status::Ok),
            "{op:?}: {refused:?}"
        );
    }
    assert_eq!(&read_back(&w, &cap)[..], b"still mine");
    w.runner.stop();
}
