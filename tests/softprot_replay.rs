//! Experiment E5 — §2.4 software protection over the real simulated
//! network: matrix-keyed sealing, unforgeable source addresses, replay
//! defeat, and the capability caches.

use amoeba::prelude::*;
use amoeba::softprot::matrix::SealError;
use bytes::Bytes;

/// Builds a 3-machine open network (client, server, intruder) with a
/// fully populated key matrix.
fn world() -> (Network, Endpoint, Endpoint, Endpoint, KeyMatrix) {
    let net = Network::new();
    let client = net.attach_open();
    let server = net.attach_open();
    let intruder = net.attach_open();
    let mut rng = SecretStream::from_seed(2024);
    let matrix = KeyMatrix::random(&[client.id(), server.id(), intruder.id()], &mut rng);
    (net, client, server, intruder, matrix)
}

fn a_capability() -> Capability {
    Capability::new(
        Port::new(0xF11E).unwrap(),
        ObjectNum::new(44).unwrap(),
        Rights::READ | Rights::WRITE,
        0x0123_4567_89AB,
    )
}

#[test]
fn sealed_capability_travels_and_unseals_by_source_address() {
    let (_net, client, server, _intruder, matrix) = world();
    let client_sealer = CapSealer::new(matrix.view_for(client.id()));
    let server_sealer = CapSealer::new(matrix.view_for(server.id()));

    let port = Port::new(0x99).unwrap();
    server.claim(port);

    // Client seals the capability for the server and sends it.
    let sealed = client_sealer.seal(&a_capability(), server.id()).unwrap();
    client.send(
        Header::to(port),
        Bytes::copy_from_slice(&sealed.0.to_be_bytes()),
    );

    // Server receives; the packet's source is stamped by the network.
    let pkt = server.recv().unwrap();
    assert_eq!(pkt.source, client.id(), "source address is authoritative");
    let sealed_rx = SealedCap(u128::from_be_bytes(pkt.payload[..16].try_into().unwrap()));
    let cap = server_sealer.unseal(sealed_rx, pkt.source).unwrap();
    assert_eq!(cap, a_capability());
}

#[test]
fn replay_from_intruder_machine_fails() {
    let (net, client, server, intruder, matrix) = world();
    let client_sealer = CapSealer::new(matrix.view_for(client.id()));
    let server_sealer = CapSealer::new(matrix.view_for(server.id()));

    let port = Port::new(0x99).unwrap();
    server.claim(port);
    let wire = net.tap();

    // Honest transmission (captured by the wiretap).
    let sealed = client_sealer.seal(&a_capability(), server.id()).unwrap();
    client.send(
        Header::to(port),
        Bytes::copy_from_slice(&sealed.0.to_be_bytes()),
    );
    let _ = server.recv().unwrap();
    let captured = wire.recv().unwrap();

    // The intruder replays the captured payload VERBATIM. The network
    // stamps the intruder's own source address — that is the one thing
    // it cannot forge.
    intruder.send(Header::to(port), captured.payload.clone());
    let replayed = server.recv().unwrap();
    assert_eq!(replayed.source, intruder.id());
    let sealed_rx = SealedCap(u128::from_be_bytes(
        replayed.payload[..16].try_into().unwrap(),
    ));
    match server_sealer.unseal(sealed_rx, replayed.source) {
        Err(SealError::Garbage) => {} // decryption nonsense — typical
        Ok(cap) => assert_ne!(
            cap,
            a_capability(),
            "replay must never recover the real capability"
        ),
        Err(SealError::NoKey) => panic!("matrix is fully populated"),
    }
}

#[test]
fn wiretapped_capability_is_ciphertext() {
    let (net, client, server, _intruder, matrix) = world();
    let client_sealer = CapSealer::new(matrix.view_for(client.id()));
    let port = Port::new(0x99).unwrap();
    server.claim(port);
    let wire = net.tap();

    let plain = a_capability();
    let sealed = client_sealer.seal(&plain, server.id()).unwrap();
    client.send(
        Header::to(port),
        Bytes::copy_from_slice(&sealed.0.to_be_bytes()),
    );
    let captured = wire.recv().unwrap();
    assert_ne!(
        &captured.payload[..16],
        &plain.encode()[..],
        "the capability must not cross the wire in the clear"
    );
}

#[test]
fn caches_avoid_repeated_des_runs() {
    let (_net, client, server, _intruder, matrix) = world();
    let client_sealer = CapSealer::new(matrix.view_for(client.id()));
    let server_sealer = CapSealer::new(matrix.view_for(server.id()));

    let cap = a_capability();
    let sealed = client_sealer.seal(&cap, server.id()).unwrap();
    for _ in 0..99 {
        client_sealer.seal(&cap, server.id()).unwrap();
    }
    let cs = client_sealer.cache_stats();
    assert_eq!((cs.hits, cs.misses), (99, 1));

    for _ in 0..100 {
        server_sealer.unseal(sealed, client.id()).unwrap();
    }
    let ss = server_sealer.cache_stats();
    assert_eq!((ss.hits, ss.misses), (99, 1));
}

#[test]
fn keys_from_handshake_plug_into_the_sealer() {
    // End-to-end §2.4: establish keys with the public-key handshake,
    // install them in both parties' matrix views, then seal/unseal.
    let (_net, client, server, _intruder, _matrix) = world();
    let mut rng = SecretStream::from_seed(7);

    let boot = ServerBoot::new(Port::new(0xF00D).unwrap(), &mut rng);
    let (session, keyreq) = ClientSession::start(boot.announcement(), &mut rng);
    let (keyrep, k_cs, k_sc) = boot.handle_keyreq(&keyreq, &mut rng).unwrap();
    let k_reverse = session.finish(&keyrep).unwrap();

    let client_sealer = CapSealer::new(MachineKeysBuilder::client(
        client.id(),
        server.id(),
        session.client_key(),
        k_reverse,
    ));
    let server_sealer = CapSealer::new(MachineKeysBuilder::server(
        server.id(),
        client.id(),
        k_cs,
        k_sc,
    ));

    let sealed = client_sealer.seal(&a_capability(), server.id()).unwrap();
    assert_eq!(
        server_sealer.unseal(sealed, client.id()).unwrap(),
        a_capability()
    );
}

/// Small helper to build per-party key views from handshake output.
struct MachineKeysBuilder;

impl MachineKeysBuilder {
    fn client(
        me: MachineId,
        server: MachineId,
        k_send: u64,
        k_recv: u64,
    ) -> amoeba::softprot::MachineKeys {
        let mut keys = amoeba::softprot::MachineKeys::empty(me);
        keys.learn_send_key(server, k_send);
        keys.learn_recv_key(server, k_recv);
        keys
    }

    fn server(
        me: MachineId,
        client: MachineId,
        k_recv: u64,
        k_send: u64,
    ) -> amoeba::softprot::MachineKeys {
        let mut keys = amoeba::softprot::MachineKeys::empty(me);
        keys.learn_recv_key(client, k_recv);
        keys.learn_send_key(client, k_send);
        keys
    }
}
