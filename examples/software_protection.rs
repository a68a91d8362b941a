//! §2.4 end to end: capability protection **without F-boxes**.
//!
//! A freshly booted file server announces itself, a client establishes
//! conventional keys through the public-key handshake, and from then on
//! capabilities cross the wire DES-encrypted under the (source,
//! destination) key — so a wiretapping intruder who replays a captured
//! message is betrayed by his own unforgeable source address.
//!
//! Run with: `cargo run --example software_protection`

use amoeba::prelude::*;
use amoeba::softprot::matrix::SealError;
use amoeba::softprot::Announcement;
use bytes::Bytes;

fn main() {
    let net = Network::new();
    // Plain interfaces everywhere: nothing protects the wire itself.
    let server_ep = net.attach_open();
    let client_ep = net.attach_open();
    let intruder_ep = net.attach_open();
    let wire = net.tap();
    let mut rng = SecretStream::from_entropy();

    // --- Boot + announcement ----------------------------------------------
    let service_port = Port::new(0xF11E).unwrap();
    server_ep.claim(service_port);
    let boot = ServerBoot::new(service_port, &mut rng);
    server_ep.send(
        Header::to(Port::BROADCAST),
        Bytes::copy_from_slice(&boot.announcement().encode()),
    );
    println!("server booted; broadcast announcement (port + public key)");

    // --- Client handshake ---------------------------------------------------
    let ann_pkt = client_ep.recv().expect("hear the announcement");
    let ann = Announcement::decode(&ann_pkt.payload).expect("well-formed");
    let (session, keyreq) = ClientSession::start(ann, &mut rng);
    let reply_port = Port::new(0xC0DE).unwrap();
    client_ep.claim(reply_port);
    client_ep.send(
        Header::to(ann.port).with_reply(reply_port),
        Bytes::from(keyreq),
    );

    // Server answers the key request.
    let req_pkt = server_ep.recv().expect("key request");
    let (keyrep, k_cs, k_sc) = boot
        .handle_keyreq(&req_pkt.payload, &mut rng)
        .expect("well-formed key request");
    server_ep.send(Header::to(req_pkt.header.reply), Bytes::from(keyrep));

    let rep_pkt = client_ep.recv().expect("key reply");
    let k_reverse = session.finish(&rep_pkt.payload).expect("server authentic");
    println!("handshake complete: server authenticated, fresh keys installed");

    // --- Install keys in both sealers --------------------------------------
    let mut client_keys = MachineKeysView::new(client_ep.id());
    client_keys
        .0
        .learn_send_key(server_ep.id(), session.client_key());
    client_keys.0.learn_recv_key(server_ep.id(), k_reverse);
    let client_sealer = CapSealer::new(client_keys.0);

    let mut server_keys = MachineKeysView::new(server_ep.id());
    server_keys.0.learn_recv_key(req_pkt.source, k_cs);
    server_keys.0.learn_send_key(req_pkt.source, k_sc);
    let server_sealer = CapSealer::new(server_keys.0);

    // --- Protected traffic ---------------------------------------------------
    let precious = Capability::new(
        service_port,
        ObjectNum::new(7).unwrap(),
        Rights::READ | Rights::WRITE,
        0x00AB_CDEF_0123,
    );
    let sealed = client_sealer.seal(&precious, server_ep.id()).unwrap();
    client_ep.send(
        Header::to(service_port),
        Bytes::copy_from_slice(&sealed.0.to_be_bytes()),
    );
    let data_pkt = server_ep.recv().unwrap();
    let received = SealedCap(u128::from_be_bytes(
        data_pkt.payload[..16].try_into().unwrap(),
    ));
    let opened = server_sealer.unseal(received, data_pkt.source).unwrap();
    assert_eq!(opened, precious);
    println!("capability crossed the wire sealed and unsealed correctly");

    // --- The intruder -----------------------------------------------------
    // 1. Wiretap: the capability never appeared in the clear.
    let mut saw_plaintext = false;
    while let Ok(pkt) = wire.try_recv() {
        if pkt.payload.len() >= 16 && pkt.payload[..16] == precious.encode() {
            saw_plaintext = true;
        }
    }
    println!("wiretap saw plaintext capability: {saw_plaintext}");
    assert!(!saw_plaintext);

    // 2. Replay: same bytes, intruder's source => wrong matrix key.
    intruder_ep.send(
        Header::to(service_port),
        Bytes::copy_from_slice(&sealed.0.to_be_bytes()),
    );
    let replay_pkt = server_ep.recv().unwrap();
    assert_eq!(replay_pkt.source, intruder_ep.id(), "source is unforgeable");
    match server_sealer.unseal(
        SealedCap(u128::from_be_bytes(
            replay_pkt.payload[..16].try_into().unwrap(),
        )),
        replay_pkt.source,
    ) {
        Err(SealError::NoKey) => {
            println!("replay rejected: no key for the intruder's machine pair")
        }
        Err(SealError::Garbage) => {
            println!("replay decrypted to garbage under M[intruder][server]")
        }
        Ok(c) => {
            assert_ne!(c, precious);
            println!("replay decrypted to a junk capability (≠ original) — harmless");
        }
    }

    println!("§2.4 software protection reproduced — no F-box required");
}

/// Thin wrapper so the example reads top-down (MachineKeys is built
/// piecewise as the handshake yields keys).
struct MachineKeysView(amoeba::softprot::MachineKeys);

impl MachineKeysView {
    fn new(me: MachineId) -> Self {
        MachineKeysView(amoeba::softprot::MachineKeys::empty(me))
    }
}
