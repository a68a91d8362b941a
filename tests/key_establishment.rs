//! Experiment E6 — the §2.4 key-establishment protocol over the real
//! simulated network: broadcast announcement, public-key handshake,
//! server authentication, and per-boot freshness.

use amoeba::prelude::*;
use amoeba::softprot::handshake::HandshakeError;
use amoeba::softprot::Announcement;
use bytes::Bytes;
use std::time::Duration;

/// Runs the server side of one handshake: announce, answer one KEYREQ.
/// Returns the keys the server installed.
fn serve_one_handshake(
    server: Endpoint,
    boot: ServerBoot,
    served_port: Port,
) -> std::thread::JoinHandle<(u64, u64)> {
    std::thread::spawn(move || {
        server.claim(served_port);
        // "it sends a broadcast message announcing its presence"
        server.send(
            Header::to(Port::BROADCAST),
            Bytes::copy_from_slice(&boot.announcement().encode()),
        );
        let mut rng = SecretStream::from_entropy();
        loop {
            let pkt = server.recv().expect("server endpoint alive");
            if pkt.header.dest != served_port || pkt.header.reply.is_null() {
                continue;
            }
            match boot.handle_keyreq(&pkt.payload, &mut rng) {
                Ok((keyrep, k_cs, k_sc)) => {
                    server.send(Header::to(pkt.header.reply), Bytes::from(keyrep));
                    return (k_cs, k_sc);
                }
                Err(_) => continue, // garbage request; keep serving
            }
        }
    })
}

#[test]
fn full_handshake_over_broadcast_network() {
    let net = Network::new();
    let server_ep = net.attach_open();
    let client_ep = net.attach_open();
    let mut rng = SecretStream::from_seed(5);

    let served_port = Port::new(0xF5).unwrap();
    let boot = ServerBoot::new(served_port, &mut rng);
    let server_thread = serve_one_handshake(server_ep, boot, served_port);

    // Client hears the announcement...
    let ann_pkt = client_ep.recv().unwrap();
    let ann = Announcement::decode(&ann_pkt.payload).expect("valid announcement");
    assert_eq!(ann.port, served_port);

    // ...and runs the handshake.
    let (session, keyreq) = ClientSession::start(ann, &mut rng);
    let reply_port = Port::new(0xC11E).unwrap();
    client_ep.claim(reply_port);
    client_ep.send(
        Header::to(ann.port).with_reply(reply_port),
        Bytes::from(keyreq),
    );
    let keyrep = client_ep.recv().unwrap();
    let k_reverse = session.finish(&keyrep.payload).expect("handshake verifies");

    // Both sides agree on both keys.
    let (k_cs, k_sc) = server_thread.join().unwrap();
    assert_eq!(k_cs, session.client_key());
    assert_eq!(k_sc, k_reverse);
}

#[test]
fn replay_of_previous_boot_reply_rejected() {
    let mut rng = SecretStream::from_seed(6);
    let port = Port::new(0xB007).unwrap();

    // Boot 1: intruder records the whole exchange.
    let boot1 = ServerBoot::new(port, &mut rng);
    let (s1, keyreq1) = ClientSession::start(boot1.announcement(), &mut rng);
    let (old_keyrep, _, _) = boot1.handle_keyreq(&keyreq1, &mut rng).unwrap();
    s1.finish(&old_keyrep).expect("boot 1 handshake fine");

    // Server crashes and reboots with fresh keys; the client starts a
    // new handshake against the NEW announcement.
    let boot2 = ServerBoot::new(port, &mut rng);
    let (s2, _keyreq2) = ClientSession::start(boot2.announcement(), &mut rng);

    // Intruder races the real server and plays back boot 1's reply.
    let verdict = s2.finish(&old_keyrep).unwrap_err();
    assert!(
        matches!(
            verdict,
            HandshakeError::BadSignature | HandshakeError::StaleOrForgedReply
        ),
        "old replies must not verify after a reboot: {verdict:?}"
    );
}

#[test]
fn impostor_announcement_cannot_complete_handshake() {
    // An intruder broadcasts an announcement with the REAL server's port
    // but its own public key — clients would send it keys, but the paper
    // requires the reply prove ownership of the ANNOUNCED key. Flip it:
    // the intruder announces the real key (it is public), then cannot
    // sign the reply.
    let mut rng = SecretStream::from_seed(7);
    let port = Port::new(0x1337).unwrap();
    let real = ServerBoot::new(port, &mut rng);
    let intruder = ServerBoot::new(port, &mut rng); // different private key

    let (session, keyreq) = ClientSession::start(real.announcement(), &mut rng);
    match intruder.handle_keyreq(&keyreq, &mut rng) {
        // Usually the intruder cannot even decrypt K (wrong modulus).
        Err(HandshakeError::Malformed) => {}
        // If decryption "succeeds" by chance, the signature still fails.
        Ok((reply, _, _)) => {
            assert!(session.finish(&reply).is_err());
        }
        Err(e) => panic!("unexpected error {e:?}"),
    }
}

#[test]
fn handshake_survives_packet_loss_with_retries() {
    // Half of all frames are lost from the first one on. The
    // announcement is handed to the client by value, so what must get
    // through is one KEYREQ and the one reply. Seed 152's draws lose
    // the announcement and at least one KEYREQ, and pass the reply,
    // whichever of the first frames reaches the gate first.
    let plan = FaultPlan {
        loss_per_mille: 500,
        ..FaultPlan::quiet()
    };
    let net = Network::new_with_plan(152, plan);
    let server_ep = net.attach_open();
    let client_ep = net.attach_open();
    let mut rng = SecretStream::from_seed(8);

    let served_port = Port::new(0xFA11).unwrap();
    let boot = ServerBoot::new(served_port, &mut rng);
    let announcement = boot.announcement();
    let server_thread = serve_one_handshake(server_ep, boot, served_port);

    let (session, keyreq) = ClientSession::start(announcement, &mut rng);
    let reply_port = Port::new(0xCAFE).unwrap();
    client_ep.claim(reply_port);
    // Retry the KEYREQ until a verifiable reply arrives.
    let mut k_reverse = None;
    for _ in 0..50 {
        client_ep.send(
            Header::to(announcement.port).with_reply(reply_port),
            Bytes::copy_from_slice(&keyreq),
        );
        if let Ok(pkt) = client_ep.recv_timeout(Duration::from_millis(20)) {
            if let Ok(k) = session.finish(&pkt.payload) {
                k_reverse = Some(k);
                break;
            }
        }
    }
    assert!(net.stats().snapshot().packets_dropped > 0);
    let k_reverse = k_reverse.expect("handshake completed despite 50% loss");
    let (k_cs, k_sc) = server_thread.join().unwrap();
    assert_eq!(k_cs, session.client_key());
    assert_eq!(k_sc, k_reverse);
}
