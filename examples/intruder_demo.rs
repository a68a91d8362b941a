//! Fig 1 as a runnable demo: clients, servers, intruders, and F-boxes.
//!
//! An intruder with full network access — wiretap, injection, replay —
//! attacks a protected echo service four ways. Every attack fails for
//! exactly the reason the paper gives; the honest client's RPC works
//! throughout.
//!
//! Run with: `cargo run --example intruder_demo`

use amoeba::net::NetworkInterface;
use amoeba::prelude::*;
use bytes::Bytes;
use std::sync::Arc;
use std::time::Duration;

fn main() {
    let f = ShaOneWay;
    let net = Network::new();

    // --- The server: GET(G), publish P = F(G) ---------------------------
    let server_ep = net.attach(Arc::new(FBox::hardware(f.clone())));
    let g = Port::random();
    let g_value = g.value(); // kept for the "did G ever leak?" check
    let server = ServerPort::bind(server_ep, g);
    let p = server.put_port();
    println!("server: secret get-port G (never on the wire); published P = F(G) = {p}");

    let server_thread = std::thread::spawn(move || {
        while let Ok(req) = server.next_request_timeout(Duration::from_secs(2)) {
            let stop = &req.payload[..] == b"STOP";
            server.reply(&req, req.payload.clone());
            if stop {
                break;
            }
        }
    });

    // --- The intruder: wiretap + its own (F-boxed) machine --------------
    let wire = net.tap();
    let intruder_ep = net.attach(Arc::new(FBox::hardware(f.clone())));

    // Attack 1: impersonation. GET(P) makes the intruder's F-box listen
    // on F(P), a useless port.
    intruder_ep.claim(p);
    println!("\n[attack 1] intruder does GET(P) to impersonate the server…");

    let client = Client::new(net.attach(Arc::new(FBox::hardware(f.clone()))));
    let reply = client
        .trans(p, Bytes::from_static(b"sensitive request"))
        .expect("honest RPC succeeds");
    assert_eq!(&reply[..], b"sensitive request");
    let mut stolen = 0;
    while intruder_ep.try_recv().is_some() {
        stolen += 1;
    }
    assert_eq!(stolen, 0);
    println!("  honest RPC completed; intruder intercepted {stolen} packets");

    // Attack 2: learn G from sniffed traffic. Only P = F(G) and the
    // transformed reply ports ever appear on the wire.
    println!("\n[attack 2] intruder sniffs the wire looking for G…");
    let mut frames = 0;
    while let Ok(pkt) = wire.try_recv() {
        frames += 1;
        for field in [pkt.header.dest, pkt.header.reply, pkt.header.signature] {
            assert_ne!(field.value(), g_value, "the secret get-port leaked!");
        }
    }
    println!("  {frames} frames captured; no header field ever equalled G");

    // Attack 3: replay a captured request through the intruder's F-box.
    // The reply field, already F(G'), is transformed *again* to
    // F(F(G')) — the server's answer goes to a port nobody claims.
    println!("\n[attack 3] intruder replays a captured request…");
    let reply2 = client
        .trans(p, Bytes::from_static(b"second request"))
        .unwrap();
    assert_eq!(&reply2[..], b"second request");
    let captured = wire.try_recv().expect("captured the request frame");
    let replayer = net.attach(Arc::new(FBox::hardware(f.clone())));
    replayer.send(captured.header, captured.payload.clone());
    std::thread::sleep(Duration::from_millis(50));
    assert!(replayer.try_recv().is_none());
    println!(
        "  server may have executed the echo, but the reply went to F(F(G')) — heard by nobody"
    );

    // Attack 4: signature forgery. The client's secret is S; everyone
    // knows F(S). The intruder can only put F(S) in the signature
    // field, which its F-box transmits as F(F(S)) ≠ F(S).
    println!("\n[attack 4] intruder forges the client's signature…");
    let s = Port::random();
    let published = amoeba::fbox::put_port_of(&f, s);
    let honest_box = FBox::hardware(f.clone());
    let mut honest_hdr = Header::to(p).with_signature(s);
    honest_box.egress(&mut honest_hdr);
    let mut forged_hdr = Header::to(p).with_signature(published);
    honest_box.egress(&mut forged_hdr);
    assert_eq!(honest_hdr.signature, published);
    assert_ne!(forged_hdr.signature, published);
    println!("  honest messages arrive bearing F(S); the forgery arrives as F(F(S)) — rejected");

    client.trans(p, Bytes::from_static(b"STOP")).unwrap();
    server_thread.join().unwrap();
    println!("\nall four attacks failed; honest traffic unaffected — Fig 1 reproduced");
}
