//! Ablation tests from DESIGN.md §5: the pieces that are swappable by
//! construction really are swappable — and the deliberately broken
//! variants really are broken.

use amoeba::cap::schemes::{EncryptedScheme, OneWayScheme, ProtectionScheme, XorFactory};
use amoeba::prelude::*;
use bytes::Bytes;
use std::sync::Arc;

fn rng() -> SecretStream {
    SecretStream::from_seed(1986)
}

#[test]
fn scheme2_works_identically_over_purdy_and_sha() {
    // The OWF behind scheme 2 is a parameter; both constructions must
    // satisfy every scheme property (with different bits, of course).
    let sha = OneWayScheme::new();
    let purdy = OneWayScheme::with_function(PurdyOneWay::new());
    let port = Port::new(0xAB).unwrap();
    let obj = ObjectNum::new(5).unwrap();

    let mut r = rng();
    let secret_sha = sha.new_secret(&mut r);
    let secret_purdy = purdy.new_secret(&mut r);

    let cap_sha = sha.mint(port, obj, &secret_sha);
    let cap_purdy = purdy.mint(port, obj, &secret_purdy);
    assert_eq!(sha.validate(&cap_sha, &secret_sha).unwrap(), Rights::ALL);
    assert_eq!(
        purdy.validate(&cap_purdy, &secret_purdy).unwrap(),
        Rights::ALL
    );

    // Restriction and tamper-detection hold under both.
    {
        let (scheme, secret, cap) = (&sha as &OneWayScheme<ShaOneWay>, &secret_sha, cap_sha);
        let ro = scheme.restrict(&cap, Rights::READ, secret).unwrap();
        assert!(scheme
            .validate(&ro.with_rights(Rights::ALL), secret)
            .is_err());
    }
    let ro = purdy
        .restrict(&cap_purdy, Rights::READ, &secret_purdy)
        .unwrap();
    assert!(purdy
        .validate(&ro.with_rights(Rights::ALL), &secret_purdy)
        .is_err());

    // And the two functions disagree on the actual bits (they are
    // different public functions).
    let same_secret = sha.new_secret(&mut rng());
    assert_ne!(
        sha.mint(port, obj, &same_secret).check,
        OneWayScheme::with_function(PurdyOneWay::new())
            .mint(port, obj, &same_secret)
            .check
    );
}

#[test]
fn xor_scheme1_is_breakable_end_to_end() {
    // DESIGN.md §5: the paper's warning reproduced at the *scheme* level
    // (the crypto-level demo lives in amoeba-crypto's tests). A client
    // holding a read-only capability upgrades itself to writer when the
    // server foolishly uses XOR.
    let broken = EncryptedScheme::with_factory(XorFactory);
    let mut r = rng();
    let secret = broken.new_secret(&mut r);
    let cap = broken.mint(
        Port::new(0xBAD).unwrap(),
        ObjectNum::new(1).unwrap(),
        &secret,
    );
    let ro = broken.restrict(&cap, Rights::READ, &secret).unwrap();

    // Attack: flip the WRITE bit directly in the (XOR-)ciphertext
    // rights field.
    let forged = ro.with_rights(Rights::from_bits(ro.rights.bits() ^ Rights::WRITE.bits()));
    let recovered = broken.validate(&forged, &secret).unwrap();
    assert!(
        recovered.contains(Rights::WRITE),
        "XOR must be forgeable — this is the paper's warning"
    );

    // Identical attack against the real cipher: detected.
    let sound = EncryptedScheme::new();
    let secret2 = sound.new_secret(&mut r);
    let cap2 = sound.mint(
        Port::new(0xFACE).unwrap(),
        ObjectNum::new(1).unwrap(),
        &secret2,
    );
    let ro2 = sound.restrict(&cap2, Rights::READ, &secret2).unwrap();
    let forged2 = ro2.with_rights(Rights::from_bits(ro2.rights.bits() ^ Rights::WRITE.bits()));
    assert!(sound.validate(&forged2, &secret2).is_err());
}

#[test]
fn fbox_placement_hardware_vs_trusted_kernel_equivalent_end_to_end() {
    // DESIGN.md §5: both placements run the same transformation, so a
    // full RPC through one of each must work.
    let net = Network::new();
    let server_ep = net.attach(Arc::new(FBox::trusted_kernel(ShaOneWay)));
    let server = ServerPort::bind(server_ep, Port::new(0x7E57).unwrap());
    let p = server.put_port();
    let t = std::thread::spawn(move || {
        let req = server.next_request().unwrap();
        server.reply(&req, req.payload.clone());
    });
    let client = Client::new(net.attach(Arc::new(FBox::hardware(ShaOneWay))));
    let reply = client
        .trans(p, Bytes::from_static(b"mixed placements"))
        .unwrap();
    assert_eq!(&reply[..], b"mixed placements");
    t.join().unwrap();
}

#[test]
fn any_scheme_drives_any_service() {
    // The scheme is a deployment choice per server: run the same
    // directory workload under all four.
    for kind in SchemeKind::ALL {
        let net = Network::new();
        let runner = ServiceRunner::spawn_open(&net, DirServer::new(kind));
        let dirs = DirClient::with_service(ServiceClient::open(&net), runner.put_port());
        let d = dirs.create_dir().unwrap();
        let t = dirs.create_dir().unwrap();
        dirs.enter(&d, "x", &t).unwrap();
        assert_eq!(dirs.lookup(&d, "x").unwrap(), t, "{kind}");
        dirs.remove(&d, "x").unwrap();
        runner.stop();
    }
}

#[test]
fn triple_des_drops_into_the_key_matrix() {
    // DESIGN.md extension: the matrix entries become key triples and
    // nothing else changes. Demonstrate seal/unseal by hand with 3DES.
    use amoeba::crypto::TripleDes;
    let cap = Capability::new(
        Port::new(0x3DE5).unwrap(),
        ObjectNum::new(9).unwrap(),
        Rights::ALL,
        0xFEED,
    );
    let tdes = TripleDes::two_key(0x1111_2222_3333_4444, 0x5555_6666_7777_8888);
    let sealed = tdes.encrypt_u128(cap.as_u128());
    assert_ne!(sealed, cap.as_u128());
    assert_eq!(Capability::from_u128(tdes.decrypt_u128(sealed)), Some(cap));

    // Wrong key triple: garbage, exactly like single DES.
    let wrong = TripleDes::two_key(0x9999_AAAA_BBBB_CCCC, 0x5555_6666_7777_8888);
    let garbled = wrong.decrypt_u128(sealed);
    assert_ne!(garbled, cap.as_u128());
}
