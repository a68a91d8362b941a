//! Experiment F2 — Fig 2: the 48/24/8/48 capability and the §2.3 file
//! story, run over the network under **all four** protection schemes.

use amoeba::prelude::*;
use proptest::prelude::*;

#[test]
fn capability_is_exactly_128_bits_in_fig2_order() {
    let cap = Capability::new(
        Port::new(0x0102_0304_0506).unwrap(),
        ObjectNum::new(0x0A0B0C).unwrap(),
        Rights::from_bits(0xD0),
        0x0E0F_1011_1213,
    );
    let bytes = cap.encode();
    assert_eq!(bytes.len(), 16, "128 bits");
    // Server port: 48 bits.
    assert_eq!(&bytes[0..6], &[1, 2, 3, 4, 5, 6]);
    // Object: 24 bits.
    assert_eq!(&bytes[6..9], &[0x0A, 0x0B, 0x0C]);
    // Rights: 8 bits.
    assert_eq!(bytes[9], 0xD0);
    // Check field: 48 bits.
    assert_eq!(&bytes[10..16], &[0x0E, 0x0F, 0x10, 0x11, 0x12, 0x13]);
}

proptest! {
    #[test]
    fn every_capability_roundtrips_through_fig2_wire_form(
        port in 1u64..(1 << 48) - 1, obj in 0u32..(1 << 24), rights: u8, check: u64)
    {
        let cap = Capability::new(
            Port::new(port).unwrap(),
            ObjectNum::new(obj).unwrap(),
            Rights::from_bits(rights),
            check,
        );
        prop_assert_eq!(Capability::decode(&cap.encode()), Some(cap));
    }
}

/// The §2.3 story: create a file, write data, pass read-only access to a
/// second client, who can read but not write; tampering is caught.
fn file_story(kind: SchemeKind) {
    let net = Network::new();
    let runner = ServiceRunner::spawn_fbox(&net, FlatFsServer::new(kind));
    let owner = FlatFsClient::with_service(ServiceClient::fbox(&net), runner.put_port());

    // CREATE and WRITE.
    let cap = owner.create().unwrap();
    owner.write(&cap, 0, b"the quick brown fox").unwrap();

    // Delegate read-only (server-side restrict works for schemes 1-3;
    // scheme 0 has no rights distinction — share the full capability).
    let (friend_cap, expect_write_ok) = match kind {
        SchemeKind::Simple => (cap, true),
        _ => (owner.service().restrict(&cap, Rights::READ).unwrap(), false),
    };

    // The friend is a different client on a different machine.
    let friend = FlatFsClient::with_service(ServiceClient::fbox(&net), runner.put_port());
    assert_eq!(&friend.read(&friend_cap, 4, 5).unwrap(), b"quick");

    let write_result = friend.write(&friend_cap, 0, b"THE");
    assert_eq!(
        write_result.is_ok(),
        expect_write_ok,
        "{kind}: write permission mismatch"
    );

    // Bit-for-bit copying of a capability works (they are plain bits).
    let copied = Capability::decode(&friend_cap.encode()).unwrap();
    assert!(friend.read(&copied, 0, 3).is_ok());

    // Tampering with rights or check is always detected (schemes 1-3).
    // One bit of the rights field, so the forgery always differs from
    // the capability held: under scheme 1 the field is ciphertext, and
    // once in 256 secrets the read-only capability's *is* 0xFF — "all
    // rights" would then be the genuine capability, refused for what it
    // is (`RightsViolation`), not for being forged. Under schemes 2 and
    // 3 the field is plaintext and the flipped bit is the WRITE right.
    if kind != SchemeKind::Simple {
        let amplified = friend_cap.with_rights(friend_cap.rights ^ Rights::WRITE);
        assert_eq!(
            friend.write(&amplified, 0, b"evil").unwrap_err(),
            ClientError::Status(Status::Forged),
            "{kind}: rights amplification must be detected"
        );
    }
    let check_tampered = friend_cap.with_check(friend_cap.check ^ 0b100);
    assert_eq!(
        friend.read(&check_tampered, 0, 1).unwrap_err(),
        ClientError::Status(Status::Forged),
        "{kind}: check tampering must be detected"
    );

    // Revocation invalidates both outstanding capabilities.
    let fresh = owner.service().revoke(&cap).unwrap();
    assert!(friend.read(&friend_cap, 0, 1).is_err(), "{kind}");
    assert!(owner.read(&fresh, 0, 1).is_ok(), "{kind}");

    runner.stop();
}

#[test]
fn file_story_scheme0_simple() {
    file_story(SchemeKind::Simple);
}

/// Many times over, a fresh server and so fresh secrets each time: what
/// the rights field of a scheme-1 capability reads is a draw, and one
/// story in 256 draws the read-only capability whose field is 0xFF.
#[test]
fn file_story_scheme1_encrypted() {
    for _ in 0..1024 {
        file_story(SchemeKind::Encrypted);
    }
}

#[test]
fn file_story_scheme2_oneway() {
    file_story(SchemeKind::OneWay);
}

#[test]
fn file_story_scheme3_commutative() {
    file_story(SchemeKind::Commutative);
}

/// One raw `SIZE` request for `cap`: the whole reply, status and body,
/// as the wire carries it.
fn present(client: &FlatFsClient, cap: &Capability) -> Reply {
    let request = Request {
        cap: *cap,
        command: amoeba::flatfs::ops::SIZE,
        params: bytes::Bytes::new(),
    };
    let raw = client
        .service()
        .rpc()
        .trans(client.port(), request.encode())
        .expect("transport");
    Reply::decode(&raw).expect("well-formed reply")
}

/// An object-table entry remembers the capability it validated last
/// (docs/ARCHITECTURE.md, "What a table remembers it proved"). Every
/// hostile neighbour of that capability — and the capability itself,
/// once its secret or its object is gone — must get, over the wire,
/// exactly what a table that remembers nothing answers.
#[test]
fn a_warm_table_refuses_what_a_cold_one_refuses() {
    for kind in SchemeKind::ALL {
        let net = Network::new();
        let runner = ServiceRunner::spawn_fbox(&net, FlatFsServer::new(kind));
        let fs = FlatFsClient::with_service(ServiceClient::fbox(&net), runner.put_port());
        let refused = |cap: &Capability, status: Status, what: &str| {
            let reply = present(&fs, cap);
            assert_eq!(reply.status, status, "{kind}: {what}");
            assert!(reply.body.is_empty(), "{kind}: {what} leaked a body");
        };
        let warm = |cap: &Capability| assert_eq!(fs.size(cap).unwrap(), 5, "{kind}");

        let owner = fs.create().unwrap();
        fs.write(&owner, 0, b"proof").unwrap();
        warm(&owner);
        refused(
            &owner.with_check(owner.check ^ 1 << 17),
            Status::Forged,
            "same rights, one check bit flipped",
        );
        // Scheme 0 has no rights to protect: cold or warm, its check
        // field alone decides, so the rights variants apply to 1–3.
        // A flipped bit removes WRITE from the owner's rights and adds
        // it to the delegate's (scheme 1's field is ciphertext: there
        // it is simply another value).
        let flip_write = |cap: &Capability| {
            cap.with_rights(Rights::from_bits(cap.rights.bits() ^ Rights::WRITE.bits()))
        };
        let read_only = if kind == SchemeKind::Simple {
            owner
        } else {
            warm(&owner);
            refused(
                &flip_write(&owner),
                Status::Forged,
                "same check, a right removed",
            );
            let read_only = fs.service().restrict(&owner, Rights::READ).unwrap();
            warm(&read_only);
            refused(
                &flip_write(&read_only),
                Status::Forged,
                "same check, a right added",
            );
            read_only
        };

        // Revocation: the entry is warm with the very capability that
        // asks for it.
        warm(&owner);
        let fresh = fs.service().revoke(&owner).unwrap();
        refused(&owner, Status::Forged, "the pre-revoke owner capability");
        refused(&read_only, Status::Forged, "a pre-revoke delegate");
        warm(&fresh);

        // Destruction, then the object number's next tenant.
        fs.destroy(&fresh).unwrap();
        refused(
            &fresh,
            Status::NoSuchObject,
            "a destroyed file's capability",
        );
        let tenant = fs.create().unwrap();
        assert_eq!(tenant.object, fresh.object, "{kind}: freed slot reused");
        refused(&fresh, Status::Forged, "the slot's previous tenant");
        refused(&owner, Status::Forged, "the tenant before that");
        assert_eq!(fs.size(&tenant).unwrap(), 0, "{kind}");
        runner.stop();
    }
}

#[test]
fn scheme3_delegation_without_server_roundtrip() {
    // The headline feature: a capability restricted entirely client-side
    // is honoured by the server.
    let net = Network::new();
    let runner = ServiceRunner::spawn_fbox(&net, FlatFsServer::new(SchemeKind::Commutative));
    let owner = FlatFsClient::with_service(ServiceClient::fbox(&net), runner.put_port());
    let cap = owner.create().unwrap();
    owner.write(&cap, 0, b"local diminish").unwrap();

    let before = net.stats().snapshot();
    let scheme = CommutativeScheme::standard();
    let ro = scheme
        .diminish(&cap, Rights::ALL.without(Rights::READ))
        .unwrap();
    let after = net.stats().snapshot();
    assert_eq!(
        after.packets_sent - before.packets_sent,
        0,
        "diminish must generate zero network traffic"
    );

    let friend = FlatFsClient::with_service(ServiceClient::fbox(&net), runner.put_port());
    assert_eq!(&friend.read(&ro, 0, 5).unwrap(), b"local");
    assert!(friend.write(&ro, 0, b"x").is_err());
    runner.stop();
}

#[test]
fn capabilities_can_be_stored_in_directories_and_recovered() {
    // Capabilities are data: store one in a directory (a (name, cap)
    // set), look it up from another machine, use it.
    let net = Network::new();
    let fs_runner = ServiceRunner::spawn_fbox(&net, FlatFsServer::new(SchemeKind::OneWay));
    let dir_runner = ServiceRunner::spawn_fbox(&net, DirServer::new(SchemeKind::Commutative));

    let fs = FlatFsClient::with_service(ServiceClient::fbox(&net), fs_runner.put_port());
    let dirs = DirClient::with_service(ServiceClient::fbox(&net), dir_runner.put_port());

    let file = fs.create().unwrap();
    fs.write(&file, 0, b"filed away").unwrap();
    let home = dirs.create_dir().unwrap();
    dirs.enter(&home, "doc.txt", &file).unwrap();

    // A second machine recovers the capability purely by name.
    let other_dirs = DirClient::with_service(ServiceClient::fbox(&net), dir_runner.put_port());
    let other_fs = FlatFsClient::with_service(ServiceClient::fbox(&net), fs_runner.put_port());
    let recovered = other_dirs.lookup(&home, "doc.txt").unwrap();
    assert_eq!(recovered, file);
    assert_eq!(&other_fs.read(&recovered, 0, 10).unwrap(), b"filed away");

    fs_runner.stop();
    dir_runner.stop();
}
