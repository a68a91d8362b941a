//! Cross-crate property tests: the security invariants of the paper
//! checked against randomly generated adversarial inputs, plus
//! reference-model tests for the stateful services (the server must
//! agree with a trivially correct in-memory model under arbitrary
//! operation sequences).

use amoeba::prelude::*;
use proptest::prelude::*;

// ---------------------------------------------------------------------
// Capability invariants across all schemes
// ---------------------------------------------------------------------

fn scheme_strategy() -> impl Strategy<Value = SchemeKind> {
    prop_oneof![
        Just(SchemeKind::Simple),
        Just(SchemeKind::Encrypted),
        Just(SchemeKind::OneWay),
        Just(SchemeKind::Commutative),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// No single-bit or multi-bit corruption of the 128-bit capability
    /// may validate (except bit flips confined to unused plaintext
    /// rights bits that the scheme legitimately ignores — there are
    /// none: every scheme binds the rights).
    #[test]
    fn no_bitflip_of_a_capability_validates(kind in scheme_strategy(), flip in 0u32..128, seed: u64) {
        let scheme = kind.instantiate();
        let mut rng = SecretStream::from_seed(seed);
        let secret = scheme.new_secret(&mut rng);
        let cap = scheme.mint(Port::new(0xF00).unwrap(), ObjectNum::new(3).unwrap(), &secret);

        let mut bytes = cap.encode();
        bytes[(flip / 8) as usize] ^= 1 << (flip % 8);
        if let Some(forged) = Capability::decode(&bytes) {
            // Flips in the port/object fields change *addressing*, which
            // the scheme layer does not bind (the object table rejects
            // those by looking up a different secret). Schemes 1-3 bind
            // rights and check; scheme 0 has no rights distinction at
            // all ("all operations are allowed"), so only its check
            // field is load-bearing.
            let crypto_changed = match kind {
                SchemeKind::Simple => forged.check != cap.check,
                _ => forged.rights != cap.rights || forged.check != cap.check,
            };
            if crypto_changed {
                prop_assert!(
                    scheme.validate(&forged, &secret).is_err(),
                    "{kind}: flipped bit {flip} still validated"
                );
            }
        }
    }

    /// Rights monotonicity: a chain of diminishes can only lose rights,
    /// and the result validates to exactly the surviving set.
    #[test]
    fn diminish_chains_are_monotone(masks in proptest::collection::vec(any::<u8>(), 0..6), seed: u64) {
        let scheme = CommutativeScheme::standard();
        let mut rng = SecretStream::from_seed(seed);
        let secret = scheme.new_secret(&mut rng);
        let mut cap = scheme.mint(Port::new(0xF01).unwrap(), ObjectNum::new(1).unwrap(), &secret);
        let mut expected = Rights::ALL;
        for m in masks {
            let drop = Rights::from_bits(m);
            cap = scheme.diminish(&cap, drop).unwrap();
            expected = expected.without(drop);
            prop_assert_eq!(scheme.validate(&cap, &secret).unwrap(), expected);
        }
    }

    /// Mixing check fields between two objects of the same server never
    /// validates: per-object secrets are independent.
    #[test]
    fn cross_object_check_transplant_fails(kind in scheme_strategy(), seed: u64) {
        let scheme = kind.instantiate();
        let mut rng = SecretStream::from_seed(seed);
        let s1 = scheme.new_secret(&mut rng);
        let s2 = scheme.new_secret(&mut rng);
        prop_assume!(s1 != s2);
        let port = Port::new(0xF02).unwrap();
        let cap1 = scheme.mint(port, ObjectNum::new(1).unwrap(), &s1);
        let cap2 = scheme.mint(port, ObjectNum::new(2).unwrap(), &s2);
        // Object 2's capability carrying object 1's check field.
        let hybrid = cap2.with_check(cap1.check).with_rights(cap1.rights);
        prop_assert!(scheme.validate(&hybrid, &s2).is_err());
    }
}

// ---------------------------------------------------------------------
// Reference-model test: flat file server vs Vec<u8>
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
enum FileOp {
    Write { offset: u16, data: Vec<u8> },
    Read { offset: u16, len: u16 },
    Size,
}

fn file_op_strategy() -> impl Strategy<Value = FileOp> {
    prop_oneof![
        (any::<u16>(), proptest::collection::vec(any::<u8>(), 0..64))
            .prop_map(|(offset, data)| FileOp::Write { offset, data }),
        (any::<u16>(), any::<u16>()).prop_map(|(offset, len)| FileOp::Read { offset, len }),
        Just(FileOp::Size),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Arbitrary operation sequences against the real flat file server
    /// must match a plain Vec<u8> reference model byte for byte.
    #[test]
    fn flatfs_matches_reference_model(ops in proptest::collection::vec(file_op_strategy(), 1..24)) {
        let net = Network::new();
        let runner = ServiceRunner::spawn_open(&net, FlatFsServer::new(SchemeKind::OneWay));
        let fs = FlatFsClient::with_service(ServiceClient::open(&net), runner.put_port());
        let cap = fs.create().unwrap();
        let mut model: Vec<u8> = Vec::new();

        for op in ops {
            match op {
                FileOp::Write { offset, data } => {
                    let end = offset as usize + data.len();
                    if end > model.len() {
                        model.resize(end, 0);
                    }
                    model[offset as usize..end].copy_from_slice(&data);
                    let new_size = fs.write(&cap, offset as u64, &data).unwrap();
                    prop_assert_eq!(new_size as usize, model.len());
                }
                FileOp::Read { offset, len } => {
                    let start = (offset as usize).min(model.len());
                    let end = start.saturating_add(len as usize).min(model.len());
                    let expected = &model[start..end];
                    let got = fs.read(&cap, offset as u64, len as u32).unwrap();
                    prop_assert_eq!(&got[..], expected);
                }
                FileOp::Size => {
                    prop_assert_eq!(fs.size(&cap).unwrap() as usize, model.len());
                }
            }
        }
        runner.stop();
    }
}

// ---------------------------------------------------------------------
// Reference-model test: directory server vs BTreeMap
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
enum DirOp {
    Enter(u8),
    Remove(u8),
    Lookup(u8),
    List,
}

fn dir_op_strategy() -> impl Strategy<Value = DirOp> {
    prop_oneof![
        any::<u8>().prop_map(DirOp::Enter),
        any::<u8>().prop_map(DirOp::Remove),
        any::<u8>().prop_map(DirOp::Lookup),
        Just(DirOp::List),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn dirsvr_matches_reference_model(ops in proptest::collection::vec(dir_op_strategy(), 1..32)) {
        let net = Network::new();
        let runner = ServiceRunner::spawn_open(&net, DirServer::new(SchemeKind::Commutative));
        let dirs = DirClient::with_service(ServiceClient::open(&net), runner.put_port());
        let dir = dirs.create_dir().unwrap();
        let target = dirs.create_dir().unwrap(); // value stored under every name
        let mut model = std::collections::BTreeMap::new();

        for op in ops {
            match op {
                DirOp::Enter(n) => {
                    let name = format!("n{n}");
                    let result = dirs.enter(&dir, &name, &target);
                    if let std::collections::btree_map::Entry::Vacant(e) = model.entry(name) {
                        result.unwrap();
                        e.insert(target);
                    } else {
                        prop_assert_eq!(result.unwrap_err(), ClientError::Status(Status::Conflict));
                    }
                }
                DirOp::Remove(n) => {
                    let name = format!("n{n}");
                    let result = dirs.remove(&dir, &name);
                    if model.remove(&name).is_some() {
                        result.unwrap();
                    } else {
                        prop_assert_eq!(result.unwrap_err(), ClientError::Status(Status::NotFound));
                    }
                }
                DirOp::Lookup(n) => {
                    let name = format!("n{n}");
                    let result = dirs.lookup(&dir, &name);
                    if model.contains_key(&name) {
                        prop_assert_eq!(result.unwrap(), target);
                    } else {
                        prop_assert_eq!(result.unwrap_err(), ClientError::Status(Status::NotFound));
                    }
                }
                DirOp::List => {
                    let names: Vec<String> = model.keys().cloned().collect();
                    prop_assert_eq!(dirs.list(&dir).unwrap(), names);
                }
            }
        }
        runner.stop();
    }
}

// ---------------------------------------------------------------------
// Bank conservation under random transfers
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Money is conserved by arbitrary transfer sequences, including
    /// failing (overdraft) ones.
    #[test]
    fn bank_conserves_money(transfers in proptest::collection::vec((0usize..4, 0usize..4, 0u64..500), 1..24)) {
        let net = Network::new();
        let (server, treasury_rx) = BankServer::new(
            vec![Currency::convertible("dollar", 1)],
            SchemeKind::OneWay,
        );
        let runner = ServiceRunner::spawn_open(&net, server);
        let bank = BankClient::open(&net, runner.put_port());
        let treasury = treasury_rx.recv().unwrap();

        let accounts: Vec<Capability> =
            (0..4).map(|_| bank.open_account().unwrap()).collect();
        let total = 4_000u64;
        for acct in &accounts {
            bank.mint(&treasury, acct, CurrencyId(0), total / 4).unwrap();
        }

        for (from, to, amount) in transfers {
            if from == to {
                continue;
            }
            let _ = bank.transfer(&accounts[from], &accounts[to], CurrencyId(0), amount);
        }

        let sum: u64 = accounts
            .iter()
            .map(|a| bank.balance(a, CurrencyId(0)).unwrap())
            .sum();
        prop_assert_eq!(sum, total);
        runner.stop();
    }
}

// ---------------------------------------------------------------------
// Batch wire-frame invariants (docs/PROTOCOL.md)
// ---------------------------------------------------------------------

use amoeba::rpc::{BatchReplyEntry, BatchStatus, Frame};
use bytes::Bytes;

fn body_strategy() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(any::<u8>(), 0..48)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Every well-formed batch-request frame survives an encode/decode
    /// round trip bit-exactly.
    #[test]
    fn batch_request_frames_roundtrip(
        id: u32,
        entries in proptest::collection::vec(body_strategy(), 1..24),
    ) {
        let frame = Frame::BatchRequest {
            id,
            entries: entries.into_iter().map(Bytes::from).collect(),
        };
        prop_assert_eq!(Frame::decode(&frame.encode()), Some(frame));
    }

    /// Batch-reply frames round trip including out-of-order entry
    /// indexes and the REJECTED status.
    #[test]
    fn batch_reply_frames_roundtrip(
        id: u32,
        raw in proptest::collection::vec((any::<u16>(), any::<u8>(), body_strategy()), 1..24),
    ) {
        let entries: Vec<BatchReplyEntry> = raw
            .into_iter()
            .map(|(index, status, body)| BatchReplyEntry {
                index,
                status: if status % 2 == 0 { BatchStatus::Ok } else { BatchStatus::Rejected },
                body: Bytes::from(body),
            })
            .collect();
        let frame = Frame::BatchReply { id, entries };
        prop_assert_eq!(Frame::decode(&frame.encode()), Some(frame));
    }

    /// No strict prefix of a batch frame decodes (the layout is
    /// length-prefixed and self-delimiting), and neither does a frame
    /// with trailing garbage; truncation can never smuggle a shorter
    /// valid frame through.
    #[test]
    fn truncated_or_padded_batch_frames_rejected(
        id: u32,
        entries in proptest::collection::vec(body_strategy(), 1..8),
    ) {
        let wire = Frame::BatchRequest {
            id,
            entries: entries.into_iter().map(Bytes::from).collect(),
        }
        .encode();
        for cut in 0..wire.len() {
            prop_assert_eq!(Frame::decode(&wire.slice(..cut)), None, "prefix {cut} decoded");
        }
        let mut padded = wire.to_vec();
        padded.push(0);
        prop_assert_eq!(Frame::decode(&Bytes::from(padded)), None);
    }

    /// Arbitrary (hostile) bytes never panic the decoder — they decode
    /// to some frame or to None.
    #[test]
    fn hostile_frames_never_panic(data in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = Frame::decode(&Bytes::from(data));
    }

    /// Hostile mutations of a valid batch frame's preamble (version,
    /// count, entry lengths) are rejected without panicking.
    #[test]
    fn mutated_batch_preambles_rejected_or_consistent(
        id: u32,
        entries in proptest::collection::vec(body_strategy(), 1..6),
        at in 0usize..8,
        xor in 1u8..=255,
    ) {
        let wire = Frame::BatchRequest {
            id,
            entries: entries.into_iter().map(Bytes::from).collect(),
        }
        .encode();
        let mut mutated = wire.to_vec();
        let at = at.min(mutated.len() - 1);
        mutated[at] ^= xor;
        // Must not panic; flipping id bytes still decodes (ids are
        // opaque), anything else either decodes consistently or is
        // dropped.
        if let Some(Frame::BatchRequest { entries, .. }) = Frame::decode(&Bytes::from(mutated)) {
            prop_assert!(!entries.is_empty());
        }
    }
}

// ---------------------------------------------------------------------
// Zero-copy decode vs a retained copying reference decoder
// ---------------------------------------------------------------------

/// The pre-zero-copy frame decoder, retained as an executable spec: it
/// parses the same wire layout but builds **owned, freshly-copied**
/// bodies instead of slices of the arriving buffer. The production
/// decoder must agree with it on every input — valid, hostile or
/// truncated — which proves the zero-copy rewrite changed buffer
/// ownership and nothing else.
mod reference_codec {
    use amoeba::net::{MachineId, Port};
    use amoeba::rpc::{BatchReplyEntry, BatchStatus, Frame, BATCH_VERSION, MAX_BATCH_ENTRIES};
    use bytes::Bytes;

    fn port(raw: &[u8]) -> Option<Port> {
        Port::new(u64::from_be_bytes(raw.try_into().ok()?))
    }

    fn machine(raw: &[u8]) -> Option<MachineId> {
        Some(MachineId::from(u32::from_be_bytes(raw.try_into().ok()?)))
    }

    fn batch_status(v: u8) -> Option<BatchStatus> {
        match v {
            0 => Some(BatchStatus::Ok),
            1 => Some(BatchStatus::Rejected),
            _ => None,
        }
    }

    /// Reads a `len:u32 ‖ body` entry at `rest[at..]`, **copying** the
    /// body into fresh storage; returns the body and the offset past
    /// the entry.
    fn copied_entry(rest: &[u8], at: usize) -> Option<(Bytes, usize)> {
        let len = u32::from_be_bytes(rest.get(at..at + 4)?.try_into().ok()?) as usize;
        let end = (at + 4).checked_add(len)?;
        if end > rest.len() {
            return None;
        }
        Some((Bytes::from(rest[at + 4..end].to_vec()), end))
    }

    /// Decodes one frame, copying every body out of `data`.
    pub fn decode(data: &[u8]) -> Option<Frame> {
        let (&tag, rest) = data.split_first()?;
        match tag {
            0 => Some(Frame::Request(Bytes::from(rest.to_vec()))),
            1 => Some(Frame::Reply(Bytes::from(rest.to_vec()))),
            // Protocol-v0 port frames are fixed-layout but tolerate
            // trailing bytes (frozen since the first protocol version);
            // only the versioned batch family demands exact
            // consumption.
            2 => port(rest.get(..8)?).map(Frame::Locate),
            3 => Some(Frame::LocateReply(
                port(rest.get(..8)?)?,
                machine(rest.get(8..12)?)?,
            )),
            4 => port(rest.get(..8)?).map(Frame::Post),
            5 | 6 => {
                if *rest.first()? != BATCH_VERSION {
                    return None;
                }
                let id = u32::from_be_bytes(rest.get(1..5)?.try_into().ok()?);
                let count = u16::from_be_bytes(rest.get(5..7)?.try_into().ok()?) as usize;
                if count == 0 || count > MAX_BATCH_ENTRIES {
                    return None;
                }
                let mut at = 7;
                if tag == 5 {
                    let mut entries = Vec::new();
                    for _ in 0..count {
                        let (body, next) = copied_entry(rest, at)?;
                        entries.push(body);
                        at = next;
                    }
                    (at == rest.len()).then_some(Frame::BatchRequest { id, entries })
                } else {
                    let mut entries = Vec::new();
                    for _ in 0..count {
                        let index = u16::from_be_bytes(rest.get(at..at + 2)?.try_into().ok()?);
                        let status = batch_status(*rest.get(at + 2)?)?;
                        let (body, next) = copied_entry(rest, at + 3)?;
                        entries.push(BatchReplyEntry {
                            index,
                            status,
                            body,
                        });
                        at = next;
                    }
                    (at == rest.len()).then_some(Frame::BatchReply { id, entries })
                }
            }
            // Tags 7..=13 are retired, as is every tag past them.
            _ => None,
        }
    }
}

/// Strategy: an arbitrary well-formed frame of any kind, via encode.
fn wire_of(frame: &Frame) -> Bytes {
    frame.encode()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// On completely arbitrary (mostly hostile) bytes, the zero-copy
    /// decoder and the copying reference decoder agree exactly — same
    /// accepts, same rejects, same decoded values.
    #[test]
    fn zero_copy_decode_matches_reference_on_arbitrary_bytes(
        data in proptest::collection::vec(any::<u8>(), 0..192),
    ) {
        prop_assert_eq!(
            Frame::decode(&Bytes::from(data.clone())),
            reference_codec::decode(&data)
        );
    }

    /// Steered toward the interesting region: arbitrary bytes behind a
    /// valid tag byte, or one of the retired tags `7..=10` just past
    /// them.
    #[test]
    fn zero_copy_decode_matches_reference_behind_valid_tags(
        tag in 0u8..=10,
        body in proptest::collection::vec(any::<u8>(), 0..96),
    ) {
        let mut data = vec![tag];
        data.extend_from_slice(&body);
        prop_assert_eq!(
            Frame::decode(&Bytes::from(data.clone())),
            reference_codec::decode(&data)
        );
    }

    /// Port-carrying frames with valid port bits and random trailing
    /// bytes: the two decoders must agree on the v0 trailing-bytes
    /// tolerance, and on rejecting the retired tags `7..=10` whose
    /// frames once carried a version byte and a port. (Purely random
    /// bytes almost never form a valid 48-bit port, so this region
    /// needs explicit steering.)
    #[test]
    fn zero_copy_decode_matches_reference_on_port_frames_with_trailers(
        tag in 2u8..=10,
        port_bits in 1u64..0x0000_FFFF_FFFF_FFFE,
        version_ok: bool,
        trailer in proptest::collection::vec(any::<u8>(), 0..24),
    ) {
        let mut data = vec![tag];
        if tag >= 7 {
            data.push(if version_ok { 1 } else { 2 });
        }
        data.extend_from_slice(&port_bits.to_be_bytes());
        data.extend_from_slice(&trailer);
        prop_assert_eq!(
            Frame::decode(&Bytes::from(data.clone())),
            reference_codec::decode(&data)
        );
    }

    /// Valid batch frames and every strict prefix of them decode
    /// identically under both decoders (the decoders agree on where
    /// truncation becomes fatal, byte by byte).
    #[test]
    fn zero_copy_decode_matches_reference_on_truncations(
        id: u32,
        entries in proptest::collection::vec(body_strategy(), 1..8),
    ) {
        let wire = wire_of(&Frame::BatchRequest {
            id,
            entries: entries.into_iter().map(Bytes::from).collect(),
        });
        for cut in 0..=wire.len() {
            let prefix = wire.slice(..cut);
            prop_assert_eq!(
                Frame::decode(&prefix),
                reference_codec::decode(&prefix),
                "divergence at prefix length {}",
                cut
            );
        }
    }
}

/// A maximum-entry (1024) batch frame: both decoders accept it and
/// agree; one entry over the cap and both reject. Run once rather than
/// per proptest case — the frame is ~5 KiB of entry table.
#[test]
fn max_entry_batch_frames_decode_identically() {
    use amoeba::rpc::MAX_BATCH_ENTRIES;
    let entries: Vec<Bytes> = (0..MAX_BATCH_ENTRIES)
        .map(|i| Bytes::from(vec![(i % 251) as u8; i % 5]))
        .collect();
    let frame = Frame::BatchRequest {
        id: 0x4D41_5842, // "MAXB"
        entries,
    };
    let wire = frame.encode();
    let decoded = Frame::decode(&wire).expect("max-entry batch must decode");
    assert_eq!(Some(decoded), reference_codec::decode(&wire));

    // One entry past the cap must be rejected by both (the encoder
    // refuses to build it, so forge the count field instead). The count
    // sits at absolute bytes 6..8: tag(1) ‖ version(1) ‖ id(4) ‖ count(2).
    let mut forged = wire.to_vec();
    assert_eq!(
        u16::from_be_bytes(forged[6..8].try_into().unwrap()) as usize,
        MAX_BATCH_ENTRIES,
        "count-field offset drifted; the forge below would corrupt another field"
    );
    let over = (MAX_BATCH_ENTRIES + 1) as u16;
    forged[6..8].copy_from_slice(&over.to_be_bytes());
    assert_eq!(Frame::decode(&Bytes::from(forged.clone())), None);
    assert_eq!(reference_codec::decode(&forged), None);
}

/// The zero-copy pin at the frame level: decoded request bodies and
/// batch entries are pointer-aliases of the arriving wire buffer, not
/// copies. (The vendored `bytes` crate pins the same property at the
/// buffer level.)
#[test]
fn decoded_bodies_alias_the_wire_buffer() {
    let wire = Frame::Request(Bytes::from_static(b"zero-copy")).encode();
    match Frame::decode(&wire) {
        Some(Frame::Request(body)) => {
            assert!(
                std::ptr::eq(&wire[1], &body[0]),
                "request body was copied out of the wire buffer"
            );
        }
        other => panic!("unexpected decode: {other:?}"),
    }

    let wire = Frame::BatchRequest {
        id: 9,
        entries: vec![Bytes::from_static(b"alpha"), Bytes::from_static(b"bravo")],
    }
    .encode();
    match Frame::decode(&wire) {
        Some(Frame::BatchRequest { entries, .. }) => {
            // Entry 0 body starts after tag(1)+ver(1)+id(4)+count(2)+len(4).
            assert!(std::ptr::eq(&wire[12], &entries[0][0]));
            // Entry 1 body: previous + "alpha"(5) + len(4).
            assert!(std::ptr::eq(&wire[21], &entries[1][0]));
        }
        other => panic!("unexpected decode: {other:?}"),
    }
}
