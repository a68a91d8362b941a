//! The wire framing used above raw packets — the repository's **wire
//! protocol**, documented byte-for-byte in `docs/PROTOCOL.md` (the two
//! must stay in sync; `documented_example_frames` below parses the
//! spec's example frames verbatim).
//!
//! # Frame families
//!
//! * **Single frames** (tags `0x00`–`0x04`, protocol v0): one tag byte
//!   distinguishes requests, replies, the two LOCATE messages and the
//!   rendezvous POST; everything else (capabilities, opcodes,
//!   parameters) lives in the opaque body and is defined by
//!   `amoeba-server`. These are unchanged since the first protocol
//!   version, and every peer must accept them forever.
//! * **Batch frames** (tags `0x05`–`0x06`, added in batch-format
//!   version 1): a length-prefixed multi-request container that carries
//!   up to [`MAX_BATCH_ENTRIES`] request (or reply) bodies in one
//!   packet, amortising the per-packet channel hops that dominate the
//!   zero-latency profile. A batch is identified by a 32-bit **batch
//!   id** chosen by the client; reply entries are matched to request
//!   entries by `(batch id, entry index)`.
//!
//! Nothing else has a frame of its own. Shard migration, in particular,
//! is three standard commands in ordinary `REQUEST` frames, defined by
//! `amoeba-server`; this layer does not know it exists. Finding the
//! replicas of a port is the v0 `LOCATE` (broadcast, every replica
//! answers for itself) or `POST` + unicast `LOCATE` at a rendezvous
//! node — one machine per answer, as in the paper.
//!
//! # Versioning policy
//!
//! Single frames carry no version byte — their layout is frozen. Batch
//! frames carry an explicit format version ([`BATCH_VERSION`]) right
//! after the tag; decoders **drop** frames with an unknown version
//! exactly as they drop unknown tags. Any incompatible change to the
//! batch layout must bump the version byte, and peers that do not
//! understand it simply never reply, which the client's retransmission
//! logic already handles (the sender can then fall back to single
//! frames). New frame *kinds* take new tag values; tags are never
//! reused. Tags `0x07`–`0x0D` are retired and a decoder drops them like
//! any unknown tag: `0x07`–`0x0A` once carried a load-aware replica
//! registry, `0x0B`–`0x0D` shard migration.
//!
//! # Robustness
//!
//! Malformed frames are *dropped*, not errors: on a broadcast network,
//! noise addressed to your port is an expected condition. The batch
//! decoder additionally enforces [`MAX_BATCH_ENTRIES`] and exact buffer
//! consumption so hostile frames (truncated entry tables, oversized
//! counts, trailing garbage) are rejected without panicking and without
//! amplification — entry bodies are zero-copy slices of the received
//! buffer, never fresh allocations sized from attacker-controlled
//! lengths.

use amoeba_net::{MachineId, Port};
use bytes::{Bytes, BytesMut};

/// Frame discriminator tags.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum FrameKind {
    /// A client request; body is server-defined.
    Request = 0,
    /// A server reply; body is server-defined.
    Reply = 1,
    /// Broadcast "who serves this port?"; body is the 48-bit port.
    Locate = 2,
    /// Answer to a LOCATE; body is the port and the answering machine.
    LocateReply = 3,
    /// Rendezvous registration: "the sending machine serves this port"
    /// (match-making without broadcast). Body is the 48-bit port.
    Post = 4,
    /// A batch of client requests sharing one packet (batch-format v1).
    BatchRequest = 5,
    /// The batch of replies answering a [`FrameKind::BatchRequest`].
    BatchReply = 6,
}

impl FrameKind {
    fn from_u8(v: u8) -> Option<FrameKind> {
        match v {
            0 => Some(FrameKind::Request),
            1 => Some(FrameKind::Reply),
            2 => Some(FrameKind::Locate),
            3 => Some(FrameKind::LocateReply),
            4 => Some(FrameKind::Post),
            5 => Some(FrameKind::BatchRequest),
            6 => Some(FrameKind::BatchReply),
            _ => None,
        }
    }
}

/// The batch-frame format version this implementation speaks. Bumped on
/// any incompatible layout change; decoders drop unknown versions.
pub const BATCH_VERSION: u8 = 1;

/// Upper bound on entries per batch frame, enforced by both encoder and
/// decoder. Keeps a hostile `count` field from driving large allocations
/// and bounds the per-frame work a server commits to before replying.
pub const MAX_BATCH_ENTRIES: usize = 1024;

/// Per-entry outcome carried in a [`Frame::BatchReply`].
///
/// This is **transport-level** status only: it says whether the server's
/// RPC layer produced a reply body for the entry at all. Application
/// failures (bad capability, rights violation, …) travel as ordinary
/// reply bodies with `status == Ok` here.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum BatchStatus {
    /// The entry was dispatched and its body is the service's reply.
    Ok = 0,
    /// The entry was rejected before dispatch (e.g. its body could not
    /// be decoded); the body is empty.
    Rejected = 1,
}

impl BatchStatus {
    fn from_u8(v: u8) -> Option<BatchStatus> {
        match v {
            0 => Some(BatchStatus::Ok),
            1 => Some(BatchStatus::Rejected),
            _ => None,
        }
    }
}

/// One reply inside a [`Frame::BatchReply`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchReplyEntry {
    /// Index of the request entry this answers (position in the
    /// [`Frame::BatchRequest`] entry table).
    pub index: u16,
    /// Transport-level outcome for this entry.
    pub status: BatchStatus,
    /// The reply body (empty when `status` is
    /// [`BatchStatus::Rejected`]).
    pub body: Bytes,
}

/// A decoded frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// A client request carrying an opaque body.
    Request(Bytes),
    /// A server reply carrying an opaque body.
    Reply(Bytes),
    /// "Which machine serves `port`?"
    Locate(Port),
    /// "`machine` serves `port`."
    LocateReply(Port, MachineId),
    /// "I (the packet's source) serve `port`" — sent to a rendezvous
    /// node instead of broadcast.
    Post(Port),
    /// A batch of request bodies identified by a client-chosen id.
    BatchRequest {
        /// Client-chosen identifier echoed by the reply; with the reply
        /// port it keys the client's demultiplexer.
        id: u32,
        /// The request bodies, in entry-index order.
        entries: Vec<Bytes>,
    },
    /// The replies for a batch, in any entry order.
    BatchReply {
        /// The id of the [`Frame::BatchRequest`] being answered.
        id: u32,
        /// One entry per request entry, each tagged with its index.
        entries: Vec<BatchReplyEntry>,
    },
}

impl Frame {
    /// Encodes the frame for transmission into a fresh buffer.
    ///
    /// Thin compatibility wrapper over
    /// [`encode_into`](Self::encode_into); hot paths take a recycled
    /// buffer from a [`BufPool`](amoeba_net::BufPool) and call
    /// `encode_into` directly so steady-state sends allocate nothing.
    /// Both produce byte-identical wire frames.
    ///
    /// # Panics
    /// As for [`encode_into`](Self::encode_into).
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::new();
        self.encode_into(&mut buf);
        buf.freeze()
    }

    /// Encodes the frame for transmission, appending to `buf`.
    ///
    /// # Panics
    /// Panics if a batch frame has zero entries, more than
    /// [`MAX_BATCH_ENTRIES`], or an entry longer than `u32::MAX` —
    /// all programming errors on the sending side, never reachable
    /// from received (attacker-controlled) data.
    pub fn encode_into(&self, buf: &mut BytesMut) {
        match self {
            Frame::Request(body) => Frame::request_with(buf, |b| b.extend_from_slice(body)),
            Frame::Reply(body) => Frame::reply_with(buf, |b| b.extend_from_slice(body)),
            Frame::Locate(port) => {
                buf.extend_from_slice(&[FrameKind::Locate as u8]);
                buf.extend_from_slice(&port.value().to_be_bytes());
            }
            Frame::LocateReply(port, machine) => {
                buf.extend_from_slice(&[FrameKind::LocateReply as u8]);
                buf.extend_from_slice(&port.value().to_be_bytes());
                buf.extend_from_slice(&machine.as_u32().to_be_bytes());
            }
            Frame::Post(port) => {
                buf.extend_from_slice(&[FrameKind::Post as u8]);
                buf.extend_from_slice(&port.value().to_be_bytes());
            }
            Frame::BatchRequest { id, entries } => {
                encode_batch_request_into(buf, *id, entries);
            }
            Frame::BatchReply { id, entries } => {
                batch_preamble(buf, FrameKind::BatchReply, *id, entries.len());
                for e in entries {
                    batch_reply_entry_with(buf, e.index, e.status, |b| {
                        b.extend_from_slice(&e.body);
                    });
                }
            }
        }
    }

    /// Appends a REQUEST frame whose body `build` writes **in place**,
    /// straight after the tag — the hottest encode: the frame buffer is
    /// the only buffer the message ever lives in. Byte-identical to
    /// `Frame::Request(body).encode()` for the body `build` appends.
    pub fn request_with(buf: &mut BytesMut, build: impl FnOnce(&mut BytesMut)) {
        buf.extend_from_slice(&[FrameKind::Request as u8]);
        build(buf);
    }

    /// The REPLY mirror image of [`request_with`](Self::request_with).
    pub fn reply_with(buf: &mut BytesMut, build: impl FnOnce(&mut BytesMut)) {
        buf.extend_from_slice(&[FrameKind::Reply as u8]);
        build(buf);
    }

    /// Decodes a frame, or `None` for malformed input.
    ///
    /// Malformed frames are *dropped*, not errors: on a broadcast
    /// network, noise addressed to your port is an expected condition.
    /// Batch frames with an unknown version byte, a zero or oversized
    /// entry count, a truncated entry table, or trailing bytes are all
    /// rejected here.
    pub fn decode(data: &Bytes) -> Option<Frame> {
        let (&tag, rest) = data.split_first()?;
        match FrameKind::from_u8(tag)? {
            FrameKind::Request => Some(Frame::Request(data.slice(1..))),
            FrameKind::Reply => Some(Frame::Reply(data.slice(1..))),
            FrameKind::Locate => {
                let raw = u64::from_be_bytes(rest.get(..8)?.try_into().ok()?);
                Some(Frame::Locate(Port::new(raw)?))
            }
            FrameKind::LocateReply => {
                let raw = u64::from_be_bytes(rest.get(..8)?.try_into().ok()?);
                let machine = u32::from_be_bytes(rest.get(8..12)?.try_into().ok()?);
                Some(Frame::LocateReply(
                    Port::new(raw)?,
                    machine_from_u32(machine),
                ))
            }
            FrameKind::Post => {
                let raw = u64::from_be_bytes(rest.get(..8)?.try_into().ok()?);
                Some(Frame::Post(Port::new(raw)?))
            }
            FrameKind::BatchRequest => {
                let (id, count, mut at) = decode_batch_preamble(rest)?;
                let mut entries = Vec::with_capacity(count);
                for _ in 0..count {
                    let (body, next) = take_entry_body(data, rest, at)?;
                    entries.push(body);
                    at = next;
                }
                (at == rest.len()).then_some(Frame::BatchRequest { id, entries })
            }
            FrameKind::BatchReply => {
                let (id, count, mut at) = decode_batch_preamble(rest)?;
                let mut entries = Vec::with_capacity(count);
                for _ in 0..count {
                    let index = u16::from_be_bytes(rest.get(at..at + 2)?.try_into().ok()?);
                    let status = BatchStatus::from_u8(*rest.get(at + 2)?)?;
                    let (body, next) = take_entry_body(data, rest, at + 3)?;
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
    }
}

/// Appends a BATCH_REQUEST frame from a borrowed entry table, so the
/// batching client encodes straight from its callers' bodies instead of
/// first copying them into an owned [`Frame`].
///
/// # Panics
/// As for [`Frame::encode_into`] on empty/oversized batches.
pub(crate) fn encode_batch_request_into(buf: &mut BytesMut, id: u32, entries: &[Bytes]) {
    batch_preamble(buf, FrameKind::BatchRequest, id, entries.len());
    for body in entries {
        let len = u32::try_from(body.len()).expect("batch entry fits in u32");
        buf.extend_from_slice(&len.to_be_bytes());
        buf.extend_from_slice(body);
    }
}

/// Appends one batch entry, `len:u32 ‖ body`, whose body `build`
/// writes in place; the length prefix is back-patched once it is known.
///
/// # Panics
/// As for [`Frame::encode_into`] on an entry longer than `u32::MAX`.
pub(crate) fn batch_entry_with(buf: &mut BytesMut, build: impl FnOnce(&mut BytesMut)) {
    let at = buf.len();
    buf.extend_from_slice(&[0; 4]);
    build(buf);
    let len = u32::try_from(buf.len() - at - 4).expect("batch entry fits in u32");
    buf[at..at + 4].copy_from_slice(&len.to_be_bytes());
}

/// Appends one BATCH_REPLY entry, `index ‖ status ‖ len ‖ body`, the
/// body written in place (see [`batch_entry_with`]).
pub(crate) fn batch_reply_entry_with(
    buf: &mut BytesMut,
    index: u16,
    status: BatchStatus,
    build: impl FnOnce(&mut BytesMut),
) {
    buf.extend_from_slice(&index.to_be_bytes());
    buf.extend_from_slice(&[status as u8]);
    batch_entry_with(buf, build);
}

/// Writes `tag ‖ version ‖ id ‖ count`, the common batch-frame prefix.
pub(crate) fn batch_preamble(buf: &mut BytesMut, kind: FrameKind, id: u32, count: usize) {
    assert!(count > 0, "batch frames must carry at least one entry");
    assert!(
        count <= MAX_BATCH_ENTRIES,
        "batch frames carry at most {MAX_BATCH_ENTRIES} entries"
    );
    buf.extend_from_slice(&[kind as u8, BATCH_VERSION]);
    buf.extend_from_slice(&id.to_be_bytes());
    buf.extend_from_slice(&(count as u16).to_be_bytes());
}

/// Parses `version ‖ id ‖ count` from the bytes after the tag; returns
/// `(id, count, offset of the first entry)`.
fn decode_batch_preamble(rest: &[u8]) -> Option<(u32, usize, usize)> {
    if *rest.first()? != BATCH_VERSION {
        return None; // unknown batch format version
    }
    let id = u32::from_be_bytes(rest.get(1..5)?.try_into().ok()?);
    let count = u16::from_be_bytes(rest.get(5..7)?.try_into().ok()?) as usize;
    if count == 0 || count > MAX_BATCH_ENTRIES {
        return None;
    }
    Some((id, count, 7))
}

/// Reads a `len:u32 ‖ body` entry starting at `rest[at..]`; returns the
/// body as a zero-copy slice of `data` and the offset past the entry.
/// (`rest` is `data` minus the tag byte, so slice indexes shift by 1.)
fn take_entry_body(data: &Bytes, rest: &[u8], at: usize) -> Option<(Bytes, usize)> {
    let len = u32::from_be_bytes(rest.get(at..at + 4)?.try_into().ok()?) as usize;
    let end = (at + 4).checked_add(len)?;
    if end > rest.len() {
        return None; // truncated entry
    }
    Some((data.slice(1 + at + 4..1 + end), end))
}

// MachineId's constructor is crate-private in amoeba-net by design; the
// only way to *mint* one is to attach to a network. For decoding we
// round-trip through the public Display/as_u32 pair via this helper.
fn machine_from_u32(v: u32) -> MachineId {
    // Safety of representation: MachineId is a transparent u32 newtype
    // with a public as_u32; amoeba-net exposes From<u32> for decoding.
    MachineId::from(v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

    #[test]
    fn request_roundtrip() {
        let f = Frame::Request(Bytes::from_static(b"hello"));
        assert_eq!(Frame::decode(&f.encode()), Some(f));
    }

    #[test]
    fn reply_roundtrip() {
        let f = Frame::Reply(Bytes::from_static(b""));
        assert_eq!(Frame::decode(&f.encode()), Some(f));
    }

    #[test]
    fn locate_roundtrip() {
        let f = Frame::Locate(Port::new(0xABCDEF).unwrap());
        assert_eq!(Frame::decode(&f.encode()), Some(f));
    }

    #[test]
    fn locate_reply_roundtrip() {
        let f = Frame::LocateReply(Port::new(7).unwrap(), machine_from_u32(99));
        assert_eq!(Frame::decode(&f.encode()), Some(f));
    }

    #[test]
    fn post_roundtrip() {
        let f = Frame::Post(Port::new(0x909).unwrap());
        assert_eq!(Frame::decode(&f.encode()), Some(f));
    }

    #[test]
    fn batch_request_roundtrip() {
        let f = Frame::BatchRequest {
            id: 0xDEAD_BEEF,
            entries: vec![
                Bytes::from_static(b"first"),
                Bytes::new(),
                Bytes::from_static(b"third entry"),
            ],
        };
        assert_eq!(Frame::decode(&f.encode()), Some(f));
    }

    #[test]
    fn batch_reply_roundtrip_out_of_order() {
        let f = Frame::BatchReply {
            id: 7,
            entries: vec![
                BatchReplyEntry {
                    index: 2,
                    status: BatchStatus::Ok,
                    body: Bytes::from_static(b"late"),
                },
                BatchReplyEntry {
                    index: 0,
                    status: BatchStatus::Rejected,
                    body: Bytes::new(),
                },
                BatchReplyEntry {
                    index: 1,
                    status: BatchStatus::Ok,
                    body: Bytes::from_static(b"ok"),
                },
            ],
        };
        assert_eq!(Frame::decode(&f.encode()), Some(f));
    }

    proptest! {
        /// Wire identity of the in-place single-frame encoders: a body
        /// written straight after the tag is byte for byte the frame
        /// the build-then-copy path produced.
        #[test]
        fn in_place_request_and_reply_are_wire_identical(
            body in vec(any::<u8>(), 0..=65536),
        ) {
            let mut request = BytesMut::new();
            Frame::request_with(&mut request, |b| b.extend_from_slice(&body));
            let mut reply = BytesMut::new();
            Frame::reply_with(&mut reply, |b| b.extend_from_slice(&body));
            let body = Bytes::from(body);
            prop_assert_eq!(&request[..], &Frame::Request(body.clone()).encode()[..]);
            prop_assert_eq!(&request[1..], &body[..]);
            prop_assert_eq!(&reply[..], &Frame::Reply(body).encode()[..]);
            prop_assert_eq!((request[0], reply[0]), (0, 1));
        }

        /// … and of the in-place batch encoder: entries written where
        /// they stand, length prefixes back-patched, equal the frame
        /// encoded from a table of finished bodies.
        #[test]
        fn in_place_batch_request_is_wire_identical(
            id: u32,
            bodies in vec(
                vec(any::<u8>(), 0..4096),
                1..24,
            ),
        ) {
            let mut in_place = BytesMut::new();
            batch_preamble(&mut in_place, FrameKind::BatchRequest, id, bodies.len());
            for body in &bodies {
                batch_entry_with(&mut in_place, |b| b.extend_from_slice(body));
            }
            let entries: Vec<Bytes> = bodies.into_iter().map(Bytes::from).collect();
            let mut from_table = BytesMut::new();
            encode_batch_request_into(&mut from_table, id, &entries);
            prop_assert_eq!(&in_place[..], &from_table[..]);
            prop_assert_eq!(
                Frame::decode(&in_place.freeze()),
                Some(Frame::BatchRequest { id, entries })
            );
        }
    }

    /// The example frames from `docs/PROTOCOL.md`, byte for byte. If
    /// this test fails, either the encoder or the documentation is
    /// wrong — fix whichever diverged.
    #[test]
    fn documented_example_frames() {
        // PROTOCOL.md "Worked example": a 2-entry batch request with
        // id 0x00000007 carrying bodies "hi" and "!".
        let documented: &[u8] = &[
            0x05, // tag: BATCH_REQUEST
            0x01, // batch-format version 1
            0x00, 0x00, 0x00, 0x07, // batch id 7
            0x00, 0x02, // count 2
            0x00, 0x00, 0x00, 0x02, // entry 0 length 2
            b'h', b'i', // entry 0 body
            0x00, 0x00, 0x00, 0x01, // entry 1 length 1
            b'!', // entry 1 body
        ];
        let expect = Frame::BatchRequest {
            id: 7,
            entries: vec![Bytes::from_static(b"hi"), Bytes::from_static(b"!")],
        };
        assert_eq!(expect.encode(), Bytes::from_static(documented));
        assert_eq!(Frame::decode(&Bytes::from_static(documented)), Some(expect));

        // PROTOCOL.md "Worked example": the matching reply, entry 1
        // first (answered out of order), entry 0 rejected.
        let documented: &[u8] = &[
            0x06, // tag: BATCH_REPLY
            0x01, // batch-format version 1
            0x00, 0x00, 0x00, 0x07, // batch id 7
            0x00, 0x02, // count 2
            0x00, 0x01, // entry index 1
            0x00, // status: OK
            0x00, 0x00, 0x00, 0x02, // length 2
            b'o', b'k', // body
            0x00, 0x00, // entry index 0
            0x01, // status: REJECTED
            0x00, 0x00, 0x00, 0x00, // length 0
        ];
        let expect = Frame::BatchReply {
            id: 7,
            entries: vec![
                BatchReplyEntry {
                    index: 1,
                    status: BatchStatus::Ok,
                    body: Bytes::from_static(b"ok"),
                },
                BatchReplyEntry {
                    index: 0,
                    status: BatchStatus::Rejected,
                    body: Bytes::new(),
                },
            ],
        };
        assert_eq!(expect.encode(), Bytes::from_static(documented));
        assert_eq!(Frame::decode(&Bytes::from_static(documented)), Some(expect));
    }

    #[test]
    fn malformed_frames_rejected() {
        assert_eq!(Frame::decode(&Bytes::new()), None);
        assert_eq!(Frame::decode(&Bytes::from_static(&[9, 1, 2])), None);
        assert_eq!(Frame::decode(&Bytes::from_static(&[2, 1])), None); // short locate
        assert_eq!(
            Frame::decode(&Bytes::from_static(&[3, 0, 0, 0, 0, 0, 0, 0, 1])),
            None
        );
    }

    #[test]
    fn hostile_batch_frames_rejected() {
        let good = Frame::BatchRequest {
            id: 1,
            entries: vec![Bytes::from_static(b"abc")],
        }
        .encode();

        // Unknown version byte.
        let mut bad = good.to_vec();
        bad[1] = 2;
        assert_eq!(Frame::decode(&Bytes::from(bad)), None);

        // Zero entry count.
        let mut bad = good.to_vec();
        bad[6] = 0;
        bad[7] = 0;
        assert_eq!(Frame::decode(&Bytes::from(bad)), None);

        // Count larger than MAX_BATCH_ENTRIES.
        let mut bad = good.to_vec();
        bad[6] = 0xFF;
        bad[7] = 0xFF;
        assert_eq!(Frame::decode(&Bytes::from(bad)), None);

        // Count claims more entries than the buffer holds.
        let mut bad = good.to_vec();
        bad[7] = 2;
        assert_eq!(Frame::decode(&Bytes::from(bad)), None);

        // Entry length overruns the buffer.
        let mut bad = good.to_vec();
        bad[11] = 0xFF;
        assert_eq!(Frame::decode(&Bytes::from(bad)), None);

        // Entry length ~u32::MAX must not overflow offset math.
        let mut bad = good.to_vec();
        bad[8] = 0xFF;
        bad[9] = 0xFF;
        bad[10] = 0xFF;
        bad[11] = 0xFF;
        assert_eq!(Frame::decode(&Bytes::from(bad)), None);

        // Trailing garbage after the last entry.
        let mut bad = good.to_vec();
        bad.push(0);
        assert_eq!(Frame::decode(&Bytes::from(bad)), None);

        // Truncated preamble.
        assert_eq!(Frame::decode(&Bytes::from_static(&[5, 1, 0, 0])), None);

        // Reply with an unknown status byte.
        let reply = Frame::BatchReply {
            id: 1,
            entries: vec![BatchReplyEntry {
                index: 0,
                status: BatchStatus::Ok,
                body: Bytes::new(),
            }],
        }
        .encode();
        let mut bad = reply.to_vec();
        bad[10] = 9; // status byte of entry 0
        assert_eq!(Frame::decode(&Bytes::from(bad)), None);
    }

    /// Tags `0x07`–`0x0D` are retired: `0x07`–`0x0A` carried the
    /// load-aware replica registry, `0x0B`–`0x0D` shard migration.
    /// Whatever follows one of them — its former valid encoding
    /// included — decodes to nothing, so the tags can never be
    /// mistaken for a frame this protocol speaks.
    #[test]
    fn retired_tags_decode_to_none() {
        // The former valid encodings, as the protocol document gave them:
        // POST_LOAD, UNPOST, LOCATE_ALL and LOCATE_REPLY_MULTI
        // (cluster-format v1, port 0xC1A57E04), then TRANSFER_BEGIN,
        // TRANSFER_CHUNK and TRANSFER_COMMIT (transfer-format v1,
        // transfer 42).
        let port = [0x00, 0x00, 0x00, 0x00, 0xC1, 0xA5, 0x7E, 0x04];
        let xfer = [0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x2A];
        let former: [Vec<u8>; 7] = [
            [&[0x07, 0x01][..], &port, &[0, 0, 0, 3]].concat(),
            [&[0x08, 0x01][..], &port].concat(),
            [&[0x09, 0x01][..], &port].concat(),
            [
                &[0x0A, 0x01][..],
                &port,
                &[2, 0, 0, 0, 5, 0, 0, 0, 3, 0, 0, 0, 9, 0, 0, 0, 8],
            ]
            .concat(),
            [&[0x0B, 0x01][..], &xfer, &[5]].concat(),
            [
                &[0x0C, 0x01][..],
                &xfer,
                &[0, 0, 0, 0, 0, 0, 0, 3, 0xAA, 0xBB, 0xCC],
            ]
            .concat(),
            [&[0x0D, 0x01][..], &xfer, &[0, 0, 0, 1]].concat(),
        ];
        for bytes in former {
            assert_eq!(
                Frame::decode(&Bytes::from(bytes.clone())),
                None,
                "{bytes:02x?}"
            );
        }
    }

    proptest! {
        /// … and neither does any other body behind a retired tag.
        #[test]
        fn retired_tags_decode_to_none_whatever_follows(
            tag in 0x07u8..=0x0D,
            body in vec(any::<u8>(), 0..256),
        ) {
            let frame = Bytes::from([&[tag][..], &body].concat());
            prop_assert_eq!(Frame::decode(&frame), None);
        }
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn encoding_empty_batch_panics() {
        let _ = Frame::BatchRequest {
            id: 0,
            entries: Vec::new(),
        }
        .encode();
    }
}
