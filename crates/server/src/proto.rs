//! The standard request/reply message format (§2.1).
//!
//! "The standard message format provides a place for one capability in
//! the header, typically for the object being operated on ... The header
//! also contains room for the operation code and some parameters."
//!
//! Requests with no meaningful capability (e.g. CREATE on a public
//! server) carry the [`null_cap`] placeholder.

use crate::wire::{FrameWriter, Writer};
use amoeba_cap::{Capability, ObjectNum, Rights};
use amoeba_net::Port;
use bytes::Bytes;

/// Commands every object-table-backed service answers, in a reserved
/// range far above service-specific opcodes.
pub mod cmd {
    /// Fabricate a sub-capability with fewer rights (server-side
    /// restriction, needed by schemes 1 and 2). Params: `u32` rights
    /// mask to keep. Reply: the new capability.
    pub const STD_RESTRICT: u32 = 0xFFFF_0001;
    /// Replace the object's random number, instantly invalidating every
    /// outstanding capability. Requires [`Rights::OWNER`]. Reply: the
    /// fresh capability.
    ///
    /// [`Rights::OWNER`]: amoeba_cap::Rights::OWNER
    pub const STD_REVOKE: u32 = 0xFFFF_0002;
    /// Validate the capability and return its effective rights mask as a
    /// `u32` (diagnostics, and the cheapest possible "is this genuine?").
    pub const STD_INFO: u32 = 0xFFFF_0003;
    /// Shard migration: open staging for a transfer. Carries the
    /// target's migration capability; params and reply in
    /// [`crate::migrate::TransferOp`].
    pub const STD_TRANSFER_BEGIN: u32 = 0xFFFF_0004;
    /// Shard migration: stage one chunk of records.
    pub const STD_TRANSFER_CHUNK: u32 = 0xFFFF_0005;
    /// Shard migration: install the staged records and adopt the shard.
    pub const STD_TRANSFER_COMMIT: u32 = 0xFFFF_0006;
}

/// A placeholder capability for capability-less requests.
///
/// Uses port value 1 (an ordinary, never-published port) and an
/// all-zero body; services must not grant it anything — it exists only
/// so the standard header always has 16 capability bytes.
pub fn null_cap() -> Capability {
    Capability::new(
        Port::new(1).expect("1 is a valid port"),
        ObjectNum::new(0).expect("0 is a valid object"),
        Rights::NONE,
        0,
    )
}

/// A decoded request: the §2.1 standard format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// The capability for the object being operated on.
    pub cap: Capability,
    /// The operation code.
    pub command: u32,
    /// Service-specific parameters (see [`crate::wire`]).
    pub params: Bytes,
}

impl Request {
    /// Encodes for transmission: capability ‖ command ‖ params.
    ///
    /// Fresh-buffer wrapper over [`encode_into`](Self::encode_into);
    /// hot paths encode into a recycled
    /// [`BufPool`](amoeba_net::BufPool) buffer instead.
    pub fn encode(&self) -> Bytes {
        let mut buf = bytes::BytesMut::with_capacity(20 + self.params.len());
        self.encode_into(&mut buf);
        buf.freeze()
    }

    /// Encodes for transmission, appending to `buf`.
    pub fn encode_into(&self, buf: &mut bytes::BytesMut) {
        Request::encode_with(buf, &self.cap, self.command, |w| w.raw(&self.params));
    }

    /// Encodes a request **in place**: appends capability ‖ command to
    /// `buf` and lets `params` write the parameter blob straight after
    /// them — no `Request` value, no params buffer. What
    /// [`ServiceClient`](crate::ServiceClient) builds its frames with.
    pub fn encode_with(
        buf: &mut bytes::BytesMut,
        cap: &Capability,
        command: u32,
        params: impl FnOnce(FrameWriter<'_>) -> FrameWriter<'_>,
    ) {
        params(Writer::over(buf).cap(cap).u32(command));
    }

    /// Decodes a request body; `None` if malformed.
    pub fn decode(data: &Bytes) -> Option<Request> {
        if data.len() < 20 {
            return None;
        }
        let cap = Capability::decode_slice(&data[..16])?;
        let command = u32::from_be_bytes(data[16..20].try_into().ok()?);
        Some(Request {
            cap,
            command,
            params: data.slice(20..),
        })
    }
}

/// Reply status codes shared by all services.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u32)]
pub enum Status {
    /// Success.
    Ok = 0,
    /// The capability's check field did not validate.
    Forged = 1,
    /// The capability validates but no such object exists (deleted).
    NoSuchObject = 2,
    /// The capability lacks a right the operation requires.
    RightsViolation = 3,
    /// The request body was malformed.
    BadRequest = 4,
    /// Unknown operation code.
    BadCommand = 5,
    /// A named entry was not found (directories).
    NotFound = 6,
    /// An entry already exists (directories), or a version conflict
    /// (multiversion file server).
    Conflict = 7,
    /// Out of storage (block server, quotas).
    NoSpace = 8,
    /// Not enough virtual money (bank server).
    InsufficientFunds = 9,
    /// The operation is not supported by this server or scheme.
    Unsupported = 10,
    /// Parameter out of range (offsets, sizes).
    OutOfRange = 11,
}

impl Status {
    /// Parses a wire status code.
    pub fn from_u32(v: u32) -> Option<Status> {
        use Status::*;
        Some(match v {
            0 => Ok,
            1 => Forged,
            2 => NoSuchObject,
            3 => RightsViolation,
            4 => BadRequest,
            5 => BadCommand,
            6 => NotFound,
            7 => Conflict,
            8 => NoSpace,
            9 => InsufficientFunds,
            10 => Unsupported,
            11 => OutOfRange,
            _ => return None,
        })
    }
}

impl std::fmt::Display for Status {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Status::Ok => "ok",
            Status::Forged => "capability does not validate",
            Status::NoSuchObject => "no such object",
            Status::RightsViolation => "insufficient rights",
            Status::BadRequest => "malformed request",
            Status::BadCommand => "unknown command",
            Status::NotFound => "not found",
            Status::Conflict => "conflict",
            Status::NoSpace => "no space",
            Status::InsufficientFunds => "insufficient funds",
            Status::Unsupported => "unsupported operation",
            Status::OutOfRange => "parameter out of range",
        };
        write!(f, "{s}")
    }
}

impl std::error::Error for Status {}

/// A service reply: a status and an opaque body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reply {
    /// Outcome.
    pub status: Status,
    /// Body, meaningful only when `status == Ok`.
    pub body: Bytes,
}

impl Reply {
    /// A successful reply.
    pub fn ok(body: Bytes) -> Reply {
        Reply {
            status: Status::Ok,
            body,
        }
    }

    /// A bodyless reply with the given status.
    pub fn status(status: Status) -> Reply {
        Reply {
            status,
            body: Bytes::new(),
        }
    }

    /// Encodes for transmission: status ‖ body.
    ///
    /// Fresh-buffer wrapper over [`encode_into`](Self::encode_into);
    /// the dispatch loop encodes into a recycled
    /// [`BufPool`](amoeba_net::BufPool) buffer instead.
    pub fn encode(&self) -> Bytes {
        let mut buf = bytes::BytesMut::with_capacity(4 + self.body.len());
        self.encode_into(&mut buf);
        buf.freeze()
    }

    /// Encodes for transmission, appending to `buf`.
    pub fn encode_into(&self, buf: &mut bytes::BytesMut) {
        buf.extend_from_slice(&(self.status as u32).to_be_bytes());
        buf.extend_from_slice(&self.body);
    }

    /// Decodes a reply body; `None` if malformed.
    pub fn decode(data: &Bytes) -> Option<Reply> {
        if data.len() < 4 {
            return None;
        }
        let status = Status::from_u32(u32::from_be_bytes(data[..4].try_into().ok()?))?;
        Some(Reply {
            status,
            body: data.slice(4..),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

    fn sample_cap() -> Capability {
        Capability::new(
            Port::new(0x42).unwrap(),
            ObjectNum::new(9).unwrap(),
            Rights::READ,
            0x1234,
        )
    }

    #[test]
    fn request_roundtrip() {
        let req = Request {
            cap: sample_cap(),
            command: 0xDEAD,
            params: Bytes::from_static(b"params"),
        };
        assert_eq!(Request::decode(&req.encode()), Some(req));
    }

    #[test]
    fn request_too_short_rejected() {
        assert_eq!(Request::decode(&Bytes::from_static(&[0u8; 19])), None);
    }

    #[test]
    fn reply_roundtrip_all_statuses() {
        for v in 0..12u32 {
            let status = Status::from_u32(v).unwrap();
            let reply = Reply {
                status,
                body: Bytes::from_static(b"b"),
            };
            assert_eq!(Reply::decode(&reply.encode()), Some(reply));
        }
        assert_eq!(Status::from_u32(999), None);
    }

    proptest! {
        /// Wire identity of the in-place request path: what
        /// `ServiceClient` writes straight into the frame is byte for
        /// byte tag ‖ capability ‖ command ‖ params — the frame the
        /// build-a-body-then-copy path produced.
        #[test]
        fn in_place_request_frame_is_wire_identical(
            port in 1u64..(1u64 << 48) - 1,
            object in 0u32..=ObjectNum::MAX,
            rights: u8,
            check: u64,
            command: u32,
            params in vec(any::<u8>(), 0..=65536),
        ) {
            let cap = Capability::new(
                Port::new(port).unwrap(),
                ObjectNum::new(object).unwrap(),
                Rights::from_bits(rights),
                check,
            );
            let mut frame = bytes::BytesMut::new();
            amoeba_rpc::Frame::request_with(&mut frame, |buf| {
                Request::encode_with(buf, &cap, command, |w| w.raw(&params));
            });
            let mut spelled_out = vec![0u8];
            spelled_out.extend_from_slice(&cap.encode());
            spelled_out.extend_from_slice(&command.to_be_bytes());
            spelled_out.extend_from_slice(&params);
            prop_assert_eq!(&frame[..], &spelled_out[..]);
            let request = Request { cap, command, params: Bytes::from(params) };
            prop_assert_eq!(
                &frame[..],
                &amoeba_rpc::Frame::Request(request.encode()).encode()[..]
            );
        }

        /// … and of the in-place reply path of the dispatch loop.
        #[test]
        fn in_place_reply_frame_is_wire_identical(
            status in 0u32..12,
            body in vec(any::<u8>(), 0..=65536),
        ) {
            let mut spelled_out = vec![1u8];
            spelled_out.extend_from_slice(&status.to_be_bytes());
            spelled_out.extend_from_slice(&body);
            let reply = Reply {
                status: Status::from_u32(status).unwrap(),
                body: Bytes::from(body),
            };
            let mut frame = bytes::BytesMut::new();
            amoeba_rpc::Frame::reply_with(&mut frame, |buf| reply.encode_into(buf));
            prop_assert_eq!(&frame[..], &spelled_out[..]);
            prop_assert_eq!(
                &frame[..],
                &amoeba_rpc::Frame::Reply(reply.encode()).encode()[..]
            );
        }
    }

    #[test]
    fn null_cap_is_harmless() {
        let c = null_cap();
        assert!(c.rights.is_empty());
        assert_eq!(c.check, 0);
    }

    #[test]
    fn status_display_nonempty() {
        for v in 0..12u32 {
            assert!(!Status::from_u32(v).unwrap().to_string().is_empty());
        }
    }

    #[test]
    fn std_commands_are_distinct_and_high() {
        const { assert!(cmd::STD_RESTRICT > 0xFFFF_0000) };
        assert_ne!(cmd::STD_RESTRICT, cmd::STD_REVOKE);
        assert_ne!(cmd::STD_REVOKE, cmd::STD_INFO);
    }
}
