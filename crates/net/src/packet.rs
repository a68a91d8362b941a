//! Packets and the standard Amoeba header.

use crate::addr::{MachineId, Port};
use crate::reactor::Timestamp;
use bytes::Bytes;

/// The three special header fields the F-box operates on (§2.2):
/// destination, reply and signature ports.
///
/// "Each message presented to the F-box for transmission contains three
/// special header fields: destination (P), reply (G′), and signature
/// (S). The F-box applies the one-way function to the second and third
/// of these."
///
/// Higher layers (RPC, capabilities) put everything else — the operated-
/// on capability, the operation code, parameters — in the payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Header {
    /// Destination put-port `P`. Passed through the F-box untransformed.
    pub dest: Port,
    /// Reply port. The *sender* fills in its secret get-port `G′`; the
    /// F-box transmits `F(G′)`, the put-port the receiver should answer.
    pub reply: Port,
    /// Signature. The sender fills in its secret signature `S`; the
    /// F-box transmits `F(S)`, which receivers compare with the sender's
    /// published `F(S)`.
    pub signature: Port,
    /// Optional machine hint: when set, the network delivers the frame
    /// only to this machine (if its interface accepts `dest`). This is
    /// the §2.2 software simulation of associative addressing — a
    /// kernel's `(port, machine-number)` cache turns a logical port
    /// into a machine-addressed frame — and what lets several replicas
    /// serve one put-port without every replica hearing every request.
    /// `None` keeps the pure associative behaviour: every claimer of
    /// `dest` receives the frame. Broadcast destinations ignore it.
    pub target: Option<MachineId>,
}

impl Header {
    /// A header addressed to `dest` with null reply and signature.
    pub fn to(dest: Port) -> Header {
        Header {
            dest,
            reply: Port::NULL,
            signature: Port::NULL,
            target: None,
        }
    }

    /// Sets the reply field (builder style).
    pub fn with_reply(mut self, reply: Port) -> Header {
        self.reply = reply;
        self
    }

    /// Sets the signature field (builder style).
    pub fn with_signature(mut self, signature: Port) -> Header {
        self.signature = signature;
        self
    }

    /// Restricts delivery to one machine (builder style) — the cached
    /// `(port, machine)` pair of a LOCATE answer turned into routing.
    pub fn targeted(mut self, machine: MachineId) -> Header {
        self.target = Some(machine);
        self
    }
}

/// A frame on the simulated wire.
#[derive(Debug, Clone)]
pub struct Packet {
    /// Source machine, stamped by the network — unforgeable.
    pub source: MachineId,
    /// The port header *as transmitted*, i.e. after the sender's
    /// interface applied its egress transformation.
    pub header: Header,
    /// Opaque payload (cheaply clonable for broadcast fan-out).
    pub payload: Bytes,
    /// Simulated arrival point on the network's timeline; receivers
    /// advance the clock to it before acting on the packet (a real
    /// wait under [`WallClock`](crate::WallClock), a jump under
    /// [`SimClock`](crate::SimClock)).
    pub(crate) deliver_at: Timestamp,
    /// Whether `deliver_at` lies after the instant the frame was sent
    /// (hop latency was added). A frame sent with zero latency has
    /// already arrived when it is received, so the wall-clock receive
    /// path skips the clock for it ([`Reactor::deliver`]).
    ///
    /// [`Reactor::deliver`]: crate::Reactor::deliver
    pub(crate) delayed: bool,
}

impl Packet {
    /// Fixed per-frame overhead charged by the wire-byte accounting:
    /// three 8-byte port fields (destination, reply, signature), the
    /// 4-byte source machine stamp, and the 4-byte machine-hint field
    /// (null when untargeted). Every frame pays this regardless of
    /// payload size — it is exactly what request batching amortises.
    pub const WIRE_HEADER_BYTES: u64 = 3 * 8 + 4 + 4;

    /// The simulated arrival time of this packet on the network's
    /// timeline.
    pub fn deliver_at(&self) -> Timestamp {
        self.deliver_at
    }

    /// Bytes this frame occupies on the wire: header overhead plus
    /// payload.
    pub fn wire_len(&self) -> u64 {
        Self::WIRE_HEADER_BYTES + self.payload.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_builder() {
        let p = Port::new(5).unwrap();
        let r = Port::new(6).unwrap();
        let s = Port::new(7).unwrap();
        let h = Header::to(p).with_reply(r).with_signature(s);
        assert_eq!(h.dest, p);
        assert_eq!(h.reply, r);
        assert_eq!(h.signature, s);
    }

    #[test]
    fn header_to_defaults_null() {
        let h = Header::to(Port::new(5).unwrap());
        assert!(h.reply.is_null());
        assert!(h.signature.is_null());
    }
}
