//! Addresses: machine identifiers and 48-bit ports.

use std::fmt;

/// The hardware address of a simulated machine.
///
/// Source addresses are stamped by the network itself on every send and
/// cannot be forged by user code — the property §2.4 of the paper builds
/// its key matrix on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MachineId(pub(crate) u32);

impl MachineId {
    /// The raw numeric id (useful as an index into key matrices).
    pub fn as_u32(self) -> u32 {
        self.0
    }
}

impl From<u32> for MachineId {
    /// Reconstructs a machine id from its numeric form (e.g. when
    /// decoding a LOCATE reply). Note this only names a machine; packet
    /// *sources* are always stamped by the network and cannot be forged
    /// this way.
    fn from(v: u32) -> MachineId {
        MachineId(v)
    }
}

impl fmt::Display for MachineId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "m{}", self.0)
    }
}

/// A 48-bit Amoeba port.
///
/// "Ports consist of large numbers, typically 48 bits, which are known
/// only to the server processes that comprise the service, and to the
/// server's clients" (§2.2). The sparseness of the 48-bit space *is* the
/// protection: guessing a claimed port has probability ≈ 2⁻⁴⁸ per try.
///
/// `Port` is a validated newtype: the inner value is guaranteed to fit
/// in 48 bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Port(u64);

/// Mask of the 48 usable port bits.
pub(crate) const PORT_MASK: u64 = (1 << 48) - 1;

impl Port {
    /// The reserved broadcast destination. Packets sent here are
    /// delivered to every machine regardless of port claims — the
    /// substrate for LOCATE (§2.2).
    pub const BROADCAST: Port = Port(0);

    /// The null port, used for absent header fields.
    pub const NULL: Port = Port(PORT_MASK);

    /// Creates a port from a 48-bit value.
    ///
    /// Returns `None` if the value exceeds 48 bits or collides with the
    /// reserved [`BROADCAST`](Port::BROADCAST) / [`NULL`](Port::NULL)
    /// values.
    pub fn new(value: u64) -> Option<Port> {
        if value > PORT_MASK || value == Self::BROADCAST.0 || value == Self::NULL.0 {
            None
        } else {
            Some(Port(value))
        }
    }

    /// Creates a port by truncating to 48 bits, remapping the two
    /// reserved values into ordinary nearby ports.
    ///
    /// This is what the F-box uses on the *output* of the one-way
    /// function, which may land on a reserved value with probability
    /// 2⁻⁴⁷ — remapping keeps `F` total without giving anyone the
    /// broadcast port.
    pub fn from_raw(value: u64) -> Port {
        let v = value & PORT_MASK;
        if v == Self::BROADCAST.0 {
            Port(1)
        } else if v == Self::NULL.0 {
            Port(PORT_MASK - 1)
        } else {
            Port(v)
        }
    }

    /// Draws a secret port ([`secret_u64`](amoeba_crypto::secret_u64)) —
    /// how servers pick get-ports and clients pick reply get-ports.
    pub fn random() -> Port {
        loop {
            if let Some(p) = Port::new(amoeba_crypto::secret_u64() & PORT_MASK) {
                return p;
            }
        }
    }

    /// The raw 48-bit value.
    pub fn value(self) -> u64 {
        self.0
    }

    /// Whether this is the broadcast port.
    pub fn is_broadcast(self) -> bool {
        self == Self::BROADCAST
    }

    /// Whether this is the null port.
    pub fn is_null(self) -> bool {
        self == Self::NULL
    }
}

impl fmt::Display for Port {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_broadcast() {
            write!(f, "port:BROADCAST")
        } else if self.is_null() {
            write!(f, "port:NULL")
        } else {
            write!(f, "port:{:012x}", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn reserved_values_rejected_by_new() {
        assert!(Port::new(0).is_none());
        assert!(Port::new(PORT_MASK).is_none());
        assert!(Port::new(PORT_MASK + 1).is_none());
        assert!(Port::new(1).is_some());
        assert!(Port::new(PORT_MASK - 1).is_some());
    }

    #[test]
    fn from_raw_remaps_reserved() {
        assert_eq!(Port::from_raw(0), Port(1));
        assert_eq!(Port::from_raw(PORT_MASK), Port(PORT_MASK - 1));
        assert_eq!(Port::from_raw(42), Port(42));
        assert_eq!(Port::from_raw(PORT_MASK + 42 + 1), Port(42));
    }

    #[test]
    fn random_ports_are_valid_and_spread() {
        let mut seen = std::collections::HashSet::new();
        for _ in 0..1000 {
            let p = Port::random();
            assert!(!p.is_broadcast() && !p.is_null());
            seen.insert(p);
        }
        assert_eq!(seen.len(), 1000, "48-bit random ports should not collide");
    }

    #[test]
    fn display_forms() {
        assert_eq!(Port::BROADCAST.to_string(), "port:BROADCAST");
        assert_eq!(Port::NULL.to_string(), "port:NULL");
        assert_eq!(Port::new(0xABC).unwrap().to_string(), "port:000000000abc");
        assert_eq!(MachineId(7).to_string(), "m7");
    }

    proptest! {
        #[test]
        fn from_raw_always_valid(v: u64) {
            let p = Port::from_raw(v);
            prop_assert!(!p.is_broadcast());
            prop_assert!(!p.is_null());
            prop_assert!(p.value() <= PORT_MASK);
        }

        #[test]
        fn new_accepts_exactly_nonreserved_48bit(v in 1u64..PORT_MASK) {
            prop_assert_eq!(Port::new(v).map(Port::value), Some(v));
        }
    }
}
