//! The network-interface abstraction the F-box plugs into.

use crate::addr::Port;
use crate::packet::Header;
use parking_lot::Mutex;
use std::collections::HashSet;

/// A machine's network interface.
///
/// Every packet a machine sends passes through [`egress`], and every
/// packet on the wire is offered to [`accepts`] to decide delivery —
/// *by the network itself*, so user code cannot bypass the interface.
/// This is the enforcement point the paper puts in VLSI: "we assume that
/// somehow or other all messages entering and leaving every processor
/// undergo a simple transformation that users cannot bypass".
///
/// Implementations: [`OpenNic`] (no transformation — the unprotected
/// baseline and the §2.4 software-protection setting) and
/// `amoeba_fbox::FBox` (the hardware solution of §2.2).
///
/// [`egress`]: NetworkInterface::egress
/// [`accepts`]: NetworkInterface::accepts
pub trait NetworkInterface: Send + Sync + std::fmt::Debug {
    /// Registers interest in a port. `port` is what the *process* asked
    /// to GET (a get-port under the F-box model); the return value is
    /// the wire port the interface will actually listen on (`F(G)` for
    /// an F-box, `port` itself for an open interface).
    fn claim(&self, port: Port) -> Port;

    /// Withdraws a previous claim (by the same process-visible port)
    /// and returns the wire port it listened on — what
    /// [`claim`](NetworkInterface::claim) returned for `port`.
    fn release(&self, port: Port) -> Port;

    /// Transforms an outgoing header in place. Called by the network on
    /// every send — unbypassable.
    fn egress(&self, header: &mut Header);

    /// Whether a packet destined to `dest` should be delivered to this
    /// machine. Broadcast packets bypass this check.
    fn accepts(&self, dest: Port) -> bool;

    /// Cumulative one-way-function evaluations this interface has
    /// performed (its real crypto work, memoization hits excluded).
    /// Interfaces with no crypto — like [`OpenNic`] — report zero;
    /// `amoeba_fbox::FBox` reports its F-eval counter. Summed across a
    /// network's machines by [`Network::hot_path`] so benchmarks can
    /// meter crypto cost per operation.
    ///
    /// [`Network::hot_path`]: crate::Network::hot_path
    fn crypto_evals(&self) -> u64 {
        0
    }
}

/// An interface with no protection: claims are literal, egress is the
/// identity.
///
/// This models both the raw network of §2.4 (protection done in
/// software above the network) and the "intruder removed his F-box"
/// scenario used as a negative control in tests.
#[derive(Debug, Default)]
pub struct OpenNic {
    claimed: Mutex<HashSet<Port>>,
}

impl OpenNic {
    /// Creates an interface with no claims.
    pub fn new() -> Self {
        Self::default()
    }
}

impl NetworkInterface for OpenNic {
    fn claim(&self, port: Port) -> Port {
        self.claimed.lock().insert(port);
        port
    }

    fn release(&self, port: Port) -> Port {
        self.claimed.lock().remove(&port);
        port
    }

    fn egress(&self, _header: &mut Header) {}

    fn accepts(&self, dest: Port) -> bool {
        self.claimed.lock().contains(&dest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_nic_claims_literally() {
        let nic = OpenNic::new();
        let p = Port::new(99).unwrap();
        assert!(!nic.accepts(p));
        assert_eq!(nic.claim(p), p);
        assert!(nic.accepts(p));
        nic.release(p);
        assert!(!nic.accepts(p));
    }

    #[test]
    fn open_nic_egress_is_identity() {
        let nic = OpenNic::new();
        let mut h = Header::to(Port::new(1).unwrap())
            .with_reply(Port::new(2).unwrap())
            .with_signature(Port::new(3).unwrap());
        let before = h;
        nic.egress(&mut h);
        assert_eq!(h, before);
    }

    #[test]
    fn release_of_unclaimed_port_is_noop() {
        let nic = OpenNic::new();
        nic.release(Port::new(5).unwrap());
        assert!(!nic.accepts(Port::new(5).unwrap()));
    }
}
