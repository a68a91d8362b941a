//! Link-level encryption — the third §2.4 alternative.
//!
//! "Yet another possibility for protecting capabilities in the absence
//! of F-boxes is to use conventional link-level encryption on all the
//! data communication lines."
//!
//! [`SecureLink`] wraps an [`Endpoint`] and encrypts every payload in
//! CBC mode under the matrix key for (me, peer) / (peer, me). Unlike
//! the capability-sealing approach (which protects only the 16
//! capability bytes), the *entire message body* is ciphertext on the
//! wire — the trade-off is running the cipher over all data, which is
//! exactly why the paper presents sealing-plus-caching first.

use crate::matrix::MachineKeys;
use amoeba_crypto::des::Des;
use amoeba_net::{Endpoint, Header, MachineId, Packet, RecvError};
use bytes::Bytes;
use parking_lot::Mutex;

/// An endpoint whose payloads are link-encrypted per machine pair.
#[derive(Debug)]
pub struct SecureLink {
    endpoint: Endpoint,
    keys: Mutex<MachineKeys>,
}

/// Errors from secure-link receives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkError {
    /// Transport failure.
    Recv(RecvError),
    /// No key installed for the peer that sent this packet.
    NoKey(MachineId),
    /// Decryption failed — corrupt, forged, or wrong-epoch traffic.
    Garbled(MachineId),
}

impl std::fmt::Display for LinkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinkError::Recv(e) => write!(f, "transport: {e}"),
            LinkError::NoKey(m) => write!(f, "no link key for {m}"),
            LinkError::Garbled(m) => write!(f, "undecryptable frame from {m}"),
        }
    }
}

impl std::error::Error for LinkError {}

impl SecureLink {
    /// Wraps an endpoint with a key view (typically populated by the
    /// key-establishment handshake).
    pub fn new(endpoint: Endpoint, keys: MachineKeys) -> SecureLink {
        SecureLink {
            endpoint,
            keys: Mutex::new(keys),
        }
    }

    /// The wrapped endpoint (for claims and address queries).
    pub fn endpoint(&self) -> &Endpoint {
        &self.endpoint
    }

    /// The key view, for installing keys learned later.
    pub fn keys(&self) -> &Mutex<MachineKeys> {
        &self.keys
    }

    /// Sends `payload` encrypted for `peer`. The header still travels in
    /// the clear — links encrypt data, ports route it.
    ///
    /// Returns `false` if no key for `peer` is installed (nothing sent:
    /// plaintext must never escape as a fallback).
    pub fn send_to(&self, peer: MachineId, header: Header, payload: &[u8]) -> bool {
        let Some(key) = self.keys.lock().send_key(peer) else {
            return false;
        };
        let iv = amoeba_crypto::secret_u64();
        let ct = Des::new(key).encrypt_cbc(payload, iv);
        self.endpoint.send(header, Bytes::from(ct));
        true
    }

    /// Receives and decrypts the next packet, keyed by its (unforgeable)
    /// source address.
    ///
    /// # Errors
    /// [`LinkError::NoKey`] for traffic from unknown peers,
    /// [`LinkError::Garbled`] when decryption fails.
    pub fn recv(&self) -> Result<(Packet, Vec<u8>), LinkError> {
        let pkt = self.endpoint.recv().map_err(LinkError::Recv)?;
        let key = self
            .keys
            .lock()
            .recv_key(pkt.source)
            .ok_or(LinkError::NoKey(pkt.source))?;
        let plain = Des::new(key)
            .decrypt_cbc(&pkt.payload)
            .ok_or(LinkError::Garbled(pkt.source))?;
        Ok((pkt, plain))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::KeyMatrix;
    use amoeba_crypto::SecretStream;
    use amoeba_net::{Network, Port};

    fn linked_pair() -> (Network, SecureLink, SecureLink) {
        let net = Network::new();
        let a = net.attach_open();
        let b = net.attach_open();
        let matrix = KeyMatrix::random(&[a.id(), b.id()], &mut SecretStream::from_seed(5));
        let ka = matrix.view_for(a.id());
        let kb = matrix.view_for(b.id());
        (net.clone(), SecureLink::new(a, ka), SecureLink::new(b, kb))
    }

    #[test]
    fn roundtrip_over_the_wire() {
        let (_net, a, b) = linked_pair();
        let port = Port::new(0x11).unwrap();
        b.endpoint().claim(port);
        assert!(a.send_to(b.endpoint().id(), Header::to(port), b"top secret payload"));
        let (pkt, plain) = b.recv().unwrap();
        assert_eq!(pkt.source, a.endpoint().id());
        assert_eq!(plain, b"top secret payload");
    }

    #[test]
    fn wiretap_sees_only_ciphertext() {
        let (net, a, b) = linked_pair();
        let wire = net.tap();
        let port = Port::new(0x12).unwrap();
        b.endpoint().claim(port);
        a.send_to(b.endpoint().id(), Header::to(port), b"cleartext never");
        let frame = wire.recv().unwrap();
        assert!(!frame.payload.windows(15).any(|w| w == b"cleartext never"));
        let _ = b.recv().unwrap();
    }

    #[test]
    fn missing_key_blocks_transmission() {
        let net = Network::new();
        let a = net.attach_open();
        let stranger = net.attach_open();
        let link = SecureLink::new(a, MachineKeys::empty(net.attach_open().id()));
        assert!(!link.send_to(stranger.id(), Header::to(Port::new(9).unwrap()), b"x"));
    }

    #[test]
    fn traffic_from_unknown_peer_rejected() {
        let (net, a, _b) = linked_pair();
        let stranger = net.attach_open();
        let port = Port::new(0x13).unwrap();
        a.endpoint().claim(port);
        stranger.send(Header::to(port), Bytes::from_static(b"who am I"));
        assert_eq!(a.recv().unwrap_err(), LinkError::NoKey(stranger.id()));
    }

    #[test]
    fn same_plaintext_twice_differs_on_the_wire() {
        // Random IVs: an observer cannot even tell repeated messages.
        let (net, a, b) = linked_pair();
        let wire = net.tap();
        let port = Port::new(0x14).unwrap();
        b.endpoint().claim(port);
        a.send_to(b.endpoint().id(), Header::to(port), b"repeat");
        a.send_to(b.endpoint().id(), Header::to(port), b"repeat");
        let f1 = wire.recv().unwrap();
        let f2 = wire.recv().unwrap();
        assert_ne!(f1.payload, f2.payload);
        assert_eq!(b.recv().unwrap().1, b"repeat");
        assert_eq!(b.recv().unwrap().1, b"repeat");
    }
}
