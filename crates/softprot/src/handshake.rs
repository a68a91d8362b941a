//! The §2.4 key-establishment protocol.
//!
//! > "A public server, such as a file server, makes its put-port and a
//! > public encryption key known to the whole world. When a new machine
//! > joins the network (e.g., after a crash or upon initial system
//! > boot), it sends a broadcast message announcing its presence. ...
//! > A client machine, C, ... picks a new conventional encryption key,
//! > K, for use in subsequent C to F traffic and sends it to F encrypted
//! > with F's public key. F then decrypts K and replies to C by sending
//! > a message containing both K and a newly chosen conventional key to
//! > be used for reverse traffic. This message is encrypted both with K
//! > itself and with the inverse of F's public key [i.e. signed] ...
//! > Note that the use of different conventional keys after each reboot
//! > make it impossible for an intruder to fool anyone by playing back
//! > old messages."
//!
//! Message flow (`tests/key_establishment.rs` runs it over the real
//! simulated network):
//!
//! ```text
//! F → *   ANNOUNCE(port_F, pub_F)                  (broadcast)
//! C → F   KEYREQ(RSA_pub_F(K))
//! F → C   KEYREP(DES_K(K ‖ K′), sign_priv_F(ct))
//! ```
//!
//! C accepts iff the signature verifies under `pub_F` *and* the
//! decrypted message echoes `K` — proving the responder owns `priv_F`
//! and saw this boot's `K`, which authenticates the server and kills
//! replays.

use amoeba_crypto::des::Des;
use amoeba_crypto::rsa::{KeyPair, PublicKey};
use amoeba_crypto::SecretStream;
use amoeba_net::Port;

/// A server's broadcast announcement: its put-port and public key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Announcement {
    /// Where to send key requests (the server's put-port).
    pub port: Port,
    /// RSA modulus of the server's public key.
    pub modulus: u64,
}

impl Announcement {
    /// Serialises to 16 bytes: port ‖ modulus.
    pub fn encode(&self) -> [u8; 16] {
        let mut out = [0u8; 16];
        out[..8].copy_from_slice(&self.port.value().to_be_bytes());
        out[8..].copy_from_slice(&self.modulus.to_be_bytes());
        out
    }

    /// Parses 16 announcement bytes.
    pub fn decode(data: &[u8]) -> Option<Announcement> {
        if data.len() != 16 {
            return None;
        }
        let port = Port::new(u64::from_be_bytes(data[..8].try_into().ok()?))?;
        let modulus = u64::from_be_bytes(data[8..].try_into().ok()?);
        Some(Announcement { port, modulus })
    }

    /// Reconstructs the public key (the exponent is the fixed
    /// [`amoeba_crypto::rsa::E`]).
    pub fn public_key(&self) -> PublicKey {
        PublicKey::from_parts(self.modulus)
    }
}

/// Why a handshake failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HandshakeError {
    /// A message was structurally malformed.
    Malformed,
    /// The reply's signature did not verify under the announced key —
    /// whoever answered does not own the server's private key.
    BadSignature,
    /// The decrypted reply did not echo our fresh key `K` — a replay of
    /// an earlier boot's reply, or an impostor.
    StaleOrForgedReply,
}

impl std::fmt::Display for HandshakeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HandshakeError::Malformed => write!(f, "malformed handshake message"),
            HandshakeError::BadSignature => write!(f, "reply signature does not verify"),
            HandshakeError::StaleOrForgedReply => {
                write!(f, "reply does not echo this boot's fresh key")
            }
        }
    }
}

impl std::error::Error for HandshakeError {}

/// Server-side state for one boot epoch.
#[derive(Debug)]
pub struct ServerBoot {
    keypair: KeyPair,
    port: Port,
}

impl ServerBoot {
    /// Starts a boot epoch: generates this boot's key pair.
    pub fn new(port: Port, stream: &mut SecretStream) -> ServerBoot {
        ServerBoot {
            keypair: KeyPair::generate(stream),
            port,
        }
    }

    /// The announcement to broadcast.
    pub fn announcement(&self) -> Announcement {
        Announcement {
            port: self.port,
            modulus: self.keypair.public().modulus(),
        }
    }

    /// Handles a KEYREQ: decrypts the client's fresh key `K`, picks the
    /// reverse key `K′`, and produces the encrypted+signed KEYREP.
    ///
    /// Returns `(keyrep_bytes, k_client_to_server, k_server_to_client)`
    /// — the two conventional keys to install in the server's matrix
    /// view.
    ///
    /// # Errors
    /// [`HandshakeError::Malformed`] if the request does not decrypt to
    /// an 8-byte key.
    pub fn handle_keyreq(
        &self,
        keyreq: &[u8],
        stream: &mut SecretStream,
    ) -> Result<(Vec<u8>, u64, u64), HandshakeError> {
        let k_bytes = self
            .keypair
            .decrypt_bytes(keyreq)
            .map_err(|_| HandshakeError::Malformed)?;
        let k: u64 = u64::from_be_bytes(
            k_bytes
                .as_slice()
                .try_into()
                .map_err(|_| HandshakeError::Malformed)?,
        );
        let k_reverse = stream.next_u64();
        // Plaintext: K ‖ K′, encrypted under K itself…
        let plain = ((k as u128) << 64) | k_reverse as u128;
        let ct = Des::new(k).encrypt_u128(plain);
        // …and "encrypted with the inverse of F's public key": signed.
        let ct_bytes = ct.to_be_bytes();
        let sig = self.keypair.sign(&ct_bytes);
        let mut reply = Vec::with_capacity(24);
        reply.extend_from_slice(&ct_bytes);
        reply.extend_from_slice(&sig.to_be_bytes());
        Ok((reply, k, k_reverse))
    }
}

/// Client-side state for one handshake attempt.
#[derive(Debug)]
pub struct ClientSession {
    announcement: Announcement,
    k: u64,
}

impl ClientSession {
    /// Starts a handshake against an announced server: picks the fresh
    /// conventional key `K` and builds the KEYREQ.
    pub fn start(
        announcement: Announcement,
        stream: &mut SecretStream,
    ) -> (ClientSession, Vec<u8>) {
        let k = stream.next_u64();
        let keyreq = announcement.public_key().encrypt_bytes(&k.to_be_bytes());
        (ClientSession { announcement, k }, keyreq)
    }

    /// The fresh client→server key `K` (to install once the reply
    /// verifies).
    pub fn client_key(&self) -> u64 {
        self.k
    }

    /// Verifies a KEYREP. On success returns `K′`, the server→client
    /// key, and the server is authenticated.
    ///
    /// # Errors
    /// [`HandshakeError::BadSignature`] or
    /// [`HandshakeError::StaleOrForgedReply`] exactly as §2.4 requires.
    pub fn finish(&self, keyrep: &[u8]) -> Result<u64, HandshakeError> {
        if keyrep.len() != 24 {
            return Err(HandshakeError::Malformed);
        }
        let ct_bytes: [u8; 16] = keyrep[..16].try_into().expect("length checked");
        let sig = u64::from_be_bytes(keyrep[16..24].try_into().expect("length checked"));
        if !self.announcement.public_key().verify(&ct_bytes, sig) {
            return Err(HandshakeError::BadSignature);
        }
        let plain = Des::new(self.k).decrypt_u128(u128::from_be_bytes(ct_bytes));
        let echoed_k = (plain >> 64) as u64;
        if echoed_k != self.k {
            return Err(HandshakeError::StaleOrForgedReply);
        }
        Ok(plain as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng(seed: u64) -> SecretStream {
        SecretStream::from_seed(seed)
    }

    fn port() -> Port {
        Port::new(0xF11E_5E17E1).unwrap()
    }

    #[test]
    fn announcement_roundtrip() {
        let boot = ServerBoot::new(port(), &mut rng(1));
        let ann = boot.announcement();
        assert_eq!(Announcement::decode(&ann.encode()), Some(ann));
        assert_eq!(Announcement::decode(&[0u8; 15]), None);
    }

    #[test]
    fn successful_handshake_agrees_on_both_keys() {
        let boot = ServerBoot::new(port(), &mut rng(2));
        let (session, keyreq) = ClientSession::start(boot.announcement(), &mut rng(3));
        let (keyrep, k_cs, k_sc) = boot.handle_keyreq(&keyreq, &mut rng(4)).unwrap();
        let k_reverse = session.finish(&keyrep).unwrap();
        assert_eq!(k_cs, session.client_key());
        assert_eq!(k_sc, k_reverse);
    }

    #[test]
    fn impostor_without_private_key_is_rejected() {
        let real = ServerBoot::new(port(), &mut rng(5));
        // The impostor announces the real server's public key (publicly
        // known) but holds a different private key.
        let impostor = ServerBoot::new(port(), &mut rng(6));
        let (session, keyreq) = ClientSession::start(real.announcement(), &mut rng(7));
        // The impostor cannot even decrypt K; but suppose it answers
        // anyway with its own signature.
        let forged = impostor
            .handle_keyreq(&keyreq, &mut rng(8))
            .map(|(reply, _, _)| reply);
        match forged {
            Ok(reply) => {
                assert!(matches!(
                    session.finish(&reply).unwrap_err(),
                    HandshakeError::BadSignature | HandshakeError::StaleOrForgedReply
                ));
            }
            Err(_) => { /* could not decrypt K at all — also a pass */ }
        }
    }

    #[test]
    fn replayed_reply_from_previous_boot_is_rejected() {
        // Boot 1: a full handshake is captured.
        let boot1 = ServerBoot::new(port(), &mut rng(9));
        let (s1, keyreq1) = ClientSession::start(boot1.announcement(), &mut rng(10));
        let (old_reply, _, _) = boot1.handle_keyreq(&keyreq1, &mut rng(11)).unwrap();
        let _ = s1.finish(&old_reply).unwrap();

        // Boot 2 (fresh keys): the intruder replays boot 1's reply.
        let boot2 = ServerBoot::new(port(), &mut rng(12));
        let (s2, _keyreq2) = ClientSession::start(boot2.announcement(), &mut rng(13));
        assert!(matches!(
            s2.finish(&old_reply).unwrap_err(),
            HandshakeError::BadSignature | HandshakeError::StaleOrForgedReply
        ));
    }

    #[test]
    fn tampered_reply_detected() {
        let boot = ServerBoot::new(port(), &mut rng(14));
        let (session, keyreq) = ClientSession::start(boot.announcement(), &mut rng(15));
        let (mut keyrep, _, _) = boot.handle_keyreq(&keyreq, &mut rng(16)).unwrap();
        keyrep[3] ^= 1;
        assert!(session.finish(&keyrep).is_err());
    }

    #[test]
    fn malformed_messages_rejected() {
        let boot = ServerBoot::new(port(), &mut rng(17));
        assert_eq!(
            boot.handle_keyreq(&[1, 2, 3], &mut rng(18)).unwrap_err(),
            HandshakeError::Malformed
        );
        let (session, _keyreq) = ClientSession::start(boot.announcement(), &mut rng(19));
        assert_eq!(
            session.finish(&[0u8; 10]).unwrap_err(),
            HandshakeError::Malformed
        );
    }

    #[test]
    fn fresh_keys_differ_across_boots() {
        let boot1 = ServerBoot::new(port(), &mut rng(20));
        let boot2 = ServerBoot::new(port(), &mut rng(21));
        assert_ne!(
            boot1.announcement().modulus,
            boot2.announcement().modulus,
            "per-boot key pairs must be fresh"
        );
    }
}
