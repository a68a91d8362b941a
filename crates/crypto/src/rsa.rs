//! Small RSA for the §2.4 key-establishment handshake.
//!
//! When F-boxes are absent, a freshly booted server proves its identity
//! and establishes conventional (DES) keys using "public-key encryption
//! [Diffie and Hellman 1976]": the client encrypts a fresh conventional
//! key with the server's public key; the server replies encrypted with
//! "the inverse of F's public key" — i.e. an RSA signature.
//!
//! This module implements textbook RSA over 64-bit moduli (`u128`
//! arithmetic, 32-bit primes). **That is simulation scale, not a secure
//! key size** — the reproduction needs the protocol *shape* (encrypt to
//! public key, sign with private key), not 2048-bit security; see
//! DESIGN.md §2 for the substitution rationale.
//!
//! # Example
//!
//! ```
//! use amoeba_crypto::rsa::KeyPair;
//! use amoeba_crypto::SecretStream;
//!
//! let kp = KeyPair::generate(&mut SecretStream::from_seed(7));
//! let secret = b"des key material";
//! let ct = kp.public().encrypt_bytes(secret);
//! assert_eq!(kp.decrypt_bytes(&ct).unwrap(), secret);
//! ```

use crate::modmath::{gcd, inv_mod, is_prime, pow_mod};
use crate::secret::SecretStream;

/// The conventional public exponent.
pub const E: u64 = 65537;

/// Errors returned by RSA operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RsaError {
    /// A ciphertext chunk was not smaller than the modulus.
    ChunkOutOfRange,
    /// The ciphertext byte length is not a multiple of the chunk size.
    MalformedCiphertext,
    /// A decrypted chunk exceeded the plaintext chunk range (corrupt or
    /// mismatched key).
    CorruptPlaintext,
}

impl std::fmt::Display for RsaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RsaError::ChunkOutOfRange => write!(f, "ciphertext chunk out of range for modulus"),
            RsaError::MalformedCiphertext => write!(f, "ciphertext length is not a chunk multiple"),
            RsaError::CorruptPlaintext => write!(f, "decrypted chunk out of plaintext range"),
        }
    }
}

impl std::error::Error for RsaError {}

/// An RSA public key `(n, e)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PublicKey {
    n: u64,
    e: u64,
}

/// Plaintext chunks are 4 bytes (so they are always `< n`, since `n` has
/// at least 62 bits); ciphertext chunks are 8 bytes.
const PLAIN_CHUNK: usize = 4;
const CIPHER_CHUNK: usize = 8;

impl PublicKey {
    /// Reconstructs a public key from its modulus, using the standard
    /// exponent [`E`] (how announcements carry keys on the wire).
    pub fn from_parts(n: u64) -> PublicKey {
        PublicKey { n, e: E }
    }

    /// The modulus.
    pub fn modulus(&self) -> u64 {
        self.n
    }

    /// Encrypts a single value `m < n`.
    pub fn encrypt_value(&self, m: u64) -> Result<u64, RsaError> {
        if m >= self.n {
            return Err(RsaError::ChunkOutOfRange);
        }
        Ok(pow_mod(m, self.e, self.n))
    }

    /// Encrypts arbitrary bytes, 4 plaintext bytes per 8-byte ciphertext
    /// chunk. A length prefix chunk preserves exact length.
    pub fn encrypt_bytes(&self, data: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity((data.len() / PLAIN_CHUNK + 2) * CIPHER_CHUNK);
        // Prefix: the data length, encrypted like any other chunk.
        let chunks: Vec<u64> = std::iter::once(data.len() as u64)
            .chain(data.chunks(PLAIN_CHUNK).map(|c| {
                let mut buf = [0u8; PLAIN_CHUNK];
                buf[..c.len()].copy_from_slice(c);
                u32::from_be_bytes(buf) as u64
            }))
            .collect();
        for m in chunks {
            // length prefix may exceed u32 range only for absurd inputs;
            // data length is bounded well below n.
            let c = pow_mod(m, self.e, self.n);
            out.extend_from_slice(&c.to_be_bytes());
        }
        out
    }

    /// Verifies a signature: recovers `sig^e mod n` and compares with the
    /// (48-bit-truncated) SHA-256 digest of `data`.
    pub fn verify(&self, data: &[u8], signature: u64) -> bool {
        let digest = crate::sha256::Sha256::digest_u64(data) % self.n;
        pow_mod(signature % self.n, self.e, self.n) == digest
    }
}

/// An RSA key pair.
#[derive(Debug, Clone)]
pub struct KeyPair {
    public: PublicKey,
    d: u64,
}

impl KeyPair {
    /// Generates a key pair from two random 32-bit primes.
    pub fn generate(stream: &mut SecretStream) -> Self {
        loop {
            let p = random_prime_32(stream);
            let q = random_prime_32(stream);
            if p == q {
                continue;
            }
            let n = p * q; // both < 2^32, so n < 2^64, no overflow
            let phi = (p - 1) * (q - 1);
            if gcd(E, phi) != 1 {
                continue;
            }
            let d = inv_mod(E, phi).expect("e invertible since gcd checked");
            return KeyPair {
                public: PublicKey { n, e: E },
                d,
            };
        }
    }

    /// The public half, safe to publish.
    pub fn public(&self) -> PublicKey {
        self.public
    }

    /// Decrypts a single value.
    pub fn decrypt_value(&self, c: u64) -> Result<u64, RsaError> {
        if c >= self.public.n {
            return Err(RsaError::ChunkOutOfRange);
        }
        Ok(pow_mod(c, self.d, self.public.n))
    }

    /// Inverse of [`PublicKey::encrypt_bytes`].
    ///
    /// # Errors
    /// Returns an error if the ciphertext is malformed or was produced
    /// under a different key.
    pub fn decrypt_bytes(&self, ciphertext: &[u8]) -> Result<Vec<u8>, RsaError> {
        if !ciphertext.len().is_multiple_of(CIPHER_CHUNK) || ciphertext.is_empty() {
            return Err(RsaError::MalformedCiphertext);
        }
        let mut chunks = ciphertext.chunks(CIPHER_CHUNK).map(|c| {
            let v = u64::from_be_bytes(c.try_into().expect("8-byte chunk"));
            self.decrypt_value(v)
        });
        let len = chunks.next().expect("nonempty")? as usize;
        // The length prefix is attacker-influenced (wrong key => garbage):
        // bound it by what the remaining chunks can actually carry before
        // allocating anything.
        let max_len = (ciphertext.len() / CIPHER_CHUNK - 1) * PLAIN_CHUNK;
        if len > max_len {
            return Err(RsaError::CorruptPlaintext);
        }
        let mut out = Vec::with_capacity(len);
        for chunk in chunks {
            let m = chunk?;
            if m > u32::MAX as u64 {
                return Err(RsaError::CorruptPlaintext);
            }
            out.extend_from_slice(&(m as u32).to_be_bytes());
        }
        if len > out.len() {
            return Err(RsaError::CorruptPlaintext);
        }
        out.truncate(len);
        Ok(out)
    }

    /// Signs `data`: `SHA256(data)^d mod n` (truncated digest).
    pub fn sign(&self, data: &[u8]) -> u64 {
        let digest = crate::sha256::Sha256::digest_u64(data) % self.public.n;
        pow_mod(digest, self.d, self.public.n)
    }
}

fn random_prime_32(stream: &mut SecretStream) -> u64 {
    loop {
        // Force the top and bottom bits: full 32-bit size and odd.
        let candidate = (stream.next_u64() as u32 | 0x8000_0001) as u64;
        if is_prime(candidate) {
            return candidate;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn keypair(seed: u64) -> KeyPair {
        KeyPair::generate(&mut SecretStream::from_seed(seed))
    }

    #[test]
    fn value_roundtrip() {
        let kp = keypair(1);
        for m in [0u64, 1, 42, 0xFFFF_FFFF] {
            let c = kp.public().encrypt_value(m).unwrap();
            assert_eq!(kp.decrypt_value(c).unwrap(), m);
        }
    }

    #[test]
    fn value_out_of_range_rejected() {
        let kp = keypair(2);
        assert_eq!(
            kp.public().encrypt_value(u64::MAX),
            Err(RsaError::ChunkOutOfRange)
        );
    }

    #[test]
    fn bytes_roundtrip_various_lengths() {
        let kp = keypair(3);
        for len in [0usize, 1, 3, 4, 5, 8, 16, 17, 100] {
            let data: Vec<u8> = (0..len as u8).collect();
            let ct = kp.public().encrypt_bytes(&data);
            assert_eq!(kp.decrypt_bytes(&ct).unwrap(), data, "len {len}");
        }
    }

    #[test]
    fn malformed_ciphertext_rejected() {
        let kp = keypair(4);
        assert_eq!(kp.decrypt_bytes(&[]), Err(RsaError::MalformedCiphertext));
        assert_eq!(
            kp.decrypt_bytes(&[1, 2, 3]),
            Err(RsaError::MalformedCiphertext)
        );
    }

    #[test]
    fn wrong_key_fails_cleanly() {
        let kp1 = keypair(5);
        let kp2 = keypair(6);
        let ct = kp1.public().encrypt_bytes(b"attack at dawn, in guilders");
        // Decrypting with the wrong key must error or produce different
        // bytes; it must never panic.
        if let Ok(got) = kp2.decrypt_bytes(&ct) {
            assert_ne!(got, b"attack at dawn, in guilders")
        }
    }

    #[test]
    fn signature_verifies_and_tampering_detected() {
        let kp = keypair(7);
        let sig = kp.sign(b"i am the file server");
        assert!(kp.public().verify(b"i am the file server", sig));
        assert!(!kp.public().verify(b"i am an impostor", sig));
        assert!(!kp.public().verify(b"i am the file server", sig ^ 1));
    }

    #[test]
    fn signature_from_other_key_rejected() {
        let kp1 = keypair(8);
        let kp2 = keypair(9);
        let sig = kp2.sign(b"hello");
        assert!(!kp1.public().verify(b"hello", sig));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn roundtrip_random_data(seed: u64, data in proptest::collection::vec(any::<u8>(), 0..64)) {
            let kp = keypair(seed);
            let ct = kp.public().encrypt_bytes(&data);
            prop_assert_eq!(kp.decrypt_bytes(&ct).unwrap(), data);
        }

        #[test]
        fn sign_verify_random(seed: u64, data in proptest::collection::vec(any::<u8>(), 0..64)) {
            let kp = keypair(seed);
            prop_assert!(kp.public().verify(&data, kp.sign(&data)));
        }
    }
}
