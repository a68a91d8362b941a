//! The one source of secrets: every check field, object secret, port
//! and session key is drawn from a [`SecretStream`], SHA-256 in counter
//! mode. Block `i` is `SHA-256(key ‖ stream id ‖ i)`: one compression
//! of a 48-byte input, yielding four 64-bit words. Predicting a word
//! from the others means inverting SHA-256 — the paper's "pick a random
//! number" (§2.3), which a statistical generator never promised.
//!
//! Statistics draws (faults, workloads, transaction ids) use
//! `amoeba_net::splitmix64` instead. Secret draws are not one-way
//! evaluations, so [`oneway::stats`](crate::oneway::stats) ignores them.

use crate::sha256::Sha256;
use std::cell::RefCell;
use std::io::Read;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// An unpredictable stream of 64-bit words (SHA-256 in counter mode).
/// Deliberately neither `Debug` nor `Clone`: nothing should print its
/// key, and a copy would repeat every secret the original draws next.
///
/// ```
/// use amoeba_crypto::SecretStream;
///
/// let (mut a, mut b) = (SecretStream::from_seed(7), SecretStream::from_seed(7));
/// assert_eq!(a.next_u64(), b.next_u64());
/// assert!(a.below(10) < 10);
/// ```
pub struct SecretStream {
    key: [u8; 32],
    id: u64,
    counter: u64,
    block: [u64; 4],
    used: usize,
}

impl SecretStream {
    /// A fresh stream under the process root key (read once from
    /// `/dev/urandom`), with a stream id no other stream in the process
    /// shares. Costs no hash and no system call after the first.
    ///
    /// # Panics
    /// Panics if `/dev/urandom` cannot be read: there is no weaker
    /// fallback, because a guessable secret is a forgeable capability.
    pub fn from_entropy() -> SecretStream {
        static NEXT_ID: AtomicU64 = AtomicU64::new(0);
        SecretStream::new(*root_key(), NEXT_ID.fetch_add(1, Ordering::Relaxed))
    }

    /// A deterministic stream keyed by `seed` (the seed's big-endian
    /// bytes, zero-padded). **Simulation and tests only**: anyone who
    /// knows the seed knows every word.
    pub fn from_seed(seed: u64) -> SecretStream {
        let mut key = [0u8; 32];
        key[..8].copy_from_slice(&seed.to_be_bytes());
        SecretStream::new(key, 0)
    }

    fn new(key: [u8; 32], id: u64) -> SecretStream {
        SecretStream {
            key,
            id,
            counter: 0,
            block: [0; 4],
            used: 4,
        }
    }

    /// The next word of the stream.
    pub fn next_u64(&mut self) -> u64 {
        if self.used == self.block.len() {
            self.refill();
        }
        let word = self.block[self.used];
        self.used += 1;
        word
    }

    /// A uniform value in `[0, n)`, by rejection: draws from the top
    /// partial copy of `[0, n)` are discarded, so no residue is favoured.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0) has no value to draw");
        let limit = u64::MAX - u64::MAX % n;
        loop {
            let v = self.next_u64();
            if v < limit {
                return v % n;
            }
        }
    }

    fn refill(&mut self) {
        let mut input = [0u8; 48];
        input[..32].copy_from_slice(&self.key);
        input[32..40].copy_from_slice(&self.id.to_be_bytes());
        input[40..].copy_from_slice(&self.counter.to_be_bytes());
        let digest = Sha256::digest(&input);
        for (word, bytes) in self.block.iter_mut().zip(digest.chunks_exact(8)) {
            *word = u64::from_be_bytes(bytes.try_into().expect("8-byte chunk"));
        }
        self.counter += 1;
        self.used = 0;
    }
}

/// The process root key, read from the operating system once.
fn root_key() -> &'static [u8; 32] {
    static ROOT: OnceLock<[u8; 32]> = OnceLock::new();
    ROOT.get_or_init(|| {
        let mut key = [0u8; 32];
        std::fs::File::open("/dev/urandom")
            .and_then(|mut f| f.read_exact(&mut key))
            .unwrap_or_else(|e| panic!("cannot read /dev/urandom for the secret root key: {e}"));
        key
    })
}

thread_local! {
    static THREAD_STREAM: RefCell<SecretStream> = RefCell::new(SecretStream::from_entropy());
}

/// One secret word from this thread's own [`SecretStream`], for callers
/// that hold no stream (ports, client salts).
pub fn secret_u64() -> u64 {
    THREAD_STREAM.with(|s| s.borrow_mut().next_u64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_seeded_stream_is_sha256_of_key_id_and_counter() {
        let seed = 0x0123_4567_89AB_CDEF_u64;
        let mut input = [0u8; 48];
        input[..8].copy_from_slice(&seed.to_be_bytes());
        let digest = Sha256::digest(&input);
        let mut s = SecretStream::from_seed(seed);
        for (i, chunk) in digest.chunks_exact(8).enumerate() {
            let expected = u64::from_be_bytes(chunk.try_into().unwrap());
            assert_eq!(s.next_u64(), expected, "word {i}");
        }
        // The fifth word opens block 1.
        input[47] = 1;
        let next = Sha256::digest(&input);
        assert_eq!(
            s.next_u64(),
            u64::from_be_bytes(next[..8].try_into().unwrap())
        );
    }

    #[test]
    fn entropy_streams_differ() {
        let mut a = SecretStream::from_entropy();
        let mut b = SecretStream::from_entropy();
        assert_ne!(a.id, b.id);
        assert_ne!((a.next_u64(), a.next_u64()), (b.next_u64(), b.next_u64()));
        assert_ne!(secret_u64(), secret_u64());
    }

    #[test]
    fn below_stays_in_range() {
        let mut s = SecretStream::from_seed(1);
        for n in [1u64, 2, 3, 7, 1000, (1 << 48) - 61, u64::MAX] {
            for _ in 0..200 {
                assert!(s.below(n) < n, "n = {n}");
            }
        }
        assert_eq!(s.below(1), 0);
    }

    #[test]
    #[should_panic(expected = "below(0)")]
    fn below_zero_panics() {
        SecretStream::from_seed(1).below(0);
    }
}
