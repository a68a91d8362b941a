//! The (source, destination) key matrix and capability sealing.

use amoeba_cap::Capability;
use amoeba_crypto::des::Des;
use amoeba_crypto::SecretStream;
use amoeba_net::MachineId;
use parking_lot::Mutex;
use std::collections::HashMap;

/// A capability as it travels inside a message under §2.4 protection:
/// the 128-bit DES-CBC ciphertext of the encoded capability.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SealedCap(pub u128);

/// The conceptual matrix `M` of conventional keys.
///
/// This *god view* exists for setup, tests and benchmarks; real machines
/// only ever hold their own row and column ([`MachineKeys`]), which is
/// exactly what the key-establishment protocol of §2.4 gives them.
#[derive(Debug, Default)]
pub struct KeyMatrix {
    keys: HashMap<(MachineId, MachineId), u64>,
}

impl KeyMatrix {
    /// An empty matrix.
    pub fn new() -> KeyMatrix {
        KeyMatrix::default()
    }

    /// Fills the matrix with random keys for every ordered pair of the
    /// given machines.
    pub fn random(machines: &[MachineId], stream: &mut SecretStream) -> KeyMatrix {
        let mut m = KeyMatrix::new();
        for &src in machines {
            for &dst in machines {
                if src != dst {
                    m.keys.insert((src, dst), stream.next_u64());
                }
            }
        }
        m
    }

    /// Sets the key for `src → dst` traffic.
    pub fn set(&mut self, src: MachineId, dst: MachineId, key: u64) {
        self.keys.insert((src, dst), key);
    }

    /// The key for `src → dst` traffic.
    pub fn get(&self, src: MachineId, dst: MachineId) -> Option<u64> {
        self.keys.get(&(src, dst)).copied()
    }

    /// Extracts machine `m`'s view: its row (keys for traffic it sends)
    /// and column (keys for traffic it receives).
    pub fn view_for(&self, m: MachineId) -> MachineKeys {
        let mut row = HashMap::new();
        let mut col = HashMap::new();
        for (&(src, dst), &k) in &self.keys {
            if src == m {
                row.insert(dst, k);
            }
            if dst == m {
                col.insert(src, k);
            }
        }
        MachineKeys { me: m, row, col }
    }
}

/// One machine's knowledge of the matrix: "Each machine is assumed to
/// know the contents of its row and column of the matrix, and nothing
/// else."
#[derive(Debug, Clone)]
pub struct MachineKeys {
    me: MachineId,
    row: HashMap<MachineId, u64>,
    col: HashMap<MachineId, u64>,
}

impl MachineKeys {
    /// A view with no keys yet (filled by key establishment).
    pub fn empty(me: MachineId) -> MachineKeys {
        MachineKeys {
            me,
            row: HashMap::new(),
            col: HashMap::new(),
        }
    }

    /// This machine's address.
    pub fn machine(&self) -> MachineId {
        self.me
    }

    /// Installs the key used for traffic this machine *sends to* `dst`.
    pub fn learn_send_key(&mut self, dst: MachineId, key: u64) {
        self.row.insert(dst, key);
    }

    /// Installs the key used for traffic this machine *receives from*
    /// `src`.
    pub fn learn_recv_key(&mut self, src: MachineId, key: u64) {
        self.col.insert(src, key);
    }

    /// Key for sending to `dst`.
    pub fn send_key(&self, dst: MachineId) -> Option<u64> {
        self.row.get(&dst).copied()
    }

    /// Key for receiving from `src`.
    pub fn recv_key(&self, src: MachineId) -> Option<u64> {
        self.col.get(&src).copied()
    }
}

/// Statistics for the capability caches (experiment E5).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Seal/unseal calls answered from the cache.
    pub hits: u64,
    /// Calls that had to run DES.
    pub misses: u64,
}

/// Seals and unseals capabilities with matrix keys, through the hashed
/// caches of §2.4:
///
/// > "Clients will hash their caches on the unencrypted capabilities in
/// > the form of triples: (unencrypted capability, destination,
/// > encrypted capability), whereas servers will hash theirs in the form
/// > of triples: (encrypted capability, source, unencrypted
/// > capability)."
#[derive(Debug)]
pub struct CapSealer {
    keys: Mutex<MachineKeys>,
    client_cache: Mutex<HashMap<(Capability, MachineId), SealedCap>>,
    server_cache: Mutex<HashMap<(SealedCap, MachineId), Capability>>,
    stats: Mutex<CacheStats>,
}

/// Errors from sealing operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SealError {
    /// No matrix key is known for this peer (run key establishment).
    NoKey,
    /// Decryption produced bytes that are not a valid capability.
    Garbage,
}

impl std::fmt::Display for SealError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SealError::NoKey => write!(f, "no conventional key for this machine pair"),
            SealError::Garbage => write!(f, "decrypted bytes are not a capability"),
        }
    }
}

impl std::error::Error for SealError {}

impl CapSealer {
    /// Wraps a machine's key view.
    pub fn new(keys: MachineKeys) -> CapSealer {
        CapSealer {
            keys: Mutex::new(keys),
            client_cache: Mutex::new(HashMap::new()),
            server_cache: Mutex::new(HashMap::new()),
            stats: Mutex::new(CacheStats::default()),
        }
    }

    /// Installs keys learned later (e.g. from a handshake).
    pub fn keys(&self) -> &Mutex<MachineKeys> {
        &self.keys
    }

    /// Encrypts `cap` for transmission to `dst` (client side).
    ///
    /// # Errors
    /// [`SealError::NoKey`] if no key for `dst` is installed.
    pub fn seal(&self, cap: &Capability, dst: MachineId) -> Result<SealedCap, SealError> {
        if let Some(&sealed) = self.client_cache.lock().get(&(*cap, dst)) {
            self.stats.lock().hits += 1;
            return Ok(sealed);
        }
        let key = self.keys.lock().send_key(dst).ok_or(SealError::NoKey)?;
        let sealed = SealedCap(Des::new(key).encrypt_u128(cap.as_u128()));
        self.client_cache.lock().insert((*cap, dst), sealed);
        self.stats.lock().misses += 1;
        Ok(sealed)
    }

    /// Decrypts a sealed capability received from `src` (server side).
    /// The key is selected by the **unforgeable source address** — this
    /// is the entire defence.
    ///
    /// # Errors
    /// [`SealError::NoKey`] without a key for `src`;
    /// [`SealError::Garbage`] when decryption does not yield a
    /// well-formed capability (e.g. a replay from the wrong machine).
    pub fn unseal(&self, sealed: SealedCap, src: MachineId) -> Result<Capability, SealError> {
        if let Some(&cap) = self.server_cache.lock().get(&(sealed, src)) {
            self.stats.lock().hits += 1;
            return Ok(cap);
        }
        let key = self.keys.lock().recv_key(src).ok_or(SealError::NoKey)?;
        let plain = Des::new(key).decrypt_u128(sealed.0);
        let cap = Capability::from_u128(plain).ok_or(SealError::Garbage)?;
        self.server_cache.lock().insert((sealed, src), cap);
        self.stats.lock().misses += 1;
        Ok(cap)
    }

    /// Cache hit/miss counts so far.
    pub fn cache_stats(&self) -> CacheStats {
        *self.stats.lock()
    }

    /// Empties both caches (e.g. after a key change).
    pub fn flush_caches(&self) {
        self.client_cache.lock().clear();
        self.server_cache.lock().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amoeba_cap::{ObjectNum, Rights};
    use amoeba_net::{Network, Port};

    fn cap(check: u64) -> Capability {
        Capability::new(
            Port::new(0x7777).unwrap(),
            ObjectNum::new(12).unwrap(),
            Rights::READ | Rights::WRITE,
            check,
        )
    }

    fn three_machines() -> (MachineId, MachineId, MachineId, KeyMatrix) {
        let net = Network::new();
        let c = net.attach_open().id();
        let s = net.attach_open().id();
        let i = net.attach_open().id();
        let m = KeyMatrix::random(&[c, s, i], &mut SecretStream::from_seed(99));
        (c, s, i, m)
    }

    #[test]
    fn seal_unseal_roundtrip() {
        let (c, s, _i, m) = three_machines();
        let client = CapSealer::new(m.view_for(c));
        let server = CapSealer::new(m.view_for(s));
        let sealed = client.seal(&cap(42), s).unwrap();
        assert_eq!(server.unseal(sealed, c).unwrap(), cap(42));
    }

    #[test]
    fn replay_from_other_machine_decrypts_to_garbage() {
        // The core §2.4 claim.
        let (c, s, i, m) = three_machines();
        let client = CapSealer::new(m.view_for(c));
        let server = CapSealer::new(m.view_for(s));
        let sealed = client.seal(&cap(42), s).unwrap();
        // Intruder captured `sealed` and replays it; the server sees
        // source = I and uses M[I][S].
        match server.unseal(sealed, i) {
            Err(SealError::Garbage) => {}
            Ok(garbled) => assert_ne!(garbled, cap(42), "must not recover the capability"),
            Err(SealError::NoKey) => panic!("matrix is fully populated"),
        }
    }

    #[test]
    fn view_contains_only_own_row_and_column() {
        let (c, s, i, m) = three_machines();
        let view = m.view_for(c);
        assert!(view.send_key(s).is_some());
        assert!(view.send_key(i).is_some());
        assert!(view.recv_key(s).is_some());
        assert_eq!(view.send_key(c), None, "no self key");
        // C's view must not contain the S→I key.
        assert_eq!(view.send_key(s), m.get(c, s));
        assert_ne!(m.get(s, i), None);
    }

    #[test]
    fn caches_hit_on_repeated_traffic() {
        let (c, s, _i, m) = three_machines();
        let client = CapSealer::new(m.view_for(c));
        let server = CapSealer::new(m.view_for(s));
        let my_cap = cap(7);
        let sealed = client.seal(&my_cap, s).unwrap();
        for _ in 0..9 {
            assert_eq!(client.seal(&my_cap, s).unwrap(), sealed);
        }
        assert_eq!(client.cache_stats(), CacheStats { hits: 9, misses: 1 });
        for _ in 0..10 {
            server.unseal(sealed, c).unwrap();
        }
        assert_eq!(server.cache_stats(), CacheStats { hits: 9, misses: 1 });
    }

    #[test]
    fn flush_forces_recomputation() {
        let (c, s, _i, m) = three_machines();
        let client = CapSealer::new(m.view_for(c));
        client.seal(&cap(1), s).unwrap();
        client.flush_caches();
        client.seal(&cap(1), s).unwrap();
        assert_eq!(client.cache_stats().misses, 2);
    }

    #[test]
    fn missing_key_reported() {
        let (c, s, _i, _m) = three_machines();
        let empty = CapSealer::new(MachineKeys::empty(c));
        assert_eq!(empty.seal(&cap(1), s).unwrap_err(), SealError::NoKey);
        assert_eq!(
            empty.unseal(SealedCap(123), s).unwrap_err(),
            SealError::NoKey
        );
    }

    #[test]
    fn different_destinations_get_different_ciphertexts() {
        let (c, s, i, m) = three_machines();
        let client = CapSealer::new(m.view_for(c));
        let a = client.seal(&cap(1), s).unwrap();
        let b = client.seal(&cap(1), i).unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn learned_keys_enable_sealing() {
        let (c, s, _i, _m) = three_machines();
        let sealer = CapSealer::new(MachineKeys::empty(c));
        sealer.keys().lock().learn_send_key(s, 0xABCD);
        assert!(sealer.seal(&cap(5), s).is_ok());
    }
}
