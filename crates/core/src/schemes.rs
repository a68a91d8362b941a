//! The four rights-protection algorithms of §2.3.
//!
//! Every scheme answers the same three questions — how to **mint** a
//! capability for a fresh object, how to **validate** an incoming one,
//! and how rights get **restricted** for delegation — behind the
//! [`ProtectionScheme`] trait, so servers, benchmarks and tests can
//! treat them interchangeably.
//!
//! * [`SimpleScheme`] (scheme 0): the check field is the object's random
//!   number; all-or-nothing, no per-operation rights.
//! * [`EncryptedScheme`] (scheme 1): the 56-bit `RIGHTS‖RANDOM` field is
//!   a ciphertext under a per-object key; a known constant in the RANDOM
//!   part authenticates the rights.
//! * [`OneWayScheme`] (scheme 2): `CHECK = F(random XOR rights)` with the
//!   rights in plaintext.
//! * [`CommutativeScheme`] (scheme 3): the flagship — commutative one-way
//!   functions let the *client* delete rights with no server round trip.

use crate::capability::{Capability, ObjectNum, CHECK_MASK};
use crate::error::CapError;
use crate::rights::Rights;
use amoeba_crypto::commutative::CommutativeOwfFamily;
use amoeba_crypto::feistel::{Block56, Cipher56, Feistel56, XorCipher};
use amoeba_crypto::oneway::{OneWay, ShaOneWay};
use amoeba_crypto::SecretStream;
use amoeba_net::Port;
use std::fmt;

/// The per-object secret a server stores in its object table: "the
/// server would then pick a random number, store this number in its
/// object table".
///
/// Its interpretation is scheme-specific (comparison value, cipher key,
/// OWF input). Replacing it is revocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObjectSecret {
    value: u64,
}

impl ObjectSecret {
    /// Wraps a raw secret value. Prefer
    /// [`ProtectionScheme::new_secret`], which respects per-scheme value
    /// constraints.
    pub fn from_value(value: u64) -> ObjectSecret {
        ObjectSecret { value }
    }

    /// The raw value — for the object table that owns it, not for
    /// clients.
    pub fn value(&self) -> u64 {
        self.value
    }
}

/// A rights-protection algorithm.
///
/// Object safety: servers hold `Box<dyn ProtectionScheme>` so the scheme
/// is a deployment choice, not a type parameter of every server.
pub trait ProtectionScheme: fmt::Debug + Send + Sync {
    /// A short stable name (used in benchmark output).
    fn name(&self) -> &'static str;

    /// Draws a fresh per-object secret with this scheme's constraints.
    fn new_secret(&self, stream: &mut SecretStream) -> ObjectSecret;

    /// Mints the initial all-rights capability for a new object.
    fn mint(&self, port: Port, object: ObjectNum, secret: &ObjectSecret) -> Capability;

    /// Checks an incoming capability against the object's secret.
    ///
    /// # Errors
    /// [`CapError::Forged`] if the check field does not validate —
    /// forged, tampered with, or minted under a revoked secret.
    fn validate(&self, cap: &Capability, secret: &ObjectSecret) -> Result<Rights, CapError>;

    /// Server-side restriction: fabricate a new capability carrying
    /// exactly `keep` (§2.3: "send the capability back to the server
    /// along with a bit mask and a request to fabricate a new capability
    /// with fewer rights").
    ///
    /// # Errors
    /// [`CapError::Forged`] if `cap` is invalid;
    /// [`CapError::RightsExceeded`] if `keep` is not a subset of the
    /// validated rights; [`CapError::NotSupported`] for schemes without
    /// per-operation rights.
    fn restrict(
        &self,
        cap: &Capability,
        keep: Rights,
        secret: &ObjectSecret,
    ) -> Result<Capability, CapError>;

    /// Client-side rights deletion **without contacting the server** —
    /// scheme 3's distinguishing feature.
    ///
    /// # Errors
    /// [`CapError::NotSupported`] unless
    /// [`supports_diminish`](Self::supports_diminish).
    fn diminish(&self, _cap: &Capability, _drop: Rights) -> Result<Capability, CapError> {
        Err(CapError::NotSupported)
    }

    /// Whether [`diminish`](Self::diminish) works.
    fn supports_diminish(&self) -> bool {
        false
    }
}

fn random_check(stream: &mut SecretStream) -> u64 {
    loop {
        let v = stream.next_u64() & CHECK_MASK;
        // 0 would collide with scheme 1's known constant and is a fixed
        // point of the commutative functions; skip it for all schemes.
        if v != 0 {
            return v;
        }
    }
}

// ---------------------------------------------------------------------
// Scheme 0
// ---------------------------------------------------------------------

/// Scheme 0: "the server merely compares the random number in the file
/// table ... to the one contained in the capability. If they agree, the
/// capability is assumed to be genuine, and **all** operations on the
/// file are allowed."
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimpleScheme;

impl SimpleScheme {
    /// Creates the scheme.
    pub fn new() -> Self {
        SimpleScheme
    }
}

impl ProtectionScheme for SimpleScheme {
    fn name(&self) -> &'static str {
        "simple"
    }

    fn new_secret(&self, stream: &mut SecretStream) -> ObjectSecret {
        ObjectSecret::from_value(random_check(stream))
    }

    fn mint(&self, port: Port, object: ObjectNum, secret: &ObjectSecret) -> Capability {
        Capability::new(port, object, Rights::ALL, secret.value)
    }

    fn validate(&self, cap: &Capability, secret: &ObjectSecret) -> Result<Rights, CapError> {
        if cap.check == secret.value & CHECK_MASK {
            Ok(Rights::ALL)
        } else {
            Err(CapError::Forged)
        }
    }

    fn restrict(
        &self,
        cap: &Capability,
        keep: Rights,
        secret: &ObjectSecret,
    ) -> Result<Capability, CapError> {
        let current = self.validate(cap, secret)?;
        if keep == current {
            Ok(*cap)
        } else {
            // No per-operation distinction exists in this scheme.
            Err(CapError::NotSupported)
        }
    }
}

// ---------------------------------------------------------------------
// Scheme 1
// ---------------------------------------------------------------------

/// Builds a 56-bit cipher from a per-object key. The real factory is
/// [`FeistelFactory`]; [`XorFactory`] exists to *demonstrate* the paper's
/// warning that XOR "will not do" (see the negative tests).
pub trait CipherFactory: fmt::Debug + Send + Sync {
    /// The cipher type produced.
    type Cipher: Cipher56;
    /// Instantiates the cipher for an object whose secret is `key`.
    fn make(&self, key: u64) -> Self::Cipher;
}

/// Produces the real mixing cipher.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FeistelFactory;

impl CipherFactory for FeistelFactory {
    type Cipher = Feistel56;
    fn make(&self, key: u64) -> Feistel56 {
        Feistel56::new(key)
    }
}

/// Produces the deliberately broken XOR "cipher" — negative tests only.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct XorFactory;

impl CipherFactory for XorFactory {
    type Cipher = XorCipher;
    fn make(&self, key: u64) -> XorCipher {
        XorCipher::new(key)
    }
}

/// Scheme 1: the random number stored in the object table is an
/// encryption key; the capability's combined 56-bit `RIGHTS‖RANDOM`
/// field is the *ciphertext* of `(rights, known constant)`.
///
/// Decrypting an incoming capability must reveal the known constant
/// (zero) in the RANDOM part — only then can the rights be believed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EncryptedScheme<CF: CipherFactory = FeistelFactory> {
    factory: CF,
}

/// The known constant: 48 zero bits.
const KNOWN_CONSTANT: u64 = 0;

impl EncryptedScheme<FeistelFactory> {
    /// The production variant, using the Feistel mixing cipher.
    pub fn new() -> Self {
        EncryptedScheme {
            factory: FeistelFactory,
        }
    }
}

impl<CF: CipherFactory> EncryptedScheme<CF> {
    /// A variant with an explicit cipher factory (tests use
    /// [`XorFactory`] to reproduce the paper's warning).
    pub fn with_factory(factory: CF) -> Self {
        EncryptedScheme { factory }
    }

    fn seal(&self, rights: Rights, key: u64) -> (Rights, u64) {
        let cipher = self.factory.make(key);
        let ct = cipher.encrypt(Block56::from_rights_check(rights.bits(), KNOWN_CONSTANT));
        let (r, c) = ct.into_rights_check();
        (Rights::from_bits(r), c)
    }
}

impl<CF: CipherFactory> ProtectionScheme for EncryptedScheme<CF> {
    fn name(&self) -> &'static str {
        "encrypted"
    }

    fn new_secret(&self, stream: &mut SecretStream) -> ObjectSecret {
        // The secret is a cipher key; any nonzero 64-bit value works.
        ObjectSecret::from_value(stream.next_u64().max(1))
    }

    fn mint(&self, port: Port, object: ObjectNum, secret: &ObjectSecret) -> Capability {
        let (rights_ct, check_ct) = self.seal(Rights::ALL, secret.value);
        Capability::new(port, object, rights_ct, check_ct)
    }

    fn validate(&self, cap: &Capability, secret: &ObjectSecret) -> Result<Rights, CapError> {
        let cipher = self.factory.make(secret.value);
        let pt = cipher.decrypt(Block56::from_rights_check(cap.rights.bits(), cap.check));
        let (rights, constant) = pt.into_rights_check();
        if constant == KNOWN_CONSTANT {
            Ok(Rights::from_bits(rights))
        } else {
            Err(CapError::Forged)
        }
    }

    fn restrict(
        &self,
        cap: &Capability,
        keep: Rights,
        secret: &ObjectSecret,
    ) -> Result<Capability, CapError> {
        let current = self.validate(cap, secret)?;
        if !current.contains(keep) {
            return Err(CapError::RightsExceeded);
        }
        let (rights_ct, check_ct) = self.seal(keep, secret.value);
        Ok(Capability::new(cap.port, cap.object, rights_ct, check_ct))
    }
}

// ---------------------------------------------------------------------
// Scheme 2
// ---------------------------------------------------------------------

/// Scheme 2: `RANDOM field = F(random-number XOR rights bits)`, with the
/// rights in plaintext. "Although a user can tamper with the plaintext
/// RIGHTS field, such tampering will result in the server ultimately
/// rejecting the capability."
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OneWayScheme<F: OneWay = ShaOneWay> {
    f: F,
}

impl OneWayScheme<ShaOneWay> {
    /// The standard instance over the SHA-256 one-way function.
    pub fn new() -> Self {
        OneWayScheme { f: ShaOneWay }
    }
}

impl<F: OneWay> OneWayScheme<F> {
    /// An instance over an explicit one-way function (e.g. Purdy).
    pub fn with_function(f: F) -> Self {
        OneWayScheme { f }
    }

    fn check_for(&self, rights: Rights, secret: u64) -> u64 {
        self.f.apply48(secret ^ rights.bits() as u64)
    }
}

impl<F: OneWay> ProtectionScheme for OneWayScheme<F> {
    fn name(&self) -> &'static str {
        "one-way"
    }

    fn new_secret(&self, stream: &mut SecretStream) -> ObjectSecret {
        ObjectSecret::from_value(random_check(stream))
    }

    fn mint(&self, port: Port, object: ObjectNum, secret: &ObjectSecret) -> Capability {
        Capability::new(
            port,
            object,
            Rights::ALL,
            self.check_for(Rights::ALL, secret.value),
        )
    }

    fn validate(&self, cap: &Capability, secret: &ObjectSecret) -> Result<Rights, CapError> {
        if self.check_for(cap.rights, secret.value) == cap.check {
            Ok(cap.rights)
        } else {
            Err(CapError::Forged)
        }
    }

    fn restrict(
        &self,
        cap: &Capability,
        keep: Rights,
        secret: &ObjectSecret,
    ) -> Result<Capability, CapError> {
        let current = self.validate(cap, secret)?;
        if !current.contains(keep) {
            return Err(CapError::RightsExceeded);
        }
        Ok(Capability::new(
            cap.port,
            cap.object,
            keep,
            self.check_for(keep, secret.value),
        ))
    }
}

// ---------------------------------------------------------------------
// Scheme 3
// ---------------------------------------------------------------------

/// Scheme 3: commutative one-way functions.
///
/// The object's random number goes into the check field as-is, with all
/// rights set. "A client can delete permission k from a capability by
/// replacing the RANDOM field, R, with Fk(R) and turning off the
/// corresponding bit in the RIGHTS field" — no server involvement. The
/// server validates by applying the functions for every *cleared* bit to
/// its stored random number and comparing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommutativeScheme {
    family: CommutativeOwfFamily,
}

impl Default for CommutativeScheme {
    fn default() -> Self {
        Self::standard()
    }
}

impl CommutativeScheme {
    /// The standard 8-function family over the 48-bit field.
    pub fn standard() -> Self {
        CommutativeScheme {
            family: CommutativeOwfFamily::standard(),
        }
    }

    /// A scheme over a custom function family.
    pub fn with_family(family: CommutativeOwfFamily) -> Self {
        CommutativeScheme { family }
    }

    /// The underlying function family.
    pub fn family(&self) -> &CommutativeOwfFamily {
        &self.family
    }

    /// Validates *ignoring the plaintext rights field*, recovering the
    /// rights by brute force over all `2^n` deletion masks (the paper:
    /// "In theory at least, the RIGHTS field is not even needed, since
    /// the server could try all 2^N combinations of the functions to see
    /// if any worked. Its presence merely speeds up the checking.").
    ///
    /// `n` is the number of rights bits to consider (experiment E3
    /// sweeps it). Returns the recovered rights, or `None` if no mask
    /// matches (forged).
    pub fn validate_bruteforce(
        &self,
        cap: &Capability,
        secret: &ObjectSecret,
        n: usize,
    ) -> Option<Rights> {
        let n = n.min(Rights::BITS);
        for mask in 0..(1u16 << n) {
            let deleted = mask as u8;
            if self.family.apply_mask(deleted, secret.value) == cap.check {
                return Some(Rights::from_bits(!deleted));
            }
        }
        None
    }
}

impl ProtectionScheme for CommutativeScheme {
    fn name(&self) -> &'static str {
        "commutative"
    }

    fn new_secret(&self, stream: &mut SecretStream) -> ObjectSecret {
        // Must be a high-order element of GF(p): avoid 0, 1, p−1.
        ObjectSecret::from_value(self.family.random_element(stream))
    }

    fn mint(&self, port: Port, object: ObjectNum, secret: &ObjectSecret) -> Capability {
        Capability::new(port, object, Rights::ALL, secret.value)
    }

    fn validate(&self, cap: &Capability, secret: &ObjectSecret) -> Result<Rights, CapError> {
        let deleted = (!cap.rights).bits();
        if self.family.apply_mask(deleted, secret.value) == cap.check {
            Ok(cap.rights)
        } else {
            Err(CapError::Forged)
        }
    }

    fn restrict(
        &self,
        cap: &Capability,
        keep: Rights,
        secret: &ObjectSecret,
    ) -> Result<Capability, CapError> {
        let current = self.validate(cap, secret)?;
        if !current.contains(keep) {
            return Err(CapError::RightsExceeded);
        }
        // The server can compute the restricted check directly from its
        // stored random number.
        let deleted = (!keep).bits();
        Ok(Capability::new(
            cap.port,
            cap.object,
            keep,
            self.family.apply_mask(deleted, secret.value()),
        ))
    }

    fn diminish(&self, cap: &Capability, drop: Rights) -> Result<Capability, CapError> {
        // Only apply F_k for rights actually present; re-applying for an
        // already-deleted right would corrupt the chain.
        let to_delete = cap.rights & drop;
        let mut check = cap.check;
        for k in to_delete.iter_bits() {
            check = self.family.apply(k, check);
        }
        Ok(Capability::new(
            cap.port,
            cap.object,
            cap.rights.without(drop),
            check,
        ))
    }

    fn supports_diminish(&self) -> bool {
        true
    }
}

/// Identifies one of the paper's four schemes (benchmark axis).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchemeKind {
    /// Scheme 0, [`SimpleScheme`].
    Simple,
    /// Scheme 1, [`EncryptedScheme`].
    Encrypted,
    /// Scheme 2, [`OneWayScheme`].
    OneWay,
    /// Scheme 3, [`CommutativeScheme`].
    Commutative,
}

impl SchemeKind {
    /// All four, in paper order.
    pub const ALL: [SchemeKind; 4] = [
        SchemeKind::Simple,
        SchemeKind::Encrypted,
        SchemeKind::OneWay,
        SchemeKind::Commutative,
    ];

    /// Instantiates the standard implementation of this scheme.
    pub fn instantiate(self) -> Box<dyn ProtectionScheme> {
        match self {
            SchemeKind::Simple => Box::new(SimpleScheme::new()),
            SchemeKind::Encrypted => Box::new(EncryptedScheme::new()),
            SchemeKind::OneWay => Box::new(OneWayScheme::new()),
            SchemeKind::Commutative => Box::new(CommutativeScheme::standard()),
        }
    }
}

impl fmt::Display for SchemeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            SchemeKind::Simple => "simple",
            SchemeKind::Encrypted => "encrypted",
            SchemeKind::OneWay => "one-way",
            SchemeKind::Commutative => "commutative",
        };
        write!(f, "{name}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn rng(seed: u64) -> SecretStream {
        SecretStream::from_seed(seed)
    }

    fn port() -> Port {
        Port::new(0xCAFE).unwrap()
    }

    fn obj() -> ObjectNum {
        ObjectNum::new(99).unwrap()
    }

    fn mint_with(
        kind: SchemeKind,
        seed: u64,
    ) -> (Box<dyn ProtectionScheme>, ObjectSecret, Capability) {
        let scheme = kind.instantiate();
        let secret = scheme.new_secret(&mut rng(seed));
        let cap = scheme.mint(port(), obj(), &secret);
        (scheme, secret, cap)
    }

    #[test]
    fn all_schemes_validate_own_mint() {
        for kind in SchemeKind::ALL {
            let (scheme, secret, cap) = mint_with(kind, 1);
            assert_eq!(
                scheme.validate(&cap, &secret).unwrap(),
                Rights::ALL,
                "{kind}"
            );
        }
    }

    #[test]
    fn all_schemes_reject_check_tampering() {
        for kind in SchemeKind::ALL {
            let (scheme, secret, cap) = mint_with(kind, 2);
            for bit in [0u64, 1, 17, 47] {
                let forged = cap.with_check(cap.check ^ (1 << bit));
                assert_eq!(
                    scheme.validate(&forged, &secret).unwrap_err(),
                    CapError::Forged,
                    "{kind} bit {bit}"
                );
            }
        }
    }

    #[test]
    fn all_schemes_reject_wrong_secret() {
        for kind in SchemeKind::ALL {
            let (scheme, _secret, cap) = mint_with(kind, 3);
            let other = scheme.new_secret(&mut rng(4));
            assert!(scheme.validate(&cap, &other).is_err(), "{kind}");
        }
    }

    #[test]
    fn restricted_caps_validate_with_exactly_kept_rights() {
        for kind in [
            SchemeKind::Encrypted,
            SchemeKind::OneWay,
            SchemeKind::Commutative,
        ] {
            let (scheme, secret, cap) = mint_with(kind, 5);
            let keep = Rights::READ | Rights::WRITE;
            let restricted = scheme.restrict(&cap, keep, &secret).unwrap();
            assert_eq!(
                scheme.validate(&restricted, &secret).unwrap(),
                keep,
                "{kind}"
            );
        }
    }

    #[test]
    fn restriction_cannot_amplify() {
        for kind in [
            SchemeKind::Encrypted,
            SchemeKind::OneWay,
            SchemeKind::Commutative,
        ] {
            let (scheme, secret, cap) = mint_with(kind, 6);
            let read_only = scheme.restrict(&cap, Rights::READ, &secret).unwrap();
            assert_eq!(
                scheme
                    .restrict(&read_only, Rights::READ | Rights::WRITE, &secret)
                    .unwrap_err(),
                CapError::RightsExceeded,
                "{kind}"
            );
        }
    }

    #[test]
    fn simple_scheme_has_no_rights_distinction() {
        let (scheme, secret, cap) = mint_with(SchemeKind::Simple, 7);
        assert_eq!(
            scheme.restrict(&cap, Rights::READ, &secret).unwrap_err(),
            CapError::NotSupported
        );
        // Identity restriction is fine.
        assert_eq!(scheme.restrict(&cap, Rights::ALL, &secret).unwrap(), cap);
    }

    #[test]
    fn only_commutative_supports_diminish() {
        for kind in SchemeKind::ALL {
            let (scheme, _secret, cap) = mint_with(kind, 8);
            let expect = kind == SchemeKind::Commutative;
            assert_eq!(scheme.supports_diminish(), expect, "{kind}");
            assert_eq!(
                scheme.diminish(&cap, Rights::WRITE).is_ok(),
                expect,
                "{kind}"
            );
        }
    }

    #[test]
    fn encrypted_scheme_rights_field_is_opaque_ciphertext() {
        // In scheme 1 the rights live *inside* the ciphertext; the
        // capability's rights field must not equal the plaintext rights
        // (that would mean the cipher failed to mix).
        let scheme = EncryptedScheme::new();
        let secret = scheme.new_secret(&mut rng(9));
        let cap = scheme.mint(port(), obj(), &secret);
        // The validated value is ALL even though the stored field is not.
        assert_eq!(scheme.validate(&cap, &secret).unwrap(), Rights::ALL);
    }

    #[test]
    fn encrypted_scheme_rejects_rights_field_tampering() {
        let scheme = EncryptedScheme::new();
        let secret = scheme.new_secret(&mut rng(10));
        let cap = scheme.mint(port(), obj(), &secret);
        for flip in 0..8u8 {
            let forged = cap.with_rights(Rights::from_bits(cap.rights.bits() ^ (1 << flip)));
            assert!(scheme.validate(&forged, &secret).is_err(), "bit {flip}");
        }
    }

    #[test]
    fn xor_cipher_reproduces_the_papers_attack() {
        // With the XOR "cipher" the known constant survives rights
        // tampering: EncryptedScheme is *broken* exactly as §2.3 warns.
        let scheme = EncryptedScheme::with_factory(XorFactory);
        let secret = scheme.new_secret(&mut rng(11));
        let cap = scheme.mint(port(), obj(), &secret);
        let restricted = scheme.restrict(&cap, Rights::READ, &secret).unwrap();
        // Attacker flips a plaintext rights bit through the ciphertext.
        let forged = restricted.with_rights(Rights::from_bits(
            restricted.rights.bits() ^ Rights::WRITE.bits(),
        ));
        let recovered = scheme.validate(&forged, &secret).unwrap();
        assert!(
            recovered.contains(Rights::WRITE),
            "the attack must succeed against XOR — that is the point"
        );
    }

    #[test]
    fn oneway_scheme_rejects_plaintext_rights_tampering() {
        let scheme = OneWayScheme::new();
        let secret = scheme.new_secret(&mut rng(12));
        let cap = scheme.mint(port(), obj(), &secret);
        let restricted = scheme.restrict(&cap, Rights::READ, &secret).unwrap();
        let forged = restricted.with_rights(Rights::ALL);
        assert_eq!(
            scheme.validate(&forged, &secret).unwrap_err(),
            CapError::Forged
        );
    }

    #[test]
    fn commutative_diminish_then_validate() {
        let scheme = CommutativeScheme::standard();
        let secret = scheme.new_secret(&mut rng(13));
        let cap = scheme.mint(port(), obj(), &secret);
        let ro = scheme
            .diminish(&cap, Rights::ALL.without(Rights::READ))
            .unwrap();
        assert_eq!(scheme.validate(&ro, &secret).unwrap(), Rights::READ);
    }

    #[test]
    fn commutative_diminish_is_idempotent_on_absent_rights() {
        let scheme = CommutativeScheme::standard();
        let secret = scheme.new_secret(&mut rng(14));
        let cap = scheme.mint(port(), obj(), &secret);
        let once = scheme.diminish(&cap, Rights::WRITE).unwrap();
        let twice = scheme.diminish(&once, Rights::WRITE).unwrap();
        assert_eq!(once, twice, "dropping an absent right must be a no-op");
        assert!(scheme.validate(&twice, &secret).is_ok());
    }

    #[test]
    fn commutative_rights_bit_cannot_be_turned_back_on() {
        let scheme = CommutativeScheme::standard();
        let secret = scheme.new_secret(&mut rng(15));
        let cap = scheme.mint(port(), obj(), &secret);
        let ro = scheme
            .diminish(&cap, Rights::ALL.without(Rights::READ))
            .unwrap();
        let forged = ro.with_rights(Rights::ALL);
        assert_eq!(
            scheme.validate(&forged, &secret).unwrap_err(),
            CapError::Forged
        );
    }

    #[test]
    fn commutative_bruteforce_recovers_rights() {
        let scheme = CommutativeScheme::standard();
        let secret = scheme.new_secret(&mut rng(16));
        let cap = scheme.mint(port(), obj(), &secret);
        let target = Rights::READ | Rights::DELETE;
        let reduced = scheme.diminish(&cap, Rights::ALL.without(target)).unwrap();
        // Erase the rights field entirely; brute force must recover it.
        let anonymous = reduced.with_rights(Rights::NONE);
        assert_eq!(
            scheme.validate_bruteforce(&anonymous, &secret, 8),
            Some(target)
        );
    }

    #[test]
    fn commutative_bruteforce_rejects_forgery() {
        let scheme = CommutativeScheme::standard();
        let secret = scheme.new_secret(&mut rng(17));
        let cap = scheme.mint(port(), obj(), &secret);
        let forged = cap.with_check(cap.check ^ 0xDEAD);
        assert_eq!(scheme.validate_bruteforce(&forged, &secret, 8), None);
    }

    #[test]
    fn monte_carlo_random_checks_never_validate() {
        // The sparseness argument: a guessed 48-bit check field has
        // probability 2^-48 per try. 100k random tries must all fail.
        let mut r = rng(18);
        for kind in SchemeKind::ALL {
            let scheme = kind.instantiate();
            let secret = scheme.new_secret(&mut r);
            let genuine = scheme.mint(port(), obj(), &secret);
            let mut hits = 0u32;
            for _ in 0..100_000 {
                let guess = genuine.with_check(r.next_u64());
                if guess.check != genuine.check && scheme.validate(&guess, &secret).is_ok() {
                    hits += 1;
                }
            }
            assert_eq!(hits, 0, "{kind}: forged a capability by guessing");
        }
    }

    #[test]
    fn scheme_kind_display_and_names_agree() {
        for kind in SchemeKind::ALL {
            assert_eq!(kind.to_string(), kind.instantiate().name());
        }
    }

    proptest! {
        #[test]
        fn prop_tampered_rights_always_detected(seed: u64, tamper: u8) {
            // Across schemes 1-3: flipping any nonzero rights pattern on
            // a restricted capability is detected.
            if tamper != 0 {
                for kind in [SchemeKind::Encrypted, SchemeKind::OneWay, SchemeKind::Commutative] {
                    let scheme = kind.instantiate();
                    let secret = scheme.new_secret(&mut rng(seed));
                    let cap = scheme.mint(port(), obj(), &secret);
                    let restricted = scheme.restrict(&cap, Rights::READ, &secret).unwrap();
                    let forged = restricted.with_rights(
                        Rights::from_bits(restricted.rights.bits() ^ tamper));
                    let validated = scheme.validate(&forged, &secret);
                    prop_assert!(validated.is_err(), "{} tamper={tamper:#010b}", kind);
                }
            }
        }

        #[test]
        fn prop_diminish_order_independent(seed: u64, mask_a: u8, mask_b: u8) {
            let scheme = CommutativeScheme::standard();
            let secret = scheme.new_secret(&mut rng(seed));
            let cap = scheme.mint(port(), obj(), &secret);
            let a_then_b = scheme
                .diminish(&scheme.diminish(&cap, Rights::from_bits(mask_a)).unwrap(),
                          Rights::from_bits(mask_b)).unwrap();
            let b_then_a = scheme
                .diminish(&scheme.diminish(&cap, Rights::from_bits(mask_b)).unwrap(),
                          Rights::from_bits(mask_a)).unwrap();
            prop_assert_eq!(a_then_b, b_then_a);
            // Both validate to the same reduced rights.
            let scheme_ref = &scheme;
            prop_assert_eq!(
                scheme_ref.validate(&a_then_b, &secret).unwrap(),
                Rights::ALL.without(Rights::from_bits(mask_a)).without(Rights::from_bits(mask_b))
            );
        }

        #[test]
        fn prop_restrict_matches_diminish(seed: u64, keep_bits: u8) {
            // Scheme 3: server-side restrict and client-side diminish
            // must produce the *identical* capability.
            let scheme = CommutativeScheme::standard();
            let secret = scheme.new_secret(&mut rng(seed));
            let cap = scheme.mint(port(), obj(), &secret);
            let keep = Rights::from_bits(keep_bits);
            let via_server = scheme.restrict(&cap, keep, &secret).unwrap();
            let via_client = scheme.diminish(&cap, !keep).unwrap();
            prop_assert_eq!(via_server, via_client);
        }

        #[test]
        fn prop_validated_rights_equal_requested_subset(seed: u64, keep_bits: u8) {
            for kind in [SchemeKind::Encrypted, SchemeKind::OneWay, SchemeKind::Commutative] {
                let scheme = kind.instantiate();
                let secret = scheme.new_secret(&mut rng(seed));
                let cap = scheme.mint(port(), obj(), &secret);
                let keep = Rights::from_bits(keep_bits);
                let restricted = scheme.restrict(&cap, keep, &secret).unwrap();
                prop_assert_eq!(scheme.validate(&restricted, &secret).unwrap(), keep);
            }
        }
    }
}
