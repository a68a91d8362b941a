//! Commutative one-way functions for capability protection *scheme 3*.
//!
//! The third algorithm of §2.3 needs "a set of N commutative one-way
//! functions, F0, F1, ..., FN−1 corresponding to the N rights present in
//! the RIGHTS field". A client deletes right `k` from a capability *by
//! itself*, with no server round trip, by replacing the check field `R`
//! with `F_k(R)`; the server later re-applies the functions for every
//! cleared rights bit and compares.
//!
//! The classic realisation (and the one in Mullender's 1985 thesis this
//! paper cites) is fixed-exponent modular exponentiation:
//!
//! ```text
//! F_k(x) = x^{e_k}  mod p
//! ```
//!
//! These commute because `(x^a)^b = (x^b)^a = x^{ab}`, and inverting any
//! one of them is the discrete-logarithm/root problem in `GF(p)`.
//! We use the largest 48-bit prime, `p = 2^48 − 59`, so every value fits
//! the 48-bit check field of Fig 2, and odd prime exponents `e_k` with
//! `gcd(e_k, p−1) = 1` so each `F_k` permutes the field (necessary so
//! distinct rights masks keep distinct check values).
//!
//! # Example
//!
//! ```
//! use amoeba_crypto::commutative::CommutativeOwfFamily;
//!
//! let fam = CommutativeOwfFamily::standard();
//! let r = 0x1234_5678_9abc % fam.modulus();
//! // Deleting right 0 then 3 equals deleting 3 then 0 — commutativity.
//! assert_eq!(fam.apply(3, fam.apply(0, r)), fam.apply(0, fam.apply(3, r)));
//! // And both equal the mask application.
//! assert_eq!(fam.apply_mask(0b0000_1001, r), fam.apply(3, fam.apply(0, r)));
//! ```

use crate::modmath::{gcd, pow_mod};
use crate::secret::SecretStream;

/// The largest prime below 2^48: `2^48 − 59`. All check-field values
/// live in `GF(p)` and therefore fit the capability's 48-bit slot.
pub const P48: u64 = (1u64 << 48) - 59;

/// Number of rights bits, hence functions, in the standard family.
pub const NUM_RIGHTS: usize = 8;

/// Fixed public exponents for the standard family, one per rights bit.
///
/// Each is an odd prime coprime to `P48 − 1` (verified by
/// [`CommutativeOwfFamily::new`] and by tests).
const STANDARD_EXPONENTS: [u64; NUM_RIGHTS] =
    [65537, 65539, 65543, 65551, 65557, 65563, 65579, 65581];

/// A family of `N` commutative one-way functions over `GF(p)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommutativeOwfFamily {
    p: u64,
    exponents: Vec<u64>,
}

impl CommutativeOwfFamily {
    /// The publicly known 8-function family used by Amoeba capabilities.
    pub fn standard() -> Self {
        Self::new(P48, STANDARD_EXPONENTS.to_vec())
    }

    /// Builds a family over prime `p` with the given exponents.
    ///
    /// # Panics
    /// Panics if `p` is not prime, or any exponent shares a factor with
    /// `p − 1` (such an `F_k` would not be a permutation and different
    /// rights masks could collide).
    pub fn new(p: u64, exponents: Vec<u64>) -> Self {
        assert!(crate::modmath::is_prime(p), "modulus must be prime");
        for &e in &exponents {
            assert!(
                gcd(e, p - 1) == 1,
                "exponent {e} is not coprime to p-1; F_k would not permute GF(p)"
            );
        }
        CommutativeOwfFamily { p, exponents }
    }

    /// The field modulus; check values must be in `[0, modulus)`.
    pub fn modulus(&self) -> u64 {
        self.p
    }

    /// Number of functions (= number of rights bits supported).
    pub fn len(&self) -> usize {
        self.exponents.len()
    }

    /// Whether the family is empty (it never is for [`standard`]).
    ///
    /// [`standard`]: CommutativeOwfFamily::standard
    pub fn is_empty(&self) -> bool {
        self.exponents.is_empty()
    }

    /// Applies `F_k` to `x`.
    ///
    /// # Panics
    /// Panics if `k >= self.len()`.
    pub fn apply(&self, k: usize, x: u64) -> u64 {
        pow_mod(x % self.p, self.exponents[k], self.p)
    }

    /// Applies `F_k` for every set bit `k` of `mask` (order irrelevant by
    /// commutativity). Bits at or above [`len`](Self::len) are ignored.
    pub fn apply_mask(&self, mask: u8, x: u64) -> u64 {
        let mut acc = x % self.p;
        for (k, &e) in self.exponents.iter().enumerate() {
            if mask & (1 << k) != 0 {
                acc = pow_mod(acc, e, self.p);
            }
        }
        acc
    }

    /// Draws a check value suitable as a per-object random number:
    /// uniform in `[2, p − 1)`, avoiding the fixed points 0 and 1 and
    /// the order-2 element `p − 1`.
    pub fn random_element(&self, stream: &mut SecretStream) -> u64 {
        2 + stream.below(self.p - 3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn p48_is_prime_and_48_bits() {
        assert!(crate::modmath::is_prime(P48));
        const { assert!(P48 < (1 << 48)) };
        assert_eq!(crate::modmath::next_prime(P48), P48);
    }

    #[test]
    fn standard_exponents_are_valid() {
        for e in STANDARD_EXPONENTS {
            assert!(crate::modmath::is_prime(e), "{e} not prime");
            assert_eq!(gcd(e, P48 - 1), 1, "{e} shares a factor with p-1");
        }
        // Construction itself re-checks.
        let fam = CommutativeOwfFamily::standard();
        assert_eq!(fam.len(), NUM_RIGHTS);
        assert!(!fam.is_empty());
    }

    #[test]
    #[should_panic(expected = "must be prime")]
    fn composite_modulus_rejected() {
        CommutativeOwfFamily::new(1 << 48, vec![3]);
    }

    #[test]
    #[should_panic(expected = "not coprime")]
    fn bad_exponent_rejected() {
        // 2 divides p-1 for every odd prime p.
        CommutativeOwfFamily::new(P48, vec![2]);
    }

    #[test]
    fn apply_mask_empty_mask_is_identity() {
        let fam = CommutativeOwfFamily::standard();
        assert_eq!(fam.apply_mask(0, 424242), 424242);
    }

    #[test]
    fn random_element_avoids_degenerate_values() {
        let fam = CommutativeOwfFamily::standard();
        let mut stream = SecretStream::from_seed(1);
        for _ in 0..1000 {
            let x = fam.random_element(&mut stream);
            assert!((2..P48 - 1).contains(&x));
        }
    }

    proptest! {
        #[test]
        fn pairwise_commutativity(i in 0usize..NUM_RIGHTS, j in 0usize..NUM_RIGHTS, x in 2u64..P48) {
            let fam = CommutativeOwfFamily::standard();
            prop_assert_eq!(fam.apply(i, fam.apply(j, x)), fam.apply(j, fam.apply(i, x)));
        }

        #[test]
        fn mask_application_order_independent(mask: u8, x in 2u64..P48, seed: u64) {
            // Apply the bits of `mask` one at a time in a random order and
            // compare with apply_mask.
            let fam = CommutativeOwfFamily::standard();
            let mut bits: Vec<usize> = (0..NUM_RIGHTS).filter(|k| mask & (1 << k) != 0).collect();
            let mut stream = SecretStream::from_seed(seed);
            for i in (1..bits.len()).rev() {
                bits.swap(i, stream.below(i as u64 + 1) as usize);
            }
            let mut acc = x;
            for k in bits {
                acc = fam.apply(k, acc);
            }
            prop_assert_eq!(acc, fam.apply_mask(mask, x));
        }

        #[test]
        fn each_function_is_a_permutation(k in 0usize..NUM_RIGHTS, a in 2u64..P48, b in 2u64..P48) {
            let fam = CommutativeOwfFamily::standard();
            if a != b {
                prop_assert_ne!(fam.apply(k, a), fam.apply(k, b));
            }
        }

        #[test]
        fn distinct_masks_give_distinct_values(m1: u8, m2: u8, x in 2u64..P48 - 1) {
            // Because each F_k permutes GF(p) and exponents are distinct
            // primes, different subsets give different composite exponents
            // mod p-1 and (for x of high order) different values. We test
            // the practical property on random x.
            let fam = CommutativeOwfFamily::standard();
            if m1 != m2 {
                // Exclude x of low multiplicative order by checking a
                // collision is at least *detected consistently*.
                let v1 = fam.apply_mask(m1, x);
                let v2 = fam.apply_mask(m2, x);
                if v1 == v2 {
                    // Extremely unlikely; flag loudly.
                    prop_assert!(false, "mask collision for x={x}: {m1:#x} vs {m2:#x}");
                }
            }
        }

        #[test]
        fn applying_is_one_way_ish(k in 0usize..NUM_RIGHTS, x in 2u64..P48) {
            // Cheap sanity: F_k has no trivial structure like F(x)=x.
            let fam = CommutativeOwfFamily::standard();
            let y = fam.apply(k, x);
            // x^e == x only for elements whose order divides e-1; random
            // hits are vanishingly rare.
            prop_assert_ne!(y, 0);
            prop_assert!(y < P48);
        }
    }
}
