//! The public one-way function `F` used for ports and for capability
//! protection *scheme 2*.
//!
//! §2.2: "Each port is really a pair of ports, P and G, related by:
//! `P = F(G)`, where `F` is a (publicly-known) one-way function performed
//! by the F-box."
//!
//! Two interchangeable implementations are provided behind the
//! [`OneWay`] trait:
//!
//! * [`PurdyOneWay`] — the historically cited construction
//!   ([`crate::purdy`]), truncated to 48 bits;
//! * [`ShaOneWay`] — SHA-256 truncated to 48 bits, the modern choice.
//!
//! The F-box, the RPC layer and capability scheme 2 are all generic over
//! this trait, so the two can be compared directly (F1b in
//! `examples/paper_report.rs`).

use crate::purdy::Purdy;
use crate::sha256::Sha256;

/// Mask selecting the low 48 bits — the width of an Amoeba port and of
/// the capability check field.
pub const MASK48: u64 = (1 << 48) - 1;

/// A publicly known one-way function over 48-bit values.
///
/// Implementations must be pure: the same input always produces the same
/// output, on every machine (clients, servers and F-boxes all evaluate
/// the *same* public function).
pub trait OneWay: Send + Sync + std::fmt::Debug {
    /// Applies the one-way function, producing a 48-bit value.
    fn apply48(&self, x: u64) -> u64;
}

/// Process-wide count of one-way evaluations, for tests and reports
/// that pin how many a workload pays per operation (a diff around the
/// workload; the count is never reset).
pub mod stats {
    use std::sync::atomic::{AtomicU64, Ordering};

    static EVALS: AtomicU64 = AtomicU64::new(0);

    /// Cumulative [`ShaOneWay`](super::ShaOneWay) evaluations since
    /// process start.
    pub fn evals() -> u64 {
        EVALS.load(Ordering::Relaxed)
    }

    pub(super) fn note_eval() {
        EVALS.fetch_add(1, Ordering::Relaxed);
    }
}

/// SHA-256-based one-way function: `F(x) = SHA256("amoeba-port" ‖ x)`
/// truncated to 48 bits.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShaOneWay;

impl OneWay for ShaOneWay {
    fn apply48(&self, x: u64) -> u64 {
        stats::note_eval();
        let mut input = [0u8; 19];
        input[..11].copy_from_slice(b"amoeba-port");
        input[11..].copy_from_slice(&x.to_be_bytes());
        Sha256::digest_u64(&input) & MASK48
    }
}

/// Purdy-polynomial one-way function truncated to 48 bits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PurdyOneWay {
    poly: Purdy,
}

impl Default for PurdyOneWay {
    fn default() -> Self {
        PurdyOneWay {
            poly: Purdy::standard(),
        }
    }
}

impl PurdyOneWay {
    /// Creates the standard public instance.
    pub fn new() -> Self {
        Self::default()
    }
}

impl OneWay for PurdyOneWay {
    fn apply48(&self, x: u64) -> u64 {
        self.poly.eval(x) & MASK48
    }
}

/// Applies `F` through a shared reference — lets `Arc<dyn OneWay>` and
/// concrete types be used uniformly.
impl<T: OneWay + ?Sized> OneWay for std::sync::Arc<T> {
    fn apply48(&self, x: u64) -> u64 {
        (**self).apply48(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashSet;
    use std::sync::Arc;

    #[test]
    fn sha_oneway_outputs_48_bits() {
        let f = ShaOneWay;
        for x in [0u64, 1, MASK48, u64::MAX] {
            assert!(f.apply48(x) <= MASK48);
        }
    }

    #[test]
    fn purdy_oneway_outputs_48_bits() {
        let f = PurdyOneWay::new();
        for x in [0u64, 1, MASK48, u64::MAX] {
            assert!(f.apply48(x) <= MASK48);
        }
    }

    #[test]
    fn implementations_differ() {
        // They are different functions; agreeing on a random point would
        // be a 2^-48 coincidence.
        let sha = ShaOneWay;
        let purdy = PurdyOneWay::new();
        assert_ne!(sha.apply48(123456789), purdy.apply48(123456789));
    }

    #[test]
    fn arc_dispatch_matches_concrete() {
        let concrete = ShaOneWay;
        let arced: Arc<dyn OneWay> = Arc::new(ShaOneWay);
        assert_eq!(concrete.apply48(42), arced.apply48(42));
    }

    #[test]
    fn no_small_cycles_from_random_start() {
        // Applying F repeatedly must not return to the start quickly;
        // a short cycle would let an intruder search for G given P.
        let f = ShaOneWay;
        let start = 0xABCDEF012345 & MASK48;
        let mut x = start;
        let mut seen = HashSet::new();
        for _ in 0..10_000 {
            x = f.apply48(x);
            assert!(seen.insert(x), "cycle detected");
            assert_ne!(x, start, "returned to start");
        }
    }

    proptest! {
        #[test]
        fn deterministic(x: u64) {
            prop_assert_eq!(ShaOneWay.apply48(x), ShaOneWay.apply48(x));
            let p = PurdyOneWay::new();
            prop_assert_eq!(p.apply48(x), p.apply48(x));
        }

        #[test]
        fn distinct_inputs_distinct_outputs(a in 0u64..=MASK48, b in 0u64..=MASK48) {
            if a != b {
                prop_assert_ne!(ShaOneWay.apply48(a), ShaOneWay.apply48(b));
            }
        }

        #[test]
        fn f_of_p_is_not_g(g in 0u64..=MASK48) {
            // The paper: "An intruder doing GET(P) will simply cause his
            // F-box to listen to the (useless) port F(P)" — F(F(G)) must
            // not be F-related back to G.
            let f = ShaOneWay;
            let p = f.apply48(g);
            prop_assert_ne!(f.apply48(p), g);
        }
    }
}
