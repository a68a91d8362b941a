//! **Sparse capabilities** — the primary contribution of the paper
//! (§2.3, Fig 2).
//!
//! A capability is a 128-bit ticket a *user process* holds in its own
//! address space:
//!
//! ```text
//! ┌──────────────┬────────┬────────┬───────────────┐
//! │ Server Port  │ Object │ Rights │  Check Field  │
//! │   48 bits    │ 24 bits│ 8 bits │    48 bits    │
//! └──────────────┴────────┴────────┴───────────────┘
//! ```
//!
//! The kernel never sees or checks capabilities; forgery is prevented
//! *cryptographically* through the check field. This crate implements the
//! capability itself ([`Capability`]), typed rights ([`Rights`]), and the
//! paper's **four protection schemes** (module [`schemes`]):
//!
//! | # | paper's description | mint | validate | restrict rights |
//! |---|---|---|---|---|
//! | 0 | random-number compare | server | compare | all-or-nothing |
//! | 1 | encrypted `RIGHTS‖RANDOM` field | server | decrypt, check constant | server round trip |
//! | 2 | `CHECK = F(random XOR rights)` | server | recompute | server round trip |
//! | 3 | commutative one-way functions | server | re-apply deleted `F_k` | **client-side** |
//!
//! Revocation (change the object's random number, instantly invalidating
//! every outstanding capability) lives in `amoeba-server`'s object
//! table, which owns the per-object secrets.
//!
//! # Example: mint, validate, and delegate read-only
//!
//! ```
//! use amoeba_cap::{schemes::{CommutativeScheme, ProtectionScheme}, ObjectNum, Rights};
//! use amoeba_crypto::SecretStream;
//! use amoeba_net::Port;
//!
//! let scheme = CommutativeScheme::standard();
//! let secret = scheme.new_secret(&mut SecretStream::from_entropy());
//!
//! let port = Port::new(0xF11E).unwrap();
//! let cap = scheme.mint(port, ObjectNum::new(7).unwrap(), &secret);
//! assert_eq!(scheme.validate(&cap, &secret).unwrap(), Rights::ALL);
//!
//! // The *client* strips everything but READ — no server round trip.
//! let read_only = scheme.diminish(&cap, Rights::ALL.without(Rights::READ)).unwrap();
//! assert_eq!(scheme.validate(&read_only, &secret).unwrap(), Rights::READ);
//!
//! // Tampering the rights field back on is detected.
//! let forged = read_only.with_rights(Rights::ALL);
//! assert!(scheme.validate(&forged, &secret).is_err());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod capability;
mod error;
mod rights;
pub mod schemes;

pub use capability::{Capability, ObjectNum};
pub use error::CapError;
pub use rights::Rights;
