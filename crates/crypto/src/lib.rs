//! From-scratch cryptographic primitives for the Amoeba sparse-capability
//! reproduction.
//!
//! The 1986 paper relies on a small set of unusual primitives that no
//! off-the-shelf crate provides in the required shapes:
//!
//! * a **public one-way function** `F` over 48-bit port numbers
//!   (`P = F(G)`, §2.2 of the paper) — provided both as the historically
//!   cited [Purdy polynomial](purdy) and as a modern
//!   [SHA-256-based](oneway::ShaOneWay) construction;
//! * a **56-bit block cipher** for protection *scheme 1*, which encrypts
//!   the concatenated `RIGHTS‖RANDOM` field of a capability as a single
//!   56-bit value ([`feistel`]);
//! * a family of **commutative one-way functions** for protection
//!   *scheme 3*, letting clients delete rights without a server round
//!   trip ([`commutative`]);
//! * **DES**, the "conventional" cipher the paper names for the software
//!   key-matrix scheme of §2.4 ([`des`]);
//! * a **public-key system** for the key-establishment handshake of §2.4
//!   ([`rsa`] — simulation-scale, *not* secure);
//! * the **one source of secrets** every check field, object secret,
//!   port and key is drawn from: SHA-256 in counter mode ([`secret`]).
//!
//! Everything here is dependency-free, deterministic apart from the
//! entropy-keyed [`SecretStream`], and extensively tested against
//! published vectors where they exist (SHA-256, DES).
//!
//! # Example
//!
//! ```
//! use amoeba_crypto::oneway::{OneWay, ShaOneWay};
//!
//! let f = ShaOneWay::default();
//! let get_port = 0x1234_5678_9abc_u64; // server's secret
//! let put_port = f.apply48(get_port);  // published
//! assert_ne!(get_port, put_port);
//! // Applying F again does not recover the get-port.
//! assert_ne!(f.apply48(put_port), get_port);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod commutative;
pub mod des;
pub mod feistel;
pub mod modmath;
pub mod oneway;
pub mod purdy;
pub mod rsa;
pub mod secret;
pub mod sha256;

pub use commutative::CommutativeOwfFamily;
pub use des::{Des, TripleDes};
pub use feistel::Feistel56;
pub use oneway::{OneWay, PurdyOneWay, ShaOneWay};
pub use secret::{secret_u64, SecretStream};
pub use sha256::Sha256;
