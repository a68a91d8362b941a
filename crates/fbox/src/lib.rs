//! The Amoeba **F-box** (Function-box), §2.2 and Fig 1 of the paper.
//!
//! Every message entering or leaving a processor passes through a small
//! interface box that applies a publicly known one-way function `F`:
//!
//! * a process that does `GET(G)` causes its F-box to listen for frames
//!   whose destination field equals `P = F(G)` — the *put-port*;
//! * on transmission, the F-box replaces the **reply** field `G′` with
//!   `F(G′)` and the **signature** field `S` with `F(S)`; the
//!   **destination** field passes through untouched.
//!
//! Because `G` never appears on the wire and `F` cannot be inverted, an
//! intruder cannot impersonate a server: `GET(P)` just makes his F-box
//! listen on the useless port `F(P)`. Signatures work the same way — only
//! the true owner of `S` can cause the published `F(S)` to appear on the
//! wire.
//!
//! The box can be realised in VLSI on the network interface
//! ([`Placement::Hardware`]) or inside a trusted kernel
//! ([`Placement::TrustedKernel`]); the transformation is identical, which
//! is exactly the paper's point — the mechanism fixes no policy.
//!
//! # Example
//!
//! ```
//! use amoeba_crypto::oneway::{OneWay, ShaOneWay};
//! use amoeba_fbox::FBox;
//! use amoeba_net::{Header, Network, Port};
//! use bytes::Bytes;
//! use std::sync::Arc;
//!
//! let f = ShaOneWay;
//! let net = Network::new();
//! let server = net.attach(Arc::new(FBox::hardware(f.clone())));
//!
//! // Server chooses a secret get-port and publishes the put-port.
//! let g = Port::new(0xC0FFEE).unwrap();
//! let p = server.claim(g); // F-box listens on P = F(G)
//!
//! let client = net.attach(Arc::new(FBox::hardware(f)));
//! client.send(Header::to(p), Bytes::from_static(b"request"));
//! assert_eq!(&server.recv().unwrap().payload[..], b"request");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use amoeba_crypto::oneway::OneWay;
use amoeba_net::{Header, NetworkInterface, Port};
use parking_lot::Mutex;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};

/// Capacity bound of the per-box `F` memo table. When full the table
/// is cleared wholesale (memoization is a pure cache — correctness
/// never depends on a hit), so a client churning through random
/// transaction ports cannot grow it without bound.
pub const FBOX_CACHE_CAPACITY: usize = 1024;

/// Where the F-box transformation is enforced.
///
/// The paper allows either; protection is identical. The distinction
/// matters operationally: hardware boxes protect even against users who
/// re-flash their kernels, while the trusted-kernel variant assumes the
/// kernel is honest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Placement {
    /// On the VLSI network-interface chip (or the wall-socket board).
    Hardware,
    /// Inside a trusted operating-system kernel.
    TrustedKernel,
}

/// An F-box bound to one machine's network interface.
///
/// Generic over the public one-way function so the Purdy and SHA-256
/// constructions can be compared (F1b in `examples/paper_report.rs`).
#[derive(Debug)]
pub struct FBox<F: OneWay> {
    f: F,
    placement: Placement,
    listening: Mutex<HashSet<Port>>,
    /// Memo table `x → F(x)`. The paper imagines `F` as VLSI precisely
    /// because it sits on the per-packet path; this cache makes the
    /// same assumption explicit in software — `F` runs once per *port*,
    /// not once per packet. Safe because `F` is pure and public:
    /// caching changes cost, never results.
    cache: Mutex<HashMap<u64, u64>>,
    /// Actual `F` evaluations performed (cache hits excluded) — the
    /// crypto cost this box has really paid, exposed through
    /// [`NetworkInterface::crypto_evals`].
    evals: AtomicU64,
}

impl<F: OneWay> FBox<F> {
    /// An F-box on the network-interface hardware.
    pub fn hardware(f: F) -> Self {
        Self::with_placement(f, Placement::Hardware)
    }

    /// An F-box implemented by a trusted kernel.
    pub fn trusted_kernel(f: F) -> Self {
        Self::with_placement(f, Placement::TrustedKernel)
    }

    /// An F-box with explicit placement.
    pub fn with_placement(f: F, placement: Placement) -> Self {
        FBox {
            f,
            placement,
            listening: Mutex::new(HashSet::new()),
            cache: Mutex::new(HashMap::new()),
            evals: AtomicU64::new(0),
        }
    }

    /// Where this box is enforced.
    pub fn placement(&self) -> Placement {
        self.placement
    }

    /// One-way-function evaluations actually performed by this box
    /// (memoization hits excluded).
    pub fn evals(&self) -> u64 {
        self.evals.load(Ordering::Relaxed)
    }

    /// Computes the put-port `P = F(G)` for a get-port — what a server
    /// publishes to its clients. Memoized per box (bounded by
    /// [`FBOX_CACHE_CAPACITY`]).
    pub fn put_port(&self, get_port: Port) -> Port {
        let x = get_port.value();
        if let Some(&y) = self.cache.lock().get(&x) {
            return Port::from_raw(y);
        }
        self.evals.fetch_add(1, Ordering::Relaxed);
        let y = self.f.apply48(x);
        let mut cache = self.cache.lock();
        if cache.len() >= FBOX_CACHE_CAPACITY {
            cache.clear();
        }
        cache.insert(x, y);
        Port::from_raw(y)
    }
}

/// Computes `P = F(G)` with an explicit function — used by processes
/// that need to publish a put-port without owning an F-box instance.
pub fn put_port_of<F: OneWay>(f: &F, get_port: Port) -> Port {
    Port::from_raw(f.apply48(get_port.value()))
}

impl<F: OneWay> NetworkInterface for FBox<F> {
    /// `GET(G)`: listen for frames destined to `F(G)`.
    fn claim(&self, get_port: Port) -> Port {
        let wire = self.put_port(get_port);
        self.listening.lock().insert(wire);
        wire
    }

    fn release(&self, get_port: Port) -> Port {
        let wire = self.put_port(get_port);
        self.listening.lock().remove(&wire);
        wire
    }

    /// The transmission transform: `dest` passes through, `reply` and
    /// `signature` are one-way'd. "The F-box on the sender's side does
    /// not perform any transformation on the P field of the outgoing
    /// message."
    fn egress(&self, header: &mut Header) {
        if !header.reply.is_null() {
            header.reply = self.put_port(header.reply);
        }
        if !header.signature.is_null() {
            header.signature = self.put_port(header.signature);
        }
    }

    fn accepts(&self, dest: Port) -> bool {
        self.listening.lock().contains(&dest)
    }

    fn crypto_evals(&self) -> u64 {
        self.evals()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amoeba_crypto::oneway::{PurdyOneWay, ShaOneWay};
    use amoeba_net::Network;
    use bytes::Bytes;
    use std::sync::Arc;

    fn port(v: u64) -> Port {
        Port::new(v).unwrap()
    }

    #[test]
    fn claim_listens_on_f_of_g() {
        let fbox = FBox::hardware(ShaOneWay);
        let g = port(0xAB);
        let p = fbox.claim(g);
        assert_ne!(p, g);
        assert!(fbox.accepts(p));
        assert!(!fbox.accepts(g), "the get-port itself is never on the wire");
    }

    #[test]
    fn release_stops_listening() {
        let fbox = FBox::hardware(ShaOneWay);
        let g = port(0xAB);
        let p = fbox.claim(g);
        fbox.release(g);
        assert!(!fbox.accepts(p));
    }

    #[test]
    fn egress_transforms_reply_and_signature_not_dest() {
        let fbox = FBox::hardware(ShaOneWay);
        let dest = port(1);
        let reply_g = port(2);
        let sig = port(3);
        let mut h = Header::to(dest).with_reply(reply_g).with_signature(sig);
        fbox.egress(&mut h);
        assert_eq!(h.dest, dest);
        assert_eq!(h.reply, fbox.put_port(reply_g));
        assert_eq!(h.signature, fbox.put_port(sig));
    }

    #[test]
    fn egress_leaves_null_fields_alone() {
        let fbox = FBox::hardware(ShaOneWay);
        let mut h = Header::to(port(1));
        fbox.egress(&mut h);
        assert!(h.reply.is_null());
        assert!(h.signature.is_null());
    }

    #[test]
    fn intruder_get_p_listens_on_useless_port() {
        // The core Fig 1 property at the unit level.
        let f = ShaOneWay;
        let net = Network::new();
        let server = net.attach(Arc::new(FBox::hardware(f.clone())));
        let intruder = net.attach(Arc::new(FBox::hardware(f.clone())));
        let client = net.attach(Arc::new(FBox::hardware(f)));

        let g = port(0x5EC2E7);
        let p = server.claim(g);
        intruder.claim(p); // intruder tries GET(P)

        let n = client.send(Header::to(p), Bytes::from_static(b"for server only"));
        assert_eq!(n.delivered, 1, "exactly the real server receives");
        assert!(server.recv().is_ok());
        assert!(intruder.try_recv().is_none());
    }

    #[test]
    fn placements_behave_identically() {
        let hw = FBox::hardware(ShaOneWay);
        let sw = FBox::trusted_kernel(ShaOneWay);
        assert_eq!(hw.placement(), Placement::Hardware);
        assert_eq!(sw.placement(), Placement::TrustedKernel);
        let g = port(0x99);
        assert_eq!(hw.claim(g), sw.claim(g));
        let mut h1 = Header::to(port(1)).with_reply(port(2));
        let mut h2 = h1;
        hw.egress(&mut h1);
        sw.egress(&mut h2);
        assert_eq!(h1, h2);
    }

    #[test]
    fn purdy_and_sha_boxes_differ() {
        // All machines on one network must share the same public F; two
        // different F families produce different put-ports.
        let g = port(0x1234);
        let sha_box = FBox::hardware(ShaOneWay);
        let purdy_box = FBox::hardware(PurdyOneWay::new());
        assert_ne!(sha_box.put_port(g), purdy_box.put_port(g));
    }

    #[test]
    fn put_port_of_matches_fbox() {
        let f = ShaOneWay;
        let fbox = FBox::hardware(f.clone());
        let g = port(0xFEED);
        assert_eq!(put_port_of(&f, g), fbox.put_port(g));
    }

    #[test]
    fn memoized_box_evaluates_f_once_per_port() {
        let fbox = FBox::hardware(ShaOneWay);
        let g = port(0x1001);
        let p = fbox.put_port(g);
        assert_eq!(fbox.evals(), 1);
        // Repeated sends/claims on the same port hit the cache.
        for _ in 0..100 {
            assert_eq!(fbox.put_port(g), p);
            let mut h = Header::to(port(1)).with_reply(g);
            fbox.egress(&mut h);
            assert_eq!(h.reply, p);
        }
        assert_eq!(fbox.evals(), 1, "F must run once per port, not per packet");
        assert_eq!(fbox.crypto_evals(), 1, "NIC hook mirrors the counter");
        assert_eq!(put_port_of(&ShaOneWay, g), p, "cache is pure");
    }

    #[test]
    fn cache_stays_bounded_under_port_churn() {
        let fbox = FBox::hardware(ShaOneWay);
        for v in 1..=(2 * FBOX_CACHE_CAPACITY as u64 + 7) {
            fbox.put_port(port(v));
        }
        let cached = fbox.cache.lock().len();
        assert!(
            cached <= FBOX_CACHE_CAPACITY,
            "memo table exceeded its bound: {cached}"
        );
        // Still correct after the wholesale clears.
        let g = port(3);
        assert_eq!(fbox.put_port(g), put_port_of(&ShaOneWay, g));
    }
}
