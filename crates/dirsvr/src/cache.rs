//! The client-side capability cache: (directory capability, name) →
//! capability, with a TTL riding the network's shared [`Clock`].
//!
//! The **parent directory is the unit of caching**, as it is the unit
//! of storage on the server (§3.4: a directory is a set of (name,
//! capability) pairs). A leaf takes one slot, keyed by the directory it
//! is entered in; a directory reached by a longer walk takes one more,
//! keyed `(start, "a/b/c")`. [`CapCache::get`] puts the two together: a
//! multi-segment path is its dirname's entry, then its basename under
//! that parent — so every leaf of one directory shares the entry that
//! names the directory, and no slot holds a whole path to a leaf.
//! Names are normalised where they are hashed (empty segments do not
//! count), so `"a//b/"`, `"/a/b"` and `"a/b"` are one key.
//!
//! The hit path is the whole point: **zero heap allocations and zero
//! locks**, so a cached lookup costs hashing the name plus a handful
//! of atomic loads — cheap enough to consult before every resolution
//! hop. Like the F-box memo, this is a *pure cache*: bounded by
//! construction (a fixed direct-mapped slot array, collisions simply
//! overwrite), safe to drop wholesale, never authoritative. Staleness
//! is bounded by the TTL — a concurrent rename on another client is
//! visible here for at most `ttl` of timeline time — and the owning
//! [`DirClient`](crate::DirClient) invalidates eagerly on its own
//! `NotFound`s, removes and renames.
//!
//! Dropping the cache wholesale is one atomic store. Every entry is
//! written under a **generation** and served only while the cache is
//! still in it, so [`CapCache::clear`] bumps the counter and visits no
//! slot. The generation is also what orders an insert against a clear
//! it races: a caller reads [`CapCache::generation`] *before* it asks
//! the server, and records the answer under that generation
//! ([`CapCache::insert_under`]) — if a mutation's clear came in
//! between, the entry is born dead instead of outliving the clear for
//! a whole TTL.
//!
//! Each slot is a tiny seqlock (the flight-recorder idiom, but with
//! CAS-claimed write ownership so a torn write can never be
//! *accepted*): an even stamp brackets stable fields, an odd stamp
//! marks a write in progress, and both readers and competing writers
//! simply treat a busy slot as a miss — caches may always miss.
//!
//! [`Clock`]: amoeba_net::Clock

use amoeba_cap::Capability;
use amoeba_net::Timestamp;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Slot count; a power of two so indexing is one mask. 512 slots × 7
/// words ≈ 28 KiB per client.
const SLOTS: usize = 512;

/// FNV-1a offset basis (the standard one) and a second, independent
/// basis so every key carries 128 bits of hash: a single 64-bit hash
/// indexes the table, but accepting a hit on it alone would let a
/// colliding name silently return the wrong capability.
const FNV_BASIS_A: u64 = 0xCBF2_9CE4_8422_2325;
const FNV_BASIS_B: u64 = 0xAF63_BD4C_8601_B7DF;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

#[derive(Debug)]
struct Slot {
    /// 0 = never written; odd = write in progress; even ≥ 2 = stable.
    stamp: AtomicU64,
    key_a: AtomicU64,
    key_b: AtomicU64,
    /// The 16-byte wire form of the cached capability, split across
    /// two words.
    cap_hi: AtomicU64,
    cap_lo: AtomicU64,
    /// Timeline nanoseconds after which the entry is dead. 0 = dead.
    expires_ns: AtomicU64,
    /// The cache generation the entry was written under; dead in any
    /// other.
    generation: AtomicU64,
}

impl Slot {
    const fn empty() -> Slot {
        Slot {
            stamp: AtomicU64::new(0),
            key_a: AtomicU64::new(0),
            key_b: AtomicU64::new(0),
            cap_hi: AtomicU64::new(0),
            cap_lo: AtomicU64::new(0),
            expires_ns: AtomicU64::new(0),
            generation: AtomicU64::new(0),
        }
    }

    /// Claims write ownership: the stamp goes odd, or the slot is busy
    /// and the write is skipped (insertion is best-effort).
    fn claim(&self) -> Option<u64> {
        let s = self.stamp.load(Ordering::Acquire);
        if s % 2 == 1 {
            return None;
        }
        self.stamp
            .compare_exchange(s, s + 1, Ordering::AcqRel, Ordering::Relaxed)
            .ok()
            .map(|_| s)
    }
}

/// A bounded, lock-free (dir-cap, name) → capability cache.
///
/// See the `cache` module docs for the staleness contract.
#[derive(Debug)]
pub struct CapCache {
    slots: Box<[Slot]>,
    ttl_ns: u64,
    /// Bumped by [`clear`](Self::clear) with `Release`, read with
    /// `Acquire` by `get` and by callers about to ask a server: a
    /// thread that sees the bump also sees whatever the clearing
    /// thread learned before it (the mutation's reply).
    generation: AtomicU64,
}

/// Both 64-bit FNV-1a hashes of `(dir, name)` in one pass: the two
/// multiply chains are independent, so the second rides in the first's
/// latency shadow instead of doubling it. `name` is hashed in its
/// normal form — segments joined by single slashes, none leading or
/// trailing.
fn key(dir: &Capability, name: &str) -> (u64, u64) {
    let (mut a, mut b) = (FNV_BASIS_A, FNV_BASIS_B);
    let mut mix = |byte: u8| {
        a = (a ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
        b = (b ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
    };
    dir.encode().into_iter().for_each(&mut mix);
    // A slash is owed once a segment has ended, and paid only when
    // another begins.
    let (mut in_path, mut owed) = (false, false);
    for byte in name.bytes() {
        if byte == b'/' {
            owed = in_path;
            continue;
        }
        if owed {
            mix(b'/');
            owed = false;
        }
        mix(byte);
        in_path = true;
    }
    (a, b)
}

/// The direct-mapped slot a key's first hash lives in.
fn slot_of(key_a: u64) -> usize {
    (key_a as usize) & (SLOTS - 1)
}

/// The slot `(dir, name)` lives in, for tests whose counts hold only
/// while their entries do not evict one another.
#[cfg(test)]
pub(crate) fn slot_index(dir: &Capability, name: &str) -> usize {
    slot_of(key(dir, name).0)
}

/// Splits `path` at its last segment: `(dirname, basename)`, with
/// `dirname` empty when the path has a single segment (or none).
pub(crate) fn split_leaf(path: &str) -> (&str, &str) {
    let path = path.trim_end_matches('/');
    match path.rfind('/') {
        Some(slash) => (path[..slash].trim_end_matches('/'), &path[slash + 1..]),
        None => ("", path),
    }
}

fn nanos(t: Timestamp) -> u64 {
    t.since_epoch().as_nanos().min(u64::MAX as u128) as u64
}

impl CapCache {
    /// An empty cache whose entries live for `ttl` of timeline time.
    pub fn new(ttl: Duration) -> CapCache {
        let mut slots = Vec::with_capacity(SLOTS);
        slots.resize_with(SLOTS, Slot::empty);
        CapCache {
            slots: slots.into_boxed_slice(),
            ttl_ns: ttl.as_nanos().min(u64::MAX as u128) as u64,
            generation: AtomicU64::new(0),
        }
    }

    /// The configured entry lifetime.
    pub fn ttl(&self) -> Duration {
        Duration::from_nanos(self.ttl_ns)
    }

    fn slot(&self, key_a: u64) -> &Slot {
        &self.slots[slot_of(key_a)]
    }

    /// The generation the cache is in. Read it **before** sending the
    /// request whose answer will be cached, and hand it to
    /// [`insert_under`](Self::insert_under).
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// Looks `path` up under `dir`; `now` is the network's timeline
    /// time. A single name is one probe; a multi-segment path is two —
    /// `(dir, dirname)` for the parent directory, then `(parent,
    /// basename)` — which is exactly what
    /// [`DirClient::resolve`](crate::DirClient::resolve) consults before
    /// it sends anything: a hit here is a resolve without a frame.
    ///
    /// Zero allocations, zero locks, bounded work — a busy or torn
    /// slot reads as a miss rather than being retried, and so does an
    /// entry written under any generation but the current one.
    pub fn get(&self, dir: &Capability, path: &str, now: Timestamp) -> Option<Capability> {
        let (dirname, leaf) = split_leaf(path);
        let parent = self.parent(dir, dirname, now)?;
        self.probe(&parent, leaf, now)
    }

    /// The directory `dirname` names under `dir`: `dir` itself for the
    /// empty dirname of a single-segment path, else the memoised one.
    pub(crate) fn parent(
        &self,
        dir: &Capability,
        dirname: &str,
        now: Timestamp,
    ) -> Option<Capability> {
        if dirname.is_empty() {
            Some(*dir)
        } else {
            self.probe(dir, dirname, now)
        }
    }

    /// The one slot `(dir, name)` hashes to, if it holds that key alive.
    pub(crate) fn probe(&self, dir: &Capability, name: &str, now: Timestamp) -> Option<Capability> {
        let (key_a, key_b) = key(dir, name);
        let slot = self.slot(key_a);
        let s1 = slot.stamp.load(Ordering::Acquire);
        if s1 == 0 || s1 % 2 == 1 {
            return None;
        }
        let seen_a = slot.key_a.load(Ordering::Acquire);
        let seen_b = slot.key_b.load(Ordering::Acquire);
        let cap_hi = slot.cap_hi.load(Ordering::Acquire);
        let cap_lo = slot.cap_lo.load(Ordering::Acquire);
        let expires = slot.expires_ns.load(Ordering::Acquire);
        let written_under = slot.generation.load(Ordering::Acquire);
        if slot.stamp.load(Ordering::Acquire) != s1 {
            return None;
        }
        if seen_a != key_a || seen_b != key_b {
            return None;
        }
        if nanos(now) >= expires || written_under != self.generation() {
            return None;
        }
        let mut wire = [0u8; 16];
        wire[..8].copy_from_slice(&cap_hi.to_be_bytes());
        wire[8..].copy_from_slice(&cap_lo.to_be_bytes());
        Capability::decode(&wire)
    }

    /// Records `(dir, name) → cap` in one slot, expiring `ttl` from
    /// `now`. Best-effort: a slot busy under a concurrent writer is
    /// skipped. A multi-segment `name` is a *directory* memo — the key
    /// [`get`](Self::get) looks a path's dirname up under, not a path
    /// `get` would find a leaf by.
    ///
    /// For a capability that did not come from a server just now (a
    /// test, a warm-up); an answer that raced a possible
    /// [`clear`](Self::clear) goes through
    /// [`insert_under`](Self::insert_under).
    pub fn insert(&self, dir: &Capability, name: &str, cap: &Capability, now: Timestamp) {
        self.insert_under(self.generation(), dir, name, cap, now);
    }

    /// [`insert`](Self::insert) under the generation the caller read
    /// before it asked the server. If the cache has been cleared since,
    /// the entry never hits: what the server said before a mutation is
    /// not served after it.
    pub fn insert_under(
        &self,
        generation: u64,
        dir: &Capability,
        name: &str,
        cap: &Capability,
        now: Timestamp,
    ) {
        let (key_a, key_b) = key(dir, name);
        let slot = self.slot(key_a);
        let Some(s) = slot.claim() else { return };
        let wire = cap.encode();
        let mut hi = [0u8; 8];
        let mut lo = [0u8; 8];
        hi.copy_from_slice(&wire[..8]);
        lo.copy_from_slice(&wire[8..]);
        slot.key_a.store(key_a, Ordering::Release);
        slot.key_b.store(key_b, Ordering::Release);
        slot.cap_hi.store(u64::from_be_bytes(hi), Ordering::Release);
        slot.cap_lo.store(u64::from_be_bytes(lo), Ordering::Release);
        slot.expires_ns
            .store(nanos(now).saturating_add(self.ttl_ns), Ordering::Release);
        slot.generation.store(generation, Ordering::Release);
        slot.stamp.store(s + 2, Ordering::Release);
    }

    /// Kills the one entry keyed `(dir, name)` — called on `NotFound`,
    /// so a name another client removed stops being served the moment
    /// this client notices, and on a directory memo that led a resolve
    /// to an error.
    pub fn invalidate(&self, dir: &Capability, name: &str) {
        let (key_a, key_b) = key(dir, name);
        let slot = self.slot(key_a);
        let Some(s) = slot.claim() else { return };
        if slot.key_a.load(Ordering::Acquire) == key_a
            && slot.key_b.load(Ordering::Acquire) == key_b
        {
            slot.expires_ns.store(0, Ordering::Release);
        }
        slot.stamp.store(s + 2, Ordering::Release);
    }

    /// How many slot writes (inserts and invalidations that claimed
    /// their slot) the cache has taken: every one moves a stamp by two.
    #[cfg(test)]
    pub(crate) fn writes(&self) -> u64 {
        let stamps = self.slots.iter().map(|s| s.stamp.load(Ordering::Acquire));
        stamps.map(|stamp| stamp / 2).sum()
    }

    /// Kills *every* entry, by leaving the generation they were
    /// written under — one atomic add, no slot visited. Called after a
    /// remove or rename, because directories reached by a longer walk
    /// are memoised under composite `(start, "a/b/c")` keys — the
    /// removed name may be any segment of any of them, and a targeted
    /// invalidation cannot enumerate keys it only has hashes of; nor
    /// can it reach an answer still in flight. A pure cache may
    /// always be dropped; this keeps "this client's own mutations are
    /// never served stale" unconditional — including against an answer
    /// that was on its way while the mutation ran (see
    /// [`insert_under`](Self::insert_under)).
    pub fn clear(&self) {
        self.generation.fetch_add(1, Ordering::AcqRel);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amoeba_cap::{ObjectNum, Rights};
    use amoeba_net::Port;

    fn cap(object: u32) -> Capability {
        Capability::new(
            Port::new(0xD1D1).unwrap(),
            ObjectNum::new(object).unwrap(),
            Rights::ALL,
            0xC0FFEE,
        )
    }

    fn at(ns: u64) -> Timestamp {
        Timestamp::ZERO + Duration::from_nanos(ns)
    }

    #[test]
    fn hit_roundtrips_the_capability() {
        let cache = CapCache::new(Duration::from_secs(1));
        let dir = cap(1);
        let target = cap(2);
        assert_eq!(cache.get(&dir, "x", at(0)), None);
        cache.insert(&dir, "x", &target, at(0));
        assert_eq!(cache.get(&dir, "x", at(10)), Some(target));
        // A different name or directory misses.
        assert_eq!(cache.get(&dir, "y", at(10)), None);
        assert_eq!(cache.get(&cap(3), "x", at(10)), None);
    }

    #[test]
    fn a_path_is_its_dirname_entry_then_its_basename_under_that_parent() {
        let cache = CapCache::new(Duration::from_secs(1));
        let (root, parent, leaf, sibling) = (cap(1), cap(2), cap(3), cap(4));
        cache.insert(&root, "a/b", &parent, at(0));
        cache.insert(&parent, "c", &leaf, at(0));
        assert_eq!(cache.get(&root, "a/b/c", at(1)), Some(leaf));
        // The directory memo is an entry like any other...
        assert_eq!(cache.probe(&root, "a/b", at(1)), Some(parent));
        // ...but `get` reads a path as (dirname, basename): "a/b" is
        // `b` under whatever `(root, "a")` names, which nobody recorded.
        assert_eq!(cache.get(&root, "a/b", at(1)), None);
        // A sibling costs one more slot, not a path of its own.
        let before = cache.writes();
        assert_eq!(cache.get(&root, "a/b/d", at(1)), None);
        cache.insert(&parent, "d", &sibling, at(1));
        assert_eq!(cache.get(&root, "a/b/d", at(2)), Some(sibling));
        assert_eq!(cache.writes() - before, 1);
        // Without the parent there is no way to the leaves.
        cache.invalidate(&root, "a/b");
        assert_eq!(cache.get(&root, "a/b/c", at(2)), None);
        assert_eq!(cache.get(&parent, "c", at(2)), Some(leaf));
    }

    #[test]
    fn spellings_of_one_path_are_one_key() {
        let cache = CapCache::new(Duration::from_secs(1));
        let (root, parent, leaf) = (cap(1), cap(2), cap(3));
        cache.insert(&root, "/a//b/", &parent, at(0));
        cache.insert(&parent, "c/", &leaf, at(0));
        assert_eq!(cache.writes(), 2);
        for spelling in ["a/b/c", "/a/b/c", "a//b/c/", "//a/b//c//"] {
            assert_eq!(cache.get(&root, spelling, at(1)), Some(leaf), "{spelling}");
        }
        assert_eq!(key(&root, "a//b/"), key(&root, "a/b"));
        assert_eq!(key(&root, "/a/b"), key(&root, "a/b"));
        assert_ne!(key(&root, "ab"), key(&root, "a/b"));
        assert_eq!(split_leaf("a//b/"), ("a", "b"));
        assert_eq!(split_leaf("/a"), ("", "a"));
        assert_eq!(split_leaf("//"), ("", ""));
        // Rewriting under another spelling lands on the same slot.
        cache.insert(&root, "a/b", &cap(9), at(1));
        assert_eq!(cache.probe(&root, "/a//b/", at(2)), Some(cap(9)));
    }

    #[test]
    fn both_hashes_are_plain_fnv1a_of_the_normal_form() {
        let dir = cap(7);
        let reference = |basis: u64| {
            let bytes = dir.encode().into_iter().chain("seg0/seg1/f17".bytes());
            bytes.fold(basis, |h, byte| {
                (h ^ u64::from(byte)).wrapping_mul(FNV_PRIME)
            })
        };
        assert_eq!(
            key(&dir, "/seg0//seg1/f17/"),
            (reference(FNV_BASIS_A), reference(FNV_BASIS_B))
        );
    }

    #[test]
    fn entries_expire_at_ttl() {
        let cache = CapCache::new(Duration::from_nanos(100));
        let (dir, target) = (cap(1), cap(2));
        cache.insert(&dir, "x", &target, at(50));
        assert_eq!(cache.get(&dir, "x", at(149)), Some(target));
        assert_eq!(cache.get(&dir, "x", at(150)), None, "dead exactly at TTL");
    }

    #[test]
    fn invalidate_kills_only_its_key() {
        let cache = CapCache::new(Duration::from_secs(1));
        let dir = cap(1);
        cache.insert(&dir, "a", &cap(2), at(0));
        cache.insert(&dir, "b", &cap(3), at(0));
        cache.invalidate(&dir, "a");
        assert_eq!(cache.get(&dir, "a", at(1)), None);
        assert_eq!(cache.get(&dir, "b", at(1)), Some(cap(3)));
        // Invalidating an absent name must not kill a colliding slot's
        // different key.
        cache.invalidate(&dir, "never-inserted");
        assert_eq!(cache.get(&dir, "b", at(1)), Some(cap(3)));
    }

    #[test]
    fn an_insert_under_a_generation_that_has_ended_never_hits() {
        let cache = CapCache::new(Duration::from_secs(1));
        let (dir, target) = (cap(1), cap(2));
        // The caller read the generation, asked its server, and the
        // cache was cleared before the answer came back.
        let asked_in = cache.generation();
        cache.clear();
        cache.insert_under(asked_in, &dir, "x", &target, at(0));
        assert_eq!(cache.get(&dir, "x", at(1)), None, "born dead");
        // An answer asked for after the clear is served.
        cache.insert_under(cache.generation(), &dir, "x", &target, at(1));
        assert_eq!(cache.get(&dir, "x", at(2)), Some(target));
        // And a late stale answer evicts it rather than reviving
        // itself: the slot is direct-mapped, the key identical.
        cache.insert_under(asked_in, &dir, "x", &cap(3), at(2));
        assert_eq!(cache.get(&dir, "x", at(3)), None);
    }

    /// Four threads on four names of one slot: two insert under the
    /// generation they read, one clears, one reads. Whatever the reader
    /// is served must be the capability of the name it asked for, and
    /// written under a generation that had not ended when the read
    /// began — each capability carries its generation in the object
    /// number, so the reader can tell.
    #[test]
    fn concurrent_insert_clear_get_never_serves_an_ended_generation() {
        use std::sync::atomic::AtomicBool;

        // The reader wants both: many clears raced, many hits checked.
        const CLEARS: u64 = 10_000;
        const HITS: u64 = 1_000;
        // The generation must fit the object number beside the name.
        const LAST_GENERATION: u64 = (ObjectNum::MAX >> 2) as u64;

        let cache = CapCache::new(Duration::from_secs(3600));
        let dir = cap(1);
        let names: Vec<String> = std::iter::once("n-0".to_owned())
            .chain((1..4).map(|i| colliding_name(&dir, "n-0", i)))
            .collect();
        let tagged = |name: usize, generation: u64| cap((generation as u32) << 2 | name as u32);
        let done = AtomicBool::new(false);
        std::thread::scope(|s| {
            for writer in 0..2usize {
                let (cache, names, dir, done) = (&cache, &names, &dir, &done);
                s.spawn(move || {
                    while !done.load(Ordering::Acquire) {
                        for name in [writer, writer + 2] {
                            let g = cache.generation();
                            cache.insert_under(g, dir, &names[name], &tagged(name, g), at(0));
                        }
                    }
                });
            }
            s.spawn(|| {
                while !done.load(Ordering::Acquire) && cache.generation() < LAST_GENERATION {
                    cache.clear();
                    // A few microseconds per generation, so that some
                    // inserts live long enough to be read.
                    for _ in 0..1_000 {
                        std::hint::spin_loop();
                    }
                }
            });
            let mut hits = 0u64;
            while hits < HITS || cache.generation() < CLEARS {
                for (name, key) in names.iter().enumerate() {
                    let began_in = cache.generation();
                    if let Some(got) = cache.get(&dir, key, at(1)) {
                        hits += 1;
                        let object = got.object.value();
                        assert_eq!(object & 3, name as u32, "served another key's capability");
                        assert!(
                            u64::from(object >> 2) >= began_in,
                            "served generation {} after {began_in} began",
                            object >> 2
                        );
                    }
                }
            }
            done.store(true, Ordering::Release);
        });
    }

    use proptest::prelude::*;

    /// A name that shares `reference`'s direct-mapped slot under `dir`
    /// but is a different key — the adversarial collision the 128-bit
    /// key check exists for. With 512 slots, ~512 candidates suffice.
    fn colliding_name(dir: &Capability, reference: &str, tag: usize) -> String {
        let slot = slot_index(dir, reference);
        (0usize..)
            .map(|i| format!("collide-{tag}-{i}"))
            .find(|n| slot_index(dir, n) == slot)
            .expect("the candidate stream is infinite")
    }

    proptest! {
        /// Two distinct keys landing in the same slot must never serve
        /// each other's capability — a collision is a miss (or, after
        /// an overwrite, an eviction), never an alias.
        #[test]
        fn same_slot_keys_never_alias(
            dir_obj in 0u32..=ObjectNum::MAX,
            target_obj in 0u32..ObjectNum::MAX,
            tag in 0usize..10_000,
        ) {
            let cache = CapCache::new(Duration::from_secs(1));
            let dir = cap(dir_obj);
            let name1 = format!("n-{tag}");
            let name2 = colliding_name(&dir, &name1, tag);
            let (first, second) = (cap(target_obj), cap(target_obj + 1));

            cache.insert(&dir, &name1, &first, at(0));
            // The colliding key reads the same slot and must miss.
            prop_assert_eq!(cache.get(&dir, &name2, at(1)), None);
            prop_assert_eq!(cache.get(&dir, &name1, at(1)), Some(first));

            // Direct-mapped overwrite: the new key wins the slot and
            // the evicted key must miss, not serve the winner's cap.
            cache.insert(&dir, &name2, &second, at(1));
            prop_assert_eq!(cache.get(&dir, &name2, at(2)), Some(second));
            prop_assert_eq!(cache.get(&dir, &name1, at(2)), None);
        }

        /// The clear contract: nothing inserted before a `clear` is
        /// served after it, everything inserted after it is — for any
        /// interleaving of inserts (some under a generation read
        /// before the last clear, as a racing resolve would) and
        /// clears over a handful of keys.
        #[test]
        fn nothing_inserted_before_a_clear_is_served_after_it(
            steps in proptest::collection::vec((0u8..3, 0usize..6, any::<bool>()), 1..48),
        ) {
            let cache = CapCache::new(Duration::from_secs(3600));
            let dir = cap(1);
            // The model: what each key must read as, or None.
            let mut live: [Option<Capability>; 6] = [None; 6];
            let mut stale_generation = cache.generation();
            for (i, (what, key, stale)) in steps.into_iter().enumerate() {
                let name = format!("key-{key}");
                let target = cap(100 + i as u32);
                match what {
                    0 => {
                        stale_generation = cache.generation();
                        cache.clear();
                        live = [None; 6];
                    }
                    _ if stale && stale_generation != cache.generation() => {
                        // Evicts whatever the key held, serves nothing.
                        cache.insert_under(stale_generation, &dir, &name, &target, at(0));
                        live[key] = None;
                    }
                    _ => {
                        cache.insert(&dir, &name, &target, at(0));
                        live[key] = Some(target);
                    }
                }
                for (k, expected) in live.iter().enumerate() {
                    prop_assert_eq!(&cache.get(&dir, &format!("key-{k}"), at(1)), expected);
                }
            }
        }

        /// The staleness contract: a mutation made elsewhere on the
        /// timeline is invisible to this cache, so no entry may ever
        /// be served at or past `insert time + ttl` — that bound is
        /// exactly what makes foreign renames safe.
        #[test]
        fn no_entry_outlives_its_ttl(
            ttl_ns in 1u64..=1_000_000,
            t0 in 0u64..(u64::MAX / 2),
            dt in 0u64..=2_000_000,
        ) {
            let cache = CapCache::new(Duration::from_nanos(ttl_ns));
            let (dir, target) = (cap(1), cap(2));
            cache.insert(&dir, "x", &target, at(t0));
            let got = cache.get(&dir, "x", at(t0 + dt));
            if dt >= ttl_ns {
                prop_assert_eq!(
                    got, None,
                    "a foreign rename at insert time would still be \
                     served {} ns past the {} ns TTL", dt - ttl_ns, ttl_ns
                );
            } else {
                prop_assert_eq!(got, Some(target), "a live entry must hit");
            }
        }
    }
}
