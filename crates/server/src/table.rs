//! The object table: per-object secrets plus server-private data.
//!
//! Since the worker-pool refactor the table is **lock-striped**: entries
//! are spread over `N` independent shards (object number low bits →
//! shard), each with its own entry slab, free list and secret stream. Capability
//! validation on distinct objects therefore never contends on a shared
//! lock, which is what lets one service scale across dispatch workers.
//!
//! Each entry also remembers the last capability its secret validated,
//! so a capability presented again is answered from one word instead of
//! a second run of the scheme (`Entry::validate`; the argument for why
//! that can grant nothing is in docs/ARCHITECTURE.md, "What a table
//! remembers it proved").

use crate::migrate::{DirtyHook, Record};
use crate::proto::{cmd, Reply, Request, Status};
use crate::wire;
use amoeba_cap::schemes::{ObjectSecret, ProtectionScheme};
use amoeba_cap::{CapError, Capability, ObjectNum, Rights};
use amoeba_crypto::oneway::MASK48;
use amoeba_crypto::SecretStream;
use amoeba_net::Port;
use parking_lot::{Mutex, RwLock};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Errors from object-table operations, mapping 1:1 onto wire
/// [`Status`] codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServerError {
    /// The capability's check field does not validate.
    Forged,
    /// No object with that number exists (deleted or never created).
    NoSuchObject,
    /// The capability is genuine but lacks a required right.
    RightsViolation,
    /// The scheme cannot perform the operation.
    Unsupported,
    /// A restriction tried to add rights.
    RightsExceeded,
}

impl From<CapError> for ServerError {
    fn from(e: CapError) -> ServerError {
        match e {
            CapError::Forged => ServerError::Forged,
            CapError::RightsExceeded => ServerError::RightsExceeded,
            CapError::NotSupported => ServerError::Unsupported,
        }
    }
}

impl From<ServerError> for Status {
    fn from(e: ServerError) -> Status {
        match e {
            ServerError::Forged => Status::Forged,
            ServerError::NoSuchObject => Status::NoSuchObject,
            ServerError::RightsViolation => Status::RightsViolation,
            ServerError::Unsupported => Status::Unsupported,
            ServerError::RightsExceeded => Status::RightsViolation,
        }
    }
}

impl std::fmt::Display for ServerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Display::fmt(&Status::from(*self), f)
    }
}

impl std::error::Error for ServerError {}

struct Entry<T> {
    secret: ObjectSecret,
    /// The last capability `secret` validated: presented rights (8
    /// bits) | check field (48) | granted rights (8). Zero = nothing
    /// proven. A memo of the scheme's computation, never of authority
    /// (docs/ARCHITECTURE.md, "What a table remembers it proved").
    ///
    /// `Relaxed` throughout: the word is one self-contained value that
    /// publishes nothing else, and it is only touched under the shard's
    /// entry lock — the same lock `secret` changes under — so a reader
    /// can only ever see a word stored against the secret it sees.
    proven: AtomicU64,
    data: T,
}

/// What a capability presents, packed as the high 56 bits of
/// [`Entry::proven`] — or 0 for the two presentations the word never
/// holds: the null capability, and a check field wider than 48 bits
/// (`check` is a public field; the wire cannot carry one), whose high
/// bits would otherwise alias into the rights.
fn presented(cap: &Capability) -> u64 {
    if cap.check > MASK48 {
        return 0;
    }
    (cap.rights.bits() as u64) << 48 | cap.check
}

impl<T> Entry<T> {
    /// A cold entry: nothing proven yet. Every entry starts here —
    /// fresh and reused slots and migration imports alike.
    fn new(secret: ObjectSecret, data: T) -> Entry<T> {
        Entry {
            secret,
            proven: AtomicU64::new(0),
            data,
        }
    }

    /// The scheme's verdict on `cap` against this entry's secret —
    /// recalled when `cap` is the capability that secret last
    /// validated, computed otherwise. Validation is a pure function of
    /// (rights, check, secret) in every scheme, so a recalled answer is
    /// the computed one. Rejections are never remembered.
    fn validate(
        &self,
        scheme: &dyn ProtectionScheme,
        cap: &Capability,
    ) -> Result<Rights, CapError> {
        let key = presented(cap);
        let word = self.proven.load(Ordering::Relaxed);
        if key != 0 && word >> 8 == key {
            return Ok(Rights::from_bits(word as u8));
        }
        let granted = scheme.validate(cap, &self.secret)?;
        self.remember(key, granted);
        Ok(granted)
    }

    fn remember(&self, presented: u64, granted: Rights) {
        if presented != 0 {
            self.proven
                .store(presented << 8 | granted.bits() as u64, Ordering::Relaxed);
        }
    }
}

/// One independent stripe of the table: a slab of entries plus its own
/// free list and secret stream, so operations on different shards never
/// touch the same lock.
struct Shard<T> {
    entries: RwLock<Vec<Option<Entry<T>>>>,
    free: Mutex<Vec<u32>>,
    /// Mirror of `free.len()`, readable without the lock so `create`
    /// can prefer shards holding reusable slots.
    free_count: AtomicUsize,
    secrets: Mutex<SecretStream>,
}

impl<T> Shard<T> {
    fn new() -> Shard<T> {
        Shard {
            entries: RwLock::new(Vec::new()),
            free: Mutex::new(Vec::new()),
            free_count: AtomicUsize::new(0),
            secrets: Mutex::new(SecretStream::from_entropy()),
        }
    }
}

/// Default number of stripes. Power of two; low object-number bits
/// select the stripe.
pub const DEFAULT_SHARDS: usize = 16;

/// The placement key of an object in a `replicas`-way sharded group:
/// which replica owns the object, derived from the shard index in the
/// object number's low bits. The inverse of placement — a table a
/// [`ShardHost`](crate::ShardHost) placed as replica `i` of `replicas`
/// only mints objects whose
/// `placement_range(object, shards, replicas) == i`.
///
/// # Panics
/// Panics unless `shards` is a power of two and `replicas` is nonzero.
pub fn placement_range(object: ObjectNum, shards: usize, replicas: usize) -> usize {
    assert!(shards.is_power_of_two(), "shard count is a power of two");
    assert!(replicas > 0, "a placement group has at least one replica");
    (object.value() as usize & (shards - 1)) % replicas
}

/// Maps object numbers to (per-object secret, server data) and performs
/// all capability cryptography for a service.
///
/// "The server would then pick a random number, store this number in its
/// object table, and insert it into the newly-formed object capability"
/// (§2.3). Everything the paper's object-protection discussion requires
/// is here: minting, validation, server-side restriction, deletion, and
/// revocation by random-number replacement.
///
/// The table is internally sharded ([`DEFAULT_SHARDS`] stripes); every
/// method is `&self` and safe to call from any number of dispatch
/// workers.
pub struct ObjectTable<T> {
    scheme: Box<dyn ProtectionScheme>,
    port: RwLock<Option<Port>>,
    shards: Box<[Shard<T>]>,
    /// `log2(shards.len())` — object numbers carry the shard index in
    /// their low `shard_bits` bits.
    shard_bits: u32,
    /// Round-robin cursor for `create`, so fresh objects spread evenly
    /// over the stripes no matter which thread creates them.
    next_shard: AtomicUsize,
    /// The shard indices `create` may mint into: every shard, unless a
    /// [`ShardHost`](crate::ShardHost) placed the table or moved a
    /// shard.
    owned: RwLock<Box<[usize]>>,
    /// Where mutations report to an export in progress.
    pub(crate) dirty: DirtyHook,
}

impl<T> std::fmt::Debug for ObjectTable<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObjectTable")
            .field("scheme", &self.scheme.name())
            .field("shards", &self.shards.len())
            .field("objects", &self.len())
            .finish()
    }
}

impl<T> ObjectTable<T> {
    /// A table not yet bound to a server port, with the default shard
    /// count. The port is stamped into minted capabilities; bind it
    /// with [`set_port`](Self::set_port) before creating objects (the
    /// [`ServiceRunner`] does this automatically via
    /// [`Service::bind`]).
    ///
    /// [`ServiceRunner`]: crate::ServiceRunner
    /// [`Service::bind`]: crate::Service::bind
    pub fn unbound(scheme: Box<dyn ProtectionScheme>) -> ObjectTable<T> {
        Self::with_shards(scheme, DEFAULT_SHARDS)
    }

    /// A table with an explicit number of lock stripes (object numbers
    /// carry the stripe index in their low bits, whatever the count).
    ///
    /// # Panics
    /// Panics unless `shards` is a power of two between 1 and 256.
    fn with_shards(scheme: Box<dyn ProtectionScheme>, shards: usize) -> ObjectTable<T> {
        assert!(
            shards.is_power_of_two() && (1..=256).contains(&shards),
            "shard count must be a power of two in 1..=256"
        );
        ObjectTable {
            scheme,
            port: RwLock::new(None),
            shards: (0..shards).map(|_| Shard::new()).collect(),
            shard_bits: shards.trailing_zeros(),
            next_shard: AtomicUsize::new(0),
            owned: RwLock::new((0..shards).collect()),
            dirty: DirtyHook::default(),
        }
    }

    /// A table bound to a known put-port.
    pub fn with_port(scheme: Box<dyn ProtectionScheme>, port: Port) -> ObjectTable<T> {
        let t = Self::unbound(scheme);
        t.set_port(port);
        t
    }

    /// Binds the server's put-port (stamped into every minted
    /// capability).
    pub fn set_port(&self, port: Port) {
        *self.port.write() = Some(port);
    }

    /// Replaces every shard's secret stream with a deterministic one
    /// derived from `seed`. **Simulation only**: real deployments keep
    /// the entropy-seeded default — predictable secrets are forgeable
    /// secrets. The deterministic executor needs this so two runs of
    /// one scenario seed mint byte-identical capabilities.
    pub fn reseed_secrets(&self, seed: u64) {
        for (i, shard) in self.shards.iter().enumerate() {
            *shard.secrets.lock() = SecretStream::from_seed(seed ^ ((i as u64) << 32));
        }
    }

    /// The bound put-port.
    ///
    /// # Panics
    /// Panics if the table is unbound.
    pub fn port(&self) -> Port {
        self.port
            .read()
            .expect("object table not bound to a port yet")
    }

    /// The protection scheme in use.
    pub fn scheme(&self) -> &dyn ProtectionScheme {
        self.scheme.as_ref()
    }

    /// The number of lock stripes.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Declares this table replica `owner` of a `replicas`-way sharded
    /// placement group: `create` will only mint object numbers whose
    /// shard index satisfies `shard % replicas == owner`, so the low
    /// bits of every object number identify the replica that owns it —
    /// the placement key the cluster layer routes by (see
    /// [`placement_range`]). Validation and lookup are unaffected;
    /// capabilities for foreign ranges simply fail with
    /// `NoSuchObject`, because their objects live on another machine.
    ///
    /// # Panics
    /// Panics unless `owner < replicas` and `replicas ≤ shard count`.
    pub(crate) fn set_owned_shards(&self, owner: usize, replicas: usize) {
        assert!(
            owner < replicas,
            "shard owner index must be below the replica count"
        );
        assert!(
            replicas <= self.shards.len(),
            "cannot split {} shards over {replicas} replicas",
            self.shards.len()
        );
        *self.owned.write() = (0..self.shards.len())
            .filter(|s| s % replicas == owner)
            .collect();
    }

    /// Number of live objects (sums over all shards).
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.entries.read().iter().flatten().count())
            .sum()
    }

    /// Whether the table holds no objects.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The shard index an object number lives in (its low bits).
    pub(crate) fn shard_index(&self, object: ObjectNum) -> usize {
        (object.value() as usize) & (self.shards.len() - 1)
    }

    /// Splits an object number into (shard, slot).
    fn locate(&self, object: ObjectNum) -> (&Shard<T>, usize) {
        let raw = object.value();
        let shard = self.shard_index(object);
        (&self.shards[shard], (raw >> self.shard_bits) as usize)
    }

    /// Picks the shard for a new object among the owned ones: any shard
    /// advertising a reusable slot wins (keeping slabs dense and
    /// preserving the slot-reuse behaviour of the unsharded table),
    /// otherwise the round-robin cursor spreads fresh objects evenly.
    fn create_shard_index(&self) -> Option<usize> {
        let rr = self.next_shard.fetch_add(1, Ordering::Relaxed);
        let owned = self.owned.read();
        let mut order = (0..owned.len()).map(|offset| owned[(rr + offset) % owned.len()]);
        let first = order.clone().next();
        order
            .find(|&idx| self.shards[idx].free_count.load(Ordering::Acquire) > 0)
            .or(first)
    }

    /// Creates an object: picks a random number, stores it, and mints
    /// the all-rights capability.
    ///
    /// Creation round-robins over the stripes (reusing freed slots
    /// first), so a table populated by a single thread still spreads
    /// its objects across every shard — later dispatch workers then
    /// never contend with each other on distinct objects.
    ///
    /// # Panics
    /// Panics if the table is unbound, the shard's slice of the 2²⁴
    /// object-number space is exhausted, or every owned shard has been
    /// migrated away (use [`try_create`](Self::try_create) on a table
    /// that can be drained).
    pub fn create(&self, data: T) -> (ObjectNum, Capability) {
        self.try_create(data)
            .expect("no mintable shard (every owned shard sealed or migrated away)")
    }

    /// Fallible form of [`create`](Self::create): fails with
    /// [`ServerError::Unsupported`] when no owned shard can mint —
    /// every owned shard is mid-cutover or migrated away (a fully
    /// drained replica). Clusters route creates by the published shard
    /// map, so a drained replica answering `Unsupported` tells the
    /// client to refresh and retry elsewhere.
    ///
    /// # Panics
    /// Panics if the table is unbound or the shard's slice of the 2²⁴
    /// object-number space is exhausted.
    pub fn try_create(&self, data: T) -> Result<(ObjectNum, Capability), ServerError> {
        let port = self.port();
        let shard_index = self.create_shard_index().ok_or(ServerError::Unsupported)?;
        let shard = &self.shards[shard_index];
        let secret = self.scheme.new_secret(&mut shard.secrets.lock());
        let mut entries = shard.entries.write();
        let slot = match shard.free.lock().pop() {
            Some(i) => {
                shard.free_count.fetch_sub(1, Ordering::AcqRel);
                i
            }
            None => {
                let i = entries.len() as u32;
                assert!(
                    i <= (ObjectNum::MAX >> self.shard_bits),
                    "object table shard full"
                );
                entries.push(None);
                i
            }
        };
        let raw = (slot << self.shard_bits) | shard_index as u32;
        let object = ObjectNum::new(raw).expect("slot bounded by MAX >> shard_bits");
        let cap = self.scheme.mint(port, object, &secret);
        let entry = Entry::new(secret, data);
        // The mint just computed this check field, and a minted
        // capability grants every right: the owner's first
        // presentation is already proven.
        entry.remember(presented(&cap), Rights::ALL);
        entries[slot as usize] = Some(entry);
        self.dirty.note(shard_index, slot as usize);
        Ok((object, cap))
    }

    /// Validates a capability, returning its effective rights.
    ///
    /// # Errors
    /// [`ServerError::NoSuchObject`] or [`ServerError::Forged`].
    pub fn validate(&self, cap: &Capability) -> Result<Rights, ServerError> {
        let (shard, slot) = self.locate(cap.object);
        let entries = shard.entries.read();
        let entry = entries
            .get(slot)
            .and_then(|e| e.as_ref())
            .ok_or(ServerError::NoSuchObject)?;
        Ok(entry.validate(self.scheme.as_ref(), cap)?)
    }

    /// Runs `f` on the object if `cap` validates with at least `need`.
    ///
    /// # Errors
    /// [`ServerError::NoSuchObject`], [`ServerError::Forged`] or
    /// [`ServerError::RightsViolation`].
    pub fn with_object<R>(
        &self,
        cap: &Capability,
        need: Rights,
        f: impl FnOnce(&T) -> R,
    ) -> Result<R, ServerError> {
        let (shard, slot) = self.locate(cap.object);
        let entries = shard.entries.read();
        let entry = entries
            .get(slot)
            .and_then(|e| e.as_ref())
            .ok_or(ServerError::NoSuchObject)?;
        let rights = entry.validate(self.scheme.as_ref(), cap)?;
        if !rights.contains(need) {
            return Err(ServerError::RightsViolation);
        }
        Ok(f(&entry.data))
    }

    /// Mutable variant of [`with_object`](Self::with_object).
    ///
    /// # Errors
    /// As for [`with_object`](Self::with_object).
    pub fn with_object_mut<R>(
        &self,
        cap: &Capability,
        need: Rights,
        f: impl FnOnce(&mut T) -> R,
    ) -> Result<R, ServerError> {
        let (shard, slot) = self.locate(cap.object);
        let mut entries = shard.entries.write();
        let slot_entry = entries
            .get_mut(slot)
            .and_then(|e| e.as_mut())
            .ok_or(ServerError::NoSuchObject)?;
        let rights = slot_entry.validate(self.scheme.as_ref(), cap)?;
        if !rights.contains(need) {
            return Err(ServerError::RightsViolation);
        }
        let out = f(&mut slot_entry.data);
        self.dirty.note(self.shard_index(cap.object), slot);
        Ok(out)
    }

    /// Direct access by object number, **bypassing capability checks** —
    /// for a server reaching its *own* related objects (e.g. the
    /// multiversion file server touching a version's parent file during
    /// commit). Never expose this path to request parameters.
    pub fn with_data<R>(&self, object: ObjectNum, f: impl FnOnce(&T) -> R) -> Option<R> {
        let (shard, slot) = self.locate(object);
        let entries = shard.entries.read();
        entries
            .get(slot)
            .and_then(|e| e.as_ref())
            .map(|e| f(&e.data))
    }

    /// Mutable variant of [`with_data`](Self::with_data). Same warning.
    pub fn with_data_mut<R>(&self, object: ObjectNum, f: impl FnOnce(&mut T) -> R) -> Option<R> {
        let (shard, slot) = self.locate(object);
        let mut entries = shard.entries.write();
        let out = entries
            .get_mut(slot)
            .and_then(|e| e.as_mut())
            .map(|e| f(&mut e.data));
        if out.is_some() {
            self.dirty.note(self.shard_index(object), slot);
        }
        out
    }

    /// Server-side restriction: fabricates a capability with exactly
    /// `keep` rights.
    ///
    /// # Errors
    /// Validation errors, [`ServerError::RightsExceeded`] if `keep`
    /// exceeds the current rights, or [`ServerError::Unsupported`] for
    /// scheme 0.
    pub fn restrict(&self, cap: &Capability, keep: Rights) -> Result<Capability, ServerError> {
        let (shard, slot) = self.locate(cap.object);
        let entries = shard.entries.read();
        let entry = entries
            .get(slot)
            .and_then(|e| e.as_ref())
            .ok_or(ServerError::NoSuchObject)?;
        Ok(self.scheme.restrict(cap, keep, &entry.secret)?)
    }

    /// Revocation (§2.3): "ask the server to change the random number
    /// stored in its internal table and return a new capability ...
    /// all existing capabilities for that object are instantly
    /// invalidated." Requires [`Rights::OWNER`].
    ///
    /// # Errors
    /// Validation errors or [`ServerError::RightsViolation`] without the
    /// owner right.
    pub fn revoke(&self, cap: &Capability) -> Result<Capability, ServerError> {
        let port = self.port();
        let (shard, slot) = self.locate(cap.object);
        let mut entries = shard.entries.write();
        let slot_entry = entries
            .get_mut(slot)
            .and_then(|e| e.as_mut())
            .ok_or(ServerError::NoSuchObject)?;
        let rights = slot_entry.validate(self.scheme.as_ref(), cap)?;
        if !rights.contains(Rights::OWNER) {
            return Err(ServerError::RightsViolation);
        }
        slot_entry.secret = self.scheme.new_secret(&mut shard.secrets.lock());
        // What the old secret proved dies with it, under the same lock.
        *slot_entry.proven.get_mut() = 0;
        let fresh = self.scheme.mint(port, cap.object, &slot_entry.secret);
        self.dirty.note(self.shard_index(cap.object), slot);
        Ok(fresh)
    }

    /// Deletes the object, returning its data. Requires `need`
    /// (conventionally [`Rights::DELETE`]).
    ///
    /// # Errors
    /// Validation errors or [`ServerError::RightsViolation`].
    pub fn delete(&self, cap: &Capability, need: Rights) -> Result<T, ServerError> {
        let (shard, slot) = self.locate(cap.object);
        let mut entries = shard.entries.write();
        let slot_entry = entries
            .get_mut(slot)
            .and_then(|e| e.as_mut())
            .ok_or(ServerError::NoSuchObject)?;
        let rights = slot_entry.validate(self.scheme.as_ref(), cap)?;
        if !rights.contains(need) {
            return Err(ServerError::RightsViolation);
        }
        Ok(self
            .vacate(cap.object, &mut entries, slot)
            .expect("checked above"))
    }

    /// Deletes the object by number, **bypassing capability checks** —
    /// for a server removing an object whose capability it checked
    /// earlier, and which it has kept every other request from
    /// removing since (the block server's extents claimed for freeing).
    /// Same warning as [`with_data`](Self::with_data).
    pub fn remove(&self, object: ObjectNum) -> Option<T> {
        let (shard, slot) = self.locate(object);
        let mut entries = shard.entries.write();
        self.vacate(object, &mut entries, slot)
    }

    /// Empties `object`'s slot, under its shard's entry lock, and frees
    /// the number for reuse.
    fn vacate(
        &self,
        object: ObjectNum,
        entries: &mut [Option<Entry<T>>],
        slot: usize,
    ) -> Option<T> {
        let entry = entries.get_mut(slot)?.take()?;
        let index = self.shard_index(object);
        let shard = &self.shards[index];
        shard.free.lock().push(slot as u32);
        shard.free_count.fetch_add(1, Ordering::AcqRel);
        self.dirty.note(index, slot);
        Some(entry.data)
    }

    /// Answers the standard commands ([`cmd::STD_RESTRICT`],
    /// [`cmd::STD_REVOKE`], [`cmd::STD_INFO`]); returns `None` for
    /// service-specific commands the caller should handle itself.
    pub(crate) fn handle_std(&self, req: &Request) -> Option<Reply> {
        match req.command {
            cmd::STD_RESTRICT => {
                let mut r = wire::Reader::new(&req.params);
                let Some(mask) = r.u32() else {
                    return Some(Reply::status(Status::BadRequest));
                };
                Some(
                    match self.restrict(&req.cap, Rights::from_bits(mask as u8)) {
                        Ok(cap) => Reply::ok(wire::Writer::new().cap(&cap).finish()),
                        Err(e) => Reply::status(e.into()),
                    },
                )
            }
            cmd::STD_REVOKE => Some(match self.revoke(&req.cap) {
                Ok(cap) => Reply::ok(wire::Writer::new().cap(&cap).finish()),
                Err(e) => Reply::status(e.into()),
            }),
            cmd::STD_INFO => Some(match self.validate(&req.cap) {
                Ok(rights) => Reply::ok(wire::Writer::new().u32(rights.bits() as u32).finish()),
                Err(e) => Reply::status(e.into()),
            }),
            _ => None,
        }
    }
}

/// What a [`ShardHost`](crate::ShardHost) reaches of the table: the
/// owned set, and the slots of one shard as migration records.
impl<T> ObjectTable<T> {
    /// Whether this replica owns `shard` (may mint into it and is the
    /// authority for its objects).
    pub(crate) fn owns_shard(&self, shard: usize) -> bool {
        self.owned.read().contains(&shard)
    }

    /// The owned shards, ascending.
    pub(crate) fn owned_shards(&self) -> Vec<usize> {
        self.owned.read().to_vec()
    }

    /// Adds `shard` to the owned set (`own`), or takes it out.
    pub(crate) fn own_shard(&self, shard: usize, own: bool) {
        let mut owned = self.owned.write();
        let mut v: Vec<usize> = owned.iter().copied().filter(|&s| s != shard).collect();
        if own {
            v.push(shard);
            v.sort_unstable();
        }
        *owned = v.into_boxed_slice();
    }

    /// Calls `f` with each listed slot of `shard` and its (secret,
    /// data), `None` for an empty slot — with every live slot, in
    /// order, when `slots` is `None`. Runs under the shard's read lock.
    pub(crate) fn export_records(
        &self,
        shard: usize,
        slots: Option<&[u32]>,
        mut f: impl FnMut(u32, Option<(u64, &T)>),
    ) {
        let entries = self.shards[shard].entries.read();
        let record = |slot: u32| {
            let entry = entries.get(slot as usize)?.as_ref()?;
            Some((entry.secret.value(), &entry.data))
        };
        match slots {
            Some(list) => list.iter().for_each(|&slot| f(slot, record(slot))),
            None => (0..entries.len() as u32)
                .filter_map(|slot| Some((slot, record(slot)?)))
                .for_each(|(slot, r)| f(slot, Some(r))),
        }
    }

    /// Installs decoded records into a shard slab (live records
    /// overwrite, tombstones clear) and rebuilds the free list so
    /// future creates reuse the holes. Object numbers and secrets are
    /// preserved exactly: outstanding capabilities keep validating.
    /// Installs nothing and returns `false` if a slot lies past the
    /// shard's slice of the object-number space.
    pub(crate) fn install_records(&self, shard_index: usize, records: Vec<Record<T>>) -> bool {
        let max_slot = ObjectNum::MAX >> self.shard_bits;
        if records.iter().any(|(slot, _)| *slot > max_slot) {
            return false;
        }
        let shard = &self.shards[shard_index];
        let mut entries = shard.entries.write();
        for (slot, payload) in records {
            let slot = slot as usize;
            if entries.len() <= slot {
                entries.resize_with(slot + 1, || None);
            }
            entries[slot] =
                payload.map(|(secret, data)| Entry::new(ObjectSecret::from_value(secret), data));
        }
        let free: Vec<u32> = entries
            .iter()
            .enumerate()
            .filter(|(_, e)| e.is_none())
            .map(|(i, _)| i as u32)
            .collect();
        shard.free_count.store(free.len(), Ordering::Release);
        *shard.free.lock() = free;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::migrate::{ShardDisposition, ShardHost, ShardMigrator, TransferOp};
    use amoeba_cap::schemes::SchemeKind;
    use bytes::Bytes;
    use std::sync::Arc;

    fn table(kind: SchemeKind) -> ObjectTable<String> {
        ObjectTable::with_port(kind.instantiate(), Port::new(0x1111).unwrap())
    }

    #[test]
    fn create_validate_access() {
        for kind in SchemeKind::ALL {
            let t = table(kind);
            let (_obj, cap) = t.create("hello".to_string());
            assert_eq!(t.validate(&cap).unwrap(), Rights::ALL, "{kind}");
            let len = t.with_object(&cap, Rights::READ, |s| s.len()).unwrap();
            assert_eq!(len, 5);
            t.with_object_mut(&cap, Rights::WRITE, |s| s.push('!'))
                .unwrap();
            assert_eq!(
                t.with_object(&cap, Rights::READ, |s| s.clone()).unwrap(),
                "hello!"
            );
        }
    }

    #[test]
    fn forged_and_missing_objects_distinguished() {
        let t = table(SchemeKind::OneWay);
        let (_, cap) = t.create("x".into());
        let forged = cap.with_check(cap.check ^ 1);
        assert_eq!(t.validate(&forged).unwrap_err(), ServerError::Forged);
        let ghost = Capability::new(
            cap.port,
            ObjectNum::new(cap.object.value() + 999 * DEFAULT_SHARDS as u32).unwrap(),
            Rights::ALL,
            1,
        );
        assert_eq!(t.validate(&ghost).unwrap_err(), ServerError::NoSuchObject);
    }

    #[test]
    fn rights_enforced_on_access() {
        let t = table(SchemeKind::Commutative);
        let (_, cap) = t.create("data".into());
        let ro = t.restrict(&cap, Rights::READ).unwrap();
        assert!(t.with_object(&ro, Rights::READ, |_| ()).is_ok());
        assert_eq!(
            t.with_object_mut(&ro, Rights::WRITE, |_| ()).unwrap_err(),
            ServerError::RightsViolation
        );
    }

    #[test]
    fn delete_frees_slot_for_reuse() {
        let t = table(SchemeKind::OneWay);
        let (obj1, cap1) = t.create("a".into());
        assert_eq!(t.delete(&cap1, Rights::DELETE).unwrap(), "a");
        assert_eq!(t.len(), 0);
        // Old capability is now dead.
        assert_eq!(t.validate(&cap1).unwrap_err(), ServerError::NoSuchObject);
        // Slot is recycled with a fresh secret: old cap stays dead
        // (freed slots are preferred over opening a fresh shard slot).
        let (obj2, cap2) = t.create("b".into());
        assert_eq!(obj1, obj2);
        assert_eq!(t.validate(&cap1).unwrap_err(), ServerError::Forged);
        assert!(t.validate(&cap2).is_ok());
    }

    #[test]
    fn revocation_kills_all_outstanding_caps() {
        for kind in SchemeKind::ALL {
            let t = table(kind);
            let (_, owner_cap) = t.create("precious".into());
            let outstanding: Vec<Capability> = match kind {
                // Schemes with rights distinction: hand out restrictions.
                SchemeKind::Encrypted | SchemeKind::OneWay | SchemeKind::Commutative => (0..10)
                    .map(|_| t.restrict(&owner_cap, Rights::READ).unwrap())
                    .collect(),
                SchemeKind::Simple => vec![owner_cap; 10],
            };
            let fresh = t.revoke(&owner_cap).unwrap();
            for old in &outstanding {
                assert_eq!(t.validate(old).unwrap_err(), ServerError::Forged, "{kind}");
            }
            assert_eq!(t.validate(&owner_cap).unwrap_err(), ServerError::Forged);
            assert_eq!(t.validate(&fresh).unwrap(), Rights::ALL);
        }
    }

    #[test]
    fn revocation_requires_owner_right() {
        let t = table(SchemeKind::Commutative);
        let (_, cap) = t.create("x".into());
        let ro = t.restrict(&cap, Rights::READ).unwrap();
        assert_eq!(t.revoke(&ro).unwrap_err(), ServerError::RightsViolation);
    }

    #[test]
    fn handle_std_restrict_and_info() {
        let t = table(SchemeKind::Commutative);
        let (_, cap) = t.create("x".into());
        let req = Request {
            cap,
            command: cmd::STD_RESTRICT,
            params: wire::Writer::new().u32(Rights::READ.bits() as u32).finish(),
        };
        let reply = t.handle_std(&req).unwrap();
        assert_eq!(reply.status, Status::Ok);
        let ro = wire::Reader::new(&reply.body).cap().unwrap();
        assert_eq!(t.validate(&ro).unwrap(), Rights::READ);

        let info = t
            .handle_std(&Request {
                cap: ro,
                command: cmd::STD_INFO,
                params: bytes::Bytes::new(),
            })
            .unwrap();
        assert_eq!(info.status, Status::Ok);
        assert_eq!(
            wire::Reader::new(&info.body).u32().unwrap(),
            Rights::READ.bits() as u32
        );
    }

    #[test]
    fn handle_std_passes_through_service_commands() {
        let t = table(SchemeKind::Simple);
        let (_, cap) = t.create("x".into());
        let req = Request {
            cap,
            command: 42,
            params: bytes::Bytes::new(),
        };
        assert!(t.handle_std(&req).is_none());
    }

    #[test]
    fn handle_std_revoke_roundtrip() {
        let t = table(SchemeKind::OneWay);
        let (_, cap) = t.create("x".into());
        let reply = t
            .handle_std(&Request {
                cap,
                command: cmd::STD_REVOKE,
                params: bytes::Bytes::new(),
            })
            .unwrap();
        assert_eq!(reply.status, Status::Ok);
        assert_eq!(t.validate(&cap).unwrap_err(), ServerError::Forged);
    }

    #[test]
    #[should_panic(expected = "not bound")]
    fn unbound_table_panics_on_create() {
        let t: ObjectTable<()> = ObjectTable::unbound(SchemeKind::Simple.instantiate());
        t.create(());
    }

    #[test]
    fn many_objects_have_independent_secrets() {
        let t = table(SchemeKind::OneWay);
        let caps: Vec<Capability> = (0..100).map(|i| t.create(format!("{i}")).1).collect();
        assert_eq!(t.len(), 100);
        // A capability for object i must not validate for object j's data.
        let cross = caps[0].with_rights(caps[1].rights);
        let mut swapped = cross;
        swapped.object = caps[1].object;
        assert!(t.validate(&swapped).is_err());
    }

    #[test]
    fn reseeded_tables_mint_alike_and_unseeded_tables_differ() {
        let checks = |seed: Option<u64>| {
            let t = table(SchemeKind::OneWay);
            if let Some(seed) = seed {
                t.reseed_secrets(seed);
            }
            (0..2 * DEFAULT_SHARDS)
                .map(|i| t.create(i.to_string()).1)
                .collect::<Vec<_>>()
        };
        assert_eq!(checks(Some(7)), checks(Some(7)));
        let (a, b) = (checks(Some(7)), checks(Some(8)));
        assert!(a.iter().zip(&b).all(|(x, y)| x.check != y.check));
        let (c, d) = (checks(None), checks(None));
        assert!(c.iter().zip(&d).all(|(x, y)| x.check != y.check));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_shards_rejected() {
        let _ = ObjectTable::<()>::with_shards(SchemeKind::Simple.instantiate(), 3);
    }

    #[test]
    fn single_shard_table_still_works() {
        let t: ObjectTable<u32> =
            ObjectTable::with_shards(SchemeKind::Commutative.instantiate(), 1);
        t.set_port(Port::new(0x77).unwrap());
        let caps: Vec<_> = (0..20).map(|i| t.create(i).1).collect();
        assert_eq!(t.len(), 20);
        for (i, cap) in caps.iter().enumerate() {
            assert_eq!(t.with_object(cap, Rights::READ, |v| *v).unwrap(), i as u32);
        }
    }

    #[test]
    fn creates_spread_across_shards() {
        // A single-threaded populator must still stripe its objects
        // over every shard, or a later worker pool would contend on
        // one stripe.
        let t = table(SchemeKind::Simple);
        let mask = (DEFAULT_SHARDS - 1) as u32;
        let mut used = std::collections::HashSet::new();
        for i in 0..(DEFAULT_SHARDS as u32 * 2) {
            let (obj, _) = t.create(format!("{i}"));
            used.insert(obj.value() & mask);
        }
        assert_eq!(used.len(), DEFAULT_SHARDS, "all shards used");
    }

    #[test]
    fn owned_shards_constrain_creation_to_the_replica_range() {
        for replicas in [2usize, 3, 4] {
            for owner in 0..replicas {
                let t = table(SchemeKind::OneWay);
                t.set_owned_shards(owner, replicas);
                for i in 0..40 {
                    let (obj, cap) = t.create(format!("{i}"));
                    assert_eq!(
                        placement_range(obj, DEFAULT_SHARDS, replicas),
                        owner,
                        "replica {owner}/{replicas} minted a foreign object"
                    );
                    assert!(t.validate(&cap).is_ok());
                }
                // Objects still spread across the owned stripes.
                let mask = (DEFAULT_SHARDS - 1) as u32;
                let used: std::collections::HashSet<u32> = (0..DEFAULT_SHARDS as u32)
                    .map(|_| t.create("x".into()).0.value() & mask)
                    .collect();
                assert!(used.len() > 1, "owned creates must still stripe");
            }
        }
    }

    #[test]
    fn owned_shards_prefer_freed_slots_within_the_range() {
        let t = table(SchemeKind::Commutative);
        t.set_owned_shards(1, 4);
        let (obj, cap) = t.create("a".into());
        t.delete(&cap, Rights::DELETE).unwrap();
        let (obj2, _) = t.create("b".into());
        assert_eq!(obj, obj2, "freed owned slot is recycled first");
    }

    #[test]
    #[should_panic(expected = "below the replica count")]
    fn owner_out_of_range_rejected() {
        let t = table(SchemeKind::Simple);
        t.set_owned_shards(3, 3);
    }

    #[test]
    fn placement_range_matches_shard_low_bits() {
        let obj = ObjectNum::new(0b1010_0110).unwrap();
        // Shard index = low 4 bits = 6; 6 % 3 == 0, 6 % 4 == 2.
        assert_eq!(placement_range(obj, 16, 3), 0);
        assert_eq!(placement_range(obj, 16, 4), 2);
        assert_eq!(placement_range(obj, 16, 1), 0);
    }

    #[test]
    fn parallel_threads_create_on_distinct_shards() {
        let t: Arc<ObjectTable<usize>> = Arc::new(ObjectTable::with_port(
            SchemeKind::OneWay.instantiate(),
            Port::new(0x1111).unwrap(),
        ));
        let mut handles = Vec::new();
        for worker in 0..8usize {
            let t = Arc::clone(&t);
            handles.push(std::thread::spawn(move || {
                (0..50)
                    .map(|i| t.create(worker * 1000 + i).0)
                    .collect::<Vec<_>>()
            }));
        }
        let all: Vec<ObjectNum> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        // Every object number unique, every object retrievable.
        let mut raw: Vec<u32> = all.iter().map(|o| o.value()).collect();
        raw.sort_unstable();
        raw.dedup();
        assert_eq!(raw.len(), 400, "object numbers must never collide");
        assert_eq!(t.len(), 400);
    }

    /// A fresh table placed as replica `owner` of `replicas`, and its
    /// shard host.
    fn placed(
        kind: SchemeKind,
        owner: usize,
        replicas: usize,
    ) -> (Arc<ObjectTable<String>>, ShardHost<String>) {
        let t = Arc::new(table(kind));
        let host = ShardHost::new(Arc::clone(&t), owner, replicas);
        (t, host)
    }

    /// `op` as dispatch hands it to the host: under its migration
    /// capability.
    fn send(host: &ShardHost<String>, op: TransferOp) -> Status {
        let req = Request {
            cap: host.capability(),
            command: op.command(),
            params: op.write_params(wire::Writer::new()).finish(),
        };
        host.handle_transfer(&req).status
    }

    #[test]
    fn export_import_preserves_objects_and_capabilities() {
        for kind in SchemeKind::ALL {
            let (src, src_host) = placed(kind, 0, 1);
            let (dst, dst_host) = placed(kind, 0, 1);
            // The target owns nothing until it adopts the migrated
            // shard.
            for shard in 0..DEFAULT_SHARDS {
                dst.own_shard(shard, false);
            }

            let caps: Vec<(ObjectNum, Capability)> =
                (0..40).map(|i| src.create(format!("obj-{i}"))).collect();
            let shard = 3usize;
            assert!(src_host.begin_export(shard));
            let chunks = src_host.export_chunks(shard, None, 4);
            let xfer = 7u64;
            let begin = TransferOp::Begin {
                xfer,
                shard: shard as u8,
            };
            assert_eq!(send(&dst_host, begin), Status::Ok);
            for (seq, records) in chunks.iter().enumerate() {
                let op = TransferOp::Chunk {
                    xfer,
                    seq: seq as u32,
                    records: records.clone(),
                };
                assert_eq!(send(&dst_host, op), Status::Ok);
            }
            let commit = TransferOp::Commit {
                xfer,
                chunks: chunks.len() as u32,
            };
            assert_eq!(send(&dst_host, commit.clone()), Status::Ok);
            // Retransmitted commit is re-acknowledged, not re-executed.
            assert_eq!(send(&dst_host, commit), Status::Ok);

            assert_eq!(dst_host.owned_shards(), vec![shard]);
            for (obj, cap) in &caps {
                if (obj.value() as usize) & (DEFAULT_SHARDS - 1) != shard {
                    continue;
                }
                // Same object number, same secret: the old capability
                // validates on the new owner.
                assert_eq!(dst.validate(cap).unwrap(), Rights::ALL, "{kind}");
                let body = dst.with_object(cap, Rights::READ, |s| s.clone()).unwrap();
                let orig = src.with_object(cap, Rights::READ, |s| s.clone()).unwrap();
                assert_eq!(body, orig);
            }
        }
    }

    #[test]
    fn dirty_tracking_captures_mutations_and_deletes() {
        let (t, host) = placed(SchemeKind::OneWay, 0, 1);
        let caps: Vec<(ObjectNum, Capability)> =
            (0..32).map(|i| t.create(format!("{i}"))).collect();
        let shard = 0usize;
        assert!(host.begin_export(shard));
        assert!(host.take_dirty(shard).is_empty(), "tracking starts clean");
        let in_shard: Vec<&(ObjectNum, Capability)> = caps
            .iter()
            .filter(|(o, _)| (o.value() as usize) & (DEFAULT_SHARDS - 1) == shard)
            .collect();
        let (obj_w, cap_w) = in_shard[0];
        let (_, cap_d) = in_shard[1];
        t.with_object_mut(cap_w, Rights::WRITE, |s| s.push('!'))
            .unwrap();
        t.delete(cap_d, Rights::DELETE).unwrap();
        // A mutation in a foreign shard must not dirty this one.
        let foreign = caps
            .iter()
            .find(|(o, _)| (o.value() as usize) & (DEFAULT_SHARDS - 1) != shard)
            .unwrap();
        t.with_object_mut(&foreign.1, Rights::WRITE, |s| s.push('?'))
            .unwrap();
        let dirty = host.take_dirty(shard);
        assert_eq!(dirty.len(), 2);
        assert!(dirty.contains(&(obj_w.value() >> t.shard_bits)));
        assert!(host.take_dirty(shard).is_empty(), "drain empties the set");
        // Delta export of the dirty slots: one live record, one tombstone.
        let delta = host.export_chunks(shard, Some(&dirty), 64);
        assert_eq!(delta.len(), 1);
        let records = crate::migrate::decode_records::<String>(&delta[0]).unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(records.iter().filter(|(_, r)| r.is_none()).count(), 1);
    }

    #[test]
    fn seal_and_release_change_disposition() {
        let (_, t) = placed(SchemeKind::Simple, 0, 1);
        let shard = 5usize;
        assert_eq!(t.disposition(shard), ShardDisposition::Serve);
        assert!(t.begin_export(shard));
        assert_eq!(t.disposition(shard), ShardDisposition::Serve);
        t.seal(shard);
        assert_eq!(t.disposition(shard), ShardDisposition::Hold);
        let new_owner = Port::new(0xBEEF).unwrap();
        t.release(shard, new_owner);
        assert_eq!(t.disposition(shard), ShardDisposition::Forward(new_owner));
        assert!(!t.owned_shards().contains(&shard));
        assert!(!t.begin_export(shard), "cannot re-export a released shard");
        // Aborting an export restores normal service.
        assert!(t.begin_export(0));
        t.seal(0);
        t.abort(0);
        assert_eq!(t.disposition(0), ShardDisposition::Serve);
    }

    #[test]
    fn drained_replica_refuses_creates() {
        let (t, host) = placed(SchemeKind::OneWay, 0, 4);
        let fwd = Port::new(0xD00D).unwrap();
        for shard in host.owned_shards() {
            host.release(shard, fwd);
        }
        assert_eq!(
            t.try_create("x".into()).unwrap_err(),
            ServerError::Unsupported
        );
        // Re-adopting one shard (an empty transfer of it) makes the
        // replica mintable again.
        assert_eq!(
            send(&host, TransferOp::Begin { xfer: 1, shard: 0 }),
            Status::Ok
        );
        assert_eq!(
            send(&host, TransferOp::Commit { xfer: 1, chunks: 0 }),
            Status::Ok
        );
        assert!(t.try_create("y".into()).is_ok());
    }

    #[test]
    fn sealed_shard_is_skipped_by_create() {
        let (t, host) = placed(SchemeKind::Simple, 0, 1);
        let mask = (DEFAULT_SHARDS - 1) as u32;
        host.begin_export(2);
        host.seal(2);
        for i in 0..(DEFAULT_SHARDS * 4) {
            let (obj, _) = t.create(format!("{i}"));
            assert_ne!(obj.value() & mask, 2, "sealed shard must not mint");
        }
    }

    #[test]
    fn transfer_chunks_out_of_order_and_incomplete_commits() {
        // Replica 0 of 2: shard 1 belongs to the other replica.
        let (t, host) = placed(SchemeKind::OneWay, 0, 2);
        let xfer = 99u64;
        assert_eq!(
            send(&host, TransferOp::Begin { xfer, shard: 1 }),
            Status::Ok
        );
        // Commit before all chunks arrive: refused, staging intact.
        let mut blob = Vec::new();
        crate::migrate::encode_tombstone(&mut blob, 4);
        let chunk1 = TransferOp::Chunk {
            xfer,
            seq: 1,
            records: Bytes::from(blob.clone()),
        };
        assert_eq!(send(&host, chunk1.clone()), Status::Ok);
        let commit = TransferOp::Commit { xfer, chunks: 2 };
        assert_eq!(send(&host, commit.clone()), Status::Conflict);
        // Chunk for an unknown transfer: refused.
        let stray = TransferOp::Chunk {
            xfer: 1234,
            seq: 0,
            records: Bytes::new(),
        };
        assert_eq!(send(&host, stray), Status::Conflict);
        // The missing chunk arrives (duplicate of seq 1 is ignored),
        // then commit succeeds.
        let chunk0 = TransferOp::Chunk {
            xfer,
            seq: 0,
            records: Bytes::from(blob),
        };
        assert_eq!(send(&host, chunk0), Status::Ok);
        assert_eq!(send(&host, chunk1), Status::Ok);
        assert_eq!(send(&host, commit), Status::Ok);

        // A complete commit into a shard the target owns: refused, and
        // the live object there is untouched.
        let (object, cap) = t.create("live".into());
        let (shard, slot) = (t.shard_index(object), object.value() >> t.shard_bits);
        let mut blob = Vec::new();
        crate::migrate::encode_live_record(&mut blob, slot, 7, b"pwned");
        let xfer = 100u64;
        let shard = shard as u8;
        assert_eq!(send(&host, TransferOp::Begin { xfer, shard }), Status::Ok);
        let records = Bytes::from(blob);
        let chunk = TransferOp::Chunk {
            xfer,
            seq: 0,
            records,
        };
        assert_eq!(send(&host, chunk), Status::Ok);
        let commit = TransferOp::Commit { xfer, chunks: 1 };
        assert_eq!(send(&host, commit), Status::Conflict);
        assert_eq!(
            t.with_object(&cap, Rights::READ, |s| s.clone()).unwrap(),
            "live"
        );
    }

    #[test]
    fn staging_is_bounded() {
        let (_, host) = placed(SchemeKind::Simple, 0, 1);
        for xfer in 0..crate::migrate::MAX_STAGED_TRANSFERS as u64 {
            assert_eq!(
                send(&host, TransferOp::Begin { xfer, shard: 0 }),
                Status::Ok
            );
        }
        let overflow = TransferOp::Begin {
            xfer: 1_000,
            shard: 0,
        };
        assert_eq!(send(&host, overflow), Status::NoSpace);
    }

    #[test]
    fn inflight_gauge_tracks_enter_exit() {
        let (_, t) = placed(SchemeKind::Simple, 0, 1);
        assert_eq!(t.inflight(7), 0);
        t.enter(7);
        t.enter(7);
        assert_eq!(t.inflight(7), 2);
        t.exit(7);
        t.exit(7);
        assert_eq!(t.inflight(7), 0);
    }

    #[test]
    fn concurrent_create_delete_validate_hammer() {
        let t: Arc<ObjectTable<u64>> = Arc::new(ObjectTable::with_port(
            SchemeKind::Commutative.instantiate(),
            Port::new(0x1111).unwrap(),
        ));
        let mut handles = Vec::new();
        for seed in 0..8u64 {
            let t = Arc::clone(&t);
            handles.push(std::thread::spawn(move || {
                for i in 0..200u64 {
                    let (_, cap) = t.create(seed * 1_000_000 + i);
                    assert_eq!(t.validate(&cap).unwrap(), Rights::ALL);
                    let ro = t.restrict(&cap, Rights::READ).unwrap();
                    assert_eq!(
                        t.with_object(&ro, Rights::READ, |v| *v).unwrap(),
                        seed * 1_000_000 + i
                    );
                    if i % 2 == 0 {
                        assert_eq!(
                            t.delete(&cap, Rights::DELETE).unwrap(),
                            seed * 1_000_000 + i
                        );
                        assert!(t.validate(&cap).is_err(), "deleted cap must die");
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(t.len(), 8 * 100);
    }

    /// What the table would answer with nothing remembered: the scheme
    /// run against the entry's secret as it stands.
    fn computed<T>(t: &ObjectTable<T>, cap: &Capability) -> Result<Rights, ServerError> {
        let (shard, slot) = t.locate(cap.object);
        let entries = shard.entries.read();
        let entry = entries
            .get(slot)
            .and_then(|e| e.as_ref())
            .ok_or(ServerError::NoSuchObject)?;
        Ok(t.scheme().validate(cap, &entry.secret)?)
    }

    #[test]
    fn a_minted_capability_is_proven_and_a_revoked_or_imported_entry_is_cold() {
        let t: ObjectTable<String> = ObjectTable::with_shards(SchemeKind::OneWay.instantiate(), 1);
        t.set_port(Port::new(0x1111).unwrap());
        let (_, cap) = t.create("x".into());
        let word = |t: &ObjectTable<String>| {
            t.shards[0].entries.read()[0]
                .as_ref()
                .unwrap()
                .proven
                .load(Ordering::Relaxed)
        };
        assert_eq!(
            word(&t),
            (cap.rights.bits() as u64) << 56 | cap.check << 8 | 0xFF,
            "seeded at mint: presented rights | check | granted rights"
        );
        let fresh = t.revoke(&cap).unwrap();
        assert_eq!(word(&t), 0, "revocation forgets with the secret");
        assert_eq!(t.validate(&cap).unwrap_err(), ServerError::Forged);
        assert_eq!(word(&t), 0, "a rejection is never remembered");
        assert_eq!(t.validate(&fresh).unwrap(), Rights::ALL);
        assert_ne!(word(&t), 0);

        let dst: ObjectTable<String> =
            ObjectTable::with_shards(SchemeKind::OneWay.instantiate(), 1);
        dst.set_port(Port::new(0x1111).unwrap());
        let mut records = Vec::new();
        t.export_records(0, None, |slot, record| {
            records.push((slot, record.map(|(secret, data)| (secret, data.clone()))));
        });
        assert!(dst.install_records(0, records));
        assert_eq!(word(&dst), 0, "the word does not migrate");
        assert_eq!(dst.validate(&cap).unwrap_err(), ServerError::Forged);
        assert_eq!(dst.validate(&fresh).unwrap(), Rights::ALL);
    }

    #[test]
    fn a_check_wider_than_its_field_is_computed_never_recalled() {
        // `check` is a public field: bit 48 of an over-wide check would
        // carry into the packed rights and make (rights − 1, check +
        // 2^48) read as the proven (rights, check).
        for kind in SchemeKind::ALL {
            let t: ObjectTable<u32> = ObjectTable::with_shards(kind.instantiate(), 1);
            t.set_port(Port::new(0x1111).unwrap());
            let (_, cap) = t.create(0);
            assert_eq!(t.validate(&cap).unwrap(), Rights::ALL);
            let mut wide = cap.with_rights(Rights::from_bits(cap.rights.bits().wrapping_sub(1)));
            wide.check |= 1 << 48;
            assert_eq!(t.validate(&wide), computed(&t, &wide), "{kind}");
            assert_eq!(t.validate(&wide), computed(&t, &wide), "{kind}, again");
        }
    }

    use proptest::collection::vec;
    use proptest::prelude::*;

    proptest! {
        /// The remembered word against the scheme itself: whatever was
        /// presented, restricted, revoked, deleted or re-created, the
        /// table answers every capability ever issued exactly as the
        /// scheme does against the entry's current secret.
        #[test]
        fn a_warm_table_answers_as_the_scheme_does(
            steps in vec((0u8..10, any::<u16>(), any::<u8>()), 1..=40),
        ) {
            for kind in SchemeKind::ALL {
                // One stripe: a create after a delete lands in the
                // freed slot, under the dead capability's object number.
                let t: ObjectTable<u32> = ObjectTable::with_shards(kind.instantiate(), 1);
                t.set_port(Port::new(0x1111).unwrap());
                let mut caps = vec![t.create(0).1];
                for &(action, pick, bits) in &steps {
                    let cap = caps[pick as usize % caps.len()];
                    let rights = Rights::from_bits(bits);
                    let issued = match action {
                        0 | 1 => Some(t.create(pick as u32).1),
                        2 => t.restrict(&cap, rights).ok(),
                        3 => t.scheme.diminish(&cap, rights).ok(),
                        4 => Some(cap.with_rights(rights)),
                        5 => Some(cap.with_check(cap.check ^ 1 << (bits % 48))),
                        6 => t.revoke(&cap).ok(),
                        7 => {
                            let _ = t.delete(&cap, Rights::DELETE);
                            None
                        }
                        8 => {
                            let _ = t.with_object(&cap, rights, |_| ());
                            None
                        }
                        _ => {
                            let _ = t.with_object_mut(&cap, rights, |v| *v += 1);
                            None
                        }
                    };
                    caps.extend(issued);
                    // Start the sweep somewhere else each step, so every
                    // capability gets presented behind every other.
                    for i in 0..caps.len() {
                        let c = &caps[(i + pick as usize) % caps.len()];
                        prop_assert_eq!(
                            t.validate(c), computed(&t, c),
                            "{} after step {:?}: {:?}", kind, (action, pick, bits), c
                        );
                    }
                }
            }
        }
    }
}
