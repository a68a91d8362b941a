//! Port location: broadcast LOCATE with a **replica-set** cache.
//!
//! §2.2: "The associative addressing can be simulated in software when
//! the kernels are trusted by having each one maintain a cache of
//! (port, machine-number) pairs. If a port is not in the cache, it can
//! be found by broadcasting a LOCATE message" — the Mullender–Vitányi
//! match-making the paper cites.
//!
//! Since the cluster subsystem, one port may be served by *several*
//! machines at once (§3.4's transparent distribution, horizontally).
//! The cache therefore maps each port to the full set of live replicas
//! that answered the LOCATE broadcast, and [`Locator::locate`] hands
//! them out round-robin, one per call. Three hardening rules apply to
//! answers, all exercised by the tests below:
//!
//! * **Asked-for ports only** — a reply naming a port we did not ask
//!   about is dropped, never cached (a hostile node cannot seed the
//!   cache for other services).
//! * **Self-answers only** — on the broadcast path a server answers for
//!   itself, so a reply whose claimed machine differs from the packet's
//!   unforgeable source machine is dropped (a hostile node cannot
//!   divert another port's traffic to a third machine).
//! * **Entries expire** — cached sets older than the TTL are
//!   re-resolved, so a migrated or crashed replica stops being handed
//!   out even if no caller reported a failure.
//!
//! [`Locator::invalidate_machine`] is the explicit
//! invalidate-on-transport-error path: failover code calls it when a
//! transaction against a cached machine times out, dropping that one
//! replica while the survivors keep serving.
//!
//! The cache hit/miss counters feed experiment **E7**.

use crate::frame::Frame;
use amoeba_net::{Endpoint, Header, MachineId, Port, RecvError, Timestamp};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::time::Duration;

#[derive(Debug)]
struct CacheEntry {
    replicas: Vec<MachineId>,
    /// Round-robin cursor over `replicas`.
    cursor: usize,
    /// Timeline point of insertion — TTL expiry runs on the network's
    /// clock (simulated time on a simulation network), not the OS
    /// clock.
    inserted: Timestamp,
}

/// The client-side replica-set cache shared by the broadcast
/// [`Locator`] and the rendezvous [`Matchmaker`](crate::Matchmaker).
///
/// Pure state, no I/O: resolution paths insert replica sets, placement
/// picks replicas, and failure reports invalidate single machines. The
/// invariant the cluster layer leans on — **a pick never returns a
/// machine that was invalidated after the last insert** — is pinned by
/// a proptest in this module.
#[derive(Debug)]
pub struct ReplicaCache {
    entries: Mutex<HashMap<Port, CacheEntry>>,
    ttl: Duration,
}

impl ReplicaCache {
    /// An empty cache whose entries expire `ttl` after insertion.
    pub fn new(ttl: Duration) -> ReplicaCache {
        ReplicaCache {
            entries: Mutex::new(HashMap::new()),
            ttl,
        }
    }

    /// Caches the replica set for `port` at timeline point `now`,
    /// replacing any previous set. Duplicate machines are collapsed;
    /// an empty set just drops the entry.
    pub fn insert(&self, port: Port, replicas: Vec<MachineId>, now: Timestamp) {
        let mut deduped: Vec<MachineId> = Vec::with_capacity(replicas.len());
        for machine in replicas {
            if !deduped.contains(&machine) {
                deduped.push(machine);
            }
        }
        let mut entries = self.entries.lock();
        if deduped.is_empty() {
            entries.remove(&port);
        } else {
            entries.insert(
                port,
                CacheEntry {
                    replicas: deduped,
                    cursor: 0,
                    inserted: now,
                },
            );
        }
    }

    /// Picks the next live replica for `port` round-robin, or `None`
    /// if the port is uncached or the entry has expired by timeline
    /// point `now` (expired entries are dropped on the way out).
    pub fn pick(&self, port: Port, now: Timestamp) -> Option<MachineId> {
        let mut entries = self.entries.lock();
        let entry = entries.get_mut(&port)?;
        if now.saturating_duration_since(entry.inserted) > self.ttl {
            entries.remove(&port);
            return None;
        }
        let machine = entry.replicas[entry.cursor % entry.replicas.len()];
        entry.cursor = entry.cursor.wrapping_add(1);
        Some(machine)
    }

    /// The full cached replica set, or `None` if uncached or expired
    /// by timeline point `now`.
    pub fn all(&self, port: Port, now: Timestamp) -> Option<Vec<MachineId>> {
        let mut entries = self.entries.lock();
        let entry = entries.get(&port)?;
        if now.saturating_duration_since(entry.inserted) > self.ttl {
            entries.remove(&port);
            return None;
        }
        // Must copy: callers keep the set past this lock (iterating,
        // diffing against later resolves); machine ids are `Copy`, so
        // this is a short memcpy, not a deep clone.
        Some(entry.replicas.clone())
    }

    /// Drops the whole cached set for `port`.
    pub fn invalidate(&self, port: Port) {
        self.entries.lock().remove(&port);
    }

    /// Drops one machine from `port`'s cached set (transport error
    /// observed against it); removes the entry entirely when the last
    /// replica goes.
    pub fn invalidate_machine(&self, port: Port, machine: MachineId) {
        let mut entries = self.entries.lock();
        if let Some(entry) = entries.get_mut(&port) {
            entry.replicas.retain(|&m| m != machine);
            if entry.replicas.is_empty() {
                entries.remove(&port);
            }
        }
    }

    /// Empties the cache.
    pub fn clear(&self) {
        self.entries.lock().clear();
    }

    /// Number of cached ports.
    pub fn len(&self) -> usize {
        self.entries.lock().len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.lock().is_empty()
    }
}

/// A locate cache bound to an endpoint.
#[derive(Debug)]
pub struct Locator {
    cache: ReplicaCache,
    hits: std::sync::atomic::AtomicU64,
    misses: std::sync::atomic::AtomicU64,
    timeout: Duration,
    /// Serialises cache-miss resolution: two threads gathering LOCATE
    /// answers on one endpoint would consume each other's replies
    /// (each gather drains the shared receive queue and drops packets
    /// for reply ports it does not own).
    resolving: Mutex<()>,
}

impl Default for Locator {
    fn default() -> Self {
        Self::new()
    }
}

impl Locator {
    /// Default time-to-live of a cached replica set. Long enough that a
    /// steady client almost always hits, short enough that a crashed
    /// replica stops being handed out even when nobody reports it.
    pub const DEFAULT_TTL: Duration = Duration::from_secs(5);

    /// Extra window spent collecting further answers after the first
    /// LOCATE reply arrives — on a broadcast medium every live replica
    /// answers, but not in the same instant.
    pub const GATHER_WINDOW: Duration = Duration::from_millis(10);

    /// An empty cache with the default 200 ms query timeout.
    pub fn new() -> Locator {
        Self::with_timeout(Duration::from_millis(200))
    }

    /// An empty cache with an explicit query timeout.
    pub fn with_timeout(timeout: Duration) -> Locator {
        Locator {
            cache: ReplicaCache::new(Self::DEFAULT_TTL),
            hits: Default::default(),
            misses: Default::default(),
            timeout,
            resolving: Mutex::new(()),
        }
    }

    /// Builder knob: replaces the cache TTL.
    pub fn with_ttl(mut self, ttl: Duration) -> Locator {
        self.cache = ReplicaCache::new(ttl);
        self
    }

    /// Resolves which machine serves `port`, consulting the cache first
    /// and broadcasting a LOCATE on a miss. With several live replicas
    /// each call takes the next one round-robin.
    ///
    /// Returns `None` if nobody answers within the timeout.
    pub fn locate(&self, endpoint: &Endpoint, port: Port) -> Option<MachineId> {
        if let Some(machine) = self.cache.pick(port, endpoint.now()) {
            self.hits.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            return Some(machine);
        }
        self.misses
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let _gathering = self.resolving.lock();
        // A peer may have resolved this port while we waited for the
        // resolution lock.
        if let Some(machine) = self.cache.pick(port, endpoint.now()) {
            return Some(machine);
        }
        let found = self.broadcast_locate(endpoint, port);
        self.cache.insert(port, found, endpoint.now());
        self.cache.pick(port, endpoint.now())
    }

    /// Picks a replica from the cache alone — no network, no miss
    /// accounting (the endpoint only supplies the timeline point for
    /// TTL expiry). `None` means uncached or expired; callers that can
    /// resolve should then fall back to [`locate`](Self::locate).
    /// This is the fast path a failover client takes without holding
    /// any resolution lock.
    pub fn pick_cached(&self, endpoint: &Endpoint, port: Port) -> Option<MachineId> {
        self.cache.pick(port, endpoint.now())
    }

    /// Resolves the **full** live replica set for `port` (cache or
    /// broadcast). Empty if nobody answers.
    pub fn replicas(&self, endpoint: &Endpoint, port: Port) -> Vec<MachineId> {
        if let Some(set) = self.cache.all(port, endpoint.now()) {
            self.hits.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            return set;
        }
        self.misses
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let _gathering = self.resolving.lock();
        if let Some(set) = self.cache.all(port, endpoint.now()) {
            return set; // a peer resolved while we waited
        }
        let found = self.broadcast_locate(endpoint, port);
        self.cache.insert(port, found, endpoint.now());
        self.cache.all(port, endpoint.now()).unwrap_or_default()
    }

    /// Broadcasts one LOCATE and gathers every valid answer: waits up
    /// to the query timeout for the first reply, then keeps collecting
    /// for the gather window so slower replicas make it into the set.
    fn broadcast_locate(&self, endpoint: &Endpoint, port: Port) -> Vec<MachineId> {
        let reply_get = Port::random();
        let reply_wire = endpoint.claim(reply_get);
        let header = Header::to(Port::BROADCAST).with_reply(reply_get);
        endpoint.send(header, Frame::Locate(port).encode());
        let mut deadline = endpoint.now() + self.timeout;
        let mut found: Vec<MachineId> = Vec::new();
        loop {
            if endpoint.now() >= deadline {
                break;
            }
            let pkt = match endpoint.recv_deadline(deadline) {
                Ok(pkt) if pkt.header.dest == reply_wire => pkt,
                Ok(_) => continue,
                Err(RecvError::Timeout) | Err(RecvError::Disconnected) => break,
            };
            // Hostile-reply validation: only answers for the port we
            // asked about, and only machines answering for themselves
            // (the packet source is stamped by the network, unforgeable).
            match Frame::decode(&pkt.payload) {
                Some(Frame::LocateReply(answered_port, machine))
                    if answered_port == port && machine == pkt.source =>
                {
                    // Duplicates are fine; `ReplicaCache::insert`
                    // collapses them when the gathered set is cached.
                    found.push(machine);
                    // First valid answer shortens the wait to the
                    // gather window: collect the stragglers, then stop.
                    // (`min` only ever tightens, so the query timeout
                    // still holds.)
                    deadline = deadline.min(endpoint.now() + Self::GATHER_WINDOW);
                }
                _ => {} // noise or hostile: drop, keep listening
            }
        }
        endpoint.release(reply_get);
        found
    }

    /// Drops the whole cached replica set for a port (e.g. after a
    /// service migration).
    pub fn invalidate(&self, port: Port) {
        self.cache.invalidate(port);
    }

    /// Drops one machine from a port's cached set — the shared
    /// invalidate-on-transport-error path: failover code calls this
    /// when a transaction against the machine timed out, and the next
    /// [`locate`](Self::locate) hands out a surviving replica (or
    /// re-broadcasts once the set is empty).
    pub fn invalidate_machine(&self, port: Port, machine: MachineId) {
        self.cache.invalidate_machine(port, machine);
    }

    /// Empties the entire cache.
    pub fn clear(&self) {
        self.cache.clear();
    }

    /// Direct access to the replica-set cache.
    pub fn cache(&self) -> &ReplicaCache {
        &self.cache
    }

    /// (cache hits, cache misses) so far.
    pub fn stats(&self) -> (u64, u64) {
        (
            self.hits.load(std::sync::atomic::Ordering::Relaxed),
            self.misses.load(std::sync::atomic::Ordering::Relaxed),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::ServerPort;
    use amoeba_net::Network;
    use bytes::Bytes;

    #[test]
    fn locate_finds_server_and_caches() {
        let net = Network::new();
        let server = ServerPort::bind(net.attach_open(), Port::new(0x77).unwrap());
        let p = server.put_port();
        let server_machine = server.endpoint().id();
        let t = std::thread::spawn(move || {
            // Serve until a real request ends the loop.
            let req = server.next_request().unwrap();
            server.reply(&req, Bytes::new());
        });

        let client_ep = net.attach_open();
        let locator = Locator::new();
        let before = net.stats().snapshot();
        assert_eq!(locator.locate(&client_ep, p), Some(server_machine));
        let mid = net.stats().snapshot();
        assert_eq!(mid.broadcasts_sent - before.broadcasts_sent, 1);

        // Second lookup: cache hit, no broadcast.
        assert_eq!(locator.locate(&client_ep, p), Some(server_machine));
        let after = net.stats().snapshot();
        assert_eq!(after.broadcasts_sent - mid.broadcasts_sent, 0);
        assert_eq!(locator.stats(), (1, 1));

        // Unblock the server thread.
        let client = crate::Client::new(client_ep);
        client.trans(p, Bytes::new()).unwrap();
        t.join().unwrap();
    }

    #[test]
    fn locate_unknown_port_times_out() {
        let net = Network::new();
        let ep = net.attach_open();
        let locator = Locator::with_timeout(Duration::from_millis(20));
        assert_eq!(locator.locate(&ep, Port::new(0xDEAD).unwrap()), None);
        assert_eq!(locator.stats(), (0, 1));
    }

    #[test]
    fn invalidate_forces_rebroadcast() {
        let net = Network::new();
        let ep = net.attach_open();
        let locator = Locator::with_timeout(Duration::from_millis(10));
        let p = Port::new(0xBEEF).unwrap();
        locator.locate(&ep, p);
        locator.invalidate(p);
        locator.locate(&ep, p);
        assert_eq!(locator.stats(), (0, 2));
    }

    #[test]
    fn cache_entries_expire_after_ttl() {
        let net = Network::new();
        let server = ServerPort::bind(net.attach_open(), Port::new(0x88).unwrap());
        let p = server.put_port();
        let t = answer_locates_for(server, 2);

        let ep = net.attach_open();
        let locator = Locator::new().with_ttl(Duration::from_millis(30));
        assert!(locator.locate(&ep, p).is_some());
        std::thread::sleep(Duration::from_millis(50));
        let before = net.stats().snapshot();
        assert!(locator.locate(&ep, p).is_some(), "re-resolves after expiry");
        assert_eq!(
            net.stats().snapshot().broadcasts_sent - before.broadcasts_sent,
            1,
            "expired entry must trigger a fresh broadcast"
        );
        assert_eq!(locator.stats(), (0, 2));
        t.join().unwrap();
    }

    /// Spawns a thread that waits `n` times on a bound server port,
    /// which answers LOCATE broadcasts as a side effect of waiting.
    fn answer_locates_for(server: ServerPort, n: usize) -> std::thread::JoinHandle<()> {
        std::thread::spawn(move || {
            for _ in 0..n {
                // Each locate wakes the worker once; the timeout bounds
                // the test if a broadcast goes missing.
                let _ = server.next_request_timeout(Duration::from_millis(500));
            }
        })
    }

    #[test]
    fn locate_gathers_every_live_replica() {
        // Three servers claim the same put-port: one LOCATE broadcast
        // must discover all of them, and round-robin placement must
        // rotate through the full set.
        let net = Network::new();
        let servers: Vec<ServerPort> = (0..3)
            .map(|_| ServerPort::bind(net.attach_open(), Port::new(0x99).unwrap()))
            .collect();
        let p = servers[0].put_port();
        let machines: std::collections::HashSet<MachineId> =
            servers.iter().map(|s| s.endpoint().id()).collect();
        let threads: Vec<_> = servers
            .into_iter()
            .map(|s| answer_locates_for(s, 1))
            .collect();

        let ep = net.attach_open();
        let locator = Locator::new();
        let set: std::collections::HashSet<MachineId> =
            locator.replicas(&ep, p).into_iter().collect();
        assert_eq!(set, machines, "every replica must be discovered");

        // Round-robin visits all three across consecutive picks.
        let picks: std::collections::HashSet<MachineId> =
            (0..3).map(|_| locator.locate(&ep, p).unwrap()).collect();
        assert_eq!(picks, machines, "round-robin must rotate the set");
        for t in threads {
            t.join().unwrap();
        }
    }

    #[test]
    fn hostile_replies_are_ignored() {
        // A hostile node answers every LOCATE with (a) a reply for a
        // different port and (b) a reply for the right port naming a
        // third machine. Neither may enter the cache.
        let net = Network::new();
        let victim_port = Port::new(0x600D).unwrap();
        let other_port = Port::new(0xBAD).unwrap();
        let hostile = net.attach_open();
        let third_machine = net.attach_open();
        let third_id = third_machine.id();
        let hostile_thread = std::thread::spawn(move || {
            let pkt = hostile.recv_timeout(Duration::from_secs(1)).unwrap();
            let reply_to = pkt.header.reply;
            // (a) unsolicited port
            hostile.send(
                Header::to(reply_to),
                Frame::LocateReply(other_port, hostile.id()).encode(),
            );
            // (b) right port, diverted to a third machine
            hostile.send(
                Header::to(reply_to),
                Frame::LocateReply(victim_port, third_id).encode(),
            );
        });

        let ep = net.attach_open();
        let locator = Locator::with_timeout(Duration::from_millis(60));
        assert_eq!(
            locator.locate(&ep, victim_port),
            None,
            "diverting reply must be dropped"
        );
        assert!(
            locator.cache().all(other_port, ep.now()).is_none(),
            "unsolicited port must never be cached"
        );
        hostile_thread.join().unwrap();
    }

    #[test]
    fn invalidate_machine_drops_only_that_replica() {
        let cache = ReplicaCache::new(Duration::from_secs(60));
        let now = Timestamp::ZERO;
        let p = Port::new(0x1234).unwrap();
        let m1 = MachineId::from(1);
        let m2 = MachineId::from(2);
        cache.insert(p, vec![m1, m2], now);
        cache.invalidate_machine(p, m1);
        for _ in 0..4 {
            assert_eq!(cache.pick(p, now), Some(m2));
        }
        cache.invalidate_machine(p, m2);
        assert!(cache.pick(p, now).is_none());
        assert!(cache.is_empty(), "empty sets drop the entry entirely");
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// One step of the cache-state machine the proptest drives.
        #[derive(Debug, Clone)]
        enum Op {
            Insert(Vec<u8>),
            InvalidateMachine(u8),
            Invalidate,
            Pick,
        }

        fn op_strategy() -> impl Strategy<Value = Op> {
            prop_oneof![
                proptest::collection::vec(0u8..8, 1..5).prop_map(Op::Insert),
                (0u8..8).prop_map(Op::InvalidateMachine),
                Just(Op::Invalidate),
                Just(Op::Pick),
            ]
        }

        proptest! {
            /// Pinning the failover invariant: after any interleaving
            /// of inserts and invalidations, a pick never returns a
            /// machine invalidated since the last insert of that port.
            #[test]
            fn pick_never_returns_an_invalidated_machine(
                ops in proptest::collection::vec(op_strategy(), 1..40)
            ) {
                let cache = ReplicaCache::new(Duration::from_secs(3600));
                let now = Timestamp::ZERO;
                let port = Port::new(0x7E57).unwrap();
                let mut live: std::collections::HashSet<u8> =
                    std::collections::HashSet::new();
                for op in ops {
                    match op {
                        Op::Insert(machines) => {
                            live = machines.iter().copied().collect();
                            cache.insert(
                                port,
                                machines
                                    .iter()
                                    .map(|&m| MachineId::from(m as u32))
                                    .collect(),
                                now,
                            );
                        }
                        Op::InvalidateMachine(m) => {
                            live.remove(&m);
                            cache.invalidate_machine(port, MachineId::from(m as u32));
                        }
                        Op::Invalidate => {
                            live.clear();
                            cache.invalidate(port);
                        }
                        Op::Pick => {
                            match cache.pick(port, now) {
                                Some(machine) => prop_assert!(
                                    live.contains(&(machine.as_u32() as u8)),
                                    "picked invalidated machine {:?}",
                                    machine
                                ),
                                None => prop_assert!(
                                    live.is_empty(),
                                    "cache empty while {} replicas live",
                                    live.len()
                                ),
                            }
                        }
                    }
                }
            }
        }
    }
}
