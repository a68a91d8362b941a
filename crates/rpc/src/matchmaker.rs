//! Match-making **without broadcast** (§2.2's closing pointer to
//! Mullender & Vitányi, "Distributed Match-Making for Processes in
//! Computer Networks", 1984).
//!
//! On networks with no broadcast, LOCATE cannot flood. Instead a set of
//! well-known **rendezvous nodes** is agreed on; a server *posts*
//! (port → my machine) at the node selected by hashing the port, and a
//! client *queries* the same node — both sides hash to the same place,
//! so they meet without any global search. (The cited paper's √n grid
//! generalises this to posting at a row and querying a column; with a
//! single hash-selected node per port the meeting set is a singleton,
//! which suffices to reproduce the mechanism.)
//!
//! ```text
//! server ── Post(P) ──► node[h(P)]  ◄── Locate(P) ── client
//! ```
//!
//! # Replica sets (the cluster registry)
//!
//! Since the cluster subsystem a node stores a **set** of registrations
//! per port: each replica of a service posts `(port, my machine, my
//! load)` with [`Matchmaker::post_load`] and withdraws with
//! [`Matchmaker::unpost`]. A plain `LOCATE` is still answered with the
//! single least-loaded replica (the frozen v0 exchange), while
//! `LOCATE_ALL` returns the whole live set in one
//! `LOCATE_REPLY_MULTI` frame — see `docs/PROTOCOL.md`, "Cluster
//! frames". Client-side, resolved sets land in a
//! [`ReplicaCache`] shared with the broadcast
//! [`Locator`](crate::Locator), including its
//! invalidate-on-transport-error path.
//!
//! # Demultiplexing
//!
//! A LOCATE query claims a fresh private reply port and matches the
//! answering `LOCATE_REPLY` by `(reply port, queried port)` — the same
//! private-reply-port discipline the RPC client uses for transactions
//! (and, with a batch id added to the key, for batch transactions; see
//! `docs/PROTOCOL.md`, "Demultiplexing keys"). Stale or foreign
//! packets on the reply port are ignored, not errors: ports are cheap
//! and noise is expected on a broadcast medium.

use crate::frame::{Frame, ReplicaInfo, MAX_LOCATE_REPLICAS};
use crate::locate::{PlacementPolicy, Replica, ReplicaCache};
use amoeba_net::{Endpoint, Header, MachineId, Port, Timestamp};
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::Duration;

/// A running rendezvous node: stores per-port replica registrations and
/// answers unicast LOCATE / LOCATE_ALL queries for them.
///
/// Registrations are **leases**: a registration not refreshed (by
/// re-posting) within the node's TTL is dropped, so a replica that
/// crashes without an `UNPOST` eventually disappears from answers
/// instead of being handed out forever. Live replicas under a changing
/// load re-post anyway; idle ones must re-post at least once per TTL.
#[derive(Debug)]
pub struct RendezvousNode {
    service_port: Port,
    /// Shared with the node thread, which blocks on it untimed;
    /// [closing](Endpoint::close) it is what stops the node.
    endpoint: Arc<Endpoint>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl RendezvousNode {
    /// Default registration lease. Generous next to the clients' cache
    /// TTL: expiry here is the backstop for crashed replicas (clients
    /// drop them faster by invalidating on timeout), not the primary
    /// liveness signal.
    pub const REGISTRATION_TTL: Duration = Duration::from_secs(30);

    /// Binds `get_port` on `endpoint` and serves registrations and
    /// queries on a background thread, with the default
    /// [`REGISTRATION_TTL`](Self::REGISTRATION_TTL).
    pub fn spawn(endpoint: Endpoint, get_port: Port) -> RendezvousNode {
        Self::spawn_with_ttl(endpoint, get_port, Self::REGISTRATION_TTL)
    }

    /// Like [`spawn`](Self::spawn) with an explicit registration lease.
    pub fn spawn_with_ttl(endpoint: Endpoint, get_port: Port, ttl: Duration) -> RendezvousNode {
        let service_port = endpoint.claim(get_port);
        let shared = Arc::new(endpoint);
        let endpoint = Arc::clone(&shared);
        let handle = std::thread::spawn(move || {
            // port → (machine → (advertised load, lease refresh time)).
            // The registration binds the *source* machine —
            // unforgeable, so nobody can register a port at somebody
            // else's address... or rather, they can only divert lookups
            // to themselves, which the port system already defends
            // (knowing where a put-port lives does not let you claim
            // it).
            // Lease bookkeeping runs on the network's timeline (the
            // reactor clock), like every other cluster timer.
            let mut registry: HashMap<Port, BTreeMap<MachineId, (u32, Timestamp)>> = HashMap::new();
            let live = |registry: &mut HashMap<Port, BTreeMap<MachineId, (u32, Timestamp)>>,
                        port: Port,
                        now: Timestamp|
             -> Option<Vec<(MachineId, u32)>> {
                let set = registry.get_mut(&port)?;
                set.retain(|_, &mut (_, at)| now.saturating_duration_since(at) <= ttl);
                if set.is_empty() {
                    registry.remove(&port);
                    return None;
                }
                Some(set.iter().map(|(&m, &(l, _))| (m, l)).collect())
            };
            let mut last_sweep = endpoint.now();
            // An untimed block: a frame, or `stop`/drop closing the
            // endpoint, is what wakes the node.
            while let Ok(pkt) = endpoint.recv() {
                // Periodic full sweep: lazy pruning on lookups alone
                // would let registrations for never-queried ports
                // accumulate without bound (a hostile poster streaming
                // POSTs for distinct ports, or ordinary churn of
                // short-lived services nobody resolves). Checked on
                // every arrival, which is the only time the registry
                // can grow.
                let now = endpoint.now();
                if now.saturating_duration_since(last_sweep) > ttl {
                    registry.retain(|_, set| {
                        set.retain(|_, &mut (_, at)| now.saturating_duration_since(at) <= ttl);
                        !set.is_empty()
                    });
                    last_sweep = now;
                }
                match Frame::decode(&pkt.payload) {
                    Some(Frame::Post(port)) => {
                        registry
                            .entry(port)
                            .or_default()
                            .insert(pkt.source, (0, now));
                    }
                    Some(Frame::PostLoad(port, load)) => {
                        registry
                            .entry(port)
                            .or_default()
                            .insert(pkt.source, (load, now));
                    }
                    Some(Frame::Unpost(port)) => {
                        if let Some(set) = registry.get_mut(&port) {
                            set.remove(&pkt.source);
                            if set.is_empty() {
                                registry.remove(&port);
                            }
                        }
                    }
                    Some(Frame::Locate(port)) if !pkt.header.reply.is_null() => {
                        // The frozen v0 exchange: one machine. With
                        // several replicas, hand out the least loaded.
                        if let Some((machine, _)) = live(&mut registry, port, now)
                            .and_then(|set| set.into_iter().min_by_key(|&(m, l)| (l, m)))
                        {
                            let reply = Frame::LocateReply(port, machine).encode();
                            endpoint.send(Header::to(pkt.header.reply), reply);
                        }
                        // Unknown ports: silence; the client times out.
                    }
                    Some(Frame::LocateAll(port)) if !pkt.header.reply.is_null() => {
                        if let Some(set) = live(&mut registry, port, now) {
                            let mut replicas: Vec<ReplicaInfo> = set
                                .into_iter()
                                .map(|(machine, load)| ReplicaInfo { machine, load })
                                .collect();
                            replicas.sort_by_key(|r| (r.load, r.machine));
                            replicas.truncate(MAX_LOCATE_REPLICAS);
                            let reply = Frame::LocateReplyMulti { port, replicas }.encode();
                            endpoint.send(Header::to(pkt.header.reply), reply);
                        }
                    }
                    _ => {}
                }
            }
        });
        RendezvousNode {
            service_port,
            endpoint: shared,
            handle: Some(handle),
        }
    }

    /// The wire port clients and servers address this node by.
    pub fn service_port(&self) -> Port {
        self.service_port
    }

    /// Stops the node.
    pub fn stop(mut self) {
        self.shutdown_now();
    }

    fn shutdown_now(&mut self) {
        self.endpoint.close();
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for RendezvousNode {
    fn drop(&mut self) {
        self.shutdown_now();
    }
}

/// Client/server side of rendezvous match-making: knows the agreed node
/// list and hashes ports onto it.
#[derive(Debug)]
pub struct Matchmaker {
    nodes: Vec<Port>,
    cache: ReplicaCache,
    policy: PlacementPolicy,
    timeout: Duration,
    /// Serialises cache-miss queries: two threads awaiting replies on
    /// one endpoint would consume each other's answers (see
    /// [`Locator`](crate::Locator)'s matching lock).
    resolving: Mutex<()>,
}

impl Matchmaker {
    /// A matchmaker over the agreed rendezvous nodes.
    ///
    /// # Panics
    /// Panics if `nodes` is empty.
    pub fn new(nodes: Vec<Port>) -> Matchmaker {
        assert!(!nodes.is_empty(), "at least one rendezvous node required");
        Matchmaker {
            nodes,
            cache: ReplicaCache::new(crate::Locator::DEFAULT_TTL),
            policy: PlacementPolicy::default(),
            resolving: Mutex::new(()),
            timeout: Duration::from_millis(200),
        }
    }

    /// Builder knob: replaces the replica-set cache TTL.
    pub fn with_ttl(mut self, ttl: Duration) -> Matchmaker {
        self.cache = ReplicaCache::new(ttl);
        self
    }

    /// Builder knob: replaces the placement policy. The registry path
    /// carries per-replica loads, so [`PlacementPolicy::LeastLoad`] is
    /// meaningful here.
    pub fn with_policy(mut self, policy: PlacementPolicy) -> Matchmaker {
        self.policy = policy;
        self
    }

    /// Which rendezvous node is responsible for `port`.
    fn node_for(&self, port: Port) -> Port {
        // FNV-style mix; both sides must agree, nothing else matters.
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in port.value().to_be_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1_0000_01b3);
        }
        self.nodes[(h % self.nodes.len() as u64) as usize]
    }

    /// Server side: registers `served_port` (which `endpoint`'s machine
    /// serves) at its rendezvous node.
    pub fn post(&self, endpoint: &Endpoint, served_port: Port) {
        let node = self.node_for(served_port);
        endpoint.send(Header::to(node), Frame::Post(served_port).encode());
    }

    /// Server side: registers `served_port` with an advertised load
    /// gauge. Re-posting refreshes the load — replicas under a changing
    /// load re-post periodically.
    pub fn post_load(&self, endpoint: &Endpoint, served_port: Port, load: u32) {
        let node = self.node_for(served_port);
        endpoint.send(
            Header::to(node),
            Frame::PostLoad(served_port, load).encode(),
        );
    }

    /// Server side: withdraws this machine's registration for
    /// `served_port` (planned shutdown; crashes are instead discovered
    /// by clients timing out and invalidating).
    pub fn unpost(&self, endpoint: &Endpoint, served_port: Port) {
        let node = self.node_for(served_port);
        endpoint.send(Header::to(node), Frame::Unpost(served_port).encode());
    }

    /// Client side: resolves which machine serves `port` by querying the
    /// responsible rendezvous node (no broadcast anywhere). Cached; with
    /// several live replicas the configured [`PlacementPolicy`] picks
    /// one per call.
    pub fn locate(&self, endpoint: &Endpoint, port: Port) -> Option<MachineId> {
        if let Some(r) = self.cache.pick(port, self.policy, endpoint.now()) {
            return Some(r.machine);
        }
        let _querying = self.resolving.lock();
        // A peer may have resolved this port while we waited.
        if let Some(r) = self.cache.pick(port, self.policy, endpoint.now()) {
            return Some(r.machine);
        }
        self.cache
            .insert(port, self.resolve_all(endpoint, port), endpoint.now());
        self.cache
            .pick(port, self.policy, endpoint.now())
            .map(|r| r.machine)
    }

    /// Picks a replica from the cache alone — no network round-trip
    /// (the endpoint only supplies the timeline point for TTL expiry).
    /// `None` means uncached or expired; see
    /// [`Locator::pick_cached`](crate::Locator::pick_cached).
    pub fn pick_cached(&self, endpoint: &Endpoint, port: Port) -> Option<MachineId> {
        self.cache
            .pick(port, self.policy, endpoint.now())
            .map(|r| r.machine)
    }

    /// Client side: resolves the **full** live replica set for `port`
    /// (cache or one `LOCATE_ALL` round-trip). Empty if the node knows
    /// nobody or does not answer.
    pub fn locate_all(&self, endpoint: &Endpoint, port: Port) -> Vec<Replica> {
        if let Some(set) = self.cache.all(port, endpoint.now()) {
            return set;
        }
        let _querying = self.resolving.lock();
        if let Some(set) = self.cache.all(port, endpoint.now()) {
            return set; // a peer resolved while we waited
        }
        let found = self.resolve_all(endpoint, port);
        // Must copy: the cache keeps its own set while the caller gets
        // the fresh one (small Copy structs — a short memcpy).
        self.cache.insert(port, found.clone(), endpoint.now());
        found
    }

    /// One `LOCATE_ALL` round-trip to the responsible node.
    fn resolve_all(&self, endpoint: &Endpoint, port: Port) -> Vec<Replica> {
        let node = self.node_for(port);
        let reply_get = Port::random();
        let reply_wire = endpoint.claim(reply_get);
        endpoint.send(
            Header::to(node).with_reply(reply_get),
            Frame::LocateAll(port).encode(),
        );
        let deadline = endpoint.now() + self.timeout;
        let found = loop {
            if endpoint.now() >= deadline {
                break Vec::new();
            }
            match endpoint.recv_deadline(deadline) {
                Ok(pkt) if pkt.header.dest == reply_wire => {
                    match Frame::decode(&pkt.payload) {
                        // Only answers for the port we asked about.
                        Some(Frame::LocateReplyMulti { port: p, replicas }) if p == port => {
                            break replicas.into_iter().map(Replica::from).collect();
                        }
                        _ => continue, // noise or hostile: keep waiting
                    }
                }
                Ok(_) => continue,
                Err(_) => break Vec::new(),
            }
        };
        endpoint.release(reply_get);
        found
    }

    /// Drops a cached replica set.
    pub fn invalidate(&self, port: Port) {
        self.cache.invalidate(port);
    }

    /// Drops one machine from a port's cached set — the shared
    /// invalidate-on-transport-error path (see
    /// [`Locator::invalidate_machine`](crate::Locator::invalidate_machine)).
    pub fn invalidate_machine(&self, port: Port, machine: MachineId) {
        self.cache.invalidate_machine(port, machine);
    }

    /// Direct access to the replica-set cache.
    pub fn cache(&self) -> &ReplicaCache {
        &self.cache
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amoeba_net::Network;
    use std::sync::atomic::{AtomicBool, Ordering};

    fn nodes(net: &Network, n: usize) -> (Vec<RendezvousNode>, Vec<Port>) {
        let running: Vec<RendezvousNode> = (0..n)
            .map(|i| {
                RendezvousNode::spawn(net.attach_open(), Port::new(0xAA00 + i as u64).unwrap())
            })
            .collect();
        let ports = running.iter().map(|r| r.service_port()).collect();
        (running, ports)
    }

    #[test]
    fn post_then_locate_without_any_broadcast() {
        let net = Network::new();
        let (running, node_ports) = nodes(&net, 3);
        let mm = Matchmaker::new(node_ports);

        let server = net.attach_open();
        let served = Port::new(0x5E21CE).unwrap();
        server.claim(served);
        mm.post(&server, served);

        let client = net.attach_open();
        let before = net.stats().snapshot();
        let found = mm.locate(&client, served);
        let after = net.stats().snapshot();
        assert_eq!(found, Some(server.id()));
        assert_eq!(
            after.broadcasts_sent - before.broadcasts_sent,
            0,
            "rendezvous match-making must not broadcast"
        );
        for r in running {
            r.stop();
        }
    }

    #[test]
    fn unknown_port_times_out() {
        let net = Network::new();
        let (running, node_ports) = nodes(&net, 2);
        let mm = Matchmaker::new(node_ports);
        let client = net.attach_open();
        assert_eq!(mm.locate(&client, Port::new(0xDEAD).unwrap()), None);
        for r in running {
            r.stop();
        }
    }

    #[test]
    fn cache_answers_repeat_lookups_locally() {
        let net = Network::new();
        let (running, node_ports) = nodes(&net, 1);
        let mm = Matchmaker::new(node_ports);
        let server = net.attach_open();
        let served = Port::new(0xCACE).unwrap();
        mm.post(&server, served);
        let client = net.attach_open();
        assert!(mm.locate(&client, served).is_some());
        let before = net.stats().snapshot();
        assert!(mm.locate(&client, served).is_some());
        let after = net.stats().snapshot();
        assert_eq!(after.packets_sent - before.packets_sent, 0);
        for r in running {
            r.stop();
        }
    }

    #[test]
    fn ports_spread_across_nodes() {
        let net = Network::new();
        let (running, node_ports) = nodes(&net, 4);
        let mm = Matchmaker::new(node_ports.clone());
        let mut used = std::collections::HashSet::new();
        for v in 1..200u64 {
            used.insert(mm.node_for(Port::new(v).unwrap()));
        }
        assert_eq!(used.len(), 4, "hashing should use every node");
        for r in running {
            r.stop();
        }
    }

    #[test]
    fn repost_overrides_after_migration() {
        // A service migrating to another machine re-posts; lookups after
        // cache invalidation find the new home (§2.2's "process
        // migration" pointer).
        let net = Network::new();
        let (running, node_ports) = nodes(&net, 2);
        let mm = Matchmaker::new(node_ports);
        let served = Port::new(0x111333).unwrap();

        let home1 = net.attach_open();
        mm.post(&home1, served);
        let client = net.attach_open();
        assert_eq!(mm.locate(&client, served), Some(home1.id()));

        let home2 = net.attach_open();
        mm.post(&home2, served);
        mm.unpost(&home1, served);
        mm.invalidate(served);
        assert_eq!(mm.locate(&client, served), Some(home2.id()));
        for r in running {
            r.stop();
        }
    }

    #[test]
    fn locate_all_returns_every_registered_replica_with_loads() {
        let net = Network::new();
        let (running, node_ports) = nodes(&net, 2);
        let mm = Matchmaker::new(node_ports);
        let served = Port::new(0xC1A5).unwrap();

        let replicas: Vec<Endpoint> = (0..3).map(|_| net.attach_open()).collect();
        for (i, ep) in replicas.iter().enumerate() {
            mm.post_load(ep, served, 10 - i as u32);
        }
        let client = net.attach_open();
        let found = mm.locate_all(&client, served);
        assert_eq!(found.len(), 3);
        let by_machine: std::collections::HashMap<MachineId, u32> =
            found.iter().map(|r| (r.machine, r.load)).collect();
        for (i, ep) in replicas.iter().enumerate() {
            assert_eq!(by_machine.get(&ep.id()), Some(&(10 - i as u32)));
        }
        for r in running {
            r.stop();
        }
    }

    #[test]
    fn least_load_policy_follows_reposts() {
        let net = Network::new();
        let (running, node_ports) = nodes(&net, 1);
        let mm = Matchmaker::new(node_ports).with_policy(PlacementPolicy::LeastLoad);
        let served = Port::new(0x10AD).unwrap();

        let busy = net.attach_open();
        let idle = net.attach_open();
        mm.post_load(&busy, served, 50);
        mm.post_load(&idle, served, 1);
        let client = net.attach_open();
        assert_eq!(mm.locate(&client, served), Some(idle.id()));

        // The idle machine gets busy and re-posts; after invalidation
        // the other replica wins.
        mm.post_load(&idle, served, 90);
        mm.invalidate(served);
        assert_eq!(mm.locate(&client, served), Some(busy.id()));
        for r in running {
            r.stop();
        }
    }

    #[test]
    fn unpost_removes_only_the_departing_replica() {
        let net = Network::new();
        let (running, node_ports) = nodes(&net, 1);
        let mm = Matchmaker::new(node_ports);
        let served = Port::new(0xDEAF).unwrap();

        let stay = net.attach_open();
        let leave = net.attach_open();
        mm.post_load(&stay, served, 0);
        mm.post_load(&leave, served, 0);
        mm.unpost(&leave, served);

        let client = net.attach_open();
        let found = mm.locate_all(&client, served);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].machine, stay.id());
        for r in running {
            r.stop();
        }
    }

    #[test]
    fn stale_registrations_expire_without_unpost() {
        // A replica that crashes never unposts; its lease must lapse
        // so the registry stops handing it out.
        let net = Network::new();
        let node = RendezvousNode::spawn_with_ttl(
            net.attach_open(),
            Port::new(0xAA10).unwrap(),
            Duration::from_millis(40),
        );
        let mm = Matchmaker::new(vec![node.service_port()]);
        let served = Port::new(0x0DD).unwrap();

        let crashed = net.attach_open();
        let alive = net.attach_open();
        mm.post_load(&crashed, served, 0);
        mm.post_load(&alive, served, 5);
        let client = net.attach_open();
        assert_eq!(mm.locate_all(&client, served).len(), 2);

        // Only the live replica refreshes its lease.
        for _ in 0..4 {
            std::thread::sleep(Duration::from_millis(15));
            mm.post_load(&alive, served, 5);
        }
        mm.invalidate(served);
        let found = mm.locate_all(&client, served);
        assert_eq!(found.len(), 1, "stale lease must lapse: {found:?}");
        assert_eq!(found[0].machine, alive.id());

        // A restarted replica re-posts and is immediately back.
        mm.post_load(&crashed, served, 1);
        mm.invalidate(served);
        assert_eq!(mm.locate_all(&client, served).len(), 2);
        node.stop();
    }

    #[test]
    fn an_idle_node_never_wakes_to_look_at_its_queue() {
        let net = Network::new();
        let (running, _) = nodes(&net, 1);
        // Let the node thread reach its blocking receive.
        std::thread::sleep(Duration::from_millis(20));
        let before = net.hot_path();
        std::thread::sleep(Duration::from_millis(100));
        let idle = net.hot_path() - before;
        assert_eq!(
            (idle.queue_parks, idle.queue_wakes, idle.queue_spin_hits),
            (0, 0, 0),
            "an idle node stays parked in one untimed receive: {idle:?}"
        );
        for r in running {
            r.stop(); // and still stops: closing the endpoint wakes it
        }
    }

    #[test]
    fn registration_churn_under_concurrent_lookups() {
        // Replicas join and leave while clients resolve: every answer
        // must be a subset of the machines that were ever registered,
        // and once the churn settles lookups see exactly the survivors.
        let net = Network::new();
        let (running, node_ports) = nodes(&net, 2);
        let mm = Arc::new(Matchmaker::new(node_ports.clone()));
        let served = Port::new(0xC414).unwrap();
        let churners: Vec<Endpoint> = (0..4).map(|_| net.attach_open()).collect();
        let ever: std::collections::HashSet<MachineId> = churners.iter().map(|e| e.id()).collect();

        let stop = Arc::new(AtomicBool::new(false));
        let churn_threads: Vec<_> = churners
            .into_iter()
            .enumerate()
            .map(|(i, ep)| {
                let mm = Arc::clone(&mm);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut joined = false;
                    let mut round = 0u32;
                    while !stop.load(Ordering::Relaxed) {
                        if joined {
                            mm.unpost(&ep, served);
                        } else {
                            mm.post_load(&ep, served, round);
                        }
                        joined = !joined;
                        round += 1;
                        std::thread::sleep(Duration::from_micros(200));
                    }
                    // Settle: everyone registered at the end.
                    mm.post_load(&ep, served, i as u32);
                })
            })
            .collect();

        let lookup_threads: Vec<_> = (0..3)
            .map(|_| {
                let mm = Arc::new(Matchmaker::new(node_ports.clone()));
                let net = net.clone();
                let ever = ever.clone();
                std::thread::spawn(move || {
                    let client = net.attach_open();
                    for _ in 0..30 {
                        mm.invalidate(served);
                        for r in mm.locate_all(&client, served) {
                            assert!(
                                ever.contains(&r.machine),
                                "locate_all returned a never-registered machine"
                            );
                        }
                    }
                })
            })
            .collect();
        for t in lookup_threads {
            t.join().unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        for t in churn_threads {
            t.join().unwrap();
        }

        // After the dust settles every churner is registered again.
        let client = net.attach_open();
        mm.invalidate(served);
        let final_set: std::collections::HashSet<MachineId> = mm
            .locate_all(&client, served)
            .into_iter()
            .map(|r| r.machine)
            .collect();
        assert_eq!(final_set, ever, "survivors must all be resolvable");
        for r in running {
            r.stop();
        }
    }
}
