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
//! A node keeps **one** registration per port, as the paper's
//! (port, machine) pair: the latest `POST` wins, whichever machine sent
//! it, so a service that moves re-posts from its new home. Both
//! exchanges are the frozen v0 frames — `POST`, then a unicast `LOCATE`
//! answered by one `LOCATE_REPLY`. Client-side, the answer lands in a
//! [`ReplicaCache`] of the same kind the broadcast
//! [`Locator`](crate::Locator) keeps.
//!
//! # Demultiplexing
//!
//! A LOCATE query claims a fresh private reply port and matches the
//! answering `LOCATE_REPLY` by `(reply port, queried port)`. Stale or
//! foreign packets on the reply port are ignored, not errors: ports are
//! cheap and noise is expected on a broadcast medium.

use crate::frame::Frame;
use crate::locate::ReplicaCache;
use amoeba_net::{Endpoint, Header, MachineId, Port, Timestamp};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

/// A running rendezvous node: stores one registration per port and
/// answers unicast LOCATE queries for it.
///
/// Registrations are **leases**: a registration not refreshed (by
/// re-posting) within the node's TTL is dropped, so a server that
/// crashes eventually disappears from answers instead of being handed
/// out forever. Live servers must re-post at least once per TTL.
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
    /// TTL: expiry here is the backstop for crashed servers (clients
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
            // port → (machine, lease refresh time). The registration
            // binds the *source* machine — unforgeable, so a poster can
            // only divert lookups to itself, which the port system
            // already defends (knowing where a put-port lives does not
            // let you claim it). Lease bookkeeping runs on the
            // network's timeline (the reactor clock), like every other
            // cluster timer.
            let mut registry: HashMap<Port, (MachineId, Timestamp)> = HashMap::new();
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
                let live =
                    |&(_, at): &(MachineId, Timestamp)| now.saturating_duration_since(at) <= ttl;
                if now.saturating_duration_since(last_sweep) > ttl {
                    registry.retain(|_, reg| live(reg));
                    last_sweep = now;
                }
                match Frame::decode(&pkt.payload) {
                    Some(Frame::Post(port)) => {
                        registry.insert(port, (pkt.source, now));
                    }
                    Some(Frame::Locate(port)) if !pkt.header.reply.is_null() => {
                        // Unknown or lapsed ports get silence; the
                        // client times out.
                        if let Some(&(machine, _)) = registry.get(&port).filter(|reg| live(reg)) {
                            let reply = Frame::LocateReply(port, machine).encode();
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
            resolving: Mutex::new(()),
            timeout: Duration::from_millis(200),
        }
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
    /// serves) at its rendezvous node, replacing whatever machine was
    /// registered for it. Re-posting also renews the lease.
    pub fn post(&self, endpoint: &Endpoint, served_port: Port) {
        let node = self.node_for(served_port);
        endpoint.send(Header::to(node), Frame::Post(served_port).encode());
    }

    /// Client side: resolves which machine serves `port` by querying the
    /// responsible rendezvous node (no broadcast anywhere). Cached.
    pub fn locate(&self, endpoint: &Endpoint, port: Port) -> Option<MachineId> {
        if let Some(machine) = self.cache.pick(port, endpoint.now()) {
            return Some(machine);
        }
        let _querying = self.resolving.lock();
        // A peer may have resolved this port while we waited.
        if let Some(machine) = self.cache.pick(port, endpoint.now()) {
            return Some(machine);
        }
        let found = self.resolve(endpoint, port)?;
        self.cache.insert(port, vec![found], endpoint.now());
        Some(found)
    }

    /// One unicast `LOCATE` to the responsible node and its one
    /// `LOCATE_REPLY`; `None` if the node knows nobody or does not
    /// answer.
    fn resolve(&self, endpoint: &Endpoint, port: Port) -> Option<MachineId> {
        let node = self.node_for(port);
        let reply_get = Port::random();
        let reply_wire = endpoint.claim(reply_get);
        endpoint.send(
            Header::to(node).with_reply(reply_get),
            Frame::Locate(port).encode(),
        );
        let deadline = endpoint.now() + self.timeout;
        let found = loop {
            if endpoint.now() >= deadline {
                break None;
            }
            match endpoint.recv_deadline(deadline) {
                Ok(pkt) if pkt.header.dest == reply_wire => {
                    match Frame::decode(&pkt.payload) {
                        // Only answers for the port we asked about.
                        Some(Frame::LocateReply(p, machine)) if p == port => break Some(machine),
                        _ => continue, // noise or hostile: keep waiting
                    }
                }
                Ok(_) => continue,
                Err(_) => break None,
            }
        };
        endpoint.release(reply_get);
        found
    }

    /// Drops a cached answer.
    pub fn invalidate(&self, port: Port) {
        self.cache.invalidate(port);
    }

    /// Direct access to the answer cache.
    pub fn cache(&self) -> &ReplicaCache {
        &self.cache
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amoeba_net::Network;
    use bytes::Bytes;
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
        // migration" pointer). The re-post alone moves the port: the
        // old home never withdraws.
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
        mm.invalidate(served);
        assert_eq!(mm.locate(&client, served), Some(home2.id()));
        for r in running {
            r.stop();
        }
    }

    #[test]
    fn retired_registry_frames_register_nothing_and_get_no_answer() {
        // Tags 0x07 (POST_LOAD) and 0x09 (LOCATE_ALL) are retired: a
        // node drops them like noise. A former POST_LOAD registers
        // nothing, and a former LOCATE_ALL — even for a port that IS
        // registered — is never answered.
        let net = Network::new();
        let (running, node_ports) = nodes(&net, 1);
        let node = node_ports[0];
        let mm = Matchmaker::new(node_ports);
        let unposted = Port::new(0x10AD).unwrap();
        let posted = Port::new(0x5E21CE).unwrap();
        let server = net.attach_open();
        let value = |p: Port| p.value().to_be_bytes();
        server.send(
            Header::to(node),
            Bytes::from([&[0x07, 0x01][..], &value(unposted), &[0, 0, 0, 1]].concat()),
        );
        mm.post(&server, posted);

        let client = net.attach_open();
        assert_eq!(mm.locate(&client, unposted), None, "POST_LOAD registered");

        let reply_get = Port::random();
        client.claim(reply_get);
        client.send(
            Header::to(node).with_reply(reply_get),
            Bytes::from([&[0x09, 0x01][..], &value(posted)].concat()),
        );
        assert!(
            client.recv_timeout(Duration::from_millis(100)).is_err(),
            "LOCATE_ALL must get no answer"
        );
        // The node is still serving: the v0 exchange for the same port
        // answers.
        assert_eq!(mm.locate(&client, posted), Some(server.id()));
        for r in running {
            r.stop();
        }
    }

    #[test]
    fn stale_registrations_expire_without_unpost() {
        // A server that crashes never withdraws; its lease must lapse
        // so the node stops handing it out.
        let net = Network::new();
        let node = RendezvousNode::spawn_with_ttl(
            net.attach_open(),
            Port::new(0xAA10).unwrap(),
            Duration::from_millis(40),
        );
        let mm = Matchmaker::new(vec![node.service_port()]);
        let crashed_port = Port::new(0x0DD).unwrap();
        let alive_port = Port::new(0x0DE).unwrap();

        let crashed = net.attach_open();
        let alive = net.attach_open();
        mm.post(&crashed, crashed_port);
        mm.post(&alive, alive_port);
        let client = net.attach_open();
        assert_eq!(mm.locate(&client, crashed_port), Some(crashed.id()));
        assert_eq!(mm.locate(&client, alive_port), Some(alive.id()));

        // Only the live server refreshes its lease.
        for _ in 0..4 {
            std::thread::sleep(Duration::from_millis(15));
            mm.post(&alive, alive_port);
        }
        mm.invalidate(crashed_port);
        mm.invalidate(alive_port);
        // The live port first: the lapsed one's lookup waits out the
        // query timeout, far longer than the 40 ms lease.
        assert_eq!(mm.locate(&client, alive_port), Some(alive.id()));
        assert_eq!(
            mm.locate(&client, crashed_port),
            None,
            "stale lease must lapse"
        );

        // A restarted server re-posts and is immediately back.
        mm.post(&crashed, crashed_port);
        assert_eq!(mm.locate(&client, crashed_port), Some(crashed.id()));
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
        // Servers re-post one port over each other while clients
        // resolve it: every answer must be a machine that posted, and
        // once the churn settles lookups see the last poster.
        let net = Network::new();
        let (running, node_ports) = nodes(&net, 2);
        let mm = Arc::new(Matchmaker::new(node_ports.clone()));
        let served = Port::new(0xC414).unwrap();
        let churners: Vec<Endpoint> = (0..4).map(|_| net.attach_open()).collect();
        let ever: std::collections::HashSet<MachineId> = churners.iter().map(|e| e.id()).collect();
        let last = churners[0].id();

        let stop = Arc::new(AtomicBool::new(false));
        let churn_threads: Vec<_> = churners
            .into_iter()
            .map(|ep| {
                let mm = Arc::clone(&mm);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        mm.post(&ep, served);
                        std::thread::sleep(Duration::from_micros(200));
                    }
                    ep
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
                        if let Some(machine) = mm.locate(&client, served) {
                            assert!(
                                ever.contains(&machine),
                                "locate returned a machine that never posted"
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
        let churners: Vec<Endpoint> = churn_threads
            .into_iter()
            .map(|t| t.join().unwrap())
            .collect();

        // After the dust settles the latest POST is the registration.
        mm.post(&churners[0], served);
        let client = net.attach_open();
        mm.invalidate(served);
        assert_eq!(mm.locate(&client, served), Some(last), "the last post wins");
        for r in running {
            r.stop();
        }
    }
}
