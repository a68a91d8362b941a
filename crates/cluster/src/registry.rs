//! The cluster registry: rendezvous nodes that store `(port, machine,
//! load)` replica registrations and answer replicated LOCATE queries.

use amoeba_net::{Network, Port};
use amoeba_rpc::{Matchmaker, PlacementPolicy, RendezvousNode};

/// A running set of rendezvous registry nodes for a cluster.
///
/// Replicas register `(port, machine, load)` via
/// [`ServiceRunner::register`](amoeba_server::ServiceRunner::register);
/// clients resolve the live replica set through a [`Matchmaker`] handle
/// ([`ClusterRegistry::handle`]) — one `LOCATE_ALL` round-trip, no
/// broadcast anywhere. The node-side storage and wire exchange live in
/// `amoeba-rpc`; this type owns the node lifecycle and the agreed node
/// port list.
#[derive(Debug)]
pub struct ClusterRegistry {
    nodes: Vec<RendezvousNode>,
    ports: Vec<Port>,
}

impl ClusterRegistry {
    /// Spawns `nodes` registry nodes, each on a fresh machine with a
    /// random service port.
    ///
    /// # Panics
    /// Panics if `nodes` is zero.
    pub fn spawn(net: &Network, nodes: usize) -> ClusterRegistry {
        assert!(nodes > 0, "a registry needs at least one node");
        let running: Vec<RendezvousNode> = (0..nodes)
            .map(|_| RendezvousNode::spawn(net.attach_open(), Port::random()))
            .collect();
        let ports = running.iter().map(|n| n.service_port()).collect();
        ClusterRegistry {
            nodes: running,
            ports,
        }
    }

    /// The agreed node port list — what every participant must share.
    pub fn node_ports(&self) -> &[Port] {
        &self.ports
    }

    /// A fresh client/server handle onto this registry. Each handle
    /// carries its own replica-set cache, so every client process gets
    /// one (sharing a handle shares the cache, which is what a worker
    /// pool inside one process wants).
    pub fn handle(&self) -> Matchmaker {
        Matchmaker::new(self.ports.clone())
    }

    /// A handle with an explicit placement policy (the registry path
    /// carries loads, so [`PlacementPolicy::LeastLoad`] is effective).
    pub fn handle_with_policy(&self, policy: PlacementPolicy) -> Matchmaker {
        Matchmaker::new(self.ports.clone()).with_policy(policy)
    }

    /// Stops every node.
    pub fn stop(self) {
        for n in self.nodes {
            n.stop();
        }
    }
}
