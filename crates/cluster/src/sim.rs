//! Replica groups for the deterministic simulation executor.

use amoeba_net::{ActorPoll, MachineId, Network, Port, SimExecutor};
use amoeba_server::{Service, SimPump};
use std::sync::Arc;

/// A replicated service group built for the deterministic simulation:
/// `n` [`SimPump`]s on distinct machines, all claiming the **same**
/// get-port (the §3.4 replicated placement shape), each driven by a
/// polled executor actor instead of worker threads.
///
/// The replicas are bound as fault-plan targets `0..n`, so a seeded [`FaultPlan`](amoeba_net::FaultPlan)'s
/// crash and partition windows land on them — replica death
/// mid-transaction is part of the schedule, not a separate harness.
pub struct SimReplicaSet {
    pumps: Vec<Arc<SimPump>>,
    put_port: Port,
}

impl std::fmt::Debug for SimReplicaSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimReplicaSet")
            .field("replicas", &self.pumps.len())
            .field("put_port", &self.put_port)
            .finish()
    }
}

impl SimReplicaSet {
    /// Binds `n` replicas of the service produced by `make` (called
    /// once per replica with its index) on fresh open-interface
    /// machines, all claiming `get_port`.
    ///
    /// # Panics
    /// Panics if `n` is zero.
    pub fn bind<S: Service>(
        net: &Network,
        get_port: Port,
        n: usize,
        mut make: impl FnMut(usize) -> S,
    ) -> SimReplicaSet {
        assert!(n > 0, "a replica set needs at least one replica");
        let pumps: Vec<Arc<SimPump>> = (0..n)
            .map(|i| Arc::new(SimPump::bind(net.attach_open(), get_port, make(i))))
            .collect();
        for (i, pump) in pumps.iter().enumerate() {
            net.bind_fault_target(i, pump.machine());
        }
        let put_port = pumps[0].put_port();
        SimReplicaSet { pumps, put_port }
    }

    /// Registers one executor **daemon** per replica, each serving
    /// every ready request on its poll. Daemons never report done; the
    /// run ends when the workload actors do.
    pub fn spawn_actors<'a>(&'a self, exec: &mut SimExecutor<'a>) {
        for pump in &self.pumps {
            let pump = Arc::clone(pump);
            exec.spawn_daemon(pump.machine(), move || {
                if pump.poll() {
                    ActorPoll::Progress
                } else {
                    ActorPoll::Idle
                }
            });
        }
    }

    /// The published put-port clients send to (identical across
    /// replicas — F is deterministic).
    pub fn put_port(&self) -> Port {
        self.put_port
    }

    /// Number of replicas.
    pub fn replicas(&self) -> usize {
        self.pumps.len()
    }

    /// The machine serving replica `index`.
    pub fn machine(&self, index: usize) -> MachineId {
        self.pumps[index].machine()
    }

    /// The pump of replica `index` (e.g. for load assertions).
    pub fn pump(&self, index: usize) -> &SimPump {
        &self.pumps[index]
    }
}
