//! The pollable single-threaded service pump for the deterministic
//! simulation executor.
//!
//! [`ServiceRunner`](crate::ServiceRunner) serves on background OS
//! threads — exactly what a deterministic simulation cannot have. A
//! [`SimPump`] binds the same [`ServerPort`] but exposes serving as a
//! single non-blocking [`poll`](SimPump::poll), so a
//! [`SimExecutor`](amoeba_net::SimExecutor) actor can drive the whole
//! dispatch loop (receive, decode, handle, reply) from the one simulation
//! thread. Ports are explicit — nothing in the pump draws entropy.

use crate::service::{serve_one, Service};
use amoeba_net::{Endpoint, MachineId, Port};
use amoeba_rpc::ServerPort;
use std::sync::Arc;

/// A bound service driven by polling instead of worker threads.
pub struct SimPump {
    server: ServerPort,
    service: Arc<dyn Service>,
}

impl std::fmt::Debug for SimPump {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimPump")
            .field("put_port", &self.server.put_port())
            .finish()
    }
}

impl SimPump {
    /// Binds `get_port` on `endpoint` and prepares `service` for
    /// polled dispatch. The service's `bind` hook runs here, exactly
    /// once, as with the threaded runner.
    pub fn bind(endpoint: Endpoint, get_port: Port, mut service: impl Service) -> SimPump {
        let server = ServerPort::bind(endpoint, get_port);
        service.bind(server.put_port());
        SimPump {
            server,
            service: Arc::new(service),
        }
    }

    /// Serves every request that is ready right now, without parking.
    /// Returns `true` if at least one request was handled — the
    /// executor-actor convention for "made progress".
    pub fn poll(&self) -> bool {
        let mut served = false;
        while let Some(req) = self.server.poll_request() {
            serve_one(&*self.service, &self.server, &req);
            served = true;
        }
        served
    }

    /// The published put-port clients send to.
    pub fn put_port(&self) -> Port {
        self.server.put_port()
    }

    /// The machine this pump serves from.
    pub fn machine(&self) -> MachineId {
        self.server.endpoint().id()
    }

    /// The underlying bound port.
    pub fn server(&self) -> &ServerPort {
        &self.server
    }

    /// The service being pumped (e.g. to reach its
    /// [`ShardMigrator`](crate::ShardMigrator) from a migration actor).
    pub fn service(&self) -> &Arc<dyn Service> {
        &self.service
    }
}
