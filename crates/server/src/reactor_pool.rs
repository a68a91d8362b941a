//! The reactor dispatch mode: **many bound services multiplexed onto a
//! small driver pool** (N services ≫ N threads).
//!
//! [`ServiceRunner::spawn_workers`](crate::ServiceRunner::spawn_workers)
//! burns at least one OS thread per service — fine for a handful of
//! servers, a hard ceiling for a node hosting dozens. A [`ReactorPool`]
//! instead binds every service's port up front and drives them all
//! from a fixed pool of driver threads: each driver scans the ports
//! round-robin, serving whatever [`ServerPort::poll_request`] hands it
//! without ever blocking on one port, and parks on the network's
//! [`Reactor`] only when *every* port is idle — waking on the next
//! packet anywhere: a single condvar wait shared by the whole pool,
//! instead of one blocked thread per service.
//!
//! Fairness: a driver serves at most [`MAX_BURST`] requests from one
//! port before moving on, so a hot service cannot starve its
//! neighbours on the same driver.
//!
//! Blocking handlers still block their driver (this is a dispatch
//! multiplexer, not a preemptive scheduler): a deployment whose
//! handlers call *other services in the same pool* must size the pool
//! above the maximum call-chain width, exactly as it would size a
//! worker pool today.

use crate::service::{serve_one, LoadGuard, Service};
use amoeba_net::{Endpoint, MachineId, Network, Port, Reactor};
use amoeba_rpc::ServerPort;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Most requests a driver serves from one port before scanning on.
pub const MAX_BURST: usize = 16;

/// One service slot of a [`ReactorPool`]: its bound port and handler.
struct DrivenService {
    server: ServerPort,
    service: Box<dyn Service>,
}

/// A pool of driver threads multiplexing many bound service ports —
/// the `spawn_reactor` dispatch mode. See the module docs.
pub struct ReactorPool {
    entries: Arc<Vec<DrivenService>>,
    put_ports: Vec<Port>,
    machines: Vec<MachineId>,
    reactor: Arc<Reactor>,
    shutdown: Arc<AtomicBool>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for ReactorPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReactorPool")
            .field("services", &self.entries.len())
            .field("drivers", &self.handles.len())
            .finish()
    }
}

impl ReactorPool {
    /// Binds every `(endpoint, get_port, service)` triple and drives
    /// them all on `threads` driver threads.
    ///
    /// # Panics
    /// Panics if `services` is empty, `threads` is zero, or the
    /// endpoints are not all attached to the same network (one pool
    /// parks on one reactor).
    pub fn spawn(services: Vec<(Endpoint, Port, Box<dyn Service>)>, threads: usize) -> ReactorPool {
        assert!(!services.is_empty(), "a reactor pool needs services");
        assert!(threads > 0, "a reactor pool needs at least one driver");
        let reactor = Arc::clone(services[0].0.reactor());
        let mut entries = Vec::with_capacity(services.len());
        for (endpoint, get_port, mut service) in services {
            assert!(
                Arc::ptr_eq(endpoint.reactor(), &reactor),
                "all services of one pool must share a network/reactor"
            );
            let server = ServerPort::bind(endpoint, get_port);
            service.bind(server.put_port());
            entries.push(DrivenService { server, service });
        }
        let put_ports = entries.iter().map(|e| e.server.put_port()).collect();
        let machines = entries.iter().map(|e| e.server.endpoint().id()).collect();
        let entries = Arc::new(entries);
        let shutdown = Arc::new(AtomicBool::new(false));
        let handles = (0..threads)
            .map(|_| {
                let entries = Arc::clone(&entries);
                let reactor = Arc::clone(&reactor);
                let stop = Arc::clone(&shutdown);
                std::thread::spawn(move || drive(&entries, &reactor, &stop))
            })
            .collect();
        ReactorPool {
            entries,
            put_ports,
            machines,
            reactor,
            shutdown,
            handles,
        }
    }

    /// Attaches one fresh open-interface machine per service, binds a
    /// random get-port each, and drives them on `threads` drivers.
    pub fn spawn_open(
        net: &Network,
        services: Vec<Box<dyn Service>>,
        threads: usize,
    ) -> ReactorPool {
        let mut rng = StdRng::from_entropy();
        let bound = services
            .into_iter()
            .map(|svc| (net.attach_open(), Port::random(&mut rng), svc))
            .collect();
        Self::spawn(bound, threads)
    }

    /// The published put-ports, in service order.
    pub fn put_ports(&self) -> &[Port] {
        &self.put_ports
    }

    /// The machines hosting each service, in service order.
    pub fn machines(&self) -> &[MachineId] {
        &self.machines
    }

    /// Number of services driven by this pool.
    pub fn services(&self) -> usize {
        self.entries.len()
    }

    /// Number of driver threads.
    pub fn drivers(&self) -> usize {
        self.handles.len()
    }

    /// Stops every driver and waits for them to exit. The ports stay
    /// claimed until the pool is dropped (as with a halted
    /// [`ServiceRunner`](crate::ServiceRunner), clients of a stopped
    /// pool see timeouts, not disconnects).
    pub fn stop(mut self) {
        self.shutdown_now();
    }

    fn shutdown_now(&mut self) {
        self.shutdown.store(true, Ordering::Relaxed);
        // Parked drivers re-poll on reactor events only; wake them so
        // they observe the flag.
        self.reactor.notify();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for ReactorPool {
    fn drop(&mut self) {
        self.shutdown_now();
    }
}

/// One driver thread's loop: scan every port, serve what is ready,
/// park on the reactor when the whole pool is idle.
fn drive(entries: &[DrivenService], reactor: &Reactor, stop: &AtomicBool) {
    while !stop.load(Ordering::Relaxed) {
        let mut served = 0usize;
        for entry in entries {
            let mut burst = 0usize;
            while let Some(req) = entry.server.poll_request() {
                let endpoint = entry.server.endpoint();
                endpoint.add_load(1);
                let _in_flight = LoadGuard(endpoint);
                serve_one(&*entry.service, &entry.server, &req);
                served += 1;
                burst += 1;
                if burst >= MAX_BURST {
                    break; // fairness: let the other ports have a turn
                }
            }
        }
        if served == 0 {
            // Everything idle: park until some port of the pool has
            // work this driver could actually claim (or shutdown).
            // `has_claimable_work` includes a pump-role probe so a
            // peer driver mid-pump does not make the rest of the pool
            // busy-spin on arrivals only the pump can drain. The poll
            // runs under the reactor lock, so a packet enqueued before
            // the park is never missed — its notify either precedes
            // our check or wakes the wait (the pump also notifies on
            // releasing the role with arrivals left).
            let _: Option<()> = reactor.park_until(None, || {
                (stop.load(Ordering::Relaxed)
                    || entries.iter().any(|e| e.server.has_claimable_work()))
                .then_some(())
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{Reply, Request, Status};
    use crate::service::{RequestCtx, ServiceClient};
    use crate::wire;
    use bytes::Bytes;
    use std::time::Duration;

    /// A stateless service that reports its identity and echoes.
    struct Echo {
        id: u32,
    }

    impl Service for Echo {
        fn handle(&self, req: &Request, _ctx: &RequestCtx) -> Reply {
            match req.command {
                1 => Reply::ok(req.params.clone()),
                2 => Reply::ok(wire::Writer::new().u32(self.id).finish()),
                _ => Reply::status(Status::BadCommand),
            }
        }
    }

    fn spawn_echoes(net: &Network, services: usize, threads: usize) -> ReactorPool {
        let boxed: Vec<Box<dyn Service>> = (0..services)
            .map(|i| Box::new(Echo { id: i as u32 }) as Box<dyn Service>)
            .collect();
        ReactorPool::spawn_open(net, boxed, threads)
    }

    #[test]
    fn eight_services_on_two_drivers_all_answer() {
        let net = Network::new();
        let pool = spawn_echoes(&net, 8, 2);
        assert_eq!(pool.services(), 8);
        assert_eq!(pool.drivers(), 2);
        let client = ServiceClient::open(&net);
        for (i, &port) in pool.put_ports().to_vec().iter().enumerate() {
            let body = client.call_anonymous(port, 2, Bytes::new()).unwrap();
            assert_eq!(wire::Reader::new(&body).u32().unwrap(), i as u32);
        }
        pool.stop();
    }

    #[test]
    fn concurrent_clients_hammer_many_ports() {
        let net = Network::new();
        let pool = spawn_echoes(&net, 12, 3);
        let ports = pool.put_ports().to_vec();
        let handles: Vec<_> = (0..6usize)
            .map(|t| {
                let net = net.clone();
                let ports = ports.clone();
                std::thread::spawn(move || {
                    let client = ServiceClient::open(&net);
                    for i in 0..20u32 {
                        let port = ports[(t + i as usize) % ports.len()];
                        let body = Bytes::from(i.to_be_bytes().to_vec());
                        assert_eq!(client.call_anonymous(port, 1, body.clone()).unwrap(), body);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        pool.stop();
    }

    #[test]
    fn pool_serves_latent_traffic() {
        let net = Network::new();
        net.set_latency(Duration::from_millis(1));
        let pool = spawn_echoes(&net, 16, 2);
        let ports = pool.put_ports().to_vec();
        let client = ServiceClient::open(&net);
        for (i, &port) in ports.iter().enumerate() {
            let body = Bytes::from(vec![i as u8]);
            assert_eq!(client.call_anonymous(port, 1, body.clone()).unwrap(), body);
        }
        // 16 round-trips × 2 ms of hop latency.
        assert!(
            net.now().since_epoch() >= Duration::from_millis(32),
            "every hop must be waited out by the driver that takes it"
        );
        pool.stop();
    }

    #[test]
    fn stop_is_idempotent_with_drop() {
        let net = Network::new();
        let pool = spawn_echoes(&net, 2, 1);
        pool.stop();
    }

    #[test]
    #[should_panic(expected = "at least one driver")]
    fn zero_drivers_rejected() {
        let net = Network::new();
        let _ = spawn_echoes(&net, 1, 0);
    }

    #[test]
    #[should_panic(expected = "share a network")]
    fn mixed_networks_rejected() {
        let a = Network::new();
        let b = Network::new();
        let mut rng = StdRng::from_entropy();
        let _ = ReactorPool::spawn(
            vec![
                (
                    a.attach_open(),
                    Port::random(&mut rng),
                    Box::new(Echo { id: 0 }) as Box<dyn Service>,
                ),
                (
                    b.attach_open(),
                    Port::random(&mut rng),
                    Box::new(Echo { id: 1 }) as Box<dyn Service>,
                ),
            ],
            1,
        );
    }
}
