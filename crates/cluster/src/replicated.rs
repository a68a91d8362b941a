//! Replicated placement: N replicas serve one put-port, clients pick
//! one per call and fail over transparently.

use amoeba_cap::Capability;
use amoeba_net::{MachineId, Network, Port};
use amoeba_rpc::{Client, Locator, RpcConfig, RpcError};
use amoeba_server::proto::null_cap;
use amoeba_server::{ClientError, Service, ServiceClient, ServiceRunner};
use bytes::Bytes;
use parking_lot::Mutex;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::time::Duration;

/// A group of [`ServiceRunner`] replicas serving **one** put-port from
/// distinct machines.
///
/// Every replica binds the same get-port; with machine-targeted frames
/// (`Client::start` with a target) each request reaches exactly the
/// replica the client picked, while broadcast LOCATE reaches
/// all of them — every live replica answers, which is how clients
/// learn the set.
#[derive(Debug)]
pub struct ServiceCluster {
    put_port: Port,
    runners: Vec<ServiceRunner>,
}

impl ServiceCluster {
    /// Spawns `replicas` instances of the service (one per fresh
    /// open-interface machine, `workers` dispatch workers each), all
    /// bound to one shared random get-port. `factory(i)` builds the
    /// `i`-th replica's service instance.
    ///
    /// # Panics
    /// Panics if `replicas` is zero.
    pub fn spawn_open<S: Service>(
        net: &Network,
        replicas: usize,
        workers: usize,
        mut factory: impl FnMut(usize) -> S,
    ) -> ServiceCluster {
        assert!(replicas > 0, "a cluster needs at least one replica");
        let get_port = Port::random();
        let runners: Vec<ServiceRunner> = (0..replicas)
            .map(|i| ServiceRunner::spawn_workers(net.attach_open(), get_port, factory(i), workers))
            .collect();
        let put_port = runners[0].put_port();
        ServiceCluster { put_port, runners }
    }

    /// The single put-port every replica serves.
    pub fn put_port(&self) -> Port {
        self.put_port
    }

    /// The machines serving the port, in replica order.
    pub fn machines(&self) -> Vec<MachineId> {
        self.runners.iter().map(|r| r.machine()).collect()
    }

    /// Number of replicas (live or halted).
    pub fn replicas(&self) -> usize {
        self.runners.len()
    }

    /// Simulates a crash of replica `index`: its workers stop but its
    /// machine stays attached and keeps claiming the port, so clients
    /// that pick it see timeouts — exactly what the failover path must
    /// absorb. Returns the halted machine. Idempotent per replica.
    ///
    /// # Panics
    /// Panics if `index` is out of range.
    pub fn halt_replica(&mut self, index: usize) -> MachineId {
        let r = &mut self.runners[index];
        r.halt();
        r.machine()
    }

    /// Stops every replica and releases their machines.
    pub fn stop(self) {
        for r in self.runners {
            r.stop();
        }
    }
}

/// A service client for replicated clusters: resolves the replica set
/// of the destination port by broadcast LOCATE, picks one replica per
/// call round-robin, and **fails
/// over transparently** — a transport timeout invalidates the picked
/// machine and retries the next replica, so callers see (slower)
/// successes, never errors, while at least one replica lives.
///
/// The call surface mirrors [`ServiceClient`]; code written against a
/// single server needs no change beyond construction.
///
/// # At-least-once, across replicas
///
/// Failover keeps the RPC layer's at-least-once contract (see
/// `docs/PROTOCOL.md`): a timeout does **not** prove the first replica
/// never executed the request — a merely slow replica may serve it
/// after the retry has gone to a survivor, executing the request
/// twice, once per machine. This is the same hazard as single-server
/// retransmission, widened to the replica set: services with
/// non-idempotent operations must deduplicate (or be deployed behind
/// the sharded shape, where a capability names exactly one owner).
/// Application errors never fail over — they come from a live replica,
/// and retrying elsewhere would duplicate work for certain.
#[derive(Debug)]
pub struct ClusterClient {
    svc: ServiceClient,
    locator: Locator,
    /// Discovery runs on its **own** endpoint (a second interface on
    /// the client host): LOCATE gathers drain their endpoint's queue
    /// wholesale, which must never race the transaction demux on the
    /// RPC endpoint. (Concurrent resolves are serialised inside the
    /// `Locator` itself.)
    discovery_ep: amoeba_net::Endpoint,
    /// Upper bound on distinct replicas tried per call.
    max_attempts: usize,
    /// Transparent retries performed so far (observability: "callers
    /// see retries, not errors").
    failovers: AtomicU64,
    /// Machines this client considers dead, per port, with the number
    /// of consecutive probe misses: invalidated on a transport error,
    /// or observed to have vanished from a fresh resolve (the
    /// TTL-expiry path, where a crashed replica silently drops out of
    /// the re-resolved set). The health probe's worklist; a machine
    /// leaves when a re-LOCATE shows it answering again (re-admission)
    /// or after [`MAX_PROBE_MISSES`](Self::MAX_PROBE_MISSES)
    /// consecutive misses (presumed permanently departed — a planned
    /// scale-down, not a crash).
    dead: Mutex<HashMap<Port, HashMap<MachineId, u32>>>,
    /// Every machine ever resolved for each port — the baseline the
    /// vanish detection diffs fresh resolves against.
    known: Mutex<HashMap<Port, HashSet<MachineId>>>,
}

impl ClusterClient {
    /// Default per-attempt transaction budget: short enough that
    /// failing over is fast, long enough for a loaded replica to
    /// answer. (One attempt per transaction — retransmission to a dead
    /// replica is wasted time; the retry goes to the *next* replica
    /// instead.)
    pub const DEFAULT_ATTEMPT_CONFIG: RpcConfig = RpcConfig {
        timeout: Duration::from_millis(150),
        attempts: 1,
    };

    /// A broadcast-discovery client on a fresh open-interface machine.
    pub fn broadcast(net: &Network) -> ClusterClient {
        ClusterClient {
            svc: ServiceClient::with_client(Client::with_config(
                net.attach_open(),
                Self::DEFAULT_ATTEMPT_CONFIG,
            )),
            locator: Locator::new(),
            discovery_ep: net.attach_open(),
            max_attempts: 4,
            failovers: AtomicU64::new(0),
            dead: Mutex::new(HashMap::new()),
            known: Mutex::new(HashMap::new()),
        }
    }

    fn pick(&self, port: Port) -> Option<MachineId> {
        // Fast path: a cached set costs one cache lock, no network;
        // only misses enter the (internally serialised) resolve path.
        if let Some(machine) = self.locator.pick_cached(&self.discovery_ep, port) {
            return Some(machine);
        }
        // Cache miss: resolve the full set (one broadcast, same cost as
        // a single pick) so the vanish detection sees it, then pick
        // from the refreshed cache.
        let set = self.locator.replicas(&self.discovery_ep, port);
        self.note_live(port, &set);
        self.locator.pick_cached(&self.discovery_ep, port)
    }

    /// Records a fresh resolve: machines seen before but missing from
    /// `live` go on the dead list (they vanished — crash plus cache
    /// TTL expiry never produces a transport error to catch them);
    /// dead-listed machines present in `live` are re-admitted. Returns
    /// how many were re-admitted.
    fn note_live(&self, port: Port, live: &[MachineId]) -> usize {
        // An empty set is a failed or timed-out resolve, not evidence
        // that every replica vanished: dead-listing the whole baseline
        // on one discovery blip would have the prober tearing down the
        // hot cache every interval. A genuinely dead sole replica is
        // still caught by the transport-error path.
        if live.is_empty() {
            return 0;
        }
        let live_set: HashSet<MachineId> = live.iter().copied().collect();
        let mut known = self.known.lock();
        let baseline = known.entry(port).or_default();
        let mut dead = self.dead.lock();
        for &m in baseline.iter() {
            if !live_set.contains(&m) {
                dead.entry(port).or_default().entry(m).or_insert(0);
            }
        }
        let mut readmitted = 0;
        if let Some(set) = dead.get_mut(&port) {
            let before = set.len();
            set.retain(|m, _| !live_set.contains(m));
            readmitted = before - set.len();
            if set.is_empty() {
                dead.remove(&port);
            }
        }
        baseline.extend(live_set);
        readmitted
    }

    /// Builder knob: the maximum number of distinct replicas tried per
    /// call before the last transport error is surfaced.
    ///
    /// # Panics
    /// Panics if `attempts` is zero.
    pub fn with_max_attempts(mut self, attempts: usize) -> ClusterClient {
        assert!(attempts > 0, "at least one attempt required");
        self.max_attempts = attempts;
        self
    }

    /// The live replica set of `port` as this client currently sees it
    /// (resolving if uncached).
    pub fn replicas(&self, port: Port) -> Vec<MachineId> {
        let set = self.locator.replicas(&self.discovery_ep, port);
        self.note_live(port, &set);
        set
    }

    /// Drops the cached replica set for `port`, forcing the next call
    /// to re-resolve — e.g. after a known topology change, or when a
    /// resolve raced replica startup and cached a partial set.
    pub fn invalidate(&self, port: Port) {
        self.locator.invalidate(port);
    }

    /// Transparent failovers performed so far.
    pub fn failovers(&self) -> u64 {
        self.failovers.load(Ordering::Relaxed)
    }

    /// Consecutive health-probe misses before a dead-listed machine is
    /// presumed permanently departed (planned scale-down rather than a
    /// crash) and dropped from the probe's worklist — without this, a
    /// retired replica would keep the prober broadcasting LOCATE
    /// and churning the replica cache forever.
    pub const MAX_PROBE_MISSES: u32 = 8;

    /// The machines this client currently considers dead for `port`
    /// (invalidated on transport error or vanished from a resolve, not
    /// yet re-admitted or given up on).
    pub fn dead_replicas(&self, port: Port) -> Vec<MachineId> {
        self.dead
            .lock()
            .get(&port)
            .map(|s| s.keys().copied().collect())
            .unwrap_or_default()
    }

    /// The **active health probe** (PR 3 follow-up: re-join used to be
    /// passive). For every port with dead-listed machines, forces one
    /// fresh broadcast LOCATE and re-admits every dead machine that
    /// answered — the fresh set replaces the cache, so a revived
    /// replica starts taking traffic on the next call instead of
    /// waiting out the cache TTL. Returns the number of machines
    /// re-admitted.
    ///
    /// Cheap when healthy: with an empty dead list this is one lock
    /// acquisition, no network traffic.
    pub fn probe_dead_once(&self) -> usize {
        let worklist: Vec<Port> = self.dead.lock().keys().copied().collect();
        let mut readmitted = 0;
        for port in worklist {
            // Force a fresh resolution (the cached set, by
            // construction, excludes the dead machines).
            self.locator.invalidate(port);
            let set = self.locator.replicas(&self.discovery_ep, port);
            readmitted += self.note_live(port, &set);
            // Charge a miss to every machine still dead after the
            // resolve; persistent no-shows are presumed departed and
            // leave both the worklist and the vanish baseline (if they
            // ever return, discovery re-learns them from scratch).
            //
            // Lock order: the `dead` lock is released before touching
            // `known` — `note_live` nests them the other way round
            // (known → dead), and holding both here would be an ABBA
            // deadlock against a concurrent resolve.
            let departed: Vec<MachineId> = {
                let mut dead = self.dead.lock();
                let mut departed = Vec::new();
                if let Some(entries) = dead.get_mut(&port) {
                    for (&machine, misses) in entries.iter_mut() {
                        *misses += 1;
                        if *misses >= Self::MAX_PROBE_MISSES {
                            departed.push(machine);
                        }
                    }
                    for machine in &departed {
                        entries.remove(machine);
                    }
                    if entries.is_empty() {
                        dead.remove(&port);
                    }
                }
                departed
            };
            if !departed.is_empty() {
                if let Some(known) = self.known.lock().get_mut(&port) {
                    for machine in &departed {
                        known.remove(machine);
                    }
                }
            }
        }
        readmitted
    }

    /// Spawns a background prober thread that calls
    /// [`probe_dead_once`](Self::probe_dead_once) every `interval` of
    /// real time — a wall-clock network's prober; under the simulator
    /// an actor calls `probe_dead_once` itself. Returns the prober
    /// handle; dropping (or [`stop`](HealthProber::stop)ping) it ends
    /// the thread at once, mid-interval.
    pub fn spawn_health_prober(self: &Arc<Self>, interval: Duration) -> HealthProber {
        let client = Arc::clone(self);
        let (stop, stopped) = mpsc::channel::<()>();
        let handle = std::thread::spawn(move || {
            // The handle never sends: dropping its end disconnects.
            while stopped.recv_timeout(interval) == Err(RecvTimeoutError::Timeout) {
                client.probe_dead_once();
            }
        });
        HealthProber {
            running: Some((stop, handle)),
        }
    }

    /// The underlying generic service client.
    pub fn service(&self) -> &ServiceClient {
        &self.svc
    }

    /// The machine transactions are sent from (for topology/fault
    /// injection in tests).
    pub fn machine(&self) -> MachineId {
        self.svc.rpc().endpoint().id()
    }

    /// The machine discovery (LOCATE) runs from — a second interface
    /// on the client host.
    pub fn discovery_machine(&self) -> MachineId {
        self.discovery_ep.id()
    }

    /// Invokes `command` on the object named by `cap`, on whichever
    /// live replica of `cap.port` comes next round-robin.
    ///
    /// # Errors
    /// Application errors ([`ClientError::Status`]) pass straight
    /// through — they come from a live replica and retrying elsewhere
    /// would duplicate work. Transport errors fail over; only when
    /// every attempt is exhausted does the last one surface.
    pub fn call(
        &self,
        cap: &Capability,
        command: u32,
        params: Bytes,
    ) -> Result<Bytes, ClientError> {
        self.call_routed(cap.port, cap, command, params)
    }

    /// Invokes a capability-less command (e.g. CREATE) on a picked
    /// replica of `port`.
    ///
    /// # Errors
    /// As for [`call`](Self::call).
    pub fn call_anonymous(
        &self,
        port: Port,
        command: u32,
        params: Bytes,
    ) -> Result<Bytes, ClientError> {
        self.call_routed(port, &null_cap(), command, params)
    }

    /// Every attempt writes `params` into its own frame; the blob is
    /// released once, after the last.
    fn call_routed(
        &self,
        port: Port,
        cap: &Capability,
        command: u32,
        params: Bytes,
    ) -> Result<Bytes, ClientError> {
        let mut result = Err(ClientError::Rpc(RpcError::Timeout));
        for attempt in 0..self.max_attempts {
            let Some(machine) = self.pick(port) else {
                // Nobody answers LOCATE at all — either everything is
                // down or discovery itself timed out; surface the last
                // transport error.
                break;
            };
            result = self
                .svc
                .call_with(port, Some(machine), cap, command, params.len(), |w| {
                    w.raw(&params)
                });
            match result {
                Err(ClientError::Rpc(RpcError::Timeout | RpcError::Disconnected)) => {
                    // The §3.4 moment: drop the dead replica from the
                    // cached set and let the next iteration route the
                    // same request to a survivor. The caller never
                    // sees this happen. The machine also lands on the
                    // health probe's dead list for later re-admission
                    // (a fresh transport error restarts its probe
                    // budget).
                    self.locator.invalidate_machine(port, machine);
                    self.dead.lock().entry(port).or_default().insert(machine, 0);
                    if attempt + 1 < self.max_attempts {
                        self.failovers.fetch_add(1, Ordering::Relaxed);
                        let endpoint = self.svc.rpc().endpoint();
                        let obs = endpoint.obs();
                        if obs.enabled() {
                            obs.record(
                                amoeba_net::EventKind::Failover,
                                endpoint.now().since_epoch().as_nanos() as u64,
                                0,
                                port.value(),
                                u64::from(machine.as_u32()),
                            );
                            if let Some(m) = obs.metrics() {
                                m.failovers.add(1);
                            }
                        }
                    }
                }
                _ => break,
            }
        }
        self.svc.rpc().buf_pool().release(params);
        result
    }
}

/// A running background health probe for a [`ClusterClient`]; see
/// [`ClusterClient::spawn_health_prober`]. Stops on drop.
#[derive(Debug)]
pub struct HealthProber {
    /// The stop signal the prober thread waits on, and the thread.
    running: Option<(mpsc::Sender<()>, std::thread::JoinHandle<()>)>,
}

impl HealthProber {
    /// Stops the probe thread and waits for it to exit.
    pub fn stop(mut self) {
        self.shutdown_now();
    }

    fn shutdown_now(&mut self) {
        if let Some((stop, handle)) = self.running.take() {
            drop(stop);
            let _ = handle.join();
        }
    }
}

impl Drop for HealthProber {
    fn drop(&mut self) {
        self.shutdown_now();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amoeba_cap::schemes::SchemeKind;
    use amoeba_cap::Rights;
    use amoeba_server::proto::{Reply, Request, Status};
    use amoeba_server::wire;
    use amoeba_server::RequestCtx;
    use std::sync::Arc;

    /// A stateless service replicas can serve interchangeably: echoes
    /// the parameters and reports which replica answered.
    struct Echo {
        replica: u32,
    }

    const CMD_ECHO: u32 = 1;
    const CMD_WHO: u32 = 2;

    impl Service for Echo {
        fn handle(&self, req: &Request, _ctx: &RequestCtx) -> Reply {
            match req.command {
                CMD_ECHO => Reply::ok(req.params.clone()),
                CMD_WHO => Reply::ok(wire::Writer::new().u32(self.replica).finish()),
                _ => Reply::status(Status::BadCommand),
            }
        }
    }

    fn spawn_echo_cluster(net: &Network, replicas: usize) -> ServiceCluster {
        ServiceCluster::spawn_open(net, replicas, 1, |i| Echo { replica: i as u32 })
    }

    /// Resolves until all `n` replicas have answered a LOCATE — on a
    /// loaded host a replica can miss one gather window.
    fn warm_cache(client: &ClusterClient, port: Port, n: usize) {
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while client.replicas(port).len() < n {
            assert!(
                std::time::Instant::now() < deadline,
                "replicas never all answered LOCATE"
            );
            client.invalidate(port);
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    #[test]
    fn round_robin_spreads_calls_over_replicas() {
        let net = Network::new();
        let cluster = spawn_echo_cluster(&net, 3);
        let client = ClusterClient::broadcast(&net);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..6 {
            let body = client
                .call_anonymous(cluster.put_port(), CMD_WHO, Bytes::new())
                .unwrap();
            seen.insert(wire::Reader::new(&body).u32().unwrap());
        }
        assert_eq!(seen.len(), 3, "every replica must serve some calls");
        assert_eq!(client.failovers(), 0);
        cluster.stop();
    }

    #[test]
    fn failover_is_transparent_to_the_caller() {
        let net = Network::new();
        let mut cluster = spawn_echo_cluster(&net, 3);
        let client = ClusterClient::broadcast(&net);
        // Warm the cache with all three replicas.
        warm_cache(&client, cluster.put_port(), 3);

        let dead = cluster.halt_replica(1);
        // Every call still succeeds; some pay a failover internally.
        for i in 0..6u32 {
            let body = client
                .call_anonymous(
                    cluster.put_port(),
                    CMD_ECHO,
                    Bytes::from(i.to_be_bytes().to_vec()),
                )
                .unwrap();
            assert_eq!(&body[..], i.to_be_bytes());
        }
        assert!(client.failovers() >= 1, "the dead replica was cached");
        let survivors = client.replicas(cluster.put_port());
        assert!(!survivors.contains(&dead), "dead replica stays dropped");
        cluster.stop();
    }

    /// Severs (or restores) both of the client's interfaces to a
    /// replica machine — transactions and discovery alike.
    fn set_link(net: &Network, client: &ClusterClient, machine: MachineId, up: bool) {
        if up {
            net.heal(client.machine(), machine);
            net.heal(client.discovery_machine(), machine);
        } else {
            net.partition(client.machine(), machine);
            net.partition(client.discovery_machine(), machine);
        }
    }

    /// Calls until `victim` lands on the dead list (round-robin needs
    /// a few calls to trip over it), asserting every call succeeds.
    fn drive_until_dead(client: &ClusterClient, port: Port, victim: MachineId) {
        for i in 0..8u32 {
            let body = Bytes::from(i.to_be_bytes().to_vec());
            assert_eq!(
                client.call_anonymous(port, CMD_ECHO, body.clone()).unwrap(),
                body
            );
            if client.dead_replicas(port).contains(&victim) {
                return;
            }
        }
        panic!(
            "victim never invalidated: dead={:?}",
            client.dead_replicas(port)
        );
    }

    #[test]
    fn health_probe_readmits_a_healed_replica() {
        let net = Network::new();
        let cluster = spawn_echo_cluster(&net, 2);
        let port = cluster.put_port();
        let client = ClusterClient::broadcast(&net);
        warm_cache(&client, port, 2);

        let victim = cluster.machines()[0];
        set_link(&net, &client, victim, false);
        drive_until_dead(&client, port, victim);

        // While the replica stays unreachable the probe re-admits
        // nothing — a dead machine must not come back on hope alone.
        assert_eq!(client.probe_dead_once(), 0);
        assert!(client.dead_replicas(port).contains(&victim));

        // Heal the link: the next probe re-LOCATEs and re-admits.
        set_link(&net, &client, victim, true);
        assert_eq!(client.probe_dead_once(), 1, "healed replica re-admitted");
        assert!(client.dead_replicas(port).is_empty());
        let live = client.replicas(port);
        assert!(live.contains(&victim), "revived replica back in the set");

        // And it serves traffic again: spread calls until the victim
        // answers one (round-robin reaches it within the set size).
        for i in 0..4u32 {
            client
                .call_anonymous(port, CMD_ECHO, Bytes::from(i.to_be_bytes().to_vec()))
                .unwrap();
        }
        assert_eq!(client.failovers(), 1, "no new failovers after re-admission");
        cluster.stop();
    }

    #[test]
    fn background_prober_readmits_a_healed_replica() {
        let net = Network::new();
        let cluster = spawn_echo_cluster(&net, 2);
        let port = cluster.put_port();
        let client = Arc::new(ClusterClient::broadcast(&net));
        warm_cache(&client, port, 2);
        let prober = client.spawn_health_prober(Duration::from_millis(50));

        let victim = cluster.machines()[1];
        set_link(&net, &client, victim, false);
        drive_until_dead(&client, port, victim);
        set_link(&net, &client, victim, true);

        // Give the prober time for a round or two.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while !client.dead_replicas(port).is_empty() {
            assert!(
                std::time::Instant::now() < deadline,
                "prober never re-admitted the healed replica"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        let live = client.replicas(port);
        assert!(live.contains(&victim));
        prober.stop();
        cluster.stop();
    }

    #[test]
    fn a_prober_stops_without_sitting_out_its_interval() {
        let net = Network::new();
        let client = Arc::new(ClusterClient::broadcast(&net));
        let prober = client.spawn_health_prober(Duration::from_secs(60));
        let t0 = std::time::Instant::now();
        prober.stop();
        assert!(
            t0.elapsed() < Duration::from_secs(1),
            "stop waited {:?}",
            t0.elapsed()
        );
    }

    #[test]
    fn application_errors_do_not_fail_over() {
        // A live replica answering with an application error must not
        // trigger retries on other replicas (duplicated side effects).
        let net = Network::new();
        let cluster = spawn_echo_cluster(&net, 3);
        let client = ClusterClient::broadcast(&net);
        let err = client
            .call_anonymous(cluster.put_port(), 0x999, Bytes::new())
            .unwrap_err();
        assert_eq!(err, ClientError::Status(Status::BadCommand));
        assert_eq!(client.failovers(), 0);
        cluster.stop();
    }

    #[test]
    fn every_replica_dead_surfaces_a_transport_error() {
        let net = Network::new();
        let mut cluster = spawn_echo_cluster(&net, 2);
        let client = ClusterClient::broadcast(&net).with_max_attempts(3);
        assert!(client
            .call_anonymous(cluster.put_port(), CMD_ECHO, Bytes::new())
            .is_ok());
        cluster.halt_replica(0);
        cluster.halt_replica(1);
        let err = client
            .call_anonymous(cluster.put_port(), CMD_ECHO, Bytes::new())
            .unwrap_err();
        assert!(
            matches!(err, ClientError::Rpc(RpcError::Timeout)),
            "exhausted failover must surface the transport error: {err:?}"
        );
        cluster.stop();
    }

    #[test]
    fn concurrent_callers_share_one_cluster_client() {
        let net = Network::new();
        let cluster = spawn_echo_cluster(&net, 3);
        let client = Arc::new(ClusterClient::broadcast(&net));
        let port = cluster.put_port();
        let handles: Vec<_> = (0..6u32)
            .map(|i| {
                let client = Arc::clone(&client);
                std::thread::spawn(move || {
                    let body = Bytes::from(i.to_be_bytes().to_vec());
                    assert_eq!(
                        client.call_anonymous(port, CMD_ECHO, body.clone()).unwrap(),
                        body
                    );
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        cluster.stop();
    }

    #[test]
    fn cluster_client_serves_capability_calls() {
        // The replicated shape also carries ordinary capability calls
        // (for replicated-state services); use a flatfs replica set of
        // one to exercise the cap path end to end.
        let net = Network::new();
        let cluster = ServiceCluster::spawn_open(&net, 1, 2, |_| {
            amoeba_flatfs::FlatFsServer::new(SchemeKind::Commutative)
        });
        let client = ClusterClient::broadcast(&net);
        let body = client
            .call_anonymous(cluster.put_port(), amoeba_flatfs::ops::CREATE, Bytes::new())
            .unwrap();
        let cap = wire::Reader::new(&body).cap().unwrap();
        client
            .call(
                &cap,
                amoeba_flatfs::ops::WRITE,
                wire::Writer::new().u64(0).bytes(b"hello").finish(),
            )
            .unwrap();
        let read = client
            .call(
                &cap,
                amoeba_flatfs::ops::READ,
                wire::Writer::new().u64(0).u32(5).finish(),
            )
            .unwrap();
        assert_eq!(&read[..], b"hello");
        // Rights still enforced through the cluster path.
        let ro = client.service().restrict(&cap, Rights::READ).unwrap();
        assert!(matches!(
            client.call(
                &ro,
                amoeba_flatfs::ops::WRITE,
                wire::Writer::new().u64(0).bytes(b"x").finish(),
            ),
            Err(ClientError::Status(Status::RightsViolation))
        ));
        cluster.stop();
    }
}
