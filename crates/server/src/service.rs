//! The service loop and the client used to call services.

use crate::proto::{cmd, null_cap, Reply, Request, Status};
use crate::wire;
use amoeba_cap::{Capability, Rights};
use amoeba_crypto::oneway::ShaOneWay;
use amoeba_fbox::FBox;
use amoeba_net::{Counter, Endpoint, EventKind, MachineId, Metrics, Network, Port};
use amoeba_rpc::{Client, IncomingRequest, RpcConfig, RpcError, ServerPort};
use bytes::Bytes;
use std::sync::Arc;

/// Per-request context derived from the network layer.
#[derive(Debug, Clone, Copy)]
pub struct RequestCtx {
    /// The unforgeable source machine.
    pub source: MachineId,
    /// The transmitted signature `F(S)`, if the client signed.
    pub signature: Option<Port>,
}

/// A server's request handler.
///
/// `handle` takes `&self`: one service instance is shared by every
/// worker of a dispatch pool, so all request-path state must use
/// interior synchronisation ([`ObjectTable`](crate::ObjectTable) is
/// lock-striped internally; scalar counters use atomics). `bind` still
/// takes `&mut self` — it runs exactly once, before the service is
/// shared.
pub trait Service: Send + Sync + 'static {
    /// Called once with the bound put-port before serving begins —
    /// services with an [`ObjectTable`](crate::ObjectTable) forward this
    /// to [`ObjectTable::set_port`](crate::ObjectTable::set_port).
    fn bind(&mut self, _put_port: Port) {}

    /// Called once, before [`bind`](Self::bind), when a cluster places
    /// this instance as replica `owner` of a `replicas`-way sharded
    /// group. A service that can migrate builds its
    /// [`ShardHost`](crate::ShardHost) here — which restricts its table
    /// to minting objects whose numbers carry the replica's placement
    /// range — and from then on returns it from
    /// [`migrator`](Self::migrator). Other services ignore it (the
    /// default).
    ///
    /// Contract: an implementation that places a table must do so on a
    /// table striped with the default
    /// [`DEFAULT_SHARDS`](crate::DEFAULT_SHARDS) — routing clients
    /// recover the placement range with
    /// `placement_range(object, DEFAULT_SHARDS, replicas)`, so a
    /// non-default shard count on the server would misroute every
    /// capability (failing closed with `NoSuchObject`, but failing).
    fn bind_shard_range(&mut self, _owner: usize, _replicas: usize) {}

    /// Handles one request. May be called from many worker threads at
    /// once.
    fn handle(&self, req: &Request, ctx: &RequestCtx) -> Reply;

    /// The live-migration handle for this service's shards: `Some` only
    /// once [`bind_shard_range`](Self::bind_shard_range) built one.
    /// Returning `Some` opts the dispatch layer into per-request shard
    /// dispositions (serve / hold / forward during a cutover) and into
    /// answering the three `STD_TRANSFER_*` requests — see
    /// [`crate::migrate`]. With `None`, dispatch answers those three
    /// `Unsupported`; either way they never reach
    /// [`handle`](Self::handle).
    fn migrator(&self) -> Option<&dyn crate::migrate::ShardMigrator> {
        None
    }
}

/// One dispatch worker's loop: take the next request off its handle on
/// the port and `serve` it, until the endpoint is closed or detached.
/// The wait is untimed — a frame arriving, or the runner
/// [closing](Endpoint::close) the endpoint at shutdown, is what wakes
/// the worker.
fn run_worker(server: &ServerPort, serve: impl Fn(&IncomingRequest)) {
    while let Ok(req) = server.next_request() {
        serve(&req);
    }
}

/// Decode one raw request, dispatch it to the service, encode the
/// reply. Shared by the plain runners' workers and the simulator's
/// [`SimPump`](crate::SimPump).
///
/// The reply is written straight into its frame (see [`send_reply`]),
/// so a steady-state dispatch loop serves without touching the
/// allocator.
pub(crate) fn serve_one(
    service: &(impl Service + ?Sized),
    server: &ServerPort,
    incoming: &IncomingRequest,
) {
    recorded(server, incoming, || {
        let ctx = RequestCtx {
            source: incoming.source,
            signature: incoming.signature,
        };
        let reply = match Request::decode(&incoming.payload) {
            Some(decoded) => route(service, server, incoming, &decoded, &ctx),
            None => Some(Reply::status(Status::BadRequest)),
        };
        // Hold/forward dispositions answer nothing from here: held
        // requests are retried by the client, forwarded ones are
        // answered by the new owner.
        if let Some(reply) = reply {
            send_reply(server, incoming, reply);
        }
    });
}

/// Runs `serve` for one request between `HandlerStart` and
/// `HandlerEnd` events, counted in `server_requests` and
/// `handlers_completed`: plain and sealed runners record alike.
pub(crate) fn recorded(server: &ServerPort, incoming: &IncomingRequest, serve: impl FnOnce()) {
    let endpoint = server.endpoint();
    let obs = endpoint.obs();
    let record = |kind, counter: fn(&Metrics) -> &Counter| {
        if obs.enabled() {
            obs.record(
                kind,
                endpoint.now().since_epoch().as_nanos() as u64,
                0,
                incoming.reply_to.value(),
                u64::from(incoming.source.as_u32()),
            );
            if let Some(m) = obs.metrics() {
                counter(m).add(1);
            }
        }
    };
    record(EventKind::HandlerStart, |m| &m.server_requests);
    serve();
    record(EventKind::HandlerEnd, |m| &m.handlers_completed);
}

/// Writes `reply` (status ‖ body) straight into the reply frame — one
/// pooled buffer, one copy of the body — and releases the handler's
/// body: a [`wire::Writer`] blob goes back to this thread's buffer
/// cache, a slice of the client-owned request frame is just dropped.
pub(crate) fn send_reply(server: &ServerPort, incoming: &IncomingRequest, reply: Reply) {
    server.reply_with(incoming, 4 + reply.body.len(), |buf| reply.encode_into(buf));
    server.buf_pool().release(reply.body);
}

/// Routes one decoded request through the service's migrator, when it
/// has one: a `STD_TRANSFER_*` op goes to its `handle_transfer` (and is
/// answered `Unsupported` without one); any other request is served
/// locally, held during a cutover window, or relayed to its shard's
/// new owner. Returns the reply to send, or `None` when no reply leaves
/// this machine.
///
/// The inflight gauge brackets the *disposition read* as well as the
/// handler: a migration driver that seals a shard and then observes
/// the gauge at zero knows every request that read the pre-seal
/// disposition has finished mutating (and dirty-marking) the table.
fn route(
    service: &(impl Service + ?Sized),
    server: &ServerPort,
    incoming: &IncomingRequest,
    req: &Request,
    ctx: &RequestCtx,
) -> Option<Reply> {
    if (cmd::STD_TRANSFER_BEGIN..=cmd::STD_TRANSFER_COMMIT).contains(&req.command) {
        return Some(match service.migrator() {
            Some(migrator) => migrator.handle_transfer(req),
            None => Reply::status(Status::Unsupported),
        });
    }
    let Some(migrator) = service.migrator() else {
        return Some(service.handle(req, ctx));
    };
    let Some(shard) = migrator.shard_of(req) else {
        return Some(service.handle(req, ctx));
    };
    migrator.enter(shard);
    let reply = match migrator.disposition(shard) {
        crate::migrate::ShardDisposition::Serve => Some(service.handle(req, ctx)),
        crate::migrate::ShardDisposition::Hold => {
            server.reject(incoming);
            None
        }
        crate::migrate::ShardDisposition::Forward(port) => {
            server.forward(incoming, port);
            None
        }
    };
    migrator.exit(shard);
    reply
}

/// Runs a [`Service`] on one or more background dispatch workers.
///
/// The runner owns the server's secret get-port; only the put-port is
/// exposed. Each worker holds its own handle on one bound
/// [`ServerPort`] and receives from the endpoint's MPMC inbox — the
/// classic worker-pool dispatch engine. [`stop`](ServiceRunner::stop)
/// (or drop) shuts every worker down.
pub struct ServiceRunner {
    put_port: Port,
    machine: MachineId,
    /// Pins the endpoint: a *stopped* runner still claims its port,
    /// modelling a crashed server whose clients see timeouts rather
    /// than instant disconnects.
    server: ServerPort,
    /// The shared service instance the workers dispatch into, exposed
    /// via [`service`](Self::service) so local control planes (the
    /// cluster migration driver, the rebalancer) can reach its
    /// migration handle.
    service: Arc<dyn Service>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for ServiceRunner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServiceRunner")
            .field("put_port", &self.put_port)
            .field("machine", &self.machine)
            .field("workers", &self.handles.len())
            .finish()
    }
}

impl ServiceRunner {
    /// Binds `get_port` on `endpoint` and serves `service` on one
    /// worker thread — the deterministic default: requests are handled
    /// strictly in arrival order.
    pub fn spawn(endpoint: Endpoint, get_port: Port, service: impl Service) -> ServiceRunner {
        Self::spawn_workers(endpoint, get_port, service, 1)
    }

    /// Binds `get_port` on `endpoint` and serves `service` on a pool of
    /// `workers` threads.
    ///
    /// All workers receive from the **same** bound port, through the
    /// endpoint's MPMC inbox, so each frame is claimed by exactly one
    /// worker, which serves the whole frame (every entry of a batch)
    /// with `&self` on the shared service.
    /// Use more than one worker only with services whose handlers
    /// tolerate concurrent execution (every service in this repository
    /// does — state lives in the lock-striped
    /// [`ObjectTable`](crate::ObjectTable) or in atomics).
    ///
    /// # Panics
    /// Panics if `workers` is zero.
    pub fn spawn_workers(
        endpoint: Endpoint,
        get_port: Port,
        service: impl Service,
        workers: usize,
    ) -> ServiceRunner {
        Self::spawn_serving(endpoint, get_port, service, workers, serve_one)
    }

    /// Binds `get_port` on `endpoint` and starts `workers` threads, each
    /// with its own handle on the port, that hand every request to
    /// `serve` — [`serve_one`] for the plain runners, the unsealing
    /// dispatch for [`spawn_sealed`](Self::spawn_sealed).
    ///
    /// # Panics
    /// Panics if `workers` is zero.
    pub(crate) fn spawn_serving<F>(
        endpoint: Endpoint,
        get_port: Port,
        mut service: impl Service,
        workers: usize,
        serve: F,
    ) -> ServiceRunner
    where
        F: Fn(&(dyn Service + 'static), &ServerPort, &IncomingRequest) + Clone + Send + 'static,
    {
        assert!(workers > 0, "a service needs at least one worker");
        let machine = endpoint.id();
        let server = ServerPort::bind(endpoint, get_port);
        let put_port = server.put_port();
        service.bind(put_port);
        let service: Arc<dyn Service> = Arc::new(service);
        let handles = (0..workers)
            .map(|_| {
                let service = Arc::clone(&service);
                let server = server.worker();
                let serve = serve.clone();
                std::thread::spawn(move || {
                    run_worker(&server, |req| serve(&*service, &server, req))
                })
            })
            .collect();
        ServiceRunner {
            put_port,
            machine,
            server,
            service,
            handles,
        }
    }

    /// Attaches a fresh open-interface machine to `net`, picks a random
    /// get-port, and serves. (Use in §2.4/software-protection settings
    /// and unit tests.)
    pub fn spawn_open(net: &Network, service: impl Service) -> ServiceRunner {
        let endpoint = net.attach_open();
        let get_port = Port::random();
        Self::spawn(endpoint, get_port, service)
    }

    /// Like [`spawn_open`](Self::spawn_open) with a worker pool.
    pub fn spawn_open_workers(
        net: &Network,
        service: impl Service,
        workers: usize,
    ) -> ServiceRunner {
        let endpoint = net.attach_open();
        let get_port = Port::random();
        Self::spawn_workers(endpoint, get_port, service, workers)
    }

    /// Attaches a machine behind a hardware F-box (the §2.2 model) and
    /// serves on a random secret get-port.
    pub fn spawn_fbox(net: &Network, service: impl Service) -> ServiceRunner {
        let endpoint = net.attach(Arc::new(FBox::hardware(ShaOneWay)));
        let get_port = Port::random();
        Self::spawn(endpoint, get_port, service)
    }

    /// The published put-port clients send to.
    pub fn put_port(&self) -> Port {
        self.put_port
    }

    /// The machine the service runs on (e.g. for latency co-location).
    pub fn machine(&self) -> MachineId {
        self.machine
    }

    /// Number of dispatch workers serving this port.
    pub fn workers(&self) -> usize {
        self.handles.len()
    }

    /// The shared service instance the workers dispatch into — how a
    /// co-located control plane (migration driver, rebalancer) reaches
    /// the service's [`migrator`](Service::migrator) handle.
    pub fn service(&self) -> &Arc<dyn Service> {
        &self.service
    }

    /// Stops every worker and waits for them to exit.
    pub fn stop(mut self) {
        self.shutdown_now();
    }

    /// Stops every worker **without releasing the machine**: the
    /// endpoint stays attached and the port stays claimed, but its
    /// receive queue is closed and nothing is served or answered any
    /// more — a crashed or hung server as its clients experience it
    /// (timeouts, not disconnects). Failover tests halt one replica
    /// mid-hammer; `stop`/drop later reclaims the machine. Idempotent.
    pub fn halt(&mut self) {
        self.shutdown_now();
    }

    /// Closes the endpoint, which discards what is queued and wakes
    /// every worker blocked on it (the machine stays attached and keeps
    /// its claims — peers see a crashed server), and joins the workers.
    fn shutdown_now(&mut self) {
        self.server.endpoint().close();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for ServiceRunner {
    fn drop(&mut self) {
        self.shutdown_now();
    }
}

/// Errors from service calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClientError {
    /// Transport failure.
    Rpc(RpcError),
    /// The server answered with a non-OK status.
    Status(Status),
    /// The reply could not be decoded.
    Malformed,
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Rpc(e) => write!(f, "transport: {e}"),
            ClientError::Status(s) => write!(f, "server: {s}"),
            ClientError::Malformed => write!(f, "malformed reply"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<RpcError> for ClientError {
    fn from(e: RpcError) -> ClientError {
        ClientError::Rpc(e)
    }
}

/// Splits a raw reply into its body, or the server's non-OK status.
pub(crate) fn decode_reply(raw: &Bytes) -> Result<Bytes, ClientError> {
    let reply = Reply::decode(raw).ok_or(ClientError::Malformed)?;
    if reply.status == Status::Ok {
        Ok(reply.body)
    } else {
        Err(ClientError::Status(reply.status))
    }
}

/// A client for capability-carrying service calls.
#[derive(Debug)]
pub struct ServiceClient {
    rpc: Client,
}

impl ServiceClient {
    /// A client on a fresh open-interface machine.
    pub fn open(net: &Network) -> ServiceClient {
        ServiceClient {
            rpc: Client::new(net.attach_open()),
        }
    }

    /// A client behind a hardware F-box.
    pub fn fbox(net: &Network) -> ServiceClient {
        ServiceClient {
            rpc: Client::new(net.attach(Arc::new(FBox::hardware(ShaOneWay)))),
        }
    }

    /// A client over an explicit RPC client (custom endpoint/config).
    pub fn with_client(rpc: Client) -> ServiceClient {
        ServiceClient { rpc }
    }

    /// A client with explicit timeout/retry configuration on a fresh
    /// open-interface machine.
    pub fn open_with_config(net: &Network, config: RpcConfig) -> ServiceClient {
        ServiceClient {
            rpc: Client::with_config(net.attach_open(), config),
        }
    }

    /// The underlying RPC client.
    pub fn rpc(&self) -> &Client {
        &self.rpc
    }

    /// Invokes `command` on the object named by `cap`, routing to
    /// `cap.port`. A thin caller of [`call_with`](Self::call_with) for
    /// a parameter blob that already exists.
    ///
    /// # Errors
    /// As for [`call_with`](Self::call_with).
    pub fn call(
        &self,
        cap: &Capability,
        command: u32,
        params: Bytes,
    ) -> Result<Bytes, ClientError> {
        self.call_at(cap.port, cap, command, params)
    }

    /// Invokes a command that needs no capability (e.g. CREATE on a
    /// public server).
    ///
    /// # Errors
    /// As for [`call_with`](Self::call_with).
    pub fn call_anonymous(
        &self,
        port: Port,
        command: u32,
        params: Bytes,
    ) -> Result<Bytes, ClientError> {
        self.call_at(port, &null_cap(), command, params)
    }

    /// Invokes `command` at an explicit port (when the capability's port
    /// field should not be trusted for routing). The blob is released
    /// once the frame holds its copy (reclaimed only if this was the
    /// last handle — params are often slices of buffers owned
    /// elsewhere).
    ///
    /// # Errors
    /// As for [`call_with`](Self::call_with).
    pub fn call_at(
        &self,
        port: Port,
        cap: &Capability,
        command: u32,
        params: Bytes,
    ) -> Result<Bytes, ClientError> {
        let reply = self.call_with(port, None, cap, command, params.len(), |w| w.raw(&params));
        self.rpc.buf_pool().release(params);
        reply
    }

    /// The one blocking call: the request frame is built in **one**
    /// pooled buffer — tag, `cap`, `command`, then whatever `params`
    /// appends (`len` bytes; a capacity hint) — and sent to `port`,
    /// delivered only to `target` when one is named (the replica a
    /// placement policy picked among the machines serving `port`).
    /// Typed clients with payload-sized parameters (a file write) call
    /// this directly, so the caller's slice is copied once, into the
    /// frame.
    ///
    /// # Errors
    /// [`ClientError::Rpc`] on transport failure — a dead `target`
    /// surfaces as `Rpc(RpcError::Timeout)` — and
    /// [`ClientError::Status`] for any non-OK server status.
    pub fn call_with(
        &self,
        port: Port,
        target: Option<MachineId>,
        cap: &Capability,
        command: u32,
        len: usize,
        params: impl FnOnce(wire::FrameWriter<'_>) -> wire::FrameWriter<'_>,
    ) -> Result<Bytes, ClientError> {
        let raw = self
            .rpc
            .start(port, target, 20 + len, |buf| {
                Request::encode_with(buf, cap, command, params);
            })
            .wait()?;
        decode_reply(&raw)
    }

    /// Invokes many commands at `port` in **one wire frame**
    /// (`BATCH_REQUEST`; see `docs/PROTOCOL.md`), returning one result
    /// per call in request order: `entry(i, buf)` appends request `i`
    /// — with [`Request::encode_with`] — straight into the frame, which
    /// is taken sized for `count` requests carrying `len` bytes of
    /// params between them, so each payload is copied once, into the
    /// frame.
    ///
    /// The worker that receives the frame serves its entries in order
    /// and writes their replies into a single frame, so a batch of N
    /// calls costs 2 frames on the wire instead of 2·N. Entries fail
    /// independently: a bad capability in one entry yields
    /// [`ClientError::Status`] for that entry only.
    ///
    /// # Errors
    /// A top-level [`ClientError::Rpc`] if the batch itself could not
    /// be transacted (timeout, detached endpoint).
    pub fn batch(
        &self,
        port: Port,
        count: usize,
        len: usize,
        entry: impl FnMut(usize, &mut bytes::BytesMut),
    ) -> Result<Vec<Result<Bytes, ClientError>>, ClientError> {
        // Per entry: a 4-byte length prefix, capability and command.
        let results = self.rpc.batch(port, count, 24 * count + len, entry)?;
        Ok(results
            .into_iter()
            .map(|entry| decode_reply(&entry?))
            .collect())
    }

    /// Asks the server to fabricate a sub-capability with exactly `keep`
    /// rights ([`cmd::STD_RESTRICT`](crate::proto::cmd::STD_RESTRICT)).
    ///
    /// # Errors
    /// As for [`call`](Self::call).
    pub fn restrict(&self, cap: &Capability, keep: Rights) -> Result<Capability, ClientError> {
        let body = self.call(
            cap,
            crate::proto::cmd::STD_RESTRICT,
            wire::Writer::new().u32(keep.bits() as u32).finish(),
        )?;
        wire::Reader::new(&body).cap().ok_or(ClientError::Malformed)
    }

    /// Revokes all outstanding capabilities for the object
    /// ([`cmd::STD_REVOKE`](crate::proto::cmd::STD_REVOKE)); requires
    /// [`Rights::OWNER`]. Returns the fresh capability.
    ///
    /// # Errors
    /// As for [`call`](Self::call).
    pub fn revoke(&self, cap: &Capability) -> Result<Capability, ClientError> {
        let body = self.call(cap, crate::proto::cmd::STD_REVOKE, Bytes::new())?;
        wire::Reader::new(&body).cap().ok_or(ClientError::Malformed)
    }

    /// Validates `cap` remotely and returns its effective rights
    /// ([`cmd::STD_INFO`](crate::proto::cmd::STD_INFO)).
    ///
    /// # Errors
    /// As for [`call`](Self::call).
    pub fn info(&self, cap: &Capability) -> Result<Rights, ClientError> {
        let body = self.call(cap, crate::proto::cmd::STD_INFO, Bytes::new())?;
        let bits = wire::Reader::new(&body)
            .u32()
            .ok_or(ClientError::Malformed)?;
        Ok(Rights::from_bits(bits as u8))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::ObjectTable;
    use amoeba_cap::schemes::SchemeKind;

    /// A minimal echo/counter service used across these tests.
    struct Echo {
        table: ObjectTable<Vec<u8>>,
    }

    impl Echo {
        fn new(kind: SchemeKind) -> Echo {
            Echo {
                table: ObjectTable::unbound(kind.instantiate()),
            }
        }
    }

    const CMD_CREATE: u32 = 1;
    const CMD_READ: u32 = 2;
    const CMD_APPEND: u32 = 3;

    impl Service for Echo {
        fn bind(&mut self, put_port: Port) {
            self.table.set_port(put_port);
        }

        fn handle(&self, req: &Request, _ctx: &RequestCtx) -> Reply {
            if let Some(reply) = self.table.handle_std(req) {
                return reply;
            }
            match req.command {
                CMD_CREATE => {
                    let (_, cap) = self.table.create(req.params.to_vec());
                    Reply::ok(wire::Writer::new().cap(&cap).finish())
                }
                CMD_READ => match self
                    .table
                    .with_object(&req.cap, Rights::READ, |d| d.clone())
                {
                    Ok(data) => Reply::ok(Bytes::from(data)),
                    Err(e) => Reply::status(e.into()),
                },
                CMD_APPEND => match self.table.with_object_mut(&req.cap, Rights::WRITE, |d| {
                    d.extend_from_slice(&req.params)
                }) {
                    Ok(()) => Reply::ok(Bytes::new()),
                    Err(e) => Reply::status(e.into()),
                },
                _ => Reply::status(Status::BadCommand),
            }
        }
    }

    fn create(client: &ServiceClient, port: Port, data: &[u8]) -> Capability {
        let body = client
            .call_anonymous(port, CMD_CREATE, Bytes::copy_from_slice(data))
            .unwrap();
        wire::Reader::new(&body).cap().unwrap()
    }

    #[test]
    fn end_to_end_over_open_nics() {
        let net = Network::new();
        let runner = ServiceRunner::spawn_open(&net, Echo::new(SchemeKind::Commutative));
        let client = ServiceClient::open(&net);

        let cap = create(&client, runner.put_port(), b"hello");
        assert_eq!(
            &client.call(&cap, CMD_READ, Bytes::new()).unwrap()[..],
            b"hello"
        );
        client
            .call(&cap, CMD_APPEND, Bytes::from_static(b" world"))
            .unwrap();
        assert_eq!(
            &client.call(&cap, CMD_READ, Bytes::new()).unwrap()[..],
            b"hello world"
        );
        runner.stop();
    }

    #[test]
    fn end_to_end_behind_fboxes() {
        let net = Network::new();
        let runner = ServiceRunner::spawn_fbox(&net, Echo::new(SchemeKind::OneWay));
        let client = ServiceClient::fbox(&net);
        let cap = create(&client, runner.put_port(), b"shielded");
        assert_eq!(
            &client.call(&cap, CMD_READ, Bytes::new()).unwrap()[..],
            b"shielded"
        );
        runner.stop();
    }

    #[test]
    fn remote_restrict_and_rights_enforcement() {
        let net = Network::new();
        let runner = ServiceRunner::spawn_open(&net, Echo::new(SchemeKind::Commutative));
        let client = ServiceClient::open(&net);
        let cap = create(&client, runner.put_port(), b"x");

        let ro = client.restrict(&cap, Rights::READ).unwrap();
        assert_eq!(client.info(&ro).unwrap(), Rights::READ);
        assert!(client.call(&ro, CMD_READ, Bytes::new()).is_ok());
        assert_eq!(
            client
                .call(&ro, CMD_APPEND, Bytes::from_static(b"!"))
                .unwrap_err(),
            ClientError::Status(Status::RightsViolation)
        );
        runner.stop();
    }

    #[test]
    fn remote_revocation() {
        let net = Network::new();
        let runner = ServiceRunner::spawn_open(&net, Echo::new(SchemeKind::OneWay));
        let client = ServiceClient::open(&net);
        let cap = create(&client, runner.put_port(), b"x");
        let ro = client.restrict(&cap, Rights::READ).unwrap();

        let fresh = client.revoke(&cap).unwrap();
        assert_eq!(
            client.call(&ro, CMD_READ, Bytes::new()).unwrap_err(),
            ClientError::Status(Status::Forged)
        );
        assert_eq!(
            client.call(&cap, CMD_READ, Bytes::new()).unwrap_err(),
            ClientError::Status(Status::Forged)
        );
        assert!(client.call(&fresh, CMD_READ, Bytes::new()).is_ok());
        runner.stop();
    }

    #[test]
    fn malformed_request_gets_bad_request() {
        let net = Network::new();
        let runner = ServiceRunner::spawn_open(&net, Echo::new(SchemeKind::Simple));
        let rpc = Client::new(net.attach_open());
        let raw = rpc
            .trans(runner.put_port(), Bytes::from_static(b"junk"))
            .unwrap();
        let reply = Reply::decode(&raw).unwrap();
        assert_eq!(reply.status, Status::BadRequest);
        runner.stop();
    }

    #[test]
    fn unknown_command_gets_bad_command() {
        let net = Network::new();
        let runner = ServiceRunner::spawn_open(&net, Echo::new(SchemeKind::Simple));
        let client = ServiceClient::open(&net);
        assert_eq!(
            client
                .call_anonymous(runner.put_port(), 0x7777, Bytes::new())
                .unwrap_err(),
            ClientError::Status(Status::BadCommand)
        );
        runner.stop();
    }

    #[test]
    fn stop_is_idempotent_with_drop() {
        let net = Network::new();
        let runner = ServiceRunner::spawn_open(&net, Echo::new(SchemeKind::Simple));
        runner.stop(); // explicit stop, then drop runs harmlessly
    }

    #[test]
    fn an_idle_pool_parks_each_worker_once() {
        // A worker's only wait is an untimed receive on the inbox: once
        // the pool has gone idle, nothing wakes and nothing re-parks.
        let idle: Vec<(usize, u64, u64)> = [1, 2, 4]
            .into_iter()
            .map(|workers| {
                let net = Network::new();
                let runner =
                    ServiceRunner::spawn_open_workers(&net, Echo::new(SchemeKind::Simple), workers);
                std::thread::sleep(std::time::Duration::from_millis(20));
                let before = net.hot_path();
                std::thread::sleep(std::time::Duration::from_millis(50));
                let idle = net.hot_path() - before;
                runner.stop();
                (workers, idle.queue_parks, idle.queue_wakes)
            })
            .collect();
        assert!(
            idle.iter()
                .all(|&(workers, parks, wakes)| parks <= workers as u64 && wakes == 0),
            "(workers, parks, wakes) over 50 idle ms: {idle:?}"
        );
    }

    #[test]
    fn halted_runner_is_silent_but_keeps_its_port() {
        let net = Network::new();
        let mut runner = ServiceRunner::spawn_open(&net, Echo::new(SchemeKind::Simple));
        let client = ServiceClient::open_with_config(
            &net,
            RpcConfig {
                timeout: std::time::Duration::from_millis(20),
                attempts: 1,
            },
        );
        create(&client, runner.put_port(), b"x");
        runner.halt();
        runner.halt(); // idempotent
        let before = net.stats().snapshot();
        assert_eq!(
            client
                .call_anonymous(runner.put_port(), CMD_CREATE, Bytes::new())
                .unwrap_err(),
            ClientError::Rpc(RpcError::Timeout),
            "a halted server times its clients out"
        );
        let during = net.stats().snapshot() - before;
        assert_eq!(
            (during.packets_filtered, during.packets_delivered),
            (0, 0),
            "its interface still accepts the frame; nothing is queued"
        );
    }

    #[test]
    fn worker_pool_serves_concurrent_clients() {
        let net = Network::new();
        let runner = ServiceRunner::spawn_open_workers(&net, Echo::new(SchemeKind::OneWay), 4);
        assert_eq!(runner.workers(), 4);
        let port = runner.put_port();
        let mut handles = Vec::new();
        for i in 0..8 {
            let net = net.clone();
            handles.push(std::thread::spawn(move || {
                let client = ServiceClient::open(&net);
                let cap = create(&client, port, format!("w{i}").as_bytes());
                for _ in 0..25 {
                    client
                        .call(&cap, CMD_APPEND, Bytes::from_static(b"."))
                        .unwrap();
                }
                let data = client.call(&cap, CMD_READ, Bytes::new()).unwrap();
                assert_eq!(data.len(), 2 + 25);
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        runner.stop();
    }

    #[test]
    fn worker_pool_standard_ops_under_concurrency() {
        // restrict/revoke/info from many clients against one pooled
        // server: the striped table must stay consistent.
        let net = Network::new();
        let runner = ServiceRunner::spawn_open_workers(&net, Echo::new(SchemeKind::Commutative), 4);
        let port = runner.put_port();
        let mut handles = Vec::new();
        for _ in 0..6 {
            let net = net.clone();
            handles.push(std::thread::spawn(move || {
                let client = ServiceClient::open(&net);
                let cap = create(&client, port, b"shared");
                let ro = client.restrict(&cap, Rights::READ).unwrap();
                assert_eq!(client.info(&ro).unwrap(), Rights::READ);
                let fresh = client.revoke(&cap).unwrap();
                assert_eq!(
                    client.call(&ro, CMD_READ, Bytes::new()).unwrap_err(),
                    ClientError::Status(Status::Forged)
                );
                assert!(client.call(&fresh, CMD_READ, Bytes::new()).is_ok());
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        runner.stop();
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_rejected() {
        let net = Network::new();
        let endpoint = net.attach_open();
        let _ = ServiceRunner::spawn_workers(
            endpoint,
            Port::new(0x99).unwrap(),
            Echo::new(SchemeKind::Simple),
            0,
        );
    }

    #[test]
    fn concurrent_clients() {
        let net = Network::new();
        let runner = ServiceRunner::spawn_open(&net, Echo::new(SchemeKind::OneWay));
        let port = runner.put_port();
        let mut handles = Vec::new();
        for i in 0..4 {
            let net = net.clone();
            handles.push(std::thread::spawn(move || {
                let client = ServiceClient::open(&net);
                let cap = create(&client, port, format!("t{i}").as_bytes());
                for _ in 0..25 {
                    client
                        .call(&cap, CMD_APPEND, Bytes::from_static(b"."))
                        .unwrap();
                }
                let data = client.call(&cap, CMD_READ, Bytes::new()).unwrap();
                assert_eq!(data.len(), 2 + 25);
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        runner.stop();
    }
}
