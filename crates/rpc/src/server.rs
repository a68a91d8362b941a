//! The server side: GET on a port, loop over requests, reply.
//!
//! # Dispatch model
//!
//! A [`ServerPort`] is one worker's handle on a bound port:
//! [`bind`](ServerPort::bind) returns the first, and
//! [`worker`](ServerPort::worker) one more for each further worker of a
//! dispatch pool. Every handle receives straight from the endpoint's
//! MPMC inbox, so each frame is claimed by exactly one worker, and
//! **the worker that receives a frame serves the whole frame**:
//!
//! * a single-frame request comes back to the receiving worker, which
//!   runs the handler — no queue hop, no wake;
//! * a `BATCH_REQUEST` frame is **exploded** into the receiving
//!   handle's own cursor, and its entries come back in index order from
//!   that handle's next receives.
//!
//! A worker's only wait is on the inbox: untimed unless its caller set
//! a deadline, until a frame arrives or the endpoint
//! [closes](amoeba_net::Endpoint::close), which wakes every worker at
//! once. See `docs/ARCHITECTURE.md`, "Request lifecycle".
//!
//! # Batch fan-in
//!
//! Each exploded batch entry carries a shared accumulator holding the
//! `BATCH_REPLY` frame under construction. [`ServerPort::reply_with`]
//! writes the entry's reply straight into that frame instead of
//! sending one (entries sit in deposit order; each names its index);
//! the deposit of the **last** entry transmits it. One frame in, one
//! frame out, one buffer. If any entry is never replied to, no batch
//! reply is sent and the client's retransmission machinery takes over
//! — identical to the single-frame contract.
//!
//! The server loop also transparently answers broadcast LOCATE queries
//! for its port, implementing the software match-making of §2.2.

use crate::frame::{self, BatchStatus, Frame, FrameKind};
use amoeba_net::{BufPool, Endpoint, Header, HotMutex, MachineId, Packet, Port, RecvError};
use bytes::{Bytes, BytesMut};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Duration;

/// A request as seen by the server.
#[derive(Debug, Clone)]
pub struct IncomingRequest {
    /// Opaque request body (the capability, opcode and parameters, as
    /// encoded by `amoeba-server`).
    pub payload: Bytes,
    /// The wire put-port to reply to — already `F(G′)`, transformed by
    /// the *client's* F-box in transit.
    pub reply_to: Port,
    /// The transmitted signature field, `F(S)` of the sender's secret
    /// signature, or `None` if the request was unsigned. Compare against
    /// the principal's published `F(S)`.
    pub signature: Option<Port>,
    /// The (unforgeable) source machine.
    pub source: MachineId,
    /// Present when this request arrived as one entry of a batch frame;
    /// routes the reply into the batch's fan-in accumulator.
    batch: Option<BatchSlot>,
}

impl IncomingRequest {
    /// `(batch id, entry index)` when this request arrived inside a
    /// `BATCH_REQUEST` frame, `None` for a single-frame request.
    pub fn batch_context(&self) -> Option<(u32, u16)> {
        self.batch.as_ref().map(|s| (s.acc.id, s.index))
    }
}

/// One entry's handle into its batch's reply accumulator.
#[derive(Debug, Clone)]
struct BatchSlot {
    acc: Arc<BatchAccumulator>,
    index: u16,
}

/// Builds a batch's `BATCH_REPLY` frame entry by entry until it is
/// complete. The entries are served by the worker that received the
/// frame, but an [`IncomingRequest`] is `Send` and may be answered from
/// another thread, so the slot lock stays: a counted [`HotMutex`]
/// (metered against the server's pool), its cost accounted, not hidden
/// — the lock-free single-frame path never touches it.
#[derive(Debug)]
struct BatchAccumulator {
    id: u32,
    reply_to: Port,
    slots: HotMutex<BatchSlots>,
}

#[derive(Debug)]
struct BatchSlots {
    /// The reply frame under construction: taken by the first
    /// depositor, shipped (and taken out) by the last.
    frame: Option<BytesMut>,
    /// Which entries have been deposited. Stays all-true after the
    /// frame shipped, which keeps a late duplicate a no-op.
    answered: Vec<bool>,
    filled: usize,
}

/// Cap on the up-front size of a batch reply buffer (larger replies
/// grow into it): the first entry's length is a guess at the others'.
const MAX_BATCH_REPLY_HINT: usize = 64 * 1024;

impl BatchAccumulator {
    fn new(id: u32, reply_to: Port, count: usize, pool: &BufPool) -> BatchAccumulator {
        BatchAccumulator {
            id,
            reply_to,
            slots: HotMutex::with_meter(
                BatchSlots {
                    frame: None,
                    answered: vec![false; count],
                    filled: 0,
                },
                pool.lock_meter(),
            ),
        }
    }

    /// Deposits one entry's reply — `build` writes its `len`-byte body
    /// in place — and returns the finished `BATCH_REPLY` frame when
    /// this was the last outstanding entry. Duplicate deposits for an
    /// index — before or after the batch completed — are ignored (a
    /// handler that answers one entry twice sends nothing twice).
    fn submit(
        &self,
        index: u16,
        status: BatchStatus,
        len: usize,
        build: impl FnOnce(&mut BytesMut),
        pool: &BufPool,
    ) -> Option<Bytes> {
        let mut slots = self.slots.lock();
        let count = slots.answered.len();
        if std::mem::replace(slots.answered.get_mut(index as usize)?, true) {
            return None;
        }
        let frame = slots.frame.get_or_insert_with(|| {
            // Sized as if every entry were as long as this one: exact
            // for a one-entry gather and for homogeneous batches.
            let hint = (8 + count * (7 + len)).min(MAX_BATCH_REPLY_HINT);
            let mut buf = pool.take_sized(hint.max(8 + 7 + len));
            frame::batch_preamble(&mut buf, FrameKind::BatchReply, self.id, count);
            buf
        });
        frame::batch_reply_entry_with(frame, index, status, build);
        slots.filled += 1;
        if slots.filled < count {
            return None;
        }
        slots.frame.take().map(BytesMut::freeze)
    }
}

/// One worker's handle on a bound server port: the result of `GET(G)`.
///
/// Every handle of a port receives straight from the endpoint's MPMC
/// inbox, so concurrent [`next_request`](Self::next_request) calls on
/// distinct handles each claim a distinct frame; the entries of a batch
/// frame stay with the handle that received it. A handle is `Send` but
/// not `Sync`: give each worker thread its own, from
/// [`worker`](Self::worker). See the module docs.
#[derive(Debug)]
pub struct ServerPort {
    bound: Arc<Bound>,
    /// Entries of the last batch frame this handle received that it has
    /// not yet handed out, in index order.
    batch: RefCell<VecDeque<IncomingRequest>>,
}

/// What every handle of one bound port shares.
#[derive(Debug)]
struct Bound {
    endpoint: Endpoint,
    get_port: Port,
    wire_port: Port,
    /// Reply frames are built in and retired back to this pool;
    /// steady-state replies allocate nothing.
    pool: BufPool,
}

// A handle moves to its worker thread (`Send`) but is never shared
// between threads (not `Sync`: its batch cursor is its own).
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<ServerPort>();
};

impl ServerPort {
    /// `GET(G)`: claims the get-port on the endpoint's interface and
    /// returns the first handle on the bound port.
    pub fn bind(endpoint: Endpoint, get_port: Port) -> ServerPort {
        let wire_port = endpoint.claim(get_port);
        ServerPort {
            bound: Arc::new(Bound {
                endpoint,
                get_port,
                wire_port,
                pool: BufPool::new(),
            }),
            batch: RefCell::default(),
        }
    }

    /// Another handle on the same bound port, for one more worker: it
    /// receives from the same inbox and replies through the same pool.
    pub fn worker(&self) -> ServerPort {
        ServerPort {
            bound: Arc::clone(&self.bound),
            batch: RefCell::default(),
        }
    }

    /// The frame-buffer pool replies are built in.
    pub fn buf_pool(&self) -> &BufPool {
        &self.bound.pool
    }

    /// The put-port clients should send to (`F(G)` under an F-box;
    /// `G` itself on an open interface).
    pub fn put_port(&self) -> Port {
        self.bound.wire_port
    }

    /// The secret get-port (never goes on the wire).
    pub fn get_port(&self) -> Port {
        self.bound.get_port
    }

    /// The underlying endpoint.
    pub fn endpoint(&self) -> &Endpoint {
        &self.bound.endpoint
    }

    /// Blocks for the next client request, transparently answering
    /// LOCATE broadcasts in the meantime.
    ///
    /// # Errors
    /// [`RecvError::Disconnected`] if the endpoint is closed or
    /// detached.
    pub fn next_request(&self) -> Result<IncomingRequest, RecvError> {
        self.next_request_with(Endpoint::recv)
    }

    /// Like [`next_request`](Self::next_request) with a deadline.
    ///
    /// # Errors
    /// [`RecvError::Timeout`] on expiry; [`RecvError::Disconnected`] if
    /// closed or detached.
    pub fn next_request_timeout(&self, timeout: Duration) -> Result<IncomingRequest, RecvError> {
        let deadline = self.endpoint().now() + timeout;
        self.next_request_with(|endpoint| endpoint.recv_deadline(deadline))
    }

    /// Non-blocking receive for the simulation executor's service
    /// actors (`amoeba_server::SimPump`): hands out the next entry of a
    /// batch this handle received, otherwise decodes queued packets
    /// until one yields a request. Never parks the thread.
    pub fn poll_request(&self) -> Option<IncomingRequest> {
        self.next_request_with(|endpoint| endpoint.try_recv().ok_or(RecvError::Timeout))
            .ok()
    }

    /// The one receive loop: the next entry of this handle's batch if
    /// one is left, otherwise packets from `recv` until one decodes to
    /// a request for this port. Every receive path funnels through
    /// here: it is where the flight recorder sees a request handed to
    /// its worker.
    fn next_request_with(
        &self,
        recv: impl Fn(&Endpoint) -> Result<Packet, RecvError>,
    ) -> Result<IncomingRequest, RecvError> {
        let req = loop {
            if let Some(req) = self.batch.borrow_mut().pop_front() {
                break req;
            }
            if let Some(req) = self.process(recv(self.endpoint())?) {
                break req;
            }
        };
        let obs = self.endpoint().obs();
        if obs.enabled() {
            obs.record(
                amoeba_net::EventKind::PumpDequeue,
                self.endpoint().now().since_epoch().as_nanos() as u64,
                0,
                req.reply_to.value(),
                u64::from(req.source.as_u32()),
            );
        }
        Ok(req)
    }

    /// Decodes one packet. A single-frame request comes back to be
    /// served; a batch frame's entries go into this handle's cursor and
    /// the first comes back; anything else is answered or dropped here.
    fn process(&self, pkt: Packet) -> Option<IncomingRequest> {
        let wire_port = self.put_port();
        match Frame::decode(&pkt.payload) {
            Some(Frame::Request(body)) if pkt.header.dest == wire_port => Some(IncomingRequest {
                payload: body,
                reply_to: pkt.header.reply,
                signature: signature_of(&pkt),
                source: pkt.source,
                batch: None,
            }),
            Some(Frame::BatchRequest { id, entries }) if pkt.header.dest == wire_port => {
                // One-way batches (null reply port) are dispatched with
                // no accumulator: every entry is served, nothing is
                // sent back — mirroring one-way single frames.
                let acc = (!pkt.header.reply.is_null()).then(|| {
                    Arc::new(BatchAccumulator::new(
                        id,
                        pkt.header.reply,
                        entries.len(),
                        self.buf_pool(),
                    ))
                });
                let mut batch = self.batch.borrow_mut();
                batch.extend(entries.into_iter().enumerate().map(|(index, body)| {
                    IncomingRequest {
                        payload: body,
                        reply_to: pkt.header.reply,
                        signature: signature_of(&pkt),
                        source: pkt.source,
                        batch: acc.as_ref().map(|acc| BatchSlot {
                            acc: Arc::clone(acc),
                            index: index as u16,
                        }),
                    }
                }));
                batch.pop_front()
            }
            // Someone broadcast a LOCATE for our port; answer it.
            Some(Frame::Locate(port))
                if pkt.header.dest.is_broadcast()
                    && port == wire_port
                    && !pkt.header.reply.is_null() =>
            {
                let mut buf = self.buf_pool().take();
                Frame::LocateReply(wire_port, self.endpoint().id()).encode_into(&mut buf);
                let reply = buf.freeze();
                self.endpoint()
                    .send(Header::to(pkt.header.reply), reply.clone());
                self.buf_pool().retire(reply);
                None
            }
            _ => None,
        }
    }

    /// Sends `body` as the reply for `request`: a thin caller of
    /// [`reply_with`](Self::reply_with) for a body that already exists
    /// (an echo, a relayed reply). The body is *released* — reclaimed
    /// if this was its last handle, dropped otherwise: it is often a
    /// slice of the request frame, which the client owns and will
    /// retire, and parking it on this thread would strand a buffer
    /// that can never become unique here.
    pub fn reply(&self, request: &IncomingRequest, body: Bytes) {
        self.reply_with(request, body.len(), |buf| buf.extend_from_slice(&body));
        self.bound.pool.release(body);
    }

    /// Replies to `request` **in place**: takes one pooled buffer sized
    /// for a `len`-byte body, writes the `REPLY` tag and lets `build`
    /// append the body straight after it; the frame is retired after
    /// transmission, so a steady-state server replies without touching
    /// the allocator. For a batch entry `build` writes into the batch's
    /// shared `BATCH_REPLY` frame instead, and the deposit of the final
    /// entry transmits it. A one-way request (null reply
    /// port) is answered with nothing: `build` does not run.
    pub fn reply_with(
        &self,
        request: &IncomingRequest,
        len: usize,
        build: impl FnOnce(&mut BytesMut),
    ) {
        let (reply_to, frame) = match &request.batch {
            Some(slot) => {
                let done =
                    slot.acc
                        .submit(slot.index, BatchStatus::Ok, len, build, &self.bound.pool);
                (slot.acc.reply_to, done)
            }
            None if request.reply_to.is_null() => return,
            None => {
                let mut buf = self.bound.pool.take_sized(1 + len);
                Frame::reply_with(&mut buf, build);
                (request.reply_to, Some(buf.freeze()))
            }
        };
        if let Some(frame) = frame {
            self.bound
                .endpoint
                .send(Header::to(reply_to), frame.clone());
            self.bound.pool.retire(frame);
        }
    }

    /// Relays `request` to another server port, preserving the client's
    /// reply port (and signature) so the new owner replies *straight to
    /// the client* — the client's demultiplexer correlates on the reply
    /// port alone, so the relayed reply completes the original
    /// transaction with no gap and no extra hop back through us.
    ///
    /// Only sound on **open interfaces** (every cluster deployment in
    /// this repository): an F-box would transform the relayed reply and
    /// signature fields a second time on our egress, breaking the
    /// correlation. Batch entries cannot be relayed either — their
    /// replies fan into this server's accumulator — so they are
    /// rejected instead ([`BatchStatus::Rejected`], which the client
    /// surfaces as a retryable transport error). Returns `true` when
    /// the request actually went to `dest`.
    pub fn forward(&self, request: &IncomingRequest, dest: Port) -> bool {
        if request.batch.is_some() {
            self.reject(request);
            return false;
        }
        let mut buf = self.bound.pool.take_sized(1 + request.payload.len());
        Frame::request_with(&mut buf, |b| b.extend_from_slice(&request.payload));
        let frame = buf.freeze();
        let mut header = Header::to(dest).with_reply(request.reply_to);
        if let Some(sig) = request.signature {
            header = header.with_signature(sig);
        }
        self.bound.endpoint.send(header, frame.clone());
        self.bound.pool.retire(frame);
        let obs = self.bound.endpoint.obs();
        if obs.enabled() {
            obs.record(
                amoeba_net::EventKind::RequestForwarded,
                self.bound.endpoint.now().since_epoch().as_nanos() as u64,
                0,
                dest.value(),
                request.reply_to.value(),
            );
        }
        true
    }

    /// Declines `request` without serving it. A batch entry deposits
    /// [`BatchStatus::Rejected`] (the client sees a retryable transport
    /// error); a single-frame request is simply dropped, so the
    /// client's retransmission machinery retries it — the contract a
    /// sealed shard relies on during the migration cutover window.
    pub fn reject(&self, request: &IncomingRequest) {
        if let Some(slot) = &request.batch {
            if let Some(frame) = slot.acc.submit(
                slot.index,
                BatchStatus::Rejected,
                0,
                |_| {},
                &self.bound.pool,
            ) {
                self.bound
                    .endpoint
                    .send(Header::to(slot.acc.reply_to), frame.clone());
                self.bound.pool.retire(frame);
            }
        }
    }
}

fn signature_of(pkt: &amoeba_net::Packet) -> Option<Port> {
    (!pkt.header.signature.is_null()).then_some(pkt.header.signature)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{Client, RpcConfig};
    use amoeba_net::Network;

    fn fast() -> RpcConfig {
        RpcConfig {
            timeout: Duration::from_millis(100),
            attempts: 2,
        }
    }

    #[test]
    fn request_reply_roundtrip_open_nics() {
        let net = Network::new();
        let server = ServerPort::bind(net.attach_open(), Port::new(0x11).unwrap());
        let p = server.put_port();
        let t = std::thread::spawn(move || {
            let req = server.next_request().unwrap();
            assert_eq!(&req.payload[..], b"ping");
            assert!(req.batch_context().is_none());
            server.reply(&req, Bytes::from_static(b"pong"));
        });
        let client = Client::with_config(net.attach_open(), fast());
        let reply = client.trans(p, Bytes::from_static(b"ping")).unwrap();
        assert_eq!(&reply[..], b"pong");
        t.join().unwrap();
    }

    #[test]
    fn open_nic_put_port_equals_get_port() {
        let net = Network::new();
        let server = ServerPort::bind(net.attach_open(), Port::new(0x22).unwrap());
        assert_eq!(server.put_port(), server.get_port());
    }

    #[test]
    fn unsigned_requests_have_no_signature() {
        let net = Network::new();
        let server = ServerPort::bind(net.attach_open(), Port::new(0x33).unwrap());
        let p = server.put_port();
        let t = std::thread::spawn(move || {
            let req = server.next_request().unwrap();
            assert!(req.signature.is_none());
            server.reply(&req, Bytes::new());
        });
        let client = Client::with_config(net.attach_open(), fast());
        client.trans(p, Bytes::new()).unwrap();
        t.join().unwrap();
    }

    #[test]
    fn next_request_timeout_expires() {
        let net = Network::new();
        let server = ServerPort::bind(net.attach_open(), Port::new(0x44).unwrap());
        assert_eq!(
            server
                .next_request_timeout(Duration::from_millis(10))
                .unwrap_err(),
            RecvError::Timeout
        );
    }

    #[test]
    fn shared_port_workers_claim_disjoint_requests() {
        // Two threads drain one bound port; every request is answered
        // exactly once no matter which worker claims it.
        let net = Network::new();
        let server = ServerPort::bind(net.attach_open(), Port::new(0x66).unwrap());
        let p = server.put_port();
        let workers: Vec<_> = (0..2)
            .map(|_| {
                let server = server.worker();
                std::thread::spawn(move || {
                    let mut served = 0u32;
                    while let Ok(req) = server.next_request_timeout(Duration::from_millis(200)) {
                        server.reply(&req, req.payload.clone()); // echo
                        served += 1;
                    }
                    served
                })
            })
            .collect();
        let mut clients = Vec::new();
        for i in 0..8u32 {
            let net = net.clone();
            clients.push(std::thread::spawn(move || {
                let client = Client::with_config(
                    net.attach_open(),
                    RpcConfig {
                        timeout: Duration::from_millis(500),
                        attempts: 3,
                    },
                );
                let body = Bytes::from(i.to_be_bytes().to_vec());
                let reply = client.trans(p, body.clone()).unwrap();
                assert_eq!(reply, body);
            }));
        }
        for c in clients {
            c.join().unwrap();
        }
        let total: u32 = workers.into_iter().map(|w| w.join().unwrap()).sum();
        assert_eq!(total, 8, "each request claimed by exactly one worker");
    }

    #[test]
    fn a_batch_is_served_whole_by_the_worker_that_received_it() {
        use std::sync::Mutex;
        let net = Network::new();
        let server = ServerPort::bind(net.attach_open(), Port::new(0x77).unwrap());
        let p = server.put_port();
        // (serving thread, entry index), in the order entries were served.
        let served: Arc<Mutex<Vec<(std::thread::ThreadId, u16)>>> = Arc::default();
        let workers: Vec<_> = (0..4)
            .map(|_| {
                let server = server.worker();
                let served = Arc::clone(&served);
                std::thread::spawn(move || {
                    while let Ok(req) = server.next_request_timeout(Duration::from_millis(300)) {
                        let (_, index) = req.batch_context().expect("a batch entry");
                        served
                            .lock()
                            .unwrap()
                            .push((std::thread::current().id(), index));
                        server.reply(&req, req.payload.clone());
                    }
                })
            })
            .collect();
        let client = Client::with_config(
            net.attach_open(),
            RpcConfig {
                timeout: Duration::from_secs(2),
                attempts: 2,
            },
        );
        let before = net.stats().snapshot();
        let bodies: Vec<Bytes> = (0..12u8).map(|i| Bytes::from(vec![i])).collect();
        let results = client
            .batch(p, bodies.len(), 5 * bodies.len(), |i, buf| {
                buf.extend_from_slice(&bodies[i])
            })
            .unwrap();
        for (expect, got) in bodies.iter().zip(&results) {
            assert_eq!(got.as_ref().unwrap(), expect);
        }
        assert_eq!(
            net.stats().snapshot().packets_sent - before.packets_sent,
            2,
            "12 entries, 1 frame each way"
        );
        for w in workers {
            w.join().unwrap();
        }
        let served = served.lock().unwrap();
        let indices: Vec<u16> = served.iter().map(|&(_, index)| index).collect();
        assert_eq!(indices, (0..12).collect::<Vec<u16>>(), "in index order");
        assert!(
            served.iter().all(|&(thread, _)| thread == served[0].0),
            "one worker served the whole frame: {served:?}"
        );
    }

    #[test]
    fn pool_claims_each_single_and_batch_entry_once() {
        // Four workers share the port while clients mix single frames
        // with batches, each frame served by whichever worker receives
        // it. Every request body is unique;
        // each must be claimed by exactly one worker, whichever path it
        // took, and answered. One attempt and a long timeout: nothing is
        // retransmitted, so a second claim would be a dispatch bug.
        use std::collections::HashMap;
        use std::sync::Mutex;
        const CLIENTS: u32 = 4;
        const ROUNDS: u32 = 40;
        const BATCH: u32 = 5;
        let net = Network::new();
        let server = ServerPort::bind(net.attach_open(), Port::new(0x99).unwrap());
        let p = server.put_port();
        /// Request body → (times claimed, arrived in a batch).
        type Claims = Mutex<HashMap<Vec<u8>, (u32, bool)>>;
        let claims: Arc<Claims> = Arc::default();
        let workers: Vec<_> = (0..4)
            .map(|_| {
                let server = server.worker();
                let claims = Arc::clone(&claims);
                std::thread::spawn(move || {
                    while let Ok(req) = server.next_request_timeout(Duration::from_millis(300)) {
                        let batched = req.batch_context().is_some();
                        claims
                            .lock()
                            .unwrap()
                            .entry(req.payload.to_vec())
                            .or_insert((0, batched))
                            .0 += 1;
                        server.reply(&req, req.payload.clone());
                    }
                })
            })
            .collect();
        let body = |c: u32, r: u32, e: u32| Bytes::from(format!("c{c}-r{r}-e{e}").into_bytes());
        let clients: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let net = net.clone();
                std::thread::spawn(move || {
                    let client = Client::with_config(
                        net.attach_open(),
                        RpcConfig {
                            timeout: Duration::from_secs(20),
                            attempts: 1,
                        },
                    );
                    for r in 0..ROUNDS {
                        let single = body(c, r, BATCH);
                        assert_eq!(client.trans(p, single.clone()).unwrap(), single);
                        let bodies: Vec<Bytes> = (0..BATCH).map(|e| body(c, r, e)).collect();
                        let replies = client
                            .batch(p, bodies.len(), 16 * bodies.len(), |i, buf| {
                                buf.extend_from_slice(&bodies[i])
                            })
                            .unwrap();
                        for (sent, got) in bodies.iter().zip(replies) {
                            assert_eq!(&got.unwrap(), sent);
                        }
                    }
                })
            })
            .collect();
        for c in clients {
            c.join().unwrap();
        }
        for w in workers {
            w.join().unwrap();
        }
        let claims = claims.lock().unwrap();
        assert_eq!(claims.len() as u32, CLIENTS * ROUNDS * (BATCH + 1));
        for (body, &(times, batched)) in claims.iter() {
            assert_eq!(
                times,
                1,
                "{} claimed {times} times",
                String::from_utf8_lossy(body)
            );
            let single = body.ends_with(format!("-e{BATCH}").as_bytes());
            assert_eq!(batched, !single, "singles bypass the batch path");
        }
    }

    #[test]
    fn replying_with_request_slices_parks_no_foreign_buffers() {
        // An echo server's reply body is a slice of the request frame,
        // which the *client* owns and retires. The server must let such
        // a body go, not park it: parked on the server thread it could
        // never become unique (the client parks a sibling), every
        // request frame would leak out of circulation, and both sides
        // would allocate per transaction.
        const WARMUP: usize = 64;
        const OPS: usize = 2_000;
        let net = Network::new();
        let server = ServerPort::bind(net.attach_open(), Port::new(0x88).unwrap());
        let p = server.put_port();
        let server_pool = server.buf_pool().clone();
        let t = std::thread::spawn(move || {
            let mut allocs_when_warm = 0;
            for served in 0.. {
                if served == WARMUP {
                    allocs_when_warm = server.buf_pool().fresh_allocs();
                }
                match server.next_request_timeout(Duration::from_millis(300)) {
                    Ok(req) => server.reply(&req, req.payload.clone()),
                    Err(_) => break,
                }
            }
            // Every client-side handle is gone by now (the client hung
            // up before our receive timed out).
            let parked = server.buf_pool().parked_on_this_thread();
            (allocs_when_warm, server.buf_pool().fresh_allocs(), parked)
        });
        let client = Client::with_config(net.attach_open(), fast());
        let body = Bytes::from_static(b"an echoed request body");
        let mut client_allocs_when_warm = 0;
        for i in 0..WARMUP + OPS {
            if i == WARMUP {
                client_allocs_when_warm = client.buf_pool().fresh_allocs();
            }
            assert_eq!(client.trans(p, body.clone()).unwrap(), body);
        }
        // A descheduled peer can cost a thread one more buffer than it
        // has owned so far; the leak cost one every few transactions
        // (some 90 over this loop).
        const SLACK: u64 = 8;
        assert!(
            client.buf_pool().fresh_allocs() <= client_allocs_when_warm + SLACK,
            "client frames must come back to the client: {} fresh allocations after warm-up",
            client.buf_pool().fresh_allocs() - client_allocs_when_warm
        );
        assert_eq!(client.buf_pool().lock_acquisitions(), 0);
        drop(client);
        let (warm, end, parked) = t.join().unwrap();
        assert!(end <= warm + SLACK, "server reply frames must recycle");
        assert_eq!(parked, 0, "a foreign buffer stayed parked on the server");
        assert_eq!(server_pool.lock_acquisitions(), 0);
    }

    #[test]
    fn duplicate_batch_deposit_after_completion_is_ignored() {
        // A handler may answer an entry twice, so deposits may land
        // *after* the reply frame shipped. They must be no-ops — not
        // panics, not second frames.
        let pool = amoeba_net::BufPool::new();
        let acc = BatchAccumulator::new(7, Port::new(0x99).unwrap(), 2, &pool);
        let deposit = |index, status, body: &'static [u8]| {
            acc.submit(
                index,
                status,
                body.len(),
                |b| b.extend_from_slice(body),
                &pool,
            )
        };
        // Deposited out of order: the frame carries entries in deposit
        // order, each naming its index.
        assert!(deposit(1, BatchStatus::Ok, b"b").is_none());
        let frame = deposit(0, BatchStatus::Ok, b"a").expect("last deposit ships");
        let entry = |index, body: &'static [u8]| crate::frame::BatchReplyEntry {
            index,
            status: BatchStatus::Ok,
            body: Bytes::from_static(body),
        };
        assert_eq!(
            Frame::decode(&frame),
            Some(Frame::BatchReply {
                id: 7,
                entries: vec![entry(1, b"b"), entry(0, b"a")],
            })
        );
        assert!(deposit(0, BatchStatus::Ok, b"a").is_none());
        assert!(deposit(1, BatchStatus::Rejected, b"").is_none());
        // Out-of-range duplicates stay harmless too.
        assert!(deposit(9, BatchStatus::Ok, b"").is_none());
    }

    #[test]
    fn retransmission_reaches_server_after_loss() {
        let net = Network::new();
        let server = ServerPort::bind(net.attach_open(), Port::new(0x55).unwrap());
        let p = server.put_port();
        let server_machine = server.endpoint().id();
        let t = std::thread::spawn(move || {
            let req = server.next_request().unwrap();
            server.reply(&req, Bytes::from_static(b"ok"));
            // Absorb a possible duplicate from the retry.
            let _ = server.next_request_timeout(Duration::from_millis(50));
        });
        let client = Client::with_config(
            net.attach_open(),
            RpcConfig {
                timeout: Duration::from_millis(30),
                attempts: 10,
            },
        );
        // Lose everything for the first attempt...
        let client_machine = client.endpoint().id();
        net.partition(client_machine, server_machine);
        let net2 = net.clone();
        let heal = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(45));
            net2.heal(client_machine, server_machine);
        });
        let reply = client.trans(p, Bytes::from_static(b"once more")).unwrap();
        assert_eq!(&reply[..], b"ok");
        heal.join().unwrap();
        t.join().unwrap();
    }
}
