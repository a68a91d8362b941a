//! Services over **sealed** capability transport — §2.4 integrated with
//! the service framework.
//!
//! Under the software-protection model, capabilities never cross the
//! wire in the clear: the client seals the request's capability with
//! the matrix key for (client, server), and the server unseals it with
//! the key selected by the packet's **unforgeable source address**. A
//! replayed request from any other machine decrypts to garbage and the
//! service answers `Forged` without ever running.
//!
//! The sealed request format replaces the leading 16 capability bytes
//! of the standard format with the 16-byte ciphertext; commands and
//! parameters are unchanged, so the same [`Service`] implementations
//! run unmodified behind a sealed runner.
//!
//! ```text
//! client:  [DES_{M[C][S]}(capability) ‖ command ‖ params]  →
//! server:  source = C (stamped) → unseal with M[C][S] → dispatch
//! ```

use crate::proto::{null_cap, Reply, Request, Status};
use crate::service::{decode_reply, recorded, send_reply, RequestCtx, Service, ServiceRunner};
use amoeba_cap::Capability;
use amoeba_net::{Endpoint, Network, Port};
use amoeba_rpc::Client;
use amoeba_softprot::{CapSealer, SealedCap};
use bytes::Bytes;
use std::sync::Arc;

/// Marker value in the sealed slot for capability-less requests
/// (CREATE etc.); sealing the null capability would needlessly leak a
/// known-plaintext pair per machine pair.
const ANONYMOUS: u128 = 0;

fn decode_sealed(data: &Bytes) -> Option<(u128, u32, Bytes)> {
    if data.len() < 20 {
        return None;
    }
    let sealed = u128::from_be_bytes(data[..16].try_into().ok()?);
    let command = u32::from_be_bytes(data[16..20].try_into().ok()?);
    Some((sealed, command, data.slice(20..)))
}

/// Serve one sealed request: unseal the capability slot with the key
/// selected by the packet's unforgeable source, dispatch, reply. There
/// is no migration dispatch here: `handle` sees the `STD_TRANSFER_*`
/// requests and refuses them as commands it does not serve.
fn serve_sealed_one(
    service: &dyn Service,
    sealer: &CapSealer,
    server: &amoeba_rpc::ServerPort,
    incoming: &amoeba_rpc::IncomingRequest,
) {
    recorded(server, incoming, || {
        let ctx = RequestCtx {
            source: incoming.source,
            signature: incoming.signature,
        };
        let reply = match decode_sealed(&incoming.payload) {
            None => Reply::status(Status::BadRequest),
            Some((sealed, command, params)) => {
                // Garbage and a missing key alike mean a forged capability.
                let cap = match sealed {
                    ANONYMOUS => Ok(null_cap()),
                    _ => sealer.unseal(SealedCap(sealed), incoming.source),
                };
                match cap {
                    Ok(cap) => service.handle(
                        &Request {
                            cap,
                            command,
                            params,
                        },
                        &ctx,
                    ),
                    Err(_) => Reply::status(Status::Forged),
                }
            }
        };
        send_reply(server, incoming, reply);
    });
}

impl ServiceRunner {
    /// Binds `get_port` on `endpoint` and serves `service` behind
    /// sealed-capability transport on a pool of `workers` threads,
    /// unsealing every incoming capability with `sealer` (keyed by
    /// packet source).
    ///
    /// # Panics
    /// Panics if `workers` is zero.
    pub fn spawn_sealed(
        endpoint: Endpoint,
        get_port: Port,
        service: impl Service,
        sealer: Arc<CapSealer>,
        workers: usize,
    ) -> ServiceRunner {
        Self::spawn_serving(
            endpoint,
            get_port,
            service,
            workers,
            move |service, server, req| serve_sealed_one(service, &sealer, server, req),
        )
    }
}

/// A client that seals every outgoing capability for the target server.
#[derive(Debug)]
pub struct SealedServiceClient {
    rpc: Client,
    sealer: Arc<CapSealer>,
    server_machine: amoeba_net::MachineId,
}

impl SealedServiceClient {
    /// A client on a fresh open-interface machine, sealing for
    /// `server_machine` with `sealer`.
    pub fn open(
        net: &Network,
        sealer: Arc<CapSealer>,
        server_machine: amoeba_net::MachineId,
    ) -> SealedServiceClient {
        SealedServiceClient {
            rpc: Client::new(net.attach_open()),
            sealer,
            server_machine,
        }
    }

    /// A client over an existing RPC client — required when the matrix
    /// keys were drawn for that endpoint's machine id (keys bind to
    /// machines, so the sealing client must *be* that machine).
    pub fn with_client(
        rpc: Client,
        sealer: Arc<CapSealer>,
        server_machine: amoeba_net::MachineId,
    ) -> SealedServiceClient {
        SealedServiceClient {
            rpc,
            sealer,
            server_machine,
        }
    }

    /// The sealer (e.g. to unseal capabilities arriving in replies).
    pub fn sealer(&self) -> &Arc<CapSealer> {
        &self.sealer
    }

    /// Invokes `command` with a sealed capability.
    ///
    /// # Errors
    /// As for [`ServiceClient::call`](crate::ServiceClient::call), plus
    /// `Malformed` if no matrix key is installed for the server.
    pub fn call(
        &self,
        port: Port,
        cap: &Capability,
        command: u32,
        params: Bytes,
    ) -> Result<Bytes, crate::ClientError> {
        let sealed = self
            .sealer
            .seal(cap, self.server_machine)
            .map_err(|_| crate::ClientError::Malformed)?;
        self.dispatch(port, sealed.0, command, params)
    }

    /// Invokes a capability-less command (CREATE and friends).
    ///
    /// # Errors
    /// As for [`call`](Self::call).
    pub fn call_anonymous(
        &self,
        port: Port,
        command: u32,
        params: Bytes,
    ) -> Result<Bytes, crate::ClientError> {
        self.dispatch(port, ANONYMOUS, command, params)
    }

    fn dispatch(
        &self,
        port: Port,
        sealed: u128,
        command: u32,
        params: Bytes,
    ) -> Result<Bytes, crate::ClientError> {
        // Sealed slot ‖ command ‖ params, built in place in the request
        // frame like the plain client's.
        let raw = self.rpc.start(port, None, 20 + params.len(), |buf| {
            buf.extend_from_slice(&sealed.to_be_bytes());
            buf.extend_from_slice(&command.to_be_bytes());
            buf.extend_from_slice(&params);
        });
        self.rpc.buf_pool().release(params);
        decode_reply(&raw.wait()?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::ObjectTable;

    use amoeba_cap::schemes::SchemeKind;
    use amoeba_cap::Rights;
    use amoeba_crypto::SecretStream;
    use amoeba_server_test_util::Echo;
    use amoeba_softprot::KeyMatrix;

    // A tiny echo service shared with the sealed tests.
    mod amoeba_server_test_util {
        use super::*;

        pub struct Echo {
            pub table: ObjectTable<Vec<u8>>,
            /// Replies carrying capabilities seal them for the
            /// requester — the full §2.4 discipline (capabilities in
            /// *any* message are encrypted).
            pub sealer: Arc<CapSealer>,
        }

        pub const CREATE: u32 = 1;
        pub const READ: u32 = 2;
        pub const APPEND: u32 = 3;

        impl Service for Echo {
            fn bind(&mut self, put_port: Port) {
                self.table.set_port(put_port);
            }

            fn handle(&self, req: &Request, _ctx: &RequestCtx) -> Reply {
                match req.command {
                    CREATE => {
                        let (_, cap) = self.table.create(Vec::new());
                        // Seal the fresh capability for the requesting
                        // machine before it goes on the wire.
                        match self.sealer.seal(&cap, _ctx.source) {
                            Ok(sealed) => {
                                Reply::ok(Bytes::copy_from_slice(&sealed.0.to_be_bytes()))
                            }
                            Err(_) => Reply::status(Status::Forged),
                        }
                    }
                    READ => match self
                        .table
                        .with_object(&req.cap, Rights::READ, |d| Bytes::from(d.clone()))
                    {
                        Ok(data) => Reply::ok(data),
                        Err(e) => Reply::status(e.into()),
                    },
                    APPEND => match self.table.with_object_mut(&req.cap, Rights::WRITE, |d| {
                        d.extend_from_slice(&req.params)
                    }) {
                        Ok(()) => Reply::ok(Bytes::new()),
                        Err(e) => Reply::status(e.into()),
                    },
                    _ => Reply::status(Status::BadCommand),
                }
            }
        }
    }

    /// Builds (network, runner, honest client, intruder machine) with a
    /// populated matrix.
    fn world() -> (
        Network,
        ServiceRunner,
        SealedServiceClient,
        Endpoint,
        Arc<CapSealer>,
    ) {
        let net = Network::new();
        // Machines must exist before the matrix is drawn.
        let server_ep = net.attach_open();
        let client_ep_for_id = net.attach_open();
        let intruder = net.attach_open();
        let matrix = KeyMatrix::random(
            &[server_ep.id(), client_ep_for_id.id(), intruder.id()],
            &mut SecretStream::from_seed(77),
        );

        let server_sealer = Arc::new(CapSealer::new(matrix.view_for(server_ep.id())));
        let client_sealer = Arc::new(CapSealer::new(matrix.view_for(client_ep_for_id.id())));

        let server_machine = server_ep.id();
        let runner = ServiceRunner::spawn_sealed(
            server_ep,
            Port::new(0x5EA1ED).unwrap(),
            Echo {
                table: ObjectTable::unbound(SchemeKind::Commutative.instantiate()),
                sealer: Arc::clone(&server_sealer),
            },
            server_sealer,
            1,
        );
        let client = SealedServiceClient {
            rpc: Client::new(client_ep_for_id),
            sealer: client_sealer,
            server_machine,
        };
        let sealer_for_tap = Arc::new(CapSealer::new(matrix.view_for(intruder.id())));
        (net, runner, client, intruder, sealer_for_tap)
    }

    fn unseal_reply_cap(client: &SealedServiceClient, body: &Bytes) -> Capability {
        let sealed = SealedCap(u128::from_be_bytes(body[..16].try_into().unwrap()));
        client
            .sealer
            .unseal(sealed, client.server_machine)
            .expect("reply capability unseals")
    }

    #[test]
    fn sealed_end_to_end() {
        let (_net, runner, client, _intruder, _s) = world();
        let body = client
            .call_anonymous(
                runner.put_port(),
                amoeba_server_test_util::CREATE,
                Bytes::new(),
            )
            .unwrap();
        let cap = unseal_reply_cap(&client, &body);
        client
            .call(
                runner.put_port(),
                &cap,
                amoeba_server_test_util::APPEND,
                Bytes::from_static(b"sealed!"),
            )
            .unwrap();
        let data = client
            .call(
                runner.put_port(),
                &cap,
                amoeba_server_test_util::READ,
                Bytes::new(),
            )
            .unwrap();
        assert_eq!(&data[..], b"sealed!");
        runner.stop();
    }

    #[test]
    fn capability_never_crosses_in_the_clear() {
        let (net, runner, client, _intruder, _s) = world();
        let wire_tap = net.tap();
        let body = client
            .call_anonymous(
                runner.put_port(),
                amoeba_server_test_util::CREATE,
                Bytes::new(),
            )
            .unwrap();
        let cap = unseal_reply_cap(&client, &body);
        client
            .call(
                runner.put_port(),
                &cap,
                amoeba_server_test_util::READ,
                Bytes::new(),
            )
            .unwrap();
        let plain = cap.encode();
        while let Ok(pkt) = wire_tap.try_recv() {
            assert!(
                !pkt.payload.windows(16).any(|w| w == plain),
                "plaintext capability on the wire"
            );
        }
        runner.stop();
    }

    #[test]
    fn replayed_sealed_request_gets_forged() {
        let (net, runner, client, intruder, _s) = world();
        let wire_tap = net.tap();
        let body = client
            .call_anonymous(
                runner.put_port(),
                amoeba_server_test_util::CREATE,
                Bytes::new(),
            )
            .unwrap();
        let cap = unseal_reply_cap(&client, &body);
        client
            .call(
                runner.put_port(),
                &cap,
                amoeba_server_test_util::APPEND,
                Bytes::from_static(b"x"),
            )
            .unwrap();

        // Capture the APPEND request off the wire (inside its RPC
        // frame) and replay it from the intruder's machine with the
        // reply port pointed at the intruder.
        use amoeba_rpc::Frame;
        let mut captured = None;
        while let Ok(pkt) = wire_tap.try_recv() {
            if pkt.header.dest != runner.put_port() {
                continue;
            }
            if let Some(Frame::Request(body)) = Frame::decode(&pkt.payload) {
                if decode_sealed(&body)
                    .map(|(s, c, _)| s != ANONYMOUS && c == amoeba_server_test_util::APPEND)
                    .unwrap_or(false)
                {
                    captured = Some(pkt);
                }
            }
        }
        let captured = captured.expect("captured the sealed append");
        let reply_port = Port::new(0x1117).unwrap();
        intruder.claim(reply_port);
        intruder.send(
            amoeba_net::Header::to(runner.put_port()).with_reply(reply_port),
            captured.payload.clone(),
        );
        let raw = intruder.recv().expect("server answers");
        let reply = Reply::decode(&raw_body(&raw.payload)).expect("frame");
        // Decryption under M[I][S] yields garbage: either it fails to
        // parse as a capability (Forged) or it parses as a random
        // capability naming a non-existent or mismatched object. Every
        // one of those outcomes is a rejection.
        assert!(
            matches!(
                reply.status,
                Status::Forged | Status::NoSuchObject | Status::RightsViolation
            ),
            "replay must be rejected, got {:?}",
            reply.status
        );

        // The honest client is unaffected.
        let data = client
            .call(
                runner.put_port(),
                &cap,
                amoeba_server_test_util::READ,
                Bytes::new(),
            )
            .unwrap();
        assert_eq!(&data[..], b"x");
        runner.stop();
    }

    /// Strips the RPC frame tag from a reply packet payload.
    fn raw_body(payload: &Bytes) -> Bytes {
        use amoeba_rpc::Frame;
        match Frame::decode(payload) {
            Some(Frame::Reply(body)) => body,
            other => panic!("expected a reply frame, got {other:?}"),
        }
    }
}
