//! The Amoeba **flat file server** (§3.3).
//!
//! "The flat file server provides its clients with files consisting of a
//! linear sequence of bytes, numbered from 0 to the file size − 1. The
//! basic operations here are CREATE FILE, DESTROY FILE, WRITE FILE, and
//! READ FILE. ... The server does not have any concept of an 'open'
//! file. One can operate on any file for which a valid capability can be
//! presented."
//!
//! Optionally the server enforces **bank-backed quotas** (§3.6): it is
//! configured with its own bank account and a price per kilobyte; a
//! CREATE may carry an account capability and a pre-payment, which the
//! file server transfers to itself via a real bank-server RPC. The paid
//! amount fixes the file's byte quota — "quotas can be implemented by
//! limiting how many dollars each client has."
//!
//! # Example
//!
//! ```
//! use amoeba_cap::{schemes::SchemeKind, Rights};
//! use amoeba_flatfs::{FlatFsClient, FlatFsServer};
//! use amoeba_net::Network;
//! use amoeba_server::ServiceRunner;
//!
//! let net = Network::new();
//! let runner = ServiceRunner::spawn_open(&net, FlatFsServer::new(SchemeKind::Commutative));
//! let fs = FlatFsClient::open(&net, runner.put_port());
//!
//! let cap = fs.create().unwrap();
//! fs.write(&cap, 0, b"hello world").unwrap();
//! assert_eq!(&fs.read(&cap, 6, 5).unwrap(), b"world");
//! assert_eq!(fs.size(&cap).unwrap(), 11);
//!
//! // Delegate read-only access by diminishing locally (scheme 3).
//! let scheme = amoeba_cap::schemes::CommutativeScheme::standard();
//! use amoeba_cap::schemes::ProtectionScheme;
//! let ro = scheme.diminish(&cap, Rights::ALL.without(Rights::READ)).unwrap();
//! assert!(fs.read(&ro, 0, 5).is_ok());
//! assert!(fs.write(&ro, 0, b"nope").is_err());
//! runner.stop();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod block_backed;
mod page_cache;

pub use block_backed::BlockFlatFsServer;

use amoeba_bank::{BankClient, CurrencyId};
use amoeba_cap::schemes::SchemeKind;
use amoeba_cap::{Capability, Rights};
use amoeba_net::{Network, Port};
use amoeba_server::proto::{Reply, Request, Status};
use amoeba_server::{
    dispatch, wire, ClientError, Command, Handler, MigrateData, ObjectTable, RequestCtx, Service,
    ServiceClient, ShardHost, ShardMigrator,
};
use bytes::Bytes;
use std::sync::Arc;

/// Flat-file-server operation codes. What each needs of the presented
/// capability is declared once for both servers, in their command
/// tables.
pub mod ops {
    /// CREATE FILE. Params: none, or (`cap account`,
    /// `u64 prepay`) under quota enforcement. Reply: capability.
    pub const CREATE: u32 = 1;
    /// DESTROY FILE.
    pub const DESTROY: u32 = 2;
    /// READ FILE. Params: `u64 offset`, `u32 len`. Reply: bytes
    /// (short reads at end-of-file).
    pub const READ: u32 = 3;
    /// WRITE FILE at `u64 offset` (extends the file). Params: offset,
    /// bytes. Reply: `u64` new size.
    pub const WRITE: u32 = 4;
    /// File size. Reply: `u64`.
    pub const SIZE: u32 = 5;
}

/// An entry of a flat file server's command table. What each command
/// needs of the presented capability is declared here, once, for both
/// servers.
const fn command<S>(id: u32, run: Handler<S>) -> Command<S> {
    let needs = match id {
        ops::CREATE => None,
        ops::READ | ops::SIZE => Some(Rights::READ),
        ops::WRITE => Some(Rights::WRITE),
        ops::DESTROY => Some(Rights::DELETE),
        _ => panic!("not a flat-file command"),
    };
    Command { id, needs, run }
}

/// A file plus its (optional) purchased quota and refund ticket.
#[derive(Debug, Default)]
struct File {
    data: Vec<u8>,
    quota_bytes: Option<u64>,
    /// For metered files: (payer's account, prepay) so DESTROY can
    /// refund the unused quota — §3.6: "in some cases (e.g., disk
    /// blocks...) returning the resource might result in the client
    /// getting his money" back.
    paid: Option<(Capability, u64)>,
}

impl MigrateData for File {
    fn encode(&self) -> Vec<u8> {
        let mut w = wire::Writer::new().bytes(&self.data);
        w = match self.quota_bytes {
            Some(q) => w.u32(1).u64(q),
            None => w.u32(0),
        };
        w = match &self.paid {
            Some((account, prepay)) => w.u32(1).cap(account).u64(*prepay),
            None => w.u32(0),
        };
        w.finish().to_vec()
    }

    fn decode(bytes: &[u8]) -> Option<File> {
        let mut r = wire::Reader::new(bytes);
        let data = r.bytes()?.to_vec();
        let quota_bytes = match r.u32()? {
            0 => None,
            1 => Some(r.u64()?),
            _ => return None,
        };
        let paid = match r.u32()? {
            0 => None,
            1 => Some((r.cap()?, r.u64()?)),
            _ => return None,
        };
        Some(File {
            data,
            quota_bytes,
            paid,
        })
    }
}

/// Pricing for bank-backed quotas.
#[derive(Debug)]
pub struct QuotaPolicy {
    /// The file server's *own* bank client (the server is itself a bank
    /// customer).
    pub bank: BankClient,
    /// Where payments are deposited.
    pub server_account: Capability,
    /// The charged currency.
    pub currency: CurrencyId,
    /// Price per 1024 bytes of file quota ("x dollars per kiloblock").
    pub price_per_kib: u64,
}

/// The flat file server.
#[derive(Debug)]
pub struct FlatFsServer {
    table: Arc<ObjectTable<File>>,
    /// Set once a cluster places this server: its shards can move.
    host: Option<ShardHost<File>>,
    quota: Option<QuotaPolicy>,
}

impl FlatFsServer {
    const COMMANDS: &'static [Command<Self>] = &[
        command(ops::CREATE, Self::create),
        command(ops::DESTROY, Self::destroy),
        command(ops::READ, Self::read),
        command(ops::WRITE, Self::write),
        command(ops::SIZE, Self::size),
    ];

    /// An unmetered server: files grow without limit.
    pub fn new(scheme: SchemeKind) -> FlatFsServer {
        FlatFsServer {
            table: Arc::new(ObjectTable::unbound(scheme.instantiate())),
            host: None,
            quota: None,
        }
    }

    /// A metered server: CREATE must pre-pay for its quota through the
    /// bank.
    pub fn with_quota(scheme: SchemeKind, quota: QuotaPolicy) -> FlatFsServer {
        FlatFsServer {
            table: Arc::new(ObjectTable::unbound(scheme.instantiate())),
            host: None,
            quota: Some(quota),
        }
    }

    /// Derives per-object secrets from `seed` instead of OS entropy.
    /// Simulation-only (see [`ObjectTable::reseed_secrets`]): the
    /// deterministic executor needs byte-identical minting across
    /// replays of one scenario seed.
    pub fn reseed_secrets(&self, seed: u64) {
        self.table.reseed_secrets(seed);
    }

    fn create(&self, req: &Request, _: Rights) -> Result<Bytes, Status> {
        let mut paid = None;
        let quota_bytes = match &self.quota {
            None => None,
            Some(policy) => {
                // Metered: the request must carry (account cap, prepay).
                let mut r = wire::Reader::new(&req.params);
                let (Some(account), Some(prepay)) = (r.cap(), r.u64()) else {
                    return Err(Status::BadRequest);
                };
                // Collect the payment with a real bank transaction. The
                // client's account capability needs WRITE; ours is the
                // deposit side.
                match policy.bank.transfer(
                    &account,
                    &policy.server_account,
                    policy.currency,
                    prepay,
                ) {
                    Ok(()) => {}
                    Err(ClientError::Status(s)) => return Err(s),
                    Err(_) => return Err(Status::BadRequest),
                }
                paid = Some((account, prepay));
                Some(prepay.saturating_mul(1024) / policy.price_per_kib.max(1))
            }
        };
        match self.table.try_create(File {
            data: Vec::new(),
            quota_bytes,
            paid,
        }) {
            Ok((_, cap)) => Ok(wire::Writer::new().cap(&cap).finish()),
            Err(e) => {
                // A drained replica (every owned shard migrated away)
                // cannot mint; hand the payment back before refusing so
                // the client can retry against the shard map's owner.
                if let (Some(policy), Some((account, prepay))) = (&self.quota, paid) {
                    let _ = policy.bank.transfer(
                        &policy.server_account,
                        &account,
                        policy.currency,
                        prepay,
                    );
                }
                Err(e.into())
            }
        }
    }

    fn read(&self, req: &Request, need: Rights) -> Result<Bytes, Status> {
        let mut r = wire::Reader::new(&req.params);
        let (Some(offset), Some(len)) = (r.u64(), r.u32()) else {
            return Err(Status::BadRequest);
        };
        Ok(self.table.with_object(&req.cap, need, |f| {
            let start = (offset as usize).min(f.data.len());
            let end = start.saturating_add(len as usize).min(f.data.len());
            let span = &f.data[start..end];
            wire::Writer::with_capacity(span.len()).raw(span).finish()
        })?)
    }

    fn write(&self, req: &Request, need: Rights) -> Result<Bytes, Status> {
        let mut r = wire::Reader::new(&req.params);
        let (Some(offset), Some(data)) = (r.u64(), r.bytes()) else {
            return Err(Status::BadRequest);
        };
        let result = self.table.with_object_mut(&req.cap, need, |f| {
            let end = (offset as usize).checked_add(data.len())?;
            if let Some(quota) = f.quota_bytes {
                if end as u64 > quota {
                    return None;
                }
            }
            if end > f.data.len() {
                f.data.resize(end, 0);
            }
            f.data[offset as usize..end].copy_from_slice(data);
            Some(f.data.len() as u64)
        });
        let size = result?.ok_or(Status::NoSpace)?;
        Ok(wire::Writer::new().u64(size).finish())
    }

    fn size(&self, req: &Request, need: Rights) -> Result<Bytes, Status> {
        let size = self
            .table
            .with_object(&req.cap, need, |f| f.data.len() as u64)?;
        Ok(wire::Writer::new().u64(size).finish())
    }

    fn destroy(&self, req: &Request, need: Rights) -> Result<Bytes, Status> {
        let file = self.table.delete(&req.cap, need)?;
        // §3.6 refund: returning disk space returns the money for the
        // *unused* part of the quota.
        if let (Some(policy), Some((account, prepay))) = (&self.quota, file.paid) {
            let used_kib = (file.data.len() as u64).div_ceil(1024);
            let spent = used_kib.saturating_mul(policy.price_per_kib);
            let refund = prepay.saturating_sub(spent);
            if refund > 0 {
                // The server pays out of its own account; a failed
                // refund (e.g. the payer closed the account) forfeits
                // the money rather than the deletion.
                let _ =
                    policy
                        .bank
                        .transfer(&policy.server_account, &account, policy.currency, refund);
            }
        }
        Ok(Bytes::new())
    }
}

impl Service for FlatFsServer {
    fn bind(&mut self, put_port: Port) {
        self.table.set_port(put_port);
    }

    fn bind_shard_range(&mut self, owner: usize, replicas: usize) {
        // As replica `owner` of a sharded placement group, only mint
        // file numbers in the owned shard range so every capability's
        // object number names the replica that stores the file. Only
        // a placed server migrates.
        self.host = Some(ShardHost::new(Arc::clone(&self.table), owner, replicas));
    }

    fn handle(&self, req: &Request, _ctx: &RequestCtx) -> Reply {
        dispatch(self, &self.table, Self::COMMANDS, req)
    }

    fn migrator(&self) -> Option<&dyn ShardMigrator> {
        self.host.as_ref().map(|host| host as &dyn ShardMigrator)
    }
}

/// A typed client for the flat file server.
#[derive(Debug)]
pub struct FlatFsClient {
    svc: ServiceClient,
    port: Port,
}

impl FlatFsClient {
    /// A client on a fresh open-interface machine.
    pub fn open(net: &Network, port: Port) -> FlatFsClient {
        FlatFsClient {
            svc: ServiceClient::open(net),
            port,
        }
    }

    /// A client over an existing [`ServiceClient`].
    pub fn with_service(svc: ServiceClient, port: Port) -> FlatFsClient {
        FlatFsClient { svc, port }
    }

    /// The server's put-port.
    pub fn port(&self) -> Port {
        self.port
    }

    /// CREATE FILE on an unmetered server.
    ///
    /// # Errors
    /// `BadRequest` against a metered server (use
    /// [`create_paid`](Self::create_paid)); transport errors.
    pub fn create(&self) -> Result<Capability, ClientError> {
        let body = self
            .svc
            .call_anonymous(self.port, ops::CREATE, Bytes::new())?;
        wire::Reader::new(&body).cap().ok_or(ClientError::Malformed)
    }

    /// CREATE FILE on a metered server, pre-paying `prepay` from
    /// `account` (the server converts the payment into a byte quota).
    ///
    /// # Errors
    /// `InsufficientFunds` if the account cannot cover the payment.
    pub fn create_paid(
        &self,
        account: &Capability,
        prepay: u64,
    ) -> Result<Capability, ClientError> {
        let body = self.svc.call_anonymous(
            self.port,
            ops::CREATE,
            wire::Writer::new().cap(account).u64(prepay).finish(),
        )?;
        wire::Reader::new(&body).cap().ok_or(ClientError::Malformed)
    }

    /// READ FILE: up to `len` bytes at `offset` (short read at EOF).
    ///
    /// # Errors
    /// Rights/validation errors.
    pub fn read(&self, cap: &Capability, offset: u64, len: u32) -> Result<Vec<u8>, ClientError> {
        let body = self.svc.call(
            cap,
            ops::READ,
            wire::Writer::new().u64(offset).u32(len).finish(),
        )?;
        Ok(body.to_vec())
    }

    /// WRITE FILE at `offset`, extending as needed. Returns the new
    /// size.
    ///
    /// # Errors
    /// `NoSpace` past a purchased quota; rights/validation errors.
    pub fn write(&self, cap: &Capability, offset: u64, data: &[u8]) -> Result<u64, ClientError> {
        // In place: `data` is copied once, into the request frame.
        let len = 12 + data.len();
        let body = self
            .svc
            .call_with(cap.port, None, cap, ops::WRITE, len, |w| {
                w.u64(offset).bytes(data)
            })?;
        wire::Reader::new(&body).u64().ok_or(ClientError::Malformed)
    }

    /// The file's size in bytes.
    ///
    /// # Errors
    /// Rights/validation errors.
    pub fn size(&self, cap: &Capability) -> Result<u64, ClientError> {
        let body = self.svc.call(cap, ops::SIZE, Bytes::new())?;
        wire::Reader::new(&body).u64().ok_or(ClientError::Malformed)
    }

    /// DESTROY FILE (requires DELETE).
    ///
    /// # Errors
    /// Rights/validation errors.
    pub fn destroy(&self, cap: &Capability) -> Result<(), ClientError> {
        self.svc.call(cap, ops::DESTROY, Bytes::new())?;
        Ok(())
    }

    /// Access to the generic capability operations.
    pub fn service(&self) -> &ServiceClient {
        &self.svc
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use amoeba_bank::{BankServer, Currency};
    use amoeba_server::ServiceRunner;

    fn setup() -> (Network, ServiceRunner, FlatFsClient) {
        let net = Network::new();
        let runner = ServiceRunner::spawn_open(&net, FlatFsServer::new(SchemeKind::OneWay));
        let client = FlatFsClient::open(&net, runner.put_port());
        (net, runner, client)
    }

    /// The rights check on the flat-file protocol, which both servers
    /// speak.
    pub(crate) fn assert_flat_file_rights<S>(fs: &FlatFsClient, commands: &[Command<S>]) {
        use amoeba_server::rights_check::{assert_rights_enforced, Probe};
        let file = |params: Bytes| {
            let cap = fs.create().unwrap();
            fs.write(&cap, 0, b"abcd").unwrap();
            (cap, params)
        };
        let read = || file(wire::Writer::new().u64(0).u32(4).finish());
        let write = || file(wire::Writer::new().u64(1).bytes(b"x").finish());
        let bare = || file(Bytes::new());
        assert_rights_enforced(
            fs.service(),
            commands,
            &[
                Probe::new(ops::READ, Rights::READ, &read),
                Probe::new(ops::WRITE, Rights::WRITE, &write),
                Probe::new(ops::SIZE, Rights::READ, &bare),
                Probe::new(ops::DESTROY, Rights::DELETE, &bare),
            ],
            |cap| (fs.size(cap), fs.read(cap, 0, 64)),
        );
    }

    #[test]
    fn every_command_refuses_a_capability_lacking_its_rights() {
        let (_n, runner, fs) = setup();
        assert_flat_file_rights(&fs, FlatFsServer::COMMANDS);
        runner.stop();
    }

    #[test]
    fn create_write_read_cycle() {
        let (_n, runner, fs) = setup();
        let cap = fs.create().unwrap();
        assert_eq!(fs.size(&cap).unwrap(), 0);
        assert_eq!(fs.write(&cap, 0, b"linear sequence of bytes").unwrap(), 24);
        assert_eq!(&fs.read(&cap, 7, 8).unwrap(), b"sequence");
        runner.stop();
    }

    #[test]
    fn write_past_end_zero_fills() {
        let (_n, runner, fs) = setup();
        let cap = fs.create().unwrap();
        fs.write(&cap, 10, b"tail").unwrap();
        assert_eq!(fs.size(&cap).unwrap(), 14);
        assert_eq!(fs.read(&cap, 0, 10).unwrap(), vec![0u8; 10]);
        runner.stop();
    }

    #[test]
    fn read_past_eof_is_short() {
        let (_n, runner, fs) = setup();
        let cap = fs.create().unwrap();
        fs.write(&cap, 0, b"abc").unwrap();
        assert_eq!(&fs.read(&cap, 1, 100).unwrap(), b"bc");
        assert!(fs.read(&cap, 50, 10).unwrap().is_empty());
        runner.stop();
    }

    #[test]
    fn no_open_state_interleaved_clients() {
        // Two clients hammer the same file with no open/close anywhere.
        let (net, runner, fs1) = setup();
        let cap = fs1.create().unwrap();
        let fs2 = FlatFsClient::open(&net, fs1.port());
        fs1.write(&cap, 0, b"AAAA").unwrap();
        fs2.write(&cap, 2, b"BB").unwrap();
        assert_eq!(&fs1.read(&cap, 0, 4).unwrap(), b"AABB");
        runner.stop();
    }

    #[test]
    fn destroy_then_dead() {
        let (_n, runner, fs) = setup();
        let cap = fs.create().unwrap();
        fs.destroy(&cap).unwrap();
        assert!(fs.size(&cap).is_err());
        runner.stop();
    }

    #[test]
    fn delegation_read_only_via_server_restrict() {
        let (_n, runner, fs) = setup();
        let cap = fs.create().unwrap();
        fs.write(&cap, 0, b"secret").unwrap();
        let ro = fs.service().restrict(&cap, Rights::READ).unwrap();
        assert_eq!(&fs.read(&ro, 0, 6).unwrap(), b"secret");
        assert_eq!(
            fs.write(&ro, 0, b"tamper").unwrap_err(),
            ClientError::Status(Status::RightsViolation)
        );
        assert_eq!(
            fs.destroy(&ro).unwrap_err(),
            ClientError::Status(Status::RightsViolation)
        );
        runner.stop();
    }

    #[test]
    fn destroy_refunds_unused_quota() {
        let net = Network::new();
        let (bank_server, treasury_rx) = BankServer::new(
            vec![Currency::convertible("dollar", 1)],
            SchemeKind::Commutative,
        );
        let bank_runner = ServiceRunner::spawn_open(&net, bank_server);
        let bank_port = bank_runner.put_port();
        let treasury = treasury_rx.recv().unwrap();
        let bank = BankClient::open(&net, bank_port);

        let server_account = bank.open_account().unwrap();
        // The DESTROY handler needs WRITE on the server account to pay
        // refunds; keep its full capability in the policy.
        let fs_server = FlatFsServer::with_quota(
            SchemeKind::OneWay,
            QuotaPolicy {
                bank: BankClient::open(&net, bank_port),
                server_account,
                currency: CurrencyId(0),
                price_per_kib: 1,
            },
        );
        let fs_runner = ServiceRunner::spawn_open(&net, fs_server);
        let fs = FlatFsClient::open(&net, fs_runner.put_port());

        let wallet = bank.open_account().unwrap();
        bank.mint(&treasury, &wallet, CurrencyId(0), 10).unwrap();

        // Pay 10 dollars (10 KiB quota), use 2 KiB + 1 byte = 3 KiB
        // priced, destroy: 7 dollars come back.
        let cap = fs.create_paid(&wallet, 10).unwrap();
        assert_eq!(bank.balance(&wallet, CurrencyId(0)).unwrap(), 0);
        fs.write(&cap, 0, &vec![1u8; 2049]).unwrap();
        fs.destroy(&cap).unwrap();
        assert_eq!(bank.balance(&wallet, CurrencyId(0)).unwrap(), 7);

        fs_runner.stop();
        bank_runner.stop();
    }

    #[test]
    fn quota_enforced_through_real_bank() {
        let net = Network::new();
        // Start the bank.
        let (bank_server, treasury_rx) = BankServer::new(
            vec![Currency::convertible("dollar", 1)],
            SchemeKind::Commutative,
        );
        let bank_runner = ServiceRunner::spawn_open(&net, bank_server);
        let bank_port = bank_runner.put_port();
        let treasury = treasury_rx.recv().unwrap();
        let bank = BankClient::open(&net, bank_port);

        // The file server opens its own account.
        let server_account = bank.open_account().unwrap();
        let fs_server = FlatFsServer::with_quota(
            SchemeKind::OneWay,
            QuotaPolicy {
                bank: BankClient::open(&net, bank_port),
                server_account,
                currency: CurrencyId(0),
                price_per_kib: 2, // 2 dollars per KiB
            },
        );
        let fs_runner = ServiceRunner::spawn_open(&net, fs_server);
        let fs = FlatFsClient::open(&net, fs_runner.put_port());

        // Client gets 10 dollars.
        let wallet = bank.open_account().unwrap();
        bank.mint(&treasury, &wallet, CurrencyId(0), 10).unwrap();

        // Unpaid create is rejected outright.
        assert_eq!(
            fs.create().unwrap_err(),
            ClientError::Status(Status::BadRequest)
        );

        // Pay 4 dollars => 2 KiB quota.
        let cap = fs.create_paid(&wallet, 4).unwrap();
        assert_eq!(bank.balance(&wallet, CurrencyId(0)).unwrap(), 6);
        fs.write(&cap, 0, &vec![1u8; 2048]).unwrap();
        assert_eq!(
            fs.write(&cap, 2048, b"!").unwrap_err(),
            ClientError::Status(Status::NoSpace)
        );

        // Overdraft: cannot pay more than the wallet holds.
        assert_eq!(
            fs.create_paid(&wallet, 100).unwrap_err(),
            ClientError::Status(Status::InsufficientFunds)
        );

        fs_runner.stop();
        bank_runner.stop();
    }
}
