//! The generic Amoeba server framework (§2.3, §3).
//!
//! Every Amoeba service in this repository — files, directories, memory,
//! blocks, bank accounts — is "just one or more server processes, with
//! no special privileges", built from the same parts:
//!
//! * an [`ObjectTable`] mapping object numbers to per-object secrets and
//!   server-private data, with capability **mint / validate / restrict /
//!   revoke / delete** built in;
//! * the standard request/reply wire format ([`proto`]): one capability
//!   in the header, an operation code, and parameters — exactly the
//!   message layout of §2.1;
//! * a [`Command`] table per service and [`dispatch`], which serves a
//!   request from it: the standard commands, an unknown id and the
//!   handler's outcome are handled there once, and each command's
//!   rights are declared in its entry;
//! * a [`Service`] trait plus a [`ServiceRunner`] that binds a port and
//!   serves requests on a background worker — or a whole pool of them
//!   ([`ServiceRunner::spawn_workers`]) draining one shared port;
//! * a [`ServiceClient`] that performs capability-carrying transactions;
//! * [`wire`]: a tiny parameter codec shared by all services.
//!
//! # Example: a counter service in a few lines
//!
//! A service declares its commands once, with the rights each needs of
//! the presented capability, and hands every request to [`dispatch`].
//!
//! ```
//! use amoeba_cap::{schemes::SchemeKind, Rights};
//! use amoeba_server::{proto::{Reply, Request, Status}, wire, dispatch, Command, ObjectTable,
//!                     RequestCtx, Service, ServiceClient, ServiceRunner};
//! use amoeba_net::Network;
//! use bytes::Bytes;
//!
//! struct Counter { table: ObjectTable<u64> }
//!
//! impl Counter {
//!     const COMMANDS: &'static [Command<Self>] = &[
//!         Command::anonymous(0, Self::create),             // CREATE
//!         Command::new(1, Rights::WRITE, Self::increment), // INCREMENT
//!     ];
//!
//!     fn create(&self, _: &Request, _: Rights) -> Result<Bytes, Status> {
//!         let (_, cap) = self.table.create(0);
//!         Ok(wire::Writer::new().cap(&cap).finish())
//!     }
//!
//!     fn increment(&self, req: &Request, need: Rights) -> Result<Bytes, Status> {
//!         let n = self.table.with_object_mut(&req.cap, need, |n| { *n += 1; *n })?;
//!         Ok(wire::Writer::new().u64(n).finish())
//!     }
//! }
//!
//! impl Service for Counter {
//!     fn bind(&mut self, put_port: amoeba_net::Port) {
//!         self.table.set_port(put_port); // minted caps carry our port
//!     }
//!     fn handle(&self, req: &Request, _ctx: &RequestCtx) -> Reply {
//!         dispatch(self, &self.table, Self::COMMANDS, req)
//!     }
//! }
//!
//! let net = Network::new();
//! let table = ObjectTable::unbound(SchemeKind::Commutative.instantiate());
//! let runner = ServiceRunner::spawn_open(&net, Counter { table });
//! let client = ServiceClient::open(&net);
//!
//! let reply = client.call_anonymous(runner.put_port(), 0, bytes::Bytes::new()).unwrap();
//! let cap = wire::Reader::new(&reply).cap().unwrap();
//! let body = client.call(&cap, 1, bytes::Bytes::new()).unwrap();
//! assert_eq!(wire::Reader::new(&body).u64().unwrap(), 1);
//! runner.stop();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod command;
mod locks;
pub mod migrate;
pub mod principals;
pub mod proto;
pub mod rights_check;
pub mod sealed;
mod service;
mod sim_pump;
mod table;
pub mod wire;

pub use command::{dispatch, Command, Handler};
pub use locks::{ObjectLocks, DEFAULT_OBJECT_LOCK_STRIPES};
pub use migrate::{MigrateData, ShardDisposition, ShardHost, ShardMigrator};
pub use principals::PrincipalRegistry;
pub use sealed::SealedServiceClient;
pub use service::{ClientError, RequestCtx, Service, ServiceClient, ServiceRunner};
pub use sim_pump::SimPump;
pub use table::{placement_range, ObjectTable, ServerError, DEFAULT_SHARDS};
