//! **Amoeba sparse capabilities** — a full Rust reproduction of
//! Tanenbaum, Mullender & van Renesse, *"Using Sparse Capabilities in a
//! Distributed Operating System"* (ICDCS 1986).
//!
//! This facade crate re-exports every subsystem under one roof and hosts
//! the repository's examples and cross-crate integration tests. See the
//! README for the architecture tour, `docs/ARCHITECTURE.md` for the
//! paper-to-module map, and `examples/paper_report.rs` for the
//! reproduced figures/claims (its header lists F1…E11 with the paper
//! section each reproduces).
//!
//! # The 30-second tour
//!
//! ```
//! use amoeba::prelude::*;
//!
//! // A network where every machine sits behind an F-box (§2.2).
//! let net = Network::new();
//!
//! // A file service protected by commutative one-way functions (§2.3).
//! let server = FlatFsServer::new(SchemeKind::Commutative);
//! let runner = ServiceRunner::spawn_fbox(&net, server);
//! let fs = FlatFsClient::with_service(ServiceClient::fbox(&net), runner.put_port());
//!
//! // Create a file, write, and delegate read-only *without the server*.
//! let cap = fs.create().unwrap();
//! fs.write(&cap, 0, b"capabilities are just bits").unwrap();
//! let scheme = CommutativeScheme::standard();
//! let read_only = scheme.diminish(&cap, Rights::ALL.without(Rights::READ)).unwrap();
//! assert_eq!(&fs.read(&read_only, 0, 12).unwrap(), b"capabilities");
//! assert!(fs.write(&read_only, 0, b"x").is_err());
//! runner.stop();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use amoeba_bank as bank;
pub use amoeba_block as block;
pub use amoeba_cap as cap;
pub use amoeba_cluster as cluster;
pub use amoeba_crypto as crypto;
pub use amoeba_dirsvr as dirsvr;
pub use amoeba_fbox as fbox;
pub use amoeba_flatfs as flatfs;
pub use amoeba_memsvr as memsvr;
pub use amoeba_mvfs as mvfs;
pub use amoeba_net as net;
pub use amoeba_obs as obs;
pub use amoeba_rpc as rpc;
pub use amoeba_server as server;
pub use amoeba_softprot as softprot;
pub use amoeba_unixfs as unixfs;

/// One-stop imports for applications.
pub mod prelude {
    pub use amoeba_bank::{BankClient, BankServer, Currency, CurrencyId};
    pub use amoeba_block::{BlockClient, BlockServer, DiskConfig, DiskStats};
    pub use amoeba_cap::schemes::{
        CommutativeScheme, EncryptedScheme, ObjectSecret, OneWayScheme, ProtectionScheme,
        SchemeKind, SimpleScheme,
    };
    pub use amoeba_cap::{CapError, Capability, ObjectNum, Rights};
    pub use amoeba_cluster::{
        ClusterClient, ElasticClient, ElasticCluster, HealthProber, MigrateError, MigrationStats,
        Rebalancer, ServiceCluster, ShardMigration, SimReplicaSet,
    };
    pub use amoeba_crypto::oneway::{OneWay, PurdyOneWay, ShaOneWay};
    pub use amoeba_crypto::SecretStream;
    pub use amoeba_dirsvr::{CapCache, DirClient, DirServer, PathError};
    pub use amoeba_fbox::FBox;
    pub use amoeba_flatfs::{BlockFlatFsServer, FlatFsClient, FlatFsServer, QuotaPolicy};
    pub use amoeba_memsvr::{MemClient, MemServer, ProcState};
    pub use amoeba_mvfs::{MvfsClient, MvfsServer};
    pub use amoeba_net::{
        ActorPoll, BufPool, Clock, CrashWindow, Endpoint, FaultCounters, FaultPlan, Header,
        HotPathSnapshot, MachineId, Network, PartitionWindow, Port, Reactor, SimClock, SimExecutor,
        SimStall, StatsSnapshot, Timestamp, WallClock,
    };
    pub use amoeba_obs::{EventKind, FlightEvent, Metrics, MetricsSnapshot, Obs};
    pub use amoeba_rpc::{Client, Locator, Matchmaker, RendezvousNode, RpcConfig, ServerPort};
    pub use amoeba_server::proto::{Reply, Request, Status};
    pub use amoeba_server::{
        ClientError, ObjectLocks, ObjectTable, PrincipalRegistry, RequestCtx, SealedServiceClient,
        Service, ServiceClient, ServiceRunner, SimPump,
    };
    pub use amoeba_softprot::{
        CapSealer, ClientSession, KeyMatrix, MachineKeys, SealedCap, SecureLink, ServerBoot,
    };
    pub use amoeba_unixfs::{UnixFsClient, UnixFsServer};
}
