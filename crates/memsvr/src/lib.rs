//! The Amoeba **memory server** (§3.1).
//!
//! "The memory server is a process that manages physical memory and
//! processes at the lowest level. It is actually part of the kernel
//! present on each machine, but it communicates with other processes via
//! the normal message protocol so that its clients do not perceive it as
//! being special in any way."
//!
//! A parent builds a child process by CREATE SEGMENT + WRITE for each of
//! the child's segments (text, data, stack), then MAKE PROCESS with the
//! segment capabilities; the returned **process capability** starts,
//! stops and generally manipulates the child. Directing the CREATE
//! SEGMENT requests at a *remote* machine's memory server creates the
//! child there — "a more convenient and efficient interface than the
//! traditional FORK + EXEC" (E11 in `examples/paper_report.rs`).
//!
//! The same segment API doubles as the paper's **electronic disk**: a
//! segment of the required size, read and written by local or remote
//! processes (see `examples/process_loader.rs`).
//!
//! # Example
//!
//! ```
//! use amoeba_cap::schemes::SchemeKind;
//! use amoeba_memsvr::{MemClient, MemServer, ProcState};
//! use amoeba_net::Network;
//! use amoeba_server::ServiceRunner;
//!
//! let net = Network::new();
//! let runner = ServiceRunner::spawn_open(&net, MemServer::new(SchemeKind::Commutative));
//! let mem = MemClient::open(&net, runner.put_port());
//!
//! let text = mem.create_segment(4096).unwrap();
//! mem.write(&text, 0, b"\x7fELF...").unwrap();
//! let stack = mem.create_segment(8192).unwrap();
//! let proc_cap = mem.make_process(&[text, stack]).unwrap();
//! mem.start(&proc_cap).unwrap();
//! assert_eq!(mem.status(&proc_cap).unwrap(), ProcState::Running);
//! runner.stop();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use amoeba_cap::schemes::SchemeKind;
use amoeba_cap::{Capability, Rights};
use amoeba_net::{Network, Port};
use amoeba_server::proto::{Reply, Request, Status};
use amoeba_server::{
    dispatch, wire, ClientError, Command, ObjectTable, RequestCtx, Service, ServiceClient,
};
use bytes::Bytes;
use std::sync::atomic::{AtomicU64, Ordering};

/// Memory-server operation codes. What each needs of the presented
/// capability is declared once, in the server's command table.
pub mod ops {
    /// CREATE SEGMENT. Params: `u64 size`. Reply: capability.
    pub const CREATE_SEGMENT: u32 = 1;
    /// READ from a segment. Params: `u64 offset`, `u32 len`.
    pub const READ: u32 = 2;
    /// WRITE (load data) into a segment. Params: `u64 offset`, bytes.
    pub const WRITE: u32 = 3;
    /// Segment size. Reply: `u64`.
    pub const SIZE: u32 = 4;
    /// Delete a segment.
    pub const DELETE_SEGMENT: u32 = 5;
    /// MAKE PROCESS. Params: `u32 n`, then n segment capabilities.
    /// Reply: process capability.
    pub const MAKE_PROCESS: u32 = 6;
    /// Start a (constructed or stopped) process.
    pub const START: u32 = 7;
    /// Stop a running process.
    pub const STOP: u32 = 8;
    /// Process state. Reply: `u32` (see [`ProcState`]).
    ///
    /// [`ProcState`]: super::ProcState
    pub const STATUS: u32 = 9;
    /// Kill a process and free its slot.
    pub const KILL: u32 = 10;
}

/// Lifecycle of a simulated process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u32)]
pub enum ProcState {
    /// Built but never started.
    Constructed = 0,
    /// Running.
    Running = 1,
    /// Stopped (may be restarted).
    Stopped = 2,
}

impl ProcState {
    /// Parses the wire form.
    pub fn from_u32(v: u32) -> Option<ProcState> {
        match v {
            0 => Some(ProcState::Constructed),
            1 => Some(ProcState::Running),
            2 => Some(ProcState::Stopped),
            _ => None,
        }
    }
}

#[derive(Debug)]
enum MemObject {
    Segment(Vec<u8>),
    Process {
        segments: Vec<Capability>,
        state: ProcState,
    },
}

/// The memory server.
#[derive(Debug)]
pub struct MemServer {
    table: ObjectTable<MemObject>,
    /// Total bytes of segment memory this server will hand out.
    memory_limit: u64,
    /// Bytes currently handed out; atomic because CREATE/DELETE run on
    /// concurrent dispatch workers.
    allocated: AtomicU64,
}

impl MemServer {
    const COMMANDS: &'static [Command<Self>] = &[
        Command::anonymous(ops::CREATE_SEGMENT, Self::create_segment),
        Command::new(ops::READ, Rights::READ, Self::read),
        Command::new(ops::WRITE, Rights::WRITE, Self::write),
        Command::new(ops::SIZE, Rights::READ, Self::size),
        Command::new(ops::DELETE_SEGMENT, Rights::DELETE, Self::delete),
        Command::anonymous(ops::MAKE_PROCESS, Self::make_process),
        Command::new(ops::START, Rights::WRITE, Self::start),
        Command::new(ops::STOP, Rights::WRITE, Self::stop),
        Command::new(ops::STATUS, Rights::READ, Self::status),
        Command::new(ops::KILL, Rights::DELETE, Self::delete),
    ];

    /// A server with a 256 MiB simulated physical memory.
    pub fn new(scheme: SchemeKind) -> MemServer {
        Self::with_memory(scheme, 256 << 20)
    }

    /// A server with an explicit memory limit.
    pub fn with_memory(scheme: SchemeKind, memory_limit: u64) -> MemServer {
        MemServer {
            table: ObjectTable::unbound(scheme.instantiate()),
            memory_limit,
            allocated: AtomicU64::new(0),
        }
    }

    fn create_segment(&self, req: &Request, _: Rights) -> Result<Bytes, Status> {
        let size = wire::Reader::new(&req.params)
            .u64()
            .ok_or(Status::BadRequest)?;
        // Atomically reserve the memory: concurrent CREATEs must never
        // overshoot the limit between check and commit.
        let limit = self.memory_limit;
        self.allocated
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |cur| {
                cur.checked_add(size).filter(|&next| next <= limit)
            })
            .map_err(|_| Status::NoSpace)?;
        let (_, cap) = self
            .table
            .create(MemObject::Segment(vec![0; size as usize]));
        Ok(wire::Writer::new().cap(&cap).finish())
    }

    fn read(&self, req: &Request, need: Rights) -> Result<Bytes, Status> {
        let mut r = wire::Reader::new(&req.params);
        let (Some(offset), Some(len)) = (r.u64(), r.u32()) else {
            return Err(Status::BadRequest);
        };
        let result = self.table.with_object(&req.cap, need, |obj| match obj {
            MemObject::Segment(data) => {
                let end = (offset as usize).checked_add(len as usize)?;
                if end > data.len() {
                    return None;
                }
                Some(Bytes::copy_from_slice(&data[offset as usize..end]))
            }
            MemObject::Process { .. } => None,
        });
        result?.ok_or(Status::OutOfRange)
    }

    fn write(&self, req: &Request, need: Rights) -> Result<Bytes, Status> {
        let mut r = wire::Reader::new(&req.params);
        let (Some(offset), Some(data)) = (r.u64(), r.bytes()) else {
            return Err(Status::BadRequest);
        };
        let result = self.table.with_object_mut(&req.cap, need, |obj| match obj {
            MemObject::Segment(seg) => {
                let end = (offset as usize).checked_add(data.len())?;
                if end > seg.len() {
                    return None;
                }
                seg[offset as usize..end].copy_from_slice(data);
                Some(())
            }
            MemObject::Process { .. } => None,
        });
        result?.ok_or(Status::OutOfRange)?;
        Ok(Bytes::new())
    }

    fn size(&self, req: &Request, need: Rights) -> Result<Bytes, Status> {
        let result = self.table.with_object(&req.cap, need, |obj| match obj {
            MemObject::Segment(data) => Some(data.len() as u64),
            MemObject::Process { .. } => None,
        });
        let size = result?.ok_or(Status::BadRequest)?;
        Ok(wire::Writer::new().u64(size).finish())
    }

    /// DELETE_SEGMENT and KILL alike: whatever the object is, it goes,
    /// and a segment's memory returns to the pool.
    fn delete(&self, req: &Request, need: Rights) -> Result<Bytes, Status> {
        if let MemObject::Segment(data) = self.table.delete(&req.cap, need)? {
            self.allocated
                .fetch_sub(data.len() as u64, Ordering::AcqRel);
        }
        Ok(Bytes::new())
    }

    fn make_process(&self, req: &Request, _: Rights) -> Result<Bytes, Status> {
        let mut r = wire::Reader::new(&req.params);
        let n = r.u32().ok_or(Status::BadRequest)?;
        let mut segments = Vec::with_capacity(n as usize);
        for _ in 0..n {
            segments.push(r.cap().ok_or(Status::BadRequest)?);
        }
        // Every segment capability must be genuine, on this server, and
        // grant at least READ (the child's memory image is loaded from
        // them).
        for cap in &segments {
            let segment = self.table.with_object(cap, Rights::READ, |obj| {
                matches!(obj, MemObject::Segment(_))
            })?;
            if !segment {
                return Err(Status::BadRequest);
            }
        }
        let (_, cap) = self.table.create(MemObject::Process {
            segments,
            state: ProcState::Constructed,
        });
        Ok(wire::Writer::new().cap(&cap).finish())
    }

    fn start(&self, req: &Request, need: Rights) -> Result<Bytes, Status> {
        self.set_state(req, need, ProcState::Running)
    }

    fn stop(&self, req: &Request, need: Rights) -> Result<Bytes, Status> {
        self.set_state(req, need, ProcState::Stopped)
    }

    fn set_state(&self, req: &Request, need: Rights, target: ProcState) -> Result<Bytes, Status> {
        let result = self.table.with_object_mut(&req.cap, need, |obj| match obj {
            MemObject::Process { state, .. } => {
                let legal = matches!(
                    (*state, target),
                    (ProcState::Constructed, ProcState::Running)
                        | (ProcState::Stopped, ProcState::Running)
                        | (ProcState::Running, ProcState::Stopped)
                );
                if legal {
                    *state = target;
                }
                Some(legal)
            }
            MemObject::Segment(_) => None,
        });
        if !result?.ok_or(Status::BadRequest)? {
            return Err(Status::Conflict);
        }
        Ok(Bytes::new())
    }

    fn status(&self, req: &Request, need: Rights) -> Result<Bytes, Status> {
        let result = self.table.with_object(&req.cap, need, |obj| match obj {
            MemObject::Process { state, segments } => Some((*state as u32, segments.len() as u32)),
            MemObject::Segment(_) => None,
        });
        let (state, segments) = result?.ok_or(Status::BadRequest)?;
        Ok(wire::Writer::new().u32(state).u32(segments).finish())
    }
}

impl Service for MemServer {
    fn bind(&mut self, put_port: Port) {
        self.table.set_port(put_port);
    }

    fn handle(&self, req: &Request, _ctx: &RequestCtx) -> Reply {
        dispatch(self, &self.table, Self::COMMANDS, req)
    }
}

/// A typed client for the memory server.
#[derive(Debug)]
pub struct MemClient {
    svc: ServiceClient,
    port: Port,
}

impl MemClient {
    /// A client on a fresh open-interface machine.
    pub fn open(net: &Network, port: Port) -> MemClient {
        MemClient {
            svc: ServiceClient::open(net),
            port,
        }
    }

    /// A client over an existing [`ServiceClient`].
    pub fn with_service(svc: ServiceClient, port: Port) -> MemClient {
        MemClient { svc, port }
    }

    /// The server's put-port.
    pub fn port(&self) -> Port {
        self.port
    }

    /// CREATE SEGMENT of `size` zeroed bytes.
    ///
    /// # Errors
    /// `NoSpace` past the server's memory limit.
    pub fn create_segment(&self, size: u64) -> Result<Capability, ClientError> {
        let body = self.svc.call_anonymous(
            self.port,
            ops::CREATE_SEGMENT,
            wire::Writer::new().u64(size).finish(),
        )?;
        wire::Reader::new(&body).cap().ok_or(ClientError::Malformed)
    }

    /// Reads `len` bytes at `offset` from a segment.
    ///
    /// # Errors
    /// `OutOfRange` beyond the segment; rights/validation errors.
    pub fn read(&self, seg: &Capability, offset: u64, len: u32) -> Result<Vec<u8>, ClientError> {
        let body = self.svc.call(
            seg,
            ops::READ,
            wire::Writer::new().u64(offset).u32(len).finish(),
        )?;
        Ok(body.to_vec())
    }

    /// Loads `data` into a segment at `offset`.
    ///
    /// # Errors
    /// `OutOfRange` beyond the segment; rights/validation errors.
    pub fn write(&self, seg: &Capability, offset: u64, data: &[u8]) -> Result<(), ClientError> {
        self.svc.call(
            seg,
            ops::WRITE,
            wire::Writer::new().u64(offset).bytes(data).finish(),
        )?;
        Ok(())
    }

    /// The segment's size in bytes.
    ///
    /// # Errors
    /// Rights/validation errors.
    pub fn size(&self, seg: &Capability) -> Result<u64, ClientError> {
        let body = self.svc.call(seg, ops::SIZE, Bytes::new())?;
        wire::Reader::new(&body).u64().ok_or(ClientError::Malformed)
    }

    /// Frees a segment.
    ///
    /// # Errors
    /// Rights/validation errors.
    pub fn delete_segment(&self, seg: &Capability) -> Result<(), ClientError> {
        self.svc.call(seg, ops::DELETE_SEGMENT, Bytes::new())?;
        Ok(())
    }

    /// MAKE PROCESS from already-loaded segments.
    ///
    /// # Errors
    /// `BadRequest` if any capability is not a readable segment on this
    /// server.
    pub fn make_process(&self, segments: &[Capability]) -> Result<Capability, ClientError> {
        let mut w = wire::Writer::new().u32(segments.len() as u32);
        for seg in segments {
            w = w.cap(seg);
        }
        let body = self
            .svc
            .call_anonymous(self.port, ops::MAKE_PROCESS, w.finish())?;
        wire::Reader::new(&body).cap().ok_or(ClientError::Malformed)
    }

    /// Starts the process.
    ///
    /// # Errors
    /// `Conflict` if already running; rights/validation errors.
    pub fn start(&self, proc_cap: &Capability) -> Result<(), ClientError> {
        self.svc.call(proc_cap, ops::START, Bytes::new())?;
        Ok(())
    }

    /// Stops the process.
    ///
    /// # Errors
    /// `Conflict` unless running; rights/validation errors.
    pub fn stop(&self, proc_cap: &Capability) -> Result<(), ClientError> {
        self.svc.call(proc_cap, ops::STOP, Bytes::new())?;
        Ok(())
    }

    /// The process's lifecycle state.
    ///
    /// # Errors
    /// Rights/validation errors.
    pub fn status(&self, proc_cap: &Capability) -> Result<ProcState, ClientError> {
        Ok(self.status_full(proc_cap)?.0)
    }

    /// The process's state together with its segment count.
    ///
    /// # Errors
    /// Rights/validation errors.
    pub fn status_full(&self, proc_cap: &Capability) -> Result<(ProcState, u32), ClientError> {
        let body = self.svc.call(proc_cap, ops::STATUS, Bytes::new())?;
        let mut r = wire::Reader::new(&body);
        let raw = r.u32().ok_or(ClientError::Malformed)?;
        let nsegs = r.u32().ok_or(ClientError::Malformed)?;
        let state = ProcState::from_u32(raw).ok_or(ClientError::Malformed)?;
        Ok((state, nsegs))
    }

    /// Kills the process.
    ///
    /// # Errors
    /// Rights/validation errors.
    pub fn kill(&self, proc_cap: &Capability) -> Result<(), ClientError> {
        self.svc.call(proc_cap, ops::KILL, Bytes::new())?;
        Ok(())
    }

    /// Access to the generic capability operations.
    pub fn service(&self) -> &ServiceClient {
        &self.svc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amoeba_server::ServiceRunner;

    fn setup() -> (Network, ServiceRunner, MemClient) {
        let net = Network::new();
        let runner = ServiceRunner::spawn_open(&net, MemServer::new(SchemeKind::OneWay));
        let client = MemClient::open(&net, runner.put_port());
        (net, runner, client)
    }

    #[test]
    fn segment_load_and_readback() {
        let (_n, runner, mem) = setup();
        let seg = mem.create_segment(1024).unwrap();
        assert_eq!(mem.size(&seg).unwrap(), 1024);
        mem.write(&seg, 100, b"text section").unwrap();
        assert_eq!(&mem.read(&seg, 100, 12).unwrap(), b"text section");
        runner.stop();
    }

    #[test]
    fn segment_bounds_enforced() {
        let (_n, runner, mem) = setup();
        let seg = mem.create_segment(16).unwrap();
        assert_eq!(
            mem.write(&seg, 10, b"too much data").unwrap_err(),
            ClientError::Status(Status::OutOfRange)
        );
        assert_eq!(
            mem.read(&seg, 0, 17).unwrap_err(),
            ClientError::Status(Status::OutOfRange)
        );
        runner.stop();
    }

    #[test]
    fn memory_limit_enforced_and_reclaimed() {
        let net = Network::new();
        let runner =
            ServiceRunner::spawn_open(&net, MemServer::with_memory(SchemeKind::Simple, 1000));
        let mem = MemClient::open(&net, runner.put_port());
        let a = mem.create_segment(600).unwrap();
        assert_eq!(
            mem.create_segment(600).unwrap_err(),
            ClientError::Status(Status::NoSpace)
        );
        mem.delete_segment(&a).unwrap();
        assert!(mem.create_segment(600).is_ok());
        runner.stop();
    }

    #[test]
    fn full_process_lifecycle() {
        let (_n, runner, mem) = setup();
        let text = mem.create_segment(128).unwrap();
        let data = mem.create_segment(64).unwrap();
        let stack = mem.create_segment(256).unwrap();
        mem.write(&text, 0, b"code").unwrap();
        let p = mem.make_process(&[text, data, stack]).unwrap();
        assert_eq!(mem.status(&p).unwrap(), ProcState::Constructed);
        mem.start(&p).unwrap();
        assert_eq!(mem.status(&p).unwrap(), ProcState::Running);
        // Double start is a state conflict.
        assert_eq!(
            mem.start(&p).unwrap_err(),
            ClientError::Status(Status::Conflict)
        );
        mem.stop(&p).unwrap();
        assert_eq!(mem.status(&p).unwrap(), ProcState::Stopped);
        mem.start(&p).unwrap();
        mem.kill(&p).unwrap();
        assert!(mem.status(&p).is_err());
        runner.stop();
    }

    #[test]
    fn make_process_rejects_bogus_segments() {
        let (_n, runner, mem) = setup();
        let real = mem.create_segment(8).unwrap();
        let forged = real.with_check(real.check ^ 1);
        assert!(matches!(
            mem.make_process(&[real, forged]).unwrap_err(),
            ClientError::Status(Status::Forged)
        ));
        runner.stop();
    }

    #[test]
    fn make_process_rejects_write_only_segments() {
        // Segments must be readable to be loadable into a child.
        let (_n, runner, mem) = setup();
        let seg = mem.create_segment(8).unwrap();
        let wo = mem.service().restrict(&seg, Rights::WRITE).unwrap();
        assert_eq!(
            mem.make_process(&[wo]).unwrap_err(),
            ClientError::Status(Status::RightsViolation)
        );
        runner.stop();
    }

    #[test]
    fn process_cap_cannot_be_read_as_segment() {
        let (_n, runner, mem) = setup();
        let seg = mem.create_segment(8).unwrap();
        let p = mem.make_process(&[seg]).unwrap();
        assert_eq!(
            mem.read(&p, 0, 1).unwrap_err(),
            ClientError::Status(Status::OutOfRange)
        );
        assert_eq!(
            mem.size(&p).unwrap_err(),
            ClientError::Status(Status::BadRequest)
        );
        runner.stop();
    }

    #[test]
    fn electronic_disk_usage() {
        // "An electronic disk of the required size is created using
        // CREATE SEGMENT, and then can be read and written."
        let (net, runner, mem) = setup();
        let disk = mem.create_segment(64 * 1024).unwrap();
        mem.write(&disk, 4096, b"sector data").unwrap();
        // A *different* (remote) process reads it back.
        let other = MemClient::open(&net, mem.port());
        assert_eq!(&other.read(&disk, 4096, 11).unwrap(), b"sector data");
        runner.stop();
    }

    #[test]
    fn every_command_refuses_a_capability_lacking_its_rights() {
        use amoeba_server::rights_check::{assert_rights_enforced, Probe};
        let (_n, runner, mem) = setup();
        let segment = |params: Bytes| {
            let seg = mem.create_segment(16).unwrap();
            mem.write(&seg, 0, b"text").unwrap();
            (seg, params)
        };
        let read = || segment(wire::Writer::new().u64(0).u32(4).finish());
        let write = || segment(wire::Writer::new().u64(1).bytes(b"x").finish());
        let bare = || segment(Bytes::new());
        let process = |running: bool| {
            let p = mem.make_process(&[segment(Bytes::new()).0]).unwrap();
            if running {
                mem.start(&p).unwrap();
            }
            (p, Bytes::new())
        };
        let built = || process(false);
        let running = || process(true);
        assert_rights_enforced(
            mem.service(),
            MemServer::COMMANDS,
            &[
                Probe::new(ops::READ, Rights::READ, &read),
                Probe::new(ops::WRITE, Rights::WRITE, &write),
                Probe::new(ops::SIZE, Rights::READ, &bare),
                Probe::new(ops::DELETE_SEGMENT, Rights::DELETE, &bare),
                Probe::new(ops::START, Rights::WRITE, &built),
                Probe::new(ops::STOP, Rights::WRITE, &running),
                Probe::new(ops::STATUS, Rights::READ, &built),
                Probe::new(ops::KILL, Rights::DELETE, &built),
            ],
            |cap| (mem.read(cap, 0, 16), mem.status_full(cap)),
        );
        runner.stop();
    }
}
