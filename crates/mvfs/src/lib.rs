//! The Amoeba **multiversion file server** (§3.5).
//!
//! "Each file consists of a tree of pages ... a user can ask to make a
//! new version of a file, which results in a capability for the new
//! version. The new version acts like it is a page-by-page copy of the
//! original, although in fact, pages are only copied when they are
//! changed. The new version can be modified at will, and then atomically
//! 'committed', thus becoming the new file. A file is thus a sequence of
//! versions. Once a version of a file has been committed, it cannot be
//! modified." (Designed for write-once media.)
//!
//! Commit uses the **optimistic concurrency control** of the cited
//! Mullender–Tanenbaum 1982 report: a version remembers which committed
//! state it was derived from; if another version committed in the
//! meantime, COMMIT answers `Conflict` and the client must re-derive.
//!
//! Copy-on-write is per page via `Arc` sharing; `version_info` exposes
//! how many pages a version still shares with the file head, which the
//! E9 table of `examples/paper_report.rs` reports.
//!
//! # Example
//!
//! ```
//! use amoeba_cap::schemes::SchemeKind;
//! use amoeba_mvfs::{MvfsClient, MvfsServer};
//! use amoeba_net::Network;
//! use amoeba_server::ServiceRunner;
//!
//! let net = Network::new();
//! let runner = ServiceRunner::spawn_open(&net, MvfsServer::new(SchemeKind::Commutative));
//! let fs = MvfsClient::open(&net, runner.put_port());
//!
//! let file = fs.create_file().unwrap();
//! let v1 = fs.new_version(&file).unwrap();
//! fs.write_page(&v1, 0, b"draft one").unwrap();
//! fs.commit(&v1).unwrap();
//! assert_eq!(fs.read_page(&file, 0).unwrap()[..9], *b"draft one");
//! runner.stop();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use amoeba_cap::schemes::SchemeKind;
use amoeba_cap::{Capability, ObjectNum, Rights};
use amoeba_net::{Network, Port};
use amoeba_server::proto::{Reply, Request, Status};
use amoeba_server::{
    dispatch, wire, ClientError, Command, ObjectTable, RequestCtx, Service, ServiceClient,
};
use bytes::Bytes;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

/// Multiversion-file-server operation codes. What each needs of the
/// presented capability is declared once, in the server's command
/// table.
pub mod ops {
    /// Create an empty file. Reply: file capability.
    pub const CREATE_FILE: u32 = 1;
    /// Derive a new (uncommitted) version of the file. Reply: version
    /// capability.
    pub const NEW_VERSION: u32 = 2;
    /// Read one page (file cap: head; version cap: that version).
    /// Params: `u32 page`. Reply: page bytes.
    pub const READ_PAGE: u32 = 3;
    /// Write one page of an uncommitted version. Params: `u32 page`,
    /// bytes (≤ page size).
    pub const WRITE_PAGE: u32 = 4;
    /// Atomically commit a version. `Conflict` if the file advanced
    /// since the version was derived.
    pub const COMMIT: u32 = 5;
    /// File info. Reply: `u64 committed_versions`, `u32 pages`.
    pub const FILE_INFO: u32 = 6;
    /// Version info. Reply: `u64 base_version`, `u32 committed`,
    /// `u32 pages`, `u32 pages_shared_with_head`.
    pub const VERSION_INFO: u32 = 7;
    /// Destroy a file and its history.
    pub const DESTROY: u32 = 8;
    /// The server's page size. Reply: `u32`.
    pub const PAGE_SIZE: u32 = 9;
}

type Page = Arc<Vec<u8>>;

#[derive(Debug)]
enum MvObject {
    File {
        head: Vec<Page>,
        committed_versions: u64,
    },
    Version {
        parent: ObjectNum,
        pages: Vec<Page>,
        base_version: u64,
        committed: bool,
    },
}

/// Summary of a file, from [`MvfsClient::file_info`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileInfo {
    /// How many versions have been committed.
    pub committed_versions: u64,
    /// Pages in the head version.
    pub pages: u32,
}

/// Summary of a version, from [`MvfsClient::version_info`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VersionInfo {
    /// The committed version count this version was derived from.
    pub base_version: u64,
    /// Whether the version has been committed (immutable).
    pub committed: bool,
    /// Pages in this version.
    pub pages: u32,
    /// Pages physically shared with the file's current head (the
    /// copy-on-write payoff).
    pub shared_with_head: u32,
}

/// The multiversion file server.
#[derive(Debug)]
pub struct MvfsServer {
    table: ObjectTable<MvObject>,
    page_size: usize,
}

impl MvfsServer {
    const COMMANDS: &'static [Command<Self>] = &[
        Command::anonymous(ops::CREATE_FILE, Self::create_file),
        Command::new(ops::NEW_VERSION, Rights::WRITE, Self::new_version),
        Command::new(ops::READ_PAGE, Rights::READ, Self::read_page),
        Command::new(ops::WRITE_PAGE, Rights::WRITE, Self::write_page),
        Command::new(ops::COMMIT, Rights::WRITE, Self::commit),
        Command::new(ops::FILE_INFO, Rights::READ, Self::file_info),
        Command::new(ops::VERSION_INFO, Rights::READ, Self::version_info),
        Command::new(ops::DESTROY, Rights::DELETE, Self::destroy),
        Command::anonymous(ops::PAGE_SIZE, Self::page_size),
    ];

    /// A server with 1 KiB pages.
    pub fn new(scheme: SchemeKind) -> MvfsServer {
        Self::with_page_size(scheme, 1024)
    }

    /// A server with explicit page size.
    ///
    /// # Panics
    /// Panics if `page_size` is zero.
    pub fn with_page_size(scheme: SchemeKind, page_size: usize) -> MvfsServer {
        assert!(page_size > 0, "page size must be nonzero");
        MvfsServer {
            table: ObjectTable::unbound(scheme.instantiate()),
            page_size,
        }
    }

    fn create_file(&self, _: &Request, _: Rights) -> Result<Bytes, Status> {
        let (_, cap) = self.table.create(MvObject::File {
            head: Vec::new(),
            committed_versions: 0,
        });
        Ok(wire::Writer::new().cap(&cap).finish())
    }

    fn new_version(&self, req: &Request, need: Rights) -> Result<Bytes, Status> {
        // Snapshot the parent head (deriving a version is a
        // mutation-intent operation).
        let parent_obj = req.cap.object;
        let snapshot = self.table.with_object(&req.cap, need, |obj| match obj {
            MvObject::File {
                head,
                committed_versions,
            } => Some((head.clone(), *committed_versions)),
            MvObject::Version { .. } => None,
        });
        let (pages, base_version) = snapshot?.ok_or(Status::BadRequest)?;
        let (_, cap) = self.table.create(MvObject::Version {
            parent: parent_obj,
            pages,
            base_version,
            committed: false,
        });
        Ok(wire::Writer::new().cap(&cap).finish())
    }

    fn read_page(&self, req: &Request, need: Rights) -> Result<Bytes, Status> {
        let page = wire::Reader::new(&req.params)
            .u32()
            .ok_or(Status::BadRequest)?;
        let result = self.table.with_object(&req.cap, need, |obj| {
            let pages = match obj {
                MvObject::File { head, .. } => head,
                MvObject::Version { pages, .. } => pages,
            };
            pages.get(page as usize).map(|p| Bytes::copy_from_slice(p))
        });
        result?.ok_or(Status::OutOfRange)
    }

    fn write_page(&self, req: &Request, need: Rights) -> Result<Bytes, Status> {
        let mut r = wire::Reader::new(&req.params);
        let (Some(page), Some(data)) = (r.u32(), r.bytes()) else {
            return Err(Status::BadRequest);
        };
        if data.len() > self.page_size {
            return Err(Status::OutOfRange);
        }
        let page_size = self.page_size;
        let result = self.table.with_object_mut(&req.cap, need, |obj| match obj {
            MvObject::Version {
                pages, committed, ..
            } => {
                if *committed {
                    // Write-once: committed versions are immutable.
                    return Some(false);
                }
                let idx = page as usize;
                if idx >= pages.len() {
                    pages.resize_with(idx + 1, || Arc::new(vec![0u8; page_size]));
                }
                let mut fresh = vec![0u8; page_size];
                fresh[..data.len()].copy_from_slice(data);
                pages[idx] = Arc::new(fresh); // the actual copy-on-write
                Some(true)
            }
            MvObject::File { .. } => None,
        });
        if !result?.ok_or(Status::BadRequest)? {
            return Err(Status::Conflict);
        }
        Ok(Bytes::new())
    }

    fn commit(&self, req: &Request, need: Rights) -> Result<Bytes, Status> {
        // Read the version state (must be uncommitted and writable).
        let version = self.table.with_object(&req.cap, need, |obj| match obj {
            MvObject::Version {
                parent,
                pages,
                base_version,
                committed,
            } => Some((*parent, pages.clone(), *base_version, *committed)),
            MvObject::File { .. } => None,
        });
        let (parent, pages, base_version, committed) = version?.ok_or(Status::BadRequest)?;
        if committed {
            return Err(Status::Conflict);
        }
        // Optimistic concurrency: install only if nobody else committed
        // since this version was derived.
        let installed = self.table.with_data_mut(parent, |obj| match obj {
            MvObject::File {
                head,
                committed_versions,
            } => {
                if *committed_versions != base_version {
                    false
                } else {
                    *head = pages.clone();
                    *committed_versions += 1;
                    true
                }
            }
            MvObject::Version { .. } => false,
        });
        // `None`: the parent was destroyed.
        if !installed.ok_or(Status::NoSuchObject)? {
            return Err(Status::Conflict);
        }
        // Seal the version object.
        let _ = self.table.with_object_mut(&req.cap, need, |obj| {
            if let MvObject::Version { committed, .. } = obj {
                *committed = true;
            }
        });
        Ok(Bytes::new())
    }

    fn file_info(&self, req: &Request, need: Rights) -> Result<Bytes, Status> {
        let result = self.table.with_object(&req.cap, need, |obj| match obj {
            MvObject::File {
                head,
                committed_versions,
            } => Some((*committed_versions, head.len() as u32)),
            MvObject::Version { .. } => None,
        });
        let (versions, pages) = result?.ok_or(Status::BadRequest)?;
        Ok(wire::Writer::new().u64(versions).u32(pages).finish())
    }

    fn version_info(&self, req: &Request, need: Rights) -> Result<Bytes, Status> {
        let version = self.table.with_object(&req.cap, need, |obj| match obj {
            MvObject::Version {
                parent,
                pages,
                base_version,
                committed,
            } => Some((*parent, pages.clone(), *base_version, *committed)),
            MvObject::File { .. } => None,
        });
        let (parent, pages, base_version, committed) = version?.ok_or(Status::BadRequest)?;
        let shared = self
            .table
            .with_data(parent, |obj| match obj {
                MvObject::File { head, .. } => pages
                    .iter()
                    .zip(head.iter())
                    .filter(|(a, b)| Arc::ptr_eq(a, b))
                    .count() as u32,
                MvObject::Version { .. } => 0,
            })
            .unwrap_or(0);
        Ok(wire::Writer::new()
            .u64(base_version)
            .u32(committed as u32)
            .u32(pages.len() as u32)
            .u32(shared)
            .finish())
    }

    fn destroy(&self, req: &Request, need: Rights) -> Result<Bytes, Status> {
        self.table.delete(&req.cap, need)?;
        Ok(Bytes::new())
    }

    fn page_size(&self, _: &Request, _: Rights) -> Result<Bytes, Status> {
        Ok(wire::Writer::new().u32(self.page_size as u32).finish())
    }
}

impl Service for MvfsServer {
    fn bind(&mut self, put_port: Port) {
        self.table.set_port(put_port);
    }

    fn handle(&self, req: &Request, _ctx: &RequestCtx) -> Reply {
        dispatch(self, &self.table, Self::COMMANDS, req)
    }
}

/// A typed client for the multiversion file server.
#[derive(Debug)]
pub struct MvfsClient {
    svc: ServiceClient,
    port: Port,
    /// The server's page size, learned once and reused — geometry is
    /// immutable, so every later ranged read/write saves a round-trip.
    /// 0 = not yet fetched.
    cached_page_size: AtomicU32,
}

impl MvfsClient {
    /// A client on a fresh open-interface machine.
    pub fn open(net: &Network, port: Port) -> MvfsClient {
        MvfsClient {
            svc: ServiceClient::open(net),
            port,
            cached_page_size: AtomicU32::new(0),
        }
    }

    /// A client over an existing [`ServiceClient`].
    pub fn with_service(svc: ServiceClient, port: Port) -> MvfsClient {
        MvfsClient {
            svc,
            port,
            cached_page_size: AtomicU32::new(0),
        }
    }

    /// Creates an empty multiversion file.
    ///
    /// # Errors
    /// Transport errors.
    pub fn create_file(&self) -> Result<Capability, ClientError> {
        let body = self
            .svc
            .call_anonymous(self.port, ops::CREATE_FILE, Bytes::new())?;
        wire::Reader::new(&body).cap().ok_or(ClientError::Malformed)
    }

    /// Derives a new uncommitted version (cheap: pages are shared until
    /// written).
    ///
    /// # Errors
    /// Rights/validation errors.
    pub fn new_version(&self, file: &Capability) -> Result<Capability, ClientError> {
        let body = self.svc.call(file, ops::NEW_VERSION, Bytes::new())?;
        wire::Reader::new(&body).cap().ok_or(ClientError::Malformed)
    }

    /// Reads page `page` (head pages through a file capability, version
    /// pages through a version capability).
    ///
    /// # Errors
    /// `OutOfRange` past the last page.
    pub fn read_page(&self, cap: &Capability, page: u32) -> Result<Vec<u8>, ClientError> {
        let body = self
            .svc
            .call(cap, ops::READ_PAGE, wire::Writer::new().u32(page).finish())?;
        Ok(body.to_vec())
    }

    /// Writes page `page` of an uncommitted version (data padded with
    /// zeros to the page size).
    ///
    /// # Errors
    /// `Conflict` on a committed version; `OutOfRange` if data exceeds
    /// the page size.
    pub fn write_page(
        &self,
        version: &Capability,
        page: u32,
        data: &[u8],
    ) -> Result<(), ClientError> {
        self.svc.call(
            version,
            ops::WRITE_PAGE,
            wire::Writer::new().u32(page).bytes(data).finish(),
        )?;
        Ok(())
    }

    /// Atomically commits the version.
    ///
    /// # Errors
    /// `Conflict` if another version committed first (optimistic
    /// concurrency) or the version was already committed.
    pub fn commit(&self, version: &Capability) -> Result<(), ClientError> {
        self.svc.call(version, ops::COMMIT, Bytes::new())?;
        Ok(())
    }

    /// File summary.
    ///
    /// # Errors
    /// Rights/validation errors.
    pub fn file_info(&self, file: &Capability) -> Result<FileInfo, ClientError> {
        let body = self.svc.call(file, ops::FILE_INFO, Bytes::new())?;
        let mut r = wire::Reader::new(&body);
        match (r.u64(), r.u32()) {
            (Some(committed_versions), Some(pages)) => Ok(FileInfo {
                committed_versions,
                pages,
            }),
            _ => Err(ClientError::Malformed),
        }
    }

    /// Version summary including copy-on-write sharing.
    ///
    /// # Errors
    /// Rights/validation errors.
    pub fn version_info(&self, version: &Capability) -> Result<VersionInfo, ClientError> {
        let body = self.svc.call(version, ops::VERSION_INFO, Bytes::new())?;
        let mut r = wire::Reader::new(&body);
        match (r.u64(), r.u32(), r.u32(), r.u32()) {
            (Some(base_version), Some(committed), Some(pages), Some(shared)) => Ok(VersionInfo {
                base_version,
                committed: committed != 0,
                pages,
                shared_with_head: shared,
            }),
            _ => Err(ClientError::Malformed),
        }
    }

    /// Destroys a file or version object.
    ///
    /// # Errors
    /// Rights/validation errors.
    pub fn destroy(&self, cap: &Capability) -> Result<(), ClientError> {
        self.svc.call(cap, ops::DESTROY, Bytes::new())?;
        Ok(())
    }

    /// The server's page size in bytes — fetched once, then answered
    /// from a local atomic (page size is fixed server geometry).
    ///
    /// # Errors
    /// Transport errors (first call only).
    pub fn page_size(&self) -> Result<u32, ClientError> {
        let cached = self.cached_page_size.load(Ordering::Acquire);
        if cached != 0 {
            return Ok(cached);
        }
        let body = self
            .svc
            .call_anonymous(self.port, ops::PAGE_SIZE, Bytes::new())?;
        let size = wire::Reader::new(&body)
            .u32()
            .ok_or(ClientError::Malformed)?;
        self.cached_page_size.store(size, Ordering::Release);
        Ok(size)
    }

    /// Convenience: reads `len` bytes at byte `offset`, spanning pages.
    /// Reads past the last page are truncated.
    ///
    /// # Errors
    /// Rights/validation errors.
    pub fn read_range(
        &self,
        cap: &Capability,
        offset: u64,
        len: u32,
    ) -> Result<Vec<u8>, ClientError> {
        let page_size = self.page_size()? as u64;
        let mut out = Vec::with_capacity(len as usize);
        let mut pos = offset;
        let end = offset + len as u64;
        while pos < end {
            let page = (pos / page_size) as u32;
            let within = (pos % page_size) as usize;
            let take = ((page_size as usize - within) as u64).min(end - pos) as usize;
            match self.read_page(cap, page) {
                Ok(data) => out.extend_from_slice(&data[within..within + take]),
                Err(ClientError::Status(Status::OutOfRange)) => break, // past EOF
                Err(e) => return Err(e),
            }
            pos += take as u64;
        }
        Ok(out)
    }

    /// Convenience: writes `data` at byte `offset` into an uncommitted
    /// version, spanning pages (read-modify-write at the edges).
    ///
    /// # Errors
    /// Rights/validation errors; `Conflict` on a committed version.
    pub fn write_range(
        &self,
        version: &Capability,
        offset: u64,
        data: &[u8],
    ) -> Result<(), ClientError> {
        let page_size = self.page_size()? as usize;
        let mut pos = offset as usize;
        let mut remaining = data;
        while !remaining.is_empty() {
            let page = (pos / page_size) as u32;
            let within = pos % page_size;
            let take = (page_size - within).min(remaining.len());
            let mut buf = match self.read_page(version, page) {
                Ok(existing) => existing,
                Err(ClientError::Status(Status::OutOfRange)) => vec![0u8; page_size],
                Err(e) => return Err(e),
            };
            buf.resize(page_size, 0);
            buf[within..within + take].copy_from_slice(&remaining[..take]);
            self.write_page(version, page, &buf)?;
            pos += take;
            remaining = &remaining[take..];
        }
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

    fn setup() -> (Network, ServiceRunner, MvfsClient) {
        let net = Network::new();
        let runner = ServiceRunner::spawn_open(&net, MvfsServer::new(SchemeKind::Commutative));
        let client = MvfsClient::open(&net, runner.put_port());
        (net, runner, client)
    }

    #[test]
    fn version_commit_becomes_head() {
        let (_n, runner, fs) = setup();
        let file = fs.create_file().unwrap();
        assert_eq!(fs.file_info(&file).unwrap().committed_versions, 0);
        let v = fs.new_version(&file).unwrap();
        fs.write_page(&v, 0, b"page zero").unwrap();
        fs.write_page(&v, 2, b"page two").unwrap();
        // Until commit the file head is unchanged.
        assert_eq!(fs.file_info(&file).unwrap().pages, 0);
        fs.commit(&v).unwrap();
        let info = fs.file_info(&file).unwrap();
        assert_eq!(info.committed_versions, 1);
        assert_eq!(info.pages, 3);
        assert_eq!(&fs.read_page(&file, 0).unwrap()[..9], b"page zero");
        // The hole page is zero-filled.
        assert!(fs.read_page(&file, 1).unwrap().iter().all(|&b| b == 0));
        runner.stop();
    }

    #[test]
    fn committed_version_is_immutable() {
        let (_n, runner, fs) = setup();
        let file = fs.create_file().unwrap();
        let v = fs.new_version(&file).unwrap();
        fs.write_page(&v, 0, b"final").unwrap();
        fs.commit(&v).unwrap();
        assert_eq!(
            fs.write_page(&v, 0, b"sneaky edit").unwrap_err(),
            ClientError::Status(Status::Conflict)
        );
        assert_eq!(
            fs.commit(&v).unwrap_err(),
            ClientError::Status(Status::Conflict)
        );
        // But still readable: a version is a durable snapshot.
        assert_eq!(&fs.read_page(&v, 0).unwrap()[..5], b"final");
        runner.stop();
    }

    #[test]
    fn optimistic_concurrency_conflict() {
        let (_n, runner, fs) = setup();
        let file = fs.create_file().unwrap();
        let v1 = fs.new_version(&file).unwrap();
        let v2 = fs.new_version(&file).unwrap();
        fs.write_page(&v1, 0, b"first writer").unwrap();
        fs.write_page(&v2, 0, b"second writer").unwrap();
        fs.commit(&v1).unwrap();
        // v2 was derived from the same base; it must lose.
        assert_eq!(
            fs.commit(&v2).unwrap_err(),
            ClientError::Status(Status::Conflict)
        );
        assert_eq!(&fs.read_page(&file, 0).unwrap()[..12], b"first writer");
        // Re-derive and retry: now it works.
        let v3 = fs.new_version(&file).unwrap();
        fs.write_page(&v3, 0, b"second writer").unwrap();
        fs.commit(&v3).unwrap();
        runner.stop();
    }

    #[test]
    fn copy_on_write_shares_untouched_pages() {
        let (_n, runner, fs) = setup();
        let file = fs.create_file().unwrap();
        // Build a 16-page committed file.
        let v = fs.new_version(&file).unwrap();
        for p in 0..16 {
            fs.write_page(&v, p, format!("page {p}").as_bytes())
                .unwrap();
        }
        fs.commit(&v).unwrap();
        // New version, touch a single page.
        let v2 = fs.new_version(&file).unwrap();
        let before = fs.version_info(&v2).unwrap();
        assert_eq!(before.pages, 16);
        assert_eq!(before.shared_with_head, 16, "all pages shared initially");
        fs.write_page(&v2, 7, b"modified").unwrap();
        let after = fs.version_info(&v2).unwrap();
        assert_eq!(after.shared_with_head, 15, "exactly one page copied");
        runner.stop();
    }

    #[test]
    fn old_version_snapshot_survives_new_commits() {
        let (_n, runner, fs) = setup();
        let file = fs.create_file().unwrap();
        let v1 = fs.new_version(&file).unwrap();
        fs.write_page(&v1, 0, b"v1 content").unwrap();
        fs.commit(&v1).unwrap();
        let v2 = fs.new_version(&file).unwrap();
        fs.write_page(&v2, 0, b"v2 content").unwrap();
        fs.commit(&v2).unwrap();
        // The v1 capability still reads the old snapshot.
        assert_eq!(&fs.read_page(&v1, 0).unwrap()[..10], b"v1 content");
        assert_eq!(&fs.read_page(&file, 0).unwrap()[..10], b"v2 content");
        runner.stop();
    }

    #[test]
    fn oversized_page_write_rejected() {
        let net = Network::new();
        let runner =
            ServiceRunner::spawn_open(&net, MvfsServer::with_page_size(SchemeKind::Simple, 16));
        let fs = MvfsClient::open(&net, runner.put_port());
        let file = fs.create_file().unwrap();
        let v = fs.new_version(&file).unwrap();
        assert_eq!(
            fs.write_page(&v, 0, &[0u8; 17]).unwrap_err(),
            ClientError::Status(Status::OutOfRange)
        );
        runner.stop();
    }

    #[test]
    fn read_only_file_cap_cannot_derive_versions() {
        let (_n, runner, fs) = setup();
        let file = fs.create_file().unwrap();
        let ro = fs.service().restrict(&file, Rights::READ).unwrap();
        assert_eq!(
            fs.new_version(&ro).unwrap_err(),
            ClientError::Status(Status::RightsViolation)
        );
        runner.stop();
    }

    #[test]
    fn byte_range_helpers_span_pages() {
        let net = Network::new();
        let runner = ServiceRunner::spawn_open(
            &net,
            MvfsServer::with_page_size(SchemeKind::Commutative, 64),
        );
        let fs = MvfsClient::open(&net, runner.put_port());
        assert_eq!(fs.page_size().unwrap(), 64);

        let file = fs.create_file().unwrap();
        let v = fs.new_version(&file).unwrap();
        // 200 bytes starting at byte 40: touches pages 0..=3.
        let data: Vec<u8> = (0..200u8).collect();
        fs.write_range(&v, 40, &data).unwrap();
        assert_eq!(fs.read_range(&v, 40, 200).unwrap(), data);
        // Unaligned inner read.
        assert_eq!(fs.read_range(&v, 100, 10).unwrap(), data[60..70]);
        // The write preserved untouched bytes of the first page.
        assert!(fs.read_range(&v, 0, 40).unwrap().iter().all(|&b| b == 0));
        fs.commit(&v).unwrap();
        assert_eq!(fs.read_range(&file, 40, 200).unwrap(), data);
        runner.stop();
    }

    #[test]
    fn page_size_is_fetched_once() {
        let (net, runner, fs) = setup();
        let first = fs.page_size().unwrap();
        let before = net.stats().snapshot().packets_sent;
        assert_eq!(fs.page_size().unwrap(), first);
        assert_eq!(
            net.stats().snapshot().packets_sent,
            before,
            "repeat geometry queries must be answered locally"
        );
        runner.stop();
    }

    #[test]
    fn commit_against_destroyed_file_fails() {
        let (_n, runner, fs) = setup();
        let file = fs.create_file().unwrap();
        let v = fs.new_version(&file).unwrap();
        fs.write_page(&v, 0, b"orphan").unwrap();
        fs.destroy(&file).unwrap();
        assert_eq!(
            fs.commit(&v).unwrap_err(),
            ClientError::Status(Status::NoSuchObject)
        );
        runner.stop();
    }

    #[test]
    fn every_command_refuses_a_capability_lacking_its_rights() {
        use amoeba_server::rights_check::{assert_rights_enforced, Probe};
        let (_n, runner, fs) = setup();
        let file = || {
            let file = fs.create_file().unwrap();
            let v = fs.new_version(&file).unwrap();
            fs.write_page(&v, 0, b"page zero").unwrap();
            fs.commit(&v).unwrap();
            file
        };
        let version = || fs.new_version(&file()).unwrap();
        let page = || wire::Writer::new().u32(0).finish();
        let on_file = || (file(), Bytes::new());
        let read_file = || (file(), page());
        let on_version = || (version(), Bytes::new());
        let write_page = || (version(), wire::Writer::new().u32(0).bytes(b"x").finish());
        assert_rights_enforced(
            fs.service(),
            MvfsServer::COMMANDS,
            &[
                Probe::new(ops::NEW_VERSION, Rights::WRITE, &on_file),
                Probe::new(ops::READ_PAGE, Rights::READ, &read_file),
                Probe::new(ops::WRITE_PAGE, Rights::WRITE, &write_page),
                Probe::new(ops::COMMIT, Rights::WRITE, &on_version),
                Probe::new(ops::FILE_INFO, Rights::READ, &on_file),
                Probe::new(ops::VERSION_INFO, Rights::READ, &on_version),
                Probe::new(ops::DESTROY, Rights::DELETE, &on_file),
            ],
            |cap| {
                (
                    fs.file_info(cap),
                    fs.version_info(cap),
                    fs.read_page(cap, 0),
                )
            },
        );
        runner.stop();
    }
}
