//! The Amoeba **directory server** (§3.4).
//!
//! "The directory server manages directories, each of which is a set of
//! (ASCII name, capability) pairs." Lookup takes a directory capability
//! and a name and returns the stored capability — which may name a file
//! on any server, or a directory **managed by a different directory
//! server**: "Unless the client compared the SERVER fields in the two
//! capabilities, it wouldn't even notice that succeeding requests were
//! going to different servers. The distribution is completely
//! transparent."
//!
//! [`DirClient::walk`] implements exactly that client-side path walk:
//! each step routes to the port in the capability returned by the
//! previous step. [`DirClient::resolve`] is the fast path over the
//! same namespace: one `RESOLVE` frame per *hop-chain* — the server
//! walks every locally-owned segment itself and hands back either the
//! final capability or the capability at the first cross-server
//! boundary, where the client resumes — plus an optional client-side
//! [`CapCache`], keyed by parent directory: a repeated resolution costs
//! no frame at all, and a *sibling* of a resolved leaf costs one
//! single-segment frame, because the reply also names the directory
//! the leaf was found in.
//!
//! # Example
//!
//! ```
//! use amoeba_cap::schemes::SchemeKind;
//! use amoeba_dirsvr::{DirClient, DirServer};
//! use amoeba_net::Network;
//! use amoeba_server::ServiceRunner;
//!
//! let net = Network::new();
//! let runner = ServiceRunner::spawn_open(&net, DirServer::new(SchemeKind::Commutative));
//! let dirs = DirClient::open(&net, runner.put_port());
//!
//! let root = dirs.create_dir().unwrap();
//! let home = dirs.create_dir().unwrap();
//! dirs.enter(&root, "home", &home).unwrap();
//! let found = dirs.lookup(&root, "home").unwrap();
//! assert_eq!(found.object, home.object);
//! runner.stop();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;

pub use cache::CapCache;

use amoeba_cap::schemes::SchemeKind;
use amoeba_cap::{Capability, Rights};
use amoeba_net::{EventKind, Network, Port, Timestamp};
use amoeba_server::proto::{Reply, Request, Status};
use amoeba_server::{
    dispatch, wire, ClientError, Command, ObjectTable, RequestCtx, Service, ServiceClient,
};
use bytes::Bytes;
use std::collections::BTreeMap;
use std::time::Duration;

/// Directory-server operation codes. What each needs of the presented
/// capability is declared once, in the server's command table.
pub mod ops {
    /// Create an empty directory. Reply: capability.
    pub const CREATE: u32 = 1;
    /// Look up a name. Params: `str`. Reply: capability.
    pub const LOOKUP: u32 = 2;
    /// Enter a (name, capability) pair. Params: `str`, `cap`.
    /// `Conflict` if the name exists.
    pub const ENTER: u32 = 3;
    /// Remove an entry. Params: `str`.
    pub const REMOVE: u32 = 4;
    /// List names. Reply: `u32 n`, then n `str`s.
    pub const LIST: u32 = 5;
    /// Delete the (empty) directory. `Conflict` if not empty.
    pub const DELETE_DIR: u32 = 6;
    /// Rename an entry. Params: `str from`, `str to`.
    /// `NotFound` if `from` is absent, `Conflict` if `to` exists.
    pub const RENAME: u32 = 7;
    /// Resolve a multi-component `/`-separated path in one frame; every
    /// directory walked must grant what the command needs of the
    /// presented capability. Params: `str path`.
    /// The server walks segments as long as each intermediate
    /// capability names an object it serves itself, then stops.
    ///
    /// The reply is always `Status::Ok` at the envelope level with a
    /// structured body — `u32 consumed`, `u32 status`, and (when
    /// `status` is `Ok`) the capability reached, then the capability
    /// of the directory its name was found in — so the client learns
    /// *how far* the walk got even on failure, which a bare error
    /// status could not carry. `consumed < total segments` with an
    /// `Ok` status is the cross-server handoff: the client resumes at
    /// the returned capability's port.
    ///
    /// The parent is the request capability when one segment was
    /// consumed and otherwise the stored entry the walk just read —
    /// what `LOOKUP`, segment by segment, would have returned, never a
    /// capability minted for the reply.
    pub const RESOLVE: u32 = 8;
}

type Directory = BTreeMap<String, Capability>;

/// The directory server.
#[derive(Debug)]
pub struct DirServer {
    table: ObjectTable<Directory>,
}

impl DirServer {
    const COMMANDS: &'static [Command<Self>] = &[
        Command::anonymous(ops::CREATE, Self::create),
        Command::new(ops::LOOKUP, Rights::READ, Self::lookup),
        Command::new(ops::ENTER, Rights::WRITE, Self::enter),
        Command::new(ops::REMOVE, Rights::WRITE, Self::remove),
        Command::new(ops::LIST, Rights::READ, Self::list),
        Command::new(ops::DELETE_DIR, Rights::DELETE, Self::delete_dir),
        Command::new(ops::RENAME, Rights::WRITE, Self::rename),
        Command::new(ops::RESOLVE, Rights::READ, Self::resolve),
    ];

    /// A server with no directories yet.
    pub fn new(scheme: SchemeKind) -> DirServer {
        DirServer {
            table: ObjectTable::unbound(scheme.instantiate()),
        }
    }

    fn create(&self, _: &Request, _: Rights) -> Result<Bytes, Status> {
        let (_, cap) = self.table.create(Directory::new());
        Ok(wire::Writer::new().cap(&cap).finish())
    }

    fn lookup(&self, req: &Request, need: Rights) -> Result<Bytes, Status> {
        // `str_ref`: the name is only compared, never kept — the reply
        // path stays free of stray heap copies (PR 5 pooling audit).
        let name = wire::Reader::new(&req.params)
            .str_ref()
            .ok_or(Status::BadRequest)?;
        let found = self
            .table
            .with_object(&req.cap, need, |d| d.get(name).copied())?;
        let cap = found.ok_or(Status::NotFound)?;
        Ok(wire::Writer::new().cap(&cap).finish())
    }

    fn enter(&self, req: &Request, need: Rights) -> Result<Bytes, Status> {
        let mut r = wire::Reader::new(&req.params);
        let (Some(name), Some(cap)) = (r.str_ref(), r.cap()) else {
            return Err(Status::BadRequest);
        };
        if name.is_empty() || name.contains('/') {
            return Err(Status::BadRequest);
        }
        let entered = self.table.with_object_mut(&req.cap, need, |d| {
            if d.contains_key(name) {
                false
            } else {
                // The only copy: the directory owns the stored name.
                d.insert(name.to_owned(), cap);
                true
            }
        })?;
        if !entered {
            return Err(Status::Conflict);
        }
        Ok(Bytes::new())
    }

    fn remove(&self, req: &Request, need: Rights) -> Result<Bytes, Status> {
        let name = wire::Reader::new(&req.params)
            .str_ref()
            .ok_or(Status::BadRequest)?;
        if !self
            .table
            .with_object_mut(&req.cap, need, |d| d.remove(name).is_some())?
        {
            return Err(Status::NotFound);
        }
        Ok(Bytes::new())
    }

    fn list(&self, req: &Request, need: Rights) -> Result<Bytes, Status> {
        Ok(self.table.with_object(&req.cap, need, |d| {
            let mut w = wire::Writer::new().u32(d.len() as u32);
            for name in d.keys() {
                w = w.str(name);
            }
            w.finish()
        })?)
    }

    fn rename(&self, req: &Request, need: Rights) -> Result<Bytes, Status> {
        let mut r = wire::Reader::new(&req.params);
        let (Some(from), Some(to)) = (r.str_ref(), r.str_ref()) else {
            return Err(Status::BadRequest);
        };
        if to.is_empty() || to.contains('/') {
            return Err(Status::BadRequest);
        }
        self.table.with_object_mut(&req.cap, need, |d| {
            if from == to {
                return if d.contains_key(from) {
                    Ok(())
                } else {
                    Err(Status::NotFound)
                };
            }
            if d.contains_key(to) {
                return Err(Status::Conflict);
            }
            match d.remove(from) {
                Some(cap) => {
                    d.insert(to.to_owned(), cap);
                    Ok(())
                }
                None => Err(Status::NotFound),
            }
        })??;
        Ok(Bytes::new())
    }

    /// Encodes the RESOLVE reply body: how far the walk got, what
    /// stopped it (or `Ok`), and — if it got anywhere — the capability
    /// reached and the directory it was found in. Always an `Ok`
    /// envelope: a bare error status cannot carry `consumed`.
    fn resolve_reply(
        consumed: u32,
        status: Status,
        found: Option<(&Capability, &Capability)>,
    ) -> Result<Bytes, Status> {
        let mut w = wire::Writer::new().u32(consumed).u32(status as u32);
        if let Some((cap, parent)) = found {
            w = w.cap(cap).cap(parent);
        }
        Ok(w.finish())
    }

    /// The server half of the batched path walk: consume as many
    /// segments as name objects on *this* server, then either finish
    /// or hand the chain off at the first foreign capability. Every
    /// directory walked must grant `need`.
    fn resolve(&self, req: &Request, need: Rights) -> Result<Bytes, Status> {
        let path = wire::Reader::new(&req.params)
            .str_ref()
            .ok_or(Status::BadRequest)?;
        let own_port = self.table.port();
        let mut current = req.cap;
        let mut consumed = 0u32;
        let mut segs = segments(path).peekable();
        if segs.peek().is_none() {
            // An empty path still validates the starting capability,
            // which is then both what was reached and where.
            return match self.table.with_object(&req.cap, need, |_| ()) {
                Ok(()) => Self::resolve_reply(0, Status::Ok, Some((&req.cap, &req.cap))),
                Err(e) => Self::resolve_reply(0, e.into(), None),
            };
        }
        while let Some(segment) = segs.next() {
            let found = self
                .table
                .with_object(&current, need, |d| d.get(segment).copied());
            match found {
                Ok(Some(cap)) => {
                    consumed += 1;
                    if segs.peek().is_none() || cap.port != own_port {
                        // Done — or the chain crosses to another
                        // server and the client resumes there. Either
                        // way `current` is where `segment` was found:
                        // the request capability, or an entry read on
                        // the way here.
                        return Self::resolve_reply(consumed, Status::Ok, Some((&cap, &current)));
                    }
                    current = cap;
                }
                Ok(None) => return Self::resolve_reply(consumed, Status::NotFound, None),
                Err(e) => return Self::resolve_reply(consumed, e.into(), None),
            }
        }
        unreachable!("the loop returns on the last segment");
    }

    fn delete_dir(&self, req: &Request, need: Rights) -> Result<Bytes, Status> {
        // Refuse to delete non-empty directories.
        if !self.table.with_object(&req.cap, need, |d| d.is_empty())? {
            return Err(Status::Conflict);
        }
        self.table.delete(&req.cap, need)?;
        Ok(Bytes::new())
    }
}

impl Service for DirServer {
    fn bind(&mut self, put_port: Port) {
        self.table.set_port(put_port);
    }

    fn handle(&self, req: &Request, _ctx: &RequestCtx) -> Reply {
        dispatch(self, &self.table, Self::COMMANDS, req)
    }
}

/// A path operation failed at a specific segment: [`DirClient::walk`]
/// and [`DirClient::resolve`] both report *which* component broke the
/// chain, not just that something did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathError {
    /// 0-based index of the failing segment among the path's
    /// non-empty segments.
    pub index: usize,
    /// The failing segment's text (empty if the reply was malformed
    /// beyond locating one).
    pub segment: String,
    /// What went wrong there.
    pub error: ClientError,
}

impl std::fmt::Display for PathError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "path segment {} ({:?}): {}",
            self.index, self.segment, self.error
        )
    }
}

impl std::error::Error for PathError {}

impl From<PathError> for ClientError {
    fn from(e: PathError) -> ClientError {
        e.error
    }
}

/// The segments of a `/`-separated path; empty ones do not count.
fn segments(path: &str) -> impl Iterator<Item = &str> {
    path.split('/').filter(|s| !s.is_empty())
}

/// Builds a [`PathError`] for segment `index` of `path`.
fn path_error(path: &str, index: usize, error: ClientError) -> PathError {
    let segment = segments(path).nth(index).unwrap_or_default().to_owned();
    PathError {
        index,
        segment,
        error,
    }
}

/// Splits `path` after its first `n` non-empty segments, returning
/// `(consumed_prefix, remainder)`.
fn split_after_segments(path: &str, n: usize) -> (&str, &str) {
    if n == 0 {
        return ("", path);
    }
    let mut seen = 0usize;
    let mut in_segment = false;
    for (i, b) in path.bytes().enumerate() {
        if b == b'/' {
            if in_segment {
                seen += 1;
                if seen == n {
                    return (&path[..i], &path[i..]);
                }
                in_segment = false;
            }
        } else {
            in_segment = true;
        }
    }
    (path, "")
}

/// What one `RESOLVE` reply says of a walk that got somewhere.
struct Hop {
    /// Segments of the request's path the server consumed (≥ 1).
    consumed: usize,
    /// The capability the last of them names.
    cap: Capability,
    /// The directory that segment was found in.
    parent: Capability,
}

/// A typed client for directory servers.
///
/// Note the client is *not* bound to one server: every operation routes
/// to the port inside the directory capability, so a path walk hops
/// between servers transparently.
///
/// With [`with_cache`](Self::with_cache), lookups and resolutions
/// consult a local [`CapCache`] first: hits cost zero frames, zero
/// heap allocations and zero locks. The cache is TTL-bounded against
/// *other* clients' mutations and invalidated eagerly against this
/// client's own (`remove`, `rename`, observed `NotFound`s) — on every
/// thread that shares the client: an answer is cached under the cache
/// generation read before its request went out, and a mutation ends
/// that generation when its reply arrives, so a lookup that was in
/// flight across a `remove` is not served after it. What the TTL
/// bounds is a stale *answer*; a stale *error* does not exist — a
/// resolve that fails below a cached directory asks again from its
/// root before it reports.
#[derive(Debug)]
pub struct DirClient {
    svc: ServiceClient,
    default_port: Port,
    cache: Option<CapCache>,
}

impl DirClient {
    /// A client on a fresh open-interface machine. `default_port` is
    /// only used for [`create_dir`](Self::create_dir), which has no
    /// capability to route by.
    pub fn open(net: &Network, default_port: Port) -> DirClient {
        DirClient {
            svc: ServiceClient::open(net),
            default_port,
            cache: None,
        }
    }

    /// A client over an existing [`ServiceClient`].
    pub fn with_service(svc: ServiceClient, default_port: Port) -> DirClient {
        DirClient {
            svc,
            default_port,
            cache: None,
        }
    }

    /// Enables the client-side capability cache with entries living
    /// `ttl` of timeline time. Opt-in: a cached client may serve a
    /// name up to `ttl` stale against another client's rename/remove.
    #[must_use]
    pub fn with_cache(mut self, ttl: Duration) -> DirClient {
        self.cache = Some(CapCache::new(ttl));
        self
    }

    /// The cache, if enabled.
    pub fn cache(&self) -> Option<&CapCache> {
        self.cache.as_ref()
    }

    /// The network's current timeline time (TTLs ride the shared clock).
    fn now(&self) -> Timestamp {
        self.svc.rpc().endpoint().now()
    }

    /// The cache, if enabled, with the one clock reading that every
    /// probe and insert of an operation shares. Read before anything is
    /// asked, so an entry's TTL starts no later than its answer.
    fn cached(&self) -> Option<(&CapCache, Timestamp)> {
        self.cache.as_ref().map(|cache| (cache, self.now()))
    }

    /// The cache generation a request about to be sent is asked in;
    /// its answer is cached under this one, whatever happens meanwhile.
    fn generation(&self) -> u64 {
        self.cache.as_ref().map_or(0, CapCache::generation)
    }

    /// Ends the cache generation once a mutation's reply is in, on
    /// success and on error (an error does not say the server did
    /// nothing). Not a targeted kill: directories are memoised under
    /// composite keys the name may be a segment of. After the reply,
    /// not before the request: everything cached so far dies either
    /// way, and so does an answer another thread asked for before the
    /// mutation and records after it.
    fn end_generation(&self) {
        if let Some(cache) = &self.cache {
            cache.clear();
        }
    }

    /// Creates an empty directory on the default server.
    ///
    /// # Errors
    /// Transport errors.
    pub fn create_dir(&self) -> Result<Capability, ClientError> {
        self.create_dir_on(self.default_port)
    }

    /// Creates an empty directory on an explicit server.
    ///
    /// # Errors
    /// Transport errors.
    pub fn create_dir_on(&self, port: Port) -> Result<Capability, ClientError> {
        let body = self.svc.call_anonymous(port, ops::CREATE, Bytes::new())?;
        wire::Reader::new(&body).cap().ok_or(ClientError::Malformed)
    }

    /// One name in one directory, through the cache — the step
    /// [`lookup`](Self::lookup) is and [`resolve`](Self::resolve) ends
    /// on, owned once: probe; else `ask` the directory's server and
    /// record what it said — an answer under the generation read before
    /// asking, a `NotFound` as a kill.
    fn single(
        &self,
        dir: &Capability,
        name: &str,
        cached: Option<(&CapCache, Timestamp)>,
        ask: impl FnOnce() -> Result<Capability, ClientError>,
    ) -> Result<Capability, ClientError> {
        let Some((cache, now)) = cached else {
            return ask();
        };
        if let Some(cap) = cache.probe(dir, name, now) {
            return Ok(cap);
        }
        let asked_in = cache.generation();
        let result = ask();
        match &result {
            Ok(cap) => cache.insert_under(asked_in, dir, name, cap, now),
            Err(ClientError::Status(Status::NotFound)) => cache.invalidate(dir, name),
            Err(_) => {}
        }
        result
    }

    /// Looks `name` up in `dir` (routed to `dir.port`). With a cache
    /// enabled, a live cached entry answers without any frame.
    ///
    /// # Errors
    /// `NotFound`, rights/validation errors.
    pub fn lookup(&self, dir: &Capability, name: &str) -> Result<Capability, ClientError> {
        self.single(dir, name, self.cached(), || {
            self.svc
                .call(dir, ops::LOOKUP, wire::Writer::new().str(name).finish())
                .and_then(|body| wire::Reader::new(&body).cap().ok_or(ClientError::Malformed))
        })
    }

    /// Enters `(name, cap)` into `dir`.
    ///
    /// # Errors
    /// `Conflict` if the name exists; rights/validation errors.
    pub fn enter(&self, dir: &Capability, name: &str, cap: &Capability) -> Result<(), ClientError> {
        let cached = self.cached();
        let asked_in = self.generation();
        self.svc.call(
            dir,
            ops::ENTER,
            wire::Writer::new().str(name).cap(cap).finish(),
        )?;
        if let Some((cache, now)) = cached {
            cache.insert_under(asked_in, dir, name, cap, now);
        }
        Ok(())
    }

    /// Removes `name` from `dir`.
    ///
    /// # Errors
    /// `NotFound`; rights/validation errors.
    pub fn remove(&self, dir: &Capability, name: &str) -> Result<(), ClientError> {
        let result = self
            .svc
            .call(dir, ops::REMOVE, wire::Writer::new().str(name).finish());
        self.end_generation();
        result.map(drop)
    }

    /// Lists the names in `dir`.
    ///
    /// # Errors
    /// Rights/validation errors.
    pub fn list(&self, dir: &Capability) -> Result<Vec<String>, ClientError> {
        let body = self.svc.call(dir, ops::LIST, Bytes::new())?;
        let mut r = wire::Reader::new(&body);
        let n = r.u32().ok_or(ClientError::Malformed)?;
        let mut names = Vec::with_capacity(n as usize);
        for _ in 0..n {
            names.push(r.str().ok_or(ClientError::Malformed)?);
        }
        Ok(names)
    }

    /// Renames `from` to `to` within `dir`.
    ///
    /// # Errors
    /// `NotFound` if `from` is absent, `Conflict` if `to` exists;
    /// rights/validation errors.
    pub fn rename(&self, dir: &Capability, from: &str, to: &str) -> Result<(), ClientError> {
        let result = self.svc.call(
            dir,
            ops::RENAME,
            wire::Writer::new().str(from).str(to).finish(),
        );
        self.end_generation();
        result.map(drop)
    }

    /// Deletes an empty directory.
    ///
    /// # Errors
    /// `Conflict` if non-empty; rights/validation errors.
    pub fn delete_dir(&self, dir: &Capability) -> Result<(), ClientError> {
        self.svc.call(dir, ops::DELETE_DIR, Bytes::new())?;
        Ok(())
    }

    /// Walks a `/`-separated path from `root`, hopping servers as the
    /// stored capabilities dictate (§3.4's `a/b/c` example) — one RPC
    /// per component. Empty segments are ignored, so `"a//b/"` equals
    /// `"a/b"`. Prefer [`resolve`](Self::resolve), which covers each
    /// hop-chain in a single frame; `walk` remains the reference
    /// oracle the fast path is tested against.
    ///
    /// # Errors
    /// A [`PathError`] naming the failing segment: `NotFound`,
    /// rights/validation errors.
    pub fn walk(&self, root: &Capability, path: &str) -> Result<Capability, PathError> {
        let mut current = *root;
        for (index, segment) in segments(path).enumerate() {
            current = self.lookup(&current, segment).map_err(|error| PathError {
                index,
                segment: segment.to_owned(),
                error,
            })?;
        }
        Ok(current)
    }

    /// Resolves a `/`-separated path from `root` using the batched
    /// server-side walk: **one frame per hop-chain** instead of one
    /// per component. Each server consumes every segment it can serve
    /// locally; the client only resumes at genuine cross-server
    /// boundaries, exactly the transparency §3.4 describes.
    ///
    /// With a cache enabled the parent directory is what is remembered:
    /// the path's dirname is one entry under `root`, its last segment
    /// one entry under that directory. Both live — no frame. Only the
    /// leaf missing — one single-segment frame to the directory's own
    /// server, however deep it lies and however many servers the walk
    /// to it crossed. Otherwise the walk below, which records each
    /// hop's parent and leaf as the replies name them.
    ///
    /// Records an [`EventKind::PathResolve`] span event (operands:
    /// hops, segments consumed) under the first hop's trace id, so
    /// flight recordings show the resolution fan-out.
    ///
    /// # Errors
    /// A [`PathError`] naming the failing segment, in parity with
    /// [`walk`](Self::walk). An error met below a *cached* directory
    /// is not reported: another client may have replaced that directory
    /// inside the TTL, so its entry is killed and the path asked again
    /// from `root`, and that answer stands.
    pub fn resolve(&self, root: &Capability, path: &str) -> Result<Capability, PathError> {
        let endpoint = self.svc.rpc().endpoint();
        // Peeked *before* the first hop: the first transaction will
        // mint exactly this id, tying the PathResolve span event to
        // the hop-chain it summarises.
        let trace_hint = self.svc.rpc().trace_peek();
        let mut hops = 0u64;
        let cap = self.resolve_counting(root, path, &mut hops)?;
        // Neither the clock nor the path is read again for an event
        // nobody records.
        let obs = endpoint.obs();
        if obs.enabled() {
            let now = endpoint
                .now()
                .since_epoch()
                .as_nanos()
                .min(u64::MAX as u128) as u64;
            // A pure cache hit is not transaction-scoped (no trans
            // ran): trace 0 keeps it out of per-transaction spans.
            let trace = if hops == 0 { 0 } else { trace_hint };
            let consumed = segments(path).count() as u64;
            obs.record(EventKind::PathResolve, now, trace, hops, consumed);
        }
        Ok(cap)
    }

    /// [`resolve`](Self::resolve), counting the transactions it sends.
    fn resolve_counting(
        &self,
        root: &Capability,
        path: &str,
        hops: &mut u64,
    ) -> Result<Capability, PathError> {
        let (dirname, leaf) = cache::split_leaf(path);
        if leaf.is_empty() {
            // No segment at all: `root` names itself.
            return Ok(*root);
        }
        let cached = self.cached();
        if let Some((cache, now)) = cached {
            if let Some(parent) = cache.parent(root, dirname, now) {
                let step = self.single(&parent, leaf, cached, || {
                    *hops += 1;
                    self.resolve_hop(&parent, leaf)
                        .map(|hop| hop.cap)
                        .map_err(|(_, error)| error)
                });
                match step {
                    Ok(cap) => return Ok(cap),
                    // Hearsay: the directory came out of the cache.
                    Err(ClientError::Status(_)) if !dirname.is_empty() => {
                        cache.invalidate(root, dirname);
                    }
                    Err(error) => {
                        return Err(path_error(path, segments(dirname).count(), error));
                    }
                }
            }
        }

        // The walk from `root`, every answer fresh from its server.
        // One generation read covers every hop: the memo across hops
        // depends on all of them.
        let asked_in = self.generation();
        let (mut current, mut base) = (*root, 0usize);
        let mut rest = path.trim_start_matches('/');
        while !rest.is_empty() {
            *hops += 1;
            let hop = self
                .resolve_hop(&current, rest)
                .map_err(|(consumed, error)| path_error(path, base + consumed, error))?;
            let (prefix, after) = split_after_segments(rest, hop.consumed);
            let after = after.trim_start_matches('/');
            if let Some((cache, now)) = cached {
                let (to_parent, last) = cache::split_leaf(prefix);
                if !to_parent.is_empty() {
                    cache.insert_under(asked_in, &current, to_parent, &hop.parent, now);
                }
                cache.insert_under(asked_in, &hop.parent, last, &hop.cap, now);
                if after.is_empty() && base > 0 {
                    // The hop that finished started somewhere else, so
                    // nothing above ties the leaf's directory to
                    // `root`: one memo across hops, and the leaf's next
                    // sibling is a single frame.
                    cache.insert_under(asked_in, root, dirname, &hop.parent, now);
                }
            }
            base += hop.consumed;
            current = hop.cap;
            rest = after;
        }
        Ok(current)
    }

    /// One `RESOLVE` transaction: `rest` asked of `dir`'s server. An
    /// error says how many segments the server consumed before it.
    fn resolve_hop(&self, dir: &Capability, rest: &str) -> Result<Hop, (usize, ClientError)> {
        const MALFORMED: (usize, ClientError) = (0, ClientError::Malformed);
        let body = self
            .svc
            .call(dir, ops::RESOLVE, wire::Writer::new().str(rest).finish())
            .map_err(|error| (0, error))?;
        let mut r = wire::Reader::new(&body);
        let (Some(consumed), Some(status)) = (r.u32(), r.u32().and_then(Status::from_u32)) else {
            return Err(MALFORMED);
        };
        let consumed = consumed as usize;
        if status != Status::Ok {
            return Err((consumed, ClientError::Status(status)));
        }
        let (Some(cap), Some(parent)) = (r.cap(), r.cap()) else {
            return Err(MALFORMED);
        };
        if consumed == 0 {
            // A server consuming nothing on a non-empty path would
            // loop the client forever; treat it as a broken reply.
            return Err(MALFORMED);
        }
        if parent.port != dir.port || (consumed == 1 && parent != *dir) {
            // A server walks only what it serves, so the directory its
            // last step was in is one of its own — the one asked, one
            // step in. Entries get cached *under* this capability: a
            // server must not be able to name a directory elsewhere.
            return Err(MALFORMED);
        }
        Ok(Hop {
            consumed,
            cap,
            parent,
        })
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

    fn setup() -> (Network, ServiceRunner, DirClient) {
        let net = Network::new();
        let runner = ServiceRunner::spawn_open(&net, DirServer::new(SchemeKind::Commutative));
        let client = DirClient::open(&net, runner.put_port());
        (net, runner, client)
    }

    #[test]
    fn enter_lookup_remove() {
        let (_n, runner, dirs) = setup();
        let d = dirs.create_dir().unwrap();
        let target = dirs.create_dir().unwrap();
        dirs.enter(&d, "x", &target).unwrap();
        assert_eq!(dirs.lookup(&d, "x").unwrap(), target);
        dirs.remove(&d, "x").unwrap();
        assert_eq!(
            dirs.lookup(&d, "x").unwrap_err(),
            ClientError::Status(Status::NotFound)
        );
        runner.stop();
    }

    #[test]
    fn duplicate_names_conflict() {
        let (_n, runner, dirs) = setup();
        let d = dirs.create_dir().unwrap();
        let t = dirs.create_dir().unwrap();
        dirs.enter(&d, "x", &t).unwrap();
        assert_eq!(
            dirs.enter(&d, "x", &t).unwrap_err(),
            ClientError::Status(Status::Conflict)
        );
        runner.stop();
    }

    #[test]
    fn bad_names_rejected() {
        let (_n, runner, dirs) = setup();
        let d = dirs.create_dir().unwrap();
        let t = dirs.create_dir().unwrap();
        assert_eq!(
            dirs.enter(&d, "", &t).unwrap_err(),
            ClientError::Status(Status::BadRequest)
        );
        assert_eq!(
            dirs.enter(&d, "a/b", &t).unwrap_err(),
            ClientError::Status(Status::BadRequest)
        );
        runner.stop();
    }

    #[test]
    fn list_is_sorted() {
        let (_n, runner, dirs) = setup();
        let d = dirs.create_dir().unwrap();
        let t = dirs.create_dir().unwrap();
        for name in ["zebra", "alpha", "mid"] {
            dirs.enter(&d, name, &t).unwrap();
        }
        assert_eq!(dirs.list(&d).unwrap(), vec!["alpha", "mid", "zebra"]);
        runner.stop();
    }

    #[test]
    fn read_only_directory_cannot_be_modified() {
        let (_n, runner, dirs) = setup();
        let d = dirs.create_dir().unwrap();
        let t = dirs.create_dir().unwrap();
        dirs.enter(&d, "x", &t).unwrap();
        let ro = dirs.service().restrict(&d, Rights::READ).unwrap();
        assert!(dirs.lookup(&ro, "x").is_ok());
        assert_eq!(
            dirs.enter(&ro, "y", &t).unwrap_err(),
            ClientError::Status(Status::RightsViolation)
        );
        assert_eq!(
            dirs.remove(&ro, "x").unwrap_err(),
            ClientError::Status(Status::RightsViolation)
        );
        runner.stop();
    }

    #[test]
    fn delete_requires_empty() {
        let (_n, runner, dirs) = setup();
        let d = dirs.create_dir().unwrap();
        let t = dirs.create_dir().unwrap();
        dirs.enter(&d, "x", &t).unwrap();
        assert_eq!(
            dirs.delete_dir(&d).unwrap_err(),
            ClientError::Status(Status::Conflict)
        );
        dirs.remove(&d, "x").unwrap();
        dirs.delete_dir(&d).unwrap();
        runner.stop();
    }

    #[test]
    fn rename_entry() {
        let (_n, runner, dirs) = setup();
        let d = dirs.create_dir().unwrap();
        let t = dirs.create_dir().unwrap();
        dirs.enter(&d, "old", &t).unwrap();
        dirs.rename(&d, "old", "new").unwrap();
        assert_eq!(dirs.lookup(&d, "new").unwrap(), t);
        assert_eq!(
            dirs.lookup(&d, "old").unwrap_err(),
            ClientError::Status(Status::NotFound)
        );
        // Renaming onto an existing name conflicts.
        let u = dirs.create_dir().unwrap();
        dirs.enter(&d, "other", &u).unwrap();
        assert_eq!(
            dirs.rename(&d, "new", "other").unwrap_err(),
            ClientError::Status(Status::Conflict)
        );
        // Renaming a missing entry: NotFound.
        assert_eq!(
            dirs.rename(&d, "ghost", "x").unwrap_err(),
            ClientError::Status(Status::NotFound)
        );
        // Self-rename of an existing entry is a no-op.
        dirs.rename(&d, "new", "new").unwrap();
        assert_eq!(dirs.lookup(&d, "new").unwrap(), t);
        runner.stop();
    }

    #[test]
    fn rename_requires_write() {
        let (_n, runner, dirs) = setup();
        let d = dirs.create_dir().unwrap();
        let t = dirs.create_dir().unwrap();
        dirs.enter(&d, "a", &t).unwrap();
        let ro = dirs.service().restrict(&d, Rights::READ).unwrap();
        assert_eq!(
            dirs.rename(&ro, "a", "b").unwrap_err(),
            ClientError::Status(Status::RightsViolation)
        );
        runner.stop();
    }

    #[test]
    fn walk_within_one_server() {
        let (_n, runner, dirs) = setup();
        let root = dirs.create_dir().unwrap();
        let a = dirs.create_dir().unwrap();
        let b = dirs.create_dir().unwrap();
        let c = dirs.create_dir().unwrap();
        dirs.enter(&root, "a", &a).unwrap();
        dirs.enter(&a, "b", &b).unwrap();
        dirs.enter(&b, "c", &c).unwrap();
        assert_eq!(dirs.walk(&root, "a/b/c").unwrap(), c);
        assert_eq!(dirs.walk(&root, "/a//b/c/").unwrap(), c, "empty segments");
        assert_eq!(dirs.walk(&root, "").unwrap(), root);
        let err = dirs.walk(&root, "a/missing/c").unwrap_err();
        assert_eq!(err.index, 1);
        assert_eq!(err.segment, "missing");
        assert_eq!(err.error, ClientError::Status(Status::NotFound));
        runner.stop();
    }

    #[test]
    fn walk_across_two_directory_servers_is_transparent() {
        // The §3.4 scenario: "b" lives on a different directory server;
        // the client never notices.
        let net = Network::new();
        let runner1 = ServiceRunner::spawn_open(&net, DirServer::new(SchemeKind::OneWay));
        let runner2 = ServiceRunner::spawn_open(&net, DirServer::new(SchemeKind::Commutative));
        let dirs = DirClient::open(&net, runner1.put_port());

        let root = dirs.create_dir_on(runner1.put_port()).unwrap(); // server 1
        let a = dirs.create_dir_on(runner2.put_port()).unwrap(); // server 2!
        let b = dirs.create_dir_on(runner2.put_port()).unwrap();
        dirs.enter(&root, "a", &a).unwrap();
        dirs.enter(&a, "b", &b).unwrap();

        let found = dirs.walk(&root, "a/b").unwrap();
        assert_eq!(found, b);
        // The hop really did cross servers.
        assert_ne!(root.port, found.port);
        runner1.stop();
        runner2.stop();
    }

    /// Builds `root/s0/s1/…/s{depth-1}` on one server and returns
    /// `(root, leaf, path)`.
    fn deep_chain(dirs: &DirClient, depth: usize) -> (Capability, Capability, String) {
        let root = dirs.create_dir().unwrap();
        let mut current = root;
        let mut segments = Vec::new();
        for i in 0..depth {
            let next = dirs.create_dir().unwrap();
            let name = format!("s{i}");
            dirs.enter(&current, &name, &next).unwrap();
            segments.push(name);
            current = next;
        }
        (root, current, segments.join("/"))
    }

    /// Whether each `(directory, name)` key has a direct-mapped slot of
    /// its own in a [`CapCache`]. Capabilities are random, and two keys
    /// in one slot evict each other on every access, so the tests that
    /// assert exact frame and write counts build their trees again
    /// until this holds of every key the tree can be cached under.
    fn in_slots_of_their_own<S: AsRef<str>>(keys: &[(Capability, S)]) -> bool {
        let mut slots: Vec<usize> = keys
            .iter()
            .map(|(dir, name)| cache::slot_index(dir, name.as_ref()))
            .collect();
        slots.sort_unstable();
        slots.windows(2).all(|pair| pair[0] != pair[1])
    }

    #[test]
    fn resolve_matches_walk_in_one_frame() {
        let (net, runner, dirs) = setup();
        let (root, leaf, path) = deep_chain(&dirs, 8);

        let before = net.stats().snapshot().packets_sent;
        let walked = dirs.walk(&root, &path).unwrap();
        let walk_frames = net.stats().snapshot().packets_sent - before;

        let before = net.stats().snapshot().packets_sent;
        let resolved = dirs.resolve(&root, &path).unwrap();
        let resolve_frames = net.stats().snapshot().packets_sent - before;

        assert_eq!(walked, leaf);
        assert_eq!(resolved, leaf);
        // Eight lookups vs a single RESOLVE round-trip.
        assert_eq!(resolve_frames, 2);
        assert!(
            walk_frames >= 4 * resolve_frames,
            "walk {walk_frames} frames vs resolve {resolve_frames}"
        );
        // Leading slashes and empty segments behave like walk.
        let s1 = dirs.walk(&root, "s0/s1").unwrap();
        assert_eq!(dirs.resolve(&root, "/s0//s1/").unwrap(), s1);
        assert_eq!(dirs.resolve(&root, "").unwrap(), root);
        runner.stop();
    }

    #[test]
    fn resolve_hands_off_across_servers() {
        let net = Network::new();
        let runner1 = ServiceRunner::spawn_open(&net, DirServer::new(SchemeKind::OneWay));
        let runner2 = ServiceRunner::spawn_open(&net, DirServer::new(SchemeKind::Commutative));
        let dirs = DirClient::open(&net, runner1.put_port());

        // root/a on server 1, then b/c on server 2.
        let root = dirs.create_dir_on(runner1.put_port()).unwrap();
        let a = dirs.create_dir_on(runner1.put_port()).unwrap();
        let b = dirs.create_dir_on(runner2.put_port()).unwrap();
        let c = dirs.create_dir_on(runner2.put_port()).unwrap();
        dirs.enter(&root, "a", &a).unwrap();
        dirs.enter(&a, "b", &b).unwrap();
        dirs.enter(&b, "c", &c).unwrap();

        let before = net.stats().snapshot().packets_sent;
        let found = dirs.resolve(&root, "a/b/c").unwrap();
        let frames = net.stats().snapshot().packets_sent - before;
        assert_eq!(found, c);
        // Two hop-chains (server 1 consumes a/b, server 2 consumes c):
        // two round-trips, regardless of depth per server.
        assert_eq!(frames, 4);
        runner1.stop();
        runner2.stop();
    }

    #[test]
    fn resolve_reports_the_failing_segment_like_walk() {
        let (_n, runner, dirs) = setup();
        let (root, _leaf, _path) = deep_chain(&dirs, 3);
        let walk_err = dirs.walk(&root, "s0/ghost/s2").unwrap_err();
        let resolve_err = dirs.resolve(&root, "s0/ghost/s2").unwrap_err();
        assert_eq!(resolve_err, walk_err);
        assert_eq!(resolve_err.index, 1);
        assert_eq!(resolve_err.segment, "ghost");
        assert_eq!(resolve_err.error, ClientError::Status(Status::NotFound));

        // A leaf that exists but is not a directory on this server:
        // the error indexes the segment *after* it.
        let not_dir = dirs
            .service()
            .restrict(&dirs.create_dir().unwrap(), Rights::NONE)
            .unwrap();
        dirs.enter(&root, "locked", &not_dir).unwrap();
        let err = dirs.resolve(&root, "locked/inner").unwrap_err();
        assert_eq!(err.index, 1);
        assert_eq!(dirs.walk(&root, "locked/inner").unwrap_err().index, 1);
        runner.stop();
    }

    #[test]
    fn cached_resolve_answers_without_frames() {
        let (net, runner, dirs) = setup();
        let dirs = dirs.with_cache(Duration::from_secs(60));
        let (root, leaf, path) = deep_chain(&dirs, 6);

        assert_eq!(dirs.resolve(&root, &path).unwrap(), leaf);
        let before = net.stats().snapshot().packets_sent;
        assert_eq!(dirs.resolve(&root, &path).unwrap(), leaf);
        assert_eq!(
            net.stats().snapshot().packets_sent,
            before,
            "repeat resolve must be served from cache"
        );

        // The client's own rename invalidates, so the next resolve
        // goes back to the server and sees the new truth.
        dirs.rename(&root, "s0", "renamed").unwrap();
        let err = dirs.resolve(&root, &path).unwrap_err();
        assert_eq!(err.index, 0);
        assert_eq!(err.error, ClientError::Status(Status::NotFound));
        runner.stop();
    }

    #[test]
    fn cold_siblings_of_one_directory_write_one_slot_each() {
        const SIBLINGS: usize = 16;
        // Four directories on each of two servers, leaves in the last —
        // entered by another client, so the cache under test is cold.
        let net = Network::new();
        let runner1 = ServiceRunner::spawn_open(&net, DirServer::new(SchemeKind::OneWay));
        let runner2 = ServiceRunner::spawn_open(&net, DirServer::new(SchemeKind::Commutative));
        let builder = DirClient::open(&net, runner1.put_port());
        // Built again until every key has a slot of its own (about two
        // draws in three do): a leaf in one of the chain's slots evicts
        // the way to its own directory.
        let (root, leaves) = loop {
            let mut chain = vec![builder.create_dir_on(runner1.put_port()).unwrap()];
            for level in 0..8 {
                let runner = if level < 4 { &runner1 } else { &runner2 };
                let next = builder.create_dir_on(runner.put_port()).unwrap();
                builder
                    .enter(&chain[level], &format!("s{level}"), &next)
                    .unwrap();
                chain.push(next);
            }
            let leaves: Vec<Capability> = (0..SIBLINGS)
                .map(|i| {
                    let leaf = builder.create_dir_on(runner2.put_port()).unwrap();
                    builder.enter(&chain[8], &format!("f{i}"), &leaf).unwrap();
                    leaf
                })
                .collect();
            let mut keys = vec![
                (chain[0], "s0/s1/s2/s3".to_string()),
                (chain[4], "s4".to_string()),
                (chain[5], "s5/s6/s7".to_string()),
                (chain[0], "s0/s1/s2/s3/s4/s5/s6/s7".to_string()),
            ];
            keys.extend((0..SIBLINGS).map(|i| (chain[8], format!("f{i}"))));
            if in_slots_of_their_own(&keys) {
                break (chain[0], leaves);
            }
        };

        let dirs = DirClient::open(&net, runner1.put_port()).with_cache(Duration::from_secs(60));
        let cache = dirs.cache().unwrap();
        for (i, leaf) in leaves.iter().enumerate() {
            let path = format!("s0/s1/s2/s3/s4/s5/s6/s7/f{i}");
            let before = net.stats().snapshot().packets_sent;
            assert_eq!(dirs.resolve(&root, &path).unwrap(), *leaf);
            let frames = net.stats().snapshot().packets_sent - before;
            // The first walks both chains; every other asks its
            // directory for one name.
            assert_eq!(frames, if i == 0 { 4 } else { 2 }, "{path}");
            assert_eq!(cache.get(&root, &path, dirs.now()), Some(*leaf));
        }
        // One slot per leaf, and four for the way there: `s0/s1/s2/s3`
        // under the root, `s4` under that (the handoff), `s5/s6/s7`
        // under that, and the whole dirname under the root. Memoising
        // whole paths instead writes 2 × SIBLINGS + 1.
        let chain = 4;
        assert!(
            cache.writes() <= (SIBLINGS + chain) as u64,
            "{} slot writes for {SIBLINGS} siblings",
            cache.writes()
        );
        runner1.stop();
        runner2.stop();
    }

    #[test]
    fn spellings_of_one_path_hit_the_same_slots() {
        let (net, runner, dirs) = setup();
        let dirs = dirs.with_cache(Duration::from_secs(60));
        let builder = DirClient::open(&net, runner.put_port());
        // The counts below are exact only while the chain's entries
        // keep their slots: capabilities are random and the cache is
        // direct-mapped, so two of these keys in one slot evict each
        // other on every access (seen: 12 frames for 4). Build the
        // chain again until every key it could be cached under has a
        // slot of its own — about one draw in thirty does not.
        let (root, leaf) = loop {
            let chain: Vec<Capability> = (0..4).map(|_| builder.create_dir().unwrap()).collect();
            for (i, link) in chain.windows(2).enumerate() {
                builder.enter(&link[0], &format!("s{i}"), &link[1]).unwrap();
            }
            let (root, s0, s1, leaf) = (chain[0], chain[1], chain[2], chain[3]);
            let keys = [
                (root, "s0"),
                (root, "s0/s1"),
                (root, "s0/s1/s2"),
                (s0, "s1"),
                (s0, "s1/s2"),
                (s1, "s2"),
            ];
            if in_slots_of_their_own(&keys) {
                break (root, leaf);
            }
        };
        assert_eq!(dirs.resolve(&root, "s0/s1/s2").unwrap(), leaf);

        let cache = dirs.cache().unwrap();
        let (writes, frames) = (cache.writes(), net.stats().snapshot().packets_sent);
        for spelling in ["s0/s1/s2", "/s0/s1/s2", "s0//s1/s2/", "//s0/s1//s2//"] {
            assert_eq!(dirs.resolve(&root, spelling).unwrap(), leaf, "{spelling}");
        }
        // `lookup` and the leaf step are one function: the directory
        // the resolve ended in answers for its name without a frame.
        let s1 = dirs.walk(&root, "s0/s1").unwrap();
        assert_eq!(dirs.lookup(&s1, "s2").unwrap(), leaf);
        assert_eq!(
            cache.writes(),
            writes + 2,
            "walk recorded s0 and s1, no more"
        );
        assert_eq!(net.stats().snapshot().packets_sent, frames + 4);
        runner.stop();
    }

    /// A directory server that answers every multi-segment RESOLVE
    /// with `planted` where the parent directory belongs.
    struct LyingParent {
        inner: DirServer,
        planted: Capability,
    }

    impl Service for LyingParent {
        fn bind(&mut self, put_port: Port) {
            self.inner.bind(put_port);
        }

        fn handle(&self, req: &Request, ctx: &RequestCtx) -> Reply {
            let reply = self.inner.handle(req, ctx);
            if req.command != ops::RESOLVE || reply.body.len() != 40 {
                return reply;
            }
            let mut body = reply.body[..24].to_vec();
            body.extend_from_slice(&self.planted.encode());
            Reply::ok(Bytes::from(body))
        }
    }

    #[test]
    fn a_parent_on_another_server_is_refused_not_cached_under() {
        // The victim: a directory on an honest server, `x` in it.
        let net = Network::new();
        let honest = ServiceRunner::spawn_open(&net, DirServer::new(SchemeKind::Commutative));
        let builder = DirClient::open(&net, honest.put_port());
        let (victim, x) = (builder.create_dir().unwrap(), builder.create_dir().unwrap());
        builder.enter(&victim, "x", &x).unwrap();
        // A server that knows the victim's capability and would like
        // this client to believe `x` in it is something of its own.
        let liar = ServiceRunner::spawn_open(
            &net,
            LyingParent {
                inner: DirServer::new(SchemeKind::Commutative),
                planted: victim,
            },
        );
        let (root, a, evil) = (
            builder.create_dir_on(liar.put_port()).unwrap(),
            builder.create_dir_on(liar.put_port()).unwrap(),
            builder.create_dir_on(liar.put_port()).unwrap(),
        );
        builder.enter(&root, "a", &a).unwrap();
        builder.enter(&a, "x", &evil).unwrap();

        let dirs = DirClient::open(&net, honest.put_port()).with_cache(Duration::from_secs(60));
        let err = dirs.resolve(&root, "a/x").unwrap_err();
        assert_eq!(err.error, ClientError::Malformed);
        assert_eq!(dirs.cache().unwrap().writes(), 0, "nothing recorded");
        assert_eq!(dirs.lookup(&victim, "x").unwrap(), x);
        honest.stop();
        liar.stop();
    }

    /// A directory server that holds its first LOOKUP answer back
    /// after computing it: the handler reports "answered" and then
    /// waits to be released before the reply leaves.
    struct HeldLookup {
        inner: DirServer,
        armed: std::sync::atomic::AtomicBool,
        answered: std::sync::mpsc::SyncSender<()>,
        release: std::sync::Mutex<std::sync::mpsc::Receiver<()>>,
    }

    impl Service for HeldLookup {
        fn bind(&mut self, put_port: Port) {
            self.inner.bind(put_port);
        }

        fn handle(&self, req: &Request, ctx: &RequestCtx) -> Reply {
            use std::sync::atomic::Ordering;
            let reply = self.inner.handle(req, ctx);
            if req.command == ops::LOOKUP && self.armed.swap(false, Ordering::AcqRel) {
                self.answered.send(()).expect("the test is listening");
                let release = self.release.lock().expect("no holder panics");
                release.recv().expect("the test releases the lookup");
            }
            reply
        }
    }

    #[test]
    fn a_lookup_answered_before_a_remove_is_not_served_after_it() {
        use std::sync::mpsc::sync_channel;

        let net = Network::new();
        let (answered, is_answered) = sync_channel(1);
        let (release, released) = sync_channel(1);
        let runner = ServiceRunner::spawn_open_workers(
            &net,
            HeldLookup {
                inner: DirServer::new(SchemeKind::Commutative),
                armed: true.into(),
                answered,
                release: std::sync::Mutex::new(released),
            },
            2,
        );
        let dirs = DirClient::open(&net, runner.put_port()).with_cache(Duration::from_secs(3600));
        // Entered by another client, so this one's cache starts cold.
        let other = DirClient::open(&net, runner.put_port());
        let root = other.create_dir().unwrap();
        let target = other.create_dir().unwrap();
        other.enter(&root, "x", &target).unwrap();

        std::thread::scope(|s| {
            // Thread A asks; the server answers `target` and holds the
            // reply back.
            let lookup = s.spawn(|| dirs.lookup(&root, "x"));
            is_answered.recv().unwrap();
            // Thread B removes the name — request, reply and cache
            // invalidation all complete — while A's answer is in
            // flight. Only then does A receive it and record it.
            dirs.remove(&root, "x").unwrap();
            release.send(()).unwrap();
            assert_eq!(lookup.join().unwrap().unwrap(), target);
        });

        // A's answer predates the removal and must not be served after
        // it: the next lookup misses the cache and hears the truth.
        assert_eq!(
            dirs.lookup(&root, "x"),
            Err(ClientError::Status(Status::NotFound)),
            "an answer that raced the remove outlived the invalidation"
        );
        runner.stop();
    }

    #[test]
    fn every_command_refuses_a_capability_lacking_its_rights() {
        use amoeba_server::rights_check::{assert_rights_enforced, reply_status, Probe};
        let (_n, runner, dirs) = setup();
        let entry = dirs.create_dir().unwrap();
        let holding = |params: Bytes| {
            let d = dirs.create_dir().unwrap();
            dirs.enter(&d, "a", &entry).unwrap();
            (d, params)
        };
        let name = |n: &str| wire::Writer::new().str(n).finish();
        let lookup = || holding(name("a"));
        let enter = || holding(wire::Writer::new().str("b").cap(&entry).finish());
        let rename = || holding(wire::Writer::new().str("a").str("b").finish());
        let list = || holding(Bytes::new());
        let delete = || (dirs.create_dir().unwrap(), Bytes::new());
        // RESOLVE answers in its body: `u32 consumed`, `u32 status`.
        let resolved = |reply: &Result<Bytes, ClientError>| match reply {
            Ok(body) => {
                let mut r = wire::Reader::new(body);
                let status = r.u32().and_then(|_| r.u32());
                status.and_then(Status::from_u32).unwrap()
            }
            Err(_) => reply_status(reply),
        };
        assert_rights_enforced(
            dirs.service(),
            DirServer::COMMANDS,
            &[
                Probe::new(ops::LOOKUP, Rights::READ, &lookup),
                Probe::new(ops::ENTER, Rights::WRITE, &enter),
                Probe::new(ops::REMOVE, Rights::WRITE, &lookup),
                Probe::new(ops::LIST, Rights::READ, &list),
                Probe::new(ops::DELETE_DIR, Rights::DELETE, &delete),
                Probe::new(ops::RENAME, Rights::WRITE, &rename),
                Probe {
                    status: resolved,
                    ..Probe::new(ops::RESOLVE, Rights::READ, &lookup)
                },
            ],
            |d| {
                let names = dirs.list(d);
                let caps: Vec<_> = (names.iter().flatten())
                    .map(|n| dirs.service().call(d, ops::LOOKUP, name(n)))
                    .collect();
                (names, caps)
            },
        );
        runner.stop();
    }
}
