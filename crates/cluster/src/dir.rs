//! Hot-directory sharding: ONE logical directory whose entries are
//! hashed across several real directories on distinct directory-server
//! replicas.
//!
//! §3.4's directory server is a single object — fine until one
//! directory (a build tree's `obj/`, a mail spool) becomes the hot
//! spot every client hammers. A [`ShardedDir`] splits the *name space
//! of one directory* the same way [`ElasticCluster`](crate::ElasticCluster)
//! splits object placement: each entry name hashes to one of `n`
//! backing directories, so enters and lookups spread `n`-ways while
//! the caller still sees a single flat directory. Fan-out operations
//! (`list`, `lookup_many`, `enter_many`) group per backing port and
//! ride one BATCH_REQUEST frame per replica — the same batched
//! transaction machinery the rest of the fleet uses.
//!
//! The shard map itself is published as ordinary directory entries
//! (`"<name>.dirshard-<i>"`), so a fresh client bootstraps it with
//! plain lookups, exactly like a sharded service's shard map.

use amoeba_cap::Capability;
use amoeba_dirsvr::{ops, DirClient};
use amoeba_net::Port;
use amoeba_server::proto::Request;
use amoeba_server::wire::FrameWriter;
use amoeba_server::{wire, ClientError};
use bytes::Bytes;

/// FNV-1a over the entry name — stable across clients, so every client
/// agrees which shard owns a name.
fn shard_hash(name: &str) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for b in name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

fn shard_entry_name(name: &str, shard: usize) -> String {
    format!("{name}.dirshard-{shard}")
}

/// One logical directory sharded over `n` backing directories.
///
/// Entry names hash onto the backing directories; every single-name
/// operation routes to exactly one shard, and fan-out operations batch
/// one frame per backing replica. Entries are plain directory entries —
/// a shard's backing directory can be read with an ordinary
/// [`DirClient`] if ever needed.
#[derive(Debug, Clone)]
pub struct ShardedDir {
    shards: Vec<Capability>,
}

impl ShardedDir {
    /// Creates one backing directory on each of `ports` (typically one
    /// directory-server replica each).
    ///
    /// # Errors
    /// Transport errors from directory creation.
    ///
    /// # Panics
    /// Panics if `ports` is empty.
    pub fn create(dirs: &DirClient, ports: &[Port]) -> Result<ShardedDir, ClientError> {
        assert!(!ports.is_empty(), "at least one shard required");
        let shards = ports
            .iter()
            .map(|&p| dirs.create_dir_on(p))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(ShardedDir { shards })
    }

    /// Wraps existing backing directories (shard `i` = `shards[i]`).
    ///
    /// # Panics
    /// Panics if `shards` is empty.
    pub fn from_shards(shards: Vec<Capability>) -> ShardedDir {
        assert!(!shards.is_empty(), "at least one shard required");
        ShardedDir { shards }
    }

    /// Number of backing directories.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Publishes the shard map under `parent` as
    /// `"<name>.dirshard-<i>"` entries.
    ///
    /// # Errors
    /// Directory errors (`Conflict` if already published, rights).
    pub fn publish(
        &self,
        dirs: &DirClient,
        parent: &Capability,
        name: &str,
    ) -> Result<(), ClientError> {
        for (i, shard) in self.shards.iter().enumerate() {
            dirs.enter(parent, &shard_entry_name(name, i), shard)?;
        }
        Ok(())
    }

    /// Bootstraps the shard map back from a published parent, reading
    /// consecutive shards until the first missing index.
    ///
    /// # Errors
    /// The first lookup's error if no `dirshard-0` exists.
    pub fn from_directory(
        dirs: &DirClient,
        parent: &Capability,
        name: &str,
    ) -> Result<ShardedDir, ClientError> {
        let mut shards = Vec::new();
        loop {
            match dirs.lookup(parent, &shard_entry_name(name, shards.len())) {
                Ok(cap) => shards.push(cap),
                Err(e) if shards.is_empty() => return Err(e),
                Err(_) => break,
            }
        }
        Ok(ShardedDir { shards })
    }

    /// The backing directory owning `name`.
    fn shard_for(&self, name: &str) -> &Capability {
        &self.shards[(shard_hash(name) % self.shards.len() as u64) as usize]
    }

    /// Looks `name` up — a single-shard call (and a [`DirClient`]
    /// cache hit costs no frame at all).
    ///
    /// # Errors
    /// As for [`DirClient::lookup`].
    pub fn lookup(&self, dirs: &DirClient, name: &str) -> Result<Capability, ClientError> {
        dirs.lookup(self.shard_for(name), name)
    }

    /// Enters `(name, cap)` into the owning shard.
    ///
    /// # Errors
    /// As for [`DirClient::enter`].
    pub fn enter(&self, dirs: &DirClient, name: &str, cap: &Capability) -> Result<(), ClientError> {
        dirs.enter(self.shard_for(name), name, cap)
    }

    /// Removes `name` from the owning shard.
    ///
    /// # Errors
    /// As for [`DirClient::remove`].
    pub fn remove(&self, dirs: &DirClient, name: &str) -> Result<(), ClientError> {
        dirs.remove(self.shard_for(name), name)
    }

    /// Renames `from` to `to`. Within one shard this is the server's
    /// atomic RENAME; across shards it decomposes into
    /// lookup + enter + remove, which is **not atomic** — a concurrent
    /// reader may briefly see both names or (on a crash between steps)
    /// the entry under both.
    ///
    /// # Errors
    /// `NotFound` if `from` is absent, `Conflict` if `to` exists.
    pub fn rename(&self, dirs: &DirClient, from: &str, to: &str) -> Result<(), ClientError> {
        let src = *self.shard_for(from);
        let dst = *self.shard_for(to);
        if src == dst {
            return dirs.rename(&src, from, to);
        }
        let cap = dirs.lookup(&src, from)?;
        dirs.enter(&dst, to, &cap)?;
        dirs.remove(&src, from)
    }

    /// Groups per-shard calls by backing **port**, so shards colocated
    /// on one replica share a single BATCH_REQUEST frame. Call `i` is
    /// `command` on shard directory `on[i]`, its `len(i)` bytes of
    /// params written in place by `params(i, ..)`.
    fn batched<T>(
        dirs: &DirClient,
        command: u32,
        on: &[Capability],
        len: impl Fn(usize) -> usize,
        params: impl Fn(usize, FrameWriter<'_>) -> FrameWriter<'_>,
        mut parse: impl FnMut(Result<Bytes, ClientError>) -> Result<T, ClientError>,
    ) -> Result<Vec<Result<T, ClientError>>, ClientError> {
        let mut order: Vec<usize> = (0..on.len()).collect();
        order.sort_by_key(|&i| on[i].port);
        let mut out: Vec<Option<Result<T, ClientError>>> = Vec::new();
        out.resize_with(on.len(), || None);
        for group in order.chunk_by(|&a, &b| on[a].port == on[b].port) {
            let port = on[group[0]].port;
            let bytes = group.iter().map(|&i| len(i)).sum();
            let replies = dirs.service().batch(port, group.len(), bytes, |k, buf| {
                Request::encode_with(buf, &on[group[k]], command, |w| params(group[k], w))
            })?;
            for (&slot, reply) in group.iter().zip(replies) {
                out[slot] = Some(parse(reply));
            }
        }
        Ok(out
            .into_iter()
            .map(|r| r.expect("every slot filled"))
            .collect())
    }

    /// Looks many names up at once — one frame per backing replica,
    /// results in input order (each name fails independently).
    ///
    /// # Errors
    /// Transport errors that sink a whole batch frame.
    pub fn lookup_many(
        &self,
        dirs: &DirClient,
        names: &[&str],
    ) -> Result<Vec<Result<Capability, ClientError>>, ClientError> {
        let on: Vec<Capability> = names.iter().map(|name| *self.shard_for(name)).collect();
        Self::batched(
            dirs,
            ops::LOOKUP,
            &on,
            |i| 4 + names[i].len(),
            |i, w| w.str(names[i]),
            |reply| {
                reply.and_then(|body| wire::Reader::new(&body).cap().ok_or(ClientError::Malformed))
            },
        )
    }

    /// Enters many `(name, cap)` pairs at once — one frame per backing
    /// replica, results in input order.
    ///
    /// # Errors
    /// Transport errors that sink a whole batch frame.
    pub fn enter_many(
        &self,
        dirs: &DirClient,
        entries: &[(&str, Capability)],
    ) -> Result<Vec<Result<(), ClientError>>, ClientError> {
        let on: Vec<Capability> = entries
            .iter()
            .map(|(name, _)| *self.shard_for(name))
            .collect();
        Self::batched(
            dirs,
            ops::ENTER,
            &on,
            |i| 4 + entries[i].0.len() + 16,
            |i, w| w.str(entries[i].0).cap(&entries[i].1),
            |reply| reply.map(|_| ()),
        )
    }

    /// Lists the whole logical directory: every shard's LIST rides a
    /// batch frame per backing replica, and the merged result comes
    /// back sorted — indistinguishable from one flat directory.
    ///
    /// # Errors
    /// Any shard's failure fails the list.
    pub fn list(&self, dirs: &DirClient) -> Result<Vec<String>, ClientError> {
        let per_shard = Self::batched(
            dirs,
            ops::LIST,
            &self.shards,
            |_| 0,
            |_, w| w,
            |reply| {
                let body = reply?;
                let mut r = wire::Reader::new(&body);
                let n = r.u32().ok_or(ClientError::Malformed)?;
                let mut names = Vec::with_capacity(n as usize);
                for _ in 0..n {
                    names.push(r.str().ok_or(ClientError::Malformed)?);
                }
                Ok(names)
            },
        )?;
        let mut all = Vec::new();
        for names in per_shard {
            all.extend(names?);
        }
        all.sort_unstable();
        Ok(all)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amoeba_cap::schemes::SchemeKind;
    use amoeba_dirsvr::DirServer;
    use amoeba_net::Network;
    use amoeba_server::ServiceRunner;
    use amoeba_server::{proto::Status, ServiceClient};

    fn setup(replicas: usize) -> (Network, Vec<ServiceRunner>, DirClient, ShardedDir) {
        let net = Network::new();
        let runners: Vec<ServiceRunner> = (0..replicas)
            .map(|_| ServiceRunner::spawn_open(&net, DirServer::new(SchemeKind::Commutative)))
            .collect();
        let dirs = DirClient::open(&net, runners[0].put_port());
        let ports: Vec<Port> = runners.iter().map(|r| r.put_port()).collect();
        let sharded = ShardedDir::create(&dirs, &ports).unwrap();
        (net, runners, dirs, sharded)
    }

    #[test]
    fn behaves_like_one_flat_directory() {
        let (_net, runners, dirs, hot) = setup(3);
        let mut names: Vec<String> = (0..24).map(|i| format!("entry-{i}")).collect();
        for name in &names {
            let target = dirs.create_dir().unwrap();
            hot.enter(&dirs, name, &target).unwrap();
            assert_eq!(hot.lookup(&dirs, name).unwrap(), target);
        }
        names.sort_unstable();
        assert_eq!(hot.list(&dirs).unwrap(), names);

        hot.remove(&dirs, "entry-7").unwrap();
        assert_eq!(
            hot.lookup(&dirs, "entry-7").unwrap_err(),
            ClientError::Status(Status::NotFound)
        );
        assert_eq!(hot.list(&dirs).unwrap().len(), 23);
        for r in runners {
            r.stop();
        }
    }

    #[test]
    fn entries_spread_across_replicas() {
        let (_net, runners, dirs, hot) = setup(3);
        for i in 0..30 {
            let target = dirs.create_dir().unwrap();
            hot.enter(&dirs, &format!("file-{i}"), &target).unwrap();
        }
        // Every backing directory got some of the load.
        for shard in &hot.shards {
            assert!(
                !dirs.list(shard).unwrap().is_empty(),
                "a shard sat idle — hashing is not spreading"
            );
        }
        for r in runners {
            r.stop();
        }
    }

    #[test]
    fn batched_fanout_is_one_frame_per_replica() {
        let (net, runners, dirs, hot) = setup(3);
        let names: Vec<String> = (0..12).map(|i| format!("n{i}")).collect();
        let entries: Vec<(&str, Capability)> = names
            .iter()
            .map(|n| (n.as_str(), dirs.create_dir().unwrap()))
            .collect();

        let before = net.stats().snapshot().packets_sent;
        let results = hot.enter_many(&dirs, &entries).unwrap();
        let enter_frames = net.stats().snapshot().packets_sent - before;
        assert!(results.iter().all(Result::is_ok));
        // ≤ one round-trip per replica, not per entry.
        assert!(
            enter_frames <= 2 * 3,
            "12 enters across 3 replicas took {enter_frames} frames"
        );

        let name_refs: Vec<&str> = names.iter().map(String::as_str).collect();
        let before = net.stats().snapshot().packets_sent;
        let found = hot.lookup_many(&dirs, &name_refs).unwrap();
        let lookup_frames = net.stats().snapshot().packets_sent - before;
        assert!(lookup_frames <= 2 * 3);
        for ((_, entered), got) in entries.iter().zip(&found) {
            assert_eq!(got.as_ref().unwrap(), entered);
        }
        // Misses fail individually, in order.
        let mixed = hot.lookup_many(&dirs, &["n0", "ghost"]).unwrap();
        assert!(mixed[0].is_ok());
        assert_eq!(
            mixed[1].as_ref().unwrap_err(),
            &ClientError::Status(Status::NotFound)
        );
        for r in runners {
            r.stop();
        }
    }

    #[test]
    fn cross_shard_rename_moves_the_entry() {
        let (_net, runners, dirs, hot) = setup(4);
        let target = dirs.create_dir().unwrap();
        // Find two names living on different shards.
        let names: Vec<String> = (0..64).map(|i| format!("x{i}")).collect();
        let (from, to) = names
            .iter()
            .flat_map(|a| names.iter().map(move |b| (a, b)))
            .find(|(a, b)| hot.shard_for(a) != hot.shard_for(b))
            .expect("64 names must straddle 4 shards");
        hot.enter(&dirs, from, &target).unwrap();
        hot.rename(&dirs, from, to).unwrap();
        assert_eq!(hot.lookup(&dirs, to).unwrap(), target);
        assert_eq!(
            hot.lookup(&dirs, from).unwrap_err(),
            ClientError::Status(Status::NotFound)
        );
        for r in runners {
            r.stop();
        }
    }

    /// Pins the documented non-atomicity of a cross-shard rename by
    /// replaying its exact decomposition (lookup → enter → remove) and
    /// checking the state a concurrent reader would see at every step
    /// boundary. The legal intermediate states are exactly:
    /// `{from}` (before), `{from, to}` (between enter and remove — both
    /// names resolve to the same capability), `{to}` (after). The entry
    /// is never absent and never resolves to a different capability.
    #[test]
    fn cross_shard_rename_intermediate_states_are_the_documented_ones() {
        let (_net, runners, dirs, hot) = setup(3);
        let target = dirs.create_dir().unwrap();
        let names: Vec<String> = (0..64).map(|i| format!("s{i}")).collect();
        let (from, to) = names
            .iter()
            .flat_map(|a| names.iter().map(move |b| (a, b)))
            .find(|(a, b)| hot.shard_for(a) != hot.shard_for(b))
            .expect("64 names must straddle 3 shards");
        hot.enter(&dirs, from, &target).unwrap();

        let observe = || (hot.lookup(&dirs, from).ok(), hot.lookup(&dirs, to).ok());

        assert_eq!(observe(), (Some(target), None));
        // Step 1: lookup — pure read, mutates nothing.
        let src = *hot.shard_for(from);
        let dst = *hot.shard_for(to);
        let cap = dirs.lookup(&src, from).unwrap();
        assert_eq!(cap, target);
        assert_eq!(observe(), (Some(target), None));
        // Step 2: enter on the destination shard. The transient a
        // reader may catch: BOTH names resolve, to the same target.
        dirs.enter(&dst, to, &cap).unwrap();
        assert_eq!(
            observe(),
            (Some(target), Some(target)),
            "the documented transient is both-names-visible; a gap \
             where neither resolves would lose the entry on a crash"
        );
        // Step 3: remove from the source shard — the terminal state.
        dirs.remove(&src, from).unwrap();
        assert_eq!(observe(), (None, Some(target)));
        for r in runners {
            r.stop();
        }
    }

    /// A same-shard rename must stay the server's single atomic RENAME
    /// op — one round-trip, no decomposition, no observable transient.
    #[test]
    fn same_shard_rename_is_one_atomic_server_op() {
        let (net, runners, dirs, hot) = setup(3);
        let target = dirs.create_dir().unwrap();
        let names: Vec<String> = (0..64).map(|i| format!("t{i}")).collect();
        let (from, to) = names
            .iter()
            .flat_map(|a| names.iter().map(move |b| (a, b)))
            .find(|(a, b)| a != b && hot.shard_for(a) == hot.shard_for(b))
            .expect("64 names must collide somewhere on 3 shards");
        hot.enter(&dirs, from, &target).unwrap();

        let before = net.stats().snapshot().packets_sent;
        hot.rename(&dirs, from, to).unwrap();
        let frames = net.stats().snapshot().packets_sent - before;
        assert!(
            frames <= 2,
            "same-shard rename took {frames} frames — it decomposed \
             instead of riding the server's atomic RENAME"
        );
        assert_eq!(hot.lookup(&dirs, to).unwrap(), target);
        assert_eq!(
            hot.lookup(&dirs, from).unwrap_err(),
            ClientError::Status(Status::NotFound)
        );
        for r in runners {
            r.stop();
        }
    }

    #[test]
    fn publishes_and_bootstraps_the_shard_map() {
        let (net, runners, dirs, hot) = setup(2);
        let parent = dirs.create_dir().unwrap();
        hot.publish(&dirs, &parent, "spool").unwrap();
        let target = dirs.create_dir().unwrap();
        hot.enter(&dirs, "mail", &target).unwrap();

        // A fresh client knows only the parent directory.
        let fresh = DirClient::with_service(ServiceClient::open(&net), runners[0].put_port());
        let rebuilt = ShardedDir::from_directory(&fresh, &parent, "spool").unwrap();
        assert_eq!(rebuilt.shards(), 2);
        assert_eq!(rebuilt.lookup(&fresh, "mail").unwrap(), target);
        assert!(ShardedDir::from_directory(&fresh, &parent, "ghost").is_err());
        for r in runners {
            r.stop();
        }
    }
}
