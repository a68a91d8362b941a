//! The threaded, closed-loop workloads: one generator thread issuing
//! the next operation as soon as the previous one completes.
//!
//! An operation times itself and excludes its own output checks, so a
//! latency sample is the system's time only; throughput is operations
//! over the summed operation time (a closed loop with zero think time).

use crate::gen::{zipf_picks, SplitMix64};
use crate::place::{pin_current_thread, Cores, HostDelta, HostSample, Placement};
use crate::{rig, stats};
use amoeba_cap::Capability;
use amoeba_dirsvr::DirClient;
use amoeba_flatfs::{ops as fs_ops, FlatFsClient};
use amoeba_net::{HotPathSnapshot, MetricsSnapshot, Network, StatsSnapshot};
use amoeba_server::{wire, ServiceClient};
use bytes::Bytes;
use std::time::{Duration, Instant};

/// Leaf files of `vfs_read`: eight times the capability cache's 512
/// slots, so the cache is used and also overrun.
const LEAVES: usize = 4096;
/// Bytes per `vfs_read` file and per read.
const READ_BYTES: usize = 4096;
/// `vfs_write` writes 64 blocks of [`rig::BLOCK_SIZE`] per file.
const WRITE_BYTES: usize = 64 * rig::BLOCK_SIZE as usize;
/// Distinct payloads / entry names `vfs_write` cycles through.
const WRITE_VARIANTS: usize = 8;

/// The inputs generated from `--seed`; all a workload ever sees of it.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// Zipf(1.0) leaf picks for `vfs_read`.
    leaf_picks: Vec<u16>,
    /// Zipf(1.0) tenant picks for `cluster_zipf`.
    tenant_picks: Vec<u16>,
    /// Per-file content key: word `k` of file `i` is `file_words[i] + k`.
    file_words: Vec<u64>,
    /// First sequence number echoed.
    echo_base: u64,
}

impl Inputs {
    pub fn generate(seed: u64) -> Inputs {
        let mut rng = SplitMix64::new(seed);
        Inputs {
            leaf_picks: zipf_picks(&mut rng, LEAVES, 1.0),
            tenant_picks: zipf_picks(&mut rng, rig::TENANTS, 1.0),
            file_words: (0..LEAVES.max(WRITE_VARIANTS))
                .map(|_| rng.next())
                .collect(),
            echo_base: rng.next() >> 1,
        }
    }
}

fn content(word: u64, len: usize) -> Vec<u8> {
    (0..len as u64 / 8)
        .flat_map(|k| word.wrapping_add(k).to_le_bytes())
        .collect()
}

fn content_matches(data: &[u8], word: u64, len: usize) -> bool {
    data.len() == len
        && data
            .chunks_exact(8)
            .zip(0u64..)
            .all(|(c, k)| c == word.wrapping_add(k).to_le_bytes())
}

fn machine_of(client: &ServiceClient) -> u32 {
    client.rpc().endpoint().id().as_u32()
}

/// One workload, built and ready to run.
pub trait Workload {
    /// Runs one operation and returns the time it took, checks
    /// excluded.
    ///
    /// # Errors
    /// What failed: a refused or failed call, or an output the oracle
    /// rejects.
    fn op(&mut self) -> Result<Duration, String>;

    /// Loads what the operations will read. Not part of set-up time:
    /// it is the harness storing data through calls `vfs_write` times.
    fn load_fixtures(&mut self) {}

    /// End-of-window oracle over state no single operation shows.
    ///
    /// # Errors
    /// The violated invariant.
    fn audit(&mut self) -> Result<(), String> {
        Ok(())
    }

    /// The network every party of the rig shares.
    fn net(&self) -> &Network;

    /// Machine ids of the generator's own RPC clients: their
    /// transactions are the ones the stage table follows.
    fn client_machines(&self) -> Vec<u32>;

    /// Workload-specific layer figures, for the traced pass.
    fn layer_figures(&self) -> Vec<(&'static str, f64)> {
        Vec::new()
    }

    fn stop(self: Box<Self>);
}

struct Echo {
    rig: rig::Echo,
    seq: u64,
}

impl Workload for Echo {
    fn op(&mut self) -> Result<Duration, String> {
        self.seq += 1;
        let params = wire::Writer::new().u64(self.seq).finish();
        let t0 = Instant::now();
        let reply = self
            .rig
            .client
            .call_anonymous(self.rig.port, rig::ECHO_COMMAND, params);
        let took = t0.elapsed();
        match reply {
            Ok(body) if body[..] == self.seq.to_be_bytes() => Ok(took),
            Ok(body) => Err(format!("echo {} came back as {body:?}", self.seq)),
            Err(e) => Err(format!("echo {}: {e}", self.seq)),
        }
    }

    fn net(&self) -> &Network {
        &self.rig.net
    }

    fn client_machines(&self) -> Vec<u32> {
        vec![machine_of(&self.rig.client)]
    }

    fn stop(self: Box<Self>) {
        self.rig.stop();
    }
}

/// Wallet and server account must end where they started: every paid
/// create is refunded in full by its destroy.
fn conserved((wallet, server): (u64, u64)) -> Result<(), String> {
    if (wallet, server) == (rig::MINTED, 0) {
        Ok(())
    } else {
        Err(format!(
            "bank conservation: wallet {wallet} + server {server}, minted {}",
            rig::MINTED
        ))
    }
}

struct MeteredCreate {
    rig: rig::Metered,
}

impl Workload for MeteredCreate {
    fn op(&mut self) -> Result<Duration, String> {
        let t0 = Instant::now();
        let cap = self
            .rig
            .fs
            .create_paid(&self.rig.wallet, 1)
            .map_err(|e| format!("create_paid: {e}"))?;
        self.rig
            .fs
            .destroy(&cap)
            .map_err(|e| format!("destroy: {e}"))?;
        Ok(t0.elapsed())
    }

    fn audit(&mut self) -> Result<(), String> {
        conserved(self.rig.balances())
    }

    fn net(&self) -> &Network {
        &self.rig.net
    }

    fn client_machines(&self) -> Vec<u32> {
        vec![machine_of(self.rig.fs.service())]
    }

    fn stop(self: Box<Self>) {
        self.rig.stop();
    }
}

struct VfsRead {
    rig: rig::Vfs,
    picks: Vec<u16>,
    cursor: usize,
    /// Leaf index → (path from the root, entered capability, content
    /// key); empty until the fixtures are loaded.
    leaves: Vec<(String, Capability, u64)>,
    file_words: Vec<u64>,
    resolves: u64,
    cache_hits: u64,
    /// Whether to probe the cache before each resolve (traced pass).
    count_hits: bool,
}

impl VfsRead {
    fn build(inputs: &Inputs, count_hits: bool) -> VfsRead {
        // One 8-block extent per leaf, plus slack.
        let blocks = (LEAVES * READ_BYTES) as u32 / rig::BLOCK_SIZE;
        VfsRead {
            rig: rig::Vfs::build(blocks + 1024),
            picks: inputs.leaf_picks.clone(),
            cursor: 0,
            leaves: Vec::new(),
            file_words: inputs.file_words.clone(),
            resolves: 0,
            cache_hits: 0,
            count_hits,
        }
    }
}

impl Workload for VfsRead {
    fn load_fixtures(&mut self) {
        let rig = &self.rig;
        self.leaves = (0..LEAVES)
            .map(|i| {
                let word = self.file_words[i];
                let cap = rig.fs.create().expect("leaf file");
                rig.fs
                    .write(&cap, 0, &content(word, READ_BYTES))
                    .expect("leaf content");
                let name = format!("f{i}");
                rig.dirs
                    .enter(&rig.leaf_dir, &name, &cap)
                    .expect("enter leaf");
                (format!("{}/{name}", rig.dir_path), cap, word)
            })
            .collect();
    }

    fn op(&mut self) -> Result<Duration, String> {
        let (path, entered, word) = &self.leaves[usize::from(self.picks[self.cursor])];
        self.cursor = (self.cursor + 1) % self.picks.len();
        if self.count_hits {
            let cache = self.rig.dirs.cache().expect("cache is on");
            self.resolves += 1;
            if cache
                .get(&self.rig.root, path, self.rig.net.now())
                .is_some()
            {
                self.cache_hits += 1;
            }
        }
        let t0 = Instant::now();
        let cap = self
            .rig
            .dirs
            .resolve(&self.rig.root, path)
            .map_err(|e| format!("resolve {path}: {e}"))?;
        let data = self
            .rig
            .fs
            .read(&cap, 0, READ_BYTES as u32)
            .map_err(|e| format!("read {path}: {e}"))?;
        let took = t0.elapsed();
        if cap != *entered {
            return Err(format!("{path} resolved to a capability never entered"));
        }
        if !content_matches(&data, *word, READ_BYTES) {
            return Err(format!("{path} read back different bytes"));
        }
        Ok(took)
    }

    fn net(&self) -> &Network {
        &self.rig.net
    }

    fn client_machines(&self) -> Vec<u32> {
        self.rig.client_machines()
    }

    fn layer_figures(&self) -> Vec<(&'static str, f64)> {
        let share = self.cache_hits as f64 / self.resolves.max(1) as f64;
        vec![("dirsvr.cache_hit_share", share)]
    }

    fn stop(self: Box<Self>) {
        self.rig.stop();
    }
}

struct VfsWrite {
    rig: rig::Vfs,
    /// The oracle's own clients: what was written must be there for a
    /// second machine, not only for the writer.
    check_dirs: DirClient,
    check_fs: FlatFsClient,
    /// (entry name, payload, content key), cycled.
    variants: Vec<(String, Vec<u8>, u64)>,
    cursor: usize,
}

impl VfsWrite {
    fn build(inputs: &Inputs) -> VfsWrite {
        let variants = (0..WRITE_VARIANTS)
            .map(|v| {
                let word = inputs.file_words[v];
                (format!("w{v}"), content(word, WRITE_BYTES), word)
            })
            .collect();
        // One file lives at a time; the slack absorbs extent rounding.
        let rig = rig::Vfs::build(4 * WRITE_BYTES as u32 / rig::BLOCK_SIZE);
        VfsWrite {
            check_dirs: rig.uncached_dirs(),
            check_fs: rig.second_fs(),
            rig,
            variants,
            cursor: 0,
        }
    }
}

impl Workload for VfsWrite {
    fn op(&mut self) -> Result<Duration, String> {
        let (name, payload, word) = &self.variants[self.cursor];
        self.cursor = (self.cursor + 1) % self.variants.len();
        let (fs, dirs, dir) = (&self.rig.fs, &self.rig.dirs, &self.rig.leaf_dir);

        let t0 = Instant::now();
        let cap = fs.create().map_err(|e| format!("create: {e}"))?;
        fs.write(&cap, 0, payload)
            .map_err(|e| format!("write: {e}"))?;
        dirs.enter(dir, name, &cap)
            .map_err(|e| format!("enter {name}: {e}"))?;
        let made = t0.elapsed();

        let found = self
            .check_dirs
            .lookup(dir, name)
            .map_err(|e| format!("lookup {name}: {e}"))?;
        let back = self
            .check_fs
            .read(&found, 0, WRITE_BYTES as u32)
            .map_err(|e| format!("read back {name}: {e}"))?;

        let t1 = Instant::now();
        dirs.remove(dir, name)
            .map_err(|e| format!("remove {name}: {e}"))?;
        fs.destroy(&cap).map_err(|e| format!("destroy: {e}"))?;
        let took = made + t1.elapsed();

        if found != cap {
            return Err(format!("{name} looked up to a capability never entered"));
        }
        if !content_matches(&back, *word, WRITE_BYTES) {
            return Err(format!("{name} read back different bytes"));
        }
        Ok(took)
    }

    fn net(&self) -> &Network {
        &self.rig.net
    }

    fn client_machines(&self) -> Vec<u32> {
        self.rig.client_machines()
    }

    fn stop(self: Box<Self>) {
        self.rig.stop();
    }
}

struct ClusterZipf {
    rig: rig::Cluster,
    picks: Vec<u16>,
    cursor: usize,
}

impl Workload for ClusterZipf {
    fn op(&mut self) -> Result<Duration, String> {
        let rank = usize::from(self.picks[self.cursor]);
        self.cursor = (self.cursor + 1) % self.picks.len();
        let client = &self.rig.client;
        let anchor = &self.rig.anchors[rank];
        let read = wire::Writer::new().u64(0).u32(8).finish();
        let pay = wire::Writer::new().cap(&self.rig.wallet).u64(1).finish();

        let t0 = Instant::now();
        let content = client
            .call(anchor, fs_ops::READ, read)
            .map_err(|e| format!("tenant {rank} read: {e}"))?;
        let body = client
            .service()
            .call_anonymous(self.rig.tenant_port(rank), fs_ops::CREATE, pay)
            .map_err(|e| format!("tenant {rank} create: {e}"))?;
        let cap = wire::Reader::new(&body)
            .cap()
            .ok_or_else(|| format!("tenant {rank} create: malformed reply"))?;
        client
            .call(&cap, fs_ops::DESTROY, Bytes::new())
            .map_err(|e| format!("tenant {rank} destroy: {e}"))?;
        let took = t0.elapsed();

        if content[..] != (rank as u64).to_le_bytes() {
            return Err(format!("tenant {rank} anchor read back {content:?}"));
        }
        Ok(took)
    }

    fn audit(&mut self) -> Result<(), String> {
        // Anchors stay paid for (one unit each) for the rig's lifetime.
        let (wallet, server) = self.rig.balances();
        conserved((wallet + rig::TENANTS as u64, server - rig::TENANTS as u64))
    }

    fn net(&self) -> &Network {
        &self.rig.net
    }

    fn client_machines(&self) -> Vec<u32> {
        vec![machine_of(self.rig.client.service())]
    }

    fn layer_figures(&self) -> Vec<(&'static str, f64)> {
        vec![
            (
                "cluster.migrate_ms",
                self.rig.migrate_time.as_secs_f64() * 1e3,
            ),
            (
                "cluster.migrate_chunks",
                f64::from(self.rig.migration.chunks),
            ),
            (
                "cluster.forward_first_us",
                self.rig.forward_probe[0].as_secs_f64() * 1e6,
            ),
            (
                "cluster.forward_repeat_ms",
                self.rig.forward_probe[1].as_secs_f64() * 1e3,
            ),
        ]
    }

    fn stop(self: Box<Self>) {
        self.rig.stop();
    }
}

/// Builds workload `name` under its placement: server threads on the
/// placement's server core, the calling (generator) thread on the first
/// core. `traced` switches the flight recorder on once the rig stands
/// (set-up traffic is not recorded) and enables the harness-side counts
/// and probes only the traced pass reports.
///
/// # Panics
/// Panics if `name` is not a threaded workload.
pub fn build(name: &str, inputs: &Inputs, cores: &Cores, traced: bool) -> Box<dyn Workload> {
    let placement = match name {
        "echo_2c" => Placement::SplitCores,
        _ => Placement::OneCore,
    };
    pin_current_thread(&[cores.server_core(placement)]);
    let workload: Box<dyn Workload> = match name {
        "echo" | "echo_2c" => Box::new(Echo {
            rig: rig::Echo::build(),
            seq: inputs.echo_base,
        }),
        "metered_create" => Box::new(MeteredCreate {
            rig: rig::Metered::build(),
        }),
        "vfs_read" => Box::new(VfsRead::build(inputs, traced)),
        "vfs_write" => Box::new(VfsWrite::build(inputs)),
        "cluster_zipf" => Box::new(ClusterZipf {
            rig: rig::Cluster::build(traced),
            picks: inputs.tenant_picks.clone(),
            cursor: 0,
        }),
        other => panic!("no threaded workload named {other}"),
    };
    pin_current_thread(&[cores.first]);
    if traced {
        workload.net().obs().enable();
    }
    workload
}

/// What one measured window saw.
pub struct Window {
    /// Per-operation latency, nanoseconds, in completion order.
    pub latencies_ns: Vec<u64>,
    pub attempted: u64,
    pub failed: u64,
    pub frames: StatsSnapshot,
    pub hot: HotPathSnapshot,
    pub host: HostDelta,
    /// The recorder's metrics at the window's start and end, when it
    /// is on.
    pub recorder: Option<(MetricsSnapshot, MetricsSnapshot)>,
    /// First few failure messages, for stderr.
    pub failures: Vec<String>,
}

/// Ceil-rank percentile of unsorted latencies, µs; 0 when empty.
pub fn percentile_us(latencies_ns: &[u64], per_mille: u64) -> f64 {
    if latencies_ns.is_empty() {
        return 0.0;
    }
    let mut sorted = latencies_ns.to_vec();
    sorted.sort_unstable();
    stats::percentile(&sorted, per_mille) as f64 / 1e3
}

/// Operations per second of their own summed time.
fn per_second(latencies_ns: &[u64]) -> f64 {
    latencies_ns.len() as f64 * 1e9 / latencies_ns.iter().sum::<u64>().max(1) as f64
}

/// Operations per slice of [`Window::quiet`]: 0.3 ms of `echo`, 4 ms of
/// `vfs_write`. A busy host leaves stretches of a few milliseconds
/// alone, rarely tens (measured: 512-operation slices of `vfs_write`,
/// 33 ms, found no quiet slice in 14 of 20 runs).
const SLICE_OPS: usize = 64;
/// A slice counts as quiet while its lower-quartile latency is within
/// this share of the quietest slices'. A busy host costs a quarter or
/// more, so the margin only has to clear sampling noise.
const QUIET_MARGIN: f64 = 0.05;

/// The window's operations that ran while the host left the process
/// alone; see [`Window::quiet`].
pub struct Quiet {
    /// Median latency over the quiet slices' operations, µs.
    pub p50_us: f64,
    /// Those operations per second of their summed time.
    pub ops_per_s: f64,
    /// Share of the window's slices that counted as quiet.
    pub slice_share: f64,
}

impl Window {
    pub fn ops_per_s(&self) -> f64 {
        per_second(&self.latencies_ns)
    }

    pub fn percentile_us(&self, per_mille: u64) -> f64 {
        percentile_us(&self.latencies_ns, per_mille)
    }

    /// What the system does when the host leaves it alone.
    ///
    /// The whole-window median does not repeat on a shared host: it sits
    /// at one level for minutes, then a third higher for minutes
    /// (measured, see the README), because a neighbour slows most —
    /// never all — of the window. So the window is cut into slices of
    /// [`SLICE_OPS`] consecutive operations, each slice is judged by its
    /// lower-quartile latency — its cheap operations, which say how fast
    /// the host was and little about which operations the slice drew —
    /// and the slices within [`QUIET_MARGIN`] of the quietest (the 1st
    /// percentile of that figure) are pooled. On a quiet host that is
    /// nearly every slice and the result is the plain median and
    /// throughput; on a busy one it is the few per cent the neighbour
    /// missed, which keep reading the same.
    pub fn quiet(&self) -> Quiet {
        let slices: Vec<(&[u64], u64)> = self
            .latencies_ns
            .chunks_exact(SLICE_OPS)
            .map(|slice| {
                let mut sorted = slice.to_vec();
                sorted.sort_unstable();
                (slice, stats::percentile(&sorted, 250))
            })
            .collect();
        if slices.is_empty() {
            return Quiet {
                p50_us: self.percentile_us(500),
                ops_per_s: self.ops_per_s(),
                slice_share: 1.0,
            };
        }
        let mut speeds: Vec<u64> = slices.iter().map(|(_, speed)| *speed).collect();
        speeds.sort_unstable();
        let limit = stats::percentile(&speeds, 10) as f64 * (1.0 + QUIET_MARGIN);
        let pooled: Vec<u64> = slices
            .iter()
            .filter(|(_, speed)| *speed as f64 <= limit)
            .flat_map(|(slice, _)| slice.iter().copied())
            .collect();
        Quiet {
            p50_us: percentile_us(&pooled, 500),
            ops_per_s: per_second(&pooled),
            slice_share: (pooled.len() / SLICE_OPS) as f64 / slices.len() as f64,
        }
    }
}

/// Warms `workload` up for `warm_up`, then measures it for `window`.
pub fn drive(
    workload: &mut dyn Workload,
    cores: &Cores,
    warm_up: Duration,
    window: Duration,
) -> Window {
    let mut failures = Vec::new();
    let note = |failures: &mut Vec<String>, message: String| {
        if failures.len() < 5 {
            failures.push(message);
        }
    };
    let warm_end = Instant::now() + warm_up;
    let mut warm_ops = 0u64;
    while Instant::now() < warm_end {
        if let Err(e) = workload.op() {
            note(&mut failures, format!("warm-up: {e}"));
        }
        warm_ops += 1;
    }
    // Sized from the warm-up rate so the window never reallocates.
    let expected = warm_ops as f64 * window.as_secs_f64() / warm_up.as_secs_f64().max(1e-9);
    let mut latencies_ns = Vec::with_capacity((expected * 1.5) as usize + 1024);

    let frames0 = workload.net().stats().snapshot();
    let hot0 = workload.net().hot_path();
    let recorder0 = workload.net().obs().snapshot();
    let host0 = HostSample::now();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let end = Instant::now() + window;
    while Instant::now() < end {
        attempted += 1;
        match workload.op() {
            Ok(took) => latencies_ns.push(took.as_nanos() as u64),
            Err(e) => {
                failed += 1;
                note(&mut failures, e);
            }
        }
    }
    let host = HostSample::now().since(&host0, cores.allowed);
    let recorder = recorder0.zip(workload.net().obs().snapshot());
    let hot = workload.net().hot_path() - hot0;
    let frames = workload.net().stats().snapshot() - frames0;
    if let Err(e) = workload.audit() {
        failed += 1;
        note(&mut failures, e);
    }
    Window {
        latencies_ns,
        attempted,
        failed,
        frames,
        hot,
        host,
        recorder,
        failures,
    }
}
