//! The benchmark's contract: workloads, metrics, units, directions and
//! regression bounds. `BENCHMARK.json` at the repository root is this
//! module's output (`amoeba-benchmark manifest`), and every result line
//! is checked against these tables before it is printed.

/// How long one run measures, seconds.
pub const RUN_SECONDS: u32 = 10;

/// How the driver invokes one run (it appends `--workload … --seed …
/// --seconds … --trace …`).
const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];

/// (name, why it is in the set).
pub const WORKLOADS: [(&str, &str); 7] = [
    (
        "echo",
        "null service, all threads on one core: net + rpc + server dispatch per message is the whole op, so a transport or dispatch change shows here first and undiluted",
    ),
    (
        "echo_2c",
        "the same loop with client and server on different cores: the only place the cross-core hand-off is an end-to-end quantity; expected to resolve only large changes",
    ),
    (
        "metered_create",
        "the paper's 3.6 op behind hardware F-boxes: paid create, nested bank transfer, destroy; exercises fbox, core, ObjectTable, bank, flatfs and the server-as-client path",
    ),
    (
        "vfs_read",
        "Zipf(1.0) over 4096 leaves of a depth-8 tree on two directory servers, resolve through a 512-slot cache then a 4 KiB block-backed read; bypasses minting and the bank",
    ),
    (
        "vfs_write",
        "the VFS layers used the other way: create, 64-block extent write, enter, remove, destroy; shows a read-side gain bought with write-side cost",
    ),
    (
        "cluster_zipf",
        "16 Zipf(1.0) tenants on a 4-replica elastic cluster of metered flatfs after one live shard migration; guards shard routing, which metered_create bypasses",
    ),
    (
        "swarm_sim",
        "100 000 open-loop clients on the single-threaded simulator, latency in modelled time: no threads, so a hand-off change must leave it unmoved and a protocol change moves it exactly",
    ),
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median the metric may worsen by.
    pub bound: f64,
}

/// Reported by every workload on `--trace 0`. On the threaded workloads
/// the `quiet_` pair is wall-clock time over the window's
/// quiet slices (`Window::quiet` in `workloads.rs`); on `swarm_sim` it
/// is modelled time, which nothing disturbs: the median latency and the
/// completed transactions per modelled second, exact for a given seed.
pub const END_TO_END: [EndToEnd; 3] = [
    EndToEnd {
        name: "quiet_p50_us",
        unit: "us",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "quiet_ops_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
];

pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> Layer {
    Layer { name, unit, better }
}

/// Reported by every workload on `--trace 1`. The micro-timings (first
/// block) are the same loops whatever the workload; the rest describe
/// the workload's own traced window and read 0 where a layer is not in
/// the workload's path. The README says which end-to-end metric each
/// should move, on which workload.
pub const PER_LAYER: [Layer; 66] = [
    layer("crypto.sha_oneway_ns", "ns", "lower"),
    layer("core.mint_ns", "ns", "lower"),
    layer("core.validate_ns", "ns", "lower"),
    layer("core.restrict_ns", "ns", "lower"),
    layer("core.diminish_ns", "ns", "lower"),
    layer("fbox.put_port_hit_ns", "ns", "lower"),
    layer("net.send_recv_ns", "ns", "lower"),
    layer("net.pool_take_retire_ns", "ns", "lower"),
    layer("net.handoff_1c_us", "us", "lower"),
    layer("net.handoff_2c_us", "us", "lower"),
    layer("rpc.frame_encode_ns", "ns", "lower"),
    layer("rpc.frame_decode_ns", "ns", "lower"),
    layer("rpc.trans_us", "us", "lower"),
    layer("server.table_validate_ns", "ns", "lower"),
    layer("server.table_create_delete_ns", "ns", "lower"),
    layer("server.dispatch_self_us", "us", "lower"),
    layer("bank.transfer_us", "us", "lower"),
    layer("flatfs.create_destroy_us", "us", "lower"),
    layer("flatfs.read_4k_us", "us", "lower"),
    layer("flatfs.write_64blk_us", "us", "lower"),
    layer("block.read_many_us", "us", "lower"),
    layer("block.alloc_n_us", "us", "lower"),
    layer("dirsvr.resolve_d8_us", "us", "lower"),
    layer("dirsvr.lookup_us", "us", "lower"),
    layer("dirsvr.enter_remove_us", "us", "lower"),
    layer("dirsvr.cache_hit_ns", "ns", "lower"),
    layer("cluster.route_ns", "ns", "lower"),
    // The workload's own window: counts per operation.
    layer("net.frames_per_op", "count", "lower"),
    layer("net.bytes_per_op", "count", "lower"),
    layer("net.allocs_per_op", "count", "lower"),
    layer("net.locks_per_op", "count", "lower"),
    layer("fbox.evals_per_op", "count", "lower"),
    layer("rpc.trans_per_op", "count", "lower"),
    layer("rpc.retransmits", "count", "lower"),
    layer("rpc.demux_overflows", "count", "lower"),
    layer("rpc.reply_port_recycled_share", "share", "higher"),
    layer("dirsvr.cache_hit_share", "share", "higher"),
    layer("cluster.forwarded_share", "share", "lower"),
    layer("cluster.migrate_ms", "ms", "lower"),
    layer("cluster.migrate_chunks", "count", "lower"),
    layer("cluster.forward_first_us", "us", "lower"),
    layer("cluster.forward_repeat_ms", "ms", "lower"),
    // The simulator (swarm_sim only).
    layer("sim.model_p99_us", "us", "lower"),
    layer("sim.model_p999_us", "us", "lower"),
    layer("sim.timeouts", "count", "lower"),
    layer("sim.events", "count", "lower"),
    layer("sim.event_hash", "count", "lower"),
    layer("sim.events_per_s", "1/s", "higher"),
    // Where a transaction's time went (traced window).
    layer("stage.encode_us", "us", "lower"),
    layer("stage.wire_us", "us", "lower"),
    layer("stage.pump_us", "us", "lower"),
    layer("stage.handler_us", "us", "lower"),
    layer("stage.reply_demux_us", "us", "lower"),
    layer("stage.wake_us", "us", "lower"),
    layer("stage.unattributed_us", "us", "lower"),
    layer("stage.transactions", "count", "higher"),
    // Diagnostics and run validity.
    layer("client.p50_us", "us", "lower"),
    layer("client.p99_us", "us", "lower"),
    layer("client.ops_per_s", "1/s", "higher"),
    layer("client.samples", "count", "higher"),
    layer("host.disturbed_share", "share", "lower"),
    layer("proc.cores_busy", "cores", "lower"),
    layer("obs.overhead_share", "share", "lower"),
    layer("obs.ring_overwritten", "count", "lower"),
    layer("host.steal_share", "share", "lower"),
    layer("host.psi_cpu_some", "share", "lower"),
];

fn quoted(s: &str) -> String {
    format!("\"{s}\"")
}

/// The text of `BENCHMARK.json`.
pub fn manifest() -> String {
    let command: Vec<String> = COMMAND.iter().map(|s| quoted(s)).collect();
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|(name, why)| format!("    {{\"name\": \"{name}\", \"why\": \"{why}\"}}"))
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name, m.unit, m.better, m.bound
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name, m.unit, m.better
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \
         \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        command.join(", "),
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n"),
    )
}

/// One run's result, as the last line of standard output.
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub values: Vec<(&'static str, f64)>,
}

impl Report {
    /// Formats the result line for `traced` (per-layer) or not
    /// (end-to-end).
    ///
    /// # Panics
    /// Panics if `values` is not exactly the metric set the contract
    /// names for this kind of run — a harness bug, caught before a
    /// malformed line can be scored.
    pub fn line(&self, traced: bool) -> String {
        let spec: Vec<(&str, &str)> = if traced {
            PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
        } else {
            END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
        };
        for (name, _) in &self.values {
            assert!(
                spec.iter().any(|(n, _)| n == name),
                "{name} is reported but not in the contract"
            );
        }
        let metrics: Vec<String> = spec
            .iter()
            .map(|(name, unit)| {
                let value = self
                    .values
                    .iter()
                    .find(|(n, _)| n == name)
                    .unwrap_or_else(|| panic!("{name} is in the contract but was not measured"))
                    .1;
                assert!(value.is_finite(), "{name} measured as {value}");
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}
