//! The repository's benchmark. See `README.md` beside `Cargo.toml`.
//!
//! One run (what `BENCHMARK.json` names, and what every other mode
//! spawns as a child process):
//!
//! ```text
//! amoeba-benchmark --workload <name> --seed <u64> --seconds <n> --trace <0|1>
//! ```
//!
//! prints, as the last line of standard output, one JSON object with
//! the end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). The other modes:
//!
//! ```text
//! amoeba-benchmark run    --seed <u64>            every workload, end to end
//! amoeba-benchmark trace  --seed <u64>            every workload, per layer
//! amoeba-benchmark repeat --sets 2 --runs 5       spreads the bounds are set from
//! amoeba-benchmark manifest                       the text of BENCHMARK.json
//! ```

mod gen;
mod layers;
mod place;
mod repeat;
mod rig;
mod spec;
mod stages;
mod stats;
mod swarm;
mod workloads;

use amoeba_net::MetricsSnapshot;
use place::Cores;
use spec::Report;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workloads::{Inputs, Window, Workload};

/// Warm-up before a timed window: caches, memo tables, route caches and
/// buffer pools reach steady state. Not part of `--seconds`.
const WARM_UP: Duration = Duration::from_secs(1);
/// Set-ups per run: `setup_s` is the quickest of them. Rigs are rebuilt
/// until this many or [`SETUP_BUDGET`], whichever comes first.
const SETUPS: usize = 40;
const MIN_SETUPS: usize = 3;
const SETUP_BUDGET: Duration = Duration::from_millis(2000);

/// `--key value` pairs after the mode word.
struct Args(Vec<String>);

impl Args {
    fn get(&self, key: &str) -> Option<&str> {
        self.0
            .iter()
            .position(|a| a == key)
            .and_then(|i| self.0.get(i + 1))
            .map(String::as_str)
    }

    fn number<T: std::str::FromStr>(&self, key: &str, default: Option<T>) -> Result<T, String> {
        match self.get(key) {
            Some(raw) => raw
                .parse()
                .map_err(|_| format!("{key} {raw}: not a valid number")),
            None => default.ok_or_else(|| format!("missing {key}")),
        }
    }
}

/// The per-layer figures of one traced run, by metric name.
struct Figures(Vec<(&'static str, f64)>);

impl Figures {
    /// Every per-layer metric at 0 — what a layer outside the
    /// workload's path reads — then the micro-loops' timings.
    fn with_micro_loops(cores: &Cores) -> Figures {
        let mut figures = Figures(spec::PER_LAYER.iter().map(|m| (m.name, 0.0)).collect());
        figures.set_all(layers::measure(cores));
        figures
    }

    fn set(&mut self, name: &str, value: f64) {
        self.0
            .iter_mut()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("{name} is not a per-layer metric"))
            .1 = value;
    }

    fn set_all(&mut self, figures: Vec<(&'static str, f64)>) {
        for (name, value) in figures {
            self.set(name, value);
        }
    }

    fn set_host(&mut self, host: &place::HostDelta) {
        self.set("proc.cores_busy", host.cores_busy);
        self.set("host.steal_share", host.steal_share);
        self.set("host.psi_cpu_some", host.psi_cpu_some);
    }

    /// The recorder's counters between two snapshots, over `ops`
    /// operations.
    fn set_recorder(&mut self, before: &MetricsSnapshot, after: &MetricsSnapshot, ops: f64) {
        let ports = [
            after.reply_ports_fresh - before.reply_ports_fresh,
            after.reply_ports_recycled - before.reply_ports_recycled,
            after.reply_ports_leased - before.reply_ports_leased,
        ];
        let recycled = ports[1] as f64 / ports.iter().sum::<u64>().max(1) as f64;
        let started = (after.trans_started - before.trans_started) as f64;
        self.set("rpc.trans_per_op", started / ops);
        self.set(
            "rpc.retransmits",
            (after.retransmits - before.retransmits) as f64,
        );
        self.set(
            "rpc.demux_overflows",
            (after.demux_overflows - before.demux_overflows) as f64,
        );
        self.set("rpc.reply_port_recycled_share", recycled);
    }
}

fn complain(window: &Window) {
    for failure in &window.failures {
        eprintln!("benchmark: {failure}");
    }
}

/// Builds the workload's rig [`MIN_SETUPS`]..=[`SETUPS`] times and keeps
/// the last, fixtures loaded; returns it with the quickest build,
/// seconds. The quickest, not the median: a build is one measurement of
/// tens of microseconds to a few milliseconds (servers spawned, clients
/// attached, directory chain or cluster made), fully exposed to a busy
/// host, and only the host can make it slower than the program makes it.
fn set_up(name: &str, inputs: &Inputs, cores: &Cores) -> (Box<dyn Workload>, f64) {
    let started = Instant::now();
    let (mut quickest, mut count) = (f64::MAX, 0);
    loop {
        let t0 = Instant::now();
        let mut workload = workloads::build(name, inputs, cores, false);
        quickest = quickest.min(t0.elapsed().as_secs_f64());
        count += 1;
        if count >= SETUPS || (count >= MIN_SETUPS && started.elapsed() >= SETUP_BUDGET) {
            workload.load_fixtures();
            return (workload, quickest);
        }
        workload.stop();
    }
}

/// `--trace 0` on a threaded workload.
fn timed_run(name: &str, seed: u64, seconds: f64, cores: &Cores) -> Report {
    let (mut workload, setup_s) = set_up(name, &Inputs::generate(seed), cores);
    let window = workloads::drive(
        &mut *workload,
        cores,
        WARM_UP,
        Duration::from_secs_f64(seconds),
    );
    workload.stop();
    complain(&window);
    let quiet = window.quiet();
    Report {
        correct: window.failed == 0 && !window.latencies_ns.is_empty(),
        attempted: window.attempted.max(1),
        failed: window.failed,
        values: vec![
            ("quiet_p50_us", quiet.p50_us),
            ("quiet_ops_per_s", quiet.ops_per_s),
            ("setup_s", setup_s),
        ],
    }
}

/// `--trace 1` on a threaded workload: the micro-loops, then half the
/// window untraced and half with the flight recorder on.
fn traced_run(name: &str, seed: u64, seconds: f64, cores: &Cores) -> Report {
    let mut figures = Figures::with_micro_loops(cores);
    let inputs = Inputs::generate(seed);
    let half = Duration::from_secs_f64(seconds / 2.0);

    let mut plain = workloads::build(name, &inputs, cores, false);
    plain.load_fixtures();
    let untraced = workloads::drive(&mut *plain, cores, WARM_UP, half);
    plain.stop();
    complain(&untraced);

    let mut workload = workloads::build(name, &inputs, cores, true);
    workload.load_fixtures();
    let traced = workloads::drive(&mut *workload, cores, WARM_UP, half);
    let (before, after) = traced.recorder.expect("recorder is on");
    let table = stages::table(&workload.net().obs().events(), &workload.client_machines());
    figures.set_all(workload.layer_figures());
    workload.stop();
    complain(&traced);

    // Counts per operation come from the untraced half (the recorder
    // sends nothing, but it costs time); recorder-only figures from the
    // traced half.
    let ops = untraced.latencies_ns.len().max(1) as f64;
    figures.set(
        "net.frames_per_op",
        untraced.frames.packets_sent as f64 / ops,
    );
    figures.set("net.bytes_per_op", untraced.frames.bytes_sent as f64 / ops);
    figures.set("net.allocs_per_op", untraced.hot.buffer_allocs as f64 / ops);
    figures.set(
        "net.locks_per_op",
        untraced.hot.lock_acquisitions as f64 / ops,
    );
    figures.set("fbox.evals_per_op", untraced.hot.oneway_evals as f64 / ops);
    figures.set("client.p50_us", untraced.percentile_us(500));
    figures.set("client.p99_us", untraced.percentile_us(990));
    figures.set("client.ops_per_s", untraced.ops_per_s());
    figures.set("client.samples", untraced.latencies_ns.len() as f64);
    figures.set("host.disturbed_share", 1.0 - untraced.quiet().slice_share);
    figures.set_host(&untraced.host);

    let traced_ops = traced.latencies_ns.len().max(1) as f64;
    figures.set_recorder(&before, &after, traced_ops);
    figures.set("cluster.forwarded_share", table.forwarded_share);
    figures.set(
        "obs.overhead_share",
        1.0 - traced.ops_per_s() / untraced.ops_per_s(),
    );
    figures.set("obs.ring_overwritten", table.overwritten as f64);

    // Stage rows, scaled from one transaction to one operation by how
    // many transactions the generator itself starts per operation.
    let started = (after.trans_started - before.trans_started) as f64;
    let own_trans_per_op = table.client_share * started / traced_ops;
    let mut attributed = 0.0;
    for (stage, mean_us) in stages::STAGES.iter().zip(table.means_us) {
        let per_op = mean_us * own_trans_per_op;
        attributed += per_op;
        figures.set(stage, per_op);
    }
    // Compared with the median of the very operations the ring still
    // holds (the window's last ones), so both sides saw the same host.
    let held = (table.transactions as f64 / own_trans_per_op.max(1e-9)) as usize;
    let tail = &traced.latencies_ns[traced.latencies_ns.len().saturating_sub(held.max(1))..];
    figures.set(
        "stage.unattributed_us",
        workloads::percentile_us(tail, 500) - attributed,
    );
    figures.set("stage.transactions", table.transactions as f64);

    Report {
        correct: untraced.failed + traced.failed == 0,
        attempted: (untraced.attempted + traced.attempted).max(1),
        failed: untraced.failed + traced.failed,
        values: figures.0,
    }
}

/// `swarm_sim`, either kind of run: the same schedule repeated until
/// the window is spent (at least twice), every repetition required to
/// reproduce the first event for event.
fn swarm_run(seed: u64, seconds: f64, traced: bool, cores: &Cores) -> Report {
    place::pin_current_thread(&[cores.first]);
    let micro_loops = traced.then(|| Figures::with_micro_loops(cores));
    let schedule = swarm::Schedule::generate(seed);
    let host0 = place::HostSample::now();
    let started = Instant::now();
    let first = swarm::run(&schedule, traced);
    let mut quickest_setup = first.setup;
    let mut walls = vec![first.wall.as_secs_f64()];
    let mut diverged = 0u64;
    while walls.len() < 2 || started.elapsed().as_secs_f64() < seconds {
        let again = swarm::run(&schedule, traced);
        if again.outcome != first.outcome {
            diverged += 1;
            eprintln!(
                "benchmark: repetition {} diverged: hash {:#x} vs {:#x}, {} vs {} events",
                walls.len(),
                again.outcome.event_hash,
                first.outcome.event_hash,
                again.outcome.events,
                first.outcome.events,
            );
        }
        quickest_setup = quickest_setup.min(again.setup);
        walls.push(again.wall.as_secs_f64());
    }
    let host = place::HostSample::now().since(&host0, cores.allowed);

    let outcome = &first.outcome;
    let completed = outcome.latencies_ns.len();
    let repetitions = walls.len() as u64;
    let unfinished = (swarm::CLIENTS - completed) as u64 * repetitions;
    let us = |per_mille| stats::percentile(&outcome.latencies_ns, per_mille) as f64 / 1e3;
    let goodput = completed as f64 / outcome.model_elapsed.as_secs_f64();
    let values = match micro_loops {
        None => vec![
            ("quiet_p50_us", us(500)),
            ("quiet_ops_per_s", goodput),
            ("setup_s", quickest_setup.as_secs_f64()),
        ],
        Some(mut figures) => {
            let clients = swarm::CLIENTS as f64;
            let recorded = first.metrics.expect("recorder was on");
            figures.set_recorder(&MetricsSnapshot::default(), &recorded, clients);
            figures.set(
                "net.frames_per_op",
                first.frames.packets_sent as f64 / clients,
            );
            figures.set("net.bytes_per_op", first.frames.bytes_sent as f64 / clients);
            figures.set("sim.model_p99_us", us(990));
            figures.set("sim.model_p999_us", us(999));
            figures.set("sim.timeouts", outcome.timeouts as f64);
            figures.set("sim.events", outcome.events as f64);
            // A JSON number holds 53 bits exactly; the low 52 identify a run.
            figures.set(
                "sim.event_hash",
                (outcome.event_hash & ((1 << 52) - 1)) as f64,
            );
            figures.set(
                "sim.events_per_s",
                outcome.events as f64 / stats::median(&walls),
            );
            figures.set("client.p50_us", us(500));
            figures.set("client.p99_us", us(990));
            figures.set("client.ops_per_s", goodput);
            figures.set("client.samples", completed as f64);
            figures.set_host(&host);
            figures.0
        }
    };
    Report {
        correct: diverged == 0 && unfinished == 0,
        attempted: swarm::CLIENTS as u64 * repetitions,
        failed: unfinished + diverged * swarm::CLIENTS as u64,
        values,
    }
}

/// One run, as `BENCHMARK.json` describes it.
fn single(args: &Args) -> Result<(), String> {
    let name = args.get("--workload").ok_or("missing --workload")?;
    if !spec::WORKLOADS.iter().any(|(n, _)| *n == name) {
        return Err(format!("no workload named {name}"));
    }
    let seed: u64 = args.number("--seed", None)?;
    let seconds: f64 = args.number("--seconds", Some(f64::from(spec::RUN_SECONDS)))?;
    let traced = match args.get("--trace") {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace {other}: expected 0 or 1")),
    };
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err(format!("--seconds {seconds}: expected 0 < n <= 60"));
    }
    place::fix_allocator_policy();
    let cores = Cores::discover();
    let report = match (name, traced) {
        ("swarm_sim", _) => swarm_run(seed, seconds, traced, &cores),
        (_, false) => timed_run(name, seed, seconds, &cores),
        (_, true) => traced_run(name, seed, seconds, &cores),
    };
    println!("{}", report.line(traced));
    Ok(())
}

fn main() -> ExitCode {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    let mode = match argv.first() {
        Some(first) if !first.starts_with("--") => argv.remove(0),
        _ => String::new(),
    };
    let args = Args(argv);
    let outcome = match mode.as_str() {
        "" => single(&args),
        "run" => repeat::suite(&args, false),
        "trace" => repeat::suite(&args, true),
        "repeat" => repeat::repeat(&args),
        "manifest" => {
            print!("{}", spec::manifest());
            Ok(())
        }
        other => Err(format!("unknown mode {other}")),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("benchmark: {message}");
            ExitCode::FAILURE
        }
    }
}
