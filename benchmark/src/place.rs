//! Placement and run validity: which cores the process may use, pinning
//! threads to them, a fixed allocator policy, and the host counters that
//! show a disturbed run.

use std::time::Instant;

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

#[cfg(target_env = "gnu")]
extern "C" {
    fn mallopt(param: i32, value: i32) -> i32;
}

/// Fixes glibc malloc's trim and mmap thresholds for this process.
///
/// Left dynamic, they make a lottery of where a 32 KiB buffer comes
/// from: depending on what happens to sit at the top of the heap, each
/// `vfs_write` operation either reuses heap pages or grows and trims the
/// heap again (eight page faults a time), and a run sits at 67, 87 or
/// 99 µs per operation for its whole life — measured, three runs in
/// six off the low level; with the thresholds fixed, none. The same
/// policy applies to every commit measured, so it moves no comparison.
pub fn fix_allocator_policy() {
    #[cfg(target_env = "gnu")]
    {
        const M_TRIM_THRESHOLD: i32 = -1;
        const M_TOP_PAD: i32 = -2;
        const M_MMAP_THRESHOLD: i32 = -3;
        // SAFETY: `mallopt` only stores tuning integers in malloc's own
        // state; it is called before any other thread exists.
        let accepted = unsafe {
            mallopt(M_TRIM_THRESHOLD, 1 << 30) == 1
                && mallopt(M_TOP_PAD, 1 << 26) == 1
                && mallopt(M_MMAP_THRESHOLD, 1 << 25) == 1
        };
        assert!(accepted, "mallopt refused a threshold");
    }
}

/// Words in the kernel CPU mask we pass: 1024 CPUs, glibc's `cpu_set_t`.
const MASK_WORDS: usize = 16;

/// The cores this process is allowed to run on, ascending.
fn allowed_cores() -> Vec<usize> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is a live, writable buffer of exactly the byte
    // length passed; pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    assert!(
        rc == 0,
        "sched_getaffinity failed: the benchmark cannot fix its placement"
    );
    (0..MASK_WORDS * 64)
        .filter(|&cpu| mask[cpu / 64] & (1 << (cpu % 64)) != 0)
        .collect()
}

/// Restricts the calling thread to `cores`. Threads it spawns afterwards
/// inherit the restriction — that is how a rig's server threads, which
/// the library spawns, are placed from outside.
///
/// # Panics
/// Panics if the kernel refuses: a run that silently stayed unpinned
/// would report numbers that do not repeat.
pub fn pin_current_thread(cores: &[usize]) {
    let mut mask = [0u64; MASK_WORDS];
    for &cpu in cores {
        mask[cpu / 64] |= 1 << (cpu % 64);
    }
    // SAFETY: `mask` is a live buffer of exactly the byte length
    // passed and is only read; pid 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    assert!(
        rc == 0,
        "sched_setaffinity({cores:?}) failed: refusing to run unpinned"
    );
}

/// Where a workload's threads run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Every thread on the first allowed core.
    OneCore,
    /// The client on the first allowed core, every server thread on the
    /// second: each request and each reply crosses cores.
    SplitCores,
}

/// The two cores placements are expressed in. With a single allowed
/// core `second == first`, and a split placement degenerates to
/// [`Placement::OneCore`].
#[derive(Debug, Clone, Copy)]
pub struct Cores {
    pub first: usize,
    pub second: usize,
    pub allowed: usize,
}

impl Cores {
    pub fn discover() -> Cores {
        let allowed = allowed_cores();
        let first = *allowed.first().expect("at least one allowed core");
        Cores {
            first,
            second: allowed.get(1).copied().unwrap_or(first),
            allowed: allowed.len(),
        }
    }

    /// The core server threads of a rig built under `placement` run on.
    pub fn server_core(&self, placement: Placement) -> usize {
        match placement {
            Placement::OneCore => self.first,
            Placement::SplitCores => self.second,
        }
    }
}

/// Host and process counters read around a measured window.
#[derive(Debug, Clone, Copy)]
pub struct HostSample {
    at: Instant,
    /// Steal ticks summed over all CPUs (`/proc/stat`), USER_HZ.
    steal_ticks: u64,
    /// Microseconds some task stalled for CPU (`/proc/pressure/cpu`).
    psi_some_us: u64,
    /// This process's user + system ticks (`/proc/self/stat`), USER_HZ.
    proc_ticks: u64,
}

/// `/proc` reports ticks in USER_HZ, which Linux fixes at 100.
const USER_HZ: f64 = 100.0;

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_default()
}

impl HostSample {
    pub fn now() -> HostSample {
        let stat = read("/proc/stat");
        let steal_ticks = stat
            .lines()
            .next()
            .and_then(|cpu| cpu.split_whitespace().nth(8))
            .and_then(|v| v.parse().ok())
            .unwrap_or(0);
        let psi_some_us = read("/proc/pressure/cpu")
            .lines()
            .find(|l| l.starts_with("some"))
            .and_then(|l| l.split("total=").nth(1))
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or(0);
        // Fields 14 and 15, counted after the parenthesised command
        // name (which may itself contain spaces).
        let self_stat = read("/proc/self/stat");
        let proc_ticks = self_stat
            .rsplit_once(')')
            .map(|(_, rest)| {
                rest.split_whitespace()
                    .skip(11)
                    .take(2)
                    .filter_map(|v| v.parse::<u64>().ok())
                    .sum()
            })
            .unwrap_or(0);
        HostSample {
            at: Instant::now(),
            steal_ticks,
            psi_some_us,
            proc_ticks,
        }
    }

    /// Counters accrued since `earlier`, as shares of the wall time
    /// between the two samples.
    pub fn since(&self, earlier: &HostSample, cores: usize) -> HostDelta {
        let wall = self.at.duration_since(earlier.at).as_secs_f64().max(1e-9);
        HostDelta {
            steal_share: (self.steal_ticks - earlier.steal_ticks) as f64
                / USER_HZ
                / (wall * cores as f64),
            psi_cpu_some: (self.psi_some_us - earlier.psi_some_us) as f64 / 1e6 / wall,
            cores_busy: (self.proc_ticks - earlier.proc_ticks) as f64 / USER_HZ / wall,
        }
    }
}

/// See [`HostSample::since`].
#[derive(Debug, Clone, Copy, Default)]
pub struct HostDelta {
    /// Share of the host's CPU time the hypervisor gave to someone else.
    pub steal_share: f64,
    /// Share of the window in which some runnable task waited for a CPU.
    pub psi_cpu_some: f64,
    /// Cores' worth of CPU time this process used.
    pub cores_busy: f64,
}
