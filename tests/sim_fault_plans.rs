//! The seeded fault-plan hammer: cluster, failover, port-recycling and
//! client-churn invariants under deterministic adversarial schedules.
//!
//! Every scenario is a pure function of a `u64` seed. When a seed
//! fails, the harness prints a one-line replay command; running it
//! reproduces the exact schedule, byte for byte.
//!
//! Environment knobs (all optional):
//! - `SIM_SEED=<n>`     — run exactly one seed (replay mode).
//! - `SIM_SEEDS=<n>`    — how many seeds the hammer sweeps (default 25).
//! - `SIM_SHARDS=<n>` / `SIM_SHARD=<i>` — split a sweep across CI jobs;
//!   shard `i` runs seeds `base + i*SIM_SEEDS ..`, so every shard's
//!   seed range is distinct.

mod sim_support;

use amoeba::prelude::FaultPlan;
use proptest::prelude::*;
use sim_support::run_scenario;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

/// Base of the hammer's seed space. Distinct from the proptest and
/// regression seeds so CI shards never re-run a seed another job ran.
const HAMMER_SEED_BASE: u64 = 0x5EED_0000;

fn env_u64(name: &str) -> Option<u64> {
    std::env::var(name).ok()?.trim().parse().ok()
}

fn hammer_one(seed: u64) {
    let result = catch_unwind(AssertUnwindSafe(|| {
        run_scenario(seed, FaultPlan::from_seed(seed), 4, 3, false)
    }));
    match result {
        Ok(report) => {
            println!(
                "seed {seed:#x}: ok ({} tx, {} retried, faults {:?})",
                report.completed, report.timeouts, report.counters
            );
        }
        Err(panic) => {
            eprintln!(
                "\nseed {seed} FAILED — replay with:\n  \
                 SIM_SEED={seed} cargo test --release --test sim_fault_plans \
                 seed_hammer -- --nocapture\n"
            );
            resume_unwind(panic);
        }
    }
}

/// The invariant hammer: N seeds, each a full two-wave echo-cluster
/// scenario under a seed-derived fault plan. CI runs this with
/// `SIM_SEEDS=250` across 2 shards for the 500-seed bar.
#[test]
fn seed_hammer() {
    if let Some(seed) = env_u64("SIM_SEED") {
        hammer_one(seed);
        return;
    }
    let count = env_u64("SIM_SEEDS").unwrap_or(25);
    let shard = env_u64("SIM_SHARD").unwrap_or(0);
    for i in 0..count {
        hammer_one(HAMMER_SEED_BASE + shard * count + i);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Two runs of one seed must be **byte-identical**: same event-log
    /// bytes, same fingerprint, same fault counters. This is the
    /// determinism contract that makes a printed failing seed an exact
    /// replay, not a hint.
    #[test]
    fn same_seed_runs_are_byte_identical(seed in any::<u64>()) {
        let a = run_scenario(seed, FaultPlan::from_seed(seed), 2, 2, true);
        let b = run_scenario(seed, FaultPlan::from_seed(seed), 2, 2, true);
        prop_assert!(!a.log.is_empty(), "the scenario must generate traffic");
        prop_assert_eq!(a.log, b.log, "event logs must match byte for byte");
        prop_assert_eq!(a.fingerprint, b.fingerprint);
        prop_assert_eq!(a.counters, b.counters);
        prop_assert_eq!(a.timeouts, b.timeouts);
        // Determinism reaches past the delivery schedule into every
        // observable aggregate: the traffic counters and the metrics
        // registry (completions, retransmits, latency histogram) must
        // replay byte-identically too.
        prop_assert_eq!(a.stats, b.stats, "traffic counters must replay exactly");
        prop_assert_eq!(a.metrics, b.metrics, "metrics snapshots must replay exactly");
    }
}

/// Distinct seeds must explore distinct schedules — a constant
/// schedule would pass the identity test above while testing nothing.
#[test]
fn distinct_seeds_diverge() {
    let a = run_scenario(0xD1FF_0001, FaultPlan::from_seed(0xD1FF_0001), 2, 2, true);
    let b = run_scenario(0xD1FF_0002, FaultPlan::from_seed(0xD1FF_0002), 2, 2, true);
    assert_ne!(a.log, b.log, "distinct seeds must diverge");
    assert_ne!(a.fingerprint, b.fingerprint);
}

/// Pinned regression for the PR 5/6 reply-port recycling bug: an
/// untargeted request fans out to every replica, the client consumes
/// one reply, and the straggler replies must never surface through a
/// recycled reply port — or in the next wave's newborn clients — as
/// another transaction's answer. This seed's plan was chosen because its run provably
/// exercises the dangerous machinery — duplicated frames *and* crash
/// windows (late retransmissions + restarted machines serving stale
/// backlog), the exact straggler-alias schedule. The scenario's body
/// canary panics on any aliased reply; determinism makes this a
/// permanent replay of that historical schedule shape.
#[test]
fn known_bad_seed_replays_deterministically() {
    const PINNED: u64 = KNOWN_BAD_SEED;
    let plan = FaultPlan::from_seed(PINNED);
    let a = run_scenario(PINNED, plan.clone(), 4, 3, true);
    assert!(
        a.counters.duplicated > 0,
        "pinned seed must inject duplicate frames (stragglers), got {:?}",
        a.counters
    );
    assert!(
        a.counters.crash_dropped > 0,
        "pinned seed must include a crash window mid-traffic, got {:?}",
        a.counters
    );
    let b = run_scenario(PINNED, plan, 4, 3, true);
    assert_eq!(a.fingerprint, b.fingerprint, "the replay must be exact");
    assert_eq!(a.log, b.log);
}

/// The seed pinned by `known_bad_seed_replays_deterministically`:
/// found by sweeping the hammer space for a plan that injects both
/// duplicate frames and a crash window into live traffic.
const KNOWN_BAD_SEED: u64 = 0x5EED_0035;
