//! The one fault model for both clocks: a seeded [`FaultPlan`], the
//! machines its windows name, and [`Faults::judge`], the only place a
//! frame's fate is decided, from draws the caller injects — the
//! simulator's seeded stream under its lock, or the wall network's
//! lock-free one. [`mirror`] reports a verdict into [`Obs`].

use crate::addr::{MachineId, Port};
use crate::reactor::Timestamp;
use crate::sim::splitmix64;
use amoeba_obs::{EventKind, Obs};
use std::time::Duration;

/// A machine crash/restart window: the victim is unreachable (frames
/// to and from it vanish) from `from` until `until` of timeline time.
/// Under the simulator its actors are not polled either, and it comes
/// back with whatever backlog queued at its endpoint — a restart that
/// serves stale requests, the classic straggler generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashWindow {
    /// Fault-target index (bound to a machine by the harness via
    /// [`Network::bind_fault_target`](crate::Network::bind_fault_target)).
    pub victim: usize,
    /// Window start, as timeline time since the epoch.
    pub from: Duration,
    /// Window end (exclusive).
    pub until: Duration,
}

/// A bidirectional link cut between two fault targets for a window of
/// timeline time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartitionWindow {
    /// First fault-target index.
    pub a: usize,
    /// Second fault-target index.
    pub b: usize,
    /// Window start, as timeline time since the epoch.
    pub from: Duration,
    /// Window end (exclusive); `Duration::MAX` while a
    /// [`Network::partition`](crate::Network::partition) is not healed.
    pub until: Duration,
}

/// How many fault-target indices [`FaultPlan::from_seed`] draws its
/// crash and partition victims from. Harnesses bind their replicas
/// (and optionally clients) to indices `0..SEED_PLAN_TARGETS`; unbound
/// indices leave their windows inert.
pub const SEED_PLAN_TARGETS: usize = 6;

/// A seeded fault schedule, applied at the network's delivery gate on
/// either clock.
///
/// Probabilities are per-mille so the plan is pure integers — no
/// float rounding can creep into the schedule. A seeded plan's windows
/// end by ~500 ms of timeline time, so an invariant harness that
/// retries past them always terminates.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultPlan {
    /// Per-mille probability that a transmitted frame is lost.
    pub loss_per_mille: u16,
    /// Per-mille probability that a frame is delivered twice (the
    /// second copy arrives later by a seeded extra delay).
    pub dup_per_mille: u16,
    /// Per-mille probability that a frame's delivery is delayed by a
    /// spike in `spike_min..=spike_max`.
    pub spike_per_mille: u16,
    /// Minimum delay-spike magnitude.
    pub spike_min: Duration,
    /// Maximum delay-spike magnitude.
    pub spike_max: Duration,
    /// Maximum reorder jitter added to every delivery (uniform in
    /// `0..=jitter_max`); nonzero jitter is what lets two frames sent
    /// in order arrive swapped under the simulator.
    pub jitter_max: Duration,
    /// Machine crash/restart windows.
    pub crashes: Vec<CrashWindow>,
    /// Link-cut windows.
    pub partitions: Vec<PartitionWindow>,
}

impl FaultPlan {
    /// The no-fault plan: deterministic scheduling and seeded
    /// tie-breaking only.
    pub fn quiet() -> FaultPlan {
        FaultPlan::default()
    }

    /// Derives a bounded adversarial plan from `seed`: moderate loss,
    /// duplication and delay spikes for the whole run, plus up to two
    /// crash windows and one partition window among the first
    /// [`SEED_PLAN_TARGETS`] fault targets, all inside the first
    /// ~500 ms of timeline time.
    pub fn from_seed(seed: u64) -> FaultPlan {
        let mut s = seed ^ 0xFA_07_1A_0B_5E_ED_00_01;
        let loss_per_mille = (splitmix64(&mut s) % 81) as u16;
        let dup_per_mille = (splitmix64(&mut s) % 61) as u16;
        let spike_per_mille = (splitmix64(&mut s) % 51) as u16;
        let spike_min = Duration::from_millis(1 + splitmix64(&mut s) % 3);
        let spike_max = spike_min + Duration::from_millis(2 + splitmix64(&mut s) % 14);
        let jitter_max = Duration::from_micros(splitmix64(&mut s) % 2001);
        let crashes = (0..splitmix64(&mut s) % 3)
            .map(|_| {
                let victim = (splitmix64(&mut s) as usize) % SEED_PLAN_TARGETS;
                let from = Duration::from_millis(20 + splitmix64(&mut s) % 350);
                let until = from + Duration::from_millis(15 + splitmix64(&mut s) % 60);
                CrashWindow {
                    victim,
                    from,
                    until,
                }
            })
            .collect();
        let partitions = (0..splitmix64(&mut s) % 2)
            .map(|_| {
                let a = (splitmix64(&mut s) as usize) % SEED_PLAN_TARGETS;
                let b = (a + 1 + (splitmix64(&mut s) as usize) % (SEED_PLAN_TARGETS - 1))
                    % SEED_PLAN_TARGETS;
                let from = Duration::from_millis(20 + splitmix64(&mut s) % 350);
                let until = from + Duration::from_millis(20 + splitmix64(&mut s) % 80);
                PartitionWindow { a, b, from, until }
            })
            .collect();
        FaultPlan {
            loss_per_mille,
            dup_per_mille,
            spike_per_mille,
            spike_min,
            spike_max,
            jitter_max,
            crashes,
            partitions,
        }
    }
}

/// What the gate decided for one recipient's copy of a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Verdict {
    /// The source or the target is inside a crash window.
    CrashDrop,
    /// A partition window separates the source from the target.
    PartitionDrop,
    /// Lost to the plan's loss rate.
    Lost,
    /// Delivered `delay` after the hop latency alone (`spiked` when a
    /// delay spike is part of it), and a duplicate `dup` after that.
    Deliver {
        delay: Duration,
        spiked: bool,
        dup: Option<Duration>,
    },
}

/// A network's fault state, kept in its topology: the plan, and the
/// machines bound to the plan's fault-target indices.
#[derive(Debug, Default)]
pub(crate) struct Faults {
    plan: FaultPlan,
    /// Fault-target index → bound machine; unbound windows are inert.
    targets: Vec<Option<MachineId>>,
    /// Whether the plan can decide anything: when not, every frame is
    /// delivered untouched after one branch and no draw.
    armed: bool,
}

impl Faults {
    pub(crate) fn new(plan: FaultPlan) -> Faults {
        Faults {
            armed: plan != FaultPlan::quiet(),
            plan,
            targets: Vec::new(),
        }
    }

    /// Binds fault-target `index` to `machine`.
    pub(crate) fn bind(&mut self, index: usize, machine: MachineId) {
        if self.targets.len() <= index {
            self.targets.resize(index + 1, None);
        }
        self.targets[index] = Some(machine);
    }

    fn victim_of(&self, machine: MachineId) -> Option<usize> {
        self.targets.iter().position(|&t| t == Some(machine))
    }

    /// Opens a partition window between `a` and `b` at `now`, binding
    /// either to a fresh fault-target index if it has none. It stays
    /// open until [`heal`](Self::heal).
    pub(crate) fn partition(&mut self, a: MachineId, b: MachineId, now: Timestamp) {
        let mut target_of = |machine| {
            self.victim_of(machine).unwrap_or_else(|| {
                self.targets.push(Some(machine));
                self.targets.len() - 1
            })
        };
        let (a, b) = (target_of(a), target_of(b));
        self.plan.partitions.push(PartitionWindow {
            a,
            b,
            from: now.since_epoch(),
            until: Duration::MAX,
        });
        self.armed = true;
    }

    /// Closes the open partition windows between `a` and `b` at `now`.
    pub(crate) fn heal(&mut self, a: MachineId, b: MachineId, now: Timestamp) {
        let (a, b) = (self.victim_of(a), self.victim_of(b));
        for w in &mut self.plan.partitions {
            if [(a, b), (b, a)].contains(&(Some(w.a), Some(w.b))) && w.until == Duration::MAX {
                w.until = now.since_epoch();
            }
        }
    }

    /// The end of the crash window covering `machine` at `t`, if any.
    pub(crate) fn down_until(&self, machine: MachineId, t: Timestamp) -> Option<Timestamp> {
        let victim = self.victim_of(machine)?;
        let d = t.since_epoch();
        self.plan
            .crashes
            .iter()
            .filter(|w| w.victim == victim && w.from <= d && d < w.until)
            .map(|w| Timestamp::ZERO + w.until)
            .max()
    }

    fn partitioned(&self, a: MachineId, b: MachineId, t: Timestamp) -> bool {
        let (a, b, d) = (self.victim_of(a), self.victim_of(b), t.since_epoch());
        self.plan.partitions.iter().any(|w| {
            [(a, b), (b, a)].contains(&(Some(w.a), Some(w.b))) && w.from <= d && d < w.until
        })
    }

    /// Decides the fate of `source`'s frame to `target`, sent at `now`:
    /// crash, partition, loss, jitter, spike, duplicate, in that order.
    /// `draw` is called only for a rate or a duration above zero.
    #[inline]
    pub(crate) fn judge(
        &self,
        now: Timestamp,
        source: MachineId,
        target: MachineId,
        draw: &mut impl FnMut() -> u64,
    ) -> Verdict {
        let (p, mut delay, spiked, dup) = (&self.plan, Duration::ZERO, false, None);
        if !self.armed {
            return Verdict::Deliver { delay, spiked, dup };
        }
        if self.down_until(source, now).is_some() || self.down_until(target, now).is_some() {
            // A dead transmitter or a dead interface: the frame never
            // makes it onto the wire segment.
            return Verdict::CrashDrop;
        }
        if self.partitioned(source, target, now) {
            return Verdict::PartitionDrop;
        }
        if roll(p.loss_per_mille, draw) {
            return Verdict::Lost;
        }
        delay += duration_draw(p.jitter_max, draw);
        let spiked = roll(p.spike_per_mille, draw);
        if spiked {
            delay += p.spike_min + duration_draw(p.spike_max.saturating_sub(p.spike_min), draw);
        }
        let dup = roll(p.dup_per_mille, draw).then(|| {
            p.spike_min.max(Duration::from_micros(100))
                + duration_draw(p.spike_max.max(Duration::from_millis(1)), draw)
        });
        Verdict::Deliver { delay, spiked, dup }
    }
}

/// True with probability `per_mille`/1000; no draw when it is zero.
fn roll(per_mille: u16, draw: &mut impl FnMut() -> u64) -> bool {
    per_mille > 0 && draw() % 1000 < u64::from(per_mille)
}

/// A duration uniform in `0..=max`; no draw when `max` is zero.
fn duration_draw(max: Duration, draw: &mut impl FnMut() -> u64) -> Duration {
    let nanos = max.as_nanos().min(u64::MAX as u128) as u64;
    if nanos == 0 {
        return Duration::ZERO;
    }
    Duration::from_nanos(draw() % (nanos + 1))
}

/// Records one delivery-gate event in the flight recorder (a no-op
/// while `obs` is disabled).
pub(crate) fn note(obs: &Obs, kind: EventKind, at: Timestamp, target: MachineId, dest: Port) {
    let (t, target) = (at.since_epoch().as_nanos() as u64, target.as_u32());
    obs.record(kind, t, 0, dest.value(), u64::from(target));
}

/// Mirrors a verdict on a frame for `dest` into the flight recorder
/// and the fault metrics: the one place either clock reports one.
pub(crate) fn mirror(obs: &Obs, verdict: Verdict, at: Timestamp, target: MachineId, dest: Port) {
    let Some(m) = obs.metrics() else {
        return;
    };
    let fault = |kind, counter: &amoeba_obs::Counter| {
        note(obs, kind, at, target, dest);
        counter.add(1);
    };
    match verdict {
        Verdict::CrashDrop => fault(EventKind::CrashDrop, &m.faults_crash_dropped),
        Verdict::PartitionDrop => fault(EventKind::PartitionDrop, &m.faults_partition_dropped),
        Verdict::Lost => fault(EventKind::Loss, &m.faults_lost),
        Verdict::Deliver { spiked, dup, .. } => {
            if spiked {
                fault(EventKind::Spike, &m.faults_spiked);
            }
            if dup.is_some() {
                fault(EventKind::Duplicate, &m.faults_duplicated);
            }
        }
    }
}
