//! Deterministic simulation: the delivery controller and the
//! single-threaded [`SimExecutor`].
//!
//! A network created with [`Network::new_sim`](crate::Network::new_sim)
//! runs on a [`SimClock`](crate::SimClock): one thread, exact virtual
//! time, and **every** source of nondeterminism pinned to a `u64` seed.
//! Sends do not go straight into machine queues — they are parked in
//! the controller's pending set, keyed by `(deliver_at, seeded tie)`,
//! and released strictly in timeline order by whoever drives the
//! simulation (the executor's advance step, or a thread parked inside
//! the reactor). Simultaneous deliveries are ordered by a tie-break
//! drawn from the seed, so "two replies arrive at the same instant" is
//! a *scheduled* adversarial event, not an OS scheduling accident.
//!
//! The network's [`FaultPlan`](crate::FaultPlan) judges each copy with
//! draws from the controller's seeded stream, so loss, duplication,
//! delay spikes, reorder jitter, partitions and crash windows are
//! exact functions of the seed. The controller folds every event into a
//! running FNV-1a fingerprint (and, on request, a byte log), which is
//! what lets tests assert that two runs of one seed are bit-identical
//! and that a failing seed replays exactly.
//!
//! The [`SimExecutor`] runs services and clients as **polled state
//! machines**: each actor is a closure returning [`ActorPoll`], woken
//! when a delivery lands on its machine or its own timer expires. No
//! OS threads, no grace/patience heuristics — a million simulated
//! clients fit in one process because an idle client is just a pending
//! timer in a B-tree.

use crate::addr::MachineId;
use crate::faults::{mirror, note, Faults, Verdict};
use crate::network::{Network, SimRelease};
use crate::packet::Packet;
use crate::reactor::Timestamp;
use amoeba_obs::{EventKind, Obs};
use parking_lot::Mutex;
use std::collections::BTreeMap;

/// The splitmix64 mixer: the one generator for simulation and statistics
/// draws. Statistically uniform, one u64 of state, trivially reproducible
/// — so never a source of secrets (`amoeba_crypto::SecretStream` is).
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Cumulative per-kind fault counters, for tests asserting that a plan
/// actually exercised the machinery it claims to.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct FaultCounters {
    /// Frames lost at the delivery gate.
    pub lost: u64,
    /// Extra duplicate copies enqueued.
    pub duplicated: u64,
    /// Frames hit by a delay spike.
    pub spiked: u64,
    /// Frames dropped because an endpoint of the hop was inside a
    /// crash window (at transmission or at arrival).
    pub crash_dropped: u64,
    /// Frames dropped by an active partition window.
    pub partition_dropped: u64,
}

/// One parked delivery: the packet and the machine that will receive
/// it when the schedule reaches its instant.
#[derive(Debug)]
struct Pending {
    target: MachineId,
    pkt: Packet,
}

#[derive(Debug)]
struct SimState {
    rng: u64,
    seq: u64,
    /// The schedule: deliveries keyed by `(instant, seeded tie)`.
    pending: BTreeMap<(Timestamp, u64), Pending>,
    /// FNV-1a over every event record — the run's fingerprint.
    hash: u64,
    events: u64,
    /// The raw event records, kept only when a test asked for
    /// byte-identical comparison.
    log: Option<Vec<u8>>,
    counters: FaultCounters,
    /// The network's observability handle: every schedule event is
    /// mirrored into it; that never touches the RNG, the fingerprint
    /// or the byte log, so determinism is unaffected.
    obs: Obs,
}

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

impl SimState {
    fn record(&mut self, tag: u8, at: Timestamp, target: MachineId, pkt: &Packet) {
        let mut buf = [0u8; 29];
        buf[0] = tag;
        buf[1..9].copy_from_slice(&(at.since_epoch().as_nanos() as u64).to_le_bytes());
        buf[9..13].copy_from_slice(&pkt.source.as_u32().to_le_bytes());
        buf[13..17].copy_from_slice(&target.as_u32().to_le_bytes());
        buf[17..25].copy_from_slice(&pkt.header.dest.value().to_le_bytes());
        buf[25..29].copy_from_slice(&(pkt.payload.len() as u32).to_le_bytes());
        for &b in &buf {
            self.hash = (self.hash ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
        self.events += 1;
        if let Some(log) = &mut self.log {
            log.extend_from_slice(&buf);
        }
    }

    /// Parks one copy of `pkt` for `target` at `at`, with a seeded
    /// tie-break against other deliveries at the same instant.
    fn park(&mut self, target: MachineId, mut pkt: Packet, at: Timestamp) {
        pkt.deliver_at = at;
        self.seq += 1;
        let tie = (splitmix64(&mut self.rng) << 32) | (self.seq & 0xFFFF_FFFF);
        self.record(b'E', at, target, &pkt);
        note(
            &self.obs,
            EventKind::DeliveryGate,
            at,
            target,
            pkt.header.dest,
        );
        self.pending.insert((at, tie), Pending { target, pkt });
    }
}

/// The per-network simulation controller: owns the seeded RNG, the
/// pending-delivery schedule and the event fingerprint. The fault plan
/// it draws against lives in the network's topology, which is always
/// locked before the controller.
#[derive(Debug)]
pub(crate) struct SimController {
    seed: u64,
    state: Mutex<SimState>,
}

impl SimController {
    pub(crate) fn new(seed: u64, obs: Obs) -> SimController {
        SimController {
            seed,
            state: Mutex::new(SimState {
                rng: seed,
                seq: 0,
                pending: BTreeMap::new(),
                hash: FNV_OFFSET,
                events: 0,
                log: None,
                counters: FaultCounters::default(),
                obs,
            }),
        }
    }

    pub(crate) fn seed(&self) -> u64 {
        self.seed
    }

    /// Offers the copy for `to` to the fault gate: judges it with the
    /// seeded stream and parks 0, 1 or 2 deliveries. Returns `true` if
    /// at least one copy was parked.
    pub(crate) fn offer(&self, gate: &Faults, now: Timestamp, to: MachineId, pkt: Packet) -> bool {
        let st = &mut *self.state.lock();
        let verdict = gate.judge(now, pkt.source, to, &mut || splitmix64(&mut st.rng));
        mirror(&st.obs, verdict, now, to, pkt.header.dest);
        let (tag, counter) = match verdict {
            Verdict::CrashDrop => (b'C', &mut st.counters.crash_dropped),
            Verdict::PartitionDrop => (b'P', &mut st.counters.partition_dropped),
            Verdict::Lost => (b'L', &mut st.counters.lost),
            Verdict::Deliver { delay, spiked, dup } => {
                st.counters.spiked += u64::from(spiked);
                let at = pkt.deliver_at + delay;
                if let Some(lag) = dup {
                    st.counters.duplicated += 1;
                    st.park(to, pkt.clone(), at + lag);
                }
                st.park(to, pkt, at);
                return true;
            }
        };
        *counter += 1;
        st.record(tag, now, to, &pkt);
        false
    }

    pub(crate) fn next_at(&self) -> Option<Timestamp> {
        self.state.lock().pending.keys().next().map(|&(t, _)| t)
    }

    /// Pops the earliest pending delivery, applying the arrival-time
    /// crash check (a frame in flight toward a machine that crashed
    /// before it landed is gone). `None` when nothing is pending;
    /// otherwise the instant, the target, and the packet unless it was
    /// crash-dropped on arrival.
    pub(crate) fn pop_next(
        &self,
        faults: &Faults,
    ) -> Option<(Timestamp, MachineId, Option<Packet>)> {
        let mut st = self.state.lock();
        let ((at, _), Pending { target, pkt }) = st.pending.pop_first()?;
        if faults.down_until(target, at).is_some() {
            st.counters.crash_dropped += 1;
            st.record(b'C', at, target, &pkt);
            mirror(&st.obs, Verdict::CrashDrop, at, target, pkt.header.dest);
            return Some((at, target, None));
        }
        st.record(b'D', at, target, &pkt);
        note(&st.obs, EventKind::Delivered, at, target, pkt.header.dest);
        Some((at, target, Some(pkt)))
    }

    pub(crate) fn fingerprint(&self) -> (u64, u64) {
        let st = self.state.lock();
        (st.hash, st.events)
    }

    pub(crate) fn counters(&self) -> FaultCounters {
        self.state.lock().counters
    }

    pub(crate) fn record_log(&self, on: bool) {
        let mut st = self.state.lock();
        st.log = on.then(Vec::new);
    }

    pub(crate) fn take_log(&self) -> Vec<u8> {
        self.state.lock().log.take().unwrap_or_default()
    }
}

/// What an actor reports from one poll.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ActorPoll {
    /// The actor made progress and wants to be polled again this
    /// round.
    Progress,
    /// Nothing to do until a delivery lands on this actor's machine.
    Idle,
    /// Nothing to do until a delivery lands **or** the timeline
    /// reaches the given instant (a retransmission deadline, an
    /// open-loop arrival time).
    IdleUntil(Timestamp),
    /// The actor finished its script and need never be polled again.
    Done,
}

struct ActorEntry<'a> {
    machine: MachineId,
    poll: Box<dyn FnMut() -> ActorPoll + 'a>,
    done: bool,
    /// Daemons (service pumps) are polled like any actor but do not
    /// count toward completion: the run ends when every *workload*
    /// actor is done, however many daemons still listen.
    daemon: bool,
    wake_at: Option<Timestamp>,
}

/// The deterministic executor stalled: live actors remain but no
/// delivery is pending and no timer is armed — an actor is waiting on
/// an event that can never arrive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimStall {
    /// Actors that had not reported [`ActorPoll::Done`].
    pub live_actors: usize,
}

impl std::fmt::Display for SimStall {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "simulation stalled with {} live actor(s): no pending deliveries, no armed timers",
            self.live_actors
        )
    }
}

impl std::error::Error for SimStall {}

/// The single-threaded deterministic executor: services and clients
/// registered as polled state machines on one seeded schedule.
///
/// Actors are closures returning [`ActorPoll`], registered against the
/// machine whose deliveries should wake them. [`run`](Self::run) polls
/// runnable actors to quiescence, then advances simulated time to the
/// next event — the controller's earliest pending delivery or the
/// earliest actor timer — and wakes exactly the actors that event
/// concerns. Poll order within a round is rotated by a seeded draw, so
/// even "who runs first on a tie" is part of the reproducible
/// schedule.
pub struct SimExecutor<'a> {
    net: Network,
    rng: u64,
    actors: Vec<ActorEntry<'a>>,
    by_machine: BTreeMap<MachineId, Vec<usize>>,
}

impl std::fmt::Debug for SimExecutor<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimExecutor")
            .field("actors", &self.actors.len())
            .finish()
    }
}

impl<'a> SimExecutor<'a> {
    /// An executor over a simulation network (see
    /// [`Network::new_sim`](crate::Network::new_sim)).
    ///
    /// # Panics
    /// Panics if `net` is not a simulation network.
    pub fn new(net: &Network) -> SimExecutor<'a> {
        assert!(
            net.is_sim(),
            "SimExecutor requires a network built with Network::new_sim"
        );
        SimExecutor {
            net: net.clone(),
            rng: net.sim_seed() ^ 0x5EED_AC70_1234_5678,
            actors: Vec::new(),
            by_machine: BTreeMap::new(),
        }
    }

    /// The underlying network.
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// Registers an actor woken by deliveries to `machine`. Returns
    /// its index (registration order — the deterministic identity used
    /// in tie rotation).
    pub fn spawn(&mut self, machine: MachineId, poll: impl FnMut() -> ActorPoll + 'a) -> usize {
        self.spawn_entry(machine, Box::new(poll), false)
    }

    /// Registers a **daemon**: polled exactly like a workload actor,
    /// but [`run`](Self::run) does not wait for it to report
    /// [`ActorPoll::Done`] — service pumps serve for as long as the
    /// workload lasts and simply stop being polled when it ends.
    pub fn spawn_daemon(
        &mut self,
        machine: MachineId,
        poll: impl FnMut() -> ActorPoll + 'a,
    ) -> usize {
        self.spawn_entry(machine, Box::new(poll), true)
    }

    fn spawn_entry(
        &mut self,
        machine: MachineId,
        poll: Box<dyn FnMut() -> ActorPoll + 'a>,
        daemon: bool,
    ) -> usize {
        let index = self.actors.len();
        self.actors.push(ActorEntry {
            machine,
            poll,
            done: false,
            daemon,
            wake_at: None,
        });
        self.by_machine.entry(machine).or_default().push(index);
        index
    }

    /// Drives the simulation until every workload actor reports
    /// [`ActorPoll::Done`] (daemons are exempt).
    ///
    /// # Errors
    /// [`SimStall`] if live workload actors remain but nothing is
    /// pending on the timeline — the deterministic analogue of a
    /// deadlock, with the whole schedule replayable from the seed.
    pub fn run(&mut self) -> Result<(), SimStall> {
        let mut runnable: Vec<usize> = (0..self.actors.len()).collect();
        loop {
            while !runnable.is_empty() {
                runnable.sort_unstable();
                runnable.dedup();
                if runnable.len() > 1 {
                    let rot = (splitmix64(&mut self.rng) as usize) % runnable.len();
                    runnable.rotate_left(rot);
                }
                let batch = std::mem::take(&mut runnable);
                for i in batch {
                    if self.actors[i].done {
                        continue;
                    }
                    let now = self.net.now();
                    if let Some(until) = self.net.sim_down_until(self.actors[i].machine, now) {
                        // A crashed machine's actors are not polled:
                        // the service is dead until the window ends.
                        // Its endpoint queue survives, so the restart
                        // serves stale backlog — late replies, exactly
                        // the straggler schedule the recycling
                        // invariants must survive.
                        self.actors[i].wake_at = Some(until);
                        continue;
                    }
                    match (self.actors[i].poll)() {
                        ActorPoll::Progress => {
                            self.actors[i].wake_at = None;
                            runnable.push(i);
                        }
                        ActorPoll::Idle => self.actors[i].wake_at = None,
                        ActorPoll::IdleUntil(t) => self.actors[i].wake_at = Some(t),
                        ActorPoll::Done => self.actors[i].done = true,
                    }
                }
            }
            if self.actors.iter().all(|a| a.done || a.daemon) {
                return Ok(());
            }
            // Quiescent: advance simulated time to the next event.
            let next_delivery = self.net.sim_next_delivery_at();
            let next_timer = self
                .actors
                .iter()
                .filter(|a| !a.done)
                .filter_map(|a| a.wake_at)
                .min();
            let deliver = match (next_delivery, next_timer) {
                (Some(d), Some(t)) => d <= t,
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => {
                    let stall = SimStall {
                        live_actors: self.actors.iter().filter(|a| !a.done && !a.daemon).count(),
                    };
                    // Postmortem before the error propagates: the
                    // flight recorder holds the events leading up to
                    // the wedge (no-op when obs is disabled).
                    self.net.obs().dump(&format!(
                        "SimStall seed {:#x}: {stall}",
                        self.net.sim_seed()
                    ));
                    return Err(stall);
                }
            };
            if deliver {
                if let SimRelease::Delivered { to, .. } = self.net.sim_release_next() {
                    if let Some(indices) = self.by_machine.get(&to) {
                        runnable.extend(indices.iter().copied());
                    }
                }
            } else if let Some(t) = next_timer {
                self.net.reactor().advance_to(t);
            }
            let now = self.net.now();
            for (i, a) in self.actors.iter_mut().enumerate() {
                if !a.done && a.wake_at.is_some_and(|w| w <= now) {
                    runnable.push(i);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::Header;
    use crate::{FaultPlan, Port};
    use bytes::Bytes;
    use std::cell::Cell;
    use std::rc::Rc;
    use std::time::{Duration, Instant};

    fn port(v: u64) -> Port {
        Port::new(v).unwrap()
    }

    #[test]
    fn sim_timeouts_never_sleep_real_time() {
        // The satellite fix: a far-future deadline on a deterministic
        // clock must expire via a direct jump, not a far-jump
        // confirmation wait or a quiescence grace.
        let net = Network::new_sim(7);
        let a = net.attach_open();
        let t0 = Instant::now();
        assert!(a.recv_timeout(Duration::from_secs(30)).is_err());
        assert!(net.now().since_epoch() >= Duration::from_secs(30));
        assert!(
            t0.elapsed() < Duration::from_millis(250),
            "a 30 s simulated timeout must cost ~zero real time, took {:?}",
            t0.elapsed()
        );
    }

    #[test]
    fn blocking_recv_is_driven_by_the_parked_thread() {
        // A blocking receive on the sim network must release the
        // controller's pending delivery itself (the deterministic
        // park branch), not deadlock waiting for an executor.
        let net = Network::new_sim(3);
        net.set_latency(Duration::from_millis(4));
        let a = net.attach_open();
        let b = net.attach_open();
        b.claim(port(9));
        a.send(Header::to(port(9)), Bytes::from_static(b"hi"));
        let pkt = b.recv_timeout(Duration::from_secs(1)).unwrap();
        assert_eq!(&pkt.payload[..], b"hi");
        assert!(net.now().since_epoch() >= Duration::from_millis(4));
    }

    #[test]
    fn executor_wakes_actor_on_delivery_and_timer() {
        let net = Network::new_sim(11);
        net.set_latency(Duration::from_millis(2));
        let a = net.attach_open();
        let b = net.attach_open();
        b.claim(port(5));
        let got = Rc::new(Cell::new(false));
        let got2 = Rc::clone(&got);
        let deadline = net.now() + Duration::from_millis(50);
        let mut exec = SimExecutor::new(&net);
        let b_id = b.id();
        exec.spawn(b_id, move || {
            if let Ok(pkt) = b.poll_arrival() {
                b.reactor().deliver(&pkt);
                assert_eq!(&pkt.payload[..], b"ping");
                got2.set(true);
                return ActorPoll::Done;
            }
            ActorPoll::IdleUntil(deadline)
        });
        let sent = Rc::new(Cell::new(false));
        let sent2 = Rc::clone(&sent);
        let fire_at = net.now() + Duration::from_millis(10);
        exec.spawn(a.id(), move || {
            if sent2.get() {
                return ActorPoll::Done;
            }
            if a.now() >= fire_at {
                a.send(Header::to(port(5)), Bytes::from_static(b"ping"));
                sent2.set(true);
                return ActorPoll::Done;
            }
            ActorPoll::IdleUntil(fire_at)
        });
        exec.run().unwrap();
        assert!(got.get(), "the delivery must wake the receiving actor");
        assert!(net.now() >= fire_at + Duration::from_millis(2));
    }

    #[test]
    fn executor_stall_is_reported_not_hung() {
        let net = Network::new_sim(1);
        let a = net.attach_open();
        let mut exec = SimExecutor::new(&net);
        exec.spawn(a.id(), || ActorPoll::Idle);
        let err = exec.run().unwrap_err();
        assert_eq!(err.live_actors, 1);
    }

    #[test]
    fn from_seed_plans_are_deterministic_and_bounded() {
        let a = FaultPlan::from_seed(42);
        let b = FaultPlan::from_seed(42);
        assert_eq!(a, b);
        assert!(a.loss_per_mille <= 80);
        assert!(a.dup_per_mille <= 60);
        for w in &a.crashes {
            assert!(w.until <= Duration::from_millis(500));
        }
        assert_ne!(a, FaultPlan::from_seed(43), "distinct seeds diverge");
    }
}
