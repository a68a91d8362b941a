//! The broadcast-medium simulator: one shared wire, per-machine
//! interfaces, and fault injection.
//!
//! A [`Network`] models the paper's single broadcast LAN. Machines join
//! with [`Network::attach`], providing a
//! [`NetworkInterface`](crate::NetworkInterface) (an open NIC or an
//! F-box) and receiving an [`Endpoint`] — their only handle onto the
//! wire. A frame is taken wherever an interface accepts its destination
//! port (associative addressing) — the interface's
//! [`accepts`](crate::NetworkInterface::accepts) is the decision on
//! every delivery, and nothing bypasses it. The network, not the
//! sender, stamps the unforgeable source machine id.
//!
//! # Who is asked
//!
//! A broadcast is offered to every other machine; a unicast frame only
//! to the target machine when the header names one, otherwise to the
//! machines the **claim index** (wire port → claimers, kept by
//! [`Endpoint::claim`], [`Endpoint::release`] and endpoint drop) lists
//! for its port. The index narrows who is asked and never decides:
//! each candidate's interface is still consulted, and
//! `packets_filtered` still counts every machine that did not take the
//! frame (`docs/ARCHITECTURE.md`, "Demux and port recycling").
//!
//! # Delivery model
//!
//! Each machine owns one unbounded MPMC packet channel. That MPMC
//! property is load-bearing for the dispatch engine: a server worker
//! pool shares a single `Endpoint` behind an `Arc`, and each arriving
//! packet is claimed by exactly one concurrent receiver. Simulated
//! latency is applied at *receive* time (packets carry a `deliver_at`
//! instant), so senders never block.
//!
//! # Fault and topology injection
//!
//! [`Network::new_with_plan`] and [`Network::new_sim_with_plan`] apply
//! a seeded [`FaultPlan`] at the delivery gate on either clock, and
//! [`Network::partition`]/[`Network::heal`] open and close a window of
//! it; [`Network::set_latency`] and [`Network::colocate`] inject
//! wide-area behaviour into tests and benchmarks;
//! [`Network::tap`] wiretaps every frame as transmitted (the intruder's
//! view). [`Network::stats`] exposes the cumulative frame/byte
//! counters ([`NetworkStats`]) that the locate and RPC-batching
//! benchmarks diff around workloads.

use crate::addr::{MachineId, Port};
use crate::faults::{mirror, FaultPlan, Faults, Verdict};
use crate::nic::{NetworkInterface, OpenNic};
use crate::packet::{Header, Packet};
use crate::reactor::{Reactor, SimClock, SimSource, Timestamp};
use crate::sim::{splitmix64, FaultCounters, SimController};
use crate::stats::{HotPathSnapshot, NetworkStats};
use amoeba_obs::Obs;
use bytes::Bytes;
use crossbeam::channel::{metered, unbounded, Meter, Receiver, Sender, TryRecvError};
use parking_lot::RwLock;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::Duration;

struct MachineEntry {
    /// The machine's receive queue — once [closed](Endpoint::close), a
    /// queue with no receiver: frames its interface accepts vanish.
    sender: Sender<Packet>,
    nic: Arc<dyn NetworkInterface>,
    /// The machine's advertised load gauge (e.g. in-flight requests),
    /// shared with the machine's [`Endpoint`]. Placement policies read
    /// it when choosing among service replicas.
    load: Arc<AtomicU32>,
    /// The wire ports this machine holds in [`Topology::claims`], so
    /// detaching removes exactly its own index entries.
    claimed: HashSet<Port>,
}

/// Everything a send consults, under one lock: a frame's path takes
/// one read of it; topology changes take the write side.
#[derive(Default)]
struct Topology {
    machines: HashMap<MachineId, MachineEntry>,
    /// The claim index: wire port → the machines whose endpoints
    /// claimed it (see the module docs, "Who is asked").
    claims: HashMap<Port, Vec<MachineId>>,
    taps: Vec<Sender<Packet>>,
    colocated: HashSet<(MachineId, MachineId)>,
    /// The fault plan and the machines bound to its targets.
    faults: Faults,
}

impl Topology {
    /// Calls `deliver` for every machine whose interface accepts a
    /// frame `from` sends under `header`, counting filtered frames.
    /// Returns how many interfaces accepted.
    fn offer(
        &self,
        stats: &NetworkStats,
        from: MachineId,
        header: &Header,
        mut deliver: impl FnMut(MachineId, &MachineEntry),
    ) -> usize {
        let mut accepted = 0;
        let mut take = |id: MachineId, entry: &MachineEntry| {
            accepted += 1;
            deliver(id, entry);
        };
        if header.dest.is_broadcast() {
            // Broadcast bypasses the interfaces' port filter (and
            // ignores the machine hint); interfaces do not hear their
            // own frames.
            for (&id, entry) in &self.machines {
                if id != from {
                    take(id, entry);
                }
            }
            return accepted;
        }
        if let Some(target) = header.target {
            // A machine-targeted frame is addressed, not offered: only
            // the target's interface is asked.
            if let Some(entry) = self.machines.get(&target).filter(|_| target != from) {
                if entry.nic.accepts(header.dest) {
                    take(target, entry);
                } else {
                    stats.packets_filtered.fetch_add(1, Ordering::Relaxed);
                }
            }
            return accepted;
        }
        for &id in self.claims.get(&header.dest).map_or(&[][..], Vec::as_slice) {
            if id == from {
                continue;
            }
            let entry = &self.machines[&id]; // detach unindexes first
            if entry.nic.accepts(header.dest) {
                take(id, entry);
            }
        }
        // Every other machine's interface saw the frame go by and did
        // not take it — exactly what asking each of them would count.
        let others = self.machines.len().saturating_sub(1);
        stats
            .packets_filtered
            .fetch_add((others - accepted) as u64, Ordering::Relaxed);
        accepted
    }
}

/// What became of one transmitted frame ([`Endpoint::send`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Sent {
    /// Interfaces that accepted the frame — decided before any loss,
    /// partition or fault-plan draw, so it is the same on every run.
    /// Zero means nobody listens where the frame was addressed.
    pub accepted: usize,
    /// Recipients (not copies) whose frame entered a machine's queue,
    /// or on a simulation network its delivery schedule.
    pub delivered: usize,
}

struct NetworkInner {
    reactor: Arc<Reactor>,
    topology: RwLock<Topology>,
    next_id: AtomicU32,
    /// One-way hop latency, stored as whole nanoseconds so the send
    /// path reads it with one atomic load instead of a lock.
    latency_nanos: AtomicU64,
    /// [`splitmix64`] state of the wall gate's draws: one lock-free
    /// `fetch_add` per draw gives a sequential generator's stream.
    draws: AtomicU64,
    /// Whether the plan duplicates frames; fixed at construction.
    may_duplicate: bool,
    stats: NetworkStats,
    /// Counts the hand-offs of this network's queues: machine
    /// inboxes and every queue made with [`Network::channel`].
    queues: Meter,
    /// The network's observability handle (disabled until
    /// [`Network::obs`] + [`Obs::enable`]): shared with the reactor,
    /// the sim controller, and every layer above via
    /// [`Endpoint::obs`].
    obs: Obs,
    /// The deterministic-simulation controller, present only on
    /// networks built with [`Network::new_sim`]. When set, every send
    /// is judged with its seeded stream and parked in its schedule
    /// instead of entering machine queues directly.
    sim: Option<SimController>,
}

/// A simulated broadcast network.
///
/// Cheap to clone (all clones share the same wire). Machines join with
/// [`attach`](Network::attach) and talk through the returned
/// [`Endpoint`].
#[derive(Clone)]
pub struct Network {
    inner: Arc<NetworkInner>,
}

impl std::fmt::Debug for Network {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Network")
            .field("machines", &self.machine_count())
            .field(
                "latency",
                &Duration::from_nanos(self.inner.latency_nanos.load(Ordering::Relaxed)),
            )
            .finish()
    }
}

impl Default for Network {
    fn default() -> Self {
        Self::new()
    }
}

impl Network {
    /// Creates an empty network with zero latency and no faults, on
    /// the wall clock (simulated latency costs real wall-clock).
    pub fn new() -> Network {
        Self::new_with_plan(0, FaultPlan::quiet())
    }

    /// As [`new`](Network::new), with `plan` applied at the delivery
    /// gate, its draws seeded by `seed` and its windows in wall time
    /// since construction (`docs/ARCHITECTURE.md`, "Fault plans").
    pub fn new_with_plan(seed: u64, plan: FaultPlan) -> Network {
        Self::with_parts(Reactor::wall(), seed, plan, false)
    }

    fn with_parts(reactor: Arc<Reactor>, seed: u64, plan: FaultPlan, sim: bool) -> Network {
        let obs = Obs::new();
        // The reactor dumps the flight recorder before its stall
        // panic; the sim controller mirrors its schedule into it.
        reactor.set_obs(obs.clone());
        Network {
            inner: Arc::new(NetworkInner {
                reactor,
                may_duplicate: plan.dup_per_mille > 0,
                topology: RwLock::new(Topology {
                    faults: Faults::new(plan),
                    ..Topology::default()
                }),
                next_id: AtomicU32::new(1),
                latency_nanos: AtomicU64::new(0),
                draws: AtomicU64::new(seed),
                stats: NetworkStats::default(),
                queues: Meter::new(),
                sim: sim.then(|| SimController::new(seed, obs.clone())),
                obs,
            }),
        }
    }

    /// Creates an empty network in **deterministic simulation** mode
    /// with a fault-free plan: a [`SimClock`] timeline, centrally
    /// ordered deliveries with seeded tie-breaking, and every source
    /// of scheduling nondeterminism pinned to `seed`. Drive it with a
    /// [`SimExecutor`](crate::SimExecutor), or let blocking receives
    /// advance it one delivery at a time.
    pub fn new_sim(seed: u64) -> Network {
        Self::new_sim_with_plan(seed, FaultPlan::quiet())
    }

    /// As [`new_sim`](Network::new_sim), with a seeded [`FaultPlan`]
    /// applied at the delivery gate (loss, duplication, delay spikes,
    /// reorder jitter, partitions, machine crash windows).
    pub fn new_sim_with_plan(seed: u64, plan: FaultPlan) -> Network {
        let net = Self::with_parts(Reactor::new(Arc::new(SimClock::new())), seed, plan, true);
        net.inner.reactor.set_sim_source(Arc::new(SimHook {
            net: Arc::downgrade(&net.inner),
        }));
        net
    }

    /// The network's reactor (scheduler + clock).
    pub fn reactor(&self) -> &Arc<Reactor> {
        &self.inner.reactor
    }

    /// The current point on the network's timeline.
    pub fn now(&self) -> Timestamp {
        self.inner.reactor.now()
    }

    /// Sleeps `d` of timeline time (real under the wall clock, a
    /// scheduled wakeup under the simulator).
    pub fn sleep(&self, d: Duration) {
        self.inner.reactor.sleep(d);
    }

    /// Attaches a machine with the given network interface.
    pub fn attach(&self, nic: Arc<dyn NetworkInterface>) -> Endpoint {
        let id = MachineId(self.inner.next_id.fetch_add(1, Ordering::Relaxed));
        let (tx, rx) = self.channel();
        let load = Arc::new(AtomicU32::new(0));
        self.inner.topology.write().machines.insert(
            id,
            MachineEntry {
                sender: tx,
                nic: Arc::clone(&nic),
                load: Arc::clone(&load),
                claimed: HashSet::new(),
            },
        );
        Endpoint {
            id,
            // Must clone: the endpoint owns its own handle onto the
            // shared wire (an Arc bump; all clones are one network).
            net: self.clone(),
            nic,
            receiver: rx,
            load,
        }
    }

    /// Attaches a machine with an unprotected [`OpenNic`].
    pub fn attach_open(&self) -> Endpoint {
        self.attach(Arc::new(OpenNic::new()))
    }

    /// An unbounded MPMC queue for hand-offs between this network's
    /// parties (ready queues, reply mailboxes), counted with the
    /// machine inboxes in [`hot_path`](Network::hot_path). Like an
    /// inbox, a blocking receive on it spins, or yields once, before it
    /// parks while that pays on that queue (the channel crate's "Park
    /// rule" and "Yield rule").
    pub fn channel<T>(&self) -> (Sender<T>, Receiver<T>) {
        metered(&self.inner.queues)
    }

    /// Sets the one-way delivery latency for all future packets between
    /// non-co-located machines.
    pub fn set_latency(&self, latency: Duration) {
        let nanos = u64::try_from(latency.as_nanos()).unwrap_or(u64::MAX);
        self.inner.latency_nanos.store(nanos, Ordering::Relaxed);
    }

    /// Declares two machines co-located (same physical host): traffic
    /// between them skips the network latency. Used to model local
    /// vs remote memory-server placement (§3.1).
    pub fn colocate(&self, a: MachineId, b: MachineId) {
        let set = &mut self.inner.topology.write().colocated;
        set.insert((a, b));
        set.insert((b, a));
    }

    /// Severs the link between two machines in both directions: frames
    /// between them vanish until [`heal`](Network::heal). The cut is a
    /// partition window of the network's [`FaultPlan`], opened now and
    /// binding either machine to a fresh fault target if it has none.
    pub fn partition(&self, a: MachineId, b: MachineId) {
        let now = self.now();
        self.inner.topology.write().faults.partition(a, b, now);
    }

    /// Restores the link severed by [`partition`](Network::partition):
    /// the pair's open windows close now.
    pub fn heal(&self, a: MachineId, b: MachineId) {
        self.inner.topology.write().faults.heal(a, b, self.now());
    }

    /// Binds fault-target index `index` of the [`FaultPlan`] to a
    /// machine. Plan windows naming unbound indices are inert, so a
    /// harness chooses which machines a seeded plan may victimise.
    pub fn bind_fault_target(&self, index: usize, machine: MachineId) {
        self.inner.topology.write().faults.bind(index, machine);
    }

    /// Opens a promiscuous tap: the returned receiver observes every
    /// packet on the wire, exactly what a wiretapping intruder sees.
    pub fn tap(&self) -> Receiver<Packet> {
        let (tx, rx) = unbounded();
        self.inner.topology.write().taps.push(tx);
        rx
    }

    /// The cumulative traffic counters.
    pub fn stats(&self) -> &NetworkStats {
        &self.inner.stats
    }

    /// The network's observability handle. Disabled (zero-cost) by
    /// default; `net.obs().enable()` switches on the flight recorder
    /// and the metrics registry for every layer sharing this network.
    pub fn obs(&self) -> &Obs {
        &self.inner.obs
    }

    /// Snapshots the hot-path cost counters: frames sent on this
    /// network, one-way-function evaluations by its attached
    /// interfaces, pushes, wakes, parks, spin hits and spinners' looks
    /// on its queues, process-wide payload-buffer allocations, and
    /// process-wide counted lock acquisitions. See [`HotPathSnapshot`]
    /// for the accounting caveats.
    pub fn hot_path(&self) -> HotPathSnapshot {
        let oneway_evals = self
            .inner
            .topology
            .read()
            .machines
            .values()
            .map(|e| e.nic.crypto_evals())
            .sum();
        HotPathSnapshot {
            frames_sent: self.inner.stats.packets_sent.load(Ordering::Relaxed),
            oneway_evals,
            buffer_allocs: bytes::stats::buffer_allocs(),
            lock_acquisitions: crate::sync::hot_lock_acquisitions(),
            queue_pushes: self.inner.queues.pushes(),
            queue_wakes: self.inner.queues.wakes(),
            queue_parks: self.inner.queues.parks(),
            queue_spin_hits: self.inner.queues.spin_hits(),
            queue_spin_looks: self.inner.queues.spin_looks(),
            queue_yields: self.inner.queues.yields(),
            queue_yield_hits: self.inner.queues.yield_hits(),
        }
    }

    /// The advertised load gauge of an attached machine, or `None` if
    /// the machine has detached. See [`Endpoint::set_load`].
    pub fn load_of(&self, id: MachineId) -> Option<u32> {
        self.inner
            .topology
            .read()
            .machines
            .get(&id)
            .map(|e| e.load.load(Ordering::Relaxed))
    }

    /// Number of currently attached machines.
    pub fn machine_count(&self) -> usize {
        self.inner.topology.read().machines.len()
    }

    /// Transmits a packet from machine `from` and reports what became
    /// of it.
    ///
    /// The sender's interface transforms the header (unbypassable), the
    /// network stamps the source address, and the packet is delivered
    /// wherever an interface accepts the destination port — or
    /// everywhere for [`Port::BROADCAST`]. See the module docs ("Who
    /// is asked") for which interfaces a unicast frame is offered to.
    pub(crate) fn send(&self, from: MachineId, mut header: Header, payload: Bytes) -> Sent {
        let stats = &self.inner.stats;
        let topology = self.inner.topology.read();
        let Some(entry) = topology.machines.get(&from) else {
            return Sent::default(); // detached machine
        };
        entry.nic.egress(&mut header);
        stats.packets_sent.fetch_add(1, Ordering::Relaxed);
        stats.bytes_sent.fetch_add(
            Packet::WIRE_HEADER_BYTES + payload.len() as u64,
            Ordering::Relaxed,
        );
        stats
            .payload_bytes_sent
            .fetch_add(payload.len() as u64, Ordering::Relaxed);
        if header.dest.is_broadcast() {
            stats.broadcasts_sent.fetch_add(1, Ordering::Relaxed);
            // Discovery traffic (LOCATE et al.) is accounted separately
            // so placement benchmarks can report its overhead honestly.
            stats.broadcast_bytes_sent.fetch_add(
                Packet::WIRE_HEADER_BYTES + payload.len() as u64,
                Ordering::Relaxed,
            );
        }

        let latency = Duration::from_nanos(self.inner.latency_nanos.load(Ordering::Relaxed));
        // The one clock read of a frame's path.
        let now = self.inner.reactor.now();
        // A copy for `id`, due `extra` after its hop latency.
        let packet_for = |id: MachineId, extra: Duration| {
            let hop = !latency.is_zero()
                && (topology.colocated.is_empty() || !topology.colocated.contains(&(from, id)));
            let delay = if hop { latency + extra } else { extra };
            Packet {
                source: from,
                header,
                // Must clone: every recipient gets its own handle onto
                // the one shared payload buffer — a refcount bump, no
                // byte copy.
                payload: payload.clone(),
                deliver_at: now + delay,
                delayed: !delay.is_zero(),
            }
        };

        // Intruder taps see the frame as transmitted. Tap copies are
        // diagnostics, not deliveries: they carry no latency.
        for tap in &topology.taps {
            let _ = tap.send(Packet {
                source: from,
                header,
                payload: payload.clone(),
                deliver_at: now,
                delayed: false,
            });
        }

        let mut delivered = 0;
        let accepted = if let Some(sim) = &self.inner.sim {
            // Simulation: the same recipients, visited in `MachineId`
            // order (hash-map and claim order are the kind of
            // nondeterminism the simulation exists to eliminate), each
            // copy offered to the seeded fault gate instead of a
            // machine queue; the controller's release schedule orders
            // the deliveries.
            let mut recipients = Vec::new();
            let accepted = topology.offer(stats, from, &header, |id, _| recipients.push(id));
            recipients.sort_unstable();
            for id in recipients {
                if sim.offer(&topology.faults, now, id, packet_for(id, Duration::ZERO)) {
                    delivered += 1;
                } else {
                    stats.packets_dropped.fetch_add(1, Ordering::Relaxed);
                }
            }
            accepted
        } else {
            // The wall gate: the same verdict, from a lock-free stream;
            // a duplicate is a second queued copy due later.
            let mut draw = || {
                let gamma = 0x9E37_79B9_7F4A_7C15;
                splitmix64(&mut self.inner.draws.fetch_add(gamma, Ordering::Relaxed))
            };
            let push = |entry: &MachineEntry, pkt| {
                let ok = entry.sender.send(pkt).is_ok();
                stats
                    .packets_delivered
                    .fetch_add(ok.into(), Ordering::Relaxed);
                usize::from(ok)
            };
            topology.offer(stats, from, &header, |id, entry| {
                let verdict = topology.faults.judge(now, from, id, &mut draw);
                mirror(&self.inner.obs, verdict, now, id, header.dest);
                let Verdict::Deliver { delay, dup, .. } = verdict else {
                    stats.packets_dropped.fetch_add(1, Ordering::Relaxed);
                    return;
                };
                delivered += push(entry, packet_for(id, delay));
                if let Some(lag) = dup {
                    push(entry, packet_for(id, delay + lag));
                }
            })
        };
        drop(topology);
        Sent {
            accepted,
            delivered,
        }
    }

    /// Whether this network runs in deterministic simulation mode.
    pub fn is_sim(&self) -> bool {
        self.inner.sim.is_some()
    }

    /// Whether this network may deliver **more than one copy** of a
    /// transmitted frame (a fault plan with duplication, on either
    /// clock). Layers above consult this to disable optimizations whose
    /// soundness rests on at-most-once delivery — reply-port recycling
    /// reasons "one transmit to one machine ⇒ at most one reply",
    /// which a duplicating wire falsifies.
    pub fn may_duplicate(&self) -> bool {
        self.inner.may_duplicate
    }

    fn sim(&self) -> &SimController {
        self.inner
            .sim
            .as_ref()
            .expect("not a simulation network (use Network::new_sim)")
    }

    /// The simulation seed.
    ///
    /// # Panics
    /// Panics (like every `sim_*` accessor) on a non-sim network.
    pub fn sim_seed(&self) -> u64 {
        self.sim().seed()
    }

    /// The end of the crash window covering `machine` at `t`, if any.
    pub fn sim_down_until(&self, machine: MachineId, t: Timestamp) -> Option<Timestamp> {
        self.inner.topology.read().faults.down_until(machine, t)
    }

    /// The instant of the earliest parked delivery, if any.
    pub fn sim_next_delivery_at(&self) -> Option<Timestamp> {
        self.sim().next_at()
    }

    /// Releases the earliest parked delivery: advances the timeline to
    /// its instant and pushes the packet into the target machine's
    /// queue (unless the target crashed or detached in the meantime —
    /// then the in-flight frame is gone).
    pub fn sim_release_next(&self) -> SimRelease {
        let topology = self.inner.topology.read();
        let Some((at, target, pkt)) = self.sim().pop_next(&topology.faults) else {
            return SimRelease::Idle;
        };
        self.inner.reactor.advance_to(at);
        let stats = &self.inner.stats;
        let entry = topology.machines.get(&target);
        if pkt.is_some_and(|pkt| entry.is_some_and(|e| e.sender.send(pkt).is_ok())) {
            stats.packets_delivered.fetch_add(1, Ordering::Relaxed);
            SimRelease::Delivered { at, to: target }
        } else {
            stats.packets_dropped.fetch_add(1, Ordering::Relaxed);
            SimRelease::Dropped { at }
        }
    }

    /// The run's event fingerprint: `(fnv1a_hash, event_count)` over
    /// every schedule event so far. Equal fingerprints for equal seeds
    /// is the determinism contract CI asserts.
    pub fn sim_fingerprint(&self) -> (u64, u64) {
        self.sim().fingerprint()
    }

    /// Cumulative fault-injection counters.
    pub fn sim_fault_counters(&self) -> FaultCounters {
        self.sim().counters()
    }

    /// Starts (or stops) recording the raw event log for byte-identical
    /// comparison between runs. Recording resets any previous log.
    pub fn sim_record_log(&self, on: bool) {
        self.sim().record_log(on);
    }

    /// Takes the recorded event log (empty if recording was off).
    pub fn sim_take_log(&self) -> Vec<u8> {
        self.sim().take_log()
    }

    /// Lists `id` as a claimer of wire port `wire`.
    fn index_claim(&self, id: MachineId, wire: Port) {
        let mut topology = self.inner.topology.write();
        let Some(entry) = topology.machines.get_mut(&id) else {
            return;
        };
        if entry.claimed.insert(wire) {
            topology.claims.entry(wire).or_default().push(id);
        }
    }

    /// Undoes [`index_claim`](Self::index_claim).
    fn index_release(&self, id: MachineId, wire: Port) {
        let topology = &mut *self.inner.topology.write();
        if let Some(entry) = topology.machines.get_mut(&id) {
            entry.claimed.remove(&wire);
        }
        unindex(&mut topology.claims, id, wire);
    }

    /// Swaps machine `id`'s queue sender for one nobody receives from:
    /// blocked receivers wake with a disconnect, later frames vanish.
    fn close(&self, id: MachineId) {
        if let Some(entry) = self.inner.topology.write().machines.get_mut(&id) {
            entry.sender = unbounded().0;
        }
    }

    fn detach(&self, id: MachineId) {
        let topology = &mut *self.inner.topology.write();
        if let Some(entry) = topology.machines.remove(&id) {
            for wire in entry.claimed {
                unindex(&mut topology.claims, id, wire);
            }
        }
    }
}

/// Removes `id` from `wire`'s claimers, and the entry once empty.
fn unindex(claims: &mut HashMap<Port, Vec<MachineId>>, id: MachineId, wire: Port) {
    if let Some(claimers) = claims.get_mut(&wire) {
        claimers.retain(|&m| m != id);
        if claimers.is_empty() {
            claims.remove(&wire);
        }
    }
}

/// The outcome of [`Network::sim_release_next`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimRelease {
    /// The earliest delivery landed in `to`'s queue at instant `at`.
    Delivered {
        /// The delivery instant the timeline advanced to.
        at: Timestamp,
        /// The receiving machine.
        to: MachineId,
    },
    /// The earliest delivery was consumed but not delivered (target
    /// crashed mid-flight or detached).
    Dropped {
        /// The instant the timeline advanced to.
        at: Timestamp,
    },
    /// Nothing was pending.
    Idle,
}

/// Bridges the reactor's deterministic park branch to the simulation
/// controller: a parked thread with no earlier deadline asks the
/// network to release the next scheduled delivery.
struct SimHook {
    net: Weak<NetworkInner>,
}

impl SimSource for SimHook {
    fn next_delivery_at(&self) -> Option<Timestamp> {
        let inner = self.net.upgrade()?;
        inner.sim.as_ref()?.next_at()
    }

    fn release_next(&self) -> bool {
        let Some(inner) = self.net.upgrade() else {
            return false;
        };
        let net = Network { inner };
        !matches!(net.sim_release_next(), SimRelease::Idle)
    }
}

/// Error returned by the blocking receive operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvError {
    /// No packet arrived within the timeout.
    Timeout,
    /// The endpoint is detached from the network.
    Disconnected,
}

impl std::fmt::Display for RecvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecvError::Timeout => write!(f, "receive timed out"),
            RecvError::Disconnected => write!(f, "endpoint detached from network"),
        }
    }
}

impl std::error::Error for RecvError {}

/// A machine's handle onto the network.
///
/// The receive queue is an MPMC channel: an endpoint shared across
/// threads (e.g. behind an `Arc` in a server worker pool) hands each
/// packet to exactly one concurrent receiver.
///
/// Dropping the endpoint detaches the machine.
pub struct Endpoint {
    id: MachineId,
    net: Network,
    nic: Arc<dyn NetworkInterface>,
    receiver: Receiver<Packet>,
    load: Arc<AtomicU32>,
}

impl std::fmt::Debug for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Endpoint").field("id", &self.id).finish()
    }
}

impl Endpoint {
    /// This machine's (unforgeable) address.
    pub fn id(&self) -> MachineId {
        self.id
    }

    /// The network this endpoint is attached to.
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// The network's observability handle (see [`Network::obs`]).
    pub fn obs(&self) -> &Obs {
        self.net.obs()
    }

    /// Sets this machine's advertised load gauge (an arbitrary
    /// unit — the dispatch engine publishes its in-flight request
    /// count). Placement policies compare gauges across the replicas
    /// of a service; see [`Network::load_of`].
    pub fn set_load(&self, load: u32) {
        self.load.store(load, Ordering::Relaxed);
    }

    /// Increments the load gauge (a request entered service).
    pub fn add_load(&self, delta: u32) {
        self.load.fetch_add(delta, Ordering::Relaxed);
    }

    /// Decrements the load gauge, saturating at zero.
    pub fn sub_load(&self, delta: u32) {
        let _ = self
            .load
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(delta))
            });
    }

    /// The current value of this machine's load gauge.
    pub fn load(&self) -> u32 {
        self.load.load(Ordering::Relaxed)
    }

    /// The network's reactor (scheduler + clock) — the clock every
    /// timeout above this endpoint should be computed against.
    pub fn reactor(&self) -> &Arc<Reactor> {
        self.net.reactor()
    }

    /// The current point on the network's timeline.
    pub fn now(&self) -> Timestamp {
        self.net.now()
    }

    /// Registers interest in `port` (a GET in the paper's terms).
    /// Returns the wire port actually listened on — `F(port)` under an
    /// F-box.
    pub fn claim(&self, port: Port) -> Port {
        let wire = self.nic.claim(port);
        self.net.index_claim(self.id, wire);
        wire
    }

    /// Withdraws a claim made with [`claim`](Endpoint::claim).
    pub fn release(&self, port: Port) {
        let wire = self.nic.release(port);
        self.net.index_release(self.id, wire);
    }

    /// Transmits a packet and reports how many interfaces accepted it
    /// and how many copies were delivered.
    pub fn send(&self, header: Header, payload: Bytes) -> Sent {
        self.net.send(self.id, header, payload)
    }

    /// Closes this machine's receive queue for good: what is queued is
    /// discarded, frames sent to the machine from now on vanish, and
    /// every thread blocked in a receive on this endpoint wakes with
    /// [`RecvError::Disconnected`]. The machine stays attached and its
    /// interface keeps its claims, so peers see a crashed machine —
    /// timeouts, not refusals.
    pub fn close(&self) {
        self.net.close(self.id);
        while self.receiver.try_recv().is_ok() {}
    }

    /// Blocks until a packet arrives (advancing the clock over its
    /// simulated latency: a real wait on the wall clock, a jump on the
    /// simulated one).
    ///
    /// # Errors
    /// Returns [`RecvError::Disconnected`] if the endpoint has been
    /// detached.
    pub fn recv(&self) -> Result<Packet, RecvError> {
        let reactor = self.net.reactor();
        if reactor.is_deterministic() {
            return self.recv_parked(None);
        }
        let pkt = self.receiver.recv().map_err(|_| RecvError::Disconnected)?;
        reactor.deliver(&pkt);
        Ok(pkt)
    }

    /// Like [`recv`](Endpoint::recv) but gives up after `timeout` of
    /// timeline time.
    ///
    /// # Errors
    /// [`RecvError::Timeout`] on expiry, [`RecvError::Disconnected`] if
    /// detached.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<Packet, RecvError> {
        self.recv_deadline(self.net.now() + timeout)
    }

    /// Like [`recv`](Endpoint::recv) but gives up once the timeline
    /// reaches `deadline`.
    ///
    /// # Errors
    /// As for [`recv_timeout`](Endpoint::recv_timeout).
    pub fn recv_deadline(&self, deadline: Timestamp) -> Result<Packet, RecvError> {
        let reactor = self.net.reactor();
        if reactor.is_deterministic() {
            return self.recv_parked(Some(deadline));
        }
        let real = reactor
            .clock()
            .real_instant(deadline)
            .expect("wall clocks map to real instants");
        let pkt = self.receiver.recv_deadline(real).map_err(|e| match e {
            crossbeam::channel::RecvTimeoutError::Timeout => RecvError::Timeout,
            crossbeam::channel::RecvTimeoutError::Disconnected => RecvError::Disconnected,
        })?;
        // If the packet's simulated arrival lands past the caller's
        // deadline we still deliver it after waiting (a consumed channel
        // message cannot be requeued); the leniency only helps callers.
        reactor.deliver(&pkt);
        Ok(pkt)
    }

    /// The simulator's receive: parks on the reactor, which releases
    /// deliveries until one lands in this queue or the deadline passes.
    fn recv_parked(&self, deadline: Option<Timestamp>) -> Result<Packet, RecvError> {
        let reactor = self.net.reactor();
        let pkt = reactor
            .park_until(deadline, || match self.poll_arrival() {
                Err(RecvError::Timeout) => None,
                arrival => Some(arrival),
            })
            .unwrap_or(Err(RecvError::Timeout))?;
        reactor.deliver(&pkt);
        Ok(pkt)
    }

    /// Non-blocking receive of an already-arrived packet (the clock is
    /// still advanced over the packet's simulated latency).
    pub fn try_recv(&self) -> Option<Packet> {
        let pkt = self.poll_arrival().ok()?;
        self.net.reactor().deliver(&pkt);
        Some(pkt)
    }

    /// Pops the next queued packet **without consuming its delivery**
    /// (the clock is not advanced). This is the
    /// building block for poll-driven consumers: they pass the packet
    /// to [`Reactor::deliver`](crate::Reactor::deliver) before they
    /// act on it. Most callers want [`try_recv`](Endpoint::try_recv).
    ///
    /// # Errors
    /// [`RecvError::Timeout`] when nothing is queued (a receive that
    /// waits for nothing), [`RecvError::Disconnected`] once the
    /// endpoint is closed or detached.
    pub fn poll_arrival(&self) -> Result<Packet, RecvError> {
        self.receiver.try_recv().map_err(|e| match e {
            TryRecvError::Empty => RecvError::Timeout,
            TryRecvError::Disconnected => RecvError::Disconnected,
        })
    }

    /// Whether at least one packet is queued on this endpoint
    /// (regardless of its simulated arrival time).
    pub fn has_arrivals(&self) -> bool {
        !self.receiver.is_empty()
    }
}

// Server worker pools share one endpoint across threads.
const _: () = {
    const fn assert_shareable<T: Send + Sync>() {}
    assert_shareable::<Endpoint>();
    assert_shareable::<Network>();
};

impl Drop for Endpoint {
    fn drop(&mut self) {
        self.net.detach(self.id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    fn port(v: u64) -> Port {
        Port::new(v).unwrap()
    }

    #[test]
    fn unicast_delivers_only_to_claimer() {
        let net = Network::new();
        let a = net.attach_open();
        let b = net.attach_open();
        let c = net.attach_open();
        b.claim(port(7));

        let sent = a.send(Header::to(port(7)), Bytes::from_static(b"x"));
        assert_eq!((sent.accepted, sent.delivered), (1, 1));
        assert_eq!(&b.recv().unwrap().payload[..], b"x");
        assert!(c.try_recv().is_none());
    }

    #[test]
    fn source_is_stamped_by_network() {
        let net = Network::new();
        let a = net.attach_open();
        let b = net.attach_open();
        b.claim(port(9));
        a.send(Header::to(port(9)), Bytes::new());
        assert_eq!(b.recv().unwrap().source, a.id());
    }

    #[test]
    fn broadcast_reaches_everyone_but_sender() {
        let net = Network::new();
        let a = net.attach_open();
        let b = net.attach_open();
        let c = net.attach_open();
        let n = a.send(Header::to(Port::BROADCAST), Bytes::from_static(b"loc"));
        assert_eq!(n.delivered, 2);
        assert!(b.recv().is_ok());
        assert!(c.recv().is_ok());
        assert!(a.try_recv().is_none());
    }

    #[test]
    fn sender_does_not_hear_own_unicast() {
        let net = Network::new();
        let a = net.attach_open();
        a.claim(port(5));
        let n = a.send(Header::to(port(5)), Bytes::new());
        assert_eq!(n.delivered, 0);
    }

    #[test]
    fn taps_see_everything() {
        let net = Network::new();
        let wire = net.tap();
        let a = net.attach_open();
        let b = net.attach_open();
        b.claim(port(3));
        a.send(Header::to(port(3)), Bytes::from_static(b"secret"));
        a.send(Header::to(port(4)), Bytes::from_static(b"undelivered"));
        let p1 = wire.recv().unwrap();
        let p2 = wire.recv().unwrap();
        assert_eq!(&p1.payload[..], b"secret");
        // Even packets nobody accepted are visible on the wire.
        assert_eq!(&p2.payload[..], b"undelivered");
    }

    #[test]
    fn a_full_loss_plan_loses_everything() {
        let plan = FaultPlan {
            loss_per_mille: 1000,
            ..FaultPlan::quiet()
        };
        let net = Network::new_with_plan(1, plan);
        let a = net.attach_open();
        let b = net.attach_open();
        b.claim(port(2));
        let sent = a.send(Header::to(port(2)), Bytes::new());
        assert_eq!((sent.accepted, sent.delivered), (1, 0));
        assert_eq!(net.stats().snapshot().packets_dropped, 1);
        assert!(b.try_recv().is_none());
    }

    #[test]
    fn may_duplicate_is_fixed_by_the_plan_on_both_clocks() {
        for dup_per_mille in [0, 1, 1000] {
            let plan = FaultPlan {
                dup_per_mille,
                ..FaultPlan::quiet()
            };
            let want = dup_per_mille > 0;
            assert_eq!(
                Network::new_with_plan(1, plan.clone()).may_duplicate(),
                want
            );
            assert_eq!(Network::new_sim_with_plan(1, plan).may_duplicate(), want);
        }
    }

    #[test]
    fn a_wall_duplicate_is_a_second_copy_queued_behind_the_first() {
        let plan = FaultPlan {
            dup_per_mille: 1000,
            ..FaultPlan::quiet()
        };
        let net = Network::new_with_plan(1, plan);
        net.obs().enable();
        let a = net.attach_open();
        let b = net.attach_open();
        b.claim(port(2));
        let sent = a.send(Header::to(port(2)), Bytes::from_static(b"x"));
        assert_eq!((sent.accepted, sent.delivered), (1, 1));
        assert_eq!(net.stats().snapshot().packets_delivered, 2);
        let first = b.recv().unwrap();
        let second = b.recv().unwrap();
        assert!(!first.delayed && second.delayed);
        assert!(second.deliver_at() >= first.deliver_at() + Duration::from_micros(100));
        assert_eq!(net.obs().snapshot().unwrap().faults_duplicated, 1);
    }

    #[test]
    fn latency_delays_delivery() {
        let net = Network::new();
        let a = net.attach_open();
        let b = net.attach_open();
        b.claim(port(2));
        net.set_latency(Duration::from_millis(30));
        let t0 = Instant::now();
        a.send(Header::to(port(2)), Bytes::new());
        b.recv().unwrap();
        assert!(t0.elapsed() >= Duration::from_millis(30));
    }

    #[test]
    fn colocated_machines_skip_latency() {
        let net = Network::new();
        let a = net.attach_open();
        let b = net.attach_open();
        b.claim(port(2));
        net.set_latency(Duration::from_millis(50));
        net.colocate(a.id(), b.id());
        let t0 = Instant::now();
        a.send(Header::to(port(2)), Bytes::new());
        b.recv().unwrap();
        assert!(t0.elapsed() < Duration::from_millis(40));
    }

    #[test]
    fn partition_blocks_traffic_both_ways_until_healed() {
        let net = Network::new();
        let a = net.attach_open();
        let b = net.attach_open();
        let c = net.attach_open();
        a.claim(port(1));
        b.claim(port(2));
        c.claim(port(3));

        net.partition(a.id(), b.id());
        assert_eq!(a.send(Header::to(port(2)), Bytes::new()).delivered, 0);
        assert_eq!(b.send(Header::to(port(1)), Bytes::new()).delivered, 0);
        // Third parties are unaffected.
        assert_eq!(a.send(Header::to(port(3)), Bytes::new()).delivered, 1);
        assert_eq!(net.stats().snapshot().packets_dropped, 2);

        net.heal(a.id(), b.id());
        assert_eq!(a.send(Header::to(port(2)), Bytes::new()).delivered, 1);
    }

    #[test]
    fn partition_also_blocks_broadcast_between_the_pair() {
        let net = Network::new();
        let a = net.attach_open();
        let b = net.attach_open();
        let c = net.attach_open();
        net.partition(a.id(), b.id());
        assert_eq!(
            a.send(Header::to(Port::BROADCAST), Bytes::new()).delivered,
            1
        );
        assert!(c.try_recv().is_some());
        assert!(b.try_recv().is_none());
    }

    #[test]
    fn recv_timeout_expires() {
        let net = Network::new();
        let a = net.attach_open();
        assert_eq!(
            a.recv_timeout(Duration::from_millis(10)).unwrap_err(),
            RecvError::Timeout
        );
    }

    #[test]
    fn detached_sender_sends_nothing() {
        let net = Network::new();
        let a = net.attach_open();
        let b = net.attach_open();
        b.claim(port(2));
        let from = a.id();
        drop(a);
        assert_eq!(
            net.send(from, Header::to(port(2)), Bytes::new()),
            Sent::default()
        );
        assert_eq!(net.machine_count(), 1);
    }

    #[test]
    fn stats_count_filtering() {
        let net = Network::new();
        let a = net.attach_open();
        let _b = net.attach_open();
        let _c = net.attach_open();
        a.send(Header::to(port(42)), Bytes::new()); // nobody claimed it
        let s = net.stats().snapshot();
        assert_eq!(s.packets_sent, 1);
        assert_eq!(s.packets_delivered, 0);
        assert_eq!(s.packets_filtered, 2);
    }

    #[test]
    fn targeted_frame_reaches_only_the_named_claimer() {
        // Two machines claim the same port (service replicas); a
        // machine-targeted frame must reach the named one only.
        let net = Network::new();
        let a = net.attach_open();
        let b = net.attach_open();
        let c = net.attach_open();
        b.claim(port(7));
        c.claim(port(7));

        // Untargeted: associative addressing delivers to both claimers.
        assert_eq!(a.send(Header::to(port(7)), Bytes::new()).delivered, 2);
        assert!(b.try_recv().is_some());
        assert!(c.try_recv().is_some());

        // Targeted: only machine b hears it.
        let sent = a.send(Header::to(port(7)).targeted(b.id()), Bytes::new());
        assert_eq!((sent.accepted, sent.delivered), (1, 1));
        assert!(b.try_recv().is_some());
        assert!(c.try_recv().is_none());
    }

    #[test]
    fn target_cannot_bypass_port_filtering() {
        // Targeting a machine that never claimed the port delivers
        // nothing: the interface's accept check still gates.
        let net = Network::new();
        let a = net.attach_open();
        let b = net.attach_open();
        let sent = a.send(Header::to(port(9)).targeted(b.id()), Bytes::new());
        assert_eq!((sent.accepted, sent.delivered), (0, 0));
        assert!(b.try_recv().is_none());
    }

    #[test]
    fn broadcast_ignores_target_hint() {
        let net = Network::new();
        let a = net.attach_open();
        let b = net.attach_open();
        let c = net.attach_open();
        let n = a.send(Header::to(Port::BROADCAST).targeted(b.id()), Bytes::new());
        assert_eq!(
            n.delivered, 2,
            "broadcast still reaches every other machine"
        );
        assert!(b.try_recv().is_some());
        assert!(c.try_recv().is_some());
    }

    #[test]
    fn load_gauge_is_shared_and_saturating() {
        let net = Network::new();
        let a = net.attach_open();
        assert_eq!(net.load_of(a.id()), Some(0));
        a.add_load(3);
        assert_eq!(a.load(), 3);
        assert_eq!(net.load_of(a.id()), Some(3));
        a.sub_load(5);
        assert_eq!(net.load_of(a.id()), Some(0), "gauge saturates at zero");
        a.set_load(7);
        assert_eq!(net.load_of(a.id()), Some(7));
        let id = a.id();
        drop(a);
        assert_eq!(net.load_of(id), None, "detached machines have no gauge");
    }

    #[test]
    fn broadcast_bytes_are_accounted_separately() {
        let net = Network::new();
        let a = net.attach_open();
        let b = net.attach_open();
        b.claim(port(3));
        a.send(Header::to(port(3)), Bytes::from_static(b"req"));
        let s = net.stats().snapshot();
        assert_eq!(s.broadcast_bytes_sent, 0, "unicast is not discovery");

        a.send(Header::to(Port::BROADCAST), Bytes::from_static(b"locate!"));
        let s = net.stats().snapshot();
        assert_eq!(
            s.broadcast_bytes_sent,
            Packet::WIRE_HEADER_BYTES + 7,
            "broadcast frames charge header + payload to discovery"
        );
        assert!(s.bytes_sent > s.broadcast_bytes_sent, "subset of total");
    }

    #[test]
    fn shared_endpoint_delivers_each_packet_to_one_receiver() {
        use std::sync::Arc;
        let net = Network::new();
        let rx = Arc::new(net.attach_open());
        rx.claim(port(88));
        let consumers: Vec<_> = (0..4)
            .map(|_| {
                let rx = Arc::clone(&rx);
                std::thread::spawn(move || {
                    let mut got = 0u32;
                    while rx.recv_timeout(Duration::from_millis(100)).is_ok() {
                        got += 1;
                    }
                    got
                })
            })
            .collect();
        let tx = net.attach_open();
        for _ in 0..200 {
            tx.send(Header::to(port(88)), Bytes::from_static(b"x"));
        }
        let total: u32 = consumers.into_iter().map(|c| c.join().unwrap()).sum();
        assert_eq!(total, 200, "every packet claimed exactly once");
    }

    #[test]
    fn untargeted_unicast_asks_only_indexed_claimers_but_counts_everyone() {
        let net = Network::new();
        let a = net.attach_open();
        let b = net.attach_open();
        let _c = net.attach_open();
        let _d = net.attach_open();
        b.claim(port(7));
        b.claim(port(7)); // claims are a set, in the interface and the index
        let sent = a.send(Header::to(port(7)), Bytes::new());
        assert_eq!((sent.accepted, sent.delivered), (1, 1));
        assert_eq!(net.stats().snapshot().packets_filtered, 2, "c and d");

        b.release(port(7));
        let sent = a.send(Header::to(port(7)), Bytes::new());
        assert_eq!(sent, Sent::default());
        assert_eq!(net.stats().snapshot().packets_filtered, 2 + 3);
        assert!(net.inner.topology.read().claims.is_empty());
    }

    #[test]
    fn detach_removes_the_machines_index_entries() {
        let net = Network::new();
        let a = net.attach_open();
        let b = net.attach_open();
        let c = net.attach_open();
        b.claim(port(1));
        b.claim(port(2));
        c.claim(port(2));
        drop(b);
        assert_eq!(a.send(Header::to(port(1)), Bytes::new()).accepted, 0);
        assert_eq!(a.send(Header::to(port(2)), Bytes::new()).delivered, 1);
        let topology = net.inner.topology.read();
        assert_eq!(topology.claims.len(), 1);
        assert_eq!(topology.claims[&port(2)], vec![c.id()]);
    }

    #[test]
    fn closed_machine_wakes_blocked_receivers_and_swallows_frames() {
        let net = Network::new();
        let a = net.attach_open();
        let b = Arc::new(net.attach_open());
        b.claim(port(4));
        let blocked: Vec<_> = (0..3)
            .map(|_| {
                let b = Arc::clone(&b);
                std::thread::spawn(move || b.recv())
            })
            .collect();
        b.close();
        for t in blocked {
            assert_eq!(t.join().unwrap().unwrap_err(), RecvError::Disconnected);
        }
        // Still attached, still claiming: the frame is accepted and
        // lost, as by a crashed machine.
        let sent = a.send(Header::to(port(4)).targeted(b.id()), Bytes::new());
        assert_eq!((sent.accepted, sent.delivered), (1, 0));
        assert_eq!(net.machine_count(), 2);
    }

    #[test]
    fn zero_latency_frames_are_not_marked_delayed() {
        let net = Network::new();
        let a = net.attach_open();
        let b = net.attach_open();
        let c = net.attach_open();
        b.claim(port(2));
        c.claim(port(2));
        a.send(Header::to(port(2)), Bytes::new());
        assert!(!b.recv().unwrap().delayed);
        assert!(!c.recv().unwrap().delayed);
        net.set_latency(Duration::from_millis(1));
        net.colocate(a.id(), c.id());
        a.send(Header::to(port(2)), Bytes::new());
        assert!(b.recv().unwrap().delayed);
        assert!(!c.recv().unwrap().delayed, "co-located: no hop latency");
    }

    #[test]
    fn queue_meter_counts_inbox_and_party_queues() {
        let net = Network::new();
        let a = net.attach_open();
        let b = net.attach_open();
        b.claim(port(3));
        let (tx, rx) = net.channel();
        let before = net.hot_path();
        a.send(Header::to(port(3)), Bytes::new());
        tx.send(1u8).unwrap();
        let hot = net.hot_path() - before;
        assert_eq!((hot.queue_pushes, hot.queue_wakes), (2, 0));
        assert!(b.try_recv().is_some() && rx.try_recv().is_ok());
    }

    /// One step of the index-vs-reference property below.
    #[derive(Debug, Clone, Copy)]
    enum Step {
        Attach(usize),
        Detach(usize),
        Claim(usize, u64),
        Release(usize, u64),
        Partition(usize, usize),
        Heal(usize, usize),
        /// `(from, port, target)`; port 0 is the broadcast port.
        Send(usize, u64, Option<usize>),
    }

    fn step_strategy() -> impl proptest::strategy::Strategy<Value = Step> {
        use proptest::prelude::*;
        const SLOTS: usize = 5;
        prop_oneof![
            (0..SLOTS).prop_map(Step::Attach),
            (0..SLOTS).prop_map(Step::Detach),
            (0..SLOTS, 1u64..4).prop_map(|(m, p)| Step::Claim(m, p)),
            (0..SLOTS, 1u64..4).prop_map(|(m, p)| Step::Claim(m, p)),
            (0..SLOTS, 1u64..4).prop_map(|(m, p)| Step::Release(m, p)),
            (0..SLOTS, 0..SLOTS).prop_map(|(a, b)| Step::Partition(a, b)),
            (0..SLOTS, 0..SLOTS).prop_map(|(a, b)| Step::Heal(a, b)),
            (0..SLOTS, 0u64..4).prop_map(|(m, p)| Step::Send(m, p, None)),
            (0..SLOTS, 0u64..4).prop_map(|(m, p)| Step::Send(m, p, None)),
            (0..SLOTS, 0u64..4, 0..SLOTS).prop_map(|(m, p, t)| Step::Send(m, p, Some(t))),
        ]
    }

    proptest::proptest! {
        /// The claim index only narrows who is asked: over any history
        /// of attaches, detaches, claims, releases, partitions and
        /// heals, a send reaches exactly the machines that asking
        /// *every* interface would reach (the reference model below),
        /// and the filter and drop counters agree with that model.
        #[test]
        fn indexed_send_matches_offer_to_every_machine(
            steps in proptest::collection::vec(step_strategy(), 1..120),
        ) {
            use proptest::prelude::*;
            let net = Network::new();
            // Reference state, kept beside the real endpoints.
            let mut machines: Vec<Option<(Endpoint, HashSet<u64>)>> =
                (0..5).map(|_| None).collect();
            let mut severed: HashSet<(MachineId, MachineId)> = HashSet::new();
            let (mut filtered, mut dropped) = (0u64, 0u64);
            for step in steps {
                match step {
                    Step::Attach(m) => {
                        if machines[m].is_none() {
                            machines[m] = Some((net.attach_open(), HashSet::new()));
                        }
                    }
                    Step::Detach(m) => machines[m] = None,
                    Step::Claim(m, p) => {
                        if let Some((ep, claimed)) = &mut machines[m] {
                            ep.claim(port(p));
                            claimed.insert(p);
                        }
                    }
                    Step::Release(m, p) => {
                        if let Some((ep, claimed)) = &mut machines[m] {
                            ep.release(port(p));
                            claimed.remove(&p);
                        }
                    }
                    Step::Partition(a, b) | Step::Heal(a, b) => {
                        let (Some((ea, _)), Some((eb, _))) = (&machines[a], &machines[b]) else {
                            continue;
                        };
                        let pair = [(ea.id(), eb.id()), (eb.id(), ea.id())];
                        if matches!(step, Step::Partition(..)) {
                            net.partition(ea.id(), eb.id());
                            severed.extend(pair);
                        } else {
                            net.heal(ea.id(), eb.id());
                            severed.retain(|link| !pair.contains(link));
                        }
                    }
                    Step::Send(from, p, target) => {
                        let Some((sender, _)) = &machines[from] else {
                            continue;
                        };
                        // A target slot that is empty names a machine
                        // that is not there.
                        let target = target.map(|t| match &machines[t] {
                            Some((ep, _)) => ep.id(),
                            None => MachineId::from(u32::MAX),
                        });
                        let dest = if p == 0 { Port::BROADCAST } else { port(p) };
                        let mut header = Header::to(dest);
                        header.target = target;
                        let sent = sender.send(header, Bytes::new());

                        // The reference: offer the frame to every
                        // other attached machine.
                        let mut expect_accepted = 0;
                        let mut expect: Vec<MachineId> = Vec::new();
                        for (ep, claimed) in machines.iter().flatten() {
                            let id = ep.id();
                            if id == sender.id() {
                                continue;
                            }
                            if p != 0 {
                                if target.is_some_and(|t| t != id) {
                                    continue;
                                }
                                if !claimed.contains(&p) {
                                    filtered += 1;
                                    continue;
                                }
                            }
                            expect_accepted += 1;
                            if severed.contains(&(sender.id(), id)) {
                                dropped += 1;
                            } else {
                                expect.push(id);
                            }
                        }
                        prop_assert_eq!(sent.accepted, expect_accepted);
                        prop_assert_eq!(sent.delivered, expect.len());
                        for (ep, _) in machines.iter().flatten() {
                            let got = std::iter::from_fn(|| ep.try_recv()).count();
                            let want = usize::from(expect.contains(&ep.id()));
                            prop_assert_eq!(got, want, "machine {:?} on {:?}", ep.id(), step);
                        }
                    }
                }
                let stats = net.stats().snapshot();
                prop_assert_eq!(stats.packets_filtered, filtered, "after {:?}", step);
                prop_assert_eq!(stats.packets_dropped, dropped, "after {:?}", step);
            }
        }
    }

    #[test]
    fn many_threads_can_send_concurrently() {
        let net = Network::new();
        let rx = net.attach_open();
        rx.claim(port(77));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let ep = net.attach_open();
            handles.push(std::thread::spawn(move || {
                for _ in 0..100 {
                    ep.send(Header::to(port(77)), Bytes::from_static(b"m"));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let mut got = 0;
        while rx.try_recv().is_some() {
            got += 1;
        }
        assert_eq!(got, 800);
    }
}
