//! The event-driven transport core: a shared timeline, two
//! interchangeable clocks, and a scheduler for time-bounded waits.
//!
//! Every [`Network`](crate::Network) owns one [`Reactor`]. The reactor
//! carries the network's **clock** — the single source of truth for
//! "now" on the simulated timeline — and a scheduler that parks
//! waiting threads until an event arrives or a timeline deadline
//! passes. Two clocks implement the [`Clock`] contract:
//!
//! * [`WallClock`] — the timeline is real time. Waiting until a
//!   deadline blocks the OS thread; simulated latency costs real
//!   wall-clock, exactly the pre-reactor behaviour.
//! * [`VirtualClock`] — the timeline is a counter. Delivering a packet
//!   *jumps* the clock to its `deliver_at` instant instead of
//!   sleeping, so a 2 ms hop costs nothing in wall-clock; when every
//!   thread is parked (the system is quiescent), the reactor advances
//!   time to the earliest pending deadline and wakes its owner. Timing
//!   tests become deterministic in *modeled* time and fast in real
//!   time.
//!
//! # Timestamps
//!
//! [`Timestamp`] is a point on the reactor's timeline (a duration
//! since the clock's epoch), deliberately **not** a
//! [`std::time::Instant`]: virtual timelines have no meaningful
//! mapping to the OS clock. Packets carry their `deliver_at` as a
//! `Timestamp`; all timeout arithmetic above `net` (RPC attempt
//! deadlines, demux ticks, locate TTLs, registry leases) is done in
//! timestamps obtained from the endpoint's clock, which is what lets
//! the whole stack run under either clock unchanged.
//!
//! # Quiescence (virtual clock only)
//!
//! The virtual clock cannot know, from inside one thread, whether
//! another OS thread is still computing. The reactor therefore uses a
//! grace heuristic: a parked thread that observes no reactor events
//! for [`QUIESCENCE_GRACE`] of real time declares the system idle and
//! advances the clock to the earliest pending deadline. A thread that
//! computes for longer than the grace without touching the network can
//! therefore see timers fire "early" in virtual time; every timer user
//! in this workspace (RPC retransmission, failover, leases) already
//! tolerates early expiry, because expiry is always legal under the
//! at-least-once contract. The grace bounds the real-time cost of a
//! virtual timeout: the first expiry in an idle window costs one
//! grace, consecutive expiries are immediate.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::ops::{Add, AddAssign, Sub};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// A point on a reactor's timeline: the duration since the clock's
/// epoch (network creation). Ordered, copyable, and cheap.
///
/// Not convertible to [`std::time::Instant`]: under a
/// [`VirtualClock`] there is no corresponding OS-clock moment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Timestamp(Duration);

impl Timestamp {
    /// The clock's epoch.
    pub const ZERO: Timestamp = Timestamp(Duration::ZERO);

    /// The duration since the epoch.
    pub fn since_epoch(self) -> Duration {
        self.0
    }

    /// Timeline distance from `earlier` to `self`, zero if `earlier`
    /// is actually later (mirrors
    /// [`Instant::saturating_duration_since`]).
    pub fn saturating_duration_since(self, earlier: Timestamp) -> Duration {
        self.0.saturating_sub(earlier.0)
    }
}

impl Add<Duration> for Timestamp {
    type Output = Timestamp;
    fn add(self, rhs: Duration) -> Timestamp {
        Timestamp(self.0.saturating_add(rhs))
    }
}

impl AddAssign<Duration> for Timestamp {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 = self.0.saturating_add(rhs);
    }
}

impl Sub<Timestamp> for Timestamp {
    type Output = Duration;
    fn sub(self, rhs: Timestamp) -> Duration {
        self.0.saturating_sub(rhs.0)
    }
}

/// A source of timeline time, shared by every endpoint of a network.
///
/// Implementations must be cheap to query and safe to share across
/// threads; the two provided clocks are [`WallClock`] and
/// [`VirtualClock`].
pub trait Clock: Send + Sync + fmt::Debug + 'static {
    /// The current point on the timeline.
    fn now(&self) -> Timestamp;

    /// Whether this clock can jump (virtual) instead of waiting
    /// (wall).
    fn is_virtual(&self) -> bool;

    /// Whether this clock belongs to the **deterministic simulation
    /// executor** ([`SimClock`]): a single-threaded timeline with no
    /// grace/patience heuristics and no delivery gates. Every
    /// real-time wait in the reactor is bypassed for such clocks —
    /// progress comes exclusively from releasing the simulation
    /// controller's next pending delivery or jumping straight to the
    /// next timeline deadline.
    fn is_deterministic(&self) -> bool {
        false
    }

    /// Attempts to move the timeline forward to `t` without waiting.
    /// Returns `true` if the clock jumped (virtual clocks; a no-op
    /// when `t` is already past), `false` if the caller must physically
    /// wait (wall clocks).
    fn try_jump_to(&self, t: Timestamp) -> bool;

    /// Maps a timeline point to the real [`Instant`] at which it
    /// occurs, or `None` for clocks with no real-time correspondence.
    fn real_instant(&self, t: Timestamp) -> Option<Instant>;
}

/// The wall clock: the timeline is anchored to a real [`Instant`] and
/// advances with the OS clock. Waiting out simulated latency blocks
/// the thread — the pre-reactor behaviour, and the right choice when
/// measuring real wall-clock throughput.
#[derive(Debug)]
pub struct WallClock {
    anchor: Instant,
}

impl WallClock {
    /// A wall clock whose epoch is "now".
    pub fn new() -> WallClock {
        WallClock {
            anchor: Instant::now(),
        }
    }
}

impl Default for WallClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for WallClock {
    fn now(&self) -> Timestamp {
        Timestamp(self.anchor.elapsed())
    }

    fn is_virtual(&self) -> bool {
        false
    }

    fn try_jump_to(&self, _t: Timestamp) -> bool {
        false
    }

    fn real_instant(&self, t: Timestamp) -> Option<Instant> {
        Some(self.anchor + t.0)
    }
}

/// The virtual clock: the timeline is an atomic counter that only
/// moves when something moves it — a delivered packet's `deliver_at`,
/// or the reactor advancing to the next deadline when the system is
/// quiescent. Simulated latency is free in wall-clock terms.
#[derive(Debug, Default)]
pub struct VirtualClock {
    nanos: AtomicU64,
}

impl VirtualClock {
    /// A virtual clock at the epoch.
    pub fn new() -> VirtualClock {
        VirtualClock::default()
    }
}

impl Clock for VirtualClock {
    fn now(&self) -> Timestamp {
        Timestamp(Duration::from_nanos(self.nanos.load(Ordering::Acquire)))
    }

    fn is_virtual(&self) -> bool {
        true
    }

    fn try_jump_to(&self, t: Timestamp) -> bool {
        let target = t.0.as_nanos().min(u64::MAX as u128) as u64;
        let _ = self
            .nanos
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |cur| {
                (cur < target).then_some(target)
            });
        true
    }

    fn real_instant(&self, _t: Timestamp) -> Option<Instant> {
        None
    }
}

/// The deterministic simulation clock: an atomic-nanosecond timeline
/// like [`VirtualClock`], but flagged [`Clock::is_deterministic`] so
/// the reactor takes the exact single-threaded paths — no quiescence
/// grace, no far-jump confirmation, no gate patience, no real-time
/// waits of any kind. Two runs over the same seed produce the same
/// timeline, event for event. Construct networks on it with
/// [`Network::new_sim`](crate::Network::new_sim).
#[derive(Debug, Default)]
pub struct SimClock {
    nanos: AtomicU64,
}

impl SimClock {
    /// A deterministic simulation clock at the epoch.
    pub fn new() -> SimClock {
        SimClock::default()
    }
}

impl Clock for SimClock {
    fn now(&self) -> Timestamp {
        Timestamp(Duration::from_nanos(self.nanos.load(Ordering::Acquire)))
    }

    fn is_virtual(&self) -> bool {
        true
    }

    fn is_deterministic(&self) -> bool {
        true
    }

    fn try_jump_to(&self, t: Timestamp) -> bool {
        let target = t.0.as_nanos().min(u64::MAX as u128) as u64;
        let _ = self
            .nanos
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |cur| {
                (cur < target).then_some(target)
            });
        true
    }

    fn real_instant(&self, _t: Timestamp) -> Option<Instant> {
        None
    }
}

/// The deterministic executor's hook into the reactor: the network's
/// simulation controller exposes its earliest pending delivery so a
/// thread parked inside [`Reactor::park_until`] can release it (and
/// thereby make progress) instead of waiting out a real-time grace.
/// Registered once by `Network::new_sim`; only consulted under a
/// deterministic clock.
pub(crate) trait SimSource: Send + Sync {
    /// The timeline instant of the earliest pending (not yet released)
    /// delivery, if any.
    fn next_delivery_at(&self) -> Option<Timestamp>;

    /// Releases the earliest pending delivery into its destination
    /// machine's queue, advancing the clock to its instant. Returns
    /// `false` if nothing was pending.
    fn release_next(&self) -> bool;
}

/// How long a parked thread waits without observing any reactor event
/// before declaring the system quiescent and advancing a
/// [`VirtualClock`] to the next pending deadline. See the module docs
/// for the trade-off this heuristic makes.
pub const QUIESCENCE_GRACE: Duration = Duration::from_millis(2);

/// Jumps farther than this ahead of `now` are **far jumps** — almost
/// always a pending retransmission/lease deadline that should only
/// fire if the system is genuinely idle, not merely between the
/// events of a computing thread the reactor cannot see.
const FAR_JUMP: Duration = Duration::from_millis(250);

/// How long (real time) quiescence must have persisted before a far
/// jump is allowed. Bounds the real-time cost of a long virtual
/// timeout; more importantly, a busy handler thread on a loaded host
/// gets this much scheduling slack before its peers' big timeouts can
/// fire under it.
const FAR_JUMP_CONFIRM: Duration = Duration::from_millis(20);

/// After a quiescent jump fired *someone else's* deadline, how long
/// the jumping thread yields so the woken owner can run (and possibly
/// produce events, e.g. a retransmission) before the next jump.
const JUMP_YIELD: Duration = Duration::from_micros(100);

/// How long (real time) a delivery gate actively holds the timeline
/// after registration. Within the window, the clock will not pass the
/// gate — this is what keeps a *runnable but not yet host-scheduled*
/// consumer from being leapfrogged (the ordering fidelity of the
/// virtual clock). Past the window the gate stops blocking: either
/// its consumer is legitimately busy in model terms (a saturated
/// server's queue — arrival happened, service comes later) or it is
/// gone entirely (a halted replica's queue), and in both cases the
/// rest of the system must keep moving. Flows that are actually
/// progressing refresh their protection with every hop's fresh gate.
const GATE_PATIENCE: Duration = Duration::from_millis(10);

/// A claim on the timeline: until released, the clock will not be
/// advanced past the gate's instant by other deliveries (parked
/// timeouts may still pass it; see [`Reactor::park_until`]).
///
/// Every packet enqueued under a virtual clock carries a gate at its
/// `deliver_at`, released when the receiver consumes it via
/// [`Reactor::deliver`] — this is what keeps concurrent flows causally
/// ordered: one flow cannot fast-forward virtual time past another
/// flow's pending delivery just because its own thread got scheduled
/// first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Gate {
    at: Timestamp,
    id: u64,
}

#[derive(Debug, Default)]
struct ReactorState {
    /// Bumped by [`Reactor::notify`]; parked threads compare it to
    /// detect activity.
    events: u64,
    /// `Some((e, when))` when the system was declared quiescent at
    /// event count `e` (at real time `when`); any new event clears it.
    quiescent_at: Option<(u64, Instant)>,
    /// Pending timeline deadlines of parked threads, with a tie-break
    /// id.
    sleepers: BTreeSet<(Timestamp, u64)>,
    /// Pending delivery gates with their (real) registration time —
    /// a gate only blocks within [`GATE_PATIENCE`] of registration.
    gates: BTreeMap<(Timestamp, u64), Instant>,
    next_id: u64,
}

/// The per-network scheduler: owns the clock, parks waiting threads,
/// and (under a virtual clock) advances time across quiescent gaps.
///
/// Shared by every [`Endpoint`](crate::Endpoint) of a network; higher
/// layers reach it through [`Endpoint::reactor`](crate::Endpoint::reactor)
/// or [`Network::reactor`](crate::Network::reactor).
pub struct Reactor {
    clock: Arc<dyn Clock>,
    state: Mutex<ReactorState>,
    cv: Condvar,
    /// Threads currently inside [`park_until`](Self::park_until) or a
    /// [`deliver`](Self::deliver) wait — lets [`notify`](Self::notify)
    /// skip the lock entirely on the (wall-clock hot path) common case
    /// of nobody waiting.
    waiters: AtomicUsize,
    /// The deterministic executor's delivery source (set once by
    /// `Network::new_sim`, never on wall/virtual networks).
    sim_source: std::sync::OnceLock<Arc<dyn SimSource>>,
    /// The owning network's observability handle, for a flight-
    /// recorder dump ahead of the deterministic-stall panic.
    obs: std::sync::OnceLock<amoeba_obs::Obs>,
}

impl fmt::Debug for Reactor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Reactor")
            .field("clock", &self.clock)
            .field("now", &self.now())
            .finish()
    }
}

impl Reactor {
    /// A reactor over an explicit clock.
    pub fn new(clock: Arc<dyn Clock>) -> Arc<Reactor> {
        Arc::new(Reactor {
            clock,
            state: Mutex::new(ReactorState::default()),
            cv: Condvar::new(),
            waiters: AtomicUsize::new(0),
            sim_source: std::sync::OnceLock::new(),
            obs: std::sync::OnceLock::new(),
        })
    }

    /// A reactor on the wall clock (real time; the default).
    pub fn wall() -> Arc<Reactor> {
        Self::new(Arc::new(WallClock::new()))
    }

    /// A reactor on the virtual clock (time jumps to the next event).
    pub fn virtual_time() -> Arc<Reactor> {
        Self::new(Arc::new(VirtualClock::new()))
    }

    /// The reactor's clock.
    pub fn clock(&self) -> &Arc<dyn Clock> {
        &self.clock
    }

    /// The current point on the timeline.
    pub fn now(&self) -> Timestamp {
        self.clock.now()
    }

    /// Whether the timeline is virtual.
    pub fn is_virtual(&self) -> bool {
        self.clock.is_virtual()
    }

    /// Whether the timeline belongs to the deterministic simulation
    /// executor (see [`SimClock`]).
    pub fn is_deterministic(&self) -> bool {
        self.clock.is_deterministic()
    }

    /// Whether enqueued packets should carry delivery gates. Gates
    /// keep concurrent OS threads causally ordered under the
    /// cooperative virtual clock; the deterministic executor is
    /// single-threaded and orders deliveries centrally, so gating it
    /// would only add real-time patience waits nobody needs.
    pub fn uses_gates(&self) -> bool {
        self.clock.is_virtual() && !self.clock.is_deterministic()
    }

    /// Registers the deterministic executor's delivery source. First
    /// registration wins; called once per network by `new_sim`.
    pub(crate) fn set_sim_source(&self, source: Arc<dyn SimSource>) {
        let _ = self.sim_source.set(source);
    }

    /// Shares the owning network's observability handle. First
    /// registration wins; called once per network constructor.
    pub(crate) fn set_obs(&self, obs: amoeba_obs::Obs) {
        let _ = self.obs.set(obs);
    }

    fn lock(&self) -> MutexGuard<'_, ReactorState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Records an event (a packet enqueued, a request readied) and
    /// wakes every parked thread to re-poll its sources. Called by the
    /// network on every send; timer-free layers never need it.
    pub fn notify(&self) {
        // Fast path: nobody is parked, so there is nothing to wake and
        // no quiescence verdict to clear (a thread that parks later
        // re-reads its sources under the lock and sees this event's
        // effects). SeqCst pairs with the waiter-count increment that
        // park/deliver perform while holding the state lock: if the
        // load sees 0, the parker has not yet polled, and its poll
        // will observe whatever this notify announces.
        if self.waiters.load(Ordering::SeqCst) == 0 {
            return;
        }
        let mut st = self.lock();
        st.events = st.events.wrapping_add(1);
        st.quiescent_at = None;
        drop(st);
        self.cv.notify_all();
    }

    /// Moves the timeline to `t`: jumps a virtual clock (waking parked
    /// threads whose deadlines passed), blocks the thread until the
    /// real instant on a wall clock. Receivers call this with a
    /// packet's `deliver_at` — it is the reactor replacement for
    /// "sleep out the simulated latency".
    pub fn advance_to(&self, t: Timestamp) {
        if self.clock.try_jump_to(t) {
            // Deadlines at or before `t` may have fired; their owners
            // re-check when woken.
            self.cv.notify_all();
            return;
        }
        let deadline = self.clock.real_instant(t).expect("wall clock");
        let now = Instant::now();
        if deadline > now {
            std::thread::sleep(deadline - now);
        }
    }

    /// Sleeps `d` of timeline time: real sleep under a wall clock, a
    /// scheduled wakeup under a virtual one (the thread still yields
    /// until either the deadline is reached or the system quiesces).
    pub fn sleep(&self, d: Duration) {
        if !self.is_virtual() {
            std::thread::sleep(d);
            return;
        }
        let deadline = self.now() + d;
        let _: Option<()> = self.park_until(Some(deadline), || None);
    }

    /// Registers a gate at `t`: other deliveries will not advance the
    /// clock past `t` until the gate is released. Only meaningful under
    /// a virtual clock; the network gates every enqueued packet.
    pub fn register_gate(&self, t: Timestamp) -> Gate {
        let mut st = self.lock();
        st.next_id = st.next_id.wrapping_add(1);
        let gate = Gate {
            at: t,
            id: st.next_id,
        };
        st.gates.insert((gate.at, gate.id), Instant::now());
        gate
    }

    /// Releases a gate without advancing the clock (the packet was
    /// discarded, not delivered). Idempotent.
    pub fn release_gate(&self, gate: Gate) {
        let mut st = self.lock();
        if st.gates.remove(&(gate.at, gate.id)).is_some() {
            drop(st);
            // Deliveries waiting for their turn re-evaluate.
            self.cv.notify_all();
        }
    }

    /// Consumes a packet's delivery: waits until no *earlier* gate is
    /// pending (its owner has not yet consumed its own delivery), then
    /// advances the clock to the packet's `deliver_at` and releases its
    /// gate. This is the ordered-delivery heart of the virtual clock —
    /// without the wait, whichever thread the OS schedules first would
    /// drag the timeline forward and distort every other flow's
    /// timing.
    ///
    /// Liveness valve: an earlier gate only blocks this delivery
    /// within the gate-patience window after its registration (a few
    /// real milliseconds) — once that lapses (its owner is wedged
    /// behind us, legitimately busy, or starved by the host scheduler)
    /// the delivery proceeds, trading timing fidelity for progress.
    pub fn deliver(&self, pkt: &crate::Packet) {
        let Some(gate) = pkt.gate else {
            // Wall clock (or a tap copy): advancing is a real wait —
            // and none at all for a frame sent with zero latency,
            // whose arrival instant cannot lie ahead of a clock that
            // only moves forward.
            if pkt.delayed || self.clock.is_virtual() {
                self.advance_to(pkt.deliver_at());
            }
            return;
        };
        let mut state = self.lock();
        self.waiters.fetch_add(1, Ordering::SeqCst);
        loop {
            // Our own gate sits at `gate.at`, so "strictly earlier"
            // can never match it. Expired earlier gates (their
            // consumers are busy or gone) do not block.
            let blocked = state
                .gates
                .iter()
                .take_while(|&(&(t, _), _)| t < gate.at)
                .any(|(_, born)| born.elapsed() < GATE_PATIENCE);
            if !blocked {
                break;
            }
            let (s, _) = self
                .cv
                .wait_timeout(state, JUMP_YIELD)
                .unwrap_or_else(PoisonError::into_inner);
            state = s;
        }
        state.gates.remove(&(gate.at, gate.id));
        self.waiters.fetch_sub(1, Ordering::SeqCst);
        drop(state);
        if self.clock.try_jump_to(gate.at) {
            self.cv.notify_all();
        }
    }

    /// Releases a packet's gate without delivering it (e.g. draining a
    /// queue on teardown). No-op for ungated packets.
    pub fn discard(&self, pkt: &crate::Packet) {
        if let Some(gate) = pkt.gate {
            self.release_gate(gate);
        }
    }

    /// Re-gates a packet that is being handed off to another in-process
    /// queue (e.g. a demux routing a reply into a peer's mailbox): the
    /// timeline again may not pass the packet's `deliver_at` until the
    /// final consumer [`deliver`](Self::deliver)s it. No-op under a
    /// wall clock.
    pub fn regate(&self, pkt: &mut crate::Packet) {
        if self.uses_gates() {
            pkt.gate = Some(self.register_gate(pkt.deliver_at()));
        }
    }

    /// Parks the calling thread until `poll` yields a value or the
    /// timeline reaches `deadline` (`None` = wait for events forever).
    ///
    /// `poll` is invoked under the reactor's internal lock on every
    /// wakeup, so it must be quick and must not call back into the
    /// reactor (channel `try_recv`s are the intended shape). Senders
    /// that feed a polled source must call [`notify`](Self::notify)
    /// after enqueueing — the network does this for every packet —
    /// which is what makes the check-then-park sequence race-free.
    ///
    /// Returns `Some(value)` when `poll` produced one, `None` on
    /// deadline expiry. Under a virtual clock a parked thread may be
    /// the one that advances the clock (see the module docs on
    /// quiescence).
    pub fn park_until<T>(
        &self,
        deadline: Option<Timestamp>,
        mut poll: impl FnMut() -> Option<T>,
    ) -> Option<T> {
        let mut state = self.lock();
        self.waiters.fetch_add(1, Ordering::SeqCst);
        let id = {
            state.next_id = state.next_id.wrapping_add(1);
            state.next_id
        };
        let registered = deadline.inspect(|&d| {
            state.sleepers.insert((d, id));
        });
        let result = loop {
            if let Some(v) = poll() {
                break Some(v);
            }
            let now = self.clock.now();
            if deadline.is_some_and(|d| now >= d) {
                break None;
            }
            if self.clock.is_deterministic() {
                // The deterministic executor: single-threaded, so the
                // quiescence grace, far-jump confirmation and gate
                // patience below would be pure real-time sleeps that
                // nothing can interrupt. Progress instead comes from
                // releasing the simulation controller's earliest
                // pending delivery, or jumping straight to the next
                // registered deadline — exact virtual time, zero
                // heuristics.
                let next_delivery = self.sim_source.get().and_then(|s| s.next_delivery_at());
                let next_sleeper = state.sleepers.iter().map(|&(t, _)| t).find(|&t| t > now);
                let release = match (next_delivery, next_sleeper) {
                    (Some(d), Some(s)) => d <= s,
                    (Some(_), None) => true,
                    (None, Some(_)) => false,
                    (None, None) => {
                        if let Some(obs) = self.obs.get() {
                            obs.dump("deterministic reactor stalled");
                        }
                        panic!(
                            "deterministic reactor stalled: parked with no pending \
                             deliveries or deadlines (an actor blocked on an event \
                             that can never arrive)"
                        )
                    }
                };
                if release {
                    let source = Arc::clone(self.sim_source.get().expect("checked above"));
                    // Releasing pushes into a machine queue and
                    // notifies this reactor; the state lock must not
                    // be held across it.
                    drop(state);
                    let _ = source.release_next();
                    state = self.lock();
                } else if let Some(t) = next_sleeper {
                    self.clock.try_jump_to(t);
                    self.cv.notify_all();
                }
                continue;
            }
            if self.clock.is_virtual() {
                let seen = state.events;
                if let Some((q, established)) = state.quiescent_at.filter(|&(q, _)| q == seen) {
                    let _ = q;
                    // An *active* overdue delivery gate means a
                    // runnable consumer simply has not been scheduled
                    // yet: jumping now would advance the timeline
                    // under its feet (host scheduling lag would
                    // masquerade as modeled time). Yield until it runs
                    // or its gate's patience lapses.
                    let overdue_active = state
                        .gates
                        .iter()
                        .take_while(|&(&(t, _), _)| t <= now)
                        .any(|(_, born)| born.elapsed() < GATE_PATIENCE);
                    if overdue_active {
                        let (s, _) = self
                            .cv
                            .wait_timeout(state, JUMP_YIELD)
                            .unwrap_or_else(PoisonError::into_inner);
                        state = s;
                        continue;
                    }
                    // The system is idle: advance to the next pending
                    // deadline — a parked thread's, or an unconsumed
                    // delivery's gate (jumping past a future delivery
                    // would distort its flow's timing). Entries at or
                    // before `now` belong to already-woken owners that
                    // have not yet re-acquired the lock to deregister.
                    let next_sleeper = state.sleepers.iter().map(|&(t, _)| t).find(|&t| t > now);
                    let next_gate = state.gates.keys().map(|&(t, _)| t).find(|&t| t > now);
                    let next = match (next_sleeper, next_gate) {
                        (Some(a), Some(b)) => Some(a.min(b)),
                        (a, b) => a.or(b),
                    };
                    match next {
                        Some(t) => {
                            if t.saturating_duration_since(now) > FAR_JUMP
                                && established.elapsed() < FAR_JUMP_CONFIRM
                            {
                                // A distant deadline (retransmission,
                                // lease): only fire it once the calm
                                // has persisted long enough that no
                                // unseen thread is still computing.
                                let (s, _) = self
                                    .cv
                                    .wait_timeout(state, JUMP_YIELD)
                                    .unwrap_or_else(PoisonError::into_inner);
                                state = s;
                                continue;
                            }
                            if std::env::var_os("AMOEBA_REACTOR_TRACE").is_some()
                                && t.saturating_duration_since(now) > FAR_JUMP
                            {
                                eprintln!(
                                    "FAR JUMP {:?} -> {:?} (sleepers={}, gates={}, own={:?})",
                                    now.since_epoch(),
                                    t.since_epoch(),
                                    state.sleepers.len(),
                                    state.gates.len(),
                                    deadline.map(|d| d.since_epoch()),
                                );
                            }
                            self.clock.try_jump_to(t);
                            self.cv.notify_all();
                            // Every jump consumes the quiescence
                            // verdict: the next jump requires a fresh
                            // calm period, so woken owners (and any
                            // thread the reactor cannot see computing)
                            // get real time to run before the timeline
                            // moves again. Without this, a re-arming
                            // idle tick loop climbs the clock at CPU
                            // speed straight through in-flight work's
                            // timeouts.
                            state.quiescent_at = None;
                        }
                        None => {
                            // No pending deadlines anywhere: only an
                            // event can unblock anyone.
                            state = self.cv.wait(state).unwrap_or_else(PoisonError::into_inner);
                        }
                    }
                } else {
                    let (s, timeout) = self
                        .cv
                        .wait_timeout(state, QUIESCENCE_GRACE)
                        .unwrap_or_else(PoisonError::into_inner);
                    state = s;
                    if timeout.timed_out() && state.events == seen {
                        state.quiescent_at = Some((seen, Instant::now()));
                    }
                }
            } else {
                match deadline.and_then(|d| self.clock.real_instant(d)) {
                    Some(real) => {
                        let now_r = Instant::now();
                        if real <= now_r {
                            continue; // the loop head reports expiry
                        }
                        let (s, _) = self
                            .cv
                            .wait_timeout(state, real - now_r)
                            .unwrap_or_else(PoisonError::into_inner);
                        state = s;
                    }
                    None => {
                        state = self.cv.wait(state).unwrap_or_else(PoisonError::into_inner);
                    }
                }
            }
        };
        if let Some(d) = registered {
            state.sleepers.remove(&(d, id));
        }
        self.waiters.fetch_sub(1, Ordering::SeqCst);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wall_clock_tracks_real_time() {
        let c = WallClock::new();
        let a = c.now();
        std::thread::sleep(Duration::from_millis(5));
        assert!(c.now().saturating_duration_since(a) >= Duration::from_millis(5));
        assert!(!c.is_virtual());
        assert!(!c.try_jump_to(a + Duration::from_secs(100)));
    }

    #[test]
    fn virtual_clock_only_moves_when_jumped() {
        let c = VirtualClock::new();
        assert_eq!(c.now(), Timestamp::ZERO);
        std::thread::sleep(Duration::from_millis(3));
        assert_eq!(c.now(), Timestamp::ZERO, "real time must not leak in");
        assert!(c.try_jump_to(Timestamp::ZERO + Duration::from_millis(40)));
        assert_eq!(c.now().since_epoch(), Duration::from_millis(40));
        // Jumps never go backwards.
        c.try_jump_to(Timestamp::ZERO + Duration::from_millis(10));
        assert_eq!(c.now().since_epoch(), Duration::from_millis(40));
    }

    #[test]
    fn virtual_sleep_is_fast_in_real_time() {
        let r = Reactor::virtual_time();
        let t0 = Instant::now();
        r.sleep(Duration::from_secs(5));
        assert!(
            t0.elapsed() < Duration::from_secs(1),
            "a 5 s virtual sleep must not cost 5 real seconds"
        );
        assert!(r.now().since_epoch() >= Duration::from_secs(5));
    }

    #[test]
    fn wall_park_wakes_on_notify() {
        let r = Reactor::wall();
        let r2 = Arc::clone(&r);
        let flag = Arc::new(AtomicU64::new(0));
        let f2 = Arc::clone(&flag);
        let t = std::thread::spawn(move || {
            r2.park_until(None, || (f2.load(Ordering::Acquire) == 1).then_some(()))
        });
        std::thread::sleep(Duration::from_millis(10));
        flag.store(1, Ordering::Release);
        r.notify();
        assert_eq!(t.join().unwrap(), Some(()));
    }

    #[test]
    fn wall_park_times_out() {
        let r = Reactor::wall();
        let deadline = r.now() + Duration::from_millis(10);
        let got: Option<()> = r.park_until(Some(deadline), || None);
        assert!(got.is_none());
        assert!(r.now() >= deadline);
    }

    #[test]
    fn repeated_virtual_sleeps_cost_a_grace_each_not_their_face_value() {
        // 40 consecutive 100 ms virtual sleeps (4 s of timeline) must
        // complete in well under their face value: each costs roughly
        // one quiescence grace of real time, not 100 ms.
        let r = Reactor::virtual_time();
        let t0 = Instant::now();
        for _ in 0..40 {
            let d = r.now() + Duration::from_millis(100);
            let got: Option<()> = r.park_until(Some(d), || None);
            assert!(got.is_none());
        }
        assert!(r.now().since_epoch() >= Duration::from_secs(4));
        assert!(
            t0.elapsed() < Duration::from_secs(1),
            "virtual sleeps must not cost their face value: {:?}",
            t0.elapsed()
        );
    }

    #[test]
    fn earliest_deadline_fires_first_under_virtual_time() {
        let r = Reactor::virtual_time();
        let r_far = Arc::clone(&r);
        let far = std::thread::spawn(move || {
            let d = r_far.now() + Duration::from_millis(500);
            let _: Option<()> = r_far.park_until(Some(d), || None);
            r_far.now()
        });
        let near_deadline = r.now() + Duration::from_millis(5);
        let _: Option<()> = r.park_until(Some(near_deadline), || None);
        let near_woke_at = r.now();
        let far_woke_at = far.join().unwrap();
        assert!(near_woke_at >= near_deadline);
        assert!(far_woke_at >= near_woke_at, "far deadline fires later");
    }
}
