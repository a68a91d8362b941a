//! The transport core's timeline: two interchangeable clocks, and the
//! simulator's scheduler for time-bounded waits.
//!
//! Every [`Network`](crate::Network) owns one [`Reactor`]. The reactor
//! carries the network's **clock** — the single source of truth for
//! "now" on the network's timeline. Two clocks implement the [`Clock`]
//! contract:
//!
//! * [`WallClock`] — the timeline is real time: the real system.
//!   Simulated latency costs real wall-clock, and a thread that waits
//!   blocks on its own queue (or signal) with a real deadline; the
//!   reactor schedules nobody.
//! * [`SimClock`] — the timeline is a counter owned by the
//!   single-threaded deterministic simulator: the model. Its waits are
//!   the reactor's to schedule ([`Reactor::park_until`]): a parked
//!   actor makes progress by releasing the simulation controller's
//!   next delivery or jumping to the next registered deadline, never
//!   by waiting in real time, so the same seed gives the same timeline
//!   event for event.
//!
//! # Timestamps
//!
//! [`Timestamp`] is a point on the reactor's timeline (a duration
//! since the clock's epoch), deliberately **not** a
//! [`std::time::Instant`]: a simulated timeline has no meaningful
//! mapping to the OS clock. Packets carry their `deliver_at` as a
//! `Timestamp`; all timeout arithmetic above `net` (RPC attempt
//! deadlines, demux ticks, locate TTLs, registry leases) is done in
//! timestamps obtained from the endpoint's clock, which is what lets
//! the whole stack run under either clock unchanged.

use std::collections::BTreeSet;
use std::fmt;
use std::ops::{Add, AddAssign, Sub};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// A point on a reactor's timeline: the duration since the clock's
/// epoch (network creation). Ordered, copyable, and cheap.
///
/// Not convertible to [`std::time::Instant`]: under a [`SimClock`]
/// there is no corresponding OS-clock moment.
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
/// threads; the two provided clocks are [`WallClock`] and [`SimClock`].
pub trait Clock: Send + Sync + fmt::Debug + 'static {
    /// The current point on the timeline.
    fn now(&self) -> Timestamp;

    /// Whether this clock belongs to the **deterministic simulation
    /// executor** ([`SimClock`]): a single-threaded timeline that jumps
    /// instead of waiting. Every real-time wait in the reactor is
    /// bypassed for such clocks — progress comes exclusively from
    /// releasing the simulation controller's next pending delivery or
    /// jumping straight to the next timeline deadline.
    fn is_deterministic(&self) -> bool;

    /// Attempts to move the timeline forward to `t` without waiting.
    /// Returns `true` if the clock jumped (the simulation clock; a
    /// no-op when `t` is already past), `false` if the caller must
    /// physically wait (the wall clock).
    fn try_jump_to(&self, t: Timestamp) -> bool;

    /// Maps a timeline point to the real [`Instant`] at which it
    /// occurs, or `None` for clocks with no real-time correspondence.
    fn real_instant(&self, t: Timestamp) -> Option<Instant>;
}

/// The wall clock: the timeline is anchored to a real [`Instant`] and
/// advances with the OS clock. Waiting out simulated latency blocks
/// the thread — this is the real system, and what every measurement
/// of real throughput runs on.
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

    fn is_deterministic(&self) -> bool {
        false
    }

    fn try_jump_to(&self, _t: Timestamp) -> bool {
        false
    }

    fn real_instant(&self, t: Timestamp) -> Option<Instant> {
        Some(self.anchor + t.0)
    }
}

/// The deterministic simulation clock: the timeline is an atomic
/// nanosecond counter that only moves when something moves it — a
/// released delivery's instant, or a parked actor jumping to the next
/// registered deadline. No real-time waits of any kind: two runs over
/// the same seed produce the same timeline, event for event. Construct
/// networks on it with [`Network::new_sim`](crate::Network::new_sim).
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
/// thereby make progress) instead of waiting in real time.
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

#[derive(Debug, Default)]
struct ReactorState {
    /// Pending timeline deadlines of parked threads, with a tie-break
    /// id.
    sleepers: BTreeSet<(Timestamp, u64)>,
    next_id: u64,
}

/// The per-network timeline: owns the clock and, under the simulator,
/// parks waiting actors until an event or a timeline deadline.
///
/// Shared by every [`Endpoint`](crate::Endpoint) of a network; higher
/// layers reach it through [`Endpoint::reactor`](crate::Endpoint::reactor)
/// or [`Network::reactor`](crate::Network::reactor).
pub struct Reactor {
    clock: Arc<dyn Clock>,
    state: Mutex<ReactorState>,
    /// The deterministic executor's delivery source (set once by
    /// `Network::new_sim`, never on wall-clock networks).
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
    pub(crate) fn new(clock: Arc<dyn Clock>) -> Arc<Reactor> {
        Arc::new(Reactor {
            clock,
            state: Mutex::new(ReactorState::default()),
            sim_source: std::sync::OnceLock::new(),
            obs: std::sync::OnceLock::new(),
        })
    }

    /// A reactor on the wall clock (real time).
    pub(crate) fn wall() -> Arc<Reactor> {
        Self::new(Arc::new(WallClock::new()))
    }

    /// The reactor's clock.
    pub fn clock(&self) -> &Arc<dyn Clock> {
        &self.clock
    }

    /// The current point on the timeline.
    pub fn now(&self) -> Timestamp {
        self.clock.now()
    }

    /// Whether the timeline belongs to the deterministic simulation
    /// executor (see [`SimClock`]) rather than the wall clock.
    pub fn is_deterministic(&self) -> bool {
        self.clock.is_deterministic()
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

    /// Moves the timeline to `t`: jumps the simulation clock, blocks
    /// the thread until the real instant on the wall clock. Receivers
    /// call this with a packet's `deliver_at` — it is the reactor
    /// replacement for "sleep out the simulated latency".
    pub fn advance_to(&self, t: Timestamp) {
        if self.clock.try_jump_to(t) {
            return;
        }
        let deadline = self.clock.real_instant(t).expect("wall clock");
        let now = Instant::now();
        if deadline > now {
            std::thread::sleep(deadline - now);
        }
    }

    /// Sleeps `d` of timeline time: a real sleep under the wall clock,
    /// a scheduled wakeup under the simulator (deliveries due before
    /// the deadline are released on the way).
    pub fn sleep(&self, d: Duration) {
        if !self.is_deterministic() {
            std::thread::sleep(d);
            return;
        }
        let deadline = self.now() + d;
        let _: Option<()> = self.park_until(Some(deadline), || None);
    }

    /// Consumes a packet's delivery: moves the timeline to the packet's
    /// `deliver_at`. On the wall clock that is a real wait — and none
    /// at all for a frame sent with zero latency, whose arrival instant
    /// cannot lie ahead of a clock that only moves forward.
    pub fn deliver(&self, pkt: &crate::Packet) {
        if pkt.delayed || self.clock.is_deterministic() {
            self.advance_to(pkt.deliver_at());
        }
    }

    /// Parks the calling simulator actor until `poll` yields a value
    /// or the timeline reaches `deadline` (`None` = wait for events
    /// forever). The parked thread is the one that advances the clock:
    /// each turn it releases the simulation controller's earliest
    /// pending delivery, or jumps straight to the next registered
    /// deadline — exact simulated time, zero heuristics.
    ///
    /// `poll` is invoked under the reactor's internal lock on every
    /// turn, so it must be quick and must not call back into the
    /// reactor (channel `try_recv`s are the intended shape).
    ///
    /// Returns `Some(value)` when `poll` produced one, `None` on
    /// deadline expiry.
    ///
    /// # Panics
    /// On a wall-clock reactor: a wall-clock thread blocks on its own
    /// queue or signal with a real deadline, never here. Also when the
    /// simulation has nothing left to release or jump to (an actor
    /// blocked on an event that can never arrive).
    pub fn park_until<T>(
        &self,
        deadline: Option<Timestamp>,
        mut poll: impl FnMut() -> Option<T>,
    ) -> Option<T> {
        assert!(
            self.is_deterministic(),
            "Reactor::park_until schedules the simulator only; a wall-clock \
             thread blocks on its own queue or signal"
        );
        let mut state = self.lock();
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
            let source = self.sim_source.get();
            let next_delivery = source.and_then(|s| s.next_delivery_at());
            let next_sleeper = state.sleepers.iter().map(|&(t, _)| t).find(|&t| t > now);
            match (next_delivery, next_sleeper) {
                (Some(d), Some(s)) if d > s => {
                    self.clock.try_jump_to(s);
                }
                (Some(_), _) => {
                    let _ = source.expect("a delivery has a source").release_next();
                }
                (None, Some(s)) => {
                    self.clock.try_jump_to(s);
                }
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
            }
        };
        if let Some(d) = registered {
            state.sleepers.remove(&(d, id));
        }
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
        assert!(!c.is_deterministic());
        assert!(!c.try_jump_to(a + Duration::from_secs(100)));
    }

    #[test]
    fn sim_clock_only_moves_when_jumped() {
        let c = SimClock::new();
        assert_eq!(c.now(), Timestamp::ZERO);
        std::thread::sleep(Duration::from_millis(3));
        assert_eq!(c.now(), Timestamp::ZERO, "real time must not leak in");
        assert!(c.try_jump_to(Timestamp::ZERO + Duration::from_millis(40)));
        assert_eq!(c.now().since_epoch(), Duration::from_millis(40));
        // Jumps never go backwards.
        c.try_jump_to(Timestamp::ZERO + Duration::from_millis(10));
        assert_eq!(c.now().since_epoch(), Duration::from_millis(40));
    }

    /// A one-slot delivery schedule: releasing it jumps the clock to
    /// the delivery's instant and raises `arrived`.
    struct OneDelivery {
        clock: Arc<dyn Clock>,
        pending: Mutex<Option<Timestamp>>,
        arrived: AtomicU64,
    }

    impl SimSource for OneDelivery {
        fn next_delivery_at(&self) -> Option<Timestamp> {
            *self.pending.lock().unwrap()
        }

        fn release_next(&self) -> bool {
            let Some(at) = self.pending.lock().unwrap().take() else {
                return false;
            };
            self.clock.try_jump_to(at);
            self.arrived.fetch_add(1, Ordering::Release);
            true
        }
    }

    #[test]
    fn deterministic_park_releases_the_earlier_delivery_and_never_waits() {
        let clock: Arc<dyn Clock> = Arc::new(SimClock::new());
        let r = Reactor::new(Arc::clone(&clock));
        let source = Arc::new(OneDelivery {
            clock,
            pending: Mutex::new(None),
            arrived: AtomicU64::new(0),
        });
        r.set_sim_source(Arc::clone(&source) as Arc<dyn SimSource>);
        let t0 = Instant::now();
        for round in 1..=1_000u64 {
            let start = r.now();
            let delivery = start + Duration::from_millis(1);
            *source.pending.lock().unwrap() = Some(delivery);
            let sleeper = start + Duration::from_millis(5);
            let got = r.park_until(Some(sleeper), || {
                (source.arrived.load(Ordering::Acquire) == round).then_some(())
            });
            assert_eq!(
                got,
                Some(()),
                "the delivery, not the deadline, ends the park"
            );
            assert_eq!(r.now(), delivery, "the timeline stops at the delivery");
        }
        // A second of timeline; any real-time grace per park would cost
        // whole seconds here.
        assert_eq!(r.now().since_epoch(), Duration::from_secs(1));
        assert!(
            t0.elapsed() < Duration::from_millis(50),
            "1 000 deterministic parks waited in real time: {:?}",
            t0.elapsed()
        );
    }

    #[test]
    fn deterministic_sleep_jumps_to_its_own_deadline() {
        let r = Reactor::new(Arc::new(SimClock::new()));
        let t0 = Instant::now();
        r.sleep(Duration::from_secs(5));
        assert_eq!(r.now().since_epoch(), Duration::from_secs(5));
        assert!(t0.elapsed() < Duration::from_secs(1));
    }
}
