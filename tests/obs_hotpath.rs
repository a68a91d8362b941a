//! The zero-cost-when-disabled gate for the observability layer.
//!
//! `Obs::record` on a disabled handle is supposed to cost one atomic
//! load and a branch — no heap allocation, no lock, no pooled buffer.
//! This binary proves it with three meters:
//!
//! * a thread-local counting allocator (exact, immune to other
//!   threads),
//! * the process-wide hot-mutex acquisition counter,
//! * the process-wide pooled-buffer allocation counter.
//!
//! The global counters are only meaningful in a sequential process
//! (see `amoeba_net::sync`), which is why this gate lives alone in its
//! own integration-test binary instead of in `tests/scale.rs`.

use amoeba::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Mutex;
use std::time::Duration;

/// The hot-mutex and buffer-pool counters are process-wide, so the two
/// gates in this binary must not overlap in time.
static SERIAL: Mutex<()> = Mutex::new(());

/// Counts this thread's heap allocations; delegates to the system
/// allocator. Const-initialized TLS so the counting path itself never
/// allocates (and never recurses).
struct CountingAlloc;

thread_local! {
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn thread_allocs() -> u64 {
    THREAD_ALLOCS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        THREAD_ALLOCS.with(|c| c.set(c.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn disabled_obs_record_path_adds_zero_allocs_and_zero_locks() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    const RECORDS: u64 = 1_000_000;

    // Build everything that legitimately allocates *before* the
    // measured window: the network (whose obs handle stays disabled)
    // and a warmed metrics probe.
    let net = Network::new();
    let obs = net.obs().clone();
    assert!(!obs.enabled(), "a fresh network's recorder starts disabled");
    obs.record(EventKind::TransStart, 0, 0, 0, 0);
    assert!(obs.metrics().is_none());

    let allocs0 = thread_allocs();
    let hot0 = net.hot_path();
    for i in 0..RECORDS {
        obs.record(EventKind::FrameOnWire, i, i, i, i);
        if obs.metrics().is_some() {
            unreachable!("the handle is disabled for the whole window");
        }
    }
    let hot = net.hot_path() - hot0;
    let allocs = thread_allocs() - allocs0;

    assert_eq!(
        allocs, 0,
        "disabled record path must not allocate: {allocs} heap \
         allocations over {RECORDS} records"
    );
    assert_eq!(
        hot.lock_acquisitions, 0,
        "disabled record path must not lock: {} hot-mutex acquisitions \
         over {RECORDS} records",
        hot.lock_acquisitions
    );
    assert_eq!(
        hot.buffer_allocs, 0,
        "disabled record path must not touch the buffer pool: {} pooled \
         allocations over {RECORDS} records",
        hot.buffer_allocs
    );

    // And the recorder still works afterwards: enabling is a one-time
    // allocation, not a per-record one.
    obs.enable();
    obs.record(EventKind::TransStart, 7, 42, 1, 2);
    let events = obs.events();
    assert_eq!(events.len(), 1);
    assert_eq!(events[0].trace, 42);
}

#[test]
fn cached_resolve_hit_adds_zero_allocs_and_zero_locks() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    const HITS: u64 = 100_000;

    // Everything that legitimately allocates happens before the
    // window: server, tree, the warming resolve that populates the
    // capability cache, and the recorder ring (enabling is a one-time
    // allocation).
    let net = Network::new();
    net.obs().enable();
    let runner = ServiceRunner::spawn_open(&net, DirServer::new(SchemeKind::Commutative));
    let dirs = DirClient::open(&net, runner.put_port()).with_cache(Duration::from_secs(3600));
    let root = dirs.create_dir().unwrap();
    let a = dirs.create_dir().unwrap();
    let b = dirs.create_dir().unwrap();
    let leaf = dirs.create_dir().unwrap();
    dirs.enter(&root, "a", &a).unwrap();
    dirs.enter(&a, "b", &b).unwrap();
    dirs.enter(&b, "c", &leaf).unwrap();
    assert_eq!(dirs.resolve(&root, "a/b/c").unwrap(), leaf); // warm

    // The server is STOPPED for the measured window: a cache hit that
    // touched the network at all would error, not just slow down.
    runner.stop();

    let frames0 = net.stats().snapshot().packets_sent;
    let allocs0 = thread_allocs();
    let hot0 = net.hot_path();
    for _ in 0..HITS {
        match dirs.resolve(&root, "a/b/c") {
            Ok(cap) if cap == leaf => {}
            other => panic!("cached resolve must hit: {other:?}"),
        }
    }
    let hot = net.hot_path() - hot0;
    let allocs = thread_allocs() - allocs0;
    let frames = net.stats().snapshot().packets_sent - frames0;

    assert_eq!(frames, 0, "cache hits must not touch the network");
    assert_eq!(
        allocs, 0,
        "cached resolve hit must not allocate: {allocs} heap allocations \
         over {HITS} hits (obs enabled)"
    );
    assert_eq!(
        hot.lock_acquisitions, 0,
        "cached resolve hit must not lock: {} hot-mutex acquisitions \
         over {HITS} hits",
        hot.lock_acquisitions
    );
    assert_eq!(
        hot.buffer_allocs, 0,
        "cached resolve hit must not touch the buffer pool: {} pooled \
         allocations over {HITS} hits",
        hot.buffer_allocs
    );

    // The hits were observable the whole time: PathResolve spans with
    // zero hops landed in the flight recorder.
    let events = net.obs().events();
    assert!(events
        .iter()
        .any(|e| e.kind == EventKind::PathResolve && e.a == 0));
}
