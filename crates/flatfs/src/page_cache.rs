//! The block-backed file server's memory of what it just read: a
//! bounded cache of file **bytes**, never of authority.
//!
//! A page is 4 KiB of one file at one *content version*. The server
//! stamps a fresh version — a number it never hands out twice — into an
//! inode when the file is created and again after every write that
//! reached the disk, so nothing here is ever invalidated: a page of a
//! file that was written, destroyed, or whose object number went to a
//! new file sits under a version no inode holds any more, and is simply
//! never asked for again. The caller validates the request capability
//! and reads the version under the object table's lock *before* it
//! comes here; this module sees versions and page numbers only.
//!
//! 1 024 direct-mapped slots bound it at 4 MiB. A slot keeps the page
//! it holds and the key that last missed on it; a page is admitted on
//! its **second** miss, so a file read once (a scan, a read-back before
//! a destroy) displaces nothing that is read repeatedly. A slot's
//! storage is allocated when its first page is admitted.

use amoeba_net::{BufPool, Obs};
use amoeba_server::wire;
use bytes::Bytes;
use parking_lot::Mutex;
use std::ops::Range;

/// Bytes per page.
pub(crate) const PAGE: u64 = 4096;
/// Slot count: 4 MiB of pages, a quarter of the 16 MiB a 4 096-file
/// Zipf read load walks over.
const SLOTS: usize = 1024;

/// `(content version, page index)`. Versions start at 1, so the
/// default key matches no page.
type Key = (u64, u64);

#[derive(Debug, Default)]
struct Slot {
    /// The page in `data`.
    held: Key,
    /// The last key that missed here.
    missed: Key,
    /// The held page's bytes: `PAGE` of them, fewer for a file's last.
    data: Vec<u8>,
}

#[derive(Debug)]
pub(crate) struct PageCache {
    slots: Box<[Mutex<Slot>]>,
    obs: Obs,
}

impl PageCache {
    pub(crate) fn new(obs: Obs) -> PageCache {
        PageCache {
            slots: (0..SLOTS).map(|_| Mutex::default()).collect(),
            obs,
        }
    }

    /// Consecutive pages of a file take consecutive slots; the files
    /// themselves are spread by a multiplicative hash, which scatters
    /// versions issued at a regular stride evenly.
    fn slot(&self, (version, page): Key) -> &Mutex<Slot> {
        let spread = version.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32;
        &self.slots[spread.wrapping_add(page) as usize % SLOTS]
    }

    /// Bytes `want` (not empty) of the file at `version`, if every page
    /// they touch is held; `None` at the first that is not — before any
    /// buffer is taken when it is the first page, as for a file never
    /// read before. `pool` takes a part-filled blob back.
    pub(crate) fn serve(&self, version: u64, want: &Range<u64>, pool: &BufPool) -> Option<Bytes> {
        let (first, last) = (want.start / PAGE, (want.end - 1) / PAGE);
        let mut out: Option<wire::Writer> = None;
        for page in first..=last {
            let slot = self.slot((version, page)).lock();
            if slot.held != (version, page) {
                if let Some(partial) = out {
                    pool.release(partial.finish());
                }
                return None;
            }
            let base = page * PAGE;
            let from = (want.start.max(base) - base) as usize;
            let to = (want.end.min(base + PAGE) - base) as usize;
            let blob = out
                .unwrap_or_else(|| wire::Writer::with_capacity((want.end - want.start) as usize));
            out = Some(blob.raw(&slot.data[from..to]));
        }
        if let Some(m) = self.obs.metrics() {
            m.page_cache_hits.add(last - first + 1);
        }
        out.map(wire::Writer::finish)
    }

    /// Offers the pages of `fetched` — file bytes from the start of
    /// page `first`, read from the disk under `version` — for
    /// admission.
    pub(crate) fn offer(&self, version: u64, first: u64, fetched: &[u8]) {
        let mut admitted = 0;
        for (page, bytes) in (first..).zip(fetched.chunks(PAGE as usize)) {
            let key = (version, page);
            let mut slot = self.slot(key).lock();
            if slot.held == key {
                continue;
            }
            if slot.missed != key {
                slot.missed = key;
                continue;
            }
            slot.held = key;
            slot.data.clear();
            slot.data.reserve_exact(PAGE as usize);
            slot.data.extend_from_slice(bytes);
            admitted += 1;
        }
        if let Some(m) = self.obs.metrics() {
            let offered = fetched.len().div_ceil(PAGE as usize);
            m.page_cache_misses.add(offered as u64);
            m.page_cache_admissions.add(admitted);
        }
    }
}
