//! The block-backed file server's page cache under load: what it keeps,
//! and that what it serves is what the disk holds.
//!
//! These run many thousands of transactions on full worker pools, so
//! they live in a binary of their own, away from the tests that sleep
//! out real milliseconds (the unit tests next to the cache — admission,
//! capability safety against warm pages, the forced write/read
//! interleavings — are in `crates/flatfs/src/block_backed.rs`):
//!
//! * a file read once takes no slot from a page that is read again;
//! * with one writer and three readers on one file, no reader ever
//!   sees less than the last acknowledged write;
//! * random sessions against the block-backed server and the in-memory
//!   one — the ablation pair, the second of which has no cache to be
//!   wrong — end in the same statuses and the same bytes.

use amoeba::prelude::*;
use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

const PAGE: usize = 4096;

fn frames(net: &Network) -> u64 {
    net.stats().snapshot().packets_sent
}

/// A disk with room for files of several pages, in blocks of a size
/// that does not divide a page.
fn disk(capacity_blocks: u32) -> BlockServer {
    let config = DiskConfig {
        block_size: 768,
        capacity_blocks,
    };
    BlockServer::new(config, SchemeKind::OneWay)
}

#[test]
fn a_file_read_once_displaces_no_page_that_is_read_again() {
    let net = Network::new();
    let disk = ServiceRunner::spawn_open(&net, disk(64));
    let server = BlockFlatFsServer::new(&net, disk.put_port(), SchemeKind::Commutative);
    let fsr = ServiceRunner::spawn_open(&net, server);
    let fs = FlatFsClient::open(&net, fsr.put_port());

    let hot = fs.create().unwrap();
    fs.write(&hot, 0, &[1u8; 600]).unwrap();
    for _ in 0..3 {
        assert_eq!(fs.read(&hot, 0, 600).unwrap(), [1u8; 600]);
    }
    // Three times as many one-time reads as there are slots: each
    // leaves a note in a slot, none takes one.
    for round in 0..3072u32 {
        let once = fs.create().unwrap();
        fs.write(&once, 0, &round.to_le_bytes()).unwrap();
        assert_eq!(fs.read(&once, 0, 4).unwrap(), round.to_le_bytes());
        fs.destroy(&once).unwrap();
    }
    let before = frames(&net);
    assert_eq!(fs.read(&hot, 0, 600).unwrap(), [1u8; 600]);
    assert_eq!(frames(&net) - before, 2, "still in memory: no disk frame");
    fsr.stop();
    disk.stop();
}

#[test]
fn readers_never_see_less_than_the_last_acknowledged_write() {
    // One writer fills the file with an increasing word and publishes
    // each value once its write is acknowledged; three readers note the
    // published value, read, and must find no word below it — whether
    // the bytes come from memory or from the disk.
    const WORDS: usize = 8 * PAGE / 8;
    const ROUNDS: u64 = 800;
    let net = Network::new();
    net.obs().enable();
    let disk = ServiceRunner::spawn_open_workers(&net, disk(64), 4);
    let server = BlockFlatFsServer::new(&net, disk.put_port(), SchemeKind::Commutative);
    let fsr = ServiceRunner::spawn_open_workers(&net, server, 4);
    let port = fsr.put_port();
    let filled = |word: u64| word.to_le_bytes().repeat(WORDS);
    let fs = FlatFsClient::open(&net, port);
    let cap = fs.create().unwrap();
    fs.write(&cap, 0, &filled(0)).unwrap();

    let (acked, done) = (AtomicU64::new(0), AtomicBool::new(false));
    std::thread::scope(|scope| {
        for _ in 0..3 {
            scope.spawn(|| {
                let fs = FlatFsClient::open(&net, port);
                while !done.load(Ordering::SeqCst) {
                    let floor = acked.load(Ordering::SeqCst);
                    let data = fs.read(&cap, 0, PAGE as u32).unwrap();
                    assert_eq!(data.len(), PAGE);
                    for word in data.chunks_exact(8) {
                        let word = u64::from_le_bytes(word.try_into().unwrap());
                        assert!(word >= floor, "read {word} after {floor} was acknowledged");
                    }
                }
            });
        }
        for word in 1..=ROUNDS {
            fs.write(&cap, 0, &filled(word)).unwrap();
            acked.store(word, Ordering::SeqCst);
            // Now and then, leave the readers a stretch in which pages
            // are admitted and hit before the next write ends them.
            if word % 8 == 0 {
                for _ in 0..3 {
                    assert_eq!(fs.read(&cap, 0, 8 * WORDS as u32).unwrap(), filled(word));
                }
            }
        }
        done.store(true, Ordering::SeqCst);
    });
    let counted = net.obs().snapshot().expect("recorder is on");
    assert!(counted.page_cache_hits > 0, "the cache was never in play");
    fsr.stop();
    disk.stop();
}

/// One step of a generated session: what to do (0 create, 1–3 write,
/// 4–7 read three times, 8 destroy, 9 revoke), to which capability
/// issued so far, and the offset, length and first byte of the data.
type Step = (u8, usize, u64, u32, u8);

fn steps() -> impl Strategy<Value = Vec<Step>> {
    let offset = prop_oneof![
        0u64..12_500,
        // Within a hundred bytes of a page boundary, either side.
        (0u64..4, 0u64..200).prop_map(|(page, d)| (page * PAGE as u64 + d).saturating_sub(100)),
    ];
    let step = (0u8..10, any::<usize>(), offset, 0u32..6_000, any::<u8>());
    proptest::collection::vec(step, 1..40)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Creates, writes, repeated reads (so pages are admitted, then
    /// hit), destroys and revocations, at offsets and lengths that
    /// straddle pages and extents, through one kind of client against
    /// both servers. Every capability ever issued stays in play, dead
    /// or alive, so refusals are compared as well.
    #[test]
    fn sessions_end_alike_on_the_block_backed_and_the_in_memory_server(steps in steps()) {
        let net = Network::new();
        let disk = ServiceRunner::spawn_open(&net, disk(2048));
        let server = BlockFlatFsServer::new(&net, disk.put_port(), SchemeKind::Commutative);
        let on_disk = ServiceRunner::spawn_open(&net, server);
        let in_memory = ServiceRunner::spawn_open(&net, FlatFsServer::new(SchemeKind::Commutative));
        let cached = FlatFsClient::open(&net, on_disk.put_port());
        let plain = FlatFsClient::open(&net, in_memory.put_port());

        let mut issued: Vec<(Capability, Capability)> = Vec::new();
        for (what, which, offset, len, first) in steps {
            if what == 0 || issued.is_empty() {
                issued.push((cached.create().unwrap(), plain.create().unwrap()));
                continue;
            }
            let (c, p) = issued[which % issued.len()];
            match what {
                1..=3 => {
                    let data: Vec<u8> = (0..len).map(|i| first.wrapping_add(i as u8)).collect();
                    prop_assert_eq!(cached.write(&c, offset, &data), plain.write(&p, offset, &data));
                }
                4..=7 => {
                    for _ in 0..3 {
                        prop_assert_eq!(cached.read(&c, offset, len), plain.read(&p, offset, len));
                    }
                }
                8 => prop_assert_eq!(cached.destroy(&c), plain.destroy(&p)),
                _ => match (cached.service().revoke(&c), plain.service().revoke(&p)) {
                    (Ok(c), Ok(p)) => issued.push((c, p)),
                    (c, p) => prop_assert_eq!(c.err(), p.err()),
                },
            }
        }
        for (c, p) in &issued {
            prop_assert_eq!(cached.size(c), plain.size(p));
            prop_assert_eq!(cached.read(c, 0, u32::MAX), plain.read(p, 0, u32::MAX));
        }
        on_disk.stop();
        in_memory.stop();
        disk.stop();
    }
}
