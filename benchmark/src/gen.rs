//! Seeded input generation. The seed stops here: workloads receive
//! the tables and schedules built from it, never the seed itself.

/// The splitmix64 stream every generated input is drawn from.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// How many picks a workload's table holds; the loop cycles through it.
pub const PICKS: usize = 1 << 16;

/// `PICKS` ranks in `0..n`, drawn Zipf(`s`): rank `r` has weight
/// `(r + 1)^-s`.
pub fn zipf_picks(rng: &mut SplitMix64, n: usize, s: f64) -> Vec<u16> {
    assert!(n > 0 && n <= usize::from(u16::MAX) + 1, "ranks fit a u16");
    let total: f64 = (1..=n).map(|k| (k as f64).powf(-s)).sum();
    let mut acc = 0.0;
    let mut cumulative: Vec<u64> = (1..=n)
        .map(|k| {
            acc += (k as f64).powf(-s) / total;
            (acc * 4_294_967_296.0) as u64
        })
        .collect();
    cumulative[n - 1] = 1 << 32; // close the distribution exactly
    (0..PICKS)
        .map(|_| {
            let draw = rng.next() & 0xFFFF_FFFF;
            cumulative.partition_point(|&c| c <= draw) as u16
        })
        .collect()
}
