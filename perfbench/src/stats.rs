//! Order statistics, process memory and the exact-counter digest.

/// Linear-interpolation quantile of `xs` at `q` in `[0, 1]` (the
/// numpy default). Returns `NaN` for an empty slice.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `xs`.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The fast-regime figure of a unit timed several times in one run:
/// its minimum (see NOTES.md, "Statistics").
pub fn fastest(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Linear sub-buckets per power of two in [`Histogram`].
const SUB_BITS: u32 = 6;
/// Values from `2^TOP_EXP` ns (about 18 minutes) up share the last bucket.
const TOP_EXP: u32 = 40;
const EXACT: usize = 1 << (SUB_BITS + 1);
const BUCKETS: usize = EXACT + (TOP_EXP - SUB_BITS - 1) as usize * (1 << SUB_BITS);

/// A fixed-size log-linear histogram of nanosecond values: exact below
/// 128 ns, then 64 buckets per power of two (each under 1.6% wide). It
/// takes 18 KiB however many values it holds, so recording latencies
/// does not show in the run's peak RSS.
#[derive(Debug)]
pub struct Histogram {
    counts: Box<[u64]>,
    n: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram { counts: vec![0; BUCKETS].into_boxed_slice(), n: 0 }
    }
}

impl Histogram {
    fn index(ns: u64) -> usize {
        if ns < EXACT as u64 {
            return ns as usize;
        }
        let exp = (63 - ns.leading_zeros()).min(TOP_EXP - 1);
        let shift = exp - SUB_BITS;
        let sub = ((ns >> shift) as usize).min(EXACT - 1) - EXACT / 2;
        EXACT + (exp - SUB_BITS - 1) as usize * (EXACT / 2) + sub
    }

    /// Lower bound and width of bucket `i`, in ns.
    fn bucket(i: usize) -> (f64, f64) {
        if i < EXACT {
            return (i as f64, 1.0);
        }
        let exp = SUB_BITS + 1 + ((i - EXACT) / (EXACT / 2)) as u32;
        let sub = (EXACT / 2 + (i - EXACT) % (EXACT / 2)) as u64;
        let shift = exp - SUB_BITS;
        ((sub << shift) as f64, (1u64 << shift) as f64)
    }

    /// Records one value.
    pub fn record(&mut self, ns: u64) {
        self.counts[Self::index(ns)] += 1;
        self.n += 1;
    }

    /// Values recorded since the last reset.
    pub fn len(&self) -> u64 {
        self.n
    }

    /// Forgets every value.
    pub fn reset(&mut self) {
        self.counts.fill(0);
        self.n = 0;
    }

    /// The `q`-quantile in ns, at the same rank as [`quantile`], placed
    /// within its bucket as if the bucket's values were spread evenly.
    /// `NaN` when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.n == 0 {
            return f64::NAN;
        }
        let rank = q.clamp(0.0, 1.0) * (self.n - 1) as f64;
        let mut below = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c > 0 && rank < (below + c) as f64 {
                let (lo, width) = Self::bucket(i);
                return lo + width * (rank - below as f64 + 0.5) / c as f64;
            }
            below += c;
        }
        unreachable!("rank {rank} beyond {} recorded values", self.n)
    }
}

/// Peak resident set (VmHWM) of this process in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// FNV-1a over a stream of 64-bit words: the digest that pins exact
/// outputs (ward outcomes, cell verdicts) across passes and runs.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds one word in.
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// The digest so far.
    pub fn value(self) -> u64 {
        self.0
    }
}

/// SplitMix64: derives independent sub-seeds from the command-line seed.
pub fn splitmix(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert_eq!(median(&xs), 2.5);
        assert!((quantile(&xs, 0.25) - 1.75).abs() < 1e-12);
    }

    #[test]
    fn histogram_buckets_tile_the_range() {
        let mut end = 0.0;
        for i in 0..BUCKETS {
            let (lo, width) = Histogram::bucket(i);
            assert_eq!(lo, end, "bucket {i} starts where {} ends", i.saturating_sub(1));
            assert_eq!(Histogram::index(lo as u64), i);
            assert_eq!(Histogram::index((lo + width) as u64 - 1), i);
            assert!(width <= 1.0 || width / lo <= 1.0 / 64.0);
            end = lo + width;
        }
        assert_eq!(Histogram::index(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn histogram_quantiles_track_exact_ones() {
        let mut h = Histogram::default();
        let xs: Vec<f64> = (0..10_000u64).map(|i| (splitmix(i) % 5_000_000) as f64).collect();
        for &x in &xs {
            h.record(x as u64);
        }
        assert_eq!(h.len(), 10_000);
        for q in [0.01, 0.5, 0.99] {
            let exact = quantile(&xs, q);
            assert!(
                (h.quantile(q) - exact).abs() <= exact / 64.0,
                "q {q}: {} vs {exact}",
                h.quantile(q)
            );
        }
        h.reset();
        assert!(h.quantile(0.5).is_nan());
    }
}
