//! Order statistics over timing samples.
//!
//! A timing is reported as its median and the highest percentile that
//! still has at least [`MIN_BEYOND`] samples beyond it, together with
//! the sample count, so a tail figure is never read off a handful of
//! points.

/// Samples a tail percentile must have strictly beyond it.
pub const MIN_BEYOND: usize = 10;

/// Tail percentiles tried, highest first.
const TAILS: [f64; 4] = [0.999, 0.99, 0.9, 0.5];

/// The value at quantile `q` of ascending `sorted` (nearest rank:
/// the smallest value with at least `q` of the samples at or below
/// it). `None` for an empty slice.
pub fn quantile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank(q, sorted.len()) - 1])
}

/// The 1-based nearest rank of quantile `q` among `n > 0` samples.
/// The small slack keeps `0.99 * 1000` from rounding up to rank 991.
fn rank(q: f64, n: usize) -> usize {
    ((q * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Samples strictly beyond the nearest rank of `q` among `n`.
fn beyond(q: f64, n: usize) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(q, n)
    }
}

/// The highest of 99.9 %, 99 %, 90 % and 50 % that leaves at least
/// [`MIN_BEYOND`] of `n` samples strictly above its nearest rank.
/// `None` when even the median has fewer beyond it.
pub fn tail_quantile(n: usize) -> Option<f64> {
    TAILS.into_iter().find(|&q| beyond(q, n) >= MIN_BEYOND)
}

/// Median of an unsorted slice of values (upper median for even
/// counts, so it is always one of the values). `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile(&sorted, 0.5)
}

/// Values below this many nanoseconds are counted per exact value.
const EXACT_NS: usize = 1 << 16;

/// Above [`EXACT_NS`], each power of two is split into `2^SUB_BITS`
/// equal buckets: a value is kept to within 0.1 % of itself.
const SUB_BITS: u32 = 10;

/// Count slots: the exact range, then 48 octaves of sub-buckets.
const SLOTS: usize = EXACT_NS + ((64 - 16) << SUB_BITS);

/// The count slot of `ns`.
fn slot(ns: u64) -> usize {
    if ns < EXACT_NS as u64 {
        return ns as usize;
    }
    let octave = 63 - ns.leading_zeros();
    let sub = (ns >> (octave - SUB_BITS)) & ((1 << SUB_BITS) - 1);
    EXACT_NS + (((octave - 16) as usize) << SUB_BITS) + sub as usize
}

/// The smallest value counted in `slot`.
fn floor(slot: usize) -> u64 {
    if slot < EXACT_NS {
        return slot as u64;
    }
    let i = slot - EXACT_NS;
    let octave = (i >> SUB_BITS) as u32 + 16;
    let sub = (i & ((1 << SUB_BITS) - 1)) as u64;
    (1 << octave) | (sub << (octave - SUB_BITS))
}

/// A set of timing samples in whole nanoseconds, as counts: exact
/// below 65.5 µs, to within 0.1 % above. Memory is fixed (448 KiB),
/// so a run can keep every one of tens of millions of probes — and
/// the benchmark's own bookkeeping cannot grow the peak memory it
/// reports, however noisy the host.
#[derive(Clone, Debug, Default)]
pub struct Samples {
    /// Samples per slot (allocated on first use).
    counts: Vec<u32>,
    n: usize,
    sum_ns: u128,
}

/// What a [`Samples`] set reports: the median, the requested
/// quantile `q` (if the count supports it) and the count.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub count: usize,
    pub mean_ns: f64,
    pub p50_ns: f64,
    /// The quantile value, `None` when fewer than [`MIN_BEYOND`]
    /// samples lie beyond it.
    pub tail_ns: Option<f64>,
}

impl Samples {
    pub fn push(&mut self, ns: u64) {
        if self.counts.is_empty() {
            self.counts = vec![0; SLOTS];
        }
        self.counts[slot(ns)] += 1;
        self.n += 1;
        self.sum_ns += u128::from(ns);
    }

    pub fn extend(&mut self, other: &Samples) {
        if !other.counts.is_empty() {
            if self.counts.is_empty() {
                self.counts = vec![0; SLOTS];
            }
            for (a, b) in self.counts.iter_mut().zip(&other.counts) {
                *a += b;
            }
        }
        self.n += other.n;
        self.sum_ns += other.sum_ns;
    }

    /// The sample at 1-based rank `rank` (`1..=n`) in ascending order.
    fn at_rank(&self, rank: usize) -> u64 {
        let mut seen = 0;
        for (slot, &c) in self.counts.iter().enumerate() {
            seen += c as usize;
            if seen >= rank {
                return floor(slot);
            }
        }
        unreachable!("rank {rank} beyond {} samples", self.n)
    }

    /// Median, mean and the value at quantile `q`, which is reported
    /// only if at least [`MIN_BEYOND`] samples lie beyond it.
    pub fn summary(&self, q: f64) -> Summary {
        let n = self.n;
        if n == 0 {
            return Summary {
                count: 0,
                mean_ns: 0.0,
                p50_ns: 0.0,
                tail_ns: None,
            };
        }
        let value = |q: f64| self.at_rank(rank(q, n)) as f64;
        Summary {
            count: n,
            mean_ns: self.sum_ns as f64 / n as f64,
            p50_ns: value(0.5),
            tail_ns: (beyond(q, n) >= MIN_BEYOND).then(|| value(q)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), Some(50.0));
        assert_eq!(quantile(&v, 0.99), Some(99.0));
        assert_eq!(quantile(&v, 1.0), Some(100.0));
        assert_eq!(quantile(&v, 0.0), Some(1.0));
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.0));
    }

    #[test]
    fn tail_choice_needs_ten_samples_beyond() {
        // 10 000 samples: 99.9 % leaves exactly 10 beyond.
        assert_eq!(tail_quantile(10_000), Some(0.999));
        // 9 999 leaves 9 beyond 99.9 % but 99 beyond 99 %.
        assert_eq!(tail_quantile(9_999), Some(0.99));
        assert_eq!(tail_quantile(1_000), Some(0.99));
        assert_eq!(tail_quantile(999), Some(0.9));
        assert_eq!(tail_quantile(100), Some(0.9));
        assert_eq!(tail_quantile(99), Some(0.5));
        assert_eq!(tail_quantile(20), Some(0.5));
        assert_eq!(tail_quantile(19), None);
        assert_eq!(tail_quantile(0), None);
    }

    #[test]
    fn slots_are_exact_below_65_us_and_within_a_thousandth_above() {
        for v in [0, 1, 65_535] {
            assert_eq!(floor(slot(v)), v);
        }
        for v in [65_536u64, 65_600, 1_789_925, 4_000_000_000, u64::MAX] {
            let f = floor(slot(v));
            assert!(f <= v && (v - f) as f64 <= v as f64 / 1024.0, "{v} -> {f}");
            assert!(slot(v) < SLOTS);
        }
        // Slots are ordered like the values they hold.
        assert!(slot(65_535) < slot(65_536) && slot(131_071) < slot(131_072));
    }

    #[test]
    fn summary_withholds_unsupported_tails() {
        let mut s = Samples::default();
        // Shuffled, and straddling the exact-count range.
        for v in (1..=1_000u64).rev() {
            s.push(if v > 900 { v * 1_000 } else { v });
        }
        let p99 = s.summary(0.99);
        assert_eq!(p99.count, 1_000);
        assert_eq!(p99.p50_ns, 500.0);
        let tail = p99.tail_ns.unwrap();
        assert!(tail <= 990_000.0 && tail > 990_000.0 * 0.999, "{tail}");
        let sum: u64 = (1..=900).sum::<u64>() + (901..=1_000).map(|v| v * 1_000).sum::<u64>();
        assert_eq!(p99.mean_ns, sum as f64 / 1_000.0);
        let mut merged = Samples::default();
        merged.extend(&s);
        merged.extend(&s);
        assert_eq!(merged.summary(0.5).count, 2_000);
        assert_eq!(merged.summary(0.99).tail_ns, Some(tail));
        // 99.9 % of 1 000 leaves a single sample beyond: withheld.
        assert_eq!(s.summary(0.999).tail_ns, None);
    }
}
