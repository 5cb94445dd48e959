//! A latency histogram with 1 ns buckets below 1024 ns and 1024 buckets
//! per power of two above, so every reading keeps about three significant
//! digits without storing one sample per request.

const SUB_BITS: u32 = 10;
const LINEAR: u64 = 1 << SUB_BITS;
const HALF: usize = 1 << (SUB_BITS - 1);
/// Readings are clamped below 2^40 ns (about 18 minutes).
const MAX_BITS: u32 = 40;
const BUCKETS: usize = (MAX_BITS - SUB_BITS + 2) as usize * HALF;

/// Request-time histogram in nanoseconds.
#[derive(Debug, Clone)]
pub struct Histogram {
    counts: Box<[u64]>,
    total: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: vec![0; BUCKETS].into_boxed_slice(),
            total: 0,
        }
    }
}

fn index(ns: u64) -> usize {
    let ns = ns.min((1 << MAX_BITS) - 1);
    if ns < LINEAR {
        return ns as usize;
    }
    let shift = 63 - ns.leading_zeros() - (SUB_BITS - 1);
    ((shift as usize) << (SUB_BITS - 1)) + (ns >> shift) as usize
}

/// The midpoint of bucket `i`, in nanoseconds.
fn midpoint(i: usize) -> f64 {
    if (i as u64) < LINEAR {
        return i as f64;
    }
    let shift = i / HALF - 1;
    let base = (i % HALF + HALF) as u64;
    ((base << shift) as f64) + ((1u64 << shift) as f64 - 1.0) / 2.0
}

impl Histogram {
    /// Adds one reading.
    #[inline]
    pub fn record(&mut self, ns: u64) {
        self.counts[index(ns)] += 1;
        self.total += 1;
    }

    /// Readings recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Forgets every reading.
    pub fn clear(&mut self) {
        self.counts.fill(0);
        self.total = 0;
    }

    /// Adds every reading of `other`.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.total += other.total;
    }

    /// The `q` quantile (0 < q <= 1) in nanoseconds: the smallest bucket
    /// holding at least `ceil(q * count)` readings, or 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return midpoint(i);
            }
        }
        unreachable!("rank never exceeds the total")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_contiguous_and_monotone() {
        let mut last = 0;
        for ns in [0, 1, 1023, 1024, 1025, 2047, 2048, 4095, 4096, 1 << 30] {
            let i = index(ns);
            assert!(i >= last, "{ns}");
            last = i;
        }
        assert_eq!(index(1023) + 1, index(1024));
        assert_eq!(index(2047) + 1, index(2048));
        assert!(index(u64::MAX) < BUCKETS);
    }

    #[test]
    fn quantiles_keep_three_digits() {
        let mut h = Histogram::default();
        for ns in 1..=100_000u64 {
            h.record(ns);
        }
        let p99 = h.quantile(0.99);
        assert!((p99 - 99_000.0).abs() / 99_000.0 < 1e-3, "{p99}");
        assert_eq!(h.quantile(0.5) as u64 / 100, 500);
        assert_eq!(Histogram::default().quantile(0.99), 0.0);
    }
}
