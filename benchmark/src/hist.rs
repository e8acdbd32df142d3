//! A log-linear latency histogram: 128 linear sub-buckets per power of
//! two, so a bucket is never wider than 1/128 (0.78%) of the values it
//! holds. `dista-obs`'s 19-bound grid reports bucket edges; this one
//! reports quantiles to within 1% of the exact sorted-sample answer.

const SUB_BITS: u32 = 7;
const SUB: u64 = 1 << SUB_BITS;
const BUCKETS: usize = (SUB as usize) * (64 - SUB_BITS as usize + 1);

#[derive(Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
}

fn index_of(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let exp = 63 - v.leading_zeros();
    let shift = exp - SUB_BITS;
    (SUB + u64::from(shift) * SUB + ((v >> shift) - SUB)) as usize
}

/// Lowest value and width of bucket `idx`.
fn bounds_of(idx: usize) -> (u64, u64) {
    let idx = idx as u64;
    if idx < SUB {
        return (idx, 1);
    }
    let shift = (idx - SUB) / SUB;
    let sub = (idx - SUB) % SUB;
    ((SUB + sub) << shift, 1 << shift)
}

impl Histogram {
    pub fn new() -> Self {
        Histogram {
            counts: vec![0; BUCKETS],
            total: 0,
        }
    }

    #[inline]
    pub fn record(&mut self, v: u64) {
        self.counts[index_of(v)] += 1;
        self.total += 1;
    }

    pub fn count(&self) -> u64 {
        self.total
    }

    pub fn clear(&mut self) {
        self.counts.fill(0);
        self.total = 0;
    }

    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
    }

    /// The `q`-quantile (`0 < q ≤ 1`), interpolated linearly inside its
    /// bucket so that the reported value moves with the samples instead
    /// of snapping to a bucket edge.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = q * self.total as f64;
        let mut seen = 0u64;
        for (idx, &n) in self.counts.iter().enumerate() {
            if n > 0 && (seen + n) as f64 >= rank {
                let (lo, width) = bounds_of(idx);
                let into = ((rank - seen as f64) / n as f64).clamp(0.0, 1.0);
                return lo as f64 + width as f64 * into;
            }
            seen += n;
        }
        unreachable!("rank {rank} lies within total {}", self.total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::Rng;

    #[test]
    fn buckets_tile_the_u64_range() {
        for v in [0, 1, 127, 128, 129, 255, 256, 1_000, 123_456_789, u64::MAX] {
            let (lo, width) = bounds_of(index_of(v));
            assert!(
                lo <= v && v - lo < width,
                "{v} outside [{lo}, {lo}+{width})"
            );
            assert!(width == 1 || width as f64 / lo as f64 <= 1.0 / 128.0);
        }
        assert_eq!(index_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn quantiles_within_one_percent_of_exact() {
        // Three shapes a latency distribution takes here: a tight
        // sub-µs mode, a wide log-uniform spread, and a bimodal mix.
        let mut rng = Rng::new(7);
        let shapes: [fn(&mut Rng) -> u64; 3] = [
            |r| 600 + r.below(300),
            |r| 1u64 << (4 + r.below(30)) | r.below(1 << 20),
            |r| {
                if r.below(10) == 0 {
                    40_000 + r.below(9_000)
                } else {
                    900 + r.below(100)
                }
            },
        ];
        for shape in shapes {
            let mut h = Histogram::new();
            let mut exact: Vec<u64> = (0..200_000).map(|_| shape(&mut rng)).collect();
            for &v in &exact {
                h.record(v);
            }
            exact.sort_unstable();
            for q in [0.01, 0.25, 0.5, 0.9, 0.99, 0.999] {
                let want = exact[((q * exact.len() as f64).ceil() as usize).max(1) - 1] as f64;
                let got = h.quantile(q);
                assert!(
                    (got - want).abs() <= want * 0.01,
                    "q={q}: got {got}, exact {want}"
                );
            }
        }
    }

    #[test]
    fn merge_adds_counts() {
        let (mut a, mut b) = (Histogram::new(), Histogram::new());
        a.record(100);
        b.record(300);
        b.record(300);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert!((a.quantile(1.0) - 300.0).abs() <= 3.0);
    }
}
