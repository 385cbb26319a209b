//! Order statistics, the verdict-gap histogram and process memory.

/// The `q`-quantile (0..=1) of `sorted` by linear interpolation between
/// closest ranks; 0.0 for an empty slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// Median of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    quantile(&s, 0.5)
}

/// The highest of the usual tail percentiles that still leaves at least
/// ten samples beyond it, for `n` samples; `None` below 20 samples.
pub fn supported_tail(n: usize) -> Option<f64> {
    [999u64, 990, 950, 900]
        .into_iter()
        .find(|&per_mille| n as u64 * (1000 - per_mille) >= 10_000)
        .map(|per_mille| per_mille as f64 / 1000.0)
}

/// A timing summary: median, the supported tail percentile (on the side
/// where the metric gets worse) and the sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Median.
    pub median: f64,
    /// Tail percentile as a fraction (0.99 = p99), `None` when too few
    /// samples support one.
    pub tail_q: Option<f64>,
    /// Value at the tail percentile.
    pub tail: f64,
    /// Sample count.
    pub n: usize,
}

impl Summary {
    /// Summarises samples where smaller is worse (rates): the tail is
    /// the low percentile mirroring the supported upper one.
    pub fn lower(samples: &[f64]) -> Summary {
        let mut s = samples.to_vec();
        s.sort_by(f64::total_cmp);
        let tail_q = supported_tail(s.len());
        Summary {
            median: quantile(&s, 0.5),
            tail_q,
            tail: tail_q.map_or(f64::NAN, |q| quantile(&s, 1.0 - q)),
            n: s.len(),
        }
    }

    /// `median 1.23 [p99 4.56] n=789` with the given precision.
    pub fn describe(&self, digits: usize) -> String {
        match self.tail_q {
            Some(q) => format!(
                "median {:.d$} [{} {:.d$}] n={}",
                self.median,
                percentile_label(q),
                self.tail,
                self.n,
                d = digits
            ),
            None => format!(
                "median {:.d$} [too few samples for a tail] n={}",
                self.median,
                self.n,
                d = digits
            ),
        }
    }
}

fn percentile_label(q: f64) -> String {
    let pct = q * 100.0;
    if (pct - pct.round()).abs() < 1e-9 {
        format!("p{}", pct.round())
    } else {
        format!("p{pct}")
    }
}

/// Sub-buckets per power of two in [`GapHistogram`]: values below 1024 ns
/// are exact, larger ones are kept to within 0.1%.
const SUB_BITS: u32 = 10;

/// Wall gaps between consecutive verdicts, in nanoseconds, as a
/// log-linear histogram of fixed size, so memory stays the same however
/// many verdicts a run delivers.
#[derive(Debug, Clone)]
pub struct GapHistogram {
    buckets: Vec<u32>,
    count: u64,
}

impl Default for GapHistogram {
    fn default() -> Self {
        GapHistogram {
            buckets: vec![0; (64 - SUB_BITS as usize + 1) << SUB_BITS],
            count: 0,
        }
    }
}

fn bucket_of(ns: u64) -> usize {
    if ns < 1 << SUB_BITS {
        return ns as usize;
    }
    let shift = 63 - ns.leading_zeros() - SUB_BITS;
    (((shift + 1) as usize) << SUB_BITS) + ((ns >> shift) as usize - (1 << SUB_BITS))
}

fn bucket_floor(idx: usize) -> u64 {
    if idx < 1 << SUB_BITS {
        return idx as u64;
    }
    let shift = (idx >> SUB_BITS) - 1;
    (((idx & ((1 << SUB_BITS) - 1)) + (1 << SUB_BITS)) as u64) << shift
}

impl GapHistogram {
    /// Records one gap.
    pub fn observe(&mut self, ns: u64) {
        self.buckets[bucket_of(ns)] += 1;
        self.count += 1;
    }

    /// Gaps recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Nearest-rank `q`-quantile in nanoseconds (0 when empty).
    pub fn quantile_ns(&self, q: f64) -> u64 {
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (idx, &c) in self.buckets.iter().enumerate() {
            seen += u64::from(c);
            if seen >= rank {
                return bucket_floor(idx);
            }
        }
        0
    }

    /// Median and supported tail, in microseconds.
    pub fn summary_us(&self) -> Summary {
        let n = self.count as usize;
        let tail_q = supported_tail(n);
        Summary {
            median: self.quantile_ns(0.5) as f64 / 1e3,
            tail_q,
            tail: tail_q.map_or(f64::NAN, |q| self.quantile_ns(q) as f64 / 1e3),
            n,
        }
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), or `None`
/// where `/proc` is unavailable.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let s = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&s, 0.5), 2.5);
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 1.0), 4.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(supported_tail(19), None);
        assert_eq!(supported_tail(100), Some(0.9));
        assert_eq!(supported_tail(1_000), Some(0.99));
        assert_eq!(supported_tail(10_000), Some(0.999));
    }

    #[test]
    fn gap_histogram_ranks() {
        let mut h = GapHistogram::default();
        for ns in 1..=100u64 {
            h.observe(ns);
        }
        h.observe(1_000_000);
        assert_eq!(h.count(), 101);
        assert_eq!(h.quantile_ns(0.5), 51);
        let top = h.quantile_ns(1.0);
        assert!(top <= 1_000_000 && top > 999_000, "{top}");
    }

    #[test]
    fn gap_buckets_are_monotone_and_tight() {
        let mut last = 0;
        for ns in 0..5_000u64 {
            assert!(bucket_of(ns) >= last);
            last = bucket_of(ns);
        }
        for ns in (0..5_000u64).chain((1..60).map(|k| 1u64 << k).flat_map(|p| [p - 1, p, p + 1])) {
            let floor = bucket_floor(bucket_of(ns));
            assert!(floor <= ns && ns - floor <= ns / 1000, "{ns} -> {floor}");
        }
        assert!(bucket_of(u64::MAX) < GapHistogram::default().buckets.len());
    }
}
