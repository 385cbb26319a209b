//! Shared report building blocks: the latency/energy statistics every
//! serving path aggregates through, and ASCII table rendering for the
//! benchmark harness — the same rows and columns the paper prints.

use std::fmt::Write as _;

use canids_can::time::SimTime;

/// Latency distribution summary shared by every serving report
/// (software line rate, single-ECU, fleet): median, tail and worst-case
/// verdict latency over one replay.
///
/// Percentiles use the **nearest-rank on the zero-based index** rule:
/// for `n` sorted samples, quantile `q` reads index
/// `round((n - 1) · q)`. This is exactly the formula the three
/// pre-unification report paths used, so reports computed through this
/// type are bit-identical to the historical numbers.
///
/// # Example
///
/// ```
/// use canids_can::time::SimTime;
/// use canids_core::report::LatencyStats;
///
/// let samples: Vec<SimTime> = (1..=100).map(SimTime::from_micros).collect();
/// let stats = LatencyStats::from_unsorted(samples);
/// assert_eq!(stats.p50, SimTime::from_micros(51)); // round(99 * 0.5) = 50
/// assert_eq!(stats.p99, SimTime::from_micros(99)); // round(99 * 0.99) = 98
/// assert_eq!(stats.max, SimTime::from_micros(100));
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LatencyStats {
    /// Median (50th-percentile) latency.
    pub p50: SimTime,
    /// 99th-percentile latency.
    pub p99: SimTime,
    /// Worst observed latency.
    pub max: SimTime,
}

impl LatencyStats {
    /// The zero-based index quantile `q` reads among `n > 0` sorted
    /// samples (see the type docs for the exact rule).
    fn rank(n: usize, q: f64) -> usize {
        (((n - 1) as f64 * q).round() as usize).min(n - 1)
    }

    /// Nearest-rank percentile over **sorted** samples (see the type
    /// docs for the exact rule). Empty input reads as zero.
    pub fn percentile(sorted: &[SimTime], q: f64) -> SimTime {
        if sorted.is_empty() {
            return SimTime::ZERO;
        }
        sorted[Self::rank(sorted.len(), q)]
    }

    /// Summarises a **sorted** sample vector.
    pub fn from_sorted(sorted: &[SimTime]) -> Self {
        LatencyStats {
            p50: Self::percentile(sorted, 0.50),
            p99: Self::percentile(sorted, 0.99),
            max: sorted.last().copied().unwrap_or(SimTime::ZERO),
        }
    }

    /// Summarises samples in any order: the same nearest-rank elements
    /// [`from_sorted`](Self::from_sorted) reads, selected in place
    /// rather than sorted. p99 is selected first, p50 among the samples
    /// below it and the max among those above it. Samples already in
    /// order (a constant service time, say) are read as they are.
    pub fn from_unsorted(mut samples: Vec<SimTime>) -> Self {
        if samples.is_sorted() {
            return Self::from_sorted(&samples);
        }
        // Unsorted, so at least two samples.
        let n = samples.len();
        let (at50, at99) = (Self::rank(n, 0.50), Self::rank(n, 0.99));
        let (below, &mut p99, above) = samples.select_nth_unstable(at99);
        let max = above.iter().copied().max().unwrap_or(p99);
        let p50 = if at50 < at99 {
            *below.select_nth_unstable(at50).1
        } else {
            p99
        };
        LatencyStats { p50, p99, max }
    }
}

/// Power/energy accounting of one replay on a modelled board (absent on
/// the pure-software serving path, which has no rail model).
///
/// # Example
///
/// ```
/// use canids_core::report::EnergyStats;
///
/// let e = EnergyStats { mean_power_w: 2.09, energy_per_message_j: 0.25e-3 };
/// assert!(e.mean_power_w > 2.0 && e.energy_per_message_j < 1e-3);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EnergyStats {
    /// Mean board power over the replay (rail model).
    pub mean_power_w: f64,
    /// Energy per inspected message.
    pub energy_per_message_j: f64,
}

/// A simple fixed-column table with aligned ASCII rendering.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title and column headers.
    pub fn new<S: Into<String>>(title: S, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|h| (*h).to_owned()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header arity).
    ///
    /// # Panics
    ///
    /// Panics when the cell count differs from the header count.
    pub fn push_row(&mut self, cells: &[String]) -> &mut Self {
        assert_eq!(cells.len(), self.headers.len(), "column count mismatch");
        self.rows.push(cells.to_vec());
        self
    }

    /// Convenience for `&str` cells.
    pub fn push_strs(&mut self, cells: &[&str]) -> &mut Self {
        let owned: Vec<String> = cells.iter().map(|c| (*c).to_owned()).collect();
        self.push_row(&owned)
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` when the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let mut header = String::new();
        for (w, h) in widths.iter().zip(&self.headers) {
            let _ = write!(header, "| {h:<w$} ");
        }
        header.push('|');
        let rule = "-".repeat(header.len());
        let _ = writeln!(out, "{rule}");
        let _ = writeln!(out, "{header}");
        let _ = writeln!(out, "{rule}");
        for row in &self.rows {
            let mut line = String::new();
            for (w, cell) in widths.iter().zip(row) {
                let _ = write!(line, "| {cell:<w$} ");
            }
            line.push('|');
            let _ = writeln!(out, "{line}");
        }
        let _ = writeln!(out, "{rule}");
        out
    }
}

impl std::fmt::Display for Table {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.render())
    }
}

/// Formats a percentage with the paper's two-decimal style.
pub fn pct(value: f64) -> String {
    format!("{value:.2}")
}

/// Formats an optional percentage (`-` when the source didn't report it).
pub fn pct_opt(value: Option<f64>) -> String {
    value.map_or_else(|| "-".to_owned(), pct)
}

/// Formats `part` as a percentage of `whole` in the paper's two-decimal
/// style (`-` when `whole` is zero), used by the population tables for
/// served/shed frame shares.
pub fn pct_of(part: u64, whole: u64) -> String {
    if whole == 0 {
        "-".to_owned()
    } else {
        pct(100.0 * part as f64 / whole as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new("Demo", &["Model", "F1"]);
        t.push_strs(&["DCNN", "99.95"]);
        t.push_strs(&["4-bit-QMLP", "99.99"]);
        let s = t.render();
        assert!(s.contains("== Demo =="));
        assert!(s.contains("| Model"));
        assert!(s.contains("| 4-bit-QMLP | 99.99 |"));
        // All data lines have equal width.
        let lines: Vec<&str> = s.lines().filter(|l| l.starts_with('|')).collect();
        assert!(lines.windows(2).all(|w| w[0].len() == w[1].len()));
    }

    #[test]
    #[should_panic(expected = "column count mismatch")]
    fn arity_checked() {
        let mut t = Table::new("x", &["a", "b"]);
        t.push_strs(&["only one"]);
    }

    #[test]
    fn pct_formatting() {
        assert_eq!(pct(99.994), "99.99");
        assert_eq!(pct_opt(None), "-");
        assert_eq!(pct_opt(Some(0.13)), "0.13");
    }

    #[test]
    fn pct_of_guards_zero_denominator() {
        assert_eq!(pct_of(1, 0), "-");
        assert_eq!(pct_of(0, 4), "0.00");
        assert_eq!(pct_of(1, 4), "25.00");
        assert_eq!(pct_of(4, 4), "100.00");
    }

    #[test]
    fn len_and_empty() {
        let mut t = Table::new("x", &["a"]);
        assert!(t.is_empty());
        t.push_strs(&["1"]);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn latency_stats_empty_is_zero() {
        let s = LatencyStats::from_sorted(&[]);
        assert_eq!(s, LatencyStats::default());
        assert_eq!(LatencyStats::percentile(&[], 0.99), SimTime::ZERO);
    }

    #[test]
    fn latency_stats_single_sample_is_every_quantile() {
        let one = [SimTime::from_micros(7)];
        let s = LatencyStats::from_sorted(&one);
        assert_eq!(s.p50, SimTime::from_micros(7));
        assert_eq!(s.p99, SimTime::from_micros(7));
        assert_eq!(s.max, SimTime::from_micros(7));
    }

    #[test]
    fn nearest_rank_semantics_are_pinned() {
        // n = 4 sorted samples: p50 reads round(3 · 0.5) = round(1.5) =
        // index 2 (round half away from zero), p99 reads round(2.97) =
        // index 3.
        let sorted: Vec<SimTime> = [10u64, 20, 30, 40]
            .iter()
            .map(|&us| SimTime::from_micros(us))
            .collect();
        assert_eq!(
            LatencyStats::percentile(&sorted, 0.50),
            SimTime::from_micros(30)
        );
        assert_eq!(
            LatencyStats::percentile(&sorted, 0.99),
            SimTime::from_micros(40)
        );
        assert_eq!(
            LatencyStats::percentile(&sorted, 0.0),
            SimTime::from_micros(10)
        );
        assert_eq!(
            LatencyStats::percentile(&sorted, 1.0),
            SimTime::from_micros(40)
        );
    }

    #[test]
    fn from_unsorted_sorts_first() {
        let shuffled: Vec<SimTime> = [40u64, 10, 30, 20]
            .iter()
            .map(|&us| SimTime::from_micros(us))
            .collect();
        let sorted: Vec<SimTime> = {
            let mut v = shuffled.clone();
            v.sort_unstable();
            v
        };
        assert_eq!(
            LatencyStats::from_unsorted(shuffled),
            LatencyStats::from_sorted(&sorted)
        );
    }

    /// What sorting the samples and reading them gives.
    fn by_sorting(samples: &[SimTime]) -> LatencyStats {
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        LatencyStats::from_sorted(&sorted)
    }

    #[test]
    fn selection_matches_sorting_on_every_short_input() {
        // Every vector of up to five samples over three values, so n = 1
        // and n = 2, where p50 and p99 read the same index, are covered
        // in every order.
        for n in 0..=5u32 {
            for code in 0..3u64.pow(n) {
                let samples: Vec<SimTime> = (0..n)
                    .map(|i| SimTime::from_nanos(code / 3u64.pow(i) % 3))
                    .collect();
                assert_eq!(
                    LatencyStats::from_unsorted(samples.clone()),
                    by_sorting(&samples),
                    "{samples:?}"
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        // Selection reads the elements sorting reads, for lengths 0-300
        // over a wide range or a few distinct values, in the drawn order,
        // presorted, reversed or all equal.
        #[test]
        fn selection_matches_sorting(
            drawn in proptest::collection::vec(0u64..1_000_000, 0..=300),
            distinct in prop_oneof![Just(1u64), Just(2), Just(3), Just(1_000_000)],
            shape in 0u8..4,
        ) {
            let mut samples: Vec<SimTime> =
                drawn.iter().map(|&ns| SimTime::from_nanos(ns % distinct + 1)).collect();
            match shape {
                1 => samples.sort_unstable(),
                2 => samples.sort_unstable_by(|a, b| b.cmp(a)),
                3 => {
                    let first = samples.first().copied().unwrap_or(SimTime::ZERO);
                    samples.fill(first);
                }
                _ => {}
            }
            prop_assert_eq!(LatencyStats::from_unsorted(samples.clone()), by_sorting(&samples));
        }
    }
}
