//! The one percentile routine every timing in the benchmark goes through.
//!
//! A timing is reported as its median plus the highest percentile that
//! still has at least ten samples beyond it, together with the sample
//! count. Percentiles are nearest-rank: the reported value is a sample
//! that was actually measured, never an interpolation.

/// Tail levels tried from the highest down; the first with at least
/// [`MIN_BEYOND`] samples beyond it is reported.
const TAIL_LEVELS: [(f64, &str); 3] = [(0.99, "p99"), (0.95, "p95"), (0.90, "p90")];

/// Samples that must lie beyond a tail percentile for it to be reported.
const MIN_BEYOND: usize = 10;

/// A long timing series is cut into this many consecutive windows and its
/// p99 reported as the median of the windows' p99s, so one stall of the
/// shared machine moves one window, not the result.
pub const WINDOWS: usize = 5;

/// Order statistics of one timing series.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// The median (nearest rank).
    pub p50: f64,
    /// The highest tail level with at least [`MIN_BEYOND`] samples beyond
    /// it, as `(label, value)`; `None` when the series is too short.
    pub tail: Option<(&'static str, f64)>,
}

impl Summary {
    /// The p99, when the series is long enough to report it.
    pub fn p99(&self) -> Option<f64> {
        match self.tail {
            Some(("p99", v)) => Some(v),
            _ => None,
        }
    }

    /// Human-readable form: `p50 <v> <unit>  p99 <v> <unit>  (n=<n>)`.
    pub fn render(&self, unit: &str) -> String {
        let tail = match self.tail {
            Some((label, v)) => format!("  {label} {v:.3} {unit}"),
            None => String::new(),
        };
        format!("p50 {:.3} {unit}{tail}  (n={})", self.p50, self.n)
    }
}

/// Index of the nearest-rank `q` quantile in a sorted series of `n`.
fn rank(q: f64, n: usize) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// Summarizes `samples` (any order). Returns `None` for an empty series.
pub fn summarize(samples: &[f64]) -> Option<Summary> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let tail = TAIL_LEVELS.iter().find_map(|&(q, label)| {
        let at = rank(q, n);
        (n - 1 - at >= MIN_BEYOND).then(|| (label, sorted[at]))
    });
    Some(Summary {
        n,
        p50: sorted[rank(0.5, n)],
        tail,
    })
}

/// The median of a short series (a per-run value such as the F_T of a
/// few plan calls); `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    summarize(samples).map(|s| s.p50)
}

/// The median of the windows' p99s; `None` when a window is too short to
/// have ten samples beyond its p99.
pub fn windowed_p99(windows: &[Vec<f64>]) -> Option<f64> {
    let p99s: Option<Vec<f64>> = windows
        .iter()
        .map(|w| summarize(w).and_then(|s| s.p99()))
        .collect();
    median(&p99s?)
}

/// Cuts a series into [`WINDOWS`] consecutive windows of equal length (the
/// last takes any remainder).
pub fn windows(samples: &[f64]) -> Vec<Vec<f64>> {
    let len = (samples.len() / WINDOWS).max(1);
    let mut out: Vec<Vec<f64>> = samples.chunks(len).map(<[f64]>::to_vec).collect();
    while out.len() > WINDOWS {
        let tail = out.pop().expect("more than WINDOWS chunks");
        out.last_mut().expect("WINDOWS > 0").extend(tail);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(n: usize) -> Vec<f64> {
        // 1..=n, shuffled deterministically so sorting is exercised.
        let mut v: Vec<f64> = (1..=n).map(|i| i as f64).collect();
        v.reverse();
        v.swap(0, n / 2);
        v
    }

    #[test]
    fn empty_series_has_no_summary() {
        assert_eq!(summarize(&[]), None);
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn median_is_nearest_rank() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        // Even length: the lower middle sample, not an average.
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.0));
        assert_eq!(median(&[7.5]), Some(7.5));
    }

    #[test]
    fn short_series_report_no_tail() {
        // p90 of 100 samples is sample 90, with exactly 10 beyond it; one
        // sample fewer and no tail level qualifies.
        let s = summarize(&series(99)).unwrap();
        assert_eq!(s.tail, None);
        assert_eq!(s.n, 99);
        assert_eq!(summarize(&series(5)).unwrap().tail, None);
    }

    #[test]
    fn tail_is_the_highest_level_with_ten_beyond() {
        assert_eq!(summarize(&series(100)).unwrap().tail, Some(("p90", 90.0)));
        assert_eq!(summarize(&series(200)).unwrap().tail, Some(("p95", 190.0)));
        // p99 needs 1000 samples: rank 990, ten beyond.
        assert_eq!(summarize(&series(999)).unwrap().tail.unwrap().0, "p95");
        let s = summarize(&series(1000)).unwrap();
        assert_eq!(s.tail, Some(("p99", 990.0)));
        assert_eq!(s.p99(), Some(990.0));
        assert_eq!(s.p50, 500.0);
    }

    #[test]
    fn p99_is_absent_below_a_thousand_samples() {
        assert_eq!(summarize(&series(500)).unwrap().p99(), None);
    }

    #[test]
    fn windowed_p99_is_the_median_of_window_p99s() {
        // Five windows of 1000; one holds a stall that lifts its p99 only.
        let mut all: Vec<f64> = Vec::new();
        for w in 0..5 {
            let mut window = series(1000);
            if w == 2 {
                window.iter_mut().for_each(|v| *v += 1e6);
            }
            all.extend(window);
        }
        let cut = windows(&all);
        assert_eq!(cut.len(), WINDOWS);
        assert!(cut.iter().all(|w| w.len() == 1000));
        assert_eq!(windowed_p99(&cut), Some(990.0));
        // A window too short for a p99 leaves no result.
        assert_eq!(windowed_p99(&[series(1000), series(999)]), None);
    }

    #[test]
    fn windows_keep_every_sample() {
        let cut = windows(&series(5003));
        assert_eq!(cut.len(), WINDOWS);
        assert_eq!(cut.iter().map(Vec::len).sum::<usize>(), 5003);
        assert_eq!(windows(&series(3)).len(), 3);
    }

    #[test]
    fn render_names_the_tail_level_and_count() {
        let s = summarize(&series(100)).unwrap();
        assert_eq!(s.render("us"), "p50 50.000 us  p90 90.000 us  (n=100)");
        let short = summarize(&[2.0, 1.0]).unwrap();
        assert_eq!(short.render("s"), "p50 1.000 s  (n=2)");
    }
}
