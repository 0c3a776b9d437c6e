//! Cross-replication statistics: mean, standard deviation and
//! Student-t 95 % confidence intervals over independent simulation
//! runs.
//!
//! The paper's §V tables report averages over repeated runs with
//! confidence intervals; this module is the aggregation layer behind
//! the repo's replication engine (`ecocloud::sweep`). Two shapes are
//! covered:
//!
//! * [`Replication`] — one scalar metric (energy, mean active servers,
//!   a counter) observed once per replication;
//! * [`EnsembleSeries`] — one [`TimeSeries`] per replication sharing a
//!   sampling clock, reduced point-wise to mean / CI bands.
//!
//! Both support a batch [`Replication::merge`] /
//! [`EnsembleSeries::merge`], so partial aggregates computed by
//! independent workers can be combined. The merge delegates to
//! [`StreamingStats::merge`], which is exact in `count`/`min`/`max`
//! and agrees with sequential accumulation to floating-point rounding
//! in `mean`/`variance`; deterministic pipelines should therefore
//! merge in a fixed (seed) order, never completion order.

use crate::{StreamingStats, TimeSeries};

/// Two-sided Student-t critical value at the 95 % confidence level for
/// `df` degrees of freedom.
///
/// Exact table values for `df <= 30`, the standard coarse table rungs
/// up to 120, and the normal limit 1.960 beyond; `df = 0` (fewer than
/// two replications) yields `+inf`, which makes the half-width of an
/// undetermined interval infinite rather than deceptively zero.
pub fn t_critical_95(df: u64) -> f64 {
    // Values of t_{0.975, df} (two-sided 95 %).
    const TABLE: [f64; 30] = [
        12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179, 2.160,
        2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056,
        2.052, 2.048, 2.045, 2.042,
    ];
    match df {
        0 => f64::INFINITY,
        1..=30 => TABLE[(df - 1) as usize],
        31..=40 => 2.021,
        41..=60 => 2.000,
        61..=120 => 1.980,
        _ => 1.960,
    }
}

/// One scalar metric observed across independent replications.
///
/// ```
/// use ecocloud_metrics::replication::Replication;
/// let mut r = Replication::new();
/// for x in [10.0, 12.0, 11.0, 9.0] {
///     r.push(x);
/// }
/// assert_eq!(r.count(), 4);
/// assert_eq!(r.mean(), 10.5);
/// // half-width = t_{0.975,3} * s / sqrt(4)
/// assert!((r.ci95_half_width() - 3.182 * r.std_dev() / 2.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Replication {
    stats: StreamingStats,
}

impl Replication {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Accumulates every value of a slice.
    pub fn from_samples(xs: &[f64]) -> Self {
        let mut r = Self::new();
        for &x in xs {
            r.push(x);
        }
        r
    }

    /// Ingests one replication's observation.
    pub fn push(&mut self, x: f64) {
        self.stats.push(x);
    }

    /// Number of replications observed.
    pub fn count(&self) -> u64 {
        self.stats.count()
    }

    /// Mean across replications; 0 when empty.
    pub fn mean(&self) -> f64 {
        self.stats.mean()
    }

    /// Sample standard deviation across replications.
    pub fn std_dev(&self) -> f64 {
        self.stats.std_dev()
    }

    /// Smallest observation; `+inf` when empty.
    pub fn min(&self) -> f64 {
        self.stats.min()
    }

    /// Largest observation; `-inf` when empty.
    pub fn max(&self) -> f64 {
        self.stats.max()
    }

    /// Half-width of the two-sided Student-t 95 % confidence interval
    /// for the mean: `t_{0.975, n-1} * s / sqrt(n)`.
    ///
    /// 0 when fewer than two replications and the spread is undefined
    /// but so is any variance — a single run carries no interval; use
    /// [`Self::count`] to tell "tight" from "unknown".
    pub fn ci95_half_width(&self) -> f64 {
        let n = self.stats.count();
        if n < 2 {
            return 0.0;
        }
        t_critical_95(n - 1) * self.stats.std_dev() / (n as f64).sqrt()
    }

    /// Batch merge: equivalent (up to floating-point rounding) to
    /// having pushed all of `other`'s observations into `self`.
    pub fn merge(&mut self, other: &Replication) {
        self.stats.merge(&other.stats);
    }
}

/// Point-wise statistics over replicated [`TimeSeries`] sharing one
/// sampling clock (the simulator's metrics interval).
///
/// The first pushed series defines the clock; subsequent series must
/// have identical timestamps — replications of the same scenario
/// always do, and anything else indicates the caller mixed scenarios.
#[derive(Debug, Clone)]
pub struct EnsembleSeries {
    name: String,
    t_secs: Vec<f64>,
    points: Vec<StreamingStats>,
    replications: u64,
}

impl EnsembleSeries {
    /// Creates an empty ensemble labelled `name`.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            t_secs: Vec::new(),
            points: Vec::new(),
            replications: 0,
        }
    }

    /// Ensemble label (used as the CSV column prefix).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of series folded in so far.
    pub fn replications(&self) -> u64 {
        self.replications
    }

    /// Shared timestamps, seconds; empty until the first push.
    pub fn times_secs(&self) -> &[f64] {
        &self.t_secs
    }

    /// Folds one replication's series into the ensemble.
    ///
    /// # Panics
    /// Panics when the series' clock does not match the clock
    /// established by the first push — replications of one scenario
    /// share the metrics interval, so a mismatch means the caller is
    /// aggregating across different scenarios.
    pub fn push_series(&mut self, series: &TimeSeries) {
        if self.replications == 0 {
            self.t_secs = series.times_secs().to_vec();
            self.points = vec![StreamingStats::new(); self.t_secs.len()];
        } else {
            assert_eq!(
                self.t_secs,
                series.times_secs(),
                "ensemble '{}': replication clock mismatch",
                self.name
            );
        }
        for (p, &v) in self.points.iter_mut().zip(series.values()) {
            p.push(v);
        }
        self.replications += 1;
    }

    /// Batch merge of two partial ensembles over the same clock.
    pub fn merge(&mut self, other: &EnsembleSeries) {
        if other.replications == 0 {
            return;
        }
        if self.replications == 0 {
            *self = other.clone();
            return;
        }
        assert_eq!(
            self.t_secs, other.t_secs,
            "ensemble '{}': merge clock mismatch",
            self.name
        );
        for (p, q) in self.points.iter_mut().zip(&other.points) {
            p.merge(q);
        }
        self.replications += other.replications;
    }

    /// Point-wise mean as a [`TimeSeries`] named `<name>_mean`.
    pub fn mean_series(&self) -> TimeSeries {
        self.map_series("_mean", StreamingStats::mean)
    }

    /// Point-wise Student-t 95 % half-width as a [`TimeSeries`] named
    /// `<name>_ci95`.
    pub fn ci95_series(&self) -> TimeSeries {
        self.map_series("_ci95", |p| {
            let n = p.count();
            if n < 2 {
                0.0
            } else {
                t_critical_95(n - 1) * p.std_dev() / (n as f64).sqrt()
            }
        })
    }

    fn map_series(&self, suffix: &str, f: impl Fn(&StreamingStats) -> f64) -> TimeSeries {
        let mut out = TimeSeries::new(format!("{}{}", self.name, suffix));
        for (&t, p) in self.t_secs.iter().zip(&self.points) {
            out.push(t, f(p));
        }
        out
    }

    /// CSV with `time_h,<name>_mean,<name>_ci95,<name>_min,<name>_max`
    /// columns — the band a figure plots around the replicated series.
    pub fn to_csv(&self) -> String {
        let mut s = format!("time_h,{n}_mean,{n}_ci95,{n}_min,{n}_max\n", n = self.name);
        let mean = self.mean_series();
        let ci = self.ci95_series();
        for (i, &t) in self.t_secs.iter().enumerate() {
            s.push_str(&format!(
                "{:.4},{:.6},{:.6},{:.6},{:.6}\n",
                t / 3600.0,
                mean.values()[i],
                ci.values()[i],
                self.points[i].min(),
                self.points[i].max(),
            ));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn t_table_pins_and_monotonicity() {
        assert!(t_critical_95(0).is_infinite());
        assert_eq!(t_critical_95(1), 12.706);
        assert_eq!(t_critical_95(9), 2.262); // the 10-replication row
        assert_eq!(t_critical_95(30), 2.042);
        assert_eq!(t_critical_95(1_000_000), 1.960);
        let mut prev = t_critical_95(1);
        for df in 2..200 {
            let t = t_critical_95(df);
            assert!(t <= prev, "t table must be non-increasing at df={df}");
            assert!(t >= 1.959, "t must stay above the normal limit");
            prev = t;
        }
    }

    #[test]
    fn replication_interval_matches_hand_computation() {
        // Five replications with known mean 3 and sample sd 1.5811…
        let r = Replication::from_samples(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(r.count(), 5);
        assert_eq!(r.mean(), 3.0);
        assert_eq!(r.min(), 1.0);
        assert_eq!(r.max(), 5.0);
        let sd = (2.5f64).sqrt();
        assert!((r.std_dev() - sd).abs() < 1e-12);
        let expect = 2.776 * sd / (5.0f64).sqrt();
        assert!((r.ci95_half_width() - expect).abs() < 1e-12);
    }

    #[test]
    fn single_replication_has_zero_width() {
        let r = Replication::from_samples(&[7.0]);
        assert_eq!(r.ci95_half_width(), 0.0);
        assert_eq!(Replication::new().ci95_half_width(), 0.0);
    }

    #[test]
    fn replication_merge_equals_sequential() {
        let xs: Vec<f64> = (0..40).map(|i| (i as f64 * 0.7).cos() * 5.0).collect();
        let whole = Replication::from_samples(&xs);
        let mut a = Replication::from_samples(&xs[..17]);
        let b = Replication::from_samples(&xs[17..]);
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-12);
        assert!((a.ci95_half_width() - whole.ci95_half_width()).abs() < 1e-12);
    }

    fn series(name: &str, vals: &[f64]) -> TimeSeries {
        let mut s = TimeSeries::new(name);
        for (i, &v) in vals.iter().enumerate() {
            s.push(i as f64 * 1800.0, v);
        }
        s
    }

    #[test]
    fn ensemble_mean_and_ci_bands() {
        let mut e = EnsembleSeries::new("active");
        e.push_series(&series("a", &[10.0, 20.0]));
        e.push_series(&series("b", &[14.0, 24.0]));
        e.push_series(&series("c", &[12.0, 22.0]));
        assert_eq!(e.replications(), 3);
        let mean = e.mean_series();
        assert_eq!(mean.name(), "active_mean");
        assert_eq!(mean.values(), &[12.0, 22.0]);
        // sd = 2 at both points; hw = t_{0.975,2} * 2 / sqrt(3)
        let hw = 4.303 * 2.0 / (3.0f64).sqrt();
        for &v in e.ci95_series().values() {
            assert!((v - hw).abs() < 1e-9);
        }
        let csv = e.to_csv();
        assert!(csv.starts_with("time_h,active_mean,active_ci95,active_min,active_max\n"));
        assert_eq!(csv.lines().count(), 3);
    }

    #[test]
    fn ensemble_merge_equals_sequential() {
        let runs: Vec<Vec<f64>> = (0..6)
            .map(|r| (0..4).map(|i| (r * 4 + i) as f64).collect())
            .collect();
        let mut whole = EnsembleSeries::new("x");
        for r in &runs {
            whole.push_series(&series("s", r));
        }
        let mut a = EnsembleSeries::new("x");
        let mut b = EnsembleSeries::new("x");
        for r in &runs[..2] {
            a.push_series(&series("s", r));
        }
        for r in &runs[2..] {
            b.push_series(&series("s", r));
        }
        a.merge(&b);
        assert_eq!(a.replications(), whole.replications());
        assert_eq!(a.to_csv(), whole.to_csv());
        // Merging an empty ensemble is the identity in either direction.
        let mut empty = EnsembleSeries::new("x");
        empty.merge(&whole);
        assert_eq!(empty.to_csv(), whole.to_csv());
    }

    #[test]
    #[should_panic(expected = "clock mismatch")]
    fn ensemble_rejects_mixed_clocks() {
        let mut e = EnsembleSeries::new("x");
        e.push_series(&series("a", &[1.0, 2.0]));
        let mut other = TimeSeries::new("b");
        other.push(0.0, 1.0);
        other.push(900.0, 2.0); // different interval
        e.push_series(&other);
    }
}
