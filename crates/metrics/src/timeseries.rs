//! Sampled time series — the backbone of every line figure in the paper
//! (Figs. 6–13 all plot quantities against simulated hours).

/// A `(time, value)` series with strictly non-decreasing time stamps.
///
/// Time is stored in seconds; accessors convert to hours because the
/// paper's figures all use hours on the x-axis.
#[derive(Debug, Clone, Default)]
pub struct TimeSeries {
    name: String,
    t_secs: Vec<f64>,
    values: Vec<f64>,
}

impl TimeSeries {
    /// Creates an empty series labelled `name`.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            t_secs: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Series label (used as the CSV column header).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Rebuilds a series from raw parts, as a decoder reads them.
    ///
    /// # Errors
    /// When the vectors disagree in length or the timestamps are NaN or
    /// out of order: [`push`](Self::push) builds no such series, and the
    /// next `push` onto one would panic.
    pub fn from_parts(name: String, t_secs: Vec<f64>, values: Vec<f64>) -> Result<Self, String> {
        if t_secs.len() != values.len() {
            return Err(format!(
                "time series '{name}' has {} timestamps but {} values",
                t_secs.len(),
                values.len()
            ));
        }
        if t_secs.iter().any(|t| t.is_nan()) || !t_secs.is_sorted() {
            return Err(format!("time series '{name}' timestamps out of order"));
        }
        Ok(Self {
            name,
            t_secs,
            values,
        })
    }

    /// Appends a sample at time `t_secs` (seconds).
    ///
    /// # Panics
    /// Panics if `t_secs` is earlier than the previous sample — the
    /// simulator produces samples in event order and a violation here
    /// indicates a kernel bug.
    pub fn push(&mut self, t_secs: f64, value: f64) {
        if let Some(&last) = self.t_secs.last() {
            assert!(
                t_secs >= last,
                "time series '{}' must be pushed in order ({} < {})",
                self.name,
                t_secs,
                last
            );
        }
        self.t_secs.push(t_secs);
        self.values.push(value);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Timestamps in seconds.
    pub fn times_secs(&self) -> &[f64] {
        &self.t_secs
    }

    /// Timestamps converted to hours.
    pub fn times_hours(&self) -> Vec<f64> {
        self.t_secs.iter().map(|t| t / 3600.0).collect()
    }

    /// Recorded values.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Largest recorded value; NaN when empty.
    pub fn max(&self) -> f64 {
        self.values
            .iter()
            .copied()
            .fold(f64::NAN, |a, b| if a.is_nan() || b > a { b } else { a })
    }

    /// Smallest recorded value; NaN when empty.
    pub fn min(&self) -> f64 {
        self.values
            .iter()
            .copied()
            .fold(f64::NAN, |a, b| if a.is_nan() || b < a { b } else { a })
    }

    /// Time-weighted mean of the series (trapezoidal); NaN when fewer
    /// than two samples. This is the right average for quantities like
    /// "number of active servers".
    pub fn time_weighted_mean(&self) -> f64 {
        if self.len() < 2 {
            return f64::NAN;
        }
        let mut area = 0.0;
        let mut span = 0.0;
        for i in 1..self.len() {
            let dt = self.t_secs[i] - self.t_secs[i - 1];
            area += 0.5 * (self.values[i] + self.values[i - 1]) * dt;
            span += dt;
        }
        if span == 0.0 {
            self.values[0]
        } else {
            area / span
        }
    }

    /// Value at time `t_secs` by linear interpolation (clamped at the
    /// ends); NaN when empty.
    pub fn interpolate(&self, t_secs: f64) -> f64 {
        if self.is_empty() {
            return f64::NAN;
        }
        if t_secs <= self.t_secs[0] {
            return self.values[0];
        }
        if t_secs >= *self.t_secs.last().expect("non-empty") {
            return *self.values.last().expect("non-empty");
        }
        let i = self.t_secs.partition_point(|&t| t <= t_secs);
        let (t0, t1) = (self.t_secs[i - 1], self.t_secs[i]);
        let (v0, v1) = (self.values[i - 1], self.values[i]);
        if t1 == t0 {
            v1
        } else {
            v0 + (v1 - v0) * (t_secs - t0) / (t1 - t0)
        }
    }
}

/// A bundle of time series sharing one clock, rendered as a single CSV
/// with a `time_h` column — the exact format the figure binaries print.
#[derive(Debug, Clone, Default)]
pub struct SeriesBundle {
    series: Vec<TimeSeries>,
}

impl SeriesBundle {
    /// Creates an empty bundle.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a series to the bundle.
    pub fn push(&mut self, s: TimeSeries) {
        self.series.push(s);
    }

    /// Contained series.
    pub fn series(&self) -> &[TimeSeries] {
        &self.series
    }

    /// Renders the bundle as CSV keyed by the first series' timestamps.
    ///
    /// All series are expected to share timestamps (the figure runners
    /// sample everything from one `MetricsSample` event); series with
    /// differing clocks are linearly interpolated onto the first one's.
    pub fn to_csv(&self) -> String {
        let Some(first) = self.series.first() else {
            return String::from("time_h\n");
        };
        let mut out = String::from("time_h");
        for s in &self.series {
            out.push(',');
            out.push_str(s.name());
        }
        out.push('\n');
        for (i, &t) in first.times_secs().iter().enumerate() {
            out.push_str(&format!("{:.4}", t / 3600.0));
            for s in &self.series {
                let v = if s.times_secs().len() == first.times_secs().len() {
                    s.values()[i]
                } else {
                    s.interpolate(t)
                };
                out.push_str(&format!(",{v:.6}"));
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_access() {
        let mut ts = TimeSeries::new("load");
        ts.push(0.0, 1.0);
        ts.push(3600.0, 2.0);
        assert_eq!(ts.len(), 2);
        assert_eq!(ts.times_hours(), vec![0.0, 1.0]);
        assert_eq!(ts.max(), 2.0);
        assert_eq!(ts.min(), 1.0);
    }

    #[test]
    #[should_panic(expected = "must be pushed in order")]
    fn rejects_time_travel() {
        let mut ts = TimeSeries::new("x");
        ts.push(10.0, 1.0);
        ts.push(5.0, 2.0);
    }

    #[test]
    fn interpolation() {
        let mut ts = TimeSeries::new("x");
        ts.push(0.0, 0.0);
        ts.push(10.0, 10.0);
        assert_eq!(ts.interpolate(5.0), 5.0);
        assert_eq!(ts.interpolate(-1.0), 0.0);
        assert_eq!(ts.interpolate(99.0), 10.0);
    }

    #[test]
    fn time_weighted_mean_of_step() {
        let mut ts = TimeSeries::new("x");
        ts.push(0.0, 0.0);
        ts.push(10.0, 10.0);
        // trapezoid: mean of a linear ramp = 5
        assert!((ts.time_weighted_mean() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn bundle_csv_shape() {
        let mut a = TimeSeries::new("a");
        let mut b = TimeSeries::new("b");
        a.push(0.0, 1.0);
        a.push(3600.0, 2.0);
        b.push(0.0, 3.0);
        b.push(3600.0, 4.0);
        let mut bundle = SeriesBundle::new();
        bundle.push(a);
        bundle.push(b);
        let csv = bundle.to_csv();
        let mut lines = csv.lines();
        assert_eq!(lines.next(), Some("time_h,a,b"));
        assert!(lines.next().expect("row 0").starts_with("0.0000,1.0"));
        assert!(lines.next().expect("row 1").starts_with("1.0000,2.0"));
    }

    #[test]
    fn empty_bundle_csv() {
        assert_eq!(SeriesBundle::new().to_csv(), "time_h\n");
    }
}
