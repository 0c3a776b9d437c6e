//! Trace characterization — the statistics behind the paper's Figs. 4–5.

use crate::generator::TraceSet;
use ecocloud_metrics::Histogram;

/// Distribution of per-VM *average* CPU utilization, in percent of the
/// reference host (the paper's Fig. 4: x from 0 to 100, bin width
/// `100 / bins`).
pub fn avg_utilization_histogram(set: &TraceSet, bins: usize) -> Histogram {
    let mut h = Histogram::new(0.0, 100.0, bins);
    for vm in &set.vms {
        h.push(vm.measured_mean_frac() * 100.0);
    }
    h
}

/// Calls `f` with `sample − mean` for every sample of every VM, where
/// `mean` is the VM's [`crate::VmTrace::measured_mean_frac`]: one
/// forward pass per trace, buffered so the mean and the deviations
/// read the same replay.
fn for_each_deviation(set: &TraceSet, mut f: impl FnMut(f64)) {
    let mut buf: Vec<f32> = Vec::new();
    for vm in &set.vms {
        buf.clear();
        buf.extend(vm.samples());
        let mean = buf.iter().map(|&s| s as f64).sum::<f64>() / buf.len() as f64;
        for &s in &buf {
            f(s as f64 - mean);
        }
    }
}

/// Distribution of the deviation between punctual and per-VM average
/// utilization, in percentage points (the paper's Fig. 5: x from -40 to
/// +40).
pub fn deviation_histogram(set: &TraceSet, bins: usize) -> Histogram {
    let mut h = Histogram::new(-40.0, 40.0, bins);
    for_each_deviation(set, |d| h.push(d * 100.0));
    h
}

/// Fraction of all deviation samples within ±`points` percentage points
/// of the per-VM mean (the paper reports ≈94 % within ±10).
pub fn fraction_within_deviation(set: &TraceSet, points: f64) -> f64 {
    let mut within = 0u64;
    let mut total = 0u64;
    for_each_deviation(set, |d| {
        if d.abs() * 100.0 <= points {
            within += 1;
        }
        total += 1;
    });
    if total == 0 {
        0.0
    } else {
        within as f64 / total as f64
    }
}

/// Overall load of the trace set relative to a given total capacity, at
/// each trace step — the black reference dots of the paper's Fig. 6.
pub fn overall_load_series(set: &TraceSet, total_capacity_mhz: f64) -> Vec<(f64, f64)> {
    set.total_demand_series_mhz()
        .into_iter()
        .enumerate()
        .map(|(k, total)| {
            let t = (k as u64 * set.config.step_secs) as f64;
            (t, total / total_capacity_mhz)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TraceConfig;

    fn set() -> TraceSet {
        TraceSet::generate(TraceConfig {
            n_vms: 500,
            duration_secs: 24 * 3600,
            ..TraceConfig::small(17)
        })
    }

    #[test]
    fn fig4_mass_is_below_20_percent() {
        let s = set();
        let h = avg_utilization_histogram(&s, 40);
        assert_eq!(h.total(), 500);
        let below20 = h.fraction_below(20.0);
        assert!(below20 > 0.85, "only {below20} below 20 %");
        // Mode is in the lowest bins, as in Fig. 4.
        let freqs = h.frequencies();
        let (max_center, _) = freqs
            .iter()
            .copied()
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .expect("non-empty");
        assert!(
            max_center < 10.0,
            "mode at {max_center}% — Fig. 4 peaks low"
        );
    }

    #[test]
    fn fig5_deviations_concentrate_near_zero() {
        let s = set();
        let within10 = fraction_within_deviation(&s, 10.0);
        assert!(
            within10 > 0.88,
            "deviations too wide: {within10} within ±10 points (paper: ≈0.94)"
        );
        let h = deviation_histogram(&s, 80);
        // The central bins hold the mode.
        let freqs = h.frequencies();
        let (center, _) = freqs
            .iter()
            .copied()
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .expect("non-empty");
        assert!(center.abs() < 5.0, "deviation mode at {center}");
    }

    #[test]
    fn overall_load_series_has_diurnal_shape() {
        let s = set();
        let capacity = 100.0 * 12_000.0;
        let series = overall_load_series(&s, capacity);
        assert_eq!(series.len(), s.config.steps());
        let at = |hour: f64| {
            series
                .iter()
                .min_by(|a, b| {
                    (a.0 - hour * 3600.0)
                        .abs()
                        .total_cmp(&(b.0 - hour * 3600.0).abs())
                })
                .expect("non-empty")
                .1
        };
        assert!(at(15.0) > at(3.0), "no diurnal pattern in overall load");
    }

    #[test]
    fn deviation_fraction_is_monotone_in_width() {
        let s = set();
        let a = fraction_within_deviation(&s, 5.0);
        let b = fraction_within_deviation(&s, 10.0);
        let c = fraction_within_deviation(&s, 40.0);
        assert!(a <= b && b <= c);
        assert!(c > 0.999);
    }
}
