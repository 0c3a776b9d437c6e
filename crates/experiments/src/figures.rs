//! Helpers shared by several figure binaries.

use ecocloud::dcsim::SimResult;

/// Percentile summary of the *powered* servers' utilizations at each
/// metrics sample — the readable form of the paper's per-server
/// scatter plots (Figs. 6 and 12).
///
/// Returns rows `(time_h, p10, p50, p90, max, overall_load)`.
pub fn utilization_percentiles(res: &SimResult) -> Vec<(f64, f64, f64, f64, f64, f64)> {
    let loads = res.stats.overall_load.values();
    res.stats
        .server_utilization
        .iter()
        .enumerate()
        .map(|(i, (t, us))| {
            let mut powered: Vec<f64> = us.iter().map(|&u| u as f64).filter(|&u| u > 0.0).collect();
            powered.sort_by(|a, b| a.total_cmp(b));
            let q = |f: f64| -> f64 {
                if powered.is_empty() {
                    0.0
                } else {
                    let idx = ((powered.len() as f64 - 1.0) * f).round() as usize;
                    powered[idx]
                }
            };
            let load = loads.get(i).copied().unwrap_or(f64::NAN);
            (t / 3600.0, q(0.10), q(0.50), q(0.90), q(1.0), load)
        })
        .collect()
}

/// Full per-server utilization matrix as CSV (one row per sample, one
/// column per server) — the raw data behind the scatter figures.
pub fn utilization_matrix_csv(res: &SimResult) -> String {
    let n = res
        .stats
        .server_utilization
        .first()
        .map(|(_, u)| u.len())
        .unwrap_or(0);
    let mut s = String::from("time_h");
    for i in 0..n {
        s.push_str(&format!(",s{i}"));
    }
    s.push('\n');
    for (t, us) in &res.stats.server_utilization {
        s.push_str(&format!("{:.4}", t / 3600.0));
        for &u in us {
            s.push_str(&format!(",{u:.4}"));
        }
        s.push('\n');
    }
    s
}

/// `(hour, count)` rows of an hourly counter padded to the run length.
pub fn hourly_rows(res: &SimResult, which: Which) -> Vec<(usize, u64)> {
    let hours = (res
        .stats
        .overall_load
        .times_secs()
        .last()
        .copied()
        .unwrap_or(0.0)
        / 3600.0)
        .ceil() as usize;
    let counter = match which {
        Which::LowMigrations => &res.stats.low_migrations,
        Which::HighMigrations => &res.stats.high_migrations,
        Which::Activations => &res.stats.activations,
        Which::Hibernations => &res.stats.hibernations,
    };
    counter.per_hour(hours.max(1))
}

/// Selector for [`hourly_rows`].
#[derive(Debug, Clone, Copy)]
pub enum Which {
    /// Fig. 9, "low migrations" series.
    LowMigrations,
    /// Fig. 9, "high migrations" series.
    HighMigrations,
    /// Fig. 10, "activations" series.
    Activations,
    /// Fig. 10, "hibernations" series.
    Hibernations,
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecocloud::prelude::*;

    fn tiny_result() -> SimResult {
        let traces = TraceConfig {
            n_vms: 40,
            duration_secs: 2 * 3600,
            ..TraceConfig::small(5)
        };
        Scenario::closed_system(Fleet::thirds(12), traces).run(EcoCloudPolicy::paper(5))
    }

    #[test]
    fn percentiles_are_ordered_and_match_load_column() {
        let res = tiny_result();
        let rows = utilization_percentiles(&res);
        assert_eq!(rows.len(), res.stats.overall_load.len());
        for (t, p10, p50, p90, max, load) in rows {
            assert!(t >= 0.0);
            assert!(p10 <= p50 + 1e-9 && p50 <= p90 + 1e-9 && p90 <= max + 1e-9);
            assert!((0.0..=1.5).contains(&load));
        }
    }

    #[test]
    fn matrix_csv_has_one_column_per_server() {
        let res = tiny_result();
        let csv = utilization_matrix_csv(&res);
        let mut lines = csv.lines();
        let header = lines.next().expect("header");
        assert_eq!(header.split(',').count(), 13); // time_h + 12 servers
        for line in lines {
            assert_eq!(line.split(',').count(), 13);
        }
    }

    #[test]
    fn hourly_rows_cover_run_duration() {
        let res = tiny_result();
        for which in [
            Which::LowMigrations,
            Which::HighMigrations,
            Which::Activations,
            Which::Hibernations,
        ] {
            let rows = hourly_rows(&res, which);
            assert!(rows.len() >= 2, "2-hour run must yield >= 2 hourly rows");
            for (i, (h, _)) in rows.iter().enumerate() {
                assert_eq!(*h, i);
            }
        }
    }
}
