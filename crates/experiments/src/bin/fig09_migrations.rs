//! Fig. 9 — low and high migrations per hour, with cross-seed
//! mean ±95 % CI columns from the replication ensemble.

use ecocloud::sweep::PolicySpec;
use ecocloud_experiments::figures::{hourly_rows, Which};
use ecocloud_experiments::gnuplot::{emit_gnuplot, SeriesSpec};
use ecocloud_experiments::{emit, ensemble_48h, run_48h_ecocloud, seed, spark};

fn main() {
    let res = run_48h_ecocloud(seed());
    let agg = ensemble_48h(PolicySpec::EcoCloud);
    println!("# Fig. 9: migrations per hour, 48 h, ecoCloud\n");
    let low = hourly_rows(&res, Which::LowMigrations);
    let high = hourly_rows(&res, Which::HighMigrations);
    spark(
        "low migrations/h",
        &low.iter().map(|&(_, c)| c as f64).collect::<Vec<_>>(),
    );
    spark(
        "high migrations/h",
        &high.iter().map(|&(_, c)| c as f64).collect::<Vec<_>>(),
    );
    let total_max = low
        .iter()
        .zip(&high)
        .map(|(&(_, l), &(_, h))| l + h)
        .max()
        .unwrap_or(0);
    println!(
        "\ntotals: {} low, {} high; busiest hour {} migrations (paper: always < 200/h)",
        res.summary.total_low_migrations, res.summary.total_high_migrations, total_max
    );
    println!();
    let low_band = agg.hourly("low_migrations").expect("ensemble hourly");
    let high_band = agg.hourly("high_migrations").expect("ensemble hourly");
    let mut csv = String::from("hour,low,high,low_mean,low_ci95,high_mean,high_ci95\n");
    for (i, (&(h, l), &(_, hi))) in low.iter().zip(&high).enumerate() {
        let (lm, lc, hm, hc) = match (low_band.get(i), high_band.get(i)) {
            (Some(lb), Some(hb)) => (
                lb.mean(),
                lb.ci95_half_width(),
                hb.mean(),
                hb.ci95_half_width(),
            ),
            _ => (l as f64, 0.0, hi as f64, 0.0),
        };
        csv.push_str(&format!("{h},{l},{hi},{lm:.2},{lc:.2},{hm:.2},{hc:.2}\n"));
    }
    emit("fig09_migrations.csv", &csv);
    emit_gnuplot(
        "fig09_migrations",
        "Fig. 9: low and high migrations per hour",
        "hour",
        "migrations per hour",
        "fig09_migrations.csv",
        &[
            SeriesSpec::lines(2, "low migrations"),
            SeriesSpec::lines(3, "high migrations"),
            SeriesSpec::lines(4, "low (ensemble mean)"),
            SeriesSpec::lines(6, "high (ensemble mean)"),
        ],
    );
}
