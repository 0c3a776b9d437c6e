//! Fig. 10 — server activations and hibernations per hour, with
//! cross-seed mean ±95 % CI columns from the replication ensemble.

use ecocloud::sweep::PolicySpec;
use ecocloud_experiments::figures::{hourly_rows, Which};
use ecocloud_experiments::gnuplot::{emit_gnuplot, SeriesSpec};
use ecocloud_experiments::{emit, ensemble_48h, run_48h_ecocloud, seed, spark};

fn main() {
    let res = run_48h_ecocloud(seed());
    let agg = ensemble_48h(PolicySpec::EcoCloud);
    println!("# Fig. 10: server switches per hour, 48 h, ecoCloud\n");
    let on = hourly_rows(&res, Which::Activations);
    let off = hourly_rows(&res, Which::Hibernations);
    spark(
        "activations/h",
        &on.iter().map(|&(_, c)| c as f64).collect::<Vec<_>>(),
    );
    spark(
        "hibernations/h",
        &off.iter().map(|&(_, c)| c as f64).collect::<Vec<_>>(),
    );
    println!(
        "\ntotals: {} activations, {} hibernations",
        res.summary.total_activations, res.summary.total_hibernations
    );
    println!();
    let on_band = agg.hourly("activations").expect("ensemble hourly");
    let off_band = agg.hourly("hibernations").expect("ensemble hourly");
    let mut csv =
        String::from("hour,activations,hibernations,act_mean,act_ci95,hib_mean,hib_ci95\n");
    for (i, (&(h, a), &(_, b))) in on.iter().zip(&off).enumerate() {
        let (am, ac, hm, hc) = match (on_band.get(i), off_band.get(i)) {
            (Some(ab), Some(hb)) => (
                ab.mean(),
                ab.ci95_half_width(),
                hb.mean(),
                hb.ci95_half_width(),
            ),
            _ => (a as f64, 0.0, b as f64, 0.0),
        };
        csv.push_str(&format!("{h},{a},{b},{am:.2},{ac:.2},{hm:.2},{hc:.2}\n"));
    }
    emit("fig10_switches.csv", &csv);
    emit_gnuplot(
        "fig10_switches",
        "Fig. 10: server switches per hour",
        "hour",
        "switches per hour",
        "fig10_switches.csv",
        &[
            SeriesSpec::lines(2, "activations"),
            SeriesSpec::lines(3, "hibernations"),
            SeriesSpec::lines(4, "activations (ensemble mean)"),
            SeriesSpec::lines(6, "hibernations (ensemble mean)"),
        ],
    );
}
