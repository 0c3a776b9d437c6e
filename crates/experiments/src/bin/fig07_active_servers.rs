//! Fig. 7 — number of active servers during two consecutive days.
//!
//! The displayed curve is the `ECOCLOUD_SEED` run; the extra CSV
//! columns carry the cross-seed mean ±95 % CI over the
//! `ECOCLOUD_REPLICAS` ensemble, so the band separates the diurnal
//! signal from seed-to-seed noise.

use ecocloud::sweep::PolicySpec;
use ecocloud_experiments::gnuplot::{emit_gnuplot, SeriesSpec};
use ecocloud_experiments::{
    emit, ensemble_48h, run_48h_ecocloud, seed, series_with_band_csv, spark,
};

fn main() {
    let res = run_48h_ecocloud(seed());
    let agg = ensemble_48h(PolicySpec::EcoCloud);
    println!("# Fig. 7: active servers, 48 h, ecoCloud\n");
    let v = res.stats.active_servers.values();
    spark("active servers", v);
    spark("overall load (reference)", res.stats.overall_load.values());
    let band = agg.series("active_servers").expect("ensemble series");
    println!(
        "\nmin {:.0}, max {:.0}, time-weighted mean {:.1}; ensemble mean of means {:.1} over {} seeds",
        res.stats.active_servers.min(),
        res.stats.active_servers.max(),
        res.stats.active_servers.time_weighted_mean(),
        agg.metric("mean_active_servers")
            .expect("ensemble metric")
            .mean(),
        band.replications()
    );
    println!();
    emit(
        "fig07_active_servers.csv",
        &series_with_band_csv("active_servers", &res.stats.active_servers, band),
    );
    emit_gnuplot(
        "fig07_active_servers",
        "Fig. 7: number of active servers",
        "time (hours)",
        "active servers",
        "fig07_active_servers.csv",
        &[
            SeriesSpec::lines(2, "active servers (one seed)"),
            SeriesSpec::lines(3, "ensemble mean"),
        ],
    );
}
