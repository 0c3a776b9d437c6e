//! Stability analysis of the assignment procedure (an extension of the
//! paper's §IV): the symmetric spread state is unstable — ecoCloud
//! consolidates — exactly below the mean utilization
//! `T_a (p − 1)/p`. This binary sweeps the symmetric utilization and
//! compares the closed-form growth rate `σ = μ (p − ū/(T_a−ū) − 1)`
//! against the rate measured by perturbing the actual fluid ODE.

use ecocloud::analytic::equilibrium::{
    consolidation_threshold, instability_indicator, measure_growth_rate,
};
use ecocloud::core::{AssignmentFunction, EcoCloudPolicy};
use ecocloud::metrics::table::fmt_num;
use ecocloud::metrics::Table;
use ecocloud::prelude::*;
use ecocloud::traces::arrivals::ArrivalProcess;
use ecocloud::traces::generator::VmTrace;
use ecocloud::traces::profile::VmProfile;
use ecocloud_experiments::emit;

/// Runs the *discrete simulator* at a pinned symmetric utilization:
/// constant-demand VMs, churn with a fixed mean population, spread
/// start, migrations inhibited (the fluid model has none). Returns the
/// fraction of servers still powered at the end — ≈1 when the spread
/// state is stable, well below 1 when consolidation breaks it.
fn sim_final_active_fraction(u_bar: f64, seed: u64) -> f64 {
    let n_servers = 20;
    let w_frac = 0.02; // one VM = 2 % of a 6-core server
    let vms_per_server = (u_bar / w_frac).round() as usize;
    let population = n_servers * vms_per_server;
    let hours = 12u64;
    let steps = (hours * 3600 / 300) as usize;
    // Hand-built constant workload: no demand noise, no diurnal — the
    // pure dynamics the analysis describes.
    let traces = TraceSet {
        config: TraceConfig {
            n_vms: population,
            duration_secs: hours * 3600,
            step_secs: 300,
            seed,
            mixture: Default::default(),
            envelope: DiurnalEnvelope::flat(),
        },
        vms: (0..population)
            .map(|_| VmTrace::recorded(VmProfile::constant(w_frac), vec![w_frac as f32; steps]))
            .collect(),
    };
    let lifetime = 3600.0;
    let process = ArrivalProcess {
        base_rate_per_sec: population as f64 / lifetime,
        envelope: DiurnalEnvelope::flat(),
        mean_lifetime_secs: lifetime,
    };
    let mut config = SimConfig::paper_fig12(seed);
    config.duration_secs = (hours * 3600) as f64;
    config.record_server_utilization = false;
    let workload = Workload::churn(traces, population, &process, config.duration_secs, seed);
    let scenario = Scenario {
        fleet: Fleet::uniform(n_servers, 6),
        workload,
        config,
    };
    let res = scenario.run(EcoCloudPolicy::paper(seed));
    let final_active = *res.stats.active_servers.values().last().expect("samples");
    final_active / n_servers as f64
}

fn main() {
    println!("# Symmetry-breaking analysis of the assignment procedure\n");
    for p in [2.0, 3.0, 5.0] {
        let fa = AssignmentFunction::new(0.9, p);
        println!(
            "p = {p}: consolidation threshold u < {:.3}",
            consolidation_threshold(&fa)
        );
    }
    println!();

    let fa = AssignmentFunction::paper();
    let mu = 1.0 / 3600.0;
    let n = 12;
    let w = 0.02;
    let u_bars: Vec<f64> = (1..=8).map(|k| 0.1 * k as f64).collect();
    let rows: Vec<_> = u_bars
        .iter()
        .map(|&u_bar| {
            let lambda = u_bar * n as f64 * mu / w;
            let measured = measure_growth_rate(fa, lambda, mu, w, n, 2.0 * 3600.0);
            let predicted = mu * instability_indicator(&fa, u_bar);
            (u_bar, predicted, measured)
        })
        .collect();

    let mut t = Table::new([
        "mean util",
        "predicted rate (1/h)",
        "measured rate (1/h)",
        "verdict",
    ]);
    for (u, pred, meas) in &rows {
        t.push_row([
            fmt_num(*u, 2),
            fmt_num(pred * 3600.0, 3),
            fmt_num(meas * 3600.0, 3),
            if *pred > 0.0 {
                "consolidates"
            } else {
                "stays spread"
            }
            .to_string(),
        ]);
    }
    println!("{}", t.render());

    // Cross-check against the *discrete* simulator: churn at a pinned
    // symmetric utilization, migrations off, constant-demand VMs.
    let sim_points = [0.2, 0.4, 0.7, 0.8];
    let sim_rows: Vec<_> = sim_points
        .iter()
        .map(|&u| (u, sim_final_active_fraction(u, 42)))
        .collect();
    let mut t2 = Table::new(["mean util", "servers still active after 12 h", "prediction"]);
    for (u, frac) in &sim_rows {
        t2.push_row([
            fmt_num(*u, 2),
            format!("{} %", fmt_num(100.0 * frac, 0)),
            if *u < 0.6 {
                "consolidates"
            } else {
                "stays spread"
            }
            .to_string(),
        ]);
    }
    println!("discrete-simulator cross-check (20 servers, constant-demand churn):\n");
    println!("{}", t2.render());
    emit("analysis_stability_sim.csv", &t2.to_csv());

    println!("The sign flips at ū = 0.6 = T_a(p−1)/p for the paper's T_a = 0.9, p = 3:");
    println!("below it, rich-get-richer dynamics empty the weakest servers; above it");
    println!("the decreasing branch of f_a actively re-balances the fleet. This is the");
    println!("regime boundary separating the paper's Fig. 12 consolidation phase from");
    println!("the spread steady states that churn-heavy workloads settle into.");
    emit("analysis_stability.csv", &t.to_csv());
}
