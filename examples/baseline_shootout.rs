//! Compare ecoCloud against the centralized baselines on the same
//! workload: Best Fit (+ double-threshold migration), First Fit and
//! uniform Random placement.
//!
//! ```sh
//! cargo run --release --example baseline_shootout
//! ```

use ecocloud::metrics::table::fmt_num;
use ecocloud::metrics::Table;
use ecocloud::prelude::*;

fn main() {
    let seed: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(42);

    // A mid-size scenario so the example finishes in seconds.
    let scenario = Scenario::closed_system(
        Fleet::thirds(100),
        TraceConfig {
            n_vms: 1500,
            duration_secs: 24 * 3600,
            ..TraceConfig::paper_48h(seed)
        },
    );

    let mut table = Table::new([
        "policy",
        "mean servers",
        "energy kWh",
        "migrations",
        "switches",
        "worst overdemand %",
    ]);
    let mut row = |result: SimResult| {
        let s = result.summary;
        table.push_row([
            result.policy_name.clone(),
            fmt_num(s.mean_active_servers, 1),
            fmt_num(s.energy_kwh, 1),
            format!("{}", s.total_low_migrations + s.total_high_migrations),
            format!("{}", s.total_activations + s.total_hibernations),
            fmt_num(s.max_overdemand_pct, 3),
        ]);
    };

    eprintln!("running four policies on the identical workload ...");
    row(scenario.run(EcoCloudPolicy::paper(seed)));
    row(scenario.run(BestFitPolicy::paper()));
    row(scenario.run(FirstFitPolicy::paper()));
    row(scenario.run(RandomPolicy::new(0.9, seed)));

    println!("\n== policy shoot-out, identical 24 h workload (seed {seed}) ==\n");
    println!("{}", table.render());
    println!("ecoCloud consolidates like Best Fit while issuing an order of magnitude");
    println!("fewer migrations — the paper's §V argument against deterministic");
    println!("threshold controllers. First Fit and Random carry no migration");
    println!("controller at all: their placement is frozen at midnight demand, so the");
    println!("daytime ramp drives them into permanent over-demand — relocation, not");
    println!("just clever initial placement, is what survives a diurnal cycle.");
}
