//! The real-data path end-to-end: write a demo directory in the public
//! PlanetLab trace layout (one file per VM, one CPU percentage per
//! line), import it, characterize it, and drive a simulation with it.
//!
//! With the actual `planetlab-workload-traces` dataset on disk, point
//! `import_dir` at one of its day directories instead of the demo
//! directory and everything downstream is identical.
//!
//! ```sh
//! cargo run --release --example real_traces
//! ```

use ecocloud::prelude::*;
use ecocloud::traces::planetlab;
use ecocloud::traces::stats::{avg_utilization_histogram, fraction_within_deviation};
use std::fs;
use std::path::PathBuf;

fn main() -> std::io::Result<()> {
    // 1. Fabricate a day directory in the PlanetLab format from the
    //    synthetic generator (a stand-in for the real dataset).
    let dir = PathBuf::from("out/planetlab_demo_day");
    fs::create_dir_all(&dir)?;
    let synthetic = TraceSet::generate(TraceConfig {
        n_vms: 300,
        duration_secs: 24 * 3600,
        ..TraceConfig::paper_48h(7)
    });
    for (i, vm) in synthetic.vms.iter().enumerate() {
        let content: String = vm
            .samples()
            .map(|s| format!("{}\n", ((s as f64) * 100.0).round() as u32))
            .collect();
        fs::write(dir.join(format!("vm_{i:04}")), content)?;
    }
    println!("wrote {} trace files to {}", synthetic.len(), dir.display());

    // 2. Import the directory exactly as one would import real data.
    let imported = planetlab::import_dir(&dir, 300)?;
    println!(
        "imported {} VMs x {} samples",
        imported.len(),
        imported.config.steps()
    );

    // 3. Characterize (the paper's Figs. 4–5 statistics).
    let h = avg_utilization_histogram(&imported, 40);
    println!(
        "avg utilization: median {:.1} %, below 20 %: {:.1} % of VMs",
        h.quantile(0.5),
        100.0 * h.fraction_below(20.0)
    );
    println!(
        "deviations within ±10 points: {:.1} % of samples",
        100.0 * fraction_within_deviation(&imported, 10.0)
    );

    // 4. Drive a simulation with the imported traces.
    let mut config = SimConfig::paper_48h(7);
    config.duration_secs = 24.0 * 3600.0;
    let scenario = Scenario {
        fleet: Fleet::thirds(20),
        workload: Workload::all_vms_from_start(imported),
        config,
    };
    let result = scenario.run(EcoCloudPolicy::paper(7));
    println!(
        "\nsimulation on imported traces: {:.1} mean active servers, {:.2} kWh, {} migrations",
        result.summary.mean_active_servers,
        result.summary.energy_kwh,
        result.summary.total_low_migrations + result.summary.total_high_migrations
    );
    Ok(())
}
