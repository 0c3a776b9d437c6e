//! Shared infrastructure for the figure/table regeneration binaries.
//!
//! Every binary in `src/bin/` regenerates one figure or table of the
//! paper: it prints the series as CSV to stdout (and to a file under
//! `out/`), plus a terminal sparkline so the qualitative shape is
//! visible without plotting. Ensemble runs are cached under
//! `out/cache/`, content-addressed by a stable hash of the full run
//! specification ([`ecocloud::sweep::RunSpec`]) — changing the seed,
//! the scenario dimensions or the crate version changes the file name,
//! so stale artifacts are never picked up and never need manual
//! deletion. The Fig. 7–11 / claims-table binaries report mean ±95 %
//! confidence intervals across an `ECOCLOUD_REPLICAS`-seed ensemble
//! served by that cache.
//!
//! Environment knobs (all optional):
//! * `ECOCLOUD_SEED` — master seed (default 42).
//! * `ECOCLOUD_FAST=1` — shrink the scenarios (~10×) for smoke runs.
//! * `ECOCLOUD_OUT` — output directory (default `./out`).
//! * `ECOCLOUD_REPLICAS` — ensemble size (default 10; 5 in fast mode).

use ecocloud::dcsim::SimResult;
use ecocloud::prelude::*;
use ecocloud::sweep::{
    aggregate, run_grid, seed_grid, ArtifactCache, PolicySpec, RunSpec, ScenarioSpec,
    SweepAggregate,
};
use std::fs;
use std::path::PathBuf;

pub mod figures;
pub mod gnuplot;

/// Master seed for all experiments.
#[allow(clippy::disallowed_methods)] // entry crate: env is the experiments' CLI surface
pub fn seed() -> u64 {
    std::env::var("ECOCLOUD_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42)
}

/// True when the fast (downscaled) mode is requested.
#[allow(clippy::disallowed_methods)] // entry crate: env is the experiments' CLI surface
pub fn fast_mode() -> bool {
    std::env::var("ECOCLOUD_FAST").is_ok_and(|v| v != "0" && !v.is_empty())
}

/// Output directory (created on first use).
#[allow(clippy::disallowed_methods)] // entry crate: env is the experiments' CLI surface
pub fn out_dir() -> PathBuf {
    let dir = std::env::var("ECOCLOUD_OUT").unwrap_or_else(|_| "out".to_string());
    let p = PathBuf::from(dir);
    fs::create_dir_all(&p).expect("cannot create output directory");
    p
}

/// Ensemble size for the CI bands (default 10; 5 in fast mode).
#[allow(clippy::disallowed_methods)] // entry crate: env is the experiments' CLI surface
pub fn replicas() -> usize {
    std::env::var("ECOCLOUD_REPLICAS")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(if fast_mode() { 5 } else { 10 })
}

/// The content-addressed artifact cache every experiment binary shares
/// (`<out>/cache/`).
pub fn artifact_cache() -> ArtifactCache {
    ArtifactCache::under_out_dir(&out_dir())
}

/// Worker thread count for ensembles.
fn workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
}

/// The §III scenario (or its fast-mode downscale).
pub fn scenario_48h(seed: u64) -> Scenario {
    if fast_mode() {
        Scenario::closed_system(
            Fleet::thirds(40),
            TraceConfig {
                n_vms: 600,
                duration_secs: 12 * 3600,
                ..TraceConfig::paper_48h(seed)
            },
        )
    } else {
        Scenario::paper_48h(seed)
    }
}

/// The §IV scenario (or its fast-mode downscale to 6 hours).
pub fn scenario_fig12(seed: u64) -> Scenario {
    if fast_mode() {
        ScenarioSpec::PaperFig12 { hours: 6 }.build(seed)
    } else {
        Scenario::paper_fig12(seed)
    }
}

/// The reduced closed-system scenario of the ablation, sensitivity,
/// RAM and priority studies: 100 servers, 1,500 VMs, 24 h (30, 400
/// and 6 h in fast mode), per-server utilization not recorded.
pub fn reduced_scenario(seed: u64) -> Scenario {
    let (n_vms, n_servers, hours) = if fast_mode() {
        (400, 30, 6)
    } else {
        (1500, 100, 24)
    };
    let mut s = Scenario::closed_system(
        Fleet::thirds(n_servers),
        TraceConfig {
            n_vms,
            duration_secs: hours * 3600,
            ..TraceConfig::paper_48h(seed)
        },
    );
    s.config.record_server_utilization = false;
    s
}

/// The [`RunSpec`] describing the (possibly fast-mode) 48-hour setup
/// as the ensembles run it: without the Fig. 6 per-server matrix,
/// which does not feed back into the dynamics but would bloat every
/// cached artifact.
pub fn spec_48h(policy: PolicySpec, seed: u64) -> RunSpec {
    let (servers, vms, hours) = if fast_mode() {
        (40, 600, 12)
    } else {
        (400, 6000, 48)
    };
    let scenario = ScenarioSpec::Custom {
        servers,
        cores: None,
        vms,
        hours,
        migrations: true,
        server_utilization: false,
        churn: None,
    };
    RunSpec::new(scenario, policy, seed)
}

/// The ecoCloud 48-hour run.
pub fn run_48h_ecocloud(seed: u64) -> SimResult {
    let scenario = scenario_48h(seed);
    eprintln!(
        "[experiments] running 48 h scenario: {} servers, {} VMs...",
        scenario.fleet.len(),
        scenario.workload.spawns.len()
    );
    scenario.run(EcoCloudPolicy::paper(seed))
}

/// The Best-Fit baseline on the same 48-hour scenario.
pub fn run_48h_bestfit(seed: u64) -> SimResult {
    scenario_48h(seed).run(BestFitPolicy::paper())
}

/// The assignment-only §IV run.
pub fn run_fig12(seed: u64) -> SimResult {
    let scenario = scenario_fig12(seed);
    eprintln!(
        "[experiments] running assignment-only scenario: {} servers, {} spawns...",
        scenario.fleet.len(),
        scenario.workload.spawns.len()
    );
    scenario.run(EcoCloudPolicy::paper(seed))
}

/// Cross-seed ensemble of the 48-hour scenario under `policy`: seeds
/// `seed() .. seed()+replicas()`, fanned out over all cores, served by
/// (and filling) the artifact cache. Powers the ±95 % CI columns of
/// Figs. 7–11 and the claims table.
pub fn ensemble_48h(policy: PolicySpec) -> SweepAggregate {
    let base = seed();
    let n = replicas();
    let specs: Vec<RunSpec> = (0..n as u64)
        .map(|i| spec_48h(policy, base.wrapping_add(i)))
        .collect();
    eprintln!(
        "[experiments] {} ensemble: {n} seeds ({base}..{})",
        policy.name(),
        base.wrapping_add(n as u64 - 1)
    );
    let outcome = run_grid(&specs, workers(), &artifact_cache()).expect("ensemble sweep");
    eprintln!(
        "[experiments] ensemble cache: {} hits, {} executed",
        outcome.cache_hits, outcome.executed
    );
    aggregate(&outcome.artifacts)
}

/// Cross-seed ensemble of an arbitrary scenario (used by the
/// replication study): seeds `base .. base+n`.
pub fn ensemble_of(
    scenario: &ScenarioSpec,
    policy: PolicySpec,
    base: u64,
    n: usize,
) -> SweepAggregate {
    let specs = seed_grid(scenario, policy, base, n);
    let outcome = run_grid(&specs, workers(), &artifact_cache()).expect("ensemble sweep");
    eprintln!(
        "[experiments] ensemble cache: {} hits, {} executed",
        outcome.cache_hits, outcome.executed
    );
    aggregate(&outcome.artifacts)
}

/// Writes `content` under `out/` and echoes it to stdout.
pub fn emit(file: &str, content: &str) {
    let path = out_dir().join(file);
    fs::write(&path, content).expect("cannot write output file");
    println!("{content}");
    eprintln!("[experiments] wrote {}", path.display());
}

/// Writes `content` under `out/` without echoing (for bulky matrices).
pub fn emit_quiet(file: &str, content: &str) -> PathBuf {
    let path = out_dir().join(file);
    fs::write(&path, content).expect("cannot write output file");
    eprintln!("[experiments] wrote {}", path.display());
    path
}

/// Prints a labelled sparkline for a series.
pub fn spark(label: &str, values: &[f64]) {
    println!("{label:<28} {}", ecocloud::metrics::sparkline(values, 60));
}

/// Formats an `(x, y)` series as a two-column CSV.
pub fn xy_csv(header: (&str, &str), rows: impl IntoIterator<Item = (f64, f64)>) -> String {
    let mut s = format!("{},{}\n", header.0, header.1);
    for (x, y) in rows {
        s.push_str(&format!("{x:.6},{y:.6}\n"));
    }
    s
}

/// Four-column CSV joining one displayed run with its cross-seed band:
/// `time_h,<label>,mean,ci95`. Samples are aligned by index (every
/// replication shares the simulator's metrics clock).
pub fn series_with_band_csv(
    label: &str,
    single: &ecocloud::metrics::TimeSeries,
    ensemble: &ecocloud::metrics::EnsembleSeries,
) -> String {
    let mean = ensemble.mean_series();
    let ci = ensemble.ci95_series();
    let mut s = format!("time_h,{label},mean,ci95\n");
    let t = single.times_hours();
    let v = single.values();
    let n = t.len().min(mean.len());
    for i in 0..n {
        s.push_str(&format!(
            "{:.4},{:.6},{:.6},{:.6}\n",
            t[i],
            v[i],
            mean.values()[i],
            ci.values()[i]
        ));
    }
    s
}

/// `mean ± ci95` rendered with `digits` decimals.
pub fn pm(r: &ecocloud::metrics::Replication, digits: usize) -> String {
    format!(
        "{} ±{}",
        ecocloud::metrics::table::fmt_num(r.mean(), digits),
        ecocloud::metrics::table::fmt_num(r.ci95_half_width(), digits)
    )
}
