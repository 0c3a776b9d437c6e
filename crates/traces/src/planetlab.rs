//! Importer for real PlanetLab trace files.
//!
//! The paper's workload (CoMon monitoring of PlanetLab VMs, 5-minute
//! CPU-utilization samples) survives in the widely mirrored
//! `planetlab-workload-traces` dataset: one directory per day, one
//! plain-text file per VM, one integer CPU percentage (0–100) per
//! line, 288 lines per day. This module parses that layout into a
//! [`TraceSet`], so anyone holding the real data can swap it in for
//! the synthetic generator and run the exact reproduction:
//!
//! ```no_run
//! let set = ecocloud_traces::planetlab::import_dir(
//!     std::path::Path::new("planetlab/20110303"),
//!     ecocloud_traces::TRACE_STEP_SECS,
//! ).expect("trace directory");
//! println!("{} VMs imported", set.len());
//! ```
//!
//! Imported traces carry a [`VmProfile`] reconstructed from the
//! measured series (mean + deviation statistics), so everything
//! downstream — Fig. 4/5 characterization, the fluid model's `w̄` —
//! works identically for real and synthetic data.

use crate::config::TraceConfig;
use crate::diurnal::DiurnalEnvelope;
use crate::generator::{TraceSet, VmTrace};
use crate::profile::{MeanMixture, VmProfile};
use std::fs;
use std::io;
use std::path::Path;

/// Parses one PlanetLab trace file: one integer percentage per line.
/// Blank lines are skipped; anything non-numeric is an error.
pub fn parse_file(content: &str) -> Result<Vec<f32>, String> {
    let mut samples = Vec::new();
    for (lineno, line) in content.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let pct: f64 = line
            .parse()
            .map_err(|e| format!("line {}: '{line}': {e}", lineno + 1))?;
        if !(0.0..=100.0).contains(&pct) {
            return Err(format!("line {}: {pct} outside 0–100", lineno + 1));
        }
        samples.push((pct / 100.0) as f32);
    }
    if samples.is_empty() {
        return Err("file contains no samples".to_string());
    }
    Ok(samples)
}

/// Reconstructs a descriptive profile from a measured series (the
/// stochastic parameters are estimates — they are only used for
/// reporting and for the fluid model's `w̄`, never to re-generate the
/// series).
fn profile_from_series(samples: &[f32]) -> VmProfile {
    let n = samples.len() as f64;
    let mean = samples.iter().map(|&s| s as f64).sum::<f64>() / n;
    let var = samples
        .iter()
        .map(|&s| (s as f64 - mean).powi(2))
        .sum::<f64>()
        / n.max(1.0);
    let rel_sigma = if mean > 0.0 { var.sqrt() / mean } else { 0.0 };
    // Lag-1 autocorrelation as the AR(1) coefficient estimate.
    let mut ar_phi: f64 = 0.0;
    if samples.len() > 2 && var > 0.0 {
        let cov: f64 = samples
            .windows(2)
            .map(|w| (w[0] as f64 - mean) * (w[1] as f64 - mean))
            .sum::<f64>()
            / (n - 1.0);
        ar_phi = (cov / var).clamp(0.0, 0.999);
    }
    VmProfile {
        mean_frac: mean.clamp(0.0, 1.0),
        rel_sigma,
        ar_phi,
        burst_prob: 0.0,
        burst_mult: 1.0,
        burst_end_prob: 1.0,
    }
}

/// Imports every file of a PlanetLab day directory as one VM trace.
/// Files are read in lexicographic order so the import is
/// deterministic. `step_secs` is the sampling cadence (CoMon: 300 s).
pub fn import_dir(dir: &Path, step_secs: u64) -> io::Result<TraceSet> {
    let mut paths: Vec<_> = fs::read_dir(dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.is_file())
        .collect();
    paths.sort();
    if paths.is_empty() {
        return Err(io::Error::new(
            io::ErrorKind::NotFound,
            format!("no trace files in {}", dir.display()),
        ));
    }
    let mut vms = Vec::with_capacity(paths.len());
    let mut max_steps = 0usize;
    for path in &paths {
        let content = fs::read_to_string(path)?;
        let samples = parse_file(&content).map_err(|e| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{}: {e}", path.display()),
            )
        })?;
        max_steps = max_steps.max(samples.len());
        let profile = profile_from_series(&samples);
        vms.push(VmTrace::recorded(profile, samples));
    }
    let config = TraceConfig {
        n_vms: vms.len(),
        duration_secs: max_steps as u64 * step_secs,
        step_secs,
        seed: 0,
        mixture: MeanMixture::default(),
        envelope: DiurnalEnvelope::flat(), // the real data carries its own pattern
    };
    Ok(TraceSet { config, vms })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_well_formed_file() {
        let s = parse_file("0\n25\n100\n\n50\n").expect("parses");
        assert_eq!(s, vec![0.0, 0.25, 1.0, 0.5]);
    }

    #[test]
    fn rejects_garbage_and_out_of_range() {
        assert!(parse_file("1\nfoo\n").is_err());
        assert!(parse_file("120\n").is_err());
        assert!(parse_file("-3\n").is_err());
        assert!(parse_file("").is_err());
    }

    #[test]
    fn profile_reconstruction_matches_moments() {
        // A flat series: mean = value, zero variance, phi irrelevant.
        let flat = vec![0.2f32; 288];
        let p = profile_from_series(&flat);
        assert!((p.mean_frac - 0.2).abs() < 1e-6);
        assert_eq!(p.rel_sigma, 0.0);
        assert!(p.is_valid(), "reconstructed profile invalid: {p:?}");
        // A strongly autocorrelated ramp has phi near 1.
        let ramp: Vec<f32> = (0..288).map(|i| i as f32 / 288.0).collect();
        let p = profile_from_series(&ramp);
        assert!(p.ar_phi > 0.9, "ramp phi = {}", p.ar_phi);
    }

    #[test]
    fn imports_directory_deterministically() {
        let dir = std::env::temp_dir().join("ecocloud_planetlab_test");
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("mkdir");
        // Three fake VMs, 288 samples each, in the real format.
        for (name, base) in [("vm_a", 5u32), ("vm_b", 40), ("vm_c", 90)] {
            let content: String = (0..288)
                .map(|i| format!("{}\n", (base + (i % 7)).min(100)))
                .collect();
            fs::write(dir.join(name), content).expect("write");
        }
        let set = import_dir(&dir, 300).expect("imports");
        assert_eq!(set.len(), 3);
        assert_eq!(set.config.steps(), 288);
        assert_eq!(set.config.duration_secs, 288 * 300);
        // Lexicographic order: vm_a first, with the smallest mean.
        assert!(set.vms[0].profile.mean_frac < set.vms[2].profile.mean_frac);
        // Samples round-trip as fractions.
        assert!((set.vms[0].recorded_samples().expect("recorded")[0] - 0.05).abs() < 1e-6);
        // Demand lookup works like synthetic traces.
        assert!(set.vms[2].demand_mhz_at(0.0, 300) > 0.0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_directory_is_an_error() {
        let dir = std::env::temp_dir().join("ecocloud_planetlab_empty");
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("mkdir");
        assert!(import_dir(&dir, 300).is_err());
        let _ = fs::remove_dir_all(&dir);
    }
}
