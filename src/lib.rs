//! # ecoCloud — self-organizing energy saving for data centers
//!
//! A full reproduction of *"Analysis of a Self-Organizing Algorithm
//! for Energy Saving in Data Centers"* (C. Mastroianni, M. Meo,
//! G. Papuzzo — IPDPSW 2013): the decentralized, Bernoulli-trial-driven
//! ecoCloud VM-consolidation algorithm, the discrete-event data-center
//! simulator it is evaluated on, the fluid ODE model of its assignment
//! procedure, synthetic PlanetLab-style workload traces, and the
//! centralized baselines it is compared against.
//!
//! ## Quick start
//!
//! ```
//! use ecocloud::prelude::*;
//!
//! // A small data center driven by synthetic traces.
//! let scenario = Scenario::small(42);
//! let result = scenario.run(EcoCloudPolicy::paper(42));
//! assert!(result.summary.energy_kwh > 0.0);
//! // VMs end up consolidated on a fraction of the fleet.
//! assert!(result.final_powered < scenario.fleet.len());
//! ```
//!
//! See the `examples/` directory for end-to-end scenarios and the
//! `ecocloud-experiments` crate for the binaries regenerating every
//! figure of the paper.
//!
//! ## Layer map
//!
//! * [`scenarios`] — the [`Scenario`] constructors every run is built
//!   with (closed and open systems, the paper's §III/§IV setups, small
//!   smoke sizes) and the fault / control-plane profile names.
//! * [`sweep`] — the run descriptions (`ScenarioSpec`, `PolicySpec`,
//!   `RunSpec`) and the multi-seed replication driver: a policy × seed
//!   grid on all cores with a content-addressed result cache.
//! * [`parallel`] — the deterministic replica pool [`sweep`] runs on
//!   (submission-order merge, scripted-scheduler audit seam).
//! * [`io`] — trace files (`ECOT`), sealed in the container that
//!   checkpoints and sweep artifacts share.
//! * [`cli`] — the `ecocloud-cli` front end over all of the above.
//! * [`dcsim`] (re-export) — the simulator itself, a single-threaded
//!   event loop; [`parallel`] runs whole replicas side by side instead.
//!
//! The architecture overview lives in `ARCHITECTURE.md` at the
//! repository root.

#![deny(rustdoc::broken_intra_doc_links)]

pub mod cli;
pub mod io;
pub mod parallel;
pub mod scenarios;
pub mod sweep;

pub use scenarios::Scenario;

// Re-export the sub-crates under stable names.
pub use dcsim;
pub use ecocloud_analytic as analytic;
pub use ecocloud_baselines as baselines;
pub use ecocloud_core as core;
pub use ecocloud_metrics as metrics;
pub use ecocloud_traces as traces;

/// One-stop imports for applications.
pub mod prelude {
    pub use crate::scenarios::Scenario;
    pub use dcsim::{
        ControlPlaneConfig, FaultConfig, Fleet, InitialPlacement, PlaceOutcome, PlacementKind,
        PlacementRequest, Policy, SimConfig, SimResult, Simulation, Workload,
    };
    pub use ecocloud_baselines::{BestFitPolicy, FirstFitPolicy, RandomPolicy};
    pub use ecocloud_core::{
        AssignmentFunction, EcoCloudConfig, EcoCloudPolicy, MigrationFunctions,
    };
    pub use ecocloud_traces::{DiurnalEnvelope, TraceConfig, TraceSet};
}

/// Helpers for the tests of the sealed-file decoders ([`io`] and the
/// [`sweep`] artifacts).
#[cfg(test)]
mod test_support {
    use dcsim::checkpoint::{CheckpointError, FileKind, Sealed};
    use ecocloud_rng::{Rng, SeedableRng, StdRng};
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// The sealed file of `kind` in `bytes` with section `name`'s
    /// payload edited by `edit`, re-sealed so that its checksum holds.
    pub(crate) fn reseal(
        bytes: &[u8],
        kind: &FileKind,
        name: &str,
        edit: impl FnOnce(&mut Vec<u8>),
    ) -> Vec<u8> {
        let file = Sealed::from_bytes(bytes, kind, "test").expect("a sealed file");
        let mut edit = Some(edit);
        let mut out = Sealed::default();
        for (n, payload) in file.sections() {
            let mut payload = payload.to_vec();
            if n == name {
                edit.take().expect("one section per name")(&mut payload);
            }
            out.push_section(n, &payload);
        }
        out.to_bytes(kind)
    }

    /// Flips `flips` seeded single bits in each section of the sealed
    /// `bytes`, the mutator of dcsim's
    /// `flipped_snapshot_bits_are_refused_or_run_to_the_end`, and
    /// re-seals each so that the checksum holds: `decode` must refuse
    /// the file or return a value that `encode`s back to it, and never
    /// panic.
    pub(crate) fn assert_flips_refused_or_reencoded<T>(
        bytes: &[u8],
        kind: &FileKind,
        flips: usize,
        seed: u64,
        decode: impl Fn(&[u8]) -> Result<T, CheckpointError>,
        encode: impl Fn(&T) -> Vec<u8>,
    ) {
        let file = Sealed::from_bytes(bytes, kind, "test").expect("a sealed file");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut failed = Vec::new();
        for (name, payload) in file.sections().filter(|(_, p)| !p.is_empty()) {
            for _ in 0..flips {
                let bit = rng.gen_range(0..payload.len() * 8);
                let bad = reseal(bytes, kind, name, |p| p[bit / 8] ^= 1 << (bit % 8));
                match catch_unwind(AssertUnwindSafe(|| decode(&bad).map(|v| encode(&v)))) {
                    Ok(Err(_)) => {}
                    Ok(Ok(again)) if again == bad => {}
                    Ok(Ok(_)) => failed.push(format!("{name} bit {bit}: re-encodes differently")),
                    Err(_) => failed.push(format!("{name} bit {bit}: panic")),
                }
            }
        }
        assert!(
            failed.is_empty(),
            "{} flips failed: {failed:#?}",
            failed.len()
        );
    }
}
