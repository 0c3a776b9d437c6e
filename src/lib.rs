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
//! * [`cli`] — the `ecocloud-cli` front end over all of the above.
//! * [`dcsim`] (re-export) — the simulator itself, a single-threaded
//!   event loop; [`parallel`] runs whole replicas side by side instead.
//!
//! The architecture overview lives in `ARCHITECTURE.md` at the
//! repository root.

#![deny(rustdoc::broken_intra_doc_links)]

pub mod cli;
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
