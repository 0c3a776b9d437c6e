//! A discrete-event data-center simulator.
//!
//! This crate is the substrate the ecoCloud paper's evaluation runs on:
//! it reproduces, in Rust, the modelling granularity of the authors'
//! "home-made Java simulator" (§III):
//!
//! * heterogeneous multi-core servers (the paper's fleet: 2 GHz cores,
//!   one third each of 4-, 6- and 8-core machines) with a linear power
//!   curve whose idle draw is ~70 % of peak (§I),
//! * trace-driven VMs whose CPU demand changes every 5 minutes,
//! * live migration with a configurable latency, during which the VM
//!   keeps running at the source and is *reserved* at the target,
//! * server sleep states with wake-up latency and idle-timeout
//!   hibernation,
//! * proportional-share CPU under overload, with per-violation duration
//!   and granted-fraction accounting (the inputs to the paper's Fig. 11
//!   and its "98 % of violations shorter than 30 s" claim),
//! * a 30-minute metrics sampler and per-hour event counters (Figs.
//!   6–10).
//!
//! Placement decisions are delegated to a [`policy::Policy`]
//! implementation — the ecoCloud algorithm lives in the
//! `ecocloud-core` crate, centralized baselines in
//! `ecocloud-baselines`; the simulator itself is policy-agnostic.
//!
//! The simulation is fully deterministic: every run is a pure function
//! of `(Fleet, Workload, SimConfig, Policy seed)`, computed on a single
//! thread with every Bernoulli trial drawn in event order.

#![deny(rustdoc::broken_intra_doc_links)]

pub mod checkpoint;
pub mod cluster;
pub mod config;
pub(crate) mod control;
pub mod engine;
pub mod events;
pub mod fleet;
pub mod ids;
pub mod idset;
pub mod log;
pub mod policy;
pub mod server;
pub mod sla;
pub mod stats;
pub mod vm;
pub mod workload;

pub use checkpoint::{Checkpoint, CheckpointError, CRATE_VERSION};
pub use cluster::{Cluster, ClusterView, HotFleet, ServerRef};
pub use config::{ConfigError, ControlPlaneConfig, FaultConfig, SimConfig};
pub use engine::{MonitorChain, SimResult, Simulation};
pub use fleet::Fleet;
pub use ids::{ServerId, VmId};
pub use idset::SortedIdSet;
pub use log::{AbortReason, EventLog, SimEvent};
pub use policy::{
    MigrationKind, MigrationRequest, PlaceOutcome, PlacementKind, PlacementRequest, Policy,
};
pub use server::{PowerModel, Server, ServerSpec, ServerState};
pub use sla::{OverloadSharing, VmPriority};
pub use stats::SimStats;
pub use vm::{Vm, VmState};
pub use workload::{InitialPlacement, VmSpawn, Workload};
