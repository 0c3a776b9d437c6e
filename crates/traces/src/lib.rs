//! Synthetic VM workload traces for the ecoCloud reproduction.
//!
//! The paper drives its simulator with CoMon logs of 6,000 real
//! PlanetLab VMs (CPU utilization, sampled every 5 minutes over
//! March–April 2012). Those traces are not redistributable and the
//! CoMon service no longer exists, so this crate generates *synthetic*
//! traces calibrated to every statistic the paper publishes about the
//! real ones:
//!
//! * **Fig. 4** — the distribution of per-VM *average* CPU utilization:
//!   strongly skewed towards small VMs, most below 20 % of the hosting
//!   machine's capacity, with a thin heavy tail of CPU-hungry VMs.
//! * **Fig. 5** — the distribution of the *deviation* between punctual
//!   and average utilization: concentrated around zero, with about 94 %
//!   of samples within ±10 percentage points.
//! * **Figs. 6–8** — the aggregate load follows the normal daily
//!   pattern (rising in the morning, falling in the evening), spanning
//!   roughly a 2–2.5× swing between the nightly trough and the daily
//!   peak.
//!
//! The generator composes three processes:
//!
//! 1. a per-VM **mean demand** drawn from a two-component lognormal
//!    mixture (small-VM body + heavy tail),
//! 2. a per-VM mean-reverting **AR(1) deviation** process with
//!    occasional multiplicative bursts (the source of overload events),
//! 3. a shared **diurnal envelope** modulating all VMs.
//!
//! Demands are expressed as a fraction of a *reference host*
//! (6 cores × 2 GHz = 12 000 MHz, the median server of the paper's data
//! center); [`units`] converts to absolute MHz.

pub mod arrivals;
pub mod churn;
pub mod config;
pub mod diurnal;
pub mod generator;
pub mod planetlab;
pub mod profile;
pub mod stats;
pub mod units;

pub use arrivals::{ArrivalEvent, ArrivalProcess, RateEstimate};
pub use churn::{Archetype, ChurnArrival, ChurnClass, OpenSystemSpec};
pub use config::TraceConfig;
pub use diurnal::DiurnalEnvelope;
pub use generator::{TraceCursor, TraceSet, VmTrace};
pub use profile::VmProfile;
pub use units::{MhzPerCore, REFERENCE_HOST_MHZ, TRACE_STEP_SECS};
