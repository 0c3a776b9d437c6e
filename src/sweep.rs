//! Parallel multi-seed replication engine with a content-addressed
//! run cache.
//!
//! The paper's §V results are averages over repeated runs with
//! confidence intervals; this module industrializes that workflow:
//!
//! * [`RunSpec`] — a complete, hashable description of one simulation
//!   run: scenario dimensions, policy, fault and control-plane
//!   profiles, and the seed.
//! * [`ArtifactCache`] — a content-addressed artifact store under
//!   `out/cache/`, keyed by a stable FNV-1a hash of the canonical
//!   `RunSpec` string plus the crate version. A run whose artifact
//!   already exists is never executed again; bumping the crate version
//!   or changing any spec field changes the key, so invalidation is
//!   automatic instead of `rm out/cache_48h_*.json` by hand.
//! * [`run_grid`] — a work-stealing fan-out of a spec grid over std
//!   threads (via [`crate::parallel::run_replicas`]). Results are
//!   merged in **submission (seed) order, never completion order**, so
//!   the aggregate output is byte-identical for any worker count or
//!   schedule — the same discipline `detlint` enforces inside the
//!   simulator (DESIGN.md §12–13).
//! * [`aggregate`] — reduces the replicated [`RunArtifact`]s to
//!   mean / standard deviation / Student-t 95 % confidence intervals
//!   for every summary scalar and sampled time series
//!   (via [`ecocloud_metrics::replication`]).
//!
//! Artifacts (`.ecor`) are sealed in the container checkpoints and
//! trace files share ([`dcsim::checkpoint`]): a checksum, a version,
//! and floats and counters stored as their exact bits, so a warm cache
//! reproduces the cold-cache aggregate byte-for-byte, and a damaged
//! artifact is re-run instead of served. [`RunArtifact::to_text`] is
//! the artifact's printable form; nothing parses it.
//!
//! # Worked example: a 3-seed ensemble, worker-count invariant
//!
//! ```
//! use ecocloud::sweep::{aggregate, run_grid, ArtifactCache, PolicySpec, RunSpec, ScenarioSpec};
//!
//! let scenario = ScenarioSpec::Custom {
//!     servers: 8,
//!     cores: None,
//!     vms: 30,
//!     hours: 1,
//!     migrations: true,
//!     server_utilization: false,
//!     churn: None,
//! };
//! let specs: Vec<RunSpec> = (0..3)
//!     .map(|seed| RunSpec::new(scenario.clone(), PolicySpec::EcoCloud, seed))
//!     .collect();
//!
//! // Same grid on one worker and on three: artifacts merge in
//! // submission (seed) order, so the aggregates are byte-identical.
//! let cache = ArtifactCache::disabled();
//! let serial = run_grid(&specs, 1, &cache).unwrap();
//! let fanned = run_grid(&specs, 3, &cache).unwrap();
//! let (a, b) = (aggregate(&serial.artifacts), aggregate(&fanned.artifacts));
//! assert_eq!(a.metrics_csv(), b.metrics_csv());
//! assert!(a.metric("energy_kwh").unwrap().mean() > 0.0);
//! ```

use crate::parallel::run_replicas;
use crate::scenarios::{control_plane_profile, fault_profile, ChurnKind, Scenario};
use dcsim::checkpoint::{CheckpointError, Dec, FileKind, Sealed};
use dcsim::stats::SimSummary;
use dcsim::{Checkpoint, Fleet, Policy, SimResult, Simulation};
use ecocloud_baselines::{BestFitPolicy, FirstFitPolicy, RandomPolicy};
use ecocloud_core::EcoCloudPolicy;
use ecocloud_metrics::replication::{EnsembleSeries, Replication};
use ecocloud_metrics::TimeSeries;
use ecocloud_traces::TraceConfig;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Scenario dimensions of a [`RunSpec`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScenarioSpec {
    /// The paper's §III setup: 400 thirds-mix servers, 6,000 VMs,
    /// 48 hours, migrations on, per-server utilization recorded.
    Paper48h,
    /// The paper's §IV assignment-only setup truncated to `hours`
    /// (18 for the full figure): 100 six-core servers, churned VMs,
    /// migrations off.
    PaperFig12 {
        /// Simulated hours (spawns past the horizon are dropped).
        hours: u64,
    },
    /// CLI-style custom dimensions (the `sweep` subcommand's surface).
    Custom {
        /// Number of servers (thirds mix unless `cores` is set).
        servers: usize,
        /// Uniform cores per server; `None` keeps the thirds mix.
        cores: Option<u32>,
        /// Number of VMs.
        vms: usize,
        /// Simulated hours.
        hours: u64,
        /// Whether the migration procedure is enabled.
        migrations: bool,
        /// Record the Fig. 6-style per-server utilization matrix
        /// (memory-heavy; off for sweeps).
        server_utilization: bool,
        /// Open-system churn: the workload kind and the churn share in
        /// integer percent (`None` keeps the closed-system workload).
        /// Integer percent rather than `f64` keeps the spec `Eq` and
        /// its canonical string exact.
        churn: Option<(ChurnKind, u8)>,
    },
}

impl ScenarioSpec {
    fn canonical(&self) -> String {
        match self {
            Self::Paper48h => "paper48h".to_string(),
            Self::PaperFig12 { hours } => format!("fig12(hours={hours})"),
            Self::Custom {
                servers,
                cores,
                vms,
                hours,
                migrations,
                server_utilization,
                churn,
            } => format!(
                "custom(servers={servers},cores={},vms={vms},hours={hours},migrations={},util={}{})",
                cores.map_or("thirds".to_string(), |c| c.to_string()),
                onoff(*migrations),
                onoff(*server_utilization),
                // Omitted entirely when off, so every closed-system
                // cache key (including the pinned one below) is
                // untouched by the open-system feature.
                churn.map_or(String::new(), |(kind, pct)| format!(
                    ",churn={},share={pct}",
                    kind.name()
                )),
            ),
        }
    }

    /// Builds the described scenario for `seed`.
    pub fn build(&self, seed: u64) -> Scenario {
        match self {
            Self::Paper48h => Scenario::paper_48h(seed),
            Self::PaperFig12 { hours } => {
                let mut s = Scenario::paper_fig12(seed);
                let horizon = (*hours * 3600) as f64;
                s.config.duration_secs = horizon;
                s.workload.spawns.retain(|sp| sp.arrive_secs <= horizon);
                s
            }
            Self::Custom {
                servers,
                cores,
                vms,
                hours,
                migrations,
                server_utilization,
                churn,
            } => {
                let fleet =
                    cores.map_or_else(|| Fleet::thirds(*servers), |c| Fleet::uniform(*servers, c));
                let mut s = match churn {
                    None => Scenario::closed_system(
                        fleet,
                        TraceConfig {
                            n_vms: *vms,
                            duration_secs: hours * 3600,
                            ..TraceConfig::paper_48h(seed)
                        },
                    ),
                    Some((kind, pct)) => Scenario::open_system(
                        fleet,
                        *vms,
                        *hours,
                        seed,
                        *kind,
                        f64::from(*pct) / 100.0,
                    ),
                };
                s.config.migrations_enabled = *migrations;
                s.config.record_server_utilization = *server_utilization;
                s
            }
        }
    }
}

/// `on`/`off` token of a flag in a canonical string.
pub(crate) fn onoff(b: bool) -> &'static str {
    if b {
        "on"
    } else {
        "off"
    }
}

/// Placement policy of a [`RunSpec`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicySpec {
    /// The paper's decentralized ecoCloud policy.
    EcoCloud,
    /// Centralized Best Fit with the double-threshold controller.
    BestFit,
    /// Centralized First Fit.
    FirstFit,
    /// Random placement below a utilization cap.
    Random,
}

impl PolicySpec {
    /// Every built-in policy, in the order `compare` tabulates them.
    pub const ALL: [Self; 4] = [Self::EcoCloud, Self::BestFit, Self::FirstFit, Self::Random];

    /// CLI name of the policy (also the canonical-string token).
    pub fn name(self) -> &'static str {
        match self {
            Self::EcoCloud => "ecocloud",
            Self::BestFit => "best-fit",
            Self::FirstFit => "first-fit",
            Self::Random => "random",
        }
    }

    /// Parses a CLI policy name.
    pub fn parse(name: &str) -> Result<Self, String> {
        match name {
            "ecocloud" => Ok(Self::EcoCloud),
            "best-fit" => Ok(Self::BestFit),
            "first-fit" => Ok(Self::FirstFit),
            "random" => Ok(Self::Random),
            other => Err(format!(
                "unknown policy '{other}' (ecocloud|best-fit|first-fit|random)"
            )),
        }
    }

    /// Runs `scenario` under this policy, seeded with `seed`. The run
    /// resumes from the snapshot at `resume` when given, and writes
    /// snapshots stamped with `spec` to `ckpt_path` every `every_secs`
    /// of simulated time when both are given. All progress goes to
    /// stderr.
    pub fn run(
        self,
        scenario: &Scenario,
        seed: u64,
        spec: &str,
        every_secs: Option<f64>,
        ckpt_path: Option<&Path>,
        resume: Option<&Path>,
    ) -> Result<SimResult, String> {
        macro_rules! run {
            ($policy:expr) => {
                run_with_checkpoints(scenario, $policy, spec, every_secs, ckpt_path, resume)
            };
        }
        match self {
            Self::EcoCloud => run!(EcoCloudPolicy::paper(seed)),
            Self::BestFit => run!(BestFitPolicy::paper()),
            Self::FirstFit => run!(FirstFitPolicy::paper()),
            Self::Random => run!(RandomPolicy::new(0.9, seed)),
        }
    }
}

/// Drives one simulation to completion, optionally resuming from a
/// snapshot and optionally writing crash-safe snapshots on a fixed
/// simulated-time cadence. All progress goes to stderr: stdout stays
/// byte-identical between a straight run and any checkpointed /
/// resumed execution of the same spec.
fn run_with_checkpoints<P: Policy>(
    scenario: &Scenario,
    policy: P,
    spec: &str,
    every_secs: Option<f64>,
    ckpt_path: Option<&Path>,
    resume: Option<&Path>,
) -> Result<SimResult, String> {
    let (mut sim, mut seq) = match resume {
        Some(path) => {
            let (ckpt, loaded_from, skipped) = Checkpoint::read_with_fallback(path)
                .map_err(|e| format!("cannot resume from {}: {e}", path.display()))?;
            if let Some(err) = skipped {
                eprintln!(
                    "[checkpoint] skipped unusable snapshot {}: {err}",
                    path.display()
                );
            }
            let sim = Simulation::restore_from(
                scenario.fleet.clone(),
                scenario.workload.clone(),
                scenario.config.clone(),
                policy,
                &ckpt,
                spec,
            )
            .map_err(|e| format!("cannot resume from {}: {e}", loaded_from.display()))?;
            eprintln!(
                "[checkpoint] resumed snapshot #{} from {} at t = {} s",
                ckpt.seq,
                loaded_from.display(),
                ckpt.sim_time_secs
            );
            (sim, ckpt.seq + 1)
        }
        None => (
            Simulation::new(
                scenario.fleet.clone(),
                scenario.workload.clone(),
                scenario.config.clone(),
                policy,
            ),
            0,
        ),
    };
    if let (Some(every), Some(path)) = (every_secs, ckpt_path) {
        // First boundary strictly ahead of the current clock, so a
        // resumed run never rewrites the snapshot it came from.
        let mut next = every * ((sim.now() / every).floor() + 1.0);
        while sim.step().is_some() {
            while sim.now() >= next {
                sim.checkpoint(spec, seq)
                    .write_atomic(path)
                    .map_err(|e| format!("cannot write checkpoint {}: {e}", path.display()))?;
                eprintln!(
                    "[checkpoint] wrote snapshot #{seq} at t = {} s to {}",
                    sim.now(),
                    path.display()
                );
                seq += 1;
                next += every;
            }
        }
    } else {
        while sim.step().is_some() {}
    }
    Ok(sim.finish())
}

/// A complete, hashable description of one simulation run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunSpec {
    /// Scenario dimensions.
    pub scenario: ScenarioSpec,
    /// Placement policy.
    pub policy: PolicySpec,
    /// Fault profile name (`off`, `light`, `moderate`, `chaos`).
    pub faults: String,
    /// Control-plane profile name (`off`, `ideal`, `lan`, `lossy`).
    pub control_plane: String,
    /// Master seed of this replication.
    pub seed: u64,
}

impl RunSpec {
    /// A fault-free, atomic-placement spec (the common case).
    pub fn new(scenario: ScenarioSpec, policy: PolicySpec, seed: u64) -> Self {
        Self {
            scenario,
            policy,
            faults: "off".to_string(),
            control_plane: "off".to_string(),
            seed,
        }
    }

    /// The canonical string the cache key hashes: every field that can
    /// change a run's trajectory, plus the crate version (a simulator
    /// change is a cache invalidation).
    pub fn canonical(&self) -> String {
        // option_env rather than env: the offline test harness compiles
        // with bare rustc, where cargo's vars are absent. The fallback
        // must track the workspace version so both builds agree on keys.
        const CRATE_VERSION: &str = match option_env!("CARGO_PKG_VERSION") {
            Some(v) => v,
            None => "0.1.0",
        };
        format!(
            "ecocloud/{};scenario={};policy={};faults={};control={};seed={}",
            CRATE_VERSION,
            self.scenario.canonical(),
            self.policy.name(),
            self.faults,
            self.control_plane,
            self.seed,
        )
    }

    /// Stable 64-bit content key of this spec (FNV-1a over
    /// [`Self::canonical`]). Independent of the host, hasher seeds and
    /// rustc version — `std`'s `DefaultHasher` is explicitly *not*
    /// stable across releases, so the fold is spelled out here.
    pub fn cache_key(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = FNV_OFFSET;
        for b in self.canonical().bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(FNV_PRIME);
        }
        h
    }

    /// Cache file name: human-readable prefix + content key.
    pub fn artifact_name(&self) -> String {
        format!(
            "{}-s{}-{:016x}.ecor",
            self.policy.name(),
            self.seed,
            self.cache_key()
        )
    }

    /// Executes the run (no cache involved) and reduces it to an
    /// artifact.
    pub fn execute(&self) -> Result<RunArtifact, String> {
        self.execute_with_checkpoints(None, None)
    }

    /// Executes the run, optionally resuming from / writing crash-safe
    /// snapshots at `ckpt_path` every `every_secs` of simulated time.
    /// A snapshot that cannot be restored (different crate version,
    /// different spec, damaged beyond the `.prev` fallback) is not
    /// fatal here — unlike the CLI's explicit `--resume`, the sweep
    /// engine falls back to a fresh run with a note on stderr, because
    /// the grid must converge even when snapshots rot.
    pub fn execute_with_checkpoints(
        &self,
        ckpt_path: Option<&Path>,
        every_secs: Option<f64>,
    ) -> Result<RunArtifact, String> {
        let mut scenario = self.scenario.build(self.seed);
        scenario.config.faults = fault_profile(&self.faults, self.seed)?;
        scenario.config.control_plane = control_plane_profile(&self.control_plane, self.seed)?;
        scenario.config.validate().map_err(|e| e.to_string())?;
        let hours = (scenario.config.duration_secs / 3600.0).ceil() as usize;
        let spec = self.canonical();
        let resume = ckpt_path.filter(|p| p.exists());
        let run = |resume: Option<&Path>| {
            self.policy
                .run(&scenario, self.seed, &spec, every_secs, ckpt_path, resume)
        };
        let mut result = match run(resume) {
            Ok(r) => r,
            Err(e) if resume.is_some() => {
                eprintln!(
                    "[sweep] {e}; restarting {} from scratch",
                    self.artifact_name()
                );
                run(None)?
            }
            Err(e) => return Err(e),
        };
        Ok(RunArtifact::from_result(self, hours, &mut result))
    }
}

/// The aggregation-relevant reduction of one run: the full
/// [`SimSummary`], the four sampled time series and the four hourly
/// counters. Everything the replication tables and the Fig. 6–11 CI
/// bands need — deliberately *not* the full `SimResult` (no per-server
/// matrix, no event log), so ten cached 48-hour replications cost
/// kilobytes, not megabytes.
#[derive(Debug, Clone)]
pub struct RunArtifact {
    /// Canonical spec string of the run that produced this artifact.
    pub spec: String,
    /// Content key ([`RunSpec::cache_key`]).
    pub key: u64,
    /// Powered servers at the end of the run.
    pub final_powered: u64,
    /// Headline scalars.
    pub summary: SimSummary,
    /// Sampled series: overall load, active servers, power, over-demand.
    pub series: Vec<TimeSeries>,
    /// Hourly counters: low/high migrations, activations, hibernations
    /// as `(name, counts-per-hour)`.
    pub hourly: Vec<(String, Vec<u64>)>,
}

/// Names of the four sampled series an artifact carries, in order.
pub const SERIES_NAMES: [&str; 4] = [
    "overall_load",
    "active_servers",
    "power_w",
    "overdemand_pct",
];

/// Names of the four hourly counters an artifact carries, in order.
pub const HOURLY_NAMES: [&str; 4] = [
    "low_migrations",
    "high_migrations",
    "activations",
    "hibernations",
];

/// Lists every `SimSummary` field once; the artifact codec and the
/// aggregation layer are both generated from it, so a new summary
/// field shows up in cache files, CSVs and CI tables by being added
/// here (and the exhaustive struct literal in
/// [`RunArtifact::from_bytes`] breaks the build if the list falls
/// behind the struct).
macro_rules! for_each_summary_field {
    ($mac:ident) => {
        $mac!(
            f64: energy_kwh, mean_active_servers, max_power_w, placement_p99_secs,
                 violations_under_30s, mean_granted_during_violation, max_overdemand_pct,
                 max_ram_utilization;
            u64: total_low_migrations, total_high_migrations, total_activations,
                 total_hibernations, dropped_vms, migrations_started, migrations_completed,
                 migrations_aborted, server_crashes, server_repairs, wake_failures,
                 migration_failures, vms_displaced, vms_replaced, vms_lost, events_processed,
                 invitations_sent, invite_accepts, invite_declines, invite_losses,
                 invite_timeouts, commits_sent, commit_nacks, commit_losses,
                 exchanges_started, exchanges_committed, exchanges_abandoned,
                 exchanges_aborted, exchange_rebroadcasts, n_violations,
                 vms_arrived, vms_departed, vms_preempted
        )
    };
}

/// `(name, value-as-f64)` view of every [`SimSummary`] field, in the
/// fixed declaration order the aggregation tables use.
pub fn summary_metrics(s: &SimSummary) -> Vec<(&'static str, f64)> {
    macro_rules! collect {
        (f64: $($f:ident),*; u64: $($u:ident),*) => {
            vec![
                $((stringify!($f), s.$f),)*
                $((stringify!($u), s.$u as f64),)*
            ]
        };
    }
    for_each_summary_field!(collect)
}

/// Version 2 is the first sealed one: version 1 was line text with
/// every number printed in decimal.
const ARTIFACT: FileKind = FileKind {
    magic: b"ECOR",
    version: 2,
    name: "run artifact",
};

impl RunArtifact {
    /// Reduces a finished run to its artifact.
    pub fn from_result(spec: &RunSpec, hours: usize, res: &mut SimResult) -> Self {
        let hours = hours.max(1);
        let series = vec![
            res.stats.overall_load.clone(),
            res.stats.active_servers.clone(),
            res.stats.power_w.clone(),
            res.stats.overdemand_pct.clone(),
        ];
        let counters = [
            &res.stats.low_migrations,
            &res.stats.high_migrations,
            &res.stats.activations,
            &res.stats.hibernations,
        ];
        let hourly = HOURLY_NAMES
            .iter()
            .zip(counters)
            .map(|(name, c)| {
                (
                    name.to_string(),
                    // `take(hours)` pins the vector length: an event
                    // landing exactly on the final boundary would
                    // otherwise give this seed one extra (empty-axis)
                    // hour and break cross-seed alignment.
                    c.per_hour(hours)
                        .into_iter()
                        .take(hours)
                        .map(|(_, n)| n)
                        .collect(),
                )
            })
            .collect();
        Self {
            spec: spec.canonical(),
            key: spec.cache_key(),
            final_powered: res.final_powered as u64,
            summary: res.summary.clone(),
            series,
            hourly,
        }
    }

    /// The artifact's printable form: one line per field, floats in
    /// Rust's shortest round-trip representation.
    pub fn to_text(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "ecocloud-run-artifact v1");
        let _ = writeln!(s, "spec {}", self.spec);
        let _ = writeln!(s, "key {:016x}", self.key);
        let _ = writeln!(s, "final_powered {}", self.final_powered);
        for (name, v) in summary_metrics(&self.summary) {
            let _ = writeln!(s, "summary {name} {v}");
        }
        for ts in &self.series {
            let _ = writeln!(s, "series {} {}", ts.name(), ts.len());
            for (&t, &v) in ts.times_secs().iter().zip(ts.values()) {
                let _ = writeln!(s, "{t} {v}");
            }
        }
        for (name, counts) in &self.hourly {
            let _ = write!(s, "hourly {name} {}", counts.len());
            for c in counts {
                let _ = write!(s, " {c}");
            }
            s.push('\n');
        }
        let _ = writeln!(s, "end");
        s
    }

    /// Seals the artifact as an `.ecor` file: sections `run` (spec,
    /// key, `final_powered`), `summary` (every [`SimSummary`] field,
    /// floats as bits, counters as `u64`), `series` and `hourly`.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut file = Sealed::default();
        file.encode_section("run", |e| {
            e.str(&self.spec);
            e.u64(self.key);
            e.u64(self.final_powered);
        });
        file.encode_section("summary", |e| {
            macro_rules! put {
                (f64: $($f:ident),*; u64: $($u:ident),*) => {
                    $(e.f64(self.summary.$f);)*
                    $(e.u64(self.summary.$u);)*
                };
            }
            for_each_summary_field!(put);
        });
        file.encode_section("series", |e| {
            e.usize(self.series.len());
            for ts in &self.series {
                e.series(ts);
            }
        });
        file.encode_section("hourly", |e| {
            e.usize(self.hourly.len());
            for (name, counts) in &self.hourly {
                e.str(name);
                e.u64s(counts);
            }
        });
        file.to_bytes(&ARTIFACT)
    }

    /// Opens an `.ecor` file sealed by [`to_bytes`](Self::to_bytes);
    /// `origin` names it in errors.
    pub fn from_bytes(bytes: &[u8], origin: &str) -> Result<Self, CheckpointError> {
        let file = Sealed::from_bytes(bytes, &ARTIFACT, origin)?;
        let mut d = file.decoder("run")?;
        let (spec, key, final_powered) = (d.str()?, d.u64()?, d.u64()?);
        d.finish()?;
        let mut d = file.decoder("summary")?;
        macro_rules! get {
            (f64: $($f:ident),*; u64: $($u:ident),*) => {
                SimSummary {
                    $($f: d.f64()?,)*
                    $($u: d.u64()?,)*
                }
            };
        }
        let summary = for_each_summary_field!(get);
        d.finish()?;
        let mut d = file.decoder("series")?;
        let series = d.list(20, Dec::series)?;
        d.finish()?;
        let mut d = file.decoder("hourly")?;
        let hourly = d.list(12, |d| Ok((d.str()?, d.u64s()?)))?;
        d.finish()?;
        Ok(Self {
            spec,
            key,
            final_powered,
            summary,
            series,
            hourly,
        })
    }

    /// The sampled series called `name`, if the artifact carries it.
    pub fn series(&self, name: &str) -> Option<&TimeSeries> {
        self.series.iter().find(|s| s.name() == name)
    }

    /// The hourly counts called `name`, if the artifact carries them.
    pub fn hourly(&self, name: &str) -> Option<&[u64]> {
        self.hourly
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, c)| c.as_slice())
    }
}

/// Content-addressed artifact store (one `.ecor` file per
/// [`RunSpec::cache_key`]).
#[derive(Debug, Clone)]
pub struct ArtifactCache {
    dir: Option<PathBuf>,
}

impl ArtifactCache {
    /// A cache rooted at `dir` (created on first store).
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: Some(dir.into()),
        }
    }

    /// A disabled cache: every lookup misses, nothing is stored.
    pub fn disabled() -> Self {
        Self { dir: None }
    }

    /// The conventional location, `<out>/cache`.
    pub fn under_out_dir(out: &Path) -> Self {
        Self::new(out.join("cache"))
    }

    /// Whether this cache stores anything at all.
    pub fn is_enabled(&self) -> bool {
        self.dir.is_some()
    }

    /// Path the artifact for `spec` lives at (None when disabled).
    pub fn path_for(&self, spec: &RunSpec) -> Option<PathBuf> {
        self.dir.as_ref().map(|d| d.join(spec.artifact_name()))
    }

    /// Loads the cached artifact for `spec`, verifying its seal and
    /// that the stored canonical spec matches: a damaged, old-format or
    /// colliding file is a miss, with the reason on stderr, never
    /// silently served.
    pub fn load(&self, spec: &RunSpec) -> Option<RunArtifact> {
        let path = self.path_for(spec)?;
        let bytes = std::fs::read(&path).ok()?;
        match RunArtifact::from_bytes(&bytes, &path.display().to_string()) {
            Ok(a) if a.spec == spec.canonical() => Some(a),
            Ok(_) => {
                eprintln!(
                    "[sweep] cache file {} describes a different spec; ignoring",
                    path.display()
                );
                None
            }
            Err(e) => {
                eprintln!("[sweep] stale cache at {}: {e}; re-running", path.display());
                None
            }
        }
    }

    /// Stores an artifact under its spec's key. The write goes through
    /// a per-job temporary file and an atomic rename, so a concurrent
    /// reader never observes a torn artifact.
    pub fn store(&self, spec: &RunSpec, artifact: &RunArtifact, job: usize) -> Result<(), String> {
        let Some(path) = self.path_for(spec) else {
            return Ok(());
        };
        let dir = path.parent().expect("cache path has a parent");
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        let tmp = path.with_extension(format!("tmp{job}"));
        std::fs::write(&tmp, artifact.to_bytes())
            .map_err(|e| format!("cannot write {}: {e}", tmp.display()))?;
        std::fs::rename(&tmp, &path)
            .map_err(|e| format!("cannot rename into {}: {e}", path.display()))
    }
}

/// How a single run's artifact was obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RunProvenance {
    /// Served from the artifact cache without simulating.
    Cached,
    /// Simulated from the beginning.
    Simulated,
    /// Simulated, restarting from a crash-safe snapshot.
    Resumed,
}

/// Outcome of [`run_grid`]: artifacts in submission order plus cache
/// accounting.
#[derive(Debug)]
pub struct SweepOutcome {
    /// One artifact per spec, in the order the specs were given.
    pub artifacts: Vec<RunArtifact>,
    /// Runs served from the artifact cache.
    pub cache_hits: usize,
    /// Runs actually simulated.
    pub executed: usize,
    /// Executed runs that restarted from a crash-safe snapshot rather
    /// than from the beginning. Always `<= executed`.
    pub resumed: usize,
}

/// Runs every spec of the grid on up to `workers` threads, serving
/// warm runs from `cache` and storing cold ones into it.
///
/// Each run draws from its own seeded RNG streams (the seed is part of
/// the spec), and results are collected in submission order, so the
/// returned artifacts — and anything aggregated from them — are
/// byte-identical for 1, 2 or 8 workers. Progress ticks go to stderr.
///
/// # Errors
/// Returns the first error in spec order (an unknown profile name or
/// an unwritable cache directory), after all workers finished.
pub fn run_grid(
    specs: &[RunSpec],
    workers: usize,
    cache: &ArtifactCache,
) -> Result<SweepOutcome, String> {
    run_grid_with_checkpoints(specs, workers, cache, None)
}

/// [`run_grid`] with per-run crash-safe snapshots: every cold run
/// writes a checkpoint next to its cache artifact (same name, `.ckpt`
/// extension) every `every_secs` of simulated time, and an interrupted
/// grid resumes each unfinished run from its last good snapshot on the
/// next invocation. Snapshots are deleted once the run's artifact is
/// safely in the cache — a warm grid leaves no `.ckpt` files behind.
/// `every_secs: None` is plain [`run_grid`].
pub fn run_grid_with_checkpoints(
    specs: &[RunSpec],
    workers: usize,
    cache: &ArtifactCache,
    every_secs: Option<f64>,
) -> Result<SweepOutcome, String> {
    let done = AtomicUsize::new(0);
    let total = specs.len();
    let results: Vec<Result<(RunArtifact, RunProvenance), String>> =
        run_replicas(specs.len(), workers.max(1), |i| {
            let spec = &specs[i];
            // Snapshots only make sense with a cache directory to put
            // them in (and an artifact to declare the run finished).
            let ckpt = every_secs
                .and_then(|_| cache.path_for(spec))
                .map(|p| p.with_extension("ckpt"));
            let outcome = match cache.load(spec) {
                Some(artifact) => Ok((artifact, RunProvenance::Cached)),
                None => {
                    let provenance = if ckpt.as_deref().is_some_and(|p| p.exists()) {
                        RunProvenance::Resumed
                    } else {
                        RunProvenance::Simulated
                    };
                    spec.execute_with_checkpoints(ckpt.as_deref(), every_secs)
                        .and_then(|a| cache.store(spec, &a, i).map(|()| (a, provenance)))
                        .inspect(|_| {
                            // The artifact is durable; the snapshot
                            // (and its crash-safety siblings) served
                            // its purpose.
                            if let Some(p) = &ckpt {
                                for path in [
                                    p.clone(),
                                    PathBuf::from(format!("{}.prev", p.display())),
                                    PathBuf::from(format!("{}.tmp", p.display())),
                                ] {
                                    let _ = std::fs::remove_file(path);
                                }
                            }
                        })
                }
            };
            let n = done.fetch_add(1, Ordering::Relaxed) + 1;
            if let Ok((_, provenance)) = &outcome {
                eprintln!(
                    "[sweep] {n}/{total} {} {}",
                    spec.artifact_name(),
                    match provenance {
                        RunProvenance::Cached => "(cached)",
                        RunProvenance::Resumed => "(resumed)",
                        RunProvenance::Simulated => "(simulated)",
                    }
                );
            }
            outcome
        });
    let mut artifacts = Vec::with_capacity(total);
    let (mut cache_hits, mut executed, mut resumed) = (0, 0, 0);
    for r in results {
        let (artifact, provenance) = r?;
        match provenance {
            RunProvenance::Cached => cache_hits += 1,
            RunProvenance::Simulated => executed += 1,
            RunProvenance::Resumed => {
                executed += 1;
                resumed += 1;
            }
        }
        artifacts.push(artifact);
    }
    // Sweep cache conservation: every spec is served exactly once,
    // either from the cache or by simulating it, and a resumed run is
    // a special case of an executed one.
    debug_assert_eq!(
        cache_hits + executed,
        artifacts.len(),
        "a run was neither cached nor simulated"
    );
    debug_assert_eq!(artifacts.len(), total, "a spec produced no artifact");
    debug_assert!(resumed <= executed, "a cached run cannot resume a snapshot");
    Ok(SweepOutcome {
        executed,
        artifacts,
        cache_hits,
        resumed,
    })
}

/// Cross-replication statistics of a sweep: one [`Replication`] per
/// summary scalar (plus `final_powered`), one [`EnsembleSeries`] per
/// sampled series, and one `Replication` per (counter, hour) cell.
#[derive(Debug)]
pub struct SweepAggregate {
    /// `(metric name, cross-seed statistics)` in fixed field order.
    pub metrics: Vec<(&'static str, Replication)>,
    /// Point-wise ensembles of the four sampled series.
    pub series: Vec<EnsembleSeries>,
    /// Per-hour ensembles of the four hourly counters.
    pub hourly: Vec<(String, Vec<Replication>)>,
}

impl SweepAggregate {
    /// The aggregated metric called `name`.
    pub fn metric(&self, name: &str) -> Option<&Replication> {
        self.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, r)| r)
    }

    /// The series ensemble called `name`.
    pub fn series(&self, name: &str) -> Option<&EnsembleSeries> {
        self.series.iter().find(|e| e.name() == name)
    }

    /// The per-hour replications of the counter called `name`.
    pub fn hourly(&self, name: &str) -> Option<&[Replication]> {
        self.hourly
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, r)| r.as_slice())
    }

    /// `metric,mean,ci95,std_dev,min,max,n` CSV of every scalar.
    pub fn metrics_csv(&self) -> String {
        let mut s = String::from("metric,mean,ci95,std_dev,min,max,n\n");
        for (name, r) in &self.metrics {
            let _ = writeln!(
                s,
                "{name},{},{},{},{},{},{}",
                r.mean(),
                r.ci95_half_width(),
                r.std_dev(),
                r.min(),
                r.max(),
                r.count()
            );
        }
        s
    }
}

/// Reduces replicated artifacts (one per seed, same scenario) to
/// cross-seed statistics. Accumulation follows the artifact order, so
/// feed it [`run_grid`] output (submission order) for schedule-
/// independent results.
pub fn aggregate(artifacts: &[RunArtifact]) -> SweepAggregate {
    let mut metrics: Vec<(&'static str, Replication)> = Vec::new();
    for artifact in artifacts {
        let values = summary_metrics(&artifact.summary);
        if metrics.is_empty() {
            metrics = values
                .iter()
                .map(|&(name, _)| (name, Replication::new()))
                .collect();
            // Derived per-seed quantities. Summing must happen before
            // the cross-seed statistics: the CI of a sum is not the
            // sum of the CIs.
            metrics.push(("final_powered", Replication::new()));
            metrics.push(("total_migrations", Replication::new()));
            metrics.push(("total_switches", Replication::new()));
        }
        for ((_, r), (_, v)) in metrics.iter_mut().zip(&values) {
            r.push(*v);
        }
        let s = &artifact.summary;
        let derived = [
            ("final_powered", artifact.final_powered as f64),
            (
                "total_migrations",
                (s.total_low_migrations + s.total_high_migrations) as f64,
            ),
            (
                "total_switches",
                (s.total_activations + s.total_hibernations) as f64,
            ),
        ];
        for (name, v) in derived {
            metrics
                .iter_mut()
                .find(|(n, _)| *n == name)
                .expect("derived metric registered")
                .1
                .push(v);
        }
    }
    let mut series: Vec<EnsembleSeries> = SERIES_NAMES
        .iter()
        .map(|&n| EnsembleSeries::new(n))
        .collect();
    for artifact in artifacts {
        for (e, name) in series.iter_mut().zip(SERIES_NAMES) {
            if let Some(ts) = artifact.series(name) {
                e.push_series(ts);
            }
        }
    }
    let mut hourly: Vec<(String, Vec<Replication>)> = Vec::new();
    for name in HOURLY_NAMES {
        let mut cells: Vec<Replication> = Vec::new();
        for artifact in artifacts {
            if let Some(counts) = artifact.hourly(name) {
                if cells.is_empty() {
                    cells = vec![Replication::new(); counts.len()];
                }
                assert_eq!(
                    cells.len(),
                    counts.len(),
                    "hourly '{name}': replication length mismatch"
                );
                for (cell, &c) in cells.iter_mut().zip(counts) {
                    cell.push(c as f64);
                }
            }
        }
        hourly.push((name.to_string(), cells));
    }
    SweepAggregate {
        metrics,
        series,
        hourly,
    }
}

/// Builds the `seeds`-replication grid `base_seed .. base_seed+seeds`
/// of one scenario/policy combination.
pub fn seed_grid(
    scenario: &ScenarioSpec,
    policy: PolicySpec,
    base_seed: u64,
    seeds: usize,
) -> Vec<RunSpec> {
    (0..seeds as u64)
        .map(|i| RunSpec::new(scenario.clone(), policy, base_seed + i))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecocloud_rng::{Rng, SeedableRng, StdRng};

    fn tiny_scenario() -> ScenarioSpec {
        ScenarioSpec::Custom {
            servers: 6,
            cores: None,
            vms: 24,
            hours: 1,
            migrations: true,
            server_utilization: false,
            churn: None,
        }
    }

    fn tmp_cache(tag: &str) -> ArtifactCache {
        let dir = std::env::temp_dir().join(format!("ecocloud_sweep_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        ArtifactCache::new(dir)
    }

    fn drop_cache(cache: &ArtifactCache) {
        if let Some(path) = cache.path_for(&RunSpec::new(tiny_scenario(), PolicySpec::EcoCloud, 0))
        {
            let _ = std::fs::remove_dir_all(path.parent().expect("cache dir"));
        }
    }

    #[test]
    fn canonical_string_and_hash_are_pinned() {
        // The cache key must never drift silently: a change to the
        // canonical encoding or the hash fold orphans every cached
        // artifact, so it has to be a visible, deliberate diff here.
        // (Bumping the workspace version in Cargo.toml re-pins both
        // lines — that is the intended invalidation lever.)
        let spec = RunSpec::new(tiny_scenario(), PolicySpec::EcoCloud, 42);
        assert_eq!(
            spec.canonical(),
            "ecocloud/0.1.0;scenario=custom(servers=6,cores=thirds,vms=24,hours=1,\
             migrations=on,util=off);policy=ecocloud;faults=off;control=off;seed=42"
        );
        assert_eq!(spec.cache_key(), 0x8b13_1df3_a19a_1575);
        assert_eq!(spec.artifact_name(), "ecocloud-s42-8b131df3a19a1575.ecor");
    }

    #[test]
    fn churn_tokens_extend_the_canonical_string() {
        let spec = RunSpec::new(
            ScenarioSpec::Custom {
                servers: 6,
                cores: None,
                vms: 24,
                hours: 1,
                migrations: true,
                server_utilization: false,
                churn: Some((ChurnKind::Spot, 50)),
            },
            PolicySpec::EcoCloud,
            42,
        );
        assert!(
            spec.canonical().contains("util=off,churn=spot,share=50)"),
            "canonical: {}",
            spec.canonical()
        );
    }

    #[test]
    fn every_spec_field_changes_the_key() {
        let base = RunSpec::new(tiny_scenario(), PolicySpec::EcoCloud, 1);
        let mut variants = vec![base.clone()];
        variants.push(RunSpec {
            seed: 2,
            ..base.clone()
        });
        variants.push(RunSpec {
            policy: PolicySpec::BestFit,
            ..base.clone()
        });
        variants.push(RunSpec {
            faults: "chaos".to_string(),
            ..base.clone()
        });
        variants.push(RunSpec {
            control_plane: "lossy".to_string(),
            ..base.clone()
        });
        variants.push(RunSpec {
            scenario: ScenarioSpec::Paper48h,
            ..base.clone()
        });
        variants.push(RunSpec {
            scenario: ScenarioSpec::Custom {
                servers: 6,
                cores: None,
                vms: 24,
                hours: 1,
                migrations: true,
                server_utilization: false,
                churn: Some((ChurnKind::Steady, 50)),
            },
            ..base.clone()
        });
        variants.push(RunSpec {
            scenario: ScenarioSpec::Custom {
                servers: 6,
                cores: None,
                vms: 24,
                hours: 1,
                migrations: true,
                server_utilization: false,
                churn: Some((ChurnKind::Flash, 50)),
            },
            ..base.clone()
        });
        variants.push(RunSpec {
            scenario: ScenarioSpec::Custom {
                servers: 6,
                cores: None,
                vms: 24,
                hours: 1,
                migrations: true,
                server_utilization: false,
                churn: Some((ChurnKind::Steady, 75)),
            },
            ..base.clone()
        });
        let mut keys: Vec<u64> = variants.iter().map(RunSpec::cache_key).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), variants.len(), "cache keys must all differ");
    }

    /// The sealed artifact decodes to the same printable form and
    /// re-seals to the same bytes: every float and counter is exact.
    #[test]
    fn artifact_text_roundtrip_is_exact() {
        let spec = RunSpec::new(tiny_scenario(), PolicySpec::EcoCloud, 7);
        let artifact = spec.execute().expect("tiny run");
        let bytes = artifact.to_bytes();
        let parsed = RunArtifact::from_bytes(&bytes, "mem").expect("parses");
        assert_eq!(parsed.to_text(), artifact.to_text());
        assert_eq!(parsed.to_bytes(), bytes);
        assert_eq!(parsed.key, spec.cache_key());
        assert_eq!(parsed.summary.energy_kwh, artifact.summary.energy_kwh);
        assert_eq!(parsed.series.len(), 4);
        assert_eq!(parsed.hourly.len(), 4);
        assert_eq!(
            parsed.series("active_servers").expect("series").values(),
            artifact.series("active_servers").expect("series").values()
        );
    }

    /// Counters are stored as `u64`, not through `f64`: one past 2^53
    /// has no `f64` of its own and must come back unchanged.
    #[test]
    fn artifact_counters_roundtrip_exactly() {
        let spec = RunSpec::new(tiny_scenario(), PolicySpec::EcoCloud, 7);
        let mut artifact = spec.execute().expect("tiny run");
        artifact.summary.events_processed = (1 << 53) + 1;
        artifact.final_powered = u64::MAX;
        artifact.hourly[0].1[0] = u64::MAX - 1;
        let back = RunArtifact::from_bytes(&artifact.to_bytes(), "mem").expect("parses");
        assert_eq!(back.summary.events_processed, (1 << 53) + 1);
        assert_eq!(back.final_powered, u64::MAX);
        assert_eq!(back.hourly[0].1[0], u64::MAX - 1);
    }

    /// A torn, flipped or version-1 (line text) artifact is refused by
    /// name: truncated, checksum, or not a sealed artifact at all.
    #[test]
    fn artifact_parser_rejects_corruption() {
        let spec = RunSpec::new(tiny_scenario(), PolicySpec::FirstFit, 3);
        let artifact = spec.execute().expect("tiny run");
        let bytes = artifact.to_bytes();
        let parse = |b: &[u8]| RunArtifact::from_bytes(b, "mem").map(|_| ());
        assert!(matches!(parse(b""), Err(CheckpointError::Truncated(_))));
        assert!(matches!(
            parse(artifact.to_text().as_bytes()),
            Err(CheckpointError::BadMagic(_))
        ));
        assert!(matches!(
            parse(&bytes[..bytes.len() - 5]),
            Err(CheckpointError::Truncated(_))
        ));
        let mut flipped = bytes.clone();
        flipped[bytes.len() / 2] ^= 0x10;
        assert!(matches!(
            parse(&flipped),
            Err(CheckpointError::BadChecksum(_))
        ));
        let mut v1 = bytes;
        v1[4..6].copy_from_slice(&1u16.to_le_bytes());
        assert_eq!(
            parse(&v1),
            Err(CheckpointError::FormatVersionMismatch {
                found: 1,
                expected: 2
            })
        );
    }

    /// Seeded bit flips in every section, re-sealed so the checksum
    /// holds: each decodes to an error or to an artifact that re-seals
    /// to the flipped file, and none panics.
    #[test]
    fn flipped_artifact_bits_are_refused_or_reencode() {
        let spec = RunSpec::new(tiny_scenario(), PolicySpec::EcoCloud, 5);
        let bytes = spec.execute().expect("tiny run").to_bytes();
        crate::test_support::assert_flips_refused_or_reencoded(
            &bytes,
            &ARTIFACT,
            450,
            30,
            |b| RunArtifact::from_bytes(b, "mem"),
            RunArtifact::to_bytes,
        );
    }

    /// One flipped byte in a cached artifact makes that run a miss: it
    /// is simulated again, and the aggregate equals the cold one.
    #[test]
    fn damaged_cache_file_is_rerun_not_served() {
        let cache = tmp_cache("damaged");
        let specs = seed_grid(&tiny_scenario(), PolicySpec::EcoCloud, 200, 2);
        let cold = run_grid(&specs, 2, &cache).expect("cold sweep");
        let path = cache.path_for(&specs[1]).expect("cache enabled");
        let mut bytes = std::fs::read(&path).expect("cached artifact");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&path, bytes).expect("damage");
        assert!(
            cache.load(&specs[1]).is_none(),
            "a damaged artifact was served"
        );
        let warm = run_grid(&specs, 2, &cache).expect("warm sweep");
        assert_eq!((warm.cache_hits, warm.executed), (1, 1));
        assert_eq!(
            aggregate(&warm.artifacts).metrics_csv(),
            aggregate(&cold.artifacts).metrics_csv()
        );
        assert!(cache.load(&specs[1]).is_some(), "the re-run was stored");
        drop_cache(&cache);
    }

    #[test]
    fn warm_cache_executes_zero_runs_and_reproduces_bytes() {
        let cache = tmp_cache("warm");
        let specs = seed_grid(&tiny_scenario(), PolicySpec::EcoCloud, 100, 3);
        let cold = run_grid(&specs, 2, &cache).expect("cold sweep");
        assert_eq!(cold.executed, 3);
        assert_eq!(cold.cache_hits, 0);
        assert_eq!(cold.resumed, 0, "no snapshots were requested");
        let warm = run_grid(&specs, 2, &cache).expect("warm sweep");
        assert_eq!(warm.executed, 0, "warm cache must execute zero runs");
        assert_eq!(warm.cache_hits, 3);
        assert_eq!(warm.resumed, 0);
        assert_eq!(
            aggregate(&warm.artifacts).metrics_csv(),
            aggregate(&cold.artifacts).metrics_csv(),
            "cache round-trip must not perturb the aggregate"
        );
        drop_cache(&cache);
    }

    #[test]
    fn aggregate_reports_cross_seed_statistics() {
        let specs = seed_grid(&tiny_scenario(), PolicySpec::EcoCloud, 10, 4);
        let outcome = run_grid(&specs, 4, &ArtifactCache::disabled()).expect("sweep");
        let agg = aggregate(&outcome.artifacts);
        let energy = agg.metric("energy_kwh").expect("energy metric");
        assert_eq!(energy.count(), 4);
        assert!(energy.mean() > 0.0);
        assert!(energy.ci95_half_width() >= 0.0);
        let active = agg.series("active_servers").expect("active ensemble");
        assert_eq!(active.replications(), 4);
        assert!(!active.times_secs().is_empty());
        let low = agg.hourly("low_migrations").expect("hourly cells");
        assert!(!low.is_empty());
        assert!(agg.metrics_csv().starts_with("metric,mean,ci95"));
        assert!(agg.metric("final_powered").is_some());
        let mig = agg.metric("total_migrations").expect("derived metric");
        assert_eq!(mig.count(), 4);
        assert!(agg.metric("total_switches").is_some());
    }

    // The acceptance criterion of this engine: for any grid shape
    // and any worker count, the parallel sweep merges in seed
    // order and is byte-identical to the sequential one.
    #[test]
    fn prop_parallel_merge_equals_sequential() {
        let mut rng = StdRng::seed_from_u64(25);
        for _ in 0..256 {
            let seeds = rng.gen_range(1usize..4);
            let workers = rng.gen_range(2usize..9);
            let servers = rng.gen_range(4usize..9);
            let vms = rng.gen_range(8usize..28);
            let base = rng.gen_range(0u64..1000);
            let scenario = ScenarioSpec::Custom {
                servers,
                cores: None,
                vms,
                hours: 1,
                migrations: true,
                server_utilization: false,
                churn: None,
            };
            let specs = seed_grid(&scenario, PolicySpec::EcoCloud, base, seeds);
            let cache = ArtifactCache::disabled();
            let sequential = run_grid(&specs, 1, &cache).expect("sequential");
            let parallel = run_grid(&specs, workers, &cache).expect("parallel");
            let seq_texts: Vec<String> = sequential
                .artifacts
                .iter()
                .map(RunArtifact::to_text)
                .collect();
            let par_texts: Vec<String> = parallel
                .artifacts
                .iter()
                .map(RunArtifact::to_text)
                .collect();
            assert_eq!(seq_texts, par_texts);
            assert_eq!(
                aggregate(&sequential.artifacts).metrics_csv(),
                aggregate(&parallel.artifacts).metrics_csv()
            );
        }
    }
}
