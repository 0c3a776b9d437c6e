//! Command-line interface (the `ecocloud-cli` binary).
//!
//! Hand-rolled argument parsing (no CLI dependency) kept in the
//! library so it is unit-testable. [`USAGE`] lists every command and
//! flag. Each command builds its runs through the library's one path:
//! a [`ScenarioSpec`] for the scenario and a [`PolicySpec`] for the
//! policy, the same values the `sweep` command caches.

use crate::scenarios::{ChurnKind, Scenario, DEFAULT_CHURN_SHARE};
use crate::sweep::{self, onoff, ArtifactCache, PolicySpec, ScenarioSpec};
use dcsim::{ControlPlaneConfig, SimResult};
use ecocloud_metrics::sparkline;
use ecocloud_metrics::table::fmt_num;
use ecocloud_metrics::Table;
use ecocloud_traces::{TraceConfig, TraceSet};
use std::path::PathBuf;

// Re-exported for callers that resolve profile names through the CLI.
pub use crate::scenarios::{control_plane_profile, fault_profile};

/// A parsed command.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Run one policy on one scenario.
    Run(RunArgs),
    /// Run every built-in policy on the same scenario.
    Compare(ScenarioArgs),
    /// Run one scenario under every fault profile (energy vs
    /// availability trade-off table).
    FaultSweep(ScenarioArgs),
    /// Run one scenario across message-loss probabilities (energy /
    /// SLA / placement-latency degradation table).
    LossSweep(ScenarioArgs),
    /// Replicated multi-seed sweep with cross-seed confidence
    /// intervals and a content-addressed run cache.
    Sweep(SweepArgs),
    /// Generate a trace file.
    TraceGen {
        /// Output path.
        out: PathBuf,
        /// Scenario dimensions (vms/hours/seed used).
        args: ScenarioArgs,
    },
    /// Print the Fig. 4/5 statistics of a trace file.
    TraceStats {
        /// Input path (binary trace file or PlanetLab directory).
        path: PathBuf,
    },
    /// Print usage.
    Help,
}

/// Scenario dimensions shared by several commands.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioArgs {
    /// Number of servers (fleet of 4/6/8-core thirds).
    pub servers: usize,
    /// Uniform cores per server; `None` keeps the thirds mix.
    pub cores: Option<u32>,
    /// Number of VMs.
    pub vms: usize,
    /// Simulated hours.
    pub hours: u64,
    /// Master seed.
    pub seed: u64,
}

impl ScenarioArgs {
    /// The [`ScenarioSpec::Custom`] with these dimensions.
    fn spec(
        &self,
        migrations: bool,
        server_utilization: bool,
        churn: Option<(ChurnKind, u8)>,
    ) -> ScenarioSpec {
        ScenarioSpec::Custom {
            servers: self.servers,
            cores: self.cores,
            vms: self.vms,
            hours: self.hours,
            migrations,
            server_utilization,
            churn,
        }
    }
}

impl Default for ScenarioArgs {
    fn default() -> Self {
        Self {
            servers: 100,
            cores: None,
            vms: 1500,
            hours: 24,
            seed: 42,
        }
    }
}

/// Arguments of the `run` command.
#[derive(Debug, Clone, PartialEq)]
pub struct RunArgs {
    /// Scenario dimensions.
    pub scenario: ScenarioArgs,
    /// Policy name: `ecocloud`, `best-fit`, `first-fit` or `random`.
    pub policy: String,
    /// Disable the migration procedure.
    pub no_migrations: bool,
    /// Record the structured event log.
    pub events: bool,
    /// Fault profile: `off`, `light`, `moderate` or `chaos`.
    pub faults: String,
    /// Control-plane profile: `off`, `ideal`, `lan` or `lossy`.
    pub control_plane: String,
    /// Open-system churn profile: `off`, `paper` (pins the full §III
    /// open scenario), or a kind (`steady`, `flash`, `batch`, `spot`)
    /// applied to the CLI dimensions.
    pub churn: String,
    /// Share of the diurnal swing carried by churn, in `[0, 1]`.
    pub churn_share: f64,
    /// Write crash-safe snapshots to this path (paired with
    /// `checkpoint_every_hours`).
    pub checkpoint: Option<PathBuf>,
    /// Snapshot cadence in simulated hours.
    pub checkpoint_every_hours: Option<f64>,
    /// Resume from this snapshot instead of starting fresh.
    pub resume: Option<PathBuf>,
}

/// Arguments of the `sweep` command.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepArgs {
    /// Scenario dimensions (`seed` is the base seed of the grid).
    pub scenario: ScenarioArgs,
    /// Policies to replicate (comma-separated on the CLI).
    pub policies: Vec<String>,
    /// Number of replications per policy (seeds `base..base+K`).
    pub seeds: usize,
    /// Worker threads; `None` uses the machine's parallelism.
    pub threads: Option<usize>,
    /// Disable the migration procedure.
    pub no_migrations: bool,
    /// Fault profile applied to every run.
    pub faults: String,
    /// Control-plane profile applied to every run.
    pub control_plane: String,
    /// Open-system churn kind (`off`, `steady`, `flash`, `batch`,
    /// `spot`) applied to every run.
    pub churn: String,
    /// Share of the diurnal swing carried by churn, in `[0, 1]`.
    pub churn_share: f64,
    /// Skip the artifact cache entirely.
    pub no_cache: bool,
    /// Artifact cache directory (default `out/cache`).
    pub cache_dir: Option<PathBuf>,
    /// Write the aggregate statistics as CSV here.
    pub csv: Option<PathBuf>,
    /// Per-run snapshot cadence in simulated hours; interrupted grids
    /// resume from the snapshots next to the cache artifacts.
    pub checkpoint_every_hours: Option<f64>,
}

/// Usage text.
pub const USAGE: &str = "\
ecocloud-cli — self-organizing VM consolidation simulator

USAGE:
  ecocloud-cli run   [--servers N] [--vms N] [--hours H] [--cores C]
                     [--policy ecocloud|best-fit|first-fit|random]
                     [--seed S] [--no-migrations] [--events]
                     [--faults off|light|moderate|chaos]
                     [--control-plane off|ideal|lan|lossy]
                     [--churn off|paper|steady|flash|batch|spot]
                     [--churn-share F]
                     [--checkpoint FILE --checkpoint-every HOURS]
                     [--resume FILE]
  ecocloud-cli compare     [--servers N] [--vms N] [--hours H] [--seed S]
  ecocloud-cli fault-sweep [--servers N] [--vms N] [--hours H] [--seed S]
  ecocloud-cli loss-sweep  [--servers N] [--vms N] [--hours H] [--seed S]
  ecocloud-cli sweep [--seeds K] [--seed BASE] [--policy P1,P2,...]
                     [--servers N] [--vms N] [--hours H] [--cores C]
                     [--threads T] [--no-migrations]
                     [--faults PROFILE] [--control-plane PROFILE]
                     [--churn off|steady|flash|batch|spot] [--churn-share F]
                     [--cache-dir DIR] [--no-cache] [--csv FILE]
                     [--checkpoint-every HOURS]
  ecocloud-cli trace-gen   --out FILE [--vms N] [--hours H] [--seed S]
  ecocloud-cli trace-stats FILE
  ecocloud-cli help
";

/// Parses an argument vector (without the program name).
pub fn parse(args: &[String]) -> Result<Command, String> {
    let mut it = args.iter().peekable();
    let Some(cmd) = it.next() else {
        return Ok(Command::Help);
    };
    let mut scenario = ScenarioArgs::default();
    let mut policy = PolicySpec::EcoCloud.name().to_string();
    let mut no_migrations = false;
    let mut events = false;
    let mut faults = "off".to_string();
    let mut control_plane = "off".to_string();
    let mut churn = "off".to_string();
    let mut churn_share = DEFAULT_CHURN_SHARE;
    let mut out = None;
    let mut seeds = 10usize;
    let mut threads = None;
    let mut no_cache = false;
    let mut cache_dir = None;
    let mut csv = None;
    let mut checkpoint = None;
    let mut checkpoint_every_hours = None;
    let mut resume = None;
    let mut positional = Vec::new();

    let take_value = |it: &mut std::iter::Peekable<std::slice::Iter<'_, String>>,
                      flag: &str|
     -> Result<String, String> {
        it.next()
            .cloned()
            .ok_or_else(|| format!("{flag} expects a value"))
    };

    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--servers" => {
                scenario.servers = take_value(&mut it, "--servers")?
                    .parse()
                    .map_err(|e| format!("--servers: {e}"))?
            }
            "--cores" => {
                scenario.cores = Some(
                    take_value(&mut it, "--cores")?
                        .parse()
                        .map_err(|e| format!("--cores: {e}"))?,
                )
            }
            "--vms" => {
                scenario.vms = take_value(&mut it, "--vms")?
                    .parse()
                    .map_err(|e| format!("--vms: {e}"))?
            }
            "--hours" => {
                scenario.hours = take_value(&mut it, "--hours")?
                    .parse()
                    .map_err(|e| format!("--hours: {e}"))?
            }
            "--seed" => {
                scenario.seed = take_value(&mut it, "--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--policy" => policy = take_value(&mut it, "--policy")?,
            "--no-migrations" => no_migrations = true,
            "--events" => events = true,
            "--faults" => faults = take_value(&mut it, "--faults")?,
            "--control-plane" => control_plane = take_value(&mut it, "--control-plane")?,
            "--churn" => churn = take_value(&mut it, "--churn")?,
            "--churn-share" => {
                churn_share = take_value(&mut it, "--churn-share")?
                    .parse()
                    .map_err(|e| format!("--churn-share: {e}"))?
            }
            "--out" => out = Some(PathBuf::from(take_value(&mut it, "--out")?)),
            "--seeds" => {
                seeds = take_value(&mut it, "--seeds")?
                    .parse()
                    .map_err(|e| format!("--seeds: {e}"))?
            }
            "--threads" => {
                threads = Some(
                    take_value(&mut it, "--threads")?
                        .parse()
                        .map_err(|e| format!("--threads: {e}"))?,
                )
            }
            "--no-cache" => no_cache = true,
            "--cache-dir" => cache_dir = Some(PathBuf::from(take_value(&mut it, "--cache-dir")?)),
            "--csv" => csv = Some(PathBuf::from(take_value(&mut it, "--csv")?)),
            "--checkpoint" => {
                checkpoint = Some(PathBuf::from(take_value(&mut it, "--checkpoint")?))
            }
            "--checkpoint-every" => {
                let h: f64 = take_value(&mut it, "--checkpoint-every")?
                    .parse()
                    .map_err(|e| format!("--checkpoint-every: {e}"))?;
                if !h.is_finite() || h <= 0.0 {
                    return Err(format!(
                        "--checkpoint-every must be a positive number of hours, got {h}"
                    ));
                }
                checkpoint_every_hours = Some(h);
            }
            "--resume" => resume = Some(PathBuf::from(take_value(&mut it, "--resume")?)),
            other if other.starts_with("--") => {
                return Err(format!("unknown flag '{other}'"));
            }
            other => positional.push(other.to_string()),
        }
    }

    match cmd.as_str() {
        "run" => {
            if checkpoint.is_some() != checkpoint_every_hours.is_some() {
                return Err("--checkpoint and --checkpoint-every must be used together".to_string());
            }
            Ok(Command::Run(RunArgs {
                scenario,
                policy,
                no_migrations,
                events,
                faults,
                control_plane,
                churn,
                churn_share,
                checkpoint,
                checkpoint_every_hours,
                resume,
            }))
        }
        "compare" => Ok(Command::Compare(scenario)),
        "fault-sweep" => Ok(Command::FaultSweep(scenario)),
        "loss-sweep" => Ok(Command::LossSweep(scenario)),
        "sweep" => {
            if seeds == 0 {
                return Err("--seeds must be at least 1".to_string());
            }
            if threads == Some(0) {
                return Err("--threads must be at least 1".to_string());
            }
            let policies: Vec<String> = policy
                .split(',')
                .map(|p| p.trim().to_string())
                .filter(|p| !p.is_empty())
                .collect();
            if policies.is_empty() {
                return Err("--policy expects at least one policy name".to_string());
            }
            Ok(Command::Sweep(SweepArgs {
                scenario,
                policies,
                seeds,
                threads,
                no_migrations,
                faults,
                control_plane,
                churn,
                churn_share,
                no_cache,
                cache_dir,
                csv,
                checkpoint_every_hours,
            }))
        }
        "trace-gen" => Ok(Command::TraceGen {
            out: out.ok_or("trace-gen requires --out FILE")?,
            args: scenario,
        }),
        "trace-stats" => Ok(Command::TraceStats {
            path: PathBuf::from(
                positional
                    .first()
                    .ok_or("trace-stats requires a FILE argument")?,
            ),
        }),
        "help" | "--help" | "-h" => Ok(Command::Help),
        other => Err(format!("unknown command '{other}'; try 'help'")),
    }
}

/// Validates `--churn-share` and converts it to the integer percent
/// the cache key and the snapshot spec carry. A share between two
/// whole percents is rejected rather than rounded: the run uses
/// exactly the share its spec records.
fn churn_share_pct(share: f64) -> Result<u8, String> {
    if !share.is_finite() || !(0.0..=1.0).contains(&share) {
        return Err(format!("--churn-share must be in [0, 1], got {share}"));
    }
    let pct = (share * 100.0).round() as u8;
    if f64::from(pct) / 100.0 != share {
        return Err(format!(
            "--churn-share must be a whole percent (such as 0.25), got {share}"
        ));
    }
    Ok(pct)
}

/// Resolves a `--churn` kind applied to the command's own dimensions:
/// `None` for `off`, else the kind and its share in whole percent.
/// `choices` ends the error message for an unknown name.
fn churn_kind(name: &str, share: f64, choices: &str) -> Result<Option<(ChurnKind, u8)>, String> {
    match name {
        "off" | "none" => Ok(None),
        other => {
            let kind = ChurnKind::parse(other)
                .map_err(|_| format!("unknown churn profile '{other}' {choices}"))?;
            Ok(Some((kind, churn_share_pct(share)?)))
        }
    }
}

/// The canonical spec string embedded in snapshots written by the
/// `run` command. A resume checks the stored string against the one
/// derived from the *current* invocation, so any flag that changes the
/// deterministic trajectory must appear here. The format is pinned by
/// a test: extend it, never reorder or drop fields.
pub fn run_spec_canonical(args: &RunArgs) -> String {
    format!(
        "run(servers={},cores={},vms={},hours={},seed={},policy={},migrations={},events={},faults={},control={},churn={},share={})",
        args.scenario.servers,
        args.scenario
            .cores
            .map_or_else(|| "thirds".to_string(), |c| c.to_string()),
        args.scenario.vms,
        args.scenario.hours,
        args.scenario.seed,
        args.policy,
        onoff(!args.no_migrations),
        onoff(args.events),
        args.faults,
        args.control_plane,
        args.churn,
        (args.churn_share * 100.0).round() as i64,
    )
}

/// Builds the `run` command's scenario and runs it, resuming and
/// writing snapshots as the arguments ask.
fn run(args: &RunArgs) -> Result<SimResult, String> {
    let policy = PolicySpec::parse(&args.policy)?;
    let seed = args.scenario.seed;
    let mut scenario = if args.churn == "paper" {
        // Pins the full §III open-system experiment (400 servers,
        // 6,000 mean VMs, 48 h) regardless of the dimension flags.
        let share = f64::from(churn_share_pct(args.churn_share)?) / 100.0;
        let mut s = Scenario::paper_48h_open(seed, ChurnKind::Steady, share);
        s.config.migrations_enabled = !args.no_migrations;
        s
    } else {
        let churn = churn_kind(
            &args.churn,
            args.churn_share,
            "(off|paper|steady|flash|batch|spot)",
        )?;
        args.scenario
            .spec(!args.no_migrations, true, churn)
            .build(seed)
    };
    scenario.config.record_events = args.events;
    scenario.config.faults = fault_profile(&args.faults, seed)?;
    scenario.config.control_plane = control_plane_profile(&args.control_plane, seed)?;
    // Validate up front so a bad configuration exits cleanly naming the
    // offending field instead of panicking inside the engine.
    scenario.config.validate().map_err(|e| e.to_string())?;
    eprintln!(
        "running {} servers / {} VMs / {} h, policy {} ...",
        scenario.fleet.len(),
        scenario.workload.spawns.len(),
        (scenario.config.duration_secs / 3600.0) as u64,
        args.policy
    );
    policy.run(
        &scenario,
        seed,
        &run_spec_canonical(args),
        args.checkpoint_every_hours.map(|h| h * 3600.0),
        args.checkpoint.as_deref(),
        args.resume.as_deref(),
    )
}

fn print_result(res: &mut SimResult) {
    println!("policy            : {}", res.policy_name);
    println!(
        "overall load      : {}",
        sparkline(res.stats.overall_load.values(), 56)
    );
    println!(
        "active servers    : {}",
        sparkline(res.stats.active_servers.values(), 56)
    );
    println!(
        "power draw        : {}",
        sparkline(res.stats.power_w.values(), 56)
    );
    let s = res.summary.clone();
    println!("energy            : {} kWh", fmt_num(s.energy_kwh, 2));
    println!(
        "mean active       : {} servers",
        fmt_num(s.mean_active_servers, 1)
    );
    println!(
        "migrations        : {} low + {} high",
        s.total_low_migrations, s.total_high_migrations
    );
    println!(
        "switches          : {} on / {} off",
        s.total_activations, s.total_hibernations
    );
    println!(
        "violations        : {} ({} % < 30 s)",
        s.n_violations,
        fmt_num(100.0 * res.stats.violations_shorter_than(30.0), 1)
    );
    println!(
        "worst over-demand : {} % of VM-time",
        fmt_num(s.max_overdemand_pct, 4)
    );
    println!("dropped VMs       : {}", s.dropped_vms);
    // Open-system lines only — closed-system output stays byte-stable.
    if s.vms_departed + s.vms_preempted > 0 {
        println!(
            "population        : {} arrived = {} departed + {} lost + {} resident",
            s.vms_arrived,
            s.vms_departed,
            s.vms_lost,
            s.vms_arrived.saturating_sub(s.vms_departed + s.vms_lost)
        );
        if s.vms_preempted > 0 {
            println!("spot preemptions  : {}", s.vms_preempted);
        }
        let hours = res
            .stats
            .low_migrations
            .per_hour(0)
            .len()
            .max(res.stats.high_migrations.per_hour(0).len());
        let mut busiest = (0usize, 0u64);
        for h in 0..hours {
            let c = res.stats.low_migrations.count_in_hour(h)
                + res.stats.high_migrations.count_in_hour(h);
            if c > busiest.1 {
                busiest = (h, c);
            }
        }
        println!(
            "busiest hour      : {} migrations (hour {})",
            busiest.1, busiest.0
        );
    }
    if s.server_crashes + s.wake_failures + s.migration_failures + s.vms_displaced > 0 {
        println!(
            "server crashes    : {} ({} repaired)",
            s.server_crashes, s.server_repairs
        );
        println!("wake failures     : {}", s.wake_failures);
        println!(
            "migration faults  : {} injected ({} aborts total)",
            s.migration_failures, s.migrations_aborted
        );
        println!(
            "displaced VMs     : {} ({} re-placed, {} lost)",
            s.vms_displaced, s.vms_replaced, s.vms_lost
        );
    }
    if s.exchanges_started > 0 {
        println!(
            "exchanges         : {} started = {} committed + {} abandoned + {} aborted",
            s.exchanges_started, s.exchanges_committed, s.exchanges_abandoned, s.exchanges_aborted
        );
        println!(
            "invitations       : {} sent = {} accept + {} decline + {} lost + {} late",
            s.invitations_sent,
            s.invite_accepts,
            s.invite_declines,
            s.invite_losses,
            s.invite_timeouts
        );
        println!(
            "commits           : {} sent, {} NACKed, {} lost, {} re-broadcasts",
            s.commits_sent, s.commit_nacks, s.commit_losses, s.exchange_rebroadcasts
        );
        println!("placement p99     : {} s", fmt_num(s.placement_p99_secs, 3));
    }
    if res.events.is_enabled() {
        println!("event log         : {} entries", res.events.len());
    }
}

/// Executes a parsed command. Returns an error string for exit-code 1.
pub fn execute(cmd: Command) -> Result<(), String> {
    match cmd {
        Command::Help => {
            println!("{USAGE}");
            Ok(())
        }
        Command::Run(args) => {
            print_result(&mut run(&args)?);
            Ok(())
        }
        Command::Compare(scenario_args) => {
            let seed = scenario_args.seed;
            let scenario = scenario_args.spec(true, true, None).build(seed);
            let mut t = Table::new([
                "policy",
                "servers",
                "kWh",
                "migrations",
                "switches",
                "overdemand%",
                "dropped",
            ]);
            for policy in PolicySpec::ALL {
                eprintln!("running {} ...", policy.name());
                let s = policy.run(&scenario, seed, "", None, None, None)?.summary;
                t.push_row([
                    policy.name().to_string(),
                    fmt_num(s.mean_active_servers, 1),
                    fmt_num(s.energy_kwh, 1),
                    format!("{}", s.total_low_migrations + s.total_high_migrations),
                    format!("{}", s.total_activations + s.total_hibernations),
                    fmt_num(s.max_overdemand_pct, 3),
                    format!("{}", s.dropped_vms),
                ]);
            }
            println!("{}", t.render());
            Ok(())
        }
        Command::FaultSweep(scenario_args) => {
            // Same scenario, ecoCloud policy, increasingly hostile
            // fault schedules: how much availability does the
            // consolidated fleet trade for its energy savings?
            let mut t = Table::new([
                "faults",
                "kWh",
                "servers",
                "crashes",
                "wake-fail",
                "mig-fail",
                "displaced",
                "lost",
                "avail%",
            ]);
            let seed = scenario_args.seed;
            for profile in ["off", "light", "moderate", "chaos"] {
                eprintln!("running fault profile {profile} ...");
                let mut scenario = scenario_args.spec(true, true, None).build(seed);
                scenario.config.faults = fault_profile(profile, seed)?;
                let s = PolicySpec::EcoCloud
                    .run(&scenario, seed, "", None, None, None)?
                    .summary;
                let served = scenario_args.vms as u64 - s.dropped_vms;
                let avail = if served > 0 {
                    100.0 * (served - s.vms_lost) as f64 / served as f64
                } else {
                    100.0
                };
                t.push_row([
                    profile.to_string(),
                    fmt_num(s.energy_kwh, 1),
                    fmt_num(s.mean_active_servers, 1),
                    format!("{}", s.server_crashes),
                    format!("{}", s.wake_failures),
                    format!("{}", s.migration_failures),
                    format!("{}", s.vms_displaced),
                    format!("{}", s.vms_lost),
                    fmt_num(avail, 2),
                ]);
            }
            println!("{}", t.render());
            Ok(())
        }
        Command::LossSweep(scenario_args) => {
            // Same scenario, ecoCloud policy, LAN-like message model
            // with increasing loss: how gracefully does the placement
            // protocol degrade when the network does?
            let mut t = Table::new([
                "loss%",
                "kWh",
                "servers",
                "violations",
                "p99 place s",
                "committed",
                "abandoned",
                "re-bcast",
                "dropped",
            ]);
            let seed = scenario_args.seed;
            for loss in [0.0, 0.01, 0.05, 0.2] {
                eprintln!("running loss probability {} ...", loss);
                let mut scenario = scenario_args.spec(true, true, None).build(seed);
                scenario.config.control_plane = ControlPlaneConfig::with_loss(loss, seed);
                scenario.config.validate().map_err(|e| e.to_string())?;
                let s = PolicySpec::EcoCloud
                    .run(&scenario, seed, "", None, None, None)?
                    .summary;
                t.push_row([
                    fmt_num(100.0 * loss, 0),
                    fmt_num(s.energy_kwh, 1),
                    fmt_num(s.mean_active_servers, 1),
                    format!("{}", s.n_violations),
                    fmt_num(s.placement_p99_secs, 3),
                    format!("{}", s.exchanges_committed),
                    format!("{}", s.exchanges_abandoned),
                    format!("{}", s.exchange_rebroadcasts),
                    format!("{}", s.dropped_vms),
                ]);
            }
            println!("{}", t.render());
            Ok(())
        }
        Command::Sweep(args) => {
            let churn = churn_kind(
                &args.churn,
                args.churn_share,
                "for sweep (off|steady|flash|batch|spot)",
            )?;
            let scenario_spec = args.scenario.spec(!args.no_migrations, false, churn);
            // Validate the profile names before any work happens.
            fault_profile(&args.faults, 0)?;
            control_plane_profile(&args.control_plane, 0)?;
            if args.checkpoint_every_hours.is_some() && args.no_cache {
                return Err(
                    "--checkpoint-every needs the artifact cache (snapshots live next to \
                     the cached artifacts); drop --no-cache"
                        .to_string(),
                );
            }
            let cache = if args.no_cache {
                ArtifactCache::disabled()
            } else {
                ArtifactCache::new(
                    args.cache_dir
                        .clone()
                        .unwrap_or_else(|| PathBuf::from("out/cache")),
                )
            };
            let threads = args.threads.unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(4)
            });
            let mut t = Table::new([
                "policy",
                "kWh",
                "±95%",
                "servers",
                "±95%",
                "migrations",
                "±95%",
                "overdemand%",
                "±95%",
                "dropped",
                "n",
            ]);
            let mut csv = String::from("policy,metric,mean,ci95,std_dev,min,max,n\n");
            let mut cache_hits = 0;
            let mut executed = 0;
            for name in &args.policies {
                let policy = PolicySpec::parse(name)?;
                let mut specs =
                    sweep::seed_grid(&scenario_spec, policy, args.scenario.seed, args.seeds);
                for spec in &mut specs {
                    spec.faults = args.faults.clone();
                    spec.control_plane = args.control_plane.clone();
                }
                let outcome = sweep::run_grid_with_checkpoints(
                    &specs,
                    threads,
                    &cache,
                    args.checkpoint_every_hours.map(|h| h * 3600.0),
                )?;
                cache_hits += outcome.cache_hits;
                executed += outcome.executed;
                let agg = sweep::aggregate(&outcome.artifacts);
                let metric = |m: &str| {
                    agg.metric(m)
                        .unwrap_or_else(|| panic!("aggregate lacks metric {m}"))
                        .clone()
                };
                let migrations = metric("total_migrations");
                let kwh = metric("energy_kwh");
                let servers = metric("mean_active_servers");
                let over = metric("max_overdemand_pct");
                let dropped = metric("dropped_vms");
                t.push_row([
                    name.clone(),
                    fmt_num(kwh.mean(), 1),
                    fmt_num(kwh.ci95_half_width(), 1),
                    fmt_num(servers.mean(), 1),
                    fmt_num(servers.ci95_half_width(), 1),
                    fmt_num(migrations.mean(), 0),
                    fmt_num(migrations.ci95_half_width(), 0),
                    fmt_num(over.mean(), 3),
                    fmt_num(over.ci95_half_width(), 3),
                    fmt_num(dropped.mean(), 1),
                    format!("{}", args.seeds),
                ]);
                for (metric_name, r) in &agg.metrics {
                    csv.push_str(&format!(
                        "{name},{metric_name},{},{},{},{},{},{}\n",
                        r.mean(),
                        r.ci95_half_width(),
                        r.std_dev(),
                        r.min(),
                        r.max(),
                        r.count()
                    ));
                }
            }
            println!("{}", t.render());
            // One fixed-format accounting line so scripts (and CI) can
            // assert cache behaviour: `sweep cache: H hits, E executed`.
            println!("sweep cache: {cache_hits} hits, {executed} executed");
            if let Some(path) = args.csv {
                if let Some(dir) = path.parent() {
                    if !dir.as_os_str().is_empty() {
                        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
                    }
                }
                std::fs::write(&path, csv).map_err(|e| e.to_string())?;
                eprintln!("wrote {}", path.display());
            }
            Ok(())
        }
        Command::TraceGen { out, args } => {
            let set = TraceSet::generate(TraceConfig {
                n_vms: args.vms,
                duration_secs: args.hours * 3600,
                ..TraceConfig::paper_48h(args.seed)
            });
            crate::io::save_binary(&set, &out).map_err(|e| e.to_string())?;
            println!(
                "wrote {} VMs x {} samples to {}",
                set.len(),
                set.config.steps(),
                out.display()
            );
            Ok(())
        }
        Command::TraceStats { path } => {
            // A directory is treated as a real PlanetLab day
            // (one file per VM, one CPU percentage per line).
            let set = if path.is_dir() {
                ecocloud_traces::planetlab::import_dir(&path, 300)
                    .map_err(|e| format!("cannot import {}: {e}", path.display()))?
            } else {
                crate::io::load_binary(&path)
                    .map_err(|e| format!("cannot read {}: {e}", path.display()))?
            };
            let h = ecocloud_traces::stats::avg_utilization_histogram(&set, 40);
            println!("VMs               : {}", set.len());
            println!("samples per VM    : {}", set.config.steps());
            println!(
                "avg util          : median {} %, p95 {} %, below 20 %: {} %",
                fmt_num(h.quantile(0.5), 1),
                fmt_num(h.quantile(0.95), 1),
                fmt_num(100.0 * h.fraction_below(20.0), 1)
            );
            println!(
                "deviation ±10 pts : {} % of samples",
                fmt_num(
                    100.0 * ecocloud_traces::stats::fraction_within_deviation(&set, 10.0),
                    1
                )
            );
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecocloud_rng::{Rng, SeedableRng, StdRng};

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_run_with_flags() {
        let cmd = parse(&argv(
            "run --servers 50 --vms 700 --hours 6 --policy best-fit --seed 9 --events",
        ))
        .expect("parses");
        match cmd {
            Command::Run(a) => {
                assert_eq!(a.scenario.servers, 50);
                assert_eq!(a.scenario.vms, 700);
                assert_eq!(a.scenario.hours, 6);
                assert_eq!(a.policy, "best-fit");
                assert_eq!(a.scenario.seed, 9);
                assert!(a.events);
                assert!(!a.no_migrations);
            }
            other => panic!("wrong command {other:?}"),
        }
    }

    #[test]
    fn parses_trace_gen() {
        let cmd = parse(&argv("trace-gen --out /tmp/t.ecot --vms 10")).expect("parses");
        match cmd {
            Command::TraceGen { out, args } => {
                assert_eq!(out, PathBuf::from("/tmp/t.ecot"));
                assert_eq!(args.vms, 10);
            }
            other => panic!("wrong command {other:?}"),
        }
    }

    #[test]
    fn parses_trace_stats_positional() {
        let cmd = parse(&argv("trace-stats some/file.ecot")).expect("parses");
        assert_eq!(
            cmd,
            Command::TraceStats {
                path: PathBuf::from("some/file.ecot")
            }
        );
    }

    #[test]
    fn rejects_unknown_flag_and_command() {
        assert!(parse(&argv("run --bogus 1")).is_err());
        assert!(parse(&argv("frobnicate")).is_err());
        assert!(parse(&argv("trace-gen --vms 5")).is_err(), "missing --out");
        assert!(
            parse(&argv("run --json out.json")).is_err(),
            "--json is gone"
        );
        assert!(
            parse(&argv("trace-gen --out t.ecot --format binary")).is_err(),
            "--format is gone"
        );
        assert!(parse(&argv("run --servers")).is_err(), "missing value");
    }

    /// 0–12 characters from `[a-z0-9=./-]`.
    fn random_token(rng: &mut StdRng) -> String {
        const CHARS: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789=./-";
        (0..rng.gen_range(0..=12))
            .map(|_| CHARS[rng.gen_range(0..CHARS.len())] as char)
            .collect()
    }

    #[test]
    fn prop_parse_never_panics() {
        let mut rng = StdRng::seed_from_u64(24);
        for _ in 0..256 {
            let tokens = (0..rng.gen_range(0..8))
                .map(|_| random_token(&mut rng))
                .collect::<Vec<_>>();
            // Arbitrary token soup must yield Ok or Err, never a panic.
            let _ = parse(&tokens);
        }
    }

    #[test]
    fn empty_args_is_help() {
        assert_eq!(parse(&[]).expect("ok"), Command::Help);
        assert_eq!(parse(&argv("help")).expect("ok"), Command::Help);
        assert_eq!(parse(&argv("--help")).expect("ok"), Command::Help);
    }

    #[test]
    fn build_scenario_respects_dimensions() {
        // The closed system the `run` command builds from its flags;
        // `run` itself turns on the event log for `--events`.
        let line = "run --servers 12 --cores 4 --vms 30 --hours 2 --seed 5 --no-migrations";
        for events in [false, true] {
            let line = if events {
                format!("{line} --events")
            } else {
                line.to_string()
            };
            let Command::Run(args) = parse(&argv(&line)).expect("parses") else {
                panic!("wrong command");
            };
            let s = args
                .scenario
                .spec(!args.no_migrations, true, None)
                .build(args.scenario.seed);
            assert_eq!(s.fleet.len(), 12);
            assert!(s.fleet.specs.iter().all(|sp| sp.cores == 4));
            assert_eq!(s.workload.spawns.len(), 30);
            assert_eq!(s.config.duration_secs, 7200.0);
            assert!(!s.config.migrations_enabled);
            assert!(s.config.record_server_utilization);
            let res = run(&args).expect("runs");
            assert_eq!(res.events.is_enabled(), events, "{line}");
        }
    }

    #[test]
    fn run_command_executes_end_to_end() {
        let cmd = parse(&argv(
            "run --servers 6 --vms 30 --hours 1 --policy ecocloud --seed 3",
        ))
        .expect("parses");
        execute(cmd).expect("runs");
    }

    #[test]
    fn compare_command_executes() {
        let cmd = parse(&argv("compare --servers 5 --vms 20 --hours 1")).expect("parses");
        execute(cmd).expect("runs");
    }

    #[test]
    fn parses_fault_flags_and_sweep() {
        match parse(&argv("run --faults chaos")).expect("parses") {
            Command::Run(a) => assert_eq!(a.faults, "chaos"),
            other => panic!("wrong command {other:?}"),
        }
        match parse(&argv("run")).expect("parses") {
            Command::Run(a) => assert_eq!(a.faults, "off"),
            other => panic!("wrong command {other:?}"),
        }
        assert_eq!(
            parse(&argv("fault-sweep --servers 9")).expect("parses"),
            Command::FaultSweep(ScenarioArgs {
                servers: 9,
                ..ScenarioArgs::default()
            })
        );
    }

    #[test]
    fn fault_profile_names_resolve() {
        assert!(!fault_profile("off", 1).expect("off").enabled());
        for name in ["light", "moderate", "chaos"] {
            let f = fault_profile(name, 1).expect(name);
            assert!(f.enabled(), "{name} should enable faults");
            f.validate().expect(name);
        }
        assert!(fault_profile("bogus", 1).is_err());
    }

    #[test]
    fn parses_control_plane_flag_and_loss_sweep() {
        match parse(&argv("run --control-plane lossy")).expect("parses") {
            Command::Run(a) => assert_eq!(a.control_plane, "lossy"),
            other => panic!("wrong command {other:?}"),
        }
        match parse(&argv("run")).expect("parses") {
            Command::Run(a) => assert_eq!(a.control_plane, "off"),
            other => panic!("wrong command {other:?}"),
        }
        assert_eq!(
            parse(&argv("loss-sweep --servers 7")).expect("parses"),
            Command::LossSweep(ScenarioArgs {
                servers: 7,
                ..ScenarioArgs::default()
            })
        );
    }

    #[test]
    fn control_plane_profile_names_resolve() {
        assert!(!control_plane_profile("off", 1).expect("off").enabled());
        for name in ["ideal", "lan", "lossy"] {
            let c = control_plane_profile(name, 1).expect(name);
            assert!(c.enabled(), "{name} should enable the control plane");
            c.validate().expect(name);
        }
        assert!(control_plane_profile("bogus", 1).is_err());
    }

    #[test]
    fn run_with_lossy_control_plane_and_chaos_executes() {
        let cmd = parse(&argv(
            "run --servers 6 --vms 30 --hours 1 --seed 4 --faults chaos --control-plane lossy",
        ))
        .expect("parses");
        execute(cmd).expect("runs");
    }

    #[test]
    fn run_with_faults_executes_and_reports() {
        let cmd = parse(&argv(
            "run --servers 6 --vms 30 --hours 2 --policy ecocloud --seed 3 --faults chaos",
        ))
        .expect("parses");
        execute(cmd).expect("runs");
    }

    #[test]
    fn fault_sweep_executes() {
        let cmd = parse(&argv("fault-sweep --servers 5 --vms 15 --hours 1")).expect("parses");
        execute(cmd).expect("runs");
    }

    #[test]
    fn parses_sweep_flags() {
        match parse(&argv(
            "sweep --seeds 4 --seed 7 --policy ecocloud,best-fit --threads 2 \
             --servers 20 --vms 80 --hours 2 --no-cache --csv out/s.csv",
        ))
        .expect("parses")
        {
            Command::Sweep(a) => {
                assert_eq!(a.seeds, 4);
                assert_eq!(a.scenario.seed, 7);
                assert_eq!(a.policies, vec!["ecocloud", "best-fit"]);
                assert_eq!(a.threads, Some(2));
                assert_eq!(a.scenario.servers, 20);
                assert!(a.no_cache);
                assert_eq!(a.csv, Some(PathBuf::from("out/s.csv")));
                assert!(a.cache_dir.is_none());
            }
            other => panic!("wrong command {other:?}"),
        }
        match parse(&argv("sweep")).expect("parses") {
            Command::Sweep(a) => {
                assert_eq!(a.seeds, 10);
                assert_eq!(a.policies, vec!["ecocloud"]);
                assert_eq!(a.threads, None);
                assert!(!a.no_cache);
            }
            other => panic!("wrong command {other:?}"),
        }
        assert!(parse(&argv("sweep --seeds 0")).is_err());
        assert!(parse(&argv("sweep --threads 0")).is_err());
        assert!(parse(&argv("sweep --policy ,")).is_err());
    }

    #[test]
    fn parses_churn_flags() {
        match parse(&argv("run --churn paper --churn-share 0.7")).expect("parses") {
            Command::Run(a) => {
                assert_eq!(a.churn, "paper");
                assert_eq!(a.churn_share, 0.7);
            }
            other => panic!("wrong command {other:?}"),
        }
        match parse(&argv("run")).expect("parses") {
            Command::Run(a) => {
                assert_eq!(a.churn, "off");
                assert_eq!(a.churn_share, DEFAULT_CHURN_SHARE);
            }
            other => panic!("wrong command {other:?}"),
        }
        match parse(&argv("sweep --churn flash")).expect("parses") {
            Command::Sweep(a) => assert_eq!(a.churn, "flash"),
            other => panic!("wrong command {other:?}"),
        }
        assert!(parse(&argv("run --churn-share x")).is_err());
    }

    #[test]
    fn unknown_churn_profile_is_an_error() {
        let cmd = parse(&argv("run --servers 6 --vms 30 --hours 1 --churn bogus")).expect("parses");
        let err = execute(cmd).expect_err("must fail");
        assert!(err.contains("bogus"), "error must name the profile: {err}");
        let cmd = parse(&argv("sweep --seeds 1 --churn paper")).expect("parses");
        let err = execute(cmd).expect_err("paper is run-only");
        assert!(err.contains("paper"), "error must name the profile: {err}");
        let cmd = parse(&argv(
            "run --servers 6 --vms 30 --hours 1 --churn steady \
                               --churn-share 1.5",
        ))
        .expect("parses");
        assert!(execute(cmd).is_err(), "share outside [0, 1] must fail");
    }

    #[test]
    fn churn_share_must_be_a_whole_percent() {
        // The snapshot spec records the share in whole percent, so a
        // share between two percents would run one trajectory under
        // another's spec (and resume the other's snapshot).
        let cmd = parse(&argv(
            "run --servers 6 --vms 30 --hours 1 --churn steady --churn-share 0.255",
        ))
        .expect("parses");
        let err = execute(cmd).expect_err("must fail");
        assert!(
            err.contains("--churn-share") && err.contains("0.255"),
            "{err}"
        );
        let cmd =
            parse(&argv("sweep --seeds 1 --churn steady --churn-share 0.255")).expect("parses");
        assert!(execute(cmd).is_err(), "sweep must reject it too");
        for share in [0.0, 0.07, 0.29, 0.6, 1.0] {
            assert_eq!(
                f64::from(churn_share_pct(share).expect("whole")) / 100.0,
                share
            );
        }
    }

    #[test]
    fn run_command_matches_run_spec_execute() {
        // The CLI `run` path and the sweep's `RunSpec::execute` build
        // the same scenario and run the same policy, so their summaries
        // agree for closed and churned dimension sets alike.
        for (line, churn) in [
            (
                "run --servers 8 --vms 40 --hours 2 --seed 6 --policy best-fit",
                None,
            ),
            (
                "run --servers 8 --vms 40 --hours 2 --seed 6 --churn spot --churn-share 0.5",
                Some((ChurnKind::Spot, 50)),
            ),
        ] {
            let Command::Run(args) = parse(&argv(line)).expect("parses") else {
                panic!("wrong command");
            };
            let via_cli = run(&args).expect("cli run");
            let spec = sweep::RunSpec::new(
                args.scenario.spec(true, false, churn),
                PolicySpec::parse(&args.policy).expect("policy"),
                args.scenario.seed,
            );
            let via_spec = spec.execute().expect("spec run");
            assert_eq!(
                format!("{:?}", via_cli.summary),
                format!("{:?}", via_spec.summary),
                "{line}"
            );
        }
    }

    #[test]
    fn build_scenario_open_respects_dimensions() {
        // The open system `run --churn steady` builds from its flags.
        let a = ScenarioArgs {
            servers: 10,
            cores: Some(6),
            vms: 60,
            hours: 2,
            seed: 5,
        };
        let churn = churn_kind("steady", 0.5, "").expect("steady parses");
        assert_eq!(churn, Some((ChurnKind::Steady, 50)));
        let s = a.spec(false, true, churn).build(a.seed);
        assert_eq!(s.fleet.len(), 10);
        assert!(s.fleet.specs.iter().all(|sp| sp.cores == 6));
        assert_eq!(s.config.duration_secs, 7200.0);
        assert!(!s.config.migrations_enabled);
        assert!(s.config.record_server_utilization);
        assert!(s.workload.wrap_traces);
        let quiet = a.spec(false, false, churn).build(a.seed);
        assert!(!quiet.config.record_server_utilization);
    }

    #[test]
    fn run_with_churn_executes_end_to_end() {
        let cmd = parse(&argv(
            "run --servers 8 --vms 40 --hours 2 --seed 6 --churn spot",
        ))
        .expect("parses");
        execute(cmd).expect("runs");
    }

    #[test]
    fn sweep_executes_and_caches() {
        let dir = std::env::temp_dir().join(format!("ecocloud_cli_sweep_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = dir.join("cache");
        let csv = dir.join("sweep.csv");
        let line = format!(
            "sweep --servers 6 --vms 24 --hours 1 --seeds 2 --seed 5 --threads 2 \
             --policy ecocloud --cache-dir {} --csv {}",
            cache.display(),
            csv.display()
        );
        execute(parse(&argv(&line)).expect("parses")).expect("cold sweep runs");
        let body = std::fs::read_to_string(&csv).expect("csv written");
        assert!(body.starts_with("policy,metric,mean,ci95"));
        assert!(body.contains("ecocloud,energy_kwh,"));
        assert_eq!(
            std::fs::read_dir(&cache).expect("cache dir").count(),
            2,
            "one artifact per seed"
        );
        // Second invocation must be served entirely from the cache and
        // reproduce the same CSV bytes.
        execute(parse(&argv(&line)).expect("parses")).expect("warm sweep runs");
        assert_eq!(std::fs::read_to_string(&csv).expect("csv"), body);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn parses_checkpoint_flags() {
        match parse(&argv(
            "run --servers 6 --vms 20 --hours 2 --checkpoint /tmp/a.ckpt \
             --checkpoint-every 0.5 --resume /tmp/a.ckpt",
        ))
        .expect("parses")
        {
            Command::Run(a) => {
                assert_eq!(a.checkpoint, Some(PathBuf::from("/tmp/a.ckpt")));
                assert_eq!(a.checkpoint_every_hours, Some(0.5));
                assert_eq!(a.resume, Some(PathBuf::from("/tmp/a.ckpt")));
            }
            other => panic!("wrong command {other:?}"),
        }
        match parse(&argv("run")).expect("parses") {
            Command::Run(a) => {
                assert!(a.checkpoint.is_none());
                assert!(a.checkpoint_every_hours.is_none());
                assert!(a.resume.is_none());
            }
            other => panic!("wrong command {other:?}"),
        }
        match parse(&argv("sweep --checkpoint-every 1")).expect("parses") {
            Command::Sweep(a) => assert_eq!(a.checkpoint_every_hours, Some(1.0)),
            other => panic!("wrong command {other:?}"),
        }
        // Cadence must be a positive number of hours.
        assert!(parse(&argv("run --checkpoint-every 0")).is_err());
        assert!(parse(&argv("run --checkpoint-every -1")).is_err());
        assert!(parse(&argv("run --checkpoint-every nope")).is_err());
        // The pair must come together on `run`.
        assert!(parse(&argv("run --checkpoint /tmp/a.ckpt")).is_err());
        assert!(parse(&argv("run --checkpoint-every 1")).is_err());
    }

    #[test]
    fn sweep_checkpoints_require_the_cache() {
        let cmd = parse(&argv("sweep --seeds 1 --checkpoint-every 1 --no-cache")).expect("parses");
        let err = execute(cmd).expect_err("must fail");
        assert!(err.contains("--no-cache"), "error must explain: {err}");
    }

    #[test]
    fn run_spec_canonical_is_pinned() {
        // The spec string is an on-disk compatibility surface (it is
        // embedded in snapshots); this test pins its exact format.
        let cmd = parse(&argv(
            "run --servers 6 --vms 30 --hours 2 --policy best-fit --seed 9 \
             --faults light --control-plane lan --churn spot --churn-share 0.25",
        ))
        .expect("parses");
        let Command::Run(args) = cmd else {
            panic!("wrong command");
        };
        assert_eq!(
            run_spec_canonical(&args),
            "run(servers=6,cores=thirds,vms=30,hours=2,seed=9,policy=best-fit,\
             migrations=on,events=off,faults=light,control=lan,churn=spot,share=25)"
        );
        let Command::Run(defaults) = parse(&argv("run")).expect("parses") else {
            panic!("wrong command");
        };
        assert_eq!(
            run_spec_canonical(&defaults),
            "run(servers=100,cores=thirds,vms=1500,hours=24,seed=42,policy=ecocloud,\
             migrations=on,events=off,faults=off,control=off,churn=off,share=60)"
        );
    }

    #[test]
    fn resume_from_missing_file_is_a_named_error() {
        let cmd = parse(&argv(
            "run --servers 6 --vms 20 --hours 1 --resume /nonexistent/dir/x.ckpt",
        ))
        .expect("parses");
        let err = execute(cmd).expect_err("must fail");
        assert!(
            err.contains("/nonexistent/dir/x.ckpt"),
            "error must name the snapshot file: {err}"
        );
    }

    #[test]
    fn resume_from_corrupt_file_is_a_named_error() {
        let dir = std::env::temp_dir().join(format!("ecocloud_cli_ckpt_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("garbage.ckpt");
        std::fs::write(&path, b"not a checkpoint at all").expect("write");
        let cmd = parse(&argv(&format!(
            "run --servers 6 --vms 20 --hours 1 --resume {}",
            path.display()
        )))
        .expect("parses");
        let err = execute(cmd).expect_err("must fail");
        assert!(
            err.contains("garbage.ckpt"),
            "error must name the snapshot file: {err}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_then_resume_runs_end_to_end() {
        let dir = std::env::temp_dir().join(format!("ecocloud_cli_resume_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("run.ckpt");
        let base = "run --servers 6 --vms 24 --hours 2 --seed 11";
        execute(
            parse(&argv(&format!(
                "{base} --checkpoint {} --checkpoint-every 1",
                path.display()
            )))
            .expect("parses"),
        )
        .expect("checkpointed run");
        assert!(path.exists(), "snapshot must have been written");
        execute(parse(&argv(&format!("{base} --resume {}", path.display()))).expect("parses"))
            .expect("resumed run");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_with_mismatched_spec_is_explained() {
        let dir =
            std::env::temp_dir().join(format!("ecocloud_cli_mismatch_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("run.ckpt");
        execute(
            parse(&argv(&format!(
                "run --servers 6 --vms 24 --hours 2 --seed 11 \
                 --checkpoint {} --checkpoint-every 1",
                path.display()
            )))
            .expect("parses"),
        )
        .expect("checkpointed run");
        // Same snapshot, different seed: the run it describes is not
        // the run being resumed, and the error must say so.
        let err = execute(
            parse(&argv(&format!(
                "run --servers 6 --vms 24 --hours 2 --seed 12 --resume {}",
                path.display()
            )))
            .expect("parses"),
        )
        .expect_err("must fail");
        assert!(
            err.contains("seed=11") && err.contains("seed=12"),
            "error must show both specs: {err}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sweep_resumes_interrupted_grid_from_snapshots() {
        let dir =
            std::env::temp_dir().join(format!("ecocloud_sweep_resume_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = ArtifactCache::new(dir.join("cache"));
        let spec = sweep::RunSpec::new(
            ScenarioSpec::Custom {
                servers: 6,
                cores: None,
                vms: 24,
                hours: 2,
                migrations: true,
                server_utilization: false,
                churn: None,
            },
            PolicySpec::EcoCloud,
            11,
        );
        let ckpt = cache
            .path_for(&spec)
            .expect("cache enabled")
            .with_extension("ckpt");
        std::fs::create_dir_all(ckpt.parent().expect("parent")).expect("mkdir");
        // Simulate an interrupted worker: a half-way snapshot exists
        // but no artifact does.
        let scenario = spec.scenario.build(spec.seed);
        let mut sim = dcsim::Simulation::new(
            scenario.fleet.clone(),
            scenario.workload.clone(),
            scenario.config.clone(),
            ecocloud_core::EcoCloudPolicy::paper(spec.seed),
        );
        while sim.now() < 3600.0 && sim.step().is_some() {}
        sim.checkpoint(&spec.canonical(), 0)
            .write_atomic(&ckpt)
            .expect("snapshot");
        // The grid must pick the snapshot up, finish the run, and
        // produce the same artifact as an uninterrupted execution.
        let outcome =
            sweep::run_grid_with_checkpoints(std::slice::from_ref(&spec), 1, &cache, Some(3600.0))
                .expect("grid");
        assert_eq!(outcome.executed, 1);
        assert!(!ckpt.exists(), "snapshot must be cleaned up");
        let straight = spec.execute().expect("straight run");
        assert_eq!(
            format!("{:?}", outcome.artifacts[0].summary),
            format!("{:?}", straight.summary),
            "resumed artifact must equal the uninterrupted one"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn trace_roundtrip_via_cli() {
        let dir = std::env::temp_dir().join("ecocloud_cli_test");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("t.ecot");
        let gen = parse(&argv(&format!(
            "trace-gen --out {} --vms 5 --hours 1",
            path.display()
        )))
        .expect("parses");
        execute(gen).expect("generates");
        let stats = parse(&argv(&format!("trace-stats {}", path.display()))).expect("parses");
        execute(stats).expect("reads");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// `trace-stats` refuses a trace file with one byte flipped, naming
    /// the checksum, and a version-2 file, naming the version.
    #[test]
    fn trace_stats_refuses_flipped_and_old_files_by_name() {
        let dir =
            std::env::temp_dir().join(format!("ecocloud_cli_bad_trace_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("t.ecot");
        let gen = format!("trace-gen --out {} --vms 5 --hours 1", path.display());
        execute(parse(&argv(&gen)).expect("parses")).expect("generates");
        let mut bytes = std::fs::read(&path).expect("read back");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        let flipped = dir.join("flipped.ecot");
        std::fs::write(&flipped, &bytes).expect("write");
        let v2 = dir.join("v2.ecot");
        std::fs::write(
            &v2,
            [b"ECOT".as_slice(), &2u16.to_le_bytes(), &[0; 128]].concat(),
        )
        .expect("write");
        for (file, reason) in [(&flipped, "checksum"), (&v2, "format version 2")] {
            let stats = parse(&argv(&format!("trace-stats {}", file.display()))).expect("parses");
            let err = execute(stats).expect_err("a damaged file must be refused");
            assert!(
                err.contains(reason) && err.contains(&file.display().to_string()),
                "{err}"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
