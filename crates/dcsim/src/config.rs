//! Simulation configuration.

use crate::sla::OverloadSharing;

/// A configuration field failed validation.
///
/// Returned by [`SimConfig::validate`], [`FaultConfig::validate`] and
/// [`ControlPlaneConfig::validate`]; [`field`](Self::field) names the
/// offending knob so callers (e.g. the CLI) can report it precisely
/// and exit cleanly instead of panicking.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    /// Name of the offending configuration field.
    pub field: &'static str,
    /// Human-readable description of the constraint that was violated.
    pub message: &'static str,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid `{}`: {}", self.field, self.message)
    }
}

impl std::error::Error for ConfigError {}

/// Shorthand: fail validation naming the offending field.
fn reject(field: &'static str, message: &'static str) -> Result<(), ConfigError> {
    Err(ConfigError { field, message })
}

/// Deterministic fault-injection schedule.
///
/// Faults are first-class events drawn from a dedicated RNG stream
/// seeded by [`FaultConfig::seed`], fully independent of the policy
/// and workload streams: enabling faults never perturbs the placement
/// RNG, and disabling them ([`FaultConfig::none`], the default) keeps
/// fixed-seed runs byte-identical to a build without the subsystem —
/// no stream is created, no event is scheduled.
///
/// Three fault classes are modelled:
///
/// * **server crashes** — exponential inter-arrival times with mean
///   [`crash_mtbf_secs`](Self::crash_mtbf_secs) across the whole
///   fleet; the victim is drawn uniformly among powered servers. A
///   crashed server drops its VMs (the engine re-places them through
///   the normal assignment procedure) and stays down for
///   [`crash_repair_secs`](Self::crash_repair_secs) before returning
///   to the hibernated pool.
/// * **wake failures** — each wake transition fails with probability
///   [`wake_failure_prob`](Self::wake_failure_prob); the engine
///   retries with exponential backoff (doubling from
///   [`wake_retry_backoff_secs`](Self::wake_retry_backoff_secs), capped
///   at [`wake_retry_backoff_cap_secs`](Self::wake_retry_backoff_cap_secs))
///   up to [`wake_retry_limit`](Self::wake_retry_limit) times, then
///   gives up: pending VMs are re-placed and the server hibernates.
/// * **migration failures** — a finishing live migration fails with
///   probability [`migration_failure_prob`](Self::migration_failure_prob)
///   and is rolled back: the source keeps the VM, the destination
///   reservation is released.
#[derive(Debug, Clone)]
pub struct FaultConfig {
    /// Mean time between server crashes across the whole fleet,
    /// seconds. `f64::INFINITY` disables crashes.
    pub crash_mtbf_secs: f64,
    /// Downtime of a crashed server before it rejoins the hibernated
    /// pool, seconds.
    pub crash_repair_secs: f64,
    /// Probability that a wake transition fails at its completion
    /// instant. 0 disables wake failures.
    pub wake_failure_prob: f64,
    /// Maximum number of wake retries before the engine gives up,
    /// re-places the pending VMs and hibernates the server.
    pub wake_retry_limit: u32,
    /// Backoff before the first wake retry, seconds; doubles on every
    /// consecutive failure.
    pub wake_retry_backoff_secs: f64,
    /// Upper bound of the wake-retry backoff, seconds.
    pub wake_retry_backoff_cap_secs: f64,
    /// Probability that a finishing migration fails and is rolled
    /// back. 0 disables migration failures.
    pub migration_failure_prob: f64,
    /// Seed of the dedicated fault RNG stream.
    pub seed: u64,
}

impl Default for FaultConfig {
    fn default() -> Self {
        Self::none()
    }
}

impl FaultConfig {
    /// No faults at all — the default. Runs are byte-identical to a
    /// simulator without the fault subsystem.
    pub fn none() -> Self {
        Self {
            crash_mtbf_secs: f64::INFINITY,
            crash_repair_secs: 1800.0,
            wake_failure_prob: 0.0,
            wake_retry_limit: 3,
            wake_retry_backoff_secs: 60.0,
            wake_retry_backoff_cap_secs: 480.0,
            migration_failure_prob: 0.0,
            seed: 0,
        }
    }

    /// Rare faults: about one crash per simulated day, occasional wake
    /// and migration hiccups.
    pub fn light(seed: u64) -> Self {
        Self {
            crash_mtbf_secs: 24.0 * 3600.0,
            crash_repair_secs: 3600.0,
            wake_failure_prob: 0.05,
            migration_failure_prob: 0.02,
            seed,
            ..Self::none()
        }
    }

    /// Frequent faults: a crash every few hours plus noticeable wake
    /// and migration failure rates.
    pub fn moderate(seed: u64) -> Self {
        Self {
            crash_mtbf_secs: 6.0 * 3600.0,
            crash_repair_secs: 1800.0,
            wake_failure_prob: 0.15,
            migration_failure_prob: 0.05,
            seed,
            ..Self::none()
        }
    }

    /// Aggressive chaos profile for stress tests: crashes every
    /// simulated hour, nearly a third of wakes fail, migrations abort
    /// often.
    pub fn chaos(seed: u64) -> Self {
        Self {
            crash_mtbf_secs: 3600.0,
            crash_repair_secs: 600.0,
            wake_failure_prob: 0.3,
            migration_failure_prob: 0.15,
            seed,
            ..Self::none()
        }
    }

    /// True when any fault class can fire. When false the engine
    /// creates no fault RNG and schedules no fault events.
    pub fn enabled(&self) -> bool {
        self.crash_mtbf_secs.is_finite()
            || self.wake_failure_prob > 0.0
            || self.migration_failure_prob > 0.0
    }

    /// Validates the schedule, reporting the first offending field.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.crash_mtbf_secs.is_nan() || self.crash_mtbf_secs <= 0.0 {
            return reject(
                "crash_mtbf_secs",
                "crash MTBF must be positive (use infinity to disable)",
            );
        }
        if !(self.crash_repair_secs >= 0.0 && self.crash_repair_secs.is_finite()) {
            return reject(
                "crash_repair_secs",
                "crash repair time must be finite and >= 0",
            );
        }
        if !(0.0..=1.0).contains(&self.wake_failure_prob) {
            return reject(
                "wake_failure_prob",
                "wake failure probability must be in [0, 1]",
            );
        }
        if !(0.0..=1.0).contains(&self.migration_failure_prob) {
            return reject(
                "migration_failure_prob",
                "migration failure probability must be in [0, 1]",
            );
        }
        if !(self.wake_retry_backoff_secs >= 0.0 && self.wake_retry_backoff_secs.is_finite()) {
            return reject(
                "wake_retry_backoff_secs",
                "wake retry backoff must be finite and >= 0",
            );
        }
        // A NaN or infinite cap would not bound the doubling backoff:
        // `f64::min` ignores NaN, and the retry time reaches infinity.
        if !(self.wake_retry_backoff_cap_secs >= self.wake_retry_backoff_secs
            && self.wake_retry_backoff_cap_secs.is_finite())
        {
            return reject(
                "wake_retry_backoff_cap_secs",
                "wake retry backoff cap must be finite and >= the base backoff",
            );
        }
        Ok(())
    }
}

/// Control-plane message model for the placement exchange.
///
/// The paper's assignment procedure (§II) is a distributed protocol:
/// the manager broadcasts invitations, servers answer Bernoulli-trial
/// acceptances, and the manager commits one. With this subsystem
/// enabled the engine resolves each placement as that multi-event
/// exchange — every message carries an independent uniform latency
/// draw from `[latency_min_secs, latency_max_secs]` and is lost with
/// probability [`loss_prob`](Self::loss_prob) per leg; acceptances
/// arriving after [`accept_timeout_secs`](Self::accept_timeout_secs)
/// are ignored; a commit is re-checked against the destination's
/// *current* state on arrival and NACKed when the offer went stale.
///
/// All message draws come from a dedicated RNG stream seeded by
/// [`seed`](Self::seed) — independent of the policy and fault
/// streams, so the same placement decisions are exercised under any
/// message model. [`ControlPlaneConfig::off`] (the default) creates
/// no stream and schedules no message events: fixed-seed runs stay
/// byte-identical to a simulator without the subsystem.
///
/// Under [`ideal`](Self::ideal) and [`lan`](Self::lan) every
/// invitation round is *certain*: no leg can be lost, and two of the
/// largest latency draws fit the collection window, so the engine
/// settles each round in O(1) and jumps the stream past its draws
/// (DESIGN.md §11). [`lossy`](Self::lossy) and
/// [`with_loss`](Self::with_loss) with a loss above zero deliver
/// every invitation message by message.
#[derive(Debug, Clone, PartialEq)]
pub struct ControlPlaneConfig {
    /// Master switch. When false, placements resolve atomically
    /// against a consistent cluster view as before.
    pub enabled: bool,
    /// Lower bound of the per-message one-way latency, seconds.
    pub latency_min_secs: f64,
    /// Upper bound of the per-message one-way latency, seconds. Equal
    /// bounds give a deterministic latency with no RNG draw.
    pub latency_max_secs: f64,
    /// Probability that any single message leg (invitation, response,
    /// commit, NACK) is lost.
    pub loss_prob: f64,
    /// The manager's acceptance-collection window: responses arriving
    /// later than this after the broadcast are counted as timed out.
    /// Also bounds how long the manager waits for a commit outcome
    /// before assuming the commit (or its NACK) was lost.
    pub accept_timeout_secs: f64,
    /// Total number of invitation rounds per exchange (>= 1); the
    /// first broadcast counts. Mirrors the policy's assignment-rounds
    /// knob when the protocol replays it message by message.
    pub broadcast_limit: u32,
    /// Backoff before the second broadcast, seconds; doubles on every
    /// further round, jittered uniformly in `[0.5x, 1.5x)`.
    pub rebroadcast_backoff_secs: f64,
    /// Upper bound of the re-broadcast backoff, seconds (pre-jitter).
    pub rebroadcast_backoff_cap_secs: f64,
    /// Seed of the dedicated control-plane RNG stream.
    pub seed: u64,
}

impl Default for ControlPlaneConfig {
    fn default() -> Self {
        Self::off()
    }
}

impl ControlPlaneConfig {
    /// Control plane disabled — the default. Placement stays a single
    /// atomic call and runs are byte-identical to a simulator without
    /// the subsystem.
    pub fn off() -> Self {
        Self {
            enabled: false,
            latency_min_secs: 0.0,
            latency_max_secs: 0.0,
            loss_prob: 0.0,
            accept_timeout_secs: 0.0,
            broadcast_limit: 2,
            rebroadcast_backoff_secs: 0.0,
            rebroadcast_backoff_cap_secs: 0.0,
            seed: 0,
        }
    }

    /// Protocol enabled but physically ideal: zero latency, zero loss,
    /// zero collection window. Exchanges resolve within a single
    /// simulation instant; useful as the decision-equivalence oracle
    /// against the atomic path.
    pub fn ideal(seed: u64) -> Self {
        Self {
            enabled: true,
            seed,
            ..Self::off()
        }
    }

    /// Reliable datacenter network: tens-of-milliseconds latencies, no
    /// loss, a sub-second collection window.
    pub fn lan(seed: u64) -> Self {
        Self {
            enabled: true,
            latency_min_secs: 0.02,
            latency_max_secs: 0.2,
            loss_prob: 0.0,
            accept_timeout_secs: 0.5,
            broadcast_limit: 3,
            rebroadcast_backoff_secs: 1.0,
            rebroadcast_backoff_cap_secs: 8.0,
            seed,
        }
    }

    /// Degraded network: LAN latencies plus 5% per-message loss.
    pub fn lossy(seed: u64) -> Self {
        Self {
            loss_prob: 0.05,
            ..Self::lan(seed)
        }
    }

    /// The [`lossy`](Self::lossy) profile with an explicit per-message
    /// loss probability (for loss sweeps).
    pub fn with_loss(loss_prob: f64, seed: u64) -> Self {
        Self {
            loss_prob,
            ..Self::lan(seed)
        }
    }

    /// True when placements go through the message exchange.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Validates the model, reporting the first offending field.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if !(self.latency_min_secs >= 0.0 && self.latency_min_secs.is_finite()) {
            return reject("latency_min_secs", "latency must be finite and >= 0");
        }
        if !(self.latency_max_secs >= self.latency_min_secs && self.latency_max_secs.is_finite()) {
            return reject(
                "latency_max_secs",
                "latency upper bound must be finite and >= the lower bound",
            );
        }
        if !(0.0..=1.0).contains(&self.loss_prob) {
            return reject("loss_prob", "message loss probability must be in [0, 1]");
        }
        if !(self.accept_timeout_secs >= 0.0 && self.accept_timeout_secs.is_finite()) {
            return reject(
                "accept_timeout_secs",
                "acceptance-collection window must be finite and >= 0",
            );
        }
        if self.broadcast_limit == 0 {
            return reject(
                "broadcast_limit",
                "at least one invitation round is required",
            );
        }
        if !(self.rebroadcast_backoff_secs >= 0.0 && self.rebroadcast_backoff_secs.is_finite()) {
            return reject(
                "rebroadcast_backoff_secs",
                "re-broadcast backoff must be finite and >= 0",
            );
        }
        // As for the wake-retry cap: a NaN or infinite cap lets the
        // backoff double to infinity after enough empty rounds.
        if !(self.rebroadcast_backoff_cap_secs >= self.rebroadcast_backoff_secs
            && self.rebroadcast_backoff_cap_secs.is_finite())
        {
            return reject(
                "rebroadcast_backoff_cap_secs",
                "re-broadcast backoff cap must be finite and >= the base backoff",
            );
        }
        Ok(())
    }
}

/// Knobs of the simulation kernel (placement-policy parameters live in
/// the policy, not here).
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Total simulated duration, seconds.
    pub duration_secs: f64,
    /// Per-server monitor cadence, seconds (§II: "every few seconds").
    pub monitor_interval_secs: f64,
    /// Metrics sampling cadence, seconds (§III: every 30 minutes).
    pub metrics_interval_secs: f64,
    /// Hibernated → Active transition latency, seconds.
    pub wake_latency_secs: f64,
    /// Live-migration latency, seconds.
    pub migration_latency_secs: f64,
    /// How long a server must stay empty before it hibernates, seconds.
    pub idle_timeout_secs: f64,
    /// Master seed for the engine's RNG streams.
    pub seed: u64,
    /// When false the monitor never fires (the paper's §IV
    /// assignment-only experiment "in which migrations are inhibited").
    pub migrations_enabled: bool,
    /// Number of per-server utilization snapshots to retain per metrics
    /// sample (0 disables the Fig. 6/12 per-server series to save
    /// memory on sweeps).
    pub record_server_utilization: bool,
    /// Record a structured [`crate::log::EventLog`] of every state
    /// transition (off by default; costs memory proportional to the
    /// event count).
    pub record_events: bool,
    /// How an overloaded server divides its CPU among its VMs (§III:
    /// "decrease the CPU usage of all the VMs or only of those that
    /// have low priority").
    pub overload_sharing: OverloadSharing,
    /// Fault-injection schedule. [`FaultConfig::none`] (the default)
    /// keeps the run fault-free and byte-identical to a simulator
    /// without the subsystem.
    pub faults: FaultConfig,
    /// Control-plane message model. [`ControlPlaneConfig::off`] (the
    /// default) keeps placement atomic and byte-identical to a
    /// simulator without the subsystem.
    pub control_plane: ControlPlaneConfig,
}

impl SimConfig {
    /// Defaults for the paper's 48-hour §III experiment.
    pub fn paper_48h(seed: u64) -> Self {
        Self {
            duration_secs: 48.0 * 3600.0,
            monitor_interval_secs: 5.0,
            metrics_interval_secs: 1800.0,
            wake_latency_secs: 120.0,
            migration_latency_secs: 15.0,
            idle_timeout_secs: 900.0,
            seed,
            migrations_enabled: true,
            record_server_utilization: true,
            record_events: false,
            overload_sharing: OverloadSharing::Proportional,
            faults: FaultConfig::none(),
            control_plane: ControlPlaneConfig::off(),
        }
    }

    /// Defaults for the paper's §IV assignment-only experiment
    /// (18 hours, migrations inhibited).
    pub fn paper_fig12(seed: u64) -> Self {
        Self {
            duration_secs: 18.0 * 3600.0,
            migrations_enabled: false,
            ..Self::paper_48h(seed)
        }
    }

    /// Validates the configuration, reporting the first offending
    /// field (including nested [`FaultConfig`] and
    /// [`ControlPlaneConfig`] fields).
    pub fn validate(&self) -> Result<(), ConfigError> {
        if !(self.duration_secs > 0.0 && self.duration_secs.is_finite()) {
            return reject("duration_secs", "duration must be positive and finite");
        }
        if self.monitor_interval_secs.is_nan() || self.monitor_interval_secs <= 0.0 {
            return reject("monitor_interval_secs", "monitor interval must be positive");
        }
        if self.metrics_interval_secs.is_nan() || self.metrics_interval_secs <= 0.0 {
            return reject("metrics_interval_secs", "metrics interval must be positive");
        }
        if self.wake_latency_secs.is_nan() || self.wake_latency_secs < 0.0 {
            return reject("wake_latency_secs", "wake latency must be >= 0");
        }
        if self.migration_latency_secs.is_nan() || self.migration_latency_secs < 0.0 {
            return reject("migration_latency_secs", "migration latency must be >= 0");
        }
        if self.idle_timeout_secs.is_nan() || self.idle_timeout_secs < 0.0 {
            return reject("idle_timeout_secs", "idle timeout must be >= 0");
        }
        self.faults.validate()?;
        self.control_plane.validate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults() {
        let c = SimConfig::paper_48h(1);
        assert_eq!(c.duration_secs, 172_800.0);
        assert!(c.migrations_enabled);
        c.validate().unwrap();
        let f = SimConfig::paper_fig12(1);
        assert_eq!(f.duration_secs, 64_800.0);
        assert!(!f.migrations_enabled);
        f.validate().unwrap();
    }

    #[test]
    fn rejects_nonpositive_duration() {
        let mut c = SimConfig::paper_48h(1);
        c.duration_secs = 0.0;
        let err = c.validate().unwrap_err();
        assert_eq!(err.field, "duration_secs");
        assert!(err.to_string().contains("duration_secs"));
    }

    #[test]
    fn rejects_zero_monitor_interval() {
        let mut c = SimConfig::paper_48h(1);
        c.monitor_interval_secs = 0.0;
        assert_eq!(c.validate().unwrap_err().field, "monitor_interval_secs");
    }

    #[test]
    fn rejects_nan_intervals_and_latencies() {
        type Field = fn(&mut SimConfig) -> &mut f64;
        let fields: [(&str, Field); 6] = [
            ("crash_mtbf_secs", |c| &mut c.faults.crash_mtbf_secs),
            ("monitor_interval_secs", |c| &mut c.monitor_interval_secs),
            ("metrics_interval_secs", |c| &mut c.metrics_interval_secs),
            ("wake_latency_secs", |c| &mut c.wake_latency_secs),
            ("migration_latency_secs", |c| &mut c.migration_latency_secs),
            ("idle_timeout_secs", |c| &mut c.idle_timeout_secs),
        ];
        for (name, field) in fields {
            let mut c = SimConfig::paper_48h(1);
            *field(&mut c) = f64::NAN;
            assert_eq!(c.validate().unwrap_err().field, name, "NaN {name} accepted");
        }
    }

    #[test]
    fn rejects_nan_and_infinite_backoff_caps() {
        for cap in [f64::NAN, f64::INFINITY] {
            let mut c = SimConfig::paper_48h(1);
            c.control_plane = ControlPlaneConfig::lan(1);
            c.control_plane.rebroadcast_backoff_cap_secs = cap;
            assert_eq!(
                c.validate().unwrap_err().field,
                "rebroadcast_backoff_cap_secs",
                "cap {cap} accepted"
            );
            let mut c = SimConfig::paper_48h(1);
            c.faults = FaultConfig::light(1);
            c.faults.wake_retry_backoff_cap_secs = cap;
            assert_eq!(
                c.validate().unwrap_err().field,
                "wake_retry_backoff_cap_secs",
                "cap {cap} accepted"
            );
        }
    }

    #[test]
    fn fault_profiles_validate() {
        let none = FaultConfig::none();
        assert!(!none.enabled());
        none.validate().unwrap();
        for f in [
            FaultConfig::light(3),
            FaultConfig::moderate(3),
            FaultConfig::chaos(3),
        ] {
            assert!(f.enabled());
            f.validate().unwrap();
        }
    }

    #[test]
    fn rejects_bad_wake_failure_prob() {
        let mut f = FaultConfig::light(0);
        f.wake_failure_prob = 1.5;
        assert_eq!(f.validate().unwrap_err().field, "wake_failure_prob");
        // Nested fault errors surface through the parent config.
        let mut c = SimConfig::paper_48h(1);
        c.faults = f;
        assert_eq!(c.validate().unwrap_err().field, "wake_failure_prob");
    }

    #[test]
    fn control_plane_profiles_validate() {
        let off = ControlPlaneConfig::off();
        assert!(!off.enabled());
        off.validate().unwrap();
        for c in [
            ControlPlaneConfig::ideal(3),
            ControlPlaneConfig::lan(3),
            ControlPlaneConfig::lossy(3),
            ControlPlaneConfig::with_loss(0.2, 3),
        ] {
            assert!(c.enabled());
            c.validate().unwrap();
        }
        assert_eq!(ControlPlaneConfig::with_loss(0.2, 3).loss_prob, 0.2);
    }

    #[test]
    fn control_plane_rejects_bad_fields() {
        let mut c = ControlPlaneConfig::lan(0);
        c.latency_max_secs = c.latency_min_secs - 0.01;
        assert_eq!(c.validate().unwrap_err().field, "latency_max_secs");
        let mut c = ControlPlaneConfig::lan(0);
        c.loss_prob = -0.5;
        assert_eq!(c.validate().unwrap_err().field, "loss_prob");
        let mut c = ControlPlaneConfig::lan(0);
        c.broadcast_limit = 0;
        assert_eq!(c.validate().unwrap_err().field, "broadcast_limit");
        let mut sim = SimConfig::paper_48h(1);
        sim.control_plane = c;
        assert_eq!(sim.validate().unwrap_err().field, "broadcast_limit");
    }

    #[test]
    fn absent_control_plane_field_defaults_to_off() {
        // A configuration that never names a control plane gets
        // `Default::default()`: that default must be the disabled
        // profile, so pre-control-plane scenarios run unchanged.
        let d = ControlPlaneConfig::default();
        assert!(!d.enabled());
        assert_eq!(d, ControlPlaneConfig::off());
        d.validate().unwrap();
    }
}
