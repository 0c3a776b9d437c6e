//! Run statistics — everything the paper's Figs. 6–11 and §III claims
//! are computed from.

use crate::checkpoint::{CheckpointError, Dec, Enc};
use ecocloud_metrics::{EmpiricalCdf, EnergyIntegrator, HourlyCounter, StreamingStats, TimeSeries};

/// All measurements collected during one simulation run.
#[derive(Debug)]
pub struct SimStats {
    /// Overall load: total VM demand / total fleet capacity (Fig. 6's
    /// black dots), sampled every metrics interval.
    pub overall_load: TimeSeries,
    /// Number of powered servers (Fig. 7).
    pub active_servers: TimeSeries,
    /// Total power draw in watts (Fig. 8).
    pub power_w: TimeSeries,
    /// Percentage of VM-time under CPU over-demand per window (Fig. 11).
    pub overdemand_pct: TimeSeries,
    /// Per-server utilization snapshots (Figs. 6 and 12): one vector of
    /// utilizations per metrics sample. Empty when disabled.
    pub server_utilization: Vec<(f64, Vec<f32>)>,
    /// Low migrations per hour (Fig. 9).
    pub low_migrations: HourlyCounter,
    /// High migrations per hour (Fig. 9).
    pub high_migrations: HourlyCounter,
    /// Server activations per hour (Fig. 10).
    pub activations: HourlyCounter,
    /// Server hibernations per hour (Fig. 10).
    pub hibernations: HourlyCounter,
    /// Durations of individual server-overload episodes, seconds
    /// (the "98 % of violations shorter than 30 s" claim).
    pub violation_durations: EmpiricalCdf,
    /// Granted CPU fraction observed during overload episodes
    /// (the "no less than 98 % of the demanded CPU" claim).
    pub granted_during_violation: StreamingStats,
    /// Granted CPU fraction during overload, split by SLA class
    /// (indexed by [`crate::sla::VmPriority::index`]); only classes
    /// that were actually short-changed contribute samples.
    pub granted_by_priority: [StreamingStats; 3],
    /// Worst per-server RAM commitment fraction seen at any metrics
    /// sample (0 when the workload carries no RAM demands).
    pub max_ram_utilization: f64,
    /// Energy consumed by the whole fleet.
    pub energy: EnergyIntegrator,
    /// VMs that could not be placed anywhere and were dropped.
    pub dropped_vms: u64, // detlint: unchecked-counter — no partner by design: a dropped VM never attaches, so the arrival law (arrived == departed + lost + resident) holds exactly without it; the counter itself is monotone
    /// Total migrations started.
    pub migrations_started: u64,
    /// Total migrations completed.
    pub migrations_completed: u64,
    /// Migrations torn down in flight (departures mid-flight, fault
    /// rollbacks). Together with completions and still-in-flight
    /// migrations this accounts for every start.
    pub migrations_aborted: u64,
    /// Injected server crashes.
    pub server_crashes: u64,
    /// Crashed servers whose repair completed.
    pub server_repairs: u64,
    /// Injected wake failures (each retry that fails counts once).
    pub wake_failures: u64, // detlint: unchecked-counter — no run-level law: wakes have no started/completed pair to conserve against; what does hold is per wake cycle — at most wake_retry_limit + 1 failures before abandon_wake() (enforced by the per-server attempt counter)
    /// Injected migration failures (subset of `migrations_aborted`).
    pub migration_failures: u64,
    /// VMs displaced from a crashed (or wake-abandoned) server.
    pub vms_displaced: u64,
    /// Displaced VMs successfully re-placed on another server.
    pub vms_replaced: u64,
    /// Displaced VMs nobody could host — lost.
    pub vms_lost: u64,
    /// VMs that successfully attached to a server (initial population
    /// and open-system arrivals alike; dropped VMs never attach).
    /// Conserved in `finish()`: arrived == departed + lost + resident.
    pub vms_arrived: u64,
    /// VMs that departed (lifetime expiry or spot preemption).
    pub vms_departed: u64,
    /// Spot-class VMs evicted by the consolidation policy under
    /// capacity pressure (subset of `vms_departed`).
    pub vms_preempted: u64,
    /// Model events processed over the whole run: every event popped
    /// from the queue, plus every silent monitor tick a parked chain
    /// settled in closed form (`monitor_ticks_settled`) — the pops of
    /// an engine that never parks, and the raw work count behind
    /// wall-clock comparisons (absent in results serialized before
    /// this field existed).
    pub events_processed: u64, // detlint: unchecked-counter — what holds: incremented once per queue pop and once per settled silent tick, so it equals a never-parking engine's pop count by construction (tests/quiet_band.rs checks it against one); a law would restate the loop
    /// Silent monitor ticks that parked chains settled in closed form
    /// instead of popping: a subset of `events_processed`, conserved
    /// in `finish()` as `monitor_ticks_settled <= events_processed`.
    /// Kept out of [`SimSummary`], so no output byte depends on it.
    pub monitor_ticks_settled: u64,
    /// Control plane: invitations broadcast to individual servers.
    pub invitations_sent: u64,
    /// Control plane: acceptances received within the collection
    /// window.
    pub invite_accepts: u64,
    /// Control plane: declines received within the collection window.
    pub invite_declines: u64,
    /// Control plane: invitations whose invitation or response leg was
    /// lost in flight.
    pub invite_losses: u64,
    /// Control plane: responses that arrived after the collection
    /// window closed.
    pub invite_timeouts: u64,
    /// Control plane: commit messages sent to chosen acceptors.
    /// Conserved in `finish()`: `commits_sent >= exchanges_committed`.
    pub commits_sent: u64,
    /// Control plane: commits NACKed by the admission re-check (offer
    /// went stale: utilization drifted, server crashed or hibernated).
    /// Conserved in `finish()`: `commit_nacks <= commits_sent` (a NACK
    /// answers exactly one arrived, epoch-gated commit).
    pub commit_nacks: u64,
    /// Control plane: commit or NACK legs lost in flight (discovered
    /// by the manager's commit timeout).
    /// Conserved in `finish()`: `commit_losses <= commits_sent +
    /// commit_nacks` (every loss is a commit leg or a NACK return leg).
    pub commit_losses: u64,
    /// Control plane: placement exchanges started.
    pub exchanges_started: u64,
    /// Control plane: exchanges that ended in a committed placement.
    pub exchanges_committed: u64,
    /// Control plane: exchanges that exhausted their retry budget (or
    /// were still open at end of run) and fell back to wake-or-reject.
    pub exchanges_abandoned: u64,
    /// Control plane: exchanges invalidated mid-flight (source server
    /// crashed, VM departed or was displaced).
    pub exchanges_aborted: u64,
    /// Control plane: backed-off invitation re-broadcasts.
    /// Conserved in `finish()`: `exchange_rebroadcasts <=
    /// exchanges_started * broadcast_limit` (per-exchange round cap).
    pub exchange_rebroadcasts: u64,
    /// Control plane: wall-clock (simulated) duration of each resolved
    /// placement exchange, from first broadcast to commit or
    /// abandonment, seconds.
    pub placement_latency: EmpiricalCdf,

    // Window accumulators for the over-demand percentage (reset at each
    // metrics sample).
    window_overload_vmsecs: f64,
    window_alive_vmsecs: f64,
}

impl Default for SimStats {
    fn default() -> Self {
        Self::new()
    }
}

impl SimStats {
    /// Creates empty statistics.
    pub fn new() -> Self {
        Self {
            overall_load: TimeSeries::new("overall_load"),
            active_servers: TimeSeries::new("active_servers"),
            power_w: TimeSeries::new("power_w"),
            overdemand_pct: TimeSeries::new("overdemand_pct"),
            server_utilization: Vec::new(),
            low_migrations: HourlyCounter::new("low_migrations"),
            high_migrations: HourlyCounter::new("high_migrations"),
            activations: HourlyCounter::new("activations"),
            hibernations: HourlyCounter::new("hibernations"),
            violation_durations: EmpiricalCdf::new(),
            granted_during_violation: StreamingStats::new(),
            granted_by_priority: [
                StreamingStats::new(),
                StreamingStats::new(),
                StreamingStats::new(),
            ],
            max_ram_utilization: 0.0,
            energy: EnergyIntegrator::new(),
            dropped_vms: 0,
            migrations_started: 0,
            migrations_completed: 0,
            migrations_aborted: 0,
            server_crashes: 0,
            server_repairs: 0,
            wake_failures: 0,
            migration_failures: 0,
            vms_displaced: 0,
            vms_replaced: 0,
            vms_lost: 0,
            vms_arrived: 0,
            vms_departed: 0,
            vms_preempted: 0,
            events_processed: 0,
            monitor_ticks_settled: 0,
            invitations_sent: 0,
            invite_accepts: 0,
            invite_declines: 0,
            invite_losses: 0,
            invite_timeouts: 0,
            commits_sent: 0,
            commit_nacks: 0,
            commit_losses: 0,
            exchanges_started: 0,
            exchanges_committed: 0,
            exchanges_abandoned: 0,
            exchanges_aborted: 0,
            exchange_rebroadcasts: 0,
            placement_latency: EmpiricalCdf::new(),
            window_overload_vmsecs: 0.0,
            window_alive_vmsecs: 0.0,
        }
    }

    /// Accrues `dt` seconds during which `n_vms` VMs on one server were
    /// short-changed, receiving `granted_frac` of their demand.
    pub fn accrue_overload(&mut self, dt_secs: f64, n_vms: usize, granted_frac: f64) {
        debug_assert!(dt_secs >= 0.0);
        if dt_secs > 0.0 && n_vms > 0 {
            self.window_overload_vmsecs += dt_secs * n_vms as f64;
            self.granted_during_violation.push(granted_frac);
        }
    }

    /// Class-aware variant of [`Self::accrue_overload`]: only classes
    /// whose granted fraction fell below 1 count as over-demanded
    /// VM-time, and each contributes to its own granted statistic.
    pub fn accrue_overload_classes(
        &mut self,
        dt_secs: f64,
        count_by_class: [usize; 3],
        granted_by_class: [f64; 3],
    ) {
        debug_assert!(dt_secs >= 0.0);
        if dt_secs <= 0.0 {
            return;
        }
        for class in 0..3 {
            let n = count_by_class[class];
            let g = granted_by_class[class];
            if n > 0 && g < 1.0 - 1e-12 {
                self.window_overload_vmsecs += dt_secs * n as f64;
                self.granted_during_violation.push(g);
                self.granted_by_priority[class].push(g);
            }
        }
    }

    /// Accrues `dt` seconds of `population` alive VMs (the denominator
    /// of the over-demand percentage).
    pub fn accrue_population(&mut self, dt_secs: f64, population: usize) {
        debug_assert!(dt_secs >= 0.0);
        self.window_alive_vmsecs += dt_secs * population as f64;
    }

    /// Records one finished overload episode of the given duration.
    pub fn record_violation(&mut self, duration_secs: f64) {
        self.violation_durations.push(duration_secs);
    }

    /// Takes a metrics sample at time `t_secs` and resets the window
    /// accumulators.
    #[allow(clippy::too_many_arguments)]
    pub fn sample(
        &mut self,
        t_secs: f64,
        overall_load: f64,
        active_servers: usize,
        power_w: f64,
        server_utils: Option<Vec<f32>>,
    ) {
        self.overall_load.push(t_secs, overall_load);
        self.active_servers.push(t_secs, active_servers as f64);
        self.power_w.push(t_secs, power_w);
        let pct = if self.window_alive_vmsecs > 0.0 {
            100.0 * self.window_overload_vmsecs / self.window_alive_vmsecs
        } else {
            0.0
        };
        self.overdemand_pct.push(t_secs, pct);
        self.window_overload_vmsecs = 0.0;
        self.window_alive_vmsecs = 0.0;
        if let Some(u) = server_utils {
            self.server_utilization.push((t_secs, u));
        }
    }

    /// Fraction of violations shorter than `secs` (NaN-free; 1.0 when
    /// no violation ever occurred — vacuously satisfied).
    pub fn violations_shorter_than(&mut self, secs: f64) -> f64 {
        if self.violation_durations.is_empty() {
            1.0
        } else {
            self.violation_durations.fraction_at_most(secs)
        }
    }

    /// Compact serializable summary of the run.
    pub fn summary(&mut self) -> SimSummary {
        SimSummary {
            energy_kwh: self.energy.energy_kwh(),
            mean_active_servers: self.active_servers.time_weighted_mean(),
            max_power_w: self.power_w.max(),
            total_low_migrations: self.low_migrations.total(),
            total_high_migrations: self.high_migrations.total(),
            total_activations: self.activations.total(),
            total_hibernations: self.hibernations.total(),
            dropped_vms: self.dropped_vms,
            migrations_started: self.migrations_started,
            migrations_completed: self.migrations_completed,
            migrations_aborted: self.migrations_aborted,
            server_crashes: self.server_crashes,
            server_repairs: self.server_repairs,
            wake_failures: self.wake_failures,
            migration_failures: self.migration_failures,
            vms_displaced: self.vms_displaced,
            vms_replaced: self.vms_replaced,
            vms_lost: self.vms_lost,
            vms_arrived: self.vms_arrived,
            vms_departed: self.vms_departed,
            vms_preempted: self.vms_preempted,
            events_processed: self.events_processed,
            invitations_sent: self.invitations_sent,
            invite_accepts: self.invite_accepts,
            invite_declines: self.invite_declines,
            invite_losses: self.invite_losses,
            invite_timeouts: self.invite_timeouts,
            commits_sent: self.commits_sent,
            commit_nacks: self.commit_nacks,
            commit_losses: self.commit_losses,
            exchanges_started: self.exchanges_started,
            exchanges_committed: self.exchanges_committed,
            exchanges_abandoned: self.exchanges_abandoned,
            exchanges_aborted: self.exchanges_aborted,
            exchange_rebroadcasts: self.exchange_rebroadcasts,
            placement_p99_secs: if self.placement_latency.is_empty() {
                0.0
            } else {
                self.placement_latency.quantile(0.99)
            },
            n_violations: self.violation_durations.len() as u64,
            violations_under_30s: self.violations_shorter_than(30.0),
            mean_granted_during_violation: if self.granted_during_violation.count() == 0 {
                1.0
            } else {
                self.granted_during_violation.mean()
            },
            max_overdemand_pct: if self.overdemand_pct.is_empty() {
                0.0
            } else {
                self.overdemand_pct.max()
            },
            max_ram_utilization: self.max_ram_utilization,
        }
    }

    /// Checkpoint encoding. Every collector is captured through its
    /// raw-parts view (including the in-progress window accumulators
    /// and the CDFs' sortedness flags) so a restored run re-snapshots
    /// to the exact same bytes. `unsettled_ticks` silent monitor ticks,
    /// passed by parked chains but not yet settled, are counted in
    /// `events_processed` as the run will count them.
    /// `monitor_ticks_settled` belongs to the engine's `monitor`
    /// section, which a never-parking run's snapshot differs in anyway.
    pub(crate) fn encode(&self, e: &mut Enc, unsettled_ticks: u64) {
        e.series(&self.overall_load);
        e.series(&self.active_servers);
        e.series(&self.power_w);
        e.series(&self.overdemand_pct);
        e.usize(self.server_utilization.len());
        for (t, utils) in &self.server_utilization {
            e.f64(*t);
            e.usize(utils.len());
            for u in utils {
                e.f32(*u);
            }
        }
        encode_hourly(&self.low_migrations, e);
        encode_hourly(&self.high_migrations, e);
        encode_hourly(&self.activations, e);
        encode_hourly(&self.hibernations, e);
        encode_cdf(&self.violation_durations, e);
        encode_streaming(&self.granted_during_violation, e);
        for s in &self.granted_by_priority {
            encode_streaming(s, e);
        }
        e.f64(self.max_ram_utilization);
        e.f64(self.energy.last_time_secs());
        e.f64(self.energy.current_power_w());
        e.f64(self.energy.energy_joules());
        e.u64s(&[
            self.dropped_vms,
            self.migrations_started,
            self.migrations_completed,
            self.migrations_aborted,
            self.server_crashes,
            self.server_repairs,
            self.wake_failures,
            self.migration_failures,
            self.vms_displaced,
            self.vms_replaced,
            self.vms_lost,
            self.vms_arrived,
            self.vms_departed,
            self.vms_preempted,
            self.events_processed + unsettled_ticks,
            self.invitations_sent,
            self.invite_accepts,
            self.invite_declines,
            self.invite_losses,
            self.invite_timeouts,
            self.commits_sent,
            self.commit_nacks,
            self.commit_losses,
            self.exchanges_started,
            self.exchanges_committed,
            self.exchanges_abandoned,
            self.exchanges_aborted,
            self.exchange_rebroadcasts,
        ]);
        encode_cdf(&self.placement_latency, e);
        e.f64(self.window_overload_vmsecs);
        e.f64(self.window_alive_vmsecs);
    }

    /// Inverse of [`encode`](Self::encode), for a snapshot taken at
    /// `now`. A series or the energy integrator whose clock is past
    /// `now` is refused: the run's next sample there would go back in
    /// time.
    pub(crate) fn decode(d: &mut Dec<'_>, now: f64) -> Result<Self, CheckpointError> {
        let until_now = |d: &Dec<'_>, what: &str, t: f64| {
            if t <= now {
                Ok(())
            } else {
                Err(d.corrupt(format_args!("{what} is at {t} s, past the clock {now} s")))
            }
        };
        let [overall_load, active_servers, power_w, overdemand_pct] =
            [d.series()?, d.series()?, d.series()?, d.series()?];
        for s in [&overall_load, &active_servers, &power_w, &overdemand_pct] {
            if let Some(&t) = s.times_secs().last() {
                until_now(d, &format!("time series '{}'", s.name()), t)?;
            }
        }
        let server_utilization = d.list(16, |d| Ok((d.f64()?, d.list(4, Dec::f32)?)))?;
        let low_migrations = decode_hourly(d)?;
        let high_migrations = decode_hourly(d)?;
        let activations = decode_hourly(d)?;
        let hibernations = decode_hourly(d)?;
        let violation_durations = decode_cdf(d)?;
        let granted_during_violation = decode_streaming(d)?;
        let granted_by_priority = [
            decode_streaming(d)?,
            decode_streaming(d)?,
            decode_streaming(d)?,
        ];
        let max_ram_utilization = d.f64()?;
        let energy = EnergyIntegrator::from_parts(d.f64()?, d.f64()?, d.f64()?);
        until_now(d, "the energy integrator", energy.last_time_secs())?;
        let counters = d.u64s()?;
        if counters.len() != 28 {
            return Err(CheckpointError::Corrupt(format!(
                "stats counter block has {} entries, expected 28",
                counters.len()
            )));
        }
        let placement_latency = decode_cdf(d)?;
        let window_overload_vmsecs = d.f64()?;
        let window_alive_vmsecs = d.f64()?;
        Ok(Self {
            overall_load,
            active_servers,
            power_w,
            overdemand_pct,
            server_utilization,
            low_migrations,
            high_migrations,
            activations,
            hibernations,
            violation_durations,
            granted_during_violation,
            granted_by_priority,
            max_ram_utilization,
            energy,
            dropped_vms: counters[0],
            migrations_started: counters[1],
            migrations_completed: counters[2],
            migrations_aborted: counters[3],
            server_crashes: counters[4],
            server_repairs: counters[5],
            wake_failures: counters[6],
            migration_failures: counters[7],
            vms_displaced: counters[8],
            vms_replaced: counters[9],
            vms_lost: counters[10],
            vms_arrived: counters[11],
            vms_departed: counters[12],
            vms_preempted: counters[13],
            events_processed: counters[14],
            monitor_ticks_settled: 0,
            invitations_sent: counters[15],
            invite_accepts: counters[16],
            invite_declines: counters[17],
            invite_losses: counters[18],
            invite_timeouts: counters[19],
            commits_sent: counters[20],
            commit_nacks: counters[21],
            commit_losses: counters[22],
            exchanges_started: counters[23],
            exchanges_committed: counters[24],
            exchanges_abandoned: counters[25],
            exchanges_aborted: counters[26],
            exchange_rebroadcasts: counters[27],
            placement_latency,
            window_overload_vmsecs,
            window_alive_vmsecs,
        })
    }
}

fn encode_hourly(c: &HourlyCounter, e: &mut Enc) {
    e.str(c.name());
    e.u64s(c.counts());
}

fn decode_hourly(d: &mut Dec<'_>) -> Result<HourlyCounter, CheckpointError> {
    let name = d.str()?;
    Ok(HourlyCounter::from_parts(name, d.u64s()?))
}

fn encode_cdf(c: &EmpiricalCdf, e: &mut Enc) {
    let (samples, sorted) = c.raw_parts();
    e.f64s(samples);
    e.bool(sorted);
}

fn decode_cdf(d: &mut Dec<'_>) -> Result<EmpiricalCdf, CheckpointError> {
    let samples = d.f64s()?;
    let sorted = d.bool()?;
    Ok(EmpiricalCdf::from_raw_parts(samples, sorted))
}

fn encode_streaming(s: &StreamingStats, e: &mut Enc) {
    let (count, mean, m2, min, max) = s.raw_parts();
    e.u64(count);
    e.f64(mean);
    e.f64(m2);
    e.f64(min);
    e.f64(max);
}

fn decode_streaming(d: &mut Dec<'_>) -> Result<StreamingStats, CheckpointError> {
    Ok(StreamingStats::from_raw_parts(
        d.u64()?,
        d.f64()?,
        d.f64()?,
        d.f64()?,
        d.f64()?,
    ))
}

/// Headline numbers of a run, ready for tables and JSON.
#[derive(Debug, Clone)]
pub struct SimSummary {
    /// Total energy, kWh.
    pub energy_kwh: f64,
    /// Time-weighted mean of powered servers.
    pub mean_active_servers: f64,
    /// Peak sampled power, watts.
    pub max_power_w: f64,
    /// Low migrations over the whole run.
    pub total_low_migrations: u64,
    /// High migrations over the whole run.
    pub total_high_migrations: u64,
    /// Server activations over the whole run.
    pub total_activations: u64,
    /// Server hibernations over the whole run.
    pub total_hibernations: u64,
    /// VMs dropped for lack of capacity.
    pub dropped_vms: u64,
    /// Migrations started.
    pub migrations_started: u64,
    /// Migrations completed.
    pub migrations_completed: u64,
    /// Migrations torn down in flight.
    pub migrations_aborted: u64,
    /// Injected server crashes.
    pub server_crashes: u64,
    /// Crashed servers repaired.
    pub server_repairs: u64,
    /// Injected wake failures.
    pub wake_failures: u64,
    /// Injected migration failures.
    pub migration_failures: u64,
    /// VMs displaced by crashes / abandoned wakes.
    pub vms_displaced: u64,
    /// Displaced VMs successfully re-placed.
    pub vms_replaced: u64,
    /// Displaced VMs nobody could host.
    pub vms_lost: u64,
    /// VMs that successfully attached to a server.
    pub vms_arrived: u64,
    /// VMs that departed (lifetime expiry or preemption).
    pub vms_departed: u64,
    /// Spot VMs evicted under capacity pressure.
    pub vms_preempted: u64,
    /// Model events over the whole run: every pop of the event queue,
    /// plus the silent monitor ticks of parked chains, settled in
    /// closed form.
    pub events_processed: u64,
    /// Control plane: invitations broadcast to individual servers.
    pub invitations_sent: u64,
    /// Control plane: acceptances received in time.
    pub invite_accepts: u64,
    /// Control plane: declines received in time.
    pub invite_declines: u64,
    /// Control plane: invitations lost on either leg.
    pub invite_losses: u64,
    /// Control plane: responses arriving after the window.
    pub invite_timeouts: u64,
    /// Control plane: commit messages sent.
    pub commits_sent: u64,
    /// Control plane: commits NACKed by the admission re-check.
    pub commit_nacks: u64,
    /// Control plane: commit/NACK legs lost in flight.
    pub commit_losses: u64,
    /// Control plane: placement exchanges started.
    pub exchanges_started: u64,
    /// Control plane: exchanges ending in a committed placement.
    pub exchanges_committed: u64,
    /// Control plane: exchanges that fell back to wake-or-reject.
    pub exchanges_abandoned: u64,
    /// Control plane: exchanges invalidated mid-flight.
    pub exchanges_aborted: u64,
    /// Control plane: invitation re-broadcasts.
    pub exchange_rebroadcasts: u64,
    /// Control plane: 99th-percentile placement-exchange duration,
    /// seconds (0 when no exchange ran).
    pub placement_p99_secs: f64,
    /// Number of overload episodes.
    pub n_violations: u64,
    /// Fraction of overload episodes shorter than 30 s.
    pub violations_under_30s: f64,
    /// Mean granted CPU fraction during overloads.
    pub mean_granted_during_violation: f64,
    /// Worst 30-minute over-demand percentage.
    pub max_overdemand_pct: f64,
    /// Worst per-server RAM commitment fraction observed.
    pub max_ram_utilization: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overdemand_percentage_per_window() {
        let mut s = SimStats::new();
        s.accrue_population(100.0, 10); // 1000 vm-seconds
        s.accrue_overload(5.0, 2, 0.9); // 10 vm-seconds short-changed
        s.sample(1800.0, 0.5, 3, 1000.0, None);
        assert!((s.overdemand_pct.values()[0] - 1.0).abs() < 1e-9);
        // Window resets.
        s.accrue_population(100.0, 10);
        s.sample(3600.0, 0.5, 3, 1000.0, None);
        assert_eq!(s.overdemand_pct.values()[1], 0.0);
    }

    #[test]
    fn violations_vacuously_short_when_none() {
        let mut s = SimStats::new();
        assert_eq!(s.violations_shorter_than(30.0), 1.0);
        s.record_violation(10.0);
        s.record_violation(50.0);
        assert_eq!(s.violations_shorter_than(30.0), 0.5);
    }

    #[test]
    fn summary_reflects_counters() {
        let mut s = SimStats::new();
        s.low_migrations.record(100.0);
        s.high_migrations.record(200.0);
        s.high_migrations.record(300.0);
        s.activations.record(10.0);
        s.dropped_vms = 3;
        s.sample(0.0, 0.1, 5, 500.0, None);
        s.sample(1800.0, 0.2, 6, 600.0, None);
        let sum = s.summary();
        assert_eq!(sum.total_low_migrations, 1);
        assert_eq!(sum.total_high_migrations, 2);
        assert_eq!(sum.total_activations, 1);
        assert_eq!(sum.dropped_vms, 3);
        assert_eq!(sum.max_power_w, 600.0);
        assert_eq!(sum.mean_granted_during_violation, 1.0);
    }

    #[test]
    fn server_snapshots_optional() {
        let mut s = SimStats::new();
        s.sample(0.0, 0.0, 0, 0.0, Some(vec![0.5, 0.7]));
        s.sample(1800.0, 0.0, 0, 0.0, None);
        assert_eq!(s.server_utilization.len(), 1);
        assert_eq!(s.server_utilization[0].1, vec![0.5, 0.7]);
    }

    #[test]
    fn control_plane_counters_roll_up() {
        let mut s = SimStats::new();
        s.invitations_sent = 10;
        s.invite_accepts = 4;
        s.invite_declines = 3;
        s.invite_losses = 2;
        s.invite_timeouts = 1;
        s.placement_latency.push(0.5);
        s.placement_latency.push(1.5);
        let sum = s.summary();
        assert_eq!(
            sum.invitations_sent,
            sum.invite_accepts + sum.invite_declines + sum.invite_losses + sum.invite_timeouts
        );
        assert_eq!(sum.placement_p99_secs, 1.5);
        // No exchanges at all: the p99 reports a clean zero.
        assert_eq!(SimStats::new().summary().placement_p99_secs, 0.0);
    }

    #[test]
    fn granted_fraction_tracked_only_under_overload() {
        let mut s = SimStats::new();
        s.accrue_overload(0.0, 5, 0.5); // zero-length: ignored
        assert_eq!(s.granted_during_violation.count(), 0);
        s.accrue_overload(1.0, 5, 0.95);
        assert_eq!(s.granted_during_violation.count(), 1);
        assert!((s.granted_during_violation.mean() - 0.95).abs() < 1e-12);
    }
}
