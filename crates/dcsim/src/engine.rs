//! The simulation engine: event loop, placement mechanics, migration
//! mechanics, power and SLA accounting.
//!
//! [`Simulation`] owns all mutable state and dispatches a strictly
//! `(time, seq)`-ordered event stream from the event queue
//! ([`crate::events`]), a binary heap beside a FIFO lane for the
//! monitor ticks. Drive it with [`Simulation::run`] (to
//! completion), or [`Simulation::step`] + [`Simulation::checkpoint`]
//! for crash-safe long runs ([`crate::checkpoint`]). Every handler,
//! including the two fleet-wide sweeps (`DemandUpdate`,
//! `MetricsSample`), runs on the caller's thread in event order.
//!
//! # Worked example: a custom policy through a full run
//!
//! The engine is policy-agnostic — anything implementing
//! [`Policy`] can drive placement. A minimal
//! first-fit, run twice to show the determinism contract:
//!
//! ```
//! use dcsim::cluster::ClusterView;
//! use dcsim::{
//!     Fleet, PlaceOutcome, PlacementRequest, Policy, SimConfig, Simulation, Workload,
//! };
//! use ecocloud_traces::{TraceConfig, TraceSet};
//!
//! struct FirstFit;
//! impl Policy for FirstFit {
//!     fn name(&self) -> &'static str {
//!         "first-fit"
//!     }
//!     fn place(&mut self, view: &ClusterView<'_>, req: &PlacementRequest) -> PlaceOutcome {
//!         // First powered server with CPU headroom wins; otherwise
//!         // wake a sleeper; otherwise reject.
//!         for (sid, s) in view.powered() {
//!             if s.used_mhz() + s.reserved_mhz() + req.demand_mhz <= s.capacity_mhz() {
//!                 return PlaceOutcome::Place(sid);
//!             }
//!         }
//!         match view.hibernated().next() {
//!             Some((sid, _)) => PlaceOutcome::WakeThenPlace(sid),
//!             None => PlaceOutcome::Reject,
//!         }
//!     }
//! }
//!
//! let run = || {
//!     let traces = TraceSet::generate(TraceConfig {
//!         n_vms: 40,
//!         duration_secs: 3600,
//!         ..TraceConfig::small(7)
//!     });
//!     let mut config = SimConfig::paper_48h(7);
//!     config.duration_secs = 3600.0;
//!     Simulation::new(
//!         Fleet::thirds(6),
//!         Workload::all_vms_from_start(traces),
//!         config,
//!         FirstFit,
//!     )
//!     .run()
//! };
//! let (a, b) = (run(), run());
//! assert_eq!(a.summary.dropped_vms, 0);
//! // The determinism contract: same inputs, bit-identical outputs.
//! assert_eq!(a.summary.energy_kwh.to_bits(), b.summary.energy_kwh.to_bits());
//! ```

use crate::checkpoint::{Checkpoint, CheckpointError, Dec, Enc, IdBounds};
use crate::cluster::Cluster;
use crate::config::SimConfig;
use crate::control::{ControlPlane, Exchange, PlacementSubject};
use crate::events::{Event, EventQueue};
use crate::fleet::Fleet;
use crate::ids::{ServerId, VmId};
use crate::idset::SortedIdSet;
use crate::log::{AbortReason, EventLog, SimEvent};
use crate::policy::{MigrationKind, PlaceOutcome, PlacementKind, PlacementRequest, Policy};
use crate::server::ServerState;
use crate::stats::{SimStats, SimSummary};
use crate::vm::{Vm, VmState};
use crate::workload::{InitialPlacement, Workload};
use ecocloud_rng::{Rng, SeedableRng, StdRng};
use ecocloud_traces::units::frac_to_mhz;
use ecocloud_traces::{TraceCursor, TraceSet, VmTrace};
use std::ops::{Range, RangeInclusive};

/// Pops the queue logs for parked monitor chains before the engine
/// settles every parked chain and empties the log (96 KiB of marks).
const POP_LOG_LIMIT: usize = 4096;

/// A server's monitor chain: the 5 s ticks of §II's migration monitor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MonitorChain {
    /// The chain's next tick is in the event queue.
    Scheduled,
    /// The server is active and inside the policy's quiet band, where
    /// every tick is silent, so no tick is queued. The silent ticks
    /// are settled in closed form when the server leaves the band, and
    /// `watermark` places the chain's next tick among events at the
    /// same time (the queue's next event number when the chain's
    /// anchor tick popped or was settled).
    Parked {
        /// The order watermark of the chain's next tick.
        watermark: u64,
    },
    /// No tick is queued: the server is off, or the run ends before
    /// the chain's next tick.
    Stopped,
}

/// An open overload episode of `server`, begun at `since` and accrued
/// into the window accumulators up to `accrued_to`.
#[derive(Debug, Clone, Copy)]
struct Overload {
    server: u32,
    since: f64,
    accrued_to: f64,
}

/// Outcome of a completed run.
#[derive(Debug)]
pub struct SimResult {
    /// All collected measurements.
    pub stats: SimStats,
    /// Headline numbers (also derivable from `stats`).
    pub summary: SimSummary,
    /// Powered servers at the end of the run.
    pub final_powered: usize,
    /// VMs alive at the end of the run.
    pub final_alive_vms: usize,
    /// Migrations still in flight when the run ended (part of the
    /// `started == completed + aborted + in_flight` conservation law).
    pub final_inflight_migrations: usize,
    /// Name of the policy that drove the run.
    pub policy_name: String,
    /// Structured event log (empty unless
    /// [`SimConfig::record_events`] was set).
    pub events: EventLog,
}

/// A single simulation run. Create with [`Simulation::new`], execute
/// with [`Simulation::run`].
pub struct Simulation<P: Policy> {
    config: SimConfig,
    cluster: Cluster,
    policy: P,
    queue: EventQueue,
    stats: SimStats,
    workload: Workload,
    /// One read cursor per trace of the workload. Every demand read is
    /// at `now`, so reads of a trace only move forward and each cursor
    /// walks its trace once; the trace set itself stays immutable.
    cursors: Vec<TraceCursor>,
    now: f64,
    last_pop_accrual: f64,
    /// Open overload episodes in ascending server order — the only
    /// servers the periodic accrual sweeps need to visit.
    overloads: Vec<Overload>,
    /// Alive (hosted or migrating) VMs — the set a demand update
    /// iterates, instead of every VM ever spawned.
    alive_vms: SortedIdSet,
    /// Demand-update scratch, all `false` and empty between sweeps:
    /// per-server "load changed this sweep" flags and the ids they
    /// mark, kept across sweeps so a sweep allocates nothing.
    demand_dirty: Vec<bool>,
    demand_dirty_ids: Vec<u32>,
    /// Per-server: time of the last monitor tick, the phase anchor a
    /// stopped or parked monitor chain resumes from. A parked chain's
    /// anchor moves only when its silent ticks are settled.
    monitor_anchor: Vec<f64>,
    /// Per-server monitor chain state. Ticks stop while a server is off
    /// (they were no-ops) and resume on wake; they park while it is
    /// quiet and re-arm when it is not.
    monitor: Vec<MonitorChain>,
    /// Servers whose chain is parked, unordered, and each parked
    /// server's index in that list.
    parked: Vec<u32>,
    parked_slot: Vec<u32>,
    /// The first quiet band the policy offered, which it must keep
    /// offering unchanged for the rest of the run.
    #[cfg(debug_assertions)]
    offered_band: Option<RangeInclusive<f64>>,
    /// Dedicated fault RNG stream, created only when the fault schedule
    /// is enabled — a disabled schedule draws nothing and schedules
    /// nothing, keeping fault-free runs byte-identical.
    fault_rng: Option<StdRng>,
    /// Per-server wake epoch: bumped whenever an outstanding
    /// `WakeComplete` becomes stale (retry reschedule, crash). Events
    /// carrying an older epoch are dropped.
    wake_seq: Vec<u32>,
    /// Per-server count of consecutive failures of the ongoing wake.
    wake_attempts: Vec<u32>,
    /// Control-plane state (message RNG + in-flight exchanges),
    /// created only when the message model is enabled — a disabled
    /// control plane draws nothing and schedules nothing, keeping
    /// atomic runs byte-identical.
    control: Option<ControlPlane>,
    log: EventLog,
}

/// Demand of trace `trace_idx` at global step `k`, in MHz, read through
/// its cursor. Closed-system traces hold their last sample (they cover
/// the run); with `wrap` (open system) they repeat so late arrivals
/// keep their diurnal shape, and the read that wraps restarts the
/// cursor. Takes fields, not `self`, so the demand sweep can read while
/// it iterates the alive set.
#[inline]
fn trace_demand_mhz(
    traces: &TraceSet,
    cursors: &mut [TraceCursor],
    wrap: bool,
    trace_idx: usize,
    k: usize,
) -> f64 {
    let trace = &traces.vms[trace_idx];
    let j = trace.step_index(k, wrap);
    frac_to_mhz(trace.sample_at(&mut cursors[trace_idx], j) as f64)
}

/// The alive (hosted or migrating) VMs of a VM table.
fn alive_set(vms: &[Vm]) -> SortedIdSet {
    vms.iter()
        .filter(|vm| vm.is_alive())
        .map(|vm| vm.id.0)
        .collect()
}

/// The control plane behind an exchange transition. Exchanges exist
/// only while the message model is enabled, so every exchange handler
/// may rely on it. Takes the field, not `self`, so callers keep
/// borrowing the engine's other fields alongside it.
fn control_plane(control: &mut Option<ControlPlane>) -> &mut ControlPlane {
    control.as_mut().expect(
        "control plane invariant: exchange events are only scheduled while the control plane is enabled",
    )
}

impl<P: Policy> Simulation<P> {
    /// Builds a simulation. Servers start hibernated for
    /// [`InitialPlacement::ViaPolicy`] workloads and active for
    /// [`InitialPlacement::Spread`] ones.
    pub fn new(fleet: Fleet, workload: Workload, config: SimConfig, policy: P) -> Self {
        let mut sim = Self::unscheduled(fleet, workload, config, policy);
        sim.schedule_initial_events();
        sim
    }

    /// Validates the inputs and builds the engine as it stands at
    /// t = 0, with nothing scheduled: [`new`](Self::new) then queues
    /// the initial events, and [`restore_from`](Self::restore_from)
    /// overwrites everything that schedule touches (the queue, the
    /// monitor chains, the fault RNG's first draw) instead.
    fn unscheduled(fleet: Fleet, workload: Workload, config: SimConfig, policy: P) -> Self {
        if let Err(e) = config.validate() {
            panic!("invalid simulation config: {e}");
        }
        workload.validate_for(config.duration_secs);
        let initial_state = match workload.initial_placement {
            InitialPlacement::ViaPolicy => ServerState::Hibernated,
            InitialPlacement::Spread => ServerState::Active,
        };
        let cluster = Cluster::new(&fleet, initial_state);
        let n_servers = cluster.n_servers();
        let record_events = config.record_events;
        let fault_rng = config
            .faults
            .enabled()
            .then(|| StdRng::seed_from_u64(config.faults.seed));
        let control = config
            .control_plane
            .enabled()
            .then(|| ControlPlane::new(config.control_plane.clone()));
        // Pre-size the queue's heap for what an open system queues:
        // every spawn up front, then a departure in each started VM's
        // place. Servers add their first monitor ticks at t = 0; later
        // ticks run in the queue's monitor lane.
        let queue = EventQueue::with_capacity(n_servers + workload.spawns.len());
        let cursors = workload.traces.vms.iter().map(VmTrace::cursor).collect();
        Self {
            config,
            cluster,
            policy,
            queue,
            stats: SimStats::new(),
            workload,
            cursors,
            now: 0.0,
            last_pop_accrual: 0.0,
            overloads: Vec::new(),
            alive_vms: SortedIdSet::new(),
            demand_dirty: vec![false; n_servers],
            demand_dirty_ids: Vec::new(),
            monitor_anchor: vec![0.0; n_servers],
            monitor: vec![MonitorChain::Stopped; n_servers],
            parked: Vec::new(),
            parked_slot: vec![0; n_servers],
            #[cfg(debug_assertions)]
            offered_band: None,
            fault_rng,
            wake_seq: vec![0; n_servers],
            wake_attempts: vec![0; n_servers],
            control,
            log: EventLog::new(record_events),
        }
    }

    fn schedule_initial_events(&mut self) {
        // Spawns first so the t = 0 metrics sample sees the initial
        // population (ties break by insertion order).
        for i in 0..self.workload.spawns.len() {
            let t = self.workload.spawns[i].arrive_secs;
            if t <= self.config.duration_secs {
                self.queue.schedule(t, Event::Spawn(i));
            }
        }
        self.queue.schedule(0.0, Event::MetricsSample);
        let step = self.workload.traces.config.step_secs as f64;
        self.queue.schedule(step, Event::DemandUpdate);
        if self.config.migrations_enabled {
            let n = self.cluster.n_servers().max(1);
            for s in 0..self.cluster.n_servers() {
                // Stagger monitors uniformly across one interval so the
                // data center does not probe in lock-step.
                let offset = self.config.monitor_interval_secs * (s + 1) as f64 / n as f64;
                self.queue
                    .schedule(offset, Event::MonitorTick(ServerId(s as u32)));
                self.monitor[s] = MonitorChain::Scheduled;
            }
        }
        self.schedule_next_crash();
    }

    /// Draws the next exponential inter-crash interval and schedules a
    /// `FaultCrash`. No-op when crashes are disabled.
    fn schedule_next_crash(&mut self) {
        let mtbf = self.config.faults.crash_mtbf_secs;
        if !mtbf.is_finite() {
            return;
        }
        let rng = self
            .fault_rng
            .as_mut()
            .expect("crash schedule without a fault RNG");
        let u: f64 = rng.gen_range(0.0..1.0);
        let t = self.now - mtbf * (1.0 - u).ln();
        if t <= self.config.duration_secs {
            self.queue.schedule(t, Event::FaultCrash);
        }
    }

    /// Read access to collected statistics (e.g. mid-run inspection in
    /// tests).
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// Read access to the cluster.
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// Current simulated time, seconds.
    pub fn now(&self) -> f64 {
        self.now
    }

    /// The state of server `sid`'s monitor chain.
    pub fn monitor_chain(&self, sid: ServerId) -> MonitorChain {
        self.monitor[sid.index()]
    }

    /// Events processed so far, counting the silent ticks that parked
    /// monitor chains have passed but not yet settled: the number
    /// [`stats`](Self::stats)`().events_processed` reaches once they
    /// are, and the one a snapshot taken now stores.
    pub fn events_processed(&self) -> u64 {
        let unsettled: u64 = self
            .parked
            .iter()
            .map(|&id| self.settle_of(id as usize).ticks)
            .sum();
        self.stats.events_processed + unsettled
    }

    /// The parked chains (server and watermark, in server order) and
    /// every chain's anchor as they stand after the last pop with every
    /// parked chain settled, and the silent ticks that settling counts.
    /// This is what a snapshot stores, so its bytes do not depend on
    /// when the live chains were last settled.
    fn settled_chains(&self) -> (Vec<(u32, u64)>, Vec<f64>, u64) {
        let (mut parked, mut anchors, mut ticks) = (Vec::new(), self.monitor_anchor.clone(), 0);
        for &id in &self.parked {
            let s = self.settle_of(id as usize);
            ticks += s.ticks;
            anchors[id as usize] = s.anchor;
            parked.extend(s.watermark.map(|watermark| (id, watermark)));
        }
        parked.sort_unstable();
        (parked, anchors, ticks)
    }

    /// Serializes the complete deterministic state of this run into a
    /// [`Checkpoint`]. Everything mutable is captured — cluster, VM
    /// table, event queue, every RNG stream, in-flight exchanges,
    /// statistics, event log, policy soft state — so that
    /// [`restore_from`](Self::restore_from) followed by running to the
    /// end produces byte-identical results to the uninterrupted run.
    ///
    /// `spec` is the canonical scenario string the resume will be
    /// validated against; `seq` is a caller-chosen monotonic sequence
    /// number (checkpoint N of this run).
    pub fn checkpoint(&self, spec: &str, seq: u64) -> Checkpoint<'static> {
        #[cfg(debug_assertions)]
        self.assert_rebuildable();
        self.snapshot(spec, seq)
    }

    /// [`checkpoint`](Self::checkpoint) without its debug check of the
    /// indexes the snapshot leaves out.
    fn snapshot(&self, spec: &str, seq: u64) -> Checkpoint<'static> {
        let (parked, anchors, unsettled) = self.settled_chains();
        let mut ckpt = Checkpoint::new(spec, seq, self.now);
        ckpt.encode_section("engine", |e| self.encode_engine(e, &anchors));
        ckpt.encode_section("traces", |e| self.encode_traces(e));
        ckpt.encode_section("cluster", |e| self.cluster.encode(e));
        ckpt.encode_section("queue", |e| self.queue.encode(e, self.now));
        ckpt.encode_section("stats", |e| self.stats.encode(e, unsettled));
        ckpt.encode_section("control", |e| {
            if let Some(cp) = &self.control {
                cp.encode(e);
            }
        });
        ckpt.encode_section("log", |e| self.log.encode(e));
        ckpt.encode_section("policy", |e| e.u64s(&self.policy.checkpoint_state()));
        // The queue holds the scheduled chains' ticks.
        ckpt.encode_section("monitor", |e| {
            e.usize(parked.len());
            for &(i, watermark) in &parked {
                e.u32(i);
                e.u64(watermark);
            }
            e.u64(self.stats.monitor_ticks_settled + unsettled);
        });
        ckpt
    }

    /// Rebuilds a simulation from a checkpoint taken by
    /// [`checkpoint`](Self::checkpoint).
    ///
    /// `fleet`, `workload`, `config` and `policy` must describe the
    /// same scenario the snapshot was taken from — the checkpoint only
    /// stores mutable state, everything static is re-derived from
    /// these inputs, and `spec` (the caller's canonical scenario
    /// string) is matched against the one embedded in the snapshot to
    /// reject cross-scenario resumes up front.
    ///
    /// In debug builds a round-trip oracle re-snapshots the restored
    /// engine and panics on the first divergent section, so any field
    /// the codecs miss fails loudly instead of silently forking the
    /// trajectory.
    pub fn restore_from(
        fleet: Fleet,
        workload: Workload,
        config: SimConfig,
        policy: P,
        ckpt: &Checkpoint<'_>,
        spec: &str,
    ) -> Result<Self, CheckpointError> {
        ckpt.verify_compat(spec)?;
        let mut sim = Self::unscheduled(fleet, workload, config, policy);
        // Resuming a monitor chain walks from its anchor up to the clock.
        sim.now = ckpt.sim_time_secs;
        if !(0.0..=sim.config.duration_secs).contains(&sim.now) {
            return Err(CheckpointError::Corrupt(format!(
                "clock {} lies outside the run",
                sim.now
            )));
        }

        // The cluster goes first: its VM table sizes the VM ids every
        // later section is checked against.
        let mut d = ckpt.decoder("cluster")?;
        sim.cluster.decode_into(&mut d, sim.cursors.len())?;
        d.finish()?;
        sim.alive_vms = alive_set(&sim.cluster.vms);
        let ids = IdBounds {
            servers: sim.cluster.n_servers(),
            vms: sim.cluster.vms.len(),
        };

        let mut d = ckpt.decoder("engine")?;
        sim.decode_engine(&mut d)?;
        d.finish()?;

        let mut d = ckpt.decoder("traces")?;
        sim.decode_traces(&mut d)?;
        d.finish()?;

        // The queue section leaves out the spawns still to arrive; they
        // go back with the keys they were queued with.
        let spawns = sim.pending_spawns()?;
        let mut d = ckpt.decoder("queue")?;
        sim.queue
            .decode_into(&mut d, &ids, sim.now, spawns.end as u64)?;
        d.finish()?;
        for i in spawns {
            let t = sim.workload.spawns[i].arrive_secs;
            sim.queue
                .restore_entry(t, 2 * i as u64 + 1, Event::Spawn(i));
        }

        let mut d = ckpt.decoder("stats")?;
        sim.stats = SimStats::decode(&mut d, sim.now)?;
        d.finish()?;

        let mut d = ckpt.decoder("control")?;
        if let Some(cp) = sim.control.as_mut() {
            cp.decode_into(&mut d, &ids)?;
        }
        d.finish()?;

        let mut d = ckpt.decoder("log")?;
        sim.log = EventLog::decode(&mut d)?;
        d.finish()?;

        let mut d = ckpt.decoder("policy")?;
        let words = d.u64s()?;
        d.finish()?;
        sim.policy
            .restore_state(&words)
            .map_err(CheckpointError::Corrupt)?;

        // After the queue (which holds the scheduled chains' ticks),
        // the stats (settled ticks are processed events) and the policy
        // (a parked server must be inside its band).
        let mut d = ckpt.decoder("monitor")?;
        sim.decode_monitor(&mut d)?;
        d.finish()?;

        // The re-snapshot also checks the cluster invariants and every
        // rebuilt index (`assert_rebuildable`).
        #[cfg(debug_assertions)]
        if let Some(section) = ckpt.first_divergent_section(&sim.checkpoint(spec, ckpt.seq)) {
            panic!("checkpoint round-trip diverged in section {section:?}");
        }
        Ok(sim)
    }

    /// The spawns still to arrive, which the queue section leaves out:
    /// spawn `i` (event number `i`, as spawns are queued first) for
    /// `vms ≤ i < m`, where `vms` counts the VMs (one per arrival) and
    /// `m` the spawns that arrive by the end of the run. Refuses a VM
    /// table longer than `m` and a next arrival before the clock.
    fn pending_spawns(&self) -> Result<Range<usize>, CheckpointError> {
        let spawns = &self.workload.spawns;
        let vms = self.cluster.vms.len();
        let m = spawns.partition_point(|s| s.arrive_secs <= self.config.duration_secs);
        if vms > m
            || spawns[vms..m]
                .first()
                .is_some_and(|s| s.arrive_secs < self.now)
        {
            return Err(CheckpointError::Corrupt(format!(
                "{vms} VMs do not fit {m} arrivals by the end of the run and the clock {} s",
                self.now
            )));
        }
        Ok(vms..m)
    }

    /// The monitor chains the queue implies: `Scheduled` for each
    /// server with a queued tick, `Stopped` for the rest. Refuses two
    /// queued ticks for one server, and a queued crash while faults are
    /// off.
    fn queued_chains(&self) -> Result<Vec<MonitorChain>, CheckpointError> {
        let mut chains = vec![MonitorChain::Stopped; self.cluster.n_servers()];
        for (_, _, event) in self.queue.pending() {
            let why = match event {
                Event::MonitorTick(sid) if chains[sid.index()] == MonitorChain::Scheduled => {
                    format!("two monitor ticks for server {sid}")
                }
                Event::MonitorTick(sid) => {
                    chains[sid.index()] = MonitorChain::Scheduled;
                    continue;
                }
                Event::FaultCrash if self.fault_rng.is_none() => "a crash with faults off".into(),
                _ => continue,
            };
            return Err(CheckpointError::Corrupt(format!("section 'queue': {why}")));
        }
        Ok(chains)
    }

    /// Checks that the indexes a snapshot leaves out are what
    /// [`restore_from`](Self::restore_from) rebuilds from what it
    /// keeps: the cluster's (by its invariants), the alive set, the
    /// scheduled chains and the queued spawns. (The queue checks its
    /// clock floor as it encodes.)
    #[cfg(debug_assertions)]
    fn assert_rebuildable(&self) {
        self.cluster.check_invariants();
        assert_eq!(self.alive_vms, alive_set(&self.cluster.vms));
        let scheduled = |c: &MonitorChain| *c == MonitorChain::Scheduled;
        let chains = self.queued_chains().expect("queued ticks");
        assert!(chains
            .iter()
            .zip(&self.monitor)
            .all(|(a, b)| scheduled(a) == scheduled(b)));
        let spawn =
            |(_, key, e): (f64, u64, Event)| matches!(e, Event::Spawn(_)).then_some((key, e));
        let mut spawns: Vec<_> = self.queue.pending().filter_map(spawn).collect();
        spawns.sort_unstable_by_key(|p| p.0);
        let pending = self.pending_spawns().expect("arrivals");
        assert!(spawns
            .into_iter()
            .eq(pending.map(|i| (2 * i as u64 + 1, Event::Spawn(i)))));
    }

    /// Engine-private mutable state (everything not owned by a
    /// dedicated subsystem codec), with the monitor anchors as settled
    /// by [`settled_chains`](Self::settled_chains).
    fn encode_engine(&self, e: &mut Enc, monitor_anchor: &[f64]) {
        e.f64(self.last_pop_accrual);
        e.usize(self.overloads.len());
        for o in &self.overloads {
            e.u32(o.server);
            e.f64(o.since);
            e.f64(o.accrued_to);
        }
        monitor_anchor.iter().for_each(|&x| e.f64(x));
        if let Some(rng) = &self.fault_rng {
            e.u64(rng.state());
        }
        self.wake_seq.iter().for_each(|&x| e.u32(x));
        self.wake_attempts.iter().for_each(|&x| e.u32(x));
    }

    /// Inverse of [`encode_engine`](Self::encode_engine); validates
    /// every per-server vector and overload episode against the fleet.
    fn decode_engine(&mut self, d: &mut Dec<'_>) -> Result<(), CheckpointError> {
        let n = self.cluster.n_servers();
        self.last_pop_accrual = d.f64()?;
        let n_open = d.usize()?;
        d.check_remaining(n_open, 20)?;
        let mut overloads: Vec<Overload> = Vec::with_capacity(n_open);
        for _ in 0..n_open {
            let o = Overload {
                server: d.id("overloaded server", n)?,
                since: d.f64()?,
                accrued_to: d.f64()?,
            };
            if overloads.last().is_some_and(|last| last.server >= o.server) {
                return Err(d.corrupt(format_args!(
                    "overload episode of server {} out of order",
                    o.server
                )));
            }
            overloads.push(o);
        }
        self.overloads = overloads;
        self.monitor_anchor = d.f64s_of(n)?;
        if let Some(rng) = self.fault_rng.as_mut() {
            *rng = StdRng::from_state(d.u64()?);
        }
        self.wake_seq = d.u32s_of(n)?;
        self.wake_attempts = d.u32s_of(n)?;
        Ok(())
    }

    /// Inverse of the `monitor` section [`checkpoint`](Self::checkpoint)
    /// writes: the parked chains in server order with their watermarks,
    /// then the settled-tick count; the other chains are as the queue
    /// implies ([`queued_chains`](Self::queued_chains)). Every anchor
    /// must lie in the run, since resuming or settling a chain walks
    /// from it. A parked chain is stored settled, so its server must be
    /// quiet with no tick queued, its next tick due between now and the
    /// end of the run, and its watermark issued.
    fn decode_monitor(&mut self, d: &mut Dec<'_>) -> Result<(), CheckpointError> {
        let n = self.cluster.n_servers();
        let end = self.config.duration_secs;
        if let Some(a) = self
            .monitor_anchor
            .iter()
            .find(|a| !(0.0..=end).contains(*a))
        {
            return Err(d.corrupt(format_args!("monitor anchor {a} lies outside the run")));
        }
        self.monitor = self.queued_chains()?;
        let n_parked = d.usize()?;
        d.check_remaining(n_parked, 12)?;
        let mut last = None;
        for _ in 0..n_parked {
            let i = d.id("parked server", n)? as usize;
            let watermark = d.u64()?;
            let next = self.monitor_anchor[i] + self.config.monitor_interval_secs;
            if last.is_some_and(|last| last >= i)
                || self.monitor[i] != MonitorChain::Stopped
                || watermark > self.queue.watermark()
                || !(self.now..=end).contains(&next)
                || !self.is_quiet(i)
            {
                return Err(d.corrupt(format_args!(
                    "server {i}'s monitor chain is parked (watermark {watermark}, next tick \
                     {next}) but cannot be"
                )));
            }
            self.park(i, watermark);
            last = Some(i);
        }
        let settled = d.u64()?;
        if settled > self.stats.events_processed {
            return Err(d.corrupt(format_args!(
                "{settled} settled monitor ticks but {} processed events",
                self.stats.events_processed
            )));
        }
        self.stats.monitor_ticks_settled = settled;
        Ok(())
    }

    /// Trace cursors, 25 B each, one per trace (so no count). Restoring
    /// them means a resume never replays a trace from its start.
    fn encode_traces(&self, e: &mut Enc) {
        for c in &self.cursors {
            e.u64(c.rng);
            e.f64(c.x);
            e.bool(c.bursting);
            e.u32(c.next);
            e.f32(c.last);
        }
    }

    /// Inverse of [`encode_traces`](Self::encode_traces), one cursor
    /// per trace of the workload; checks every cursor against its trace.
    fn decode_traces(&mut self, d: &mut Dec<'_>) -> Result<(), CheckpointError> {
        let traces = &self.workload.traces.vms;
        for (i, trace) in traces.iter().enumerate() {
            let c = TraceCursor {
                rng: d.u64()?,
                x: d.f64()?,
                bursting: d.bool()?,
                next: d.u32()?,
                last: d.f32()?,
            };
            if c.next as usize > trace.steps() || !c.x.is_finite() || !(0.0..=1.0).contains(&c.last)
            {
                return Err(CheckpointError::Corrupt(format!(
                    "trace cursor {i} is invalid (next {} of {} steps, x {}, last {})",
                    c.next,
                    trace.steps(),
                    c.x,
                    c.last
                )));
            }
            self.cursors[i] = c;
        }
        Ok(())
    }

    /// Processes the next event and returns its time, or `None` when
    /// the queue is drained or the next event lies past the
    /// configured duration. Lets tests and harnesses interleave their
    /// own checks (e.g. [`Cluster::check_invariants`]) with the event
    /// loop; call [`Simulation::finish`] afterwards for the final
    /// accounting.
    pub fn step(&mut self) -> Option<f64> {
        let (t, event) = self.queue.pop()?;
        if t > self.config.duration_secs {
            return None;
        }
        debug_assert!(t >= self.now, "event time went backwards");
        self.now = t;
        self.queue.advance_to(t);
        self.stats.events_processed += 1;
        self.handle(event);
        if self.queue.logged_pops() >= POP_LOG_LIMIT {
            self.settle_parked_chains();
        }
        Some(t)
    }

    /// Runs to completion and returns the results.
    pub fn run(mut self) -> SimResult {
        while self.step().is_some() {}
        self.finish()
    }

    /// Final accounting at the end of the run: closes the books at
    /// `duration_secs` (including overload episodes still open — they
    /// are real violations and must reach the histogram) and packages
    /// the results.
    pub fn finish(mut self) -> SimResult {
        #[cfg(debug_assertions)]
        {
            self.queue.assert_pop_order_law();
            self.assert_parked_chains_quiet();
        }
        let end = self.config.duration_secs;
        // Every silent tick of a parked chain up to the end of the run
        // would have popped.
        let interval = self.config.monitor_interval_secs;
        for &id in &self.parked {
            let mut next = self.monitor_anchor[id as usize] + interval;
            while next <= end {
                self.stats.events_processed += 1;
                self.stats.monitor_ticks_settled += 1;
                next += interval;
            }
        }
        self.now = end;
        self.queue.advance_to(end);
        self.drain_exchanges();
        self.accrue_population();
        self.accrue_active_overloads();
        for o in std::mem::take(&mut self.overloads) {
            self.stats.record_violation(end - o.since);
            self.log.push(SimEvent::OverloadEnded {
                t: end,
                server: ServerId(o.server),
                duration: end - o.since,
            });
        }
        self.refresh_power();
        let final_powered = self.cluster.powered_count();
        let final_alive_vms = self.alive_vms.len();
        let final_inflight_migrations = self
            .alive_vms
            .iter()
            .filter(|&v| self.cluster.vms[v as usize].is_migrating())
            .count();
        debug_assert_eq!(
            self.stats.migrations_started,
            self.stats.migrations_completed
                + self.stats.migrations_aborted
                + final_inflight_migrations as u64,
            "migration conservation violated"
        );
        // Control-plane conservation laws: every invitation is
        // accounted for, and every exchange was resolved (after the
        // drain above nothing may remain open).
        debug_assert_eq!(
            self.stats.invitations_sent,
            self.stats.invite_accepts
                + self.stats.invite_declines
                + self.stats.invite_losses
                + self.stats.invite_timeouts,
            "control-plane message conservation violated"
        );
        debug_assert_eq!(
            self.stats.exchanges_started,
            self.stats.exchanges_committed
                + self.stats.exchanges_abandoned
                + self.stats.exchanges_aborted,
            "exchange conservation violated"
        );
        debug_assert!(
            self.control
                .as_ref()
                .is_none_or(|cp| cp.exchanges.is_empty()),
            "exchanges left open after the end-of-run drain"
        );
        // Commit-leg conservation laws: a committed exchange needs at
        // least one commit send; every NACK answers exactly one arrived
        // commit (epoch-gated, so a sent commit arrives at most once);
        // every recorded loss is a commit leg or a NACK return leg; and
        // re-broadcasts are capped per exchange by the round limit.
        debug_assert!(
            self.stats.commits_sent >= self.stats.exchanges_committed,
            "an exchange committed without a commit message"
        );
        debug_assert!(
            self.stats.commit_nacks <= self.stats.commits_sent,
            "more commit NACKs than commits sent"
        );
        debug_assert!(
            self.stats.commit_losses <= self.stats.commits_sent + self.stats.commit_nacks,
            "more commit-plane losses than commit and NACK legs"
        );
        debug_assert!(
            self.stats.exchange_rebroadcasts
                <= self.stats.exchanges_started
                    * u64::from(self.control.as_ref().map_or(0, |cp| cp.cfg.broadcast_limit)),
            "re-broadcasts exceed the per-exchange round cap"
        );
        // Fault-recovery conservation laws: `replace_vm` resolves every
        // displaced VM as exactly one of re-placed or lost, every
        // migration failure tears down a started migration, and a
        // repair can only complete for a server that crashed.
        debug_assert_eq!(
            self.stats.vms_displaced,
            self.stats.vms_replaced + self.stats.vms_lost,
            "displacement conservation violated"
        );
        debug_assert!(
            self.stats.migration_failures <= self.stats.migrations_aborted,
            "injected migration failures must be a subset of aborted migrations"
        );
        debug_assert!(
            self.stats.server_repairs <= self.stats.server_crashes,
            "a server repair completed without a preceding crash"
        );
        // Open-system conservation law: every VM that ever attached is
        // accounted for as departed, lost to a fault, or still
        // resident. (Dropped VMs never attached and appear nowhere.)
        debug_assert_eq!(
            self.stats.vms_arrived,
            self.stats.vms_departed + self.stats.vms_lost + final_alive_vms as u64,
            "arrival/departure conservation violated"
        );
        debug_assert!(
            self.stats.vms_preempted <= self.stats.vms_departed,
            "spot preemptions must be a subset of departures"
        );
        // Every settled tick is one processed event.
        debug_assert!(
            self.stats.monitor_ticks_settled <= self.stats.events_processed,
            "more settled monitor ticks than processed events"
        );
        let policy_name = self.policy.name().to_string();
        let mut stats = self.stats;
        let summary = stats.summary();
        SimResult {
            stats,
            summary,
            final_powered,
            final_alive_vms,
            final_inflight_migrations,
            policy_name,
            events: self.log,
        }
    }

    // ------------------------------------------------------------------
    // Accounting helpers
    // ------------------------------------------------------------------

    /// Accrues alive-VM-seconds up to `now`.
    fn accrue_population(&mut self) {
        let dt = self.now - self.last_pop_accrual;
        if dt > 0.0 {
            self.stats.accrue_population(dt, self.alive_vms.len());
            self.last_pop_accrual = self.now;
        }
    }

    /// Accrues the ongoing overload episode of `sid` up to `now`, using
    /// the server's *current* (pre-mutation) load. Must be called
    /// before any change to the server's load or VM count.
    fn accrue_overload(&mut self, sid: ServerId) {
        if let Ok(k) = self.overloads.binary_search_by_key(&sid.0, |o| o.server) {
            let dt = self.now - self.overloads[k].accrued_to;
            if dt > 0.0 {
                let s = &self.cluster.servers[sid.index()];
                // Per-class demands and counts on this server.
                let mut demand_by_class = [0.0f64; 3];
                let mut count_by_class = [0usize; 3];
                for &v in &s.vms {
                    let vm = &self.cluster.vms[v.index()];
                    demand_by_class[vm.priority.index()] += vm.demand_mhz;
                    count_by_class[vm.priority.index()] += 1;
                }
                let granted = crate::sla::granted_fractions(
                    s.capacity_mhz(),
                    demand_by_class,
                    self.config.overload_sharing,
                );
                self.stats
                    .accrue_overload_classes(dt, count_by_class, granted);
            }
            self.overloads[k].accrued_to = self.now;
        }
    }

    /// Accrues every open overload episode up to `now`. Sweeps only the
    /// open episodes — O(overloaded), not O(fleet) — in ascending
    /// server order, matching the full scan it replaces.
    fn accrue_active_overloads(&mut self) {
        for k in 0..self.overloads.len() {
            self.accrue_overload(ServerId(self.overloads[k].server));
        }
    }

    /// Refreshes the overload flag of `sid` after a load mutation,
    /// closing or opening an episode as needed, and re-arms its parked
    /// monitor chain if the mutation left it outside the quiet band.
    fn reconcile_overload(&mut self, sid: ServerId) {
        self.rearm_if_loud(sid);
        let is = self.cluster.hot().is_overloaded(sid.index())
            && self.cluster.servers[sid.index()].is_active();
        let open = self.overloads.binary_search_by_key(&sid.0, |o| o.server);
        match (open, is) {
            (Ok(k), false) => {
                let since = self.overloads.remove(k).since;
                self.stats.record_violation(self.now - since);
                self.log.push(SimEvent::OverloadEnded {
                    t: self.now,
                    server: sid,
                    duration: self.now - since,
                });
            }
            (Err(k), true) => {
                self.overloads.insert(
                    k,
                    Overload {
                        server: sid.0,
                        since: self.now,
                        accrued_to: self.now,
                    },
                );
                self.log.push(SimEvent::OverloadStarted {
                    t: self.now,
                    server: sid,
                });
            }
            _ => {}
        }
    }

    /// Advances the energy integral to `now` at the cluster's (cached,
    /// O(1)) total power. Called after every power-relevant mutation.
    fn refresh_power(&mut self) {
        let total = self.cluster.total_power_w();
        self.stats.energy.update(self.now, total);
    }

    /// Schedules a hibernate check if the server just became empty.
    /// `reserved_count` guards the zero-demand edge: a 0 MHz VM in
    /// flight reserves no capacity yet must still block hibernation.
    fn maybe_schedule_hibernate(&mut self, sid: ServerId) {
        let s = &self.cluster.servers[sid.index()];
        if s.vms.is_empty()
            && s.reserved_count == 0
            && self.cluster.hot().reserved_mhz(sid.index()) <= 1e-9
            && s.is_powered()
        {
            self.queue.schedule(
                self.now + self.config.idle_timeout_secs,
                Event::HibernateCheck(sid),
            );
        }
    }

    // ------------------------------------------------------------------
    // Event handlers
    // ------------------------------------------------------------------

    fn handle(&mut self, event: Event) {
        match event {
            Event::Spawn(i) => self.on_spawn(i),
            Event::Departure(vm) => self.on_departure(vm),
            Event::DemandUpdate => self.on_demand_update(),
            Event::MonitorTick(sid) => self.on_monitor_tick(sid),
            Event::MigrationComplete(vm, seq) => self.on_migration_complete(vm, seq),
            Event::WakeComplete(sid, seq) => self.on_wake_complete(sid, seq),
            Event::HibernateCheck(sid) => self.on_hibernate_check(sid),
            Event::MetricsSample => self.on_metrics_sample(),
            Event::FaultCrash => self.on_fault_crash(),
            Event::FaultRepair(sid) => self.on_fault_repair(sid),
            Event::ExchangeCollect(id, epoch)
            | Event::ExchangeCommitTimeout(id, epoch)
            | Event::ExchangeNackArrive(id, epoch) => self.on_exchange_advance(id, epoch),
            Event::ExchangeCommitArrive(id, epoch) => self.on_exchange_commit_arrive(id, epoch),
            Event::ExchangeRebroadcast(id, epoch) => self.on_exchange_rebroadcast(id, epoch),
        }
    }

    /// Global trace step that covers `now`.
    fn trace_step(&self) -> usize {
        (self.now / self.workload.traces.config.step_secs as f64) as usize
    }

    fn on_spawn(&mut self, spawn_idx: usize) {
        let spawn = self.workload.spawns[spawn_idx].clone();
        let vm_id = VmId(self.cluster.vms.len() as u32);
        let k = self.trace_step();
        let demand = trace_demand_mhz(
            &self.workload.traces,
            &mut self.cursors,
            self.workload.wrap_traces,
            spawn.trace_idx,
            k,
        );
        self.cluster.vms.push(Vm {
            id: vm_id,
            trace_idx: spawn.trace_idx,
            demand_mhz: demand,
            ram_mb: spawn.ram_mb,
            state: VmState::Departed, // set on successful placement
            arrived_secs: self.now,
            priority: spawn.priority,
            migration_seq: 0,
            lifetime_secs: spawn.lifetime_secs,
            started: false,
            evictable: spawn.evictable,
        });

        if self.workload.initial_placement == InitialPlacement::Spread && spawn.arrive_secs == 0.0 {
            // Paper §IV: the initial population is spread over the
            // (active) servers to build a non-consolidated scenario.
            let sid = ServerId((spawn_idx % self.cluster.n_servers()) as u32);
            self.finalize_placement(vm_id, PlacementSubject::NewVm, sid);
        } else {
            self.place(vm_id, PlacementSubject::NewVm);
        }
    }

    fn on_departure(&mut self, vm_id: VmId) {
        // A departing VM invalidates its pending migration exchange:
        // there is nothing left to move.
        if let Some(id) = self
            .control
            .as_ref()
            .and_then(|cp| cp.by_vm.get(&vm_id).copied())
        {
            self.abort_exchange(id);
        }
        let state = self.cluster.vms[vm_id.index()].state;
        match state {
            VmState::Hosted { host } => {
                self.accrue_population();
                self.accrue_overload(host);
                self.cluster.detach(vm_id, host, self.now);
                self.cluster.vms[vm_id.index()].state = VmState::Departed;
                self.stats.vms_departed += 1;
                self.alive_vms.remove(vm_id.0);
                self.reconcile_overload(host);
                self.refresh_power();
                self.log.push(SimEvent::VmDeparted {
                    t: self.now,
                    vm: vm_id,
                    server: host,
                });
                self.maybe_schedule_hibernate(host);
            }
            VmState::Migrating { from, to } => {
                // The VM dies mid-flight: free the source load and the
                // target reservation. The epoch bump (plus the state
                // change) makes the queued MigrationComplete stale, and
                // the abort counter keeps the migration conservation
                // law balanced: started == completed + aborted +
                // in-flight.
                self.accrue_population();
                self.accrue_overload(from);
                let demand = self.cluster.vms[vm_id.index()].demand_mhz;
                let ram = self.cluster.vms[vm_id.index()].ram_mb;
                self.cluster.detach(vm_id, from, self.now);
                self.cluster.vms[vm_id.index()].state = VmState::Departed;
                self.cluster.vms[vm_id.index()].migration_seq = self.cluster.vms[vm_id.index()]
                    .migration_seq
                    .wrapping_add(1);
                self.cluster.release_reservation(to, demand, ram);
                self.stats.vms_departed += 1;
                self.alive_vms.remove(vm_id.0);
                self.stats.migrations_aborted += 1;
                self.reconcile_overload(from);
                self.refresh_power();
                self.log.push(SimEvent::MigrationAborted {
                    t: self.now,
                    vm: vm_id,
                    from,
                    to,
                    reason: AbortReason::Departed,
                });
                self.log.push(SimEvent::VmDeparted {
                    t: self.now,
                    vm: vm_id,
                    server: from,
                });
                self.maybe_schedule_hibernate(from);
                self.maybe_schedule_hibernate(to);
            }
            VmState::Departed | VmState::Dropped => {}
        }
    }

    fn on_demand_update(&mut self) {
        // Accrue every ongoing overload episode at the old loads first.
        // Accrual must precede any load mutation so granted-fraction
        // samples see the demands that actually held over the interval.
        self.accrue_active_overloads();
        let step = self.workload.traces.config.step_secs;
        // Only alive VMs are visited, and only servers whose hosted
        // demand actually changed are reconciled: a server's overload
        // status cannot flip unless its load moved, so reconciling the
        // rest would be a pure no-op scan. Each changed host is listed
        // once (its flag dedups), so the sort below covers at most the
        // powered servers, not every changed VM.
        let mut dirty = std::mem::take(&mut self.demand_dirty_ids);
        let k = self.trace_step();
        for &vm_id in self.alive_vms.as_slice() {
            let vm_idx = vm_id as usize;
            let trace_idx = self.cluster.vms[vm_idx].trace_idx;
            let new_demand = trace_demand_mhz(
                &self.workload.traces,
                &mut self.cursors,
                self.workload.wrap_traces,
                trace_idx,
                k,
            );
            if new_demand == self.cluster.vms[vm_idx].demand_mhz {
                continue;
            }
            if let Some(host) = self.cluster.update_vm_demand(VmId(vm_id), new_demand) {
                if !self.demand_dirty[host.index()] {
                    self.demand_dirty[host.index()] = true;
                    dirty.push(host.0);
                }
            }
        }
        // Ascending order matches the full scan's log/event sequence.
        dirty.sort_unstable();
        for &id in &dirty {
            self.demand_dirty[id as usize] = false;
            self.reconcile_overload(ServerId(id));
        }
        dirty.clear();
        self.demand_dirty_ids = dirty;
        #[cfg(debug_assertions)]
        self.assert_parked_chains_quiet();
        self.refresh_power();
        let next = self.now + step as f64;
        if next <= self.config.duration_secs {
            self.queue.schedule_chain(next, Event::DemandUpdate);
        }
    }

    fn on_monitor_tick(&mut self, sid: ServerId) {
        let i = sid.index();
        // Every tick re-anchors the chain phase: `now` is always the
        // result of repeated `+ interval` additions from the initial
        // stagger offset, so a chain resumed from this anchor lands on
        // bit-identical tick times.
        self.monitor_anchor[i] = self.now;
        if !self.cluster.hot().is_powered(i) {
            // A hibernated server's ticks were pure no-ops that kept
            // rescheduling themselves — the dominant event volume in a
            // consolidated fleet. Stop the chain instead; `wake_server`
            // restarts it in phase.
            self.monitor[i] = MonitorChain::Stopped;
            return;
        }
        let quiet = self.is_quiet(i);
        let next = self.now + self.config.monitor_interval_secs;
        if next > self.config.duration_secs {
            self.monitor[i] = MonitorChain::Stopped;
        } else if quiet {
            // Inside the policy's quiet band `monitor` would return
            // `None` without drawing or changing anything, and so would
            // every later tick until the server leaves the band. Park
            // the chain instead of queueing those ticks: this tick would
            // have pushed the next one as its first act, so the queue's
            // next number is where that tick orders.
            self.park(i, self.queue.watermark());
            return;
        } else {
            // Reschedule before running the policy so a panic in the
            // policy cannot silently stop a server's monitor.
            self.queue.schedule_monitor(next, Event::MonitorTick(sid));
        }
        if quiet || !self.cluster.hot().is_active(i) {
            return;
        }
        let Some(req) = self.policy.monitor(&self.cluster.view(), sid, self.now) else {
            return;
        };
        // A VM whose previous placement exchange is still in flight
        // cannot start another one; ignore the request until that
        // exchange resolves.
        if let Some(cp) = &self.control {
            if cp.by_vm.contains_key(&req.vm) {
                return;
            }
        }
        let vm_state = self.cluster.vms[req.vm.index()].state;
        assert_eq!(
            vm_state,
            VmState::Hosted { host: sid },
            "policy requested migration of a VM it does not host"
        );
        let source_utilization = self.cluster.hot().utilization(sid.index());
        self.place(
            req.vm,
            PlacementSubject::Migration {
                source: sid,
                kind: req.kind,
                source_utilization,
            },
        );
    }

    /// Spot-preemption hook: when a *high* migration off an overloaded
    /// server finds no destination anywhere (capacity pressure), the
    /// largest evictable (spot-class) VM on that server is preempted —
    /// an early departure through the normal departure path, so
    /// capacity accounting, logging and the conservation laws all see
    /// an ordinary departure. The VM's queued lifetime `Departure`
    /// event finds it already `Departed` and no-ops. Closed-system
    /// workloads have no evictable VMs, so this is a no-op there.
    fn preempt_spot_for(&mut self, source: ServerId, kind: MigrationKind) {
        if kind != MigrationKind::High {
            return;
        }
        let victim = self.cluster.servers[source.index()]
            .vms
            .iter()
            .map(|&v| &self.cluster.vms[v.index()])
            .filter(|vm| vm.evictable && !vm.is_migrating())
            .max_by(|a, b| {
                // Largest demand frees the most capacity; ties break to
                // the lowest id for determinism.
                a.demand_mhz
                    .total_cmp(&b.demand_mhz)
                    .then(b.id.0.cmp(&a.id.0))
            })
            .map(|vm| vm.id);
        let Some(vm_id) = victim else { return };
        self.stats.vms_preempted += 1;
        self.on_departure(vm_id);
    }

    /// Rolls back an in-flight migration: the source keeps the VM, the
    /// destination's reservation is released at the VM's current
    /// demand, and the epoch bump invalidates the queued completion.
    fn abort_migration(&mut self, vm_id: VmId, reason: AbortReason) {
        let VmState::Migrating { from, to } = self.cluster.vms[vm_id.index()].state else {
            panic!("abort_migration on VM {vm_id} that is not migrating");
        };
        let demand = self.cluster.vms[vm_id.index()].demand_mhz;
        let ram = self.cluster.vms[vm_id.index()].ram_mb;
        self.cluster.vms[vm_id.index()].state = VmState::Hosted { host: from };
        self.cluster.vms[vm_id.index()].migration_seq = self.cluster.vms[vm_id.index()]
            .migration_seq
            .wrapping_add(1);
        self.cluster.release_reservation(to, demand, ram);
        self.stats.migrations_aborted += 1;
        self.log.push(SimEvent::MigrationAborted {
            t: self.now,
            vm: vm_id,
            from,
            to,
            reason,
        });
        self.maybe_schedule_hibernate(to);
    }

    fn on_migration_complete(&mut self, vm_id: VmId, seq: u32) {
        let VmState::Migrating { from, to } = self.cluster.vms[vm_id.index()].state else {
            return; // stale event (VM departed mid-flight)
        };
        if self.cluster.vms[vm_id.index()].migration_seq != seq {
            return; // stale epoch: this flight was already torn down
        }
        match self.cluster.servers[to.index()].state {
            ServerState::Waking { until_secs } => {
                // The destination's wake was pushed back (failed and
                // retried) after this completion was scheduled; the VM
                // cannot land until the server is actually up.
                self.queue.schedule(
                    until_secs.max(self.now),
                    Event::MigrationComplete(vm_id, seq),
                );
                return;
            }
            ServerState::Hibernated | ServerState::Failed { .. } => {
                // Destination went dark before the VM landed (only
                // reachable through fault timing races) — roll back.
                self.abort_migration(vm_id, AbortReason::DestinationFailed);
                return;
            }
            ServerState::Active => {}
        }
        if let Some(rng) = self.fault_rng.as_mut() {
            let p = self.config.faults.migration_failure_prob;
            if p > 0.0 && rng.gen_bool(p) {
                self.stats.migration_failures += 1;
                self.abort_migration(vm_id, AbortReason::Injected);
                return;
            }
        }
        self.accrue_overload(from);
        self.accrue_overload(to);
        let demand = self.cluster.vms[vm_id.index()].demand_mhz;
        let ram = self.cluster.vms[vm_id.index()].ram_mb;
        self.cluster.detach(vm_id, from, self.now);
        self.cluster.release_reservation(to, demand, ram);
        self.cluster.attach(vm_id, to, self.now);
        self.cluster.vms[vm_id.index()].migration_seq = self.cluster.vms[vm_id.index()]
            .migration_seq
            .wrapping_add(1);
        self.stats.migrations_completed += 1;
        self.log.push(SimEvent::MigrationCompleted {
            t: self.now,
            vm: vm_id,
            from,
            to,
        });
        self.start_vm_if_active(vm_id);
        self.reconcile_overload(from);
        self.reconcile_overload(to);
        self.refresh_power();
        self.maybe_schedule_hibernate(from);
    }

    /// Starts a VM's lifetime clock once it is hosted on an `Active`
    /// server: schedules its departure on first start. VMs pending on a
    /// `Waking` host hold capacity but do not execute (and do not burn
    /// lifetime) until the wake completes.
    fn start_vm_if_active(&mut self, vm_id: VmId) {
        let vm = &self.cluster.vms[vm_id.index()];
        if vm.started {
            return;
        }
        let Some(host) = vm.executing_on() else {
            return;
        };
        if !self.cluster.servers[host.index()].is_active() {
            return;
        }
        self.cluster.vms[vm_id.index()].started = true;
        if let Some(life) = self.cluster.vms[vm_id.index()].lifetime_secs {
            self.queue
                .schedule(self.now + life, Event::Departure(vm_id));
        }
    }

    fn wake_server(&mut self, sid: ServerId) {
        assert!(
            matches!(
                self.cluster.servers[sid.index()].state,
                ServerState::Hibernated
            ),
            "cannot wake server {sid} in state {:?}",
            self.cluster.servers[sid.index()].state
        );
        let until = self.now + self.config.wake_latency_secs;
        self.cluster
            .set_server_state(sid, ServerState::Waking { until_secs: until });
        self.cluster.servers[sid.index()].empty_since_secs = Some(self.now);
        self.wake_attempts[sid.index()] = 0;
        self.stats.activations.record(self.now);
        self.log.push(SimEvent::ServerWaking {
            t: self.now,
            server: sid,
        });
        self.queue
            .schedule(until, Event::WakeComplete(sid, self.wake_seq[sid.index()]));
        self.refresh_power();
        self.resume_monitor(sid);
    }

    /// Restarts a stopped monitor chain after `sid` powered back on.
    /// The next tick is the first element of the original chain that
    /// lies strictly in the future, computed by the same repeated
    /// `+ interval` float additions the live chain performs — the
    /// resumed chain is therefore bit-identical to one that never
    /// stopped ticking.
    fn resume_monitor(&mut self, sid: ServerId) {
        if !self.config.migrations_enabled || self.monitor[sid.index()] != MonitorChain::Stopped {
            return;
        }
        let interval = self.config.monitor_interval_secs;
        let mut next = self.monitor_anchor[sid.index()] + interval;
        while next <= self.now {
            next += interval;
        }
        if next <= self.config.duration_secs {
            self.queue.schedule(next, Event::MonitorTick(sid));
            self.monitor[sid.index()] = MonitorChain::Scheduled;
        }
    }

    /// The policy's quiet band. Debug builds check that, once offered,
    /// it never changes: parked chains rely on the band they parked in.
    fn quiet_band(&mut self) -> Option<RangeInclusive<f64>> {
        let band = self.policy.quiet_band(self.cluster.n_servers());
        #[cfg(debug_assertions)]
        match (&self.offered_band, &band) {
            (Some(first), _) => assert_eq!(
                band.as_ref(),
                Some(first),
                "the policy's quiet band changed mid-run"
            ),
            (None, Some(_)) => self.offered_band.clone_from(&band),
            (None, None) => {}
        }
        band
    }

    /// True when server `i` is active and its utilization lies in the
    /// policy's quiet band, where its monitor ticks are silent.
    fn is_quiet(&mut self, i: usize) -> bool {
        self.cluster.hot().is_active(i)
            && self
                .quiet_band()
                .is_some_and(|band| band.contains(&self.cluster.hot().utilization(i)))
    }

    /// Parks server `i`'s monitor chain with `watermark`, the order
    /// watermark of its next tick.
    fn park(&mut self, i: usize, watermark: u64) {
        self.monitor[i] = MonitorChain::Parked { watermark };
        self.parked_slot[i] = self.parked.len() as u32;
        self.parked.push(i as u32);
        if self.parked.len() == 1 {
            self.queue.log_pops(true);
        }
    }

    /// Takes server `i` out of the parked set, leaving its chain in
    /// state `chain`.
    fn unpark(&mut self, i: usize, chain: MonitorChain) {
        let slot = self.parked_slot[i] as usize;
        self.parked.swap_remove(slot);
        if let Some(&moved) = self.parked.get(slot) {
            self.parked_slot[moved as usize] = slot as u32;
        }
        self.monitor[i] = chain;
        if self.parked.is_empty() {
            self.queue.log_pops(false);
        }
    }

    /// Server `i`'s parked chain settled up to the last pop, unchanged.
    fn settle_of(&self, i: usize) -> crate::events::Settled {
        let MonitorChain::Parked { watermark } = self.monitor[i] else {
            unreachable!("server {i}'s monitor chain is not parked");
        };
        self.queue.settle_parked(
            self.monitor_anchor[i],
            watermark,
            self.config.monitor_interval_secs,
            self.config.duration_secs,
        )
    }

    /// Settles server `i`'s parked chain up to the last pop: counts the
    /// silent ticks it passed and moves its anchor to the last of them.
    /// Returns the watermark of its next tick, or `None` (and stops the
    /// chain) when the run ends before that tick.
    fn settle_chain(&mut self, i: usize) -> Option<u64> {
        let s = self.settle_of(i);
        self.stats.events_processed += s.ticks;
        self.stats.monitor_ticks_settled += s.ticks;
        self.monitor_anchor[i] = s.anchor;
        match s.watermark {
            Some(watermark) => self.monitor[i] = MonitorChain::Parked { watermark },
            None => self.unpark(i, MonitorChain::Stopped),
        }
        s.watermark
    }

    /// Settles every parked chain up to the last pop, after which the
    /// queue's pop log can be emptied: this bounds the log.
    fn settle_parked_chains(&mut self) {
        // Backwards, so a chain that stops swaps in one already settled.
        for k in (0..self.parked.len()).rev() {
            self.settle_chain(self.parked[k] as usize);
        }
        self.queue.forget_pops();
    }

    /// Re-arms `sid`'s parked monitor chain once the server is no
    /// longer quiet: it left `Active`, or its utilization left the
    /// band. The silent ticks that popped before the current event are
    /// settled, and the chain's next tick is queued at the time and in
    /// the order the unparked chain has it — at the current time if it
    /// had not popped yet.
    fn rearm_if_loud(&mut self, sid: ServerId) {
        let i = sid.index();
        if !matches!(self.monitor[i], MonitorChain::Parked { .. }) || self.is_quiet(i) {
            return;
        }
        if let Some(watermark) = self.settle_chain(i) {
            let next = self.monitor_anchor[i] + self.config.monitor_interval_secs;
            self.queue.schedule_rearmed(next, watermark, sid);
            self.unpark(i, MonitorChain::Scheduled);
        }
    }

    /// The parked-chain law: every parked chain's server is active and
    /// inside the quiet band. A load or power change that skipped
    /// [`rearm_if_loud`](Self::rearm_if_loud) breaks it.
    #[cfg(debug_assertions)]
    fn assert_parked_chains_quiet(&mut self) {
        for k in 0..self.parked.len() {
            let i = self.parked[k] as usize;
            assert!(
                self.is_quiet(i),
                "server {i}'s monitor chain is parked, but the server is {:?} at u = {}",
                self.cluster.servers[i].state,
                self.cluster.hot().utilization(i)
            );
        }
    }

    fn on_wake_complete(&mut self, sid: ServerId, seq: u32) {
        if seq != self.wake_seq[sid.index()] {
            return; // stale: the wake was retried or cancelled
        }
        if !matches!(
            self.cluster.servers[sid.index()].state,
            ServerState::Waking { .. }
        ) {
            return; // stale (hibernated again before finishing — not
                    // reachable with current rules, but harmless)
        }
        if let Some(rng) = self.fault_rng.as_mut() {
            let p = self.config.faults.wake_failure_prob;
            if p > 0.0 && rng.gen_bool(p) {
                self.on_wake_failed(sid);
                return;
            }
        }
        self.wake_attempts[sid.index()] = 0;
        self.cluster.set_server_state(sid, ServerState::Active);
        self.log.push(SimEvent::ServerActive {
            t: self.now,
            server: sid,
        });
        self.policy.on_server_woken(sid, self.now);
        // Pending VMs start executing — their lifetimes begin here.
        let mut pending = self.cluster.servers[sid.index()].vms.clone();
        pending.sort_unstable_by_key(|v| v.0);
        for vm in pending {
            self.start_vm_if_active(vm);
        }
        self.reconcile_overload(sid);
        self.refresh_power();
        self.maybe_schedule_hibernate(sid);
    }

    /// An injected wake failure: retry with capped exponential backoff
    /// up to the configured limit, then give up — displaced pending VMs
    /// are re-placed and the server returns to hibernation.
    fn on_wake_failed(&mut self, sid: ServerId) {
        self.stats.wake_failures += 1;
        let attempt = self.wake_attempts[sid.index()] + 1;
        self.wake_attempts[sid.index()] = attempt;
        self.log.push(SimEvent::WakeFailed {
            t: self.now,
            server: sid,
            attempt,
        });
        let f = &self.config.faults;
        if attempt <= f.wake_retry_limit {
            let backoff = (f.wake_retry_backoff_secs * 2f64.powi(attempt as i32 - 1))
                .min(f.wake_retry_backoff_cap_secs);
            let until = self.now + backoff;
            self.wake_seq[sid.index()] = self.wake_seq[sid.index()].wrapping_add(1);
            self.cluster
                .set_server_state(sid, ServerState::Waking { until_secs: until });
            self.queue
                .schedule(until, Event::WakeComplete(sid, self.wake_seq[sid.index()]));
        } else {
            self.abandon_wake(sid);
        }
    }

    /// Gives up on a wake that exhausted its retries: rolls back
    /// migrations inbound to the server, re-places its pending VMs
    /// through the normal assignment procedure, and hibernates it.
    fn abandon_wake(&mut self, sid: ServerId) {
        self.accrue_population();
        self.rollback_inbound_migrations(sid);
        let mut displaced = self.cluster.servers[sid.index()].vms.clone();
        displaced.sort_unstable_by_key(|v| v.0);
        for &vm in &displaced {
            // A Waking server never executes VMs, so none can be a
            // migration source.
            debug_assert!(!self.cluster.vms[vm.index()].is_migrating());
            self.cluster.detach(vm, sid, self.now);
        }
        debug_assert_eq!(self.cluster.servers[sid.index()].reserved_count, 0);
        self.wake_seq[sid.index()] = self.wake_seq[sid.index()].wrapping_add(1);
        self.wake_attempts[sid.index()] = 0;
        self.cluster.set_server_state(sid, ServerState::Hibernated);
        self.cluster.servers[sid.index()].empty_since_secs = None;
        self.stats.hibernations.record(self.now);
        self.log.push(SimEvent::ServerHibernated {
            t: self.now,
            server: sid,
        });
        self.policy.on_server_failed(sid, self.now);
        self.refresh_power();
        for &vm in &displaced {
            self.replace_vm(vm);
        }
    }

    /// Rolls back every in-flight migration whose destination is `sid`
    /// (about to fail), releasing its reservations.
    fn rollback_inbound_migrations(&mut self, sid: ServerId) {
        if self.cluster.servers[sid.index()].reserved_count == 0 {
            return;
        }
        let inbound: Vec<u32> = self
            .alive_vms
            .iter()
            .filter(|&v| {
                matches!(
                    self.cluster.vms[v as usize].state,
                    VmState::Migrating { to, .. } if to == sid
                )
            })
            .collect();
        for v in inbound {
            self.abort_migration(VmId(v), AbortReason::DestinationFailed);
        }
        debug_assert_eq!(self.cluster.servers[sid.index()].reserved_count, 0);
    }

    /// Re-places a VM displaced by a fault through the normal
    /// assignment procedure; VMs nobody accepts are lost.
    fn replace_vm(&mut self, vm_id: VmId) {
        self.stats.vms_displaced += 1;
        let req = self.placement_request(vm_id, PlacementSubject::NewVm);
        let outcome = self.policy.place(&self.cluster.view(), &req);
        match self.claim_target(PlacementSubject::NewVm, outcome) {
            // On a host that is still waking, the overload calls and
            // the start are no-ops: it has no open episode and cannot
            // execute the VM yet.
            Some(sid) => {
                self.accrue_overload(sid);
                self.cluster.attach(vm_id, sid, self.now);
                self.stats.vms_replaced += 1;
                self.log.push(SimEvent::VmReplaced {
                    t: self.now,
                    vm: vm_id,
                    server: sid,
                });
                self.start_vm_if_active(vm_id);
                self.reconcile_overload(sid);
            }
            None => {
                self.cluster.vms[vm_id.index()].state = VmState::Dropped;
                self.stats.vms_lost += 1;
                self.alive_vms.remove(vm_id.0);
                self.log.push(SimEvent::VmLost {
                    t: self.now,
                    vm: vm_id,
                });
            }
        }
        self.refresh_power();
    }

    fn on_fault_crash(&mut self) {
        let n_powered = self.cluster.powered_count();
        if n_powered > 0 {
            let k = {
                let rng = self
                    .fault_rng
                    .as_mut()
                    .expect("crash event without a fault RNG");
                rng.gen_range(0..n_powered)
            };
            let victim = self
                .cluster
                .view()
                .powered()
                .nth(k)
                .map(|(sid, _)| sid)
                .expect("powered index shorter than its count");
            self.crash_server(victim);
        }
        self.schedule_next_crash();
    }

    /// Crashes `sid`: aborts every migration touching it, displaces and
    /// re-places its VMs, and takes it down for the repair duration.
    fn crash_server(&mut self, sid: ServerId) {
        debug_assert!(
            self.cluster.servers[sid.index()].is_powered(),
            "crashing a server that is not powered"
        );
        self.accrue_population();
        self.accrue_overload(sid);
        // Inbound flights lose their destination...
        self.rollback_inbound_migrations(sid);
        let mut displaced = self.cluster.servers[sid.index()].vms.clone();
        displaced.sort_unstable_by_key(|v| v.0);
        // ...outbound flights lose their (executing) source: roll them
        // back first so every displaced VM is plainly hosted here.
        for &vm in &displaced {
            if self.cluster.vms[vm.index()].is_migrating() {
                self.abort_migration(vm, AbortReason::SourceFailed);
            }
        }
        for &vm in &displaced {
            self.cluster.detach(vm, sid, self.now);
        }
        debug_assert!(self.cluster.servers[sid.index()].vms.is_empty());
        debug_assert_eq!(self.cluster.servers[sid.index()].reserved_count, 0);
        let until = self.now + self.config.faults.crash_repair_secs;
        self.wake_seq[sid.index()] = self.wake_seq[sid.index()].wrapping_add(1);
        self.wake_attempts[sid.index()] = 0;
        self.cluster
            .set_server_state(sid, ServerState::Failed { until_secs: until });
        self.cluster.servers[sid.index()].empty_since_secs = None;
        self.stats.server_crashes += 1;
        self.log.push(SimEvent::ServerFailed {
            t: self.now,
            server: sid,
        });
        self.reconcile_overload(sid); // closes any open episode
        self.policy.on_server_failed(sid, self.now);
        // The crash aborts every in-flight exchange sourced here: the
        // VMs it was trying to move are displaced below and re-placed
        // through the atomic recovery path. (Exchanges merely
        // *targeting* this server are left to the commit re-check,
        // which NACKs against a non-powered destination.)
        if let Some(cp) = &self.control {
            let doomed: Vec<u64> = cp
                .exchanges
                .iter()
                .filter(|(_, ex)| ex.subject.source() == Some(sid))
                .map(|(&id, _)| id)
                .collect();
            for id in doomed {
                self.abort_exchange(id);
            }
        }
        if until <= self.config.duration_secs {
            self.queue.schedule(until, Event::FaultRepair(sid));
        }
        self.refresh_power();
        for &vm in &displaced {
            self.replace_vm(vm);
        }
        #[cfg(debug_assertions)]
        self.cluster.check_invariants();
    }

    fn on_fault_repair(&mut self, sid: ServerId) {
        if !matches!(
            self.cluster.servers[sid.index()].state,
            ServerState::Failed { .. }
        ) {
            return;
        }
        self.cluster.set_server_state(sid, ServerState::Hibernated);
        self.cluster.servers[sid.index()].empty_since_secs = None;
        self.stats.server_repairs += 1;
        self.log.push(SimEvent::ServerRepaired {
            t: self.now,
            server: sid,
        });
    }

    // ------------------------------------------------------------------
    // Placement
    //
    // Every placement takes one route once the policy has decided. The
    // decision comes from one atomic `Policy::place` call, or from a
    // control-plane exchange (below); only that source differs. Both
    // build their requests with `placement_request`, resolve a decision
    // through `apply_outcome`, and attach the VM or start the move in
    // `finalize_placement`.
    // ------------------------------------------------------------------

    /// Builds the policy's request for placing `vm`, against its
    /// *current* demand.
    fn placement_request(&self, vm: VmId, subject: PlacementSubject) -> PlacementRequest {
        let v = &self.cluster.vms[vm.index()];
        PlacementRequest {
            demand_mhz: v.demand_mhz,
            ram_mb: v.ram_mb,
            kind: match subject {
                PlacementSubject::NewVm => PlacementKind::NewVm,
                PlacementSubject::Migration {
                    kind: MigrationKind::High,
                    source_utilization,
                    ..
                } => PlacementKind::MigrationHigh { source_utilization },
                PlacementSubject::Migration {
                    kind: MigrationKind::Low,
                    ..
                } => PlacementKind::MigrationLow,
            },
            exclude: subject.source(),
            now_secs: self.now,
        }
    }

    /// Places `vm` by the §II assignment procedure: as a message
    /// exchange when the control plane is on and the policy implements
    /// the phased protocol, otherwise through one atomic `place` call.
    fn place(&mut self, vm: VmId, subject: PlacementSubject) {
        let req = self.placement_request(vm, subject);
        if self.try_start_exchange(vm, subject, &req) {
            return;
        }
        let outcome = self.policy.place(&self.cluster.view(), &req);
        self.apply_outcome(vm, subject, outcome);
    }

    /// Checks a policy decision against §II and wakes the chosen server
    /// if asked. Returns the target, or `None` for a reject.
    fn claim_target(
        &mut self,
        subject: PlacementSubject,
        outcome: PlaceOutcome,
    ) -> Option<ServerId> {
        let (target, wake) = match outcome {
            PlaceOutcome::Place(sid) => (sid, false),
            PlaceOutcome::WakeThenPlace(sid) => (sid, true),
            PlaceOutcome::Reject => return None,
        };
        if let PlacementSubject::Migration { source, kind, .. } = subject {
            assert!(
                !(wake && kind == MigrationKind::Low),
                "policy woke a server for a low migration (forbidden by §II)"
            );
            assert_ne!(target, source, "policy migrated a VM onto its own source");
        }
        if wake {
            self.wake_server(target);
        } else {
            assert!(
                self.cluster.servers[target.index()].is_powered(),
                "policy placed a VM on a hibernated server {target}"
            );
        }
        Some(target)
    }

    /// Carries out a policy decision for `vm`: finalize it on the
    /// target, or handle the reject. An unplaced new VM is dropped; a
    /// migrating VM stays on its source, where a stuck high migration
    /// may preempt a spot VM.
    fn apply_outcome(&mut self, vm: VmId, subject: PlacementSubject, outcome: PlaceOutcome) {
        match (self.claim_target(subject, outcome), subject) {
            (Some(target), _) => self.finalize_placement(vm, subject, target),
            (None, PlacementSubject::NewVm) => self.drop_unplaced(vm),
            (None, PlacementSubject::Migration { source, kind, .. }) => {
                self.preempt_spot_for(source, kind)
            }
        }
    }

    /// Performs the placement a decision resolved to: attach a new VM,
    /// or start the live migration.
    fn finalize_placement(&mut self, vm: VmId, subject: PlacementSubject, target: ServerId) {
        match subject {
            PlacementSubject::NewVm => {
                self.accrue_population();
                self.accrue_overload(target);
                self.cluster.attach(vm, target, self.now);
                self.stats.vms_arrived += 1;
                self.alive_vms.insert(vm.0);
                self.reconcile_overload(target);
                self.refresh_power();
                self.log.push(SimEvent::VmPlaced {
                    t: self.now,
                    vm,
                    server: target,
                });
                // A VM landing on a still-waking host stays pending:
                // its lifetime starts when the wake completes.
                self.start_vm_if_active(vm);
            }
            PlacementSubject::Migration { source, kind, .. } => {
                let demand = self.cluster.vms[vm.index()].demand_mhz;
                let ram = self.cluster.vms[vm.index()].ram_mb;
                self.cluster.vms[vm.index()].state = VmState::Migrating {
                    from: source,
                    to: target,
                };
                self.cluster.add_reservation(target, demand, ram);
                self.stats.migrations_started += 1;
                match kind {
                    MigrationKind::Low => self.stats.low_migrations.record(self.now),
                    MigrationKind::High => self.stats.high_migrations.record(self.now),
                }
                self.log.push(SimEvent::MigrationStarted {
                    t: self.now,
                    vm,
                    from: source,
                    to: target,
                    kind,
                });
                let mut complete_at = self.now + self.config.migration_latency_secs;
                if let ServerState::Waking { until_secs } =
                    self.cluster.servers[target.index()].state
                {
                    // The VM cannot land on a server that is still
                    // waking — whether this migration started the wake
                    // or the destination was already mid-transition
                    // (e.g. accepted inside its grace window).
                    complete_at = complete_at.max(until_secs);
                }
                let seq = self.cluster.vms[vm.index()].migration_seq;
                self.queue
                    .schedule(complete_at, Event::MigrationComplete(vm, seq));
            }
        }
    }

    /// Drops a new VM that no server will host.
    fn drop_unplaced(&mut self, vm: VmId) {
        self.cluster.vms[vm.index()].state = VmState::Dropped;
        self.stats.dropped_vms += 1;
        self.log.push(SimEvent::VmDropped { t: self.now, vm });
    }

    // ------------------------------------------------------------------
    // Control-plane placement exchanges
    //
    // With the message model enabled, the decision comes from a little
    // state machine instead of one atomic call:
    //
    //   broadcast ──collect──▶ commit ──recheck ok──▶ placed
    //       ▲          │          │
    //       │          │ no       │ NACK / lost
    //       │          ▼ acceptor ▼
    //       └──backoff── re-broadcast? ──rounds spent──▶ wake-or-reject
    //
    // "placed" is `finalize_placement` and "wake-or-reject" is
    // `apply_outcome`, the same code the atomic path runs. Every
    // transition bumps the exchange epoch; queued events carrying an
    // older epoch are stale and dropped, exactly like the engine's wake
    // and migration epochs.
    // ------------------------------------------------------------------

    /// Starts a placement exchange for `vm` when the control plane is
    /// enabled and the policy implements the phased protocol. Returns
    /// false — having touched nothing — when the caller should fall
    /// back to the atomic `place` call.
    fn try_start_exchange(
        &mut self,
        vm: VmId,
        subject: PlacementSubject,
        req: &PlacementRequest,
    ) -> bool {
        if self.control.is_none() {
            return false;
        }
        let Some(acceptors) = self.policy.invite(&self.cluster.view(), req) else {
            return false; // policy opted out: stay atomic
        };
        let cp = control_plane(&mut self.control);
        let id = cp.next_id;
        cp.next_id += 1;
        cp.exchanges.insert(
            id,
            Exchange {
                vm,
                subject,
                epoch: 0,
                started_secs: self.now,
                rounds: 0,
                acceptors: Vec::new(),
                pending_commit: None,
            },
        );
        cp.by_vm.insert(vm, id);
        self.stats.exchanges_started += 1;
        self.log.push(SimEvent::ExchangeStarted { t: self.now, vm });
        self.broadcast_round(id, acceptors);
        true
    }

    /// Broadcasts one invitation round for exchange `id` to every
    /// powered server but the migration source. `would_accept` holds
    /// the servers whose acceptance trial (run by the policy at
    /// broadcast time) succeeded, in fleet order. Each invitation and
    /// each response carry independent loss and latency draws; only
    /// responses surviving both legs within the collection window
    /// reach the manager. A round no draw can spoil settles in O(1)
    /// ([`ControlPlane::settle_round`]).
    fn broadcast_round(&mut self, id: u64, would_accept: Vec<ServerId>) {
        let cp = control_plane(&mut self.control);
        let exclude = cp.live_mut(id).subject.source();
        let hot = self.cluster.hot();
        debug_assert!(
            would_accept.windows(2).all(|w| w[0] < w[1])
                && would_accept
                    .iter()
                    .all(|&s| Some(s) != exclude && hot.is_powered(s.index())),
            "policy returned an acceptor that was not invited"
        );
        let view = self.cluster.view();
        let excluded_powered = exclude.is_some_and(|s| hot.is_powered(s.index()));
        let n_invited = view.n_powered() - usize::from(excluded_powered);
        let invited = view
            .powered()
            .map(|(sid, _)| sid)
            .filter(|&sid| Some(sid) != exclude);
        let (tally, in_time) = cp.settle_round(invited, n_invited, would_accept);
        self.stats.invitations_sent += tally.sent;
        self.stats.invite_accepts += tally.accepts;
        self.stats.invite_declines += tally.declines;
        self.stats.invite_losses += tally.losses;
        self.stats.invite_timeouts += tally.timeouts;
        let timeout = cp.cfg.accept_timeout_secs;
        let ex = cp.live_mut(id);
        ex.rounds += 1;
        ex.acceptors = in_time;
        ex.pending_commit = None;
        ex.epoch = ex.epoch.wrapping_add(1);
        let epoch = ex.epoch;
        self.queue
            .schedule(self.now + timeout, Event::ExchangeCollect(id, epoch));
    }

    /// Gate shared by all exchange event handlers. An event whose
    /// `(id, epoch)` no longer names a live exchange state is stale and
    /// dropped. A migration exchange is valid only while its VM still
    /// executes on the requesting source; a crash, departure or
    /// displacement invalidates it, and the gate aborts it. (Eager
    /// aborts in `crash_server`/`on_departure` normally fire first;
    /// this is the lazy backstop.) Returns true when the handler should
    /// proceed.
    fn exchange_gate(&mut self, id: u64, epoch: u32) -> bool {
        let Some(ex) = self
            .control
            .as_ref()
            .and_then(|cp| cp.exchanges.get(&id))
            .filter(|ex| ex.epoch == epoch)
        else {
            return false;
        };
        let valid = match ex.subject {
            PlacementSubject::NewVm => true,
            PlacementSubject::Migration { source, .. } => {
                self.cluster.vms[ex.vm.index()].state == VmState::Hosted { host: source }
                    && self.cluster.servers[source.index()].is_active()
            }
        };
        if !valid {
            self.abort_exchange(id);
        }
        valid
    }

    /// Tears down exchange `id` without resolution: a migrating VM
    /// simply stays on its source.
    fn abort_exchange(&mut self, id: u64) {
        let ex = control_plane(&mut self.control).take(id);
        self.stats.exchanges_aborted += 1;
        self.log.push(SimEvent::ExchangeAborted {
            t: self.now,
            vm: ex.vm,
        });
        if matches!(ex.subject, PlacementSubject::NewVm) {
            // Unreachable with the current invalidation rules (nothing
            // invalidates a limbo VM), but dropping keeps the VM
            // conservation law airtight if that ever changes.
            self.drop_unplaced(ex.vm);
        }
    }

    /// `ExchangeCollect`, `ExchangeCommitTimeout` and
    /// `ExchangeNackArrive` share this handler: the collection window
    /// closed, or the manager knows (NACK) or assumes (timeout — the
    /// commit or its NACK was lost) that the outstanding commit went
    /// nowhere, and moves on. Whichever of timeout and NACK fires first
    /// wins; the next transition's epoch bump makes the other stale.
    fn on_exchange_advance(&mut self, id: u64, epoch: u32) {
        if self.exchange_gate(id, epoch) {
            self.advance_exchange(id);
        }
    }

    fn on_exchange_rebroadcast(&mut self, id: u64, epoch: u32) {
        if !self.exchange_gate(id, epoch) {
            return;
        }
        let ex = control_plane(&mut self.control).live_mut(id);
        let (vm, subject) = (ex.vm, ex.subject);
        let req = self.placement_request(vm, subject);
        let acceptors = self
            .policy
            .invite(&self.cluster.view(), &req)
            .expect("policy abandoned the phased protocol mid-run");
        self.broadcast_round(id, acceptors);
    }

    /// Moves an exchange forward after its collection window closed or
    /// an outstanding commit came to nothing: try the next in-time
    /// acceptor, else re-broadcast or fall back.
    fn advance_exchange(&mut self, id: u64) {
        let ex = control_plane(&mut self.control).live_mut(id);
        if ex.acceptors.is_empty() {
            self.rebroadcast_or_exhaust(id);
        } else {
            let idx = self.policy.choose_acceptor(&ex.acceptors);
            let target = ex.acceptors.remove(idx);
            self.send_commit(id, target);
        }
    }

    /// Sends the commit for exchange `id` to `target`. The commit leg
    /// may be lost; the manager always arms a timeout equal to its
    /// collection window as the backstop for lost commits and NACKs.
    fn send_commit(&mut self, id: u64, target: ServerId) {
        self.stats.commits_sent += 1;
        let cp = control_plane(&mut self.control);
        let timeout = cp.cfg.accept_timeout_secs;
        let lost = cp.lose();
        let latency = if lost { 0.0 } else { cp.draw_latency() };
        let ex = cp.live_mut(id);
        ex.pending_commit = Some(target);
        ex.epoch = ex.epoch.wrapping_add(1);
        let epoch = ex.epoch;
        if lost {
            self.stats.commit_losses += 1;
        } else {
            self.queue
                .schedule(self.now + latency, Event::ExchangeCommitArrive(id, epoch));
        }
        self.queue
            .schedule(self.now + timeout, Event::ExchangeCommitTimeout(id, epoch));
    }

    fn on_exchange_commit_arrive(&mut self, id: u64, epoch: u32) {
        if !self.exchange_gate(id, epoch) {
            return;
        }
        let ex = control_plane(&mut self.control).live_mut(id);
        let (vm, subject) = (ex.vm, ex.subject);
        let target = ex
            .pending_commit
            .expect("commit arrival without a pending commit");
        let req = self.placement_request(vm, subject);
        // Admission re-check against the server's *current* state: the
        // acceptance was computed at broadcast time and may have gone
        // stale — the server may have crashed, hibernated, or drifted
        // past its acceptance threshold in the meantime.
        let admitted = self.cluster.servers[target.index()].is_powered()
            && self
                .policy
                .admission_recheck(&self.cluster.view(), target, &req);
        if admitted {
            self.commit_exchange(id, target);
            return;
        }
        self.stats.commit_nacks += 1;
        self.log.push(SimEvent::ExchangeNacked {
            t: self.now,
            vm,
            server: target,
        });
        let cp = control_plane(&mut self.control);
        if cp.lose() {
            // The NACK is lost; the manager's commit timeout (already
            // armed) will discover the failure.
            self.stats.commit_losses += 1;
        } else {
            let l = cp.draw_latency();
            self.queue
                .schedule(self.now + l, Event::ExchangeNackArrive(id, epoch));
        }
    }

    /// No acceptors left in the current round: re-broadcast with
    /// capped, jittered exponential backoff while rounds remain, else
    /// resolve through the policy's wake-or-reject fallback.
    fn rebroadcast_or_exhaust(&mut self, id: u64) {
        let cp = control_plane(&mut self.control);
        let rounds = cp.live_mut(id).rounds;
        if rounds < cp.cfg.broadcast_limit {
            let backoff = cp.rebroadcast_backoff(rounds);
            let ex = cp.live_mut(id);
            ex.epoch = ex.epoch.wrapping_add(1);
            let epoch = ex.epoch;
            self.stats.exchange_rebroadcasts += 1;
            self.queue
                .schedule(self.now + backoff, Event::ExchangeRebroadcast(id, epoch));
        } else {
            self.exhaust_exchange(id);
        }
    }

    /// Every invitation round came up empty-handed: resolve the
    /// exchange through the policy's §II fallback — wake a hibernated
    /// server, or give up (drop a new VM; leave a migrating VM where
    /// it is).
    fn exhaust_exchange(&mut self, id: u64) {
        let ex = control_plane(&mut self.control).take(id);
        self.stats.exchanges_abandoned += 1;
        self.stats
            .placement_latency
            .push(self.now - ex.started_secs);
        self.log.push(SimEvent::ExchangeAbandoned {
            t: self.now,
            vm: ex.vm,
        });
        let req = self.placement_request(ex.vm, ex.subject);
        let outcome = self.policy.place_exhausted(&self.cluster.view(), &req);
        self.apply_outcome(ex.vm, ex.subject, outcome);
    }

    /// A commit passed the admission re-check: the exchange resolves
    /// into an actual placement (new-VM attach or migration start).
    fn commit_exchange(&mut self, id: u64, target: ServerId) {
        let ex = control_plane(&mut self.control).take(id);
        self.stats.exchanges_committed += 1;
        self.stats
            .placement_latency
            .push(self.now - ex.started_secs);
        self.log.push(SimEvent::ExchangeCommitted {
            t: self.now,
            vm: ex.vm,
            server: target,
        });
        self.finalize_placement(ex.vm, ex.subject, target);
    }

    /// End-of-run drain: every exchange still in flight resolves as
    /// abandoned — new VMs whose exchange never committed are dropped,
    /// migrating-exchange VMs stay on their source. Afterwards the
    /// exchange conservation law holds exactly:
    /// `started == committed + abandoned + aborted`.
    fn drain_exchanges(&mut self) {
        let Some(cp) = &self.control else {
            return;
        };
        let open: Vec<u64> = cp.exchanges.keys().copied().collect();
        for id in open {
            let ex = control_plane(&mut self.control).take(id);
            self.stats.exchanges_abandoned += 1;
            self.log.push(SimEvent::ExchangeAbandoned {
                t: self.now,
                vm: ex.vm,
            });
            if matches!(ex.subject, PlacementSubject::NewVm) {
                self.drop_unplaced(ex.vm);
            }
        }
    }

    fn on_hibernate_check(&mut self, sid: ServerId) {
        let s = &self.cluster.servers[sid.index()];
        if !s.is_active()
            || !s.vms.is_empty()
            || s.reserved_count > 0
            || self.cluster.hot().reserved_mhz(sid.index()) > 1e-9
        {
            return;
        }
        let Some(empty_since) = s.empty_since_secs else {
            return;
        };
        if self.now - empty_since + 1e-9 >= self.config.idle_timeout_secs {
            self.cluster.set_server_state(sid, ServerState::Hibernated);
            self.rearm_if_loud(sid);
            self.cluster.servers[sid.index()].empty_since_secs = None;
            self.stats.hibernations.record(self.now);
            self.log.push(SimEvent::ServerHibernated {
                t: self.now,
                server: sid,
            });
            self.refresh_power();
        } else {
            // Became empty again more recently; re-check later.
            self.queue.schedule(
                empty_since + self.config.idle_timeout_secs,
                Event::HibernateCheck(sid),
            );
        }
    }

    fn on_metrics_sample(&mut self) {
        // Debug builds audit the full cluster state at every sample:
        // cached loads vs per-VM demands, host back-pointers,
        // reservation signs.
        #[cfg(debug_assertions)]
        {
            self.cluster.check_invariants();
            self.assert_parked_chains_quiet();
        }
        self.accrue_population();
        self.accrue_active_overloads();
        // This path is already O(fleet) (RAM sweep below); re-anchor the
        // incremental float aggregates here so their rounding drift is
        // bounded by one sampling interval.
        self.cluster.rebase_aggregates();
        let load = self.cluster.total_used_mhz() / self.cluster.total_capacity_mhz();
        let active = self.cluster.powered_count();
        let power = self.cluster.total_power_w();
        for srv in &self.cluster.servers {
            let r = srv.ram_utilization();
            if r > self.stats.max_ram_utilization {
                self.stats.max_ram_utilization = r;
            }
        }
        let utils = if self.config.record_server_utilization {
            let hot = self.cluster.hot();
            Some(
                self.cluster
                    .servers
                    .iter()
                    .enumerate()
                    .map(|(i, s)| {
                        if s.is_powered() {
                            hot.utilization(i) as f32
                        } else {
                            0.0
                        }
                    })
                    .collect(),
            )
        } else {
            None
        };
        self.stats.sample(self.now, load, active, power, utils);
        let next = self.now + self.config.metrics_interval_secs;
        if next <= self.config.duration_secs {
            self.queue.schedule_chain(next, Event::MetricsSample);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterView;
    use crate::policy::MigrationRequest;
    use ecocloud_traces::{TraceConfig, TraceSet};

    /// First-fit test policy: place on the first powered server that
    /// stays under 90 %; wake the first hibernated server otherwise.
    struct FirstFit;

    impl Policy for FirstFit {
        fn name(&self) -> &'static str {
            "first-fit-test"
        }
        fn place(&mut self, view: &ClusterView<'_>, req: &PlacementRequest) -> PlaceOutcome {
            for (sid, s) in view.powered() {
                if Some(sid) == req.exclude {
                    continue;
                }
                let after = (s.used_mhz() + s.reserved_mhz() + req.demand_mhz) / s.capacity_mhz();
                if after <= 0.9 {
                    return PlaceOutcome::Place(sid);
                }
            }
            if req.kind == PlacementKind::MigrationLow {
                return PlaceOutcome::Reject;
            }
            match view.hibernated().next() {
                Some((sid, _)) => PlaceOutcome::WakeThenPlace(sid),
                None => PlaceOutcome::Reject,
            }
        }
    }

    /// Send-safety audit: the replication engine fans simulations out
    /// over worker threads, so a `Simulation` (for any `Send` policy)
    /// and its `SimResult` must be `Send`. A stray `Rc`, raw pointer
    /// or thread-local handle anywhere in the engine, cluster, stats
    /// or event-log state turns this into a compile error — which is
    /// the point: the audit runs at type-check time, not at run time.
    #[test]
    fn simulation_and_result_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<SimResult>();
        assert_send::<Simulation<FirstFit>>();
        assert_send::<SimConfig>();
        assert_send::<Fleet>();
        assert_send::<Workload>();
    }

    /// Policy that always rejects — every VM is dropped.
    struct RejectAll;
    impl Policy for RejectAll {
        fn name(&self) -> &'static str {
            "reject-all"
        }
        fn place(&mut self, _: &ClusterView<'_>, _: &PlacementRequest) -> PlaceOutcome {
            PlaceOutcome::Reject
        }
    }

    fn small_traces(n: usize) -> TraceSet {
        TraceSet::generate(TraceConfig {
            n_vms: n,
            duration_secs: 2 * 3600,
            ..TraceConfig::small(21)
        })
    }

    fn quick_config() -> SimConfig {
        SimConfig {
            duration_secs: 2.0 * 3600.0,
            ..SimConfig::paper_48h(5)
        }
    }

    #[test]
    fn spawns_all_vms_and_tracks_population() {
        let traces = small_traces(50);
        let w = Workload::all_vms_from_start(traces);
        let sim = Simulation::new(Fleet::uniform(20, 6), w, quick_config(), FirstFit);
        let res = sim.run();
        assert_eq!(res.final_alive_vms, 50);
        assert_eq!(res.summary.dropped_vms, 0);
        assert!(res.final_powered >= 1);
        assert!(res.final_powered < 20, "no consolidation at all");
    }

    #[test]
    fn reject_all_drops_everything() {
        let traces = small_traces(10);
        let w = Workload::all_vms_from_start(traces);
        let sim = Simulation::new(Fleet::uniform(5, 6), w, quick_config(), RejectAll);
        let res = sim.run();
        assert_eq!(res.summary.dropped_vms, 10);
        assert_eq!(res.final_alive_vms, 0);
        // Nobody woke up: the fleet stays dark and consumes nothing.
        assert_eq!(res.final_powered, 0);
        assert_eq!(res.summary.energy_kwh, 0.0);
    }

    #[test]
    fn energy_grows_with_powered_servers() {
        let traces = small_traces(30);
        let w = Workload::all_vms_from_start(traces);
        let sim = Simulation::new(Fleet::uniform(10, 6), w, quick_config(), FirstFit);
        let res = sim.run();
        assert!(res.summary.energy_kwh > 0.0);
        // Sanity: cannot exceed the whole fleet at peak for 2 h.
        let upper = 10.0 * 200.0 * 2.0 / 1000.0;
        assert!(res.summary.energy_kwh <= upper);
    }

    /// The finish half of the pop-order law: an event stored behind the
    /// last pop that never pops (the run ends first) trips it in
    /// `finish`.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "pop-order")]
    fn finish_rejects_an_event_pending_before_the_last_pop() {
        let traces = small_traces(10);
        let w = Workload::all_vms_from_start(traces);
        let mut sim = Simulation::new(Fleet::uniform(5, 6), w, quick_config(), FirstFit);
        let last = (0..100)
            .filter_map(|_| sim.step())
            .last()
            .expect("the run lasts 2 h");
        sim.queue.insert_unchecked(last - 1.0, Event::MetricsSample);
        sim.finish();
    }

    #[test]
    fn departures_free_capacity_and_hibernate_servers() {
        let traces = small_traces(10);
        let mut w = Workload::all_vms_from_start(traces);
        for s in &mut w.spawns {
            s.lifetime_secs = Some(600.0); // all gone after 10 min
        }
        let sim = Simulation::new(Fleet::uniform(5, 6), w, quick_config(), FirstFit);
        let res = sim.run();
        assert_eq!(res.final_alive_vms, 0);
        assert_eq!(res.final_powered, 0, "idle servers failed to hibernate");
        assert!(res.summary.total_hibernations >= 1);
    }

    #[test]
    fn metrics_are_sampled_on_cadence() {
        let traces = small_traces(5);
        let w = Workload::all_vms_from_start(traces);
        let sim = Simulation::new(Fleet::uniform(5, 6), w, quick_config(), FirstFit);
        let res = sim.run();
        // 2 h / 30 min = 4 intervals → samples at 0, .5, 1, 1.5, 2 h.
        assert_eq!(res.stats.overall_load.len(), 5);
        assert_eq!(res.stats.power_w.len(), 5);
        assert_eq!(res.stats.server_utilization.len(), 5);
    }

    #[test]
    fn spread_placement_uses_round_robin() {
        let traces = small_traces(10);
        let mut w = Workload::all_vms_from_start(traces);
        w.initial_placement = InitialPlacement::Spread;
        let mut cfg = quick_config();
        cfg.duration_secs = 60.0;
        cfg.idle_timeout_secs = 1e9; // keep everyone awake
        let sim = Simulation::new(Fleet::uniform(10, 6), w, cfg, FirstFit);
        let res = sim.run();
        // Every server got exactly one VM → all stayed powered.
        assert_eq!(res.final_powered, 10);
    }

    #[test]
    fn deterministic_runs() {
        let build = || {
            let traces = small_traces(40);
            let w = Workload::all_vms_from_start(traces);
            Simulation::new(Fleet::uniform(15, 6), w, quick_config(), FirstFit)
        };
        let a = build().run();
        let b = build().run();
        assert_eq!(a.summary.energy_kwh, b.summary.energy_kwh);
        assert_eq!(a.final_powered, b.final_powered);
        assert_eq!(a.stats.power_w.values(), b.stats.power_w.values());
    }

    #[test]
    fn event_log_agrees_with_counters() {
        let traces = small_traces(40);
        let mut w = Workload::all_vms_from_start(traces);
        for s in &mut w.spawns {
            s.lifetime_secs = Some(3600.0);
        }
        let mut cfg = quick_config();
        cfg.record_events = true;
        let sim = Simulation::new(Fleet::uniform(10, 6), w, cfg, FirstFit);
        let res = sim.run();
        use crate::log::SimEvent as E;
        let count = |pred: fn(&E) -> bool| res.events.count_matching(pred) as u64;
        assert_eq!(
            count(|e| matches!(e, E::VmPlaced { .. })),
            40 - res.summary.dropped_vms
        );
        assert_eq!(
            count(|e| matches!(e, E::VmDropped { .. })),
            res.summary.dropped_vms
        );
        assert_eq!(
            count(|e| matches!(e, E::ServerWaking { .. })),
            res.summary.total_activations
        );
        assert_eq!(
            count(|e| matches!(e, E::ServerHibernated { .. })),
            res.summary.total_hibernations
        );
        assert_eq!(
            count(|e| matches!(e, E::MigrationStarted { .. })),
            res.summary.migrations_started
        );
        assert_eq!(
            count(|e| matches!(e, E::MigrationCompleted { .. })),
            res.summary.migrations_completed
        );
        assert_eq!(
            count(|e| matches!(e, E::OverloadEnded { .. })),
            res.summary.n_violations
        );
        assert_eq!(
            count(|e| matches!(e, E::MigrationAborted { .. })),
            res.summary.migrations_aborted
        );
        // Migration conservation: every start is accounted for.
        assert_eq!(
            res.summary.migrations_started,
            res.summary.migrations_completed
                + res.summary.migrations_aborted
                + res.final_inflight_migrations as u64
        );
        // Chronological order.
        let mut last = 0.0;
        for e in res.events.events() {
            assert!(e.time() >= last, "log out of order");
            last = e.time();
        }
    }

    #[test]
    fn priority_first_protects_high_class() {
        use crate::sla::{OverloadSharing, VmPriority};
        // A tiny fleet driven into overload: one server, VMs of every
        // class; priority-first must short-change only the low class
        // when high+normal fit.
        let traces = TraceSet::generate(TraceConfig {
            n_vms: 3,
            duration_secs: 3600,
            ..TraceConfig::small(99)
        });
        let mut w = Workload::all_vms_from_start(traces);
        w.initial_placement = InitialPlacement::Spread;
        w.spawns[0].priority = VmPriority::High;
        w.spawns[1].priority = VmPriority::Normal;
        w.spawns[2].priority = VmPriority::Low;
        let mut cfg = quick_config();
        cfg.duration_secs = 3600.0;
        cfg.migrations_enabled = false;
        cfg.overload_sharing = OverloadSharing::PriorityFirst;
        let mut sim = Simulation::new(Fleet::uniform(1, 4), w, cfg, FirstFit);
        // Force overload: set demands so high+normal fit but low does
        // not (capacity 8,000 MHz).
        while let Some((t, event)) = sim.queue.pop() {
            if t > 0.0 {
                break;
            }
            sim.now = t;
            sim.handle(event);
        }
        for (i, demand) in [3_000.0, 3_000.0, 4_000.0].iter().enumerate() {
            sim.cluster.update_vm_demand(VmId(i as u32), *demand);
        }
        sim.reconcile_overload(ServerId(0));
        sim.now = 1000.0;
        sim.accrue_overload(ServerId(0));
        let s = &sim.stats;
        // High and Normal classes fully granted — no samples for them.
        assert_eq!(s.granted_by_priority[VmPriority::High.index()].count(), 0);
        assert_eq!(s.granted_by_priority[VmPriority::Normal.index()].count(), 0);
        let low = &s.granted_by_priority[VmPriority::Low.index()];
        assert_eq!(low.count(), 1);
        // Low class gets (8000 − 6000) / 4000 = 0.5 of its demand.
        assert!(
            (low.mean() - 0.5).abs() < 1e-9,
            "low granted {}",
            low.mean()
        );
    }

    #[test]
    fn proportional_sharing_short_changes_everyone() {
        use crate::sla::VmPriority;
        let traces = TraceSet::generate(TraceConfig {
            n_vms: 2,
            duration_secs: 3600,
            ..TraceConfig::small(98)
        });
        let mut w = Workload::all_vms_from_start(traces);
        w.initial_placement = InitialPlacement::Spread;
        w.spawns[0].priority = VmPriority::High;
        w.spawns[1].priority = VmPriority::Low;
        let mut cfg = quick_config();
        cfg.duration_secs = 3600.0;
        cfg.migrations_enabled = false;
        let mut sim = Simulation::new(Fleet::uniform(1, 4), w, cfg, FirstFit);
        while let Some((t, event)) = sim.queue.pop() {
            if t > 0.0 {
                break;
            }
            sim.now = t;
            sim.handle(event);
        }
        sim.cluster.update_vm_demand(VmId(0), 8_000.0);
        sim.cluster.update_vm_demand(VmId(1), 8_000.0);
        sim.reconcile_overload(ServerId(0));
        sim.now = 500.0;
        sim.accrue_overload(ServerId(0));
        // Proportional: both classes granted 0.5.
        for class in [VmPriority::High, VmPriority::Low] {
            let st = &sim.stats.granted_by_priority[class.index()];
            assert_eq!(st.count(), 1, "{class:?}");
            assert!((st.mean() - 0.5).abs() < 1e-9);
        }
    }

    #[test]
    fn event_log_disabled_by_default() {
        let traces = small_traces(10);
        let w = Workload::all_vms_from_start(traces);
        let sim = Simulation::new(Fleet::uniform(5, 6), w, quick_config(), FirstFit);
        let res = sim.run();
        assert!(res.events.is_empty());
    }

    #[test]
    fn cluster_invariants_hold_after_run() {
        let traces = small_traces(60);
        let w = Workload::all_vms_from_start(traces);
        let mut cfg = quick_config();
        cfg.duration_secs = 3600.0;
        let sim = Simulation::new(Fleet::uniform(25, 4), w, cfg, FirstFit);
        // Run manually so we can inspect the cluster afterwards.
        let mut sim = sim;
        while let Some((t, event)) = sim.queue.pop() {
            if t > sim.config.duration_secs {
                break;
            }
            sim.now = t;
            sim.handle(event);
        }
        sim.cluster.check_invariants();
    }

    /// A VM placed on a still-waking server must not burn lifetime
    /// until the wake completes: its departure fires at
    /// `wake_latency + lifetime`, not `lifetime`.
    #[test]
    fn pending_vm_lifetime_starts_at_wake_complete() {
        let traces = small_traces(1);
        let mut w = Workload::all_vms_from_start(traces);
        w.spawns[0].lifetime_secs = Some(600.0);
        let mut cfg = quick_config();
        cfg.wake_latency_secs = 120.0;
        cfg.record_events = true;
        let sim = Simulation::new(Fleet::uniform(2, 6), w, cfg, FirstFit);
        let res = sim.run();
        assert_eq!(res.final_alive_vms, 0);
        let departed_at = res
            .events
            .events()
            .iter()
            .find_map(|e| match e {
                SimEvent::VmDeparted { t, .. } => Some(*t),
                _ => None,
            })
            .expect("VM never departed");
        assert_eq!(
            departed_at, 720.0,
            "lifetime clock started before the host was active"
        );
    }

    /// Scripted policy for the clamp test: everything lands on S0;
    /// migrations target S1 (waking it if needed); two high
    /// migrations of VM 2 then VM 1 are requested once S0 is up.
    struct TwoStepMigrator {
        migrated: u32,
    }

    impl Policy for TwoStepMigrator {
        fn name(&self) -> &'static str {
            "two-step-migrator"
        }
        fn place(&mut self, view: &ClusterView<'_>, req: &PlacementRequest) -> PlaceOutcome {
            match req.kind {
                PlacementKind::NewVm => match view.powered().next() {
                    Some((sid, _)) => PlaceOutcome::Place(sid),
                    None => PlaceOutcome::WakeThenPlace(ServerId(0)),
                },
                _ => {
                    if view.powered().any(|(sid, _)| sid == ServerId(1)) {
                        PlaceOutcome::Place(ServerId(1))
                    } else {
                        PlaceOutcome::WakeThenPlace(ServerId(1))
                    }
                }
            }
        }
        fn monitor(
            &mut self,
            _view: &ClusterView<'_>,
            server: ServerId,
            now_secs: f64,
        ) -> Option<MigrationRequest> {
            if server != ServerId(0) || now_secs < 200.0 || self.migrated >= 2 {
                return None;
            }
            self.migrated += 1;
            Some(MigrationRequest {
                vm: VmId(3 - self.migrated),
                kind: MigrationKind::High,
            })
        }
    }

    /// A migration whose destination is still waking — whether this
    /// migration triggered the wake or joined one already in progress
    /// (grace-window acceptance) — completes no earlier than the wake.
    #[test]
    fn migration_completion_clamped_to_destination_wake() {
        let traces = small_traces(3);
        let w = Workload::all_vms_from_start(traces);
        let mut cfg = quick_config();
        cfg.duration_secs = 3600.0;
        cfg.monitor_interval_secs = 30.0;
        cfg.migration_latency_secs = 60.0;
        cfg.wake_latency_secs = 120.0;
        cfg.idle_timeout_secs = 1e9;
        cfg.record_events = true;
        let sim = Simulation::new(
            Fleet::uniform(2, 6),
            w,
            cfg,
            TwoStepMigrator { migrated: 0 },
        );
        let res = sim.run();
        assert_eq!(res.summary.migrations_started, 2);
        assert_eq!(res.summary.migrations_completed, 2);
        // S0 ticks at 15 + 30k: the first migration starts at t = 225
        // and wakes S1 (active at 345); the second starts at t = 255
        // while S1 is still waking. Unclamped it would land at 315 —
        // on a server that is not up yet.
        let s1_active = res
            .events
            .events()
            .iter()
            .find_map(|e| match e {
                SimEvent::ServerActive { t, server } if *server == ServerId(1) => Some(*t),
                _ => None,
            })
            .expect("S1 never became active");
        assert_eq!(s1_active, 345.0);
        let completions: Vec<f64> = res
            .events
            .events()
            .iter()
            .filter_map(|e| match e {
                SimEvent::MigrationCompleted { t, to, .. } => {
                    assert_eq!(*to, ServerId(1));
                    Some(*t)
                }
                _ => None,
            })
            .collect();
        assert_eq!(completions, vec![345.0, 345.0]);
        for t in completions {
            assert!(
                t >= s1_active,
                "migration completed at {t} before destination was active at {s1_active}"
            );
        }
    }

    /// Scripted policy for the mid-flight-departure test: one high
    /// migration of VM 0 from S0 to S1, requested at the first tick.
    struct OneShotMigrator {
        done: bool,
    }

    impl Policy for OneShotMigrator {
        fn name(&self) -> &'static str {
            "one-shot-migrator"
        }
        fn place(&mut self, _view: &ClusterView<'_>, _req: &PlacementRequest) -> PlaceOutcome {
            PlaceOutcome::Place(ServerId(1))
        }
        fn monitor(
            &mut self,
            _view: &ClusterView<'_>,
            server: ServerId,
            _now_secs: f64,
        ) -> Option<MigrationRequest> {
            if server != ServerId(0) || self.done {
                return None;
            }
            self.done = true;
            Some(MigrationRequest {
                vm: VmId(0),
                kind: MigrationKind::High,
            })
        }
    }

    /// A VM that departs mid-flight tears the migration down as an
    /// abort — the conservation law `started == completed + aborted +
    /// in-flight` stays balanced and the log records the abort.
    #[test]
    fn midflight_departure_aborts_migration() {
        let traces = small_traces(1);
        let mut w = Workload::all_vms_from_start(traces);
        w.initial_placement = InitialPlacement::Spread;
        w.spawns[0].lifetime_secs = Some(10.0);
        let mut cfg = quick_config();
        cfg.duration_secs = 3600.0;
        cfg.monitor_interval_secs = 2.0;
        cfg.migration_latency_secs = 15.0;
        cfg.idle_timeout_secs = 1e9;
        cfg.record_events = true;
        let sim = Simulation::new(
            Fleet::uniform(2, 6),
            w,
            cfg,
            OneShotMigrator { done: false },
        );
        let res = sim.run();
        // Migration starts at t = 1 (S0's first tick), would complete
        // at 16; the VM departs at 10.
        assert_eq!(res.summary.migrations_started, 1);
        assert_eq!(res.summary.migrations_completed, 0);
        assert_eq!(res.summary.migrations_aborted, 1);
        assert_eq!(res.final_inflight_migrations, 0);
        assert_eq!(res.final_alive_vms, 0);
        let abort = res
            .events
            .events()
            .iter()
            .find_map(|e| match e {
                SimEvent::MigrationAborted { t, reason, .. } => Some((*t, *reason)),
                _ => None,
            })
            .expect("no abort logged");
        assert_eq!(abort, (10.0, AbortReason::Departed));
    }

    /// Scripted replay of the departure-races-migration interleaving:
    /// the queue is pumped by hand to the instant the VM is mid-flight,
    /// the departure fires while the completion is still queued, and
    /// the stale completion must then drain as a no-op. Capacity is
    /// checked *between* the two deliveries — source load and
    /// destination reservation are both released exactly once by the
    /// departure, and the old-epoch `MigrationComplete` releases
    /// nothing a second time.
    #[test]
    fn departure_mid_migration_releases_capacity_exactly_once() {
        let traces = small_traces(1);
        let mut w = Workload::all_vms_from_start(traces);
        w.initial_placement = InitialPlacement::Spread;
        w.spawns[0].lifetime_secs = Some(10.0);
        let mut cfg = quick_config();
        cfg.duration_secs = 3600.0;
        cfg.monitor_interval_secs = 2.0;
        cfg.migration_latency_secs = 15.0;
        cfg.idle_timeout_secs = 1e9;
        let mut sim = Simulation::new(
            Fleet::uniform(2, 6),
            w,
            cfg,
            OneShotMigrator { done: false },
        );
        // Pump until the monitor tick puts VM 0 in flight (the VM
        // itself only exists once the t = 0 spawn has been delivered).
        loop {
            let (t, ev) = sim.queue.pop().expect("queue drained before flight");
            sim.now = t;
            sim.handle(ev);
            if matches!(
                sim.cluster.vms.first().map(|vm| vm.state),
                Some(VmState::Migrating { .. })
            ) {
                break;
            }
        }
        let VmState::Migrating { from, to } = sim.cluster.vms[0].state else {
            unreachable!()
        };
        let inflight_seq = sim.cluster.vms[0].migration_seq;
        assert!(sim.cluster.hot().used_mhz(from.index()) > 0.0);
        assert!(sim.cluster.hot().reserved_mhz(to.index()) > 0.0);
        // Deliver events up to and including the departure at t = 10,
        // which lands before the completion at t ≈ 16.
        loop {
            let (t, ev) = sim.queue.pop().expect("departure never queued");
            assert!(
                !matches!(ev, Event::MigrationComplete(..)),
                "completion delivered before the departure"
            );
            sim.now = t;
            let done = matches!(ev, Event::Departure(_));
            sim.handle(ev);
            if done {
                break;
            }
        }
        // Exactly-once release: both legs are back to zero, the epoch
        // moved past the in-flight one, and the books show one abort.
        assert_eq!(sim.cluster.hot().used_mhz(from.index()), 0.0);
        assert_eq!(sim.cluster.hot().reserved_mhz(to.index()), 0.0);
        assert_ne!(sim.cluster.vms[0].migration_seq, inflight_seq);
        assert!(matches!(sim.cluster.vms[0].state, VmState::Departed));
        assert_eq!(sim.stats.migrations_aborted, 1);
        assert_eq!(sim.stats.vms_departed, 1);
        // Drain forward until the stale completion is delivered.
        let mut delivered = false;
        while let Some((t, ev)) = sim.queue.pop() {
            let stale = matches!(ev, Event::MigrationComplete(v, s)
                if v == VmId(0) && s == inflight_seq);
            sim.now = t;
            sim.handle(ev);
            if stale {
                delivered = true;
                break;
            }
        }
        assert!(delivered, "stale completion never drained");
        // The stale leg was dropped: nothing completed, nothing
        // released twice, the VM stays departed.
        assert_eq!(sim.stats.migrations_completed, 0);
        assert_eq!(sim.stats.migrations_aborted, 1);
        assert_eq!(sim.cluster.hot().used_mhz(from.index()), 0.0);
        assert_eq!(sim.cluster.hot().reserved_mhz(to.index()), 0.0);
        assert!(matches!(sim.cluster.vms[0].state, VmState::Departed));
    }

    /// Crashing a server displaces its VMs onto the survivors, closes
    /// its books, and leaves the cluster invariants intact.
    #[test]
    fn crash_displaces_and_replaces_vms() {
        let traces = small_traces(2);
        let mut w = Workload::all_vms_from_start(traces);
        w.initial_placement = InitialPlacement::Spread;
        let mut cfg = quick_config();
        cfg.migrations_enabled = false;
        cfg.record_events = true;
        let mut sim = Simulation::new(Fleet::uniform(2, 6), w, cfg, FirstFit);
        // Process the t = 0 events, then crash S0 shortly after.
        while let Some((t, event)) = sim.queue.pop() {
            if t > 0.0 {
                break;
            }
            sim.now = t;
            sim.handle(event);
        }
        sim.now = 0.5;
        sim.crash_server(ServerId(0));
        assert!(matches!(
            sim.cluster.servers[0].state,
            ServerState::Failed { .. }
        ));
        // VM 0 (spread onto S0) was re-placed on the surviving S1.
        assert_eq!(
            sim.cluster.vms[0].state,
            VmState::Hosted { host: ServerId(1) }
        );
        assert_eq!(sim.stats.server_crashes, 1);
        assert_eq!(sim.stats.vms_displaced, 1);
        assert_eq!(sim.stats.vms_replaced, 1);
        assert_eq!(sim.stats.vms_lost, 0);
        sim.cluster.check_invariants();
        // Run out the queue: the repair at t = 1800.5 returns S0 to
        // the hibernated pool.
        while sim.step().is_some() {}
        let repaired = sim.stats.server_repairs;
        let state = sim.cluster.servers[0].state;
        let res = sim.finish();
        assert_eq!(repaired, 1);
        assert_eq!(state, ServerState::Hibernated);
        assert_eq!(res.final_alive_vms, 2);
        assert_eq!(
            res.events
                .count_matching(|e| matches!(e, SimEvent::ServerRepaired { .. })),
            1
        );
    }

    /// With every wake failing, the engine retries with backoff, then
    /// abandons the wake, re-places the pending VMs, and never lets a
    /// VM execute on a non-active server.
    #[test]
    fn wake_failures_retry_and_abandon() {
        let traces = small_traces(5);
        let w = Workload::all_vms_from_start(traces);
        let mut cfg = quick_config();
        cfg.record_events = true;
        cfg.faults = crate::config::FaultConfig {
            wake_failure_prob: 1.0,
            wake_retry_limit: 2,
            ..crate::config::FaultConfig::none()
        };
        let mut sim = Simulation::new(Fleet::uniform(3, 6), w, cfg, FirstFit);
        while sim.step().is_some() {}
        sim.cluster.check_invariants();
        let res = sim.finish();
        // At least one full retry-then-abandon cycle happened…
        assert!(res.stats.wake_failures >= 3, "{}", res.stats.wake_failures);
        assert!(res.summary.vms_displaced >= 5);
        // …no server ever reached Active, so nothing executed and
        // nothing departed, but no VM was lost either (the policy
        // always found a hibernated server to try next).
        assert_eq!(
            res.events
                .count_matching(|e| matches!(e, SimEvent::ServerActive { .. })),
            0
        );
        assert_eq!(res.summary.vms_lost, 0);
        assert_eq!(res.final_alive_vms, 5);
        assert!(res.summary.energy_kwh > 0.0, "waking servers draw power");
    }

    /// Scripted policy for the atomic-vs-exchange migration test. One
    /// decision table answers `place`, `invite` (its `Place` target as
    /// the lone acceptor), `choose_acceptor` (the default first pick)
    /// and `place_exhausted` alike, so both placement paths face the
    /// same decisions. Each of S0, S1, S2 requests one migration on
    /// its first tick at or after t = 50 s:
    /// - S0: high, placed on the powered S1;
    /// - S1: high, nobody accepts, so it wakes the hibernated S3;
    /// - S2: low, nobody accepts, so it is rejected.
    struct ScriptedMigrations {
        fired: [bool; 3],
    }

    impl ScriptedMigrations {
        fn decide(view: &ClusterView<'_>, req: &PlacementRequest) -> PlaceOutcome {
            match (req.kind, req.exclude) {
                (PlacementKind::MigrationHigh { .. }, Some(ServerId(0))) => {
                    PlaceOutcome::Place(ServerId(1))
                }
                (PlacementKind::MigrationHigh { .. }, Some(ServerId(1))) => {
                    match view.hibernated().next() {
                        Some((sid, _)) => PlaceOutcome::WakeThenPlace(sid),
                        None => PlaceOutcome::Reject,
                    }
                }
                _ => PlaceOutcome::Reject,
            }
        }
    }

    impl Policy for ScriptedMigrations {
        fn name(&self) -> &'static str {
            "scripted-migrations"
        }
        fn place(&mut self, view: &ClusterView<'_>, req: &PlacementRequest) -> PlaceOutcome {
            Self::decide(view, req)
        }
        fn monitor(
            &mut self,
            _view: &ClusterView<'_>,
            server: ServerId,
            now_secs: f64,
        ) -> Option<MigrationRequest> {
            let s = server.index();
            if s > 2 || now_secs < 50.0 || self.fired[s] {
                return None;
            }
            self.fired[s] = true;
            Some(MigrationRequest {
                vm: VmId(server.0),
                kind: if s == 2 {
                    MigrationKind::Low
                } else {
                    MigrationKind::High
                },
            })
        }
        fn invite(
            &mut self,
            view: &ClusterView<'_>,
            req: &PlacementRequest,
        ) -> Option<Vec<ServerId>> {
            Some(match Self::decide(view, req) {
                PlaceOutcome::Place(sid) => vec![sid],
                _ => Vec::new(),
            })
        }
        fn place_exhausted(
            &mut self,
            view: &ClusterView<'_>,
            req: &PlacementRequest,
        ) -> PlaceOutcome {
            Self::decide(view, req)
        }
    }

    /// The atomic `place` call and the zero-latency `ideal` exchange
    /// resolve migrations identically: a high migration to a powered
    /// server, one that exhausts into a wake, and a rejected low one.
    #[test]
    fn ideal_exchange_migrations_match_the_atomic_path() {
        let run = |control_plane: crate::config::ControlPlaneConfig| {
            let mut w = Workload::all_vms_from_start(small_traces(4));
            w.initial_placement = InitialPlacement::Spread;
            // VM 3 leaves S3 at t = 5; S3 hibernates at t = 35.
            w.spawns[3].lifetime_secs = Some(5.0);
            let mut cfg = quick_config();
            cfg.duration_secs = 600.0;
            cfg.monitor_interval_secs = 40.0;
            cfg.migration_latency_secs = 15.0;
            cfg.wake_latency_secs = 100.0;
            cfg.idle_timeout_secs = 30.0;
            cfg.record_events = true;
            cfg.control_plane = control_plane;
            let policy = ScriptedMigrations { fired: [false; 3] };
            Simulation::new(Fleet::uniform(4, 6), w, cfg, policy).run()
        };
        let atomic = run(crate::config::ControlPlaneConfig::off());
        let phased = run(crate::config::ControlPlaneConfig::ideal(9));
        let trajectory = |res: &SimResult| {
            let mut started = Vec::new();
            let mut waking = Vec::new();
            let mut completed = Vec::new();
            for e in res.events.events() {
                match *e {
                    SimEvent::MigrationStarted {
                        vm, from, to, kind, ..
                    } => started.push((vm, from, to, kind)),
                    SimEvent::ServerWaking { t, server } => waking.push((t, server)),
                    SimEvent::MigrationCompleted { t, .. } => completed.push(t),
                    _ => {}
                }
            }
            (started, waking, completed)
        };
        let (started, waking, completed) = trajectory(&atomic);
        assert_eq!(
            started,
            vec![
                (VmId(0), ServerId(0), ServerId(1), MigrationKind::High),
                (VmId(1), ServerId(1), ServerId(3), MigrationKind::High),
            ]
        );
        // S1 asks at t = 60; S3 is up at 160 and the clamped
        // migration lands then.
        assert_eq!(waking, vec![(60.0, ServerId(3))]);
        assert_eq!(completed, vec![65.0, 160.0]);
        assert_eq!(trajectory(&phased), (started, waking, completed));
        assert_eq!(atomic.summary.migrations_started, 2);
        assert_eq!(
            atomic.summary.migrations_started,
            phased.summary.migrations_started
        );
        assert_eq!(
            atomic.summary.energy_kwh.to_bits(),
            phased.summary.energy_kwh.to_bits()
        );
        // The phased run really went through the exchange machinery:
        // one commit, two exhausted exchanges (the wake and the reject).
        assert_eq!(atomic.summary.exchanges_started, 0);
        assert_eq!(phased.summary.exchanges_started, 3);
        assert_eq!(phased.summary.exchanges_committed, 1);
        assert_eq!(phased.summary.exchanges_abandoned, 2);
    }

    /// An overload episode still open when the run ends is flushed
    /// into the violation statistics by the final accounting.
    #[test]
    fn finish_flushes_open_overload_episodes() {
        let traces = small_traces(2);
        let mut w = Workload::all_vms_from_start(traces);
        w.initial_placement = InitialPlacement::Spread;
        let mut cfg = quick_config();
        cfg.duration_secs = 3600.0;
        cfg.migrations_enabled = false;
        cfg.record_events = true;
        let mut sim = Simulation::new(Fleet::uniform(1, 4), w, cfg, FirstFit);
        while let Some((t, event)) = sim.queue.pop() {
            if t > 0.0 {
                break;
            }
            sim.now = t;
            sim.handle(event);
        }
        // Push the single 8,000 MHz server into overload and leave the
        // episode open until the end of the run.
        sim.cluster.update_vm_demand(VmId(0), 8_000.0);
        sim.cluster.update_vm_demand(VmId(1), 8_000.0);
        sim.reconcile_overload(ServerId(0));
        let res = sim.finish();
        assert_eq!(res.summary.n_violations, 1);
        let flushed = res
            .events
            .events()
            .iter()
            .find_map(|e| match e {
                SimEvent::OverloadEnded { t, duration, .. } => Some((*t, *duration)),
                _ => None,
            })
            .expect("open episode was not flushed");
        assert_eq!(flushed, (3600.0, 3600.0));
    }

    /// The 6-server `lan` scenario the hostile-snapshot tests snapshot
    /// at hour 1.
    fn lan_scenario() -> (Fleet, Workload, SimConfig) {
        let mut config = quick_config();
        config.control_plane = crate::config::ControlPlaneConfig::lan(3);
        (
            Fleet::uniform(6, 6),
            Workload::all_vms_from_start(small_traces(8)),
            config,
        )
    }

    /// `ckpt` with section `name` replaced by `bytes`, re-sealed.
    fn with_section(ckpt: &Checkpoint<'_>, name: &str, bytes: &[u8]) -> Checkpoint<'static> {
        let mut out = Checkpoint::new(ckpt.spec.clone(), ckpt.seq, ckpt.sim_time_secs);
        for (n, b) in ckpt.sections() {
            out.push_section(n, if n == name { bytes } else { b });
        }
        out
    }

    /// A snapshot's `traces` section carries one cursor per trace, 25 B
    /// each: rng u64, x f64, bursting u8, next u32, last f32. A hostile
    /// section is refused with `Corrupt`, never a panic, and the
    /// untouched one restores.
    #[test]
    fn hostile_trace_cursor_section_is_refused() {
        let make = || {
            (
                Fleet::uniform(6, 6),
                Workload::all_vms_from_start(small_traces(4)),
                quick_config(),
            )
        };
        let (fleet, workload, config) = make();
        let mut sim = Simulation::new(fleet, workload, config, FirstFit);
        while sim.now() < 3600.0 && sim.step().is_some() {}
        let ckpt = sim.checkpoint("t", 0);
        let good = ckpt.section("traces").expect("traces section").to_vec();
        assert_eq!(good.len(), 4 * 25);
        assert!(
            sim.cursors.iter().all(|c| c.next == 12),
            "cursors stand at hour 1"
        );
        let restore = |traces: Vec<u8>| {
            let bad = with_section(&ckpt, "traces", &traces);
            let (fleet, workload, config) = make();
            Simulation::restore_from(fleet, workload, config, FirstFit, &bad, "t").map(|_| ())
        };
        assert_eq!(restore(good.clone()), Ok(()));
        let patched = |at: usize, bytes: &[u8]| {
            let mut b = good.clone();
            b[at..at + bytes.len()].copy_from_slice(bytes);
            b
        };
        let cursor = |i: usize| 25 * i;
        let steps = small_traces(1).vms[0].steps() as u32;
        let cases = [
            ("a cursor short", good[..cursor(3)].to_vec()),
            (
                "next > steps",
                patched(cursor(2) + 17, &(steps + 1).to_le_bytes()),
            ),
            ("NaN last", patched(cursor(1) + 21, &f32::NAN.to_le_bytes())),
            ("last > 1", patched(cursor(1) + 21, &1.5f32.to_le_bytes())),
            ("NaN x", patched(cursor(3) + 8, &f64::NAN.to_le_bytes())),
            ("bad bool", patched(cursor(0) + 16, &[7])),
            ("truncated", good[..good.len() - 1].to_vec()),
            ("trailing byte", [good.clone(), vec![0]].concat()),
        ];
        for (what, bytes) in cases {
            match restore(bytes) {
                Err(CheckpointError::Corrupt(_)) => {}
                other => panic!("{what}: expected Corrupt, got {other:?}"),
            }
        }
    }

    /// [`FirstFit`] with a quiet band over every utilization: its
    /// `monitor` is the trait default, which never migrates, so the
    /// band keeps its promise and every active server's chain parks.
    struct QuietFirstFit;

    impl Policy for QuietFirstFit {
        fn name(&self) -> &'static str {
            "quiet-first-fit-test"
        }
        fn place(&mut self, view: &ClusterView<'_>, req: &PlacementRequest) -> PlaceOutcome {
            FirstFit.place(view, req)
        }
        fn quiet_band(&self, _n_servers: usize) -> Option<RangeInclusive<f64>> {
            Some(0.0..=1.0)
        }
    }

    /// A snapshot whose monitor chains or arrivals contradict the rest
    /// of the state is refused with `Corrupt`: a parked chain whose
    /// server is off, whose watermark was never issued, whose next tick
    /// lies past the end of the run, or that also has a tick queued;
    /// two queued ticks for one server; an anchor or clock outside the
    /// run; and a VM table longer than the spawns that arrive in the
    /// run. Settling or resuming such a chain would walk from a bad
    /// anchor to a bad clock (a near-endless loop) or re-arm a tick out
    /// of order. Each case edits a running engine and snapshots it,
    /// past the debug check that the live engine's indexes rebuild.
    #[test]
    fn hostile_monitor_chains_are_refused() {
        type Edit = fn(&mut Simulation<QuietFirstFit>);
        let make = || {
            (
                Fleet::uniform(6, 6),
                Workload::all_vms_from_start(small_traces(4)),
                quick_config(),
            )
        };
        let at_hour_1 = || {
            let (fleet, workload, config) = make();
            let mut sim = Simulation::new(fleet, workload, config, QuietFirstFit);
            while sim.now() < 3600.0 && sim.step().is_some() {}
            assert!(!sim.parked.is_empty() && sim.parked.len() < 6);
            sim
        };
        let restore_ckpt = |ckpt: &Checkpoint<'_>| {
            let (fleet, workload, config) = make();
            Simulation::restore_from(fleet, workload, config, QuietFirstFit, ckpt, "t").map(|_| ())
        };
        let restore = |edit: Edit| {
            let mut sim = at_hour_1();
            edit(&mut sim);
            restore_ckpt(&sim.snapshot("t", 0))
        };
        assert_eq!(restore(|_| {}), Ok(()));
        fn off(sim: &Simulation<QuietFirstFit>) -> usize {
            (0..6)
                .find(|&i| !sim.cluster.hot().is_powered(i))
                .expect("a server is off")
        }
        let cases: [(&str, Edit); 9] = [
            ("parked while off", |sim| sim.park(off(sim), 0)),
            ("watermark not issued", |sim| {
                // Settled up to the last pop, so a snapshot keeps it.
                sim.settle_parked_chains();
                let i = sim.parked[0] as usize;
                sim.monitor[i] = MonitorChain::Parked {
                    watermark: sim.queue.watermark() + 1,
                };
            }),
            // On a stopped chain: the live engine settles its parked
            // ones from their anchors before encoding them.
            ("NaN anchor", |sim| {
                let i = off(sim);
                sim.monitor_anchor[i] = f64::NAN;
            }),
            ("anchor before the run", |sim| {
                let i = off(sim);
                sim.monitor_anchor[i] = -1e300;
            }),
            ("anchor after the run", |sim| {
                let i = off(sim);
                sim.monitor_anchor[i] = sim.config.duration_secs * 2.0;
            }),
            ("clock after the run", |sim| {
                sim.now = 1e300;
                sim.queue.advance_to(sim.now);
            }),
            ("tick for a parked chain", |sim| {
                let sid = ServerId(sim.parked[0]);
                sim.queue.schedule(sim.now + 1.0, Event::MonitorTick(sid));
            }),
            ("two ticks for one server", |sim| {
                let sid = ServerId(off(sim) as u32);
                sim.queue.schedule(sim.now + 1.0, Event::MonitorTick(sid));
                sim.queue.schedule(sim.now + 2.0, Event::MonitorTick(sid));
            }),
            ("VM table longer than the arrivals", |sim| {
                let mut vm = sim.cluster.vms[0].clone();
                vm.id = VmId(sim.cluster.vms.len() as u32);
                vm.state = VmState::Departed;
                sim.cluster.vms.push(vm);
            }),
        ];
        for (what, edit) in cases {
            match restore(edit) {
                Err(CheckpointError::Corrupt(_)) => {}
                other => panic!("{what}: expected Corrupt, got {other:?}"),
            }
        }
        // Settling stops a chain whose next tick lies past the end of
        // the run, so no engine stores one parked: write the anchor of
        // a parked chain into the `engine` section by hand (after the
        // accrual clock, the episode count and 20 B per episode).
        let mut sim = at_hour_1();
        sim.settle_parked_chains();
        let i = sim.parked[0] as usize;
        let ckpt = sim.snapshot("t", 0);
        let mut engine = ckpt.section("engine").expect("engine").to_vec();
        let at = 16 + 20 * sim.overloads.len() + 8 * i;
        engine[at..at + 8].copy_from_slice(&sim.config.duration_secs.to_le_bytes());
        assert!(
            matches!(
                restore_ckpt(&with_section(&ckpt, "engine", &engine)),
                Err(CheckpointError::Corrupt(_))
            ),
            "parked past the end"
        );
    }

    /// A snapshot whose ids point past the fleet, the VM table or the
    /// trace set is refused with `Corrupt`, naming the section and the
    /// id, instead of panicking on an index once the run goes on. Each
    /// case writes one such id into a running engine's state, one
    /// section at a time, and snapshots it.
    #[test]
    fn hostile_ids_are_refused_per_section() {
        type Sim = Simulation<FirstFit>;
        let make = lan_scenario;
        let (fleet, workload, config) = make();
        let mut base = Simulation::new(fleet, workload, config, FirstFit);
        while base.now() < 3600.0 && base.step().is_some() {}
        let restore = |sim: &Sim| {
            let ckpt = sim.snapshot("t", 0);
            let (fleet, workload, config) = make();
            Simulation::restore_from(fleet, workload, config, FirstFit, &ckpt, "t")
        };
        assert!(restore(&base).is_ok());
        let bad = ServerId(999);
        let host = base.cluster.vms[0]
            .executing_on()
            .expect("VM 0 is hosted at hour 1");
        // A fresh exchange for VM 0, with its next event due now.
        let exchange = |sim: &mut Sim, ex: Exchange, event: fn(u64, u32) -> Event| {
            let cp = control_plane(&mut sim.control);
            let id = cp.next_id;
            cp.next_id += 1;
            cp.by_vm.insert(ex.vm, id);
            let epoch = ex.epoch;
            cp.exchanges.insert(id, ex);
            sim.queue.schedule(sim.now, event(id, epoch));
        };
        let new_vm = Exchange {
            vm: VmId(0),
            subject: PlacementSubject::NewVm,
            epoch: 1,
            started_secs: 3600.0,
            rounds: 1,
            acceptors: Vec::new(),
            pending_commit: None,
        };
        type Mutation<'a> = Box<dyn Fn(&mut Sim) + 'a>;
        let cases: Vec<(&str, Mutation<'_>)> = vec![
            (
                "engine",
                Box::new(|s| {
                    s.overloads.push(Overload {
                        server: 999,
                        since: s.now,
                        accrued_to: s.now,
                    })
                }),
            ),
            (
                "cluster",
                Box::new(|s| s.cluster.servers[0].vms.push(VmId(999))),
            ),
            (
                "cluster",
                Box::new(move |s| {
                    s.cluster.vms[0].state = VmState::Migrating {
                        from: host,
                        to: bad,
                    }
                }),
            ),
            ("cluster", Box::new(|s| s.cluster.vms[0].trace_idx = 999)),
            (
                "queue",
                Box::new(|s| s.queue.schedule(s.now, Event::MonitorTick(bad))),
            ),
            (
                "queue",
                Box::new(|s| s.queue.schedule(s.now, Event::Departure(VmId(999)))),
            ),
            (
                "control",
                Box::new({
                    let ex = Exchange {
                        vm: VmId(999),
                        ..new_vm.clone()
                    };
                    move |s| exchange(s, ex.clone(), Event::ExchangeCollect)
                }),
            ),
            (
                "control",
                Box::new({
                    let ex = Exchange {
                        subject: PlacementSubject::Migration {
                            source: bad,
                            kind: MigrationKind::High,
                            source_utilization: 0.99,
                        },
                        ..new_vm.clone()
                    };
                    move |s| exchange(s, ex.clone(), Event::ExchangeCollect)
                }),
            ),
            (
                "control",
                Box::new({
                    let ex = Exchange {
                        acceptors: vec![bad],
                        ..new_vm.clone()
                    };
                    move |s| exchange(s, ex.clone(), Event::ExchangeCollect)
                }),
            ),
            (
                "control",
                Box::new({
                    let ex = Exchange {
                        pending_commit: Some(bad),
                        ..new_vm.clone()
                    };
                    move |s| exchange(s, ex.clone(), Event::ExchangeCommitArrive)
                }),
            ),
        ];
        let refused =
            |what: &str, section: &str, needle: &str, outcome: Result<Sim, _>| match outcome {
                Err(CheckpointError::Corrupt(msg)) => assert!(
                    msg.contains(&format!("section '{section}'")) && msg.contains(needle),
                    "{what}: {msg}"
                ),
                Err(other) => panic!("{what}: expected Corrupt, got {other:?}"),
                Ok(_) => panic!("{what}: a hostile {section} section was restored"),
            };
        let mutated = |mutate: &Mutation<'_>| {
            let (fleet, workload, config) = make();
            let mut sim = Simulation::new(fleet, workload, config, FirstFit);
            while sim.now() < 3600.0 && sim.step().is_some() {}
            mutate(&mut sim);
            restore(&sim)
        };
        for (section, mutate) in &cases {
            refused(section, section, "999", mutated(mutate));
        }
        // The `stats` section: a series or the energy integrator whose
        // clock is past the snapshot's (the next sample would trip the
        // release asserts of `TimeSeries::push` and
        // `EnergyIntegrator::update`), and timestamps `push` could not
        // have written, patched into the section by hand.
        let clock_cases: Vec<(&str, Mutation<'_>)> = vec![
            (
                "time series 'power_w'",
                Box::new(|s| s.stats.power_w.push(s.now + 60.0, 0.0)),
            ),
            (
                "the energy integrator",
                Box::new(|s| {
                    let e = &s.stats.energy;
                    s.stats.energy = ecocloud_metrics::EnergyIntegrator::from_parts(
                        s.now + 60.0,
                        e.current_power_w(),
                        e.energy_joules(),
                    );
                }),
            ),
        ];
        for (what, mutate) in &clock_cases {
            let needle = format!("{what} is at");
            refused(what, "stats", &needle, mutated(mutate));
        }
        let ckpt = base.snapshot("t", 0);
        let stats = ckpt.section("stats").expect("stats section").to_vec();
        // `overall_load` leads the section: its name (4 + 12 B), its
        // timestamp count (8 B), then its timestamps.
        assert_eq!(&stats[4..16], b"overall_load");
        let at = |i: usize| 24 + 8 * i..32 + 8 * i;
        let t1 = f64::from_le_bytes(stats[at(1)].try_into().expect("8 bytes"));
        for (what, t0) in [("out of order", t1 + 1.0), ("NaN", f64::NAN)] {
            let mut bad = stats.clone();
            bad[at(0)].copy_from_slice(&t0.to_le_bytes());
            let (fleet, workload, config) = make();
            let ckpt = with_section(&ckpt, "stats", &bad);
            let outcome = Simulation::restore_from(fleet, workload, config, FirstFit, &ckpt, "t");
            refused(what, "stats", "timestamps out of order", outcome);
        }
    }

    /// Seeded single-bit flips in the `engine`, `queue` and `monitor`
    /// sections of a snapshot at hour 1, each re-sealed with a valid
    /// checksum: every flip is refused, or restores into a run that
    /// reaches its end within a step cap and passes the end-of-run
    /// laws. No flip may panic (the debug round-trip oracle included)
    /// or hang, in debug and release builds alike. The first fixture is
    /// that of [`hostile_ids_are_refused_per_section`]; the second, an
    /// open system with light faults and a policy whose chains park,
    /// puts pending arrivals, the fault RNG and parked chains in the
    /// flipped sections.
    #[test]
    fn flipped_snapshot_bits_are_refused_or_run_to_the_end() {
        assert_flips_refused_or_run(lan_scenario, || FirstFit, 27);
        let open_faulty = || {
            let (fleet, _, mut config) = lan_scenario();
            config.faults = crate::config::FaultConfig::light(3);
            let process = ecocloud_traces::ArrivalProcess {
                base_rate_per_sec: 20.0 / 3600.0,
                envelope: ecocloud_traces::DiurnalEnvelope::flat(),
                mean_lifetime_secs: 1800.0,
            };
            let workload = Workload::churn(small_traces(8), 4, &process, 7200.0, 9);
            (fleet, workload, config)
        };
        assert_flips_refused_or_run(open_faulty, || QuietFirstFit, 28);
    }

    /// The check of
    /// [`flipped_snapshot_bits_are_refused_or_run_to_the_end`] for the
    /// scenario `make` run by `policy`, with bits drawn from `seed`.
    fn assert_flips_refused_or_run<P: Policy>(
        make: impl Fn() -> (Fleet, Workload, SimConfig) + std::panic::RefUnwindSafe,
        policy: impl Fn() -> P + std::panic::RefUnwindSafe,
        seed: u64,
    ) {
        const FLIPS_PER_SECTION: usize = 450;
        let (fleet, workload, config) = make();
        let mut sim = Simulation::new(fleet, workload, config, policy());
        while sim.now() < 3600.0 && sim.step().is_some() {}
        let ckpt = sim.checkpoint("t", 0);
        let mut honest_steps = 0;
        while sim.step().is_some() {
            honest_steps += 1;
        }
        let cap = 10 * honest_steps;
        // `Ok(true)`: refused or ran to the end; `Ok(false)`: hit the cap.
        let outcome = |bad: &Checkpoint<'_>| {
            std::panic::catch_unwind(|| {
                let (fleet, workload, config) = make();
                let Ok(mut sim) =
                    Simulation::restore_from(fleet, workload, config, policy(), bad, "t")
                else {
                    return true;
                };
                let mut steps = 0;
                while sim.step().is_some() {
                    steps += 1;
                    if steps > cap {
                        return false;
                    }
                }
                sim.finish();
                true
            })
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let mut failed = Vec::new();
        for section in ["engine", "queue", "monitor"] {
            let good = ckpt.section(section).expect("section").to_vec();
            for _ in 0..FLIPS_PER_SECTION {
                let bit = rng.gen_range(0..good.len() * 8);
                let mut bad = good.clone();
                bad[bit / 8] ^= 1 << (bit % 8);
                match outcome(&with_section(&ckpt, section, &bad)) {
                    Ok(true) => {}
                    Ok(false) => failed.push(format!("{section} bit {bit}: step cap")),
                    Err(_) => failed.push(format!("{section} bit {bit}: panic")),
                }
            }
        }
        assert!(
            failed.is_empty(),
            "{} of {} flips failed: {failed:#?}",
            failed.len(),
            3 * FLIPS_PER_SECTION
        );
    }

    /// A snapshot whose ids are each in range but disagree with each
    /// other is refused with `Corrupt`, naming the VM and the server,
    /// in release builds as in debug ones: the VM table and the server
    /// lists are cross-checked as the `cluster` section is decoded,
    /// before the debug-only round-trip oracle and its invariant
    /// check. A VM's host is not stored (it is the server that lists
    /// it), so what is left to contradict is whether a VM is listed:
    /// twice, not at all while alive, while not alive, or by a failed
    /// server.
    #[test]
    fn inconsistent_hosting_is_refused_in_every_build() {
        type Sim = Simulation<FirstFit>;
        let make = lan_scenario;
        let at_hour_1 = || {
            let (fleet, workload, config) = make();
            let mut sim = Simulation::new(fleet, workload, config, FirstFit);
            while sim.now() < 3600.0 && sim.step().is_some() {}
            sim
        };
        let restore = |bytes: &[u8]| {
            let ckpt = Checkpoint::from_bytes(bytes, "mem")?;
            let (fleet, workload, config) = make();
            Simulation::restore_from(fleet, workload, config, FirstFit, &ckpt, "t").map(|_| ())
        };
        let honest = at_hour_1();
        let VmState::Hosted { host } = honest.cluster.vms[0].state else {
            panic!("VM 0 is hosted at hour 1");
        };
        assert_eq!(restore(&honest.checkpoint("t", 0).to_bytes()), Ok(()));

        type Mutation = Box<dyn Fn(&mut Sim)>;
        let cases: Vec<(Mutation, String)> = vec![
            (
                Box::new(move |s| s.cluster.servers[host.index()].vms.push(VmId(0))),
                format!("VM vm0 is listed on server {host} and again on server {host}"),
            ),
            (
                Box::new(move |s| {
                    s.cluster.servers[host.index()]
                        .vms
                        .retain(|&v| v != VmId(0))
                }),
                "VM vm0 is alive but in no server's list".to_string(),
            ),
            (
                Box::new(|s| s.cluster.vms[0].state = VmState::Departed),
                format!("VM vm0 is listed on server {host} but is not alive"),
            ),
            (
                Box::new(move |s| {
                    s.cluster.servers[host.index()].state =
                        ServerState::Failed { until_secs: 7200.0 }
                }),
                format!("failed server {host} lists"),
            ),
        ];
        for (i, (mutate, want)) in cases.into_iter().enumerate() {
            let mut sim = at_hour_1();
            mutate(&mut sim);
            let bytes = sim.snapshot("t", 0).to_bytes();
            match restore(&bytes) {
                Err(CheckpointError::Corrupt(msg)) => assert!(
                    msg.contains("section 'cluster'") && msg.contains(&want),
                    "case {i}: {msg}"
                ),
                other => panic!("case {i}: expected Corrupt, got {other:?}"),
            }
        }
    }
}
