//! The monitor quiet band is invisible: an engine that skips
//! `Policy::monitor` while a server's utilization lies in a policy's
//! quiet band produces the same run as one that makes every call.
//!
//! The oracle is [`never_quiet`], a wrapper that delegates every policy
//! method to the wrapped policy but keeps the trait's default
//! `quiet_band` (never quiet), so its engine calls `monitor` on every
//! active tick and never parks a monitor chain. Against the bare
//! policy, whose engine parks the chains of quiet servers and settles
//! their silent ticks in closed form, it must give the same
//! `SimSummary`, statistics and event log, the same number of
//! processed events, and the same checkpoint bytes at every compared
//! point in all but the queue and monitor-chain sections — the last
//! catches policy state that the skipped calls would have changed,
//! such as ecoCloud's lazily sized per-server vectors. ecoCloud's band
//! is `[T_l, T_h]`; Best Fit's is `[T_l, T_h]` with migrations on and
//! the whole real line with them off.
//!
//! The tie cases of re-arming a parked chain — a re-armed tick due at
//! the very time of the event that re-arms it — are witnessed by a
//! [`spy`] run before the oracle comparison, so each test shows that
//! its scenario reaches the case it is named for.

use std::cell::{Cell, RefCell};
use std::ops::RangeInclusive;
use std::rc::Rc;

use ecocloud::dcsim::{
    Checkpoint, ClusterView, MigrationRequest, MonitorChain, ServerId, ServerState,
};
use ecocloud::prelude::*;
use ecocloud::scenarios::{ChurnKind, DEFAULT_CHURN_SHARE};

/// `P` with every call delegated. As [`never_quiet`] it hides `P`'s
/// band (the trait default: never quiet) and counts the monitor calls
/// the bare policy's engine skips, those made while the server's
/// utilization lies inside `P`'s band. As [`spy`] it keeps the band
/// and records every monitor call as `(server, time)`.
struct Wrapped<P> {
    inner: P,
    keep_band: bool,
    quiet_calls: Rc<Cell<u64>>,
    calls: Rc<RefCell<Vec<(u32, f64)>>>,
}

/// The never-quiet oracle: its engine never skips a monitor call and
/// never parks a chain.
fn never_quiet<P>(inner: P, quiet_calls: &Rc<Cell<u64>>) -> Wrapped<P> {
    Wrapped {
        inner,
        keep_band: false,
        quiet_calls: Rc::clone(quiet_calls),
        calls: Rc::default(),
    }
}

/// `P` unchanged, with its monitor calls recorded in `calls`.
fn spy<P>(inner: P, calls: &Rc<RefCell<Vec<(u32, f64)>>>) -> Wrapped<P> {
    Wrapped {
        inner,
        keep_band: true,
        quiet_calls: Rc::default(),
        calls: Rc::clone(calls),
    }
}

impl<P: Policy> Policy for Wrapped<P> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn place(&mut self, view: &ClusterView<'_>, req: &PlacementRequest) -> PlaceOutcome {
        self.inner.place(view, req)
    }

    fn monitor(
        &mut self,
        view: &ClusterView<'_>,
        server: ServerId,
        now_secs: f64,
    ) -> Option<MigrationRequest> {
        let u = view.server(server).utilization();
        if self
            .inner
            .quiet_band(view.n_servers())
            .is_some_and(|band| band.contains(&u))
        {
            self.quiet_calls.set(self.quiet_calls.get() + 1);
        }
        self.calls.borrow_mut().push((server.0, now_secs));
        self.inner.monitor(view, server, now_secs)
    }

    fn quiet_band(&self, n_servers: usize) -> Option<RangeInclusive<f64>> {
        self.keep_band
            .then(|| self.inner.quiet_band(n_servers))
            .flatten()
    }

    fn on_server_woken(&mut self, server: ServerId, now_secs: f64) {
        self.inner.on_server_woken(server, now_secs)
    }

    fn on_server_failed(&mut self, server: ServerId, now_secs: f64) {
        self.inner.on_server_failed(server, now_secs)
    }

    fn invite(&mut self, view: &ClusterView<'_>, req: &PlacementRequest) -> Option<Vec<ServerId>> {
        self.inner.invite(view, req)
    }

    fn choose_acceptor(&mut self, acceptors: &[ServerId]) -> usize {
        self.inner.choose_acceptor(acceptors)
    }

    fn admission_recheck(
        &mut self,
        view: &ClusterView<'_>,
        server: ServerId,
        req: &PlacementRequest,
    ) -> bool {
        self.inner.admission_recheck(view, server, req)
    }

    fn place_exhausted(&mut self, view: &ClusterView<'_>, req: &PlacementRequest) -> PlaceOutcome {
        self.inner.place_exhausted(view, req)
    }

    fn checkpoint_state(&self) -> Vec<u64> {
        self.inner.checkpoint_state()
    }

    fn restore_state(&mut self, state: &[u64]) -> Result<(), String> {
        self.inner.restore_state(state)
    }
}

fn simulation<P: Policy>(s: &Scenario, policy: P) -> Simulation<P> {
    Simulation::new(
        s.fleet.clone(),
        s.workload.clone(),
        s.config.clone(),
        policy,
    )
}

/// The checkpoint sections a parked run shares byte for byte with a
/// never-parking one at the same point: all but the event queue (the
/// parked run queues no silent ticks, so its entries and keys differ)
/// and the monitor chains.
fn shared_sections(c: &Checkpoint<'_>) -> Vec<(String, Vec<u8>)> {
    c.sections()
        .filter(|(name, _)| !matches!(*name, "queue" | "monitor"))
        .map(|(name, bytes)| (name.to_string(), bytes.to_vec()))
        .collect()
}

/// Steps the bare policy's run, each step catching the never-quiet
/// oracle up to the same point (the same number of processed events,
/// the silent ticks the bare run settles in closed form included). It
/// compares the shared checkpoint sections after the first `dense`
/// steps and every 2,000th step after that, then drains the oracle and
/// compares the finished results. Every monitor tick the oracle pops is popped by the bare
/// run or settled by it. Returns how many monitor calls the bare run
/// skipped and how many silent ticks it settled.
fn assert_band_invisible<P: Policy>(
    label: &str,
    s: &Scenario,
    policy: impl Fn() -> P,
    dense: u64,
) -> (u64, u64) {
    let quiet_calls = Rc::new(Cell::new(0));
    let mut bare = simulation(s, policy());
    let mut oracle = simulation(s, never_quiet(policy(), &quiet_calls));
    let mut steps = 0u64;
    loop {
        let t = bare.step();
        if t.is_none() {
            // Silent ticks after the last pop still count: drain.
            while oracle.step().is_some() {}
            break;
        }
        let events = bare.events_processed();
        while oracle.stats().events_processed < events {
            oracle.step();
        }
        assert_eq!(
            oracle.stats().events_processed,
            events,
            "{label}: the oracle overran step {steps} (t = {t:?})"
        );
        assert_eq!(
            bare.now().to_bits(),
            oracle.now().to_bits(),
            "{label}: step {steps}"
        );
        if steps < dense || steps.is_multiple_of(2000) {
            assert!(
                shared_sections(&bare.checkpoint(label, steps))
                    == shared_sections(&oracle.checkpoint(label, steps)),
                "{label}: checkpoint sections differ after step {steps} (t = {t:?})"
            );
        }
        steps += 1;
    }
    let (mut a, b) = (bare.finish(), oracle.finish());
    let settled = a.stats.monitor_ticks_settled;
    assert_eq!(
        b.stats.monitor_ticks_settled, 0,
        "{label}: the oracle parked"
    );
    assert_eq!(
        steps + settled,
        b.stats.events_processed,
        "{label}: popped and settled events do not add up to the oracle's"
    );
    assert_eq!(
        format!("{:?}", a.summary),
        format!("{:?}", b.summary),
        "{label}: summaries differ"
    );
    a.stats.monitor_ticks_settled = 0;
    assert_eq!(
        format!("{:?}", a.stats),
        format!("{:?}", b.stats),
        "{label}: statistics differ"
    );
    assert_eq!(
        format!("{:?}", a.events),
        format!("{:?}", b.events),
        "{label}: event logs differ"
    );
    assert!(s.config.record_events && !a.events.is_empty());
    (quiet_calls.get(), settled)
}

#[test]
fn quiet_band_is_invisible_closed_system() {
    let s = closed_40(31);
    let (skipped, settled) = assert_band_invisible("closed", &s, || EcoCloudPolicy::paper(31), 500);
    assert!(skipped > 10_000, "only {skipped} monitor calls skipped");
    assert!(settled > 10_000, "only {settled} silent ticks settled");
}

#[test]
fn quiet_band_is_invisible_open_system_with_faults_and_lan() {
    let mut s = Scenario::open_system(
        Fleet::thirds(30),
        300,
        8,
        32,
        ChurnKind::Steady,
        DEFAULT_CHURN_SHARE,
    );
    s.config.faults = FaultConfig::light(32);
    s.config.control_plane = ControlPlaneConfig::lan(32);
    s.config.record_events = true;
    s.config.validate().expect("valid config");
    let (skipped, settled) = assert_band_invisible("open", &s, || EcoCloudPolicy::paper(32), 500);
    assert!(skipped > 10_000, "only {skipped} monitor calls skipped");
    assert!(settled > 10_000, "only {settled} silent ticks settled");
}

/// Fig. 12's spread start with migrations on, on a fleet small enough
/// that the spread load lies in the band. A spread workload places its
/// t = 0 population without calling the policy, so the first monitor
/// tick precedes every `place` call and is the first call that sizes
/// ecoCloud's checkpointed per-server vectors. A band offered before
/// that sizing would skip it and change the snapshot bytes.
#[test]
fn quiet_band_is_invisible_on_a_spread_start() {
    let mut s = Scenario::paper_fig12(33);
    s.fleet = Fleet::uniform(30, 6);
    s.config.migrations_enabled = true;
    s.config.duration_secs = 3.0 * 3600.0;
    s.config.record_events = true;

    // The precondition that makes this the sizing case: the first
    // tick comes before the first post-spread arrival, on a server
    // whose utilization lies inside the band.
    let mut sim = simulation(&s, EcoCloudPolicy::paper(33));
    while sim.step().is_some_and(|t| t == 0.0) {}
    let first_tick = s.config.monitor_interval_secs / s.fleet.len() as f64;
    let first_arrival = s
        .workload
        .spawns
        .iter()
        .map(|sp| sp.arrive_secs)
        .filter(|&t| t > 0.0)
        .fold(f64::INFINITY, f64::min);
    assert!(
        first_tick < first_arrival,
        "{first_tick} >= {first_arrival}"
    );
    let u0 = sim.cluster().hot().utilization(0);
    let m = EcoCloudConfig::paper(33).migration;
    assert!((m.tl..=m.th).contains(&u0), "server 0 starts at u = {u0}");

    let (skipped, settled) =
        assert_band_invisible("spread", &s, || EcoCloudPolicy::paper(33), 3000);
    assert!(skipped > 1_000, "only {skipped} monitor calls skipped");
    assert!(settled > 1_000, "only {settled} silent ticks settled");
}

/// Best Fit on the paper's closed system at a tenth of its fleet
/// (15 VMs per server, as in §III), with its migration controller on
/// (band `[T_l, T_h]`) and off (every call is quiet).
#[test]
fn best_fit_quiet_band_is_invisible() {
    let mut s = Scenario::closed_system(
        Fleet::thirds(40),
        TraceConfig {
            n_vms: 600,
            duration_secs: 8 * 3600,
            ..TraceConfig::paper_48h(34)
        },
    );
    s.config.record_events = true;
    let (skipped, settled) = assert_band_invisible("best-fit", &s, BestFitPolicy::paper, 500);
    assert!(skipped > 10_000, "only {skipped} monitor calls skipped");
    assert!(settled > 10_000, "only {settled} silent ticks settled");
    let off = || BestFitPolicy {
        migrations: false,
        ..BestFitPolicy::paper()
    };
    let (skipped, settled) = assert_band_invisible("best-fit, migrations off", &s, off, 500);
    assert!(skipped > 10_000, "only {skipped} monitor calls skipped");
    assert!(settled > 10_000, "only {settled} silent ticks settled");
}

/// Re-arms and crashes of parked chains seen in one run.
#[derive(Debug, Default)]
struct Witnesses {
    /// Server n − 1's chain re-armed by a demand sweep at one of its
    /// own tick times, with the re-armed tick popping at that time.
    demand_ties: u64,
    /// A chain re-armed by a migration completing off its server at one
    /// of its tick times, with the re-armed tick popping at that time.
    migration_ties: u64,
    /// Servers that crashed with their chain parked, and how many of
    /// them were repaired later.
    parked_crashes: u64,
    parked_repairs: u64,
}

/// Steps a [`spy`] run of `policy` and collects its [`Witnesses`].
fn witness<P: Policy>(s: &Scenario, policy: P) -> Witnesses {
    let calls = Rc::new(RefCell::new(Vec::new()));
    let mut sim = simulation(s, spy(policy, &calls));
    let n = s.fleet.len();
    let step_secs = s.workload.traces.config.step_secs as f64;
    let mut w = Witnesses::default();
    // (server, time, by a migration completion) of every re-arm.
    let mut rearms: Vec<(u32, f64, bool)> = Vec::new();
    let mut crashed: Vec<u32> = Vec::new();
    loop {
        let parked: Vec<bool> = (0..n)
            .map(|i| {
                matches!(
                    sim.monitor_chain(ServerId(i as u32)),
                    MonitorChain::Parked { .. }
                )
            })
            .collect();
        let u: Vec<f64> = (0..n).map(|i| sim.cluster().hot().utilization(i)).collect();
        let st = sim.stats();
        let before = (
            st.migrations_completed,
            st.vms_departed + st.vms_arrived + st.server_crashes,
        );
        let Some(t) = sim.step() else { break };
        let st = sim.stats();
        let completed = st.migrations_completed > before.0;
        let other = st.vms_departed + st.vms_arrived + st.server_crashes > before.1;
        for i in 0..n {
            let sid = ServerId(i as u32);
            let state = sim.cluster().servers[i].state;
            if parked[i] && sim.monitor_chain(sid) == MonitorChain::Scheduled {
                let fell = sim.cluster().hot().utilization(i) < u[i];
                if completed && fell {
                    rearms.push((sid.0, t, true));
                } else if !completed && !other && i == n - 1 && t % step_secs == 0.0 {
                    rearms.push((sid.0, t, false));
                }
            }
            if parked[i] && matches!(state, ServerState::Failed { .. }) {
                w.parked_crashes += 1;
                crashed.push(sid.0);
            }
            if matches!(state, ServerState::Hibernated) {
                if let Some(k) = crashed.iter().position(|&c| c == sid.0) {
                    crashed.swap_remove(k);
                    w.parked_repairs += 1;
                }
            }
        }
    }
    let calls = calls.borrow();
    for (sid, t, by_migration) in rearms {
        if calls.contains(&(sid, t)) {
            if by_migration {
                w.migration_ties += 1;
            } else {
                w.demand_ties += 1;
            }
        }
    }
    w
}

/// The paper's closed system at a tenth of its fleet (10 VMs per
/// server) over 8 h.
fn closed_40(seed: u64) -> Scenario {
    let mut s = Scenario::closed_system(
        Fleet::thirds(40),
        TraceConfig {
            n_vms: 400,
            duration_secs: 8 * 3600,
            ..TraceConfig::paper_48h(seed)
        },
    );
    s.config.record_events = true;
    s
}

/// Server n − 1's stagger offset equals the monitor interval, so its
/// ticks land on every demand sweep. A sweep that moves it out of the
/// band while it is parked re-arms it at that very time, and the
/// re-armed tick must pop after the sweep, as the unparked tick (pushed
/// after the sweep was) does.
#[test]
fn a_demand_sweep_rearms_the_last_server_at_its_own_tick_time() {
    let mut s = closed_40(32);
    s.config.faults = FaultConfig::light(32);
    let w = witness(&s, EcoCloudPolicy::paper(32));
    assert!(w.demand_ties > 0, "{w:?}");
    assert_band_invisible("demand tie", &s, || EcoCloudPolicy::paper(32), 0);
}

/// A migration completes `migration_latency_secs` (15 s, three monitor
/// intervals) after its source's tick started it, so it can land on a
/// later tick of the source. When the source is parked then and the
/// completion moves it out of the band, the re-armed tick is due at
/// the completion's own time and pops after it.
#[test]
fn a_migration_completion_rearms_its_source_at_its_own_tick_time() {
    let s = closed_40(31);
    let w = witness(&s, BestFitPolicy::paper());
    assert!(w.migration_ties > 0, "{w:?}");
    assert_band_invisible("migration tie", &s, BestFitPolicy::paper, 0);
}

/// A crash takes a parked server out of `Active`, which re-arms its
/// chain; the re-armed tick finds the server off and stops the chain,
/// and the repair and a later wake resume it in phase.
#[test]
fn a_parked_server_crashes_and_is_repaired_under_light_faults() {
    let mut s = closed_40(34);
    s.config.faults = FaultConfig::light(34);
    let w = witness(&s, EcoCloudPolicy::paper(34));
    assert!(w.parked_crashes > 0 && w.parked_repairs > 0, "{w:?}");
    assert_band_invisible("parked crash", &s, || EcoCloudPolicy::paper(34), 0);
}

/// A snapshot taken while chains are parked stores them settled; the
/// restored run re-encodes to the same bytes and finishes as the
/// straight run and the never-quiet oracle do.
#[test]
fn a_checkpoint_with_parked_chains_restores_to_the_straight_run() {
    let s = closed_40(31);
    let straight = simulation(&s, EcoCloudPolicy::paper(31)).run();
    let oracle = simulation(&s, never_quiet(EcoCloudPolicy::paper(31), &Rc::default())).run();

    let mut sim = simulation(&s, EcoCloudPolicy::paper(31));
    while sim.step().is_some_and(|t| t < 4.0 * 3600.0) {}
    let parked = (0..s.fleet.len())
        .filter(|&i| {
            matches!(
                sim.monitor_chain(ServerId(i as u32)),
                MonitorChain::Parked { .. }
            )
        })
        .count();
    assert!(parked > 0, "no chain parked at the snapshot");
    let bytes = sim.checkpoint("parked", 1).to_bytes();
    let ckpt = Checkpoint::from_bytes(&bytes, "memory").expect("snapshot parses");
    let restored = Simulation::restore_from(
        s.fleet.clone(),
        s.workload.clone(),
        s.config.clone(),
        EcoCloudPolicy::paper(31),
        &ckpt,
        "parked",
    )
    .expect("snapshot restores");
    assert_eq!(restored.events_processed(), sim.events_processed());
    assert!(restored.checkpoint("parked", 1).to_bytes() == bytes);
    let resumed = restored.run();

    assert_eq!(
        format!("{:?}", resumed.summary),
        format!("{:?}", straight.summary)
    );
    assert_eq!(
        format!("{:?}", resumed.stats),
        format!("{:?}", straight.stats)
    );
    assert_eq!(
        format!("{:?}", resumed.events),
        format!("{:?}", straight.events)
    );
    assert_eq!(
        format!("{:?}", resumed.summary),
        format!("{:?}", oracle.summary)
    );
}
