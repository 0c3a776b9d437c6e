//! The monitor quiet band is invisible: an engine that skips
//! `Policy::monitor` while a server's utilization lies in a policy's
//! quiet band produces the same run as one that makes every call.
//!
//! The oracle is [`NeverQuiet`], a wrapper that delegates every policy
//! method to the wrapped policy but keeps the trait's default
//! `quiet_band` (never quiet), so its engine calls `monitor` on every
//! active tick. Against the bare policy it must give the same
//! `SimSummary`, statistics and event log, and the same checkpoint
//! bytes at every compared step — the last catches policy state that
//! the skipped calls would have changed, such as ecoCloud's lazily
//! sized per-server vectors. ecoCloud's band is `[T_l, T_h]`; Best
//! Fit's is `[T_l, T_h]` with migrations on and the whole real line
//! with them off.

use std::cell::Cell;
use std::rc::Rc;

use ecocloud::dcsim::{ClusterView, MigrationRequest, ServerId};
use ecocloud::prelude::*;
use ecocloud::scenarios::{ChurnKind, DEFAULT_CHURN_SHARE};

/// `P` with the default, never-quiet band. Counts the monitor calls
/// the bare policy's engine skips: those made while the server's
/// utilization lies inside `P`'s band.
struct NeverQuiet<P> {
    inner: P,
    quiet_calls: Rc<Cell<u64>>,
}

impl<P: Policy> Policy for NeverQuiet<P> {
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
        self.inner.monitor(view, server, now_secs)
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

/// Steps the bare policy and the never-quiet oracle, each built by
/// `policy`, in lockstep, comparing checkpoint bytes after each of the
/// first `dense` steps and every 2,000th step after that, then the
/// finished results. Returns how many monitor calls the bare run
/// skipped.
fn assert_band_invisible<P: Policy>(
    label: &str,
    s: &Scenario,
    policy: impl Fn() -> P,
    dense: u64,
) -> u64 {
    let quiet_calls = Rc::new(Cell::new(0));
    let mut bare = simulation(s, policy());
    let mut oracle = simulation(
        s,
        NeverQuiet {
            inner: policy(),
            quiet_calls: Rc::clone(&quiet_calls),
        },
    );
    let mut steps = 0u64;
    loop {
        let t = bare.step();
        assert_eq!(t, oracle.step(), "{label}: step {steps} diverged");
        if steps < dense || steps.is_multiple_of(2000) {
            assert!(
                bare.checkpoint(label, steps).to_bytes()
                    == oracle.checkpoint(label, steps).to_bytes(),
                "{label}: checkpoint bytes differ after step {steps} (t = {t:?})"
            );
        }
        if t.is_none() {
            break;
        }
        steps += 1;
    }
    let (a, b) = (bare.finish(), oracle.finish());
    assert_eq!(
        format!("{:?}", a.summary),
        format!("{:?}", b.summary),
        "{label}: summaries differ"
    );
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
    quiet_calls.get()
}

#[test]
fn quiet_band_is_invisible_closed_system() {
    let mut s = Scenario::closed_system(
        Fleet::thirds(40),
        TraceConfig {
            n_vms: 400,
            duration_secs: 8 * 3600,
            ..TraceConfig::paper_48h(31)
        },
    );
    s.config.record_events = true;
    let skipped = assert_band_invisible("closed", &s, || EcoCloudPolicy::paper(31), 500);
    assert!(skipped > 10_000, "only {skipped} monitor calls skipped");
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
    let skipped = assert_band_invisible("open", &s, || EcoCloudPolicy::paper(32), 500);
    assert!(skipped > 10_000, "only {skipped} monitor calls skipped");
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

    let skipped = assert_band_invisible("spread", &s, || EcoCloudPolicy::paper(33), 3000);
    assert!(skipped > 1_000, "only {skipped} monitor calls skipped");
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
    let skipped = assert_band_invisible("best-fit", &s, BestFitPolicy::paper, 500);
    assert!(skipped > 10_000, "only {skipped} monitor calls skipped");
    let off = || BestFitPolicy {
        migrations: false,
        ..BestFitPolicy::paper()
    };
    let skipped = assert_band_invisible("best-fit, migrations off", &s, off, 500);
    assert!(skipped > 10_000, "only {skipped} monitor calls skipped");
}
