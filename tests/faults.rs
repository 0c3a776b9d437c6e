//! Chaos tests: random fault schedules (server crashes, wake
//! failures, migration failures) through the full simulation
//! pipeline. Whatever the schedule throws at the engine, the cluster
//! invariants must hold at every step, every displaced VM must be
//! accounted for, and no VM may ever land on a server that is not
//! fully active.

use ecocloud::dcsim::{ServerId, SimEvent, SimResult};
use ecocloud::prelude::*;
use ecocloud_rng::{Rng, SeedableRng, StdRng};

/// Replayed power state of one server, tracked purely from the event
/// log — independent of the engine's own bookkeeping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ReplayState {
    Hibernated,
    Waking,
    Active,
    Failed,
}

/// Replays the event log and asserts the lifecycle rules the fault
/// subsystem must never break.
fn replay_log(n_servers: usize, res: &SimResult) {
    let mut state = vec![ReplayState::Hibernated; n_servers];
    let at = |sid: ServerId| sid.index();
    for e in res.events.events() {
        match *e {
            SimEvent::ServerWaking { server, .. } => {
                assert_eq!(
                    state[at(server)],
                    ReplayState::Hibernated,
                    "wake from a non-hibernated state"
                );
                state[at(server)] = ReplayState::Waking;
            }
            SimEvent::ServerActive { server, .. } => {
                assert_eq!(
                    state[at(server)],
                    ReplayState::Waking,
                    "activation without a wake"
                );
                state[at(server)] = ReplayState::Active;
            }
            SimEvent::ServerHibernated { server, .. } => {
                assert_ne!(
                    state[at(server)],
                    ReplayState::Failed,
                    "failed server hibernated without repair"
                );
                state[at(server)] = ReplayState::Hibernated;
            }
            SimEvent::ServerFailed { server, .. } => {
                assert_ne!(
                    state[at(server)],
                    ReplayState::Hibernated,
                    "crash of a dark server"
                );
                assert_ne!(state[at(server)], ReplayState::Failed, "double crash");
                state[at(server)] = ReplayState::Failed;
            }
            SimEvent::ServerRepaired { server, .. } => {
                assert_eq!(
                    state[at(server)],
                    ReplayState::Failed,
                    "repair without crash"
                );
                state[at(server)] = ReplayState::Hibernated;
            }
            SimEvent::WakeFailed { server, .. } => {
                assert_eq!(
                    state[at(server)],
                    ReplayState::Waking,
                    "wake failure on a server that was not waking"
                );
            }
            // The core lifecycle guarantee: a migration only ever
            // lands on a fully active destination.
            SimEvent::MigrationCompleted { to, .. } => {
                assert_eq!(
                    state[at(to)],
                    ReplayState::Active,
                    "migration completed onto a non-active destination"
                );
            }
            // Placements (new or post-fault) may target active or
            // still-waking servers, never dark or failed ones.
            SimEvent::VmPlaced { server, .. } | SimEvent::VmReplaced { server, .. } => {
                assert!(
                    matches!(state[at(server)], ReplayState::Active | ReplayState::Waking),
                    "VM attached to a server in {:?}",
                    state[at(server)]
                );
            }
            _ => {}
        }
    }
}

/// Builds a fault-injected simulation from fuzzed dimensions.
fn build_sim(
    n_servers: usize,
    n_vms: usize,
    seed: u64,
    faults: FaultConfig,
) -> (usize, Simulation<EcoCloudPolicy>) {
    let Scenario {
        fleet,
        workload,
        mut config,
    } = Scenario::closed_system(
        Fleet::thirds(n_servers),
        TraceConfig {
            n_vms,
            duration_secs: 2 * 3600,
            ..TraceConfig::small(seed)
        },
    );
    config.record_server_utilization = false;
    config.record_events = true;
    config.faults = faults;
    let spawned = workload.spawns.len();
    let sim = Simulation::new(fleet, workload, config, EcoCloudPolicy::paper(seed));
    (spawned, sim)
}

/// Random fault schedules never corrupt the cluster: the internal
/// consistency audit passes at every event, reservations never
/// leak, every spawned VM ends up alive, departed, dropped or
/// lost, and the replayed log obeys the lifecycle rules.
#[test]
fn prop_random_fault_schedules_preserve_invariants() {
    let mut rng = StdRng::seed_from_u64(31);
    for _ in 0..50 {
        // Each case is a full fault-injected simulation.
        let n_servers = rng.gen_range(4usize..15);
        let n_vms = rng.gen_range(8usize..60);
        let seed = rng.gen_range(0u64..1000);
        let fault_seed = rng.gen_range(0u64..1000);
        let mtbf_mins = rng.gen_range(5u64..120);
        let repair_mins = rng.gen_range(1u64..30);
        let wake_p = rng.gen_range(0.0f64..0.5);
        let mig_p = rng.gen_range(0.0f64..0.3);
        let faults = FaultConfig {
            crash_mtbf_secs: (mtbf_mins * 60) as f64,
            crash_repair_secs: (repair_mins * 60) as f64,
            wake_failure_prob: wake_p,
            migration_failure_prob: mig_p,
            seed: fault_seed,
            ..FaultConfig::none()
        };
        faults.validate().expect("generated fault config is valid");
        let (spawned, mut sim) = build_sim(n_servers, n_vms, seed, faults);
        while sim.step().is_some() {
            sim.cluster().check_invariants();
        }
        sim.cluster().check_invariants();
        let res = sim.finish();

        // VM conservation under faults: alive + departed + dropped +
        // lost == spawned (this workload has no natural departures,
        // but re-placement after a crash can drop VMs as "lost").
        let departed =
            res.events
                .count_matching(|e| matches!(e, SimEvent::VmDeparted { .. })) as u64;
        assert_eq!(
            res.final_alive_vms as u64 + departed + res.summary.dropped_vms + res.summary.vms_lost,
            spawned as u64,
            "VM conservation violated"
        );
        // Migration conservation: every start completed, aborted, or
        // was still in flight at the end.
        assert_eq!(
            res.summary.migrations_started,
            res.summary.migrations_completed
                + res.summary.migrations_aborted
                + res.final_inflight_migrations as u64
        );
        // Fault counters agree with the log.
        let count = |pred: fn(&SimEvent) -> bool| res.events.count_matching(pred) as u64;
        assert_eq!(
            count(|e| matches!(e, SimEvent::ServerFailed { .. })),
            res.summary.server_crashes
        );
        assert_eq!(
            count(|e| matches!(e, SimEvent::ServerRepaired { .. })),
            res.summary.server_repairs
        );
        assert_eq!(
            count(|e| matches!(e, SimEvent::WakeFailed { .. })),
            res.summary.wake_failures
        );
        assert_eq!(
            count(|e| matches!(e, SimEvent::VmReplaced { .. })),
            res.summary.vms_replaced
        );
        assert_eq!(
            count(|e| matches!(e, SimEvent::VmLost { .. })),
            res.summary.vms_lost
        );
        assert_eq!(
            res.summary.vms_displaced,
            res.summary.vms_replaced + res.summary.vms_lost,
            "displaced VMs neither re-placed nor lost"
        );
        // Repairs never outnumber crashes.
        assert!(res.summary.server_repairs <= res.summary.server_crashes);
        replay_log(n_servers, &res);
    }
}

/// The fault schedule is part of the deterministic state: same
/// seeds, same trajectory, byte for byte.
#[test]
fn prop_same_fault_seed_same_outcome() {
    let mut rng = StdRng::seed_from_u64(32);
    for _ in 0..50 {
        // Each case is a full fault-injected simulation.
        let n_servers = rng.gen_range(4usize..12);
        let n_vms = rng.gen_range(8usize..40);
        let seed = rng.gen_range(0u64..1000);
        let fault_seed = rng.gen_range(0u64..1000);
        let run = || {
            let (_, sim) = build_sim(n_servers, n_vms, seed, FaultConfig::moderate(fault_seed));
            sim.run()
        };
        let a = run();
        let b = run();
        assert_eq!(a.summary.energy_kwh, b.summary.energy_kwh);
        assert_eq!(a.summary.server_crashes, b.summary.server_crashes);
        assert_eq!(a.summary.wake_failures, b.summary.wake_failures);
        assert_eq!(a.summary.migration_failures, b.summary.migration_failures);
        assert_eq!(a.summary.vms_lost, b.summary.vms_lost);
        assert_eq!(a.final_powered, b.final_powered);
        assert_eq!(a.events.len(), b.events.len());
    }
}

/// A disabled fault schedule draws nothing from any RNG: the run is
/// byte-identical to one with no fault subsystem at all, and every
/// fault counter stays zero.
#[test]
fn no_fault_run_reports_zero_fault_counters() {
    let (_, sim) = build_sim(10, 40, 7, FaultConfig::none());
    let res = sim.run();
    assert_eq!(res.summary.server_crashes, 0);
    assert_eq!(res.summary.server_repairs, 0);
    assert_eq!(res.summary.wake_failures, 0);
    assert_eq!(res.summary.migration_failures, 0);
    assert_eq!(res.summary.vms_displaced, 0);
    assert_eq!(res.summary.vms_replaced, 0);
    assert_eq!(res.summary.vms_lost, 0);
    assert_eq!(
        res.events
            .count_matching(|e| matches!(e, SimEvent::ServerFailed { .. })),
        0
    );
}
