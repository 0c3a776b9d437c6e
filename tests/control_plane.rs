//! Control-plane integration tests: the message-level placement
//! protocol (invitation broadcast → acceptance collection → commit
//! with admission re-check → bounded re-broadcast) against its atomic
//! oracle, under loss, and under combined loss + server faults.

use ecocloud::dcsim::{ClusterView, ServerId, SimEvent, Simulation};
use ecocloud::prelude::*;

/// A scenario with one VM arriving every `spacing_secs`, so placement
/// exchanges never overlap in simulated time (the regime where the
/// phased protocol with an ideal network must reproduce the atomic
/// decisions draw for draw).
fn staggered_scenario(n_servers: usize, n_vms: usize, spacing_secs: f64, seed: u64) -> Scenario {
    let traces = TraceSet::generate(TraceConfig {
        n_vms,
        duration_secs: 2 * 3600,
        ..TraceConfig::small(seed)
    });
    let spawns = (0..n_vms)
        .map(|i| dcsim::VmSpawn {
            trace_idx: i,
            arrive_secs: (i as f64 + 1.0) * spacing_secs,
            lifetime_secs: None,
            priority: Default::default(),
            evictable: false,
            ram_mb: 0.0,
        })
        .collect();
    let mut config = SimConfig::paper_48h(seed);
    config.duration_secs = 2.0 * 3600.0;
    config.migrations_enabled = false;
    config.record_events = true;
    config.record_server_utilization = false;
    Scenario {
        fleet: Fleet::thirds(n_servers),
        workload: Workload {
            traces,
            spawns,
            initial_placement: InitialPlacement::ViaPolicy,
            wrap_traces: false,
        },
        config,
    }
}

/// Extracts the placement decision sequence from an event log:
/// `(vm, Some(server))` for placements, `(vm, None)` for drops.
fn decisions(res: &SimResult) -> Vec<(u32, Option<u32>)> {
    res.events
        .events()
        .iter()
        .filter_map(|e| match *e {
            SimEvent::VmPlaced { vm, server, .. } => Some((vm.0, Some(server.0))),
            SimEvent::VmDropped { vm, .. } => Some((vm.0, None)),
            _ => None,
        })
        .collect()
}

fn assert_conservation(sum: &dcsim::stats::SimSummary) {
    assert_eq!(
        sum.invitations_sent,
        sum.invite_accepts + sum.invite_declines + sum.invite_losses + sum.invite_timeouts,
        "message conservation violated"
    );
    assert_eq!(
        sum.exchanges_started,
        sum.exchanges_committed + sum.exchanges_abandoned + sum.exchanges_aborted,
        "exchange conservation violated"
    );
}

#[test]
fn ideal_network_is_decision_equivalent_to_atomic_oracle() {
    for seed in [1u64, 7, 42] {
        let mut atomic = staggered_scenario(12, 60, 30.0, seed);
        let mut phased = atomic.clone();
        atomic.config.control_plane = ControlPlaneConfig::off();
        phased.config.control_plane = ControlPlaneConfig::ideal(seed);

        let res_a = atomic.run(EcoCloudPolicy::paper(seed));
        let res_p = phased.run(EcoCloudPolicy::paper(seed));

        // Zero latency + zero loss + broadcast_limit == the atomic
        // path's assignment_rounds: same servers for the same seed.
        assert_eq!(
            decisions(&res_a),
            decisions(&res_p),
            "ideal control plane diverged from the atomic oracle (seed {seed})"
        );
        assert_eq!(res_a.summary.energy_kwh, res_p.summary.energy_kwh);
        assert_eq!(res_a.final_powered, res_p.final_powered);
        // And the protocol actually ran.
        assert!(res_p.summary.exchanges_started >= 60);
        assert_eq!(res_p.summary.commit_nacks, 0, "NACK without contention");
        assert_conservation(&res_p.summary);
        // The atomic run never touches the exchange machinery.
        assert_eq!(res_a.summary.exchanges_started, 0);
        assert_eq!(res_a.summary.invitations_sent, 0);
    }
}

#[test]
fn off_profile_keeps_every_counter_zero() {
    let s = staggered_scenario(8, 40, 30.0, 5);
    let res = s.run(EcoCloudPolicy::paper(5));
    let sum = &res.summary;
    assert_eq!(sum.exchanges_started, 0);
    assert_eq!(sum.invitations_sent, 0);
    assert_eq!(sum.commits_sent, 0);
    assert_eq!(sum.exchange_rebroadcasts, 0);
    assert_eq!(sum.placement_p99_secs, 0.0);
}

#[test]
fn heavy_loss_degrades_gracefully_under_chaos_faults() {
    // 20 % per-leg loss on top of the chaos fault schedule: the run
    // must finish without panicking, resolve every exchange, and keep
    // both conservation laws (plus VM conservation, checked by the
    // engine's own debug asserts in `finish`).
    for seed in [3u64, 11] {
        let mut s = Scenario::closed_system(
            Fleet::thirds(10),
            TraceConfig {
                n_vms: 120,
                duration_secs: 3 * 3600,
                ..TraceConfig::small(seed)
            },
        );
        s.config.record_server_utilization = false;
        s.config.faults = FaultConfig::chaos(seed);
        s.config.control_plane = ControlPlaneConfig::with_loss(0.2, seed);
        let res = s.run(EcoCloudPolicy::paper(seed));
        assert_conservation(&res.summary);
        assert!(res.summary.exchanges_started > 0);
        // At 20 % loss some messages must actually have been lost.
        assert!(
            res.summary.invite_losses > 0,
            "lossy run lost no invitations (seed {seed})"
        );
    }
}

#[test]
fn lossy_runs_are_deterministic() {
    let run = |seed: u64| {
        let mut s = staggered_scenario(10, 50, 20.0, seed);
        s.config.control_plane = ControlPlaneConfig::lossy(seed);
        s.run(EcoCloudPolicy::paper(seed))
    };
    let a = run(9);
    let b = run(9);
    assert_eq!(a.summary.energy_kwh, b.summary.energy_kwh);
    assert_eq!(a.summary.exchanges_committed, b.summary.exchanges_committed);
    assert_eq!(a.summary.invite_losses, b.summary.invite_losses);
    assert_eq!(a.summary.placement_p99_secs, b.summary.placement_p99_secs);
    assert_eq!(decisions(&a), decisions(&b));
    let c = run(10);
    assert_ne!(
        (a.summary.energy_kwh, a.summary.invite_losses),
        (c.summary.energy_kwh, c.summary.invite_losses),
        "different seeds produced identical lossy runs"
    );
}

/// A scripted phased policy: every powered server accepts the
/// invitation, but the commit-time re-check only admits onto an empty
/// server. With two VMs racing for one server, the second commit must
/// NACK, retry its (empty) acceptor list, re-broadcast, NACK again,
/// and finally drop.
struct OnlyWhenEmpty;

impl Policy for OnlyWhenEmpty {
    fn name(&self) -> &'static str {
        "only-when-empty"
    }

    fn place(&mut self, _view: &ClusterView<'_>, _req: &PlacementRequest) -> PlaceOutcome {
        unreachable!("phased policy must not fall back to atomic placement")
    }

    fn invite(&mut self, view: &ClusterView<'_>, req: &PlacementRequest) -> Option<Vec<ServerId>> {
        Some(
            view.powered()
                .map(|(sid, _)| sid)
                .filter(|&sid| Some(sid) != req.exclude)
                .collect(),
        )
    }

    fn admission_recheck(
        &mut self,
        view: &ClusterView<'_>,
        server: ServerId,
        _req: &PlacementRequest,
    ) -> bool {
        // Room for two VMs total: the first racing commit is admitted,
        // the second finds the server full and is NACKed.
        view.server(server).vms.len() < 2
    }
}

#[test]
fn stale_commit_is_nacked_and_retried_to_exhaustion() {
    let seed = 1u64;
    let traces = TraceSet::generate(TraceConfig {
        n_vms: 3,
        duration_secs: 3600,
        ..TraceConfig::small(seed)
    });
    // VM 0 is pre-spread onto the lone server at t = 0 (keeping it
    // active); VMs 1 and 2 arrive together and race for the last slot.
    let spawns = (0..3)
        .map(|i| dcsim::VmSpawn {
            trace_idx: i,
            arrive_secs: if i == 0 { 0.0 } else { 60.0 },
            lifetime_secs: None,
            priority: Default::default(),
            evictable: false,
            ram_mb: 0.0,
        })
        .collect();
    let mut config = SimConfig::paper_48h(seed);
    config.duration_secs = 3600.0;
    config.migrations_enabled = false;
    config.record_events = true;
    config.control_plane = ControlPlaneConfig {
        enabled: true,
        latency_min_secs: 0.05,
        latency_max_secs: 0.05, // fixed latency: fully scripted timing
        loss_prob: 0.0,
        accept_timeout_secs: 0.5,
        broadcast_limit: 2,
        rebroadcast_backoff_secs: 0.0,
        rebroadcast_backoff_cap_secs: 0.0,
        seed,
    };
    config.control_plane.validate().expect("valid model");
    let workload = Workload {
        traces,
        spawns,
        initial_placement: InitialPlacement::Spread,
        wrap_traces: false,
    };
    // Both racing VMs broadcast at t = 60, both collect the lone
    // server's acceptance, and both commit: the first commit wins,
    // the second finds the server full.
    let res = Simulation::new(Fleet::uniform(1, 6), workload, config, OnlyWhenEmpty).run();
    let sum = &res.summary;
    assert_eq!(sum.exchanges_started, 2);
    assert_eq!(sum.exchanges_committed, 1);
    assert_eq!(sum.exchanges_abandoned, 1);
    assert_eq!(sum.exchanges_aborted, 0);
    // First commit admitted; the loser NACKs once per round.
    assert_eq!(sum.commit_nacks, 2);
    assert_eq!(sum.exchange_rebroadcasts, 1);
    assert_eq!(sum.dropped_vms, 1);
    assert_conservation(sum);
    // The log tells the same story.
    let nacks = res
        .events
        .count_matching(|e| matches!(e, SimEvent::ExchangeNacked { .. }));
    assert_eq!(nacks, 2);
    let placed = res
        .events
        .count_matching(|e| matches!(e, SimEvent::VmPlaced { .. }));
    assert_eq!(placed, 2, "pre-spread VM 0 plus the winning racer");
}

/// Scripted phased policy for the departure-mid-exchange race: S0's
/// first monitor tick requests one high migration of VM 0, whose
/// placement then runs through the invitation protocol.
struct MigrateViaExchange {
    done: bool,
}

impl Policy for MigrateViaExchange {
    fn name(&self) -> &'static str {
        "migrate-via-exchange"
    }

    fn place(&mut self, _view: &ClusterView<'_>, _req: &PlacementRequest) -> PlaceOutcome {
        unreachable!("phased policy must not fall back to atomic placement")
    }

    fn invite(&mut self, view: &ClusterView<'_>, req: &PlacementRequest) -> Option<Vec<ServerId>> {
        Some(
            view.powered()
                .map(|(sid, _)| sid)
                .filter(|&sid| Some(sid) != req.exclude)
                .collect(),
        )
    }

    fn monitor(
        &mut self,
        _view: &ClusterView<'_>,
        server: ServerId,
        _now_secs: f64,
    ) -> Option<dcsim::MigrationRequest> {
        if server != ServerId(0) || self.done {
            return None;
        }
        self.done = true;
        Some(dcsim::MigrationRequest {
            vm: dcsim::VmId(0),
            kind: dcsim::MigrationKind::High,
        })
    }
}

/// A VM departing while its migration *exchange* is still collecting
/// acceptances aborts the exchange (no commit, no flight) and releases
/// its host capacity exactly once through the ordinary departure path.
#[test]
fn departure_mid_exchange_aborts_without_migrating() {
    let seed = 1u64;
    let traces = TraceSet::generate(TraceConfig {
        n_vms: 1,
        duration_secs: 3600,
        ..TraceConfig::small(seed)
    });
    // VM 0 is pre-spread on S0 at t = 0 and lives 1.3 s. S0's first
    // monitor tick (t = 1, interval 2 s over two servers) starts the
    // migration exchange; its collection window closes at t = 1.5, so
    // the departure at t = 1.3 lands mid-exchange.
    let spawns = vec![dcsim::VmSpawn {
        trace_idx: 0,
        arrive_secs: 0.0,
        lifetime_secs: Some(1.3),
        priority: Default::default(),
        evictable: false,
        ram_mb: 0.0,
    }];
    let mut config = SimConfig::paper_48h(seed);
    config.duration_secs = 3600.0;
    config.monitor_interval_secs = 2.0;
    config.idle_timeout_secs = 1e9;
    config.record_events = true;
    config.control_plane = ControlPlaneConfig {
        enabled: true,
        latency_min_secs: 0.05,
        latency_max_secs: 0.05,
        loss_prob: 0.0,
        accept_timeout_secs: 0.5,
        broadcast_limit: 2,
        rebroadcast_backoff_secs: 0.0,
        rebroadcast_backoff_cap_secs: 0.0,
        seed,
    };
    config.control_plane.validate().expect("valid model");
    let workload = Workload {
        traces,
        spawns,
        initial_placement: InitialPlacement::Spread,
        wrap_traces: false,
    };
    let res = Simulation::new(
        Fleet::uniform(2, 6),
        workload,
        config,
        MigrateViaExchange { done: false },
    )
    .run();
    let sum = &res.summary;
    // The exchange started and was aborted by the departure — never
    // committed, never abandoned, and no migration flight began.
    assert_eq!(sum.exchanges_started, 1);
    assert_eq!(sum.exchanges_aborted, 1);
    assert_eq!(sum.exchanges_committed, 0);
    assert_eq!(sum.migrations_started, 0);
    assert_eq!(sum.vms_departed, 1);
    assert_conservation(sum);
    // Capacity was released exactly once: nothing is left alive, in
    // flight, or reserved anywhere in the cluster.
    assert_eq!(res.final_alive_vms, 0);
    assert_eq!(res.final_inflight_migrations, 0);
    let aborted_at = res
        .events
        .events()
        .iter()
        .find_map(|e| match e {
            SimEvent::ExchangeAborted { t, .. } => Some(*t),
            _ => None,
        })
        .expect("no exchange abort logged");
    assert_eq!(aborted_at, 1.3);
}
