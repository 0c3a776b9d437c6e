//! Property-based integration tests: random fleets, workloads and
//! policies through the full simulation pipeline, checking the
//! invariants no run may violate. (Debug test builds additionally
//! audit cluster-state consistency at every metrics sample inside the
//! engine.)

use ecocloud::prelude::*;
use ecocloud::traces::arrivals::ArrivalProcess;
use ecocloud_rng::{Rng, SeedableRng, StdRng};

/// Builds a scenario from fuzzed dimensions.
fn scenario(n_servers: usize, n_vms: usize, hours: u64, seed: u64, migrations: bool) -> Scenario {
    let mut s = Scenario::closed_system(
        Fleet::thirds(n_servers),
        TraceConfig {
            n_vms,
            duration_secs: hours * 3600,
            ..TraceConfig::small(seed)
        },
    );
    s.config.migrations_enabled = migrations;
    s.config.record_server_utilization = false;
    s
}

fn check_universal_invariants(scenario: &Scenario, res: &SimResult) {
    // VM conservation: everything spawned is either alive or dropped
    // (this workload has no departures).
    assert_eq!(
        res.final_alive_vms as u64 + res.summary.dropped_vms,
        scenario.workload.spawns.len() as u64,
        "VM conservation violated"
    );
    // Energy is bounded by the whole fleet at peak power for the whole
    // run, and is non-negative.
    let upper = scenario.fleet.total_peak_power_w() * scenario.config.duration_secs / 3.6e6;
    assert!(res.summary.energy_kwh >= 0.0);
    assert!(
        res.summary.energy_kwh <= upper + 1e-9,
        "energy {} exceeds physical bound {upper}",
        res.summary.energy_kwh
    );
    // Migration conservation: every started migration completed, was
    // aborted (departure mid-flight or fault rollback), or was still
    // in flight when the run ended.
    assert_eq!(
        res.summary.migrations_started,
        res.summary.migrations_completed
            + res.summary.migrations_aborted
            + res.final_inflight_migrations as u64,
        "migration conservation violated"
    );
    // Powered servers stay within the fleet.
    assert!(res.final_powered <= scenario.fleet.len());
    // Violation statistics are probabilities.
    assert!((0.0..=1.0).contains(&res.summary.violations_under_30s));
    assert!((0.0..=1.0 + 1e-9).contains(&res.summary.mean_granted_during_violation));
    // Sampled series all share the metrics clock.
    let n = res.stats.overall_load.len();
    assert_eq!(res.stats.active_servers.len(), n);
    assert_eq!(res.stats.power_w.len(), n);
    assert_eq!(res.stats.overdemand_pct.len(), n);
}

#[test]
fn prop_ecocloud_runs_preserve_invariants() {
    let mut rng = StdRng::seed_from_u64(26);
    for _ in 0..12 {
        // Each case is a full simulation.
        let n_servers = rng.gen_range(3usize..25);
        let n_vms = rng.gen_range(10usize..250);
        let hours = rng.gen_range(1u64..5);
        let seed = rng.gen_range(0u64..1000);
        let migrations = rng.gen_bool(0.5);
        let s = scenario(n_servers, n_vms, hours, seed, migrations);
        let res = s.run(EcoCloudPolicy::paper(seed));
        check_universal_invariants(&s, &res);
        if !migrations {
            assert_eq!(res.summary.migrations_started, 0);
        }
    }
}

#[test]
fn prop_churn_with_migrations_preserves_invariants() {
    let mut rng = StdRng::seed_from_u64(27);
    for _ in 0..12 {
        // Each case is a full simulation.
        let n_servers = rng.gen_range(3usize..20);
        let initial = rng.gen_range(5usize..80);
        let lifetime_mins = rng.gen_range(10u64..120);
        let seed = rng.gen_range(0u64..1000);
        // Arrivals, departures and migrations interleave freely here —
        // including VMs departing mid-flight, the hairiest path in the
        // engine's reservation accounting (audited by the debug-build
        // cluster invariant checks at every metrics sample).
        let traces = TraceSet::generate(TraceConfig {
            n_vms: 150,
            duration_secs: 3 * 3600,
            ..TraceConfig::small(seed)
        });
        let lifetime = (lifetime_mins * 60) as f64;
        let process = ArrivalProcess {
            base_rate_per_sec: initial as f64 / lifetime,
            envelope: DiurnalEnvelope::flat(),
            mean_lifetime_secs: lifetime,
        };
        let mut config = SimConfig::paper_48h(seed);
        config.duration_secs = 3.0 * 3600.0;
        config.record_server_utilization = false;
        config.record_events = true;
        let workload = Workload::churn(traces, initial, &process, config.duration_secs, seed);
        let total_spawned = workload.spawns.len() as u64;
        let scenario = Scenario {
            fleet: Fleet::thirds(n_servers),
            workload,
            config,
        };
        let res = scenario.run(EcoCloudPolicy::paper(seed));
        // Conservation with departures: alive + departed + dropped = spawned.
        use ecocloud::dcsim::SimEvent as E;
        let departed = res
            .events
            .count_matching(|e| matches!(e, E::VmDeparted { .. })) as u64;
        assert_eq!(
            res.final_alive_vms as u64 + departed + res.summary.dropped_vms,
            total_spawned
        );
        // Migrations cancelled by departures are aborts; together with
        // flights still open at the end they account exactly for the
        // start/complete gap.
        assert_eq!(
            res.summary.migrations_started,
            res.summary.migrations_completed
                + res.summary.migrations_aborted
                + res.final_inflight_migrations as u64
        );
        let aborted_in_log =
            res.events
                .count_matching(|e| matches!(e, E::MigrationAborted { .. })) as u64;
        assert_eq!(aborted_in_log, res.summary.migrations_aborted);
        assert!(res.summary.energy_kwh >= 0.0);
    }
}

#[test]
fn prop_baseline_runs_preserve_invariants() {
    let mut rng = StdRng::seed_from_u64(28);
    for _ in 0..12 {
        // Each case is a full simulation.
        let n_servers = rng.gen_range(3usize..20);
        let n_vms = rng.gen_range(10usize..150);
        let seed = rng.gen_range(0u64..1000);
        let which = rng.gen_range(0u8..3);
        let s = scenario(n_servers, n_vms, 2, seed, true);
        let res = match which {
            0 => s.run(BestFitPolicy::paper()),
            1 => s.run(FirstFitPolicy::paper()),
            _ => s.run(RandomPolicy::new(0.9, seed)),
        };
        check_universal_invariants(&s, &res);
    }
}

#[test]
fn prop_control_plane_preserves_conservation_laws() {
    let mut rng = StdRng::seed_from_u64(29);
    for case in 0..16 {
        // Each case is a full simulation.
        let n_servers = rng.gen_range(3usize..20);
        let n_vms = rng.gen_range(10usize..150);
        let seed = rng.gen_range(0u64..1000);
        let mut loss_pct = rng.gen_range(0u32..30);
        let latency_ms = rng.gen_range(0u64..400);
        let mut timeout_ms = rng.gen_range(100u64..1500);
        // The last four models are certain: no loss, and two of the
        // largest latencies fit the window, so the engine settles
        // every round in closed form instead of message by message.
        let certain = case >= 12;
        if certain {
            loss_pct = 0;
            timeout_ms = timeout_ms.max(2 * latency_ms);
        }
        // Random message models — including latency distributions
        // whose round trips routinely exceed the collection window —
        // may degrade placement but never break accounting.
        let mut s = scenario(n_servers, n_vms, 2, seed, true);
        s.config.control_plane = ControlPlaneConfig {
            enabled: true,
            latency_min_secs: 0.0,
            latency_max_secs: latency_ms as f64 / 1000.0,
            loss_prob: loss_pct as f64 / 100.0,
            accept_timeout_secs: timeout_ms as f64 / 1000.0,
            broadcast_limit: 2,
            rebroadcast_backoff_secs: 1.0,
            rebroadcast_backoff_cap_secs: 8.0,
            seed,
        };
        s.config.control_plane.validate().expect("valid model");
        let res = s.run(EcoCloudPolicy::paper(seed));
        check_universal_invariants(&s, &res);
        let sum = &res.summary;
        // Message conservation: every invitation sent is accounted
        // for as accepted, declined, lost, or timed out.
        assert_eq!(
            sum.invitations_sent,
            sum.invite_accepts + sum.invite_declines + sum.invite_losses + sum.invite_timeouts
        );
        // Exchange conservation: every exchange started was resolved
        // (committed, abandoned, or crash/departure-aborted) by the
        // end of the run — nothing leaks.
        assert_eq!(
            sum.exchanges_started,
            sum.exchanges_committed + sum.exchanges_abandoned + sum.exchanges_aborted
        );
        assert!(sum.exchanges_started > 0);
        if certain {
            assert_eq!(sum.invite_losses, 0);
            assert_eq!(sum.invite_timeouts, 0);
        }
    }
}

#[test]
fn prop_same_seed_same_outcome() {
    let mut rng = StdRng::seed_from_u64(30);
    for _ in 0..12 {
        // Each case is a full simulation.
        let n_servers = rng.gen_range(3usize..15);
        let n_vms = rng.gen_range(10usize..120);
        let seed = rng.gen_range(0u64..1000);
        let run = || {
            let s = scenario(n_servers, n_vms, 2, seed, true);
            s.run(EcoCloudPolicy::paper(seed))
        };
        let a = run();
        let b = run();
        assert_eq!(a.summary.energy_kwh, b.summary.energy_kwh);
        assert_eq!(a.final_powered, b.final_powered);
        assert_eq!(a.summary.migrations_started, b.summary.migrations_started);
    }
}
