//! End-to-end integration tests: miniature versions of the paper's
//! experiment pipelines, with fixed seeds and asserted qualitative
//! shapes.

use ecocloud::analytic::{FluidConfig, FluidModel, ShareModel};
use ecocloud::prelude::*;
use ecocloud::traces::arrivals::{ArrivalProcess, RateEstimate};

/// A 30-server / 450-VM / 12-hour scenario — small enough for CI,
/// large enough to show consolidation and the diurnal response.
fn mini_48h(seed: u64) -> Scenario {
    Scenario::closed_system(
        Fleet::thirds(30),
        TraceConfig {
            n_vms: 450,
            duration_secs: 12 * 3600,
            ..TraceConfig::paper_48h(seed)
        },
    )
}

#[test]
fn ecocloud_consolidates_and_saves_energy() {
    let scenario = mini_48h(1);
    let res = scenario.run(EcoCloudPolicy::paper(1));
    assert_eq!(res.summary.dropped_vms, 0);
    assert!(
        res.final_powered < scenario.fleet.len(),
        "no hibernation at all"
    );
    // Energy must beat the idle floor of an always-on fleet.
    let always_on_kwh: f64 = scenario
        .fleet
        .specs
        .iter()
        .map(|s| s.power.idle_w)
        .sum::<f64>()
        * scenario.config.duration_secs
        / 3.6e6;
    assert!(
        res.summary.energy_kwh < always_on_kwh,
        "ecoCloud ({:.1} kWh) worse than an always-on fleet ({always_on_kwh:.1} kWh)",
        res.summary.energy_kwh
    );
}

#[test]
fn active_servers_track_overall_load() {
    let res = mini_48h(2).run(EcoCloudPolicy::paper(2));
    // Fig. 7's claim: the number of active servers is nearly
    // proportional to the overall load. Check the correlation over the
    // sampled series.
    let load = res.stats.overall_load.values();
    let active = res.stats.active_servers.values();
    let n = load.len() as f64;
    let (ml, ma) = (load.iter().sum::<f64>() / n, active.iter().sum::<f64>() / n);
    let cov: f64 = load
        .iter()
        .zip(active)
        .map(|(l, a)| (l - ml) * (a - ma))
        .sum::<f64>();
    let vl: f64 = load.iter().map(|l| (l - ml).powi(2)).sum::<f64>();
    let va: f64 = active.iter().map(|a| (a - ma).powi(2)).sum::<f64>();
    let corr = cov / (vl.sqrt() * va.sqrt());
    assert!(
        corr > 0.8,
        "active servers decorrelated from load (r = {corr:.2})"
    );
}

#[test]
fn overload_is_rare_and_short() {
    let mut res = mini_48h(3).run(EcoCloudPolicy::paper(3));
    // The shape of the paper's Fig. 11 / §III claims, with slack for
    // the synthetic traces: over-demand stays well under 1 % of
    // VM-time and most violations clear quickly.
    assert!(
        res.summary.max_overdemand_pct < 1.0,
        "over-demand {} %",
        res.summary.max_overdemand_pct
    );
    if res.summary.n_violations > 20 {
        let short = res.stats.violations_shorter_than(60.0);
        assert!(short > 0.8, "only {short} of violations under a minute");
        assert!(res.summary.mean_granted_during_violation > 0.85);
    }
}

#[test]
fn ecocloud_migrates_an_order_less_than_best_fit() {
    let scenario = mini_48h(4);
    let eco = scenario.run(EcoCloudPolicy::paper(4));
    let bfd = scenario.run(BestFitPolicy::paper());
    let eco_migs = eco.summary.total_low_migrations + eco.summary.total_high_migrations;
    let bfd_migs = bfd.summary.total_low_migrations + bfd.summary.total_high_migrations;
    assert!(
        (eco_migs as f64) < 0.5 * bfd_migs as f64,
        "ecoCloud {eco_migs} migrations vs deterministic best-fit {bfd_migs}"
    );
    // And consolidation is comparable (within 35 % of BFD's server
    // count in either direction).
    let ratio = eco.summary.mean_active_servers / bfd.summary.mean_active_servers;
    assert!(
        (0.65..=1.35).contains(&ratio),
        "consolidation ratio {ratio:.2} vs best-fit"
    );
}

#[test]
fn full_pipeline_is_deterministic() {
    let a = mini_48h(5).run(EcoCloudPolicy::paper(5));
    let b = mini_48h(5).run(EcoCloudPolicy::paper(5));
    assert_eq!(a.summary.energy_kwh, b.summary.energy_kwh);
    assert_eq!(
        a.summary.total_low_migrations,
        b.summary.total_low_migrations
    );
    assert_eq!(
        a.stats.active_servers.values(),
        b.stats.active_servers.values()
    );
    assert_eq!(a.final_powered, b.final_powered);
}

#[test]
fn assignment_only_consolidates_through_churn() {
    // Miniature Fig. 12: spread start, migrations inhibited, churn
    // drains the under-used servers.
    let seed = 6;
    let traces = TraceSet::generate(TraceConfig {
        n_vms: 1000,
        duration_secs: 10 * 3600,
        ..TraceConfig::paper_48h(seed)
    });
    let process = ArrivalProcess {
        base_rate_per_sec: 300.0 / (3600.0 * 1.5),
        envelope: DiurnalEnvelope::flat(),
        mean_lifetime_secs: 1.5 * 3600.0,
    };
    let mut config = SimConfig::paper_fig12(seed);
    config.duration_secs = 10.0 * 3600.0;
    let workload = Workload::churn(traces, 300, &process, config.duration_secs, seed);
    let scenario = Scenario {
        fleet: Fleet::uniform(25, 6),
        workload,
        config,
    };
    let res = scenario.run(EcoCloudPolicy::paper(seed));
    assert_eq!(
        res.summary.total_low_migrations, 0,
        "migrations were inhibited"
    );
    assert_eq!(res.summary.total_high_migrations, 0);
    let start = res.stats.active_servers.values()[0];
    let min = res.stats.active_servers.min();
    assert_eq!(start, 25.0, "spread start must power everything");
    assert!(
        min < 0.75 * start,
        "assignment-only churn failed to consolidate ({min} of {start})"
    );
}

#[test]
fn fluid_model_tracks_simulation_scale() {
    // Sim and ODE on the same miniature assignment-only system: final
    // active counts within a factor of two (the paper's gap is ~5 %;
    // the miniature is noisier).
    let seed = 7;
    let n_servers = 25;
    let traces = TraceSet::generate(TraceConfig {
        n_vms: 800,
        duration_secs: 8 * 3600,
        ..TraceConfig::paper_48h(seed)
    });
    let process = ArrivalProcess {
        base_rate_per_sec: 300.0 / (2.0 * 3600.0),
        envelope: DiurnalEnvelope::flat(),
        mean_lifetime_secs: 2.0 * 3600.0,
    };
    let mut config = SimConfig::paper_fig12(seed);
    config.duration_secs = 8.0 * 3600.0;
    let duration = config.duration_secs;
    let workload = Workload::churn(traces, 300, &process, duration, seed);
    let scenario = Scenario {
        fleet: Fleet::uniform(n_servers, 6),
        workload,
        config,
    };

    // ODE fed from the same workload.
    let events = scenario.workload.arrival_departure_events();
    let est = RateEstimate::from_events(&events, 300, duration, 1800.0);
    let w_bar = scenario.workload.mean_vm_load_frac();
    let mut u0 = vec![0.0f64; n_servers];
    for (i, s) in scenario
        .workload
        .spawns
        .iter()
        .enumerate()
        .filter(|(_, s)| s.arrive_secs == 0.0)
    {
        u0[i % n_servers] += scenario.workload.traces.vms[s.trace_idx].demand_frac_at(0.0, 300);
    }
    let envelope = scenario.workload.traces.config.envelope.clone();
    let est2 = est.clone();
    let fm = FluidModel::new(
        FluidConfig::paper(ShareModel::Simplified, w_bar),
        move |t| est.lambda_at(t),
        move |t| est2.mu_at(t),
    )
    .with_demand_envelope(move |t| envelope.at(t));
    let sol = fm.solve(&u0, duration);

    let sim = scenario.run(EcoCloudPolicy::paper(seed));
    let sim_final = *sim.stats.active_servers.values().last().expect("samples");
    let ode_final = sol.final_active() as f64;
    assert!(
        ode_final <= 2.0 * sim_final && sim_final <= 2.0 * ode_final.max(1.0),
        "sim {sim_final} vs ODE {ode_final} diverge beyond 2x"
    );
}

#[test]
fn ram_constraint_caps_memory_commitment() {
    use ecocloud::core::{EcoCloudConfig, EcoCloudPolicy};
    let seed = 9;
    let build = |ram_aware: bool| {
        let mut scenario = Scenario::closed_system(
            Fleet::thirds(60),
            TraceConfig {
                n_vms: 400,
                duration_secs: 6 * 3600,
                ..TraceConfig::paper_48h(seed)
            },
        );
        scenario
            .workload
            .assign_ram_demands(1024.0, 0.8, 8192.0, seed);
        scenario.config.record_server_utilization = false;
        let mut cfg = EcoCloudConfig::paper(seed);
        cfg.ram_aware = ram_aware;
        scenario.run(EcoCloudPolicy::new(cfg))
    };
    let aware = build(true);
    let blind = build(false);
    assert!(
        aware.summary.max_ram_utilization <= 0.9 + 1e-9,
        "RAM-aware run overcommitted: {}",
        aware.summary.max_ram_utilization
    );
    assert!(
        blind.summary.max_ram_utilization > 1.0,
        "RAM-heavy workload failed to overcommit the blind run ({})",
        blind.summary.max_ram_utilization
    );
    // Memory feasibility costs servers.
    assert!(aware.summary.mean_active_servers > blind.summary.mean_active_servers);
}

#[test]
fn rejects_when_whole_fleet_is_saturated() {
    // A fleet far too small for the workload: drops must be reported,
    // not silently discarded, and nothing may crash.
    let seed = 8;
    let scenario = Scenario::closed_system(
        Fleet::uniform(3, 4),
        TraceConfig {
            n_vms: 2000,
            duration_secs: 2 * 3600,
            ..TraceConfig::paper_48h(seed)
        },
    );
    let res = scenario.run(EcoCloudPolicy::paper(seed));
    assert!(
        res.summary.dropped_vms > 0,
        "saturation must surface as dropped VMs"
    );
    assert_eq!(res.final_powered, 3, "everything available must be on");
}

/// The event queue promises that every pop is the `(time, seq)`
/// minimum of the pending set. The queue-level oracle tests check that
/// pop for pop against a plain heap; this test checks it end to end
/// through the pop-order law that every debug-assertion build enforces
/// (each pop strictly after the last, nothing pending before the last
/// pop at finish). It only exists in those builds, so it can never
/// pass without the law running.
#[cfg(debug_assertions)]
#[test]
fn engine_pops_obey_the_pop_order_law() {
    let seed = 42;
    let mut scenario = Scenario::closed_system(
        Fleet::thirds(800),
        TraceConfig {
            n_vms: 1600,
            duration_secs: 3 * 3600,
            ..TraceConfig::paper_48h(seed)
        },
    );
    scenario.config.metrics_interval_secs = 300.0;
    let res = scenario.run(EcoCloudPolicy::paper(seed));
    // Guard against a vacuous pass: the run must have done real work.
    assert!(res.summary.energy_kwh > 1.0, "run produced no energy");
    assert!(
        res.stats.active_servers.values().len() > 10,
        "run produced no samples"
    );
}
