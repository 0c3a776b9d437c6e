//! Shared fixtures for the throughput measurements: the
//! `event_loop_snapshot` binary (committed as `BENCH_event_loop.json`)
//! and the `perfbench` workloads run the scenarios defined here.

use ecocloud::prelude::*;

/// A deterministic scenario of the given size for throughput benches.
pub fn bench_scenario(n_servers: usize, n_vms: usize, hours: u64, seed: u64) -> Scenario {
    let mut s = Scenario::closed_system(
        Fleet::thirds(n_servers),
        TraceConfig {
            n_vms,
            duration_secs: hours * 3600,
            ..TraceConfig::small(seed)
        },
    );
    s.config.record_server_utilization = false;
    s
}

/// The fleet ladder of the large-fleet measurements: every rung runs
/// [`large_fleet_scenario`] (2 VMs per server, 48 h). The
/// `event_loop_snapshot` engine grid covers the rungs from 5 000 up,
/// and perfbench's `fleet_large` workload runs the 5 000-server rung.
pub const LARGE_FLEET_LADDER: [usize; 5] = [1_000, 5_000, 20_000, 50_000, 100_000];

/// The large-fleet stress scenario: `n_servers` paper-mix machines
/// hosting `2 × n_servers` VMs for 48 simulated hours — an order of
/// magnitude past the paper's 400-server evaluation, where full-fleet
/// scans dominated the event loop before the incremental accounting.
pub fn large_fleet_scenario(n_servers: usize, seed: u64) -> Scenario {
    bench_scenario(n_servers, 2 * n_servers, 48, seed)
}
