//! Implementing your own placement policy against the `dcsim` policy
//! interface — here, a "power-aware worst fit" that spreads VMs over
//! the most efficient servers, compared against ecoCloud on the same
//! workload.
//!
//! ```sh
//! cargo run --release --example custom_policy
//! ```

use ecocloud::dcsim::{ClusterView, ServerId};
use ecocloud::prelude::*;

/// Worst Fit over watts-per-MHz: place each VM on the feasible server
/// with the most remaining usable capacity, preferring servers with
/// the best peak-power efficiency. Never migrates.
struct EfficientWorstFit {
    ta: f64,
}

impl Policy for EfficientWorstFit {
    fn name(&self) -> &'static str {
        "efficient-worst-fit"
    }

    fn place(&mut self, view: &ClusterView<'_>, req: &PlacementRequest) -> PlaceOutcome {
        let mut best: Option<(ServerId, f64)> = None;
        for (sid, s) in view.powered() {
            if Some(sid) == req.exclude {
                continue;
            }
            let cap = s.capacity_mhz();
            let after = s.used_mhz() + s.reserved_mhz() + req.demand_mhz;
            if after > self.ta * cap {
                continue;
            }
            // Rank by residual capacity scaled by efficiency (MHz per
            // peak watt): big residual on an efficient machine wins.
            let residual = self.ta * cap - after;
            let efficiency = cap / s.spec.power.max_w;
            let key = residual * efficiency;
            if best.is_none_or(|(_, k)| key > k) {
                best = Some((sid, key));
            }
        }
        if let Some((sid, _)) = best {
            return PlaceOutcome::Place(sid);
        }
        if req.kind == PlacementKind::MigrationLow {
            return PlaceOutcome::Reject;
        }
        // Wake the most efficient hibernated server that fits.
        view.hibernated()
            .filter(|(_, s)| req.demand_mhz <= self.ta * s.capacity_mhz())
            .max_by(|a, b| {
                let ea = a.1.capacity_mhz() / a.1.spec.power.max_w;
                let eb = b.1.capacity_mhz() / b.1.spec.power.max_w;
                ea.total_cmp(&eb)
            })
            .map(|(sid, _)| PlaceOutcome::WakeThenPlace(sid))
            .unwrap_or(PlaceOutcome::Reject)
    }
}

fn main() {
    let seed = 42;
    // A full day so the day/night cycle exposes the difference between
    // a policy that can re-consolidate and one that cannot.
    let scenario = Scenario::closed_system(
        Fleet::thirds(40),
        TraceConfig {
            n_vms: 600,
            duration_secs: 24 * 3600,
            ..TraceConfig::paper_48h(seed)
        },
    );

    let eco = scenario.run(EcoCloudPolicy::paper(seed));
    let custom = scenario.run(EfficientWorstFit { ta: 0.9 });

    println!("== custom policy vs ecoCloud, identical workload ==\n");
    for r in [&eco, &custom] {
        println!(
            "{:<22} mean servers {:>5.1}   energy {:>7.2} kWh   migrations {:>5}   worst overdemand {:>6.3} %",
            r.policy_name,
            r.summary.mean_active_servers,
            r.summary.energy_kwh,
            r.summary.total_low_migrations + r.summary.total_high_migrations,
            r.summary.max_overdemand_pct,
        );
    }
    println!("\nThe custom policy looks cheaper on paper — but with no migrations it has");
    println!("no way to add capacity when the daytime ramp hits (in this workload all");
    println!("VMs exist from midnight, so wake-ups can only be triggered by migration");
    println!("requests): its placement is frozen and the over-demand column shows the");
    println!("QoS price. Implement `Policy` (place / monitor / on_server_woken) to try");
    println!("your own rules against the same harness.");
}
