//! The §III sensitivity study (the paper describes it but omits the
//! numbers "for the sake of brevity"): sweep the migration thresholds
//! and shapes plus the assignment exponent, and report consolidation,
//! migration and QoS metrics for each point.
//!
//! The sweep runs on a reduced scenario (100 servers, 1,500 VMs, 24 h)
//! so the full grid finishes in minutes.

use ecocloud::core::{AssignmentFunction, EcoCloudConfig, EcoCloudPolicy, MigrationFunctions};
use ecocloud::metrics::table::fmt_num;
use ecocloud::metrics::Table;
use ecocloud_experiments::{emit, reduced_scenario, seed};

#[derive(Debug, Clone, Copy)]
struct Point {
    p: f64,
    tl: f64,
    th: f64,
    alpha: f64,
    beta: f64,
}

fn main() {
    let seed = seed();
    let mut points = Vec::new();
    for p in [2.0, 3.0, 5.0] {
        points.push(Point {
            p,
            tl: 0.5,
            th: 0.95,
            alpha: 0.25,
            beta: 0.25,
        });
    }
    for tl in [0.3, 0.4, 0.5, 0.6] {
        points.push(Point {
            p: 3.0,
            tl,
            th: 0.95,
            alpha: 0.25,
            beta: 0.25,
        });
    }
    for th in [0.92, 0.95, 0.98] {
        points.push(Point {
            p: 3.0,
            tl: 0.5,
            th,
            alpha: 0.25,
            beta: 0.25,
        });
    }
    for ab in [0.1, 0.25, 0.5, 1.0] {
        points.push(Point {
            p: 3.0,
            tl: 0.5,
            th: 0.95,
            alpha: ab,
            beta: ab,
        });
    }

    eprintln!("[sensitivity] {} grid points", points.len());
    let rows: Vec<(Point, _)> = points
        .iter()
        .map(|&pt| {
            let scenario = reduced_scenario(seed);
            let cfg = EcoCloudConfig {
                assignment: AssignmentFunction::new(0.9, pt.p),
                migration: MigrationFunctions::new(pt.tl, pt.th, pt.alpha, pt.beta),
                ..EcoCloudConfig::paper(seed)
            };
            let mut res = scenario.run(EcoCloudPolicy::new(cfg));
            let viol30 = res.stats.violations_shorter_than(30.0);
            (pt, (res.summary, viol30))
        })
        .collect();

    let mut t = Table::new([
        "p",
        "Tl",
        "Th",
        "a=b",
        "servers",
        "kWh",
        "low-mig",
        "high-mig",
        "switches",
        "overdemand%",
        "viol<30s%",
    ]);
    for (pt, (s, viol30)) in &rows {
        t.push_row([
            fmt_num(pt.p, 0),
            fmt_num(pt.tl, 2),
            fmt_num(pt.th, 2),
            fmt_num(pt.alpha, 2),
            fmt_num(s.mean_active_servers, 1),
            fmt_num(s.energy_kwh, 1),
            format!("{}", s.total_low_migrations),
            format!("{}", s.total_high_migrations),
            format!("{}", s.total_activations + s.total_hibernations),
            fmt_num(s.max_overdemand_pct, 3),
            fmt_num(100.0 * viol30, 1),
        ]);
    }
    println!("# Sensitivity sweep (reduced scenario; seed {seed})\n");
    println!("{}", t.render());
    println!("Paper's qualitative findings to check in the table above:");
    println!("  * larger p -> stronger consolidation (fewer servers), more overload risk;");
    println!("  * larger Tl -> servers drained earlier (more low migrations);");
    println!("  * Th must stay above Ta = 0.9 or utilization cannot reach Ta;");
    println!("  * smaller alpha/beta -> more eager migrations.");
    emit("sensitivity_sweep.csv", &t.to_csv());
}
