//! Ablation of ecoCloud's design choices (the refinements §II/§IV
//! describe on top of the bare Bernoulli trials):
//!
//! * the 30-minute newcomer grace period,
//! * the anti-ping-pong lowered threshold for high migrations,
//! * waking a server for a high migration,
//! * the invitation retry round,
//! * the low-migration trial backoff.
//!
//! Each variant runs on the same reduced scenario; the table shows
//! what each mechanism buys.

use ecocloud::core::{EcoCloudConfig, EcoCloudPolicy};
use ecocloud::metrics::table::fmt_num;
use ecocloud::metrics::Table;
use ecocloud_experiments::{emit, reduced_scenario, seed};

/// A named configuration tweak.
type Variant = (
    &'static str,
    Box<dyn Fn(EcoCloudConfig) -> EcoCloudConfig + Sync + Send>,
);

fn main() {
    let seed = seed();
    let variants: Vec<Variant> = vec![
        ("full ecoCloud", Box::new(|c| c)),
        (
            "no grace period",
            Box::new(|mut c: EcoCloudConfig| {
                c.grace_secs = 0.0;
                c
            }),
        ),
        (
            "no anti-ping-pong",
            Box::new(|mut c: EcoCloudConfig| {
                c.high_migration_ta_factor = 1.0;
                c
            }),
        ),
        (
            "no wake on high migration",
            Box::new(|mut c: EcoCloudConfig| {
                c.wake_on_high_migration = false;
                c
            }),
        ),
        (
            "single invitation round",
            Box::new(|mut c: EcoCloudConfig| {
                c.assignment_rounds = 1;
                c
            }),
        ),
        (
            "no low-migration backoff",
            Box::new(|mut c: EcoCloudConfig| {
                c.low_migration_backoff_secs = 0.0;
                c
            }),
        ),
    ];

    let rows: Vec<_> = variants
        .iter()
        .map(|(name, tweak)| {
            let scenario = reduced_scenario(seed);
            let cfg = tweak(EcoCloudConfig::paper(seed));
            let mut res = scenario.run(EcoCloudPolicy::new(cfg));
            let viol30 = res.stats.violations_shorter_than(30.0);
            (*name, res.summary, viol30)
        })
        .collect();

    let mut t = Table::new([
        "variant",
        "servers",
        "kWh",
        "migrations",
        "switches",
        "overdemand%",
        "viol<30s%",
        "dropped",
    ]);
    for (name, s, viol30) in &rows {
        t.push_row([
            name.to_string(),
            fmt_num(s.mean_active_servers, 1),
            fmt_num(s.energy_kwh, 1),
            format!("{}", s.total_low_migrations + s.total_high_migrations),
            format!("{}", s.total_activations + s.total_hibernations),
            fmt_num(s.max_overdemand_pct, 3),
            fmt_num(100.0 * viol30, 1),
            format!("{}", s.dropped_vms),
        ]);
    }
    println!("# Design ablation (reduced scenario; seed {seed})\n");
    println!("{}", t.render());
    emit("ablation.csv", &t.to_csv());
}
