//! Regenerates `BENCH_event_loop.json` — the committed event-loop
//! performance snapshot (ROADMAP item 1).
//!
//! It records full fixed-seed simulations on a servers × hours grid
//! (`engine_runs`: events processed, wall seconds, events/sec, peak
//! RSS). Each point runs in a child process so peak RSS is per-run,
//! not the max over the whole grid.
//!
//! Usage:
//!
//! ```text
//! event_loop_snapshot                 # full grid → BENCH_event_loop.json
//! event_loop_snapshot --quick         # the 5k × 48 h point only, stdout
//! event_loop_snapshot --check FILE    # re-run the 5k × 48 h point, fail
//!                                     # unless its event count equals FILE's
//! event_loop_snapshot --engine N VMS HOURS SEED   # child
//! ```

use ecocloud::prelude::EcoCloudPolicy;
use ecocloud_bench::bench_scenario;
use std::fmt::Write as _;
use std::time::Instant;

/// The committed `engine_runs` row whose exact event count `--check`
/// reproduces: (servers, VMs, hours), seed 42.
const EXACT_ROW: (u64, u64, u64) = (5_000, 10_000, 48);

struct EnginePoint {
    servers: u64,
    vms: u64,
    hours: u64,
    events: u64,
    wall_secs: f64,
    eps: f64,
    peak_rss_mb: f64,
}

/// Peak resident set of this process, MB (`VmHWM` from
/// `/proc/self/status`); 0.0 when unavailable (non-Linux).
fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: f64 = rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .unwrap_or(0.0);
            return kb / 1024.0;
        }
    }
    0.0
}

/// Child mode: run one engine point and print its metrics as a single
/// `key=value` line on stdout.
fn run_engine_child(servers: u64, vms: u64, hours: u64, seed: u64) {
    let scenario = bench_scenario(servers as usize, vms as usize, hours, seed);
    #[allow(clippy::disallowed_methods)] // bench harness: times host work, not simulated time
    let start = Instant::now();
    let result = scenario.run(EcoCloudPolicy::paper(seed));
    let wall = start.elapsed().as_secs_f64();
    println!(
        "events={} wall_secs={:.3} peak_rss_mb={:.1} energy_kwh={:.6}",
        result.summary.events_processed,
        wall,
        peak_rss_mb(),
        result.summary.energy_kwh,
    );
}

/// Runs one engine point in a child process (for per-run RSS) and
/// parses its metrics line.
fn run_engine_point(servers: u64, vms: u64, hours: u64) -> EnginePoint {
    let exe = std::env::current_exe().expect("current_exe");
    let out = std::process::Command::new(exe)
        .args([
            "--engine",
            &servers.to_string(),
            &vms.to_string(),
            &hours.to_string(),
            "42",
        ])
        .output()
        .expect("spawn engine child");
    assert!(
        out.status.success(),
        "engine child failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).expect("child stdout utf8");
    let field = |k: &str| -> f64 {
        text.split_whitespace()
            .find_map(|kv| kv.strip_prefix(&format!("{k}=")))
            .unwrap_or_else(|| panic!("missing {k} in child output: {text}"))
            .parse()
            .expect("numeric field")
    };
    let events = field("events") as u64;
    let wall = field("wall_secs");
    EnginePoint {
        servers,
        vms,
        hours,
        events,
        wall_secs: wall,
        eps: events as f64 / wall,
        peak_rss_mb: field("peak_rss_mb"),
    }
}

fn render_json(engine: &[EnginePoint]) -> String {
    let mut s = String::new();
    s.push_str("{\n  \"schema\": 2,\n  \"engine_runs\": [\n");
    for (i, p) in engine.iter().enumerate() {
        let _ = writeln!(
            s,
            "    {{\"servers\": {}, \"vms\": {}, \"hours\": {}, \
             \"events_processed\": {}, \"wall_secs\": {:.1}, \
             \"events_per_sec\": {:.0}, \"peak_rss_mb\": {:.0}}}{}",
            p.servers,
            p.vms,
            p.hours,
            p.events,
            p.wall_secs,
            p.eps,
            p.peak_rss_mb,
            if i + 1 < engine.len() { "," } else { "" },
        );
    }
    s.push_str("  ]\n}\n");
    s
}

/// Extracts every value of `key` from the flat snapshot JSON by string
/// scan (the workspace has no JSON parser; the format above is
/// committed and flat).
fn extract_values(json: &str, key: &str) -> Vec<f64> {
    let needle = format!("\"{key}\": ");
    json.match_indices(&needle)
        .map(|(at, _)| {
            json[at + needle.len()..]
                .split([',', '}'])
                .next()
                .and_then(|v| v.trim().parse().ok())
                .unwrap_or_else(|| panic!("unparsable value for {key}"))
        })
        .collect()
}

/// `--check`: the fixed-seed run behind the committed [`EXACT_ROW`]
/// `engine_runs` row must process exactly the event count that row
/// records, or the process exits 1. The count is a pure function of
/// the scenario, so any difference is a change in engine behaviour,
/// not timing noise.
fn check(path: &str) {
    let committed = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read snapshot {path}: {e}"));
    let (servers, vms, hours) = EXACT_ROW;
    let Some(expected) = engine_row_events(&committed, EXACT_ROW) else {
        eprintln!("{path} has no {servers}-server x {hours} h engine_runs row");
        std::process::exit(1);
    };
    let measured = run_engine_point(servers, vms, hours).events;
    let ok = measured == expected;
    println!(
        "engine {servers} servers x {hours} h: committed events_processed \
         {expected}, measured {measured} {}",
        if ok { "ok" } else { "MISMATCH" }
    );
    if !ok {
        std::process::exit(1);
    }
}

/// `events_processed` of the first `engine_runs` row with the given
/// shape.
fn engine_row_events(json: &str, (servers, vms, hours): (u64, u64, u64)) -> Option<u64> {
    let is = |row: &str, key: &str, want: u64| extract_values(row, key) == [want as f64];
    let row = json.lines().find(|row| {
        is(row, "servers", servers) && is(row, "vms", vms) && is(row, "hours", hours)
    })?;
    extract_values(row, "events_processed")
        .first()
        .map(|&e| e as u64)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    match args.get(1).map(String::as_str) {
        Some("--engine") => {
            let n = |i: usize| args[i].parse::<u64>().expect("numeric arg");
            run_engine_child(n(2), n(3), n(4), n(5));
        }
        Some("--check") => check(args.get(2).map_or("BENCH_event_loop.json", String::as_str)),
        Some("--quick") => {
            let (servers, vms, hours) = EXACT_ROW;
            print!("{}", render_json(&[run_engine_point(servers, vms, hours)]));
        }
        None => {
            // The engine grid walks the shared large-fleet ladder
            // (2-VMs-per-server 48 h scenarios), skipping the
            // 1 000-server smoke rung.
            let mut engine = Vec::new();
            for &servers in ecocloud_bench::LARGE_FLEET_LADDER[1..].iter() {
                let servers = servers as u64;
                eprintln!("engine: {servers} servers x 48 h ...");
                engine.push(run_engine_point(servers, 2 * servers, 48));
            }
            let json = render_json(&engine);
            std::fs::write("BENCH_event_loop.json", &json).expect("write snapshot");
            print!("{json}");
            eprintln!("wrote BENCH_event_loop.json");
        }
        Some(other) => {
            eprintln!("unknown mode {other}; see module docs");
            std::process::exit(2);
        }
    }
}
