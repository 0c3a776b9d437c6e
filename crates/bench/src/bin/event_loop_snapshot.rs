//! Regenerates `BENCH_event_loop.json` — the committed event-loop
//! performance snapshot (ROADMAP item 1, PR 6).
//!
//! Two layers are measured:
//!
//! * **Queue throughput** (`queue_throughput`): events/sec through
//!   [`EventQueue`] under the simulator's characteristic mix — a large
//!   standing population of far-future departures plus a high rate of
//!   near-term ticks and completions — for the bucketed calendar queue
//!   vs. [`ReferenceHeap`], the plain binary heap it replaced. This is where the
//!   calendar's O(1) wheel pays off: the heap pays `log(pending)`
//!   sift-downs on *every* near-term pop because the departures sit in
//!   the same array, while the calendar keeps them in the overflow
//!   heap it never touches.
//! * **Engine runs** (`engine_runs`): full fixed-seed simulations on a
//!   servers × hours grid (events/sec, wall seconds, peak RSS). Each
//!   point runs in a child process so peak RSS is per-run, not the max
//!   over the whole grid.
//!
//! Usage:
//!
//! ```text
//! event_loop_snapshot                 # full grid → BENCH_event_loop.json
//! event_loop_snapshot --quick         # queue benches + small engine point
//! event_loop_snapshot --check FILE    # re-measure, fail if calendar/heap
//!                                     # speedup drops >20 % vs FILE or the
//!                                     # 5k × 48 h event count differs
//! event_loop_snapshot --queue FLEET [MIX]   # one queue point, stdout only
//! event_loop_snapshot --engine N VMS HOURS SEED   # child
//! ```

use ecocloud::dcsim::events::{Event, EventQueue, ReferenceHeap};
use ecocloud::dcsim::ids::ServerId;
use ecocloud::prelude::EcoCloudPolicy;
use ecocloud_bench::bench_scenario;
use std::fmt::Write as _;
use std::time::Instant;

/// Pops measured per queue-bench point (after warm-up).
const QUEUE_OPS: u64 = 2_000_000;
/// Allowed events/sec regression before `--check` fails.
const REGRESSION_TOLERANCE: f64 = 0.20;
/// The committed `engine_runs` row whose exact event count `--check`
/// reproduces: (servers, VMs, hours), seed 42.
const EXACT_ROW: (u64, u64, u64) = (5_000, 10_000, 48);

/// SplitMix64 — a self-contained deterministic stream for the bench
/// schedule (the bench must not perturb, or depend on, the simulator's
/// seeded RNG).
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform f64 in [0, 1).
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

struct QueuePoint {
    fleet: u64,
    mix: &'static str,
    pending: u64,
    calendar_eps: f64,
    heap_eps: f64,
}

struct EnginePoint {
    servers: u64,
    vms: u64,
    hours: u64,
    events: u64,
    wall_secs: f64,
    eps: f64,
    peak_rss_mb: f64,
}

/// One queue-throughput measurement at fleet size `fleet` under one of
/// two pending-event mixes, `QUEUE_OPS` pop/reschedule pairs each:
///
/// * `"hold"` — the classic hold-model throughput benchmark (Brown,
///   CACM 1988): a population of `2.25 × fleet` events, each popped
///   and rescheduled with an increment drawn uniformly from the
///   engine's near-term event horizon (1–600 s: monitor ticks, demand
///   steps, migration completions, wake latencies). Every pending
///   event churns, so the heap pays a cold `log(pending)` sift on
///   every operation while the calendar's wheel stays O(1). This is
///   the standard priority-queue methodology and the headline number.
/// * `"standing"` — `2 × fleet` far-future departures (uniform over
///   2–48 h) parked as a standing population, with `fleet / 4`
///   near-term chains (1–60 s) doing the churn, as in a snapshot of a
///   real run. The standing events settle into the heap's bottom
///   levels (or the calendar's overflow) and are never touched, so
///   this mix flatters the heap: only the cache-hot top is exercised.
///
/// The calendar reschedules via the engine's `schedule_chain` fast
/// path. Both mixes pick chain counts high enough that the simulated
/// clock advances only milliseconds per pop — as in a real 48 h run —
/// so the population composition is stable across the measured window.
/// Returns popped events per wall second.
fn queue_bench(fleet: u64, mix_name: &str, heap: bool) -> f64 {
    if heap {
        return hold_throughput(ReferenceHeap::default(), fleet, mix_name);
    }
    let (cycling, standing) = population(fleet, mix_name);
    let q = EventQueue::with_capacity((cycling + standing) as usize);
    hold_throughput(q, fleet, mix_name)
}

/// `(cycling, standing)` event counts of a [`queue_bench`] mix.
fn population(fleet: u64, mix_name: &str) -> (u64, u64) {
    match mix_name {
        "hold" => (2 * fleet + fleet / 4, 0),
        "standing" => ((fleet / 4).max(64), 2 * fleet),
        other => panic!("unknown queue mix {other}"),
    }
}

/// What [`queue_bench`] drives: the calendar and its reference heap.
trait HoldQueue {
    fn schedule(&mut self, t_secs: f64, event: Event);
    fn pop(&mut self) -> Option<(f64, Event)>;
    /// Re-adds `event`, just popped at `now`, to fire at `t_secs`.
    fn reschedule(&mut self, _now: f64, t_secs: f64, event: Event) {
        self.schedule(t_secs, event);
    }
}

impl HoldQueue for EventQueue {
    fn schedule(&mut self, t_secs: f64, event: Event) {
        EventQueue::schedule(self, t_secs, event);
    }
    fn pop(&mut self) -> Option<(f64, Event)> {
        EventQueue::pop(self)
    }
    fn reschedule(&mut self, now: f64, t_secs: f64, event: Event) {
        self.advance_to(now);
        self.schedule_chain(t_secs, event);
    }
}

impl HoldQueue for ReferenceHeap {
    fn schedule(&mut self, t_secs: f64, event: Event) {
        ReferenceHeap::schedule(self, t_secs, event);
    }
    fn pop(&mut self) -> Option<(f64, Event)> {
        ReferenceHeap::pop(self)
    }
}

/// [`queue_bench`]'s measurement on one queue.
fn hold_throughput<Q: HoldQueue>(mut q: Q, fleet: u64, mix_name: &str) -> f64 {
    let (cycling, standing) = population(fleet, mix_name);
    let dt = |mix: &mut Mix| match mix_name {
        "hold" => 1.0 + 599.0 * mix.unit(),
        _ => 1.0 + 59.0 * mix.unit(),
    };
    let mut mix = Mix(fleet ^ 0xec0c_10d5);
    for i in 0..standing {
        let t = 7200.0 + 165_600.0 * mix.unit();
        q.schedule(t, Event::Departure(ecocloud::dcsim::ids::VmId(i as u32)));
    }
    for i in 0..cycling {
        q.schedule(dt(&mut mix), Event::MonitorTick(ServerId(i as u32)));
    }
    // Warm-up out of the initial transient, then best-of-three
    // measured windows: the box runs other tenants, and taking the
    // least-disturbed window (for *both* queue variants equally) is
    // the standard way to strip scheduler interference from a
    // throughput number.
    for _ in 0..10_000 {
        let (t, ev) = q.pop().expect("cycling event");
        q.reschedule(t, t + dt(&mut mix), ev);
    }
    let mut best = 0.0f64;
    for _ in 0..3 {
        #[allow(clippy::disallowed_methods)] // bench harness: times host work, not simulated time
        let start = Instant::now();
        for _ in 0..QUEUE_OPS {
            let (t, ev) = q.pop().expect("cycling event");
            q.reschedule(t, t + dt(&mut mix), ev);
        }
        best = best.max(QUEUE_OPS as f64 / start.elapsed().as_secs_f64());
    }
    best
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

fn measure_queue(fleets: &[u64]) -> Vec<QueuePoint> {
    let mut points = Vec::new();
    for &fleet in fleets {
        for mix in ["hold", "standing"] {
            eprintln!("queue bench: fleet {fleet} ({mix}) ...");
            let (cycling, standing) = population(fleet, mix);
            points.push(QueuePoint {
                fleet,
                mix,
                pending: cycling + standing,
                calendar_eps: queue_bench(fleet, mix, false),
                heap_eps: queue_bench(fleet, mix, true),
            });
        }
    }
    points
}

fn render_json(queue: &[QueuePoint], engine: &[EnginePoint]) -> String {
    let mut s = String::new();
    s.push_str("{\n  \"schema\": 1,\n  \"queue_throughput\": [\n");
    for (i, p) in queue.iter().enumerate() {
        let _ = writeln!(
            s,
            "    {{\"servers\": {}, \"mix\": \"{}\", \"pending_events\": {}, \
             \"calendar_events_per_sec\": {:.0}, \"heap_events_per_sec\": {:.0}, \
             \"speedup\": {:.2}}}{}",
            p.fleet,
            p.mix,
            p.pending,
            p.calendar_eps,
            p.heap_eps,
            p.calendar_eps / p.heap_eps,
            if i + 1 < queue.len() { "," } else { "" },
        );
    }
    s.push_str("  ],\n  \"engine_runs\": [\n");
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

/// Extracts every string value of `key` from the snapshot JSON.
fn extract_strings(json: &str, key: &str) -> Vec<String> {
    let needle = format!("\"{key}\": \"");
    json.match_indices(&needle)
        .map(|(at, _)| {
            json[at + needle.len()..]
                .split('"')
                .next()
                .expect("unterminated string value")
                .to_string()
        })
        .collect()
}

/// `--check`: re-measure the queue points and fail on a >20 %
/// regression vs. the committed snapshot, then re-run the
/// [`EXACT_ROW`] engine point and fail unless its event count matches
/// the committed row exactly ([`check_exact_events`]).
///
/// Absolute events/sec is machine-specific (the committed snapshot
/// was taken on one particular box), so the gated quantity is the
/// *speedup* — calendar vs. the reference heap measured back-to-back
/// on the same machine. A drop of more than [`REGRESSION_TOLERANCE`]
/// in that ratio relative to the committed ratio is an algorithmic
/// regression in the calendar, not clock-speed noise.
fn check(path: &str) {
    let committed = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read snapshot {path}: {e}"));
    let base_cal = extract_values(&committed, "calendar_events_per_sec");
    let base_heap = extract_values(&committed, "heap_events_per_sec");
    let mixes = extract_strings(&committed, "mix");
    let fleets: Vec<u64> = extract_values(&committed, "servers")
        .iter()
        .take(base_cal.len())
        .map(|&f| f as u64)
        .collect();
    assert_eq!(
        fleets.len(),
        base_cal.len(),
        "snapshot queue_throughput rows are malformed"
    );
    assert_eq!(base_heap.len(), base_cal.len(), "heap column missing");
    assert_eq!(mixes.len(), base_cal.len(), "mix field missing from rows");
    let mut failed = false;
    for (i, (&fleet, mix)) in fleets.iter().zip(&mixes).enumerate() {
        let committed_speedup = base_cal[i] / base_heap[i];
        let now_cal = queue_bench(fleet, mix, false);
        let now_heap = queue_bench(fleet, mix, true);
        let now_speedup = now_cal / now_heap;
        let ratio = now_speedup / committed_speedup;
        let verdict = if ratio < 1.0 - REGRESSION_TOLERANCE {
            failed = true;
            "REGRESSION"
        } else {
            "ok"
        };
        println!(
            "fleet {fleet} ({mix}): committed speedup {committed_speedup:.2}x, \
             measured {now_speedup:.2}x ({now_cal:.0} vs {now_heap:.0} ev/s, \
             {:+.1} %) {verdict}",
            (ratio - 1.0) * 100.0
        );
    }
    if failed {
        eprintln!(
            "calendar/heap speedup regressed more than {:.0} % vs {path}",
            REGRESSION_TOLERANCE * 100.0
        );
    }
    if !check_exact_events(&committed, path) {
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
}

/// The machine-independent half of `--check`: the fixed-seed run behind
/// the committed [`EXACT_ROW`] `engine_runs` row must process
/// exactly the event count that row records. The count is a pure
/// function of the scenario, so any difference is a change in engine
/// behaviour, not timing noise.
fn check_exact_events(committed: &str, path: &str) -> bool {
    let (servers, vms, hours) = EXACT_ROW;
    let Some(expected) = engine_row_events(committed, EXACT_ROW) else {
        eprintln!("{path} has no {servers}-server x {hours} h engine_runs row");
        return false;
    };
    let measured = run_engine_point(servers, vms, hours).events;
    let ok = measured == expected;
    println!(
        "engine {servers} servers x {hours} h: committed events_processed \
         {expected}, measured {measured} {}",
        if ok { "ok" } else { "MISMATCH" }
    );
    ok
}

/// `events_processed` of the first `engine_runs` row with the given
/// shape. The search is scoped to that section because the
/// `queue_throughput` rows carry a `servers` key too.
fn engine_row_events(json: &str, (servers, vms, hours): (u64, u64, u64)) -> Option<u64> {
    let section = &json[json.find("\"engine_runs\"")?..];
    let section = &section[..section.find(']')?];
    let is = |row: &str, key: &str, want: u64| extract_values(row, key) == [want as f64];
    let row = section.lines().find(|row| {
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
        Some("--queue") => {
            let fleet: u64 = args[2].parse().expect("numeric fleet");
            let mix = args.get(3).map_or("hold", String::as_str);
            let cal = queue_bench(fleet, mix, false);
            let heap = queue_bench(fleet, mix, true);
            println!(
                "fleet {fleet} ({mix}): calendar {cal:.0} ev/s, heap {heap:.0} ev/s, {:.2}x",
                cal / heap
            );
        }
        Some("--quick") => {
            let queue = measure_queue(&[50_000, 100_000]);
            let engine = vec![run_engine_point(5_000, 10_000, 48)];
            print!("{}", render_json(&queue, &engine));
        }
        None => {
            let queue = measure_queue(&ecocloud_bench::QUEUE_FLEET_GRID);
            // The engine grid walks the shared large-fleet ladder
            // (2-VMs-per-server 48 h scenarios), skipping the
            // 1 000-server smoke rung.
            let mut engine = Vec::new();
            for &servers in ecocloud_bench::LARGE_FLEET_LADDER[1..].iter() {
                let servers = servers as u64;
                eprintln!("engine: {servers} servers x 48 h ...");
                engine.push(run_engine_point(servers, 2 * servers, 48));
            }
            let json = render_json(&queue, &engine);
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
