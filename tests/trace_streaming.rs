//! Streamed traces against recorded ones.
//!
//! A generated trace stores no samples: the engine produces them on
//! demand through a per-trace cursor. A recorded trace (decoded from
//! the binary format, imported, or hand-built) stores its samples and
//! is read by index. Both must drive the same run bit for bit, so each
//! test here runs a scenario twice — once on the generated set, once on
//! the same set with its samples recorded — and compares every
//! statistic. The recorded path shares no generator code with the
//! cursor, which makes it an independent oracle for the engine's reads,
//! including the wrapped reads of an open system that restart cursors.

use ecocloud::dcsim::{Checkpoint, SimResult};
use ecocloud::io;
use ecocloud::prelude::*;
use ecocloud::scenarios::ChurnKind;
use ecocloud::traces::{planetlab, OpenSystemSpec, VmTrace};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// `Debug` formats floats exactly, so equal strings mean equal bits.
fn assert_same_run(label: &str, a: &SimResult, b: &SimResult) {
    assert_eq!(
        format!("{:?}", a.summary),
        format!("{:?}", b.summary),
        "{label}: summaries diverge"
    );
    assert_eq!(
        format!("{:?}", a.stats),
        format!("{:?}", b.stats),
        "{label}: statistics diverge"
    );
}

/// The same set with every trace's samples recorded.
fn materialized(set: &TraceSet) -> TraceSet {
    TraceSet {
        config: set.config.clone(),
        vms: set
            .vms
            .iter()
            .map(|vm| VmTrace::recorded(vm.profile.clone(), vm.samples().collect()))
            .collect(),
    }
}

/// Runs `scenario`, then runs it again on `recorded(traces)`.
fn run_both(label: &str, scenario: &Scenario, seed: u64, recorded: impl Fn(&TraceSet) -> TraceSet) {
    let generated = scenario.run(EcoCloudPolicy::paper(seed));
    let mut replayed = scenario.clone();
    replayed.workload.traces = recorded(&scenario.workload.traces);
    assert!(scenario
        .workload
        .traces
        .vms
        .iter()
        .all(|vm| vm.recorded_samples().is_none()));
    assert!(replayed
        .workload
        .traces
        .vms
        .iter()
        .all(|vm| vm.recorded_samples().is_some()));
    let recorded = replayed.run(EcoCloudPolicy::paper(seed));
    assert!(generated.stats.events_processed > 0);
    assert_same_run(label, &generated, &recorded);
}

fn binary_round_trip(set: &TraceSet) -> TraceSet {
    io::from_binary(&io::to_binary(set)).expect("round trip decodes")
}

#[test]
fn binary_round_trip_drives_the_same_closed_system_run() {
    let s = Scenario::closed_system(
        Fleet::thirds(12),
        TraceConfig {
            n_vms: 80,
            duration_secs: 6 * 3600,
            ..TraceConfig::paper_48h(3)
        },
    );
    run_both("closed", &s, 3, binary_round_trip);
}

#[test]
fn binary_round_trip_drives_the_same_open_system_run() {
    let mut s = Scenario::open_system(Fleet::thirds(18), 90, 6, 22, ChurnKind::Spot, 0.5);
    s.config.faults = FaultConfig::chaos(22);
    run_both("open", &s, 22, binary_round_trip);
}

/// An open system whose 1 h traces wrap five times over a 6 h run, and
/// whose VMs share traces: every wrap restarts a cursor from its
/// origin, and several VMs read one cursor in the same sweep.
fn wrapping_open_system(seed: u64) -> Scenario {
    let spec = OpenSystemSpec {
        target_population: 120.0,
        ..OpenSystemSpec::paper(0.5, ChurnKind::Steady.archetype())
    };
    let traces = TraceSet::generate(TraceConfig {
        n_vms: 40,
        duration_secs: 3600,
        envelope: spec.demand_envelope(),
        ..TraceConfig::paper_48h(seed)
    });
    let mut config = SimConfig::paper_48h(seed);
    config.duration_secs = 6.0 * 3600.0;
    let workload = Workload::open_system(traces, &spec, config.duration_secs, seed);
    Scenario {
        fleet: Fleet::thirds(18),
        workload,
        config,
    }
}

#[test]
fn wrapping_open_system_matches_the_materialized_set() {
    let s = wrapping_open_system(31);
    assert!(s.workload.wrap_traces);
    assert!(s.workload.spawns.len() > s.workload.traces.len());
    run_both("wrapping", &s, 31, materialized);
}

/// A snapshot taken after two wraps carries the restarted cursors; the
/// resumed run matches the straight one without replaying any trace.
#[test]
fn resume_inside_a_wrapped_trace_is_byte_identical() {
    let s = wrapping_open_system(32);
    let straight = s.run(EcoCloudPolicy::paper(32));
    let mut sim = Simulation::new(
        s.fleet.clone(),
        s.workload.clone(),
        s.config.clone(),
        EcoCloudPolicy::paper(32),
    );
    while sim.now() < 2.5 * 3600.0 && sim.step().is_some() {}
    let bytes = sim.checkpoint("wrap", 0).to_bytes();
    let ckpt = Checkpoint::from_bytes(&bytes, "mem").expect("parses");
    let resumed = Simulation::restore_from(
        s.fleet.clone(),
        s.workload.clone(),
        s.config.clone(),
        EcoCloudPolicy::paper(32),
        &ckpt,
        "wrap",
    )
    .expect("restores")
    .run();
    assert_same_run("wrap resume", &straight, &resumed);
}

/// Two PlanetLab files of unequal length: the set's duration is the
/// longer file's, but the VM on the shorter one is covered only by its
/// own samples. A closed-system run past that point is refused, naming
/// the spawn; one inside it runs.
#[test]
fn recorded_traces_are_checked_against_their_own_length() {
    let dir =
        std::env::temp_dir().join(format!("ecocloud_unequal_planetlab_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    let lines = |n: usize| -> String { (0..n).map(|i| format!("{}\n", 5 + i % 9)).collect() };
    std::fs::write(dir.join("vm_a"), lines(288)).expect("write");
    std::fs::write(dir.join("vm_b"), lines(144)).expect("write");
    let set = planetlab::import_dir(&dir, 300).expect("imports");
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(set.config.duration_secs, 24 * 3600);

    let run_for = |hours: f64| {
        let mut config = SimConfig::paper_48h(1);
        config.duration_secs = hours * 3600.0;
        Simulation::new(
            Fleet::thirds(3),
            Workload::all_vms_from_start(set.clone()),
            config,
            EcoCloudPolicy::paper(1),
        )
        .run()
    };
    assert_eq!(run_for(12.0).summary.dropped_vms, 0);
    let err = catch_unwind(AssertUnwindSafe(|| run_for(24.0))).expect_err("flatline accepted");
    let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
    assert!(
        msg.contains("spawn 1 ") && msg.contains("outlives its trace"),
        "unexpected rejection: {msg}"
    );
    assert!(msg.contains("43200.0 s"), "coverage not per trace: {msg}");
}
