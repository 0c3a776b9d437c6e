//! Crash-safe checkpoint/restore through the full pipeline.
//!
//! Two layers of evidence that a resumed run is byte-identical to an
//! uninterrupted one:
//!
//! 1. **In-process resume equivalence** over every subsystem that
//!    carries deterministic state (fault schedules, control-plane
//!    exchanges, open-system churn, the reference event queue, policy
//!    RNGs): run a scenario straight through, run it again with a
//!    snapshot + restore at the halfway point, and require the results
//!    to match down to the `Debug` formatting of every float.
//! 2. **A kill–resume chaos harness**: SIGKILL the real CLI binary at
//!    seeded random wall-clock points in a loop, resume from the last
//!    good snapshot, and require the final stdout to equal the
//!    straight-through run's stdout byte for byte.

use ecocloud::dcsim::{Checkpoint, Policy, SimResult, Simulation};
use ecocloud::prelude::*;
use ecocloud::scenarios::ChurnKind;

/// Runs `scenario` straight through.
fn run_straight<P: Policy>(scenario: &Scenario, policy: P) -> SimResult {
    Simulation::new(
        scenario.fleet.clone(),
        scenario.workload.clone(),
        scenario.config.clone(),
        policy,
    )
    .run()
}

/// Runs `scenario` with a checkpoint at `at_secs`, serializes the
/// snapshot to bytes and back (the exact on-disk round trip), restores
/// it onto a *fresh* policy, and finishes both the original and the
/// restored simulation. Returns `(continued, resumed)` results.
fn run_interrupted<P: Policy>(
    scenario: &Scenario,
    policy: P,
    fresh_policy: P,
    at_secs: f64,
    spec: &str,
) -> (SimResult, SimResult) {
    let mut sim = Simulation::new(
        scenario.fleet.clone(),
        scenario.workload.clone(),
        scenario.config.clone(),
        policy,
    );
    while sim.now() < at_secs {
        if sim.step().is_none() {
            break;
        }
    }
    let ckpt = sim.checkpoint(spec, 0);
    let bytes = ckpt.to_bytes();
    let ckpt = Checkpoint::from_bytes(&bytes, "in-memory").expect("snapshot bytes round-trip");
    assert_eq!(ckpt.spec, spec);
    let resumed = Simulation::restore_from(
        scenario.fleet.clone(),
        scenario.workload.clone(),
        scenario.config.clone(),
        fresh_policy,
        &ckpt,
        spec,
    )
    .expect("snapshot restores");
    // Restoring is lossless: the restored simulation snapshots back to
    // the very same bytes, in release builds too, where the restore
    // oracle is compiled out. The queue section is among them, so the
    // restore, which skips the initial schedule, left no stray event.
    assert!(
        resumed.checkpoint(spec, 0).to_bytes() == bytes,
        "{spec}: restored state re-encodes to different snapshot bytes"
    );
    // Taking the snapshot must not have perturbed the original run.
    while sim.step().is_some() {}
    (sim.finish(), resumed.run())
}

/// The equality oracle: `Debug` formatting covers every counter,
/// series sample and histogram bucket, and formats floats exactly
/// (shortest representation that round-trips), so two results agree
/// here iff they agree bit for bit on everything the reports use.
fn assert_same_result(label: &str, a: &SimResult, b: &SimResult) {
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
    assert_eq!(a.final_powered, b.final_powered, "{label}: final_powered");
}

/// Straight vs interrupted-and-resumed, for one scenario + policy.
fn assert_resume_equivalent<P: Policy, F: Fn() -> P>(label: &str, scenario: &Scenario, mk: F) {
    let spec = format!("test/{label}");
    let straight = run_straight(scenario, mk());
    let half = scenario.config.duration_secs / 2.0;
    let (continued, resumed) = run_interrupted(scenario, mk(), mk(), half, &spec);
    assert_same_result(
        &format!("{label} (checkpoint perturbs)"),
        &straight,
        &continued,
    );
    assert_same_result(&format!("{label} (resume diverges)"), &straight, &resumed);
}

/// A small closed-system scenario (12 servers, 60 VMs, 4 h).
fn closed(seed: u64) -> Scenario {
    Scenario::closed_system(
        Fleet::thirds(12),
        TraceConfig {
            n_vms: 60,
            duration_secs: 4 * 3600,
            ..TraceConfig::paper_48h(seed)
        },
    )
}

#[test]
fn resume_is_byte_identical_closed_system() {
    let s = closed(7);
    assert_resume_equivalent("closed", &s, || EcoCloudPolicy::paper(7));
}

#[test]
fn resume_is_byte_identical_under_chaos_faults() {
    let mut s = closed(8);
    s.config.faults = FaultConfig::chaos(8);
    assert_resume_equivalent("faults", &s, || EcoCloudPolicy::paper(8));
    // The hostile mix: spot churn (departures, preemptions) plus chaos
    // faults (crashes, displacement) and consolidation migrations, all
    // live across the checkpoint.
    let mut s = Scenario::open_system(Fleet::thirds(18), 90, 6, 22, ChurnKind::Spot, 0.5);
    s.config.faults = FaultConfig::chaos(22);
    assert_resume_equivalent("faults+churn", &s, || EcoCloudPolicy::paper(22));
}

#[test]
fn resume_is_byte_identical_with_lossy_control_plane() {
    let mut s = closed(9);
    s.config.control_plane = ControlPlaneConfig::lossy(9);
    s.config.validate().expect("valid");
    assert_resume_equivalent("control", &s, || EcoCloudPolicy::paper(9));
}

#[test]
fn resume_is_byte_identical_with_open_system_churn() {
    let mut s = Scenario::open_system(Fleet::thirds(12), 60, 4, 10, ChurnKind::Spot, 0.5);
    s.config.record_events = true;
    assert_resume_equivalent("churn", &s, || EcoCloudPolicy::paper(10));
}

#[test]
fn resume_is_byte_identical_for_random_policy_rng() {
    let s = closed(12);
    assert_resume_equivalent("random", &s, || RandomPolicy::new(0.9, 12));
}

#[test]
fn resume_is_byte_identical_with_everything_on() {
    // The union of all checkpointed subsystems in one run: faults,
    // phased placement with message loss, churn, event log.
    let mut s = Scenario::open_system(Fleet::thirds(14), 70, 4, 13, ChurnKind::Flash, 0.5);
    s.config.faults = FaultConfig::moderate(13);
    s.config.control_plane = ControlPlaneConfig::lan(13);
    s.config.record_events = true;
    s.config.validate().expect("valid");
    assert_resume_equivalent("union", &s, || EcoCloudPolicy::paper(13));
}

#[test]
fn restore_rejects_wrong_spec_and_version() {
    let s = closed(14);
    let mut sim = Simulation::new(
        s.fleet.clone(),
        s.workload.clone(),
        s.config.clone(),
        EcoCloudPolicy::paper(14),
    );
    for _ in 0..50 {
        sim.step();
    }
    let ckpt = sim.checkpoint("test/a", 0);
    let msg = match Simulation::restore_from(
        s.fleet.clone(),
        s.workload.clone(),
        s.config.clone(),
        EcoCloudPolicy::paper(14),
        &ckpt,
        "test/b",
    ) {
        Ok(_) => panic!("spec gate must reject a different spec"),
        Err(e) => e.to_string(),
    };
    assert!(
        msg.contains("test/a") && msg.contains("test/b"),
        "spec mismatch must show both specs: {msg}"
    );
}

// --- Kill–resume chaos harness over the real binary ----------------

mod chaos {
    use std::path::{Path, PathBuf};
    use std::process::{Command, Stdio};

    /// Wall-clock kill-point generator: SplitMix64, the same generator
    /// the simulator's RNG stub uses. Seeded, so a failing kill
    /// schedule is reproducible.
    struct KillRng(u64);

    impl KillRng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
    }

    /// The CLI binary under chaos: cargo's build of `ecocloud-cli`,
    /// which cargo always builds before an integration test.
    fn cli_bin() -> &'static Path {
        Path::new(env!("CARGO_BIN_EXE_ecocloud-cli"))
    }

    fn scenario_args() -> [&'static str; 10] {
        [
            "run",
            "--servers",
            "30",
            "--vms",
            "180",
            "--hours",
            "6",
            "--seed",
            "77",
            "--faults", // profile value appended by caller
        ]
    }

    fn base_cmd(bin: &Path) -> Command {
        let mut c = Command::new(bin);
        let mut args: Vec<&str> = scenario_args().to_vec();
        args.push("light");
        c.args(args);
        c
    }

    fn remove_snapshot_family(ckpt: &Path) {
        for suffix in ["", ".prev", ".tmp"] {
            let _ = std::fs::remove_file(PathBuf::from(format!("{}{suffix}", ckpt.display())));
        }
    }

    #[test]
    fn killed_and_resumed_run_matches_straight_run_byte_for_byte() {
        let bin = cli_bin();
        let dir = std::env::temp_dir().join(format!("ecocloud_chaos_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        let ckpt = dir.join("chaos.ckpt");

        // The golden surface: stdout of an uninterrupted run. All
        // checkpoint progress goes to stderr, so any checkpointed /
        // killed / resumed execution of the same spec must reproduce
        // these bytes exactly.
        let straight = base_cmd(bin)
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .output()
            .expect("straight run spawns");
        assert!(straight.status.success(), "straight run failed");
        assert!(!straight.stdout.is_empty(), "straight run printed nothing");

        let mut rng = KillRng(0xC0FFEE);
        let mut kills = 0u32;
        let mut completions = 0u32;
        let mut attempts = 0u32;
        let mut final_stdout: Option<Vec<u8>> = None;
        // Keep killing until ten SIGKILLs landed mid-run and at least
        // one post-kill execution ran to completion. On a machine fast
        // enough to finish before a kill lands, the snapshot family is
        // reset and the hunt continues from scratch — every completed
        // execution must still match the golden stdout.
        while (kills < 10 || final_stdout.is_none()) && attempts < 300 {
            attempts += 1;
            let mut cmd = base_cmd(bin);
            cmd.arg("--checkpoint")
                .arg(&ckpt)
                .args(["--checkpoint-every", "0.25"]);
            let prev = PathBuf::from(format!("{}.prev", ckpt.display()));
            if ckpt.exists() || prev.exists() {
                cmd.arg("--resume").arg(&ckpt);
            }
            let mut child = cmd
                .stdout(Stdio::piped())
                .stderr(Stdio::null())
                .spawn()
                .expect("chaos child spawns");
            let delay_ms = 3 + rng.next() % 120;
            std::thread::sleep(std::time::Duration::from_millis(delay_ms));
            match child.try_wait().expect("try_wait") {
                Some(status) => {
                    let out = child.wait_with_output().expect("collect output");
                    assert!(status.success(), "chaos child exited with {status}");
                    assert_eq!(
                        out.stdout, straight.stdout,
                        "completed execution diverged from the straight run \
                         (after {kills} kills, attempt {attempts})"
                    );
                    completions += 1;
                    if kills >= 10 {
                        final_stdout = Some(out.stdout);
                    } else {
                        // Too early — rewind the crash site and keep
                        // killing.
                        remove_snapshot_family(&ckpt);
                    }
                }
                None => {
                    child.kill().expect("SIGKILL");
                    let _ = child.wait();
                    kills += 1;
                }
            }
        }
        assert!(
            kills >= 10,
            "chaos loop landed only {kills} kills in {attempts} attempts"
        );
        let last = final_stdout.expect("no execution completed after the kills");
        assert_eq!(
            last, straight.stdout,
            "final resumed run diverged from the straight run"
        );
        eprintln!("chaos harness: {kills} kills, {completions} completions, {attempts} attempts");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_from_missing_snapshot_exits_one_naming_the_file() {
        let bin = cli_bin();
        let missing = std::env::temp_dir().join("ecocloud_definitely_missing.ckpt");
        let _ = std::fs::remove_file(&missing);
        let out = base_cmd(bin)
            .arg("--resume")
            .arg(&missing)
            .output()
            .expect("spawns");
        assert_eq!(out.status.code(), Some(1), "must exit 1, not panic");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("ecocloud_definitely_missing.ckpt"),
            "stderr must name the snapshot: {stderr}"
        );
    }

    #[test]
    fn resume_from_truncated_snapshot_exits_one_with_reason() {
        let bin = cli_bin();
        let dir = std::env::temp_dir().join(format!("ecocloud_trunc_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        let ckpt = dir.join("t.ckpt");
        // Write a real snapshot, then truncate it with no .prev to
        // fall back to: the CLI must exit 1 and explain.
        let status = base_cmd(bin)
            .arg("--checkpoint")
            .arg(&ckpt)
            .args(["--checkpoint-every", "1"])
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .status()
            .expect("checkpointed run");
        assert!(status.success());
        let bytes = std::fs::read(&ckpt).expect("snapshot exists");
        std::fs::write(&ckpt, &bytes[..bytes.len() / 2]).expect("truncate");
        let _ = std::fs::remove_file(PathBuf::from(format!("{}.prev", ckpt.display())));
        let out = base_cmd(bin)
            .arg("--resume")
            .arg(&ckpt)
            .output()
            .expect("spawns");
        assert_eq!(out.status.code(), Some(1), "must exit 1, not panic");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("t.ckpt") && stderr.contains("truncated"),
            "stderr must name the file and the reason: {stderr}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
