//! Trace files (`ECOT`): a [`TraceSet`] sealed in the container that
//! checkpoints and sweep artifacts share ([`dcsim::checkpoint`]), as
//! the CLI's `trace-gen` writes it and `trace-stats` reads it.
//!
//! Sections (little-endian, floats as IEEE bits):
//!
//! ```text
//! config    u64 n_vms, u64 duration_secs, u64 step_secs, u64 seed,
//!           7 × f64 mixture, 2 × f64 envelope
//! profiles  u64 count, then per VM 6 × f64
//! samples   u64 count, then per VM: u64 sample count, that many f32
//! ```
//!
//! The container checks the magic, the version, the length and the
//! checksum. The decoder still treats the sections as hostile: every
//! count is checked against the bytes that remain before anything is
//! sized by it, so a corrupt file yields an `Err`, never a panic or an
//! oversized buffer. It also rejects what would decode but mislead a
//! run: a VM with no samples, a sample that is NaN or outside [0, 1], a
//! zero step, a header `n_vms` that disagrees with the VM count, and
//! bytes after the last VM.
//!
//! Decoded traces are recorded traces (they keep their samples); a
//! generated set is encoded by replaying each trace once.

use dcsim::checkpoint::{CheckpointError, FileKind, Sealed};
use ecocloud_traces::profile::MeanMixture;
use ecocloud_traces::{DiurnalEnvelope, TraceConfig, TraceSet, VmProfile, VmTrace};
use std::path::Path;

/// Version 3 is the first sealed one: version 2 had a header of its
/// own and no checksum.
const TRACE_FILE: FileKind = FileKind {
    magic: b"ECOT",
    version: 3,
    name: "trace file",
};

/// Encodes a trace set as a sealed trace file.
pub fn to_binary(set: &TraceSet) -> Vec<u8> {
    let c = &set.config;
    let (m, env) = (&c.mixture, &c.envelope);
    let mut file = Sealed::default();
    file.encode_section("config", |e| {
        for x in [c.n_vms as u64, c.duration_secs, c.step_secs, c.seed] {
            e.u64(x);
        }
        for x in [
            m.tail_weight,
            m.body_median,
            m.body_sigma,
            m.tail_median,
            m.tail_sigma,
            m.max_frac,
            m.min_frac,
            env.amplitude,
            env.peak_hour,
        ] {
            e.f64(x);
        }
    });
    file.encode_section("profiles", |e| {
        e.usize(set.len());
        for p in set.vms.iter().map(|vm| &vm.profile) {
            for x in [
                p.mean_frac,
                p.rel_sigma,
                p.ar_phi,
                p.burst_prob,
                p.burst_mult,
                p.burst_end_prob,
            ] {
                e.f64(x);
            }
        }
    });
    file.encode_section("samples", |e| {
        e.usize(set.len());
        for vm in &set.vms {
            e.usize(vm.steps());
            for s in vm.samples() {
                e.f32(s);
            }
        }
    });
    file.to_bytes(&TRACE_FILE)
}

/// Decodes a sealed trace file held in memory.
pub fn from_binary(bytes: &[u8]) -> Result<TraceSet, CheckpointError> {
    decode(&Sealed::from_bytes(bytes, &TRACE_FILE, "memory")?)
}

/// Saves a trace set as a sealed trace file.
pub fn save_binary(set: &TraceSet, path: &Path) -> std::io::Result<()> {
    std::fs::write(path, to_binary(set))
}

/// Loads a sealed trace file.
pub fn load_binary(path: &Path) -> Result<TraceSet, CheckpointError> {
    decode(&Sealed::read(path, &TRACE_FILE)?)
}

fn decode(file: &Sealed<'_>) -> Result<TraceSet, CheckpointError> {
    let mut d = file.decoder("config")?;
    let n_vms = d.usize()?;
    let [duration_secs, step_secs, seed] = [d.u64()?, d.u64()?, d.u64()?];
    if step_secs == 0 {
        return Err(d.corrupt(format_args!("zero step_secs")));
    }
    // Struct literals evaluate their fields in the order written.
    let config = TraceConfig {
        n_vms,
        duration_secs,
        step_secs,
        seed,
        mixture: MeanMixture {
            tail_weight: d.f64()?,
            body_median: d.f64()?,
            body_sigma: d.f64()?,
            tail_median: d.f64()?,
            tail_sigma: d.f64()?,
            max_frac: d.f64()?,
            min_frac: d.f64()?,
        },
        envelope: DiurnalEnvelope {
            amplitude: d.f64()?,
            peak_hour: d.f64()?,
        },
    };
    d.finish()?;
    let mut d = file.decoder("profiles")?;
    let profiles = d.list(6 * 8, |d| {
        Ok(VmProfile {
            mean_frac: d.f64()?,
            rel_sigma: d.f64()?,
            ar_phi: d.f64()?,
            burst_prob: d.f64()?,
            burst_mult: d.f64()?,
            burst_end_prob: d.f64()?,
        })
    })?;
    d.finish()?;
    let mut d = file.decoder("samples")?;
    let samples = d.list(8, |d| {
        let samples: Vec<f32> = d.u32s()?.into_iter().map(f32::from_bits).collect();
        if samples.is_empty() {
            return Err(d.corrupt(format_args!("a VM with no samples")));
        }
        // NaN fails the range check too.
        if !samples.iter().all(|s| (0.0..=1.0).contains(s)) {
            return Err(d.corrupt(format_args!("a sample outside [0, 1]")));
        }
        Ok(samples)
    })?;
    d.finish()?;
    if profiles.len() != n_vms || samples.len() != n_vms {
        return Err(CheckpointError::Corrupt(format!(
            "header n_vms {n_vms} disagrees with {} profiles and {} sampled VMs",
            profiles.len(),
            samples.len()
        )));
    }
    let vms = profiles
        .into_iter()
        .zip(samples)
        .map(|(profile, samples)| VmTrace::recorded(profile, samples))
        .collect();
    Ok(TraceSet { config, vms })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::{assert_flips_refused_or_reencoded, reseal};

    fn set() -> TraceSet {
        TraceSet::generate(TraceConfig {
            n_vms: 20,
            duration_secs: 2 * 3600,
            ..TraceConfig::small(33)
        })
    }

    fn profile_bits(p: &VmProfile) -> [u64; 6] {
        [
            p.mean_frac,
            p.rel_sigma,
            p.ar_phi,
            p.burst_prob,
            p.burst_mult,
            p.burst_end_prob,
        ]
        .map(f64::to_bits)
    }

    /// `bin` with section `name` edited by `edit` and re-sealed.
    fn patched(bin: &[u8], name: &str, edit: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
        reseal(bin, &TRACE_FILE, name, edit)
    }

    fn refused(bin: &[u8]) -> bool {
        matches!(from_binary(bin), Err(CheckpointError::Corrupt(_)))
    }

    #[test]
    fn binary_roundtrip() {
        let s = set();
        let bin = to_binary(&s);
        let back = from_binary(&bin).expect("decode");
        assert_eq!(back.len(), s.len());
        assert_eq!(format!("{:?}", back.config), format!("{:?}", s.config));
        for (a, b) in s.vms.iter().zip(&back.vms) {
            assert!(a.samples().eq(b.samples()));
            assert_eq!(b.recorded_samples().map(<[f32]>::len), Some(a.steps()));
            assert_eq!(profile_bits(&a.profile), profile_bits(&b.profile));
        }
        assert_eq!(to_binary(&back), bin, "a decoded set re-encodes");
    }

    #[test]
    fn rejects_corrupt_magic() {
        let mut bin = to_binary(&set());
        bin[0] = b'X';
        assert!(matches!(
            from_binary(&bin),
            Err(CheckpointError::BadMagic(_))
        ));
    }

    #[test]
    fn rejects_truncation() {
        let bin = to_binary(&set());
        for cut in [0, 5, bin.len() / 2, bin.len() - 1] {
            assert!(
                matches!(from_binary(&bin[..cut]), Err(CheckpointError::Truncated(_))),
                "cut at {cut} accepted"
            );
        }
    }

    /// A count inflated past the bytes behind it, in each list, with
    /// the checksum recomputed, is refused before it sizes anything.
    #[test]
    fn rejects_inflated_counts_without_allocating() {
        let bin = to_binary(&set());
        let inflate = |at: usize| move |p: &mut Vec<u8>| p[at..at + 8].fill(0xff);
        for (section, at) in [("profiles", 0), ("samples", 0), ("samples", 8)] {
            let bad = patched(&bin, section, inflate(at));
            assert!(refused(&bad), "count at {section}[{at}] accepted");
        }
    }

    #[test]
    fn rejects_vm_without_samples() {
        let s = set();
        let n = s.vms[0].steps();
        let bad = patched(&to_binary(&s), "samples", |p| {
            p[8..16].copy_from_slice(&0u64.to_le_bytes());
            p.drain(16..16 + 4 * n);
        });
        assert!(refused(&bad), "empty series accepted");
    }

    #[test]
    fn rejects_nan_and_out_of_range_samples() {
        let bin = to_binary(&set());
        // The fourth sample of the first VM, after both counts.
        let at = 16 + 4 * 3;
        for bad_sample in [f32::NAN, 1.5, -0.25, f32::INFINITY] {
            let bad = patched(&bin, "samples", |p| {
                p[at..at + 4].copy_from_slice(&bad_sample.to_le_bytes())
            });
            assert!(refused(&bad), "{bad_sample} accepted");
        }
    }

    /// A byte past the sealed length is a torn write; a byte past the
    /// last VM inside the section is a layout disagreement.
    #[test]
    fn rejects_trailing_bytes() {
        let mut bin = to_binary(&set());
        assert!(refused(&patched(&bin, "samples", |p| p.push(0))));
        bin.push(0);
        assert!(matches!(
            from_binary(&bin),
            Err(CheckpointError::Truncated(_))
        ));
    }

    #[test]
    fn rejects_header_vm_count_mismatch() {
        let s = set();
        let bin = to_binary(&s);
        for header in [s.len() as u64 + 1, s.len() as u64 - 1, u64::MAX] {
            let bad = patched(&bin, "config", |p| {
                p[..8].copy_from_slice(&header.to_le_bytes())
            });
            assert!(refused(&bad), "header n_vms {header} accepted");
        }
    }

    /// Version 2 wrote `ECOT`, a `u16` version and its fields with no
    /// checksum; it is refused by its version number.
    #[test]
    fn rejects_version_2_files_by_name() {
        let v2 = [b"ECOT".as_slice(), &2u16.to_le_bytes(), &[0; 128]].concat();
        let err = from_binary(&v2).expect_err("version 2 accepted");
        assert_eq!(
            err,
            CheckpointError::FormatVersionMismatch {
                found: 2,
                expected: 3
            }
        );
        assert!(err.to_string().contains("version 2"), "{err}");
    }

    /// Seeded bit flips in every section, re-sealed so the checksum
    /// holds: each decodes to an error or to a set that re-encodes to
    /// the flipped file, and none panics.
    #[test]
    fn flipped_payload_bits_are_refused_or_reencode() {
        let bin = to_binary(&set());
        assert_flips_refused_or_reencoded(&bin, &TRACE_FILE, 450, 29, from_binary, to_binary);
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join(format!("ecocloud_trace_io_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let s = set();
        let bp = dir.join("t.ecot");
        save_binary(&s, &bp).expect("save bin");
        assert_eq!(load_binary(&bp).expect("load bin").len(), s.len());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
