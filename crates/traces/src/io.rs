//! Trace persistence: a compact binary format for the 6,000-VM ×
//! 48-hour paper trace (~3.5 M samples).
//!
//! Layout (all integers and floats little-endian, floats as IEEE bits):
//!
//! ```text
//! "ECOT"  u16 version
//! config  u64 n_vms, u64 duration_secs, u64 step_secs, u64 seed,
//!         7 × f64 mixture, 2 × f64 envelope
//! u32 profile count, then per profile 6 × f64
//! u32 VM count, then per VM: u32 sample count, that many f32
//! ```
//!
//! The decoder treats its input as hostile: every count is checked
//! against the bytes that remain before anything is allocated, so a
//! corrupt file yields an `Err`, never a panic or an oversized buffer.
//! It also rejects what would decode but mislead a run: a VM with no
//! samples, a sample that is NaN or outside [0, 1], a header `n_vms`
//! that disagrees with the VM count, and bytes after the last VM.
//!
//! Decoded traces are recorded traces (they keep their samples); a
//! generated set is encoded by replaying each trace once.

use crate::config::TraceConfig;
use crate::diurnal::DiurnalEnvelope;
use crate::generator::{TraceSet, VmTrace};
use crate::profile::{MeanMixture, VmProfile};
use std::fs;
use std::io;
use std::path::Path;

/// Magic bytes identifying the binary trace format.
const MAGIC: &[u8; 4] = b"ECOT";
const VERSION: u16 = 2;
/// Encoded size of a [`TraceConfig`]: four `u64` and nine `f64`.
const CONFIG_LEN: usize = 13 * 8;
/// Encoded size of a [`VmProfile`]: six `f64`.
const PROFILE_LEN: usize = 6 * 8;

fn put_f64(buf: &mut Vec<u8>, x: f64) {
    buf.extend_from_slice(&x.to_le_bytes());
}

fn put_u32(buf: &mut Vec<u8>, x: usize) {
    let x = u32::try_from(x).expect("trace counts fit in u32");
    buf.extend_from_slice(&x.to_le_bytes());
}

/// Encodes a trace set into the binary format.
pub fn to_binary(set: &TraceSet) -> Vec<u8> {
    let samples_total: usize = set.vms.iter().map(VmTrace::steps).sum();
    let mut buf =
        Vec::with_capacity(6 + CONFIG_LEN + 8 + set.len() * (PROFILE_LEN + 4) + 4 * samples_total);
    buf.extend_from_slice(MAGIC);
    buf.extend_from_slice(&VERSION.to_le_bytes());
    let c = &set.config;
    for x in [c.n_vms as u64, c.duration_secs, c.step_secs, c.seed] {
        buf.extend_from_slice(&x.to_le_bytes());
    }
    let m = &c.mixture;
    for x in [
        m.tail_weight,
        m.body_median,
        m.body_sigma,
        m.tail_median,
        m.tail_sigma,
        m.max_frac,
        m.min_frac,
        c.envelope.amplitude,
        c.envelope.peak_hour,
    ] {
        put_f64(&mut buf, x);
    }
    put_u32(&mut buf, set.len());
    for vm in &set.vms {
        let p = &vm.profile;
        for x in [
            p.mean_frac,
            p.rel_sigma,
            p.ar_phi,
            p.burst_prob,
            p.burst_mult,
            p.burst_end_prob,
        ] {
            put_f64(&mut buf, x);
        }
    }
    put_u32(&mut buf, set.len());
    for vm in &set.vms {
        put_u32(&mut buf, vm.steps());
        for s in vm.samples() {
            buf.extend_from_slice(&s.to_le_bytes());
        }
    }
    buf
}

fn invalid(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

/// Bounds-checked little-endian cursor over the encoded bytes.
struct Reader<'a> {
    data: &'a [u8],
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize, what: &str) -> io::Result<&'a [u8]> {
        if self.data.len() < n {
            return Err(invalid(&format!("truncated {what}")));
        }
        let (head, tail) = self.data.split_at(n);
        self.data = tail;
        Ok(head)
    }

    fn array<const N: usize>(&mut self, what: &str) -> io::Result<[u8; N]> {
        Ok(self
            .take(N, what)?
            .try_into()
            .expect("take returns N bytes"))
    }

    fn u64(&mut self, what: &str) -> io::Result<u64> {
        self.array(what).map(u64::from_le_bytes)
    }

    fn f64(&mut self, what: &str) -> io::Result<f64> {
        self.array(what).map(f64::from_le_bytes)
    }

    /// Reads a count of items that each occupy at least `item_len`
    /// bytes, rejecting it unless that many items can still follow.
    fn count(&mut self, item_len: usize, what: &str) -> io::Result<usize> {
        let n = u32::from_le_bytes(self.array(what)?) as usize;
        if n.saturating_mul(item_len) > self.data.len() {
            return Err(invalid(&format!("{what} {n} exceeds the remaining input")));
        }
        Ok(n)
    }
}

/// Decodes the binary format.
pub fn from_binary(data: &[u8]) -> io::Result<TraceSet> {
    let mut r = Reader { data };
    if r.take(4, "header")? != MAGIC {
        return Err(invalid("bad magic"));
    }
    if u16::from_le_bytes(r.array("header")?) != VERSION {
        return Err(invalid("unsupported version"));
    }
    let n_vms = usize::try_from(r.u64("config")?).map_err(|_| invalid("n_vms overflows"))?;
    let duration_secs = r.u64("config")?;
    let step_secs = r.u64("config")?;
    if step_secs == 0 {
        return Err(invalid("zero step_secs"));
    }
    let seed = r.u64("config")?;
    let mut f = [0.0; 9];
    for x in &mut f {
        *x = r.f64("config")?;
    }
    let config = TraceConfig {
        n_vms,
        duration_secs,
        step_secs,
        seed,
        mixture: MeanMixture {
            tail_weight: f[0],
            body_median: f[1],
            body_sigma: f[2],
            tail_median: f[3],
            tail_sigma: f[4],
            max_frac: f[5],
            min_frac: f[6],
        },
        envelope: DiurnalEnvelope {
            amplitude: f[7],
            peak_hour: f[8],
        },
    };
    let n_profiles = r.count(PROFILE_LEN, "profile count")?;
    let mut profiles = Vec::with_capacity(n_profiles);
    for _ in 0..n_profiles {
        profiles.push(VmProfile {
            mean_frac: r.f64("profile")?,
            rel_sigma: r.f64("profile")?,
            ar_phi: r.f64("profile")?,
            burst_prob: r.f64("profile")?,
            burst_mult: r.f64("profile")?,
            burst_end_prob: r.f64("profile")?,
        });
    }
    let n_vms = r.count(4, "vm count")?;
    if n_vms != profiles.len() {
        return Err(invalid("profile count mismatch"));
    }
    if config.n_vms != n_vms {
        return Err(invalid("header n_vms disagrees with the VM count"));
    }
    let mut vms = Vec::with_capacity(n_vms);
    for profile in profiles {
        let n = r.count(4, "sample count")?;
        if n == 0 {
            return Err(invalid("VM with no samples"));
        }
        let samples: Vec<f32> = r
            .take(4 * n, "samples")?
            .chunks_exact(4)
            .map(|b| f32::from_le_bytes(b.try_into().expect("chunks of 4")))
            .collect();
        // NaN fails the range check too.
        if !samples.iter().all(|s| (0.0..=1.0).contains(s)) {
            return Err(invalid("sample outside [0, 1]"));
        }
        vms.push(VmTrace::recorded(profile, samples));
    }
    if !r.data.is_empty() {
        return Err(invalid("trailing bytes after the last VM"));
    }
    Ok(TraceSet { config, vms })
}

/// Saves a trace set in the binary format.
pub fn save_binary(set: &TraceSet, path: &Path) -> io::Result<()> {
    fs::write(path, to_binary(set))
}

/// Loads a trace set from the binary format.
pub fn load_binary(path: &Path) -> io::Result<TraceSet> {
    from_binary(&fs::read(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn binary_roundtrip() {
        let s = set();
        let back = from_binary(&to_binary(&s)).expect("decode");
        assert_eq!(back.len(), s.len());
        assert_eq!(format!("{:?}", back.config), format!("{:?}", s.config));
        for (a, b) in s.vms.iter().zip(&back.vms) {
            assert!(a.samples().eq(b.samples()));
            assert_eq!(b.recorded_samples().map(<[f32]>::len), Some(a.steps()));
            assert_eq!(profile_bits(&a.profile), profile_bits(&b.profile));
        }
    }

    #[test]
    fn rejects_corrupt_magic() {
        let mut bin = to_binary(&set());
        bin[0] = b'X';
        assert!(from_binary(&bin).is_err());
    }

    #[test]
    fn rejects_truncation() {
        let bin = to_binary(&set());
        for cut in [0, 5, bin.len() / 2, bin.len() - 1] {
            assert!(from_binary(&bin[..cut]).is_err(), "cut at {cut} accepted");
        }
    }

    #[test]
    fn rejects_inflated_counts_without_allocating() {
        let s = set();
        let bin = to_binary(&s);
        let profile_count_at = 6 + CONFIG_LEN;
        let vm_count_at = profile_count_at + 4 + s.len() * PROFILE_LEN;
        let first_sample_count_at = vm_count_at + 4;
        for at in [profile_count_at, vm_count_at, first_sample_count_at] {
            let mut bad = bin.clone();
            bad[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
            assert!(from_binary(&bad).is_err(), "count at byte {at} accepted");
        }
    }

    /// Byte offset of the first VM's sample count.
    fn first_sample_count_at(s: &TraceSet) -> usize {
        6 + CONFIG_LEN + 4 + s.len() * PROFILE_LEN + 4
    }

    #[test]
    fn rejects_vm_without_samples() {
        let s = set();
        let mut bin = to_binary(&s);
        let at = first_sample_count_at(&s);
        let n = s.vms[0].steps();
        bin[at..at + 4].copy_from_slice(&0u32.to_le_bytes());
        bin.drain(at + 4..at + 4 + 4 * n);
        let err = from_binary(&bin).expect_err("empty series accepted");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn rejects_nan_and_out_of_range_samples() {
        let s = set();
        let bin = to_binary(&s);
        let at = first_sample_count_at(&s) + 4 + 4 * 3;
        for bad_sample in [f32::NAN, 1.5, -0.25, f32::INFINITY] {
            let mut bad = bin.clone();
            bad[at..at + 4].copy_from_slice(&bad_sample.to_le_bytes());
            let err = from_binary(&bad).expect_err("bad sample accepted");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{bad_sample}");
        }
    }

    #[test]
    fn rejects_trailing_bytes() {
        let mut bin = to_binary(&set());
        bin.push(0);
        let err = from_binary(&bin).expect_err("trailing byte accepted");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn rejects_header_vm_count_mismatch() {
        let s = set();
        let mut bin = to_binary(&s);
        for header in [s.len() as u64 + 1, s.len() as u64 - 1, u64::MAX] {
            bin[6..14].copy_from_slice(&header.to_le_bytes());
            let err = from_binary(&bin).expect_err("header n_vms accepted");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{header}");
        }
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("ecocloud_trace_io_test");
        fs::create_dir_all(&dir).expect("mkdir");
        let s = set();
        let bp = dir.join("t.ecot");
        save_binary(&s, &bp).expect("save bin");
        assert_eq!(load_binary(&bp).expect("load bin").len(), s.len());
        let _ = fs::remove_dir_all(&dir);
    }
}
