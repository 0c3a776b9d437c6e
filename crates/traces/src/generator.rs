//! Trace generation: turns a [`TraceConfig`] into per-VM demand traces.
//!
//! A generated trace stores no samples. It keeps the origin of its
//! AR(1) + burst chain — the RNG state right after its profile and
//! first deviation are drawn — and produces sample `k` on demand by
//! walking a [`TraceCursor`] forward from that origin. Generating a set
//! is therefore O(n_vms) in time and memory; the samples cost their
//! arithmetic when they are read. Recorded traces (imported files,
//! decoded binaries, hand-built series) keep their samples and answer
//! the same "sample at step `k`" question by index, so readers have one
//! path for both.

use crate::config::TraceConfig;
use crate::profile::{standard_normal, VmProfile};
use crate::units::frac_to_mhz;
use ecocloud_rng::{Rng, SeedableRng, StdRng};
use std::sync::Arc;

/// Position of a reader in one trace: the full state of the generating
/// chain after `next` samples, plus the last sample produced. Small
/// and `Copy`, so an engine can hold one per trace and checkpoint it.
///
/// A cursor belongs to the trace whose [`VmTrace::cursor`] made it.
/// Recorded traces are read by index and never move their cursor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceCursor {
    /// SplitMix state of the chain's RNG stream.
    pub rng: u64,
    /// AR(1) deviation that applies to sample `next`.
    pub x: f64,
    /// Whether a burst is in progress.
    pub bursting: bool,
    /// Index of the next sample the chain produces.
    pub next: u32,
    /// Sample `next - 1` (0 before the first step).
    pub last: f32,
}

/// Envelope multiplier of every step of a generated set, shared by all
/// of its traces. `envelope[k]` is `config.envelope.at(k · step_secs)`,
/// so a generated trace has `envelope.len()` samples.
#[derive(Debug)]
struct Clock {
    envelope: Vec<f64>,
}

impl Clock {
    fn of(config: &TraceConfig) -> Self {
        Self {
            envelope: (0..config.steps())
                .map(|k| config.envelope.at((k as u64 * config.step_secs) as f64))
                .collect(),
        }
    }
}

/// Where a generated chain starts.
#[derive(Debug, Clone)]
struct Origin {
    /// RNG state after the profile and `x0` draws.
    rng: u64,
    /// Initial AR(1) deviation, drawn from the stationary distribution.
    x0: f64,
    /// Innovation std chosen so the stationary std of x is `rel_sigma`.
    innov: f64,
    clock: Arc<Clock>,
}

#[derive(Debug, Clone)]
enum Series {
    Generated(Origin),
    Recorded(Vec<f32>),
}

/// One VM's demand trace, as fractions of the reference host: its
/// generating profile plus either the origin of its generating chain or
/// its recorded samples.
#[derive(Debug, Clone)]
pub struct VmTrace {
    /// The stochastic profile the series was generated from (estimated
    /// from the samples for recorded traces). A generated trace reads
    /// it at every step, so it is part of the series' definition.
    pub profile: VmProfile,
    series: Series,
}

impl VmTrace {
    /// A trace that replays `samples` (fractions of the reference host,
    /// one per step). Panics on an empty series.
    pub fn recorded(profile: VmProfile, samples: Vec<f32>) -> Self {
        assert!(!samples.is_empty(), "a recorded trace needs a sample");
        Self {
            profile,
            series: Series::Recorded(samples),
        }
    }

    /// The chain of `profile` on `clock`, continuing `rng` (which just
    /// drew the profile).
    fn generated(profile: VmProfile, rng: &mut StdRng, clock: &Arc<Clock>) -> Self {
        assert!(profile.is_valid(), "invalid profile: {profile:?}");
        let phi = profile.ar_phi;
        let innov = profile.rel_sigma * (1.0 - phi * phi).sqrt();
        // Start from the stationary distribution to avoid a warm-up ramp.
        let x0 = profile.rel_sigma * standard_normal(rng);
        let origin = Origin {
            rng: rng.state(),
            x0,
            innov,
            clock: Arc::clone(clock),
        };
        Self {
            profile,
            series: Series::Generated(origin),
        }
    }

    /// The stored samples of a recorded trace; `None` for a generated
    /// one, which stores none.
    pub fn recorded_samples(&self) -> Option<&[f32]> {
        match &self.series {
            Series::Generated(_) => None,
            Series::Recorded(s) => Some(s),
        }
    }

    /// Number of samples (at least one).
    pub fn steps(&self) -> usize {
        match &self.series {
            Series::Generated(o) => o.clock.envelope.len(),
            Series::Recorded(s) => s.len(),
        }
    }

    /// A cursor at the start of the trace.
    pub fn cursor(&self) -> TraceCursor {
        let (rng, x) = match &self.series {
            Series::Generated(o) => (o.rng, o.x0),
            Series::Recorded(_) => (0, 0.0),
        };
        TraceCursor {
            rng,
            x,
            bursting: false,
            next: 0,
            last: 0.0,
        }
    }

    /// Sample index that covers global step `k`. Past the end a trace
    /// either holds its last sample or, with `wrap`, repeats from the
    /// start: open-system VMs can arrive late and outlive the trace,
    /// and wrapping replays the diurnal days instead of flatlining.
    #[inline]
    pub fn step_index(&self, k: usize, wrap: bool) -> usize {
        let n = self.steps();
        if k < n {
            k
        } else if wrap {
            k % n
        } else {
            n - 1
        }
    }

    /// Sample `j`, read through `cursor`; panics unless `j < steps()`.
    /// A generated trace walks the cursor forward to `j`: a read at the
    /// cursor's current step returns the cached sample, and a read
    /// behind it restarts from the origin. A recorded trace reads by
    /// index and leaves the cursor alone.
    #[inline]
    pub fn sample_at(&self, cursor: &mut TraceCursor, j: usize) -> f32 {
        match &self.series {
            Series::Recorded(s) => s[j],
            Series::Generated(o) => {
                let next = cursor.next as usize;
                if next == j + 1 {
                    return cursor.last;
                }
                if next > j {
                    *cursor = self.cursor();
                }
                while (cursor.next as usize) <= j {
                    self.advance(o, cursor);
                }
                cursor.last
            }
        }
    }

    /// One step of the AR(1) + burst chain: burst state machine
    /// (geometric start / geometric stop), diurnal envelope, clamp to
    /// [0, 1], then the next deviation.
    #[inline]
    fn advance(&self, o: &Origin, c: &mut TraceCursor) {
        let p = &self.profile;
        let mut rng = StdRng::from_state(c.rng);
        if c.bursting {
            if rng.gen_bool(p.burst_end_prob) {
                c.bursting = false;
            }
        } else if p.burst_prob > 0.0 && rng.gen_bool(p.burst_prob) {
            c.bursting = true;
        }
        let burst = if c.bursting { p.burst_mult } else { 1.0 };
        let envelope = o.clock.envelope[c.next as usize];
        let demand = p.mean_frac * envelope * (1.0 + c.x).max(0.0) * burst;
        c.last = demand.clamp(0.0, 1.0) as f32;
        c.x = p.ar_phi * c.x + o.innov * standard_normal(&mut rng);
        c.rng = rng.state();
        c.next += 1;
    }

    /// Every sample in order, replayed from the start.
    pub fn samples(&self) -> impl Iterator<Item = f32> + '_ {
        let mut cursor = self.cursor();
        (0..self.steps()).map(move |k| self.sample_at(&mut cursor, k))
    }

    /// Demand at `t_secs` as a fraction of the reference host
    /// (piecewise constant between samples, holding the last sample
    /// beyond the end). Replays from the origin: O(step) per call.
    pub fn demand_frac_at(&self, t_secs: f64, step_secs: u64) -> f64 {
        let k = (t_secs / step_secs as f64) as usize;
        self.sample_at(&mut self.cursor(), self.step_index(k, false)) as f64
    }

    /// Demand at `t_secs` in MHz (see [`Self::demand_frac_at`]).
    pub fn demand_mhz_at(&self, t_secs: f64, step_secs: u64) -> f64 {
        frac_to_mhz(self.demand_frac_at(t_secs, step_secs))
    }

    /// Empirical mean of the series (fraction of the reference host) —
    /// the quantity binned by the paper's Fig. 4.
    pub fn measured_mean_frac(&self) -> f64 {
        self.samples().map(|s| s as f64).sum::<f64>() / self.steps() as f64
    }
}

/// A collection of VM traces plus the config that produced (or
/// describes) them.
#[derive(Debug, Clone)]
pub struct TraceSet {
    /// Generation parameters (kept for provenance and for `step_secs`).
    pub config: TraceConfig,
    /// One trace per VM.
    pub vms: Vec<VmTrace>,
}

impl TraceSet {
    /// Generates the full trace set deterministically from the config.
    ///
    /// ```
    /// use ecocloud_traces::{TraceConfig, TraceSet};
    /// let set = TraceSet::generate(TraceConfig::small(1));
    /// assert_eq!(set.len(), 200);
    /// let again = TraceSet::generate(TraceConfig::small(1));
    /// assert!(set.vms[0].samples().eq(again.vms[0].samples()));
    /// ```
    ///
    /// Each VM gets an independent RNG stream derived from
    /// `(config.seed, vm_index)` so the trace of VM *i* does not change
    /// when `n_vms` changes — experiments that subset VMs (the paper's
    /// Fig. 12 uses 1,500 of the 6,000) stay comparable. Only the
    /// profile and the chain's origin are drawn here; samples are
    /// produced when read.
    pub fn generate(config: TraceConfig) -> Self {
        config.validate();
        let clock = Arc::new(Clock::of(&config));
        let vms = (0..config.n_vms)
            .map(|i| {
                let mut rng = StdRng::seed_from_u64(
                    config
                        .seed
                        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                        .wrapping_add(i as u64),
                );
                let profile = VmProfile::sample(&mut rng, &config.mixture);
                VmTrace::generated(profile, &mut rng, &clock)
            })
            .collect();
        Self { config, vms }
    }

    /// Number of VMs.
    pub fn len(&self) -> usize {
        self.vms.len()
    }

    /// True when the set holds no traces.
    pub fn is_empty(&self) -> bool {
        self.vms.is_empty()
    }

    /// Total demand of all VMs at every step `0..config.steps()`, in
    /// MHz, from one forward pass with a cursor per trace (each step
    /// sums the VMs in set order).
    pub fn total_demand_series_mhz(&self) -> Vec<f64> {
        let mut cursors: Vec<TraceCursor> = self.vms.iter().map(VmTrace::cursor).collect();
        (0..self.config.steps())
            .map(|k| {
                self.vms
                    .iter()
                    .zip(&mut cursors)
                    .map(|(vm, c)| frac_to_mhz(vm.sample_at(c, vm.step_index(k, false)) as f64))
                    .sum()
            })
            .collect()
    }

    /// Returns a new set containing the first `n` traces (the Fig. 12
    /// experiment loads 1,500 of the 6,000).
    pub fn take(&self, n: usize) -> TraceSet {
        let mut config = self.config.clone();
        config.n_vms = n.min(self.vms.len());
        TraceSet {
            config,
            vms: self.vms[..n.min(self.vms.len())].to_vec(),
        }
    }
}

/// The generator as it was before traces were streamed: the whole
/// series in one loop. Test-only oracle for the cursor.
#[cfg(test)]
fn generate_series(
    profile: &VmProfile,
    config: &TraceConfig,
    steps: usize,
    rng: &mut StdRng,
) -> Vec<f32> {
    assert!(profile.is_valid(), "invalid profile: {profile:?}");
    let phi = profile.ar_phi;
    // Innovation std chosen so the stationary std of x is rel_sigma.
    let innov = profile.rel_sigma * (1.0 - phi * phi).sqrt();
    // Start from the stationary distribution to avoid a warm-up ramp.
    let mut x = profile.rel_sigma * standard_normal(rng);
    let mut bursting = false;
    let mut out = Vec::with_capacity(steps);
    for k in 0..steps {
        let t = k as u64 * config.step_secs;
        // Burst state machine: geometric start / geometric stop.
        if bursting {
            if rng.gen_bool(profile.burst_end_prob) {
                bursting = false;
            }
        } else if profile.burst_prob > 0.0 && rng.gen_bool(profile.burst_prob) {
            bursting = true;
        }
        let burst = if bursting { profile.burst_mult } else { 1.0 };
        let envelope = config.envelope.at(t as f64);
        let demand = profile.mean_frac * envelope * (1.0 + x).max(0.0) * burst;
        out.push(demand.clamp(0.0, 1.0) as f32);
        x = phi * x + innov * standard_normal(rng);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diurnal::DiurnalEnvelope;

    fn small_set(seed: u64) -> TraceSet {
        TraceSet::generate(TraceConfig::small(seed))
    }

    fn bits(xs: impl Iterator<Item = f32>) -> Vec<u32> {
        xs.map(f32::to_bits).collect()
    }

    /// The oracle's series of VM `i` of the set `config` generates.
    fn oracle(config: &TraceConfig, i: usize) -> Vec<f32> {
        let mut rng = StdRng::seed_from_u64(
            config
                .seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(i as u64),
        );
        let profile = VmProfile::sample(&mut rng, &config.mixture);
        generate_series(&profile, config, config.steps(), &mut rng)
    }

    #[test]
    fn cursor_matches_oracle_bits() {
        let configs = [
            TraceConfig::small(1),
            TraceConfig::small(42),
            TraceConfig {
                n_vms: 40,
                duration_secs: 48 * 3600,
                ..TraceConfig::paper_48h(7)
            },
            TraceConfig {
                envelope: DiurnalEnvelope::flat(),
                ..TraceConfig::small(3)
            },
            // One step.
            TraceConfig {
                duration_secs: 300,
                ..TraceConfig::small(5)
            },
        ];
        for config in configs {
            let set = TraceSet::generate(config.clone());
            for (i, vm) in set.vms.iter().enumerate() {
                let want = oracle(&config, i);
                assert_eq!(vm.steps(), want.len());
                assert_eq!(
                    bits(vm.samples()),
                    bits(want.into_iter()),
                    "seed {} vm {i}",
                    config.seed
                );
            }
        }
    }

    #[test]
    fn cursor_matches_oracle_without_bursts() {
        // Bursts off (burst_prob = 0), plus a constant profile.
        let config = TraceConfig::small(8);
        let clock = Arc::new(Clock::of(&config));
        for (seed, profile) in [
            (
                1,
                VmProfile {
                    burst_prob: 0.0,
                    ..VmProfile::sample(&mut StdRng::seed_from_u64(9), &config.mixture)
                },
            ),
            (2, VmProfile::constant(0.25)),
        ] {
            let mut rng = StdRng::seed_from_u64(seed);
            let vm = VmTrace::generated(profile.clone(), &mut rng, &clock);
            let mut rng = StdRng::seed_from_u64(seed);
            let want = generate_series(&profile, &config, config.steps(), &mut rng);
            assert_eq!(bits(vm.samples()), bits(want.into_iter()));
        }
    }

    #[test]
    fn random_access_matches_sequential() {
        let set = small_set(12);
        let vm = &set.vms[4];
        let all: Vec<f32> = vm.samples().collect();
        let mut c = vm.cursor();
        // Forward, repeated, skipping ahead and going back.
        for j in [0, 0, 1, 5, 5, 6, 40, 3, 71, 71, 0, 70] {
            assert_eq!(vm.sample_at(&mut c, j).to_bits(), all[j].to_bits(), "j {j}");
            assert_eq!(c.next as usize, j + 1);
        }
    }

    #[test]
    fn generated_traces_store_no_samples() {
        let set = small_set(2);
        assert!(set.vms.iter().all(|vm| vm.recorded_samples().is_none()));
        // Profile plus chain origin, independent of the trace length.
        assert!(size_of::<VmTrace>() <= 96);
        let recorded = VmTrace::recorded(VmProfile::constant(0.1), vec![0.1; 3]);
        assert_eq!(recorded.recorded_samples(), Some(&[0.1f32; 3][..]));
    }

    #[test]
    fn generates_requested_dimensions() {
        let ts = small_set(1);
        assert_eq!(ts.len(), 200);
        for vm in &ts.vms {
            assert_eq!(vm.steps(), ts.config.steps());
            assert_eq!(vm.samples().count(), ts.config.steps());
        }
    }

    #[test]
    fn deterministic_for_same_seed() {
        let a = small_set(9);
        let b = small_set(9);
        for (x, y) in a.vms.iter().zip(&b.vms) {
            assert_eq!(bits(x.samples()), bits(y.samples()));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = small_set(1);
        let b = small_set(2);
        let same = a
            .vms
            .iter()
            .zip(&b.vms)
            .all(|(x, y)| x.samples().eq(y.samples()));
        assert!(!same, "different seeds produced identical traces");
    }

    #[test]
    fn vm_streams_stable_under_n_vms_change() {
        let big = TraceSet::generate(TraceConfig {
            n_vms: 50,
            ..TraceConfig::small(5)
        });
        let small = TraceSet::generate(TraceConfig {
            n_vms: 10,
            ..TraceConfig::small(5)
        });
        for i in 0..10 {
            assert_eq!(
                bits(big.vms[i].samples()),
                bits(small.vms[i].samples()),
                "vm {i}"
            );
        }
    }

    #[test]
    fn samples_are_valid_fractions() {
        let ts = small_set(3);
        for vm in &ts.vms {
            for s in vm.samples() {
                assert!((0.0..=1.0).contains(&(s as f64)), "sample {s} out of range");
            }
        }
    }

    #[test]
    fn demand_lookup_holds_last_sample() {
        let ts = small_set(4);
        let vm = &ts.vms[0];
        let last = vm.samples().last().expect("non-empty") as f64;
        let beyond = vm.demand_frac_at(1e9, ts.config.step_secs);
        assert_eq!(beyond, last);
    }

    /// Regression for the open-system flatline bug: the clamped index
    /// holds the last sample forever, so a VM outliving its trace loses
    /// its diurnal shape. The wrapped index must replay the series.
    #[test]
    fn wrapped_lookup_repeats_series_beyond_boundary() {
        let ts = small_set(4);
        let vm = &ts.vms[0];
        let n = vm.steps();
        let all: Vec<f32> = vm.samples().collect();
        let mut c = vm.cursor();
        let mut wrapped = |k: usize| vm.sample_at(&mut c, vm.step_index(k, true));
        // Exactly at the boundary: wraps back to sample 0.
        assert_eq!(wrapped(n), all[0]);
        // One full period later, every in-range sample repeats.
        for k in [0usize, 1, n / 2, n - 1] {
            assert_eq!(wrapped(k + n), all[k], "sample {k} did not repeat");
            assert_eq!(wrapped(k + 3 * n), all[k], "sample {k} did not repeat");
        }
        // In range, wrapped and clamped indices agree.
        for k in 0..n {
            assert_eq!(vm.step_index(k, true), vm.step_index(k, false));
        }
        // The clamped index flatlines there — pin the contrast so the
        // two paths cannot silently converge.
        assert_eq!(vm.step_index(n, false), n - 1);
        assert_eq!(
            vm.demand_frac_at(n as f64 * ts.config.step_secs as f64, ts.config.step_secs),
            all[n - 1] as f64
        );
    }

    #[test]
    fn constant_profile_yields_flat_series() {
        let config = TraceConfig {
            n_vms: 1,
            envelope: DiurnalEnvelope::flat(),
            ..TraceConfig::small(1)
        };
        let profile = VmProfile::constant(0.25);
        let mut rng = StdRng::seed_from_u64(0);
        let series = generate_series(&profile, &config, 10, &mut rng);
        for s in series {
            assert!((s as f64 - 0.25).abs() < 1e-6);
        }
    }

    #[test]
    fn aggregate_load_follows_envelope() {
        // Total demand at the diurnal peak must exceed the trough.
        let ts = TraceSet::generate(TraceConfig {
            n_vms: 400,
            duration_secs: 24 * 3600,
            ..TraceConfig::small(11)
        });
        let totals = ts.total_demand_series_mhz();
        assert_eq!(totals.len(), ts.config.steps());
        let peak = totals[15 * 12];
        let trough = totals[3 * 12];
        assert!(
            peak > 1.5 * trough,
            "diurnal swing missing: peak {peak}, trough {trough}"
        );
        // The forward pass sums exactly what per-time lookups give.
        let at = |t: f64| -> f64 {
            ts.vms
                .iter()
                .map(|vm| vm.demand_mhz_at(t, ts.config.step_secs))
                .sum()
        };
        assert_eq!(peak.to_bits(), at(15.0 * 3600.0).to_bits());
        assert_eq!(trough.to_bits(), at(3.0 * 3600.0).to_bits());
    }

    #[test]
    fn take_subsets_prefix() {
        let ts = small_set(6);
        let sub = ts.take(10);
        assert_eq!(sub.len(), 10);
        assert_eq!(bits(sub.vms[3].samples()), bits(ts.vms[3].samples()));
        assert_eq!(sub.config.n_vms, 10);
    }

    #[test]
    fn measured_mean_tracks_profile_mean() {
        // Long stationary run: the measured mean should approach the
        // profile mean (envelope averages to 1 over whole days).
        let ts = TraceSet::generate(TraceConfig {
            n_vms: 50,
            duration_secs: 10 * 24 * 3600,
            ..TraceConfig::small(8)
        });
        let mut rel_err_sum = 0.0;
        let mut counted = 0;
        for vm in &ts.vms {
            // Bursts push the measured mean slightly above the profile
            // mean; only check VMs that stay away from the [0,1] clamps.
            if vm.profile.mean_frac < 0.2 {
                let measured = vm.measured_mean_frac();
                rel_err_sum += (measured / vm.profile.mean_frac - 1.0).abs();
                counted += 1;
            }
        }
        let mean_rel_err = rel_err_sum / counted as f64;
        assert!(
            mean_rel_err < 0.25,
            "measured means drift from profile means: {mean_rel_err}"
        );
    }
}
