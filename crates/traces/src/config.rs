//! Trace-generation configuration.

use crate::diurnal::DiurnalEnvelope;
use crate::profile::MeanMixture;
use crate::units::TRACE_STEP_SECS;

/// Full configuration of a synthetic trace set.
#[derive(Debug, Clone)]
pub struct TraceConfig {
    /// Number of VM traces to generate (paper: 6,000).
    pub n_vms: usize,
    /// Trace duration in seconds (paper's main experiment: 48 h).
    pub duration_secs: u64,
    /// Sampling step in seconds (CoMon: 300 s).
    pub step_secs: u64,
    /// RNG seed — the whole trace set is a pure function of the config.
    pub seed: u64,
    /// Mean-demand mixture parameters.
    pub mixture: MeanMixture,
    /// Shared day/night envelope.
    pub envelope: DiurnalEnvelope,
}

impl TraceConfig {
    /// The paper's §III scenario: 6,000 VMs, 48 hours, 5-minute samples.
    pub fn paper_48h(seed: u64) -> Self {
        Self {
            n_vms: 6000,
            duration_secs: 48 * 3600,
            step_secs: TRACE_STEP_SECS,
            seed,
            mixture: MeanMixture::default(),
            envelope: DiurnalEnvelope::paper_default(),
        }
    }

    /// The paper's §IV scenario: 1,500 VMs "randomly chosen among the
    /// 6,000", 18 hours, starting at midnight.
    pub fn paper_fig12(seed: u64) -> Self {
        Self {
            n_vms: 1500,
            duration_secs: 18 * 3600,
            step_secs: TRACE_STEP_SECS,
            seed,
            mixture: MeanMixture::default(),
            envelope: DiurnalEnvelope::paper_default(),
        }
    }

    /// A small fast configuration for tests and the quickstart example.
    pub fn small(seed: u64) -> Self {
        Self {
            n_vms: 200,
            duration_secs: 6 * 3600,
            step_secs: TRACE_STEP_SECS,
            seed,
            mixture: MeanMixture::default(),
            envelope: DiurnalEnvelope::paper_default(),
        }
    }

    /// Number of samples per VM (at least one; the sample at `t` covers
    /// `[t, t + step)`).
    pub fn steps(&self) -> usize {
        (self.duration_secs / self.step_secs).max(1) as usize
    }

    /// Panics with a descriptive message when the configuration is
    /// unusable (zero VMs, zero step, ...).
    pub fn validate(&self) {
        assert!(self.n_vms > 0, "n_vms must be positive");
        assert!(self.step_secs > 0, "step_secs must be positive");
        assert!(
            self.duration_secs >= self.step_secs,
            "duration must cover at least one step"
        );
        assert!(
            u32::try_from(self.steps()).is_ok(),
            "duration / step must fit in u32 steps"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_configs_have_paper_dimensions() {
        let c = TraceConfig::paper_48h(1);
        assert_eq!(c.n_vms, 6000);
        assert_eq!(c.steps(), 48 * 12);
        let f = TraceConfig::paper_fig12(1);
        assert_eq!(f.n_vms, 1500);
        assert_eq!(f.steps(), 18 * 12);
    }

    #[test]
    #[should_panic(expected = "n_vms")]
    fn rejects_zero_vms() {
        let mut c = TraceConfig::small(1);
        c.n_vms = 0;
        c.validate();
    }

    #[test]
    #[should_panic(expected = "duration")]
    fn rejects_subsample_duration() {
        let mut c = TraceConfig::small(1);
        c.duration_secs = 10;
        c.validate();
    }
}
