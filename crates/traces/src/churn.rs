//! Open-system workload specification for the main §III experiment.
//!
//! The paper's data center is an *open* system: VMs arrive, run and
//! leave, and a large part of the diurnal load swing of Fig. 6 comes
//! from the population breathing, not from resident VMs ramping their
//! demand. The closed-system reproduction (all 6,000 VMs resident from
//! t = 0) forces every watt of diurnal growth through relocation, which
//! is the Note-1 fidelity gap of EXPERIMENTS.md.
//!
//! [`OpenSystemSpec`] fixes this by splitting the total diurnal
//! envelope between two mechanisms with a single `churn_share` knob:
//!
//! * the **per-VM demand envelope** (share `1 − churn_share` of the
//!   swing), applied at trace generation, and
//! * the **population envelope** (share `churn_share`), realized by a
//!   diurnally-modulated arrival process with exponential lifetimes.
//!
//! The split is exact in peak:trough terms: demand ratio × population
//! ratio = the total Fig. 6 ratio (≈2.6× at the paper amplitude), so
//! total offered load keeps the same swing regardless of the knob.
//!
//! Because an M/M/∞-like population low-pass-filters its arrival rate
//! (a VM that arrived hours ago is still here), driving arrivals with
//! the desired *population* envelope would under-shoot the swing and
//! lag the peak. [`OpenSystemSpec::arrival_process`] pre-compensates
//! analytically (amplitude ×√(1+(ωτ)²), peak advanced by atan(ωτ)/ω)
//! and [`OpenSystemSpec::calibrated_process`] closes the loop with one
//! [`RateEstimate`]-measured correction round on a trial stream.

use crate::arrivals::{ArrivalEvent, ArrivalProcess, RateEstimate};
use crate::diurnal::DiurnalEnvelope;
use ecocloud_rng::{Rng, SeedableRng, StdRng};

/// Seconds in one diurnal period.
const DAY_SECS: f64 = 24.0 * 3600.0;

/// Fixed diurnal amplitude of the churn pool's own population envelope.
/// The pool is sized so that this amplitude carries the whole target
/// population swing (`a_p = pool_fraction × CHURN_POOL_AMPLITUDE`);
/// the rest of the population is *resident* (runs to the end of the
/// simulation), matching the long-running PlanetLab services of §III.
/// 0.7 leaves headroom below the 0.95 clamp once the M/M/∞
/// pre-compensation gain is applied at the 2-hour paper lifetime.
const CHURN_POOL_AMPLITUDE: f64 = 0.7;

/// Seed salts: every stream the spec draws is derived from the caller's
/// seed XOR a distinct constant, so streams never alias each other.
const SALT_TRIAL: u64 = 0x5EED_CA1B;
const SALT_LIFETIMES: u64 = 0x11FE_71E5;
const SALT_INITIAL: u64 = 0x0C_EA11;
const SALT_EXTRAS: u64 = 0xF1A5_4C0D;

/// Service class of an open-system arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChurnClass {
    /// Ordinary interactive VM from the base churn stream.
    Standard,
    /// Member of a batch cohort (fixed lifetime, arrives in a wave).
    Batch,
    /// Spot / preemptible VM the consolidation policy may evict.
    Spot,
}

/// One open-system arrival: when the VM shows up, how long it runs and
/// what class it belongs to.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnArrival {
    /// Arrival time, seconds from the start of the run.
    pub arrive_secs: f64,
    /// Lifetime in seconds (exponential for the base stream; fixed for
    /// batch cohorts and flash-crowd extras).
    pub lifetime_secs: f64,
    /// Service class.
    pub class: ChurnClass,
}

/// Workload archetypes layered on the base steady churn stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Archetype {
    /// Just the calibrated diurnal churn stream.
    Steady,
    /// Steady churn plus a short daily burst of extra arrivals.
    FlashCrowd {
        /// Hour of day the burst is centered on.
        peak_hour: f64,
        /// Burst window width in hours.
        width_hours: f64,
        /// Burst arrival rate as a multiple of the base rate.
        magnitude: f64,
        /// Fixed lifetime of burst VMs, seconds.
        lifetime_secs: f64,
    },
    /// Steady churn plus periodic same-instant cohorts of batch jobs.
    BatchCohorts {
        /// Hours between cohort launches.
        period_hours: f64,
        /// Cohort size as a fraction of the target population.
        cohort_frac: f64,
        /// Fixed batch-job lifetime, hours.
        lifetime_hours: f64,
    },
    /// Steady churn with a fraction of arrivals marked preemptible.
    Spot {
        /// Probability an arrival is a spot VM.
        fraction: f64,
    },
}

impl Archetype {
    /// Stable token used in cache keys and CLI output.
    pub fn name(&self) -> &'static str {
        match self {
            Archetype::Steady => "steady",
            Archetype::FlashCrowd { .. } => "flash",
            Archetype::BatchCohorts { .. } => "batch",
            Archetype::Spot { .. } => "spot",
        }
    }
}

/// Open-system workload spec: target population, lifetime, diurnal
/// split and archetype. See the module docs for the calibration story.
#[derive(Debug, Clone)]
pub struct OpenSystemSpec {
    /// Daily-mean VM population the stream sustains.
    pub target_population: f64,
    /// Mean exponential VM lifetime, seconds.
    pub mean_lifetime_secs: f64,
    /// Share of the diurnal swing carried by population churn
    /// (0 = all in per-VM demand, 1 = all in churn). The knob of the
    /// Note-1 fix.
    pub churn_share: f64,
    /// The total offered-load envelope both mechanisms must compose to.
    pub total_envelope: DiurnalEnvelope,
    /// Extra structure layered on the base stream.
    pub archetype: Archetype,
}

impl OpenSystemSpec {
    /// The §III open-system scenario: 6,000 VMs on average with the
    /// fig12 2-hour mean lifetime, under the paper's Fig. 6 envelope.
    pub fn paper(churn_share: f64, archetype: Archetype) -> Self {
        Self {
            target_population: 6_000.0,
            mean_lifetime_secs: 2.0 * 3600.0,
            churn_share,
            total_envelope: DiurnalEnvelope::paper_default(),
            archetype,
        }
    }

    /// Panics when the spec is out of range (bad knob or dimensions).
    pub fn validate(&self) {
        assert!(
            self.target_population > 0.0 && self.target_population.is_finite(),
            "target_population must be positive, got {}",
            self.target_population
        );
        assert!(
            self.mean_lifetime_secs > 0.0 && self.mean_lifetime_secs.is_finite(),
            "mean_lifetime_secs must be positive, got {}",
            self.mean_lifetime_secs
        );
        assert!(
            (0.0..=1.0).contains(&self.churn_share),
            "churn_share must be in [0, 1], got {}",
            self.churn_share
        );
    }

    /// Splits the total amplitude into `(demand, population)` halves
    /// whose peak:trough ratios multiply back to the total ratio
    /// exactly: `a_d = A(1 − share)` and `a_p` solved from
    /// `R_p = R_total / R_d` with `R = (1+a)/(1−a)`.
    pub fn split_amplitudes(&self) -> (f64, f64) {
        let a = self.total_envelope.amplitude.clamp(0.0, 0.95);
        let a_d = a * (1.0 - self.churn_share);
        let r_total = (1.0 + a) / (1.0 - a);
        let r_d = (1.0 + a_d) / (1.0 - a_d);
        let r_p = r_total / r_d;
        let a_p = (r_p - 1.0) / (r_p + 1.0);
        (a_d, a_p)
    }

    /// Per-VM demand envelope (the reduced-amplitude trace modulation).
    pub fn demand_envelope(&self) -> DiurnalEnvelope {
        let (a_d, _) = self.split_amplitudes();
        DiurnalEnvelope {
            amplitude: a_d,
            peak_hour: self.total_envelope.peak_hour,
        }
    }

    /// Target *population* envelope the churn must realize.
    pub fn population_envelope(&self) -> DiurnalEnvelope {
        let (_, a_p) = self.split_amplitudes();
        DiurnalEnvelope {
            amplitude: a_p,
            peak_hour: self.total_envelope.peak_hour,
        }
    }

    /// Fraction of the daily-mean population that churns; the
    /// complement is resident. The pool is exactly as large as needed
    /// to carry the population swing at `CHURN_POOL_AMPLITUDE`, so a
    /// small `churn_share` does not force the whole data center
    /// through 2-hour lifetimes.
    pub fn churn_fraction(&self) -> f64 {
        let (_, a_p) = self.split_amplitudes();
        (a_p / CHURN_POOL_AMPLITUDE).clamp(0.05, 1.0)
    }

    /// VMs that are present from t = 0 and never depart.
    pub fn resident_population(&self) -> usize {
        (self.target_population * (1.0 - self.churn_fraction())).round() as usize
    }

    /// Daily-mean size of the churning pool.
    pub fn churn_pool_mean(&self) -> f64 {
        self.target_population - self.resident_population() as f64
    }

    /// Diurnal envelope of the churn pool alone: its amplitude is the
    /// total population amplitude scaled up by the inverse pool
    /// fraction, so pool swing × pool size = total swing.
    pub fn churn_pool_envelope(&self) -> DiurnalEnvelope {
        let (_, a_p) = self.split_amplitudes();
        let pool = self.churn_pool_mean();
        let amplitude = if pool <= 0.0 {
            0.0
        } else {
            (a_p * self.target_population / pool).min(0.95)
        };
        DiurnalEnvelope {
            amplitude,
            peak_hour: self.total_envelope.peak_hour,
        }
    }

    /// Mean arrival rate sustaining the churn pool (Little's law:
    /// M = λτ on the pool).
    pub fn base_rate_per_sec(&self) -> f64 {
        self.churn_pool_mean() / self.mean_lifetime_secs
    }

    /// Arrival process with the analytic M/M/∞ pre-compensation: the
    /// population responds to a sinusoidal arrival rate attenuated by
    /// `1/√(1+(ωτ)²)` and delayed by `atan(ωτ)/ω`, so the arrivals are
    /// driven that much harder and earlier.
    pub fn arrival_process(&self) -> ArrivalProcess {
        let pool_amp = self.churn_pool_envelope().amplitude;
        let omega = 2.0 * std::f64::consts::PI / DAY_SECS;
        let wt = omega * self.mean_lifetime_secs;
        let gain = (1.0 + wt * wt).sqrt();
        let lead_hours = wt.atan() / omega / 3600.0;
        ArrivalProcess {
            base_rate_per_sec: self.base_rate_per_sec(),
            envelope: DiurnalEnvelope {
                amplitude: (pool_amp * gain).min(0.95),
                peak_hour: (self.total_envelope.peak_hour - lead_hours).rem_euclid(24.0),
            },
            mean_lifetime_secs: self.mean_lifetime_secs,
        }
    }

    /// Churn-pool size at t = 0 (midnight, the envelope trough side).
    pub fn initial_churn_population(&self) -> usize {
        (self.churn_pool_mean() * self.churn_pool_envelope().at(0.0)).round() as usize
    }

    /// Total VM population at t = 0: the resident base plus the churn
    /// pool at its midnight level.
    pub fn initial_population(&self) -> usize {
        self.resident_population() + self.initial_churn_population()
    }

    /// Residual lifetimes of the initial *churn* population (the
    /// resident base never departs) — exponential with the stream mean
    /// (memorylessness makes the residual of an in-progress exponential
    /// lifetime exponential again).
    pub fn initial_lifetimes(&self, seed: u64) -> Vec<f64> {
        let process = self.arrival_process();
        let mut rng = StdRng::seed_from_u64(seed ^ SALT_INITIAL);
        (0..self.initial_churn_population())
            .map(|_| process.sample_lifetime(&mut rng))
            .collect()
    }

    /// Arrival process after one measured correction round: generate a
    /// trial stream (a seed derived from — but distinct from — the
    /// production seed), measure the realized population swing with
    /// [`RateEstimate`], and rescale the arrival amplitude by the
    /// desired/measured ratio. Catches what the sinusoidal small-signal
    /// analysis misses (thinning bias, the `max(0)` envelope clamp,
    /// finite-horizon truncation).
    pub fn calibrated_process(&self, duration_secs: f64, seed: u64) -> ArrivalProcess {
        self.validate();
        let mut process = self.arrival_process();
        let (_, a_p) = self.split_amplitudes();
        if a_p < 1e-9 || duration_secs < DAY_SECS {
            // Flat target or too short a horizon to observe a swing.
            return process;
        }
        let trial_seed = seed ^ SALT_TRIAL;
        let trial = Self::events_from_stream(
            &process.generate_arrivals(duration_secs, trial_seed),
            &process,
            trial_seed,
            &self.initial_lifetimes(trial_seed),
        );
        let est =
            RateEstimate::from_events(&trial, self.initial_population(), duration_secs, 3600.0);
        // Measure the swing over the final full day (transients from the
        // initial population have washed out after a few lifetimes).
        let windows = est.population.len();
        let last_day = windows.saturating_sub(24);
        let day = &est.population[last_day..];
        let hi = day.iter().copied().fold(f64::MIN, f64::max);
        let lo = day.iter().copied().fold(f64::MAX, f64::min);
        if hi > lo && lo > 0.0 {
            let measured = (hi - lo) / (hi + lo);
            if measured > 1e-6 {
                let corrected = process.envelope.amplitude * (a_p / measured);
                process.envelope.amplitude = corrected.clamp(0.0, 0.95);
            }
        }
        process
    }

    /// Turns an arrival-time stream into the `ArrivalEvent` list
    /// (arrival + implied departure per VM, plus the initial
    /// population's departures) that [`RateEstimate`] consumes.
    fn events_from_stream(
        arrivals: &[f64],
        process: &ArrivalProcess,
        seed: u64,
        initial_lifetimes: &[f64],
    ) -> Vec<ArrivalEvent> {
        let mut rng = StdRng::seed_from_u64(seed ^ SALT_LIFETIMES);
        let mut events = Vec::with_capacity(arrivals.len() * 2 + initial_lifetimes.len());
        for &t in arrivals {
            let life = process.sample_lifetime(&mut rng);
            events.push(ArrivalEvent::Arrival(t));
            events.push(ArrivalEvent::Departure(t + life));
        }
        for &life in initial_lifetimes {
            events.push(ArrivalEvent::Departure(life));
        }
        events
    }

    /// Event list for verifying a generated stream against the target
    /// envelope (see the calibration tests and EXPERIMENTS.md).
    pub fn verification_events(
        arrivals: &[ChurnArrival],
        initial_lifetimes: &[f64],
    ) -> Vec<ArrivalEvent> {
        let mut events = Vec::with_capacity(arrivals.len() * 2 + initial_lifetimes.len());
        for a in arrivals {
            events.push(ArrivalEvent::Arrival(a.arrive_secs));
            events.push(ArrivalEvent::Departure(a.arrive_secs + a.lifetime_secs));
        }
        for &life in initial_lifetimes {
            events.push(ArrivalEvent::Departure(life));
        }
        events
    }

    /// Generates the full open-system arrival stream over
    /// `[0, duration_secs)`: the calibrated base churn plus whatever
    /// the archetype layers on top, sorted by arrival time.
    pub fn generate(&self, duration_secs: f64, seed: u64) -> Vec<ChurnArrival> {
        self.validate();
        let process = self.calibrated_process(duration_secs, seed);
        let mut lifetime_rng = StdRng::seed_from_u64(seed ^ SALT_LIFETIMES);
        let mut extras_rng = StdRng::seed_from_u64(seed ^ SALT_EXTRAS);
        let mut out: Vec<ChurnArrival> = process
            .generate_arrivals(duration_secs, seed)
            .into_iter()
            .map(|t| ChurnArrival {
                arrive_secs: t,
                lifetime_secs: process.sample_lifetime(&mut lifetime_rng),
                class: ChurnClass::Standard,
            })
            .collect();
        match self.archetype {
            Archetype::Steady => {}
            Archetype::FlashCrowd {
                peak_hour,
                width_hours,
                magnitude,
                lifetime_secs,
            } => {
                // One burst per simulated day: `magnitude` times the
                // base rate, uniformly over the burst window.
                let width_secs = width_hours * 3600.0;
                let n_per_burst =
                    (magnitude * process.base_rate_per_sec * width_secs).round() as usize;
                let mut day_start = 0.0;
                while day_start < duration_secs {
                    let center = day_start + peak_hour * 3600.0;
                    let lo = center - width_secs / 2.0;
                    for _ in 0..n_per_burst {
                        let t = lo + extras_rng.gen_range(0.0..1.0) * width_secs;
                        if (0.0..duration_secs).contains(&t) {
                            out.push(ChurnArrival {
                                arrive_secs: t,
                                lifetime_secs,
                                class: ChurnClass::Standard,
                            });
                        }
                    }
                    day_start += DAY_SECS;
                }
            }
            Archetype::BatchCohorts {
                period_hours,
                cohort_frac,
                lifetime_hours,
            } => {
                let period_secs = (period_hours * 3600.0).max(1.0);
                let cohort = (cohort_frac * self.target_population).round() as usize;
                let lifetime = lifetime_hours * 3600.0;
                // First cohort launches one period in, not at t = 0 —
                // the initial population already covers the start.
                let mut t = period_secs;
                while t < duration_secs {
                    for _ in 0..cohort {
                        out.push(ChurnArrival {
                            arrive_secs: t,
                            lifetime_secs: lifetime,
                            class: ChurnClass::Batch,
                        });
                    }
                    t += period_secs;
                }
            }
            Archetype::Spot { fraction } => {
                let fraction = fraction.clamp(0.0, 1.0);
                for a in &mut out {
                    if fraction > 0.0 && extras_rng.gen_bool(fraction) {
                        a.class = ChurnClass::Spot;
                    }
                }
            }
        }
        // Stable sort keeps the intra-instant order (batch cohorts)
        // deterministic.
        out.sort_by(|a, b| a.arrive_secs.total_cmp(&b.arrive_secs));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecocloud_rng::{Rng, SeedableRng, StdRng};

    fn small_spec(share: f64, archetype: Archetype) -> OpenSystemSpec {
        OpenSystemSpec {
            target_population: 300.0,
            mean_lifetime_secs: 2.0 * 3600.0,
            churn_share: share,
            total_envelope: DiurnalEnvelope::paper_default(),
            archetype,
        }
    }

    #[test]
    fn split_preserves_total_peak_trough_ratio() {
        for share in [0.0, 0.25, 0.5, 0.75, 1.0] {
            let spec = OpenSystemSpec::paper(share, Archetype::Steady);
            let (a_d, a_p) = spec.split_amplitudes();
            let r_d = (1.0 + a_d) / (1.0 - a_d);
            let r_p = (1.0 + a_p) / (1.0 - a_p);
            let r_total = spec.total_envelope.peak_to_trough();
            assert!(
                (r_d * r_p - r_total).abs() < 1e-9,
                "share {share}: {r_d} × {r_p} ≠ {r_total}"
            );
        }
    }

    #[test]
    fn split_endpoints_put_all_swing_on_one_side() {
        let all_demand = OpenSystemSpec::paper(0.0, Archetype::Steady);
        let (a_d, a_p) = all_demand.split_amplitudes();
        assert!((a_d - 0.45).abs() < 1e-12);
        assert!(a_p.abs() < 1e-12);
        let all_churn = OpenSystemSpec::paper(1.0, Archetype::Steady);
        let (a_d, a_p) = all_churn.split_amplitudes();
        assert!(a_d.abs() < 1e-12);
        assert!((a_p - 0.45).abs() < 1e-12);
    }

    #[test]
    fn arrival_envelope_is_precompensated() {
        let spec = OpenSystemSpec::paper(0.5, Archetype::Steady);
        let (_, a_p) = spec.split_amplitudes();
        let p = spec.arrival_process();
        // Amplitude boosted for the M/M/∞ attenuation…
        assert!(p.envelope.amplitude > a_p);
        // …and the peak advanced (arrivals lead the population).
        assert!(p.envelope.peak_hour < spec.total_envelope.peak_hour);
        // Little's law on the mean rate of the churn pool.
        let n = p.base_rate_per_sec * p.mean_lifetime_secs;
        assert!((n - spec.churn_pool_mean()).abs() < 1e-9);
    }

    #[test]
    fn churn_pool_is_sized_to_carry_the_population_swing() {
        for share in [0.1, 0.5, 1.0] {
            let spec = OpenSystemSpec::paper(share, Archetype::Steady);
            let (_, a_p) = spec.split_amplitudes();
            let resident = spec.resident_population() as f64;
            let pool = spec.churn_pool_mean();
            // Partition of the daily mean…
            assert!((resident + pool - spec.target_population).abs() < 1e-9);
            // …and pool swing × pool size reproduces the total swing.
            let realized = spec.churn_pool_envelope().amplitude * pool / spec.target_population;
            assert!(
                (realized - a_p).abs() < 1e-2,
                "share {share}: realized {realized} vs a_p {a_p}"
            );
        }
        // The all-demand endpoint keeps a minimal pool so the open
        // machinery still exercises arrivals.
        let flat = OpenSystemSpec::paper(0.0, Archetype::Steady);
        assert!(flat.churn_pool_mean() > 0.0);
    }

    #[test]
    fn generate_is_seed_deterministic() {
        let spec = small_spec(0.5, Archetype::Steady);
        let a = spec.generate(DAY_SECS, 7);
        let b = spec.generate(DAY_SECS, 7);
        assert_eq!(a, b);
        let c = spec.generate(DAY_SECS, 8);
        assert_ne!(a, c, "different seeds produced identical streams");
    }

    #[test]
    fn calibrated_population_swing_matches_target() {
        // The acceptance check of the tentpole's calibration: drive the
        // paper spec for 48 h and verify the realized population swing
        // matches the target envelope to within Poisson noise.
        let spec = OpenSystemSpec::paper(0.5, Archetype::Steady);
        let (_, a_p) = spec.split_amplitudes();
        let duration = 2.0 * DAY_SECS;
        let seed = 42;
        let arrivals = spec.generate(duration, seed);
        let events = OpenSystemSpec::verification_events(&arrivals, &spec.initial_lifetimes(seed));
        let est = RateEstimate::from_events(&events, spec.initial_population(), duration, 3600.0);
        let day = &est.population[24..];
        let hi = day.iter().copied().fold(f64::MIN, f64::max);
        let lo = day.iter().copied().fold(f64::MAX, f64::min);
        let measured = (hi - lo) / (hi + lo);
        assert!(
            (measured - a_p).abs() < 0.05,
            "population swing {measured:.3} vs target {a_p:.3}"
        );
        // Mean population near the target (within a few percent).
        let mean = day.iter().sum::<f64>() / day.len() as f64;
        let rel = (mean / spec.target_population - 1.0).abs();
        assert!(rel < 0.10, "mean population off by {rel:.3}");
        // Population peaks in the afternoon, not at night.
        let peak_w = 24
            + day
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .map(|(i, _)| i)
                .unwrap_or(0);
        let peak_hour = (peak_w % 24) as f64;
        assert!(
            (10.0..=20.0).contains(&peak_hour),
            "population peaked at hour {peak_hour}"
        );
    }

    #[test]
    fn flash_crowd_concentrates_arrivals_in_window() {
        let spec = small_spec(
            0.5,
            Archetype::FlashCrowd {
                peak_hour: 20.0,
                width_hours: 1.0,
                magnitude: 6.0,
                lifetime_secs: 1800.0,
            },
        );
        let arrivals = spec.generate(DAY_SECS, 9);
        let count_in = |lo_h: f64, hi_h: f64| {
            arrivals
                .iter()
                .filter(|a| a.arrive_secs >= lo_h * 3600.0 && a.arrive_secs < hi_h * 3600.0)
                .count()
        };
        let burst = count_in(19.5, 20.5);
        let control = count_in(17.0, 18.0);
        assert!(
            burst > 3 * control,
            "burst window {burst} not above control hour {control}"
        );
    }

    #[test]
    fn batch_cohorts_arrive_in_waves_with_fixed_lifetime() {
        let spec = small_spec(
            0.5,
            Archetype::BatchCohorts {
                period_hours: 6.0,
                cohort_frac: 0.1,
                lifetime_hours: 2.0,
            },
        );
        let arrivals = spec.generate(DAY_SECS, 10);
        let batch: Vec<_> = arrivals
            .iter()
            .filter(|a| a.class == ChurnClass::Batch)
            .collect();
        // Cohorts at 6 h, 12 h, 18 h — 3 waves of 30 VMs.
        assert_eq!(batch.len(), 3 * 30);
        for b in &batch {
            assert_eq!(b.lifetime_secs, 2.0 * 3600.0);
            let h = b.arrive_secs / 3600.0;
            assert!((h / 6.0 - (h / 6.0).round()).abs() < 1e-9, "wave at {h}");
        }
    }

    #[test]
    fn spot_fraction_is_respected() {
        let spec = small_spec(0.5, Archetype::Spot { fraction: 0.3 });
        let arrivals = spec.generate(2.0 * DAY_SECS, 11);
        let spot = arrivals
            .iter()
            .filter(|a| a.class == ChurnClass::Spot)
            .count() as f64;
        let frac = spot / arrivals.len() as f64;
        assert!(
            (frac - 0.3).abs() < 0.05,
            "spot fraction {frac:.3} far from 0.3"
        );
    }

    #[test]
    fn initial_population_sits_on_the_envelope() {
        let spec = OpenSystemSpec::paper(1.0, Archetype::Steady);
        // At midnight the paper envelope is well below its mean.
        let n = spec.initial_population() as f64;
        assert!(n < spec.target_population);
        assert!(n > 0.3 * spec.target_population);
        assert_eq!(
            spec.initial_lifetimes(3).len(),
            spec.initial_churn_population()
        );
        assert_eq!(
            spec.initial_population(),
            spec.resident_population() + spec.initial_churn_population()
        );
    }

    /// Satellite: arrival/lifetime streams are seed-stable, sorted,
    /// in range and positive, for any share/seed/archetype choice.
    #[test]
    fn prop_generate_streams_are_stable_and_well_formed() {
        let mut rng = StdRng::seed_from_u64(21);
        for _ in 0..256 {
            let seed = rng.gen_range(0u64..1_000);
            let share_pct = rng.gen_range(0u32..=100);
            let arch_idx = rng.gen_range(0usize..4);
            let archetype = [
                Archetype::Steady,
                Archetype::FlashCrowd {
                    peak_hour: 20.0,
                    width_hours: 1.0,
                    magnitude: 4.0,
                    lifetime_secs: 1800.0,
                },
                Archetype::BatchCohorts {
                    period_hours: 6.0,
                    cohort_frac: 0.05,
                    lifetime_hours: 2.0,
                },
                Archetype::Spot { fraction: 0.25 },
            ][arch_idx];
            let spec = OpenSystemSpec {
                target_population: 50.0,
                mean_lifetime_secs: 3600.0,
                churn_share: share_pct as f64 / 100.0,
                total_envelope: DiurnalEnvelope::paper_default(),
                archetype,
            };
            let duration = DAY_SECS / 2.0;
            let a = spec.generate(duration, seed);
            let b = spec.generate(duration, seed);
            assert_eq!(&a, &b);
            for w in a.windows(2) {
                assert!(w[0].arrive_secs <= w[1].arrive_secs);
            }
            for x in &a {
                assert!((0.0..duration).contains(&x.arrive_secs));
                assert!(x.lifetime_secs > 0.0);
                if !matches!(archetype, Archetype::Spot { .. }) {
                    assert!(x.class != ChurnClass::Spot);
                }
            }
        }
    }
}
