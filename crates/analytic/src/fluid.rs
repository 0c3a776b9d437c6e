//! The fluid ODE model of the assignment procedure (paper §IV).
//!
//! The state is the vector of server utilizations `u_s(t) ∈ [0, 1]`,
//! evolving as (Eq. 5, with the share normalization of
//! [`crate::share`]):
//!
//! ```text
//! du_s/dt = −N_c μ(t) u_s(t) + λ(t) · w̄ · A_s(t)
//! ```
//!
//! * `λ(t)` — VM arrival rate (VMs/second),
//! * `N_c μ(t)` — the per-VM departure rate (the paper expresses it as
//!   a per-core service rate `μ`; a uniformly random departing VM
//!   removes utilization proportional to `u_s`),
//! * `w̄` — mean VM load as a fraction of one server's capacity (the
//!   fluid "quantum" of utilization; the paper's unit-VM assumption),
//! * `A_s(t)` — the assignment share, computed from
//!   `f_a(u_i(t))` either exactly (Eqs. 6–9) or with the simplified
//!   proportional rule (Eq. 11).
//!
//! Servers are *activated* when the probability that an arriving VM
//! finds no volunteer exceeds a threshold (the fluid analogue of the
//! manager's wake-up rule) and *hibernated* when their utilization
//! decays below `u_off`. Integration is classic fixed-step RK4.

use crate::quadrature::GaussLegendre;
use crate::share::{exact_rule_nodes, simplified_shares, ExactShareKernel};
use ecocloud_core::AssignmentFunction;

/// Which share formula drives the model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShareModel {
    /// Corrected Eqs. 6–9 (combinatorial, exact).
    Exact,
    /// Eq. 11 (proportional, `O(N)`).
    Simplified,
}

/// Configuration of the fluid model.
#[derive(Debug, Clone)]
pub struct FluidConfig {
    /// Assignment function `f_a` (paper: `T_a = 0.9`, `p = 3`).
    pub fa: AssignmentFunction,
    /// Exact or simplified shares.
    pub share_model: ShareModel,
    /// Mean VM load as a fraction of one server's capacity (`w̄`).
    pub mean_vm_load: f64,
    /// RK4 time step, seconds.
    pub dt_secs: f64,
    /// Cadence of the activation/hibernation controller, seconds.
    pub control_interval_secs: f64,
    /// Wake a server when `Π (1 − f_a(u_i))` over active servers
    /// exceeds this (arrivals are likely to find no volunteer).
    pub wake_reject_threshold: f64,
    /// Seed utilization granted to a freshly activated server (must
    /// exceed `u_off`; `f_a(0) = 0` would otherwise starve it).
    pub u_seed: f64,
    /// Hibernate an active server when its utilization decays below
    /// this value.
    pub u_off: f64,
    /// Minimum age before a freshly activated server may hibernate,
    /// seconds (gives the seed time to attract load — the paper's
    /// Fig. 13 shows surplus activations decaying away naturally).
    pub min_age_secs: f64,
    /// Recording cadence for the solution, seconds.
    pub sample_interval_secs: f64,
}

impl FluidConfig {
    /// Parameters matching the paper's §IV experiment.
    pub fn paper(share_model: ShareModel, mean_vm_load: f64) -> Self {
        Self {
            fa: AssignmentFunction::paper(),
            share_model,
            mean_vm_load,
            dt_secs: 10.0,
            control_interval_secs: 60.0,
            wake_reject_threshold: 0.5,
            u_seed: 0.02,
            u_off: 0.005,
            min_age_secs: 600.0,
            sample_interval_secs: 1800.0,
        }
    }

    fn validate(&self) {
        assert!(self.mean_vm_load > 0.0, "mean VM load must be positive");
        assert!(self.dt_secs > 0.0, "dt must be positive");
        assert!(self.u_seed > self.u_off, "u_seed must exceed u_off");
        assert!(
            (0.0..=1.0).contains(&self.wake_reject_threshold),
            "wake threshold is a probability"
        );
    }
}

/// The recorded solution.
#[derive(Debug, Clone)]
pub struct FluidSolution {
    /// Sample times, seconds.
    pub times_secs: Vec<f64>,
    /// Per-sample utilization of every server (hibernated = 0).
    pub u: Vec<Vec<f32>>,
    /// Per-sample count of active servers.
    pub active_count: Vec<usize>,
    /// Per-sample overall load (`Σ u_s / N_s`, for homogeneous fleets
    /// this equals demand over total capacity).
    pub overall_load: Vec<f64>,
    /// Total activations performed by the controller.
    pub activations: u64,
    /// Total hibernations performed by the controller.
    pub hibernations: u64,
}

impl FluidSolution {
    /// Number of active servers at the final sample.
    pub fn final_active(&self) -> usize {
        *self.active_count.last().expect("solution has samples")
    }
}

/// The share formula of one solve. The exact kernel holds the
/// quadrature rule for the solve's fleet size, built once per solve.
enum Shares {
    Exact(ExactShareKernel),
    Simplified,
}

impl Shares {
    fn of(&mut self, f: &[f64]) -> Vec<f64> {
        match self {
            Self::Exact(kernel) => kernel.shares(f),
            Self::Simplified => simplified_shares(f),
        }
    }
}

/// The fluid model of the assignment-only data center.
pub struct FluidModel {
    config: FluidConfig,
    /// λ(t) in VMs/second.
    lambda: Box<dyn Fn(f64) -> f64>,
    /// Per-VM departure rate (the paper's `N_c μ(t)`), 1/second.
    departure_rate: Box<dyn Fn(f64) -> f64>,
    /// Multiplicative per-VM demand envelope `e(t)` (default 1).
    demand_envelope: Box<dyn Fn(f64) -> f64>,
}

impl FluidModel {
    /// Creates a model with time-varying rates.
    pub fn new(
        config: FluidConfig,
        lambda: impl Fn(f64) -> f64 + 'static,
        departure_rate: impl Fn(f64) -> f64 + 'static,
    ) -> Self {
        config.validate();
        Self {
            config,
            lambda: Box::new(lambda),
            departure_rate: Box::new(departure_rate),
            demand_envelope: Box::new(|_| 1.0),
        }
    }

    /// Adds a per-VM demand envelope `e(t)`: the instantaneous VM load
    /// becomes `w̄ · e(t)`, so `u_s = n_s · w̄ · e(t)` and the chain
    /// rule contributes an extra `u_s · e'(t)/e(t)` term to Eq. 5 —
    /// this is how the paper's diurnal demand pattern (the traces'
    /// day/night swing) enters the analytical model alongside the
    /// arrival/departure dynamics.
    pub fn with_demand_envelope(mut self, envelope: impl Fn(f64) -> f64 + 'static) -> Self {
        self.demand_envelope = Box::new(envelope);
        self
    }

    /// Right-hand side of the ODE for the active servers.
    /// `u` and the returned vector are indexed like `active`.
    fn rhs(&self, t: f64, u: &[f64], active: &[bool], shares: &mut Shares) -> Vec<f64> {
        let lambda = (self.lambda)(t);
        let dep = (self.departure_rate)(t);
        let env = (self.demand_envelope)(t).max(1e-9);
        // Logarithmic derivative of the envelope (central difference):
        // existing VMs' demands scale with e(t), so utilization carries
        // a u·e'/e drift on top of the arrival/departure balance.
        let h = 30.0;
        let env_p = (self.demand_envelope)(t + h).max(1e-9);
        let env_m = (self.demand_envelope)((t - h).max(0.0)).max(1e-9);
        let dlog_env = (env_p - env_m) / ((t + h - (t - h).max(0.0)) * env);
        // `eval` recomputes M_p (three `powf`) per server; hoisting it
        // feeds the same divisor to the same division.
        let fa = &self.config.fa;
        let m_p = fa.m_p();
        let f: Vec<f64> = u
            .iter()
            .zip(active)
            .map(|(&ui, &a)| if a { fa.eval_normalized(ui, m_p) } else { 0.0 })
            .collect();
        let shares = shares.of(&f);
        u.iter()
            .zip(active)
            .zip(&shares)
            .map(|((&ui, &a), &share)| {
                if !a {
                    0.0
                } else {
                    -dep * ui + lambda * self.config.mean_vm_load * env * share + ui * dlog_env
                }
            })
            .collect()
    }

    /// Integrates the model from `u0` over `[0, duration]`.
    ///
    /// Servers with `u0 > 0` start active; the rest start hibernated.
    pub fn solve(&self, u0: &[f64], duration_secs: f64) -> FluidSolution {
        let n = u0.len();
        assert!(n > 0, "need at least one server");
        let mut shares = match self.config.share_model {
            ShareModel::Exact => Shares::Exact(ExactShareKernel::new(GaussLegendre::new(
                exact_rule_nodes(n),
            ))),
            ShareModel::Simplified => Shares::Simplified,
        };
        let mut u: Vec<f64> = u0.to_vec();
        let mut active: Vec<bool> = u0.iter().map(|&x| x > 0.0).collect();
        let mut activated_at: Vec<f64> = vec![0.0; n];
        let dt = self.config.dt_secs;
        let mut next_control = 0.0;
        let mut next_sample = 0.0;
        let mut out = FluidSolution {
            times_secs: Vec::new(),
            u: Vec::new(),
            active_count: Vec::new(),
            overall_load: Vec::new(),
            activations: 0,
            hibernations: 0,
        };
        let mut t = 0.0;
        loop {
            if t >= next_sample - 1e-9 {
                out.times_secs.push(t);
                out.u.push(u.iter().map(|&x| x as f32).collect());
                out.active_count.push(active.iter().filter(|&&a| a).count());
                out.overall_load.push(u.iter().sum::<f64>() / n as f64);
                next_sample += self.config.sample_interval_secs;
            }
            if t >= duration_secs - 1e-9 {
                break;
            }
            if t >= next_control - 1e-9 {
                self.control(t, &mut u, &mut active, &mut activated_at, &mut out);
                next_control += self.config.control_interval_secs;
            }
            // One RK4 step on the active subsystem.
            let h = dt.min(duration_secs - t);
            let k1 = self.rhs(t, &u, &active, &mut shares);
            let u2: Vec<f64> = u.iter().zip(&k1).map(|(x, k)| x + 0.5 * h * k).collect();
            let k2 = self.rhs(t + 0.5 * h, &u2, &active, &mut shares);
            let u3: Vec<f64> = u.iter().zip(&k2).map(|(x, k)| x + 0.5 * h * k).collect();
            let k3 = self.rhs(t + 0.5 * h, &u3, &active, &mut shares);
            let u4: Vec<f64> = u.iter().zip(&k3).map(|(x, k)| x + h * k).collect();
            let k4 = self.rhs(t + h, &u4, &active, &mut shares);
            for i in 0..n {
                u[i] += h / 6.0 * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]);
                u[i] = u[i].clamp(0.0, 1.0);
            }
            t += h;
        }
        out
    }

    /// Activation / hibernation controller (the fluid analogue of the
    /// manager's wake-up and the idle server's switch-off).
    fn control(
        &self,
        t: f64,
        u: &mut [f64],
        active: &mut [bool],
        activated_at: &mut [f64],
        out: &mut FluidSolution,
    ) {
        // Hibernate decayed servers.
        for i in 0..u.len() {
            if active[i]
                && u[i] < self.config.u_off
                && t - activated_at[i] >= self.config.min_age_secs
            {
                active[i] = false;
                u[i] = 0.0;
                out.hibernations += 1;
            }
        }
        // Wake a server when arrivals are likely to find no volunteer.
        // With no arrival stream there is nothing to place and no
        // reason to wake anyone.
        if (self.lambda)(t) <= 0.0 {
            return;
        }
        let reject_prob: f64 = u
            .iter()
            .zip(active.iter())
            .filter(|&(_, &a)| a)
            .map(|(&ui, _)| 1.0 - self.config.fa.eval(ui))
            .product();
        if reject_prob > self.config.wake_reject_threshold {
            if let Some(i) = (0..u.len()).find(|&i| !active[i]) {
                active[i] = true;
                u[i] = self.config.u_seed;
                activated_at[i] = t;
                out.activations += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(share: ShareModel, lambda: f64, dep: f64) -> FluidModel {
        FluidModel::new(
            FluidConfig::paper(share, 0.02),
            move |_| lambda,
            move |_| dep,
        )
    }

    /// FNV-1a over every bit of a solution.
    fn solution_hash(sol: &FluidSolution) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |word: u64| {
            for byte in word.to_le_bytes() {
                h = (h ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
            }
        };
        for (i, &t) in sol.times_secs.iter().enumerate() {
            eat(t.to_bits());
            eat(sol.active_count[i] as u64);
            eat(sol.overall_load[i].to_bits());
            for &x in &sol.u[i] {
                eat(u64::from(x.to_bits()));
            }
        }
        eat(sol.activations);
        eat(sol.hibernations);
        h
    }

    #[test]
    fn pinned_solution_bits() {
        // 100 heterogeneous servers, a tenth of them hibernated at the
        // start, under constant churn. The hashes pin every output bit
        // of both share models, so any reordering of the share
        // arithmetic or of the RK4 step shows up here.
        let u0: Vec<f64> = (0..100)
            .map(|i| {
                if i % 10 == 3 {
                    0.0
                } else {
                    0.05 + 0.8 * ((i * 37) % 100) as f64 / 100.0
                }
            })
            .collect();
        let dep = 1.0 / 3600.0;
        let lambda = 30.0 * dep / 0.02;
        let hash = |share| solution_hash(&model(share, lambda, dep).solve(&u0, 2.0 * 3600.0));
        assert_eq!(
            [hash(ShareModel::Simplified), hash(ShareModel::Exact)],
            [0x8066_b69a_946f_61ef, 0xfa86_a479_4414_a198],
            "fluid solution bits moved"
        );
    }

    #[test]
    fn no_arrivals_drains_everything() {
        let m = model(ShareModel::Simplified, 0.0, 1.0 / 3600.0);
        let sol = m.solve(&[0.3; 10], 12.0 * 3600.0);
        // After 12 mean lifetimes every server has decayed and
        // hibernated.
        assert_eq!(sol.final_active(), 0);
        assert!(sol.hibernations >= 10);
    }

    #[test]
    fn consolidation_from_spread_initial_state() {
        // 20 servers at ~20 % with sustained churn: steady state packs
        // the load on a few servers near T_a (the Fig. 13 behaviour).
        // Total load 20·0.2 = 4.0 server-equivalents. λ w̄ / dep
        // balances at that load: dep = 1/2h per VM, λ = load·dep/w̄.
        let dep = 1.0 / (2.0 * 3600.0);
        let lambda = 4.0 * dep / 0.02;
        let m = model(ShareModel::Simplified, lambda, dep);
        // Slightly heterogeneous initial utilizations (mean 0.2): a
        // perfectly symmetric state is an unstable equilibrium of the
        // deterministic ODE and would never break symmetry — the
        // paper's Fig. 13 likewise starts from the sim's uneven
        // initial placement.
        let u0: Vec<f64> = (0..20).map(|i| 0.15 + 0.005 * i as f64).collect();
        let sol = m.solve(&u0, 12.0 * 3600.0);
        let active = sol.final_active();
        // ≈ 4.0 / 0.9 ≈ 4.4 → expect 4–7 servers, certainly not 20.
        assert!(
            (4..=8).contains(&active),
            "consolidated to {active} servers"
        );
        // Active servers sit near the threshold.
        let last = sol.u.last().expect("samples");
        let near_ta = last.iter().filter(|&&x| x > 0.7).count();
        assert!(near_ta >= active.saturating_sub(2), "servers not filled");
    }

    #[test]
    fn exact_and_simplified_agree_closely() {
        let dep = 1.0 / 3600.0;
        let lambda = 3.0 * dep / 0.02;
        let run = |share| {
            let m = model(share, lambda, dep);
            m.solve(&[0.25; 12], 6.0 * 3600.0)
        };
        let e = run(ShareModel::Exact);
        let s = run(ShareModel::Simplified);
        // §IV: "the results of this model proved to be very close to
        // those of the exact model" — final active counts within 2.
        let diff = (e.final_active() as i64 - s.final_active() as i64).abs();
        assert!(
            diff <= 2,
            "exact {} vs simplified {}",
            e.final_active(),
            s.final_active()
        );
    }

    #[test]
    fn growing_load_activates_servers() {
        // Start with one tiny server and a heavy arrival stream: the
        // controller must activate more servers.
        let dep = 1.0 / 3600.0;
        let lambda = 6.0 * dep / 0.02; // 6 server-equivalents of load
        let m = model(ShareModel::Simplified, lambda, dep);
        let mut u0 = vec![0.0; 15];
        u0[0] = 0.3;
        let sol = m.solve(&u0, 8.0 * 3600.0);
        assert!(sol.activations > 0, "controller never woke a server");
        assert!(
            sol.final_active() >= 6,
            "only {} active for 6 servers of load",
            sol.final_active()
        );
    }

    #[test]
    fn utilizations_stay_in_unit_interval() {
        let dep = 1.0 / 1800.0;
        let lambda = 10.0 * dep / 0.02;
        let m = model(ShareModel::Simplified, lambda, dep);
        let sol = m.solve(&[0.5; 8], 4.0 * 3600.0);
        for row in &sol.u {
            for &x in row {
                assert!((0.0..=1.0).contains(&(x as f64)), "u = {x}");
            }
        }
    }

    #[test]
    fn sampling_cadence() {
        let m = model(ShareModel::Simplified, 0.0, 1.0 / 3600.0);
        let sol = m.solve(&[0.1; 3], 2.0 * 3600.0);
        // Samples at 0, 1800, 3600, 5400, 7200 s.
        assert_eq!(sol.times_secs.len(), 5);
        assert!((sol.times_secs[1] - 1800.0).abs() < 1.0);
    }

    #[test]
    fn time_varying_lambda_is_honoured() {
        // λ jumps at t = 1 h from 0 to heavy: activity must follow.
        let dep = 1.0 / 3600.0;
        let heavy = 5.0 * dep / 0.02;
        let m = FluidModel::new(
            FluidConfig::paper(ShareModel::Simplified, 0.02),
            move |t| if t < 3600.0 { 0.0 } else { heavy },
            move |_| dep,
        );
        let mut u0 = vec![0.0; 10];
        u0[0] = 0.4;
        let sol = m.solve(&u0, 6.0 * 3600.0);
        let load_early = sol.overall_load[1]; // t = 30 min
        let load_late = *sol.overall_load.last().expect("samples");
        assert!(load_late > load_early, "load did not grow after λ jump");
    }
}
