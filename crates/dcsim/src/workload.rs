//! Workload descriptions: which VMs exist, when they arrive and leave,
//! and how the initial population is placed.

use crate::sla::VmPriority;
use ecocloud_rng::{Rng, SeedableRng, StdRng};
use ecocloud_traces::arrivals::ArrivalProcess;
use ecocloud_traces::TraceSet;

/// One VM to spawn during the run.
#[derive(Debug, Clone)]
pub struct VmSpawn {
    /// Index into the workload's trace set.
    pub trace_idx: usize,
    /// Arrival time, seconds (0 for the initial population).
    pub arrive_secs: f64,
    /// Lifetime, seconds; `None` means the VM runs to the end of the
    /// simulation (the §III experiment's VMs never depart).
    pub lifetime_secs: Option<f64>,
    /// SLA class (defaults to [`VmPriority::Normal`]).
    pub priority: VmPriority,
    /// Committed memory in MB (0 disables RAM modelling for this VM).
    pub ram_mb: f64,
    /// Spot/preemptible VM: the consolidation policy may evict it
    /// (early departure) when a high migration finds no capacity.
    pub evictable: bool,
}

/// How the initial VM population reaches the servers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InitialPlacement {
    /// The initial VMs go through the placement policy one by one, with
    /// all servers starting hibernated — the policy builds a
    /// consolidated data center from scratch (used for the §III run,
    /// which starts at midnight in an already-consolidated state).
    ViaPolicy,
    /// The initial VMs are spread round-robin over all servers, which
    /// start active — the paper's §IV "non consolidated scenario, in
    /// which most servers have CPU load between 10% and 30%".
    Spread,
}

/// The complete workload of one run.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Demand traces (VM `i` of the spawn list reads trace
    /// `spawns[i].trace_idx`).
    pub traces: TraceSet,
    /// All VM spawns, ordered by arrival time.
    pub spawns: Vec<VmSpawn>,
    /// Placement of the time-zero population.
    pub initial_placement: InitialPlacement,
    /// Repeat traces past their end instead of holding the last sample
    /// (open-system VMs can arrive late and outlive the generated
    /// horizon). Off for the closed-system scenarios, whose traces
    /// cover the whole run.
    pub wrap_traces: bool,
}

impl Workload {
    /// The §III workload: every trace VM present from t = 0, never
    /// departing, consolidated by the policy from the start.
    pub fn all_vms_from_start(traces: TraceSet) -> Self {
        let spawns = (0..traces.len())
            .map(|i| VmSpawn {
                trace_idx: i,
                arrive_secs: 0.0,
                lifetime_secs: None,
                priority: VmPriority::Normal,
                ram_mb: 0.0,
                evictable: false,
            })
            .collect();
        Self {
            traces,
            spawns,
            initial_placement: InitialPlacement::ViaPolicy,
            wrap_traces: false,
        }
    }

    /// The §IV workload: `initial` VMs at t = 0 (spread over the
    /// servers), then Poisson arrivals with exponential lifetimes drawn
    /// from `process`. Trace indices are sampled uniformly from the
    /// trace set ("1,500 VMs randomly chosen among the 6,000").
    pub fn churn(
        traces: TraceSet,
        initial: usize,
        process: &ArrivalProcess,
        duration_secs: f64,
        seed: u64,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut spawns = Vec::with_capacity(initial);
        for _ in 0..initial {
            spawns.push(VmSpawn {
                trace_idx: rng.gen_range(0..traces.len()),
                arrive_secs: 0.0,
                lifetime_secs: Some(process.sample_lifetime(&mut rng)),
                priority: VmPriority::Normal,
                ram_mb: 0.0,
                evictable: false,
            });
        }
        for t in process.generate_arrivals(duration_secs, seed.wrapping_add(1)) {
            spawns.push(VmSpawn {
                trace_idx: rng.gen_range(0..traces.len()),
                arrive_secs: t,
                lifetime_secs: Some(process.sample_lifetime(&mut rng)),
                priority: VmPriority::Normal,
                ram_mb: 0.0,
                evictable: false,
            });
        }
        Self {
            traces,
            spawns,
            initial_placement: InitialPlacement::Spread,
            wrap_traces: false,
        }
    }

    /// The open-system §III workload (the Note-1 fix): a resident base
    /// plus the initial churn pool are consolidated by the policy from
    /// a dark fleet, then calibrated diurnal churn arrives through the
    /// normal placement path for the rest of the run. Spot-class
    /// arrivals are marked evictable and carry
    /// [`crate::sla::VmPriority::Low`]. Traces wrap so late arrivals
    /// keep their diurnal shape.
    pub fn open_system(
        traces: TraceSet,
        spec: &ecocloud_traces::OpenSystemSpec,
        duration_secs: f64,
        seed: u64,
    ) -> Self {
        use ecocloud_traces::ChurnClass;
        let mut rng = StdRng::seed_from_u64(seed);
        let initial_lifetimes = spec.initial_lifetimes(seed);
        let resident = spec.resident_population();
        let mut spawns = Vec::with_capacity(resident + initial_lifetimes.len());
        for _ in 0..resident {
            spawns.push(VmSpawn {
                trace_idx: rng.gen_range(0..traces.len()),
                arrive_secs: 0.0,
                lifetime_secs: None,
                priority: VmPriority::Normal,
                ram_mb: 0.0,
                evictable: false,
            });
        }
        for &life in &initial_lifetimes {
            spawns.push(VmSpawn {
                trace_idx: rng.gen_range(0..traces.len()),
                arrive_secs: 0.0,
                lifetime_secs: Some(life),
                priority: VmPriority::Normal,
                ram_mb: 0.0,
                evictable: false,
            });
        }
        for a in spec.generate(duration_secs, seed) {
            let spot = a.class == ChurnClass::Spot;
            spawns.push(VmSpawn {
                trace_idx: rng.gen_range(0..traces.len()),
                arrive_secs: a.arrive_secs,
                lifetime_secs: Some(a.lifetime_secs),
                priority: if spot {
                    VmPriority::Low
                } else {
                    VmPriority::Normal
                },
                ram_mb: 0.0,
                evictable: spot,
            });
        }
        Self {
            traces,
            spawns,
            initial_placement: InitialPlacement::ViaPolicy,
            wrap_traces: true,
        }
    }

    /// Arrival/departure event list of this workload — the input the
    /// analytical model's rate estimation (λ(t), μ(t)) consumes.
    /// Initial VMs (t = 0) contribute no arrival event, matching the
    /// `initial_population` argument of
    /// [`ecocloud_traces::arrivals::RateEstimate::from_events`].
    pub fn arrival_departure_events(&self) -> Vec<ecocloud_traces::ArrivalEvent> {
        use ecocloud_traces::ArrivalEvent;
        let mut events = Vec::new();
        for s in &self.spawns {
            if s.arrive_secs > 0.0 {
                events.push(ArrivalEvent::Arrival(s.arrive_secs));
            }
            if let Some(life) = s.lifetime_secs {
                events.push(ArrivalEvent::Departure(s.arrive_secs + life));
            }
        }
        events
    }

    /// Mean demand of the spawned VMs as a fraction of one reference
    /// host — the fluid model's `w̄`.
    pub fn mean_vm_load_frac(&self) -> f64 {
        if self.spawns.is_empty() {
            return 0.0;
        }
        let sum: f64 = self
            .spawns
            .iter()
            .map(|s| self.traces.vms[s.trace_idx].profile.mean_frac)
            .sum();
        sum / self.spawns.len() as f64
    }

    /// Randomly assigns SLA classes to every spawn with the given
    /// weights (must sum to a positive value); deterministic in `seed`.
    pub fn assign_priorities(&mut self, high: f64, normal: f64, low: f64, seed: u64) {
        assert!(
            high >= 0.0 && normal >= 0.0 && low >= 0.0 && high + normal + low > 0.0,
            "priority weights must be non-negative and not all zero"
        );
        let total = high + normal + low;
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(0xA11C));
        for s in &mut self.spawns {
            let x: f64 = rng.gen_range(0.0..total);
            s.priority = if x < high {
                VmPriority::High
            } else if x < high + normal {
                VmPriority::Normal
            } else {
                VmPriority::Low
            };
        }
    }

    /// Assigns lognormal RAM demands to every spawn: median
    /// `median_mb`, shape `sigma`, clamped to `[64, max_mb]`;
    /// deterministic in `seed`. Enables the §V multi-resource
    /// behaviour of RAM-aware policies.
    pub fn assign_ram_demands(&mut self, median_mb: f64, sigma: f64, max_mb: f64, seed: u64) {
        assert!(median_mb > 0.0 && sigma >= 0.0 && max_mb >= median_mb);
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(0x4A4D));
        for s in &mut self.spawns {
            let z = ecocloud_traces::profile::standard_normal(&mut rng);
            s.ram_mb = (median_mb * (sigma * z).exp()).clamp(64.0, max_mb);
        }
    }

    /// Number of VMs present at t = 0.
    pub fn initial_count(&self) -> usize {
        self.spawns.iter().filter(|s| s.arrive_secs == 0.0).count()
    }

    /// Validates spawn ordering and trace indices (no coverage check —
    /// use [`Self::validate_for`] when the simulation horizon is known).
    pub fn validate(&self) {
        self.validate_for(f64::INFINITY);
    }

    /// Validates spawn ordering, trace indices and — unless
    /// [`Self::wrap_traces`] is on — trace *coverage*: a VM that lives
    /// past the end of its trace would silently flatline at the last
    /// sample, so workloads whose traces are shorter than the VM's stay
    /// (clipped to the simulation horizon) are rejected, naming the
    /// failing spawn. A generated trace covers the set's
    /// `duration_secs`; a recorded one covers its own samples, which
    /// can be fewer (imported files of unequal length).
    pub fn validate_for(&self, horizon_secs: f64) {
        let set_covered = self.traces.config.duration_secs as f64;
        let step = self.traces.config.step_secs;
        let mut last = 0.0f64;
        for (i, s) in self.spawns.iter().enumerate() {
            assert!(
                s.arrive_secs >= last,
                "spawn {i} out of order ({} < {last})",
                s.arrive_secs
            );
            last = s.arrive_secs;
            assert!(
                s.trace_idx < self.traces.len(),
                "spawn {i} references missing trace {}",
                s.trace_idx
            );
            if let Some(l) = s.lifetime_secs {
                assert!(l > 0.0, "spawn {i} has non-positive lifetime");
            }
            if !self.wrap_traces {
                let covered = match self.traces.vms[s.trace_idx].recorded_samples() {
                    Some(samples) => (samples.len() as u64 * step) as f64,
                    None => set_covered,
                };
                // The VM reads its trace until it departs or the run
                // ends, whichever comes first.
                let stay_end = match s.lifetime_secs {
                    Some(l) => (s.arrive_secs + l).min(horizon_secs),
                    None => {
                        if horizon_secs.is_finite() {
                            horizon_secs
                        } else {
                            s.arrive_secs
                        }
                    }
                };
                assert!(
                    stay_end <= covered,
                    "spawn {i} (arrive {:.1} s, lifetime {:?}) outlives its trace: \
                     needs coverage to {stay_end:.1} s but the trace ends at \
                     {covered:.1} s — extend the traces or enable wrap_traces",
                    s.arrive_secs,
                    s.lifetime_secs,
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecocloud_traces::TraceConfig;

    fn traces() -> TraceSet {
        TraceSet::generate(TraceConfig {
            n_vms: 30,
            ..TraceConfig::small(7)
        })
    }

    #[test]
    fn all_vms_from_start_covers_every_trace() {
        let w = Workload::all_vms_from_start(traces());
        assert_eq!(w.spawns.len(), 30);
        assert_eq!(w.initial_count(), 30);
        assert!(w.spawns.iter().all(|s| s.lifetime_secs.is_none()));
        assert_eq!(w.initial_placement, InitialPlacement::ViaPolicy);
        w.validate();
    }

    #[test]
    fn churn_workload_shape() {
        let p = ArrivalProcess {
            base_rate_per_sec: 0.01,
            envelope: ecocloud_traces::DiurnalEnvelope::flat(),
            mean_lifetime_secs: 600.0,
        };
        let w = Workload::churn(traces(), 15, &p, 3600.0, 3);
        assert_eq!(w.initial_count(), 15);
        assert!(w.spawns.len() > 15, "no arrivals generated");
        assert!(w.spawns.iter().all(|s| s.lifetime_secs.is_some()));
        assert_eq!(w.initial_placement, InitialPlacement::Spread);
        w.validate();
    }

    #[test]
    fn event_list_matches_spawns() {
        let p = ArrivalProcess {
            base_rate_per_sec: 0.02,
            envelope: ecocloud_traces::DiurnalEnvelope::flat(),
            mean_lifetime_secs: 600.0,
        };
        let w = Workload::churn(traces(), 10, &p, 1800.0, 5);
        let events = w.arrival_departure_events();
        let arrivals = events
            .iter()
            .filter(|e| matches!(e, ecocloud_traces::ArrivalEvent::Arrival(_)))
            .count();
        let departures = events.len() - arrivals;
        assert_eq!(arrivals, w.spawns.len() - 10, "initial VMs must not count");
        assert_eq!(departures, w.spawns.len(), "every VM has a lifetime here");
        assert!(w.mean_vm_load_frac() > 0.0);
    }

    #[test]
    fn priority_assignment_matches_weights() {
        let mut w = Workload::all_vms_from_start(TraceSet::generate(TraceConfig {
            n_vms: 2000,
            ..TraceConfig::small(7)
        }));
        w.assign_priorities(0.1, 0.7, 0.2, 3);
        let count = |p: VmPriority| w.spawns.iter().filter(|s| s.priority == p).count() as f64;
        let n = w.spawns.len() as f64;
        assert!((count(VmPriority::High) / n - 0.1).abs() < 0.03);
        assert!((count(VmPriority::Normal) / n - 0.7).abs() < 0.03);
        assert!((count(VmPriority::Low) / n - 0.2).abs() < 0.03);
        // Deterministic in the seed.
        let mut w2 = Workload::all_vms_from_start(TraceSet::generate(TraceConfig {
            n_vms: 2000,
            ..TraceConfig::small(7)
        }));
        w2.assign_priorities(0.1, 0.7, 0.2, 3);
        assert!(w
            .spawns
            .iter()
            .zip(&w2.spawns)
            .all(|(a, b)| a.priority == b.priority));
    }

    #[test]
    #[should_panic(expected = "priority weights")]
    fn priority_assignment_rejects_zero_weights() {
        let mut w = Workload::all_vms_from_start(traces());
        w.assign_priorities(0.0, 0.0, 0.0, 1);
    }

    #[test]
    fn ram_assignment_respects_bounds() {
        let mut w = Workload::all_vms_from_start(TraceSet::generate(TraceConfig {
            n_vms: 500,
            ..TraceConfig::small(8)
        }));
        w.assign_ram_demands(1024.0, 0.8, 8192.0, 5);
        for s in &w.spawns {
            assert!((64.0..=8192.0).contains(&s.ram_mb), "ram {}", s.ram_mb);
        }
        let mean: f64 = w.spawns.iter().map(|s| s.ram_mb).sum::<f64>() / w.spawns.len() as f64;
        // Lognormal(median 1024, σ 0.8) has mean ≈ 1024·e^0.32 ≈ 1410.
        assert!((1100.0..1800.0).contains(&mean), "ram mean {mean}");
    }

    #[test]
    fn churn_is_deterministic() {
        let p = ArrivalProcess {
            base_rate_per_sec: 0.01,
            envelope: ecocloud_traces::DiurnalEnvelope::flat(),
            mean_lifetime_secs: 600.0,
        };
        let a = Workload::churn(traces(), 5, &p, 3600.0, 9);
        let b = Workload::churn(traces(), 5, &p, 3600.0, 9);
        assert_eq!(a.spawns.len(), b.spawns.len());
        for (x, y) in a.spawns.iter().zip(&b.spawns) {
            assert_eq!(x.trace_idx, y.trace_idx);
            assert_eq!(x.arrive_secs, y.arrive_secs);
        }
    }

    #[test]
    #[should_panic(expected = "out of order")]
    fn validate_rejects_unsorted_spawns() {
        let mut w = Workload::all_vms_from_start(traces());
        w.spawns.push(VmSpawn {
            trace_idx: 0,
            arrive_secs: 10.0,
            lifetime_secs: None,
            priority: VmPriority::Normal,
            ram_mb: 0.0,
            evictable: false,
        });
        w.spawns.push(VmSpawn {
            trace_idx: 0,
            arrive_secs: 5.0,
            lifetime_secs: None,
            priority: VmPriority::Normal,
            ram_mb: 0.0,
            evictable: false,
        });
        w.validate();
    }

    #[test]
    #[should_panic(expected = "missing trace")]
    fn validate_rejects_bad_trace_index() {
        let mut w = Workload::all_vms_from_start(traces());
        w.spawns[0].trace_idx = 999;
        w.validate();
    }
}
