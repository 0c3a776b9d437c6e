//! Online baseline policies behind the [`dcsim::Policy`] interface.

use dcsim::{
    ClusterView, MigrationKind, MigrationRequest, PlaceOutcome, PlacementKind, PlacementRequest,
    Policy, ServerId,
};
use ecocloud_rng::{Rng, SeedableRng, StdRng};
use std::ops::RangeInclusive;

/// Picks the feasible powered server with the *tightest* residual
/// capacity (classic Best Fit), preferring already-started servers so
/// empty machines can hibernate. Migration control is a centralized,
/// deterministic double-threshold rule in the style of VMware DPM /
/// Beloglazov & Buyya: every monitor tick outside `[tl, th]` fires a
/// migration — no Bernoulli smoothing, which is exactly the
/// behavioural contrast the paper draws with ecoCloud.
pub struct BestFitPolicy {
    /// Utilization cap for placements.
    pub ta: f64,
    /// Lower migration threshold (server drain).
    pub tl: f64,
    /// Upper migration threshold (overload relief).
    pub th: f64,
    /// Enables the migration controller (disable to get pure BFD
    /// placement).
    pub migrations: bool,
}

impl BestFitPolicy {
    /// Thresholds matched to the paper's ecoCloud parameterization so
    /// comparisons vary only the *mechanism*, not the operating point.
    pub fn paper() -> Self {
        Self {
            ta: 0.9,
            tl: 0.5,
            th: 0.95,
            migrations: true,
        }
    }

    fn best_fit(
        &self,
        view: &ClusterView<'_>,
        demand_mhz: f64,
        ram_mb: f64,
        ta: f64,
        exclude: Option<ServerId>,
    ) -> Option<ServerId> {
        let mut best: Option<(ServerId, f64)> = None;
        for (sid, s) in view.powered() {
            if Some(sid) == exclude {
                continue;
            }
            let cap = s.capacity_mhz();
            let after = s.used_mhz() + s.reserved_mhz() + demand_mhz;
            let ram_ok = ram_mb <= 0.0
                || s.used_ram_mb + s.reserved_ram_mb + ram_mb <= 0.9 * s.spec.ram_mb + 1e-9;
            if after <= ta * cap + 1e-9 && ram_ok {
                let residual = ta * cap - after;
                let started = !s.vms.is_empty() || s.reserved_mhz() > 0.0;
                let key = residual + if started { 0.0 } else { 1e12 };
                if best.is_none_or(|(_, k)| key < k) {
                    best = Some((sid, key));
                }
            }
        }
        best.map(|(sid, _)| sid)
    }
}

impl Policy for BestFitPolicy {
    fn name(&self) -> &'static str {
        "best-fit"
    }

    fn place(&mut self, view: &ClusterView<'_>, req: &PlacementRequest) -> PlaceOutcome {
        // For high migrations, require the destination to be strictly
        // less loaded than the source (mirrors ecoCloud's
        // anti-ping-pong rule so the baselines do not thrash).
        let ta = match req.kind {
            PlacementKind::MigrationHigh { source_utilization } => {
                (0.9 * source_utilization).min(self.ta)
            }
            _ => self.ta,
        };
        if let Some(sid) = self.best_fit(view, req.demand_mhz, req.ram_mb, ta, req.exclude) {
            return PlaceOutcome::Place(sid);
        }
        if req.kind == PlacementKind::MigrationLow {
            return PlaceOutcome::Reject;
        }
        // Wake the smallest hibernated server that fits the VM (least
        // added idle power).
        let mut best: Option<(ServerId, f64)> = None;
        for (sid, s) in view.hibernated() {
            let cap = s.capacity_mhz();
            if req.demand_mhz <= self.ta * cap && best.is_none_or(|(_, c)| cap < c) {
                best = Some((sid, cap));
            }
        }
        match best {
            Some((sid, _)) => PlaceOutcome::WakeThenPlace(sid),
            None => PlaceOutcome::Reject,
        }
    }

    fn monitor(
        &mut self,
        view: &ClusterView<'_>,
        sid: ServerId,
        _now_secs: f64,
    ) -> Option<MigrationRequest> {
        if !self.migrations {
            return None;
        }
        let s = view.server(sid);
        if s.vms.is_empty() {
            return None;
        }
        let cap = s.capacity_mhz();
        let u = s.used_mhz() / cap;
        if u > self.th {
            // Minimization-of-migrations choice (Beloglazov's MM): the
            // smallest VM that brings the server back under T_h; the
            // largest VM when none is big enough alone.
            let need = u - self.th;
            let enough = view
                .migratable_vms(sid)
                .filter(|&(_, d)| d / cap > need)
                .min_by(|a, b| a.1.total_cmp(&b.1));
            let vm = match enough {
                Some((vm, _)) => vm,
                None => {
                    view.migratable_vms(sid)
                        .max_by(|a, b| a.1.total_cmp(&b.1))?
                        .0
                }
            };
            return Some(MigrationRequest {
                vm,
                kind: MigrationKind::High,
            });
        }
        if u < self.tl {
            // Drain: move the largest VM first (fewest total moves).
            let vm = view
                .migratable_vms(sid)
                .max_by(|a, b| a.1.total_cmp(&b.1))?
                .0;
            return Some(MigrationRequest {
                vm,
                kind: MigrationKind::Low,
            });
        }
        None
    }

    fn quiet_band(&self, _n_servers: usize) -> Option<RangeInclusive<f64>> {
        // In `[T_l, T_h]` neither `u > T_h` nor `u < T_l` holds, and
        // with migrations off nothing does, so `monitor` returns `None`.
        // It never draws and keeps no state.
        Some(if self.migrations {
            self.tl..=self.th
        } else {
            f64::NEG_INFINITY..=f64::INFINITY
        })
    }
}

/// First Fit: the lowest-index feasible powered server.
pub struct FirstFitPolicy {
    /// Utilization cap for placements.
    pub ta: f64,
}

impl FirstFitPolicy {
    /// Cap matched to the paper's `T_a`.
    pub fn paper() -> Self {
        Self { ta: 0.9 }
    }
}

impl Policy for FirstFitPolicy {
    fn name(&self) -> &'static str {
        "first-fit"
    }

    fn place(&mut self, view: &ClusterView<'_>, req: &PlacementRequest) -> PlaceOutcome {
        for (sid, s) in view.powered() {
            if Some(sid) == req.exclude {
                continue;
            }
            let after = s.used_mhz() + s.reserved_mhz() + req.demand_mhz;
            let ram_ok = req.ram_mb <= 0.0
                || s.used_ram_mb + s.reserved_ram_mb + req.ram_mb <= 0.9 * s.spec.ram_mb + 1e-9;
            if after <= self.ta * s.capacity_mhz() + 1e-9 && ram_ok {
                return PlaceOutcome::Place(sid);
            }
        }
        if req.kind == PlacementKind::MigrationLow {
            return PlaceOutcome::Reject;
        }
        match view
            .hibernated()
            .find(|(_, s)| req.demand_mhz <= self.ta * s.capacity_mhz())
        {
            Some((sid, _)) => PlaceOutcome::WakeThenPlace(sid),
            None => PlaceOutcome::Reject,
        }
    }
}

/// Uniform random placement among feasible powered servers — the
/// no-consolidation strawman that spreads load and keeps every server
/// busy.
pub struct RandomPolicy {
    /// Utilization cap for placements.
    pub ta: f64,
    rng: StdRng,
}

impl RandomPolicy {
    /// Creates the policy with the given cap and seed.
    pub fn new(ta: f64, seed: u64) -> Self {
        Self {
            ta,
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl Policy for RandomPolicy {
    fn name(&self) -> &'static str {
        "random"
    }

    fn place(&mut self, view: &ClusterView<'_>, req: &PlacementRequest) -> PlaceOutcome {
        let feasible: Vec<ServerId> = view
            .powered()
            .filter(|&(sid, s)| {
                Some(sid) != req.exclude
                    && s.used_mhz() + s.reserved_mhz() + req.demand_mhz
                        <= self.ta * s.capacity_mhz() + 1e-9
                    && (req.ram_mb <= 0.0
                        || s.used_ram_mb + s.reserved_ram_mb + req.ram_mb
                            <= 0.9 * s.spec.ram_mb + 1e-9)
            })
            .map(|(sid, _)| sid)
            .collect();
        if !feasible.is_empty() {
            return PlaceOutcome::Place(feasible[self.rng.gen_range(0..feasible.len())]);
        }
        if req.kind == PlacementKind::MigrationLow {
            return PlaceOutcome::Reject;
        }
        let hibernated: Vec<ServerId> = view
            .hibernated()
            .filter(|(_, s)| req.demand_mhz <= self.ta * s.capacity_mhz())
            .map(|(sid, _)| sid)
            .collect();
        if hibernated.is_empty() {
            PlaceOutcome::Reject
        } else {
            PlaceOutcome::WakeThenPlace(hibernated[self.rng.gen_range(0..hibernated.len())])
        }
    }

    fn checkpoint_state(&self) -> Vec<u64> {
        vec![self.rng.state()]
    }

    fn restore_state(&mut self, state: &[u64]) -> Result<(), String> {
        match state {
            [rng_word] => {
                self.rng = StdRng::from_state(*rng_word);
                Ok(())
            }
            _ => Err(format!(
                "random policy expects 1 state word, checkpoint carries {}",
                state.len()
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcsim::vm::VmState;
    use dcsim::{Cluster, Fleet, ServerState, Vm, VmId};

    fn cluster_with_utils(utils: &[f64]) -> Cluster {
        let fleet = Fleet::uniform(utils.len(), 6);
        let mut c = Cluster::new(&fleet, ServerState::Active);
        for (i, &u) in utils.iter().enumerate() {
            if u > 0.0 {
                let vm = VmId(c.vms.len() as u32);
                c.vms.push(Vm {
                    id: vm,
                    trace_idx: 0,
                    demand_mhz: u * 12_000.0,
                    ram_mb: 0.0,
                    state: VmState::Departed,
                    arrived_secs: 0.0,
                    priority: Default::default(),
                    migration_seq: 0,
                    lifetime_secs: None,
                    started: false,
                    evictable: false,
                });
                c.attach(vm, ServerId(i as u32), 0.0);
            }
        }
        c
    }

    fn req(demand_mhz: f64) -> PlacementRequest {
        PlacementRequest {
            demand_mhz,
            ram_mb: 0.0,
            kind: PlacementKind::NewVm,
            exclude: None,
            now_secs: 0.0,
        }
    }

    #[test]
    fn best_fit_picks_tightest() {
        let c = cluster_with_utils(&[0.2, 0.7, 0.5]);
        let mut p = BestFitPolicy::paper();
        // 0.1 more fits everywhere; tightest residual is server 1
        // (0.7 + 0.1 → residual 0.1).
        assert_eq!(
            p.place(&c.view(), &req(0.1 * 12_000.0)),
            PlaceOutcome::Place(ServerId(1))
        );
    }

    #[test]
    fn best_fit_prefers_started_servers() {
        let c = cluster_with_utils(&[0.0, 0.1]);
        let mut p = BestFitPolicy::paper();
        // The empty server would be a tighter... no: residuals are
        // 0.9 vs 0.8 — and empties are penalized anyway.
        assert_eq!(
            p.place(&c.view(), &req(0.1 * 12_000.0)),
            PlaceOutcome::Place(ServerId(1))
        );
    }

    #[test]
    fn best_fit_wakes_smallest_fitting() {
        let fleet = Fleet::thirds(3); // 4, 6, 8 cores
        let mut c = Cluster::new(&fleet, ServerState::Hibernated);
        c.set_server_state(ServerId(2), ServerState::Active);
        // Fill the active 8-core server to the cap.
        let vm = VmId(0);
        c.vms.push(Vm {
            id: vm,
            trace_idx: 0,
            demand_mhz: 0.9 * 16_000.0,
            ram_mb: 0.0,
            state: VmState::Departed,
            arrived_secs: 0.0,
            priority: Default::default(),
            migration_seq: 0,
            lifetime_secs: None,
            started: false,
            evictable: false,
        });
        c.attach(vm, ServerId(2), 0.0);
        let mut p = BestFitPolicy::paper();
        // Needs a wake: the smallest fitting hibernated server is the
        // 4-core one.
        assert_eq!(
            p.place(&c.view(), &req(1_000.0)),
            PlaceOutcome::WakeThenPlace(ServerId(0))
        );
    }

    #[test]
    fn best_fit_monitor_fires_deterministically() {
        let c = cluster_with_utils(&[0.97]);
        let mut p = BestFitPolicy::paper();
        let r = p.monitor(&c.view(), ServerId(0), 0.0).expect("no request");
        assert_eq!(r.kind, MigrationKind::High);
        // And below tl:
        let c2 = cluster_with_utils(&[0.3]);
        let r2 = p.monitor(&c2.view(), ServerId(0), 0.0).expect("no request");
        assert_eq!(r2.kind, MigrationKind::Low);
        // Silent in the dead zone.
        let c3 = cluster_with_utils(&[0.7]);
        assert!(p.monitor(&c3.view(), ServerId(0), 0.0).is_none());
    }

    #[test]
    fn first_fit_takes_lowest_index() {
        let c = cluster_with_utils(&[0.5, 0.2]);
        let mut p = FirstFitPolicy::paper();
        assert_eq!(
            p.place(&c.view(), &req(0.1 * 12_000.0)),
            PlaceOutcome::Place(ServerId(0))
        );
    }

    #[test]
    fn low_migration_never_wakes_in_baselines() {
        let mut c = cluster_with_utils(&[0.9]);
        c.set_server_state(ServerId(0), ServerState::Hibernated); // nothing powered
        let low = PlacementRequest {
            demand_mhz: 100.0,
            ram_mb: 0.0,
            kind: PlacementKind::MigrationLow,
            exclude: None,
            now_secs: 0.0,
        };
        assert_eq!(
            BestFitPolicy::paper().place(&c.view(), &low),
            PlaceOutcome::Reject
        );
        assert_eq!(
            FirstFitPolicy::paper().place(&c.view(), &low),
            PlaceOutcome::Reject
        );
        assert_eq!(
            RandomPolicy::new(0.9, 1).place(&c.view(), &low),
            PlaceOutcome::Reject
        );
    }

    #[test]
    fn random_policy_spreads() {
        let c = cluster_with_utils(&[0.1, 0.1, 0.1, 0.1]);
        let mut p = RandomPolicy::new(0.9, 7);
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..100 {
            if let PlaceOutcome::Place(sid) = p.place(&c.view(), &req(100.0)) {
                seen.insert(sid.0);
            }
        }
        assert_eq!(seen.len(), 4, "random placement failed to spread");
    }

    #[test]
    fn anti_ping_pong_in_best_fit() {
        // Source at 0.96, candidate at 0.88: effective cap is
        // 0.9·0.96 = 0.864 < 0.88 → no feasible destination, and the
        // only hibernated fallback may wake.
        let c = cluster_with_utils(&[0.96, 0.88]);
        let mut p = BestFitPolicy::paper();
        let r = PlacementRequest {
            demand_mhz: 100.0,
            ram_mb: 0.0,
            kind: PlacementKind::MigrationHigh {
                source_utilization: 0.96,
            },
            exclude: Some(ServerId(0)),
            now_secs: 0.0,
        };
        assert_eq!(p.place(&c.view(), &r), PlaceOutcome::Reject);
    }
}
