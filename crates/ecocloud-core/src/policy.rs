//! The ecoCloud placement policy — the paper's two probabilistic
//! procedures wired into the `dcsim` policy interface.
//!
//! * **Assignment** (§II): the manager broadcasts an invitation to all
//!   powered servers; each runs a Bernoulli trial with success
//!   probability `f_a(u)` on its *local* utilization and declares
//!   availability; the manager picks uniformly among the available
//!   servers; if none is available it wakes a hibernated server (which
//!   then answers positively for a 30-minute grace period).
//! * **Migration** (§II): each server monitors its utilization; below
//!   `T_l` it requests a low migration with probability `f_l(u)`,
//!   above `T_h` a high migration with probability `f_h(u)`. The
//!   destination is chosen with the assignment procedure, with the
//!   anti-ping-pong threshold `0.9 × u_source` for high migrations and
//!   the never-wake rule for low migrations.
//!
//! One refinement over the paper text is made explicit here: a server
//! also checks that the offered VM actually *fits* under the effective
//! threshold before declaring availability. `f_a(u) = 0` for
//! `u > T_a` alone does not prevent a large VM accepted at
//! `u = T_a − ε` from overshooting the threshold; the fit check closes
//! that gap (and is what the paper's "no further VMs can be assigned
//! when u reaches this threshold" guarantee requires in a discrete
//! system).

use crate::config::EcoCloudConfig;
use crate::functions::AssignmentFunction;
use dcsim::{
    ClusterView, MigrationKind, MigrationRequest, PlaceOutcome, PlacementKind, PlacementRequest,
    Policy, ServerId, ServerRef,
};
use ecocloud_rng::{Rng, SeedableRng, StdRng};
use std::ops::RangeInclusive;

/// The ecoCloud policy. One instance drives one simulation run.
pub struct EcoCloudPolicy {
    cfg: EcoCloudConfig,
    rng: StdRng,
    /// Per-server end of the newcomer grace period (seconds); lazily
    /// grown to the fleet size.
    grace_until: Vec<f64>,
    /// Per-server time of the last low-migration trial (seconds).
    last_low_trial: Vec<f64>,
    /// Scratch buffer of acceptors, one slot per powered server
    /// (reused across calls to avoid allocating on every invitation
    /// round); a round's acceptors fill its front.
    acceptors: Vec<ServerId>,
    /// Per-server `(u.to_bits(), f_a(u))` of the configured assignment
    /// function at the decision utilization an invitation round last
    /// evaluated; lazily grown to the fleet size. Most servers' `u` is
    /// unchanged between rounds, and `f_a` is a pure function of `u`,
    /// so a hit returns the bits a fresh evaluation would (one `powf`
    /// saved). A cache, not state: it is neither checkpointed nor
    /// restored.
    fa_memo: Vec<(u64, f64)>,
}

impl EcoCloudPolicy {
    /// Creates the policy from a validated configuration.
    pub fn new(cfg: EcoCloudConfig) -> Self {
        cfg.validate();
        let seed = cfg.seed;
        Self {
            cfg,
            rng: StdRng::seed_from_u64(seed),
            grace_until: Vec::new(),
            last_low_trial: Vec::new(),
            acceptors: Vec::new(),
            fa_memo: Vec::new(),
        }
    }

    /// The paper's §III parameterization.
    pub fn paper(seed: u64) -> Self {
        Self::new(EcoCloudConfig::paper(seed))
    }

    /// Read access to the configuration.
    pub fn config(&self) -> &EcoCloudConfig {
        &self.cfg
    }

    fn ensure_grace_len(&mut self, n: usize) {
        if self.grace_until.len() < n {
            self.grace_until.resize(n, f64::NEG_INFINITY);
        }
        if self.last_low_trial.len() < n {
            self.last_low_trial.resize(n, f64::NEG_INFINITY);
        }
    }

    fn in_grace(&self, sid: ServerId, now: f64) -> bool {
        self.grace_until.get(sid.index()).is_some_and(|&t| now < t)
    }

    /// The acceptance function effective for `req`: lowered threshold
    /// for high migrations so the VM lands on a strictly less loaded
    /// server (anti-ping-pong, §II).
    fn effective_fa(&self, req: &PlacementRequest) -> AssignmentFunction {
        match req.kind {
            PlacementKind::MigrationHigh { source_utilization } => {
                let ta = (self.cfg.high_migration_ta_factor * source_utilization)
                    .min(self.cfg.assignment.ta);
                self.cfg.assignment.with_threshold(ta)
            }
            _ => self.cfg.assignment,
        }
    }

    /// Whether `server` can actually host the offered VM under the
    /// effective threshold — the CPU fit check plus the §V memory
    /// constraint. This is the deterministic part of a server's local
    /// admission test (no RNG draw), so it doubles as the commit-time
    /// re-check in the phased protocol.
    fn offer_fits(
        &self,
        server: &ServerRef<'_>,
        req: &PlacementRequest,
        fa: &AssignmentFunction,
    ) -> bool {
        let u = server.decision_utilization();
        let fits = u + req.demand_mhz / server.capacity_mhz() <= fa.ta + 1e-12;
        // §V: other resources act as constraints to be satisfied —
        // memory must stay under its threshold. Checked only once the
        // CPU fits.
        fits && (!self.cfg.ram_aware
            || req.ram_mb <= 0.0
            || server.decision_ram_utilization() + req.ram_mb / server.spec.ram_mb
                <= self.cfg.ram_threshold + 1e-12)
    }

    /// One invitation broadcast: every powered server (minus the
    /// exclusion) runs its local admission test — the fit check, then
    /// the Bernoulli `f_a(u)` trial, bypassed during the §IV newcomer
    /// grace. Writes the acceptors, in fleet order, to the front of
    /// `self.acceptors` and returns how many there are.
    fn invite_round(
        &mut self,
        view: &ClusterView<'_>,
        req: &PlacementRequest,
        fa: &AssignmentFunction,
    ) -> usize {
        // Every powered server gets a slot, and each one advances the
        // count by its verdict, so appending costs no branch on the
        // (unpredictable) trial outcome.
        if self.acceptors.len() < view.n_powered() {
            self.acceptors.resize(view.n_powered(), ServerId(0));
        }
        let mut n_accepts = 0;
        let m_p = fa.m_p();
        // The memo holds values of the configured function only; a high
        // migration's lowered threshold is evaluated fresh.
        let memo = fa.ta == self.cfg.assignment.ta && fa.p == self.cfg.assignment.p;
        if memo && self.fa_memo.len() < view.n_servers() {
            let at_zero = (0.0f64.to_bits(), fa.eval_normalized(0.0, m_p));
            self.fa_memo.resize(view.n_servers(), at_zero);
        }
        for (sid, server) in view.powered() {
            if Some(sid) == req.exclude {
                continue;
            }
            if !self.offer_fits(&server, req, fa) {
                continue;
            }
            let accepts = if self.in_grace(sid, req.now_secs) {
                // §IV: a newly activated server always responds
                // positively for a limited interval of time.
                true
            } else {
                let u = server.decision_utilization();
                let p = if memo {
                    let entry = &mut self.fa_memo[sid.index()];
                    if entry.0 != u.to_bits() {
                        *entry = (u.to_bits(), fa.eval_normalized(u, m_p));
                    }
                    entry.1
                } else {
                    fa.eval_normalized(u, m_p)
                };
                p > 0.0 && self.rng.gen_bool(p)
            };
            self.acceptors[n_accepts] = sid;
            n_accepts += usize::from(accepts);
        }
        n_accepts
    }

    /// §II fallback once every invitation round came up empty: for a
    /// low migration "the VM is not migrated at all"; otherwise the
    /// manager wakes up a fitting hibernated server, if any.
    fn wake_fallback(
        &mut self,
        view: &ClusterView<'_>,
        req: &PlacementRequest,
        fa: &AssignmentFunction,
    ) -> PlaceOutcome {
        let may_wake = match req.kind {
            PlacementKind::MigrationLow => false,
            PlacementKind::NewVm => self.cfg.wake_on_assignment_exhaustion,
            PlacementKind::MigrationHigh { .. } => self.cfg.wake_on_high_migration,
        };
        if may_wake {
            let hibernated: Vec<ServerId> = view
                .hibernated()
                .filter(|&(sid, s)| {
                    Some(sid) != req.exclude
                        && req.demand_mhz <= fa.ta * s.capacity_mhz()
                        && (!self.cfg.ram_aware
                            || req.ram_mb <= 0.0
                            || req.ram_mb <= self.cfg.ram_threshold * s.spec.ram_mb)
                })
                .map(|(sid, _)| sid)
                .collect();
            if !hibernated.is_empty() {
                let pick = hibernated[self.rng.gen_range(0..hibernated.len())];
                // Grace starts immediately so the server keeps
                // accepting while it wakes; `on_server_woken` restarts
                // the clock once it is actually up.
                self.grace_until[pick.index()] = req.now_secs + self.cfg.grace_secs;
                return PlaceOutcome::WakeThenPlace(pick);
            }
        }
        PlaceOutcome::Reject
    }
}

impl Policy for EcoCloudPolicy {
    fn name(&self) -> &'static str {
        "ecocloud"
    }

    fn place(&mut self, view: &ClusterView<'_>, req: &PlacementRequest) -> PlaceOutcome {
        self.ensure_grace_len(view.n_servers());
        let fa = self.effective_fa(req);

        // Invitation broadcast: every powered server runs its local
        // Bernoulli trial. Re-broadcast up to `assignment_rounds`
        // times before concluding that nobody can host the VM.
        for _ in 0..self.cfg.assignment_rounds {
            let n_accepts = self.invite_round(view, req, &fa);
            if n_accepts > 0 {
                let pick = self.rng.gen_range(0..n_accepts);
                return PlaceOutcome::Place(self.acceptors[pick]);
            }
        }
        self.wake_fallback(view, req, &fa)
    }

    fn invite(&mut self, view: &ClusterView<'_>, req: &PlacementRequest) -> Option<Vec<ServerId>> {
        self.ensure_grace_len(view.n_servers());
        let fa = self.effective_fa(req);
        let n_accepts = self.invite_round(view, req, &fa);
        Some(self.acceptors[..n_accepts].to_vec())
    }

    fn choose_acceptor(&mut self, acceptors: &[ServerId]) -> usize {
        self.rng.gen_range(0..acceptors.len())
    }

    fn admission_recheck(
        &mut self,
        view: &ClusterView<'_>,
        server: ServerId,
        req: &PlacementRequest,
    ) -> bool {
        // The server already won its Bernoulli trial at broadcast
        // time; the commit-time re-check is the deterministic part
        // only — does the VM still fit under the (possibly lowered)
        // threshold on the server's *current* load?
        let fa = self.effective_fa(req);
        self.offer_fits(&view.server(server), req, &fa)
    }

    fn place_exhausted(&mut self, view: &ClusterView<'_>, req: &PlacementRequest) -> PlaceOutcome {
        self.ensure_grace_len(view.n_servers());
        let fa = self.effective_fa(req);
        self.wake_fallback(view, req, &fa)
    }

    fn monitor(
        &mut self,
        view: &ClusterView<'_>,
        sid: ServerId,
        now_secs: f64,
    ) -> Option<MigrationRequest> {
        self.ensure_grace_len(view.n_servers());
        let server = view.server(sid);
        if server.vms.is_empty() {
            return None;
        }
        let u_raw = server.utilization();
        let m = &self.cfg.migration;

        if u_raw > m.th {
            // High migration: Bernoulli on f_h, then pick among the VMs
            // big enough to bring the server back under T_h.
            let p = m.f_high(u_raw);
            if p <= 0.0 || !self.rng.gen_bool(p.min(1.0)) {
                return None;
            }
            let cap = server.capacity_mhz();
            let need = u_raw - m.th;
            let candidates: Vec<(dcsim::VmId, f64)> = view
                .migratable_vms(sid)
                .filter(|&(_, d)| d / cap > need)
                .collect();
            let vm = if !candidates.is_empty() {
                candidates[self.rng.gen_range(0..candidates.len())].0
            } else {
                // Footnote 3: no VM matches → take the largest, gated
                // by one more Bernoulli trial.
                let largest = view
                    .migratable_vms(sid)
                    .max_by(|a, b| a.1.total_cmp(&b.1))?;
                if !self.rng.gen_bool(p.min(1.0)) {
                    return None;
                }
                largest.0
            };
            return Some(MigrationRequest {
                vm,
                kind: MigrationKind::High,
            });
        }

        if u_raw < m.tl {
            if self.cfg.grace_suppresses_low_migration && self.in_grace(sid, now_secs) {
                // A freshly woken server is still filling up; shedding
                // its first VMs would undo the wake-up it was woken for.
                return None;
            }
            if now_secs - self.last_low_trial[sid.index()] < self.cfg.low_migration_backoff_secs {
                return None;
            }
            self.last_low_trial[sid.index()] = now_secs;
            let p = m.f_low(u_raw);
            if p <= 0.0 || !self.rng.gen_bool(p.min(1.0)) {
                return None;
            }
            // Pick a VM uniformly at random (the paper does not
            // prescribe the choice for low migrations).
            let candidates: Vec<dcsim::VmId> = view.migratable_vms(sid).map(|(id, _)| id).collect();
            if candidates.is_empty() {
                return None;
            }
            let vm = candidates[self.rng.gen_range(0..candidates.len())];
            return Some(MigrationRequest {
                vm,
                kind: MigrationKind::Low,
            });
        }
        None
    }

    fn quiet_band(&self, n_servers: usize) -> Option<RangeInclusive<f64>> {
        // In `[T_l, T_h]` neither `u > T_h` nor `u < T_l` holds, so
        // `monitor` returns `None` with no draw. It also sizes the
        // per-server vectors first, and their lengths are checkpointed
        // state, so the band is offered only once that is a no-op.
        let sized = self.grace_until.len() >= n_servers && self.last_low_trial.len() >= n_servers;
        let m = &self.cfg.migration;
        sized.then_some(m.tl..=m.th)
    }

    fn on_server_woken(&mut self, server: ServerId, now_secs: f64) {
        self.ensure_grace_len(server.index() + 1);
        self.grace_until[server.index()] = now_secs + self.cfg.grace_secs;
    }

    fn on_server_failed(&mut self, server: ServerId, _now_secs: f64) {
        // A crashed (or wake-abandoned) server loses its soft state: no
        // lingering grace window when it comes back, and a fresh
        // low-migration backoff clock.
        self.ensure_grace_len(server.index() + 1);
        self.grace_until[server.index()] = f64::NEG_INFINITY;
        self.last_low_trial[server.index()] = f64::NEG_INFINITY;
    }

    fn checkpoint_state(&self) -> Vec<u64> {
        // Layout: [rng, n, grace_until[0..n], m, last_low_trial[0..m]],
        // floats as raw bits (grace windows can be NEG_INFINITY). The
        // acceptors scratch buffer is rebuilt per invitation round and
        // the f_a memo is a cache, so neither carries state.
        // Lazily-grown lengths are part of the state:
        // restoring them exactly keeps later `ensure_grace_len` calls
        // no-ops in both the original and the resumed run.
        let mut words = Vec::with_capacity(3 + self.grace_until.len() + self.last_low_trial.len());
        words.push(self.rng.state());
        words.push(self.grace_until.len() as u64);
        words.extend(self.grace_until.iter().map(|g| g.to_bits()));
        words.push(self.last_low_trial.len() as u64);
        words.extend(self.last_low_trial.iter().map(|t| t.to_bits()));
        words
    }

    fn restore_state(&mut self, state: &[u64]) -> Result<(), String> {
        let err = || format!("malformed ecocloud policy state ({} words)", state.len());
        let (&rng_word, rest) = state.split_first().ok_or_else(err)?;
        let (&n, rest) = rest.split_first().ok_or_else(err)?;
        let n = usize::try_from(n).map_err(|_| err())?;
        if rest.len() < n {
            return Err(err());
        }
        let (grace, rest) = rest.split_at(n);
        let (&m, rest) = rest.split_first().ok_or_else(err)?;
        let m = usize::try_from(m).map_err(|_| err())?;
        if rest.len() != m {
            return Err(err());
        }
        self.rng = StdRng::from_state(rng_word);
        self.grace_until = grace.iter().map(|&b| f64::from_bits(b)).collect();
        self.last_low_trial = rest.iter().map(|&b| f64::from_bits(b)).collect();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcsim::vm::VmState;
    use dcsim::{Cluster, Fleet, ServerState, Vm, VmId};

    /// Builds a cluster of `n` active 6-core servers with the given
    /// per-server utilizations (one synthetic VM per server carrying
    /// the whole load).
    fn cluster_with_utils(utils: &[f64]) -> Cluster {
        let fleet = Fleet::uniform(utils.len(), 6);
        let mut c = Cluster::new(&fleet, ServerState::Active);
        for (i, &u) in utils.iter().enumerate() {
            if u > 0.0 {
                add_load(&mut c, i as u32, u * 12_000.0);
            }
        }
        c
    }

    fn new_vm_req(demand_mhz: f64) -> PlacementRequest {
        PlacementRequest {
            demand_mhz,
            ram_mb: 0.0,
            kind: PlacementKind::NewVm,
            exclude: None,
            now_secs: 0.0,
        }
    }

    /// Adds `mhz` of hosted load to `server` as one more synthetic VM.
    fn add_load(c: &mut Cluster, server: u32, mhz: f64) {
        let vm = VmId(c.vms.len() as u32);
        c.vms.push(Vm {
            id: vm,
            trace_idx: 0,
            demand_mhz: mhz,
            ram_mb: 0.0,
            state: VmState::Departed,
            arrived_secs: 0.0,
            priority: Default::default(),
            migration_seq: 0,
            lifetime_secs: None,
            started: false,
            evictable: false,
        });
        c.attach(vm, ServerId(server), 0.0);
    }

    /// The invitation round without the `f_a` memo: evaluates `f_a`
    /// afresh for every fitting server outside its grace window. The
    /// oracle of `fa_memo_matches_naive_invitation_rounds`.
    fn naive_invite(
        p: &mut EcoCloudPolicy,
        view: &ClusterView<'_>,
        req: &PlacementRequest,
    ) -> Vec<ServerId> {
        p.ensure_grace_len(view.n_servers());
        let fa = p.effective_fa(req);
        let m_p = fa.m_p();
        let mut acceptors = Vec::new();
        for (sid, server) in view.powered() {
            if Some(sid) == req.exclude || !p.offer_fits(&server, req, &fa) {
                continue;
            }
            let accepts = if p.in_grace(sid, req.now_secs) {
                true
            } else {
                let pr = fa.eval_normalized(server.decision_utilization(), m_p);
                pr > 0.0 && p.rng.gen_bool(pr)
            };
            if accepts {
                acceptors.push(sid);
            }
        }
        acceptors
    }

    /// The memoized invitation round draws and accepts exactly as the
    /// naive one over a scripted run: loads that change between
    /// rounds, a reservation that moves `decision_utilization` under a
    /// fixed `used`, and high migrations whose lowered threshold
    /// bypasses the memo or clamps back to `T_a` and uses it.
    #[test]
    fn fa_memo_matches_naive_invitation_rounds() {
        let mut c = cluster_with_utils(&[0.3, 0.45, 0.6, 0.675, 0.7, 0.8, 0.85, 0.2]);
        let mut memo = EcoCloudPolicy::paper(31);
        let mut naive = EcoCloudPolicy::paper(31);
        let mut rounds = |c: &Cluster, memo: &mut EcoCloudPolicy, kind| {
            let req = PlacementRequest {
                demand_mhz: 100.0,
                ram_mb: 0.0,
                kind,
                exclude: Some(ServerId(0)),
                now_secs: 0.0,
            };
            for round in 0..25 {
                let got = memo.invite(&c.view(), &req).expect("ecoCloud is phased");
                assert_eq!(
                    got,
                    naive_invite(&mut naive, &c.view(), &req),
                    "{kind:?} round {round}"
                );
                assert_eq!(
                    memo.rng.state(),
                    naive.rng.state(),
                    "{kind:?} round {round}"
                );
            }
        };
        let high = |source_utilization| PlacementKind::MigrationHigh { source_utilization };

        rounds(&c, &mut memo, PlacementKind::NewVm);
        assert_eq!(memo.fa_memo.len(), 8);
        add_load(&mut c, 1, 600.0);
        add_load(&mut c, 4, 0.5);
        rounds(&c, &mut memo, PlacementKind::NewVm);
        // Reserved demand moves the decision utilization only.
        let used = c.hot().used_mhz(2);
        c.add_reservation(ServerId(2), 900.0, 0.0);
        assert_eq!(c.hot().used_mhz(2), used);
        rounds(&c, &mut memo, PlacementKind::MigrationLow);
        // T_a' = 0.9 × 0.8 = 0.72 < T_a: evaluated fresh, memo untouched.
        let before = memo.fa_memo.clone();
        rounds(&c, &mut memo, high(0.8));
        assert_eq!(memo.fa_memo, before);
        // T_a' = min(0.9 × 1.05, T_a) = T_a: the configured function.
        rounds(&c, &mut memo, high(1.05));
        c.release_reservation(ServerId(2), 900.0, 0.0);
        add_load(&mut c, 6, 120.0);
        rounds(&c, &mut memo, PlacementKind::NewVm);
    }

    #[test]
    fn prefers_intermediate_utilization() {
        // One server at u* (acceptance prob 1), others at 0 (prob 0):
        // the placement must always hit the intermediate server.
        let c = cluster_with_utils(&[0.0, 0.675, 0.0]);
        let mut p = EcoCloudPolicy::paper(1);
        for _ in 0..20 {
            match p.place(&c.view(), &new_vm_req(100.0)) {
                PlaceOutcome::Place(sid) => assert_eq!(sid.0, 1),
                other => panic!("unexpected outcome {other:?}"),
            }
        }
    }

    #[test]
    fn never_places_above_threshold() {
        // Both servers at 0.88: a VM of 5 % of capacity would push
        // them to 0.93 > T_a = 0.9 → must not be placed there; no
        // hibernated server exists → Reject.
        let c = cluster_with_utils(&[0.88, 0.88]);
        let mut p = EcoCloudPolicy::paper(2);
        let out = p.place(&c.view(), &new_vm_req(0.05 * 12_000.0));
        assert_eq!(out, PlaceOutcome::Reject);
    }

    #[test]
    fn wakes_hibernated_server_when_nobody_accepts() {
        let mut c = cluster_with_utils(&[0.89, 0.89, 0.0]);
        c.set_server_state(ServerId(2), ServerState::Hibernated);
        let mut p = EcoCloudPolicy::paper(3);
        let out = p.place(&c.view(), &new_vm_req(0.3 * 12_000.0));
        assert_eq!(out, PlaceOutcome::WakeThenPlace(ServerId(2)));
        // The engine would now start the wake; emulate it.
        c.set_server_state(ServerId(2), ServerState::Waking { until_secs: 120.0 });
        // The woken server is in grace: it accepts the next VM
        // deterministically even though its utilization is 0.
        let out2 = p.place(&c.view(), &new_vm_req(0.3 * 12_000.0));
        assert_eq!(out2, PlaceOutcome::Place(ServerId(2)));
    }

    #[test]
    fn low_migration_never_wakes() {
        let mut c = cluster_with_utils(&[0.2, 0.0]);
        c.set_server_state(ServerId(1), ServerState::Hibernated);
        let mut p = EcoCloudPolicy::paper(4);
        let req = PlacementRequest {
            demand_mhz: 0.2 * 12_000.0,
            ram_mb: 0.0,
            kind: PlacementKind::MigrationLow,
            exclude: Some(ServerId(0)),
            now_secs: 0.0,
        };
        // Only candidate host is hibernated → §II forbids waking it.
        assert_eq!(p.place(&c.view(), &req), PlaceOutcome::Reject);
    }

    #[test]
    fn high_migration_uses_lowered_threshold() {
        // Source at u = 1.0 → effective T_a' = 0.9. A destination at
        // 0.88 is under T_a but a 0.04 VM would reach 0.92 > 0.864...
        // Use a destination whose post-placement utilization lands
        // between T_a' and T_a to prove the lowered threshold applies.
        let c = cluster_with_utils(&[1.0, 0.85]);
        let mut p = EcoCloudPolicy::paper(5);
        let req = PlacementRequest {
            demand_mhz: 0.1 * 12_000.0, // would reach 0.95 > T_a' = 0.9
            ram_mb: 0.0,
            kind: PlacementKind::MigrationHigh {
                source_utilization: 1.0,
            },
            exclude: Some(ServerId(0)),
            now_secs: 0.0,
        };
        for _ in 0..10 {
            // No fit under T_a' = 0.9 on server 1 (0.85+0.1 = 0.95),
            // and no hibernated server → reject every time.
            assert_eq!(p.place(&c.view(), &req), PlaceOutcome::Reject);
        }
    }

    #[test]
    fn monitor_silent_between_thresholds() {
        let c = cluster_with_utils(&[0.7]);
        let mut p = EcoCloudPolicy::paper(6);
        for _ in 0..50 {
            assert!(p.monitor(&c.view(), ServerId(0), 0.0).is_none());
        }
    }

    #[test]
    fn monitor_requests_high_migration_when_overloaded() {
        // u = 1.0 → f_h = 1: the request must fire on the first tick.
        let c = cluster_with_utils(&[1.0]);
        let mut p = EcoCloudPolicy::paper(7);
        let req = p.monitor(&c.view(), ServerId(0), 0.0).expect("no request");
        assert_eq!(req.kind, MigrationKind::High);
    }

    #[test]
    fn monitor_requests_low_migration_when_underloaded() {
        // u = 0.05 → f_l = (1 - 0.1)^0.25 ≈ 0.974: fires almost surely
        // within a few ticks.
        let c = cluster_with_utils(&[0.05]);
        let mut p = EcoCloudPolicy::paper(8);
        let got = (0..50).any(|_| {
            p.monitor(&c.view(), ServerId(0), 0.0)
                .is_some_and(|r| r.kind == MigrationKind::Low)
        });
        assert!(got, "low migration never requested at u=0.05");
    }

    #[test]
    fn grace_suppresses_low_migrations() {
        let c = cluster_with_utils(&[0.05]);
        let mut p = EcoCloudPolicy::paper(9);
        p.on_server_woken(ServerId(0), 0.0);
        for _ in 0..50 {
            assert!(
                p.monitor(&c.view(), ServerId(0), 100.0).is_none(),
                "low migration fired during grace"
            );
        }
        // After the grace period the server behaves normally again.
        let got = (0..50).any(|_| p.monitor(&c.view(), ServerId(0), 2000.0).is_some());
        assert!(got);
    }

    #[test]
    fn monitor_ignores_empty_servers() {
        let c = cluster_with_utils(&[0.0]);
        let mut p = EcoCloudPolicy::paper(10);
        assert!(p.monitor(&c.view(), ServerId(0), 0.0).is_none());
    }

    #[test]
    fn high_migration_picks_vm_large_enough() {
        // Server with 3 VMs: 0.02, 0.03 and 0.5 of capacity, total
        // u = 0.55... make it overloaded: 0.5+0.3+0.25 = 1.05.
        let fleet = Fleet::uniform(1, 6);
        let mut c = Cluster::new(&fleet, ServerState::Active);
        for (i, frac) in [0.5, 0.3, 0.25].iter().enumerate() {
            let vm = VmId(i as u32);
            c.vms.push(Vm {
                id: vm,
                trace_idx: 0,
                demand_mhz: frac * 12_000.0,
                ram_mb: 0.0,
                state: VmState::Departed,
                arrived_secs: 0.0,
                priority: Default::default(),
                migration_seq: 0,
                lifetime_secs: None,
                started: false,
                evictable: false,
            });
            c.attach(vm, ServerId(0), 0.0);
        }
        // u = 1.05 (clamped to 1 for f_h → fires surely); need =
        // u − T_h = 1.05 − 0.95 = 0.10: every VM qualifies here, so
        // just check a request fires and targets a hosted VM.
        let mut p = EcoCloudPolicy::paper(11);
        let req = p.monitor(&c.view(), ServerId(0), 0.0).expect("no request");
        assert!(req.vm.0 < 3);
        assert_eq!(req.kind, MigrationKind::High);
    }

    #[test]
    fn ram_constraint_vetoes_acceptance() {
        // One server at the assignment sweet spot for CPU (fa ≈ 1) but
        // memory-full: a RAM-carrying VM must be rejected by the aware
        // policy and accepted by the oblivious one.
        let mut c = cluster_with_utils(&[0.675]);
        c.servers[0].used_ram_mb = 0.89 * c.servers[0].spec.ram_mb;
        let req = PlacementRequest {
            demand_mhz: 10.0,
            ram_mb: 0.05 * c.servers[0].spec.ram_mb, // would exceed 90 %
            kind: PlacementKind::NewVm,
            exclude: None,
            now_secs: 0.0,
        };
        let mut aware = EcoCloudPolicy::new(EcoCloudConfig {
            wake_on_assignment_exhaustion: false,
            ..EcoCloudConfig::paper(20)
        });
        for _ in 0..20 {
            assert_eq!(aware.place(&c.view(), &req), PlaceOutcome::Reject);
        }
        let mut blind = EcoCloudPolicy::new(EcoCloudConfig {
            wake_on_assignment_exhaustion: false,
            ram_aware: false,
            ..EcoCloudConfig::paper(20)
        });
        let accepted =
            (0..20).any(|_| matches!(blind.place(&c.view(), &req), PlaceOutcome::Place(_)));
        assert!(accepted, "oblivious policy never accepted at fa(u*) ≈ 1");
    }

    #[test]
    fn ram_constraint_filters_wake_targets() {
        // The only hibernated server is too small for the VM's memory.
        let mut c = cluster_with_utils(&[0.89, 0.0]);
        c.set_server_state(ServerId(1), ServerState::Hibernated);
        let req = PlacementRequest {
            demand_mhz: 10.0,
            ram_mb: 0.95 * c.servers[1].spec.ram_mb,
            kind: PlacementKind::NewVm,
            exclude: None,
            now_secs: 0.0,
        };
        let mut p = EcoCloudPolicy::paper(21);
        assert_eq!(p.place(&c.view(), &req), PlaceOutcome::Reject);
    }

    #[test]
    fn deterministic_given_seed() {
        let c = cluster_with_utils(&[0.4, 0.5, 0.6, 0.7]);
        let run = |seed| {
            let mut p = EcoCloudPolicy::paper(seed);
            (0..30)
                .map(|_| match p.place(&c.view(), &new_vm_req(120.0)) {
                    PlaceOutcome::Place(s) => s.0 as i64,
                    PlaceOutcome::WakeThenPlace(s) => 1000 + s.0 as i64,
                    PlaceOutcome::Reject => -1,
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }

    #[test]
    fn acceptance_rate_tracks_fa() {
        // Statistical check: a single server at utilization u should
        // accept a tiny VM with empirical frequency ≈ f_a(u).
        let u = 0.5;
        let c = cluster_with_utils(&[u]);
        let mut p = EcoCloudPolicy::new(EcoCloudConfig {
            wake_on_assignment_exhaustion: false,
            assignment_rounds: 1, // measure a single trial, not 1-(1-f)^r
            ..EcoCloudConfig::paper(12)
        });
        let trials = 4000;
        let mut accepted = 0;
        for _ in 0..trials {
            if matches!(p.place(&c.view(), &new_vm_req(1.0)), PlaceOutcome::Place(_)) {
                accepted += 1;
            }
        }
        let expect = p.config().assignment.eval(u);
        let got = accepted as f64 / trials as f64;
        assert!(
            (got - expect).abs() < 0.03,
            "empirical acceptance {got} vs f_a({u}) = {expect}"
        );
    }
}
