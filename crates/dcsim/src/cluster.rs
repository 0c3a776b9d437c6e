//! Cluster state: the dense server and VM stores plus the read-only
//! view handed to policies.
//!
//! The cluster keeps three kinds of derived state incrementally so the
//! engine's hot path never scans the fleet:
//!
//! * running aggregates (`total_used_mhz`, `total_power_w`,
//!   `powered_count`) updated by every load or state mutation,
//! * sorted id indexes of powered and hibernated servers backing
//!   [`ClusterView::powered`] / [`ClusterView::hibernated`],
//! * the **hot fleet arrays** ([`HotFleet`]): the per-server CPU-load
//!   and power-curve scalars that every monitor tick, demand update
//!   and invitation broadcast reads, stored as dense parallel `f64`
//!   vectors indexed by [`ServerId`] instead of inside the [`Server`]
//!   structs. The broadcast scan in the paper's assignment procedure
//!   touches three contiguous arrays instead of pulling a whole
//!   `Server` (spec + state + VM list + RAM accounting) through the
//!   cache per candidate — see `DESIGN.md` §14.
//!
//! The O(N) scans survive as `*_recomputed` oracles; debug builds
//! reconcile the caches against them in [`Cluster::check_invariants`],
//! and [`Cluster::rebase_aggregates`] re-anchors the float sums at
//! every metrics sample so rounding drift stays bounded by one
//! sampling interval.
//!
//! Server **state** changes must go through
//! [`Cluster::set_server_state`] — writing `servers[i].state` directly
//! would desynchronize the indexes and the hot power tags. Load
//! mutations must go through `attach` / `detach` / `update_vm_demand`
//! / `add_reservation` / `release_reservation` for the same reason.

use crate::checkpoint::{CheckpointError, Dec, Enc};
use crate::fleet::Fleet;
use crate::ids::{ServerId, VmId};
use crate::idset::SortedIdSet;
use crate::server::{Server, ServerState};
use crate::sla::VmPriority;
use crate::vm::{Vm, VmState};

/// Power-state tag mirrored from [`ServerState`] into a dense byte so
/// the hot power computation never reads the cold struct.
const TAG_OFF: u8 = 0; // Hibernated or Failed: draws nothing
const TAG_IDLE: u8 = 1; // Waking: draws idle power regardless of load
const TAG_ACTIVE: u8 = 2; // Active: linear curve on utilization

/// The hot per-server state, struct-of-arrays.
///
/// One slot per server, indexed by `ServerId::index()`. These are the
/// only fields the three per-event hot loops read — the invitation
/// broadcast (`used + reserved / capacity` per powered server), the
/// demand update (`used`, power curve per host) and the monitor tick —
/// kept contiguous so those loops stream through cache lines holding
/// eight servers each instead of one.
#[derive(Debug)]
pub struct HotFleet {
    /// Hosted demand, MHz (kept incrementally).
    used_mhz: Vec<f64>,
    /// Demand of VMs migrating *towards* each server, MHz. Counted in
    /// placement decisions so concurrent migrations cannot
    /// oversubscribe a target, but not in physical load/power.
    reserved_mhz: Vec<f64>,
    /// Total CPU capacity, MHz (static after construction).
    capacity_mhz: Vec<f64>,
    /// Power-curve intercept (idle draw), watts.
    idle_w: Vec<f64>,
    /// Power-curve span (`max_w − idle_w`), watts.
    span_w: Vec<f64>,
    /// [`TAG_OFF`] / [`TAG_IDLE`] / [`TAG_ACTIVE`], mirroring
    /// [`ServerState`].
    power_tag: Vec<u8>,
}

impl HotFleet {
    fn new(servers: &[Server]) -> Self {
        let n = servers.len();
        HotFleet {
            used_mhz: vec![0.0; n],
            reserved_mhz: vec![0.0; n],
            capacity_mhz: servers.iter().map(|s| s.capacity_mhz()).collect(),
            idle_w: servers.iter().map(|s| s.spec.power.idle_w).collect(),
            span_w: servers
                .iter()
                .map(|s| s.spec.power.max_w - s.spec.power.idle_w)
                .collect(),
            power_tag: servers.iter().map(|s| tag_of(s.state)).collect(),
        }
    }

    /// Hosted demand of server `i`, MHz.
    #[inline]
    pub fn used_mhz(&self, i: usize) -> f64 {
        self.used_mhz[i]
    }

    /// In-flight migration reservations towards server `i`, MHz.
    #[inline]
    pub fn reserved_mhz(&self, i: usize) -> f64 {
        self.reserved_mhz[i]
    }

    /// CPU capacity of server `i`, MHz.
    #[inline]
    pub fn capacity_mhz(&self, i: usize) -> f64 {
        self.capacity_mhz[i]
    }

    /// Physical CPU utilization of server `i` in [0, ∞); above 1 means
    /// overload.
    #[inline]
    pub fn utilization(&self, i: usize) -> f64 {
        self.used_mhz[i] / self.capacity_mhz[i]
    }

    /// Utilization used for placement decisions (hosted + reserved).
    #[inline]
    pub fn decision_utilization(&self, i: usize) -> f64 {
        (self.used_mhz[i] + self.reserved_mhz[i]) / self.capacity_mhz[i]
    }

    /// True when demand exceeds capacity on server `i`.
    #[inline]
    pub fn is_overloaded(&self, i: usize) -> bool {
        self.used_mhz[i] > self.capacity_mhz[i] * (1.0 + 1e-9)
    }

    /// Fraction of demanded CPU actually granted on server `i`
    /// (proportional share): 1 when not overloaded.
    #[inline]
    pub fn granted_fraction(&self, i: usize) -> f64 {
        if self.used_mhz[i] <= 0.0 {
            1.0
        } else {
            (self.capacity_mhz[i] / self.used_mhz[i]).min(1.0)
        }
    }

    /// True when server `i` is powered (active or waking): the power
    /// tag mirrors [`Server::is_powered`] without loading the cold
    /// struct.
    #[inline]
    pub fn is_powered(&self, i: usize) -> bool {
        self.power_tag[i] != TAG_OFF
    }

    /// True when server `i` is active, mirroring [`Server::is_active`].
    #[inline]
    pub fn is_active(&self, i: usize) -> bool {
        self.power_tag[i] == TAG_ACTIVE
    }

    /// Instantaneous power draw of server `i`, watts: nothing while
    /// off, idle draw while waking, the linear curve while active.
    #[inline]
    pub fn power_w(&self, i: usize) -> f64 {
        match self.power_tag[i] {
            TAG_OFF => 0.0,
            TAG_IDLE => self.idle_w[i],
            _ => {
                let u = self.utilization(i).clamp(0.0, 1.0);
                self.idle_w[i] + self.span_w[i] * u
            }
        }
    }
}

/// The dense power tag for a server state.
#[inline]
fn tag_of(state: ServerState) -> u8 {
    match state {
        ServerState::Hibernated | ServerState::Failed { .. } => TAG_OFF,
        ServerState::Waking { .. } => TAG_IDLE,
        ServerState::Active => TAG_ACTIVE,
    }
}

// Checkpoint tag codecs. Tags are on-disk format: append, never
// renumber.

fn encode_server_state(state: ServerState, e: &mut Enc) {
    match state {
        ServerState::Active => e.u8(0),
        ServerState::Waking { until_secs } => {
            e.u8(1);
            e.f64(until_secs);
        }
        ServerState::Hibernated => e.u8(2),
        ServerState::Failed { until_secs } => {
            e.u8(3);
            e.f64(until_secs);
        }
    }
}

fn decode_server_state(d: &mut Dec<'_>) -> Result<ServerState, CheckpointError> {
    Ok(match d.u8()? {
        0 => ServerState::Active,
        1 => ServerState::Waking {
            until_secs: d.f64()?,
        },
        2 => ServerState::Hibernated,
        3 => ServerState::Failed {
            until_secs: d.f64()?,
        },
        t => {
            return Err(CheckpointError::Corrupt(format!(
                "unknown server-state tag {t}"
            )))
        }
    })
}

/// A VM state without its host or migration source, which is the
/// server whose list holds the VM.
fn encode_vm_state(state: VmState, e: &mut Enc) {
    match state {
        VmState::Hosted { .. } => e.u8(0),
        VmState::Migrating { to, .. } => {
            e.u8(1);
            e.u32(to.0);
        }
        VmState::Departed => e.u8(2),
        VmState::Dropped => e.u8(3),
    }
}

/// Inverse of [`encode_vm_state`] for VM `id`, held by the list of
/// `lister`; a VM must be listed exactly when it is alive.
fn decode_vm_state(
    d: &mut Dec<'_>,
    id: VmId,
    lister: Option<ServerId>,
    n_servers: usize,
) -> Result<VmState, CheckpointError> {
    Ok(match (d.u8()?, lister) {
        (0, Some(host)) => VmState::Hosted { host },
        (1, Some(from)) => VmState::Migrating {
            from,
            to: ServerId(d.id("VM migration destination", n_servers)?),
        },
        (2, None) => VmState::Departed,
        (3, None) => VmState::Dropped,
        (0 | 1, None) => {
            return Err(d.corrupt(format_args!("VM {id} is alive but in no server's list")))
        }
        (2 | 3, Some(sid)) => {
            return Err(d.corrupt(format_args!(
                "VM {id} is listed on server {sid} but is not alive"
            )))
        }
        (t, _) => {
            return Err(CheckpointError::Corrupt(format!(
                "unknown vm-state tag {t}"
            )))
        }
    })
}

fn decode_priority(d: &mut Dec<'_>) -> Result<VmPriority, CheckpointError> {
    Ok(match d.u8()? {
        0 => VmPriority::High,
        1 => VmPriority::Normal,
        2 => VmPriority::Low,
        t => {
            return Err(CheckpointError::Corrupt(format!(
                "unknown vm-priority tag {t}"
            )))
        }
    })
}

/// Mutable cluster state owned by the engine.
#[derive(Debug)]
pub struct Cluster {
    /// All servers (cold per-server state), indexed by [`ServerId`].
    /// Mutate load and state via the cluster methods, not in place
    /// (see module docs).
    pub servers: Vec<Server>,
    /// All VMs ever spawned, indexed by [`VmId`].
    pub vms: Vec<Vm>,
    /// The hot per-server arrays (CPU load, power curve).
    hot: HotFleet,
    /// Running sum of hosted demand, MHz.
    agg_used_mhz: f64,
    /// Running sum of instantaneous power, watts.
    agg_power_w: f64,
    /// Fleet capacity, MHz (static after construction).
    agg_capacity_mhz: f64,
    /// Powered (Active or Waking) servers, ascending id order.
    powered: SortedIdSet,
    /// Hibernated servers, ascending id order.
    hibernated: SortedIdSet,
    /// Failed (crashed, awaiting repair) servers, ascending id order.
    /// Invisible to both policy views: a failed server can neither
    /// receive placements nor be woken.
    failed: SortedIdSet,
}

impl Cluster {
    /// Builds a cluster from a fleet with every server in `state` and
    /// no VMs.
    pub fn new(fleet: &Fleet, state: ServerState) -> Self {
        let servers: Vec<Server> = fleet
            .specs
            .iter()
            .map(|&spec| Server::new(spec, state))
            .collect();
        let hot = HotFleet::new(&servers);
        let mut cluster = Self {
            agg_used_mhz: 0.0,
            agg_power_w: (0..servers.len()).map(|i| hot.power_w(i)).sum(),
            agg_capacity_mhz: servers.iter().map(|s| s.capacity_mhz()).sum(),
            powered: SortedIdSet::with_capacity(servers.len()),
            hibernated: SortedIdSet::with_capacity(servers.len()),
            failed: SortedIdSet::new(),
            hot,
            servers,
            vms: Vec::new(),
        };
        for i in 0..cluster.servers.len() {
            let id = i as u32;
            match cluster.servers[i].state {
                ServerState::Active | ServerState::Waking { .. } => cluster.powered.insert(id),
                ServerState::Hibernated => cluster.hibernated.insert(id),
                ServerState::Failed { .. } => cluster.failed.insert(id),
            };
        }
        cluster
    }

    /// Number of servers.
    pub fn n_servers(&self) -> usize {
        self.servers.len()
    }

    /// The hot per-server arrays (read-only).
    #[inline]
    pub fn hot(&self) -> &HotFleet {
        &self.hot
    }

    /// Servers currently powered (Active or Waking) — the paper's
    /// "active servers" metric (Fig. 7) counts machines drawing power.
    /// O(1) from the index.
    pub fn powered_count(&self) -> usize {
        self.powered.len()
    }

    /// Total physical demand hosted, MHz. O(1) from the running sum.
    pub fn total_used_mhz(&self) -> f64 {
        self.agg_used_mhz.max(0.0)
    }

    /// Total fleet capacity, MHz.
    pub fn total_capacity_mhz(&self) -> f64 {
        self.agg_capacity_mhz
    }

    /// Instantaneous total power draw, watts. O(1) from the running
    /// sum (clamped: float dust must never feed a negative power into
    /// the energy integrator).
    pub fn total_power_w(&self) -> f64 {
        self.agg_power_w.max(0.0)
    }

    /// O(N) oracle for [`Self::powered_count`].
    pub fn powered_count_recomputed(&self) -> usize {
        self.servers.iter().filter(|s| s.is_powered()).count()
    }

    /// O(N) oracle for [`Self::total_used_mhz`].
    pub fn total_used_mhz_recomputed(&self) -> f64 {
        self.hot.used_mhz.iter().sum()
    }

    /// O(N) oracle for [`Self::total_capacity_mhz`].
    pub fn total_capacity_mhz_recomputed(&self) -> f64 {
        self.servers.iter().map(|s| s.capacity_mhz()).sum()
    }

    /// O(N) oracle for [`Self::total_power_w`].
    pub fn total_power_w_recomputed(&self) -> f64 {
        (0..self.servers.len()).map(|i| self.hot.power_w(i)).sum()
    }

    /// Transitions a server to `state`, keeping the power aggregate,
    /// the hot power tag and the powered/hibernated/failed indexes in
    /// sync.
    pub fn set_server_state(&mut self, sid: ServerId, state: ServerState) {
        let (id, i) = (sid.0, sid.index());
        let power_before = self.hot.power_w(i);
        self.servers[i].state = state;
        self.hot.power_tag[i] = tag_of(state);
        self.agg_power_w += self.hot.power_w(i) - power_before;
        self.powered.remove(id);
        self.hibernated.remove(id);
        self.failed.remove(id);
        match state {
            ServerState::Active | ServerState::Waking { .. } => self.powered.insert(id),
            ServerState::Hibernated => self.hibernated.insert(id),
            ServerState::Failed { .. } => self.failed.insert(id),
        };
    }

    /// Number of failed servers, O(1).
    pub fn failed_count(&self) -> usize {
        self.failed.len()
    }

    /// Attaches an existing VM to a server, updating load accounting.
    /// The VM must not currently be hosted anywhere.
    pub fn attach(&mut self, vm: VmId, server: ServerId, now_secs: f64) {
        let demand = self.vms[vm.index()].demand_mhz;
        let ram = self.vms[vm.index()].ram_mb;
        let i = server.index();
        let s = &mut self.servers[i];
        debug_assert!(!s.vms.contains(&vm), "VM {vm} already attached to {server}");
        let used_before = self.hot.used_mhz[i];
        let power_before = self.hot.power_w(i);
        s.vms.push(vm);
        s.used_ram_mb += ram;
        s.empty_since_secs = None;
        self.hot.used_mhz[i] += demand;
        self.agg_used_mhz += self.hot.used_mhz[i] - used_before;
        self.agg_power_w += self.hot.power_w(i) - power_before;
        self.vms[vm.index()].state = VmState::Hosted { host: server };
        let _ = now_secs;
    }

    /// Detaches a VM from a server, updating load accounting; marks the
    /// server's `empty_since` when it just became empty.
    pub fn detach(&mut self, vm: VmId, server: ServerId, now_secs: f64) {
        let demand = self.vms[vm.index()].demand_mhz;
        let ram = self.vms[vm.index()].ram_mb;
        let i = server.index();
        let s = &mut self.servers[i];
        let pos = s
            .vms
            .iter()
            .position(|&v| v == vm)
            .unwrap_or_else(|| panic!("VM {vm} not on server {server}"));
        let used_before = self.hot.used_mhz[i];
        let power_before = self.hot.power_w(i);
        s.vms.swap_remove(pos);
        s.used_ram_mb = (s.used_ram_mb - ram).max(0.0);
        self.hot.used_mhz[i] = (used_before - demand).max(0.0);
        if s.vms.is_empty() {
            self.hot.used_mhz[i] = 0.0; // clear accumulated float dust
            s.used_ram_mb = 0.0;
            s.empty_since_secs = Some(now_secs);
        }
        self.agg_used_mhz += self.hot.used_mhz[i] - used_before;
        self.agg_power_w += self.hot.power_w(i) - power_before;
    }

    /// Applies a demand change for a hosted VM, keeping the host's load
    /// in sync. Returns the server whose load changed, if any.
    pub fn update_vm_demand(&mut self, vm: VmId, new_demand_mhz: f64) -> Option<ServerId> {
        let old = self.vms[vm.index()].demand_mhz;
        self.vms[vm.index()].demand_mhz = new_demand_mhz;
        let host = self.vms[vm.index()].executing_on()?;
        let i = host.index();
        let used_before = self.hot.used_mhz[i];
        let power_before = self.hot.power_w(i);
        self.hot.used_mhz[i] = (used_before - old + new_demand_mhz).max(0.0);
        self.agg_used_mhz += self.hot.used_mhz[i] - used_before;
        self.agg_power_w += self.hot.power_w(i) - power_before;
        // Keep the reservation at a migration target in sync too.
        if let VmState::Migrating { to, .. } = self.vms[vm.index()].state {
            let t = to.index();
            self.hot.reserved_mhz[t] = (self.hot.reserved_mhz[t] - old + new_demand_mhz).max(0.0);
        }
        Some(host)
    }

    /// Reserves capacity on `server` for one incoming migration.
    pub fn add_reservation(&mut self, server: ServerId, demand_mhz: f64, ram_mb: f64) {
        debug_assert!(demand_mhz >= 0.0 && ram_mb >= 0.0);
        let i = server.index();
        self.hot.reserved_mhz[i] += demand_mhz;
        let s = &mut self.servers[i];
        s.reserved_ram_mb += ram_mb;
        s.reserved_count += 1;
    }

    /// Releases the reservation of one finished (or aborted) incoming
    /// migration by exact subtraction. Real accounting drift — trying
    /// to release more than is reserved — is caught by debug
    /// assertions; sub-ulp float dust is snapped to zero once no
    /// migration is in flight.
    pub fn release_reservation(&mut self, server: ServerId, demand_mhz: f64, ram_mb: f64) {
        let i = server.index();
        let s = &mut self.servers[i];
        let reserved = &mut self.hot.reserved_mhz[i];
        debug_assert!(
            s.reserved_count > 0,
            "released a reservation that was never added"
        );
        let tol = 1e-6 * demand_mhz.abs().max(1.0);
        debug_assert!(
            *reserved - demand_mhz >= -tol,
            "CPU reservation drift: releasing {demand_mhz} MHz of {reserved} reserved"
        );
        let ram_tol = 1e-6 * ram_mb.abs().max(1.0);
        debug_assert!(
            s.reserved_ram_mb - ram_mb >= -ram_tol,
            "RAM reservation drift: releasing {ram_mb} MB of {} reserved",
            s.reserved_ram_mb
        );
        *reserved -= demand_mhz;
        s.reserved_ram_mb -= ram_mb;
        s.reserved_count = s.reserved_count.saturating_sub(1);
        if s.reserved_count == 0 {
            debug_assert!(
                reserved.abs() <= tol && s.reserved_ram_mb.abs() <= ram_tol,
                "reservation dust beyond rounding: {reserved} MHz / {} MB left with no \
                 migration in flight",
                s.reserved_ram_mb
            );
            *reserved = 0.0;
            s.reserved_ram_mb = 0.0;
        } else {
            // Dust between concurrent migrations must not go negative.
            *reserved = reserved.max(0.0);
            s.reserved_ram_mb = s.reserved_ram_mb.max(0.0);
        }
    }

    /// Re-anchors the float aggregates on a fresh O(N) recompute.
    ///
    /// The incremental sums accumulate one rounding error per mutation;
    /// calling this on the (already O(N)) metrics-sample path bounds
    /// the drift to one sampling interval. Debug builds assert the
    /// drift really was only rounding-level before re-anchoring.
    pub fn rebase_aggregates(&mut self) {
        let used = self.total_used_mhz_recomputed();
        let power = self.total_power_w_recomputed();
        debug_assert!(
            (self.agg_used_mhz - used).abs() <= 1e-6 * used.abs().max(1.0),
            "used-MHz aggregate drifted: cached {} vs recomputed {used}",
            self.agg_used_mhz
        );
        debug_assert!(
            (self.agg_power_w - power).abs() <= 1e-6 * power.abs().max(1.0),
            "power aggregate drifted: cached {} vs recomputed {power}",
            self.agg_power_w
        );
        self.agg_used_mhz = used;
        self.agg_power_w = power;
    }

    /// Checks internal consistency; used by tests and debug assertions.
    /// Verifies that each server's cached load equals the sum of its
    /// VMs' demands, that VM/host back-pointers agree, that the
    /// incremental aggregates match their O(N) oracles, that the
    /// powered/hibernated indexes partition the fleet by state, and
    /// that the hot arrays mirror the cold structs.
    pub fn check_invariants(&self) {
        for (idx, s) in self.servers.iter().enumerate() {
            let sid = ServerId(idx as u32);
            let sum: f64 = s.vms.iter().map(|&v| self.vms[v.index()].demand_mhz).sum();
            assert!(
                (self.hot.used_mhz[idx] - sum).abs() < 1e-6 * sum.max(1.0),
                "server {sid}: cached load {} != sum {}",
                self.hot.used_mhz[idx],
                sum
            );
            for &v in &s.vms {
                let on = self.vms[v.index()].executing_on();
                assert_eq!(on, Some(sid), "VM {v} host back-pointer mismatch");
            }
            assert!(
                self.hot.reserved_mhz[idx] >= -1e-9,
                "negative reservation on {sid}"
            );
            let ram_sum: f64 = s.vms.iter().map(|&v| self.vms[v.index()].ram_mb).sum();
            assert!(
                (s.used_ram_mb - ram_sum).abs() < 1e-6 * ram_sum.max(1.0),
                "server {sid}: cached RAM {} != sum {}",
                s.used_ram_mb,
                ram_sum
            );
            assert_eq!(
                self.hot.power_tag[idx],
                tag_of(s.state),
                "hot power tag out of sync for {sid}"
            );
            assert_eq!(
                self.hot.capacity_mhz[idx],
                s.capacity_mhz(),
                "hot capacity out of sync for {sid}"
            );
            assert_eq!(
                self.powered.contains(sid.0),
                s.is_powered(),
                "powered index out of sync for {sid}"
            );
            assert_eq!(
                self.hibernated.contains(sid.0),
                matches!(s.state, ServerState::Hibernated),
                "hibernated index out of sync for {sid}"
            );
            assert_eq!(
                self.failed.contains(sid.0),
                matches!(s.state, ServerState::Failed { .. }),
                "failed index out of sync for {sid}"
            );
            if matches!(s.state, ServerState::Failed { .. }) {
                assert!(s.vms.is_empty(), "failed server {sid} still hosts VMs");
                assert_eq!(
                    s.reserved_count, 0,
                    "failed server {sid} still holds migration reservations"
                );
            }
        }
        for vm in &self.vms {
            if let Some(host) = vm.executing_on() {
                assert!(
                    self.servers[host.index()].vms.contains(&vm.id),
                    "VM {} not in host {host} list",
                    vm.id
                );
            }
        }
        assert!(
            self.servers
                .iter()
                .map(|s| s.reserved_count)
                .eq(self.reserved_counts()),
            "reservation counts are not the VMs migrating in"
        );
        assert_eq!(
            self.powered.len() + self.hibernated.len() + self.failed.len(),
            self.servers.len(),
            "powered/hibernated/failed indexes do not partition the fleet"
        );
        assert_eq!(self.powered_count(), self.powered_count_recomputed());
        let used = self.total_used_mhz_recomputed();
        assert!(
            (self.agg_used_mhz - used).abs() <= 1e-6 * used.abs().max(1.0),
            "used-MHz aggregate out of sync: cached {} vs {used}",
            self.agg_used_mhz
        );
        let power = self.total_power_w_recomputed();
        assert!(
            (self.agg_power_w - power).abs() <= 1e-6 * power.abs().max(1.0),
            "power aggregate out of sync: cached {} vs {power}",
            self.agg_power_w
        );
        let cap = self.total_capacity_mhz_recomputed();
        assert!(
            (self.agg_capacity_mhz - cap).abs() <= 1e-9 * cap.max(1.0),
            "capacity aggregate out of sync: cached {} vs {cap}",
            self.agg_capacity_mhz
        );
    }

    /// Checkpoint encoding of everything mutable: per-server dynamic
    /// fields, the full VM table, the hot load vectors and the running
    /// float aggregates (captured as raw bits — recomputing them on
    /// restore would lose the incremental rounding history and break
    /// bit-identity). Static state (specs, capacities, power curves,
    /// the capacity aggregate) is re-derived from the fleet; the power
    /// tags and state indexes are pure functions of the server states,
    /// each alive VM's host (or migration source) is the server whose
    /// list holds it, and each server's `reserved_count` is the number
    /// of VMs migrating to it, so none of those are written.
    pub(crate) fn encode(&self, e: &mut Enc) {
        for s in &self.servers {
            encode_server_state(s.state, e);
            e.usize(s.vms.len());
            for v in &s.vms {
                e.u32(v.0);
            }
            e.f64(s.used_ram_mb);
            e.f64(s.reserved_ram_mb);
            e.opt_f64(s.empty_since_secs);
        }
        e.usize(self.vms.len());
        for vm in &self.vms {
            e.usize(vm.trace_idx);
            e.f64(vm.demand_mhz);
            e.f64(vm.ram_mb);
            encode_vm_state(vm.state, e);
            e.f64(vm.arrived_secs);
            e.u8(vm.priority.index() as u8);
            e.u32(vm.migration_seq);
            e.opt_f64(vm.lifetime_secs);
            e.bool(vm.started);
            e.bool(vm.evictable);
        }
        self.hot.used_mhz.iter().for_each(|&x| e.f64(x));
        self.hot.reserved_mhz.iter().for_each(|&x| e.f64(x));
        e.f64(self.agg_used_mhz);
        e.f64(self.agg_power_w);
    }

    /// Overlays a checkpoint onto `self`, which must be a freshly
    /// built cluster of the same fleet. Inverse of
    /// [`encode`](Self::encode); rebuilds the power tags and state
    /// indexes from the restored server states, the VM hosts from the
    /// server lists and the reservation counts from the VM table. Every
    /// id is range-checked: servers against the fleet, VMs against the
    /// restored table, and each VM's trace against the `n_traces` of
    /// the workload. A VM must be listed exactly when it is alive.
    pub(crate) fn decode_into(
        &mut self,
        d: &mut Dec<'_>,
        n_traces: usize,
    ) -> Result<(), CheckpointError> {
        let n = self.servers.len();
        for s in &mut self.servers {
            s.state = decode_server_state(d)?;
            s.vms = d.u32s()?.into_iter().map(VmId).collect();
            s.used_ram_mb = d.f64()?;
            s.reserved_ram_mb = d.f64()?;
            s.empty_since_secs = d.opt_f64()?;
        }
        let n_vms = d.usize()?;
        d.check_remaining(n_vms, 40)?; // fixed-width VM fields
        let listed_by = self.listing_servers(d, n_vms)?;
        self.vms.clear();
        self.vms.reserve(n_vms);
        for (i, lister) in listed_by.into_iter().enumerate() {
            let id = VmId(i as u32);
            let trace_idx = d.usize()?;
            d.in_range("VM trace", trace_idx, n_traces)?;
            self.vms.push(Vm {
                id,
                trace_idx,
                demand_mhz: d.f64()?,
                ram_mb: d.f64()?,
                state: decode_vm_state(d, id, lister, n)?,
                arrived_secs: d.f64()?,
                priority: decode_priority(d)?,
                migration_seq: d.u32()?,
                lifetime_secs: d.opt_f64()?,
                started: d.bool()?,
                evictable: d.bool()?,
            });
        }
        let counts = self.reserved_counts();
        for (s, count) in self.servers.iter_mut().zip(counts) {
            s.reserved_count = count;
        }
        self.hot.used_mhz = d.f64s_of(n)?;
        self.hot.reserved_mhz = d.f64s_of(n)?;
        self.agg_used_mhz = d.f64()?;
        self.agg_power_w = d.f64()?;
        self.powered.clear();
        self.hibernated.clear();
        self.failed.clear();
        for i in 0..self.servers.len() {
            let state = self.servers[i].state;
            self.hot.power_tag[i] = tag_of(state);
            match state {
                ServerState::Active | ServerState::Waking { .. } => self.powered.insert(i as u32),
                ServerState::Hibernated => self.hibernated.insert(i as u32),
                ServerState::Failed { .. } => self.failed.insert(i as u32),
            };
        }
        Ok(())
    }

    /// Each server's `reserved_count`: the VMs migrating to it.
    fn reserved_counts(&self) -> Vec<u32> {
        let mut counts = vec![0; self.servers.len()];
        for vm in &self.vms {
            if let VmState::Migrating { to, .. } = vm.state {
                counts[to.index()] += 1;
            }
        }
        counts
    }

    /// Which server lists each of `n_vms` VMs, read from the server
    /// lists that precede the VM table: entry `v` is the server whose
    /// list holds VM `v`, `None` when none does. Checks that
    /// every listed id is in range, that no VM is listed twice and
    /// that a failed server lists none.
    fn listing_servers(
        &self,
        d: &Dec<'_>,
        n_vms: usize,
    ) -> Result<Vec<Option<ServerId>>, CheckpointError> {
        let mut listed_by = vec![None; n_vms];
        for (i, s) in self.servers.iter().enumerate() {
            let sid = ServerId(i as u32);
            if matches!(s.state, ServerState::Failed { .. }) && !s.vms.is_empty() {
                return Err(d.corrupt(format_args!(
                    "failed server {sid} lists {} VMs",
                    s.vms.len()
                )));
            }
            for &v in &s.vms {
                d.in_range("hosted VM", v.index(), n_vms)?;
                if let Some(first) = listed_by[v.index()].replace(sid) {
                    return Err(d.corrupt(format_args!(
                        "VM {v} is listed on server {first} and again on server {sid}"
                    )));
                }
            }
        }
        Ok(listed_by)
    }

    /// Read-only view for policies.
    pub fn view(&self) -> ClusterView<'_> {
        ClusterView {
            servers: &self.servers,
            vms: &self.vms,
            hot: &self.hot,
            powered: &self.powered,
            hibernated: &self.hibernated,
        }
    }
}

/// A server as seen by policies: the cold struct plus its hot scalars,
/// loaded together so callers keep the pre-split `server.utilization()`
/// style API. `Deref`s to [`Server`] for the cold fields (`spec`,
/// `state`, `vms`, RAM accounting).
#[derive(Debug, Clone, Copy)]
pub struct ServerRef<'a> {
    cold: &'a Server,
    used_mhz: f64,
    reserved_mhz: f64,
    capacity_mhz: f64,
}

impl<'a> std::ops::Deref for ServerRef<'a> {
    type Target = Server;
    fn deref(&self) -> &Server {
        self.cold
    }
}

impl<'a> ServerRef<'a> {
    #[inline]
    fn new(cold: &'a Server, hot: &HotFleet, i: usize) -> Self {
        ServerRef {
            cold,
            used_mhz: hot.used_mhz[i],
            reserved_mhz: hot.reserved_mhz[i],
            capacity_mhz: hot.capacity_mhz[i],
        }
    }

    /// Hosted demand, MHz.
    #[inline]
    pub fn used_mhz(&self) -> f64 {
        self.used_mhz
    }

    /// Demand reserved by in-flight incoming migrations, MHz.
    #[inline]
    pub fn reserved_mhz(&self) -> f64 {
        self.reserved_mhz
    }

    /// Total capacity, MHz.
    #[inline]
    pub fn capacity_mhz(&self) -> f64 {
        self.capacity_mhz
    }

    /// Physical CPU utilization in [0, ∞); above 1 means overload.
    #[inline]
    pub fn utilization(&self) -> f64 {
        self.used_mhz / self.capacity_mhz
    }

    /// Utilization used for placement decisions (hosted + reserved).
    #[inline]
    pub fn decision_utilization(&self) -> f64 {
        (self.used_mhz + self.reserved_mhz) / self.capacity_mhz
    }

    /// True when demand exceeds capacity (VMs are being short-changed).
    #[inline]
    pub fn is_overloaded(&self) -> bool {
        self.used_mhz > self.capacity_mhz * (1.0 + 1e-9)
    }

    /// Fraction of demanded CPU actually granted to hosted VMs
    /// (proportional share): 1 when not overloaded.
    #[inline]
    pub fn granted_fraction(&self) -> f64 {
        if self.used_mhz <= 0.0 {
            1.0
        } else {
            (self.capacity_mhz / self.used_mhz).min(1.0)
        }
    }
}

/// Immutable snapshot of the cluster handed to policies.
#[derive(Debug, Clone, Copy)]
pub struct ClusterView<'a> {
    servers: &'a [Server],
    vms: &'a [Vm],
    hot: &'a HotFleet,
    powered: &'a SortedIdSet,
    hibernated: &'a SortedIdSet,
}

impl<'a> ClusterView<'a> {
    /// Number of servers.
    pub fn n_servers(&self) -> usize {
        self.servers.len()
    }

    /// Number of powered servers, O(1).
    pub fn n_powered(&self) -> usize {
        self.powered.len()
    }

    /// Number of hibernated servers, O(1).
    pub fn n_hibernated(&self) -> usize {
        self.hibernated.len()
    }

    /// Access to one server (cold struct + hot scalars).
    #[inline]
    pub fn server(&self, id: ServerId) -> ServerRef<'a> {
        ServerRef::new(&self.servers[id.index()], self.hot, id.index())
    }

    /// Access to one VM.
    pub fn vm(&self, id: VmId) -> &'a Vm {
        &self.vms[id.index()]
    }

    /// Iterates `(id, server)` over all servers.
    pub fn iter(&self) -> impl Iterator<Item = (ServerId, ServerRef<'a>)> + '_ {
        let (servers, hot) = (self.servers, self.hot);
        servers
            .iter()
            .enumerate()
            .map(move |(i, s)| (ServerId(i as u32), ServerRef::new(s, hot, i)))
    }

    /// Iterates over powered (Active or Waking) servers — the set the
    /// manager's invitation broadcast reaches. Backed by the sorted
    /// index: O(powered), ascending id order (identical to the
    /// filter-based scan it replaces).
    pub fn powered(&self) -> impl Iterator<Item = (ServerId, ServerRef<'a>)> + '_ {
        let (servers, hot) = (self.servers, self.hot);
        self.powered.iter().map(move |id| {
            (
                ServerId(id),
                ServerRef::new(&servers[id as usize], hot, id as usize),
            )
        })
    }

    /// Iterates over hibernated servers — the wake-up candidates.
    /// Backed by the sorted index: O(hibernated), ascending id order.
    pub fn hibernated(&self) -> impl Iterator<Item = (ServerId, ServerRef<'a>)> + '_ {
        let (servers, hot) = (self.servers, self.hot);
        self.hibernated.iter().map(move |id| {
            (
                ServerId(id),
                ServerRef::new(&servers[id as usize], hot, id as usize),
            )
        })
    }

    /// `(vm, demand_mhz)` for every VM on `server` that is *not*
    /// already migrating — the candidates a monitor may move.
    pub fn migratable_vms(&self, server: ServerId) -> impl Iterator<Item = (VmId, f64)> + '_ {
        self.servers[server.index()]
            .vms
            .iter()
            .map(|&v| &self.vms[v.index()])
            .filter(|vm| !vm.is_migrating())
            .map(|vm| (vm.id, vm.demand_mhz))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::Fleet;
    use crate::server::{ServerSpec, ServerState};

    fn cluster_with_vms(n_servers: usize, demands: &[f64]) -> Cluster {
        let fleet = Fleet::uniform(n_servers, 6);
        let mut c = Cluster::new(&fleet, ServerState::Active);
        for (i, &d) in demands.iter().enumerate() {
            c.vms.push(Vm {
                id: VmId(i as u32),
                trace_idx: 0,
                demand_mhz: d,
                ram_mb: 0.0,
                state: VmState::Departed, // attached below
                arrived_secs: 0.0,
                priority: Default::default(),
                migration_seq: 0,
                lifetime_secs: None,
                started: false,
                evictable: false,
            });
        }
        c
    }

    #[test]
    fn attach_detach_keeps_load_in_sync() {
        let mut c = cluster_with_vms(2, &[1000.0, 2000.0]);
        c.attach(VmId(0), ServerId(0), 0.0);
        c.attach(VmId(1), ServerId(0), 0.0);
        assert_eq!(c.hot().used_mhz(0), 3000.0);
        assert_eq!(c.total_used_mhz(), 3000.0);
        c.check_invariants();
        c.detach(VmId(0), ServerId(0), 5.0);
        assert_eq!(c.hot().used_mhz(0), 2000.0);
        assert_eq!(c.total_used_mhz(), 2000.0);
        assert!(c.servers[0].empty_since_secs.is_none());
        c.vms[1].state = VmState::Departed;
        c.detach(VmId(1), ServerId(0), 9.0);
        assert_eq!(c.hot().used_mhz(0), 0.0);
        assert_eq!(c.total_used_mhz(), 0.0);
        assert_eq!(c.servers[0].empty_since_secs, Some(9.0));
    }

    #[test]
    fn demand_update_adjusts_host() {
        let mut c = cluster_with_vms(1, &[1000.0]);
        c.attach(VmId(0), ServerId(0), 0.0);
        let host = c.update_vm_demand(VmId(0), 1500.0);
        assert_eq!(host, Some(ServerId(0)));
        assert_eq!(c.hot().used_mhz(0), 1500.0);
        assert_eq!(c.total_used_mhz(), 1500.0);
        c.check_invariants();
    }

    #[test]
    fn demand_update_tracks_migration_reservation() {
        let mut c = cluster_with_vms(2, &[1000.0]);
        c.attach(VmId(0), ServerId(0), 0.0);
        c.vms[0].state = VmState::Migrating {
            from: ServerId(0),
            to: ServerId(1),
        };
        c.add_reservation(ServerId(1), 1000.0, 0.0);
        c.update_vm_demand(VmId(0), 800.0);
        assert_eq!(c.hot().used_mhz(0), 800.0);
        assert_eq!(c.hot().reserved_mhz(1), 800.0);
    }

    #[test]
    fn reservations_snap_to_zero_when_drained() {
        let mut c = cluster_with_vms(1, &[]);
        let sid = ServerId(0);
        c.add_reservation(sid, 1000.0, 512.0);
        c.add_reservation(sid, 0.1 + 0.2, 0.0); // deliberately dusty value
        assert_eq!(c.servers[0].reserved_count, 2);
        c.release_reservation(sid, 1000.0, 512.0);
        assert!(c.hot().reserved_mhz(0) > 0.0);
        c.release_reservation(sid, 0.1 + 0.2, 0.0);
        assert_eq!(c.servers[0].reserved_count, 0);
        assert_eq!(c.hot().reserved_mhz(0), 0.0, "dust must snap to zero");
        assert_eq!(c.servers[0].reserved_ram_mb, 0.0);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "never added")]
    fn releasing_unbalanced_reservation_panics_in_debug() {
        let mut c = cluster_with_vms(1, &[]);
        c.release_reservation(ServerId(0), 100.0, 0.0);
    }

    #[test]
    fn hot_power_tracks_state_and_load() {
        let fleet = Fleet::uniform(1, 6);
        let spec = ServerSpec::paper(6);
        let mut c = Cluster::new(&fleet, ServerState::Hibernated);
        assert_eq!(c.hot().power_w(0), 0.0);
        c.set_server_state(ServerId(0), ServerState::Waking { until_secs: 10.0 });
        assert_eq!(c.hot().power_w(0), spec.power.idle_w);
        c.set_server_state(ServerId(0), ServerState::Active);
        c.vms.push(Vm {
            id: VmId(0),
            trace_idx: 0,
            demand_mhz: spec.capacity_mhz(),
            ram_mb: 0.0,
            state: VmState::Departed,
            arrived_secs: 0.0,
            priority: Default::default(),
            migration_seq: 0,
            lifetime_secs: None,
            started: false,
            evictable: false,
        });
        c.attach(VmId(0), ServerId(0), 0.0);
        assert_eq!(c.hot().power_w(0), spec.power.max_w);
        c.set_server_state(ServerId(0), ServerState::Failed { until_secs: 99.0 });
        assert_eq!(c.hot().power_w(0), 0.0);
    }

    #[test]
    fn server_ref_mirrors_hot_state() {
        let mut c = cluster_with_vms(2, &[4000.0]);
        c.attach(VmId(0), ServerId(0), 0.0);
        c.add_reservation(ServerId(0), 2000.0, 0.0);
        let v = c.view();
        let s = v.server(ServerId(0));
        assert_eq!(s.used_mhz(), 4000.0);
        assert_eq!(s.reserved_mhz(), 2000.0);
        assert_eq!(s.capacity_mhz(), 12_000.0);
        assert!((s.utilization() - 4000.0 / 12_000.0).abs() < 1e-12);
        assert!((s.decision_utilization() - 0.5).abs() < 1e-12);
        assert!(!s.is_overloaded());
        assert_eq!(s.granted_fraction(), 1.0);
        // Deref exposes the cold half.
        assert_eq!(s.spec.cores, 6);
        assert!(s.is_active());
        assert_eq!(s.vms.len(), 1);
    }

    #[test]
    fn overload_and_granted_fraction() {
        let mut c = cluster_with_vms(1, &[10_000.0]);
        // Uniform 6-core fleet: capacity 12,000 MHz — overload needs
        // more.
        c.attach(VmId(0), ServerId(0), 0.0);
        assert!(!c.hot().is_overloaded(0));
        c.update_vm_demand(VmId(0), 15_000.0);
        assert!(c.hot().is_overloaded(0));
        assert!((c.hot().granted_fraction(0) - 0.8).abs() < 1e-12);
        assert!((c.hot().utilization(0) - 1.25).abs() < 1e-12);
        let (_, s) = c.view().powered().next().unwrap();
        assert!(s.is_overloaded());
        assert!((s.granted_fraction() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn powered_count_and_views() {
        let fleet = Fleet::uniform(3, 4);
        let mut c = Cluster::new(&fleet, ServerState::Active);
        c.set_server_state(ServerId(2), ServerState::Hibernated);
        assert_eq!(c.powered_count(), 2);
        let v = c.view();
        assert_eq!(v.powered().count(), 2);
        assert_eq!(v.hibernated().count(), 1);
        assert_eq!(v.n_powered(), 2);
        assert_eq!(v.n_hibernated(), 1);
        assert_eq!(v.n_servers(), 3);
        c.check_invariants();
    }

    #[test]
    fn state_transitions_track_power_aggregate() {
        let fleet = Fleet::uniform(4, 6);
        let mut c = Cluster::new(&fleet, ServerState::Hibernated);
        assert_eq!(c.total_power_w(), 0.0);
        assert_eq!(c.powered_count(), 0);
        c.set_server_state(ServerId(1), ServerState::Waking { until_secs: 120.0 });
        c.set_server_state(ServerId(3), ServerState::Active);
        assert_eq!(c.powered_count(), 2);
        assert!((c.total_power_w() - c.total_power_w_recomputed()).abs() < 1e-9);
        c.set_server_state(ServerId(1), ServerState::Active);
        c.set_server_state(ServerId(3), ServerState::Hibernated);
        assert_eq!(c.powered_count(), 1);
        assert!((c.total_power_w() - c.total_power_w_recomputed()).abs() < 1e-9);
        c.check_invariants();
    }

    #[test]
    fn indexed_views_match_filter_scan() {
        let fleet = Fleet::uniform(9, 4);
        let mut c = Cluster::new(&fleet, ServerState::Active);
        for sid in [1u32, 4, 7] {
            c.set_server_state(ServerId(sid), ServerState::Hibernated);
        }
        c.set_server_state(ServerId(4), ServerState::Waking { until_secs: 60.0 });
        let v = c.view();
        let indexed: Vec<u32> = v.powered().map(|(sid, _)| sid.0).collect();
        let scanned: Vec<u32> = v
            .iter()
            .filter(|(_, s)| s.is_powered())
            .map(|(sid, _)| sid.0)
            .collect();
        assert_eq!(indexed, scanned, "powered order must match the scan");
        let indexed_h: Vec<u32> = v.hibernated().map(|(sid, _)| sid.0).collect();
        let scanned_h: Vec<u32> = v
            .iter()
            .filter(|(_, s)| matches!(s.state, ServerState::Hibernated))
            .map(|(sid, _)| sid.0)
            .collect();
        assert_eq!(indexed_h, scanned_h);
    }

    #[test]
    fn rebase_aggregates_is_idempotent_when_exact() {
        let mut c = cluster_with_vms(3, &[500.0, 900.0]);
        c.attach(VmId(0), ServerId(0), 0.0);
        c.attach(VmId(1), ServerId(2), 0.0);
        let used = c.total_used_mhz();
        let power = c.total_power_w();
        c.rebase_aggregates();
        assert_eq!(c.total_used_mhz(), used);
        assert_eq!(c.total_power_w(), power);
    }

    #[test]
    fn migratable_excludes_in_flight() {
        let mut c = cluster_with_vms(2, &[500.0, 600.0]);
        c.attach(VmId(0), ServerId(0), 0.0);
        c.attach(VmId(1), ServerId(0), 0.0);
        c.vms[1].state = VmState::Migrating {
            from: ServerId(0),
            to: ServerId(1),
        };
        let v = c.view();
        let movable: Vec<_> = v.migratable_vms(ServerId(0)).collect();
        assert_eq!(movable, vec![(VmId(0), 500.0)]);
    }

    #[test]
    fn failed_servers_leave_both_views() {
        let fleet = Fleet::uniform(3, 4);
        let mut c = Cluster::new(&fleet, ServerState::Active);
        c.set_server_state(ServerId(1), ServerState::Failed { until_secs: 50.0 });
        assert_eq!(c.powered_count(), 2);
        assert_eq!(c.failed_count(), 1);
        assert_eq!(c.total_power_w(), c.total_power_w_recomputed());
        let v = c.view();
        assert!(v.powered().all(|(sid, _)| sid != ServerId(1)));
        assert!(v.hibernated().all(|(sid, _)| sid != ServerId(1)));
        c.check_invariants();
        c.set_server_state(ServerId(1), ServerState::Hibernated);
        assert_eq!(c.failed_count(), 0);
        assert_eq!(c.view().hibernated().count(), 1);
        c.check_invariants();
    }

    #[test]
    #[should_panic(expected = "not on server")]
    fn detach_missing_vm_panics() {
        let mut c = cluster_with_vms(1, &[100.0]);
        c.detach(VmId(0), ServerId(0), 0.0);
    }
}
