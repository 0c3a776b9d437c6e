//! Physical server model: capacity, sleep states and the power curve.

use crate::ids::VmId;
use ecocloud_traces::units::MHZ_PER_CORE;

/// Static description of a server's hardware.
#[derive(Debug, Clone, Copy)]
pub struct ServerSpec {
    /// Number of CPU cores.
    pub cores: u32,
    /// Frequency of each core in MHz (the paper's fleet: 2,000).
    pub mhz_per_core: f64,
    /// Installed memory in MB (4 GB per core in the paper-style
    /// fleet). Only consulted when the workload carries RAM demands —
    /// the paper's §V multi-resource extension.
    pub ram_mb: f64,
    /// Power model of the machine.
    pub power: PowerModel,
}

impl ServerSpec {
    /// A server with `cores` 2 GHz cores and the calibrated power model
    /// (see `DESIGN.md` §5): `P_max` = 150/200/250 W for 4/6/8 cores,
    /// idle draw 70 % of peak — the paper's §I cites 65–70 %. These
    /// values land the 48-hour run's peak draw in the ≈35 kW band of
    /// the paper's Fig. 8.
    pub fn paper(cores: u32) -> Self {
        let p_max = 50.0 + 25.0 * cores as f64;
        Self {
            cores,
            mhz_per_core: MHZ_PER_CORE,
            ram_mb: cores as f64 * 4096.0,
            power: PowerModel {
                idle_w: 0.70 * p_max,
                max_w: p_max,
            },
        }
    }

    /// Total CPU capacity in MHz.
    #[inline]
    pub fn capacity_mhz(&self) -> f64 {
        self.cores as f64 * self.mhz_per_core
    }
}

/// Linear utilization→power curve.
///
/// `P(u) = idle_w + (max_w − idle_w) · u` while the server is powered,
/// 0 W while hibernated. The linear model is standard (SPECpower fits
/// within a few percent) and is what the related work the paper
/// compares against (Beloglazov & Buyya) uses as well.
#[derive(Debug, Clone, Copy)]
pub struct PowerModel {
    /// Draw at zero utilization, watts.
    pub idle_w: f64,
    /// Draw at full utilization, watts.
    pub max_w: f64,
}

impl PowerModel {
    /// Power at utilization `u` (clamped to [0, 1]), watts.
    #[inline]
    pub fn power_w(&self, u: f64) -> f64 {
        let u = u.clamp(0.0, 1.0);
        self.idle_w + (self.max_w - self.idle_w) * u
    }
}

/// Dynamic power state of a server.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ServerState {
    /// Fully operational.
    Active,
    /// Transitioning from hibernation; becomes `Active` at the given
    /// simulated time (seconds). Draws idle power, can already have VMs
    /// assigned (they start when the wake completes).
    Waking {
        /// Completion time of the wake transition, seconds.
        until_secs: f64,
    },
    /// In a low-power sleep mode; draws no power.
    Hibernated,
    /// Crashed (or a wake that exhausted its retries). Draws no power,
    /// hosts nothing, and is invisible to placement until the repair
    /// completes at the given simulated time (seconds).
    Failed {
        /// Completion time of the repair, seconds.
        until_secs: f64,
    },
}

/// A physical server: spec, state and the VMs it hosts.
///
/// This is the *cold* half of the per-server state — fields the event
/// loop touches rarely (placement bookkeeping, RAM accounting, the VM
/// list). The two CPU-load floats every monitor tick and invitation
/// broadcast reads (`used_mhz`, `reserved_mhz`) live in
/// [`crate::cluster::Cluster`]'s dense parallel vectors instead, so the
/// hot scans walk contiguous `f64` arrays rather than pulling whole
/// `Server` structs through the cache (see `DESIGN.md` §14). Read them
/// through [`crate::cluster::ServerRef`].
#[derive(Debug, Clone)]
pub struct Server {
    /// Hardware description.
    pub spec: ServerSpec,
    /// Current power state.
    pub state: ServerState,
    /// VMs currently hosted (running, or pending while waking).
    pub vms: Vec<VmId>,
    /// RAM of hosted VMs, MB (kept incrementally).
    pub used_ram_mb: f64,
    /// RAM of VMs currently migrating towards this server, MB.
    pub reserved_ram_mb: f64,
    /// Number of in-flight migrations reserving capacity here. When it
    /// drops to zero the float reservations are snapped back to
    /// exactly 0.0 so accumulated rounding dust cannot leak into
    /// hibernation-eligibility checks.
    pub reserved_count: u32,
    /// Time the server last became empty (for idle-timeout
    /// hibernation); `None` while it hosts VMs or is hibernated.
    pub empty_since_secs: Option<f64>,
}

impl Server {
    /// Creates a server in the given initial state with no VMs.
    pub fn new(spec: ServerSpec, state: ServerState) -> Self {
        let empty_since = match state {
            ServerState::Hibernated | ServerState::Failed { .. } => None,
            _ => Some(0.0),
        };
        Self {
            spec,
            state,
            vms: Vec::new(),
            used_ram_mb: 0.0,
            reserved_ram_mb: 0.0,
            reserved_count: 0,
            empty_since_secs: empty_since,
        }
    }

    /// Total capacity in MHz.
    #[inline]
    pub fn capacity_mhz(&self) -> f64 {
        self.spec.capacity_mhz()
    }

    /// RAM utilization in [0, ∞): committed memory over installed
    /// memory (0 when the workload carries no RAM demands).
    #[inline]
    pub fn ram_utilization(&self) -> f64 {
        self.used_ram_mb / self.spec.ram_mb
    }

    /// RAM utilization for placement decisions (committed + reserved
    /// by in-flight migrations).
    #[inline]
    pub fn decision_ram_utilization(&self) -> f64 {
        (self.used_ram_mb + self.reserved_ram_mb) / self.spec.ram_mb
    }

    /// True when committed memory exceeds installed memory.
    #[inline]
    pub fn is_ram_overcommitted(&self) -> bool {
        self.used_ram_mb > self.spec.ram_mb * (1.0 + 1e-9)
    }

    /// True while the server can execute VMs or is about to
    /// (Active or Waking).
    #[inline]
    pub fn is_powered(&self) -> bool {
        matches!(self.state, ServerState::Active | ServerState::Waking { .. })
    }

    /// True when the server is fully operational.
    #[inline]
    pub fn is_active(&self) -> bool {
        matches!(self.state, ServerState::Active)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_specs() {
        let s4 = ServerSpec::paper(4);
        let s6 = ServerSpec::paper(6);
        let s8 = ServerSpec::paper(8);
        assert_eq!(s4.capacity_mhz(), 8_000.0);
        assert_eq!(s6.capacity_mhz(), 12_000.0);
        assert_eq!(s8.capacity_mhz(), 16_000.0);
        assert_eq!(s4.power.max_w, 150.0);
        assert_eq!(s6.power.max_w, 200.0);
        assert_eq!(s8.power.max_w, 250.0);
        // §I: an idle server draws 65–70 % of peak.
        for s in [s4, s6, s8] {
            let ratio = s.power.idle_w / s.power.max_w;
            assert!((0.65..=0.70).contains(&ratio));
        }
    }

    #[test]
    fn power_curve_is_linear_and_clamped() {
        let p = PowerModel {
            idle_w: 70.0,
            max_w: 100.0,
        };
        assert_eq!(p.power_w(0.0), 70.0);
        assert_eq!(p.power_w(1.0), 100.0);
        assert_eq!(p.power_w(0.5), 85.0);
        assert_eq!(p.power_w(-1.0), 70.0);
        assert_eq!(p.power_w(2.0), 100.0);
    }

    #[test]
    fn powered_states() {
        let spec = ServerSpec::paper(6);
        let mut s = Server::new(spec, ServerState::Hibernated);
        assert!(!s.is_powered());
        s.state = ServerState::Waking { until_secs: 10.0 };
        assert!(s.is_powered());
        assert!(!s.is_active());
        s.state = ServerState::Active;
        assert!(s.is_active());
        s.state = ServerState::Failed { until_secs: 99.0 };
        assert!(!s.is_powered());
    }

    #[test]
    fn ram_utilization_and_overcommit() {
        let mut s = Server::new(ServerSpec::paper(4), ServerState::Active);
        assert_eq!(s.spec.ram_mb, 16_384.0);
        assert_eq!(s.ram_utilization(), 0.0);
        assert!(!s.is_ram_overcommitted());
        s.used_ram_mb = 8_192.0;
        s.reserved_ram_mb = 4_096.0;
        assert!((s.ram_utilization() - 0.5).abs() < 1e-12);
        assert!((s.decision_ram_utilization() - 0.75).abs() < 1e-12);
        s.used_ram_mb = 20_000.0;
        assert!(s.is_ram_overcommitted());
    }

    #[test]
    fn new_server_empty_since_tracks_state() {
        let spec = ServerSpec::paper(4);
        assert!(Server::new(spec, ServerState::Active)
            .empty_since_secs
            .is_some());
        assert!(Server::new(spec, ServerState::Hibernated)
            .empty_since_secs
            .is_none());
    }
}
