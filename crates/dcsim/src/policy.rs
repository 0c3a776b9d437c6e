//! The placement-policy interface.
//!
//! The simulator kernel is policy-agnostic: every decision the paper's
//! data-center manager or an individual server makes is routed through
//! this trait. The ecoCloud algorithm (decentralized Bernoulli trials)
//! and the centralized baselines (BFD, FFD, threshold controllers) are
//! both implementations.

use crate::cluster::ClusterView;
use crate::ids::{ServerId, VmId};
use std::ops::RangeInclusive;

/// Why a placement is being requested.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PlacementKind {
    /// A brand-new VM submitted by a client.
    NewVm,
    /// Relocation of a VM away from an overloaded server. Carries the
    /// source's utilization: ecoCloud lowers the acceptance threshold
    /// to `0.9 ×` this value so the VM lands on a strictly less loaded
    /// server (the anti-ping-pong rule of §II).
    MigrationHigh {
        /// CPU utilization of the requesting (overloaded) server.
        source_utilization: f64,
    },
    /// Relocation of a VM away from an under-utilized server. §II: "it
    /// would not be acceptable to switch on a new server in order to
    /// accommodate the VM", so policies must never return
    /// [`PlaceOutcome::WakeThenPlace`] for this kind.
    MigrationLow,
}

/// A placement request from the manager.
#[derive(Debug, Clone)]
pub struct PlacementRequest {
    /// CPU demand of the VM to place, MHz.
    pub demand_mhz: f64,
    /// Committed memory of the VM, MB (0 when RAM is not modelled).
    pub ram_mb: f64,
    /// Why the VM needs a host.
    pub kind: PlacementKind,
    /// Server that must not be chosen (the migration source).
    pub exclude: Option<ServerId>,
    /// Current simulated time, seconds.
    pub now_secs: f64,
}

/// A policy's answer to a placement request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PlaceOutcome {
    /// Put the VM on this powered server.
    Place(ServerId),
    /// No powered server accepted; wake this hibernated server and put
    /// the VM there (the manager's §II fallback).
    WakeThenPlace(ServerId),
    /// Nobody can host the VM (for low migrations: keep it where it
    /// is; for new VMs: the data center is saturated and the VM is
    /// dropped, which the paper calls the signal to buy more servers).
    Reject,
}

/// The flavour of a server-initiated migration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MigrationKind {
    /// Triggered below `T_l` — empty the server so it can sleep.
    Low,
    /// Triggered above `T_h` — relieve an overload.
    High,
}

/// A server's request to migrate one of its VMs away.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MigrationRequest {
    /// The VM chosen for migration.
    pub vm: VmId,
    /// Low or high migration.
    pub kind: MigrationKind,
}

/// A placement policy: the brains of the data center.
///
/// Implementations receive an immutable [`ClusterView`] and their own
/// seeded RNG state; the kernel performs the mechanical part (moving
/// VMs, waking servers, accounting).
pub trait Policy {
    /// Short policy name for reports.
    fn name(&self) -> &'static str;

    /// Chooses a host for a VM (new or migrating).
    fn place(&mut self, view: &ClusterView<'_>, req: &PlacementRequest) -> PlaceOutcome;

    /// Called on each server's monitor tick at simulated time
    /// `now_secs`; may request a migration. The default (used by purely
    /// reactive baselines) never migrates. The engine skips the call
    /// while the server's utilization lies in
    /// [`quiet_band`](Self::quiet_band), so an implementation that
    /// offers a band must keep that band's promise.
    fn monitor(
        &mut self,
        _view: &ClusterView<'_>,
        _server: ServerId,
        _now_secs: f64,
    ) -> Option<MigrationRequest> {
        None
    }

    /// The utilization band, both ends inclusive, in which
    /// [`monitor`](Self::monitor) is silent on a fleet of `n_servers`
    /// servers, or `None` (the default): never quiet. It is a promise:
    /// while an active server's utilization (`used / capacity`, the
    /// value [`ServerRef::utilization`](crate::ServerRef::utilization)
    /// returns) lies inside the band, `monitor` for that server returns
    /// `None`, draws no random number and changes no state, so the
    /// engine may skip the call. The tick itself still runs.
    fn quiet_band(&self, _n_servers: usize) -> Option<RangeInclusive<f64>> {
        None
    }

    /// Notification that a server finished waking at `now_secs`
    /// (ecoCloud starts its 30-minute newcomer grace period here).
    fn on_server_woken(&mut self, _server: ServerId, _now_secs: f64) {}

    /// Notification that a server failed at `now_secs` — crashed, or a
    /// wake that exhausted its retries. Policies holding per-server
    /// soft state keyed on liveness (ecoCloud's newcomer grace window
    /// and low-migration backoff) should clear it here so a repaired
    /// server returns with a clean slate.
    fn on_server_failed(&mut self, _server: ServerId, _now_secs: f64) {}

    // --- Phased placement (message-level control plane) ------------
    //
    // When the control plane is enabled the engine replays one round
    // of the paper's distributed assignment as an explicit message
    // exchange: `invite` runs the per-server acceptance trials at
    // broadcast time, `choose_acceptor` picks among the acceptances
    // that survived loss and the collection window, and
    // `admission_recheck` re-evaluates the chosen server against its
    // *current* state when the (possibly delayed) commit arrives.
    // The defaults below are the compatibility shim: a policy that
    // returns `None` from `invite` keeps its single atomic
    // [`place`](Self::place) call even when the control plane is on.

    /// Runs one invitation round: every powered server (minus
    /// `req.exclude`) receives an invitation and runs its acceptance
    /// trial; the returned list holds the servers that would answer
    /// "accept", in fleet order. `None` (the default) opts the policy
    /// out of the phased protocol entirely — the engine then resolves
    /// the placement through the atomic [`place`](Self::place) path.
    fn invite(
        &mut self,
        _view: &ClusterView<'_>,
        _req: &PlacementRequest,
    ) -> Option<Vec<ServerId>> {
        None
    }

    /// Picks one acceptor (by index into `acceptors`) among the
    /// acceptances the manager received within its collection window.
    /// `acceptors` is never empty. The default takes the first.
    fn choose_acceptor(&mut self, acceptors: &[ServerId]) -> usize {
        debug_assert!(!acceptors.is_empty());
        0
    }

    /// Admission re-check on commit arrival: the chosen server
    /// re-evaluates the request against its *current* state (its
    /// utilization may have drifted past the acceptance threshold
    /// since the trial). `false` means NACK. The engine has already
    /// verified the server is still powered. The default accepts.
    fn admission_recheck(
        &mut self,
        _view: &ClusterView<'_>,
        _server: ServerId,
        _req: &PlacementRequest,
    ) -> bool {
        true
    }

    /// Called when an exchange has exhausted every invitation round
    /// without a committed acceptance: the policy decides the §II
    /// fallback — wake a hibernated server, or reject. Must never
    /// return [`PlaceOutcome::WakeThenPlace`] for
    /// [`PlacementKind::MigrationLow`]. The default rejects.
    fn place_exhausted(
        &mut self,
        _view: &ClusterView<'_>,
        _req: &PlacementRequest,
    ) -> PlaceOutcome {
        PlaceOutcome::Reject
    }

    // --- Checkpointing ---------------------------------------------

    /// Serializes the policy's mutable state (RNG position, grace
    /// windows, backoff clocks) for a checkpoint, as raw words. The
    /// encoding is policy-private; the engine stores it opaquely and
    /// hands it back to [`restore_state`](Self::restore_state) on
    /// resume. Stateless policies (the default) return an empty vec.
    ///
    /// Policies with internal randomness or time-keyed soft state MUST
    /// override this pair, or a resumed run will diverge from the
    /// uninterrupted one.
    fn checkpoint_state(&self) -> Vec<u64> {
        Vec::new()
    }

    /// Restores state captured by
    /// [`checkpoint_state`](Self::checkpoint_state) onto a freshly
    /// constructed policy of the same type and configuration. `Err`
    /// with a human-readable reason when the words don't match the
    /// policy's expected shape.
    fn restore_state(&mut self, state: &[u64]) -> Result<(), String> {
        if state.is_empty() {
            Ok(())
        } else {
            Err(format!(
                "policy {:?} is stateless but the checkpoint carries {} state words",
                self.name(),
                state.len()
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_equality() {
        assert_eq!(
            PlaceOutcome::Place(ServerId(1)),
            PlaceOutcome::Place(ServerId(1))
        );
        assert_ne!(
            PlaceOutcome::Place(ServerId(1)),
            PlaceOutcome::WakeThenPlace(ServerId(1))
        );
        assert_ne!(PlaceOutcome::Reject, PlaceOutcome::Place(ServerId(0)));
    }

    #[test]
    fn kind_carries_source_utilization() {
        let k = PlacementKind::MigrationHigh {
            source_utilization: 0.97,
        };
        match k {
            PlacementKind::MigrationHigh { source_utilization } => {
                assert!((source_utilization - 0.97).abs() < 1e-12)
            }
            _ => panic!("wrong kind"),
        }
    }
}
