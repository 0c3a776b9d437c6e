//! Control-plane exchange state (the engine's view of the message
//! protocol).
//!
//! When [`crate::config::ControlPlaneConfig`] is enabled, every
//! placement is resolved as a multi-event message exchange instead of
//! an atomic call: invitation broadcast, acceptance-collection window,
//! commit with admission re-check, NACK/loss retries, and capped
//! jittered re-broadcast. The types here hold the per-exchange state
//! machine; the transitions live in [`crate::engine`].

use crate::checkpoint::{CheckpointError, Dec, Enc};
use crate::config::ControlPlaneConfig;
use crate::ids::{ServerId, VmId};
use crate::policy::MigrationKind;
use ecocloud_rng::{Rng, SeedableRng, StdRng};
use std::collections::BTreeMap;

/// What a placement is placing. The atomic path and the exchange
/// path share this subject: the policy's request is built from it,
/// and it decides how a chosen target is finalized and how a reject
/// is handled.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum PlacementSubject {
    /// A new VM. Under an exchange it stays in limbo (not attached
    /// anywhere) until a commit succeeds.
    NewVm,
    /// A server-initiated migration; the VM keeps executing on
    /// `source` until the placement resolves.
    Migration {
        /// The requesting server (and current host).
        source: ServerId,
        /// Low or high migration.
        kind: MigrationKind,
        /// Source utilization at request time (drives ecoCloud's
        /// anti-ping-pong threshold for high migrations).
        source_utilization: f64,
    },
}

impl PlacementSubject {
    /// The migration source: the one server the placement must not
    /// choose. `None` for a new VM.
    pub(crate) fn source(self) -> Option<ServerId> {
        match self {
            PlacementSubject::NewVm => None,
            PlacementSubject::Migration { source, .. } => Some(source),
        }
    }
}

/// One in-flight placement exchange.
#[derive(Debug, Clone)]
pub(crate) struct Exchange {
    /// The VM being placed or migrated.
    pub vm: VmId,
    /// What is being placed.
    pub subject: PlacementSubject,
    /// Bumped on every state transition; queued events carrying an
    /// older epoch are stale and dropped on delivery (same pattern as
    /// the engine's wake and migration epochs).
    pub epoch: u32,
    /// Simulated time of the first invitation broadcast.
    pub started_secs: f64,
    /// Invitation rounds broadcast so far (the first counts).
    pub rounds: u32,
    /// In-time acceptors of the current round not yet tried with a
    /// commit, in fleet order.
    pub acceptors: Vec<ServerId>,
    /// Server the outstanding commit was sent to, if any.
    pub pending_commit: Option<ServerId>,
}

/// The engine's control-plane state: configuration, the dedicated
/// message RNG, and every in-flight exchange.
#[derive(Debug)]
pub(crate) struct ControlPlane {
    /// The message model.
    pub cfg: ControlPlaneConfig,
    /// Dedicated RNG for message loss, latency and backoff jitter —
    /// independent of the policy and fault streams.
    pub rng: StdRng,
    /// In-flight exchanges by id. A `BTreeMap` so bulk operations
    /// (crash aborts, end-of-run drain) iterate deterministically.
    pub exchanges: BTreeMap<u64, Exchange>,
    /// Pending exchange id per VM — at most one exchange per VM.
    pub by_vm: BTreeMap<VmId, u64>,
    /// Next exchange id.
    pub next_id: u64,
}

impl ControlPlane {
    /// Creates the control-plane state with its own seeded RNG stream.
    pub(crate) fn new(cfg: ControlPlaneConfig) -> Self {
        let rng = StdRng::seed_from_u64(cfg.seed);
        Self {
            cfg,
            rng,
            exchanges: BTreeMap::new(),
            by_vm: BTreeMap::new(),
            next_id: 0,
        }
    }

    /// Draws whether a single message leg is lost. Zero loss draws
    /// nothing, keeping lossless runs independent of the loss stream.
    pub(crate) fn lose(&mut self) -> bool {
        self.cfg.loss_prob > 0.0 && self.rng.gen_bool(self.cfg.loss_prob)
    }

    /// Draws one message's one-way latency. Equal bounds draw nothing.
    pub(crate) fn draw_latency(&mut self) -> f64 {
        if self.cfg.latency_max_secs > self.cfg.latency_min_secs {
            self.rng
                .gen_range(self.cfg.latency_min_secs..self.cfg.latency_max_secs)
        } else {
            self.cfg.latency_min_secs
        }
    }

    /// Backoff before re-broadcast round `rounds + 1`: doubling from
    /// the base, capped, then jittered uniformly in `[0.5x, 1.5x)`.
    /// A zero base backoff draws nothing and stays zero.
    pub(crate) fn rebroadcast_backoff(&mut self, rounds: u32) -> f64 {
        let base = self.cfg.rebroadcast_backoff_secs;
        if base <= 0.0 {
            return 0.0;
        }
        let backoff = (base * 2f64.powi(rounds.saturating_sub(1) as i32))
            .min(self.cfg.rebroadcast_backoff_cap_secs);
        backoff * self.rng.gen_range(0.5..1.5)
    }

    /// Exchange `id`, which the caller knows is live (epoch-checked
    /// or just created).
    pub(crate) fn live_mut(&mut self, id: u64) -> &mut Exchange {
        self.exchanges
            .get_mut(&id)
            .expect("exchange invariant: a live (epoch-checked) exchange id must be present in the exchange table")
    }

    /// Removes live exchange `id` and frees its VM for a new exchange.
    pub(crate) fn take(&mut self, id: u64) -> Exchange {
        let ex = self.exchanges.remove(&id).expect(
            "exchange invariant: a resolved exchange id must be present in the exchange table",
        );
        self.by_vm.remove(&ex.vm);
        ex
    }

    /// Checkpoint encoding of the mutable control-plane state: the
    /// message RNG position and every in-flight exchange. The config
    /// is not written — it is re-derived from the scenario on restore.
    pub(crate) fn encode(&self, e: &mut Enc) {
        e.u64(self.rng.state());
        e.u64(self.next_id);
        e.usize(self.exchanges.len());
        for (id, ex) in &self.exchanges {
            e.u64(*id);
            e.u32(ex.vm.0);
            match ex.subject {
                PlacementSubject::NewVm => e.u8(0),
                PlacementSubject::Migration {
                    source,
                    kind,
                    source_utilization,
                } => {
                    e.u8(1);
                    e.u32(source.0);
                    e.u8(match kind {
                        MigrationKind::Low => 0,
                        MigrationKind::High => 1,
                    });
                    e.f64(source_utilization);
                }
            }
            e.u32(ex.epoch);
            e.f64(ex.started_secs);
            e.u32(ex.rounds);
            e.u32s(&ex.acceptors.iter().map(|s| s.0).collect::<Vec<u32>>());
            match ex.pending_commit {
                None => e.bool(false),
                Some(s) => {
                    e.bool(true);
                    e.u32(s.0);
                }
            }
        }
    }

    /// Overlays a checkpoint onto a freshly constructed control plane.
    /// Inverse of [`encode`](Self::encode); `by_vm` is re-derived from
    /// the restored exchanges.
    pub(crate) fn decode_into(&mut self, d: &mut Dec<'_>) -> Result<(), CheckpointError> {
        self.rng = StdRng::from_state(d.u64()?);
        self.next_id = d.u64()?;
        let n = d.usize()?;
        d.check_remaining(n, 34)?; // fixed-width exchange fields
        self.exchanges.clear();
        self.by_vm.clear();
        for _ in 0..n {
            let id = d.u64()?;
            let vm = VmId(d.u32()?);
            let subject = match d.u8()? {
                0 => PlacementSubject::NewVm,
                1 => {
                    let source = ServerId(d.u32()?);
                    let kind = match d.u8()? {
                        0 => MigrationKind::Low,
                        1 => MigrationKind::High,
                        t => {
                            return Err(CheckpointError::Corrupt(format!(
                                "unknown migration-kind tag {t}"
                            )))
                        }
                    };
                    let source_utilization = d.f64()?;
                    PlacementSubject::Migration {
                        source,
                        kind,
                        source_utilization,
                    }
                }
                t => {
                    return Err(CheckpointError::Corrupt(format!(
                        "unknown exchange-kind tag {t}"
                    )))
                }
            };
            let epoch = d.u32()?;
            let started_secs = d.f64()?;
            let rounds = d.u32()?;
            let acceptors = d.u32s()?.into_iter().map(ServerId).collect();
            let pending_commit = if d.bool()? {
                Some(ServerId(d.u32()?))
            } else {
                None
            };
            if id >= self.next_id {
                return Err(CheckpointError::Corrupt(format!(
                    "exchange id {id} not below next_id {}",
                    self.next_id
                )));
            }
            if self
                .exchanges
                .insert(
                    id,
                    Exchange {
                        vm,
                        subject,
                        epoch,
                        started_secs,
                        rounds,
                        acceptors,
                        pending_commit,
                    },
                )
                .is_some()
            {
                return Err(CheckpointError::Corrupt(format!(
                    "duplicate exchange id {id}"
                )));
            }
            if self.by_vm.insert(vm, id).is_some() {
                return Err(CheckpointError::Corrupt(format!(
                    "vm {} appears in two exchanges",
                    vm.0
                )));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_profile_never_draws() {
        // Two control planes with different seeds behave identically
        // when the model is ideal: no draw ever touches the stream.
        let mut a = ControlPlane::new(ControlPlaneConfig::ideal(1));
        let mut b = ControlPlane::new(ControlPlaneConfig::ideal(999));
        for _ in 0..10 {
            assert!(!a.lose());
            assert!(!b.lose());
            assert_eq!(a.draw_latency(), 0.0);
            assert_eq!(b.draw_latency(), 0.0);
            assert_eq!(a.rebroadcast_backoff(1), 0.0);
            assert_eq!(b.rebroadcast_backoff(1), 0.0);
        }
    }

    #[test]
    fn latency_draws_stay_in_bounds() {
        let mut cp = ControlPlane::new(ControlPlaneConfig::lan(7));
        for _ in 0..100 {
            let l = cp.draw_latency();
            assert!(l >= cp.cfg.latency_min_secs && l < cp.cfg.latency_max_secs);
        }
    }

    #[test]
    fn backoff_doubles_caps_and_jitters() {
        let mut cp = ControlPlane::new(ControlPlaneConfig::lan(3));
        // Round 1 -> base, round 2 -> 2x base, ... capped at the cap;
        // jitter keeps each within [0.5x, 1.5x) of the pre-jitter value.
        for rounds in 1..6u32 {
            let raw = (cp.cfg.rebroadcast_backoff_secs * 2f64.powi(rounds as i32 - 1))
                .min(cp.cfg.rebroadcast_backoff_cap_secs);
            let b = cp.rebroadcast_backoff(rounds);
            assert!(
                b >= 0.5 * raw && b < 1.5 * raw,
                "round {rounds}: {b} vs {raw}"
            );
        }
    }
}
