//! Control-plane exchange state (the engine's view of the message
//! protocol).
//!
//! When [`crate::config::ControlPlaneConfig`] is enabled, every
//! placement is resolved as a multi-event message exchange instead of
//! an atomic call: invitation broadcast, acceptance-collection window,
//! commit with admission re-check, NACK/loss retries, and capped
//! jittered re-broadcast. The types here hold the per-exchange state
//! machine; the transitions live in [`crate::engine`].

use crate::checkpoint::{CheckpointError, Dec, Enc, IdBounds};
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

/// The largest `[0, 1)` unit a draw can produce: 53 set bits scaled
/// exactly as `gen_range` scales them, `1 − 2⁻⁵³`.
const MAX_UNIT: f64 = ((1u64 << 53) - 1) as f64 * (1.0 / (1u64 << 53) as f64);

/// What one invitation round did, message by message. `sent` is
/// always `accepts + declines + losses + timeouts`.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RoundTally {
    /// Invitations broadcast.
    pub sent: u64,
    /// In-time responses that accepted.
    pub accepts: u64,
    /// In-time responses that declined.
    pub declines: u64,
    /// Invitations with a lost request or response leg.
    pub losses: u64,
    /// Responses that arrived after the collection window.
    pub timeouts: u64,
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

    /// Whether every invitation round under this model is *certain*,
    /// and if so how many RNG draws one invited server costs.
    ///
    /// A round is certain when no leg can be lost and even two of the
    /// largest latency draws fit the collection window: then every
    /// invited server's response arrives in time, whatever the draws
    /// say. Zero loss draws nothing ([`lose`](Self::lose)). With
    /// distinct bounds each server costs two latency draws, and the
    /// largest draw is `lo + (1 − 2⁻⁵³)·(hi − lo)`, computed with the
    /// operations `gen_range` uses (IEEE multiply and add are
    /// monotone, so no draw exceeds it). Equal bounds draw nothing.
    /// `None` when a round's outcome depends on its draws.
    pub(crate) fn certain_round_draws(&self) -> Option<u64> {
        let cfg = &self.cfg;
        if cfg.loss_prob != 0.0 {
            return None;
        }
        let (lo, hi) = (cfg.latency_min_secs, cfg.latency_max_secs);
        let (worst, per_server) = if hi > lo {
            (lo + MAX_UNIT * (hi - lo), 2)
        } else {
            (lo, 0)
        };
        (worst + worst <= cfg.accept_timeout_secs).then_some(per_server)
    }

    /// Delivers one invitation round message by message. `invited`
    /// lists the broadcast's recipients in fleet order and
    /// `would_accept` the policy's acceptors among them, in the same
    /// order. Each invitation draws a loss and a latency for its
    /// request leg and, if delivered, for its response leg; a response
    /// back within the collection window counts as an accept or a
    /// decline. Returns the tally and the in-time acceptors.
    pub(crate) fn deliver_round(
        &mut self,
        invited: impl Iterator<Item = ServerId>,
        would_accept: &[ServerId],
    ) -> (RoundTally, Vec<ServerId>) {
        let timeout = self.cfg.accept_timeout_secs;
        let mut tally = RoundTally::default();
        let mut in_time = Vec::new();
        let mut ai = 0usize;
        for sid in invited {
            tally.sent += 1;
            let accepts = would_accept.get(ai) == Some(&sid);
            if accepts {
                ai += 1;
            }
            // Invitation leg: a lost invitation never reaches the
            // server, so no response exists either.
            if self.lose() {
                tally.losses += 1;
                continue;
            }
            let l1 = self.draw_latency();
            // Response leg.
            if self.lose() {
                tally.losses += 1;
                continue;
            }
            let l2 = self.draw_latency();
            if l1 + l2 > timeout {
                tally.timeouts += 1;
                continue;
            }
            if accepts {
                tally.accepts += 1;
                in_time.push(sid);
            } else {
                tally.declines += 1;
            }
        }
        debug_assert_eq!(
            ai,
            would_accept.len(),
            "policy returned an acceptor that was not invited"
        );
        (tally, in_time)
    }

    /// Settles one invitation round to `n_invited` servers (`invited`,
    /// in fleet order). A [certain](Self::certain_round_draws) round
    /// costs O(1): every invited server answers in time, so the tally
    /// is closed-form, `would_accept` is the in-time list unchanged,
    /// and the RNG jumps past the draws
    /// [`deliver_round`](Self::deliver_round) would make, leaving the
    /// stream where that loop would. Any other round runs the loop.
    ///
    /// Debug builds check the certain path against the loop on a copy
    /// of the RNG: same tally, same in-time list, same RNG state.
    pub(crate) fn settle_round(
        &mut self,
        invited: impl Iterator<Item = ServerId>,
        n_invited: usize,
        would_accept: Vec<ServerId>,
    ) -> (RoundTally, Vec<ServerId>) {
        let Some(per_server) = self.certain_round_draws() else {
            return self.deliver_round(invited, &would_accept);
        };
        let n = n_invited as u64;
        let accepts = would_accept.len() as u64;
        let tally = RoundTally {
            sent: n,
            accepts,
            declines: n - accepts,
            losses: 0,
            timeouts: 0,
        };
        #[cfg(debug_assertions)]
        let oracle = {
            let mut wire = ControlPlane::new(self.cfg.clone());
            wire.rng = self.rng.clone();
            let (t, list) = wire.deliver_round(invited, &would_accept);
            (t, list, wire.rng.state())
        };
        self.rng.skip(n * per_server);
        #[cfg(debug_assertions)]
        {
            let (t, list, state) = oracle;
            assert_eq!(t, tally, "certain round: tally differs from the loop's");
            assert_eq!(list, would_accept, "certain round: in-time list differs");
            assert_eq!(
                state,
                self.rng.state(),
                "certain round: the RNG jump lands off the loop's stream"
            );
        }
        (tally, would_accept)
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
    /// the restored exchanges, and every server and VM id is checked
    /// against `ids`.
    pub(crate) fn decode_into(
        &mut self,
        d: &mut Dec<'_>,
        ids: &IdBounds,
    ) -> Result<(), CheckpointError> {
        self.rng = StdRng::from_state(d.u64()?);
        self.next_id = d.u64()?;
        let n = d.usize()?;
        d.check_remaining(n, 34)?; // fixed-width exchange fields
        self.exchanges.clear();
        self.by_vm.clear();
        for _ in 0..n {
            let id = d.u64()?;
            let vm = VmId(d.id("exchange VM", ids.vms)?);
            let subject = match d.u8()? {
                0 => PlacementSubject::NewVm,
                1 => {
                    let source = ServerId(d.id("exchange source", ids.servers)?);
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
            let acceptors = d.ids("exchange acceptor", ids.servers)?;
            let acceptors = acceptors.into_iter().map(ServerId).collect();
            let pending_commit = if d.bool()? {
                Some(ServerId(d.id("exchange commit target", ids.servers)?))
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

    /// The closed-form settlement of a certain round equals the
    /// message loop: same tally, same in-time list, same RNG state,
    /// over random powered sets, exclusions (powered or not) and
    /// acceptor subsets. The certainty test is exact at its boundary.
    #[test]
    fn certain_rounds_settle_exactly_as_the_loop_delivers() {
        let lan = ControlPlaneConfig::lan(5);
        let worst = lan.latency_min_secs + MAX_UNIT * (lan.latency_max_secs - lan.latency_min_secs);
        let edge = worst + worst;
        let ulp_below = |x: f64| f64::from_bits(x.to_bits() - 1);
        let at_edge = ControlPlaneConfig {
            accept_timeout_secs: edge,
            ..lan.clone()
        };
        let equal_bounds = ControlPlaneConfig {
            latency_min_secs: 0.1,
            latency_max_secs: 0.1,
            accept_timeout_secs: 0.2,
            ..lan.clone()
        };
        let certain = [
            (at_edge.clone(), 2),
            (lan.clone(), 2),
            (equal_bounds.clone(), 0),
            (ControlPlaneConfig::ideal(5), 0),
        ];
        let uncertain = [
            ControlPlaneConfig {
                accept_timeout_secs: ulp_below(edge),
                ..lan.clone()
            },
            ControlPlaneConfig {
                accept_timeout_secs: ulp_below(0.2),
                ..equal_bounds
            },
            ControlPlaneConfig::lossy(5),
            ControlPlaneConfig::with_loss(1e-9, 5),
        ];
        // The largest draw `gen_range` can make is the bound's.
        struct AllOnes;
        impl Rng for AllOnes {
            fn next_u64(&mut self) -> u64 {
                u64::MAX
            }
        }
        let largest = AllOnes.gen_range(lan.latency_min_secs..lan.latency_max_secs);
        assert_eq!(largest.to_bits(), worst.to_bits());
        assert!(largest < lan.latency_max_secs);
        for (cfg, per_server) in &certain {
            let cp = ControlPlane::new(cfg.clone());
            assert_eq!(cp.certain_round_draws(), Some(*per_server), "{cfg:?}");
        }
        for cfg in &uncertain {
            assert_eq!(ControlPlane::new(cfg.clone()).certain_round_draws(), None);
        }

        let mut rng = StdRng::seed_from_u64(99);
        let configs = certain.iter().map(|(c, _)| (c, true));
        for (cfg, is_certain) in configs.chain(uncertain.iter().map(|c| (c, false))) {
            let mut cp = ControlPlane::new(cfg.clone());
            for _ in 0..40 {
                let n_servers = rng.gen_range(1u32..60);
                let p_on = rng.gen_range(0.0..1.0);
                let powered: Vec<ServerId> = (0..n_servers)
                    .filter(|_| rng.gen_bool(p_on))
                    .map(ServerId)
                    .collect();
                let exclude = match rng.gen_range(0u8..3) {
                    0 => None,
                    1 => Some(ServerId(rng.gen_range(0..n_servers))),
                    _ => powered.first().copied(),
                };
                let invited: Vec<ServerId> = powered
                    .iter()
                    .copied()
                    .filter(|&s| Some(s) != exclude)
                    .collect();
                let p_accept = rng.gen_range(0.0..1.0);
                let would_accept: Vec<ServerId> = invited
                    .iter()
                    .copied()
                    .filter(|_| rng.gen_bool(p_accept))
                    .collect();
                let excluded_powered = exclude.is_some_and(|s| powered.contains(&s));
                let n_invited = powered.len() - usize::from(excluded_powered);

                let mut wire = ControlPlane::new(cfg.clone());
                wire.rng = cp.rng.clone();
                let (loop_tally, loop_list) =
                    wire.deliver_round(invited.iter().copied(), &would_accept);
                let (tally, list) =
                    cp.settle_round(invited.iter().copied(), n_invited, would_accept.clone());
                assert_eq!(tally, loop_tally, "{cfg:?}");
                assert_eq!(list, loop_list, "{cfg:?}");
                assert_eq!(cp.rng.state(), wire.rng.state(), "{cfg:?}");
                assert_eq!(
                    tally.sent,
                    tally.accepts + tally.declines + tally.losses + tally.timeouts
                );
                if is_certain {
                    assert_eq!(list, would_accept);
                    assert_eq!(tally.sent, invited.len() as u64);
                }
            }
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
