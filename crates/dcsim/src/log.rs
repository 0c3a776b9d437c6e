//! Optional structured event log.
//!
//! When enabled ([`crate::SimConfig::record_events`]), the engine
//! appends one entry per state transition — placements, drops,
//! departures, migrations, server switches, overload episodes. The log
//! is the ground truth for debugging, for cross-checking the aggregate
//! counters, and for post-hoc analyses the 30-minute samples are too
//! coarse for (e.g. per-VM migration histories).

use crate::checkpoint::{CheckpointError, Dec, Enc};
use crate::ids::{ServerId, VmId};
use crate::policy::MigrationKind;

/// Why an in-flight migration was torn down instead of completing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbortReason {
    /// The VM's lifetime expired mid-flight.
    Departed,
    /// The source server crashed while the VM was in flight.
    SourceFailed,
    /// The destination crashed (or its wake gave up) before the
    /// migration could land.
    DestinationFailed,
    /// The fault schedule injected a migration failure at completion
    /// time; the migration was rolled back to the source.
    Injected,
}

/// One logged state transition. All timestamps in seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SimEvent {
    /// A VM was placed on a server (new arrival).
    VmPlaced {
        /// Event time.
        t: f64,
        /// The VM.
        vm: VmId,
        /// Its host.
        server: ServerId,
    },
    /// A VM could not be placed anywhere and was dropped.
    VmDropped {
        /// Event time.
        t: f64,
        /// The VM.
        vm: VmId,
    },
    /// A VM's lifetime expired.
    VmDeparted {
        /// Event time.
        t: f64,
        /// The VM.
        vm: VmId,
        /// The server it was executing on.
        server: ServerId,
    },
    /// A live migration started.
    MigrationStarted {
        /// Event time.
        t: f64,
        /// The VM being moved.
        vm: VmId,
        /// Source server.
        from: ServerId,
        /// Destination server.
        to: ServerId,
        /// Low or high migration.
        kind: MigrationKind,
    },
    /// A live migration completed.
    MigrationCompleted {
        /// Event time.
        t: f64,
        /// The VM.
        vm: VmId,
        /// Source server.
        from: ServerId,
        /// Destination server.
        to: ServerId,
    },
    /// A hibernated server began waking.
    ServerWaking {
        /// Event time.
        t: f64,
        /// The server.
        server: ServerId,
    },
    /// A waking server became fully active.
    ServerActive {
        /// Event time.
        t: f64,
        /// The server.
        server: ServerId,
    },
    /// An idle server hibernated.
    ServerHibernated {
        /// Event time.
        t: f64,
        /// The server.
        server: ServerId,
    },
    /// A server's demand exceeded its capacity.
    OverloadStarted {
        /// Event time.
        t: f64,
        /// The server.
        server: ServerId,
    },
    /// A server's overload episode ended.
    OverloadEnded {
        /// Event time.
        t: f64,
        /// The server.
        server: ServerId,
        /// Episode length in seconds.
        duration: f64,
    },
    /// An in-flight migration was torn down (rollback or departure).
    MigrationAborted {
        /// Event time.
        t: f64,
        /// The VM.
        vm: VmId,
        /// Source server.
        from: ServerId,
        /// Destination server whose reservation was released.
        to: ServerId,
        /// Why the migration did not complete.
        reason: AbortReason,
    },
    /// A server crashed (injected fault); its VMs were displaced.
    ServerFailed {
        /// Event time.
        t: f64,
        /// The server.
        server: ServerId,
    },
    /// A crashed server's repair completed; it rejoined the hibernated
    /// pool.
    ServerRepaired {
        /// Event time.
        t: f64,
        /// The server.
        server: ServerId,
    },
    /// A wake transition failed (injected fault).
    WakeFailed {
        /// Event time.
        t: f64,
        /// The server.
        server: ServerId,
        /// 1-based count of failures of this wake so far.
        attempt: u32,
    },
    /// A displaced VM was re-placed on a new server after a fault.
    VmReplaced {
        /// Event time.
        t: f64,
        /// The VM.
        vm: VmId,
        /// Its new host.
        server: ServerId,
    },
    /// A displaced VM could not be re-placed anywhere and was lost.
    VmLost {
        /// Event time.
        t: f64,
        /// The VM.
        vm: VmId,
    },
    /// A control-plane placement exchange started (first invitation
    /// broadcast).
    ExchangeStarted {
        /// Event time.
        t: f64,
        /// The VM being placed or migrated.
        vm: VmId,
    },
    /// A commit arrived, passed the admission re-check, and the
    /// placement (or migration start) went through.
    ExchangeCommitted {
        /// Event time.
        t: f64,
        /// The VM.
        vm: VmId,
        /// The committed destination.
        server: ServerId,
    },
    /// A commit was NACKed: the offer went stale between acceptance
    /// and commit arrival (utilization drift, crash, hibernation).
    ExchangeNacked {
        /// Event time.
        t: f64,
        /// The VM.
        vm: VmId,
        /// The server that refused the commit.
        server: ServerId,
    },
    /// An exchange exhausted its retry budget (or was still open at
    /// end of run) and fell back to the wake-or-reject path.
    ExchangeAbandoned {
        /// Event time.
        t: f64,
        /// The VM.
        vm: VmId,
    },
    /// An exchange was invalidated mid-flight: its source server
    /// crashed, or the VM departed or was displaced.
    ExchangeAborted {
        /// Event time.
        t: f64,
        /// The VM.
        vm: VmId,
    },
}

impl SimEvent {
    /// Timestamp of the event, seconds.
    pub fn time(&self) -> f64 {
        match *self {
            SimEvent::VmPlaced { t, .. }
            | SimEvent::VmDropped { t, .. }
            | SimEvent::VmDeparted { t, .. }
            | SimEvent::MigrationStarted { t, .. }
            | SimEvent::MigrationCompleted { t, .. }
            | SimEvent::ServerWaking { t, .. }
            | SimEvent::ServerActive { t, .. }
            | SimEvent::ServerHibernated { t, .. }
            | SimEvent::OverloadStarted { t, .. }
            | SimEvent::OverloadEnded { t, .. }
            | SimEvent::MigrationAborted { t, .. }
            | SimEvent::ServerFailed { t, .. }
            | SimEvent::ServerRepaired { t, .. }
            | SimEvent::WakeFailed { t, .. }
            | SimEvent::VmReplaced { t, .. }
            | SimEvent::VmLost { t, .. }
            | SimEvent::ExchangeStarted { t, .. }
            | SimEvent::ExchangeCommitted { t, .. }
            | SimEvent::ExchangeNacked { t, .. }
            | SimEvent::ExchangeAbandoned { t, .. }
            | SimEvent::ExchangeAborted { t, .. } => t,
        }
    }

    /// Checkpoint encoding. Tags are on-disk format: append, never
    /// renumber.
    pub(crate) fn encode(&self, e: &mut Enc) {
        match *self {
            SimEvent::VmPlaced { t, vm, server } => {
                e.u8(0);
                e.f64(t);
                e.u32(vm.0);
                e.u32(server.0);
            }
            SimEvent::VmDropped { t, vm } => {
                e.u8(1);
                e.f64(t);
                e.u32(vm.0);
            }
            SimEvent::VmDeparted { t, vm, server } => {
                e.u8(2);
                e.f64(t);
                e.u32(vm.0);
                e.u32(server.0);
            }
            SimEvent::MigrationStarted {
                t,
                vm,
                from,
                to,
                kind,
            } => {
                e.u8(3);
                e.f64(t);
                e.u32(vm.0);
                e.u32(from.0);
                e.u32(to.0);
                e.u8(match kind {
                    MigrationKind::Low => 0,
                    MigrationKind::High => 1,
                });
            }
            SimEvent::MigrationCompleted { t, vm, from, to } => {
                e.u8(4);
                e.f64(t);
                e.u32(vm.0);
                e.u32(from.0);
                e.u32(to.0);
            }
            SimEvent::ServerWaking { t, server } => {
                e.u8(5);
                e.f64(t);
                e.u32(server.0);
            }
            SimEvent::ServerActive { t, server } => {
                e.u8(6);
                e.f64(t);
                e.u32(server.0);
            }
            SimEvent::ServerHibernated { t, server } => {
                e.u8(7);
                e.f64(t);
                e.u32(server.0);
            }
            SimEvent::OverloadStarted { t, server } => {
                e.u8(8);
                e.f64(t);
                e.u32(server.0);
            }
            SimEvent::OverloadEnded {
                t,
                server,
                duration,
            } => {
                e.u8(9);
                e.f64(t);
                e.u32(server.0);
                e.f64(duration);
            }
            SimEvent::MigrationAborted {
                t,
                vm,
                from,
                to,
                reason,
            } => {
                e.u8(10);
                e.f64(t);
                e.u32(vm.0);
                e.u32(from.0);
                e.u32(to.0);
                e.u8(match reason {
                    AbortReason::Departed => 0,
                    AbortReason::SourceFailed => 1,
                    AbortReason::DestinationFailed => 2,
                    AbortReason::Injected => 3,
                });
            }
            SimEvent::ServerFailed { t, server } => {
                e.u8(11);
                e.f64(t);
                e.u32(server.0);
            }
            SimEvent::ServerRepaired { t, server } => {
                e.u8(12);
                e.f64(t);
                e.u32(server.0);
            }
            SimEvent::WakeFailed { t, server, attempt } => {
                e.u8(13);
                e.f64(t);
                e.u32(server.0);
                e.u32(attempt);
            }
            SimEvent::VmReplaced { t, vm, server } => {
                e.u8(14);
                e.f64(t);
                e.u32(vm.0);
                e.u32(server.0);
            }
            SimEvent::VmLost { t, vm } => {
                e.u8(15);
                e.f64(t);
                e.u32(vm.0);
            }
            SimEvent::ExchangeStarted { t, vm } => {
                e.u8(16);
                e.f64(t);
                e.u32(vm.0);
            }
            SimEvent::ExchangeCommitted { t, vm, server } => {
                e.u8(17);
                e.f64(t);
                e.u32(vm.0);
                e.u32(server.0);
            }
            SimEvent::ExchangeNacked { t, vm, server } => {
                e.u8(18);
                e.f64(t);
                e.u32(vm.0);
                e.u32(server.0);
            }
            SimEvent::ExchangeAbandoned { t, vm } => {
                e.u8(19);
                e.f64(t);
                e.u32(vm.0);
            }
            SimEvent::ExchangeAborted { t, vm } => {
                e.u8(20);
                e.f64(t);
                e.u32(vm.0);
            }
        }
    }

    /// Inverse of [`encode`](Self::encode).
    pub(crate) fn decode(d: &mut Dec<'_>) -> Result<Self, CheckpointError> {
        Ok(match d.u8()? {
            0 => SimEvent::VmPlaced {
                t: d.f64()?,
                vm: VmId(d.u32()?),
                server: ServerId(d.u32()?),
            },
            1 => SimEvent::VmDropped {
                t: d.f64()?,
                vm: VmId(d.u32()?),
            },
            2 => SimEvent::VmDeparted {
                t: d.f64()?,
                vm: VmId(d.u32()?),
                server: ServerId(d.u32()?),
            },
            3 => SimEvent::MigrationStarted {
                t: d.f64()?,
                vm: VmId(d.u32()?),
                from: ServerId(d.u32()?),
                to: ServerId(d.u32()?),
                kind: match d.u8()? {
                    0 => MigrationKind::Low,
                    1 => MigrationKind::High,
                    k => {
                        return Err(CheckpointError::Corrupt(format!(
                            "unknown migration-kind tag {k}"
                        )))
                    }
                },
            },
            4 => SimEvent::MigrationCompleted {
                t: d.f64()?,
                vm: VmId(d.u32()?),
                from: ServerId(d.u32()?),
                to: ServerId(d.u32()?),
            },
            5 => SimEvent::ServerWaking {
                t: d.f64()?,
                server: ServerId(d.u32()?),
            },
            6 => SimEvent::ServerActive {
                t: d.f64()?,
                server: ServerId(d.u32()?),
            },
            7 => SimEvent::ServerHibernated {
                t: d.f64()?,
                server: ServerId(d.u32()?),
            },
            8 => SimEvent::OverloadStarted {
                t: d.f64()?,
                server: ServerId(d.u32()?),
            },
            9 => SimEvent::OverloadEnded {
                t: d.f64()?,
                server: ServerId(d.u32()?),
                duration: d.f64()?,
            },
            10 => SimEvent::MigrationAborted {
                t: d.f64()?,
                vm: VmId(d.u32()?),
                from: ServerId(d.u32()?),
                to: ServerId(d.u32()?),
                reason: match d.u8()? {
                    0 => AbortReason::Departed,
                    1 => AbortReason::SourceFailed,
                    2 => AbortReason::DestinationFailed,
                    3 => AbortReason::Injected,
                    r => {
                        return Err(CheckpointError::Corrupt(format!(
                            "unknown abort-reason tag {r}"
                        )))
                    }
                },
            },
            11 => SimEvent::ServerFailed {
                t: d.f64()?,
                server: ServerId(d.u32()?),
            },
            12 => SimEvent::ServerRepaired {
                t: d.f64()?,
                server: ServerId(d.u32()?),
            },
            13 => SimEvent::WakeFailed {
                t: d.f64()?,
                server: ServerId(d.u32()?),
                attempt: d.u32()?,
            },
            14 => SimEvent::VmReplaced {
                t: d.f64()?,
                vm: VmId(d.u32()?),
                server: ServerId(d.u32()?),
            },
            15 => SimEvent::VmLost {
                t: d.f64()?,
                vm: VmId(d.u32()?),
            },
            16 => SimEvent::ExchangeStarted {
                t: d.f64()?,
                vm: VmId(d.u32()?),
            },
            17 => SimEvent::ExchangeCommitted {
                t: d.f64()?,
                vm: VmId(d.u32()?),
                server: ServerId(d.u32()?),
            },
            18 => SimEvent::ExchangeNacked {
                t: d.f64()?,
                vm: VmId(d.u32()?),
                server: ServerId(d.u32()?),
            },
            19 => SimEvent::ExchangeAbandoned {
                t: d.f64()?,
                vm: VmId(d.u32()?),
            },
            20 => SimEvent::ExchangeAborted {
                t: d.f64()?,
                vm: VmId(d.u32()?),
            },
            tag => {
                return Err(CheckpointError::Corrupt(format!(
                    "unknown sim-event tag {tag}"
                )))
            }
        })
    }
}

/// Append-only event log (no-op unless enabled).
#[derive(Debug, Default)]
pub struct EventLog {
    enabled: bool,
    events: Vec<SimEvent>,
}

impl EventLog {
    /// Creates a log; `enabled = false` makes `push` free.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            events: Vec::new(),
        }
    }

    /// Whether events are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Appends an event (no-op when disabled).
    #[inline]
    pub fn push(&mut self, event: SimEvent) {
        if self.enabled {
            self.events.push(event);
        }
    }

    /// Recorded events in chronological order.
    pub fn events(&self) -> &[SimEvent] {
        &self.events
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Count of events matching `pred`.
    pub fn count_matching(&self, pred: impl Fn(&SimEvent) -> bool) -> usize {
        self.events.iter().filter(|e| pred(e)).count()
    }

    /// Migration history of one VM, as `(t, from, to)` of completions.
    pub fn vm_migration_history(&self, vm: VmId) -> Vec<(f64, ServerId, ServerId)> {
        self.events
            .iter()
            .filter_map(|e| match *e {
                SimEvent::MigrationCompleted { t, vm: v, from, to } if v == vm => {
                    Some((t, from, to))
                }
                _ => None,
            })
            .collect()
    }

    /// Checkpoint encoding: the enabled flag plus every recorded event.
    pub(crate) fn encode(&self, e: &mut Enc) {
        e.bool(self.enabled);
        e.usize(self.events.len());
        for ev in &self.events {
            ev.encode(e);
        }
    }

    /// Inverse of [`encode`](Self::encode).
    pub(crate) fn decode(d: &mut Dec<'_>) -> Result<Self, CheckpointError> {
        let enabled = d.bool()?;
        // The smallest event is a tag and an `f64` time.
        let events = d.list(9, SimEvent::decode)?;
        Ok(Self { enabled, events })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_log_records_nothing() {
        let mut log = EventLog::new(false);
        log.push(SimEvent::VmDropped {
            t: 1.0,
            vm: VmId(0),
        });
        assert!(log.is_empty());
        assert!(!log.is_enabled());
    }

    #[test]
    fn enabled_log_preserves_order_and_counts() {
        let mut log = EventLog::new(true);
        log.push(SimEvent::ServerWaking {
            t: 0.0,
            server: ServerId(1),
        });
        log.push(SimEvent::ServerActive {
            t: 120.0,
            server: ServerId(1),
        });
        log.push(SimEvent::VmPlaced {
            t: 120.0,
            vm: VmId(3),
            server: ServerId(1),
        });
        assert_eq!(log.len(), 3);
        assert_eq!(log.events()[0].time(), 0.0);
        assert_eq!(
            log.count_matching(|e| matches!(e, SimEvent::ServerActive { .. })),
            1
        );
    }

    #[test]
    fn vm_history_filters_by_vm() {
        let mut log = EventLog::new(true);
        log.push(SimEvent::MigrationCompleted {
            t: 5.0,
            vm: VmId(1),
            from: ServerId(0),
            to: ServerId(2),
        });
        log.push(SimEvent::MigrationCompleted {
            t: 9.0,
            vm: VmId(2),
            from: ServerId(2),
            to: ServerId(3),
        });
        log.push(SimEvent::MigrationCompleted {
            t: 12.0,
            vm: VmId(1),
            from: ServerId(2),
            to: ServerId(4),
        });
        let h = log.vm_migration_history(VmId(1));
        assert_eq!(
            h,
            vec![
                (5.0, ServerId(0), ServerId(2)),
                (12.0, ServerId(2), ServerId(4))
            ]
        );
    }

    #[test]
    fn every_variant_reports_its_time() {
        let events = [
            SimEvent::VmPlaced {
                t: 1.0,
                vm: VmId(0),
                server: ServerId(0),
            },
            SimEvent::VmDropped {
                t: 2.0,
                vm: VmId(0),
            },
            SimEvent::VmDeparted {
                t: 3.0,
                vm: VmId(0),
                server: ServerId(0),
            },
            SimEvent::MigrationStarted {
                t: 4.0,
                vm: VmId(0),
                from: ServerId(0),
                to: ServerId(1),
                kind: MigrationKind::Low,
            },
            SimEvent::MigrationCompleted {
                t: 5.0,
                vm: VmId(0),
                from: ServerId(0),
                to: ServerId(1),
            },
            SimEvent::ServerWaking {
                t: 6.0,
                server: ServerId(0),
            },
            SimEvent::ServerActive {
                t: 7.0,
                server: ServerId(0),
            },
            SimEvent::ServerHibernated {
                t: 8.0,
                server: ServerId(0),
            },
            SimEvent::OverloadStarted {
                t: 9.0,
                server: ServerId(0),
            },
            SimEvent::OverloadEnded {
                t: 10.0,
                server: ServerId(0),
                duration: 1.0,
            },
            SimEvent::MigrationAborted {
                t: 11.0,
                vm: VmId(0),
                from: ServerId(0),
                to: ServerId(1),
                reason: AbortReason::Departed,
            },
            SimEvent::ServerFailed {
                t: 12.0,
                server: ServerId(0),
            },
            SimEvent::ServerRepaired {
                t: 13.0,
                server: ServerId(0),
            },
            SimEvent::WakeFailed {
                t: 14.0,
                server: ServerId(0),
                attempt: 1,
            },
            SimEvent::VmReplaced {
                t: 15.0,
                vm: VmId(0),
                server: ServerId(1),
            },
            SimEvent::VmLost {
                t: 16.0,
                vm: VmId(0),
            },
            SimEvent::ExchangeStarted {
                t: 17.0,
                vm: VmId(0),
            },
            SimEvent::ExchangeCommitted {
                t: 18.0,
                vm: VmId(0),
                server: ServerId(1),
            },
            SimEvent::ExchangeNacked {
                t: 19.0,
                vm: VmId(0),
                server: ServerId(1),
            },
            SimEvent::ExchangeAbandoned {
                t: 20.0,
                vm: VmId(0),
            },
            SimEvent::ExchangeAborted {
                t: 21.0,
                vm: VmId(0),
            },
        ];
        for (i, e) in events.iter().enumerate() {
            assert_eq!(e.time(), (i + 1) as f64);
        }
    }
}
