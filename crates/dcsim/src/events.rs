//! The event queue: a monitor lane beside a binary heap.
//!
//! The 5 s MonitorTick chains are nearly every event of an ecoCloud
//! run, and their re-pushes arrive in time order (each is `now +
//! interval`, and `now` never decreases), so they skip the heap:
//! [`EventQueue::schedule_monitor`] appends them to a FIFO lane, and a
//! pop takes the lane's front or the heap's top, whichever is first by
//! `(time, seq)`. The heap keeps the rest — the stagger and resumed
//! ticks, sweeps, spawns, migration completions, wakes, departures,
//! repairs, exchanges. The monotone sequence number, shared by both
//! stores, makes simultaneous events fire in insertion order, which —
//! together with seeded RNGs — makes every run exactly reproducible.
//!
//! A chain whose tick finds its server quiet is not pushed at all: the
//! engine parks it, and re-arms it when the server leaves its quiet
//! band. `EventQueue::schedule_rearmed` files the re-armed tick with
//! an order key between two sequence numbers, where the unparked tick
//! would have popped, and while chains are parked the queue logs each
//! pop's number so `EventQueue::settle_parked` can place the silent
//! ticks it counts in closed form (`DESIGN.md` §14).
//!
//! Each store's head is its `(time, seq)` minimum — the heap's by
//! construction, the lane's because its pushes arrive sorted — so the
//! smaller head is the minimum of every pending event. Debug-assertion
//! builds enforce it on every run with a pop-order law: each pop is
//! strictly after the last, and at the end nothing pending lies before
//! the last pop. See `DESIGN.md` §14 for the full argument.

use crate::checkpoint::{CheckpointError, Dec, Enc, IdBounds};
use crate::ids::{ServerId, VmId};
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

/// Everything that can happen in the simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// Refresh every VM's demand from its trace (every 5 simulated
    /// minutes, the CoMon cadence).
    DemandUpdate,
    /// A server runs its migration monitor (§II: "each server monitors
    /// its CPU utilization ... every few seconds").
    MonitorTick(ServerId),
    /// A workload VM arrives (index into the spawn list).
    Spawn(usize),
    /// A VM's lifetime expires.
    Departure(VmId),
    /// A live migration finishes. Carries the VM's migration epoch at
    /// scheduling time; a mismatch at delivery means the migration was
    /// aborted (rollback, departure, crash) and the event is stale.
    MigrationComplete(VmId, u32),
    /// A waking server becomes active. Carries the server's wake epoch
    /// at scheduling time; a mismatch at delivery means the wake was
    /// retried or cancelled and the event is stale.
    WakeComplete(ServerId, u32),
    /// Check whether an idle server should hibernate.
    HibernateCheck(ServerId),
    /// Sample the 30-minute metrics (Figs. 6–11 cadence).
    MetricsSample,
    /// The next injected server crash fires (self-rescheduling chain;
    /// only ever scheduled when the fault schedule enables crashes).
    FaultCrash,
    /// A crashed server's repair completes; it rejoins the hibernated
    /// pool.
    FaultRepair(ServerId),
    /// The manager's acceptance-collection window for a placement
    /// exchange closes; acceptances received in time are now eligible
    /// for a commit. Carries `(exchange id, exchange epoch)`; a
    /// mismatched epoch means the exchange already moved on and the
    /// event is stale.
    ExchangeCollect(u64, u32),
    /// A commit message arrives at the chosen server, triggering the
    /// admission re-check against its *current* state. Carries
    /// `(exchange id, exchange epoch)`.
    ExchangeCommitArrive(u64, u32),
    /// The manager gives up waiting for the outcome of a commit (the
    /// commit or its NACK was lost in flight) and retries. Carries
    /// `(exchange id, exchange epoch)`.
    ExchangeCommitTimeout(u64, u32),
    /// A NACK from a stale commit arrives back at the manager, which
    /// retries the remaining acceptors. Carries `(exchange id,
    /// exchange epoch)`.
    ExchangeNackArrive(u64, u32),
    /// A backed-off invitation re-broadcast fires. Carries
    /// `(exchange id, exchange epoch)`.
    ExchangeRebroadcast(u64, u32),
}

impl Event {
    /// Checkpoint encoding: a one-byte variant tag plus the payload
    /// fields. Tags are part of the on-disk format — append new
    /// variants, never renumber. Spawns are not stored (tag 2 is free).
    pub(crate) fn encode(&self, e: &mut Enc) {
        match *self {
            Event::DemandUpdate => e.u8(0),
            Event::MonitorTick(s) => {
                e.u8(1);
                e.u32(s.0);
            }
            Event::Spawn(_) => unreachable!("queued spawns are re-filed from the workload"),
            Event::Departure(v) => {
                e.u8(3);
                e.u32(v.0);
            }
            Event::MigrationComplete(v, epoch) => {
                e.u8(4);
                e.u32(v.0);
                e.u32(epoch);
            }
            Event::WakeComplete(s, epoch) => {
                e.u8(5);
                e.u32(s.0);
                e.u32(epoch);
            }
            Event::HibernateCheck(s) => {
                e.u8(6);
                e.u32(s.0);
            }
            Event::MetricsSample => e.u8(7),
            Event::FaultCrash => e.u8(8),
            Event::FaultRepair(s) => {
                e.u8(9);
                e.u32(s.0);
            }
            Event::ExchangeCollect(id, epoch) => {
                e.u8(10);
                e.u64(id);
                e.u32(epoch);
            }
            Event::ExchangeCommitArrive(id, epoch) => {
                e.u8(11);
                e.u64(id);
                e.u32(epoch);
            }
            Event::ExchangeCommitTimeout(id, epoch) => {
                e.u8(12);
                e.u64(id);
                e.u32(epoch);
            }
            Event::ExchangeNackArrive(id, epoch) => {
                e.u8(13);
                e.u64(id);
                e.u32(epoch);
            }
            Event::ExchangeRebroadcast(id, epoch) => {
                e.u8(14);
                e.u64(id);
                e.u32(epoch);
            }
        }
    }

    /// Checkpoint decoding, inverse of [`encode`](Self::encode). Every
    /// server and VM id is checked against `ids`; exchange ids are
    /// looked up, never indexed, so an unknown one is only stale.
    pub(crate) fn decode(d: &mut Dec<'_>, ids: &IdBounds) -> Result<Self, CheckpointError> {
        let server = |d: &mut Dec<'_>| d.id("server", ids.servers).map(ServerId);
        let vm = |d: &mut Dec<'_>| d.id("VM", ids.vms).map(VmId);
        Ok(match d.u8()? {
            0 => Event::DemandUpdate,
            1 => Event::MonitorTick(server(d)?),
            3 => Event::Departure(vm(d)?),
            4 => Event::MigrationComplete(vm(d)?, d.u32()?),
            5 => Event::WakeComplete(server(d)?, d.u32()?),
            6 => Event::HibernateCheck(server(d)?),
            7 => Event::MetricsSample,
            8 => Event::FaultCrash,
            9 => Event::FaultRepair(server(d)?),
            10 => Event::ExchangeCollect(d.u64()?, d.u32()?),
            11 => Event::ExchangeCommitArrive(d.u64()?, d.u32()?),
            12 => Event::ExchangeCommitTimeout(d.u64()?, d.u32()?),
            13 => Event::ExchangeNackArrive(d.u64()?, d.u32()?),
            14 => Event::ExchangeRebroadcast(d.u64()?, d.u32()?),
            other => {
                return Err(CheckpointError::Corrupt(format!(
                    "unknown event tag {other}"
                )))
            }
        })
    }
}

/// A scheduled event. `seq` is its order key among events at the same
/// time: `2n + 1` for the event the queue numbered `n` when it was
/// pushed, and `2w` for a re-armed monitor tick whose chain stood at
/// the queue's watermark `w` ([`EventQueue::schedule_rearmed`]). A
/// re-armed tick thus orders after every event numbered below `w` and
/// before every event numbered `w` or later, where its chain's unparked
/// tick would have been.
#[derive(Debug, Clone, Copy)]
struct Scheduled {
    t_secs: f64,
    seq: u64,
    event: Event,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.t_secs == other.t_secs && self.seq == other.seq
    }
}
impl Eq for Scheduled {}

impl Scheduled {
    /// `(time, seq)` as one integer that orders as `total_cmp` on the
    /// times, then the sequence numbers, do: the time's bits mapped as
    /// `f64::total_cmp` maps them, with the sign bit flipped so the
    /// result compares unsigned, above the sequence number.
    fn order_key(&self) -> u128 {
        let bits = self.t_secs.to_bits() as i64;
        let t = (bits ^ ((((bits >> 63) as u64) >> 1) as i64)) as u64 ^ (1 << 63);
        (t as u128) << 64 | self.seq as u128
    }
}

impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse ordering: BinaryHeap is a max-heap, we want the
        // earliest (time, seq) first. `total_cmp` makes the ordering
        // total even for values `schedule`'s guards miss, so the heap
        // can never be corrupted by a comparison panic mid-sift.
        other
            .t_secs
            .total_cmp(&self.t_secs)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}
impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A restored entry lies before `2^36` s (about 2,200 years). No run
/// schedules that far ahead, so a later time in a snapshot is
/// corruption, refused before it reaches the queue.
const HORIZON_SECS: f64 = (1u64 << 36) as f64;

/// True when `a` pops before `b`: the reversed `Ord` that makes the
/// max-heap pop the `(time, seq)` minimum.
#[inline]
fn earlier(a: &Scheduled, b: &Scheduled) -> bool {
    a.cmp(b) == Ordering::Greater
}

/// Deterministic event queue: the heap, the monitor lane, and the
/// sequence numbers and clock floor the engine needs around them.
#[derive(Debug)]
pub struct EventQueue {
    /// Every pending event outside the lane; its top is their
    /// `(time, seq)` minimum.
    heap: BinaryHeap<Scheduled>,
    /// The monitor lane: [`schedule_monitor`](Self::schedule_monitor)
    /// pushes in nondecreasing time order, so a FIFO holds them in
    /// `(time, seq)` order and its front is its minimum. A push that
    /// would break the order goes to the heap instead.
    lane: VecDeque<Scheduled>,
    /// The number the next pushed event gets (its key is
    /// `2 * next_seq + 1`).
    next_seq: u64,
    /// Current simulation time as reported by the driving engine via
    /// [`advance_to`](Self::advance_to); scheduling earlier than this
    /// is rejected in debug builds.
    now_floor: f64,
    /// The last event popped: the point in pop order up to which
    /// [`settle_parked`](Self::settle_parked) counts a parked chain's
    /// silent ticks, and the pop half of the pop-order law (see
    /// [`assert_pop_order_law`](Self::assert_pop_order_law)).
    last_pop: Option<Scheduled>,
    /// While `logging`, one [`PopMark`] per pop since the parked chains
    /// were last settled, in pop order.
    pop_log: Vec<PopMark>,
    logging: bool,
}

/// One logged pop: its `(time, key)` and the queue's `next_seq` when it
/// popped. A monitor tick that pops just before it would have pushed
/// its successor with that number, so it is the watermark the tick
/// leaves.
#[derive(Debug, Clone, Copy)]
struct PopMark {
    t_secs: f64,
    seq: u64,
    next_seq: u64,
}

/// A parked monitor chain settled up to the last pop
/// ([`EventQueue::settle_parked`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Settled {
    /// Silent ticks that popped, in the unparked run, since the chain
    /// was parked or last settled.
    pub ticks: u64,
    /// The time of the chain's last tick, popped or settled.
    pub anchor: f64,
    /// The watermark of the chain's next tick, `anchor + interval`, or
    /// `None` when that tick lies past the end of the run.
    pub watermark: Option<u64>,
}

impl Default for EventQueue {
    fn default() -> Self {
        Self::new()
    }
}

impl EventQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an empty queue whose heap is pre-sized for roughly
    /// `hint` concurrently pending events (e.g. servers + live VMs).
    /// The monitor lane grows to the number of powered servers.
    pub fn with_capacity(hint: usize) -> Self {
        EventQueue {
            heap: BinaryHeap::with_capacity(hint),
            lane: VecDeque::new(),
            next_seq: 0,
            now_floor: 0.0,
            last_pop: None,
            pop_log: Vec::new(),
            logging: false,
        }
    }

    /// Advances the queue's notion of the current simulation time.
    /// The engine calls this as its clock moves; afterwards debug
    /// builds reject any attempt to schedule into the past.
    pub fn advance_to(&mut self, now_secs: f64) {
        self.now_floor = self.now_floor.max(now_secs);
    }

    /// Numbers a new pending event. Both stores draw from the one
    /// sequence, so `(time, seq)` stays a single total order.
    #[inline]
    fn stamp(&mut self, t_secs: f64, event: Event) -> Scheduled {
        let seq = 2 * self.next_seq + 1;
        self.next_seq += 1;
        Scheduled { t_secs, seq, event }
    }

    /// Schedules `event` at absolute time `t_secs`.
    ///
    /// # Panics
    /// Panics on non-finite times — scheduling at NaN or infinity is
    /// always an upstream arithmetic bug. Debug builds additionally
    /// reject negative times (simulation time starts at zero, so a
    /// negative timestamp means an offset was subtracted past the
    /// origin) and times earlier than the current simulation clock as
    /// last reported via [`advance_to`](Self::advance_to) — an event
    /// in the past would fire immediately but out of causal order.
    pub fn schedule(&mut self, t_secs: f64, event: Event) {
        assert!(t_secs.is_finite(), "cannot schedule event at {t_secs}");
        debug_assert!(
            t_secs >= 0.0,
            "cannot schedule {event:?} at negative time {t_secs}"
        );
        self.schedule_chain(t_secs, event);
    }

    /// Fast-path `schedule` for the per-tick self-rescheduling chains
    /// (MonitorTick, DemandUpdate): the caller guarantees `t_secs` is
    /// finite and not in the past — both hold trivially for
    /// `now + fixed_period` — so release builds skip the finiteness
    /// assert. Debug builds still verify everything `schedule` does.
    #[inline]
    pub fn schedule_chain(&mut self, t_secs: f64, event: Event) {
        debug_assert!(t_secs.is_finite(), "cannot schedule event at {t_secs}");
        debug_assert!(
            t_secs >= self.now_floor && t_secs >= 0.0,
            "cannot schedule {event:?} at {t_secs}, before current simulation time {}",
            self.now_floor
        );
        let s = self.stamp(t_secs, event);
        self.heap.push(s);
    }

    /// [`schedule_chain`](Self::schedule_chain) for the monitor chains:
    /// files `event` in the monitor lane when `t_secs` is not before
    /// the lane's last entry, and in the heap otherwise. Every re-push
    /// of a monitor chain is at `now + monitor_interval`, and `now`
    /// never decreases, so these pushes arrive sorted and the heap
    /// fallback only keeps the lane a FIFO whatever the caller does.
    /// Same caller guarantees as `schedule_chain`.
    #[inline]
    pub fn schedule_monitor(&mut self, t_secs: f64, event: Event) {
        debug_assert!(t_secs.is_finite(), "cannot schedule event at {t_secs}");
        debug_assert!(
            t_secs >= self.now_floor && t_secs >= 0.0,
            "cannot schedule {event:?} at {t_secs}, before current simulation time {}",
            self.now_floor
        );
        let s = self.stamp(t_secs, event);
        if self.lane.back().is_none_or(|last| last.t_secs <= t_secs) {
            self.lane.push_back(s);
        } else {
            self.heap.push(s);
        }
    }

    /// Files `server`'s re-armed monitor tick at `t_secs` with the
    /// order key `2 * watermark`: it pops after every event numbered
    /// below `watermark` and before every event numbered `watermark` or
    /// later. Draws no number, because the unparked tick it stands for
    /// was numbered when its chain's previous tick popped. Goes to the
    /// heap, since its key may order before the lane's back.
    pub(crate) fn schedule_rearmed(&mut self, t_secs: f64, watermark: u64, server: ServerId) {
        debug_assert!(
            watermark <= self.next_seq,
            "watermark {watermark} not issued yet"
        );
        let s = Scheduled {
            t_secs,
            seq: 2 * watermark,
            event: Event::MonitorTick(server),
        };
        debug_assert!(
            t_secs >= self.now_floor && self.last_pop.is_none_or(|last| earlier(&last, &s)),
            "re-armed tick {s:?} is not after the last pop {:?}",
            self.last_pop
        );
        self.heap.push(s);
    }

    /// Removes and returns the earliest event as `(time, event)`: the
    /// lane's front or the heap's top, whichever is first by
    /// `(time, seq)`.
    ///
    /// # Panics
    /// Debug builds enforce the pop half of the pop-order law: each
    /// pop's `(time, seq)` is strictly after the previous pop's.
    pub fn pop(&mut self) -> Option<(f64, Event)> {
        let from_lane = match (self.lane.front(), self.heap.peek()) {
            (Some(front), Some(top)) => earlier(front, top),
            (front, _) => front.is_some(),
        };
        let s = if from_lane {
            self.lane.pop_front()
        } else {
            self.heap.pop()
        }?;
        #[cfg(debug_assertions)]
        self.assert_after_last_pop(&s);
        self.last_pop = Some(s);
        if self.logging {
            self.pop_log.push(PopMark {
                t_secs: s.t_secs,
                seq: s.seq,
                next_seq: self.next_seq,
            });
        }
        Some((s.t_secs, s.event))
    }

    /// Starts or stops the pop log that parked monitor chains settle
    /// from. Stopping drops what it holds.
    pub(crate) fn log_pops(&mut self, on: bool) {
        self.logging = on;
        if !on {
            self.pop_log = Vec::new();
        }
    }

    /// Pops logged since the last [`forget_pops`](Self::forget_pops).
    pub(crate) fn logged_pops(&self) -> usize {
        self.pop_log.len()
    }

    /// Empties the pop log once every parked chain has been settled up
    /// to the last pop: later settles only look at later pops.
    pub(crate) fn forget_pops(&mut self) {
        self.pop_log.clear();
    }

    /// The next event number, which a chain parked now keeps as its
    /// watermark: it is the number its next tick would have drawn.
    pub(crate) fn watermark(&self) -> u64 {
        self.next_seq
    }

    /// Settles a monitor chain that a tick at `anchor` parked with
    /// `watermark`, without changing it: counts the chain's silent
    /// ticks (at `anchor + interval`, then by repeated `+ interval`, up
    /// to `end`) that the unparked run pops before the last popped
    /// event, and returns where the chain then stands.
    ///
    /// Ticks before the last pop's time all popped before it. A tick at
    /// exactly that time popped before it if the tick's key, `2w` for
    /// its watermark `w`, is the smaller, and `w` is the `next_seq` of
    /// the first pop after the chain's previous tick, which the pop log
    /// records ([`watermark_after`](Self::watermark_after)). A chain
    /// restored from a snapshot is stored settled up to that
    /// snapshot's last pop, so before the first pop after a restore
    /// there is nothing to settle.
    pub(crate) fn settle_parked(
        &self,
        anchor: f64,
        watermark: u64,
        interval: f64,
        end: f64,
    ) -> Settled {
        let mut settled = Settled {
            ticks: 0,
            anchor,
            watermark: Some(watermark),
        };
        let mut next = anchor + interval;
        if next > end {
            settled.watermark = None;
            return settled;
        }
        let Some(last) = self.last_pop else {
            return settled;
        };
        while next < last.t_secs && next <= end {
            settled.anchor = next;
            next += interval;
            settled.ticks += 1;
        }
        if next > end {
            settled.watermark = None;
            return settled;
        }
        let tick_time = |j: u64| (0..j).fold(anchor + interval, |t, _| t + interval);
        let mut w = match settled.ticks {
            0 => watermark,
            n => self.watermark_after(n - 1, settled.anchor, watermark, &tick_time),
        };
        if next == last.t_secs && 2 * w < last.seq {
            w = self.watermark_after(settled.ticks, next, watermark, &tick_time);
            settled.anchor = next;
            next += interval;
            settled.ticks += 1;
        }
        settled.watermark = (next <= end).then_some(w);
        settled
    }

    /// The watermark that tick `j` of a parked chain leaves: the
    /// `next_seq` of the first logged pop after the tick, at `t_j` with
    /// key `2 w_j`. Tick 0's watermark `w_0` is the chain's; a later
    /// tick's is what its predecessor left, which lies between the
    /// `next_seq` at the first pop at or after the predecessor's time
    /// and at the first pop after it. Only pops at `t_j` that were
    /// pushed at the predecessor's very time fall inside that range, so
    /// the search recurses to the predecessor only when one of them
    /// exists and the bounds disagree about it. `tick_time(j)`
    /// recomputes `t_j` by the chain's own additions.
    fn watermark_after(&self, j: u64, t_j: f64, w0: u64, tick_time: &dyn Fn(u64) -> f64) -> u64 {
        let log = &self.pop_log;
        let mark_at = |i: usize| log.get(i).map_or(self.next_seq, |m| m.next_seq);
        let a = log.partition_point(|m| m.t_secs < t_j);
        let b = a + log[a..].partition_point(|m| m.t_secs == t_j);
        let after = |w: u64| a + log[a..b].partition_point(|m| m.seq < 2 * w);
        let i = if a == b {
            a
        } else if j == 0 {
            after(w0)
        } else {
            let t_prev = tick_time(j - 1);
            let lo = mark_at(log.partition_point(|m| m.t_secs < t_prev));
            let hi = mark_at(log.partition_point(|m| m.t_secs <= t_prev));
            match (after(lo), after(hi)) {
                (i_lo, i_hi) if i_lo == i_hi => i_lo,
                _ => after(self.watermark_after(j - 1, t_prev, w0, tick_time)),
            }
        };
        mark_at(i)
    }

    #[cfg(debug_assertions)]
    fn assert_after_last_pop(&self, s: &Scheduled) {
        if let Some(last) = &self.last_pop {
            assert!(
                earlier(last, s),
                "pop-order law broken: {s:?} due before {last:?}"
            );
        }
    }

    /// The finish half of the pop-order law: no pending event lies
    /// before the last pop. With the pop half, this makes every pop of
    /// the run the minimum of the pending set (the argument is in
    /// `DESIGN.md` §14).
    ///
    /// # Panics
    /// When a pending event lies before the last pop.
    #[cfg(debug_assertions)]
    pub(crate) fn assert_pop_order_law(&self) {
        for s in self.entries() {
            self.assert_after_last_pop(s);
        }
    }

    /// Every pending event in either store, unordered.
    fn entries(&self) -> impl Iterator<Item = &Scheduled> {
        self.heap.iter().chain(self.lane.iter())
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len() + self.lane.len()
    }

    /// True when nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty() && self.lane.is_empty()
    }

    /// The pending events that `keep` selects, sorted by `(time, seq)`
    /// — the canonical form: two queues with the same pending set
    /// produce the same bytes regardless of which store holds an event
    /// and of how the heap currently lays the events out, which is
    /// what makes re-snapshot byte-equality
    /// (the restore oracle) hold. Sequence numbers are unique, so an
    /// unstable sort, in place and with no scratch buffer, gives the
    /// one order.
    fn sorted_entries(&self, keep: impl Fn(&Scheduled) -> bool) -> Vec<Scheduled> {
        let mut entries: Vec<Scheduled> = self.entries().filter(|s| keep(s)).copied().collect();
        entries.sort_unstable_by_key(Scheduled::order_key);
        entries
    }

    /// Captures the queue as `(entries, next_seq, now_floor)`, the
    /// entries in the canonical order of
    /// [`sorted_entries`](Self::sorted_entries).
    #[cfg(test)]
    pub(crate) fn snapshot_parts(&self) -> (Vec<(f64, u64, Event)>, u64, f64) {
        (
            self.sorted_entries(|_| true)
                .into_iter()
                .map(|s| (s.t_secs, s.seq, s.event))
                .collect(),
            self.next_seq,
            self.now_floor,
        )
    }

    /// Files one captured entry, keeping its original sequence number
    /// (re-assigning them would reorder simultaneous events). Pop
    /// order depends only on the `(time, seq)` total order, so every
    /// entry landing in the heap (the lane refills as the restored
    /// chains tick) is invisible.
    pub(crate) fn restore_entry(&mut self, t_secs: f64, seq: u64, event: Event) {
        debug_assert!(
            seq <= 2 * self.next_seq,
            "entry key {seq} was not issued before next_seq {}",
            self.next_seq
        );
        self.heap.push(Scheduled { t_secs, seq, event });
    }

    /// Rebuilds a queue from parts captured with
    /// [`snapshot_parts`](Self::snapshot_parts).
    #[cfg(test)]
    pub(crate) fn restore_parts(
        entries: &[(f64, u64, Event)],
        next_seq: u64,
        now_floor: f64,
    ) -> Self {
        let mut q = Self::with_capacity(entries.len());
        q.next_seq = next_seq;
        q.now_floor = now_floor;
        for &(t_secs, seq, event) in entries {
            q.restore_entry(t_secs, seq, event);
        }
        q
    }

    /// Checkpoint encoding: the next number, then the canonical
    /// `(time, key, event)` list of the entries other than spawns,
    /// which the engine re-files from its workload.
    /// The clock floor is the engine's clock `now`, which the snapshot
    /// header stores.
    pub(crate) fn encode(&self, e: &mut Enc, now: f64) {
        debug_assert_eq!(self.now_floor, now, "the queue's clock floor");
        e.u64(self.next_seq);
        let entries = self.sorted_entries(|s| !matches!(s.event, Event::Spawn(_)));
        e.usize(entries.len());
        for s in &entries {
            e.f64(s.t_secs);
            e.u64(s.seq);
            s.event.encode(e);
        }
    }

    /// Inverse of [`encode`](Self::encode) into a fresh queue at clock
    /// `now`, where numbers below `spawns` are the left-out spawns'.
    /// Checks each event's ids against `ids`, and refuses what would
    /// restore and then break the run: a next number below `spawns` or
    /// whose key `2n + 1` overflows; entries out of the strictly
    /// increasing `(time, key)` order, before `now` or from
    /// [`HORIZON_SECS`] on; a spawn's key or one not issued yet; and an
    /// even (re-armed) key on anything but a `MonitorTick`.
    pub(crate) fn decode_into(
        &mut self,
        d: &mut Dec<'_>,
        ids: &IdBounds,
        now: f64,
        spawns: u64,
    ) -> Result<(), CheckpointError> {
        let next_seq = d.u64()?;
        if next_seq >= 1 << 63 || next_seq < spawns {
            return Err(d.corrupt(format_args!(
                "next event number {next_seq} is out of range ({spawns}..2^63)"
            )));
        }
        self.next_seq = next_seq;
        self.advance_to(now);
        let n = d.usize()?;
        // 17 B minimum per entry: f64 + u64 + 1-byte tag.
        d.check_remaining(n, 17)?;
        let keys = 2 * spawns + 1..=2 * next_seq;
        let mut last: Option<Scheduled> = None;
        for _ in 0..n {
            let s = Scheduled {
                t_secs: d.f64()?,
                seq: d.u64()?,
                event: Event::decode(d, ids)?,
            };
            if !(now..HORIZON_SECS).contains(&s.t_secs)
                || !keys.contains(&s.seq)
                || last.is_some_and(|last| !earlier(&last, &s))
                || s.seq.is_multiple_of(2) && !matches!(s.event, Event::MonitorTick(_))
            {
                return Err(d.corrupt(format_args!(
                    "queued {:?} at {} s with key {} cannot follow {last:?} \
                     (clock {now} s, keys {keys:?})",
                    s.event, s.t_secs, s.seq
                )));
            }
            self.restore_entry(s.t_secs, s.seq, s.event);
            last = Some(s);
        }
        Ok(())
    }

    /// Every pending event as `(time, key, event)`, unordered.
    pub(crate) fn pending(&self) -> impl Iterator<Item = (f64, u64, Event)> + '_ {
        self.entries().map(|s| (s.t_secs, s.seq, s.event))
    }

    /// Files `event` at `t_secs` with the next sequence number straight
    /// into the heap, past `schedule`'s checks — the shape of a queue
    /// bug that stores an event behind the last pop.
    #[cfg(all(test, debug_assertions))]
    pub(crate) fn insert_unchecked(&mut self, t_secs: f64, event: Event) {
        let s = self.stamp(t_secs, event);
        self.heap.push(s);
    }
}

/// A plain binary heap with no monitor lane, no re-armed keys and no
/// checks: the oracle of the equivalence tests. It numbers events and
/// orders them exactly as [`EventQueue`] does, so the same schedule
/// calls give the same pops.
#[cfg(test)]
#[derive(Debug, Default)]
pub(crate) struct ReferenceHeap {
    heap: BinaryHeap<Scheduled>,
    next_seq: u64,
}

#[cfg(test)]
impl ReferenceHeap {
    /// Schedules `event` at absolute time `t_secs`. Unchecked: an
    /// oracle is fed what the queue under test accepted.
    pub(crate) fn schedule(&mut self, t_secs: f64, event: Event) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Scheduled { t_secs, seq, event });
    }

    /// Removes and returns the earliest event as `(time, event)`.
    pub(crate) fn pop(&mut self) -> Option<(f64, Event)> {
        self.heap.pop().map(|s| (s.t_secs, s.event))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecocloud_rng::{Rng, SeedableRng, StdRng};

    /// Bounds that admit every id: these tests exercise the codec, not
    /// the range checks.
    const ANY_IDS: IdBounds = IdBounds {
        servers: usize::MAX,
        vms: usize::MAX,
    };

    /// The snapshot sort key orders entries exactly as `total_cmp` on
    /// the times, then the sequence numbers, including signed zeros,
    /// subnormals and infinities.
    #[test]
    fn order_key_matches_total_cmp_then_seq() {
        let times = [
            f64::NEG_INFINITY,
            -1.5,
            -0.0,
            0.0,
            f64::MIN_POSITIVE / 2.0,
            1e-300,
            0.5,
            1.0,
            86_400.0,
            f64::INFINITY,
        ];
        let entries: Vec<Scheduled> = times
            .iter()
            .flat_map(|&t_secs| {
                [2, 0, 1].map(|seq| Scheduled {
                    t_secs,
                    seq,
                    event: Event::DemandUpdate,
                })
            })
            .collect();
        for a in &entries {
            for b in &entries {
                let want = a.t_secs.total_cmp(&b.t_secs).then(a.seq.cmp(&b.seq));
                assert_eq!(
                    a.order_key().cmp(&b.order_key()),
                    want,
                    "({}, {}) vs ({}, {})",
                    a.t_secs,
                    a.seq,
                    b.t_secs,
                    b.seq
                );
            }
        }
    }

    /// The heap stays in cache because its entries stay small: growing
    /// `Event` (or `Scheduled`) silently doubles the queue's footprint,
    /// so budge these only deliberately.
    #[test]
    fn event_fits_two_words() {
        assert!(
            size_of::<Event>() <= 16,
            "Event grew to {} bytes",
            size_of::<Event>()
        );
        assert!(
            size_of::<Scheduled>() <= 32,
            "Scheduled grew to {} bytes",
            size_of::<Scheduled>()
        );
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(5.0, Event::MetricsSample);
        q.schedule(1.0, Event::DemandUpdate);
        q.schedule(3.0, Event::WakeComplete(ServerId(0), 0));
        assert_eq!(q.pop().map(|(t, _)| t), Some(1.0));
        assert_eq!(q.pop().map(|(t, _)| t), Some(3.0));
        assert_eq!(q.pop().map(|(t, _)| t), Some(5.0));
        assert!(q.pop().is_none());
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        q.schedule(2.0, Event::Spawn(0));
        q.schedule(2.0, Event::Spawn(1));
        q.schedule(2.0, Event::Spawn(2));
        for expect in 0..3 {
            match q.pop() {
                Some((_, Event::Spawn(i))) => assert_eq!(i, expect),
                other => panic!("unexpected: {other:?}"),
            }
        }
    }

    #[test]
    #[should_panic(expected = "cannot schedule")]
    fn rejects_nan_time() {
        EventQueue::new().schedule(f64::NAN, Event::DemandUpdate);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "negative time")]
    fn rejects_negative_time_in_debug() {
        EventQueue::new().schedule(-1.0, Event::DemandUpdate);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "before current simulation time")]
    fn rejects_scheduling_into_the_past_in_debug() {
        let mut q = EventQueue::new();
        q.schedule(5.0, Event::DemandUpdate);
        q.advance_to(10.0);
        q.schedule(9.0, Event::MetricsSample);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "before current simulation time")]
    fn chain_fast_path_still_rejects_past_in_debug() {
        let mut q = EventQueue::new();
        q.advance_to(600.0);
        q.schedule_chain(300.0, Event::DemandUpdate);
    }

    /// The pop half of the pop-order law: an event stored behind the
    /// last pop (which `schedule` cannot do) trips it when it pops.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "pop-order")]
    fn pop_order_law_rejects_a_pop_before_the_last() {
        let mut q = EventQueue::new();
        q.schedule(10.0, Event::DemandUpdate);
        assert_eq!(q.pop(), Some((10.0, Event::DemandUpdate)));
        q.insert_unchecked(5.0, Event::MetricsSample);
        q.pop();
    }

    #[test]
    fn advance_to_never_moves_backwards() {
        let mut q = EventQueue::new();
        q.advance_to(10.0);
        q.advance_to(4.0); // out-of-order report must not lower the floor
        q.schedule(10.0, Event::DemandUpdate);
        assert_eq!(q.pop().map(|(t, _)| t), Some(10.0));
    }

    #[test]
    fn events_exactly_on_bucket_edges_pop_in_order() {
        // Whole multiples of a power-of-two step, pushed in reverse.
        let width = 8.0;
        let mut q = EventQueue::new();
        for i in (0..40).rev() {
            q.schedule(i as f64 * width, Event::Spawn(i));
        }
        // Duplicate edge events tie-break by insertion order.
        q.schedule(3.0 * width, Event::Spawn(1000));
        let mut last = (f64::NEG_INFINITY, 0usize);
        while let Some((t, Event::Spawn(i))) = q.pop() {
            assert!(
                t > last.0 || (t == last.0 && i > last.1),
                "out of order: ({t}, {i}) after {last:?}"
            );
            last = (t, i);
        }
        assert!(q.is_empty());
    }

    #[test]
    fn far_future_overflow_interleaves_correctly() {
        let mut q = EventQueue::new();
        // A check a day out, a departure hours out, a repair 30 min
        // out, and a 300 s tick chain.
        q.schedule(1e5, Event::HibernateCheck(ServerId(3)));
        q.schedule(7200.0, Event::Departure(VmId(1)));
        q.schedule(1800.0, Event::FaultRepair(ServerId(2)));
        let mut now = 0.0;
        let mut popped = Vec::new();
        q.schedule(300.0, Event::MonitorTick(ServerId(0)));
        while let Some((t, e)) = q.pop() {
            assert!(t >= now, "time went backwards: {t} < {now}");
            now = t;
            q.advance_to(t);
            if matches!(e, Event::MonitorTick(_)) && t < 8000.0 {
                q.schedule_chain(t + 300.0, e);
            }
            popped.push((t, e));
        }
        // The overflow events fired at their times, in order, amid the
        // chain.
        let times: Vec<f64> = popped.iter().map(|(t, _)| *t).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
        assert!(popped
            .iter()
            .any(|(t, e)| *t == 1800.0 && matches!(e, Event::FaultRepair(_))));
        assert!(popped
            .iter()
            .any(|(t, e)| *t == 7200.0 && matches!(e, Event::Departure(_))));
        assert_eq!(
            popped.last(),
            Some(&(1e5, Event::HibernateCheck(ServerId(3))))
        );
    }

    #[test]
    fn growth_preserves_order() {
        // Push enough events to make the heap grow several times,
        // then verify global pop order.
        let mut q = EventQueue::with_capacity(0);
        let mut reference = ReferenceHeap::default();
        for i in 0..5000 {
            // Spread over 600 s with duplicates.
            let t = (i % 613) as f64 * 0.97;
            q.schedule(t, Event::Spawn(i));
            reference.schedule(t, Event::Spawn(i));
        }
        loop {
            let a = q.pop();
            let b = reference.pop();
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    /// Restores `q`'s snapshot into a fresh queue *and* a
    /// [`ReferenceHeap`] holding the same entries, checks canonical
    /// re-snapshot equality, then drains them in lockstep with the
    /// decoded queue — pop-for-pop identity is the contract checkpoint
    /// restore rests on.
    fn assert_snapshot_roundtrips(mut q: EventQueue) {
        let (entries, next_seq, now_floor) = q.snapshot_parts();
        assert_eq!(entries.len(), q.len());
        let mut cal = EventQueue::restore_parts(&entries, next_seq, now_floor);
        // Entries come sorted by `(time, seq)`, so scheduling them in
        // order renumbers them without reordering ties.
        let mut heap = ReferenceHeap::default();
        for &(t, _, event) in &entries {
            heap.schedule(t, event);
        }
        assert_eq!(cal.snapshot_parts(), (entries.clone(), next_seq, now_floor));

        // Byte codec round-trips to the same canonical parts too.
        let mut e = Enc::new();
        q.encode(&mut e, now_floor);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes, "queue");
        let mut decoded = EventQueue::new();
        decoded
            .decode_into(&mut d, &ANY_IDS, now_floor, 0)
            .expect("queue decodes");
        d.finish().expect("queue section fully consumed");
        assert_eq!(decoded.snapshot_parts(), (entries, next_seq, now_floor));

        loop {
            let expect = q.pop();
            assert_eq!(cal.pop(), expect, "restored queue diverged");
            assert_eq!(heap.pop(), expect, "restored heap diverged");
            assert_eq!(decoded.pop(), expect, "decoded queue diverged");
            if expect.is_none() {
                break;
            }
        }
        assert!(cal.is_empty() && decoded.is_empty());
    }

    #[test]
    fn snapshot_roundtrip_empty_queue() {
        let mut q = EventQueue::new();
        q.advance_to(123.0);
        assert_snapshot_roundtrips(q);
    }

    #[test]
    fn snapshot_roundtrip_overflow_heap_events() {
        // Departures and repairs hours out must survive capture and
        // still interleave correctly with near-term events.
        let mut q = EventQueue::new();
        q.schedule(25.0 * 3600.0, Event::Departure(VmId(7)));
        q.schedule(1800.0, Event::FaultRepair(ServerId(2)));
        q.schedule(90_000.0, Event::HibernateCheck(ServerId(1)));
        q.schedule(30.0, Event::MonitorTick(ServerId(0)));
        q.schedule(300.0, Event::DemandUpdate);
        assert_snapshot_roundtrips(q);
    }

    #[test]
    fn snapshot_roundtrip_multi_occupancy_buckets() {
        // Many simultaneous events at two times, with interleaved
        // seqs.
        let mut q = EventQueue::new();
        for i in 0..12 {
            q.schedule(2.5, Event::HibernateCheck(ServerId(i)));
            q.schedule(10.5, Event::HibernateCheck(ServerId(1000 + i)));
        }
        assert_snapshot_roundtrips(q);
    }

    #[test]
    fn snapshot_roundtrip_mid_run_cursor_state() {
        // Capture after pops and a late push: the restored queue has
        // never popped but must pop identically because order is a
        // pure function of (time, seq).
        let mut q = EventQueue::new();
        for i in 0..50 {
            q.schedule(i as f64 * 37.0, Event::Departure(VmId(i)));
        }
        q.schedule(5000.0, Event::Departure(VmId(1)));
        for _ in 0..20 {
            let (t, _) = q.pop().expect("has events");
            q.advance_to(t);
        }
        // A straggler just before the next pending departure at
        // 20 × 37 s.
        q.schedule(20.0 * 37.0 - 1.0, Event::MetricsSample);
        assert_snapshot_roundtrips(q);
    }

    /// The queue decoder refuses, as `Corrupt`, entries that would
    /// restore and then break the run. Each case edits a valid section:
    /// a next number whose key overflows or that is below the spawns',
    /// a duplicate or reordered entry, an entry before the clock or
    /// past the horizon, and a key that is a spawn's.
    #[test]
    fn decode_refuses_entries_that_break_the_run() {
        let mut q = EventQueue::new();
        for s in 0..4 {
            q.schedule(100.0 + s as f64, Event::MonitorTick(ServerId(s)));
        }
        let mut e = Enc::new();
        q.encode(&mut e, 0.0);
        let good = e.into_bytes();
        let decode = |bytes: &[u8], now: f64, spawns: u64| {
            let mut d = Dec::new(bytes, "queue");
            EventQueue::new().decode_into(&mut d, &ANY_IDS, now, spawns)?;
            d.finish()
        };
        assert_eq!(decode(&good, 100.0, 0), Ok(()));
        // next number (8 B), count (8 B), then 21 B per entry: time,
        // key, tag and server.
        let entry = |i: usize| 16 + 21 * i;
        let patched = |at: usize, bytes: &[u8]| {
            let mut b = good.clone();
            b[at..at + bytes.len()].copy_from_slice(bytes);
            b
        };
        let mut swapped = good.clone();
        swapped[entry(1)..entry(3)]
            .copy_from_slice(&[&good[entry(2)..entry(3)], &good[entry(1)..entry(2)]].concat());
        let cases = [
            ("key overflows", patched(0, &(1u64 << 63).to_le_bytes()), 0),
            ("next below the spawns", good.clone(), 5),
            ("key is a spawn's", good.clone(), 2),
            ("entries reordered", swapped, 0),
            (
                "duplicate entry",
                patched(entry(1), &good[entry(0)..entry(1)]),
                0,
            ),
            (
                "before the clock",
                patched(entry(0), &99.0f64.to_le_bytes()),
                0,
            ),
            ("NaN time", patched(entry(3), &f64::NAN.to_le_bytes()), 0),
            (
                "past the horizon",
                patched(entry(3), &4.2e80f64.to_le_bytes()),
                0,
            ),
            (
                "key not issued",
                patched(entry(3) + 8, &9u64.to_le_bytes()),
                0,
            ),
        ];
        for (what, bytes, spawns) in cases {
            assert!(
                matches!(
                    decode(&bytes, 100.0, spawns),
                    Err(CheckpointError::Corrupt(_))
                ),
                "{what}"
            );
        }
    }

    #[test]
    fn event_codec_covers_every_variant() {
        let all = [
            Event::DemandUpdate,
            Event::MonitorTick(ServerId(3)),
            Event::Departure(VmId(9)),
            Event::MigrationComplete(VmId(1), 2),
            Event::WakeComplete(ServerId(4), 5),
            Event::HibernateCheck(ServerId(6)),
            Event::MetricsSample,
            Event::FaultCrash,
            Event::FaultRepair(ServerId(8)),
            Event::ExchangeCollect(10, 1),
            Event::ExchangeCommitArrive(11, 2),
            Event::ExchangeCommitTimeout(12, 3),
            Event::ExchangeNackArrive(13, 4),
            Event::ExchangeRebroadcast(14, 5),
        ];
        let mut e = Enc::new();
        for ev in &all {
            ev.encode(&mut e);
        }
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes, "events");
        for ev in &all {
            assert_eq!(&Event::decode(&mut d, &ANY_IDS).expect("decodes"), ev);
        }
        d.finish().expect("all consumed");
        assert!(Event::decode(&mut Dec::new(&[200], "events"), &ANY_IDS).is_err());
    }

    #[test]
    fn prop_pops_are_globally_sorted() {
        let mut rng = StdRng::seed_from_u64(16);
        for _ in 0..256 {
            let times = (0..rng.gen_range(1..200))
                .map(|_| rng.gen_range(0.0f64..1e6))
                .collect::<Vec<_>>();
            let mut q = EventQueue::new();
            for (i, &t) in times.iter().enumerate() {
                q.schedule(t, Event::Spawn(i));
            }
            let mut last = f64::NEG_INFINITY;
            while let Some((t, _)) = q.pop() {
                assert!(t >= last);
                last = t;
            }
        }
    }

    /// The oracle proptest: random interleavings of schedules and
    /// pops (with engine-style clock advancement) produce pop
    /// sequences identical to the reference heap, including
    /// tie-breaks.
    #[test]
    fn prop_calendar_matches_heap_oracle() {
        let mut rng = StdRng::seed_from_u64(17);
        for _ in 0..256 {
            let times = (0..rng.gen_range(1..300))
                .map(|_| rng.gen_range(0.0f64..5000.0))
                .collect::<Vec<_>>();
            let pop_every = rng.gen_range(2usize..6);
            let hint = rng.gen_range(0usize..512);
            let mut cal = EventQueue::with_capacity(hint);
            let mut heap = ReferenceHeap::default();
            let mut now = 0.0f64;
            for (i, &dt) in times.iter().enumerate() {
                // Schedule relative to the advancing clock, as the
                // engine does; duplicates arise from dt == 0.
                let t = now + dt.floor();
                cal.schedule(t, Event::Spawn(i));
                heap.schedule(t, Event::Spawn(i));
                if i % pop_every == 0 {
                    let a = cal.pop();
                    let b = heap.pop();
                    assert_eq!(&a, &b);
                    if let Some((t, _)) = a {
                        now = now.max(t);
                        cal.advance_to(now);
                    }
                }
            }
            loop {
                let a = cal.pop();
                let b = heap.pop();
                assert_eq!(&a, &b);
                if a.is_none() {
                    break;
                }
            }
            assert!(cal.is_empty());
            assert_eq!(cal.len(), 0);
        }
    }

    /// Chain scheduling (the release fast path) matches the oracle
    /// too: every pop re-schedules itself one period later, the
    /// exact shape of MonitorTick / DemandUpdate chains.
    #[test]
    fn prop_chain_fast_path_matches_heap_oracle() {
        let mut rng = StdRng::seed_from_u64(18);
        for _ in 0..256 {
            let offsets = (0..rng.gen_range(1..50))
                .map(|_| rng.gen_range(0.0f64..300.0))
                .collect::<Vec<_>>();
            let rounds = rng.gen_range(2usize..20);
            let mut cal = EventQueue::with_capacity(offsets.len());
            let mut heap = ReferenceHeap::default();
            for (i, &off) in offsets.iter().enumerate() {
                cal.schedule(off, Event::MonitorTick(ServerId(i as u32)));
                heap.schedule(off, Event::MonitorTick(ServerId(i as u32)));
            }
            for _ in 0..rounds * offsets.len() {
                let a = cal.pop();
                let b = heap.pop();
                assert_eq!(&a, &b);
                let (t, e) = a.expect("chain never drains");
                cal.advance_to(t);
                cal.schedule_chain(t + 300.0, e);
                heap.schedule(t + 300.0, e);
            }
        }
    }

    /// `n` monitor chains with the engine's stagger: offsets evenly
    /// spread over one `period`.
    fn staggered_ticks(n: u32, period: f64) -> impl Iterator<Item = (f64, Event)> {
        (0..n).map(move |i| {
            let t = period * (i + 1) as f64 / n as f64;
            (t, Event::MonitorTick(ServerId(i)))
        })
    }

    /// The engine's traffic shape as a state machine over the popped
    /// event: 5 s tick chains that occasionally start a migration,
    /// 300 s and 1800 s sweeps, spawns that park a far-future
    /// departure. Returns the `(time, event, chain)` pushes to make,
    /// so several queues can be driven in lockstep.
    fn engine_step(rng: &mut StdRng, t: f64, e: Event) -> Vec<(f64, Event, bool)> {
        let mut out = Vec::new();
        match e {
            Event::MonitorTick(s) => {
                out.push((t + 5.0, e, true));
                if rng.gen_bool(0.02) {
                    let done = t + rng.gen_range(8.0f64..30.0);
                    out.push((done, Event::MigrationComplete(VmId(s.0), 0), false));
                }
            }
            Event::DemandUpdate => out.push((t + 300.0, e, true)),
            Event::MetricsSample => out.push((t + 1800.0, e, true)),
            Event::Spawn(i) => {
                let leave = t + rng.gen_range(7200.0f64..172_800.0);
                out.push((leave, Event::Departure(VmId(i as u32)), false));
            }
            _ => {}
        }
        out
    }

    fn apply(q: &mut EventQueue, t: f64, pushes: &[(f64, Event, bool)]) {
        q.advance_to(t);
        for &(at, e, chain) in pushes {
            if chain {
                q.schedule_chain(at, e);
            } else {
                q.schedule(at, e);
            }
        }
    }

    /// Pop-for-pop identity with the reference heap on engine-shaped
    /// traffic — a t = 0 spawn burst, a few hundred staggered 5 s
    /// chains, 300 s and 1800 s chains, far-future standing departures
    /// — plus a checkpoint round trip taken mid-run that must keep
    /// popping exactly like the straight queue.
    #[test]
    fn queue_matches_reference_heap_on_engine_traffic() {
        let mut q = EventQueue::with_capacity(4096);
        let mut heap = ReferenceHeap::default();
        let burst = (0..2000).map(|i| (0.0, Event::Spawn(i)));
        let sweeps = [(0.0, Event::MetricsSample), (300.0, Event::DemandUpdate)];
        for (t, e) in burst.chain(sweeps).chain(staggered_ticks(300, 5.0)) {
            q.schedule(t, e);
            heap.schedule(t, e);
        }
        let mut rng = StdRng::seed_from_u64(41);
        let mut restored: Option<EventQueue> = None;
        for n in 0..400_000 {
            let popped = q.pop();
            assert_eq!(popped, heap.pop());
            if let Some(r) = restored.as_mut() {
                assert_eq!(r.pop(), popped, "restored queue diverged");
            }
            let (t, e) = popped.expect("chains never drain");
            let pushes = engine_step(&mut rng, t, e);
            apply(&mut q, t, &pushes);
            for &(at, e, _) in &pushes {
                heap.schedule(at, e);
            }
            if let Some(r) = restored.as_mut() {
                apply(r, t, &pushes);
            }
            if n == 100_000 {
                let (entries, next_seq, now_floor) = q.snapshot_parts();
                restored = Some(EventQueue::restore_parts(&entries, next_seq, now_floor));
            }
        }
        assert!(restored.is_some());
    }

    /// [`engine_step`] with the engine's monitor parking: 1 % of the
    /// popped ticks park their chain instead of re-pushing it, and now
    /// and then a tick's handling wakes the parked servers, restarting
    /// their chains through `schedule` at the first `anchor + k·5 s`
    /// after now (the engine's `resume_monitor`). Those restarts land
    /// in the heap ahead of its top, mid-run of lane pops.
    fn lane_step(
        rng: &mut StdRng,
        parked: &mut Vec<(f64, Event)>,
        t: f64,
        e: Event,
    ) -> Vec<(f64, Event, bool)> {
        let mut out = engine_step(rng, t, e);
        let Event::MonitorTick(s) = e else {
            return out;
        };
        // Chain 299 (offset 5.0 s) never parks: it carries the tie
        // checks.
        if s.0 != 299 && rng.gen_bool(0.01) {
            out.retain(|&(_, pushed, _)| pushed != e);
            parked.push((t, e));
        } else if rng.gen_bool(0.002) {
            for (anchor, tick) in std::mem::take(parked) {
                let mut next = anchor + 5.0;
                while next <= t {
                    next += 5.0;
                }
                out.push((next, tick, false));
            }
        }
        out
    }

    /// [`apply`] with the engine's routing: chained monitor ticks go
    /// through the lane, other chains through `schedule_chain`.
    fn apply_lane(q: &mut EventQueue, t: f64, pushes: &[(f64, Event, bool)]) {
        q.advance_to(t);
        for &(at, e, chain) in pushes {
            match (chain, e) {
                (true, Event::MonitorTick(_)) => q.schedule_monitor(at, e),
                (true, _) => q.schedule_chain(at, e),
                (false, _) => q.schedule(at, e),
            }
        }
    }

    /// Pop-for-pop identity of the two-store queue with the reference
    /// heap on engine-shaped traffic, including the exact ties of a
    /// chain whose offset is 5.0 s: it lands on every 300 s sweep
    /// instant, and there the sweep, pushed 300 s earlier, pops before
    /// the tick, pushed 5 s earlier. A copy restored mid-run, with
    /// events in both stores, pops in lockstep.
    #[test]
    fn monitor_lane_matches_reference_heap() {
        let mut q = EventQueue::with_capacity(4096);
        let mut heap = ReferenceHeap::default();
        let burst = (0..2000).map(|i| (0.0, Event::Spawn(i)));
        let sweeps = [(0.0, Event::MetricsSample), (300.0, Event::DemandUpdate)];
        for (t, e) in burst.chain(sweeps).chain(staggered_ticks(300, 5.0)) {
            q.schedule(t, e);
            heap.schedule(t, e);
        }
        let mut rng = StdRng::seed_from_u64(44);
        let mut parked = Vec::new();
        let mut restored: Option<EventQueue> = None;
        let mut last_sweep = f64::NEG_INFINITY;
        let mut ties = 0;
        for n in 0..400_000 {
            let popped = q.pop();
            assert_eq!(popped, heap.pop(), "pop {n}");
            if let Some(r) = restored.as_mut() {
                assert_eq!(r.pop(), popped, "restored queue diverged at pop {n}");
            }
            let (t, e) = popped.expect("chains never drain");
            match e {
                Event::DemandUpdate => last_sweep = t,
                Event::MonitorTick(ServerId(299)) if t % 300.0 == 0.0 => {
                    assert_eq!(last_sweep, t, "tick at {t} popped before the sweep");
                    ties += 1;
                }
                _ => {}
            }
            let pushes = lane_step(&mut rng, &mut parked, t, e);
            apply_lane(&mut q, t, &pushes);
            for &(at, e, _) in &pushes {
                heap.schedule(at, e);
            }
            if let Some(r) = restored.as_mut() {
                apply_lane(r, t, &pushes);
            }
            if n == 150_000 {
                assert!(!q.lane.is_empty() && !q.heap.is_empty());
                let (entries, next_seq, now_floor) = q.snapshot_parts();
                restored = Some(EventQueue::restore_parts(&entries, next_seq, now_floor));
            }
        }
        // 400,000 pops at ~60 events/s reach t ≈ 6,600 s: 21 sweeps.
        assert!(ties >= 20, "only {ties} tick/sweep ties");
        #[cfg(debug_assertions)]
        q.assert_pop_order_law();
    }

    /// A parked chain settles exactly the ticks a live chain pops, and
    /// a re-armed tick pops where the live chain's tick does. Two queues
    /// get the same traffic: in one a monitor chain ticks every 5 s, in
    /// the other it is parked (the pop log on), re-armed, ticked and
    /// parked again at random. Every time is a whole second and the
    /// traffic pushes with delays of 0, 1, 5, 10 and 15 s, so events tie
    /// with ticks at every kind of push point: before the tick's
    /// predecessor popped, after it at the predecessor's time (the
    /// recursive case), and at the tick's own time after the tick.
    #[test]
    fn parked_chain_settles_and_rearms_like_a_live_chain() {
        let (interval, end) = (5.0, 3000.0);
        let tick = Event::MonitorTick(ServerId(0));
        let mut settled = 0;
        for seed in 0..40 {
            let mut rng = StdRng::seed_from_u64(seed);
            let (mut live, mut parked) = (EventQueue::new(), EventQueue::new());
            let mut next_id = 0u32;
            let mut push =
                |rng: &mut StdRng, live: &mut EventQueue, parked: &mut EventQueue, t: f64| {
                    let delay = [0.0, 1.0, 5.0, 5.0, 10.0, 15.0][rng.gen_range(0..6usize)];
                    let e = Event::HibernateCheck(ServerId(next_id));
                    next_id += 1;
                    live.schedule(t + delay, e);
                    parked.schedule(t + delay, e);
                };
            for _ in 0..6 {
                let t = rng.gen_range(0..20u32) as f64;
                push(&mut rng, &mut live, &mut parked, t);
            }
            // Parked after a tick at 0, as if that tick had popped now.
            live.schedule(interval, tick);
            let (mut anchor, mut watermark) = (0.0, parked.watermark());
            let mut is_parked = true;
            parked.log_pops(true);
            let mut live_ticks = 0u64;
            while let Some((t, e)) = parked.pop() {
                if t > end {
                    break;
                }
                parked.advance_to(t);
                if e == tick {
                    assert!(!is_parked);
                    assert_eq!(live.pop(), Some((t, e)), "seed {seed}: tick at {t}");
                    live.advance_to(t);
                    live.schedule_monitor(t + interval, tick);
                    if rng.gen_bool(0.5) {
                        (anchor, watermark, is_parked, live_ticks) =
                            (t, parked.watermark(), true, 0);
                    } else {
                        parked.schedule_monitor(t + interval, tick);
                    }
                    continue;
                }
                loop {
                    let (lt, le) = live.pop().expect("the live queue holds the same traffic");
                    live.advance_to(lt);
                    if le != tick {
                        assert_eq!((lt, le), (t, e), "seed {seed}");
                        break;
                    }
                    assert!(
                        is_parked,
                        "seed {seed}: live tick at {lt} before {e:?} at {t}"
                    );
                    live_ticks += 1;
                    live.schedule_monitor(lt + interval, tick);
                }
                if is_parked {
                    let s = parked.settle_parked(anchor, watermark, interval, end);
                    assert_eq!(s.ticks, live_ticks, "seed {seed}: at {e:?}, t = {t}");
                    let Some(w) = s.watermark else {
                        break; // the chain's next tick lies past the end
                    };
                    if rng.gen_bool(0.1) {
                        parked.schedule_rearmed(s.anchor + interval, w, ServerId(0));
                        is_parked = false;
                        settled += live_ticks;
                    } else if rng.gen_bool(0.2) {
                        // Settle for good and forget the log, as the
                        // engine does when the log fills up.
                        (anchor, watermark) = (s.anchor, w);
                        settled += s.ticks;
                        live_ticks -= s.ticks;
                        parked.forget_pops();
                    }
                }
                // One push per pop keeps the traffic going; now and
                // then one more or none.
                let n = 1 + u32::from(rng.gen_bool(0.05)) - u32::from(rng.gen_bool(0.05));
                for _ in 0..n {
                    push(&mut rng, &mut live, &mut parked, t);
                }
            }
        }
        assert!(settled > 2_000, "only {settled} ticks settled");
    }

    /// A monitor push before the lane's last entry cannot join the
    /// FIFO: it goes to the heap and still pops in `(time, seq)`
    /// order with everything else.
    #[test]
    fn monitor_push_before_lane_back_falls_back_to_calendar() {
        let mut q = EventQueue::new();
        let mut heap = ReferenceHeap::default();
        let pushes = [
            (10.0, Event::MonitorTick(ServerId(0))),
            (12.0, Event::MonitorTick(ServerId(1))),
            (11.0, Event::MonitorTick(ServerId(2))),
            (12.0, Event::MonitorTick(ServerId(3))),
            (9.0, Event::MonitorTick(ServerId(4))),
        ];
        for (t, e) in pushes {
            q.schedule_monitor(t, e);
            heap.schedule(t, e);
        }
        q.schedule(11.0, Event::DemandUpdate);
        heap.schedule(11.0, Event::DemandUpdate);
        assert_eq!(q.lane.len(), 3, "the 11 s and 9 s ticks belong in the heap");
        assert_eq!(q.heap.len(), 3);
        assert_eq!(q.len(), 6);
        loop {
            let expect = heap.pop();
            assert_eq!(q.pop(), expect);
            if expect.is_none() {
                break;
            }
        }
        assert!(q.is_empty());
    }
}
