//! The event queue: a monitor lane beside an event calendar.
//!
//! The calendar is a bucketed calendar queue over `(time, sequence)`
//! keys (Brown 1988) that sizes itself from the traffic it carries. It
//! keeps a log2 histogram of push horizons and, once per window of
//! pushes, sets the wheel's span to the p95 horizon (a power of two)
//! and its bucket count to the events pending inside that span.
//!
//! The 5 s MonitorTick chains are nearly every event of an ecoCloud
//! run, and their re-pushes arrive in time order (each is `now +
//! interval`, and `now` never decreases), so they bypass the calendar:
//! [`EventQueue::schedule_monitor`] appends them to a FIFO lane, and a
//! pop takes the lane's front or the calendar's minimum, whichever is
//! first by `(time, seq)`. The calendar keeps the rest — the stagger
//! and resumed ticks, sweeps, spawns, migration completions, wakes,
//! departures, repairs, exchanges. On the 5k-server 48 h run that is
//! 43 k of 9.18 M pushes, and the wheel settles on 64 buckets over a
//! 128 s span (512 s for part of the run), with everything later
//! waiting in an overflow heap until the window reaches it. The
//! monotone sequence number, shared by both stores, makes
//! simultaneous events fire in insertion order, which — together with
//! seeded RNGs — makes every run exactly reproducible.
//!
//! A chain whose tick finds its server quiet is not pushed at all: the
//! engine parks it, and re-arms it when the server leaves its quiet
//! band. `EventQueue::schedule_rearmed` files the re-armed tick with
//! an order key between two sequence numbers, where the unparked tick
//! would have popped, and while chains are parked the queue logs each
//! pop's number so `EventQueue::settle_parked` can place the silent
//! ticks it counts in closed form (`DESIGN.md` §14).
//!
//! Pop order is *identical* to the plain binary heap this replaced:
//! each calendar pop selects the `(time, seq)` minimum of the cursor
//! bucket (the same total order the heap used), bucket membership
//! partitions events by time, and every overflow event inside the
//! window moves into the wheel before a pop selects a bucket. The
//! geometry only decides where an event is stored, never which event
//! pops next, so retunes cannot change the order; nor can the lane,
//! whose front is its minimum. Debug-assertion builds enforce it
//! on every run with a pop-order law: each pop is strictly after the
//! last, and at the end nothing pending lies before the last pop. The
//! old heap survives outside the engine as [`ReferenceHeap`], the
//! oracle for the equivalence tests below. See `DESIGN.md` §14 for
//! the full determinism argument.

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

/// Bucket-count bounds (powers of two). Between retunes the wheel
/// doubles once its population exceeds [`GROW_LOAD_FACTOR`] events per
/// bucket — the fast reaction to a burst.
const MIN_BUCKETS: usize = 64;
const MAX_BUCKETS: usize = 1 << 21;
const GROW_LOAD_FACTOR: usize = 2;

/// The wheel's span is a measured power of two, `2^span_exp` seconds,
/// with `span_exp` in `MIN_SPAN_EXP..=MAX_SPAN_EXP` (≈16 ms to ≈194
/// days). The floor bounds the bucket width at `2^-27` s, so
/// `bucket_of` cannot saturate below ~4,000 simulated years.
const MIN_SPAN_EXP: i32 = -6;
const MAX_SPAN_EXP: i32 = 24;
/// A restored entry lies before `2^36` s, so its bucket index stays
/// below `2^63` at the finest geometry (`2^21` buckets over `2^-6` s)
/// and a window end never wraps.
const HORIZON_SECS: f64 = (1u64 << 36) as f64;
/// Span of a fresh or restored queue until its first retune.
const INITIAL_SPAN_EXP: i32 = 9;
/// Pushes per retune window. Retuning costs O(1) while the measured
/// span holds, and O(pending) when it moves.
const RETUNE_WINDOW: u32 = 1 << 13;
/// The span covers this percentile of push horizons. Not p99: on the
/// 5k-server 48 h run, while the 5 s chains still went through the
/// calendar, migration completions made up ~1 % of pushes at 8–16 s,
/// so p99 flipped the span between 8 s and 16 s on most windows; p95
/// settled on 8 s.
const SPAN_QUANTILE_PCT: u32 = 95;
/// Log2 histogram bins of push horizons: bin `k` counts horizons in
/// `[2^(k-1+MIN_SPAN_EXP), 2^(k+MIN_SPAN_EXP))` (bin 0 everything
/// shorter, the last bin everything longer).
const HORIZON_BINS: usize = (MAX_SPAN_EXP - MIN_SPAN_EXP + 1) as usize;

/// Inline event slots per wheel bucket: four 32-byte `Scheduled`
/// entries make a bucket's storage exactly two cache lines with no
/// header. Occupancy lives in the dense `lens` side array instead, so
/// a push never loads the (cold) bucket line it stores into, and the
/// retunes hold mean occupancy at or below one (grow-on-load caps it
/// at [`GROW_LOAD_FACTOR`] between them) so a pop's min-scan rarely
/// reads past the first line.
const SLOT_CAP: usize = 4;

/// Placeholder filling unused inline slots (never observed: `lens`
/// bounds every read).
const VACANT: Scheduled = Scheduled {
    t_secs: 0.0,
    seq: 0,
    event: Event::MetricsSample,
};

/// Best-effort prefetch of the cache line holding `*p` (no-op off
/// x86_64). Purely a latency hint with no architectural effect, so
/// determinism is untouched.
#[inline(always)]
fn prefetch<T>(p: *const T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: prefetch does not dereference; any address is allowed.
    unsafe {
        core::arch::x86_64::_mm_prefetch(p as *const i8, core::arch::x86_64::_MM_HINT_T0);
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = p;
}

/// True when `a` pops before `b` — exactly the reference heap's
/// priority, so in-bucket selection can never diverge from the oracle.
#[inline]
fn earlier(a: &Scheduled, b: &Scheduled) -> bool {
    a.cmp(b) == Ordering::Greater // `Ord` is reversed for the max-heap
}

/// The bucketed calendar.
#[derive(Debug)]
struct Calendar {
    /// Per-bucket occupancy, one byte per slot. Dense, so the hot
    /// paths read a cache-resident array instead of a scattered
    /// per-bucket header.
    lens: Vec<u8>,
    /// Ring of inline bucket storage: slot `i` holds `lens[i]` live
    /// events in `slots[i][..lens[i]]`, unordered. Bucket `b`
    /// (absolute index) lives at slot `b & mask` while
    /// `base <= b < base + n_buckets`. A push is a single store; a pop
    /// scans at most [`SLOT_CAP`] contiguous entries for the
    /// `(time, seq)` minimum.
    slots: Vec<[Scheduled; SLOT_CAP]>,
    /// Occupancy bitmap, one bit per slot (bit set ⇔ bucket holds
    /// events, inline or spilled). At 64 slots per u64 word the whole
    /// map stays cache-resident, so the cursor skips runs of empty
    /// buckets with word scans instead of touching each bucket.
    live: Vec<u64>,
    /// Second-level bitmap: bit set ⇔ `lens[slot] >= 2`. Mean
    /// occupancy is near one, so most pushes target an empty bucket
    /// and most pops drain a single-event bucket — with this map both
    /// cases skip the random `lens` load entirely (a push becomes two
    /// blind stores, a pop reads only the prefetched bucket line) and
    /// only multi-event buckets fall back to exact counts.
    multi: Vec<u64>,
    /// Wheel-resident events that did not fit their bucket's inline
    /// slots (rare once the geometry is measured: retunes hold mean
    /// occupancy at or below one, so what spills is mostly bursts of
    /// simultaneous events such as the t = 0 spawns). Globally
    /// `(time, seq)`-ordered. Two invariants make the merge at pop
    /// exact: bucket index is monotone in time, so the heap's top
    /// always belongs to the earliest un-drained spill bucket; and the
    /// cursor never passes an occupied bucket, so re-deriving the
    /// top's bucket index with `bucket_of` at pop time reproduces the
    /// index it was stored under (including for clamped stragglers,
    /// which are only ever stored at — and drained from — the cursor
    /// bucket itself).
    wheel_spill: BinaryHeap<Scheduled>,
    /// `n_buckets - 1`; bucket count is always a power of two.
    mask: usize,
    /// The wheel spans `2^span_exp` seconds (see [`Calendar::retune`]).
    span_exp: i32,
    /// Seconds per bucket (`2^span_exp / n_buckets`, a power of two,
    /// so every rebuild maps the cursor time exactly).
    width: f64,
    /// `1.0 / width`, so the hot `bucket_of` map is a multiply instead
    /// of a serial-latency divide. The map only has to be monotone in
    /// `t` and consistent across insert/migrate within one
    /// `(width, base)` regime — which any fixed factor is — so the
    /// reciprocal's rounding differences from true division are
    /// harmless to pop order.
    inv_width: f64,
    /// Absolute index of the cursor bucket (the bucket the next pop
    /// inspects first). Only ever advances.
    base: u64,
    /// Events currently stored in the wheel (inline or spilled).
    in_wheel: usize,
    /// Events filed at absolute bucket `>= base + n_buckets`, i.e.
    /// beyond the wheel's window; migrated in as the cursor advances.
    /// A retune that widens the window may leave events here that now
    /// fall inside it; the `migrate_due` at the start of the next pop
    /// moves them in before any bucket is selected.
    overflow: BinaryHeap<Scheduled>,
    /// Time of the queue's last pop, from either store (the engine
    /// clock): the origin push horizons are measured from. Set by
    /// [`EventQueue::pop`], not by the calendar's own pop, so a run of
    /// lane pops still moves it.
    now: f64,
    /// Whether the queue has popped anything yet.
    popped: bool,
    /// Log2 histogram of push horizons (`t - now`) in the current
    /// retune window.
    horizons: [u32; HORIZON_BINS],
    /// Pushes left in the current retune window.
    until_retune: u32,
}

/// `2^exp` as an `f64` (exact for every exponent in use).
fn pow2(exp: i32) -> f64 {
    f64::from_bits(((1023 + exp) as u64) << 52)
}

impl Calendar {
    fn new(overflow_capacity: usize) -> Self {
        let mut c = Calendar {
            lens: Vec::new(),
            slots: Vec::new(),
            live: Vec::new(),
            multi: Vec::new(),
            wheel_spill: BinaryHeap::new(),
            mask: 0,
            span_exp: INITIAL_SPAN_EXP,
            width: 0.0,
            inv_width: 0.0,
            base: 0,
            in_wheel: 0,
            overflow: BinaryHeap::with_capacity(overflow_capacity),
            now: 0.0,
            popped: false,
            horizons: [0; HORIZON_BINS],
            until_retune: RETUNE_WINDOW,
        };
        c.rebuild(MIN_BUCKETS, INITIAL_SPAN_EXP);
        c
    }

    #[inline]
    fn n_buckets(&self) -> usize {
        self.mask + 1
    }

    /// Inserts into the wheel bucket at absolute index `b` (must be
    /// inside the window) and marks its slot live.
    #[inline]
    fn wheel_push(&mut self, b: u64, s: Scheduled) {
        let slot = b as usize & self.mask;
        let (w, bit) = (slot / 64, 1u64 << (slot % 64));
        if self.live[w] & bit == 0 {
            // Empty bucket (the common case at occupancy ≈ 1): no
            // load of the cold bucket needed, just two stores.
            self.slots[slot][0] = s;
            self.lens[slot] = 1;
            self.live[w] |= bit;
        } else {
            let n = self.lens[slot] as usize;
            if n < SLOT_CAP {
                self.slots[slot][n] = s;
                self.lens[slot] = (n + 1) as u8;
                if n + 1 >= 2 {
                    self.multi[w] |= bit;
                }
            } else {
                self.wheel_spill.push(s);
            }
        }
        self.in_wheel += 1;
    }

    /// Slot of the first non-empty bucket at ring distance `>= 0` from
    /// `from`. Caller guarantees the wheel holds at least one event.
    #[inline]
    fn next_occupied_slot(&self, from: usize) -> usize {
        let words = self.live.len();
        let mut w = from / 64;
        let mut bits = self.live[w] & (!0u64 << (from % 64));
        while bits == 0 {
            w = (w + 1) % words;
            bits = self.live[w];
        }
        w * 64 + bits.trailing_zeros() as usize
    }

    /// Absolute bucket index of `t`, clamped so it never lands behind
    /// the cursor. The clamp preserves global pop order: the cursor
    /// bucket is popped in `(t, seq)` order, and every earlier bucket
    /// has already been drained, so an early-`t` straggler placed at
    /// the cursor still pops before everything scheduled after it.
    #[inline]
    fn bucket_of(&self, t_secs: f64) -> u64 {
        ((t_secs * self.inv_width) as u64).max(self.base)
    }

    #[inline]
    fn insert(&mut self, s: Scheduled) {
        let b = self.bucket_of(s.t_secs);
        if b >= self.base + self.n_buckets() as u64 {
            self.overflow.push(s);
        } else {
            self.wheel_push(b, s);
        }
    }

    /// A scheduling push: records the event's horizon, inserts it, and
    /// retunes the geometry at the end of each window. Pushes before
    /// the first pop load the queue rather than run it (an open-system
    /// run schedules every arrival up front), so they have no horizon
    /// and only grow-on-load sizes the wheel for them.
    #[inline]
    fn push(&mut self, s: Scheduled) {
        self.insert(s);
        if !self.popped {
            return;
        }
        // The biased exponent of `h` picks the log2 bin; `max` folds
        // zero and (release-build) negative horizons into bin 0.
        let h = (s.t_secs - self.now).max(0.0);
        let bin =
            ((h.to_bits() >> 52) as i32 - (1022 + MIN_SPAN_EXP)).clamp(0, HORIZON_BINS as i32 - 1);
        self.horizons[bin as usize] += 1;
        self.until_retune -= 1;
        if self.until_retune == 0 {
            self.retune();
        }
    }

    /// Re-derives the geometry from the window's traffic: the span is
    /// the [`SPAN_QUANTILE_PCT`] push horizon rounded up to a power of
    /// two, so the chains that carry the traffic re-enter the wheel
    /// directly, and the bucket count is the next power of two of the
    /// events pending inside that span, so mean occupancy over the
    /// span stays at or below one and the ring shrinks again after a
    /// burst drains. Geometry never enters the `(t, seq)` order, so a
    /// retune cannot change what pops next.
    #[cold]
    #[inline(never)]
    fn retune(&mut self) {
        let target = RETUNE_WINDOW * SPAN_QUANTILE_PCT / 100;
        let mut seen = 0;
        let mut bin = HORIZON_BINS - 1;
        for (k, &count) in self.horizons.iter().enumerate() {
            seen += count;
            if seen >= target {
                bin = k;
                break;
            }
        }
        self.horizons = [0; HORIZON_BINS];
        self.until_retune = RETUNE_WINDOW;
        let span_exp = bin as i32 + MIN_SPAN_EXP;
        let resident = if span_exp == self.span_exp {
            // The wheel is exactly the pending set inside the span.
            self.in_wheel
        } else {
            let end = self.base as f64 * self.width + pow2(span_exp);
            self.entries().filter(|s| s.t_secs < end).count()
        };
        let n = resident.next_power_of_two().clamp(MIN_BUCKETS, MAX_BUCKETS);
        if (n, span_exp) != (self.n_buckets(), self.span_exp) {
            self.rebuild(n, span_exp);
        }
    }

    /// Moves every overflow event whose bucket has entered the window
    /// into its wheel bucket.
    #[inline]
    fn migrate_due(&mut self) {
        let window_end = self.base + self.n_buckets() as u64;
        while let Some(top) = self.overflow.peek() {
            if self.bucket_of(top.t_secs) >= window_end {
                break;
            }
            let s = self.overflow.pop().expect("peeked");
            let b = self.bucket_of(s.t_secs);
            self.wheel_push(b, s);
        }
    }

    /// Removes the `(time, seq)` minimum of the cursor bucket
    /// (absolute index `self.base`, ring slot `slot`), merging the
    /// inline slots with the spill heap's top (see the `wheel_spill`
    /// invariants for why top-only is exact).
    fn take_min_at(&mut self, slot: usize) -> Scheduled {
        let (w, bit) = (slot / 64, 1u64 << (slot % 64));
        if self.multi[w] & bit == 0 && self.wheel_spill.is_empty() {
            // Single-event bucket with no spill anywhere (the common
            // case): skip the lens load — the bucket line itself was
            // prefetched by the previous pop.
            debug_assert_eq!(self.lens[slot], 1);
            self.lens[slot] = 0;
            self.live[w] &= !bit;
            return self.slots[slot][0];
        }
        let n = self.lens[slot] as usize;
        let mut best = usize::MAX;
        for i in 0..n {
            if best == usize::MAX || earlier(&self.slots[slot][i], &self.slots[slot][best]) {
                best = i;
            }
        }
        if let Some(top) = self.wheel_spill.peek() {
            if self.bucket_of(top.t_secs) == self.base
                && (best == usize::MAX || earlier(top, &self.slots[slot][best]))
            {
                return self.wheel_spill.pop().expect("peeked");
            }
        }
        debug_assert!(best != usize::MAX, "live bit set on empty bucket");
        let out = self.slots[slot][best];
        let last = n - 1;
        self.slots[slot][best] = self.slots[slot][last];
        self.lens[slot] = last as u8;
        if last < 2 {
            self.multi[w] &= !bit;
        }
        out
    }

    /// Moves the cursor to the first occupied bucket, migrating the
    /// overflow events its window reaches, and returns that bucket's
    /// ring slot; `None` when nothing is stored. This is the cursor
    /// motion of a pop, shared by [`peek`](Self::peek) so a peek
    /// followed by a pop moves the cursor exactly as the pop alone.
    /// Always inlined: out of line, the call slowed the calendar's pops
    /// (`event_loop_snapshot --queue 5000 hold`: 11–14 M/s against
    /// 15 M/s with the cursor jump inlined).
    #[inline(always)]
    fn seek(&mut self) -> Option<usize> {
        if self.in_wheel == 0 {
            // Everything pending is beyond the window: jump the cursor
            // straight to the earliest overflow bucket.
            let t = self.overflow.peek()?.t_secs;
            self.base = self.bucket_of(t);
        }
        self.migrate_due();
        // Jump the cursor to the first occupied bucket. Everything in
        // the wheel sits inside the window `[base, base + n)`, so ring
        // distance from the cursor slot is absolute order, and
        // anything `migrate_due` later moves in is at or beyond the
        // *old* window end — strictly later than this bucket. The jump
        // therefore finds the same bucket a one-slot-at-a-time advance
        // would.
        let from = self.base as usize & self.mask;
        let slot = self.next_occupied_slot(from);
        self.base += (slot.wrapping_sub(from) & self.mask) as u64;
        Some(slot)
    }

    /// The `(time, seq)` minimum, left in place. Moves the cursor as a
    /// pop would (see [`seek`](Self::seek)), so events pushed after a
    /// peek that fall before its bucket are clamped into it, as
    /// stragglers always are.
    fn peek(&mut self) -> Option<Scheduled> {
        let slot = self.seek()?;
        let inline = self.slots[slot][..self.lens[slot] as usize].iter();
        let spill = self
            .wheel_spill
            .peek()
            .filter(|top| self.bucket_of(top.t_secs) == self.base);
        inline
            .chain(spill)
            .copied()
            .reduce(|best, s| if earlier(&s, &best) { s } else { best })
    }

    fn pop(&mut self) -> Option<Scheduled> {
        let slot = self.seek()?;
        let s = self.take_min_at(slot);
        self.in_wheel -= 1;
        if self.live[slot / 64] & (1u64 << (slot % 64)) != 0
            && self.lens[slot] == 0
            && self
                .wheel_spill
                .peek()
                .is_none_or(|t| self.bucket_of(t.t_secs) != self.base)
        {
            self.live[slot / 64] &= !(1u64 << (slot % 64));
        }
        if self.in_wheel > 0 {
            // Start pulling the next pop's bucket line in now; the
            // caller's event handling overlaps the miss. The hint is
            // only a guess (a later schedule may land earlier), so it
            // can waste a line but never change behavior.
            let next = self.next_occupied_slot(self.base as usize & self.mask);
            prefetch(&self.lens[next]);
            prefetch(&self.slots[next]);
        }
        Some(s)
    }

    /// Every stored event (inline, spilled or overflow), unordered.
    fn entries(&self) -> impl Iterator<Item = &Scheduled> {
        let inline = self.lens.iter().zip(&self.slots);
        let inline = inline.flat_map(|(&n, slot)| &slot[..n as usize]);
        inline
            .chain(self.wheel_spill.iter())
            .chain(self.overflow.iter())
    }

    /// Grow-on-load: doubles the bucket count under the same span once
    /// the wheel holds more than [`GROW_LOAD_FACTOR`] events per
    /// bucket. The trigger is the *wheel-resident* count, not the
    /// total: overflow events (the far-future departure bulk) never
    /// touch a bucket, and sizing the ring for them would leave it
    /// sparse — every pop would scan long runs of empty buckets.
    fn grow_if_loaded(&mut self) {
        if self.in_wheel > GROW_LOAD_FACTOR * self.n_buckets() && self.n_buckets() < MAX_BUCKETS {
            self.rebuild(self.n_buckets() * 2, self.span_exp);
        }
    }

    /// Re-lays the wheel out as `n_new` buckets over `2^span_exp`
    /// seconds from the current cursor time. Wheel events beyond the
    /// new window move to the overflow heap; overflow events inside a
    /// widened window stay put until the next pop's `migrate_due`.
    /// Deterministic: membership depends only on `(t, width, base)`,
    /// which are identical across replays.
    fn rebuild(&mut self, n_new: usize, span_exp: i32) {
        debug_assert!(n_new.is_power_of_two() && (MIN_BUCKETS..=MAX_BUCKETS).contains(&n_new));
        let cursor_time = self.base as f64 * self.width;
        let mut pending: Vec<Scheduled> = Vec::with_capacity(self.in_wheel);
        for (slot, &n) in self.lens.iter().enumerate() {
            pending.extend_from_slice(&self.slots[slot][..n as usize]);
        }
        pending.extend(std::mem::take(&mut self.wheel_spill).into_vec());
        if n_new == self.n_buckets() {
            self.lens.fill(0);
            self.live.fill(0);
            self.multi.fill(0);
        } else {
            self.lens = vec![0u8; n_new];
            self.slots = vec![[VACANT; SLOT_CAP]; n_new];
            self.live = vec![0u64; n_new.div_ceil(64)];
            self.multi = vec![0u64; n_new.div_ceil(64)];
        }
        self.mask = n_new - 1;
        self.span_exp = span_exp;
        self.width = pow2(span_exp) / n_new as f64;
        self.inv_width = n_new as f64 / pow2(span_exp);
        self.base = (cursor_time * self.inv_width) as u64;
        self.in_wheel = 0;
        for s in pending {
            self.insert(s);
        }
    }
}

/// Deterministic event queue: the calendar, the monitor lane, and the
/// sequence numbers, clock floor and pending count the engine needs
/// around them.
#[derive(Debug)]
pub struct EventQueue {
    cal: Calendar,
    /// The monitor lane: [`schedule_monitor`](Self::schedule_monitor)
    /// pushes in nondecreasing time order, so a FIFO holds them in
    /// `(time, seq)` order and its front is its minimum. A push that
    /// would break the order goes to the calendar instead.
    lane: VecDeque<Scheduled>,
    /// The calendar's `(time, seq)` minimum while it is known, so a run
    /// of lane pops compares against it without touching the calendar.
    /// A calendar push lowers it, a calendar pop forgets it; `None`
    /// means "not known", and the next pop that needs it peeks.
    cal_min: Option<Scheduled>,
    len: usize,
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
    /// Creates an empty calendar queue.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an empty calendar queue pre-sized for roughly `hint`
    /// concurrently pending events (e.g. servers + live VMs).
    ///
    /// The hint sizes the *overflow* heap: in a long simulation the
    /// bulk of the pending population is far-future departures and
    /// repairs that sit beyond the wheel's window. The wheel itself
    /// starts at `MIN_BUCKETS` over `2^INITIAL_SPAN_EXP` seconds,
    /// doubles while a burst outgrows it, and from the first retune
    /// on takes its span and bucket count from the measured traffic,
    /// in both directions. A retune window counts calendar pushes only,
    /// and the monitor chains push to the lane, so the first retune can
    /// come late: the 8,192-bucket ring the 5k-server t = 0 burst grows
    /// lasts until t = 48,907 s on the 48 h run (seed 1).
    pub fn with_capacity(hint: usize) -> Self {
        EventQueue {
            cal: Calendar::new(hint),
            lane: VecDeque::new(),
            cal_min: None,
            len: 0,
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
        self.len += 1;
        Scheduled { t_secs, seq, event }
    }

    #[inline]
    fn push(&mut self, t_secs: f64, event: Event) {
        let s = self.stamp(t_secs, event);
        self.push_calendar(s);
    }

    /// Files `s` in the calendar, lowering the cached calendar minimum
    /// if `s` now heads it.
    #[inline]
    fn push_calendar(&mut self, s: Scheduled) {
        if self.cal_min.is_some_and(|m| earlier(&s, &m)) {
            self.cal_min = Some(s);
        }
        self.cal.push(s);
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
        debug_assert!(
            t_secs >= self.now_floor,
            "cannot schedule {event:?} at {t_secs}, before current simulation time {}",
            self.now_floor
        );
        self.push(t_secs, event);
        // Grow outside the per-bucket fast path: chains re-add what
        // they popped and never trip this, so only net growth (spawn
        // bursts, exchange fan-out) pays the check.
        self.cal.grow_if_loaded();
    }

    /// Fast-path `schedule` for the per-tick self-rescheduling chains
    /// (MonitorTick, DemandUpdate): the caller guarantees `t_secs` is
    /// finite and not in the past — both hold trivially for
    /// `now + fixed_period` — so release builds skip the finiteness
    /// assert and the wheel-growth check (a chain re-adds the event it
    /// just popped, so the population cannot have grown). Debug builds
    /// still verify everything `schedule` does.
    #[inline]
    pub fn schedule_chain(&mut self, t_secs: f64, event: Event) {
        debug_assert!(t_secs.is_finite(), "cannot schedule event at {t_secs}");
        debug_assert!(
            t_secs >= self.now_floor && t_secs >= 0.0,
            "cannot schedule {event:?} at {t_secs}, before current simulation time {}",
            self.now_floor
        );
        self.push(t_secs, event);
    }

    /// [`schedule_chain`](Self::schedule_chain) for the monitor chains:
    /// files `event` in the monitor lane when `t_secs` is not before
    /// the lane's last entry, and in the calendar otherwise. Every
    /// re-push of a monitor chain is at `now + monitor_interval`, and
    /// `now` never decreases, so these pushes arrive sorted and the
    /// calendar fallback only keeps the lane a FIFO whatever the
    /// caller does. Same caller guarantees as `schedule_chain`.
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
            self.push_calendar(s);
        }
    }

    /// Files `server`'s re-armed monitor tick at `t_secs` with the
    /// order key `2 * watermark`: it pops after every event numbered
    /// below `watermark` and before every event numbered `watermark` or
    /// later. Draws no number, because the unparked tick it stands for
    /// was numbered when its chain's previous tick popped. Goes to the
    /// calendar, since its key may order before the lane's back.
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
        self.len += 1;
        self.push_calendar(s);
        self.cal.grow_if_loaded();
    }

    /// Removes and returns the earliest event as `(time, event)`: the
    /// lane's front or the calendar's minimum, whichever is first by
    /// `(time, seq)`.
    ///
    /// # Panics
    /// Debug builds enforce the pop half of the pop-order law: each
    /// pop's `(time, seq)` is strictly after the previous pop's.
    pub fn pop(&mut self) -> Option<(f64, Event)> {
        let from_lane = match self.lane.front() {
            None => false,
            Some(&front) => {
                if self.cal_min.is_none() {
                    self.cal_min = self.cal.peek();
                }
                self.cal_min.is_none_or(|m| earlier(&front, &m))
            }
        };
        let s = if from_lane {
            self.lane.pop_front()
        } else {
            let cached = self.cal_min.take();
            let s = self.cal.pop();
            debug_assert!(
                cached.is_none_or(|m| s.is_some_and(|s| s.seq == m.seq)),
                "calendar popped {s:?}, not its cached minimum {cached:?}"
            );
            s
        }?;
        self.cal.now = s.t_secs;
        self.cal.popped = true;
        self.len -= 1;
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
    /// before the last pop, and the calendar stores exactly
    /// [`len`](Self::len) events. With the pop half, this makes every
    /// pop of the run the minimum of the pending set (the argument is
    /// in `DESIGN.md` §14).
    ///
    /// # Panics
    /// When either condition fails.
    #[cfg(debug_assertions)]
    pub(crate) fn assert_pop_order_law(&self) {
        for s in self.entries() {
            self.assert_after_last_pop(s);
        }
        let stored = self.entries().count();
        assert_eq!(stored, self.len, "pop-order law broken: stored count");
    }

    /// Every pending event in either store, unordered.
    fn entries(&self) -> impl Iterator<Item = &Scheduled> {
        self.cal.entries().chain(self.lane.iter())
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The pending events that `keep` selects, sorted by `(time, seq)`
    /// — the canonical form: two queues with the same pending set
    /// produce the same bytes regardless of which store holds an event
    /// and of how their wheels, spill heaps, or cursors currently lay
    /// the events out, which is what makes re-snapshot byte-equality
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
    /// order depends only on the `(time, seq)` total order — proven
    /// pop-for-pop identical to [`ReferenceHeap`] — so the rebuilt
    /// wheel's cursor starting at zero instead of the original's
    /// advanced position, its default geometry until the first retune,
    /// and every entry landing in the calendar (the lane refills as the
    /// restored chains tick) are invisible.
    pub(crate) fn restore_entry(&mut self, t_secs: f64, seq: u64, event: Event) {
        debug_assert!(
            seq <= 2 * self.next_seq,
            "entry key {seq} was not issued before next_seq {}",
            self.next_seq
        );
        self.cal.insert(Scheduled { t_secs, seq, event });
        self.cal.grow_if_loaded();
        self.len += 1;
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
    /// into the calendar, past `schedule`'s checks — the shape of a
    /// queue bug that stores an event behind the cursor.
    #[cfg(all(test, debug_assertions))]
    pub(crate) fn insert_unchecked(&mut self, t_secs: f64, event: Event) {
        let seq = 2 * self.next_seq + 1;
        self.next_seq += 1;
        self.len += 1;
        self.cal.insert(Scheduled { t_secs, seq, event });
    }
}

/// The plain binary heap the calendar replaced, kept outside the
/// engine as the oracle of the equivalence tests and the baseline of
/// `event_loop_snapshot`. It numbers events and orders them exactly as
/// [`EventQueue`] does, so the same schedule calls give the same pops.
#[derive(Debug, Default)]
pub struct ReferenceHeap {
    heap: BinaryHeap<Scheduled>,
    next_seq: u64,
}

impl ReferenceHeap {
    /// Schedules `event` at absolute time `t_secs`. Unchecked: an
    /// oracle is fed what the calendar under test accepted.
    pub fn schedule(&mut self, t_secs: f64, event: Event) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Scheduled { t_secs, seq, event });
    }

    /// Removes and returns the earliest event as `(time, event)`.
    pub fn pop(&mut self) -> Option<(f64, Event)> {
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

    /// The calendar stays in cache because its entries stay small:
    /// growing `Event` (or `Scheduled`) silently doubles the wheel's
    /// footprint, so budge these only deliberately.
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
        // A fresh queue's bucket width divides its span exactly, so
        // integer multiples of it land exactly on bucket boundaries.
        let width = pow2(INITIAL_SPAN_EXP) / MIN_BUCKETS as f64;
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
        // A check far beyond any wheel span, a departure hours out
        // (overflow), a repair 30 min out (overflow), and a tick chain
        // inside the wheel.
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
        // Push enough simultaneous-window events to force repeated
        // doubling, then verify global pop order.
        let mut q = EventQueue::with_capacity(0);
        let mut reference = ReferenceHeap::default();
        for i in 0..5000 {
            // Spread across the wheel span with duplicates.
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

    /// Restores `q`'s snapshot into a fresh calendar *and* a
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
            assert_eq!(cal.pop(), expect, "restored calendar diverged");
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
        // Departures and repairs hours past the 600 s wheel span live
        // in the overflow heap; they must survive capture and still
        // interleave correctly with wheel-resident events.
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
        // Many simultaneous events in the same bucket (beyond
        // SLOT_CAP, forcing the spill heap) with interleaved seqs.
        let mut q = EventQueue::new();
        for i in 0..3 * SLOT_CAP as u32 {
            q.schedule(2.5, Event::HibernateCheck(ServerId(i)));
            q.schedule(
                2.5 + pow2(INITIAL_SPAN_EXP) / MIN_BUCKETS as f64,
                Event::HibernateCheck(ServerId(1000 + i)),
            );
        }
        assert_snapshot_roundtrips(q);
    }

    #[test]
    fn snapshot_roundtrip_mid_run_cursor_state() {
        // Capture after pops have advanced the cursor and stragglers
        // were clamped: the restored wheel starts from base 0 but must
        // pop identically because order is a pure function of
        // (time, seq).
        let mut q = EventQueue::new();
        for i in 0..50 {
            q.schedule(i as f64 * 37.0, Event::Departure(VmId(i)));
        }
        q.schedule(5000.0, Event::Departure(VmId(1)));
        for _ in 0..20 {
            let (t, _) = q.pop().expect("has events");
            q.advance_to(t);
        }
        // A straggler at the (clamped) cursor bucket, just before the
        // next pending spawn at 20 × 37 s.
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

    /// `(n_buckets, span_exp)` of the queue's calendar.
    fn geometry(q: &EventQueue) -> (usize, i32) {
        (q.cal.n_buckets(), q.cal.span_exp)
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
    /// — across many retunes, plus a checkpoint round trip taken after
    /// a retune that must keep popping exactly like the straight queue.
    #[test]
    fn calendar_matches_reference_heap_across_retunes() {
        let mut cal = EventQueue::with_capacity(4096);
        let mut heap = ReferenceHeap::default();
        let burst = (0..2000).map(|i| (0.0, Event::Spawn(i)));
        let sweeps = [(0.0, Event::MetricsSample), (300.0, Event::DemandUpdate)];
        for (t, e) in burst.chain(sweeps).chain(staggered_ticks(300, 5.0)) {
            cal.schedule(t, e);
            heap.schedule(t, e);
        }
        let mut rng = StdRng::seed_from_u64(41);
        let mut restored: Option<EventQueue> = None;
        let mut geometries = vec![geometry(&cal)];
        for _ in 0..400_000 {
            let popped = cal.pop();
            assert_eq!(popped, heap.pop());
            if let Some(r) = restored.as_mut() {
                assert_eq!(r.pop(), popped, "restored queue diverged");
            }
            let (t, e) = popped.expect("chains never drain");
            let pushes = engine_step(&mut rng, t, e);
            apply(&mut cal, t, &pushes);
            for &(at, e, _) in &pushes {
                heap.schedule(at, e);
            }
            if let Some(r) = restored.as_mut() {
                apply(r, t, &pushes);
            }
            if geometries.last() != Some(&geometry(&cal)) {
                geometries.push(geometry(&cal));
                if geometries.len() == 3 && restored.is_none() {
                    let (entries, next_seq, now_floor) = cal.snapshot_parts();
                    restored = Some(EventQueue::restore_parts(&entries, next_seq, now_floor));
                }
            }
        }
        assert!(restored.is_some());
        assert!(
            geometries.len() >= 4,
            "expected several retunes, saw {geometries:?}"
        );
        // The ring shrank after the burst drained and settled on a
        // span that holds the 5 s chains.
        let (n, span_exp) = geometry(&cal);
        assert!(n < geometries.iter().map(|g| g.0).max().unwrap_or(0));
        assert!(
            pow2(span_exp) >= 5.0 && pow2(span_exp) < 64.0,
            "span 2^{span_exp}"
        );
    }

    /// A steady 5 s chain lands in its own buckets once the calendar
    /// has measured it: after the first retune the spill heap stays
    /// empty. (A fixed 600 s span put a few hundred such ticks into a
    /// handful of buckets and spilled most of them.)
    #[test]
    fn steady_chain_never_spills_after_first_retune() {
        let mut q = EventQueue::new();
        for (t, e) in staggered_ticks(300, 5.0) {
            q.schedule(t, e);
        }
        for _ in 0..RETUNE_WINDOW {
            let (t, e) = q.pop().expect("chain");
            q.advance_to(t);
            q.schedule_chain(t + 5.0, e);
        }
        for _ in 0..100_000 {
            let (t, e) = q.pop().expect("chain");
            q.advance_to(t);
            q.schedule_chain(t + 5.0, e);
            assert!(q.cal.wheel_spill.is_empty(), "spill at t = {t}");
        }
        assert_eq!(pow2(q.cal.span_exp), 8.0);
    }

    /// [`engine_step`] with the engine's monitor parking: 1 % of the
    /// popped ticks park their chain instead of re-pushing it, and now
    /// and then a tick's handling wakes the parked servers, restarting
    /// their chains through `schedule` at the first `anchor + k·5 s`
    /// after now (the engine's `resume_monitor`). Those restarts land
    /// in the calendar ahead of its cached minimum, mid-run of lane
    /// pops.
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
                assert!(!q.lane.is_empty() && q.cal.in_wheel + q.cal.overflow.len() > 0);
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
    /// FIFO: it goes to the calendar and still pops in `(time, seq)`
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
        assert_eq!(
            q.lane.len(),
            3,
            "the 11 s and 9 s ticks belong in the calendar"
        );
        assert_eq!(q.cal.entries().count(), 3);
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

    /// Uniform 1–600 s hold traffic (the `event_loop_snapshot` hold
    /// mix): after a retune at least 99 % of pending events sit in the
    /// wheel, not in the overflow heap.
    #[test]
    fn hold_traffic_stays_wheel_resident_after_retune() {
        let mut rng = StdRng::seed_from_u64(43);
        let mut q = EventQueue::new();
        for i in 0..3000 {
            q.schedule(
                rng.gen_range(1.0f64..600.0),
                Event::MonitorTick(ServerId(i)),
            );
        }
        let initial = geometry(&q);
        for i in 0..60_000 {
            let (t, e) = q.pop().expect("hold");
            q.advance_to(t);
            q.schedule_chain(t + rng.gen_range(1.0f64..600.0), e);
            if i >= RETUNE_WINDOW && i % 1000 == 0 {
                assert!(
                    q.cal.in_wheel * 100 >= 99 * q.len(),
                    "{} of {} pending in the wheel",
                    q.cal.in_wheel,
                    q.len()
                );
            }
        }
        assert_ne!(geometry(&q), initial, "never retuned");
    }
}
