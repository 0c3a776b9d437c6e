//! The simulator's seeded random stream.
//!
//! Every stochastic choice in the workspace (the Bernoulli trials of
//! the assignment and migration procedures, trace synthesis, churn
//! arrivals, fault injection, control-plane loss) draws from a
//! [`StdRng`]. The stream is part of the specification: the fixed-seed
//! CLI goldens, the event-count checks and every committed table are
//! functions of it, and `tests/known_answers.rs` pins it value by
//! value.
//!
//! The generator is SplitMix64. Sampling rules:
//!
//! * integer ranges reduce one 64-bit draw modulo the span (with the
//!   small modulo bias that implies);
//! * float ranges compute `start + unit · span`, where `unit` is the
//!   low 53 bits of one draw scaled into `[0, 1)`;
//! * [`Rng::gen_bool`] compares the same 53-bit `unit` against `p`.
//!
//! ```
//! use ecocloud_rng::{Rng, SeedableRng, StdRng};
//!
//! let mut a = StdRng::seed_from_u64(42);
//! let mut b = StdRng::from_state(a.state());
//! assert_eq!(a.gen_range(0..7usize), b.gen_range(0..7usize));
//! ```

use std::ops::{Range, RangeInclusive};

/// Construction from a 64-bit seed.
pub trait SeedableRng: Sized {
    /// Derives a generator from `seed`.
    fn seed_from_u64(seed: u64) -> Self;
}

/// A source of 64-bit draws plus the sampling rules built on it.
pub trait Rng {
    /// Next 64 random bits.
    fn next_u64(&mut self) -> u64;

    /// Uniform sample from `range` (half-open or inclusive). Panics on
    /// an empty range.
    #[inline]
    fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T {
        range.sample_from(self)
    }

    /// Bernoulli trial with success probability `p`. Panics unless
    /// `0 ≤ p ≤ 1`.
    #[inline]
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "gen_bool p={p} out of range");
        unit_f64(self) < p
    }
}

/// 53 uniform bits of one draw, scaled into `[0, 1)`.
#[inline]
fn unit_f64<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    (rng.next_u64() & ((1u64 << 53) - 1)) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// A range [`Rng::gen_range`] can sample from.
pub trait SampleRange<T> {
    /// Draws one sample.
    fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> T;
}

macro_rules! int_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            #[inline]
            fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "empty gen_range");
                let span = (self.end as u128).wrapping_sub(self.start as u128);
                self.start.wrapping_add((rng.next_u64() as u128 % span) as $t)
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            #[inline]
            fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty gen_range");
                let span = (hi as u128).wrapping_sub(lo as u128) + 1;
                lo.wrapping_add((rng.next_u64() as u128 % span) as $t)
            }
        }
    )*};
}
int_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl SampleRange<f64> for Range<f64> {
    #[inline]
    fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "empty gen_range");
        self.start + unit_f64(rng) * (self.end - self.start)
    }
}

impl SampleRange<f64> for RangeInclusive<f64> {
    #[inline]
    fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> f64 {
        let (lo, hi) = (*self.start(), *self.end());
        assert!(lo <= hi, "empty gen_range");
        lo + unit_f64(rng) * (hi - lo)
    }
}

/// SplitMix64's state increment: each draw adds it once.
const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// SplitMix64 generator.
#[derive(Debug, Clone)]
pub struct StdRng {
    state: u64,
}

impl StdRng {
    /// The raw generator state, for checkpoints. Feeding it to
    /// [`from_state`](Self::from_state) continues the stream exactly
    /// where this generator stands.
    pub fn state(&self) -> u64 {
        self.state
    }

    /// Rebuilds a generator from a state captured with
    /// [`state`](Self::state). Unlike [`SeedableRng::seed_from_u64`]
    /// this applies no scramble and discards no draw.
    pub fn from_state(state: u64) -> Self {
        StdRng { state }
    }

    /// Advances the stream past `n` draws in O(1). The state is a
    /// counter that each draw bumps by the same increment, so this
    /// leaves it exactly where `n` calls of [`Rng::next_u64`] would.
    pub fn skip(&mut self, n: u64) {
        self.state = self.state.wrapping_add(n.wrapping_mul(GAMMA));
    }
}

impl Rng for StdRng {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GAMMA);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

impl SeedableRng for StdRng {
    /// Scrambles `seed` once, so nearby seeds diverge fast, then
    /// discards one draw.
    fn seed_from_u64(seed: u64) -> Self {
        let mut rng = StdRng {
            state: seed.wrapping_mul(0x2545_F491_4F6C_DD1D) ^ 0x5851_F42D_4C95_7F2D,
        };
        let _ = rng.next_u64();
        rng
    }
}
