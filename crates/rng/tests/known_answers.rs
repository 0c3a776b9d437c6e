//! Known-answer tests: the stream is the specification.
//!
//! Every constant here was captured from the generator the committed
//! goldens were produced with. A change to any of them changes every
//! fixed-seed number in the repository, so it must come with a
//! re-baseline of those numbers, never with an edit of this file alone.

use ecocloud_rng::{Rng, SeedableRng, StdRng};

fn first_eight(seed: u64) -> [u64; 8] {
    let mut rng = StdRng::seed_from_u64(seed);
    std::array::from_fn(|_| rng.next_u64())
}

#[test]
fn seed_42_stream() {
    assert_eq!(
        first_eight(42),
        [
            0xDDD9_5D30_213C_A89C,
            0xD31D_737E_DFC1_8BB4,
            0x0607_A572_31EE_AC78,
            0x4D4A_9929_1701_8DA4,
            0x579D_3570_9C45_7EF5,
            0xEB3C_10CD_781F_738D,
            0xF4BE_45D3_01C9_8ADA,
            0x7438_18C3_1092_F18A,
        ]
    );
}

#[test]
fn seed_0_stream() {
    assert_eq!(
        first_eight(0),
        [
            0x0699_45DE_A824_60DA,
            0xF2B5_717D_B028_09EA,
            0x4604_208F_575A_097A,
            0x9B2A_F0A3_3458_F9D3,
            0x0036_C74E_48FE_D613,
            0x2509_2499_2B7B_8FB9,
            0x11C2_DD54_0214_7E8B,
            0xA150_217A_A00C_E50F,
        ]
    );
}

#[test]
fn sampling_rules() {
    let fresh = || StdRng::seed_from_u64(42);
    assert_eq!(fresh().gen_range(0..7usize), 3);
    assert_eq!(fresh().gen_range(3u32..=9), 6);
    assert_eq!(
        fresh().gen_range(0.05..0.25f64).to_bits(),
        0x3FCA_B0F3_4DCA_207E
    );
    assert!(!fresh().gen_bool(0.3));
    let mut rng = fresh();
    let trials: Vec<bool> = (0..8).map(|_| rng.gen_bool(0.3)).collect();
    assert_eq!(
        trials,
        [false, false, true, false, false, false, false, false]
    );
}

#[test]
fn state_round_trip_continues_mid_stream() {
    let mut rng = StdRng::seed_from_u64(7);
    for _ in 0..5 {
        rng.next_u64();
    }
    assert_eq!(rng.state(), 0x1205_362D_632E_5D64);
    let mut resumed = StdRng::from_state(rng.state());
    assert_eq!(resumed.next_u64(), 0x8D81_7764_BE30_D770);
    assert_eq!(rng.next_u64(), 0x8D81_7764_BE30_D770);
    for _ in 0..16 {
        assert_eq!(resumed.next_u64(), rng.next_u64());
    }
}

#[test]
fn skip_equals_that_many_draws() {
    for n in [0u64, 1, 2, 3, 1_000] {
        let mut drawn = StdRng::seed_from_u64(11);
        for _ in 0..n {
            drawn.next_u64();
        }
        let mut jumped = StdRng::seed_from_u64(11);
        jumped.skip(n);
        assert_eq!(jumped.state(), drawn.state(), "n = {n}");
        assert_eq!(jumped.next_u64(), drawn.next_u64(), "n = {n}");
    }
}

#[test]
fn skips_compose_including_a_wrapping_sum() {
    let pairs = [
        (0u64, 0u64),
        (1, 2),
        (1_000, 24),
        (u64::MAX, 1),
        (u64::MAX - 5, 17),
        (1 << 63, 1 << 63),
    ];
    for (a, b) in pairs {
        let mut two = StdRng::seed_from_u64(3);
        two.skip(a);
        two.skip(b);
        let mut one = StdRng::seed_from_u64(3);
        one.skip(a.wrapping_add(b));
        assert_eq!(two.state(), one.state(), "skip({a}) + skip({b})");
    }
    // 2^64 draws bring the counter back to where it started.
    let mut full = StdRng::seed_from_u64(3);
    full.skip(u64::MAX);
    full.next_u64();
    assert_eq!(full.state(), StdRng::seed_from_u64(3).state());
}

#[test]
#[should_panic(expected = "out of range")]
fn gen_bool_rejects_probability_above_one() {
    StdRng::seed_from_u64(1).gen_bool(1.5);
}
