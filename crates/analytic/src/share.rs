//! The assignment share `A_s` of the paper's Eqs. 6–11: which fraction
//! of arriving VMs each server receives.
//!
//! ## Exact model (Eqs. 6–9)
//!
//! A VM is assigned to server `s` with probability `1/(k+1)` when `k`
//! *other* servers also declared availability. With
//! `P_s^{(k)} = [x^k] R_s(x)` and `R_s(x) = Π_{i≠s}(1 − f_i + f_i x)`
//! the probability-generating product over the other servers,
//!
//! ```text
//! A_s ∝ f_s · Σ_k P_s^{(k)} / (k+1)  =  f_s · ∫₀¹ R_s(x) dx,
//! ```
//!
//! normalized by `1 − Π_i (1 − f_i)` (the probability that at least one
//! server accepts). The integral form turns the exponential subset sum
//! into an `O(N)`-per-server evaluation via Gauss–Legendre quadrature
//! (exact for polynomials), evaluated as `Q(x)/(1 − f_s + f_s x)` where
//! `Q` is the full product over all servers.
//!
//! The kernel runs the two loops across servers and nodes side by side
//! so they vectorize, but never reorders a floating-point chain: each
//! `Q(x_j)` multiplies its factors in server order and each server
//! adds its quadrature terms in node order, exactly as the per-server
//! formulation does, so every share keeps its bits. A fluid solve
//! builds its quadrature rule once (`ExactShareKernel`) and
//! [`exact_shares`] builds one per call.
//!
//! **Erratum note:** the paper prints the sum as `Σ_{k=0}^{N_s−2}` and
//! omits the `f_s` factor in Eq. 6. As printed, the shares do not sum
//! to 1 (e.g. two servers with `f = 1` would each get share 0). The
//! corrected expression above restores `Σ_s A_s = 1`, which the
//! property tests verify; Eq. 5 then reads
//! `du_s/dt = −N_c μ u_s + λ w̄ A_s` with `f_a(u_s)` folded into `A_s`.
//!
//! ## Simplified model (Eq. 11)
//!
//! `A_s ≈ f_s / Σ_i f_i` — acceptance-probability-proportional
//! splitting, which the paper reports to be "very close" to the exact
//! model. Both are implemented; the `fig13` experiment compares them.

use crate::quadrature::GaussLegendre;

/// Exact shares (corrected Eqs. 6–9). Returns all-zero when no server
/// can accept (`Σ f_i = 0`), mirroring the manager finding no
/// volunteer.
///
/// ```
/// use ecocloud_analytic::exact_shares;
/// let shares = exact_shares(&[0.9, 0.3, 0.0]);
/// assert!((shares.iter().sum::<f64>() - 1.0).abs() < 1e-12);
/// assert!(shares[0] > shares[1]); // likelier acceptors get more VMs
/// assert_eq!(shares[2], 0.0);     // f_a = 0 gets nothing
/// ```
pub fn exact_shares(f: &[f64]) -> Vec<f64> {
    ExactShareKernel::new(GaussLegendre::new(exact_rule_nodes(f.len()))).shares(f)
}

/// Enough Gauss–Legendre nodes to integrate the degree-(n−1)
/// polynomial `R_s` of `n` servers exactly.
pub(crate) fn exact_rule_nodes(servers: usize) -> usize {
    servers / 2 + 1
}

/// The exact-share evaluator: a quadrature rule for one fleet size
/// plus its scratch buffers, so a fluid solve builds the rule once
/// rather than on every right-hand-side evaluation.
pub(crate) struct ExactShareKernel {
    quad: GaussLegendre,
    /// `Q(x_j)` at every node.
    q_at: Vec<f64>,
    /// `∫₀¹ R_s(x) dx` of every server.
    integral: Vec<f64>,
}

impl ExactShareKernel {
    /// A kernel for `f` vectors of the length `quad` was sized for by
    /// [`exact_rule_nodes`].
    pub(crate) fn new(quad: GaussLegendre) -> Self {
        Self {
            quad,
            q_at: Vec::new(),
            integral: Vec::new(),
        }
    }

    /// The shares of [`exact_shares`], bit for bit.
    pub(crate) fn shares(&mut self, f: &[f64]) -> Vec<f64> {
        validate(f);
        let n = f.len();
        if n == 0 {
            return Vec::new();
        }
        assert_eq!(
            self.quad.len(),
            exact_rule_nodes(n),
            "quadrature rule sized for another fleet"
        );
        let none_accepts: f64 = f.iter().map(|&fi| 1.0 - fi).product();
        let norm = 1.0 - none_accepts;
        if norm <= 1e-300 {
            return vec![0.0; n];
        }
        let Self {
            quad,
            q_at,
            integral,
        } = self;
        // Q(x_j) = Π_i (1 − f_i + f_i x_j), shared across all servers.
        // Each Q(x_j) multiplies its factors in server order, from the
        // 1.0 that `Iterator::product` starts from.
        q_at.clear();
        q_at.resize(quad.len(), 1.0);
        for &fi in f {
            for (q, &x) in q_at.iter_mut().zip(&quad.nodes) {
                *q *= 1.0 - fi + fi * x;
            }
        }
        // Each server adds its terms in node order, from the -0.0 that
        // `Iterator::sum` starts from. R_s(x) = Q(x) / (1 − f_s + f_s x);
        // the denominator is ≥ x > 0 on the open interval.
        integral.clear();
        integral.resize(n, -0.0);
        for ((&x, &w), &qx) in quad.nodes.iter().zip(&quad.weights).zip(q_at.iter()) {
            let wq = w * qx;
            for (acc, &fs) in integral.iter_mut().zip(f) {
                *acc += wq / (1.0 - fs + fs * x);
            }
        }
        f.iter()
            .zip(integral.iter())
            .map(|(&fs, &acc)| if fs == 0.0 { 0.0 } else { fs * acc / norm })
            .collect()
    }
}

/// Simplified shares (Eq. 11): proportional to the acceptance
/// probabilities.
pub fn simplified_shares(f: &[f64]) -> Vec<f64> {
    validate(f);
    let total: f64 = f.iter().sum();
    if total <= 0.0 {
        return vec![0.0; f.len()];
    }
    f.iter().map(|&fi| fi / total).collect()
}

/// Brute-force evaluation of the corrected Eqs. 6–9 by explicit
/// enumeration of all acceptance subsets — `O(2^N · N)`, used to
/// validate [`exact_shares`] on small systems.
pub fn exact_shares_bruteforce(f: &[f64]) -> Vec<f64> {
    validate(f);
    let n = f.len();
    assert!(n <= 20, "brute force is exponential; use exact_shares");
    if n == 0 {
        return Vec::new();
    }
    let mut shares = vec![0.0; n];
    let mut p_any = 0.0;
    // Enumerate every acceptance pattern (bitmask of accepting servers).
    for mask in 0u32..(1 << n) {
        let mut prob = 1.0;
        for (i, &fi) in f.iter().enumerate() {
            prob *= if mask & (1 << i) != 0 { fi } else { 1.0 - fi };
        }
        let accepted = mask.count_ones();
        if accepted == 0 {
            continue;
        }
        p_any += prob;
        // The manager picks uniformly among the acceptors.
        for (i, share) in shares.iter_mut().enumerate() {
            if mask & (1 << i) != 0 {
                *share += prob / accepted as f64;
            }
        }
    }
    if p_any <= 0.0 {
        return vec![0.0; n];
    }
    for s in &mut shares {
        *s /= p_any;
    }
    shares
}

/// `P_s^{(k)}` coefficients of Eqs. 7–9 by direct polynomial
/// multiplication (`O(N²)`): `result[k]` is the probability that
/// exactly `k` of the servers other than `s` accept.
pub fn pk_coefficients(f: &[f64], s: usize) -> Vec<f64> {
    validate(f);
    assert!(s < f.len(), "server index out of range");
    let mut coeffs = vec![0.0; 1];
    coeffs[0] = 1.0;
    for (i, &fi) in f.iter().enumerate() {
        if i == s {
            continue;
        }
        // Multiply by (1 − f_i + f_i x).
        let mut next = vec![0.0; coeffs.len() + 1];
        for (k, &c) in coeffs.iter().enumerate() {
            next[k] += c * (1.0 - fi);
            next[k + 1] += c * fi;
        }
        coeffs = next;
    }
    coeffs
}

fn validate(f: &[f64]) {
    for (i, &fi) in f.iter().enumerate() {
        assert!(
            (0.0..=1.0).contains(&fi),
            "acceptance probability f[{i}] = {fi} outside [0, 1]"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecocloud_rng::{Rng, SeedableRng, StdRng};

    /// The per-server formulation the kernel replaced: one `Q` product
    /// per node, then one integral per server. Oracle for the bits.
    fn exact_shares_per_server(f: &[f64], quad: &GaussLegendre) -> Vec<f64> {
        let n = f.len();
        let none_accepts: f64 = f.iter().map(|&fi| 1.0 - fi).product();
        let norm = 1.0 - none_accepts;
        if norm <= 1e-300 {
            return vec![0.0; n];
        }
        let q_at: Vec<f64> = quad
            .nodes
            .iter()
            .map(|&x| f.iter().map(|&fi| 1.0 - fi + fi * x).product())
            .collect();
        let share_of = |s: usize| -> f64 {
            let fs = f[s];
            if fs == 0.0 {
                return 0.0;
            }
            let integral: f64 = quad
                .nodes
                .iter()
                .zip(&quad.weights)
                .zip(&q_at)
                .map(|((&x, &w), &qx)| w * qx / (1.0 - fs + fs * x))
                .sum();
            fs * integral / norm
        };
        (0..n).map(share_of).collect()
    }

    #[test]
    fn kernel_keeps_the_per_server_bits() {
        let mut rng = StdRng::seed_from_u64(4);
        for n in 1..=400 {
            let quad = GaussLegendre::new(exact_rule_nodes(n));
            let mut kernel = ExactShareKernel::new(quad.clone());
            let mut f: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0f64..=1.0)).collect();
            // Exact 0.0 and 1.0 entries take the share's special cases.
            f[rng.gen_range(0..n)] = 0.0;
            f[rng.gen_range(0..n)] = 1.0;
            let all_zero = vec![0.0; n];
            for f in [&f, &all_zero] {
                let want = exact_shares_per_server(f, &quad);
                let got = kernel.shares(f);
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&got), bits(&want), "n = {n}");
                assert_eq!(bits(&exact_shares(f)), bits(&want), "n = {n}");
            }
        }
    }

    fn assert_close(a: &[f64], b: &[f64], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (i, (&x, &y)) in a.iter().zip(b).enumerate() {
            assert!((x - y).abs() < tol, "share {i}: {x} vs {y}");
        }
    }

    #[test]
    fn symmetric_servers_share_equally() {
        for n in [2, 3, 7] {
            let f = vec![0.6; n];
            for shares in [exact_shares(&f), simplified_shares(&f)] {
                for &s in &shares {
                    assert!((s - 1.0 / n as f64).abs() < 1e-12);
                }
            }
        }
    }

    #[test]
    fn exact_matches_bruteforce() {
        let cases: Vec<Vec<f64>> = vec![
            vec![0.5],
            vec![1.0, 1.0],
            vec![0.3, 0.9],
            vec![0.1, 0.2, 0.3, 0.4],
            vec![0.0, 0.5, 1.0],
            vec![0.9, 0.85, 0.05, 0.6, 0.99, 0.01],
        ];
        for f in cases {
            assert_close(&exact_shares(&f), &exact_shares_bruteforce(&f), 1e-10);
        }
    }

    #[test]
    fn all_ones_split_uniformly() {
        let f = vec![1.0; 4];
        let shares = exact_shares(&f);
        for &s in &shares {
            assert!((s - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    fn zero_probability_servers_get_nothing() {
        let f = vec![0.0, 0.7, 0.0];
        let e = exact_shares(&f);
        assert_eq!(e[0], 0.0);
        assert_eq!(e[2], 0.0);
        assert!((e[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn nobody_accepts_gives_zero_shares() {
        let f = vec![0.0; 5];
        assert!(exact_shares(&f).iter().all(|&s| s == 0.0));
        assert!(simplified_shares(&f).iter().all(|&s| s == 0.0));
    }

    #[test]
    fn pk_coefficients_match_eq7_to_9() {
        // Eq. 7: P^{(0)} = Π_{i≠s}(1 − f_i);
        // Eq. 9: P^{(N−1)} = Π_{i≠s} f_i.
        let f = [0.2, 0.5, 0.8, 0.9];
        let pk = pk_coefficients(&f, 1);
        assert_eq!(pk.len(), 4); // k = 0..=3 others... 3 others → len 4? degree 3 polynomial has 4 coefficients but only k=0..3 others = 3: len == n.
        let p0_expected = 0.8 * 0.2 * 0.1;
        let ptop_expected = 0.2 * 0.8 * 0.9;
        assert!((pk[0] - p0_expected).abs() < 1e-12);
        assert!((pk[3] - ptop_expected).abs() < 1e-12);
        // It is a probability distribution over k.
        let sum: f64 = pk.iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn exact_share_equals_pk_sum_formula() {
        // A_s = f_s Σ_k P_s^{(k)}/(k+1) / norm — the literal corrected
        // Eq. 6, cross-checking the quadrature shortcut.
        let f = [0.3, 0.7, 0.55, 0.9, 0.12];
        let norm = 1.0 - f.iter().map(|&x| 1.0 - x).product::<f64>();
        let quad_shares = exact_shares(&f);
        for s in 0..f.len() {
            let pk = pk_coefficients(&f, s);
            let sum: f64 = pk
                .iter()
                .enumerate()
                .map(|(k, &p)| p / (k as f64 + 1.0))
                .sum();
            let literal = f[s] * sum / norm;
            assert!(
                (literal - quad_shares[s]).abs() < 1e-12,
                "server {s}: literal {literal} vs quadrature {}",
                quad_shares[s]
            );
        }
    }

    #[test]
    fn large_system_is_stable() {
        // 1,000 servers with mixed probabilities: shares must stay
        // finite, non-negative and sum to 1.
        let f: Vec<f64> = (0..1000).map(|i| (i % 10) as f64 / 10.0).collect();
        let shares = exact_shares(&f);
        let sum: f64 = shares.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9, "sum = {sum}");
        assert!(shares.iter().all(|&s| (0.0..=1.0).contains(&s)));
    }

    #[test]
    fn prop_shares_sum_to_one() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..256 {
            let f = (0..rng.gen_range(1..40))
                .map(|_| rng.gen_range(0.0f64..1.0))
                .collect::<Vec<_>>();
            if !f.iter().any(|&x| x > 1e-6) {
                continue;
            }
            for shares in [exact_shares(&f), simplified_shares(&f)] {
                let sum: f64 = shares.iter().sum();
                assert!((sum - 1.0).abs() < 1e-9, "sum = {sum}");
                assert!(shares.iter().all(|&s| s >= 0.0));
            }
        }
    }

    #[test]
    fn prop_exact_matches_bruteforce_random() {
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..256 {
            let f = (0..rng.gen_range(1..10))
                .map(|_| rng.gen_range(0.0f64..=1.0))
                .collect::<Vec<_>>();
            let e = exact_shares(&f);
            let b = exact_shares_bruteforce(&f);
            for (x, y) in e.iter().zip(&b) {
                assert!((x - y).abs() < 1e-9, "{x} vs {y}");
            }
        }
    }

    #[test]
    fn prop_higher_probability_gets_higher_share() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..256 {
            let base = rng.gen_range(0.05f64..0.9);
            let boost = rng.gen_range(0.01f64..0.1);
            let n = rng.gen_range(2usize..20);
            // Monotonicity: raising one server's f raises its share.
            let mut f = vec![base; n];
            f[0] = (base + boost).min(1.0);
            for shares in [exact_shares(&f), simplified_shares(&f)] {
                assert!(shares[0] > shares[1] - 1e-12);
            }
        }
    }
}
