//! Concurrency audit of the replica pool: a hand-rolled scripted
//! scheduler exhaustively interleaves every claim/write step order of
//! a 3-job × 2-worker batch through [`ecocloud::parallel`]'s `Gate`
//! seam and asserts the submission-order merge is byte-identical under
//! all of them.
//!
//! The pool's shared state is touched at exactly two points per job —
//! the work-stealing claim and the sink write — plus one failing claim
//! per worker on exit, so a 3×2 batch has exactly eight scheduling
//! steps. The scripted gate blocks each worker at every step until a
//! controller grants it the turn, which serializes the run into one
//! chosen global step order. Driving all 2^8 decision strings (with
//! infeasible decisions normalized to the surviving worker) realizes
//! every feasible interleaving; an abstract model of the pool
//! enumerates the feasible set independently, and the test asserts the
//! realized set equals it — the coverage claim is checked, not assumed.

use std::collections::BTreeSet;
use std::sync::{Condvar, Mutex};

use ecocloud::parallel::{run_replicas, run_replicas_gated, Gate};

/// Jobs in the batch.
const N: usize = 3;
/// Workers in the pool.
const WORKERS: usize = 2;
/// Total scheduling steps: one claim + one write per job, plus one
/// failing claim per worker on its exit path.
const STEPS: usize = 2 * N + WORKERS;

/// One scheduling step: which worker moved, and whether it was a
/// claim (`'c'`) or a sink write (`'w'`).
type Step = (usize, char);

// ------------------------------------------------------- scripted gate

struct SchedState {
    /// Worker currently granted the turn, if any.
    token: Option<usize>,
    /// What step each worker is blocked at (`None` = running or done).
    waiting: [Option<char>; WORKERS],
    /// Workers that have exited their dispatch loop (or are committed
    /// to exiting: a claim granted after the batch is exhausted).
    done: [bool; WORKERS],
    /// Claims granted so far; the first `N` succeed, the rest fail.
    claims: usize,
}

/// A [`Gate`] that blocks every worker at every step until the
/// controller thread ([`Scripted::drive`]) grants it the turn.
struct Scripted {
    state: Mutex<SchedState>,
    cv: Condvar,
}

impl Scripted {
    fn new() -> Self {
        Scripted {
            state: Mutex::new(SchedState {
                token: None,
                waiting: [None; WORKERS],
                done: [false; WORKERS],
                claims: 0,
            }),
            cv: Condvar::new(),
        }
    }

    /// Blocks `worker` at a step of the given kind until granted.
    fn pass(&self, worker: usize, kind: char) {
        let mut st = self.state.lock().expect("scheduler lock");
        st.waiting[worker] = Some(kind);
        self.cv.notify_all();
        while st.token != Some(worker) {
            st = self.cv.wait(st).expect("scheduler wait");
        }
        st.token = None;
        st.waiting[worker] = None;
        self.cv.notify_all();
    }

    /// Runs the controller: grants one step per script entry (an
    /// infeasible entry — naming a finished worker — is redirected to
    /// the surviving one) until every worker is done. Returns the
    /// realized step sequence.
    fn drive(&self, script: &[usize]) -> Vec<Step> {
        let mut realized = Vec::with_capacity(STEPS);
        for &want in script {
            let mut st = self.state.lock().expect("scheduler lock");
            // Wait until the previous grant is consumed and every
            // worker is settled: blocked at a gate or done.
            while st.token.is_some() || (0..WORKERS).any(|w| st.waiting[w].is_none() && !st.done[w])
            {
                st = self.cv.wait(st).expect("scheduler wait");
            }
            if st.done.iter().all(|&d| d) {
                break;
            }
            let w = if st.done[want] {
                (0..WORKERS).find(|&w| !st.done[w]).expect("a live worker")
            } else {
                want
            };
            let kind = st.waiting[w].expect("settled worker is waiting");
            if kind == 'c' {
                st.claims += 1;
                // A claim past the batch size fails inside the pool
                // and the worker exits without reaching another gate.
                if st.claims > N {
                    st.done[w] = true;
                }
            }
            realized.push((w, kind));
            st.token = Some(w);
            self.cv.notify_all();
        }
        realized
    }
}

impl Gate for Scripted {
    fn before_claim(&self, worker: usize) {
        self.pass(worker, 'c');
    }
    fn before_write(&self, worker: usize, _index: usize) {
        self.pass(worker, 'w');
    }
}

// ---------------------------------------------------- abstract model

/// Enumerates every feasible step sequence of the pool's abstract
/// model: each worker loops claim → (on success) write, and exits on a
/// failed claim; the first `N` claims globally succeed. This is the
/// ground truth the scripted executions are checked against.
fn feasible_schedules() -> BTreeSet<Vec<Step>> {
    #[derive(Clone, Copy, PartialEq)]
    enum W {
        Claiming,
        Writing,
        Done,
    }
    fn rec(
        workers: [W; WORKERS],
        claims: usize,
        prefix: &mut Vec<Step>,
        out: &mut BTreeSet<Vec<Step>>,
    ) {
        if workers.iter().all(|&w| matches!(w, W::Done)) {
            out.insert(prefix.clone());
            return;
        }
        for (i, &st) in workers.iter().enumerate() {
            let mut next = workers;
            let (step, claims) = match st {
                W::Done => continue,
                W::Claiming if claims < N => {
                    next[i] = W::Writing;
                    ((i, 'c'), claims + 1)
                }
                W::Claiming => {
                    next[i] = W::Done;
                    ((i, 'c'), claims)
                }
                W::Writing => {
                    next[i] = W::Claiming;
                    ((i, 'w'), claims)
                }
            };
            prefix.push(step);
            rec(next, claims, prefix, out);
            prefix.pop();
        }
    }
    let mut out = BTreeSet::new();
    rec([W::Claiming; WORKERS], 0, &mut Vec::new(), &mut out);
    out
}

// ------------------------------------------------------------ the audit

/// A cheap, index-deterministic payload (splitmix64) standing in for a
/// simulation artifact: any reordering or double-execution changes the
/// merged bytes.
fn job(i: usize) -> Vec<u8> {
    let mut z = (i as u64).wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    format!("replica {i}: {:016x}\n", z ^ (z >> 31)).into_bytes()
}

fn merged(outs: &[Vec<u8>]) -> Vec<u8> {
    outs.iter().flat_map(|o| o.iter().copied()).collect()
}

#[test]
fn every_interleaving_merges_byte_identically() {
    let reference = merged(&run_replicas(N, 1, job));
    let expected = feasible_schedules();
    assert!(
        expected.len() > 10,
        "the feasible set is non-trivial: {}",
        expected.len()
    );

    let mut realized_set = BTreeSet::new();
    let mut splits = BTreeSet::new();
    for mask in 0u32..(1 << STEPS) {
        let script: Vec<usize> = (0..STEPS).map(|b| ((mask >> b) & 1) as usize).collect();
        let gate = Scripted::new();
        let (out, realized) = std::thread::scope(|s| {
            let driver = s.spawn(|| gate.drive(&script));
            let out = run_replicas_gated(N, WORKERS, &gate, job);
            (out, driver.join().expect("controller thread"))
        });

        assert_eq!(out.len(), N, "schedule {realized:?} lost a result");
        assert_eq!(
            merged(&out),
            reference,
            "submission-order merge must be byte-identical under schedule {realized:?}"
        );
        assert_eq!(
            realized.len(),
            STEPS,
            "schedule {realized:?} has a step miscount"
        );

        // Which worker won each successful claim (the first N claim
        // steps) — the work distribution this schedule forced.
        let mut split = [0usize; WORKERS];
        for &(w, _) in realized.iter().filter(|&&(_, k)| k == 'c').take(N) {
            split[w] += 1;
        }
        splits.insert(split);
        realized_set.insert(realized);
    }

    // The coverage claim, checked: the scripted runs realized exactly
    // the abstractly-feasible interleavings — no more, no fewer.
    assert_eq!(
        realized_set, expected,
        "scripted execution must realize the feasible set exactly"
    );
    // Every work split occurred, including one worker taking the
    // whole batch while the other only observes exhaustion.
    for k in 0..=N {
        assert!(
            splits.contains(&[k, N - k]),
            "work split {k}/{} never realized",
            N - k
        );
    }
}

#[test]
fn free_run_gate_is_the_production_path() {
    // The gated entry with the production gate is `run_replicas`.
    let gated = run_replicas_gated(8, 3, &ecocloud::parallel::FreeRun, job);
    assert_eq!(gated, run_replicas(8, 3, job));
}
