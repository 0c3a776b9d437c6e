//! Parallel replica execution.
//!
//! Simulation runs are single-threaded and deterministic; statistical
//! work (replication studies, parameter sweeps, policy shoot-outs)
//! runs many of them. [`run_replicas`] fans a batch out over a scoped
//! worker pool (`std::thread::scope` — no `'static` bounds on the job
//! closure) with a work-stealing index and a mutex-guarded result
//! sink, and returns results in submission order.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};
use std::thread;

/// Scheduling observation points inside [`run_replicas_gated`].
///
/// The pool has exactly two kinds of shared-state step per job: a
/// worker *claims* the next index from the work-stealing counter, and
/// later *writes* the finished result into the sink. A `Gate` is
/// called immediately before each step, which lets a test substitute a
/// scripted scheduler that blocks workers until a chosen global order
/// of steps is reached — `tests/scheduler_audit.rs` uses this to
/// exhaustively enumerate every claim/write interleaving of a small
/// batch and assert the submission-order merge is byte-identical under
/// all of them. Production code uses [`FreeRun`], whose empty hooks
/// inline to nothing.
pub trait Gate: Sync {
    /// Worker `worker` is about to claim the next job index (the claim
    /// may find the batch exhausted, which is the worker's exit path).
    fn before_claim(&self, worker: usize);
    /// Worker `worker` finished job `index` and is about to write its
    /// result into the shared sink.
    fn before_write(&self, worker: usize, index: usize);
}

/// The production scheduler: never blocks, adds no synchronization.
pub struct FreeRun;

impl Gate for FreeRun {
    fn before_claim(&self, _worker: usize) {}
    fn before_write(&self, _worker: usize, _index: usize) {}
}

/// Runs `jobs(i)` for `i in 0..n` on up to `workers` threads and
/// returns the results in index order.
///
/// The closure only needs to be `Sync` (it is shared by reference
/// across the scoped workers), so it can borrow scenario data from the
/// caller's stack — the reason this uses `std::thread::scope` instead
/// of `std::thread::spawn`. A panicking job panics the caller once
/// every worker has stopped.
///
/// ```
/// let squares = ecocloud::parallel::run_replicas(8, 4, |i| i * i);
/// assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
/// ```
pub fn run_replicas<T, F>(n: usize, workers: usize, job: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    run_replicas_gated(n, workers, &FreeRun, job)
}

/// [`run_replicas`] with an explicit [`Gate`] consulted before every
/// claim and write step. The scheduling seam for the concurrency
/// audit; semantics are identical to `run_replicas` for any gate that
/// eventually lets every worker proceed.
pub fn run_replicas_gated<T, F, G>(n: usize, workers: usize, gate: &G, job: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
    G: Gate,
{
    assert!(workers > 0, "need at least one worker");
    if n == 0 {
        return Vec::new();
    }
    let next = AtomicUsize::new(0);
    let sink: Mutex<Vec<Option<T>>> = Mutex::new((0..n).map(|_| None).collect());
    let job = &job;
    thread::scope(|scope| {
        for w in 0..workers.min(n) {
            let (next, sink) = (&next, &sink);
            scope.spawn(move || loop {
                gate.before_claim(w);
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let result = job(i);
                gate.before_write(w, i);
                sink.lock().unwrap_or_else(PoisonError::into_inner)[i] = Some(result);
            });
        }
    });
    sink.into_inner()
        .unwrap_or_else(PoisonError::into_inner)
        .into_iter()
        .map(|r| r.expect("every index was filled"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios::Scenario;
    use ecocloud_core::EcoCloudPolicy;

    #[test]
    fn preserves_order_and_completeness() {
        let out = run_replicas(100, 7, |i| i * 3);
        assert_eq!(out.len(), 100);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i * 3);
        }
    }

    #[test]
    fn works_with_one_worker_and_zero_jobs() {
        assert_eq!(run_replicas(3, 1, |i| i), vec![0, 1, 2]);
        assert!(run_replicas(0, 4, |i| i).is_empty());
    }

    #[test]
    fn borrows_caller_state() {
        // The job closure borrows non-'static data — the property
        // scoped threads buy us.
        let weights = [1.0f64, 2.0, 3.0];
        let out = run_replicas(3, 2, |i| weights[i] * 10.0);
        assert_eq!(out, vec![10.0, 20.0, 30.0]);
    }

    #[test]
    #[should_panic]
    fn propagates_worker_panics() {
        let _ = run_replicas(4, 2, |i| {
            if i == 2 {
                panic!("boom");
            }
            i
        });
    }

    #[test]
    fn parallel_simulations_match_sequential() {
        // Determinism survives the thread pool: each seed's result is
        // identical to running it alone.
        let results = run_replicas(3, 2, |i| {
            let seed = 11 + i as u64;
            let res = Scenario::small(seed).run(EcoCloudPolicy::paper(seed));
            (res.summary.energy_kwh, res.final_powered)
        });
        for (i, &(kwh, powered)) in results.iter().enumerate() {
            let seed = 11 + i as u64;
            let lone = Scenario::small(seed).run(EcoCloudPolicy::paper(seed));
            assert_eq!(kwh, lone.summary.energy_kwh, "seed {seed}");
            assert_eq!(powered, lone.final_powered, "seed {seed}");
        }
    }
}
