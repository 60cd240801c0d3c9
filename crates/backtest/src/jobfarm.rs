//! A Sun-Grid-Engine-flavoured independent-job farm.
//!
//! The paper's interim workaround: "We were able to reduce the computation
//! time by creating scripts which sent out independent Matlab jobs to a
//! Sun Grid Engine scheduler." This module reproduces that execution model
//! — a queue of independent `(pair, day, parameter-set)` jobs drained by a
//! fixed pool of workers — so `tests/approaches.rs` and `scaling_study`
//! can compare it against the integrated solution the paper advocates.
//! The paper's criticism is
//! architectural, not about SGE itself: job farming "does not allow for a
//! tight interaction between independent pairs throughout the course of a
//! trading day".

use std::sync::{mpsc, Mutex};

/// Run `jobs` through `workers` worker threads, applying `f` to each job.
/// Results are returned in job order.
///
/// # Panics
/// Panics if `workers` is 0 (propagates worker panics too).
pub fn run_jobs<J, R, F>(jobs: Vec<J>, workers: usize, f: F) -> Vec<R>
where
    J: Send,
    R: Send,
    F: Fn(J) -> R + Sync,
{
    assert!(workers > 0, "need at least one worker");
    let n = jobs.len();
    // One queue, many consumers: a worker holds the lock only to take a job.
    let (job_tx, job_rx) = mpsc::channel::<(usize, J)>();
    for item in jobs.into_iter().enumerate() {
        job_tx.send(item).expect("queue open");
    }
    drop(job_tx);
    let job_rx = Mutex::new(job_rx);
    let (res_tx, res_rx) = mpsc::channel::<(usize, R)>();

    std::thread::scope(|scope| {
        for _ in 0..workers {
            let (job_rx, res_tx, f) = (&job_rx, res_tx.clone(), &f);
            scope.spawn(move || loop {
                let next = job_rx.lock().expect("no job is run under the lock").recv();
                let Ok((idx, job)) = next else { break };
                res_tx
                    .send((idx, f(job)))
                    .expect("results outlive the workers");
            });
        }
        drop(res_tx);
    });

    let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
    for (idx, r) in res_rx.iter() {
        slots[idx] = Some(r);
    }
    slots
        .into_iter()
        .map(|s| s.expect("every job produces a result"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn results_in_job_order() {
        let jobs: Vec<usize> = (0..100).collect();
        let out = run_jobs(jobs, 4, |j| j * j);
        for (k, v) in out.iter().enumerate() {
            assert_eq!(*v, k * k);
        }
    }

    #[test]
    fn all_workers_participate() {
        let counter = AtomicUsize::new(0);
        let jobs: Vec<u64> = vec![5; 64];
        let out = run_jobs(jobs, 8, |ms| {
            counter.fetch_add(1, Ordering::SeqCst);
            std::thread::sleep(std::time::Duration::from_millis(ms));
            ms
        });
        assert_eq!(out.len(), 64);
        assert_eq!(counter.load(Ordering::SeqCst), 64);
    }

    #[test]
    fn empty_queue_is_fine() {
        let out: Vec<u8> = run_jobs(Vec::<u8>::new(), 3, |j| j);
        assert!(out.is_empty());
    }

    #[test]
    fn single_worker_is_sequential_but_complete() {
        let jobs: Vec<i32> = (0..10).collect();
        let out = run_jobs(jobs, 1, |j| -j);
        assert_eq!(out, (0..10).map(|j| -j).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic]
    fn zero_workers_rejected() {
        let _ = run_jobs(vec![1], 0, |j: i32| j);
    }
}
