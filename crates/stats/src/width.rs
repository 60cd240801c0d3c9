//! Kernel width: how many threads one call of a parallel kernel in this
//! crate may split across.
//!
//! Every parallel kernel here — [`crate::ParallelCorrEngine`], the robust
//! plane, the blocked Pearson matrix, the batch cubes — cuts its work into
//! one contiguous part per thread of the width in force on the calling
//! thread and concatenates the parts in order, so its output is the same
//! to the bit at every width. At width 1 it runs on the calling thread and
//! creates no thread. The default width is the machine's [`cores`].
//!
//! A caller that already runs threads of its own — the MarketMiner worker
//! pool — gives each of them [`for_pool`]'s share and installs it with
//! [`with`], so that pool threads × width never exceeds the cores.

/// Cores this process may run on.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The width each thread of a pool of `workers` may use:
/// `max(1, cores / workers)`, so that `workers × width ≤ cores` whenever
/// `workers ≤ cores`, and the full machine at `workers = 1`.
pub fn for_pool(workers: usize) -> usize {
    (cores() / workers.max(1)).max(1)
}

/// Run `op` with every kernel it calls on this thread at most `width`
/// threads wide (`0` counts as 1).
pub fn with<R>(width: usize, op: impl FnOnce() -> R) -> R {
    rayon::ThreadPoolBuilder::new()
        .num_threads(width.max(1))
        .build()
        .expect("the in-tree pool builder cannot fail")
        .install(op)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_pool_never_holds_more_threads_than_cores() {
        let cores = cores();
        assert_eq!(for_pool(1), cores);
        assert_eq!(for_pool(0), cores, "no pool is a pool of one");
        for workers in 1..=2 * cores + 1 {
            let width = for_pool(workers);
            assert!(width >= 1);
            assert!(
                workers > cores || workers * width <= cores,
                "{workers} × {width}"
            );
        }
        assert_eq!(for_pool(cores), 1);
        assert_eq!(for_pool(cores + 1), 1);
    }

    #[test]
    fn with_installs_the_width_for_the_call_only() {
        let outside = rayon::current_num_threads();
        assert_eq!(with(1, rayon::current_num_threads), 1);
        assert_eq!(with(0, rayon::current_num_threads), 1);
        assert_eq!(with(3, || with(1, rayon::current_num_threads)), 1);
        assert_eq!(with(3, rayon::current_num_threads), 3);
        assert_eq!(rayon::current_num_threads(), outside);
    }
}
