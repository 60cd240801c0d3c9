//! Empty. This in-tree stand-in for `crossbeam::channel` has no users
//! left: `backtest::jobfarm` takes its queue from `std::sync::mpsc`. It
//! stays a crate only because the `backtest` and `marketminer` manifests
//! and both lockfiles still name it; those edges go in the change that
//! regenerates `benchmark/Cargo.lock`, and this directory with them.
