//! Statistical kernels for the pair-trading reproduction.
//!
//! This crate provides everything the MarketMiner correlation engine and the
//! backtester need from numerical land:
//!
//! * [`matrix`] — dense symmetric matrices with packed lower-triangular
//!   storage, the natural container for correlation matrices.
//! * [`linalg`] — Cholesky factorisation (used both to *generate* correlated
//!   synthetic markets and to *test* positive semi-definiteness) and a Jacobi
//!   eigensolver (used by PSD repair).
//! * [`descriptive`] — the summary statistics reported in Tables III–V of the
//!   paper: mean, median, standard deviation, Sharpe ratio, skewness,
//!   kurtosis, quartiles and full box-plot statistics (Figure 2).
//! * [`online`] — Welford-style streaming moments and rolling-window moments.
//! * [`pearson`] — classical product-moment correlation: batch form, an
//!   O(1)-per-step sliding-window engine, and the shared incremental
//!   machinery (per-stock window moments + running cross products) behind
//!   the all-pairs sweeps.
//! * [`blocked`] — the cache-blocked all-pairs Pearson kernel: z-score every
//!   window once, then compute the matrix as a tiled `Z·Zᵀ`.
//! * [`quadrant`] — quadrant (sign) correlation, the cheap robust screen.
//! * [`maronna`] — the robust bivariate M-estimator of Maronna (1976) as
//!   parallelised by Chilson, Ng, Wagner and Zamar (2006).
//! * [`combined`] — MarketMiner's two-stage estimator: quadrant pre-screen
//!   with Maronna refinement of highly-correlated pairs.
//! * [`correlation`] — a common [`correlation::CorrelationMeasure`] trait and
//!   the [`correlation::CorrType`] treatment enum used throughout the
//!   backtester.
//! * [`parallel`] — the rayon-parallel all-pairs correlation-matrix engine,
//!   the enabling kernel of the whole system.
//! * [`psd`] — positive semi-definiteness checking and eigenvalue-clipping
//!   repair for matrices assembled from independent pairwise estimates (the
//!   Approach-2 caveat in the paper).
//! * [`simd`] — runtime-dispatched 4-wide f64 primitives (AVX2 with a
//!   bit-identical scalar fallback) behind the hot correlation kernels.
//! * [`sliding_matrix`] — an O(1)-per-step online all-pairs Pearson matrix
//!   (the "online fashion" of the paper's Section II).
//! * [`inference`] — Welch's t-test and the Mann–Whitney U test, the
//!   "simple inferential statistical tests" Section V defers to future
//!   work.
//! * [`width`] — how many threads one call of a parallel kernel may use:
//!   the one way to ask for a sequential kernel, and the share a caller's
//!   own thread pool leaves each of its threads.

pub mod blocked;
pub mod combined;
pub mod correlation;
pub mod descriptive;
pub mod inference;
pub mod linalg;
pub mod maronna;
pub mod matrix;
pub mod online;
pub mod parallel;
pub mod pearson;
pub mod psd;
pub mod quadrant;
pub mod simd;
pub mod sliding_matrix;
pub mod width;

pub use combined::CombinedEstimator;
pub use correlation::{CorrType, CorrelationMeasure};
pub use descriptive::{BoxPlot, Summary};
pub use maronna::MaronnaEstimator;
pub use matrix::SymMatrix;
pub use parallel::ParallelCorrEngine;
pub use pearson::PearsonEstimator;
pub use quadrant::QuadrantEstimator;
pub use sliding_matrix::OnlineCorrMatrix;
