//! Offline stand-in for the subset of [rayon](https://docs.rs/rayon) this
//! workspace uses.
//!
//! The build container has no access to crates.io, so the real rayon cannot
//! be fetched. This crate re-implements the API surface the workspace calls
//! — `into_par_iter` on ranges and vectors, `par_iter_mut`/`par_chunks_mut`
//! on slices, `map`/`enumerate`/`for_each`/`collect`, and
//! `ThreadPoolBuilder`/`ThreadPool::install` — on top of `std::thread::scope`.
//!
//! The model is rayon's *indexed producer*: every parallel iterator is a
//! splittable, ordered source. The driver splits the source into one
//! contiguous part per worker thread and concatenates results in order, so
//! output order (and therefore floating-point results) is identical at every
//! thread count — a property the workspace's determinism tests rely on.
//! A part that panics re-raises its own payload on the caller, the
//! lowest-indexed such part first, which is the panic an inline run of the
//! same items would raise.

use std::cell::Cell;
use std::ops::Range;
use std::panic::resume_unwind;
use std::sync::OnceLock;

thread_local! {
    /// Thread-count override installed by [`ThreadPool::install`]; 0 means
    /// "use the global default".
    static CURRENT_THREADS: Cell<usize> = const { Cell::new(0) };
}

fn default_threads() -> usize {
    static N: OnceLock<usize> = OnceLock::new();
    *N.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Number of worker threads parallel drivers will use right now.
pub fn current_num_threads() -> usize {
    let cur = CURRENT_THREADS.with(|c| c.get());
    if cur == 0 {
        default_threads()
    } else {
        cur
    }
}

/// An ordered, splittable source of items — rayon's indexed-producer model.
pub trait Producer: Sized + Send {
    /// Item type produced.
    type Item: Send;
    /// Sequential iterator over this part.
    type IntoSeq: Iterator<Item = Self::Item>;

    /// Remaining number of items.
    fn len(&self) -> usize;
    /// True when no items remain.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Split into `[0, index)` and `[index, len)`.
    fn split_at(self, index: usize) -> (Self, Self);
    /// Consume this part sequentially.
    fn into_seq(self) -> Self::IntoSeq;
}

/// The parallel-iterator combinators available on every producer.
pub trait ParallelIterator: Producer {
    /// Map each item through `f`.
    fn map<R, F>(self, f: F) -> Map<Self, F>
    where
        R: Send,
        F: Fn(Self::Item) -> R + Sync + Send + Clone,
    {
        Map { base: self, f }
    }

    /// Pair each item with its global index.
    fn enumerate(self) -> Enumerate<Self> {
        Enumerate {
            base: self,
            offset: 0,
        }
    }

    /// Run `f` on every item, in parallel across contiguous parts.
    fn for_each<F>(self, f: F)
    where
        F: Fn(Self::Item) + Sync + Send + Clone,
    {
        drive_for_each(self, f);
    }

    /// Collect items, preserving source order.
    fn collect<C>(self) -> C
    where
        C: FromIterator<Self::Item>,
    {
        drive_collect(self).into_iter().collect()
    }

    /// Sum the items.
    fn sum<S>(self) -> S
    where
        S: std::iter::Sum<Self::Item>,
    {
        drive_collect(self).into_iter().sum()
    }
}

impl<P: Producer> ParallelIterator for P {}

/// Split a producer into at most `parts` contiguous pieces of near-equal
/// length.
fn split_even<P: Producer>(p: P, parts: usize) -> Vec<P> {
    let n = p.len();
    let parts = parts.clamp(1, n.max(1));
    let mut out = Vec::with_capacity(parts);
    let mut rest = p;
    for k in 0..parts {
        let remaining_parts = parts - k;
        let take = rest.len().div_ceil(remaining_parts);
        if remaining_parts == 1 || take >= rest.len() {
            out.push(rest);
            return out;
        }
        let (head, tail) = rest.split_at(take);
        out.push(head);
        rest = tail;
    }
    out
}

fn drive_collect<P: Producer>(p: P) -> Vec<P::Item> {
    let threads = current_num_threads();
    if threads <= 1 || p.len() <= 1 {
        return p.into_seq().collect();
    }
    let parts = split_even(p, threads);
    let mut results: Vec<Vec<P::Item>> = Vec::with_capacity(parts.len());
    std::thread::scope(|s| {
        let handles: Vec<_> = parts
            .into_iter()
            .map(|part| s.spawn(move || part.into_seq().collect::<Vec<_>>()))
            .collect();
        for h in handles {
            results.push(h.join().unwrap_or_else(|payload| resume_unwind(payload)));
        }
    });
    let mut out = Vec::with_capacity(results.iter().map(Vec::len).sum());
    for r in results {
        out.extend(r);
    }
    out
}

fn drive_for_each<P, F>(p: P, f: F)
where
    P: Producer,
    F: Fn(P::Item) + Sync + Send + Clone,
{
    let threads = current_num_threads();
    if threads <= 1 || p.len() <= 1 {
        for item in p.into_seq() {
            f(item);
        }
        return;
    }
    let parts = split_even(p, threads);
    std::thread::scope(|s| {
        let handles: Vec<_> = parts
            .into_iter()
            .map(|part| {
                let f = f.clone();
                s.spawn(move || {
                    for item in part.into_seq() {
                        f(item);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap_or_else(|payload| resume_unwind(payload));
        }
    });
}

// ---------------------------------------------------------------------------
// Sources
// ---------------------------------------------------------------------------

/// Parallel iterator over a `Range<usize>`.
pub struct RangeIter {
    range: Range<usize>,
}

impl Producer for RangeIter {
    type Item = usize;
    type IntoSeq = Range<usize>;

    fn len(&self) -> usize {
        self.range.len()
    }
    fn split_at(self, index: usize) -> (Self, Self) {
        let mid = self.range.start + index;
        (
            RangeIter {
                range: self.range.start..mid,
            },
            RangeIter {
                range: mid..self.range.end,
            },
        )
    }
    fn into_seq(self) -> Self::IntoSeq {
        self.range
    }
}

/// Parallel iterator over an owned `Vec<T>`.
pub struct VecIter<T: Send> {
    items: Vec<T>,
}

impl<T: Send> Producer for VecIter<T> {
    type Item = T;
    type IntoSeq = std::vec::IntoIter<T>;

    fn len(&self) -> usize {
        self.items.len()
    }
    fn split_at(mut self, index: usize) -> (Self, Self) {
        let tail = self.items.split_off(index);
        (self, VecIter { items: tail })
    }
    fn into_seq(self) -> Self::IntoSeq {
        self.items.into_iter()
    }
}

/// Parallel iterator over `&mut [T]`.
pub struct IterMut<'a, T: Send> {
    slice: &'a mut [T],
}

impl<'a, T: Send> Producer for IterMut<'a, T> {
    type Item = &'a mut T;
    type IntoSeq = std::slice::IterMut<'a, T>;

    fn len(&self) -> usize {
        self.slice.len()
    }
    fn split_at(self, index: usize) -> (Self, Self) {
        let (a, b) = self.slice.split_at_mut(index);
        (IterMut { slice: a }, IterMut { slice: b })
    }
    fn into_seq(self) -> Self::IntoSeq {
        self.slice.iter_mut()
    }
}

/// Parallel iterator over non-overlapping mutable chunks of a slice.
pub struct ChunksMut<'a, T: Send> {
    slice: &'a mut [T],
    size: usize,
}

impl<'a, T: Send> Producer for ChunksMut<'a, T> {
    type Item = &'a mut [T];
    type IntoSeq = std::slice::ChunksMut<'a, T>;

    fn len(&self) -> usize {
        self.slice.len().div_ceil(self.size)
    }
    fn split_at(self, index: usize) -> (Self, Self) {
        let elems = (index * self.size).min(self.slice.len());
        let (a, b) = self.slice.split_at_mut(elems);
        (
            ChunksMut {
                slice: a,
                size: self.size,
            },
            ChunksMut {
                slice: b,
                size: self.size,
            },
        )
    }
    fn into_seq(self) -> Self::IntoSeq {
        self.slice.chunks_mut(self.size)
    }
}

// ---------------------------------------------------------------------------
// Adapters
// ---------------------------------------------------------------------------

/// `map` adapter.
pub struct Map<P, F> {
    base: P,
    f: F,
}

impl<P, R, F> Producer for Map<P, F>
where
    P: Producer,
    R: Send,
    F: Fn(P::Item) -> R + Sync + Send + Clone,
{
    type Item = R;
    type IntoSeq = std::iter::Map<P::IntoSeq, F>;

    fn len(&self) -> usize {
        self.base.len()
    }
    fn split_at(self, index: usize) -> (Self, Self) {
        let (a, b) = self.base.split_at(index);
        (
            Map {
                base: a,
                f: self.f.clone(),
            },
            Map { base: b, f: self.f },
        )
    }
    fn into_seq(self) -> Self::IntoSeq {
        self.base.into_seq().map(self.f)
    }
}

/// `enumerate` adapter (global indices survive splitting).
pub struct Enumerate<P> {
    base: P,
    offset: usize,
}

impl<P: Producer> Producer for Enumerate<P> {
    type Item = (usize, P::Item);
    type IntoSeq = EnumerateSeq<P::IntoSeq>;

    fn len(&self) -> usize {
        self.base.len()
    }
    fn split_at(self, index: usize) -> (Self, Self) {
        let (a, b) = self.base.split_at(index);
        (
            Enumerate {
                base: a,
                offset: self.offset,
            },
            Enumerate {
                base: b,
                offset: self.offset + index,
            },
        )
    }
    fn into_seq(self) -> Self::IntoSeq {
        EnumerateSeq {
            inner: self.base.into_seq(),
            next: self.offset,
        }
    }
}

/// Sequential side of [`Enumerate`].
pub struct EnumerateSeq<I> {
    inner: I,
    next: usize,
}

impl<I: Iterator> Iterator for EnumerateSeq<I> {
    type Item = (usize, I::Item);

    fn next(&mut self) -> Option<Self::Item> {
        let item = self.inner.next()?;
        let idx = self.next;
        self.next += 1;
        Some((idx, item))
    }
}

// ---------------------------------------------------------------------------
// Entry-point traits
// ---------------------------------------------------------------------------

/// Conversion into a parallel iterator by value.
pub trait IntoParallelIterator {
    /// The resulting parallel iterator.
    type Iter: ParallelIterator<Item = Self::Item>;
    /// Item type.
    type Item: Send;
    /// Convert.
    fn into_par_iter(self) -> Self::Iter;
}

impl IntoParallelIterator for Range<usize> {
    type Iter = RangeIter;
    type Item = usize;
    fn into_par_iter(self) -> RangeIter {
        RangeIter { range: self }
    }
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Iter = VecIter<T>;
    type Item = T;
    fn into_par_iter(self) -> VecIter<T> {
        VecIter { items: self }
    }
}

/// `par_iter_mut` / `par_chunks_mut` on slices (and, via deref, vectors).
pub trait ParallelSliceMut<T: Send> {
    /// Parallel iterator of `&mut T`.
    fn par_iter_mut(&mut self) -> IterMut<'_, T>;
    /// Parallel iterator of non-overlapping `&mut [T]` chunks.
    ///
    /// # Panics
    /// Panics if `size == 0`.
    fn par_chunks_mut(&mut self, size: usize) -> ChunksMut<'_, T>;
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn par_iter_mut(&mut self) -> IterMut<'_, T> {
        IterMut { slice: self }
    }
    fn par_chunks_mut(&mut self, size: usize) -> ChunksMut<'_, T> {
        assert!(size > 0, "chunk size must be non-zero");
        ChunksMut { slice: self, size }
    }
}

/// One-stop import, mirroring `rayon::prelude`.
pub mod prelude {
    pub use crate::{IntoParallelIterator, ParallelIterator, ParallelSliceMut};
}

// ---------------------------------------------------------------------------
// Thread pool
// ---------------------------------------------------------------------------

/// Error from [`ThreadPoolBuilder::build`]. Never actually produced.
#[derive(Debug)]
pub struct ThreadPoolBuildError;

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("thread pool build error")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

/// Builder mirroring `rayon::ThreadPoolBuilder`.
#[derive(Debug, Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

impl ThreadPoolBuilder {
    /// Fresh builder with the default thread count.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the worker count (0 = default).
    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = n;
        self
    }

    /// Build the pool. Infallible in this shim.
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        let n = if self.num_threads == 0 {
            default_threads()
        } else {
            self.num_threads
        };
        Ok(ThreadPool { num_threads: n })
    }
}

/// A scoped thread-count override. Parallel drivers invoked inside
/// [`ThreadPool::install`] split work across this pool's thread count.
#[derive(Debug)]
pub struct ThreadPool {
    num_threads: usize,
}

impl ThreadPool {
    /// Worker count of this pool.
    pub fn current_num_threads(&self) -> usize {
        self.num_threads
    }

    /// Run `op` with this pool's thread count installed.
    pub fn install<R>(&self, op: impl FnOnce() -> R) -> R {
        CURRENT_THREADS.with(|c| {
            let prev = c.get();
            c.set(self.num_threads);
            let out = op();
            c.set(prev);
            out
        })
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::*;

    #[test]
    fn range_map_collect_preserves_order() {
        let v: Vec<usize> = (0..1000).into_par_iter().map(|i| i * 2).collect();
        assert_eq!(v.len(), 1000);
        assert!(v.iter().enumerate().all(|(i, &x)| x == i * 2));
    }

    #[test]
    fn par_iter_mut_enumerate_for_each() {
        let mut v = vec![0usize; 500];
        v.par_iter_mut().enumerate().for_each(|(i, x)| *x = i + 1);
        assert!(v.iter().enumerate().all(|(i, &x)| x == i + 1));
    }

    #[test]
    fn par_chunks_mut_covers_all_elements() {
        let mut v = vec![0u32; 103];
        v.par_chunks_mut(10).enumerate().for_each(|(k, chunk)| {
            for x in chunk {
                *x = k as u32;
            }
        });
        for (i, &x) in v.iter().enumerate() {
            assert_eq!(x, (i / 10) as u32);
        }
    }

    #[test]
    fn install_overrides_thread_count() {
        let pool = ThreadPoolBuilder::new().num_threads(1).build().unwrap();
        assert_eq!(pool.install(current_num_threads), 1);
        assert_ne!(current_num_threads(), 0);
    }

    /// A panic in a part run on a scoped thread reaches the caller as its
    /// own payload — the one the same items raise run inline.
    #[test]
    fn a_part_panic_keeps_its_payload_at_every_thread_count() {
        let payload = |threads: usize, collect: bool| {
            let pool = ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            let items = || (0..12).into_par_iter();
            let caught = std::panic::catch_unwind(|| {
                pool.install(|| {
                    let check = |i: usize| {
                        if i >= 9 {
                            panic!("item {i} failed");
                        }
                    };
                    if collect {
                        let _: Vec<()> = items().map(check).collect();
                    } else {
                        items().for_each(check);
                    }
                })
            });
            let payload = caught.expect_err("item 9 panics");
            payload
                .downcast::<String>()
                .map(|s| *s)
                .expect("a String payload")
        };
        for collect in [false, true] {
            for threads in [1, 2, 3, 4] {
                assert_eq!(
                    payload(threads, collect),
                    "item 9 failed",
                    "{threads} threads"
                );
            }
        }
    }

    #[test]
    fn vec_into_par_iter() {
        let v: Vec<i64> = (0..100).collect();
        let sum: i64 = v.into_par_iter().map(|x| x * x).sum();
        assert_eq!(sum, (0..100).map(|x| x * x).sum());
    }
}
