//! Offline shim for `rayon`.
//!
//! Indexed parallel iterators executed with `std::thread::scope`: the input
//! index space is split into one contiguous chunk per worker, each worker
//! folds its chunk, and chunk results are merged in order — so `collect`
//! preserves input order and `min_by_key` keeps the first minimum, like
//! rayon. Small inputs run sequentially to avoid spawn overhead.
//!
//! Covered surface (what the workspace uses): `par_iter` on slices/`Vec`,
//! `into_par_iter` on integer ranges, `map` / `filter` / `filter_map` /
//! `zip` / `fold` + `reduce` / `collect` / `min_by_key` / `count`.
//! `zip` is index-aligned and therefore only valid on unfiltered inputs,
//! which is the only way the workspace uses it.

use std::ops::Range;
use std::sync::OnceLock;

pub mod prelude {
    pub use crate::{
        FromParallelIterator, IntoParallelIterator, IntoParallelRefIterator, ParallelIterator,
    };
}

/// Below this many items per would-be worker, fall back to one thread.
const MIN_ITEMS_PER_THREAD: usize = 8;

/// Worker ceiling: `RAYON_NUM_THREADS` when set to a positive integer
/// (mirroring real rayon's global-pool override, and letting determinism
/// tests vary the thread count), otherwise the machine's parallelism.
///
/// The variable is read per call rather than cached so tests can change it
/// between parallel sections within one process. The machine's parallelism
/// is read once per process: `available_parallelism` re-reads the cgroup
/// files on every call, which costs more than a small batch's work.
fn max_workers() -> usize {
    if let Ok(v) = std::env::var("RAYON_NUM_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    })
}

/// An input that fits one worker's minimum share runs on the caller's
/// thread whatever the ceiling is, so it is decided without asking.
fn worker_count(n_items: usize) -> usize {
    if n_items <= MIN_ITEMS_PER_THREAD {
        return 1;
    }
    max_workers()
        .min(n_items.div_ceil(MIN_ITEMS_PER_THREAD))
        .max(1)
}

/// Fold each chunk of the index space with `identity`/`fold_op`; returns the
/// per-chunk accumulators in chunk order.
fn chunked_fold<I, A, ID, F>(iter: &I, identity: &ID, fold_op: &F) -> Vec<A>
where
    I: ParallelIterator,
    A: Send,
    ID: Fn() -> A + Sync,
    F: Fn(A, I::Item) -> A + Sync,
{
    let n = iter.par_len();
    let workers = worker_count(n);
    let run_chunk = |range: Range<usize>| {
        let mut acc = identity();
        for i in range {
            if let Some(item) = iter.par_get(i) {
                acc = fold_op(acc, item);
            }
        }
        acc
    };
    if workers <= 1 {
        return vec![run_chunk(0..n)];
    }
    let chunk = n.div_ceil(workers);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let lo = w * chunk;
                let hi = ((w + 1) * chunk).min(n);
                let run = &run_chunk;
                scope.spawn(move || run(lo..hi))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
            })
            .collect()
    })
}

/// An indexed parallel iterator: a length plus random access to items, with
/// `None` marking elements removed by `filter`/`filter_map`.
pub trait ParallelIterator: Sized + Sync {
    type Item: Send;

    fn par_len(&self) -> usize;
    fn par_get(&self, index: usize) -> Option<Self::Item>;

    fn map<R, F>(self, f: F) -> Map<Self, F>
    where
        R: Send,
        F: Fn(Self::Item) -> R + Sync,
    {
        Map { base: self, f }
    }

    fn filter<F>(self, pred: F) -> Filter<Self, F>
    where
        F: Fn(&Self::Item) -> bool + Sync,
    {
        Filter { base: self, pred }
    }

    fn filter_map<R, F>(self, f: F) -> FilterMap<Self, F>
    where
        R: Send,
        F: Fn(Self::Item) -> Option<R> + Sync,
    {
        FilterMap { base: self, f }
    }

    /// Index-aligned zip; both sides must be unfiltered.
    fn zip<B: ParallelIterator>(self, other: B) -> Zip<Self, B> {
        Zip { a: self, b: other }
    }

    /// Parallel fold producing one accumulator per chunk; combine the chunk
    /// accumulators with [`Fold::reduce`].
    fn fold<A, ID, F>(self, identity: ID, fold_op: F) -> Fold<Self, ID, F>
    where
        A: Send,
        ID: Fn() -> A + Sync,
        F: Fn(A, Self::Item) -> A + Sync,
    {
        Fold {
            base: self,
            identity,
            fold_op,
        }
    }

    fn collect<C: FromParallelIterator<Self::Item>>(self) -> C {
        C::from_par_iter(self)
    }

    /// Minimum by key; ties resolve to the earliest item, as with a
    /// sequential iterator.
    fn min_by_key<K, F>(self, key: F) -> Option<Self::Item>
    where
        K: Ord + Send,
        F: Fn(&Self::Item) -> K + Sync,
    {
        let chunk_minima = chunked_fold(&self, &|| None, &|best: Option<(K, Self::Item)>, item| {
            let k = key(&item);
            match best {
                Some((bk, bitem)) if bk <= k => Some((bk, bitem)),
                _ => Some((k, item)),
            }
        });
        let mut overall: Option<(K, Self::Item)> = None;
        for candidate in chunk_minima.into_iter().flatten() {
            match &overall {
                Some((bk, _)) if *bk <= candidate.0 => {}
                _ => overall = Some(candidate),
            }
        }
        overall.map(|(_, item)| item)
    }

    fn count(self) -> usize {
        chunked_fold(&self, &|| 0usize, &|acc, _| acc + 1)
            .into_iter()
            .sum()
    }
}

/// Conversion into a parallel iterator (`rayon::iter::IntoParallelIterator`).
pub trait IntoParallelIterator {
    type Item: Send;
    type Iter: ParallelIterator<Item = Self::Item>;
    fn into_par_iter(self) -> Self::Iter;
}

/// `par_iter()` on anything whose reference converts (`&[T]`, `&Vec<T>`).
pub trait IntoParallelRefIterator<'data> {
    type Item: Send;
    type Iter: ParallelIterator<Item = Self::Item>;
    fn par_iter(&'data self) -> Self::Iter;
}

impl<'data, T: 'data + ?Sized> IntoParallelRefIterator<'data> for T
where
    &'data T: IntoParallelIterator,
{
    type Item = <&'data T as IntoParallelIterator>::Item;
    type Iter = <&'data T as IntoParallelIterator>::Iter;

    fn par_iter(&'data self) -> Self::Iter {
        self.into_par_iter()
    }
}

/// Parallel iterator over a shared slice.
pub struct ParSlice<'data, T: Sync> {
    slice: &'data [T],
}

impl<'data, T: Sync> ParallelIterator for ParSlice<'data, T> {
    type Item = &'data T;

    fn par_len(&self) -> usize {
        self.slice.len()
    }

    fn par_get(&self, index: usize) -> Option<&'data T> {
        Some(&self.slice[index])
    }
}

impl<'data, T: Sync> IntoParallelIterator for &'data [T] {
    type Item = &'data T;
    type Iter = ParSlice<'data, T>;

    fn into_par_iter(self) -> ParSlice<'data, T> {
        ParSlice { slice: self }
    }
}

impl<'data, T: Sync> IntoParallelIterator for &'data Vec<T> {
    type Item = &'data T;
    type Iter = ParSlice<'data, T>;

    fn into_par_iter(self) -> ParSlice<'data, T> {
        ParSlice { slice: self }
    }
}

/// Parallel iterator over an integer range.
pub struct ParRange<T> {
    start: T,
    len: usize,
}

macro_rules! par_range {
    ($($t:ty),*) => {$(
        impl ParallelIterator for ParRange<$t> {
            type Item = $t;

            fn par_len(&self) -> usize {
                self.len
            }

            fn par_get(&self, index: usize) -> Option<$t> {
                Some(self.start + index as $t)
            }
        }

        impl IntoParallelIterator for Range<$t> {
            type Item = $t;
            type Iter = ParRange<$t>;

            fn into_par_iter(self) -> ParRange<$t> {
                let len = if self.end > self.start {
                    (self.end - self.start) as usize
                } else {
                    0
                };
                ParRange { start: self.start, len }
            }
        }
    )*};
}

par_range!(u32, u64, usize, i32, i64);

pub struct Map<I, F> {
    base: I,
    f: F,
}

impl<I, R, F> ParallelIterator for Map<I, F>
where
    I: ParallelIterator,
    R: Send,
    F: Fn(I::Item) -> R + Sync,
{
    type Item = R;

    fn par_len(&self) -> usize {
        self.base.par_len()
    }

    fn par_get(&self, index: usize) -> Option<R> {
        self.base.par_get(index).map(&self.f)
    }
}

pub struct Filter<I, F> {
    base: I,
    pred: F,
}

impl<I, F> ParallelIterator for Filter<I, F>
where
    I: ParallelIterator,
    F: Fn(&I::Item) -> bool + Sync,
{
    type Item = I::Item;

    fn par_len(&self) -> usize {
        self.base.par_len()
    }

    fn par_get(&self, index: usize) -> Option<I::Item> {
        self.base.par_get(index).filter(|item| (self.pred)(item))
    }
}

pub struct FilterMap<I, F> {
    base: I,
    f: F,
}

impl<I, R, F> ParallelIterator for FilterMap<I, F>
where
    I: ParallelIterator,
    R: Send,
    F: Fn(I::Item) -> Option<R> + Sync,
{
    type Item = R;

    fn par_len(&self) -> usize {
        self.base.par_len()
    }

    fn par_get(&self, index: usize) -> Option<R> {
        self.base.par_get(index).and_then(&self.f)
    }
}

pub struct Zip<A, B> {
    a: A,
    b: B,
}

impl<A, B> ParallelIterator for Zip<A, B>
where
    A: ParallelIterator,
    B: ParallelIterator,
{
    type Item = (A::Item, B::Item);

    fn par_len(&self) -> usize {
        self.a.par_len().min(self.b.par_len())
    }

    fn par_get(&self, index: usize) -> Option<(A::Item, B::Item)> {
        Some((self.a.par_get(index)?, self.b.par_get(index)?))
    }
}

/// Deferred parallel fold; finish it with [`Fold::reduce`].
pub struct Fold<I, ID, F> {
    base: I,
    identity: ID,
    fold_op: F,
}

impl<I, A, ID, F> Fold<I, ID, F>
where
    I: ParallelIterator,
    A: Send,
    ID: Fn() -> A + Sync,
    F: Fn(A, I::Item) -> A + Sync,
{
    /// Combine the per-chunk accumulators in chunk order.
    pub fn reduce<ID2, G>(self, identity: ID2, reduce_op: G) -> A
    where
        ID2: Fn() -> A,
        G: Fn(A, A) -> A,
    {
        chunked_fold(&self.base, &self.identity, &self.fold_op)
            .into_iter()
            .fold(identity(), reduce_op)
    }
}

/// Collection from a parallel iterator (`Vec` only).
pub trait FromParallelIterator<T: Send>: Sized {
    fn from_par_iter<I: ParallelIterator<Item = T>>(iter: I) -> Self;
}

impl<T: Send> FromParallelIterator<T> for Vec<T> {
    fn from_par_iter<I: ParallelIterator<Item = T>>(iter: I) -> Vec<T> {
        let chunks = chunked_fold(&iter, &Vec::new, &|mut acc: Vec<T>, item| {
            acc.push(item);
            acc
        });
        let mut out = Vec::with_capacity(chunks.iter().map(Vec::len).sum());
        for chunk in chunks {
            out.extend(chunk);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn collect_preserves_order() {
        let v: Vec<u64> = (0..10_000u64).collect();
        let doubled: Vec<u64> = v.par_iter().map(|x| x * 2).collect();
        assert_eq!(doubled.len(), 10_000);
        assert!(doubled.iter().enumerate().all(|(i, &x)| x == i as u64 * 2));
    }

    #[test]
    fn filter_and_filter_map() {
        let v: Vec<i64> = (0..1000).collect();
        let evens: Vec<&i64> = v.par_iter().filter(|x| **x % 2 == 0).collect();
        assert_eq!(evens.len(), 500);
        let odds: Vec<i64> = v
            .par_iter()
            .filter_map(|x| (x % 2 == 1).then_some(*x))
            .collect();
        assert_eq!(odds.first(), Some(&1));
        assert_eq!(odds.len(), 500);
    }

    #[test]
    fn zip_fold_reduce_matches_sequential() {
        let a: Vec<f64> = (0..5000).map(|i| i as f64).collect();
        let b: Vec<f64> = (0..5000).map(|i| (i * 2) as f64).collect();
        let dot = a
            .par_iter()
            .zip(b.par_iter())
            .fold(|| 0.0, |acc, (x, y)| acc + x * y)
            .reduce(|| 0.0, |p, q| p + q);
        let seq: f64 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
        assert!((dot - seq).abs() < 1e-6 * seq.abs());
    }

    #[test]
    fn min_by_key_takes_first_minimum() {
        let v = vec![(3u32, 'a'), (1, 'b'), (1, 'c'), (2, 'd')];
        let m = v.par_iter().min_by_key(|&&(k, _)| k);
        assert_eq!(m, Some(&(1, 'b')));
    }

    #[test]
    fn range_into_par_iter() {
        let squares: Vec<usize> = (0..100usize).into_par_iter().map(|i| i * i).collect();
        assert_eq!(squares[99], 9801);
        assert_eq!((0..0usize).into_par_iter().count(), 0);
    }

    #[test]
    fn actually_uses_multiple_threads() {
        if std::thread::available_parallelism()
            .map(|c| c.get())
            .unwrap_or(1)
            < 2
        {
            return; // single-core runner: nothing to check
        }
        let v: Vec<u64> = (0..100_000).collect();
        let ids: Vec<std::thread::ThreadId> =
            v.par_iter().map(|_| std::thread::current().id()).collect();
        let distinct: std::collections::HashSet<_> = ids.iter().collect();
        assert!(distinct.len() > 1, "expected work on more than one thread");
    }
}
