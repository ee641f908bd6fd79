//! With-loop array comprehensions.
//!
//! The with-loop is SaC's only compound array construct (paper,
//! Section 2): a list of *generators* (rectangular index sets), each
//! associated with an expression over the index vector, consumed by one
//! of three operators:
//!
//! * `genarray(shape, default)` — build a new array of `shape`; elements
//!   covered by no generator take `default`; where generators overlap,
//!   **the later generator wins** (the paper's `[0,1,1,2,2,0]` example).
//! * `modarray(base)` — like `genarray` but uncovered elements come from
//!   the same position of an existing array.
//! * `fold(neutral, op)` — reduce the values computed by the generators
//!   with an associative operator.
//!
//! Because generators impose no iteration order, evaluation is
//! data-parallel: the engine partitions each generator's index set into
//! chunks and fills disjoint slices of the result concurrently on a
//! [`Pool`]. Sequential and parallel evaluation are observably
//! identical (a property test in this module checks it against a
//! per-element walk of [`Generator::delinearize`]).
//!
//! ## The engine works by the run
//!
//! [`Generator::for_each_run`] hands out an index set as *runs*:
//! stretches of indices that are consecutive along the last axis — a
//! whole generator row, or one `width` block of a strided one. Storage
//! is row-major, so the last axis has stride 1 and a run of `n`
//! indices starting at `iv` is the slice `lin .. lin + n` of the result
//! with `lin = shape.linearize(iv)`. Everything the engine itself does
//! happens once per run: the odometer step, the checked `linearize`
//! (and its `expect`), the bounds check of the slice, and the one
//! indirect call into the type-erased body (the private `RunBody`
//! trait). Inside that call the inner loop is monomorphised over the
//! user's closure, so the closure is inlined and an element costs what
//! the expression costs.
//!
//! For ranks 1–3 the inner loop builds each index vector from
//! registers (`body(&[i, j + k])`): the closure sees a fixed-length
//! array, so its `iv[0]` / `iv[1]` are neither loads nor bounds
//! checks. Any other rank advances `iv[last]` in place in one buffer.
//!
//! What stays checked: generators against the result shape before
//! anything is written, every run's start through `Shape::linearize`,
//! every run's extent against the length of the storage. `fold`
//! collects a run's values (at most `FOLD_BUF` = 1024 at a time) before
//! combining them, in order: values meet `op` in generator-major,
//! row-major order exactly as before, only the *body* calls of a chunk
//! now precede its `op` calls — which the with-loop's "no order on the
//! index set" licenses.

use crate::array::Array;
use crate::error::Result;
use crate::generator::Generator;
use crate::parallel::{Pool, DEFAULT_GRAIN, PAR_THRESHOLD};
use crate::shape::Shape;
use std::ops::Range;

/// A generator body, erased once per run rather than once per element:
/// both methods evaluate the closure at `iv`, `iv + e`, … along the
/// last axis (`e` its unit vector) and leave `iv` as they found it.
/// Implemented for every `Fn(&[usize]) -> T + Send + Sync`.
trait RunBody<T>: Send + Sync {
    /// Overwrites `out` with the values of the `out.len()` indices
    /// starting at `iv`.
    fn fill(&self, iv: &mut [usize], out: &mut [T]);
    /// Appends the values of the `n` indices starting at `iv` to `out`.
    fn emit(&self, iv: &mut [usize], n: usize, out: &mut Vec<T>);
}

impl<T, F: Fn(&[usize]) -> T + Send + Sync> RunBody<T> for F {
    fn fill(&self, iv: &mut [usize], out: &mut [T]) {
        along_run(self, iv, out.len(), out);
    }

    fn emit(&self, iv: &mut [usize], n: usize, out: &mut Vec<T>) {
        along_run(self, iv, n, out);
    }
}

/// Where the values of a run go. A trait only because the iterator it
/// takes has a different type for every rank, which a closure
/// parameter cannot be generic over.
trait RunSink<T> {
    fn take(self, values: impl Iterator<Item = T>);
}

impl<T> RunSink<T> for &mut [T] {
    #[inline(always)]
    fn take(self, values: impl Iterator<Item = T>) {
        self.iter_mut().zip(values).for_each(|(o, v)| *o = v);
    }
}

impl<T> RunSink<T> for &mut Vec<T> {
    #[inline(always)]
    fn take(self, values: impl Iterator<Item = T>) {
        self.extend(values);
    }
}

/// Hands `sink` the values `body(iv + k·e)` for `k` in `0..n`.
#[inline(always)]
fn along_run<T>(body: &impl Fn(&[usize]) -> T, iv: &mut [usize], n: usize, sink: impl RunSink<T>) {
    match *iv {
        [i] => sink.take((0..n).map(|k| body(&[i + k]))),
        [i, j] => sink.take((0..n).map(|k| body(&[i, j + k]))),
        [i, j, l] => sink.take((0..n).map(|k| body(&[i, j, l + k]))),
        // Rank 0 has the one empty index vector, so `n` is 1.
        [] => sink.take(std::iter::once(body(&[]))),
        [.., first] => {
            let last = iv.len() - 1;
            sink.take((0..n).map(|k| {
                iv[last] = first + k;
                body(iv)
            }));
            iv[last] = first;
        }
    }
}

/// Most values `fold` buffers between two rounds of `op`: enough to
/// amortise the call into the body, small enough that a long rank-1
/// generator does not materialise itself.
const FOLD_BUF: usize = 1024;

/// One `(generator) : expression` part of a with-loop.
struct Part<'a, T> {
    generator: Generator,
    body: Box<dyn RunBody<T> + 'a>,
}

/// A with-loop under construction. Parts are kept in source order, which
/// is semantically significant on overlap.
pub struct WithLoop<'a, T> {
    parts: Vec<Part<'a, T>>,
}

impl<'a, T> Default for WithLoop<'a, T> {
    fn default() -> Self {
        WithLoop { parts: Vec::new() }
    }
}

/// Evaluation strategy for a with-loop.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Eval {
    /// Single-threaded reference evaluation.
    Sequential,
    /// Chunked evaluation on the global pool when the index space is
    /// large enough (SaC's "multithreaded code generation enabled").
    Auto,
}

impl<'a, T: Clone + Send + Sync> WithLoop<'a, T> {
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a generator with a computed body.
    pub fn gen(
        mut self,
        generator: Generator,
        body: impl Fn(&[usize]) -> T + Send + Sync + 'a,
    ) -> Self {
        self.parts.push(Part {
            generator,
            body: Box::new(body),
        });
        self
    }

    /// Adds a generator with a constant body, e.g. the paper's
    /// `([0,0] <= iv < [3,5]) : 42`.
    pub fn gen_const(self, generator: Generator, value: T) -> Self
    where
        T: 'a,
    {
        self.gen(generator, move |_| value.clone())
    }

    fn check_generators(&self, shape: &Shape) -> Result<()> {
        for p in &self.parts {
            p.generator.check_within(shape)?;
        }
        Ok(())
    }

    /// `genarray(shape, default)` on the global pool (parallel when the
    /// result is large enough).
    pub fn genarray(self, shape: impl Into<Shape>, default: T) -> Result<Array<T>> {
        self.genarray_on(Pool::global(), Eval::Auto, shape, default)
    }

    /// Sequential reference version of [`WithLoop::genarray`].
    pub fn genarray_seq(self, shape: impl Into<Shape>, default: T) -> Result<Array<T>> {
        self.genarray_on(Pool::global(), Eval::Sequential, shape, default)
    }

    /// `genarray` with explicit pool and strategy (used by the scaling
    /// benchmarks).
    pub fn genarray_on(
        self,
        pool: &Pool,
        eval: Eval,
        shape: impl Into<Shape>,
        default: T,
    ) -> Result<Array<T>> {
        let shape = shape.into();
        self.check_generators(&shape)?;
        let n = shape.size();
        let mut data = vec![default; n];
        self.fill(pool, eval, &shape, &mut data);
        Array::new(shape, data)
    }

    /// `modarray(base)` on the global pool.
    pub fn modarray(self, base: &Array<T>) -> Result<Array<T>> {
        self.modarray_on(Pool::global(), Eval::Auto, base)
    }

    /// Sequential reference version of [`WithLoop::modarray`].
    pub fn modarray_seq(self, base: &Array<T>) -> Result<Array<T>> {
        self.modarray_on(Pool::global(), Eval::Sequential, base)
    }

    /// `modarray` with explicit pool and strategy.
    pub fn modarray_on(self, pool: &Pool, eval: Eval, base: &Array<T>) -> Result<Array<T>> {
        let shape = base.shape().clone();
        self.check_generators(&shape)?;
        // `base` stays alive in the caller, so the storage is shared
        // and this is always the one copy of the base a `modarray`
        // makes; the generators then overwrite the copy in place.
        let mut out = base.clone();
        let data = out.make_mut();
        self.fill(pool, eval, &shape, data);
        Ok(out)
    }

    /// Writes every generator part into `data` (row-major storage of
    /// `shape`), later parts overwriting earlier ones on overlap.
    fn fill(&self, pool: &Pool, eval: Eval, shape: &Shape, data: &mut [T]) {
        let out = RawSlice {
            ptr: data.as_mut_ptr(),
            len: data.len(),
        };
        for part in &self.parts {
            let count = part.generator.count();
            if eval.forks(pool, count) {
                pool.parallel_for(count, DEFAULT_GRAIN, |range| {
                    part.fill_range(shape, &out, range)
                });
            } else {
                part.fill_range(shape, &out, 0..count);
            }
        }
    }

    /// `fold(neutral, op)`: reduces the values produced by all generator
    /// parts. `op` must be associative; parallel evaluation combines
    /// per-chunk partial folds in chunk order, so non-commutative (but
    /// associative) operators still fold deterministically.
    pub fn fold(self, neutral: T, op: impl Fn(T, T) -> T + Send + Sync) -> T {
        self.fold_on(Pool::global(), Eval::Auto, neutral, op)
    }

    /// Sequential reference version of [`WithLoop::fold`].
    pub fn fold_seq(self, neutral: T, op: impl Fn(T, T) -> T + Send + Sync) -> T {
        self.fold_on(Pool::global(), Eval::Sequential, neutral, op)
    }

    /// `fold` with explicit pool and strategy.
    pub fn fold_on(
        self,
        pool: &Pool,
        eval: Eval,
        neutral: T,
        op: impl Fn(T, T) -> T + Send + Sync,
    ) -> T {
        let mut acc = neutral.clone();
        for part in &self.parts {
            let count = part.generator.count();
            if !eval.forks(pool, count) {
                acc = part.fold_range(0..count, acc, &op);
                continue;
            }
            let grain = DEFAULT_GRAIN.max(count / (pool.threads() * 8).max(1));
            let partials: Vec<parking_lot::Mutex<Option<T>>> = (0..count.div_ceil(grain))
                .map(|_| parking_lot::Mutex::new(None))
                .collect();
            pool.parallel_for(count, grain, |range| {
                let chunk = range.start / grain;
                *partials[chunk].lock() = Some(part.fold_range(range, neutral.clone(), &op));
            });
            for cell in partials {
                if let Some(v) = cell.into_inner() {
                    acc = op(acc, v);
                }
            }
        }
        acc
    }
}

impl Eval {
    /// Whether a generator of `count` indices is worth chunking across
    /// `pool`.
    fn forks(self, pool: &Pool, count: usize) -> bool {
        self == Eval::Auto && count >= PAR_THRESHOLD && pool.threads() > 1
    }
}

impl<T> Part<'_, T> {
    /// Writes the body's values at the generator's ordinals `range`
    /// into `out`, the row-major storage of `shape`. THE loop of
    /// `genarray` and `modarray`: the sequential arm calls it once with
    /// `0..count`, the pooled arm once per chunk.
    fn fill_range(&self, shape: &Shape, out: &RawSlice<T>, range: Range<usize>) {
        self.generator.for_each_run(range, |iv, n| {
            let lin = shape.linearize(iv).expect("generator checked within shape");
            assert!(lin <= out.len && n <= out.len - lin, "run leaves the array");
            // SAFETY: `out` is the exclusively borrowed storage `fill`
            // was handed, every element of it initialised, and
            // `lin .. lin + n` lies inside it (the assert above). No
            // other live reference overlaps the slice: the ordinals of
            // one generator map to distinct elements, a run covers
            // exactly the elements of its own ordinals, and concurrent
            // calls hold disjoint ordinal ranges of the same part (the
            // chunks of one `parallel_for`, which returns before the
            // next part starts); within a call the slice of one run is
            // gone before the next is made.
            let run = unsafe { std::slice::from_raw_parts_mut(out.ptr.add(lin), n) };
            self.body.fill(iv, run);
        });
    }

    /// Folds the body's values at the generator's ordinals `range` onto
    /// `acc`, in order. THE loop of `fold`, sequential and pooled.
    fn fold_range(&self, range: Range<usize>, acc: T, op: &impl Fn(T, T) -> T) -> T {
        // An `Option` only because the closure cannot move `acc` out of
        // its environment; taken once per buffer, not per value.
        let mut acc = Some(acc);
        let mut buf = Vec::new();
        self.generator.for_each_run(range, |iv, n| {
            let mut done = 0;
            while done < n {
                let m = (n - done).min(FOLD_BUF);
                self.body.emit(iv, m, &mut buf);
                let prev = acc.take().expect("accumulator present");
                acc = Some(buf.drain(..).fold(prev, op));
                done += m;
                if let Some(last) = iv.last_mut() {
                    *last += m;
                }
            }
        });
        acc.expect("accumulator present")
    }
}

/// The storage a `fill` writes, shareable across the pool's threads for
/// the disjoint-write pattern of [`Part::fill_range`].
struct RawSlice<T> {
    ptr: *mut T,
    len: usize,
}
// SAFETY: the pointer is only dereferenced in `Part::fill_range`, whose
// concurrent callers write (and drop the previous values of) disjoint
// elements; moving that work to another thread needs `T: Send`.
unsafe impl<T: Send> Send for RawSlice<T> {}
// SAFETY: as above — sharing a `&RawSlice` hands out no `&T`, only the
// right to write disjoint elements from the thread that holds it.
unsafe impl<T: Send> Sync for RawSlice<T> {}

/// Convenience: the paper's first example,
/// `with { (lb <= iv < ub) : const } : genarray(shape, default)`.
pub fn genarray_const<T: Clone + Send + Sync>(
    shape: impl Into<Shape>,
    default: T,
    lower: Vec<usize>,
    upper: Vec<usize>,
    value: T,
) -> Result<Array<T>> {
    WithLoop::new()
        .gen_const(Generator::range(lower, upper)?, value)
        .genarray(shape, default)
}

/// Elementwise map as a modarray with-loop over the full index space —
/// how SaC defines its elementwise standard library.
pub fn map_with<T, U>(a: &Array<T>, f: impl Fn(&T) -> U + Send + Sync) -> Result<Array<U>>
where
    T: Clone + Send + Sync,
    U: Clone + Send + Sync + Default,
{
    let shape = a.shape().clone();
    WithLoop::new()
        .gen(Generator::full(&shape), move |iv| f(a.at(iv)))
        .genarray(shape, U::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::ArrayError;

    fn g(lo: Vec<usize>, hi: Vec<usize>) -> Generator {
        Generator::range(lo, hi).unwrap()
    }

    // --- The worked examples of Section 2, verbatim. ---

    #[test]
    fn paper_example_uniform_42_matrix() {
        // with { ([0,0] <= iv < [3,5]) : 42 } : genarray([3,5], 0)
        let a = WithLoop::new()
            .gen_const(g(vec![0, 0], vec![3, 5]), 42)
            .genarray_seq([3, 5], 0)
            .unwrap();
        assert_eq!(a.shape(), &Shape::matrix(3, 5));
        assert!(a.data().iter().all(|&x| x == 42));
    }

    #[test]
    fn paper_example_iota_vector() {
        // with { ([0] <= iv < [5]) : iv[0] } : genarray([5], 0)
        let a = WithLoop::new()
            .gen(g(vec![0], vec![5]), |iv| iv[0] as i32)
            .genarray_seq([5], 0)
            .unwrap();
        assert_eq!(a.data(), &[0, 1, 2, 3, 4]);
    }

    #[test]
    fn paper_example_partial_cover_default() {
        // with { ([1] <= iv < [4]) : 42 } : genarray([5], 0) == [0,42,42,42,0]
        let a = WithLoop::new()
            .gen_const(g(vec![1], vec![4]), 42)
            .genarray_seq([5], 0)
            .unwrap();
        assert_eq!(a.data(), &[0, 42, 42, 42, 0]);
    }

    #[test]
    fn paper_example_overlap_later_generator_wins() {
        // with { ([1] <= iv < [4]) : 1; ([3] <= iv < [5]) : 2 }
        //   : genarray([6], 0) == [0,1,1,2,2,0]
        let a = WithLoop::new()
            .gen_const(g(vec![1], vec![4]), 1)
            .gen_const(g(vec![3], vec![5]), 2)
            .genarray_seq([6], 0)
            .unwrap();
        assert_eq!(a.data(), &[0, 1, 1, 2, 2, 0]);
    }

    #[test]
    fn paper_example_modarray() {
        // A == [0,1,1,2,2,0]; with { ([0] <= iv < [3]) : 3 } : modarray(A)
        //   == [3,3,3,2,2,0]
        let a = Array::from_vec(vec![0, 1, 1, 2, 2, 0]);
        let b = WithLoop::new()
            .gen_const(g(vec![0], vec![3]), 3)
            .modarray_seq(&a)
            .unwrap();
        assert_eq!(b.data(), &[3, 3, 3, 2, 2, 0]);
        // The original is untouched (stateless arrays).
        assert_eq!(a.data(), &[0, 1, 1, 2, 2, 0]);
    }

    // --- Engine-level behaviour. ---

    #[test]
    fn genarray_rejects_generator_outside_shape() {
        let r = WithLoop::new()
            .gen_const(g(vec![0], vec![10]), 1)
            .genarray_seq([5], 0);
        assert!(matches!(r, Err(ArrayError::BadGenerator(_))));
    }

    #[test]
    fn modarray_leaves_base_untouched_in_distinct_storage() {
        let a = Array::from_vec(vec![1, 2, 3, 4]);
        let before = a.data().as_ptr();
        let b = WithLoop::new()
            .gen_const(g(vec![0], vec![1]), 9)
            .modarray_seq(&a)
            .unwrap();
        // `a` is borrowed, so it is alive and the result is a copy.
        assert_ne!(b.data().as_ptr(), before);
        assert_eq!(a.data(), &[1, 2, 3, 4]);
        assert_eq!(a.data().as_ptr(), before);
        assert_eq!(b.data(), &[9, 2, 3, 4]);
    }

    #[test]
    fn parallel_equals_sequential_genarray() {
        let pool = Pool::new(4);
        let shape = [64, 256];
        let make = |eval| {
            WithLoop::new()
                .gen(g(vec![0, 0], vec![64, 256]), |iv| {
                    (iv[0] * 1000 + iv[1]) as i64
                })
                .gen_const(g(vec![10, 10], vec![20, 200]), -1)
                .genarray_on(&pool, eval, shape, 0i64)
                .unwrap()
        };
        assert_eq!(make(Eval::Sequential), make(Eval::Auto));
    }

    #[test]
    fn parallel_equals_sequential_modarray() {
        let pool = Pool::new(4);
        let base = Array::fill([128, 128], 5i32);
        let make = |eval| {
            WithLoop::new()
                .gen(g(vec![3, 0], vec![100, 128]), |iv| (iv[0] + iv[1]) as i32)
                .modarray_on(&pool, eval, &base)
                .unwrap()
        };
        assert_eq!(make(Eval::Sequential), make(Eval::Auto));
    }

    #[test]
    fn fold_sums_generator_values() {
        // Sum of 0..100 over a vector generator.
        let total = WithLoop::new()
            .gen(g(vec![0], vec![100]), |iv| iv[0] as i64)
            .fold_seq(0, |a, b| a + b);
        assert_eq!(total, 4950);
    }

    #[test]
    fn fold_parallel_equals_sequential() {
        let pool = Pool::new(4);
        let run = |eval| {
            WithLoop::new()
                .gen(g(vec![0, 0], vec![300, 300]), |iv| (iv[0] * iv[1]) as i64)
                .fold_on(&pool, eval, 0, |a, b| a + b)
        };
        assert_eq!(run(Eval::Sequential), run(Eval::Auto));
    }

    #[test]
    fn fold_multiple_generators_accumulate_in_order() {
        // String concat is associative but not commutative: chunk-order
        // combination must preserve generator-major order.
        let s = WithLoop::new()
            .gen(g(vec![0], vec![3]), |iv| iv[0].to_string())
            .gen(g(vec![0], vec![2]), |iv| format!("x{}", iv[0]))
            .fold_seq(String::new(), |a, b| a + &b);
        assert_eq!(s, "012x0x1");
    }

    #[test]
    fn fold_takes_a_run_longer_than_its_buffer_in_pieces() {
        let n = 2 * FOLD_BUF + 5;
        // Rank 1 (indices built from registers) and rank 4 (advanced in
        // place): both must resume where the previous piece stopped.
        for (lo, hi) in [(vec![0], vec![n]), (vec![0; 4], vec![1, 1, 1, n])] {
            let total = WithLoop::new()
                .gen(g(lo, hi), |iv| iv[iv.len() - 1])
                .fold_seq(0, |a, b| a + b);
            assert_eq!(total, n * (n - 1) / 2);
        }
    }

    #[test]
    fn map_with_matches_direct_map() {
        let a = Array::new([4, 4], (0..16).collect::<Vec<i32>>()).unwrap();
        let b = map_with(&a, |x| x * 2).unwrap();
        assert_eq!(b, a.map(|x| x * 2));
    }

    #[test]
    fn genarray_const_helper() {
        let a = genarray_const([5], 0, vec![1], vec![4], 42).unwrap();
        assert_eq!(a.data(), &[0, 42, 42, 42, 0]);
    }

    #[test]
    fn empty_generator_contributes_nothing() {
        let a = WithLoop::new()
            .gen_const(g(vec![3], vec![3]), 9)
            .genarray_seq([4], 1)
            .unwrap();
        assert_eq!(a.data(), &[1, 1, 1, 1]);
        let total = WithLoop::new()
            .gen(g(vec![5], vec![5]), |_| 1i32)
            .fold_seq(0, |a, b| a + b);
        assert_eq!(total, 0);
    }

    #[test]
    fn zero_generator_withloop_is_pure_default() {
        let a: Array<i32> = WithLoop::new().genarray_seq([3, 3], 7).unwrap();
        assert!(a.data().iter().all(|&x| x == 7));
    }

    #[test]
    fn large_parallel_genarray_is_correct() {
        // Big enough to actually engage the pool (>= PAR_THRESHOLD).
        let pool = Pool::new(4);
        let n = 200_000usize;
        let a = WithLoop::new()
            .gen(g(vec![0], vec![n]), |iv| iv[0] as u64)
            .genarray_on(&pool, Eval::Auto, [n], 0u64)
            .unwrap();
        assert!(a.data().iter().enumerate().all(|(i, &v)| v == i as u64));
    }
    // --- The engine against one small oracle. ---

    mod oracle {
        use super::*;
        use proptest::prelude::*;
        use std::panic::{catch_unwind, AssertUnwindSafe};
        use std::sync::Arc;

        /// What part `k` computes at `iv`: every element names its writer.
        fn label(k: usize, iv: &[usize]) -> String {
            format!("{k}{iv:?}")
        }

        fn with_loop(gens: &[Generator]) -> WithLoop<'static, String> {
            gens.iter().enumerate().fold(WithLoop::new(), |w, (k, g)| {
                w.gen(g.clone(), move |iv| label(k, iv))
            })
        }

        /// THE ORACLE: one `delinearize` and one body call per index,
        /// generator-major. Returns `init` overwritten in that order
        /// and the concatenation of the values.
        fn reference(
            shape: &Shape,
            gens: &[Generator],
            mut init: Vec<String>,
        ) -> (Vec<String>, String) {
            let mut cat = String::new();
            for (k, g) in gens.iter().enumerate() {
                for p in 0..g.count() {
                    let iv = g.delinearize(p);
                    let value = label(k, &iv);
                    cat += &value;
                    init[shape.linearize(&iv).unwrap()] = value;
                }
            }
            (init, cat)
        }

        fn base_of(shape: &Shape) -> Array<String> {
            let data = (0..shape.size()).map(|p| format!("b{p}")).collect();
            Array::new(shape.clone(), data).unwrap()
        }

        /// All three operators through the public entry points.
        fn check(
            pool: &Pool,
            eval: Eval,
            shape: &Shape,
            gens: &[Generator],
        ) -> std::result::Result<(), TestCaseError> {
            let base = base_of(shape);
            let (want, cat) = reference(shape, gens, base.data().to_vec());
            let got = with_loop(gens).modarray_on(pool, eval, &base).unwrap();
            prop_assert_eq!(got.data(), &want[..]);
            let (want, _) = reference(shape, gens, vec!["d".to_string(); shape.size()]);
            let got = with_loop(gens)
                .genarray_on(pool, eval, shape.clone(), "d".to_string())
                .unwrap();
            prop_assert_eq!(got.data(), &want[..]);
            let got = with_loop(gens).fold_on(pool, eval, String::new(), |a, b| a + &b);
            prop_assert_eq!(got, cat);
            Ok(())
        }

        /// A shape of rank 0–4 (extents 0–8) and one to three
        /// generators inside it, each axis strided or not, empty or not.
        fn arb_case() -> impl Strategy<Value = (Shape, Vec<Generator>)> {
            let axis = (0usize..9, 0usize..9, 1usize..5, 0usize..4);
            (
                proptest::collection::vec(0usize..9, 0..5),
                proptest::collection::vec(proptest::collection::vec(axis, 4..5), 1..4),
            )
                .prop_map(|(extents, parts)| {
                    let gens = parts
                        .iter()
                        .map(|axes| {
                            let (mut lo, mut hi) = (Vec::new(), Vec::new());
                            let (mut step, mut width) = (Vec::new(), Vec::new());
                            for (&e, &(a, b, s, w)) in extents.iter().zip(axes) {
                                lo.push(a % (e + 1));
                                hi.push(lo[lo.len() - 1] + b % (e - lo[lo.len() - 1] + 1));
                                step.push(s);
                                width.push(1 + w % s);
                            }
                            Generator::range(lo, hi)
                                .unwrap()
                                .with_step_width(step, width)
                                .unwrap()
                        })
                        .collect();
                    (Shape::new(extents), gens)
                })
        }

        proptest! {
            // Enough cases to cut inside a `width` block now and then.
            #![proptest_config(ProptestConfig::with_cases(256))]

            #[test]
            fn sequential_operators_equal_the_per_element_walk(case in arb_case()) {
                let (shape, gens) = case;
                check(&Pool::new(1), Eval::Sequential, &shape, &gens)?;
            }

            /// The per-range loops over each generator cut at any two
            /// ordinals — the cuts fall inside runs — write and fold
            /// what the walk does.
            #[test]
            fn any_chunk_partition_equals_the_per_element_walk(
                case in arb_case(),
                cuts in (0usize..10_000, 0usize..10_000),
            ) {
                let (shape, gens) = case;
                let base = base_of(&shape);
                let (want, cat) = reference(&shape, &gens, base.data().to_vec());
                let mut data = base.data().to_vec();
                let out = RawSlice { ptr: data.as_mut_ptr(), len: data.len() };
                let mut acc = String::new();
                for part in &with_loop(&gens).parts {
                    let count = part.generator.count();
                    let (a, b) = (cuts.0 % (count + 1), cuts.1 % (count + 1));
                    for range in [0..a.min(b), a.min(b)..a.max(b), a.max(b)..count] {
                        part.fill_range(&shape, &out, range.clone());
                        acc = part.fold_range(range, acc, &|a, b| a + &b);
                    }
                }
                prop_assert_eq!(data, want);
                prop_assert_eq!(acc, cat);
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(8))]

            /// On a real pool, past `PAR_THRESHOLD`, with a strided last
            /// axis — runs of `width`, the shape that exercises the
            /// disjoint-write slices — and a `T` that owns heap memory;
            /// an unstrided part on top checks "later wins" across arms.
            #[test]
            fn pooled_operators_equal_the_per_element_walk(
                cols in 40usize..80,
                step in 2usize..5,
                w in 0usize..4,
                extra in 0usize..5,
            ) {
                let width = 1 + w % (step - 1);
                let strided = |rows: usize| {
                    Generator::range(vec![1, 2], vec![1 + rows, 2 + cols])
                        .unwrap()
                        .with_step_width(vec![1, step], vec![1, width])
                        .unwrap()
                };
                let rows = PAR_THRESHOLD.div_ceil(strided(1).count()) + extra;
                let gens = [strided(rows), g(vec![0, 0], vec![rows / 2, cols / 2])];
                prop_assert!(gens[0].count() >= PAR_THRESHOLD);
                let shape = Shape::matrix(rows + 2, cols + 3);
                check(&Pool::new(3), Eval::Auto, &shape, &gens)?;
            }
        }

        #[test]
        fn a_panicking_body_propagates_and_every_element_drops_once() {
            let pool = Pool::new(3);
            let shape = [3, PAR_THRESHOLD];
            for eval in [Eval::Sequential, Eval::Auto] {
                // Every element of every array and buffer is a clone of
                // `token`: a count of 1 afterwards means none leaked and
                // (no crash, no underflow) none was dropped twice.
                let token = Arc::new(());
                let tripwire = || {
                    WithLoop::new().gen(g(vec![0, 0], shape.to_vec()), |iv| {
                        assert!(iv != [1, 77], "boom mid-run");
                        Arc::clone(&token)
                    })
                };
                let r = catch_unwind(AssertUnwindSafe(|| {
                    tripwire().genarray_on(&pool, eval, shape, Arc::clone(&token))
                }));
                assert!(r.is_err());
                assert_eq!(Arc::strong_count(&token), 1);
                let r = catch_unwind(AssertUnwindSafe(|| {
                    tripwire().fold_on(&pool, eval, Arc::clone(&token), |a, _| a)
                }));
                assert!(r.is_err());
                assert_eq!(Arc::strong_count(&token), 1);
                // The pool is still usable.
                let n = 2 * PAR_THRESHOLD;
                let a = WithLoop::new()
                    .gen(g(vec![0], vec![n]), |iv| iv[0])
                    .genarray_on(&pool, Eval::Auto, [n], 0)
                    .unwrap();
                assert!(a.data().iter().enumerate().all(|(i, &v)| v == i));
            }
        }
    }
}
