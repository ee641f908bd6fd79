//! With-loop generators.
//!
//! A generator specifies a rectangular (optionally strided) index set:
//!
//! ```text
//! ( lower_bound <= idx_vec <  upper_bound )            — exclusive upper
//! ( lower_bound <= idx_vec <= upper_bound )            — inclusive upper
//! ( lb <= iv < ub step s width w )                     — SaC grid generators
//! ```
//!
//! The paper's sudoku code uses inclusive upper bounds
//! (`[i,j,0] <= iv <= [i,j,8]`), its Section 2 examples exclusive ones;
//! both are supported. `step`/`width` are part of full SaC and are
//! included for completeness (they enable e.g. checkerboard patterns).
//!
//! Generators deliberately impose **no order** on their index sets
//! (paper, Section 2) — which is exactly what licenses data-parallel
//! evaluation. Iteration order here is row-major, but nothing in the
//! with-loop semantics depends on it.

use crate::error::{ArrayError, Result};

/// A rectangular, optionally strided, index set of fixed rank.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Generator {
    lower: Vec<usize>,
    /// Exclusive upper bound (inclusive bounds are normalised on build).
    upper: Vec<usize>,
    step: Vec<usize>,
    width: Vec<usize>,
}

impl Generator {
    /// `lower <= iv < upper`.
    pub fn range(lower: Vec<usize>, upper: Vec<usize>) -> Result<Self> {
        if lower.len() != upper.len() {
            return Err(ArrayError::BadGenerator(format!(
                "bound ranks differ: {} vs {}",
                lower.len(),
                upper.len()
            )));
        }
        let rank = lower.len();
        Ok(Generator {
            lower,
            upper,
            step: vec![1; rank],
            width: vec![1; rank],
        })
    }

    /// `lower <= iv <= upper` — the form used throughout the paper's
    /// `addNumber`.
    pub fn range_inclusive(lower: Vec<usize>, mut upper: Vec<usize>) -> Result<Self> {
        for u in &mut upper {
            *u += 1;
        }
        Generator::range(lower, upper)
    }

    /// Adds SaC `step`/`width` modifiers: of every `step` consecutive
    /// indices per axis (starting at the lower bound) only the first
    /// `width` belong to the set.
    pub fn with_step_width(mut self, step: Vec<usize>, width: Vec<usize>) -> Result<Self> {
        if step.len() != self.rank() || width.len() != self.rank() {
            return Err(ArrayError::BadGenerator(
                "step/width rank must match bound rank".into(),
            ));
        }
        if step.contains(&0) {
            return Err(ArrayError::BadGenerator("step must be positive".into()));
        }
        if width
            .iter()
            .zip(step.iter())
            .any(|(&w, &s)| w == 0 || w > s)
        {
            return Err(ArrayError::BadGenerator(
                "width must satisfy 0 < width <= step".into(),
            ));
        }
        self.step = step;
        self.width = width;
        Ok(self)
    }

    /// The full index set of a shape: `[0,...] <= iv < shape`.
    pub fn full(shape: &crate::shape::Shape) -> Self {
        Generator {
            lower: vec![0; shape.rank()],
            upper: shape.extents().to_vec(),
            step: vec![1; shape.rank()],
            width: vec![1; shape.rank()],
        }
    }

    /// Rank of the index vectors this generator produces.
    pub fn rank(&self) -> usize {
        self.lower.len()
    }

    pub fn lower(&self) -> &[usize] {
        &self.lower
    }

    /// Exclusive upper bound.
    pub fn upper(&self) -> &[usize] {
        &self.upper
    }

    /// Number of selected positions along one axis.
    fn axis_count(&self, axis: usize) -> usize {
        let lo = self.lower[axis];
        let hi = self.upper[axis];
        if hi <= lo {
            return 0;
        }
        let range = hi - lo;
        let s = self.step[axis];
        let w = self.width[axis];
        if s == w {
            // Nothing is skipped: spare the unstrided axis its divisions.
            return range;
        }
        let full = range / s;
        let rem = range % s;
        full * w + rem.min(w)
    }

    /// Total number of index vectors in the set.
    pub fn count(&self) -> usize {
        if self.rank() == 0 {
            return 1; // the empty index vector
        }
        (0..self.rank()).map(|a| self.axis_count(a)).product()
    }

    /// True if the set is empty.
    pub fn is_empty(&self) -> bool {
        self.count() == 0
    }

    /// Membership test.
    pub fn contains(&self, idx: &[usize]) -> bool {
        if idx.len() != self.rank() {
            return false;
        }
        idx.iter().enumerate().all(|(a, &i)| {
            i >= self.lower[a]
                && i < self.upper[a]
                && (i - self.lower[a]) % self.step[a] < self.width[a]
        })
    }

    /// The `p`-th index vector of the set in row-major order. This is the
    /// primitive that lets parallel workers claim disjoint chunks of a
    /// generator by linear position without coordination.
    pub fn delinearize(&self, mut p: usize) -> Vec<usize> {
        debug_assert!(p < self.count());
        let rank = self.rank();
        let mut idx = vec![0usize; rank];
        for axis in (0..rank).rev() {
            let n = self.axis_count(axis);
            let pos = p % n;
            p /= n;
            let s = self.step[axis];
            let w = self.width[axis];
            let block = pos / w;
            let off = pos % w;
            idx[axis] = self.lower[axis] + block * s + off;
        }
        idx
    }

    /// Index along one axis for the `pos`-th selected position.
    #[inline]
    fn axis_index(&self, axis: usize, pos: usize) -> usize {
        let s = self.step[axis];
        let w = self.width[axis];
        if s == w {
            return self.lower[axis] + pos; // as in `axis_count`
        }
        self.lower[axis] + (pos / w) * s + pos % w
    }

    /// Calls `f(iv, n)` once per *run* of the index vectors whose
    /// row-major ordinals lie in `range`, in order. A run is a maximal
    /// stretch of ordinals whose index vectors differ only in the last
    /// axis and are consecutive there: `iv`, `iv + e`, …,
    /// `iv + (n - 1)·e` with `e` the last unit vector. When the last
    /// axis selects everything (`step == width`) a run is a whole row
    /// of the generator, clipped to `range`; otherwise it is one
    /// `width` block of it.
    ///
    /// Why the last axis: storage is row-major, so the last axis has
    /// stride 1 and a run is one contiguous slice `lin .. lin + n` of
    /// any array the generator lies within. A consumer linearises,
    /// checks and dispatches once per run and spends the inner loop on
    /// elements only; the odometer carry, `axis_index` and its
    /// divisions likewise happen once per run, not once per index.
    ///
    /// `f` may scribble on `iv[last]` (an inner loop that advances the
    /// index in place); every other component must be left alone. The
    /// last component is recomputed before each call.
    ///
    /// This is the hot path of with-loop evaluation; like
    /// [`Generator::delinearize`] it addresses the set by ordinal, so
    /// parallel workers take disjoint ranges of one generator without
    /// coordination. Panics if `range` reaches past
    /// [`Generator::count`].
    pub fn for_each_run(
        &self,
        range: std::ops::Range<usize>,
        mut f: impl FnMut(&mut [usize], usize),
    ) {
        if range.start >= range.end {
            return;
        }
        let rank = self.rank();
        // Three small vectors (counts, positions, index). One shared
        // allocation is 6 % on a nine-element generator, but it moves
        // the `array-frames` benchmark's probe to another malloc state
        // and its gate by +30 % (ROADMAP item 1, step 0): not before
        // that probe is fixed.
        let counts: Vec<usize> = (0..rank).map(|a| self.axis_count(a)).collect();
        assert!(
            range.end <= counts.iter().product(),
            "ordinal range past the end of the index set"
        );
        let Some(last) = rank.checked_sub(1) else {
            return f(&mut [], 1); // rank 0: the one empty index vector
        };
        let row = counts[last];
        let block = if self.step[last] == self.width[last] {
            row
        } else {
            self.width[last]
        };
        // Ordinal positions of the starting element, per axis.
        let mut pos = vec![0usize; rank];
        let mut p = range.start;
        for axis in (0..rank).rev() {
            if p == 0 {
                break; // the common whole-generator call: no divisions
            }
            pos[axis] = p % counts[axis];
            p /= counts[axis];
        }
        let mut iv: Vec<usize> = (0..rank).map(|a| self.axis_index(a, pos[a])).collect();
        let mut left = range.end - range.start;
        // Only a range's first run can start inside a block.
        let mut room = block - pos[last] % block;
        loop {
            let n = room.min(row - pos[last]).min(left);
            iv[last] = self.axis_index(last, pos[last]);
            f(&mut iv, n);
            left -= n;
            if left == 0 {
                return;
            }
            room = block;
            pos[last] += n;
            if pos[last] < row {
                continue;
            }
            // End of the row: advance the odometer over the outer axes.
            pos[last] = 0;
            for axis in (0..last).rev() {
                pos[axis] += 1;
                if pos[axis] < counts[axis] {
                    iv[axis] = self.axis_index(axis, pos[axis]);
                    break;
                }
                pos[axis] = 0;
                iv[axis] = self.lower[axis];
            }
        }
    }

    /// Iterates the index set in row-major order.
    pub fn indices(&self) -> GenIter {
        GenIter {
            gen: self.clone(),
            pos: 0,
            count: self.count(),
        }
    }

    /// Checks the generator fits within `shape` (used by with-loop
    /// evaluation to fail fast instead of panicking mid-parallel-fill).
    pub fn check_within(&self, shape: &crate::shape::Shape) -> Result<()> {
        if self.rank() != shape.rank() {
            return Err(ArrayError::BadGenerator(format!(
                "generator rank {} does not match result rank {}",
                self.rank(),
                shape.rank()
            )));
        }
        for axis in 0..self.rank() {
            if self.axis_count(axis) > 0 && self.upper[axis] > shape.extent(axis) {
                return Err(ArrayError::BadGenerator(format!(
                    "generator upper bound {:?} exceeds result shape {}",
                    self.upper, shape
                )));
            }
        }
        Ok(())
    }
}

/// Row-major iterator over a generator's index set.
pub struct GenIter {
    gen: Generator,
    pos: usize,
    count: usize,
}

impl Iterator for GenIter {
    type Item = Vec<usize>;

    fn next(&mut self) -> Option<Vec<usize>> {
        if self.pos >= self.count {
            return None;
        }
        let idx = self.gen.delinearize(self.pos);
        self.pos += 1;
        Some(idx)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.count - self.pos;
        (left, Some(left))
    }
}

impl ExactSizeIterator for GenIter {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shape::Shape;

    #[test]
    fn exclusive_range_counts() {
        let g = Generator::range(vec![0, 0], vec![3, 5]).unwrap();
        assert_eq!(g.count(), 15);
        assert!(!g.is_empty());
    }

    #[test]
    fn inclusive_range_matches_paper_addnumber_row() {
        // ([i,0,k] <= iv <= [i,8,k]) — a 9-element line.
        let g = Generator::range_inclusive(vec![2, 0, 4], vec![2, 8, 4]).unwrap();
        assert_eq!(g.count(), 9);
        let all: Vec<_> = g.indices().collect();
        assert_eq!(all[0], vec![2, 0, 4]);
        assert_eq!(all[8], vec![2, 8, 4]);
    }

    #[test]
    fn empty_when_lower_ge_upper() {
        let g = Generator::range(vec![3], vec![3]).unwrap();
        assert!(g.is_empty());
        let g = Generator::range(vec![5], vec![3]).unwrap();
        assert!(g.is_empty());
        assert_eq!(g.indices().count(), 0);
    }

    #[test]
    fn mismatched_bound_ranks_rejected() {
        assert!(Generator::range(vec![0], vec![1, 2]).is_err());
    }

    #[test]
    fn contains_agrees_with_iteration() {
        let g = Generator::range(vec![1, 2], vec![4, 5]).unwrap();
        for idx in g.indices() {
            assert!(g.contains(&idx));
        }
        assert!(!g.contains(&[0, 2]));
        assert!(!g.contains(&[1, 5]));
        assert!(!g.contains(&[1]));
    }

    #[test]
    fn step_width_checkerboard() {
        // Every other element of a 6-vector, width 1, step 2: 0,2,4.
        let g = Generator::range(vec![0], vec![6])
            .unwrap()
            .with_step_width(vec![2], vec![1])
            .unwrap();
        let all: Vec<_> = g.indices().collect();
        assert_eq!(all, vec![vec![0], vec![2], vec![4]]);
        assert_eq!(g.count(), 3);
        assert!(g.contains(&[2]));
        assert!(!g.contains(&[3]));
    }

    #[test]
    fn step_width_pairs() {
        // step 3 width 2 over [0,8): 0,1, 3,4, 6,7.
        let g = Generator::range(vec![0], vec![8])
            .unwrap()
            .with_step_width(vec![3], vec![2])
            .unwrap();
        let all: Vec<_> = g.indices().collect();
        assert_eq!(
            all,
            vec![vec![0], vec![1], vec![3], vec![4], vec![6], vec![7]]
        );
        assert_eq!(g.count(), 6);
    }

    #[test]
    fn bad_step_width_rejected() {
        let g = Generator::range(vec![0], vec![8]).unwrap();
        assert!(g.clone().with_step_width(vec![0], vec![1]).is_err());
        assert!(g.clone().with_step_width(vec![2], vec![0]).is_err());
        assert!(g.clone().with_step_width(vec![2], vec![3]).is_err());
        assert!(g.with_step_width(vec![2, 2], vec![1, 1]).is_err());
    }

    #[test]
    fn delinearize_matches_iteration_order() {
        let g = Generator::range(vec![1, 0], vec![3, 4])
            .unwrap()
            .with_step_width(vec![1, 2], vec![1, 1])
            .unwrap();
        let all: Vec<_> = g.indices().collect();
        for (p, idx) in all.iter().enumerate() {
            assert_eq!(&g.delinearize(p), idx);
        }
    }

    #[test]
    fn full_generator_covers_shape() {
        let s = Shape::matrix(3, 4);
        let g = Generator::full(&s);
        assert_eq!(g.count(), s.size());
        assert!(g.check_within(&s).is_ok());
    }

    #[test]
    fn check_within_rejects_overflow_and_rank_mismatch() {
        let s = Shape::matrix(3, 4);
        let g = Generator::range(vec![0, 0], vec![3, 5]).unwrap();
        assert!(g.check_within(&s).is_err());
        let g = Generator::range(vec![0], vec![3]).unwrap();
        assert!(g.check_within(&s).is_err());
        // Empty generators never overflow.
        let g = Generator::range(vec![9, 9], vec![9, 9]).unwrap();
        assert!(g.check_within(&s).is_ok());
    }

    #[test]
    fn rank_zero_generator_is_the_scalar_index() {
        let g = Generator::range(vec![], vec![]).unwrap();
        assert_eq!(g.count(), 1);
        let all: Vec<_> = g.indices().collect();
        assert_eq!(all, vec![Vec::<usize>::new()]);
    }

    /// The runs of `g` over `range` as `(first index, length)`.
    fn runs(g: &Generator, range: std::ops::Range<usize>) -> Vec<(Vec<usize>, usize)> {
        let mut out = Vec::new();
        g.for_each_run(range, |iv, n| out.push((iv.to_vec(), n)));
        out
    }

    #[test]
    fn runs_are_rows_or_width_blocks_clipped_to_the_range() {
        // Unstrided last axis: one run a row, however the outer axis strides.
        let g = Generator::range(vec![1, 2], vec![6, 7])
            .unwrap()
            .with_step_width(vec![2, 1], vec![1, 1])
            .unwrap();
        assert_eq!(
            runs(&g, 0..g.count()),
            vec![(vec![1, 2], 5), (vec![3, 2], 5), (vec![5, 2], 5)]
        );
        // A range that starts and ends mid-row clips its first and last run.
        assert_eq!(
            runs(&g, 3..12),
            vec![(vec![1, 5], 2), (vec![3, 2], 5), (vec![5, 2], 2)]
        );
        // Strided last axis (step 3, width 2 over [0, 8)): blocks of 2,
        // and a range starting inside a block finishes that block first.
        let g = Generator::range(vec![0, 0], vec![2, 8])
            .unwrap()
            .with_step_width(vec![1, 3], vec![1, 2])
            .unwrap();
        assert_eq!(
            runs(&g, 1..8),
            vec![
                (vec![0, 1], 1),
                (vec![0, 3], 2),
                (vec![0, 6], 2),
                (vec![1, 0], 2)
            ]
        );
        // Rank 0 is the one empty index vector; an empty range is nothing.
        let scalar = Generator::range(vec![], vec![]).unwrap();
        assert_eq!(runs(&scalar, 0..1), vec![(vec![], 1)]);
        assert_eq!(runs(&g, 4..4), vec![]);
    }

    #[test]
    #[should_panic(expected = "past the end of the index set")]
    fn run_range_past_the_count_panics() {
        let g = Generator::range(vec![0, 0], vec![2, 0]).unwrap();
        g.for_each_run(0..1, |_, _| {});
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// Arbitrary small generators of rank 0–4, optionally strided
        /// (steps 1–4, every width a step allows).
        fn arb_gen() -> impl Strategy<Value = Generator> {
            (
                proptest::collection::vec((0usize..5, 0usize..13, 1usize..5, 0usize..4), 0..5),
                any::<bool>(),
            )
                .prop_map(|(axes, strided)| {
                    let lower: Vec<usize> = axes.iter().map(|a| a.0).collect();
                    let upper: Vec<usize> = axes.iter().map(|a| a.0 + a.1).collect();
                    let g = Generator::range(lower, upper).unwrap();
                    if strided {
                        let step: Vec<usize> = axes.iter().map(|a| a.2).collect();
                        let width: Vec<usize> = axes.iter().map(|a| 1 + a.3 % a.2).collect();
                        g.with_step_width(step, width).unwrap()
                    } else {
                        g
                    }
                })
        }

        proptest! {
            // A cut inside a `width` block of a row long enough to show
            // it is one or two cases in a hundred: draw enough to meet it.
            #![proptest_config(ProptestConfig::with_cases(512))]

            /// The runs of `for_each_run` over a partition of
            /// `0..count` cut at any two ordinals, expanded along the
            /// last axis, are exactly the indices `delinearize`
            /// enumerates, in the same order — THE invariant that makes
            /// chunked parallel with-loop evaluation write each element
            /// exactly once.
            #[test]
            fn partitioned_for_each_equals_delinearize(
                g in arb_gen(),
                cuts in (0usize..10_000, 0usize..10_000),
            ) {
                let count = g.count();
                let expected: Vec<Vec<usize>> =
                    (0..count).map(|p| g.delinearize(p)).collect();
                let (a, b) = (cuts.0 % (count + 1), cuts.1 % (count + 1));
                let mut got: Vec<Vec<usize>> = Vec::with_capacity(count);
                for range in [0..a.min(b), a.min(b)..a.max(b), a.max(b)..count] {
                    g.for_each_run(range, |iv, n| {
                        for k in 0..n {
                            let mut idx = iv.to_vec();
                            if let Some(last) = idx.last_mut() {
                                *last += k;
                            }
                            got.push(idx);
                        }
                    });
                }
                prop_assert_eq!(got, expected);
            }

            /// Membership agrees with enumeration.
            #[test]
            fn contains_iff_enumerated(g in arb_gen()) {
                let all: std::collections::HashSet<Vec<usize>> =
                    g.indices().collect();
                for idx in &all {
                    prop_assert!(g.contains(idx));
                }
                // Points just outside the bounds are not contained.
                let probe: Vec<usize> = g.upper().to_vec();
                prop_assert!(!g.contains(&probe) || all.contains(&probe));
            }

            /// count() equals the number of enumerated indices.
            #[test]
            fn count_matches_enumeration(g in arb_gen()) {
                prop_assert_eq!(g.count(), g.indices().count());
            }
        }
    }
}
