//! Shape and index vectors.
//!
//! SaC arrays are rectangular n-dimensional collections described by a
//! *shape vector*: one extent per axis. Scalars are rank-0 arrays with an
//! empty shape vector (paper, Section 2). This module provides the shape
//! type plus the row-major linearisation used throughout the crate.

use std::fmt;

/// The shape of an n-dimensional array: one non-negative extent per axis.
///
/// Rank-0 (empty) shapes denote scalars, exactly as in SaC where `int`
/// is sugar for `int[]`.
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct Shape(Vec<usize>);

impl Shape {
    /// Creates a shape from per-axis extents.
    pub fn new(extents: Vec<usize>) -> Self {
        Shape(extents)
    }

    /// The scalar shape: rank 0, one element.
    pub fn scalar() -> Self {
        Shape(Vec::new())
    }

    /// Shape of a vector with `n` elements.
    pub fn vector(n: usize) -> Self {
        Shape(vec![n])
    }

    /// Shape of an `r` x `c` matrix.
    pub fn matrix(r: usize, c: usize) -> Self {
        Shape(vec![r, c])
    }

    /// Number of axes (`dim` in SaC).
    pub fn rank(&self) -> usize {
        self.0.len()
    }

    /// Extent along axis `axis`. Panics if `axis >= rank`.
    pub fn extent(&self, axis: usize) -> usize {
        self.0[axis]
    }

    /// The per-axis extents as a slice.
    pub fn extents(&self) -> &[usize] {
        &self.0
    }

    /// Total number of elements (product of extents; 1 for scalars).
    pub fn size(&self) -> usize {
        self.0.iter().product()
    }

    /// True if any axis has extent 0 (and the shape is not rank 0).
    pub fn is_empty(&self) -> bool {
        self.0.contains(&0)
    }

    /// Row-major strides: `strides[i]` is the linear distance between
    /// consecutive indices along axis `i`.
    pub fn strides(&self) -> Vec<usize> {
        let mut s = vec![1usize; self.rank()];
        for i in (0..self.rank().saturating_sub(1)).rev() {
            s[i] = s[i + 1] * self.0[i + 1];
        }
        s
    }

    /// Linearises a full index vector (row-major). Returns `None` when the
    /// index has the wrong rank or is out of bounds on some axis.
    pub fn linearize(&self, idx: &[usize]) -> Option<usize> {
        if idx.len() != self.rank() {
            return None;
        }
        let mut lin = 0usize;
        for (&i, &e) in idx.iter().zip(self.0.iter()) {
            if i >= e {
                return None;
            }
            // Avoid recomputing strides: accumulate Horner-style.
            lin = lin * e + i;
        }
        Some(lin)
    }

    /// Inverse of [`Shape::linearize`]: converts a linear offset back into
    /// a full index vector. Panics if `lin >= size()`.
    pub fn delinearize(&self, mut lin: usize) -> Vec<usize> {
        assert!(
            lin < self.size().max(1),
            "linear offset {lin} out of bounds for shape {self}"
        );
        let mut idx = vec![0usize; self.rank()];
        for axis in (0..self.rank()).rev() {
            let e = self.0[axis];
            idx[axis] = lin % e;
            lin /= e;
        }
        idx
    }

    /// Linearises a *prefix* index (rank <= self.rank) designating a
    /// subarray: returns the linear offset of the subarray start and the
    /// number of elements it spans. `None` if out of bounds.
    ///
    /// This backs SaC's selection on partial index vectors, where
    /// `m[[i]]` of a matrix yields row `i`.
    pub fn linearize_prefix(&self, idx: &[usize]) -> Option<(usize, usize)> {
        if idx.len() > self.rank() {
            return None;
        }
        let mut lin = 0usize;
        for (&i, &e) in idx.iter().zip(self.0.iter()) {
            if i >= e {
                return None;
            }
            lin = lin * e + i;
        }
        let span: usize = self.0[idx.len()..].iter().product();
        Some((lin * span, span))
    }

    /// The shape of the subarray selected by a prefix index of the given
    /// length (the trailing axes).
    pub fn suffix_shape(&self, prefix_len: usize) -> Shape {
        Shape(self.0[prefix_len..].to_vec())
    }

    /// Concatenates two shapes (used by `genarray` with non-scalar
    /// default elements: result shape = frame shape ++ cell shape).
    pub fn concat(&self, other: &Shape) -> Shape {
        let mut v = self.0.clone();
        v.extend_from_slice(&other.0);
        Shape(v)
    }

    /// Iterates over all index vectors of this shape in row-major order.
    pub fn indices(&self) -> IndexIter {
        IndexIter::new(self.clone())
    }
}

impl fmt::Debug for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Shape{:?}", self.0)
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, e) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{e}")?;
        }
        write!(f, "]")
    }
}

impl From<Vec<usize>> for Shape {
    fn from(v: Vec<usize>) -> Self {
        Shape(v)
    }
}

impl From<&[usize]> for Shape {
    fn from(v: &[usize]) -> Self {
        Shape(v.to_vec())
    }
}

impl<const N: usize> From<[usize; N]> for Shape {
    fn from(v: [usize; N]) -> Self {
        Shape(v.to_vec())
    }
}

/// Row-major iterator over every index vector of a shape.
pub struct IndexIter {
    shape: Shape,
    next: Option<Vec<usize>>,
}

impl IndexIter {
    fn new(shape: Shape) -> Self {
        let next = if shape.is_empty() {
            None
        } else {
            Some(vec![0; shape.rank()])
        };
        IndexIter { shape, next }
    }
}

impl Iterator for IndexIter {
    type Item = Vec<usize>;

    fn next(&mut self) -> Option<Vec<usize>> {
        let cur = self.next.clone()?;
        // Advance odometer-style from the last axis.
        let mut idx = cur.clone();
        let mut axis = self.shape.rank();
        loop {
            if axis == 0 {
                self.next = None;
                break;
            }
            axis -= 1;
            idx[axis] += 1;
            if idx[axis] < self.shape.extent(axis) {
                self.next = Some(idx);
                break;
            }
            idx[axis] = 0;
        }
        Some(cur)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_shape_has_rank_zero_and_size_one() {
        let s = Shape::scalar();
        assert_eq!(s.rank(), 0);
        assert_eq!(s.size(), 1);
        assert!(!s.is_empty());
    }

    #[test]
    fn matrix_shape_basics() {
        let s = Shape::matrix(3, 5);
        assert_eq!(s.rank(), 2);
        assert_eq!(s.size(), 15);
        assert_eq!(s.extents(), &[3, 5]);
        assert_eq!(s.strides(), vec![5, 1]);
    }

    #[test]
    fn linearize_row_major() {
        let s = Shape::new(vec![3, 4, 5]);
        assert_eq!(s.linearize(&[0, 0, 0]), Some(0));
        assert_eq!(s.linearize(&[0, 0, 4]), Some(4));
        assert_eq!(s.linearize(&[0, 1, 0]), Some(5));
        assert_eq!(s.linearize(&[1, 0, 0]), Some(20));
        assert_eq!(s.linearize(&[2, 3, 4]), Some(59));
    }

    #[test]
    fn linearize_rejects_out_of_bounds_and_wrong_rank() {
        let s = Shape::matrix(2, 2);
        assert_eq!(s.linearize(&[2, 0]), None);
        assert_eq!(s.linearize(&[0, 2]), None);
        assert_eq!(s.linearize(&[0]), None);
        assert_eq!(s.linearize(&[0, 0, 0]), None);
    }

    #[test]
    fn delinearize_inverts_linearize() {
        let s = Shape::new(vec![2, 3, 4]);
        for lin in 0..s.size() {
            let idx = s.delinearize(lin);
            assert_eq!(s.linearize(&idx), Some(lin));
        }
    }

    #[test]
    fn scalar_linearize() {
        let s = Shape::scalar();
        assert_eq!(s.linearize(&[]), Some(0));
        assert_eq!(s.delinearize(0), Vec::<usize>::new());
    }

    #[test]
    fn prefix_selection_selects_rows() {
        let s = Shape::matrix(3, 4);
        assert_eq!(s.linearize_prefix(&[1]), Some((4, 4)));
        assert_eq!(s.linearize_prefix(&[2]), Some((8, 4)));
        assert_eq!(s.linearize_prefix(&[1, 2]), Some((6, 1)));
        assert_eq!(s.linearize_prefix(&[]), Some((0, 12)));
        assert_eq!(s.linearize_prefix(&[3]), None);
        assert_eq!(s.suffix_shape(1), Shape::vector(4));
    }

    #[test]
    fn index_iter_row_major_order() {
        let s = Shape::matrix(2, 3);
        let all: Vec<Vec<usize>> = s.indices().collect();
        assert_eq!(
            all,
            vec![
                vec![0, 0],
                vec![0, 1],
                vec![0, 2],
                vec![1, 0],
                vec![1, 1],
                vec![1, 2],
            ]
        );
    }

    #[test]
    fn index_iter_empty_shape_yields_nothing() {
        let s = Shape::new(vec![0, 3]);
        assert_eq!(s.indices().count(), 0);
    }

    #[test]
    fn index_iter_scalar_yields_single_empty_index() {
        let s = Shape::scalar();
        let all: Vec<Vec<usize>> = s.indices().collect();
        assert_eq!(all, vec![Vec::<usize>::new()]);
    }

    #[test]
    fn concat_shapes() {
        let a = Shape::matrix(2, 3);
        let b = Shape::vector(4);
        assert_eq!(a.concat(&b), Shape::new(vec![2, 3, 4]));
        assert_eq!(Shape::scalar().concat(&a), a);
    }

    #[test]
    fn display_format() {
        assert_eq!(Shape::new(vec![3, 7]).to_string(), "[3,7]");
        assert_eq!(Shape::scalar().to_string(), "[]");
    }
}
