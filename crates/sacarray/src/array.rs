//! Stateless n-dimensional arrays.
//!
//! SaC arrays "are neither explicitly allocated nor de-allocated. They
//! exist as long as the associated data is needed, just like scalars"
//! (paper, Section 2). We model this with value semantics over
//! reference-counted storage: cloning an [`Array`] is O(1); mutation
//! (e.g. by a `modarray` with-loop) copies only when the storage is
//! shared — the same avoid-copy optimisation SaC's reference-counting
//! runtime performs.

use crate::error::{ArrayError, Result};
use crate::generator::Generator;
use crate::shape::Shape;
use std::fmt;
use std::sync::Arc;

/// An immutable n-dimensional array with shape-generic rank, mirroring
/// SaC's `T[*]` type class.
///
/// `Array<T>` is `Send + Sync` whenever `T` is, which is what lets S-Net
/// streams carry arrays between box threads without copies.
#[derive(Clone)]
pub struct Array<T> {
    shape: Shape,
    data: Arc<Vec<T>>,
}

impl<T: Clone> Array<T> {
    /// Builds an array from a shape and row-major data.
    pub fn new(shape: impl Into<Shape>, data: Vec<T>) -> Result<Self> {
        let shape = shape.into();
        if data.len() != shape.size() {
            return Err(ArrayError::DataLengthMismatch {
                shape,
                len: data.len(),
            });
        }
        Ok(Array {
            shape,
            data: Arc::new(data),
        })
    }

    /// A rank-0 array holding a single value (SaC scalars are rank-0
    /// arrays with an empty shape vector).
    pub fn scalar(v: T) -> Self {
        Array {
            shape: Shape::scalar(),
            data: Arc::new(vec![v]),
        }
    }

    /// A rank-1 array from a Vec.
    pub fn from_vec(v: Vec<T>) -> Self {
        Array {
            shape: Shape::vector(v.len()),
            data: Arc::new(v),
        }
    }

    /// An array of the given shape with every element set to `v`.
    pub fn fill(shape: impl Into<Shape>, v: T) -> Self {
        let shape = shape.into();
        let n = shape.size();
        Array {
            shape,
            data: Arc::new(vec![v; n]),
        }
    }

    /// `dim(a)` in SaC: the rank.
    pub fn dim(&self) -> usize {
        self.shape.rank()
    }

    /// `shape(a)` in SaC.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Total element count.
    pub fn size(&self) -> usize {
        self.shape.size()
    }

    /// Row-major view of the data.
    pub fn data(&self) -> &[T] {
        &self.data
    }

    /// Element selection with a full index vector: `a[idx]`.
    pub fn sel(&self, idx: &[usize]) -> Result<&T> {
        let lin = self
            .shape
            .linearize(idx)
            .ok_or_else(|| ArrayError::IndexOutOfBounds {
                shape: self.shape.clone(),
                index: idx.to_vec(),
            })?;
        Ok(&self.data[lin])
    }

    /// Like [`Array::sel`] but panics on bad indices; convenient inside
    /// with-loop bodies where bounds are guaranteed by the generator.
    pub fn at(&self, idx: &[usize]) -> &T {
        self.sel(idx)
            .unwrap_or_else(|e| panic!("array selection failed: {e}"))
    }

    /// Subarray selection with a prefix index vector, SaC's
    /// `a[iv]` where `len(iv) < dim(a)`: selecting row `i` of a matrix
    /// yields a vector.
    pub fn sel_subarray(&self, idx: &[usize]) -> Result<Array<T>> {
        let (start, span) =
            self.shape
                .linearize_prefix(idx)
                .ok_or_else(|| ArrayError::IndexOutOfBounds {
                    shape: self.shape.clone(),
                    index: idx.to_vec(),
                })?;
        Ok(Array {
            shape: self.shape.suffix_shape(idx.len()),
            data: Arc::new(self.data[start..start + span].to_vec()),
        })
    }

    /// The scalar value of a rank-0 array.
    pub fn unwrap_scalar(&self) -> Result<T> {
        if self.shape.rank() != 0 {
            return Err(ArrayError::ShapeMismatch {
                expected: Shape::scalar(),
                actual: self.shape.clone(),
            });
        }
        Ok(self.data[0].clone())
    }

    /// Functional single-element update: returns a new array equal to
    /// `self` except at `idx`. Copies only if the storage is shared
    /// (SaC-style reference-count-one in-place update).
    pub fn with_elem(mut self, idx: &[usize], v: T) -> Result<Self> {
        let lin = self
            .shape
            .linearize(idx)
            .ok_or_else(|| ArrayError::IndexOutOfBounds {
                shape: self.shape.clone(),
                index: idx.to_vec(),
            })?;
        Arc::make_mut(&mut self.data)[lin] = v;
        Ok(self)
    }

    /// Interprets the array as mutable storage for with-loop evaluation,
    /// copying if shared. Internal to the crate.
    pub(crate) fn make_mut(&mut self) -> &mut [T] {
        Arc::make_mut(&mut self.data).as_mut_slice()
    }

    /// Rectangular slice: the subarray with indices in
    /// `lower <= iv < upper` (SaC's selection on index ranges). The
    /// result's shape is `upper - lower` per axis.
    pub fn slice(&self, lower: &[usize], upper: &[usize]) -> Result<Array<T>> {
        if lower.len() != self.shape.rank() || upper.len() != self.shape.rank() {
            return Err(ArrayError::IndexOutOfBounds {
                shape: self.shape.clone(),
                index: lower.to_vec(),
            });
        }
        for axis in 0..lower.len() {
            if lower[axis] > upper[axis] || upper[axis] > self.shape.extent(axis) {
                return Err(ArrayError::IndexOutOfBounds {
                    shape: self.shape.clone(),
                    index: upper.to_vec(),
                });
            }
        }
        let out_shape = Shape::new(
            lower
                .iter()
                .zip(upper.iter())
                .map(|(&l, &u)| u - l)
                .collect(),
        );
        // One copy per contiguous last-axis run of the selection.
        let mut data = Vec::with_capacity(out_shape.size());
        Generator::range(lower.to_vec(), upper.to_vec())?.for_each_run(
            0..out_shape.size(),
            |iv, n| {
                let lin = self.shape.linearize(iv).expect("bounds checked above");
                data.extend_from_slice(&self.data[lin..lin + n]);
            },
        );
        Array::new(out_shape, data)
    }

    /// Reshapes to a new shape with the same element count.
    pub fn reshape(&self, to: impl Into<Shape>) -> Result<Self> {
        let to = to.into();
        if to.size() != self.shape.size() {
            return Err(ArrayError::ReshapeSizeMismatch {
                from: self.shape.clone(),
                to,
            });
        }
        Ok(Array {
            shape: to,
            data: Arc::clone(&self.data),
        })
    }

    /// Applies `f` to every element, producing a same-shaped array.
    pub fn map<U: Clone>(&self, f: impl Fn(&T) -> U) -> Array<U> {
        Array {
            shape: self.shape.clone(),
            data: Arc::new(self.data.iter().map(f).collect()),
        }
    }

    /// Elementwise combination of two same-shaped arrays.
    pub fn zip_with<U: Clone, V: Clone>(
        &self,
        other: &Array<U>,
        f: impl Fn(&T, &U) -> V,
    ) -> Result<Array<V>> {
        if self.shape != other.shape {
            return Err(ArrayError::ShapeMismatch {
                expected: self.shape.clone(),
                actual: other.shape.clone(),
            });
        }
        Ok(Array {
            shape: self.shape.clone(),
            data: Arc::new(
                self.data
                    .iter()
                    .zip(other.data.iter())
                    .map(|(a, b)| f(a, b))
                    .collect(),
            ),
        })
    }

    /// True when the two arrays share the same underlying buffer — used in
    /// tests to verify copy-on-write behaviour.
    pub fn ptr_eq(&self, other: &Array<T>) -> bool {
        Arc::ptr_eq(&self.data, &other.data)
    }
}

impl<T: Clone + PartialEq> PartialEq for Array<T> {
    fn eq(&self, other: &Self) -> bool {
        self.shape == other.shape
            && (Arc::ptr_eq(&self.data, &other.data) || self.data == other.data)
    }
}

impl<T: Clone + Eq> Eq for Array<T> {}

impl<T: fmt::Debug> fmt::Debug for Array<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Array{{shape: {}, data: ", self.shape)?;
        if self.data.len() <= 32 {
            write!(f, "{:?}", &self.data[..])?;
        } else {
            write!(f, "{:?}…({} elems)", &self.data[..16], self.data.len())?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_checks_data_length() {
        assert!(Array::new([2, 3], vec![0i32; 6]).is_ok());
        assert!(matches!(
            Array::new([2, 3], vec![0i32; 5]),
            Err(ArrayError::DataLengthMismatch { .. })
        ));
    }

    #[test]
    fn scalar_roundtrip() {
        let a = Array::scalar(42i32);
        assert_eq!(a.dim(), 0);
        assert_eq!(a.size(), 1);
        assert_eq!(a.unwrap_scalar().unwrap(), 42);
        assert_eq!(*a.at(&[]), 42);
    }

    #[test]
    fn selection_full_and_prefix() {
        let a = Array::new([2, 3], vec![1, 2, 3, 4, 5, 6]).unwrap();
        assert_eq!(*a.at(&[0, 0]), 1);
        assert_eq!(*a.at(&[1, 2]), 6);
        let row = a.sel_subarray(&[1]).unwrap();
        assert_eq!(row.shape(), &Shape::vector(3));
        assert_eq!(row.data(), &[4, 5, 6]);
        // Full-length prefix yields a rank-0 subarray.
        let cell = a.sel_subarray(&[0, 2]).unwrap();
        assert_eq!(cell.unwrap_scalar().unwrap(), 3);
    }

    #[test]
    fn sel_out_of_bounds() {
        let a = Array::new([2, 2], vec![1, 2, 3, 4]).unwrap();
        assert!(a.sel(&[2, 0]).is_err());
        assert!(a.sel(&[0]).is_err());
        assert!(a.sel_subarray(&[5]).is_err());
    }

    #[test]
    fn with_elem_copies_only_when_shared() {
        let a = Array::new([3], vec![1, 2, 3]).unwrap();
        let b = a.clone();
        // a and b share storage.
        assert!(a.ptr_eq(&b));
        let c = b.with_elem(&[1], 99).unwrap();
        // The original is unchanged (copy happened because it was shared).
        assert_eq!(a.data(), &[1, 2, 3]);
        assert_eq!(c.data(), &[1, 99, 3]);
        assert!(!a.ptr_eq(&c));

        // A uniquely-owned array is updated in place: the buffer address
        // is stable across the update.
        let d = Array::new([3], vec![7, 8, 9]).unwrap();
        let before = d.data().as_ptr();
        let d = d.with_elem(&[0], 0).unwrap();
        assert_eq!(d.data().as_ptr(), before);
        assert_eq!(d.data(), &[0, 8, 9]);
    }

    #[test]
    fn slice_extracts_rectangles() {
        let a = Array::new([3, 4], (0..12).collect::<Vec<i32>>()).unwrap();
        let s = a.slice(&[1, 1], &[3, 3]).unwrap();
        assert_eq!(s.shape(), &Shape::matrix(2, 2));
        assert_eq!(s.data(), &[5, 6, 9, 10]);
        // Whole-array slice is identity.
        assert_eq!(a.slice(&[0, 0], &[3, 4]).unwrap(), a);
        // Empty slice.
        assert_eq!(a.slice(&[1, 1], &[1, 3]).unwrap().size(), 0);
        // Errors: inverted bounds, out of range, wrong rank.
        assert!(a.slice(&[2, 0], &[1, 4]).is_err());
        assert!(a.slice(&[0, 0], &[4, 4]).is_err());
        assert!(a.slice(&[0], &[3]).is_err());
    }

    #[test]
    fn reshape_shares_storage() {
        let a = Array::new([2, 3], vec![1, 2, 3, 4, 5, 6]).unwrap();
        let b = a.reshape([6]).unwrap();
        assert!(a.ptr_eq(&b));
        assert_eq!(*b.at(&[3]), 4);
        assert!(a.reshape([4]).is_err());
    }

    #[test]
    fn map_and_zip_with() {
        let a = Array::new([2, 2], vec![1, 2, 3, 4]).unwrap();
        let b = a.map(|x| x * 10);
        assert_eq!(b.data(), &[10, 20, 30, 40]);
        let c = a.zip_with(&b, |x, y| x + y).unwrap();
        assert_eq!(c.data(), &[11, 22, 33, 44]);
        let d = Array::new([4], vec![0, 0, 0, 0]).unwrap();
        assert!(a.zip_with(&d, |x, y| x + y).is_err());
    }

    #[test]
    fn equality_is_structural() {
        let a = Array::new([2], vec![1, 2]).unwrap();
        let b = Array::new([2], vec![1, 2]).unwrap();
        let c = Array::new([1, 2], vec![1, 2]).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c); // same data, different shape
    }
}
