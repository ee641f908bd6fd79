//! # sacarray — SaC-style data-parallel arrays
//!
//! The computation layer of the two-layer model in Grelck, Scholz &
//! Shafarenko, *Coordinating Data Parallel SAC Programs with S-Net*
//! (IPPS 2007). SaC ("Single Assignment C") is a functional,
//! side-effect-free array language whose only compound construct is the
//! *with-loop* array comprehension; all parallelism is implicit and
//! data-parallel.
//!
//! This crate reproduces that model as a Rust library:
//!
//! * [`Shape`] / [`Array`] — stateless n-dimensional arrays with value
//!   semantics (rank-0 arrays are scalars, exactly as in SaC);
//! * [`Generator`] — rectangular (optionally strided) index sets with
//!   no inherent iteration order;
//! * [`WithLoop`] — `genarray` / `modarray` / `fold` comprehensions
//!   over one or more ordered generators;
//! * [`Pool`] — the chunk-claiming thread pool that stands in for SaC's
//!   multithreaded code generation, making with-loop evaluation
//!   data-parallel without any change to the program;
//! * [`ops`] — a small standard library (`++`, `take`, `drop`,
//!   reductions, `find_first`, `argmin_by`) defined *as* with-loops,
//!   following the paper's `(++)` recipe.
//!
//! ## Quickstart
//!
//! ```
//! use sacarray::{Array, Generator, WithLoop};
//!
//! // The paper's example: with { ([1] <= iv < [4]) : 42 } : genarray([5], 0)
//! let a = WithLoop::new()
//!     .gen_const(Generator::range(vec![1], vec![4]).unwrap(), 42)
//!     .genarray([5], 0)
//!     .unwrap();
//! assert_eq!(a.data(), &[0, 42, 42, 42, 0]);
//! ```

// The crate has two `unsafe` blocks (the lifetime-erasing `transmute`
// in `parallel.rs`, the disjoint-write slice in `withloop.rs`); a third
// does not arrive without its `// SAFETY:` argument.
#![deny(clippy::undocumented_unsafe_blocks)]

pub mod array;
pub mod error;
pub mod generator;
pub mod ops;
pub mod parallel;
pub mod shape;
pub mod withloop;

pub use array::Array;
pub use error::{ArrayError, Result};
pub use generator::Generator;
pub use parallel::{default_threads, Pool};
pub use shape::Shape;
pub use withloop::{Eval, WithLoop};
