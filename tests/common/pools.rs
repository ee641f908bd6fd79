//! The executors an equivalence test runs a net under. What comes out
//! is checked against what `snet_runtime::oracle::run` says the net's
//! plan means (a sequence when every fan is det, else a multiset) or
//! against a literal, never against another run. Thread-per-component
//! is not among them: no record loop asks which executor it runs on,
//! and `tests/executor_matrix.rs` is the one file that runs the
//! determinism checks under both executors.
//!
//! A test binary names the helper files it uses
//! (`mod common { pub mod pools; }`), so it compiles none it leaves
//! unused.

use snet_runtime::{Executor, WorkStealingPool};
use std::sync::Arc;

/// A pool of one worker, on which every component of a net takes
/// turns, and a pool of two, whose workers steal from each other. Fresh
/// on every call, so the nets of one test share workers with no other
/// test's.
pub fn pools() -> [(&'static str, Arc<dyn Executor>); 2] {
    [
        ("pool(1)", Arc::new(WorkStealingPool::new(1))),
        ("pool(2)", Arc::new(WorkStealingPool::new(2))),
    ]
}
