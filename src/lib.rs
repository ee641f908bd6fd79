//! # snet-sac — two-layer coordination of data-parallel array programs
//!
//! A Rust reproduction of Grelck, Scholz & Shafarenko,
//! *Coordinating Data Parallel SAC Programs with S-Net* (IPPS 2007).
//!
//! The paper proposes a strict separation of concerns: "a clean
//! computational language that cannot communicate and a clean
//! coordination language that cannot compute". This workspace realises
//! both layers as Rust libraries:
//!
//! | Crate | Layer | Contents |
//! |---|---|---|
//! | [`sacarray`] | computation | SaC-style n-dimensional arrays, with-loops, data-parallel pool |
//! | [`snet_types`] | coordination | records, structural subtyping, flow inheritance, signatures |
//! | [`snet_lang`] | coordination | S-Net surface syntax: parser, filters, tag expressions, pretty printer |
//! | [`snet_runtime`] | coordination | threaded stream execution, all four combinators, det variants |
//! | [`sudoku`] | application | the paper's solver and the Figure 1–3 hybrid networks |
//!
//! See `examples/` for runnable entry points, and the `experiments`
//! binary (`cargo run --release -p snet-bench --bin experiments`) for
//! the per-figure reproduction record: a table of every claim the paper
//! makes about Figures 1–3, also written to `experiments.json`.

pub use sacarray;
pub use snet_lang;
pub use snet_runtime;
pub use snet_types;
pub use sudoku;
