//! The process-wide path interner leaks by design (see
//! `snet_runtime::path`): what bounds it is that a net's paths are
//! fixed by its structure and its input. Building the same net again
//! and running the same input must intern nothing new, and register
//! the same metric keys.
//!
//! Both tests intern paths and the first asserts that a process-wide
//! count stands still, so they serialise on [`INTERNER`]; other
//! integration-test files are separate processes.

mod common {
    pub mod pools;
}

use common::pools::pools;
use snet_runtime::path::interned_paths;
use snet_runtime::{Executor, NetBuilder};
use snet_types::Record;
use std::collections::BTreeSet;
use std::sync::{Arc, Mutex, MutexGuard};
use sudoku::networks::{builder, run_net_ordered, FIG2_DET};
use sudoku::puzzles;

static INTERNER: Mutex<()> = Mutex::new(());

fn serialize_interner() -> MutexGuard<'static, ()> {
    INTERNER.lock().unwrap_or_else(|e| e.into_inner())
}

/// Builds deterministic Fig. 2, solves `classic9` through it, finishes,
/// and returns the net's metric keys.
fn fig2_det_cycle(executor: &Arc<dyn Executor>) -> BTreeSet<String> {
    let net = builder(3, Vec::new())
        .unwrap()
        .executor(Arc::clone(executor))
        .build_expr(FIG2_DET)
        .unwrap();
    let metrics = Arc::clone(net.metrics());
    let out = run_net_ordered(net, &[puzzles::classic9()]);
    assert_eq!(out.len(), 1);
    assert!(out[0].is_solved());
    metrics.snapshot().into_keys().collect()
}

#[test]
fn repeated_builds_intern_no_new_paths() {
    let _serial = serialize_interner();
    for (name, executor) in &pools() {
        let mut runs = Vec::new();
        for _ in 0..3 {
            let keys = fig2_det_cycle(executor);
            runs.push((keys, interned_paths()));
        }
        assert_eq!(
            runs[1].1, runs[2].1,
            "{name}: the third build interned paths"
        );
        assert_eq!(runs[0].0, runs[1].0, "{name}: metric keys moved");
        assert_eq!(runs[1].0, runs[2].0, "{name}: metric keys moved");
    }
}

#[test]
fn a_negative_split_key_renders_as_format_does() {
    let _serial = serialize_interner();
    for fuse in [true, false] {
        let net = NetBuilder::from_source(
            "box id (x, <k>) -> (x, <k>);\n\
             net main = id !! <k>;",
        )
        .unwrap()
        .bind("id", |r, e| e.emit(r.clone()))
        .fuse(fuse)
        .build("main")
        .unwrap();
        let metrics = Arc::clone(net.metrics());
        net.send(Record::build().field("x", 1i64).tag("k", -3).finish())
            .unwrap();
        assert_eq!(net.finish().len(), 1);
        let key = format!("net/splitnd/branch{}/box:id/records_in", -3i64);
        assert_eq!(
            metrics.get(&key),
            1,
            "fuse={fuse}: {:?}",
            metrics.snapshot().keys()
        );
    }
}
