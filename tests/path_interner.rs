//! The process-wide path interner leaks by design (see
//! `snet_runtime::path`): what bounds it is that a net's paths are
//! fixed by its structure and its input. Building the same net again
//! and running the same input must intern nothing new, and register
//! the same metric keys. A split on an unbounded tag domain is bounded
//! by the program: behind Figure 3's throttle filter, 10 000 fresh tag
//! values intern no path once every replica has unfolded.
//!
//! Every test interns paths and some assert that a process-wide count
//! stands still, so they serialise on [`INTERNER`]; other
//! integration-test files are separate processes.

mod common {
    pub mod pools;
}

use common::pools::pools;
use snet_runtime::path::interned_paths;
use snet_runtime::{Executor, Net, NetBuilder};
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

/// The throttle's modulus.
const LANES: i64 = 8;

/// `<k> % LANES` takes this many values (`%` keeps the sign of `<k>`),
/// so the split behind the throttle unfolds at most this many replicas.
const MAX_REPLICAS: u64 = 2 * LANES as u64 - 1;

/// `id !! <lane>` behind a throttle that keeps `<k>` as it came (a
/// bare pattern tag) and routes on `<lane> = <k> % LANES`.
fn throttled_net(fuse: bool) -> Net {
    NetBuilder::from_source(&format!(
        "box id (x, <k>) -> (x, <k>);\n\
         net main = [{{<k>}} -> {{<k>, <lane>=<k>%{LANES}}}] .. (id !! <lane>);"
    ))
    .unwrap()
    .bind("id", |r, e| e.emit(r.clone()))
    .fuse(fuse)
    .build("main")
    .unwrap()
}

fn send_keys(net: &Net, keys: impl IntoIterator<Item = i64>) {
    for k in keys {
        net.send(Record::build().field("x", k).tag("k", k).finish())
            .unwrap();
    }
}

/// The payload, `<k>` and `<lane>` of every output arrived intact.
fn assert_intact(out: &[Record]) {
    for r in out {
        let x = r.field("x").unwrap().as_int().unwrap();
        assert_eq!(r.tag("k"), Some(x), "<k> changed on its way: {r:?}");
        assert_eq!(r.tag("lane"), Some(x % LANES), "{r:?}");
    }
}

#[test]
fn interner_paths_plateau_under_unbounded_tag_domain() {
    let _serial = serialize_interner();
    for fuse in [true, false] {
        // Warm phase: -100..100 takes every value of `<k> % LANES`, so
        // every replica the throttle admits unfolds here.
        let net = throttled_net(fuse);
        send_keys(&net, -100..100);
        let mut out: Vec<Record> = (0..200)
            .map(|_| net.recv().expect("identity net echoes every record"))
            .collect();
        let branches = net.metrics().sum_matching("branches");
        assert!(
            branches <= MAX_REPLICAS,
            "fuse={fuse}: the throttle admitted {branches} replicas"
        );
        let plateau = interned_paths();

        // Stress phase: 10 000 *fresh* tag values, half of them
        // negative. Unthrottled, each would intern a branch path and
        // its replica's paths; behind the throttle every path exists.
        send_keys(&net, (100..5_100).chain(-5_100..-100));
        let rest = net.finish();
        assert_eq!(rest.len(), 10_000, "fuse={fuse}");
        assert_eq!(
            interned_paths(),
            plateau,
            "fuse={fuse}: the interner grew behind the throttle"
        );
        out.extend(rest);
        assert_intact(&out);
    }
}

/// Replica fusion interns zero paths of its own: the fused-fan
/// driver derives the exact component paths the unfused topology
/// interns (combinator, branch, per-stage, merge edge) and nothing
/// else. Once the unfused replicator has run, re-running the same net
/// fan-fused must leave the process-wide interner — and the net's
/// `runtime/interner_paths` gauge — exactly at the plateau.
#[test]
fn replica_fusion_adds_zero_interner_paths() {
    let _serial = serialize_interner();
    let drive = |fuse: bool| -> u64 {
        let net = throttled_net(fuse);
        let metrics = Arc::clone(net.metrics());
        send_keys(&net, -100..100);
        let out = net.finish();
        assert_eq!(out.len(), 200);
        assert_intact(&out);
        metrics.get("runtime/interner_paths")
    };
    // Plateau with the unfused dispatcher → branch → merger paths.
    drive(false);
    let plateau = interned_paths();
    let gauge = drive(true);
    assert_eq!(
        interned_paths(),
        plateau,
        "replica fusion interned paths beyond the unfused topology"
    );
    assert_eq!(gauge, plateau as u64, "gauge disagrees with the interner");
}
