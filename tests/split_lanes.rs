//! Bounded lane namespace for indexed-split routing paths
//! (`NetBuilder::split_lanes`): a 10k-distinct-tag workload must not
//! grow the process-wide path interner past the lane bound — the
//! `runtime/interner_paths` gauge plateaus.
//!
//! The interner test asserts an *upper bound* on a process-wide
//! counter, so every test in this file that spawns a net (interning
//! paths) serialises on [`INTERNER`]; other integration-test files
//! are separate processes and cannot interfere.

use snet_runtime::NetBuilder;
use snet_types::Record;
use std::collections::HashMap;
use std::sync::{Mutex, MutexGuard};

const LANES: u32 = 8;

static INTERNER: Mutex<()> = Mutex::new(());

fn serialize_interner() -> MutexGuard<'static, ()> {
    INTERNER.lock().unwrap_or_else(|e| e.into_inner())
}

fn lane_net() -> snet_runtime::Net {
    NetBuilder::from_source(
        "box id (x, <lanek>) -> (x, <lanek>);\n\
         net main = id !! <lanek>;",
    )
    .unwrap()
    .bind("id", |r, e| e.emit(r.clone()))
    .split_lanes(LANES)
    .build("main")
    .unwrap()
}

#[test]
fn interner_paths_plateau_under_unbounded_tag_domain() {
    let _serial = serialize_interner();
    // Warm phase: enough distinct tag values to populate every lane
    // (8 lanes, 200 values — the chance of an empty lane is
    // negligible, and the assertion below does not depend on it).
    let net = lane_net();
    let mut outputs: HashMap<i64, i64> = HashMap::new();
    for k in 0..200i64 {
        net.send(Record::build().field("x", k).tag("lanek", k).finish())
            .unwrap();
    }
    for _ in 0..200 {
        let r = net.recv().expect("identity net echoes every record");
        outputs.insert(
            r.field("x").unwrap().as_int().unwrap(),
            r.tag("lanek").unwrap(),
        );
    }
    let lanes_used = net.metrics().sum_matching("branches");
    assert!(
        lanes_used <= u64::from(LANES),
        "lane namespace exceeded the bound: {lanes_used} > {LANES}"
    );
    let plateau = snet_runtime::path::interned_paths();

    // Stress phase: ~10k *fresh* distinct tag values. Without the
    // lane bound each would intern a new branch path (plus the
    // replica's component paths under it); with it, every path
    // already exists — the interner must not grow at all.
    let n_distinct = 10_000i64;
    for k in 200..200 + n_distinct {
        net.send(Record::build().field("x", k).tag("lanek", k).finish())
            .unwrap();
    }
    let out = net.finish();
    assert_eq!(out.len(), n_distinct as usize);
    assert_eq!(
        snet_runtime::path::interned_paths(),
        plateau,
        "interner grew under a bounded lane namespace"
    );

    // Semantics: the routing tag flow-inherits through (it is in the
    // box input here, echoed), values intact.
    for (x, k) in outputs {
        assert_eq!(x, k, "record payload corrupted by lane routing");
    }
}

/// Replica fusion interns zero paths of its own: the fused-fan
/// driver derives the exact component paths the unfused topology
/// interns (combinator, branch/lane, per-stage, merge edge) and
/// nothing else. Once the unfused replicator has run, re-running the
/// same net fan-fused must leave the process-wide interner — and the
/// net's `runtime/interner_paths` gauge — exactly at the plateau.
#[test]
fn replica_fusion_adds_zero_interner_paths() {
    let _serial = serialize_interner();
    let drive = |fuse: bool| -> u64 {
        let net = NetBuilder::from_source(
            "box id (x, <lanek>) -> (x, <lanek>);\n\
             net main = id !! <lanek>;",
        )
        .unwrap()
        .bind("id", |r, e| e.emit(r.clone()))
        .split_lanes(LANES)
        .fuse(fuse)
        .build("main")
        .unwrap();
        let metrics = std::sync::Arc::clone(net.metrics());
        for k in 0..200i64 {
            net.send(Record::build().field("x", k).tag("lanek", k).finish())
                .unwrap();
        }
        assert_eq!(net.finish().len(), 200);
        metrics.get("runtime/interner_paths")
    };
    // Plateau with the unfused dispatcher → lane → merger paths.
    drive(false);
    let plateau = snet_runtime::path::interned_paths();
    let gauge = drive(true);
    assert_eq!(
        snet_runtime::path::interned_paths(),
        plateau,
        "replica fusion interned paths beyond the unfused topology"
    );
    assert_eq!(gauge, plateau as u64, "gauge disagrees with the interner");
}
