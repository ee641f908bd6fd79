//! Cross-crate runtime semantics: ordering guarantees of the
//! deterministic and non-deterministic combinator variants, nesting,
//! observers, and load-adaptivity — the Section 4 execution model.

use snet_runtime::{Dir, NetBuilder, Observer};
use snet_types::{Record, Value};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// A network of two "workers" with identical types but very different
/// speeds, merged (non)deterministically. `slow_ms` injects real skew.
fn speed_net(det: bool, slow_ms: u64) -> snet_runtime::Net {
    let src = format!(
        "box fast (x, <w>) -> (x, <who>);
         box slow (x, <w>) -> (x, <who>);
         net main = fast {} slow;",
        if det { "|" } else { "||" }
    );
    NetBuilder::from_source(&src)
        .unwrap()
        .bind("fast", |rec, em| {
            let x = rec.field("x").unwrap().as_int().unwrap();
            em.emit(Record::build().field("x", x).tag("who", 0).finish());
        })
        .bind("slow", move |rec, em| {
            std::thread::sleep(std::time::Duration::from_millis(slow_ms));
            let x = rec.field("x").unwrap().as_int().unwrap();
            em.emit(Record::build().field("x", x).tag("who", 1).finish());
        })
        .build("main")
        .unwrap()
}

#[test]
fn nondet_merge_is_load_adaptive() {
    // "any record produced proceeds as soon as possible. This
    // behaviour makes it possible to write S-Net programs that adapt
    // to the load distribution" — fast results overtake slow ones.
    let net = speed_net(false, 40);
    // Equal match scores: records alternate between branches; make the
    // slow branch receive the FIRST record so overtaking is observable.
    for i in 0..6i64 {
        net.send(Record::build().field("x", i).tag("w", 0).finish())
            .unwrap();
    }
    let out = net.finish();
    assert_eq!(out.len(), 6);
    let who: Vec<i64> = out.iter().map(|r| r.tag("who").unwrap()).collect();
    // All fast-branch results must precede at least the last
    // slow-branch result (with 40ms skew per slow record this is
    // deterministic in practice).
    let last_fast = who.iter().rposition(|&w| w == 0).unwrap();
    let first_slow = who.iter().position(|&w| w == 1).unwrap();
    assert!(
        first_slow > 0 || last_fast > first_slow,
        "expected some overtaking, got {who:?}"
    );
}

#[test]
fn det_merge_restores_input_order_despite_skew() {
    let net = speed_net(true, 20);
    for i in 0..8i64 {
        net.send(Record::build().field("x", i).tag("w", 0).finish())
            .unwrap();
    }
    let out = net.finish();
    let xs: Vec<i64> = out
        .iter()
        .map(|r| r.field("x").unwrap().as_int().unwrap())
        .collect();
    assert_eq!(
        xs,
        (0..8).collect::<Vec<_>>(),
        "det merge must restore order"
    );
}

#[test]
fn det_split_inside_nondet_parallel() {
    // Nesting: a deterministic split inside a non-deterministic
    // parallel composition. Per-split order must hold per branch.
    let src = "
        box work (x, <k>) -> (x, <k>);
        box other (y) -> (y);
        net main = (work ! <k>) || other;
    ";
    let net = NetBuilder::from_source(src)
        .unwrap()
        .bind("work", |rec, em| {
            let x = rec.field("x").unwrap().as_int().unwrap();
            let k = rec.tag("k").unwrap();
            em.emit(Record::build().field("x", x).tag("k", k).finish());
        })
        .bind("other", |rec, em| em.emit(rec.clone()))
        .build("main")
        .unwrap();
    for i in 0..24i64 {
        net.send(Record::build().field("x", i).tag("k", i % 3).finish())
            .unwrap();
        net.send(Record::build().field("y", i).finish()).unwrap();
    }
    let out = net.finish();
    assert_eq!(out.len(), 48);
    // The det-split side preserved global input order among its own
    // records.
    let xs: Vec<i64> = out
        .iter()
        .filter_map(|r| r.field("x").map(|v| v.as_int().unwrap()))
        .collect();
    assert_eq!(xs, (0..24).collect::<Vec<_>>());
}

#[test]
fn nondet_star_inside_det_parallel_keeps_outer_order() {
    // The hard case: a NON-deterministic replicator nested inside a
    // DETERMINISTIC parallel composition. The outer det scope must
    // still deliver results in input order — its sort records traverse
    // the star's guards and merger.
    let src = "
        box countdown (n) -> (n) | (n, <z>);
        box mirror (m) -> (m);
        net main = (countdown ** {<z>}) | mirror;
    ";
    let net = NetBuilder::from_source(src)
        .unwrap()
        .bind("countdown", |rec, em| {
            let n = rec.field("n").unwrap().as_int().unwrap();
            if n <= 1 {
                em.emit(Record::build().field("n", 0i64).tag("z", 1).finish());
            } else {
                em.emit(Record::build().field("n", n - 1).finish());
            }
        })
        .bind("mirror", |rec, em| em.emit(rec.clone()))
        .build("main")
        .unwrap();

    // Alternate: deep countdowns (slow) and mirrors (instant). The det
    // parallel must emit them in input order regardless.
    let mut expected_kind = Vec::new();
    for i in 0..10i64 {
        if i % 2 == 0 {
            net.send(Record::build().field("n", 30 + i).tag("id", i).finish())
                .unwrap();
            expected_kind.push("n");
        } else {
            net.send(Record::build().field("m", i).tag("id", i).finish())
                .unwrap();
            expected_kind.push("m");
        }
    }
    let out = net.finish();
    assert_eq!(out.len(), 10);
    let ids: Vec<i64> = out.iter().map(|r| r.tag("id").unwrap()).collect();
    assert_eq!(
        ids,
        (0..10).collect::<Vec<_>>(),
        "outer det scope order broken by inner nondet star"
    );
}

#[test]
fn observers_see_every_stream_individually() {
    // "all streams can be observed individually" (Section 1).
    let log: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
    let log2 = Arc::clone(&log);
    let obs: Observer = Arc::new(move |path, dir, rec| {
        log2.lock().unwrap().push(format!(
            "{path} {} {}",
            if dir == Dir::In { "<-" } else { "->" },
            rec.record_type()
        ));
    });
    let src = "
        box a (x) -> (x);
        box b (x) -> (x);
        net main = a .. [{x} -> {x}] .. b;
    ";
    let net = NetBuilder::from_source(src)
        .unwrap()
        .bind("a", |r, e| e.emit(r.clone()))
        .bind("b", |r, e| e.emit(r.clone()))
        .observe(obs)
        .build("main")
        .unwrap();
    net.send(Record::build().field("x", 1i64).finish()).unwrap();
    let _ = net.finish();
    let log = log.lock().unwrap();
    // Each component boundary observed, with distinct paths.
    assert!(log.iter().any(|l| l.contains("box:a") && l.contains("<-")));
    assert!(log.iter().any(|l| l.contains("box:a") && l.contains("->")));
    assert!(log.iter().any(|l| l.contains("filter")));
    assert!(log.iter().any(|l| l.contains("box:b")));
}

#[test]
fn multi_output_boxes_fan_out_through_pipeline() {
    // A box emitting a dynamic number of records ("an S-Net box may
    // yield multiple output records ... in response to a single input
    // record"), composed serially.
    let src = "
        box burst (n) -> (v);
        box negate (v) -> (v);
        net main = burst .. negate;
    ";
    let net = NetBuilder::from_source(src)
        .unwrap()
        .bind("burst", |rec, em| {
            let n = rec.field("n").unwrap().as_int().unwrap();
            for v in 0..n {
                em.emit(Record::build().field("v", v).finish());
            }
        })
        .bind("negate", |rec, em| {
            let v = rec.field("v").unwrap().as_int().unwrap();
            em.emit(Record::build().field("v", -v).finish());
        })
        .build("main")
        .unwrap();
    net.send(Record::build().field("n", 5i64).finish()).unwrap();
    net.send(Record::build().field("n", 0i64).finish()).unwrap();
    net.send(Record::build().field("n", 2i64).finish()).unwrap();
    let out = net.finish();
    let vs: Vec<i64> = out
        .iter()
        .map(|r| r.field("v").unwrap().as_int().unwrap())
        .collect();
    assert_eq!(vs, vec![0, -1, -2, -3, -4, 0, -1]);
}

#[test]
fn stateless_boxes_share_nothing() {
    // Boxes are stateless: processing the same record twice gives the
    // same outputs regardless of interleaving. Hammer a box from a
    // split and check value integrity.
    let src = "
        box square (x) -> (x, sq);
        net main = square !! <lane>;
    ";
    let net = NetBuilder::from_source(src)
        .unwrap()
        .bind("square", |rec, em| {
            let x = rec.field("x").unwrap().as_int().unwrap();
            em.emit(Record::build().field("x", x).field("sq", x * x).finish());
        })
        .build("main")
        .unwrap();
    for i in 0..200i64 {
        net.send(Record::build().field("x", i).tag("lane", i % 8).finish())
            .unwrap();
    }
    let out = net.finish();
    assert_eq!(out.len(), 200);
    for r in &out {
        let x = r.field("x").unwrap().as_int().unwrap();
        let sq = r.field("sq").unwrap().as_int().unwrap();
        assert_eq!(sq, x * x);
    }
}

#[test]
fn box_panics_surface_at_finish() {
    // A failing computational component must not hang the network or
    // disappear silently: finish() joins all threads and re-raises.
    let src = "
        box ok (x) -> (x);
        box bad (x) -> (x);
        net main = ok .. bad;
    ";
    let net = NetBuilder::from_source(src)
        .unwrap()
        .bind("ok", |r, e| e.emit(r.clone()))
        .bind("bad", |rec, _e| {
            if rec.field("x").unwrap().as_int() == Some(3) {
                panic!("box function failed on x=3");
            }
        })
        .build("main")
        .unwrap();
    for i in 0..5i64 {
        let _ = net.send(Record::build().field("x", i).finish());
    }
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || net.finish()));
    assert!(result.is_err(), "panic in a box must propagate to finish()");
}

#[test]
fn one_stream_of_fig1_is_observable_on_its_own() {
    // "All streams can be observed individually": one observer on a
    // real network counts the crossings of every component path, and
    // the stage-0 solveOneLevel stream is among them.
    let crossings: Arc<Mutex<BTreeMap<String, (usize, usize)>>> = Arc::default();
    let log = Arc::clone(&crossings);
    let observer: Observer = Arc::new(move |path, dir, _rec| {
        let mut log = log.lock().unwrap();
        let slot = log.entry(path.to_string()).or_default();
        match dir {
            Dir::In => slot.0 += 1,
            Dir::Out => slot.1 += 1,
        }
    });
    let net =
        sudoku::networks::net_with_observers(2, sudoku::networks::FIG1, vec![observer]).unwrap();
    net.send(sudoku::boxes::puzzle_record(&sudoku::puzzles::mini4()))
        .unwrap();
    let _ = net.finish();
    let crossings = crossings.lock().unwrap();
    assert!(
        crossings
            .keys()
            .any(|p| p.contains("stage0/box:solveOneLevel")),
        "stage-0 solveOneLevel stream should be observable: {crossings:?}"
    );
    // computeOpts consumed exactly one record (the puzzle) and emitted
    // one.
    let compute = crossings
        .iter()
        .find(|(p, _)| p.contains("box:computeOpts"))
        .map(|(_, v)| *v);
    assert_eq!(compute, Some((1, 1)));
}

#[test]
fn values_move_by_reference_not_copy() {
    // Payloads are reference-counted: a large array passed through a
    // pipeline of identity boxes is never deep-copied.
    let big = sacarray::Array::fill([512, 512], 7i64);
    let src = "
        box id1 (blob) -> (blob);
        box id2 (blob) -> (blob);
        net main = id1 .. id2;
    ";
    let net = NetBuilder::from_source(src)
        .unwrap()
        .bind("id1", |r, e| e.emit(r.clone()))
        .bind("id2", |r, e| e.emit(r.clone()))
        .build("main")
        .unwrap();
    net.send(
        Record::build()
            .field("blob", Value::from(big.clone()))
            .finish(),
    )
    .unwrap();
    let out = net.finish();
    let arr = out[0].field("blob").unwrap().as_int_array().unwrap();
    assert!(
        arr.ptr_eq(&big),
        "array was deep-copied somewhere in the pipeline"
    );
}
