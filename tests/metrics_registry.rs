//! Integration coverage for the handle-based metrics registry
//! (PR 1 tentpole): handle reads and legacy string-keyed queries must
//! agree on a nested network — a pipeline inside a serial replicator
//! inside an indexed parallel replicator — and the matching queries
//! must observe counters that components register *after* the network
//! has started (replicators spawn components dynamically).

use snet_runtime::NetBuilder;
use snet_types::Record;

/// `((id .. dec) ** {<done>}) !! <k>`: pipeline inside star inside
/// split. A record `{n, <k>}` traverses `n` replicas of the pipeline
/// in lane `k`, then exits tagged `<done>`.
fn nested_net() -> snet_runtime::Net {
    NetBuilder::from_source(
        "box id (n) -> (n);\n\
         box dec (n) -> (n) | (n, <done>);\n\
         net main = ((id .. dec) ** {<done>}) !! <k>;",
    )
    .unwrap()
    .bind("id", |r, e| e.emit(r.clone()))
    .bind("dec", |r, e| {
        let n = r.field("n").unwrap().as_int().unwrap() - 1;
        if n <= 0 {
            e.emit(Record::build().field("n", 0i64).tag("done", 1).finish());
        } else {
            e.emit(Record::build().field("n", n).finish());
        }
    })
    .build("main")
    .unwrap()
}

fn rec(n: i64, k: i64) -> Record {
    Record::build().field("n", n).tag("k", k).finish()
}

#[test]
fn handle_and_string_views_agree_on_nested_network() {
    let net = nested_net();
    for i in 0..30i64 {
        net.send(rec(1 + i % 5, i % 3)).unwrap();
    }
    let metrics = std::sync::Arc::clone(net.metrics());
    let out = net.finish();
    assert_eq!(out.len(), 30);

    // Every record passes the dispatcher exactly once.
    assert_eq!(metrics.sum_matching("splitnd/records_in"), 30);
    // Three lanes unfolded (k in 0..3).
    assert_eq!(metrics.sum_matching("/branches"), 3);
    // Every record leaves through some guard's exit tap exactly once.
    assert_eq!(metrics.sum_matching("/exits"), 30);
    // The pipeline is 1:1, so both boxes see identical record totals.
    assert_eq!(
        metrics.sum_matching("box:id/records_in"),
        metrics.sum_matching("box:dec/records_in"),
    );
    // id emits everything it receives.
    assert_eq!(
        metrics.sum_matching("box:id/records_in"),
        metrics.sum_matching("box:id/records_out"),
    );

    // The snapshot, per-key gets, and fresh handles are three views of
    // the same cells: they must agree key for key — this is the
    // "handle totals equal legacy string totals" contract.
    let snap = metrics.snapshot();
    assert!(!snap.is_empty());
    for (key, value) in &snap {
        assert_eq!(metrics.get(key), *value, "get() disagrees for {key}");
        assert_eq!(
            metrics.handle(key).get(),
            *value,
            "handle() disagrees for {key}"
        );
    }
    // sum_matching over everything equals summing the snapshot.
    let total: u64 = snap.values().sum();
    assert_eq!(metrics.sum_matching(""), total);
}

#[test]
fn matching_queries_see_counters_registered_after_start() {
    let net = nested_net();
    let metrics = std::sync::Arc::clone(net.metrics());

    // Shallow record in lane 0: unfolds one replica of one lane.
    net.send(rec(1, 0)).unwrap();
    assert!(net.recv().is_some());
    let lanes_before = metrics.count_matching("branch");
    let dec_counters_before = metrics.count_matching("box:dec/records_in");
    assert!(dec_counters_before >= 1);

    // Deep record in a NEW lane: the replicator spawns a fresh branch
    // and the star unfolds more stages — all registering counters well
    // after the network started. The string queries must see them.
    net.send(rec(6, 1)).unwrap();
    assert!(net.recv().is_some());
    let lanes_after = metrics.count_matching("branch");
    let dec_counters_after = metrics.count_matching("box:dec/records_in");
    assert!(
        lanes_after > lanes_before,
        "new lane's counters invisible to count_matching ({lanes_before} -> {lanes_after})"
    );
    assert!(
        dec_counters_after > dec_counters_before,
        "dynamically spawned stage counters invisible \
         ({dec_counters_before} -> {dec_counters_after})"
    );
    // And the totals keep adding up across the dynamic registrations.
    assert_eq!(metrics.sum_matching("splitnd/records_in"), 2);
    assert_eq!(metrics.sum_matching("/exits"), 2);

    let out = net.finish();
    assert!(out.is_empty());
}

#[test]
fn repeated_instantiation_accumulates_under_identical_keys() {
    // Spawning the same program twice yields metric registries with
    // identical key sets (paths are interned deterministically), so
    // dashboards/baselines can diff runs key-by-key.
    let run = |records: i64| {
        let net = nested_net();
        for i in 0..records {
            net.send(rec(2, i % 2)).unwrap();
        }
        let metrics = std::sync::Arc::clone(net.metrics());
        let _ = net.finish();
        metrics.snapshot()
    };
    let a = run(4);
    let b = run(4);
    let keys_a: Vec<&String> = a.keys().collect();
    let keys_b: Vec<&String> = b.keys().collect();
    assert_eq!(keys_a, keys_b);
    // `stream_depth` is a high-water gauge: how far a queue grows
    // before its consumer drains it is scheduling-dependent (visible
    // on bounded edges, the default, where every edge maintains it), so the
    // gauges are exempt from run-to-run value equality. So are the
    // `runtime/*` globals: `runtime/interner_paths` gauges the
    // process-wide path interner, which the other tests of this
    // binary grow concurrently.
    let values = |snap: &std::collections::BTreeMap<String, u64>| {
        snap.iter()
            .filter(|(k, _)| !k.ends_with("stream_depth") && !k.starts_with("runtime/"))
            .map(|(k, v)| (k.clone(), *v))
            .collect::<Vec<_>>()
    };
    assert_eq!(values(&a), values(&b));
}

/// One of each stage: a lone box (`a`), a fused fan (`(b .. c) ! <k>`),
/// a lone filter, a second fused fan (`l | r`) and a fused chain
/// (`d .. e`), all one stage run. Fusion and the bound are pinned, so
/// the key set does not follow the defaults.
fn one_of_each_driver() -> snet_runtime::Net {
    let fwd = |r: &Record, e: &mut snet_runtime::Emitter| e.emit(r.clone());
    NetBuilder::from_source(
        "box a (x) -> (x, <k>);\n\
         box b (x) -> (x);\n\
         box c (x) -> (x);\n\
         box l (x) -> (x);\n\
         box r (x, <odd>) -> (x);\n\
         box d (x) -> (x);\n\
         box e (x) -> (x);\n\
         net main = a .. ((b .. c) ! <k>) .. [{<k>} -> {<odd>=<k>}] .. (l | r) .. d .. e;",
    )
    .unwrap()
    .bind("a", |r, e| {
        let x = r.field("x").unwrap().as_int().unwrap();
        e.emit(Record::build().field("x", x).tag("k", x % 2).finish());
    })
    .bind("b", fwd)
    .bind("c", fwd)
    .bind("l", fwd)
    .bind("r", fwd)
    .bind("d", fwd)
    .bind("e", fwd)
    .fuse(true)
    .bound(128)
    .build("main")
    .unwrap()
}

/// Every combinator with a combinator for a body: the outer `||`, `!!`
/// and `**` hold an inner `|`, `!` and `*`. Fused, the whole net is one
/// stage run; unfused, every box is a component and every level runs
/// on its own dispatcher and merger. The bound is pinned as above.
fn each_combinator_both_ways(fuse: bool) -> snet_runtime::Net {
    let fwd = |r: &Record, e: &mut snet_runtime::Emitter| {
        e.emit(
            Record::build()
                .field("n", r.field("n").unwrap().as_int().unwrap())
                .finish(),
        )
    };
    NetBuilder::from_source(
        "box a (n) -> (n) | (n, <p>) | (n, <p>, <q>);\n\
         box l (n) -> (n);\n\
         box r (n, <p>) -> (n);\n\
         box m (n, <p>, <q>) -> (n);\n\
         box t (n) -> (n, <k>, <j>);\n\
         box b (n) -> (n);\n\
         box dec (n) -> (n) | (n, <z>);\n\
         net main = a .. ((l | r) || m) .. t .. ((b ! <k>) !! <j>) .. ((dec * {<z>}) ** {<z>});",
    )
    .unwrap()
    .bind("a", |r, e| {
        let n = r.field("n").unwrap().as_int().unwrap();
        let rec = Record::build().field("n", n);
        e.emit(match n % 3 {
            0 => rec.finish(),
            1 => rec.tag("p", 1).finish(),
            _ => rec.tag("p", 1).tag("q", 1).finish(),
        });
    })
    .bind("l", fwd)
    .bind("r", fwd)
    .bind("m", fwd)
    .bind("t", |r, e| {
        let n = r.field("n").unwrap().as_int().unwrap();
        e.emit(
            Record::build()
                .field("n", n)
                .tag("k", n % 2)
                .tag("j", n / 2 % 2)
                .finish(),
        );
    })
    .bind("b", fwd)
    .bind("dec", |r, e| {
        let n = r.field("n").unwrap().as_int().unwrap() - 1;
        if n <= 0 {
            e.emit(Record::build().field("n", 0i64).tag("z", 1).finish());
        } else {
            e.emit(Record::build().field("n", n).finish());
        }
    })
    .fuse(fuse)
    .bound(128)
    .build("main")
    .unwrap()
}

#[test]
fn key_set_of_every_stage_driver_is_pinned() {
    let ints = |field: &str, vals: &[i64]| -> Vec<Record> {
        vals.iter()
            .map(|v| Record::build().field(field, *v).finish())
            .collect()
    };
    // Fused, a net keeps every key of its pinned list but the gauge
    // pairs of the edges that no longer exist.
    let without = |pinned: &[&'static str], vanished: &[&str]| -> Vec<&'static str> {
        let kept: Vec<&str> = pinned
            .iter()
            .copied()
            .filter(|key| {
                !vanished.iter().any(|edge| {
                    key.strip_prefix(edge)
                        .is_some_and(|gauge| gauge == "/stream_depth" || gauge == "/credit_stalls")
                })
            })
            .collect();
        assert_eq!(kept.len(), pinned.len() - 2 * vanished.len());
        kept
    };
    let cases: [(snet_runtime::Net, usize, Vec<Record>, Vec<&str>); 3] = [
        (
            one_of_each_driver(),
            1,
            ints("x", &[0, 1, 2, 3, 4, 5, 6, 7]),
            without(&PINNED_KEYS, &VANISHED_SPINE_EDGES),
        ),
        (
            each_combinator_both_ways(false),
            13,
            ints("n", &[1, 2, 3, 1, 2, 3]),
            PINNED_UNFUSED_FAN_KEYS.to_vec(),
        ),
        (
            each_combinator_both_ways(true),
            1,
            ints("n", &[1, 2, 3, 1, 2, 3]),
            without(&PINNED_FAN_KEYS, &VANISHED_EDGES),
        ),
    ];
    for (net, components, inputs, pinned) in cases {
        assert_eq!(net.threads_spawned(), components, "components at build");
        for rec in &inputs {
            net.send(rec.clone()).unwrap();
        }
        let metrics = std::sync::Arc::clone(net.metrics());
        assert_eq!(net.finish().len(), inputs.len());
        let snap = metrics.snapshot();
        let keys: Vec<&str> = snap.keys().map(String::as_str).collect();
        assert_eq!(keys, pinned);
    }
}

/// `one_of_each_driver`'s metric keys, generated at the commit before
/// boxes and filters moved onto the stage-run driver (7426e96).
const PINNED_KEYS: [&str; 49] = [
    "net/credit_stalls",
    "net/s0/s0/s0/s0/s0/box:a/credit_stalls",
    "net/s0/s0/s0/s0/s0/box:a/records_in",
    "net/s0/s0/s0/s0/s0/box:a/records_out",
    "net/s0/s0/s0/s0/s0/box:a/spawned",
    "net/s0/s0/s0/s0/s0/box:a/stream_depth",
    "net/s0/s0/s0/s0/s1/split/branch0/s0/box:b/records_in",
    "net/s0/s0/s0/s0/s1/split/branch0/s0/box:b/records_out",
    "net/s0/s0/s0/s0/s1/split/branch0/s0/box:b/spawned",
    "net/s0/s0/s0/s0/s1/split/branch0/s1/box:c/records_in",
    "net/s0/s0/s0/s0/s1/split/branch0/s1/box:c/records_out",
    "net/s0/s0/s0/s0/s1/split/branch0/s1/box:c/spawned",
    "net/s0/s0/s0/s0/s1/split/branch1/s0/box:b/records_in",
    "net/s0/s0/s0/s0/s1/split/branch1/s0/box:b/records_out",
    "net/s0/s0/s0/s0/s1/split/branch1/s0/box:b/spawned",
    "net/s0/s0/s0/s0/s1/split/branch1/s1/box:c/records_in",
    "net/s0/s0/s0/s0/s1/split/branch1/s1/box:c/records_out",
    "net/s0/s0/s0/s0/s1/split/branch1/s1/box:c/spawned",
    "net/s0/s0/s0/s0/s1/split/branches",
    "net/s0/s0/s0/s0/s1/split/credit_stalls",
    "net/s0/s0/s0/s0/s1/split/records_in",
    "net/s0/s0/s0/s0/s1/split/stream_depth",
    "net/s0/s0/s0/s1/filter/credit_stalls",
    "net/s0/s0/s0/s1/filter/records_in",
    "net/s0/s0/s0/s1/filter/records_out",
    "net/s0/s0/s0/s1/filter/spawned",
    "net/s0/s0/s0/s1/filter/stream_depth",
    "net/s0/s0/s1/par/L/box:l/records_in",
    "net/s0/s0/s1/par/L/box:l/records_out",
    "net/s0/s0/s1/par/L/box:l/spawned",
    "net/s0/s0/s1/par/R/box:r/records_in",
    "net/s0/s0/s1/par/R/box:r/records_out",
    "net/s0/s0/s1/par/R/box:r/spawned",
    "net/s0/s0/s1/par/credit_stalls",
    "net/s0/s0/s1/par/records_in",
    "net/s0/s0/s1/par/routed_left",
    "net/s0/s0/s1/par/routed_right",
    "net/s0/s0/s1/par/stream_depth",
    "net/s0/s1/box:d/records_in",
    "net/s0/s1/box:d/records_out",
    "net/s0/s1/box:d/spawned",
    "net/s1/box:e/records_in",
    "net/s1/box:e/records_out",
    "net/s1/box:e/spawned",
    "net/stream_depth",
    "runtime/component_panics",
    "runtime/credit_stalls",
    "runtime/interner_paths",
    "runtime/stream_depth",
];

/// `each_combinator_both_ways`' metric keys by default at the commit
/// before fan fusion became transitive (4e2f6a9), when only the inner
/// `|`, `!` and `*` ran on the fan driver (10 components at build).
const PINNED_FAN_KEYS: [&str; 85] = [
    "net/credit_stalls",
    "net/s0/s0/s0/s0/box:a/credit_stalls",
    "net/s0/s0/s0/s0/box:a/records_in",
    "net/s0/s0/s0/s0/box:a/records_out",
    "net/s0/s0/s0/s0/box:a/spawned",
    "net/s0/s0/s0/s0/box:a/stream_depth",
    "net/s0/s0/s0/s1/parnd/L/credit_stalls",
    "net/s0/s0/s0/s1/parnd/L/par/L/box:l/records_in",
    "net/s0/s0/s0/s1/parnd/L/par/L/box:l/records_out",
    "net/s0/s0/s0/s1/parnd/L/par/L/box:l/spawned",
    "net/s0/s0/s0/s1/parnd/L/par/R/box:r/records_in",
    "net/s0/s0/s0/s1/parnd/L/par/R/box:r/records_out",
    "net/s0/s0/s0/s1/parnd/L/par/R/box:r/spawned",
    "net/s0/s0/s0/s1/parnd/L/par/credit_stalls",
    "net/s0/s0/s0/s1/parnd/L/par/records_in",
    "net/s0/s0/s0/s1/parnd/L/par/routed_left",
    "net/s0/s0/s0/s1/parnd/L/par/routed_right",
    "net/s0/s0/s0/s1/parnd/L/par/stream_depth",
    "net/s0/s0/s0/s1/parnd/L/stream_depth",
    "net/s0/s0/s0/s1/parnd/R/box:m/credit_stalls",
    "net/s0/s0/s0/s1/parnd/R/box:m/records_in",
    "net/s0/s0/s0/s1/parnd/R/box:m/records_out",
    "net/s0/s0/s0/s1/parnd/R/box:m/spawned",
    "net/s0/s0/s0/s1/parnd/R/box:m/stream_depth",
    "net/s0/s0/s0/s1/parnd/R/credit_stalls",
    "net/s0/s0/s0/s1/parnd/R/stream_depth",
    "net/s0/s0/s0/s1/parnd/credit_stalls",
    "net/s0/s0/s0/s1/parnd/records_in",
    "net/s0/s0/s0/s1/parnd/routed_left",
    "net/s0/s0/s0/s1/parnd/routed_right",
    "net/s0/s0/s0/s1/parnd/stream_depth",
    "net/s0/s0/s1/box:t/credit_stalls",
    "net/s0/s0/s1/box:t/records_in",
    "net/s0/s0/s1/box:t/records_out",
    "net/s0/s0/s1/box:t/spawned",
    "net/s0/s0/s1/box:t/stream_depth",
    "net/s0/s1/splitnd/branch0/credit_stalls",
    "net/s0/s1/splitnd/branch0/split/branch1/box:b/records_in",
    "net/s0/s1/splitnd/branch0/split/branch1/box:b/records_out",
    "net/s0/s1/splitnd/branch0/split/branch1/box:b/spawned",
    "net/s0/s1/splitnd/branch0/split/branches",
    "net/s0/s1/splitnd/branch0/split/credit_stalls",
    "net/s0/s1/splitnd/branch0/split/records_in",
    "net/s0/s1/splitnd/branch0/split/stream_depth",
    "net/s0/s1/splitnd/branch0/stream_depth",
    "net/s0/s1/splitnd/branch1/credit_stalls",
    "net/s0/s1/splitnd/branch1/split/branch0/box:b/records_in",
    "net/s0/s1/splitnd/branch1/split/branch0/box:b/records_out",
    "net/s0/s1/splitnd/branch1/split/branch0/box:b/spawned",
    "net/s0/s1/splitnd/branch1/split/branch1/box:b/records_in",
    "net/s0/s1/splitnd/branch1/split/branch1/box:b/records_out",
    "net/s0/s1/splitnd/branch1/split/branch1/box:b/spawned",
    "net/s0/s1/splitnd/branch1/split/branches",
    "net/s0/s1/splitnd/branch1/split/credit_stalls",
    "net/s0/s1/splitnd/branch1/split/records_in",
    "net/s0/s1/splitnd/branch1/split/stream_depth",
    "net/s0/s1/splitnd/branch1/stream_depth",
    "net/s0/s1/splitnd/branches",
    "net/s0/s1/splitnd/credit_stalls",
    "net/s0/s1/splitnd/records_in",
    "net/s0/s1/splitnd/stream_depth",
    "net/s1/starnd/credit_stalls",
    "net/s1/starnd/exits",
    "net/s1/starnd/stage0/credit_stalls",
    "net/s1/starnd/stage0/star/credit_stalls",
    "net/s1/starnd/stage0/star/exits",
    "net/s1/starnd/stage0/star/stage0/box:dec/records_in",
    "net/s1/starnd/stage0/star/stage0/box:dec/records_out",
    "net/s1/starnd/stage0/star/stage0/box:dec/spawned",
    "net/s1/starnd/stage0/star/stage1/box:dec/records_in",
    "net/s1/starnd/stage0/star/stage1/box:dec/records_out",
    "net/s1/starnd/stage0/star/stage1/box:dec/spawned",
    "net/s1/starnd/stage0/star/stage2/box:dec/records_in",
    "net/s1/starnd/stage0/star/stage2/box:dec/records_out",
    "net/s1/starnd/stage0/star/stage2/box:dec/spawned",
    "net/s1/starnd/stage0/star/stages",
    "net/s1/starnd/stage0/star/stream_depth",
    "net/s1/starnd/stage0/stream_depth",
    "net/s1/starnd/stages",
    "net/s1/starnd/stream_depth",
    "net/stream_depth",
    "runtime/component_panics",
    "runtime/credit_stalls",
    "runtime/interner_paths",
    "runtime/stream_depth",
];

/// The edges of `each_combinator_both_ways` that exist at 4e2f6a9 by
/// default and not once the net is one component. A nest, one
/// component: each outer lane's dispatch edge, each inner fan's merge
/// edge, and the output edge of the one lane that was a lone box. The
/// spine, one stage run: the output edge of each of its five parts
/// (the run's own output edge is `net/out`, whose gauges share the
/// `net/*` keys of the ingress edge).
const VANISHED_EDGES: [&str; 15] = [
    "net/s0/s0/s0/s1/parnd/L",
    "net/s0/s0/s0/s1/parnd/L/par",
    "net/s0/s0/s0/s1/parnd/R",
    "net/s0/s0/s0/s1/parnd/R/box:m",
    "net/s0/s1/splitnd/branch0",
    "net/s0/s1/splitnd/branch0/split",
    "net/s0/s1/splitnd/branch1",
    "net/s0/s1/splitnd/branch1/split",
    "net/s1/starnd/stage0",
    "net/s1/starnd/stage0/star",
    "net/s0/s0/s0/s0/box:a",
    "net/s0/s0/s0/s1/parnd",
    "net/s0/s0/s1/box:t",
    "net/s0/s1/splitnd",
    "net/s1/starnd",
];

/// The edges of `one_of_each_driver` that exist at 7426e96 and not
/// once its spine is one stage run: the output edges of the four parts
/// ahead of the fused `d .. e`, which was already owned at `net`.
const VANISHED_SPINE_EDGES: [&str; 4] = [
    "net/s0/s0/s0/s0/s0/box:a",
    "net/s0/s0/s0/s0/s1/split",
    "net/s0/s0/s0/s1/filter",
    "net/s0/s0/s1/par",
];

/// `each_combinator_both_ways`' metric keys under `fuse(false)`,
/// generated at 2f41f25 (13 components at build).
const PINNED_UNFUSED_FAN_KEYS: [&str; 119] = [
    "net/credit_stalls",
    "net/s0/s0/s0/s0/box:a/credit_stalls",
    "net/s0/s0/s0/s0/box:a/records_in",
    "net/s0/s0/s0/s0/box:a/records_out",
    "net/s0/s0/s0/s0/box:a/spawned",
    "net/s0/s0/s0/s0/box:a/stream_depth",
    "net/s0/s0/s0/s1/parnd/L/credit_stalls",
    "net/s0/s0/s0/s1/parnd/L/par/L/box:l/credit_stalls",
    "net/s0/s0/s0/s1/parnd/L/par/L/box:l/records_in",
    "net/s0/s0/s0/s1/parnd/L/par/L/box:l/records_out",
    "net/s0/s0/s0/s1/parnd/L/par/L/box:l/spawned",
    "net/s0/s0/s0/s1/parnd/L/par/L/box:l/stream_depth",
    "net/s0/s0/s0/s1/parnd/L/par/L/credit_stalls",
    "net/s0/s0/s0/s1/parnd/L/par/L/stream_depth",
    "net/s0/s0/s0/s1/parnd/L/par/R/box:r/credit_stalls",
    "net/s0/s0/s0/s1/parnd/L/par/R/box:r/records_in",
    "net/s0/s0/s0/s1/parnd/L/par/R/box:r/records_out",
    "net/s0/s0/s0/s1/parnd/L/par/R/box:r/spawned",
    "net/s0/s0/s0/s1/parnd/L/par/R/box:r/stream_depth",
    "net/s0/s0/s0/s1/parnd/L/par/R/credit_stalls",
    "net/s0/s0/s0/s1/parnd/L/par/R/stream_depth",
    "net/s0/s0/s0/s1/parnd/L/par/credit_stalls",
    "net/s0/s0/s0/s1/parnd/L/par/records_in",
    "net/s0/s0/s0/s1/parnd/L/par/routed_left",
    "net/s0/s0/s0/s1/parnd/L/par/routed_right",
    "net/s0/s0/s0/s1/parnd/L/par/stream_depth",
    "net/s0/s0/s0/s1/parnd/L/stream_depth",
    "net/s0/s0/s0/s1/parnd/R/box:m/credit_stalls",
    "net/s0/s0/s0/s1/parnd/R/box:m/records_in",
    "net/s0/s0/s0/s1/parnd/R/box:m/records_out",
    "net/s0/s0/s0/s1/parnd/R/box:m/spawned",
    "net/s0/s0/s0/s1/parnd/R/box:m/stream_depth",
    "net/s0/s0/s0/s1/parnd/R/credit_stalls",
    "net/s0/s0/s0/s1/parnd/R/stream_depth",
    "net/s0/s0/s0/s1/parnd/credit_stalls",
    "net/s0/s0/s0/s1/parnd/records_in",
    "net/s0/s0/s0/s1/parnd/routed_left",
    "net/s0/s0/s0/s1/parnd/routed_right",
    "net/s0/s0/s0/s1/parnd/stream_depth",
    "net/s0/s0/s1/box:t/credit_stalls",
    "net/s0/s0/s1/box:t/records_in",
    "net/s0/s0/s1/box:t/records_out",
    "net/s0/s0/s1/box:t/spawned",
    "net/s0/s0/s1/box:t/stream_depth",
    "net/s0/s1/splitnd/branch0/credit_stalls",
    "net/s0/s1/splitnd/branch0/split/branch1/box:b/credit_stalls",
    "net/s0/s1/splitnd/branch0/split/branch1/box:b/records_in",
    "net/s0/s1/splitnd/branch0/split/branch1/box:b/records_out",
    "net/s0/s1/splitnd/branch0/split/branch1/box:b/spawned",
    "net/s0/s1/splitnd/branch0/split/branch1/box:b/stream_depth",
    "net/s0/s1/splitnd/branch0/split/branch1/credit_stalls",
    "net/s0/s1/splitnd/branch0/split/branch1/stream_depth",
    "net/s0/s1/splitnd/branch0/split/branches",
    "net/s0/s1/splitnd/branch0/split/credit_stalls",
    "net/s0/s1/splitnd/branch0/split/records_in",
    "net/s0/s1/splitnd/branch0/split/stream_depth",
    "net/s0/s1/splitnd/branch0/stream_depth",
    "net/s0/s1/splitnd/branch1/credit_stalls",
    "net/s0/s1/splitnd/branch1/split/branch0/box:b/credit_stalls",
    "net/s0/s1/splitnd/branch1/split/branch0/box:b/records_in",
    "net/s0/s1/splitnd/branch1/split/branch0/box:b/records_out",
    "net/s0/s1/splitnd/branch1/split/branch0/box:b/spawned",
    "net/s0/s1/splitnd/branch1/split/branch0/box:b/stream_depth",
    "net/s0/s1/splitnd/branch1/split/branch0/credit_stalls",
    "net/s0/s1/splitnd/branch1/split/branch0/stream_depth",
    "net/s0/s1/splitnd/branch1/split/branch1/box:b/credit_stalls",
    "net/s0/s1/splitnd/branch1/split/branch1/box:b/records_in",
    "net/s0/s1/splitnd/branch1/split/branch1/box:b/records_out",
    "net/s0/s1/splitnd/branch1/split/branch1/box:b/spawned",
    "net/s0/s1/splitnd/branch1/split/branch1/box:b/stream_depth",
    "net/s0/s1/splitnd/branch1/split/branch1/credit_stalls",
    "net/s0/s1/splitnd/branch1/split/branch1/stream_depth",
    "net/s0/s1/splitnd/branch1/split/branches",
    "net/s0/s1/splitnd/branch1/split/credit_stalls",
    "net/s0/s1/splitnd/branch1/split/records_in",
    "net/s0/s1/splitnd/branch1/split/stream_depth",
    "net/s0/s1/splitnd/branch1/stream_depth",
    "net/s0/s1/splitnd/branches",
    "net/s0/s1/splitnd/credit_stalls",
    "net/s0/s1/splitnd/records_in",
    "net/s0/s1/splitnd/stream_depth",
    "net/s1/starnd/credit_stalls",
    "net/s1/starnd/exits",
    "net/s1/starnd/stage0/credit_stalls",
    "net/s1/starnd/stage0/star/credit_stalls",
    "net/s1/starnd/stage0/star/exits",
    "net/s1/starnd/stage0/star/stage0/box:dec/credit_stalls",
    "net/s1/starnd/stage0/star/stage0/box:dec/records_in",
    "net/s1/starnd/stage0/star/stage0/box:dec/records_out",
    "net/s1/starnd/stage0/star/stage0/box:dec/spawned",
    "net/s1/starnd/stage0/star/stage0/box:dec/stream_depth",
    "net/s1/starnd/stage0/star/stage0/credit_stalls",
    "net/s1/starnd/stage0/star/stage0/stream_depth",
    "net/s1/starnd/stage0/star/stage1/box:dec/credit_stalls",
    "net/s1/starnd/stage0/star/stage1/box:dec/records_in",
    "net/s1/starnd/stage0/star/stage1/box:dec/records_out",
    "net/s1/starnd/stage0/star/stage1/box:dec/spawned",
    "net/s1/starnd/stage0/star/stage1/box:dec/stream_depth",
    "net/s1/starnd/stage0/star/stage1/credit_stalls",
    "net/s1/starnd/stage0/star/stage1/stream_depth",
    "net/s1/starnd/stage0/star/stage2/box:dec/credit_stalls",
    "net/s1/starnd/stage0/star/stage2/box:dec/records_in",
    "net/s1/starnd/stage0/star/stage2/box:dec/records_out",
    "net/s1/starnd/stage0/star/stage2/box:dec/spawned",
    "net/s1/starnd/stage0/star/stage2/box:dec/stream_depth",
    "net/s1/starnd/stage0/star/stage2/credit_stalls",
    "net/s1/starnd/stage0/star/stage2/stream_depth",
    "net/s1/starnd/stage0/star/stages",
    "net/s1/starnd/stage0/star/stamper/credit_stalls",
    "net/s1/starnd/stage0/star/stamper/stream_depth",
    "net/s1/starnd/stage0/star/stream_depth",
    "net/s1/starnd/stage0/stream_depth",
    "net/s1/starnd/stages",
    "net/s1/starnd/stream_depth",
    "net/stream_depth",
    "runtime/component_panics",
    "runtime/credit_stalls",
    "runtime/interner_paths",
    "runtime/stream_depth",
];
