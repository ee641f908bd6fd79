//! Fusion equivalence: the fused and unfused instantiations of the
//! same plan must be observationally identical — byte-identical
//! (deterministically ordered) output, identical per-stage metrics
//! paths and counts — under every executor. Only the component count
//! may differ: an n-stage fused chain runs as **one** component.
//!
//! `NetBuilder::fuse(bool)` drives both topologies in-process; the
//! `SNET_FUSE=0` CI leg additionally re-runs the whole suite with the
//! process default flipped.

use snet_runtime::{
    ChaosConfig, Executor, FaultPolicy, Net, NetBuilder, ThreadPerComponent, WorkStealingPool,
};
use snet_types::Record;
use std::sync::Arc;

/// The executor matrix of the ISSUE: threads, pool, pool+1.
fn executors() -> Vec<(&'static str, Arc<dyn Executor>)> {
    vec![
        ("threads", Arc::new(ThreadPerComponent) as Arc<dyn Executor>),
        ("pool", Arc::new(WorkStealingPool::new(2)) as _),
        ("pool+1", Arc::new(WorkStealingPool::new(1)) as _),
    ]
}

/// Boxes for every topology under test:
/// * `inc` — 1:1, type-preserving;
/// * `rep` — multi-emission: `x*10 + i` for `i in 0..c` (0 included,
///   so some records vanish);
/// * `dec` — star step: counts `n` down, exits tagged `<z>`;
/// * `fork` — Fig. 2's `solveOneLevelK` in miniature: a record either
///   finishes (`<z>`) or continues as one or two smaller records on
///   other `<k>` lanes, so a star over it holds a widening frontier.
const SRC: &str = "
    box inc (x) -> (x);
    box rep (x, <c>) -> (x, <c>);
    box dec (n) -> (n) | (n, <z>);
    box fork (n, <k>) -> (n, <k>) | (n, <k>, <z>);
";

/// A builder for `expr` with every box bound — the shared base for
/// the fuse / fuse_fan / fault-policy variations below.
fn fan_builder(expr: &str) -> NetBuilder {
    NetBuilder::from_source(&format!("{SRC}\nnet main = {expr};"))
        .unwrap()
        .bind("inc", |r, e| {
            let x = r.field("x").unwrap().as_int().unwrap();
            e.emit(Record::build().field("x", x + 1).finish());
        })
        .bind("rep", |r, e| {
            let x = r.field("x").unwrap().as_int().unwrap();
            let c = r.tag("c").unwrap();
            for i in 0..c {
                e.emit(Record::build().field("x", x * 10 + i).tag("c", c).finish());
            }
        })
        .bind("dec", |r, e| {
            let n = r.field("n").unwrap().as_int().unwrap();
            if n <= 1 {
                e.emit(Record::build().field("n", 0i64).tag("z", 1).finish());
            } else {
                e.emit(Record::build().field("n", n - 1).finish());
            }
        })
        .bind("fork", |r, e| {
            let n = r.field("n").unwrap().as_int().unwrap();
            let k = r.tag("k").unwrap();
            let rec = |n: i64, k: i64| Record::build().field("n", n).tag("k", k % 3);
            if n <= 1 {
                e.emit(rec(0, k).tag("z", 1).finish());
            } else {
                e.emit(rec(n - 1, k + 1).finish());
                if n % 2 == 0 {
                    e.emit(rec(n - 2, k + 2).finish());
                }
            }
        })
}

fn build(expr: &str, exec: Arc<dyn Executor>, fuse: bool) -> Net {
    fan_builder(expr)
        .executor(exec)
        .fuse(fuse)
        .build("main")
        .unwrap()
}

/// Deterministically ordered topologies (pure chains and det
/// combinators) whose output must be **byte-identical** fused vs
/// unfused, per executor.
const DET_EXPRS: &[&str] = &[
    // Pure chains, 1:1 and multi-emission.
    "inc .. inc .. inc .. inc",
    "rep .. rep",
    "inc .. rep .. inc .. rep",
    // Filters inside the chain.
    "inc .. [{x} -> {y=x}] .. [{y} -> {x=y, <t>=1}] .. inc",
    // Fusion barrier: a det split interrupts the chain — the runs on
    // either side fuse separately, ordering still global.
    "inc .. inc .. (rep ! <k>) .. inc .. inc",
    // Det parallel of two fusable chains.
    "(inc .. inc) | (rep .. inc)",
    // Fused chain inside a det combinator scope (sort records must
    // traverse the fused component byte-identically).
    "(inc .. inc .. rep) ! <k>",
];

/// `{x, <c>, <k>, <k2>}` inputs: a second routing tag, so nested
/// replicators (`! <k2>` inside `! <k>`) have something to route on.
/// With `some_without_c` every third record lacks `<c>`, so only `inc`
/// accepts it and both branches of a parallel composition see traffic.
fn xs(n: i64, some_without_c: bool) -> Vec<Record> {
    (0..n)
        .map(|i| {
            let rec = Record::build()
                .field("x", i)
                .tag("k", (i * 5 + 1) % 3)
                .tag("k2", (i * 3 + 2) % 2);
            if some_without_c && i % 3 == 0 {
                rec.finish()
            } else {
                rec.tag("c", (i * 7 + 3) % 4).finish()
            }
        })
        .collect()
}

/// `{n, <k>, <k2>, <id>}` inputs for the stars: `n` in 1..=7 is the
/// depth a record reaches (and, through `fork`, how far it fans out).
fn ns(n: i64) -> Vec<Record> {
    (0..n)
        .map(|i| {
            Record::build()
                .field("n", (i * 13 + 7) % 7 + 1)
                .tag("k", i % 3)
                .tag("k2", (i * 3 + 2) % 2)
                .tag("id", i)
                .finish()
        })
        .collect()
}

/// Renders the full output stream for byte-for-byte comparison.
fn drive(net: Net, inputs: &[Record]) -> Vec<String> {
    for rec in inputs {
        net.send(rec.clone()).unwrap();
    }
    net.finish().iter().map(|r| format!("{r:?}")).collect()
}

/// Nested fans, each a det net and its nondet twin: Fig. 2's shape (a
/// star of a split), Fig. 3's (the star's body is `filter .. split`, a
/// `Chain`), a parallel of splits and a three-level nest.
const NESTED_EXPRS: [(&str, &str); 4] = [
    ("(fork ! <k>) * {<z>}", "(fork !! <k>) ** {<z>}"),
    (
        "([{<k>} -> {<k>=<k>%2}] .. (fork ! <k>)) * {<z>}",
        "([{<k>} -> {<k>=<k>%2}] .. (fork !! <k>)) ** {<z>}",
    ),
    (
        "(inc ! <k>) | (rep ! <k2>)",
        "(inc !! <k>) || (rep !! <k2>)",
    ),
    (
        "((fork ! <k>) ! <k2>) * {<z>}",
        "((fork !! <k>) !! <k2>) ** {<z>}",
    ),
];

/// Every [`NESTED_EXPRS`] net with the inputs it takes and whether its
/// order is defined (det) or the scheduler's (the nondet twin).
fn nested_cases() -> impl Iterator<Item = (&'static str, Vec<Record>, bool)> {
    let inputs = |expr: &str| {
        if expr.contains("fork") {
            ns(20)
        } else {
            xs(30, true)
        }
    };
    NESTED_EXPRS
        .into_iter()
        .flat_map(move |(det, nondet)| [(det, inputs(det), true), (nondet, inputs(nondet), false)])
}

#[test]
fn fused_fan_matrix_is_byte_identical() {
    // Det split, det parallel, a fan in a fan and every nest of
    // NESTED_EXPRS, each driven across {threads, pool(1), pool(2)} ×
    // {fan fused, fan unfused} with chain fusion on. Output must be
    // byte-identical to the fully unfused reference; a nondet net's
    // order is the scheduler's, so its twin compares multisets.
    let flat = [
        "(inc .. inc .. rep) ! <k>",
        "(inc .. inc) | (rep .. inc)",
        "((inc .. rep) ! <k2>) ! <k>",
    ];
    let cases = (flat.into_iter().map(|expr| (expr, xs(60, false), true))).chain(nested_cases());
    for (expr, inputs, ordered) in cases {
        let run = |b: NetBuilder| {
            let mut out = drive(b.build("main").unwrap(), &inputs);
            if !ordered {
                out.sort();
            }
            out
        };
        let reference = run(fan_builder(expr)
            .executor(Arc::new(ThreadPerComponent))
            .fuse(false));
        assert!(reference.len() >= inputs.len() / 2, "{expr}");
        for (name, exec) in executors() {
            for fan in [true, false] {
                let got = run(fan_builder(expr)
                    .executor(Arc::clone(&exec))
                    .fuse(true)
                    .fuse_fan(fan));
                assert_eq!(
                    got, reference,
                    "{expr} diverged under {name} (fuse_fan={fan})"
                );
            }
        }
    }
}

#[test]
fn fused_output_is_byte_identical_to_unfused_across_executors() {
    for expr in DET_EXPRS {
        let reference = drive(
            build(expr, Arc::new(ThreadPerComponent), false),
            &xs(60, false),
        );
        for (name, exec) in executors() {
            for fuse in [true, false] {
                let got = drive(build(expr, Arc::clone(&exec), fuse), &xs(60, false));
                assert_eq!(got, reference, "{expr} diverged under {name} (fuse={fuse})");
            }
        }
    }
}

#[test]
fn nondet_barrier_conserves_records_fused_and_unfused() {
    // The non-det replicator barrier: global output order is
    // scheduler-dependent, so compare the multiset (and rely on the
    // det exprs above for ordering).
    let expr = "inc .. inc .. (rep !! <k>) .. inc .. inc";
    let mut reference = drive(
        build(expr, Arc::new(ThreadPerComponent), false),
        &xs(60, false),
    );
    reference.sort();
    for (name, exec) in executors() {
        for fuse in [true, false] {
            let mut got = drive(build(expr, Arc::clone(&exec), fuse), &xs(60, false));
            got.sort();
            assert_eq!(
                got, reference,
                "{expr} lost/duplicated records under {name} (fuse={fuse})"
            );
        }
    }
}

#[test]
fn det_star_with_fused_inner_keeps_input_order() {
    // (dec .. dec) * {<z>}: the star's inner pipeline fuses — and
    // with fan fusion the whole star collapses into one component.
    // Det star output must stay in input order, identical to
    // unfused, both ways.
    let run = |fuse: bool, fan: bool, exec: Arc<dyn Executor>| -> Vec<String> {
        let net = fan_builder("(dec .. dec) * {<z>}")
            .executor(exec)
            .fuse(fuse)
            .fuse_fan(fan)
            .build("main")
            .unwrap();
        for (id, d) in (0..20i64).map(|i| (i, (i * 13 + 7) % 9 + 1)) {
            net.send(Record::build().field("n", d).tag("id", id).finish())
                .unwrap();
        }
        net.finish().iter().map(|r| format!("{r:?}")).collect()
    };
    let reference = run(false, false, Arc::new(ThreadPerComponent));
    for (name, exec) in executors() {
        for fuse in [true, false] {
            for fan in [true, false] {
                assert_eq!(
                    run(fuse, fan, Arc::clone(&exec)),
                    reference,
                    "det star diverged under {name} (fuse={fuse}, fan={fan})"
                );
            }
        }
    }
}

#[test]
fn fused_chain_runs_as_one_component() {
    // The point of fusion: n stages, one scheduled component.
    let fused = build(
        "inc .. inc .. inc .. inc",
        Arc::new(ThreadPerComponent),
        true,
    );
    let unfused = build(
        "inc .. inc .. inc .. inc",
        Arc::new(ThreadPerComponent),
        false,
    );
    assert_eq!(fused.threads_spawned(), 1);
    assert_eq!(unfused.threads_spawned(), 4);
    let _ = fused.finish();
    let _ = unfused.finish();
}

#[test]
fn barrier_chains_fuse_only_the_runs() {
    // inc .. inc .. (rep !! <k>) .. inc .. inc: two fused runs around
    // the replicator, which replica fusion collapses to a single
    // component of its own (dispatch + lanes + merge handoff) — 3
    // components in total, with lane cores unfolding on demand
    // inside the middle one.
    let net = build(
        "inc .. inc .. (rep !! <k>) .. inc .. inc",
        Arc::new(ThreadPerComponent),
        true,
    );
    assert_eq!(net.threads_spawned(), 3);
    let _ = net.finish();
}

#[test]
fn fan_fusion_escape_hatches_restore_the_unfused_topology() {
    // Fused, a nest of replicators is one component. Each escape hatch
    // is net-global: it restores dispatcher + merger for the outer
    // split at build, and — replicas unfolding on demand — for the
    // split inside every replica too. Returns the component count at
    // build and once (k, k2) = (0,0), (0,1), (1,0) have gone through:
    // outer 2; lane 0 an inner 2 + 2 runs; lane 1 an inner 2 + 1 run.
    let spawn_counts = |b: NetBuilder| {
        let mut net = b.fuse(true).build("main").unwrap();
        let at_build = net.threads_spawned();
        for (k, k2) in [(0, 0), (0, 1), (1, 0)] {
            let rec = Record::build().field("x", 1i64).tag("c", 2);
            net.send(rec.tag("k", k).tag("k2", k2).finish()).unwrap();
        }
        net.close();
        assert_eq!(std::iter::from_fn(|| net.recv()).count(), 6);
        let at_end = net.threads_spawned();
        let _ = net.finish();
        (at_build, at_end)
    };
    let expr = "((inc .. rep) ! <k2>) ! <k>";
    assert_eq!(spawn_counts(fan_builder(expr)), (1, 1));
    assert_eq!(spawn_counts(fan_builder(expr).fuse_fan(false)), (2, 9));
    // Restart's backoff sleep would park co-scheduled lanes: the
    // runtime legality check falls back on its own.
    assert_eq!(
        spawn_counts(fan_builder(expr).fault_policy(FaultPolicy::Restart {
            max_retries: 1,
            backoff: std::time::Duration::from_millis(1),
        })),
        (2, 9)
    );
    // An explicit lane-edge bound is honored by falling back too.
    assert_eq!(
        spawn_counts(fan_builder(expr).bound_for("dispatch", 8)),
        (2, 9)
    );
}

#[test]
fn per_stage_metrics_paths_survive_fusion() {
    // The string query API cannot tell the topologies apart: every
    // per-stage counter lives at the same path with the same value.
    let run = |fuse: bool| {
        let net = build(
            "inc .. [{x} -> {y=x}] .. [{y} -> {x=y}] .. inc",
            Arc::new(ThreadPerComponent),
            fuse,
        );
        for i in 0..10i64 {
            net.send(Record::build().field("x", i).finish()).unwrap();
        }
        let metrics = Arc::clone(net.metrics());
        let out = net.finish();
        assert_eq!(out.len(), 10);
        metrics.snapshot()
    };
    let fused = run(true);
    let unfused = run(false);
    let stage_keys = |snap: &std::collections::BTreeMap<String, u64>| {
        snap.iter()
            .filter(|(k, _)| k.contains("box:") || k.contains("filter"))
            // Per-EDGE gauges (stream_depth / credit_stalls, present
            // when SNET_STREAM_BOUND is set) are excluded: fusion
            // removes the inter-stage edges by design, so only the
            // per-stage computation counters must match.
            .filter(|(k, _)| !k.ends_with("/stream_depth") && !k.ends_with("/credit_stalls"))
            .map(|(k, v)| (k.clone(), *v))
            .collect::<Vec<_>>()
    };
    assert_eq!(stage_keys(&fused), stage_keys(&unfused));
    // And the chain is 1:1, so every stage saw all 10 records at its
    // exact Serial-derived path.
    for (k, v) in &fused {
        if k.contains("records_in") && (k.contains("box:") || k.contains("filter")) {
            assert_eq!(*v, 10, "{k}");
        }
    }
    assert!(fused.keys().any(|k| k.contains("box:inc")));
    assert!(fused.keys().any(|k| k.contains("filter")));
}

#[test]
fn fan_metrics_paths_survive_replica_fusion() {
    // Replica fusion keeps every per-path counter — the combinator's
    // own (records_in/branches, routed_left/right, exits/stages) and
    // the per-lane box counters — at the same key with the same value,
    // and every combinator and guard path sees the same records in the
    // same order, for each of the six combinators and, level by level,
    // for every nest of NESTED_EXPRS. (Inside an unfused nondet nest a
    // path is fed by a first-come merge, so there the sequence is the
    // scheduler's and the multiset is what must match.)
    use parking_lot::Mutex;
    use std::collections::BTreeMap;
    type Events = BTreeMap<String, Vec<String>>;
    let run = |expr: &str, inputs: &[Record], fan: bool| {
        let events: Arc<Mutex<Events>> = Arc::default();
        let sink = Arc::clone(&events);
        let net = fan_builder(expr)
            .executor(Arc::new(ThreadPerComponent))
            .observe(Arc::new(move |path, dir, rec| {
                let routing = ["split", "splitnd", "par", "parnd", "guard"];
                if routing.contains(&path.rsplit('/').next().unwrap()) {
                    let event = format!("{dir:?} {rec:?}");
                    sink.lock().entry(path.to_string()).or_default().push(event);
                }
            }))
            .fuse(true)
            .fuse_fan(fan)
            .build("main")
            .unwrap();
        for rec in inputs {
            net.send(rec.clone()).unwrap();
        }
        let metrics = Arc::clone(net.metrics());
        let _ = net.finish();
        let counters: Vec<(String, u64)> = metrics
            .snapshot()
            .into_iter()
            // Per-edge gauges vanish with the edges by design;
            // runtime/* globals (interner gauge, chaos counters) are
            // process-wide and depend on test interleaving.
            .filter(|(k, _)| !k.ends_with("/stream_depth") && !k.ends_with("/credit_stalls"))
            .filter(|(k, _)| !k.starts_with("runtime/"))
            .collect();
        let events = std::mem::take(&mut *events.lock());
        (counters, events)
    };
    let xs = xs(30, true);
    let with_c: Vec<Record> = xs
        .iter()
        .filter(|r| r.tag("c").is_some())
        .cloned()
        .collect();
    let ns = ns(20);
    let flat: [(&str, &[Record], &str); 6] = [
        ("(inc .. inc .. rep) ! <k>", &with_c, "split/branch"),
        ("(inc .. inc .. rep) !! <k>", &with_c, "splitnd/branch"),
        ("(inc .. inc) | (rep .. inc)", &xs, "par/routed_left"),
        ("(inc .. inc) || (rep .. inc)", &xs, "parnd/routed_right"),
        ("(dec .. dec) * {<z>}", &ns, "star/stage"),
        ("(dec .. dec) ** {<z>}", &ns, "starnd/stage"),
    ];
    let cases = (flat.into_iter())
        .map(|(expr, inputs, marker)| (expr, inputs.to_vec(), marker, true))
        .chain(nested_cases().map(|(expr, inputs, ordered)| (expr, inputs, "/branch", ordered)));
    for (expr, inputs, marker, ordered) in cases {
        let (fused, mut fused_events) = run(expr, &inputs, true);
        let (unfused, mut unfused_events) = run(expr, &inputs, false);
        if !ordered {
            for events in fused_events.values_mut().chain(unfused_events.values_mut()) {
                events.sort();
            }
        }
        assert_eq!(fused, unfused, "{expr}: counters");
        assert_eq!(fused_events, unfused_events, "{expr}: observer events");
        assert!(
            fused.iter().any(|(k, v)| k.contains(marker) && *v > 0),
            "{expr}"
        );
        assert!(
            !fused_events.is_empty(),
            "{expr}: no combinator or guard path observed"
        );
    }
}

#[test]
fn chaos_skips_are_identical_fused_and_unfused_inside_lanes() {
    // The ISSUE's chaos leg: with a fixed seed, the per-stage chaos
    // decision streams are keyed by stage path, so replica fusion
    // must produce the exact same skips — same output, same per-path
    // records_skipped, and skipped == injected (panic-only chaos).
    let run = |fan: bool| {
        let net = fan_builder("(inc .. inc .. rep) ! <k>")
            .executor(Arc::new(ThreadPerComponent))
            .fault_policy(FaultPolicy::SkipRecord)
            .chaos(ChaosConfig::new(0xFA57_F00D, 0.1))
            .fuse(true)
            .fuse_fan(fan)
            .build("main")
            .unwrap();
        let metrics = Arc::clone(net.metrics());
        let out = drive(net, &xs(80, false));
        let injected = metrics.get("runtime/chaos_injected");
        let skipped = metrics.sum_matching("records_skipped");
        assert!(injected > 0, "chaos at 10% over 80 records never fired");
        assert_eq!(
            skipped, injected,
            "panic-only chaos: every injected fault must surface as a skip"
        );
        let mut skips: Vec<(String, u64)> = metrics
            .snapshot()
            .into_iter()
            .filter(|(k, v)| k.contains("records_skipped") && *v > 0)
            .collect();
        skips.sort();
        (out, skips)
    };
    let (out_fused, skips_fused) = run(true);
    let (out_unfused, skips_unfused) = run(false);
    assert_eq!(out_fused, out_unfused);
    assert_eq!(skips_fused, skips_unfused);
    assert!(
        skips_fused.iter().any(|(k, _)| k.contains("branch")),
        "expected skips inside replica branches, got {skips_fused:?}"
    );
}

#[test]
fn observers_see_per_stage_events_in_fused_chains() {
    use parking_lot::Mutex;
    let log: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
    let log2 = Arc::clone(&log);
    let net = NetBuilder::from_source(&format!("{SRC}\nnet main = inc .. inc;"))
        .unwrap()
        .bind("inc", |r, e| {
            let x = r.field("x").unwrap().as_int().unwrap();
            e.emit(Record::build().field("x", x + 1).finish());
        })
        .bind("rep", |r, e| e.emit(r.clone()))
        .bind("dec", |r, e| e.emit(r.clone()))
        .observe(Arc::new(move |path, dir, _rec| {
            log2.lock().push(format!("{path}:{dir:?}"));
        }))
        .fuse(true)
        .build("main")
        .unwrap();
    assert_eq!(net.threads_spawned(), 1);
    net.send(Record::build().field("x", 0i64).finish()).unwrap();
    let _ = net.finish();
    let log = log.lock();
    // Both stages observed, distinct paths, both directions.
    for stage in ["s0", "s1"] {
        for dir in ["In", "Out"] {
            assert!(
                log.iter()
                    .any(|e| e.contains(stage) && e.contains("box:inc") && e.ends_with(dir)),
                "missing {stage} {dir} in {log:?}"
            );
        }
    }
}
