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
/// * `dec` — star step: counts `n` down, exits tagged `<z>`.
const SRC: &str = "
    box inc (x) -> (x);
    box rep (x, <c>) -> (x, <c>);
    box dec (n) -> (n) | (n, <z>);
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
}

fn build(expr: &str, exec: Arc<dyn Executor>, fuse: bool) -> Net {
    fan_builder(expr)
        .executor(exec)
        .fuse(fuse)
        .build("main")
        .unwrap()
}

/// Renders the full output stream for byte-for-byte comparison.
fn drive_x(net: Net, n: i64) -> Vec<String> {
    for i in 0..n {
        net.send(
            Record::build()
                .field("x", i)
                .tag("c", (i * 7 + 3) % 4)
                .tag("k", (i * 5 + 1) % 3)
                .finish(),
        )
        .unwrap();
    }
    net.finish().iter().map(|r| format!("{r:?}")).collect()
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

/// Like [`drive_x`] but with a second routing tag so nested
/// replicators (`! <k2>` inside `! <k>`) have something to route on.
fn drive_fan(net: Net, n: i64) -> Vec<String> {
    for i in 0..n {
        net.send(
            Record::build()
                .field("x", i)
                .tag("c", (i * 7 + 3) % 4)
                .tag("k", (i * 5 + 1) % 3)
                .tag("k2", (i * 3 + 2) % 2)
                .finish(),
        )
        .unwrap();
    }
    net.finish().iter().map(|r| format!("{r:?}")).collect()
}

#[test]
fn fused_fan_matrix_is_byte_identical() {
    // The ISSUE's fused-fan matrix: det split, det parallel, and a
    // nested fan-in-fan, each driven across {threads, pool(1),
    // pool(2)} × {fan fused, fan unfused} with chain fusion on.
    // Output must be byte-identical to the fully unfused reference.
    let exprs = [
        "(inc .. inc .. rep) ! <k>",
        "(inc .. inc) | (rep .. inc)",
        "((inc .. rep) ! <k2>) ! <k>",
    ];
    for expr in exprs {
        let reference = drive_fan(
            fan_builder(expr)
                .executor(Arc::new(ThreadPerComponent))
                .fuse(false)
                .build("main")
                .unwrap(),
            60,
        );
        for (name, exec) in executors() {
            for fan in [true, false] {
                let got = drive_fan(
                    fan_builder(expr)
                        .executor(Arc::clone(&exec))
                        .fuse(true)
                        .fuse_fan(fan)
                        .build("main")
                        .unwrap(),
                    60,
                );
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
        let reference = drive_x(build(expr, Arc::new(ThreadPerComponent), false), 60);
        for (name, exec) in executors() {
            for fuse in [true, false] {
                let got = drive_x(build(expr, Arc::clone(&exec), fuse), 60);
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
    let mut reference = drive_x(build(expr, Arc::new(ThreadPerComponent), false), 60);
    reference.sort();
    for (name, exec) in executors() {
        for fuse in [true, false] {
            let mut got = drive_x(build(expr, Arc::clone(&exec), fuse), 60);
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
    // Fused: the whole replicator is one component. The net-global
    // escape hatch restores dispatcher + merger at spawn (replicas
    // still unfold on demand).
    let spawn_count = |b: NetBuilder| {
        let net = b.fuse(true).build("main").unwrap();
        let n = net.threads_spawned();
        net.send(
            Record::build()
                .field("x", 1i64)
                .tag("c", 2)
                .tag("k", 0)
                .finish(),
        )
        .unwrap();
        let _ = net.finish();
        n
    };
    let expr = "(inc .. rep) ! <k>";
    assert_eq!(spawn_count(fan_builder(expr)), 1);
    assert_eq!(spawn_count(fan_builder(expr).fuse_fan(false)), 2);
    // Restart's backoff sleep would park co-scheduled lanes: the
    // runtime legality check falls back on its own.
    assert_eq!(
        spawn_count(fan_builder(expr).fault_policy(FaultPolicy::Restart {
            max_retries: 1,
            backoff: std::time::Duration::from_millis(1),
        })),
        2
    );
    // An explicit lane-edge bound is honored by falling back too.
    assert_eq!(spawn_count(fan_builder(expr).bound_for("dispatch", 8)), 2);
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
    // same order, for each of the six combinators.
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
    // Every third record lacks <c>, so only `inc` accepts it: both
    // branches of the parallel compositions see traffic.
    let xs: Vec<Record> = (0..30i64)
        .map(|i| {
            let rec = Record::build().field("x", i).tag("k", (i * 5 + 1) % 3);
            if i % 3 == 0 {
                rec.finish()
            } else {
                rec.tag("c", (i * 7 + 3) % 4).finish()
            }
        })
        .collect();
    let with_c: Vec<Record> = xs
        .iter()
        .filter(|r| r.tag("c").is_some())
        .cloned()
        .collect();
    let ns: Vec<Record> = (0..20i64)
        .map(|i| {
            Record::build()
                .field("n", (i * 13 + 7) % 9 + 1)
                .tag("id", i)
                .finish()
        })
        .collect();
    let cases: [(&str, &[Record], &str); 6] = [
        ("(inc .. inc .. rep) ! <k>", &with_c, "split/branch"),
        ("(inc .. inc .. rep) !! <k>", &with_c, "splitnd/branch"),
        ("(inc .. inc) | (rep .. inc)", &xs, "par/routed_left"),
        ("(inc .. inc) || (rep .. inc)", &xs, "parnd/routed_right"),
        ("(dec .. dec) * {<z>}", &ns, "star/stage"),
        ("(dec .. dec) ** {<z>}", &ns, "starnd/stage"),
    ];
    for (expr, inputs, marker) in cases {
        let (fused, fused_events) = run(expr, inputs, true);
        let (unfused, unfused_events) = run(expr, inputs, false);
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
        let out = drive_fan(net, 80);
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

#[test]
fn snet_fuse_env_controls_the_default() {
    // Whichever way the process-wide default points (the SNET_FUSE=0
    // CI leg flips it), the builder override wins both ways and the
    // unforced build follows the env.
    let default_fused = snet_runtime::fuse_default();
    let net = NetBuilder::from_source(&format!("{SRC}\nnet main = inc .. inc;"))
        .unwrap()
        .bind("inc", |r, e| e.emit(r.clone()))
        .bind("rep", |r, e| e.emit(r.clone()))
        .bind("dec", |r, e| e.emit(r.clone()))
        .build("main")
        .unwrap();
    assert_eq!(net.threads_spawned(), if default_fused { 1 } else { 2 });
    let _ = net.finish();
}
