//! Fusion equivalence: the fused and unfused instantiations of the
//! same plan must be observationally identical — the sequential
//! reference's output (`snet_runtime::oracle`; byte-identical where
//! the order is defined), identical per-stage metrics paths and
//! counts — on one worker and on two. Only the component count may
//! differ: an n-stage fused chain runs as **one** component.
//!
//! `NetBuilder::fuse(bool)` drives both topologies in-process;
//! `tests/random_networks.rs` draws programs across them.

mod common {
    pub mod chaos;
    pub mod pools;
}

use common::chaos::Chaos;
use common::pools::pools;
use snet_lang::{parse_net_expr, parse_program};
use snet_runtime::{
    oracle, Bindings, Emitter, Executor, FaultPolicy, Net, NetBuilder, RunCfg, WorkStealingPool,
};
use snet_types::Record;
use std::sync::Arc;

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

fn int(r: &Record, name: &str) -> i64 {
    r.field(name).unwrap().as_int().unwrap()
}

/// A box implementation, as bound by name.
type BoxFn = fn(&Record, &mut Emitter);

/// The implementations of [`SRC`]'s boxes.
fn boxes() -> [(&'static str, BoxFn); 4] {
    [
        ("inc", |r, e| {
            e.emit(Record::build().field("x", int(r, "x") + 1).finish())
        }),
        ("rep", |r, e| {
            let c = r.tag("c").unwrap();
            for i in 0..c {
                e.emit(
                    Record::build()
                        .field("x", int(r, "x") * 10 + i)
                        .tag("c", c)
                        .finish(),
                );
            }
        }),
        ("dec", |r, e| {
            let n = int(r, "n");
            let out = Record::build().field("n", (n - 1).max(0));
            e.emit(if n <= 1 { out.tag("z", 1) } else { out }.finish());
        }),
        ("fork", |r, e| {
            let (n, k) = (int(r, "n"), r.tag("k").unwrap());
            let rec = |n: i64, k: i64| Record::build().field("n", n).tag("k", k % 3);
            if n <= 1 {
                e.emit(rec(0, k).tag("z", 1).finish());
            } else {
                e.emit(rec(n - 1, k + 1).finish());
                if n % 2 == 0 {
                    e.emit(rec(n - 2, k + 2).finish());
                }
            }
        }),
    ]
}

/// A builder for `expr` with every box bound — the shared base for
/// the fuse / fault-policy variations below.
fn fan_builder(expr: &str) -> NetBuilder {
    let b = NetBuilder::from_source(&format!("{SRC}\nnet main = {expr};")).unwrap();
    boxes().into_iter().fold(b, |b, (name, f)| b.bind(name, f))
}

/// What `expr` must output on `inputs`: the sequential reference.
fn expected(expr: &str, inputs: &[Record]) -> oracle::Expected {
    let b = boxes()
        .into_iter()
        .fold(Bindings::new(), |b, (n, f)| b.bind(n, f));
    expected_with(expr, b, inputs)
}

/// [`expected`] with the boxes bound as `b`.
fn expected_with(expr: &str, b: Bindings, inputs: &[Record]) -> oracle::Expected {
    let env = parse_program(SRC).unwrap().env().unwrap();
    let plan = snet_runtime::compile_cfg(&parse_net_expr(expr).unwrap(), &env, &b, false);
    oracle::run(&plan.unwrap(), inputs.to_vec()).unwrap()
}

fn build(expr: &str, exec: Arc<dyn Executor>, fuse: bool) -> Net {
    fan_builder(expr)
        .executor(exec)
        .fuse(fuse)
        .build("main")
        .unwrap()
}

/// Deterministically ordered topologies (pure chains and det
/// combinators) whose output must be the reference's, byte for byte,
/// fused and unfused, per executor.
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
    // traverse the fused component byte-identically), and a fan in a
    // fan.
    "(inc .. inc .. rep) ! <k>",
    "((inc .. rep) ! <k2>) ! <k>",
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

fn drive(net: Net, inputs: &[Record]) -> Vec<Record> {
    for rec in inputs {
        net.send(rec.clone()).unwrap();
    }
    net.finish()
}

/// Nested fans, each a det net and its nondet twin: Fig. 2's shape (a
/// star of a split), Fig. 3's (the star's body is `filter .. split`, a
/// run), a parallel of splits and a three-level nest.
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

/// Fans on the top-level spine, which runs as one stage run when the
/// net is fused: the sensor net's shape and its nondet twin, a fan at
/// the head and at the tail, two fans back to back, and a star behind
/// a box.
/// The sensor shape's split emits two variants, as `analyze` does, and
/// its parallel routes them by type — no tie, whose round robin would
/// make the nondet twin's multiset depend on arrival order. The star's
/// head is `fork`, not `inc`: `inc`'s `{x}` output meets only the
/// star's exit variant, so the net would admit only records that leave
/// at once.
const SPINE_EXPRS: [&str; 6] = [
    "inc .. (dec ! <k>) .. (inc | [{n, <z>} -> {y=n}])",
    "inc .. (dec !! <k>) .. (inc || [{n, <z>} -> {y=n}])",
    "(rep ! <k>) .. inc",
    "inc .. (rep !! <k>)",
    "(rep ! <k>) .. (inc ! <k2>)",
    "fork .. ((fork ! <k>) * {<z>})",
];

/// Every [`SPINE_EXPRS`] net with its inputs and whether its order is
/// defined. The sensor shape takes `{x, n, <k>}` with `n` in 1..=3, so
/// `dec` tags a third of its records `<z>`.
fn spine_cases() -> impl Iterator<Item = (&'static str, Vec<Record>, bool)> {
    SPINE_EXPRS.into_iter().map(|expr| {
        let inputs = if expr.contains("fork") {
            ns(20)
        } else if expr.contains("dec") {
            (0..60i64)
                .map(|i| {
                    let rec = Record::build().field("x", i).field("n", i % 3 + 1);
                    rec.tag("k", (i * 5 + 1) % 3).finish()
                })
                .collect()
        } else {
            xs(60, false)
        };
        (expr, inputs, !expr.contains("!!") && !expr.contains("||"))
    })
}

#[test]
fn fused_fan_matrix_is_byte_identical() {
    // Every DET_EXPRS chain and fan, every nest of NESTED_EXPRS and
    // every spine of SPINE_EXPRS, each driven across {pool(1), pool(2)}
    // × {fused, unfused}. Output must be the sequential reference's,
    // byte for byte; a nondet net's order is the scheduler's, so its
    // twin compares multisets.
    let flat = DET_EXPRS.iter().map(|expr| (*expr, xs(60, false), true));
    for (expr, inputs, ordered) in flat.chain(nested_cases()).chain(spine_cases()) {
        let want = expected(expr, &inputs);
        assert_eq!(want.ordered, ordered, "{expr}");
        assert!(want.records.len() >= inputs.len() / 2, "{expr}");
        for (name, exec) in pools() {
            for fuse in [true, false] {
                let got = drive(build(expr, Arc::clone(&exec), fuse), &inputs);
                assert!(
                    want.admits(&got),
                    "{expr} diverged under {name} (fuse={fuse})"
                );
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
    let want = expected(expr, &xs(60, false));
    for (name, exec) in pools() {
        for fuse in [true, false] {
            let got = drive(build(expr, Arc::clone(&exec), fuse), &xs(60, false));
            assert!(
                want.admits(&got),
                "{expr} lost/duplicated records under {name} (fuse={fuse})"
            );
        }
    }
}

#[test]
fn det_star_with_fused_inner_keeps_input_order() {
    // (dec .. dec) * {<z>}: the star's inner pipeline fuses — and
    // with fan fusion the whole star collapses into one component.
    // Det star output must stay in input order, the reference's, both
    // ways.
    let expr = "(dec .. dec) * {<z>}";
    let inputs: Vec<Record> = (0..20i64)
        .map(|id| {
            Record::build()
                .field("n", (id * 13 + 7) % 9 + 1)
                .tag("id", id)
                .finish()
        })
        .collect();
    let want = expected(expr, &inputs).records;
    let ids: Vec<i64> = want.iter().map(|r| r.tag("id").unwrap()).collect();
    assert_eq!(ids, (0..20).collect::<Vec<_>>());
    for (name, exec) in pools() {
        for fuse in [true, false] {
            let got = drive(build(expr, Arc::clone(&exec), fuse), &inputs);
            assert_eq!(got, want, "det star diverged under {name} (fuse={fuse})");
        }
    }
}

#[test]
fn fused_chain_runs_as_one_component() {
    // The point of fusion: n stages, one scheduled component.
    let build = |fuse: bool| {
        let b = fan_builder("inc .. inc .. inc .. inc");
        b.fuse(fuse).build("main").unwrap()
    };
    let (fused, unfused) = (build(true), build(false));
    assert_eq!(fused.threads_spawned(), 1);
    assert_eq!(unfused.threads_spawned(), 4);
    let _ = fused.finish();
    let _ = unfused.finish();
}

#[test]
fn barrier_chains_fuse_only_the_runs() {
    // inc .. inc .. (rep !! <k>) .. inc .. inc: fused, the replicator
    // is one stage of the spine, so the whole net is one component,
    // with lane cores unfolding on demand inside it. Unfused, every box
    // is a component and the replicator is a barrier: its dispatcher
    // and merger between them.
    let components = |fuse: bool| {
        let b = fan_builder("inc .. inc .. (rep !! <k>) .. inc .. inc");
        let net = b.fuse(fuse).build("main").unwrap();
        let n = net.threads_spawned();
        let _ = net.finish();
        n
    };
    assert_eq!(components(true), 1);
    assert_eq!(components(false), 6);
}

#[test]
fn fan_fusion_escape_hatches_restore_the_unfused_topology() {
    // The plan alone decides the topology. Fused, a nest of replicators
    // is one component, whatever the fault policy or the lane-edge
    // bound, and however it reached `Net::spawn`. Only the plan compiled
    // without the pass restores dispatcher + merger for the outer split
    // at build and — replicas unfolding on demand — for the split
    // inside every replica too. Returns the component count at build
    // and once (k, k2) = (0,0), (0,1), (1,0) have gone through: outer
    // 2; lane 0 an inner 2 + 2 × 2 boxes; lane 1 an inner 2 + 2 boxes.
    let spawn_counts = |mut net: Net| {
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
    let built = |b: NetBuilder| spawn_counts(b.build("main").unwrap());
    assert_eq!(built(fan_builder(expr)), (1, 1));
    assert_eq!(built(fan_builder(expr).fuse(false)), (2, 12));
    // A guard lives inside the stage core: a guarded fused net is
    // still one component.
    let skip = FaultPolicy::SkipRecord;
    assert_eq!(built(fan_builder(expr).fault_policy(skip)), (1, 1));
    // A fused plan is one component even under a configuration that
    // says `fuse: false`: that field is for whoever compiles.
    let env = parse_program(SRC).unwrap().env().unwrap();
    let b = boxes()
        .into_iter()
        .fold(Bindings::new(), |b, (n, f)| b.bind(n, f));
    let plan = snet_runtime::compile(&parse_net_expr(expr).unwrap(), &env, &b).unwrap();
    let cfg = RunCfg {
        fuse: false,
        ..RunCfg::default()
    };
    let exec = Arc::new(WorkStealingPool::new(1));
    assert_eq!(
        spawn_counts(Net::spawn(plan, Vec::new(), exec, cfg)),
        (1, 1)
    );
}

#[test]
fn a_bound_gates_the_edges_a_net_has() {
    // Fused, the sensor spine is one stage run: its ingress and its
    // output are both owned at `net`, and there is no edge between
    // them. Unfused, every box, filter, dispatcher lane and merger owns
    // an edge of its own, and the bound gates each of them. At build
    // only the parallel's two lanes exist: split lanes and star levels
    // unfold on demand.
    let gauges = |b: NetBuilder| -> Vec<String> {
        let net = b.bound(4).build("main").unwrap();
        let metrics = Arc::clone(net.metrics());
        let _ = net.finish();
        let keys = metrics.snapshot().into_keys();
        keys.filter(|k| k.ends_with("/stream_depth") && !k.starts_with("runtime/"))
            .collect()
    };
    let spine = || fan_builder(SPINE_EXPRS[0]);
    assert_eq!(gauges(spine()), ["net/stream_depth"]);
    let unfused = [
        "net/s0/s0/box:inc",
        "net/s0/s1/split",
        "net/s1/par/L/box:inc",
        "net/s1/par/L",
        "net/s1/par/R/filter",
        "net/s1/par/R",
        "net/s1/par",
        "net",
    ];
    assert_eq!(
        gauges(spine().fuse(false)),
        unfused.map(|owner| format!("{owner}/stream_depth"))
    );
}

#[test]
fn per_stage_metrics_paths_survive_fusion() {
    // The string query API cannot tell the topologies apart: every
    // per-stage counter lives at the same path with the same value.
    let run = |fuse: bool| {
        let b = fan_builder("inc .. [{x} -> {y=x}] .. [{y} -> {x=y}] .. inc");
        let net = b.fuse(fuse).build("main").unwrap();
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
            // on bounded edges, the default) are excluded: fusion
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
    // Fusion keeps every per-path counter — the combinator's
    // own (records_in/branches, routed_left/right, exits/stages) and
    // the per-lane box counters — at the same key with the same value,
    // and every combinator and guard path sees the same records in the
    // same order, for each of the six combinators, level by level for
    // every nest of NESTED_EXPRS, and part by part for the sensor spine
    // and its nondet twin. (Inside an unfused nondet nest a path is fed
    // by a first-come merge, so there the sequence is the scheduler's
    // and the multiset is what must match.)
    use std::collections::BTreeMap;
    use std::sync::Mutex;
    type Events = BTreeMap<String, Vec<String>>;
    let run = |expr: &str, inputs: &[Record], fuse: bool| {
        let events: Arc<Mutex<Events>> = Arc::default();
        let sink = Arc::clone(&events);
        let net = fan_builder(expr)
            .observe(Arc::new(move |path, dir, rec| {
                let routing = ["split", "splitnd", "par", "parnd", "guard"];
                if routing.contains(&path.rsplit('/').next().unwrap()) {
                    let event = format!("{dir:?} {rec:?}");
                    sink.lock()
                        .unwrap()
                        .entry(path.to_string())
                        .or_default()
                        .push(event);
                }
            }))
            .fuse(fuse)
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
            // runtime/* globals (the interner gauge) are process-wide
            // and depend on test interleaving.
            .filter(|(k, _)| !k.ends_with("/stream_depth") && !k.ends_with("/credit_stalls"))
            .filter(|(k, _)| !k.starts_with("runtime/"))
            .collect();
        let events = std::mem::take(&mut *events.lock().unwrap());
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
    let spines = spine_cases()
        .take(2)
        .map(|(expr, inputs, ordered)| (expr, inputs, "/routed_left", ordered));
    let cases = (flat.into_iter())
        .map(|(expr, inputs, marker)| (expr, inputs.to_vec(), marker, true))
        .chain(nested_cases().map(|(expr, inputs, ordered)| (expr, inputs, "/branch", ordered)))
        .chain(spines);
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
    // With a fixed seed, a chaos decision is keyed by box name and
    // record content, neither of which replica fusion changes, so the
    // fused and unfused nets make the exact same skips: the output the
    // oracle gives over `Chaos::skip` bodies, and skipped == injected.
    // Where the skips are counted is outside the oracle, so the fused
    // and unfused per-path records_skipped are compared with each other.
    let expr = "(inc .. inc .. rep) ! <k>";
    let chaos = || Chaos::from_env(0xFA57_F00D, 0.1);
    let skip = chaos();
    let b = (boxes().into_iter()).fold(Bindings::new(), |b, (n, f)| b.bind(n, skip.skip(n, f)));
    let want = expected_with(expr, b, &xs(80, false));
    let run = |fuse: bool| {
        let chaos = chaos();
        let b = NetBuilder::from_source(&format!("{SRC}\nnet main = {expr};")).unwrap();
        let net = (boxes().into_iter())
            .fold(b, |b, (name, f)| b.bind(name, chaos.wrap(name, f)))
            .fault_policy(FaultPolicy::SkipRecord)
            .fuse(fuse)
            .build("main")
            .unwrap();
        let metrics = Arc::clone(net.metrics());
        let out = drive(net, &xs(80, false));
        let injected = chaos.panics();
        let skipped = metrics.sum_matching("records_skipped");
        assert!(injected > 0, "chaos at 10% over 80 records never fired");
        assert_eq!(
            skipped, injected,
            "every injected panic must surface as a skip"
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
    assert_eq!(out_fused, want.records, "fused");
    assert_eq!(out_unfused, want.records, "unfused");
    assert_eq!(skips_fused, skips_unfused);
    assert!(
        skips_fused.iter().any(|(k, _)| k.contains("branch")),
        "expected skips inside replica branches, got {skips_fused:?}"
    );
}

#[test]
fn a_skip_stays_inside_a_fused_walk() {
    // A `SkipRecord` guard lives inside its stage core, so a fused net
    // stays one component through a panic in a split lane: the output
    // is the reference's with the poisoned record's contribution gone,
    // the skip counts at the box's own path, and the fault log holds
    // the one dropped record.
    let expr = "inc .. (flaky ! <k>) .. inc";
    let decls = format!("{SRC}\nbox flaky (x) -> (x);");
    let double =
        |r: &Record, e: &mut Emitter| e.emit(Record::build().field("x", int(r, "x") * 2).finish());
    // Input 7 reaches `flaky` as x = 8, on lane <k> = 0.
    let poisoned = |r: &Record| int(r, "x") == 8;
    let inputs = xs(30, false);
    let env = parse_program(&decls).unwrap().env().unwrap();
    let b = boxes()
        .into_iter()
        .fold(Bindings::new(), |b, (n, f)| b.bind(n, f))
        .bind("flaky", move |r, e| {
            if !poisoned(r) {
                double(r, e)
            }
        });
    let plan = snet_runtime::compile_cfg(&parse_net_expr(expr).unwrap(), &env, &b, false);
    let want = oracle::run(&plan.unwrap(), inputs.clone()).unwrap();
    assert!(want.ordered);
    assert_eq!(want.records.len(), inputs.len() - 1);
    for (name, exec) in pools() {
        let b = NetBuilder::from_source(&format!("{decls}\nnet main = {expr};")).unwrap();
        let mut net = boxes()
            .into_iter()
            .fold(b, |b, (n, f)| b.bind(n, f))
            .bind("flaky", move |r, e| {
                if poisoned(r) {
                    panic!("poisoned");
                }
                double(r, e)
            })
            .fault_policy(FaultPolicy::SkipRecord)
            .executor(exec)
            .build("main")
            .unwrap();
        assert_eq!(net.threads_spawned(), 1, "{name}: at build");
        for rec in &inputs {
            net.send(rec.clone()).unwrap();
        }
        net.close();
        let got: Vec<Record> = std::iter::from_fn(|| net.recv()).collect();
        assert_eq!(got, want.records, "{name}");
        assert_eq!(net.threads_spawned(), 1, "{name}: at end");
        let skipped = net
            .metrics()
            .get("net/s0/s1/split/branch0/box:flaky/records_skipped");
        assert_eq!(skipped, 1, "{name}");
        let faults = net.faults();
        assert_eq!(faults.len(), 1, "{name}: {faults:?}");
        let dropped = faults[0].dropped.as_ref().map(|r| int(r, "x"));
        assert_eq!(dropped, Some(8), "{name}: {faults:?}");
        let _ = net.finish();
    }
}

#[test]
fn observers_see_per_stage_events_in_fused_chains() {
    use std::sync::Mutex;
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
            log2.lock().unwrap().push(format!("{path}:{dir:?}"));
        }))
        .fuse(true)
        .build("main")
        .unwrap();
    assert_eq!(net.threads_spawned(), 1);
    net.send(Record::build().field("x", 0i64).finish()).unwrap();
    let _ = net.finish();
    let log = log.lock().unwrap();
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
