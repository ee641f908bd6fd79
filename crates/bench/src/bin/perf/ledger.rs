//! The primitive ledger: what one call into each layer costs, timed
//! from outside through public functions only. These numbers do not
//! depend on the workload; a traced run reports them so that a change
//! to one layer shows in that layer's row before (and whether or not)
//! it shows end to end.

use crate::stats;
use sacarray::{Array, Eval, Generator, Pool, WithLoop};
use snet_runtime::stream::{stream, stream_bounded, Msg};
use snet_runtime::{
    Executor, Metrics, NetBuilder, RouteCache, ThreadPerComponent, WorkStealingPool,
};
use snet_types::{NetSig, Record, RecordType};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Median over batches of the mean nanoseconds one call of `f` takes:
/// batches of `batch` calls until `budget` is spent, at least five.
pub fn ns_per(budget: Duration, batch: usize, mut f: impl FnMut()) -> f64 {
    let end = Instant::now() + budget;
    let mut means = Vec::new();
    while means.len() < 5 || Instant::now() < end {
        let t0 = Instant::now();
        for _ in 0..batch {
            f();
        }
        means.push(t0.elapsed().as_nanos() as f64 / batch as f64);
    }
    stats::median(&mut means)
}

/// An identity net over `expr`: boxes `id (x) -> (x)` and
/// `idy (y) -> (y)`, default configuration unless `configure` says
/// otherwise.
fn id_net(expr: &str, configure: impl FnOnce(NetBuilder) -> NetBuilder) -> snet_runtime::Net {
    let src = format!(
        "box id (x) -> (x);
         box idy (y) -> (y);
         net main = {expr};"
    );
    configure(
        NetBuilder::from_source(&src)
            .expect("identity program parses")
            .bind("id", |r, e| e.emit(r.clone()))
            .bind("idy", |r, e| e.emit(r.clone())),
    )
    .build("main")
    .expect("identity net builds")
}

/// Nanoseconds per record through a live net, pipelined 64 deep
/// (below the default stream bound, so the driver never parks on
/// credit): the median over batches, construction excluded.
fn ns_per_record(net: &snet_runtime::Net, budget: Duration, make: impl Fn(i64) -> Record) -> f64 {
    const DEPTH: i64 = 64;
    let round = || {
        for i in 0..DEPTH {
            net.send(make(i)).expect("record matches the net's input");
        }
        for _ in 0..DEPTH {
            black_box(net.recv().expect("one record out per record in"));
        }
    };
    for _ in 0..8 {
        round();
    }
    ns_per(budget, 4, round) / DEPTH as f64
}

fn rec_x(i: i64) -> Record {
    Record::build().field("x", i).finish()
}

fn rec_xk(i: i64) -> Record {
    Record::build().field("x", i).tag("k", i % 4).finish()
}

fn chain(stage: &str, n: usize) -> String {
    vec![stage; n].join(" .. ")
}

/// Per record per stage: an 8-stage chain minus a 4-stage chain, over
/// the 4 stages they differ by. The difference removes the driver's
/// own send/recv and the net's first and last edge.
fn per_stage(budget: Duration, stage: &str, fuse: Option<bool>) -> f64 {
    let run = |n: usize| {
        let net = id_net(&chain(stage, n), |b| match fuse {
            Some(f) => b.fuse(f),
            None => b,
        });
        let ns = ns_per_record(&net, budget / 2, rec_x);
        let _ = net.finish();
        ns
    };
    ((run(8) - run(4)) / 4.0).max(0.0)
}

/// Absolute nanoseconds per record through one combinator around an
/// identity body.
fn combinator(budget: Duration, expr: &str, make: fn(i64) -> Record) -> f64 {
    let net = id_net(expr, |b| b);
    let ns = ns_per_record(&net, budget, make);
    let _ = net.finish();
    ns
}

/// Nanoseconds per star level: records count down `DEPTH` levels
/// through `step`, leaving through the exit pattern.
fn star_level(budget: Duration, star: &str) -> f64 {
    const LEVELS: i64 = 8;
    let src = format!(
        "box step (n) -> (n) | (n, <z>);
         net main = step {star} {{<z>}};"
    );
    let net = NetBuilder::from_source(&src)
        .expect("star program parses")
        .bind("step", |r, e| {
            let n = r.field("n").and_then(|v| v.as_int()).expect("declared");
            if n <= 1 {
                e.emit(Record::build().field("n", 0i64).tag("z", 1).finish());
            } else {
                e.emit(Record::build().field("n", n - 1).finish());
            }
        })
        .build("main")
        .expect("star net builds");
    let ns = ns_per_record(&net, budget, |_| {
        Record::build().field("n", LEVELS).finish()
    });
    let _ = net.finish();
    ns / LEVELS as f64
}

/// Build and tear down a 16-component identity pipeline (fusion off,
/// so each stage is a component of its own), microseconds per
/// component.
fn spawn_us(budget: Duration, exec: Arc<dyn Executor>) -> f64 {
    let expr = chain("id", 16);
    ns_per(budget, 1, || {
        let net = id_net(&expr, |b| b.fuse(false).executor(Arc::clone(&exec)));
        black_box(net.finish());
    }) / 16.0
        / 1e3
}

/// One message there and one back between two threads over two
/// streams, each side parked when the other sends: nanoseconds per
/// one-way hop, wake included.
fn pingpong_ns(budget: Duration) -> f64 {
    let (to_tx, to_rx) = stream();
    let (back_tx, back_rx) = stream();
    let msg = Msg::Rec(rec_x(1));
    std::thread::scope(|s| {
        s.spawn(move || {
            while let Ok(m) = to_rx.recv() {
                if back_tx.send(m).is_err() {
                    break;
                }
            }
        });
        let ns = ns_per(budget, 64, || {
            to_tx.send(msg.clone()).expect("echo thread alive");
            black_box(back_rx.recv().expect("echo thread alive"));
        });
        drop(to_tx);
        ns / 2.0
    })
}

/// Side of the square `f64` array the `sacarray` rows work on (the
/// frame size of `array-frames`).
const SIDE: usize = 192;

fn base_array() -> Array<f64> {
    Array::new(
        [SIDE, SIDE],
        (0..SIDE * SIDE).map(|p| p as f64 * 0.5).collect(),
    )
    .expect("SIDE x SIDE elements")
}

/// Nanoseconds per element of a `genarray` with-loop over `base`.
fn genarray_ns_elem(budget: Duration, pool: &Pool, base: &Array<f64>, eval: Eval) -> f64 {
    let px = base.data();
    ns_per(budget, 1, || {
        black_box(
            WithLoop::new()
                .gen(Generator::full(base.shape()), |iv| {
                    px[iv[0] * SIDE + iv[1]] * 1.5 + 1.0
                })
                .genarray_on(pool, eval, [SIDE, SIDE], 0.0)
                .expect("generator within shape"),
        );
    }) / (SIDE * SIDE) as f64
}

/// Sequential over parallel `genarray` time.
fn par_speedup(seq: f64, par: f64) -> f64 {
    if par > 0.0 {
        seq / par
    } else {
        0.0
    }
}

fn sacarray(budget: Duration, out: &mut BTreeMap<&'static str, f64>) {
    let elems = (SIDE * SIDE) as f64;
    let base = base_array();
    let px = base.data();
    // Two workers, not the global pool: on the one CPU the process is
    // confined to that pool has a single thread and never forks, and
    // these rows are about what forking costs.
    let pool = &Pool::new(2);
    let gen = || Generator::full(base.shape());
    let body = |iv: &[usize]| px[iv[0] * SIDE + iv[1]] * 1.5 + 1.0;
    let fold = |eval| {
        ns_per(budget, 1, || {
            black_box(
                WithLoop::new()
                    .gen(gen(), body)
                    .fold_on(pool, eval, 0.0, |a, b| a + b),
            );
        }) / elems
    };
    let seq = genarray_ns_elem(budget, pool, &base, Eval::Sequential);
    let par = genarray_ns_elem(budget, pool, &base, Eval::Auto);
    out.insert("sacarray.genarray_ns_elem", seq);
    out.insert("sacarray.genarray_par_ns_elem", par);
    out.insert("sacarray.par_speedup", par_speedup(seq, par));
    out.insert("sacarray.fold_ns_elem", fold(Eval::Sequential));
    out.insert("sacarray.fold_par_ns_elem", fold(Eval::Auto));
    out.insert(
        "sacarray.modarray_ns_elem",
        ns_per(budget, 1, || {
            black_box(
                WithLoop::new()
                    .gen(gen(), body)
                    .modarray_on(pool, Eval::Sequential, &base)
                    .expect("generator within shape"),
            );
        }) / elems,
    );
    // One chunk per thread and nothing to do in it: what a parallel
    // with-loop pays before any element is computed.
    out.insert(
        "sacarray.fork_join_us",
        ns_per(budget, 16, || {
            pool.parallel_for(pool.threads(), 1, |r| {
                black_box(r);
            })
        }) / 1e3,
    );
}

fn sudoku(budget: Duration, out: &mut BTreeMap<&'static str, f64>) {
    let puzzle = sudoku::puzzles::classic9();
    let (board, opts) = sudoku::compute_opts(&puzzle);
    let (i, j) = sudoku::sac_solver::find_min_trues(&board, &opts).expect("open puzzle");
    let k = opts.candidates(i, j)[0];
    out.insert(
        "sudoku.compute_opts_us",
        ns_per(budget, 4, || {
            black_box(sudoku::compute_opts(&puzzle));
        }) / 1e3,
    );
    out.insert(
        "sudoku.add_number_us",
        ns_per(budget, 16, || {
            black_box(sudoku::add_number(i, j, k, &board, &opts));
        }) / 1e3,
    );
    out.insert(
        "sudoku.pure_solve_us",
        ns_per(budget, 1, || {
            black_box(sudoku::solve_puzzle(&puzzle, sudoku::Policy::MinTrues));
        }) / 1e3,
    );
}

/// Record-level type operations, on a record shaped like a request of
/// the sensor workloads: an array field, three tags, split against
/// the first box's input type.
fn types(budget: Duration, out: &mut BTreeMap<&'static str, f64>) {
    let rec = Record::build()
        .field(
            "samples",
            snet_types::Value::from(Array::from_vec(vec![0.0f64; 256])),
        )
        .tag("sensor", 1)
        .tag("bias_ppm", 1500)
        .tag("probe", 7)
        .finish();
    let ty = RecordType::of(&["samples"], &["bias_ppm"]);
    let (_, excess) = rec.split_for(&ty).expect("record matches the box input");
    let produced = Record::build()
        .field(
            "samples",
            snet_types::Value::from(Array::from_vec(vec![0.0f64; 256])),
        )
        .finish();
    out.insert(
        "types.clone_ns",
        ns_per(budget, 1024, || {
            black_box(rec.clone());
        }),
    );
    out.insert(
        "types.split_ns",
        ns_per(budget, 1024, || {
            black_box(rec.split_for(&ty));
        }),
    );
    out.insert(
        "types.inherit_ns",
        ns_per(budget, 1024, || {
            black_box(produced.clone().inherit(&excess));
        }),
    );
    out.insert(
        "types.match_ns",
        ns_per(budget, 1024, || {
            black_box(rec.matches(&ty));
        }),
    );
}

/// Every workload-independent row. `budget` is the time one row may
/// take; a traced run passes a slice of `--seconds`.
pub fn primitives(budget: Duration) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    let cores = crate::host::cores().max(2);

    // stream
    let msg = Msg::Rec(rec_x(1));
    let (tx, rx) = stream();
    out.insert(
        "stream.hop_ns",
        ns_per(budget, 1024, || {
            tx.send(msg.clone()).expect("receiver alive");
            black_box(rx.try_recv().expect("just sent"));
        }),
    );
    let (tx, rx) = stream_bounded(snet_runtime::ctx::DEFAULT_STREAM_BOUND, None);
    out.insert(
        "stream.hop_bounded_ns",
        ns_per(budget, 1024, || {
            tx.try_feed(msg.clone()).expect("credit available");
            black_box(rx.try_recv().expect("just sent"));
        }),
    );
    out.insert("stream.pingpong_ns", pingpong_ns(budget));

    // boxfn / fused / filter_exec: one identity stage, as a component
    // of its own, as a stage of a fused run, as a filter.
    out.insert("boxfn.record_ns", per_stage(budget, "id", Some(false)));
    out.insert("fused.record_ns", per_stage(budget, "id", None));
    out.insert(
        "filter_exec.record_ns",
        per_stage(budget, "[{x} -> {x=x}]", Some(false)),
    );

    // parallel / split / star, non-deterministic and deterministic.
    out.insert("parallel.record_ns", combinator(budget, "id || idy", rec_x));
    out.insert(
        "parallel.det_record_ns",
        combinator(budget, "id | idy", rec_x),
    );
    out.insert("split.record_ns", combinator(budget, "id !! <k>", rec_xk));
    out.insert(
        "split.det_record_ns",
        combinator(budget, "id ! <k>", rec_xk),
    );
    out.insert("star.level_ns", star_level(budget, "**"));
    out.insert("star.det_level_ns", star_level(budget, "*"));
    let mut routes = RouteCache::new(
        NetSig::identity(RecordType::of(&["x"], &[])),
        NetSig::identity(RecordType::of(&["y"], &[])),
    );
    let routed = rec_x(1);
    out.insert(
        "parallel.route_ns",
        ns_per(budget, 1024, || {
            black_box(routes.decide(&routed));
        }),
    );

    types(budget, &mut out);

    // metrics
    let registry = Metrics::new();
    let counter = registry.handle("net/box:id/records_in");
    out.insert(
        "metrics.inc_ns",
        ns_per(budget, 4096, || {
            counter.inc(1);
        }),
    );

    // sched: what a component costs to bring up and down.
    out.insert(
        "sched.spawn_us.threads",
        spawn_us(budget, Arc::new(ThreadPerComponent)),
    );
    out.insert(
        "sched.spawn_us.pool",
        spawn_us(budget, Arc::new(WorkStealingPool::new(cores))),
    );

    sacarray(budget, &mut out);
    sudoku(budget, &mut out);
    out
}
