//! RT — runtime primitive costs.
//!
//! Not a figure of the paper, but required to interpret F1–F3: the
//! per-record cost of each coordination construct (box application,
//! filter, best-match dispatch, indexed split, det vs non-det merge,
//! replicator unfolding). These are the constants behind the paper's
//! "each box creates a separate process/thread" execution model.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use sacarray::Array;
use snet_runtime::{
    CompPath, Executor, Metrics, NetBuilder, RouteCache, ThreadPerComponent, WorkStealingPool,
};
use snet_types::{NetSig, Record, RecordType, Shape, Value};
use std::sync::Arc;

const N_RECORDS: u64 = 5_000;

/// The executor backends the per-executor benches compare. The pool is
/// created once and reused across iterations — the production shape: a
/// long-lived pool serving many short-lived networks.
fn exec_variants() -> Vec<(&'static str, Arc<dyn Executor>)> {
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .max(2);
    vec![
        ("threads", Arc::new(ThreadPerComponent) as Arc<dyn Executor>),
        ("pool", Arc::new(WorkStealingPool::new(workers)) as _),
    ]
}

fn id_net(expr: &str) -> snet_runtime::Net {
    id_net_on(expr, snet_runtime::sched::default_executor())
}

fn id_net_on(expr: &str, exec: Arc<dyn Executor>) -> snet_runtime::Net {
    let src = format!(
        "box id (x) -> (x);
         box idy (y) -> (y);
         net main = {expr};"
    );
    NetBuilder::from_source(&src)
        .unwrap()
        .bind("id", |r, e| e.emit(r.clone()))
        .bind("idy", |r, e| e.emit(r.clone()))
        .executor(exec)
        .build("main")
        .unwrap()
}

fn id_net_fan(expr: &str, exec: Arc<dyn Executor>, fuse: bool) -> snet_runtime::Net {
    let src = format!(
        "box id (x) -> (x);
         net main = {expr};"
    );
    NetBuilder::from_source(&src)
        .unwrap()
        .bind("id", |r, e| e.emit(r.clone()))
        .executor(exec)
        .fuse(fuse)
        .build("main")
        .unwrap()
}

fn drive(net: snet_runtime::Net, with_tag: bool) -> usize {
    for i in 0..N_RECORDS as i64 {
        let mut r = Record::build().field("x", i).finish();
        if with_tag {
            r.set_tag("k", i % 4);
        }
        net.send(r).unwrap();
    }
    net.finish().len()
}

fn bench_box_chain(c: &mut Criterion) {
    let mut g = c.benchmark_group("RT_box_chain");
    g.measurement_time(std::time::Duration::from_secs(2));
    g.warm_up_time(std::time::Duration::from_millis(400));
    g.throughput(Throughput::Elements(N_RECORDS));
    g.sample_size(10);
    for depth in [1usize, 4, 16] {
        let expr = vec!["id"; depth].join(" .. ");
        g.bench_with_input(BenchmarkId::from_parameter(depth), &expr, |b, expr| {
            b.iter(|| {
                let n = drive(id_net(expr), false);
                assert_eq!(n, N_RECORDS as usize);
            })
        });
    }
    g.finish();
}

/// RT_fused_chain — the PR 5 tentpole measured directly: the same
/// n-stage pipeline with the fusion pass on (one component, records
/// cascade on its stack) vs off (one component per stage, n channel
/// hops + wakeups per record). Includes build/teardown like
/// RT_box_chain; the live-network delta shows up in RT_throughput.
fn bench_fused_chain(c: &mut Criterion) {
    let mut g = c.benchmark_group("RT_fused_chain");
    g.measurement_time(std::time::Duration::from_secs(2));
    g.warm_up_time(std::time::Duration::from_millis(400));
    g.throughput(Throughput::Elements(N_RECORDS));
    g.sample_size(10);
    for depth in [4usize, 16] {
        let expr = vec!["id"; depth].join(" .. ");
        for (mode, fuse) in [("fused", true), ("unfused", false)] {
            g.bench_with_input(BenchmarkId::new(mode, depth), &expr, |b, expr| {
                b.iter(|| {
                    let src = format!(
                        "box id (x) -> (x);
                         net main = {expr};"
                    );
                    let net = NetBuilder::from_source(&src)
                        .unwrap()
                        .bind("id", |r, e| e.emit(r.clone()))
                        .fuse(fuse)
                        .build("main")
                        .unwrap();
                    let n = drive(net, false);
                    assert_eq!(n, N_RECORDS as usize);
                })
            });
        }
    }
    g.finish();
}

/// RT_fused_fan — fan fusion measured directly: a det indexed split
/// (`id ! <k>`, 4 lanes) fused (one component — dispatch, lane cores
/// and merge handoff run inline) vs unfused (dispatcher → lane →
/// merger, three channel hops + wakeups per record; every box, spine
/// stage and lane chain a component of its own). The `live` legs keep the net alive across iterations
/// (the RT_throughput shape); the `build` legs include construction
/// and teardown (the RT_split shape). Per executor, both ways. The
/// `star_of_split` rows are Fig. 2's shape, `(step !! <k>) ** {<z>}`
/// walked 8 levels deep on the pool: fused, the whole nest is one
/// component; unfused, every level is a guard, a dispatcher, its
/// replicas and a merger. The `spine` rows are the sensor net's shape
/// over identity boxes, `id .. (id !! <k>) .. (id || [{y} -> {x=y}])`,
/// live on a pool of one and of two workers: fused, the net is one
/// stage run and its parts cannot pipeline across workers; unfused,
/// every box, filter, dispatcher and merger is a component of its own.
fn bench_fused_fan(c: &mut Criterion) {
    let mut g = c.benchmark_group("RT_fused_fan");
    g.measurement_time(std::time::Duration::from_secs(2));
    g.warm_up_time(std::time::Duration::from_millis(400));
    g.throughput(Throughput::Elements(N_RECORDS));
    g.sample_size(10);
    let variants = exec_variants();
    for (ename, exec) in &variants {
        for (mode, fan) in [("fused", true), ("unfused", false)] {
            let net = id_net_fan("id ! <k>", Arc::clone(exec), fan);
            g.bench_with_input(
                BenchmarkId::new(format!("live_{mode}"), ename),
                &(),
                |b, _| {
                    b.iter(|| {
                        for i in 0..N_RECORDS as i64 {
                            let mut r = Record::build().field("x", i).finish();
                            r.set_tag("k", i % 4);
                            net.send(r).unwrap();
                        }
                        for _ in 0..N_RECORDS {
                            net.recv().expect("det split echoes every record");
                        }
                    })
                },
            );
            let _ = net.finish();
            g.bench_with_input(
                BenchmarkId::new(format!("build_{mode}"), ename),
                &(),
                |b, _| {
                    b.iter(|| {
                        let net = id_net_fan("id ! <k>", Arc::clone(exec), fan);
                        let n = drive(net, true);
                        assert_eq!(n, N_RECORDS as usize);
                    })
                },
            );
        }
    }
    let (_, pool) = variants.last().expect("the pool comes last");
    let star_of_split = |fuse: bool| {
        NetBuilder::from_source(
            "box step (n, <k>) -> (n, <k>) | (n, <k>, <z>);
             net main = (step !! <k>) ** {<z>};",
        )
        .unwrap()
        .bind("step", |r, e| {
            let n = r.field("n").unwrap().as_int().unwrap();
            let rec = Record::build()
                .field("n", n - 1)
                .tag("k", (r.tag("k").unwrap() + 1) % 4);
            e.emit(if n <= 1 {
                rec.tag("z", 1).finish()
            } else {
                rec.finish()
            });
        })
        .executor(Arc::clone(pool))
        .fuse(fuse)
        .build("main")
        .unwrap()
    };
    let send_all = |net: &snet_runtime::Net| {
        for i in 0..N_RECORDS as i64 {
            let rec = Record::build().field("n", 8i64).tag("k", i % 4);
            net.send(rec.finish()).unwrap();
        }
    };
    for (mode, fan) in [("fused", true), ("unfused", false)] {
        let net = star_of_split(fan);
        g.bench_function(format!("live_{mode}/star_of_split"), |b| {
            b.iter(|| {
                send_all(&net);
                for _ in 0..N_RECORDS {
                    net.recv().expect("every record leaves at level 8");
                }
            })
        });
        let _ = net.finish();
        g.bench_function(format!("build_{mode}/star_of_split"), |b| {
            b.iter(|| {
                let net = star_of_split(fan);
                send_all(&net);
                assert_eq!(net.finish().len(), N_RECORDS as usize);
            })
        });
    }
    for workers in [1, 2] {
        let pool: Arc<dyn Executor> = Arc::new(WorkStealingPool::new(workers));
        for (mode, fan) in [("fused", true), ("unfused", false)] {
            let net = id_net_fan(
                "id .. (id !! <k>) .. (id || [{y} -> {x=y}])",
                Arc::clone(&pool),
                fan,
            );
            g.bench_with_input(
                BenchmarkId::new(format!("live_{mode}/spine"), format!("pool{workers}")),
                &(),
                |b, _| {
                    b.iter(|| {
                        for i in 0..N_RECORDS as i64 {
                            let rec = Record::build().field("x", i).tag("k", i % 4);
                            net.send(rec.finish()).unwrap();
                        }
                        for _ in 0..N_RECORDS {
                            net.recv().expect("the spine echoes every record");
                        }
                    })
                },
            );
            let _ = net.finish();
        }
    }
    g.finish();
}

fn bench_filter(c: &mut Criterion) {
    let mut g = c.benchmark_group("RT_filter");
    g.measurement_time(std::time::Duration::from_secs(2));
    g.warm_up_time(std::time::Duration::from_millis(400));
    g.throughput(Throughput::Elements(N_RECORDS));
    g.sample_size(10);
    g.bench_function("rename_and_tag", |b| {
        b.iter(|| {
            let net = id_net("id .. [{x} -> {y=x, <t>=1}] .. idy");
            let n = drive(net, false);
            assert_eq!(n, N_RECORDS as usize);
        })
    });
    g.finish();
}

fn bench_parallel_dispatch(c: &mut Criterion) {
    let mut g = c.benchmark_group("RT_parallel");
    g.measurement_time(std::time::Duration::from_secs(2));
    g.warm_up_time(std::time::Duration::from_millis(400));
    g.throughput(Throughput::Elements(N_RECORDS));
    g.sample_size(10);
    for (name, expr) in [("nondet", "id || id"), ("det", "id | id")] {
        g.bench_with_input(BenchmarkId::from_parameter(name), &expr, |b, expr| {
            b.iter(|| {
                let n = drive(id_net(expr), false);
                assert_eq!(n, N_RECORDS as usize);
            })
        });
    }
    g.finish();
}

fn bench_split(c: &mut Criterion) {
    let mut g = c.benchmark_group("RT_split");
    g.measurement_time(std::time::Duration::from_secs(2));
    g.warm_up_time(std::time::Duration::from_millis(400));
    g.throughput(Throughput::Elements(N_RECORDS));
    g.sample_size(10);
    for (name, expr) in [("nondet", "id !! <k>"), ("det", "id ! <k>")] {
        g.bench_with_input(BenchmarkId::from_parameter(name), &expr, |b, expr| {
            b.iter(|| {
                let n = drive(id_net(expr), true);
                assert_eq!(n, N_RECORDS as usize);
            })
        });
    }
    g.finish();
}

fn bench_star_traversal(c: &mut Criterion) {
    // Cost per stage traversed: records count down through the chain.
    let src = "
        box step (n) -> (n) | (n, <z>);
        net main = step ** {<z>};
    ";
    let mut g = c.benchmark_group("RT_star");
    g.measurement_time(std::time::Duration::from_secs(2));
    g.warm_up_time(std::time::Duration::from_millis(400));
    g.sample_size(10);
    for depth in [4i64, 16, 64] {
        g.bench_with_input(BenchmarkId::from_parameter(depth), &depth, |b, &depth| {
            b.iter(|| {
                let net = NetBuilder::from_source(src)
                    .unwrap()
                    .bind("step", |r, e| {
                        let n = r.field("n").unwrap().as_int().unwrap();
                        if n <= 1 {
                            e.emit(Record::build().field("n", 0i64).tag("z", 1).finish());
                        } else {
                            e.emit(Record::build().field("n", n - 1).finish());
                        }
                    })
                    .build("main")
                    .unwrap();
                for _ in 0..50 {
                    net.send(Record::build().field("n", depth).finish())
                        .unwrap();
                }
                let out = net.finish();
                assert_eq!(out.len(), 50);
            })
        });
    }
    g.finish();
}

/// RT_metrics — the cost of one per-record metrics update, seed shape
/// vs handle shape (the PR 1 tentpole). The seed paid a `format!` heap
/// allocation plus a `Mutex<BTreeMap>` round-trip per record; the
/// handle is one relaxed atomic add resolved at spawn time. The
/// acceptance bar is handle ≥ 10× faster than looking the key up. The
/// registry no longer has a count-by-key call, so the seed row spells
/// the lookup out.
fn bench_metrics_inc(c: &mut Criterion) {
    let mut g = c.benchmark_group("RT_metrics_inc");
    g.measurement_time(std::time::Duration::from_secs(1));
    g.warm_up_time(std::time::Duration::from_millis(200));
    g.sample_size(20);
    g.throughput(Throughput::Elements(1));

    let path = "net/star/stage3/split/branch2/box:solveOneLevel";

    g.bench_function("string_seed", |b| {
        // The seed's exact per-record pattern: format a fresh key,
        // then take the registry lock.
        let m = Metrics::new();
        b.iter(|| m.handle(format!("{path}/records_in")).inc(1));
    });

    g.bench_function("handle", |b| {
        // The new pattern: key resolved once at spawn time.
        let m = Metrics::new();
        let h = m.handle(format!("{path}/records_in"));
        b.iter(|| h.inc(1));
    });

    g.finish();
}

/// RT_dispatch_route — the routing decision of the parallel
/// combinator: fresh `record_type()` + two `match_score` subset tests
/// per record (seed) vs one hash + cache hit (memoized).
fn bench_dispatch_route(c: &mut Criterion) {
    let mut g = c.benchmark_group("RT_dispatch_route");
    g.measurement_time(std::time::Duration::from_secs(1));
    g.warm_up_time(std::time::Duration::from_millis(200));
    g.sample_size(20);
    g.throughput(Throughput::Elements(1));

    // Branch signatures shaped like a realistic composition: left
    // takes {board,opts}, right takes {board,<done>}.
    let lsig = NetSig::simple(
        RecordType::of(&["board", "opts"], &[]),
        vec![RecordType::of(&["board", "opts"], &[])],
    );
    let rsig = NetSig::simple(
        RecordType::of(&["board"], &["done"]),
        vec![RecordType::of(&["board"], &["done"])],
    );
    // A few distinct record types, as a steady-state stream would mix.
    let records = [
        Record::build()
            .field("board", 1i64)
            .field("opts", 2i64)
            .finish(),
        Record::build().field("board", 1i64).tag("done", 1).finish(),
        Record::build()
            .field("board", 1i64)
            .field("opts", 2i64)
            .tag("k", 3)
            .finish(),
    ];

    g.bench_function("match_score_seed", |b| {
        // The seed's per-record work.
        let mut i = 0usize;
        b.iter(|| {
            let rec = &records[i % records.len()];
            i += 1;
            let rt = rec.record_type();
            let sl = lsig.match_score(&rt);
            let sr = rsig.match_score(&rt);
            match (sl, sr) {
                (Some(a), Some(b)) if a == b => i.is_multiple_of(2),
                (Some(a), Some(b)) => a > b,
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => unreachable!(),
            }
        });
    });

    g.bench_function("memoized", |b| {
        let mut cache = RouteCache::new(lsig.clone(), rsig.clone());
        let mut i = 0usize;
        b.iter(|| {
            let rec = &records[i % records.len()];
            i += 1;
            cache.decide(rec).unwrap()
        });
    });

    g.finish();
}

/// RT_record_ops — the record-level type operations the PR 4 tentpole
/// compiled into shape plans: subtype-acceptance `split_for`, flow
/// `inherit`, and the shape-intern lookups backing them. The paper's
/// worked example shapes: record {a,<b>,d} split against box input
/// (a,<b>), output {c} inheriting the excess {d}. `box_boundary` puts
/// them together on a live one-box net.
fn bench_record_ops(c: &mut Criterion) {
    let mut g = c.benchmark_group("RT_record_ops");
    g.measurement_time(std::time::Duration::from_secs(1));
    g.warm_up_time(std::time::Duration::from_millis(200));
    g.sample_size(20);
    g.throughput(Throughput::Elements(1));

    let rec = Record::build()
        .field("a", 1i64)
        .tag("b", 10)
        .field("d", 4i64)
        .finish();
    let ty = RecordType::of(&["a"], &["b"]);

    // Warm split: the plan exists, application is array copies into
    // inline storage.
    g.bench_function("split_for", |b| {
        b.iter(|| rec.split_for(&ty).unwrap());
    });

    // Identity split (record shape == input type): the box-wrapper
    // fast path — plan lookup only, nothing copied by the caller.
    let exact = Record::build().field("a", 1i64).tag("b", 10).finish();
    let exact_ty = RecordType::of(&["a"], &["b"]);
    let ty_shape = Shape::of_type(&exact_ty);
    g.bench_function("split_plan_identity_hit", |b| {
        b.iter(|| exact.shape().split_plan(ty_shape).unwrap().is_identity());
    });

    // Warm inherit, non-identity: {c} gains the excess {d}.
    let (_, excess) = rec.split_for(&ty).unwrap();
    let out = Record::build().field("c", 9i64).finish();
    let _ = out.clone().inherit(&excess);
    g.bench_function("inherit", |b| {
        b.iter(|| out.clone().inherit(&excess));
    });

    // Identity inherit: excess fully shadowed — returns the record
    // untouched.
    let shadowing = Record::build().field("c", 9i64).field("d", 5i64).finish();
    let _ = shadowing.clone().inherit(&excess);
    g.bench_function("inherit_identity", |b| {
        b.iter(|| shadowing.clone().inherit(&excess));
    });

    // The box boundary on a live net: a sensor-shaped record (a
    // 256-sample array field, three tags) through one fused box whose
    // input type takes the array and one tag, so every hop copies out
    // the matched half and the output inherits the other two tags
    // from the consumed record. Send, box, recv — the per-hop cost
    // `fifo-sensor-det` pays at each of its boxes.
    let net = NetBuilder::from_source(
        "box calibrate (samples, <bias_ppm>) -> (samples);
         net main = calibrate;",
    )
    .unwrap()
    .bind("calibrate", |r, e| e.emit(r.clone()))
    .build("main")
    .unwrap();
    let reading = Record::build()
        .field("samples", Value::from(Array::from_vec(vec![0.5f64; 256])))
        .tag("sensor", 3)
        .tag("bias_ppm", 250)
        .tag("seq", 7)
        .finish();
    g.bench_function("box_boundary", |b| {
        b.iter(|| {
            net.send(reading.clone()).unwrap();
            net.recv().expect("the box emits one record")
        });
    });
    let _ = net.finish();

    // Shape-intern hit: resolving a known label set to its shape id
    // (what `Record::split_for` pays to key the plan table).
    g.bench_function("shape_intern_hit", |b| {
        b.iter(|| Shape::of_type(&ty).id());
    });

    // Shape-intern miss: first sight of a label set (leaks one
    // interned shape per iteration by design — the measurement is
    // bounded by the short warm-up/measurement windows below; every
    // later sighting of these shapes is a hit).
    let mut fresh = 0u64;
    g.bench_function("shape_intern_miss", |b| {
        b.iter(|| {
            fresh += 1;
            let name = format!("im{fresh}");
            Shape::of_type(&RecordType::of(&[&name], &["immt"])).id()
        });
    });

    g.finish();
}

/// RT_record_hop — one record through one box component on a live
/// network: channel send, box wrapper (subtype split, flow
/// inheritance, metrics), channel recv. The floor for every
/// per-record cost in the runtime — measured under both executors
/// (`single_box` keeps the PR 1 name and runs on the process default).
fn bench_record_hop(c: &mut Criterion) {
    let mut g = c.benchmark_group("RT_record_hop");
    g.measurement_time(std::time::Duration::from_secs(1));
    g.warm_up_time(std::time::Duration::from_millis(200));
    g.sample_size(20);
    g.throughput(Throughput::Elements(1));
    let net = id_net("id");
    g.bench_function("single_box", |b| {
        b.iter(|| {
            net.send(Record::build().field("x", 1i64).finish()).unwrap();
            net.recv().expect("box echoes the record")
        });
    });
    let _ = net.finish();
    for (name, exec) in exec_variants() {
        let net = id_net_on("id", exec);
        g.bench_with_input(BenchmarkId::from_parameter(name), &(), |b, _| {
            b.iter(|| {
                net.send(Record::build().field("x", 1i64).finish()).unwrap();
                net.recv().expect("box echoes the record")
            });
        });
        let _ = net.finish();
    }
    g.finish();
}

/// RT_throughput — records/sec with the network kept alive across
/// iterations (construction excluded): the PR 3 headline. `chain4`
/// pipelines N records through a 4-box chain; `det_fan` pushes them
/// through a deterministic 4-lane split (sort broadcast per record,
/// round-ordered merge). Per executor, since this is the number that
/// decides when the pool becomes the default.
fn bench_throughput(c: &mut Criterion) {
    let mut g = c.benchmark_group("RT_throughput");
    g.measurement_time(std::time::Duration::from_secs(2));
    g.warm_up_time(std::time::Duration::from_millis(400));
    g.throughput(Throughput::Elements(N_RECORDS));
    g.sample_size(10);
    for (name, exec) in exec_variants() {
        let net = id_net_on("id .. id .. id .. id", Arc::clone(&exec));
        g.bench_with_input(BenchmarkId::new("chain4", name), &(), |b, _| {
            b.iter(|| {
                for i in 0..N_RECORDS as i64 {
                    net.send(Record::build().field("x", i).finish()).unwrap();
                }
                for _ in 0..N_RECORDS {
                    net.recv().expect("chain echoes every record");
                }
            })
        });
        let _ = net.finish();

        let net = id_net_on("id ! <k>", Arc::clone(&exec));
        g.bench_with_input(BenchmarkId::new("det_fan", name), &(), |b, _| {
            b.iter(|| {
                for i in 0..N_RECORDS as i64 {
                    let mut r = Record::build().field("x", i).finish();
                    r.set_tag("k", i % 4);
                    net.send(r).unwrap();
                }
                for _ in 0..N_RECORDS {
                    net.recv().expect("det split echoes every record");
                }
            })
        });
        let _ = net.finish();
    }
    g.finish();
}

/// door — what request correlation costs on top of the stream pair it
/// fronts: the one-box `id` net from one driver thread, FIFO door vs
/// `Service` door (`snet_bench::door`), at a window of 128 (a busy net)
/// and of 1 (the lone caller). The difference of two rows of one
/// window is the door tax; all four come from one run.
fn bench_door(c: &mut Criterion) {
    use snet_bench::door;
    const WINDOWS: [u64; 2] = [1, 128];
    let mut g = c.benchmark_group("door");
    g.measurement_time(std::time::Duration::from_secs(2));
    g.warm_up_time(std::time::Duration::from_millis(400));
    g.throughput(Throughput::Elements(N_RECORDS));
    g.sample_size(10);

    let net = door::id_net();
    let mut next = 0;
    for w in WINDOWS {
        g.bench_function(format!("fifo_w{w}"), |b| {
            b.iter(|| {
                assert_eq!(door::fifo(&net, next, N_RECORDS, w), 0, "lost or reordered");
                next += N_RECORDS;
            })
        });
    }
    let _ = net.finish();

    let svc = snet_runtime::Service::start(door::id_net());
    for w in WINDOWS {
        g.bench_function(format!("service_w{w}"), |b| {
            b.iter(|| {
                assert_eq!(
                    door::service(&svc, next, N_RECORDS, w),
                    0,
                    "lost or misrouted"
                );
                next += N_RECORDS;
            })
        });
    }
    assert_eq!(svc.metrics().get("serve/stray"), 0);
    svc.shutdown();
    g.finish();
}

fn bench_net_construction(c: &mut Criterion) {
    // Parse + infer + compile + spawn + teardown (no records) — the
    // fixed cost of bringing a network up. This is where the executor
    // choice bites hardest: thread-per-component pays an OS
    // spawn/join per component, the pool pays an allocation and a
    // queue push. `fig2_build_teardown` keeps the PR 1 name and runs
    // on the process default executor.
    let mut g = c.benchmark_group("RT_construction");
    g.measurement_time(std::time::Duration::from_secs(2));
    g.warm_up_time(std::time::Duration::from_millis(400));
    g.sample_size(20);
    g.bench_function("fig2_build_teardown", |b| {
        b.iter(|| {
            let net = sudoku::networks::fig2_net(3).unwrap();
            let _ = net.finish();
        })
    });
    for (name, exec) in exec_variants() {
        g.bench_with_input(BenchmarkId::new("fig2", name), &(), |b, _| {
            b.iter(|| {
                let net = sudoku::networks::fig2_net_on(3, Arc::clone(&exec)).unwrap();
                let _ = net.finish();
            })
        });
    }
    g.finish();
}

/// RT_cold — the whole life of a net that answers one request, as
/// the benchmark's `setup_s` times it: build, one input through, finish.
/// `fig2_9x9` is Fig. 2 solving a generated 9×9 puzzle (replicas
/// unfold level by level, each registering its paths and counters);
/// `sensor_shape` is the sensor net's combinator shape over identity
/// boxes, where the build is nearly all there is.
fn bench_cold(c: &mut Criterion) {
    let mut g = c.benchmark_group("RT_cold");
    g.measurement_time(std::time::Duration::from_secs(2));
    g.warm_up_time(std::time::Duration::from_millis(400));
    g.sample_size(20);
    let puzzle = sudoku::puzzles::medium9();
    g.bench_function("fig2_9x9", |b| {
        b.iter(|| {
            let net = sudoku::networks::fig2_net(3).unwrap();
            let run = sudoku::networks::run_net(net, &puzzle);
            assert_eq!(run.solutions.len(), 1);
        })
    });
    g.bench_function("sensor_shape", |b| {
        b.iter(|| {
            let net = id_net("id .. (id !! <k>) .. (id || idy)");
            net.send(Record::build().field("x", 1i64).tag("k", 2).finish())
                .unwrap();
            assert_eq!(net.finish().len(), 1);
        })
    });
    g.finish();
}

/// RT_register — the two spawn-time lookups a replica makes for every
/// component it unfolds: registering a counter under a key the
/// registry has not seen, and deriving a child path the process has.
fn bench_register(c: &mut Criterion) {
    let mut g = c.benchmark_group("RT_register");
    g.measurement_time(std::time::Duration::from_secs(1));
    g.warm_up_time(std::time::Duration::from_millis(200));
    g.sample_size(20);
    g.throughput(Throughput::Elements(1));
    let split = CompPath::root("net")
        .child("star")
        .child("stage3")
        .child("split");
    let paths: Vec<CompPath> = (0..4096)
        .map(|k| {
            split
                .child(&format!("branch{k}"))
                .child("box:solveOneLevel")
        })
        .collect();
    g.bench_function("handle_at_fresh", |b| {
        // A fresh registry every 4096 keys keeps every key new to it.
        let mut m = Metrics::new();
        let mut next = 0;
        b.iter(|| {
            if next == paths.len() {
                m = Metrics::new();
                next = 0;
            }
            next += 1;
            m.handle_at(paths[next - 1], "records_in")
        })
    });
    g.bench_function("child_seen", |b| b.iter(|| split.child("branch7")));
    g.finish();
}

criterion_group!(
    benches,
    bench_cold,
    bench_register,
    bench_metrics_inc,
    bench_dispatch_route,
    bench_record_ops,
    bench_record_hop,
    bench_throughput,
    bench_door,
    bench_box_chain,
    bench_fused_chain,
    bench_fused_fan,
    bench_filter,
    bench_parallel_dispatch,
    bench_split,
    bench_star_traversal,
    bench_net_construction
);
criterion_main!(benches);
