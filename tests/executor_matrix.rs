//! The executor matrix: every determinism guarantee of the runtime,
//! verified under both component schedulers.
//!
//! The sort-record protocol encodes ordering in the *data*, so the
//! deterministic combinators must produce **byte-for-byte identical**
//! output whether components run one-per-OS-thread
//! ([`ThreadPerComponent`]) or as cooperative tasks on a
//! [`WorkStealingPool`]. The pool runs with **two workers** here — the
//! most adversarial interleaving short of fully sequential: every
//! component contends for a worker, parked components must resume
//! correctly, and the deterministic mergers' fixed drain order has to
//! hold while hundreds of tasks time-slice two threads.
//!
//! Also here: the scaling stress the executor subsystem exists for —
//! a ~1000-replica indexed split completing on a bounded worker set,
//! which thread-per-component could only serve with ~1000 OS threads.

use snet_runtime::{Executor, Net, NetBuilder, ThreadPerComponent, WorkStealingPool};
use snet_types::Record;
use std::sync::Arc;

/// The two backends under test. The pool is deliberately small.
fn executors() -> Vec<(&'static str, Arc<dyn Executor>)> {
    vec![
        ("threads", Arc::new(ThreadPerComponent) as Arc<dyn Executor>),
        ("pool(2)", Arc::new(WorkStealingPool::new(2)) as _),
    ]
}

/// `rep (x, <c>) -> (y)`: emits `x*10 + i` for `i in 0..c` — the
/// det-ordering oracle box.
fn build(expr: &str, exec: Arc<dyn Executor>) -> Net {
    let src = format!(
        "box rep (x, <c>) -> (y);
         net main = {expr};"
    );
    NetBuilder::from_source(&src)
        .unwrap()
        .bind("rep", |rec, em| {
            let x = rec.field("x").unwrap().as_int().unwrap();
            let c = rec.tag("c").unwrap();
            for i in 0..c {
                em.emit(Record::build().field("y", x * 10 + i).finish());
            }
        })
        .executor(exec)
        .build("main")
        .unwrap()
}

/// A fixed adversarial input stream: mixed lanes, mixed fan-outs
/// (including 0-output records), long enough to outlive any lucky
/// scheduling.
fn inputs() -> Vec<(i64, i64, i64)> {
    (0..120i64)
        .map(|i| (i, (i * 7 + 3) % 4, (i * 5 + 1) % 4))
        .collect()
}

fn drive(net: Net) -> Vec<i64> {
    for (x, c, k) in inputs() {
        net.send(
            Record::build()
                .field("x", x)
                .tag("c", c)
                .tag("k", k)
                .finish(),
        )
        .unwrap();
    }
    net.finish()
        .iter()
        .map(|r| r.field("y").unwrap().as_int().unwrap())
        .collect()
}

/// Record-major, emission-order oracle.
fn oracle() -> Vec<i64> {
    inputs()
        .iter()
        .flat_map(|(x, c, _)| (0..*c).map(move |i| x * 10 + i))
        .collect()
}

#[test]
fn det_combinators_match_oracle_under_both_executors() {
    for expr in ["rep | rep", "rep ! <k>", "(rep ! <k>) | (rep ! <k>)"] {
        for (name, exec) in executors() {
            let got = drive(build(expr, exec));
            assert_eq!(got, oracle(), "{expr} diverged under {name}");
        }
    }
}

#[test]
fn pool_output_is_byte_identical_to_thread_output() {
    // Not just oracle-correct: the two backends must agree with each
    // other on the full output sequence of every det topology.
    for expr in ["rep | rep", "rep ! <k>", "(rep | rep) ! <k>"] {
        let mut per_exec = Vec::new();
        for (name, exec) in executors() {
            per_exec.push((name, drive(build(expr, exec))));
        }
        let (ref_name, reference) = &per_exec[0];
        for (name, out) in &per_exec[1..] {
            assert_eq!(
                out, reference,
                "{expr}: {name} output diverged from {ref_name}"
            );
        }
    }
}

#[test]
fn nondet_topologies_conserve_records_under_pool() {
    // Random-networks-style conservation on the pool: every record
    // comes out exactly once, payloads intact, per-lane order kept.
    for expr in ["rep || rep", "rep !! <k>", "(rep !! <k>) || rep"] {
        for (name, exec) in executors() {
            let out = {
                let net = build(expr, exec);
                for (x, c, k) in inputs() {
                    net.send(
                        Record::build()
                            .field("x", x)
                            .tag("c", c)
                            .tag("k", k)
                            .finish(),
                    )
                    .unwrap();
                }
                net.finish()
            };
            let mut got: Vec<i64> = out
                .iter()
                .map(|r| r.field("y").unwrap().as_int().unwrap())
                .collect();
            let mut want = oracle();
            got.sort();
            want.sort();
            assert_eq!(got, want, "{expr} lost/duplicated records under {name}");
        }
    }
}

#[test]
fn det_star_matches_input_order_under_both_executors() {
    let src = "
        box dec (n) -> (n) | (n, <z>);
        net main = dec * {<z>};
    ";
    let depths: Vec<i64> = (0..24).map(|i| (i * 11 + 5) % 24 + 1).collect();
    for (name, exec) in executors() {
        let net = NetBuilder::from_source(src)
            .unwrap()
            .bind("dec", |rec, em| {
                let n = rec.field("n").unwrap().as_int().unwrap();
                if n <= 1 {
                    em.emit(Record::build().field("n", 0i64).tag("z", 1).finish());
                } else {
                    em.emit(Record::build().field("n", n - 1).finish());
                }
            })
            .executor(exec)
            .build("main")
            .unwrap();
        for (id, d) in depths.iter().enumerate() {
            net.send(Record::build().field("n", *d).tag("id", id as i64).finish())
                .unwrap();
        }
        let out = net.finish();
        let ids: Vec<i64> = out.iter().map(|r| r.tag("id").unwrap()).collect();
        let want: Vec<i64> = (0..depths.len() as i64).collect();
        assert_eq!(ids, want, "det star order diverged under {name}");
    }
}

#[test]
fn thousand_replica_split_completes_on_two_workers() {
    // The scaling claim: ≥1000 dynamically unfolded replicas (plus
    // dispatcher and merger) run to completion on a pool whose OS
    // thread count stays at the worker count — where
    // thread-per-component would burn one OS thread per replica.
    let pool = Arc::new(WorkStealingPool::new(2));
    let net = NetBuilder::from_source(
        "box id (x, <k>) -> (x, <k>);
         net main = id !! <k>;",
    )
    .unwrap()
    .bind("id", |rec, em| em.emit(rec.clone()))
    .executor(Arc::clone(&pool) as Arc<dyn Executor>)
    .build("main")
    .unwrap();

    const LANES: i64 = 1000;
    for round in 0..3i64 {
        for k in 0..LANES {
            net.send(
                Record::build()
                    .field("x", round * LANES + k)
                    .tag("k", k)
                    .finish(),
            )
            .unwrap();
        }
    }
    let metrics = Arc::clone(net.metrics());
    assert_eq!(net.executor().os_thread_bound(), Some(2));
    let out = net.finish();
    assert_eq!(out.len(), 3 * LANES as usize);
    // Per-lane FIFO survives the unfolding.
    for k in [0i64, 499, 999] {
        let xs: Vec<i64> = out
            .iter()
            .filter(|r| r.tag("k") == Some(k))
            .map(|r| r.field("x").unwrap().as_int().unwrap())
            .collect();
        assert_eq!(xs, vec![k, LANES + k, 2 * LANES + k], "lane {k} order");
    }
    // ≥1000 replicas unfolded (components, not threads)...
    assert_eq!(metrics.sum_matching("branches"), LANES as u64);
    assert_eq!(metrics.sum_matching("box:id/spawned"), LANES as u64);
    // ...on exactly two OS worker threads.
    assert_eq!(pool.workers(), 2);
}

#[test]
fn deterministic_split_stress_under_pool() {
    // Det variant at a smaller width: every record triggers a sort
    // broadcast to all live replicas, so this floods the pool with
    // wakeups while the det merger enforces global input order.
    let pool = Arc::new(WorkStealingPool::new(2));
    let net = NetBuilder::from_source(
        "box id (x, <k>) -> (x, <k>);
         net main = id ! <k>;",
    )
    .unwrap()
    .bind("id", |rec, em| em.emit(rec.clone()))
    .executor(pool as Arc<dyn Executor>)
    .build("main")
    .unwrap();
    const N: i64 = 600;
    for i in 0..N {
        net.send(Record::build().field("x", i).tag("k", i % 150).finish())
            .unwrap();
    }
    let out = net.finish();
    let xs: Vec<i64> = out
        .iter()
        .map(|r| r.field("x").unwrap().as_int().unwrap())
        .collect();
    assert_eq!(xs, (0..N).collect::<Vec<_>>());
}

// ---------------------------------------------------------------------------
// The pool's fairness unit is time, not messages.
// ---------------------------------------------------------------------------

#[test]
fn expensive_stages_interleave_on_one_worker() {
    // A three-stage pipeline whose stages cost ~300 µs a record, 16
    // records queued before the first one is touched, one worker. With
    // a flat budget of 128 *messages* per poll the first stage ran all
    // 16 records before its consumer got the worker — 16 intermediate
    // payloads alive at once, which is what `array-frames` paid for in
    // peak RSS. The worker now measures each task's cost per message
    // and grants a time slice: a record is through all three stages
    // before the next few are started.
    use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
    use std::time::{Duration, Instant};

    #[derive(Default)]
    struct Live {
        now: AtomicI64,
        high_water: AtomicI64,
        all_sent: AtomicBool,
    }
    fn work() {
        let t = Instant::now();
        while t.elapsed() < Duration::from_micros(300) {
            std::hint::spin_loop();
        }
    }

    for fuse in [true, false] {
        let live = Arc::new(Live::default());
        let (a, c) = (Arc::clone(&live), Arc::clone(&live));
        let net = NetBuilder::from_source(
            "box a (x) -> (x); box b (x) -> (x); box c (x) -> (x);
             net main = a .. b .. c;",
        )
        .unwrap()
        .bind("a", move |rec, em| {
            // Hold the only worker until every record is queued.
            while !a.all_sent.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
            work();
            let n = a.now.fetch_add(1, Ordering::SeqCst) + 1;
            a.high_water.fetch_max(n, Ordering::SeqCst);
            em.emit(rec.clone());
        })
        .bind("b", |rec, em| {
            // One intermediate consumed, one produced.
            work();
            em.emit(rec.clone());
        })
        .bind("c", move |rec, em| {
            work();
            c.now.fetch_sub(1, Ordering::SeqCst);
            em.emit(rec.clone());
        })
        .fuse(fuse)
        .executor(Arc::new(WorkStealingPool::new(1)))
        .build("main")
        .unwrap();
        for x in 0..16i64 {
            net.send(Record::build().field("x", x).finish()).unwrap();
        }
        live.all_sent.store(true, Ordering::Release);
        assert_eq!(net.finish().len(), 16);
        let high_water = live.high_water.load(Ordering::SeqCst);
        assert!(
            (1..=4).contains(&high_water),
            "fuse={fuse}: {high_water} intermediate payloads alive at once"
        );
    }
}

#[test]
fn a_slow_lone_box_publishes_before_it_works_off_its_backlog() {
    // A lone 5 ms box with 64 records queued behind the one it is on:
    // how often has it been entered when its first output reaches the
    // consumer? A stage run drains at most its poll budget, and a
    // 5 ms message prices the budget at 1 on every executor — a driver
    // that published once per drained batch (or drained without a
    // budget) would have run all 64 first. Counts, not clocks.
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::time::Duration;
    const BACKLOG: i64 = 64;

    let pools: [fn() -> Arc<dyn Executor>; 3] = [
        || Arc::new(ThreadPerComponent),
        || Arc::new(WorkStealingPool::new(1)),
        || Arc::new(WorkStealingPool::new(2)),
    ];
    for (mk, fuse) in pools.iter().flat_map(|mk| [(mk, true), (mk, false)]) {
        let exec = mk();
        let name = format!("{} {:?} fuse={fuse}", exec.kind(), exec.os_thread_bound());
        let entered = Arc::new(AtomicUsize::new(0));
        let all_sent = Arc::new(AtomicBool::new(false));
        let net = NetBuilder::from_source("box slow (x) -> (x); net main = slow;")
            .unwrap()
            .bind("slow", {
                let (entered, all_sent) = (Arc::clone(&entered), Arc::clone(&all_sent));
                move |rec, em| {
                    if rec.field("x").unwrap().as_int() == Some(-1) {
                        // The primer: hold the box until the backlog is
                        // queued, and put nothing on the output.
                        while !all_sent.load(Ordering::Acquire) {
                            std::thread::yield_now();
                        }
                        return;
                    }
                    entered.fetch_add(1, Ordering::SeqCst);
                    std::thread::sleep(Duration::from_millis(5));
                    em.emit(rec.clone());
                }
            })
            .fuse(fuse)
            .executor(exec)
            // Room for the whole backlog: the sends below must not wait
            // on a box that is waiting for them.
            .bound(BACKLOG as usize + 1)
            .build("main")
            .unwrap();
        for x in -1..BACKLOG {
            net.send(Record::build().field("x", x).finish()).unwrap();
        }
        all_sent.store(true, Ordering::Release);
        let first = net.recv().expect("the box emits every record");
        let at_first_output = entered.load(Ordering::SeqCst);
        assert_eq!(first.field("x").unwrap().as_int(), Some(0), "{name}");
        assert!(
            (1..=4).contains(&at_first_output),
            "{name}: entered {at_first_output} times before its first output arrived"
        );
        assert_eq!(net.finish().len(), BACKLOG as usize - 1, "{name}");
    }
}
