//! The executor matrix: every determinism guarantee of the runtime,
//! verified under both component schedulers. This is the one file that
//! runs nets on [`ThreadPerComponent`] to check what they output; every
//! other equivalence test runs on pools of one and two workers
//! (`tests/common/pools.rs`).
//!
//! The sort-record protocol encodes ordering in the *data*, so the
//! deterministic combinators must produce the sequential reference's
//! output (`snet_runtime::oracle`), byte for byte, whether components
//! run one-per-OS-thread ([`ThreadPerComponent`]) or as cooperative
//! tasks on a [`WorkStealingPool`]. Each run is checked against the
//! reference, never against the other executor's run. The pool runs
//! with **two workers** here — the most adversarial interleaving short
//! of fully sequential: every component contends for a worker, parked
//! components must resume correctly, and the deterministic mergers'
//! fixed drain order has to hold while hundreds of tasks time-slice two
//! threads.
//!
//! Also here: the scaling stress the executor subsystem exists for —
//! a ~1000-replica indexed split completing on a bounded worker set,
//! which thread-per-component could only serve with ~1000 OS threads.

use snet_lang::{parse_net_expr, parse_program};
use snet_runtime::{
    oracle, Bindings, Emitter, Executor, Net, NetBuilder, ThreadPerComponent, WorkStealingPool,
};
use snet_types::Record;
use std::sync::Arc;

/// The two backends under test. The pool is deliberately small.
fn executors() -> Vec<(&'static str, Arc<dyn Executor>)> {
    vec![
        ("threads", Arc::new(ThreadPerComponent) as Arc<dyn Executor>),
        ("pool(2)", Arc::new(WorkStealingPool::new(2)) as _),
    ]
}

const SRC: &str = "box rep (x, <c>) -> (y); box dec (n) -> (n) | (n, <z>);";

/// `rep (x, <c>) -> (y)`: emits `x*10 + i` for `i in 0..c`.
fn rep(rec: &Record, em: &mut Emitter) {
    let x = rec.field("x").unwrap().as_int().unwrap();
    for i in 0..rec.tag("c").unwrap() {
        em.emit(Record::build().field("y", x * 10 + i).finish());
    }
}

/// `dec (n) -> (n) | (n, <z>)`: counts `n` down, `<z>` at one.
fn dec(rec: &Record, em: &mut Emitter) {
    let n = rec.field("n").unwrap().as_int().unwrap();
    let out = Record::build().field("n", (n - 1).max(0));
    em.emit(if n <= 1 { out.tag("z", 1) } else { out }.finish());
}

fn build(expr: &str, exec: Arc<dyn Executor>) -> Net {
    NetBuilder::from_source(SRC)
        .unwrap()
        .bind("rep", rep)
        .bind("dec", dec)
        .executor(exec)
        .build_expr(expr)
        .unwrap()
}

/// A fixed adversarial input stream: mixed lanes, mixed fan-outs
/// (including 0-output records), long enough to outlive any lucky
/// scheduling.
fn inputs() -> Vec<Record> {
    (0..120i64)
        .map(|i| {
            let rec = Record::build().field("x", i).tag("c", (i * 7 + 3) % 4);
            rec.tag("k", (i * 5 + 1) % 4).finish()
        })
        .collect()
}

fn drive(net: Net, inputs: Vec<Record>) -> Vec<Record> {
    for rec in inputs {
        net.send(rec).unwrap();
    }
    net.finish()
}

/// What `expr` must output on `inputs`: the sequential reference.
fn expected(expr: &str, inputs: Vec<Record>) -> oracle::Expected {
    let env = parse_program(SRC).unwrap().env().unwrap();
    let b = Bindings::new().bind("rep", rep).bind("dec", dec);
    let plan = snet_runtime::compile_cfg(&parse_net_expr(expr).unwrap(), &env, &b, false);
    oracle::run(&plan.unwrap(), inputs).unwrap()
}

#[test]
fn det_combinators_match_oracle_under_both_executors() {
    // Each backend against the reference, byte for byte: so the two
    // agree with each other too.
    let exprs = [
        "rep | rep",
        "rep ! <k>",
        "(rep ! <k>) | (rep ! <k>)",
        "(rep | rep) ! <k>",
    ];
    for expr in exprs {
        let want = expected(expr, inputs());
        assert!(want.ordered, "{expr}");
        for (name, exec) in executors() {
            assert_eq!(
                drive(build(expr, exec), inputs()),
                want.records,
                "{expr} under {name}"
            );
        }
    }
}

#[test]
fn nondet_topologies_conserve_records_under_pool() {
    // Every record comes out exactly once, payloads intact.
    for expr in ["rep || rep", "rep !! <k>", "(rep !! <k>) || rep"] {
        let want = expected(expr, inputs());
        for (name, exec) in executors() {
            let got = drive(build(expr, exec), inputs());
            assert!(
                want.admits(&got),
                "{expr} lost/duplicated records under {name}"
            );
        }
    }
}

#[test]
fn det_star_matches_input_order_under_both_executors() {
    let inputs = || -> Vec<Record> {
        (0..24i64)
            .map(|id| {
                Record::build()
                    .field("n", (id * 11 + 5) % 24 + 1)
                    .tag("id", id)
                    .finish()
            })
            .collect()
    };
    let want = expected("dec * {<z>}", inputs());
    for (name, exec) in executors() {
        let out = drive(build("dec * {<z>}", exec), inputs());
        let ids: Vec<i64> = out.iter().map(|r| r.tag("id").unwrap()).collect();
        assert_eq!(
            ids,
            (0..24).collect::<Vec<_>>(),
            "det star order diverged under {name}"
        );
        assert_eq!(out, want.records, "{name}");
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

/// A caller's waker that notes, on its first wake, how often the box
/// had been entered. A served net's output wakes its caller from the
/// send that publishes it, on the publishing thread, so that is the
/// count at the moment of publication, whenever the caller gets to
/// run again.
struct AtPublication {
    entered: Arc<std::sync::atomic::AtomicUsize>,
    count: std::sync::atomic::AtomicUsize,
    caller: std::thread::Thread,
}

impl std::task::Wake for AtPublication {
    fn wake(self: Arc<Self>) {
        use std::sync::atomic::Ordering::SeqCst;
        let now = self.entered.load(SeqCst);
        let _ = self.count.compare_exchange(usize::MAX, now, SeqCst, SeqCst);
        self.caller.unpark();
    }
}

#[test]
fn a_slow_lone_box_publishes_before_it_works_off_its_backlog() {
    // A lone 5 ms box with 64 records queued behind the one it is on:
    // how often has it been entered when its first output is
    // published? A stage run drains at most its poll budget, and a
    // 5 ms message prices the budget at 1 on every executor — a driver
    // that published once per drained batch (or drained without a
    // budget) would have run all 64 first. Counts, not clocks: the
    // count is taken by the publishing thread, so a test thread that
    // is descheduled after the output arrives cannot inflate it.
    use snet_runtime::Service;
    use std::future::Future;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::task::{Context, Poll, Waker};
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
            // Room for the whole backlog: the calls below must not wait
            // on a box that is waiting for them.
            .bound(BACKLOG as usize + 1)
            .build("main")
            .unwrap();
        let svc = Service::start(net);
        let call = |x: i64| svc.call(Record::build().field("x", x).finish()).unwrap();
        let primer = call(-1);
        let mut calls: Vec<_> = (0..BACKLOG).map(call).collect();
        let probe = Arc::new(AtPublication {
            entered: Arc::clone(&entered),
            count: AtomicUsize::new(usize::MAX),
            caller: std::thread::current(),
        });
        let waker = Waker::from(Arc::clone(&probe));
        let mut cx = Context::from_waker(&waker);
        // Registered before the primer lets go: the box cannot have
        // emitted anything yet.
        assert!(std::pin::Pin::new(&mut calls[0]).poll(&mut cx).is_pending());
        all_sent.store(true, Ordering::Release);
        let first = loop {
            match std::pin::Pin::new(&mut calls[0]).poll(&mut cx) {
                Poll::Ready(r) => break r.unwrap(),
                Poll::Pending => std::thread::park(),
            }
        };
        let at_publication = probe.count.load(Ordering::SeqCst);
        assert_eq!(
            first.records[0].field("x").unwrap().as_int(),
            Some(0),
            "{name}"
        );
        assert!(
            (1..=4).contains(&at_publication),
            "{name}: entered {at_publication} times before its first output was published"
        );
        for handle in calls.drain(1..) {
            assert_eq!(handle.wait().unwrap().records.len(), 1, "{name}");
        }
        drop(primer);
        svc.shutdown();
    }
}

#[test]
fn a_box_that_blocks_on_another_net_keeps_order() {
    // `fwd` sends each record into an inner net on a pool of its own
    // and waits for the answer: a blocking `Net::recv` inside a box,
    // so on a pool worker the box's wait shares the thread's park token
    // with the worker's idle loop. Under every executor and both
    // topologies, at a bound small enough that the sending thread and the box
    // both wait on credit, the outer net must answer in input order.
    const N: i64 = 2_000;
    let x = |rec: &Record| rec.field("x").unwrap().as_int().unwrap();
    let pools: [fn() -> Arc<dyn Executor>; 3] = [
        || Arc::new(ThreadPerComponent),
        || Arc::new(WorkStealingPool::new(1)),
        || Arc::new(WorkStealingPool::new(2)),
    ];
    for (mk, fuse) in pools.iter().flat_map(|mk| [(mk, true), (mk, false)]) {
        let inner = NetBuilder::from_source("box inc (x) -> (x); net main = inc;")
            .unwrap()
            .bind("inc", move |rec, em| {
                em.emit(Record::build().field("x", x(rec) + 1).finish())
            })
            .executor(Arc::new(WorkStealingPool::new(1)))
            .build("main")
            .unwrap();
        let exec = mk();
        let name = format!("{} {:?} fuse={fuse}", exec.kind(), exec.os_thread_bound());
        let outer = NetBuilder::from_source(
            "box fwd (x) -> (x); box dbl (x) -> (x); net main = fwd .. dbl;",
        )
        .unwrap()
        .bind("fwd", move |rec, em| {
            inner.send(rec.clone()).unwrap();
            em.emit(inner.recv().expect("the inner net answers"));
        })
        .bind("dbl", move |rec, em| {
            em.emit(Record::build().field("x", x(rec) * 2).finish())
        })
        .fuse(fuse)
        .executor(exec)
        .bound(4)
        .build("main")
        .unwrap();
        let got: Vec<i64> = std::thread::scope(|s| {
            s.spawn(|| {
                for i in 0..N {
                    outer.send(Record::build().field("x", i).finish()).unwrap();
                }
            });
            (0..N).map(|_| x(&outer.recv().unwrap())).collect()
        });
        let want: Vec<i64> = (0..N).map(|i| (i + 1) * 2).collect();
        assert_eq!(got, want, "{name}");
        assert!(outer.finish().is_empty(), "{name}");
    }
}
