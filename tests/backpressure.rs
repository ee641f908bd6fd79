//! Fault-injection coverage for the bounded-edge / credit subsystem
//! (`NetBuilder::bound`, see `snet_runtime::stream`).
//!
//! Three injected overload shapes, each an instance of "producers are
//! systematically faster than consumers":
//!
//! * **stalled consumer** — the last stage blocks on an external latch
//!   while the driver keeps sending; every interior queue must stop
//!   growing at the configured bound;
//! * **slow stage** — a middle stage runs orders of magnitude slower
//!   than the ingress; depth stays at the bound for the whole run, not
//!   just transiently;
//! * **amplifying chain** — six stages that each triple the stream
//!   (3^6 = 729× fan-out); without credit gating the interior queues
//!   would hold tens of thousands of records.
//!
//! The depth oracle is the `stream_depth` high-water gauge family
//! (`Metrics::max_matching`), which bounded edges maintain on every
//! credit acquisition. The scenarios use **sort-free** nets: sort
//! records are deliberately never gated (see `snet_runtime::merge`),
//! so deterministic-combinator traffic may transiently exceed the
//! bound by design. Determinism under bounding is instead checked by
//! the byte-identity matrix below, and liveness by a randomized
//! stall/resume schedule run under a watchdog.

use snet_runtime::{
    Executor, Net, NetBuilder, OverloadPolicy, SendRejected, ThreadPerComponent, WorkStealingPool,
};
use snet_types::Record;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// An external latch a box can block on: fault injection for a
/// consumer that stops consuming until the test releases it.
#[derive(Default)]
struct Latch {
    open: Mutex<bool>,
    cv: Condvar,
}

impl Latch {
    fn new() -> Arc<Latch> {
        Arc::new(Latch::default())
    }
    fn wait(&self) {
        let mut open = self.open.lock().unwrap();
        while !*open {
            open = self.cv.wait(open).unwrap();
        }
    }
    fn release(&self) {
        *self.open.lock().unwrap() = true;
        self.cv.notify_all();
    }
}

/// The executors a stage-run scenario runs on: a thread per component
/// and shared workers (one, where every component of the net takes
/// turns on it, and two).
fn executors() -> Vec<(&'static str, Arc<dyn Executor>)> {
    vec![
        ("threads", Arc::new(ThreadPerComponent)),
        ("pool(1)", Arc::new(WorkStealingPool::new(1))),
        ("pool(2)", Arc::new(WorkStealingPool::new(2))),
    ]
}

fn ints(records: &[Record], field: &str) -> Vec<i64> {
    records
        .iter()
        .map(|r| r.field(field).unwrap().as_int().unwrap())
        .collect()
}

/// A four-stage relay chain whose last stage blocks on `latch` after
/// counting its arrival. Unfused so every inter-stage edge is real.
fn gated_chain(bound: usize, latch: Arc<Latch>, arrived: Arc<AtomicUsize>) -> Net {
    NetBuilder::from_source(
        "box relay (x) -> (x);
         box gate (x) -> (x);
         net main = relay .. relay .. relay .. gate;",
    )
    .unwrap()
    .bind("relay", |r, e| e.emit(r.clone()))
    .bind("gate", move |r, e| {
        arrived.fetch_add(1, Ordering::SeqCst);
        latch.wait();
        e.emit(r.clone());
    })
    .executor(Arc::new(ThreadPerComponent))
    .fuse(false)
    .bound(bound)
    .build("main")
    .unwrap()
}

#[test]
fn stalled_consumer_caps_every_queue_at_the_bound() {
    const BOUND: usize = 8;
    const N: i64 = 4000;
    let latch = Latch::new();
    let arrived = Arc::new(AtomicUsize::new(0));
    let net = gated_chain(BOUND, Arc::clone(&latch), Arc::clone(&arrived));

    // The driver blocks once the chain is saturated (Block policy), so
    // it gets its own thread while the main thread probes the gauges.
    std::thread::scope(|s| {
        let driver = s.spawn(|| {
            for i in 0..N {
                net.send(Record::build().field("x", i).finish()).unwrap();
            }
        });

        // Wait for the fault to engage: the gate has a record and is
        // parked on the latch, and the driver has had time to flood.
        while arrived.load(Ordering::SeqCst) == 0 {
            std::thread::yield_now();
        }
        std::thread::sleep(Duration::from_millis(100));

        // Every bounded edge stopped at the bound even though ~4000
        // records are trying to get through a stalled pipeline.
        let high_water = net.metrics().max_matching("stream_depth");
        assert!(
            high_water as usize <= BOUND,
            "queue depth {high_water} exceeded bound {BOUND} under a stalled consumer"
        );
        // And the flood really was held upstream, not buffered: at
        // most the record the gate is sleeping on plus one adopted by
        // its input loop got past the interior queues.
        let in_flight = arrived.load(Ordering::SeqCst);
        assert!(
            in_flight <= 2,
            "gate received {in_flight} records while stalled"
        );

        latch.release();
        driver.join().unwrap();
    });
    let out = net.finish();
    assert_eq!(ints(&out, "x"), (0..N).collect::<Vec<_>>());
}

#[test]
fn slow_stage_holds_depth_at_bound_for_whole_run() {
    const BOUND: usize = 16;
    const N: i64 = 600;
    for (name, exec) in executors() {
        let net = NetBuilder::from_source(
            "box fast (x) -> (x);
             box slow (x) -> (x);
             net main = fast .. slow .. fast;",
        )
        .unwrap()
        .bind("fast", |r, e| e.emit(r.clone()))
        .bind("slow", |r, e| {
            std::thread::sleep(Duration::from_micros(200));
            e.emit(r.clone());
        })
        .executor(exec)
        .fuse(false)
        .bound(BOUND)
        .build("main")
        .unwrap();

        std::thread::scope(|s| {
            let driver = s.spawn(|| {
                for i in 0..N {
                    net.send(Record::build().field("x", i).finish()).unwrap();
                }
            });
            // Probe repeatedly *during* the run: a bound that only holds
            // at quiescence would pass a single end-of-run check.
            for _ in 0..20 {
                std::thread::sleep(Duration::from_millis(5));
                let d = net.metrics().max_matching("stream_depth");
                assert!(
                    d as usize <= BOUND,
                    "{name}: depth {d} exceeded bound {BOUND}"
                );
            }
            driver.join().unwrap();
        });
        let metrics = Arc::clone(net.metrics());
        let out = net.finish();
        assert_eq!(ints(&out, "x"), (0..N).collect::<Vec<_>>(), "{name}");
        assert!(metrics.max_matching("stream_depth") as usize <= BOUND);
        // The slow edge stalled its producer many times — the counter is
        // the observability contract for diagnosing this in production.
        assert!(
            metrics.get("runtime/credit_stalls") > 0,
            "{name}: a 200µs/record stage behind a fast producer must stall credits"
        );
    }
}

#[test]
fn amplifying_chain_fan_729_stays_bounded() {
    const BOUND: usize = 32;
    const N: i64 = 24; // 24 × 3^6 = 17,496 output records.
    for (name, exec) in executors() {
        let net = NetBuilder::from_source(
            "box amp (x) -> (x);
             net main = amp .. amp .. amp .. amp .. amp .. amp;",
        )
        .unwrap()
        .bind("amp", |r, e| {
            let x = r.field("x").unwrap().as_int().unwrap();
            for i in 0..3i64 {
                e.emit(Record::build().field("x", x * 3 + i).finish());
            }
        })
        .executor(exec)
        .fuse(false)
        .bound(BOUND)
        .build("main")
        .unwrap();

        for i in 0..N {
            net.send(Record::build().field("x", i).finish()).unwrap();
        }
        let metrics = Arc::clone(net.metrics());
        let out = net.finish();
        assert_eq!(out.len(), (N as usize) * 729, "{name}");

        // Interior queues never held more than the bound, even while each
        // stage was emitting three records per input. Unbounded, the final
        // edges would see thousands in flight.
        let high_water = metrics.max_matching("stream_depth");
        assert!(
            high_water as usize <= BOUND,
            "{name}: amplified depth {high_water} exceeded bound {BOUND}"
        );
        assert!(metrics.get("runtime/stream_depth") > 0);
    }
}

/// The determinism contract: bounding is invisible in the output.
/// One det-parallel/det-split net, driven identically bounded and
/// unbounded across {thread-per-component, pool(1), pool(2)} ×
/// {fused, unfused}; every leg must produce the byte-identical
/// record sequence.
#[test]
fn det_output_identical_bounded_vs_unbounded_across_executors() {
    let build = |bound: Option<usize>, fuse: bool, exec: Arc<dyn Executor>| -> Net {
        let mut b = NetBuilder::from_source(
            "box rep (x, <c>) -> (y);
             box sink (y) -> (y);
             net main = ((rep | rep) ! <k>) .. sink .. sink;",
        )
        .unwrap()
        .bind("rep", |rec, em| {
            let x = rec.field("x").unwrap().as_int().unwrap();
            let c = rec.tag("c").unwrap();
            for i in 0..c {
                em.emit(Record::build().field("y", x * 10 + i).finish());
            }
        })
        .bind("sink", |r, e| e.emit(r.clone()))
        .executor(exec)
        .fuse(fuse);
        // `None` must be an explicit opt-out: since PR 7 the process
        // default is bounded (DEFAULT_STREAM_BOUND), so omitting
        // `.bound()` would no longer give this leg unbounded edges.
        b = match bound {
            Some(n) => b.bound(n),
            None => b.unbounded(),
        };
        b.build("main").unwrap()
    };
    let drive = |net: Net| -> Vec<i64> {
        for i in 0..400i64 {
            net.send(
                Record::build()
                    .field("x", i)
                    .tag("c", 1 + i % 3)
                    .tag("k", i % 5)
                    .finish(),
            )
            .unwrap();
        }
        ints(&net.finish(), "y")
    };

    let reference = drive(build(None, true, Arc::new(ThreadPerComponent)));
    let want: i64 = (0..400i64).map(|i| 1 + i % 3).sum();
    assert_eq!(reference.len() as i64, want);

    type MkExec = Box<dyn Fn() -> Arc<dyn Executor>>;
    let executors: Vec<(&str, MkExec)> = vec![
        ("threads", Box::new(|| Arc::new(ThreadPerComponent))),
        ("pool(1)", Box::new(|| Arc::new(WorkStealingPool::new(1)))),
        ("pool(2)", Box::new(|| Arc::new(WorkStealingPool::new(2)))),
    ];
    for (name, mk) in &executors {
        for fuse in [true, false] {
            for bound in [None, Some(4), Some(64)] {
                let got = drive(build(bound, fuse, mk()));
                assert_eq!(
                    got, reference,
                    "{name} fuse={fuse} bound={bound:?} diverged from reference"
                );
            }
        }
    }
}

/// Liveness under a randomized stall/resume schedule: a middle stage
/// sleeps pseudo-randomly (LCG, fixed seed) while the driver sends in
/// randomized bursts with pauses in between, against tiny bounds and
/// every executor. A deadlock in the credit machinery would hang the
/// run; the watchdog converts that into a failure.
#[test]
fn randomized_stall_resume_schedule_never_deadlocks() {
    fn run_leg(exec: Arc<dyn Executor>, fuse: bool, bound: usize, seed: u64) -> Vec<i64> {
        let stall_seed = Arc::new(AtomicUsize::new(seed as usize));
        let net = NetBuilder::from_source(
            "box jitter (x) -> (x);
             box relay (x) -> (x);
             net main = relay .. jitter .. relay;",
        )
        .unwrap()
        .bind("relay", |r, e| e.emit(r.clone()))
        .bind("jitter", move |r, e| {
            // Per-record LCG step: ~1 in 8 records stalls 0–400µs.
            let s = stall_seed
                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |s| {
                    Some(
                        s.wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407),
                    )
                })
                .unwrap();
            if s.is_multiple_of(8) {
                std::thread::sleep(Duration::from_micros((s as u64 >> 33) % 400));
            }
            e.emit(r.clone());
        })
        .executor(exec)
        .fuse(fuse)
        .bound(bound)
        .build("main")
        .unwrap();

        let mut lcg = seed | 1;
        let mut sent = 0i64;
        while sent < 500 {
            lcg = lcg
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let burst = 1 + (lcg >> 40) % 30;
            for _ in 0..burst {
                if sent >= 500 {
                    break;
                }
                net.send(Record::build().field("x", sent).finish()).unwrap();
                sent += 1;
            }
            if lcg.is_multiple_of(4) {
                std::thread::sleep(Duration::from_micros((lcg >> 20) % 300));
            }
        }
        ints(&net.finish(), "x")
    }

    let (done_tx, done_rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let mut seed = 0x5eed_u64;
        for fuse in [true, false] {
            for bound in [2usize, 7, 64] {
                seed = seed.wrapping_add(0x9e3779b97f4a7c15);
                let want: Vec<i64> = (0..500).collect();
                assert_eq!(
                    run_leg(Arc::new(ThreadPerComponent), fuse, bound, seed),
                    want,
                    "threads fuse={fuse} bound={bound}"
                );
                for workers in [1, 2] {
                    assert_eq!(
                        run_leg(Arc::new(WorkStealingPool::new(workers)), fuse, bound, seed),
                        want,
                        "pool({workers}) fuse={fuse} bound={bound}"
                    );
                }
            }
        }
        done_tx.send(()).unwrap();
    });
    done_rx
        .recv_timeout(Duration::from_secs(240))
        .expect("stall/resume schedule deadlocked (watchdog expired)");
}

#[test]
fn shed_policy_rejects_overflow_and_delivers_the_rest() {
    const BOUND: usize = 4;
    let latch = Latch::new();
    let arrived = Arc::new(AtomicUsize::new(0));
    let net = NetBuilder::from_source(
        "box gate (x) -> (x);
         net main = gate;",
    )
    .unwrap()
    .bind("gate", {
        let latch = Arc::clone(&latch);
        let arrived = Arc::clone(&arrived);
        move |r, e| {
            arrived.fetch_add(1, Ordering::SeqCst);
            latch.wait();
            e.emit(r.clone());
        }
    })
    .executor(Arc::new(ThreadPerComponent))
    .bound(BOUND)
    .overload(OverloadPolicy::Shed)
    .build("main")
    .unwrap();

    // Let the gate adopt its one in-flight record so acceptance counts
    // are stable, then flood. Accepted + shed must partition the sends.
    let mut accepted = Vec::new();
    let mut shed = 0usize;
    for i in 0..200i64 {
        match net.send(Record::build().field("x", i).finish()) {
            Ok(()) => accepted.push(i),
            Err(SendRejected::Overloaded) => shed += 1,
            Err(e) => panic!("unexpected rejection: {e}"),
        }
    }
    assert!(shed > 0, "a stalled consumer behind bound 4 must shed");
    assert!(
        accepted.len() <= BOUND + 2,
        "accepted {} records into a stalled bound-{BOUND} net",
        accepted.len()
    );

    latch.release();
    let out = net.finish();
    // Exactly the accepted records arrive, in order — shedding never
    // drops an accepted record and never lets a shed one through.
    assert_eq!(ints(&out, "x"), accepted);
}

#[test]
fn timeout_policy_gives_up_after_deadline_then_recovers() {
    const BOUND: usize = 2;
    let latch = Latch::new();
    let net = NetBuilder::from_source(
        "box gate (x) -> (x);
         net main = gate;",
    )
    .unwrap()
    .bind("gate", {
        let latch = Arc::clone(&latch);
        move |r, e| {
            latch.wait();
            e.emit(r.clone());
        }
    })
    .executor(Arc::new(ThreadPerComponent))
    .bound(BOUND)
    .overload(OverloadPolicy::Timeout(Duration::from_millis(40)))
    .build("main")
    .unwrap();

    let mut accepted = Vec::new();
    let mut timed_out = 0usize;
    let mut waited = Duration::ZERO;
    for i in 0..10i64 {
        let t0 = Instant::now();
        match net.send(Record::build().field("x", i).finish()) {
            Ok(()) => accepted.push(i),
            Err(SendRejected::Timeout) => {
                timed_out += 1;
                waited = t0.elapsed();
            }
            Err(e) => panic!("unexpected rejection: {e}"),
        }
    }
    assert!(timed_out > 0, "bound-2 stalled net must time sends out");
    assert!(
        waited >= Duration::from_millis(40),
        "timed-out send returned after {waited:?}, before the deadline"
    );
    assert!(
        waited < Duration::from_secs(5),
        "timed-out send blocked {waited:?}, way past the deadline"
    );

    // Once the fault clears, the same net accepts traffic again.
    latch.release();
    while net.send(Record::build().field("x", 100).finish()).is_err() {
        std::thread::sleep(Duration::from_millis(1));
    }
    let out = net.finish();
    let got = ints(&out, "x");
    assert_eq!(&got[..accepted.len()], &accepted[..]);
    assert_eq!(*got.last().unwrap(), 100);
}
