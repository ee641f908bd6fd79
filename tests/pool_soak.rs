//! Soak coverage for long-lived shared-pool use — the ROADMAP blocker
//! for flipping the default executor: one process pool must survive
//! *many* networks, sequential and concurrent, without leaking worker
//! threads, leaving tasks queued, or wedging on its run queues.
//!
//! The leak oracles:
//! * the pool's OS thread count never grows past the worker count
//!   (checked via `/proc/self/status` on Linux — thread-per-component
//!   nets spawned in between prove the probe actually moves);
//! * after every network has been `finish`ed, the pool's run queues
//!   are empty (`queued_tasks() == 0`) and every net's tracker went
//!   quiescent with the expected component count.
//!
//! What is bounded but never given back, and so not checked here: a
//! `Service`'s completion-slot table grows to the peak number of live
//! call handles and never shrinks (`snet_runtime::serve`, *Memory*) —
//! a long-lived service holds the slots of its busiest moment.

use snet_runtime::{Executor, Net, NetBuilder, WorkStealingPool};
use snet_types::Record;
use std::sync::{Arc, Mutex, MutexGuard};

/// Serialises the soak tests: both assert on the *process-wide*
/// `/proc/self/status` thread count, so running them concurrently
/// (libtest's default) would let one test's transient threads fail
/// the other's leak check.
static PROC_PROBE: Mutex<()> = Mutex::new(());

fn serialize_probe() -> MutexGuard<'static, ()> {
    PROC_PROBE.lock().unwrap_or_else(|e| e.into_inner())
}

/// Current OS thread count of this process (Linux); `None` elsewhere.
fn os_threads() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find(|l| l.starts_with("Threads:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|n| n.parse().ok())
}

fn pipeline_net(exec: Arc<dyn Executor>) -> Net {
    NetBuilder::from_source(
        "box inc (x) -> (x);
         net main = inc .. inc .. inc;",
    )
    .unwrap()
    .bind("inc", |r, e| {
        let x = r.field("x").unwrap().as_int().unwrap();
        e.emit(Record::build().field("x", x + 1).finish());
    })
    .executor(exec)
    .build("main")
    .unwrap()
}

fn split_net(exec: Arc<dyn Executor>) -> Net {
    NetBuilder::from_source(
        "box id (x, <k>) -> (x, <k>);
         net main = id ! <k>;",
    )
    .unwrap()
    .bind("id", |r, e| e.emit(r.clone()))
    .executor(exec)
    .build("main")
    .unwrap()
}

fn drive_pipeline(net: Net, n: i64) {
    for i in 0..n {
        net.send(Record::build().field("x", i).finish()).unwrap();
    }
    let out = net.finish();
    assert_eq!(out.len(), n as usize);
}

#[test]
fn shared_pool_survives_many_sequential_and_concurrent_nets() {
    let _serial = serialize_probe();
    let pool = Arc::new(WorkStealingPool::new(2));
    let exec: Arc<dyn Executor> = Arc::clone(&pool) as _;
    let baseline = os_threads();

    // Wave 1: many short-lived sequential nets, mixed shapes.
    for round in 0..40 {
        if round % 3 == 0 {
            let net = split_net(Arc::clone(&exec));
            for i in 0..60i64 {
                net.send(Record::build().field("x", i).tag("k", i % 6).finish())
                    .unwrap();
            }
            let out = net.finish();
            assert_eq!(out.len(), 60, "round {round}");
        } else {
            drive_pipeline(pipeline_net(Arc::clone(&exec)), 50);
        }
        assert_eq!(
            pool.queued_tasks(),
            0,
            "tasks left queued after round {round}"
        );
    }

    // Wave 2: concurrent nets sharing the same two workers, driven
    // from separate OS threads (the production shape: one long-lived
    // pool, many independent clients).
    std::thread::scope(|s| {
        for t in 0..6 {
            let exec = Arc::clone(&exec);
            s.spawn(move || {
                for _ in 0..5 {
                    let net = pipeline_net(Arc::clone(&exec));
                    for i in 0..40i64 {
                        net.send(Record::build().field("x", t * 1000 + i).finish())
                            .unwrap();
                    }
                    let out = net.finish();
                    assert_eq!(out.len(), 40);
                }
            });
        }
    });
    assert_eq!(pool.queued_tasks(), 0, "tasks left queued after soak");
    assert_eq!(pool.workers(), 2, "worker count drifted");

    // Flat OS thread count: the pool never grew past its two workers.
    // (The probe is process-wide; other test threads come and go, so
    // only assert on Linux and with slack for the harness itself.)
    if let (Some(before), Some(after)) = (baseline, os_threads()) {
        assert!(
            after <= before + 2,
            "thread leak: {before} OS threads before soak, {after} after"
        );
    }

    // The pool is still serviceable after the soak.
    drive_pipeline(pipeline_net(exec), 25);
}

/// Bounded nets on the shared pool: the backpressure gauges
/// (`stream_depth` high-water, `credit_stalls` park episodes) are the
/// operator-facing signal that a production pool is running against
/// its bounds. Soak a slow bounded pipeline and sample both — depth
/// must report, must respect the bound, and a consumer ~100× slower
/// than the ingress must register stalls.
#[test]
fn bounded_soak_reports_depth_and_stall_gauges() {
    const BOUND: usize = 4;
    let pool: Arc<dyn Executor> = Arc::new(WorkStealingPool::new(2));
    for round in 0..4 {
        let net = NetBuilder::from_source(
            "box inc (x) -> (x);
             box drag (x) -> (x);
             net main = inc .. drag;",
        )
        .unwrap()
        .bind("inc", |r, e| {
            let x = r.field("x").unwrap().as_int().unwrap();
            e.emit(Record::build().field("x", x + 1).finish());
        })
        .bind("drag", |r, e| {
            std::thread::sleep(std::time::Duration::from_micros(100));
            e.emit(r.clone());
        })
        .executor(Arc::clone(&pool))
        .fuse(false)
        .bound(BOUND)
        .build("main")
        .unwrap();
        for i in 0..300i64 {
            net.send(Record::build().field("x", i).finish()).unwrap();
        }
        let metrics = Arc::clone(net.metrics());
        let out = net.finish();
        assert_eq!(out.len(), 300, "round {round}");

        // Per-edge high-waters and the net-global mirror both report,
        // and no bounded edge ever exceeded its capacity.
        let depth = metrics.max_matching("stream_depth");
        assert!(depth > 0, "round {round}: no depth samples recorded");
        assert!(
            depth as usize <= BOUND,
            "round {round}: depth {depth} exceeded bound {BOUND}"
        );
        assert_eq!(metrics.get("runtime/stream_depth"), depth);
        assert!(
            metrics.get("runtime/credit_stalls") > 0,
            "round {round}: a 100µs/record consumer must stall its producer"
        );
        assert_eq!(
            metrics.sum_matching("credit_stalls"),
            metrics.get("runtime/credit_stalls") * 2,
            "round {round}: per-edge stalls must mirror into the global counter"
        );
    }
}

#[test]
fn shared_pool_outlives_thread_per_component_churn() {
    // Interleave pool nets with thread-per-component nets: the
    // dedicated threads must all be joined by finish(), returning the
    // process to its pre-net thread count while the pool idles.
    let _serial = serialize_probe();
    let pool = Arc::new(WorkStealingPool::new(2));
    let before = os_threads();
    for _ in 0..10 {
        let threads_exec: Arc<dyn Executor> = Arc::new(snet_runtime::ThreadPerComponent);
        drive_pipeline(pipeline_net(threads_exec), 30);
        drive_pipeline(pipeline_net(Arc::clone(&pool) as Arc<dyn Executor>), 30);
        assert_eq!(pool.queued_tasks(), 0);
    }
    if let (Some(b), Some(a)) = (before, os_threads()) {
        assert!(
            a <= b + 2,
            "component threads leaked across churn: {b} -> {a}"
        );
    }
}
