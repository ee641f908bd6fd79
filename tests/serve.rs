//! The serve layer's correlation contract, across the executor ×
//! fusion matrix.
//!
//! What PR 7's front door promises: every response reaches exactly
//! the caller whose request produced it — out of order across a
//! nondet merge, several records per request, a hundred-plus
//! concurrent callers on one net — and the reserved `#rid` tag that
//! makes it work is neither forgeable nor observable from outside.
//! Ingress overload (`Shed`/`Timeout`) surfaces as typed errors at
//! the `Service::call` boundary, and deterministic combinators keep
//! their byte-identity guarantee behind the front door.

use snet_runtime::sched::{Completion, TaskFuture};
use snet_runtime::{
    CallError, CallOpts, ChaosConfig, Emitter, Executor, FaultPolicy, Net, NetBuilder,
    OverloadPolicy, SendRejected, Service, ThreadPerComponent, WorkStealingPool,
};
use snet_types::{Label, Record};
use std::future::Future;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::task::{Context, Poll, Wake, Waker};
use std::time::{Duration, Instant};

/// The {threads, pool(2)} × {fused, unfused} matrix every correlation
/// scenario runs under. Executors are built fresh per leg (a pool is
/// tied to the nets spawned on it).
fn matrix() -> Vec<(String, Arc<dyn Executor>, bool)> {
    let mut legs: Vec<(String, Arc<dyn Executor>, bool)> = Vec::new();
    for fuse in [true, false] {
        legs.push((
            format!("threads/fuse={fuse}"),
            Arc::new(ThreadPerComponent) as Arc<dyn Executor>,
            fuse,
        ));
        legs.push((
            format!("pool(2)/fuse={fuse}"),
            Arc::new(WorkStealingPool::new(2)) as Arc<dyn Executor>,
            fuse,
        ));
    }
    legs
}

/// `slow (a) -> (r)` sleeps; `fast (b) -> (r)` doesn't. Type-routed
/// nondet parallel: completions cross each other on the output edge.
/// Replica fusion would run both branches inline in arrival order
/// (a valid nondet interleaving, but no crossing), so this test pins
/// the concurrent-branch topology with the escape hatch.
fn slow_fast_net(exec: Arc<dyn Executor>, fuse: bool) -> Net {
    NetBuilder::from_source(
        "box slow (a) -> (r);
         box fast (b) -> (r);
         net main = slow || fast;",
    )
    .unwrap()
    .fuse_fan(false)
    .bind("slow", |rec, em| {
        std::thread::sleep(Duration::from_millis(60));
        let a = rec.field("a").unwrap().as_int().unwrap();
        em.emit(Record::build().field("r", a).finish());
    })
    .bind("fast", |rec, em| {
        let b = rec.field("b").unwrap().as_int().unwrap();
        em.emit(Record::build().field("r", b).finish());
    })
    .executor(exec)
    .fuse(fuse)
    .build("main")
    .unwrap()
}

#[test]
fn out_of_order_completions_across_nondet_merge() {
    for (leg, exec, fuse) in matrix() {
        let svc = Service::start(slow_fast_net(exec, fuse));
        let slow = svc
            .call(Record::build().field("a", 111i64).finish())
            .unwrap();
        let fast = svc
            .call(Record::build().field("b", 222i64).finish())
            .unwrap();
        // The fast response overtakes the slow one on the shared
        // output edge; each must still land in its own slot.
        let fast_resp = fast.wait().unwrap();
        let slow_resp = slow.wait().unwrap();
        assert_eq!(
            fast_resp.records[0].field("r").unwrap().as_int(),
            Some(222),
            "{leg}: fast response must carry the fast request's payload"
        );
        assert_eq!(
            slow_resp.records[0].field("r").unwrap().as_int(),
            Some(111),
            "{leg}: slow response must carry the slow request's payload"
        );
        assert!(
            fast_resp.completed_at <= slow_resp.completed_at,
            "{leg}: completions crossed on the wire"
        );
        svc.shutdown();
    }
}

#[test]
fn multi_record_responses_resolve_once_complete() {
    for (leg, exec, fuse) in matrix() {
        let net = NetBuilder::from_source(
            "box fan (x) -> (y);
             net main = fan;",
        )
        .unwrap()
        .bind("fan", |rec, em| {
            let x = rec.field("x").unwrap().as_int().unwrap();
            for i in 0..3 {
                em.emit(Record::build().field("y", x * 10 + i).finish());
            }
        })
        .executor(exec)
        .fuse(fuse)
        .build("main")
        .unwrap();
        let svc = Service::start(net);
        let handles: Vec<_> = (0..20i64)
            .map(|x| {
                svc.call_with(
                    Record::build().field("x", x).finish(),
                    CallOpts {
                        expect: 3,
                        policy: None,
                    },
                )
                .unwrap()
            })
            .collect();
        for (x, h) in handles.into_iter().enumerate() {
            let resp = h.wait().unwrap();
            let ys: Vec<i64> = resp
                .records
                .iter()
                .map(|r| r.field("y").unwrap().as_int().unwrap())
                .collect();
            let x = x as i64;
            assert_eq!(
                ys,
                vec![x * 10, x * 10 + 1, x * 10 + 2],
                "{leg}: all three records of request {x}, in emission order"
            );
        }
        svc.shutdown();
    }
}

#[test]
fn hundred_plus_concurrent_callers_each_get_their_own_response() {
    for (leg, exec, fuse) in matrix() {
        let net = NetBuilder::from_source(
            "box echo (x) -> (x);
             net main = echo;",
        )
        .unwrap()
        .bind("echo", |rec, em| em.emit(rec.clone()))
        .executor(exec)
        .fuse(fuse)
        .build("main")
        .unwrap();
        let svc = Service::start(net);
        std::thread::scope(|s| {
            let svc = &svc;
            let callers: Vec<_> = (0..128i64)
                .map(|k| {
                    s.spawn(move || {
                        let resp = svc
                            .call(Record::build().field("x", k).finish())
                            .unwrap()
                            .wait()
                            .unwrap();
                        resp.records[0].field("x").unwrap().as_int().unwrap()
                    })
                })
                .collect();
            for (k, c) in callers.into_iter().enumerate() {
                assert_eq!(
                    c.join().unwrap(),
                    k as i64,
                    "{leg}: caller {k} got another caller's response"
                );
            }
        });
        svc.shutdown();
    }
}

/// A net whose single box parks on a gate until released: ingress
/// bound 1 fills deterministically, so `Shed` and `Timeout` rejections
/// are observable at the call surface without racing the box.
#[test]
fn shed_and_timeout_surface_at_call() {
    let gate = Arc::new(AtomicBool::new(false));
    let started = Arc::new(AtomicBool::new(false));
    let (gate_box, started_box) = (Arc::clone(&gate), Arc::clone(&started));
    let net = NetBuilder::from_source(
        "box slow (x) -> (y);
         net main = slow;",
    )
    .unwrap()
    .bind("slow", move |rec, em| {
        started_box.store(true, Ordering::Release);
        while !gate_box.load(Ordering::Acquire) {
            std::thread::sleep(Duration::from_millis(1));
        }
        let x = rec.field("x").unwrap().as_int().unwrap();
        em.emit(Record::build().field("y", x).finish());
    })
    .bound_for("ingress", 1)
    .build("main")
    .unwrap();
    let svc = Service::start(net);
    let shed = CallOpts {
        expect: 1,
        policy: Some(OverloadPolicy::Shed),
    };
    // Fill deterministically: request A is popped by the box (popping
    // returns the ingress credit) which then parks on the gate; once
    // `started` is up the box cannot pop again, so request B occupies
    // the capacity-1 ingress for good and request C must shed.
    let mut accepted = Vec::new();
    let a = svc
        .call_with(Record::build().field("x", 0i64).finish(), shed)
        .expect("A fits an empty ingress");
    accepted.push((0i64, a));
    while !started.load(Ordering::Acquire) {
        std::thread::sleep(Duration::from_millis(1));
    }
    let b = svc
        .call_with(Record::build().field("x", 1i64).finish(), shed)
        .expect("B fits: the box drained A before parking");
    accepted.push((1i64, b));
    match svc.call_with(Record::build().field("x", 2i64).finish(), shed) {
        Err(CallError::Rejected(SendRejected::Overloaded)) => {}
        other => panic!("expected shed on the full ingress, got {other:?}"),
    }
    // A timeout call against the still-full ingress gives up with the
    // typed Timeout rejection.
    let t0 = Instant::now();
    match svc.call_with(
        Record::build().field("x", 99i64).finish(),
        CallOpts {
            expect: 1,
            policy: Some(OverloadPolicy::Timeout(Duration::from_millis(30))),
        },
    ) {
        Err(CallError::Rejected(SendRejected::Timeout)) => {}
        other => panic!("expected Timeout rejection, got {other:?}"),
    }
    assert!(
        t0.elapsed() >= Duration::from_millis(25),
        "timeout returned early"
    );
    // Release the box: everything accepted completes, correlated.
    gate.store(true, std::sync::atomic::Ordering::Release);
    for (i, h) in accepted {
        let resp = h.wait().unwrap();
        assert_eq!(resp.records[0].field("y").unwrap().as_int(), Some(i));
    }
    svc.shutdown();
}

/// Deterministic combinators behind the front door: per-request
/// response sequences are byte-identical across every executor ×
/// fusion leg, even with 8 callers racing.
#[test]
fn det_byte_identity_per_request_across_matrix() {
    let run_leg = |exec: Arc<dyn Executor>, fuse: bool| -> Vec<Vec<i64>> {
        let net = NetBuilder::from_source(
            "box rep (x, <c>) -> (y);
             box sink (y) -> (y);
             net main = ((rep | rep) ! <k>) .. sink;",
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
        .fuse(fuse)
        .build("main")
        .unwrap();
        let svc = Service::start(net);
        const N: usize = 200;
        let mut out: Vec<Vec<i64>> = vec![Vec::new(); N];
        std::thread::scope(|s| {
            let svc = &svc;
            let threads: Vec<_> = (0..8usize)
                .map(|t| {
                    s.spawn(move || {
                        let mut mine = Vec::new();
                        let mut i = t;
                        while i < N {
                            let c = 1 + (i as i64) % 3;
                            let h = svc
                                .call_with(
                                    Record::build()
                                        .field("x", i as i64)
                                        .tag("c", c)
                                        .tag("k", (i as i64) % 5)
                                        .finish(),
                                    CallOpts {
                                        expect: c as usize,
                                        policy: None,
                                    },
                                )
                                .unwrap();
                            mine.push((i, h));
                            i += 8;
                        }
                        mine.into_iter()
                            .map(|(i, h)| {
                                let ys = h
                                    .wait()
                                    .unwrap()
                                    .records
                                    .iter()
                                    .map(|r| r.field("y").unwrap().as_int().unwrap())
                                    .collect::<Vec<_>>();
                                (i, ys)
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            for t in threads {
                for (i, ys) in t.join().unwrap() {
                    out[i] = ys;
                }
            }
        });
        svc.shutdown();
        out
    };

    let reference = run_leg(Arc::new(ThreadPerComponent), true);
    for (i, ys) in reference.iter().enumerate() {
        let want: Vec<i64> = (0..1 + (i as i64) % 3)
            .map(|j| (i as i64) * 10 + j)
            .collect();
        assert_eq!(ys, &want, "request {i}: det emission order");
    }
    for (leg, exec, fuse) in matrix() {
        let got = run_leg(exec, fuse);
        assert_eq!(
            got, reference,
            "{leg}: det byte-identity behind the front door"
        );
    }
}

/// 10k requests, 8 concurrent callers, zero lost or misrouted — the
/// acceptance criterion as a test (closed-loop so it stays fast in
/// CI; the benchmark's `serve-*` workloads drive the door paced).
#[test]
fn ten_thousand_requests_fully_correlated() {
    let net = NetBuilder::from_source(
        "box echo (x) -> (x);
         net main = echo;",
    )
    .unwrap()
    .bind("echo", |rec, em| em.emit(rec.clone()))
    .build("main")
    .unwrap();
    let svc = Service::start(net);
    const TOTAL: usize = 10_000;
    std::thread::scope(|s| {
        let svc = &svc;
        let threads: Vec<_> = (0..8usize)
            .map(|t| {
                s.spawn(move || {
                    let mut i = t;
                    while i < TOTAL {
                        let resp = svc
                            .call(Record::build().field("x", i as i64).finish())
                            .unwrap()
                            .wait()
                            .unwrap();
                        assert_eq!(
                            resp.records[0].field("x").unwrap().as_int(),
                            Some(i as i64),
                            "response {i} misrouted"
                        );
                        i += 8;
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
    });
    let m = Arc::clone(svc.metrics());
    svc.shutdown();
    assert_eq!(m.get("serve/requests"), TOTAL as u64);
    assert_eq!(m.get("serve/completed"), TOTAL as u64);
    assert_eq!(m.get("serve/stray"), 0);
}

/// Sequential callers recycle completion slots: after the first call
/// resolves and its handle drops, the demux-parked slot serves the
/// next request instead of a fresh allocation.
#[test]
fn sequential_calls_reuse_completion_slots() {
    let net = NetBuilder::from_source(
        "box echo (x) -> (x);
         net main = echo;",
    )
    .unwrap()
    .bind("echo", |rec, em| em.emit(rec.clone()))
    .build("main")
    .unwrap();
    let svc = Service::start(net);
    const N: i64 = 50;
    for i in 0..N {
        let resp = svc
            .call(Record::build().field("x", i).finish())
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(resp.records[0].field("x").unwrap().as_int(), Some(i));
    }
    let m = Arc::clone(svc.metrics());
    svc.shutdown();
    let reused = m.get("serve/slot_reuse");
    assert!(
        reused > 0,
        "strictly sequential calls never hit the slot free list"
    );
    assert!(reused < N as u64, "more reuses than calls");
    assert_eq!(m.get("serve/completed"), N as u64);
}

#[test]
fn reserved_tag_cannot_be_forged_or_observed() {
    let net = NetBuilder::from_source(
        "box echo (x) -> (x);
         net main = echo;",
    )
    .unwrap()
    .bind("echo", |rec, em| {
        // The box sees no reserved label: flow inheritance split it
        // off before this closure ran.
        assert!(
            !rec.labels().any(|l| l.name().starts_with('#')),
            "box must never observe a reserved label"
        );
        em.emit(rec.clone())
    })
    .build("main")
    .unwrap();
    let svc = Service::start(net);
    // Forging: a record already carrying #rid (as tag or field) is
    // rejected before it reaches the net.
    let mut forged = Record::build().field("x", 1i64).finish();
    forged.set_tag("#rid", 7);
    assert!(matches!(svc.call(forged), Err(CallError::ReservedTag)));
    // Type mismatches still surface as the boundary error, not a hang.
    assert!(matches!(
        svc.call(Record::build().field("nope", 1i64).finish()),
        Err(CallError::Rejected(SendRejected::TypeMismatch { .. }))
    ));
    // Observing: the response carries no reserved label.
    let resp = svc
        .call(Record::build().field("x", 42i64).finish())
        .unwrap()
        .wait()
        .unwrap();
    assert!(!resp.records[0].has(Label::tag("#rid")));
    assert!(!resp.records[0].labels().any(|l| l.name().starts_with('#')));
    svc.shutdown();
}

/// Requests the net never answers: a deadline abandons them with the
/// typed error, and shutdown fails whatever is still pending.
#[test]
fn unanswered_requests_fail_typed_not_hang() {
    let net = NetBuilder::from_source(
        "box blackhole (x) -> (y);
         net main = blackhole;",
    )
    .unwrap()
    .bind("blackhole", |_rec, _em| {})
    .build("main")
    .unwrap();
    let svc = Service::start(net);
    let h = svc.call(Record::build().field("x", 1i64).finish()).unwrap();
    match h.wait_deadline(Instant::now() + Duration::from_millis(50)) {
        Err(CallError::Deadline) => {}
        other => panic!("expected Deadline, got {other:?}"),
    }
    let pending = svc.call(Record::build().field("x", 2i64).finish()).unwrap();
    let waiter = std::thread::spawn(move || pending.wait());
    svc.shutdown();
    match waiter.join().unwrap() {
        Err(CallError::ServiceStopped) => {}
        other => panic!("expected ServiceStopped, got {other:?}"),
    }
}

/// The `CallHandle` future surface: polling resolves without a
/// blocking wait (a minimal hand-rolled executor drives it).
#[test]
fn call_handle_is_a_future() {
    use std::sync::mpsc;

    struct Notify(mpsc::Sender<()>);
    impl Wake for Notify {
        fn wake(self: Arc<Self>) {
            let _ = self.0.send(());
        }
    }

    let net = NetBuilder::from_source(
        "box echo (x) -> (x);
         net main = echo;",
    )
    .unwrap()
    .bind("echo", |rec, em| {
        std::thread::sleep(Duration::from_millis(20));
        em.emit(rec.clone())
    })
    .build("main")
    .unwrap();
    let svc = Service::start(net);
    let mut h = Box::pin(svc.call(Record::build().field("x", 5i64).finish()).unwrap());
    let (tx, rx) = mpsc::channel();
    let waker = Waker::from(Arc::new(Notify(tx)));
    let mut cx = Context::from_waker(&waker);
    let resp = loop {
        match h.as_mut().poll(&mut cx) {
            Poll::Ready(r) => break r.unwrap(),
            Poll::Pending => rx.recv_timeout(Duration::from_secs(5)).expect("woken"),
        }
    };
    assert_eq!(resp.records[0].field("x").unwrap().as_int(), Some(5));
    svc.shutdown();
}

/// A caller that dies between `call` and `wait` takes nothing with
/// it: no lock of the door is held across user code, unwinding drops
/// the handle, and a dropped handle abandons its request and frees its
/// slot — the next caller is issued that very slot and must still get
/// only its own answer.
#[test]
fn a_caller_panicking_mid_call_neither_poisons_the_door_nor_leaks_its_slot() {
    // The net holds request 1 back until the test lets go, so its
    // answer is late by construction, not by a sleep.
    let go = Arc::new(AtomicBool::new(false));
    let gate = Arc::clone(&go);
    let net = NetBuilder::from_source("box echo (x) -> (x); net main = echo;")
        .unwrap()
        .bind("echo", move |rec, em| {
            while rec.field("x").unwrap().as_int() == Some(1) && !gate.load(Ordering::Acquire) {
                std::thread::sleep(Duration::from_millis(1));
            }
            em.emit(rec.clone())
        })
        .build("main")
        .unwrap();
    let svc = Service::start(net);
    let x = |x: i64| Record::build().field("x", x).finish();
    let died = std::thread::scope(|s| {
        s.spawn(|| {
            let _open = svc.call(x(1)).unwrap();
            panic!("caller bug (expected by this test)");
        })
        .join()
    });
    assert!(died.is_err());
    assert_eq!(
        svc.inflight(),
        0,
        "the unwinding caller's request is closed"
    );
    go.store(true, Ordering::Release);
    let resp = svc.call(x(2)).unwrap().wait().unwrap();
    assert_eq!(resp.records[0].field("x").unwrap().as_int(), Some(2));
    let m = Arc::clone(svc.metrics());
    svc.shutdown();
    assert_eq!(
        m.get("serve/slot_reuse"),
        1,
        "the dead caller's slot was reissued"
    );
    assert_eq!(m.get("serve/stray"), 1, "its late answer reached nobody");
    assert_eq!(m.get("serve/completed"), 1);
}

/// Emits `<n>` records `r = 10 * id + j` for the request payload `id`
/// under `field`: a response names the request it belongs to.
fn emit_n(field: &str, rec: &Record, em: &mut Emitter) {
    let id = rec.field(field).unwrap().as_int().unwrap();
    for j in 0..rec.tag("n").unwrap() {
        em.emit(Record::build().field("r", id * 10 + j).finish());
    }
}

fn rs(records: &[Record]) -> Vec<i64> {
    let r = |rec: &Record| rec.field("r").unwrap().as_int().unwrap();
    records.iter().map(r).collect()
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let z = (*state ^ (*state >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Slot reuse is the door's ABA risk: a slot abandoned at a deadline
/// is reissued at once (last freed, first reissued) while the old
/// request's records are still inside the net. Eight callers mix one-
/// and three-record requests over the slow‖fast net, give up on some
/// after a deadline shorter than `slow`, drop some handles unwaited,
/// and lose some records to seeded `SkipRecord` chaos. Every answer
/// that arrives must be exactly its own request's, every late one must
/// count as stray, and nothing may stay in flight.
#[test]
fn reissued_slots_never_receive_their_previous_requests_records() {
    const CALLERS: u64 = 8;
    const PER_CALLER: u64 = 150;
    // CI pins SNET_CHAOS_SEED; locally the default replays the same run.
    let seed: u64 = std::env::var("SNET_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0x51075);
    let net = NetBuilder::from_source(
        "box slow (a, <n>) -> (r);
         box fast (b, <n>) -> (r);
         net main = slow || fast;",
    )
    .unwrap()
    .fuse_fan(false)
    .bind("slow", |rec, em| {
        std::thread::sleep(Duration::from_micros(400));
        emit_n("a", rec, em)
    })
    .bind("fast", |rec, em| emit_n("b", rec, em))
    .fault_policy(FaultPolicy::SkipRecord)
    .chaos(ChaosConfig::new(seed, 0.02))
    .build("main")
    .unwrap();
    let svc = Service::start(net);

    // What the callers saw: [completed, abandoned, faulted], and every
    // request id issued.
    let (seen, mut rids): ([u64; 3], Vec<u64>) = std::thread::scope(|s| {
        let svc = &svc;
        let callers: Vec<_> = (0..CALLERS)
            .map(|t| {
                s.spawn(move || {
                    let mut rng = seed ^ (t + 1).wrapping_mul(0xA076_1D64_78BD_642F);
                    let (mut ok, mut abandoned, mut faulted) = (0u64, 0u64, 0u64);
                    let mut rids = Vec::new();
                    for i in 0..PER_CALLER {
                        let id = (t * PER_CALLER + i) as i64;
                        let r = splitmix(&mut rng);
                        let expect = if r & 1 == 0 { 1 } else { 3 };
                        let field = if r & 2 == 0 { "a" } else { "b" };
                        let req = Record::build().field(field, id).tag("n", expect).finish();
                        let opts = CallOpts {
                            expect: expect as usize,
                            policy: None,
                        };
                        let h = svc.call_with(req, opts).unwrap();
                        rids.push(h.rid());
                        let patience = match (r >> 2) % 4 {
                            0 => {
                                drop(h);
                                abandoned += 1;
                                continue;
                            }
                            1 => Duration::from_micros((r >> 8) % 1_500),
                            // A wait that must end: a minute means a hang.
                            _ => Duration::from_secs(60),
                        };
                        match h.wait_deadline(Instant::now() + patience) {
                            Ok(resp) => {
                                let want: Vec<i64> = (0..expect).map(|j| id * 10 + j).collect();
                                assert_eq!(rs(&resp.records), want, "request {id} misrouted");
                                ok += 1;
                            }
                            Err(CallError::Deadline) => {
                                assert!(patience < Duration::from_secs(1), "request {id} hung");
                                abandoned += 1;
                            }
                            Err(CallError::Faulted { .. }) => faulted += 1,
                            Err(e) => panic!("request {id}: {e}"),
                        }
                    }
                    ([ok, abandoned, faulted], rids)
                })
            })
            .collect();
        let mut all = ([0; 3], Vec::new());
        for caller in callers {
            let (seen, rids) = caller.join().unwrap();
            (0..3).for_each(|k| all.0[k] += seen[k]);
            all.1.extend(rids);
        }
        all
    });
    assert_eq!(svc.inflight(), 0, "every request was closed by someone");
    let m = Arc::clone(svc.metrics());
    // Shutdown drains the net: every late record has met the demux.
    svc.shutdown();

    let [ok, abandoned, faulted] = seen;
    assert_eq!(ok + abandoned + faulted, CALLERS * PER_CALLER);
    rids.sort_unstable();
    rids.dedup();
    assert_eq!(
        rids.len() as u64,
        CALLERS * PER_CALLER,
        "a request id was issued twice"
    );
    assert_eq!(m.get("serve/requests"), CALLERS * PER_CALLER);
    assert!(
        abandoned > 0 && faulted > 0,
        "{abandoned} abandoned, {faulted} faulted"
    );
    assert!(m.get("serve/slot_reuse") >= CALLERS * (PER_CALLER - 1));
    // A request resolved after its caller last looked is completed (or
    // faulted) to the service and abandoned to the caller.
    assert!(m.get("serve/completed") >= ok);
    assert!(m.get("serve/faulted") >= faulted);
    let stray = m.get("serve/stray");
    assert!(stray > 0, "no abandoned request was answered late");
    assert!(
        stray <= 3 * abandoned,
        "{stray} stray from {abandoned} abandoned"
    );
}

/// A hand-cranked executor: tasks run only inside [`Crank::turn`], on
/// the calling thread, so a test decides when the net and the demux
/// make progress.
#[derive(Default)]
struct Crank {
    tasks: Mutex<Vec<(TaskFuture, Completion, Arc<Woken>)>>,
}

struct Woken(AtomicBool);

impl Wake for Woken {
    fn wake(self: Arc<Self>) {
        self.0.store(true, Ordering::SeqCst);
    }
}

impl Executor for Crank {
    fn spawn(&self, _name: String, fut: TaskFuture, done: Completion) {
        let woken = Arc::new(Woken(AtomicBool::new(true)));
        self.tasks.lock().unwrap().push((fut, done, woken));
    }
    fn kind(&self) -> &'static str {
        "crank"
    }
    fn os_thread_bound(&self) -> Option<usize> {
        Some(0)
    }
}

impl Crank {
    /// Polls every woken task until none is.
    fn turn(&self) {
        loop {
            let tasks = std::mem::take(&mut *self.tasks.lock().unwrap());
            let mut ran = false;
            for (mut fut, done, woken) in tasks {
                let mut finished = false;
                if woken.0.swap(false, Ordering::SeqCst) {
                    ran = true;
                    let waker = Waker::from(Arc::clone(&woken));
                    finished = fut
                        .as_mut()
                        .poll(&mut Context::from_waker(&waker))
                        .is_ready();
                }
                if finished {
                    done.complete(Ok(()));
                } else {
                    self.tasks.lock().unwrap().push((fut, done, woken));
                }
            }
            if !ran {
                return;
            }
        }
    }
}

/// One slot's life, every way round, against a model. With at most
/// one handle alive the table has one slot, so a sequence of requests
/// is a sequence of generations of it: issued → partial → done →
/// harvested or abandoned → reissued. An episode issues a request the
/// net answers with `emit` records while the caller expects `expect`,
/// optionally turns the crank (so the answer arrives before the
/// caller's end rather than after it), and ends the handle by a
/// harvest or a drop. Every pair of episodes, then a plain request on
/// the twice-used slot; the model says what each step must observe.
#[test]
fn one_slot_through_every_sequence_of_generations_matches_the_model() {
    #[derive(Clone, Copy, Debug)]
    struct Episode {
        emit: i64,
        expect: usize,
        turn: bool,
        harvest: bool,
    }
    let mut kinds = Vec::new();
    for (emit, expect) in [(0, 1), (1, 1), (2, 1), (1, 2), (2, 2), (3, 2)] {
        for (turn, harvest) in [(false, false), (false, true), (true, false), (true, true)] {
            kinds.push(Episode {
                emit,
                expect,
                turn,
                harvest,
            });
        }
    }
    let probe = Episode {
        emit: 1,
        expect: 1,
        turn: true,
        harvest: true,
    };
    for first in &kinds {
        for second in &kinds {
            let crank = Arc::new(Crank::default());
            let net = NetBuilder::from_source("box f (x, <n>) -> (r); net main = f;")
                .unwrap()
                .bind("f", |rec, em| emit_n("x", rec, em))
                .executor(Arc::clone(&crank) as Arc<dyn Executor>)
                .build("main")
                .unwrap();
            let svc = Service::start(net);
            let m = Arc::clone(svc.metrics());
            let seq = [*first, *second, probe];
            // The model: counters, and records still inside the net
            // whose request is already closed.
            let (mut completed, mut stray, mut ghosts) = (0u64, 0u64, 0u64);
            for (id, ep) in seq.iter().enumerate() {
                let ctx = format!("{seq:?} at {id}");
                let req = Record::build()
                    .field("x", id as i64)
                    .tag("n", ep.emit)
                    .finish();
                let opts = CallOpts {
                    expect: ep.expect,
                    policy: None,
                };
                let h = svc.call_with(req, opts).unwrap();
                assert_eq!(svc.inflight(), 1, "{ctx}");
                let mut done = false;
                if ep.turn {
                    crank.turn();
                    stray += ghosts;
                    ghosts = 0;
                    if ep.emit as usize >= ep.expect {
                        done = true;
                        completed += 1;
                        stray += ep.emit as u64 - ep.expect as u64;
                    }
                } else {
                    ghosts += ep.emit as u64;
                }
                assert_eq!(h.completed_at().is_some(), done, "{ctx}");
                assert_eq!(svc.inflight(), u64::from(!done), "{ctx}");
                if ep.harvest {
                    // A deadline of now never parks.
                    match h.wait_deadline(Instant::now()) {
                        Ok(resp) => {
                            let want: Vec<i64> =
                                (0..ep.expect).map(|j| (id * 10 + j) as i64).collect();
                            assert!(done, "{ctx}: answered before the net ran");
                            assert_eq!(rs(&resp.records), want, "{ctx}");
                        }
                        Err(CallError::Deadline) => assert!(!done, "{ctx}: lost its answer"),
                        Err(e) => panic!("{ctx}: {e}"),
                    }
                } else {
                    drop(h);
                }
                assert_eq!(svc.inflight(), 0, "{ctx}");
                assert_eq!(m.get("serve/completed"), completed, "{ctx}");
                assert_eq!(m.get("serve/stray"), stray, "{ctx}");
            }
            crank.turn();
            assert_eq!(m.get("serve/stray"), stray + ghosts, "{seq:?}");
            assert_eq!(m.get("serve/requests"), 3);
            assert_eq!(
                m.get("serve/slot_reuse"),
                2,
                "{seq:?}: one slot, three generations"
            );
        }
    }
}
