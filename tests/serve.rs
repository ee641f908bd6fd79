//! The serve layer's correlation contract, across the executor ×
//! fusion matrix.
//!
//! What PR 7's front door promises: every response reaches exactly
//! the caller whose request produced it — out of order across a
//! nondet merge, several records per request, a hundred-plus
//! concurrent callers on one net — and the request id that makes it
//! work, carried in the record's hidden correlation word, is neither
//! forgeable nor observable from outside.
//! Ingress overload (`Shed`/`Timeout`) surfaces as typed errors at
//! the `Service::call` boundary, and deterministic combinators answer
//! each request with the sequential reference's records behind the
//! front door. On a pool whose only worker is held, a waiting caller
//! runs its own request, and so does the FIFO door's receiver.

mod common {
    pub mod chaos;
    pub mod held;
    pub mod pools;
}

use common::chaos::Chaos;
use common::held::held_pool;
use common::pools::pools;
use snet_runtime::sched::{Completion, TaskFuture};
use snet_runtime::{
    oracle, Bindings, CallError, CallOpts, Emitter, Executor, FaultPolicy, Net, NetBuilder,
    OverloadPolicy, SendRejected, Service,
};
use snet_types::Record;
use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::task::{Context, Poll, Wake, Waker};
use std::time::{Duration, Instant};

/// The {pool(1), pool(2)} × {fused, unfused} matrix every correlation
/// scenario runs under. Executors are built fresh per leg (a pool is
/// tied to the nets spawned on it).
fn matrix() -> Vec<(String, Arc<dyn Executor>, bool)> {
    let legs = |fuse: bool| pools().map(|(name, exec)| (format!("{name}/fuse={fuse}"), exec, fuse));
    legs(true).into_iter().chain(legs(false)).collect()
}

/// `slow (a) -> (r)` sleeps; `fast (b) -> (r)` doesn't. Type-routed
/// nondet parallel: completions cross each other on the output edge.
/// Fusion would run both branches inline in arrival order (a valid
/// nondet interleaving, but no crossing), so this net is unfused on
/// every leg: the concurrent-branch topology.
fn slow_fast_net(exec: Arc<dyn Executor>) -> Net {
    NetBuilder::from_source(
        "box slow (a) -> (r);
         box fast (b) -> (r);
         net main = slow || fast;",
    )
    .unwrap()
    .fuse(false)
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
    .build("main")
    .unwrap()
}

#[test]
fn out_of_order_completions_across_nondet_merge() {
    // `slow` holds its worker while it sleeps, so `fast` can overtake it
    // only on a second one.
    let legs = matrix().into_iter();
    for (leg, exec, _) in legs.filter(|(leg, _, fuse)| !fuse && leg.starts_with("pool(2)")) {
        let svc = Service::start(slow_fast_net(exec));
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
    .bound(1)
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

/// Deterministic combinators behind the front door: each request's
/// response is the sequential reference's records for that request, on
/// every executor × fusion leg and at a tight and no stream bound, even
/// with 8 callers racing.
#[test]
fn det_byte_identity_per_request_across_matrix() {
    const SRC: &str = "box rep (x, <c>) -> (r);
                       box sink (r) -> (r);
                       net main = ((rep | rep) ! <k>) .. sink;";
    const N: usize = 200;
    fn rep(rec: &Record, em: &mut Emitter) {
        let x = rec.field("x").unwrap().as_int().unwrap();
        for i in 0..rec.tag("c").unwrap() {
            em.emit(Record::build().field("r", x * 10 + i).finish());
        }
    }
    fn sink(rec: &Record, em: &mut Emitter) {
        em.emit(rec.clone())
    }
    fn request(i: usize) -> Record {
        let rec = Record::build()
            .field("x", i as i64)
            .tag("c", 1 + (i as i64) % 3);
        rec.tag("k", (i as i64) % 5).finish()
    }
    let program = snet_lang::parse_program(SRC).unwrap();
    let (env, ast) = (program.env().unwrap(), &program.net("main").unwrap().body);
    let b = Bindings::new().bind("rep", rep).bind("sink", sink);
    let plan = snet_runtime::compile_cfg(ast, &env, &b, false).unwrap();
    let want: Vec<Vec<i64>> = (0..N)
        .map(|i| rs(&oracle::run(&plan, [request(i)]).unwrap().records))
        .collect();

    let run_leg = |exec: Arc<dyn Executor>, fuse: bool, bound: Option<usize>| -> Vec<Vec<i64>> {
        let net = NetBuilder::from_source(SRC)
            .unwrap()
            .bind("rep", rep)
            .bind("sink", sink)
            .executor(exec)
            .fuse(fuse);
        let net = match bound {
            Some(n) => net.bound(n),
            None => net.unbounded(),
        };
        let svc = Service::start(net.build("main").unwrap());
        let mut out: Vec<Vec<i64>> = vec![Vec::new(); N];
        std::thread::scope(|s| {
            let svc = &svc;
            let threads: Vec<_> = (0..8usize)
                .map(|t| {
                    s.spawn(move || {
                        let calls: Vec<_> = (t..N)
                            .step_by(8)
                            .map(|i| {
                                let expect = 1 + i % 3;
                                let opts = CallOpts {
                                    expect,
                                    policy: None,
                                };
                                (i, svc.call_with(request(i), opts).unwrap())
                            })
                            .collect();
                        calls
                            .into_iter()
                            .map(|(i, h)| (i, rs(&h.wait().unwrap().records)))
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

    let legs = matrix()
        .into_iter()
        .map(|(leg, exec, fuse)| (leg, exec, fuse, Some(128)));
    let bounds = [(false, Some(64)), (true, None)].map(|(fuse, bound)| {
        let [_, (name, exec)] = pools();
        (
            format!("{name}/fuse={fuse}/bound={bound:?}"),
            exec,
            fuse,
            bound,
        )
    });
    for (leg, exec, fuse, bound) in legs.chain(bounds) {
        let got = run_leg(exec, fuse, bound);
        assert_eq!(got, want, "{leg}: the reference behind the front door");
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
/// resolves and its handle drops, the slot it freed serves the
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

/// The request id rides on the record's hidden correlation word, and
/// the door owns both of its ends: a user tag named `#rid` is an
/// ordinary label, a word preset by the caller is overwritten, no box
/// taking a record on a non-identity plan and no response sees a word,
/// and a record skipped by a fault fails its own request through it.
#[test]
fn the_correlation_word_is_neither_forgeable_nor_observable() {
    for (leg, exec, fuse) in matrix() {
        // Box inputs that carried a nonzero word.
        let seen = Arc::new(AtomicUsize::new(0));
        let echo = |seen: &Arc<AtomicUsize>, poison: Option<i64>| {
            let seen = Arc::clone(seen);
            move |rec: &Record, em: &mut Emitter| {
                if rec.corr() != 0 {
                    seen.fetch_add(1, Ordering::SeqCst);
                }
                let x = rec.field("x").unwrap().as_int().unwrap();
                assert_ne!(Some(x), poison, "poison record");
                em.emit(rec.clone())
            }
        };
        let net = NetBuilder::from_source(
            "box echo (x) -> (x);
             box poison (x) -> (x);
             net main = echo .. poison;",
        )
        .unwrap()
        .fuse(fuse)
        .fault_policy(FaultPolicy::SkipRecord)
        .bind("echo", echo(&seen, None))
        .bind("poison", echo(&seen, Some(13)))
        .executor(exec)
        .build("main")
        .unwrap();
        let svc = Service::start(net);
        // The tag makes every box input a proper subtype of the record,
        // so both boxes see only the matched half.
        let req = |x: i64| Record::build().field("x", x).tag("#rid", 1000 + x).finish();
        // A word preset to another open request's id, and to junk, is
        // overwritten: each request is still answered to its caller.
        let first = svc.call(req(1)).unwrap();
        let mut forged = req(2);
        forged.set_corr(first.rid());
        let forged = svc.call(forged).unwrap();
        let mut junk = req(3);
        junk.set_corr(u64::MAX);
        let junk = svc.call(junk).unwrap();
        let mut handles = vec![(1, first), (2, forged), (3, junk)];
        handles.extend((4..32).map(|x| (x, svc.call(req(x)).unwrap())));
        let deadline = Instant::now() + Duration::from_secs(10);
        for (x, h) in handles {
            match h.wait_deadline(deadline) {
                Ok(resp) => {
                    assert_ne!(x, 13, "{leg}: the skipped request was answered");
                    // Untouched, `#rid` tag included, and no word.
                    assert_eq!(resp.records, vec![req(x)], "{leg}: request {x}");
                    assert_eq!(resp.records[0].corr(), 0, "{leg}: request {x}");
                }
                Err(CallError::Faulted { component, .. }) => {
                    assert_eq!(x, 13, "{leg}: request {x} faulted");
                    assert!(component.contains("poison"), "{leg}: {component}");
                }
                Err(e) => panic!("{leg}: request {x}: {e}"),
            }
        }
        // Type mismatches still surface as the boundary error.
        assert!(matches!(
            svc.call(Record::build().field("nope", 1i64).finish()),
            Err(CallError::Rejected(SendRejected::TypeMismatch { .. }))
        ));
        let m = Arc::clone(svc.metrics());
        svc.shutdown();
        assert_eq!(seen.load(Ordering::SeqCst), 0, "{leg}: a box saw a word");
        assert_eq!(m.get("serve/faulted"), 1, "{leg}");
        assert_eq!(m.get("serve/stray"), 0, "{leg}");
    }
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

/// A handle hands its outcome to the poll that sees it; polling it
/// again is a typed error, not a panic (its slot may serve another
/// request by then).
#[test]
fn a_resolved_handle_polled_again_is_a_typed_error() {
    let net = NetBuilder::from_source("box echo (x) -> (x); net main = echo;")
        .unwrap()
        .bind("echo", |rec, em| em.emit(rec.clone()))
        .build("main")
        .unwrap();
    let svc = Service::start(net);
    let mut h = svc.call(Record::build().field("x", 3i64).finish()).unwrap();
    let mut cx = Context::from_waker(Waker::noop());
    let deadline = Instant::now() + Duration::from_secs(10);
    let resp = loop {
        match Pin::new(&mut h).poll(&mut cx) {
            Poll::Ready(r) => break r.unwrap(),
            Poll::Pending => {
                assert!(Instant::now() < deadline, "never resolved");
                std::thread::sleep(Duration::from_millis(1));
            }
        }
    };
    assert_eq!(resp.records[0].field("x").unwrap().as_int(), Some(3));
    match Pin::new(&mut h).poll(&mut cx) {
        Poll::Ready(Err(e @ CallError::PolledAfterResolved)) => {
            assert_eq!(e.to_string(), "call handle polled after it resolved")
        }
        other => panic!("expected PolledAfterResolved, got {other:?}"),
    }
    assert_eq!(h.completed_at(), None);
    drop(h);
    // The service is untouched by the misuse.
    let again = svc.call(Record::build().field("x", 4i64).finish()).unwrap();
    assert_eq!(
        again.wait().unwrap().records[0]
            .field("x")
            .unwrap()
            .as_int(),
        Some(4)
    );
    assert_eq!(svc.metrics().get("serve/completed"), 2);
    svc.shutdown();
}

/// Records the net put out before `Service::start` carry no request id.
/// The box holds the middle one back until every caller has a request
/// in flight, so the rest meet the drains while calls race them on
/// other threads, and a drain a response's send starts can find one
/// running. Every early record counts as stray exactly once, every call
/// gets its own answer, and nothing panics.
#[test]
fn records_sent_before_start_go_stray_once_while_calls_race_the_first_drain() {
    const EARLY: i64 = 2_000;
    const CALLERS: usize = 4;
    const PER_CALLER: i64 = 100;
    for (leg, exec) in pools() {
        let calling = Arc::new(AtomicUsize::new(0));
        let gate = Arc::clone(&calling);
        let net = NetBuilder::from_source("box echo (x) -> (x); net main = echo;")
            .unwrap()
            .bind("echo", move |rec, em| {
                if rec.field("x").unwrap().as_int() == Some(-EARLY / 2) {
                    while gate.load(Ordering::Acquire) < CALLERS {
                        std::thread::yield_now();
                    }
                }
                em.emit(rec.clone())
            })
            // The early records must not wait for the service.
            .unbounded()
            .executor(exec)
            .build("main")
            .unwrap();
        for i in 1..=EARLY {
            net.send(Record::build().field("x", -i).finish()).unwrap();
        }
        let svc = Service::start(net);
        std::thread::scope(|s| {
            for t in 0..CALLERS as i64 {
                let (svc, calling) = (&svc, &calling);
                s.spawn(move || {
                    for i in 0..PER_CALLER {
                        let x = t * PER_CALLER + i;
                        let h = svc.call(Record::build().field("x", x).finish()).unwrap();
                        if i == 0 {
                            calling.fetch_add(1, Ordering::Release);
                        }
                        let resp = h.wait_deadline(Instant::now() + Duration::from_secs(30));
                        let resp = resp.unwrap_or_else(|e| panic!("{leg}: call {x}: {e}"));
                        let got = resp.records[0].field("x").unwrap().as_int();
                        assert_eq!(got, Some(x), "{leg}: misrouted");
                    }
                });
            }
        });
        let m = Arc::clone(svc.metrics());
        svc.shutdown();
        assert_eq!(m.get("serve/stray"), EARLY as u64, "{leg}");
        assert_eq!(
            m.get("serve/completed"),
            CALLERS as u64 * PER_CALLER as u64,
            "{leg}"
        );
        assert_eq!(m.get("serve/demux_panics"), 0, "{leg}");
    }
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
/// that arrives must be exactly its own request's, as the oracle over
/// `Chaos::skip` bodies gives it, a request faults only where the
/// oracle answers nothing, every late answer must count as stray, and
/// nothing may stay in flight.
#[test]
fn reissued_slots_never_receive_their_previous_requests_records() {
    const CALLERS: u64 = 8;
    const PER_CALLER: u64 = 150;
    // CI pins SNET_CHAOS_SEED; locally the default replays the same
    // run. The seed picks which records fault; the callers' mix of
    // request shapes and patience is drawn from `seed`, fixed.
    let chaos = Chaos::from_env(0x51075, 0.02);
    let seed: u64 = 0x51075;
    const SRC: &str = "box slow (a, <n>) -> (r);
                       box fast (b, <n>) -> (r);
                       net main = slow || fast;";
    let program = snet_lang::parse_program(SRC).unwrap();
    let (env, ast) = (program.env().unwrap(), &program.net("main").unwrap().body);
    let b = Bindings::new()
        .bind("slow", chaos.skip("slow", |rec, em| emit_n("a", rec, em)))
        .bind("fast", chaos.skip("fast", |rec, em| emit_n("b", rec, em)));
    let plan = snet_runtime::compile_cfg(ast, &env, &b, false).unwrap();
    let net = NetBuilder::from_source(SRC)
        .unwrap()
        .fuse(false)
        .bind(
            "slow",
            chaos.wrap("slow", |rec, em| {
                std::thread::sleep(Duration::from_micros(400));
                emit_n("a", rec, em)
            }),
        )
        .bind("fast", chaos.wrap("fast", |rec, em| emit_n("b", rec, em)))
        .fault_policy(FaultPolicy::SkipRecord)
        .build("main")
        .unwrap();
    let svc = Service::start(net);

    // What the callers saw: [completed, abandoned, faulted], and every
    // request id issued.
    let (seen, mut rids): ([u64; 3], Vec<u64>) = std::thread::scope(|s| {
        let (svc, plan) = (&svc, &plan);
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
                        let want = rs(&oracle::run(plan, [req.clone()]).unwrap().records);
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
                                assert_eq!(rs(&resp.records), want, "request {id} misrouted");
                                ok += 1;
                            }
                            Err(CallError::Deadline) => {
                                assert!(patience < Duration::from_secs(1), "request {id} hung");
                                abandoned += 1;
                            }
                            Err(CallError::Faulted { .. }) => {
                                assert!(want.is_empty(), "request {id} faulted: {want:?}");
                                faulted += 1;
                            }
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
    // Shutdown winds the net down: every late record has met the
    // egress drain.
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
    // Each injected panic is one contained fault, answered or not.
    assert_eq!(m.get("runtime/component_panics"), chaos.panics());
    let stray = m.get("serve/stray");
    assert!(stray > 0, "no abandoned request was answered late");
    assert!(
        stray <= 3 * abandoned,
        "{stray} stray from {abandoned} abandoned"
    );
}

/// A hand-cranked executor: tasks run only inside [`Crank::turn`], on
/// the calling thread, so a test decides when the net and the egress
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

/// Runs `f` on a thread of its own and fails if it has not returned
/// within a minute: a caller that parks instead of helping a pool whose
/// only worker is held hangs rather than fails.
fn within_a_minute(what: &str, f: impl FnOnce() + Send + 'static) {
    let (done, finished) = std::sync::mpsc::channel();
    let h = std::thread::spawn(move || {
        f();
        let _ = done.send(());
    });
    match finished.recv_timeout(Duration::from_secs(60)) {
        Ok(()) => h.join().unwrap(),
        Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => {
            std::panic::resume_unwind(h.join().unwrap_err())
        }
        Err(std::sync::mpsc::RecvTimeoutError::Timeout) => panic!("{what} hung"),
    }
}

fn xs(records: &[Record]) -> Vec<i64> {
    let x = |rec: &Record| rec.field("x").unwrap().as_int().unwrap();
    records.iter().map(x).collect()
}

/// `inc .. dbl` on `exec`, each box noting the thread it ran on.
fn ran_on_net(
    exec: Arc<dyn Executor>,
    fuse: bool,
    ran_on: &Arc<Mutex<Vec<std::thread::ThreadId>>>,
) -> Net {
    let note = |ran_on: &Arc<Mutex<Vec<_>>>| {
        let ran_on = Arc::clone(ran_on);
        move || ran_on.lock().unwrap().push(std::thread::current().id())
    };
    let (inc, dbl) = (note(ran_on), note(ran_on));
    NetBuilder::from_source("box inc (x) -> (x); box dbl (x) -> (x); net main = inc .. dbl;")
        .unwrap()
        .bind("inc", move |rec, em| {
            inc();
            let x = rec.field("x").unwrap().as_int().unwrap();
            em.emit(Record::build().field("x", x + 1).finish());
        })
        .bind("dbl", move |rec, em| {
            dbl();
            let x = rec.field("x").unwrap().as_int().unwrap();
            em.emit(Record::build().field("x", x * 2).finish());
        })
        .executor(exec)
        .fuse(fuse)
        .build("main")
        .unwrap()
}

/// A caller that finds no worker free runs its own request: on a pool
/// of one worker held by a box of another net, a service on that pool
/// answers every call on the caller's thread, before the worker is let
/// go, fused (one task) or not (a task per box).
#[test]
fn a_caller_runs_its_own_request_while_the_only_worker_is_held() {
    within_a_minute("a call on a held pool", || {
        for fuse in [true, false] {
            let (exec, held) = held_pool();
            let ran_on = Arc::default();
            let svc = Service::start(ran_on_net(exec, fuse, &ran_on));
            for x in 0..20i64 {
                let resp = svc.call(Record::build().field("x", x).finish()).unwrap();
                let resp = resp.wait().unwrap();
                assert_eq!(xs(&resp.records), [(x + 1) * 2], "fuse={fuse}");
            }
            let me = std::thread::current().id();
            let ran_on = ran_on.lock().unwrap().clone();
            assert_eq!(ran_on.len(), 40, "fuse={fuse}");
            assert!(ran_on.iter().all(|&t| t == me), "fuse={fuse}");
            drop(held);
            let report = svc.shutdown();
            assert_eq!((report.completed, report.stranded), (20, 0), "fuse={fuse}");
        }
    });
}

/// `inc .. dbl`'s answers to 0..20, in input order.
fn doubled_successors() -> Vec<i64> {
    (0..20).map(|x| (x + 1) * 2).collect()
}

/// The FIFO door's receiver runs the net it waits for: on a pool of
/// one worker held by a box of another net, `Net::recv` on a thread of
/// its own returns all 20 outputs of `inc .. dbl`, fused or not, every
/// box having run on that thread, before the worker is let go. The
/// sending thread never helps.
#[test]
fn a_receiver_runs_the_net_while_the_only_worker_is_held() {
    within_a_minute("a FIFO receiver on a held pool", || {
        for fuse in [true, false] {
            let (exec, held) = held_pool();
            let ran_on = Arc::default();
            let net = ran_on_net(exec, fuse, &ran_on);
            let (got, receiver) = std::thread::scope(|s| {
                let receiver = s.spawn(|| {
                    let got: Vec<Record> = (0..20).map(|_| net.recv().unwrap()).collect();
                    (xs(&got), std::thread::current().id())
                });
                for x in 0..20i64 {
                    net.send(Record::build().field("x", x).finish()).unwrap();
                }
                receiver.join().unwrap()
            });
            assert_eq!(got, doubled_successors(), "fuse={fuse}");
            let ran_on = ran_on.lock().unwrap().clone();
            assert_eq!(ran_on.len(), 40, "fuse={fuse}");
            assert!(ran_on.iter().all(|&t| t == receiver), "fuse={fuse}");
            drop(held);
            assert!(net.finish().is_empty(), "fuse={fuse}");
        }
    });
}

/// The cold-cycle shape of the FIFO door: one thread sends a record,
/// then receives its answer, 20 times, on a pool whose only worker is
/// held — and runs every box itself.
#[test]
fn a_thread_that_sends_then_receives_runs_the_net_while_the_only_worker_is_held() {
    within_a_minute("a FIFO send-then-receive on a held pool", || {
        for fuse in [true, false] {
            let (exec, held) = held_pool();
            let ran_on = Arc::default();
            let net = ran_on_net(exec, fuse, &ran_on);
            let got: Vec<i64> = (0..20i64)
                .flat_map(|x| {
                    net.send(Record::build().field("x", x).finish()).unwrap();
                    xs(&[net.recv().unwrap()])
                })
                .collect();
            assert_eq!(got, doubled_successors(), "fuse={fuse}");
            let me = std::thread::current().id();
            let ran_on = ran_on.lock().unwrap().clone();
            assert_eq!(ran_on.len(), 40, "fuse={fuse}");
            assert!(ran_on.iter().all(|&t| t == me), "fuse={fuse}");
            drop(held);
            assert!(net.finish().is_empty(), "fuse={fuse}");
        }
    });
}

/// A box that panics while a caller helps behaves as it does on a
/// worker. Under `SkipRecord` its call resolves `Faulted`, the caller
/// survives and the next call is answered; under `FailNet` the call
/// resolves `ServiceStopped` and `shutdown` re-raises the panic. The
/// same script runs on a plain pool of one, where a worker runs it.
#[test]
fn a_box_that_panics_while_a_caller_helps_faults_as_on_a_worker() {
    within_a_minute("a fault on a held pool", || {
        for (held, skip) in [(true, true), (false, true), (true, false), (false, false)] {
            let leg = format!("held={held} skip={skip}");
            let (exec, latch) = match held {
                true => {
                    let (exec, latch) = held_pool();
                    (exec, Some(latch))
                }
                false => (Arc::clone(&pools()[0].1), None),
            };
            let b = NetBuilder::from_source("box f (x) -> (x); net main = f;")
                .unwrap()
                .bind("f", |rec, em| {
                    let x = rec.field("x").unwrap().as_int().unwrap();
                    assert_ne!(x, 3, "poisoned");
                    em.emit(rec.clone());
                })
                .executor(exec);
            let b = match skip {
                true => b.fault_policy(FaultPolicy::SkipRecord),
                false => b,
            };
            let svc = Service::start(b.build("main").unwrap());
            let call = |x: i64| {
                svc.call(Record::build().field("x", x).finish())
                    .unwrap()
                    .wait()
            };
            assert_eq!(xs(&call(2).unwrap().records), [2], "{leg}");
            match (call(3), skip) {
                (Err(CallError::Faulted { msg, .. }), true) => {
                    assert!(msg.contains("poisoned"), "{leg}")
                }
                (Err(CallError::ServiceStopped), false) => {}
                (other, _) => panic!("{leg}: {other:?}"),
            }
            if skip {
                assert_eq!(xs(&call(4).unwrap().records), [4], "{leg}");
            }
            drop(latch);
            let shutdown =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| svc.shutdown()));
            match shutdown {
                Ok(report) => {
                    assert!(skip, "{leg}: shutdown swallowed the panic");
                    assert_eq!((report.completed, report.faulted), (2, 1), "{leg}");
                }
                Err(_) => assert!(!skip, "{leg}: a contained fault failed the net"),
            }
        }
    });
}

/// The closing thread runs what is left of the net: on a pool whose
/// only worker is held, `Service::shutdown` runs the 20 requests still
/// queued on its own thread and returns before the worker is let go,
/// fused or not, every call counted `completed`.
#[test]
fn shutdown_runs_the_rest_of_the_net_while_the_only_worker_is_held() {
    within_a_minute("a shutdown on a held pool", || {
        for fuse in [true, false] {
            let (exec, held) = held_pool();
            let ran_on = Arc::default();
            let svc = Service::start(ran_on_net(exec, fuse, &ran_on));
            let calls: Vec<_> = (0..20i64)
                .map(|x| svc.call(Record::build().field("x", x).finish()).unwrap())
                .collect();
            let report = svc.shutdown();
            assert_eq!((report.completed, report.stranded), (20, 0), "fuse={fuse}");
            let got: Vec<i64> = calls
                .into_iter()
                .flat_map(|call| xs(&call.wait().unwrap().records))
                .collect();
            assert_eq!(got, doubled_successors(), "fuse={fuse}");
            let me = std::thread::current().id();
            let ran_on = ran_on.lock().unwrap().clone();
            assert_eq!(ran_on.len(), 40, "fuse={fuse}");
            assert!(ran_on.iter().all(|&t| t == me), "fuse={fuse}");
            drop(held);
        }
    });
}

/// Under `FailNet`, a box that panics on the closing thread fails the
/// net from `shutdown`, as it would on a worker: the panic is
/// re-raised while the pool's only worker is still held, the call
/// before it is answered and the poisoned one resolves
/// `ServiceStopped`.
#[test]
fn shutdown_reraises_a_panic_it_ran_while_the_only_worker_is_held() {
    within_a_minute("a failing shutdown on a held pool", || {
        let (exec, held) = held_pool();
        let net = NetBuilder::from_source("box f (x) -> (x); net main = f;")
            .unwrap()
            .bind("f", |rec, em| {
                let x = rec.field("x").unwrap().as_int().unwrap();
                assert_ne!(x, 3, "poisoned");
                em.emit(rec.clone());
            })
            .executor(exec)
            .build("main")
            .unwrap();
        let svc = Service::start(net);
        let call = |x: i64| svc.call(Record::build().field("x", x).finish()).unwrap();
        let (two, three) = (call(2), call(3));
        let shutdown = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| svc.shutdown()));
        let payload = shutdown.expect_err("shutdown swallowed the panic");
        let msg = payload.downcast_ref::<String>().expect("a formatted panic");
        assert!(msg.contains("poisoned"), "{msg}");
        assert_eq!(xs(&two.wait().unwrap().records), [2]);
        assert!(matches!(three.wait(), Err(CallError::ServiceStopped)));
        drop(held);
    });
}

/// `Net::finish` on a pool whose only worker is held returns every
/// output, the closing thread having run the net, before the worker is
/// let go.
#[test]
fn finish_runs_the_rest_of_the_net_while_the_only_worker_is_held() {
    within_a_minute("a finish on a held pool", || {
        for fuse in [true, false] {
            let (exec, held) = held_pool();
            let ran_on = Arc::default();
            let net = ran_on_net(exec, fuse, &ran_on);
            for x in 0..20i64 {
                net.send(Record::build().field("x", x).finish()).unwrap();
            }
            assert_eq!(xs(&net.finish()), doubled_successors(), "fuse={fuse}");
            let me = std::thread::current().id();
            let ran_on = ran_on.lock().unwrap().clone();
            assert_eq!(ran_on.len(), 40, "fuse={fuse}");
            assert!(ran_on.iter().all(|&t| t == me), "fuse={fuse}");
            drop(held);
        }
    });
}
