//! Fault containment end-to-end: box and filter panics contained per
//! [`FaultPolicy`], typed faults surfacing through nets, fault
//! observers and the serve front door, and the seeded chaos
//! acceptance run.
//!
//! Chaos over random programs is part of `random_networks.rs`'
//! differential check; this file pins the behavioural contracts on
//! hand-written nets where the expected outcome is exact, and the
//! injector's own properties ([`Chaos`], shared with the other suites).

mod common {
    pub mod chaos;
}

use common::chaos::Chaos;
use snet_runtime::{
    oracle, Bindings, CallError, Dir, DrainReport, Emitter, Fault, FaultPolicy, Net, NetBuilder,
    Observer, Service,
};
use snet_types::Record;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A net with one box that panics whenever `x == poison`.
fn poison_net(policy: FaultPolicy, poison: i64) -> Net {
    NetBuilder::from_source("box f (x) -> (x); net main = f;")
        .unwrap()
        .bind("f", move |r: &Record, e: &mut snet_runtime::Emitter| {
            if r.field("x").unwrap().as_int() == Some(poison) {
                panic!("poison record");
            }
            e.emit(r.clone());
        })
        .fault_policy(policy)
        .build("main")
        .unwrap()
}

fn xs(net: &Net, values: &[i64]) {
    for v in values {
        net.send(Record::build().field("x", *v).finish()).unwrap();
    }
}

fn outs(records: Vec<Record>) -> Vec<i64> {
    records
        .iter()
        .map(|r| r.field("x").unwrap().as_int().unwrap())
        .collect()
}

#[test]
fn skip_policy_drops_poison_record_and_keeps_component_alive() {
    let net = poison_net(FaultPolicy::SkipRecord, 13);
    let metrics = Arc::clone(net.metrics());
    let faults = {
        xs(&net, &[1, 13, 2]);
        let got = outs(net.finish());
        // The component survived the poison record and processed the
        // one after it.
        assert_eq!(got, vec![1, 2]);
        metrics
    };
    assert_eq!(faults.get("runtime/component_panics"), 1);
    assert_eq!(faults.sum_matching("records_skipped"), 1);
}

#[test]
fn fault_log_carries_the_dropped_record() {
    let net = poison_net(FaultPolicy::SkipRecord, 7);
    xs(&net, &[7]);
    // The box thread raises the fault asynchronously; poll the net's
    // fault log rather than racing it.
    let deadline = Instant::now() + Duration::from_secs(10);
    while net.faults().is_empty() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    let faults = net.faults();
    assert_eq!(faults.len(), 1);
    assert!(
        faults[0].component.contains("box:f"),
        "{}",
        faults[0].component
    );
    assert_eq!(faults[0].msg, "poison record");
    let dropped = faults[0].dropped.as_ref().expect("terminal skip drops");
    assert_eq!(dropped.field("x").unwrap().as_int(), Some(7));
    assert!(outs(net.finish()).is_empty());
}

#[test]
fn failnet_policy_still_kills_the_net() {
    // The default policy is the seed's behaviour: the panic unwinds
    // through join_all. The tracker still accounts the death as a
    // fault incident with the component's task name.
    let net = poison_net(FaultPolicy::FailNet, 13);
    let metrics = Arc::clone(net.metrics());
    xs(&net, &[13]);
    let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || net.finish()));
    assert!(r.is_err(), "FailNet must propagate the box panic");
    // Counted once: by the tracker, as the component dies.
    assert_eq!(metrics.get("runtime/component_panics"), 1);
}

/// `f .. [{<a>, <b>} -> {<q>=<a>/<b>}]`, where `f` passes `<a>` and
/// `<b>` on: the filter's tag expression divides by zero on every
/// record with `<b> == 0`.
fn dividing_net(policy: FaultPolicy, fuse: bool) -> Net {
    NetBuilder::from_source(
        "box f (<a>, <b>) -> (<a>, <b>);
         net main = f .. [{<a>, <b>} -> {<q>=<a>/<b>}];",
    )
    .unwrap()
    .bind("f", |r: &Record, e: &mut snet_runtime::Emitter| {
        e.emit(r.clone())
    })
    .fault_policy(policy)
    .fuse(fuse)
    .build("main")
    .unwrap()
}

/// Thirty records `{<a>=i, <b>=i % 3}`: ten of them divide by zero.
/// A net that fails at its first fault closes its input, which ends
/// the sending.
fn send_divisions(net: &Net) {
    for i in 0..30i64 {
        if net
            .send(Record::build().tag("a", i).tag("b", i % 3).finish())
            .is_err()
        {
            break;
        }
    }
}

#[test]
fn a_filter_that_faults_on_its_data_is_contained_like_a_box() {
    // A filter is runtime code, but its tag expressions compute on
    // record values, and a failing one panics at the filter's stage
    // boundary: the same guard as a box's contains it.
    let run = |fuse: bool| {
        let net = dividing_net(FaultPolicy::SkipRecord, fuse);
        let metrics = Arc::clone(net.metrics());
        send_divisions(&net);
        let q: Vec<i64> = net.finish().iter().map(|r| r.tag("q").unwrap()).collect();
        assert_eq!(metrics.get("net/s1/filter/records_skipped"), 10);
        assert_eq!(metrics.get("runtime/component_panics"), 10);
        q
    };
    let want: Vec<i64> = (0..30)
        .filter(|i| i % 3 != 0)
        .map(|i| i / (i % 3))
        .collect();
    assert_eq!(run(true), want, "fused");
    assert_eq!(run(false), want, "unfused");
    // Under the default policy the same fault kills the net.
    let net = dividing_net(FaultPolicy::FailNet, true);
    send_divisions(&net);
    let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || net.finish()));
    assert!(r.is_err(), "FailNet must propagate the filter panic");
}

/// `a .. b`, two boxes that pass their record on.
const ECHO_CHAIN: &str = "box a (x) -> (x); box b (x) -> (x); net main = a .. b;";

fn echo(r: &Record, e: &mut Emitter) {
    e.emit(r.clone())
}

/// `{x}` records, `0..n`.
fn inputs(n: i64) -> Vec<Record> {
    (0..n)
        .map(|i| Record::build().field("x", i).finish())
        .collect()
}

/// What [`ECHO_CHAIN`] outputs on `inputs` with its boxes bound as
/// `b`: the sequential reference.
fn expected(b: Bindings, inputs: Vec<Record>) -> Vec<i64> {
    let program = snet_lang::parse_program(ECHO_CHAIN).unwrap();
    let (env, ast) = (program.env().unwrap(), &program.net("main").unwrap().body);
    let plan = snet_runtime::compile_cfg(ast, &env, &b, false).unwrap();
    outs(oracle::run(&plan, inputs).unwrap().records)
}

#[test]
fn fused_and_unfused_contain_chaos_identically() {
    // A linear two-box chain — compiled fused, it is one scheduled
    // component. A chaos decision is keyed by box name and record
    // content, both invariant under fusion, so the fused and unfused
    // runs drop the records the oracle drops over `Chaos::skip` bodies,
    // and each injected panic is one skipped record.
    let skip = Chaos::new(0xBADC0DE, 0.2);
    let b = Bindings::new().bind("a", skip.skip("a", echo));
    let want = expected(b.bind("b", skip.skip("b", echo)), inputs(200));
    assert!(
        want.len() < 200,
        "rate 0.2 over 2 stages x 200 records must inject"
    );
    for fuse in [true, false] {
        let chaos = Chaos::new(0xBADC0DE, 0.2);
        let net = NetBuilder::from_source(ECHO_CHAIN)
            .unwrap()
            .bind("a", chaos.wrap("a", echo))
            .bind("b", chaos.wrap("b", echo))
            .fault_policy(FaultPolicy::SkipRecord)
            .fuse(fuse)
            .build("main")
            .unwrap();
        let metrics = Arc::clone(net.metrics());
        inputs(200).into_iter().for_each(|r| net.send(r).unwrap());
        assert_eq!(outs(net.finish()), want, "fuse={fuse}");
        let dropped = 200 - want.len() as u64;
        assert_eq!(
            chaos.panics(),
            dropped,
            "fuse={fuse}: one panic per dropped record"
        );
        assert_eq!(
            metrics.sum_matching("records_skipped"),
            dropped,
            "fuse={fuse}"
        );
    }
}

#[test]
fn chaos_off_guarded_run_is_byte_identical_to_unguarded() {
    // SkipRecord on boxes that never panic engages the guard machinery (buffered
    // emissions, catch_unwind) — it must be a transparent wrapper.
    let want = expected(Bindings::new().bind("a", echo).bind("b", echo), inputs(100));
    for policy in [FaultPolicy::SkipRecord, FaultPolicy::FailNet] {
        let net = NetBuilder::from_source(ECHO_CHAIN)
            .unwrap()
            .bind("a", echo)
            .bind("b", echo)
            .fault_policy(policy)
            .build("main")
            .unwrap();
        inputs(100).into_iter().for_each(|r| net.send(r).unwrap());
        assert_eq!(outs(net.finish()), want, "{policy:?}");
    }
}

#[test]
fn fault_log_and_observers_see_a_skipped_record() {
    // The box's stream observer sees the poison record go in and
    // nothing come out for it; the fault observer and the net's fault
    // log both hold the one fault, with the record attached.
    let crossings: Arc<Mutex<(usize, usize)>> = Arc::default();
    let seen: Arc<Mutex<Vec<Fault>>> = Arc::default();
    let (crossings2, seen2) = (Arc::clone(&crossings), Arc::clone(&seen));
    let observer: Observer = Arc::new(move |path, dir, _rec| {
        if path.ends_with("box:f") {
            let mut c = crossings2.lock().unwrap();
            match dir {
                Dir::In => c.0 += 1,
                Dir::Out => c.1 += 1,
            }
        }
    });
    let mut net = NetBuilder::from_source("box f (x) -> (x); net main = f;")
        .unwrap()
        .bind("f", |r: &Record, e: &mut snet_runtime::Emitter| {
            if r.field("x").unwrap().as_int() == Some(2) {
                panic!("observed failure");
            }
            e.emit(r.clone());
        })
        .fault_policy(FaultPolicy::SkipRecord)
        .observe(observer)
        .on_fault(Arc::new(move |f: &Fault| {
            seen2.lock().unwrap().push(f.clone())
        }))
        .build("main")
        .unwrap();
    xs(&net, &[1, 2, 3]);
    net.close();
    let got: Vec<i64> = std::iter::from_fn(|| net.recv())
        .map(|r| r.field("x").unwrap().as_int().unwrap())
        .collect();
    assert_eq!(got, vec![1, 3]);
    let logged = net.faults();
    let _ = net.finish();
    assert_eq!(*crossings.lock().unwrap(), (3, 2));
    for faults in [logged, seen.lock().unwrap().clone()] {
        assert_eq!(faults.len(), 1);
        assert!(
            faults[0].component.ends_with("box:f"),
            "{}",
            faults[0].component
        );
        assert_eq!(faults[0].msg, "observed failure");
        let dropped = faults[0].dropped.as_ref().expect("the skipped record");
        assert_eq!(dropped.field("x").unwrap().as_int(), Some(2));
    }
}

// ---------------------------------------------------------------------------
// Serve: faults resolve requests promptly, strays are attributable,
// an egress drain death strands nobody.
// ---------------------------------------------------------------------------

fn poison_service(policy: FaultPolicy) -> Service {
    Service::start(poison_net(policy, 13))
}

fn call_x(svc: &Service, x: i64) -> Result<i64, CallError> {
    let h = svc.call(Record::build().field("x", x).finish())?;
    let resp = h.wait_deadline(Instant::now() + Duration::from_secs(10))?;
    Ok(resp.records[0].field("x").unwrap().as_int().unwrap())
}

#[test]
fn faulted_request_resolves_promptly_with_typed_error() {
    let svc = poison_service(FaultPolicy::SkipRecord);
    assert_eq!(call_x(&svc, 1).unwrap(), 1);
    let t0 = Instant::now();
    match call_x(&svc, 13) {
        Err(CallError::Faulted { component, msg }) => {
            assert!(component.contains("box:f"), "{component}");
            assert_eq!(msg, "poison record");
        }
        other => panic!("expected Faulted, got {other:?}"),
    }
    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "fault must resolve promptly, not at the deadline"
    );
    // The service keeps serving after the fault.
    assert_eq!(call_x(&svc, 2).unwrap(), 2);
    assert_eq!(svc.metrics().get("serve/faulted"), 1);
    assert_eq!(svc.inflight(), 0, "faulted slot left the pending map");
    svc.shutdown();
}

/// A service over a box that sleeps `x` milliseconds before echoing.
fn sleepy_service() -> Service {
    let net = NetBuilder::from_source("box f (x) -> (x); net main = f;")
        .unwrap()
        .bind("f", |r: &Record, e: &mut snet_runtime::Emitter| {
            let ms = r.field("x").unwrap().as_int().unwrap();
            if ms > 0 {
                std::thread::sleep(Duration::from_millis(ms as u64));
            }
            e.emit(r.clone());
        })
        .build("main")
        .unwrap();
    Service::start(net)
}

#[test]
fn late_record_after_deadline_is_counted_and_observed_as_stray() {
    let observed: Arc<observed::Paths> = Default::default();
    let obs = Arc::clone(&observed);
    let net = NetBuilder::from_source("box f (x) -> (x); net main = f;")
        .unwrap()
        .bind("f", |r: &Record, e: &mut snet_runtime::Emitter| {
            std::thread::sleep(Duration::from_millis(150));
            e.emit(r.clone());
        })
        .observe(Arc::new(move |path: &str, _dir, _rec| {
            obs.push(path);
        }))
        .build("main")
        .unwrap();
    let svc = Service::start(net);
    let h = svc.call(Record::build().field("x", 1i64).finish()).unwrap();
    // Give up long before the box answers: the response arrives late
    // and must be dropped loudly — counted AND visible to observers.
    let r = h.wait_deadline(Instant::now() + Duration::from_millis(10));
    assert!(matches!(r, Err(CallError::Deadline)), "{r:?}");
    let deadline = Instant::now() + Duration::from_secs(10);
    while svc.metrics().get("serve/stray") == 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(svc.metrics().get("serve/stray"), 1);
    assert!(
        observed.contains("serve/stray"),
        "stray drop must reach stream observers"
    );
    svc.shutdown();
}

/// Tiny shared path collector for observer assertions.
mod observed {
    use std::sync::Mutex;

    #[derive(Default)]
    pub struct Paths(Mutex<Vec<String>>);

    impl Paths {
        pub fn push(&self, p: &str) {
            self.0.lock().unwrap().push(p.to_string());
        }
        pub fn contains(&self, p: &str) -> bool {
            self.0.lock().unwrap().iter().any(|x| x == p)
        }
    }
}

#[test]
fn demux_panic_fails_open_requests_instead_of_stranding_them() {
    // Force an egress drain death through the one hook external code
    // has on it: a stream observer that panics when the stray-drop
    // event fires. The contract: the panic is counted and every open
    // request resolves with ServiceStopped — nobody hangs.
    let net = NetBuilder::from_source("box f (x) -> (x); net main = f;")
        .unwrap()
        .bind("f", |r: &Record, e: &mut snet_runtime::Emitter| {
            let ms = r.field("x").unwrap().as_int().unwrap();
            std::thread::sleep(Duration::from_millis(ms as u64));
            e.emit(r.clone());
        })
        .observe(Arc::new(|path: &str, _dir, _rec| {
            if path == "serve/stray" {
                panic!("observer bug");
            }
        }))
        .build("main")
        .unwrap();
    let svc = Service::start(net);
    let metrics = Arc::clone(svc.metrics());
    // Request 1 goes stray: abandoned at its deadline, answered late.
    let h1 = svc
        .call(Record::build().field("x", 100i64).finish())
        .unwrap();
    // Request 2 is still open when the stray record kills the drain.
    let h2 = svc
        .call(Record::build().field("x", 400i64).finish())
        .unwrap();
    let r1 = h1.wait_deadline(Instant::now() + Duration::from_millis(10));
    assert!(matches!(r1, Err(CallError::Deadline)), "{r1:?}");
    let r2 = h2.wait_deadline(Instant::now() + Duration::from_secs(10));
    assert!(matches!(r2, Err(CallError::ServiceStopped)), "{r2:?}");
    assert_eq!(metrics.get("serve/demux_panics"), 1);
    assert_eq!(svc.inflight(), 0, "fail_all closed every slot");
    // Do not join the net: the drain has ended, but the components wind
    // down via EOS when the service drops its ingress sender.
}

#[test]
fn shutdown_waits_for_a_slow_answer_and_counts_it_completed() {
    // Shutdown closes intake, not the net: a request the net is still
    // working on is answered, and the tally counts it completed.
    let svc = sleepy_service();
    let h = svc
        .call(Record::build().field("x", 200i64).finish())
        .unwrap();
    let report = svc.shutdown();
    assert!(h
        .wait_deadline(Instant::now() + Duration::from_secs(1))
        .is_ok());
    assert_eq!(
        report,
        DrainReport {
            completed: 1,
            faulted: 0,
            stranded: 0
        }
    );
}

#[test]
fn shutdown_counts_an_unanswered_request_stranded() {
    // A box that *swallows* negative records: the owning request can
    // never complete, so the end of the net's output strands it, and
    // the tally says so in the outcome its handle resolved to.
    let net = NetBuilder::from_source("box f (x) -> (x); net main = f;")
        .unwrap()
        .bind("f", |r: &Record, e: &mut snet_runtime::Emitter| {
            if r.field("x").unwrap().as_int().unwrap() >= 0 {
                e.emit(r.clone());
            }
        })
        .build("main")
        .unwrap();
    let svc = Service::start(net);
    assert_eq!(call_x(&svc, 0).unwrap(), 0);
    assert_eq!(call_x(&svc, 1).unwrap(), 1);
    let h = svc
        .call(Record::build().field("x", -1i64).finish())
        .unwrap();
    let report = svc.shutdown();
    assert_eq!(
        report,
        DrainReport {
            completed: 2,
            faulted: 0,
            stranded: 1
        }
    );
    let r = h.wait_deadline(Instant::now() + Duration::from_secs(10));
    assert!(
        matches!(r, Err(CallError::ServiceStopped)),
        "stranded request resolves, never hangs: {r:?}"
    );
}

// ---------------------------------------------------------------------------
// The acceptance run: 1% seeded chaos, SkipRecord policy, 10k requests.
// ---------------------------------------------------------------------------

#[test]
fn chaos_serve_acceptance_10k_requests_no_hangs() {
    // Under a seeded 1% panic rate with the SkipRecord policy, a
    // 10k-request serve run completes with zero caller hangs; affected
    // requests resolve as Faulted within the deadline; unaffected
    // requests are neither lost nor misrouted; and every injected
    // panic is one skipped record and one faulted request.
    let echo = |r: &Record, e: &mut snet_runtime::Emitter| e.emit(r.clone());
    let chaos = Chaos::from_env(0x5EED, 0.01);
    let one_box = NetBuilder::from_source("box f (x) -> (x); net main = f;")
        .unwrap()
        .bind("f", chaos.wrap("f", echo));
    serve_under_chaos(under_skip(one_box), &chaos, 1250);

    // Unfused, every split lane, parallel branch and star level below
    // runs on its own dispatcher, each box in a component of its own.
    // This case is the one check that injects panics into dispatcher
    // lanes behind the `Service` door.
    let chaos = Chaos::from_env(0x5EED, 0.01);
    let fans = NetBuilder::from_source(
        "box f (x) -> (x);
         box step (x, <lvl>) -> (x, <lvl>);
         net main = f .. (f !! <k>) .. (f || [{y} -> {x=y}])
                 .. (step ** {<lvl>} if <lvl> > 2);",
    )
    .unwrap()
    .fuse(false)
    .bind("f", chaos.wrap("f", echo))
    .bind(
        "step",
        chaos.wrap("step", |r: &Record, e: &mut snet_runtime::Emitter| {
            let mut out = r.clone();
            out.set_tag("lvl", r.tag("lvl").unwrap() + 1);
            e.emit(out);
        }),
    );
    let net = under_skip(fans);
    assert!(net.threads_spawned() > 4, "fused: one component");
    serve_under_chaos(net, &chaos, 250);
}

/// `b` under the acceptance run's policy, `SkipRecord`.
fn under_skip(b: NetBuilder) -> Net {
    b.fault_policy(FaultPolicy::SkipRecord)
        .build("main")
        .unwrap()
}

/// Eight callers issue `per_caller` requests each — `{x, <k>, <lvl>}`
/// with `<k>` cycling through 4 values and `<lvl>` through 3 (1 to 3
/// star levels) — and every outcome is accounted against the net's
/// fault counters and the panics `chaos` injected into its boxes.
fn serve_under_chaos(net: Net, chaos: &Chaos, per_caller: usize) {
    const CALLERS: usize = 8;
    let svc = Arc::new(Service::start(net));
    let ok = Arc::new(AtomicU64::new(0));
    let faulted = Arc::new(AtomicU64::new(0));
    let misrouted = Arc::new(AtomicU64::new(0));
    let other = Arc::new(AtomicU64::new(0));
    let mut threads = Vec::new();
    for c in 0..CALLERS {
        let svc = Arc::clone(&svc);
        let (ok, faulted, misrouted, other) = (
            Arc::clone(&ok),
            Arc::clone(&faulted),
            Arc::clone(&misrouted),
            Arc::clone(&other),
        );
        threads.push(std::thread::spawn(move || {
            let mut latencies = Vec::new();
            for i in 0..per_caller {
                let x = (c * per_caller + i) as i64;
                let req = Record::build()
                    .field("x", x)
                    .tag("k", x % 4)
                    .tag("lvl", x % 3)
                    .finish();
                let sent = Instant::now();
                let h = svc.call(req).unwrap();
                // A hang shows up as a Deadline error here, and the
                // 60 s ceiling keeps the test itself bounded.
                match h.wait_deadline(Instant::now() + Duration::from_secs(60)) {
                    Ok(resp) => {
                        if resp.records.len() == 1
                            && resp.records[0].field("x").unwrap().as_int() == Some(x)
                        {
                            ok.fetch_add(1, Ordering::Relaxed);
                            latencies.push(resp.completed_at - sent);
                        } else {
                            misrouted.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    Err(CallError::Faulted { .. }) => {
                        faulted.fetch_add(1, Ordering::Relaxed);
                    }
                    Err(_) => {
                        other.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
            latencies
        }));
    }
    let mut latencies: Vec<Duration> = threads
        .into_iter()
        .flat_map(|t| t.join().unwrap())
        .collect();
    let (ok, faulted) = (ok.load(Ordering::Relaxed), faulted.load(Ordering::Relaxed));
    let total = (CALLERS * per_caller) as u64;
    assert_eq!(other.load(Ordering::Relaxed), 0, "no hangs, no stops");
    assert_eq!(
        misrouted.load(Ordering::Relaxed),
        0,
        "no cross-request leaks"
    );
    assert_eq!(ok + faulted, total, "every caller resolved");
    // A generous ceiling on unaffected requests: it catches a wedged
    // egress drain or a pathological queue, not a slow runner.
    latencies.sort();
    let p99 = latencies[latencies.len() * 99 / 100];
    assert!(p99 < Duration::from_secs(2), "p99 {p99:?}");
    let m = Arc::clone(svc.metrics());
    let injected = chaos.panics();
    assert!(injected > 0, "1% of {total} must inject");
    assert_eq!(m.get("runtime/component_panics"), injected);
    assert_eq!(m.get("serve/faulted"), injected);
    assert_eq!(m.sum_matching("records_skipped"), injected);
    assert_eq!(
        faulted, injected,
        "every injected panic resolved one caller"
    );
    assert_eq!(m.get("serve/stray"), 0);
    let report = Arc::try_unwrap(svc)
        .unwrap_or_else(|_| panic!("all callers done"))
        .shutdown();
    assert_eq!(
        report,
        DrainReport {
            completed: ok,
            faulted,
            stranded: 0
        }
    );
    assert_eq!(report.completed + report.faulted, total);
}

// ---------------------------------------------------------------------------
// The injector itself.
// ---------------------------------------------------------------------------

/// The record of draw `i`.
fn draw(i: i64) -> Record {
    Record::build().tag("n", i).finish()
}

#[test]
fn injector_is_deterministic_and_rate_shaped() {
    let a = Chaos::new(1234, 0.1);
    let b = Chaos::new(1234, 0.1);
    let da: Vec<bool> = (0..10_000).map(|i| a.poisons("f", &draw(i))).collect();
    let db: Vec<bool> = (0..10_000).map(|i| b.poisons("f", &draw(i))).collect();
    assert_eq!(da, db, "same seed + box must replay identically");
    let panics = da.iter().filter(|p| **p).count();
    // 10% of 10k with generous slack.
    assert!((600..=1400).contains(&panics), "panics {panics}");
    // A different box decides differently.
    let dc: Vec<bool> = (0..10_000).map(|i| a.poisons("g", &draw(i))).collect();
    assert_ne!(da, dc);
}

#[test]
fn zero_rate_never_injects() {
    let chaos = Chaos::new(99, 0.0);
    assert!((0..10_000).all(|i| !chaos.poisons("f", &draw(i))));
}
