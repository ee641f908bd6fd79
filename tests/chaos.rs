//! Fault containment end-to-end: box panics contained per
//! [`FaultPolicy`], typed faults surfacing through nets, traces and
//! the serve front door, and the seeded chaos acceptance run.
//!
//! The randomised topology soak lives in `random_networks.rs`; this
//! file pins the behavioural contracts on hand-written nets where the
//! expected outcome is exact.

use snet_runtime::{CallError, ChaosConfig, FaultPolicy, Net, NetBuilder, Service, TraceLog};
use snet_types::Record;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
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
fn restart_recovers_transient_failures() {
    // Fails the first two attempts on every record, then succeeds:
    // a transient bug the restart budget rides out with no loss.
    let attempts = Arc::new(AtomicU64::new(0));
    let a = Arc::clone(&attempts);
    let net = NetBuilder::from_source("box f (x) -> (x); net main = f;")
        .unwrap()
        .bind("f", move |r: &Record, e: &mut snet_runtime::Emitter| {
            if a.fetch_add(1, Ordering::Relaxed) % 3 != 2 {
                panic!("transient");
            }
            e.emit(r.clone());
        })
        .fault_policy(FaultPolicy::Restart {
            max_retries: 3,
            backoff: Duration::ZERO,
        })
        .build("main")
        .unwrap();
    let metrics = Arc::clone(net.metrics());
    xs(&net, &[1, 2, 3]);
    let got = outs(net.finish());
    assert_eq!(got, vec![1, 2, 3], "every record recovered");
    assert_eq!(metrics.sum_matching("records_skipped"), 0);
    assert_eq!(
        metrics.sum_matching("restarts"),
        6,
        "two retries per record"
    );
    // Each recovery is one fault incident (dropped: None).
    assert_eq!(metrics.get("runtime/component_panics"), 3);
}

#[test]
fn restart_budget_exhausts_to_skip_in_a_net() {
    let net = NetBuilder::from_source("box f (x) -> (x); net main = f;")
        .unwrap()
        .bind("f", move |r: &Record, e: &mut snet_runtime::Emitter| {
            if r.field("x").unwrap().as_int() == Some(13) {
                panic!("hard poison");
            }
            e.emit(r.clone());
        })
        .fault_policy(FaultPolicy::Restart {
            max_retries: 2,
            backoff: Duration::ZERO,
        })
        .build("main")
        .unwrap();
    let metrics = Arc::clone(net.metrics());
    xs(&net, &[13, 5]);
    let got = outs(net.finish());
    assert_eq!(got, vec![5]);
    assert_eq!(metrics.sum_matching("restarts"), 2);
    assert_eq!(metrics.sum_matching("records_skipped"), 1);
    assert_eq!(metrics.get("runtime/component_panics"), 1, "one incident");
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
    assert!(metrics.get("runtime/component_panics") >= 1);
}

#[test]
fn fused_and_unfused_contain_chaos_identically() {
    // A linear two-box chain — the fusion pass collapses it into one
    // scheduled component. The chaos decision stream is keyed by
    // per-stage path and record index, both invariant under fusion,
    // so the fused and unfused runs drop the same records and emit
    // byte-identical output.
    let run = |fuse: bool| {
        let net = NetBuilder::from_source(
            "box a (x) -> (x);
             box b (x) -> (x);
             net main = a .. b;",
        )
        .unwrap()
        .bind("a", |r: &Record, e: &mut snet_runtime::Emitter| {
            e.emit(r.clone())
        })
        .bind("b", |r: &Record, e: &mut snet_runtime::Emitter| {
            e.emit(r.clone())
        })
        .fault_policy(FaultPolicy::SkipRecord)
        .chaos(ChaosConfig::new(0xBADC0DE, 0.2))
        .fuse(fuse)
        .build("main")
        .unwrap();
        let metrics = Arc::clone(net.metrics());
        for i in 0..200i64 {
            net.send(Record::build().field("x", i).finish()).unwrap();
        }
        let got = outs(net.finish());
        (
            got,
            metrics.get("runtime/chaos_injected"),
            metrics.sum_matching("records_skipped"),
        )
    };
    let fused = run(true);
    let unfused = run(false);
    assert!(
        fused.1 > 0,
        "rate 0.2 over 2 stages x 200 records must inject"
    );
    assert_eq!(fused, unfused);
    // Conservation: out + skipped == in.
    assert_eq!(fused.0.len() as u64 + fused.2, 200);
}

#[test]
fn chaos_off_guarded_run_is_byte_identical_to_unguarded() {
    // SkipRecord with no injector engages the guard machinery (buffered
    // emissions, catch_unwind) — it must be a transparent wrapper.
    let run = |policy: FaultPolicy| {
        let net = NetBuilder::from_source(
            "box a (x) -> (x);
             box b (x) -> (x);
             net main = a .. b;",
        )
        .unwrap()
        .bind("a", |r: &Record, e: &mut snet_runtime::Emitter| {
            e.emit(r.clone())
        })
        .bind("b", |r: &Record, e: &mut snet_runtime::Emitter| {
            e.emit(r.clone())
        })
        .fault_policy(policy)
        .build("main")
        .unwrap();
        for i in 0..100i64 {
            net.send(Record::build().field("x", i).finish()).unwrap();
        }
        outs(net.finish())
    };
    assert_eq!(run(FaultPolicy::SkipRecord), run(FaultPolicy::FailNet));
}

#[test]
fn trace_log_records_faults_alongside_stream_entries() {
    let log = TraceLog::new();
    let net = NetBuilder::from_source("box f (x) -> (x); net main = f;")
        .unwrap()
        .bind("f", |r: &Record, e: &mut snet_runtime::Emitter| {
            if r.field("x").unwrap().as_int() == Some(2) {
                panic!("traced failure");
            }
            e.emit(r.clone());
        })
        .fault_policy(FaultPolicy::SkipRecord)
        .observe(log.observer())
        .on_fault(log.fault_observer())
        .build("main")
        .unwrap();
    xs(&net, &[1, 2, 3]);
    let got = outs(net.finish());
    assert_eq!(got, vec![1, 3]);
    let faults = log.faults();
    assert_eq!(faults.len(), 1);
    assert!(faults[0].dropped);
    assert_eq!(faults[0].msg, "traced failure");
    assert!(log.render().contains("[FAULT]"));
}

// ---------------------------------------------------------------------------
// Serve: faults resolve requests promptly, strays are attributable,
// a demux death strands nobody.
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
    // Force a demux death through the one hook external code has on
    // that thread: a stream observer that panics when the stray-drop
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
    // Request 2 is still open when the stray record kills the demux.
    let h2 = svc
        .call(Record::build().field("x", 400i64).finish())
        .unwrap();
    let r1 = h1.wait_deadline(Instant::now() + Duration::from_millis(10));
    assert!(matches!(r1, Err(CallError::Deadline)), "{r1:?}");
    let r2 = h2.wait_deadline(Instant::now() + Duration::from_secs(10));
    assert!(matches!(r2, Err(CallError::ServiceStopped)), "{r2:?}");
    assert_eq!(metrics.get("serve/demux_panics"), 1);
    assert_eq!(svc.inflight(), 0, "fail_pending cleared every slot");
    // Do not join the net: the demux is gone, but the components wind
    // down via EOS when the service drops its ingress sender.
}

#[test]
fn drain_reports_completed_and_stranded_requests() {
    // A box that *swallows* negative records (after a sleep that
    // outlasts the grace window): the owning request can never
    // complete, so it is genuinely stranded — unlike a merely slow
    // echo, which the net would still answer during wind-down.
    let net = NetBuilder::from_source("box f (x) -> (x); net main = f;")
        .unwrap()
        .bind("f", |r: &Record, e: &mut snet_runtime::Emitter| {
            if r.field("x").unwrap().as_int().unwrap() < 0 {
                std::thread::sleep(Duration::from_millis(500));
                return; // swallowed: no response record
            }
            e.emit(r.clone());
        })
        .build("main")
        .unwrap();
    let svc = Service::start(net);
    // Two requests complete before the drain...
    assert_eq!(call_x(&svc, 0).unwrap(), 0);
    assert_eq!(call_x(&svc, 1).unwrap(), 1);
    // ...one swallowed one is still open when the grace window closes.
    let h = svc
        .call(Record::build().field("x", -1i64).finish())
        .unwrap();
    let report = svc.drain(Duration::from_millis(20));
    assert_eq!(report.completed, 2);
    assert_eq!(report.faulted, 0);
    assert_eq!(report.stranded, 1);
    let r = h.wait_deadline(Instant::now() + Duration::from_secs(10));
    assert!(
        matches!(r, Err(CallError::ServiceStopped)),
        "stranded request resolves, never hangs: {r:?}"
    );
}

#[test]
fn drain_with_ample_grace_strands_nothing() {
    let svc = sleepy_service();
    let h = svc
        .call(Record::build().field("x", 50i64).finish())
        .unwrap();
    let report = svc.drain(Duration::from_secs(10));
    assert_eq!(report.stranded, 0);
    assert_eq!(report.completed, 1);
    assert!(h
        .wait_deadline(Instant::now() + Duration::from_secs(1))
        .is_ok());
}

// ---------------------------------------------------------------------------
// The acceptance run: 1% seeded chaos, Restart policy, 10k requests.
// ---------------------------------------------------------------------------

#[test]
fn chaos_serve_acceptance_10k_requests_no_hangs() {
    // ISSUE 8 acceptance: under a seeded 1% panic rate with the
    // Restart policy, a 10k-request serve run completes with zero
    // caller hangs; affected requests resolve as Faulted within the
    // deadline; unaffected requests are neither lost nor misrouted;
    // and `runtime/component_panics` matches the injected count.
    //
    // (Chaos decisions are per record, so a poisoned record panics on
    // every restart attempt and terminally skips: injected == panics
    // == faulted, and restarts == 2 x injected.)
    let echo = |r: &Record, e: &mut snet_runtime::Emitter| e.emit(r.clone());
    let one_box = NetBuilder::from_source("box f (x) -> (x); net main = f;")
        .unwrap()
        .bind("f", echo);
    serve_under_chaos(under_chaos(one_box), 1250);

    // `Restart` declines fan fusion (`fan_fusable_here`), so every
    // split lane, parallel branch and star level below runs on its own
    // dispatcher. This case is the one check that injects panics into
    // such lanes behind the `Service` door.
    let fans = NetBuilder::from_source(
        "box f (x) -> (x);
         box step (x, <lvl>) -> (x, <lvl>);
         net main = f .. (f !! <k>) .. (f || [{y} -> {x=y}])
                 .. (step ** {<lvl>} if <lvl> > 2);",
    )
    .unwrap()
    .bind("f", echo)
    .bind("step", |r: &Record, e: &mut snet_runtime::Emitter| {
        let mut out = r.clone();
        out.set_tag("lvl", r.tag("lvl").unwrap() + 1);
        e.emit(out);
    });
    let net = under_chaos(fans);
    assert!(net.threads_spawned() > 4, "fans fused: 4 spine parts");
    serve_under_chaos(net, 250);
}

/// `b` under the acceptance run's faults: a seeded 1% panic rate and
/// `Restart { 2, 1 ms }`. CI pins SNET_CHAOS_SEED; locally the default
/// replays the same run.
fn under_chaos(b: NetBuilder) -> Net {
    let seed: u64 = std::env::var("SNET_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0x5EED);
    b.fault_policy(FaultPolicy::Restart {
        max_retries: 2,
        backoff: Duration::from_millis(1),
    })
    .chaos(ChaosConfig::new(seed, 0.01))
    .build("main")
    .unwrap()
}

/// Eight callers issue `per_caller` requests each — `{x, <k>, <lvl>}`
/// with `<k>` cycling through 4 values and `<lvl>` through 3 (1 to 3
/// star levels) — and every outcome is accounted against the net's
/// fault counters.
fn serve_under_chaos(net: Net, per_caller: usize) {
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
    // demux or a pathological queue, not a slow runner.
    latencies.sort();
    let p99 = latencies[latencies.len() * 99 / 100];
    assert!(p99 < Duration::from_secs(2), "p99 {p99:?}");
    let m = Arc::clone(svc.metrics());
    let injected = m.get("runtime/chaos_injected");
    assert!(injected > 0, "1% of {total} must inject");
    assert_eq!(m.get("runtime/component_panics"), injected);
    assert_eq!(m.get("serve/faulted"), faulted);
    assert_eq!(
        faulted, injected,
        "every injected panic resolved one caller"
    );
    assert_eq!(m.sum_matching("restarts"), 2 * injected);
    assert_eq!(m.get("serve/stray"), 0);
    let report = Arc::try_unwrap(svc)
        .unwrap_or_else(|_| panic!("all callers done"))
        .drain(Duration::from_secs(10));
    assert_eq!(report.stranded, 0);
    assert_eq!(report.completed, ok);
    assert_eq!(report.faulted, faulted);
}
