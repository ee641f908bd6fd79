//! `serve_bench` — the PR 7 open-loop service harness.
//!
//! Drives both service workloads (sudoku Fig. 1, sensor fusion)
//! through the `snet-runtime::serve` front door at a fixed arrival
//! rate and reports sustained RPS + p50/p99/p999 tail latency at
//! steady state, printed as JSON.
//!
//! Two modes:
//!
//! * default (full): per workload, calibrate capacity with a short
//!   closed-loop burst, then run the open loop at ~60 % of measured
//!   capacity for 12 000 requests across 8 concurrent callers.
//!   Asserts zero lost/misrouted responses (the PR's correctness
//!   criterion) and prints the JSON report to stdout.
//! * `--smoke`: a short fixed-rate burst per workload for CI — same
//!   zero-loss assertions plus a generous p99 sanity ceiling, no
//!   JSON. Also times the door pair (`snet_bench::door`: the same
//!   one-box net behind the FIFO door and behind the `Service` door)
//!   and prints the door tax, failing on any stray or lost request.
//!
//! `--chaos` (composable with either mode) enables seeded fault
//! injection for the run: 1 % of records panic at a box boundary
//! under a restart-then-skip policy, set through each workload's
//! builder (`SNET_CHAOS`/`SNET_FAULT_POLICY` override the defaults).
//! The assertions shift accordingly: faulted
//! requests must resolve as typed errors (and there must be some —
//! otherwise injection never engaged), *unaffected* requests must
//! still complete losslessly with a bounded p99, and
//! `completed + faulted` must account for every request sent.
//!
//! The arrival schedule and latency bookkeeping live in
//! `snet_runtime::serve` ([`run_open_loop`]); this binary only picks
//! rates, formats JSON and enforces the assertions.

use snet_bench::door;
use snet_bench::workloads::{sensor_workload, sudoku_workload, Configure, ServeWorkload};
use snet_runtime::{
    run_open_loop, CallError, ChaosConfig, FaultPolicy, LoadReport, NetBuilder, OpenLoopCfg,
    RunCfg, Service,
};
use std::time::{Duration, Instant};

/// Closed-loop capacity probe: `callers` threads issue request/wait
/// pairs for `window`; completions per second estimate the service
/// rate the open loop must stay under to be stable.
fn calibrate(wl: &ServeWorkload, configure: Configure, callers: usize, window: Duration) -> f64 {
    let svc = Service::start((wl.build)(configure).expect("workload builds"));
    let deadline = Instant::now() + window;
    let total: u64 = std::thread::scope(|s| {
        let svc = &svc;
        let threads: Vec<_> = (0..callers)
            .map(|k| {
                s.spawn(move || {
                    let mut done = 0u64;
                    let mut i = k;
                    while Instant::now() < deadline {
                        let h = svc.call((wl.make_req)(i)).expect("calibration call");
                        match h.wait() {
                            Ok(_) => done += 1,
                            // Under --chaos a calibration request may
                            // fault; it still counts as served work.
                            Err(CallError::Faulted { .. }) => done += 1,
                            Err(e) => panic!("calibration response: {e}"),
                        }
                        i += callers;
                    }
                    done
                })
            })
            .collect();
        threads.into_iter().map(|t| t.join().unwrap()).sum()
    });
    svc.shutdown();
    total as f64 / window.as_secs_f64()
}

struct RunRow {
    name: &'static str,
    cfg: OpenLoopCfg,
    capacity_rps: f64,
    report: LoadReport,
}

fn run_workload(
    wl: &ServeWorkload,
    configure: Configure,
    cfg: OpenLoopCfg,
    capacity_rps: f64,
) -> RunRow {
    let svc = Service::start((wl.build)(configure).expect("workload builds"));
    let report = run_open_loop(&svc, &cfg, wl.make_req, wl.check);
    svc.shutdown();
    RunRow {
        name: wl.name,
        cfg,
        capacity_rps,
        report,
    }
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn json(rows: &[RunRow], env: &RunCfg) -> String {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    // What the nets above ran on.
    let default = snet_runtime::sched::default_executor();
    let executor = default.kind();
    let workers = default.os_thread_bound();
    let (fused, bound) = (env.fuse, env.bound);
    let epoch_secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"serve_open_loop\",\n  \"pr\": 7,\n");
    out.push_str(&format!("  \"unix_time\": {epoch_secs},\n"));
    out.push_str("  \"host\": {\n");
    out.push_str(&format!("    \"cores\": {cores},\n"));
    out.push_str(&format!("    \"executor\": \"{executor}\",\n"));
    out.push_str(&format!(
        "    \"workers\": {},\n",
        workers.map_or("null".into(), |w| w.to_string())
    ));
    out.push_str(&format!("    \"fused\": {fused},\n"));
    out.push_str(&format!(
        "    \"stream_bound\": {}\n",
        bound.map_or("null".into(), |b| b.to_string())
    ));
    out.push_str("  },\n  \"workloads\": [\n");
    for (i, row) in rows.iter().enumerate() {
        let r = &row.report;
        out.push_str(&format!(
            "    {{\n      \"name\": \"{}\",\n      \"rate_hz\": {:.1},\n      \
             \"calibrated_capacity_rps\": {:.1},\n      \"total\": {},\n      \
             \"warmup\": {},\n      \"callers\": {},\n      \"sent\": {},\n      \
             \"completed\": {},\n      \"faulted\": {},\n      \"rejected\": {},\n      \
             \"lost\": {},\n      \
             \"misrouted\": {},\n      \"sustained_rps\": {:.1},\n      \
             \"window_secs\": {:.3},\n      \"measured\": {},\n      \
             \"latency_ms\": {{ \"p50\": {:.3}, \"p99\": {:.3}, \"p999\": {:.3}, \
             \"max\": {:.3}, \"mean\": {:.3} }},\n      \
             \"depth_high_water\": {},\n      \"credit_stalls\": {}\n    }}{}\n",
            row.name,
            row.cfg.rate_hz,
            row.capacity_rps,
            row.cfg.total,
            row.cfg.warmup,
            row.cfg.callers,
            r.sent,
            r.completed,
            r.faulted,
            r.rejected,
            r.lost,
            r.misrouted,
            r.sustained_rps,
            r.window_secs,
            r.measured,
            ms(r.p50_ns),
            ms(r.p99_ns),
            ms(r.p999_ns),
            ms(r.max_ns),
            r.mean_ns / 1e6,
            r.depth_high_water,
            r.credit_stalls,
            if i + 1 == rows.len() { "" } else { "," },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

fn print_row(row: &RunRow) {
    let r = &row.report;
    println!(
        "{:<20} rate {:>7.1}/s  sustained {:>7.1}/s  p50 {:>8.3} ms  p99 {:>8.3} ms  \
         p999 {:>8.3} ms  max {:>8.3} ms",
        row.name,
        row.cfg.rate_hz,
        r.sustained_rps,
        ms(r.p50_ns),
        ms(r.p99_ns),
        ms(r.p999_ns),
        ms(r.max_ns),
    );
    println!(
        "{:<20} sent {}  completed {}  faulted {}  rejected {}  lost {}  misrouted {}  \
         depth-hw {}  stalls {}",
        "",
        r.sent,
        r.completed,
        r.faulted,
        r.rejected,
        r.lost,
        r.misrouted,
        r.depth_high_water,
        r.credit_stalls,
    );
}

/// Times the door pair and prints what a request through the
/// `Service` door costs over one through the FIFO door of the same
/// net. A lost, misrouted or stray request is a failure; the timings
/// are for the log.
fn door_tax(failures: &mut Vec<String>) {
    const WARM: u64 = 20_000;
    const OPS: u64 = 200_000;
    let per_op = |t: Instant| t.elapsed().as_nanos() as f64 / OPS as f64;

    let net = door::id_net();
    let mut bad = door::fifo(&net, 0, WARM);
    let t = Instant::now();
    bad += door::fifo(&net, WARM, OPS);
    let fifo_ns = per_op(t);
    bad += net.finish().len() as u64;

    let svc = Service::start(door::id_net());
    bad += door::service(&svc, 0, WARM);
    let t = Instant::now();
    bad += door::service(&svc, WARM, OPS);
    let service_ns = per_op(t);
    let m = std::sync::Arc::clone(svc.metrics());
    svc.shutdown();

    println!(
        "door/fifo_w128 {fifo_ns:.0} ns/op  door/service_w128 {service_ns:.0} ns/op  \
         door tax {:.0} ns/op  (slot reuse {} of {})",
        service_ns - fifo_ns,
        m.get("serve/slot_reuse"),
        m.get("serve/requests"),
    );
    if bad != 0 {
        failures.push(format!("door: {bad} lost or misrouted requests"));
    }
    if m.get("serve/stray") != 0 || m.get("serve/completed") != WARM + OPS {
        failures.push(format!(
            "door: {} stray records, {} of {} requests completed",
            m.get("serve/stray"),
            m.get("serve/completed"),
            WARM + OPS
        ));
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let chaos = std::env::args().any(|a| a == "--chaos");
    // What every net below starts from (a builder reads the same).
    let env = RunCfg::from_env();
    // `--chaos`: deterministic 1 % panic injection under a
    // restart-then-skip policy, each unless the environment pinned its
    // own (`failnet` pins nothing: under injected panics it could only
    // fail the run).
    let injection = chaos.then(|| {
        let chaos = env.chaos.clone().unwrap_or(ChaosConfig::new(4242, 0.01));
        let policy = match env.fault_policy {
            FaultPolicy::FailNet => FaultPolicy::Restart {
                max_retries: 2,
                backoff: Duration::from_millis(1),
            },
            pinned => pinned,
        };
        (chaos, policy)
    });
    let configure = |b: NetBuilder| match &injection {
        Some((chaos, policy)) => b.chaos(chaos.clone()).fault_policy(*policy),
        None => b,
    };
    if let Some((chaos, policy)) = &injection {
        println!("chaos: SNET_CHAOS={chaos:?} SNET_FAULT_POLICY={policy:?}");
        // Injected panics are contained and accounted by the runtime;
        // the default hook's per-panic backtrace would drown the
        // report. Real (non-injected) panics still print.
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<&str>()
                .is_some_and(|s| s.starts_with("chaos:"));
            if !injected {
                prev(info);
            }
        }));
    }
    let workloads = [sudoku_workload(), sensor_workload()];
    let mut rows = Vec::new();
    let mut failures = Vec::new();

    for wl in &workloads {
        let (cfg, capacity) = if smoke {
            (
                OpenLoopCfg {
                    rate_hz: 300.0,
                    total: 1_500,
                    warmup: 150,
                    callers: 4,
                    deadline: Duration::from_secs(20),
                    ..OpenLoopCfg::default()
                },
                0.0,
            )
        } else {
            let capacity = calibrate(wl, &configure, 8, Duration::from_secs(2));
            // 60 % of closed-loop capacity: high enough that queues
            // form and tails are real, low enough that the open loop
            // is stable (arrival < service rate) and steady state
            // exists.
            let rate = (capacity * 0.6).clamp(50.0, 20_000.0);
            (
                OpenLoopCfg {
                    rate_hz: rate,
                    total: 12_000,
                    warmup: 1_000,
                    callers: 8,
                    deadline: Duration::from_secs(60),
                    ..OpenLoopCfg::default()
                },
                capacity,
            )
        };
        println!(
            "[{}] {} requests at {:.1}/s over {} callers{}",
            wl.name,
            cfg.total,
            cfg.rate_hz,
            cfg.callers,
            if smoke {
                " (smoke)".to_string()
            } else {
                format!(" (capacity ≈ {capacity:.1}/s)")
            }
        );
        let row = run_workload(wl, &configure, cfg, capacity);
        print_row(&row);

        let r = &row.report;
        if r.lost != 0 {
            failures.push(format!("{}: {} lost responses", row.name, r.lost));
        }
        if r.misrouted != 0 {
            failures.push(format!("{}: {} misrouted responses", row.name, r.misrouted));
        }
        if r.rejected != 0 {
            // Block policy: nothing should shed.
            failures.push(format!("{}: {} rejected requests", row.name, r.rejected));
        }
        if chaos && r.faulted == 0 {
            failures.push(format!(
                "{}: --chaos set but no request faulted (injection never engaged)",
                row.name
            ));
        }
        if !chaos && r.faulted != 0 {
            failures.push(format!(
                "{}: {} faulted requests without --chaos",
                row.name, r.faulted
            ));
        }
        if r.completed + r.faulted != r.sent {
            failures.push(format!(
                "{}: sent {} but completed {} + faulted {}",
                row.name, r.sent, r.completed, r.faulted
            ));
        }
        if smoke && r.p99_ns > 2_000_000_000 {
            // Generous sanity ceiling (2 s): catches a wedged demux or
            // a pathological queue, not ordinary CI jitter.
            failures.push(format!(
                "{}: p99 {:.1} ms over sanity ceiling",
                row.name,
                ms(r.p99_ns)
            ));
        }
        rows.push(row);
    }

    // Chaos would fault door requests on purpose.
    if smoke && !chaos {
        door_tax(&mut failures);
    }

    if !smoke {
        println!("{}", json(&rows, &env));
    }

    if failures.is_empty() {
        if chaos {
            println!("SERVE OK: zero lost/misrouted; every fault resolved as a typed error");
        } else {
            println!("SERVE OK: all responses correlated, zero lost/misrouted");
        }
    } else {
        for f in &failures {
            eprintln!("SERVE FAIL: {f}");
        }
        std::process::exit(1);
    }
}
