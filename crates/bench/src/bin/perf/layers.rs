//! The traced invocation (`--trace 1`): every per-layer metric, by
//! name. It is a run of its own — end-to-end metrics always come from
//! the untraced run — made of a shortened measured run (for the load,
//! noise, scheduler and stream rows), the traced single-operation run
//! (the layer table), and the primitive ledger.

use crate::host;
use crate::ledger;
use crate::load::{self, Conn, Counts};
use crate::run::{self, Measured, Plan};
use crate::stats;
use crate::trace::{self, CpuMeter, Table, Tracer};
use crate::workloads::{self, plain, Door, Workload};
use snet_runtime::{Executor, WorkStealingPool};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Length of the host-speed probes around a phase of the traced
/// invocation.
const PROBE: Duration = Duration::from_millis(10);

/// Every box any workload binds: a run reports `stage.<box>.self_us`
/// for all of them, 0 for those its net does not contain.
pub const BOXES: [&str; 9] = [
    "computeOpts",
    "solveOneLevel",
    "solveOneLevelK",
    "calibrate",
    "analyze",
    "summarize",
    "blur",
    "grad",
    "energy",
];

pub struct Layers {
    pub counts: Counts,
    pub metrics: BTreeMap<String, f64>,
    pub table: Table,
    pub measured: Measured,
    /// The open-loop phase could not hold the workload's rate: the
    /// `load.p*` rows describe a growing queue.
    pub paced_overloaded: bool,
}

fn sum_suffix(snapshot: &BTreeMap<String, u64>, suffix: &str) -> f64 {
    snapshot
        .iter()
        .filter(|(k, _)| k.ends_with(suffix))
        .fold(0.0, |sum, (_, v)| sum + *v as f64)
}

/// The traced single-operation run: box functions shimmed, one
/// observer on every edge, one operation in flight. Returns the layer
/// table (as measured) and the host's slowdown while it was taken.
fn traced(w: &Workload, limit: Duration, counts: &mut Counts) -> (Table, f64) {
    let tracer = Tracer::new(w.boxes.iter().map(|(n, _)| *n).collect());
    let observer = tracer.observer();
    let (slowdown, _) = load::with_door(
        w,
        &|name, body| tracer.wrap(name, body),
        |b| b.observe(observer),
        |c: &mut dyn Conn, _| {
            let mut next = 0u64;
            load::unloaded(c, w, &mut next, limit / 8, 200, counts);
            let end = Instant::now() + limit;
            // Indices the warm-up used carry stamps but no loader
            // bracket; the table skips them.
            run::with_slowdown(w, PROBE, || {
                while Instant::now() < end && next < 200 + 1000 {
                    let start = Instant::now();
                    c.submit(next, w.request(next));
                    let sent = Instant::now();
                    let Some(d) = c.next_done(true) else { break };
                    let woke = Instant::now();
                    counts.attempted += 1;
                    counts.failed += u64::from(!d.ok);
                    tracer.operation(next, start, sent, d.at, woke);
                    next += 1;
                }
            })
            .1
        },
    );
    let door = match w.door {
        Door::Service => "serve",
        Door::Fifo => "net",
    };
    (trace::table(&tracer, door), slowdown)
}

/// Median round trip of a lone caller, µs at nominal host speed, on
/// `w` as built by `configure`.
fn unloaded_p50(
    w: &Workload,
    configure: impl FnOnce(snet_runtime::NetBuilder) -> snet_runtime::NetBuilder,
    limit: Duration,
    counts: &mut Counts,
) -> f64 {
    let ((mut lat, slowdown), _) = load::with_door(w, &plain, configure, |c: &mut dyn Conn, _| {
        let mut next = 0u64;
        load::unloaded(c, w, &mut next, limit / 8, 200, counts);
        run::with_slowdown(w, PROBE, || {
            load::unloaded(c, w, &mut next, limit, 4000, counts)
        })
    });
    stats::median(&mut lat) / slowdown
}

/// The open-loop phase: `rounds` times `length` at the workload's fixed
/// rate against one long-lived net, each between two probes. Returns
/// every latency (intended send time → completion stamp) and every
/// send's lateness, µs at nominal host speed, and whether the net kept
/// up: a phase that ends with more than a window in flight was
/// overloaded, and more than a tenth of them overloaded is a queue
/// that grows (one stall of a few milliseconds at a phase's end is the
/// host's).
fn paced(
    w: &Workload,
    rounds: usize,
    length: Duration,
    counts: &mut Counts,
) -> (Vec<f64>, Vec<f64>, bool) {
    let mut lat = Vec::new();
    let mut late = Vec::new();
    let mut over = 0;
    load::with_door(
        w,
        &plain,
        |b| b,
        |c: &mut dyn Conn, _| {
            let mut next = 0u64;
            load::warm_up(c, w, &mut next, 500, length, counts);
            for _ in 0..rounds {
                let (round, slowdown) = run::with_slowdown(w, PROBE, || {
                    load::paced(c, w, &mut next, w.rate, length, counts)
                });
                lat.extend(round.lat_us.iter().map(|l| l / slowdown));
                late.extend(round.late_us.iter().map(|l| l / slowdown));
                over += usize::from(round.inflight_end > w.window);
            }
        },
    );
    (lat, late, over * 10 <= rounds)
}

/// Share of a saturated run's process CPU spent inside box functions
/// (their own threads, plus the `sacarray` pool workers their
/// with-loops fan out to).
fn box_cpu_share(w: &Workload, plan: &Plan, counts: &mut Counts) -> f64 {
    let meter = CpuMeter::new();
    let ((boxes_us, workers_us, process_us), _) = load::with_door(
        w,
        &|name, body| meter.wrap(name, body),
        |b| b,
        |c: &mut dyn Conn, _| {
            let mut next = 0u64;
            load::warm_up(c, w, &mut next, 500, plan.warm_limit, counts);
            // All three clocks bracket the whole call, ramp and tail
            // included, so they cover the same work.
            let before = meter.total_us();
            let workers = host::threads_cpu_ns("sacarray-worker");
            let process = host::usage();
            load::saturate(c, w, &mut next, 12, plan.sat / 2, counts);
            (
                meter.total_us() - before,
                (host::threads_cpu_ns("sacarray-worker") - workers) as f64 / 1e3,
                host::usage().since(&process).cpu_us(),
            )
        },
    );
    if process_us > 0.0 {
        (boxes_us + workers_us) / process_us
    } else {
        0.0
    }
}

/// Saturated throughput (median of 12 segments, operations/s) and a
/// lone caller's median round trip (µs) of `w` on `executor` (`None`:
/// the default), both at nominal host speed.
fn on_executor(
    w: &Workload,
    plan: &Plan,
    executor: Option<Arc<dyn Executor>>,
    counts: &mut Counts,
) -> (f64, f64) {
    let with = |b: snet_runtime::NetBuilder| match &executor {
        Some(e) => b.executor(Arc::clone(e)),
        None => b,
    };
    let ((round, slowdown), _) = load::with_door(w, &plain, with, |c: &mut dyn Conn, _| {
        let mut next = 0u64;
        load::warm_up(c, w, &mut next, 500, plan.warm_limit, counts);
        run::with_slowdown(w, PROBE, || {
            load::saturate(c, w, &mut next, 12, plan.sat / 2, counts)
        })
    });
    let p50 = unloaded_p50(w, with, plan.sat * 3, counts);
    (stats::median(&mut round.seg_rates.clone()) * slowdown, p50)
}

/// The pieces of a cold start, µs each (medians), timed one call at a
/// time through the public functions `NetBuilder::build` is made of.
fn cold_breakdown(w: &Workload, reps: usize) -> [(&'static str, f64); 6] {
    let mut parse = Vec::new();
    let mut infer = Vec::new();
    let mut compile = Vec::new();
    let mut build = Vec::new();
    let mut first = Vec::new();
    let mut teardown = Vec::new();
    let us = |t: Instant| t.elapsed().as_secs_f64() * 1e6;
    for i in 0..reps as u64 {
        let t = Instant::now();
        let program = snet_lang::parse_program(&w.source).expect("workload program parses");
        parse.push(us(t));
        let t = Instant::now();
        let env = program.env().expect("workload program type-checks");
        let body = &program.net("main").expect("net main").body;
        std::hint::black_box(body.infer(&env).expect("net main type-checks"));
        infer.push(us(t));
        let mut bindings = snet_runtime::Bindings::new();
        for (name, body) in &w.boxes {
            let f = plain(name, body.clone());
            bindings = bindings.bind(name, move |r, e| f(r, e));
        }
        let t = Instant::now();
        std::hint::black_box(snet_runtime::compile(body, &env, &bindings).expect("compiles"));
        compile.push(us(t));

        let t = Instant::now();
        let net = w.build(&plain).expect("workload net builds");
        build.push(us(t));
        let t = Instant::now();
        net.send(w.request(i)).expect("request enters the net");
        std::hint::black_box(net.recv());
        first.push(us(t));
        let t = Instant::now();
        std::hint::black_box(net.finish());
        teardown.push(us(t));
    }
    [
        ("lang.parse_us", stats::median(&mut parse)),
        ("lang.infer_us", stats::median(&mut infer)),
        ("plan.compile_us", stats::median(&mut compile)),
        ("net.build_us", stats::median(&mut build)),
        ("net.first_out_us", stats::median(&mut first)),
        ("net.teardown_us", stats::median(&mut teardown)),
    ]
}

/// One traced invocation of `w` sized for `--seconds seconds`.
pub fn run(w: &Workload, seed: u64, seconds: f64) -> Layers {
    let mut out: BTreeMap<String, f64> = BTreeMap::new();
    let mut counts = Counts::default();
    let slice = |share: f64| Duration::from_secs_f64(seconds * share);

    // 1. A shortened measured run.
    let plan = Plan {
        rounds: 10,
        ..Plan::for_seconds(seconds)
    };
    let m = run::measure(w, &plan);
    counts.attempted += m.counts.attempted;
    counts.failed += m.counts.failed;
    let ops = m.sat_ops().max(1) as f64;
    let usage = m.sat_usage();
    let rounds = || m.rounds.iter();
    let (mut paced_lat, mut late, paced_kept_up) = paced(w, 10, slice(0.0075), &mut counts);
    let (throughput, latency, cpu) = (
        m.throughput_ops_s(w),
        m.latency_p50_us(w),
        m.cpu_us_per_op(w),
    );
    out.insert("load.cpu_us_per_op".into(), cpu.value());
    out.insert("load.raw_throughput_ops_s".into(), throughput.raw_median());
    out.insert("load.raw_latency_p50_us".into(), latency.raw_median());
    let mut slowdowns = m.slowdowns(w);
    out.insert("host.slowdown".into(), stats::median(&mut slowdowns));
    out.insert(
        "host.slowdown_iqr_share".into(),
        stats::iqr_share(&mut slowdowns),
    );
    out.insert("load.paced_p50_us".into(), stats::median(&mut paced_lat));
    out.insert("load.p90_us".into(), stats::quantile(&mut paced_lat, 0.90));
    out.insert("load.p99_us".into(), stats::quantile(&mut paced_lat, 0.99));
    out.insert(
        "load.p999_us".into(),
        stats::quantile(&mut paced_lat, 0.999),
    );
    out.insert("load.late_p99_us".into(), stats::quantile(&mut late, 0.99));
    out.insert("load.sat_p50_us".into(), m.sat_p50_us(w).value());
    out.insert(
        "noise.throughput_iqr_share".into(),
        stats::iqr_share(&mut throughput.at_nominal.clone()),
    );
    out.insert(
        "noise.p50_iqr_share".into(),
        stats::iqr_share(&mut latency.at_nominal.clone()),
    );
    out.insert("host.calib_ms".into(), m.calib_before_ms);
    out.insert("sched.vcsw_per_op".into(), usage.vcsw as f64 / ops);
    out.insert("sched.icsw_per_op".into(), usage.icsw as f64 / ops);
    out.insert(
        "sched.sys_share".into(),
        usage.sys_us / usage.cpu_us().max(1.0),
    );
    let loader_us: f64 = rounds().map(|r| r.sat.loader_cpu_us).sum();
    out.insert(
        "harness.cpu_share".into(),
        loader_us / usage.cpu_us().max(1.0),
    );
    let total_ops = m.counts.attempted.max(1) as f64;
    out.insert(
        "stream.credit_stalls_per_kop".into(),
        m.snapshot
            .get("runtime/credit_stalls")
            .copied()
            .unwrap_or(0) as f64
            / total_ops
            * 1e3,
    );
    out.insert(
        "stream.depth_max".into(),
        m.snapshot.get("runtime/stream_depth").copied().unwrap_or(0) as f64,
    );
    let requests = m.snapshot.get("serve/requests").copied().unwrap_or(0) as f64;
    out.insert(
        "serve.slot_reuse_share".into(),
        m.snapshot.get("serve/slot_reuse").copied().unwrap_or(0) as f64 / requests.max(1.0),
    );
    out.insert(
        "serve.stray".into(),
        m.snapshot.get("serve/stray").copied().unwrap_or(0) as f64,
    );
    out.insert(
        "metrics.interner_paths".into(),
        m.snapshot
            .get("runtime/interner_paths")
            .copied()
            .unwrap_or(0) as f64,
    );
    out.insert("metrics.snapshot_us".into(), m.snapshot_us);
    out.insert("net.components".into(), sum_suffix(&m.snapshot, "/spawned"));
    out.insert(
        "net.replicas_spawned".into(),
        sum_suffix(&m.snapshot, "/stages") + sum_suffix(&m.snapshot, "/branches"),
    );

    // 2. One operation in flight: untraced, then traced.
    let untraced_p50 = unloaded_p50(w, |b| b, slice(0.05), &mut counts);
    out.insert("load.unloaded_p50_us".into(), untraced_p50);
    let (table, traced_slowdown) = traced(w, slice(0.06), &mut counts);
    out.insert(
        "trace.overhead_share".into(),
        if untraced_p50 > 0.0 {
            table.p50_us / traced_slowdown / untraced_p50 - 1.0
        } else {
            0.0
        },
    );
    out.insert("trace.reconcile_gap_share".into(), table.gap_share);
    // The table is printed as measured; the rows taken from it are
    // brought to nominal host speed like every other time.
    let p50_of = |layer: &str| table.p50_of(layer) / traced_slowdown;
    let serve = |layer: &str| match w.door {
        Door::Service => p50_of(layer),
        Door::Fifo => 0.0,
    };
    out.insert("serve.ingress_us".into(), serve("serve.ingress"));
    out.insert("serve.wake_us".into(), serve("serve.wake"));
    // Call return → completion stamp, minus the box functions' own
    // time: everything the coordination layer did for the request.
    let busy = table.p50_sum("stage.") / traced_slowdown;
    let all = table.rows.iter().map(|r| r.p50_us).sum::<f64>() / traced_slowdown;
    out.insert(
        "serve.transit_us".into(),
        match w.door {
            Door::Service => all - busy - serve("serve.ingress") - serve("serve.wake"),
            Door::Fifo => 0.0,
        },
    );
    out.insert("stage.busy_us_per_op".into(), busy);
    out.insert(
        "stage.edge_wait_us_per_op".into(),
        p50_of("stream") + p50_of("fused"),
    );
    out.insert("stage.hops_per_op".into(), table.hops_per_op);
    for b in BOXES {
        out.insert(format!("stage.{b}.self_us"), p50_of(&format!("stage.{b}")));
    }

    // 3. Where a saturated run's CPU goes.
    out.insert(
        "stage.cpu_share".into(),
        box_cpu_share(w, &plan, &mut counts),
    );

    // 4. The same workload on the work-stealing pool.
    let pool = || Some(Arc::new(WorkStealingPool::new(host::cores().max(2))) as Arc<dyn Executor>);
    let (rate, p50) = on_executor(w, &plan, pool(), &mut counts);
    out.insert("sched.pool.throughput_ops_s".into(), rate);
    out.insert("sched.pool.unloaded_p50_us".into(), p50);

    // 5. The door tax: the sensor net, one operation in flight, through
    // the Service door minus through the FIFO door.
    let mut tax_counts = Counts::default();
    let via = |door: Door, counts: &mut Counts| {
        let mut sensor =
            workloads::make("serve-sensor", seed, true).expect("a workload of this harness");
        sensor.door = door;
        unloaded_p50(&sensor, |b| b, slice(0.025), counts)
    };
    let tax = via(Door::Service, &mut tax_counts) - via(Door::Fifo, &mut tax_counts);
    out.insert("serve.door_tax_us".into(), tax);
    counts.attempted += tax_counts.attempted;
    counts.failed += tax_counts.failed;

    // 6. Cold start, piece by piece; the reference; the generator.
    let (pieces, slowdown) = run::with_slowdown(w, PROBE, || cold_breakdown(w, 12));
    for (name, us) in pieces {
        out.insert(name.to_string(), us / slowdown);
    }
    // The reference as the run's probes measured it, and the
    // coordination factor the paper argues is small: CPU per operation
    // through the net over CPU per operation without one, same moment.
    out.insert(
        "reference.us_per_op".into(),
        stats::median(&mut m.slowdowns(w)) * w.ref_us,
    );
    out.insert("reference.net_over_pure".into(), cpu.value() / w.ref_us);
    let mut i = 0u64;
    out.insert(
        "harness.gen_ns_per_op".into(),
        ledger::ns_per(slice(0.003), 1024, || {
            std::hint::black_box(w.request(i));
            i += 1;
        }),
    );

    // 7. The primitive ledger.
    for (name, v) in ledger::primitives(slice(0.003)) {
        out.insert(name.to_string(), v);
    }

    let calib_after = host::calib_ms();
    out.insert(
        "host.calib_drift_share".into(),
        (calib_after - m.calib_before_ms).abs() / m.calib_before_ms.max(1e-9),
    );
    Layers {
        counts,
        metrics: out,
        table,
        measured: m,
        paced_overloaded: !paced_kept_up,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A box a workload binds but `BOXES` does not list would lose its
    /// `stage.<box>.self_us` row without anyone noticing.
    #[test]
    fn every_bound_box_has_a_row() {
        for name in workloads::names() {
            let w = workloads::make(name, 1, true).unwrap();
            for (b, _) in &w.boxes {
                assert!(BOXES.contains(b), "{name}: box {b} has no row");
            }
        }
    }
}
