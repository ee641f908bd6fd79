//! The traced run: one operation in flight, every layer boundary
//! stamped from outside the runtime, and a layer table whose rows sum
//! to the operation's round trip.
//!
//! Stamps come from three places, all in this directory: the loader
//! (before and after the call into the front door, on completion, on
//! wake), a `stream::Observer` (every record entering a box, filter,
//! dispatcher or star guard, and every record a box or filter emits),
//! and a shim around each bound box function (entry, result computed,
//! exit). Nothing inside the runtime is instrumented.
//!
//! An operation's stamps, sorted, cut its round trip into consecutive
//! intervals; each interval is one leaf span, named for the layer that
//! held the record during it. The spans of one operation therefore
//! tile it exactly: Σ self time = round trip, by construction. What the
//! table then checks is the weaker, useful statement — that the
//! per-layer *medians* add up to the median round trip, i.e. that no
//! layer's cost hides in another's tail.

use crate::stats;
use crate::workloads::{probe, Body, BoxFn};
use snet_runtime::{Dir, Emitter, Observer};
use snet_types::Record;
use std::cell::Cell;
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// What a stamp marks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Mark {
    /// A record entered a component of this kind (observer, `In`).
    Enter { comp: Comp },
    /// A component emitted a record (observer, `Out`); `boxi` names
    /// the box when it is one.
    Emit { comp: Comp, boxi: u16 },
    /// The box function was entered (shim).
    BoxIn { boxi: u16 },
    /// The box function has its result and is about to emit it (shim;
    /// only boxes written as `record → record` have this point).
    BoxComputed { boxi: u16 },
    /// The box function returned (shim).
    BoxOut { boxi: u16, computed: bool },
    /// Loader: about to call into the front door.
    Start,
    /// Loader: the call into the front door returned.
    Sent,
    /// The completion stamp (demux or receiver thread).
    Completed,
    /// Loader: the checked response is in hand.
    Woke,
}

#[derive(Clone, Copy)]
struct Stamp {
    at_ns: u64,
    op: u64,
    thread: u32,
    mark: Mark,
}

/// The kinds of component an observer path can end in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Comp {
    Box,
    Filter,
    Split,
    Parallel,
    Star,
}

fn comp_of(path: &str) -> Comp {
    let last = path.rsplit('/').next().unwrap_or(path);
    if last.starts_with("box:") {
        Comp::Box
    } else if last == "filter" {
        Comp::Filter
    } else if last == "guard" {
        Comp::Star
    } else if last.starts_with("split") {
        Comp::Split
    } else {
        Comp::Parallel
    }
}

thread_local! {
    /// The operation whose record this thread last saw enter a
    /// component: the box shim runs right after the observer on the
    /// same thread, and sees only the box's declared labels.
    static CURRENT_OP: Cell<u64> = const { Cell::new(u64::MAX) };
    static THREAD_ID: Cell<u32> = const { Cell::new(0) };
}

/// Collects stamps from every thread of a traced run.
pub struct Tracer {
    origin: Instant,
    stamps: Mutex<Vec<Stamp>>,
    boxes: Vec<&'static str>,
    next_thread: std::sync::atomic::AtomicU32,
}

impl Tracer {
    pub fn new(boxes: Vec<&'static str>) -> Arc<Tracer> {
        Arc::new(Tracer {
            origin: Instant::now(),
            stamps: Mutex::new(Vec::new()),
            boxes,
            next_thread: std::sync::atomic::AtomicU32::new(1),
        })
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    fn thread(&self) -> u32 {
        THREAD_ID.with(|id| {
            if id.get() == 0 {
                id.set(
                    self.next_thread
                        .fetch_add(1, std::sync::atomic::Ordering::Relaxed),
                );
            }
            id.get()
        })
    }

    fn push(&self, at: Instant, op: u64, mark: Mark) {
        let stamp = Stamp {
            at_ns: self.ns(at),
            op,
            thread: self.thread(),
            mark,
        };
        self.stamps
            .lock()
            .expect("no stamping thread panics")
            .push(stamp);
    }

    /// The registered box a component path ends in (0 if it ends in
    /// something else).
    fn box_index(&self, path: &str) -> u16 {
        path.rsplit("box:")
            .next()
            .and_then(|name| self.boxes.iter().position(|b| *b == name))
            .unwrap_or(0) as u16
    }

    /// The stream observer: stamps every record it is shown with the
    /// operation the record's probe tag names.
    pub fn observer(self: &Arc<Tracer>) -> Observer {
        let t = Arc::clone(self);
        Arc::new(move |path: &str, dir: Dir, rec: &Record| {
            let at = Instant::now();
            let Some(op) = rec.tag_label(probe()) else {
                return;
            };
            let op = op as u64;
            let comp = comp_of(path);
            match dir {
                Dir::In => {
                    CURRENT_OP.with(|c| c.set(op));
                    t.push(at, op, Mark::Enter { comp });
                }
                Dir::Out => {
                    let boxi = t.box_index(path);
                    t.push(at, op, Mark::Emit { comp, boxi });
                }
            }
        })
    }

    /// The box shim: entry, result computed (where the box has such a
    /// point), exit.
    pub fn wrap(self: &Arc<Tracer>, name: &'static str, body: Body) -> BoxFn {
        let t = Arc::clone(self);
        let boxi = self
            .boxes
            .iter()
            .position(|b| *b == name)
            .expect("every bound box is registered") as u16;
        match body {
            Body::Emits(f) => Arc::new(move |r: &Record, e: &mut Emitter| {
                let op = CURRENT_OP.with(Cell::get);
                t.push(Instant::now(), op, Mark::BoxIn { boxi });
                f(r, e);
                let computed = false;
                t.push(Instant::now(), op, Mark::BoxOut { boxi, computed });
            }),
            Body::Maps(f) => Arc::new(move |r: &Record, e: &mut Emitter| {
                let op = CURRENT_OP.with(Cell::get);
                t.push(Instant::now(), op, Mark::BoxIn { boxi });
                let out = f(r);
                t.push(Instant::now(), op, Mark::BoxComputed { boxi });
                e.emit(out);
                let computed = true;
                t.push(Instant::now(), op, Mark::BoxOut { boxi, computed });
            }),
        }
    }

    /// The loader's four stamps for one operation.
    pub fn operation(&self, op: u64, start: Instant, sent: Instant, done: Instant, woke: Instant) {
        let mut stamps = self.stamps.lock().expect("no stamping thread panics");
        let thread = 0;
        for (at, mark) in [
            (start, Mark::Start),
            (sent, Mark::Sent),
            (done, Mark::Completed),
            (woke, Mark::Woke),
        ] {
            stamps.push(Stamp {
                at_ns: self.ns(at),
                op,
                thread,
                mark,
            });
        }
    }
}

/// A span: one node of an operation's tree.
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the parent span in the same list; `None` for a root.
    pub parent: Option<usize>,
    pub op: u64,
}

/// One row of the layer table.
#[derive(Debug)]
pub struct LayerRow {
    pub layer: String,
    /// Leaf spans with this name.
    pub count: u64,
    /// Σ self time, µs.
    pub total_us: f64,
    /// Median over operations of the layer's self time within one
    /// operation, µs.
    pub p50_us: f64,
    /// Σ self ÷ Σ round trips.
    pub share: f64,
}

pub struct Table {
    pub rows: Vec<LayerRow>,
    pub ops: usize,
    /// Median round trip of the traced operations, µs.
    pub p50_us: f64,
    /// |Σ layer p50 − round-trip p50| ÷ round-trip p50.
    pub gap_share: f64,
    /// Records entering a component, per operation.
    pub hops_per_op: f64,
    pub spans: Vec<Span>,
}

impl Table {
    pub fn p50_of(&self, layer: &str) -> f64 {
        self.rows
            .iter()
            .find(|r| r.layer == layer)
            .map_or(0.0, |r| r.p50_us)
    }

    /// Σ p50 of the rows whose name starts with `prefix`.
    pub fn p50_sum(&self, prefix: &str) -> f64 {
        self.rows
            .iter()
            .filter(|r| r.layer.starts_with(prefix))
            .map(|r| r.p50_us)
            .sum()
    }

    pub fn print(&self, title: &str) {
        println!(
            "layer table: {title}, {} operations, one in flight",
            self.ops
        );
        println!(
            "  {:<28} {:>9} {:>13} {:>11} {:>7}",
            "layer", "count", "sum self us", "p50 self us", "share"
        );
        for r in &self.rows {
            println!(
                "  {:<28} {:>9} {:>13.1} {:>11.2} {:>6.1}%",
                r.layer,
                r.count,
                r.total_us,
                r.p50_us,
                r.share * 100.0
            );
        }
        let sum: f64 = self.rows.iter().map(|r| r.p50_us).sum();
        println!(
            "  sum of layer p50 {:.2} us vs round-trip p50 {:.2} us: gap {:.1}%",
            sum,
            self.p50_us,
            self.gap_share * 100.0
        );
    }

    /// Writes the spans as JSON lines: name, start, end (ns since the
    /// tracer's origin), parent (line index within the file, or null),
    /// operation index.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start\":{},\"end\":{},\"parent\":{},\"op\":{}}}",
                s.name, s.start_ns, s.end_ns, parent, s.op
            )?;
        }
        out.flush()
    }
}

/// The layer that held the record during the interval that `cur`
/// ends, given the stamp before it.
fn layer_of(t: &Tracer, prev: &Stamp, cur: &Stamp, door: &str) -> String {
    let stage = |boxi: u16| format!("stage.{}", t.boxes[boxi as usize]);
    match cur.mark {
        Mark::Start | Mark::Sent => format!("{door}.ingress"),
        Mark::Woke => format!("{door}.wake"),
        // Accepting a record into a box: plan lookup, split.
        Mark::BoxIn { .. } => "boxfn".to_string(),
        Mark::BoxComputed { boxi } => stage(boxi),
        // After the result was computed the box function only emits:
        // flow inheritance and the send, again `boxfn`. A box without
        // that point interleaves computing and emitting.
        Mark::BoxOut { computed: true, .. } => "boxfn".to_string(),
        Mark::BoxOut { boxi, .. } => stage(boxi),
        Mark::Emit {
            comp: Comp::Filter, ..
        } => "filter_exec".to_string(),
        // An emit of a box: flow inheritance if its result was already
        // computed, else its computing so far.
        Mark::Emit { boxi, .. } => match prev.mark {
            Mark::BoxComputed { .. } => "boxfn".to_string(),
            _ => stage(boxi),
        },
        // The record reached the next component (or left the net):
        // whoever held it since the previous stamp had it.
        // The last stretch — last edge, merge, demux or `recv` — is
        // the door's, whoever handed the record over.
        Mark::Completed => format!("{door}.egress"),
        Mark::Enter { .. } => match prev.mark {
            Mark::Enter { comp: Comp::Split } => "split".to_string(),
            Mark::Enter {
                comp: Comp::Parallel,
            } => "parallel".to_string(),
            Mark::Enter { comp: Comp::Star } => "star".to_string(),
            // Same thread, no dispatcher in between: the next stage of
            // a fused run, called on the emitter's stack.
            _ if prev.thread == cur.thread => "fused".to_string(),
            // Another thread picked it up: an edge, with whatever
            // merge sits on it.
            _ => "stream".to_string(),
        },
    }
}

/// Cuts every traced operation into leaf spans and folds them into the
/// layer table. `door` prefixes the loader's own layers (`serve` or
/// `net`).
pub fn table(t: &Tracer, door: &str) -> Table {
    let mut stamps = std::mem::take(&mut *t.stamps.lock().expect("tracing has ended"));
    stamps.sort_by_key(|s| (s.op, s.at_ns));
    let mut spans = Vec::new();
    // Per layer: leaf count, and self time per operation.
    let mut per_layer: BTreeMap<String, (u64, Vec<f64>)> = BTreeMap::new();
    let mut trips = Vec::new();
    let mut hops = 0u64;
    for ops in stamps.chunk_by(|a, b| a.op == b.op) {
        // An operation the loader did not bracket (a warm-up request)
        // has no `Woke`.
        let Some(end) = ops.iter().find(|s| s.mark == Mark::Woke).map(|s| s.at_ns) else {
            continue;
        };
        // Stamps a straggler of the previous use of this index left
        // before the loader started cannot exist: indices are unique.
        let start = ops[0].at_ns;
        let op = ops[0].op;
        let root = spans.len();
        spans.push(Span {
            name: "op".to_string(),
            start_ns: start,
            end_ns: end,
            parent: None,
            op,
        });
        trips.push((end - start) as f64 / 1e3);
        let mut mine: BTreeMap<String, f64> = BTreeMap::new();
        for pair in ops.windows(2) {
            let (prev, cur) = (&pair[0], &pair[1]);
            // Work the net still does for this operation after its
            // response was delivered (dead search branches) is not on
            // the round trip.
            if cur.at_ns > end {
                break;
            }
            if matches!(cur.mark, Mark::Enter { .. }) {
                hops += 1;
            }
            let layer = layer_of(t, prev, cur, door);
            *mine.entry(layer.clone()).or_default() += (cur.at_ns - prev.at_ns) as f64 / 1e3;
            per_layer.entry(layer.clone()).or_default().0 += 1;
            spans.push(Span {
                name: layer,
                start_ns: prev.at_ns,
                end_ns: cur.at_ns,
                parent: Some(root),
                op,
            });
        }
        for (layer, us) in mine {
            per_layer.entry(layer).or_default().1.push(us);
        }
    }
    let ops = trips.len();
    let total: f64 = trips.iter().sum();
    let p50_us = stats::median(&mut trips);
    let rows: Vec<LayerRow> = per_layer
        .into_iter()
        .map(|(layer, (count, mut per_op))| {
            let total_us: f64 = per_op.iter().sum();
            // An operation that never touched the layer spent 0 there.
            per_op.resize(ops, 0.0);
            LayerRow {
                layer,
                count,
                total_us,
                p50_us: stats::median(&mut per_op),
                share: if total > 0.0 { total_us / total } else { 0.0 },
            }
        })
        .collect();
    let sum: f64 = rows.iter().map(|r| r.p50_us).sum();
    Table {
        gap_share: if p50_us > 0.0 {
            (sum - p50_us).abs() / p50_us
        } else {
            0.0
        },
        rows,
        ops,
        p50_us,
        hops_per_op: hops as f64 / ops.max(1) as f64,
        spans,
    }
}

thread_local! {
    /// Thread CPU spent in box functions called (through a fused
    /// emit) from inside the box function now running on this thread.
    static INNER_CPU_NS: Cell<u64> = const { Cell::new(0) };
}

/// Measures the CPU the box functions use, for the share of a
/// saturated run's CPU that is box work: each call is bracketed with
/// the calling thread's CPU clock. A fused run calls the next box from
/// inside the previous one's emit, so a call's own time is its
/// bracket minus the brackets nested in it.
pub struct CpuMeter {
    own_ns: std::sync::atomic::AtomicU64,
    /// What one bracket costs by itself, measured at construction and
    /// taken off every call.
    bracket_ns: u64,
}

impl CpuMeter {
    pub fn new() -> Arc<CpuMeter> {
        let n = 20_000;
        let t0 = crate::host::thread_cpu_ns();
        for _ in 0..n {
            std::hint::black_box(crate::host::thread_cpu_ns());
        }
        Arc::new(CpuMeter {
            own_ns: Default::default(),
            bracket_ns: (crate::host::thread_cpu_ns() - t0) / n,
        })
    }

    pub fn wrap(self: &Arc<CpuMeter>, name: &'static str, body: Body) -> BoxFn {
        let m = Arc::clone(self);
        let f = crate::workloads::plain(name, body);
        Arc::new(move |r: &Record, e: &mut Emitter| {
            let outer = INNER_CPU_NS.with(|c| c.replace(0));
            let t0 = crate::host::thread_cpu_ns();
            f(r, e);
            let dt = crate::host::thread_cpu_ns() - t0;
            let inner = INNER_CPU_NS.with(|c| c.replace(outer + dt));
            m.own_ns.fetch_add(
                dt.saturating_sub(inner + m.bracket_ns),
                std::sync::atomic::Ordering::Relaxed,
            );
        })
    }

    /// CPU inside box functions so far, µs.
    pub fn total_us(&self) -> f64 {
        self.own_ns.load(std::sync::atomic::Ordering::Relaxed) as f64 / 1e3
    }
}
