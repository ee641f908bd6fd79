//! The load generator: one loader thread driving a running net
//! through either front door, closed loop (saturate), open loop
//! (paced) or one operation at a time (unloaded).
//!
//! One loader thread, never `nproc` of them: on a 2-vCPU box a second
//! loader competes with the net for both cores, and the throughput it
//! reports swings by a factor of two between runs.

use crate::host::{self, Usage};
use crate::workloads::{probe, Door, Workload, Wrap};
use snet_runtime::{CallHandle, CallOpts, Net, Service};
use snet_types::Record;
use std::collections::VecDeque;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// How long the loader waits for one completion before it declares
/// the net wedged. A bound on the harness, not a latency target.
const GIVE_UP: Duration = Duration::from_secs(20);

/// The probe value of the record that tells the FIFO receiver thread
/// to stop; no request carries it.
const STOP: i64 = -1;

/// One completed operation.
pub struct Done {
    pub i: u64,
    /// The completion stamp: taken by the serve demux, or by the FIFO
    /// receiver thread when `recv` returned.
    pub at: Instant,
    /// The response arrived, was the only one, and passed the oracle.
    pub ok: bool,
}

#[derive(Clone, Copy, Debug, Default)]
pub struct Counts {
    pub attempted: u64,
    pub failed: u64,
}

/// A front door as the loader sees it.
pub trait Conn {
    /// Hands one request to the net; may block on ingress
    /// backpressure. A rejected request is reported as a failed
    /// completion by `next_done`.
    fn submit(&mut self, i: u64, rec: Record);
    /// The next completion. Non-blocking calls return `None` when
    /// nothing has completed yet; blocking calls return `None` only
    /// when nothing is in flight.
    fn next_done(&mut self, block: bool) -> Option<Done>;
    fn inflight(&self) -> usize;
}

struct ServiceConn<'a> {
    svc: &'a Service,
    w: &'a Workload,
    /// Handles in issue order; harvested oldest first (latency comes
    /// from the demux stamp, so a late harvest costs nothing).
    open: VecDeque<(u64, Option<CallHandle>)>,
    /// A completion timed out; stop waiting for the rest.
    wedged: bool,
}

impl Conn for ServiceConn<'_> {
    fn submit(&mut self, i: u64, rec: Record) {
        let h = self.svc.call_with(rec, CallOpts::default()).ok();
        self.open.push_back((i, h));
    }

    fn next_done(&mut self, block: bool) -> Option<Done> {
        let (_, front) = self.open.front()?;
        if !block && front.as_ref().is_some_and(|h| h.completed_at().is_none()) {
            return None;
        }
        let (i, h) = self.open.pop_front()?;
        let patience = if self.wedged { Duration::ZERO } else { GIVE_UP };
        let resp = h.and_then(|h| h.wait_deadline(Instant::now() + patience).ok());
        self.wedged |= resp.is_none();
        Some(match resp {
            Some(resp) => Done {
                i,
                at: resp.completed_at,
                ok: resp.records.len() == 1 && self.w.check(i, &resp.records[0]),
            },
            None => Done {
                i,
                at: Instant::now(),
                ok: false,
            },
        })
    }

    fn inflight(&self) -> usize {
        self.open.len()
    }
}

struct FifoConn<'a> {
    net: &'a Net,
    done: mpsc::Receiver<Done>,
    inflight: usize,
    /// Requests `send` rejected, to be reported as failed.
    rejected: VecDeque<u64>,
    /// Requests written off after a completion timed out.
    lost: usize,
    wedged: bool,
}

impl Conn for FifoConn<'_> {
    fn submit(&mut self, i: u64, rec: Record) {
        match self.net.send(rec) {
            Ok(()) => self.inflight += 1,
            Err(_) => self.rejected.push_back(i),
        }
    }

    fn next_done(&mut self, block: bool) -> Option<Done> {
        if let Some(i) = self.rejected.pop_front() {
            return Some(Done {
                i,
                at: Instant::now(),
                ok: false,
            });
        }
        let failed = || Done {
            i: u64::MAX,
            at: Instant::now(),
            ok: false,
        };
        if self.lost > 0 {
            self.lost -= 1;
            return Some(failed());
        }
        if self.inflight == 0 {
            return None;
        }
        let got = if block {
            self.done.recv_timeout(GIVE_UP).ok()
        } else {
            self.done.try_recv().ok()
        };
        match got {
            Some(d) => {
                self.inflight -= 1;
                Some(d)
            }
            None if block => {
                // Wedged: whatever is still in flight is lost.
                self.lost = self.inflight - 1;
                self.inflight = 0;
                self.wedged = true;
                Some(failed())
            }
            None => None,
        }
    }

    fn inflight(&self) -> usize {
        self.inflight
    }
}

/// The FIFO door's receiver thread: stamps, checks and reports every
/// output record until the stop record comes through.
fn receive(net: &Net, w: &Workload, done: mpsc::Sender<Done>) {
    let mut seq = 0u64;
    while let Some(rec) = net.recv() {
        let at = Instant::now();
        let stamped = rec.tag_label(probe());
        if stamped == Some(STOP) {
            return;
        }
        let i = stamped.map_or(u64::MAX, |p| p as u64);
        // A det net answers in request order, and the loader numbers
        // its requests consecutively over the net's whole life.
        let ok = w.check(i, &rec) && (!w.ordered || i == seq);
        seq += 1;
        if done.send(Done { i, at, ok }).is_err() {
            return;
        }
    }
}

/// Builds the workload's net (default configuration), opens its front
/// door, runs `f` against it and tears everything down. Returns `f`'s
/// result and the number of records the net emitted that no request
/// accounts for.
pub fn with_door<R>(
    w: &Workload,
    wrap: Wrap,
    configure: impl FnOnce(snet_runtime::NetBuilder) -> snet_runtime::NetBuilder,
    f: impl FnOnce(&mut dyn Conn, &std::sync::Arc<snet_runtime::Metrics>) -> R,
) -> (R, u64) {
    let net = configure(w.builder(wrap).expect("workload program parses"))
        .build("main")
        .expect("workload net builds");
    let metrics = std::sync::Arc::clone(net.metrics());
    match w.door {
        Door::Service => {
            let svc = Service::start(net);
            let mut conn = ServiceConn {
                svc: &svc,
                w,
                open: VecDeque::new(),
                wedged: false,
            };
            let r = f(&mut conn, &metrics);
            give_up_if(conn.wedged, w);
            svc.shutdown();
            let stray = metrics.get(snet_runtime::metrics::keys::SERVE_STRAY);
            (r, stray)
        }
        Door::Fifo => {
            let r = std::thread::scope(|s| {
                let (tx, rx) = mpsc::channel();
                let receiver = s.spawn(|| receive(&net, w, tx));
                let mut conn = FifoConn {
                    net: &net,
                    done: rx,
                    inflight: 0,
                    rejected: VecDeque::new(),
                    lost: 0,
                    wedged: false,
                };
                let r = f(&mut conn, &metrics);
                while conn.next_done(true).is_some() {}
                give_up_if(conn.wedged, w);
                let mut stop = w.request(0);
                stop.set_tag_label(probe(), STOP);
                net.send(stop).expect("stop record enters the net");
                receiver.join().expect("receiver thread");
                r
            });
            (r, net.finish().len() as u64)
        }
    }
}

/// A net that stopped answering cannot be torn down either (its
/// threads never finish), so the run ends here, without a result.
fn give_up_if(wedged: bool, w: &Workload) {
    if wedged {
        eprintln!(
            "perf: {}: no completion within {GIVE_UP:?}; the net is wedged",
            w.name
        );
        std::process::exit(3);
    }
}

fn tally(counts: &mut Counts, d: &Done) {
    counts.attempted += 1;
    if !d.ok {
        counts.failed += 1;
    }
}

/// Harvests everything in flight.
pub fn drain(c: &mut dyn Conn, counts: &mut Counts) {
    while let Some(d) = c.next_done(true) {
        tally(counts, &d);
    }
}

/// Closed loop at the workload's window until `ops` operations
/// completed: the warm-up.
pub fn warm_up(
    c: &mut dyn Conn,
    w: &Workload,
    next: &mut u64,
    ops: u64,
    limit: Duration,
    counts: &mut Counts,
) {
    let end = Instant::now() + limit;
    let mut done = 0;
    while done < ops && Instant::now() < end {
        while c.inflight() < w.window {
            c.submit(*next, w.request(*next));
            *next += 1;
        }
        if let Some(d) = c.next_done(true) {
            tally(counts, &d);
            done += 1;
        }
    }
    drain(c, counts);
}

/// Submit stamps of the operations in flight, by index. In-flight
/// never exceeds the window, but the FIFO door completes out of order,
/// so the ring is deeper than the window and a slot is trusted only if
/// it still holds the index asked for.
struct SentRing(Vec<(u64, Instant)>);

impl SentRing {
    fn new(window: usize) -> SentRing {
        let len = (window * 8).next_power_of_two();
        SentRing(vec![(u64::MAX, Instant::now()); len])
    }

    fn put(&mut self, i: u64) {
        let len = self.0.len();
        self.0[i as usize & (len - 1)] = (i, Instant::now());
    }

    fn get(&self, i: u64) -> Option<Instant> {
        let (held, at) = self.0[i as usize & (self.0.len() - 1)];
        (held == i).then_some(at)
    }
}

/// Latency samples one phase of a measured round keeps at most: the
/// first this many completions of a saturate phase's timed part, and as
/// many calls as a lone-caller phase makes. A fixed number, so the
/// harness's own memory (part of `peak_rss_mb`) does not grow with the
/// host's speed.
pub const SAMPLES: usize = 4096;

/// One saturate round.
#[derive(Default)]
pub struct SatRound {
    /// Completions per second in each segment.
    pub seg_rates: Vec<f64>,
    /// Operations completed inside the timed part.
    pub ops: u64,
    /// Process CPU and context switches over the timed part.
    pub usage: Usage,
    /// Loader-thread CPU over the timed part, µs.
    pub loader_cpu_us: f64,
    /// Submit → completion stamp of the first `SAMPLES` timed
    /// operations, µs.
    pub lat_us: Vec<f64>,
}

/// Closed loop: keep `window` operations in flight, sliding (every
/// completion is replaced at once). Timing starts once the window has
/// turned over once, runs for `segs` segments of `seg`, and bins
/// completions by their completion stamp.
pub fn saturate(
    c: &mut dyn Conn,
    w: &Workload,
    next: &mut u64,
    segs: usize,
    seg: Duration,
    counts: &mut Counts,
) -> SatRound {
    let window = w.window;
    let mut sent = SentRing::new(window);
    let submit = |c: &mut dyn Conn, next: &mut u64, sent: &mut SentRing| {
        let rec = w.request(*next);
        sent.put(*next);
        c.submit(*next, rec);
        *next += 1;
    };
    let give_up = Instant::now() + GIVE_UP + seg * segs as u32;

    // Ramp: fill the window and let it turn over once.
    let mut ramp = 0;
    while ramp < window && Instant::now() < give_up {
        while c.inflight() < window {
            submit(c, next, &mut sent);
        }
        if let Some(d) = c.next_done(true) {
            tally(counts, &d);
            ramp += 1;
        }
    }

    let mut out = SatRound::default();
    let t0 = Instant::now();
    let u0 = host::usage();
    let l0 = host::thread_cpu_ns();
    let end = t0 + seg * segs as u32;
    let mut counted = vec![0u64; segs];
    let mut bin = |d: &Done, out: &mut SatRound, sent: &SentRing| {
        if d.at < t0 || d.at >= end {
            return;
        }
        let k = ((d.at - t0).as_secs_f64() / seg.as_secs_f64()) as usize;
        counted[k.min(segs - 1)] += 1;
        out.ops += 1;
        if out.lat_us.len() < SAMPLES {
            if let Some(at) = sent.get(d.i) {
                out.lat_us
                    .push(d.at.saturating_duration_since(at).as_secs_f64() * 1e6);
            }
        }
    };
    while Instant::now() < end {
        while c.inflight() < window {
            submit(c, next, &mut sent);
        }
        let Some(d) = c.next_done(true) else { break };
        tally(counts, &d);
        bin(&d, &mut out, &sent);
    }
    out.usage = host::usage().since(&u0);
    out.loader_cpu_us = (host::thread_cpu_ns() - l0) as f64 / 1e3;
    // The tail: completions stamped before `end` still count.
    while let Some(d) = c.next_done(true) {
        tally(counts, &d);
        bin(&d, &mut out, &sent);
    }
    out.seg_rates = counted
        .iter()
        .map(|n| *n as f64 / seg.as_secs_f64())
        .collect();
    out
}

/// One paced round.
#[derive(Default)]
pub struct PacedRound {
    /// Intended send time → completion stamp, every operation, µs.
    pub lat_us: Vec<f64>,
    /// How late each request actually left the generator, µs.
    pub late_us: Vec<f64>,
    /// Operations still in flight when the last request was sent; more
    /// than the window means the net cannot hold this rate and the
    /// latencies describe a growing queue, not a service time.
    pub inflight_end: usize,
}

/// Waits for `t`, handing the core over while it waits: the loader
/// must not compete with the net for a vCPU, and must not oversleep a
/// sub-millisecond schedule either.
fn wait_until(t: Instant) {
    loop {
        let now = Instant::now();
        if now >= t {
            return;
        }
        if t - now > Duration::from_micros(400) {
            std::thread::sleep(t - now - Duration::from_micros(300));
        } else {
            std::thread::yield_now();
        }
    }
}

/// Open loop at `rate` operations per second: request `k` is due at
/// `t0 + k / rate` whatever the net does, and its latency runs from
/// that intended time to its completion stamp, so a stall is charged
/// to every request it delays (no coordinated omission).
pub fn paced(
    c: &mut dyn Conn,
    w: &Workload,
    next: &mut u64,
    rate: f64,
    length: Duration,
    counts: &mut Counts,
) -> PacedRound {
    let total = (rate * length.as_secs_f64()).ceil() as u64;
    let first = *next;
    let t0 = Instant::now() + Duration::from_millis(1);
    let due = |k: u64| t0 + Duration::from_secs_f64(k as f64 / rate);
    let mut lat_us = Vec::new();
    let mut late_us = Vec::new();
    let mut record = |d: Done, counts: &mut Counts| {
        tally(counts, &d);
        if d.i < first || d.i - first >= total {
            return;
        }
        let lat = d.at.saturating_duration_since(due(d.i - first));
        lat_us.push(lat.as_secs_f64() * 1e6);
    };
    for k in 0..total {
        let t = due(k);
        while let Some(d) = c.next_done(false) {
            record(d, counts);
        }
        wait_until(t);
        late_us.push(Instant::now().saturating_duration_since(t).as_secs_f64() * 1e6);
        c.submit(*next, w.request(*next));
        *next += 1;
    }
    let inflight_end = c.inflight();
    while let Some(d) = c.next_done(true) {
        record(d, counts);
    }
    PacedRound {
        lat_us,
        late_us,
        inflight_end,
    }
}

/// One operation at a time: the round trip a lone synchronous caller
/// sees, µs per operation (submit → the loader has the checked
/// response in hand).
pub fn unloaded(
    c: &mut dyn Conn,
    w: &Workload,
    next: &mut u64,
    limit: Duration,
    max_ops: u64,
    counts: &mut Counts,
) -> Vec<f64> {
    let end = Instant::now() + limit;
    let mut lat = Vec::new();
    while Instant::now() < end && (lat.len() as u64) < max_ops {
        let t0 = Instant::now();
        c.submit(*next, w.request(*next));
        *next += 1;
        let Some(d) = c.next_done(true) else { break };
        lat.push(t0.elapsed().as_secs_f64() * 1e6);
        tally(counts, &d);
    }
    lat
}
