//! Open-loop load generator for [`Service`] workloads.
//!
//! **Open loop** means requests are issued on a fixed arrival
//! schedule (request *i* is due at `start + i / rate`), not at a fixed
//! concurrency: a closed loop of N callers self-throttles the moment
//! the system slows down, hiding exactly the queueing delay a service
//! benchmark exists to measure. Two details make the numbers honest:
//!
//! - **Latency is measured from the *intended* send time**, not the
//!   actual one. When the generator falls behind schedule (an ingress
//!   `Block` stall, a scheduler hiccup) the time a real client would
//!   have spent waiting is charged to the request instead of silently
//!   dropped — the standard fix for coordinated omission.
//! - **Completion is timestamped by the demux**
//!   ([`Response::completed_at`]), so callers can harvest handles
//!   lazily after the send phase without inflating the tail.
//!
//! The schedule is interleaved across caller threads (caller *k* owns
//! requests `k, k+callers, …`), so many concurrent sessions drive one
//! net while the aggregate arrival process stays a fixed-rate stream.

use super::hist::Histogram;
use super::service::{CallError, CallOpts, Service};
use crate::metrics::keys;
use crate::net::OverloadPolicy;
use snet_types::Record;
use std::time::{Duration, Instant};

/// Configuration for one open-loop run.
#[derive(Clone, Debug)]
pub struct OpenLoopCfg {
    /// Aggregate arrival rate, requests per second.
    pub rate_hz: f64,
    /// Total requests to issue.
    pub total: usize,
    /// Requests (by schedule index) excluded from latency/RPS stats
    /// while the net warms up; they still count for loss accounting.
    pub warmup: usize,
    /// Concurrent caller threads the schedule is interleaved across.
    pub callers: usize,
    /// Per-call overload policy (`None` inherits the net's).
    pub policy: Option<OverloadPolicy>,
    /// Output records per request (see [`CallOpts::expect`]).
    pub expect: usize,
    /// Per-request harvest deadline, measured from the request's
    /// intended send time. Generous by design: it bounds the harness,
    /// it is not a latency target.
    pub deadline: Duration,
}

impl Default for OpenLoopCfg {
    fn default() -> OpenLoopCfg {
        OpenLoopCfg {
            rate_hz: 500.0,
            total: 2_000,
            warmup: 200,
            callers: 4,
            policy: None,
            expect: 1,
            deadline: Duration::from_secs(30),
        }
    }
}

/// What one open-loop run measured. Latencies are nanoseconds over the
/// steady-state window (warmup excluded).
#[derive(Clone, Debug, Default)]
pub struct LoadReport {
    /// Requests that entered the ingress edge.
    pub sent: u64,
    /// Requests whose full response arrived (including warmup).
    pub completed: u64,
    /// Synchronous ingress rejections (shed / ingress timeout).
    pub rejected: u64,
    /// Requests sent but never completed (harvest deadline or service
    /// stop). Zero is the correctness criterion.
    pub lost: u64,
    /// Requests resolved as [`CallError::Faulted`]: a component fault
    /// consumed one of their records and the service failed them
    /// promptly. Under chaos injection these are *expected* — the
    /// correctness criterion is `lost == 0`, not `faulted == 0`.
    pub faulted: u64,
    /// Responses whose record payload failed the caller's check.
    pub misrouted: u64,
    pub p50_ns: u64,
    pub p99_ns: u64,
    pub p999_ns: u64,
    pub max_ns: u64,
    pub mean_ns: f64,
    /// Completions per second over the steady-state window.
    pub sustained_rps: f64,
    /// Steady-state window length, seconds.
    pub window_secs: f64,
    /// Samples in the steady-state window.
    pub measured: u64,
    /// High-water mark of any single bounded edge's depth
    /// (`runtime/stream_depth`) — the observation the default stream
    /// bound is derived from.
    pub depth_high_water: u64,
    /// Total producer stalls on bounded edges (`runtime/credit_stalls`).
    pub credit_stalls: u64,
}

/// Sleeps (then briefly spins) until `t` for sub-millisecond schedule
/// fidelity without burning a core far ahead of the deadline.
fn sleep_until(t: Instant) {
    loop {
        let now = Instant::now();
        if now >= t {
            return;
        }
        let left = t - now;
        if left > Duration::from_micros(300) {
            std::thread::sleep(left - Duration::from_micros(200));
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Drives `service` with an open-loop schedule. `make_req` produces
/// the request record for schedule index `i`; `check` validates a
/// response's records against the index that produced them (request/
/// response correlation at the payload level, on top of the rid
/// plumbing) and returns `false` for a misroute.
pub fn run_open_loop(
    service: &Service,
    cfg: &OpenLoopCfg,
    make_req: impl Fn(usize) -> Record + Sync,
    check: impl Fn(usize, &[Record]) -> bool + Sync,
) -> LoadReport {
    assert!(cfg.rate_hz > 0.0 && cfg.callers > 0 && cfg.total > 0);
    let interval_ns = 1e9 / cfg.rate_hz;
    // A short runway so caller 0's first request is not already late.
    let start = Instant::now() + Duration::from_millis(20);

    struct CallerStats {
        hist: Histogram,
        sent: u64,
        completed: u64,
        rejected: u64,
        lost: u64,
        faulted: u64,
        misrouted: u64,
        /// Steady-state window edges this caller observed.
        first_intended: Option<Instant>,
        last_completed: Option<Instant>,
    }

    let per_caller: Vec<CallerStats> = std::thread::scope(|s| {
        let threads: Vec<_> = (0..cfg.callers)
            .map(|k| {
                let make_req = &make_req;
                let check = &check;
                s.spawn(move || {
                    let mut stats = CallerStats {
                        hist: Histogram::new(),
                        sent: 0,
                        completed: 0,
                        rejected: 0,
                        lost: 0,
                        faulted: 0,
                        misrouted: 0,
                        first_intended: None,
                        last_completed: None,
                    };
                    // Send phase: stay on schedule; when behind, catch
                    // up without skipping (lateness is charged to the
                    // affected requests via their intended times).
                    let mut sent = Vec::new();
                    let mut i = k;
                    while i < cfg.total {
                        let intended =
                            start + Duration::from_nanos((i as f64 * interval_ns) as u64);
                        sleep_until(intended);
                        match service.call_with(
                            make_req(i),
                            CallOpts {
                                expect: cfg.expect,
                                policy: cfg.policy,
                            },
                        ) {
                            Ok(h) => {
                                stats.sent += 1;
                                sent.push((i, intended, h));
                            }
                            Err(CallError::Rejected(_)) => stats.rejected += 1,
                            Err(_) => stats.lost += 1,
                        }
                        i += cfg.callers;
                    }
                    // Harvest phase: waits are lazy, latency is not —
                    // completion times come from the demux stamp.
                    for (i, intended, h) in sent {
                        match h.wait_deadline(intended + cfg.deadline) {
                            Ok(resp) => {
                                stats.completed += 1;
                                if !check(i, &resp.records) {
                                    stats.misrouted += 1;
                                }
                                if i >= cfg.warmup {
                                    let lat = resp
                                        .completed_at
                                        .saturating_duration_since(intended)
                                        .as_nanos()
                                        .min(u128::from(u64::MAX))
                                        as u64;
                                    stats.hist.record(lat);
                                    if stats.first_intended.is_none() {
                                        stats.first_intended = Some(intended);
                                    }
                                    let c = resp.completed_at;
                                    if stats.last_completed.is_none_or(|l| c > l) {
                                        stats.last_completed = Some(c);
                                    }
                                }
                            }
                            // A faulted request resolved promptly with
                            // a typed error — contained, not lost.
                            Err(CallError::Faulted { .. }) => stats.faulted += 1,
                            Err(_) => stats.lost += 1,
                        }
                    }
                    stats
                })
            })
            .collect();
        threads.into_iter().map(|t| t.join().unwrap()).collect()
    });

    let mut hist = Histogram::new();
    let mut report = LoadReport::default();
    let mut first_intended: Option<Instant> = None;
    let mut last_completed: Option<Instant> = None;
    for st in &per_caller {
        hist.merge(&st.hist);
        report.sent += st.sent;
        report.completed += st.completed;
        report.rejected += st.rejected;
        report.lost += st.lost;
        report.faulted += st.faulted;
        report.misrouted += st.misrouted;
        if let Some(fi) = st.first_intended {
            if first_intended.is_none_or(|f| fi < f) {
                first_intended = Some(fi);
            }
        }
        if let Some(lc) = st.last_completed {
            if last_completed.is_none_or(|l| lc > l) {
                last_completed = Some(lc);
            }
        }
    }
    report.measured = hist.count();
    report.p50_ns = hist.quantile(0.50);
    report.p99_ns = hist.quantile(0.99);
    report.p999_ns = hist.quantile(0.999);
    report.max_ns = hist.max();
    report.mean_ns = hist.mean();
    if let (Some(fi), Some(lc)) = (first_intended, last_completed) {
        let window = lc.saturating_duration_since(fi).as_secs_f64();
        report.window_secs = window;
        if window > 0.0 {
            report.sustained_rps = report.measured as f64 / window;
        }
    }
    let m = service.metrics();
    report.depth_high_water = m.get(keys::STREAM_DEPTH_GLOBAL);
    report.credit_stalls = m.get(keys::CREDIT_STALLS_GLOBAL);
    report
}
