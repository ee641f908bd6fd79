//! Fault containment: typed faults, per-net fault policies, and
//! deterministic chaos injection at the box/filter execution boundary.
//!
//! The paper treats boxes as opaque user code, so the runtime must
//! assume they can fail. Before this module, a panicking box unwound
//! the whole net through [`crate::Ctx::join_all`] and a serve caller
//! whose request crossed the dead component hung until its deadline.
//! This module adds the failure boundary:
//!
//! * **Where faults are caught.** At the one stage boundary of boxes
//!   and filters ([`crate::fused::LeafCore`]) — the exact point every
//!   stage run calls through ([`crate::fused`]), so a fused stage and
//!   its unfused twin fail identically. Coordination-layer components
//!   (dispatchers, mergers, guards) are runtime code, not user code;
//!   a panic there is always fatal to the net regardless of policy.
//! * **What a fault becomes.** A typed [`Fault`] carrying the
//!   component path, the panic message and (when the policy dropped
//!   it) the poison record — raised through the per-net [`FaultHub`]
//!   to metrics (`runtime/component_panics`, per-stage `panics`),
//!   fault observers ([`FaultObserver`], see
//!   [`crate::NetBuilder::on_fault`] and
//!   [`crate::TraceLog::fault_observer`]) and the serve layer (which
//!   fails the owning request promptly with
//!   [`crate::CallError::Faulted`] instead of letting the caller hang
//!   to its deadline).
//! * **What happens next** is the per-net [`FaultPolicy`]:
//!   [`FaultPolicy::FailNet`] (the default — today's behaviour, the
//!   panic resumes and `join_all` propagates it),
//!   [`FaultPolicy::SkipRecord`] (drop the poison record, count it
//!   under `records_skipped`, keep the component alive) and
//!   [`FaultPolicy::Restart`] (re-run the stateless stage on the same
//!   record with bounded exponential backoff, giving up to a skip
//!   once the retry budget is spent).
//!
//! # Emission buffering (why retries cannot duplicate output)
//!
//! A guarded stage buffers its emissions in a scratch vector and
//! flushes to the real sink only after the record's attempt
//! *succeeded*. A panic mid-emission therefore publishes nothing: a
//! retried record starts from a clean buffer, and a skipped record
//! contributes no output at all — exactly like a box that chose to
//! emit nothing. Downstream components, merge barriers and the serve
//! egress never see a partial cascade.
//!
//! # Why `SkipRecord` cannot break deterministic merging
//!
//! Sort records — the tokens the deterministic combinators encode
//! ordering in ([`crate::merge`]) — never pass through the execution
//! cores; the stream loops forward them outside the guarded region.
//! A skipped *data* record is indistinguishable from a box emitting
//! zero records for it, which the det-merge protocol already handles:
//! round boundaries still arrive on every branch, in order. Det
//! output remains byte-identical across {fused, unfused} ×
//! {threads, pool} with any policy; injection off means the guarded
//! path is a single always-successful attempt.
//!
//! # Deterministic chaos ([`ChaosConfig`])
//!
//! Fault handling that is only exercised by real bugs is untested
//! fault handling. [`ChaosConfig`] injects panics (and stalls) at the
//! core boundary, *deterministically*: the decision for record `n` at
//! stage `p` is a pure hash of `(seed, fnv(p), n)` — no global RNG,
//! no time dependence — so a soak run is reproducible from its seed
//! and a poison record panics again on every [`FaultPolicy::Restart`]
//! retry (the per-stage record counter does not advance on retries).
//! Enable per net with [`crate::NetBuilder::chaos`], and choose the
//! policy with [`crate::NetBuilder::fault_policy`]; neither has a
//! process-wide switch.

use crate::metrics::{keys, Counter, Metrics};
use crate::path::{name, CompPath};
use parking_lot::Mutex;
use snet_types::Record;
use std::any::Any;
use std::sync::Arc;
use std::time::Duration;

/// What the runtime does when a box or filter stage panics while
/// processing a record. Per net ([`crate::NetBuilder::fault_policy`]
/// / [`crate::ctx::RunCfg::fault_policy`]), applied identically to
/// standalone and fused stages.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum FaultPolicy {
    /// The panic unwinds the component and
    /// [`crate::Ctx::join_all`] re-raises it: one poison record kills
    /// the whole net. The default — and the only behaviour for
    /// coordination-layer components regardless of policy.
    #[default]
    FailNet,
    /// Drop the poison record (counted under `{path}/records_skipped`
    /// and raised as a [`Fault`] with the record attached), keep the
    /// component alive. The net's output simply misses that record's
    /// contribution, like a box that emitted nothing.
    SkipRecord,
    /// Re-run the stage on the same record up to `max_retries` times
    /// with exponential backoff (`backoff`, `2·backoff`,
    /// `4·backoff`, …), then give up to [`FaultPolicy::SkipRecord`]
    /// semantics. Sound for S-Net stages because the paper requires
    /// boxes to be stateless. The guard lives inside the stage core,
    /// so a stage of a fused run retries exactly as a standalone one
    /// does; in either topology the backoff sleep blocks the worker
    /// running the stage — in a fused net, the whole net — so keep it
    /// small.
    Restart { max_retries: u32, backoff: Duration },
}

/// Deterministic fault injection at the core boundary (see module
/// docs). Rates are probabilities in `[0, 1]` evaluated per record
/// per stage by a seeded hash — two runs with the same seed, net and
/// input inject identically.
#[derive(Clone, Debug, PartialEq)]
pub struct ChaosConfig {
    /// Base seed; mixed with a stable hash of each stage's path.
    pub seed: u64,
    /// Probability that processing a record panics at the stage
    /// boundary.
    pub panic_rate: f64,
    /// Probability that processing a record first stalls for
    /// [`ChaosConfig::stall`].
    pub stall_rate: f64,
    /// Injected stall duration.
    pub stall: Duration,
}

impl ChaosConfig {
    /// Panic-only injection at `rate`, no stalls.
    pub fn new(seed: u64, rate: f64) -> ChaosConfig {
        ChaosConfig {
            seed,
            panic_rate: rate,
            stall_rate: 0.0,
            stall: Duration::ZERO,
        }
    }
}

/// One contained component failure, as delivered to
/// [`FaultObserver`]s and kept in the net's fault log.
#[derive(Clone, Debug)]
pub struct Fault {
    /// Interned component path text (e.g. `net/s1/box:solve`), or the
    /// task name for component-level deaths under
    /// [`FaultPolicy::FailNet`].
    pub component: String,
    /// The panic message (payload downcast to a string when
    /// possible).
    pub msg: String,
    /// The poison record, when the policy dropped it (terminal skip).
    /// `None` for component-level deaths and recovered restarts.
    pub dropped: Option<Record>,
}

/// A fault subscriber: called synchronously from the faulting
/// component's thread/worker — keep it cheap and never block on the
/// net's own streams.
pub type FaultObserver = Arc<dyn Fn(&Fault) + Send + Sync>;

/// Cap on the per-net fault log (diagnostic ring; chaos soaks inject
/// thousands of faults and the log must not become the memory story).
const FAULT_LOG_CAP: usize = 1024;

/// The per-net fault channel: every contained fault — guarded-core
/// skips/restarts *and* component-level deaths reported by the
/// tracker ([`crate::sched::Tracker`]) — funnels through here to
/// metrics, subscribers and the fault log. One per [`crate::Ctx`].
pub(crate) struct FaultHub {
    metrics: Arc<Metrics>,
    /// `runtime/component_panics`: fault incidents (one per faulted
    /// record or dead component, not per retry attempt).
    component_panics: Counter,
    subscribers: Mutex<Vec<FaultObserver>>,
    log: Mutex<Vec<Fault>>,
}

impl FaultHub {
    pub(crate) fn new(metrics: Arc<Metrics>) -> Arc<FaultHub> {
        Arc::new(FaultHub {
            component_panics: metrics.handle(keys::COMPONENT_PANICS),
            metrics,
            subscribers: Mutex::new(Vec::new()),
            log: Mutex::new(Vec::new()),
        })
    }

    /// Registers a fault subscriber.
    pub(crate) fn subscribe(&self, obs: FaultObserver) {
        self.subscribers.lock().push(obs);
    }

    /// Records one fault incident: counts it, notifies subscribers
    /// (outside any hub lock — subscribers may take their own), and
    /// appends to the bounded fault log.
    pub(crate) fn raise(&self, fault: Fault) {
        self.component_panics.inc(1);
        // Cold path: faults are exceptional, a registry lookup per
        // incident is fine here.
        self.metrics
            .handle(format!("{}/{}", fault.component, keys::PANICS))
            .inc(1);
        let subs = self.subscribers.lock().clone();
        for s in &subs {
            s(&fault);
        }
        let mut log = self.log.lock();
        if log.len() < FAULT_LOG_CAP {
            log.push(fault);
        }
    }

    /// Snapshot of the fault log (oldest first, capped at
    /// [`FAULT_LOG_CAP`]).
    pub(crate) fn faults(&self) -> Vec<Fault> {
        self.log.lock().clone()
    }
}

/// Renders a panic payload as a message string (panics carry `&str`
/// or `String` payloads in practice).
pub(crate) fn payload_msg(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Chaos decision for one record at one stage.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Decision {
    Clean,
    Panic,
    Stall,
}

/// The deterministic per-stage injector: a counter-mode hash stream
/// seeded by `(config seed) ⊕ fnv64(stage path)`. Stable across runs
/// (the path *text* is hashed, not its interner id, which depends on
/// process-global interning order).
struct ChaosInjector {
    state: u64,
    n: u64,
    panic_cut: u64,
    stall_cut: u64,
    stall: Duration,
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn fnv64(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn rate_cut(rate: f64) -> u64 {
    (rate.clamp(0.0, 1.0) * u64::MAX as f64) as u64
}

impl ChaosInjector {
    fn new(cfg: &ChaosConfig, path: CompPath) -> ChaosInjector {
        ChaosInjector {
            state: cfg.seed ^ fnv64(path.as_str()),
            n: 0,
            panic_cut: rate_cut(cfg.panic_rate),
            stall_cut: rate_cut(cfg.stall_rate),
            stall: cfg.stall,
        }
    }

    /// The decision for the next record. Advances the per-record
    /// counter — called once per record, *not* per retry, so a poison
    /// record stays poisoned across [`FaultPolicy::Restart`] attempts.
    fn decide(&mut self) -> Decision {
        let x = splitmix64(self.state ^ self.n);
        self.n += 1;
        if x < self.panic_cut {
            Decision::Panic
        } else if splitmix64(x) < self.stall_cut {
            Decision::Stall
        } else {
            Decision::Clean
        }
    }
}

/// The shape of a guarded stage body: processes one record, emitting
/// through the provided sink, and returns the emission count.
pub(crate) type StageBody<'a> = dyn FnMut(&Record, &mut dyn FnMut(Record)) -> u64 + 'a;

/// The per-stage fault boundary, resolved once at core construction
/// ([`crate::Ctx::fault_guard`]): `None` when the policy is
/// [`FaultPolicy::FailNet`] and injection is off — the hot path then
/// pays a single predictable branch and runs the seed's raw code.
pub(crate) struct FaultGuard {
    policy: FaultPolicy,
    chaos: Option<ChaosInjector>,
    hub: Arc<FaultHub>,
    path: CompPath,
    skipped: Counter,
    restarts: Counter,
    /// `runtime/chaos_injected`: injected panic decisions (one per
    /// poisoned record; equals `runtime/component_panics` when chaos
    /// is the only fault source and the policy contains faults).
    injected: Counter,
    /// Emission buffer: flushed to the real sink only after a
    /// successful attempt (see module docs).
    buf: Vec<Record>,
}

impl FaultGuard {
    /// The guard for one stage, or `None` for the zero-cost default.
    pub(crate) fn for_stage(
        policy: FaultPolicy,
        chaos: Option<&ChaosConfig>,
        hub: &Arc<FaultHub>,
        metrics: &Arc<Metrics>,
        path: CompPath,
    ) -> Option<FaultGuard> {
        if policy == FaultPolicy::FailNet && chaos.is_none() {
            return None;
        }
        let [skipped, restarts] =
            metrics.counters_at(path, [name!(keys::RECORDS_SKIPPED), name!(keys::RESTARTS)]);
        Some(FaultGuard {
            policy,
            chaos: chaos.map(|c| ChaosInjector::new(c, path)),
            hub: Arc::clone(hub),
            path,
            skipped,
            restarts,
            injected: metrics.handle(keys::CHAOS_INJECTED),
            buf: Vec::new(),
        })
    }

    /// Runs one record through `body` under the fault policy.
    /// Emissions buffer in the guard and flush to `sink` only on
    /// success; the return value is the emission count (0 for a
    /// skipped record). Panics are caught here — except under
    /// [`FaultPolicy::FailNet`], where the payload resumes unwinding
    /// and the component-level accounting (tracker → hub) takes over.
    pub(crate) fn run(
        &mut self,
        rec: &Record,
        sink: &mut dyn FnMut(Record),
        body: &mut StageBody<'_>,
    ) -> u64 {
        let decision = match &mut self.chaos {
            Some(c) => c.decide(),
            None => Decision::Clean,
        };
        match decision {
            Decision::Stall => {
                // An injected stall models a slow box, not a failure:
                // processing proceeds normally afterwards.
                let d = self.chaos.as_ref().map(|c| c.stall).unwrap_or_default();
                if !d.is_zero() {
                    std::thread::sleep(d);
                }
            }
            Decision::Panic => self.injected.inc(1),
            Decision::Clean => {}
        }
        let inject = decision == Decision::Panic;
        let (max_retries, backoff) = match self.policy {
            FaultPolicy::Restart {
                max_retries,
                backoff,
            } => (max_retries, backoff),
            _ => (0, Duration::ZERO),
        };
        let mut attempt: u32 = 0;
        let mut last_msg = String::new();
        loop {
            self.buf.clear();
            let buf = &mut self.buf;
            // The cores' state is append-only memo caches, safe to
            // reuse after an unwind; the emission buffer is cleared
            // per attempt, so a partial cascade never leaks.
            let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                if inject {
                    panic!("chaos: injected panic");
                }
                body(rec, &mut |r| buf.push(r))
            }));
            match res {
                Ok(n) => {
                    if attempt > 0 {
                        // Recovered after restart: still a fault
                        // incident (a real transient bug), but nothing
                        // was dropped.
                        self.hub.raise(Fault {
                            component: self.path.as_str().to_string(),
                            msg: format!("recovered after {attempt} restart(s): {last_msg}"),
                            dropped: None,
                        });
                    }
                    for r in self.buf.drain(..) {
                        sink(r);
                    }
                    return n;
                }
                Err(payload) => {
                    if self.policy == FaultPolicy::FailNet {
                        // Injection under FailNet: today's semantics.
                        // The tracker's completion path raises the
                        // component-level fault — raising here too
                        // would double-count the incident.
                        std::panic::resume_unwind(payload);
                    }
                    last_msg = payload_msg(payload.as_ref());
                    if attempt < max_retries {
                        self.restarts.inc(1);
                        let delay = backoff.saturating_mul(1u32 << attempt.min(16));
                        if !delay.is_zero() {
                            std::thread::sleep(delay);
                        }
                        attempt += 1;
                        continue;
                    }
                    // Retry budget spent (or SkipRecord): drop the
                    // poison record, keep the component alive.
                    self.skipped.inc(1);
                    self.hub.raise(Fault {
                        component: self.path.as_str().to_string(),
                        msg: last_msg,
                        dropped: Some(rec.clone()),
                    });
                    return 0;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn injector_is_deterministic_and_rate_shaped() {
        let cfg = ChaosConfig::new(1234, 0.1);
        let path = CompPath::root("net").child("box:f");
        let mut a = ChaosInjector::new(&cfg, path);
        let mut b = ChaosInjector::new(&cfg, path);
        let da: Vec<Decision> = (0..10_000).map(|_| a.decide()).collect();
        let db: Vec<Decision> = (0..10_000).map(|_| b.decide()).collect();
        assert_eq!(da, db, "same seed + path must replay identically");
        let panics = da.iter().filter(|d| **d == Decision::Panic).count();
        // 10% of 10k with generous slack.
        assert!((600..=1400).contains(&panics), "panics {panics}");
        // A different stage path decides differently.
        let mut c = ChaosInjector::new(&cfg, CompPath::root("net").child("box:g"));
        let dc: Vec<Decision> = (0..10_000).map(|_| c.decide()).collect();
        assert_ne!(da, dc);
    }

    #[test]
    fn zero_rate_never_injects() {
        let cfg = ChaosConfig::new(99, 0.0);
        let mut inj = ChaosInjector::new(&cfg, CompPath::root("net"));
        assert!((0..10_000).all(|_| inj.decide() == Decision::Clean));
    }

    #[test]
    fn guard_skips_and_raises_on_panic() {
        let metrics = Metrics::new();
        let hub = FaultHub::new(Arc::clone(&metrics));
        let path = CompPath::root("net").child("box:boom");
        let mut g = FaultGuard::for_stage(FaultPolicy::SkipRecord, None, &hub, &metrics, path)
            .expect("skip policy guards");
        let rec = Record::build().field("x", 1i64).finish();
        let mut out = Vec::new();
        let n = g.run(&rec, &mut |r| out.push(r), &mut |_r, _sink| {
            panic!("box bug")
        });
        assert_eq!(n, 0);
        assert!(out.is_empty());
        assert_eq!(metrics.get(keys::COMPONENT_PANICS), 1);
        assert_eq!(metrics.get("net/box:boom/records_skipped"), 1);
        let faults = hub.faults();
        assert_eq!(faults.len(), 1);
        assert_eq!(faults[0].component, "net/box:boom");
        assert_eq!(faults[0].msg, "box bug");
        assert!(faults[0].dropped.is_some());
    }

    #[test]
    fn guard_buffers_emissions_across_retries() {
        // First attempt emits one record then panics; the retry
        // succeeds with two emissions. The sink must see exactly the
        // successful attempt's records — no duplicate from attempt 0.
        let metrics = Metrics::new();
        let hub = FaultHub::new(Arc::clone(&metrics));
        let path = CompPath::root("net").child("box:flaky");
        let mut g = FaultGuard::for_stage(
            FaultPolicy::Restart {
                max_retries: 2,
                backoff: Duration::ZERO,
            },
            None,
            &hub,
            &metrics,
            path,
        )
        .unwrap();
        let rec = Record::build().field("x", 7i64).finish();
        let mut out = Vec::new();
        let mut calls = 0u32;
        let n = g.run(&rec, &mut |r| out.push(r), &mut |r, sink| {
            calls += 1;
            sink(r.clone());
            if calls == 1 {
                panic!("transient");
            }
            sink(r.clone());
            2
        });
        assert_eq!(n, 2);
        assert_eq!(out.len(), 2, "attempt 0's partial emission must not leak");
        assert_eq!(metrics.get("net/box:flaky/restarts"), 1);
        // Recovered: one incident raised, nothing dropped.
        assert_eq!(metrics.get(keys::COMPONENT_PANICS), 1);
        assert!(hub.faults()[0].dropped.is_none());
    }

    #[test]
    fn restart_budget_exhausts_to_skip() {
        let metrics = Metrics::new();
        let hub = FaultHub::new(Arc::clone(&metrics));
        let path = CompPath::root("net").child("box:dead");
        let mut g = FaultGuard::for_stage(
            FaultPolicy::Restart {
                max_retries: 3,
                backoff: Duration::ZERO,
            },
            None,
            &hub,
            &metrics,
            path,
        )
        .unwrap();
        let rec = Record::build().field("x", 1i64).finish();
        let mut attempts = 0u32;
        let n = g.run(&rec, &mut |_r| {}, &mut |_r, _sink| {
            attempts += 1;
            panic!("always")
        });
        assert_eq!(n, 0);
        assert_eq!(attempts, 4, "initial attempt + 3 retries");
        assert_eq!(metrics.get("net/box:dead/restarts"), 3);
        assert_eq!(metrics.get("net/box:dead/records_skipped"), 1);
        assert_eq!(
            metrics.get(keys::COMPONENT_PANICS),
            1,
            "one incident, not four"
        );
    }

    #[test]
    fn failnet_guard_rethrows_without_raising() {
        let metrics = Metrics::new();
        let hub = FaultHub::new(Arc::clone(&metrics));
        // FailNet alone needs no guard at all...
        assert!(FaultGuard::for_stage(
            FaultPolicy::FailNet,
            None,
            &hub,
            &metrics,
            CompPath::root("net")
        )
        .is_none());
        // ...but FailNet + chaos does (to inject), and it re-raises.
        let chaos = ChaosConfig::new(1, 0.0);
        let mut g = FaultGuard::for_stage(
            FaultPolicy::FailNet,
            Some(&chaos),
            &hub,
            &metrics,
            CompPath::root("net").child("box:b"),
        )
        .unwrap();
        let rec = Record::new();
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            g.run(&rec, &mut |_r| {}, &mut |_r, _s| panic!("boom"))
        }));
        assert!(r.is_err());
        // Component-level accounting owns this incident (the tracker
        // raises when the unwind reaches the task boundary).
        assert_eq!(metrics.get(keys::COMPONENT_PANICS), 0);
    }

    #[test]
    fn subscribers_see_raised_faults() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let metrics = Metrics::new();
        let hub = FaultHub::new(Arc::clone(&metrics));
        let seen = Arc::new(AtomicUsize::new(0));
        let seen2 = Arc::clone(&seen);
        hub.subscribe(Arc::new(move |f: &Fault| {
            assert_eq!(f.component, "net/box:x");
            seen2.fetch_add(1, Ordering::Relaxed);
        }));
        hub.raise(Fault {
            component: "net/box:x".into(),
            msg: "m".into(),
            dropped: None,
        });
        assert_eq!(seen.load(Ordering::Relaxed), 1);
    }
}
