//! Fault containment: typed faults and per-net fault policies at the
//! box/filter execution boundary.
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
//!   the net's fault log (the newest [`FAULT_LOG_CAP`], read by
//!   [`crate::Net::faults`]), fault observers ([`FaultObserver`],
//!   subscribed by [`crate::NetBuilder::on_fault`]) and the serve
//!   layer (which fails the owning request promptly with
//!   [`crate::CallError::Faulted`] instead of letting the caller hang
//!   to its deadline).
//! * **What happens next** is the per-net [`FaultPolicy`]:
//!   [`FaultPolicy::FailNet`] (the default: the stage has no guard,
//!   the panic unwinds its component and `join_all` propagates it) or
//!   [`FaultPolicy::SkipRecord`] (drop the poison record, count it
//!   under `records_skipped`, keep the component alive). There is no
//!   retry: boxes are stateless functions of their record, so a
//!   second run on the record that made one panic panics again.
//!
//! # Emission buffering (why a skip publishes nothing)
//!
//! A guarded stage buffers its emissions in a scratch vector and
//! flushes to the real sink only after the record's run *succeeded*.
//! A panic mid-emission therefore publishes nothing: a skipped record
//! contributes no output at all — exactly like a box that chose to
//! emit nothing — and the next record starts from a clean buffer.
//! Downstream components, merge barriers and the serve egress never
//! see a partial cascade.
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
//! {threads, pool} with either policy; a guarded stage whose body
//! never panics is a transparent wrapper.
//!
//! # Exercising the failure paths
//!
//! The runtime injects no faults of its own: seeded injection is a
//! wrapper around box bodies in the tests (`tests/common/chaos.rs`).

use crate::metrics::{keys, Counter, Metrics};
use crate::path::{name, CompPath};
use parking_lot::Mutex;
use snet_types::Record;
use std::any::Any;
use std::collections::VecDeque;
use std::sync::Arc;

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
    /// contribution, like a box that emitted nothing. The guard lives
    /// inside the stage core, so a stage of a fused run skips exactly
    /// as a standalone one does.
    SkipRecord,
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
    /// The poison record, when the policy dropped it. `None` for
    /// component-level deaths.
    pub dropped: Option<Record>,
}

/// A fault subscriber: called synchronously from the faulting
/// component's thread/worker — keep it cheap and never block on the
/// net's own streams.
pub type FaultObserver = Arc<dyn Fn(&Fault) + Send + Sync>;

/// Cap on the per-net fault log, a diagnostic ring that keeps the
/// newest faults: a soak contains thousands of faults and the log must
/// not become the memory story, but a long-lived net must still show
/// its recent ones.
const FAULT_LOG_CAP: usize = 1024;

/// The per-net fault channel: every contained fault — guarded-core
/// skips *and* component-level deaths reported by the tracker
/// ([`crate::sched::Tracker`]) — funnels through here to metrics,
/// subscribers and the fault log. One per [`crate::Ctx`].
pub(crate) struct FaultHub {
    metrics: Arc<Metrics>,
    /// `runtime/component_panics`: fault incidents (one per skipped
    /// record or dead component).
    component_panics: Counter,
    subscribers: Mutex<Vec<FaultObserver>>,
    log: Mutex<VecDeque<Fault>>,
}

impl FaultHub {
    pub(crate) fn new(metrics: Arc<Metrics>) -> Arc<FaultHub> {
        Arc::new(FaultHub {
            component_panics: metrics.handle(keys::COMPONENT_PANICS),
            metrics,
            subscribers: Mutex::new(Vec::new()),
            log: Mutex::new(VecDeque::new()),
        })
    }

    /// Registers a fault subscriber.
    pub(crate) fn subscribe(&self, obs: FaultObserver) {
        self.subscribers.lock().push(obs);
    }

    /// Records one fault incident: counts it, notifies subscribers
    /// (outside any hub lock — subscribers may take their own), and
    /// appends to the fault log, dropping its oldest entry at the cap.
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
        if log.len() == FAULT_LOG_CAP {
            log.pop_front();
        }
        log.push_back(fault);
    }

    /// Snapshot of the fault log: the newest [`FAULT_LOG_CAP`] faults,
    /// oldest first.
    pub(crate) fn faults(&self) -> Vec<Fault> {
        self.log.lock().iter().cloned().collect()
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

/// The shape of a guarded stage body: processes one record, emitting
/// through the provided sink, and returns the emission count.
pub(crate) type StageBody<'a> = dyn FnMut(&Record, &mut dyn FnMut(Record)) -> u64 + 'a;

/// The per-stage fault boundary, resolved once at core construction
/// ([`crate::Ctx::fault_guard`]): `None` under [`FaultPolicy::FailNet`]
/// — the hot path then pays a single predictable branch, and a panic
/// unwinds to the component boundary, where the tracker raises it.
pub(crate) struct FaultGuard {
    hub: Arc<FaultHub>,
    path: CompPath,
    skipped: Counter,
    /// Emission buffer: flushed to the real sink only after a
    /// successful run (see module docs).
    buf: Vec<Record>,
}

impl FaultGuard {
    /// The guard for one stage, or `None` for the zero-cost default.
    pub(crate) fn for_stage(
        policy: FaultPolicy,
        hub: &Arc<FaultHub>,
        metrics: &Arc<Metrics>,
        path: CompPath,
    ) -> Option<FaultGuard> {
        if policy == FaultPolicy::FailNet {
            return None;
        }
        let [skipped] = metrics.counters_at(path, [name!(keys::RECORDS_SKIPPED)]);
        Some(FaultGuard {
            hub: Arc::clone(hub),
            path,
            skipped,
            buf: Vec::new(),
        })
    }

    /// Runs one record through `body`: catches a panic, buffers the
    /// emissions, then flushes them to `sink` on success or drops them
    /// with the record on a panic. The return value is the emission
    /// count (0 for a skipped record).
    pub(crate) fn run(
        &mut self,
        rec: &Record,
        sink: &mut dyn FnMut(Record),
        body: &mut StageBody<'_>,
    ) -> u64 {
        // The cores' state is append-only memo caches, safe to reuse
        // after an unwind; the buffer is cleared per record, so a
        // partial cascade never leaks.
        self.buf.clear();
        let buf = &mut self.buf;
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            body(rec, &mut |r| buf.push(r))
        }));
        match res {
            Ok(n) => {
                for r in self.buf.drain(..) {
                    sink(r);
                }
                n
            }
            Err(payload) => {
                self.skipped.inc(1);
                self.hub.raise(Fault {
                    component: self.path.as_str().to_string(),
                    msg: payload_msg(payload.as_ref()),
                    dropped: Some(rec.clone()),
                });
                0
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn guard_skips_and_raises_on_panic() {
        let metrics = Metrics::new();
        let hub = FaultHub::new(Arc::clone(&metrics));
        let path = CompPath::root("net").child("box:boom");
        let mut g = FaultGuard::for_stage(FaultPolicy::SkipRecord, &hub, &metrics, path)
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
    fn the_fault_log_keeps_the_newest_faults() {
        let hub = FaultHub::new(Metrics::new());
        for i in 0..FAULT_LOG_CAP + 5 {
            hub.raise(Fault {
                component: "net/box:boom".into(),
                msg: i.to_string(),
                dropped: None,
            });
        }
        let msgs: Vec<String> = hub.faults().into_iter().map(|f| f.msg).collect();
        assert_eq!(msgs.len(), FAULT_LOG_CAP);
        assert_eq!(msgs[0], "5");
        assert_eq!(msgs[FAULT_LOG_CAP - 1], (FAULT_LOG_CAP + 4).to_string());
    }

    #[test]
    fn a_skipped_record_publishes_nothing_it_emitted() {
        // The first record emits one output, then panics: nothing
        // reaches the sink. The next record through the same guard
        // flushes its own two outputs and nothing of the first's.
        let metrics = Metrics::new();
        let hub = FaultHub::new(Arc::clone(&metrics));
        let path = CompPath::root("net").child("box:half");
        let mut g = FaultGuard::for_stage(FaultPolicy::SkipRecord, &hub, &metrics, path).unwrap();
        let mut out = Vec::new();
        let mut body = |r: &Record, sink: &mut dyn FnMut(Record)| {
            sink(r.clone());
            if r.field("x").unwrap().as_int() == Some(1) {
                panic!("after one emission");
            }
            sink(r.clone());
            2
        };
        let (poison, next) = (
            Record::build().field("x", 1i64).finish(),
            Record::build().field("x", 2i64).finish(),
        );
        assert_eq!(g.run(&poison, &mut |r| out.push(r), &mut body), 0);
        assert!(out.is_empty(), "a skipped record leaked {out:?}");
        assert_eq!(g.run(&next, &mut |r| out.push(r), &mut body), 2);
        assert_eq!(out, vec![next.clone(), next]);
        assert_eq!(metrics.get("net/box:half/records_skipped"), 1);
    }

    #[test]
    fn failnet_needs_no_guard() {
        let metrics = Metrics::new();
        let hub = FaultHub::new(Arc::clone(&metrics));
        let path = CompPath::root("net");
        assert!(FaultGuard::for_stage(FaultPolicy::FailNet, &hub, &metrics, path).is_none());
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
