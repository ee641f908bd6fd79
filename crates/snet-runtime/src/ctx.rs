//! Shared execution context for a running network.
//!
//! # Interned-path invariant
//!
//! Component identity flows through [`CompPath`] handles. The
//! invariant the hot paths rely on: **every component's path is
//! interned exactly once, at `instantiate` time** — spawn functions
//! derive their path with [`CompPath::child`] before entering the
//! record loop, and per-record code (metrics, observers, panic
//! messages) only copies the handle or borrows its pre-rendered
//! `&'static str`. No component thread ever formats a path string per
//! record.
//!
//! # Executor indirection
//!
//! Components are spawned as futures through the context's
//! [`Executor`] (see [`crate::sched`]): cooperative tasks over one
//! worker per core under [`crate::sched::WorkStealingPool`] (the
//! default), one OS thread each under
//! [`crate::sched::ThreadPerComponent`]. Completion and panic
//! accounting goes through a [`Tracker`] instead of `JoinHandle`s, so
//! [`Ctx::join_all`] works identically under both backends — including
//! for components spawned transitively at runtime by the replicators.

use crate::fault::{
    payload_msg, ChaosConfig, Fault, FaultGuard, FaultHub, FaultObserver, FaultPolicy,
};
use crate::metrics::{keys, Metrics};
use crate::path::CompPath;
use crate::sched::{default_executor, Executor, Tracker};
use crate::stream::chan::EdgeStats;
use crate::stream::{stream, stream_bounded, Dir, Observer, Receiver, Sender};
use snet_types::Record;
use std::collections::HashMap;
use std::future::Future;
use std::sync::Arc;

/// The process-default data-edge capacity, applied when neither
/// `SNET_STREAM_BOUND` nor a per-net `NetBuilder::bound`/`unbounded`
/// overrides it. **Backpressure is on by default** since PR 7, with
/// the value picked from the open-loop serve harness
/// (`crates/bench/src/bin/serve_bench.rs`, PR 7's run): at
/// moderate load (300 req/s smoke) steady-state depth high-water is
/// single-digit on both service workloads, so 128 is an order of
/// magnitude above anything a stable system queues; at 60 % of
/// closed-loop capacity the sudoku workload's ingress briefly fills
/// to the cap (52 producer stalls across 12 000 requests, zero
/// losses, p99 still bounded) — i.e. the bound only ever engages when
/// arrivals genuinely outrun service, which is exactly when unbounded
/// edges would otherwise grow without limit. Escape hatches:
/// `SNET_STREAM_BOUND=0` process-wide or `NetBuilder::unbounded()`
/// per net restore the seed's unbounded edges.
pub const DEFAULT_STREAM_BOUND: usize = 128;

/// Runtime configuration for one network, threaded through the shared
/// [`Ctx`] to every component spawn site.
#[derive(Clone, Debug, Default)]
pub struct RunCfg {
    /// Default capacity for data edges; `None` = unbounded
    /// ([`DEFAULT_STREAM_BOUND`] applies unless `SNET_STREAM_BOUND`
    /// or `NetBuilder::bound`/`unbounded` says otherwise). See
    /// [`crate::stream`] for what a bound does and does not gate.
    pub bound: Option<usize>,
    /// Per-edge capacity overrides keyed by edge name
    /// ([`Edge::name`]: `"ingress"`, `"dispatch"`, `"merge"`, `"out"`
    /// — `NetBuilder::bound_for` rejects any other). `0` keeps that
    /// edge unbounded even when `bound` is set.
    pub bound_overrides: HashMap<String, usize>,
    /// Opt-in bounded lane namespace for indexed-split routing paths:
    /// when set, parallel replicators hash tag values into this many
    /// lanes instead of one replica per distinct value, capping the
    /// path-interner growth on unbounded tag domains (see
    /// [`crate::split`] and the `NetBuilder::split_lanes` knob).
    pub split_lanes: Option<u32>,
    /// Per-replicator lane bounds keyed by routing-tag name; a tag's
    /// entry wins over the net-global `split_lanes`.
    pub split_lanes_by_tag: HashMap<String, u32>,
    /// Escape hatch for replica fusion (see [`crate::plan`], *fan
    /// fusion*): `None` = fuse (the default), `Some(false)` = run
    /// every fan on its own dispatcher even where the plan marked it
    /// `fused`. `SNET_FUSE=0` disables the whole fusion pass at
    /// compile time instead.
    pub fan_fuse: Option<bool>,
    /// What a box/filter panic does to the net (see
    /// [`crate::fault`]): fail it (default), skip the poison record,
    /// or restart the stage with backoff.
    pub fault_policy: FaultPolicy,
    /// Deterministic fault injection at the box/filter boundary;
    /// `None` (the default) injects nothing.
    pub chaos: Option<ChaosConfig>,
}

impl RunCfg {
    /// Process-default configuration: the data-edge bound comes from
    /// `SNET_STREAM_BOUND` — `n` bounds every data edge at `n`, `0`
    /// restores unbounded edges, and unset (or unparsable) applies
    /// [`DEFAULT_STREAM_BOUND`]. The fault policy comes from
    /// `SNET_FAULT_POLICY` and chaos injection from `SNET_CHAOS` (see
    /// [`crate::fault`]).
    pub fn from_env() -> RunCfg {
        let bound = match std::env::var("SNET_STREAM_BOUND")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
        {
            Some(0) => None,
            Some(n) => Some(n),
            None => Some(DEFAULT_STREAM_BOUND),
        };
        RunCfg {
            bound,
            fault_policy: FaultPolicy::from_env(),
            chaos: ChaosConfig::from_env(),
            ..RunCfg::default()
        }
    }
}

/// The data edges the spawn sites create: what [`Ctx::data_stream`] is
/// asked for, and — by [`Edge::name`] — every name a per-edge bound
/// (`NetBuilder::bound_for`, [`RunCfg::bound_overrides`]) can mean.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Edge {
    /// `Net::send` into the root component.
    Ingress,
    /// A dispatcher (split, parallel, star stamper or guard) into one
    /// of its lanes. An explicit bound here keeps every fan on its own
    /// dispatcher (see [`crate::fused::fan_fusable_here`]).
    Dispatch,
    /// A combinator's merged output, whichever driver runs it.
    Merge,
    /// A stage run's output: every box, filter and fused chain.
    Out,
}

impl Edge {
    pub const ALL: [Edge; 4] = [Edge::Ingress, Edge::Dispatch, Edge::Merge, Edge::Out];

    pub fn name(self) -> &'static str {
        match self {
            Edge::Ingress => "ingress",
            Edge::Dispatch => "dispatch",
            Edge::Merge => "merge",
            Edge::Out => "out",
        }
    }
}

/// Context threaded through instantiation and shared by all components
/// of one network: metrics, observers, the executor, and the task
/// tracker (components are created dynamically by the replicators, so
/// accounting accumulates at runtime).
pub struct Ctx {
    pub metrics: Arc<Metrics>,
    observers: Vec<Observer>,
    executor: Arc<dyn Executor>,
    tracker: Arc<Tracker>,
    faults: Arc<FaultHub>,
    cfg: RunCfg,
}

impl Ctx {
    /// Context on the process-default executor (the shared pool; see
    /// [`crate::sched`], *Selection*).
    pub fn new(metrics: Arc<Metrics>, observers: Vec<Observer>) -> Arc<Ctx> {
        Ctx::with_executor(metrics, observers, default_executor())
    }

    /// Context on an explicit executor.
    pub fn with_executor(
        metrics: Arc<Metrics>,
        observers: Vec<Observer>,
        executor: Arc<dyn Executor>,
    ) -> Arc<Ctx> {
        Ctx::with_config(metrics, observers, executor, RunCfg::default())
    }

    /// Context on an explicit executor with runtime options.
    pub fn with_config(
        metrics: Arc<Metrics>,
        observers: Vec<Observer>,
        executor: Arc<dyn Executor>,
        cfg: RunCfg,
    ) -> Arc<Ctx> {
        let tracker = Tracker::new();
        let faults = FaultHub::new(Arc::clone(&metrics));
        // Component-death leg of the fault channel: a task that dies
        // at the executor boundary (FailNet unwinds, coordination-
        // layer bugs) raises a typed Fault carrying its name, under
        // both executors (see sched *Failure model*).
        let hub = Arc::clone(&faults);
        tracker.set_panic_hook(move |name, payload| {
            hub.raise(Fault {
                component: name.to_string(),
                msg: payload_msg(payload),
                dropped: None,
            });
        });
        Arc::new(Ctx {
            metrics,
            observers,
            executor,
            tracker,
            faults,
            cfg,
        })
    }

    /// The indexed-split lane bound, if configured (net-global; see
    /// [`Ctx::split_lanes_for`] for the per-tag resolution replicators
    /// use).
    pub fn split_lanes(&self) -> Option<u32> {
        self.cfg.split_lanes
    }

    /// The lane bound for the replicator routing on `tag`: a per-tag
    /// binding wins over the net-global bound.
    pub fn split_lanes_for(&self, tag: &str) -> Option<u32> {
        self.cfg
            .split_lanes_by_tag
            .get(tag)
            .copied()
            .or(self.cfg.split_lanes)
    }

    /// Whether fan combinators may run fused at this net's runtime
    /// settings (default: on).
    pub fn fan_fuse(&self) -> bool {
        self.cfg.fan_fuse.unwrap_or(true)
    }

    /// The net's fault policy (fans run on their own dispatchers under
    /// `Restart`, whose backoff sleep must not park co-scheduled
    /// lanes).
    pub(crate) fn fault_policy(&self) -> FaultPolicy {
        self.cfg.fault_policy
    }

    /// An explicit per-edge capacity override for `edge`, if one was
    /// configured (`Some(0)` = explicitly unbounded).
    pub(crate) fn edge_override(&self, edge: Edge) -> Option<usize> {
        self.cfg.bound_overrides.get(edge.name()).copied()
    }

    /// Creates a data edge owned by the component at `path`: bounded
    /// (with [`EdgeStats`] registered at `{path}/stream_depth` and
    /// `{path}/credit_stalls`, mirrored into the `runtime/*` globals)
    /// when the net's bound — or a per-edge override for `edge` —
    /// says so; a plain unbounded stream otherwise. Spawn-time API:
    /// the bounded arm takes the metrics registry locks.
    pub fn data_stream(&self, path: CompPath, edge: Edge) -> (Sender, Receiver) {
        let cap = self
            .edge_override(edge)
            .unwrap_or_else(|| self.cfg.bound.unwrap_or(0));
        if cap == 0 {
            return stream();
        }
        let stats = EdgeStats {
            depth: self.metrics.handle_at(path, keys::STREAM_DEPTH),
            stalls: self.metrics.handle_at(path, keys::CREDIT_STALLS),
            depth_global: self.metrics.handle(keys::STREAM_DEPTH_GLOBAL),
            stalls_global: self.metrics.handle(keys::CREDIT_STALLS_GLOBAL),
        };
        stream_bounded(cap, Some(stats))
    }

    /// Spawns a named component on the context's executor and
    /// registers it with the tracker.
    pub fn spawn(
        self: &Arc<Self>,
        name: impl Into<String>,
        fut: impl Future<Output = ()> + Send + 'static,
    ) {
        let name = name.into();
        let done = self.tracker.register(&name);
        self.executor.spawn(name, Box::pin(fut), done);
    }

    /// Subscribes a fault observer: called synchronously for every
    /// contained fault in this net (guarded-core skips/restarts and
    /// component-level deaths). See [`crate::fault`].
    pub fn on_fault(&self, obs: FaultObserver) {
        self.faults.subscribe(obs);
    }

    /// Snapshot of this net's fault log (oldest first, bounded).
    pub fn faults(&self) -> Vec<Fault> {
        self.faults.faults()
    }

    /// The fault guard for the execution core at `path`, per the
    /// net's policy and chaos config; `None` in the default
    /// (FailNet, no injection) configuration — the hot path then
    /// bypasses fault handling entirely.
    pub(crate) fn fault_guard(&self, path: CompPath) -> Option<FaultGuard> {
        FaultGuard::for_stage(
            self.cfg.fault_policy,
            self.cfg.chaos.as_ref(),
            &self.faults,
            &self.metrics,
            path,
        )
    }

    /// The executor components of this network run on.
    pub fn executor(&self) -> &Arc<dyn Executor> {
        &self.executor
    }

    /// Notifies observers of a record passing a component boundary.
    /// Observers receive the pre-rendered path string by reference —
    /// no allocation happens on this edge.
    pub fn observe(&self, path: CompPath, dir: Dir, rec: &Record) {
        for obs in &self.observers {
            obs(path.as_str(), dir, rec);
        }
    }

    /// True when at least one observer is registered (lets hot paths
    /// skip building observation arguments).
    pub fn has_observers(&self) -> bool {
        !self.observers.is_empty()
    }

    /// Waits until every component spawned so far — including ones
    /// spawned transitively at runtime — has completed. Panics if any
    /// component panicked, propagating the first panic payload.
    pub fn join_all(&self) {
        self.tracker.wait_quiescent();
    }

    /// Number of components spawned so far (tasks, not OS threads —
    /// under a pool executor many components share few threads).
    pub fn threads_spawned(&self) -> usize {
        self.tracker.tasks_spawned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::WorkStealingPool;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn spawn_and_join() {
        let ctx = Ctx::new(Metrics::new(), Vec::new());
        let n = Arc::new(AtomicUsize::new(0));
        for _ in 0..4 {
            let n = Arc::clone(&n);
            ctx.spawn("t", async move {
                n.fetch_add(1, Ordering::Relaxed);
            });
        }
        ctx.join_all();
        assert_eq!(n.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn join_all_catches_transitively_spawned_components() {
        // Under both executors: a component spawned *by* a component
        // is covered by the same join.
        for exec in [
            Arc::new(crate::sched::ThreadPerComponent) as Arc<dyn Executor>,
            Arc::new(WorkStealingPool::new(2)) as Arc<dyn Executor>,
        ] {
            let ctx = Ctx::with_executor(Metrics::new(), Vec::new(), exec);
            let n = Arc::new(AtomicUsize::new(0));
            {
                let ctx2 = Arc::clone(&ctx);
                let n = Arc::clone(&n);
                ctx.spawn("outer", async move {
                    let n2 = Arc::clone(&n);
                    ctx2.spawn("inner", async move {
                        n2.fetch_add(10, Ordering::Relaxed);
                    });
                    n.fetch_add(1, Ordering::Relaxed);
                });
            }
            ctx.join_all();
            assert_eq!(n.load(Ordering::Relaxed), 11);
        }
    }

    #[test]
    fn join_all_propagates_panics() {
        for exec in [
            Arc::new(crate::sched::ThreadPerComponent) as Arc<dyn Executor>,
            Arc::new(WorkStealingPool::new(1)) as Arc<dyn Executor>,
        ] {
            let ctx = Ctx::with_executor(Metrics::new(), Vec::new(), exec);
            ctx.spawn("boom", async { panic!("component failure") });
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| ctx.join_all()));
            assert!(r.is_err());
        }
    }

    #[test]
    fn observers_receive_records() {
        let seen = Arc::new(AtomicUsize::new(0));
        let seen2 = Arc::clone(&seen);
        let obs: Observer = Arc::new(move |_path, _dir, _rec| {
            seen2.fetch_add(1, Ordering::Relaxed);
        });
        let ctx = Ctx::new(Metrics::new(), vec![obs]);
        assert!(ctx.has_observers());
        let p = CompPath::root("p");
        ctx.observe(p, Dir::In, &Record::new());
        ctx.observe(p, Dir::Out, &Record::new());
        assert_eq!(seen.load(Ordering::Relaxed), 2);
    }
}
