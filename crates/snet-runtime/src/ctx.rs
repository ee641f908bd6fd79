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

use crate::fault::{payload_msg, Fault, FaultGuard, FaultHub, FaultObserver, FaultPolicy};
use crate::metrics::{keys, Counter, Metrics};
use crate::net::OverloadPolicy;
use crate::path::{name, CompPath};
use crate::sched::{Executor, Tracker};
use crate::stream::chan::EdgeStats;
use crate::stream::{stream, stream_bounded, Dir, Observer, Receiver, Sender};
use snet_types::Record;
use std::fmt;
use std::future::Future;
use std::sync::{Arc, OnceLock};

/// The default data-edge capacity ([`RunCfg::bound`]).
/// **Backpressure is on by default** since PR 7, with
/// the value picked from PR 7's open-loop serve run (CHANGES.md): at
/// moderate load (300 req/s smoke) steady-state depth high-water is
/// single-digit on both service workloads, so 128 is an order of
/// magnitude above anything a stable system queues; at 60 % of
/// closed-loop capacity the sudoku workload's ingress briefly fills
/// to the cap (52 producer stalls across 12 000 requests, zero
/// losses, p99 still bounded) — i.e. the bound only ever engages when
/// arrivals genuinely outrun service, which is exactly when unbounded
/// edges would otherwise grow without limit. Escape hatch:
/// `NetBuilder::unbounded()` restores the seed's unbounded edges.
pub const DEFAULT_STREAM_BOUND: usize = 128;

/// The configuration of one network — the one value every setting
/// resolves into. [`RunCfg::default`] is the default,
/// [`RunCfg::try_from_env`] is the default with the pool size the
/// environment gives, a `NetBuilder` starts from the latter and its
/// setters assign fields; [`Ctx`] carries the result to every
/// component spawn site. How far a replicator unfolds is not a
/// setting: the program bounds it, with a throttle filter in front of
/// the `!!`/`!` (see [`crate::split`]).
#[derive(Clone, Debug, PartialEq)]
pub struct RunCfg {
    /// Capacity of every data edge; `None` = unbounded. See
    /// [`crate::stream`] for what a bound does and does not gate.
    pub bound: Option<usize>,
    /// Whether the net is compiled fused (see [`crate::plan`]): the
    /// flag [`crate::compile_cfg`] sets on every spine and fan, and so
    /// whether the net is one stage run or the paper's component
    /// graph. Read by `NetBuilder::build*`; a plan that is already
    /// compiled runs as it was compiled.
    pub fuse: bool,
    /// Worker count of the process-wide shared pool, applied when the
    /// pool is created on first use (see [`crate::sched`],
    /// *Selection*); `None` = one worker per core. Nothing to a net
    /// that is given an executor of its own.
    pub workers: Option<usize>,
    /// What `Net::send` does when the bounded ingress edge is full.
    pub overload: OverloadPolicy,
    /// What a box/filter panic does to the net (see
    /// [`crate::fault`]): fail it (default) or skip the poison record.
    pub fault_policy: FaultPolicy,
}

impl Default for RunCfg {
    /// Every data edge bounded at [`DEFAULT_STREAM_BOUND`], fusion
    /// on, a core-sized pool, blocking ingress, `FailNet`: what
    /// [`RunCfg::try_from_env`] reads when `SNET_WORKERS` is unset.
    fn default() -> RunCfg {
        RunCfg {
            bound: Some(DEFAULT_STREAM_BOUND),
            fuse: true,
            workers: None,
            overload: OverloadPolicy::Block,
            fault_policy: FaultPolicy::FailNet,
        }
    }
}

impl RunCfg {
    /// The default configuration with the shared pool sized by the
    /// environment — the one place an `SNET_*` variable is read:
    /// `SNET_WORKERS=n` sizes the shared pool ([`RunCfg::workers`]), a
    /// deployment setting. Everything else about a net is set on its
    /// `NetBuilder`.
    ///
    /// A value the variable cannot mean is a [`ConfigError::Env`],
    /// never the default: a typo must not silently run on a pool it
    /// was meant to change. `NetBuilder::build*` returns it as
    /// `BuildError::Config`.
    pub fn try_from_env() -> Result<RunCfg, ConfigError> {
        // Lossy: a value that is not Unicode then fails its parse.
        RunCfg::with_workers(std::env::var_os("SNET_WORKERS").map(|v| v.to_string_lossy().into()))
    }

    /// [`RunCfg::try_from_env`] for callers with no error channel
    /// ([`crate::sched::default_executor`], benches): panics with the
    /// [`ConfigError`] message — loud, never a silent fallback.
    pub fn from_env() -> RunCfg {
        RunCfg::try_from_env().unwrap_or_else(|e| panic!("{e}"))
    }

    /// The default with `SNET_WORKERS` set to `value`, if set: the
    /// reader proper, which the crate's unit tests call directly (the
    /// process environment is shared state they must not set).
    pub(crate) fn with_workers(value: Option<String>) -> Result<RunCfg, ConfigError> {
        let mut cfg = RunCfg::default();
        if let Some(value) = value {
            let n = value.trim().parse().ok().filter(|n| *n >= 1);
            cfg.workers = Some(n.ok_or(ConfigError::Env {
                var: "SNET_WORKERS",
                value,
                expected: "a positive integer",
            })?);
        }
        Ok(cfg)
    }
}

/// Why a network's configuration was rejected: `SNET_WORKERS` or a
/// `NetBuilder` setting that can mean nothing. Surfaces from every
/// `NetBuilder::build*` as [`crate::BuildError::Config`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ConfigError {
    /// `SNET_WORKERS` is set to a value it cannot mean (see
    /// [`RunCfg::try_from_env`]).
    Env {
        var: &'static str,
        value: String,
        expected: &'static str,
    },
    /// `NetBuilder::bound(0)`.
    ZeroBound,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::Env {
                var,
                value,
                expected,
            } => write!(f, "{var}={value:?}: expected {expected}"),
            ConfigError::ZeroBound => write!(
                f,
                "bound(0): a bounded edge holds at least one record \
                 (unbounded() lifts the default bound)"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

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
    /// `runtime/stream_depth` and `runtime/credit_stalls`, registered
    /// with the net's first bounded edge.
    edge_globals: OnceLock<[Counter; 2]>,
}

impl Ctx {
    /// The context of one network: its metrics registry, observers,
    /// the executor its components run on and its configuration.
    pub fn new(
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
            edge_globals: OnceLock::new(),
        })
    }

    /// The net's configuration.
    pub(crate) fn cfg(&self) -> &RunCfg {
        &self.cfg
    }

    /// Creates a data edge owned by the component at `path`: bounded
    /// (with [`EdgeStats`] registered at `{path}/stream_depth` and
    /// `{path}/credit_stalls`, mirrored into the `runtime/*` globals)
    /// at [`RunCfg::bound`] when the net is bounded; a plain unbounded
    /// stream otherwise. Spawn-time API: the bounded arm takes the
    /// metrics registry lock.
    pub fn data_stream(&self, path: CompPath) -> (Sender, Receiver) {
        let Some(cap) = self.cfg.bound else {
            return stream();
        };
        let [depth, stalls] = self.metrics.counters_at(
            path,
            [name!(keys::STREAM_DEPTH), name!(keys::CREDIT_STALLS)],
        );
        let [depth_global, stalls_global] = self.edge_globals.get_or_init(|| {
            [
                self.metrics.handle(keys::STREAM_DEPTH_GLOBAL),
                self.metrics.handle(keys::CREDIT_STALLS_GLOBAL),
            ]
        });
        let stats = EdgeStats {
            depth,
            stalls,
            depth_global: depth_global.clone(),
            stalls_global: stalls_global.clone(),
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
    /// contained fault in this net (guarded-core skips and
    /// component-level deaths). See [`crate::fault`].
    pub fn on_fault(&self, obs: FaultObserver) {
        self.faults.subscribe(obs);
    }

    /// Snapshot of this net's fault log: the newest `FAULT_LOG_CAP`
    /// faults, oldest first.
    pub fn faults(&self) -> Vec<Fault> {
        self.faults.faults()
    }

    /// The fault guard for the execution core at `path`, per the
    /// net's policy; `None` under the default `FailNet` — the hot path
    /// then bypasses fault handling entirely.
    pub(crate) fn fault_guard(&self, path: CompPath) -> Option<FaultGuard> {
        FaultGuard::for_stage(self.cfg.fault_policy, &self.faults, &self.metrics, path)
    }

    /// The executor components of this network run on.
    pub fn executor(&self) -> &Arc<dyn Executor> {
        &self.executor
    }

    /// The tracker that counts this network's tasks, and names the
    /// network to its executor ([`Executor::park_helper`]).
    pub(crate) fn tracker(&self) -> &Arc<Tracker> {
        &self.tracker
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
    ///
    /// The joining thread helps the net's executor while it waits, as a
    /// receiver in `Net::recv` does ([`Tracker::wait_quiescent`]): on a
    /// pool, a thread that is no worker runs what is left of the net.
    pub fn join_all(&self) {
        self.tracker.wait_quiescent(Some(&*self.executor));
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
    use crate::instantiate::test_ctx;
    use crate::sched::WorkStealingPool;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn spawn_and_join() {
        let ctx = test_ctx(Vec::new());
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
            let ctx = Ctx::new(Metrics::new(), Vec::new(), exec, RunCfg::default());
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
            let ctx = Ctx::new(Metrics::new(), Vec::new(), exec, RunCfg::default());
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
        let ctx = test_ctx(vec![obs]);
        assert!(ctx.has_observers());
        let p = CompPath::root("p");
        ctx.observe(p, Dir::In, &Record::new());
        ctx.observe(p, Dir::Out, &Record::new());
        assert_eq!(seen.load(Ordering::Relaxed), 2);
    }
}
