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
use crate::net::OverloadPolicy;
use crate::path::CompPath;
use crate::sched::{Executor, Tracker};
use crate::stream::chan::EdgeStats;
use crate::stream::{stream, stream_bounded, Dir, Observer, Receiver, Sender};
use snet_types::Record;
use std::collections::HashMap;
use std::fmt;
use std::future::Future;
use std::sync::Arc;

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
/// edges would otherwise grow without limit. Escape hatches:
/// `SNET_STREAM_BOUND=0` process-wide or `NetBuilder::unbounded()`
/// per net restore the seed's unbounded edges.
pub const DEFAULT_STREAM_BOUND: usize = 128;

/// The configuration of one network — the one value every setting
/// resolves into. [`RunCfg::default`] is the default,
/// [`RunCfg::try_from_env`] is the default as the environment amends
/// it, a `NetBuilder` starts from the latter and its setters assign
/// fields; [`Ctx`] carries the result to every component spawn site.
#[derive(Clone, Debug, PartialEq)]
pub struct RunCfg {
    /// Capacity of every data edge; `None` = unbounded. See
    /// [`crate::stream`] for what a bound does and does not gate.
    pub bound: Option<usize>,
    /// Per-edge capacity overrides (`NetBuilder::bound_for`). `0`
    /// keeps that edge unbounded even when `bound` is set.
    pub bound_overrides: HashMap<Edge, usize>,
    /// Opt-in bounded lane namespace for indexed-split routing paths:
    /// when set, parallel replicators hash tag values into this many
    /// lanes instead of one replica per distinct value, capping the
    /// path-interner growth on unbounded tag domains (see
    /// [`crate::split`] and the `NetBuilder::split_lanes` knob).
    pub split_lanes: Option<u32>,
    /// Per-replicator lane bounds keyed by routing-tag name; a tag's
    /// entry wins over the net-global `split_lanes`.
    pub split_lanes_by_tag: HashMap<String, u32>,
    /// Whether compilation runs the fusion pass (see [`crate::plan`]).
    /// Read by [`crate::compile`] and `NetBuilder::build*`; a plan
    /// that is already compiled keeps what it was compiled with.
    pub fuse: bool,
    /// Escape hatch for replica fusion (see [`crate::plan`], *fan
    /// fusion*): `false` runs every fan on its own dispatcher even
    /// where the plan marked it `fused`.
    pub fan_fuse: bool,
    /// Worker count of the process-wide shared pool, applied when the
    /// pool is created on first use (see [`crate::sched`],
    /// *Selection*); `None` = one worker per core. Nothing to a net
    /// that is given an executor of its own.
    pub workers: Option<usize>,
    /// What `Net::send` does when the bounded ingress edge is full.
    pub overload: OverloadPolicy,
    /// What a box/filter panic does to the net (see
    /// [`crate::fault`]): fail it (default), skip the poison record,
    /// or restart the stage with backoff.
    pub fault_policy: FaultPolicy,
    /// Deterministic fault injection at the box/filter boundary;
    /// `None` (the default) injects nothing.
    pub chaos: Option<ChaosConfig>,
}

impl Default for RunCfg {
    /// Every data edge bounded at [`DEFAULT_STREAM_BOUND`], both
    /// fusions on, a core-sized pool, blocking ingress, `FailNet`, no
    /// chaos: what [`RunCfg::try_from_env`] reads in an empty
    /// environment.
    fn default() -> RunCfg {
        RunCfg {
            bound: Some(DEFAULT_STREAM_BOUND),
            bound_overrides: HashMap::new(),
            split_lanes: None,
            split_lanes_by_tag: HashMap::new(),
            fuse: true,
            fan_fuse: true,
            workers: None,
            overload: OverloadPolicy::Block,
            fault_policy: FaultPolicy::FailNet,
            chaos: None,
        }
    }
}

impl RunCfg {
    /// The default configuration as the process environment amends it
    /// — the one place an `SNET_*` variable is read:
    ///
    /// * `SNET_STREAM_BOUND=n` bounds every data edge at `n` records,
    ///   `0` lifts the bound ([`RunCfg::bound`]);
    /// * `SNET_FUSE=0` turns the fusion pass off, `1` is the default
    ///   ([`RunCfg::fuse`]);
    /// * `SNET_WORKERS=n` sizes the shared pool ([`RunCfg::workers`]);
    /// * `SNET_FAULT_POLICY=failnet|skip|restart[:RETRIES:BACKOFF_MS]`
    ///   ([`FaultPolicy::parse`]);
    /// * `SNET_CHAOS=seed:rate[:stall_rate:stall_ms]`
    ///   ([`ChaosConfig::parse`]).
    ///
    /// A variable that is set to something it cannot mean is a
    /// [`ConfigError::Env`], never the default: a typo must not
    /// silently test or serve the configuration it was meant to
    /// change. `NetBuilder::build*` returns it as
    /// `BuildError::Config`; a `NetBuilder` setter assigns over what
    /// was read here, so per net the setter wins.
    pub fn try_from_env() -> Result<RunCfg, ConfigError> {
        // Lossy: a value that is not Unicode then fails its parse.
        RunCfg::resolve(|var| std::env::var_os(var).map(|v| v.to_string_lossy().into_owned()))
    }

    /// [`RunCfg::try_from_env`] for callers with no error channel
    /// ([`crate::compile`], [`crate::sched::default_executor`],
    /// benches): panics with the [`ConfigError`] message — loud, never
    /// a silent fallback.
    pub fn from_env() -> RunCfg {
        RunCfg::try_from_env().unwrap_or_else(|e| panic!("{e}"))
    }

    /// The reader over a table: the process environment is shared
    /// state, which the crate's unit tests must not set.
    #[cfg(test)]
    pub(crate) fn from_table(env: &[(&str, &str)]) -> Result<RunCfg, ConfigError> {
        RunCfg::resolve(|var| Some(env.iter().find(|(k, _)| *k == var)?.1.to_string()))
    }

    /// The reader proper, over any `name -> value` lookup.
    fn resolve(env: impl Fn(&'static str) -> Option<String>) -> Result<RunCfg, ConfigError> {
        /// Assigns what a variable's trimmed value means, if anything.
        type Set = fn(&mut RunCfg, &str) -> Option<()>;
        let vars: [(&str, &str, Set); 5] = [
            (
                "SNET_STREAM_BOUND",
                "a capacity in records (0 = unbounded)",
                |c, v| {
                    v.parse()
                        .ok()
                        .map(|n: usize| c.bound = (n > 0).then_some(n))
                },
            ),
            ("SNET_FUSE", "0 or 1", |c, v| {
                let on = match v {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                };
                on.map(|on| c.fuse = on)
            }),
            ("SNET_WORKERS", "a positive integer", |c, v| {
                let n = v.parse().ok().filter(|n| *n >= 1);
                n.map(|n| c.workers = Some(n))
            }),
            (
                "SNET_FAULT_POLICY",
                "failnet, skip, restart or restart:RETRIES:BACKOFF_MS",
                |c, v| FaultPolicy::parse(v).map(|p| c.fault_policy = p),
            ),
            (
                "SNET_CHAOS",
                "seed:rate[:stall_rate:stall_ms] with rate in 0..=1",
                |c, v| ChaosConfig::parse(v).map(|chaos| c.chaos = Some(chaos)),
            ),
        ];
        let mut cfg = RunCfg::default();
        for (var, expected, set) in vars {
            if let Some(value) = env(var) {
                set(&mut cfg, value.trim()).ok_or(ConfigError::Env {
                    var,
                    value,
                    expected,
                })?;
            }
        }
        Ok(cfg)
    }
}

/// Why a network's configuration was rejected: an environment variable
/// or a `NetBuilder` setting that can mean nothing. Surfaces from every
/// `NetBuilder::build*` as [`crate::BuildError::Config`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ConfigError {
    /// An `SNET_*` variable is set to a value it cannot mean (see
    /// [`RunCfg::try_from_env`]).
    Env {
        var: &'static str,
        value: String,
        expected: &'static str,
    },
    /// `NetBuilder::bound_for` named an edge no spawn site creates
    /// (the names are [`Edge::name`]'s).
    UnknownEdge(String),
    /// `NetBuilder::split_lanes_for` named a tag no replicator
    /// (`!` / `!!`) of the net routes on.
    UnknownSplitTag(String),
    /// `NetBuilder::split_lanes(0)` / `split_lanes_for(_, 0)`.
    ZeroLanes,
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
            ConfigError::UnknownEdge(name) => {
                let known = Edge::ALL.map(|e| e.name());
                write!(
                    f,
                    "bound_for({name:?}): no such data edge (expected one of {known:?})"
                )
            }
            ConfigError::UnknownSplitTag(tag) => write!(
                f,
                "split_lanes_for({tag:?}): no replicator of this net routes on <{tag}>"
            ),
            ConfigError::ZeroLanes => {
                write!(f, "split_lanes: a replicator needs at least one lane")
            }
            ConfigError::ZeroBound => write!(
                f,
                "bound(0): a bounded edge holds at least one record \
                 (unbounded() lifts the default bound)"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

/// The data edges the spawn sites create: what [`Ctx::data_stream`] is
/// asked for, and — by [`Edge::name`] — every name a per-edge bound
/// (`NetBuilder::bound_for`, [`RunCfg::bound_overrides`]) can mean.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
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

    /// The edge called `name` — the inverse of [`Edge::name`], and the
    /// one place a name that is no data edge is rejected.
    pub fn from_name(name: &str) -> Result<Edge, ConfigError> {
        Edge::ALL
            .into_iter()
            .find(|e| e.name() == name)
            .ok_or_else(|| ConfigError::UnknownEdge(name.to_string()))
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
        })
    }

    /// The net's configuration.
    pub(crate) fn cfg(&self) -> &RunCfg {
        &self.cfg
    }

    /// Creates a data edge owned by the component at `path`: bounded
    /// (with [`EdgeStats`] registered at `{path}/stream_depth` and
    /// `{path}/credit_stalls`, mirrored into the `runtime/*` globals)
    /// when the net's bound — or a per-edge override for `edge` —
    /// says so; a plain unbounded stream otherwise. Spawn-time API:
    /// the bounded arm takes the metrics registry locks.
    pub fn data_stream(&self, path: CompPath, edge: Edge) -> (Sender, Receiver) {
        // An override of 0 is "explicitly unbounded".
        let cap = match self.cfg.bound_overrides.get(&edge) {
            Some(&cap) => cap,
            None => self.cfg.bound.unwrap_or(0),
        };
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
