//! The public face of the runtime: building and driving networks.
//!
//! ```
//! use snet_runtime::{NetBuilder, collect_records};
//! use snet_types::Record;
//!
//! let mut net = NetBuilder::from_source(
//!         "box inc (x) -> (x);\n\
//!          net main = inc .. inc;",
//!     )
//!     .unwrap()
//!     .bind("inc", |rec, em| {
//!         let x = rec.field("x").unwrap().as_int().unwrap();
//!         em.emit(Record::build().field("x", x + 1).finish());
//!     })
//!     .build("main")
//!     .unwrap();
//!
//! net.send(Record::build().field("x", 40i64).finish()).unwrap();
//! let outputs = net.finish();
//! assert_eq!(outputs[0].field("x").unwrap().as_int(), Some(42));
//! ```

use crate::ctx::{Ctx, Edge, RunCfg};
use crate::fault::{ChaosConfig, Fault, FaultObserver, FaultPolicy};
use crate::instantiate::instantiate;
use crate::memo::TypeMemo;
use crate::metrics::{keys, Metrics};
use crate::path::CompPath;
use crate::plan::{Bindings, CompileError, Plan};
use crate::sched::{ConfigError, Executor};
use crate::stream::chan::TryFeedError;
use crate::stream::{Msg, Observer, Receiver, Sender};
use parking_lot::RwLock;
use snet_lang::{parse_net_expr, parse_program, Env, NetAst, ParseError, Program};
use snet_types::{MultiType, NetSig, Record};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Errors surfaced while building a network.
#[derive(Debug)]
pub enum BuildError {
    Parse(ParseError),
    Compile(CompileError),
    Type(snet_types::TypeError),
    UnknownNet(String),
    /// A setting that can mean nothing: `SNET_WORKERS` is not a worker
    /// count (see [`crate::sched`]), a zero lane count or bound, or a
    /// [`NetBuilder::bound_for`] name that is no data edge.
    Config(ConfigError),
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::Parse(e) => write!(f, "{e}"),
            BuildError::Compile(e) => write!(f, "{e}"),
            BuildError::Type(e) => write!(f, "{e}"),
            BuildError::UnknownNet(n) => write!(f, "program declares no net '{n}'"),
            BuildError::Config(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for BuildError {}

impl From<ParseError> for BuildError {
    fn from(e: ParseError) -> Self {
        BuildError::Parse(e)
    }
}

impl From<CompileError> for BuildError {
    fn from(e: CompileError) -> Self {
        BuildError::Compile(e)
    }
}

impl From<snet_types::TypeError> for BuildError {
    fn from(e: snet_types::TypeError) -> Self {
        BuildError::Type(e)
    }
}

impl From<ConfigError> for BuildError {
    fn from(e: ConfigError) -> Self {
        BuildError::Config(e)
    }
}

/// Builder: parse / declare, bind box implementations, then build.
pub struct NetBuilder {
    program: Program,
    bindings: Bindings,
    observers: Vec<Observer>,
    executor: Option<Arc<dyn Executor>>,
    split_lanes: Option<u32>,
    split_lanes_by_tag: HashMap<String, u32>,
    fuse: Option<bool>,
    fan_fuse: Option<bool>,
    bound: Option<usize>,
    bound_overrides: HashMap<String, usize>,
    overload: OverloadPolicy,
    fault_policy: Option<FaultPolicy>,
    chaos: Option<ChaosConfig>,
    fault_observers: Vec<FaultObserver>,
    /// The first setting rejected so far; `build*` returns it.
    invalid: Option<ConfigError>,
}

impl NetBuilder {
    /// Starts from S-Net source text (box and net declarations).
    pub fn from_source(src: &str) -> Result<NetBuilder, BuildError> {
        let program = parse_program(src)?;
        Ok(NetBuilder::from_program(program))
    }

    /// Starts from an already-parsed program.
    pub fn from_program(program: Program) -> NetBuilder {
        NetBuilder {
            program,
            bindings: Bindings::new(),
            observers: Vec::new(),
            executor: None,
            split_lanes: None,
            split_lanes_by_tag: HashMap::new(),
            fuse: None,
            fan_fuse: None,
            bound: None,
            bound_overrides: HashMap::new(),
            overload: OverloadPolicy::Block,
            fault_policy: None,
            chaos: None,
            fault_observers: Vec::new(),
            invalid: None,
        }
    }

    /// Records `err` unless `ok`; the setters have no error channel,
    /// so `build*` reports the first one.
    fn require(&mut self, ok: bool, err: ConfigError) {
        if !ok {
            self.invalid.get_or_insert(err);
        }
    }

    /// Binds a box implementation by name.
    pub fn bind(
        mut self,
        name: &str,
        imp: impl Fn(&Record, &mut crate::boxfn::Emitter) + Send + Sync + 'static,
    ) -> Self {
        self.bindings = self.bindings.bind(name, imp);
        self
    }

    /// Registers a stream observer (called with component path,
    /// direction, record).
    pub fn observe(mut self, obs: Observer) -> Self {
        self.observers.push(obs);
        self
    }

    /// Selects the executor the network's components run on. Default:
    /// the process-default executor — the shared work-stealing pool,
    /// one worker per core unless `SNET_WORKERS` says otherwise (see
    /// [`crate::sched`]); an invalid value there fails `build*` with
    /// [`BuildError::Config`].
    pub fn executor(mut self, executor: Arc<dyn Executor>) -> Self {
        self.executor = Some(executor);
        self
    }

    /// Bounds every indexed parallel replicator (`!!`/`!`) of this
    /// network to `lanes` replicas: routing-tag values are hashed into
    /// a fixed lane namespace instead of unfolding one replica (and
    /// interning one branch path) per distinct value. Opt-in — the
    /// default is the paper's value-indexed unfolding. Use it when a
    /// split tag is drawn from an unbounded domain (session ids,
    /// request ids): the `runtime/interner_paths` gauge then plateaus
    /// instead of growing with the domain. Equal tag values still
    /// always reach the same replica; see [`crate::split`] for the
    /// trade-off discussion. Zero lanes fail `build*` with
    /// [`BuildError::Config`].
    pub fn split_lanes(mut self, lanes: u32) -> Self {
        self.require(lanes > 0, ConfigError::ZeroLanes);
        self.split_lanes = Some(lanes);
        self
    }

    /// Bounds only the replicators routing on the named tag to
    /// `lanes` lanes, leaving other replicators on the net-global
    /// [`NetBuilder::split_lanes`] setting (or unbounded unfolding).
    /// Use it when one tag is drawn from an unbounded domain but
    /// others are small and should keep the paper's value-indexed
    /// replicas.
    pub fn split_lanes_for(mut self, tag: &str, lanes: u32) -> Self {
        self.require(lanes > 0, ConfigError::ZeroLanes);
        self.split_lanes_by_tag.insert(tag.to_string(), lanes);
        self
    }

    /// Bounds every data edge of this network to `cap` queued
    /// records, enabling credit-based backpressure: producers of data
    /// records park when an edge fills instead of growing the queue.
    /// Sort records, merger-drained edges and the network's output
    /// edge stay exempt so deterministic merging cannot deadlock (see
    /// [`crate::stream`] and [`crate::sched`]). Default:
    /// [`crate::ctx::DEFAULT_STREAM_BOUND`], overridable process-wide
    /// with `SNET_STREAM_BOUND` (`0` = unbounded; see
    /// [`RunCfg::from_env`]). What happens when the *ingress* edge is
    /// full is the [`NetBuilder::overload`] policy. A capacity of zero
    /// fails `build*` with [`BuildError::Config`]; lifting the default
    /// bound is [`NetBuilder::unbounded`].
    pub fn bound(mut self, cap: usize) -> Self {
        self.require(cap > 0, ConfigError::ZeroBound);
        self.bound = Some(cap);
        self
    }

    /// Removes the data-edge bound for this network: every edge grows
    /// without backpressure, the seed's behaviour. The per-net
    /// rendering of `SNET_STREAM_BOUND=0`, and the escape hatch from
    /// the bounded default.
    pub fn unbounded(mut self) -> Self {
        self.bound = Some(0);
        self
    }

    /// Overrides the capacity of every data edge of one kind. There
    /// are four ([`Edge`]): `"ingress"` (`Net::send` into the net),
    /// `"dispatch"` (a dispatcher into one lane), `"merge"` (a
    /// combinator's merged output) and `"out"` (the output of a box,
    /// filter or fused chain); any other name fails `build*` with
    /// [`BuildError::Config`]. `0` keeps those edges unbounded even
    /// when [`NetBuilder::bound`] is set. A positive `"dispatch"`
    /// bound asks for credit-gated lane edges, which a fused fan does
    /// not have: it puts **every** fan of the net, at every nesting
    /// level, back on its own dispatcher, exactly like
    /// [`NetBuilder::fuse_fan`]`(false)`.
    pub fn bound_for(mut self, edge: &str, cap: usize) -> Self {
        self.require(
            Edge::ALL.iter().any(|e| e.name() == edge),
            ConfigError::UnknownEdge(edge.to_string()),
        );
        self.bound_overrides.insert(edge.to_string(), cap);
        self
    }

    /// Selects what [`Net::send`] does when the bounded ingress edge
    /// is full (default: [`OverloadPolicy::Block`]). Irrelevant while
    /// the network is unbounded.
    pub fn overload(mut self, policy: OverloadPolicy) -> Self {
        self.overload = policy;
        self
    }

    /// Enables or disables the pipeline fusion pass for this network
    /// (see [`crate::plan`]): fused, a maximal `Serial` chain of boxes
    /// and filters runs as **one** scheduled component instead of one
    /// per stage. Default: on, unless `SNET_FUSE=0` is set
    /// process-wide. Output (including deterministic ordering) and
    /// per-stage metrics paths are identical either way — the escape
    /// hatch exists to keep the unfused topology testable and to
    /// restore the paper's literal one-component-per-stage execution
    /// model.
    pub fn fuse(mut self, fuse: bool) -> Self {
        self.fuse = Some(fuse);
        self
    }

    /// Enables or disables *replica* fusion for this network's fan
    /// combinators (see [`crate::plan`], *fan fusion*): fused, a
    /// split/parallel/star executes dispatch, lanes and merge as
    /// **one** component — fans nested in its lanes included, so
    /// Fig. 2's star of splits is a single task however far it
    /// unfolds. Default: on whenever the fusion pass itself is on —
    /// this knob is the per-net escape hatch that keeps chains fused
    /// while restoring the dispatcher/lane/merger topology for every
    /// fan at every level: the paper's literal one-component-per-
    /// replica model, and the only way replicas (or the branches of a
    /// `slow || fast`) run concurrently. Output and per-stage metrics
    /// paths are identical either way.
    pub fn fuse_fan(mut self, fuse: bool) -> Self {
        self.fan_fuse = Some(fuse);
        self
    }

    /// Selects what a box/filter panic does to this network (see
    /// [`crate::fault`]): fail the whole net
    /// ([`FaultPolicy::FailNet`], the default), drop the poison
    /// record and keep the component alive
    /// ([`FaultPolicy::SkipRecord`]), or retry the stage with bounded
    /// exponential backoff before giving up to a skip
    /// ([`FaultPolicy::Restart`]). Per-net setting; the process
    /// default comes from `SNET_FAULT_POLICY`. Deterministic merge
    /// output is unaffected by containment — see the failure-model
    /// notes in [`crate::sched`].
    pub fn fault_policy(mut self, policy: FaultPolicy) -> Self {
        self.fault_policy = Some(policy);
        self
    }

    /// Enables deterministic fault injection at every box/filter
    /// boundary of this network (see [`ChaosConfig`]): seeded
    /// probabilistic panics and stalls, reproducible run-to-run from
    /// the seed. Testing/soak knob; the process default comes from
    /// `SNET_CHAOS`.
    pub fn chaos(mut self, chaos: ChaosConfig) -> Self {
        self.chaos = Some(chaos);
        self
    }

    /// Registers a fault observer: called synchronously with every
    /// contained [`Fault`] (skipped records, restarts that recovered,
    /// component deaths). Pair with
    /// [`crate::TraceLog::fault_observer`] for a recording sink.
    pub fn on_fault(mut self, obs: FaultObserver) -> Self {
        self.fault_observers.push(obs);
        self
    }

    /// Compiles and spawns the named net.
    pub fn build(self, net_name: &str) -> Result<Net, BuildError> {
        let env = self.program.env()?;
        let body = self
            .program
            .net(net_name)
            .ok_or_else(|| BuildError::UnknownNet(net_name.to_string()))?
            .body
            .clone();
        self.build_ast(&env, &body)
    }

    /// Compiles and spawns a network expression given as text, resolved
    /// against the program's declarations.
    pub fn build_expr(self, expr: &str) -> Result<Net, BuildError> {
        let env = self.program.env()?;
        let ast = parse_net_expr(expr)?;
        self.build_ast(&env, &ast)
    }

    fn build_ast(self, env: &Env, ast: &NetAst) -> Result<Net, BuildError> {
        if let Some(err) = self.invalid {
            return Err(err.into());
        }
        let fuse = self.fuse.unwrap_or_else(crate::plan::fuse_default);
        let plan = crate::plan::compile_cfg(ast, env, &self.bindings, fuse)?;
        let executor = match self.executor {
            Some(executor) => executor,
            None => crate::sched::try_default_executor()?,
        };
        let cfg = RunCfg {
            // Per-net setting beats the process default; an explicit
            // `unbounded()` is stored as `Some(0)` and resolves to no
            // bound at all.
            bound: match self.bound {
                Some(0) => None,
                Some(n) => Some(n),
                None => RunCfg::from_env().bound,
            },
            bound_overrides: self.bound_overrides,
            split_lanes: self.split_lanes,
            split_lanes_by_tag: self.split_lanes_by_tag,
            fan_fuse: self.fan_fuse,
            fault_policy: self.fault_policy.unwrap_or_else(FaultPolicy::from_env),
            chaos: self.chaos.or_else(ChaosConfig::from_env),
        };
        let net = Net::spawn_full(plan, self.observers, executor, cfg, self.overload);
        // No records flow until the caller sends, so subscribing
        // right after spawn cannot miss a fault.
        for obs in self.fault_observers {
            net.ctx.on_fault(obs);
        }
        Ok(net)
    }
}

/// Boundary-memo size cap (distinct record types). Generously above
/// any legitimate program's type universe — label sets come from
/// declarations — while bounding memory against label-diverse
/// adversarial senders.
const BOUNDARY_MEMO_CAP: usize = 4096;

/// The ingress type gate of a running network: the signature plus the
/// memoized acceptance checks. Extracted from [`Net`] so the serve
/// layer ([`crate::serve`]) can take the gate with it when it
/// decomposes a network into its ingress/egress halves — both front
/// doors run the exact same acceptance logic.
pub(crate) struct Boundary {
    sig: NetSig,
    /// Memoized boundary type checks: one `match_score` per distinct
    /// record type ever injected, instead of per record (the
    /// [`TypeMemo`] generalisation of the dispatcher's route cache).
    /// Behind an `RwLock`: warm sends from concurrent driver threads
    /// share the read path; the write lock is taken once per distinct
    /// record type. Capped at [`BOUNDARY_MEMO_CAP`] entries — `send`
    /// accepts caller-controlled label sets (including rejected ones),
    /// so unlike the dispatcher's post-boundary cache this memo would
    /// otherwise grow with adversarial label diversity; past the cap,
    /// novel types fall back to the uncached check.
    memo: RwLock<TypeMemo<bool>>,
    /// Lock-free front line of the boundary memo: the most recently
    /// accepted shape id, `+1` (0 = none yet). Monomorphic streams —
    /// the overwhelmingly common case — check one relaxed atomic load
    /// per record instead of taking the memo's read lock. A stale
    /// value is harmless: acceptance is a pure function of the shape,
    /// and a mismatch just falls through to the memo.
    hot: std::sync::atomic::AtomicU64,
}

impl Boundary {
    pub(crate) fn new(sig: NetSig) -> Boundary {
        Boundary {
            sig,
            memo: RwLock::new(TypeMemo::new()),
            hot: std::sync::atomic::AtomicU64::new(0),
        }
    }

    pub(crate) fn sig(&self) -> &NetSig {
        &self.sig
    }

    /// Whether a record may enter the network (some input variant is a
    /// subtype of the record's type). Memoized per record shape.
    pub(crate) fn accepts(&self, rec: &Record) -> bool {
        use std::sync::atomic::Ordering;
        let hot = u64::from(rec.shape().id()) + 1;
        if self.hot.load(Ordering::Relaxed) == hot {
            // The stream's steady-state type: no lock at all.
            return true;
        }
        // Two statements on purpose: the read guard must drop before
        // the miss path takes the write lock (a `match` on the locked
        // expression would hold the read guard across both arms).
        let cached = self.memo.read().get(rec);
        let accepted = cached.unwrap_or_else(|| {
            let mut memo = self.memo.write();
            if memo.len() < BOUNDARY_MEMO_CAP {
                memo.get_or_insert_with(rec, |rt| self.sig.match_score(rt).is_some())
            } else {
                // Memo saturated (adversarially diverse label sets):
                // compute without caching.
                drop(memo);
                self.sig.match_score(&rec.record_type()).is_some()
            }
        });
        if accepted {
            self.hot.store(hot, Ordering::Relaxed);
        }
        accepted
    }

    /// The rejection error for a record that failed [`Boundary::accepts`]
    /// (error path only: rebuilds the type strings for the message).
    pub(crate) fn mismatch(&self, rec: &Record) -> SendRejected {
        SendRejected::TypeMismatch {
            record_type: rec.record_type().to_string(),
            input_type: self.sig.input_type().to_string(),
        }
    }
}

/// Publishes one record to an ingress edge under an overload policy:
/// on a full edge the policy decides between parking, shedding and a
/// deadline; an unbounded edge is never full, so every policy is one
/// capacity load and a send. Shared by [`Net::send`] and the serve
/// layer's ingress ([`crate::serve`]).
pub(crate) fn send_policy(
    tx: &Sender,
    rec: Record,
    policy: OverloadPolicy,
) -> Result<(), SendRejected> {
    match policy {
        OverloadPolicy::Block => tx.feed_blocking(Msg::Rec(rec), None).map_err(|e| match e {
            // No deadline: `Full` is unreachable.
            TryFeedError::Full(_) | TryFeedError::Disconnected(_) => SendRejected::Closed,
        }),
        OverloadPolicy::Shed => tx.try_feed(Msg::Rec(rec)).map_err(|e| match e {
            TryFeedError::Full(_) => SendRejected::Overloaded,
            TryFeedError::Disconnected(_) => SendRejected::Closed,
        }),
        OverloadPolicy::Timeout(d) => tx
            .feed_blocking(Msg::Rec(rec), Some(Instant::now() + d))
            .map_err(|e| match e {
                TryFeedError::Full(_) => SendRejected::Timeout,
                TryFeedError::Disconnected(_) => SendRejected::Closed,
            }),
    }
}

/// The pieces of a running network the serve layer builds on: the
/// ingress sender, the egress receiver, the shared context and the
/// boundary type gate (see [`Net::into_serve_parts`]).
pub(crate) struct ServeParts {
    pub(crate) input: Sender,
    pub(crate) output: Receiver,
    pub(crate) ctx: Arc<Ctx>,
    pub(crate) boundary: Boundary,
    pub(crate) overload: OverloadPolicy,
}

/// A running network: one global input stream, one global output
/// stream (networks are SISO, like every component).
pub struct Net {
    input: Option<Sender>,
    output: Receiver,
    ctx: Arc<Ctx>,
    boundary: Boundary,
    /// What [`Net::send`] does when the bounded ingress edge is full.
    overload: OverloadPolicy,
}

impl Net {
    /// Spawns a compiled plan on the process-default executor (and
    /// the process-default stream bound, `SNET_STREAM_BOUND`).
    pub fn spawn(plan: Plan, observers: Vec<Observer>) -> Net {
        Net::spawn_on(plan, observers, crate::sched::default_executor())
    }

    /// Spawns a compiled plan on an explicit executor.
    pub fn spawn_on(plan: Plan, observers: Vec<Observer>, executor: Arc<dyn Executor>) -> Net {
        Net::spawn_full(
            plan,
            observers,
            executor,
            RunCfg::from_env(),
            OverloadPolicy::Block,
        )
    }

    /// Spawns a compiled plan on an explicit executor with runtime
    /// options (stream bounds, split-lane namespaces; see [`RunCfg`]).
    pub fn spawn_cfg(
        plan: Plan,
        observers: Vec<Observer>,
        executor: Arc<dyn Executor>,
        cfg: RunCfg,
    ) -> Net {
        Net::spawn_full(plan, observers, executor, cfg, OverloadPolicy::Block)
    }

    /// [`Net::spawn_cfg`] plus the ingress overload policy.
    pub fn spawn_full(
        plan: Plan,
        observers: Vec<Observer>,
        executor: Arc<dyn Executor>,
        cfg: RunCfg,
        overload: OverloadPolicy,
    ) -> Net {
        let metrics = Metrics::new();
        let ctx = Ctx::with_config(metrics, observers, executor, cfg);
        // The ingress edge is a data edge like any other: when the
        // net is bounded, `Net::send` is where backpressure reaches
        // the caller (via the overload policy).
        let root = CompPath::root("net");
        let (tx, rx) = ctx.data_stream(root, Edge::Ingress);
        let output = instantiate(&ctx, &plan.root, root, rx);
        // The final output edge is exempt from bounding: its consumer
        // is the driver thread, whose drain rate the runtime cannot
        // schedule — a bounded output would deadlock the ubiquitous
        // send-everything-then-finish() driver pattern. Memory at the
        // boundary is the driver's contract, exactly as in the seed.
        output.exempt();
        // Gauge, not counter: the high-water mark of the process-wide
        // path interner, re-sampled at finish() after dynamic
        // unfolding. Makes the known unbounded-tag-domain interner
        // growth observable in production (ROADMAP; reclamation is a
        // follow-on).
        ctx.metrics
            .handle(keys::INTERNER_PATHS)
            .max(crate::path::interned_paths() as u64);
        Net {
            input: Some(tx),
            output,
            ctx,
            boundary: Boundary::new(plan.sig),
            overload,
        }
    }

    /// The network's inferred input type.
    pub fn input_type(&self) -> MultiType {
        self.boundary.sig().input_type()
    }

    /// The network's inferred output type.
    pub fn output_type(&self) -> MultiType {
        self.boundary.sig().output_type()
    }

    /// The network's full signature.
    pub fn sig(&self) -> &NetSig {
        self.boundary.sig()
    }

    /// Decomposes the running network into the parts the serve layer
    /// needs — the ingress sender, the egress receiver, the context
    /// and the boundary gate. Crate-internal: only [`crate::serve`]
    /// reassembles these into a request/response front door. Panics if
    /// the input was already closed.
    pub(crate) fn into_serve_parts(mut self) -> ServeParts {
        let input = self
            .input
            .take()
            .expect("cannot serve a network whose input is closed");
        ServeParts {
            input,
            output: self.output,
            ctx: self.ctx,
            boundary: self.boundary,
            overload: self.overload,
        }
    }

    /// Injects a record. Fails when the record does not match any
    /// input variant (the same check routing would fail on later, but
    /// surfaced synchronously at the boundary) or when the input was
    /// already closed.
    pub fn send(&self, rec: Record) -> Result<(), SendRejected> {
        if !self.boundary.accepts(&rec) {
            return Err(self.boundary.mismatch(&rec));
        }
        let tx = match &self.input {
            Some(tx) => tx,
            None => return Err(SendRejected::Closed),
        };
        send_policy(tx, rec, self.overload)
    }

    /// Closes the input stream; the network will drain and terminate.
    pub fn close(&mut self) {
        self.input = None;
    }

    /// Receives the next output record, blocking; `None` on
    /// end-of-stream. (Sort records are internal and never escape a
    /// well-formed network; any that do are skipped defensively.)
    pub fn recv(&self) -> Option<Record> {
        loop {
            match self.output.recv() {
                Ok(Msg::Rec(r)) => return Some(r),
                Ok(Msg::Sort { .. }) => continue,
                Err(_) => return None,
            }
        }
    }

    /// Closes the input, drains every remaining output record and
    /// joins all component threads (propagating component panics).
    pub fn finish(mut self) -> Vec<Record> {
        self.close();
        let mut out = Vec::new();
        while let Some(r) = self.recv() {
            out.push(r);
        }
        self.ctx.join_all();
        // Re-sample the interner gauge: dynamic unfolding (replicas,
        // star stages) interns paths while the network runs.
        self.ctx
            .metrics
            .handle(keys::INTERNER_PATHS)
            .max(crate::path::interned_paths() as u64);
        out
    }

    /// The network's metrics registry.
    pub fn metrics(&self) -> &Arc<Metrics> {
        &self.ctx.metrics
    }

    /// Subscribes a fault observer on the running network (see
    /// [`NetBuilder::on_fault`]).
    pub fn on_fault(&self, obs: FaultObserver) {
        self.ctx.on_fault(obs);
    }

    /// Snapshot of the network's fault log: every contained fault so
    /// far, oldest first (bounded; see [`crate::fault`]).
    pub fn faults(&self) -> Vec<Fault> {
        self.ctx.faults()
    }

    /// Number of components spawned so far (tasks, not OS threads —
    /// under a pool executor many components share few threads).
    pub fn threads_spawned(&self) -> usize {
        self.ctx.threads_spawned()
    }

    /// The executor the network's components run on.
    pub fn executor(&self) -> &Arc<dyn Executor> {
        self.ctx.executor()
    }
}

impl fmt::Debug for Net {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Net {{ input: {}, sig: {} -> {} }}",
            if self.input.is_some() {
                "open"
            } else {
                "closed"
            },
            self.input_type(),
            self.output_type()
        )
    }
}

/// What [`Net::send`] does when the network's bounded ingress edge is
/// full — the graceful-degradation knob ([`NetBuilder::overload`]).
/// Irrelevant while the network is unbounded (the default).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum OverloadPolicy {
    /// Park the calling thread until capacity frees (or the network
    /// closes). The default: an open-loop producer is throttled to
    /// the network's service rate.
    #[default]
    Block,
    /// Reject immediately with [`SendRejected::Overloaded`] — a typed,
    /// retryable error the caller can back off on.
    Shed,
    /// Block up to the given duration, then reject with
    /// [`SendRejected::Timeout`].
    Timeout(Duration),
}

/// Why [`Net::send`] rejected a record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SendRejected {
    TypeMismatch {
        record_type: String,
        input_type: String,
    },
    Closed,
    /// The bounded ingress edge is full and the overload policy is
    /// [`OverloadPolicy::Shed`]. Retryable: capacity frees as the
    /// network drains.
    Overloaded,
    /// The bounded ingress edge stayed full past the
    /// [`OverloadPolicy::Timeout`] deadline. Retryable.
    Timeout,
}

impl fmt::Display for SendRejected {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SendRejected::TypeMismatch {
                record_type,
                input_type,
            } => write!(
                f,
                "record of type {record_type} does not match network input {input_type}"
            ),
            SendRejected::Closed => write!(f, "network input is closed"),
            SendRejected::Overloaded => write!(f, "network ingress is at capacity (shed)"),
            SendRejected::Timeout => {
                write!(f, "network ingress stayed at capacity past the deadline")
            }
        }
    }
}

impl std::error::Error for SendRejected {}

/// Drains a raw stream into its data records (test/bench helper).
pub fn collect_records(rx: Receiver) -> Vec<Record> {
    let mut out = Vec::new();
    while let Ok(msg) = rx.recv() {
        if let Msg::Rec(r) = msg {
            out.push(r);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::Dir;
    use parking_lot::Mutex;

    fn inc_builder() -> NetBuilder {
        NetBuilder::from_source(
            "box inc (x) -> (x);\n\
             net one = inc;\n\
             net three = inc .. inc .. inc;",
        )
        .unwrap()
        .bind("inc", |rec, em| {
            let x = rec.field("x").unwrap().as_int().unwrap();
            em.emit(Record::build().field("x", x + 1).finish());
        })
    }

    #[test]
    fn build_send_collect() {
        let net = inc_builder().build("three").unwrap();
        for x in 0..10i64 {
            net.send(Record::build().field("x", x).finish()).unwrap();
        }
        let out = net.finish();
        let got: Vec<i64> = out
            .iter()
            .map(|r| r.field("x").unwrap().as_int().unwrap())
            .collect();
        assert_eq!(got, (3..13).collect::<Vec<_>>());
    }

    #[test]
    fn build_expr_resolves_declarations() {
        let net = inc_builder().build_expr("one .. one").unwrap();
        net.send(Record::build().field("x", 0i64).finish()).unwrap();
        let out = net.finish();
        assert_eq!(out[0].field("x").unwrap().as_int(), Some(2));
    }

    #[test]
    fn send_rejects_type_mismatch() {
        let net = inc_builder().build("one").unwrap();
        let err = net
            .send(Record::build().field("wrong", 1i64).finish())
            .unwrap_err();
        assert!(matches!(err, SendRejected::TypeMismatch { .. }));
        let _ = net.finish();
    }

    #[test]
    fn unknown_net_is_build_error() {
        let err = inc_builder().build("nope").unwrap_err();
        assert!(matches!(err, BuildError::UnknownNet(_)));
    }

    #[test]
    fn unbound_box_is_build_error() {
        let err = NetBuilder::from_source("box f (x) -> (x);\nnet main = f;")
            .unwrap()
            .build("main")
            .unwrap_err();
        assert!(matches!(err, BuildError::Compile(CompileError::Unbound(_))));
    }

    /// The typed error `build` gives for a builder setting that can
    /// mean nothing.
    fn rejected(b: NetBuilder) -> ConfigError {
        match b.build("one") {
            Err(BuildError::Config(e)) => e,
            other => panic!("expected a config error, got {other:?}"),
        }
    }

    #[test]
    fn bound_for_rejects_a_name_that_is_no_data_edge() {
        // A typo of "dispatch" must not silently decide the topology;
        // neither may the three names that stopped existing when boxes
        // and filters moved onto the stage-run driver.
        for name in ["dipsatch", "filter", "fused", "box:inc", ""] {
            let err = rejected(inc_builder().bound_for(name, 8));
            assert_eq!(err, ConfigError::UnknownEdge(name.into()));
            assert!(err.to_string().contains("\"dispatch\""), "{err}");
        }
        for edge in Edge::ALL {
            let net = inc_builder().bound_for(edge.name(), 0).build("one");
            let _ = net.unwrap().finish();
        }
    }

    #[test]
    fn split_lanes_zero_is_a_build_error() {
        assert_eq!(
            rejected(inc_builder().split_lanes(0)),
            ConfigError::ZeroLanes
        );
    }

    #[test]
    fn split_lanes_for_zero_is_a_build_error() {
        assert_eq!(
            rejected(inc_builder().split_lanes_for("k", 0)),
            ConfigError::ZeroLanes
        );
    }

    #[test]
    fn bound_zero_is_a_build_error() {
        // Not a second spelling of `unbounded()`; and a later valid
        // call does not launder the first mistake.
        assert_eq!(
            rejected(inc_builder().bound(0).bound(8)),
            ConfigError::ZeroBound
        );
        let _ = inc_builder().unbounded().build("one").unwrap().finish();
    }

    #[test]
    fn observers_see_both_directions() {
        let log: Arc<Mutex<Vec<(String, Dir)>>> = Arc::new(Mutex::new(Vec::new()));
        let log2 = Arc::clone(&log);
        let obs: Observer = Arc::new(move |path, dir, _rec| {
            log2.lock().push((path.to_string(), dir));
        });
        let net = inc_builder().observe(obs).build("one").unwrap();
        net.send(Record::build().field("x", 1i64).finish()).unwrap();
        let _ = net.finish();
        let log = log.lock();
        assert!(log
            .iter()
            .any(|(p, d)| p.contains("box:inc") && *d == Dir::In));
        assert!(log
            .iter()
            .any(|(p, d)| p.contains("box:inc") && *d == Dir::Out));
    }

    #[test]
    fn metrics_are_accessible() {
        let net = inc_builder().build("three").unwrap();
        net.send(Record::build().field("x", 0i64).finish()).unwrap();
        let metrics = Arc::clone(net.metrics());
        let _ = net.finish();
        assert_eq!(metrics.sum_matching("box:inc/records_in"), 3);
        assert_eq!(metrics.sum_matching("box:inc/spawned"), 3);
    }

    #[test]
    fn interner_paths_gauge_tracks_dynamic_unfolding() {
        // The gauge exists at spawn and grows (never shrinks) across
        // finish(): a split on fresh tag values interns new branch
        // paths while the net runs, and the finish-time re-sample
        // must observe them.
        let net = NetBuilder::from_source(
            "box id (x, <gaugek>) -> (x, <gaugek>);\n\
             net main = id !! <gaugek>;",
        )
        .unwrap()
        .bind("id", |r, e| e.emit(r.clone()))
        .build("main")
        .unwrap();
        let at_spawn = net.metrics().get(crate::metrics::keys::INTERNER_PATHS);
        assert!(at_spawn > 0, "gauge must be sampled at spawn");
        // Tag values no other test uses, so the branch paths (which
        // embed the value) are guaranteed fresh in the process-wide
        // interner even with tests running concurrently.
        for k in 0..32i64 {
            net.send(
                Record::build()
                    .field("x", k)
                    .tag("gaugek", 77_000_000 + k)
                    .finish(),
            )
            .unwrap();
        }
        let metrics = Arc::clone(net.metrics());
        let _ = net.finish();
        let at_finish = metrics.get(crate::metrics::keys::INTERNER_PATHS);
        assert!(
            at_finish >= at_spawn + 32,
            "32 fresh branch paths must be visible in the gauge \
             (spawn {at_spawn}, finish {at_finish})"
        );
        // Other tests may intern concurrently; the gauge can only lag.
        assert!(at_finish <= crate::path::interned_paths() as u64);
    }

    #[test]
    fn sig_is_exposed() {
        let net = inc_builder().build("one").unwrap();
        assert_eq!(net.input_type().to_string(), "{x}");
        assert_eq!(net.output_type().to_string(), "{x}");
        let _ = net.finish();
    }
}
