//! The public face of the runtime: building and driving networks.
//!
//! ```
//! use snet_runtime::NetBuilder;
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

use crate::ctx::{ConfigError, Ctx, RunCfg};
use crate::fault::{Fault, FaultObserver, FaultPolicy};
use crate::instantiate::instantiate;
use crate::memo::TypeMemo;
use crate::metrics::{keys, Metrics};
use crate::path::CompPath;
use crate::plan::{Bindings, CompileError, Plan};
use crate::sched::Executor;
use crate::stream::chan::TryFeedError;
use crate::stream::{Msg, Observer, Receiver, Sender};
use parking_lot::RwLock;
use snet_lang::{parse_net_expr, parse_program, ParseError, Program};
use snet_types::{MultiType, NetSig, Record};
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
    /// A setting that can mean nothing: `SNET_WORKERS` set to a
    /// value it cannot hold (see [`RunCfg::try_from_env`]), or a zero
    /// bound.
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
    /// The net's configuration: what [`RunCfg::try_from_env`] read
    /// when the builder was made, as the setters have assigned over it
    /// since — so a setter beats the environment and the last call of
    /// a setter wins.
    cfg: RunCfg,
    fault_observers: Vec<FaultObserver>,
    /// The first setting rejected so far — the environment's included;
    /// `build*` returns it.
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
        NetBuilder::seeded(program, RunCfg::try_from_env())
    }

    /// A builder whose configuration starts from what the environment
    /// said, or from the default with the reason it said nothing valid
    /// as the first rejected setting.
    fn seeded(program: Program, env: Result<RunCfg, ConfigError>) -> NetBuilder {
        let (cfg, invalid) = match env {
            Ok(cfg) => (cfg, None),
            Err(err) => (RunCfg::default(), Some(err)),
        };
        NetBuilder {
            program,
            bindings: Bindings::new(),
            observers: Vec::new(),
            executor: None,
            cfg,
            fault_observers: Vec::new(),
            invalid,
        }
    }

    /// Records `err` unless `ok`: the setters have no error channel,
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
    /// one worker per core unless [`RunCfg::workers`] says otherwise
    /// (see [`crate::sched`]).
    pub fn executor(mut self, executor: Arc<dyn Executor>) -> Self {
        self.executor = Some(executor);
        self
    }

    /// Bounds every data edge of this network to `cap` queued
    /// records, enabling credit-based backpressure: producers of data
    /// records park when an edge fills instead of growing the queue.
    /// Sort records, merger-drained edges and the network's output
    /// edge stay exempt so deterministic merging cannot deadlock (see
    /// [`crate::stream`] and [`crate::sched`]). Default:
    /// [`crate::ctx::DEFAULT_STREAM_BOUND`] ([`RunCfg::bound`]). What
    /// happens when the *ingress* edge is full is the
    /// [`NetBuilder::overload`] policy. A capacity of zero fails
    /// `build*` with [`BuildError::Config`]; lifting the default bound
    /// is [`NetBuilder::unbounded`].
    pub fn bound(mut self, cap: usize) -> Self {
        self.require(cap > 0, ConfigError::ZeroBound);
        self.cfg.bound = Some(cap);
        self
    }

    /// Removes the data-edge bound for this network: every edge grows
    /// without backpressure, the seed's behaviour — the escape hatch
    /// from the bounded default.
    pub fn unbounded(mut self) -> Self {
        self.cfg.bound = None;
        self
    }

    /// Selects what [`Net::send`] does when the bounded ingress edge
    /// is full (default: [`OverloadPolicy::Block`]). Irrelevant while
    /// the network is unbounded.
    pub fn overload(mut self, policy: OverloadPolicy) -> Self {
        self.cfg.overload = policy;
        self
    }

    /// Compiles this network fused or unfused (see [`crate::plan`]: the
    /// flag every spine and fan is built with), which alone decides how
    /// it runs. Fused (the
    /// default, [`RunCfg::fuse`]), the whole net is **one** stage run:
    /// its `..` spine, and every split/parallel/star with dispatch,
    /// lanes and merge inline, fans nested in its lanes included — a
    /// single task however far Fig. 2's star of splits unfolds.
    /// Unfused, it runs as the paper's literal topology, a component
    /// per box, filter, dispatcher, replica and merger: the only way
    /// replicas, spine stages (or the branches of a `slow || fast`)
    /// run concurrently. Output (including deterministic ordering) and
    /// per-stage metrics paths are identical either way.
    pub fn fuse(mut self, fuse: bool) -> Self {
        self.cfg.fuse = fuse;
        self
    }

    /// Selects what a box/filter panic does to this network (see
    /// [`crate::fault`]): fail the whole net
    /// ([`FaultPolicy::FailNet`], the default), or drop the poison
    /// record and keep the component alive
    /// ([`FaultPolicy::SkipRecord`]). Deterministic merge output is
    /// unaffected by containment — see the failure-model notes in
    /// [`crate::sched`].
    pub fn fault_policy(mut self, policy: FaultPolicy) -> Self {
        self.cfg.fault_policy = policy;
        self
    }

    /// Registers a fault observer: called synchronously with every
    /// contained [`Fault`] (skipped records and component deaths) —
    /// the same faults [`Net::faults`] logs.
    pub fn on_fault(mut self, obs: FaultObserver) -> Self {
        self.fault_observers.push(obs);
        self
    }

    /// Compiles and spawns the named net. Compiling is the net's only
    /// type inference: the program's other nets are inferred as they
    /// are declared, the built one by the compiler's own walk
    /// ([`Program::check_with`]). Whatever else is wrong, a type error
    /// anywhere in the program is reported first, then an unknown
    /// `net_name`, then a setting, then a missing binding.
    pub fn build(self, net_name: &str) -> Result<Net, BuildError> {
        let fuse = self.cfg.fuse;
        let checked = self.program.check_with(net_name, |env, body| {
            crate::plan::compile_checked(body, env, &self.bindings, fuse)
        })?;
        let (root, sig) = checked.ok_or_else(|| BuildError::UnknownNet(net_name.to_string()))?;
        if let Some(err) = self.invalid {
            return Err(err.into());
        }
        let root = root?;
        Ok(self.spawn(Plan { root, sig }))
    }

    /// Compiles and spawns a network expression given as text, resolved
    /// against the program's declarations.
    pub fn build_expr(self, expr: &str) -> Result<Net, BuildError> {
        let env = self.program.env()?;
        let ast = parse_net_expr(expr)?;
        if let Some(err) = self.invalid {
            return Err(err.into());
        }
        let plan = crate::plan::compile_cfg(&ast, &env, &self.bindings, self.cfg.fuse)?;
        Ok(self.spawn(plan))
    }

    fn spawn(self, plan: Plan) -> Net {
        let executor = self
            .executor
            .unwrap_or_else(|| crate::sched::shared_pool(self.cfg.workers));
        let net = Net::spawn(plan, self.observers, executor, self.cfg);
        // No records flow until the caller sends, so subscribing
        // right after spawn cannot miss a fault.
        for obs in self.fault_observers {
            net.ctx.on_fault(obs);
        }
        net
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

/// A running network: one global input stream, one global output
/// stream (networks are SISO, like every component).
pub struct Net {
    // Crate-visible: the serve layer ([`crate::serve`]) takes a net
    // apart into a request/response front door over the same parts.
    pub(crate) input: Option<Sender>,
    pub(crate) output: Receiver,
    pub(crate) ctx: Arc<Ctx>,
    pub(crate) boundary: Boundary,
}

impl Net {
    /// Spawns a compiled plan on `executor` under `cfg` — stream
    /// bounds, fault policy, the ingress overload policy; see
    /// [`RunCfg`]. (The plan alone decides the topology: `cfg.fuse`
    /// and `cfg.workers` were for whoever compiled the plan and made
    /// the executor.)
    pub fn spawn(
        plan: Plan,
        observers: Vec<Observer>,
        executor: Arc<dyn Executor>,
        cfg: RunCfg,
    ) -> Net {
        let ctx = Ctx::new(Metrics::new(), observers, executor, cfg);
        // The ingress edge is a data edge like any other: when the
        // net is bounded, `Net::send` is where backpressure reaches
        // the caller (via the overload policy).
        let root = CompPath::root("net");
        let (tx, rx) = ctx.data_stream(root);
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
        send_policy(tx, rec, self.ctx.cfg().overload)
    }

    /// Closes the input stream; the network will drain and terminate.
    pub fn close(&mut self) {
        self.input = None;
    }

    /// Receives the next output record, blocking; `None` on
    /// end-of-stream. (Sort records are internal and never escape a
    /// well-formed network; any that do are skipped defensively.)
    ///
    /// While the output is empty, a thread that is no pool worker runs
    /// runnable tasks of the net's executor before it parks, and parked,
    /// it is the first sleeper a send from outside the pool wakes
    /// ([`Executor::help`]; `sched/pool.rs`, *Helping*): on a pool, the
    /// receiver usually runs the net itself. A box that blocks until the
    /// receiving thread acts — a latch it releases after this call —
    /// can therefore hang it; such a box needs a pool of its own.
    pub fn recv(&self) -> Option<Record> {
        loop {
            let helper = (&**self.ctx.executor(), &**self.ctx.tracker());
            match self.output.recv_helping(Some(helper)) {
                Ok(Msg::Rec(r)) => return Some(r),
                Ok(Msg::Sort { .. }) => continue,
                Err(_) => return None,
            }
        }
    }

    /// Closes the input, drains every remaining output record and
    /// joins all component threads (propagating component panics).
    ///
    /// The closing thread runs what is left of the net: it receives as
    /// [`Net::recv`] does and joins through [`Ctx::join_all`], helping
    /// the net's executor in both unless it is a pool worker.
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

    /// Snapshot of the network's fault log: the newest
    /// `FAULT_LOG_CAP` (1024) contained faults, oldest first (see
    /// [`crate::fault`]).
    pub fn faults(&self) -> Vec<Fault> {
        self.ctx.faults()
    }

    /// Number of components spawned so far (tasks, not OS threads —
    /// under a pool executor many components share few threads). A
    /// net whose fans fuse is one component however far it unfolds; a
    /// [`crate::Service`] adds none (its egress runs on the sends that
    /// publish the net's output).
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
/// Irrelevant while the network is unbounded.
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

    /// `one = id !! <k>` under the environment `env` came to.
    fn split_builder(env: Result<RunCfg, ConfigError>) -> NetBuilder {
        let src = "box id (x, <k>) -> (x, <k>);\nnet one = id !! <k>;";
        NetBuilder::seeded(parse_program(src).unwrap(), env).bind("id", |r, e| e.emit(r.clone()))
    }

    #[test]
    fn a_net_runs_under_the_environment_as_its_builder_amends_it() {
        /// `SNET_WORKERS`, the setters called, and what that makes of
        /// the default configuration.
        type Case = (
            Option<&'static str>,
            fn(NetBuilder) -> NetBuilder,
            fn(&mut RunCfg),
        );
        let cases: [Case; 7] = [
            (None, |b| b, |_| ()),
            (None, |b| b.bound(8), |c| c.bound = Some(8)),
            (None, |b| b.unbounded(), |c| c.bound = None),
            (None, |b| b.fuse(false), |c| c.fuse = false),
            (
                None,
                |b| b.fault_policy(FaultPolicy::SkipRecord),
                |c| c.fault_policy = FaultPolicy::SkipRecord,
            ),
            (Some(" 3 "), |b| b, |c| c.workers = Some(3)),
            // Every other setter, the last call of one winning.
            (
                Some("3"),
                |b| {
                    b.overload(OverloadPolicy::Timeout(Duration::from_millis(5)))
                        .overload(OverloadPolicy::Shed)
                },
                |c| {
                    c.workers = Some(3);
                    c.overload = OverloadPolicy::Shed;
                },
            ),
        ];
        for (workers, setters, amend) in cases {
            // A pool of its own: the shared one is sized once.
            let pool = Arc::new(crate::sched::WorkStealingPool::new(1));
            let env = RunCfg::with_workers(workers.map(String::from));
            let net = setters(split_builder(env).executor(pool))
                .build("one")
                .unwrap();
            let mut want = RunCfg::default();
            amend(&mut want);
            assert_eq!(net.ctx.cfg(), &want, "{workers:?}");
            let _ = net.finish();
        }
        // A value the variable cannot mean never reads as "default": it
        // fails the build, whatever the setters say (the messages are
        // `tests/executor_env.rs`' business).
        let env = RunCfg::with_workers(Some("two".into()));
        let err = rejected(split_builder(env).fuse(true).bound(8));
        assert!(
            matches!(
                err,
                ConfigError::Env {
                    var: "SNET_WORKERS",
                    ..
                }
            ),
            "{err:?}"
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
