//! # snet-runtime — executing S-Net streaming networks
//!
//! The execution engine of the reproduction of Grelck, Scholz &
//! Shafarenko, *Coordinating Data Parallel SAC Programs with S-Net*
//! (IPPS 2007). Networks compiled from `snet-lang` ASTs run as graphs
//! of asynchronous components connected by channels — cooperatively
//! scheduled tasks on the default [`sched::WorkStealingPool`] (one
//! shared pool, one worker per core), or one OS thread per component
//! under [`sched::ThreadPerComponent`] (the paper's literal model):
//!
//! * every **box** is "an asynchronously executed, stateless
//!   stream-processing component" — one task applying the bound
//!   computational function to each record, with subtype acceptance
//!   and flow inheritance handled by the wrapper ([`boxfn`]);
//! * **filters** run the pure semantics of `snet-lang` ([`filter_exec`]);
//! * a pipeline (`..`) is one flat plan node in either topology
//!   ([`plan::PNode::Run`]), a stage per box, filter or combinator,
//!   wired by [`instantiate`]; the other three combinators are defined
//!   once each — one plan node ([`plan::PNode::Fan`]), one router, one
//!   credit-gated dispatcher
//!   loop: best-match dispatch + merge ([`parallel`]), demand-driven
//!   serial replication with exit taps ([`star`]) and tag-indexed
//!   parallel replication ([`split`]) — and run as dispatcher, lanes
//!   and merger, or inline as one stage of the stage run that holds
//!   them, so a net compiled fused is one component ([`fused`]) and
//!   one compiled unfused is the paper's component graph — the plan
//!   alone decides ([`plan`]);
//! * the deterministic variants (`|`, `*`, `!`) are implemented with
//!   **sort records**, the technique of the original S-Net runtime
//!   ([`merge`]);
//! * structural claims ("at most 729 boxes") are measurable through
//!   [`metrics`], and every stream can be observed individually
//!   ([`stream::Observer`]);
//! * the component-to-thread mapping is pluggable ([`sched`]): the
//!   deterministic combinators produce identical output under either
//!   executor because ordering lives in sort records, not scheduling;
//! * box/filter panics are contained at the execution-core boundary
//!   per a configurable [`FaultPolicy`], observable as typed
//!   [`Fault`]s ([`fault`]);
//! * what a net must output is computed sequentially from the paper's
//!   record semantics, with no task or channel, by [`oracle`] — the
//!   reference every configuration of the runtime is tested against.
//!
//! Entry point: [`NetBuilder`].

pub mod boxfn;
pub mod ctx;
pub mod fault;
pub mod filter_exec;
pub mod fused;
pub mod instantiate;
pub mod memo;
pub mod merge;
pub mod metrics;
pub mod net;
pub mod oracle;
pub mod parallel;
pub mod path;
pub mod plan;
pub mod sched;
pub mod serve;
pub mod split;
pub mod star;
pub mod stream;

pub use boxfn::{BoxImpl, Emitter};
pub use ctx::{Ctx, RunCfg};
pub use fault::{Fault, FaultObserver, FaultPolicy};
pub use memo::TypeMemo;
pub use metrics::{Counter, Metrics};
pub use net::{BuildError, Net, NetBuilder, OverloadPolicy, SendRejected};
pub use parallel::{RouteCache, RouteClass};
pub use path::CompPath;
pub use plan::{compile, compile_cfg, Bindings, CompileError, Plan};
pub use sched::{Executor, ThreadPerComponent, WorkStealingPool};
pub use serve::{CallError, CallHandle, CallOpts, DrainReport, Response, Service};
pub use stream::{Dir, Msg, Observer};
