//! Plan instantiation: turns a compiled [`PNode`] tree into running
//! threads and channels, returning the output stream.
//!
//! Instantiation is re-entrant at runtime: the replicators call back
//! into [`instantiate`] to unfold replicas on demand, cloning subtree
//! handles from the plan.
//!
//! Boxes, filters and fused fans have one driver: a `Box`, a `Filter`,
//! a fused `Run` and a fused `Fan` all become a stage run
//! ([`crate::fused`]) — of length 1 for a lone stage — so what the
//! compile flag decides is how many stages share a component, never
//! which record loop runs them.
//!
//! The plan alone decides the topology; nothing here reads the net's
//! configuration. A plan compiled fused is **one** stage run from the
//! net's input to its output — its root is a `Run` (the top-level `..`
//! spine), a fan or a lone stage. A plan compiled unfused is the
//! paper's component graph: a `Run` is a component per stage, each at
//! its stage's path, and every fan runs on its combinator's own
//! dispatcher. Both route through the combinator's one router.
//!
//! Instantiation is also where component paths come into existence:
//! every spawn site derives its [`CompPath`] here, once, so nothing
//! downstream ever formats a path per record (see [`crate::ctx`] for
//! the invariant).

use crate::ctx::Ctx;
use crate::fused::{lane_cores, spawn_stage_run};
use crate::parallel::spawn_parallel;
use crate::path::CompPath;
use crate::plan::{FanKind, PNode};
use crate::split::spawn_split;
use crate::star::spawn_star;
use crate::stream::Receiver;
use std::sync::Arc;

/// Instantiates a plan node with the given input stream; returns the
/// node's output stream. `path` names the instance for metrics and
/// observers.
pub fn instantiate(
    ctx: &Arc<Ctx>,
    node: &Arc<PNode>,
    path: impl Into<CompPath>,
    input: Receiver,
) -> Receiver {
    let path = path.into();
    match &**node {
        // An unfused spine is one component per stage, chained.
        PNode::Run {
            stages,
            fused: false,
        } => stages.iter().fold(input, |input, stage| {
            instantiate(ctx, &stage.node, path.descend(&stage.suffix), input)
        }),
        // An unfused fan runs on its own dispatcher.
        PNode::Fan {
            kind,
            det,
            level,
            fused: false,
        } => {
            let comb = kind.comb_path(path, *det);
            match kind {
                FanKind::Split { body, tag } => {
                    spawn_split(ctx, comb, body, *tag, *det, *level, input)
                }
                FanKind::Parallel {
                    left,
                    right,
                    left_sig,
                    right_sig,
                } => spawn_parallel(
                    ctx, comb, left, right, left_sig, right_sig, *det, *level, input,
                ),
                FanKind::Star { body, exit } => {
                    spawn_star(ctx, comb, body, exit, *det, *level, input)
                }
            }
        }
        // Everything else is one stage run: a box, a filter, a fused
        // fan or a fused `Run`. A lone stage owns the run's output
        // edge, as a standalone component would; a `Run` (two stages
        // or more) is owned by the path it is instantiated at.
        run => {
            let cores = lane_cores(ctx, path, run);
            let owner = match &cores[..] {
                [lone] => lone.path(),
                _ => path,
            };
            spawn_stage_run(ctx, owner, cores, input)
        }
    }
}

/// The unit tests' context: the default configuration on the shared
/// pool.
#[cfg(test)]
pub(crate) fn test_ctx(observers: Vec<crate::stream::Observer>) -> Arc<Ctx> {
    Ctx::new(
        crate::metrics::Metrics::new(),
        observers,
        crate::sched::default_executor(),
        crate::RunCfg::default(),
    )
}

/// The unit tests' driver: instantiates `root` at `net`, feeds it
/// `inputs`, closes the input and returns every message that came out
/// once every component has finished (a component's panic resurfaces
/// here).
#[cfg(test)]
pub(crate) fn run_msgs_to_end(
    ctx: &Arc<Ctx>,
    root: &Arc<PNode>,
    inputs: impl IntoIterator<Item = crate::stream::Msg>,
) -> Vec<crate::stream::Msg> {
    let (tx, in_rx) = crate::stream::stream();
    let out = instantiate(ctx, root, "net", in_rx);
    for msg in inputs {
        tx.send(msg).unwrap();
    }
    drop(tx);
    let msgs = out.iter().collect();
    ctx.join_all();
    msgs
}

/// [`run_msgs_to_end`] for a test that deals in data records only.
#[cfg(test)]
pub(crate) fn run_to_end(
    ctx: &Arc<Ctx>,
    root: &Arc<PNode>,
    inputs: impl IntoIterator<Item = snet_types::Record>,
) -> Vec<snet_types::Record> {
    use crate::stream::Msg;
    run_msgs_to_end(ctx, root, inputs.into_iter().map(Msg::Rec))
        .into_iter()
        .filter_map(|msg| match msg {
            Msg::Rec(rec) => Some(rec),
            Msg::Sort { .. } => None,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{compile, Bindings};
    use snet_lang::{parse_net_expr, parse_program};
    use snet_types::Record;

    #[test]
    fn serial_chain_end_to_end() {
        let env = parse_program(
            "box inc (x) -> (x);\n\
             box dbl (x) -> (x);",
        )
        .unwrap()
        .env()
        .unwrap();
        let b = Bindings::new()
            .bind("inc", |r, e| {
                let x = r.field("x").unwrap().as_int().unwrap();
                e.emit(Record::build().field("x", x + 1).finish());
            })
            .bind("dbl", |r, e| {
                let x = r.field("x").unwrap().as_int().unwrap();
                e.emit(Record::build().field("x", x * 2).finish());
            });
        let ast = parse_net_expr("inc .. dbl .. inc").unwrap();
        let plan = compile(&ast, &env, &b).unwrap();
        let ctx = test_ctx(Vec::new());
        let inputs = (0..5i64).map(|x| Record::build().field("x", x).finish());
        let got: Vec<i64> = run_to_end(&ctx, &plan.root, inputs)
            .iter()
            .map(|r| r.field("x").unwrap().as_int().unwrap())
            .collect();
        // (x + 1) * 2 + 1
        assert_eq!(got, vec![3, 5, 7, 9, 11]);
    }

    #[test]
    fn paths_are_interned_per_component() {
        // Two instantiations of the same plan shape intern identical
        // path strings — metric keys line up across runs.
        let env = parse_program("box f (x) -> (x);").unwrap().env().unwrap();
        let b = Bindings::new().bind("f", |r, e| e.emit(r.clone()));
        let ast = parse_net_expr("f .. f").unwrap();
        let plan = compile(&ast, &env, &b).unwrap();
        for _ in 0..2 {
            let ctx = test_ctx(Vec::new());
            run_to_end(
                &ctx,
                &plan.root,
                [Record::build().field("x", 1i64).finish()],
            );
            assert_eq!(ctx.metrics.get("net/s0/box:f/records_in"), 1);
            assert_eq!(ctx.metrics.get("net/s1/box:f/records_in"), 1);
        }
    }
}
