//! Plan instantiation: turns a compiled [`PNode`] tree into running
//! threads and channels, returning the output stream.
//!
//! Instantiation is re-entrant at runtime: the replicators call back
//! into [`instantiate`] to unfold replicas on demand, cloning subtree
//! handles from the plan.
//!
//! Boxes and filters have one driver: a `Box`, a `Filter` and a `Fused`
//! node all become a stage run ([`crate::fused`]) — of length 1 for the
//! first two — so what the fusion pass decides is how many stages share
//! a component, never which record loop runs them.
//!
//! Combinators have one plan node, [`PNode::Fan`]: its `fused` flag and
//! the net's runtime settings pick between the fan driver (one
//! component) and the combinator's own dispatcher, and both route
//! through the combinator's one router.
//!
//! Instantiation is also where component paths come into existence:
//! every spawn site derives its [`CompPath`] here, once, so nothing
//! downstream ever formats a path per record (see [`crate::ctx`] for
//! the invariant).

use crate::ctx::Ctx;
use crate::fused::{fan_fusable_here, run_cores, spawn_fused_fan, spawn_stage_run, stage_core};
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
        PNode::Box { .. } | PNode::Filter { .. } => {
            let core = stage_core(ctx, path, node);
            spawn_stage_run(ctx, core.path(), vec![core], input)
        }
        PNode::Serial { a, b } => {
            let mid = instantiate(ctx, a, path.child("s0"), input);
            instantiate(ctx, b, path.child("s1"), mid)
        }
        PNode::Fused { stages } => spawn_stage_run(ctx, path, run_cores(ctx, path, stages), input),
        PNode::Fan {
            kind,
            det,
            level,
            fused,
        } => {
            let comb = kind.comb_path(path, *det);
            // The plan says whether the fan *can* run fused; the net's
            // runtime settings can still decline (escape hatch, Restart
            // policy, explicit lane-edge bound).
            if *fused && fan_fusable_here(ctx) {
                return spawn_fused_fan(ctx, comb, kind, input);
            }
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
        PNode::Chain { parts } => {
            // A partially fused Serial spine: parts connect in
            // sequence, each under its recorded suffix so component
            // paths match the unfused binary-tree instantiation.
            let mut cur = input;
            for part in parts {
                cur = instantiate(ctx, &part.node, path.descend(&part.suffix), cur);
            }
            cur
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
