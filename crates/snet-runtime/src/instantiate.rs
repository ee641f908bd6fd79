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
//! Instantiation is also where component paths come into existence:
//! every spawn site derives its [`CompPath`] here, once, so nothing
//! downstream ever formats a path per record (see [`crate::ctx`] for
//! the invariant).

use crate::boxfn::spawn_box;
use crate::ctx::Ctx;
use crate::filter_exec::spawn_filter;
use crate::fused::{fan_fusable_here, spawn_fused, spawn_fused_fan};
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
        PNode::Box { name, sig, imp } => {
            spawn_box(ctx, path, name, sig.clone(), Arc::clone(imp), input)
        }
        PNode::Filter { def } => spawn_filter(ctx, path, def.clone(), input),
        PNode::Serial { a, b } => {
            let mid = instantiate(ctx, a, path.child("s0"), input);
            instantiate(ctx, b, path.child("s1"), mid)
        }
        PNode::Parallel {
            left,
            right,
            left_sig,
            right_sig,
            det,
            level,
        } => spawn_parallel(
            ctx, path, left, right, left_sig, right_sig, *det, *level, input,
        ),
        PNode::Star {
            inner,
            exit,
            det,
            level,
        } => spawn_star(ctx, path, inner, exit, *det, *level, input),
        PNode::Split {
            inner,
            tag,
            det,
            level,
        } => spawn_split(ctx, path, inner, *tag, *det, *level, input),
        PNode::Fused { stages } => spawn_fused(ctx, path, stages, input),
        PNode::FusedFan { kind, det, level } => {
            // Plan-level legality got the node here; the runtime
            // check can still fall back to the unfused replicator
            // (escape hatch, Restart policy, explicit lane-edge
            // bound — see crate::fused::fan_fusable_here).
            if fan_fusable_here(ctx, kind) {
                spawn_fused_fan(ctx, path, kind, *det, input)
            } else {
                match kind {
                    FanKind::Split { body, tag } => {
                        spawn_split(ctx, path, body, *tag, *det, *level, input)
                    }
                    FanKind::Parallel {
                        left,
                        right,
                        left_sig,
                        right_sig,
                    } => spawn_parallel(
                        ctx, path, left, right, left_sig, right_sig, *det, *level, input,
                    ),
                    FanKind::Star { body, exit } => {
                        spawn_star(ctx, path, body, exit, *det, *level, input)
                    }
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Metrics;
    use crate::net::collect_records;
    use crate::plan::{compile, Bindings};
    use crate::stream::{stream, Msg};
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
        let ctx = Ctx::new(Metrics::new(), Vec::new());
        let (tx, in_rx) = stream();
        let out = instantiate(&ctx, &plan.root, "net", in_rx);
        for x in 0..5i64 {
            tx.send(Msg::Rec(Record::build().field("x", x).finish()))
                .unwrap();
        }
        drop(tx);
        let recs = collect_records(out);
        ctx.join_all();
        let got: Vec<i64> = recs
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
            let ctx = Ctx::new(Metrics::new(), Vec::new());
            let (tx, in_rx) = stream();
            let out = instantiate(&ctx, &plan.root, "net", in_rx);
            tx.send(Msg::Rec(Record::build().field("x", 1i64).finish()))
                .unwrap();
            drop(tx);
            let _ = collect_records(out);
            ctx.join_all();
            assert_eq!(ctx.metrics.get("net/s0/box:f/records_in"), 1);
            assert_eq!(ctx.metrics.get("net/s1/box:f/records_in"), 1);
        }
    }
}
