//! Serial replication `A ** {exit}` and `A * {exit}`.
//!
//! "The serial replicator A**(type) constructs an infinite chain of
//! replicas of A connected via serial combination. The chain is tapped
//! before every replica to extract records that match the type
//! specified as second operand. These records are merged into the
//! overall output stream. The unfolding of the chain of networks is
//! demand-driven" (paper, Section 4).
//!
//! Implementation: a chain of *guards*. Guard `i` taps the stream in
//! front of replica `i`; records matching the exit pattern (and its
//! optional tag guard — the Figure 3 `{<level>} if <level> > 40`
//! throttle) leave through the guard's tap into the output merger,
//! everything else enters replica `i`, whose output feeds guard `i+1`.
//! Replica `i` and guard `i+1` are only created when the first record
//! actually needs to pass — this is exactly the paper's observation
//! that the sudoku pipeline "cannot lead to pipelines longer than 81
//! replicas": a record is only forwarded when a number was placed.
//!
//! The deterministic variant prefixes the chain with a *stamper* that
//! broadcasts a sort record after every input record; guards duplicate
//! sorts to their tap and down the chain, and the deterministic merger
//! reassembles input order across taps (see [`crate::merge`]).
//!
//! # One router, one loop per component
//!
//! [`StarChain`] is the single owner of what the combinator counts
//! (`exits`, `stages`) and calls its replicas and guards (`stage{d}`,
//! `stage{d}/guard`); its [`ExitDispatch`] observes, classifies and
//! counts one record at a guard. The guard tasks below (a classifier
//! each) and a fused fan stage ([`crate::fused`], one classifier
//! for the whole walk) both go through them. The
//! stamper and the guard have one loop each, credit-gated; an
//! unbounded edge grants at once.

use crate::ctx::Ctx;
use crate::instantiate::instantiate;
use crate::memo::TypeMemo;
use crate::merge::{spawn_merge, BranchSpec, MergeMode, Watermark};
use crate::metrics::{keys, Counter};
use crate::path::{name, CompPath, Seg};
use crate::plan::PNode;
use crate::stream::{chan, stream, Dir, Msg, Receiver, Sender};
use snet_lang::ExitPattern;
use snet_types::Record;
use std::sync::Arc;

/// The chain-wide state of one serial replicator (see module docs).
pub(crate) struct StarChain {
    comb: CompPath,
    /// The replicated operand.
    pub(crate) body: Arc<PNode>,
    exit: ExitPattern,
    /// Registered once for the whole chain; every guard's exit tap
    /// increments through this handle.
    exits: Counter,
    /// High-water mark of the unfolded chain depth.
    stages: Counter,
}

impl StarChain {
    /// Registers the combinator's counters at `comb`.
    pub(crate) fn new(
        ctx: &Ctx,
        comb: CompPath,
        body: &Arc<PNode>,
        exit: &ExitPattern,
    ) -> StarChain {
        let [exits, stages] = ctx
            .metrics
            .counters_at(comb, [name!(keys::EXITS), name!(keys::STAGES)]);
        StarChain {
            comb,
            body: Arc::clone(body),
            exit: exit.clone(),
            exits,
            stages,
        }
    }

    /// Unfolds guard `d`: interns its path and that of the replica
    /// behind it, and raises `stages`.
    pub(crate) fn unfold(&self, d: usize) -> GuardPaths {
        self.stages.max(d as u64 + 1);
        let replica = self.comb.child_at(Seg::Stage(d));
        GuardPaths {
            replica,
            guard: replica.child_at(name!("guard")),
        }
    }

    /// A fresh exit classifier counting into the chain's `exits`.
    pub(crate) fn dispatch(&self) -> ExitDispatch {
        ExitDispatch {
            exit: self.exit.clone(),
            memo: TypeMemo::new(),
            exits: self.exits.clone(),
        }
    }
}

/// Where guard `d` sits (`{comb}/stage{d}/guard`) and where the
/// replica behind it goes (`{comb}/stage{d}`).
#[derive(Clone, Copy)]
pub(crate) struct GuardPaths {
    pub(crate) replica: CompPath,
    pub(crate) guard: CompPath,
}

/// The exit decision: a per-shape memo of the exit-pattern subset
/// test plus the dynamic tag guard. The memo is keyed by record shape,
/// so one instance serves any number of guard positions.
pub(crate) struct ExitDispatch {
    exit: ExitPattern,
    memo: TypeMemo<bool>,
    exits: Counter,
}

impl ExitDispatch {
    /// One record past the guard at `gpath`: observe, classify,
    /// count. `true` when the record leaves through the guard's tap.
    /// The subset
    /// test depends only on the record's type and is memoized per
    /// shape id; the optional tag guard stays dynamic (it reads
    /// values, not labels). A guard that cannot evaluate (a referenced
    /// tag is absent) does not release the record.
    #[inline]
    pub(crate) fn exits(&mut self, ctx: &Ctx, gpath: CompPath, rec: &Record) -> bool {
        if ctx.has_observers() {
            ctx.observe(gpath, Dir::In, rec);
        }
        let ExitDispatch { exit, memo, .. } = self;
        let out = memo.get_or_insert_with(rec, |rt| rt.is_subtype_of(&exit.pattern))
            && exit
                .guard
                .as_ref()
                .map(|g| g.eval(rec).unwrap_or(false))
                .unwrap_or(true);
        if out {
            self.exits.inc(1);
        }
        out
    }
}

/// Spawns a serial replicator at `comb`; returns its output stream.
pub fn spawn_star(
    ctx: &Arc<Ctx>,
    comb: CompPath,
    inner: &Arc<PNode>,
    exit: &ExitPattern,
    det: bool,
    level: u32,
    input: Receiver,
) -> Receiver {
    let (ctl_tx, ctl_rx) = chan::channel::<BranchSpec>();
    let (out_tx, out_rx) = ctx.data_stream(comb);
    let mode = if det {
        MergeMode::Det { level }
    } else {
        MergeMode::NonDet
    };
    spawn_merge(ctx, comb, mode, Vec::new(), ctl_rx, out_tx);

    let chain = Arc::new(StarChain::new(ctx, comb, inner, exit));
    let guard0_input = if det {
        spawn_stamper(ctx, comb, level, input)
    } else {
        input
    };
    spawn_guard(ctx, chain, 0, guard0_input, Watermark::new(), ctl_tx);
    out_rx
}

/// The deterministic entry stamper: broadcasts `Sort{level, n}` after
/// the n-th input record, partitioning the chain into rounds.
fn spawn_stamper(ctx: &Arc<Ctx>, comb: CompPath, level: u32, input: Receiver) -> Receiver {
    let (tx, rx) = ctx.data_stream(comb.child_at(name!("stamper")));
    // Credit-gated data, ungated sorts: the sort stamped after a
    // record must follow it even when the edge is full, or the det
    // merger's round bookkeeping would run ahead of the data.
    ctx.spawn(format!("{comb}/stamper"), async move {
        let mut counter: u64 = 0;
        while let Ok(msg) = input.recv_async().await {
            match msg {
                rec @ Msg::Rec(_) => {
                    let _ = tx.feed(rec).await;
                    let _ = tx.send(Msg::Sort { level, counter });
                    counter += 1;
                }
                sort @ Msg::Sort { .. } => {
                    let _ = tx.send(sort);
                }
            }
        }
    });
    rx
}

/// Spawns guard `stage`, registering its exit tap with the merger
/// before any message can flow (the registration must happen-before
/// subsequent sort broadcasts for the merger's bookkeeping).
///
/// All bookkeeping state — the interned guard path, the shared
/// `exits`/`stages` counters — is resolved here, once per guard; the
/// record loop allocates only when it unfolds the next replica.
fn spawn_guard(
    ctx: &Arc<Ctx>,
    chain: Arc<StarChain>,
    stage: usize,
    input: Receiver,
    watermark: Watermark,
    ctl: chan::Sender<BranchSpec>,
) {
    // The tap is a merger branch: it stays a plain unbounded stream
    // (the merger would exempt any bound at adoption anyway — see
    // crate::merge, *branch inputs are exempt*).
    let (tap_tx, tap_rx) = stream();
    let _ = ctl.send(BranchSpec {
        rx: tap_rx,
        watermark: watermark.clone(),
    });
    let at = chain.unfold(stage);
    let mut route = chain.dispatch();
    let ctx2 = Arc::clone(ctx);
    // The forward into the next replica goes through the credit gate,
    // so a slow replica parks this guard (and transitively the whole
    // upstream chain) instead of growing its queue. Exits and sorts
    // stay ungated — the tap is exempt, and a det round boundary must
    // propagate down the chain without waiting.
    ctx.spawn(at.guard.as_str(), async move {
        let mut wm = watermark;
        let mut next: Option<Sender> = None;
        while let Ok(msg) = input.recv_async().await {
            match msg {
                Msg::Rec(rec) => {
                    if route.exits(&ctx2, at.guard, &rec) {
                        let _ = tap_tx.send(Msg::Rec(rec));
                    } else {
                        let next = next.get_or_insert_with(|| {
                            // Demand-driven unfolding: the replica and
                            // the next guard exist only because this
                            // record needs them.
                            let (rtx, rrx) = ctx2.data_stream(at.replica);
                            let replica_out = instantiate(&ctx2, &chain.body, at.replica, rrx);
                            spawn_guard(
                                &ctx2,
                                Arc::clone(&chain),
                                stage + 1,
                                replica_out,
                                wm.clone(),
                                ctl.clone(),
                            );
                            rtx
                        });
                        let _ = next.feed(Msg::Rec(rec)).await;
                    }
                }
                Msg::Sort {
                    level: l,
                    counter: c,
                } => {
                    // Duplicate every sort to the tap (the merger needs
                    // it for round/barrier bookkeeping) and down the
                    // chain if it exists.
                    let _ = tap_tx.send(Msg::Sort {
                        level: l,
                        counter: c,
                    });
                    if let Some(tx) = &next {
                        let _ = tx.send(Msg::Sort {
                            level: l,
                            counter: c,
                        });
                    }
                    wm.insert(l, c + 1);
                }
            }
        }
        // EOS: tap, chain sender and control clone all drop here,
        // cascading end-of-stream down the chain and eventually closing
        // the merger's control channel.
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instantiate::{run_to_end, test_ctx};
    use crate::plan::{compile_cfg, Bindings, Plan};
    use snet_lang::{parse_net_expr, parse_program};
    use snet_types::Record;

    /// Compiles `expr` over one box `decl`/`imp` and runs `inputs`
    /// through it to the end. `fuse` is the compile flag: on, the plan
    /// runs as a fused fan stage; off, on this file's guard chain — every
    /// test runs both.
    fn run(
        decl: &str,
        imp: impl Fn(&Record, &mut crate::boxfn::Emitter) + Send + Sync + 'static,
        expr: &str,
        fuse: bool,
        inputs: impl IntoIterator<Item = Record>,
    ) -> (Arc<Ctx>, Vec<Record>) {
        let env = parse_program(decl).unwrap().env().unwrap();
        let name = decl.split_whitespace().nth(1).unwrap();
        let b = Bindings::new().bind(name, imp);
        let plan: Plan = compile_cfg(&parse_net_expr(expr).unwrap(), &env, &b, fuse).unwrap();
        let ctx = test_ctx(Vec::new());
        let recs = run_to_end(&ctx, &plan.root, inputs);
        (ctx, recs)
    }

    /// `step (n) -> (n) | (n, <done>)`: decrements n; emits `<done>`
    /// when it reaches zero. A record entering with n therefore
    /// traverses exactly n replicas — a miniature of the sudoku
    /// pipeline's "one number per replica" structure.
    fn countdown(
        det: bool,
        fuse: bool,
        inputs: impl IntoIterator<Item = Record>,
    ) -> (Arc<Ctx>, Vec<Record>) {
        let step = |r: &Record, e: &mut crate::boxfn::Emitter| {
            let n = r.field("n").unwrap().as_int().unwrap() - 1;
            if n == 0 {
                e.emit(Record::build().field("n", n).tag("done", 1).finish());
            } else {
                e.emit(Record::build().field("n", n).finish());
            }
        };
        let expr = if det {
            "step * {<done>}"
        } else {
            "step ** {<done>}"
        };
        run(
            "box step (n) -> (n) | (n, <done>);",
            step,
            expr,
            fuse,
            inputs,
        )
    }

    fn n(v: i64) -> Record {
        Record::build().field("n", v).finish()
    }

    #[test]
    fn record_traverses_until_exit() {
        for fuse in [true, false] {
            let (ctx, recs) = countdown(false, fuse, [n(5)]);
            assert_eq!(recs.len(), 1);
            assert_eq!(recs[0].field("n").unwrap().as_int(), Some(0));
            assert_eq!(recs[0].tag("done"), Some(1));
            // Demand-driven: exactly 5 replicas (stages 0..4 created
            // replicas; guard 5 tapped the exit).
            assert_eq!(ctx.metrics.get("net/starnd/stages"), 6);
        }
    }

    #[test]
    fn immediate_exit_creates_no_replica() {
        for fuse in [true, false] {
            // A record already matching the exit pattern leaves through
            // guard 0's tap; the replicated network is never
            // instantiated.
            let done = Record::build().field("n", 9i64).tag("done", 1).finish();
            let (ctx, recs) = countdown(false, fuse, [done]);
            assert_eq!(recs.len(), 1);
            assert_eq!(ctx.metrics.get("net/starnd/stages"), 1);
            assert_eq!(ctx.metrics.sum_matching("box:step/records_in"), 0);
        }
    }

    #[test]
    fn unfolding_depth_matches_deepest_record() {
        for fuse in [true, false] {
            let (ctx, recs) = countdown(false, fuse, [n(3), n(7), n(2)]);
            assert_eq!(recs.len(), 3);
            assert_eq!(ctx.metrics.get("net/starnd/stages"), 8); // depth 7 + exit guard
            assert_eq!(ctx.metrics.get("net/starnd/exits"), 3);
        }
    }

    #[test]
    fn det_star_preserves_input_order() {
        for fuse in [true, false] {
            // Records with wildly different depths: deep ones exit late
            // in wall-clock terms, but det order must follow input
            // order.
            let inputs = [9i64, 1, 6, 2, 8, 3]
                .iter()
                .enumerate()
                .map(|(i, d)| Record::build().field("n", *d).tag("id", i as i64).finish());
            let (_, recs) = countdown(true, fuse, inputs);
            let ids: Vec<i64> = recs.iter().map(|r| r.tag("id").unwrap()).collect();
            assert_eq!(ids, vec![0, 1, 2, 3, 4, 5]);
        }
    }

    #[test]
    fn nondet_star_emits_fast_records_first() {
        for fuse in [true, false] {
            // With non-deterministic merging, a shallow record entered
            // *after* a deep one usually overtakes it. We only assert
            // that all records arrive (overtaking is timing-dependent).
            let (_, recs) = countdown(false, fuse, [n(40), n(1)]);
            assert_eq!(recs.len(), 2);
        }
    }

    #[test]
    fn guarded_exit_pattern_fig3_shape() {
        for fuse in [true, false] {
            // bump: increments <level>; exit when <level> > 3. Uses the
            // paper's guarded exit semantics. Note <level> must be part
            // of the box's *input* signature — a box only sees its
            // declared inputs, so deriving the level from an undeclared
            // tag would read flow-inherited state the box never
            // receives.
            let bump = |r: &Record, e: &mut crate::boxfn::Emitter| {
                let x = r.field("x").unwrap().as_int().unwrap();
                let lvl = r.tag("level").unwrap();
                e.emit(Record::build().field("x", x).tag("level", lvl + 1).finish());
            };
            let (_, recs) = run(
                "box bump (x, <level>) -> (x, <level>);",
                bump,
                "bump ** {<level>} if <level> > 3",
                fuse,
                [Record::build().field("x", 0i64).tag("level", 0).finish()],
            );
            assert_eq!(recs.len(), 1);
            assert_eq!(recs[0].tag("level"), Some(4)); // first level > 3
        }
    }

    #[test]
    fn det_star_with_zero_records_terminates() {
        for fuse in [true, false] {
            let (_, recs) = countdown(true, fuse, []);
            assert!(recs.is_empty());
        }
    }

    #[test]
    fn guard_referencing_missing_tag_never_exits_early() {
        for fuse in [true, false] {
            // Exit pattern {} (matches every record) with a guard over a
            // tag that only appears at the end: records without the tag
            // must keep circulating (guard evaluation failure = no
            // exit).
            let until5 = |r: &Record, e: &mut crate::boxfn::Emitter| {
                let n = r.field("n").unwrap().as_int().unwrap() + 1;
                if n >= 5 {
                    e.emit(Record::build().field("n", n).tag("lvl", n).finish());
                } else {
                    e.emit(Record::build().field("n", n).finish());
                }
            };
            let (_, recs) = run(
                "box until5 (n) -> (n) | (n, <lvl>);",
                until5,
                "until5 ** {} if <lvl> > 0",
                fuse,
                [n(0)],
            );
            assert_eq!(recs.len(), 1);
            assert_eq!(recs[0].tag("lvl"), Some(5));
        }
    }

    #[test]
    fn interleaved_deep_and_shallow_records_all_complete() {
        for fuse in [true, false] {
            let inputs = (0..40).map(|i| n(if i % 2 == 0 { 20 } else { 1 }));
            let (ctx, recs) = countdown(false, fuse, inputs);
            assert_eq!(recs.len(), 40);
            assert_eq!(ctx.metrics.get("net/starnd/exits"), 40);
        }
    }

    #[test]
    fn multiplying_records_in_star() {
        for fuse in [true, false] {
            // A box that fans out: each record of weight w emits w
            // records of weight w-1; exit at weight 0. Checks that
            // replicas handle fan-out and that the merger sees every
            // exit.
            let fan = |r: &Record, e: &mut crate::boxfn::Emitter| {
                let w = r.field("w").unwrap().as_int().unwrap();
                if w == 0 {
                    e.emit(Record::build().field("w", 0i64).tag("z", 1).finish());
                } else {
                    for _ in 0..w {
                        e.emit(Record::build().field("w", w - 1).finish());
                    }
                }
            };
            let (ctx, recs) = run(
                "box fan (w) -> (w) | (w, <z>);",
                fan,
                "fan ** {<z>}",
                fuse,
                [Record::build().field("w", 4i64).finish()],
            );
            // 4 * 3 * 2 * 1 = 24 leaves.
            assert_eq!(recs.len(), 24);
            // Replicas 0..=4 handle weights 4..=0; guard 5 taps the
            // exits.
            assert_eq!(ctx.metrics.get("net/starnd/stages"), 6);
        }
    }
}
