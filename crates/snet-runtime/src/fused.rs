//! The stage-run driver: one component running a chain of SISO stages.
//! It is the only record loop there is for boxes, filters and fused
//! fans — a lone box, filter or fan is a run of length 1, and a net
//! compiled fused is one run from its input to its output
//! ([`crate::instantiate`] builds every run through `lane_cores` and
//! `spawn_stage_run`).
//!
//! A fused [`crate::plan::PNode::Run`] is a `..` spine (see
//! [`crate::plan`]). Instantiating it spawns **one** component whose
//! loop does one `recv_each` at the head and one send at the tail;
//! between them every record is handed stage-to-stage **on the
//! component's own stack** — no intermediate [`Msg`]s, channels or
//! wakeups, which is the whole point: the per-stage tax of an unfused
//! chain is a channel send, a consumer wakeup and a scheduler
//! round-trip per record per stage (the benchmark ledger's
//! `stream.pingpong_ns`, a hop with its wake, is context-switch-bound
//! on small machines), and fusion pays it once per chain instead of
//! once per stage.
//!
//! **Execution order.** A drain runs **stage-major**, through the one
//! walk every fan lane uses too (`run_stages`): the drained records go
//! through the first stage as one batch, what it emitted through the
//! second, and so on — so each stage's code, plan cache and counters
//! stay hot across the batch instead of being re-touched per record,
//! and counters settle once per stage per drain. The observable order
//! is the unfused chain's: a stage takes its batch in order and its
//! emissions are appended in emission order, which is the in-order
//! input queue the unfused downstream component would process. Sort
//! records never enter a walk: one cuts the batch at its own position
//! — the records drained before it are walked and published ahead of
//! it — so it keeps its place in the stream, and fused output is
//! byte-identical, sort records included. (Only a lone stage of an
//! unfused net meets sort records in practice: they travel between a
//! det dispatcher and its merger.)
//!
//! **Fairness.** One rule, stated here and nowhere else: **a drain is
//! bounded by the poll budget, and the poll budget is the measured time
//! slice** ([`crate::sched`], on every executor). The head takes at
//! most one budget's worth of messages off the input per poll — one
//! frame at a time where a stage costs 400 µs, 128 sensor readings —
//! walks them through every stage and publishes the tail's output once,
//! through the credit gate ([`feed_batch`] — a full edge parks the run,
//! an unbounded one never waits). The slice measures the whole poll, a
//! multi-emission cascade included, so an expensive run is priced down
//! to fewer records per drain, and a slow or stalled run, whose budget
//! is 1, publishes per record. What this gives up: a poll no longer
//! stops *inside* a drain. One input's cascade through a run's stages
//! finishes within one poll, as a fused fan's lanes already did — an
//! input whose cascade alone outlasts the slice holds its worker until
//! it is through, where a budget of stage-message units with a yield
//! between steps could have let a sibling task run in the middle.
//!
//! **Fans.** A fused combinator is a stage like a box: a
//! [`StageCore::Fan`] owning a [`DispatchCore`] — the combinator's own
//! router over lanes that are stage-core vectors — that takes each
//! record the walk hands it and emits what comes out of its lanes.
//! A lane's stages are boxes, filters and fans again, so a nest of any
//! depth (Fig. 2's star of splits) is one depth-synchronous walk, and
//! a spine `box .. fan .. fan` is one run of three stages, with no task
//! hand-off between levels or parts. A record moves down the nest
//! itself, not a copy (a fan stage takes it out of its caller's hands),
//! and what it becomes comes back up through the same `sink` closure
//! every stage emits into; each core owns its stage-major buffers,
//! because a nested walk runs in the middle of its parent's. See
//! [`crate::plan`], *Fan fusion*, for the rule and for what running a
//! net as one task gives up.
//!
//! **Observability.** Each stage registers its own
//! [`crate::path::CompPath`] sub-path (the `s0`/`s1` suffixes of the
//! `..` tree) with `spawned`, `records_in` and `records_out` counters
//! at spawn, and observers see per-stage In/Out events — the string
//! metrics query API cannot tell a fused chain from an unfused one.
//! Only [`crate::Net::threads_spawned`] (components, not stage paths)
//! reveals the difference: an n-stage fused chain is one component.
//!
//! **Leaves.** A box and a filter share one stage boundary,
//! [`LeafCore`]: path, counters, the per-shape split-plan cache
//! (`PlanCache`), observation, the routing-invariant check and the
//! fault guard. What differs is the transfer function alone —
//! [`crate::boxfn::BoxCore`] and [`crate::filter_exec::FilterCore`].
//!
//! **Faults.** The fault boundary lives *inside* the leaf core
//! (`process_uncounted`; see [`crate::fault`]), so a stage contains
//! panics the same way wherever the plan put it: a skipped record at
//! stage *k* simply contributes nothing to stage *k+1*'s batch, and its
//! counters sit at the stage's own path, which fusion preserves.

use crate::boxfn::BoxCore;
use crate::ctx::Ctx;
use crate::fault::FaultGuard;
use crate::filter_exec::FilterCore;
use crate::memo::PlanCache;
use crate::metrics::{keys, Counter};
use crate::parallel::ParRouter;
use crate::path::{name, CompPath};
use crate::plan::{FanKind, PNode};
use crate::split::SplitRouter;
use crate::star::{ExitDispatch, GuardPaths, StarChain};
use crate::stream::{feed_batch, Dir, Msg, Receiver, RECV_BATCH};
use snet_types::Record;
use std::sync::Arc;

/// One stage's execution core inside a stage run or a fan lane.
pub(crate) enum StageCore {
    /// A box or a filter.
    Leaf(LeafCore),
    /// A fan inside another fan's lane: the whole combinator — dispatch,
    /// its own lanes, the merge handoff — is one stage of the enclosing
    /// walk (see [`DispatchCore`]). Boxed: a router is several times a
    /// leaf core, and lanes are mostly boxes.
    Fan(Box<DispatchCore>),
}

/// Builds the execution core for one stage — a plan's `Box` or
/// `Filter` leaf, or a fan — under `parent` (the `box:{name}` /
/// `filter` / `split`-style child is derived here): the per-stage
/// spawn bookkeeping of every stage, wherever the plan put it.
fn stage_core(ctx: &Ctx, parent: CompPath, leaf: &PNode) -> StageCore {
    match leaf {
        PNode::Box { seg, sig, imp, .. } => StageCore::Leaf(LeafCore::new(
            ctx,
            parent.child_at(*seg),
            Leaf::Box(BoxCore::new(sig.clone(), Arc::clone(imp))),
        )),
        PNode::Filter { def } => StageCore::Leaf(LeafCore::new(
            ctx,
            parent.child_at(name!("filter")),
            Leaf::Filter(FilterCore::new(def.clone())),
        )),
        PNode::Fan { kind, det, .. } => StageCore::Fan(Box::new(DispatchCore::new(
            ctx,
            kind.comb_path(parent, *det),
            kind,
        ))),
        PNode::Run { .. } => unreachable!("not a lane stage: {leaf:?}"),
    }
}

/// Builds the stage cores of one stage run from its plan — a fan
/// lane's body, or a whole fused net: a [`PNode::Run`] (each stage
/// under its recorded suffix) or a lone stage. Every per-stage path is
/// registered at spawn exactly as the unfused instantiation would
/// (`instantiate(body, bpath)`), so metrics and observers match that
/// topology.
pub(crate) fn lane_cores(ctx: &Ctx, bpath: CompPath, body: &PNode) -> Vec<StageCore> {
    match body {
        PNode::Run { stages, .. } => stages
            .iter()
            .map(|stage| stage_core(ctx, bpath.descend(&stage.suffix), &stage.node))
            .collect(),
        lone => vec![stage_core(ctx, bpath, lone)],
    }
}

impl StageCore {
    /// One record through the stage, counter-free. Returns what a leaf
    /// emitted (its counters are settled per batch via
    /// [`StageCore::add_counts`]); a fan's routers count per record,
    /// so it returns 0.
    ///
    /// The caller owns `rec` and lends it: a leaf only reads it, a fan
    /// — whose router forwards the record itself — takes it and leaves
    /// an empty one behind. Not `rec: Record`: moving the record (128
    /// bytes then) into every stage call cost the box and filter arms
    /// 6 ns a record (`fused.record_ns` 55.0 → 61.6 in the benchmark's
    /// ledger, `star.level_ns` 232 → 247).
    fn process_uncounted(
        &mut self,
        ctx: &Ctx,
        rec: &mut Record,
        sink: &mut dyn FnMut(Record),
    ) -> u64 {
        match self {
            StageCore::Leaf(core) => core.process_uncounted(ctx, rec, sink),
            StageCore::Fan(fan) => {
                fan.process(ctx, std::mem::take(rec), sink);
                0
            }
        }
    }

    /// Settles a batch's counters. A fan's routers count per record,
    /// so there is nothing to settle for one.
    fn add_counts(&self, records_in: u64, records_out: u64) {
        if let StageCore::Leaf(core) = self {
            core.records_in.inc(records_in);
            core.records_out.inc(records_out);
        }
    }

    pub(crate) fn path(&self) -> CompPath {
        match self {
            StageCore::Leaf(core) => core.path,
            StageCore::Fan(fan) => fan.comb,
        }
    }
}

/// A leaf's transfer function: what one record, matched by its split
/// plan, becomes.
pub(crate) enum Leaf {
    Box(BoxCore),
    Filter(FilterCore),
}

/// The stage boundary of a box or a filter, held once for both: all
/// bookkeeping is resolved at construction — the stage path is interned
/// once, the counters are registered once, and the input shape is
/// interned so split plans resolve per incoming record *shape* through
/// a spawn-local cache.
pub(crate) struct LeafCore {
    fun: Leaf,
    path: CompPath,
    plans: PlanCache,
    /// `ctx.has_observers()`, resolved once (observers are fixed at
    /// context construction) — the record loop never chases the
    /// context for it.
    observing: bool,
    /// The fault boundary, resolved once at construction; `None`
    /// under the default `FailNet` so the hot path pays one
    /// predictable branch (see [`crate::fault`]). `Option` also lets [`LeafCore::process_uncounted`] move the guard out
    /// while the body borrows `&mut self`; boxed, because a guard is
    /// larger than the rest of the core.
    guard: Option<Box<FaultGuard>>,
    records_in: Counter,
    records_out: Counter,
}

impl LeafCore {
    /// Registers the stage at `path` and resolves its counters.
    fn new(ctx: &Ctx, path: CompPath, fun: Leaf) -> LeafCore {
        let [spawned, records_in, records_out] = ctx.metrics.counters_at(
            path,
            [
                name!(keys::SPAWNED),
                name!(keys::RECORDS_IN),
                name!(keys::RECORDS_OUT),
            ],
        );
        spawned.inc(1);
        let input = match &fun {
            Leaf::Box(core) => core.input_shape(),
            Leaf::Filter(core) => core.input_shape(),
        };
        LeafCore {
            fun,
            plans: PlanCache::new(input),
            observing: ctx.has_observers(),
            guard: ctx.fault_guard(path).map(Box::new),
            records_in,
            records_out,
            path,
        }
    }

    /// Runs one record through the leaf; every output record is handed
    /// to `sink` in emission order, and the count is returned for
    /// [`StageCore::add_counts`]. Runs under the net's fault boundary
    /// when one is configured — a panic in the transfer function is
    /// contained per the [`crate::FaultPolicy`].
    fn process_uncounted(&mut self, ctx: &Ctx, rec: &Record, sink: &mut dyn FnMut(Record)) -> u64 {
        match self.guard.take() {
            None => self.process_raw(ctx, rec, sink),
            Some(mut g) => {
                let n = g.run(rec, sink, &mut |r, s| self.process_raw(ctx, r, s));
                self.guard = Some(g);
                n
            }
        }
    }

    /// The raw per-record path — no fault boundary (panics unwind to
    /// the caller). Plan existence *is* the pattern check (subtype
    /// acceptance), and the transfer function inherits the record's
    /// excess through the same plan.
    fn process_raw(&mut self, ctx: &Ctx, rec: &Record, sink: &mut dyn FnMut(Record)) -> u64 {
        if self.observing {
            ctx.observe(self.path, Dir::In, rec);
        }
        let Some(plan) = self.plans.plan_for(rec) else {
            let what = match &self.fun {
                Leaf::Box(core) => core.accepts(self.path),
                Leaf::Filter(core) => core.accepts(self.path),
            };
            panic!("record {rec:?} does not match {what} — routing invariant violated")
        };
        let observer = self.observing.then_some(ctx);
        match &self.fun {
            Leaf::Box(core) => core.transfer(rec, plan, self.path, observer, sink),
            Leaf::Filter(core) => core.transfer(rec, plan, self.path, observer, sink),
        }
    }
}

/// One drain's stage-major pass through a chain of stages: runs `batch`
/// through every stage in order, leaving the tail's output in `batch`.
/// The one walk of both a stage run's drain and a fan lane; sort
/// records never enter it.
fn run_stages(
    cores: &mut [StageCore],
    ctx: &Ctx,
    batch: &mut Vec<Record>,
    scratch: &mut Vec<Record>,
) {
    for core in cores.iter_mut() {
        if batch.is_empty() {
            return;
        }
        scratch.clear();
        let n_in = batch.len() as u64;
        for mut rec in batch.drain(..) {
            core.process_uncounted(ctx, &mut rec, &mut |r| scratch.push(r));
        }
        core.add_counts(n_in, scratch.len() as u64);
        std::mem::swap(batch, scratch);
    }
}

/// The stage-run driver: **the** record loop of every box, filter and
/// fused fan, on every executor and every edge. One component runs
/// `cores` in order between `input` and a data edge `{owner}/out`; a
/// lone box, filter or fan is a run of length 1.
pub(crate) fn spawn_stage_run(
    ctx: &Arc<Ctx>,
    owner: CompPath,
    mut cores: Vec<StageCore>,
    input: Receiver,
) -> Receiver {
    let (tx, rx) = ctx.data_stream(owner);
    let task_name = cores.first().map_or(owner, StageCore::path).as_str();
    let ctx2 = Arc::clone(ctx);
    ctx.spawn(task_name, async move {
        let (mut batch, mut scratch, mut out) = (Vec::new(), Vec::new(), Vec::new());
        let mut walk = |cores: &mut [StageCore], batch: &mut Vec<Record>, out: &mut Vec<Msg>| {
            run_stages(cores, &ctx2, batch, &mut scratch);
            out.extend(batch.drain(..).map(Msg::Rec));
        };
        // One drain per wake, at most the poll budget (module docs:
        // fairness), walked through every stage and published as one
        // credit-gated batch; a sort record cuts the drain at its own
        // position. The final drain after disconnection reuses the
        // same loop; dropping `tx` propagates end-of-stream.
        loop {
            let n = input
                .recv_each(RECV_BATCH, &mut |msg| match msg {
                    Msg::Rec(rec) => batch.push(rec),
                    sort @ Msg::Sort { .. } => {
                        walk(&mut cores, &mut batch, &mut out);
                        out.push(sort);
                    }
                })
                .await;
            walk(&mut cores, &mut batch, &mut out);
            if feed_batch(&tx, &mut out).await.is_err() {
                return; // downstream gone: teardown
            }
            if n == 0 {
                break;
            }
        }
    });
    rx
}

/// A fused fan's dispatch-and-lane state: the combinator's own router
/// ([`SplitRouter`], [`ParRouter`], [`StarChain`] — the ones its
/// dispatcher tasks use, so routing, counters, lane names, observer
/// events, panics and memoization are the same code), instantiated
/// with a stage-core vector as the lane, run stage-major, emissions
/// handed to the caller's sink.
///
/// **A stage like any other.** Every fused fan is a [`StageCore::Fan`]:
/// on the top-level spine it is a stage of the net's one stage run,
/// inside another fan's lane a stage of that lane, and either way its
/// sink is the walk's buffer for the next stage — so a star of splits is one depth-synchronous walk in one
/// component, however deep the nest. The record is handed over itself
/// (a router forwards it, it does not copy it). Each core owns its
/// stage-major buffers: a nested walk runs in the middle of its
/// parent's `run_stages`, whose buffers are borrowed at that moment.
///
/// Processing each record synchronously, in input order, is what
/// makes the merge degenerate: where an unfused lane publishes to a
/// per-branch channel for a merger task to drain, a fused lane's
/// emissions are concatenated in arrival order and handed straight to
/// the sink. The deterministic variants need **no sort records at
/// all** inside the fan, because concatenating each record's lane
/// output in arrival order *is* the round-by-round-in-join-order drain
/// of the unfused det merger (for a star, depth-`d` exits of one record
/// precede its depth-`d+1` exits — join order — and per-depth arrival
/// order is the lane's emission order), and that holds level by level
/// through a nest: an inner fan hands its parent the very sequence its
/// det merger would have. Outer-scope sorts never enter a lane; the
/// driver forwards them at their stream position, exactly once, which
/// is what the unfused mergers' barrier/round bookkeeping reduces to
/// when every branch is drained in lockstep.
pub(crate) struct DispatchCore {
    comb: CompPath,
    lanes: FanLanes,
    /// Stage-major buffers of this fan's lane walks (see above: own,
    /// not the caller's).
    batch: Vec<Record>,
    scratch: Vec<Record>,
}

/// A fan's router with the lanes it has opened so far.
enum FanLanes {
    /// `body ! <tag>` / `body !! <tag>`: lanes unfold on demand per
    /// branch key, exactly like the dispatcher's replicas.
    Split {
        router: SplitRouter<Vec<StageCore>>,
        body: Arc<PNode>,
    },
    /// `left | right` / `left || right`: both lanes exist up front
    /// (parallel composition instantiates eagerly).
    Par(ParRouter<Vec<StageCore>>),
    /// `body * {exit}` / `body ** {exit}`: replica `d` and guard
    /// `d + 1` unfold when the first record passes guard `d` without
    /// exiting, exactly like the guard chain's demand-driven
    /// unfolding.
    Star {
        chain: StarChain,
        route: ExitDispatch,
        /// `guards[d]` names guard `d` and the replica behind it.
        guards: Vec<GuardPaths>,
        lanes: Vec<Vec<StageCore>>,
        /// Scratch frontier for the per-record depth walk (reused
        /// across records).
        frontier: Vec<Record>,
    },
}

impl DispatchCore {
    /// Registers the combinator at `comb` through its router; lanes
    /// open as the router's own dispatcher would open replicas.
    fn new(ctx: &Ctx, comb: CompPath, kind: &FanKind) -> DispatchCore {
        let lanes = match kind {
            FanKind::Split { body, tag } => FanLanes::Split {
                router: SplitRouter::new(ctx, comb, *tag),
                body: Arc::clone(body),
            },
            FanKind::Parallel {
                left,
                right,
                left_sig,
                right_sig,
            } => FanLanes::Par(ParRouter::new(
                ctx,
                comb,
                (left, left_sig),
                (right, right_sig),
                |lpath, body| lane_cores(ctx, lpath, body),
            )),
            FanKind::Star { body, exit } => {
                let chain = StarChain::new(ctx, comb, body, exit);
                FanLanes::Star {
                    route: chain.dispatch(),
                    guards: vec![chain.unfold(0)],
                    chain,
                    lanes: Vec::new(),
                    frontier: Vec::new(),
                }
            }
        };
        DispatchCore {
            comb,
            lanes,
            batch: Vec::new(),
            scratch: Vec::new(),
        }
    }

    /// Runs one input record through its lane(s); emissions reach
    /// `sink` in output order.
    ///
    /// Inlining is the compiler's call. Every fused fan of every
    /// workload runs through here, and forced out of line
    /// (`#[inline(never)]`) it read `fifo-sensor-det` p50 12.71 µs
    /// against 12.44 µs inlined (−2.1 %, inlined ahead in 5 of 6
    /// alternating pairs, one CPU of a 2-vCPU Xeon), with
    /// `batch-sudoku9` p50 the same either way (777 vs 779 µs, inside
    /// the spread).
    fn process(&mut self, ctx: &Ctx, rec: Record, sink: &mut dyn FnMut(Record)) {
        let DispatchCore {
            comb,
            lanes,
            batch,
            scratch,
        } = self;
        let cores = match lanes {
            FanLanes::Split { router, body } => {
                router.lane(ctx, *comb, &rec, |bpath| lane_cores(ctx, bpath, body))
            }
            FanLanes::Par(router) => router.lane(ctx, *comb, &rec),
            FanLanes::Star {
                chain,
                route,
                guards,
                lanes,
                frontier,
            } => {
                frontier.clear();
                frontier.push(rec);
                let mut depth = 0;
                while !frontier.is_empty() {
                    // Guard `depth`: exits leave for the output, the
                    // rest enter replica `depth`.
                    batch.clear();
                    for r in frontier.drain(..) {
                        if route.exits(ctx, guards[depth].guard, &r) {
                            sink(r);
                        } else {
                            batch.push(r);
                        }
                    }
                    if batch.is_empty() {
                        break;
                    }
                    if lanes.len() == depth {
                        lanes.push(lane_cores(ctx, guards[depth].replica, &chain.body));
                        guards.push(chain.unfold(depth + 1));
                    }
                    run_stages(&mut lanes[depth], ctx, batch, scratch);
                    std::mem::swap(frontier, batch);
                    depth += 1;
                }
                return;
            }
        };
        batch.clear();
        batch.push(rec);
        run_stages(cores, ctx, batch, scratch);
        batch.drain(..).for_each(sink);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instantiate::{run_msgs_to_end, run_to_end, test_ctx};
    use crate::plan::{compile_cfg, Bindings, PNode};
    use snet_lang::{parse_net_expr, parse_program};
    use std::sync::Arc;

    fn fused_plan(expr: &str) -> Arc<PNode> {
        let env = parse_program(
            "box inc (x) -> (x);\n\
             box fan (x) -> (x);",
        )
        .unwrap()
        .env()
        .unwrap();
        let b = Bindings::new()
            .bind("inc", |r, e| {
                let x = r.field("x").unwrap().as_int().unwrap();
                e.emit(Record::build().field("x", x + 1).finish());
            })
            .bind("fan", |r, e| {
                // Two emissions per input: the depth-first cascade case.
                let x = r.field("x").unwrap().as_int().unwrap();
                e.emit(Record::build().field("x", x * 10).finish());
                e.emit(Record::build().field("x", x * 10 + 1).finish());
            });
        let ast = parse_net_expr(expr).unwrap();
        compile_cfg(&ast, &env, &b, true).unwrap().root
    }

    fn drive(root: &Arc<PNode>, n: i64) -> Vec<i64> {
        let ctx = test_ctx(Vec::new());
        let inputs = (0..n).map(|x| Record::build().field("x", x).finish());
        run_to_end(&ctx, root, inputs)
            .iter()
            .map(|r| r.field("x").unwrap().as_int().unwrap())
            .collect()
    }

    #[test]
    fn fused_chain_composes_like_serial() {
        let root = fused_plan("inc .. inc .. inc");
        assert!(matches!(&*root, PNode::Run { .. }), "{root:?}");
        assert_eq!(drive(&root, 4), vec![3, 4, 5, 6]);
    }

    #[test]
    fn multi_emission_cascades_depth_first() {
        // fan .. fan: 4 outputs per input, in the exact order the
        // unfused chain produces (each emission fully traverses the
        // rest of the chain before the next).
        let root = fused_plan("fan .. fan");
        assert_eq!(drive(&root, 2), vec![0, 1, 10, 11, 100, 101, 110, 111]);
    }

    #[test]
    fn sort_records_stay_behind_cascaded_data() {
        let root = fused_plan("fan .. fan");
        let msgs = run_msgs_to_end(
            &test_ctx(Vec::new()),
            &root,
            [
                Msg::Rec(Record::build().field("x", 1i64).finish()),
                Msg::Sort {
                    level: 0,
                    counter: 0,
                },
                Msg::Rec(Record::build().field("x", 2i64).finish()),
            ],
        );
        // All 4 cascaded outputs of record 1, then the sort, then the
        // 4 outputs of record 2.
        assert_eq!(msgs.len(), 9);
        assert!(msgs[..4].iter().all(|m| matches!(m, Msg::Rec(_))));
        assert_eq!(
            msgs[4],
            Msg::Sort {
                level: 0,
                counter: 0
            }
        );
        assert!(msgs[5..].iter().all(|m| matches!(m, Msg::Rec(_))));
    }

    #[test]
    fn amplified_cascade_spans_many_budgeted_steps() {
        // fan^6 = 64 outputs per input; 40 inputs = 2560 outputs plus
        // all the intermediates, over drains the measured slice sizes
        // (under the pool CI legs, many worker polls, some ending
        // mid-input-stream). Order must be the exact composition order
        // regardless.
        let root = fused_plan("fan .. fan .. fan .. fan .. fan .. fan");
        let got = drive(&root, 40);
        assert_eq!(got.len(), 40 * 64);
        // Oracle: depth-first composition of x -> (10x, 10x+1).
        fn expand(x: i64, depth: u32, out: &mut Vec<i64>) {
            if depth == 0 {
                out.push(x);
            } else {
                expand(x * 10, depth - 1, out);
                expand(x * 10 + 1, depth - 1, out);
            }
        }
        let mut want = Vec::new();
        for x in 0..40 {
            expand(x, 6, &mut want);
        }
        assert_eq!(got, want);
    }

    #[test]
    fn per_stage_metrics_are_registered_and_counted() {
        let root = fused_plan("inc .. fan .. inc");
        let ctx = test_ctx(Vec::new());
        let inputs = (0..3i64).map(|x| Record::build().field("x", x).finish());
        assert_eq!(run_to_end(&ctx, &root, inputs).len(), 6);
        // Exactly one component, but per-stage paths count as if
        // unfused (inc at s0/s0, fan at s0/s1, inc at s1 — or the
        // right-assoc mirror; sum_matching is layout-agnostic).
        assert_eq!(ctx.threads_spawned(), 1);
        assert_eq!(ctx.metrics.sum_matching("box:inc/spawned"), 2);
        assert_eq!(ctx.metrics.sum_matching("box:fan/spawned"), 1);
        assert_eq!(ctx.metrics.sum_matching("box:fan/records_in"), 3);
        assert_eq!(ctx.metrics.sum_matching("box:fan/records_out"), 6);
        assert_eq!(ctx.metrics.sum_matching("box:inc/records_in"), 9);
    }
}
