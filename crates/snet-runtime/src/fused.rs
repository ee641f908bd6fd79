//! The stage-run driver: one component running a chain of SISO stages.
//! It is the only record loop boxes and filters have — a lone box or
//! filter is a run of length 1 ([`crate::instantiate`] builds a leaf
//! through [`stage_core`] and [`spawn_stage_run`]).
//!
//! A [`crate::plan::PNode::Fused`] node is a maximal `Serial` run of
//! boxes and filters collapsed by the fusion pass (see
//! [`crate::plan`] for the legality rules). Instantiating it spawns
//! **one** component whose loop does one `recv_each` at the head and
//! one send at the tail; between them every record is handed
//! stage-to-stage **on the component's own stack** — no intermediate
//! [`Msg`]s, channels or wakeups, which is the whole point: the
//! per-stage tax of an unfused chain is a channel send, a consumer
//! wakeup and a scheduler round-trip per record per stage
//! (`RT_record_hop` is context-switch-bound on small machines), and
//! fusion pays it once per chain instead of once per stage.
//!
//! **Execution order.** Batches run **stage-major**: the stages are
//! connected by in-component FIFO queues, and each scheduling step
//! drains a *run* of messages through one stage — so each stage's
//! code, plan cache and counters stay hot across the whole run
//! instead of being re-touched per record, which measures decisively
//! faster than a per-record depth-first walk once chains get deep
//! (the 16-stage chain walks 16 scattered stage cores per record
//! depth-first, but 1 core per run stage-major). This is exactly the
//! execution shape of the unfused chain, minus the channels. The
//! observable order is identical either way: every queue is FIFO, a
//! multi-output stage's emissions are appended in emission order
//! behind the outputs of every earlier record (precisely the
//! in-order input queue the unfused downstream component processes),
//! and **sort records flow through the queues as ordinary tokens**,
//! each stage forwarding them in turn — so fused output is
//! byte-identical, sort records included.
//!
//! **Fairness.** One rule, stated here and nowhere else: **a drain is
//! bounded by the poll budget, and the poll budget is the measured time
//! slice** ([`crate::sched`], on every executor). The head takes at
//! most one budget's worth of messages off the input per poll — one
//! frame at a time where a stage costs 400 µs, 128 sensor readings — so
//! a stage run holds at most one budget's worth beyond its input edge,
//! a constant independent of load, and a slow or stalled stage, whose
//! budget is 1, publishes per record. What the drain cascades into is
//! worked off in [`Pipeline::step`]s of at most [`RECV_BATCH`]
//! stage-message units, deepest non-empty stage first so finished work
//! reaches the output first; each step's tail output is published
//! through the credit gate ([`feed_batch`] — a full edge parks the run,
//! an unbounded one never waits) and the driver yields between steps,
//! so a chain of k-emission stages costs many steps, not one unbounded
//! poll.
//!
//! **Fans.** The file's second driver, [`spawn_fused_fan`], runs a
//! fused combinator as one component: its record loop hands each input
//! record to a [`DispatchCore`] — the combinator's own router over
//! lanes that are stage-core vectors — and publishes what comes out. A
//! lane's stages are boxes, filters and **fans**: a fan inside another
//! fan's lane is a [`StageCore::Fan`] owning a `DispatchCore` of its
//! own, so a nest of any depth (Fig. 2's star of splits) is one
//! depth-synchronous walk in one component, with no task hand-off
//! between levels. A record moves down the nest itself, not a copy (a
//! fan stage takes it out of its caller's hands), and what it becomes
//! comes back up through the same `sink` closure every stage emits
//! into; each core owns its stage-major buffers, because a nested walk
//! runs in the middle of its parent's; and every level reports the
//! stage-message units it spent, so the one driver's publish-and-yield
//! budget counts the work of the whole nest. See [`crate::plan`], *Fan
//! fusion*, for the rule and for what running a nest as one task gives
//! up.
//!
//! **Observability.** Each stage registers its own
//! [`crate::path::CompPath`] sub-path (the `s0`/`s1` suffixes the
//! unfused `Serial` instantiation would have derived) with `spawned`,
//! `records_in` and `records_out` counters at spawn, and observers
//! see per-stage In/Out events — the string metrics query API cannot
//! tell a fused chain from an unfused one. Only
//! [`crate::Net::threads_spawned`] (components, not stage paths)
//! reveals the difference: an n-stage fused chain is one component.
//!
//! The per-stage execution cores are [`crate::boxfn::BoxCore`] and
//! [`crate::filter_exec::FilterCore`]; per-stage split plans resolve
//! through each core's spawn-local `PlanCache` keyed by record shape.
//!
//! **Faults.** The fault boundary lives *inside* the cores
//! (`process_uncounted`; see [`crate::fault`]), so a stage contains
//! panics — and receives chaos injections — the same way wherever the
//! plan put it: a skipped record at stage *k* simply contributes
//! nothing to stage *k+1*'s queue, and the decision stream is keyed
//! by the stage's own path, which fusion preserves.

use crate::boxfn::BoxCore;
use crate::ctx::{Ctx, Edge};
use crate::filter_exec::FilterCore;
use crate::parallel::ParRouter;
use crate::path::CompPath;
use crate::plan::{FanKind, FusedStage, PNode};
use crate::split::SplitRouter;
use crate::star::{ExitDispatch, GuardPaths, StarChain};
use crate::stream::{feed_batch, yield_now, Msg, Receiver, RECV_BATCH};
use snet_types::Record;
use std::collections::VecDeque;
use std::sync::Arc;

/// One stage's execution core inside a stage run or a fan lane.
pub(crate) enum StageCore {
    Box(BoxCore),
    Filter(FilterCore),
    /// A fan inside another fan's lane: the whole combinator — dispatch,
    /// its own lanes, the merge handoff — is one stage of the enclosing
    /// walk (see [`DispatchCore`]). Boxed: a router is several times a
    /// box core, and lanes are mostly boxes.
    Fan(Box<DispatchCore>),
}

/// Builds the execution core for one stage — a plan's `Box` or
/// `Filter` leaf, or a fan nested in a lane — under `parent` (the
/// `box:{name}` / `filter` / `split`-style child comes from the core
/// constructor): the per-stage spawn bookkeeping of every stage,
/// wherever the plan put it.
pub(crate) fn stage_core(ctx: &Ctx, parent: CompPath, leaf: &PNode) -> StageCore {
    match leaf {
        PNode::Box { name, sig, imp } => StageCore::Box(BoxCore::new(
            ctx,
            parent,
            name,
            sig.clone(),
            Arc::clone(imp),
        )),
        PNode::Filter { def } => StageCore::Filter(FilterCore::new(ctx, parent, def.clone())),
        PNode::Fan { kind, det, .. } => StageCore::Fan(Box::new(DispatchCore::new(
            ctx,
            kind.comb_path(parent, *det),
            kind,
        ))),
        other => unreachable!("not a lane stage: {other:?}"),
    }
}

/// A fused run's stage cores, each registered under its recorded
/// suffix below `path` — at spawn, so metrics and observers match the
/// unfused topology exactly.
pub(crate) fn run_cores(ctx: &Ctx, path: CompPath, stages: &[FusedStage]) -> Vec<StageCore> {
    stages
        .iter()
        .map(|stage| stage_core(ctx, path.descend(&stage.suffix), &stage.leaf))
        .collect()
}

/// Builds one fan lane's stage cores from its body plan — whatever the
/// fusion pass made of it: a run, a `Chain` of runs, lone stages and
/// fans (flattened, each part under its recorded suffix), or a lone
/// stage — registering every per-stage path exactly as the unfused
/// replica instantiation would (`instantiate(body, bpath)`).
fn lane_cores(ctx: &Ctx, bpath: CompPath, body: &PNode) -> Vec<StageCore> {
    match body {
        PNode::Fused { stages } => run_cores(ctx, bpath, stages),
        PNode::Chain { parts } => parts
            .iter()
            .flat_map(|part| lane_cores(ctx, bpath.descend(&part.suffix), &part.node))
            .collect(),
        lone => vec![stage_core(ctx, bpath, lone)],
    }
}

impl StageCore {
    /// One record through the stage, counter-free. Returns the
    /// stage-message units it cost: for a box or filter exactly its
    /// emission count (counters are settled per run via
    /// [`StageCore::add_counts`]); for a fan everything its lanes
    /// spent, emissions included.
    ///
    /// The caller owns `rec` and lends it: a box or filter only reads
    /// it, a fan — whose router forwards the record itself — takes it
    /// and leaves an empty one behind. Not `rec: Record`: moving the
    /// 128 bytes into every stage call cost the box and filter arms
    /// 6 ns a record (`fused.record_ns` 55.0 → 61.6 in the benchmark's
    /// ledger, `star.level_ns` 232 → 247).
    fn process_uncounted(
        &mut self,
        ctx: &Ctx,
        rec: &mut Record,
        sink: &mut dyn FnMut(Record),
    ) -> u64 {
        match self {
            StageCore::Box(core) => core.process_uncounted(ctx, rec, sink),
            StageCore::Filter(core) => core.process_uncounted(ctx, rec, sink),
            StageCore::Fan(fan) => fan.process_nested(ctx, std::mem::take(rec), sink),
        }
    }

    /// Settles a run's counters. A fan's routers count per record, so
    /// there is nothing to settle for one.
    fn add_counts(&self, records_in: u64, records_out: u64) {
        match self {
            StageCore::Box(core) => core.add_counts(records_in, records_out),
            StageCore::Filter(core) => core.add_counts(records_in, records_out),
            StageCore::Fan(_) => {}
        }
    }

    pub(crate) fn path(&self) -> CompPath {
        match self {
            StageCore::Box(core) => core.path(),
            StageCore::Filter(core) => core.path(),
            StageCore::Fan(fan) => fan.comb,
        }
    }
}

/// The fused pipeline's working state: one FIFO message queue in
/// front of each stage (sort records travel through them as ordinary
/// tokens).
struct Pipeline {
    cores: Vec<StageCore>,
    /// `queues[i]` feeds `cores[i]`; the tail's output lands in the
    /// driver's out-buffer.
    queues: Vec<VecDeque<Msg>>,
}

impl Pipeline {
    fn new(cores: Vec<StageCore>) -> Pipeline {
        let queues = cores.iter().map(|_| VecDeque::new()).collect();
        Pipeline { cores, queues }
    }

    /// One bounded scheduling step (see module docs): spends at most
    /// `budget` stage-message units, draining the deepest non-empty
    /// stage first so completed work reaches the output with minimal
    /// latency. The tail's output is appended to `out` — the driver
    /// publishes it after the step, batched (and, on a bounded edge,
    /// credit-gated, which is why publication is not inlined here).
    /// Returns `true` while messages remain queued.
    fn step(&mut self, ctx: &Ctx, out: &mut Vec<Msg>, mut budget: usize) -> bool {
        let n_stages = self.cores.len();
        while budget > 0 {
            let Some(i) = (0..n_stages).rev().find(|&i| !self.queues[i].is_empty()) else {
                return false;
            };
            let take = budget.min(self.queues[i].len());
            budget -= take;
            let core = &mut self.cores[i];
            let (mut n_in, mut n_out) = (0u64, 0u64);
            if i + 1 == n_stages {
                // Tail stage: the run's output collects in `out` for
                // one batched publish by the driver.
                for msg in self.queues[i].drain(..take) {
                    match msg {
                        Msg::Rec(mut rec) => {
                            n_in += 1;
                            n_out += core
                                .process_uncounted(ctx, &mut rec, &mut |r| out.push(Msg::Rec(r)));
                        }
                        sort @ Msg::Sort { .. } => out.push(sort),
                    }
                }
            } else {
                let (head, rest) = self.queues.split_at_mut(i + 1);
                let (q, next) = (&mut head[i], &mut rest[0]);
                for msg in q.drain(..take) {
                    match msg {
                        Msg::Rec(mut rec) => {
                            n_in += 1;
                            n_out += core.process_uncounted(ctx, &mut rec, &mut |r| {
                                next.push_back(Msg::Rec(r))
                            });
                        }
                        sort @ Msg::Sort { .. } => next.push_back(sort),
                    }
                }
            }
            core.add_counts(n_in, n_out);
        }
        self.queues.iter().any(|q| !q.is_empty())
    }
}

/// One record's stage-major pass through a fan lane: runs `batch`
/// through every stage in order, leaving the tail's output in `batch`.
/// No inter-stage queues — the fan driver budgets per input record (see
/// [`spawn_fused_fan`]), and sort records never enter a lane. Returns
/// the stage-message units spent: one per stage, one per record of the
/// tail's output, plus what fans nested in the lane spent inside.
fn run_stages(
    cores: &mut [StageCore],
    ctx: &Ctx,
    batch: &mut Vec<Record>,
    scratch: &mut Vec<Record>,
) -> usize {
    let mut units = cores.len();
    for core in cores.iter_mut() {
        scratch.clear();
        let n_in = batch.len() as u64;
        let mut spent = 0u64;
        for mut rec in batch.drain(..) {
            spent += core.process_uncounted(ctx, &mut rec, &mut |r| scratch.push(r));
        }
        let n_out = scratch.len() as u64;
        core.add_counts(n_in, n_out);
        // Zero for a box or filter, which spends what it emits.
        units += (spent - n_out) as usize;
        std::mem::swap(batch, scratch);
    }
    units + batch.len()
}

/// The stage-run driver: **the** record loop of every box and filter,
/// on every executor and every edge. One component runs `cores` in
/// order between `input` and a data edge `{owner}/out`; a lone box or
/// filter is a run of length 1.
pub(crate) fn spawn_stage_run(
    ctx: &Arc<Ctx>,
    owner: CompPath,
    cores: Vec<StageCore>,
    input: Receiver,
) -> Receiver {
    let (tx, rx) = ctx.data_stream(owner, Edge::Out);
    // The component is named after its head stage — unique even when
    // several fused runs of one Chain share the chain-root path.
    let task_name = cores.first().map_or(owner, StageCore::path).as_str();
    let ctx2 = Arc::clone(ctx);
    ctx.spawn(task_name, async move {
        let mut pipe = Pipeline::new(cores);
        let mut out: Vec<Msg> = Vec::new();
        // One drain per wake, at most the poll budget (module docs:
        // fairness); the messages land in the head stage's queue and
        // budgeted steps push them through the stages, each step's tail
        // output published as one credit-gated batch. The final drain
        // after disconnection reuses the same loop; dropping `tx`
        // propagates end-of-stream.
        loop {
            let n = input
                .recv_each(RECV_BATCH, &mut |msg| pipe.queues[0].push_back(msg))
                .await;
            loop {
                let more = pipe.step(&ctx2, &mut out, RECV_BATCH);
                if feed_batch(&tx, &mut out).await.is_err() {
                    return; // downstream gone: teardown
                }
                if !more {
                    break;
                }
                yield_now().await;
            }
            if n == 0 {
                break;
            }
        }
    });
    rx
}

/// Whether a `fused` [`PNode::Fan`] may actually run fused under this
/// net's runtime settings; `false` sends instantiation to the
/// combinator's own dispatcher (see [`crate::instantiate`]). The
/// conditions are net-global, so a nest is all one way: a fan that runs
/// fused builds the fans in its lanes as stage cores without asking
/// again, and one that does not hands each replica to `instantiate`,
/// which asks again and hears the same. Three conditions, all
/// documented in [`crate::plan`] (*fan fusion*):
///
/// * the net's escape hatch ([`crate::ctx::RunCfg::fan_fuse`]) is off;
/// * the fault policy is `Restart` — its backoff sleep would park
///   every co-scheduled lane, not just the faulty one;
/// * an **explicit** capacity override names the `"dispatch"` edge:
///   the user asked for credit-gated lane edges, and a fused fan has
///   no lane edges to gate. (The net-global default bound does *not*
///   decline: fusion replaces the lane edge with a synchronous
///   handoff — stricter than any capacity — and backpressure still
///   propagates through the fan's own input edge.)
pub(crate) fn fan_fusable_here(ctx: &Ctx) -> bool {
    let cfg = ctx.cfg();
    cfg.fan_fuse
        && !cfg.fault_policy.restarts()
        && !matches!(cfg.bound_overrides.get(&Edge::Dispatch), Some(&n) if n > 0)
}

/// A fused fan's dispatch-and-lane state: the combinator's own router
/// ([`SplitRouter`], [`ParRouter`], [`StarChain`] — the ones its
/// dispatcher tasks use, so routing, counters, lane names, observer
/// events, panics and memoization are the same code), instantiated
/// with a stage-core vector as the lane, run stage-major, emissions
/// handed to the caller's sink.
///
/// **One core, two callers.** The fan driver ([`spawn_fused_fan`]) owns
/// the core of a fan that is a component of its own, and its sink fills
/// the component's out-buffer; a fan inside another fan's lane is a
/// [`StageCore::Fan`], and its sink is the enclosing lane's next stage
/// — so a star of splits is one depth-synchronous walk in one
/// component, however deep the nest. The record is handed over itself
/// (a router forwards it, it does not copy it), and
/// [`DispatchCore::process`] returns the stage-message units spent, a
/// nested fan's included, so the work of every level counts toward the
/// one driver's publish-and-yield budget. Each core owns its
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
    /// `sink` in output order. Returns the stage-message units spent
    /// (the driver's budgeting currency).
    fn process(&mut self, ctx: &Ctx, rec: Record, sink: &mut dyn FnMut(Record)) -> usize {
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
                let mut units = 0;
                frontier.clear();
                frontier.push(rec);
                let mut depth = 0;
                while !frontier.is_empty() {
                    // Guard `depth`: exits leave for the output, the
                    // rest enter replica `depth`.
                    batch.clear();
                    for r in frontier.drain(..) {
                        units += 1;
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
                    units += run_stages(&mut lanes[depth], ctx, batch, scratch);
                    std::mem::swap(frontier, batch);
                    depth += 1;
                }
                return units;
            }
        };
        batch.clear();
        batch.push(rec);
        let units = run_stages(cores, ctx, batch, scratch);
        batch.drain(..).for_each(sink);
        units
    }

    /// [`DispatchCore::process`] as a lane stage. Out of line on
    /// purpose: inlined into [`StageCore::process_uncounted`] it costs
    /// the box and filter arms of every lane walk their tight loop
    /// (`fifo-sensor-det`, whose plan holds no nested fan, read +3 % on
    /// its p50 that way).
    #[inline(never)]
    fn process_nested(&mut self, ctx: &Ctx, rec: Record, sink: &mut dyn FnMut(Record)) -> u64 {
        self.process(ctx, rec, sink) as u64
    }
}

/// Spawns a `fused` fan combinator at `comb` as a single component:
/// dispatch, every lane's stages — fans nested in them included — and
/// the merge handoff run in one record loop (see [`DispatchCore`] for
/// the ordering argument and [`crate::plan`], *fan fusion*, for
/// legality). Only the component count differs from the combinator's
/// own dispatcher.
pub fn spawn_fused_fan(
    ctx: &Arc<Ctx>,
    comb: CompPath,
    kind: &FanKind,
    input: Receiver,
) -> Receiver {
    let mut core = DispatchCore::new(ctx, comb, kind);
    let (tx, rx) = ctx.data_stream(comb, Edge::Merge);
    let ctx2 = Arc::clone(ctx);
    ctx.spawn(format!("{comb}/dispatch"), async move {
        let mut out: Vec<Msg> = Vec::new();
        let mut pending: VecDeque<Msg> = VecDeque::new();
        let mut units = 0usize;
        // The chain driver's shape (module docs: fairness): one drain
        // per wake, then records run through their lanes with a publish
        // and a yield every RECV_BATCH stage-message units.
        loop {
            let n = input
                .recv_each(RECV_BATCH, &mut |msg| pending.push_back(msg))
                .await;
            while let Some(msg) = pending.pop_front() {
                match msg {
                    Msg::Rec(rec) => {
                        units += core.process(&ctx2, rec, &mut |r| out.push(Msg::Rec(r)));
                    }
                    // Outer-scope sorts forward at their stream
                    // position — everything caused by earlier input
                    // is already in the out-buffer ahead of them.
                    sort @ Msg::Sort { .. } => out.push(sort),
                }
                if units >= RECV_BATCH {
                    units = 0;
                    if feed_batch(&tx, &mut out).await.is_err() {
                        return; // downstream gone: teardown
                    }
                    yield_now().await;
                }
            }
            if feed_batch(&tx, &mut out).await.is_err() {
                return;
            }
            if n == 0 {
                break;
            }
        }
        // EOS: dropping `tx` propagates end-of-stream.
    });
    rx
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
        assert!(matches!(&*root, PNode::Fused { .. }), "{root:?}");
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
        // all the intermediates — far beyond one step's RECV_BATCH
        // budget, so the run crosses many step/yield boundaries (and,
        // under the pool CI legs, many worker polls). Order must be
        // the exact composition order regardless.
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
