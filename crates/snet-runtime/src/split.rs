//! Indexed parallel replication `A !! <tag>` and `A ! <tag>`.
//!
//! "The parallel replicator ... replicates network A infinitely far,
//! but this time the replicas are connected in parallel. ... All
//! incoming records must have the tag specified and the value of this
//! tag decides to which replica a record is sent. ... While the actual
//! number of replicas is adjusted by the runtime system on demand, it
//! is guaranteed that any two records whose replication tags have the
//! same (integer) value are sent to the same replica" (paper,
//! Section 4).
//!
//! Replicas are created lazily, one per distinct tag value observed —
//! this is what makes the Figure 3 throttle work: after
//! `[{<k>} -> {<k>=<k>%4}]` only four distinct values reach the
//! replicator, so at most four replicas unfold per stage.
//!
//! # Bounded lane namespace (opt-in)
//!
//! Branch paths embed the routing tag *value* (`.../branch{v}`), so a
//! service splitting on an unbounded tag domain (e.g. a session id)
//! grows the process-wide path interner without reclaim — the known
//! growth mode the `runtime/interner_paths` gauge observes. The
//! `NetBuilder::split_lanes(n)` knob caps it: tag values are hashed
//! into `n` lanes (`.../lane{i}`), so at most `n` replicas — and at
//! most `n` interned branch paths — exist per replicator, no matter
//! how many distinct values flow. The bound resolves **per
//! replicator**: `NetBuilder::split_lanes_for(tag, n)` binds a lane
//! count to one routing-tag name, winning over the net-global knob,
//! so a net can cap its session-id splitter without collapsing a
//! small fixed-domain splitter elsewhere
//! ([`crate::RunCfg::split_lanes_by_tag`]). The paper's guarantee is
//! preserved
//! (equal tag values still always reach the same replica; hashing is
//! deterministic); what is given up is isolation *between* distinct
//! values that collide into one lane, which is exactly the trade the
//! Figure 3 modulo filter makes explicitly. Deterministic variants
//! are unaffected in output order: sort records re-establish input
//! order regardless of lane assignment.
//!
//! The per-record tag lookup itself is shape-keyed (PR 4): the tag's
//! value slot is resolved once per record shape and then read by
//! index, with no per-record label search.
//!
//! # One router, one dispatcher loop
//!
//! [`SplitRouter`] is the single owner of what the combinator counts
//! (`records_in`, `branches`), observes and calls its lanes
//! (`branch{v}` / `lane{i}`), generic over what a lane *is*: the
//! dispatcher below instantiates it with a replica's input `Sender`,
//! the fused fan driver ([`crate::fused`]) with the lane's stage
//! cores. There is one dispatcher loop, credit-gated; an unbounded
//! edge grants at once.

use crate::ctx::{Ctx, Edge};
use crate::instantiate::instantiate;
use crate::merge::{spawn_merge, BranchSpec, MergeMode, Watermark};
use crate::metrics::{keys, Counter};
use crate::path::CompPath;
use crate::plan::PNode;
use crate::stream::{chan, stream, Dir, Msg, Receiver, Sender};
use snet_types::{Label, Record};
use std::collections::HashMap;
use std::sync::Arc;

/// Hashes a routing-tag value into one of `n` lanes (deterministic
/// across runs and processes: a fixed splitmix64 finalizer, so lane
/// assignment — and therefore replica reuse — is reproducible).
pub fn lane_of(v: i64, n: u32) -> i64 {
    let mut z = (v as u64).wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    (z % u64::from(n.max(1))) as i64
}

/// The indexed replicator's router (see module docs): a shape-cached
/// routing-tag slot read plus the optional lane hash, the lane map
/// that unfolds on demand, and the combinator's counters. Equal tag
/// values always map to equal keys, so replica affinity — and the
/// branch path namespace — is identical however the replicator
/// executes.
pub(crate) struct SplitRouter<L> {
    tag: Label,
    lane_bound: Option<u32>,
    /// Routing-tag slot per record shape: resolved once per shape,
    /// then a direct value-array read (streams are overwhelmingly
    /// shape-monomorphic, so a one-entry cache suffices; a shape
    /// change just re-resolves).
    tag_slot: Option<(u32, Option<usize>)>,
    lanes: HashMap<i64, L>,
    records_in: Counter,
    branches: Counter,
}

impl<L> SplitRouter<L> {
    /// Registers the combinator's counters at `comb`.
    pub(crate) fn new(ctx: &Ctx, comb: CompPath, tag: Label) -> SplitRouter<L> {
        let cfg = ctx.cfg();
        SplitRouter {
            tag,
            // A per-tag binding wins over the net-global bound.
            lane_bound: (cfg.split_lanes_by_tag.get(tag.name()).copied()).or(cfg.split_lanes),
            tag_slot: None,
            lanes: HashMap::new(),
            records_in: ctx.metrics.handle_at(comb, keys::RECORDS_IN),
            branches: ctx.metrics.handle_at(comb, keys::BRANCHES),
        }
    }

    /// The branch key for a record: the raw tag value, or its lane
    /// hash under a bounded lane namespace. Panics (a routing error)
    /// on a record without the tag.
    fn key(&mut self, rec: &Record, comb: CompPath) -> i64 {
        let sid = rec.shape().id();
        let slot = match self.tag_slot {
            Some((cached, slot)) if cached == sid => slot,
            _ => {
                let slot = rec.shape().tag_index(self.tag);
                self.tag_slot = Some((sid, slot));
                slot
            }
        };
        let tag = self.tag;
        let v = slot.map(|i| rec.tag_value_at(i)).unwrap_or_else(|| {
            panic!(
                "record {rec:?} reached parallel replicator at '{comb}' without \
                 routing tag {tag}"
            )
        });
        match self.lane_bound {
            Some(n) => lane_of(v, n),
            None => v,
        }
    }

    /// One record's dispatch: observe, count, classify — and, on the
    /// first record of a branch key, unfold its lane through `open`,
    /// which is handed the lane's path (built once per unfolded
    /// replica, never per record).
    #[inline]
    pub(crate) fn lane(
        &mut self,
        ctx: &Ctx,
        comb: CompPath,
        rec: &Record,
        open: impl FnOnce(CompPath) -> L,
    ) -> &mut L {
        if ctx.has_observers() {
            ctx.observe(comb, Dir::In, rec);
        }
        self.records_in.inc(1);
        let key = self.key(rec, comb);
        self.lanes.entry(key).or_insert_with(|| {
            self.branches.inc(1);
            open(comb.child(&match self.lane_bound {
                Some(_) => format!("lane{key}"),
                None => format!("branch{key}"),
            }))
        })
    }

    /// Every lane unfolded so far.
    pub(crate) fn lanes(&self) -> impl Iterator<Item = &L> {
        self.lanes.values()
    }
}

/// Spawns an indexed parallel replicator at `comb`; returns its
/// output stream.
pub fn spawn_split(
    ctx: &Arc<Ctx>,
    comb: CompPath,
    inner: &Arc<PNode>,
    tag: Label,
    det: bool,
    level: u32,
    input: Receiver,
) -> Receiver {
    let (ctl_tx, ctl_rx) = chan::channel::<BranchSpec>();
    let (out_tx, out_rx) = ctx.data_stream(comb, Edge::Merge);
    let mode = if det {
        MergeMode::Det { level }
    } else {
        MergeMode::NonDet
    };
    // The "spine": a permanent pseudo-branch carrying every sort record
    // straight from the dispatcher to the merger. Without it, sorts
    // broadcast while no replica exists yet would vanish, deadlocking
    // any enclosing deterministic scope waiting on the barrier.
    let (spine_tx, spine_rx) = stream();
    spawn_merge(
        ctx,
        comb,
        mode,
        vec![BranchSpec::new(spine_rx)],
        ctl_rx,
        out_tx,
    );

    // Dispatcher: the router's counters are registered once at spawn;
    // the record loop's only per-record work is a shape-keyed tag-slot
    // read and a lane-map hit. Path/metric strings are only built on
    // the demand-driven replica unfolding path (once per distinct tag
    // value, or per lane when the lane namespace is bounded).
    let ctx2 = Arc::clone(ctx);
    let inner = Arc::clone(inner);
    let mut router: SplitRouter<Sender> = SplitRouter::new(ctx, comb, tag);
    ctx.spawn(format!("{comb}/dispatch"), async move {
        // Sorts broadcast so far, per level: the watermark handed to
        // replicas created later (they will never see earlier sorts).
        let mut watermark = Watermark::new();
        let mut counter: u64 = 0;
        // Sort broadcasts take the ungated `send` path: a det round
        // boundary must reach *every* replica — including the ones the
        // merger is not currently draining — without waiting.
        let broadcast = |router: &SplitRouter<Sender>, level: u32, counter: u64| {
            let sort = Msg::Sort { level, counter };
            for tx in router.lanes() {
                let _ = tx.send(sort.clone());
            }
            let _ = spine_tx.send(sort);
        };
        while let Ok(msg) = input.recv_async().await {
            match msg {
                Msg::Rec(rec) => {
                    let lane = router.lane(&ctx2, comb, &rec, |bpath| {
                        // Demand-driven unfolding of a fresh replica.
                        let (btx, brx) = ctx2.data_stream(bpath, Edge::Dispatch);
                        let replica_out = instantiate(&ctx2, &inner, bpath, brx);
                        // Register the tap before any subsequent sort
                        // broadcast so the merger can account for it.
                        let _ = ctl_tx.send(BranchSpec {
                            rx: replica_out,
                            watermark: watermark.clone(),
                        });
                        btx
                    });
                    // A full replica edge parks the dispatcher here —
                    // and transitively everything upstream — instead
                    // of growing the replica's queue.
                    let _ = lane.feed(Msg::Rec(rec)).await;
                    if det {
                        broadcast(&router, level, counter);
                        watermark.insert(level, counter + 1);
                        counter += 1;
                    }
                }
                // Outer sorts: broadcast to every live replica (and
                // the spine) and remember for future replicas'
                // watermarks.
                Msg::Sort {
                    level: l,
                    counter: c,
                } => {
                    broadcast(&router, l, c);
                    watermark.insert(l, c + 1);
                }
            }
        }
        // EOS: branch senders and the control sender drop here.
    });

    out_rx
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instantiate::{run_to_end, test_ctx};
    use crate::plan::{compile_cfg, Bindings, Plan};
    use snet_lang::{parse_net_expr, parse_program};
    use snet_types::Record;

    /// `mark ! <k>` / `mark !! <k>` over `mark (x) -> (x, y)`, an
    /// identity that copies `x` into `y`. `fuse` is the fusion pass:
    /// on, the plan runs on the fan driver; off, on this file's
    /// dispatcher — every test runs both.
    fn mark_plan(det: bool, fuse: bool) -> Plan {
        mark_expr_plan(if det { "mark ! <k>" } else { "mark !! <k>" }, fuse)
    }

    /// Any expression over `mark`.
    fn mark_expr_plan(src: &str, fuse: bool) -> Plan {
        let env = parse_program("box mark (x) -> (x, y);")
            .unwrap()
            .env()
            .unwrap();
        let b = Bindings::new().bind("mark", |r, e| {
            let x = r.field("x").unwrap().as_int().unwrap();
            e.emit(Record::build().field("x", x).field("y", x).finish());
        });
        compile_cfg(&parse_net_expr(src).unwrap(), &env, &b, fuse).unwrap()
    }

    /// Runs `{x = i, <k> = k(i)}` for `i in 0..n` through the plan;
    /// returns the context and the output records' `x` and `<k>`.
    fn run(
        plan: &Plan,
        observers: Vec<crate::stream::Observer>,
        n: i64,
        k: impl Fn(i64) -> i64,
    ) -> (Arc<Ctx>, Vec<(i64, i64)>) {
        let ctx = test_ctx(observers);
        let inputs = (0..n).map(|i| Record::build().field("x", i).tag("k", k(i)).finish());
        let out = run_to_end(&ctx, &plan.root, inputs)
            .iter()
            .map(|r| (r.field("x").unwrap().as_int().unwrap(), r.tag("k").unwrap()))
            .collect();
        (ctx, out)
    }

    #[test]
    fn same_tag_value_same_replica() {
        for fuse in [true, false] {
            // Replica identity is the interned branch *path* (observed
            // at the box boundary) — not the OS thread, which is an
            // executor detail: under a work-stealing pool one replica's
            // task migrates between workers.
            let seen: Arc<parking_lot::Mutex<Vec<(i64, String)>>> = Arc::default();
            let seen2 = Arc::clone(&seen);
            let obs: crate::stream::Observer = Arc::new(move |path, dir, rec| {
                if dir == Dir::In && path.contains("box:mark") {
                    seen2.lock().push((rec.tag("k").unwrap(), path.to_string()));
                }
            });
            let (ctx, out) = run(&mark_plan(false, fuse), vec![obs], 30, |i| i % 3);
            assert_eq!(out.len(), 30);
            // Exactly three replicas were created.
            assert_eq!(ctx.metrics.sum_matching(keys::BRANCHES), 3);
            // All records with the same k entered the same replica path,
            // and distinct ks used distinct replicas.
            let mut by_k: HashMap<i64, std::collections::BTreeSet<String>> = HashMap::new();
            for (k, path) in seen.lock().iter() {
                by_k.entry(*k).or_default().insert(path.clone());
            }
            assert_eq!(by_k.len(), 3);
            let mut all_paths = std::collections::BTreeSet::new();
            for (k, paths) in by_k {
                assert_eq!(paths.len(), 1, "tag value {k} used multiple replicas");
                all_paths.extend(paths);
            }
            assert_eq!(all_paths.len(), 3, "replicas were shared across tags");
        }
    }

    #[test]
    fn replicas_unfold_on_demand_only() {
        for fuse in [true, false] {
            // A single tag value: exactly one replica, no matter how
            // many records.
            let (ctx, out) = run(&mark_plan(false, fuse), Vec::new(), 10, |_| 42);
            assert_eq!(out.len(), 10);
            assert_eq!(ctx.metrics.sum_matching(keys::BRANCHES), 1);
        }
    }

    #[test]
    fn routing_tag_flow_inherits_through_replica() {
        for fuse in [true, false] {
            // The tag is not consumed by the inner box (not in its
            // input type), so it must reappear on outputs via flow
            // inheritance.
            let (_, out) = run(&mark_plan(false, fuse), Vec::new(), 1, |_| 7);
            assert_eq!(out, vec![(0, 7)]);
        }
    }

    #[test]
    fn missing_tag_panics() {
        // On its own and as a lane stage of a star, on both drivers.
        for (src, at) in [
            ("mark !! <k>", "net/splitnd"),
            ("(mark !! <k>) ** {y}", "net/starnd/stage0/splitnd"),
        ] {
            for fuse in [true, false] {
                let plan = mark_expr_plan(src, fuse);
                let ctx = test_ctx(Vec::new());
                let untagged = Record::build().field("x", 1i64).finish();
                let died = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    run_to_end(&ctx, &plan.root, [untagged])
                }))
                .unwrap_err();
                let msg = died.downcast_ref::<String>().expect("a formatted panic");
                let text = format!("at '{at}' without routing tag <k>");
                assert!(msg.contains(&text), "{msg}");
            }
        }
    }

    #[test]
    fn det_split_preserves_input_order() {
        for fuse in [true, false] {
            let (ctx, out) = run(&mark_plan(true, fuse), Vec::new(), 50, |i| i % 5);
            let xs: Vec<i64> = out.iter().map(|(x, _)| *x).collect();
            assert_eq!(xs, (0..50).collect::<Vec<_>>());
            assert_eq!(ctx.metrics.sum_matching(keys::BRANCHES), 5);
        }
    }

    #[test]
    fn negative_tag_values_route_correctly() {
        for fuse in [true, false] {
            // Tag values are arbitrary integers; negative lanes must
            // work.
            let (ctx, out) = run(&mark_plan(false, fuse), Vec::new(), 12, |i| -(i % 3) - 1);
            assert_eq!(out.len(), 12);
            assert_eq!(ctx.metrics.sum_matching(keys::BRANCHES), 3);
        }
    }

    #[test]
    fn det_split_with_zero_records_terminates() {
        for fuse in [true, false] {
            // EOS before any record: the spine lets the merger
            // terminate cleanly with zero replicas.
            let (ctx, out) = run(&mark_plan(true, fuse), Vec::new(), 0, |_| 0);
            assert!(out.is_empty());
            assert_eq!(ctx.metrics.sum_matching(keys::BRANCHES), 0);
        }
    }

    #[test]
    fn det_split_single_lane_is_fifo() {
        for fuse in [true, false] {
            let (_, out) = run(&mark_plan(true, fuse), Vec::new(), 100, |_| 0);
            let xs: Vec<i64> = out.iter().map(|(x, _)| *x).collect();
            assert_eq!(xs, (0..100).collect::<Vec<_>>());
        }
    }

    #[test]
    fn nondet_split_preserves_per_replica_order() {
        for fuse in [true, false] {
            let (_, out) = run(&mark_plan(false, fuse), Vec::new(), 60, |i| i % 2);
            for kv in 0..2 {
                let xs: Vec<i64> = out.iter().filter(|o| o.1 == kv).map(|o| o.0).collect();
                assert_eq!(xs.len(), 30);
                assert!(xs.is_sorted(), "per-replica order violated for k={kv}");
            }
        }
    }
}
