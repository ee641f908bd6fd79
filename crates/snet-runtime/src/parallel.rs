//! Parallel composition `A || B` and `A | B`.
//!
//! "Parallel combination constructs a network where all incoming
//! records are either sent to A or to B and the resulting record
//! streams are merged to form the overall output stream. ... Any
//! incoming record is directed towards the subnetwork whose input type
//! better matches the type of the record itself. If both branches
//! match equally well, one is selected non-deterministically" (paper,
//! Section 4).
//!
//! # Memoized routing
//!
//! The routing decision depends only on the *type* of a record — the
//! set of labels it carries — and the label universe of a coordination
//! program is fixed (see `snet_types::label`). The dispatcher
//! therefore resolves `match_score` subset tests once per distinct
//! record type and caches the outcome in a [`RouteCache`]: subsequent
//! records of a seen type cost one shape-id map hit (shapes are
//! interned label sets, so the id *is* the type — no hashing of label
//! sequences, no element-wise verification), with no allocation.
//! Equal-match types are cached as [`RouteClass::Tie`]
//! — the cache stores the *class*, never a fixed branch, so the
//! non-deterministic choice the paper requires stays an explicit
//! round-robin over time (see [`RouteCache::decide`]).
//!
//! # One router, one dispatcher loop
//!
//! [`ParRouter`] is the single owner of what the combinator counts
//! (`records_in`, `routed_left`, `routed_right`), observes and calls
//! its lanes (`L`, `R`), generic over what a lane *is*: the dispatcher
//! below instantiates it with a branch's input `Sender`, the fused fan
//! driver ([`crate::fused`]) with the branch's stage cores. There is
//! one dispatcher loop, credit-gated; an unbounded edge grants at
//! once.

use crate::ctx::Ctx;
use crate::instantiate::instantiate;
use crate::memo::TypeMemo;
use crate::merge::{spawn_merge, BranchSpec, MergeMode};
use crate::metrics::{keys, Counter};
use crate::path::{name, CompPath};
use crate::plan::PNode;
use crate::stream::{chan, Dir, Msg, Receiver, Sender};
use snet_types::{NetSig, Record};
use std::sync::Arc;

/// How records of one type route through a two-branch dispatcher.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RouteClass {
    /// Only, or better, matched by the left branch.
    Left,
    /// Only, or better, matched by the right branch.
    Right,
    /// Both branches match equally well: the paper's non-deterministic
    /// case. Never pinned — resolved per record by round-robin.
    Tie,
    /// Matched by neither branch (a routing error the dispatcher
    /// reports; cached so repeated offenders stay cheap to reject).
    Unroutable,
}

/// Memoized best-match routing for a parallel composition, built on
/// the generic [`TypeMemo`] (see [`crate::memo`]): the first record of
/// each type pays one `record_type()` allocation and two
/// `match_score` subset tests; every later record of that type is an
/// O(1) shape-id lookup with zero allocation.
pub struct RouteCache {
    lsig: NetSig,
    rsig: NetSig,
    memo: TypeMemo<RouteClass>,
    /// Round-robin state for [`RouteClass::Tie`]: flipped on every tie
    /// decision, so equal-match records alternate branches
    /// deterministically over time — the documented rendering of the
    /// paper's "selected non-deterministically". Alternation (rather
    /// than e.g. random choice) also guarantees both branches make
    /// progress under a pure tie workload.
    flip: bool,
}

impl RouteCache {
    pub fn new(lsig: NetSig, rsig: NetSig) -> RouteCache {
        RouteCache {
            lsig,
            rsig,
            memo: TypeMemo::new(),
            flip: false,
        }
    }

    /// The route class for a record's type, from cache or computed.
    pub fn classify(&mut self, rec: &Record) -> RouteClass {
        let RouteCache {
            lsig, rsig, memo, ..
        } = self;
        memo.get_or_insert_with(rec, |rt| {
            // First record of this type: run the real subset tests.
            match (lsig.match_score(rt), rsig.match_score(rt)) {
                (Some(a), Some(b)) if a == b => RouteClass::Tie,
                (Some(a), Some(b)) => {
                    if a > b {
                        RouteClass::Left
                    } else {
                        RouteClass::Right
                    }
                }
                (Some(_), None) => RouteClass::Left,
                (None, Some(_)) => RouteClass::Right,
                (None, None) => RouteClass::Unroutable,
            }
        })
    }

    /// Routes one record: `Some(true)` = left, `Some(false)` = right,
    /// `None` = unroutable. Ties alternate round-robin.
    pub fn decide(&mut self, rec: &Record) -> Option<bool> {
        match self.classify(rec) {
            RouteClass::Left => Some(true),
            RouteClass::Right => Some(false),
            RouteClass::Tie => {
                self.flip = !self.flip;
                Some(self.flip)
            }
            RouteClass::Unroutable => None,
        }
    }

    /// The branch signatures (used in the dispatcher's panic message).
    pub fn sigs(&self) -> (&NetSig, &NetSig) {
        (&self.lsig, &self.rsig)
    }

    /// Number of distinct record types cached.
    pub fn len(&self) -> usize {
        self.memo.len()
    }

    pub fn is_empty(&self) -> bool {
        self.memo.is_empty()
    }
}

/// The parallel composition's router (see module docs): the route
/// cache, both lanes and the combinator's counters.
pub(crate) struct ParRouter<L> {
    routes: RouteCache,
    pub(crate) left: L,
    pub(crate) right: L,
    records_in: Counter,
    routed_left: Counter,
    routed_right: Counter,
}

impl<L> ParRouter<L> {
    /// Registers the combinator's counters at `comb` and opens both
    /// lanes up front (parallel composition instantiates eagerly):
    /// `open` is handed each lane's path and branch plan.
    pub(crate) fn new(
        ctx: &Ctx,
        comb: CompPath,
        (left, left_sig): (&Arc<PNode>, &NetSig),
        (right, right_sig): (&Arc<PNode>, &NetSig),
        mut open: impl FnMut(CompPath, &Arc<PNode>) -> L,
    ) -> ParRouter<L> {
        let [records_in, routed_left, routed_right] = ctx.metrics.counters_at(
            comb,
            [
                name!(keys::RECORDS_IN),
                name!("routed_left"),
                name!("routed_right"),
            ],
        );
        ParRouter {
            routes: RouteCache::new(left_sig.clone(), right_sig.clone()),
            left: open(comb.child_at(name!("L")), left),
            right: open(comb.child_at(name!("R")), right),
            records_in,
            routed_left,
            routed_right,
        }
    }

    /// One record's dispatch: observe, count, classify. An unroutable
    /// record is a routing error and panics.
    #[inline]
    pub(crate) fn lane(&mut self, ctx: &Ctx, comb: CompPath, rec: &Record) -> &mut L {
        if ctx.has_observers() {
            ctx.observe(comb, Dir::In, rec);
        }
        self.records_in.inc(1);
        let go_left = self.routes.decide(rec).unwrap_or_else(|| {
            let (lsig, rsig) = self.routes.sigs();
            panic!(
                "record {rec:?} matches neither branch of parallel composition \
                 at '{comb}' (left {}, right {})",
                lsig.input_type(),
                rsig.input_type()
            )
        });
        if go_left {
            self.routed_left.inc(1);
            &mut self.left
        } else {
            self.routed_right.inc(1);
            &mut self.right
        }
    }
}

/// Spawns a parallel composition at `comb`; returns its output stream.
#[allow(clippy::too_many_arguments)]
pub fn spawn_parallel(
    ctx: &Arc<Ctx>,
    comb: CompPath,
    left: &Arc<PNode>,
    right: &Arc<PNode>,
    left_sig: &NetSig,
    right_sig: &NetSig,
    det: bool,
    level: u32,
    input: Receiver,
) -> Receiver {
    // Dispatcher state. Counters and the route cache are resolved at
    // spawn time; the record loop performs no allocation for
    // bookkeeping and no repeated subset tests for previously-seen
    // record types.
    let mut outs = Vec::new();
    let mut router: ParRouter<Sender> = ParRouter::new(
        ctx,
        comb,
        (left, left_sig),
        (right, right_sig),
        |p, body| {
            let (tx, rx) = ctx.data_stream(p);
            outs.push(BranchSpec::new(instantiate(ctx, body, p, rx)));
            tx
        },
    );

    // Static two-branch merge: the control channel is closed
    // immediately.
    let (ctl_tx, ctl_rx) = chan::channel::<BranchSpec>();
    drop(ctl_tx);
    let (out_tx, out_rx) = ctx.data_stream(comb);
    let mode = if det {
        MergeMode::Det { level }
    } else {
        MergeMode::NonDet
    };
    spawn_merge(ctx, comb, mode, outs, ctl_rx, out_tx);

    let ctx2 = Arc::clone(ctx);
    ctx.spawn(format!("{comb}/dispatch"), async move {
        let mut counter: u64 = 0;
        // Sort broadcasts take the ungated `send` path: a det round
        // boundary must reach *both* branches, including the one the
        // merger is not currently draining, without waiting.
        let broadcast = |router: &ParRouter<Sender>, sort: Msg| {
            let _ = router.left.send(sort.clone());
            let _ = router.right.send(sort);
        };
        while let Ok(msg) = input.recv_async().await {
            match msg {
                Msg::Rec(rec) => {
                    // A full branch edge parks the dispatcher — and
                    // transitively everything upstream.
                    let lane = router.lane(&ctx2, comb, &rec);
                    let _ = lane.feed(Msg::Rec(rec)).await;
                    if det {
                        broadcast(&router, Msg::Sort { level, counter });
                        counter += 1;
                    }
                }
                // Outer sorts are broadcast to both branches.
                sort @ Msg::Sort { .. } => broadcast(&router, sort),
            }
        }
        // EOS: dropping both senders propagates.
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

    /// `expr` over two boxes whose input types are `lin` and `rin`;
    /// `left` emits `{l = 1}`, `right` emits `{r = 1}`, and the value
    /// of the first field named is carried along as `{v}`. `fuse` is the
    /// compile flag: on, the plan runs as a fused fan stage; off, on this
    /// file's dispatcher — every test runs both.
    fn plan_lr(lin: &str, rin: &str, expr: &str, fuse: bool) -> Plan {
        let src = format!("box left ({lin}) -> (l, v);\nbox right ({rin}) -> (r, v);");
        let env = parse_program(&src).unwrap().env().unwrap();
        let emit = |side: &'static str, input: &str| {
            let key = input.split(',').next().unwrap().to_string();
            move |r: &Record, e: &mut crate::boxfn::Emitter| {
                let v = r.field(&key).unwrap().as_int().unwrap();
                e.emit(Record::build().field(side, 1i64).field("v", v).finish())
            }
        };
        let b = Bindings::new()
            .bind("left", emit("l", lin))
            .bind("right", emit("r", rin));
        compile_cfg(&parse_net_expr(expr).unwrap(), &env, &b, fuse).unwrap()
    }

    fn int(field: &str, v: i64) -> Record {
        Record::build().field(field, v).finish()
    }

    /// Which side each output came from, with the value it carried.
    fn sides(recs: &[Record]) -> Vec<(&'static str, i64)> {
        recs.iter()
            .map(|r| {
                let side = if r.field("l").is_some() { "l" } else { "r" };
                (side, r.field("v").unwrap().as_int().unwrap())
            })
            .collect()
    }

    #[test]
    fn routes_by_input_type() {
        for fuse in [true, false] {
            let plan = plan_lr("a", "b", "left || right", fuse);
            let ctx = test_ctx(Vec::new());
            let mut got = sides(&run_to_end(&ctx, &plan.root, [int("a", 1), int("b", 2)]));
            got.sort();
            assert_eq!(got, vec![("l", 1), ("r", 2)]);
            assert_eq!(ctx.metrics.sum_matching("routed_left"), 1);
            assert_eq!(ctx.metrics.sum_matching("routed_right"), 1);
        }
    }

    #[test]
    fn best_match_prefers_more_specific_branch() {
        for fuse in [true, false] {
            // Branch L takes {x}, branch R takes {x,y}: a record {x,y,z}
            // must go right (better match), {x} must go left.
            let plan = plan_lr("x", "x, y", "left || right", fuse);
            let rich = Record::build()
                .field("x", 1i64)
                .field("y", 2i64)
                .field("z", 3i64)
                .finish();
            let mut got = sides(&run_to_end(
                &test_ctx(Vec::new()),
                &plan.root,
                [rich, int("x", 4)],
            ));
            got.sort();
            assert_eq!(got, vec![("l", 4), ("r", 1)]);
        }
    }

    #[test]
    fn equal_match_reaches_both_branches() {
        for fuse in [true, false] {
            // Identical input types: the non-deterministic choice must
            // be observably non-deterministic (both branches used across
            // many records) — paper Section 4.
            let plan = plan_lr("x", "x", "left || right", fuse);
            let ctx = test_ctx(Vec::new());
            let recs = run_to_end(&ctx, &plan.root, (0..20).map(|i| int("x", i)));
            assert_eq!(recs.len(), 20);
            assert!(ctx.metrics.sum_matching("routed_left") > 0);
            assert!(ctx.metrics.sum_matching("routed_right") > 0);
        }
    }

    #[test]
    fn det_parallel_preserves_input_order() {
        for fuse in [true, false] {
            // Alternate branches; output must interleave in input order
            // even though branches run at different speeds.
            let plan = plan_lr("a", "b", "left | right", fuse);
            let inputs = (0..30).map(|i| int(if i % 2 == 0 { "a" } else { "b" }, i));
            let got = sides(&run_to_end(&test_ctx(Vec::new()), &plan.root, inputs));
            let want: Vec<(&str, i64)> = (0..30)
                .map(|i| (if i % 2 == 0 { "l" } else { "r" }, i))
                .collect();
            assert_eq!(got, want);
        }
    }

    #[test]
    fn route_cache_memoizes_and_never_pins_ties() {
        let lsig = NetSig::simple(
            snet_types::RecordType::of(&["a"], &[]),
            vec![snet_types::RecordType::of(&["ra"], &[])],
        );
        let rsig = NetSig::simple(
            snet_types::RecordType::of(&["a"], &[]),
            vec![snet_types::RecordType::of(&["rb"], &[])],
        );
        let mut cache = RouteCache::new(lsig, rsig);
        let rec = Record::build().field("a", 1i64).finish();
        assert_eq!(cache.classify(&rec), RouteClass::Tie);
        assert_eq!(cache.len(), 1);
        // Ties alternate strictly — the cached class never pins a
        // branch.
        let mut lefts = 0;
        let mut rights = 0;
        for _ in 0..10 {
            match cache.decide(&rec) {
                Some(true) => lefts += 1,
                Some(false) => rights += 1,
                None => panic!("tie record became unroutable"),
            }
        }
        assert_eq!((lefts, rights), (5, 5));
        // Still a single cached type after repeated decisions.
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn route_cache_distinguishes_types_and_kinds() {
        // Field `k` and tag `<k>` share an interner id; the cache must
        // not conflate them.
        let lsig = NetSig::simple(
            snet_types::RecordType::of(&["k"], &[]),
            vec![snet_types::RecordType::of(&["x"], &[])],
        );
        let rsig = NetSig::simple(
            snet_types::RecordType::of(&[], &["k"]),
            vec![snet_types::RecordType::of(&["y"], &[])],
        );
        let mut cache = RouteCache::new(lsig, rsig);
        let field_rec = Record::build().field("k", 1i64).finish();
        let tag_rec = Record::build().tag("k", 1).finish();
        assert_eq!(cache.decide(&field_rec), Some(true));
        assert_eq!(cache.decide(&tag_rec), Some(false));
        assert_eq!(cache.len(), 2);
        // Unroutable types are classified (and cached) as such.
        let bad = Record::build().field("zzz", 1i64).finish();
        assert_eq!(cache.decide(&bad), None);
        assert_eq!(cache.classify(&bad), RouteClass::Unroutable);
    }

    #[test]
    fn route_cache_agrees_with_direct_match_score() {
        // Best-match preference: {x} vs {x,y} for a record {x,y,z}.
        let loose = NetSig::simple(
            snet_types::RecordType::of(&["x"], &[]),
            vec![snet_types::RecordType::of(&["o"], &[])],
        );
        let tight = NetSig::simple(
            snet_types::RecordType::of(&["x", "y"], &[]),
            vec![snet_types::RecordType::of(&["o"], &[])],
        );
        let mut cache = RouteCache::new(loose, tight);
        let rich = Record::build()
            .field("x", 1i64)
            .field("y", 2i64)
            .field("z", 3i64)
            .finish();
        let plain = Record::build().field("x", 1i64).finish();
        assert_eq!(cache.decide(&rich), Some(false)); // tighter wins
        assert_eq!(cache.decide(&plain), Some(true)); // only loose matches
                                                      // Repeat from cache: same answers.
        assert_eq!(cache.decide(&rich), Some(false));
        assert_eq!(cache.decide(&plain), Some(true));
    }

    #[test]
    fn unroutable_record_panics() {
        // On its own and as a lane stage of a star, on both drivers.
        for (expr, at) in [
            ("left || right", "net/parnd"),
            ("(left || right) ** {v}", "net/starnd/stage0/parnd"),
        ] {
            for fuse in [true, false] {
                let plan = plan_lr("a", "b", expr, fuse);
                let ctx = test_ctx(Vec::new());
                let died = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    run_to_end(&ctx, &plan.root, [int("zzz", 1)])
                }))
                .unwrap_err();
                let msg = died.downcast_ref::<String>().expect("a formatted panic");
                let text = format!("matches neither branch of parallel composition at '{at}'");
                assert!(msg.contains(&text), "{msg}");
            }
        }
    }
}
