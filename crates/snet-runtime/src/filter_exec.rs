//! Filter execution: wraps the pure [`FilterDef::apply`] semantics of
//! `snet-lang` in a stage core. Filters are the "housekeeping"
//! boxes of the coordination layer — renaming, duplication, elimination
//! and tag arithmetic — and run exactly like boxes, minus a
//! computational payload: [`FilterCore`] is the per-record half, the
//! stream half is [`crate::fused`]'s stage-run driver.
//!
//! Like boxes, filters resolve their per-record type work through
//! compiled shape plans (see `snet_types::shape`): the pattern's
//! shape is interned once at spawn, the split plan for each incoming
//! record *shape* is resolved once through a spawn-local cache, and
//! both the pattern check (plan exists?) and the flow-inheritance
//! excess (the plan's excess half) fall out of that single lookup —
//! no per-record subset tests, label searches or global-table locks.
//! A field and a tag of the same name stay distinct shapes by
//! construction, so the check cannot conflate them.

use crate::ctx::Ctx;
use crate::memo::PlanCache;
use crate::metrics::{keys, Counter};
use crate::path::CompPath;
use crate::stream::Dir;
use snet_lang::FilterDef;
use snet_types::{Record, Shape};

/// The per-record execution core of one filter instance — everything
/// except the stream loop. Path interning and counter registration
/// happen at construction, once; processing is allocation-free on the
/// bookkeeping side and memoizes the pattern check per record shape.
pub(crate) struct FilterCore {
    def: FilterDef,
    path: CompPath,
    plans: PlanCache,
    /// `ctx.has_observers()`, resolved once (observers are fixed at
    /// context construction).
    observing: bool,
    /// The fault boundary, resolved once; `None` in the default
    /// configuration (see `BoxCore::guard`).
    guard: Option<crate::fault::FaultGuard>,
    records_in: Counter,
    records_out: Counter,
}

impl FilterCore {
    /// Registers the stage under `parent/filter` and resolves its
    /// counters.
    pub(crate) fn new(ctx: &Ctx, parent: CompPath, def: FilterDef) -> FilterCore {
        let path = parent.child("filter");
        ctx.metrics.handle_at(path, keys::SPAWNED).inc(1);
        FilterCore {
            plans: PlanCache::new(Shape::of_type(&def.pattern)),
            observing: ctx.has_observers(),
            guard: ctx.fault_guard(path),
            records_in: ctx.metrics.handle_at(path, keys::RECORDS_IN),
            records_out: ctx.metrics.handle_at(path, keys::RECORDS_OUT),
            def,
            path,
        }
    }

    /// The stage's interned component path.
    pub(crate) fn path(&self) -> CompPath {
        self.path
    }

    /// Settles a run's worth of counter updates in two delta adds
    /// (see `BoxCore::add_counts`).
    pub(crate) fn add_counts(&self, records_in: u64, records_out: u64) {
        self.records_in.inc(records_in);
        self.records_out.inc(records_out);
    }

    /// Runs one record through the filter; every output record is
    /// handed to `sink` in specifier order, and the output count is
    /// returned for [`FilterCore::add_counts`]. Runs under the net's
    /// fault boundary when one is configured — pattern-mismatch and
    /// tag-expression panics (and chaos injections) are contained per
    /// the [`crate::FaultPolicy`].
    pub(crate) fn process_uncounted(
        &mut self,
        ctx: &Ctx,
        rec: &Record,
        sink: &mut dyn FnMut(Record),
    ) -> u64 {
        match self.guard.take() {
            None => self.process_raw(ctx, rec, sink),
            Some(mut g) => {
                let n = g.run(rec, sink, &mut |r, s| self.process_raw(ctx, r, s));
                self.guard = Some(g);
                n
            }
        }
    }

    /// The raw per-record path — no fault boundary.
    fn process_raw(&mut self, ctx: &Ctx, rec: &Record, sink: &mut dyn FnMut(Record)) -> u64 {
        if self.observing {
            ctx.observe(self.path, Dir::In, rec);
        }
        // Plan existence *is* the pattern check (subtype acceptance),
        // and its excess half is the filter's flow-inheritance source.
        let Some(plan) = self.plans.plan_for(rec) else {
            panic!(
                "record {rec:?} does not match filter pattern {} at '{}' — routing \
                 invariant violated",
                self.def.pattern, self.path
            )
        };
        let excess = rec.excess_with(plan);
        let outs = self
            .def
            .apply_with_excess(rec, &excess)
            .unwrap_or_else(|e| panic!("tag expression failed in filter at '{}': {e}", self.path));
        let n = outs.len() as u64;
        for out in outs {
            if self.observing {
                ctx.observe(self.path, Dir::Out, &out);
            }
            sink(out);
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use crate::instantiate::{run_msgs_to_end, run_to_end, test_ctx};
    use crate::plan::PNode;
    use crate::stream::Msg;
    use snet_lang::parse_filter;
    use snet_types::Record;
    use std::sync::Arc;

    /// The plan leaf of the filter `src`.
    fn filter_leaf(src: &str) -> Arc<PNode> {
        Arc::new(PNode::Filter {
            def: parse_filter(src).unwrap(),
        })
    }

    #[test]
    fn filter_duplicates_records() {
        // The paper's two-output filter produces two records per input.
        let ctx = test_ctx(Vec::new());
        let leaf = filter_leaf("[{a,b,<c>} -> {a, z=a, <t>}; {b, a=b, <c>=<c>+1}]");
        let input = Record::build()
            .field("a", 1i64)
            .field("b", 2i64)
            .tag("c", 9)
            .finish();
        let got = run_to_end(&ctx, &leaf, [input]);
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].tag("t"), Some(0));
        assert_eq!(got[1].tag("c"), Some(10));
        assert_eq!(ctx.metrics.get("net/filter/records_in"), 1);
        assert_eq!(ctx.metrics.get("net/filter/records_out"), 2);
    }

    #[test]
    fn fig2_style_tag_injection() {
        let input = Record::build().field("board", 1i64).finish();
        let got = run_to_end(
            &test_ctx(Vec::new()),
            &filter_leaf("[{} -> {<k>=1}]"),
            [input],
        );
        assert_eq!(got[0].tag("k"), Some(1));
        assert!(got[0].field("board").is_some()); // flow inheritance
    }

    #[test]
    fn sorts_flow_through_filters() {
        let sort = Msg::Sort {
            level: 1,
            counter: 3,
        };
        let got = run_msgs_to_end(
            &test_ctx(Vec::new()),
            &filter_leaf("[{} -> {<x>=1}]"),
            [sort.clone()],
        );
        assert_eq!(got, [sort]);
    }

    #[test]
    fn non_matching_record_panics() {
        let ctx = test_ctx(Vec::new());
        let leaf = filter_leaf("[{needed} -> {needed}]");
        let input = Record::build().tag("other", 1).finish();
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_to_end(&ctx, &leaf, [input])
        }));
        assert!(r.is_err());
    }

    #[test]
    fn memoized_pattern_check_stays_correct_across_repeats() {
        // The memo-hit path: many records of the same two types — only
        // the first of each pays the subset test; all must be admitted
        // (and transformed) identically.
        let ctx = test_ctx(Vec::new());
        let inputs = (0..50i64).map(|i| {
            // Alternate two distinct admitted types: {a} and {a,b}.
            let mut b = Record::build().field("a", i);
            if i % 2 == 1 {
                b = b.field("b", i);
            }
            b.finish()
        });
        let got = run_to_end(&ctx, &filter_leaf("[{a} -> {a, <seen>=1}]"), inputs);
        assert_eq!(got.len(), 50);
        for (i, r) in got.iter().enumerate() {
            assert_eq!(r.field("a").unwrap().as_int(), Some(i as i64));
            assert_eq!(r.tag("seen"), Some(1));
            // Flow inheritance must survive the memoized check.
            assert_eq!(r.field("b").is_some(), i % 2 == 1);
        }
        assert_eq!(ctx.metrics.get("net/filter/records_in"), 50);
    }

    #[test]
    fn memo_guard_distinguishes_field_from_tag_of_same_name() {
        // Field `k` and tag `<k>` share an interner id — the memo key
        // collision case its element-wise guard exists for. Admitting
        // field-`k` records first must not leak an acceptance onto the
        // tag-`k` type: the tag record still panics the component.
        let ctx = test_ctx(Vec::new());
        let leaf = filter_leaf("[{k} -> {k}]");
        // Warm the memo with the admitted field type, then hit it with
        // the colliding tag type.
        let inputs = (0..10i64)
            .map(|i| Record::build().field("k", i).finish())
            .chain([Record::build().tag("k", 1).finish()]);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_to_end(&ctx, &leaf, inputs)
        }));
        assert!(r.is_err(), "tag-k record must not ride the field-k memo");
    }
}
