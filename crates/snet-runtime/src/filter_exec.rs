//! Filter execution: wraps the pure [`FilterDef::apply`] semantics of
//! `snet-lang` in a stage core. Filters are the "housekeeping"
//! boxes of the coordination layer — renaming, duplication, elimination
//! and tag arithmetic — and run exactly like boxes, minus a
//! computational payload: [`FilterCore`] is the transfer function, the
//! stage boundary around it is [`crate::fused::LeafCore`] (shared with
//! boxes), the stream half is [`crate::fused`]'s stage-run driver.
//!
//! Like boxes, filters resolve their per-record type work through
//! compiled shape plans (see `snet_types::shape`): the pattern's
//! shape is interned once at spawn, the split plan for each incoming
//! record *shape* is resolved once through a spawn-local cache, and
//! both the pattern check (plan exists?) and flow inheritance (the
//! outputs read the record's excess slots through the plan) fall out
//! of that single lookup — no per-record subset tests, label searches,
//! global-table locks or excess record.
//! A field and a tag of the same name stay distinct shapes by
//! construction, so the check cannot conflate them.

use crate::ctx::Ctx;
use crate::path::CompPath;
use crate::stream::Dir;
use snet_lang::FilterDef;
use snet_types::{Record, Shape, SplitPlan};

/// A filter's transfer function. The stage boundary around it — path,
/// counters, plan cache, observation of the input, fault guard — is
/// [`crate::fused::LeafCore`], shared with boxes.
pub(crate) struct FilterCore {
    def: FilterDef,
}

impl FilterCore {
    pub(crate) fn new(def: FilterDef) -> FilterCore {
        FilterCore { def }
    }

    /// The shape the filter's split plans are resolved against.
    pub(crate) fn input_shape(&self) -> Shape {
        Shape::of_type(&self.def.pattern)
    }

    /// What the filter accepts, for the routing-invariant panic.
    pub(crate) fn accepts(&self, path: CompPath) -> String {
        format!("filter pattern {} at '{path}'", self.def.pattern)
    }

    /// Runs one record, already matched by `plan`, through the filter:
    /// every output record is handed to `sink` in specifier order,
    /// inheriting the record's excess through `plan`, and observed at
    /// `path` when `observer` is set; returns the output count. A
    /// failing tag expression panics.
    pub(crate) fn transfer(
        &self,
        rec: &Record,
        plan: &SplitPlan,
        path: CompPath,
        observer: Option<&Ctx>,
        sink: &mut dyn FnMut(Record),
    ) -> u64 {
        let outs = self
            .def
            .apply_with_split(rec, plan)
            .unwrap_or_else(|e| panic!("tag expression failed in filter at '{path}': {e}"));
        let n = outs.len() as u64;
        for out in outs {
            if let Some(ctx) = observer {
                ctx.observe(path, Dir::Out, &out);
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
