//! Box execution.
//!
//! "A box expects a record on its input stream to which it applies its
//! associated SaC function (the box function). An S-Net box may yield
//! multiple output records on the output stream in response to a
//! single input record. Therefore, we cannot use the value of the
//! function application as a result. Instead, the SaC function itself
//! calls, potentially repeatedly, an interface function snet_out"
//! (paper, Section 4).
//!
//! The Rust rendering: a box implementation is a
//! `Fn(&Record, &mut Emitter)` — the [`Emitter`] is `snet_out`. The
//! box wrapper performs the runtime halves of subtyping and flow
//! inheritance: it hands the function the part of each incoming
//! record matching the box's input type, and re-attaches the rest (the
//! excess) to every emitted record unless a label is already present.
//! "The implementation of the box function is completely unaware of
//! any potential excess fields and tags."
//!
//! Both halves read one [`snet_types::SplitPlan`], resolved once per
//! incoming record shape (a spawn-local cache in front of the
//! process-wide plan table, keyed by the input type's shape interned
//! at spawn). Only the matched half is ever built: value copies by
//! index into inline record storage. The excess is never copied out.
//! The [`Emitter`] keeps the incoming record and the plan, and each
//! emitted record inherits straight from the incoming record's excess
//! slots ([`Record::inherit_from`]), moving its own values and copying
//! only the inherited ones. The incoming record is never mutated, so a
//! retried application (the `Restart` fault policy) re-reads it
//! unchanged. When the record's shape *is* the input type (the
//! overwhelmingly common monomorphic-stream case) the plan is the
//! identity: the box is handed the incoming record itself and
//! inheritance returns each output untouched, so the hop copies
//! nothing at all.
//!
//! Function application and flow inheritance are [`BoxCore`], the
//! box's transfer function; the stage boundary around it — subtype
//! check, metrics, observation, fault guard — is
//! [`crate::fused::LeafCore`], shared with filters, and the stream half
//! is [`crate::fused`]'s stage-run driver: a box is one stage of a run,
//! whose emissions go to the next stage or, from the last (or only)
//! one, to the run's output edge.

use crate::ctx::Ctx;
use crate::path::CompPath;
use crate::stream::Dir;
use snet_types::{BoxSig, Record, Shape, SplitPlan};
use std::sync::Arc;

/// A box implementation: the computational component behind a box.
/// It receives the matched input record and emits output records via
/// the [`Emitter`] — the equivalent of calling `snet_out` repeatedly.
pub type BoxImpl = Arc<dyn Fn(&Record, &mut Emitter) + Send + Sync>;

/// The `snet_out` interface handed to a box function. Records emitted
/// here are extended by flow inheritance and handed downstream
/// immediately ("output records ... are immediately sent to the output
/// stream") — the next stage of the run, or its output edge.
pub struct Emitter<'a> {
    sink: &'a mut dyn FnMut(Record),
    /// The record the box consumed, split by `split`: its excess slots
    /// are the flow-inheritance source.
    source: &'a Record,
    split: &'a SplitPlan,
    sig: &'a BoxSig,
    /// Where emissions are observed: the net and the box's path, when
    /// the net has observers (fixed at context construction).
    observer: Option<(&'a Ctx, CompPath)>,
    emitted: u64,
}

impl<'a> Emitter<'a> {
    /// An emitter outside any net: flow inheritance from the excess of
    /// `source` under `split`, no observation (the sequential
    /// reference, [`crate::oracle`]).
    pub(crate) fn detached(
        sink: &'a mut dyn FnMut(Record),
        source: &'a Record,
        split: &'a SplitPlan,
        sig: &'a BoxSig,
    ) -> Emitter<'a> {
        Emitter {
            sink,
            source,
            split,
            sig,
            observer: None,
            emitted: 0,
        }
    }

    /// Emits an output record. Flow inheritance is applied here: excess
    /// labels of the input record are attached unless present.
    pub fn emit(&mut self, rec: Record) {
        let rec = rec.inherit_from(self.source, self.split);
        if let Some((ctx, path)) = self.observer {
            ctx.observe(path, Dir::Out, &rec);
        }
        self.emitted += 1;
        (self.sink)(rec);
    }

    /// Emits according to an output variant of the box signature —
    /// mirrors `snet_out(variant, v1, v2, ...)`: values are paired with
    /// the variant's labels in declaration order. Tags take their value
    /// from `Value::Int`; anything else is a field value.
    ///
    /// `variant` is 1-based, matching the paper's `snet_out(1, ...)`.
    pub fn emit_variant(&mut self, variant: usize, values: Vec<snet_types::Value>) {
        let labels = self
            .sig
            .outputs
            .get(variant - 1)
            .unwrap_or_else(|| panic!("box has no output variant {variant}"));
        assert_eq!(
            labels.len(),
            values.len(),
            "snet_out variant {variant} expects {} values, got {}",
            labels.len(),
            values.len()
        );
        let mut rec = Record::new();
        for (label, value) in labels.iter().zip(values) {
            if label.is_tag() {
                let v = value
                    .as_int()
                    .unwrap_or_else(|| panic!("tag {label} requires an integer value"));
                rec.set_tag_label(*label, v);
            } else {
                rec.set_field_label(*label, value);
            }
        }
        self.emit(rec);
    }

    /// Number of records emitted so far for the current input.
    pub fn emitted(&self) -> u64 {
        self.emitted
    }
}

/// A box's transfer function: match, apply, inherit. The stage
/// boundary around it — path, counters, plan cache, observation of the
/// input, fault guard — is [`crate::fused::LeafCore`], shared with
/// filters.
pub(crate) struct BoxCore {
    sig: BoxSig,
    imp: BoxImpl,
}

impl BoxCore {
    pub(crate) fn new(sig: BoxSig, imp: BoxImpl) -> BoxCore {
        BoxCore { sig, imp }
    }

    /// The shape the box's split plans are resolved against.
    pub(crate) fn input_shape(&self) -> Shape {
        Shape::of_type(&self.sig.input_type())
    }

    /// What the box accepts, for the routing-invariant panic.
    pub(crate) fn accepts(&self, path: CompPath) -> String {
        format!("input type {} of box '{path}'", self.sig.input_type())
    }

    /// Runs one record, already matched by `plan`, through the box
    /// function: every output record is handed to `sink` in emission
    /// order, after flow inheritance, and observed at `path` when
    /// `observer` is set; returns the emission count.
    pub(crate) fn transfer(
        &self,
        rec: &Record,
        plan: &SplitPlan,
        path: CompPath,
        observer: Option<&Ctx>,
        sink: &mut dyn FnMut(Record),
    ) -> u64 {
        // An identity split hands the box the record itself; otherwise
        // only the matched half is copied out. Either way the emitter
        // inherits from `rec` under `plan`.
        let matched;
        let input = if plan.is_identity() {
            rec
        } else {
            matched = rec.matched_with(plan);
            &matched
        };
        let mut em = Emitter {
            sink,
            source: rec,
            split: plan,
            sig: &self.sig,
            observer: observer.map(|ctx| (ctx, path)),
            emitted: 0,
        };
        (self.imp)(input, &mut em);
        em.emitted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instantiate::{run_msgs_to_end, run_to_end, test_ctx};
    use crate::path::Name;
    use crate::plan::PNode;
    use crate::stream::Msg;
    use snet_types::{Label, Value};

    /// The plan leaf of a box called `name`.
    fn box_leaf(name: &str, sig: BoxSig, imp: BoxImpl) -> Arc<PNode> {
        Arc::new(PNode::Box {
            name: name.to_string(),
            seg: Name::new(&format!("box:{name}")),
            sig,
            imp,
        })
    }

    fn foo_sig() -> BoxSig {
        // box foo (a,<b>) -> (c) | (c,d,<e>)
        BoxSig::new(
            vec![Label::field("a"), Label::tag("b")],
            vec![
                vec![Label::field("c")],
                vec![Label::field("c"), Label::field("d"), Label::tag("e")],
            ],
        )
    }

    #[test]
    fn box_applies_function_and_flow_inherits() {
        // The paper's worked example: foo receives {a,<b>,d}; the
        // first-variant output {c} gains d by flow inheritance, the
        // second-variant output keeps its own d.
        let imp: BoxImpl = Arc::new(|rec, em| {
            let a = rec.field("a").unwrap().as_int().unwrap();
            // snet_out(1, x)
            em.emit_variant(1, vec![Value::Int(a * 10)]);
            // snet_out(2, x, y, 42)
            em.emit_variant(2, vec![Value::Int(a * 10), Value::Int(-1), Value::Int(42)]);
        });
        let input = Record::build()
            .field("a", 5i64)
            .tag("b", 0)
            .field("d", 7i64)
            .finish();
        let out = run_to_end(
            &test_ctx(Vec::new()),
            &box_leaf("foo", foo_sig(), imp),
            [input],
        );
        let [r1, r2] = &out[..] else {
            panic!("unexpected {out:?}")
        };
        assert_eq!(r1.field("c").unwrap().as_int(), Some(50));
        assert_eq!(r1.field("d").unwrap().as_int(), Some(7)); // inherited
        assert_eq!(r2.field("d").unwrap().as_int(), Some(-1)); // own d wins
        assert_eq!(r2.tag("e"), Some(42));
        // <b> was consumed (in the input type), so it does NOT reappear.
        assert_eq!(r2.tag("b"), None);
    }

    #[test]
    fn box_may_emit_nothing() {
        // solveOneLevel emits no record when the search is stuck.
        let ctx = test_ctx(Vec::new());
        let imp: BoxImpl = Arc::new(|_rec, _em| {});
        let sig = BoxSig::new(vec![Label::field("a")], vec![vec![Label::field("a")]]);
        let input = Record::build().field("a", 1i64).finish();
        let out = run_to_end(&ctx, &box_leaf("mute", sig, imp), [input]);
        assert!(out.is_empty());
        assert_eq!(ctx.metrics.get("net/box:mute/records_in"), 1);
        assert_eq!(ctx.metrics.get("net/box:mute/records_out"), 0);
    }

    #[test]
    fn box_forwards_sort_records_behind_data() {
        let imp: BoxImpl = Arc::new(|rec, em| em.emit(rec.clone()));
        let sig = BoxSig::new(vec![Label::field("a")], vec![vec![Label::field("a")]]);
        let sort = Msg::Sort {
            level: 0,
            counter: 0,
        };
        let out = run_msgs_to_end(
            &test_ctx(Vec::new()),
            &box_leaf("id", sig, imp),
            [
                Msg::Rec(Record::build().field("a", 1i64).finish()),
                sort.clone(),
                Msg::Rec(Record::build().field("a", 2i64).finish()),
            ],
        );
        assert!(matches!(out[0], Msg::Rec(_)));
        assert_eq!(out[1], sort);
        assert!(matches!(out[2], Msg::Rec(_)));
    }

    #[test]
    fn mismatched_record_panics_the_component() {
        let ctx = test_ctx(Vec::new());
        let imp: BoxImpl = Arc::new(|_r, _e| {});
        let sig = BoxSig::new(vec![Label::field("needed")], vec![vec![]]);
        let leaf = box_leaf("strict", sig, imp);
        let input = Record::build().field("other", 1i64).finish();
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_to_end(&ctx, &leaf, [input])
        }));
        assert!(r.is_err());
    }

    #[test]
    fn multiple_records_processed_in_order() {
        let imp: BoxImpl = Arc::new(|rec, em| {
            let v = rec.field("a").unwrap().as_int().unwrap();
            em.emit(Record::build().field("a", v * 2).finish());
        });
        let sig = BoxSig::new(vec![Label::field("a")], vec![vec![Label::field("a")]]);
        let inputs = (0..10i64).map(|i| Record::build().field("a", i).finish());
        let out = run_to_end(&test_ctx(Vec::new()), &box_leaf("dbl", sig, imp), inputs);
        let got: Vec<_> = out.iter().map(|r| r.field("a").unwrap().as_int()).collect();
        assert_eq!(got, (0..10i64).map(|i| Some(i * 2)).collect::<Vec<_>>());
    }
}
