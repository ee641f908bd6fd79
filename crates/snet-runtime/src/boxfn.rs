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
//! box wrapper thread performs the runtime halves of subtyping and
//! flow inheritance: it splits each incoming record into the part
//! matching the box's input type (what the function sees) and the
//! excess, and re-attaches the excess to every emitted record unless a
//! label is already present. "The implementation of the box function
//! is completely unaware of any potential excess fields and tags."
//!
//! Both halves are **shape-plan applications** (PR 4): the input
//! type's shape is interned once at spawn, the
//! [`snet_types::SplitPlan`] for each incoming record shape is
//! resolved once per shape (a spawn-local cache in front of the
//! process-wide plan table), and applying it is straight value-array
//! copies into inline record storage — no per-record heap allocation
//! for records within the inline capacity, no binary searches. When
//! the record's shape *is* the input type (the overwhelmingly common
//! monomorphic-stream case) the plan is the identity: the box is
//! handed a view of the incoming record itself and the emit path
//! skips inheritance entirely, so the hop copies nothing at all.
//!
//! All of this — subtype split, function application, flow
//! inheritance, metrics, observation — is [`BoxCore`], the per-record
//! half of a box. The stream half is [`crate::fused`]'s stage-run
//! driver: a box is one stage of a run, whose emissions go to the next
//! stage or, from the last (or only) one, to the run's output edge.

use crate::ctx::Ctx;
use crate::memo::PlanCache;
use crate::metrics::{keys, Counter};
use crate::path::CompPath;
use crate::stream::Dir;
use snet_types::{BoxSig, Record, RecordType, Shape};
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
    excess: &'a Record,
    sig: &'a BoxSig,
    path: CompPath,
    ctx: &'a Ctx,
    /// `ctx.has_observers()`, resolved once at component spawn
    /// (observers are fixed at context construction).
    observing: bool,
    emitted: u64,
}

impl<'a> Emitter<'a> {
    /// Emits an output record. Flow inheritance is applied here: excess
    /// labels of the input record are attached unless present.
    pub fn emit(&mut self, rec: Record) {
        let rec = rec.inherit(self.excess);
        if self.observing {
            self.ctx.observe(self.path, Dir::Out, &rec);
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

/// The per-record execution core of one box instance: subtype split,
/// function application, flow inheritance, metrics, observation —
/// everything except the stream loop. All bookkeeping is resolved at
/// construction: the stage path is interned once, the counters are
/// registered once, and the input type's shape is interned so split
/// plans resolve per incoming record *shape* through a spawn-local
/// cache and apply as array copies.
pub(crate) struct BoxCore {
    sig: BoxSig,
    imp: BoxImpl,
    path: CompPath,
    input_type: RecordType,
    plans: PlanCache,
    /// Flow-inheritance source for identity splits: nothing to
    /// re-attach.
    no_excess: Record,
    /// `ctx.has_observers()`, resolved once (observers are fixed at
    /// context construction) — the record loop never chases the
    /// context for it.
    observing: bool,
    /// The fault boundary, resolved once at construction; `None` in
    /// the default (FailNet, no chaos) configuration so the hot path
    /// pays one predictable branch (see [`crate::fault`]). `Option`
    /// also lets [`BoxCore::process_uncounted`] move the guard out
    /// while the body borrows `&mut self`.
    guard: Option<crate::fault::FaultGuard>,
    records_in: Counter,
    records_out: Counter,
}

impl BoxCore {
    /// Registers the stage under `parent/box:{name}` and resolves its
    /// counters.
    pub(crate) fn new(
        ctx: &Ctx,
        parent: CompPath,
        name: &str,
        sig: BoxSig,
        imp: BoxImpl,
    ) -> BoxCore {
        let path = parent.child(&format!("box:{name}"));
        ctx.metrics.handle_at(path, keys::SPAWNED).inc(1);
        let input_type = sig.input_type();
        BoxCore {
            plans: PlanCache::new(Shape::of_type(&input_type)),
            input_type,
            no_excess: Record::new(),
            observing: ctx.has_observers(),
            guard: ctx.fault_guard(path),
            records_in: ctx.metrics.handle_at(path, keys::RECORDS_IN),
            records_out: ctx.metrics.handle_at(path, keys::RECORDS_OUT),
            sig,
            imp,
            path,
        }
    }

    /// The stage's interned component path.
    pub(crate) fn path(&self) -> CompPath {
        self.path
    }

    /// Settles a run's worth of counter updates in two delta adds —
    /// the driver pairs this with [`BoxCore::process_uncounted`] so a
    /// run of records costs two atomic RMWs, not two per record.
    pub(crate) fn add_counts(&self, records_in: u64, records_out: u64) {
        self.records_in.inc(records_in);
        self.records_out.inc(records_out);
    }

    /// Runs one record through the box: split, apply, inherit. Every
    /// output record is handed to `sink` in emission order; the
    /// emission count is returned for [`BoxCore::add_counts`]. Runs
    /// under the net's fault boundary when one is configured — a panic
    /// in the box function (or a chaos injection) is contained per the
    /// [`crate::FaultPolicy`].
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

    /// The raw per-record path: split, apply, inherit — no fault
    /// boundary (panics unwind to the caller).
    fn process_raw(&mut self, ctx: &Ctx, rec: &Record, sink: &mut dyn FnMut(Record)) -> u64 {
        if self.observing {
            ctx.observe(self.path, Dir::In, rec);
        }
        let Some(plan) = self.plans.plan_for(rec) else {
            panic!(
                "record {rec:?} does not match input type {} of box '{}' — routing \
                 invariant violated",
                self.input_type, self.path
            )
        };
        if plan.is_identity() {
            // The record carries exactly the input type's labels: hand
            // the box a view of it directly, no split copies and
            // nothing to inherit at emit.
            let mut em = Emitter {
                sink,
                excess: &self.no_excess,
                sig: &self.sig,
                path: self.path,
                ctx,
                observing: self.observing,
                emitted: 0,
            };
            (self.imp)(rec, &mut em);
            em.emitted
        } else {
            let (matched, excess) = rec.split_with(plan);
            let mut em = Emitter {
                sink,
                excess: &excess,
                sig: &self.sig,
                path: self.path,
                ctx,
                observing: self.observing,
                emitted: 0,
            };
            (self.imp)(&matched, &mut em);
            em.emitted
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instantiate::{run_msgs_to_end, run_to_end, test_ctx};
    use crate::plan::PNode;
    use crate::stream::Msg;
    use snet_types::{Label, Value};

    /// The plan leaf of a box called `name`.
    fn box_leaf(name: &str, sig: BoxSig, imp: BoxImpl) -> Arc<PNode> {
        Arc::new(PNode::Box {
            name: name.to_string(),
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
