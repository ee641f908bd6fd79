//! Shape-plan record operations vs a retained naive reference.
//!
//! PR 4 replaced the per-record `split_for`/`inherit` loops (per-label
//! binary searches over `Vec`-backed records) with compiled per-shape
//! plans applied as array copies. This property test keeps the *old*
//! semantics alive as an executable model — sorted association lists
//! with explicit label-by-label splitting and present-labels-win
//! inheritance — and checks observational equivalence across
//! randomized records and types, including the paper's
//! duplicate-label-discard rule ("the field or tag is discarded"
//! when the output record already carries an inherited label) and
//! the field-vs-tag namespace split for same-named labels. What boxes
//! and filters run — the matched half alone, then inheritance read
//! straight from the consumed record (`Record::inherit_from`) — is
//! checked against the model's split followed by inherit. Record
//! construction itself — random `set_field` / `set_tag` / `remove`
//! sequences whose halves cross the inline boundary (4 <-> 5 values)
//! both ways — is checked against the model step by step.

use proptest::prelude::*;
use snet_types::{Label, Record, RecordType, Shape, Value};

// ---------------------------------------------------------------------------
// The naive reference model: sorted (kind, name) -> i64 association
// lists, implementing the paper's record semantics label by label,
// exactly as `record.rs` did before shape plans.
// ---------------------------------------------------------------------------

/// A model record: sorted, deduplicated `(label, value)` lists.
/// Field payloads are restricted to integers — the coordination layer
/// never looks at values, so integer payloads exercise every code
/// path while keeping the model trivially comparable.
#[derive(Clone, Debug, PartialEq)]
struct ModelRec {
    fields: Vec<(String, i64)>,
    tags: Vec<(String, i64)>,
}

impl ModelRec {
    fn new(mut fields: Vec<(String, i64)>, mut tags: Vec<(String, i64)>) -> ModelRec {
        fields.sort_by(|a, b| a.0.cmp(&b.0));
        fields.dedup_by(|a, b| a.0 == b.0);
        tags.sort_by(|a, b| a.0.cmp(&b.0));
        tags.dedup_by(|a, b| a.0 == b.0);
        ModelRec { fields, tags }
    }

    fn matches(&self, ty: &ModelType) -> bool {
        ty.fields
            .iter()
            .all(|l| self.fields.iter().any(|(n, _)| n == l))
            && ty
                .tags
                .iter()
                .all(|l| self.tags.iter().any(|(n, _)| n == l))
    }

    /// The reference split: label-by-label membership tests.
    fn split_for(&self, ty: &ModelType) -> Option<(ModelRec, ModelRec)> {
        if !self.matches(ty) {
            return None;
        }
        let (mf, ef): (Vec<_>, Vec<_>) = self
            .fields
            .iter()
            .cloned()
            .partition(|(n, _)| ty.fields.contains(n));
        let (mt, et): (Vec<_>, Vec<_>) = self
            .tags
            .iter()
            .cloned()
            .partition(|(n, _)| ty.tags.contains(n));
        Some((
            ModelRec {
                fields: mf,
                tags: mt,
            },
            ModelRec {
                fields: ef,
                tags: et,
            },
        ))
    }

    /// The reference flow inheritance: present labels win, the
    /// inherited entry is discarded (paper, Section 4).
    fn inherit(mut self, excess: &ModelRec) -> ModelRec {
        for (n, v) in &excess.fields {
            if !self.fields.iter().any(|(m, _)| m == n) {
                self.fields.push((n.clone(), *v));
            }
        }
        for (n, v) in &excess.tags {
            if !self.tags.iter().any(|(m, _)| m == n) {
                self.tags.push((n.clone(), *v));
            }
        }
        self.fields.sort_by(|a, b| a.0.cmp(&b.0));
        self.tags.sort_by(|a, b| a.0.cmp(&b.0));
        self
    }

    /// Sets (or replaces) one entry of a half, keeping it sorted.
    fn set(half: &mut Vec<(String, i64)>, name: &str, value: i64) {
        match half.binary_search_by(|(n, _)| n.as_str().cmp(name)) {
            Ok(i) => half[i].1 = value,
            Err(i) => half.insert(i, (name.to_string(), value)),
        }
    }

    /// Removes one entry of a half; returns whether it was there.
    fn remove(half: &mut Vec<(String, i64)>, name: &str) -> bool {
        let before = half.len();
        half.retain(|(n, _)| n != name);
        half.len() < before
    }

    /// The record's own type: splitting against it leaves no excess.
    fn own_type(&self) -> ModelType {
        ModelType {
            fields: self.fields.iter().map(|(n, _)| n.clone()).collect(),
            tags: self.tags.iter().map(|(n, _)| n.clone()).collect(),
        }
    }

    fn to_record(&self) -> Record {
        let mut r = Record::new();
        for (n, v) in &self.fields {
            r.set_field(n, Value::Int(*v));
        }
        for (n, v) in &self.tags {
            r.set_tag(n, *v);
        }
        r
    }
}

/// A model type: sorted field and tag label-name sets.
#[derive(Clone, Debug, PartialEq)]
struct ModelType {
    fields: Vec<String>,
    tags: Vec<String>,
}

impl ModelType {
    fn to_record_type(&self) -> RecordType {
        let fields: Vec<&str> = self.fields.iter().map(String::as_str).collect();
        let tags: Vec<&str> = self.tags.iter().map(String::as_str).collect();
        RecordType::of(&fields, &tags)
    }
}

/// Converts a real record back into the model for comparison.
fn model_of(rec: &Record) -> ModelRec {
    ModelRec {
        fields: rec
            .fields()
            .map(|(l, v)| (l.name().to_string(), v.as_int().expect("int payloads only")))
            .collect(),
        tags: rec.tags().map(|(l, v)| (l.name().to_string(), v)).collect(),
    }
}

// ---------------------------------------------------------------------------
// Strategies: labels from a small shared pool so records and types
// overlap often (the interesting cases), same names appearing as both
// field and tag to exercise the namespace split, record sizes
// straddling the inline capacity.
// ---------------------------------------------------------------------------

/// Label-name pool. Deliberately includes so few names that duplicate
/// labels between record, type and excess are the common case.
const NAMES: [&str; 6] = ["a", "b", "c", "d", "e", "f"];

fn arb_entries() -> impl Strategy<Value = Vec<(String, i64)>> {
    proptest::collection::vec((0usize..NAMES.len(), -100i64..100), 0..6).prop_map(|v| {
        v.into_iter()
            .map(|(i, val)| (NAMES[i].to_string(), val))
            .collect()
    })
}

fn arb_model_rec() -> impl Strategy<Value = ModelRec> {
    (arb_entries(), arb_entries()).prop_map(|(f, t)| ModelRec::new(f, t))
}

fn arb_model_type() -> impl Strategy<Value = ModelType> {
    let names = || {
        proptest::collection::vec(0usize..NAMES.len(), 0..4).prop_map(|v| {
            let mut v: Vec<String> = v.into_iter().map(|i| NAMES[i].to_string()).collect();
            v.sort();
            v.dedup();
            v
        })
    };
    (names(), names()).prop_map(|(fields, tags)| ModelType { fields, tags })
}

/// One step of a record's construction: `(is_tag, is_remove, name
/// index, value)`.
type Step = (bool, bool, usize, i64);

/// Construction sequences long enough that a half crosses the inline
/// boundary (4 -> 5 and back) several times: sets outnumber removes
/// two to one, so a half's arity walks up to all six names and down.
fn arb_steps() -> impl Strategy<Value = Vec<Step>> {
    proptest::collection::vec(
        (any::<bool>(), 0u8..3, 0usize..NAMES.len(), -100i64..100)
            .prop_map(|(tag, op, i, v)| (tag, op == 0, i, v)),
        0..48,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `set_field` / `set_tag` / `remove` in any order, over up to six
    /// labels a half: after every step the record, a clone of it and
    /// a record built afresh from the model agree with the model and
    /// with each other, whichever side of the inline boundary each
    /// half is on and however it got there.
    #[test]
    fn construction_matches_reference_across_the_inline_boundary(steps in arb_steps()) {
        let mut rec = Record::new();
        let mut model = ModelRec::new(vec![], vec![]);
        for (tag, remove, i, v) in steps {
            let name = NAMES[i];
            match (tag, remove) {
                (false, false) => {
                    rec.set_field(name, Value::Int(v));
                    ModelRec::set(&mut model.fields, name, v);
                }
                (true, false) => {
                    rec.set_tag(name, v);
                    ModelRec::set(&mut model.tags, name, v);
                }
                (false, true) => prop_assert_eq!(
                    rec.remove(Label::field(name)),
                    ModelRec::remove(&mut model.fields, name)
                ),
                (true, true) => prop_assert_eq!(
                    rec.remove(Label::tag(name)),
                    ModelRec::remove(&mut model.tags, name)
                ),
            }
            prop_assert_eq!(model_of(&rec), model.clone());
            prop_assert_eq!(rec.len(), model.fields.len() + model.tags.len());
            let copy = rec.clone();
            prop_assert_eq!(model_of(&copy), model.clone());
            prop_assert_eq!(&copy, &rec);
            prop_assert_eq!(&model.to_record(), &rec);
        }
    }

    /// `split_for` agrees with the reference on both halves (or both
    /// reject), for every random record/type pair.
    #[test]
    fn split_for_matches_reference(m in arb_model_rec(), ty in arb_model_type()) {
        let rec = m.to_record();
        let rt = ty.to_record_type();
        match (m.split_for(&ty), rec.split_for(&rt)) {
            (None, None) => {}
            (Some((mm, me)), Some((rm, re))) => {
                prop_assert_eq!(&model_of(&rm), &mm, "matched half diverged");
                prop_assert_eq!(&model_of(&re), &me, "excess half diverged");
                // The matched half's type is exactly the input type.
                prop_assert_eq!(rm.record_type(), rt);
                // Reassembly: matched + excess == original record.
                prop_assert_eq!(rm.inherit(&re), rec);
            }
            (model, real) => {
                return Err(TestCaseError::Fail(format!(
                    "match disagreement: model {model:?} vs real {real:?}"
                )));
            }
        }
    }

    /// `inherit` agrees with the reference — including the
    /// duplicate-label-discard rule when excess and output overlap.
    #[test]
    fn inherit_matches_reference(out in arb_model_rec(), excess in arb_model_rec()) {
        let real = out.to_record().inherit(&excess.to_record());
        let model = out.clone().inherit(&excess);
        prop_assert_eq!(model_of(&real), model);
    }

    /// Inheriting from `(source, split plan)` — what boxes and
    /// filters do, reading the excess in place — equals the model's
    /// `split_for` followed by `inherit`. `ty` is drawn as the
    /// record's own type a third of the time, the identity split; the
    /// shared name pool makes the output's own label winning a
    /// duplicate and an empty excess common draws.
    #[test]
    fn inherit_from_matches_split_then_inherit(
        m in arb_model_rec(),
        drawn in arb_model_type(),
        own_type in 0u8..3,
        out in arb_model_rec(),
    ) {
        let ty = if own_type == 0 { m.own_type() } else { drawn };
        let rec = m.to_record();
        let Some(plan) = rec.shape().split_plan(Shape::of_type(&ty.to_record_type())) else {
            prop_assert!(m.split_for(&ty).is_none());
            return Ok(());
        };
        let (matched, excess) = m.split_for(&ty).expect("the plan exists, so the model matches");
        prop_assert_eq!(plan.is_identity(), excess.fields.is_empty() && excess.tags.is_empty());
        prop_assert_eq!(model_of(&rec.matched_with(plan)), matched);
        let real = out.to_record().inherit_from(&rec, plan);
        prop_assert_eq!(model_of(&real), out.clone().inherit(&excess));
        // The source is read, never consumed: a second output of the
        // same application inherits the same values.
        let again = out.to_record().inherit_from(&rec, plan);
        prop_assert_eq!(again, real);
    }

    /// Shape identity: two records built from the same model (in any
    /// construction order) share one interned shape id, and equality
    /// agrees with the model.
    #[test]
    fn shape_identity_and_equality(a in arb_model_rec(), b in arb_model_rec()) {
        let ra = a.to_record();
        let rb = b.to_record();
        prop_assert_eq!(a == b, ra == rb);
        prop_assert_eq!(
            a.fields.iter().map(|(n, _)| n).eq(b.fields.iter().map(|(n, _)| n))
                && a.tags.iter().map(|(n, _)| n).eq(b.tags.iter().map(|(n, _)| n)),
            ra.shape() == rb.shape()
        );
    }
}

/// The three cases the property draws, pinned by hand: the output's
/// own label wins a duplicate, an empty excess, an identity split.
#[test]
fn inherit_from_duplicate_empty_and_identity() {
    let rec = ModelRec::new(
        vec![("a".into(), 1), ("d".into(), 4)],
        vec![("b".into(), 10)],
    );
    let source = rec.to_record();
    let plan_for = |ty: &ModelType| {
        source
            .shape()
            .split_plan(Shape::of_type(&ty.to_record_type()))
            .expect("the record matches")
    };
    let box_in = ModelType {
        fields: vec!["a".into()],
        tags: vec!["b".into()],
    };
    // Duplicate: the output carries its own d, the inherited d is
    // discarded.
    let own_d = ModelRec::new(vec![("c".into(), 9), ("d".into(), 99)], vec![]);
    let got = own_d.to_record().inherit_from(&source, plan_for(&box_in));
    assert_eq!(model_of(&got), own_d);
    // Non-duplicate: d is inherited from the source.
    let plain = ModelRec::new(vec![("c".into(), 9)], vec![]);
    let got = plain.to_record().inherit_from(&source, plan_for(&box_in));
    assert_eq!(got.field("d").and_then(|v| v.as_int()), Some(4));
    // Empty excess: the type is the whole record — the identity split.
    let identity = plan_for(&rec.own_type());
    assert!(identity.is_identity());
    assert_eq!(
        plain.to_record().inherit_from(&source, identity),
        plain.to_record()
    );
    assert_eq!(source.matched_with(identity), source);
}
