//! Records: the messages of S-Net streams.
//!
//! "Messages on these typed streams are organised as non-recursive
//! records, i.e. label-value pairs" (paper, Section 4). A record maps
//! field labels to opaque [`Value`]s and tag labels to integers.
//!
//! # Shape-interned representation
//!
//! A record is an interned [`Shape`] (its sorted field+tag label set —
//! see [`crate::shape`]) plus two value arrays aligned with the
//! shape's label halves. The labels themselves live in the interner,
//! `&'static` and shared by every record of the shape; the values live
//! inline in the record for up to four fields and four tags
//! ([`crate::svec::SVec`]), so records of that size — every workload
//! in this tree — are **allocation-free to construct, clone, split
//! and inherit**.
//!
//! The shape id makes every type-level question about a record O(1):
//! type-keyed memos key on `shape().id()` with no element-wise
//! verification, and equality short-circuits on the id before looking
//! at a single value.
//!
//! # Compiled subtype acceptance and flow inheritance
//!
//! The module implements the record-level halves of the two
//! distinctive S-Net mechanisms as **plan applications**:
//!
//! * **subtype acceptance** — [`Record::split_for`] checks that a
//!   record has at least the labels of an input type and splits it
//!   into the matched part (handed to the box function) and the
//!   *excess*. The partition is compiled once per (record shape,
//!   input type) pair into a [`SplitPlan`] of value-array indices;
//!   applying it is straight copies, no per-label binary searches.
//! * **flow inheritance** — [`Record::inherit`] re-attaches that
//!   excess to an output record "unless some label is already present
//!   in the output record, in which case the field or tag is
//!   discarded". The duplicate-discard rule resolves at plan-compile
//!   time ([`crate::shape::InheritPlan`]); when the excess
//!   contributes nothing the plan is the identity and `inherit`
//!   returns its input untouched.
//!
//! Components never build the excess record. A box or filter keeps
//! the record it consumed and its split plan; [`Record::matched_with`]
//! copies out only what the function sees, and
//! [`Record::inherit_from`] reads the excess values straight from the
//! consumed record through the plan's excess index maps. Both
//! inheritance entry points run the same merge, which moves the
//! output's own values and copies only the inherited ones.
//!
//! # The correlation word
//!
//! A record also carries one hidden `u64`, the *correlation word*. It
//! is no label: it is in neither the shape nor the record type, and
//! neither `Debug` nor `==` look at it, so no program can tell two
//! records apart by it. [`Record::inherit_from`] copies it from the
//! consumed record to every output, which makes it flow like an excess
//! label that nothing can name or shadow: every box emission and every
//! filter output is built there. The matched half a box sees
//! ([`Record::matched_with`]) and every record built from scratch
//! carry 0. The serve front door stamps a request's id into it and
//! reads it back at the egress; its accessors are hidden from the docs
//! because nothing else has a use for them.

use crate::label::{Label, LabelKind};
use crate::rtype::RecordType;
use crate::shape::{Shape, SplitPlan};
use crate::svec::SVec;
use crate::value::Value;
use std::fmt;

/// Inline value slots per kind half: records with at most this many
/// fields and this many tags never touch the heap.
pub const INLINE_SLOTS: usize = 4;

/// A record: an interned shape plus shape-aligned value storage.
#[derive(Clone)]
pub struct Record {
    shape: Shape,
    /// The correlation word (module docs); 0 unless someone set it.
    corr: u64,
    /// Field values, aligned with `shape.fields()`.
    fields: SVec<Value, INLINE_SLOTS>,
    /// Tag values, aligned with `shape.tags()`.
    tags: SVec<i64, INLINE_SLOTS>,
}

impl Default for Record {
    fn default() -> Record {
        Record {
            shape: Shape::empty(),
            corr: 0,
            fields: SVec::new(),
            tags: SVec::new(),
        }
    }
}

impl Record {
    /// The empty record `{}`.
    pub fn new() -> Record {
        Record::default()
    }

    /// Fluent builder: `Record::build().field("board", v).tag("k", 1)`.
    pub fn build() -> RecordBuilder {
        RecordBuilder(Record::new())
    }

    /// The record's interned shape: its label set as a copyable
    /// handle. Two records have the same shape id iff they carry
    /// exactly the same labels.
    pub fn shape(&self) -> Shape {
        self.shape
    }

    /// The correlation word (module docs).
    #[doc(hidden)]
    pub fn corr(&self) -> u64 {
        self.corr
    }

    /// Sets the correlation word, replacing whatever it was.
    #[doc(hidden)]
    pub fn set_corr(&mut self, word: u64) {
        self.corr = word;
    }

    /// Reads the correlation word and leaves 0 behind.
    #[doc(hidden)]
    pub fn take_corr(&mut self) -> u64 {
        std::mem::take(&mut self.corr)
    }

    /// Number of fields plus tags.
    pub fn len(&self) -> usize {
        self.fields.len() + self.tags.len()
    }

    pub fn is_empty(&self) -> bool {
        self.fields.is_empty() && self.tags.is_empty()
    }

    /// Sets (or replaces) a field by name.
    pub fn set_field(&mut self, name: &str, value: Value) {
        self.set_field_label(Label::field(name), value);
    }

    /// Sets (or replaces) a field by label. Panics on a tag label —
    /// fields and tags live in separate namespaces.
    pub fn set_field_label(&mut self, label: Label, value: Value) {
        assert!(
            label.kind() == LabelKind::Field,
            "set_field_label requires a field label, got {label}"
        );
        match self.shape.field_index(label) {
            Some(i) => self.fields.as_mut_slice()[i] = value,
            None => {
                let (shape, slot) = self.shape.with(label);
                self.shape = shape;
                self.fields.insert(slot, value);
            }
        }
    }

    /// Sets (or replaces) a tag by name.
    pub fn set_tag(&mut self, name: &str, value: i64) {
        self.set_tag_label(Label::tag(name), value);
    }

    /// Sets (or replaces) a tag by label. Panics on a field label.
    pub fn set_tag_label(&mut self, label: Label, value: i64) {
        assert!(
            label.kind() == LabelKind::Tag,
            "set_tag_label requires a tag label, got {label}"
        );
        match self.shape.tag_index(label) {
            Some(i) => self.tags.as_mut_slice()[i] = value,
            None => {
                let (shape, slot) = self.shape.with(label);
                self.shape = shape;
                self.tags.insert(slot, value);
            }
        }
    }

    /// Looks up a field by name.
    pub fn field(&self, name: &str) -> Option<&Value> {
        self.field_label(Label::field(name))
    }

    pub fn field_label(&self, label: Label) -> Option<&Value> {
        self.shape
            .field_index(label)
            .and_then(|i| self.fields.get(i))
    }

    /// Looks up a tag by name.
    pub fn tag(&self, name: &str) -> Option<i64> {
        self.tag_label(Label::tag(name))
    }

    pub fn tag_label(&self, label: Label) -> Option<i64> {
        self.shape.tag_index(label).map(|i| self.tags.as_slice()[i])
    }

    /// The tag value in slot `i` of the shape's tag half — for callers
    /// that resolved the slot once per shape (e.g. the indexed-split
    /// dispatcher) instead of re-searching per record.
    pub fn tag_value_at(&self, i: usize) -> i64 {
        self.tags.as_slice()[i]
    }

    /// True when the record carries the label (field or tag).
    pub fn has(&self, label: Label) -> bool {
        self.shape.contains(label)
    }

    /// Removes a label if present; returns whether it was there.
    pub fn remove(&mut self, label: Label) -> bool {
        match label.kind() {
            LabelKind::Field => match self.shape.field_index(label) {
                Some(i) => {
                    self.shape = self.shape.without(label);
                    self.fields.remove(i);
                    true
                }
                None => false,
            },
            LabelKind::Tag => match self.shape.tag_index(label) {
                Some(i) => {
                    self.shape = self.shape.without(label);
                    self.tags.remove(i);
                    true
                }
                None => false,
            },
        }
    }

    /// Iterates field entries in label order.
    pub fn fields(&self) -> impl Iterator<Item = (Label, &Value)> {
        self.shape.fields().iter().copied().zip(self.fields.iter())
    }

    /// Iterates tag entries in label order.
    pub fn tags(&self) -> impl Iterator<Item = (Label, i64)> + '_ {
        self.shape
            .tags()
            .iter()
            .copied()
            .zip(self.tags.iter().copied())
    }

    /// The record's type: its set of labels (allocates — hot paths key
    /// on [`Record::shape`] instead).
    pub fn record_type(&self) -> RecordType {
        self.shape.record_type()
    }

    /// Iterates every label of the record (fields then tags) in the
    /// sorted order [`Record::record_type`] would produce, without
    /// allocating.
    pub fn labels(&self) -> impl Iterator<Item = Label> + '_ {
        self.shape.labels()
    }

    /// True when the record can enter an input of type `ty`
    /// (record subtyping: `ty ⊆ labels(self)`).
    pub fn matches(&self, ty: &RecordType) -> bool {
        ty.labels().iter().all(|l| self.shape.contains(*l))
    }

    /// Splits the record against an input type: the first component
    /// carries exactly the labels of `ty` (what the box function sees),
    /// the second the *excess* kept by the runtime for flow
    /// inheritance. `None` when the record does not match `ty`.
    ///
    /// Resolves the compiled [`SplitPlan`] for `(shape, ty)` and
    /// applies it; components that process many records against one
    /// fixed type resolve the plan once per shape and call
    /// [`Record::split_with`] directly.
    pub fn split_for(&self, ty: &RecordType) -> Option<(Record, Record)> {
        let plan = self.shape.split_plan(Shape::of_type(ty))?;
        Some(self.split_with(plan))
    }

    /// Applies a compiled split plan (straight value copies by index).
    /// The plan must have been compiled for this record's shape.
    pub fn split_with(&self, plan: &SplitPlan) -> (Record, Record) {
        let excess = self.gather(plan, plan.excess, &plan.excess_fields, &plan.excess_tags);
        (self.matched_with(plan), excess)
    }

    /// The matched half of a compiled split alone: what a box function
    /// or a filter pattern sees. The excess stays where it is, in
    /// `self`, and [`Record::inherit_from`] reads it from there.
    pub fn matched_with(&self, plan: &SplitPlan) -> Record {
        self.gather(plan, plan.matched, &plan.matched_fields, &plan.matched_tags)
    }

    /// A record of `shape` whose values are copied from `self` at the
    /// given field and tag indices.
    fn gather(&self, plan: &SplitPlan, shape: Shape, fields: &[u32], tags: &[u32]) -> Record {
        debug_assert_eq!(plan.source, self.shape, "split plan for a different shape");
        let own_fields = self.fields.as_slice();
        let own_tags = self.tags.as_slice();
        Record {
            shape,
            corr: 0,
            fields: fields
                .iter()
                .map(|&i| own_fields[i as usize].clone())
                .collect(),
            tags: tags.iter().map(|&i| own_tags[i as usize]).collect(),
        }
    }

    /// Flow inheritance: extends `self` with every entry of `excess`
    /// whose label is not already present (paper, Section 4: present
    /// labels win, the inherited entry "is discarded").
    pub fn inherit(self, excess: &Record) -> Record {
        let (fields, tags) = (excess.fields.as_slice(), excess.tags.as_slice());
        self.merge(excess.shape, |i| &fields[i], |i| tags[i])
    }

    /// Flow inheritance straight from the record a box or filter
    /// consumed: extends `self` with the excess of `source` under the
    /// compiled `split` (the labels of `source` outside the input
    /// type), reading those values in place — no excess record is
    /// built. Same result as `self.inherit(&source.split_with(split).1)`;
    /// `source` is not touched, so it can be re-read for every output
    /// record. The output takes the
    /// correlation word of `source`, whatever it carried before.
    pub fn inherit_from(mut self, source: &Record, split: &SplitPlan) -> Record {
        debug_assert_eq!(
            split.source, source.shape,
            "split plan for a different shape"
        );
        self.corr = source.corr;
        let (fields, tags) = (source.fields.as_slice(), source.tags.as_slice());
        self.merge(
            split.excess,
            |i| &fields[split.excess_fields[i] as usize],
            |i| tags[split.excess_tags[i] as usize],
        )
    }

    /// The one flow-inheritance merge: `excess` is the inherited
    /// shape, `field(i)` / `tag(i)` the value of its `i`-th field /
    /// tag slot. Applies the compiled [`crate::shape::InheritPlan`]
    /// for the shape pair: the identity case (nothing to inherit)
    /// returns `self` untouched; otherwise each inherited value is
    /// inserted at its result slot and the output's own values move,
    /// never clone.
    fn merge<'e>(
        mut self,
        excess: Shape,
        field: impl Fn(usize) -> &'e Value,
        tag: impl Fn(usize) -> i64,
    ) -> Record {
        if excess.is_empty() {
            return self;
        }
        let plan = self.shape.inherit_plan(excess);
        if plan.identity {
            return self;
        }
        // The plan keeps every own value, in order, so inserting the
        // inherited ones at their result slots front to back leaves
        // each value where the merged shape expects it.
        for (slot, src) in plan.fields.iter().enumerate() {
            if src.from_excess {
                self.fields.insert(slot, field(src.idx as usize).clone());
            }
        }
        for (slot, src) in plan.tags.iter().enumerate() {
            if src.from_excess {
                self.tags.insert(slot, tag(src.idx as usize));
            }
        }
        self.shape = plan.result;
        self
    }

    /// Projects the record onto a set of labels (used by filters: "a
    /// field name occurring in the pattern: it is copied").
    pub fn project(&self, ty: &RecordType) -> Record {
        let mut out = Record::new();
        for (l, v) in self.fields() {
            if ty.contains(l) {
                out.set_field_label(l, v.clone());
            }
        }
        for (l, v) in self.tags() {
            if ty.contains(l) {
                out.set_tag_label(l, v);
            }
        }
        out
    }
}

/// Structural: the same labels with the same values. The correlation
/// word is not compared.
impl PartialEq for Record {
    fn eq(&self, other: &Record) -> bool {
        self.shape == other.shape && self.fields == other.fields && self.tags == other.tags
    }
}

impl fmt::Debug for Record {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        let mut first = true;
        for (l, v) in self.fields() {
            if !first {
                write!(f, ", ")?;
            }
            first = false;
            write!(f, "{l}={v:?}")?;
        }
        for (l, v) in self.tags() {
            if !first {
                write!(f, ", ")?;
            }
            first = false;
            write!(f, "{l}={v}")?;
        }
        write!(f, "}}")
    }
}

/// Fluent construction of records.
pub struct RecordBuilder(Record);

impl RecordBuilder {
    pub fn field(mut self, name: &str, value: impl Into<Value>) -> Self {
        self.0.set_field(name, value.into());
        self
    }

    pub fn tag(mut self, name: &str, value: i64) -> Self {
        self.0.set_tag(name, value);
        self
    }

    pub fn finish(self) -> Record {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec_abd() -> Record {
        // The paper's flow-inheritance example input: {a,<b>,d}.
        Record::build()
            .field("a", 1i64)
            .tag("b", 10)
            .field("d", 4i64)
            .finish()
    }

    #[test]
    fn set_get_remove_roundtrip() {
        let mut r = Record::new();
        assert!(r.is_empty());
        r.set_field("x", Value::Int(5));
        r.set_tag("t", 7);
        assert_eq!(r.field("x").unwrap().as_int(), Some(5));
        assert_eq!(r.tag("t"), Some(7));
        assert_eq!(r.len(), 2);
        // Replacement, not duplication.
        r.set_field("x", Value::Int(6));
        assert_eq!(r.field("x").unwrap().as_int(), Some(6));
        assert_eq!(r.len(), 2);
        assert!(r.remove(Label::field("x")));
        assert!(!r.remove(Label::field("x")));
        assert_eq!(r.field("x"), None);
    }

    #[test]
    fn fields_and_tags_are_separate_namespaces() {
        let mut r = Record::new();
        r.set_field("k", Value::Int(1));
        r.set_tag("k", 2);
        assert_eq!(r.field("k").unwrap().as_int(), Some(1));
        assert_eq!(r.tag("k"), Some(2));
        assert_eq!(r.len(), 2);
    }

    #[test]
    #[should_panic(expected = "requires a field label")]
    fn set_field_with_tag_label_panics() {
        let mut r = Record::new();
        r.set_field_label(Label::tag("t"), Value::Int(1));
    }

    #[test]
    fn record_type_collects_all_labels() {
        let r = rec_abd();
        let t = r.record_type();
        assert!(t.contains(Label::field("a")));
        assert!(t.contains(Label::tag("b")));
        assert!(t.contains(Label::field("d")));
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn shape_identity_tracks_label_set() {
        let a = rec_abd();
        let b = Record::build()
            .field("d", 9i64)
            .tag("b", 0)
            .field("a", 9i64)
            .finish();
        // Same labels, any construction order: same interned shape.
        assert_eq!(a.shape(), b.shape());
        assert_eq!(a.shape().id(), b.shape().id());
        let c = Record::build().field("a", 1i64).finish();
        assert_ne!(a.shape(), c.shape());
    }

    #[test]
    fn matches_is_subtype_acceptance() {
        let r = rec_abd();
        assert!(r.matches(&RecordType::of(&["a"], &["b"])));
        assert!(r.matches(&RecordType::empty()));
        assert!(!r.matches(&RecordType::of(&["a", "z"], &[])));
    }

    #[test]
    fn split_for_partitions_matched_and_excess() {
        // Box foo (a,<b>) receiving {a,<b>,d}: a and <b> are arguments,
        // d is kept by the runtime (paper, Section 4).
        let r = rec_abd();
        let ty = RecordType::of(&["a"], &["b"]);
        let (matched, excess) = r.split_for(&ty).unwrap();
        assert_eq!(matched.record_type(), ty);
        assert_eq!(excess.record_type(), RecordType::of(&["d"], &[]));
        assert_eq!(excess.field("d").unwrap().as_int(), Some(4));
        // Non-matching split yields None.
        assert!(r.split_for(&RecordType::of(&["zz"], &[])).is_none());
    }

    #[test]
    fn inherit_from_reads_the_excess_of_the_source() {
        // Box foo (a,<b>) on {a,<b>,d}: {c} gains d from the source,
        // {c,d} keeps its own d — the same records as split-then-inherit.
        let r = rec_abd();
        let ty = RecordType::of(&["a"], &["b"]);
        let plan = r.shape().split_plan(Shape::of_type(&ty)).unwrap();
        let (matched, excess) = r.split_for(&ty).unwrap();
        assert_eq!(r.matched_with(plan), matched);
        let out = Record::build().field("c", 9i64).finish();
        let merged = out.clone().inherit_from(&r, plan);
        assert_eq!(merged, out.inherit(&excess));
        assert_eq!(merged.field("d").unwrap().as_int(), Some(4));
        let own = Record::build().field("c", 9i64).field("d", 99i64).finish();
        assert_eq!(own.clone().inherit_from(&r, plan), own);
    }

    #[test]
    fn inherit_attaches_excess_unless_present() {
        // Output {c} inherits d; output {c,d,<e>} keeps its own d.
        let excess = Record::build().field("d", 4i64).finish();
        let out1 = Record::build().field("c", 9i64).finish().inherit(&excess);
        assert_eq!(out1.field("d").unwrap().as_int(), Some(4));
        let out2 = Record::build()
            .field("c", 9i64)
            .field("d", 99i64)
            .finish()
            .inherit(&excess);
        assert_eq!(out2.field("d").unwrap().as_int(), Some(99));
    }

    #[test]
    fn inherit_covers_tags_too() {
        let excess = Record::build().tag("lvl", 3).finish();
        let out = Record::build().tag("k", 1).finish().inherit(&excess);
        assert_eq!(out.tag("lvl"), Some(3));
        let out2 = Record::build().tag("lvl", 8).finish().inherit(&excess);
        assert_eq!(out2.tag("lvl"), Some(8));
    }

    #[test]
    fn project_copies_only_pattern_labels() {
        let r = rec_abd();
        let p = r.project(&RecordType::of(&["a"], &[]));
        assert_eq!(p.len(), 1);
        assert_eq!(p.field("a").unwrap().as_int(), Some(1));
    }

    #[test]
    fn equality_is_structural() {
        let a = Record::build().field("x", 1i64).tag("t", 2).finish();
        let b = Record::build().tag("t", 2).field("x", 1i64).finish();
        assert_eq!(a, b);
        let c = Record::build().field("x", 1i64).tag("t", 3).finish();
        assert_ne!(a, c);
        // Different shapes short-circuit on the id.
        let d = Record::build().field("y", 1i64).tag("t", 2).finish();
        assert_ne!(a, d);
    }

    #[test]
    fn large_records_spill_and_stay_correct() {
        // Past the inline capacity in both halves: same observable
        // semantics, values stay aligned with sorted labels.
        let mut r = Record::new();
        for i in (0..10i64).rev() {
            r.set_field(&format!("f{i}"), Value::Int(i));
            r.set_tag(&format!("t{i}"), i * 10);
        }
        assert_eq!(r.len(), 20);
        for i in 0..10i64 {
            assert_eq!(r.field(&format!("f{i}")).unwrap().as_int(), Some(i));
            assert_eq!(r.tag(&format!("t{i}")), Some(i * 10));
        }
        let ty = RecordType::of(&["f0", "f5"], &["t3"]);
        let (m, e) = r.split_for(&ty).unwrap();
        assert_eq!(m.len(), 3);
        assert_eq!(e.len(), 17);
        assert_eq!(m.inherit(&e), r);
        assert!(r.remove(Label::field("f7")));
        assert_eq!(r.len(), 19);
    }

    #[test]
    fn tag_value_at_is_slot_aligned() {
        let r = Record::build().tag("b", 2).tag("a", 1).finish();
        let shape = r.shape();
        let ia = shape.tag_index(Label::tag("a")).unwrap();
        let ib = shape.tag_index(Label::tag("b")).unwrap();
        assert_eq!(r.tag_value_at(ia), 1);
        assert_eq!(r.tag_value_at(ib), 2);
    }

    #[test]
    fn the_correlation_word_follows_inherit_from_only() {
        let mut r = rec_abd();
        r.set_corr(7);
        let ty = RecordType::of(&["a"], &["b"]);
        let plan = r.shape().split_plan(Shape::of_type(&ty)).unwrap();
        // The matched half, a split and a fresh record carry none.
        assert_eq!(r.matched_with(plan).corr(), 0);
        let (matched, excess) = r.split_with(plan);
        assert_eq!((matched.corr(), excess.corr()), (0, 0));
        assert_eq!(Record::new().corr(), 0);
        // Every output takes the source's word, over whatever it had.
        let mut out = Record::build().field("c", 9i64).finish();
        out.set_corr(99);
        assert_eq!(out.clone().inherit_from(&r, plan).corr(), 7);
        let identity = r.shape().split_plan(r.shape()).unwrap();
        assert_eq!(out.inherit_from(&r, identity).corr(), 7);
        // It is no label: equality, the shape and `Debug` ignore it.
        let mut twin = r.clone();
        assert_eq!(twin.take_corr(), 7);
        assert_eq!((twin.corr(), r.corr()), (0, 7));
        assert_eq!(twin, r);
        assert_eq!(twin.shape(), r.shape());
        assert_eq!(format!("{twin:?}"), format!("{r:?}"));
    }

    /// Records are moved through every stream and cloned at every
    /// fan-out; fat messages cost the det split half its throughput
    /// once already. The budget is two cache lines' worth of words:
    /// the shape, the correlation word and four inline values of each
    /// kind.
    #[test]
    fn a_record_fits_in_128_bytes() {
        assert!(
            std::mem::size_of::<Record>() <= 128,
            "Record is {} bytes",
            std::mem::size_of::<Record>()
        );
    }

    #[test]
    fn debug_render() {
        let r = Record::build().field("a", 1i64).tag("k", 2).finish();
        let s = format!("{r:?}");
        assert!(s.contains("a=Int(1)"));
        assert!(s.contains("<k>=2"));
    }
}
