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
//! shape's label halves. The labels live in the interner, `&'static`
//! and shared by every record of the shape, and the shape is the only
//! length the arrays have: a half's values are inline while its arity
//! is at most [`INLINE_SLOTS`] (four), and on the heap exactly when it
//! exceeds four. Records of up to four fields and four tags — every
//! workload in this tree — are **allocation-free to construct, clone,
//! split and inherit**.
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
use crate::shape::{InheritSrc, Shape, SplitPlan};
use crate::value::Value;
use std::fmt;
use std::mem::{self, ManuallyDrop, MaybeUninit};
use std::ptr;

/// Inline value slots per kind half: a half of at most this many
/// values lives in the record itself, a larger one on the heap, so
/// records with at most this many fields and this many tags never
/// touch the heap.
pub const INLINE_SLOTS: usize = 4;

/// One half of a record's values, aligned with that half of its
/// shape. It stores no length and no discriminant: the *arity* `n`
/// is the shape's (`shape.fields().len()` or `shape.tags().len()`),
/// and every method takes it from its caller.
///
/// **The arity invariant**, which every `unsafe` block below relies
/// on: slots of arity `n ≤ INLINE_SLOTS` are `inline`, with exactly
/// their first `n` slots initialised; slots of arity `n >
/// INLINE_SLOTS` are `heap`, a `Vec` of exactly `n` values. `Record`
/// keeps it by changing a half's slots and its shape together.
union Slots<T> {
    inline: ManuallyDrop<[MaybeUninit<T>; INLINE_SLOTS]>,
    heap: ManuallyDrop<Vec<T>>,
}

impl<T> Slots<T> {
    /// Slots of arity 0.
    fn empty() -> Slots<T> {
        Slots {
            inline: ManuallyDrop::new([const { MaybeUninit::uninit() }; INLINE_SLOTS]),
        }
    }

    /// Slots of arity `n` holding the values `values` yields, which
    /// must be exactly `n`.
    fn collect(n: usize, values: impl Iterator<Item = T>) -> Slots<T> {
        if n > INLINE_SLOTS {
            let heap: Vec<T> = values.collect();
            assert_eq!(heap.len(), n, "slots of arity {n} given other values");
            return Slots {
                heap: ManuallyDrop::new(heap),
            };
        }
        let mut inline = [const { MaybeUninit::uninit() }; INLINE_SLOTS];
        let mut len = 0;
        for value in values {
            inline[len].write(value);
            len += 1;
        }
        assert_eq!(len, n, "slots of arity {n} given other values");
        Slots {
            inline: ManuallyDrop::new(inline),
        }
    }

    /// A copy of slots of arity `n`, at the same arity. Not
    /// `collect`: zipping the slots with the values needs no count
    /// and no check, and cloned a one-field record in about half the
    /// time (x86-64, release build).
    fn cloned(&self, n: usize) -> Slots<T>
    where
        T: Clone,
    {
        if n > INLINE_SLOTS {
            return Slots {
                heap: ManuallyDrop::new(self.as_slice(n).to_vec()),
            };
        }
        let mut inline = [const { MaybeUninit::uninit() }; INLINE_SLOTS];
        for (slot, value) in inline.iter_mut().zip(self.as_slice(n)) {
            slot.write(value.clone());
        }
        Slots {
            inline: ManuallyDrop::new(inline),
        }
    }

    fn as_slice(&self, n: usize) -> &[T] {
        if n > INLINE_SLOTS {
            // SAFETY: arity invariant: at n > INLINE_SLOTS `heap` is
            // the live field, a Vec of the n values.
            let heap: &Vec<T> = unsafe { &self.heap };
            debug_assert_eq!(heap.len(), n, "heap slots of another arity");
            heap
        } else {
            // SAFETY: arity invariant: at n <= INLINE_SLOTS `inline`
            // is the live field and its first n slots are initialised.
            unsafe { std::slice::from_raw_parts(self.inline.as_ptr().cast::<T>(), n) }
        }
    }

    fn as_mut_slice(&mut self, n: usize) -> &mut [T] {
        if n > INLINE_SLOTS {
            // SAFETY: arity invariant, as in `as_slice`.
            unsafe { &mut self.heap }
        } else {
            // SAFETY: arity invariant, as in `as_slice`.
            unsafe { std::slice::from_raw_parts_mut(self.inline.as_mut_ptr().cast::<T>(), n) }
        }
    }

    /// Inserts `value` at position `i` of slots of arity `n`, which
    /// then have arity `n + 1`: spills to the heap at 4 → 5.
    fn insert(&mut self, n: usize, i: usize, value: T) {
        assert!(i <= n, "insert at {i} into arity {n}");
        if n < INLINE_SLOTS {
            // SAFETY: arity invariant at n < INLINE_SLOTS: `inline` is
            // live with slots 0..n initialised and slot n free.
            // Shifting i..n one right leaves slot i to the write, and
            // 0..=n initialised is the invariant at arity n + 1.
            unsafe {
                let p = self.inline.as_mut_ptr().cast::<T>();
                ptr::copy(p.add(i), p.add(i + 1), n - i);
                p.add(i).write(value);
            }
        } else if n == INLINE_SLOTS {
            let mut heap = Vec::with_capacity(n + 1);
            // SAFETY: arity invariant at n == INLINE_SLOTS: `inline` is
            // live and full. Its values move bitwise into `heap`,
            // which then replaces them as the live field (arity
            // n + 1 > INLINE_SLOTS), so each value has one owner.
            unsafe {
                ptr::copy_nonoverlapping(self.inline.as_ptr().cast::<T>(), heap.as_mut_ptr(), n);
                heap.set_len(n);
            }
            heap.insert(i, value);
            self.heap = ManuallyDrop::new(heap);
        } else {
            // SAFETY: arity invariant at n > INLINE_SLOTS: `heap` is
            // live, and stays so at arity n + 1.
            unsafe { (*self.heap).insert(i, value) }
        }
    }

    /// Removes and returns the value at position `i` of slots of
    /// arity `n`, which then have arity `n - 1`: moves back inline at
    /// 5 → 4 and frees the heap `Vec`.
    fn remove(&mut self, n: usize, i: usize) -> T {
        assert!(i < n, "remove at {i} from arity {n}");
        if n <= INLINE_SLOTS {
            // SAFETY: arity invariant at n <= INLINE_SLOTS: `inline`
            // is live with slots 0..n initialised. Slot i is read out
            // and i+1..n shift left over it, leaving 0..n-1
            // initialised: the invariant at arity n - 1.
            return unsafe {
                let p = self.inline.as_mut_ptr().cast::<T>();
                let value = p.add(i).read();
                ptr::copy(p.add(i + 1), p.add(i), n - i - 1);
                value
            };
        }
        // SAFETY: arity invariant at n > INLINE_SLOTS: `heap` is live.
        let heap = unsafe { &mut *self.heap };
        let value = heap.remove(i);
        if n - 1 == INLINE_SLOTS {
            let mut inline = [const { MaybeUninit::uninit() }; INLINE_SLOTS];
            // SAFETY: arity invariant at n - 1 == INLINE_SLOTS: the
            // values must go inline. `heap` holds exactly those; they
            // move bitwise into `inline`, the Vec is told it holds
            // none and is freed, and `inline` becomes the live field,
            // each value with one owner.
            unsafe {
                ptr::copy_nonoverlapping(heap.as_ptr(), inline.as_mut_ptr().cast::<T>(), n - 1);
                heap.set_len(0);
                ManuallyDrop::drop(&mut self.heap);
            }
            self.inline = ManuallyDrop::new(inline);
        }
        value
    }

    /// The merged half of a flow inheritance: slots of arity
    /// `srcs.len()` whose slot `k` takes `inherited(srcs[k].idx)` where
    /// `from_excess` is set, and otherwise the next own value of these
    /// slots (arity `n`). Own values move; only inherited ones are
    /// made. The compiled plan keeps every own value, in order
    /// (present labels win), so all `n` move; the walk checks it. A
    /// half that inherits nothing is these slots as they are.
    fn merged(mut self, n: usize, srcs: &[InheritSrc], inherited: impl Fn(usize) -> T) -> Slots<T> {
        if srcs.len() == n {
            return self;
        }
        let own = self.as_slice(n);
        let mut next = 0;
        let out = Slots::collect(
            srcs.len(),
            srcs.iter().map(|src| {
                if src.from_excess {
                    return inherited(src.idx as usize);
                }
                assert_eq!(src.idx as usize, next, "own values merge in order");
                // SAFETY: arity invariant: `own` is the n values of these
                // slots (the index is bounds-checked). `next` walks them
                // in order, so each is read out once, and the storage is
                // freed below without them.
                let value = unsafe { ptr::read(&own[next]) };
                next += 1;
                value
            }),
        );
        debug_assert_eq!(next, n, "a merge left own values behind");
        if n > INLINE_SLOTS {
            // SAFETY: arity invariant at n > INLINE_SLOTS: `heap` is
            // live. Its values moved out above, so it is emptied
            // before it is freed.
            unsafe {
                (*self.heap).set_len(0);
                ManuallyDrop::drop(&mut self.heap);
            }
        }
        out
    }

    /// Drops the values of slots of arity `n` and frees their storage.
    /// The slots are dead afterwards: `Record`'s drop is the caller.
    fn drop_values(&mut self, n: usize) {
        if n > INLINE_SLOTS {
            // SAFETY: arity invariant at n > INLINE_SLOTS: `heap` is
            // live, and dropping it drops its n values, once: the
            // slots are not touched again.
            unsafe { ManuallyDrop::drop(&mut self.heap) }
        } else {
            // SAFETY: arity invariant at n <= INLINE_SLOTS: the first
            // n slots of `inline` are initialised, and they drop once:
            // the slots are not touched again.
            unsafe { ptr::drop_in_place(self.as_mut_slice(n)) }
        }
    }
}

/// A record: an interned shape plus shape-aligned value storage.
pub struct Record {
    shape: Shape,
    /// The correlation word (module docs); 0 unless someone set it.
    corr: u64,
    /// Field values, aligned with `shape.fields()`.
    fields: Slots<Value>,
    /// Tag values, aligned with `shape.tags()`.
    tags: Slots<i64>,
}

impl Default for Record {
    fn default() -> Record {
        Record {
            shape: Shape::empty(),
            corr: 0,
            fields: Slots::empty(),
            tags: Slots::empty(),
        }
    }
}

impl Clone for Record {
    fn clone(&self) -> Record {
        let (nf, nt) = self.arity();
        Record {
            shape: self.shape,
            corr: self.corr,
            fields: self.fields.cloned(nf),
            tags: self.tags.cloned(nt),
        }
    }
}

impl Drop for Record {
    fn drop(&mut self) {
        let (nf, nt) = self.arity();
        self.fields.drop_values(nf);
        self.tags.drop_values(nt);
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

    /// The arity of each half, `(fields, tags)`: the lengths of the
    /// value slots.
    fn arity(&self) -> (usize, usize) {
        (self.shape.fields().len(), self.shape.tags().len())
    }

    /// The values of each half, aligned with the shape's labels.
    fn values(&self) -> (&[Value], &[i64]) {
        let (nf, nt) = self.arity();
        (self.fields.as_slice(nf), self.tags.as_slice(nt))
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
        mem::take(&mut self.corr)
    }

    /// Number of fields plus tags.
    pub fn len(&self) -> usize {
        self.shape.len()
    }

    pub fn is_empty(&self) -> bool {
        self.shape.is_empty()
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
        let (nf, _) = self.arity();
        match self.shape.field_index(label) {
            Some(i) => self.fields.as_mut_slice(nf)[i] = value,
            None => {
                let (shape, slot) = self.shape.with(label);
                self.fields.insert(nf, slot, value);
                self.shape = shape;
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
        let (_, nt) = self.arity();
        match self.shape.tag_index(label) {
            Some(i) => self.tags.as_mut_slice(nt)[i] = value,
            None => {
                let (shape, slot) = self.shape.with(label);
                self.tags.insert(nt, slot, value);
                self.shape = shape;
            }
        }
    }

    /// Looks up a field by name.
    pub fn field(&self, name: &str) -> Option<&Value> {
        self.field_label(Label::field(name))
    }

    pub fn field_label(&self, label: Label) -> Option<&Value> {
        let i = self.shape.field_index(label)?;
        Some(&self.values().0[i])
    }

    /// Looks up a tag by name.
    pub fn tag(&self, name: &str) -> Option<i64> {
        self.tag_label(Label::tag(name))
    }

    pub fn tag_label(&self, label: Label) -> Option<i64> {
        self.shape.tag_index(label).map(|i| self.tag_value_at(i))
    }

    /// The tag value in slot `i` of the shape's tag half — for callers
    /// that resolved the slot once per shape (e.g. the indexed-split
    /// dispatcher) instead of re-searching per record.
    pub fn tag_value_at(&self, i: usize) -> i64 {
        self.values().1[i]
    }

    /// True when the record carries the label (field or tag).
    pub fn has(&self, label: Label) -> bool {
        self.shape.contains(label)
    }

    /// Removes a label if present; returns whether it was there.
    pub fn remove(&mut self, label: Label) -> bool {
        let (nf, nt) = self.arity();
        match label.kind() {
            LabelKind::Field => match self.shape.field_index(label) {
                Some(i) => {
                    self.shape = self.shape.without(label);
                    self.fields.remove(nf, i);
                    true
                }
                None => false,
            },
            LabelKind::Tag => match self.shape.tag_index(label) {
                Some(i) => {
                    self.shape = self.shape.without(label);
                    self.tags.remove(nt, i);
                    true
                }
                None => false,
            },
        }
    }

    /// Iterates field entries in label order.
    pub fn fields(&self) -> impl Iterator<Item = (Label, &Value)> {
        self.shape.fields().iter().copied().zip(self.values().0)
    }

    /// Iterates tag entries in label order.
    pub fn tags(&self) -> impl Iterator<Item = (Label, i64)> + '_ {
        let values = self.values().1.iter().copied();
        self.shape.tags().iter().copied().zip(values)
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
        let (own_fields, own_tags) = self.values();
        Record {
            shape,
            corr: 0,
            fields: Slots::collect(
                shape.fields().len(),
                fields.iter().map(|&i| own_fields[i as usize].clone()),
            ),
            tags: Slots::collect(
                shape.tags().len(),
                tags.iter().map(|&i| own_tags[i as usize]),
            ),
        }
    }

    /// Flow inheritance: extends `self` with every entry of `excess`
    /// whose label is not already present (paper, Section 4: present
    /// labels win, the inherited entry "is discarded").
    pub fn inherit(self, excess: &Record) -> Record {
        let (fields, tags) = excess.values();
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
        let (fields, tags) = source.values();
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
    /// returns `self` untouched; otherwise each result half is built
    /// once, at its arity, from the plan: the output's own values
    /// move, never clone, and only the inherited ones are copied.
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
        // The record's values leave it for the merge: with the empty
        // shape and empty slots behind them, dropping it on a panic
        // drops nothing twice.
        let (nf, nt) = self.arity();
        self.shape = Shape::empty();
        let own_fields = mem::replace(&mut self.fields, Slots::empty());
        let own_tags = mem::replace(&mut self.tags, Slots::empty());
        self.fields = own_fields.merged(nf, &plan.fields, |i| field(i).clone());
        self.tags = own_tags.merged(nt, &plan.tags, tag);
        self.shape = plan.result;
        self
    }
}

/// Structural: the same labels with the same values. The correlation
/// word is not compared.
impl PartialEq for Record {
    fn eq(&self, other: &Record) -> bool {
        self.shape == other.shape && self.values() == other.values()
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
    /// once already. The budget is the shape, the correlation word
    /// and four inline values of each kind (16-byte values, 8-byte
    /// tags): the shape holds both lengths, so the slots hold none.
    #[test]
    fn a_record_fits_in_112_bytes() {
        assert!(
            std::mem::size_of::<Record>() <= 112,
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
