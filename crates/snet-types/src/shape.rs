//! Interned record *shapes* and compiled per-shape type-operation
//! plans.
//!
//! A **shape** is the sorted field+tag label set of a record — its
//! type, stripped of values. PR 1 interned label strings, PR 1/2
//! interned component paths and memoized routing per label sequence;
//! this module makes the same move for the label *sets* themselves:
//! every distinct shape is interned process-wide into a copyable
//! [`Shape`] handle (`(id, &'static ShapeInfo)`), so
//!
//! * a record names its type with one `u32` — type-keyed memos
//!   ([`snet-runtime`'s `TypeMemo`]) become a plain id-keyed map hit
//!   with no element-wise key verification;
//! * the per-record halves of subtype acceptance and flow inheritance
//!   compile, **once per shape pair**, into index-map plans
//!   ([`SplitPlan`], [`InheritPlan`]) that are then applied as
//!   straight array copies — no per-label binary searches, no subset
//!   tests on the hot path.
//!
//! # Why shape interning is bounded (unlike path interning)
//!
//! Shapes are subsets of the *label universe*, which is fixed by the
//! program text (box signatures, filter specifiers, routing tags).
//! Records flowing through a network only ever carry labels some
//! declaration introduced, so the set of shapes that actually occurs
//! is bounded by program structure — in practice a few dozen. This is
//! the crucial contrast with `CompPath` interning, where indexed-split
//! branch paths embed the routing tag *value* and therefore grow with
//! the (potentially unbounded) tag domain. Tag values never enter a
//! shape. An application that fabricates unboundedly many distinct
//! label *names* at runtime would grow this interner — but it would
//! grow the label interner identically, a pre-existing (and
//! documented) property of the label model.
//!
//! Transition caches (`shape + label -> shape'`) make incremental
//! record construction (`set_field`/`set_tag`/`remove`) cheap once
//! warm, and plan caches do the same for `split_for`/`inherit`. All
//! interned data is leaked, like labels and paths: handles are
//! `Copy`, lookups return `&'static` references, and the universes
//! are bounded per the argument above.
//!
//! # Lock-free warm construction
//!
//! Warm transitions resolve through a **thread-local** mirror of the
//! process-wide transition tables before touching the table lock:
//! once a thread has seen a `(shape, label)` transition, every later
//! `set_field`/`set_tag`/`remove` taking it is a plain map hit with
//! no shared atomic RMW at all. The process-wide read lock was
//! invisible on one core, but it is one shared cache line bouncing
//! between every pool worker constructing records concurrently —
//! the transition result is immutable (`&'static ShapeInfo`), so each
//! thread can cache it forever. The thread-local maps are bounded by
//! the same label-universe argument as the global tables; each thread
//! pays one global lookup per transition to warm its own copy.

use crate::fxmap::FxMap;
use crate::label::{Label, LabelKind};
use crate::rtype::RecordType;
use parking_lot::RwLock;

use std::sync::OnceLock;

/// The interned label sets of one shape. Leaked on first sight;
/// handed out as `&'static` so per-record code borrows freely.
pub struct ShapeInfo {
    id: u32,
    fields: Vec<Label>,
    tags: Vec<Label>,
}

/// An interned record shape: the sorted field and tag label sets.
/// One word (the id lives inside the leaked [`ShapeInfo`]) — a record
/// pays 8 bytes for its complete type identity. Cheap to copy;
/// equality is one pointer comparison (interning makes the info
/// pointer unique per shape).
#[derive(Clone, Copy)]
pub struct Shape {
    info: &'static ShapeInfo,
}

impl PartialEq for Shape {
    fn eq(&self, other: &Self) -> bool {
        std::ptr::eq(self.info, other.info)
    }
}

impl Eq for Shape {}

impl std::hash::Hash for Shape {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.info.id.hash(state);
    }
}

impl std::fmt::Debug for Shape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{{")?;
        for (i, l) in self.labels().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{l}")?;
        }
        write!(f, "}}")
    }
}

/// A compiled subtype-acceptance split: how records of shape `source`
/// partition against an input type of shape `matched`. Applying the
/// plan is straight array copies by the stored indices — the runtime
/// half of "split the record into what the box sees and the excess".
pub struct SplitPlan {
    /// The record shape this plan splits.
    pub source: Shape,
    /// The matched part's shape — exactly the input type's shape.
    pub matched: Shape,
    /// The excess part's shape.
    pub excess: Shape,
    /// For each matched field slot, its index in the source fields.
    pub matched_fields: Vec<u32>,
    /// For each excess field slot, its index in the source fields.
    pub excess_fields: Vec<u32>,
    /// For each matched tag slot, its index in the source tags.
    pub matched_tags: Vec<u32>,
    /// For each excess tag slot, its index in the source tags.
    pub excess_tags: Vec<u32>,
}

impl SplitPlan {
    /// True when the whole record is matched (no excess): the record
    /// can be handed to the box as-is, with nothing to inherit back.
    pub fn is_identity(&self) -> bool {
        self.excess.is_empty()
    }
}

/// One slot of an [`InheritPlan`] result: where the value comes from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct InheritSrc {
    /// Take the value from the excess record (false: from the output
    /// record itself — present labels win, paper Section 4).
    pub from_excess: bool,
    /// Index into the source's same-kind value array.
    pub idx: u32,
}

/// A compiled flow-inheritance merge for one (output shape, excess
/// shape) pair: the result shape plus, per result slot, which source
/// array the value copies from. Duplicate labels resolve at compile
/// time — the output record's entry wins, the inherited one "is
/// discarded" — so applying the plan never compares labels.
pub struct InheritPlan {
    /// The merged record's shape.
    pub result: Shape,
    /// True when the excess contributes nothing (every excess label is
    /// already present, or the excess is empty): `inherit` returns the
    /// output record unchanged, no copies at all.
    pub identity: bool,
    /// Value source per result field slot.
    pub fields: Vec<InheritSrc>,
    /// Value source per result tag slot.
    pub tags: Vec<InheritSrc>,
}

struct Tables {
    /// label-sequence hash -> candidate shape ids (collisions resolved
    /// by element-wise comparison, once per *interning*, never on the
    /// id-keyed fast paths).
    buckets: FxMap<u64, Vec<u32>>,
    shapes: Vec<&'static ShapeInfo>,
    /// `(shape, label)` -> `(shape with label added, slot index)`.
    grown: FxMap<(u32, Label), (u32, u32)>,
    /// `(shape, label)` -> shape with label removed.
    shrunk: FxMap<(u32, Label), u32>,
    /// `(record shape, input-type shape)` -> split plan (`None` when
    /// the record does not match the type).
    splits: FxMap<(u32, u32), Option<&'static SplitPlan>>,
    /// `(output shape, excess shape)` -> inherit plan.
    inherits: FxMap<(u32, u32), &'static InheritPlan>,
}

/// The empty shape's info, cached outside the table lock:
/// `Shape::empty()` runs per constructed record (every
/// `Record::new()`), so it must be a plain pointer load.
static EMPTY_INFO: OnceLock<&'static ShapeInfo> = OnceLock::new();

/// Thread-local mirror of the `grown`/`shrunk` transition tables (see
/// module docs): warm record construction hits this cache without
/// taking the process-wide table's read lock. Values are immutable
/// `&'static` interner data, so a stale-free copy per thread is
/// always safe.
struct LocalTransitions {
    grown: FxMap<(u32, Label), (&'static ShapeInfo, u32)>,
    shrunk: FxMap<(u32, Label), &'static ShapeInfo>,
}

thread_local! {
    static LOCAL: std::cell::RefCell<LocalTransitions> =
        std::cell::RefCell::new(LocalTransitions {
            grown: FxMap::default(),
            shrunk: FxMap::default(),
        });
}

fn tables() -> &'static RwLock<Tables> {
    static TABLES: OnceLock<RwLock<Tables>> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut t = Tables {
            buckets: FxMap::default(),
            shapes: Vec::new(),
            grown: FxMap::default(),
            shrunk: FxMap::default(),
            splits: FxMap::default(),
            inherits: FxMap::default(),
        };
        // Shape 0 is the empty shape, so `Shape::empty()` never
        // misses.
        let info: &'static ShapeInfo = Box::leak(Box::new(ShapeInfo {
            id: 0,
            fields: Vec::new(),
            tags: Vec::new(),
        }));
        let _ = EMPTY_INFO.set(info);
        t.shapes.push(info);
        t.buckets.insert(label_hash(&[], &[]), vec![0]);
        RwLock::new(t)
    })
}

/// Order-dependent FNV over the (kind, id) label sequence — the same
/// scheme the route cache used before shapes subsumed it.
fn label_hash(fields: &[Label], tags: &[Label]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for l in fields.iter().chain(tags) {
        let v = (u64::from(l.id()) << 1) | u64::from(l.is_tag());
        h = (h ^ v).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn shape_at(t: &Tables, id: u32) -> Shape {
    Shape {
        info: t.shapes[id as usize],
    }
}

/// Interns the shape with the given sorted, deduplicated label halves.
fn intern_sorted(fields: &[Label], tags: &[Label]) -> Shape {
    debug_assert!(fields.windows(2).all(|w| w[0] < w[1]));
    debug_assert!(tags.windows(2).all(|w| w[0] < w[1]));
    debug_assert!(fields.iter().all(|l| l.is_field()));
    debug_assert!(tags.iter().all(|l| l.is_tag()));
    let h = label_hash(fields, tags);
    {
        let t = tables().read();
        if let Some(bucket) = t.buckets.get(&h) {
            for &id in bucket {
                let info = t.shapes[id as usize];
                if info.fields == fields && info.tags == tags {
                    return shape_at(&t, id);
                }
            }
        }
    }
    let mut t = tables().write();
    if let Some(bucket) = t.buckets.get(&h) {
        for &id in bucket {
            let info = t.shapes[id as usize];
            if info.fields == fields && info.tags == tags {
                return shape_at(&t, id);
            }
        }
    }
    let id = t.shapes.len() as u32;
    let info: &'static ShapeInfo = Box::leak(Box::new(ShapeInfo {
        id,
        fields: fields.to_vec(),
        tags: tags.to_vec(),
    }));
    t.shapes.push(info);
    t.buckets.entry(h).or_default().push(id);
    Shape { info }
}

impl Shape {
    /// The empty shape `{}` (lock-free after first use: every
    /// `Record::new()` calls this).
    pub fn empty() -> Shape {
        match EMPTY_INFO.get() {
            Some(info) => Shape { info },
            None => {
                let _ = tables(); // initializes EMPTY_INFO
                Shape {
                    info: EMPTY_INFO.get().expect("table init sets the empty shape"),
                }
            }
        }
    }

    /// Interns the shape of a [`RecordType`] (a sorted label set;
    /// fields sort before tags under the kind-major label order, so
    /// the halves are a partition point apart).
    pub fn of_type(ty: &RecordType) -> Shape {
        let labels = ty.labels();
        let split = labels.partition_point(|l| l.is_field());
        intern_sorted(&labels[..split], &labels[split..])
    }

    /// The shape's stable interner id.
    pub fn id(&self) -> u32 {
        self.info.id
    }

    /// The sorted field labels.
    pub fn fields(&self) -> &'static [Label] {
        &self.info.fields
    }

    /// The sorted tag labels.
    pub fn tags(&self) -> &'static [Label] {
        &self.info.tags
    }

    pub fn len(&self) -> usize {
        self.info.fields.len() + self.info.tags.len()
    }

    pub fn is_empty(&self) -> bool {
        self.info.fields.is_empty() && self.info.tags.is_empty()
    }

    /// All labels, fields then tags — the globally sorted order under
    /// the kind-major label ordering.
    pub fn labels(&self) -> impl Iterator<Item = Label> + 'static {
        self.info
            .fields
            .iter()
            .copied()
            .chain(self.info.tags.iter().copied())
    }

    /// Slot of a field label within the field half.
    pub fn field_index(&self, label: Label) -> Option<usize> {
        debug_assert_eq!(label.kind(), LabelKind::Field);
        self.info.fields.binary_search(&label).ok()
    }

    /// Slot of a tag label within the tag half.
    pub fn tag_index(&self, label: Label) -> Option<usize> {
        debug_assert_eq!(label.kind(), LabelKind::Tag);
        self.info.tags.binary_search(&label).ok()
    }

    pub fn contains(&self, label: Label) -> bool {
        match label.kind() {
            LabelKind::Field => self.field_index(label).is_some(),
            LabelKind::Tag => self.tag_index(label).is_some(),
        }
    }

    /// The shape as a [`RecordType`] (allocates — memo-miss paths
    /// only).
    pub fn record_type(&self) -> RecordType {
        self.labels().collect()
    }

    /// The shape with `label` added: `(new shape, insertion slot in
    /// the same-kind half)`. The label must not already be present.
    /// Cached per `(shape, label)` transition — thread-locally first,
    /// so warm record construction takes no lock at all.
    pub fn with(&self, label: Label) -> (Shape, usize) {
        debug_assert!(!self.contains(label));
        let key = (self.id(), label);
        if let Some((info, slot)) = LOCAL.with(|l| l.borrow().grown.get(&key).copied()) {
            return (Shape { info }, slot as usize);
        }
        let (shape, slot) = self.with_global(label);
        LOCAL.with(|l| l.borrow_mut().grown.insert(key, (shape.info, slot as u32)));
        (shape, slot)
    }

    /// The global-table half of [`Shape::with`]: one read-locked hit
    /// when some thread already interned the transition, the full
    /// computation plus a write-locked insert on process-wide first
    /// sight.
    fn with_global(&self, label: Label) -> (Shape, usize) {
        {
            let t = tables().read();
            if let Some(&(id, slot)) = t.grown.get(&(self.id(), label)) {
                return (shape_at(&t, id), slot as usize);
            }
        }
        let (half, other) = match label.kind() {
            LabelKind::Field => (&self.info.fields, &self.info.tags),
            LabelKind::Tag => (&self.info.tags, &self.info.fields),
        };
        let slot = half.partition_point(|l| *l < label);
        let mut grown = half.clone();
        grown.insert(slot, label);
        let shape = match label.kind() {
            LabelKind::Field => intern_sorted(&grown, other),
            LabelKind::Tag => intern_sorted(other, &grown),
        };
        tables()
            .write()
            .grown
            .insert((self.id(), label), (shape.id(), slot as u32));
        (shape, slot)
    }

    /// The shape with `label` removed (which must be present). Cached
    /// like [`Shape::with`] — thread-locally first, lock-free when
    /// warm.
    pub fn without(&self, label: Label) -> Shape {
        debug_assert!(self.contains(label));
        let key = (self.id(), label);
        if let Some(info) = LOCAL.with(|l| l.borrow().shrunk.get(&key).copied()) {
            return Shape { info };
        }
        let shape = self.without_global(label);
        LOCAL.with(|l| l.borrow_mut().shrunk.insert(key, shape.info));
        shape
    }

    fn without_global(&self, label: Label) -> Shape {
        {
            let t = tables().read();
            if let Some(&id) = t.shrunk.get(&(self.id(), label)) {
                return shape_at(&t, id);
            }
        }
        let (half, other) = match label.kind() {
            LabelKind::Field => (&self.info.fields, &self.info.tags),
            LabelKind::Tag => (&self.info.tags, &self.info.fields),
        };
        let mut shrunk = half.clone();
        let slot = shrunk.binary_search(&label).expect("label present");
        shrunk.remove(slot);
        let shape = match label.kind() {
            LabelKind::Field => intern_sorted(&shrunk, other),
            LabelKind::Tag => intern_sorted(other, &shrunk),
        };
        tables()
            .write()
            .shrunk
            .insert((self.id(), label), shape.id());
        shape
    }

    /// The compiled split of records of this shape against an input
    /// type of shape `ty`: `None` when such records do not match the
    /// type (subtype acceptance fails). Compiled once per shape pair,
    /// then a read-locked map hit.
    pub fn split_plan(&self, ty: Shape) -> Option<&'static SplitPlan> {
        {
            let t = tables().read();
            if let Some(&plan) = t.splits.get(&(self.id(), ty.id())) {
                return plan;
            }
        }
        let plan = self.compile_split(ty);
        let mut t = tables().write();
        *t.splits.entry((self.id(), ty.id())).or_insert(plan)
    }

    fn compile_split(&self, ty: Shape) -> Option<&'static SplitPlan> {
        // Subtype acceptance: every label of the input type must be
        // present on the record.
        if !ty.labels().all(|l| self.contains(l)) {
            return None;
        }
        let mut matched_fields = Vec::new();
        let mut excess_fields = Vec::new();
        let mut excess_field_labels = Vec::new();
        for (i, l) in self.info.fields.iter().enumerate() {
            if ty.field_index(*l).is_some() {
                matched_fields.push(i as u32);
            } else {
                excess_fields.push(i as u32);
                excess_field_labels.push(*l);
            }
        }
        let mut matched_tags = Vec::new();
        let mut excess_tags = Vec::new();
        let mut excess_tag_labels = Vec::new();
        for (i, l) in self.info.tags.iter().enumerate() {
            if ty.tag_index(*l).is_some() {
                matched_tags.push(i as u32);
            } else {
                excess_tags.push(i as u32);
                excess_tag_labels.push(*l);
            }
        }
        let excess = intern_sorted(&excess_field_labels, &excess_tag_labels);
        Some(Box::leak(Box::new(SplitPlan {
            source: *self,
            matched: ty,
            excess,
            matched_fields,
            excess_fields,
            matched_tags,
            excess_tags,
        })))
    }

    /// The compiled flow-inheritance merge of an output record of this
    /// shape with an excess record of shape `excess`. Compiled once
    /// per shape pair, then a read-locked map hit.
    pub fn inherit_plan(&self, excess: Shape) -> &'static InheritPlan {
        {
            let t = tables().read();
            if let Some(&plan) = t.inherits.get(&(self.id(), excess.id())) {
                return plan;
            }
        }
        let plan = self.compile_inherit(excess);
        let mut t = tables().write();
        t.inherits.entry((self.id(), excess.id())).or_insert(plan)
    }

    fn compile_inherit(&self, excess: Shape) -> &'static InheritPlan {
        // Merge the sorted halves; on a duplicate label the output
        // record's entry wins and the inherited one is discarded
        // (paper, Section 4).
        fn merge_half(own: &[Label], exc: &[Label]) -> (Vec<Label>, Vec<InheritSrc>) {
            let mut labels = Vec::with_capacity(own.len() + exc.len());
            let mut srcs = Vec::with_capacity(own.len() + exc.len());
            let (mut i, mut j) = (0, 0);
            while i < own.len() || j < exc.len() {
                let take_own = match (own.get(i), exc.get(j)) {
                    (Some(a), Some(b)) => {
                        if a == b {
                            j += 1; // duplicate: inherited entry discarded
                            true
                        } else {
                            a < b
                        }
                    }
                    (Some(_), None) => true,
                    (None, Some(_)) => false,
                    (None, None) => unreachable!(),
                };
                if take_own {
                    labels.push(own[i]);
                    srcs.push(InheritSrc {
                        from_excess: false,
                        idx: i as u32,
                    });
                    i += 1;
                } else {
                    labels.push(exc[j]);
                    srcs.push(InheritSrc {
                        from_excess: true,
                        idx: j as u32,
                    });
                    j += 1;
                }
            }
            (labels, srcs)
        }
        let (flabels, fsrcs) = merge_half(&self.info.fields, &excess.info.fields);
        let (tlabels, tsrcs) = merge_half(&self.info.tags, &excess.info.tags);
        let result = intern_sorted(&flabels, &tlabels);
        let identity = result == *self;
        Box::leak(Box::new(InheritPlan {
            result,
            identity,
            fields: fsrcs,
            tags: tsrcs,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l(name: &str) -> Label {
        Label::field(name)
    }
    fn t(name: &str) -> Label {
        Label::tag(name)
    }

    #[test]
    fn interning_dedups_and_orders() {
        let a = Shape::of_type(&RecordType::of(&["a", "d"], &["b"]));
        let b = Shape::of_type(&RecordType::of(&["d", "a"], &["b"]));
        assert_eq!(a, b);
        assert_eq!(a.id(), b.id());
        assert_eq!(a.fields(), &[l("a"), l("d")]);
        assert_eq!(a.tags(), &[t("b")]);
        assert_eq!(a.len(), 3);
        let c = Shape::of_type(&RecordType::of(&["a"], &["b"]));
        assert_ne!(a, c);
    }

    #[test]
    fn empty_shape_is_id_zero() {
        assert_eq!(Shape::empty().id(), 0);
        assert!(Shape::empty().is_empty());
        assert_eq!(Shape::of_type(&RecordType::empty()), Shape::empty());
    }

    #[test]
    fn field_and_tag_of_same_name_are_distinct_shapes() {
        let f = Shape::of_type(&RecordType::of(&["k"], &[]));
        let g = Shape::of_type(&RecordType::of(&[], &["k"]));
        assert_ne!(f, g);
    }

    #[test]
    fn with_and_without_roundtrip_through_cache() {
        let s = Shape::empty();
        let (s1, i1) = s.with(l("b"));
        assert_eq!(i1, 0);
        let (s2, i2) = s1.with(l("a"));
        assert_eq!(i2, 0); // `a` sorts before `b`
        let (s3, i3) = s2.with(t("z"));
        assert_eq!(i3, 0); // first tag slot
        assert_eq!(s3.record_type(), RecordType::of(&["a", "b"], &["z"]));
        // Cached transitions return the identical shape.
        let (s1b, _) = s.with(l("b"));
        assert_eq!(s1, s1b);
        assert_eq!(
            s3.without(l("a")),
            Shape::of_type(&RecordType::of(&["b"], &["z"]))
        );
        assert_eq!(s3.without(t("z")), s2);
    }

    #[test]
    fn split_plan_partitions_by_index() {
        let rec = Shape::of_type(&RecordType::of(&["a", "d"], &["b"]));
        let ty = Shape::of_type(&RecordType::of(&["a"], &["b"]));
        let plan = rec.split_plan(ty).unwrap();
        assert_eq!(plan.matched, ty);
        assert_eq!(plan.excess, Shape::of_type(&RecordType::of(&["d"], &[])));
        assert_eq!(plan.matched_fields, vec![0]);
        assert_eq!(plan.excess_fields, vec![1]);
        assert_eq!(plan.matched_tags, vec![0]);
        assert!(plan.excess_tags.is_empty());
        assert!(!plan.is_identity());
        // Same pair -> same leaked plan.
        assert!(std::ptr::eq(plan, rec.split_plan(ty).unwrap()));
        // Non-matching type -> None, cached too.
        let wrong = Shape::of_type(&RecordType::of(&["zz"], &[]));
        assert!(rec.split_plan(wrong).is_none());
        assert!(rec.split_plan(wrong).is_none());
    }

    #[test]
    fn identity_split_has_no_excess() {
        let s = Shape::of_type(&RecordType::of(&["x"], &["k"]));
        let plan = s.split_plan(s).unwrap();
        assert!(plan.is_identity());
        assert_eq!(plan.matched, s);
    }

    #[test]
    fn inherit_plan_discards_duplicates_at_compile_time() {
        // Output {c,d} inheriting excess {d,e}: own d wins, e joins.
        let out = Shape::of_type(&RecordType::of(&["c", "d"], &[]));
        let exc = Shape::of_type(&RecordType::of(&["d", "e"], &[]));
        let plan = out.inherit_plan(exc);
        assert_eq!(
            plan.result,
            Shape::of_type(&RecordType::of(&["c", "d", "e"], &[]))
        );
        assert!(!plan.identity);
        assert_eq!(
            plan.fields,
            vec![
                InheritSrc {
                    from_excess: false,
                    idx: 0
                }, // c
                InheritSrc {
                    from_excess: false,
                    idx: 1
                }, // own d wins
                InheritSrc {
                    from_excess: true,
                    idx: 1
                }, // e
            ]
        );
    }

    #[test]
    fn inherit_identity_when_excess_contributes_nothing() {
        let out = Shape::of_type(&RecordType::of(&["c", "d"], &["k"]));
        assert!(out.inherit_plan(Shape::empty()).identity);
        let covered = Shape::of_type(&RecordType::of(&["d"], &["k"]));
        assert!(out.inherit_plan(covered).identity);
    }

    #[test]
    fn warm_transitions_agree_across_threads() {
        // The thread-local transition cache must hand every thread
        // the same interned shapes the global tables hold: N threads
        // repeatedly building the same record shape (the warm-path
        // pattern of pool workers constructing records concurrently)
        // all converge on one shape id per label set.
        let base = Shape::of_type(&RecordType::of(&["ltc_a"], &[]));
        let (expect, _) = base.with(l("ltc_b"));
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..100 {
                        // Cold on this thread's cache first time,
                        // warm (lock-free) for the other 99.
                        let (grown, slot) = base.with(l("ltc_b"));
                        assert_eq!(grown, expect);
                        assert_eq!(slot, 1);
                        assert_eq!(grown.without(l("ltc_b")), base);
                    }
                });
            }
        });
    }

    #[test]
    fn concurrent_interning_converges() {
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for i in 0..200 {
                        let ty = RecordType::of(&[&format!("cc{}", i % 10)], &["cct"]);
                        let a = Shape::of_type(&ty);
                        let b = Shape::of_type(&ty);
                        assert_eq!(a, b);
                    }
                });
            }
        });
    }
}
