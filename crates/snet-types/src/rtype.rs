//! Record types and structural subtyping.
//!
//! "The formal foundation of this behaviour is structural subtyping on
//! records: Any record type t1 is a subtype of t2 iff t2 ⊆ t1. This
//! subtyping relationship extends nicely to multivariant types ...: A
//! multivariant type x is a subtype of y if every variant v ∈ x is a
//! subtype of some variant w ∈ y" (paper, Section 4).
//!
//! A [`RecordType`] is a *set of labels* — the paper drops ordering
//! when moving from box signatures to type signatures. A [`MultiType`]
//! is a disjunction of variants, the right-hand side of a signature
//! like `{c} | {c,d,<e>}`.

use crate::label::Label;
use std::fmt;

/// A set of labels: one variant of a record type.
///
/// Stored sorted and deduplicated, so subset tests are linear merges.
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct RecordType(Vec<Label>);

impl RecordType {
    /// The empty record type `{}` — every record matches it.
    pub fn empty() -> Self {
        RecordType(Vec::new())
    }

    /// Builds a record type from labels (dedups and sorts).
    pub fn new(mut labels: Vec<Label>) -> Self {
        labels.sort();
        labels.dedup();
        RecordType(labels)
    }

    /// Convenience constructor from field and tag names:
    /// `RecordType::of(&["board", "opts"], &["k"])` is `{board,opts,<k>}`.
    pub fn of(fields: &[&str], tags: &[&str]) -> Self {
        let mut labels: Vec<Label> = fields.iter().map(|f| Label::field(f)).collect();
        labels.extend(tags.iter().map(|t| Label::tag(t)));
        RecordType::new(labels)
    }

    pub fn labels(&self) -> &[Label] {
        &self.0
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    pub fn contains(&self, label: Label) -> bool {
        self.0.binary_search(&label).is_ok()
    }

    /// Subset test: `self ⊆ other` (linear merge over sorted labels).
    pub fn is_subset(&self, other: &RecordType) -> bool {
        let mut it = other.0.iter();
        'outer: for l in &self.0 {
            for o in it.by_ref() {
                match o.cmp(l) {
                    std::cmp::Ordering::Less => continue,
                    std::cmp::Ordering::Equal => continue 'outer,
                    std::cmp::Ordering::Greater => return false,
                }
            }
            return false;
        }
        true
    }

    /// Record subtyping: a record of type `self` may be used where
    /// `other` is expected iff `other ⊆ self`.
    pub fn is_subtype_of(&self, other: &RecordType) -> bool {
        other.is_subset(self)
    }

    /// Set union.
    pub fn union(&self, other: &RecordType) -> RecordType {
        let mut v = self.0.clone();
        v.extend_from_slice(&other.0);
        RecordType::new(v)
    }

    /// Set difference `self \ other`.
    pub fn difference(&self, other: &RecordType) -> RecordType {
        RecordType(
            self.0
                .iter()
                .copied()
                .filter(|l| !other.contains(*l))
                .collect(),
        )
    }

    /// Set intersection.
    pub fn intersection(&self, other: &RecordType) -> RecordType {
        RecordType(
            self.0
                .iter()
                .copied()
                .filter(|l| other.contains(*l))
                .collect(),
        )
    }

    /// Adds a label, returning the extended type.
    pub fn with(&self, label: Label) -> RecordType {
        let mut v = self.0.clone();
        v.push(label);
        RecordType::new(v)
    }

    /// Match score for best-match routing (paper, Section 4: "Any
    /// incoming record is directed towards the subnetwork whose input
    /// type better matches the type of the record itself").
    ///
    /// `None` when a record of type `self` cannot enter an input of
    /// type `required` at all; otherwise the number of labels the input
    /// type pins down — a more specific (larger) accepted input type is
    /// the better match.
    pub fn match_score(&self, required: &RecordType) -> Option<usize> {
        if required.is_subset(self) {
            Some(required.len())
        } else {
            None
        }
    }
}

impl fmt::Display for RecordType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, l) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{l}")?;
        }
        write!(f, "}}")
    }
}

impl fmt::Debug for RecordType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl FromIterator<Label> for RecordType {
    fn from_iter<I: IntoIterator<Item = Label>>(iter: I) -> Self {
        RecordType::new(iter.into_iter().collect())
    }
}

/// A disjunction of record-type variants, e.g. `{c} | {c,d,<e>}`.
#[derive(Clone, PartialEq, Eq, Default)]
pub struct MultiType(Vec<RecordType>);

impl MultiType {
    pub fn new(variants: Vec<RecordType>) -> Self {
        let mut v = variants;
        v.dedup();
        MultiType(v)
    }

    pub fn single(variant: RecordType) -> Self {
        MultiType(vec![variant])
    }

    pub fn variants(&self) -> &[RecordType] {
        &self.0
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    pub fn push(&mut self, variant: RecordType) {
        if !self.0.contains(&variant) {
            self.0.push(variant);
        }
    }

    /// Multivariant subtyping: every variant of `self` is a subtype of
    /// some variant of `other` (paper, Section 4).
    pub fn is_subtype_of(&self, other: &MultiType) -> bool {
        self.0
            .iter()
            .all(|v| other.0.iter().any(|w| v.is_subtype_of(w)))
    }

    /// Union of variant sets.
    pub fn union(&self, other: &MultiType) -> MultiType {
        let mut v = self.0.clone();
        for w in &other.0 {
            if !v.contains(w) {
                v.push(w.clone());
            }
        }
        MultiType(v)
    }
}

impl fmt::Display for MultiType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, v) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, " | ")?;
            }
            write!(f, "{v}")?;
        }
        Ok(())
    }
}

impl fmt::Debug for MultiType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rt(fields: &[&str], tags: &[&str]) -> RecordType {
        RecordType::of(fields, tags)
    }

    #[test]
    fn subset_and_subtype_duality() {
        let small = rt(&["a"], &["b"]);
        let big = rt(&["a", "d"], &["b"]);
        assert!(small.is_subset(&big));
        assert!(!big.is_subset(&small));
        // t1 <: t2 iff t2 ⊆ t1 — the *bigger* record is the subtype.
        assert!(big.is_subtype_of(&small));
        assert!(!small.is_subtype_of(&big));
    }

    #[test]
    fn every_type_is_subtype_of_empty() {
        let e = RecordType::empty();
        assert!(rt(&["x"], &[]).is_subtype_of(&e));
        assert!(e.is_subtype_of(&e));
    }

    #[test]
    fn dedup_and_order_insensitivity() {
        let a = RecordType::new(vec![Label::field("x"), Label::tag("t"), Label::field("x")]);
        let b = RecordType::new(vec![Label::tag("t"), Label::field("x")]);
        assert_eq!(a, b);
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn set_operations() {
        let a = rt(&["a", "b"], &["t"]);
        let b = rt(&["b", "c"], &[]);
        assert_eq!(a.union(&b), rt(&["a", "b", "c"], &["t"]));
        assert_eq!(a.difference(&b), rt(&["a"], &["t"]));
        assert_eq!(a.intersection(&b), rt(&["b"], &[]));
        assert_eq!(a.with(Label::field("z")), rt(&["a", "b", "z"], &["t"]));
    }

    #[test]
    fn match_score_prefers_specificity() {
        // The paper's routing rule: a record {a,b,<t>} offered to inputs
        // {a} and {a,b} goes to {a,b} — the better match.
        let rec = rt(&["a", "b"], &["t"]);
        let loose = rt(&["a"], &[]);
        let tight = rt(&["a", "b"], &[]);
        let wrong = rt(&["z"], &[]);
        assert_eq!(rec.match_score(&loose), Some(1));
        assert_eq!(rec.match_score(&tight), Some(2));
        assert_eq!(rec.match_score(&wrong), None);
        assert!(rec.match_score(&tight) > rec.match_score(&loose));
    }

    #[test]
    fn empty_input_type_matches_everything_with_zero_score() {
        let rec = rt(&["a"], &[]);
        assert_eq!(rec.match_score(&RecordType::empty()), Some(0));
    }

    #[test]
    fn multitype_subtyping_paper_shape() {
        // {c} | {c,d,<e>}  <:  {c}   (both variants have at least {c}'s
        // labels... precisely: each variant must be a subtype of some
        // variant of the supertype).
        let x = MultiType::new(vec![rt(&["c"], &[]), rt(&["c", "d"], &["e"])]);
        let y = MultiType::single(rt(&["c"], &[]));
        assert!(x.is_subtype_of(&y));
        assert!(!y.is_subtype_of(&x) || y.is_subtype_of(&x)); // y <: x trivially too ({c} <: {c})
        let z = MultiType::single(rt(&["c", "d"], &[]));
        assert!(!x.is_subtype_of(&z)); // {c} is not a subtype of {c,d}
    }

    #[test]
    fn multitype_union_dedups() {
        let x = MultiType::single(rt(&["a"], &[]));
        let y = MultiType::new(vec![rt(&["a"], &[]), rt(&["b"], &[])]);
        let u = x.union(&y);
        assert_eq!(u.variants().len(), 2);
    }

    #[test]
    fn display_formats() {
        let t = rt(&["board"], &["done"]);
        assert_eq!(t.to_string(), "{board,<done>}");
        let m = MultiType::new(vec![rt(&["c"], &[]), rt(&["c", "d"], &["e"])]);
        assert_eq!(m.to_string(), "{c} | {c,d,<e>}");
    }
}
