//! Filters — S-Net's housekeeping construct.
//!
//! "`[pattern → record1; record2; . . . recordn]`: the type pattern on
//! the left is a set of labels while each of the record specifiers on
//! the right is a set of items" (paper, Section 4). A filter consumes
//! one record and emits one record per specifier, supporting renaming,
//! duplication, elimination of fields/tags and tag arithmetic — all on
//! the coordination level, without touching payloads.
//!
//! Filter application is pure (record in, records out), so it lives
//! here in the language crate; `snet-runtime` merely wraps it in a
//! stream component. Like boxes, filters flow-inherit: labels of the
//! input record that do not occur in the pattern are re-attached to
//! every output record unless already present — the paper relies on
//! this when inserting `[{} -> {<k>=1}]` in front of Figure 2's
//! parallel replicator. The outputs inherit straight from the input
//! record through its split plan against the pattern
//! ([`Record::inherit_from`]), like a box's.

use crate::expr::{ExprError, TagExpr};
use snet_types::{Label, Mapping, NetSig, OutVariant, Record, RecordType, Shape, SplitPlan};
use std::fmt;

/// One item of a record specifier. Labels are interned when the item
/// is built, so applying a filter looks up no names.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SpecItem {
    /// `a` — copy a field occurring in the pattern.
    CopyField(Label),
    /// `new = old` — the old field's value under a new label; `old`
    /// must occur in the pattern.
    RenameField { new: Label, old: Label },
    /// `<t>` or `<t> = expr` — a tag, computed from the expression or
    /// defaulting to zero ("the initialisation of new tags is optional,
    /// tag values are set to zero by default").
    Tag { name: Label, init: Option<TagExpr> },
}

impl SpecItem {
    /// `a`: copy field `a`.
    pub fn copy(field: &str) -> SpecItem {
        SpecItem::CopyField(Label::field(field))
    }

    /// `new = old`: field `old`'s value under the label `new`.
    pub fn rename(new: &str, old: &str) -> SpecItem {
        SpecItem::RenameField {
            new: Label::field(new),
            old: Label::field(old),
        }
    }

    /// `<name>` (zero) or `<name> = init`.
    pub fn tag(name: &str, init: Option<TagExpr>) -> SpecItem {
        SpecItem::Tag {
            name: Label::tag(name),
            init,
        }
    }

    /// The label the item produces.
    pub fn label(&self) -> Label {
        match self {
            SpecItem::CopyField(l) | SpecItem::RenameField { new: l, .. } => *l,
            SpecItem::Tag { name, .. } => *name,
        }
    }
}

/// A record specifier: the items of one output record.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct RecSpec {
    pub items: Vec<SpecItem>,
}

/// A complete filter definition.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FilterDef {
    /// The accepted pattern (a set of labels).
    pub pattern: RecordType,
    /// Output record specifiers, in order.
    pub outputs: Vec<RecSpec>,
}

/// A static validation error in a filter definition.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FilterError(pub String);

impl fmt::Display for FilterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid filter: {}", self.0)
    }
}

impl std::error::Error for FilterError {}

impl FilterDef {
    pub fn new(pattern: RecordType, outputs: Vec<RecSpec>) -> Result<FilterDef, FilterError> {
        let f = FilterDef { pattern, outputs };
        f.validate()?;
        Ok(f)
    }

    /// The identity filter on a pattern: `[p -> p]`.
    pub fn identity(pattern: RecordType) -> FilterDef {
        let items = pattern
            .labels()
            .iter()
            .map(|&l| {
                if l.is_field() {
                    SpecItem::CopyField(l)
                } else {
                    SpecItem::Tag {
                        name: l,
                        init: Some(TagExpr::Tag(l)),
                    }
                }
            })
            .collect();
        FilterDef {
            pattern,
            outputs: vec![RecSpec { items }],
        }
    }

    /// Static well-formedness per the paper's three item kinds:
    /// * copied fields must occur in the pattern;
    /// * renamed fields must take their value from a pattern field;
    /// * every tag referenced by an expression must occur in the pattern;
    /// * field items hold field labels, tag items tag labels.
    pub fn validate(&self) -> Result<(), FilterError> {
        if self.outputs.is_empty() {
            return Err(FilterError(
                "a filter must emit at least one record specifier".into(),
            ));
        }
        for spec in &self.outputs {
            let mut produced: Vec<Label> = Vec::new();
            for item in &spec.items {
                let label = item.label();
                if label.is_tag() != matches!(item, SpecItem::Tag { .. }) {
                    return Err(FilterError(format!(
                        "record specifier item produces {label}, a label of the wrong kind"
                    )));
                }
                match item {
                    SpecItem::CopyField(l) => {
                        if !self.pattern.contains(*l) {
                            return Err(FilterError(format!(
                                "copied field '{l}' does not occur in pattern {}",
                                self.pattern
                            )));
                        }
                    }
                    SpecItem::RenameField { old, .. } => {
                        if !old.is_field() || !self.pattern.contains(*old) {
                            return Err(FilterError(format!(
                                "renamed field '{old}' does not occur in pattern {}",
                                self.pattern
                            )));
                        }
                    }
                    SpecItem::Tag { init, .. } => {
                        if let Some(e) = init {
                            let mut refs = Vec::new();
                            e.referenced_tags(&mut refs);
                            for t in refs {
                                if !self.pattern.contains(t) {
                                    return Err(FilterError(format!(
                                        "tag {t} referenced by expression does not occur in \
                                         pattern {}",
                                        self.pattern
                                    )));
                                }
                            }
                        }
                    }
                }
                if produced.contains(&label) {
                    return Err(FilterError(format!(
                        "record specifier produces label {label} twice"
                    )));
                }
                produced.push(label);
            }
        }
        Ok(())
    }

    /// The labels one specifier produces.
    pub fn spec_type(spec: &RecSpec) -> RecordType {
        spec.items.iter().map(SpecItem::label).collect()
    }

    /// The induced network signature: pattern in, one variant per
    /// specifier out, flow inheritance on.
    pub fn net_sig(&self) -> NetSig {
        NetSig {
            maps: vec![Mapping {
                input: self.pattern.clone(),
                outputs: self
                    .outputs
                    .iter()
                    .map(|s| OutVariant::new(Self::spec_type(s)))
                    .collect(),
            }],
        }
    }

    /// Applies the filter to a record, producing one output record per
    /// specifier (in order). The record must match the pattern. Labels
    /// of the input record not in the pattern flow-inherit onto every
    /// output.
    pub fn apply(&self, rec: &Record) -> Result<Vec<Record>, ExprError> {
        let split = rec
            .shape()
            .split_plan(Shape::of_type(&self.pattern))
            .unwrap_or_else(|| {
                panic!(
                    "filter applied to non-matching record {rec:?} (pattern {})",
                    self.pattern
                )
            });
        self.apply_with_split(rec, split)
    }

    /// [`FilterDef::apply`] with the split plan of the record's shape
    /// against the pattern already resolved — for callers (the
    /// runtime's filter component) that resolve it once per record
    /// shape instead of once per record. Everything outside the
    /// pattern is excess, and every output inherits it from `rec`
    /// through the plan.
    pub fn apply_with_split(
        &self,
        rec: &Record,
        split: &SplitPlan,
    ) -> Result<Vec<Record>, ExprError> {
        let mut out = Vec::with_capacity(self.outputs.len());
        for spec in &self.outputs {
            let mut r = Record::new();
            for item in &spec.items {
                match item {
                    SpecItem::CopyField(l) | SpecItem::RenameField { old: l, .. } => {
                        let v = rec
                            .field_label(*l)
                            .expect("validated: pattern field present")
                            .clone();
                        r.set_field_label(item.label(), v);
                    }
                    SpecItem::Tag { name, init } => {
                        let v = match init {
                            Some(e) => e.eval(rec)?,
                            None => 0,
                        };
                        r.set_tag_label(*name, v);
                    }
                }
            }
            out.push(r.inherit_from(rec, split));
        }
        Ok(out)
    }
}

impl fmt::Display for FilterDef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{} -> ", self.pattern)?;
        for (i, spec) in self.outputs.iter().enumerate() {
            if i > 0 {
                write!(f, "; ")?;
            }
            write!(f, "{{")?;
            for (j, item) in spec.items.iter().enumerate() {
                if j > 0 {
                    write!(f, ", ")?;
                }
                match item {
                    SpecItem::CopyField(l) => write!(f, "{l}")?,
                    SpecItem::RenameField { new, old } => write!(f, "{new}={old}")?,
                    SpecItem::Tag { name, init } => match init {
                        Some(e) => write!(f, "{name}={e}")?,
                        None => write!(f, "{name}")?,
                    },
                }
            }
            write!(f, "}}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snet_types::Value;

    /// The paper's worked filter:
    /// `[{a,b,<c>} -> {a, z=a, <t>}; {b, a=b, <c>=<c>+1}]`.
    fn paper_filter() -> FilterDef {
        FilterDef::new(
            RecordType::of(&["a", "b"], &["c"]),
            vec![
                RecSpec {
                    items: vec![
                        SpecItem::copy("a"),
                        SpecItem::rename("z", "a"),
                        SpecItem::tag("t", None),
                    ],
                },
                RecSpec {
                    items: vec![
                        SpecItem::copy("b"),
                        SpecItem::rename("a", "b"),
                        SpecItem::tag("c", Some(TagExpr::tag("c").add(TagExpr::lit(1)))),
                    ],
                },
            ],
        )
        .unwrap()
    }

    #[test]
    fn paper_filter_semantics() {
        let input = Record::build()
            .field("a", 100i64)
            .field("b", 200i64)
            .tag("c", 7)
            .finish();
        let out = paper_filter().apply(&input).unwrap();
        assert_eq!(out.len(), 2);
        // First record: field a (original), z = a, <t> = 0.
        assert_eq!(out[0].field("a").unwrap().as_int(), Some(100));
        assert_eq!(out[0].field("z").unwrap().as_int(), Some(100));
        assert_eq!(out[0].tag("t"), Some(0));
        assert_eq!(out[0].field("b"), None);
        // Second record: field b (original), a = b, <c> incremented.
        assert_eq!(out[1].field("b").unwrap().as_int(), Some(200));
        assert_eq!(out[1].field("a").unwrap().as_int(), Some(200));
        assert_eq!(out[1].tag("c"), Some(8));
    }

    #[test]
    fn filter_flow_inherits_excess() {
        // The Figure 2 filter [{} -> {<k>=1}] applied to {board, opts}:
        // "the filter has the desired effect on records of the type
        // {board, opts} although its fields do not occur in the filter".
        let f = FilterDef::new(
            RecordType::empty(),
            vec![RecSpec {
                items: vec![SpecItem::tag("k", Some(TagExpr::lit(1)))],
            }],
        )
        .unwrap();
        let input = Record::build()
            .field("board", Value::Int(1))
            .field("opts", Value::Int(2))
            .finish();
        let out = f.apply(&input).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].tag("k"), Some(1));
        assert!(out[0].field("board").is_some());
        assert!(out[0].field("opts").is_some());
    }

    #[test]
    fn inherited_label_does_not_override_produced() {
        // Throttle [{<k>} -> {<k>=<k>%4}]: the produced <k> wins over
        // the (consumed) pattern <k>; nothing else changes.
        let f = FilterDef::new(
            RecordType::of(&[], &["k"]),
            vec![RecSpec {
                items: vec![SpecItem::tag(
                    "k",
                    Some(TagExpr::tag("k").modulo(TagExpr::lit(4))),
                )],
            }],
        )
        .unwrap();
        let input = Record::build()
            .field("p", Value::Int(9))
            .tag("k", 7)
            .finish();
        let out = f.apply(&input).unwrap();
        assert_eq!(out[0].tag("k"), Some(3));
        assert!(out[0].field("p").is_some());
    }

    #[test]
    fn elimination_by_omission() {
        // [{a,b} -> {a}] drops b (it is in the pattern but not copied).
        let f = FilterDef::new(
            RecordType::of(&["a", "b"], &[]),
            vec![RecSpec {
                items: vec![SpecItem::copy("a")],
            }],
        )
        .unwrap();
        let input = Record::build().field("a", 1i64).field("b", 2i64).finish();
        let out = f.apply(&input).unwrap();
        assert!(out[0].field("b").is_none());
        assert!(out[0].field("a").is_some());
    }

    #[test]
    fn validation_rejects_unknown_sources() {
        // Copying a field not in the pattern.
        assert!(FilterDef::new(
            RecordType::of(&["a"], &[]),
            vec![RecSpec {
                items: vec![SpecItem::copy("zz")],
            }],
        )
        .is_err());
        // Renaming from a field not in the pattern.
        assert!(FilterDef::new(
            RecordType::of(&["a"], &[]),
            vec![RecSpec {
                items: vec![SpecItem::rename("x", "zz")],
            }],
        )
        .is_err());
        // Tag expression over a tag not in the pattern.
        assert!(FilterDef::new(
            RecordType::of(&[], &["k"]),
            vec![RecSpec {
                items: vec![SpecItem::tag("j", Some(TagExpr::tag("nope")))],
            }],
        )
        .is_err());
    }

    #[test]
    fn validation_rejects_duplicate_production() {
        assert!(FilterDef::new(
            RecordType::of(&["a"], &[]),
            vec![RecSpec {
                items: vec![SpecItem::copy("a"), SpecItem::rename("a", "a")],
            }],
        )
        .is_err());
    }

    #[test]
    fn validation_rejects_empty_output_list() {
        assert!(FilterDef::new(RecordType::empty(), vec![]).is_err());
    }

    #[test]
    fn validation_rejects_items_of_the_wrong_label_kind() {
        // Items hold labels, so a hand-built item can name a tag where
        // a field belongs (or the reverse); the pattern has both.
        let pattern = RecordType::of(&["a"], &["a"]);
        for item in [
            SpecItem::CopyField(Label::tag("a")),
            SpecItem::RenameField {
                new: Label::field("b"),
                old: Label::tag("a"),
            },
            SpecItem::RenameField {
                new: Label::tag("b"),
                old: Label::field("a"),
            },
            SpecItem::Tag {
                name: Label::field("b"),
                init: None,
            },
        ] {
            let spec = RecSpec { items: vec![item] };
            assert!(FilterDef::new(pattern.clone(), vec![spec]).is_err());
        }
    }

    #[test]
    fn net_sig_shape() {
        let sig = paper_filter().net_sig();
        assert_eq!(sig.maps.len(), 1);
        assert_eq!(sig.maps[0].input, RecordType::of(&["a", "b"], &["c"]));
        assert_eq!(sig.maps[0].outputs.len(), 2);
        assert_eq!(
            sig.maps[0].outputs[0].labels,
            RecordType::of(&["a", "z"], &["t"])
        );
        assert!(sig.maps[0].outputs.iter().all(|o| o.inherits));
    }

    #[test]
    fn identity_filter_keeps_record() {
        let ty = RecordType::of(&["x"], &["t"]);
        let f = FilterDef::identity(ty);
        let input = Record::build()
            .field("x", 5i64)
            .tag("t", 3)
            .field("extra", 9i64)
            .finish();
        let out = f.apply(&input).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0], input);
    }

    #[test]
    fn missing_tag_in_expression_is_runtime_error() {
        // Pattern declares <k> but we bypass matching with debug off…
        // instead: expression over optional tag evaluated when pattern
        // matched but tag removed is impossible through the public API,
        // so test the ExprError path via a guard-less eval: a filter
        // whose expression divides by a zero tag.
        let f = FilterDef::new(
            RecordType::of(&[], &["k"]),
            vec![RecSpec {
                items: vec![SpecItem::tag(
                    "j",
                    Some(TagExpr::Bin(
                        crate::expr::ArithOp::Div,
                        Box::new(TagExpr::lit(1)),
                        Box::new(TagExpr::tag("k")),
                    )),
                )],
            }],
        )
        .unwrap();
        let input = Record::build().tag("k", 0).finish();
        assert_eq!(f.apply(&input), Err(ExprError::DivisionByZero));
    }

    #[test]
    fn display_matches_paper_notation() {
        let f = paper_filter();
        let s = f.to_string();
        assert!(s.starts_with("[{a,b,<c>} -> "));
        assert!(s.contains("z=a"));
        assert!(s.contains("<t>"));
        assert!(s.contains("(<c> + 1)"));
    }
}
