//! Tag arithmetic and guard expressions.
//!
//! Filters may compute new tag values from old ones — the paper's
//! throttle is `{<k>} -> {<k>=<k>%4}` — and the exit pattern of a
//! serial replicator may carry a predicate over tags, as in
//! `{<level>} if <level> > 40` (the paper writes the guard after a `|`;
//! this reproduction uses the `if` keyword to keep `|` unambiguous with
//! the deterministic parallel combinator — see the parser's module
//! documentation).
//!
//! Expressions are evaluated against a record's tags only: "a new tag
//! value is calculated according to the expression" — fields stay
//! opaque to the coordination layer by design. A tag is named by its
//! interned [`Label`], resolved once at parse time, so evaluating an
//! expression looks no name up.

use snet_types::{Label, Record};
use std::fmt;

/// Integer expression over tag values.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TagExpr {
    /// Integer literal.
    Lit(i64),
    /// Value of a tag, `<name>` (a tag label).
    Tag(Label),
    /// Unary negation.
    Neg(Box<TagExpr>),
    /// Binary arithmetic.
    Bin(ArithOp, Box<TagExpr>, Box<TagExpr>),
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ArithOp {
    Add,
    Sub,
    Mul,
    Div,
    Mod,
}

/// Boolean expression over tag values (exit guards).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Guard {
    Cmp(CmpOp, TagExpr, TagExpr),
    And(Box<Guard>, Box<Guard>),
    Or(Box<Guard>, Box<Guard>),
    Not(Box<Guard>),
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

/// Evaluation failure: a referenced tag is missing or arithmetic is
/// undefined.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ExprError {
    MissingTag(Label),
    DivisionByZero,
    Overflow,
}

impl fmt::Display for ExprError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExprError::MissingTag(t) => write!(f, "record has no tag {t}"),
            ExprError::DivisionByZero => write!(f, "division by zero in tag expression"),
            ExprError::Overflow => write!(f, "tag arithmetic overflow"),
        }
    }
}

impl std::error::Error for ExprError {}

impl TagExpr {
    /// Evaluates against the tags of a record.
    pub fn eval(&self, rec: &Record) -> Result<i64, ExprError> {
        match self {
            TagExpr::Lit(v) => Ok(*v),
            TagExpr::Tag(label) => rec.tag_label(*label).ok_or(ExprError::MissingTag(*label)),
            TagExpr::Neg(e) => e.eval(rec)?.checked_neg().ok_or(ExprError::Overflow),
            TagExpr::Bin(op, l, r) => {
                let a = l.eval(rec)?;
                let b = r.eval(rec)?;
                match op {
                    ArithOp::Add => a.checked_add(b).ok_or(ExprError::Overflow),
                    ArithOp::Sub => a.checked_sub(b).ok_or(ExprError::Overflow),
                    ArithOp::Mul => a.checked_mul(b).ok_or(ExprError::Overflow),
                    ArithOp::Div => {
                        if b == 0 {
                            Err(ExprError::DivisionByZero)
                        } else {
                            a.checked_div(b).ok_or(ExprError::Overflow)
                        }
                    }
                    ArithOp::Mod => {
                        if b == 0 {
                            Err(ExprError::DivisionByZero)
                        } else {
                            a.checked_rem(b).ok_or(ExprError::Overflow)
                        }
                    }
                }
            }
        }
    }

    /// Labels of all tags the expression references.
    pub fn referenced_tags(&self, out: &mut Vec<Label>) {
        match self {
            TagExpr::Lit(_) => {}
            TagExpr::Tag(t) => {
                if !out.contains(t) {
                    out.push(*t);
                }
            }
            TagExpr::Neg(e) => e.referenced_tags(out),
            TagExpr::Bin(_, l, r) => {
                l.referenced_tags(out);
                r.referenced_tags(out);
            }
        }
    }

    /// Convenience constructors for programmatic network building.
    pub fn lit(v: i64) -> TagExpr {
        TagExpr::Lit(v)
    }

    pub fn tag(name: &str) -> TagExpr {
        TagExpr::Tag(Label::tag(name))
    }

    pub fn modulo(self, rhs: TagExpr) -> TagExpr {
        TagExpr::Bin(ArithOp::Mod, Box::new(self), Box::new(rhs))
    }

    #[allow(clippy::should_implement_trait)] // builder sugar, not arithmetic on Self
    pub fn add(self, rhs: TagExpr) -> TagExpr {
        TagExpr::Bin(ArithOp::Add, Box::new(self), Box::new(rhs))
    }
}

impl Guard {
    /// Evaluates against the tags of a record.
    pub fn eval(&self, rec: &Record) -> Result<bool, ExprError> {
        match self {
            Guard::Cmp(op, l, r) => {
                let a = l.eval(rec)?;
                let b = r.eval(rec)?;
                Ok(match op {
                    CmpOp::Eq => a == b,
                    CmpOp::Ne => a != b,
                    CmpOp::Lt => a < b,
                    CmpOp::Le => a <= b,
                    CmpOp::Gt => a > b,
                    CmpOp::Ge => a >= b,
                })
            }
            Guard::And(l, r) => Ok(l.eval(rec)? && r.eval(rec)?),
            Guard::Or(l, r) => Ok(l.eval(rec)? || r.eval(rec)?),
            Guard::Not(g) => Ok(!g.eval(rec)?),
        }
    }

    /// Labels of all tags the guard references.
    pub fn referenced_tags(&self, out: &mut Vec<Label>) {
        match self {
            Guard::Cmp(_, l, r) => {
                l.referenced_tags(out);
                r.referenced_tags(out);
            }
            Guard::And(l, r) | Guard::Or(l, r) => {
                l.referenced_tags(out);
                r.referenced_tags(out);
            }
            Guard::Not(g) => g.referenced_tags(out),
        }
    }

    /// `<name> > value` — the paper's throttled-exit shape.
    pub fn tag_gt(name: &str, value: i64) -> Guard {
        Guard::Cmp(CmpOp::Gt, TagExpr::tag(name), TagExpr::lit(value))
    }
}

impl fmt::Display for TagExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TagExpr::Lit(v) => write!(f, "{v}"),
            TagExpr::Tag(t) => write!(f, "{t}"),
            TagExpr::Neg(e) => write!(f, "-({e})"),
            TagExpr::Bin(op, l, r) => {
                let sym = match op {
                    ArithOp::Add => "+",
                    ArithOp::Sub => "-",
                    ArithOp::Mul => "*",
                    ArithOp::Div => "/",
                    ArithOp::Mod => "%",
                };
                write!(f, "({l} {sym} {r})")
            }
        }
    }
}

impl fmt::Display for Guard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Guard::Cmp(op, l, r) => {
                let sym = match op {
                    CmpOp::Eq => "==",
                    CmpOp::Ne => "!=",
                    CmpOp::Lt => "<",
                    CmpOp::Le => "<=",
                    CmpOp::Gt => ">",
                    CmpOp::Ge => ">=",
                };
                write!(f, "{l} {sym} {r}")
            }
            Guard::And(l, r) => write!(f, "({l} && {r})"),
            Guard::Or(l, r) => write!(f, "({l} || {r})"),
            Guard::Not(g) => write!(f, "!({g})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snet_types::Record;

    fn rec(tags: &[(&str, i64)]) -> Record {
        let mut r = Record::new();
        for (n, v) in tags {
            r.set_tag(n, *v);
        }
        r
    }

    #[test]
    fn literal_and_tag_lookup() {
        let r = rec(&[("k", 7)]);
        assert_eq!(TagExpr::lit(5).eval(&r), Ok(5));
        assert_eq!(TagExpr::tag("k").eval(&r), Ok(7));
        assert_eq!(
            TagExpr::tag("missing").eval(&r),
            Err(ExprError::MissingTag(Label::tag("missing")))
        );
    }

    #[test]
    fn paper_throttle_expression() {
        // <k> % 4 over the full range 0..9 (the paper's throttle to 4
        // parallel instances).
        let e = TagExpr::tag("k").modulo(TagExpr::lit(4));
        for k in 0..9 {
            let r = rec(&[("k", k)]);
            assert_eq!(e.eval(&r), Ok(k % 4));
        }
    }

    #[test]
    fn increment_expression() {
        // <c> = <c> + 1 from the paper's filter example.
        let e = TagExpr::tag("c").add(TagExpr::lit(1));
        assert_eq!(e.eval(&rec(&[("c", 41)])), Ok(42));
    }

    #[test]
    fn division_and_mod_by_zero() {
        let d = TagExpr::Bin(
            ArithOp::Div,
            Box::new(TagExpr::lit(1)),
            Box::new(TagExpr::lit(0)),
        );
        assert_eq!(d.eval(&rec(&[])), Err(ExprError::DivisionByZero));
        let m = TagExpr::Bin(
            ArithOp::Mod,
            Box::new(TagExpr::lit(1)),
            Box::new(TagExpr::lit(0)),
        );
        assert_eq!(m.eval(&rec(&[])), Err(ExprError::DivisionByZero));
    }

    #[test]
    fn overflow_is_detected() {
        let e = TagExpr::Bin(
            ArithOp::Add,
            Box::new(TagExpr::lit(i64::MAX)),
            Box::new(TagExpr::lit(1)),
        );
        assert_eq!(e.eval(&rec(&[])), Err(ExprError::Overflow));
        let n = TagExpr::Neg(Box::new(TagExpr::lit(i64::MIN)));
        assert_eq!(n.eval(&rec(&[])), Err(ExprError::Overflow));
    }

    #[test]
    fn guard_paper_level_cutoff() {
        // {<level>} if <level> > 40
        let g = Guard::tag_gt("level", 40);
        assert_eq!(g.eval(&rec(&[("level", 41)])), Ok(true));
        assert_eq!(g.eval(&rec(&[("level", 40)])), Ok(false));
        assert_eq!(
            g.eval(&rec(&[])),
            Err(ExprError::MissingTag(Label::tag("level")))
        );
    }

    #[test]
    fn guard_connectives() {
        let g = Guard::And(
            Box::new(Guard::tag_gt("a", 0)),
            Box::new(Guard::Not(Box::new(Guard::tag_gt("b", 10)))),
        );
        assert_eq!(g.eval(&rec(&[("a", 1), ("b", 5)])), Ok(true));
        assert_eq!(g.eval(&rec(&[("a", 1), ("b", 11)])), Ok(false));
        assert_eq!(g.eval(&rec(&[("a", 0), ("b", 5)])), Ok(false));
        let o = Guard::Or(
            Box::new(Guard::tag_gt("a", 0)),
            Box::new(Guard::tag_gt("b", 0)),
        );
        assert_eq!(o.eval(&rec(&[("a", 0), ("b", 1)])), Ok(true));
    }

    #[test]
    fn comparison_operators() {
        let r = rec(&[("x", 5)]);
        let cmp = |op| {
            Guard::Cmp(op, TagExpr::tag("x"), TagExpr::lit(5))
                .eval(&r)
                .unwrap()
        };
        assert!(cmp(CmpOp::Eq));
        assert!(!cmp(CmpOp::Ne));
        assert!(!cmp(CmpOp::Lt));
        assert!(cmp(CmpOp::Le));
        assert!(!cmp(CmpOp::Gt));
        assert!(cmp(CmpOp::Ge));
    }

    #[test]
    fn referenced_tags_collects_unique_names() {
        let e = TagExpr::tag("a").add(TagExpr::tag("b").modulo(TagExpr::tag("a")));
        let mut tags = Vec::new();
        e.referenced_tags(&mut tags);
        assert_eq!(tags, vec![Label::tag("a"), Label::tag("b")]);
        let g = Guard::Cmp(CmpOp::Lt, TagExpr::tag("x"), TagExpr::tag("y"));
        let mut tags = Vec::new();
        g.referenced_tags(&mut tags);
        assert_eq!(tags, vec![Label::tag("x"), Label::tag("y")]);
    }

    #[test]
    fn display_roundtrips_visually() {
        let e = TagExpr::tag("k").modulo(TagExpr::lit(4));
        assert_eq!(e.to_string(), "(<k> % 4)");
        let g = Guard::tag_gt("level", 40);
        assert_eq!(g.to_string(), "<level> > 40");
    }
}
