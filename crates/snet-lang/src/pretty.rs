//! Pretty printer: renders ASTs back to parseable surface syntax.
//!
//! The printer is precedence-aware and inserts parentheses exactly
//! where re-parsing would otherwise change the tree shape, so
//! `parse(pretty(ast)) == ast` holds structurally — a property test in
//! this module (and a heavier one in the integration suite) checks it
//! over randomly generated networks.

use crate::ast::{BoxDecl, ExitPattern, NetAst, NetDecl, Program};
use crate::expr::Guard;
use crate::filter::FilterDef;
use snet_types::BoxSig;
use std::fmt::Write;

/// Precedence levels of the network-expression grammar.
const PREC_SERIAL: u8 = 0;
const PREC_PAR: u8 = 1;
const PREC_POSTFIX: u8 = 2;

fn net_prec(ast: &NetAst) -> u8 {
    match ast {
        NetAst::Serial(_, _) => PREC_SERIAL,
        NetAst::Parallel { .. } => PREC_PAR,
        // A star whose exit pattern carries a guard prints at the lowest
        // precedence: a following `||` (or a further postfix `*`) would
        // otherwise be consumed by the guard's expression grammar.
        NetAst::Star { exit, .. } if exit.guard.is_some() => PREC_SERIAL,
        NetAst::Star { .. } | NetAst::Split { .. } => PREC_POSTFIX,
        NetAst::Ref(_) | NetAst::Filter(_) => u8::MAX,
    }
}

fn write_net(out: &mut String, ast: &NetAst, min_prec: u8) {
    let prec = net_prec(ast);
    let need_parens = prec < min_prec;
    if need_parens {
        out.push('(');
    }
    match ast {
        NetAst::Ref(name) => out.push_str(name),
        NetAst::Filter(f) => {
            let _ = write!(out, "{f}");
        }
        NetAst::Serial(a, b) => {
            // Left-associative: the right child must be parenthesised
            // if it is itself serial, or the reparse would re-associate.
            write_net(out, a, PREC_SERIAL);
            out.push_str(" .. ");
            write_net(out, b, PREC_PAR);
        }
        NetAst::Parallel { left, right, det } => {
            write_net(out, left, PREC_PAR);
            out.push_str(if *det { " | " } else { " || " });
            write_net(out, right, PREC_POSTFIX);
        }
        NetAst::Star { inner, exit, det } => {
            write_net(out, inner, PREC_POSTFIX);
            out.push_str(if *det { " * " } else { " ** " });
            write_exit(out, exit);
        }
        NetAst::Split { inner, tag, det } => {
            write_net(out, inner, PREC_POSTFIX);
            out.push_str(if *det { " ! " } else { " !! " });
            let _ = write!(out, "<{tag}>");
        }
    }
    if need_parens {
        out.push(')');
    }
}

fn write_exit(out: &mut String, exit: &ExitPattern) {
    let _ = write!(out, "{}", exit.pattern);
    if let Some(g) = &exit.guard {
        out.push_str(" if ");
        write_guard(out, g, 0);
    }
}

/// Guard precedence: Or = 0, And = 1, Not/Cmp = 2.
fn guard_prec(g: &Guard) -> u8 {
    match g {
        Guard::Or(_, _) => 0,
        Guard::And(_, _) => 1,
        Guard::Not(_) | Guard::Cmp(_, _, _) => 2,
    }
}

fn write_guard(out: &mut String, g: &Guard, min_prec: u8) {
    let prec = guard_prec(g);
    let need_parens = prec < min_prec;
    if need_parens {
        out.push('(');
    }
    match g {
        Guard::Or(l, r) => {
            write_guard(out, l, 0);
            out.push_str(" || ");
            write_guard(out, r, 1);
        }
        Guard::And(l, r) => {
            write_guard(out, l, 1);
            out.push_str(" && ");
            write_guard(out, r, 2);
        }
        Guard::Not(inner) => {
            out.push_str("!(");
            write_guard(out, inner, 0);
            out.push(')');
        }
        Guard::Cmp(..) => {
            // Cmp's Display (TagExpr operands are fully parenthesised)
            // is already re-parseable.
            let _ = write!(out, "{g}");
        }
    }
    if need_parens {
        out.push(')');
    }
}

/// Renders a network expression.
pub fn pretty_net(ast: &NetAst) -> String {
    let mut out = String::new();
    write_net(&mut out, ast, 0);
    out
}

/// Renders a guard.
pub fn pretty_guard(g: &Guard) -> String {
    let mut out = String::new();
    write_guard(&mut out, g, 0);
    out
}

/// Renders a filter (delegates to its Display, which is parseable).
pub fn pretty_filter(f: &FilterDef) -> String {
    f.to_string()
}

fn write_box_sig(out: &mut String, sig: &BoxSig) {
    out.push('(');
    for (i, l) in sig.params.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "{l}");
    }
    out.push_str(") -> ");
    for (i, v) in sig.outputs.iter().enumerate() {
        if i > 0 {
            out.push_str(" | ");
        }
        out.push('(');
        for (j, l) in v.iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "{l}");
        }
        out.push(')');
    }
}

/// Renders a complete program.
pub fn pretty_program(p: &Program) -> String {
    let mut out = String::new();
    for BoxDecl { name, sig } in &p.boxes {
        let _ = write!(out, "box {name} ");
        write_box_sig(&mut out, sig);
        out.push_str(";\n");
    }
    for NetDecl { name, body } in &p.nets {
        let _ = write!(out, "net {name} = ");
        out.push_str(&pretty_net(body));
        out.push_str(";\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{ArithOp, CmpOp, TagExpr};
    use crate::filter::{RecSpec, SpecItem};
    use crate::parser::{parse_guard, parse_net_expr, parse_program};
    use proptest::prelude::*;
    use snet_types::RecordType;

    fn roundtrip_net(ast: &NetAst) {
        let text = pretty_net(ast);
        let reparsed = parse_net_expr(&text)
            .unwrap_or_else(|e| panic!("pretty output failed to parse: {text}\n{e}"));
        assert_eq!(&reparsed, ast, "round-trip changed the tree for: {text}");
    }

    #[test]
    fn roundtrip_fig_networks() {
        for src in [
            "computeOpts .. solveOneLevel ** {<done>}",
            "computeOpts .. [{} -> {<k>=1}] .. (solveOneLevel !! <k>) ** {<done>}",
            "computeOpts .. [{} -> {<k>=1}] .. \
             ([{<k>} -> {<k>=<k>%4}] .. (solveOneLevel !! <k>)) ** {<level>} if <level> > 40 \
             .. solve",
            "a | b || c",
            "a ! <k> ** {<d>} * {<e>}",
            "(a .. b) || (c .. d)",
        ] {
            let ast = parse_net_expr(src).unwrap();
            roundtrip_net(&ast);
        }
    }

    #[test]
    fn serial_right_nesting_is_preserved() {
        // Serial(a, Serial(b, c)) must print with parens to avoid
        // re-associating to Serial(Serial(a,b), c).
        let ast = NetAst::serial(
            NetAst::boxref("a"),
            NetAst::serial(NetAst::boxref("b"), NetAst::boxref("c")),
        );
        let text = pretty_net(&ast);
        assert!(text.contains('('), "needs parens: {text}");
        roundtrip_net(&ast);
    }

    #[test]
    fn guard_or_inside_and_is_parenthesised() {
        let g = Guard::And(
            Box::new(Guard::Or(
                Box::new(Guard::tag_gt("a", 1)),
                Box::new(Guard::tag_gt("b", 2)),
            )),
            Box::new(Guard::tag_gt("c", 3)),
        );
        let text = pretty_guard(&g);
        let reparsed = parse_guard(&text).unwrap();
        assert_eq!(reparsed, g, "round-trip changed guard: {text}");
    }

    #[test]
    fn program_roundtrip() {
        let src = "\
box computeOpts (board) -> (board, opts);
box solveOneLevel (board, opts) -> (board, opts) | (board, <done>);
net fig1 = computeOpts .. solveOneLevel ** {<done>};
";
        let p = parse_program(src).unwrap();
        let printed = pretty_program(&p);
        let reparsed = parse_program(&printed).unwrap();
        assert_eq!(reparsed, p);
    }

    // --- Property test: random ASTs round-trip. ---

    fn arb_name() -> impl Strategy<Value = String> {
        "[a-z][a-z0-9_]{0,6}".prop_filter("keyword", |s| s != "box" && s != "net" && s != "if")
    }

    fn arb_tag_expr() -> impl Strategy<Value = TagExpr> {
        let leaf = prop_oneof![
            (0i64..100).prop_map(TagExpr::Lit),
            arb_name().prop_map(|t| TagExpr::tag(&t)),
        ];
        leaf.prop_recursive(3, 16, 2, |inner| {
            prop_oneof![
                (
                    prop_oneof![
                        Just(ArithOp::Add),
                        Just(ArithOp::Sub),
                        Just(ArithOp::Mul),
                        Just(ArithOp::Div),
                        Just(ArithOp::Mod)
                    ],
                    inner.clone(),
                    inner.clone()
                )
                    .prop_map(|(op, l, r)| TagExpr::Bin(
                        op,
                        Box::new(l),
                        Box::new(r)
                    )),
                inner.prop_map(|e| TagExpr::Neg(Box::new(e))),
            ]
        })
    }

    fn arb_guard() -> impl Strategy<Value = Guard> {
        let cmp = (
            prop_oneof![
                Just(CmpOp::Eq),
                Just(CmpOp::Ne),
                Just(CmpOp::Lt),
                Just(CmpOp::Le),
                Just(CmpOp::Gt),
                Just(CmpOp::Ge)
            ],
            arb_tag_expr(),
            arb_tag_expr(),
        )
            .prop_map(|(op, l, r)| Guard::Cmp(op, l, r));
        cmp.prop_recursive(3, 12, 2, |inner| {
            prop_oneof![
                (inner.clone(), inner.clone())
                    .prop_map(|(l, r)| Guard::And(Box::new(l), Box::new(r))),
                (inner.clone(), inner.clone())
                    .prop_map(|(l, r)| Guard::Or(Box::new(l), Box::new(r))),
                inner.prop_map(|g| Guard::Not(Box::new(g))),
            ]
        })
    }

    fn arb_rtype() -> impl Strategy<Value = RecordType> {
        (
            proptest::collection::vec(arb_name(), 0..3),
            proptest::collection::vec(arb_name(), 0..3),
        )
            .prop_map(|(fields, tags)| {
                let fields: Vec<&str> = fields.iter().map(|s| s.as_str()).collect();
                let tags: Vec<&str> = tags.iter().map(|s| s.as_str()).collect();
                RecordType::of(&fields, &tags)
            })
    }

    fn arb_filter() -> impl Strategy<Value = FilterDef> {
        // Keep filters simple but valid: copy/rename from pattern
        // fields, tags computed from pattern tags.
        (
            proptest::collection::vec(arb_name(), 1..3),
            proptest::collection::vec(arb_name(), 0..2),
            arb_name(),
        )
            .prop_map(|(fields, tags, fresh)| {
                let pattern = {
                    let fs: Vec<&str> = fields.iter().map(|s| s.as_str()).collect();
                    let ts: Vec<&str> = tags.iter().map(|s| s.as_str()).collect();
                    RecordType::of(&fs, &ts)
                };
                let mut items = vec![SpecItem::copy(&fields[0])];
                if fields[0] != fresh {
                    items.push(SpecItem::rename(&fresh, &fields[0]));
                }
                if let Some(t) = tags.first() {
                    if *t != fresh {
                        items.push(SpecItem::tag(t, Some(TagExpr::tag(t))));
                    }
                }
                FilterDef::new(pattern, vec![RecSpec { items }]).unwrap()
            })
    }

    fn arb_net() -> impl Strategy<Value = NetAst> {
        let leaf = prop_oneof![
            arb_name().prop_map(NetAst::Ref),
            arb_filter().prop_map(NetAst::Filter),
        ];
        leaf.prop_recursive(4, 24, 2, |inner| {
            prop_oneof![
                (inner.clone(), inner.clone()).prop_map(|(a, b)| NetAst::serial(a, b)),
                (inner.clone(), inner.clone(), any::<bool>()).prop_map(|(a, b, det)| {
                    if det {
                        NetAst::parallel_det(a, b)
                    } else {
                        NetAst::parallel(a, b)
                    }
                }),
                (
                    inner.clone(),
                    arb_rtype(),
                    proptest::option::of(arb_guard()),
                    any::<bool>()
                )
                    .prop_map(|(a, p, g, det)| {
                        let exit = match g {
                            Some(g) => ExitPattern::with_guard(p, g),
                            None => ExitPattern::new(p),
                        };
                        if det {
                            NetAst::star_det(a, exit)
                        } else {
                            NetAst::star(a, exit)
                        }
                    }),
                (inner, arb_name(), any::<bool>()).prop_map(|(a, t, det)| {
                    if det {
                        NetAst::split_det(a, &t)
                    } else {
                        NetAst::split(a, &t)
                    }
                }),
            ]
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn prop_net_roundtrip(ast in arb_net()) {
            roundtrip_net(&ast);
        }

        #[test]
        fn prop_guard_roundtrip(g in arb_guard()) {
            let text = pretty_guard(&g);
            let reparsed = parse_guard(&text)
                .unwrap_or_else(|e| panic!("failed to reparse guard: {text}\n{e}"));
            prop_assert_eq!(reparsed, g);
        }
    }
}
