//! Recursive-descent parser for the S-Net surface syntax.
//!
//! Grammar (combinator precedence: replication postfixes bind tightest,
//! then parallel composition, then serial composition — the paper
//! parenthesises every figure, so precedence only matters for
//! convenience):
//!
//! ```text
//! program  := (boxdecl | netdecl)*
//! boxdecl  := 'box' IDENT variant '->' variant ('|' variant)* ';'
//! variant  := '(' labels ')' | '{' labels '}'
//! netdecl  := 'net' IDENT '=' netexpr ';'
//! netexpr  := par ('..' par)*
//! par      := postfix (('||'|'|') postfix)*
//! postfix  := atom ('**' exit | '*' exit | '!!' TAG | '!' TAG)*
//! exit     := '{' labels '}' ('if' guard)?
//! atom     := IDENT | filter | '(' netexpr ')'
//! filter   := '[' '{' labels '}' '->' recspec (';' recspec)* ']'
//! recspec  := '{' (item (',' item)*)? '}'
//! item     := IDENT ('=' IDENT)? | TAG ('=' texpr)?
//! guard    := gand ('||' gand)*
//! gand     := gnot ('&&' gnot)*
//! gnot     := '!' '(' guard ')' | texpr cmp texpr
//! texpr    := tterm (('+'|'-') tterm)*
//! tterm    := tfactor (('*'|'/'|'%') tfactor)*
//! tfactor  := INT | TAG | '-' tfactor | '(' texpr ')'
//! ```
//!
//! Deviation from the paper: exit guards are written
//! `{<level>} if <level> > 40` rather than the paper's
//! `{<level>} | <level> > 40`. `|` is also the deterministic parallel
//! combinator, so after a star's exit pattern it would begin either a
//! guard or a parallel branch; the `if` keyword keeps the two apart.

use crate::ast::{BoxDecl, ExitPattern, NetAst, NetDecl, Program};
use crate::expr::{ArithOp, CmpOp, Guard, TagExpr};
use crate::filter::{FilterDef, RecSpec, SpecItem};
use crate::token::{lex, Spanned, Tok};
use snet_types::{BoxSig, Label, RecordType};
use std::fmt;

/// A parse error with the line it occurred on.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    pub message: String,
    pub line: u32,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

struct Parser {
    toks: Vec<Spanned>,
    pos: usize,
}

type PResult<T> = Result<T, ParseError>;

impl Parser {
    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos).map(|s| &s.tok)
    }

    fn line(&self) -> u32 {
        self.toks
            .get(self.pos.min(self.toks.len().saturating_sub(1)))
            .map(|s| s.line)
            .unwrap_or(0)
    }

    fn err<T>(&self, message: impl Into<String>) -> PResult<T> {
        Err(ParseError {
            message: message.into(),
            line: self.line(),
        })
    }

    fn accept(&mut self, tok: &Tok) -> bool {
        if self.peek() == Some(tok) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, tok: &Tok) -> PResult<()> {
        if self.accept(tok) {
            Ok(())
        } else {
            let found = self
                .peek()
                .map(|t| t.to_string())
                .unwrap_or_else(|| "end of input".into());
            self.err(format!("expected '{tok}', found '{found}'"))
        }
    }

    fn ident(&mut self) -> PResult<String> {
        match self.peek() {
            Some(Tok::Ident(s)) => {
                let s = s.clone();
                self.pos += 1;
                Ok(s)
            }
            other => {
                let found = other
                    .map(|t| t.to_string())
                    .unwrap_or_else(|| "end of input".into());
                self.err(format!("expected identifier, found '{found}'"))
            }
        }
    }

    // --- labels, patterns -------------------------------------------------

    /// One label: `ident` (field) or `<ident>` (tag).
    fn label(&mut self) -> PResult<Label> {
        match self.peek().cloned() {
            Some(Tok::Ident(s)) => {
                self.pos += 1;
                Ok(Label::field(&s))
            }
            Some(Tok::TagRef(s)) => {
                self.pos += 1;
                Ok(Label::tag(&s))
            }
            other => {
                let found = other
                    .map(|t| t.to_string())
                    .unwrap_or_else(|| "end of input".into());
                self.err(format!("expected label, found '{found}'"))
            }
        }
    }

    /// Comma-separated labels until the closing token (not consumed).
    fn labels_until(&mut self, close: &Tok) -> PResult<Vec<Label>> {
        let mut out = Vec::new();
        if self.peek() == Some(close) {
            return Ok(out);
        }
        loop {
            out.push(self.label()?);
            if !self.accept(&Tok::Comma) {
                break;
            }
        }
        Ok(out)
    }

    /// `{ labels }` as a record type.
    fn brace_pattern(&mut self) -> PResult<RecordType> {
        self.expect(&Tok::LBrace)?;
        let labels = self.labels_until(&Tok::RBrace)?;
        self.expect(&Tok::RBrace)?;
        Ok(RecordType::new(labels))
    }

    /// A box signature variant: `( labels )` or `{ labels }`, keeping
    /// declaration order.
    fn sig_variant(&mut self) -> PResult<Vec<Label>> {
        if self.accept(&Tok::LParen) {
            let labels = self.labels_until(&Tok::RParen)?;
            self.expect(&Tok::RParen)?;
            Ok(labels)
        } else {
            self.expect(&Tok::LBrace)?;
            let labels = self.labels_until(&Tok::RBrace)?;
            self.expect(&Tok::RBrace)?;
            Ok(labels)
        }
    }

    // --- declarations -----------------------------------------------------

    fn box_decl(&mut self) -> PResult<BoxDecl> {
        self.expect(&Tok::KwBox)?;
        let name = self.ident()?;
        let params = self.sig_variant()?;
        self.expect(&Tok::Arrow)?;
        let mut outputs = vec![self.sig_variant()?];
        while self.accept(&Tok::Bar) {
            outputs.push(self.sig_variant()?);
        }
        self.expect(&Tok::Semi)?;
        Ok(BoxDecl {
            name,
            sig: BoxSig::new(params, outputs),
        })
    }

    fn net_decl(&mut self) -> PResult<NetDecl> {
        self.expect(&Tok::KwNet)?;
        let name = self.ident()?;
        self.expect(&Tok::Assign)?;
        let body = self.net_expr()?;
        self.expect(&Tok::Semi)?;
        Ok(NetDecl { name, body })
    }

    // --- network expressions ----------------------------------------------

    fn net_expr(&mut self) -> PResult<NetAst> {
        let mut lhs = self.par_expr()?;
        while self.accept(&Tok::DotDot) {
            let rhs = self.par_expr()?;
            lhs = NetAst::serial(lhs, rhs);
        }
        Ok(lhs)
    }

    fn par_expr(&mut self) -> PResult<NetAst> {
        let mut lhs = self.postfix_expr()?;
        loop {
            if self.accept(&Tok::ParBar) {
                let rhs = self.postfix_expr()?;
                lhs = NetAst::parallel(lhs, rhs);
            } else if self.accept(&Tok::Bar) {
                let rhs = self.postfix_expr()?;
                lhs = NetAst::parallel_det(lhs, rhs);
            } else {
                return Ok(lhs);
            }
        }
    }

    fn postfix_expr(&mut self) -> PResult<NetAst> {
        let mut inner = self.atom()?;
        loop {
            if self.accept(&Tok::StarStar) {
                let exit = self.exit_pattern()?;
                inner = NetAst::star(inner, exit);
            } else if self.accept(&Tok::Star) {
                let exit = self.exit_pattern()?;
                inner = NetAst::star_det(inner, exit);
            } else if self.accept(&Tok::BangBang) {
                let tag = self.tag_ref()?;
                inner = NetAst::split(inner, &tag);
            } else if self.accept(&Tok::Bang) {
                let tag = self.tag_ref()?;
                inner = NetAst::split_det(inner, &tag);
            } else {
                return Ok(inner);
            }
        }
    }

    fn tag_ref(&mut self) -> PResult<String> {
        match self.peek().cloned() {
            Some(Tok::TagRef(s)) => {
                self.pos += 1;
                Ok(s)
            }
            other => {
                let found = other
                    .map(|t| t.to_string())
                    .unwrap_or_else(|| "end of input".into());
                self.err(format!("expected '<tag>', found '{found}'"))
            }
        }
    }

    fn exit_pattern(&mut self) -> PResult<ExitPattern> {
        let pattern = self.brace_pattern()?;
        if self.accept(&Tok::KwIf) {
            let guard = self.guard()?;
            Ok(ExitPattern::with_guard(pattern, guard))
        } else {
            Ok(ExitPattern::new(pattern))
        }
    }

    fn atom(&mut self) -> PResult<NetAst> {
        match self.peek().cloned() {
            Some(Tok::Ident(name)) => {
                self.pos += 1;
                Ok(NetAst::Ref(name))
            }
            Some(Tok::LBracket) => {
                let f = self.filter()?;
                Ok(NetAst::Filter(f))
            }
            Some(Tok::LParen) => {
                self.pos += 1;
                let e = self.net_expr()?;
                self.expect(&Tok::RParen)?;
                Ok(e)
            }
            other => {
                let found = other
                    .map(|t| t.to_string())
                    .unwrap_or_else(|| "end of input".into());
                self.err(format!(
                    "expected box name, filter or parenthesised network, found '{found}'"
                ))
            }
        }
    }

    // --- filters ------------------------------------------------------

    fn filter(&mut self) -> PResult<FilterDef> {
        self.expect(&Tok::LBracket)?;
        let pattern = self.brace_pattern()?;
        self.expect(&Tok::Arrow)?;
        let mut outputs = vec![self.rec_spec()?];
        while self.accept(&Tok::Semi) {
            outputs.push(self.rec_spec()?);
        }
        self.expect(&Tok::RBracket)?;
        let line = self.line();
        FilterDef::new(pattern, outputs).map_err(|e| ParseError {
            message: e.to_string(),
            line,
        })
    }

    fn rec_spec(&mut self) -> PResult<RecSpec> {
        self.expect(&Tok::LBrace)?;
        let mut items = Vec::new();
        if self.peek() != Some(&Tok::RBrace) {
            loop {
                items.push(self.spec_item()?);
                if !self.accept(&Tok::Comma) {
                    break;
                }
            }
        }
        self.expect(&Tok::RBrace)?;
        Ok(RecSpec { items })
    }

    fn spec_item(&mut self) -> PResult<SpecItem> {
        match self.peek().cloned() {
            Some(Tok::Ident(name)) => {
                self.pos += 1;
                if self.accept(&Tok::Assign) {
                    let old = self.ident()?;
                    Ok(SpecItem::rename(&name, &old))
                } else {
                    Ok(SpecItem::copy(&name))
                }
            }
            Some(Tok::TagRef(name)) => {
                self.pos += 1;
                if self.accept(&Tok::Assign) {
                    let e = self.tag_expr()?;
                    Ok(SpecItem::tag(&name, Some(e)))
                } else {
                    Ok(SpecItem::tag(&name, None))
                }
            }
            other => {
                let found = other
                    .map(|t| t.to_string())
                    .unwrap_or_else(|| "end of input".into());
                self.err(format!("expected record specifier item, found '{found}'"))
            }
        }
    }

    // --- tag expressions and guards -------------------------------------

    fn tag_expr(&mut self) -> PResult<TagExpr> {
        let mut lhs = self.tag_term()?;
        loop {
            let op = match self.peek() {
                Some(Tok::Plus) => ArithOp::Add,
                Some(Tok::Minus) => ArithOp::Sub,
                _ => return Ok(lhs),
            };
            self.pos += 1;
            let rhs = self.tag_term()?;
            lhs = TagExpr::Bin(op, Box::new(lhs), Box::new(rhs));
        }
    }

    fn tag_term(&mut self) -> PResult<TagExpr> {
        let mut lhs = self.tag_factor()?;
        loop {
            let op = match self.peek() {
                Some(Tok::Star) => ArithOp::Mul,
                Some(Tok::Slash) => ArithOp::Div,
                Some(Tok::Percent) => ArithOp::Mod,
                _ => return Ok(lhs),
            };
            self.pos += 1;
            let rhs = self.tag_factor()?;
            lhs = TagExpr::Bin(op, Box::new(lhs), Box::new(rhs));
        }
    }

    fn tag_factor(&mut self) -> PResult<TagExpr> {
        match self.peek().cloned() {
            Some(Tok::Int(v)) => {
                self.pos += 1;
                Ok(TagExpr::Lit(v))
            }
            Some(Tok::TagRef(t)) => {
                self.pos += 1;
                Ok(TagExpr::Tag(Label::tag(&t)))
            }
            Some(Tok::Minus) => {
                self.pos += 1;
                let e = self.tag_factor()?;
                Ok(TagExpr::Neg(Box::new(e)))
            }
            Some(Tok::LParen) => {
                self.pos += 1;
                let e = self.tag_expr()?;
                self.expect(&Tok::RParen)?;
                Ok(e)
            }
            other => {
                let found = other
                    .map(|t| t.to_string())
                    .unwrap_or_else(|| "end of input".into());
                self.err(format!("expected tag expression, found '{found}'"))
            }
        }
    }

    fn guard(&mut self) -> PResult<Guard> {
        let mut lhs = self.guard_and()?;
        while self.accept(&Tok::ParBar) {
            let rhs = self.guard_and()?;
            lhs = Guard::Or(Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn guard_and(&mut self) -> PResult<Guard> {
        let mut lhs = self.guard_not()?;
        while self.accept(&Tok::AndAnd) {
            let rhs = self.guard_not()?;
            lhs = Guard::And(Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn guard_not(&mut self) -> PResult<Guard> {
        if self.accept(&Tok::Bang) {
            self.expect(&Tok::LParen)?;
            let g = self.guard()?;
            self.expect(&Tok::RParen)?;
            return Ok(Guard::Not(Box::new(g)));
        }
        // A '(' may open a parenthesised guard group or a parenthesised
        // tag expression; try the guard reading first and backtrack.
        if self.peek() == Some(&Tok::LParen) {
            let save = self.pos;
            self.pos += 1;
            if let Ok(g) = self.guard() {
                if self.accept(&Tok::RParen) {
                    return Ok(g);
                }
            }
            self.pos = save;
        }
        let lhs = self.tag_expr()?;
        let op = match self.peek() {
            Some(Tok::EqEq) => CmpOp::Eq,
            Some(Tok::NotEq) => CmpOp::Ne,
            Some(Tok::Lt) => CmpOp::Lt,
            Some(Tok::Le) => CmpOp::Le,
            Some(Tok::Gt) => CmpOp::Gt,
            Some(Tok::Ge) => CmpOp::Ge,
            other => {
                let found = other
                    .map(|t| t.to_string())
                    .unwrap_or_else(|| "end of input".into());
                return self.err(format!("expected comparison operator, found '{found}'"));
            }
        };
        self.pos += 1;
        let rhs = self.tag_expr()?;
        Ok(Guard::Cmp(op, lhs, rhs))
    }

    // --- program ----------------------------------------------------------

    fn program(&mut self) -> PResult<Program> {
        let mut p = Program::default();
        while let Some(t) = self.peek() {
            match t {
                Tok::KwBox => p.boxes.push(self.box_decl()?),
                Tok::KwNet => p.nets.push(self.net_decl()?),
                other => {
                    let other = other.to_string();
                    return self.err(format!(
                        "expected 'box' or 'net' declaration, found '{other}'"
                    ));
                }
            }
        }
        Ok(p)
    }
}

fn make_parser(src: &str) -> PResult<Parser> {
    let toks = lex(src).map_err(|e| ParseError {
        message: e.message,
        line: e.line,
    })?;
    Ok(Parser { toks, pos: 0 })
}

/// Parses a complete program (box and net declarations).
pub fn parse_program(src: &str) -> PResult<Program> {
    let mut p = make_parser(src)?;
    p.program()
}

/// Parses a single network expression, e.g.
/// `computeOpts .. (solveOneLevel !! <k>) ** {<done>}`.
pub fn parse_net_expr(src: &str) -> PResult<NetAst> {
    let mut p = make_parser(src)?;
    let e = p.net_expr()?;
    if p.peek().is_some() {
        return p.err("trailing input after network expression");
    }
    Ok(e)
}

/// Parses a single filter, e.g. `[{<k>} -> {<k>=<k>%4}]`.
pub fn parse_filter(src: &str) -> PResult<FilterDef> {
    let mut p = make_parser(src)?;
    let f = p.filter()?;
    if p.peek().is_some() {
        return p.err("trailing input after filter");
    }
    Ok(f)
}

/// Parses a guard expression, e.g. `<level> > 40`.
pub fn parse_guard(src: &str) -> PResult<Guard> {
    let mut p = make_parser(src)?;
    let g = p.guard()?;
    if p.peek().is_some() {
        return p.err("trailing input after guard");
    }
    Ok(g)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_paper_box_decl() {
        // box foo (a,<b>) -> (c) | (c,d,<e>)
        let p = parse_program("box foo (a,<b>) -> (c) | (c,d,<e>);").unwrap();
        assert_eq!(p.boxes.len(), 1);
        let b = &p.boxes[0];
        assert_eq!(b.name, "foo");
        assert_eq!(b.sig.params.len(), 2);
        assert_eq!(b.sig.outputs.len(), 2);
        assert_eq!(b.sig.output_type().to_string(), "{c} | {c,d,<e>}");
    }

    #[test]
    fn parse_brace_style_box_decl() {
        let p =
            parse_program("box solveOneLevel {board, opts} -> {board, opts} | {board, <done>};")
                .unwrap();
        assert_eq!(p.boxes[0].sig.params.len(), 2);
    }

    #[test]
    fn parse_serial_and_parallel_precedence() {
        // a .. b || c .. d ≡ a .. (b || c) .. d
        let e = parse_net_expr("a .. b || c .. d").unwrap();
        match e {
            NetAst::Serial(lhs, d) => {
                assert_eq!(*d, NetAst::boxref("d"));
                match *lhs {
                    NetAst::Serial(a, par) => {
                        assert_eq!(*a, NetAst::boxref("a"));
                        assert!(matches!(*par, NetAst::Parallel { det: false, .. }));
                    }
                    other => panic!("unexpected: {other:?}"),
                }
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn parse_det_combinators() {
        let e = parse_net_expr("a | b").unwrap();
        assert!(matches!(e, NetAst::Parallel { det: true, .. }));
        let e = parse_net_expr("a * {<done>}").unwrap();
        assert!(matches!(e, NetAst::Star { det: true, .. }));
        let e = parse_net_expr("a ! <k>").unwrap();
        assert!(matches!(e, NetAst::Split { det: true, .. }));
    }

    #[test]
    fn parse_fig1_network() {
        // computeOpts .. solveOneLevel ** {<done>}
        let e = parse_net_expr("computeOpts .. solveOneLevel ** {<done>}").unwrap();
        match e {
            NetAst::Serial(a, star) => {
                assert_eq!(*a, NetAst::boxref("computeOpts"));
                match *star {
                    NetAst::Star { inner, exit, det } => {
                        assert!(!det);
                        assert_eq!(*inner, NetAst::boxref("solveOneLevel"));
                        assert_eq!(exit.pattern, RecordType::of(&[], &["done"]));
                        assert!(exit.guard.is_none());
                    }
                    other => panic!("unexpected: {other:?}"),
                }
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn parse_fig2_network() {
        let e =
            parse_net_expr("computeOpts .. [{} -> {<k>=1}] .. (solveOneLevel !! <k>) ** {<done>}")
                .unwrap();
        // Shape: serial(serial(computeOpts, filter), star(split(...)))
        match e {
            NetAst::Serial(lhs, star) => {
                assert!(matches!(*star, NetAst::Star { .. }));
                match *lhs {
                    NetAst::Serial(_, f) => assert!(matches!(*f, NetAst::Filter(_))),
                    other => panic!("unexpected: {other:?}"),
                }
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn parse_fig3_network_with_guard() {
        let e = parse_net_expr(
            "computeOpts .. [{} -> {<k>=1}] .. \
             ([{<k>} -> {<k>=<k>%4}] .. (solveOneLevel !! <k>)) ** {<level>} if <level> > 40 \
             .. solve",
        )
        .unwrap();
        let mut found_guard = false;
        fn walk(e: &NetAst, found: &mut bool) {
            match e {
                NetAst::Star { exit, inner, .. } => {
                    if exit.guard.is_some() {
                        *found = true;
                    }
                    walk(inner, found);
                }
                NetAst::Serial(a, b) => {
                    walk(a, found);
                    walk(b, found);
                }
                NetAst::Parallel { left, right, .. } => {
                    walk(left, found);
                    walk(right, found);
                }
                NetAst::Split { inner, .. } => walk(inner, found),
                _ => {}
            }
        }
        walk(&e, &mut found_guard);
        assert!(found_guard, "expected a guarded exit pattern in {e:?}");
    }

    #[test]
    fn parse_paper_filter() {
        let f = parse_filter("[{a,b,<c>} -> {a, z=a, <t>}; {b, a=b, <c>=<c>+1}]").unwrap();
        assert_eq!(f.outputs.len(), 2);
        assert_eq!(f.pattern, RecordType::of(&["a", "b"], &["c"]));
        assert_eq!(
            f.outputs[1].items[2],
            SpecItem::tag(
                "c",
                Some(TagExpr::Bin(
                    ArithOp::Add,
                    Box::new(TagExpr::tag("c")),
                    Box::new(TagExpr::Lit(1)),
                ))
            )
        );
    }

    #[test]
    fn parse_throttle_filter() {
        let f = parse_filter("[{<k>} -> {<k>=<k>%4}]").unwrap();
        assert_eq!(f.pattern, RecordType::of(&[], &["k"]));
        match &f.outputs[0].items[0] {
            SpecItem::Tag {
                name,
                init: Some(TagExpr::Bin(ArithOp::Mod, _, _)),
            } => assert_eq!(*name, Label::tag("k")),
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn parse_guard_connectives_and_precedence() {
        let g = parse_guard("<a> > 1 && <b> < 2 || <c> == 3").unwrap();
        // && binds tighter than ||.
        assert!(matches!(g, Guard::Or(_, _)));
        let g = parse_guard("!(<a> != 0)").unwrap();
        assert!(matches!(g, Guard::Not(_)));
    }

    #[test]
    fn parse_tag_arithmetic_precedence() {
        let f = parse_filter("[{<a>,<b>} -> {<x>=<a>+<b>*2}]").unwrap();
        match &f.outputs[0].items[0] {
            SpecItem::Tag {
                init: Some(TagExpr::Bin(ArithOp::Add, _, rhs)),
                ..
            } => assert!(matches!(**rhs, TagExpr::Bin(ArithOp::Mul, _, _))),
            other => panic!("unexpected: {other:?}"),
        }
        // Parenthesised override.
        let f = parse_filter("[{<a>,<b>} -> {<x>=(<a>+<b>)*2}]").unwrap();
        match &f.outputs[0].items[0] {
            SpecItem::Tag {
                init: Some(TagExpr::Bin(ArithOp::Mul, lhs, _)),
                ..
            } => assert!(matches!(**lhs, TagExpr::Bin(ArithOp::Add, _, _))),
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn parse_program_with_nets() {
        let src = "
            box computeOpts {board} -> {board, opts};
            box solveOneLevel {board, opts} -> {board, opts} | {board, <done>};
            net fig1 = computeOpts .. solveOneLevel ** {<done>};
        ";
        let p = parse_program(src).unwrap();
        assert_eq!(p.boxes.len(), 2);
        assert_eq!(p.nets.len(), 1);
        let env = p.env().unwrap();
        assert!(env.lookup_sig("fig1").is_some());
    }

    #[test]
    fn error_messages_carry_lines() {
        let e = parse_program("box foo (a) ->\n(b)\nnet oops").unwrap_err();
        assert!(e.line >= 2, "line was {}", e.line);
        let e = parse_net_expr("a .. ..").unwrap_err();
        assert!(e.message.contains("expected"));
    }

    #[test]
    fn rejects_trailing_tokens() {
        assert!(parse_net_expr("a b").is_err());
        assert!(parse_filter("[{a} -> {a}] extra").is_err());
        assert!(parse_guard("<a> > 1 1").is_err());
    }

    #[test]
    fn rejects_invalid_filter_semantics_at_parse_time() {
        // Field copied but absent from the pattern — FilterDef::new
        // validation surfaces as a parse error.
        assert!(parse_filter("[{a} -> {b}]").is_err());
    }

    #[test]
    fn empty_pattern_and_empty_spec() {
        let f = parse_filter("[{} -> {<k>=1}]").unwrap();
        assert!(f.pattern.is_empty());
        let f = parse_filter("[{a} -> {}]").unwrap();
        assert!(f.outputs[0].items.is_empty());
    }
}
