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
use snet_types::{BoxSig, FxMap, Label, RecordType};
use std::fmt;

/// The deepest nesting the parser accepts, in two senses: the syntax
/// tree of a declaration or expression is at most this deep (every
/// combinator, operator and comparison is one level), and at most
/// this many parentheses are open at once. Deeper input is a
/// [`ParseError`], not a stack overflow in the parser or in any pass
/// that walks the tree (inference, compilation, printing); the
/// printer adds at most one pair of parentheses per level, so what it
/// prints of a tree within the limit parses again. Fixed, not a
/// setting: no program in the paper nests past a handful of levels.
pub const MAX_NESTING: u32 = 128;

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

struct Parser<'src> {
    toks: Vec<Spanned<'src>>,
    pos: usize,
    /// Every label this parse has made, by name and kind (`true`: a
    /// tag): each distinct label is interned once per parse.
    labels: FxMap<(&'src str, bool), Label>,
    /// Parentheses open around the current token.
    parens: u32,
    /// Negations and `!(` groups open around the current token: levels
    /// of the tree whose depth is known only once their operand is.
    /// With `parens`, bounds the parser's own recursion by
    /// [`MAX_NESTING`] before it recurses.
    prefixes: u32,
    /// Set once the input nests past [`MAX_NESTING`]: the guard
    /// reading of a `(` does not backtrack over that error.
    too_deep: bool,
}

type PResult<T> = Result<T, ParseError>;

/// A parsed node and its nesting (0 for a leaf).
type Nested<T> = PResult<(T, u32)>;

impl<'src> Parser<'src> {
    fn new(toks: Vec<Spanned<'src>>) -> Parser<'src> {
        Parser {
            toks,
            pos: 0,
            labels: FxMap::default(),
            parens: 0,
            prefixes: 0,
            too_deep: false,
        }
    }

    fn peek(&self) -> Option<Tok<'src>> {
        self.toks.get(self.pos).map(|s| s.tok)
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

    /// "expected {what}, found '{the current token}'".
    fn expected<T>(&self, what: &str) -> PResult<T> {
        match self.peek() {
            Some(t) => self.err(format!("expected {what}, found '{t}'")),
            None => self.err(format!("expected {what}, found 'end of input'")),
        }
    }

    fn accept(&mut self, tok: Tok<'_>) -> bool {
        if self.peek() == Some(tok) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, tok: Tok<'_>) -> PResult<()> {
        if self.accept(tok) {
            Ok(())
        } else {
            self.expected(&format!("'{tok}'"))
        }
    }

    fn ident(&mut self) -> PResult<&'src str> {
        match self.peek() {
            Some(Tok::Ident(s)) => {
                self.pos += 1;
                Ok(s)
            }
            _ => self.expected("identifier"),
        }
    }

    /// The label `name` of kind `tag`, interned once per parse.
    fn intern(&mut self, name: &'src str, tag: bool) -> Label {
        *self.labels.entry((name, tag)).or_insert_with(|| {
            if tag {
                Label::tag(name)
            } else {
                Label::field(name)
            }
        })
    }

    // --- nesting ----------------------------------------------------------

    /// Opens a parenthesis before parsing inside it;
    /// [`Parser::close_paren`] ends it.
    fn open_paren(&mut self) -> PResult<()> {
        self.parens += 1;
        self.within(self.parens)
    }

    fn close_paren(&mut self) {
        self.parens -= 1;
    }

    /// Opens a negation or a `!(` group before parsing its operand;
    /// [`Parser::close_prefix`] ends it.
    fn open_prefix(&mut self) -> PResult<()> {
        self.prefixes += 1;
        self.within(self.prefixes)
    }

    fn close_prefix(&mut self) {
        self.prefixes -= 1;
    }

    fn within(&mut self, open: u32) -> PResult<()> {
        if open > MAX_NESTING {
            return self.too_deep();
        }
        Ok(())
    }

    /// The nesting of a node one level above children of nesting
    /// `child`, if within [`MAX_NESTING`].
    fn level(&mut self, child: u32) -> PResult<u32> {
        if child >= MAX_NESTING {
            return self.too_deep();
        }
        Ok(child + 1)
    }

    fn too_deep<T>(&mut self) -> PResult<T> {
        self.too_deep = true;
        self.err(format!("nesting deeper than {MAX_NESTING} levels"))
    }

    // --- labels, patterns -------------------------------------------------

    /// One label: `ident` (field) or `<ident>` (tag).
    fn label(&mut self) -> PResult<Label> {
        match self.peek() {
            Some(Tok::Ident(s)) => {
                self.pos += 1;
                Ok(self.intern(s, false))
            }
            Some(Tok::TagRef(s)) => {
                self.pos += 1;
                Ok(self.intern(s, true))
            }
            _ => self.expected("label"),
        }
    }

    /// Comma-separated labels until the closing token (not consumed).
    fn labels_until(&mut self, close: Tok<'_>) -> PResult<Vec<Label>> {
        let mut out = Vec::new();
        if self.peek() == Some(close) {
            return Ok(out);
        }
        loop {
            out.push(self.label()?);
            if !self.accept(Tok::Comma) {
                break;
            }
        }
        Ok(out)
    }

    /// `{ labels }` as a record type.
    fn brace_pattern(&mut self) -> PResult<RecordType> {
        self.expect(Tok::LBrace)?;
        let labels = self.labels_until(Tok::RBrace)?;
        self.expect(Tok::RBrace)?;
        Ok(RecordType::new(labels))
    }

    /// A box signature variant: `( labels )` or `{ labels }`, keeping
    /// declaration order.
    fn sig_variant(&mut self) -> PResult<Vec<Label>> {
        let close = if self.accept(Tok::LParen) {
            Tok::RParen
        } else {
            self.expect(Tok::LBrace)?;
            Tok::RBrace
        };
        let labels = self.labels_until(close)?;
        self.expect(close)?;
        Ok(labels)
    }

    // --- declarations -----------------------------------------------------

    fn box_decl(&mut self) -> PResult<BoxDecl> {
        self.expect(Tok::KwBox)?;
        let name = self.ident()?.to_string();
        let params = self.sig_variant()?;
        self.expect(Tok::Arrow)?;
        let mut outputs = vec![self.sig_variant()?];
        while self.accept(Tok::Bar) {
            outputs.push(self.sig_variant()?);
        }
        self.expect(Tok::Semi)?;
        Ok(BoxDecl {
            name,
            sig: BoxSig::new(params, outputs),
        })
    }

    fn net_decl(&mut self) -> PResult<NetDecl> {
        self.expect(Tok::KwNet)?;
        let name = self.ident()?.to_string();
        self.expect(Tok::Assign)?;
        let (body, _) = self.net_expr()?;
        self.expect(Tok::Semi)?;
        Ok(NetDecl { name, body })
    }

    // --- network expressions ----------------------------------------------

    fn net_expr(&mut self) -> Nested<NetAst> {
        let (mut lhs, mut depth) = self.par_expr()?;
        while self.accept(Tok::DotDot) {
            let (rhs, d) = self.par_expr()?;
            depth = self.level(depth.max(d))?;
            lhs = NetAst::serial(lhs, rhs);
        }
        Ok((lhs, depth))
    }

    fn par_expr(&mut self) -> Nested<NetAst> {
        let (mut lhs, mut depth) = self.postfix_expr()?;
        loop {
            let det = if self.accept(Tok::ParBar) {
                false
            } else if self.accept(Tok::Bar) {
                true
            } else {
                return Ok((lhs, depth));
            };
            let (rhs, d) = self.postfix_expr()?;
            depth = self.level(depth.max(d))?;
            lhs = if det {
                NetAst::parallel_det(lhs, rhs)
            } else {
                NetAst::parallel(lhs, rhs)
            };
        }
    }

    fn postfix_expr(&mut self) -> Nested<NetAst> {
        let (mut inner, mut depth) = self.atom()?;
        loop {
            inner = if self.accept(Tok::StarStar) {
                let (exit, d) = self.exit_pattern()?;
                depth = self.level(depth.max(d))?;
                NetAst::star(inner, exit)
            } else if self.accept(Tok::Star) {
                let (exit, d) = self.exit_pattern()?;
                depth = self.level(depth.max(d))?;
                NetAst::star_det(inner, exit)
            } else if self.accept(Tok::BangBang) {
                let tag = self.tag_ref()?;
                depth = self.level(depth)?;
                NetAst::split(inner, tag)
            } else if self.accept(Tok::Bang) {
                let tag = self.tag_ref()?;
                depth = self.level(depth)?;
                NetAst::split_det(inner, tag)
            } else {
                return Ok((inner, depth));
            };
        }
    }

    fn tag_ref(&mut self) -> PResult<&'src str> {
        match self.peek() {
            Some(Tok::TagRef(s)) => {
                self.pos += 1;
                Ok(s)
            }
            _ => self.expected("'<tag>'"),
        }
    }

    fn exit_pattern(&mut self) -> Nested<ExitPattern> {
        let pattern = self.brace_pattern()?;
        if self.accept(Tok::KwIf) {
            let (guard, depth) = self.guard()?;
            Ok((ExitPattern::with_guard(pattern, guard), depth))
        } else {
            Ok((ExitPattern::new(pattern), 0))
        }
    }

    fn atom(&mut self) -> Nested<NetAst> {
        match self.peek() {
            Some(Tok::Ident(name)) => {
                self.pos += 1;
                Ok((NetAst::boxref(name), 0))
            }
            Some(Tok::LBracket) => {
                let (f, depth) = self.filter()?;
                Ok((NetAst::Filter(f), depth))
            }
            Some(Tok::LParen) => {
                self.pos += 1;
                self.open_paren()?;
                let nested = self.net_expr()?;
                self.expect(Tok::RParen)?;
                self.close_paren();
                Ok(nested)
            }
            _ => self.expected("box name, filter or parenthesised network"),
        }
    }

    // --- filters ------------------------------------------------------

    /// A filter, with the deepest nesting among its tag expressions.
    fn filter(&mut self) -> Nested<FilterDef> {
        self.expect(Tok::LBracket)?;
        let pattern = self.brace_pattern()?;
        self.expect(Tok::Arrow)?;
        let mut depth = 0;
        let mut outputs = Vec::new();
        loop {
            let (spec, d) = self.rec_spec()?;
            outputs.push(spec);
            depth = depth.max(d);
            if !self.accept(Tok::Semi) {
                break;
            }
        }
        self.expect(Tok::RBracket)?;
        let line = self.line();
        let f = FilterDef::new(pattern, outputs).map_err(|e| ParseError {
            message: e.to_string(),
            line,
        })?;
        Ok((f, depth))
    }

    fn rec_spec(&mut self) -> Nested<RecSpec> {
        self.expect(Tok::LBrace)?;
        let mut items = Vec::new();
        let mut depth = 0;
        if self.peek() != Some(Tok::RBrace) {
            loop {
                let (item, d) = self.spec_item()?;
                items.push(item);
                depth = depth.max(d);
                if !self.accept(Tok::Comma) {
                    break;
                }
            }
        }
        self.expect(Tok::RBrace)?;
        Ok((RecSpec { items }, depth))
    }

    fn spec_item(&mut self) -> Nested<SpecItem> {
        match self.peek() {
            Some(Tok::Ident(name)) => {
                self.pos += 1;
                let new = self.intern(name, false);
                if self.accept(Tok::Assign) {
                    let old = self.ident()?;
                    let old = self.intern(old, false);
                    Ok((SpecItem::RenameField { new, old }, 0))
                } else {
                    Ok((SpecItem::CopyField(new), 0))
                }
            }
            Some(Tok::TagRef(name)) => {
                self.pos += 1;
                let name = self.intern(name, true);
                if self.accept(Tok::Assign) {
                    let (e, depth) = self.tag_expr()?;
                    Ok((
                        SpecItem::Tag {
                            name,
                            init: Some(e),
                        },
                        depth,
                    ))
                } else {
                    Ok((SpecItem::Tag { name, init: None }, 0))
                }
            }
            _ => self.expected("record specifier item"),
        }
    }

    // --- tag expressions and guards -------------------------------------

    fn tag_expr(&mut self) -> Nested<TagExpr> {
        let (mut lhs, mut depth) = self.tag_term()?;
        loop {
            let op = match self.peek() {
                Some(Tok::Plus) => ArithOp::Add,
                Some(Tok::Minus) => ArithOp::Sub,
                _ => return Ok((lhs, depth)),
            };
            self.pos += 1;
            let (rhs, d) = self.tag_term()?;
            depth = self.level(depth.max(d))?;
            lhs = TagExpr::Bin(op, Box::new(lhs), Box::new(rhs));
        }
    }

    fn tag_term(&mut self) -> Nested<TagExpr> {
        let (mut lhs, mut depth) = self.tag_factor()?;
        loop {
            let op = match self.peek() {
                Some(Tok::Star) => ArithOp::Mul,
                Some(Tok::Slash) => ArithOp::Div,
                Some(Tok::Percent) => ArithOp::Mod,
                _ => return Ok((lhs, depth)),
            };
            self.pos += 1;
            let (rhs, d) = self.tag_factor()?;
            depth = self.level(depth.max(d))?;
            lhs = TagExpr::Bin(op, Box::new(lhs), Box::new(rhs));
        }
    }

    fn tag_factor(&mut self) -> Nested<TagExpr> {
        match self.peek() {
            Some(Tok::Int(v)) => {
                self.pos += 1;
                Ok((TagExpr::Lit(v), 0))
            }
            Some(Tok::TagRef(t)) => {
                self.pos += 1;
                Ok((TagExpr::Tag(self.intern(t, true)), 0))
            }
            Some(Tok::Minus) => {
                self.pos += 1;
                self.open_prefix()?;
                let (e, d) = self.tag_factor()?;
                self.close_prefix();
                Ok((TagExpr::Neg(Box::new(e)), self.level(d)?))
            }
            Some(Tok::LParen) => {
                self.pos += 1;
                self.open_paren()?;
                let nested = self.tag_expr()?;
                self.expect(Tok::RParen)?;
                self.close_paren();
                Ok(nested)
            }
            _ => self.expected("tag expression"),
        }
    }

    fn guard(&mut self) -> Nested<Guard> {
        let (mut lhs, mut depth) = self.guard_and()?;
        while self.accept(Tok::ParBar) {
            let (rhs, d) = self.guard_and()?;
            depth = self.level(depth.max(d))?;
            lhs = Guard::Or(Box::new(lhs), Box::new(rhs));
        }
        Ok((lhs, depth))
    }

    fn guard_and(&mut self) -> Nested<Guard> {
        let (mut lhs, mut depth) = self.guard_not()?;
        while self.accept(Tok::AndAnd) {
            let (rhs, d) = self.guard_not()?;
            depth = self.level(depth.max(d))?;
            lhs = Guard::And(Box::new(lhs), Box::new(rhs));
        }
        Ok((lhs, depth))
    }

    fn guard_not(&mut self) -> Nested<Guard> {
        if self.accept(Tok::Bang) {
            self.expect(Tok::LParen)?;
            self.open_prefix()?;
            let (g, d) = self.guard()?;
            self.expect(Tok::RParen)?;
            self.close_prefix();
            return Ok((Guard::Not(Box::new(g)), self.level(d)?));
        }
        // A '(' may open a parenthesised guard group or a parenthesised
        // tag expression; try the guard reading first and backtrack —
        // unless the input nests too deep to read either way.
        if self.peek() == Some(Tok::LParen) {
            let saved = (self.pos, self.parens, self.prefixes);
            self.pos += 1;
            self.open_paren()?;
            match self.guard() {
                Ok(nested) if self.accept(Tok::RParen) => {
                    self.close_paren();
                    return Ok(nested);
                }
                Err(e) if self.too_deep => return Err(e),
                _ => (self.pos, self.parens, self.prefixes) = saved,
            }
        }
        let (lhs, dl) = self.tag_expr()?;
        let op = match self.peek() {
            Some(Tok::EqEq) => CmpOp::Eq,
            Some(Tok::NotEq) => CmpOp::Ne,
            Some(Tok::Lt) => CmpOp::Lt,
            Some(Tok::Le) => CmpOp::Le,
            Some(Tok::Gt) => CmpOp::Gt,
            Some(Tok::Ge) => CmpOp::Ge,
            _ => return self.expected("comparison operator"),
        };
        self.pos += 1;
        let (rhs, dr) = self.tag_expr()?;
        Ok((Guard::Cmp(op, lhs, rhs), self.level(dl.max(dr))?))
    }

    // --- program ----------------------------------------------------------

    fn program(&mut self) -> PResult<Program> {
        let mut p = Program::default();
        while let Some(t) = self.peek() {
            match t {
                Tok::KwBox => p.boxes.push(self.box_decl()?),
                Tok::KwNet => p.nets.push(self.net_decl()?),
                _ => return self.expected("'box' or 'net' declaration"),
            }
        }
        Ok(p)
    }

    /// Fails unless every token has been read.
    fn end(&self, what: &str) -> PResult<()> {
        if self.peek().is_some() {
            return self.err(format!("trailing input after {what}"));
        }
        Ok(())
    }
}

fn make_parser(src: &str) -> PResult<Parser<'_>> {
    let toks = lex(src).map_err(|e| ParseError {
        message: e.message,
        line: e.line,
    })?;
    Ok(Parser::new(toks))
}

/// Parses a complete program (box and net declarations).
pub fn parse_program(src: &str) -> PResult<Program> {
    make_parser(src)?.program()
}

/// Parses a single network expression, e.g.
/// `computeOpts .. (solveOneLevel !! <k>) ** {<done>}`.
pub fn parse_net_expr(src: &str) -> PResult<NetAst> {
    let mut p = make_parser(src)?;
    let (e, _) = p.net_expr()?;
    p.end("network expression")?;
    Ok(e)
}

/// Parses a single filter, e.g. `[{<k>} -> {<k>=<k>%4}]`.
pub fn parse_filter(src: &str) -> PResult<FilterDef> {
    let mut p = make_parser(src)?;
    let (f, _) = p.filter()?;
    p.end("filter")?;
    Ok(f)
}

/// Parses a guard expression, e.g. `<level> > 40`.
pub fn parse_guard(src: &str) -> PResult<Guard> {
    let mut p = make_parser(src)?;
    let (g, _) = p.guard()?;
    p.end("guard")?;
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
