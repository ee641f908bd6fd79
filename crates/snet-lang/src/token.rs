//! Lexer for the S-Net surface syntax.
//!
//! Tokenises network expressions such as
//!
//! ```text
//! box solveOneLevel ({board, opts} -> {board, opts, <k>} | {board, <done>});
//! net fig2 = computeOpts .. [{} -> {<k>=1}] .. (solveOneLevel !! <k>) ** {<done>};
//! ```
//!
//! Tokens borrow the source: an identifier or a tag name is a slice of
//! the text it was lexed from ([`Tok<'src>`](Tok)), so lexing
//! allocates the token vector and nothing else, however many names the
//! program holds.
//!
//! The only lexical subtlety is `<`: it opens a tag reference
//! (`<done>`), appears in comparison operators (`<`, `<=`), and both
//! uses occur inside exit guards (`{<level>} if <level> > 40`). The
//! lexer resolves this with bounded lookahead: `<ident>` lexes as a
//! single [`Tok::TagRef`], anything else as the comparison operator.

use std::fmt;

/// A lexical token, borrowing its name (if any) from the source.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tok<'src> {
    Ident(&'src str),
    Int(i64),
    /// `<name>` — a tag reference (the bare name).
    TagRef(&'src str),
    // Punctuation and combinators.
    LBrace,
    RBrace,
    LParen,
    RParen,
    LBracket,
    RBracket,
    Comma,
    Semi,
    Arrow,    // ->
    DotDot,   // ..
    ParBar,   // ||
    Bar,      // |
    StarStar, // **
    Star,     // *
    BangBang, // !!
    Bang,     // !
    Assign,   // =
    // Arithmetic.
    Plus,
    Minus,
    Slash,
    Percent,
    // Comparison / logic (guards).
    EqEq,
    NotEq,
    Lt,
    Le,
    Gt,
    Ge,
    AndAnd,
    // Keywords.
    KwBox,
    KwNet,
    KwIf,
}

impl fmt::Display for Tok<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tok::Ident(s) => write!(f, "{s}"),
            Tok::Int(v) => write!(f, "{v}"),
            Tok::TagRef(s) => write!(f, "<{s}>"),
            Tok::LBrace => write!(f, "{{"),
            Tok::RBrace => write!(f, "}}"),
            Tok::LParen => write!(f, "("),
            Tok::RParen => write!(f, ")"),
            Tok::LBracket => write!(f, "["),
            Tok::RBracket => write!(f, "]"),
            Tok::Comma => write!(f, ","),
            Tok::Semi => write!(f, ";"),
            Tok::Arrow => write!(f, "->"),
            Tok::DotDot => write!(f, ".."),
            Tok::ParBar => write!(f, "||"),
            Tok::Bar => write!(f, "|"),
            Tok::StarStar => write!(f, "**"),
            Tok::Star => write!(f, "*"),
            Tok::BangBang => write!(f, "!!"),
            Tok::Bang => write!(f, "!"),
            Tok::Assign => write!(f, "="),
            Tok::Plus => write!(f, "+"),
            Tok::Minus => write!(f, "-"),
            Tok::Slash => write!(f, "/"),
            Tok::Percent => write!(f, "%"),
            Tok::EqEq => write!(f, "=="),
            Tok::NotEq => write!(f, "!="),
            Tok::Lt => write!(f, "<"),
            Tok::Le => write!(f, "<="),
            Tok::Gt => write!(f, ">"),
            Tok::Ge => write!(f, ">="),
            Tok::AndAnd => write!(f, "&&"),
            Tok::KwBox => write!(f, "box"),
            Tok::KwNet => write!(f, "net"),
            Tok::KwIf => write!(f, "if"),
        }
    }
}

/// A token plus its source position (byte offset and 1-based line).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Spanned<'src> {
    pub tok: Tok<'src>,
    pub offset: usize,
    pub line: u32,
}

/// A lexical error with position information.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LexError {
    pub message: String,
    pub offset: usize,
    pub line: u32,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lex error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for LexError {}

struct Lexer<'src> {
    text: &'src str,
    pos: usize,
    line: u32,
}

impl<'src> Lexer<'src> {
    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn peek2(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos + 1).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let c = self.peek()?;
        self.pos += 1;
        if c == b'\n' {
            self.line += 1;
        }
        Some(c)
    }

    fn err(&self, message: impl Into<String>) -> LexError {
        LexError {
            message: message.into(),
            offset: self.pos,
            line: self.line,
        }
    }

    fn skip_trivia(&mut self) -> Result<(), LexError> {
        loop {
            match self.peek() {
                Some(c) if c.is_ascii_whitespace() => {
                    self.bump();
                }
                // Line comments: // ... (not followed by a third use of
                // '/' mattering; '//' always starts a comment because
                // no S-Net operator contains two slashes).
                Some(b'/') if self.peek2() == Some(b'/') => {
                    while let Some(c) = self.peek() {
                        if c == b'\n' {
                            break;
                        }
                        self.bump();
                    }
                }
                _ => return Ok(()),
            }
        }
    }

    /// The run of ASCII letters, digits and `_` at the current
    /// position, as a slice of the source: the run is ASCII, so both
    /// its ends are character boundaries.
    fn ident(&mut self) -> &'src str {
        let start = self.pos;
        while let Some(c) = self.peek() {
            if c.is_ascii_alphanumeric() || c == b'_' {
                self.bump();
            } else {
                break;
            }
        }
        &self.text[start..self.pos]
    }

    /// Attempts to lex `<ident>` starting at the current `<`; restores
    /// position and returns `None` if the shape doesn't match.
    fn try_tagref(&mut self) -> Option<&'src str> {
        let save = (self.pos, self.line);
        debug_assert_eq!(self.peek(), Some(b'<'));
        self.bump();
        match self.peek() {
            Some(c) if c.is_ascii_alphabetic() || c == b'_' => {}
            _ => {
                (self.pos, self.line) = save;
                return None;
            }
        }
        let name = self.ident();
        if self.peek() == Some(b'>') {
            self.bump();
            Some(name)
        } else {
            (self.pos, self.line) = save;
            None
        }
    }

    fn next_token(&mut self) -> Result<Option<Spanned<'src>>, LexError> {
        self.skip_trivia()?;
        let offset = self.pos;
        let line = self.line;
        let Some(c) = self.peek() else {
            return Ok(None);
        };
        let tok = match c {
            b'{' => {
                self.bump();
                Tok::LBrace
            }
            b'}' => {
                self.bump();
                Tok::RBrace
            }
            b'(' => {
                self.bump();
                Tok::LParen
            }
            b')' => {
                self.bump();
                Tok::RParen
            }
            b'[' => {
                self.bump();
                Tok::LBracket
            }
            b']' => {
                self.bump();
                Tok::RBracket
            }
            b',' => {
                self.bump();
                Tok::Comma
            }
            b';' => {
                self.bump();
                Tok::Semi
            }
            b'+' => {
                self.bump();
                Tok::Plus
            }
            b'%' => {
                self.bump();
                Tok::Percent
            }
            b'/' => {
                self.bump();
                Tok::Slash
            }
            b'-' => {
                self.bump();
                if self.peek() == Some(b'>') {
                    self.bump();
                    Tok::Arrow
                } else {
                    Tok::Minus
                }
            }
            b'.' => {
                self.bump();
                if self.peek() == Some(b'.') {
                    self.bump();
                    Tok::DotDot
                } else {
                    return Err(self.err("expected '..'"));
                }
            }
            b'|' => {
                self.bump();
                if self.peek() == Some(b'|') {
                    self.bump();
                    Tok::ParBar
                } else {
                    Tok::Bar
                }
            }
            b'*' => {
                self.bump();
                if self.peek() == Some(b'*') {
                    self.bump();
                    Tok::StarStar
                } else {
                    Tok::Star
                }
            }
            b'!' => {
                self.bump();
                match self.peek() {
                    Some(b'!') => {
                        self.bump();
                        Tok::BangBang
                    }
                    Some(b'=') => {
                        self.bump();
                        Tok::NotEq
                    }
                    _ => Tok::Bang,
                }
            }
            b'=' => {
                self.bump();
                if self.peek() == Some(b'=') {
                    self.bump();
                    Tok::EqEq
                } else {
                    Tok::Assign
                }
            }
            b'<' => {
                if let Some(name) = self.try_tagref() {
                    Tok::TagRef(name)
                } else {
                    self.bump();
                    if self.peek() == Some(b'=') {
                        self.bump();
                        Tok::Le
                    } else {
                        Tok::Lt
                    }
                }
            }
            b'>' => {
                self.bump();
                if self.peek() == Some(b'=') {
                    self.bump();
                    Tok::Ge
                } else {
                    Tok::Gt
                }
            }
            b'&' => {
                self.bump();
                if self.peek() == Some(b'&') {
                    self.bump();
                    Tok::AndAnd
                } else {
                    return Err(self.err("expected '&&'"));
                }
            }
            c if c.is_ascii_digit() => {
                let start = self.pos;
                while let Some(c) = self.peek() {
                    if c.is_ascii_digit() {
                        self.bump();
                    } else {
                        break;
                    }
                }
                let text = &self.text[start..self.pos];
                let v: i64 = text
                    .parse()
                    .map_err(|_| self.err(format!("integer literal out of range: {text}")))?;
                Tok::Int(v)
            }
            c if c.is_ascii_alphabetic() || c == b'_' => {
                let name = self.ident();
                match name {
                    "box" => Tok::KwBox,
                    "net" => Tok::KwNet,
                    "if" => Tok::KwIf,
                    _ => Tok::Ident(name),
                }
            }
            _ => {
                // Every token so far is ASCII, so the current position
                // starts a character: name it, not its first byte.
                let other = self.text.get(self.pos..).and_then(|t| t.chars().next());
                let other = other.unwrap_or(char::REPLACEMENT_CHARACTER);
                return Err(self.err(format!("unexpected character '{other}'")));
            }
        };
        Ok(Some(Spanned { tok, offset, line }))
    }
}

/// Tokenises a complete source string. The tokens borrow `src`.
pub fn lex(src: &str) -> Result<Vec<Spanned<'_>>, LexError> {
    let mut lx = Lexer {
        text: src,
        pos: 0,
        line: 1,
    };
    let mut out = Vec::new();
    while let Some(t) = lx.next_token()? {
        out.push(t);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(src: &str) -> Vec<Tok<'_>> {
        lex(src).unwrap().into_iter().map(|s| s.tok).collect()
    }

    #[test]
    fn combinator_tokens() {
        assert_eq!(
            toks("a .. b || c | d ** e * f !! g ! h"),
            vec![
                Tok::Ident("a"),
                Tok::DotDot,
                Tok::Ident("b"),
                Tok::ParBar,
                Tok::Ident("c"),
                Tok::Bar,
                Tok::Ident("d"),
                Tok::StarStar,
                Tok::Ident("e"),
                Tok::Star,
                Tok::Ident("f"),
                Tok::BangBang,
                Tok::Ident("g"),
                Tok::Bang,
                Tok::Ident("h"),
            ]
        );
    }

    #[test]
    fn tagrefs_vs_comparisons() {
        assert_eq!(
            toks("<level> > 40"),
            vec![Tok::TagRef("level"), Tok::Gt, Tok::Int(40)]
        );
        assert_eq!(
            toks("<a> < <b>"),
            vec![Tok::TagRef("a"), Tok::Lt, Tok::TagRef("b"),]
        );
        assert_eq!(toks("1 <= 2"), vec![Tok::Int(1), Tok::Le, Tok::Int(2)]);
        // '<' followed by a digit is a comparison, not a tag.
        assert_eq!(toks("x <3"), vec![Tok::Ident("x"), Tok::Lt, Tok::Int(3)]);
    }

    #[test]
    fn paper_filter_lexes() {
        // [{a,b,<c>} -> {a, z=a, <t>}; {b, a=b, <c>=<c>+1}]
        let ts = toks("[{a,b,<c>} -> {a, z=a, <t>}; {b, a=b, <c>=<c>+1}]");
        assert!(ts.contains(&Tok::LBracket));
        assert!(ts.contains(&Tok::TagRef("c")));
        assert!(ts.contains(&Tok::Plus));
        assert!(ts.contains(&Tok::Semi));
        assert_eq!(*ts.last().unwrap(), Tok::RBracket);
    }

    #[test]
    fn keywords_and_idents() {
        assert_eq!(
            toks("box net if boxer nets iffy"),
            vec![
                Tok::KwBox,
                Tok::KwNet,
                Tok::KwIf,
                Tok::Ident("boxer"),
                Tok::Ident("nets"),
                Tok::Ident("iffy"),
            ]
        );
    }

    #[test]
    fn comments_are_skipped() {
        assert_eq!(
            toks("a // comment .. ** !!\nb"),
            vec![Tok::Ident("a"), Tok::Ident("b")]
        );
    }

    #[test]
    fn line_numbers_advance() {
        let ts = lex("a\nb\n  c").unwrap();
        assert_eq!(ts[0].line, 1);
        assert_eq!(ts[1].line, 2);
        assert_eq!(ts[2].line, 3);
    }

    #[test]
    fn arithmetic_and_logic() {
        assert_eq!(
            toks("<k> % 4 == 0 && <j> != 1"),
            vec![
                Tok::TagRef("k"),
                Tok::Percent,
                Tok::Int(4),
                Tok::EqEq,
                Tok::Int(0),
                Tok::AndAnd,
                Tok::TagRef("j"),
                Tok::NotEq,
                Tok::Int(1),
            ]
        );
    }

    #[test]
    fn error_on_stray_character() {
        assert!(lex("a ^ b").is_err());
        assert!(lex("a & b").is_err());
        assert!(lex("a . b").is_err());
    }

    #[test]
    fn a_stray_non_ascii_character_is_named_as_decoded() {
        let err = lex("f .. é").unwrap_err();
        assert_eq!(err.message, "unexpected character 'é'");
        assert_eq!((err.offset, err.line), (5, 1));
        // Past a comment holding non-ASCII text too.
        let err = lex("// naïve\n→").unwrap_err();
        assert_eq!(err.message, "unexpected character '→'");
        assert_eq!(err.line, 2);
    }

    #[test]
    fn names_borrow_the_source() {
        let src = String::from("box <tag>");
        let ts = lex(&src).unwrap();
        let Tok::TagRef(name) = ts[1].tok else {
            panic!("{:?}", ts[1])
        };
        assert_eq!(name, "tag");
        assert!(src.as_bytes().as_ptr_range().contains(&name.as_ptr()));
    }

    #[test]
    fn arrow_and_minus() {
        assert_eq!(
            toks("-> - -5"),
            vec![Tok::Arrow, Tok::Minus, Tok::Minus, Tok::Int(5)]
        );
    }
}
