//! # snet-lang — the declarative surface of S-Net
//!
//! "S-Net is a coordination language based on stream processing"
//! (Grelck, Scholz & Shafarenko, IPPS 2007). This crate provides the
//! language front end of the reproduction:
//!
//! * [`token`] — lexer for the combinator syntax;
//! * [`expr`] — tag arithmetic (`<k>=<k>%4`) and exit guards
//!   (`<level> > 40`);
//! * [`filter`] — the housekeeping construct
//!   `[pattern -> rec1; rec2; ...]`, including its pure execution
//!   semantics (record in, records out, flow inheritance);
//! * [`ast`] — the network algebra (`..`, `||`/`|`, `**`/`*`,
//!   `!!`/`!`) plus signature inference against an [`Env`] of
//!   declarations;
//! * [`parser`] — recursive descent from text to [`Program`]s;
//! * [`pretty`] — precedence-aware printing with the round-trip
//!   guarantee `parse(pretty(ast)) == ast`.
//!
//! Syntax deviation from the paper, by design: exit guards are written
//! `{<level>} if <level> > 40` instead of `{<level>} | <level> > 40`,
//! keeping `|` unambiguous with the deterministic parallel combinator.

#![forbid(unsafe_code)]

pub mod ast;
pub mod expr;
pub mod filter;
pub mod parser;
pub mod pretty;
pub mod token;

pub use ast::{BoxDecl, Env, ExitPattern, NetAst, NetDecl, Program};
pub use expr::{ArithOp, CmpOp, ExprError, Guard, TagExpr};
pub use filter::{FilterDef, FilterError, RecSpec, SpecItem};
pub use parser::{
    parse_filter, parse_guard, parse_net_expr, parse_program, ParseError, MAX_NESTING,
};
pub use pretty::{pretty_filter, pretty_guard, pretty_net, pretty_program};
