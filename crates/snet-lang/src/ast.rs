//! Abstract syntax of S-Net networks.
//!
//! "We use algebraic formulae to define connectivity in streaming
//! networks" (paper, Section 4). The AST mirrors that algebra: leaves
//! are boxes and filters; the four combinators — serial and parallel
//! composition, serial and parallel replication — each come in a
//! non-deterministic (`..`, `||`, `**`, `!!`) and, except for serial
//! composition, a deterministic (`|`, `*`, `!`) flavour.
//!
//! Signature inference walks the tree bottom-up using the composition
//! rules of [`snet_types::sig`], resolving named components against an
//! [`Env`] of declared boxes and nets.

use crate::expr::Guard;
use crate::filter::FilterDef;
use snet_types::{BoxSig, FxMap, NetSig, RecordType, TypeError};
use std::borrow::Cow;
use std::fmt;

/// An exit pattern for serial replication: a label-set pattern plus an
/// optional tag guard, e.g. `{<level>} if <level> > 40`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExitPattern {
    pub pattern: RecordType,
    pub guard: Option<Guard>,
}

impl ExitPattern {
    pub fn new(pattern: RecordType) -> Self {
        ExitPattern {
            pattern,
            guard: None,
        }
    }

    pub fn with_guard(pattern: RecordType, guard: Guard) -> Self {
        ExitPattern {
            pattern,
            guard: Some(guard),
        }
    }
}

impl fmt::Display for ExitPattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.pattern)?;
        if let Some(g) = &self.guard {
            write!(f, " if {g}")?;
        }
        Ok(())
    }
}

/// A network expression.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NetAst {
    /// Reference to a declared box or net by name.
    Ref(String),
    /// An inline filter.
    Filter(FilterDef),
    /// `A .. B` — pipeline.
    Serial(Box<NetAst>, Box<NetAst>),
    /// `A || B` (non-det) or `A | B` (det).
    Parallel {
        left: Box<NetAst>,
        right: Box<NetAst>,
        det: bool,
    },
    /// `A ** p` (non-det) or `A * p` (det) — serial replication with
    /// exit pattern.
    Star {
        inner: Box<NetAst>,
        exit: ExitPattern,
        det: bool,
    },
    /// `A !! <t>` (non-det) or `A ! <t>` (det) — indexed parallel
    /// replication.
    Split {
        inner: Box<NetAst>,
        tag: String,
        det: bool,
    },
}

impl NetAst {
    pub fn serial(a: NetAst, b: NetAst) -> NetAst {
        NetAst::Serial(Box::new(a), Box::new(b))
    }

    pub fn parallel(a: NetAst, b: NetAst) -> NetAst {
        NetAst::Parallel {
            left: Box::new(a),
            right: Box::new(b),
            det: false,
        }
    }

    pub fn parallel_det(a: NetAst, b: NetAst) -> NetAst {
        NetAst::Parallel {
            left: Box::new(a),
            right: Box::new(b),
            det: true,
        }
    }

    pub fn star(inner: NetAst, exit: ExitPattern) -> NetAst {
        NetAst::Star {
            inner: Box::new(inner),
            exit,
            det: false,
        }
    }

    pub fn star_det(inner: NetAst, exit: ExitPattern) -> NetAst {
        NetAst::Star {
            inner: Box::new(inner),
            exit,
            det: true,
        }
    }

    pub fn split(inner: NetAst, tag: &str) -> NetAst {
        NetAst::Split {
            inner: Box::new(inner),
            tag: tag.to_string(),
            det: false,
        }
    }

    pub fn split_det(inner: NetAst, tag: &str) -> NetAst {
        NetAst::Split {
            inner: Box::new(inner),
            tag: tag.to_string(),
            det: true,
        }
    }

    pub fn boxref(name: &str) -> NetAst {
        NetAst::Ref(name.to_string())
    }

    /// Infers the network's type signature against an environment of
    /// declared components.
    pub fn infer(&self, env: &Env) -> Result<NetSig, TypeError> {
        match self {
            NetAst::Ref(name) => env
                .lookup_sig(name)
                .ok_or_else(|| TypeError(format!("unknown box or net '{name}'"))),
            NetAst::Filter(f) => Ok(f.net_sig()),
            NetAst::Serial(a, b) => {
                let sa = a.infer(env)?;
                let sb = b.infer(env)?;
                snet_types::serial(&sa, &sb)
            }
            NetAst::Parallel { left, right, .. } => {
                let sl = left.infer(env)?;
                let sr = right.infer(env)?;
                Ok(snet_types::parallel(&sl, &sr))
            }
            NetAst::Star { inner, exit, .. } => {
                let si = inner.infer(env)?;
                snet_types::star(&si, &exit.pattern)
            }
            NetAst::Split { inner, tag, .. } => {
                let si = inner.infer(env)?;
                Ok(snet_types::split(&si, snet_types::Label::tag(tag)))
            }
        }
    }

    /// Every box name referenced by the expression (transitively
    /// through net references is resolved by [`Env::box_closure`]).
    pub fn direct_refs(&self, out: &mut Vec<String>) {
        match self {
            NetAst::Ref(name) => {
                if !out.contains(name) {
                    out.push(name.clone());
                }
            }
            NetAst::Filter(_) => {}
            NetAst::Serial(a, b) => {
                a.direct_refs(out);
                b.direct_refs(out);
            }
            NetAst::Parallel { left, right, .. } => {
                left.direct_refs(out);
                right.direct_refs(out);
            }
            NetAst::Star { inner, .. } | NetAst::Split { inner, .. } => {
                inner.direct_refs(out);
            }
        }
    }
}

/// A box declaration: name plus declared signature. The executable
/// body is bound separately at runtime (the coordination layer "cannot
/// compute" — it only knows the interface).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BoxDecl {
    pub name: String,
    pub sig: BoxSig,
}

/// A net declaration: `net name = expression;`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NetDecl {
    pub name: String,
    pub body: NetAst,
}

/// A complete S-Net program: box declarations plus net definitions.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct Program {
    pub boxes: Vec<BoxDecl>,
    pub nets: Vec<NetDecl>,
}

impl Program {
    pub fn env(&self) -> Result<Env<'static>, TypeError> {
        Env::from_program(self)
    }

    pub fn net(&self, name: &str) -> Option<&NetDecl> {
        self.nets.iter().find(|n| n.name == name)
    }

    pub fn box_decl(&self, name: &str) -> Option<&BoxDecl> {
        self.boxes.iter().find(|b| b.name == name)
    }

    /// Type-checks the program as [`Program::env`] does — every
    /// declaration in order, the first error winning — except that the
    /// first net named `target` is typed by `typed`, against the
    /// declarations before it, instead of by [`NetAst::infer`]: for a
    /// caller whose own walk of that net computes its signature (a
    /// compiler), so that the net is inferred once. `typed` returns
    /// its product and the net's signature. The environment borrows
    /// the program: no declaration is copied. `None` if no net is
    /// named `target`.
    pub fn check_with<'p, T>(
        &'p self,
        target: &str,
        typed: impl FnOnce(&Env<'p>, &'p NetAst) -> Result<(T, NetSig), TypeError>,
    ) -> Result<Option<(T, NetSig)>, TypeError> {
        let mut env = Env::new();
        for b in &self.boxes {
            env.declare_box_as(Cow::Borrowed(&b.name), Cow::Borrowed(&b.sig))?;
        }
        let mut typed = Some(typed);
        let mut out = None;
        for (i, n) in self.nets.iter().enumerate() {
            let name = Cow::Borrowed(n.name.as_str());
            let body = Cow::Borrowed(&n.body);
            match typed.take_if(|_| n.name == target) {
                Some(typed) => {
                    env.fresh(&n.name)?;
                    let (product, sig) = typed(&env, &n.body)?;
                    // Only a later declaration reads the net's entry.
                    if i + 1 < self.nets.len() {
                        env.nets.insert(name, (body, sig.clone()));
                    }
                    out = Some((product, sig));
                }
                None => {
                    env.declare_net_as(name, body)?;
                }
            }
        }
        Ok(out)
    }
}

/// Resolution environment: declared boxes and (already inferred) nets.
/// Built by [`Program::env`] it owns its declarations; built by
/// [`Program::check_with`] it borrows them from the program (`'p`).
#[derive(Clone, Debug, Default)]
pub struct Env<'p> {
    boxes: FxMap<Cow<'p, str>, Cow<'p, BoxSig>>,
    nets: FxMap<Cow<'p, str>, (Cow<'p, NetAst>, NetSig)>,
}

impl Env<'static> {
    /// Builds an environment from a program, inferring all nets.
    pub fn from_program(p: &Program) -> Result<Env<'static>, TypeError> {
        let mut env = Env::new();
        for b in &p.boxes {
            env.declare_box(&b.name, b.sig.clone())?;
        }
        for n in &p.nets {
            env.declare_net_as(Cow::Owned(n.name.clone()), Cow::Owned(n.body.clone()))?;
        }
        Ok(env)
    }
}

impl<'p> Env<'p> {
    pub fn new() -> Env<'p> {
        Env::default()
    }

    /// Fails if `name` is declared already.
    fn fresh(&self, name: &str) -> Result<(), TypeError> {
        if self.boxes.contains_key(name) || self.nets.contains_key(name) {
            return Err(TypeError(format!("duplicate declaration of '{name}'")));
        }
        Ok(())
    }

    /// Declares a box signature.
    pub fn declare_box(&mut self, name: &str, sig: BoxSig) -> Result<(), TypeError> {
        self.declare_box_as(Cow::Owned(name.to_string()), Cow::Owned(sig))
    }

    fn declare_box_as(
        &mut self,
        name: Cow<'p, str>,
        sig: Cow<'p, BoxSig>,
    ) -> Result<(), TypeError> {
        self.fresh(&name)?;
        self.boxes.insert(name, sig);
        Ok(())
    }

    /// Declares a net, inferring and recording its signature. Nets may
    /// reference previously declared boxes and nets only (no forward
    /// references — matching the paper's compositional style).
    pub fn declare_net(&mut self, name: &str, body: NetAst) -> Result<NetSig, TypeError> {
        let sig = self.declare_net_as(Cow::Owned(name.to_string()), Cow::Owned(body))?;
        Ok(sig.clone())
    }

    fn declare_net_as(
        &mut self,
        name: Cow<'p, str>,
        body: Cow<'p, NetAst>,
    ) -> Result<&NetSig, TypeError> {
        self.fresh(&name)?;
        let sig = body.infer(self)?;
        Ok(&self.nets.entry(name).or_insert((body, sig)).1)
    }

    pub fn lookup_sig(&self, name: &str) -> Option<NetSig> {
        if let Some(b) = self.boxes.get(name) {
            return Some(b.net_sig());
        }
        self.nets.get(name).map(|(_, s)| s.clone())
    }

    pub fn lookup_box(&self, name: &str) -> Option<&BoxSig> {
        self.boxes.get(name).map(|sig| &**sig)
    }

    pub fn lookup_net(&self, name: &str) -> Option<&NetAst> {
        self.nets.get(name).map(|(body, _)| &**body)
    }

    /// All box names reachable from an expression, resolving net
    /// references transitively.
    pub fn box_closure(&self, ast: &NetAst) -> Vec<String> {
        let mut frontier = Vec::new();
        ast.direct_refs(&mut frontier);
        let mut boxes = Vec::new();
        let mut seen = Vec::new();
        while let Some(name) = frontier.pop() {
            if seen.contains(&name) {
                continue;
            }
            seen.push(name.clone());
            if self.boxes.contains_key(name.as_str()) {
                if !boxes.contains(&name) {
                    boxes.push(name);
                }
            } else if let Some((body, _)) = self.nets.get(name.as_str()) {
                body.direct_refs(&mut frontier);
            }
        }
        boxes.sort();
        boxes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snet_types::Label;

    fn simple_box(name: &str, inputs: &[&str], outputs: &[&[&str]]) -> BoxDecl {
        BoxDecl {
            name: name.to_string(),
            sig: BoxSig::new(
                inputs.iter().map(|f| Label::field(f)).collect(),
                outputs
                    .iter()
                    .map(|v| v.iter().map(|f| Label::field(f)).collect())
                    .collect(),
            ),
        }
    }

    #[test]
    fn env_resolves_box_refs() {
        let mut env = Env::new();
        env.declare_box("f", simple_box("f", &["a"], &[&["b"]]).sig)
            .unwrap();
        let sig = NetAst::boxref("f").infer(&env).unwrap();
        assert_eq!(sig.maps[0].input, RecordType::of(&["a"], &[]));
        assert!(NetAst::boxref("zzz").infer(&env).is_err());
    }

    #[test]
    fn serial_inference_through_env() {
        let mut env = Env::new();
        env.declare_box("f", simple_box("f", &["a"], &[&["b"]]).sig)
            .unwrap();
        env.declare_box("g", simple_box("g", &["b"], &[&["c"]]).sig)
            .unwrap();
        let ast = NetAst::serial(NetAst::boxref("f"), NetAst::boxref("g"));
        let sig = ast.infer(&env).unwrap();
        assert_eq!(sig.maps[0].input, RecordType::of(&["a"], &[]));
        assert_eq!(sig.output_type().to_string(), "{c}");
    }

    #[test]
    fn net_declarations_compose() {
        let mut env = Env::new();
        env.declare_box("f", simple_box("f", &["a"], &[&["b"]]).sig)
            .unwrap();
        env.declare_box("g", simple_box("g", &["b"], &[&["a"]]).sig)
            .unwrap();
        let fg = NetAst::serial(NetAst::boxref("f"), NetAst::boxref("g"));
        env.declare_net("fg", fg).unwrap();
        // A net can reference another net.
        let ast = NetAst::serial(NetAst::boxref("fg"), NetAst::boxref("f"));
        let sig = ast.infer(&env).unwrap();
        assert_eq!(sig.output_type().to_string(), "{b}");
    }

    #[test]
    fn duplicate_declarations_rejected() {
        let mut env = Env::new();
        env.declare_box("f", simple_box("f", &["a"], &[&["b"]]).sig)
            .unwrap();
        assert!(env
            .declare_box("f", simple_box("f", &["a"], &[&["b"]]).sig)
            .is_err());
        assert!(env.declare_net("f", NetAst::boxref("f")).is_err());
    }

    #[test]
    fn check_with_types_the_target_in_place_of_inference() {
        let p = crate::parse_program(
            "box f (a) -> (a);\n\
             net before = f;\n\
             net main = before .. f;\n\
             net after = main .. f;",
        )
        .unwrap();
        let mut calls = 0;
        let (product, sig) = p
            .check_with("main", |env, body| {
                calls += 1;
                // The declarations before the target, and no later one.
                assert!(env.lookup_sig("before").is_some());
                assert!(env.lookup_sig("after").is_none());
                Ok(("typed", body.infer(env)?))
            })
            .unwrap()
            .unwrap();
        assert_eq!((calls, product), (1, "typed"));
        assert_eq!(Some(sig), p.env().unwrap().lookup_sig("main"));
        let none = p.check_with("nope", |_, _| -> Result<((), NetSig), TypeError> {
            unreachable!("no net is named nope")
        });
        assert!(none.unwrap().is_none());
    }

    #[test]
    fn box_closure_walks_nets() {
        let mut env = Env::new();
        env.declare_box("f", simple_box("f", &["a"], &[&["b"]]).sig)
            .unwrap();
        env.declare_box("g", simple_box("g", &["b"], &[&["c"]]).sig)
            .unwrap();
        env.declare_net(
            "pipe",
            NetAst::serial(NetAst::boxref("f"), NetAst::boxref("g")),
        )
        .unwrap();
        let ast = NetAst::parallel(NetAst::boxref("pipe"), NetAst::boxref("f"));
        assert_eq!(
            env.box_closure(&ast),
            vec!["f".to_string(), "g".to_string()]
        );
    }

    #[test]
    fn exit_pattern_display() {
        let p = ExitPattern::new(RecordType::of(&[], &["done"]));
        assert_eq!(p.to_string(), "{<done>}");
        let g = ExitPattern::with_guard(
            RecordType::of(&[], &["level"]),
            crate::expr::Guard::tag_gt("level", 40),
        );
        assert_eq!(g.to_string(), "{<level>} if <level> > 40");
    }

    #[test]
    fn split_and_star_infer() {
        let mut env = Env::new();
        env.declare_box(
            "s",
            BoxSig::new(
                vec![Label::field("board")],
                vec![
                    vec![Label::field("board")],
                    vec![Label::field("board"), Label::tag("done")],
                ],
            ),
        )
        .unwrap();
        let star = NetAst::star(
            NetAst::boxref("s"),
            ExitPattern::new(RecordType::of(&[], &["done"])),
        );
        let sig = star.infer(&env).unwrap();
        assert!(sig.maps.len() >= 2);
        let split = NetAst::split(NetAst::boxref("s"), "k");
        let sig = split.infer(&env).unwrap();
        assert!(sig.maps[0].input.contains(Label::tag("k")));
    }
}
