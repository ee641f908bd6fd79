//! Compilation: from `snet-lang` ASTs to executable plans.
//!
//! Compilation resolves names (inlining net references), binds box
//! implementations, infers each node's signature with the composition
//! rules of `snet-types` as it builds the node, and assigns sort levels
//! to the deterministic combinators (a det combinator nested inside `d`
//! other det combinators stamps sort records at level `d`; see
//! [`crate::merge`]). For [`crate::NetBuilder::build`] that walk is the
//! built net's only type inference: the program's other nets are
//! inferred as they are declared, and the built one is typed by its
//! compilation, in their place ([`snet_lang::Program::check_with`]).
//!
//! The resulting [`Plan`] is an immutable `Arc` tree: the replicators
//! clone subtree handles to instantiate replicas on demand without
//! re-running any analysis.
//!
//! # Fusion
//!
//! The paper's `..` combinator is a *coordination* construct, not an
//! execution mandate: a pipeline of boxes is semantically a function
//! composition, and running every stage as its own component taxes
//! each record with a channel send, a wakeup and a scheduler
//! round-trip per stage. Compilation therefore builds every `..` tree
//! directly as one flat [`PNode::Run`] of its leaves, and fusion is not
//! a rewrite but a flag: [`compile_cfg`]`(.., fuse)` sets `fused` on
//! every `Run` and [`PNode::Fan`] as it builds them, and nothing
//! touches a plan after compile. A fused `Run` is instantiated by
//! [`crate::instantiate`] as **one** component (see [`crate::fused`]):
//! one `recv_each` at the head, one send at the tail, every
//! intermediate record handed stage-to-stage on the component's own
//! stack. An unfused `Run` is one component per stage, chained by
//! channels — the paper's pipeline.
//!
//! **Stages.** A run's stages are boxes, filters and fans — the leaves
//! of the spine. Boxes and filters carry no det sort level — they
//! forward sort records transparently — and a fused fan needs none
//! inside it (see below), so running each drained batch through the
//! stages in order, a sort record cutting the batch at its own stream
//! position, keeps the fused run's output byte-identical to the
//! unfused spine's, sort records included.
//!
//! **Metrics-path preservation.** Every stage carries the `s0`/`s1`
//! path suffix a binary instantiation of the `..` tree derives
//! ([`Stage::suffix`]; a net reference's own spine is spliced in under
//! its position), and both topologies register each stage's
//! [`crate::path::CompPath`] at that suffix — so the string metrics
//! query API, observers and per-stage counters are indistinguishable
//! between them.
//!
//! # Fan fusion (replica fusion)
//!
//! The same argument extends across replicator boundaries. An unfused
//! split/parallel/star pays three scheduled hops per record —
//! dispatcher, lane, merger — where one suffices: the dispatcher's
//! classification is a few table lookups, each lane is a stage vector
//! the fused driver can run in place, and because the records are then
//! processed **synchronously in stream order**, the input order the
//! deterministic merger would laboriously re-establish from sort
//! records is simply never disturbed. Every combinator is one
//! [`PNode::Fan`] whichever way it runs; compile sets its `fused`
//! flag, and [`crate::instantiate`] then builds it as a stage
//! ([`crate::fused::DispatchCore`]) that runs dispatch, the lanes'
//! stage cores and the merge handoff together, instead of spawning the
//! combinator's own dispatcher ([`crate::split`], [`crate::parallel`],
//! [`crate::star`]). Both use the same router, so counters, lane names
//! and observer events do not depend on the flag.
//!
//! **The one rule.** A plan compiled fused runs as **one component**;
//! a plan compiled unfused runs as the paper's component graph.
//! Nothing at instantiation second-guesses the plan. Fusion is
//! *transitive*: a fused fan is a stage like a box or a filter, so a
//! fused body — a stage, a run, a fan — is a lane the enclosing fan
//! walks in place, and a nest of any depth is one stage. Fig. 2's
//! `(solveOneLevelK !! <k>) ** {<done>}` is one depth-synchronous walk:
//! guard `d`, the split behind it, its replicas, guard `d + 1`, with no
//! task hand-off between levels. The top-level spine is the same one
//! level up: `box .. fan .. fan` is one [`PNode::Run`] of three stages.
//!
//! Nothing about a net's configuration changes that. A positive
//! `"dispatch"` bound gates the lane edges a net has, and a fused net
//! has none — the default bound still applies to the run's input and
//! output edges. Fault containment lives inside the stage cores, keyed
//! by stage paths fusion preserves, so `SkipRecord` acts on a stage
//! the same way in either topology. One
//! structural assumption rides along: every stream a fan's merge
//! consumes originates in one of its own lanes, which holds by
//! construction for all three combinators.
//!
//! **What it gives up.** A fused net is one task, so its lanes run one
//! after another on one worker, and so do its spine stages: the
//! across-replica parallelism the combinators exist to expose — and
//! that Fig. 2 unfolds per level — is traded for hop cost, at every
//! level of a nest, and so is the pipelining of `box .. fan .. fan`
//! across workers. Where the boxes are heavy enough to be worth a core
//! each, [`crate::NetBuilder::fuse`]`(false)` gives the paper's literal
//! topology (every box, filter, dispatcher, replica and merger a
//! component of its own). The same goes for a **nondet parallel whose
//! branches should race** (`slow || fast`): fused, the branches run
//! inline and completions come out in dispatch order, at any depth of
//! nesting — legal under the nondet semantics, but not a race.
//!
//! Determinism needs no sort records inside a fused fan: processing
//! each input record to completion before the next starts makes the
//! merged output order the input order (for a star, depth-by-depth
//! frontier processing reproduces the det merger's
//! join-order-by-guard drain), level by level through a nest, and
//! enclosing scopes' sort records forward at their stream position.
//! The nondeterministic variants fuse too: the inline order is one of
//! the schedules their semantics admit, and enclosing-scope barrier
//! ordering (all data dispatched before a sort is emitted before it)
//! holds trivially.
//!
//! Fusion is on by default ([`crate::RunCfg::fuse`]);
//! [`crate::NetBuilder::fuse`]`(false)` keeps a net's unfused topology
//! buildable, and [`compile_cfg`] gives explicit control. The two
//! compiles differ in their flags only, and [`crate::oracle`]
//! interprets either.

use crate::boxfn::BoxImpl;
use crate::path::{name, CompPath, Name};
use snet_lang::{Env, ExitPattern, FilterDef, NetAst};
use snet_types::{BoxSig, Label, NetSig, TypeError};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// A compiled plan node. Every variant carries what its instantiation
/// needs and nothing else.
pub enum PNode {
    Box {
        name: String,
        /// `box:{name}`, the box's path segment, interned once here
        /// rather than once per replica.
        seg: Name,
        sig: BoxSig,
        imp: BoxImpl,
    },
    Filter {
        def: FilterDef,
    },
    /// A combinator — `||`/`|`, `!!`/`!` or `**`/`*`: route each
    /// record to a lane, run the operand, merge. With `fused` (the
    /// compile flag; see module docs, *Fan fusion*) dispatch, every
    /// lane's stages and the merge handoff run inline, as one stage (a
    /// `DispatchCore`, [`crate::fused`]) — of the net's stage run for
    /// a fan on the top-level spine, of the enclosing fan's lane for a
    /// nested one.
    Fan {
        kind: FanKind,
        det: bool,
        level: u32,
        fused: bool,
    },
    /// A `..` spine, flattened: its boxes, filters and fans in order.
    /// With `fused` (the compile flag) it is instantiated as **one**
    /// component running every stage in place (see [`crate::fused`]);
    /// without, as one component per stage.
    Run {
        stages: Vec<Stage>,
        fused: bool,
    },
}

/// What a [`PNode::Fan`] dispatches on, and the operand plan(s) its
/// lanes run: instantiated as replica plans by the combinator's own
/// dispatcher, or — when the fan runs fused — built into lane stage
/// cores by its `DispatchCore` ([`crate::fused`]).
pub enum FanKind {
    /// `body ! <tag>` / `body !! <tag>`.
    Split { body: Arc<PNode>, tag: Label },
    /// `left | right` / `left || right`.
    Parallel {
        left: Arc<PNode>,
        right: Arc<PNode>,
        left_sig: NetSig,
        right_sig: NetSig,
    },
    /// `body * {exit}` / `body ** {exit}`.
    Star { body: Arc<PNode>, exit: ExitPattern },
}

impl FanKind {
    /// The combinator's own component path under its instantiation
    /// path — the one place the `split`/`splitnd`-style segment is
    /// derived, whichever driver runs the fan.
    pub(crate) fn comb_path(&self, path: CompPath, det: bool) -> CompPath {
        path.child_at(match (self, det) {
            (FanKind::Split { .. }, true) => name!("split"),
            (FanKind::Split { .. }, false) => name!("splitnd"),
            (FanKind::Parallel { .. }, true) => name!("par"),
            (FanKind::Parallel { .. }, false) => name!("parnd"),
            (FanKind::Star { .. }, true) => name!("star"),
            (FanKind::Star { .. }, false) => name!("starnd"),
        })
    }
}

/// One stage of a [`PNode::Run`].
pub struct Stage {
    /// The `s0`/`s1` child segments a binary instantiation of the
    /// `..` tree derives for this stage, relative to the run's
    /// instantiation path — the stage's path in both topologies.
    pub suffix: Vec<Name>,
    /// The stage itself: a `Box` or `Filter` leaf, by handle, or a
    /// `Fan`, fused iff the run is.
    pub node: Arc<PNode>,
}

impl fmt::Debug for PNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PNode::Box { name, .. } => write!(f, "Box({name})"),
            PNode::Filter { def } => write!(f, "Filter({def})"),
            PNode::Fan {
                kind, det, fused, ..
            } => match kind {
                FanKind::Split { body, tag } => {
                    write!(f, "Split(det={det}, fused={fused}, tag={tag}, {body:?})")
                }
                FanKind::Parallel { left, right, .. } => {
                    write!(f, "Parallel(det={det}, fused={fused}, {left:?}, {right:?})")
                }
                FanKind::Star { body, exit } => {
                    write!(f, "Star(det={det}, fused={fused}, exit={exit}, {body:?})")
                }
            },
            PNode::Run { stages, fused } => {
                write!(f, "Run(fused={fused}, ")?;
                for (i, s) in stages.iter().enumerate() {
                    if i > 0 {
                        write!(f, " .. ")?;
                    }
                    write!(f, "{:?}", s.node)?;
                }
                write!(f, ")")
            }
        }
    }
}

/// A compiled, type-checked network ready for instantiation.
#[derive(Clone, Debug)]
pub struct Plan {
    pub root: Arc<PNode>,
    pub sig: NetSig,
}

/// Box-name → implementation bindings. The S-Net layer "cannot
/// compute": every box named in the network must be bound to a
/// computational component before the network can run.
#[derive(Default, Clone)]
pub struct Bindings {
    map: HashMap<String, BoxImpl>,
}

impl Bindings {
    pub fn new() -> Bindings {
        Bindings::default()
    }

    /// Binds a box implementation by name.
    pub fn bind(
        mut self,
        name: &str,
        imp: impl Fn(&snet_types::Record, &mut crate::boxfn::Emitter) + Send + Sync + 'static,
    ) -> Self {
        self.map.insert(name.to_string(), Arc::new(imp));
        self
    }

    pub fn get(&self, name: &str) -> Option<BoxImpl> {
        self.map.get(name).cloned()
    }
}

/// An error found while compiling a network.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CompileError {
    /// Static type inference failed.
    Type(TypeError),
    /// A referenced name is neither a declared box nor a net.
    Unknown(String),
    /// A declared box has no bound implementation.
    Unbound(String),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::Type(e) => write!(f, "{e}"),
            CompileError::Unknown(n) => write!(f, "unknown box or net '{n}'"),
            CompileError::Unbound(n) => write!(f, "box '{n}' has no bound implementation"),
        }
    }
}

impl std::error::Error for CompileError {}

impl From<TypeError> for CompileError {
    fn from(e: TypeError) -> Self {
        CompileError::Type(e)
    }
}

/// Compiles a network expression against declarations and bindings,
/// fused — the default ([`crate::RunCfg::fuse`]); [`compile_cfg`]
/// chooses.
pub fn compile(ast: &NetAst, env: &Env, bindings: &Bindings) -> Result<Plan, CompileError> {
    compile_cfg(ast, env, bindings, true)
}

/// [`compile`] with explicit control over fusion: `fuse` is the flag
/// every [`PNode::Run`] and [`PNode::Fan`] of the plan is built with,
/// and so whether the net runs as one component or as the paper's
/// component graph (module docs). Nothing rewrites a plan afterwards.
pub fn compile_cfg(
    ast: &NetAst,
    env: &Env,
    bindings: &Bindings,
    fuse: bool,
) -> Result<Plan, CompileError> {
    let (root, sig) = Compiler {
        env,
        bindings,
        fuse,
    }
    .node(ast, 0)?;
    Ok(Plan { root, sig })
}

/// Compiles `body`, a net of a program being type-checked
/// ([`snet_lang::Program::check_with`]), as [`compile_cfg`] does: its
/// walk is the net's only type inference, and yields its signature. A
/// type error is the net's type error, as [`NetAst::infer`] reports
/// it; so is a name neither declared box nor net. A missing binding
/// counts only once the net type-checks: the product is that error,
/// beside the signature.
pub(crate) fn compile_checked(
    body: &NetAst,
    env: &Env,
    bindings: &Bindings,
    fuse: bool,
) -> Result<(Result<Arc<PNode>, CompileError>, NetSig), TypeError> {
    match (Compiler {
        env,
        bindings,
        fuse,
    })
    .node(body, 0)
    {
        Ok((root, sig)) => Ok((Ok(root), sig)),
        Err(CompileError::Type(e)) => Err(e),
        // The walk stopped at a name: an unknown one is a type error
        // and the inference names it; past a missing binding the rest
        // of the net still has to type-check. Error paths only.
        Err(e) => Ok((Err(e), body.infer(env)?)),
    }
}

/// What every node of one compilation reads.
struct Compiler<'a> {
    env: &'a Env<'a>,
    bindings: &'a Bindings,
    fuse: bool,
}

impl Compiler<'_> {
    fn node(&self, ast: &NetAst, det_depth: u32) -> Result<(Arc<PNode>, NetSig), CompileError> {
        match ast {
            NetAst::Ref(name) => {
                if let Some(box_sig) = self.env.lookup_box(name) {
                    let imp = self
                        .bindings
                        .get(name)
                        .ok_or_else(|| CompileError::Unbound(name.clone()))?;
                    let sig = box_sig.net_sig();
                    Ok((
                        Arc::new(PNode::Box {
                            name: name.clone(),
                            seg: Name::new(&format!("box:{name}")),
                            sig: box_sig.clone(),
                            imp,
                        }),
                        sig,
                    ))
                } else if let Some(body) = self.env.lookup_net(name) {
                    // Net references are inlined: replication must be
                    // able to clone the full subtree.
                    self.node(body, det_depth)
                } else {
                    Err(CompileError::Unknown(name.clone()))
                }
            }
            NetAst::Filter(def) => {
                let sig = def.net_sig();
                Ok((Arc::new(PNode::Filter { def: def.clone() }), sig))
            }
            NetAst::Serial(..) => {
                let mut stages = Vec::new();
                let sig = self.spine(ast, det_depth, &mut Vec::new(), &mut stages)?;
                let fused = self.fuse;
                Ok((Arc::new(PNode::Run { stages, fused }), sig))
            }
            NetAst::Parallel { left, right, det } => {
                let inner_depth = det_depth + u32::from(*det);
                let (pl, sl) = self.node(left, inner_depth)?;
                let (pr, sr) = self.node(right, inner_depth)?;
                let sig = snet_types::parallel(&sl, &sr);
                let kind = FanKind::Parallel {
                    left: pl,
                    right: pr,
                    left_sig: sl,
                    right_sig: sr,
                };
                Ok((self.fan(kind, *det, det_depth), sig))
            }
            NetAst::Star { inner, exit, det } => {
                let (pi, si) = self.node(inner, det_depth + u32::from(*det))?;
                let sig = snet_types::star(&si, &exit.pattern)?;
                let kind = FanKind::Star {
                    body: pi,
                    exit: exit.clone(),
                };
                Ok((self.fan(kind, *det, det_depth), sig))
            }
            NetAst::Split { inner, tag, det } => {
                let (pi, si) = self.node(inner, det_depth + u32::from(*det))?;
                let tag = Label::tag(tag);
                let sig = snet_types::split(&si, tag);
                let kind = FanKind::Split { body: pi, tag };
                Ok((self.fan(kind, *det, det_depth), sig))
            }
        }
    }

    /// Compiles the `..` tree under `ast` into `out`, leaf by leaf,
    /// each under the `s0`/`s1` suffix (after `prefix`) its binary
    /// instantiation derives; a net reference's own spine is spliced
    /// in the same way. Returns the tree's signature.
    fn spine(
        &self,
        ast: &NetAst,
        det_depth: u32,
        prefix: &mut Vec<Name>,
        out: &mut Vec<Stage>,
    ) -> Result<NetSig, CompileError> {
        if let NetAst::Serial(a, b) = ast {
            prefix.push(name!("s0"));
            let sa = self.spine(a, det_depth, prefix, out)?;
            prefix.pop();
            prefix.push(name!("s1"));
            let sb = self.spine(b, det_depth, prefix, out)?;
            prefix.pop();
            return Ok(snet_types::serial(&sa, &sb)?);
        }
        let (node, sig) = self.node(ast, det_depth)?;
        match &*node {
            PNode::Run { stages, .. } => out.extend(stages.iter().map(|s| Stage {
                suffix: [&prefix[..], &s.suffix[..]].concat(),
                node: Arc::clone(&s.node),
            })),
            _ => out.push(Stage {
                suffix: prefix.clone(),
                node,
            }),
        }
        Ok(sig)
    }

    /// A combinator node, fused iff this compile is.
    fn fan(&self, kind: FanKind, det: bool, level: u32) -> Arc<PNode> {
        Arc::new(PNode::Fan {
            kind,
            det,
            level,
            fused: self.fuse,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instantiate::run_to_end;
    use snet_lang::parse_program;
    use snet_types::Record;

    fn bindings_id() -> Bindings {
        Bindings::new()
            .bind("f", |rec, em| em.emit(rec.clone()))
            .bind("g", |rec, em| em.emit(rec.clone()))
    }

    fn env_fg() -> Env<'static> {
        parse_program(
            "box f (a) -> (b);\n\
             box g (b) -> (c);\n\
             net fg = f .. g;",
        )
        .unwrap()
        .env()
        .unwrap()
    }

    /// Two boxes of one type, and a net of both.
    fn env_aa() -> Env<'static> {
        parse_program(
            "box f (a) -> (a);\n\
             box g (a) -> (a);\n\
             net gf = g .. f;",
        )
        .unwrap()
        .env()
        .unwrap()
    }

    #[test]
    fn compile_box_and_serial() {
        let env = env_fg();
        let ast = snet_lang::parse_net_expr("f .. g").unwrap();
        let plan = compile_cfg(&ast, &env, &bindings_id(), false).unwrap();
        assert!(matches!(&*plan.root, PNode::Run { fused: false, .. }));
        assert_eq!(plan.sig.output_type().to_string(), "{c}");
    }

    #[test]
    fn net_references_are_inlined() {
        let env = env_fg();
        let ast = snet_lang::parse_net_expr("fg").unwrap();
        let plan = compile_cfg(&ast, &env, &bindings_id(), false).unwrap();
        assert!(matches!(&*plan.root, PNode::Run { fused: false, .. }));
    }

    #[test]
    fn fusion_collapses_a_box_chain_into_one_node() {
        let env = env_fg();
        let ast = snet_lang::parse_net_expr("f .. g").unwrap();
        let plan = compile_cfg(&ast, &env, &bindings_id(), true).unwrap();
        match &*plan.root {
            PNode::Run { stages, .. } => {
                assert_eq!(stages.len(), 2);
                assert_eq!(stages[0].suffix, vec!["s0"]);
                assert_eq!(stages[1].suffix, vec!["s1"]);
                assert!(matches!(&*stages[0].node, PNode::Box { name, .. } if name == "f"));
                assert!(matches!(&*stages[1].node, PNode::Box { name, .. } if name == "g"));
            }
            other => panic!("expected Run, got {other:?}"),
        }
        // The signature is untouched by fusion.
        assert_eq!(plan.sig.output_type().to_string(), "{c}");
    }

    /// The suffixes of `expr`'s stages, compiled with `fuse`; panics
    /// unless the root is one `Run` whose flag, and every fan's, is
    /// `fuse`.
    fn spine(expr: &str, fuse: bool) -> Vec<Vec<&'static str>> {
        let ast = snet_lang::parse_net_expr(expr).unwrap();
        let plan = compile_cfg(&ast, &env_aa(), &bindings_id(), fuse).unwrap();
        let PNode::Run { stages, fused } = &*plan.root else {
            panic!("{expr}: expected Run, got {:?}", plan.root)
        };
        assert_eq!(*fused, fuse, "{expr}");
        let mut flags = Vec::new();
        fan_flags(&plan.root, &mut flags);
        assert!(flags.iter().all(|&f| f == fuse), "{expr}: {:?}", plan.root);
        stages
            .iter()
            .map(|s| s.suffix.iter().map(Name::as_str).collect())
            .collect()
    }

    #[test]
    fn fusion_records_serial_tree_suffixes() {
        // Either compile builds one `Run` whose suffixes are exactly
        // what the binary instantiation of the `..` tree derives, so
        // metric paths match. A net reference's spine splices in.
        let left = [vec!["s0", "s0"], vec!["s0", "s1"], vec!["s1"]];
        let right = [vec!["s0"], vec!["s1", "s0"], vec!["s1", "s1"]];
        for fuse in [true, false] {
            // `..` associates left: ((f .. g) .. f).
            assert_eq!(spine("f .. g .. f", fuse), left);
            assert_eq!(spine("f .. (g .. f)", fuse), right);
            assert_eq!(spine("f .. gf", fuse), right);
        }
    }

    #[test]
    fn fusion_flattens_a_spine_with_fans_into_one_run() {
        // f .. (g ! <t>) .. f .. g: the split is one stage of the run,
        // fused iff the run is, between the boxes; every stage keeps
        // its binary-tree suffix.
        for fuse in [true, false] {
            assert_eq!(
                spine("f .. (g ! <t>) .. f .. g", fuse),
                [
                    vec!["s0", "s0", "s0"],
                    vec!["s0", "s0", "s1"],
                    vec!["s0", "s1"],
                    vec!["s1"]
                ]
            );
        }
        let ast = snet_lang::parse_net_expr("f .. (g ! <t>) .. f .. g").unwrap();
        let plan = compile_cfg(&ast, &env_aa(), &bindings_id(), true).unwrap();
        let PNode::Run { stages, .. } = &*plan.root else {
            panic!("expected Run, got {:?}", plan.root)
        };
        assert!(matches!(&*stages[0].node, PNode::Box { .. }));
        assert!(matches!(&*stages[1].node, PNode::Fan { fused: true, .. }));
        assert!(matches!(&*stages[2].node, PNode::Box { .. }));
        assert!(matches!(&*stages[3].node, PNode::Box { .. }));
    }

    #[test]
    fn fusion_recurses_into_combinator_inners() {
        let ast = snet_lang::parse_net_expr("(f .. g) ! <t>").unwrap();
        let plan = compile_cfg(&ast, &env_aa(), &bindings_id(), true).unwrap();
        match &*plan.root {
            PNode::Fan {
                kind: FanKind::Split { body, .. },
                det: true,
                fused: true,
                ..
            } => {
                assert!(
                    matches!(&**body, PNode::Run { fused: true, .. }),
                    "{body:?}"
                );
            }
            other => panic!("expected a fused split, got {other:?}"),
        }
    }

    /// Every `Fan` node below `node` (itself included), as `fused` flags.
    fn fan_flags(node: &PNode, out: &mut Vec<bool>) {
        match node {
            PNode::Fan { kind, fused, .. } => {
                out.push(*fused);
                match kind {
                    FanKind::Split { body, .. } | FanKind::Star { body, .. } => {
                        fan_flags(body, out)
                    }
                    FanKind::Parallel { left, right, .. } => {
                        fan_flags(left, out);
                        fan_flags(right, out);
                    }
                }
            }
            PNode::Run { stages, .. } => stages.iter().for_each(|s| fan_flags(&s.node, out)),
            PNode::Box { .. } | PNode::Filter { .. } => {}
        }
    }

    #[test]
    fn fan_fusion_is_transitive_through_nested_combinator_bodies() {
        // A fused fan is a lane stage, so a fan whose body is (or
        // holds) a combinator fuses like any other: with the pass on
        // every level is `fused`, with it off none is.
        let (env, b) = (env_aa(), bindings_id());
        for (expr, levels) in [
            ("(f ! <u>) ! <t>", 2),
            ("((f ! <u>) | g) ** {a}", 3),
            // The Fig. 3 body: a run holding a fan.
            ("([{a} -> {a}] .. (f !! <u>)) * {a}", 2),
        ] {
            let ast = snet_lang::parse_net_expr(expr).unwrap();
            for pass in [true, false] {
                let plan = compile_cfg(&ast, &env, &b, pass).unwrap();
                let mut flags = Vec::new();
                fan_flags(&plan.root, &mut flags);
                assert_eq!(flags, vec![pass; levels], "{expr}: {:?}", plan.root);
            }
        }
    }

    #[test]
    fn fusion_is_the_identity_on_the_component_paths_of_a_fan_in_a_fan() {
        // (a !! <k>) ** {<z>}: the split's body is a lone box, so the
        // split fuses; the star's body is the split — a lane stage —
        // so the star does too. Either way every counter lives at the
        // same path.
        let env = parse_program("box a (n, <k>) -> (n, <k>) | (n, <k>, <z>);")
            .unwrap()
            .env()
            .unwrap();
        let b = Bindings::new().bind("a", |r, e| {
            let rec = Record::build()
                .field("n", r.field("n").unwrap().as_int().unwrap() - 1)
                .tag("k", r.tag("k").unwrap());
            e.emit(if r.field("n").unwrap().as_int() == Some(1) {
                rec.tag("z", 1).finish()
            } else {
                rec.finish()
            });
        });
        let ast = snet_lang::parse_net_expr("(a !! <k>) ** {<z>}").unwrap();
        let paths = |fuse_pass: bool| {
            let plan = compile_cfg(&ast, &env, &b, fuse_pass).unwrap();
            let mut flags = Vec::new();
            fan_flags(&plan.root, &mut flags);
            assert_eq!(flags, vec![fuse_pass; 2], "{:?}", plan.root);
            // Unbounded: an edge's depth accounting is a key of the
            // topology, not of a stage.
            let cfg = crate::RunCfg {
                bound: None,
                ..Default::default()
            };
            let pool = crate::sched::default_executor();
            let ctx = crate::Ctx::new(crate::Metrics::new(), Vec::new(), pool, cfg);
            let inputs = [(2, 0), (1, 1), (3, 0)]
                .map(|(n, k)| Record::build().field("n", n as i64).tag("k", k).finish());
            assert_eq!(run_to_end(&ctx, &plan.root, inputs).len(), 3);
            ctx.metrics.snapshot().into_keys().collect::<Vec<_>>()
        };
        assert_eq!(paths(true), paths(false));
    }

    #[test]
    fn fan_fusion_is_idempotent_and_off_without_the_pass() {
        let env = env_fg();
        let ast = snet_lang::parse_net_expr("(f .. g) ! <t>").unwrap();
        let plan = compile_cfg(&ast, &env, &bindings_id(), true).unwrap();
        assert!(matches!(&*plan.root, PNode::Fan { fused: true, .. }));
        // Compiled unfused, no fan is marked fused.
        let unfused = compile_cfg(&ast, &env, &bindings_id(), false).unwrap();
        assert!(matches!(&*unfused.root, PNode::Fan { fused: false, .. }));
    }

    #[test]
    fn unbound_box_is_an_error() {
        let env = env_fg();
        let ast = snet_lang::parse_net_expr("f").unwrap();
        let err = compile(&ast, &env, &Bindings::new()).unwrap_err();
        assert_eq!(err, CompileError::Unbound("f".into()));
    }

    #[test]
    fn unknown_name_is_an_error() {
        let env = env_fg();
        let ast = snet_lang::parse_net_expr("nosuch").unwrap();
        let err = compile(&ast, &env, &bindings_id()).unwrap_err();
        assert_eq!(err, CompileError::Unknown("nosuch".into()));
    }

    #[test]
    fn type_errors_surface() {
        // g requires {b}; composing g .. g needs {b} again but g
        // consumed it and produced {c} — ill-typed.
        let env = env_fg();
        let ast = snet_lang::parse_net_expr("g .. g").unwrap();
        assert!(matches!(
            compile(&ast, &env, &bindings_id()),
            Err(CompileError::Type(_))
        ));
    }

    #[test]
    fn det_levels_are_nesting_depths() {
        let (env, b) = (env_aa(), bindings_id());
        // Outer det parallel (level 0) containing a det split (level 1).
        // Fusion off: levels do not depend on it.
        let ast = snet_lang::parse_net_expr("(f ! <t>) | g").unwrap();
        let plan = compile_cfg(&ast, &env, &b, false).unwrap();
        match &*plan.root {
            PNode::Fan {
                kind: FanKind::Parallel { left, .. },
                det: true,
                level,
                ..
            } => {
                assert_eq!(*level, 0);
                match &**left {
                    PNode::Fan {
                        kind: FanKind::Split { .. },
                        det: true,
                        level,
                        ..
                    } => assert_eq!(*level, 1),
                    other => panic!("unexpected {other:?}"),
                }
            }
            other => panic!("unexpected {other:?}"),
        }
        // Non-det combinators do not increase depth.
        let ast = snet_lang::parse_net_expr("(f ! <t>) || g").unwrap();
        let plan = compile_cfg(&ast, &env, &b, false).unwrap();
        match &*plan.root {
            PNode::Fan {
                kind: FanKind::Parallel { left, .. },
                det: false,
                ..
            } => match &**left {
                PNode::Fan {
                    kind: FanKind::Split { .. },
                    det: true,
                    level,
                    ..
                } => assert_eq!(*level, 0),
                other => panic!("unexpected {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
    }
}
