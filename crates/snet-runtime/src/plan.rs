//! Compilation: from `snet-lang` ASTs to executable plans.
//!
//! Compilation resolves names (inlining net references), binds box
//! implementations, performs the full static type inference of
//! `snet-types` at every node, and assigns sort levels to the
//! deterministic combinators (a det combinator nested inside `d` other
//! det combinators stamps sort records at level `d`; see
//! [`crate::merge`]).
//!
//! The resulting [`Plan`] is an immutable `Arc` tree: the replicators
//! clone subtree handles to instantiate replicas on demand without
//! re-running any analysis.
//!
//! # The fusion pass
//!
//! The paper's `..` combinator is a *coordination* construct, not an
//! execution mandate: a pipeline of boxes is semantically a function
//! composition, and running every stage as its own component taxes
//! each record with a channel send, a wakeup and a scheduler
//! round-trip per stage. The [`fuse`] rewrite removes that tax by
//! collapsing maximal `Serial` chains into [`PNode::Fused`] nodes that
//! [`crate::instantiate`] spawns as **one** component (see
//! [`crate::fused`]): one `recv_each` at the head, one send at the
//! tail, every intermediate record handed stage-to-stage on the
//! component's own stack.
//!
//! **Legality rules.** Only single-input/single-output stages fuse —
//! `Box` and `Filter` nodes, nothing else:
//!
//! * a run never holds a [`PNode::Fan`] (those nodes own routers and
//!   dynamically unfolded replicas; the pass recurses *into* their
//!   bodies but a chain interrupted by one continues as a separate
//!   run — a separate component on the top-level spine; inside a fused
//!   fan's lane the runs and the fan between them are consecutive
//!   stages of the one lane walk, see *Fan fusion*);
//! * boxes and filters carry no det sort level — they forward sort
//!   records transparently — so a `Serial` chain of them can never
//!   straddle a sort-level change; the combinators that do stamp or
//!   consume sort records are exactly the ones fusion refuses to
//!   cross. Processing messages strictly in stream order (data records
//!   cascade fully through the stages before the next message is
//!   looked at) keeps the fused chain's output byte-identical to the
//!   unfused chain's, sort records included.
//!
//! **Metrics-path preservation.** Every fused stage remembers the
//! `s0`/`s1` path suffix the binary `Serial` instantiation would have
//! derived ([`FusedStage::suffix`], [`ChainPart::suffix`]), and the
//! fused driver registers each stage's [`crate::path::CompPath`]
//! sub-path at spawn exactly as the standalone components do — so the
//! string metrics query API, observers and per-stage counters are
//! indistinguishable between the fused and unfused topologies.
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
//! [`PNode::Fan`] whichever way it runs; the pass sets its `fused`
//! flag, and [`crate::instantiate`] then spawns it through
//! [`crate::fused::spawn_fused_fan`] as one component that runs
//! dispatch, the lanes' stage cores and the merge handoff together,
//! instead of through the combinator's own dispatcher
//! ([`crate::split`], [`crate::parallel`], [`crate::star`]). Both use
//! the same router, so counters, lane names and observer events do not
//! depend on the flag.
//!
//! **The one rule.** With the pass on, every fan runs inline in the
//! component of the top-level part that contains it; the top-level
//! spine's parts are the scheduled components. Fusion is *transitive*:
//! a fused fan is a lane stage like a box or a filter
//! ([`crate::fused::DispatchCore`]), so whatever the pass makes of a
//! body — a stage, a run, a fused fan, a `Chain` of those — is a lane
//! the enclosing fan's driver walks in place, and a nest of any depth
//! is one component. Fig. 2's `(solveOneLevelK !! <k>) ** {<done>}` is
//! one depth-synchronous walk: guard `d`, the split behind it, its
//! replicas, guard `d + 1`, with no task hand-off between levels. The
//! pass refuses nothing, so `fused` records only that the pass ran.
//! What does **not** fuse is the top-level spine itself: `box .. fan ..
//! fan` stays three components ([`fuse_serial`] never puts a fan in a
//! run), because that changes the path of a lone caller through the
//! FIFO door and has to be measured there first.
//!
//! **What it gives up.** A fused fan is one task, so its lanes run one
//! after another on one worker: the across-replica parallelism the
//! combinators exist to expose — and that Fig. 2 unfolds per level — is
//! traded for hop cost, at every level of a nest. Where the boxes are
//! heavy enough to be worth a core each,
//! [`crate::NetBuilder::fuse_fan`]`(false)` restores the paper's
//! literal topology (every dispatcher, replica and merger a component
//! of its own). The same goes for a **nondet parallel whose branches
//! should race** (`slow || fast`): fused, the branches run inline and
//! completions come out in dispatch order, at any depth of nesting —
//! legal under the nondet semantics, but not a race.
//!
//! **Runtime conditions** (checked once per top-level fan at
//! instantiation — see [`crate::fused::fan_fusable_here`]; they are
//! net-global, so declining puts **every** level of a nest back on its
//! own dispatcher): per-lane `"dispatch"` edges must not carry an
//! explicit capacity override (a user bounding replica edges asked for
//! per-lane backpressure, which fusion erases — the net-global default
//! bound still applies to the fan's input and merged output edges, so
//! default-bounded nets do fuse); and the fault policy must not be
//! [`crate::fault::FaultPolicy::Restart`], whose backoff sleeps would
//! stall every co-scheduled lane where the unfused topology stalls one
//! replica. Per-stage containment of `SkipRecord` and chaos injection
//! is unaffected by fusion — the fault boundary lives inside the stage
//! cores, keyed by stage paths fusion preserves. One structural
//! assumption rides along: every stream a fan's merge consumes
//! originates in one of its own lanes, which holds by construction for
//! all three combinators.
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
//! Fusion is on by default ([`crate::RunCfg::fuse`]); `SNET_FUSE=0`
//! (process-wide, see [`crate::RunCfg::try_from_env`]) or
//! [`crate::NetBuilder::fuse`]`(false)` (per net) keep the unfused
//! topology buildable, [`crate::NetBuilder::fuse_fan`] gives per-net
//! control over fan fusion alone, and [`compile_cfg`] gives explicit
//! control.

use crate::boxfn::BoxImpl;
use crate::path::CompPath;
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
        sig: BoxSig,
        imp: BoxImpl,
    },
    Filter {
        def: FilterDef,
    },
    Serial {
        a: Arc<PNode>,
        b: Arc<PNode>,
    },
    /// A combinator — `||`/`|`, `!!`/`!` or `**`/`*`: route each
    /// record to a lane, run the operand, merge. `fused` is set by
    /// the [`fuse`] pass (see module docs, *Fan fusion*): dispatch,
    /// every lane's stages and the merge handoff then run inline —
    /// as **one** component ([`crate::fused::spawn_fused_fan`]) for a
    /// fan on the top-level spine, as one lane stage of the enclosing
    /// fan for a nested one — where the runtime conditions allow it.
    Fan {
        kind: FanKind,
        det: bool,
        level: u32,
        fused: bool,
    },
    /// A maximal run of SISO stages collapsed by the [`fuse`] pass:
    /// instantiated as **one** component running every stage in-place
    /// (see [`crate::fused`]).
    Fused {
        stages: Vec<FusedStage>,
    },
    /// A `Serial` spine whose leaves were partially fused: parts run
    /// in sequence, each instantiated under its recorded path suffix
    /// so component paths match the unfused topology exactly.
    Chain {
        parts: Vec<ChainPart>,
    },
}

/// What a [`PNode::Fan`] dispatches on, and the operand plan(s) its
/// lanes run: instantiated as replica plans by the combinator's own
/// dispatcher, or — when the fan runs fused — built into lane stage
/// cores by the fan driver.
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
        path.child(match (self, det) {
            (FanKind::Split { .. }, true) => "split",
            (FanKind::Split { .. }, false) => "splitnd",
            (FanKind::Parallel { .. }, true) => "par",
            (FanKind::Parallel { .. }, false) => "parnd",
            (FanKind::Star { .. }, true) => "star",
            (FanKind::Star { .. }, false) => "starnd",
        })
    }

    /// The same combinator over `f` of each body.
    fn map_bodies(&self, mut f: impl FnMut(&Arc<PNode>) -> Arc<PNode>) -> FanKind {
        match self {
            FanKind::Split { body, tag } => FanKind::Split {
                body: f(body),
                tag: *tag,
            },
            FanKind::Parallel {
                left,
                right,
                left_sig,
                right_sig,
            } => FanKind::Parallel {
                left: f(left),
                right: f(right),
                left_sig: left_sig.clone(),
                right_sig: right_sig.clone(),
            },
            FanKind::Star { body, exit } => FanKind::Star {
                body: f(body),
                exit: exit.clone(),
            },
        }
    }
}

impl PNode {
    /// Whether some replicator (`!` / `!!`) of this plan routes on
    /// the tag called `tag` — what a per-tag lane bound must name.
    pub(crate) fn splits_on(&self, tag: &str) -> bool {
        match self {
            // A fused run's stages are boxes and filters.
            PNode::Box { .. } | PNode::Filter { .. } | PNode::Fused { .. } => false,
            PNode::Serial { a, b } => a.splits_on(tag) || b.splits_on(tag),
            PNode::Chain { parts } => parts.iter().any(|p| p.node.splits_on(tag)),
            PNode::Fan { kind, .. } => match kind {
                FanKind::Split { body, tag: t } => t.name() == tag || body.splits_on(tag),
                FanKind::Parallel { left, right, .. } => {
                    left.splits_on(tag) || right.splits_on(tag)
                }
                FanKind::Star { body, .. } => body.splits_on(tag),
            },
        }
    }
}

/// One stage of a [`PNode::Fused`] pipeline.
pub struct FusedStage {
    /// The `s0`/`s1` child segments the binary `Serial` instantiation
    /// would have derived for this stage, relative to the fused node's
    /// instantiation path — so per-stage metrics and observer paths
    /// are byte-identical to the unfused topology.
    pub suffix: Vec<&'static str>,
    /// The stage itself: the plan's `Box` or `Filter` leaf, by handle.
    pub leaf: Arc<PNode>,
}

/// One part of a [`PNode::Chain`]: a subplan plus the path suffix it
/// instantiates under (relative to the chain's instantiation path).
pub struct ChainPart {
    pub suffix: Vec<&'static str>,
    pub node: Arc<PNode>,
}

impl fmt::Debug for PNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PNode::Box { name, .. } => write!(f, "Box({name})"),
            PNode::Filter { def } => write!(f, "Filter({def})"),
            PNode::Serial { a, b } => write!(f, "Serial({a:?}, {b:?})"),
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
            PNode::Fused { stages } => {
                write!(f, "Fused(")?;
                for (i, s) in stages.iter().enumerate() {
                    if i > 0 {
                        write!(f, " .. ")?;
                    }
                    write!(f, "{:?}", s.leaf)?;
                }
                write!(f, ")")
            }
            PNode::Chain { parts } => {
                write!(f, "Chain(")?;
                for (i, p) in parts.iter().enumerate() {
                    if i > 0 {
                        write!(f, " .. ")?;
                    }
                    write!(f, "{:?}", p.node)?;
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
/// applying the fusion pass unless the environment turns it off
/// ([`crate::RunCfg::from_env`]'s `fuse`: the process-wide escape hatch
/// keeping the unfused topology testable, and a panic on an invalid
/// environment; [`crate::NetBuilder::fuse`] overrides per net).
pub fn compile(ast: &NetAst, env: &Env, bindings: &Bindings) -> Result<Plan, CompileError> {
    compile_cfg(ast, env, bindings, crate::RunCfg::from_env().fuse)
}

/// [`compile`] with explicit control over the fusion pass.
pub fn compile_cfg(
    ast: &NetAst,
    env: &Env,
    bindings: &Bindings,
    fuse_pass: bool,
) -> Result<Plan, CompileError> {
    let (root, sig) = compile_node(ast, env, bindings, 0)?;
    let root = if fuse_pass { fuse(&root) } else { root };
    Ok(Plan { root, sig })
}

/// True for the single-input/single-output stage nodes the fusion
/// pass may collapse.
fn is_siso(node: &PNode) -> bool {
    matches!(node, PNode::Box { .. } | PNode::Filter { .. })
}

/// The fusion rewrite (see the module docs for legality rules):
/// collapses maximal `Serial` runs of SISO stages into
/// [`PNode::Fused`] nodes, recurses into combinator bodies and marks
/// every [`PNode::Fan`] `fused` — whatever the pass makes of a body (a
/// stage, a run, a fused fan, a `Chain` of those) is a lane the fan
/// driver can run in place, so there is nothing left to refuse.
/// Idempotent; component paths are preserved exactly.
pub fn fuse(node: &Arc<PNode>) -> Arc<PNode> {
    match &**node {
        PNode::Serial { .. } => fuse_serial(node),
        PNode::Fan {
            kind,
            det,
            level,
            fused: false,
        } => Arc::new(PNode::Fan {
            kind: kind.map_bodies(fuse),
            det: *det,
            level: *level,
            fused: true,
        }),
        // Leaves (and already-fused nodes) pass through by handle.
        PNode::Box { .. }
        | PNode::Filter { .. }
        | PNode::Fused { .. }
        | PNode::Chain { .. }
        | PNode::Fan { fused: true, .. } => Arc::clone(node),
    }
}

/// Flattens a `Serial` spine into its leaves, recording for each the
/// `s0`/`s1` path suffix the binary instantiation derives.
fn flatten_serial(
    node: &Arc<PNode>,
    prefix: &mut Vec<&'static str>,
    out: &mut Vec<(Vec<&'static str>, Arc<PNode>)>,
) {
    match &**node {
        PNode::Serial { a, b } => {
            prefix.push("s0");
            flatten_serial(a, prefix, out);
            prefix.pop();
            prefix.push("s1");
            flatten_serial(b, prefix, out);
            prefix.pop();
        }
        _ => out.push((prefix.clone(), Arc::clone(node))),
    }
}

fn fuse_serial(node: &Arc<PNode>) -> Arc<PNode> {
    let mut leaves = Vec::new();
    flatten_serial(node, &mut Vec::new(), &mut leaves);
    let mut parts: Vec<ChainPart> = Vec::new();
    let mut run: Vec<(Vec<&'static str>, Arc<PNode>)> = Vec::new();
    let flush = |run: &mut Vec<(Vec<&'static str>, Arc<PNode>)>, parts: &mut Vec<ChainPart>| {
        if run.len() >= 2 {
            // A fusable run: one component for the whole stretch.
            let stages = run
                .drain(..)
                .map(|(suffix, leaf)| FusedStage { suffix, leaf })
                .collect();
            parts.push(ChainPart {
                suffix: Vec::new(),
                node: Arc::new(PNode::Fused { stages }),
            });
        } else {
            // A lone stage stays a plain component.
            for (suffix, leaf) in run.drain(..) {
                parts.push(ChainPart { suffix, node: leaf });
            }
        }
    };
    for (suffix, leaf) in leaves {
        if is_siso(&leaf) {
            run.push((suffix, leaf));
        } else {
            flush(&mut run, &mut parts);
            parts.push(ChainPart {
                suffix,
                node: fuse(&leaf),
            });
        }
    }
    flush(&mut run, &mut parts);
    if parts.len() == 1 && parts[0].suffix.is_empty() {
        // The whole spine fused into one node.
        return parts.pop().expect("one part").node;
    }
    Arc::new(PNode::Chain { parts })
}

/// A combinator node as `compile_node` builds it: not fused (that is
/// the [`fuse`] pass's decision).
fn fan(kind: FanKind, det: bool, level: u32) -> Arc<PNode> {
    Arc::new(PNode::Fan {
        kind,
        det,
        level,
        fused: false,
    })
}

fn compile_node(
    ast: &NetAst,
    env: &Env,
    bindings: &Bindings,
    det_depth: u32,
) -> Result<(Arc<PNode>, NetSig), CompileError> {
    match ast {
        NetAst::Ref(name) => {
            if let Some(box_sig) = env.lookup_box(name) {
                let imp = bindings
                    .get(name)
                    .ok_or_else(|| CompileError::Unbound(name.clone()))?;
                let sig = box_sig.net_sig();
                Ok((
                    Arc::new(PNode::Box {
                        name: name.clone(),
                        sig: box_sig.clone(),
                        imp,
                    }),
                    sig,
                ))
            } else if let Some(body) = env.lookup_net(name) {
                // Net references are inlined: replication must be able
                // to clone the full subtree.
                let body = body.clone();
                compile_node(&body, env, bindings, det_depth)
            } else {
                Err(CompileError::Unknown(name.clone()))
            }
        }
        NetAst::Filter(def) => {
            let sig = def.net_sig();
            Ok((Arc::new(PNode::Filter { def: def.clone() }), sig))
        }
        NetAst::Serial(a, b) => {
            let (pa, sa) = compile_node(a, env, bindings, det_depth)?;
            let (pb, sb) = compile_node(b, env, bindings, det_depth)?;
            let sig = snet_types::serial(&sa, &sb)?;
            Ok((Arc::new(PNode::Serial { a: pa, b: pb }), sig))
        }
        NetAst::Parallel { left, right, det } => {
            let inner_depth = det_depth + u32::from(*det);
            let (pl, sl) = compile_node(left, env, bindings, inner_depth)?;
            let (pr, sr) = compile_node(right, env, bindings, inner_depth)?;
            let sig = snet_types::parallel(&sl, &sr);
            Ok((
                fan(
                    FanKind::Parallel {
                        left: pl,
                        right: pr,
                        left_sig: sl,
                        right_sig: sr,
                    },
                    *det,
                    det_depth,
                ),
                sig,
            ))
        }
        NetAst::Star { inner, exit, det } => {
            let inner_depth = det_depth + u32::from(*det);
            let (pi, si) = compile_node(inner, env, bindings, inner_depth)?;
            let sig = snet_types::star(&si, &exit.pattern)?;
            let kind = FanKind::Star {
                body: pi,
                exit: exit.clone(),
            };
            Ok((fan(kind, *det, det_depth), sig))
        }
        NetAst::Split { inner, tag, det } => {
            let inner_depth = det_depth + u32::from(*det);
            let (pi, si) = compile_node(inner, env, bindings, inner_depth)?;
            let tag = Label::tag(tag);
            let sig = snet_types::split(&si, tag);
            Ok((fan(FanKind::Split { body: pi, tag }, *det, det_depth), sig))
        }
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

    fn env_fg() -> Env {
        parse_program(
            "box f (a) -> (b);\n\
             box g (b) -> (c);\n\
             net fg = f .. g;",
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
        assert!(matches!(&*plan.root, PNode::Serial { .. }));
        assert_eq!(plan.sig.output_type().to_string(), "{c}");
    }

    #[test]
    fn net_references_are_inlined() {
        let env = env_fg();
        let ast = snet_lang::parse_net_expr("fg").unwrap();
        let plan = compile_cfg(&ast, &env, &bindings_id(), false).unwrap();
        assert!(matches!(&*plan.root, PNode::Serial { .. }));
    }

    #[test]
    fn fusion_collapses_a_box_chain_into_one_node() {
        let env = env_fg();
        let ast = snet_lang::parse_net_expr("f .. g").unwrap();
        let plan = compile_cfg(&ast, &env, &bindings_id(), true).unwrap();
        match &*plan.root {
            PNode::Fused { stages } => {
                assert_eq!(stages.len(), 2);
                assert_eq!(stages[0].suffix, vec!["s0"]);
                assert_eq!(stages[1].suffix, vec!["s1"]);
                assert!(matches!(&*stages[0].leaf, PNode::Box { name, .. } if name == "f"));
                assert!(matches!(&*stages[1].leaf, PNode::Box { name, .. } if name == "g"));
            }
            other => panic!("expected Fused, got {other:?}"),
        }
        // The signature is untouched by fusion.
        assert_eq!(plan.sig.output_type().to_string(), "{c}");
    }

    #[test]
    fn fusion_records_serial_tree_suffixes() {
        // Three stages: the suffixes must be exactly what the binary
        // Serial instantiation would derive, so metric paths match.
        let env = parse_program(
            "box f (a) -> (a);\n\
             box g (a) -> (a);",
        )
        .unwrap()
        .env()
        .unwrap();
        let b = Bindings::new()
            .bind("f", |r, e| e.emit(r.clone()))
            .bind("g", |r, e| e.emit(r.clone()));
        let ast = snet_lang::parse_net_expr("f .. g .. f").unwrap();
        let unfused = compile_cfg(&ast, &env, &b, false).unwrap();
        let fused = fuse(&unfused.root);
        // Oracle: flatten the unfused tree.
        let mut leaves = Vec::new();
        flatten_serial(&unfused.root, &mut Vec::new(), &mut leaves);
        let want: Vec<Vec<&'static str>> = leaves.into_iter().map(|(s, _)| s).collect();
        match &*fused {
            PNode::Fused { stages } => {
                assert_eq!(stages.len(), 3);
                let got: Vec<Vec<&'static str>> = stages.iter().map(|s| s.suffix.clone()).collect();
                assert_eq!(got, want);
            }
            other => panic!("expected Fused, got {other:?}"),
        }
    }

    #[test]
    fn fusion_stops_at_combinator_boundaries() {
        // f .. (g ! <t>) .. f .. g: the split interrupts the chain —
        // the runs on either side stay separate, the lone leading `f`
        // stays a plain box, and the trailing pair fuses.
        let env = parse_program(
            "box f (a) -> (a);\n\
             box g (a) -> (a);",
        )
        .unwrap()
        .env()
        .unwrap();
        let b = Bindings::new()
            .bind("f", |r, e| e.emit(r.clone()))
            .bind("g", |r, e| e.emit(r.clone()));
        let ast = snet_lang::parse_net_expr("f .. (g ! <t>) .. f .. g").unwrap();
        let plan = compile_cfg(&ast, &env, &b, true).unwrap();
        match &*plan.root {
            PNode::Chain { parts } => {
                assert_eq!(parts.len(), 3, "{:?}", plan.root);
                assert!(matches!(&*parts[0].node, PNode::Box { .. }));
                // The split interrupts the chain: on the top-level
                // spine it is a component of its own, fan-fused.
                assert!(matches!(&*parts[1].node, PNode::Fan { fused: true, .. }));
                match &*parts[2].node {
                    PNode::Fused { stages } => assert_eq!(stages.len(), 2),
                    other => panic!("expected trailing Fused, got {other:?}"),
                }
                // Lone stages keep their Serial-derived suffix; the
                // fused part embeds suffixes in its stages instead.
                assert!(!parts[0].suffix.is_empty());
                assert!(!parts[1].suffix.is_empty());
                assert!(parts[2].suffix.is_empty());
            }
            other => panic!("expected Chain, got {other:?}"),
        }
    }

    #[test]
    fn fusion_recurses_into_combinator_inners() {
        let env = parse_program(
            "box f (a) -> (a);\n\
             box g (a) -> (a);",
        )
        .unwrap()
        .env()
        .unwrap();
        let b = Bindings::new()
            .bind("f", |r, e| e.emit(r.clone()))
            .bind("g", |r, e| e.emit(r.clone()));
        let ast = snet_lang::parse_net_expr("(f .. g) ! <t>").unwrap();
        let plan = compile_cfg(&ast, &env, &b, true).unwrap();
        match &*plan.root {
            PNode::Fan {
                kind: FanKind::Split { body, .. },
                det: true,
                fused: true,
                ..
            } => {
                assert!(matches!(&**body, PNode::Fused { .. }), "{body:?}");
            }
            other => panic!("expected a fused split, got {other:?}"),
        }
    }

    /// Every `Fan` node below `node` (itself included), as `fused` flags.
    fn fan_flags(node: &PNode, out: &mut Vec<bool>) {
        match node {
            PNode::Fan { kind, fused, .. } => {
                out.push(*fused);
                kind.map_bodies(|body| {
                    fan_flags(body, out);
                    Arc::clone(body)
                });
            }
            PNode::Serial { a, b } => {
                fan_flags(a, out);
                fan_flags(b, out);
            }
            PNode::Chain { parts } => parts.iter().for_each(|p| fan_flags(&p.node, out)),
            PNode::Box { .. } | PNode::Filter { .. } | PNode::Fused { .. } => {}
        }
    }

    #[test]
    fn fan_fusion_is_transitive_through_nested_combinator_bodies() {
        // A fused fan is a lane stage, so a fan whose body is (or
        // holds) a combinator fuses like any other: with the pass on
        // every level is `fused`, with it off none is.
        let env = parse_program(
            "box f (a) -> (a);\n\
             box g (a) -> (a);",
        )
        .unwrap()
        .env()
        .unwrap();
        let b = Bindings::new()
            .bind("f", |r, e| e.emit(r.clone()))
            .bind("g", |r, e| e.emit(r.clone()));
        for (expr, levels) in [
            ("(f ! <u>) ! <t>", 2),
            ("((f ! <u>) | g) ** {a}", 3),
            // The Fig. 3 body: a `Chain` holding a fan.
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
        let again = fuse(&plan.root);
        assert!(Arc::ptr_eq(&plan.root, &again));
        // With the pass off, no fan is marked fused.
        let unfused = compile_cfg(&ast, &env, &bindings_id(), false).unwrap();
        assert!(matches!(&*unfused.root, PNode::Fan { fused: false, .. }));
    }

    #[test]
    fn fusion_is_idempotent() {
        let env = env_fg();
        let ast = snet_lang::parse_net_expr("f .. g").unwrap();
        let plan = compile_cfg(&ast, &env, &bindings_id(), true).unwrap();
        let again = fuse(&plan.root);
        assert!(Arc::ptr_eq(&plan.root, &again));
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
        let env = parse_program(
            "box f (a) -> (a);\n\
             box g (a) -> (a);",
        )
        .unwrap()
        .env()
        .unwrap();
        let b = Bindings::new()
            .bind("f", |r, e| e.emit(r.clone()))
            .bind("g", |r, e| e.emit(r.clone()));
        // Outer det parallel (level 0) containing a det split (level 1).
        // Fusion off: levels are a compile_node property, and the
        // unfused tree shows them directly.
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
