//! A sequential reference interpreter: what a net must output, from
//! the paper's record semantics alone.
//!
//! Boxes are stateless SISO functions (paper, Section 4), so a net
//! maps each input record to its outputs independently of every other
//! record, and the only freedom a scheduler has is the *order* in
//! which a nondeterministic merge releases them. This module walks a
//! plan of either compile (the `fused` flags are how it runs, not what
//! it means) one record at a time, and returns the output stream with
//! a flag saying whether its order is defined:
//!
//! * `A .. B ..` — every output of `A`, in emission order, through
//!   `B`, and so on down the spine;
//! * `A | B` / `A || B` — the record goes to the branch whose input
//!   type matches it better (`NetSig::match_score`); an equal match
//!   between two different operands is the nondeterministic choice
//!   the paper leaves open, and is reported as [`Undefined`] rather
//!   than resolved;
//! * `A ! <t>` / `A !! <t>` — the record needs `<t>`; which replica
//!   runs it does not change its outputs, since replicas are
//!   stateless copies of `A`;
//! * `A * p` / `A ** p` — the chain is tapped before every replica: a
//!   record matching `p` (and its guard) leaves, any other runs
//!   through one more replica of `A`. Exits are collected depth by
//!   depth, in emission order within a depth, which is the order in
//!   which the det merger drains its taps (all of guard `d`'s share of
//!   an input's round before guard `d + 1`'s).
//!
//! Under det combinators only, each input's outputs come out
//! contiguously and in input order: the output is defined as a
//! sequence. One nondet fan anywhere makes it a multiset.
//!
//! The interpreter spawns nothing, opens no channel and calls none of
//! the runtime's routers, mergers or drivers. What it shares with the
//! runtime is the record algebra of `snet-types` (split plans,
//! `Record::inherit_from`, `match_score`), the filter and guard
//! semantics of `snet-lang`, and [`Emitter`], the interface boxes are
//! called through. A bug there is invisible to a comparison against
//! it.

use crate::boxfn::Emitter;
use crate::plan::{FanKind, PNode, Plan};
use snet_types::{Record, Shape};
use std::fmt;

/// What a net must output for one input stream.
#[derive(Clone, Debug, PartialEq)]
pub struct Expected {
    /// Every output record; in the one defined order when `ordered`.
    pub records: Vec<Record>,
    /// Whether every fan of the net is deterministic, so that the
    /// order of `records` is the only admissible one. Otherwise only
    /// the multiset is defined.
    pub ordered: bool,
}

impl Expected {
    /// Whether `got` is an output the net may produce: `records`
    /// itself when ordered, any permutation of it otherwise.
    pub fn admits(&self, got: &[Record]) -> bool {
        if self.ordered {
            return got == self.records;
        }
        let render = |rs: &[Record]| {
            let mut v: Vec<String> = rs.iter().map(|r| format!("{r:?}")).collect();
            v.sort();
            v
        };
        got.len() == self.records.len() && render(got) == render(&self.records)
    }
}

/// An input on which the semantics do not fix the output: a record
/// no operand accepts, a best-match tie between different operands,
/// or a filter or guard expression that cannot be evaluated.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Undefined(pub String);

impl fmt::Display for Undefined {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "output undefined: {}", self.0)
    }
}

impl std::error::Error for Undefined {}

/// Runs `inputs` through `plan`.
pub fn run(plan: &Plan, inputs: impl IntoIterator<Item = Record>) -> Result<Expected, Undefined> {
    let mut records = Vec::new();
    for rec in inputs {
        eval(&plan.root, &rec, &mut records)?;
    }
    Ok(Expected {
        records,
        ordered: all_det(&plan.root),
    })
}

/// Whether every fan under `node` is deterministic.
fn all_det(node: &PNode) -> bool {
    match node {
        PNode::Box { .. } | PNode::Filter { .. } => true,
        PNode::Run { stages, .. } => stages.iter().all(|s| all_det(&s.node)),
        PNode::Fan { kind, det, .. } => {
            *det && match kind {
                FanKind::Split { body, .. } | FanKind::Star { body, .. } => all_det(body),
                FanKind::Parallel { left, right, .. } => all_det(left) && all_det(right),
            }
        }
    }
}

/// Appends the outputs of `node` for the one record `rec` to `out`.
fn eval(node: &PNode, rec: &Record, out: &mut Vec<Record>) -> Result<(), Undefined> {
    match node {
        PNode::Box { name, sig, imp, .. } => {
            let split = rec
                .shape()
                .split_plan(Shape::of_type(&sig.input_type()))
                .ok_or_else(|| Undefined(format!("box {name} cannot take {rec:?}")))?;
            let mut sink = |r: Record| out.push(r);
            let matched = rec.matched_with(split);
            imp(&matched, &mut Emitter::detached(&mut sink, rec, split, sig));
            Ok(())
        }
        PNode::Filter { def } => {
            if !rec.matches(&def.pattern) {
                return Err(Undefined(format!("filter {def} cannot take {rec:?}")));
            }
            let outs = def
                .apply(rec)
                .map_err(|e| Undefined(format!("filter {def} on {rec:?}: {e}")))?;
            out.extend(outs);
            Ok(())
        }
        PNode::Run { stages, .. } => {
            let mut recs = vec![rec.clone()];
            for stage in stages {
                let mut next = Vec::new();
                recs.iter()
                    .try_for_each(|r| eval(&stage.node, r, &mut next))?;
                recs = next;
            }
            out.append(&mut recs);
            Ok(())
        }
        PNode::Fan { kind, .. } => match kind {
            FanKind::Parallel {
                left,
                right,
                left_sig,
                right_sig,
            } => {
                let rt = rec.record_type();
                let branch = match (left_sig.match_score(&rt), right_sig.match_score(&rt)) {
                    (None, None) => {
                        return Err(Undefined(format!("no branch takes {rec:?}")));
                    }
                    (Some(l), Some(r)) if l == r && format!("{left:?}") != format!("{right:?}") => {
                        return Err(Undefined(format!(
                            "{rec:?} matches {left:?} and {right:?} equally well"
                        )));
                    }
                    (Some(l), r) if r.is_none_or(|r| l >= r) => left,
                    _ => right,
                };
                eval(branch, rec, out)
            }
            FanKind::Split { body, tag } => {
                if rec.tag_label(*tag).is_none() {
                    return Err(Undefined(format!("{rec:?} has no routing tag {tag}")));
                }
                eval(body, rec, out)
            }
            FanKind::Star { body, exit } => {
                let mut frontier = vec![rec.clone()];
                while !frontier.is_empty() {
                    let mut next = Vec::new();
                    for r in frontier {
                        let leaves = r.matches(&exit.pattern)
                            && match &exit.guard {
                                Some(g) => g.eval(&r).map_err(|e| {
                                    Undefined(format!("exit guard {g} on {r:?}: {e}"))
                                })?,
                                None => true,
                            };
                        if leaves {
                            out.push(r);
                        } else {
                            eval(body, &r, &mut next)?;
                        }
                    }
                    frontier = next;
                }
                Ok(())
            }
        },
    }
}
