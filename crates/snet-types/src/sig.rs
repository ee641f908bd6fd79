//! Type signatures and signature composition.
//!
//! A box signature "naturally induces a type signature": the ordered
//! parameter tuple becomes a set-of-labels input type, the outputs a
//! multivariant output type (paper, Section 4). Networks have inferred
//! signatures; "type inference algorithms developed for S-Net take
//! full account of subtyping and flow inheritance, which can be dealt
//! with statically".
//!
//! This module implements that static inference as *requirement
//! propagation over concrete label sets*:
//!
//! * every network signature is a set of [`Mapping`]s — an input
//!   variant together with the output variants records of that input
//!   may turn into;
//! * each output variant tracks the concrete labels it is known to
//!   carry **after** flow inheritance, plus an `inherits` flag saying
//!   whether further unknown labels of the original input record (the
//!   "row") may also be present;
//! * serial composition checks every upstream output variant against
//!   the downstream input variants. If none accepts, but the upstream
//!   variant still inherits its row, the missing labels are *pushed
//!   back* into the composite's input type — they must then arrive on
//!   the outer input record and reach the downstream component by flow
//!   inheritance. This is exactly how the paper's Figure 2 network
//!   types: the `[{} -> {<k>=1}]` filter declares only `{<k>}`, yet
//!   `solveOneLevel`'s `{board, opts}` input is satisfied because both
//!   fields flow through the filter.
//!
//! The inference is conservative where the paper's full algorithm is
//! richer (we do not track per-variant row *identities*, so a
//! requirement discovered on one output variant is added to the whole
//! mapping input), but it accepts all networks of the paper and rejects
//! genuinely ill-typed compositions.

use crate::label::Label;
use crate::rtype::{MultiType, RecordType};
use std::fmt;

/// An output variant: concretely known labels plus whether the unknown
/// remainder ("row") of the input record still flow-inherits onto it.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct OutVariant {
    pub labels: RecordType,
    pub inherits: bool,
}

impl OutVariant {
    pub fn new(labels: RecordType) -> Self {
        OutVariant {
            labels,
            inherits: true,
        }
    }
}

/// One input variant and the output variants it can produce.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Mapping {
    pub input: RecordType,
    pub outputs: Vec<OutVariant>,
}

/// A network type signature: a disjunction of mappings.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct NetSig {
    pub maps: Vec<Mapping>,
}

/// A box signature as *declared*: the ordered parameter list matters
/// for calling the box function ("a concrete sequence of fields and
/// tags is essential for the proper specification of the box
/// interface"), the induced [`NetSig`] drops the order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BoxSig {
    /// Parameters in declaration order, e.g. `(a, <b>)`.
    pub params: Vec<Label>,
    /// Output variants in declaration order; each variant is an ordered
    /// label list for `snet_out` argument mapping.
    pub outputs: Vec<Vec<Label>>,
}

impl BoxSig {
    pub fn new(params: Vec<Label>, outputs: Vec<Vec<Label>>) -> Self {
        BoxSig { params, outputs }
    }

    /// The induced type signature (sets of labels, flow inheritance on).
    pub fn net_sig(&self) -> NetSig {
        NetSig {
            maps: vec![Mapping {
                input: self.params.iter().copied().collect(),
                outputs: self
                    .outputs
                    .iter()
                    .map(|v| OutVariant::new(v.iter().copied().collect()))
                    .collect(),
            }],
        }
    }

    /// The input type as a label set.
    pub fn input_type(&self) -> RecordType {
        self.params.iter().copied().collect()
    }

    /// The output type as a multitype.
    pub fn output_type(&self) -> MultiType {
        MultiType::new(
            self.outputs
                .iter()
                .map(|v| v.iter().copied().collect())
                .collect(),
        )
    }
}

/// A static composition error.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TypeError(pub String);

impl fmt::Display for TypeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "type error: {}", self.0)
    }
}

impl std::error::Error for TypeError {}

impl NetSig {
    /// A signature with a single mapping.
    pub fn simple(input: RecordType, outputs: Vec<RecordType>) -> NetSig {
        NetSig {
            maps: vec![Mapping {
                input,
                outputs: outputs.into_iter().map(OutVariant::new).collect(),
            }],
        }
    }

    /// The identity signature on a given type (used for pass-through
    /// paths such as the exit tap of a serial replicator).
    pub fn identity(ty: RecordType) -> NetSig {
        NetSig {
            maps: vec![Mapping {
                input: ty.clone(),
                outputs: vec![OutVariant::new(ty)],
            }],
        }
    }

    /// Input variants as a multitype (what routing sees).
    pub fn input_type(&self) -> MultiType {
        MultiType::new(self.maps.iter().map(|m| m.input.clone()).collect())
    }

    /// Output variants as a multitype, flattened over mappings.
    pub fn output_type(&self) -> MultiType {
        let mut mt = MultiType::default();
        for m in &self.maps {
            for o in &m.outputs {
                mt.push(o.labels.clone());
            }
        }
        mt
    }

    /// Best-match score of a record type against this network's inputs
    /// (paper: records go "towards the subnetwork whose input type
    /// better matches the type of the record itself").
    pub fn match_score(&self, rt: &RecordType) -> Option<usize> {
        self.maps
            .iter()
            .filter_map(|m| rt.match_score(&m.input))
            .max()
    }

    fn push_mapping(&mut self, m: Mapping) {
        if !self.maps.contains(&m) {
            self.maps.push(m);
        }
    }
}

/// The downstream mapping that best accepts a record of (at least) the
/// given concrete labels.
fn best_accepting<'a>(
    concrete: &RecordType,
    downstream: &'a NetSig,
) -> Option<(&'a Mapping, usize)> {
    downstream
        .maps
        .iter()
        .filter_map(|m| concrete.match_score(&m.input).map(|s| (m, s)))
        .max_by_key(|(_, s)| *s)
}

/// Where a record of output variant `ov` can enter `downstream`, each
/// entry with the labels it adds to the composite's input. When a
/// downstream input accepts the concrete labels outright, the best such
/// match is the one entry. Otherwise, when the variant still inherits
/// its row, there is one entry for every downstream mapping whose
/// missing labels are not in `consumed` (the upstream input: labels it
/// consumes never reach its output, so flow inheritance cannot resupply
/// them). Each entry's mapping is the best match for the variant with
/// its missing labels added, as routing picks it. Fails when no entry
/// qualifies; `what` names the downstream network in the message.
fn entries<'a>(
    ov: &OutVariant,
    consumed: &RecordType,
    downstream: &'a NetSig,
    what: &str,
) -> Result<Vec<(RecordType, &'a Mapping)>, TypeError> {
    if let Some((mb, _)) = best_accepting(&ov.labels, downstream) {
        return Ok(vec![(RecordType::empty(), mb)]);
    }
    let mut found: Vec<(RecordType, &Mapping)> = Vec::new();
    if ov.inherits {
        for m in &downstream.maps {
            let need = m.input.difference(&ov.labels);
            if !need.intersection(consumed).is_empty() {
                continue;
            }
            let (mb, _) = best_accepting(&ov.labels.union(&need), downstream)
                .expect("the variant with its missing labels enters `m`");
            if !found.iter().any(|(n, f)| *n == need && *f == mb) {
                found.push((need, mb));
            }
        }
    }
    if found.is_empty() {
        let why = if ov.inherits {
            ": the labels it lacks are consumed upstream and cannot flow-inherit"
        } else {
            ""
        };
        return Err(TypeError(format!(
            "output variant {} cannot enter {what} expecting {}{why}",
            ov.labels,
            downstream.input_type()
        )));
    }
    Ok(found)
}

/// Adds `m` to `maps`, merging its outputs into a mapping of the same
/// input if there is one.
fn merge_mapping(maps: &mut Vec<Mapping>, m: Mapping) {
    match maps.iter_mut().find(|old| old.input == m.input) {
        Some(old) => extend_outputs(&mut old.outputs, m.outputs),
        None => maps.push(m),
    }
}

fn extend_outputs(outs: &mut Vec<OutVariant>, new: impl IntoIterator<Item = OutVariant>) {
    for ov in new {
        if !outs.contains(&ov) {
            outs.push(ov);
        }
    }
}

/// Applies one downstream mapping to a concrete upstream output
/// variant, producing the composed output variants (flow inheritance
/// re-attaches `concrete \ mb.input` when the downstream output
/// inherits).
fn apply_mapping(concrete: &RecordType, inherits: bool, mb: &Mapping) -> Vec<OutVariant> {
    let excess = concrete.difference(&mb.input);
    mb.outputs
        .iter()
        .map(|ob| {
            let labels = if ob.inherits {
                ob.labels.union(&excess)
            } else {
                ob.labels.clone()
            };
            OutVariant {
                labels,
                inherits: ob.inherits && inherits,
            }
        })
        .collect()
}

/// Serial composition `A .. B`.
///
/// For every mapping of `A` and every output variant it may produce,
/// find where it enters `B` ([`entries`]). Labels an entry lacks become
/// requirements on the composite's input (they reach `B` via flow
/// inheritance); a variant with several such entries splits the mapping
/// into one input variant per entry, merged where inputs coincide.
/// Fails when an output variant can never be accepted.
pub fn serial(a: &NetSig, b: &NetSig) -> Result<NetSig, TypeError> {
    if b.maps.is_empty() {
        return Err(TypeError("serial composition with an empty network".into()));
    }
    let mut result = NetSig::default();
    for ma in &a.maps {
        let mut maps = vec![Mapping {
            input: ma.input.clone(),
            outputs: Vec::new(),
        }];
        for oa in &ma.outputs {
            let entries = entries(oa, &ma.input, b, "the downstream network")?;
            let mut next = Vec::new();
            for m in &maps {
                for (need, mb) in &entries {
                    let mut outputs = m.outputs.clone();
                    extend_outputs(
                        &mut outputs,
                        apply_mapping(&oa.labels.union(need), oa.inherits, mb),
                    );
                    merge_mapping(
                        &mut next,
                        Mapping {
                            input: m.input.union(need),
                            outputs,
                        },
                    );
                }
            }
            maps = next;
        }
        for m in maps {
            result.push_mapping(m);
        }
    }
    Ok(result)
}

/// Parallel composition `A || B` (and its deterministic sibling): the
/// union of the operands' mappings; routing picks per record.
pub fn parallel(a: &NetSig, b: &NetSig) -> NetSig {
    let mut result = a.clone();
    for m in &b.maps {
        result.push_mapping(m.clone());
    }
    result
}

/// Indexed parallel replication `A !! <tag>`: replicas have A's type
/// but every record must additionally carry the routing tag, which is
/// not consumed and flow-inherits through.
pub fn split(a: &NetSig, tag: Label) -> NetSig {
    NetSig {
        maps: a
            .maps
            .iter()
            .map(|m| {
                let consumed = m.input.contains(tag);
                Mapping {
                    input: m.input.with(tag),
                    outputs: m
                        .outputs
                        .iter()
                        .map(|o| {
                            let labels = if o.inherits && !consumed {
                                o.labels.with(tag)
                            } else {
                                o.labels.clone()
                            };
                            OutVariant {
                                labels,
                                inherits: o.inherits,
                            }
                        })
                        .collect(),
                }
            })
            .collect(),
    }
}

/// Serial replication `A ** {exit}`: the chain is tapped before every
/// replica; records matching the exit pattern leave. Statically we
/// close A's signature under self-composition (records may traverse
/// any number of replicas) and keep the variants that can match the
/// exit pattern, plus the immediate pass-through.
///
/// A circulating variant that re-enters A in more than one way
/// ([`entries`]) forks the closure, one per entry; each fork that
/// reaches the exit is an input variant of the result. `MAX_UNFOLD`
/// bounds the rounds of re-entry; the variant set almost always
/// stabilises after one or two rounds because label sets only grow
/// under flow inheritance.
pub fn star(a: &NetSig, exit: &RecordType) -> Result<NetSig, TypeError> {
    const MAX_UNFOLD: usize = 16;
    /// One closure: the input so far, every variant reached, and the
    /// variants still to unfold with their round.
    #[derive(Clone)]
    struct Closure {
        input: RecordType,
        seen: Vec<OutVariant>,
        todo: std::collections::VecDeque<(OutVariant, usize)>,
    }
    // Pass-through mapping: records that already match the exit leave
    // untouched.
    let mut result = NetSig::identity(exit.clone());

    for ma in &a.maps {
        let mut open = vec![Closure {
            input: ma.input.clone(),
            seen: ma.outputs.clone(),
            todo: ma.outputs.iter().map(|ov| (ov.clone(), 0)).collect(),
        }];
        let (mut maps, mut failure) = (Vec::new(), None);
        while let Some(mut c) = open.pop() {
            let Some((ov, round)) = c.todo.pop_front() else {
                // Exit variants: anything reachable that can match the
                // pattern. Variants with an open row *may* match at
                // runtime once inherited labels arrive; conservatively
                // keep concrete matches only — the paper's examples all
                // exit on concretely produced tags (<done>, <level>).
                let outputs: Vec<OutVariant> = c
                    .seen
                    .into_iter()
                    .filter(|ov| ov.labels.match_score(exit).is_some())
                    .collect();
                if outputs.is_empty() {
                    failure.get_or_insert_with(|| {
                        TypeError(format!(
                            "serial replication never produces a record matching exit \
                             pattern {exit}"
                        ))
                    });
                } else {
                    merge_mapping(
                        &mut maps,
                        Mapping {
                            input: c.input,
                            outputs,
                        },
                    );
                }
                continue;
            };
            // A variant matching the exit pattern leaves the star; one
            // that doesn't re-enters a replica of A.
            if round == MAX_UNFOLD || ov.labels.match_score(exit).is_some() {
                open.push(c);
                continue;
            }
            match entries(&ov, &ma.input, a, "the replicated network") {
                Ok(entries) => {
                    // Pushed in reverse, so the first entry unfolds first.
                    for (need, mb) in entries.into_iter().rev() {
                        let mut fork = c.clone();
                        fork.input = fork.input.union(&need);
                        for nv in apply_mapping(&ov.labels.union(&need), ov.inherits, mb) {
                            if !fork.seen.contains(&nv) {
                                fork.seen.push(nv.clone());
                                fork.todo.push_back((nv, round + 1));
                            }
                        }
                        open.push(fork);
                    }
                }
                Err(e) => {
                    failure.get_or_insert(e);
                }
            }
        }
        if maps.is_empty() {
            return Err(failure.expect("a closure that fails records why"));
        }
        for m in maps {
            result.push_mapping(m);
        }
    }
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rt(fields: &[&str], tags: &[&str]) -> RecordType {
        RecordType::of(fields, tags)
    }

    /// The paper's example box: `box foo (a,<b>) -> (c) | (c,d,<e>)`.
    fn foo_sig() -> BoxSig {
        BoxSig::new(
            vec![Label::field("a"), Label::tag("b")],
            vec![
                vec![Label::field("c")],
                vec![Label::field("c"), Label::field("d"), Label::tag("e")],
            ],
        )
    }

    #[test]
    fn box_sig_induces_type_signature() {
        let s = foo_sig().net_sig();
        assert_eq!(s.maps.len(), 1);
        assert_eq!(s.maps[0].input, rt(&["a"], &["b"]));
        assert_eq!(s.maps[0].outputs.len(), 2);
        assert_eq!(s.output_type().to_string(), "{c} | {c,d,<e>}");
    }

    #[test]
    fn serial_direct_match() {
        // {a} -> {b}  ..  {b} -> {c}   ==>  {a} -> {c,...}
        let a = NetSig::simple(rt(&["a"], &[]), vec![rt(&["b"], &[])]);
        let b = NetSig::simple(rt(&["b"], &[]), vec![rt(&["c"], &[])]);
        let s = serial(&a, &b).unwrap();
        assert_eq!(s.maps.len(), 1);
        assert_eq!(s.maps[0].input, rt(&["a"], &[]));
        assert_eq!(s.maps[0].outputs[0].labels, rt(&["c"], &[]));
    }

    #[test]
    fn serial_flow_inheritance_carries_excess() {
        // {a} -> {a, x}  ..  {a} -> {y}: x is excess for the second
        // component and must appear on its output.
        let a = NetSig::simple(rt(&["a"], &[]), vec![rt(&["a", "x"], &[])]);
        let b = NetSig::simple(rt(&["a"], &[]), vec![rt(&["y"], &[])]);
        let s = serial(&a, &b).unwrap();
        assert_eq!(s.maps[0].outputs[0].labels, rt(&["x", "y"], &[]));
    }

    #[test]
    fn serial_requirement_propagation_fig2_filter() {
        // The Figure 2 situation: computeOpts {board}->{board,opts},
        // then filter {}->{<k>}, then a consumer needing {board,opts}.
        let compute = NetSig::simple(rt(&["board"], &[]), vec![rt(&["board", "opts"], &[])]);
        let filter = NetSig::simple(RecordType::empty(), vec![rt(&[], &["k"])]);
        let solver = NetSig::simple(
            rt(&["board", "opts"], &[]),
            vec![rt(&["board", "opts"], &["k"])],
        );
        let s1 = serial(&compute, &filter).unwrap();
        // After the filter, board/opts are present via flow inheritance.
        assert_eq!(s1.maps[0].outputs[0].labels, rt(&["board", "opts"], &["k"]));
        let s2 = serial(&s1, &solver).unwrap();
        assert_eq!(s2.maps[0].input, rt(&["board"], &[]));
        assert_eq!(s2.maps[0].outputs[0].labels, rt(&["board", "opts"], &["k"]));
    }

    #[test]
    fn serial_pushes_requirements_to_composite_input() {
        // {a}->{a} .. needs {a,extra}: extra must come in from outside.
        let a = NetSig::simple(rt(&["a"], &[]), vec![rt(&["a"], &[])]);
        let b = NetSig::simple(rt(&["a", "extra"], &[]), vec![rt(&["z"], &[])]);
        let s = serial(&a, &b).unwrap();
        assert_eq!(s.maps[0].input, rt(&["a", "extra"], &[]));
    }

    #[test]
    fn serial_keeps_an_input_variant_per_reachable_downstream_mapping() {
        // `id .. (fork .. step) * {<z>}`: `{x}` enters neither the exit
        // pass-through `{<z>}` nor the loop `{x,<k>,<n>}` outright, and
        // both are one flow-inherited requirement away. Both stay; the
        // first (fewest labels missing) used to be the only one.
        let id = NetSig::simple(rt(&["x"], &[]), vec![rt(&["x"], &[])]);
        let mut star = NetSig::identity(rt(&[], &["z"]));
        star.push_mapping(Mapping {
            input: rt(&["x"], &["k", "n"]),
            outputs: vec![OutVariant::new(rt(&["x"], &["k", "n", "z"]))],
        });
        let s = serial(&id, &star).unwrap();
        let inputs: Vec<_> = s.maps.iter().map(|m| m.input.clone()).collect();
        assert_eq!(inputs, [rt(&["x"], &["z"]), rt(&["x"], &["k", "n"])]);
        assert_eq!(s.maps[1].outputs[0].labels, rt(&["x"], &["k", "n", "z"]));
        // A mapping whose missing labels are consumed upstream is no
        // entry: `{a,<q>} -> {a}` consumes `<q>`.
        let eat_q = NetSig::simple(rt(&["a"], &["q"]), vec![rt(&["a"], &[])]);
        let mut down = NetSig::simple(rt(&[], &["q"]), vec![rt(&[], &["q"])]);
        down.push_mapping(Mapping {
            input: rt(&["a"], &["n"]),
            outputs: vec![OutVariant::new(rt(&["b"], &[]))],
        });
        let s = serial(&eat_q, &down).unwrap();
        assert_eq!(s.maps.len(), 1);
        assert_eq!(s.maps[0].input, rt(&["a"], &["n", "q"]));
    }

    #[test]
    fn serial_rejects_consumed_labels() {
        // A consumes `x` (it is in A's input but not its output);
        // downstream needs it — impossible.
        let a = NetSig::simple(rt(&["x"], &[]), vec![rt(&["y"], &[])]);
        let b = NetSig::simple(rt(&["x"], &[]), vec![rt(&["z"], &[])]);
        assert!(serial(&a, &b).is_err());
    }

    #[test]
    fn serial_rejects_non_inheriting_mismatch() {
        let mut a = NetSig::simple(rt(&["a"], &[]), vec![rt(&["y"], &[])]);
        a.maps[0].outputs[0].inherits = false;
        let b = NetSig::simple(rt(&["q"], &[]), vec![rt(&["z"], &[])]);
        assert!(serial(&a, &b).is_err());
    }

    #[test]
    fn parallel_unions_mappings() {
        let a = NetSig::simple(rt(&["a"], &[]), vec![rt(&["x"], &[])]);
        let b = NetSig::simple(rt(&["b"], &[]), vec![rt(&["y"], &[])]);
        let p = parallel(&a, &b);
        assert_eq!(p.maps.len(), 2);
        // Best-match routing scores.
        assert_eq!(p.match_score(&rt(&["a"], &[])), Some(1));
        assert_eq!(p.match_score(&rt(&["a", "b"], &[])), Some(1));
        assert_eq!(p.match_score(&rt(&["c"], &[])), None);
    }

    #[test]
    fn split_requires_and_propagates_tag() {
        let a = NetSig::simple(rt(&["board"], &[]), vec![rt(&["board"], &[])]);
        let s = split(&a, Label::tag("k"));
        assert_eq!(s.maps[0].input, rt(&["board"], &["k"]));
        // The tag is not consumed: it flow-inherits onto the output.
        assert_eq!(s.maps[0].outputs[0].labels, rt(&["board"], &["k"]));
    }

    #[test]
    fn split_consumed_tag_does_not_reappear() {
        // If the replicated network consumes <k>, splitting on <k> must
        // not pretend it survives.
        let a = NetSig::simple(rt(&["b"], &["k"]), vec![rt(&["b"], &[])]);
        let s = split(&a, Label::tag("k"));
        assert_eq!(s.maps[0].input, rt(&["b"], &["k"]));
        assert_eq!(s.maps[0].outputs[0].labels, rt(&["b"], &[]));
    }

    #[test]
    fn star_fig1_shape() {
        // solveOneLevel: {board,opts} -> {board,opts} | {board,<done>},
        // replicated with exit pattern {<done>}.
        let solve = NetSig::simple(
            rt(&["board", "opts"], &[]),
            vec![rt(&["board", "opts"], &[]), rt(&["board"], &["done"])],
        );
        let s = star(&solve, &rt(&[], &["done"])).unwrap();
        // Pass-through mapping plus the solver mapping.
        assert_eq!(s.maps.len(), 2);
        // The non-trivial mapping outputs only the <done> variant.
        let m = &s.maps[1];
        assert_eq!(m.input, rt(&["board", "opts"], &[]));
        assert_eq!(m.outputs.len(), 1);
        assert!(m.outputs[0].labels.contains(Label::tag("done")));
    }

    #[test]
    fn star_rejects_never_exiting_network() {
        let a = NetSig::simple(rt(&["a"], &[]), vec![rt(&["a"], &[])]);
        let mut a = a;
        a.maps[0].outputs[0].inherits = false;
        assert!(star(&a, &rt(&[], &["done"])).is_err());
    }

    #[test]
    fn star_inheriting_loop_requirement() {
        // A: {a} -> {b}; exit {<e>}: b cannot re-enter (needs a), but a
        // can flow-inherit... no — `a` is consumed by A. Must error.
        let a = NetSig::simple(rt(&["a"], &[]), vec![rt(&["b"], &[])]);
        assert!(star(&a, &rt(&[], &["e"])).is_err());
    }

    #[test]
    fn identity_sig_passthrough() {
        let ty = rt(&["x"], &["t"]);
        let id = NetSig::identity(ty.clone());
        assert_eq!(id.maps[0].input, ty);
        assert_eq!(id.maps[0].outputs[0].labels, ty);
    }

    #[test]
    fn type_error_display() {
        let e = TypeError("boom".into());
        assert_eq!(e.to_string(), "type error: boom");
    }
}
