//! Randomised networks against the sequential reference.
//!
//! The differential check draws well-typed `.snet` programs over every
//! combinator, runs each through the parser and the runtime under one
//! configuration drawn from {fused, unfused} × {bound 128, 1–8,
//! unbounded} × {threads, pool(1), pool(2)}, and asserts that the
//! output is what `snet_runtime::oracle` says the program means: the
//! same sequence when every fan is det, the same multiset otherwise.
//! The oracle itself must give one answer for the fused and the
//! unfused compile of each program. Each input also carries a distinct
//! correlation word (the hidden word the serve door keys requests on),
//! and every output must carry the word of the input it came from, on
//! the oracle and on the runtime.
//! A failing case prints the program, the configuration and the
//! `PROPTEST_SEED` that replays it.
//!
//! Also here: conservation and order properties of random identity
//! topologies, bounded and unbounded; the chaos soak over them; and the
//! credit accounting of one bounded edge against a reference model.

mod common;

use common::chaos::Chaos;
use proptest::prelude::*;
use proptest::TestRng;
use snet_lang::{parse_filter, parse_program, pretty_net, Env, ExitPattern, NetAst};
use snet_runtime::{
    oracle, Bindings, Emitter, Executor, FaultPolicy, Net, NetBuilder, Plan, RunCfg,
    ThreadPerComponent, WorkStealingPool,
};
use snet_types::{BoxSig, Label, Record, RecordType, Value};
use std::sync::mpsc::RecvTimeoutError;
use std::sync::{Arc, OnceLock};

/// The box vocabulary of drawn programs. Every record carries `x`,
/// `<k>` and `<n>`; some carry `<p>`, and `<z>` marks a finished
/// countdown. Some inputs also carry `w`, a string field (an
/// `Arc`-backed value) that no box or filter declares: only flow
/// inheritance carries it, through boxes, filters and fans alike.
/// * `id` and `inc` (`x + 1`) — inheritance carries the tags;
/// * `drop` emits nothing when `x % 4 == 3`;
/// * `fork` emits its record and, when `x` is even, a second one on
///   the next `<k>` lane with one count less: a star of a split holds
///   a widening frontier, whose records leave at different depths;
/// * `step` counts `<n>` down and adds `<z>` at zero, the exit of
///   every drawn star.
const BOXES: &str = "
    box id (x) -> (x);
    box inc (x) -> (x);
    box drop (x) -> (x);
    box fork (x, <k>, <n>) -> (x, <k>, <n>);
    box step (x, <n>) -> (x, <n>) | (x, <n>, <z>);
";

/// The one filter: the head of a parallel's left branch. Its pattern
/// is the only four-label input of the vocabulary, so it takes every
/// `<p>` record and no other, and it strips `<p>`, so a parallel
/// further on routes the same record differently.
const ROUTE: &str = "[{x, <k>, <n>, <p>} -> {x, <k>=<k>, <n>=<n>}]";

fn x(rec: &Record) -> i64 {
    rec.field("x").unwrap().as_int().unwrap()
}

/// A box implementation, as bound by name.
type BoxFn = fn(&Record, &mut Emitter);

/// The implementations of [`BOXES`].
fn bindings() -> [(&'static str, BoxFn); 5] {
    [
        ("id", |r, em| em.emit(r.clone())),
        ("inc", |r, em| {
            em.emit(Record::build().field("x", x(r) + 1).finish())
        }),
        ("drop", |r, em| {
            if x(r) % 4 != 3 {
                em.emit(r.clone());
            }
        }),
        ("fork", |r, em| {
            em.emit(r.clone());
            if x(r) % 2 == 0 {
                let (k, n) = (r.tag("k").unwrap(), r.tag("n").unwrap());
                let rec = Record::build().field("x", x(r) + 1).tag("k", (k + 1) % 3);
                em.emit(rec.tag("n", (n - 1).max(0)).finish());
            }
        }),
        ("step", |r, em| {
            let rec = Record::build().field("x", x(r));
            em.emit(match r.tag("n").unwrap() {
                0 => rec.tag("n", 0).tag("z", 1).finish(),
                n => rec.tag("n", n - 1).finish(),
            });
        }),
    ]
}

/// A random net of at most `depth` nested combinators. A star's body
/// ends in `step`, so every record leaves within `<n> + 1` replicas.
/// A parallel's right branch starts with a box; its left branch
/// starts with [`ROUTE`], so that no record matches both equally well,
/// or is the same operand, so that a tie does not change the output.
fn draw_net(rng: &mut TestRng, depth: u32) -> NetAst {
    let leaf = |rng: &mut TestRng| {
        NetAst::boxref(["id", "inc", "drop", "fork", "step"][rng.usize_below(5)])
    };
    if depth == 0 || rng.usize_below(3) == 0 {
        return leaf(rng);
    }
    // Mostly det: one nondet fan anywhere leaves only the multiset.
    let det = rng.usize_below(4) > 0;
    let sub = |rng: &mut TestRng| draw_net(rng, depth - 1);
    match rng.usize_below(4) {
        0 => NetAst::serial(sub(rng), sub(rng)),
        1 => {
            let route = NetAst::Filter(parse_filter(ROUTE).unwrap());
            let right = NetAst::serial(leaf(rng), sub(rng));
            let left = match rng.usize_below(4) {
                0 => right.clone(),
                _ => NetAst::serial(route, sub(rng)),
            };
            NetAst::Parallel {
                left: Box::new(left),
                right: Box::new(right),
                det,
            }
        }
        2 => NetAst::Split {
            inner: Box::new(sub(rng)),
            tag: "k".into(),
            det,
        },
        _ => NetAst::Star {
            inner: Box::new(NetAst::serial(sub(rng), NetAst::boxref("step"))),
            exit: ExitPattern::new(RecordType::of(&[], &["z"])),
            det,
        },
    }
}

/// Where a drawn program runs.
#[derive(Clone, Copy, Debug)]
struct Config {
    fuse: bool,
    bound: Option<usize>,
    /// 0 = threads, else a pool of that many workers.
    workers: usize,
}

/// One drawn case: the program text, its inputs, a configuration,
/// and what the oracle says it outputs.
struct Case {
    src: String,
    inputs: Vec<Record>,
    cfg: Config,
    want: oracle::Expected,
}

impl std::fmt::Debug for Case {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "\n{}\nunder {:?}\non {:?}\n",
            self.src, self.cfg, self.inputs
        )
    }
}

/// The plan of `main` in `src`, compiled fused or not: the oracle's
/// input.
fn reference_plan(src: &str, fuse: bool) -> Plan {
    let program = parse_program(src).unwrap();
    let env: Env = program.env().unwrap();
    let b = bindings()
        .into_iter()
        .fold(Bindings::new(), |b, (name, f)| b.bind(name, f));
    let ast = &program.net("main").unwrap().body;
    snet_runtime::compile_cfg(ast, &env, &b, fuse).unwrap()
}

/// Draws programs until one type-checks, admits its inputs and has
/// a defined output on them.
struct Cases;

impl Strategy for Cases {
    type Value = Case;
    fn generate(&self, rng: &mut TestRng) -> Case {
        loop {
            let src = format!("{BOXES}\nnet main = {};", pretty_net(&draw_net(rng, 3)));
            let inputs: Vec<Record> = (0..rng.usize_below(24))
                .map(|i| {
                    let mut r = Record::build()
                        .field("x", rng.usize_below(30) as i64)
                        .tag("k", rng.usize_below(3) as i64)
                        .tag("n", rng.usize_below(3) as i64);
                    if rng.gen_bool_half() {
                        r = r.tag("p", 1);
                    }
                    if rng.usize_below(3) == 0 {
                        let w = format!("w{}", rng.usize_below(1000));
                        r = r.field("w", Value::Str(Arc::new(w)));
                    }
                    let mut r = r.finish();
                    r.set_corr(word(i));
                    r
                })
                .collect();
            let cfg = Config {
                fuse: rng.gen_bool_half(),
                bound: match rng.usize_below(3) {
                    0 => Some(128),
                    1 => Some(1 + rng.usize_below(8)),
                    _ => None,
                },
                workers: rng.usize_below(3),
            };
            let env = parse_program(&src).map(|p| p.env());
            if !matches!(env, Ok(Ok(_))) {
                continue;
            }
            let plan = reference_plan(&src, false);
            let admitted = inputs
                .iter()
                .all(|r| plan.sig.match_score(&r.record_type()).is_some());
            if let (true, Ok(want)) = (admitted, oracle::run(&plan, inputs.clone())) {
                return Case {
                    src,
                    inputs,
                    cfg,
                    want,
                };
            }
        }
    }
}

/// The correlation word of the `i`-th input of a case: distinct for
/// every `i` (an odd multiplier is invertible) and never 0.
fn word(i: usize) -> u64 {
    0x9E37_79B9_7F4A_7C15u64.wrapping_mul(i as u64 + 1)
}

/// The shared pools of one and two workers.
fn pool(workers: usize) -> Arc<dyn Executor> {
    static POOLS: OnceLock<[Arc<WorkStealingPool>; 2]> = OnceLock::new();
    let pools = POOLS.get_or_init(|| [1, 2].map(|n| Arc::new(WorkStealingPool::new(n))));
    Arc::clone(&pools[workers - 1]) as _
}

/// Runs `f` on a thread of its own, so that a hang or a panic is a
/// failed case rather than a stuck or aborted suite. The thread is
/// leaked on a hang, which is acceptable in a test binary.
fn on_own_thread<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> Result<T, String> {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    rx.recv_timeout(std::time::Duration::from_secs(60))
        .map_err(|e| match e {
            RecvTimeoutError::Timeout => "the net hung (60 s)".into(),
            RecvTimeoutError::Disconnected => "the net panicked".into(),
        })
}

/// What `case`'s program outputs on the runtime.
fn run_case(case: &Case) -> Vec<Record> {
    let b = NetBuilder::from_source(&case.src).unwrap();
    let b = bindings()
        .into_iter()
        .fold(b, |b, (name, f)| b.bind(name, f));
    let b = match case.cfg.bound {
        Some(n) => b.bound(n),
        None => b.unbounded(),
    };
    let net = match case.cfg.workers {
        0 => b.executor(Arc::new(ThreadPerComponent)),
        n => b.executor(pool(n)),
    };
    let net = net.fuse(case.cfg.fuse).build("main").unwrap();
    for rec in &case.inputs {
        net.send(rec.clone()).unwrap();
    }
    net.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Runtime ≡ oracle on drawn programs, one configuration each; and
    /// the oracle reads the fused compile as it reads the unfused one.
    #[test]
    fn runtime_matches_the_oracle_on_random_programs(case in Cases) {
        prop_assert_eq!(
            oracle::run(&reference_plan(&case.src, true), case.inputs.clone()),
            Ok(case.want.clone()),
            "the oracle on the fused compile"
        );
        let case = Arc::new(case);
        let got = on_own_thread({
            let case = Arc::clone(&case);
            move || run_case(&case)
        });
        let (want, got) = (&case.want, got.map_err(TestCaseError::Fail)?);
        prop_assert!(
            want.admits(&got),
            "ordered: {}\n  want: {:?}\n   got: {:?}", want.ordered, want.records, got
        );
        // The records carrying an input's word are what that input
        // alone makes. The groups add up to every output, so no output
        // carries a foreign word either.
        let plan = reference_plan(&case.src, false);
        for (i, input) in case.inputs.iter().enumerate() {
            let own = oracle::run(&plan, [input.clone()]).unwrap();
            prop_assert!(
                own.records.iter().all(|r| r.corr() == word(i)),
                "the oracle lost the word of input {}", i
            );
            let carried: Vec<Record> =
                got.iter().filter(|r| r.corr() == word(i)).cloned().collect();
            prop_assert!(
                own.admits(&carried),
                "input {}'s word\n  want: {:?}\n   got: {:?}", i, own.records, carried
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Chaos soak: seeded fault injection over random topologies.
// ---------------------------------------------------------------------------

/// A random combinator tree over the identity box
/// `id (x, <k>) -> (x, <k>)`; no star, which an identity box would
/// never leave.
fn arb_net() -> impl Strategy<Value = NetAst> {
    let leaf = Just(NetAst::boxref("id"));
    leaf.prop_recursive(4, 16, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| NetAst::serial(a, b)),
            (inner.clone(), inner.clone(), any::<bool>()).prop_map(|(a, b, det)| {
                if det {
                    NetAst::parallel_det(a, b)
                } else {
                    NetAst::parallel(a, b)
                }
            }),
            (inner, any::<bool>()).prop_map(|(a, det)| {
                if det {
                    NetAst::split_det(a, "k")
                } else {
                    NetAst::split(a, "k")
                }
            }),
        ]
    })
}

/// `cfg.fuse` is whether the plan is compiled fused; `chaos`, when
/// given, wraps `id`.
fn build_full(
    ast: &NetAst,
    cfg: RunCfg,
    executor: Arc<dyn Executor>,
    chaos: Option<&Chaos>,
) -> Net {
    let mut env = Env::new();
    let xk = vec![Label::field("x"), Label::tag("k")];
    env.declare_box("id", BoxSig::new(xk.clone(), vec![xk]))
        .unwrap();
    let id = |rec: &Record, em: &mut Emitter| em.emit(rec.clone());
    let bindings = match chaos {
        Some(chaos) => Bindings::new().bind("id", chaos.wrap("id", id)),
        None => Bindings::new().bind("id", id),
    };
    let plan: Plan =
        snet_runtime::compile_cfg(ast, &env, &bindings, cfg.fuse).expect("random net compiles");
    Net::spawn(plan, Vec::new(), executor, cfg)
}

fn drive(net: Net, xs: &[(i64, i64)]) -> Vec<(i64, i64)> {
    for (x, k) in xs {
        net.send(Record::build().field("x", *x).tag("k", *k).finish())
            .unwrap();
    }
    net.finish()
        .iter()
        .map(|r| (r.field("x").unwrap().as_int().unwrap(), r.tag("k").unwrap()))
        .collect()
}

/// On threads with `bound`, otherwise the default configuration.
fn build_bound(ast: &NetAst, bound: Option<usize>) -> Net {
    let cfg = RunCfg {
        bound,
        ..RunCfg::default()
    };
    build_full(ast, cfg, Arc::new(ThreadPerComponent), None)
}

/// On unbounded edges: what the bounded runs are compared against.
fn build(ast: &NetAst) -> Net {
    build_bound(ast, None)
}

/// A nested det-only tree: `((id ! <k>) | (id ! <k>)) | ...`, `depth`
/// parallels deep.
fn det_tree(depth: usize) -> NetAst {
    let mut ast = NetAst::split_det(NetAst::boxref("id"), "k");
    for _ in 0..depth {
        ast = NetAst::parallel_det(ast.clone(), NetAst::split_det(NetAst::boxref("id"), "k"));
    }
    ast
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every record comes out exactly once, payloads intact.
    #[test]
    fn records_are_conserved_through_any_topology(
        ast in arb_net(),
        xs in proptest::collection::vec((0i64..1_000_000, 0i64..5), 0..40),
    ) {
        let mut got = drive(build(&ast), &xs);
        prop_assert_eq!(got.len(), xs.len(), "record count changed in {:?}", ast);
        let mut want = xs.clone();
        got.sort();
        want.sort();
        prop_assert_eq!(got, want);
    }

    /// Fully deterministic topologies additionally preserve ORDER.
    #[test]
    fn det_only_topologies_preserve_order(
        depth in 1usize..4,
        xs in proptest::collection::vec((0i64..1_000_000, 0i64..5), 0..30),
    ) {
        prop_assert_eq!(drive(build(&det_tree(depth)), &xs), xs);
    }

    /// Bounding an arbitrary topology changes *when* producers run,
    /// never *what* comes out: the delivered multiset equals the
    /// unbounded run's, even at bound 1 (maximum pressure).
    #[test]
    fn bounded_topologies_deliver_the_same_records(
        ast in arb_net(),
        bound in 1usize..9,
        xs in proptest::collection::vec((0i64..1_000_000, 0i64..5), 0..40),
    ) {
        let mut unbounded = drive(build(&ast), &xs);
        let mut bounded = drive(build_bound(&ast, Some(bound)), &xs);
        unbounded.sort();
        bounded.sort();
        prop_assert_eq!(bounded, unbounded, "bound {} changed output of {:?}", bound, ast);
    }

    /// Under a fully deterministic topology the comparison tightens to
    /// exact sequence equality: credit waits must not perturb sort
    /// record interleaving.
    #[test]
    fn bounded_det_topologies_preserve_order(
        depth in 1usize..4,
        bound in 1usize..6,
        xs in proptest::collection::vec((0i64..1_000_000, 0i64..5), 0..30),
    ) {
        prop_assert_eq!(drive(build_bound(&det_tree(depth), Some(bound)), &xs), xs);
    }
}

/// Output multiset plus the fault counters of one chaos run.
#[derive(Debug, PartialEq, Eq)]
struct SoakOutcome {
    /// Sorted (x, k) payloads that made it through.
    out: Vec<(i64, i64)>,
    injected: u64,
    skipped: u64,
    panics: u64,
}

fn soak_run(
    ast: &NetAst,
    chaos: Option<Chaos>,
    fuse: bool,
    executor: Arc<dyn Executor>,
    xs: &[(i64, i64)],
) -> SoakOutcome {
    let cfg = RunCfg {
        bound: None,
        fuse,
        fault_policy: FaultPolicy::SkipRecord,
        ..RunCfg::default()
    };
    let net = build_full(ast, cfg, executor, chaos.as_ref());
    let metrics = Arc::clone(net.metrics());
    let mut out = drive(net, xs);
    out.sort();
    SoakOutcome {
        out,
        injected: chaos.map_or(0, |c| c.panics()),
        skipped: metrics.sum_matching("records_skipped"),
        panics: metrics.get("runtime/component_panics"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The chaos soak (see `tests/common/chaos.rs`): a seeded injector
    /// panics boxes at random inside arbitrary topologies under the
    /// `SkipRecord` policy, across {thread-per-component, pool(2)} ×
    /// {fused, unfused}. The net must never hang, every record must
    /// either come out intact or be accounted for by exactly one
    /// skip, and all four configurations must agree — a decision is
    /// keyed by (seed, box name, record content), none of which
    /// executor choice, fusion or a nondet merge's schedule can
    /// change (an arrival index can: behind an `id || id` tie both the
    /// index and the lane depend on the schedule). With chaos off
    /// the run is indistinguishable from an unguarded one.
    #[test]
    fn chaos_soak_contains_faults_identically_across_configs(
        ast in arb_net(),
        xs in proptest::collection::vec((0i64..1_000_000, 0i64..5), 0..30),
    ) {
        // CI pins SNET_CHAOS_SEED for reproducible logs; default is a
        // fixed constant so local runs are deterministic too. Each
        // configuration gets an injector (and a panic count) of its own.
        let chaos = || Chaos::from_env(0xC0FFEE, 0.05);

        let configs: Vec<(&str, bool, Arc<dyn Executor>)> = vec![
            ("threads/fused", true, Arc::new(ThreadPerComponent)),
            ("threads/unfused", false, Arc::new(ThreadPerComponent)),
            ("pool2/fused", true, Arc::new(WorkStealingPool::new(2))),
            ("pool2/unfused", false, Arc::new(WorkStealingPool::new(2))),
        ];
        let mut outcomes = Vec::new();
        for (name, fuse, executor) in configs {
            let ast2 = ast.clone();
            let xs2 = xs.to_vec();
            let chaos2 = chaos();
            let outcome = on_own_thread(move || {
                soak_run(&ast2, Some(chaos2), fuse, executor, &xs2)
            }).map_err(TestCaseError::Fail)?;
            // Containment accounting: every injected panic is exactly
            // one skipped record and one contained fault, and nothing
            // else goes missing.
            prop_assert_eq!(outcome.skipped, outcome.injected, "{}: {:?}", name, ast);
            prop_assert_eq!(outcome.panics, outcome.injected, "{}: {:?}", name, ast);
            prop_assert_eq!(
                outcome.out.len() as u64,
                xs.len() as u64 - outcome.skipped,
                "{}: lost records beyond the skipped ones in {:?}", name, ast
            );
            // Survivors are a sub-multiset of the inputs.
            let mut want = xs.to_vec();
            want.sort();
            let mut w = want.iter().peekable();
            for got in &outcome.out {
                while w.peek().is_some_and(|x| *x < got) { w.next(); }
                prop_assert_eq!(w.next(), Some(got), "{}: fabricated record", name);
            }
            outcomes.push((name, outcome));
        }
        // All four configurations saw the same poison records.
        for pair in outcomes.windows(2) {
            prop_assert_eq!(
                &pair[0].1, &pair[1].1,
                "configs {} and {} diverged on {:?}", pair[0].0, pair[1].0, ast
            );
        }

        // Chaos off: the guarded pipeline is a transparent wrapper —
        // nothing skipped, nothing lost, full multiset out.
        let ast2 = ast.clone();
        let xs2 = xs.to_vec();
        let clean = on_own_thread(move || {
            soak_run(&ast2, None, true, Arc::new(ThreadPerComponent), &xs2)
        }).map_err(TestCaseError::Fail)?;
        prop_assert_eq!(clean.injected, 0);
        prop_assert_eq!(clean.skipped, 0);
        prop_assert_eq!(clean.panics, 0);
        let mut want = xs.clone();
        want.sort();
        prop_assert_eq!(clean.out, want);
    }
}

// ---------------------------------------------------------------------------
// Credit accounting on a single edge, against a reference model.
// ---------------------------------------------------------------------------

/// One random operation against a bounded channel.
#[derive(Clone, Debug)]
enum Op {
    /// Gated producer path (`try_feed`): must succeed exactly when the
    /// model says in-flight < capacity.
    TryFeed,
    /// Ungated producer path (plain `send`, the sort/control
    /// exemption): always succeeds, counted but never gated.
    SendUngated,
    /// Consumer pop: releases one credit when something is queued.
    Pop,
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![Just(Op::TryFeed), Just(Op::SendUngated), Just(Op::Pop)],
        0..200,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The credit invariant: at every step, granted − consumed equals
    /// the channel's in-flight depth, `try_feed` admits exactly while
    /// in-flight < capacity, and *gated* traffic alone never pushes
    /// depth past the capacity (ungated sends may — by design).
    #[test]
    fn credit_accounting_matches_reference_model(
        cap in 1usize..8,
        ops in arb_ops(),
    ) {
        use snet_runtime::stream::chan::{channel_cfg, TryFeedError};

        let (tx, rx) = channel_cfg::<u64>(cap, None);
        let mut granted = 0u64;   // records admitted (gated + ungated)
        let mut consumed = 0u64;  // records popped
        let mut sent_ungated = false;
        for op in &ops {
            match op {
                Op::TryFeed => {
                    let in_flight = granted - consumed;
                    match tx.try_feed(granted) {
                        Ok(()) => {
                            prop_assert!(
                                in_flight < cap as u64,
                                "try_feed admitted at depth {} >= cap {}", in_flight, cap
                            );
                            granted += 1;
                        }
                        Err(TryFeedError::Full(_)) => {
                            prop_assert!(
                                in_flight >= cap as u64,
                                "try_feed refused at depth {} < cap {}", in_flight, cap
                            );
                        }
                        Err(TryFeedError::Disconnected(_)) => unreachable!(),
                    }
                }
                Op::SendUngated => {
                    tx.send(granted).unwrap();
                    granted += 1;
                    sent_ungated = true;
                }
                Op::Pop => {
                    if rx.try_recv().is_ok() {
                        consumed += 1;
                    } else {
                        prop_assert_eq!(granted, consumed, "empty channel with credits out");
                    }
                }
            }
            // The invariant proper: depth tracks granted − consumed
            // exactly — no credit is ever leaked or double-released.
            prop_assert_eq!(rx.depth() as u64, granted - consumed);
            if !sent_ungated {
                prop_assert!(rx.depth() <= cap, "gated-only traffic exceeded cap");
            }
        }
        // Drain: every remaining credit comes back.
        while rx.try_recv().is_ok() {
            consumed += 1;
        }
        prop_assert_eq!(granted, consumed);
        prop_assert_eq!(rx.depth(), 0);
    }
}

/// One operation of the enumerated credit protocol.
#[derive(Clone, Copy, Debug)]
enum Step {
    /// `try_feed`: gated, never waits.
    TryFeed,
    /// Plain `send`: ungated, counted.
    Send,
    /// `try_recv`: returns a credit when something is queued.
    Pop,
    /// `exempt`: lifts the capacity, releasing every parked producer.
    Exempt,
    /// `feed_blocking` with a deadline that has already passed: one
    /// poll of its credit wait, then `Full`.
    FeedExpired,
    /// One poll of the single outstanding `acquire(1)` (a new one if
    /// none is outstanding) with a counting waker; a granted credit is
    /// published with `send_each_reserved`.
    PollAcquire,
}

const STEPS: [Step; 6] = [
    Step::TryFeed,
    Step::Send,
    Step::Pop,
    Step::Exempt,
    Step::FeedExpired,
    Step::PollAcquire,
];

/// A waker that counts its wakes.
struct CountWake(std::sync::atomic::AtomicUsize);

impl std::task::Wake for CountWake {
    fn wake(self: Arc<Self>) {
        self.0.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
    }
}

/// Runs `seq` on a fresh edge of capacity `cap` against the model,
/// panicking with the sequence on the first disagreement.
fn check_credit_sequence(cap: usize, seq: &[Step]) {
    use snet_runtime::stream::chan::{channel_cfg, TryFeedError};
    use std::future::Future;
    use std::pin::Pin;
    use std::sync::atomic::Ordering;
    use std::task::{Context, Poll, Waker};
    use std::time::Instant;

    let (tx, rx) = channel_cfg::<u64>(cap, None);
    let wakes = Arc::new(CountWake(Default::default()));
    let waker = Waker::from(Arc::clone(&wakes));
    let mut cx = Context::from_waker(&waker);
    // The model: the capacity (0 once exempt), records admitted and
    // popped, the depth word (frozen once exempt: an unbounded edge
    // keeps no account), the outstanding acquire and whether its waker
    // is registered, and the wakes it must have seen.
    let mut bound = cap;
    let (mut granted, mut consumed, mut depth) = (0u64, 0u64, 0u64);
    let mut pending = None;
    let mut registered = false;
    let mut want_wakes = 0;
    for (i, step) in seq.iter().enumerate() {
        let at = || format!("cap {cap}, step {i} of {seq:?}");
        let free = bound == 0 || granted - consumed < bound as u64;
        // Whether the step took the credit gate, and whether it
        // admitted a record.
        let (gated, admitted) = match step {
            Step::TryFeed => match tx.try_feed(granted) {
                Ok(()) => (true, true),
                Err(TryFeedError::Full(_)) => (true, false),
                Err(TryFeedError::Disconnected(_)) => unreachable!(),
            },
            Step::FeedExpired => match tx.feed_blocking(granted, Some(Instant::now())) {
                Ok(()) => (true, true),
                Err(TryFeedError::Full(_)) => (true, false),
                Err(TryFeedError::Disconnected(_)) => unreachable!(),
            },
            Step::PollAcquire => {
                let fut = pending.get_or_insert_with(|| tx.acquire(1));
                match Pin::new(fut).poll(&mut cx) {
                    Poll::Ready(Ok(n)) => {
                        assert_eq!(n, 1, "acquire(1) granted {n}: {}", at());
                        pending = None;
                        registered = false;
                        assert_eq!(tx.send_each_reserved([granted]).unwrap(), 1);
                        (true, true)
                    }
                    Poll::Ready(Err(_)) => unreachable!(),
                    Poll::Pending => {
                        registered = true;
                        (true, false)
                    }
                }
            }
            Step::Send => {
                tx.send(granted).unwrap();
                (false, true)
            }
            Step::Pop => {
                match rx.try_recv() {
                    Ok(_) => {
                        consumed += 1;
                        if bound != 0 {
                            depth -= 1;
                        }
                    }
                    Err(_) => {
                        assert_eq!(granted, consumed, "empty edge with records out: {}", at())
                    }
                }
                (false, false)
            }
            Step::Exempt => {
                rx.exempt();
                bound = 0;
                (false, false)
            }
        };
        if gated {
            assert_eq!(admitted, free, "gated admission vs free credit: {}", at());
        }
        if admitted {
            granted += 1;
            if bound != 0 {
                depth += 1;
            }
        }
        // A registered acquire is woken once, when a credit appears.
        if registered && (bound == 0 || granted - consumed < bound as u64) {
            registered = false;
            want_wakes += 1;
        }
        assert_eq!(
            wakes.0.load(Ordering::SeqCst),
            want_wakes,
            "acquire wakes: {}",
            at()
        );
        assert_eq!(rx.depth() as u64, depth, "depth: {}", at());
        if bound != 0 {
            assert_eq!(depth, granted - consumed, "credit account: {}", at());
        }
    }
}

/// The credit protocol of one edge, enumerated rather than sampled:
/// every sequence of up to six operations on capacities 1 and 2 (about
/// 112 k sequences). Depth equals granted minus consumed, every gated
/// path (`try_feed`, `feed_blocking`, `acquire`) admits exactly when a
/// credit is free, and a registered `acquire` is woken once when a
/// credit appears and never otherwise.
#[test]
fn credit_protocol_holds_on_every_short_sequence() {
    let mut seq = Vec::with_capacity(6);
    for cap in [1, 2] {
        for len in 0..=6u32 {
            for code in 0..STEPS.len().pow(len) {
                seq.clear();
                let mut c = code;
                for _ in 0..len {
                    seq.push(STEPS[c % STEPS.len()]);
                    c /= STEPS.len();
                }
                check_credit_sequence(cap, &seq);
            }
        }
    }
}
