//! Randomised networks against the sequential reference.
//!
//! The differential check draws well-typed `.snet` programs over every
//! combinator ([`draw_net`], the one program generator here) and up to
//! 24 inputs, runs each through the parser and the runtime under one
//! configuration drawn from {fused, unfused} × {bound 128, 1–8,
//! unbounded} × {pool(1), pool(2)} × {`FailNet`, `SkipRecord`,
//! `SkipRecord` with seeded chaos in every box}, and asserts that the
//! output is what `snet_runtime::oracle` says the program means: the
//! same sequence when every fan is det, the same multiset otherwise.
//! Under chaos the oracle reads each box as `Chaos::skip`, which emits
//! nothing on the records the runtime's box panics on, and every
//! injected panic must be one skipped record and one contained fault
//! (`records_skipped == Chaos::panics() == runtime/component_panics`,
//! all 0 without chaos). The oracle itself must give one answer for
//! the fused and the unfused compile of each program. Each input also
//! carries a distinct correlation word (the hidden word the serve door
//! keys requests on), and every output must carry the word of the
//! input it came from, on the oracle and on the runtime.
//! A failing case prints the program, the configuration, the chaos
//! seed and the `PROPTEST_SEED` that replays it. Smaller properties
//! run the same check on narrowed draws ([`Cases`]): det fans only,
//! a bound of 1–8, or chaos, the last in all four {fused, unfused} ×
//! {pool(1), pool(2)} configurations per program.
//!
//! Also here: the credit accounting of one bounded edge against a
//! reference model.

mod common {
    pub mod chaos;
    pub mod held;
    pub mod pools;
}

use common::chaos::Chaos;
use common::held::held_pool;
use common::pools::pools;
use proptest::prelude::*;
use proptest::TestRng;
use snet_lang::{parse_filter, parse_program, pretty_net, Env, ExitPattern, NetAst};
use snet_runtime::{oracle, Bindings, CallOpts, Emitter, FaultPolicy, NetBuilder, Plan, Service};
use snet_types::{Record, RecordType, Value};
use std::sync::mpsc::RecvTimeoutError;
use std::sync::Arc;

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

fn leaf(rng: &mut TestRng) -> NetAst {
    NetAst::boxref(["id", "inc", "drop", "fork", "step"][rng.usize_below(5)])
}

/// A random net of one to `depth` (≥ 1) nested combinators, with every
/// fan det if `det_only`. The top is always a combinator: a lone box
/// would spend a case on one of five one-box programs. A star's body
/// ends in `step`, so every record leaves within `<n> + 1` replicas.
/// A parallel's right branch starts with a box; its left branch
/// starts with [`ROUTE`], so that no record matches both equally well,
/// or is the same operand, so that a tie does not change the output.
fn draw_net(rng: &mut TestRng, depth: u32, det_only: bool) -> NetAst {
    // Mostly det: one nondet fan anywhere leaves only the multiset.
    let det = det_only || rng.usize_below(4) > 0;
    // Below the top, a box one time in three.
    let sub = |rng: &mut TestRng| {
        if depth == 1 || rng.usize_below(3) == 0 {
            leaf(rng)
        } else {
            draw_net(rng, depth - 1, det_only)
        }
    };
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
    /// An index into [`pools`].
    pool: usize,
    /// `FaultPolicy::SkipRecord` rather than the default `FailNet`.
    skip: bool,
}

/// One drawn case: the program text, its inputs, a configuration, the
/// injector its boxes run under (only ever with `skip`), and what the
/// oracle says it outputs.
struct Case {
    src: String,
    inputs: Vec<Record>,
    cfg: Config,
    chaos: Option<Chaos>,
    want: oracle::Expected,
}

impl std::fmt::Debug for Case {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "\n{}\nunder {:?} with {:?}\non {:?}\n",
            self.src, self.cfg, self.chaos, self.inputs
        )
    }
}

/// The plan of `main` in `src`, compiled fused or not, with the boxes
/// as the oracle reads them under `chaos`: the oracle's input.
fn reference_plan(src: &str, fuse: bool, chaos: Option<&Chaos>) -> Plan {
    let program = parse_program(src).unwrap();
    let env: Env = program.env().unwrap();
    let b = bindings()
        .into_iter()
        .fold(Bindings::new(), |b, (name, f)| match chaos {
            Some(chaos) => b.bind(name, chaos.skip(name, f)),
            None => b.bind(name, f),
        });
    let ast = &program.net("main").unwrap().body;
    snet_runtime::compile_cfg(ast, &env, &b, fuse).unwrap()
}

/// The seeded injector of a chaos case: `SNET_CHAOS_SEED`, else a
/// fixed seed.
fn chaos() -> Chaos {
    Chaos::from_env(0xC0FFEE, 0.05)
}

/// Draws programs until one type-checks, admits its inputs and has
/// a defined output on them. The default draws from the whole space;
/// each flag narrows it.
#[derive(Clone, Copy, Default)]
struct Cases {
    /// Every fan det, so the oracle fixes the output sequence.
    det: bool,
    /// A bound of 1–8 on every edge (maximum pressure).
    bounded: bool,
    /// `SkipRecord` with chaos in every box.
    chaos: bool,
}

impl Strategy for Cases {
    type Value = Case;
    fn generate(&self, rng: &mut TestRng) -> Case {
        loop {
            let src = format!(
                "{BOXES}\nnet main = {};",
                pretty_net(&draw_net(rng, 3, self.det))
            );
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
                bound: match if self.bounded { 1 } else { rng.usize_below(3) } {
                    0 => Some(128),
                    1 => Some(1 + rng.usize_below(8)),
                    _ => None,
                },
                pool: rng.usize_below(2),
                skip: self.chaos || rng.gen_bool_half(),
            };
            let chaos = (cfg.skip && (self.chaos || rng.gen_bool_half())).then(chaos);
            let env = parse_program(&src).map(|p| p.env());
            if !matches!(env, Ok(Ok(_))) {
                continue;
            }
            let plan = reference_plan(&src, false, chaos.as_ref());
            let admitted = inputs
                .iter()
                .all(|r| plan.sig.match_score(&r.record_type()).is_some());
            if let (true, Ok(want)) = (admitted, oracle::run(&plan, inputs.clone())) {
                return Case {
                    src,
                    inputs,
                    cfg,
                    chaos,
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

/// What `case`'s program outputs on the runtime, with the net's
/// `records_skipped` total and its `runtime/component_panics`.
fn run_case(case: &Case) -> (Vec<Record>, u64, u64) {
    let b = NetBuilder::from_source(&case.src).unwrap();
    let b = bindings()
        .into_iter()
        .fold(b, |b, (name, f)| match &case.chaos {
            Some(chaos) => b.bind(name, chaos.wrap(name, f)),
            None => b.bind(name, f),
        });
    let b = match case.cfg.bound {
        Some(n) => b.bound(n),
        None => b.unbounded(),
    };
    let b = match case.cfg.skip {
        true => b.fault_policy(FaultPolicy::SkipRecord),
        false => b,
    };
    let exec = Arc::clone(&pools()[case.cfg.pool].1);
    let net = b.executor(exec).fuse(case.cfg.fuse).build("main").unwrap();
    for rec in &case.inputs {
        net.send(rec.clone()).unwrap();
    }
    let metrics = Arc::clone(net.metrics());
    let out = net.finish();
    let skipped = metrics.sum_matching("records_skipped");
    (out, skipped, metrics.get("runtime/component_panics"))
}

/// Runtime ≡ oracle on one drawn case, with the containment and
/// correlation-word checks; and the oracle reads the fused compile as
/// it reads the unfused one.
fn check(case: Case) -> Result<(), TestCaseError> {
    let chaos = case.chaos.as_ref();
    prop_assert_eq!(
        oracle::run(&reference_plan(&case.src, true, chaos), case.inputs.clone()),
        Ok(case.want.clone()),
        "the oracle on the fused compile"
    );
    let case = Arc::new(case);
    let got = on_own_thread({
        let case = Arc::clone(&case);
        move || run_case(&case)
    });
    let (got, skipped, contained) = got.map_err(TestCaseError::Fail)?;
    let want = &case.want;
    prop_assert!(
        want.admits(&got),
        "ordered: {}\n  want: {:?}\n   got: {:?}",
        want.ordered,
        want.records,
        got
    );
    // Containment: every injected panic is one skipped record and
    // one contained fault, and nothing else is skipped.
    let injected = case.chaos.as_ref().map_or(0, Chaos::panics);
    prop_assert_eq!(
        (skipped, contained),
        (injected, injected),
        "skipped, contained"
    );
    // The records carrying an input's word are what that input
    // alone makes. The groups add up to every output, so no output
    // carries a foreign word either.
    let plan = reference_plan(&case.src, false, case.chaos.as_ref());
    for (i, input) in case.inputs.iter().enumerate() {
        let own = oracle::run(&plan, [input.clone()]).unwrap();
        prop_assert!(
            own.records.iter().all(|r| r.corr() == word(i)),
            "the oracle lost the word of input {}",
            i
        );
        let carried: Vec<Record> = got
            .iter()
            .filter(|r| r.corr() == word(i))
            .cloned()
            .collect();
        prop_assert!(
            own.admits(&carried),
            "input {}'s word\n  want: {:?}\n   got: {:?}",
            i,
            own.records,
            carried
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Runtime ≡ oracle on drawn programs, one configuration each.
    #[test]
    fn runtime_matches_the_oracle_on_random_programs(case in Cases::default()) {
        check(case)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every record the program makes comes out exactly once, payloads
    /// and tags intact; under chaos, less only what the poisoned boxes
    /// skip.
    #[test]
    fn records_are_conserved_through_any_topology(case in Cases::default()) {
        check(case)?;
    }

    /// Programs whose fans are all det output the oracle's sequence.
    #[test]
    fn det_only_topologies_preserve_order(case in Cases { det: true, ..Cases::default() }) {
        prop_assert!(case.want.ordered);
        check(case)?;
    }

    /// A bound of 1–8 changes when producers run, never what comes out.
    #[test]
    fn bounded_topologies_deliver_the_same_records(
        case in Cases { bounded: true, ..Cases::default() },
    ) {
        check(case)?;
    }

    /// Under a bound of 1–8 and det fans, credit waits do not perturb
    /// the output sequence.
    #[test]
    fn bounded_det_topologies_preserve_order(
        case in Cases { det: true, bounded: true, chaos: false },
    ) {
        prop_assert!(case.want.ordered);
        check(case)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// One chaos program in every {fused, unfused} × {pool(1), pool(2)}
    /// configuration, each with an injector of its own: every one
    /// outputs what the oracle over `Chaos::skip` says, and counts one
    /// skipped record and one contained fault per injected panic.
    #[test]
    fn chaos_soak_contains_faults_identically_across_configs(
        case in Cases { chaos: true, ..Cases::default() },
    ) {
        for (fuse, pool) in [(true, 0), (false, 0), (true, 1), (false, 1)] {
            check(Case {
                src: case.src.clone(),
                inputs: case.inputs.clone(),
                cfg: Config { fuse, pool, ..case.cfg },
                chaos: Some(chaos()),
                want: case.want.clone(),
            })?;
        }
    }
}

/// Each input of `case`, served as one call on a pool whose callers
/// always help ([`held_pool`]): its response must be what the oracle
/// says that input alone makes. Calls go one at a time, each expecting
/// the oracle's output count; an input with no output is not sent, as
/// its call could never complete. The case's fault policy and chaos
/// are not used: every box runs as written, under `FailNet`.
fn check_served(case: &Case) -> Result<(), TestCaseError> {
    let plan = reference_plan(&case.src, false, None);
    let mut want = Vec::new();
    for input in &case.inputs {
        match oracle::run(&plan, [input.clone()]) {
            Ok(own) if own.records.is_empty() => {}
            Ok(own) => want.push((input.clone(), own)),
            // Without chaos the oracle may read another program.
            Err(_) => return Ok(()),
        }
    }
    let got = on_own_thread({
        let (src, cfg) = (case.src.clone(), case.cfg);
        let calls: Vec<(Record, usize)> = want
            .iter()
            .map(|(input, own)| (input.clone(), own.records.len()))
            .collect();
        move || {
            let (exec, held) = held_pool();
            let b = bindings()
                .into_iter()
                .fold(NetBuilder::from_source(&src).unwrap(), |b, (name, f)| {
                    b.bind(name, f)
                });
            let b = match cfg.bound {
                Some(n) => b.bound(n),
                None => b.unbounded(),
            };
            let svc = Service::start(b.executor(exec).fuse(cfg.fuse).build("main").unwrap());
            let got: Vec<_> = calls
                .into_iter()
                .map(|(input, expect)| {
                    let opts = CallOpts {
                        expect,
                        policy: None,
                    };
                    svc.call_with(input, opts)
                        .unwrap()
                        .wait()
                        .map(|r| r.records)
                })
                .collect();
            let stray = svc.metrics().get("serve/stray");
            drop(held);
            svc.shutdown();
            (got, stray)
        }
    });
    let (got, stray) = got.map_err(TestCaseError::Fail)?;
    for ((input, own), got) in want.iter().zip(got) {
        let got = got.map_err(|e| TestCaseError::Fail(format!("{input:?}: {e}")))?;
        prop_assert!(
            own.admits(&got),
            "{:?}\n  want: {:?}\n   got: {:?}",
            input,
            own.records,
            got
        );
    }
    prop_assert_eq!(stray, 0, "records beyond the oracle's count");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Runtime ≡ oracle per request through the serve door, on a pool
    /// whose only worker is held: every task runs on the caller that
    /// waits for it.
    #[test]
    fn served_calls_match_the_oracle_when_callers_always_help(case in Cases::default()) {
        check_served(&case)?;
    }
}

/// A star behind a box: `inc`'s `{x}` output enters neither the star's
/// exit pass-through `{<z>}` nor its loop `{x, <k>, <n>}` outright, so
/// the net's input type must offer both. `Net::send` admits the records
/// that enter the loop, and the net outputs what the oracle says.
#[test]
fn a_star_behind_a_box_admits_the_records_that_enter_its_loop() {
    let src = format!("{BOXES}\nnet main = inc .. (fork .. step) * {{<z>}};");
    let inputs: Vec<Record> = (0..12i64)
        .map(|i| {
            let r = Record::build().field("x", i).tag("k", i % 3);
            r.tag("n", i % 3).finish()
        })
        .collect();
    let want = oracle::run(&reference_plan(&src, false, None), inputs.clone()).unwrap();
    assert!(want.ordered && want.records.len() > inputs.len());
    for (name, exec) in pools() {
        let b = NetBuilder::from_source(&src).unwrap();
        let b = bindings().into_iter().fold(b, |b, (n, f)| b.bind(n, f));
        let net = b.executor(exec).build("main").unwrap();
        for rec in &inputs {
            net.send(rec.clone()).unwrap();
        }
        assert_eq!(net.finish(), want.records, "{name}");
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
