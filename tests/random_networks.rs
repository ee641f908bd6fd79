//! Randomised network topology stress test: build arbitrary
//! well-typed combinator trees over identity components, push random
//! record streams through, and check conservation — every record
//! comes out exactly once, payloads intact, no deadlock, no loss.
//!
//! This exercises the runtime's plumbing (dispatchers, mergers, sort
//! barriers, dynamic replicas, EOS cascades) across shapes no
//! hand-written test enumerates.

use proptest::prelude::*;
use snet_lang::{Env, NetAst};
use snet_runtime::{
    Bindings, ChaosConfig, Executor, FaultPolicy, Net, Plan, RunCfg, ThreadPerComponent,
    WorkStealingPool,
};
use snet_types::{BoxSig, Label, Record};
use std::sync::Arc;

/// A random combinator tree over the identity box `id (x, <k>) -> (x, <k>)`.
/// Star is excluded: an identity box never produces the exit pattern,
/// so a star over it would loop forever by design (the type system
/// rejects it statically, in fact — see `star_rejects_never_exiting`).
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

/// `cfg.fuse` is whether the plan is compiled fused.
fn build_full(ast: &NetAst, cfg: RunCfg, executor: Arc<dyn Executor>) -> Net {
    let mut env = Env::new();
    env.declare_box(
        "id",
        BoxSig::new(
            vec![Label::field("x"), Label::tag("k")],
            vec![vec![Label::field("x"), Label::tag("k")]],
        ),
    )
    .unwrap();
    let bindings = Bindings::new().bind("id", |rec: &Record, em: &mut snet_runtime::Emitter| {
        em.emit(rec.clone());
    });
    let plan: Plan =
        snet_runtime::compile_cfg(ast, &env, &bindings, cfg.fuse).expect("random net compiles");
    Net::spawn(plan, Vec::new(), executor, cfg)
}

/// On threads under the environment's configuration with `bound`.
fn build_bound(ast: &NetAst, bound: Option<usize>) -> Net {
    let cfg = RunCfg {
        bound,
        ..RunCfg::from_env()
    };
    build_full(ast, cfg, Arc::new(ThreadPerComponent))
}

/// On unbounded edges: what the bounded runs are compared against.
fn build(ast: &NetAst) -> Net {
    build_bound(ast, None)
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn records_are_conserved_through_any_topology(
        ast in arb_net(),
        xs in proptest::collection::vec((0i64..1_000_000, 0i64..5), 0..40),
    ) {
        let net = build(&ast);
        for (x, k) in &xs {
            net.send(Record::build().field("x", *x).tag("k", *k).finish())
                .unwrap();
        }
        let out = net.finish();
        prop_assert_eq!(out.len(), xs.len(), "record count changed in {:?}", ast);
        // Multiset of payloads preserved.
        let mut got: Vec<(i64, i64)> = out
            .iter()
            .map(|r| {
                (
                    r.field("x").unwrap().as_int().unwrap(),
                    r.tag("k").unwrap(),
                )
            })
            .collect();
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
        // A nested det-only tree: ((id ! <k>) | (id ! <k>)) | ... deep.
        let mut ast = NetAst::split_det(NetAst::boxref("id"), "k");
        for _ in 0..depth {
            ast = NetAst::parallel_det(
                ast.clone(),
                NetAst::split_det(NetAst::boxref("id"), "k"),
            );
        }
        let net = build(&ast);
        for (x, k) in &xs {
            net.send(Record::build().field("x", *x).tag("k", *k).finish())
                .unwrap();
        }
        let out = net.finish();
        let got: Vec<i64> = out
            .iter()
            .map(|r| r.field("x").unwrap().as_int().unwrap())
            .collect();
        let want: Vec<i64> = xs.iter().map(|(x, _)| *x).collect();
        prop_assert_eq!(got, want);
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
        let mut bounded = drive(
            build_bound(&ast, Some(bound)),
            &xs,
        );
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
        let mut ast = NetAst::split_det(NetAst::boxref("id"), "k");
        for _ in 0..depth {
            ast = NetAst::parallel_det(
                ast.clone(),
                NetAst::split_det(NetAst::boxref("id"), "k"),
            );
        }
        let got = drive(
            build_bound(&ast, Some(bound)),
            &xs,
        );
        prop_assert_eq!(got, xs);
    }
}

// ---------------------------------------------------------------------------
// Chaos soak: seeded fault injection over random topologies.
// ---------------------------------------------------------------------------

/// Runs `f` on a helper thread and panics if it takes longer than
/// `secs` — turns a would-be hang into a test failure. The helper
/// thread is leaked on timeout, which is acceptable in a test binary.
fn with_watchdog<T: Send + 'static>(secs: u64, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    rx.recv_timeout(std::time::Duration::from_secs(secs))
        .expect("chaos soak run hung (watchdog fired)")
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
    chaos: Option<ChaosConfig>,
    fuse: bool,
    executor: Arc<dyn Executor>,
    xs: &[(i64, i64)],
) -> SoakOutcome {
    let cfg = RunCfg {
        bound: None,
        fuse,
        fault_policy: FaultPolicy::SkipRecord,
        chaos,
        ..RunCfg::default()
    };
    let net = build_full(ast, cfg, executor);
    let metrics = Arc::clone(net.metrics());
    let mut out = drive(net, xs);
    out.sort();
    SoakOutcome {
        out,
        injected: metrics.get("runtime/chaos_injected"),
        skipped: metrics.sum_matching("records_skipped"),
        panics: metrics.get("runtime/component_panics"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The chaos soak (see `fault` module docs): a seeded injector
    /// panics boxes at random inside arbitrary topologies under the
    /// `SkipRecord` policy, across {thread-per-component, pool(2)} ×
    /// {fused, unfused}. The net must never hang, every record must
    /// either come out intact or be accounted for by exactly one
    /// skip, and all four configurations must agree — the decision
    /// stream is keyed by (stage path, record index), both of which
    /// are invariant under executor choice and fusion. With chaos off
    /// the run is indistinguishable from an unguarded one.
    #[test]
    fn chaos_soak_contains_faults_identically_across_configs(
        ast in arb_net(),
        xs in proptest::collection::vec((0i64..1_000_000, 0i64..5), 0..30),
    ) {
        // CI pins SNET_CHAOS_SEED for reproducible logs; default is a
        // fixed constant so local runs are deterministic too.
        let seed: u64 = std::env::var("SNET_CHAOS_SEED")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(0xC0FFEE);
        let chaos = ChaosConfig::new(seed, 0.05);

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
            let chaos2 = chaos.clone();
            let outcome = with_watchdog(60, move || {
                soak_run(&ast2, Some(chaos2), fuse, executor, &xs2)
            });
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
        let clean = with_watchdog(60, move || {
            soak_run(&ast2, None, true, Arc::new(ThreadPerComponent), &xs2)
        });
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
