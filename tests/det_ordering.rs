//! Property tests for the deterministic combinator variants.
//!
//! The defining property of `|`, `*`, `!` (paper, Section 4): output
//! order is a *function of input order*, independent of scheduling.
//! The sequential reference (`snet_runtime::oracle`) states it — the
//! outputs of record 1 (in emission order), then record 2's, and so on
//! — and these properties check it over random streams. The
//! non-deterministic variants only guarantee multiset equality, which
//! is checked alongside.

use proptest::prelude::*;
use snet_lang::{parse_net_expr, parse_program};
use snet_runtime::{oracle, Bindings, Emitter, Net, NetBuilder};
use snet_types::Record;

/// An input: value, copy count (emission fan-out), routing lane.
#[derive(Clone, Debug)]
struct In {
    x: i64,
    copies: i64,
    lane: i64,
}

fn arb_inputs() -> impl Strategy<Value = Vec<In>> {
    proptest::collection::vec(
        (0i64..1000, 0i64..4, 0i64..4).prop_map(|(x, copies, lane)| In { x, copies, lane }),
        0..24,
    )
}

const SRC: &str = "box rep (x, <c>) -> (y);";

/// `rep (x, <c>) -> (y)`: emits `x*10 + i` for `i in 0..c` — a
/// deterministic multi-output box.
fn rep(rec: &Record, em: &mut Emitter) {
    let x = rec.field("x").unwrap().as_int().unwrap();
    for i in 0..rec.tag("c").unwrap() {
        em.emit(Record::build().field("y", x * 10 + i).finish());
    }
}

fn build(expr: &str) -> Net {
    NetBuilder::from_source(SRC)
        .unwrap()
        .bind("rep", rep)
        .build_expr(expr)
        .unwrap()
}

fn records(inputs: &[In]) -> Vec<Record> {
    inputs
        .iter()
        .map(|r| {
            Record::build()
                .field("x", r.x)
                .tag("c", r.copies)
                .tag("k", r.lane)
                .finish()
        })
        .collect()
}

fn ys(out: &[Record]) -> Vec<i64> {
    out.iter()
        .map(|r| r.field("y").unwrap().as_int().unwrap())
        .collect()
}

fn drive(net: Net, inputs: &[In]) -> Vec<Record> {
    for r in records(inputs) {
        net.send(r).unwrap();
    }
    net.finish()
}

/// What `expr` must output on `inputs`: the sequential reference.
fn expected(expr: &str, inputs: &[In]) -> oracle::Expected {
    let env = parse_program(SRC).unwrap().env().unwrap();
    let bindings = Bindings::new().bind("rep", rep);
    let plan = snet_runtime::compile_cfg(&parse_net_expr(expr).unwrap(), &env, &bindings, false);
    oracle::run(&plan.unwrap(), records(inputs)).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Deterministic parallel composition: exact input order, whichever
    /// branch each record was routed to.
    #[test]
    fn det_parallel_matches_oracle(inputs in arb_inputs()) {
        let want = expected("rep | rep", &inputs);
        prop_assert!(want.ordered);
        prop_assert_eq!(drive(build("rep | rep"), &inputs), want.records);
    }

    /// Deterministic indexed replication: exact input order across
    /// dynamically created replicas.
    #[test]
    fn det_split_matches_oracle(inputs in arb_inputs()) {
        let want = expected("rep ! <k>", &inputs);
        prop_assert_eq!(drive(build("rep ! <k>"), &inputs), want.records);
    }

    /// Nested: a det split inside a det parallel still reproduces
    /// global input order end-to-end.
    #[test]
    fn nested_det_matches_oracle(inputs in arb_inputs()) {
        let expr = "(rep ! <k>) | (rep ! <k>)";
        prop_assert_eq!(drive(build(expr), &inputs), expected(expr, &inputs).records);
    }

    /// Non-deterministic variants: same multiset, any order; per-lane
    /// order is preserved by the split.
    #[test]
    fn nondet_split_multiset_and_lane_order(inputs in arb_inputs()) {
        let out = drive(build("rep !! <k>"), &inputs);
        let want = expected("rep !! <k>", &inputs);
        prop_assert!(!want.ordered && want.admits(&out));
        // Per-lane order: rep consumes x and <c>, so <k> flow-inherits.
        for lane in 0..4i64 {
            let in_lane = |rs: &[Record]| {
                let rs: Vec<Record> = rs.iter().filter(|r| r.tag("k") == Some(lane)).cloned().collect();
                ys(&rs)
            };
            prop_assert_eq!(in_lane(&out), in_lane(&want.records), "lane {} order violated", lane);
        }
    }
}

// Deterministic star: countdown chains of random depth; output must
// follow input order exactly even though deep records take much
// longer to emerge.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn det_star_matches_input_order(depths in proptest::collection::vec(1i64..24, 1..12)) {
        let src = "box dec (n) -> (n) | (n, <z>);";
        fn dec(rec: &Record, em: &mut Emitter) {
            let n = rec.field("n").unwrap().as_int().unwrap();
            let out = Record::build().field("n", (n - 1).max(0));
            em.emit(if n <= 1 { out.tag("z", 1) } else { out }.finish());
        }
        let inputs: Vec<Record> = depths
            .iter()
            .enumerate()
            .map(|(id, d)| Record::build().field("n", *d).tag("id", id as i64).finish())
            .collect();
        let env = parse_program(src).unwrap().env().unwrap();
        let plan = snet_runtime::compile_cfg(
            &parse_net_expr("dec * {<z>}").unwrap(),
            &env,
            &Bindings::new().bind("dec", dec),
            false,
        );
        let want = oracle::run(&plan.unwrap(), inputs.clone()).unwrap();
        let net = NetBuilder::from_source(src).unwrap().bind("dec", dec).build_expr("dec * {<z>}");
        let net = net.unwrap();
        for rec in inputs {
            net.send(rec).unwrap();
        }
        let out = net.finish();
        let ids: Vec<i64> = out.iter().map(|r| r.tag("id").unwrap()).collect();
        prop_assert_eq!(ids, (0..depths.len() as i64).collect::<Vec<_>>());
        prop_assert_eq!(out, want.records);
    }
}
