//! Stream merging — the output side of `||`/`|`, `!!`/`!` and `**`/`*`.
//!
//! "The parallel combinator as well as the serial and parallel
//! replicators merge the output streams of the subnetworks
//! non-deterministically, i.e., any record produced proceeds as soon
//! as possible. ... In case the order of the records in a stream is
//! essential ... S-Net provides deterministic versions of all (but the
//! serial) combinators" (paper, Section 4).
//!
//! Both flavours are built on **sort records** (the implementation
//! technique of the original S-Net runtime): a deterministic dispatcher
//! broadcasts `Sort { level, counter }` to *all* branches after routing
//! each data record, so each branch's stream is partitioned into
//! *rounds* — round `c` holds exactly the outputs caused by input
//! record `c` (only the branch that received the record has any).
//!
//! * [`MergeMode::Det`] drains branches **in join order, round by
//!   round**: all of round 0, then round 1, ... Output order therefore
//!   equals input order regardless of which branch was faster.
//! * [`MergeMode::NonDet`] forwards data as it becomes available, but
//!   still treats sort records of *enclosing* deterministic scopes as
//!   barriers: once a branch delivers such a sort, no further data is
//!   read from it until every branch has reached the same sort, which
//!   is then forwarded exactly once. This is what lets a
//!   non-deterministic subnetwork live inside a deterministic scope
//!   without breaking the outer ordering guarantee.
//!
//! Branches may join dynamically (replicators unfold on demand). A
//! joining branch carries a *watermark* — the number of sorts per level
//! already broadcast before it joined — so the merger knows which sorts
//! the branch will never deliver and does not wait for them.
//!
//! Sort records are a native [`Msg`] variant, so detecting one is an
//! enum-discriminant test, and *record* comparisons (the det-output
//! byte-identity checks this module's guarantees are verified by)
//! short-circuit on the interned shape id before touching any value —
//! no per-record label probing anywhere on the merge path.
//!
//! # Bounded edges: branch inputs are exempt
//!
//! When the network runs with bounded data edges (see
//! [`crate::stream`]), every stream a merger drains from is **exempted
//! from its bound** at the moment it becomes a branch
//! ([`Branch::from_spec`]). The merger consumes branches in an order
//! its producers cannot observe — fixed rounds in det mode, sort
//! barriers in non-det mode — so a credit-gated producer on a branch
//! the merger is *not* currently draining could park forever: producer
//! waits for credit, merger waits for the round's sort from that very
//! producer. Exemption removes the wait-for edge and restores the
//! unbounded-drain guarantee the round protocol's termination argument
//! assumes; queue growth on branch edges stays bounded *upstream*
//! instead, because the dispatcher that feeds every branch sends data
//! through its own bounded edge. The merger's *output* stays gated
//! (data goes through the credit-aware `feed` path; resolved sorts use
//! the ungated `send`). The system-wide no-deadlock argument is in
//! [`crate::sched`].

use crate::ctx::Ctx;
use crate::path::CompPath;
use crate::stream::chan::{self, TryRecvError};
use crate::stream::{yield_now, Msg, ReadySource, Receiver, SelectReady, Sender, RECV_BATCH};
use std::collections::HashMap;
use std::sync::Arc;

/// Sorts-per-level already broadcast when a branch joins: the branch
/// will only ever deliver `Sort { level, counter }` with
/// `counter >= watermark[level]`.
pub type Watermark = HashMap<u32, u64>;

/// A branch handed to the merger, either at construction or later via
/// the control channel.
pub struct BranchSpec {
    pub rx: Receiver,
    pub watermark: Watermark,
}

impl BranchSpec {
    pub fn new(rx: Receiver) -> BranchSpec {
        BranchSpec {
            rx,
            watermark: Watermark::new(),
        }
    }
}

/// Merge flavour.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MergeMode {
    /// Forward-as-available; enclosing-scope sorts act as barriers.
    NonDet,
    /// Round-ordered merging for the deterministic combinators; sorts
    /// of `level` are consumed here, outer sorts are forwarded.
    Det { level: u32 },
}

struct Branch {
    rx: Receiver,
    watermark: Watermark,
    /// A delivered sort this branch is parked on (non-det mode).
    blocked: Option<(u32, u64)>,
    done: bool,
}

impl Branch {
    /// Adopts a spec as a live branch, lifting any capacity bound from
    /// the branch stream first: merger-drained edges must never gate
    /// their producer (see module docs, *branch inputs are exempt*).
    fn from_spec(spec: BranchSpec) -> Branch {
        spec.rx.exempt();
        Branch {
            rx: spec.rx,
            watermark: spec.watermark,
            blocked: None,
            done: false,
        }
    }

    fn exempt(&self, level: u32, counter: u64) -> bool {
        counter < self.watermark.get(&level).copied().unwrap_or(0)
    }
}

/// Spawns a merger over an initial set of branches plus a control
/// channel for late joiners, writing merged output to `out`.
///
/// The merger terminates (dropping `out`) when every branch has
/// disconnected and the control channel is closed.
pub fn spawn_merge(
    ctx: &Arc<Ctx>,
    path: impl Into<CompPath>,
    mode: MergeMode,
    initial: Vec<BranchSpec>,
    control: chan::Receiver<BranchSpec>,
    out: Sender,
) {
    let path = path.into().child("merge");
    ctx.spawn(path.as_str(), async move {
        match mode {
            MergeMode::NonDet => run_nondet(initial, control, out).await,
            MergeMode::Det { level } => run_det(level, initial, control, out).await,
        }
    });
}

// ---------------------------------------------------------------------------
// Non-deterministic merge
// ---------------------------------------------------------------------------

async fn run_nondet(initial: Vec<BranchSpec>, control: chan::Receiver<BranchSpec>, out: Sender) {
    let mut branches: Vec<Branch> = initial.into_iter().map(Branch::from_spec).collect();
    let mut control_open = true;
    // Sorts already forwarded, per level (counters are contiguous and
    // increasing at any point of the network, so a high-water mark is
    // an exact dedup).
    let mut forwarded: HashMap<u32, u64> = HashMap::new();
    // Rotating scan start so no source starves across awaits.
    let mut rotate: usize = 0;

    loop {
        // Fold in any late joiners *before* resolving barriers: a
        // branch registered by the dispatcher before it broadcast a
        // sort is guaranteed to be visible here by the time every
        // older branch has delivered that sort, and resolving without
        // it could emit the sort ahead of the newcomer's data.
        while control_open {
            match control.try_recv() {
                Ok(spec) => branches.push(Branch::from_spec(spec)),
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => {
                    control_open = false;
                }
            }
        }
        // Resolve any barrier that has become satisfiable.
        resolve_barriers(&mut branches, &mut forwarded, &out);

        if !control_open && branches.iter().all(|b| b.done) {
            return; // dropping `out` = EOS
        }

        // Await readiness of the control channel and all readable
        // branches. A branch whose watermark says sorts up to w[L]
        // were broadcast before it joined carries data from *after*
        // those sorts; it must stay parked until the merge has
        // forwarded them all, or its data would leak ahead of the
        // barrier.
        let mut sel_branches: Vec<usize> = Vec::new();
        for (i, b) in branches.iter().enumerate() {
            let parked_behind_watermark = b
                .watermark
                .iter()
                .any(|(l, w)| forwarded.get(l).copied().unwrap_or(0) < *w);
            if !b.done && b.blocked.is_none() && !parked_behind_watermark {
                sel_branches.push(i);
            }
        }
        if !control_open && sel_branches.is_empty() {
            // All remaining branches are blocked on a sort that cannot
            // resolve — impossible by construction (the dispatcher
            // broadcasts sorts to every branch); treat as a bug.
            unreachable!("non-det merge deadlocked on unresolvable sort barrier");
        }

        let chosen = {
            let mut sources: Vec<&dyn ReadySource> = Vec::new();
            if control_open {
                sources.push(&control);
            }
            for &i in &sel_branches {
                sources.push(&branches[i].rx);
            }
            let start = rotate % sources.len();
            SelectReady { sources, start }.await
        };
        rotate = chosen + 1;
        if control_open && chosen == 0 {
            match control.try_recv() {
                Ok(spec) => branches.push(Branch::from_spec(spec)),
                Err(TryRecvError::Disconnected) => control_open = false,
                // Readiness raced with the top-of-loop joiner fold;
                // nothing to consume this round.
                Err(TryRecvError::Empty) => {}
            }
            continue;
        }
        // Map the select index back to the branch, then drain a
        // bounded burst from it: one select round-trip amortises over
        // up to RECV_BATCH queued messages (batched delivery) while
        // per-branch FIFO keeps the output order the same as a
        // one-message loop. The burst ends at a sort (the branch
        // parks), at EOS, on empty, or at the batch bound — with a
        // cooperative yield there so a deep backlog cannot monopolise
        // a pool worker.
        let bi = sel_branches[chosen - usize::from(control_open)];
        let mut burst = 0;
        loop {
            match branches[bi].rx.try_recv() {
                Ok(Msg::Rec(rec)) => {
                    // Awaiting credit here is safe: the merger never
                    // holds up a producer by parking (its branch
                    // inputs are exempt), so this wait only chains
                    // downstream.
                    let _ = out.feed(Msg::Rec(rec)).await;
                    burst += 1;
                    if burst >= RECV_BATCH {
                        yield_now().await;
                        break;
                    }
                }
                Ok(Msg::Sort { level, counter }) => {
                    // Park the branch until the barrier resolves.
                    branches[bi].blocked = Some((level, counter));
                    break;
                }
                Err(TryRecvError::Disconnected) => {
                    branches[bi].done = true;
                    break;
                }
                // Empty after the first message is just the burst
                // running dry; empty on the first is a spurious wake.
                Err(TryRecvError::Empty) => break,
            }
        }
    }
}

/// Forwards every sort on which all branches agree (each branch is
/// done, parked on it, or exempt), unparking the parked branches.
/// Loops until no further sort resolves.
fn resolve_barriers(branches: &mut [Branch], forwarded: &mut HashMap<u32, u64>, out: &Sender) {
    loop {
        // Candidate sorts: the distinct values branches are parked on.
        let mut candidates: Vec<(u32, u64)> = Vec::new();
        for b in branches.iter() {
            if let Some(s) = b.blocked {
                if !candidates.contains(&s) {
                    candidates.push(s);
                }
            }
        }
        let mut resolved_any = false;
        for (level, counter) in candidates {
            let ok = branches
                .iter()
                .all(|b| b.done || b.blocked == Some((level, counter)) || b.exempt(level, counter));
            if ok {
                let hwm = forwarded.entry(level).or_insert(0);
                if counter >= *hwm {
                    let _ = out.send(Msg::Sort { level, counter });
                    *hwm = counter + 1;
                }
                for b in branches.iter_mut() {
                    if b.blocked == Some((level, counter)) {
                        b.blocked = None;
                    }
                }
                resolved_any = true;
            }
        }
        if !resolved_any {
            return;
        }
    }
}

// ---------------------------------------------------------------------------
// Deterministic merge
// ---------------------------------------------------------------------------

async fn run_det(
    level: u32,
    initial: Vec<BranchSpec>,
    control: chan::Receiver<BranchSpec>,
    out: Sender,
) {
    let mut branches: Vec<Branch> = initial.into_iter().map(Branch::from_spec).collect();
    let mut control_open = true;
    let mut forwarded_outer: HashMap<u32, u64> = HashMap::new();
    let mut round: u64 = 0;

    loop {
        // The round counter must not advance while there is nothing to
        // drain — a branch joining later would then see its sorts
        // treated as stale. Block on the control channel instead.
        if branches.iter().all(|b| b.done) {
            if !control_open {
                return;
            }
            match control.recv_async().await {
                Ok(spec) => branches.push(Branch::from_spec(spec)),
                Err(_) => return,
            }
            continue;
        }

        // Round `round`: drain each branch, in join order, up to its
        // own-level sort for this round.
        let mut i = 0;
        while i < branches.len() {
            drain_branch_round(level, round, &mut branches[i], &mut forwarded_outer, &out).await;
            i += 1;
            // Late joiners must be folded into the current round: a
            // branch registered before the round's sort was broadcast
            // may hold this round's data. Its registration message is
            // guaranteed to be visible here because the control send
            // happens-before the sort broadcast we just consumed.
            if i == branches.len() && control_open {
                loop {
                    match control.try_recv() {
                        Ok(spec) => branches.push(Branch::from_spec(spec)),
                        Err(TryRecvError::Empty) => break,
                        Err(TryRecvError::Disconnected) => {
                            control_open = false;
                            break;
                        }
                    }
                }
            }
        }
        round += 1;
    }
}

/// Drains one branch up to (and including) its own-level sort for
/// `round`. Data records are forwarded; outer sorts are forwarded once
/// (first encounter wins — every branch carries them in identical
/// positions).
///
/// Queued messages are taken greedily through `try_recv` (no future
/// per message), falling back to an await only when the branch runs
/// dry mid-round; a cooperative yield every [`RECV_BATCH`] messages
/// keeps a deep round from monopolising a pool worker. The message
/// *order* consumed is identical to a plain `recv_async` loop, so the
/// round protocol is unchanged.
async fn drain_branch_round(
    level: u32,
    round: u64,
    b: &mut Branch,
    forwarded_outer: &mut HashMap<u32, u64>,
    out: &Sender,
) {
    if b.done || b.exempt(level, round) {
        return;
    }
    let mut since_yield = 0;
    loop {
        let msg = match b.rx.try_recv() {
            Ok(m) => Ok(m),
            Err(TryRecvError::Empty) => b.rx.recv_async().await,
            Err(TryRecvError::Disconnected) => Err(chan::RecvError),
        };
        since_yield += 1;
        if since_yield >= RECV_BATCH {
            yield_now().await;
            since_yield = 0;
        }
        match msg {
            Ok(Msg::Rec(rec)) => {
                // Safe to wait: branch inputs are exempt, so this
                // merger parks no producer while it parks here.
                let _ = out.feed(Msg::Rec(rec)).await;
            }
            Ok(Msg::Sort { level: l, counter }) => {
                if l == level {
                    debug_assert!(
                        counter >= round,
                        "deterministic merge saw stale sort {counter} in round {round}"
                    );
                    // Own sort: consumed, ends this branch's round.
                    // (counter > round cannot happen: exemption skips
                    // rounds the branch never sees, and sorts are
                    // broadcast to every live branch.)
                    return;
                } else if l < level {
                    // Outer sort: forward exactly once.
                    let hwm = forwarded_outer.entry(l).or_insert(0);
                    if counter >= *hwm {
                        let _ = out.send(Msg::Sort { level: l, counter });
                        *hwm = counter + 1;
                    }
                } else {
                    // Inner sorts are consumed by their own mergers and
                    // cannot escape; seeing one is a wiring bug.
                    debug_assert!(false, "sort of inner level {l} escaped to level {level}");
                }
            }
            Err(_) => {
                b.done = true;
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instantiate::test_ctx;
    use crate::stream::stream;
    use snet_types::Record;

    fn rec(v: i64) -> Msg {
        Msg::Rec(Record::build().tag("v", v).finish())
    }

    fn val(m: &Msg) -> i64 {
        match m {
            Msg::Rec(r) => r.tag("v").unwrap(),
            other => panic!("expected record, got {other:?}"),
        }
    }

    fn closed_control() -> chan::Receiver<BranchSpec> {
        let (tx, rx) = chan::channel();
        drop(tx);
        rx
    }

    #[test]
    fn nondet_merges_all_records() {
        let ctx = test_ctx(Vec::new());
        let (t1, r1) = stream();
        let (t2, r2) = stream();
        let (out_tx, out_rx) = stream();
        spawn_merge(
            &ctx,
            "t",
            MergeMode::NonDet,
            vec![BranchSpec::new(r1), BranchSpec::new(r2)],
            closed_control(),
            out_tx,
        );
        for i in 0..5 {
            t1.send(rec(i)).unwrap();
            t2.send(rec(100 + i)).unwrap();
        }
        drop(t1);
        drop(t2);
        let mut got: Vec<i64> = Vec::new();
        while let Ok(m) = out_rx.recv() {
            got.push(val(&m));
        }
        ctx.join_all();
        assert_eq!(got.len(), 10);
        got.sort();
        assert_eq!(got, vec![0, 1, 2, 3, 4, 100, 101, 102, 103, 104]);
    }

    #[test]
    fn nondet_preserves_per_branch_order() {
        let ctx = test_ctx(Vec::new());
        let (t1, r1) = stream();
        let (t2, r2) = stream();
        let (out_tx, out_rx) = stream();
        spawn_merge(
            &ctx,
            "t",
            MergeMode::NonDet,
            vec![BranchSpec::new(r1), BranchSpec::new(r2)],
            closed_control(),
            out_tx,
        );
        for i in 0..50 {
            t1.send(rec(i)).unwrap();
            t2.send(rec(1000 + i)).unwrap();
        }
        drop(t1);
        drop(t2);
        let mut a = Vec::new();
        let mut b = Vec::new();
        while let Ok(m) = out_rx.recv() {
            let v = val(&m);
            if v < 1000 {
                a.push(v);
            } else {
                b.push(v);
            }
        }
        ctx.join_all();
        assert_eq!(a, (0..50).collect::<Vec<_>>());
        assert_eq!(b, (1000..1050).collect::<Vec<_>>());
    }

    #[test]
    fn det_orders_rounds_by_input_order() {
        // Branch streams as a det dispatcher would produce them for
        // inputs routed 0->A, 1->B, 2->A. Branch B is slow conceptually
        // but det merge must still emit 0,1,2.
        let ctx = test_ctx(Vec::new());
        let (ta, ra) = stream();
        let (tb, rb) = stream();
        let (out_tx, out_rx) = stream();
        spawn_merge(
            &ctx,
            "t",
            MergeMode::Det { level: 0 },
            vec![BranchSpec::new(ra), BranchSpec::new(rb)],
            closed_control(),
            out_tx,
        );
        // Round 0: data in A.
        ta.send(rec(0)).unwrap();
        ta.send(Msg::Sort {
            level: 0,
            counter: 0,
        })
        .unwrap();
        tb.send(Msg::Sort {
            level: 0,
            counter: 0,
        })
        .unwrap();
        // Round 1: data in B — send B's data *after* A's round-2 data
        // to prove ordering is by round, not arrival.
        ta.send(Msg::Sort {
            level: 0,
            counter: 1,
        })
        .unwrap();
        ta.send(rec(2)).unwrap();
        ta.send(Msg::Sort {
            level: 0,
            counter: 2,
        })
        .unwrap();
        tb.send(rec(1)).unwrap();
        tb.send(Msg::Sort {
            level: 0,
            counter: 1,
        })
        .unwrap();
        tb.send(Msg::Sort {
            level: 0,
            counter: 2,
        })
        .unwrap();
        drop(ta);
        drop(tb);
        let mut got = Vec::new();
        while let Ok(m) = out_rx.recv() {
            got.push(val(&m));
        }
        ctx.join_all();
        assert_eq!(got, vec![0, 1, 2]);
    }

    #[test]
    fn det_consumes_own_sorts() {
        let ctx = test_ctx(Vec::new());
        let (ta, ra) = stream();
        let (out_tx, out_rx) = stream();
        spawn_merge(
            &ctx,
            "t",
            MergeMode::Det { level: 3 },
            vec![BranchSpec::new(ra)],
            closed_control(),
            out_tx,
        );
        ta.send(rec(7)).unwrap();
        ta.send(Msg::Sort {
            level: 3,
            counter: 0,
        })
        .unwrap();
        drop(ta);
        let msgs: Vec<Msg> = out_rx.iter().collect();
        ctx.join_all();
        assert_eq!(msgs.len(), 1);
        assert!(matches!(msgs[0], Msg::Rec(_)));
    }

    #[test]
    fn det_forwards_outer_sorts_once() {
        let ctx = test_ctx(Vec::new());
        let (ta, ra) = stream();
        let (tb, rb) = stream();
        let (out_tx, out_rx) = stream();
        spawn_merge(
            &ctx,
            "t",
            MergeMode::Det { level: 1 },
            vec![BranchSpec::new(ra), BranchSpec::new(rb)],
            closed_control(),
            out_tx,
        );
        // An outer sort (level 0) arrives at the start of round 0 in
        // both branches; it must be forwarded exactly once.
        for t in [&ta, &tb] {
            t.send(Msg::Sort {
                level: 0,
                counter: 0,
            })
            .unwrap();
            t.send(Msg::Sort {
                level: 1,
                counter: 0,
            })
            .unwrap();
        }
        ta.send(rec(1)).unwrap();
        ta.send(Msg::Sort {
            level: 1,
            counter: 1,
        })
        .unwrap();
        tb.send(Msg::Sort {
            level: 1,
            counter: 1,
        })
        .unwrap();
        drop(ta);
        drop(tb);
        let msgs: Vec<Msg> = out_rx.iter().collect();
        ctx.join_all();
        assert_eq!(
            msgs,
            vec![
                Msg::Sort {
                    level: 0,
                    counter: 0
                },
                rec(1)
            ]
        );
    }

    #[test]
    fn nondet_sort_barrier_holds_back_later_data() {
        let ctx = test_ctx(Vec::new());
        let (ta, ra) = stream();
        let (tb, rb) = stream();
        let (out_tx, out_rx) = stream();
        spawn_merge(
            &ctx,
            "t",
            MergeMode::NonDet,
            vec![BranchSpec::new(ra), BranchSpec::new(rb)],
            closed_control(),
            out_tx,
        );
        // Branch A races ahead: data, sort 0, more data. Branch B
        // lags: its pre-sort data must still precede A's post-sort data
        // in the merged stream.
        ta.send(rec(1)).unwrap();
        ta.send(Msg::Sort {
            level: 0,
            counter: 0,
        })
        .unwrap();
        ta.send(rec(2)).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(30));
        tb.send(rec(10)).unwrap();
        tb.send(Msg::Sort {
            level: 0,
            counter: 0,
        })
        .unwrap();
        drop(ta);
        drop(tb);
        let msgs: Vec<Msg> = out_rx.iter().collect();
        ctx.join_all();
        let pos = |needle: &Msg| msgs.iter().position(|m| m == needle).unwrap();
        let sort_pos = pos(&Msg::Sort {
            level: 0,
            counter: 0,
        });
        assert!(pos(&rec(1)) < sort_pos);
        assert!(
            pos(&rec(10)) < sort_pos,
            "pre-barrier data leaked: {msgs:?}"
        );
        assert!(pos(&rec(2)) > sort_pos);
    }

    #[test]
    fn dynamic_branch_join_nondet() {
        let ctx = test_ctx(Vec::new());
        let (ta, ra) = stream();
        let (ctl_tx, ctl_rx) = chan::channel::<BranchSpec>();
        let (out_tx, out_rx) = stream();
        spawn_merge(
            &ctx,
            "t",
            MergeMode::NonDet,
            vec![BranchSpec::new(ra)],
            ctl_rx,
            out_tx,
        );
        ta.send(rec(1)).unwrap();
        // Join a second branch later.
        let (tb, rb) = stream();
        ctl_tx.send(BranchSpec::new(rb)).unwrap();
        tb.send(rec(2)).unwrap();
        drop(ta);
        drop(tb);
        drop(ctl_tx);
        let mut got: Vec<i64> = out_rx.iter().map(|m| val(&m)).collect();
        ctx.join_all();
        got.sort();
        assert_eq!(got, vec![1, 2]);
    }

    #[test]
    fn dynamic_branch_with_watermark_is_exempt_from_old_sorts() {
        let ctx = test_ctx(Vec::new());
        let (ta, ra) = stream();
        let (ctl_tx, ctl_rx) = chan::channel::<BranchSpec>();
        let (out_tx, out_rx) = stream();
        spawn_merge(
            &ctx,
            "t",
            MergeMode::Det { level: 0 },
            vec![BranchSpec::new(ra)],
            ctl_rx,
            out_tx,
        );
        // Round 0 happens with only branch A.
        ta.send(rec(0)).unwrap();
        ta.send(Msg::Sort {
            level: 0,
            counter: 0,
        })
        .unwrap();
        // Branch B joins before round 1's sort is broadcast; it will
        // deliver sorts from counter 1 onward (watermark level 0 -> 1).
        let (tb, rb) = stream();
        let mut wm = Watermark::new();
        wm.insert(0, 1);
        ctl_tx
            .send(BranchSpec {
                rx: rb,
                watermark: wm,
            })
            .unwrap();
        tb.send(rec(1)).unwrap();
        tb.send(Msg::Sort {
            level: 0,
            counter: 1,
        })
        .unwrap();
        ta.send(Msg::Sort {
            level: 0,
            counter: 1,
        })
        .unwrap();
        drop(ta);
        drop(tb);
        drop(ctl_tx);
        let got: Vec<i64> = out_rx.iter().map(|m| val(&m)).collect();
        ctx.join_all();
        assert_eq!(got, vec![0, 1]);
    }

    #[test]
    fn empty_merge_terminates() {
        let ctx = test_ctx(Vec::new());
        let (out_tx, out_rx) = stream();
        spawn_merge(
            &ctx,
            "t",
            MergeMode::NonDet,
            Vec::new(),
            closed_control(),
            out_tx,
        );
        assert!(out_rx.recv().is_err());
        let (out_tx, out_rx) = stream();
        spawn_merge(
            &ctx,
            "t2",
            MergeMode::Det { level: 0 },
            Vec::new(),
            closed_control(),
            out_tx,
        );
        assert!(out_rx.recv().is_err());
        ctx.join_all();
    }
}
