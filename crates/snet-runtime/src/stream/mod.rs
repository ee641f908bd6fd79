//! Streams and messages.
//!
//! Boxes are "connected to the rest of the network by two typed
//! streams" (paper, Section 4). A stream here is a native channel of
//! [`Msg`]s — see [`chan`] for the transport: lock-free segmented
//! chunks, an SPSC fast path on every single-producer edge (which is
//! every data edge), and **coalesced wakeups**. A raw stream is
//! unbounded; a network's data edges are **bounded**
//! ([`crate::RunCfg::bound`], `NetBuilder::bound` / `unbounded`) with
//! credit-based backpressure, turning producer/consumer rate mismatches
//! into producer parking instead of unbounded queue growth. The bound
//! is selective by design: deterministic merging drains branches in a
//! fixed order, and gating a branch that is not currently being
//! drained would deadlock the dispatcher — the original S-Net runtime
//! kept *everything* unbounded for exactly that reason. Here, sort
//! records and every merger-drained edge stay exempt ([`feed_batch`],
//! [`chan::Receiver::exempt`]), which recovers the same freedom while
//! bounding the data plane; the no-deadlock argument lives in
//! [`crate::sched`].
//!
//! Besides data records the streams carry **sort records** — the
//! classic S-Net implementation device for the deterministic
//! combinator variants (`|`, `*`, `!`). A deterministic dispatcher
//! broadcasts `Sort { level, counter }` to *all* branches after every
//! data record it routes; the matching merger uses them to partition
//! branch streams into rounds and re-establish input order on output.
//! Every component forwards sort records transparently (behind any data
//! they follow), so ordering survives arbitrary nesting of combinators.
//! End-of-stream is represented by channel disconnection.
//!
//! # Batched delivery
//!
//! Delivery is batched at both ends:
//!
//! * **Senders wake lazily.** A send is a slot publish plus one atomic
//!   load of the consumer's park state; the waker fires only on the
//!   transition into a *parked* consumer (the robust rendering of
//!   "wake on empty→non-empty": with multiple producers completing
//!   slots out of claim order, queue-emptiness edges are ill-defined,
//!   but "the consumer observed empty and went to sleep" is exact).
//!   A running consumer is never woken — it finds the messages itself.
//! * **Consumers drain batches.** Component loops await
//!   [`chan::Receiver::recv_each`], which delivers up to
//!   [`RECV_BATCH`] queued messages per wake instead of paying one
//!   waker round-trip per record. The batch size equals the cap of
//!   the pool's per-poll budget, so a batch is at most one fair
//!   timeslice (less where messages are expensive: the budget is a
//!   measured time slice, see [`crate::sched`]); a component that
//!   spends its budget is rescheduled behind its worker's siblings
//!   before it may drain more.
//!
//! Per-stream FIFO order and the components' fixed drain order are
//! untouched by batching — a batch is just a prefix of the stream —
//! so sort-record determinism is preserved verbatim. The no-lost-wake
//! argument (a parked consumer always has a wake in flight or nothing
//! to read) lives with the protocol in [`chan`]; the system-level
//! no-deadlock argument under coalesced wakeups is in [`crate::sched`].
//!
//! # Yield-on-empty-input
//!
//! Component bodies never call the blocking `recv()`; they await
//! batches (the stage runs), one message at a time (the dispatchers,
//! stampers and guards, whose every forward passes the credit gate)
//! or, for multi-input components, [`SelectReady`].
//! Under the default [`crate::sched::WorkStealingPool`] executor the
//! await *yields the worker*: the component's state machine suspends,
//! the stream registers the task's waker, and the send path
//! reschedules the component when data (or end-of-stream) arrives.
//! This is what lets thousands of dynamically unfolded components
//! share one OS thread per core. Under
//! [`crate::sched::ThreadPerComponent`] the await parks the
//! component's dedicated OS thread — the seed's behaviour, bit for
//! bit.
//! Senders on unbounded edges never wait; on bounded edges a *data*
//! producer may additionally park awaiting credit — but every edge a
//! merger drains from is exempt from bounding, so the deterministic
//! merger's fixed drain order cannot be gated by a parked upstream;
//! the full argument lives in the [`crate::sched`] module docs.

pub mod chan;

pub use chan::{poll_budget, set_poll_budget, RECV_BATCH};

use snet_types::Record;
use std::future::Future;
use std::pin::Pin;
use std::sync::Arc;
use std::task::{Context, Poll};

/// A message travelling on a stream.
// Records carry their values inline (the PR 4 allocation-free record
// representation), so the data variant is a couple of hundred bytes
// moved by memcpy. Boxing it to shrink the enum would reintroduce the
// very per-record heap allocation the representation removed.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug, PartialEq)]
pub enum Msg {
    /// A data record.
    Rec(Record),
    /// A sort record of a deterministic combinator at nesting depth
    /// `level`; `counter` is the input-record index within that scope.
    Sort { level: u32, counter: u64 },
}

/// Stream endpoints (unbounded by default; see module docs).
pub type Sender = chan::Sender<Msg>;
pub type Receiver = chan::Receiver<Msg>;

/// Creates a new (unbounded) stream.
pub fn stream() -> (Sender, Receiver) {
    chan::channel()
}

/// Creates a stream with a capacity bound on its data plane: records
/// route through the credit-gated `feed` paths, sort records through
/// the exempt `send` path (see module docs and [`chan`]).
pub fn stream_bounded(cap: usize, stats: Option<chan::EdgeStats>) -> (Sender, Receiver) {
    chan::channel_cfg(cap, stats)
}

/// Publishes a mixed record/sort buffer to `tx`, draining `buf`:
/// records go through the credit gate (awaiting capacity on a bounded
/// edge), sort records through the ungated `send` path — the
/// det-merge exemption, so a sort broadcast never waits behind a full
/// edge. Each maximal run of records is published with one credit
/// acquisition and one producer-role lock per grant
/// ([`chan::Sender::acquire`] + [`chan::Sender::send_each_reserved`]).
/// An unbounded edge grants every acquisition at once, so the same call
/// is the unbounded batch publish: nothing here ever waits on one.
///
/// On a disconnected receiver the remainder is dropped and `Err` is
/// returned, matching the `let _ = tx.send(..)` teardown idiom of the
/// component loops.
pub async fn feed_batch(tx: &Sender, buf: &mut Vec<Msg>) -> Result<(), chan::SendError<()>> {
    // One pass, front to back: a message is moved out of its slot,
    // which is left holding a sort token (it owns nothing), and the
    // buffer is cleared once at the end — removing from the front per
    // sort or per credit grant would shift the whole remainder each time.
    const MOVED: Msg = Msg::Sort {
        level: 0,
        counter: 0,
    };
    let take = |m: &mut Msg| std::mem::replace(m, MOVED);
    let sent = async {
        let mut pos = 0;
        while pos < buf.len() {
            if matches!(buf[pos], Msg::Sort { .. }) {
                tx.send(take(&mut buf[pos]))
                    .map_err(|_| chan::SendError(()))?;
                pos += 1;
                continue;
            }
            let run = buf[pos..]
                .iter()
                .take_while(|m| matches!(m, Msg::Rec(_)))
                .count();
            let end = pos + run;
            while pos < end {
                let got = tx.acquire(end - pos).await?;
                tx.send_each_reserved(buf[pos..pos + got].iter_mut().map(take))?;
                pos += got;
            }
        }
        Ok(())
    }
    .await;
    buf.clear();
    sent
}

/// Direction of an observed record relative to the observed component.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Dir {
    In,
    Out,
}

/// A source a component can await readiness of without consuming it —
/// the readiness-notification hook multi-input components (mergers)
/// build their select loops on. `Ready` means the next `try_recv`
/// returns without blocking: a message is queued or the stream has
/// disconnected.
pub trait ReadySource: Sync {
    fn poll_source(&self, cx: &mut Context<'_>) -> Poll<()>;
}

impl<T: Send> ReadySource for chan::Receiver<T> {
    fn poll_source(&self, cx: &mut Context<'_>) -> Poll<()> {
        self.poll_ready(cx)
    }
}

/// Future resolving to the index of the first ready source, scanning
/// in rotation from `start` (callers advance `start` across awaits so
/// no source starves — the cooperative rendering of a blocking
/// multi-channel select).
///
/// Sources that report `Pending` register the awaiting task's waker;
/// a wake from a source other than the one eventually consumed is
/// spurious and simply causes a re-poll.
pub struct SelectReady<'a> {
    pub sources: Vec<&'a dyn ReadySource>,
    pub start: usize,
}

impl Future for SelectReady<'_> {
    type Output = usize;
    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<usize> {
        let n = self.sources.len();
        debug_assert!(n > 0, "SelectReady over zero sources never resolves");
        for off in 0..n {
            let i = (self.start + off) % n;
            if self.sources[i].poll_source(cx).is_ready() {
                return Poll::Ready(i);
            }
        }
        Poll::Pending
    }
}

/// Cooperative yield: resolves on its second poll after an immediate
/// self-wake. Components that consume outside the budgeted `poll_*`
/// paths (the mergers' greedy `try_recv` bursts) await this every
/// [`RECV_BATCH`] messages so a long drain cannot monopolise a pool
/// worker.
pub fn yield_now() -> YieldNow {
    YieldNow { yielded: false }
}

/// Future returned by [`yield_now`].
pub struct YieldNow {
    yielded: bool,
}

impl Future for YieldNow {
    type Output = ();
    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if self.yielded {
            Poll::Ready(())
        } else {
            self.yielded = true;
            cx.waker().wake_by_ref();
            Poll::Pending
        }
    }
}

/// A stream observer: "debugging the concurrent behaviour becomes
/// rather straightforward as all streams can be observed individually"
/// (paper, Section 1). Observers are called synchronously from the
/// component thread with the component's path, the direction, and the
/// record. The path `&str` borrows the component's interned
/// [`crate::path::CompPath`] rendering — handing it to an observer
/// allocates nothing.
pub type Observer = Arc<dyn Fn(&str, Dir, &Record) + Send + Sync>;

#[cfg(test)]
mod tests {
    use super::*;
    use snet_types::Record;

    #[test]
    fn stream_carries_records_and_sorts() {
        let (tx, rx) = stream();
        tx.send(Msg::Rec(Record::build().tag("k", 1).finish()))
            .unwrap();
        tx.send(Msg::Sort {
            level: 0,
            counter: 7,
        })
        .unwrap();
        drop(tx);
        assert!(matches!(rx.recv().unwrap(), Msg::Rec(_)));
        assert_eq!(
            rx.recv().unwrap(),
            Msg::Sort {
                level: 0,
                counter: 7
            }
        );
        // Disconnection is end-of-stream.
        assert!(rx.recv().is_err());
    }

    #[test]
    fn feed_batch_walks_a_sort_dense_buffer_through_a_one_credit_edge() {
        // The worst case for a publish that removes from the front:
        // every record is its own run, every run is its own credit wait.
        const N: u64 = 4096;
        let (tx, rx) = stream_bounded(1, None);
        let consumer = std::thread::spawn(move || rx.iter().collect::<Vec<Msg>>());
        let rec = |i: u64| Msg::Rec(Record::build().tag("i", i as i64).finish());
        let sort = |i: u64| Msg::Sort {
            level: 0,
            counter: i,
        };
        let mut buf: Vec<Msg> = (0..N).flat_map(|i| [rec(i), sort(i)]).collect();
        crate::sched::block_on(Box::pin(async move {
            feed_batch(&tx, &mut buf).await.expect("consumer alive");
            assert!(buf.is_empty());
        }));
        let got = consumer.join().unwrap();
        let want: Vec<Msg> = (0..N).flat_map(|i| [rec(i), sort(i)]).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn yield_now_self_wakes_once() {
        struct CountWake(std::sync::atomic::AtomicUsize);
        impl std::task::Wake for CountWake {
            fn wake(self: Arc<Self>) {
                self.0.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            }
        }
        let inner = Arc::new(CountWake(std::sync::atomic::AtomicUsize::new(0)));
        let waker = std::task::Waker::from(Arc::clone(&inner));
        let mut cx = Context::from_waker(&waker);
        let mut y = yield_now();
        assert_eq!(Pin::new(&mut y).poll(&mut cx), Poll::Pending);
        assert_eq!(inner.0.load(std::sync::atomic::Ordering::SeqCst), 1);
        assert_eq!(Pin::new(&mut y).poll(&mut cx), Poll::Ready(()));
    }
}
