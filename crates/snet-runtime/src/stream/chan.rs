//! The native stream transport: a channel over lock-free segmented
//! linked chunks, with coalesced consumer wakeups — unbounded by
//! default, optionally credit-bounded (see "Bounded edges" below).
//!
//! Until PR 3 streams rode on the vendored crossbeam shim — a
//! `Mutex<VecDeque>` plus condvar plus a waker list, which charged
//! every record two mutex round-trips on the send side (push + waker
//! drain) and one on the receive side. This module replaces that with
//! the runtime's own queue, designed around how S-Net actually uses
//! streams:
//!
//! * **Streams are point-to-point.** Exactly one component consumes a
//!   stream, so the consumer side needs no multi-consumer arbitration:
//!   the head cursor is plain data owned by the single consumer
//!   (guarded by a debug-grade `cons_busy` flag that turns misuse into
//!   a panic instead of UB).
//! * **Almost every stream has a single producer.** Every data edge —
//!   box output, dispatcher branch, guard tap, merger output — has
//!   exactly one sending component. Producers serialise through a
//!   micro spinlock whose acquisition is a single **uncontended** CAS
//!   on those edges (the SPSC fast path: no spinning, no parking, no
//!   mutex); only cloned senders (the mergers' branch-join control
//!   channels) ever contend, and those carry one message per replica
//!   unfolding, not per record.
//! * **Messages live in segmented chunks.** The queue is a linked
//!   list of fixed-size segments ([`SEG_SIZE`] slots each); a push is
//!   a slot write plus one `Release` store of the slot's ready flag, a
//!   pop is one `Acquire` load plus a move-out. Segments are recycled
//!   by the consumer as it crosses them; reclamation is trivially safe
//!   because a producer only ever holds a pointer to the tail segment,
//!   and the consumer can only exhaust a segment whose successor has
//!   already been installed (see [`Chan::pop`]).
//!
//! # Wakeup coalescing
//!
//! The send path does **not** wake the consumer per message. A single
//! atomic [`Chan::wake_state`] word tracks whether the consumer is
//! parked: senders read it after publishing (one load on the hot
//! path) and only go through the waker when it says `REGISTERED` —
//! i.e. the consumer saw an empty queue and actually went to sleep.
//! A consumer that is running, or that has queued messages, is never
//! woken: it drains batches on its own (see
//! [`Receiver::poll_recv_each`]).
//!
//! ## Why a lost wake is impossible
//!
//! The hazard: consumer observes "empty", decides to park; a message
//! arrives in between; the sender sees "not parked" and skips the
//! wake; the consumer sleeps on a non-empty queue forever. The
//! protocol closes this window with a **post-registration re-check**:
//!
//! 1. The consumer stores its waker, sets `wake_state = REGISTERED`
//!    (SeqCst), **then re-checks** the queue (and the sender count,
//!    for end-of-stream). Only if the re-check still finds nothing
//!    does it return `Pending`.
//! 2. A sender publishes its message (slot-ready store), then — after
//!    a SeqCst fence — loads `wake_state`.
//!
//! Order the two SeqCst edges however the race falls: if the sender's
//! `wake_state` load precedes the consumer's `REGISTERED` store in
//! the total order, the message publish precedes the consumer's
//! re-check, so the re-check sees the message and the consumer does
//! not park. If it follows, the sender reads `REGISTERED` and wakes.
//! There is no third interleaving, so a parked consumer always has a
//! wake in flight or no pending input. Disconnection (the last
//! [`Sender`] dropping) runs the same publish-then-check protocol, so
//! end-of-stream cannot be slept through either.
//!
//! # Cooperative poll budget
//!
//! A work-stealing worker grants each task a budget of messages per
//! poll ([`set_poll_budget`] — sized from the task's measured cost per
//! message, read back with [`poll_budget`]; see [`crate::sched`]).
//! One receive loop spends it, [`Receiver::poll_recv_each`] (which
//! `recv_each` and `recv_async` poll; `poll_ready` charges too), and
//! at zero the channel reports `Pending` with an immediate self-wake
//! so the task is rescheduled behind its siblings instead of
//! monopolising the worker. The blocking [`Receiver::recv`] is
//! uncharged.
//!
//! # Bounded edges (backpressure)
//!
//! A channel may carry a capacity ([`channel_cfg`]): a `cap` word and
//! a `depth` credit word turn producer/consumer rate mismatches into
//! producer parking instead of an unbounded memory bill. The gate is
//! **opt-in per call path**:
//!
//! * [`Sender::feed`] / [`Sender::try_feed`] / [`Sender::feed_blocking`]
//!   (and the batch pair [`Sender::acquire`] +
//!   [`Sender::send_each_reserved`]) acquire one credit per message —
//!   a CAS raising `depth` below `cap` — and park the producer when
//!   the edge is full. There is one wait: a full edge is always waited
//!   out on [`Sender::acquire`] (a task awaits it, a driver thread
//!   polls it through [`wait_on`]). Every pop returns a credit and
//!   wakes parked producers. Data records travel this way on bounded
//!   edges.
//! * The plain [`Sender::send`] path counts depth but **never
//!   waits**. Sort records and control traffic go this way: a
//!   deterministic dispatcher's sort broadcast, or a
//!   merger forwarding a sort mid-drain, must not gate on a full
//!   edge, or the fixed-order drain could deadlock (the system-level
//!   no-deadlock argument is in [`crate::sched`]). Depth may
//!   therefore transiently exceed `cap` by the in-flight ungated
//!   traffic; the bound holds exactly for gated traffic.
//!
//! Either way a send ends in one publish, `Sender::publish`: the
//! producer role, the pushes, one fence and one park-state check.
//!
//! ## Why a parked producer cannot be lost
//!
//! A producer parks in one place, `Acquire::poll`, and its protocol
//! mirrors the consumer's post-registration
//! re-check: the producer stores its waker, sets `prod_parked`
//! (SeqCst), then **re-checks** credit and receiver liveness; only if
//! both still block does it return `Pending`. The consumer decrements
//! `depth` (SeqCst RMW) on every pop of a bounded channel, then reads
//! `prod_parked`. In the SeqCst total order either the producer's
//! re-check observes the freed credit (and retries instead of
//! parking), or its `prod_parked` store precedes the consumer's read
//! (and the consumer wakes it); there is no third interleaving.
//! Receiver drop runs the same publish-then-check shape (`rx_alive`
//! store, fence, producer wake), so a producer cannot sleep through
//! disconnection either. [`Receiver::exempt`] lifts the capacity and
//! releases every parked producer — mergers exempt their branch
//! inputs at registration so the drain order never gates upstream.

use crate::metrics::Counter;
use crate::sched::{Executor, Tracker};
use parking_lot::Mutex;
use std::cell::{Cell, UnsafeCell};
use std::fmt;
use std::future::Future;
use std::mem::MaybeUninit;
use std::pin::Pin;
use std::ptr;
use std::sync::atomic::{fence, AtomicBool, AtomicPtr, AtomicU8, AtomicUsize, Ordering};
use std::sync::Arc;
use std::task::{Context, Poll, Wake, Waker};

/// Slots per segment. 32 keeps a segment (with the `Msg` payload)
/// within a few cache lines while amortising the allocation across
/// enough records that steady-state throughput never sees it.
const SEG_SIZE: usize = 32;

/// Messages a component may drain per batch — deliberately equal to
/// the cap of the pool's per-poll budget, so one batch is at most one
/// fair timeslice (see [`crate::sched`]).
pub const RECV_BATCH: usize = 128;

thread_local! {
    /// Cooperative poll budget for the current thread. `u32::MAX`
    /// means unlimited (blocking consumers, `block_on` executors).
    static POLL_BUDGET: Cell<u32> = const { Cell::new(u32::MAX) };
}

/// Sets the current thread's cooperative poll budget. Executors call
/// this around each task poll; ordinary blocking threads never need
/// to.
pub fn set_poll_budget(n: u32) {
    POLL_BUDGET.with(|b| b.set(n));
}

/// What is left of the current thread's poll budget: an executor reads
/// it after a poll to learn how many messages the poll consumed.
pub fn poll_budget() -> u32 {
    POLL_BUDGET.with(|b| b.get())
}

/// Spends one unit of budget. Returns `false` when exhausted (the
/// caller must yield).
fn charge_budget() -> bool {
    POLL_BUDGET.with(|b| {
        let v = b.get();
        if v == 0 {
            false
        } else {
            if v != u32::MAX {
                b.set(v - 1);
            }
            true
        }
    })
}

// ---------------------------------------------------------------------------
// Segments
// ---------------------------------------------------------------------------

struct Slot<T> {
    ready: AtomicBool,
    val: UnsafeCell<MaybeUninit<T>>,
}

struct Seg<T> {
    slots: [Slot<T>; SEG_SIZE],
    next: AtomicPtr<Seg<T>>,
}

impl<T> Seg<T> {
    fn alloc() -> *mut Seg<T> {
        Box::into_raw(Box::new(Seg {
            slots: std::array::from_fn(|_| Slot {
                ready: AtomicBool::new(false),
                val: UnsafeCell::new(MaybeUninit::uninit()),
            }),
            next: AtomicPtr::new(ptr::null_mut()),
        }))
    }
}

/// Producer cursor: the tail segment and the next free slot in it.
/// Accessed only while holding the producer role (the unique uncloned
/// sender, or the spinlock once cloned).
struct ProdCursor<T> {
    seg: *mut Seg<T>,
    idx: usize,
}

/// Consumer cursor: the head segment and the next unread slot.
/// Accessed only by the single consumer (enforced by `cons_busy`).
struct ConsCursor<T> {
    seg: *mut Seg<T>,
    idx: usize,
}

/// Telemetry handles for one bounded edge, registered by the edge's
/// creator under the owning component's path (see
/// [`crate::ctx::Ctx`]): high-water queue depth and producer credit
/// stalls, each mirrored into a net-global aggregate so operators get
/// one number to alarm on without enumerating edges.
pub struct EdgeStats {
    /// `{path}/stream_depth` — high-water mark of queued messages.
    pub depth: Counter,
    /// `{path}/credit_stalls` — producer park episodes awaiting credit.
    pub stalls: Counter,
    /// `runtime/stream_depth` — net-global high-water mark.
    pub depth_global: Counter,
    /// `runtime/credit_stalls` — net-global stall count.
    pub stalls_global: Counter,
}

impl EdgeStats {
    fn note_depth(&self, d: u64) {
        self.depth.max(d);
        self.depth_global.max(d);
    }

    fn note_stall(&self) {
        self.stalls.inc(1);
        self.stalls_global.inc(1);
    }
}

// Waker handshake states (see module docs).
const WAKER_IDLE: u8 = 0; // no waker registered; consumer is active
const WAKER_REGISTERING: u8 = 1; // consumer is writing the waker cell
const WAKER_REGISTERED: u8 = 2; // consumer parked; senders must wake
const WAKER_WAKING: u8 = 3; // a sender is taking the waker out

/// Field order is load-bearing (`repr(C)`): the first group is every
/// word a per-message `send`/`pop` touches on an unbounded edge — the
/// exact working set the pre-backpressure channel kept on one cache
/// line — and the backpressure machinery sits strictly after it, so
/// the default (unbounded) hot paths never pull the bounded-only
/// fields into cache.
#[repr(C)]
struct Chan<T> {
    // --- Hot line: per-message working set. ---
    // Producer side.
    prod: UnsafeCell<ProdCursor<T>>,
    // Consumer side.
    cons: UnsafeCell<ConsCursor<T>>,
    // Shared.
    waker: UnsafeCell<Option<Waker>>,
    senders: AtomicUsize,
    /// Micro spinlock serialising producers. On a single-producer
    /// stream — every data edge — acquisition never contends: the SPSC
    /// fast path is one uncontended CAS. Only cloned senders (the
    /// mergers' branch-join control channels) ever spin.
    prod_lock: AtomicBool,
    /// Single-consumer guard: turns concurrent consumer misuse into a
    /// panic instead of undefined behaviour.
    cons_busy: AtomicBool,
    rx_alive: AtomicBool,
    wake_state: AtomicU8,
    /// True iff the channel was *created* bounded. Immutable, so the
    /// hot paths of a created-unbounded channel (every seed-default
    /// edge) skip the `cap` atomic entirely — one predictable branch
    /// instead of a shared-cacheline load per message.
    bounded: bool,
    // --- Backpressure (module docs: "Bounded edges"). ---
    /// Capacity in messages; 0 = unbounded (every gate is a no-op).
    /// Only ever lowered to 0 at runtime ([`Receiver::exempt`]), never
    /// raised, so depth accounting cannot underflow.
    cap: AtomicUsize,
    /// Credit word: messages counted in (credit-acquired or pushed
    /// ungated) and not yet popped. Maintained only while bounded.
    depth: AtomicUsize,
    /// True when at least one producer parked awaiting credit.
    prod_parked: AtomicBool,
    /// Wakers of parked producers. Cold: touched only when a bounded
    /// edge actually fills.
    prod_waiters: Mutex<Vec<Waker>>,
    /// Backpressure telemetry, if the edge's creator registered any.
    stats: Option<EdgeStats>,
}

// SAFETY: the UnsafeCell cursors are confined by protocol — `prod` to
// the producer role (unique `!Sync` sender, or spinlock holder), `cons`
// to the single consumer (`cons_busy` guard), `waker` to whoever holds
// the REGISTERING/WAKING state. All cross-thread hand-offs go through
// the atomics above with Acquire/Release (or stronger) ordering.
unsafe impl<T: Send> Send for Chan<T> {}
unsafe impl<T: Send> Sync for Chan<T> {}

impl<T> Chan<T> {
    /// Appends a value. Caller must hold the producer role.
    unsafe fn push(&self, value: T) {
        let p = &mut *self.prod.get();
        if p.idx == SEG_SIZE {
            // Install the successor before moving off the old tail:
            // the consumer frees a segment only after following its
            // `next` pointer, and no producer retains a pointer to a
            // segment it has moved past — which is what makes
            // consumer-side reclamation safe without epochs.
            let next = Seg::alloc();
            (*p.seg).next.store(next, Ordering::Release);
            p.seg = next;
            p.idx = 0;
        }
        let slot = &(*p.seg).slots[p.idx];
        (*slot.val.get()).write(value);
        slot.ready.store(true, Ordering::Release);
        p.idx += 1;
    }

    /// Takes the head message, if one is ready. Caller must hold the
    /// consumer role. Producers publish strictly in slot order, so the
    /// first non-ready slot is an exact emptiness test.
    unsafe fn pop(&self) -> Option<T> {
        let c = &mut *self.cons.get();
        if c.idx == SEG_SIZE {
            let next = (*c.seg).next.load(Ordering::Acquire);
            if next.is_null() {
                return None;
            }
            drop(Box::from_raw(c.seg));
            c.seg = next;
            c.idx = 0;
        }
        let slot = &(*c.seg).slots[c.idx];
        if !slot.ready.load(Ordering::Acquire) {
            return None;
        }
        let v = (*slot.val.get()).assume_init_read();
        c.idx += 1;
        if self.bounded && self.cap.load(Ordering::Relaxed) != 0 {
            self.release_credit();
        }
        Some(v)
    }

    /// True when the next `pop` would return a message. Caller must
    /// hold the consumer role. May advance (and free) an exhausted
    /// head segment, but never consumes a slot.
    unsafe fn can_pop(&self) -> bool {
        let c = &mut *self.cons.get();
        loop {
            if c.idx == SEG_SIZE {
                let next = (*c.seg).next.load(Ordering::Acquire);
                if next.is_null() {
                    return false;
                }
                drop(Box::from_raw(c.seg));
                c.seg = next;
                c.idx = 0;
                continue;
            }
            return (*c.seg).slots[c.idx].ready.load(Ordering::Acquire);
        }
    }

    fn lock_cons(&self) -> ConsGuard<'_, T> {
        assert!(
            self.cons_busy
                .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
                .is_ok(),
            "stream Receiver polled from two threads concurrently — streams are single-consumer"
        );
        ConsGuard { chan: self }
    }

    /// Wakes the consumer iff it is parked (see module docs: the
    /// coalescing point — one load on the hot path, the full waker
    /// dance only on the parked edge).
    fn maybe_wake(&self) {
        if self.wake_state.load(Ordering::SeqCst) != WAKER_REGISTERED {
            return;
        }
        if self
            .wake_state
            .compare_exchange(
                WAKER_REGISTERED,
                WAKER_WAKING,
                Ordering::SeqCst,
                Ordering::SeqCst,
            )
            .is_ok()
        {
            // SAFETY: WAKING grants exclusive access to the cell.
            let w = unsafe { (*self.waker.get()).take() };
            self.wake_state.store(WAKER_IDLE, Ordering::SeqCst);
            if let Some(w) = w {
                w.wake();
            }
        }
    }

    /// Registers `cx`'s waker for the consumer. Returns `true` when
    /// the post-registration re-check found a message (or EOS) — the
    /// caller must retry popping instead of returning `Pending`.
    fn register(&self, cx: &mut Context<'_>) -> bool {
        // Claim the waker cell.
        loop {
            let s = self.wake_state.load(Ordering::SeqCst);
            match s {
                WAKER_IDLE | WAKER_REGISTERED => {
                    if self
                        .wake_state
                        .compare_exchange(s, WAKER_REGISTERING, Ordering::SeqCst, Ordering::SeqCst)
                        .is_ok()
                    {
                        break;
                    }
                }
                // A sender is mid-take; its critical section is a few
                // instructions (take + store), so spin it out rather
                // than relying on the in-flight wake targeting *this*
                // waker (the registration may have changed tasks).
                WAKER_WAKING => std::hint::spin_loop(),
                _ => panic!("stream Receiver polled from two threads concurrently"),
            }
        }
        // SAFETY: REGISTERING grants exclusive access to the cell.
        unsafe { *self.waker.get() = Some(cx.waker().clone()) };
        self.wake_state.store(WAKER_REGISTERED, Ordering::SeqCst);
        fence(Ordering::SeqCst);
        // The load-bearing re-check (module docs: "why a lost wake is
        // impossible").
        let visible = {
            let _g = self.lock_cons();
            (unsafe { self.can_pop() }) || self.senders.load(Ordering::SeqCst) == 0
        };
        if visible {
            // Deregister and consume inline, unless a sender already
            // claimed the waker — then a wake is in flight and
            // `Pending` is safe too.
            if self
                .wake_state
                .compare_exchange(
                    WAKER_REGISTERED,
                    WAKER_REGISTERING,
                    Ordering::SeqCst,
                    Ordering::SeqCst,
                )
                .is_ok()
            {
                unsafe { (*self.waker.get()).take() };
                self.wake_state.store(WAKER_IDLE, Ordering::SeqCst);
                return true;
            }
        }
        false
    }

    // --- Backpressure (module docs: "Bounded edges") ----------------

    /// Claims up to `want` credits. Returns how many were claimed:
    /// `want` on an unbounded channel (one capacity load, nothing
    /// else), `0` when the edge is full.
    fn try_acquire(&self, want: usize) -> usize {
        let cap = self.cap.load(Ordering::Relaxed);
        if cap == 0 {
            return want;
        }
        let mut d = self.depth.load(Ordering::Relaxed);
        loop {
            if d >= cap {
                return 0;
            }
            let take = want.min(cap - d);
            match self
                .depth
                .compare_exchange_weak(d, d + take, Ordering::SeqCst, Ordering::Relaxed)
            {
                Ok(_) => {
                    if let Some(s) = &self.stats {
                        s.note_depth((d + take) as u64);
                    }
                    return take;
                }
                Err(cur) => d = cur,
            }
        }
    }

    /// Records `n` un-gated pushes (plain `send` paths: sorts and
    /// control traffic). Never waits — depth may transiently exceed
    /// the capacity, which is exactly the exemption. Must run
    /// **before** the pushes so a racing pop cannot decrement a count
    /// that was never added.
    #[inline(always)]
    fn count_ungated(&self, n: usize) {
        if !self.bounded || n == 0 || self.cap.load(Ordering::Relaxed) == 0 {
            return;
        }
        self.count_ungated_slow(n);
    }

    /// The bounded-edge half of [`Chan::count_ungated`], kept out of
    /// line so the unbounded send path pays one predictable branch.
    #[cold]
    fn count_ungated_slow(&self, n: usize) {
        let d = self.depth.fetch_add(n, Ordering::SeqCst) + n;
        if let Some(s) = &self.stats {
            s.note_depth(d as u64);
        }
    }

    /// Returns one message's credit and, when that opens the edge,
    /// wakes parked producers. Called by every pop of a bounded
    /// channel.
    fn release_credit(&self) {
        let cap = self.cap.load(Ordering::Relaxed);
        let new = self.depth.fetch_sub(1, Ordering::SeqCst) - 1;
        // `cap` may have raced to 0 (exempt): `new < 0` is vacuously
        // false, and `exempt` itself already woke everyone.
        if new < cap {
            self.wake_producers();
        }
    }

    /// Wakes every parked producer (credit released, capacity lifted,
    /// or receiver gone). Waking all of them for one freed credit is a
    /// deliberate simplification: they re-race for the credit and
    /// losers re-park; bounded data edges are single-producer in
    /// practice, so the herd is size one.
    fn wake_producers(&self) {
        if self.prod_parked.load(Ordering::SeqCst) && self.prod_parked.swap(false, Ordering::SeqCst)
        {
            let wakers: Vec<Waker> = std::mem::take(&mut *self.prod_waiters.lock());
            for w in wakers {
                w.wake();
            }
        }
    }
}

impl<T> Drop for Chan<T> {
    fn drop(&mut self) {
        // Exclusive access: both endpoints are gone. Producers publish
        // in order, so within each segment the initialised slots are a
        // ready-flagged prefix (from the consumer cursor onward).
        unsafe {
            let c = &mut *self.cons.get();
            let mut seg = c.seg;
            let mut idx = c.idx;
            while !seg.is_null() {
                let slots = std::ptr::addr_of!((*seg).slots);
                for i in idx..SEG_SIZE {
                    let slot = &(*slots)[i];
                    if !slot.ready.load(Ordering::Acquire) {
                        break;
                    }
                    (*slot.val.get()).assume_init_drop();
                }
                let next = (*seg).next.load(Ordering::Acquire);
                drop(Box::from_raw(seg));
                seg = next;
                idx = 0;
            }
        }
    }
}

struct ConsGuard<'a, T> {
    chan: &'a Chan<T>,
}

impl<T> Drop for ConsGuard<'_, T> {
    fn drop(&mut self) {
        self.chan.cons_busy.store(false, Ordering::Release);
    }
}

// ---------------------------------------------------------------------------
// Public endpoints
// ---------------------------------------------------------------------------

/// Creates an unbounded native channel.
pub fn channel<T: Send>() -> (Sender<T>, Receiver<T>) {
    channel_cfg(0, None)
}

/// Creates a native channel with an explicit capacity (`0` =
/// unbounded) and optional backpressure telemetry. The capacity gates
/// only the credit paths ([`Sender::feed`] and friends); the plain
/// [`Sender::send`] path never waits — the sort-record and
/// control-traffic exemption the no-deadlock argument rests on (see
/// module docs).
pub fn channel_cfg<T: Send>(cap: usize, stats: Option<EdgeStats>) -> (Sender<T>, Receiver<T>) {
    let seg = Seg::alloc();
    let chan = Arc::new(Chan {
        prod: UnsafeCell::new(ProdCursor { seg, idx: 0 }),
        prod_lock: AtomicBool::new(false),
        cons: UnsafeCell::new(ConsCursor { seg, idx: 0 }),
        cons_busy: AtomicBool::new(false),
        senders: AtomicUsize::new(1),
        rx_alive: AtomicBool::new(true),
        wake_state: AtomicU8::new(WAKER_IDLE),
        waker: UnsafeCell::new(None),
        bounded: cap != 0,
        cap: AtomicUsize::new(cap),
        depth: AtomicUsize::new(0),
        prod_parked: AtomicBool::new(false),
        prod_waiters: Mutex::new(Vec::new()),
        stats,
    });
    (
        Sender {
            chan: Arc::clone(&chan),
        },
        Receiver { chan },
    )
}

/// Sending half; cloneable. Producers serialise through the channel's
/// micro spinlock — uncontended (a single CAS) on every
/// single-producer stream, which is every data edge of a network.
pub struct Sender<T> {
    chan: Arc<Chan<T>>,
}

/// Receiving half: the single consumer of a stream. Not cloneable.
pub struct Receiver<T> {
    chan: Arc<Chan<T>>,
}

/// The message could not be delivered: the receiver is gone.
pub struct SendError<T>(pub T);

impl<T> fmt::Debug for SendError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SendError(..)")
    }
}

impl<T> fmt::Display for SendError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sending on a disconnected stream")
    }
}

/// Why a non-blocking (or deadline-bounded) credit-gated send failed.
/// The undelivered message is returned either way.
pub enum TryFeedError<T> {
    /// No credit within the allowed wait: the edge is full.
    Full(T),
    /// The receiver is gone.
    Disconnected(T),
}

impl<T> fmt::Debug for TryFeedError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TryFeedError::Full(_) => write!(f, "TryFeedError::Full(..)"),
            TryFeedError::Disconnected(_) => write!(f, "TryFeedError::Disconnected(..)"),
        }
    }
}

impl<T> fmt::Display for TryFeedError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TryFeedError::Full(_) => write!(f, "stream is at capacity"),
            TryFeedError::Disconnected(_) => write!(f, "sending on a disconnected stream"),
        }
    }
}

/// The stream is empty and all senders are gone.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RecvError;

impl fmt::Display for RecvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "receiving on an empty, disconnected stream")
    }
}

/// Why `try_recv` returned nothing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TryRecvError {
    Empty,
    Disconnected,
}

/// RAII holder of the producer role: releases the spinlock on drop,
/// so a panic inside the critical section (e.g. a caller-supplied
/// `send_each_reserved` iterator) unwinds cleanly instead of wedging
/// every later sender in the acquisition spin loop.
struct ProdGuard<'a, T> {
    chan: &'a Chan<T>,
}

impl<T> Chan<T> {
    fn lock_prod(&self) -> ProdGuard<'_, T> {
        while self
            .prod_lock
            .compare_exchange_weak(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            std::hint::spin_loop();
        }
        ProdGuard { chan: self }
    }
}

impl<T> Drop for ProdGuard<'_, T> {
    fn drop(&mut self) {
        self.chan.prod_lock.store(false, Ordering::Release);
    }
}

impl<T: Send> Sender<T> {
    /// Delivers a message: one uncontended CAS (the producer role), a
    /// slot write, one `Release` store, and one `SeqCst` load of the
    /// consumer's park state — no mutex, no allocation outside segment
    /// boundaries, and no waker traffic unless the consumer is parked.
    pub fn send(&self, value: T) -> Result<(), SendError<T>> {
        let chan = &*self.chan;
        if !chan.rx_alive.load(Ordering::Acquire) {
            return Err(SendError(value));
        }
        chan.count_ungated(1);
        self.publish([value]);
        Ok(())
    }

    /// Delivers a run of messages **whose credits are already held**
    /// (one [`Sender::acquire`]d credit per message; an unbounded
    /// channel grants any number) as one [`Sender::publish`], for
    /// producers that hold their output in order
    /// ([`crate::stream::feed_batch`]).
    ///
    /// Returns how many messages were delivered (0 with `Err` when
    /// the receiver is gone — the messages are dropped, matching the
    /// teardown semantics every component applies to `send` results).
    pub fn send_each_reserved(
        &self,
        values: impl IntoIterator<Item = T>,
    ) -> Result<usize, SendError<()>> {
        if !self.chan.rx_alive.load(Ordering::Acquire) {
            return Err(SendError(()));
        }
        Ok(self.publish(values))
    }

    /// The one publish every send path ends in: `values` pushed under
    /// **one** producer-role acquisition, then one fence and one
    /// park-state check for the whole run — a single publish ordered
    /// before the single check, so the no-lost-wake argument (module
    /// docs) covers a run as it covers one message. The producer role
    /// is held across the iterator (a panic in it releases the role via
    /// the guard, dropping the unsent remainder); data edges are
    /// single-producer, and no caller runs user code in it. Credits,
    /// where the path takes them, are the caller's.
    fn publish(&self, values: impl IntoIterator<Item = T>) -> usize {
        let chan = &*self.chan;
        let guard = chan.lock_prod();
        let mut n = 0;
        for v in values {
            // SAFETY: the guard is the producer role.
            unsafe { chan.push(v) };
            n += 1;
        }
        drop(guard);
        fence(Ordering::SeqCst);
        chan.maybe_wake();
        n
    }

    /// Credit-gated send: on a bounded channel, awaits a capacity
    /// credit ([`Sender::acquire`], parking the task, not the thread);
    /// an unbounded channel resolves immediately — the fast path is
    /// [`Sender::send`] plus one capacity load.
    pub async fn feed(&self, value: T) -> Result<(), SendError<T>> {
        if self.acquire(1).await.is_err() {
            return Err(SendError(value));
        }
        self.publish([value]);
        Ok(())
    }

    /// Non-blocking credit-gated send: `Err(Full)` instead of waiting.
    pub fn try_feed(&self, value: T) -> Result<(), TryFeedError<T>> {
        let chan = &*self.chan;
        if !chan.rx_alive.load(Ordering::Acquire) {
            return Err(TryFeedError::Disconnected(value));
        }
        if chan.try_acquire(1) == 0 {
            return Err(TryFeedError::Full(value));
        }
        self.publish([value]);
        Ok(())
    }

    /// Blocking credit-gated send, for driver threads
    /// ([`crate::net::Net::send`] under the `Block` and `Timeout`
    /// overload policies). `deadline` bounds the wait (`Err(Full)` on
    /// expiry, message returned); `None` blocks until credit or
    /// disconnection. A full edge is waited out on [`Sender::acquire`]
    /// through [`wait_on`].
    pub fn feed_blocking(
        &self,
        value: T,
        deadline: Option<std::time::Instant>,
    ) -> Result<(), TryFeedError<T>> {
        let value = match self.try_feed(value) {
            Err(TryFeedError::Full(value)) => value,
            done => return done,
        };
        match wait_on(&mut self.acquire(1), deadline, None) {
            Some(Ok(_)) => {
                self.publish([value]);
                Ok(())
            }
            Some(Err(_)) => Err(TryFeedError::Disconnected(value)),
            None => Err(TryFeedError::Full(value)),
        }
    }

    /// Awaits up to `want` credits, resolving with how many were
    /// granted (at least one). Pair with
    /// [`Sender::send_each_reserved`] for gated batch publication.
    pub fn acquire(&self, want: usize) -> Acquire<'_, T> {
        Acquire {
            tx: self,
            want,
            stalled: false,
        }
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Sender<T> {
        self.chan.senders.fetch_add(1, Ordering::SeqCst);
        Sender {
            chan: Arc::clone(&self.chan),
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        if self.chan.senders.fetch_sub(1, Ordering::SeqCst) == 1 {
            // Last sender: end-of-stream is an event a parked consumer
            // must observe — same publish-then-check protocol as a
            // send.
            fence(Ordering::SeqCst);
            self.chan.maybe_wake();
        }
    }
}

impl<T: Send> Receiver<T> {
    /// Non-blocking receive.
    pub fn try_recv(&self) -> Result<T, TryRecvError> {
        let chan = &*self.chan;
        let _g = chan.lock_cons();
        // SAFETY: the guard is the consumer role.
        unsafe {
            if let Some(v) = chan.pop() {
                return Ok(v);
            }
            if chan.senders.load(Ordering::SeqCst) == 0 {
                // Messages published before the last sender dropped
                // happen-before the count reaching zero; re-pop.
                if let Some(v) = chan.pop() {
                    return Ok(v);
                }
                return Err(TryRecvError::Disconnected);
            }
            Err(TryRecvError::Empty)
        }
    }

    /// Readiness without consumption: `Ready` means the next
    /// `try_recv` returns without blocking (a message, or
    /// disconnection). Used by readiness-select loops that must decide
    /// *which* stream to consume from.
    pub fn poll_ready(&self, cx: &mut Context<'_>) -> Poll<()> {
        let chan = &*self.chan;
        loop {
            {
                let _g = chan.lock_cons();
                // SAFETY: the guard is the consumer role.
                let ready = unsafe { chan.can_pop() } || chan.senders.load(Ordering::SeqCst) == 0;
                if ready {
                    if !charge_budget() {
                        cx.waker().wake_by_ref();
                        return Poll::Pending;
                    }
                    return Poll::Ready(());
                }
            }
            if !chan.register(cx) {
                return Poll::Pending;
            }
        }
    }

    /// The batched-delivery primitive behind [`Receiver::recv_each`]:
    /// delivers up to `max` queued messages **directly to `f`**,
    /// straight out of the queue slot, with no intermediate batch
    /// buffer — each message is copied exactly once (slot → callback
    /// argument). For message types a couple of cache lines wide
    /// (records travel by value), that halves the per-hop copy traffic
    /// of draining into a buffer first and drops a
    /// `max × size_of::<T>()` working-set buffer from every component
    /// loop.
    ///
    /// Resolves `Ready(n)` with `n >= 1` messages delivered as soon as
    /// at least one is available, `Ready(0)` at end-of-stream,
    /// `Pending` (waker registered) on an empty connected stream. Each
    /// delivered message spends one unit of poll budget, so one batch
    /// can never exceed a task's fair timeslice.
    ///
    /// `f` runs while the consumer role is held, which is sound for
    /// component bodies: they are the channel's only consumer and
    /// never re-enter their own input (they only *send* downstream).
    pub fn poll_recv_each(
        &self,
        cx: &mut Context<'_>,
        max: usize,
        f: &mut impl FnMut(T),
    ) -> Poll<usize> {
        let chan = &*self.chan;
        let mut delivered = 0usize;
        loop {
            {
                let _g = chan.lock_cons();
                // SAFETY: the guard is the consumer role.
                unsafe {
                    while delivered < max && chan.can_pop() {
                        if !charge_budget() {
                            if delivered == 0 {
                                // Queued work but no budget: forced
                                // yield, rescheduled behind siblings.
                                cx.waker().wake_by_ref();
                                return Poll::Pending;
                            }
                            break;
                        }
                        f(chan.pop().expect("slot ready"));
                        delivered += 1;
                    }
                    if delivered > 0 {
                        return Poll::Ready(delivered);
                    }
                    // Check disconnect *then* re-check emptiness: a
                    // message published before the last sender dropped
                    // must not be mistaken for EOS.
                    if chan.senders.load(Ordering::SeqCst) == 0 {
                        if chan.can_pop() {
                            continue;
                        }
                        return Poll::Ready(0);
                    }
                }
            }
            if !chan.register(cx) {
                return Poll::Pending;
            }
        }
    }

    /// Future form of [`Receiver::poll_recv_each`]: awaits at least
    /// one message, delivering each to `f` in place; resolves to the
    /// number delivered — `0` means end-of-stream.
    pub fn recv_each<'a, F: FnMut(T)>(&'a self, max: usize, f: &'a mut F) -> RecvEach<'a, T, F> {
        RecvEach { rx: self, max, f }
    }

    /// Future form of blocking receive: resolves with the next message
    /// or `Err(RecvError)` at end-of-stream. Awaiting on an empty
    /// stream parks the *task*, not the thread. A batch of one of
    /// [`Receiver::recv_each`], so it spends the poll budget the same
    /// way.
    pub async fn recv_async(&self) -> Result<T, RecvError> {
        let mut next = None;
        self.recv_each(1, &mut |v| next = Some(v)).await;
        next.ok_or(RecvError)
    }

    /// Blocking receive, for tests and the runtime's own edges, through
    /// [`wait_on`]. It runs nothing else while it waits: the thread
    /// parks. Its poll is uncharged (`try_recv`, then `register`): a box
    /// that blocks on another net runs inside its worker's poll, and at
    /// zero budget a charged poll would report `Pending` forever.
    pub fn recv(&self) -> Result<T, RecvError> {
        self.recv_helping(None)
    }

    /// [`Receiver::recv`] that helps while it waits ([`wait_on`]):
    /// [`crate::net::Net::recv`] passes its net's executor and tracker,
    /// so a receiver that finds its output empty runs the net itself,
    /// and parked, is what the sender's push wakes.
    pub(crate) fn recv_helping(&self, helper: Option<Helper<'_>>) -> Result<T, RecvError> {
        let mut next = std::future::poll_fn(|cx| loop {
            match self.try_recv() {
                Ok(v) => return Poll::Ready(Ok(v)),
                Err(TryRecvError::Disconnected) => return Poll::Ready(Err(RecvError)),
                // The registration re-check saw traffic: retry.
                Err(TryRecvError::Empty) if self.chan.register(cx) => {}
                Err(TryRecvError::Empty) => return Poll::Pending,
            }
        });
        wait_on(&mut next, None, helper).expect("no deadline")
    }

    /// Blocking iterator until disconnect.
    pub fn iter(&self) -> Iter<'_, T> {
        Iter { rx: self }
    }

    /// Lifts the capacity: the channel becomes unbounded and every
    /// parked producer is released. Mergers exempt their branch
    /// inputs at registration — the det-merge drain obligation must
    /// never gate an upstream producer (see [`crate::sched`] for the
    /// system-level no-deadlock argument).
    pub fn exempt(&self) {
        self.chan.cap.store(0, Ordering::SeqCst);
        self.chan.wake_producers();
    }

    /// Messages currently counted against the capacity (always 0 on a
    /// channel created unbounded). Test and telemetry surface.
    pub fn depth(&self) -> usize {
        self.chan.depth.load(Ordering::SeqCst)
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        // Senders observe this and fail fast; anything already queued
        // is released when the channel drops.
        self.chan.rx_alive.store(false, Ordering::Release);
        // Producers parked on a full edge must observe the death, not
        // sleep on it (publish-then-check; module docs).
        fence(Ordering::SeqCst);
        self.chan.wake_producers();
    }
}

/// The crate's one thread-parking waker: `wake` flags the notification
/// and unparks the thread. Everything that waits for a future from a
/// plain OS thread polls it through [`wait_on`] — the blocking
/// [`Receiver::recv`] and [`Sender::feed_blocking`], `Net::recv`,
/// [`crate::sched::block_on`], `CallHandle::wait` and
/// [`crate::sched::Tracker::wait_quiescent`] — which takes the
/// thread's one from [`with_parker`], so a blocking wait allocates
/// nothing. An idle pool worker sleeps on its thread's one too, and a
/// parked helper advertises it (`sched/pool.rs`, *shared park token*).
pub(crate) struct ThreadParker {
    thread: std::thread::Thread,
    notified: AtomicBool,
}

impl Wake for ThreadParker {
    fn wake(self: Arc<Self>) {
        self.wake_by_ref();
    }

    fn wake_by_ref(self: &Arc<Self>) {
        self.notified.store(true, Ordering::Release);
        self.thread.unpark();
    }
}

impl ThreadParker {
    /// Parks the thread until a wake arrives (`true`) or `deadline`
    /// passes (`false`). A wake that arrived before the call is kept by
    /// the flag; `park` returning for no reason is not mistaken for one.
    pub(crate) fn park(&self, deadline: Option<std::time::Instant>) -> bool {
        while !self.notified.swap(false, Ordering::Acquire) {
            match deadline {
                None => std::thread::park(),
                Some(d) => {
                    let now = std::time::Instant::now();
                    if now >= d {
                        return false;
                    }
                    std::thread::park_timeout(d - now);
                }
            }
        }
        true
    }
}

/// Runs `f` with the current thread's [`ThreadParker`] and a waker over
/// it. Its callers are [`wait_on`], the pool's idle loop and its helper
/// slots.
pub(crate) fn with_parker<R>(f: impl FnOnce(&ThreadParker, &Waker) -> R) -> R {
    thread_local! {
        static PARKER: (Arc<ThreadParker>, Waker) = {
            let p = Arc::new(ThreadParker {
                thread: std::thread::current(),
                notified: AtomicBool::new(false),
            });
            (Arc::clone(&p), Waker::from(p))
        };
    }
    PARKER.with(|(p, w)| f(p, w))
}

/// The crate's one parked poll: polls `fut` on the thread's
/// [`ThreadParker`], parking between polls, until it resolves
/// (`Some`) or `deadline` passes (`None`; the future is polled at
/// least once either way). Waits nest (a box function blocking on
/// another net inside `block_on`), and the inner wait may consume a
/// wake addressed to the outer future — but never one the outer wait
/// depends on: those answer the registration the outer poll makes as
/// it returns `Pending`, after the inner wait is over.
///
/// With a `helper`, the wait first runs the helper's runnable tasks
/// ([`Executor::help`]), polling `fut` after each, and parks only once
/// nothing it may run is left. Without a deadline it parks where a
/// push of a task of the helper's net wakes it first
/// ([`Executor::park_helper`]), and helps again when it wakes: one park
/// serves that claim and `fut`'s own wake, since both unpark this
/// thread's parker. `Net::recv` ([`Receiver::recv_helping`]),
/// `CallHandle::wait` and `Ctx::join_all` pass one; a thread that parks in
/// [`Sender::feed_blocking`], [`Receiver::recv`] or `block_on` has
/// promised to run nothing else meanwhile. Under a deadline a helper
/// runs only a task whose poll fits one slice before it, and parks
/// unadvertised, so a helping wait still returns within about one
/// slice (200 µs) of its deadline.
pub(crate) fn wait_on<F: Future + Unpin>(
    fut: &mut F,
    deadline: Option<std::time::Instant>,
    helper: Option<Helper<'_>>,
) -> Option<F::Output> {
    with_parker(|parker, waker| {
        let mut cx = Context::from_waker(waker);
        let mut out = None;
        let over = Cell::new(false);
        let mut resolved = || {
            if !over.get() {
                if let Poll::Ready(o) = Pin::new(&mut *fut).poll(&mut cx) {
                    out = Some(o);
                    over.set(true);
                }
            }
            over.get()
        };
        while !resolved() {
            if let Some((exec, net)) = helper {
                exec.help(deadline, &mut resolved);
                if over.get() {
                    break;
                }
                if deadline.is_none() && exec.park_helper(net, &mut resolved) {
                    continue;
                }
            }
            if !parker.park(deadline) {
                break;
            }
        }
        out
    })
}

/// What a helping [`wait_on`] helps: an executor, and the [`Tracker`] of
/// the network whose output the wait is for.
pub(crate) type Helper<'a> = (&'a dyn Executor, &'a Tracker);

/// Future returned by [`Sender::acquire`].
pub struct Acquire<'a, T> {
    tx: &'a Sender<T>,
    want: usize,
    stalled: bool,
}

impl<T> Unpin for Acquire<'_, T> {}

impl<T: Send> Future for Acquire<'_, T> {
    type Output = Result<usize, SendError<()>>;
    /// The only place a producer parks (module docs, *Why a parked
    /// producer cannot be lost*): a full edge parks, then checks
    /// liveness and credit once more, so a credit released (or a
    /// receiver dropped) in the window cannot be slept through.
    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        let chan = &*this.tx.chan;
        let mut parked = false;
        loop {
            if !chan.rx_alive.load(Ordering::SeqCst) {
                return Poll::Ready(Err(SendError(())));
            }
            let got = chan.try_acquire(this.want);
            if got > 0 {
                return Poll::Ready(Ok(got));
            }
            if parked {
                if let (false, Some(s)) = (this.stalled, &chan.stats) {
                    s.note_stall();
                }
                this.stalled = true;
                return Poll::Pending;
            }
            let w = cx.waker();
            let mut q = chan.prod_waiters.lock();
            if !q.iter().any(|e| e.will_wake(w)) {
                q.push(w.clone());
            }
            drop(q);
            // Pairs with the consumer's depth decrement: the next turn
            // of the loop is the re-check.
            chan.prod_parked.store(true, Ordering::SeqCst);
            fence(Ordering::SeqCst);
            parked = true;
        }
    }
}

/// Future returned by [`Receiver::recv_each`].
pub struct RecvEach<'a, T, F> {
    rx: &'a Receiver<T>,
    max: usize,
    f: &'a mut F,
}

impl<T: Send, F: FnMut(T)> Future for RecvEach<'_, T, F> {
    type Output = usize;
    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<usize> {
        let this = self.get_mut();
        this.rx.poll_recv_each(cx, this.max, this.f)
    }
}

pub struct Iter<'a, T> {
    rx: &'a Receiver<T>,
}

impl<T: Send> Iterator for Iter<'_, T> {
    type Item = T;
    fn next(&mut self) -> Option<T> {
        self.rx.recv().ok()
    }
}

impl<'a, T: Send> IntoIterator for &'a Receiver<T> {
    type Item = T;
    type IntoIter = Iter<'a, T>;
    fn into_iter(self) -> Iter<'a, T> {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn send_each_reserved_preserves_fifo_and_wakes_parked_consumer() {
        // FIFO across batch boundaries (incl. segment crossings: the
        // batch is larger than one segment)...
        let (tx, rx) = channel::<u32>();
        assert_eq!(tx.send_each_reserved(0..100).unwrap(), 100);
        tx.send(100).unwrap();
        assert_eq!(tx.send_each_reserved(101..110).unwrap(), 9);
        for i in 0..110 {
            assert_eq!(rx.try_recv().unwrap(), i);
        }
        assert_eq!(rx.try_recv().unwrap_err(), TryRecvError::Empty);
        // ...and the single post-batch park check wakes a blocked
        // consumer (the no-lost-wake argument for the batched path).
        let h = std::thread::spawn(move || {
            let mut got = Vec::new();
            while let Ok(v) = rx.recv() {
                got.push(v);
            }
            got
        });
        std::thread::sleep(std::time::Duration::from_millis(30));
        assert_eq!(tx.send_each_reserved(0..5).unwrap(), 5);
        drop(tx);
        assert_eq!(h.join().unwrap(), vec![0, 1, 2, 3, 4]);
        // A dead receiver drops the run.
        let (tx, rx) = channel::<u32>();
        drop(rx);
        assert!(tx.send_each_reserved(0..5).is_err());
    }

    #[test]
    fn send_recv_fifo() {
        let (tx, rx) = channel();
        for i in 0..200 {
            tx.send(i).unwrap();
        }
        for i in 0..200 {
            assert_eq!(rx.recv(), Ok(i));
        }
    }

    #[test]
    fn crosses_many_segment_boundaries() {
        let (tx, rx) = channel();
        for round in 0..10 {
            for i in 0..(SEG_SIZE * 3 + 7) {
                tx.send((round, i)).unwrap();
            }
            for i in 0..(SEG_SIZE * 3 + 7) {
                assert_eq!(rx.recv(), Ok((round, i)));
            }
        }
    }

    #[test]
    fn disconnect_semantics() {
        let (tx, rx) = channel::<i32>();
        tx.send(1).unwrap();
        drop(tx);
        assert_eq!(rx.recv(), Ok(1));
        assert!(rx.recv().is_err());
        let (tx2, rx2) = channel::<i32>();
        drop(rx2);
        assert!(tx2.send(5).is_err());
    }

    #[test]
    fn try_recv_distinguishes_empty_and_disconnected() {
        let (tx, rx) = channel::<i32>();
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        drop(tx);
        assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
    }

    #[test]
    fn blocking_recv_wakes_on_send() {
        let (tx, rx) = channel::<i32>();
        let h = std::thread::spawn(move || rx.recv());
        std::thread::sleep(std::time::Duration::from_millis(20));
        tx.send(7).unwrap();
        assert_eq!(h.join().unwrap(), Ok(7));
    }

    #[test]
    fn blocking_recv_wakes_on_disconnect() {
        let (tx, rx) = channel::<i32>();
        let h = std::thread::spawn(move || rx.recv());
        std::thread::sleep(std::time::Duration::from_millis(20));
        drop(tx);
        assert_eq!(h.join().unwrap(), Err(RecvError));
    }

    /// A counting waker for poll tests.
    struct CountWake(AtomicUsize);

    impl Wake for CountWake {
        fn wake(self: Arc<Self>) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    fn count_waker() -> (Arc<CountWake>, Waker) {
        let inner = Arc::new(CountWake(AtomicUsize::new(0)));
        let waker = Waker::from(Arc::clone(&inner));
        (inner, waker)
    }

    /// One poll of a one-message `poll_recv_each`, as a receive.
    fn recv1(rx: &Receiver<i32>, cx: &mut Context<'_>) -> Poll<Result<i32, RecvError>> {
        let mut next = None;
        rx.poll_recv_each(cx, 1, &mut |v| next = Some(v))
            .map(|_| next.ok_or(RecvError))
    }

    #[test]
    fn poll_recv_ready_and_pending() {
        let (tx, rx) = channel::<i32>();
        tx.send(42).unwrap();
        let (_w, waker) = count_waker();
        let mut cx = Context::from_waker(&waker);
        assert_eq!(recv1(&rx, &mut cx), Poll::Ready(Ok(42)));
        assert_eq!(recv1(&rx, &mut cx), Poll::Pending);
    }

    #[test]
    fn registered_waker_fires_on_send_and_disconnect() {
        let (tx, rx) = channel::<i32>();
        let (counts, waker) = count_waker();
        let mut cx = Context::from_waker(&waker);
        assert_eq!(recv1(&rx, &mut cx), Poll::Pending);
        tx.send(9).unwrap();
        assert_eq!(counts.0.load(Ordering::SeqCst), 1);
        assert_eq!(recv1(&rx, &mut cx), Poll::Ready(Ok(9)));
        // Park again; disconnection must also wake.
        assert_eq!(recv1(&rx, &mut cx), Poll::Pending);
        drop(tx);
        assert_eq!(counts.0.load(Ordering::SeqCst), 2);
        assert_eq!(recv1(&rx, &mut cx), Poll::Ready(Err(RecvError)));
    }

    #[test]
    fn wakeups_are_coalesced_while_consumer_is_active() {
        let (tx, rx) = channel::<i32>();
        let (counts, waker) = count_waker();
        let mut cx = Context::from_waker(&waker);
        // An unparked consumer (no waker registered) is never woken.
        for i in 0..10 {
            tx.send(i).unwrap();
        }
        assert_eq!(counts.0.load(Ordering::SeqCst), 0);
        for i in 0..10 {
            assert_eq!(rx.try_recv(), Ok(i));
        }
        // A parked consumer is woken exactly once for a whole burst.
        assert_eq!(recv1(&rx, &mut cx), Poll::Pending);
        for i in 0..5 {
            tx.send(100 + i).unwrap();
        }
        assert_eq!(
            counts.0.load(Ordering::SeqCst),
            1,
            "burst into a parked consumer must coalesce to one wake"
        );
        for i in 0..5 {
            assert_eq!(recv1(&rx, &mut cx), Poll::Ready(Ok(100 + i)));
        }
    }

    #[test]
    fn reregistration_does_not_leak_wakes() {
        let (tx, rx) = channel::<i32>();
        let (counts, waker) = count_waker();
        let mut cx = Context::from_waker(&waker);
        for _ in 0..100 {
            assert_eq!(rx.poll_ready(&mut cx), Poll::Pending);
        }
        tx.send(1).unwrap();
        assert_eq!(counts.0.load(Ordering::SeqCst), 1);
        assert_eq!(rx.poll_ready(&mut cx), Poll::Ready(()));
        assert_eq!(rx.try_recv(), Ok(1));
    }

    #[test]
    fn exhausted_budget_forces_yield_with_self_wake() {
        let (tx, rx) = channel::<i32>();
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        let (counts, waker) = count_waker();
        let mut cx = Context::from_waker(&waker);
        set_poll_budget(1);
        assert_eq!(recv1(&rx, &mut cx), Poll::Ready(Ok(1)));
        // Budget spent: a queued message still reports Pending, with
        // an immediate self-wake so the task is rescheduled.
        assert_eq!(recv1(&rx, &mut cx), Poll::Pending);
        assert_eq!(counts.0.load(Ordering::SeqCst), 1);
        set_poll_budget(u32::MAX);
        assert_eq!(recv1(&rx, &mut cx), Poll::Ready(Ok(2)));
    }

    /// One `poll_recv_each` of at most `max` messages, pushed onto `buf`.
    fn drain(
        rx: &Receiver<i32>,
        cx: &mut Context<'_>,
        buf: &mut Vec<i32>,
        max: usize,
    ) -> Poll<usize> {
        rx.poll_recv_each(cx, max, &mut |v| buf.push(v))
    }

    #[test]
    fn batch_drains_up_to_max_and_respects_budget() {
        let (tx, rx) = channel::<i32>();
        for i in 0..10 {
            tx.send(i).unwrap();
        }
        let (_c, waker) = count_waker();
        let mut cx = Context::from_waker(&waker);
        let mut buf = Vec::new();
        assert_eq!(drain(&rx, &mut cx, &mut buf, 4), Poll::Ready(4));
        assert_eq!(buf, vec![0, 1, 2, 3]);
        buf.clear();
        // Budget caps the batch below `max`.
        set_poll_budget(3);
        assert_eq!(drain(&rx, &mut cx, &mut buf, 100), Poll::Ready(3));
        assert_eq!(buf, vec![4, 5, 6]);
        buf.clear();
        // Zero budget with queued messages: self-wake + Pending.
        let (counts, waker) = count_waker();
        let mut cx = Context::from_waker(&waker);
        assert_eq!(drain(&rx, &mut cx, &mut buf, 100), Poll::Pending);
        assert_eq!(counts.0.load(Ordering::SeqCst), 1);
        set_poll_budget(u32::MAX);
        assert_eq!(drain(&rx, &mut cx, &mut buf, 100), Poll::Ready(3));
        assert_eq!(buf, vec![7, 8, 9]);
        buf.clear();
        // EOS resolves to 0.
        drop(tx);
        assert_eq!(drain(&rx, &mut cx, &mut buf, 100), Poll::Ready(0));
    }

    #[test]
    fn batch_counts_only_newly_appended_messages() {
        // Callers accumulate across awaits (the stage-run driver
        // pushes onto its head queue): what the callback's target
        // already holds is never counted, and an empty connected
        // stream stays Pending no matter what it holds.
        let (tx, rx) = channel::<i32>();
        let (_c, waker) = count_waker();
        let mut cx = Context::from_waker(&waker);
        let mut buf = vec![999];
        assert_eq!(drain(&rx, &mut cx, &mut buf, 4), Poll::Pending);
        for i in 0..10 {
            tx.send(i).unwrap();
        }
        // `max` bounds the delivered count, not the total length.
        assert_eq!(drain(&rx, &mut cx, &mut buf, 4), Poll::Ready(4));
        assert_eq!(buf, vec![999, 0, 1, 2, 3]);
        assert_eq!(drain(&rx, &mut cx, &mut buf, 100), Poll::Ready(6));
        drop(tx);
        // EOS is 0 even with a full buffer in hand.
        assert_eq!(drain(&rx, &mut cx, &mut buf, 4), Poll::Ready(0));
        assert_eq!(buf.len(), 11);
    }

    #[test]
    fn cloned_senders_share_the_stream() {
        // Shared (spinlocked) mode: heavy traffic from several
        // producers, every message delivered exactly once.
        let (tx, rx) = channel::<u64>();
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let tx = tx.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..10_000u64 {
                    tx.send(t * 10_000 + i).unwrap();
                }
            }));
        }
        drop(tx);
        let mut got: Vec<u64> = rx.iter().collect();
        for h in handles {
            h.join().unwrap();
        }
        got.sort_unstable();
        assert_eq!(got.len(), 40_000);
        assert_eq!(got, (0..40_000).collect::<Vec<_>>());
    }

    #[test]
    fn spsc_cross_thread_traffic_with_parking() {
        // Single producer, consumer alternating blocking recv — the
        // hot shape of every data edge. Exercises park/wake races.
        let (tx, rx) = channel::<u64>();
        let h = std::thread::spawn(move || {
            let mut sum = 0u64;
            while let Ok(v) = rx.recv() {
                sum += v;
            }
            sum
        });
        for i in 0..100_000u64 {
            tx.send(i).unwrap();
        }
        drop(tx);
        assert_eq!(h.join().unwrap(), (0..100_000u64).sum());
    }

    #[test]
    fn bounded_try_feed_and_depth_accounting() {
        let (tx, rx) = channel_cfg::<i32>(2, None);
        tx.try_feed(1).unwrap();
        tx.try_feed(2).unwrap();
        assert_eq!(rx.depth(), 2);
        assert!(matches!(tx.try_feed(3), Err(TryFeedError::Full(3))));
        assert_eq!(rx.try_recv(), Ok(1));
        assert_eq!(rx.depth(), 1);
        tx.try_feed(3).unwrap();
        assert!(matches!(tx.try_feed(4), Err(TryFeedError::Full(4))));
        drop(rx);
        assert!(matches!(tx.try_feed(5), Err(TryFeedError::Disconnected(5))));
    }

    #[test]
    fn plain_send_is_exempt_from_the_bound() {
        // Sorts and control traffic go through `send`: counted against
        // depth, never gated.
        let (tx, rx) = channel_cfg::<i32>(1, None);
        tx.try_feed(1).unwrap();
        tx.send(2).unwrap();
        tx.send(3).unwrap();
        assert_eq!(rx.depth(), 3);
        assert!(matches!(tx.try_feed(4), Err(TryFeedError::Full(_))));
        for want in [1, 2, 3] {
            assert_eq!(rx.recv(), Ok(want));
        }
        assert_eq!(rx.depth(), 0);
        tx.try_feed(4).unwrap();
    }

    #[test]
    fn feed_blocking_waits_for_credit() {
        let (tx, rx) = channel_cfg::<i32>(1, None);
        tx.try_feed(0).unwrap();
        let h = std::thread::spawn(move || {
            tx.feed_blocking(1, None).unwrap();
        });
        std::thread::sleep(std::time::Duration::from_millis(30));
        assert_eq!(rx.recv(), Ok(0));
        h.join().unwrap();
        assert_eq!(rx.recv(), Ok(1));
    }

    #[test]
    fn feed_blocking_deadline_expires() {
        let (tx, rx) = channel_cfg::<i32>(1, None);
        tx.try_feed(0).unwrap();
        let deadline = std::time::Instant::now() + std::time::Duration::from_millis(40);
        assert!(matches!(
            tx.feed_blocking(1, Some(deadline)),
            Err(TryFeedError::Full(1))
        ));
        drop(rx);
    }

    #[test]
    fn feed_blocking_errors_when_receiver_drops_midwait() {
        let (tx, rx) = channel_cfg::<i32>(1, None);
        tx.try_feed(0).unwrap();
        let h = std::thread::spawn(move || tx.feed_blocking(1, None));
        std::thread::sleep(std::time::Duration::from_millis(30));
        drop(rx);
        assert!(matches!(
            h.join().unwrap(),
            Err(TryFeedError::Disconnected(1))
        ));
    }

    #[test]
    fn feed_future_parks_and_wakes_on_pop() {
        let (tx, rx) = channel_cfg::<i32>(1, None);
        tx.try_feed(0).unwrap();
        let (counts, waker) = count_waker();
        let mut cx = Context::from_waker(&waker);
        let mut fut = std::pin::pin!(tx.feed(1));
        assert!(fut.as_mut().poll(&mut cx).is_pending());
        assert_eq!(counts.0.load(Ordering::SeqCst), 0);
        // The pop releases a credit and wakes the parked producer.
        assert_eq!(rx.try_recv(), Ok(0));
        assert_eq!(counts.0.load(Ordering::SeqCst), 1);
        assert!(matches!(fut.as_mut().poll(&mut cx), Poll::Ready(Ok(()))));
        assert_eq!(rx.try_recv(), Ok(1));
    }

    #[test]
    fn exempt_lifts_bound_and_wakes_producers() {
        let (tx, rx) = channel_cfg::<i32>(1, None);
        tx.try_feed(0).unwrap();
        let (counts, waker) = count_waker();
        let mut cx = Context::from_waker(&waker);
        let mut fut = std::pin::pin!(tx.feed(1));
        assert!(fut.as_mut().poll(&mut cx).is_pending());
        rx.exempt();
        assert_eq!(counts.0.load(Ordering::SeqCst), 1);
        assert!(matches!(fut.as_mut().poll(&mut cx), Poll::Ready(Ok(()))));
        // Unbounded from here on: feeds no longer gate.
        for i in 2..100 {
            tx.try_feed(i).unwrap();
        }
    }

    #[test]
    fn acquire_and_send_each_reserved_batch() {
        let (tx, rx) = channel_cfg::<u32>(8, None);
        let (_c, waker) = count_waker();
        let mut cx = Context::from_waker(&waker);
        let mut fut = tx.acquire(5);
        let got = match Pin::new(&mut fut).poll(&mut cx) {
            Poll::Ready(Ok(n)) => n,
            other => panic!("acquire: {other:?}"),
        };
        assert_eq!(got, 5);
        assert_eq!(tx.send_each_reserved(0..5).unwrap(), 5);
        assert_eq!(rx.depth(), 5);
        // Partial grant when only part of the request fits.
        let mut fut = tx.acquire(10);
        let got = match Pin::new(&mut fut).poll(&mut cx) {
            Poll::Ready(Ok(n)) => n,
            other => panic!("acquire: {other:?}"),
        };
        assert_eq!(got, 3);
        assert_eq!(tx.send_each_reserved(5..8).unwrap(), 3);
        // Full: a further acquire parks.
        let mut fut = tx.acquire(1);
        assert!(Pin::new(&mut fut).poll(&mut cx).is_pending());
        for i in 0..8 {
            assert_eq!(rx.recv(), Ok(i));
        }
        assert_eq!(rx.depth(), 0);
    }

    #[test]
    fn bounded_spsc_stress_holds_depth_bound() {
        let (tx, rx) = channel_cfg::<u64>(4, None);
        let h = std::thread::spawn(move || {
            let mut sum = 0u64;
            let mut hwm = 0usize;
            loop {
                // Gated traffic only: depth never exceeds the bound.
                hwm = hwm.max(rx.depth());
                match rx.recv() {
                    Ok(v) => sum += v,
                    Err(_) => break,
                }
            }
            (sum, hwm)
        });
        for i in 0..10_000u64 {
            tx.feed_blocking(i, None).unwrap();
        }
        drop(tx);
        let (sum, hwm) = h.join().unwrap();
        assert_eq!(sum, (0..10_000u64).sum());
        assert!(hwm <= 4, "depth {hwm} exceeded bound 4");
    }

    #[test]
    fn edge_stats_record_depth_and_stalls() {
        let m = crate::metrics::Metrics::new();
        let stats = EdgeStats {
            depth: m.handle("edge/stream_depth"),
            stalls: m.handle("edge/credit_stalls"),
            depth_global: m.handle("runtime/stream_depth"),
            stalls_global: m.handle("runtime/credit_stalls"),
        };
        let (tx, rx) = channel_cfg::<i32>(2, Some(stats));
        tx.try_feed(1).unwrap();
        tx.try_feed(2).unwrap();
        assert_eq!(m.get("edge/stream_depth"), 2);
        assert_eq!(m.get("runtime/stream_depth"), 2);
        assert!(matches!(tx.try_feed(3), Err(TryFeedError::Full(_))));
        // `try_feed` never parks, so no stall yet; a deadline-bounded
        // blocking feed parks exactly once.
        assert_eq!(m.get("edge/credit_stalls"), 0);
        let _ = tx.feed_blocking(3, Some(std::time::Instant::now()));
        assert_eq!(m.get("edge/credit_stalls"), 1);
        assert_eq!(m.get("runtime/credit_stalls"), 1);
        drop(rx);
    }

    #[test]
    fn values_dropped_cleanly_when_channel_dropped_mid_stream() {
        // Arc payloads left in the queue must be released by Chan::drop.
        let payload = Arc::new(());
        let (tx, rx) = channel::<Arc<()>>();
        for _ in 0..(SEG_SIZE * 2 + 5) {
            tx.send(Arc::clone(&payload)).unwrap();
        }
        rx.recv().unwrap();
        drop(tx);
        drop(rx);
        assert_eq!(Arc::strong_count(&payload), 1);
    }
}
