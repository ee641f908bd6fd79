//! The request/response front door: [`Service`], [`CallHandle`] and
//! the demultiplexer that routes net output back to callers.

use crate::metrics::{keys, Metrics};
use crate::net::{send_policy, Boundary, Net, OverloadPolicy, SendRejected, ServeParts};
use crate::stream::{Msg, Receiver, Sender, RECV_BATCH};
use snet_types::{Label, Record};
use std::collections::HashMap;
use std::fmt;
use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::task::{Context, Poll, Waker};
use std::time::Instant;

/// The reserved request-id tag. The leading `#` puts it outside the
/// identifier alphabet of the `.snet` language (`[A-Za-z0-9_]+`), so
/// no user program can name it: it cannot appear in a box signature
/// (so flow inheritance always splits it off before the box function
/// runs and re-attaches it on every emit), in a filter expression, or
/// in a type annotation. At the Rust surface, [`Service::call`]
/// rejects records that already carry any `#rid` label, and the demux
/// strips the tag before a response reaches the caller — user code can
/// neither forge nor observe it.
pub const RESERVED_RID: &str = "#rid";

/// Why a call failed — at the ingress edge (returned synchronously by
/// [`Service::call`]) or on the completion side (resolved through the
/// [`CallHandle`]).
#[derive(Debug)]
pub enum CallError {
    /// The ingress edge rejected the record: type mismatch, shed under
    /// [`OverloadPolicy::Shed`], deadline under
    /// [`OverloadPolicy::Timeout`], or closed input.
    Rejected(SendRejected),
    /// The record already carries a [`RESERVED_RID`] label; accepting
    /// it would let a caller forge (or collide with) another request's
    /// correlation id.
    ReservedTag,
    /// The service shut down (net output reached end-of-stream) before
    /// this request completed.
    ServiceStopped,
    /// [`CallHandle::wait_deadline`] gave up before the response
    /// arrived; the request was abandoned (late records count as
    /// stray).
    Deadline,
    /// A component fault consumed one of this request's records: the
    /// stage at `component` panicked and the net's
    /// [`crate::FaultPolicy`] dropped the record (terminal skip after
    /// any restart budget). The request can never complete, so it
    /// resolves promptly instead of hanging to its deadline.
    Faulted { component: String, msg: String },
}

impl fmt::Display for CallError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CallError::Rejected(e) => write!(f, "ingress rejected request: {e}"),
            CallError::ReservedTag => {
                write!(f, "record carries the reserved {RESERVED_RID} label")
            }
            CallError::ServiceStopped => write!(f, "service stopped before the request completed"),
            CallError::Deadline => write!(f, "deadline elapsed before the request completed"),
            CallError::Faulted { component, msg } => {
                write!(f, "request faulted at {component}: {msg}")
            }
        }
    }
}

impl std::error::Error for CallError {}

/// A completed request: the response records (reserved tag already
/// stripped, net emission order) plus the demux-side completion
/// timestamp — latency measured against it excludes the caller's own
/// wakeup delay, which matters when handles are harvested lazily.
#[derive(Debug)]
pub struct Response {
    pub records: Vec<Record>,
    pub completed_at: Instant,
}

/// Outcome tally of a graceful [`Service::drain`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DrainReport {
    /// Requests completed over the service's lifetime (including the
    /// drain window).
    pub completed: u64,
    /// Requests resolved as [`CallError::Faulted`] over the
    /// service's lifetime.
    pub faulted: u64,
    /// Requests still open when the grace window closed; each fails
    /// with [`CallError::ServiceStopped`] as the net winds down.
    pub stranded: u64,
}

/// Per-request completion state, owned jointly by the caller's
/// [`CallHandle`] and the demux task. Lock order: the pending map's
/// lock is never taken while a slot lock is held.
struct SlotState {
    /// Records collected so far (response order = net emission order).
    got: Vec<Record>,
    /// How many records complete the request.
    expect: usize,
    /// Set exactly once: the terminal outcome.
    done: Option<Result<(), CallError>>,
    /// When the final record arrived (for latency measurement that
    /// excludes the caller's own wakeup delay).
    completed_at: Option<Instant>,
    /// Caller parked via the `Future` impl, if any.
    waker: Option<Waker>,
}

struct Slot {
    state: Mutex<SlotState>,
    cv: Condvar,
}

impl Slot {
    fn new(expect: usize) -> Arc<Slot> {
        Arc::new(Slot {
            state: Mutex::new(SlotState {
                got: Vec::new(),
                expect,
                done: None,
                completed_at: None,
                waker: None,
            }),
            cv: Condvar::new(),
        })
    }

    /// The slot state, recovering from poison: if the demux died while
    /// touching a slot, the caller must still observe its terminal
    /// outcome (set by `fail_pending`) rather than panic in `wait`.
    fn state(&self) -> MutexGuard<'_, SlotState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Sets the terminal outcome and its timestamp (first caller
    /// wins). Waiters are not woken: [`Slot::wake`] must follow.
    fn resolve(&self, outcome: Result<(), CallError>) {
        let mut st = self.state();
        if st.done.is_none() {
            st.done = Some(outcome);
            st.completed_at = Some(Instant::now());
        }
    }

    /// Wakes both kinds of waiters of a resolved slot.
    fn wake(&self) {
        let waker = self.state().waker.take();
        self.cv.notify_all();
        if let Some(w) = waker {
            w.wake();
        }
    }

    /// Marks the slot finished and wakes its waiters. Must be called
    /// with no other slot/pending lock held.
    fn finish(&self, outcome: Result<(), CallError>) {
        self.resolve(outcome);
        self.wake();
    }
}

/// Completion slots kept for reuse once their request has fully
/// resolved — enough for a deep pipeline of sequential callers
/// without letting an idle service pin memory.
const FREE_LIST_CAP: usize = 64;

/// Everything the demux task and the call handles share.
struct Inner {
    /// Ingress sender; `None` after [`Service::shutdown`] began. Calls
    /// clone the sender out under this lock (an `Arc` bump) so the
    /// potentially-blocking send itself happens lockless.
    input: Mutex<Option<Sender>>,
    /// In-flight requests by rid. A request leaves the map when it
    /// completes, is abandoned at a deadline, or fails at shutdown.
    pending: Mutex<HashMap<u64, Arc<Slot>>>,
    /// Completed slots parked for reuse. The demux parks a slot when
    /// it finishes a request; `call_with` pops one and recycles it
    /// only if the caller's handle is gone too (`Arc::get_mut`
    /// proves unique ownership), so a slot is never reset while
    /// anything can still read it.
    free: Mutex<Vec<Arc<Slot>>>,
    boundary: Boundary,
    overload: OverloadPolicy,
    metrics: Arc<Metrics>,
    next_rid: AtomicU64,
    inflight: AtomicU64,
}

impl Inner {
    /// The pending map, recovering from poison: a panic on the demux
    /// thread (e.g. a faulty observer) must not cascade into every
    /// caller's `wait`/`abandon` path — the map's state is a plain
    /// rid→slot registry, valid regardless of where the writer died.
    fn pending(&self) -> MutexGuard<'_, HashMap<u64, Arc<Slot>>> {
        self.pending.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Removes a request from the pending map (deadline abandonment);
    /// returns whether it was still there.
    fn abandon(&self, rid: u64) -> bool {
        let removed = self.pending().remove(&rid).is_some();
        if removed {
            self.inflight.fetch_sub(1, Ordering::Relaxed);
        }
        removed
    }

    fn free(&self) -> MutexGuard<'_, Vec<Arc<Slot>>> {
        self.free.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Parks a completed slot for reuse (bounded; excess slots just
    /// drop). Only called for slots whose terminal outcome is set —
    /// a parked slot can still be *read* by its caller, never
    /// written; the uniqueness check in [`Inner::take_free`] defers
    /// the actual reset until the caller is gone.
    fn park_slot(&self, slot: Arc<Slot>) {
        let mut free = self.free();
        if free.len() < FREE_LIST_CAP {
            free.push(slot);
        }
    }

    /// Pops a parked slot and resets it for `expect` records, if its
    /// previous caller has dropped every reference. A slot that is
    /// still shared (its caller has not harvested the handle yet) is
    /// discarded rather than re-queued — the demux will park fresh
    /// ones as requests complete.
    fn take_free(&self, expect: usize) -> Option<Arc<Slot>> {
        let mut slot = self.free().pop()?;
        let unique = Arc::get_mut(&mut slot).is_some();
        if !unique {
            return None;
        }
        // Re-borrow: the borrow above must end before we move `slot`.
        let st = Arc::get_mut(&mut slot)
            .expect("uniqueness just verified")
            .state
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner);
        st.got.clear();
        st.expect = expect;
        st.done = None;
        st.completed_at = None;
        st.waker = None;
        Some(slot)
    }
}

/// Per-call options for [`Service::call_with`].
#[derive(Clone, Copy, Debug)]
pub struct CallOpts {
    /// How many output records complete the request (most nets answer
    /// a request with exactly one record; a splitter workload may emit
    /// several).
    pub expect: usize,
    /// Ingress overload policy for this call; `None` inherits the
    /// net's policy (`Net::spawn_full`, default `Block`).
    pub policy: Option<OverloadPolicy>,
}

impl Default for CallOpts {
    fn default() -> CallOpts {
        CallOpts {
            expect: 1,
            policy: None,
        }
    }
}

/// A request/response session over one running network.
///
/// `Service` turns the SISO stream pair of a [`Net`] into a
/// many-caller front door: each [`Service::call`] stamps the record
/// with a fresh [`RESERVED_RID`] tag, flow inheritance carries the tag
/// through every box and filter untouched, and a demux task strips
/// it off the output edge to complete the caller's [`CallHandle`].
/// Ingress backpressure (PR 6's bounded edges) surfaces per call via
/// [`OverloadPolicy`].
pub struct Service {
    inner: Arc<Inner>,
    /// The net's context; its tracker also covers the demux task.
    ctx: Arc<crate::ctx::Ctx>,
}

impl Service {
    /// Starts serving requests over `net`. The net's output edge is
    /// consumed by the service's demux from now on — a component task
    /// on the net's executor, joined by [`Service::shutdown`] with the
    /// rest of the net.
    ///
    /// The service subscribes to the net's fault channel: when a
    /// contained fault drops a record carrying a request id, the
    /// owning request resolves promptly as [`CallError::Faulted`]
    /// instead of hanging to its deadline (see *Failure model* in
    /// [`crate::serve`]).
    pub fn start(net: Net) -> Service {
        let ServeParts {
            input,
            output,
            ctx,
            boundary,
            overload,
        } = net.into_serve_parts();
        let inner = Arc::new(Inner {
            input: Mutex::new(Some(input)),
            pending: Mutex::new(HashMap::new()),
            free: Mutex::new(Vec::new()),
            boundary,
            overload,
            metrics: Arc::clone(&ctx.metrics),
            next_rid: AtomicU64::new(1),
            inflight: AtomicU64::new(0),
        });
        {
            // `Inner` holds no Ctx, so this subscription creates no
            // reference cycle. Called from the faulting component's
            // thread: pending-map lock then slot lock, the demux's own
            // lock order.
            let inner = Arc::clone(&inner);
            let faulted = ctx.metrics.handle(keys::SERVE_FAULTED);
            ctx.on_fault(Arc::new(move |fault: &crate::fault::Fault| {
                let Some(rec) = &fault.dropped else { return };
                let Some(rid) = rec.tag(RESERVED_RID) else {
                    return;
                };
                let slot = inner.pending().remove(&(rid as u64));
                if let Some(slot) = slot {
                    inner.inflight.fetch_sub(1, Ordering::Relaxed);
                    faulted.inc(1);
                    slot.finish(Err(CallError::Faulted {
                        component: fault.component.clone(),
                        msg: fault.msg.clone(),
                    }));
                }
            }));
        }
        {
            // The demux is a component like any other: on the pool the
            // net's last stage wakes it on the worker it ran on, and
            // the response reaches the caller with one OS-level wake
            // (demux → caller) instead of two (egress → demux thread →
            // caller).
            let inner = Arc::clone(&inner);
            let ctx2 = Arc::clone(&ctx);
            ctx.spawn("snet-serve-demux", async move {
                // The demux is the only thing standing between the
                // net's output and every open slot: if it dies,
                // callers must not be stranded. Catch its panic at
                // every poll — it must not reach the task boundary,
                // where it would fail the net — count it, and fail
                // whatever is still pending.
                let mut demux = std::pin::pin!(demux_loop(&inner, &ctx2, &output));
                let died = std::future::poll_fn(|cx| {
                    let polled = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        demux.as_mut().poll(cx)
                    }));
                    match polled {
                        Ok(Poll::Pending) => Poll::Pending,
                        Ok(Poll::Ready(())) => Poll::Ready(false),
                        Err(_) => Poll::Ready(true),
                    }
                })
                .await;
                if died {
                    inner.metrics.handle(keys::SERVE_DEMUX_PANICS).inc(1);
                }
                fail_pending(&inner);
            });
        }
        Service { inner, ctx }
    }

    /// Issues a request expecting a single response record, under the
    /// net's ingress policy. See [`Service::call_with`].
    pub fn call(&self, rec: Record) -> Result<CallHandle, CallError> {
        self.call_with(rec, CallOpts::default())
    }

    /// Issues a request: boundary-checks the record, stamps it with a
    /// fresh request id and publishes it to the ingress edge under the
    /// overload policy. Ingress rejections (mismatch, shed, ingress
    /// deadline, closed) surface synchronously; the returned handle
    /// resolves when `opts.expect` response records have arrived.
    pub fn call_with(&self, mut rec: Record, opts: CallOpts) -> Result<CallHandle, CallError> {
        if rec.has(Label::tag(RESERVED_RID)) || rec.has(Label::field(RESERVED_RID)) {
            return Err(CallError::ReservedTag);
        }
        if !self.inner.boundary.accepts(&rec) {
            return Err(CallError::Rejected(self.inner.boundary.mismatch(&rec)));
        }
        let tx = match &*self.inner.input.lock().unwrap() {
            Some(tx) => tx.clone(),
            None => return Err(CallError::Rejected(SendRejected::Closed)),
        };
        let rid = self.inner.next_rid.fetch_add(1, Ordering::Relaxed);
        rec.set_tag(RESERVED_RID, rid as i64);
        let expect = opts.expect.max(1);
        let slot = match self.inner.take_free(expect) {
            Some(slot) => {
                self.inner.metrics.handle(keys::SERVE_SLOT_REUSE).inc(1);
                slot
            }
            None => Slot::new(expect),
        };
        // Register before sending: on a fast net the response can
        // reach the demux before `call_with` returns.
        self.inner.pending().insert(rid, Arc::clone(&slot));
        let inflight = self.inner.inflight.fetch_add(1, Ordering::Relaxed) + 1;
        self.inner
            .metrics
            .handle(keys::SERVE_INFLIGHT)
            .max(inflight);
        let policy = opts.policy.unwrap_or(self.inner.overload);
        if let Err(e) = send_policy(&tx, rec, policy) {
            self.inner.abandon(rid);
            return Err(CallError::Rejected(e));
        }
        self.inner.metrics.handle(keys::SERVE_REQUESTS).inc(1);
        Ok(CallHandle {
            rid,
            issued_at: Instant::now(),
            slot,
            inner: Arc::clone(&self.inner),
        })
    }

    /// The service's metrics registry (shared with the underlying
    /// net's components).
    pub fn metrics(&self) -> &Arc<Metrics> {
        &self.inner.metrics
    }

    /// Requests currently in flight (issued, not yet completed or
    /// abandoned).
    pub fn inflight(&self) -> u64 {
        self.inner.inflight.load(Ordering::Relaxed)
    }

    /// The executor the underlying network runs on.
    pub fn executor(&self) -> &Arc<dyn crate::sched::Executor> {
        self.ctx.executor()
    }

    /// Stops accepting requests, drains the network and joins every
    /// component (propagating component panics). Requests still in
    /// flight complete normally if the net answers them during the
    /// drain; any left unanswered fail with
    /// [`CallError::ServiceStopped`].
    pub fn shutdown(self) {
        self.begin_shutdown();
        // Joins the demux task too: it fails the stragglers on
        // end-of-stream before it completes.
        self.ctx.join_all();
    }

    /// Graceful drain: stop intake immediately, give in-flight
    /// requests up to `grace` to flush through the net, then shut
    /// down. New calls are rejected (`Closed`) from the moment drain
    /// begins; requests the net answers within the grace window
    /// complete normally; whatever is still open afterwards fails
    /// with [`CallError::ServiceStopped`] when the demux sees
    /// end-of-stream. Returns the outcome tally.
    pub fn drain(self, grace: std::time::Duration) -> DrainReport {
        self.begin_shutdown();
        let deadline = Instant::now() + grace;
        while self.inflight() > 0 && Instant::now() < deadline {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let stranded = self.inflight();
        self.ctx.join_all();
        DrainReport {
            completed: self.inner.metrics.get(keys::SERVE_COMPLETED),
            faulted: self.inner.metrics.get(keys::SERVE_FAULTED),
            stranded,
        }
    }

    /// Drops the ingress sender so the net sees end-of-stream once
    /// in-flight `call_with` clones finish.
    fn begin_shutdown(&self) {
        self.inner.input.lock().unwrap().take();
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        // Best effort: close ingress so the net and demux wind down on
        // their own. Explicit `shutdown()` joins and propagates panics;
        // a plain drop must not block the caller.
        self.begin_shutdown();
    }
}

impl fmt::Debug for Service {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Service {{ sig: {} -> {}, inflight: {} }}",
            self.inner.boundary.sig().input_type(),
            self.inner.boundary.sig().output_type(),
            self.inflight()
        )
    }
}

/// The demux loop: pops the net's output edge, strips the reserved
/// tag and completes the owning request's slot. Records with no (or an
/// unknown) request id — possible only if a user program sent records
/// into the service's net by other means, or if a record arrived
/// after its caller gave up — are dropped, counted under
/// `serve/stray`, and reported to stream observers at the
/// `serve/stray` path so the drop is attributable, not silent.
async fn demux_loop(inner: &Inner, ctx: &crate::ctx::Ctx, output: &Receiver) {
    let completed = inner.metrics.handle(keys::SERVE_COMPLETED);
    let stray = inner.metrics.handle(keys::SERVE_STRAY);
    let observing = ctx.has_observers();
    let stray_path = crate::path::CompPath::root("serve").child("stray");
    let drop_stray = |rec: &Record| {
        stray.inc(1);
        if observing {
            ctx.observe(stray_path, crate::stream::Dir::In, rec);
        }
    };
    let mut resolved = Resolved {
        inner,
        slots: Vec::new(),
    };
    let route = |msg: Msg, resolved: &mut Resolved<'_>| {
        // Sort records are net-internal; a well-formed net never
        // leaks them, skip defensively (same as `Net::recv`).
        let Msg::Rec(mut rec) = msg else { return };
        let Some(rid) = rec.tag(RESERVED_RID) else {
            drop_stray(&rec);
            return;
        };
        let rid = rid as u64;
        rec.remove(Label::tag(RESERVED_RID));
        // Bind the lookup to a variable so the map guard drops
        // here — observers (via `drop_stray`) and slot locks
        // must never run under the pending lock.
        let slot = inner.pending().get(&rid).map(Arc::clone);
        let Some(slot) = slot else {
            // Completed, abandoned at a deadline, faulted,
            // or forged upstream: nobody is waiting.
            drop_stray(&rec);
            return;
        };
        let finished = {
            let mut st = slot.state();
            st.got.push(rec);
            st.got.len() >= st.expect
        };
        // Remove-then-resolve, honouring the pending→slot lock order.
        if finished && inner.pending().remove(&rid).is_some() {
            inner.inflight.fetch_sub(1, Ordering::Relaxed);
            completed.inc(1);
            slot.resolve(Ok(()));
            resolved.slots.push(slot);
        }
    };
    // One batch per wake, callers woken after it: the completion stamp
    // is taken record by record, the wake-ups (a futex call each, and
    // on a busy CPU a preemption by the woken caller) once the batch
    // is through — a lone request is a batch of one and waits for
    // nothing, and the executor's time slice bounds a long batch.
    loop {
        let n = output
            .recv_each(RECV_BATCH, &mut |msg| route(msg, &mut resolved))
            .await;
        resolved.wake_all();
        if n == 0 {
            break;
        }
    }
}

/// Requests the demux resolved in its current batch whose callers are
/// still to be woken. Wakes them on drop too, so a demux that dies
/// mid-batch strands nobody it had already answered.
struct Resolved<'a> {
    inner: &'a Inner,
    slots: Vec<Arc<Slot>>,
}

impl Resolved<'_> {
    fn wake_all(&mut self) {
        for slot in self.slots.drain(..) {
            slot.wake();
            self.inner.park_slot(slot);
        }
    }
}

impl Drop for Resolved<'_> {
    fn drop(&mut self) {
        self.wake_all();
    }
}

/// Fails every request still pending with
/// [`CallError::ServiceStopped`]. Runs when the demux exits — on
/// end-of-stream *or* after a demux panic — so no caller is ever
/// stranded on an open slot.
fn fail_pending(inner: &Inner) {
    let stranded: Vec<Arc<Slot>> = {
        let mut pending = inner.pending();
        let slots = pending.values().map(Arc::clone).collect();
        pending.clear();
        slots
    };
    for slot in &stranded {
        inner.inflight.fetch_sub(1, Ordering::Relaxed);
        slot.finish(Err(CallError::ServiceStopped));
    }
}

/// A pending request: a [`Future`] resolving to the response records,
/// with blocking companions ([`CallHandle::wait`],
/// [`CallHandle::wait_deadline`]) for thread-based callers.
pub struct CallHandle {
    rid: u64,
    issued_at: Instant,
    slot: Arc<Slot>,
    inner: Arc<Inner>,
}

impl CallHandle {
    /// The request id assigned to this call (diagnostic only — the tag
    /// itself never appears in responses).
    pub fn rid(&self) -> u64 {
        self.rid
    }

    /// When the request entered the ingress edge.
    pub fn issued_at(&self) -> Instant {
        self.issued_at
    }

    /// Blocks until the response is complete.
    pub fn wait(self) -> Result<Response, CallError> {
        let mut st = self.slot.state();
        while st.done.is_none() {
            st = self
                .slot
                .cv
                .wait(st)
                .unwrap_or_else(PoisonError::into_inner);
        }
        Self::take(&mut st)
    }

    /// Like [`CallHandle::wait`] with a deadline: past it the request
    /// is abandoned ([`CallError::Deadline`]) and any late response
    /// records count as stray.
    pub fn wait_deadline(self, deadline: Instant) -> Result<Response, CallError> {
        {
            let mut st = self.slot.state();
            while st.done.is_none() {
                let now = Instant::now();
                if now >= deadline {
                    break;
                }
                let (guard, _timeout) = self
                    .slot
                    .cv
                    .wait_timeout(st, deadline - now)
                    .unwrap_or_else(PoisonError::into_inner);
                st = guard;
            }
            if st.done.is_some() {
                return Self::take(&mut st);
            }
        }
        // Timed out: withdraw from the pending map, then re-check —
        // the demux may have completed the request in the window
        // between the wait and the removal.
        self.inner.abandon(self.rid);
        let mut st = self.slot.state();
        match st.done {
            Some(_) => Self::take(&mut st),
            None => Err(CallError::Deadline),
        }
    }

    /// Completion timestamp (demux-side, excludes caller wakeup
    /// latency); `None` until the request completes.
    pub fn completed_at(&self) -> Option<Instant> {
        self.slot.state().completed_at
    }

    fn take(st: &mut SlotState) -> Result<Response, CallError> {
        match st.done.as_ref().expect("call outcome set") {
            Ok(()) => Ok(Response {
                records: std::mem::take(&mut st.got),
                completed_at: st.completed_at.unwrap_or_else(Instant::now),
            }),
            Err(CallError::ServiceStopped) => Err(CallError::ServiceStopped),
            Err(CallError::Deadline) => Err(CallError::Deadline),
            Err(CallError::ReservedTag) => Err(CallError::ReservedTag),
            Err(CallError::Faulted { component, msg }) => Err(CallError::Faulted {
                component: component.clone(),
                msg: msg.clone(),
            }),
            // `Rejected` never reaches a slot (it surfaces from
            // `call_with` synchronously).
            Err(CallError::Rejected(_)) => Err(CallError::ServiceStopped),
        }
    }
}

impl Future for CallHandle {
    type Output = Result<Response, CallError>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let mut st = self.slot.state();
        if st.done.is_some() {
            return Poll::Ready(Self::take(&mut st));
        }
        st.waker = Some(cx.waker().clone());
        Poll::Pending
    }
}

impl fmt::Debug for CallHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "CallHandle {{ rid: {} }}", self.rid)
    }
}
