//! The request/response front door: [`Service`], [`CallHandle`] and
//! the demultiplexer that routes net output back to callers.

use crate::metrics::{keys, Counter, Metrics};
use crate::net::{send_policy, Boundary, Net, OverloadPolicy, SendRejected};
use crate::stream::chan::with_parker;
use crate::stream::{Msg, Receiver, Sender, RECV_BATCH};
use snet_types::{Label, Record};
use std::fmt;
use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, LazyLock, Mutex, MutexGuard, OnceLock, PoisonError};
use std::task::{Context, Poll, Waker};
use std::time::{Duration, Instant};

/// The reserved request-id tag. The leading `#` puts it outside the
/// identifier alphabet of the `.snet` language, [`Service::call`]
/// rejects records that already carry it and the demux strips it —
/// user code can neither forge nor observe it (*The reserved-tag
/// invariant* in [`crate::serve`]).
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

/// Low bits of a request id: the slot's index in the table. The rest
/// is the slot's generation when the request opened.
const IDX_BITS: u32 = 24;
const IDX_MASK: u64 = (1 << IDX_BITS) - 1;
/// Slots in the table's first segment; each further one doubles.
const SEG0: usize = 8;
const SEGS: usize = (IDX_BITS - SEG0.ilog2()) as usize + 1;

/// Completion stamps count nanoseconds from here, plus one.
static EPOCH: LazyLock<Instant> = LazyLock::new(Instant::now);

/// What the slot lock guards.
#[derive(Default)]
struct SlotState {
    /// Records collected so far (response order = net emission order).
    got: Vec<Record>,
    /// How many records complete the request.
    expect: usize,
    /// Why the request failed; `None` under a stamp: it completed.
    failed: Option<CallError>,
    /// Whoever polled the handle and found no outcome yet.
    waiter: Option<Waker>,
}

/// One entry of the correlation table (*Correlation* in
/// [`crate::serve`]), owned by its request's handle until that is
/// harvested or dropped.
#[derive(Default)]
struct Slot {
    /// Bumped when a request opens here and when it closes: odd while
    /// open, and equal to the generation in that request's id only
    /// until it closes. Written under `state` only (`Release`); a read
    /// outside it (`Acquire`) is a hint, confirmed under the lock.
    gen: AtomicU64,
    /// When the outcome was set, ns since `EPOCH` plus one; 0 while
    /// there is none. Stored under `state` (`Release`), readable
    /// without it (`Acquire`).
    stamp: AtomicU64,
    state: Mutex<SlotState>,
}

impl Slot {
    /// The slot state, recovering from poison: no user code runs under
    /// this lock and every update leaves it valid, so a caller still
    /// reaches its outcome after another thread died here.
    fn state(&self) -> MutexGuard<'_, SlotState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Opens or closes the slot. A plain load and store: every writer
    /// holds the slot lock.
    fn bump(&self) -> u64 {
        let gen = self.gen.load(Ordering::Relaxed) + 1;
        self.gen.store(gen, Ordering::Release);
        gen
    }
}

/// The one correlation structure, shared by the service, its demux,
/// its fault subscription and every call handle. A slot lock and the
/// free-list lock are both leaves, never held together.
#[derive(Default)]
struct Table {
    /// Segment `k` holds `SEG0 << k` slots and never moves once
    /// allocated, so a slot is reached from its index without a lock.
    segs: [OnceLock<Box<[Slot]>>; SEGS],
    /// Indexes whose handle is gone (last freed, first reissued) and
    /// the next index never used. The one lock callers share.
    free: Mutex<(Vec<usize>, usize)>,
    inflight: AtomicU64,
}

impl Table {
    fn place(idx: usize) -> (usize, usize) {
        let n = idx + SEG0;
        let k = (n.ilog2() - SEG0.ilog2()) as usize;
        (k, n - (SEG0 << k))
    }

    /// The slot an issued request id names.
    fn slot(&self, rid: u64) -> Option<&Slot> {
        let (k, off) = Table::place((rid & IDX_MASK) as usize);
        self.segs[k].get()?.get(off)
    }

    /// The slot `rid` is open on, locked — `None` for a stray id:
    /// completed, abandoned, faulted, stopped or never issued.
    fn open_slot(&self, rid: u64) -> Option<(&Slot, MutexGuard<'_, SlotState>)> {
        let slot = self.slot(rid)?;
        let open = || slot.gen.load(Ordering::Acquire) << IDX_BITS == rid & !IDX_MASK;
        if !open() {
            return None;
        }
        let st = slot.state();
        open().then_some((slot, st))
    }

    /// Opens a request for `expect` records on a free slot, growing
    /// the table when there is none: the request id and whether the
    /// slot was used before, `None` with `1 << IDX_BITS` handles alive.
    fn open(&self, expect: usize) -> Option<(u64, bool)> {
        let (idx, reused) = {
            let mut free = self.free.lock().unwrap_or_else(PoisonError::into_inner);
            match free.0.pop() {
                Some(idx) => (idx, true),
                None if free.1 as u64 > IDX_MASK => return None,
                None => {
                    free.1 += 1;
                    (free.1 - 1, false)
                }
            }
        };
        let (k, off) = Table::place(idx);
        let seg = self.segs[k].get_or_init(|| (0..SEG0 << k).map(|_| Slot::default()).collect());
        let mut st = seg[off].state();
        st.expect = expect;
        self.inflight.fetch_add(1, Ordering::Relaxed);
        Some((seg[off].bump() << IDX_BITS | idx as u64, reused))
    }

    /// Ends the request open on `slot` without an outcome. The caller
    /// holds the slot lock and found the request open under it.
    fn close(&self, slot: &Slot) {
        slot.bump();
        self.inflight.fetch_sub(1, Ordering::Relaxed);
    }

    /// [`Table::close`] with an outcome; returns who to wake.
    fn resolve(&self, slot: &Slot, st: &mut SlotState, err: Option<CallError>) -> Option<Waker> {
        st.failed = err;
        let stamp = EPOCH.elapsed().as_nanos() as u64 + 1;
        slot.stamp.store(stamp, Ordering::Release);
        self.close(slot);
        st.waiter.take()
    }

    /// Adds a record to the request `rid` is open on, else hands the
    /// stray back. `Ok(Some(w))`: it completed the request, wake `w`.
    fn deliver(&self, rid: u64, rec: Record) -> Result<Option<Option<Waker>>, Record> {
        let Some((slot, mut st)) = self.open_slot(rid) else {
            return Err(rec);
        };
        st.got.push(rec);
        let done = st.got.len() >= st.expect;
        Ok(done.then(|| self.resolve(slot, &mut st, None)))
    }

    /// Fails the request open on `slot` and wakes its caller.
    fn fail(&self, slot: &Slot, mut st: MutexGuard<'_, SlotState>, err: CallError) {
        let waiter = self.resolve(slot, &mut st, Some(err));
        drop(st);
        if let Some(waiter) = waiter {
            waiter.wake();
        }
    }

    /// Fails every open request with [`CallError::ServiceStopped`]:
    /// the demux's last act, on end-of-stream *or* after its panic.
    fn fail_all(&self) {
        for seg in self.segs.iter().filter_map(OnceLock::get) {
            for slot in seg.iter() {
                let st = slot.state();
                if slot.gen.load(Ordering::Relaxed) & 1 == 1 {
                    self.fail(slot, st, CallError::ServiceStopped);
                }
            }
        }
    }

    /// A handle's end, under its slot's lock: takes the outcome, or
    /// abandons the request if it has none yet (late records then go
    /// stray), and frees the slot for reissue.
    fn release(&self, rid: u64, slot: &Slot, mut st: MutexGuard<'_, SlotState>) -> CallResult {
        let stamp = slot.stamp.load(Ordering::Relaxed);
        slot.stamp.store(0, Ordering::Relaxed);
        let out = match st.failed.take() {
            Some(err) => Err(err),
            None if stamp == 0 => {
                self.close(slot);
                Err(CallError::Deadline)
            }
            None => Ok(Response {
                records: std::mem::take(&mut st.got),
                completed_at: *EPOCH + Duration::from_nanos(stamp - 1),
            }),
        };
        st.got.clear();
        let stale = st.waiter.take();
        drop(st);
        drop(stale);
        let mut free = self.free.lock().unwrap_or_else(PoisonError::into_inner);
        free.0.push((rid & IDX_MASK) as usize);
        out
    }
}

type CallResult = Result<Response, CallError>;

/// Per-call options for [`Service::call_with`].
#[derive(Clone, Copy, Debug)]
pub struct CallOpts {
    /// How many output records complete the request (most nets answer
    /// a request with exactly one record; a splitter workload may emit
    /// several).
    pub expect: usize,
    /// Ingress overload policy for this call; `None` inherits the
    /// net's policy (`RunCfg::overload`, default `Block`).
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

/// A request/response session over one running network: the SISO
/// stream pair of a [`Net`] turned into a many-caller front door (see
/// [`crate::serve`]).
pub struct Service {
    table: Arc<Table>,
    /// Ingress sender, shared by every caller; taken when shutdown
    /// begins (by value, so no call sees `None`). A plain drop drops it
    /// too: the net winds down on its own, only `shutdown()` joins.
    input: Option<Sender>,
    boundary: Boundary,
    /// The reserved label, both kinds, interned once.
    rid_tag: Label,
    rid_field: Label,
    requests: Counter,
    slot_reuse: Counter,
    inflight_max: Counter,
    /// The net's context; its tracker also covers the demux task.
    ctx: Arc<crate::ctx::Ctx>,
}

impl Service {
    /// Starts serving requests over `net`. The net's output edge is
    /// consumed by the service's demux from now on — a component task
    /// on the net's executor, joined by [`Service::shutdown`] with the
    /// rest of the net. The service also subscribes to the net's fault
    /// channel, so a request whose record a contained fault dropped
    /// resolves as [`CallError::Faulted`] at once (*Failure model* in
    /// [`crate::serve`]).
    pub fn start(net: Net) -> Service {
        let Net {
            input,
            output,
            ctx,
            boundary,
        } = net;
        let input = input.expect("cannot serve a network whose input is closed");
        let metrics = &ctx.metrics;
        let table = Arc::new(Table::default());
        let rid_tag = Label::tag(RESERVED_RID);
        {
            // The table holds no Ctx, so this subscription creates no
            // reference cycle. Called from the faulting component's
            // thread.
            let table = Arc::clone(&table);
            let faulted = metrics.handle(keys::SERVE_FAULTED);
            ctx.on_fault(Arc::new(move |fault: &crate::fault::Fault| {
                let rid = fault.dropped.as_ref().and_then(|r| r.tag_label(rid_tag));
                let Some(rid) = rid else { return };
                let err = CallError::Faulted {
                    component: fault.component.clone(),
                    msg: fault.msg.clone(),
                };
                if let Some((slot, st)) = table.open_slot(rid as u64) {
                    table.fail(slot, st, err);
                    faulted.inc(1);
                }
            }));
        }
        {
            // The demux is a component like any other: on the pool the
            // net's last stage wakes it on the worker it ran on, and
            // the response reaches the caller with one OS-level wake
            // (demux → caller) instead of two (egress → demux thread →
            // caller).
            let table = Arc::clone(&table);
            let ctx2 = Arc::clone(&ctx);
            ctx.spawn("snet-serve-demux", async move {
                // If the demux dies, callers must not be stranded.
                // Catch its panic at every poll — at the task boundary
                // it would fail the net — count it, and fail whatever
                // is still open.
                let mut demux = std::pin::pin!(demux_loop(&table, &ctx2, &output, rid_tag));
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
                    ctx2.metrics.handle(keys::SERVE_DEMUX_PANICS).inc(1);
                }
                table.fail_all();
            });
        }
        Service {
            table,
            input: Some(input),
            boundary,
            rid_tag,
            rid_field: Label::field(RESERVED_RID),
            requests: metrics.handle(keys::SERVE_REQUESTS),
            slot_reuse: metrics.handle(keys::SERVE_SLOT_REUSE),
            inflight_max: metrics.handle(keys::SERVE_INFLIGHT),
            ctx,
        }
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
        if rec.has(self.rid_tag) || rec.has(self.rid_field) {
            return Err(CallError::ReservedTag);
        }
        if !self.boundary.accepts(&rec) {
            return Err(CallError::Rejected(self.boundary.mismatch(&rec)));
        }
        let Some(tx) = &self.input else {
            return Err(CallError::Rejected(SendRejected::Closed));
        };
        // A full table is an overload like a full ingress edge.
        let (rid, reused) = self
            .table
            .open(opts.expect.max(1))
            .ok_or(CallError::Rejected(SendRejected::Overloaded))?;
        if reused {
            self.slot_reuse.inc(1);
        }
        // A load on the usual path: `max` is a locked operation even
        // when it changes nothing.
        let inflight = self.inflight();
        if inflight > self.inflight_max.get() {
            self.inflight_max.max(inflight);
        }
        rec.set_tag_label(self.rid_tag, rid as i64);
        // The handle owns the slot before the record leaves: the answer
        // can reach the demux before this returns, and a rejected (or
        // panicking) send drops the handle, which frees the slot.
        let handle = CallHandle {
            rid,
            issued_at: Instant::now(),
            table: Arc::clone(&self.table),
            live: true,
        };
        send_policy(tx, rec, opts.policy.unwrap_or(self.ctx.cfg().overload))
            .map_err(CallError::Rejected)?;
        self.requests.inc(1);
        Ok(handle)
    }

    /// The service's metrics registry (shared with the underlying
    /// net's components).
    pub fn metrics(&self) -> &Arc<Metrics> {
        &self.ctx.metrics
    }

    /// Requests currently in flight (issued, not yet completed or
    /// abandoned).
    pub fn inflight(&self) -> u64 {
        self.table.inflight.load(Ordering::Relaxed)
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
    pub fn shutdown(mut self) {
        // Closing ingress ends the net's input; the join covers the
        // demux too, which fails the stragglers before it completes.
        self.input.take();
        self.ctx.join_all();
    }

    /// Graceful drain: stop intake immediately, give in-flight
    /// requests up to `grace` to flush through the net, then shut
    /// down. Requests the net answers within the grace window
    /// complete normally; whatever is still open afterwards fails
    /// with [`CallError::ServiceStopped`] when the demux sees
    /// end-of-stream. Returns the outcome tally.
    pub fn drain(mut self, grace: Duration) -> DrainReport {
        self.input.take();
        let deadline = Instant::now() + grace;
        while self.inflight() > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        let stranded = self.inflight();
        self.ctx.join_all();
        DrainReport {
            completed: self.ctx.metrics.get(keys::SERVE_COMPLETED),
            faulted: self.ctx.metrics.get(keys::SERVE_FAULTED),
            stranded,
        }
    }
}

impl fmt::Debug for Service {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Service {{ sig: {} -> {}, inflight: {} }}",
            self.boundary.sig().input_type(),
            self.boundary.sig().output_type(),
            self.inflight()
        )
    }
}

/// The demux loop: pops the net's output edge, strips the reserved
/// tag and completes the owning request's slot. Records with no (or a
/// stale) request id — sent into the service's net by other means, or
/// arriving after their request closed — are dropped, counted under
/// `serve/stray` and shown to stream observers at that path.
async fn demux_loop(table: &Table, ctx: &crate::ctx::Ctx, output: &Receiver, rid_tag: Label) {
    let completed = ctx.metrics.handle(keys::SERVE_COMPLETED);
    let stray = ctx.metrics.handle(keys::SERVE_STRAY);
    let observing = ctx.has_observers();
    let stray_path = crate::path::CompPath::root("serve").child("stray");
    // Observers run under no lock.
    let drop_stray = |rec: &Record| {
        stray.inc(1);
        if observing {
            ctx.observe(stray_path, crate::stream::Dir::In, rec);
        }
    };
    let mut wakes = Wakes(Vec::new());
    let route = |msg: Msg, wakes: &mut Wakes| {
        // Sort records are net-internal; a well-formed net never
        // leaks them, skip defensively (same as `Net::recv`).
        let Msg::Rec(mut rec) = msg else { return };
        let Some(rid) = rec.tag_label(rid_tag) else {
            drop_stray(&rec);
            return;
        };
        rec.remove(rid_tag);
        match table.deliver(rid as u64, rec) {
            Err(rec) => drop_stray(&rec),
            Ok(None) => {}
            Ok(Some(waiter)) => {
                completed.inc(1);
                wakes.0.extend(waiter);
            }
        }
    };
    // One batch per wake, callers woken after it: the completion stamp
    // is taken record by record, the wake-ups (a futex call each, and
    // on a busy CPU a preemption by the woken caller) once the batch
    // is through — a lone request is a batch of one and waits for
    // nothing, and the executor's time slice bounds a long batch.
    loop {
        let n = output
            .recv_each(RECV_BATCH, &mut |msg| route(msg, &mut wakes))
            .await;
        wakes.flush();
        if n == 0 {
            break;
        }
    }
}

/// Callers the demux answered in its current batch and has yet to
/// wake. Wakes them on drop too, so a demux that dies mid-batch
/// strands nobody it had already answered.
struct Wakes(Vec<Waker>);

impl Wakes {
    fn flush(&mut self) {
        self.0.drain(..).for_each(Waker::wake);
    }
}

impl Drop for Wakes {
    fn drop(&mut self) {
        self.flush();
    }
}

/// A pending request: a [`Future`] resolving to the response records,
/// with blocking companions ([`CallHandle::wait`],
/// [`CallHandle::wait_deadline`]) for thread-based callers. Dropping
/// an unresolved handle abandons the request like a passed deadline
/// does: its late records count as stray.
pub struct CallHandle {
    rid: u64,
    issued_at: Instant,
    table: Arc<Table>,
    /// Still owns its slot: neither harvested nor abandoned yet.
    live: bool,
}

impl CallHandle {
    fn slot(&self) -> &Slot {
        self.table.slot(self.rid).expect("a handle's slot exists")
    }

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
        self.wait_until(None)
    }

    /// Like [`CallHandle::wait`] with a deadline: past it the request
    /// is abandoned ([`CallError::Deadline`]) and any late response
    /// records count as stray.
    pub fn wait_deadline(self, deadline: Instant) -> Result<Response, CallError> {
        self.wait_until(Some(deadline))
    }

    /// Polls the handle from this thread, parked in between.
    fn wait_until(mut self, deadline: Option<Instant>) -> Result<Response, CallError> {
        with_parker(|parker, waker| {
            let mut cx = Context::from_waker(waker);
            loop {
                if let Poll::Ready(out) = Pin::new(&mut self).poll(&mut cx) {
                    return out;
                }
                // Dropping the handle abandons the request.
                if !parker.park(deadline) {
                    return Err(CallError::Deadline);
                }
            }
        })
    }

    /// Completion timestamp (demux-side, excludes caller wakeup
    /// latency); `None` until the request completes.
    pub fn completed_at(&self) -> Option<Instant> {
        let stamp = self.slot().stamp.load(Ordering::Acquire);
        (self.live && stamp != 0).then(|| *EPOCH + Duration::from_nanos(stamp - 1))
    }
}

impl Future for CallHandle {
    type Output = Result<Response, CallError>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        // The slot may be another request's by now.
        assert!(this.live, "CallHandle polled after it resolved");
        let slot = this.slot();
        let mut st = slot.state();
        if slot.stamp.load(Ordering::Acquire) == 0 {
            // Registered under the lock the demux resolves under: it
            // either sees the waiter or has already set the stamp.
            st.waiter = Some(cx.waker().clone());
            return Poll::Pending;
        }
        let out = this.table.release(this.rid, slot, st);
        this.live = false;
        Poll::Ready(out)
    }
}

impl Drop for CallHandle {
    fn drop(&mut self) {
        if self.live {
            let slot = self.slot();
            let _ = self.table.release(self.rid, slot, slot.state());
        }
    }
}

impl fmt::Debug for CallHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "CallHandle {{ rid: {} }}", self.rid)
    }
}
