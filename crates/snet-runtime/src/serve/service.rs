//! The request/response front door: [`Service`], [`CallHandle`] and
//! the egress drain that routes net output back to callers.

use crate::ctx::Ctx;
use crate::metrics::{keys, Counter, Metrics};
use crate::net::{send_policy, Boundary, Net, OverloadPolicy, SendRejected};
use crate::path::CompPath;
use crate::sched::{as_waiter, Executor};
use crate::stream::chan::{poll_budget, set_poll_budget, wait_on};
use crate::stream::{Dir, Msg, Receiver, Sender, RECV_BATCH};
use snet_types::Record;
use std::fmt;
use std::future::Future;
use std::panic::AssertUnwindSafe;
use std::pin::Pin;
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, LazyLock, Mutex, MutexGuard, OnceLock, PoisonError};
use std::task::{Context, Poll, Wake, Waker};
use std::time::{Duration, Instant};

/// Why a call failed — at the ingress edge (returned synchronously by
/// [`Service::call`]) or on the completion side (resolved through the
/// [`CallHandle`]).
#[derive(Debug)]
pub enum CallError {
    /// The ingress edge rejected the record: type mismatch, shed under
    /// [`OverloadPolicy::Shed`], deadline under
    /// [`OverloadPolicy::Timeout`], or closed input.
    Rejected(SendRejected),
    /// The service shut down (net output reached end-of-stream) before
    /// this request completed.
    ServiceStopped,
    /// [`CallHandle::wait_deadline`] gave up before the response
    /// arrived; the request was abandoned (late records count as
    /// stray).
    Deadline,
    /// A component fault consumed one of this request's records: the
    /// stage at `component` panicked and the net's
    /// [`crate::FaultPolicy::SkipRecord`] dropped the record. The
    /// request can never complete, so it resolves promptly instead of
    /// hanging to its deadline.
    Faulted { component: String, msg: String },
    /// The [`CallHandle`] was polled again after it resolved: its
    /// outcome went to the first poll that saw it, and its slot may
    /// serve another request by now.
    PolledAfterResolved,
}

impl fmt::Display for CallError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CallError::Rejected(e) => write!(f, "ingress rejected request: {e}"),
            CallError::ServiceStopped => write!(f, "service stopped before the request completed"),
            CallError::Deadline => write!(f, "deadline elapsed before the request completed"),
            CallError::Faulted { component, msg } => {
                write!(f, "request faulted at {component}: {msg}")
            }
            CallError::PolledAfterResolved => write!(f, "call handle polled after it resolved"),
        }
    }
}

impl std::error::Error for CallError {}

/// A completed request: the response records (request id already
/// cleared, net emission order) plus the egress-side completion
/// timestamp — latency measured against it excludes the caller's own
/// wakeup delay, which matters when handles are harvested lazily.
#[derive(Debug)]
pub struct Response {
    pub records: Vec<Record>,
    pub completed_at: Instant,
}

/// Outcome tally of a service, returned by [`Service::shutdown`]:
/// every request counts once, in the outcome its handle resolved to.
/// Requests the caller abandoned (a passed deadline, a dropped handle)
/// count in none, so the three sum to at most the requests issued.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DrainReport {
    /// Requests answered with their full response.
    pub completed: u64,
    /// Requests resolved as [`CallError::Faulted`].
    pub faulted: u64,
    /// Requests the net never answered, resolved as
    /// [`CallError::ServiceStopped`] when its output edge ended.
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
    /// until it closes. Opened by the caller that took the slot off
    /// the free list, closed under `state` (`Release` both); a read
    /// outside the lock (`Acquire`) is a hint, confirmed under it.
    gen: AtomicU64,
    /// When the outcome was set, ns since `EPOCH` plus one; 0 while
    /// there is none. Stored under `state` (`Release`), readable
    /// without it (`Acquire`).
    stamp: AtomicU64,
    /// How many records complete the open request. Stored before the
    /// opening bump, so whoever finds the request open reads it.
    expect: AtomicUsize,
    state: Mutex<SlotState>,
}

impl Slot {
    /// The slot state, recovering from poison: no user code runs under
    /// this lock and every update leaves it valid, so a caller still
    /// reaches its outcome after another thread died here.
    fn state(&self) -> MutexGuard<'_, SlotState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Opens or closes the slot. A plain load and store: one writer at
    /// a time, because a closed slot is written only by the caller that
    /// took it off the free list, and an open one only under its lock
    /// by whoever found the request open there.
    fn bump(&self) -> u64 {
        let gen = self.gen.load(Ordering::Relaxed) + 1;
        self.gen.store(gen, Ordering::Release);
        gen
    }
}

/// The one correlation structure, shared by the service, its egress,
/// its fault subscription and every call handle. A slot lock and the
/// free-list lock are both leaves, never held together.
struct Table {
    /// Segment `k` holds `SEG0 << k` slots and never moves once
    /// allocated, so a slot is reached from its index without a lock.
    segs: [OnceLock<Box<[Slot]>>; SEGS],
    /// Indexes whose handle is gone (last freed, first reissued) and
    /// the next index never used. The one lock callers share.
    free: Mutex<(Vec<usize>, usize)>,
    inflight: AtomicU64,
    /// Requests [`Table::fail_all`] resolved as stopped.
    stranded: AtomicU64,
    /// The net's executor, which a waiting caller helps
    /// ([`CallHandle::wait`]).
    exec: Arc<dyn Executor>,
}

impl Table {
    fn new(exec: Arc<dyn Executor>) -> Table {
        Table {
            segs: Default::default(),
            free: Mutex::default(),
            inflight: AtomicU64::new(0),
            stranded: AtomicU64::new(0),
            exec,
        }
    }

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
    /// completed, abandoned, faulted, stopped or never issued (an even
    /// generation, 0 included, was never an open one).
    fn open_slot(&self, rid: u64) -> Option<(&Slot, MutexGuard<'_, SlotState>)> {
        if rid >> IDX_BITS & 1 == 0 {
            return None;
        }
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
    /// Takes no slot lock: the slot is this caller's until the bump
    /// opens it, and its previous request left its state clean.
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
        seg[off].expect.store(expect, Ordering::Relaxed);
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

    /// Adds a record to the request open on `slot`, found open under
    /// its lock. `Some(w)`: it completed the request, wake `w`.
    fn deliver(
        &self,
        slot: &Slot,
        mut st: MutexGuard<'_, SlotState>,
        rec: Record,
    ) -> Option<Option<Waker>> {
        st.got.push(rec);
        let done = st.got.len() >= slot.expect.load(Ordering::Relaxed);
        done.then(|| self.resolve(slot, &mut st, None))
    }

    /// Fails the request open on `slot` and wakes its caller.
    fn fail(&self, slot: &Slot, mut st: MutexGuard<'_, SlotState>, err: CallError) {
        let waiter = self.resolve(slot, &mut st, Some(err));
        drop(st);
        if let Some(waiter) = waiter {
            waiter.wake();
        }
    }

    /// Fails every open request with [`CallError::ServiceStopped`],
    /// counting each as stranded: the egress's last act, on
    /// end-of-stream *or* after its panic.
    fn fail_all(&self) {
        for seg in self.segs.iter().filter_map(OnceLock::get) {
            for slot in seg.iter() {
                let st = slot.state();
                if slot.gen.load(Ordering::Relaxed) & 1 == 1 {
                    self.stranded.fetch_add(1, Ordering::Relaxed);
                    self.fail(slot, st, CallError::ServiceStopped);
                }
            }
        }
    }

    /// Polls the handle of request `rid`; `live` is whether the handle
    /// still owns its slot.
    fn poll_handle(&self, rid: u64, live: &mut bool, cx: &mut Context<'_>) -> Poll<CallResult> {
        // The slot may be another request's by now.
        if !*live {
            return Poll::Ready(Err(CallError::PolledAfterResolved));
        }
        let slot = self.slot(rid).expect("a handle's slot exists");
        let mut st = slot.state();
        if slot.stamp.load(Ordering::Acquire) == 0 {
            // Registered under the lock the egress resolves under: it
            // either sees the waiter or has already set the stamp.
            st.waiter = Some(cx.waker().clone());
            return Poll::Pending;
        }
        let out = self.release(rid, slot, st);
        *live = false;
        Poll::Ready(out)
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
    requests: Counter,
    slot_reuse: Counter,
    inflight_max: Counter,
    /// `serve/completed` and `serve/faulted`, which the egress and the
    /// fault subscription count, read by [`Service::shutdown`].
    completed: Counter,
    faulted: Counter,
    /// The net's context.
    ctx: Arc<Ctx>,
}

impl Service {
    /// Starts serving requests over `net`. The service registers a
    /// waker of its own on the net's output edge, and each send that
    /// publishes to it routes the records to their callers on the
    /// publishing thread (the egress drain): no component is spawned,
    /// so the net's [`Net::threads_spawned`] stays what it was. The
    /// first drain runs here: records the net put out before the
    /// service existed carry no request id and count as stray. The
    /// service also subscribes to the net's fault channel, so a request
    /// whose record a contained fault dropped resolves as
    /// [`CallError::Faulted`] at once (*Failure model* in
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
        let table = Arc::new(Table::new(Arc::clone(ctx.executor())));
        let completed = metrics.handle(keys::SERVE_COMPLETED);
        let faulted = metrics.handle(keys::SERVE_FAULTED);
        {
            // Held weakly: the net's context lives until its last
            // component finishes, which must not keep the table alive.
            // Called from the faulting component's thread.
            let table = Arc::downgrade(&table);
            let faulted = faulted.clone();
            ctx.on_fault(Arc::new(move |fault: &crate::fault::Fault| {
                let rid = fault.dropped.as_ref().map_or(0, Record::corr);
                let Some(table) = table.upgrade() else {
                    return;
                };
                let Some((slot, st)) = table.open_slot(rid) else {
                    return;
                };
                let err = CallError::Faulted {
                    component: fault.component.clone(),
                    msg: fault.msg.clone(),
                };
                // Counted before the caller wakes: whoever sees the
                // outcome sees the count.
                faulted.inc(1);
                table.fail(slot, st, err);
            }));
        }
        Arc::new(Egress {
            state: AtomicU8::new(IDLE),
            output: Mutex::new(Some((output, Wakes(Vec::new())))),
            table: Arc::clone(&table),
            ctx: Arc::clone(&ctx),
            completed: completed.clone(),
            stray: metrics.handle(keys::SERVE_STRAY),
            stray_path: CompPath::root(keys::SERVE_STRAY),
        })
        .wake();
        Service {
            table,
            input: Some(input),
            boundary,
            requests: metrics.handle(keys::SERVE_REQUESTS),
            slot_reuse: metrics.handle(keys::SERVE_SLOT_REUSE),
            inflight_max: metrics.handle(keys::SERVE_INFLIGHT),
            completed,
            faulted,
            ctx,
        }
    }

    /// Issues a request expecting a single response record, under the
    /// net's ingress policy. See [`Service::call_with`].
    pub fn call(&self, rec: Record) -> Result<CallHandle, CallError> {
        self.call_with(rec, CallOpts::default())
    }

    /// Issues a request: boundary-checks the record, stamps a fresh
    /// request id into its correlation word (over whatever it carried)
    /// and publishes it to the ingress edge under the overload policy.
    /// Ingress rejections (mismatch, shed, ingress deadline, closed)
    /// surface synchronously; the returned handle resolves when
    /// `opts.expect` response records have arrived.
    pub fn call_with(&self, mut rec: Record, opts: CallOpts) -> Result<CallHandle, CallError> {
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
        self.inflight_max.max(self.inflight());
        rec.set_corr(rid);
        // The handle owns the slot before the record leaves: the answer
        // can reach the egress before this returns, and a rejected (or
        // panicking) send drops the handle, which frees the slot.
        let handle = CallHandle {
            rid,
            table: Arc::clone(&self.table),
            live: true,
        };
        let policy = opts.policy.unwrap_or(self.ctx.cfg().overload);
        // This caller will likely wait, and helps while it waits: the
        // worker the send wakes lets it run the request first.
        as_waiter(|| send_policy(tx, rec, policy)).map_err(CallError::Rejected)?;
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

    /// Stops accepting requests, lets the network answer everything
    /// it still can and joins every component (propagating component
    /// panics). Requests still in flight complete normally if the net
    /// answers them; any it leaves unanswered fail with
    /// [`CallError::ServiceStopped`]. Returns the outcome tally.
    pub fn shutdown(mut self) -> DrainReport {
        // Closing ingress ends the net's input. The net's last
        // component ends its output edge before it completes, and the
        // drain that end-of-stream runs fails the stragglers, so the
        // join covers them.
        self.input.take();
        self.ctx.join_all();
        DrainReport {
            completed: self.completed.get(),
            faulted: self.faulted.get(),
            stranded: self.table.stranded.load(Ordering::Relaxed),
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

// Egress drain states: the `Task` state word of `sched/pool.rs`, cut
// down to what a drain needs.
const IDLE: u8 = 0; // registered on the output edge: a wake drains
const DRAINING: u8 = 1; // a thread is draining the edge
const AGAIN: u8 = 2; // woken mid-drain: the running drain goes round again

/// The service's end of the net's output edge, and the waker it keeps
/// registered there. A send that publishes to the parked edge wakes it
/// (`chan.rs`' `maybe_wake`), and the wake drains the edge on the
/// sending thread — clears each record's request id, completes the owning
/// requests' slots, wakes their callers — then registers again. The
/// answer reaches its caller from the send that publishes it, with no
/// task hand-off in between.
struct Egress {
    /// `IDLE`, `DRAINING` or `AGAIN`: one drain at a time, and a wake
    /// that lands during one sends it round again instead of starting
    /// a second. After the edge ends it never returns to `IDLE`.
    state: AtomicU8,
    /// The net's output edge, and the callers its current batch has
    /// answered, until the drain ends — at end-of-stream, or after a
    /// panic, when dropping the edge winds the net down. Until then
    /// edge → waker → `Egress` → edge is a reference cycle.
    output: Mutex<Option<(Receiver, Wakes)>>,
    table: Arc<Table>,
    ctx: Arc<Ctx>,
    completed: Counter,
    stray: Counter,
    /// `serve/stray`, where stream observers see stray records.
    stray_path: CompPath,
}

impl Wake for Egress {
    fn wake(self: Arc<Self>) {
        self.wake_by_ref();
    }

    fn wake_by_ref(self: &Arc<Self>) {
        if self.state.swap(AGAIN, Ordering::AcqRel) == IDLE {
            self.drain();
        }
    }
}

impl Egress {
    /// Runs the drain on this thread, outside its poll budget: the
    /// records are the service's, and the task whose send woke the
    /// egress must not pay a yield for them. A panic is caught here, on
    /// the sending thread, and ends the drain as end-of-stream does.
    fn drain(self: &Arc<Self>) {
        let budget = poll_budget();
        set_poll_budget(u32::MAX);
        let ended = std::panic::catch_unwind(AssertUnwindSafe(|| self.drain_edge()));
        set_poll_budget(budget);
        match ended {
            Ok(false) => return,
            Ok(true) => {}
            Err(_) => self.ctx.metrics.handle(keys::SERVE_DEMUX_PANICS).inc(1),
        }
        self.table.fail_all();
        // Callers answered before a panic are woken here, and the net
        // sees its output edge gone.
        let edge = self
            .output
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take();
        drop(edge);
    }

    /// Drains until the edge is empty, the waker registered and no wake
    /// came in meanwhile (`false`), or until end-of-stream (`true`).
    /// Callers are woken once per batch: the completion stamp is taken
    /// record by record, the wake-ups (a futex call each, and on a busy
    /// CPU a preemption by the woken caller) once the batch is through.
    fn drain_edge(self: &Arc<Self>) -> bool {
        let mut output = self.output.lock().unwrap_or_else(PoisonError::into_inner);
        let (rx, wakes) = output
            .as_mut()
            .expect("a drain that ended never returns to idle");
        let waker = Waker::from(Arc::clone(self));
        let mut cx = Context::from_waker(&waker);
        loop {
            self.state.swap(DRAINING, Ordering::AcqRel);
            loop {
                match rx.poll_recv_each(&mut cx, RECV_BATCH, &mut |msg| self.route(msg, wakes)) {
                    Poll::Ready(0) => return true,
                    Poll::Ready(_) => wakes.flush(),
                    Poll::Pending => break,
                }
            }
            if self
                .state
                .compare_exchange(DRAINING, IDLE, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                return false;
            }
        }
    }

    /// Takes the request id out of the record's correlation word and
    /// completes the owning request's slot. Records with no (or a
    /// stale) request id — sent into the service's net by other means,
    /// or arriving after their request closed — are dropped, counted
    /// under `serve/stray` and shown to stream observers at that path.
    fn route(&self, msg: Msg, wakes: &mut Wakes) {
        // Sort records are net-internal; a well-formed net never
        // leaks them, skip defensively (same as `Net::recv`).
        let Msg::Rec(mut rec) = msg else { return };
        let Some((slot, st)) = self.table.open_slot(rec.take_corr()) else {
            return self.drop_stray(&rec);
        };
        if let Some(waiter) = self.table.deliver(slot, st, rec) {
            self.completed.inc(1);
            wakes.0.extend(waiter);
        }
    }

    /// Observers run under no lock of the table.
    fn drop_stray(&self, rec: &Record) {
        self.stray.inc(1);
        if self.ctx.has_observers() {
            self.ctx.observe(self.stray_path, Dir::In, rec);
        }
    }
}

/// Callers the egress answered in its current batch and has yet to
/// wake. Wakes them on drop too, so a drain that dies mid-batch
/// strands nobody it had already answered: they are woken when the
/// drain's end drops the edge.
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
    table: Arc<Table>,
    /// Still owns its slot: neither harvested nor abandoned yet.
    live: bool,
}

impl CallHandle {
    fn slot(&self) -> &Slot {
        self.table.slot(self.rid).expect("a handle's slot exists")
    }

    /// The request id assigned to this call (diagnostic only — the
    /// egress clears it from every response record).
    pub fn rid(&self) -> u64 {
        self.rid
    }

    /// Blocks until the response is complete. Before it parks, the
    /// calling thread runs runnable tasks of the service's executor —
    /// on a pool, usually the request's own — unless it is a pool
    /// worker ([`crate::Executor::help`]).
    pub fn wait(self) -> Result<Response, CallError> {
        self.wait_until(None)
    }

    /// Like [`CallHandle::wait`] with a deadline: past it the request
    /// is abandoned ([`CallError::Deadline`]) and any late response
    /// records count as stray. While it waits it helps only with tasks
    /// whose next poll fits one slice (200 µs) before the deadline, so
    /// it returns within about one slice of it.
    pub fn wait_deadline(self, deadline: Instant) -> Result<Response, CallError> {
        self.wait_until(Some(deadline))
    }

    /// Polls the handle from this thread through [`wait_on`], helping
    /// the table's executor. Past the deadline, dropping the handle
    /// abandons the request.
    fn wait_until(mut self, deadline: Option<Instant>) -> Result<Response, CallError> {
        let CallHandle { rid, table, live } = &mut self;
        let table = &**table;
        let mut handle = std::future::poll_fn(|cx| table.poll_handle(*rid, live, cx));
        wait_on(&mut handle, deadline, Some(&*table.exec)).unwrap_or(Err(CallError::Deadline))
    }

    /// Completion timestamp (egress-side, excludes caller wakeup
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
        this.table.poll_handle(this.rid, &mut this.live, cx)
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NetBuilder;

    fn echo_service() -> Service {
        let net = NetBuilder::from_source("box echo (x) -> (x); net main = echo;")
            .unwrap()
            .bind("echo", |rec, em| em.emit(rec.clone()))
            .build("main")
            .unwrap();
        assert_eq!(net.threads_spawned(), 1);
        Service::start(net)
    }

    fn echo(svc: &Service, x: i64) {
        let resp = svc.call(Record::build().field("x", x).finish()).unwrap();
        let resp = resp.wait().unwrap();
        assert_eq!(resp.records[0].field("x").unwrap().as_int(), Some(x));
    }

    /// The egress spawns nothing, and the cycle its waker closes —
    /// output edge → `Egress` → its `Receiver` — holds only until the
    /// edge ends: once the net has wound down, by `shutdown()` or by a
    /// plain drop, nothing keeps the table alive.
    #[test]
    fn the_table_is_freed_once_the_net_winds_down() {
        for shutdown in [true, false] {
            let svc = echo_service();
            echo(&svc, 1);
            echo(&svc, 2);
            assert_eq!(svc.ctx.threads_spawned(), 1, "the service spawned a task");
            let table = Arc::downgrade(&svc.table);
            let ctx = Arc::clone(&svc.ctx);
            if shutdown {
                svc.shutdown();
            } else {
                drop(svc);
                ctx.join_all();
            }
            assert!(table.upgrade().is_none(), "shutdown: {shutdown}");
        }
    }

    /// Only an odd generation was ever open: a word no call stamped
    /// that names a slot never opened (generation 0) finds no request
    /// there, though the slot exists.
    #[test]
    fn an_id_of_an_even_generation_names_no_open_request() {
        let table = Table::new(crate::sched::default_executor());
        let (rid, _) = table.open(1).unwrap();
        assert_eq!(rid & IDX_MASK, 0);
        assert!(table.open_slot(rid).is_some());
        assert!(table.slot(1).is_some());
        assert!(table.open_slot(1).is_none());
        assert!(table.open_slot(0).is_none());
    }

    /// The state word: a wake that lands while a drain runs starts no
    /// second one and leaves its record to the running drain's next
    /// round; end-of-stream ends the drain and drops the edge.
    #[test]
    fn a_wake_during_a_drain_is_left_to_the_running_drain() {
        let ctx = crate::instantiate::test_ctx(Vec::new());
        let (tx, rx) = crate::stream::stream();
        let egress = Arc::new(Egress {
            state: AtomicU8::new(IDLE),
            output: Mutex::new(Some((rx, Wakes(Vec::new())))),
            table: Arc::new(Table::new(Arc::clone(ctx.executor()))),
            completed: ctx.metrics.handle(keys::SERVE_COMPLETED),
            stray: ctx.metrics.handle(keys::SERVE_STRAY),
            stray_path: CompPath::root(keys::SERVE_STRAY),
            ctx,
        });
        let state = || egress.state.load(Ordering::SeqCst);
        let stray = || egress.ctx.metrics.get(keys::SERVE_STRAY);
        // The first drain finds the edge empty and registers.
        Arc::clone(&egress).wake();
        assert_eq!(state(), IDLE);
        // As if another thread were draining: the send wakes the
        // registered egress, which only marks the running drain.
        egress.state.store(DRAINING, Ordering::SeqCst);
        let rec = Record::build().field("x", 1i64).finish();
        tx.send(Msg::Rec(rec)).unwrap();
        assert_eq!((state(), stray()), (AGAIN, 0));
        // The running drain's next round routes it and registers again.
        egress.drain();
        assert_eq!((state(), stray()), (IDLE, 1));
        drop(tx);
        assert_ne!(state(), IDLE);
        assert!(egress.output.lock().unwrap().is_none());
    }
}
