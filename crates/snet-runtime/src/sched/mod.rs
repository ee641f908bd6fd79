//! The executor subsystem: *where* components run.
//!
//! The paper's operational model gives every box, guard, dispatcher
//! and merger its own thread of control, and the seed runtime took
//! that literally — one OS thread per component. It is faithful and it
//! is the wrong default: Fig. 2 unfolds toward 81 × 9 boxes plus
//! guards and mergers, every record hop between two of them is a
//! kernel hand-off, and on `batch-sudoku9` a third of a puzzle's round
//! trip (two hand-offs at each of 43 star levels) and 371 OS threads
//! went to something that is neither box code nor coordination logic.
//! (S-Net's own later runtime made the same move, from a pthread per
//! entity to user-level tasks on one worker per core.)
//!
//! Components are written as `async` state machines over pollable
//! streams (see [`crate::stream`]); an [`Executor`] decides how those
//! state machines map onto OS threads:
//!
//! * [`WorkStealingPool`] — **the default**: one shared pool per
//!   process, exactly one worker thread per core the process may run
//!   on, one lock-free Chase–Lev deque per worker plus a shared
//!   injector; idle workers steal the oldest entry from their siblings'
//!   deques. A component awaiting an empty stream returns `Pending` and
//!   *yields its worker* to the next runnable component; the stream's
//!   send path wakes it back onto a run queue. A record hop is a queue
//!   push and a task switch in user space, and thousands of components
//!   share `num_cpus` threads.
//! * [`ThreadPerComponent`] — the paper's model, kept for the literal
//!   reading (`tests/figures.rs`): each component future runs to
//!   completion on its own named OS thread via a park/unpark
//!   `block_on`. A component awaiting an empty stream parks its thread,
//!   exactly like the seed's blocking `recv()`.
//!
//! What the flip bought and what it had to hold, from the repo's
//! benchmark (`crates/bench/src/bin/perf`: one CPU, every number at
//! nominal host speed). "threads" and "pool, slice" are three 20-second
//! runs each of the parent commit and of this one, taken in pairs;
//! "pool, flat" is the pool with the flat 128-message poll budget it
//! had before (8-second sizing runs):
//!
//! | workload | metric | threads | pool, flat | pool, slice |
//! |---|---|---|---|---|
//! | `batch-sudoku9` | ops/s | 856–863 | 1226 | **1204–1228** |
//! | `batch-sudoku9` | p50 µs / setup s / RSS MB | 1240 / 0.0100 / 9.5 | 807 / 0.0024 / 6.5 | 850 / 0.0025 / 6.3 |
//! | `serve-sensor` | ops/s / p50 µs | 156–158 k / 21.4 | 157 k / 11.2 | 157–158 k / 11.3 |
//! | `serve-sudoku` | ops/s / p50 µs | 9650–9860 / 104 | 10228 / 100 | 10330–10400 / 98 |
//! | `fifo-sensor-det` | ops/s / p50 µs | 199–205 k / 20.9 | 188–194 k / 14.5 | 192–196 k / 17 |
//! | `array-frames` | ops/s / RSS MB | 972–978 / 8.7 | 884 / **11.9** | 961–974 / 7.6 |
//!
//! A record hop that is not a context switch: the traced
//! `batch-sudoku9` run spends 68 µs of a puzzle's round trip in the
//! `star`, `stream` and `fused` rows (the 86 hand-offs of 43 star
//! levels) where thread-per-component spent 232 µs — 0.8 µs a hop
//! against 2.7 µs.
//!
//! The pool is sized to the cores, not to `max(2, cores)`: two workers
//! time-sliced on one CPU are what made the pool lose to threads on
//! `serve-sensor` and `array-frames` before. The one soft spot is
//! `fifo-sensor-det` throughput (−3 %): its lone worker is always
//! running, so the loader and receiver threads it shares the CPU with
//! preempt it where they used to find the CPU free between component
//! threads (`sched.icsw_per_op` 0.01 → 0.05). Its lone-caller latency
//! paid a second cost until PR 25: idle workers slept on one condvar
//! that a pusher signalled while holding its mutex, so on one CPU the
//! woken worker preempted the loader only to block on that mutex again
//! — per outside wake, 1.96 voluntary switches for the worker instead
//! of 1.00 and a preemption of the caller in 0.98 rounds of 1 instead of
//! 0.49 (a one-CPU probe). Now a worker parks on its own parker and a
//! push claims it with one swap (`pool.rs`, *Sleeping*):
//! `fifo-sensor-det` p50 19.1 → 13.3 µs at nominal on this box (13 of
//! 13 pairs), throughput unmoved.
//!
//! # Fairness: a time slice, measured
//!
//! Whoever polls a task — a pool worker, or the component's own thread
//! under [`ThreadPerComponent`] — grants it a message budget per poll
//! ([`crate::stream::set_poll_budget`]); a component with an
//! always-full input is forced to yield after spending it. On the pool
//! a forced yield re-queues through the *global injector*, not the
//! worker's own LIFO deque, so its siblings run first even with a
//! single worker and no stealers (`SNET_WORKERS=1` starvation freedom;
//! see [`pool`]). Like every push it then claims one parked sibling, if
//! any, so an idle worker can take the yielded task; with one worker
//! nobody is parked and the claim is a counter read. On a thread of its
//! own the task is simply polled again — there the budget buys no
//! fairness (the OS preempts), only the same bound on how much one poll
//! takes off its input.
//!
//! The budget is not a constant, because the unit of fairness is
//! *time* and a message is not a unit of time: 128 messages are
//! 130 µs of sensor readings and 50 ms of 192 × 192 frames. Under a
//! flat 128 a frame stage ran all 16 in-flight frames before its
//! consumer got the worker (the `array-frames` column above: RSS
//! +37 %, throughput −9 %); a flat 1 fixes the frames and costs the
//! sensor nets a quarter of their throughput (120 k ops/s). So every
//! poll is timed (`Slice::poll`: two clock reads per poll, nothing per
//! message), the time divided by the messages the poll consumed, and
//! the next poll granted what would fill a fixed slice of about 200 µs,
//! between 1 and 128: a new task starts at 1, the budget at most
//! doubles per poll, and it falls to the measured fit as soon as two
//! polls in a row agree (one alone may be a preemption). There is no
//! knob.
//!
//! # Why cooperative parking cannot deadlock the runtime
//!
//! The classic hazard of running blocking-style components on a
//! bounded pool is a wait cycle: every worker stuck in a component
//! that waits for a message only another, *unscheduled* component
//! could produce. Two properties rule this out here:
//!
//! 1. **Waiting components hold no worker.** A component waits only by
//!    awaiting a stream (`recv_each`/`recv_async`/`poll_ready`, and —
//!    on bounded edges — the sender-side `feed`/`acquire` credit
//!    futures); `Pending` returns the worker to the pool. There is no
//!    in-component blocking primitive, so "all workers stuck waiting"
//!    cannot occur — a waiting component *is not on a worker*.
//! 2. **Every sender-side wait edge points at a consumer that will
//!    run.** On an unbounded edge senders never wait at all. On a
//!    bounded data edge ([`crate::RunCfg::bound`], see
//!    [`crate::stream`]) a data producer may additionally park
//!    awaiting credit — a wait edge pointing at the edge's *consumer*,
//!    which releases one credit per pop. That edge is only dangerous
//!    if the consumer can decline to pop until the parked producer
//!    itself makes progress, closing a cycle. Exactly one component
//!    family consumes selectively — the mergers, which drain branches
//!    in a fixed round order (det) or hold branches at sort barriers
//!    (non-det) — and every merger-drained edge is **exempted from
//!    bounding** at branch adoption ([`crate::merge`]), so no credit
//!    wait can point at a merger. Sort records are likewise never
//!    gated (dispatchers broadcast them to *all* branches, including
//!    ones the merger is not draining; see [`crate::stream`]), so a
//!    det round boundary always lands. What remains are credit waits
//!    into run-to-completion consumers (boxes, filters, fused chains,
//!    dispatchers, guards) that unconditionally drain their single
//!    input: each such wait edge points down the pipeline toward the
//!    network output, which the driver drains (and which
//!    `Net::spawn` exempts). The wait graph over bounded edges is
//!    therefore acyclic — a chain of parked producers always bottoms
//!    out in a consumer with no credit wait of its own.
//!
//! Together: every wait edge — empty-input *or* full-output — points
//! from a parked task to a *runnable* chain, and runnable tasks always
//! find a worker: a worker parks only after advertising itself in its
//! own slot and re-checking every run queue, and every push either is
//! seen by that re-check or claims an advertised worker and unparks it
//! (see `pool.rs`, *No lost wake*).
//! Progress is guaranteed for any worker count ≥ 1 —
//! `WorkStealingPool::new(1)` is a valid, fully sequential scheduler,
//! which the determinism tests exploit to force adversarial
//! interleavings.
//!
//! ## …including when callers help
//!
//! A thread waiting for a service call runs runnable tasks of the
//! service's pool before it parks (`pool.rs`, *Helping*). That adds no
//! wait edge. The helper runs tasks only while it waits for its own
//! request, one poll at a time, as a worker would. It is never a
//! worker, so every worker stays free for what it leaves queued, and
//! it wakes one before it parks if anything is. It never helps inside
//! `feed_blocking`, `Net::recv` or `block_on`. A caller parked there
//! waits for the net to move, and a task it ran in place could block
//! under the caller's own frame on what only that caller would do
//! next. Helping inside `feed_blocking` deadlocked
//! `backpressure.rs::timeout_policy_gives_up_after_deadline_then_recovers`
//! in a prototype: the test thread ran the gated box that only it
//! could release.
//!
//! ## …including under coalesced wakeups
//!
//! Since PR 3 the send path wakes a consumer only when it actually
//! *parked* (see [`crate::stream::chan`]); a running consumer is never
//! woken. The argument above leans on one invariant: **a task that
//! returned `Pending` has a wake in flight or genuinely nothing to
//! read**. That is exactly what the stream's post-registration
//! re-check guarantees — a consumer re-examines the queue (and the
//! end-of-stream condition) *after* publishing its waker, and a sender
//! checks the park state *after* publishing its message, with the two
//! edges ordered by SeqCst so no interleaving lets both miss each
//! other. Coalescing therefore removes wakes only on edges where the
//! consumer is demonstrably awake and will drain the message in its
//! current batch; no wait edge is ever left without a pending wake,
//! and the deadlock-freedom argument goes through unchanged. The
//! producer side of a bounded edge keeps the mirror-image invariant:
//! a producer parked on credit re-checks the credit word (and
//! receiver liveness) *after* publishing itself as parked, and the
//! pop path checks the park flag *after* releasing the credit, again
//! SeqCst-ordered — a parked producer always has a wake in flight or
//! genuinely no credit (see [`crate::stream::chan`], *why a parked
//! producer cannot be lost*).
//!
//! # Determinism
//!
//! The sort-record protocol ([`crate::merge`]) encodes ordering in the
//! *data* (`Sort { level, counter }` rounds), not in scheduling.
//! Executors affect only *when* components run, never *what* they
//! forward, so the deterministic combinators produce byte-for-byte
//! identical output under either backend — verified against the
//! sequential reference ([`crate::oracle`]) by the differential check
//! in `tests/random_networks.rs`, which draws its executor from
//! threads, `pool(1)` and `pool(2)`.
//!
//! # Selection
//!
//! [`default_executor`] is the process-wide shared
//! [`WorkStealingPool`] with one worker per core
//! (`available_parallelism()`, which honours the process's CPU
//! affinity), created on first use; [`crate::RunCfg::workers`]
//! (`SNET_WORKERS`, see [`crate::RunCfg::try_from_env`]) sizes it.
//! `NetBuilder::executor` (or the executor handed to `Ctx::new` /
//! `Net::spawn`) selects per network — the only way onto
//! [`ThreadPerComponent`]. No record loop asks which executor it runs
//! on: an [`Executor`] decides where a component's polls happen,
//! nothing else.
//!
//! # Failure model
//!
//! A component task that panics completes with its panic payload:
//! both executors catch the unwind at the task boundary (the
//! per-component thread's `catch_unwind` under [`ThreadPerComponent`],
//! the worker's `run_task` under [`WorkStealingPool`] — workers
//! themselves never die) and hand the payload to [`Completion`]. From
//! there two things happen, identically under either backend:
//!
//! 1. **Accounting.** The [`Tracker`] records the *first* payload and
//!    decrements the live count; [`Tracker::wait_quiescent`] (i.e.
//!    `Ctx::join_all`) re-raises it once the net is quiescent. This is
//!    [`crate::FaultPolicy::FailNet`] — the default: one dead
//!    component fails the whole net, loudly.
//! 2. **Observation.** The tracker's panic hook (installed once per
//!    net by `Ctx::new`) raises a typed [`crate::Fault`]
//!    carrying the task's name: `runtime/component_panics` increments,
//!    fault observers fire, and the serve front door (if any) can
//!    resolve affected requests instead of letting callers hang.
//!
//! Task-boundary death is the *backstop*. Under
//! [`crate::FaultPolicy::SkipRecord`] the per-record fault guard inside the box/filter execution cores
//! ([`crate::fault`]) contains user-code panics *before* they reach
//! the task boundary, so the component stays alive and only the poison
//! record is affected. Coordination-layer components — dispatchers,
//! mergers, guards, sync cells — are runtime code, not user code: a
//! panic there is a runtime bug and always fails the net regardless of
//! policy.
//!
//! Containment cannot break determinism: the det-merge protocol
//! ([`crate::merge`]) encodes ordering in sort records, which flow
//! through the stream loops and never enter the guarded per-record
//! cores. A skipped data record is indistinguishable from a box that
//! emitted nothing for it — round boundaries still arrive on every
//! branch, in order.

mod deque;
mod pool;
mod thread_per;

pub(crate) use pool::as_waiter;
pub use pool::WorkStealingPool;
pub use thread_per::{block_on, ThreadPerComponent};

use parking_lot::{Condvar, Mutex};
use std::any::Any;
use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// A component body: a boxed, type-erased state machine. `async`
/// blocks in the spawn functions compile down to exactly the
/// resumable state machines the work-stealing backend needs.
pub type TaskFuture = Pin<Box<dyn Future<Output = ()> + Send + 'static>>;

/// A pluggable component scheduler.
pub trait Executor: Send + Sync {
    /// Schedules a component to run to completion. The executor must
    /// fire `done` exactly once — with the panic payload if the
    /// component panicked — even if it shuts down before the
    /// component finishes (dropping `done` un-fired counts as
    /// completion, so [`Tracker::wait_quiescent`] can never hang on an
    /// abandoned task).
    fn spawn(&self, name: String, fut: TaskFuture, done: Completion);

    /// Executor kind label for diagnostics ("threads" / "pool").
    fn kind(&self) -> &'static str;

    /// Upper bound on OS threads this executor uses for components;
    /// `None` means one thread per component (unbounded). A diagnostic:
    /// `tests/executor_{env,matrix}.rs` assert pool sizes through it;
    /// nothing in the runtime reads it.
    fn os_thread_bound(&self) -> Option<usize>;

    /// Runs runnable tasks of this executor on the calling thread, which
    /// is waiting for something they may produce: until `resolved`
    /// (asked after each task) says the wait is over, or nothing is
    /// runnable. Under a `deadline`, only a task whose next poll fits
    /// one [`SLICE`] before it. `CallHandle::wait` calls it before it
    /// parks, and nothing else does (see [`pool`], *Helping*).
    /// The default helps nothing: the caller parks at once.
    fn help(&self, deadline: Option<Instant>, resolved: &mut dyn FnMut() -> bool) {
        let _ = (deadline, resolved);
    }
}

/// Cap on the messages a task may consume per poll before it is forced
/// to yield (see [`crate::stream::set_poll_budget`]). The grant itself
/// is measured per task — see [`Slice`].
const TASK_POLL_BUDGET: u32 = 128;

/// The time one poll should fill. Fairness between tasks sharing a
/// worker is a matter of *time*: 128 messages are 130 µs of sensor
/// records and 50 ms of 192×192 frames, and under a flat message budget
/// a frame stage ran every in-flight frame before its consumer saw the
/// worker (`array-frames` peak RSS +37 %). Well above a wake and two
/// clock reads (the per-poll overhead it amortises), well below a
/// millisecond-scale request.
const SLICE: Duration = Duration::from_micros(200);

/// A task's message budget, measured by whoever polls it — a pool
/// worker's `run_task` or a component thread's [`block_on`], both
/// through [`Slice::poll`]: two clock reads per *poll*, nothing per
/// message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Slice {
    /// Messages the next poll may consume; never 0.
    budget: u32,
    /// What the previous poll alone would have granted.
    fit: u32,
}

impl Slice {
    /// A new task is priced before it is trusted: its first poll gets
    /// one message.
    const START: Slice = Slice { budget: 1, fit: 1 };

    /// Runs one poll of a task under this slice's budget, times it, and
    /// prices the next one by what it consumed.
    fn poll<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let granted = self.budget;
        crate::stream::set_poll_budget(granted);
        let start = Instant::now();
        let polled = f();
        let elapsed = start.elapsed();
        let spent = granted.saturating_sub(crate::stream::poll_budget());
        crate::stream::set_poll_budget(u32::MAX);
        *self = self.after_poll(spent, elapsed);
        polled
    }

    /// The slice after a poll that consumed `spent` messages in
    /// `elapsed`. The poll's *fit* is the grant that would have filled
    /// [`SLICE`] at its cost per message, within
    /// `1..=TASK_POLL_BUDGET`; the next budget is the larger of this
    /// poll's fit and the previous one's — one poll the OS preempted
    /// reads slow without being slow, and must not collapse the budget
    /// (on `fifo-sensor-det`, where loader and receiver threads share
    /// the worker's CPU, trusting every sample left 42 % of polls under
    /// the cap and cost 6 % throughput), while a task whose messages
    /// *are* slow says so twice in a row and drops straight to its fit.
    /// Growth is at most a doubling per poll, so one cheap poll cannot
    /// unleash 128 expensive messages. A poll that consumed nothing (a
    /// wake with nothing to read, stage work between cooperative
    /// yields) prices no message: it may lower the budget, never raise
    /// it.
    fn after_poll(self, spent: u32, elapsed: Duration) -> Slice {
        let per_message = (elapsed.as_nanos() as u64 / u64::from(spent.max(1))).max(1);
        let fit = SLICE.as_nanos() as u64 / per_message;
        let fit = fit.clamp(1, u64::from(TASK_POLL_BUDGET)) as u32;
        let ceiling = match spent {
            0 => self.budget,
            _ => self.budget.saturating_mul(2),
        };
        Slice {
            budget: fit.max(self.fit).min(ceiling),
            fit,
        }
    }
}

struct TrackerState {
    live: usize,
    panic: Option<Box<dyn Any + Send>>,
}

/// Tracker panic hook: `(task name, panic payload)`, called once per
/// task death before completion accounting (see *Failure model*).
type PanicHook = Box<dyn Fn(&str, &(dyn Any + Send)) + Send + Sync>;

/// Counts live component tasks of one network and collects the first
/// panic. This replaces the seed's `Vec<JoinHandle>`: join handles are
/// an OS-thread concept, but components on a pool have no handle —
/// completion accounting must live above the executor.
pub struct Tracker {
    state: Mutex<TrackerState>,
    cv: Condvar,
    total: AtomicUsize,
    on_panic: OnceLock<PanicHook>,
}

impl Tracker {
    pub fn new() -> Arc<Tracker> {
        Arc::new(Tracker {
            state: Mutex::new(TrackerState {
                live: 0,
                panic: None,
            }),
            cv: Condvar::new(),
            total: AtomicUsize::new(0),
            on_panic: OnceLock::new(),
        })
    }

    /// Installs the panic hook (at most once per tracker; later calls
    /// are ignored). Called with the task name and payload whenever a
    /// task completes with a panic, before completion accounting —
    /// this is the component-death leg of the fault channel (see
    /// *Failure model*).
    pub fn set_panic_hook(&self, hook: impl Fn(&str, &(dyn Any + Send)) + Send + Sync + 'static) {
        let _ = self.on_panic.set(Box::new(hook));
    }

    /// Registers one task; the returned [`Completion`] must accompany
    /// it to the executor. Registration happens-before the spawning
    /// call returns, so a task that spawns children keeps `live`
    /// above zero until every transitively spawned child completed.
    pub fn register(self: &Arc<Self>, name: &str) -> Completion {
        self.state.lock().live += 1;
        self.total.fetch_add(1, Ordering::Relaxed);
        Completion {
            tracker: Arc::clone(self),
            name: name.to_string(),
            fired: false,
        }
    }

    /// Total tasks ever registered (the component count of the
    /// network, executor-independent).
    pub fn tasks_spawned(&self) -> usize {
        self.total.load(Ordering::Relaxed)
    }

    /// Blocks until every registered task completed; propagates the
    /// first recorded panic. Transitively spawned tasks are covered
    /// (see [`Tracker::register`]).
    pub fn wait_quiescent(&self) {
        let payload = {
            let mut st = self.state.lock();
            while st.live > 0 {
                self.cv.wait(&mut st);
            }
            st.panic.take()
        };
        if let Some(p) = payload {
            std::panic::resume_unwind(p);
        }
    }
}

/// One task's completion token (see [`Tracker::register`]).
pub struct Completion {
    tracker: Arc<Tracker>,
    name: String,
    fired: bool,
}

impl Completion {
    /// Marks the task complete, recording a panic payload if any.
    pub fn complete(mut self, result: Result<(), Box<dyn Any + Send>>) {
        self.fired = true;
        if let Err(p) = &result {
            // Hook first, outside the state lock: subscribers may take
            // their own locks (metrics, serve slot maps) and must not
            // nest inside tracker state.
            if let Some(hook) = self.tracker.on_panic.get() {
                hook(&self.name, p.as_ref());
            }
        }
        let mut st = self.tracker.state.lock();
        if let Err(p) = result {
            if st.panic.is_none() {
                st.panic = Some(p);
            }
        }
        st.live -= 1;
        if st.live == 0 {
            self.tracker.cv.notify_all();
        }
    }
}

impl Drop for Completion {
    fn drop(&mut self) {
        if !self.fired {
            // The executor dropped the task without running it to
            // completion (shutdown with work queued). Still counts as
            // done — the component's channels drop with its future,
            // cascading end-of-stream.
            let mut st = self.tracker.state.lock();
            st.live -= 1;
            if st.live == 0 {
                self.tracker.cv.notify_all();
            }
        }
    }
}

/// The process-default executor (see *Selection*): the shared pool,
/// sized on first use by `SNET_WORKERS` as
/// [`crate::RunCfg::from_env`] reads it — so this panics with the
/// [`crate::ctx::ConfigError`] message on an invalid `SNET_WORKERS`,
/// loud, never a silent fallback. `NetBuilder::build*` returns the
/// typed error instead.
pub fn default_executor() -> Arc<dyn Executor> {
    shared_pool(crate::RunCfg::from_env().workers)
}

/// The process-wide shared [`WorkStealingPool`]. All networks on the
/// default executor share its workers — that is the point: component
/// count no longer dictates thread count. Sized on first use:
/// `workers` if given, else exactly one worker per core this process
/// may run on. Not `max(2, cores)`: on one CPU a second worker only
/// time-slices against the first (PR 12's `sched.pool.*` rows lost to
/// threads on `serve-sensor` and `array-frames` for that reason).
pub(crate) fn shared_pool(workers: Option<usize>) -> Arc<dyn Executor> {
    static POOL: OnceLock<Arc<WorkStealingPool>> = OnceLock::new();
    let pool = POOL.get_or_init(|| {
        let n = workers.unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        });
        Arc::new(WorkStealingPool::new(n))
    });
    Arc::clone(pool) as Arc<dyn Executor>
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    fn executors() -> Vec<(&'static str, Arc<dyn Executor>)> {
        vec![
            ("threads", Arc::new(ThreadPerComponent) as Arc<dyn Executor>),
            ("pool1", Arc::new(WorkStealingPool::new(1)) as _),
            ("pool4", Arc::new(WorkStealingPool::new(4)) as _),
        ]
    }

    #[test]
    fn slice_arithmetic() {
        let us = Duration::from_micros;
        // A new task gets one message; a millisecond message keeps it
        // there.
        assert_eq!(Slice::START.budget, 1);
        assert_eq!(Slice::START.after_poll(1, us(1000)), Slice::START);
        // Cheap messages: at most a doubling per poll, up to the cap.
        let mut s = Slice::START;
        for want in [2, 4, 8, 16, 32, 64, 128, 128] {
            s = s.after_poll(s.budget, us(1));
            assert_eq!(s.budget, want);
        }
        // One slow poll (a preemption) does not collapse the budget,
        // two in a row drop it straight to their fit.
        let slow = us(128 * 50);
        let once = s.after_poll(128, slow);
        assert_eq!((once.budget, once.fit), (128, 4));
        assert_eq!(once.after_poll(128, slow).budget, 4);
        assert_eq!(once.after_poll(128, us(128)).budget, 128);
        // A poll that consumed nothing never raises the budget and may
        // lower it.
        let low = Slice { budget: 8, fit: 8 };
        assert_eq!(low.after_poll(0, us(1)).budget, 8);
        assert_eq!(low.after_poll(0, us(100)).after_poll(0, us(100)).budget, 2);
        // Never 0, whatever the clock said.
        assert_eq!(low.after_poll(1, Duration::from_secs(9)).budget, 8);
        assert_eq!(Slice::START.after_poll(1, Duration::from_secs(9)).budget, 1);
        assert_eq!(Slice::START.after_poll(1, Duration::ZERO).budget, 2);
    }

    #[test]
    fn runs_tasks_to_completion() {
        for (name, exec) in executors() {
            let tracker = Tracker::new();
            let n = Arc::new(AtomicUsize::new(0));
            for _ in 0..16 {
                let n = Arc::clone(&n);
                exec.spawn(
                    "t".into(),
                    Box::pin(async move {
                        n.fetch_add(1, Ordering::Relaxed);
                    }),
                    tracker.register("t"),
                );
            }
            tracker.wait_quiescent();
            assert_eq!(n.load(Ordering::Relaxed), 16, "executor {name}");
            assert_eq!(tracker.tasks_spawned(), 16);
        }
    }

    #[test]
    fn propagates_first_panic() {
        for (name, exec) in executors() {
            let tracker = Tracker::new();
            exec.spawn("ok".into(), Box::pin(async {}), tracker.register("t"));
            exec.spawn(
                "boom".into(),
                Box::pin(async { panic!("component failure") }),
                tracker.register("t"),
            );
            let r =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| tracker.wait_quiescent()));
            assert!(r.is_err(), "executor {name} swallowed the panic");
        }
    }

    #[test]
    fn tasks_communicate_through_async_channels() {
        // A 3-stage pipeline of tasks over pollable channels: the
        // middle stage must park and resume without holding a thread
        // (on pool1 all three share the single worker).
        for (name, exec) in executors() {
            let tracker = Tracker::new();
            let (tx0, rx0) = crate::stream::chan::channel::<u64>();
            let (tx1, rx1) = crate::stream::chan::channel::<u64>();
            let (tx2, rx2) = crate::stream::chan::channel::<u64>();
            exec.spawn(
                "stage0".into(),
                Box::pin(async move {
                    while let Ok(v) = rx0.recv_async().await {
                        tx1.send(v + 1).unwrap();
                    }
                }),
                tracker.register("t"),
            );
            exec.spawn(
                "stage1".into(),
                Box::pin(async move {
                    while let Ok(v) = rx1.recv_async().await {
                        tx2.send(v * 2).unwrap();
                    }
                }),
                tracker.register("t"),
            );
            for i in 0..100 {
                tx0.send(i).unwrap();
            }
            drop(tx0);
            let got: Vec<u64> = rx2.iter().collect();
            tracker.wait_quiescent();
            assert_eq!(
                got,
                (0..100).map(|i| (i + 1) * 2).collect::<Vec<_>>(),
                "executor {name}"
            );
        }
    }

    #[test]
    fn panic_hook_sees_task_name_and_payload_under_both_executors() {
        use parking_lot::Mutex as PMutex;
        for (name, exec) in executors() {
            let tracker = Tracker::new();
            let seen: Arc<PMutex<Vec<(String, String)>>> = Arc::new(PMutex::new(Vec::new()));
            let seen2 = Arc::clone(&seen);
            tracker.set_panic_hook(move |task, payload| {
                let msg = payload
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .unwrap_or_default();
                seen2.lock().push((task.to_string(), msg));
            });
            exec.spawn("ok".into(), Box::pin(async {}), tracker.register("ok"));
            exec.spawn(
                "boom".into(),
                Box::pin(async { panic!("component failure") }),
                tracker.register("boom"),
            );
            let r =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| tracker.wait_quiescent()));
            assert!(r.is_err(), "executor {name}");
            let seen = seen.lock();
            assert_eq!(
                seen.as_slice(),
                &[("boom".to_string(), "component failure".to_string())],
                "executor {name}"
            );
        }
    }

    #[test]
    fn pool_respects_thread_bound() {
        let pool = WorkStealingPool::new(3);
        assert_eq!(pool.workers(), 3);
        assert_eq!(pool.os_thread_bound(), Some(3));
        assert_eq!(ThreadPerComponent.os_thread_bound(), None);
    }

    #[test]
    fn parked_task_resumes_on_eos_and_pool_drops_cleanly() {
        // A task parked on an empty stream must complete when the
        // sender disconnects, before the pool shuts down.
        let tracker = Tracker::new();
        {
            let pool = WorkStealingPool::new(1);
            let (tx, rx) = crate::stream::chan::channel::<u64>();
            pool.spawn(
                "parked".into(),
                Box::pin(async move {
                    assert!(rx.recv_async().await.is_err());
                }),
                tracker.register("t"),
            );
            // Let the worker park the task, then end the stream.
            pool.until_all_parked();
            drop(tx);
            tracker.wait_quiescent();
        }
    }
}
