//! Work-stealing component scheduler.
//!
//! N worker threads, one lock-free [`Deque`] (Chase–Lev) each, plus a
//! shared mutexed injector for spawns and wakes arriving from outside
//! the pool (the driver thread instantiating the initial network, or
//! sending records into it). Components spawned *by* pool tasks — the
//! replicators' demand-driven unfolding — land on the spawning
//! worker's own deque, as do wakes a worker delivers while running
//! (locality: a freshly unfolded replica usually receives the record
//! that caused it next). Idle workers steal from the *top* of their
//! siblings' deques (the lock-free end), then fall back to the
//! injector, then sleep; every push wakes one sleeper, except a
//! helper's own re-queue (*Helping*, below).
//!
//! # Sleeping: one parker per worker
//!
//! An idle worker sleeps on its own thread's parker (the crate's one
//! [`ThreadParker`], through [`with_parker`]) and advertises itself in
//! its own [`IdleSlot`]; there is no sleep lock. Going to sleep is, in
//! this order: `asleep = true` (SeqCst store) → `sleepers += 1` (SeqCst
//! RMW) → SeqCst fence → re-check every queue and `shutdown` → park
//! until `asleep` reads false. A push is: queue write → SeqCst fence →
//! `sleepers` load → if non-zero, *claim* one slot with
//! `asleep.swap(false)` and unpark that one thread. A wake from outside
//! the pool is one atomic claim and one unpark, and the woken worker
//! finds no lock held by its waker: on one CPU it often preempts the
//! pusher, and a lock would send it straight back to sleep.
//!
//! *No lost wake.* The two fences are in one total order. If the
//! pusher's comes first, the sleeper's re-check (after its own fence)
//! sees the push and it does not park. If the sleeper's comes first,
//! the pusher's `sleepers` load sees the increment, and its scan sees
//! `asleep` — stored before the increment — unless a claimer or the
//! worker itself has cleared it since. Either way that worker is awake
//! and passes through `find_task` again; if it advertises anew after
//! the scan read its flag, the fence order puts that re-check after the
//! push. A scan that claims nothing leaves no push unseen: what it can
//! cost is parallelism, never progress.
//!
//! *Forwarding.* A worker whose re-check finds work withdraws with its
//! own `asleep.swap(false)`. If that reads `false`, a pusher claimed the
//! slot in the window, and its wake went to a worker that was not going
//! to sleep: the withdrawing worker forwards it — claims another
//! advertised slot — so a push that counted on waking a sibling still
//! wakes one.
//!
//! *Spurious returns and the shared park token.* The thread's parker is
//! also what a box on that worker blocks on (`Net::recv`, a `block_on`
//! over another net: each is one `wait_on`), so its token can be stale
//! in both directions: a claim whose worker withdrew leaves a token the
//! box's next wait consumes, and a box's late wake leaves one the idle
//! park consumes.
//! Neither loses a wake, because neither loop waits on the token: the
//! idle loop parks *while its slot's `asleep` is set* (only a claim
//! clears it, and every claim unparks after clearing it), and a box's
//! wait re-polls its future after every return. A stale token costs one
//! extra turn of a loop.
//!
//! Shutdown is `shutdown = true` (SeqCst), then a claim of every slot.
//! The re-check reads `shutdown` after the fence, so a worker that
//! advertises after the sweep passed its slot sees it and never parks.
//!
//! Queue discipline: the owner end of a Chase–Lev deque is LIFO, so a
//! worker runs its most recently woken task next (cache-hot), while
//! stealers drain its oldest. The **forced-yield path is the
//! exception**: a task rescheduled from within its own poll (budget
//! exhausted, or woken while running) goes to the *injector*, not the
//! local deque — re-pushing locally would pop the same task right
//! back and starve its worker's siblings, which matters most for
//! `SNET_WORKERS=1`, where there are no stealers to bail the worker
//! out. With yields routed globally, a single worker round-robins
//! every runnable task, which is what makes the one-worker pool a
//! valid fully-sequential scheduler (see the starvation-freedom note
//! in [`super`]).
//!
//! A task is a component future plus a wake state machine
//! (`IDLE → SCHEDULED → RUNNING → {IDLE | NOTIFIED}`) that guarantees
//! a task is queued at most once and a wake during its own poll
//! reschedules it instead of getting lost. Stream sends wake the
//! consuming task through its [`std::task::Waker`] (see
//! [`crate::stream::chan`]), which pushes it back onto a run queue —
//! and with coalesced wakeups, only when the task actually parked.
//!
//! Panic isolation: a panicking component unwinds out of its poll; the
//! worker catches the payload, drops the future (its channel endpoints
//! drop with it, cascading end-of-stream exactly as a dying thread
//! would) and records the payload in the network's
//! [`super::Tracker`]. The worker thread itself survives.
//!
//! # Helping: a waiting caller runs the pool's tasks
//!
//! A thread that waits for a service call (`CallHandle::wait`) and is
//! no pool worker first runs runnable tasks of the service's pool
//! ([`Executor::help`]). It claims each from the injector, where every
//! push from outside the pool lands, its own call's included, and runs
//! it as a worker does: the pop is the claim of a `SCHEDULED` task,
//! then `run_task` polls it once, `RUNNING`, under its [`Slice`] and
//! `catch_unwind`. After each task the caller polls its handle again.
//! It stops when the handle resolves or the injector is empty, and
//! only then parks. This is the helping join of Cilk and of Java's
//! `ForkJoinPool`. On one CPU a lone call used to cost two
//! cross-thread hand-offs: the call's push woke the worker, and the
//! answer woke the caller. Now the caller, which was about to wait
//! anyway, runs its own request in their place.
//!
//! *The wakes a helper skips.* A task the helper ran that must run
//! again (woken during its poll, or out of budget) goes back on the
//! injector without a wake: the helper's loop takes it next. Pushes
//! made by the task code it runs wake sleepers as usual, because that
//! code may block on anything afterwards, and a push that left its
//! task to the helper would then wait on a thread that is stuck. A
//! helper that stops with work still queued wakes one sleeper before
//! it parks, so no push is left unclaimed.
//!
//! *The one-yield hint.* The call's own push still wakes a parked
//! worker. Deferring that wake to the caller's wait is not sound: a
//! call whose handle is never waited on would never start. On one CPU
//! the woken worker then often preempts the caller and runs the
//! request itself, and caller and worker race for every request. So a
//! claim made while `Service::call_with` publishes its request
//! ([`as_waiter`]) asks the worker to yield once before it looks for
//! work, and the caller, about to wait, gets to the task first.
//! Measured on `serve-sensor` (the repo's benchmark, one CPU, 20 s
//! runs in pairs): with the hint, p50 fell from 8.2 to 4.7 µs (12 of
//! 12 pairs) and throughput held (+1.2 %); this same code without the
//! hint ran 164 k ops/s against 225 k with it (4 pairs). A prototype
//! that yielded on *every* claim, not only a caller's, cost
//! `fifo-sensor-det` 39 % of p50 and `array-frames` 109 % of
//! `setup_s`.
//!
//! *Bounds.* Only a wait for a call helps. Pool workers never help:
//! their wait parks, and their pool's other workers run the rest.
//! `feed_blocking`, `Net::recv` and `block_on` never help: their
//! callers promised to park. A wait with a deadline runs only a task
//! its slice has priced above one message, so that one poll is about
//! one [`SLICE`], and only while one `SLICE` still fits before the
//! deadline. Any other task goes back to the injector's front, and a
//! sleeper is woken to take it. The helper saves the thread's poll
//! budget and restores it after each task, so a helper inside a helped
//! task (a box waiting on another service) leaves that task's budget
//! as it was. What helping cannot bound is a task that blocks: a
//! caller without a deadline may run any runnable task of its pool,
//! and a box that waits until that same caller acts would then wait
//! forever. Such a box needs a pool of its own.

use super::deque::{Deque, Steal};
use super::{Completion, Executor, Slice, TaskFuture, SLICE};
use crate::stream::chan::{poll_budget, set_poll_budget, with_parker, ThreadParker};
use parking_lot::Mutex;
use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::atomic::{fence, AtomicBool, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::task::{Context, Poll, Wake, Waker};
use std::time::Instant;

// Task wake states.
const IDLE: u8 = 0; // parked, not queued; a wake must schedule it
const SCHEDULED: u8 = 1; // sitting in some run queue
const RUNNING: u8 = 2; // being polled right now
const NOTIFIED: u8 = 3; // woken during its own poll; reschedule after
const DONE: u8 = 4; // completed (or panicked); wakes are no-ops

struct TaskSlot {
    fut: Option<TaskFuture>,
    done: Option<Completion>,
    slice: Slice,
}

struct Task {
    state: AtomicU8,
    slot: Mutex<TaskSlot>,
    shared: Arc<Shared>,
}

impl Wake for Task {
    fn wake(self: Arc<Self>) {
        Task::wake_by_ref(&self);
    }

    fn wake_by_ref(self: &Arc<Self>) {
        loop {
            let cur = self.state.load(Ordering::Acquire);
            match cur {
                IDLE => {
                    if self
                        .state
                        .compare_exchange(IDLE, SCHEDULED, Ordering::AcqRel, Ordering::Acquire)
                        .is_ok()
                    {
                        self.shared.push(Arc::clone(self));
                        return;
                    }
                }
                RUNNING => {
                    if self
                        .state
                        .compare_exchange(RUNNING, NOTIFIED, Ordering::AcqRel, Ordering::Acquire)
                        .is_ok()
                    {
                        return;
                    }
                }
                // Already queued, already notified, or finished:
                // nothing to do.
                _ => return,
            }
        }
    }
}

/// One worker's sleep advertisement (see module docs, *Sleeping*).
struct IdleSlot {
    /// Set by the worker before its final re-check; cleared by exactly
    /// one `swap(false)` — a claim's or the worker's own withdrawal.
    asleep: AtomicBool,
    /// The worker thread's parker, registered as the worker starts
    /// (before its first advertisement, so every claim finds it).
    waker: OnceLock<Waker>,
    /// Set by a claim made for a caller about to wait ([`as_waiter`]),
    /// before the claiming swap publishes it; cleared by the worker as
    /// it wakes and by each advertisement, so a hint never outlives the
    /// sleep it was set in. The woken worker yields once before it looks
    /// for work (module docs, *Helping*).
    yield_first: AtomicBool,
}

struct Shared {
    /// External spawns and wakes, plus forced-yield reschedules (see
    /// module docs). The only mutexed queue left in the scheduler —
    /// per ISSUE/ROADMAP the locals are lock-free Chase–Lev deques.
    injector: Mutex<VecDeque<Arc<Task>>>,
    /// `injector.len()`, readable without the lock: a worker between
    /// tasks (`find_task`) and a worker about to sleep (`has_work`)
    /// look at the injector once per poll, and it is nearly always
    /// empty — wakes a worker delivers go to its own deque. Written
    /// under the lock, before the pusher's `notify_one` fence, so the
    /// sleep protocol's re-check sees it as it saw the queue itself.
    injected: AtomicUsize,
    locals: Vec<Deque<Task>>,
    /// One per worker, indexed like `locals`.
    idle: Vec<IdleSlot>,
    /// Advertised slots not yet claimed or withdrawn: incremented
    /// *after* the `asleep` store and *before* the final re-check (see
    /// [`worker_loop`]), decremented by whoever clears the flag. The
    /// wake hot path (every record delivery ends here) reads only this
    /// when no worker sleeps.
    sleepers: AtomicUsize,
    shutdown: AtomicBool,
}

thread_local! {
    /// `(pool, worker index)` when the current thread is a pool
    /// worker — routes same-pool spawns and wakes to the worker's own
    /// deque. The address is only compared, never dereferenced, and
    /// cannot name another pool while it is set: [`worker_loop`] holds
    /// its own `Arc<Shared>` from before it sets this until after it
    /// clears it, so every push made on this thread in between sees
    /// that `Shared` alive at that address.
    static CURRENT_WORKER: Cell<Option<(*const Shared, usize)>> = const { Cell::new(None) };

    /// Set while this thread, not a pool worker, publishes a request it
    /// is about to wait for ([`as_waiter`]).
    static WAITER: Cell<bool> = const { Cell::new(false) };
}

/// Runs `send` — a call's publication into its net — for a caller
/// that will wait for the answer, and helps while it waits: a pool
/// worker the send claims from its sleep yields once before it looks
/// for work, so on a shared CPU the caller runs its own request instead
/// of handing it over (module docs, *Helping*). A pool worker's sends
/// carry no hint: a worker never helps.
pub(crate) fn as_waiter<R>(send: impl FnOnce() -> R) -> R {
    struct Reset(bool);
    impl Drop for Reset {
        fn drop(&mut self) {
            WAITER.set(self.0);
        }
    }
    if CURRENT_WORKER.get().is_some() {
        return send();
    }
    let _reset = Reset(WAITER.replace(true));
    send()
}

impl Shared {
    fn new(workers: usize) -> Shared {
        Shared {
            injector: Mutex::new(VecDeque::new()),
            injected: AtomicUsize::new(0),
            locals: (0..workers).map(|_| Deque::new()).collect(),
            idle: (0..workers)
                .map(|_| IdleSlot {
                    asleep: AtomicBool::new(false),
                    waker: OnceLock::new(),
                    yield_first: AtomicBool::new(false),
                })
                .collect(),
            sleepers: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
        }
    }

    /// Queues a runnable task: on the current worker's deque when the
    /// caller is a worker of this pool, on the injector otherwise.
    /// Wakes one sleeping worker either way (local pushes must wake
    /// siblings too — that is what makes them stealable).
    fn push(&self, task: Arc<Task>) {
        match CURRENT_WORKER.get() {
            // SAFETY: this thread is worker `idx` of this pool — the
            // deque's owner.
            Some((pool, idx)) if std::ptr::eq(pool, self) => unsafe { self.locals[idx].push(task) },
            _ => self.inject(task),
        }
        self.notify_one();
    }

    fn inject(&self, task: Arc<Task>) {
        let mut q = self.injector.lock();
        q.push_back(task);
        self.injected.store(q.len(), Ordering::Release);
    }

    /// Puts back a task a helper claimed and would not run, where the
    /// next claimer looks first.
    fn inject_front(&self, task: Arc<Task>) {
        let mut q = self.injector.lock();
        q.push_front(task);
        self.injected.store(q.len(), Ordering::Release);
    }

    fn take_injected(&self) -> Option<Arc<Task>> {
        if self.injected.load(Ordering::Acquire) == 0 {
            return None;
        }
        let mut q = self.injector.lock();
        let task = q.pop_front();
        self.injected.store(q.len(), Ordering::Release);
        task
    }

    /// Queues a forced-yield reschedule on the global injector — never
    /// the local deque, whose LIFO owner end would hand the same task
    /// straight back (see module docs on queue discipline).
    fn push_yield(&self, task: Arc<Task>) {
        self.inject(task);
        self.notify_one();
    }

    /// Orders the preceding queue push before the sleeper read (the
    /// deque's release store alone does not forbid the load moving
    /// up), then claims one advertised worker — lowest index first —
    /// only when someone is asleep. No lock on either path. Either this
    /// load sees a sleeper's advertisement or that sleeper's fenced
    /// re-check sees the push (module docs, *No lost wake*).
    fn notify_one(&self) {
        fence(Ordering::SeqCst);
        if self.sleepers.load(Ordering::SeqCst) > 0 {
            (0..self.idle.len()).any(|idx| self.claim(idx));
        }
    }

    /// Wakes worker `idx` if it is advertised asleep, clearing its flag
    /// with one swap so no two claimers (nor the worker's withdrawal)
    /// both win it. The SeqCst load keeps an uncontended miss a plain
    /// read; the *No lost wake* argument needs it SeqCst. A claim for a
    /// caller about to wait asks the worker to yield once first; the
    /// swap publishes that hint to the worker it wakes.
    fn claim(&self, idx: usize) -> bool {
        let slot = &self.idle[idx];
        if !slot.asleep.load(Ordering::SeqCst) {
            return false;
        }
        if WAITER.get() {
            slot.yield_first.store(true, Ordering::Relaxed);
        }
        if !slot.asleep.swap(false, Ordering::SeqCst) {
            return false;
        }
        self.sleepers.fetch_sub(1, Ordering::SeqCst);
        slot.waker
            .get()
            .expect("a worker registers its waker before it advertises")
            .wake_by_ref();
        true
    }

    /// Worker `idx`'s first half of going to sleep: publish the flag,
    /// then the count, then fence before the caller's re-check.
    fn advertise(&self, idx: usize) {
        self.idle[idx].yield_first.store(false, Ordering::Relaxed);
        self.idle[idx].asleep.store(true, Ordering::SeqCst);
        self.sleepers.fetch_add(1, Ordering::SeqCst);
        fence(Ordering::SeqCst);
    }

    /// Worker `idx` takes its advertisement back because the re-check
    /// found work (or shutdown). Losing the swap means a pusher claimed
    /// the slot meanwhile and counted on a worker it is not getting:
    /// forward that wake to another advertised slot.
    fn withdraw(&self, idx: usize) {
        if self.idle[idx].asleep.swap(false, Ordering::SeqCst) {
            self.sleepers.fetch_sub(1, Ordering::SeqCst);
        } else {
            self.notify_one();
        }
    }

    /// Pops the next runnable task for worker `idx`: own deque bottom
    /// (LIFO, cache-hot), then the injector, then steal the oldest
    /// entry from a sibling.
    fn find_task(&self, idx: usize) -> Option<Arc<Task>> {
        // SAFETY: this thread is worker `idx` — the deque's owner.
        if let Some(t) = unsafe { self.locals[idx].pop() } {
            return Some(t);
        }
        if let Some(t) = self.take_injected() {
            return Some(t);
        }
        let n = self.locals.len();
        for off in 1..n {
            let j = (idx + off) % n;
            loop {
                match self.locals[j].steal() {
                    Steal::Success(t) => return Some(t),
                    Steal::Empty => break,
                    // Lost a race with the owner or another thief;
                    // someone made progress — retry this victim.
                    Steal::Retry => std::hint::spin_loop(),
                }
            }
        }
        None
    }

    fn has_work(&self) -> bool {
        if self.injected.load(Ordering::Acquire) > 0 {
            return true;
        }
        self.locals.iter().any(|d| !d.is_empty())
    }

    /// A waiting caller's turn at the injector (module docs, *Helping*):
    /// runs queued tasks as a worker would, asking `resolved` after
    /// each, until it says yes or the injector is empty. Under a
    /// `deadline` it runs only a task priced above one message whose
    /// poll still fits before it; any other goes back to the front of
    /// the injector, and a sleeper is woken to take it. A task it runs
    /// that must run again goes back to the injector with no wake —
    /// this loop takes it next — and whatever is still queued when the
    /// helper stops wakes one sleeper, so no push is left unclaimed.
    fn help(&self, deadline: Option<Instant>, resolved: &mut dyn FnMut() -> bool) {
        // A helped task's `Slice::poll` leaves the budget unlimited; a
        // helper inside a task's poll (a box waiting on another
        // service) gives that task back what it had left.
        let budget = poll_budget();
        while let Some(task) = self.take_injected() {
            if !fits(&task, deadline) {
                self.inject_front(task);
                break;
            }
            let again = run_task(task);
            set_poll_budget(budget);
            if let Some(task) = again {
                self.inject(task);
            }
            if resolved() {
                break;
            }
        }
        if self.has_work() {
            self.notify_one();
        }
    }
}

/// Whether a helper waiting until `deadline` may run `task`: one poll
/// is about one [`SLICE`] only once the task's slice has priced it
/// above one message (a new task's first message may take any time),
/// and one `SLICE` must still fit before the deadline.
fn fits(task: &Task, deadline: Option<Instant>) -> bool {
    deadline.is_none_or(|d| task.slot.lock().slice.budget > 1 && Instant::now() + SLICE <= d)
}

fn worker_loop(shared: Arc<Shared>, idx: usize) {
    CURRENT_WORKER.set(Some((Arc::as_ptr(&shared), idx)));
    with_parker(|parker, waker| {
        let _ = shared.idle[idx].waker.set(waker.clone());
        run_worker(&shared, idx, parker);
    });
    CURRENT_WORKER.set(None);
}

fn run_worker(shared: &Shared, idx: usize, parker: &ThreadParker) {
    let slot = &shared.idle[idx];
    loop {
        if let Some(task) = shared.find_task(idx) {
            if let Some(task) = run_task(task) {
                shared.push_yield(task);
            }
            continue;
        }
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        // Advertise *before* the final re-check: a pusher whose
        // `sleepers` load misses this pushed before the fence, so the
        // re-check sees its push; one that sees it claims a slot
        // (module docs, *No lost wake*).
        shared.advertise(idx);
        if shared.has_work() || shared.shutdown.load(Ordering::SeqCst) {
            shared.withdraw(idx);
            continue;
        }
        // Only a claim clears the flag, and it unparks after clearing
        // it; a return with the flag still set is spurious or a stale
        // token of the shared parker (module docs) — park again.
        while slot.asleep.load(Ordering::Acquire) {
            parker.park(None);
        }
        // Woken for a caller about to wait: let it run first, since it
        // helps while it waits (module docs, *Helping*).
        if slot.yield_first.load(Ordering::Relaxed) {
            slot.yield_first.store(false, Ordering::Relaxed);
            std::thread::yield_now();
        }
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
    }
}

/// Polls a task its claimer popped off a run queue, under the task's
/// slice and a panic guard. Returns the task if it must run again —
/// woken during its poll, or out of budget — for the claimer to queue.
fn run_task(task: Arc<Task>) -> Option<Arc<Task>> {
    task.state.store(RUNNING, Ordering::Release);
    let waker = Waker::from(Arc::clone(&task));
    let mut cx = Context::from_waker(&waker);
    let poll = {
        let mut slot = task.slot.lock();
        let TaskSlot { fut, slice, .. } = &mut *slot;
        slice.poll(|| {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| match fut.as_mut() {
                Some(f) => f.as_mut().poll(&mut cx),
                None => Poll::Ready(()),
            }))
        })
    };
    match poll {
        Ok(Poll::Pending) => {
            // Park, unless a wake arrived during the poll.
            if task
                .state
                .compare_exchange(RUNNING, IDLE, Ordering::AcqRel, Ordering::Acquire)
                .is_err()
            {
                // NOTIFIED: reschedule through the injector (this is
                // also the forced-yield path — going local would run
                // the same task again immediately).
                task.state.store(SCHEDULED, Ordering::Release);
                return Some(task);
            }
        }
        Ok(Poll::Ready(())) => finish(&task, Ok(())),
        Err(payload) => {
            // The worker survives; the payload reaches the tracker's
            // panic hook (fault channel, metrics, observers) and
            // wait_quiescent via Completion — no stderr side channel.
            finish(&task, Err(payload));
        }
    }
    None
}

fn finish(task: &Arc<Task>, result: Result<(), Box<dyn std::any::Any + Send>>) {
    task.state.store(DONE, Ordering::Release);
    let (fut, done) = {
        let mut slot = task.slot.lock();
        (slot.fut.take(), slot.done.take())
    };
    // Drop the future before reporting completion: its channel
    // endpoints drop with it, cascading end-of-stream downstream —
    // the same order a dying component thread produced.
    drop(fut);
    if let Some(done) = done {
        done.complete(result);
    }
}

/// Cooperative work-stealing executor: components as tasks over N
/// worker threads (see module docs).
pub struct WorkStealingPool {
    shared: Arc<Shared>,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl WorkStealingPool {
    /// Creates a pool with `workers` OS threads. Any count ≥ 1 is
    /// sound (see the deadlock-freedom argument in [`super`]); the
    /// determinism tests use small counts to force interleaving.
    pub fn new(workers: usize) -> WorkStealingPool {
        assert!(workers >= 1, "a pool needs at least one worker");
        let shared = Arc::new(Shared::new(workers));
        let handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("snet-pool-{i}"))
                    .spawn(move || worker_loop(shared, i))
                    .expect("failed to spawn pool worker")
            })
            .collect();
        WorkStealingPool {
            shared,
            workers: Mutex::new(handles),
        }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.shared.locals.len()
    }

    /// Tasks currently queued but not running (racy; test/diagnostic
    /// aid — exact once the pool is quiescent).
    pub fn queued_tasks(&self) -> usize {
        let inj = self.shared.injector.lock().len();
        inj + self.shared.locals.iter().map(|d| d.len()).sum::<usize>()
    }

    /// Yields until every worker is advertised asleep (parked, or about
    /// to park on an empty pool): tests start a round on a fully parked
    /// pool by counting, not by sleeping and hoping.
    #[cfg(test)]
    pub(crate) fn until_all_parked(&self) {
        while self.shared.sleepers.load(Ordering::SeqCst) < self.workers() {
            std::thread::yield_now();
        }
    }
}

impl Executor for WorkStealingPool {
    fn spawn(&self, _name: String, fut: TaskFuture, done: Completion) {
        // The task name travels with its Completion (tracker-side);
        // the pool itself has no per-task use for it.
        let task = Arc::new(Task {
            state: AtomicU8::new(SCHEDULED),
            slot: Mutex::new(TaskSlot {
                fut: Some(fut),
                done: Some(done),
                slice: Slice::START,
            }),
            shared: Arc::clone(&self.shared),
        });
        self.shared.push(task);
    }

    fn kind(&self) -> &'static str {
        "pool"
    }

    fn os_thread_bound(&self) -> Option<usize> {
        Some(self.workers())
    }

    /// Helps from any thread that is not a pool worker — of this pool
    /// or another: a worker's wait parks, and its pool's other tasks
    /// run on the other workers (module docs, *Helping*).
    fn help(&self, deadline: Option<Instant>, resolved: &mut dyn FnMut() -> bool) {
        if CURRENT_WORKER.get().is_none() {
            self.shared.help(deadline, resolved);
        }
    }
}

impl Drop for WorkStealingPool {
    fn drop(&mut self) {
        // Flag, then claim every slot: a worker that advertises after
        // the sweep passed it reads the flag in its fenced re-check.
        self.shared.shutdown.store(true, Ordering::SeqCst);
        for idx in 0..self.workers() {
            self.shared.claim(idx);
        }
        for h in self.workers.lock().drain(..) {
            let _ = h.join();
        }
        // Tasks still queued are dropped with the queues; their
        // `Completion`s fire through the drop path so no
        // `wait_quiescent` hangs. (Networks should be `finish`ed
        // before their pool is dropped — a component parked on a
        // still-open stream at this point is abandoned.) Draining also
        // breaks the `Task → Shared → locals → Task` refcount cycle.
        self.shared.injector.lock().clear();
        for d in &self.shared.locals {
            // SAFETY: all workers are joined; this is the only thread.
            unsafe { d.drain() };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::{Tracker, TASK_POLL_BUDGET};
    use crate::stream::chan::{channel, Receiver};
    use std::future::Future;
    use std::pin::Pin;
    use std::time::{Duration, Instant};

    /// Drains a channel of spin times, spinning for each, and records
    /// the budget every poll was granted.
    struct Drain {
        rx: Receiver<Duration>,
        grants: Arc<Mutex<Vec<u32>>>,
    }

    impl Future for Drain {
        type Output = ();
        fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
            self.grants.lock().push(crate::stream::poll_budget());
            let mut spin = |d: Duration| {
                let t = Instant::now();
                while t.elapsed() < d {
                    std::hint::spin_loop();
                }
            };
            loop {
                match self.rx.poll_recv_each(cx, usize::MAX, &mut spin) {
                    Poll::Ready(0) => return Poll::Ready(()),
                    Poll::Ready(_) => continue,
                    Poll::Pending => return Poll::Pending,
                }
            }
        }
    }

    #[test]
    fn budget_follows_the_cost_of_a_message() {
        const HEAVY: usize = 12;
        let (tx, rx) = channel();
        for _ in 0..HEAVY {
            tx.send(Duration::from_millis(1)).unwrap();
        }
        for _ in 0..20_000 {
            tx.send(Duration::ZERO).unwrap();
        }
        drop(tx);
        let grants = Arc::new(Mutex::new(Vec::new()));
        let tracker = Tracker::new();
        let pool = WorkStealingPool::new(1);
        pool.spawn(
            "drain".into(),
            Box::pin(Drain {
                rx,
                grants: Arc::clone(&grants),
            }),
            tracker.register("drain"),
        );
        tracker.wait_quiescent();
        let grants = grants.lock();
        // Millisecond messages: one per poll, from the first poll on
        // (the poll after the last of them was still granted one).
        assert_eq!(grants[..=HEAVY], [1; HEAVY + 1], "{grants:?}");
        // No-op messages: the budget climbs back to the cap.
        assert_eq!(grants.iter().max(), Some(&TASK_POLL_BUDGET), "{grants:?}");
        assert!(grants.iter().all(|&g| g >= 1), "{grants:?}");
    }

    /// Runs `f` on its own thread and fails if it has not returned
    /// within a minute — a lost wake hangs instead of failing.
    fn with_watchdog(what: &str, f: impl FnOnce() + Send + 'static) {
        let (done, finished) = std::sync::mpsc::channel();
        let h = std::thread::spawn(move || {
            f();
            let _ = done.send(());
        });
        match finished.recv_timeout(Duration::from_secs(60)) {
            Ok(()) => h.join().unwrap(),
            Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => {
                std::panic::resume_unwind(h.join().unwrap_err())
            }
            Err(std::sync::mpsc::RecvTimeoutError::Timeout) => panic!("{what} hung"),
        }
    }

    #[test]
    fn outside_ping_pong_wakes_a_fully_parked_pool() {
        const ROUNDS: u64 = 10_000;
        for workers in [1, 2, 4] {
            with_watchdog(&format!("ping-pong on pool({workers})"), move || {
                let pool = WorkStealingPool::new(workers);
                let tracker = Tracker::new();
                let (ping, pinged) = channel::<u64>();
                let (pong, ponged) = channel::<u64>();
                pool.spawn(
                    "echo".into(),
                    Box::pin(async move {
                        while let Ok(v) = pinged.recv_async().await {
                            pong.send(v + 1).unwrap();
                        }
                    }),
                    tracker.register("echo"),
                );
                for i in 0..ROUNDS {
                    // Every wake below comes from outside the pool to
                    // a worker that advertised itself asleep.
                    pool.until_all_parked();
                    ping.send(i).unwrap();
                    assert_eq!(ponged.recv().unwrap(), i + 1);
                }
                drop(ping);
                tracker.wait_quiescent();
            });
        }
    }

    #[test]
    fn dropping_a_fully_parked_pool_returns() {
        with_watchdog("drop of a parked pool(4)", || {
            let pool = WorkStealingPool::new(4);
            pool.until_all_parked();
            drop(pool);
        });
    }

    #[derive(Default)]
    struct CountWakes(AtomicUsize);

    impl Wake for CountWakes {
        fn wake(self: Arc<Self>) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn a_claim_lost_to_a_withdrawal_is_forwarded() {
        // Two slots and no threads: the race order is driven by hand.
        let shared = Shared::new(2);
        let wakes: Vec<Arc<CountWakes>> = (0..2).map(|_| Arc::default()).collect();
        for (slot, w) in shared.idle.iter().zip(&wakes) {
            slot.waker.set(Waker::from(Arc::clone(w))).unwrap();
        }
        let woken = || {
            wakes
                .iter()
                .map(|w| w.0.load(Ordering::SeqCst))
                .collect::<Vec<_>>()
        };
        let sleepers = || shared.sleepers.load(Ordering::SeqCst);
        shared.advertise(0);
        shared.advertise(1);
        // A push claims A, the lowest advertised slot…
        shared.notify_one();
        assert_eq!((woken(), sleepers()), (vec![1, 0], 1));
        // …while A's re-check found work: A withdraws, and the wake the
        // pusher counted on reaches B.
        shared.withdraw(0);
        assert_eq!((woken(), sleepers()), (vec![1, 1], 0));
        assert!(!shared.idle[1].asleep.load(Ordering::SeqCst));
        // An unclaimed withdrawal wakes nobody.
        shared.advertise(0);
        shared.withdraw(0);
        assert_eq!((woken(), sleepers()), (vec![1, 1], 0));
    }

    /// A task built by hand with the given slice budget, counting its
    /// polls (it completes on the first).
    fn counted(shared: &Arc<Shared>, polls: &Arc<AtomicUsize>, budget: u32) -> Arc<Task> {
        let polls = Arc::clone(polls);
        Arc::new(Task {
            state: AtomicU8::new(SCHEDULED),
            slot: Mutex::new(TaskSlot {
                fut: Some(Box::pin(async move {
                    polls.fetch_add(1, Ordering::SeqCst);
                })),
                done: None,
                slice: Slice {
                    budget,
                    fit: budget,
                },
            }),
            shared: Arc::clone(shared),
        })
    }

    #[test]
    fn a_helper_with_a_deadline_runs_only_a_priced_task_that_fits() {
        // One slot and no thread: the helper is this test.
        let shared = Arc::new(Shared::new(1));
        let wakes = Arc::new(CountWakes::default());
        shared.idle[0]
            .waker
            .set(Waker::from(Arc::clone(&wakes)))
            .unwrap();
        let woken = || wakes.0.load(Ordering::SeqCst);
        let polls = Arc::new(AtomicUsize::new(0));
        let polled = || polls.load(Ordering::SeqCst);
        let far = || Some(Instant::now() + Duration::from_secs(60));
        // A new task's first message may take any time: back to the
        // front, ahead of the priced one behind it, and the sleeper is
        // claimed to take it.
        let fresh = counted(&shared, &polls, 1);
        shared.inject(Arc::clone(&fresh));
        shared.inject(counted(&shared, &polls, 8));
        shared.advertise(0);
        shared.help(far(), &mut || false);
        assert_eq!((polled(), woken()), (0, 1));
        assert_eq!(shared.sleepers.load(Ordering::SeqCst), 0);
        assert!(Arc::ptr_eq(&shared.take_injected().unwrap(), &fresh));
        // A priced task with less than a slice left before the deadline
        // is not run either.
        shared.help(Some(Instant::now() + SLICE / 2), &mut || false);
        assert_eq!((polled(), woken()), (0, 1));
        // A priced task with room to spare runs, and the helper stops
        // on an empty injector, with nothing to wake anyone for.
        shared.advertise(0);
        shared.help(far(), &mut || false);
        assert_eq!((polled(), woken()), (1, 1));
        assert_eq!(shared.injected.load(Ordering::SeqCst), 0);
        // Without a deadline an unpriced task runs too, and the helper
        // stops as soon as its wait is over.
        shared.inject(counted(&shared, &polls, 1));
        shared.inject(counted(&shared, &polls, 1));
        shared.help(None, &mut || true);
        assert_eq!(
            (polled(), woken()),
            (2, 2),
            "the one left queued wakes the sleeper"
        );
        shared.injector.lock().clear();
    }

    #[test]
    fn a_helper_inside_a_helped_task_leaves_that_tasks_budget_intact() {
        with_watchdog("nested help", || {
            let pool = Arc::new(WorkStealingPool::new(1));
            let tracker = Tracker::new();
            // Hold the only worker, so the tasks below run on this
            // thread or not at all.
            let (started, running) = std::sync::mpsc::channel();
            let (open, latch) = std::sync::mpsc::channel::<()>();
            pool.spawn(
                "hold".into(),
                Box::pin(async move {
                    started.send(()).unwrap();
                    let _ = latch.recv();
                }),
                tracker.register("hold"),
            );
            running.recv().unwrap();
            // The outer task helps (as a box waiting on another service
            // would) and so runs the inner one under a slice of its own.
            let done = |flag: &Arc<AtomicBool>| {
                let flag = Arc::clone(flag);
                move || flag.load(Ordering::SeqCst)
            };
            let (outer_done, inner_done): (Arc<AtomicBool>, Arc<AtomicBool>) = Default::default();
            let budgets = Arc::new(Mutex::new(None));
            pool.spawn(
                "outer".into(),
                Box::pin({
                    let (pool, flag, budgets) = (
                        Arc::clone(&pool),
                        Arc::clone(&outer_done),
                        Arc::clone(&budgets),
                    );
                    let mut inner = done(&inner_done);
                    std::future::poll_fn(move |_| {
                        let before = crate::stream::poll_budget();
                        pool.help(None, &mut inner);
                        *budgets.lock() = Some((before, crate::stream::poll_budget()));
                        flag.store(true, Ordering::SeqCst);
                        Poll::Ready(())
                    })
                }),
                tracker.register("outer"),
            );
            let flag = Arc::clone(&inner_done);
            pool.spawn(
                "inner".into(),
                Box::pin(async move { flag.store(true, Ordering::SeqCst) }),
                tracker.register("inner"),
            );
            pool.help(None, &mut done(&outer_done));
            assert!(inner_done.load(Ordering::SeqCst));
            // A new task's first poll is granted one message.
            assert_eq!(*budgets.lock(), Some((1, 1)));
            drop(open);
            tracker.wait_quiescent();
        });
    }
}
