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
//! injector, then sleep; every push wakes one sleeper.
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

use super::deque::{Deque, Steal};
use super::{Completion, Executor, Slice, TaskFuture};
use parking_lot::{Condvar, Mutex};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::atomic::{fence, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Weak};
use std::task::{Context, Poll, Wake, Waker};

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

struct SleepState {
    shutdown: bool,
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
    sleep: Mutex<SleepState>,
    cv: Condvar,
    /// Mirror of the sleeping-worker count, readable without the sleep
    /// lock: the wake hot path (every record delivery ends here) must
    /// not serialise on a mutex when all workers are busy. Incremented
    /// *before* a parking worker's final work re-check (see
    /// [`worker_loop`]) so a pusher that reads 0 is guaranteed the
    /// parker will see its push.
    sleepers: AtomicUsize,
}

thread_local! {
    /// `(pool, worker index)` when the current thread is a pool
    /// worker — routes same-pool spawns and wakes to the worker's own
    /// deque.
    static CURRENT_WORKER: RefCell<Option<(Weak<Shared>, usize)>> = const { RefCell::new(None) };
}

impl Shared {
    /// Queues a runnable task: on the current worker's deque when the
    /// caller is a worker of this pool, on the injector otherwise.
    /// Wakes one sleeping worker either way (local pushes must wake
    /// siblings too — that is what makes them stealable).
    fn push(self: &Arc<Self>, task: Arc<Task>) {
        let mut task = Some(task);
        CURRENT_WORKER.with(|c| {
            if let Some((pool, idx)) = c.borrow().as_ref() {
                if let Some(pool) = pool.upgrade() {
                    if Arc::ptr_eq(&pool, self) {
                        // SAFETY: this thread is worker `idx` of this
                        // pool — the deque's owner.
                        unsafe { self.locals[*idx].push(task.take().unwrap()) };
                    }
                }
            }
        });
        if let Some(t) = task {
            self.inject(t);
        }
        self.notify_one();
    }

    fn inject(&self, task: Arc<Task>) {
        let mut q = self.injector.lock();
        q.push_back(task);
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
    fn push_yield(self: &Arc<Self>, task: Arc<Task>) {
        self.inject(task);
        self.notify_one();
    }

    /// Orders the preceding queue push before the sleeper read (the
    /// deque's release store alone does not forbid the load moving
    /// up), then notifies only when someone is actually asleep. The
    /// race is closed by the parker's protocol: it advertises itself
    /// in `sleepers` (SeqCst RMW) and fences *before* re-checking the
    /// queues, so either this load sees the parker (notify path) or
    /// the parker's re-check sees the push (no sleep).
    fn notify_one(&self) {
        fence(Ordering::SeqCst);
        if self.sleepers.load(Ordering::SeqCst) > 0 {
            let _st = self.sleep.lock();
            self.cv.notify_one();
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
}

fn worker_loop(shared: Arc<Shared>, idx: usize) {
    CURRENT_WORKER.with(|c| *c.borrow_mut() = Some((Arc::downgrade(&shared), idx)));
    loop {
        if let Some(task) = shared.find_task(idx) {
            run_task(task);
            continue;
        }
        let mut st = shared.sleep.lock();
        if st.shutdown {
            return;
        }
        // Advertise the intent to sleep *before* the final work
        // re-check: a pusher that misses this increment pushed before
        // it (SeqCst total order), so the fenced re-check below sees
        // that push; a pusher that sees it takes the sleep lock to
        // notify, which cannot complete until `cv.wait` has released
        // the lock.
        shared.sleepers.fetch_add(1, Ordering::SeqCst);
        fence(Ordering::SeqCst);
        if shared.has_work() {
            shared.sleepers.fetch_sub(1, Ordering::SeqCst);
            continue;
        }
        shared.cv.wait(&mut st);
        shared.sleepers.fetch_sub(1, Ordering::SeqCst);
        if st.shutdown {
            return;
        }
    }
}

fn run_task(task: Arc<Task>) {
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
                let shared = Arc::clone(&task.shared);
                shared.push_yield(task);
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
        let shared = Arc::new(Shared {
            injector: Mutex::new(VecDeque::new()),
            injected: AtomicUsize::new(0),
            locals: (0..workers).map(|_| Deque::new()).collect(),
            sleep: Mutex::new(SleepState { shutdown: false }),
            cv: Condvar::new(),
            sleepers: AtomicUsize::new(0),
        });
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
}

impl Drop for WorkStealingPool {
    fn drop(&mut self) {
        {
            let mut st = self.shared.sleep.lock();
            st.shutdown = true;
        }
        self.shared.cv.notify_all();
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
}
