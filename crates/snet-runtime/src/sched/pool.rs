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
//! over another net), so its token can be stale in both directions: a
//! claim whose worker withdrew leaves a token the box's next wait
//! consumes, and a box's late wake leaves one the idle park consumes.
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

use super::deque::{Deque, Steal};
use super::{Completion, Executor, Slice, TaskFuture};
use crate::stream::chan::{with_parker, ThreadParker};
use parking_lot::Mutex;
use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::atomic::{fence, AtomicBool, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
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

/// One worker's sleep advertisement (see module docs, *Sleeping*).
struct IdleSlot {
    /// Set by the worker before its final re-check; cleared by exactly
    /// one `swap(false)` — a claim's or the worker's own withdrawal.
    asleep: AtomicBool,
    /// The worker thread's parker, registered as the worker starts
    /// (before its first advertisement, so every claim finds it).
    waker: OnceLock<Waker>,
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
    /// read; the *No lost wake* argument needs it SeqCst.
    fn claim(&self, idx: usize) -> bool {
        let slot = &self.idle[idx];
        if !(slot.asleep.load(Ordering::SeqCst) && slot.asleep.swap(false, Ordering::SeqCst)) {
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
            run_task(task);
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
        if shared.shutdown.load(Ordering::Acquire) {
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
}
