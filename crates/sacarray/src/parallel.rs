//! Data-parallel execution substrate.
//!
//! SaC's claim — quoted by the paper — is that data parallelism "comes
//! for free ... it just requires multi-threaded code generation to be
//! enabled". This module is the library-level equivalent of that code
//! generation: a persistent worker pool plus a chunk-claiming
//! `parallel_for` over linear iteration spaces. With-loop evaluation
//! partitions a generator's index set into contiguous chunks; idle
//! workers claim chunks from an atomic counter, so imbalanced bodies
//! (cheap defaults vs. expensive generator expressions) still balance.
//!
//! The pool is deliberately simple — a mutex-protected queue with a
//! condition variable — because with-loop tasks are coarse: the crate
//! only goes parallel above [`PAR_THRESHOLD`] elements, at which point
//! queue overhead is noise. Panics inside bodies are captured and
//! re-thrown on the calling thread, preserving the single-threaded
//! observable behaviour.

use parking_lot::{Condvar, Mutex};
use std::any::Any;
use std::collections::VecDeque;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// Below this many elements a with-loop is evaluated sequentially;
/// thread coordination would dominate otherwise.
pub const PAR_THRESHOLD: usize = 4096;

/// Default chunk grain for `parallel_for`: large enough to amortise the
/// claim, small enough to balance imbalanced bodies.
pub const DEFAULT_GRAIN: usize = 1024;

type Job = Box<dyn FnOnce() + Send + 'static>;

struct PoolState {
    queue: VecDeque<Job>,
    shutdown: bool,
}

struct PoolInner {
    state: Mutex<PoolState>,
    cv: Condvar,
    threads: usize,
}

/// State shared between the caller and helper tasks of one
/// `parallel_for` call. Lives on the caller's stack; helpers receive a
/// lifetime-erased reference that is provably not used after the call
/// returns (the caller blocks on `done`).
struct ForShared {
    counter: AtomicUsize,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    panicked: AtomicBool,
    remaining: AtomicUsize,
    done: Mutex<bool>,
    done_cv: Condvar,
    len: usize,
    grain: usize,
    nchunks: usize,
}

impl ForShared {
    fn run<F: Fn(Range<usize>) + Sync>(&self, body: &F) {
        loop {
            if self.panicked.load(Ordering::Relaxed) {
                break;
            }
            let c = self.counter.fetch_add(1, Ordering::Relaxed);
            if c >= self.nchunks {
                break;
            }
            let start = c * self.grain;
            let end = (start + self.grain).min(self.len);
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(start..end)));
            if let Err(payload) = r {
                self.panicked.store(true, Ordering::Relaxed);
                let mut slot = self.panic.lock();
                if slot.is_none() {
                    *slot = Some(payload);
                }
            }
        }
    }

    fn finish(&self) {
        if self.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            let mut d = self.done.lock();
            *d = true;
            self.done_cv.notify_all();
        }
    }
}

/// A persistent pool of worker threads executing data-parallel chunks.
///
/// One global pool (sized from `SACARRAY_THREADS` or the machine's
/// available parallelism) backs the default with-loop entry points;
/// benchmarks construct private pools to measure scaling.
pub struct Pool {
    inner: Arc<PoolInner>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl Pool {
    /// Creates a pool with `threads` total compute threads. The calling
    /// thread always participates in [`Pool::parallel_for`], so
    /// `Pool::new(n)` spawns `n - 1` workers; `Pool::new(1)` spawns none
    /// and runs everything inline.
    pub fn new(threads: usize) -> Arc<Pool> {
        let threads = threads.max(1);
        let workers = threads - 1;
        let inner = Arc::new(PoolInner {
            state: Mutex::new(PoolState {
                queue: VecDeque::new(),
                shutdown: false,
            }),
            cv: Condvar::new(),
            threads,
        });
        let mut handles = Vec::with_capacity(workers);
        for i in 0..workers {
            let inner = Arc::clone(&inner);
            let h = std::thread::Builder::new()
                .name(format!("sacarray-worker-{i}"))
                .spawn(move || worker_loop(&inner))
                .expect("failed to spawn sacarray worker");
            handles.push(h);
        }
        Arc::new(Pool { inner, handles })
    }

    /// The process-wide default pool.
    pub fn global() -> &'static Arc<Pool> {
        static GLOBAL: OnceLock<Arc<Pool>> = OnceLock::new();
        GLOBAL.get_or_init(|| Pool::new(default_threads()))
    }

    /// Total compute threads this pool brings to a `parallel_for`
    /// (spawned workers + the calling thread).
    pub fn threads(&self) -> usize {
        self.inner.threads
    }

    fn submit(&self, job: Job) {
        let mut st = self.inner.state.lock();
        st.queue.push_back(job);
        drop(st);
        self.inner.cv.notify_one();
    }

    /// Runs `body` over `0..len` split into chunks of at most `grain`
    /// elements, in parallel across the pool, blocking until all chunks
    /// complete. `body` may run concurrently on many threads and must
    /// only touch disjoint state per chunk.
    ///
    /// Panics in `body` are propagated to the caller (first panic wins).
    pub fn parallel_for<F>(&self, len: usize, grain: usize, body: F)
    where
        F: Fn(Range<usize>) + Sync,
    {
        let grain = grain.max(1);
        if len == 0 {
            return;
        }
        let nchunks = len.div_ceil(grain);
        if nchunks == 1 || self.inner.threads == 1 {
            body(0..len);
            return;
        }

        let helpers = (self.inner.threads - 1).min(nchunks - 1);
        let shared = ForShared {
            counter: AtomicUsize::new(0),
            panic: Mutex::new(None),
            panicked: AtomicBool::new(false),
            remaining: AtomicUsize::new(helpers + 1),
            done: Mutex::new(false),
            done_cv: Condvar::new(),
            len,
            grain,
            nchunks,
        };

        let shared_ref: &ForShared = &shared;
        let body_ref: &F = &body;
        for _ in 0..helpers {
            let job: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
                shared_ref.run(body_ref);
                shared_ref.finish();
            });
            // SAFETY: the job only dereferences `shared_ref`/`body_ref`,
            // which live on this stack frame. Before this frame returns
            // we block until every job has called `finish()`, i.e. until
            // no job can touch the references again; the asserted
            // 'static lifetime is therefore never observable.
            let job: Job =
                unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + '_>, Job>(job) };
            self.submit(job);
        }

        shared.run(body_ref);
        shared.finish();

        let mut d = shared.done.lock();
        while !*d {
            shared.done_cv.wait(&mut d);
        }
        drop(d);

        let payload = shared.panic.lock().take();
        if let Some(payload) = payload {
            std::panic::resume_unwind(payload);
        }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        {
            let mut st = self.inner.state.lock();
            st.shutdown = true;
        }
        self.inner.cv.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(inner: &PoolInner) {
    loop {
        let job = {
            let mut st = inner.state.lock();
            loop {
                if let Some(job) = st.queue.pop_front() {
                    break job;
                }
                if st.shutdown {
                    return;
                }
                inner.cv.wait(&mut st);
            }
        };
        job();
    }
}

/// Thread count for the global pool: `SACARRAY_THREADS` env var when
/// set, otherwise the machine's available parallelism.
pub fn default_threads() -> usize {
    if let Ok(v) = std::env::var("SACARRAY_THREADS") {
        if let Ok(n) = v.parse::<usize>() {
            return n.max(1);
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn parallel_for_covers_every_index_exactly_once() {
        let pool = Pool::new(4);
        let n = 100_000;
        let hits: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
        pool.parallel_for(n, 777, |r| {
            for i in r {
                hits[i].fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn parallel_for_zero_len_is_noop() {
        let pool = Pool::new(2);
        pool.parallel_for(0, 10, |_| panic!("must not be called"));
    }

    #[test]
    fn single_thread_pool_runs_inline() {
        let pool = Pool::new(1);
        let sum = AtomicUsize::new(0);
        pool.parallel_for(1000, 64, |r| {
            sum.fetch_add(r.len(), Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 1000);
    }

    #[test]
    fn panics_propagate_to_caller() {
        let pool = Pool::new(4);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.parallel_for(10_000, 16, |r| {
                if r.contains(&5555) {
                    panic!("boom at 5555");
                }
            });
        }));
        assert!(result.is_err());
        // Pool stays usable after a panic.
        let sum = AtomicUsize::new(0);
        pool.parallel_for(100, 7, |r| {
            sum.fetch_add(r.len(), Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn many_concurrent_parallel_fors() {
        let pool = Pool::new(4);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    let sum = AtomicUsize::new(0);
                    pool.parallel_for(50_000, 1000, |r| {
                        sum.fetch_add(r.sum::<usize>(), Ordering::Relaxed);
                    });
                    assert_eq!(sum.load(Ordering::Relaxed), 50_000 * (50_000 - 1) / 2);
                });
            }
        });
    }

    #[test]
    fn global_pool_exists_and_works() {
        let pool = Pool::global();
        assert!(pool.threads() >= 1);
        let count = AtomicUsize::new(0);
        pool.parallel_for(10_000, 100, |r| {
            count.fetch_add(r.len(), Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 10_000);
    }

    #[test]
    fn grain_zero_is_clamped() {
        let pool = Pool::new(2);
        let count = AtomicUsize::new(0);
        pool.parallel_for(10, 0, |r| {
            count.fetch_add(r.len(), Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 10);
    }

    #[test]
    fn dropping_pool_joins_workers() {
        let pool = Pool::new(3);
        let count = AtomicUsize::new(0);
        pool.parallel_for(1000, 10, |r| {
            count.fetch_add(r.len(), Ordering::Relaxed);
        });
        drop(pool);
        assert_eq!(count.load(Ordering::Relaxed), 1000);
    }
}
