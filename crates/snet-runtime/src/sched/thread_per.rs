//! The paper's execution model: one OS thread per component.
//!
//! Each component future gets a dedicated, named thread and runs under
//! a park/unpark [`block_on`]. Awaiting an empty stream parks the
//! thread — observable behaviour is identical to the seed's blocking
//! `recv()` loop, including thread names in panic messages and
//! debugger output.

use super::{Completion, Executor, TaskFuture};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::task::{Context, Poll, Wake, Waker};
use std::thread::Thread;

/// One OS thread per component: the paper's literal model, selected
/// with `SNET_EXECUTOR=threads` or `NetBuilder::executor`.
pub struct ThreadPerComponent;

impl Executor for ThreadPerComponent {
    fn spawn(&self, name: String, fut: TaskFuture, done: Completion) {
        std::thread::Builder::new()
            .name(name)
            .spawn(move || {
                let result =
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| block_on(fut)));
                done.complete(result);
            })
            .expect("failed to spawn component thread");
    }

    fn kind(&self) -> &'static str {
        "threads"
    }

    fn os_thread_bound(&self) -> Option<usize> {
        None
    }
}

/// Park/unpark waker: `wake` flags the notification and unparks the
/// component's thread.
struct ThreadWaker {
    thread: Thread,
    notified: AtomicBool,
}

impl Wake for ThreadWaker {
    fn wake(self: Arc<Self>) {
        self.wake_by_ref();
    }

    fn wake_by_ref(self: &Arc<Self>) {
        self.notified.store(true, Ordering::Release);
        self.thread.unpark();
    }
}

/// Drives a future to completion on the current thread, parking
/// between polls. This is what makes the async component bodies
/// behave exactly like the seed's blocking loops under
/// [`ThreadPerComponent`].
pub fn block_on(mut fut: TaskFuture) {
    let inner = Arc::new(ThreadWaker {
        thread: std::thread::current(),
        notified: AtomicBool::new(false),
    });
    let waker = Waker::from(Arc::clone(&inner));
    let mut cx = Context::from_waker(&waker);
    loop {
        match fut.as_mut().poll(&mut cx) {
            Poll::Ready(()) => return,
            Poll::Pending => {
                // `park` may return spuriously; loop on the flag.
                while !inner.notified.swap(false, Ordering::Acquire) {
                    std::thread::park();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_on_drives_channel_waits() {
        use std::sync::atomic::AtomicU32;
        let (tx, rx) = crate::stream::chan::channel::<u32>();
        let sum = Arc::new(AtomicU32::new(0));
        let sum2 = Arc::clone(&sum);
        let h = std::thread::spawn(move || {
            block_on(Box::pin(async move {
                while let Ok(v) = rx.recv_async().await {
                    sum2.fetch_add(v, Ordering::Relaxed);
                }
            }));
        });
        // Send after the consumer has (very likely) parked once.
        std::thread::sleep(std::time::Duration::from_millis(10));
        for i in 1..=10 {
            tx.send(i).unwrap();
        }
        drop(tx);
        h.join().unwrap();
        assert_eq!(sum.load(Ordering::Relaxed), 55);
    }
}
