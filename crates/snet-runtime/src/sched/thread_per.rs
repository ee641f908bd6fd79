//! The paper's execution model: one OS thread per component.
//!
//! Each component future gets a dedicated, named thread and runs under
//! a park/unpark [`block_on`]. Awaiting an empty stream parks the
//! thread, like the seed's blocking `recv()` loop; thread names show in
//! panic messages and debugger output.

use super::{Completion, Executor, Slice, TaskFuture};
use crate::stream::chan::with_parker;
use std::task::Context;

/// One OS thread per component: the paper's literal model, selected
/// with `NetBuilder::executor`.
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

/// Drives a future to completion on the current thread, parking
/// between polls. Each poll runs under the task's measured time slice
/// ([`Slice`]), exactly as on a pool worker: a poll that spends its
/// budget returns `Pending` with its own wake already flagged, so the
/// loop goes straight round without parking.
pub fn block_on(mut fut: TaskFuture) {
    let mut slice = Slice::START;
    with_parker(|parker, waker| {
        let mut cx = Context::from_waker(waker);
        while slice.poll(|| fut.as_mut().poll(&mut cx)).is_pending() {
            parker.park(None);
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_on_drives_channel_waits() {
        use std::sync::atomic::{AtomicU32, Ordering};
        use std::sync::Arc;
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
