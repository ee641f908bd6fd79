//! A pool whose callers always help: one worker, held by a box of a
//! net of its own until the test lets it go. Every task of any other
//! net on that pool runs on the thread that waits for it — a caller in
//! `CallHandle::wait`, which runs runnable tasks of the service's pool
//! before it parks — or not until the worker is let go.

use snet_runtime::{Executor, Net, NetBuilder, WorkStealingPool};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Mutex};

/// The held worker's latch: dropping it lets the worker go and winds
/// the holding net down.
pub struct Held {
    open: Option<Sender<()>>,
    net: Option<Net>,
}

impl Drop for Held {
    fn drop(&mut self) {
        self.open.take();
        if let Some(net) = self.net.take() {
            net.finish();
        }
    }
}

/// A fresh `WorkStealingPool::new(1)` whose only worker is inside a
/// box that blocks until the returned [`Held`] is dropped. Returns once
/// the worker is in that box.
pub fn held_pool() -> (Arc<dyn Executor>, Held) {
    let exec: Arc<dyn Executor> = Arc::new(WorkStealingPool::new(1));
    let (open, latch) = channel::<()>();
    let (started, running) = channel::<()>();
    let latch = Mutex::new(latch);
    let started = Mutex::new(started);
    let net = NetBuilder::from_source("box hold (x) -> (x); net main = hold;")
        .unwrap()
        .bind("hold", move |rec, em| {
            started.lock().unwrap().send(()).unwrap();
            let _ = latch.lock().unwrap().recv();
            em.emit(rec.clone());
        })
        .executor(Arc::clone(&exec))
        .build("main")
        .unwrap();
    net.send(snet_types::Record::build().field("x", 0i64).finish())
        .unwrap();
    running.recv().unwrap();
    let held = Held {
        open: Some(open),
        net: Some(net),
    };
    (exec, held)
}
