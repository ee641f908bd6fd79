//! Cold starts: the whole life of a net that answers one request.

use crate::workloads::{plain, Door, Workload};
use snet_runtime::Service;
use std::time::{Duration, Instant};

/// One cold cycle: source text → `build` → (`Service::start`) → first
/// verified reply → shutdown. Returns its wall time and whether the
/// reply passed the oracle.
pub fn cycle(w: &Workload, i: u64) -> (Duration, bool) {
    let t0 = Instant::now();
    let net = w.build(&plain).expect("workload net builds");
    let ok = match w.door {
        Door::Service => {
            let svc = Service::start(net);
            let ok = svc
                .call_with(w.request(i), Default::default())
                .ok()
                .and_then(|h| h.wait().ok())
                .is_some_and(|r| r.records.len() == 1 && w.check(i, &r.records[0]));
            svc.shutdown();
            ok
        }
        Door::Fifo => {
            let ok = net.send(w.request(i)).is_ok() && net.recv().is_some_and(|r| w.check(i, &r));
            ok && net.finish().is_empty()
        }
    };
    (t0.elapsed(), ok)
}

/// `cycles` cold cycles back to back. A count, not a time budget: the
/// number of nets a run builds and tears down is part of what its peak
/// memory reflects, so it must not depend on how fast the host is
/// today. Returns seconds per cycle and the number that failed the
/// oracle.
pub fn batch(w: &Workload, next: &mut u64, cycles: usize) -> (Vec<f64>, u64) {
    let mut secs = Vec::new();
    let mut failed = 0;
    for _ in 0..cycles {
        let (t, ok) = cycle(w, *next);
        *next += 1;
        secs.push(t.as_secs_f64());
        failed += u64::from(!ok);
    }
    (secs, failed)
}
