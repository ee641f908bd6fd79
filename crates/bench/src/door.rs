//! The door pair: one one-box `id` net driven closed loop at a fixed
//! window by one thread, once through the FIFO door (`Net::send` /
//! `Net::recv`) and once through the `Service` door (`call` / `wait`).
//! The net does nothing, so the per-operation difference between the
//! two is the *door tax*: what request correlation costs on top of the
//! stream pair it fronts.
//!
//! Rows `door/{fifo,service}_w{1,128}` of the `runtime_primitives`
//! bench: a window of 128 keeps the net busy, a window of 1 is the lone
//! caller, who waits out every round trip. Compare the rows of one run,
//! pinned to one CPU (`taskset -c 0`).

use snet_runtime::{CallHandle, Net, NetBuilder, Service};
use snet_types::Record;
use std::collections::VecDeque;

/// `box id (x) -> (x); net main = id` on the default executor.
pub fn id_net() -> Net {
    NetBuilder::from_source("box id (x) -> (x); net main = id;")
        .expect("door net parses")
        .bind("id", |r, e| e.emit(r.clone()))
        .build("main")
        .expect("door net builds")
}

fn request(i: u64) -> Record {
    Record::build().field("x", i as i64).finish()
}

fn answers(rec: &Record, i: u64) -> bool {
    rec.field("x").and_then(|v| v.as_int()) == Some(i as i64)
}

/// `ops` operations through the FIFO door, numbered from `first`, with
/// up to `window` in flight. Returns how many were lost or came back
/// out of order (the net is a single box, so responses arrive in
/// request order).
pub fn fifo(net: &Net, first: u64, ops: u64, window: u64) -> u64 {
    let mut bad = 0;
    let mut harvest = |i: u64| match net.recv() {
        Some(rec) if answers(&rec, i) => {}
        _ => bad += 1,
    };
    // The oldest request not yet answered.
    let mut due = first;
    for i in first..first + ops {
        if i - due == window {
            harvest(due);
            due += 1;
        }
        net.send(request(i)).expect("door net accepts (x)");
    }
    (due..first + ops).for_each(harvest);
    bad
}

/// `ops` operations through the `Service` door, numbered from `first`,
/// with up to `window` in flight, harvested oldest first. Returns how
/// many were refused, failed or answered with another request's record.
pub fn service(svc: &Service, first: u64, ops: u64, window: u64) -> u64 {
    let mut bad = 0;
    let mut open: VecDeque<(u64, Option<CallHandle>)> = VecDeque::new();
    let mut harvest = |(i, h): (u64, Option<CallHandle>)| {
        let ok = h
            .and_then(|h| h.wait().ok())
            .is_some_and(|resp| resp.records.len() == 1 && answers(&resp.records[0], i));
        bad += u64::from(!ok);
    };
    for i in first..first + ops {
        if open.len() as u64 == window {
            harvest(open.pop_front().expect("window is full"));
        }
        open.push_back((i, svc.call(request(i)).ok()));
    }
    open.into_iter().for_each(harvest);
    bad
}
