//! Stream tracing — the paper's debugging story made concrete.
//!
//! "Debugging the concurrent behaviour becomes rather straightforward
//! as all streams can be observed individually" (paper, Section 1).
//! [`TraceLog`] is a ready-made observer that records every record
//! crossing every component boundary, with its component path,
//! direction and record *type* (payloads stay opaque — this is the
//! coordination layer's view).

use crate::fault::{Fault, FaultObserver};
use crate::stream::{Dir, Observer};
use parking_lot::Mutex;
use snet_types::RecordType;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// One observed record crossing.
#[derive(Clone, Debug)]
pub struct TraceEntry {
    /// Microseconds since the log was created.
    pub t_us: u128,
    /// Component path, e.g. `net/s1/starnd/stage3/box:solveOneLevel`.
    pub path: String,
    pub dir: Dir,
    /// The record's type (label set) at the crossing.
    pub rtype: RecordType,
}

/// One observed component fault (see [`crate::fault`]).
#[derive(Clone, Debug)]
pub struct FaultEntry {
    /// Microseconds since the log was created.
    pub t_us: u128,
    /// Faulting component path (or task name for component deaths).
    pub component: String,
    /// The panic message.
    pub msg: String,
    /// Whether the fault dropped a record (terminal skip) as opposed
    /// to a recovered restart or component death.
    pub dropped: bool,
}

/// A shared, thread-safe trace of stream activity.
pub struct TraceLog {
    start: Instant,
    entries: Mutex<Vec<TraceEntry>>,
    faults: Mutex<Vec<FaultEntry>>,
}

impl TraceLog {
    pub fn new() -> Arc<TraceLog> {
        Arc::new(TraceLog {
            start: Instant::now(),
            entries: Mutex::new(Vec::new()),
            faults: Mutex::new(Vec::new()),
        })
    }

    /// An [`Observer`] feeding this log; pass to
    /// [`crate::NetBuilder::observe`].
    pub fn observer(self: &Arc<Self>) -> Observer {
        let log = Arc::clone(self);
        Arc::new(move |path, dir, rec| {
            let (path, rtype) = (path.to_string(), rec.record_type());
            // Stamped under the lock: two components on two workers
            // must not append in the opposite order of their stamps.
            let mut entries = log.entries.lock();
            entries.push(TraceEntry {
                t_us: log.start.elapsed().as_micros(),
                path,
                dir,
                rtype,
            });
        })
    }

    /// A [`FaultObserver`] feeding this log; pass to
    /// [`crate::NetBuilder::on_fault`]. Every contained fault —
    /// skipped records, recovered restarts, component deaths — lands
    /// as a [`FaultEntry`] alongside the stream trace.
    pub fn fault_observer(self: &Arc<Self>) -> FaultObserver {
        let log = Arc::clone(self);
        Arc::new(move |fault: &Fault| {
            let entry = FaultEntry {
                t_us: log.start.elapsed().as_micros(),
                component: fault.component.clone(),
                msg: fault.msg.clone(),
                dropped: fault.dropped.is_some(),
            };
            log.faults.lock().push(entry);
        })
    }

    /// A snapshot of all entries so far, in observation order.
    pub fn entries(&self) -> Vec<TraceEntry> {
        self.entries.lock().clone()
    }

    /// A snapshot of all fault entries so far, in observation order.
    pub fn faults(&self) -> Vec<FaultEntry> {
        self.faults.lock().clone()
    }

    /// Entries whose component path contains `needle` — "observe one
    /// stream individually".
    pub fn for_stream(&self, needle: &str) -> Vec<TraceEntry> {
        self.entries
            .lock()
            .iter()
            .filter(|e| e.path.contains(needle))
            .cloned()
            .collect()
    }

    /// Per-component traffic counts (in, out).
    pub fn summary(&self) -> BTreeMap<String, (usize, usize)> {
        let mut m: BTreeMap<String, (usize, usize)> = BTreeMap::new();
        for e in self.entries.lock().iter() {
            let slot = m.entry(e.path.clone()).or_insert((0, 0));
            match e.dir {
                Dir::In => slot.0 += 1,
                Dir::Out => slot.1 += 1,
            }
        }
        m
    }

    /// Renders the log as text, one line per crossing, with `[FAULT]`
    /// lines appended for observed faults.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for e in self.entries.lock().iter() {
            let arrow = match e.dir {
                Dir::In => "<-",
                Dir::Out => "->",
            };
            let _ = writeln!(out, "[{:>9}us] {} {} {}", e.t_us, e.path, arrow, e.rtype);
        }
        for f in self.faults.lock().iter() {
            let _ = writeln!(
                out,
                "[{:>9}us] [FAULT] {} {}: {}",
                f.t_us,
                f.component,
                if f.dropped {
                    "dropped record"
                } else {
                    "no drop"
                },
                f.msg
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::NetBuilder;
    use snet_types::Record;

    fn traced_net(log: &Arc<TraceLog>) -> crate::net::Net {
        NetBuilder::from_source(
            "box up (x) -> (x);
             net main = up .. [{x} -> {y=x}];",
        )
        .unwrap()
        .bind("up", |r, e| e.emit(r.clone()))
        .observe(log.observer())
        .build("main")
        .unwrap()
    }

    #[test]
    fn trace_captures_all_crossings() {
        let log = TraceLog::new();
        let net = traced_net(&log);
        for i in 0..3i64 {
            net.send(Record::build().field("x", i).finish()).unwrap();
        }
        let _ = net.finish();
        let summary = log.summary();
        let box_stats = summary
            .iter()
            .find(|(k, _)| k.contains("box:up"))
            .map(|(_, v)| *v)
            .unwrap();
        assert_eq!(box_stats, (3, 3));
        let filter_stats = summary
            .iter()
            .find(|(k, _)| k.contains("filter"))
            .map(|(_, v)| *v)
            .unwrap();
        assert_eq!(filter_stats, (3, 3));
    }

    #[test]
    fn individual_stream_observation() {
        let log = TraceLog::new();
        let net = traced_net(&log);
        net.send(Record::build().field("x", 9i64).finish()).unwrap();
        let _ = net.finish();
        let filter_only = log.for_stream("filter");
        assert!(!filter_only.is_empty());
        assert!(filter_only.iter().all(|e| e.path.contains("filter")));
        // The filter's outputs carry the renamed label.
        assert!(filter_only
            .iter()
            .any(|e| e.dir == Dir::Out && e.rtype.to_string() == "{y}"));
    }

    #[test]
    fn render_is_line_oriented_and_timestamped() {
        let log = TraceLog::new();
        let net = traced_net(&log);
        net.send(Record::build().field("x", 1i64).finish()).unwrap();
        let _ = net.finish();
        let text = log.render();
        assert!(text.lines().count() >= 4);
        assert!(text.contains("us]"));
        assert!(text.contains("box:up"));
    }

    #[test]
    fn timestamps_are_monotone() {
        let log = TraceLog::new();
        let net = traced_net(&log);
        for i in 0..5i64 {
            net.send(Record::build().field("x", i).finish()).unwrap();
        }
        let _ = net.finish();
        let entries = log.entries();
        assert!(entries.windows(2).all(|w| w[0].t_us <= w[1].t_us));
    }
}
