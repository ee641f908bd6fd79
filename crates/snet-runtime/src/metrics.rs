//! Runtime metrics: handle-based counters behind a string-queryable
//! registry.
//!
//! The paper argues about its networks through *structural bounds*:
//! Figure 1's pipeline "cannot lead to pipelines longer than 81
//! replicas", Figure 2 guarantees "a maximum of 9 × 81 = 729
//! solveOneLevel boxes", Figure 3's modulo filter "implicitly limits
//! the parallel unfolding to a maximum of 4 instances". The metrics
//! registry makes those bounds *measurable*: every component counts
//! records and replicas, and the experiment harness asserts the
//! paper's numbers instead of eyeballing them.
//!
//! # Design: register at spawn by id, count through handles
//!
//! Counting must not be what the coordination layer spends its time
//! on, and neither must registering: a replica that unfolds registers
//! its counters on the spot. The registry therefore keys a counter by
//! ids and renders its key text only when a query asks for it.
//!
//! * **Registration** happens once per component at spawn time. A
//!   counter is keyed by `(path id, name id)`: the component's
//!   [`CompPath`] and the interned metric name (see [`crate::path`]).
//!   The runtime's spawn sites register all of a component's counters
//!   under one lock, carving their cells out of a shared block of
//!   [`BLOCK`] atomics, so a component costs one lock and at most one
//!   allocation however many counters it has. No string is formatted,
//!   hashed or compared. Registering the same key twice returns
//!   handles to the *same* cell, so dynamically re-spawned components
//!   accumulate rather than reset.
//! * **One cell per key text, whichever API registered it.**
//!   [`Metrics::handle`] splits a key at its last `/` into a path and
//!   a name (a key with no `/` is a name with no path), and
//!   [`Metrics::handle_at`] with a name holding a `/` moves the part
//!   before it onto the path, so `handle("net/box:f/records_in")` and
//!   `handle_at(net/box:f, "records_in")` share one cell. These two
//!   hash their text to find its ids, and intern the path and name
//!   they find process-wide, as component paths are: they are for
//!   callers outside the spawn path, with keys from a bounded set.
//! * **Counting** happens per record through the handle: a single
//!   relaxed `fetch_add`/`fetch_max`, no lock, no allocation, no
//!   string formatting. Relaxed ordering is sufficient — counters are
//!   independent monotone quantities, and every reader takes the
//!   registry lock, which synchronizes with the component threads'
//!   channel operations at termination.
//! * **Queries** ([`Metrics::get`], [`Metrics::sum_matching`], ...)
//!   take the registry lock, render every key as `{path}/{name}` and
//!   read the atomics: they pay for the text registration skipped
//!   (`get` included: it scans rather than intern the key it is
//!   asked for). Queries are rare; they observe counters
//!   registered *after* the network started (replicators spawn
//!   components dynamically), because registration inserts into the
//!   same map queries iterate.
//!
//! There is no way to count by key: a caller that wants to count
//! holds a [`Counter`], so nothing on a per-record or per-request path
//! can pay the registry lock and a string hash without saying so.
//!
//! # One lock
//!
//! The registry is one mutex, not shards. A registration holds it for
//! an id lookup and a slot in a block. Two threads doing nothing but
//! registering do contend on it, but a net that unfolds replicas on
//! several workers interleaves registration with building their
//! streams and tasks: unfused Fig. 2 on a pool of two is no slower
//! from cold with one lock than with shards keyed by path id
//! (CHANGES.md has both measurements).

use crate::path::{CompPath, Name};
use parking_lot::Mutex;
use snet_types::FxMap;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Cells per block registration carves counters from (a power of
/// two, so a slot index masks instead of bounds-checking).
const BLOCK: usize = 64;

/// A block of counter cells, shared by the counters carved from it.
struct Cells([AtomicU64; BLOCK]);

fn new_block() -> Arc<Cells> {
    Arc::new(Cells(std::array::from_fn(|_| AtomicU64::new(0))))
}

/// A registered counter: one atomic cell shared with the registry.
/// Cloning is cheap (an `Arc` bump) and clones address the same cell.
#[derive(Clone)]
pub struct Counter {
    cells: Arc<Cells>,
    slot: usize,
}

impl Counter {
    #[inline]
    fn cell(&self) -> &AtomicU64 {
        &self.cells.0[self.slot & (BLOCK - 1)]
    }

    /// Adds `delta`. Lock-free, allocation-free.
    #[inline]
    pub fn inc(&self, delta: u64) {
        self.cell().fetch_add(delta, Ordering::Relaxed);
    }

    /// Raises the counter to at least `v` (high-water marks such as
    /// pipeline depth). Lock-free, allocation-free. A plain load when
    /// `v` is no higher: a high-water mark stops moving early, and a
    /// `fetch_max` is a locked operation even when it changes nothing.
    #[inline]
    pub fn max(&self, v: u64) {
        let cell = self.cell();
        if v > cell.load(Ordering::Relaxed) {
            cell.fetch_max(v, Ordering::Relaxed);
        }
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.cell().load(Ordering::Relaxed)
    }
}

impl fmt::Debug for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Counter({})", self.get())
    }
}

/// A counter's key: the component path (none for a key with no `/`)
/// and the metric name.
type Key = (Option<CompPath>, Name);

/// Splits a key text at its last `/` into its [`Key`].
fn key_of(text: &str) -> Key {
    match text.rsplit_once('/') {
        Some((path, name)) => (Some(CompPath::root(path)), Name::new(name)),
        None => (None, Name::new(text)),
    }
}

struct Registry {
    cells: FxMap<Key, Counter>,
    /// The block new counters are carved from, and its next free slot.
    block: Arc<Cells>,
    used: usize,
}

impl Registry {
    fn counter(&mut self, key: Key) -> Counter {
        if let Some(c) = self.cells.get(&key) {
            return c.clone();
        }
        if self.used == BLOCK {
            self.block = new_block();
            self.used = 0;
        }
        let c = Counter {
            cells: Arc::clone(&self.block),
            slot: self.used,
        };
        self.used += 1;
        self.cells.insert(key, c.clone());
        c
    }
}

/// Shared metrics registry for one running network (see module docs).
pub struct Metrics {
    registry: Mutex<Registry>,
}

impl Default for Metrics {
    fn default() -> Metrics {
        Metrics {
            registry: Mutex::new(Registry {
                cells: FxMap::default(),
                block: new_block(),
                used: 0,
            }),
        }
    }
}

impl Metrics {
    pub fn new() -> Arc<Metrics> {
        Arc::new(Metrics::default())
    }

    /// Registers (or re-attaches to) the counter under `key` and
    /// returns its handle. Spawn-time API: this takes the registry
    /// lock and may allocate; per-record code must go through the
    /// returned [`Counter`] instead.
    pub fn handle(&self, key: impl AsRef<str>) -> Counter {
        let key = key_of(key.as_ref());
        self.registry.lock().counter(key)
    }

    /// [`Metrics::handle`] under the conventional `{path}/{name}` key.
    pub fn handle_at(&self, path: CompPath, name: &str) -> Counter {
        let key = match name.rsplit_once('/') {
            Some((mid, name)) => (Some(path.child(mid)), Name::new(name)),
            None => (Some(path), Name::new(name)),
        };
        self.registry.lock().counter(key)
    }

    /// The counters `{path}/{name}` of one component, under one lock:
    /// the spawn sites' registration (module docs, *Design*).
    pub(crate) fn counters_at<const N: usize>(
        &self,
        path: CompPath,
        names: [Name; N],
    ) -> [Counter; N] {
        let mut registry = self.registry.lock();
        names.map(|name| registry.counter((Some(path), name)))
    }

    /// Reads one counter (0 when absent).
    pub fn get(&self, key: impl AsRef<str>) -> u64 {
        let (path, name) = match key.as_ref().rsplit_once('/') {
            Some((path, name)) => (Some(path), name),
            None => (None, key.as_ref()),
        };
        self.registry
            .lock()
            .cells
            .iter()
            .find(|((p, n), _)| n.as_str() == name && p.map(|p| p.as_str()) == path)
            .map_or(0, |(_, c)| c.get())
    }

    /// Folds over every `(key, value)` pair, rendering each key.
    /// Queries observe counters registered after the network started
    /// (replicators spawn components dynamically).
    fn fold<A>(&self, init: A, mut f: impl FnMut(A, &str, u64) -> A) -> A {
        let mut acc = init;
        let mut text = String::new();
        for ((path, name), c) in self.registry.lock().cells.iter() {
            text.clear();
            if let Some(path) = path {
                text.push_str(path.as_str());
                text.push('/');
            }
            text.push_str(name.as_str());
            acc = f(acc, &text, c.get());
        }
        acc
    }

    /// Sum of all counters whose key contains `needle`.
    pub fn sum_matching(&self, needle: &str) -> u64 {
        self.fold(
            0u64,
            |acc, k, v| if k.contains(needle) { acc + v } else { acc },
        )
    }

    /// Maximum over all counters whose key contains `needle`.
    pub fn max_matching(&self, needle: &str) -> u64 {
        self.fold(
            0u64,
            |acc, k, v| if k.contains(needle) { acc.max(v) } else { acc },
        )
    }

    /// Number of distinct counters whose key contains `needle`.
    pub fn count_matching(&self, needle: &str) -> usize {
        self.fold(
            0usize,
            |acc, k, _| if k.contains(needle) { acc + 1 } else { acc },
        )
    }

    /// A stable, key-sorted snapshot of all counters.
    pub fn snapshot(&self) -> BTreeMap<String, u64> {
        self.fold(BTreeMap::new(), |mut acc, k, v| {
            acc.insert(k.to_string(), v);
            acc
        })
    }
}

impl fmt::Debug for Metrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let snap = self.snapshot();
        writeln!(f, "Metrics ({} counters):", snap.len())?;
        for (k, v) in snap.iter() {
            writeln!(f, "  {k} = {v}")?;
        }
        Ok(())
    }
}

/// Well-known metric name suffixes used across the runtime.
pub mod keys {
    /// A component instance was spawned.
    pub const SPAWNED: &str = "spawned";
    /// Records consumed from the input stream.
    pub const RECORDS_IN: &str = "records_in";
    /// Records produced to the output stream.
    pub const RECORDS_OUT: &str = "records_out";
    /// Replicas created by a serial replicator (pipeline depth).
    pub const STAGES: &str = "stages";
    /// Branches created by an indexed parallel replicator.
    pub const BRANCHES: &str = "branches";
    /// Records that left through a star's exit tap.
    pub const EXITS: &str = "exits";
    /// Gauge (full key, not a suffix): high-water mark of the
    /// process-wide component-path interner, sampled at network spawn
    /// and finish. Distinct paths are leaked by design (see
    /// `crate::path`); this makes the growth observable.
    pub const INTERNER_PATHS: &str = "runtime/interner_paths";
    /// High-water mark of queued messages on one bounded edge
    /// (suffix, keyed `{path}/stream_depth`; also mirrored into
    /// [`STREAM_DEPTH_GLOBAL`]).
    pub const STREAM_DEPTH: &str = "stream_depth";
    /// Producer park episodes awaiting credit on one bounded edge
    /// (suffix, keyed `{path}/credit_stalls`; also mirrored into
    /// [`CREDIT_STALLS_GLOBAL`]).
    pub const CREDIT_STALLS: &str = "credit_stalls";
    /// Gauge (full key): net-global high-water queue depth across all
    /// bounded edges.
    pub const STREAM_DEPTH_GLOBAL: &str = "runtime/stream_depth";
    /// Counter (full key): net-global credit stalls across all
    /// bounded edges.
    pub const CREDIT_STALLS_GLOBAL: &str = "runtime/credit_stalls";
    /// Counter (full key): requests accepted by a [`crate::serve`]
    /// front door (stamped with a request id and injected into the
    /// network).
    pub const SERVE_REQUESTS: &str = "serve/requests";
    /// Counter (full key): requests completed with their full
    /// response (every expected record correlated back).
    pub const SERVE_COMPLETED: &str = "serve/completed";
    /// Counter (full key): egress records that could not be
    /// correlated to a pending request — a record that carries no
    /// issued request id (sent into the net by other means) or arrived
    /// after its caller gave up (late). A healthy service holds this at zero apart from
    /// deliberately abandoned calls.
    pub const SERVE_STRAY: &str = "serve/stray";
    /// Gauge (full key): high-water mark of concurrently in-flight
    /// requests at the serve front door.
    pub const SERVE_INFLIGHT: &str = "serve/inflight";
    /// Counter (full key): fault incidents across the net — one per
    /// skipped record or dead component. See [`crate::fault`].
    pub const COMPONENT_PANICS: &str = "runtime/component_panics";
    /// Fault incidents at one component (suffix, keyed
    /// `{path}/panics`).
    pub const PANICS: &str = "panics";
    /// Poison records dropped at one guarded stage (suffix, keyed
    /// `{path}/records_skipped`; one per panic the guard caught).
    pub const RECORDS_SKIPPED: &str = "records_skipped";
    /// Counter (full key): serve requests resolved as
    /// [`crate::CallError::Faulted`] because a component fault
    /// dropped one of their records.
    pub const SERVE_FAULTED: &str = "serve/faulted";
    /// Counter (full key): panics of the serve egress drain itself (a
    /// stream observer of `serve/stray`, say). Caught on the thread
    /// whose send ran the drain; each fails all open slots with
    /// `ServiceStopped` and drops the net's output edge, so callers are
    /// never stranded and the net winds down. The key keeps the name
    /// of the demux task the drain replaced.
    pub const SERVE_DEMUX_PANICS: &str = "serve/demux_panics";
    /// Counter (full key): calls served from a recycled completion
    /// slot instead of a fresh allocation (the serve front door keeps
    /// a small free list; see `serve::service`).
    pub const SERVE_SLOT_REUSE: &str = "serve/slot_reuse";
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inc_get_roundtrip() {
        let m = Metrics::new();
        m.handle("a/b").inc(1);
        m.handle("a/b").inc(2);
        assert_eq!(m.get("a/b"), 3);
        assert_eq!(m.get("missing"), 0);
    }

    #[test]
    fn matching_aggregates() {
        let m = Metrics::new();
        m.handle("net/stage0/box:solve/records_in").inc(4);
        m.handle("net/stage1/box:solve/records_in").inc(6);
        m.handle("net/stage1/box:other/records_in").inc(100);
        assert_eq!(m.sum_matching("box:solve/"), 10);
        assert_eq!(m.max_matching("box:solve/"), 6);
        assert_eq!(m.count_matching("box:solve/"), 2);
        assert_eq!(m.sum_matching("zzz"), 0);
        assert_eq!(m.max_matching("zzz"), 0);
    }

    #[test]
    fn concurrent_registrations_of_one_key_are_consistent() {
        let m = Metrics::new();
        std::thread::scope(|s| {
            for _ in 0..8 {
                let m = Arc::clone(&m);
                s.spawn(move || {
                    for _ in 0..1000 {
                        m.handle("hot").inc(1);
                    }
                });
            }
        });
        assert_eq!(m.get("hot"), 8000);
    }

    #[test]
    fn snapshot_is_stable_copy() {
        let m = Metrics::new();
        m.handle("x").inc(1);
        let snap = m.snapshot();
        m.handle("x").inc(1);
        assert_eq!(snap.get("x"), Some(&1));
        assert_eq!(m.get("x"), 2);
    }

    #[test]
    fn handles_of_one_key_share_one_cell() {
        let m = Metrics::new();
        let h = m.handle("net/box:f/records_in");
        h.inc(3);
        // A second handle for the same key attaches to the same cell.
        let h2 = m.handle("net/box:f/records_in");
        h2.inc(2);
        assert_eq!(m.get("net/box:f/records_in"), 5);
        assert_eq!(h.get(), 5);
    }

    #[test]
    fn handle_at_uses_path_name_convention() {
        let m = Metrics::new();
        let p = CompPath::root("net").child("box:g");
        let h = m.handle_at(p, keys::RECORDS_OUT);
        h.inc(7);
        assert_eq!(m.get("net/box:g/records_out"), 7);
        assert_eq!(m.sum_matching("box:g/"), 7);
    }

    #[test]
    fn concurrent_handle_increments_are_consistent() {
        let m = Metrics::new();
        let h = m.handle("hot");
        std::thread::scope(|s| {
            for _ in 0..8 {
                let h = h.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        h.inc(1);
                    }
                });
            }
        });
        assert_eq!(m.get("hot"), 8000);
        assert_eq!(h.get(), 8000);
    }

    #[test]
    fn queries_see_counters_registered_later() {
        let m = Metrics::new();
        m.handle("a/records_in").inc(1);
        assert_eq!(m.count_matching("records_in"), 1);
        // A component spawned after the first query (dynamic replica).
        m.handle("b/records_in").inc(4);
        assert_eq!(m.count_matching("records_in"), 2);
        assert_eq!(m.sum_matching("records_in"), 5);
    }

    #[test]
    fn sharded_registration_is_consistent_across_shards() {
        // Mass registration from many threads with distinct component
        // paths (the dynamic-unfolding shape): every counter must be
        // registered exactly once and visible to aggregate queries.
        let m = Metrics::new();
        std::thread::scope(|s| {
            for t in 0..8 {
                let m = Arc::clone(&m);
                s.spawn(move || {
                    for i in 0..200 {
                        let path = format!("net/split/branch{}/box:f", t * 200 + i);
                        m.handle(format!("{path}/records_in")).inc(1);
                        m.handle(format!("{path}/spawned")).inc(1);
                    }
                });
            }
        });
        assert_eq!(m.count_matching("records_in"), 1600);
        assert_eq!(m.sum_matching("records_in"), 1600);
        assert_eq!(m.sum_matching("spawned"), 1600);
        assert_eq!(m.snapshot().len(), 3200);
        assert_eq!(m.get("net/split/branch0/box:f/records_in"), 1);
    }

    #[test]
    fn snapshot_is_key_sorted_across_shards() {
        let m = Metrics::new();
        for k in ["z/one", "a/two", "m/three", "a/zzz"] {
            m.handle(k).inc(1);
        }
        let keys: Vec<String> = m.snapshot().into_keys().collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
    }

    #[test]
    fn one_cell_per_key_text_whichever_api_registered_it() {
        let m = Metrics::new();
        let p = CompPath::root("net").child("box:f");
        // `handle_at`, then `handle`.
        m.handle_at(p, keys::RECORDS_IN).inc(1);
        m.handle("net/box:f/records_in").inc(2);
        // `handle`, then `handle_at`.
        m.handle("net/box:f/records_out").inc(4);
        m.handle_at(p, keys::RECORDS_OUT).inc(1);
        // The spawn sites' batch registration, and a name holding a `/`.
        let [records_in] = m.counters_at(p, [Name::new(keys::RECORDS_IN)]);
        m.handle_at(CompPath::root("net"), "box:f/records_out")
            .inc(1);
        assert_eq!(records_in.get(), 3);
        assert_eq!(m.get("net/box:f/records_in"), 3);
        assert_eq!(m.get("net/box:f/records_out"), 6);
        let keys: Vec<String> = m.snapshot().into_keys().collect();
        assert_eq!(keys, ["net/box:f/records_in", "net/box:f/records_out"]);
    }

    #[test]
    fn a_key_with_no_slash_is_a_name_with_no_path() {
        let m = Metrics::new();
        m.handle("hot").inc(1);
        m.handle("hot").inc(1);
        // An empty path is a path: its key renders as `/hot`.
        m.handle_at(CompPath::root(""), "hot").inc(5);
        assert_eq!(m.get("hot"), 2);
        assert_eq!(m.get("/hot"), 5);
        assert_eq!(m.sum_matching("hot"), 7);
        let keys: Vec<String> = m.snapshot().into_keys().collect();
        assert_eq!(keys, ["/hot", "hot"]);
    }

    #[test]
    fn a_skipped_panic_counts_into_the_cell_handle_at_reads() {
        // `FaultHub::raise` registers `{path}/panics` by its text.
        let net = crate::NetBuilder::from_source("box boom (x) -> (x);\nnet main = boom;")
            .unwrap()
            .bind("boom", |_, _| panic!("box bug"))
            .fault_policy(crate::FaultPolicy::SkipRecord)
            .build("main")
            .unwrap();
        let m = Arc::clone(net.metrics());
        net.send(snet_types::Record::build().field("x", 1i64).finish())
            .unwrap();
        assert!(net.finish().is_empty());
        let path = CompPath::root("net").child("box:boom");
        assert_eq!(m.handle_at(path, keys::PANICS).get(), 1);
        assert_eq!(m.count_matching("/panics"), 1);
    }

    #[test]
    fn handle_max_is_high_water_mark() {
        let m = Metrics::new();
        let h = m.handle("stages");
        h.max(4);
        h.max(2);
        assert_eq!(h.get(), 4);
        h.max(9);
        assert_eq!(m.get("stages"), 9);
    }
}
