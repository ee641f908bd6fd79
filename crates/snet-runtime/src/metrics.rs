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
//! # Design: register at spawn, count through handles
//!
//! Counting must not be what the coordination layer spends its time
//! on. The registry therefore splits the two rates apart:
//!
//! * **Registration** happens once per component at spawn time:
//!   [`Metrics::handle`] interns the full key (component path +
//!   metric name) into a `BTreeMap` under a mutex and returns a
//!   [`Counter`] — a cloned `Arc<AtomicU64>` pointing at the
//!   registered cell. Registering the same key twice returns handles
//!   to the *same* cell, so dynamically re-spawned components
//!   accumulate rather than reset.
//! * **Counting** happens per record through the handle: a single
//!   relaxed `fetch_add`/`fetch_max`, no lock, no allocation, no
//!   string formatting. Relaxed ordering is sufficient — counters are
//!   independent monotone quantities, and every reader takes the
//!   registry lock, which synchronizes with the component threads'
//!   channel operations at termination.
//! * **Queries** ([`Metrics::get`], [`Metrics::sum_matching`], ...)
//!   take the registry lock and read the atomics. They observe
//!   counters registered *after* the network started (replicators
//!   spawn components dynamically), because registration inserts into
//!   the same map queries iterate.
//!
//! There is no way to count by key: a caller that wants to count
//! holds a [`Counter`], so nothing on a per-record or per-request path
//! can pay the registry lock and a string hash without saying so.
//!
//! # Sharding
//!
//! Registration used to serialise on a single registry mutex — fine
//! for static networks, but mass dynamic unfolding (a thousand split
//! replicas appearing at once, each registering several counters at
//! spawn) turns one mutex into a thundering herd. The registry is
//! therefore split into [`SHARD_COUNT`] shards selected by a hash of
//! the key's component-path prefix (everything before the final `/`):
//! concurrent registrations of *different* components take *different*
//! locks, while all counters of one component stay in one shard.
//! Queries aggregate across shards; key order is preserved because
//! each shard is itself a `BTreeMap` and aggregate views re-merge.

use crate::path::CompPath;
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Number of registry shards (a power of two; 16 is plenty beyond the
/// worker counts this runtime targets).
const SHARD_COUNT: usize = 16;

/// FNV-1a over the component-path prefix of a key (up to the last
/// `/`, so `net/box:f/records_in` and `net/box:f/records_out` land in
/// the same shard while different components spread).
fn shard_of(key: &str) -> usize {
    let prefix = key.rsplit_once('/').map(|(p, _)| p).unwrap_or(key);
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in prefix.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    (h as usize) % SHARD_COUNT
}

/// A registered counter: one atomic cell shared with the registry.
/// Cloning is cheap (an `Arc` bump) and clones address the same cell.
#[derive(Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds `delta`. Lock-free, allocation-free.
    #[inline]
    pub fn inc(&self, delta: u64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Raises the counter to at least `v` (high-water marks such as
    /// pipeline depth). Lock-free, allocation-free.
    #[inline]
    pub fn max(&self, v: u64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

impl fmt::Debug for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Counter({})", self.get())
    }
}

/// Shared metrics registry for one running network (sharded; see
/// module docs).
#[derive(Default)]
pub struct Metrics {
    shards: [Mutex<BTreeMap<String, Arc<AtomicU64>>>; SHARD_COUNT],
}

impl Metrics {
    pub fn new() -> Arc<Metrics> {
        Arc::new(Metrics::default())
    }

    /// Registers (or re-attaches to) the counter under `key` and
    /// returns its handle. Spawn-time API: this takes the key's shard
    /// lock and may allocate; per-record code must go through the
    /// returned [`Counter`] instead.
    pub fn handle(&self, key: impl AsRef<str>) -> Counter {
        let mut m = self.shards[shard_of(key.as_ref())].lock();
        let cell = match m.get(key.as_ref()) {
            Some(cell) => Arc::clone(cell),
            None => {
                let cell = Arc::new(AtomicU64::new(0));
                m.insert(key.as_ref().to_string(), Arc::clone(&cell));
                cell
            }
        };
        Counter(cell)
    }

    /// [`Metrics::handle`] under the conventional `{path}/{name}` key.
    pub fn handle_at(&self, path: CompPath, name: &str) -> Counter {
        self.handle(format!("{path}/{name}"))
    }

    /// Reads one counter (0 when absent).
    pub fn get(&self, key: impl AsRef<str>) -> u64 {
        self.shards[shard_of(key.as_ref())]
            .lock()
            .get(key.as_ref())
            .map(|c| c.load(Ordering::Relaxed))
            .unwrap_or(0)
    }

    /// Folds over every `(key, value)` pair, shard by shard. Queries
    /// observe counters registered after the network started
    /// (replicators spawn components dynamically).
    fn fold<A>(&self, init: A, mut f: impl FnMut(A, &str, u64) -> A) -> A {
        let mut acc = init;
        for shard in &self.shards {
            let m = shard.lock();
            for (k, v) in m.iter() {
                acc = f(acc, k, v.load(Ordering::Relaxed));
            }
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

    /// A stable snapshot of all counters (key-sorted: shards re-merge
    /// into one `BTreeMap`).
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
    /// front door (tagged and injected into the network).
    pub const SERVE_REQUESTS: &str = "serve/requests";
    /// Counter (full key): requests completed with their full
    /// response (every expected record correlated back).
    pub const SERVE_COMPLETED: &str = "serve/completed";
    /// Counter (full key): egress records that could not be
    /// correlated to a pending request — a record that lost its
    /// request-id tag (misrouted) or arrived after its caller gave up
    /// (late). A healthy service holds this at zero apart from
    /// deliberately abandoned calls.
    pub const SERVE_STRAY: &str = "serve/stray";
    /// Gauge (full key): high-water mark of concurrently in-flight
    /// requests at the serve front door.
    pub const SERVE_INFLIGHT: &str = "serve/inflight";
    /// Counter (full key): fault incidents across the net — one per
    /// faulted record (skipped or recovered-by-restart) or dead
    /// component, not per retry attempt. See [`crate::fault`].
    pub const COMPONENT_PANICS: &str = "runtime/component_panics";
    /// Counter (full key): panics injected by the chaos layer (one
    /// per poisoned record; see [`crate::ChaosConfig`]).
    pub const CHAOS_INJECTED: &str = "runtime/chaos_injected";
    /// Fault incidents at one component (suffix, keyed
    /// `{path}/panics`).
    pub const PANICS: &str = "panics";
    /// Poison records dropped at one guarded stage (suffix, keyed
    /// `{path}/records_skipped`; terminal skips only — a record
    /// recovered by restart is not skipped).
    pub const RECORDS_SKIPPED: &str = "records_skipped";
    /// Restart attempts at one guarded stage (suffix, keyed
    /// `{path}/restarts`; one per retry, so a record that needed two
    /// attempts counts one restart).
    pub const RESTARTS: &str = "restarts";
    /// Counter (full key): serve requests resolved as
    /// [`crate::CallError::Faulted`] because a component fault
    /// dropped one of their records.
    pub const SERVE_FAULTED: &str = "serve/faulted";
    /// Counter (full key): panics of the serve demux task itself
    /// (each fails all open slots with `ServiceStopped` — callers are
    /// never stranded).
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
        // paths (the dynamic-unfolding shape sharding exists for):
        // every counter must be registered exactly once and visible to
        // aggregate queries.
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
        // Same-component counters share a shard; cross-shard reads
        // still resolve individual keys.
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
