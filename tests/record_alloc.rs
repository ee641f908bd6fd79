//! Allocation-freedom of the record hot path.
//!
//! PR 4's acceptance bar: records with at most 4 fields and 4 tags —
//! every workload in this tree — allocate **nothing** on clone,
//! `split_for` (plan application) and `inherit`, once the shapes and
//! plans involved are interned (interning happens once per shape for
//! the process lifetime; steady state is what the hot path runs in).
//! The same holds for what boxes and filters run per record: the
//! matched half alone (`matched_with`) and flow inheritance straight
//! from the source record (`inherit_from`).
//!
//! Asserted with a counting global allocator: the test thread's
//! allocation count must not move across the measured operations.
//! This file holds its tests in one `#[test]` on purpose — the
//! counter is per-thread, so the assertions are immune to libtest's
//! other threads, but keeping one test avoids any doubt.

use snet_types::{Record, RecordType, Shape, Value};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

// SAFETY: delegates to System; the bookkeeping touches only a
// const-initialized thread-local counter (no allocation, and
// `try_with` guards the TLS-teardown window).
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.with(|c| c.get())
}

/// Runs `f` and returns how many allocations the current thread made.
fn counting<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = allocs();
    let r = f();
    (allocs() - before, r)
}

#[test]
fn small_records_allocate_nothing_on_clone_split_inherit() {
    // Warm phase: intern every label, shape and plan the measured
    // operations will touch. Values are Int — payload clones must not
    // allocate either (Arc-backed payloads only bump a refcount, but
    // Int keeps the test independent of payload semantics).
    let rec = Record::build()
        .field("a", 1i64)
        .field("d", 4i64)
        .field("x", 7i64)
        .field("y", 8i64)
        .tag("b", 10)
        .tag("k", 2)
        .tag("m", 3)
        .tag("n", 4)
        .finish();
    assert_eq!(rec.len(), 8, "the 4-field/4-tag boundary case");
    let ty = RecordType::of(&["a", "d"], &["b", "k"]);
    let (warm_matched, warm_excess) = rec.split_for(&ty).unwrap();
    let _ = warm_matched.clone().inherit(&warm_excess);
    let _ = rec.clone().inherit(&warm_excess); // identity-plan pair
                                               // `x` overlaps the excess: the duplicate-discard rule resolves in
                                               // the compiled plan, still allocation-free.
    let out = Record::build().field("c", 9i64).field("x", 99i64).finish();
    let _ = out.clone().inherit(&warm_excess);
    let plan = rec.shape().split_plan(Shape::of_type(&ty)).unwrap();
    let identity = rec.shape().split_plan(rec.shape()).unwrap();
    let _ = out.clone().inherit_from(&rec, plan);

    // Clone: inline value storage, shared interned shape.
    let (n, cloned) = counting(|| rec.clone());
    assert_eq!(n, 0, "clone of a <=4/<=4 record allocated {n} times");
    assert_eq!(cloned, rec);

    // split_for: plan lookup (read-locked map hit) + array copies
    // into inline storage for both halves.
    let (n, halves) = counting(|| rec.split_for(&ty).unwrap());
    assert_eq!(n, 0, "split_for allocated {n} times");
    let (matched, excess) = halves;
    assert_eq!(matched.record_type(), ty);
    assert_eq!(excess.len(), 4);

    // inherit, non-identity: merge by compiled plan into inline
    // storage.
    let (n, merged) = counting(|| out.clone().inherit(&excess));
    assert_eq!(n, 0, "inherit allocated {n} times");
    assert_eq!(merged.len(), out.len() + excess.len() - 1); // own x wins
    assert_eq!(merged.field("x").unwrap().as_int(), Some(99));

    // inherit, identity fast path (excess fully shadowed).
    let (n, same) = counting(|| rec.clone().inherit(&warm_excess));
    assert_eq!(n, 0, "identity inherit allocated {n} times");
    assert_eq!(same, rec);

    // The box and filter path: the matched half alone, then a merge
    // that reads the excess from the source record in place.
    let (n, seen) = counting(|| rec.matched_with(plan));
    assert_eq!(n, 0, "matched_with allocated {n} times");
    assert_eq!(seen, matched);
    let (n, from_source) = counting(|| out.clone().inherit_from(&rec, plan));
    assert_eq!(n, 0, "inherit_from allocated {n} times");
    assert_eq!(from_source, merged);
    // Excess fully shadowed, and the identity split (empty excess).
    let (n, same) = counting(|| rec.clone().inherit_from(&rec, plan));
    assert_eq!(n, 0, "shadowed inherit_from allocated {n} times");
    assert_eq!(same, rec);
    let (n, same) = counting(|| out.clone().inherit_from(&rec, identity));
    assert_eq!(n, 0, "identity-split inherit_from allocated {n} times");
    assert_eq!(same, out);

    // Equality short-circuits on the shape id — also allocation-free.
    let (n, eq) = counting(|| cloned == rec);
    assert_eq!(n, 0, "record equality allocated {n} times");
    assert!(eq);

    // Sanity check that the counter actually counts: a boxed value
    // must register.
    let (n, _kept) = counting(|| Box::new(123u64));
    assert!(n > 0, "counting allocator is not observing allocations");
}

#[test]
fn oversized_records_still_work_by_spilling() {
    // Past the inline bound the representation spills to the heap —
    // correctness over speed; this pins that the boundary is where
    // the docs say it is.
    let mut big = Record::new();
    for i in 0..5i64 {
        big.set_field(&format!("f{i}"), Value::Int(i));
    }
    let (n, _clone) = counting(|| big.clone());
    assert!(n > 0, "a 5-field record must spill (inline capacity is 4)");
}
