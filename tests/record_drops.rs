//! Every value a record owns is dropped exactly once, and every block
//! it allocates is freed.
//!
//! A record's values sit inline or in a heap `Vec`, as its shape's
//! arity decides, and move between the two when a half crosses four
//! values (spill on insert, back inline on remove). Flow inheritance
//! moves the output's own values into the merged record and clones
//! only the inherited ones. A value dropped twice, or a moved value
//! dropped by its old storage, shows as a wrong `Arc` count; a value
//! cloned where it should move, or a value never dropped, shows as a
//! count above one; a heap buffer not freed shows in the counting
//! allocator's balance of live blocks.

use snet_types::{Label, Record, RecordType, Shape, Value};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

thread_local! {
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

struct CountingAlloc;

// SAFETY: delegates to System; the bookkeeping touches only a
// const-initialized thread-local counter (no allocation, and
// `try_with` guards the TLS-teardown window).
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = LIVE.try_with(|c| c.set(c.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        let _ = LIVE.try_with(|c| c.set(c.get() - 1));
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Blocks this thread has allocated and not yet freed.
fn live_blocks() -> i64 {
    LIVE.with(|c| c.get())
}

const FIELDS: [&str; 10] = ["f0", "f1", "f2", "f3", "f4", "g0", "g1", "g2", "g3", "g4"];
const TAGS: [&str; 5] = ["t0", "t1", "t2", "t3", "t4"];

/// Takes Arc-backed values through every way a record's values move
/// and returns what each value's `Arc::strong_count` is once every
/// record is gone (an array: the result allocates nothing).
fn exercise() -> [usize; FIELDS.len()] {
    let payloads: Vec<Arc<String>> = FIELDS.iter().map(|n| Arc::new(n.to_string())).collect();
    let value = |i: usize| Value::Str(Arc::clone(&payloads[i]));
    {
        // Spill at 4 -> 5 in both halves.
        let mut big = Record::new();
        for i in 0..5 {
            big.set_field(FIELDS[i], value(i));
            big.set_tag(TAGS[i], i as i64);
        }
        // Replace a value in place, inline and spilled.
        let mut small = Record::build().field("f0", value(0)).finish();
        small.set_field("f0", value(1));
        big.set_field("f4", value(4));

        // Clone on the heap, then back inline at 5 -> 4, then out again.
        let mut copy = big.clone();
        assert!(copy.remove(Label::field("f4")));
        assert!(copy.remove(Label::tag("t4")));
        copy.set_field("g4", value(9));
        assert!(copy.remove(Label::field("g4")));
        assert_eq!(copy.len(), 8);

        // Split a spilled and an inline record.
        let ty = RecordType::of(&["f0", "f1"], &["t0"]);
        let plan = big.shape().split_plan(Shape::of_type(&ty)).unwrap();
        let (matched, excess) = big.split_with(plan);
        let small_plan = copy.shape().split_plan(Shape::of_type(&ty)).unwrap();
        let (small_matched, small_excess) = copy.split_with(small_plan);

        // Inherit into inline and spilled outputs, with and without a
        // duplicate label: own values move, inherited ones clone.
        let inline_out = Record::build().field("g0", value(5)).finish();
        let merged = inline_out.inherit(&excess);
        assert_eq!(merged.len(), 1 + excess.len());
        let shadowing = Record::build()
            .field("g0", value(5))
            .field("f2", value(6))
            .finish();
        let merged_dup = shadowing.inherit(&small_excess);
        let mut spilled_out = Record::new();
        for (i, name) in FIELDS.iter().enumerate().skip(5) {
            spilled_out.set_field(name, value(i));
        }
        let from_source = spilled_out.clone().inherit_from(&big, plan);
        assert_eq!(from_source.len(), 5 + excess.len());
        let back = matched.clone().inherit_from(&big, plan);
        assert_eq!(back, big);
        let small_back = small_matched.inherit(&small_excess);
        assert_eq!(small_back, copy);

        // Remove from what inheritance built, crossing 5 -> 4 again.
        let mut shrink = from_source;
        for name in ["g0", "g1", "g2", "g3"] {
            assert!(shrink.remove(Label::field(name)));
        }
        drop((big, small, copy, matched, merged, merged_dup, spilled_out));
        drop((small_excess, back, shrink));
    }
    std::array::from_fn(|i| Arc::strong_count(&payloads[i]))
}

#[test]
fn record_values_drop_once_and_their_storage_is_freed() {
    // Warm run: intern every label, shape, transition and plan, so the
    // measured run allocates only what the records themselves own.
    exercise();
    let before = live_blocks();
    let counts = exercise();
    let leaked = live_blocks() - before;
    for (name, count) in FIELDS.iter().zip(counts) {
        assert_eq!(count, 1, "value {name} ended with {count} strong refs");
    }
    assert_eq!(leaked, 0, "{leaked} blocks left allocated");
    // The counter counts: a kept box registers.
    let kept = Box::new(1u64);
    assert_eq!(live_blocks() - before, 1);
    drop(kept);
}
