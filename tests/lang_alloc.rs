//! Allocation counts of the language front end: lexing allocates the
//! token vector and nothing else — a token borrows its name from the
//! source — and parsing the sensor-fusion program stays within the
//! count recorded below.
//!
//! Counted with a per-thread counting global allocator, as in
//! `record_alloc.rs`.

use snet_lang::parse_program;
use snet_lang::token::{lex, Spanned};
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

/// Runs `f` and returns how many allocations the current thread made.
fn counting<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCS.with(|c| c.get());
    let r = f();
    (ALLOCS.with(|c| c.get()) - before, r)
}

/// The sensor-fusion program of the benchmark's `serve-sensor`
/// workload.
const SENSOR: &str = "box calibrate (samples, <bias_ppm>) -> (samples);
         box analyze (samples) -> (stats) | (samples, <anomaly>);
         box summarize (stats, <sensor>) -> (report, <sensor>);
         net main = calibrate
                 .. (analyze !! <sensor>)
                 .. (summarize || [{samples, <anomaly>} -> {quarantined=samples, <anomaly>=<anomaly>}]);";

/// What `parse_program(SENSOR)` allocates, recorded when tokens began
/// to borrow the source: the tokens, the AST's own nodes, names and
/// label vectors, and the parse-local label table.
const SENSOR_PARSE_ALLOCS: u64 = 41;

#[test]
fn lexing_allocates_only_the_token_vector() {
    for idents in [2, 200] {
        let names: Vec<String> = (0..idents).map(|i| format!("name{i}")).collect();
        let src = format!("box f ({}) -> (<k>);", names.join(", "));
        let (n, toks) = counting(|| lex(&src).unwrap());
        // A vector of as many tokens, pushed one by one.
        let (vector, _) = counting(|| {
            let mut v: Vec<Spanned<'_>> = Vec::new();
            for t in &toks {
                v.push(std::hint::black_box(*t));
            }
            v
        });
        assert_eq!(n, vector, "{idents} identifiers, {} tokens", toks.len());
    }
}

#[test]
fn parsing_the_sensor_program_stays_within_its_recorded_allocations() {
    // Labels are interned process-wide on first sight; count a parse
    // that finds them interned.
    parse_program(SENSOR).unwrap();
    let (n, _) = counting(|| parse_program(SENSOR).unwrap());
    assert!(
        n <= SENSOR_PARSE_ALLOCS,
        "{n} allocations, recorded {SENSOR_PARSE_ALLOCS}"
    );
}
