//! The heap allocations of a warm exhaustive search on enterprise
//! (goals 0.05 / 0.9999, 203 candidates).
//!
//! The binary installs a counting global allocator, which counts only
//! on the thread that asks it to.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use wfms::workloads::{enterprise_mix, enterprise_registry};
use wfms::{ConfigurationTool, Goals, SearchOptions};

/// The system allocator, counting the allocations (fresh or grown) of a
/// thread inside [`allocations_during`].
struct Counting;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: the allocator also serves threads whose locals are
    // being torn down.
    let _ = COUNTING.try_with(|on| {
        if on.get() {
            ALLOCATIONS.with(|n| n.set(n.get() + 1));
        }
    });
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees are this allocator's; counting
// touches only const-initialized thread locals, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract,
        // and `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `f` and counts the heap allocations this thread made in it.
fn allocations_during<T>(f: impl FnOnce() -> T) -> (T, u64) {
    ALLOCATIONS.with(|n| n.set(0));
    COUNTING.with(|on| on.set(true));
    let out = f();
    COUNTING.with(|on| on.set(false));
    (out, ALLOCATIONS.with(Cell::get))
}

/// A warm search resolves each record from its table, folds it into
/// the assessment's one waiting-time vector and moves the assessment
/// into the trace: at most 3 allocations an evaluation (before searches
/// kept a record table, it made 1,599 for the 203).
#[test]
fn a_warm_exhaustive_search_allocates_at_most_three_times_per_evaluation() {
    let mut tool = ConfigurationTool::new(enterprise_registry());
    for (spec, rate) in enterprise_mix() {
        tool.add_workflow(spec, rate).unwrap();
    }
    let goals = Goals::new(0.05, 0.9999).unwrap();
    let engine = tool.engine(&goals, SearchOptions::default()).unwrap();
    let cold = engine.exhaustive().unwrap();
    let (warm, allocations) = allocations_during(|| engine.exhaustive().unwrap());
    assert_eq!(warm, cold);
    assert_eq!(warm.evaluations, 203);
    assert!(
        allocations <= 3 * warm.evaluations as u64,
        "{allocations} allocations for {} evaluations",
        warm.evaluations
    );
}
