//! Allocation guard: the f64 Brandes pass allocates a constant number of
//! times, whatever the graph's size.
//!
//! A pass over predecessor lists allocates one list per reached node on
//! every source. This binary installs a counting global allocator and
//! asserts that `dependencies_from` allocates a few buffers per call and
//! `betweenness_f64` a few for the whole run, on graphs of two sizes.

use bc_brandes::{betweenness_f64, dependencies_from};
use bc_graph::generators::erdos_renyi_connected;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

struct Counting;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Counts only on the measuring thread, so the test harness's own
    /// threads cannot add noise.
    static ARMED: Cell<bool> = const { Cell::new(false) };
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System`'s guarantees are this allocator's. The counting around the
// calls reads a const-initialized thread-local `Cell` and bumps an
// atomic; neither allocates or touches the memory being managed.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.with(Cell::get) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.with(Cell::get) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations `f` performs on this thread.
fn allocations<T>(f: impl FnOnce() -> T) -> (usize, T) {
    let before = ALLOCS.load(Ordering::Relaxed);
    ARMED.with(|a| a.set(true));
    let out = f();
    ARMED.with(|a| a.set(false));
    (ALLOCS.load(Ordering::Relaxed) - before, out)
}

#[test]
fn brandes_allocations_do_not_grow_with_n() {
    // The kernel's four buffers, plus the returned vector.
    const BOUND: usize = 8;
    for n in [64, 1024] {
        let g = erdos_renyi_connected(n, 6.0 / n as f64, 7);
        for s in [0, n as u32 / 2] {
            let (allocs, dep) = allocations(|| dependencies_from(&g, s));
            assert_eq!(dep.len(), n);
            assert!(
                allocs <= BOUND,
                "dependencies_from: {allocs} allocations at n = {n}"
            );
        }
        let (allocs, cb) = allocations(|| betweenness_f64(&g));
        assert_eq!(cb.len(), n);
        assert!(
            allocs <= BOUND,
            "betweenness_f64: {allocs} allocations for {n} sources"
        );
    }
}
