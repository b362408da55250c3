//! Allocation guard: the node step allocates nothing in steady state.
//!
//! An exact run makes `n²` first contacts (every source's wave reaching
//! every node) and sends `O(n·m)` messages. This binary installs a
//! counting global allocator and asserts that a whole exact run with
//! telemetry on allocates `O(n + rounds)` times: the per-node arrays and
//! their amortised growth, the engine's buffers, and the flight recorder,
//! but nothing per message and nothing per first contact.

use bc_congest::Telemetry;
use bc_core::{run_distributed_bc, DistBcConfig};
use bc_graph::generators::erdos_renyi_connected;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

struct Counting;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Counts only on the measuring thread, so the test harness's own
    /// threads cannot add noise. The serial engine runs every node step
    /// on the calling thread.
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
fn exact_run_allocates_per_node_and_round_not_per_contact() {
    let n = 96;
    let g = erdos_renyi_connected(n, 0.08, 7);
    let config = DistBcConfig {
        telemetry: Some(Arc::new(Telemetry::new(1, 64))),
        ..DistBcConfig::default()
    };
    let (allocs, result) = allocations(|| run_distributed_bc(&g, config).expect("run"));
    let rounds = result.metrics.rounds as usize;
    let contacts = n * n;
    println!("{allocs} allocations, {rounds} rounds, {contacts} first contacts");
    assert!(result.metrics.total_messages as usize > 10 * contacts);
    // The bound leaves each node a few dozen allocations (its arrays and
    // their doubling growth) and each round a couple, but not one per
    // first contact.
    assert!(
        allocs <= 24 * n + 2 * rounds,
        "{allocs} allocations for n = {n} and {rounds} rounds"
    );
    assert!(allocs < contacts / 2, "{allocs} allocations");
}
