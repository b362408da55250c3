//! Allocation guard: a message-sized [`BitBuf`] lives entirely inline.
//!
//! Every CONGEST message and every reliable frame passes through a
//! `BitBuf`, millions of times a run. This binary installs a counting
//! global allocator and asserts that building, cloning, reading and
//! dropping a buffer of up to [`MESSAGE_BITS`] bits performs no heap
//! allocation, and that a longer one does (so the counter is live).

use bc_numeric::bits::{BitBuf, BitWriter};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;
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

/// The inline capacity a `BitBuf` promises: enough for any `O(log N)`-bit
/// message plus the reliable transport's 75-bit frame header.
const MESSAGE_BITS: usize = 192;

/// Heap allocations `f` performs on this thread.
fn allocations(f: impl FnOnce()) -> usize {
    let before = ALLOCS.load(Ordering::Relaxed);
    ARMED.with(|a| a.set(true));
    f();
    ARMED.with(|a| a.set(false));
    ALLOCS.load(Ordering::Relaxed) - before
}

/// Builds a `bits`-bit buffer in mixed-width fields, clones it, reads
/// both copies back, compares them and drops them.
fn lifecycle(bits: usize) {
    let mut w = BitWriter::new();
    let mut left = bits;
    let mut width = 1;
    while left > 0 {
        let take = left.min(width);
        w.push(u64::MAX >> (64 - take), take as u32);
        left -= take;
        width = width % 64 + 7;
    }
    let buf: BitBuf = w.finish();
    let copy = black_box(buf.clone());
    for b in [&buf, &copy] {
        let mut r = b.reader();
        while r.remaining() > 0 {
            black_box(r.read(r.remaining().min(64) as u32));
        }
    }
    assert!(buf == copy);
    assert_eq!(copy.bit_len(), bits);
}

#[test]
fn message_sized_bitbuf_never_allocates() {
    for bits in (0..=MESSAGE_BITS).step_by(3).chain([MESSAGE_BITS]) {
        assert_eq!(allocations(|| lifecycle(bits)), 0, "{bits}-bit buffer");
    }
    assert!(
        allocations(|| lifecycle(MESSAGE_BITS + 1)) > 0,
        "a spilled buffer must reach the counting allocator"
    );
}
