//! A counting global allocator: the outside view of how much the program
//! under test allocates. It forwards to the system allocator and counts only
//! while switched on, which the benchmark does for one traced repetition.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering::Relaxed};

pub struct Counting;

// Statistics only: none of these publishes other data, so `Relaxed` is enough.
static ON: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
/// Bytes allocated minus bytes freed since counting began; negative while
/// blocks that predate the window are being freed.
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

fn grew(bytes: usize) {
    ALLOCS.fetch_add(1, Relaxed);
    BYTES.fetch_add(bytes as u64, Relaxed);
    let live = LIVE.fetch_add(bytes as i64, Relaxed) + bytes as i64;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters touch no allocated memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ON.load(Relaxed) {
            grew(layout.size());
        }
        // SAFETY: the caller's `layout` is passed on as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if ON.load(Relaxed) {
            grew(layout.size());
        }
        // SAFETY: the caller's `layout` is passed on as received.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if ON.load(Relaxed) {
            LIVE.fetch_sub(layout.size() as i64, Relaxed);
        }
        // SAFETY: `ptr` came from this allocator, that is from `System`,
        // with this `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ON.load(Relaxed) {
            LIVE.fetch_sub(layout.size() as i64, Relaxed);
            grew(new_size);
        }
        // SAFETY: `ptr`, `layout` and `new_size` are the caller's, and the
        // block came from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// What was allocated while `f` ran, over every thread of the process.
pub struct Counted {
    pub allocs: u64,
    pub bytes: u64,
    pub peak_live_bytes: u64,
}

pub fn counting<R>(f: impl FnOnce() -> R) -> (R, Counted) {
    ALLOCS.store(0, Relaxed);
    BYTES.store(0, Relaxed);
    LIVE.store(0, Relaxed);
    PEAK.store(0, Relaxed);
    ON.store(true, Relaxed);
    let out = f();
    ON.store(false, Relaxed);
    let counted = Counted {
        allocs: ALLOCS.load(Relaxed),
        bytes: BYTES.load(Relaxed),
        peak_live_bytes: PEAK.load(Relaxed).max(0) as u64,
    };
    (out, counted)
}
