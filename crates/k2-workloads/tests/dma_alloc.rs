//! Heap bytes per MiB of DMA moved on the Table 6 shared-driver path.
//!
//! A DMA completion should cost pointer work per page, not a buffer per
//! byte: aligned copies share source frames, the engine's scans collect
//! nothing, the completion list keeps its storage, and a number-only run
//! keeps no spans. This file holds exactly one test so the counting
//! allocator below sees no other test's heap traffic.

use k2::system::SystemMode;
use k2_sim::time::SimDuration;
use k2_workloads::harness::run_shared_driver;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts the bytes every allocation asks for (a reallocation counts its
/// new size); frees never reduce it.
struct CountingAlloc;

static ALLOCATED_BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATED_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Runs the K2 shared driver at 1 MiB batches for `ms` simulated
/// milliseconds; returns (heap bytes allocated, MiB moved).
fn measure(ms: u64) -> (u64, f64) {
    let before = ALLOCATED_BYTES.load(Ordering::Relaxed);
    let run = run_shared_driver(SystemMode::K2, 1 << 20, SimDuration::from_ms(ms));
    let bytes = ALLOCATED_BYTES.load(Ordering::Relaxed) - before;
    (bytes, run.total_mbps() * ms as f64 / 1e3)
}

#[test]
fn shared_driver_heap_per_mib_is_bounded() {
    // The difference between a short and a long run cancels boot and
    // set-up, leaving what each extra batch costs.
    let (short_bytes, short_mib) = measure(50);
    let (long_bytes, long_mib) = measure(200);
    let extra_mib = long_mib - short_mib;
    assert!(
        extra_mib > 4.0,
        "too little DMA to measure: {extra_mib:.2} MiB"
    );
    let per_mib = long_bytes.saturating_sub(short_bytes) as f64 / extra_mib;
    assert!(
        per_mib <= 4096.0,
        "{per_mib:.0} heap bytes per MiB moved (bound 4096): \
         {short_bytes} B over {short_mib:.2} MiB vs {long_bytes} B over {long_mib:.2} MiB"
    );
}
