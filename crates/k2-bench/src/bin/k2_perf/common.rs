//! What every `k2-perf` section shares: the allocation counter, the
//! median timer, the BENCH document writer, and the baseline reader and
//! gate.

use k2_sim::json::{Json, JsonWriter};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Counts every heap allocation, and the bytes it asked for, so
/// allocation churn and footprint are measured numbers, not claims. It
/// lives in this binary only: other harnesses link the `k2-bench`
/// library, and a global allocator there would change what they
/// measure.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static ALLOCATED_BYTES: AtomicU64 = AtomicU64::new(0);

fn count(bytes: usize) {
    ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    ALLOCATED_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Heap allocations (and reallocations) since the process started.
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Bytes requested by those allocations (a reallocation counts its new
/// size), never reduced by frees.
pub fn allocated_bytes() -> u64 {
    ALLOCATED_BYTES.load(Ordering::Relaxed)
}

/// The host's available parallelism (1 when it cannot be queried).
pub fn host_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Median wall time of `reps` calls of `f`, in seconds. Each call's
/// result is dropped inside its own timed window.
pub fn median_of<R>(reps: u32, mut f: impl FnMut() -> R) -> f64 {
    let mut secs: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(f());
            start.elapsed().as_secs_f64()
        })
        .collect();
    secs.sort_by(f64::total_cmp);
    secs[secs.len() / 2]
}

/// Renders one BENCH document: a pretty-printed root object that opens
/// with `"bench": <bench>` and whose remaining members `body` streams.
pub fn document(bench: &str, body: impl FnOnce(&mut JsonWriter<'_>)) -> String {
    let mut out = String::new();
    let mut w = JsonWriter::pretty(&mut out);
    w.begin_object();
    w.text("bench", bench);
    body(&mut w);
    w.end_object();
    w.finish();
    out
}

/// One-line object members for [`JsonWriter`].
pub trait Fields {
    /// A float member (six-decimal notation).
    fn num(&mut self, key: &str, v: f64);
    /// An integer member.
    fn int(&mut self, key: &str, v: u64);
    /// A string member.
    fn text(&mut self, key: &str, v: &str);
    /// A nested object member whose members `body` writes.
    fn object(&mut self, key: &str, body: impl FnOnce(&mut Self));
}

impl Fields for JsonWriter<'_> {
    fn num(&mut self, key: &str, v: f64) {
        self.key(key);
        self.f64(v);
    }

    fn int(&mut self, key: &str, v: u64) {
        self.key(key);
        self.u64(v);
    }

    fn text(&mut self, key: &str, v: &str) {
        self.key(key);
        self.str(v);
    }

    fn object(&mut self, key: &str, body: impl FnOnce(&mut Self)) {
        self.key(key);
        self.begin_object();
        body(self);
        self.end_object();
    }
}

/// Reads the positive number at the dotted `key` path of a BENCH
/// document.
pub fn read_gate(doc: &str, key: &str) -> Result<f64, String> {
    let json = Json::parse(doc).map_err(|e| format!("not valid JSON: {e}"))?;
    key.split('.')
        .try_fold(&json, |j, k| j.get(k))
        .and_then(Json::as_f64)
        .filter(|v| v.is_finite() && *v > 0.0)
        .ok_or_else(|| format!("no positive number at `{key}`"))
}

/// Reads a baseline file's gate key (see [`read_gate`]).
pub fn read_baseline(path: &str, key: &str) -> Result<f64, String> {
    let doc =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read baseline {path}: {e}"))?;
    read_gate(&doc, key).map_err(|e| format!("baseline {path}: {e}"))
}

/// The regression gate: `false` when `now` fell more than `tolerance`
/// (a fraction) below `base`.
pub fn gate(key: &str, base: f64, now: f64, tolerance: f64) -> bool {
    let budget = tolerance * 100.0;
    eprintln!("regression check on {key}: baseline {base:.3}, current {now:.3}");
    if now < base * (1.0 - tolerance) {
        eprintln!("FAIL: {key} regressed more than {budget:.0}%");
        return false;
    }
    eprintln!("OK: within the {budget:.0}% regression budget");
    true
}
