//! Sample statistics, host conditions and the host-speed calibration.
//!
//! Host conditions (`nproc`, CPU model, steal ticks) are recorded with
//! every result for diagnosis only: they tell a noisy run from a
//! regression and gate nothing.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::time::Instant;

/// Median and quartiles of a sample, quartiles computed as Python's
/// `statistics.quantiles(values, n=4)` does (the "exclusive" method).
#[derive(Clone, Copy, Debug)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// Summarises a non-empty sample.
    pub fn of(values: &[f64]) -> Summary {
        assert!(!values.is_empty(), "summary of an empty sample");
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        let median = if n % 2 == 1 {
            v[n / 2]
        } else {
            (v[n / 2 - 1] + v[n / 2]) / 2.0
        };
        let (q1, q3) = if n < 2 {
            (v[0], v[0])
        } else {
            let cut = |i: usize| {
                let m = n + 1;
                let j = (i * m / 4).clamp(1, n - 1);
                let delta = (i * m) as f64 / 4.0 - j as f64;
                v[j - 1] + (v[j] - v[j - 1]) * delta
            };
            (cut(1), cut(3))
        };
        Summary { median, q1, q3, n }
    }

    /// Interquartile distance as a share of the median (0 for a zero
    /// median, which no timed metric has).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// Pins the calling thread, and every thread it creates from now on,
/// to the CPU it is running on; returns that CPU.
///
/// A single-worker fleet hands off between its coordinator and its one
/// shard every epoch, and the two never run at once. On one CPU each
/// handoff is a local context switch. Spread over two vCPUs it is a
/// cross-CPU wake-up whose latency is the hypervisor's, not the
/// simulator's: on a 2-vCPU VM it made fleet-dense passes ~40% slower
/// and twice as variable.
pub fn pin_to_current_cpu() -> Result<usize, String> {
    extern "C" {
        fn sched_getcpu() -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    // SAFETY: sched_getcpu takes no arguments and only returns a value.
    let cpu = unsafe { sched_getcpu() };
    let cpu = usize::try_from(cpu).map_err(|_| "sched_getcpu failed".to_string())?;
    // A cpu_set_t: 1,024 bits.
    let mut mask = [0u64; 16];
    *mask
        .get_mut(cpu / 64)
        .ok_or_else(|| format!("cpu {cpu} is outside cpu_set_t"))? |= 1 << (cpu % 64);
    // SAFETY: `mask` is a live, fully initialised cpu_set_t of the size
    // passed, and pid 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc == 0 {
        Ok(cpu)
    } else {
        Err(format!("sched_setaffinity(cpu {cpu}) failed"))
    }
}

/// Calibration seconds of the reference host speed that end-to-end
/// times are scaled to (about the kernel's time on an idle 2-vCPU Xeon
/// VM).
pub const CALIBRATION_REF_S: f64 = 0.025;

/// A fixed kernel timed between passes to measure how fast the host is
/// running at the time. It is the benchmark's own code, never the
/// program's, so no change to the program moves it.
///
/// On a 2-vCPU Xeon VM the host drifts by up to 2× over minutes, on every
/// workload; a pass time divided by the kernel's time, measured in the
/// same stretch, drifts less (over six runs, fleet-dense's spread fell
/// from 22% to 14% and fleet-storm's from 6.6% to 4.6%). The kernel mixes what the
/// simulator does: an event heap, random writes over a 32 MiB table,
/// and building, cloning and dropping a map of small heap objects (as
/// fork and teardown do).
pub struct Calibration {
    table: Vec<u64>,
}

impl Calibration {
    pub fn new() -> Calibration {
        Calibration {
            table: vec![0; 1 << 22],
        }
    }

    /// Runs the kernel twice and returns the host seconds of the second
    /// run: the first one evicts whatever the preceding pass left in the
    /// caches.
    pub fn time(&mut self) -> f64 {
        self.run();
        let t = Instant::now();
        self.run();
        t.elapsed().as_secs_f64()
    }

    fn run(&mut self) {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mask = self.table.len() - 1;
        let mut heap = BinaryHeap::with_capacity(4096);
        for i in 0..4096u64 {
            heap.push(Reverse((next() % 1000, i)));
        }
        for _ in 0..50_000 {
            let Reverse((at, i)) = heap.pop().expect("the heap is never empty");
            let r = next();
            let slot = &mut self.table[r as usize & mask];
            *slot = slot.wrapping_add(at ^ i);
            heap.push(Reverse((at + r % 100, i)));
        }
        let map: BTreeMap<u64, Vec<u64>> = (0..20_000).map(|i| (next(), vec![i; 8])).collect();
        let mut acc = 0u64;
        for _ in 0..4 {
            let copy = map.clone();
            for (k, v) in copy.iter().step_by(7) {
                acc = acc.wrapping_add(k ^ v[3]);
            }
        }
        std::hint::black_box((acc, &self.table));
    }
}

/// Online CPUs.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The CPU model string from `/proc/cpuinfo`, or `unknown`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Cumulative steal ticks of all CPUs (the 8th value of the `cpu` line
/// of `/proc/stat`), or `None` where the file is unavailable.
pub fn steal_ticks() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    line.split_whitespace().nth(8)?.parse().ok()
}

/// This process's peak resident set size in MB (10^6 bytes), from
/// `VmHWM` in `/proc/self/status`.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib * 1024.0 / 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = Summary::of(&[1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
    }
}
