//! Block devices.
//!
//! The paper's ext2 benchmark runs on a ramdisk "as the SD card driver of K2
//! is not yet fully functional" (§9.2) — which also deliberately favours
//! Linux, since a fast block device shortens the idle gaps that are so
//! expensive on strong cores. We model the same ramdisk, plus a flash-like
//! device with per-operation latency for tests and examples that want
//! realistic I/O gaps.

use crate::cost::Cost;
use k2_sim::time::SimDuration;
use std::sync::Arc;

/// Block size in bytes (matches the 4 KB page size).
pub const BLOCK_SIZE: usize = 4096;

/// A fixed-size array of blocks with explicit per-op costs.
pub trait BlockDevice {
    /// Number of blocks.
    fn block_count(&self) -> u64;

    /// Reads block `n` into `buf`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is out of range or `buf` is not [`BLOCK_SIZE`] bytes.
    fn read_block(&self, n: u64, buf: &mut [u8]) -> Cost;

    /// Writes `buf` to block `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is out of range or `buf` is not [`BLOCK_SIZE`] bytes.
    fn write_block(&mut self, n: u64, buf: &[u8]) -> Cost;

    /// Extra device-side latency per operation (zero for a ramdisk); the
    /// caller turns this into an I/O wait instead of busy time.
    fn io_latency(&self) -> SimDuration {
        SimDuration::ZERO
    }
}

/// A RAM-backed block device: CPU copy cost, no I/O latency.
///
/// Copy-on-write at two levels, so cloning the disk — part of every
/// [snapshot fork](https://en.wikipedia.org/wiki/Copy-on-write) — is one
/// reference-count bump whatever the disk's size:
///
/// * the block table (8 bytes per block, 64 KB for the default image)
///   sits behind one `Arc`, copied by the first write after a clone;
/// * each resident block sits behind its own `Arc`, so that table copy
///   shares every block, and a write to a shared block copies just that
///   4 KB block first.
///
/// A fork that never writes its filesystem copies none of the disk.
#[derive(Clone, Debug)]
pub struct RamDisk {
    blocks: Arc<Vec<Option<Arc<[u8; BLOCK_SIZE]>>>>,
    reads: u64,
    writes: u64,
}

impl RamDisk {
    /// Creates a zeroed ramdisk of `blocks` blocks.
    pub fn new(blocks: u64) -> Self {
        RamDisk {
            blocks: Arc::new((0..blocks).map(|_| None).collect()),
            reads: 0,
            writes: 0,
        }
    }

    /// Read operations so far.
    pub fn read_count(&self) -> u64 {
        self.reads
    }

    /// Write operations so far.
    pub fn write_count(&self) -> u64 {
        self.writes
    }
}

impl BlockDevice for RamDisk {
    fn block_count(&self) -> u64 {
        self.blocks.len() as u64
    }

    fn read_block(&self, n: u64, buf: &mut [u8]) -> Cost {
        assert_eq!(buf.len(), BLOCK_SIZE, "short buffer");
        match &self.blocks[n as usize] {
            Some(b) => buf.copy_from_slice(&b[..]),
            None => buf.fill(0),
        }
        // The cast through a raw pointer is avoided: interior counters would
        // need Cell; instead reads are counted on the mutable path only.
        Cost::instr(60) + Cost::bulk(BLOCK_SIZE as u64)
    }

    fn write_block(&mut self, n: u64, buf: &[u8]) -> Cost {
        assert_eq!(buf.len(), BLOCK_SIZE, "short buffer");
        self.writes += 1;
        let slot = &mut Arc::make_mut(&mut self.blocks)[n as usize];
        match slot {
            Some(b) => Arc::make_mut(b).copy_from_slice(buf),
            None => {
                let mut b = [0u8; BLOCK_SIZE];
                b.copy_from_slice(buf);
                *slot = Some(Arc::new(b));
            }
        }
        Cost::instr(60) + Cost::bulk(BLOCK_SIZE as u64)
    }
}

/// A flash-like device: same storage, but each operation has device latency
/// (the I/O-bound idle gaps of §2.1).
#[derive(Clone, Debug)]
pub struct FlashDisk {
    inner: RamDisk,
    read_latency: SimDuration,
    write_latency: SimDuration,
}

impl FlashDisk {
    /// Creates a flash device with eMMC-class latencies (~100 µs read,
    /// ~250 µs write per 4 KB block).
    pub fn new(blocks: u64) -> Self {
        FlashDisk {
            inner: RamDisk::new(blocks),
            read_latency: SimDuration::from_us(100),
            write_latency: SimDuration::from_us(250),
        }
    }
}

impl BlockDevice for FlashDisk {
    fn block_count(&self) -> u64 {
        self.inner.block_count()
    }

    fn read_block(&self, n: u64, buf: &mut [u8]) -> Cost {
        self.inner.read_block(n, buf)
    }

    fn write_block(&mut self, n: u64, buf: &[u8]) -> Cost {
        self.inner.write_block(n, buf)
    }

    fn io_latency(&self) -> SimDuration {
        // A single representative latency per op keeps the interface small;
        // writes dominate the ext2 workload.
        self.write_latency.max(self.read_latency)
    }
}

/// A block device chosen at boot time: the paper's ramdisk (which favours
/// the Linux baseline by shortening idle gaps), or a flash-like device
/// whose per-operation latency produces the IO-bound idle periods of
/// §2.1.
#[derive(Clone, Debug)]
pub enum Disk {
    /// RAM-backed, zero I/O latency.
    Ram(RamDisk),
    /// eMMC-class latencies.
    Flash(FlashDisk),
}

impl BlockDevice for Disk {
    fn block_count(&self) -> u64 {
        match self {
            Disk::Ram(d) => d.block_count(),
            Disk::Flash(d) => d.block_count(),
        }
    }

    fn read_block(&self, n: u64, buf: &mut [u8]) -> Cost {
        match self {
            Disk::Ram(d) => d.read_block(n, buf),
            Disk::Flash(d) => d.read_block(n, buf),
        }
    }

    fn write_block(&mut self, n: u64, buf: &[u8]) -> Cost {
        match self {
            Disk::Ram(d) => d.write_block(n, buf),
            Disk::Flash(d) => d.write_block(n, buf),
        }
    }

    fn io_latency(&self) -> SimDuration {
        match self {
            Disk::Ram(d) => d.io_latency(),
            Disk::Flash(d) => d.io_latency(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ramdisk_round_trips_blocks() {
        let mut d = RamDisk::new(8);
        let data = [0x5au8; BLOCK_SIZE];
        d.write_block(3, &data);
        let mut out = [0u8; BLOCK_SIZE];
        d.read_block(3, &mut out);
        assert_eq!(out[..], data[..]);
    }

    #[test]
    fn unwritten_blocks_read_zero() {
        let d = RamDisk::new(2);
        let mut out = [1u8; BLOCK_SIZE];
        d.read_block(0, &mut out);
        assert!(out.iter().all(|&b| b == 0));
    }

    #[test]
    fn clones_are_isolated_copy_on_write() {
        let read = |d: &RamDisk, n: u64| {
            let mut out = [0u8; BLOCK_SIZE];
            d.read_block(n, &mut out);
            out[0]
        };
        let mut orig = RamDisk::new(4);
        orig.write_block(0, &[1u8; BLOCK_SIZE]);
        let mut clone = orig.clone();
        // Block 0 was resident before the clone; block 1 was not.
        clone.write_block(0, &[2u8; BLOCK_SIZE]);
        clone.write_block(1, &[3u8; BLOCK_SIZE]);
        assert_eq!((read(&orig, 0), read(&orig, 1)), (1, 0));
        assert_eq!((read(&clone, 0), read(&clone, 1)), (2, 3));
        orig.write_block(0, &[4u8; BLOCK_SIZE]);
        orig.write_block(2, &[5u8; BLOCK_SIZE]);
        assert_eq!((read(&clone, 0), read(&clone, 2)), (2, 0));
        assert_eq!((read(&orig, 0), read(&orig, 2)), (4, 5));
    }

    #[test]
    fn ramdisk_has_no_io_latency() {
        assert_eq!(RamDisk::new(1).io_latency(), SimDuration::ZERO);
    }

    #[test]
    fn flash_has_io_latency() {
        assert!(FlashDisk::new(1).io_latency() > SimDuration::ZERO);
    }

    #[test]
    fn costs_include_bulk_copy() {
        let mut d = RamDisk::new(1);
        let c = d.write_block(0, &[0u8; BLOCK_SIZE]);
        assert_eq!(c.bulk_bytes, BLOCK_SIZE as u64);
    }

    #[test]
    #[should_panic]
    fn out_of_range_block_panics() {
        let d = RamDisk::new(1);
        let mut out = [0u8; BLOCK_SIZE];
        d.read_block(5, &mut out);
    }
}
