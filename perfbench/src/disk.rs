//! The benchmark's devices.
//!
//! [`ChunkDisk`] is the in-memory device under every MSP: it gives the
//! space the log reclaims below its floor back to the allocator, so the
//! process's memory follows the live log rather than everything ever
//! written. [`TimedDisk`] wraps it in traced runs: per-call counts and
//! bytes, wall time spent inside the call (a span per call), and the
//! device time the disk model would charge for the same transfer. The
//! model's sleep happens in the log layer, not here, so the span is the
//! CPU side and the model sum is the simulated device side, reported
//! apart.

use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use msp_wal::{Disk, DiskModel};

const CHUNK: usize = 64 << 10;

/// A crash-survivable in-memory disk stored in 64 KiB chunks; reclaimed
/// chunks are freed and read back as zeros.
#[derive(Default)]
pub struct ChunkDisk {
    chunks: Mutex<Vec<Option<Box<[u8]>>>>,
    len: AtomicU64,
}

impl ChunkDisk {
    /// An independent copy of what is on the disk now — a crash image to
    /// restart from, as sparse as the original.
    pub fn copy(&self) -> ChunkDisk {
        ChunkDisk {
            chunks: Mutex::new(self.chunks.lock().expect("disk lock poisoned").clone()),
            len: AtomicU64::new(self.len()),
        }
    }
}

impl Disk for ChunkDisk {
    fn write(&self, offset: u64, data: &[u8]) -> io::Result<()> {
        let mut chunks = self.chunks.lock().expect("disk lock poisoned");
        let (mut pos, mut src) = (offset as usize, data);
        while !src.is_empty() {
            let (c, at) = (pos / CHUNK, pos % CHUNK);
            if chunks.len() <= c {
                chunks.resize_with(c + 1, || None);
            }
            let chunk = chunks[c].get_or_insert_with(|| vec![0u8; CHUNK].into_boxed_slice());
            let n = src.len().min(CHUNK - at);
            chunk[at..at + n].copy_from_slice(&src[..n]);
            (pos, src) = (pos + n, &src[n..]);
        }
        self.len
            .fetch_max(offset + data.len() as u64, Ordering::SeqCst);
        Ok(())
    }

    fn read(&self, offset: u64, buf: &mut [u8]) -> io::Result<usize> {
        let chunks = self.chunks.lock().expect("disk lock poisoned");
        let end = (offset + buf.len() as u64).min(self.len()) as usize;
        let mut pos = offset as usize;
        while pos < end {
            let (c, at) = (pos / CHUNK, pos % CHUNK);
            let n = (end - pos).min(CHUNK - at);
            let dst = &mut buf[pos - offset as usize..][..n];
            match chunks.get(c).and_then(Option::as_ref) {
                Some(chunk) => dst.copy_from_slice(&chunk[at..at + n]),
                None => dst.fill(0),
            }
            pos += n;
        }
        Ok(end.saturating_sub(offset as usize))
    }

    fn len(&self) -> u64 {
        self.len.load(Ordering::SeqCst)
    }

    fn reclaim(&self, start: u64, end: u64) -> io::Result<()> {
        let mut chunks = self.chunks.lock().expect("disk lock poisoned");
        let (start, end) = (start as usize, (end as usize).min(chunks.len() * CHUNK));
        let mut pos = start;
        while pos < end {
            let (c, at) = (pos / CHUNK, pos % CHUNK);
            let n = (end - pos).min(CHUNK - at);
            if n == CHUNK {
                chunks[c] = None;
            } else if let Some(chunk) = chunks[c].as_mut() {
                chunk[at..at + n].fill(0);
            }
            pos += n;
        }
        Ok(())
    }

    fn footprint(&self) -> u64 {
        let chunks = self.chunks.lock().expect("disk lock poisoned");
        (chunks.iter().flatten().count() * CHUNK) as u64
    }
}

use crate::trace::{self, Kind, Span};

/// Cumulative counters of one [`TimedDisk`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DiskCounts {
    pub writes: u64,
    pub write_bytes: u64,
    /// `DiskModel::flush_cost` summed over the writes, in nanoseconds.
    pub write_model_ns: u64,
    pub reads: u64,
    pub read_bytes: u64,
    /// `DiskModel::read_cost` summed over the reads, in nanoseconds.
    pub read_model_ns: u64,
}

impl DiskCounts {
    pub fn since(&self, base: &DiskCounts) -> DiskCounts {
        DiskCounts {
            writes: self.writes - base.writes,
            write_bytes: self.write_bytes - base.write_bytes,
            write_model_ns: self.write_model_ns - base.write_model_ns,
            reads: self.reads - base.reads,
            read_bytes: self.read_bytes - base.read_bytes,
            read_model_ns: self.read_model_ns - base.read_model_ns,
        }
    }

    pub fn merge(&self, o: &DiskCounts) -> DiskCounts {
        DiskCounts {
            writes: self.writes + o.writes,
            write_bytes: self.write_bytes + o.write_bytes,
            write_model_ns: self.write_model_ns + o.write_model_ns,
            reads: self.reads + o.reads,
            read_bytes: self.read_bytes + o.read_bytes,
            read_model_ns: self.read_model_ns + o.read_model_ns,
        }
    }
}

pub struct TimedDisk {
    inner: Arc<ChunkDisk>,
    model: DiskModel,
    writes: AtomicU64,
    write_bytes: AtomicU64,
    write_model_ns: AtomicU64,
    reads: AtomicU64,
    read_bytes: AtomicU64,
    read_model_ns: AtomicU64,
}

impl TimedDisk {
    /// Wrap `inner`; transfers already on it are not counted.
    pub fn new(inner: Arc<ChunkDisk>, model: DiskModel) -> TimedDisk {
        TimedDisk {
            inner,
            model,
            writes: AtomicU64::new(0),
            write_bytes: AtomicU64::new(0),
            write_model_ns: AtomicU64::new(0),
            reads: AtomicU64::new(0),
            read_bytes: AtomicU64::new(0),
            read_model_ns: AtomicU64::new(0),
        }
    }

    pub fn counts(&self) -> DiskCounts {
        DiskCounts {
            writes: self.writes.load(Ordering::Relaxed),
            write_bytes: self.write_bytes.load(Ordering::Relaxed),
            write_model_ns: self.write_model_ns.load(Ordering::Relaxed),
            reads: self.reads.load(Ordering::Relaxed),
            read_bytes: self.read_bytes.load(Ordering::Relaxed),
            read_model_ns: self.read_model_ns.load(Ordering::Relaxed),
        }
    }
}

impl Disk for TimedDisk {
    fn write(&self, offset: u64, data: &[u8]) -> io::Result<()> {
        let start = trace::now();
        let r = self.inner.write(offset, data);
        let end = trace::now();
        let bytes = data.len() as u64;
        let model = self.model.flush_cost(DiskModel::sectors_for(bytes));
        self.writes.fetch_add(1, Ordering::Relaxed);
        self.write_bytes.fetch_add(bytes, Ordering::Relaxed);
        self.write_model_ns
            .fetch_add(model.as_nanos() as u64, Ordering::Relaxed);
        trace::record(Span {
            kind: Kind::DiskWrite,
            key: bytes,
            start,
            end,
            replay: false,
        });
        r
    }

    fn read(&self, offset: u64, buf: &mut [u8]) -> io::Result<usize> {
        let start = trace::now();
        let r = self.inner.read(offset, buf);
        let end = trace::now();
        let bytes = *r.as_ref().unwrap_or(&0) as u64;
        let model = self.model.read_cost(DiskModel::sectors_for(bytes));
        self.reads.fetch_add(1, Ordering::Relaxed);
        self.read_bytes.fetch_add(bytes, Ordering::Relaxed);
        self.read_model_ns
            .fetch_add(model.as_nanos() as u64, Ordering::Relaxed);
        trace::record(Span {
            kind: Kind::DiskRead,
            key: bytes,
            start,
            end,
            replay: false,
        });
        r
    }

    fn len(&self) -> u64 {
        self.inner.len()
    }

    fn reclaim(&self, start: u64, end: u64) -> io::Result<()> {
        self.inner.reclaim(start, end)
    }

    fn footprint(&self) -> u64 {
        self.inner.footprint()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_disk_reads_back_across_chunks_and_frees_reclaimed_ones() {
        let disk = ChunkDisk::default();
        let data: Vec<u8> = (0..3 * CHUNK + 100).map(|i| (i % 251) as u8).collect();
        disk.write(10, &data).unwrap();
        assert_eq!(disk.len(), 10 + data.len() as u64);
        let mut back = vec![0u8; data.len()];
        assert_eq!(disk.read(10, &mut back).unwrap(), data.len());
        assert_eq!(back, data);
        // Short read at the end of the device.
        let mut tail = [0u8; 50];
        assert_eq!(disk.read(disk.len() - 20, &mut tail).unwrap(), 20);
        assert_eq!(disk.footprint(), 4 * CHUNK as u64);
        // Reclaim everything below 2.5 chunks: two chunks freed, half of
        // the third zeroed, the rest intact — in a copy, too.
        let floor = 2 * CHUNK + CHUNK / 2;
        disk.reclaim(0, floor as u64).unwrap();
        let copy = disk.copy();
        disk.write(floor as u64, &[0xAA; 8]).unwrap();
        for d in [&disk, &copy] {
            assert_eq!(d.footprint(), 2 * CHUNK as u64);
            assert_eq!(d.len(), 10 + data.len() as u64);
        }
        let mut image = vec![0u8; copy.len() as usize];
        copy.read(0, &mut image).unwrap();
        assert!(image[..floor].iter().all(|&b| b == 0));
        assert_eq!(&image[floor..], &data[floor - 10..]);
    }
}
