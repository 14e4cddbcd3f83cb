//! Process-wide buffer pool for replay block reads.
//!
//! PR 3's `ReplayCache` gave each recovering MSP its own fixed clock
//! cache; co-located runtimes (sharded deployments, striped logs) each
//! carved private pools out of memory that none of them could share.
//! This module hoists the slot pool one level up: one `BufferPool` per
//! process, holding 64 KB log blocks keyed by `(source, block)` where a
//! *source* is one registered consumer (one `ReplayCache` view over one
//! physical log or stripe). Views borrow slots from the common pool, so
//! a shard that finishes recovery early returns its memory to the shard
//! still replaying, and the whole pool is observable as one stats block.
//!
//! Replacement is second-chance clock: one reference bit per slot, set on
//! a demand hit and on install (one revolution of grace), and a hand that
//! clears bits until it finds a cold slot. It is cheap and scan-resistant
//! enough for replay's mostly sequential block walk.
//!
//! Prefetched blocks ([`BufferPool::insert_prefetched`] /
//! [`BufferPool::prefetch_with`]) are tagged so the pool can report how
//! many prefetches were actually consumed by a demand read
//! (`pool_prefetch_hits`) versus merely loaded.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use msp_types::MspError;

/// One pooled block.
struct Slot {
    /// `(source, block_no)` owner, `None` while the slot is free.
    key: Option<(u32, u64)>,
    data: Arc<Vec<u8>>,
    /// Clock reference bit: set on install and on demand hit.
    referenced: bool,
    /// Loaded by a prefetcher and not yet claimed by a demand read.
    prefetched: bool,
}

impl Slot {
    fn empty() -> Slot {
        Slot {
            key: None,
            data: Arc::new(Vec::new()),
            referenced: false,
            prefetched: false,
        }
    }
}

struct PoolInner {
    map: HashMap<(u32, u64), usize>,
    slots: Vec<Slot>,
    /// Slot indices with no resident block (initial fill + retired
    /// sources); consumed before any eviction.
    free: Vec<usize>,
    /// Clock hand over `slots`.
    hand: usize,
}

/// Monotone pool counters.
#[derive(Default)]
struct PoolStats {
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    prefetch_hits: AtomicU64,
    prefetched_blocks: AtomicU64,
}

/// Point-in-time copy of the pool counters.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PoolStatsSnapshot {
    /// Demand reads served from a resident block.
    pub pool_hits: u64,
    /// Demand reads that had to fetch from the device.
    pub pool_misses: u64,
    /// Occupied blocks displaced to make room.
    pub pool_evictions: u64,
    /// Demand hits whose block was loaded by a prefetcher.
    pub pool_prefetch_hits: u64,
    /// Blocks loaded by prefetch (scan feed or schedule walk).
    pub pool_prefetched_blocks: u64,
}

impl PoolStatsSnapshot {
    /// Counters accumulated since `base` (field-wise saturating delta).
    pub fn since(&self, base: &PoolStatsSnapshot) -> PoolStatsSnapshot {
        PoolStatsSnapshot {
            pool_hits: self.pool_hits.saturating_sub(base.pool_hits),
            pool_misses: self.pool_misses.saturating_sub(base.pool_misses),
            pool_evictions: self.pool_evictions.saturating_sub(base.pool_evictions),
            pool_prefetch_hits: self
                .pool_prefetch_hits
                .saturating_sub(base.pool_prefetch_hits),
            pool_prefetched_blocks: self
                .pool_prefetched_blocks
                .saturating_sub(base.pool_prefetched_blocks),
        }
    }

    /// Field-wise sum (aggregating across pools/processes).
    pub fn merge(&self, other: &PoolStatsSnapshot) -> PoolStatsSnapshot {
        PoolStatsSnapshot {
            pool_hits: self.pool_hits + other.pool_hits,
            pool_misses: self.pool_misses + other.pool_misses,
            pool_evictions: self.pool_evictions + other.pool_evictions,
            pool_prefetch_hits: self.pool_prefetch_hits + other.pool_prefetch_hits,
            pool_prefetched_blocks: self.pool_prefetched_blocks + other.pool_prefetched_blocks,
        }
    }
}

/// What a demand [`BufferPool::get`] did, so the calling view can charge
/// its per-log counters without the pool knowing about `LogStats`.
#[derive(Debug, Clone, Copy)]
pub struct PoolReadOutcome {
    /// Served from a resident block without touching the device.
    pub hit: bool,
    /// The resident block had been loaded by a prefetcher.
    pub prefetch_hit: bool,
    /// Installing the block displaced another occupied slot.
    pub evicted: bool,
}

/// Fixed-size, process-wide pool of 64 KB log blocks shared by every
/// registered consumer. See the module docs.
pub struct BufferPool {
    inner: Mutex<PoolInner>,
    stats: PoolStats,
    next_source: AtomicU32,
}

impl BufferPool {
    /// A pool of `blocks` slots (clamped to at least 1).
    pub fn new(blocks: usize) -> BufferPool {
        let blocks = blocks.max(1);
        let slots = (0..blocks).map(|_| Slot::empty()).collect();
        BufferPool {
            inner: Mutex::new(PoolInner {
                map: HashMap::new(),
                slots,
                free: (0..blocks).rev().collect(),
                hand: 0,
            }),
            stats: PoolStats::default(),
            next_source: AtomicU32::new(0),
        }
    }

    /// Allocate a fresh source id for one consumer (one replay view over
    /// one physical log or stripe).
    pub fn register(&self) -> u32 {
        self.next_source.fetch_add(1, Ordering::Relaxed)
    }

    /// Drop every block a source loaded, returning its slots to the free
    /// list (called when a view is dropped, e.g. recovery finished).
    pub fn retire(&self, source: u32) {
        let mut inner = self.inner.lock();
        let keys: Vec<(u32, u64)> = inner
            .map
            .keys()
            .filter(|k| k.0 == source)
            .copied()
            .collect();
        for key in keys {
            let slot = inner.map.remove(&key).expect("key just listed");
            inner.slots[slot] = Slot::empty();
            inner.free.push(slot);
        }
    }

    /// Total slot count.
    pub fn capacity(&self) -> usize {
        self.inner.lock().slots.len()
    }

    /// Point-in-time counters.
    pub fn stats(&self) -> PoolStatsSnapshot {
        PoolStatsSnapshot {
            pool_hits: self.stats.hits.load(Ordering::Relaxed),
            pool_misses: self.stats.misses.load(Ordering::Relaxed),
            pool_evictions: self.stats.evictions.load(Ordering::Relaxed),
            pool_prefetch_hits: self.stats.prefetch_hits.load(Ordering::Relaxed),
            pool_prefetched_blocks: self.stats.prefetched_blocks.load(Ordering::Relaxed),
        }
    }

    /// Whether `(source, block_no)` is resident (no touch, no counting).
    pub fn contains(&self, source: u32, block_no: u64) -> bool {
        self.inner.lock().map.contains_key(&(source, block_no))
    }

    /// Demand read: return the resident block, or run `fetch` (outside
    /// the pool lock — concurrent readers keep hitting meanwhile) and
    /// install the result. The outcome tells the caller what to charge.
    pub fn get(
        &self,
        source: u32,
        block_no: u64,
        fetch: impl FnOnce() -> Result<Vec<u8>, MspError>,
    ) -> Result<(Arc<Vec<u8>>, PoolReadOutcome), MspError> {
        let key = (source, block_no);
        {
            let mut inner = self.inner.lock();
            if let Some(&slot) = inner.map.get(&key) {
                let prefetch_hit = Self::touch(&mut inner, slot);
                self.stats.hits.fetch_add(1, Ordering::Relaxed);
                if prefetch_hit {
                    self.stats.prefetch_hits.fetch_add(1, Ordering::Relaxed);
                }
                return Ok((
                    Arc::clone(&inner.slots[slot].data),
                    PoolReadOutcome {
                        hit: true,
                        prefetch_hit,
                        evicted: false,
                    },
                ));
            }
        }
        // Miss: the device read happens unlocked; a concurrent miss on
        // the same block may fetch too (both are real I/O, both counted
        // by the caller), but only the first install keeps its copy.
        self.stats.misses.fetch_add(1, Ordering::Relaxed);
        let data = Arc::new(fetch()?);
        let mut inner = self.inner.lock();
        if let Some(&slot) = inner.map.get(&key) {
            let prefetch_hit = Self::touch(&mut inner, slot);
            if prefetch_hit {
                self.stats.prefetch_hits.fetch_add(1, Ordering::Relaxed);
            }
            return Ok((
                Arc::clone(&inner.slots[slot].data),
                PoolReadOutcome {
                    hit: false,
                    prefetch_hit,
                    evicted: false,
                },
            ));
        }
        let (slot, evicted) = Self::allocate(&mut inner);
        if evicted {
            self.stats.evictions.fetch_add(1, Ordering::Relaxed);
        }
        Self::install(&mut inner, slot, key, Arc::clone(&data), false);
        Ok((
            data,
            PoolReadOutcome {
                hit: false,
                prefetch_hit: false,
                evicted,
            },
        ))
    }

    /// Prefetch: if the block is absent, run `fetch` and install it
    /// tagged as prefetched. Returns whether a fetch happened. A resident
    /// block is left untouched (a prefetch probe must not look like a
    /// demand reference to the clock).
    pub fn prefetch_with(
        &self,
        source: u32,
        block_no: u64,
        fetch: impl FnOnce() -> Result<Vec<u8>, MspError>,
    ) -> Result<bool, MspError> {
        let key = (source, block_no);
        if self.inner.lock().map.contains_key(&key) {
            return Ok(false);
        }
        let data = Arc::new(fetch()?);
        Ok(self.install_prefetched(key, data))
    }

    /// Install bytes some other stage already read off the device (the
    /// analysis scan feeding its chunks forward). No-op if resident.
    pub fn insert_prefetched(&self, source: u32, block_no: u64, data: Vec<u8>) {
        self.install_prefetched((source, block_no), Arc::new(data));
    }

    fn install_prefetched(&self, key: (u32, u64), data: Arc<Vec<u8>>) -> bool {
        let mut inner = self.inner.lock();
        if inner.map.contains_key(&key) {
            return false;
        }
        let (slot, evicted) = Self::allocate(&mut inner);
        if evicted {
            self.stats.evictions.fetch_add(1, Ordering::Relaxed);
        }
        Self::install(&mut inner, slot, key, data, true);
        self.stats.prefetched_blocks.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// Mark a demand reference on a resident slot; returns (and clears)
    /// its prefetched tag.
    fn touch(inner: &mut PoolInner, slot: usize) -> bool {
        let s = &mut inner.slots[slot];
        s.referenced = true;
        std::mem::take(&mut s.prefetched)
    }

    fn install(
        inner: &mut PoolInner,
        slot: usize,
        key: (u32, u64),
        data: Arc<Vec<u8>>,
        prefetched: bool,
    ) {
        inner.slots[slot] = Slot {
            key: Some(key),
            data,
            // New blocks get one revolution of grace.
            referenced: true,
            prefetched,
        };
        inner.map.insert(key, slot);
    }

    /// A slot to install into: a free one if any, else the clock's victim
    /// (whose old mapping is removed here). The bool reports whether an
    /// occupied block was displaced.
    fn allocate(inner: &mut PoolInner) -> (usize, bool) {
        if let Some(slot) = inner.free.pop() {
            return (slot, false);
        }
        let victim = loop {
            let hand = inner.hand;
            inner.hand = (inner.hand + 1) % inner.slots.len();
            if inner.slots[hand].referenced {
                inner.slots[hand].referenced = false;
            } else {
                break hand;
            }
        };
        let key = inner.slots[victim].key.take().expect("victim is occupied");
        inner.map.remove(&key);
        (victim, true)
    }
}

/// Handle letting the analysis scan's I/O stage push the chunks it reads
/// into the pool under one source's key space — recovery replay then
/// finds its blocks already resident instead of re-reading the region
/// the scan just paid for.
#[derive(Clone)]
pub struct ScanFeed {
    pool: Arc<BufferPool>,
    source: u32,
}

impl ScanFeed {
    pub fn new(pool: &Arc<BufferPool>, source: u32) -> ScanFeed {
        ScanFeed {
            pool: Arc::clone(pool),
            source,
        }
    }

    /// Offer one block-aligned chunk the scan already read.
    pub fn insert(&self, block_no: u64, data: Vec<u8>) {
        self.pool.insert_prefetched(self.source, block_no, data);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fetch(byte: u8) -> impl FnOnce() -> Result<Vec<u8>, MspError> {
        move || Ok(vec![byte; 8])
    }

    fn resident(pool: &BufferPool, src: u32, blocks: &[u64]) -> Vec<bool> {
        blocks.iter().map(|&b| pool.contains(src, b)).collect()
    }

    #[test]
    fn demand_reads_hit_after_first_fetch() {
        let pool = BufferPool::new(4);
        let src = pool.register();
        let (data, out) = pool.get(src, 7, fetch(0xAA)).unwrap();
        assert!(!out.hit);
        assert_eq!(*data, vec![0xAA; 8]);
        let (_, out) = pool.get(src, 7, || unreachable!("resident")).unwrap();
        assert!(out.hit && !out.prefetch_hit);
        let s = pool.stats();
        assert_eq!((s.pool_hits, s.pool_misses), (1, 1));
    }

    #[test]
    fn sources_do_not_alias_blocks() {
        let pool = BufferPool::new(4);
        let (a, b) = (pool.register(), pool.register());
        pool.get(a, 0, fetch(1)).unwrap();
        let (data, out) = pool.get(b, 0, fetch(2)).unwrap();
        assert!(!out.hit, "same block number, different source");
        assert_eq!(*data, vec![2; 8]);
    }

    #[test]
    fn clock_grants_second_chance() {
        let pool = BufferPool::new(2);
        let src = pool.register();
        pool.get(src, 0, fetch(0)).unwrap();
        pool.get(src, 1, fetch(1)).unwrap();
        // Both referenced; the hand clears 0 then 1, wraps, evicts 0.
        pool.get(src, 2, fetch(2)).unwrap();
        assert_eq!(resident(&pool, src, &[0, 1, 2]), [false, true, true]);
        assert_eq!(pool.stats().pool_evictions, 1);
    }

    #[test]
    fn prefetched_blocks_count_when_claimed() {
        let pool = BufferPool::new(4);
        let src = pool.register();
        assert!(pool.prefetch_with(src, 5, fetch(5)).unwrap());
        assert!(!pool.prefetch_with(src, 5, || unreachable!()).unwrap());
        pool.insert_prefetched(src, 6, vec![6; 8]);
        let (_, out) = pool.get(src, 5, || unreachable!("prefetched")).unwrap();
        assert!(out.hit && out.prefetch_hit);
        // Claimed once: a second demand hit is an ordinary hit.
        let (_, out) = pool.get(src, 5, || unreachable!()).unwrap();
        assert!(out.hit && !out.prefetch_hit);
        let s = pool.stats();
        assert_eq!(s.pool_prefetched_blocks, 2);
        assert_eq!(s.pool_prefetch_hits, 1);
        assert_eq!(s.pool_misses, 0);
    }

    #[test]
    fn retire_returns_slots_without_evictions() {
        let pool = BufferPool::new(2);
        let (a, b) = (pool.register(), pool.register());
        pool.get(a, 0, fetch(0)).unwrap();
        pool.get(a, 1, fetch(1)).unwrap();
        pool.retire(a);
        assert!(!pool.contains(a, 0) && !pool.contains(a, 1));
        // Freed slots serve the other source without any displacement.
        pool.get(b, 0, fetch(2)).unwrap();
        pool.get(b, 1, fetch(3)).unwrap();
        assert_eq!(pool.stats().pool_evictions, 0);
    }

    #[test]
    fn snapshot_since_and_merge() {
        let a = PoolStatsSnapshot {
            pool_hits: 10,
            pool_misses: 4,
            pool_evictions: 2,
            pool_prefetch_hits: 3,
            pool_prefetched_blocks: 5,
        };
        let b = PoolStatsSnapshot {
            pool_hits: 7,
            pool_misses: 1,
            pool_evictions: 0,
            pool_prefetch_hits: 2,
            pool_prefetched_blocks: 4,
        };
        assert_eq!(
            a.since(&b),
            PoolStatsSnapshot {
                pool_hits: 3,
                pool_misses: 3,
                pool_evictions: 2,
                pool_prefetch_hits: 1,
                pool_prefetched_blocks: 1,
            }
        );
        assert_eq!(
            a.merge(&b),
            PoolStatsSnapshot {
                pool_hits: 17,
                pool_misses: 5,
                pool_evictions: 2,
                pool_prefetch_hits: 5,
                pool_prefetched_blocks: 9,
            }
        );
    }

    #[test]
    fn fetch_errors_do_not_poison_the_pool() {
        let pool = BufferPool::new(2);
        let src = pool.register();
        let err = pool
            .get(src, 0, || {
                Err(MspError::Io(std::io::Error::other("device gone")))
            })
            .unwrap_err();
        assert!(matches!(err, MspError::Io(_)));
        // The failed fetch installed nothing; a retry fetches cleanly.
        let (_, out) = pool.get(src, 0, fetch(9)).unwrap();
        assert!(!out.hit);
        assert_eq!(pool.stats().pool_misses, 2);
    }
}
