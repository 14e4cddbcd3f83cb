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
//!
//! A miss is single-flight: the first reader of an absent block registers
//! it in flight and reads the device outside the lock; every other reader
//! of that block (replay thread, inline-recovering worker, prefetcher)
//! waits for that one read instead of issuing its own. So a block is read
//! at most once per residency, and `pool_misses` counts exactly the demand
//! device reads. A fetch that fails or panics wakes its waiters to retry
//! with their own fetch, so a device error never poisons the pool and no
//! waiter waits forever.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use parking_lot::{Condvar, Mutex};

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
    /// Blocks being read off the device right now; a key is never both
    /// here and in `map`.
    inflight: HashMap<(u32, u64), Arc<Inflight>>,
    /// Counters, updated under the lock so a snapshot never shows a read
    /// without its install.
    stats: PoolStatsSnapshot,
}

/// One device read in progress. `result` stays `None` until the reader
/// settles it: `Some(Some(bytes))` once installed, `Some(None)` if the
/// fetch failed or panicked (each waiter then retries on its own).
#[derive(Default)]
struct Inflight {
    result: Mutex<Option<Option<Arc<Vec<u8>>>>>,
    done: Condvar,
}

impl Inflight {
    fn settle(&self, data: Option<Arc<Vec<u8>>>) {
        *self.result.lock() = Some(data);
        self.done.notify_all();
    }

    fn wait(&self) -> Option<Arc<Vec<u8>>> {
        let mut result = self.result.lock();
        loop {
            if let Some(data) = &*result {
                return data.clone();
            }
            self.done.wait(&mut result);
        }
    }
}

/// A reader's claim on one in-flight key. [`Flight::land`] installs the
/// fetched block and hands it to the waiters; dropping the claim unlanded
/// (the fetch returned an error or panicked) removes the entry and wakes
/// the waiters empty-handed.
struct Flight<'a> {
    pool: &'a BufferPool,
    key: (u32, u64),
    prefetch: bool,
    inflight: Option<Arc<Inflight>>,
}

impl<'a> Flight<'a> {
    fn begin(
        pool: &'a BufferPool,
        inner: &mut PoolInner,
        key: (u32, u64),
        prefetch: bool,
    ) -> Flight<'a> {
        let inflight = Arc::new(Inflight::default());
        inner.inflight.insert(key, Arc::clone(&inflight));
        Flight {
            pool,
            key,
            prefetch,
            inflight: Some(inflight),
        }
    }

    /// Install the fetched bytes and wake the waiters with them. Returns
    /// whether the install displaced an occupied block.
    fn land(mut self, data: &Arc<Vec<u8>>) -> bool {
        self.settle(Some(Arc::clone(data)))
    }

    /// Remove the in-flight entry, count the read, install `data` if the
    /// fetch produced it, and wake the waiters. Returns whether an
    /// occupied block was displaced.
    fn settle(&mut self, data: Option<Arc<Vec<u8>>>) -> bool {
        let Some(inflight) = self.inflight.take() else {
            return false;
        };
        let mut inner = self.pool.inner.lock();
        inner.inflight.remove(&self.key);
        if !self.prefetch {
            inner.stats.pool_misses += 1;
        }
        // Re-check residency: a key holds at most one slot.
        let evicted = data
            .clone()
            .and_then(|data| BufferPool::place(&mut inner, self.key, data, self.prefetch));
        drop(inner);
        inflight.settle(data);
        evicted.unwrap_or(false)
    }
}

impl Drop for Flight<'_> {
    fn drop(&mut self) {
        self.settle(None);
    }
}

/// Point-in-time copy of the pool counters.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PoolStatsSnapshot {
    /// Demand reads served without touching the device: from a resident
    /// block, or by waiting on another reader's in-flight fetch.
    pub pool_hits: u64,
    /// Demand reads that fetched from the device (failed fetches too).
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
    /// Served without touching the device (resident, or another reader's
    /// in-flight fetch).
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
                inflight: HashMap::new(),
                stats: PoolStatsSnapshot::default(),
            }),
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
        self.inner.lock().stats
    }

    /// Whether `(source, block_no)` is resident (no touch, no counting).
    pub fn contains(&self, source: u32, block_no: u64) -> bool {
        self.inner.lock().map.contains_key(&(source, block_no))
    }

    /// Demand read: return the resident block, wait for an in-flight read
    /// of it, or run `fetch` (outside the pool lock — concurrent readers
    /// keep hitting meanwhile) and install the result. The outcome tells
    /// the caller what to charge.
    pub fn get(
        &self,
        source: u32,
        block_no: u64,
        fetch: impl FnOnce() -> Result<Vec<u8>, MspError>,
    ) -> Result<(Arc<Vec<u8>>, PoolReadOutcome), MspError> {
        let key = (source, block_no);
        let flight = loop {
            let inflight = {
                let mut inner = self.inner.lock();
                if let Some(&slot) = inner.map.get(&key) {
                    return Ok(Self::hit(&mut inner, slot));
                }
                match inner.inflight.get(&key) {
                    Some(inflight) => Arc::clone(inflight),
                    None => break Flight::begin(self, &mut inner, key, false),
                }
            };
            // Another reader is fetching this block: share its read. If
            // that fetch failed, go round again and fetch ourselves.
            if let Some(data) = inflight.wait() {
                let mut inner = self.inner.lock();
                if let Some(&slot) = inner.map.get(&key) {
                    return Ok(Self::hit(&mut inner, slot));
                }
                // Already displaced again: the flight's bytes still serve.
                inner.stats.pool_hits += 1;
                let outcome = PoolReadOutcome {
                    hit: true,
                    prefetch_hit: false,
                    evicted: false,
                };
                return Ok((data, outcome));
            }
        };
        // Miss: this reader owns the block's one device read.
        let data = Arc::new(fetch()?);
        let evicted = flight.land(&data);
        let outcome = PoolReadOutcome {
            hit: false,
            prefetch_hit: false,
            evicted,
        };
        Ok((data, outcome))
    }

    /// Prefetch: if the block is neither resident nor being read, run
    /// `fetch` and install it tagged as prefetched; demand readers that
    /// arrive meanwhile wait for this read. Returns whether a fetch
    /// happened. A resident block is left untouched (a prefetch probe
    /// must not look like a demand reference to the clock).
    pub fn prefetch_with(
        &self,
        source: u32,
        block_no: u64,
        fetch: impl FnOnce() -> Result<Vec<u8>, MspError>,
    ) -> Result<bool, MspError> {
        let key = (source, block_no);
        let flight = {
            let mut inner = self.inner.lock();
            if inner.map.contains_key(&key) || inner.inflight.contains_key(&key) {
                return Ok(false);
            }
            Flight::begin(self, &mut inner, key, true)
        };
        flight.land(&Arc::new(fetch()?));
        Ok(true)
    }

    /// Install bytes some other stage already read off the device (the
    /// analysis scan feeding its chunks forward). No-op if resident or
    /// in flight: the in-flight read installs the same bytes.
    pub fn insert_prefetched(&self, source: u32, block_no: u64, data: Vec<u8>) {
        let key = (source, block_no);
        let mut inner = self.inner.lock();
        if !inner.inflight.contains_key(&key) {
            Self::place(&mut inner, key, Arc::new(data), true);
        }
    }

    /// Serve a demand hit on a resident slot: set its reference bit and
    /// claim its prefetched tag.
    fn hit(inner: &mut PoolInner, slot: usize) -> (Arc<Vec<u8>>, PoolReadOutcome) {
        let s = &mut inner.slots[slot];
        s.referenced = true;
        let prefetch_hit = std::mem::take(&mut s.prefetched);
        let data = Arc::clone(&s.data);
        inner.stats.pool_hits += 1;
        if prefetch_hit {
            inner.stats.pool_prefetch_hits += 1;
        }
        let outcome = PoolReadOutcome {
            hit: true,
            prefetch_hit,
            evicted: false,
        };
        (data, outcome)
    }

    /// Install `data` under `key` unless it is already resident. Returns
    /// `None` if resident, else whether an occupied block was displaced.
    fn place(
        inner: &mut PoolInner,
        key: (u32, u64),
        data: Arc<Vec<u8>>,
        prefetched: bool,
    ) -> Option<bool> {
        if inner.map.contains_key(&key) {
            return None;
        }
        let (slot, evicted) = Self::allocate(inner);
        inner.slots[slot] = Slot {
            key: Some(key),
            data,
            // New blocks get one revolution of grace.
            referenced: true,
            prefetched,
        };
        inner.map.insert(key, slot);
        if evicted {
            inner.stats.pool_evictions += 1;
        }
        if prefetched {
            inner.stats.pool_prefetched_blocks += 1;
        }
        Some(evicted)
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
    use std::sync::atomic::AtomicUsize;
    use std::sync::mpsc::Receiver;
    use std::time::Duration;

    fn fetch(byte: u8) -> impl FnOnce() -> Result<Vec<u8>, MspError> {
        move || Ok(vec![byte; 8])
    }

    fn resident(pool: &BufferPool, src: u32, blocks: &[u64]) -> Vec<bool> {
        blocks.iter().map(|&b| pool.contains(src, b)).collect()
    }

    /// A gate a fetch parks on until the test opens it.
    #[derive(Default)]
    struct Latch {
        open: Mutex<bool>,
        cv: Condvar,
    }

    impl Latch {
        fn wait(&self) {
            let mut open = self.open.lock();
            while !*open {
                self.cv.wait(&mut open);
            }
        }

        fn open(&self) {
            *self.open.lock() = true;
            self.cv.notify_all();
        }
    }

    /// Readers parked on `key`'s in-flight read (the map and the fetcher
    /// hold the other two references).
    fn waiters(pool: &BufferPool, key: (u32, u64)) -> usize {
        let inner = pool.inner.lock();
        inner
            .inflight
            .get(&key)
            .map_or(0, |f| Arc::strong_count(f) - 2)
    }

    type Reply = Receiver<Result<Arc<Vec<u8>>, MspError>>;

    /// Run a demand read on its own thread and hand back its result, so
    /// a reader stranded by a regression fails [`within`] instead of
    /// hanging the test.
    fn spawn_get(
        pool: &Arc<BufferPool>,
        src: u32,
        block_no: u64,
        fetch: impl FnOnce() -> Result<Vec<u8>, MspError> + Send + 'static,
    ) -> Reply {
        let (tx, rx) = std::sync::mpsc::channel();
        let pool = Arc::clone(pool);
        std::thread::spawn(move || {
            let _ = tx.send(pool.get(src, block_no, fetch).map(|(data, _)| data));
        });
        rx
    }

    fn within(reply: &Reply) -> Result<Arc<Vec<u8>>, MspError> {
        reply
            .recv_timeout(Duration::from_secs(5))
            .expect("reader stranded on a settled flight")
    }

    /// Poll `cond` for up to five seconds; whether it came true.
    fn settles(cond: impl Fn() -> bool) -> bool {
        let t0 = std::time::Instant::now();
        while !cond() {
            if t0.elapsed() > Duration::from_secs(5) {
                return false;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        true
    }

    fn eventually(what: &str, cond: impl Fn() -> bool) {
        assert!(settles(cond), "timed out: {what}");
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
        let pool = Arc::new(BufferPool::new(2));
        let src = pool.register();
        let err = pool
            .get(src, 0, || {
                Err(MspError::Io(std::io::Error::other("device gone")))
            })
            .unwrap_err();
        assert!(matches!(err, MspError::Io(_)));
        // The failed fetch installed nothing and left nothing in flight;
        // a retry fetches cleanly.
        let retry = spawn_get(&pool, src, 0, fetch(9));
        assert_eq!(*within(&retry).unwrap(), vec![9; 8]);
        let s = pool.stats();
        assert_eq!((s.pool_hits, s.pool_misses), (0, 2));
    }

    #[test]
    fn concurrent_misses_share_one_device_read() {
        let pool = BufferPool::new(4);
        let src = pool.register();
        let (latch, fetches) = (Latch::default(), AtomicUsize::new(0));
        let got: Vec<(Arc<Vec<u8>>, PoolReadOutcome)> = std::thread::scope(|s| {
            let readers: Vec<_> = (0..8)
                .map(|_| {
                    s.spawn(|| {
                        pool.get(src, 3, || {
                            fetches.fetch_add(1, Ordering::SeqCst);
                            latch.wait();
                            Ok(vec![0x33; 8])
                        })
                        .unwrap()
                    })
                })
                .collect();
            // Open the latch whatever happened, so a regression fails the
            // asserts below instead of hanging the scope's joins.
            let parked = settles(|| waiters(&pool, (src, 3)) == 7);
            latch.open();
            assert!(parked, "7 readers parked on the flight");
            readers.into_iter().map(|r| r.join().unwrap()).collect()
        });
        assert_eq!(fetches.load(Ordering::SeqCst), 1, "one device read");
        assert_eq!(got.iter().filter(|(_, out)| out.hit).count(), 7);
        for (data, _) in &got {
            assert!(Arc::ptr_eq(data, &got[0].0), "all share the one read");
        }
        let s = pool.stats();
        assert_eq!((s.pool_hits, s.pool_misses), (7, 1));
    }

    #[test]
    fn failed_flight_errors_its_fetcher_and_waiters_retry() {
        let pool = Arc::new(BufferPool::new(4));
        let src = pool.register();
        let (latch, retries) = (Arc::new(Latch::default()), Arc::new(AtomicUsize::new(0)));
        let failing = {
            let latch = Arc::clone(&latch);
            spawn_get(&pool, src, 0, move || {
                latch.wait();
                Err(MspError::Io(std::io::Error::other("device gone")))
            })
        };
        eventually("the failing read is in flight", || {
            pool.inner.lock().inflight.contains_key(&(src, 0))
        });
        let waiting: Vec<_> = (0..3)
            .map(|_| {
                let retries = Arc::clone(&retries);
                spawn_get(&pool, src, 0, move || {
                    retries.fetch_add(1, Ordering::SeqCst);
                    Ok(vec![7; 8])
                })
            })
            .collect();
        eventually("3 readers parked", || waiters(&pool, (src, 0)) == 3);
        latch.open();
        let err = within(&failing).unwrap_err();
        assert!(matches!(err, MspError::Io(_)), "the fetcher gets its error");
        for w in &waiting {
            assert_eq!(*within(w).unwrap(), vec![7; 8]);
        }
        assert_eq!(retries.load(Ordering::SeqCst), 1, "one retry read");
        let s = pool.stats();
        assert_eq!((s.pool_hits, s.pool_misses), (2, 2));
        assert!(pool.inner.lock().inflight.is_empty());
    }

    #[test]
    fn panicking_fetch_does_not_strand_a_waiter() {
        let pool = Arc::new(BufferPool::new(4));
        let src = pool.register();
        let latch = Arc::new(Latch::default());
        let panicking = {
            let (pool, latch) = (Arc::clone(&pool), Arc::clone(&latch));
            std::thread::spawn(move || {
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    pool.get(src, 0, || -> Result<Vec<u8>, MspError> {
                        latch.wait();
                        panic!("fetch blew up")
                    })
                }))
                .is_err()
            })
        };
        eventually("the panicking read is in flight", || {
            pool.inner.lock().inflight.contains_key(&(src, 0))
        });
        let waiter = spawn_get(&pool, src, 0, fetch(5));
        eventually("a reader parked", || waiters(&pool, (src, 0)) == 1);
        latch.open();
        assert!(panicking.join().unwrap(), "the fetch panicked");
        assert_eq!(*within(&waiter).unwrap(), vec![5; 8]);
        assert!(pool.contains(src, 0));
    }

    #[test]
    fn scan_feed_racing_a_demand_read_leaves_one_slot() {
        let pool = BufferPool::new(4);
        let src = pool.register();
        let latch = Latch::default();
        std::thread::scope(|s| {
            let reader = s.spawn(|| {
                pool.get(src, 2, || {
                    latch.wait();
                    Ok(vec![1; 8])
                })
            });
            let in_flight = settles(|| pool.inner.lock().inflight.contains_key(&(src, 2)));
            pool.insert_prefetched(src, 2, vec![1; 8]);
            latch.open();
            assert!(in_flight, "the demand read never went in flight");
            reader.join().unwrap().unwrap();
        });
        let inner = pool.inner.lock();
        let slots = inner.slots.iter().filter(|s| s.key == Some((src, 2)));
        assert_eq!(slots.count(), 1, "one slot per key");
        assert_eq!(
            (inner.stats.pool_misses, inner.stats.pool_prefetched_blocks),
            (1, 0)
        );
    }
}
