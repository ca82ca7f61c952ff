//! The buffer pool: an in-memory cache of pages with clock eviction.
//!
//! Every logical page access goes through [`BufferPool::get`] and is counted
//! in [`PoolStats`] — the analog of the "db hits" the paper reads off
//! Cypher's profiler, and the mechanism behind its cold-/warm-cache
//! observations (Section 4): a cold pool faults every page from the backend,
//! and high-degree traversals "attempt to load a large portion of the graph
//! in memory", evicting everything else.

use std::cell::Cell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

use micrograph_common::PageId;
use parking_lot::{Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard};

use crate::backend::StorageBackend;
use crate::page::Page;
use crate::Result;

/// Buffer pool configuration.
#[derive(Debug, Clone, Copy)]
pub struct PoolConfig {
    /// Maximum number of pages held in memory.
    pub capacity_pages: usize,
}

impl Default for PoolConfig {
    fn default() -> Self {
        // 64 MiB at 8 KiB pages.
        PoolConfig { capacity_pages: 8192 }
    }
}

/// Counters exposed by the pool. Snapshot via [`BufferPool::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Logical page accesses (the "db hits" analog).
    pub accesses: u64,
    /// Accesses served from memory.
    pub hits: u64,
    /// Accesses that faulted from the backend.
    pub misses: u64,
    /// Frames evicted to make room.
    pub evictions: u64,
    /// Dirty pages written back to the backend.
    pub writebacks: u64,
}

thread_local! {
    /// Logical page accesses made by the current thread, over every pool.
    static THREAD_ACCESSES: Cell<u64> = const { Cell::new(0) };
}

/// Logical page accesses the calling thread has made so far, over every
/// pool. A delta taken around a piece of work counts that work's accesses
/// only, whatever other threads do meanwhile — unlike a delta of
/// [`PoolStats::accesses`], which is shared by all threads.
pub fn thread_accesses() -> u64 {
    THREAD_ACCESSES.with(Cell::get)
}

#[derive(Default)]
struct AtomicStats {
    accesses: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    writebacks: AtomicU64,
}

struct FrameCell {
    data: RwLock<Page>,
    pins: AtomicU32,
    dirty: AtomicBool,
    referenced: AtomicBool,
}

impl FrameCell {
    fn new() -> Arc<Self> {
        Arc::new(FrameCell {
            data: RwLock::new(Page::zeroed()),
            pins: AtomicU32::new(0),
            dirty: AtomicBool::new(false),
            referenced: AtomicBool::new(false),
        })
    }
}

struct Inner {
    backend: Box<dyn StorageBackend>,
    frames: Vec<(Option<PageId>, Arc<FrameCell>)>,
    map: HashMap<PageId, usize>,
    hand: usize,
}

/// A pinned page. Holding the handle keeps the page resident; dropping it
/// unpins. Obtain read/write views with [`PageHandle::read`] /
/// [`PageHandle::write`].
pub struct PageHandle {
    cell: Arc<FrameCell>,
}

impl PageHandle {
    /// Shared read access to the page bytes.
    pub fn read(&self) -> RwLockReadGuard<'_, Page> {
        self.cell.data.read()
    }

    /// Exclusive write access; marks the page dirty.
    pub fn write(&self) -> RwLockWriteGuard<'_, Page> {
        self.cell.dirty.store(true, Ordering::Release);
        self.cell.data.write()
    }
}

impl Drop for PageHandle {
    fn drop(&mut self) {
        self.cell.pins.fetch_sub(1, Ordering::AcqRel);
    }
}

/// A buffer pool over a [`StorageBackend`].
pub struct BufferPool {
    inner: Mutex<Inner>,
    stats: AtomicStats,
    capacity: usize,
}

impl BufferPool {
    /// Creates a pool over `backend` with the given configuration.
    pub fn new(backend: Box<dyn StorageBackend>, config: PoolConfig) -> Self {
        assert!(config.capacity_pages > 0, "pool needs at least one frame");
        BufferPool {
            inner: Mutex::new(Inner {
                backend,
                frames: Vec::new(),
                map: HashMap::new(),
                hand: 0,
            }),
            stats: AtomicStats::default(),
            capacity: config.capacity_pages,
        }
    }

    /// Allocates a fresh zero page in the backend and returns its id.
    pub fn allocate(&self) -> Result<PageId> {
        let mut inner = self.inner.lock();
        inner.backend.allocate()
    }

    /// Number of pages in the backend.
    pub fn page_count(&self) -> u64 {
        self.inner.lock().backend.page_count()
    }

    /// Bytes on the backing medium.
    pub fn size_bytes(&self) -> u64 {
        self.inner.lock().backend.size_bytes()
    }

    /// Pins page `id`, faulting it from the backend on a miss.
    pub fn get(&self, id: PageId) -> Result<PageHandle> {
        self.stats.accesses.fetch_add(1, Ordering::Relaxed);
        THREAD_ACCESSES.with(|c| c.set(c.get() + 1));
        let mut inner = self.inner.lock();
        if let Some(&fi) = inner.map.get(&id) {
            self.stats.hits.fetch_add(1, Ordering::Relaxed);
            let cell = inner.frames[fi].1.clone();
            cell.pins.fetch_add(1, Ordering::AcqRel);
            cell.referenced.store(true, Ordering::Relaxed);
            return Ok(PageHandle { cell });
        }
        self.stats.misses.fetch_add(1, Ordering::Relaxed);
        let fi = self.grab_frame(&mut inner)?;
        // Fault the page in.
        {
            let cell = inner.frames[fi].1.clone();
            let mut page = cell.data.write();
            inner.backend.read_page(id, &mut page)?;
            cell.dirty.store(false, Ordering::Release);
            cell.referenced.store(true, Ordering::Relaxed);
        }
        inner.frames[fi].0 = Some(id);
        inner.map.insert(id, fi);
        let cell = inner.frames[fi].1.clone();
        cell.pins.fetch_add(1, Ordering::AcqRel);
        Ok(PageHandle { cell })
    }

    /// Finds a free frame, evicting with the clock algorithm if the pool is
    /// full. Returns the frame index; the frame is unmapped and clean.
    fn grab_frame(&self, inner: &mut Inner) -> Result<usize> {
        if inner.frames.len() < self.capacity {
            inner.frames.push((None, FrameCell::new()));
            return Ok(inner.frames.len() - 1);
        }
        let n = inner.frames.len();
        // Clock sweep: skip pinned; clear reference bits; give up after 3
        // full sweeps (every frame pinned) — a configuration error.
        for _ in 0..3 * n {
            let i = inner.hand;
            inner.hand = (inner.hand + 1) % n;
            let cell = inner.frames[i].1.clone();
            if cell.pins.load(Ordering::Acquire) > 0 {
                continue;
            }
            if cell.referenced.swap(false, Ordering::Relaxed) {
                continue;
            }
            // Victim found: write back if dirty, unmap.
            if let Some(old_id) = inner.frames[i].0.take() {
                inner.map.remove(&old_id);
                if cell.dirty.swap(false, Ordering::AcqRel) {
                    let page = cell.data.read();
                    inner.backend.write_page(old_id, &page)?;
                    self.stats.writebacks.fetch_add(1, Ordering::Relaxed);
                }
                self.stats.evictions.fetch_add(1, Ordering::Relaxed);
            }
            return Ok(i);
        }
        Err(micrograph_common::CommonError::InvalidState(
            "buffer pool exhausted: all frames pinned".into(),
        ))
    }

    /// Writes every dirty frame back and syncs the backend.
    pub fn flush_all(&self) -> Result<()> {
        let mut inner = self.inner.lock();
        for i in 0..inner.frames.len() {
            let (id_opt, cell) = (inner.frames[i].0, inner.frames[i].1.clone());
            if let Some(id) = id_opt {
                if cell.dirty.swap(false, Ordering::AcqRel) {
                    let page = cell.data.read();
                    inner.backend.write_page(id, &page)?;
                    self.stats.writebacks.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        inner.backend.sync()
    }

    /// Flushes and then drops every unpinned frame — the "cold cache" switch
    /// used by the Section 4 warm-up experiments.
    pub fn evict_all(&self) -> Result<()> {
        self.flush_all()?;
        let mut inner = self.inner.lock();
        for i in 0..inner.frames.len() {
            let cell = inner.frames[i].1.clone();
            if cell.pins.load(Ordering::Acquire) == 0 {
                if let Some(id) = inner.frames[i].0.take() {
                    inner.map.remove(&id);
                    self.stats.evictions.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        Ok(())
    }

    /// Snapshot of the counters.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            accesses: self.stats.accesses.load(Ordering::Relaxed),
            hits: self.stats.hits.load(Ordering::Relaxed),
            misses: self.stats.misses.load(Ordering::Relaxed),
            evictions: self.stats.evictions.load(Ordering::Relaxed),
            writebacks: self.stats.writebacks.load(Ordering::Relaxed),
        }
    }

    /// Zeroes the counters (between measured query runs).
    pub fn reset_stats(&self) {
        self.stats.accesses.store(0, Ordering::Relaxed);
        self.stats.hits.store(0, Ordering::Relaxed);
        self.stats.misses.store(0, Ordering::Relaxed);
        self.stats.evictions.store(0, Ordering::Relaxed);
        self.stats.writebacks.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MemBackend;

    fn pool(capacity: usize) -> BufferPool {
        BufferPool::new(Box::new(MemBackend::new()), PoolConfig { capacity_pages: capacity })
    }

    #[test]
    fn read_after_write() {
        let p = pool(4);
        let id = p.allocate().unwrap();
        {
            let h = p.get(id).unwrap();
            h.write().write_u64(0, 123);
        }
        let h = p.get(id).unwrap();
        assert_eq!(h.read().read_u64(0), 123);
    }

    #[test]
    fn hits_and_misses_counted() {
        let p = pool(4);
        let id = p.allocate().unwrap();
        let _ = p.get(id).unwrap();
        let _ = p.get(id).unwrap();
        let s = p.stats();
        assert_eq!(s.accesses, 2);
        assert_eq!(s.misses, 1);
        assert_eq!(s.hits, 1);
    }

    #[test]
    fn eviction_writes_back_dirty_pages() {
        let p = pool(2);
        let ids: Vec<PageId> = (0..4).map(|_| p.allocate().unwrap()).collect();
        for (i, &id) in ids.iter().enumerate() {
            let h = p.get(id).unwrap();
            h.write().write_u64(0, i as u64 + 1);
        }
        // Capacity 2 < 4 pages → evictions happened; data must survive.
        for (i, &id) in ids.iter().enumerate() {
            let h = p.get(id).unwrap();
            assert_eq!(h.read().read_u64(0), i as u64 + 1, "page {i}");
        }
        let s = p.stats();
        assert!(s.evictions >= 2, "stats: {s:?}");
        assert!(s.writebacks >= 2);
    }

    #[test]
    fn pinned_pages_survive_pressure() {
        let p = pool(2);
        let a = p.allocate().unwrap();
        let b = p.allocate().unwrap();
        let c = p.allocate().unwrap();
        let ha = p.get(a).unwrap();
        ha.write().write_u64(0, 7);
        // Touch b and c, forcing eviction pressure; a is pinned throughout.
        for _ in 0..3 {
            let _ = p.get(b).unwrap();
            let _ = p.get(c).unwrap();
        }
        assert_eq!(ha.read().read_u64(0), 7);
    }

    #[test]
    fn all_pinned_errors() {
        let p = pool(2);
        let a = p.allocate().unwrap();
        let b = p.allocate().unwrap();
        let c = p.allocate().unwrap();
        let _ha = p.get(a).unwrap();
        let _hb = p.get(b).unwrap();
        assert!(p.get(c).is_err());
    }

    #[test]
    fn evict_all_forces_cold_cache() {
        let p = pool(8);
        let id = p.allocate().unwrap();
        {
            let h = p.get(id).unwrap();
            h.write().write_u64(0, 9);
        }
        p.reset_stats();
        p.evict_all().unwrap();
        let h = p.get(id).unwrap();
        assert_eq!(h.read().read_u64(0), 9);
        let s = p.stats();
        assert_eq!(s.misses, 1, "expected a cold read: {s:?}");
    }

    #[test]
    fn flush_all_persists_to_backend() {
        let p = pool(8);
        let id = p.allocate().unwrap();
        {
            let h = p.get(id).unwrap();
            h.write().write_u64(16, 55);
        }
        p.flush_all().unwrap();
        // Evict and re-read from backend.
        p.evict_all().unwrap();
        let h = p.get(id).unwrap();
        assert_eq!(h.read().read_u64(16), 55);
    }

    #[test]
    fn concurrent_readers() {
        use std::sync::Arc as StdArc;
        let p = StdArc::new(pool(16));
        let id = p.allocate().unwrap();
        {
            let h = p.get(id).unwrap();
            h.write().write_u64(0, 31415);
        }
        let mut handles = Vec::new();
        for _ in 0..8 {
            let p = p.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..100 {
                    let h = p.get(id).unwrap();
                    assert_eq!(h.read().read_u64(0), 31415);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }
}
