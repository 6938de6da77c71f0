//! Arena/run recycling pool.
//!
//! Two things borrow buffers from a [`RunPool`]: a [`RunBuilder`] (record
//! arena plus sort buffers), and a partition lane of the map pipeline,
//! which takes a [`PooledSortBuf`] once per chunk and sorts every
//! partition's refs of that chunk in it. Without recycling every chunk
//! re-grows those buffers from empty; with the pool, steady-state map
//! execution performs **no per-record allocation**. Only the run buffer a
//! sort writes is allocated per run (it is frozen into a shared
//! [`bytes::Bytes`] and shipped/cached, so it cannot be recycled).

use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::kv::{BuilderParts, RunBuilder};
use crate::radix::SortBuf;

/// Upper bound on pooled buffer sets; beyond this, released sets are
/// dropped so an unusually wide chunk cannot pin memory forever.
const MAX_POOLED: usize = 128;

/// A shared pool of recyclable [`RunBuilder`] and [`SortBuf`] buffers.
#[derive(Debug, Default)]
pub struct RunPool {
    parts: Mutex<Vec<BuilderParts>>,
    acquired: AtomicUsize,
    reused: AtomicUsize,
}

impl RunPool {
    /// Empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    fn take(&self) -> BuilderParts {
        self.acquired.fetch_add(1, Ordering::Relaxed);
        let recycled = self.parts.lock().pop();
        if recycled.is_some() {
            self.reused.fetch_add(1, Ordering::Relaxed);
        }
        recycled.unwrap_or_default()
    }

    /// Acquire a builder, reusing pooled arena and sort buffers when
    /// available. The builder returns its buffers on `build` or drop.
    pub fn builder(self: &Arc<Self>) -> RunBuilder {
        RunBuilder::recycled(self.take(), Arc::clone(self))
    }

    /// Acquire sort buffers, reused when available; they return to the
    /// pool, emptied, on drop.
    pub fn sort_buf(self: &Arc<Self>) -> PooledSortBuf {
        PooledSortBuf {
            parts: self.take(),
            pool: Arc::clone(self),
        }
    }

    pub(crate) fn release(&self, mut parts: BuilderParts) {
        parts.clear();
        let mut pool = self.parts.lock();
        if pool.len() < MAX_POOLED {
            pool.push(parts);
        }
    }

    /// Buffer sets handed out so far.
    pub fn acquired(&self) -> usize {
        self.acquired.load(Ordering::Relaxed)
    }

    /// Of those, how many reused recycled buffers (steady state: all but
    /// the first wave).
    pub fn reused(&self) -> usize {
        self.reused.load(Ordering::Relaxed)
    }
}

/// A [`SortBuf`] on loan from a [`RunPool`].
#[derive(Debug)]
pub struct PooledSortBuf {
    parts: BuilderParts,
    pool: Arc<RunPool>,
}

impl Deref for PooledSortBuf {
    type Target = SortBuf;
    fn deref(&self) -> &SortBuf {
        &self.parts.sort
    }
}

impl DerefMut for PooledSortBuf {
    fn deref_mut(&mut self) -> &mut SortBuf {
        &mut self.parts.sort
    }
}

impl Drop for PooledSortBuf {
    fn drop(&mut self) {
        self.pool.release(std::mem::take(&mut self.parts));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kv::run_from_pairs;

    #[test]
    fn pooled_builder_output_matches_unpooled() {
        let pool = Arc::new(RunPool::new());
        let pairs = [
            (b"zebra".as_slice(), b"1".as_slice()),
            (b"apple".as_slice(), b"2".as_slice()),
            (b"apple".as_slice(), b"1".as_slice()),
        ];
        let mut b = pool.builder();
        for (k, v) in pairs {
            b.push(k, v);
        }
        let pooled = b.build();
        let plain = run_from_pairs(pairs);
        assert_eq!(pooled, plain);
    }

    #[test]
    fn buffers_recycle_in_steady_state() {
        let pool = Arc::new(RunPool::new());
        for round in 0..10 {
            let mut b = pool.builder();
            for i in 0..100 {
                b.push(format!("key{i:03}").as_bytes(), b"v");
            }
            let run = b.build();
            assert_eq!(run.records(), 100);
            let _ = round;
        }
        assert_eq!(pool.acquired(), 10);
        // Every acquisition after the first reuses the recycled buffers.
        assert_eq!(pool.reused(), 9);
    }

    #[test]
    fn dropped_builder_returns_buffers() {
        let pool = Arc::new(RunPool::new());
        {
            let mut b = pool.builder();
            b.push(b"k", b"v");
            // Dropped without build: buffers must still recycle.
        }
        let _ = pool.builder();
        assert_eq!(pool.reused(), 1);
    }

    #[test]
    fn sort_bufs_and_builders_share_the_pool() {
        let pool = Arc::new(RunPool::new());
        {
            let mut buf = pool.sort_buf();
            buf.refs.push(crate::SortRef::default());
        }
        let mut b = pool.builder();
        b.push(b"k", b"v");
        assert_eq!(b.len(), 1, "the loaned buffers came back empty");
        drop(b);
        assert!(pool.sort_buf().refs.is_empty());
        assert_eq!((pool.acquired(), pool.reused()), (3, 2));
    }
}
