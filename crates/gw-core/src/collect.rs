//! Kernel output collection mechanisms (paper §III-F).
//!
//! "Glasswing implements two mechanisms for collecting and storing such
//! output. The first mechanism uses a shared buffer pool to store all
//! output data. The second mechanism provides a hash table implementation
//! to store the key/value pairs. Glasswing provides support for an
//! application-specific combiner stage ... only for the second mechanism."
//!
//! Both collectors are written against the same concurrency model as their
//! OpenCL originals:
//!
//! * [`BufferPoolCollector`] — "each thread allocates space via a single
//!   atomic operation": a sharded bump arena; fast emits, but every
//!   occurrence is stored, so downstream partitioning must decode every
//!   record individually (Table II config (iii): fastest kernel, dominant
//!   partitioning stage).
//! * [`HashTableCollector`] — per-key storage with optional in-place
//!   combining. Emits contend on bucket locks (the analogue of the paper's
//!   "threads must loop multiple times before they allocate space"), so
//!   the kernel stage is slower, but intermediate volume shrinks
//!   dramatically (Table II configs (i)/(ii)).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use gw_storage::varint::{self, RecRef};

use crate::api::Combiner;
use crate::hash::hash_bytes;

/// Which collection mechanism a job uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CollectorKind {
    /// Shared buffer pool (simple output collection).
    BufferPool,
    /// Concurrent hash table (enables the combiner).
    HashTable,
}

/// A kernel-output collector. `emit` is called concurrently from work
/// items; `for_each_part` and `reset` are called by the pipeline after the
/// kernel completes (no concurrent emits).
pub trait Collector: Send + Sync {
    /// Store one key/value pair.
    fn emit(&self, key: &[u8], value: &[u8]);

    /// Visit the `part`-th of `parts` disjoint slices of the collected
    /// records. Visiting all `parts` slices yields every record exactly
    /// once. Used by the partitioning stage's parallel decode.
    fn for_each_part(&self, part: usize, parts: usize, f: &mut dyn FnMut(&[u8], &[u8]));

    /// Clear for reuse by the next chunk (buffer recycling).
    fn reset(&mut self);

    /// Records currently held (post-combining for the hash table).
    fn records(&self) -> usize;

    /// Approximate payload bytes currently held.
    fn bytes(&self) -> usize;
}

/// Visit every collected record (convenience over [`Collector::for_each_part`]).
pub fn for_each_record(c: &dyn Collector, f: &mut dyn FnMut(&[u8], &[u8])) {
    c.for_each_part(0, 1, f);
}

// ---------------------------------------------------------------------------
// Shared buffer pool
// ---------------------------------------------------------------------------

/// Raw arena storage written by concurrent work items at disjoint offsets.
struct RawBuf {
    ptr: *mut u8,
    cap: usize,
}

// SAFETY: writers only touch disjoint `[off, off+len)` ranges reserved via
// an atomic fetch_add, and readers only run after all writers finished
// (enforced by the pipeline's kernel→partition ordering).
unsafe impl Send for RawBuf {}
unsafe impl Sync for RawBuf {}

impl RawBuf {
    fn new(cap: usize) -> Self {
        let mut vec = vec![0u8; cap];
        let ptr = vec.as_mut_ptr();
        std::mem::forget(vec);
        RawBuf { ptr, cap }
    }
}

impl Drop for RawBuf {
    fn drop(&mut self) {
        // SAFETY: reconstitutes the Vec forgotten in `new`.
        unsafe { drop(Vec::from_raw_parts(self.ptr, self.cap, self.cap)) };
    }
}

struct Shard {
    buf: RawBuf,
    /// Next free offset (may exceed `cap` after failed reservations).
    used: AtomicUsize,
    /// End of the last successfully written record (reservations succeed
    /// in prefix order, so this is a valid parse boundary).
    valid_end: AtomicUsize,
    /// Slow path for records that no longer fit in the arena.
    overflow: Mutex<Vec<u8>>,
}

impl Shard {
    fn new(cap: usize) -> Self {
        Shard {
            buf: RawBuf::new(cap),
            used: AtomicUsize::new(0),
            valid_end: AtomicUsize::new(0),
            overflow: Mutex::new(Vec::new()),
        }
    }
}

/// The shared-buffer-pool collector: sharded atomic bump allocation.
pub struct BufferPoolCollector {
    shards: Vec<Shard>,
    records: AtomicUsize,
    bytes: AtomicUsize,
    next_shard: AtomicUsize,
}

impl BufferPoolCollector {
    /// Create with `capacity` total bytes across `shards` shards.
    pub fn new(capacity: usize, shards: usize) -> Self {
        let shards = shards.max(1);
        let per = (capacity / shards).max(256);
        BufferPoolCollector {
            shards: (0..shards).map(|_| Shard::new(per)).collect(),
            records: AtomicUsize::new(0),
            bytes: AtomicUsize::new(0),
            next_shard: AtomicUsize::new(0),
        }
    }

    #[inline]
    fn encode_header(key: &[u8], value: &[u8]) -> ([u8; 20], usize) {
        let mut hdr = [0u8; 20];
        let mut tmp = Vec::with_capacity(20);
        varint::write_len(&mut tmp, key.len());
        varint::write_len(&mut tmp, value.len());
        hdr[..tmp.len()].copy_from_slice(&tmp);
        (hdr, tmp.len())
    }
}

impl Collector for BufferPoolCollector {
    fn emit(&self, key: &[u8], value: &[u8]) {
        let (hdr, hdr_len) = Self::encode_header(key, value);
        let total = hdr_len + key.len() + value.len();
        // Spread emitters over shards round-robin; a shard keeps serving
        // until full (one atomic op per allocation, as in the paper).
        let shard_idx = self.next_shard.fetch_add(1, Ordering::Relaxed) % self.shards.len();
        let shard = &self.shards[shard_idx];
        let off = shard.used.fetch_add(total, Ordering::Relaxed);
        if off + total <= shard.buf.cap {
            // SAFETY: `[off, off+total)` is exclusively ours (fetch_add)
            // and within capacity.
            unsafe {
                let dst = shard.buf.ptr.add(off);
                std::ptr::copy_nonoverlapping(hdr.as_ptr(), dst, hdr_len);
                std::ptr::copy_nonoverlapping(key.as_ptr(), dst.add(hdr_len), key.len());
                std::ptr::copy_nonoverlapping(
                    value.as_ptr(),
                    dst.add(hdr_len + key.len()),
                    value.len(),
                );
            }
            shard.valid_end.fetch_max(off + total, Ordering::Release);
        } else {
            // Arena exhausted: append under the shard lock.
            let mut ovf = shard.overflow.lock();
            ovf.extend_from_slice(&hdr[..hdr_len]);
            ovf.extend_from_slice(key);
            ovf.extend_from_slice(value);
        }
        self.records.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(total, Ordering::Relaxed);
    }

    fn for_each_part(&self, part: usize, parts: usize, f: &mut dyn FnMut(&[u8], &[u8])) {
        for (s, shard) in self.shards.iter().enumerate() {
            if s % parts != part {
                continue;
            }
            let end = shard.valid_end.load(Ordering::Acquire).min(shard.buf.cap);
            // SAFETY: all writers finished; `[0, end)` holds complete records.
            let main = unsafe { std::slice::from_raw_parts(shard.buf.ptr, end) };
            let ovf = shard.overflow.lock();
            for region in [main, ovf.as_slice()] {
                let mut rest = region;
                while !rest.is_empty() {
                    let rec = RecRef::decode(rest, 0).expect("corrupt arena record");
                    f(rec.key(rest), rec.value(rest));
                    rest = &rest[rec.end()..];
                }
            }
        }
    }

    fn reset(&mut self) {
        for shard in &mut self.shards {
            shard.used.store(0, Ordering::Relaxed);
            shard.valid_end.store(0, Ordering::Relaxed);
            shard.overflow.get_mut().clear();
        }
        self.records.store(0, Ordering::Relaxed);
        self.bytes.store(0, Ordering::Relaxed);
        self.next_shard.store(0, Ordering::Relaxed);
    }

    fn records(&self) -> usize {
        self.records.load(Ordering::Relaxed)
    }

    fn bytes(&self) -> usize {
        self.bytes.load(Ordering::Relaxed)
    }
}

// ---------------------------------------------------------------------------
// Hash table
// ---------------------------------------------------------------------------

enum Payload {
    /// Combined accumulator (combiner mode): one value per key.
    Combined(Vec<u8>),
    /// Encoded value list `varint(len) value ...` with its count.
    Values(Vec<u8>, usize),
}

struct HtEntry {
    key: Vec<u8>,
    payload: Payload,
}

/// The hash-table collector with optional in-kernel combiner.
pub struct HashTableCollector {
    buckets: Vec<Mutex<Vec<HtEntry>>>,
    combiner: Option<Arc<dyn Combiner>>,
    emits: AtomicUsize,
    records: AtomicUsize,
    bytes: AtomicUsize,
}

impl HashTableCollector {
    /// Create with `buckets` chains; `combiner` enables combining mode.
    pub fn new(buckets: usize, combiner: Option<Arc<dyn Combiner>>) -> Self {
        let buckets = buckets.max(1);
        HashTableCollector {
            buckets: (0..buckets).map(|_| Mutex::new(Vec::new())).collect(),
            combiner,
            emits: AtomicUsize::new(0),
            records: AtomicUsize::new(0),
            bytes: AtomicUsize::new(0),
        }
    }

    /// Total emit calls (pre-combining), for contention analysis.
    pub fn emits(&self) -> usize {
        self.emits.load(Ordering::Relaxed)
    }
}

impl Collector for HashTableCollector {
    fn emit(&self, key: &[u8], value: &[u8]) {
        self.emits.fetch_add(1, Ordering::Relaxed);
        let b = crate::hash::bucket_of(hash_bytes(key), self.buckets.len());
        let mut bucket = self.buckets[b].lock();
        if let Some(entry) = bucket.iter_mut().find(|e| e.key == key) {
            match &mut entry.payload {
                Payload::Combined(acc) => {
                    let before = acc.len();
                    self.combiner
                        .as_ref()
                        .expect("combined payload without combiner")
                        .combine(key, acc, value);
                    // Accumulator may grow or shrink; adjust byte estimate.
                    let after = acc.len();
                    if after >= before {
                        self.bytes.fetch_add(after - before, Ordering::Relaxed);
                    } else {
                        self.bytes.fetch_sub(before - after, Ordering::Relaxed);
                    }
                }
                Payload::Values(values, count) => {
                    varint::write_len(values, value.len());
                    values.extend_from_slice(value);
                    *count += 1;
                    self.records.fetch_add(1, Ordering::Relaxed);
                    self.bytes.fetch_add(value.len() + 1, Ordering::Relaxed);
                }
            }
        } else {
            let payload = if self.combiner.is_some() {
                Payload::Combined(value.to_vec())
            } else {
                let mut values = Vec::with_capacity(value.len() + 2);
                varint::write_len(&mut values, value.len());
                values.extend_from_slice(value);
                Payload::Values(values, 1)
            };
            self.bytes
                .fetch_add(key.len() + value.len() + 2, Ordering::Relaxed);
            self.records.fetch_add(1, Ordering::Relaxed);
            bucket.push(HtEntry {
                key: key.to_vec(),
                payload,
            });
        }
    }

    fn for_each_part(&self, part: usize, parts: usize, f: &mut dyn FnMut(&[u8], &[u8])) {
        for (b, bucket) in self.buckets.iter().enumerate() {
            if b % parts != part {
                continue;
            }
            let bucket = bucket.lock();
            for entry in bucket.iter() {
                match &entry.payload {
                    Payload::Combined(acc) => f(&entry.key, acc),
                    Payload::Values(values, count) => {
                        // The compacting pass: values of one key are stored
                        // contiguously; decode each occurrence.
                        let mut rest = values.as_slice();
                        let mut seen = 0usize;
                        while !rest.is_empty() {
                            let (vlen, n) =
                                varint::read_len(rest).expect("corrupt hash-table values");
                            f(&entry.key, &rest[n..n + vlen]);
                            rest = &rest[n + vlen..];
                            seen += 1;
                        }
                        debug_assert_eq!(seen, *count);
                    }
                }
            }
        }
    }

    fn reset(&mut self) {
        for bucket in &mut self.buckets {
            bucket.get_mut().clear();
        }
        self.emits.store(0, Ordering::Relaxed);
        self.records.store(0, Ordering::Relaxed);
        self.bytes.store(0, Ordering::Relaxed);
    }

    fn records(&self) -> usize {
        self.records.load(Ordering::Relaxed)
    }

    fn bytes(&self) -> usize {
        self.bytes.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collect_all(c: &dyn Collector) -> Vec<(Vec<u8>, Vec<u8>)> {
        let mut out = Vec::new();
        for_each_record(c, &mut |k, v| out.push((k.to_vec(), v.to_vec())));
        out.sort();
        out
    }

    fn collect_parts(c: &dyn Collector, parts: usize) -> Vec<(Vec<u8>, Vec<u8>)> {
        let mut out = Vec::new();
        for p in 0..parts {
            c.for_each_part(p, parts, &mut |k, v| out.push((k.to_vec(), v.to_vec())));
        }
        out.sort();
        out
    }

    struct SumCombiner;
    impl Combiner for SumCombiner {
        fn combine(&self, _key: &[u8], acc: &mut Vec<u8>, value: &[u8]) {
            let a = u64::from_le_bytes(acc.as_slice().try_into().unwrap());
            let b = u64::from_le_bytes(value.try_into().unwrap());
            acc.copy_from_slice(&(a + b).to_le_bytes());
        }
    }

    #[test]
    fn buffer_pool_stores_every_occurrence() {
        let c = BufferPoolCollector::new(4096, 4);
        c.emit(b"a", b"1");
        c.emit(b"a", b"2");
        c.emit(b"b", b"3");
        assert_eq!(c.records(), 3);
        let all = collect_all(&c);
        assert_eq!(
            all,
            vec![
                (b"a".to_vec(), b"1".to_vec()),
                (b"a".to_vec(), b"2".to_vec()),
                (b"b".to_vec(), b"3".to_vec()),
            ]
        );
    }

    #[test]
    fn buffer_pool_partitioned_read_covers_everything_once() {
        let c = BufferPoolCollector::new(1 << 16, 8);
        for i in 0..500 {
            c.emit(format!("k{i}").as_bytes(), &[i as u8]);
        }
        for parts in [1, 2, 3, 8] {
            assert_eq!(collect_parts(&c, parts).len(), 500, "parts={parts}");
        }
    }

    #[test]
    fn buffer_pool_overflow_path_keeps_records() {
        // Tiny capacity forces the overflow path.
        let c = BufferPoolCollector::new(256, 1);
        for i in 0..200 {
            c.emit(format!("key-{i:04}").as_bytes(), b"valuevalue");
        }
        assert_eq!(c.records(), 200);
        assert_eq!(collect_all(&c).len(), 200);
    }

    #[test]
    fn buffer_pool_concurrent_emits_are_all_kept() {
        let c = std::sync::Arc::new(BufferPoolCollector::new(1 << 18, 8));
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let c = std::sync::Arc::clone(&c);
                std::thread::spawn(move || {
                    for i in 0..1000 {
                        c.emit(format!("t{t}-{i}").as_bytes(), &[t as u8]);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(c.records(), 8000);
        assert_eq!(collect_all(c.as_ref()).len(), 8000);
    }

    #[test]
    fn buffer_pool_reset_recycles() {
        let mut c = BufferPoolCollector::new(4096, 2);
        c.emit(b"x", b"1");
        c.reset();
        assert_eq!(c.records(), 0);
        assert!(collect_all(&c).is_empty());
        c.emit(b"y", b"2");
        assert_eq!(collect_all(&c), vec![(b"y".to_vec(), b"2".to_vec())]);
    }

    #[test]
    fn hash_table_without_combiner_keeps_values_grouped() {
        let c = HashTableCollector::new(16, None);
        c.emit(b"w", &1u64.to_le_bytes());
        c.emit(b"w", &2u64.to_le_bytes());
        c.emit(b"x", &3u64.to_le_bytes());
        assert_eq!(c.records(), 3);
        assert_eq!(c.emits(), 3);
        let all = collect_all(&c);
        assert_eq!(all.len(), 3);
        assert_eq!(all.iter().filter(|(k, _)| k == b"w").count(), 2);
    }

    #[test]
    fn hash_table_with_combiner_aggregates() {
        let c = HashTableCollector::new(16, Some(Arc::new(SumCombiner)));
        for _ in 0..10 {
            c.emit(b"w", &1u64.to_le_bytes());
        }
        c.emit(b"x", &5u64.to_le_bytes());
        assert_eq!(c.records(), 2, "one record per distinct key");
        assert_eq!(c.emits(), 11);
        let all = collect_all(&c);
        let w = all.iter().find(|(k, _)| k == b"w").unwrap();
        assert_eq!(u64::from_le_bytes(w.1.as_slice().try_into().unwrap()), 10);
    }

    #[test]
    fn hash_table_concurrent_combining_is_correct() {
        let c = std::sync::Arc::new(HashTableCollector::new(64, Some(Arc::new(SumCombiner))));
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let c = std::sync::Arc::clone(&c);
                std::thread::spawn(move || {
                    for i in 0..1000 {
                        let key = format!("k{}", i % 10);
                        c.emit(key.as_bytes(), &1u64.to_le_bytes());
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let all = collect_all(c.as_ref());
        assert_eq!(all.len(), 10);
        for (_, v) in all {
            assert_eq!(u64::from_le_bytes(v.as_slice().try_into().unwrap()), 800);
        }
    }

    #[test]
    fn hash_table_partitioned_read_is_disjoint_and_complete() {
        let c = HashTableCollector::new(32, None);
        for i in 0..300 {
            c.emit(format!("k{i}").as_bytes(), b"v");
        }
        for parts in [1, 2, 5] {
            assert_eq!(collect_parts(&c, parts).len(), 300, "parts={parts}");
        }
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Both collection mechanisms hold the same record multiset
            /// (no combiner), for arbitrary emit sequences.
            #[test]
            fn collectors_are_equivalent(
                emits in proptest::collection::vec(
                    (proptest::collection::vec(any::<u8>(), 0..8),
                     proptest::collection::vec(any::<u8>(), 0..8)), 0..200))
            {
                let pool = BufferPoolCollector::new(1 << 16, 4);
                let table = HashTableCollector::new(64, None);
                for (k, v) in &emits {
                    pool.emit(k, v);
                    table.emit(k, v);
                }
                prop_assert_eq!(collect_all(&pool), collect_all(&table));
                prop_assert_eq!(pool.records(), emits.len());
                prop_assert_eq!(table.records(), emits.len());
            }

            /// Partitioned reads are a partition: disjoint and complete,
            /// for any number of parts.
            #[test]
            fn partitioned_reads_partition(
                n_emits in 0usize..300,
                parts in 1usize..10)
            {
                let pool = BufferPoolCollector::new(1 << 14, 3);
                let table = HashTableCollector::new(16, None);
                for i in 0..n_emits {
                    let k = format!("k{i}");
                    pool.emit(k.as_bytes(), b"v");
                    table.emit(k.as_bytes(), b"v");
                }
                prop_assert_eq!(collect_parts(&pool, parts).len(), n_emits);
                prop_assert_eq!(collect_parts(&table, parts).len(), n_emits);
            }
        }
    }

    #[test]
    fn hash_table_reset_recycles() {
        let mut c = HashTableCollector::new(8, None);
        c.emit(b"x", b"1");
        c.reset();
        assert_eq!(c.records(), 0);
        assert!(collect_all(&c).is_empty());
    }
}
