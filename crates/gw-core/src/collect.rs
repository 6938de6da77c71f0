//! Kernel output collection mechanisms (paper §III-F).
//!
//! "Glasswing implements two mechanisms for collecting and storing such
//! output. The first mechanism uses a shared buffer pool to store all
//! output data. The second mechanism provides a hash table implementation
//! to store the key/value pairs. Glasswing provides support for an
//! application-specific combiner stage ... only for the second mechanism."
//!
//! On a GPU both mechanisms share device-global memory and every emit
//! competes for it. On a host device that sharing buys nothing: the pool
//! runs a work-group's items back to back on one thread, so everything a
//! group emits can go to memory no other group touches. Both collectors
//! are built on that. `emit` asks the device which work-group the calling
//! thread is executing ([`gw_device::current_group_id`], 0 outside a
//! launch — the `Collector` trait carries no group argument) and writes to
//! that group's own storage:
//!
//! * [`BufferPoolCollector`] — one growable byte arena per shard, the
//!   shard picked by work-group, records appended encoded. The paper's
//!   "each thread allocates space via a single atomic operation" becomes
//!   one uncontended lock per work item. Fast emits, but every occurrence
//!   is stored, so downstream partitioning must decode every record
//!   individually (Table II config (iii): dominant partitioning stage).
//!   Shards drain in index order, so with at least as many shards as
//!   work-groups the record order is a function of the NDRange.
//! * [`HashTableCollector`] — one private open-addressing table per
//!   work-group, keys and values in one arena, combining in place. An emit
//!   takes no lock and no atomic another group takes and, once the first
//!   chunk has sized the arenas, allocates nothing. Tables are read one
//!   after the other in group order, each in insertion order. With a
//!   combiner the first read after a launch (`for_each_part` or `records`)
//!   first folds groups `1..G` into group 0's table, in that same order,
//!   so a chunk still yields one record per distinct key. Either way what
//!   the collector hands out, *and in which order*, depends on the chunk
//!   and the NDRange only, never on which thread ran which group when
//!   (Table II configs (i)/(ii)). In the map pipeline that first read is
//!   the Partition stage's.
//!
//! The paper's "threads must loop multiple times before they allocate
//! space" has no analogue left here: that cost belongs to a device whose
//! threads share one table.

use std::ops::Range;
use std::sync::{Arc, OnceLock};

use parking_lot::{Mutex, RwLock};

use gw_device::current_group_id;
use gw_storage::varint::RecRef;

use crate::api::Combiner;
use crate::hash::hash_bytes;

/// Which collection mechanism a job uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CollectorKind {
    /// Shared buffer pool (simple output collection).
    BufferPool,
    /// Per-work-group hash tables (enables the combiner).
    HashTable,
}

/// Where one work item's emits go: `sink(key, value)` stores one pair.
pub type Sink<'a> = dyn FnMut(&[u8], &[u8]) + 'a;

/// A kernel-output collector. `emit` and `work_item` are called
/// concurrently from work items; `for_each_part` and `reset` are called by
/// the pipeline after the kernel completes (no concurrent emits).
pub trait Collector: Send + Sync {
    /// Store one key/value pair.
    fn emit(&self, key: &[u8], value: &[u8]);

    /// Run `f`, one work item's body, with the sink for everything it
    /// emits, so that a collector can find the caller's storage once per
    /// work item instead of once per record. `f` must emit through the
    /// sink only: a collector may hold a lock while it runs.
    fn work_item(&self, f: &mut dyn FnMut(&mut Sink<'_>)) {
        f(&mut |key, value| self.emit(key, value));
    }

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

/// One work-group's records (several groups', when the launch has more
/// groups than the pool has shards), encoded back to back as
/// `varint(klen) varint(vlen) key value` in emission order. Aligned so
/// that two shards never share a cache line. In a launch only the group's
/// thread takes the lock; it is there for emits that are not in one.
#[repr(align(128))]
struct Shard(Mutex<ShardBuf>);

struct ShardBuf {
    bytes: Vec<u8>,
    records: usize,
}

/// The shared-buffer-pool collector: every record appended, as emitted, to
/// the emitting work-group's shard.
pub struct BufferPoolCollector {
    shards: Vec<Shard>,
}

impl BufferPoolCollector {
    /// Create `shards` shards that reserve `capacity` bytes between them;
    /// a shard that fills up grows.
    pub fn new(capacity: usize, shards: usize) -> Self {
        let shards = shards.max(1);
        let shard = || {
            Shard(Mutex::new(ShardBuf {
                bytes: Vec::with_capacity(capacity / shards),
                records: 0,
            }))
        };
        BufferPoolCollector {
            shards: (0..shards).map(|_| shard()).collect(),
        }
    }

    fn sum(&self, of: impl Fn(&ShardBuf) -> usize) -> usize {
        self.shards.iter().map(|shard| of(&shard.0.lock())).sum()
    }
}

impl Collector for BufferPoolCollector {
    fn emit(&self, key: &[u8], value: &[u8]) {
        self.work_item(&mut |sink| sink(key, value));
    }

    /// The calling thread's work-group's shard is looked up and locked
    /// once; the lock is released when `f` returns or unwinds.
    fn work_item(&self, f: &mut dyn FnMut(&mut Sink<'_>)) {
        let mut shard = self.shards[current_group_id() % self.shards.len()].0.lock();
        f(&mut |key, value| {
            RecRef::write(&mut shard.bytes, key, value);
            shard.records += 1;
        });
    }

    fn for_each_part(&self, part: usize, parts: usize, f: &mut dyn FnMut(&[u8], &[u8])) {
        for shard in self.shards.iter().skip(part).step_by(parts) {
            let shard = shard.0.lock();
            let mut rest = shard.bytes.as_slice();
            while !rest.is_empty() {
                let rec = RecRef::decode(rest, 0).expect("corrupt arena record");
                f(rec.key(rest), rec.value(rest));
                rest = &rest[rec.end()..];
            }
        }
    }

    fn reset(&mut self) {
        for shard in &mut self.shards {
            let shard = shard.0.get_mut();
            shard.bytes.clear();
            shard.records = 0;
        }
    }

    fn records(&self) -> usize {
        self.sum(|shard| shard.records)
    }

    fn bytes(&self) -> usize {
        self.sum(|shard| shard.bytes.len())
    }
}

// ---------------------------------------------------------------------------
// Hash table
// ---------------------------------------------------------------------------

/// "No node" in a value chain.
const NIL: u32 = u32::MAX;

/// A value node's header in the arena: `next: u32`, `len: u32`, both LE.
const NODE_HEADER: usize = 8;

/// An arena offset or length. Tables index their arena with `u32`s, like
/// [`RecRef`]: the entries of one chunk are walked and re-hashed far more
/// often than a work-group emits 4 GiB.
#[inline]
fn span(n: usize) -> u32 {
    u32::try_from(n).expect("a work-group's collector table exceeds the 4 GiB index limit")
}

/// One distinct key of a [`GroupTable`].
#[derive(Clone, Copy)]
struct Entry {
    /// The key's hash, kept for growing the index and for the fold.
    hash: u64,
    key_off: u32,
    key_len: u32,
    /// Arena offsets of the key's first and last value node. With a
    /// combiner there is exactly one node, the accumulator.
    head: u32,
    tail: u32,
}

/// One work-group's table: an open-addressing index over entry ids, the
/// entries in insertion order, and one arena holding every key and every
/// value node (`next len value`, chained per key). Nothing here is
/// allocated per key, and `clear` keeps every capacity.
struct GroupTable {
    combiner: Option<Arc<dyn Combiner>>,
    /// Slots the index opens with (`JobConfig::hash_buckets`).
    opening_slots: usize,
    /// `tag << 32 | entry id + 1`; 0 is an empty slot. The length is a
    /// power of two at least twice `entries.len()`.
    index: Vec<u64>,
    entries: Vec<Entry>,
    arena: Vec<u8>,
    /// The accumulator's stand-in while [`Combiner::combine`], which wants
    /// a `Vec`, works on it.
    scratch: Vec<u8>,
    emits: usize,
    records: usize,
    bytes: usize,
}

impl GroupTable {
    fn new(opening_slots: usize, combiner: Option<Arc<dyn Combiner>>) -> Self {
        GroupTable {
            combiner,
            opening_slots,
            index: Vec::new(),
            entries: Vec::new(),
            arena: Vec::new(),
            scratch: Vec::new(),
            emits: 0,
            records: 0,
            bytes: 0,
        }
    }

    fn clear(&mut self) {
        if !self.entries.is_empty() {
            self.index.fill(0);
        }
        self.entries.clear();
        self.arena.clear();
        self.emits = 0;
        self.records = 0;
        self.bytes = 0;
    }

    fn emit(&mut self, hash: u64, key: &[u8], value: &[u8]) {
        self.emits += 1;
        let id = self.entry(hash, key);
        self.put(id, key, value);
    }

    fn key(&self, e: &Entry) -> &[u8] {
        &self.arena[e.key_off as usize..][..e.key_len as usize]
    }

    /// Where the value of the node at arena offset `at` lies.
    fn value_range(&self, at: u32) -> Range<usize> {
        let len = &self.arena[at as usize + 4..at as usize + NODE_HEADER];
        let start = at as usize + NODE_HEADER;
        start..start + u32::from_le_bytes(len.try_into().expect("4 bytes")) as usize
    }

    /// The node at arena offset `at`: its successor and its value.
    fn node(&self, at: u32) -> (u32, &[u8]) {
        let next = &self.arena[at as usize..at as usize + 4];
        (
            u32::from_le_bytes(next.try_into().expect("4 bytes")),
            &self.arena[self.value_range(at)],
        )
    }

    /// The values chained under `e`, in emission order.
    fn values<'a>(&'a self, e: &Entry) -> impl Iterator<Item = &'a [u8]> {
        let mut at = e.head;
        std::iter::from_fn(move || {
            (at != NIL).then(|| {
                let (next, value) = self.node(at);
                at = next;
                value
            })
        })
    }

    /// Append an unchained node holding `value`; returns its offset.
    fn push_node(&mut self, value: &[u8]) -> u32 {
        let at = span(self.arena.len());
        let len = span(value.len());
        self.arena.extend_from_slice(&NIL.to_le_bytes());
        self.arena.extend_from_slice(&len.to_le_bytes());
        self.arena.extend_from_slice(value);
        at
    }

    /// Where `hash` starts probing: its top bits (FxHash mixes its low
    /// bits poorly).
    fn home(&self, hash: u64) -> usize {
        (hash >> (u64::BITS - self.index.len().trailing_zeros())) as usize
    }

    /// Double the index (or open it) and re-seat every entry from its
    /// stored hash.
    fn grow(&mut self) {
        let slots = (self.index.len() * 2)
            .max(self.opening_slots.next_power_of_two())
            .max(16);
        self.index.clear();
        self.index.resize(slots, 0);
        for (id, e) in self.entries.iter().enumerate() {
            let mut i = self.home(e.hash);
            while self.index[i] != 0 {
                i = (i + 1) & (slots - 1);
            }
            self.index[i] = (e.hash & 0xffff_ffff) << 32 | (id as u64 + 1);
        }
    }

    /// The id of the entry for `key`, appended with no value yet if the
    /// table has not seen the key.
    fn entry(&mut self, hash: u64, key: &[u8]) -> usize {
        if (self.entries.len() + 1) * 2 > self.index.len() {
            self.grow();
        }
        let mask = self.index.len() - 1;
        let tag = hash & 0xffff_ffff;
        let mut i = self.home(hash);
        loop {
            let slot = self.index[i];
            if slot == 0 {
                break;
            }
            if slot >> 32 == tag {
                let id = (slot & 0xffff_ffff) as usize - 1;
                let e = &self.entries[id];
                if e.hash == hash && self.key(e) == key {
                    return id;
                }
            }
            i = (i + 1) & mask;
        }
        let id = self.entries.len();
        self.index[i] = tag << 32 | u64::from(span(id + 1));
        self.entries.push(Entry {
            hash,
            key_off: span(self.arena.len()),
            key_len: span(key.len()),
            head: NIL,
            tail: NIL,
        });
        self.arena.extend_from_slice(key);
        id
    }

    /// Give entry `id` (whose key is `key`) one more value: its first,
    /// else combined into the accumulator, else chained behind the others.
    fn put(&mut self, id: usize, key: &[u8], value: &[u8]) {
        let Entry { head, tail, .. } = self.entries[id];
        if head == NIL {
            let node = self.push_node(value);
            (self.entries[id].head, self.entries[id].tail) = (node, node);
            self.records += 1;
            self.bytes += key.len() + value.len() + 2;
        } else if let Some(combiner) = &self.combiner {
            let acc = self.value_range(head);
            let mut scratch = std::mem::take(&mut self.scratch);
            scratch.clear();
            scratch.extend_from_slice(&self.arena[acc.clone()]);
            combiner.combine(key, &mut scratch, value);
            if scratch.len() == acc.len() {
                self.arena[acc].copy_from_slice(&scratch);
            } else {
                // The accumulator changed size: it moves to the arena's
                // end, and the old bytes lie unreferenced until `clear`.
                let node = self.push_node(&scratch);
                (self.entries[id].head, self.entries[id].tail) = (node, node);
                self.bytes = self.bytes + scratch.len() - acc.len();
            }
            self.scratch = scratch;
        } else {
            let node = self.push_node(value);
            self.arena[tail as usize..][..4].copy_from_slice(&node.to_le_bytes());
            self.entries[id].tail = node;
            self.records += 1;
            self.bytes += value.len() + 1;
        }
    }

    /// Fold `other` in: every key of `other` in its insertion order, every
    /// value of a key in its emission order, each key looked up once by
    /// the hash `other` already computed.
    fn absorb(&mut self, other: &GroupTable) {
        for e in &other.entries {
            let key = other.key(e);
            let id = self.entry(e.hash, key);
            for value in other.values(e) {
                self.put(id, key, value);
            }
        }
        self.emits += other.emits;
    }

    /// Visit the records of `entries`, a range of entry ids.
    fn for_each(&self, entries: Range<usize>, f: &mut dyn FnMut(&[u8], &[u8])) {
        for e in &self.entries[entries] {
            let key = self.key(e);
            for value in self.values(e) {
                f(key, value);
            }
        }
    }
}

/// One `T` per work-group, made on first touch without a lock: segment
/// `s` holds the `2^s` groups from `2^s - 1` on, so finding a group's `T`
/// is one `OnceLock` load and a `T` never moves.
struct PerGroup<T> {
    segments: [OnceLock<Box<[T]>>; usize::BITS as usize],
}

impl<T> PerGroup<T> {
    fn new() -> Self {
        PerGroup {
            segments: std::array::from_fn(|_| OnceLock::new()),
        }
    }

    /// `group`'s `T`, after `make`-ing its whole segment if this is the
    /// segment's first touch.
    fn get(&self, group: usize, make: impl Fn() -> T) -> &T {
        let n = group.saturating_add(1);
        let segment = n.ilog2();
        let slots = self.segments[segment as usize]
            .get_or_init(|| (0..1usize << segment).map(|_| make()).collect());
        &slots[n - (1 << segment)]
    }

    /// Every `T` made so far, in group order.
    fn iter(&self) -> impl Iterator<Item = &T> {
        self.segments
            .iter()
            .filter_map(OnceLock::get)
            .flat_map(|slots| slots.iter())
    }

    fn iter_mut(&mut self) -> impl Iterator<Item = &mut T> {
        self.segments
            .iter_mut()
            .filter_map(OnceLock::get_mut)
            .flat_map(|slots| slots.iter_mut())
    }
}

/// A work-group's table behind its own lock, aligned so that two groups
/// never share a cache line. In a launch only the group's thread takes
/// the lock; it is there for emits that are not in one (group 0, from any
/// thread) and for the fold.
#[repr(align(128))]
struct GroupSlot(RwLock<GroupTable>);

/// The hash-table collector with optional in-kernel combiner: one table
/// per work-group, read one after the other in group order — after the
/// first read has folded them into group 0's, when there is a combiner.
pub struct HashTableCollector {
    combiner: Option<Arc<dyn Combiner>>,
    buckets: usize,
    groups: PerGroup<GroupSlot>,
    /// Held while folding, so that concurrent first reads fold once.
    folding: Mutex<()>,
}

impl HashTableCollector {
    /// Create tables whose index opens with `buckets` slots; `combiner`
    /// enables combining mode.
    pub fn new(buckets: usize, combiner: Option<Arc<dyn Combiner>>) -> Self {
        HashTableCollector {
            combiner,
            buckets,
            groups: PerGroup::new(),
            folding: Mutex::new(()),
        }
    }

    /// Total emit calls (pre-combining).
    pub fn emits(&self) -> usize {
        self.sum(|table| table.emits)
    }

    fn table(&self, group: usize) -> &RwLock<GroupTable> {
        let make = || {
            GroupSlot(RwLock::new(GroupTable::new(
                self.buckets,
                self.combiner.clone(),
            )))
        };
        &self.groups.get(group, make).0
    }

    fn sum(&self, of: impl Fn(&GroupTable) -> usize) -> usize {
        self.groups.iter().map(|slot| of(&slot.0.read())).sum()
    }

    /// With a combiner, a key must leave the chunk as one record: move
    /// every other group that has entries into group 0's table — in group
    /// order, so the result does not depend on which thread ran which
    /// group — leaving those groups empty, so a second read has nothing to
    /// fold. Without a combiner there is nothing to combine and the tables
    /// stay as they are.
    fn fold(&self) {
        if self.combiner.is_none() {
            return;
        }
        // Made here if group 0 never emitted, so that it is the first slot
        // `iter` yields.
        let root = self.table(0);
        let _folding = self.folding.lock();
        let mut into = None;
        for slot in self.groups.iter().skip(1) {
            let mut table = slot.0.write();
            if !table.entries.is_empty() {
                into.get_or_insert_with(|| root.write()).absorb(&table);
                table.clear();
            }
        }
    }
}

impl Collector for HashTableCollector {
    fn emit(&self, key: &[u8], value: &[u8]) {
        self.work_item(&mut |sink| sink(key, value));
    }

    /// The calling thread's work-group is looked up, and its table locked,
    /// once; the lock is released when `f` returns or unwinds.
    fn work_item(&self, f: &mut dyn FnMut(&mut Sink<'_>)) {
        let mut table = self.table(current_group_id()).write();
        f(&mut |key, value| table.emit(hash_bytes(key), key, value));
    }

    /// The entries of all tables, in group order and insertion order, cut
    /// into `parts` contiguous pieces.
    fn for_each_part(&self, part: usize, parts: usize, f: &mut dyn FnMut(&[u8], &[u8])) {
        self.fold();
        let entries = self.sum(|table| table.entries.len());
        let mut skip = entries * part / parts;
        let mut take = entries * (part + 1) / parts - skip;
        for slot in self.groups.iter() {
            let table = slot.0.read();
            let from = skip.min(table.entries.len());
            let to = (from + take).min(table.entries.len());
            table.for_each(from..to, f);
            skip -= from;
            take -= to - from;
        }
    }

    fn reset(&mut self) {
        for slot in self.groups.iter_mut() {
            slot.0.get_mut().clear();
        }
    }

    fn records(&self) -> usize {
        self.fold();
        self.sum(|table| table.records)
    }

    /// What the tables hold as they stand, without folding them: a
    /// Retrieve stage asks before the first read, and what would cross the
    /// link then is every group's table.
    fn bytes(&self) -> usize {
        self.sum(|table| table.bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The records in the order the collector hands them out.
    fn sequence(c: &dyn Collector) -> Vec<(Vec<u8>, Vec<u8>)> {
        let mut out = Vec::new();
        for_each_record(c, &mut |k, v| out.push((k.to_vec(), v.to_vec())));
        out
    }

    fn collect_all(c: &dyn Collector) -> Vec<(Vec<u8>, Vec<u8>)> {
        let mut out = sequence(c);
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

    // --- work-group-local collection: order, fold, recycling ---

    use gw_device::{KernelFn, NdRange, WorkItemCtx, WorkerPool};

    /// A `CentroidCombiner`-style sum: `f32` addition does not associate,
    /// so the accumulator's bits record the order values were combined in.
    struct F32SumCombiner;
    impl Combiner for F32SumCombiner {
        fn combine(&self, _key: &[u8], acc: &mut Vec<u8>, value: &[u8]) {
            let a = f32::from_le_bytes(acc.as_slice().try_into().unwrap());
            let b = f32::from_le_bytes(value.try_into().unwrap());
            acc.copy_from_slice(&(a + b).to_le_bytes());
        }
    }

    /// Emit `chunk` from a kernel launch, records split evenly over the
    /// work items the way the map kernel splits a block.
    fn launch(pool: &WorkerPool, range: NdRange, c: &dyn Collector, chunk: &[(Vec<u8>, Vec<u8>)]) {
        let kernel = KernelFn(|ctx: &WorkItemCtx| {
            let (lo, hi) = ctx.my_items(chunk.len());
            for (k, v) in &chunk[lo..hi] {
                c.emit(k, v);
            }
        });
        pool.run(range, &kernel);
    }

    /// [`launch`], each work item emitting through its own sink, the way
    /// the map kernel does.
    fn launch_work_items(
        pool: &WorkerPool,
        range: NdRange,
        c: &dyn Collector,
        chunk: &[(Vec<u8>, Vec<u8>)],
    ) {
        let kernel = KernelFn(|ctx: &WorkItemCtx| {
            let (lo, hi) = ctx.my_items(chunk.len());
            c.work_item(&mut |sink| {
                for (k, v) in &chunk[lo..hi] {
                    sink(k, v);
                }
            });
        });
        pool.run(range, &kernel);
    }

    /// 3000 emits over 49 keys (the values `i² + 7i` takes mod 97), so every
    /// work-group meets most keys and the fold has real merging to do;
    /// `value(i)` encodes the `i`-th value.
    fn chunk_of(value: impl Fn(usize) -> Vec<u8>) -> Vec<(Vec<u8>, Vec<u8>)> {
        (0..3000usize)
            .map(|i| {
                (
                    format!("key{}", (i * i + 7 * i) % 97).into_bytes(),
                    value(i),
                )
            })
            .collect()
    }

    /// `chunk` emitted through pools of 0, 1 and 3 background threads,
    /// record by record or a work item at a time, drains in one and the
    /// same order and counts the same.
    fn assert_same_sequence_on_every_pool(
        name: &str,
        chunk: &[(Vec<u8>, Vec<u8>)],
        make: impl Fn() -> Box<dyn Collector>,
    ) {
        let range = NdRange::new(64, 16).unwrap();
        let drained = |threads: usize, launch: &dyn Fn(&WorkerPool, &dyn Collector)| {
            let c = make();
            launch(&WorkerPool::new(threads), c.as_ref());
            (c.bytes(), c.records(), sequence(c.as_ref()))
        };
        let alone = drained(0, &|pool, c| launch(pool, range, c, chunk));
        assert!(!alone.2.is_empty());
        for threads in [0, 1, 3] {
            let per_record = drained(threads, &|pool, c| launch(pool, range, c, chunk));
            let per_item = drained(threads, &|pool, c| launch_work_items(pool, range, c, chunk));
            assert!(alone == per_record, "{name}: emit, {threads} threads");
            assert!(alone == per_item, "{name}: work_item, {threads} threads");
        }
    }

    #[test]
    fn record_sequence_is_a_function_of_the_ndrange_not_of_the_schedule() {
        let counts = chunk_of(|i| (i as u64).to_le_bytes().to_vec());
        // Magnitudes spread over 40 binades: reordering the sum moves bits.
        let floats = chunk_of(|i| (1.1f32.powi(i as i32 % 300) * 0.37).to_le_bytes().to_vec());
        assert_same_sequence_on_every_pool("u64 sum", &counts, || {
            Box::new(HashTableCollector::new(64, Some(Arc::new(SumCombiner))))
        });
        assert_same_sequence_on_every_pool("f32 sum", &floats, || {
            Box::new(HashTableCollector::new(64, Some(Arc::new(F32SumCombiner))))
        });
        assert_same_sequence_on_every_pool("no combiner", &counts, || {
            Box::new(HashTableCollector::new(64, None))
        });
        assert_same_sequence_on_every_pool("buffer pool", &counts, || {
            Box::new(BufferPoolCollector::new(1 << 20, 4))
        });
    }

    #[test]
    fn buffer_pool_keeps_records_past_its_reservation_per_group_in_emission_order() {
        // Four shards reserving 64 bytes each take some 12 KiB apiece.
        let c = BufferPoolCollector::new(256, 4);
        let chunk = chunk_of(|i| (i as u64).to_le_bytes().to_vec());
        let range = NdRange::new(64, 16).unwrap();
        launch_work_items(&WorkerPool::new(2), range, &c, &chunk);
        assert_eq!(c.records(), 3000);
        // A group's items run in item order over ascending slices of the
        // chunk, and the four groups drain in group order.
        assert_eq!(sequence(&c), chunk);
    }

    #[test]
    fn an_emit_from_outside_waits_for_group_0s_open_work_item() {
        use std::sync::mpsc::{channel, RecvTimeoutError};
        use std::time::Duration;

        let c = HashTableCollector::new(16, None);
        let (open_tx, open_rx) = channel();
        let (landed_tx, landed_rx) = channel();
        std::thread::scope(|s| {
            // Outside a launch every thread is group 0.
            let c = &c;
            s.spawn(move || {
                open_rx.recv().unwrap();
                c.emit(b"outside", b"3");
                landed_tx.send(()).unwrap();
            });
            c.work_item(&mut |sink| {
                sink(b"item", b"1");
                open_tx.send(()).unwrap();
                // The other thread is now at its `emit`, or soon will be;
                // either way it cannot get past it while this sink is open.
                assert_eq!(
                    landed_rx.recv_timeout(Duration::from_millis(100)),
                    Err(RecvTimeoutError::Timeout),
                    "the emit landed inside another thread's open work item"
                );
                sink(b"item", b"2");
            });
            landed_rx.recv().unwrap();
        });
        assert_eq!(c.emits(), 3);
        assert_eq!(
            sequence(&c),
            vec![
                (b"item".to_vec(), b"1".to_vec()),
                (b"item".to_vec(), b"2".to_vec()),
                (b"outside".to_vec(), b"3".to_vec()),
            ]
        );
    }

    #[test]
    fn a_work_item_that_panics_releases_its_table() {
        let collectors: [Box<dyn Collector>; 2] = [
            Box::new(HashTableCollector::new(16, None)),
            Box::new(BufferPoolCollector::new(4096, 2)),
        ];
        for mut c in collectors {
            let kernel = KernelFn(|_: &WorkItemCtx| {
                c.work_item(&mut |sink| {
                    sink(b"partial", b"1");
                    panic!("injected task failure");
                });
            });
            let pool = WorkerPool::new(1);
            let range = NdRange::new(4, 2).unwrap();
            let launch = std::panic::AssertUnwindSafe(|| pool.run(range, &kernel));
            assert!(std::panic::catch_unwind(launch).is_err());
            // What the retry path does next: discard, then emit again.
            c.reset();
            c.emit(b"retry", b"2");
            assert_eq!(c.records(), 1);
            assert_eq!(
                sequence(c.as_ref()),
                vec![(b"retry".to_vec(), b"2".to_vec())]
            );
        }
    }

    #[test]
    fn work_items_count_emits_like_emit() {
        let pool = WorkerPool::new(2);
        let range = NdRange::new(64, 16).unwrap();
        let chunk = chunk_of(|i| (i as u64).to_le_bytes().to_vec());
        for combiner in [Some(Arc::new(SumCombiner) as Arc<dyn Combiner>), None] {
            let per_record = HashTableCollector::new(64, combiner.clone());
            launch(&pool, range, &per_record, &chunk);
            let per_item = HashTableCollector::new(64, combiner);
            launch_work_items(&pool, range, &per_item, &chunk);
            assert_eq!(per_item.emits(), 3000);
            assert_eq!(per_item.emits(), per_record.emits());
            assert_eq!(per_item.bytes(), per_record.bytes());
            assert_eq!(per_item.records(), per_record.records());
            assert_eq!(per_item.bytes(), per_record.bytes(), "after the fold");
        }
        let per_record = BufferPoolCollector::new(1 << 20, 4);
        launch(&pool, range, &per_record, &chunk);
        let per_item = BufferPoolCollector::new(1 << 20, 4);
        launch_work_items(&pool, range, &per_item, &chunk);
        assert_eq!(per_item.records(), 3000);
        assert_eq!(per_item.records(), per_record.records());
        assert_eq!(per_item.bytes(), per_record.bytes());
    }

    #[test]
    fn reading_twice_folds_once() {
        let c = HashTableCollector::new(64, Some(Arc::new(SumCombiner)));
        let chunk = chunk_of(|_| 1u64.to_le_bytes().to_vec());
        launch(
            &WorkerPool::new(1),
            NdRange::new(64, 16).unwrap(),
            &c,
            &chunk,
        );
        let filled = |c: &HashTableCollector| {
            let filled = |slot: &GroupSlot| !slot.0.read().entries.is_empty();
            c.groups.iter().filter(|slot| filled(slot)).count()
        };
        assert_eq!(
            filled(&c),
            4,
            "one table per work-group before the first read"
        );
        assert_eq!(c.records(), 49);
        assert_eq!(filled(&c), 1, "the first read leaves everything in group 0");
        let first = sequence(&c);
        assert_eq!(first, sequence(&c));
        assert_eq!(c.emits(), 3000);
        let total: u64 = first
            .iter()
            .map(|(_, v)| u64::from_le_bytes(v.as_slice().try_into().unwrap()))
            .sum();
        assert_eq!(total, 3000, "the fold combined, it did not overwrite");
    }

    #[test]
    fn groups_fold_into_group_0_even_if_it_emitted_nothing() {
        let c = HashTableCollector::new(16, Some(Arc::new(SumCombiner)));
        let kernel = KernelFn(|ctx: &WorkItemCtx| {
            if ctx.group_id() > 0 {
                c.emit(b"k", &1u64.to_le_bytes());
            }
        });
        WorkerPool::new(1).run(NdRange::new(8, 2).unwrap(), &kernel);
        assert_eq!(c.records(), 1);
        assert_eq!(
            sequence(&c),
            vec![(b"k".to_vec(), 6u64.to_le_bytes().to_vec())]
        );
    }

    #[test]
    fn reset_and_refill_grows_no_capacity_after_the_first_chunk() {
        let capacities = |c: &HashTableCollector| -> Vec<[usize; 4]> {
            c.groups
                .iter()
                .map(|slot| {
                    let t = slot.0.read();
                    [
                        t.index.capacity(),
                        t.entries.capacity(),
                        t.arena.capacity(),
                        t.scratch.capacity(),
                    ]
                })
                .collect()
        };
        let pool = WorkerPool::new(1);
        let range = NdRange::new(64, 16).unwrap();
        let chunk = chunk_of(|i| (i as u64).to_le_bytes().to_vec());
        for combiner in [Some(Arc::new(SumCombiner) as Arc<dyn Combiner>), None] {
            let mut c = HashTableCollector::new(16, combiner);
            launch(&pool, range, &c, &chunk);
            let records = c.records();
            let after_first = capacities(&c);
            for _ in 0..3 {
                c.reset();
                assert_eq!(c.records(), 0);
                launch(&pool, range, &c, &chunk);
                assert_eq!(c.records(), records);
                assert_eq!(capacities(&c), after_first);
            }
        }
    }

    #[test]
    fn a_resized_accumulator_moves_and_survives_the_fold() {
        /// Appends instead of summing, so every combine grows the accumulator.
        struct Concat;
        impl Combiner for Concat {
            fn combine(&self, _key: &[u8], acc: &mut Vec<u8>, value: &[u8]) {
                acc.extend_from_slice(value);
            }
        }
        let c = HashTableCollector::new(16, Some(Arc::new(Concat)));
        let chunk: Vec<_> = (0..64u8).map(|i| (vec![b'k', i % 3], vec![i])).collect();
        // One item per group: the fold order is the emit order.
        launch(
            &WorkerPool::new(2),
            NdRange::new(64, 1).unwrap(),
            &c,
            &chunk,
        );
        assert_eq!(c.records(), 3);
        for (key, acc) in sequence(&c) {
            let expect: Vec<u8> = (0..64u8).filter(|i| i % 3 == key[1]).collect();
            assert_eq!(acc, expect);
        }
        assert_eq!(
            c.bytes(),
            3 * (2 + 2) + 64,
            "keys, per-record overhead, payload"
        );
    }

    mod group_properties {
        use super::*;
        use proptest::prelude::*;
        use std::collections::BTreeMap;

        proptest! {
            /// Multi-group launches against a `BTreeMap` fold: the combined
            /// table holds each key once with the sum of its values, the
            /// plain table holds every value under its key in emission
            /// order per work item, and `for_each_part` cuts the drain
            /// sequence into contiguous pieces for every part count.
            #[test]
            fn launches_fold_to_the_reference(
                emits in proptest::collection::vec((0u8..40, 0u64..1000), 0..400),
                global in 1usize..40,
                local in 1usize..9,
                threads in 0usize..3)
            {
                let chunk: Vec<(Vec<u8>, Vec<u8>)> = emits
                    .iter()
                    .map(|(k, v)| (vec![b'k', *k], v.to_le_bytes().to_vec()))
                    .collect();
                let pool = WorkerPool::new(threads);
                let range = NdRange::new(global, local).unwrap();
                let mut sums: BTreeMap<Vec<u8>, u64> = BTreeMap::new();
                let mut lists: BTreeMap<Vec<u8>, Vec<Vec<u8>>> = BTreeMap::new();
                for ((k, v), (_, n)) in chunk.iter().zip(&emits) {
                    *sums.entry(k.clone()).or_default() += n;
                    lists.entry(k.clone()).or_default().push(v.clone());
                }

                let combined = HashTableCollector::new(4, Some(Arc::new(SumCombiner)));
                launch(&pool, range, &combined, &chunk);
                prop_assert_eq!(combined.records(), sums.len());
                prop_assert_eq!(combined.emits(), chunk.len());
                let got: BTreeMap<Vec<u8>, u64> = sequence(&combined)
                    .into_iter()
                    .map(|(k, v)| (k, u64::from_le_bytes(v.as_slice().try_into().unwrap())))
                    .collect();
                prop_assert_eq!(&got, &sums);

                let plain = HashTableCollector::new(4, None);
                launch(&pool, range, &plain, &chunk);
                prop_assert_eq!(plain.records(), chunk.len());
                let mut got: BTreeMap<Vec<u8>, Vec<Vec<u8>>> = BTreeMap::new();
                for (k, v) in sequence(&plain) {
                    got.entry(k).or_default().push(v);
                }
                // Work items own contiguous, ascending slices of the chunk
                // and groups fold in order: a key's values keep chunk order.
                prop_assert_eq!(&got, &lists);

                for c in [&combined, &plain] {
                    let whole = sequence(c);
                    for parts in 1..10 {
                        let mut pieces = Vec::new();
                        for part in 0..parts {
                            c.for_each_part(part, parts, &mut |k, v| {
                                pieces.push((k.to_vec(), v.to_vec()));
                            });
                        }
                        prop_assert_eq!(&pieces, &whole);
                    }
                }
            }
        }
    }
}
