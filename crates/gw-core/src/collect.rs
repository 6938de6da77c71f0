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
//! that group's own storage.
//!
//! Each record is also filed at emission under its *slot* ([`Slots`]):
//! its partition `p` (the application's partition function) and, when
//! the `N` partition lanes outnumber the `P` partitions, one of the
//! partition's `⌊N/P⌋` sub-slots. Each slot belongs to one lane and lanes
//! own whole partitions: with `P ≥ N`, lane `p mod N` builds partition
//! `p`'s only run of the chunk, so the runs a chunk yields — and the
//! merge work downstream — grow with `P`, not with `P × N`. A lane builds
//! the run of each of its slots ([`Collector::lane_runs`]) from that slot
//! alone: it gathers fixed-width [`SortRef`]s (an 8-byte
//! head — the key bytes after the prefix all of the slot's keys share — and
//! where the record is) from every group's slot in group order,
//! radix-sorts them on the head, and writes each record once into the run.
//! No lane waits for another and nothing is decoded twice.
//!
//! Both mechanisms file records in one *filing store*: per work-group, one
//! bucket per slot, each holding its records in emission order. Much map
//! output is input: TeraSort's identity map emits each record's own key
//! and value. So before each launch attempt the map kernel binds its
//! collector to the chunk's input block ([`Collector::bind`]), and the
//! store keeps a key or value slice that lies inside that block as a
//! `u32` span of it, not a copy: a pointer-range check against where the
//! kernel reads the block (the block itself, or its staged copy on a
//! discrete-memory device, translated back onto the block). The lanes
//! resolve spans against the same block and write records with
//! [`RecRef::write`], so run bytes do not depend on where a record was
//! kept, and `records`/`bytes` count what they count unbound.
//! [`Collector::reset`] releases the binding, so no block outlives its
//! chunk, and a retried attempt binds again. A keyed table binds nothing:
//! its accumulators and value chains are its own bytes.
//!
//! * [`BufferPoolCollector`] — the store, every record filed under the
//!   emitting group's sub-slot. The paper's "each thread allocates space
//!   via a single atomic operation" becomes one uncontended lock per work
//!   item. Fast emits, but every occurrence is stored and sorted (Table II
//!   config (iii): dominant partitioning stage).
//! * [`HashTableCollector`] — one private table per work-group, keyed: an
//!   open-addressing index, keys and value nodes in one arena. A key's slot
//!   is computed once per group, when the key is first inserted, its
//!   sub-slot from bits of the key's hash. With a combiner a key's one node
//!   is its accumulator, combined in place; without one (Table II config
//!   (ii)) the node chain keeps every value, so a group stores a repeated
//!   key once. An emit takes no lock and no atomic another group takes
//!   and, once a chunk has sized the arenas, allocates nothing. The lane
//!   combines a key held by several groups in group order — group 0's
//!   accumulator, then groups `1..G` — so a chunk still yields one record
//!   per distinct key. A table without a combiner whose keys do not repeat
//!   (TeraSort's) has nothing to compact: once the lanes have read a chunk
//!   in which no group held a key twice, the collector files every record
//!   in the store instead, with no probe, under the same key-hash
//!   sub-slot, for the rest of its life; the runs are the same bytes.
//!
//! Either way what the lanes build, *and the bits of every accumulator*,
//! depend on the chunk, the NDRange and the slots only, never on which
//! thread ran which group when (Table II configs (i)/(ii)). The paper's
//! "threads must loop multiple times before they allocate space" has no
//! analogue left here: that cost belongs to a device whose threads share
//! one table.

use std::cmp::Ordering;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering as AtomicOrdering};
use std::sync::{Arc, OnceLock};

use parking_lot::RwLock;

use gw_device::current_group_id;
use gw_intermediate::{key_head, shared_prefix, Run, SortBuf, SortRef};
use gw_storage::varint::{size_u64, RecRef};

use crate::api::Combiner;
use crate::hash::{bucket_of, hash_bytes};

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

/// A key's partition.
type PartitionFn = dyn Fn(&[u8]) -> u32 + Send + Sync;

/// Where a collector files each record: one of `P = partitions`
/// partitions, by the application's partition function, and one of its
/// `s = max(1, ⌊N/P⌋)` sub-slots, `N = lanes` being the partition lanes.
/// Slot `p·s + j` is sub-slot `j` of partition `p` and belongs to lane
/// `(p·s + j) mod N`. Lanes own whole partitions: with `P ≥ N` a partition
/// is one slot, lane `p mod N`'s, and only lanes beyond `P` split one.
#[derive(Clone)]
pub struct Slots {
    partition: Arc<PartitionFn>,
    partitions: u32,
    lanes: usize,
    /// Sub-slots per partition, `s`.
    split: usize,
}

impl Slots {
    /// `partitions` partitions, `partition(key)` picking a key's, over
    /// `lanes` partition lanes.
    pub fn new(
        partitions: u32,
        lanes: usize,
        partition: impl Fn(&[u8]) -> u32 + Send + Sync + 'static,
    ) -> Self {
        assert!(
            partitions > 0 && lanes > 0,
            "slots need a partition and a lane"
        );
        Slots {
            partition: Arc::new(partition),
            partitions,
            lanes,
            split: (lanes / partitions as usize).max(1),
        }
    }

    /// One partition and one lane: every record in one slot.
    pub fn single() -> Self {
        Slots::new(1, 1, |_| 0)
    }

    /// Partition lanes.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    fn len(&self) -> usize {
        self.partitions as usize * self.split
    }

    /// The partition `key` belongs to.
    #[inline]
    fn partition_of(&self, key: &[u8]) -> usize {
        if self.partitions == 1 {
            return 0;
        }
        let p = (self.partition)(key);
        assert!(
            p < self.partitions,
            "partition {p} out of range for {} partitions",
            self.partitions
        );
        p as usize
    }

    /// The buffer pool's slot of `key`, emitted by work-group `group`: the
    /// sub-slot is `group mod s`. The pool stores every occurrence and
    /// combines nothing, so it may split a key's records; splitting by
    /// group keeps a partition's lanes balanced even when one key (a Zipf
    /// corpus's top word) is most of it.
    #[inline]
    fn slot_of_group(&self, key: &[u8], group: usize) -> usize {
        match self.split {
            1 => self.partition_of(key),
            split => self.partition_of(key) * split + group % split,
        }
    }

    /// A hash table's slot of `key`, hashing it only if partitions have
    /// sub-slots.
    #[inline]
    fn slot_of_key(&self, key: &[u8]) -> usize {
        match self.split {
            1 => self.partition_of(key),
            _ => self.slot_of(key, hash_bytes(key)),
        }
    }

    /// A hash table's slot of `key`, whose hash is `hash`: the sub-slot
    /// reads hash bits below the top byte, which the default partitioner's
    /// multiply-shift and the table's home slot read, so sub-slots split
    /// each partition. Combining needs all of a key's records in one lane,
    /// and a filing table's runs must be the keyed tables' bytes, so that
    /// the runs of a re-executed split de-duplicate by tag.
    #[inline]
    fn slot_of(&self, key: &[u8], hash: u64) -> usize {
        self.partition_of(key) * self.split + bucket_of(hash << 8, self.split)
    }

    /// Lane `lane`'s slots, every `N`-th from `lane` on, in partition
    /// order, with their partitions.
    fn lane(&self, lane: usize) -> impl Iterator<Item = (u32, usize)> {
        let split = self.split;
        (lane..self.len())
            .step_by(self.lanes)
            .map(move |slot| ((slot / split) as u32, slot))
    }
}

/// Where a collector keeps a key or value: `len` bytes at `off` of its own
/// arena or, with [`Loc::INPUT`] set in `len`, of the input block it is
/// bound to.
#[derive(Clone, Copy)]
struct Loc {
    off: u32,
    len: u32,
}

impl Loc {
    /// `len`'s flag for a span of the bound input.
    const INPUT: u32 = 1 << 31;

    /// The bytes this names, in `arena` or `input`.
    #[inline]
    fn get<'a>(self, arena: &'a [u8], input: &'a [u8]) -> &'a [u8] {
        let (from, len) = match self.len & Loc::INPUT {
            0 => (arena, self.len),
            _ => (input, self.len & !Loc::INPUT),
        };
        &from[self.off as usize..][..len as usize]
    }
}

/// The chunk input a collector is bound to for one launch attempt.
struct Binding {
    block: Arc<[u8]>,
    /// The addresses the kernel reads the block at: the block's own, or a
    /// staged copy's, byte for byte the same.
    view: Range<usize>,
}

impl Binding {
    fn new(block: &Arc<[u8]>, view: &[u8]) -> Self {
        assert_eq!(block.len(), view.len(), "a view is the whole block");
        let view = view.as_ptr_range();
        Binding {
            block: Arc::clone(block),
            view: view.start as usize..view.end as usize,
        }
    }

    /// `bytes` as a span of the block, if they lie in the view and the
    /// span fits a [`Loc`].
    #[inline]
    fn span(&self, bytes: &[u8]) -> Option<Loc> {
        let at = (bytes.as_ptr() as usize).wrapping_sub(self.view.start);
        if at > self.view.len() || bytes.len() > self.view.len() - at {
            return None;
        }
        let len = u32::try_from(bytes.len())
            .ok()
            .filter(|&len| len < Loc::INPUT)?;
        Some(Loc {
            off: u32::try_from(at).ok()?,
            len: len | Loc::INPUT,
        })
    }
}

/// The bytes spans resolve against: the bound block, or none.
fn input_of(binding: &Option<Binding>) -> &[u8] {
    binding.as_ref().map_or(&[], |b| &b.block)
}

/// A kernel-output collector. `emit` and `work_item` are called
/// concurrently from work items; `bind` by the pipeline before a launch,
/// and `lane_runs`, `visit` and `reset` after the kernel completes (no
/// concurrent emits).
pub trait Collector: Send + Sync {
    /// Bind to the chunk input `block` for one launch attempt: `view` is
    /// where the kernel reads it, the block itself or a staged copy of
    /// it. A collector may then keep a key or value that lies in `view`
    /// as a span of `block`; [`Collector::reset`] releases the binding.
    /// Nothing may emit into a bound collector once the view's memory is
    /// reused. The default keeps nothing.
    fn bind(&mut self, _block: &Arc<[u8]>, _view: &[u8]) {}

    /// Store one key/value pair: a work item of one emit.
    fn emit(&self, key: &[u8], value: &[u8]) {
        self.work_item(&mut |sink| sink(key, value));
    }

    /// Run `f`, one work item's body, with the sink for everything it
    /// emits, so that a collector finds the caller's storage once per
    /// work item instead of once per record. `f` must emit through the
    /// sink only: a collector may hold a lock while it runs.
    fn work_item(&self, f: &mut dyn FnMut(&mut Sink<'_>));

    /// Build partition lane `lane`'s run of each of its slots ([`Slots`]),
    /// in partition order, and hand each non-empty one to `deliver` with
    /// its partition. A run is sorted by key and, without a combiner, by
    /// value; with one, each key is one record, combined across
    /// work-groups in group order. Lanes may run concurrently;
    /// `buf` is the lane's sort space.
    fn lane_runs(&self, lane: usize, buf: &mut SortBuf, deliver: &mut dyn FnMut(u32, Run));

    /// Visit every record the lanes would deliver (see [`for_each_record`]).
    fn visit(&self, f: &mut dyn FnMut(&[u8], &[u8]));

    /// Clear for reuse by the next chunk (buffer recycling).
    fn reset(&mut self);

    /// Records currently held. The hash table counts each work-group's
    /// table after its own combining: a key several groups hold counts
    /// once per group until a lane combines it.
    fn records(&self) -> usize;

    /// Approximate payload bytes currently held.
    fn bytes(&self) -> usize;
}

/// Visit every collected record. Filed records (the buffer pool's, a
/// filing hash table's) go out group by group and, within a group, slot
/// by slot in emission order — emission order, for a pool with one slot;
/// a keyed hash table hands out its lane runs, lane by lane.
pub fn for_each_record(c: &dyn Collector, f: &mut dyn FnMut(&[u8], &[u8])) {
    c.visit(f);
}

// ---------------------------------------------------------------------------
// Filing store
// ---------------------------------------------------------------------------

/// The records of one work-group filed under one slot, in emission
/// order: each record's key and value as [`Loc`]s, those that are not
/// spans of the bound input copied to `bytes`.
#[derive(Default)]
struct Bucket {
    bytes: Vec<u8>,
    held: Vec<[Loc; 2]>,
    /// The records' size encoded as a run holds them.
    encoded: usize,
}

impl Bucket {
    /// File a record: its key and its value each as a span of `input` if
    /// bound and it lies there, else copied to `bytes`.
    fn hold(&mut self, input: Option<&Binding>, key: &[u8], value: &[u8]) {
        let mut loc = |bytes: &[u8]| {
            input
                .and_then(|input| input.span(bytes))
                .unwrap_or_else(|| {
                    let off = span(self.bytes.len());
                    self.bytes.extend_from_slice(bytes);
                    let len = span(bytes.len());
                    assert!(len < Loc::INPUT, "a key or value of 2 GiB or more");
                    Loc { off, len }
                })
        };
        self.held.push([loc(key), loc(value)]);
        let (k, v) = (key.len(), value.len());
        self.encoded += size_u64(k as u64) + size_u64(v as u64) + k + v;
    }

    /// Every record, in emission order, spans resolved against `input`.
    fn records<'a>(&'a self, input: &'a [u8]) -> impl Iterator<Item = (&'a [u8], &'a [u8])> {
        let arena = self.bytes.as_slice();
        let get = move |&[key, value]: &[Loc; 2]| (key.get(arena, input), value.get(arena, input));
        self.held.iter().map(get)
    }

    fn clear(&mut self) {
        self.bytes.clear();
        self.held.clear();
        self.encoded = 0;
    }
}

/// The sorted run of every record `buckets` hold, spans resolved against
/// `input`, or `None` if they hold none. Refs name a record by its place
/// in `pairs`, where each is gathered once, bucket by bucket; heads are
/// read past the prefix every key shares. Records are written with
/// [`RecRef::write`], so the run's bytes do not depend on where a record
/// was kept.
fn filed_run<'a>(
    buckets: impl Iterator<Item = &'a Bucket> + Clone,
    input: &'a [u8],
    pairs: &mut Vec<(&'a [u8], &'a [u8])>,
    buf: &mut SortBuf,
) -> Option<Run> {
    pairs.clear();
    pairs.extend(buckets.clone().flat_map(|bucket| bucket.records(input)));
    let &(first, _) = pairs.first()?;
    let skip = pairs
        .iter()
        .fold(usize::MAX, |skip, (key, _)| shared_prefix(first, key, skip));
    buf.clear();
    buf.refs
        .extend(pairs.iter().enumerate().map(|(at, (key, _))| SortRef {
            head: key_head(&key[skip..]),
            group: 0,
            entry: span(at),
        }));
    buf.sort_by(|_, a, b| pairs[a.entry as usize].cmp(&pairs[b.entry as usize]));
    let mut run = Vec::with_capacity(buckets.map(|bucket| bucket.encoded).sum());
    for r in &buf.refs {
        let (key, value) = pairs[r.entry as usize];
        RecRef::write(&mut run, key, value);
    }
    Some(Run::from_sorted_bytes(run, pairs.len()))
}

/// One `T` per work-group behind its own lock, made on first touch
/// without a lock: segment `s` holds the `2^s` groups from `2^s - 1` on,
/// so finding a group's `T` is one `OnceLock` load and a `T` never moves.
/// In a launch only the group's thread takes the write lock; it is there
/// for emits that are not in one (group 0, from any thread). Partition
/// lanes read every group's at once.
struct PerGroup<T> {
    segments: [OnceLock<Box<[GroupSlot<T>]>>; usize::BITS as usize],
}

/// A group's `T`, aligned so that two groups never share a cache line.
#[repr(align(128))]
struct GroupSlot<T>(RwLock<T>);

impl<T> PerGroup<T> {
    fn new() -> Self {
        PerGroup {
            segments: std::array::from_fn(|_| OnceLock::new()),
        }
    }

    /// `group`'s `T`, after `make`-ing its whole segment if this is the
    /// segment's first touch.
    fn get(&self, group: usize, make: impl Fn() -> T) -> &RwLock<T> {
        let n = group.saturating_add(1);
        let segment = n.ilog2();
        let slots = self.segments[segment as usize].get_or_init(|| {
            (0..1usize << segment)
                .map(|_| GroupSlot(RwLock::new(make())))
                .collect()
        });
        &slots[n - (1 << segment)].0
    }

    /// Every `T` made so far, in group order.
    fn iter(&self) -> impl Iterator<Item = &RwLock<T>> {
        self.segments
            .iter()
            .filter_map(OnceLock::get)
            .flat_map(|slots| slots.iter().map(|slot| &slot.0))
    }

    fn iter_mut(&mut self) -> impl Iterator<Item = &mut T> {
        self.segments
            .iter_mut()
            .filter_map(OnceLock::get_mut)
            .flat_map(|slots| slots.iter_mut().map(|slot| slot.0.get_mut()))
    }
}

/// The filing store: per work-group one [`Bucket`] per slot, and the
/// input it is bound to. Its collectors differ only in the slot they file
/// a record under ([`Slots::slot_of_group`], [`Slots::slot_of_key`]).
struct Filing {
    slots: Slots,
    groups: PerGroup<Vec<Bucket>>,
    /// The arena bytes each bucket reserves when its group first files.
    reserve: usize,
    input: Option<Binding>,
}

impl Filing {
    fn new(slots: Slots, reserve: usize) -> Self {
        Filing {
            slots,
            groups: PerGroup::new(),
            reserve,
            input: None,
        }
    }

    fn bind(&mut self, block: &Arc<[u8]>, view: &[u8]) {
        self.input = Some(Binding::new(block, view));
    }

    /// [`Collector::work_item`], filing each record under `slot(slots,
    /// key, group)`: the calling thread's work-group's buckets are looked
    /// up, and locked, once; the lock is released when `f` returns or
    /// unwinds.
    fn work_item(
        &self,
        f: &mut dyn FnMut(&mut Sink<'_>),
        slot: impl Fn(&Slots, &[u8], usize) -> usize,
    ) {
        let (slots, group) = (&self.slots, current_group_id());
        let make = || {
            let bucket = || Bucket {
                bytes: Vec::with_capacity(self.reserve),
                ..Bucket::default()
            };
            (0..slots.len()).map(|_| bucket()).collect()
        };
        let (mut buckets, input) = (self.groups.get(group, make).write(), self.input.as_ref());
        f(&mut |key, value| buckets[slot(slots, key, group)].hold(input, key, value));
    }

    fn lane_runs(&self, lane: usize, buf: &mut SortBuf, deliver: &mut dyn FnMut(u32, Run)) {
        let groups: Vec<_> = self.groups.iter().map(RwLock::read).collect();
        let (input, mut pairs) = (input_of(&self.input), Vec::new());
        for (p, slot) in self.slots.lane(lane) {
            let buckets = groups.iter().map(|buckets| &buckets[slot]);
            if let Some(run) = filed_run(buckets, input, &mut pairs, buf) {
                deliver(p, run);
            }
        }
    }

    /// Group by group, each group slot by slot in emission order: no
    /// sort.
    fn visit(&self, f: &mut dyn FnMut(&[u8], &[u8])) {
        let input = input_of(&self.input);
        for group in self.groups.iter() {
            for bucket in group.read().iter() {
                bucket.records(input).for_each(|(key, value)| f(key, value));
            }
        }
    }

    fn reset(&mut self) {
        self.input = None;
        for group in self.groups.iter_mut() {
            group.iter_mut().for_each(Bucket::clear);
        }
    }

    fn sum(&self, of: impl Fn(&Bucket) -> usize) -> usize {
        let group = |group: &RwLock<Vec<Bucket>>| group.read().iter().map(&of).sum::<usize>();
        self.groups.iter().map(group).sum()
    }

    fn records(&self) -> usize {
        self.sum(|bucket| bucket.held.len())
    }

    fn bytes(&self) -> usize {
        self.sum(|bucket| bucket.encoded)
    }
}

// ---------------------------------------------------------------------------
// Shared buffer pool
// ---------------------------------------------------------------------------

/// The shared-buffer-pool collector: the filing store, every record filed
/// as emitted under its partition and its work-group's sub-slot.
pub struct BufferPoolCollector(Filing);

impl BufferPoolCollector {
    /// Create a pool that reserves `capacity` bytes spread over `groups`
    /// work-groups, a group's share when it first emits, filing every
    /// record in one slot. A bucket that fills up grows; a launch of more
    /// groups gives each group beyond `groups` buckets of its own too.
    pub fn new(capacity: usize, groups: usize) -> Self {
        Self::with_slots(capacity, groups, Slots::single())
    }

    /// [`BufferPoolCollector::new`], filing records under `slots`, the
    /// reservation spread over the `groups` groups' slots.
    pub fn with_slots(capacity: usize, groups: usize, slots: Slots) -> Self {
        let reserve = capacity / (groups.max(1) * slots.len());
        BufferPoolCollector(Filing::new(slots, reserve))
    }
}

impl Collector for BufferPoolCollector {
    fn bind(&mut self, block: &Arc<[u8]>, view: &[u8]) {
        self.0.bind(block, view);
    }

    fn work_item(&self, f: &mut dyn FnMut(&mut Sink<'_>)) {
        self.0.work_item(f, Slots::slot_of_group);
    }

    fn lane_runs(&self, lane: usize, buf: &mut SortBuf, deliver: &mut dyn FnMut(u32, Run)) {
        self.0.lane_runs(lane, buf, deliver);
    }

    /// No sort, so a single-slot pool hands records out as emitted.
    fn visit(&self, f: &mut dyn FnMut(&[u8], &[u8])) {
        self.0.visit(f);
    }

    fn reset(&mut self) {
        self.0.reset();
    }

    fn records(&self) -> usize {
        self.0.records()
    }

    fn bytes(&self) -> usize {
        self.0.bytes()
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

/// One distinct key of a [`KeyedTable`].
#[derive(Clone, Copy)]
struct Entry {
    /// The key's hash, kept for growing the index.
    hash: u64,
    key_off: u32,
    key_len: u32,
    /// Arena offsets of the key's first and last value node. With a
    /// combiner there is exactly one node, the accumulator.
    head: u32,
    tail: u32,
}

/// One work-group's table of keys: an open-addressing index over entry
/// ids, the entries in insertion order, one arena holding every key and
/// every value node (`next len value`, chained per key), and per slot the
/// ids of the entries filed there. Nothing here is allocated per key, and
/// `clear` keeps every capacity.
struct KeyedTable {
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
    /// Per slot, the id of each entry filed there, in insertion order.
    slots: Vec<Vec<u32>>,
    emits: usize,
    records: usize,
    bytes: usize,
}

impl KeyedTable {
    fn new(opening_slots: usize, combiner: Option<Arc<dyn Combiner>>, slots: usize) -> Self {
        KeyedTable {
            combiner,
            opening_slots,
            index: Vec::new(),
            entries: Vec::new(),
            arena: Vec::new(),
            scratch: Vec::new(),
            slots: vec![Vec::new(); slots],
            emits: 0,
            records: 0,
            bytes: 0,
        }
    }

    fn clear(&mut self) {
        if !self.entries.is_empty() {
            self.index.fill(0);
            self.slots.iter_mut().for_each(Vec::clear);
        }
        self.entries.clear();
        self.arena.clear();
        self.emits = 0;
        self.records = 0;
        self.bytes = 0;
    }

    fn emit(&mut self, slots: &Slots, hash: u64, key: &[u8], value: &[u8]) {
        self.emits += 1;
        let id = self.entry(slots, hash, key);
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

    /// The id of the entry for `key`, appended with no value yet, and
    /// filed under its slot, if the table has not seen the key.
    fn entry(&mut self, slots: &Slots, hash: u64, key: &[u8]) -> usize {
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
        self.slots[slots.slot_of(key, hash)].push(span(id));
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

    /// The combined value of `e`, in a table with a combiner.
    fn accumulator(&self, e: &Entry) -> &[u8] {
        &self.arena[self.value_range(e.head)]
    }
}

/// Every work-group's table, all in one form.
enum Tables {
    /// Each of a group's distinct keys once, with its accumulator or the
    /// chain of its values: what a combiner needs, and what compacts a
    /// chunk whose keys repeat.
    Keyed(PerGroup<KeyedTable>),
    /// Every record as emitted, for a table without a combiner whose keys
    /// do not repeat, where a probe would find nothing to compact.
    Filed(Filing),
}

/// The hash-table collector with optional in-kernel combiner: one table
/// per work-group. Tables start keyed, each key filed under its slot when
/// a group first inserts it. Without a combiner, once the lanes have read
/// a chunk in which no group's table held a key twice, `reset` turns the
/// collector to filing each record in the filing store under its key's
/// slot, for good: the same runs, with no probe.
pub struct HashTableCollector {
    combiner: Option<Arc<dyn Combiner>>,
    buckets: usize,
    slots: Slots,
    tables: Tables,
    /// Set by a lane that read keyed tables without a combiner, no key
    /// held twice by one table; `reset` reads it.
    unique: AtomicBool,
}

impl HashTableCollector {
    /// Create tables whose index opens with `buckets` slots, filing every
    /// key in one slot; `combiner` enables combining mode.
    pub fn new(buckets: usize, combiner: Option<Arc<dyn Combiner>>) -> Self {
        Self::with_slots(buckets, combiner, Slots::single())
    }

    /// [`HashTableCollector::new`], filing keys under `slots`.
    pub fn with_slots(buckets: usize, combiner: Option<Arc<dyn Combiner>>, slots: Slots) -> Self {
        HashTableCollector {
            combiner,
            buckets,
            slots,
            tables: Tables::Keyed(PerGroup::new()),
            unique: AtomicBool::new(false),
        }
    }

    /// Total emit calls (pre-combining).
    pub fn emits(&self) -> usize {
        self.sum(|table| table.emits, Filing::records)
    }

    /// `keyed` of every keyed table, summed, or `filed` of the store.
    fn sum(&self, keyed: impl Fn(&KeyedTable) -> usize, filed: impl Fn(&Filing) -> usize) -> usize {
        match &self.tables {
            Tables::Keyed(groups) => groups.iter().map(|table| keyed(&table.read())).sum(),
            Tables::Filed(store) => filed(store),
        }
    }

    /// [`Collector::lane_runs`] over keyed tables: refs name an entry by
    /// its table's place in group order and its `LaneKey`; a key's refs
    /// sort by group after the key, so the walk meets its groups in group
    /// order.
    fn keyed_runs(
        &self,
        tables: &[&KeyedTable],
        lane: usize,
        buf: &mut SortBuf,
        deliver: &mut dyn FnMut(u32, Run),
    ) {
        let mut keys: Vec<LaneKey<'_>> = Vec::new();
        for (p, slot) in self.slots.lane(lane) {
            buf.clear();
            keys.clear();
            let (mut bytes, mut skip) = (0, usize::MAX);
            for (group, table) in (0..).zip(tables) {
                for &id in &table.slots[slot] {
                    let e = &table.entries[id as usize];
                    let key = table.key(e);
                    skip = shared_prefix(keys.first().map_or(key, |k| k.key), key, skip);
                    buf.refs.push(SortRef {
                        head: 0,
                        group,
                        entry: span(keys.len()),
                    });
                    keys.push(LaneKey {
                        tail: 0,
                        key,
                        entry: e,
                    });
                }
                // The slot's share of the table's bytes, by entry count.
                bytes += table.bytes * table.slots[slot].len() / table.entries.len().max(1);
            }
            if buf.refs.is_empty() {
                continue;
            }
            for (r, k) in buf.refs.iter_mut().zip(&mut keys) {
                let rest = &k.key[skip..];
                r.head = key_head(rest);
                k.tail = key_head(rest.get(8..).unwrap_or_default());
            }
            buf.sort_by(|_, a, b| {
                let (x, y) = (&keys[a.entry as usize], &keys[b.entry as usize]);
                x.cmp_past_head(y, skip).then(a.group.cmp(&b.group))
            });
            let mut run = Vec::with_capacity(bytes);
            let records = self.write_sorted(tables, &keys, &buf.refs, &mut run);
            // `bytes` is an estimate, counting a key once per group that
            // holds it; the run is cached as it is, so it keeps no spare
            // capacity.
            run.shrink_to_fit();
            deliver(p, Run::from_sorted_bytes(run, records));
        }
    }

    /// Serialize `refs`, sorted by key and then group, into `run`: one
    /// record per key, its groups' accumulators combined in group order,
    /// with a combiner; every value of a key, in value order, without.
    /// Returns the records written.
    fn write_sorted(
        &self,
        tables: &[&KeyedTable],
        keys: &[LaneKey<'_>],
        refs: &[SortRef],
        run: &mut Vec<u8>,
    ) -> usize {
        let entry = |r: &SortRef| (tables[r.group as usize], keys[r.entry as usize].entry);
        let mut acc = Vec::new();
        let mut values: Vec<&[u8]> = Vec::new();
        let mut records = 0;
        let mut at = 0;
        while at < refs.len() {
            let first = &keys[refs[at].entry as usize];
            let same_key = |r: &SortRef| {
                let k = &keys[r.entry as usize];
                r.head == refs[at].head && k.tail == first.tail && k.key == first.key
            };
            let end = at + 1 + refs[at + 1..].iter().take_while(|r| same_key(r)).count();
            let (same, k) = (&refs[at..end], first.key);
            let (table, e) = entry(&refs[at]);
            match &self.combiner {
                Some(combiner) => {
                    let mut value = table.accumulator(e);
                    if same.len() > 1 {
                        acc.clear();
                        acc.extend_from_slice(value);
                        for r in &same[1..] {
                            let (table, e) = entry(r);
                            combiner.combine(k, &mut acc, table.accumulator(e));
                        }
                        value = &acc;
                    }
                    RecRef::write(run, k, value);
                    records += 1;
                }
                None if same.len() == 1 && e.head == e.tail => {
                    RecRef::write(run, k, table.node(e.head).1);
                    records += 1;
                }
                None => {
                    values.clear();
                    for r in same {
                        let (table, e) = entry(r);
                        values.extend(table.values(e));
                    }
                    values.sort_unstable();
                    for value in &values {
                        RecRef::write(run, k, value);
                    }
                    records += values.len();
                }
            }
            at = end;
        }
        records
    }
}

/// What a partition lane knows of one entry it sorts. Every key of a
/// slot shares the slot's first `skip` bytes, so a ref's head is read
/// after them and `tail` is the 8 bytes after the head, zero-padded and
/// big-endian: on WordCount's `word…` keys the head then starts at the
/// first byte that can differ. A ref's `entry` indexes these.
struct LaneKey<'t> {
    tail: u64,
    key: &'t [u8],
    entry: &'t Entry,
}

impl LaneKey<'_> {
    /// Key order between two keys whose heads, read past `skip`, are
    /// equal. Equal tails too mean equal zero-padded bytes up to
    /// `skip + 16`: when neither key is longer, the shorter one is a
    /// prefix of the other and sorts first, with no byte read; past that
    /// the keys are compared.
    fn cmp_past_head(&self, other: &Self, skip: usize) -> Ordering {
        self.tail.cmp(&other.tail).then_with(|| {
            if self.key.len().max(other.key.len()) <= skip + 16 {
                self.key.len().cmp(&other.key.len())
            } else {
                self.key.cmp(other.key)
            }
        })
    }
}

impl Collector for HashTableCollector {
    /// Binds a filing store only: keyed tables copy what they keep.
    fn bind(&mut self, block: &Arc<[u8]>, view: &[u8]) {
        if let Tables::Filed(store) = &mut self.tables {
            store.bind(block, view);
        }
    }

    /// The calling thread's work-group is looked up, and its table locked,
    /// once; the lock is released when `f` returns or unwinds.
    fn work_item(&self, f: &mut dyn FnMut(&mut Sink<'_>)) {
        let slots = &self.slots;
        match &self.tables {
            Tables::Keyed(groups) => {
                let make = || KeyedTable::new(self.buckets, self.combiner.clone(), slots.len());
                let mut table = groups.get(current_group_id(), make).write();
                f(&mut |key, value| table.emit(slots, hash_bytes(key), key, value));
            }
            Tables::Filed(store) => store.work_item(f, |slots, key, _| slots.slot_of_key(key)),
        }
    }

    fn lane_runs(&self, lane: usize, buf: &mut SortBuf, deliver: &mut dyn FnMut(u32, Run)) {
        match &self.tables {
            Tables::Keyed(groups) => {
                let guards: Vec<_> = groups.iter().map(RwLock::read).collect();
                let tables: Vec<&KeyedTable> = guards.iter().map(|table| &**table).collect();
                let unique = |t: &&KeyedTable| t.entries.len() == t.emits;
                if self.combiner.is_none()
                    && tables.iter().all(unique)
                    && tables.iter().any(|t| t.emits > 0)
                {
                    self.unique.store(true, AtomicOrdering::Relaxed);
                }
                self.keyed_runs(&tables, lane, buf, deliver);
            }
            Tables::Filed(store) => store.lane_runs(lane, buf, deliver),
        }
    }

    /// Keyed tables hand out the lane runs, lane by lane, each partition
    /// by partition; a filing store, its records as filed.
    fn visit(&self, f: &mut dyn FnMut(&[u8], &[u8])) {
        if let Tables::Filed(store) = &self.tables {
            return store.visit(f);
        }
        let mut buf = SortBuf::default();
        for lane in 0..self.slots.lanes {
            self.lane_runs(lane, &mut buf, &mut |_, run| {
                run.iter().for_each(|(key, value)| f(key, value));
            });
        }
    }

    fn reset(&mut self) {
        if std::mem::take(self.unique.get_mut()) {
            self.tables = Tables::Filed(Filing::new(self.slots.clone(), 0));
        }
        match &mut self.tables {
            Tables::Keyed(groups) => groups.iter_mut().for_each(KeyedTable::clear),
            Tables::Filed(store) => store.reset(),
        }
    }

    fn records(&self) -> usize {
        self.sum(|table| table.records, Filing::records)
    }

    /// What the tables hold as they stand: a Retrieve stage asks for it,
    /// and what would cross the link is every group's table.
    fn bytes(&self) -> usize {
        self.sum(|table| table.bytes, Filing::bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::default_partition;
    use std::collections::BTreeMap;

    type Pairs = Vec<(Vec<u8>, Vec<u8>)>;

    /// The records in the order the collector hands them out.
    fn sequence(c: &dyn Collector) -> Pairs {
        let mut out = Vec::new();
        for_each_record(c, &mut |k, v| out.push((k.to_vec(), v.to_vec())));
        out
    }

    fn collect_all(c: &dyn Collector) -> Pairs {
        let mut out = sequence(c);
        out.sort();
        out
    }

    /// `partitions` partitions by the default partitioner, over `lanes`
    /// lanes.
    fn slots(partitions: u32, lanes: usize) -> Slots {
        Slots::new(partitions, lanes, move |key| {
            default_partition(key, partitions)
        })
    }

    /// Every run the collector's `lanes` lanes build, by `(partition,
    /// lane)`, after checking that each is sorted and holds only keys of
    /// its partition.
    fn lane_runs(c: &dyn Collector, s: &Slots) -> BTreeMap<(u32, usize), Run> {
        let mut runs = BTreeMap::new();
        let mut buf = SortBuf::default();
        for lane in 0..s.lanes() {
            c.lane_runs(lane, &mut buf, &mut |p, run| {
                assert!(run.check_sorted() && !run.is_empty());
                assert!(run.iter().all(|(k, _)| s.partition_of(k) == p as usize));
                assert!(runs.insert((p, lane), run).is_none(), "one run per slot");
            });
        }
        runs
    }

    /// The union of `runs`' records, sorted.
    fn union(runs: &BTreeMap<(u32, usize), Run>) -> Pairs {
        let mut out: Pairs = runs
            .values()
            .flat_map(|run| run.iter().map(|(k, v)| (k.to_vec(), v.to_vec())))
            .collect();
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
    fn buffer_pool_lane_runs_cover_everything_once() {
        for (partitions, lanes) in [(1, 1), (1, 2), (3, 1), (2, 3), (4, 8)] {
            let s = slots(partitions, lanes);
            let c = BufferPoolCollector::with_slots(1 << 16, 8, s.clone());
            for i in 0..500 {
                c.emit(format!("k{i}").as_bytes(), &[i as u8]);
            }
            assert_eq!(
                union(&lane_runs(&c, &s)),
                collect_all(&c),
                "{partitions}x{lanes}"
            );
            assert_eq!(collect_all(&c).len(), 500);
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
    fn hash_table_lane_runs_are_disjoint_and_complete() {
        for (partitions, lanes) in [(1, 1), (1, 2), (2, 1), (3, 3)] {
            let s = slots(partitions, lanes);
            let c = HashTableCollector::with_slots(32, None, s.clone());
            for i in 0..300 {
                c.emit(format!("k{i}").as_bytes(), b"v");
            }
            let runs = lane_runs(&c, &s);
            assert_eq!(union(&runs).len(), 300, "{partitions}x{lanes}");
            assert_eq!(union(&runs), collect_all(&c));
            if lanes > 1 {
                let used: std::collections::BTreeSet<_> = runs.keys().map(|&(_, l)| l).collect();
                assert_eq!(used.len(), lanes, "300 keys reach every lane");
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn a_partition_out_of_range_is_refused_at_emission() {
        let c = HashTableCollector::with_slots(16, None, Slots::new(2, 1, |_| 2));
        c.emit(b"k", b"v");
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

            /// Lane runs partition a chunk's records by the slot rule, for
            /// `P` in 1..=6 partitions × `N` in 1..=4 lanes and both
            /// collectors, emitted by a multi-group launch: the runs' union
            /// is the chunk; a chunk yields at most `max(P, N)` runs and,
            /// with `P ≥ N`, exactly one per non-empty partition `p`, lane
            /// `p mod N`'s; all of a key's records lie in one run (the
            /// buffer pool's sub-slot is the shard's, so there only when
            /// `P ≥ N`); and with `P ≥ N` the two collectors build the same
            /// bytes for every partition.
            #[test]
            fn lane_runs_partition_the_records(
                emits in proptest::collection::vec((0u8..60, any::<u8>()), 0..300),
                global in 1usize..40,
                local in 1usize..9,
                partitions in 1u32..=6,
                lanes in 1usize..=4)
            {
                let chunk: Pairs = emits
                    .iter()
                    .map(|&(k, v)| (format!("k{k}").into_bytes(), vec![v]))
                    .collect();
                let mut expect = chunk.clone();
                expect.sort();
                let s = slots(partitions, lanes);
                let range = NdRange::new(global, local).unwrap();
                let pool = BufferPoolCollector::with_slots(1 << 14, lanes.max(3), s.clone());
                let table = HashTableCollector::with_slots(16, None, s.clone());
                launch_work_items(&WorkerPool::new(0), range, &pool, &chunk);
                launch_work_items(&WorkerPool::new(0), range, &table, &chunk);
                let whole = partitions as usize >= lanes;
                let owners: Vec<(u32, usize)> = chunk
                    .iter()
                    .map(|(k, _)| default_partition(k, partitions))
                    .collect::<std::collections::BTreeSet<_>>()
                    .into_iter()
                    .map(|p| (p, p as usize % lanes))
                    .collect();
                let pool_runs = lane_runs(&pool, &s);
                let table_runs = lane_runs(&table, &s);
                for (name, runs) in [("buffer pool", &pool_runs), ("hash table", &table_runs)] {
                    prop_assert!(union(runs) == expect, "{}: union is not the chunk", name);
                    prop_assert!(runs.len() <= lanes.max(partitions as usize), "{}: too many runs", name);
                    if whole {
                        let built: Vec<(u32, usize)> = runs.keys().copied().collect();
                        prop_assert!(built == owners, "{}: not one run per partition", name);
                    }
                    if whole || name == "hash table" {
                        let mut home = BTreeMap::new();
                        for (slot, run) in runs {
                            for (k, _) in run.iter() {
                                let first = *home.entry(k.to_vec()).or_insert(slot);
                                prop_assert!(first == slot, "{}: a key in two runs", name);
                            }
                        }
                    }
                }
                if whole {
                    prop_assert!(pool_runs == table_runs, "the collectors' run bytes differ");
                }
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

    // --- work-group-local collection: order, lane combine, recycling ---

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

    /// Appends instead of summing, so every combine grows the accumulator
    /// and the result spells out the order values were combined in.
    struct Concat;
    impl Combiner for Concat {
        fn combine(&self, _key: &[u8], acc: &mut Vec<u8>, value: &[u8]) {
            acc.extend_from_slice(value);
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
    /// work-group meets most keys and the lanes have real combining to do;
    /// `value(i)` encodes the `i`-th value.
    fn chunk_of(value: impl Fn(usize) -> Vec<u8>) -> Pairs {
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
            Box::new(HashTableCollector::with_slots(
                64,
                Some(Arc::new(F32SumCombiner)),
                slots(3, 2),
            ))
        });
        assert_same_sequence_on_every_pool("no combiner", &counts, || {
            Box::new(HashTableCollector::new(64, None))
        });
        assert_same_sequence_on_every_pool("buffer pool", &counts, || {
            Box::new(BufferPoolCollector::new(1 << 20, 4))
        });
        assert_same_sequence_on_every_pool("slotted buffer pool", &counts, || {
            Box::new(BufferPoolCollector::with_slots(1 << 20, 4, slots(2, 3)))
        });
    }

    #[test]
    fn buffer_pool_keeps_records_past_its_reservation_per_group_in_emission_order() {
        let chunk = chunk_of(|i| (i as u64).to_le_bytes().to_vec());
        let range = NdRange::new(64, 16).unwrap();
        // Four groups reserving 64 bytes each take some 12 KiB apiece; a
        // pool built for two groups gives the launch's other two buckets
        // of their own.
        for groups in [4, 2] {
            let c = BufferPoolCollector::new(256, groups);
            launch_work_items(&WorkerPool::new(2), range, &c, &chunk);
            assert_eq!(c.records(), 3000);
            // A group's items run in item order over ascending slices of
            // the chunk, and the four groups drain in group order.
            assert!(sequence(&c) == chunk, "a pool built for {groups} groups");
        }
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
        let collectors: [Box<dyn Collector>; 3] = [
            Box::new(HashTableCollector::new(16, None)),
            Box::new(filing(Slots::single())),
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
        let makes: [&dyn Fn() -> HashTableCollector; 3] = [
            &|| HashTableCollector::new(64, Some(Arc::new(SumCombiner))),
            &|| HashTableCollector::new(64, None),
            &|| filing(Slots::single()),
        ];
        for make in makes {
            let per_record = make();
            launch(&pool, range, &per_record, &chunk);
            let per_item = make();
            launch_work_items(&pool, range, &per_item, &chunk);
            assert_eq!(per_item.emits(), 3000);
            assert_eq!(per_item.emits(), per_record.emits());
            assert_eq!(per_item.bytes(), per_record.bytes());
            assert_eq!(per_item.records(), per_record.records());
            assert_eq!(sequence(&per_item), sequence(&per_record));
        }
        let per_record = BufferPoolCollector::new(1 << 20, 4);
        launch(&pool, range, &per_record, &chunk);
        let per_item = BufferPoolCollector::new(1 << 20, 4);
        launch_work_items(&pool, range, &per_item, &chunk);
        assert_eq!(per_item.records(), 3000);
        assert_eq!(per_item.records(), per_record.records());
        assert_eq!(per_item.bytes(), per_record.bytes());
    }

    /// How many work-groups' keyed tables hold an entry.
    fn filled(c: &HashTableCollector) -> usize {
        let Tables::Keyed(groups) = &c.tables else {
            panic!("the tables file")
        };
        let filled = |table: &&RwLock<KeyedTable>| !table.read().entries.is_empty();
        groups.iter().filter(filled).count()
    }

    /// A table without a combiner that files: the lanes read one chunk
    /// whose keys do not repeat, and it was reset.
    fn filing(slots: Slots) -> HashTableCollector {
        let mut c = HashTableCollector::with_slots(16, None, slots);
        c.emit(b"once", b"");
        sequence(&c);
        c.reset();
        assert!(matches!(c.tables, Tables::Filed(_)), "the tables file");
        c
    }

    #[test]
    fn reading_twice_combines_the_same_and_moves_nothing() {
        let c = HashTableCollector::with_slots(64, Some(Arc::new(SumCombiner)), slots(2, 2));
        let chunk = chunk_of(|_| 1u64.to_le_bytes().to_vec());
        launch(
            &WorkerPool::new(1),
            NdRange::new(64, 16).unwrap(),
            &c,
            &chunk,
        );
        assert_eq!(filled(&c), 4, "one table per work-group");
        let held = c.records();
        assert!(held > 49, "groups share keys: {held} group records");
        let first = sequence(&c);
        assert_eq!(first.len(), 49, "a lane combines a key across groups");
        assert_eq!(first, sequence(&c), "a second read builds the same runs");
        assert_eq!((filled(&c), c.records(), c.emits()), (4, held, 3000));
        let total: u64 = first
            .iter()
            .map(|(_, v)| u64::from_le_bytes(v.as_slice().try_into().unwrap()))
            .sum();
        assert_eq!(total, 3000, "the lanes combined, they did not overwrite");
    }

    #[test]
    fn groups_combine_in_group_order_even_if_group_0_emitted_nothing() {
        let c = HashTableCollector::new(16, Some(Arc::new(Concat)));
        let kernel = KernelFn(|ctx: &WorkItemCtx| {
            if ctx.group_id() > 0 {
                c.emit(b"k", &[ctx.global_id() as u8]);
            }
        });
        WorkerPool::new(3).run(NdRange::new(8, 2).unwrap(), &kernel);
        assert_eq!(c.records(), 3, "groups 1, 2 and 3 hold the key");
        assert_eq!(sequence(&c), vec![(b"k".to_vec(), vec![2, 3, 4, 5, 6, 7])]);
    }

    #[test]
    fn reset_and_refill_grows_no_capacity_after_the_first_chunk() {
        let capacities = |c: &HashTableCollector| -> Vec<[usize; 5]> {
            let keyed = |t: &KeyedTable| {
                [
                    t.index.capacity(),
                    t.entries.capacity(),
                    t.arena.capacity(),
                    t.scratch.capacity(),
                    t.slots.iter().map(Vec::capacity).sum(),
                ]
            };
            let filed = |buckets: &[Bucket]| {
                let (held, bytes) = (
                    buckets.iter().map(|b| b.held.capacity()),
                    buckets.iter().map(|b| b.bytes.capacity()),
                );
                [held.sum(), bytes.sum(), 0, 0, 0]
            };
            match &c.tables {
                Tables::Keyed(groups) => groups.iter().map(|table| keyed(&table.read())).collect(),
                Tables::Filed(store) => store
                    .groups
                    .iter()
                    .map(|group| filed(&group.read()))
                    .collect(),
            }
        };
        let pool = WorkerPool::new(1);
        let range = NdRange::new(64, 16).unwrap();
        let chunk = chunk_of(|i| (i as u64).to_le_bytes().to_vec());
        let makes: [&dyn Fn() -> HashTableCollector; 3] = [
            &|| HashTableCollector::with_slots(16, Some(Arc::new(SumCombiner)), slots(2, 2)),
            &|| HashTableCollector::with_slots(16, None, slots(2, 2)),
            &|| filing(slots(2, 2)),
        ];
        for make in makes {
            let mut c = make();
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
    fn a_resized_accumulator_moves_and_combines_across_groups() {
        let c = HashTableCollector::new(16, Some(Arc::new(Concat)));
        let chunk: Pairs = (0..64u8).map(|i| (vec![b'k', i % 3], vec![i])).collect();
        // One item per group: the combine order is the emit order.
        launch(
            &WorkerPool::new(2),
            NdRange::new(64, 1).unwrap(),
            &c,
            &chunk,
        );
        assert_eq!(c.records(), 64, "each group holds its one record");
        assert_eq!(
            c.bytes(),
            64 * (2 + 1 + 2),
            "key, value, per-record overhead"
        );
        let combined = sequence(&c);
        assert_eq!(combined.len(), 3);
        for (key, acc) in combined {
            let expect: Vec<u8> = (0..64u8).filter(|i| i % 3 == key[1]).collect();
            assert_eq!(acc, expect);
        }
        // Within a group the accumulator grows and moves in place.
        let c = HashTableCollector::new(16, Some(Arc::new(Concat)));
        for (k, v) in &chunk {
            c.emit(k, v);
        }
        assert_eq!(c.records(), 3);
        assert_eq!(
            c.bytes(),
            3 * (2 + 2) + 64,
            "keys, per-record overhead, payload"
        );
    }

    #[test]
    fn a_table_without_a_combiner_files_once_the_lanes_read_no_repeated_key() {
        let pool = WorkerPool::new(1);
        let range = NdRange::new(64, 16).unwrap();
        let s = slots(2, 2);
        let repeating = chunk_of(|i| (i as u64).to_le_bytes().to_vec());
        let unique: Pairs = (0..3000u64)
            .map(|i| (format!("key{i}").into_bytes(), i.to_le_bytes().to_vec()))
            .collect();
        let keyed = |c: &HashTableCollector| matches!(c.tables, Tables::Keyed(_));
        for (combiner, chunk) in [
            (Some(Arc::new(SumCombiner) as Arc<dyn Combiner>), &unique),
            (Some(Arc::new(SumCombiner)), &repeating),
            (None, &repeating),
        ] {
            let mut c = HashTableCollector::with_slots(16, combiner, s.clone());
            launch(&pool, range, &c, chunk);
            sequence(&c);
            c.reset();
            assert!(keyed(&c), "a combiner or a repeated key keeps the probe");
        }
        let mut c = HashTableCollector::with_slots(16, None, s.clone());
        launch(&pool, range, &c, &unique);
        c.reset();
        assert!(keyed(&c), "a chunk the lanes did not read decides nothing");
        launch(&pool, range, &c, &unique);
        let held = (lane_runs(&c, &s), c.records(), c.bytes(), c.emits());
        c.reset();
        assert!(!keyed(&c), "no key repeated: the tables file");
        launch(&pool, range, &c, &unique);
        assert!((lane_runs(&c, &s), c.records(), c.bytes(), c.emits()) == held);
        // Filed tables never probe again, and still build the keyed runs
        // when keys repeat; their bytes then count every record's key.
        let fresh = HashTableCollector::with_slots(16, None, s.clone());
        launch(&pool, range, &fresh, &repeating);
        c.reset();
        launch(&pool, range, &c, &repeating);
        assert!(lane_runs(&c, &s) == lane_runs(&fresh, &s));
        assert_eq!((c.records(), c.emits()), (fresh.records(), fresh.emits()));
        assert!(c.bytes() > fresh.bytes());
        c.reset();
        assert!(!keyed(&c));
    }

    mod binding {
        use super::*;
        use proptest::prelude::*;
        use std::panic::{catch_unwind, AssertUnwindSafe};

        /// Where an emit's key or value comes from: the record's own bytes
        /// in the input, or a fresh copy of them.
        type Emits<'a> = Vec<(&'a [u8], &'a [u8])>;

        /// Emit `emits` from a launch over `range`, split over the work
        /// items like the map kernel splits a block; with `fail`, the
        /// group-0 item that emits first panics after its first emit.
        fn launch(c: &dyn Collector, range: NdRange, emits: &Emits<'_>, fail: bool) {
            let kernel = KernelFn(|ctx: &WorkItemCtx| {
                let (lo, hi) = ctx.my_items(emits.len());
                c.work_item(&mut |sink| {
                    for &(k, v) in &emits[lo..hi] {
                        sink(k, v);
                        if fail && ctx.group_id() == 0 {
                            panic!("injected task failure");
                        }
                    }
                });
            });
            WorkerPool::new(1).run(range, &kernel);
        }

        proptest! {
            #![proptest_config(ProptestConfig { cases: 128, ..Default::default() })]

            /// A collector bound to the chunk's block — directly, or through
            /// a staged copy as on a discrete-memory device — holds what the
            /// unbound one holds: the same lane runs, visit order, records
            /// and bytes, for the buffer pool and the combiner-less hash
            /// table, filed (it keeps spans) and keyed (it binds nothing), at
            /// `P` 1–4 × `N` 1–3. Emits mix whole input records,
            /// input keys with fresh values, fresh keys with input values and
            /// fresh records, over 24 keys, so groups see duplicates, and
            /// values of up to 199 bytes, so some lengths take a two-byte
            /// varint. The bound collector's first attempt fails part-way
            /// and is reset and retried, as the map kernel retries; each
            /// reset hands the block back, its `Arc` count 1 again. What
            /// the pool and the filing table count as `bytes` is what their
            /// lanes deliver.
            #[test]
            fn bound_collection_matches_unbound(
                records in proptest::collection::vec((0u8..24, proptest::collection::vec(any::<u8>(), 0..200)), 1..80),
                picks in proptest::collection::vec((0usize..80, 0u8..4), 0..160),
                global in 1usize..24,
                local in 1usize..6,
                partitions in 1u32..=4,
                lanes in 1usize..=3,
                staged in any::<bool>())
            {
                let mut block = Vec::new();
                let refs: Vec<RecRef> = records
                    .iter()
                    .map(|(k, v)| RecRef::write(&mut block, format!("key-{k}").as_bytes(), v))
                    .collect();
                let block: Arc<[u8]> = block.into();
                let staging = block.to_vec();
                let view: &[u8] = if staged { &staging } else { &block };
                let fresh: Vec<(Vec<u8>, Vec<u8>)> = refs
                    .iter()
                    .map(|r| (r.key(view).to_vec(), r.value(view).to_vec()))
                    .collect();
                let emits: Emits<'_> = picks
                    .iter()
                    .map(|&(at, kind)| {
                        let at = at % refs.len();
                        let (input, copy) = ((refs[at].key(view), refs[at].value(view)), &fresh[at]);
                        match kind {
                            0 => input,
                            1 => (input.0, copy.1.as_slice()),
                            2 => (copy.0.as_slice(), input.1),
                            _ => (copy.0.as_slice(), copy.1.as_slice()),
                        }
                    })
                    .collect();
                let range = NdRange::new(global, local).unwrap();
                let s = slots(partitions, lanes);
                let make = |name| -> Box<dyn Collector> {
                    match name {
                        // Reserving over the launch's groups, as the map
                        // kernel's does.
                        "buffer pool" => Box::new(BufferPoolCollector::with_slots(1 << 10, global.div_ceil(local), s.clone())),
                        "keyed hash table" => Box::new(HashTableCollector::with_slots(16, None, s.clone())),
                        _ => Box::new(filing(s.clone())),
                    }
                };
                for name in ["buffer pool", "keyed hash table", "filed hash table"] {
                    let unbound = make(name);
                    launch(unbound.as_ref(), range, &emits, false);
                    let mut bound = make(name);
                    bound.bind(&block, view);
                    let first = catch_unwind(AssertUnwindSafe(|| launch(bound.as_ref(), range, &emits, true)));
                    prop_assert!(first.is_err() || emits.is_empty(), "{}: the first attempt failed", name);
                    bound.reset();
                    prop_assert!(Arc::strong_count(&block) == 1, "{}: reset keeps the block", name);
                    bound.bind(&block, view);
                    launch(bound.as_ref(), range, &emits, false);
                    let runs = lane_runs(bound.as_ref(), &s);
                    prop_assert!(runs == lane_runs(unbound.as_ref(), &s), "{}: runs differ", name);
                    prop_assert!(sequence(bound.as_ref()) == sequence(unbound.as_ref()), "{}: visits differ", name);
                    prop_assert_eq!(bound.records(), unbound.records());
                    prop_assert_eq!(bound.bytes(), unbound.bytes());
                    if name != "keyed hash table" {
                        let delivered: usize = runs.values().map(Run::len_bytes).sum();
                        prop_assert!(bound.bytes() == delivered, "{}: bytes are not the runs' length", name);
                    }
                    bound.reset();
                    prop_assert!(Arc::strong_count(&block) == 1, "{}: reset keeps the block", name);
                }
            }
        }
    }

    mod group_properties {
        use super::*;
        use parking_lot::Mutex;
        use proptest::prelude::*;

        /// The `Range`s of `chunk_len` records each work-group's items
        /// emit, in group order: [`launch`]'s split, as a launch reports it.
        fn group_slices(range: NdRange, chunk_len: usize) -> Vec<Range<usize>> {
            let items = Mutex::new(Vec::new());
            let kernel = KernelFn(|ctx: &WorkItemCtx| {
                let (lo, hi) = ctx.my_items(chunk_len);
                items.lock().push((ctx.group_id(), lo, hi));
            });
            WorkerPool::new(0).run(range, &kernel);
            let mut groups: BTreeMap<usize, Range<usize>> = BTreeMap::new();
            for (group, lo, hi) in items.into_inner() {
                let r = groups.entry(group).or_insert(lo..hi);
                *r = r.start.min(lo)..r.end.max(hi);
            }
            groups.into_values().collect()
        }

        /// The reference: each group's records folded in emission order,
        /// then the groups' accumulators folded in group order (group 0's
        /// first), one `BTreeMap` per step; without a combiner, every
        /// record. Sorted by `(key, value)`.
        fn reference(
            chunk: &[(Vec<u8>, Vec<u8>)],
            groups: &[Range<usize>],
            combiner: Option<&dyn Combiner>,
        ) -> Pairs {
            let Some(combiner) = combiner else {
                let mut all = chunk.to_vec();
                all.sort();
                return all;
            };
            let fold = |into: &mut BTreeMap<Vec<u8>, Vec<u8>>, k: &Vec<u8>, v: &[u8]| match into
                .get_mut(k)
            {
                Some(acc) => combiner.combine(k, acc, v),
                None => {
                    into.insert(k.clone(), v.to_vec());
                }
            };
            let mut total = BTreeMap::new();
            for slice in groups {
                let mut group = BTreeMap::new();
                for (k, v) in &chunk[slice.clone()] {
                    fold(&mut group, k, v);
                }
                for (k, acc) in &group {
                    fold(&mut total, k, acc);
                }
            }
            total.into_iter().collect()
        }

        proptest! {
            #![proptest_config(ProptestConfig { cases: 96, ..Default::default() })]

            /// Multi-group launches into slotted collectors against a
            /// `BTreeMap` fold in group order, for a u64 sum, an `f32` sum,
            /// a resizing `Concat` and no combiner, keyed and filed: the
            /// union of the lane runs is the reference — `f32`s bit for bit
            /// — and every `(partition, lane)` run is the same bytes at pool
            /// sizes 0, 1 and 3, and filed tables build the keyed ones'. A third of the keys share a 12-byte prefix and a third
            /// are 24 bytes of mostly zeros, so heads and tails tie and the
            /// lanes compare lengths and full keys.
            #[test]
            fn lane_runs_match_a_group_order_fold(
                emits in proptest::collection::vec((0u8..40, 0u32..1000), 0..300),
                global in 1usize..40,
                local in 1usize..9,
                partitions in 1u32..5,
                lanes in 1usize..4)
            {
                let key = |k: u8| match k % 3 {
                    0 => vec![b'k', k],
                    1 => format!("shared-head-{k}").into_bytes(),
                    _ => format!("{k:0>24}").into_bytes(),
                };
                let counts: Pairs = emits
                    .iter()
                    .map(|&(k, v)| (key(k), u64::from(v).to_le_bytes().to_vec()))
                    .collect();
                let floats: Pairs = emits
                    .iter()
                    .map(|&(k, v)| (key(k), (1.1f32.powi(v as i32 % 200) * 0.37).to_le_bytes().to_vec()))
                    .collect();
                let bytes: Pairs = emits.iter().map(|&(k, v)| (key(k), vec![v as u8])).collect();
                let range = NdRange::new(global, local).unwrap();
                let groups = group_slices(range, emits.len());
                let s = slots(partitions, lanes);
                let pools = [WorkerPool::new(0), WorkerPool::new(1), WorkerPool::new(3)];
                type Case<'a> = (&'a str, &'a Pairs, Option<Arc<dyn Combiner>>);
                let cases: [Case; 5] = [
                    ("u64 sum", &counts, Some(Arc::new(SumCombiner))),
                    ("f32 sum", &floats, Some(Arc::new(F32SumCombiner))),
                    ("concat", &bytes, Some(Arc::new(Concat))),
                    ("no combiner", &counts, None),
                    ("filed", &counts, None),
                ];
                let mut keyed = None;
                for (name, chunk, combiner) in cases {
                    let expect = reference(chunk, &groups, combiner.as_deref());
                    let mut first: Option<BTreeMap<(u32, usize), Run>> = None;
                    for pool in &pools {
                        let c = match name {
                            "filed" => filing(s.clone()),
                            _ => HashTableCollector::with_slots(4, combiner.clone(), s.clone()),
                        };
                        launch_work_items(pool, range, &c, chunk);
                        prop_assert_eq!(c.emits(), chunk.len());
                        let runs = lane_runs(&c, &s);
                        prop_assert!(union(&runs) == expect, "{}: union differs from the reference", name);
                        match &first {
                            None => first = Some(runs),
                            Some(first) => prop_assert!(first == &runs, "{}: runs moved", name),
                        }
                    }
                    match name {
                        "no combiner" => keyed = first,
                        "filed" => prop_assert!(first == keyed, "filed and keyed runs differ"),
                        _ => {}
                    }
                }
            }
        }
    }
}
