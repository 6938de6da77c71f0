//! K-way merging of sorted runs, in memory or external.
//!
//! Used in four places: the three of the paper — merging cached runs
//! before a flush, continuously merging spilled runs to bound the file
//! count, and the reduce input reader's "one last merge operation" that
//! presents a consistent, key-grouped view of a partition's data — and
//! the store's in-memory pre-merge of a full cache tier of tier 1 or
//! above while the map runs (`TIER_FANIN`, 16, runs into one). A full
//! tier 0 is not merged but sorted, by [`sort_runs`]: its 16 runs are a
//! few chunks' fresh records, which fit in cache, and there the sort-head
//! radix beats a 16-way tree (~55 against ~105 ns a record, the
//! `tier0_sort` row of the shuffle bench). A higher tier holds up to 16×
//! the records in a few long sorted runs; the tree merges those without
//! 48 bytes a record of sort space. Either way the bytes are the same.
//! The sort's edge needs keys whose heads spread: on WordCount-shaped
//! batches (decimal-like words, each in many runs) the radix takes a pass
//! per key byte and the tree was the faster kernel (~97 against ~60–75 ns
//! a record), a few percent of that workload's CPU (EXPERIMENTS.md).
//! WordCount's combiner is order-free, though, and a store given one
//! pre-merges every tier by [`fold_runs`]: the tree, writing a key's
//! records as one, folded by the combiner; the reduce's
//! [`GroupedCursorMerge::folding`] folds what the pre-merges left apart.
//!
//! All sites run on one **loser tree** (tournament tree) generic over
//! [`RunCursor`] sources: emitting a record replays exactly one
//! root-to-leaf path — one comparison per level, `⌈log₂ k⌉` total.
//! [`CursorMerge`]/[`GroupedCursorMerge`] drive it over any mix of
//! in-memory runs and framed spills (the **external merge**: peak memory
//! is `k` frames, one decode buffer per open spill cursor, not `k` runs);
//! [`MergeIter`] is an [`Iterator`] front over the same tree for borrowed
//! in-memory runs.
//!
//! The tree compares in registers. Beside each cursor it keeps a
//! fixed-width **sort head** — the current key's first 16 bytes and the
//! value's first 8, zero-padded and read big-endian, plus both lengths —
//! recomputed once per emitted record, and a match is decided on the
//! heads of its two sources: key prefixes that differ order exactly as
//! the key bytes do; equal prefixes of two keys no longer than the head
//! order by length (the shorter is a prefix of the longer); the same two
//! rules then order the values; and a full tie goes to the lower source
//! index. Only a match that gets past equal prefixes to a key longer than
//! 16 bytes or a value longer than 8 falls back to comparing the cursors'
//! byte slices. An exhausted cursor's head carries a key length no record
//! has, so it loses to every live record by the same rules.
//!
//! Output order is `(key, value, source index)` — record-for-record
//! identical to the previous heap merge. Equal `(key, value)` records
//! are byte-identical regardless of which source they came from, so the
//! merged byte stream does not depend on how records were split across
//! runs and spills: the determinism contract survives spilling.

use std::io;
use std::ops::Range;
use std::sync::Arc;

use gw_storage::varint::RecRef;

use crate::combine::Combiner;
use crate::cursor::{MemCursor, RunCursor};
use crate::kv::Run;
use crate::radix::{key_head, shared_prefix, SortBuf, SortRef};

/// Key bytes a [`SortHead`] holds.
const KEY_HEAD: u32 = 16;
/// Value bytes a [`SortHead`] holds.
const VAL_HEAD: u32 = 8;
/// [`SortHead::klen`] of an exhausted cursor. No record has it: live
/// lengths saturate one below, and `RecRef::decode` stops short of both.
const EXHAUSTED: u32 = u32::MAX;

/// The first 8 bytes of `bytes`, zero-padded, read big-endian.
#[inline]
fn be_head(bytes: &[u8]) -> u64 {
    match bytes.first_chunk::<8>() {
        Some(full) => u64::from_be_bytes(*full),
        // Each byte shifted to its place in a register: copied into a
        // zeroed array and read back as one word, the load would wait on
        // the narrower stores before it.
        None => bytes
            .iter()
            .enumerate()
            .fold(0, |head, (i, &b)| head | (b as u64) << (56 - 8 * i)),
    }
}

/// Fixed-width comparison state of one cursor's current record.
#[derive(Debug, Clone, Copy)]
struct SortHead {
    /// First [`KEY_HEAD`] key bytes, zero-padded, big-endian.
    key: u128,
    /// What orders two records whose `key`s tie, most significant first:
    /// key length (32 bits), the first [`VAL_HEAD`] value bytes,
    /// zero-padded, big-endian (64), value length (32).
    rest: u128,
}

impl SortHead {
    /// Head of `c`'s current record, or all ones once `c` is exhausted:
    /// past every key prefix but sixteen `0xFF`, which ties, and then the
    /// [`EXHAUSTED`] length sends the match to the slices.
    #[inline]
    fn of<C: RunCursor>(c: &C) -> SortHead {
        if c.done() {
            return SortHead {
                key: u128::MAX,
                rest: u128::MAX,
            };
        }
        let (k, v) = (c.key(), c.value());
        let live = |len: usize| len.min((EXHAUSTED - 1) as usize) as u128;
        let key_low = be_head(k.get(8..).unwrap_or_default());
        SortHead {
            key: (be_head(k) as u128) << 64 | key_low as u128,
            rest: live(k.len()) << 96 | (be_head(v) as u128) << 32 | live(v.len()),
        }
    }

    #[inline]
    fn klen(&self) -> u32 {
        (self.rest >> 96) as u32
    }

    #[inline]
    fn vlen(&self) -> u32 {
        self.rest as u32
    }
}

/// Fan-in of the store's in-memory pre-merges: a partition's cache tier
/// is full at this many runs, and its merger task makes them one run of
/// the next tier — tier 0 by [`sort_runs`], higher tiers by
/// [`merge_runs`] (module doc). N runs then reach the reduce as N's
/// base-F digit sum of streams (at most `F − 1` per tier, 10 for N = 400)
/// instead of N, for at most `⌊log_F N⌋` extra copies of each byte, made
/// while the map runs. 16 stays with the sort: 32 read no better.
pub(crate) const TIER_FANIN: usize = 16;

/// The shared loser-tree core, generic over cursor sources.
///
/// `tree[0]` is the overall winner, `tree[1..k]` hold the losers of each
/// internal match; the leaf of source `s` is node `k + s`. `heads[s]` is
/// the [`SortHead`] of `cursors[s]`'s current record. Exhausted (`done`)
/// cursors are filtered at construction, and ties break by source index,
/// matching the original heap's `(key, value, src)` order.
pub(crate) struct LoserTree<C: RunCursor> {
    pub(crate) cursors: Vec<C>,
    heads: Vec<SortHead>,
    tree: Vec<u32>,
}

impl<C: RunCursor> LoserTree<C> {
    pub(crate) fn new(cursors: Vec<C>) -> Self {
        let cursors: Vec<C> = cursors.into_iter().filter(|c| !c.done()).collect();
        let k = cursors.len();
        assert!(u32::try_from(k).is_ok(), "merge fan-in exceeds u32");
        let mut t = LoserTree {
            heads: cursors.iter().map(SortHead::of).collect(),
            cursors,
            tree: vec![0; k.max(1)],
        };
        if k > 0 {
            let winner = t.play(1);
            t.tree[0] = winner;
        }
        t
    }

    /// `true` when source `a`'s current record sorts before source `b`'s.
    /// Exhausted cursors lose to everything.
    ///
    /// Decided on the two heads as one `(key, rest, source)` comparison,
    /// written without short-circuits so it compiles to flag arithmetic:
    /// a match's outcome is data, and a branch on it mispredicts. The one
    /// branch left is the rare tie that runs past a head into bytes it
    /// does not hold.
    #[inline]
    fn beats(&self, a: u32, b: u32) -> bool {
        let (ha, hb) = (self.heads[a as usize], self.heads[b as usize]);
        let key_tie = ha.key == hb.key;
        let long_key = (ha.klen() > KEY_HEAD) | (hb.klen() > KEY_HEAD);
        // Equal keys (same prefix, same length) and equal value prefixes.
        let val_tie = ha.rest >> 32 == hb.rest >> 32;
        let long_val = (ha.vlen() > VAL_HEAD) | (hb.vlen() > VAL_HEAD);
        if key_tie & (long_key | (val_tie & long_val)) {
            return self.beats_by_slices(a, b);
        }
        (ha.key < hb.key) | (key_tie & ((ha.rest < hb.rest) | ((ha.rest == hb.rest) & (a < b))))
    }

    /// [`Self::beats`] on the cursors' byte slices: the definition the
    /// heads shortcut, and the fallback for what they cannot hold.
    #[cold]
    fn beats_by_slices(&self, a: u32, b: u32) -> bool {
        let (ca, cb) = (&self.cursors[a as usize], &self.cursors[b as usize]);
        match (ca.done(), cb.done()) {
            (true, _) => false,
            (false, true) => true,
            (false, false) => ca
                .key()
                .cmp(cb.key())
                .then_with(|| ca.value().cmp(cb.value()))
                .then(a.cmp(&b))
                .is_lt(),
        }
    }

    /// Recursively play the initial tournament for the subtree at `node`,
    /// storing losers and returning the subtree winner.
    fn play(&mut self, node: usize) -> u32 {
        let k = self.cursors.len();
        if node >= k {
            return (node - k) as u32; // leaf: the source itself
        }
        let a = self.play(2 * node);
        let b = self.play(2 * node + 1);
        let (winner, loser) = if self.beats(a, b) { (a, b) } else { (b, a) };
        self.tree[node] = loser;
        winner
    }

    /// The winning source index, or `None` when all are exhausted.
    #[inline]
    pub(crate) fn winner(&self) -> Option<usize> {
        let w = self.tree[0] as usize;
        match self.heads.get(w) {
            Some(h) if h.klen() != EXHAUSTED => Some(w),
            _ => None,
        }
    }

    /// Whether the winning record's key is `key`, whose head is `head`:
    /// decided on the heads unless both keys run past them.
    #[inline]
    fn winner_has_key(&self, head: SortHead, key: &[u8]) -> bool {
        let Some(w) = self.winner() else {
            return false;
        };
        let h = self.heads[w];
        h.key == head.key
            && h.klen() == head.klen()
            && (h.klen() <= KEY_HEAD || self.cursors[w].key() == key)
    }

    /// Advance the current winner's cursor and replay its leaf-to-root
    /// path. The only fallible step of a merge (spill cursors touch disk).
    pub(crate) fn advance_winner(&mut self) -> io::Result<()> {
        let s = self.tree[0];
        let cursor = &mut self.cursors[s as usize];
        cursor.advance()?;
        self.heads[s as usize] = SortHead::of(cursor);
        let mut winner = s;
        let mut t = (self.cursors.len() + s as usize) / 2;
        while t >= 1 {
            // Winner and loser are selected, not branched on (see `beats`).
            let other = self.tree[t];
            let other_wins = self.beats(other, winner);
            self.tree[t] = if other_wins { winner } else { other };
            winner = if other_wins { other } else { winner };
            t /= 2;
        }
        self.tree[0] = winner;
        Ok(())
    }
}

/// Streaming k-way merge over borrowed runs, yielding records in
/// `(key, value)` order.
pub struct MergeIter<'a> {
    tree: LoserTree<MemCursor<&'a [u8]>>,
}

impl<'a> MergeIter<'a> {
    /// Merge the given runs.
    pub fn new<I>(runs: I) -> Self
    where
        I: IntoIterator<Item = &'a Run>,
    {
        MergeIter {
            tree: LoserTree::new(borrowed_cursors(runs)),
        }
    }
}

/// One borrowed cursor per run.
fn borrowed_cursors<'a>(runs: impl IntoIterator<Item = &'a Run>) -> Vec<MemCursor<&'a [u8]>> {
    runs.into_iter()
        .map(|r| MemCursor::over(r.bytes()))
        .collect()
}

impl<'a> Iterator for MergeIter<'a> {
    type Item = (&'a [u8], &'a [u8]);

    fn next(&mut self) -> Option<Self::Item> {
        let w = self.tree.winner()?;
        // Slice the run itself (`'a`), not the cursor: items outlive the step.
        let (buf, cur) = (self.tree.cursors[w].buf, self.tree.cursors[w].cur);
        self.tree
            .advance_winner()
            .expect("in-memory merge cannot fail");
        Some((cur.key(buf), cur.value(buf)))
    }
}

/// Merge runs into a single new [`Run`].
///
/// Output bytes are gathered record-slice by record-slice — input records
/// are already serialized, so no varint re-encoding happens. A single
/// non-empty input is returned by refcount clone (no byte copy).
pub fn merge_runs<'a, I>(runs: I) -> Run
where
    I: IntoIterator<Item = &'a Run>,
{
    let runs: Vec<&Run> = runs.into_iter().filter(|r| !r.is_empty()).collect();
    match runs.len() {
        0 => Run::default(),
        // Fast path: nothing to merge; Bytes-backed clone shares the buffer.
        1 => runs[0].clone(),
        _ => {
            let total: usize = runs.iter().map(|r| r.len_bytes()).sum();
            let mut bytes = Vec::with_capacity(total);
            let mut records = 0usize;
            let mut m = CursorMerge::new(borrowed_cursors(runs));
            while let Some(rec) = m.peek_rec() {
                bytes.extend_from_slice(rec);
                records += 1;
                m.advance().expect("in-memory merge cannot fail");
            }
            Run::from_sorted_bytes(bytes, records)
        }
    }
}

/// The records of `runs` as one [`Run`], by a sort instead of a merge:
/// each record's position and [`SortRef`] go into `buf` as the runs are
/// decoded, the sort-head radix orders them as [`SortBuf::sort_records`]
/// would (the heads read in the same pass, and again past a prefix all
/// the keys share, if they share one), and the record slices are
/// gathered in that order. The bytes are [`merge_runs`]'s — both order
/// by `(key, value)`, and equal records serialise identically — and so is
/// the path for fewer than two non-empty runs. `buf` grows to 48 bytes a
/// record (`radix::SORT_SPACE`) and keeps its capacity for the next call.
/// The store's tier-0 pre-merge (`TIER_FANIN` runs) is its caller.
pub fn sort_runs<'a, I>(runs: I, buf: &mut SortBuf) -> Run
where
    I: IntoIterator<Item = &'a Run>,
{
    let runs: Vec<&Run> = runs.into_iter().filter(|r| !r.is_empty()).collect();
    if runs.len() < 2 {
        return merge_runs(runs);
    }
    let records: usize = runs.iter().map(|r| r.records()).sum();
    buf.clear();
    buf.reserve_exact(records);
    let first = runs[0].iter().next().expect("a non-empty run").0;
    let mut skip = usize::MAX;
    for (group, run) in runs.iter().enumerate() {
        let group = u32::try_from(group).expect("under 4 Gi runs");
        let bytes = run.bytes();
        let mut at = 0;
        while at < bytes.len() {
            let rec = RecRef::decode(bytes, at).expect("corrupt run: malformed record");
            let key = rec.key(bytes);
            skip = shared_prefix(first, key, skip);
            let entry = u32::try_from(buf.recs.len()).expect("a run holds under 4 Gi records");
            buf.refs.push(SortRef {
                head: key_head(key),
                group,
                entry,
            });
            buf.recs.push(rec);
            at = rec.end();
        }
    }
    let arena = |group: u32| runs[group as usize].bytes();
    if skip > 0 {
        for r in &mut buf.refs {
            let key = buf.recs[r.entry as usize].key(arena(r.group));
            r.head = key_head(&key[skip..]);
        }
    }
    buf.sort_headed(arena);
    let mut bytes = Vec::with_capacity(runs.iter().map(|r| r.len_bytes()).sum());
    buf.write_records(arena, &mut bytes);
    Run::from_sorted_bytes(bytes, records)
}

/// The records of `runs` as one [`Run`] in which each key occurs once:
/// one loser-tree merge that copies a record whose key does not repeat
/// and folds a run of equal keys into one record by `combiner`, in merge
/// order. Returns the run and the records folded away. The bytes are the
/// same for any batching of the records only when `combiner` is
/// [`Combiner::order_free`]; the store's pre-merges, at every tier, are
/// its caller then.
pub fn fold_runs<'a, I>(runs: I, combiner: &dyn Combiner) -> (Run, usize)
where
    I: IntoIterator<Item = &'a Run>,
{
    let runs: Vec<&Run> = runs.into_iter().filter(|r| !r.is_empty()).collect();
    let inputs: usize = runs.iter().map(|r| r.records()).sum();
    let mut bytes = Vec::with_capacity(runs.iter().map(|r| r.len_bytes()).sum());
    let (mut records, mut acc) = (0, Vec::new());
    let mut tree = LoserTree::new(borrowed_cursors(runs));
    while let Some(w) = tree.winner() {
        // The run's own bytes (`'a`), which outlive the step.
        let (buf, cur, head) = (tree.cursors[w].buf, tree.cursors[w].cur, tree.heads[w]);
        let key = cur.key(buf);
        tree.advance_winner().expect("in-memory merge cannot fail");
        records += 1;
        if !tree.winner_has_key(head, key) {
            bytes.extend_from_slice(cur.rec(buf));
            continue;
        }
        acc.clear();
        acc.extend_from_slice(cur.value(buf));
        while tree.winner_has_key(head, key) {
            let w = tree.tree[0] as usize;
            combiner.combine(key, &mut acc, tree.cursors[w].value());
            tree.advance_winner().expect("in-memory merge cannot fail");
        }
        RecRef::write(&mut bytes, key, &acc);
    }
    // The caller takes the bytes the fold saved off the gauge: give the
    // allocator back the capacity that held them.
    bytes.shrink_to_fit();
    (Run::from_sorted_bytes(bytes, records), inputs - records)
}

/// K-way merge over cursors — a lending view, since a source's buffer may
/// be refilled on `advance` (framed spills). Peek, copy what you need,
/// advance.
pub struct CursorMerge<C: RunCursor> {
    tree: LoserTree<C>,
}

impl<C: RunCursor> CursorMerge<C> {
    /// Merge the given cursors (already positioned at their first record;
    /// exhausted ones are dropped).
    pub fn new(cursors: Vec<C>) -> Self {
        CursorMerge {
            tree: LoserTree::new(cursors),
        }
    }

    /// View the smallest remaining `(key, value)`, or `None` when done.
    #[inline]
    pub fn peek(&self) -> Option<(&[u8], &[u8])> {
        let w = self.tree.winner()?;
        let c = &self.tree.cursors[w];
        Some((c.key(), c.value()))
    }

    /// View the smallest remaining record's full serialized slice.
    #[inline]
    pub fn peek_rec(&self) -> Option<&[u8]> {
        let w = self.tree.winner()?;
        Some(self.tree.cursors[w].rec())
    }

    /// Step past the current record.
    #[inline]
    pub fn advance(&mut self) -> io::Result<()> {
        if self.tree.winner().is_some() {
            self.tree.advance_winner()?;
        }
        Ok(())
    }
}

/// The `(offset, len)` span `len` bytes take when appended to an arena
/// `arena_len` long, or `InvalidInput` when they would end beyond the
/// 4 GiB a span addresses.
fn span_at(arena_len: usize, len: usize) -> io::Result<(u32, u32)> {
    match arena_len.checked_add(len) {
        Some(end) if end <= u32::MAX as usize => Ok((arena_len as u32, len as u32)),
        _ => Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "reduce chunk arena exceeds the 4 GiB range limit",
        )),
    }
}

/// One key-group slice streamed out of a [`GroupedCursorMerge`]: the key
/// and value payloads were appended to the caller's arena, one
/// `(offset, len)` span per value to the caller's span list.
#[derive(Debug)]
pub struct GroupSlice {
    /// Key bytes in the arena, as `(offset, len)`.
    pub key: (u32, u32),
    /// The slice's values, in merge order: this range of the span list.
    pub values: Range<usize>,
    /// `true` when this slice completes its key (no more values follow).
    pub last: bool,
}

/// Key-grouped, bounded-memory view over a k-way merge of owned
/// cursors: each distinct key comes out once with its values in sorted
/// order, but instead of collecting a key's full value list (which for a
/// hot key can exceed memory), values stream out in caller-sized slices
/// copied into a caller-owned arena and span list — nothing is allocated
/// per key. A key whose values span multiple slices yields `last = false`
/// until its final slice — exactly the chunk-continuation contract the
/// reduce pipeline's scratch-state machinery expects. A folding merge
/// ([`GroupedCursorMerge::folding`]) instead hands out each key's values
/// combined into one, in one slice.
pub struct GroupedCursorMerge<C: RunCursor> {
    merge: CursorMerge<C>,
    /// The key being sliced; one buffer, refilled at each key start.
    key: Vec<u8>,
    /// `true` mid-key: the next slice continues `key` instead of
    /// starting a fresh one at the merge head.
    pending: bool,
    /// The order-free combiner a folding merge applies, and the value it
    /// folds into, one buffer refilled at each key.
    fold: Option<(Arc<dyn Combiner>, Vec<u8>)>,
}

impl<C: RunCursor> GroupedCursorMerge<C> {
    /// Group the merge of `cursors` by key.
    pub fn new(cursors: Vec<C>) -> Self {
        GroupedCursorMerge {
            merge: CursorMerge::new(cursors),
            key: Vec::new(),
            pending: false,
            fold: None,
        }
    }

    /// Group the merge of `cursors` by key, folding each key's values
    /// into one by `combiner`, which must be [`Combiner::order_free`]: a
    /// key's one value then does not depend on how its records were
    /// split across the cursors, nor on the slice size.
    pub fn folding(cursors: Vec<C>, combiner: Arc<dyn Combiner>) -> Self {
        assert!(
            combiner.order_free(),
            "a folding merge needs an order-free combiner"
        );
        GroupedCursorMerge {
            fold: Some((combiner, Vec::new())),
            ..Self::new(cursors)
        }
    }

    /// `true` when the next slice starts a new key (the previous slice,
    /// if any, was its key's last).
    pub fn at_key_start(&self) -> bool {
        !self.pending
    }

    /// Stream the next slice of up to `max_values` values of one key:
    /// key and value bytes are appended to `arena`, one span per value to
    /// `spans`; a folding merge's slice is a whole key's one folded value,
    /// whatever `max_values`. Returns `None` when the merge is exhausted, and
    /// `InvalidInput` if `arena` would outgrow the 4 GiB its spans address.
    pub fn next_slice(
        &mut self,
        max_values: usize,
        arena: &mut Vec<u8>,
        spans: &mut Vec<(u32, u32)>,
    ) -> io::Result<Option<GroupSlice>> {
        if !self.pending {
            let Some((k, _)) = self.merge.peek() else {
                return Ok(None);
            };
            self.key.clear();
            self.key.extend_from_slice(k);
        }
        let key = span_at(arena.len(), self.key.len())?;
        arena.extend_from_slice(&self.key);
        let first = spans.len();
        if let Some((combiner, acc)) = &mut self.fold {
            let (_, v) = self.merge.peek().expect("a key starts at a record");
            acc.clear();
            acc.extend_from_slice(v);
            self.merge.advance()?;
            while let Some((k, v)) = self.merge.peek() {
                if k != self.key.as_slice() {
                    break;
                }
                combiner.combine(&self.key, acc, v);
                self.merge.advance()?;
            }
            spans.push(span_at(arena.len(), acc.len())?);
            arena.extend_from_slice(acc);
            return Ok(Some(GroupSlice {
                key,
                values: first..spans.len(),
                last: true,
            }));
        }
        // One peek per record: the peek that finds the slice full is also
        // the one that tells whether the key goes on.
        let last = loop {
            match self.merge.peek() {
                Some((k, v)) if k == self.key.as_slice() => {
                    if spans.len() - first >= max_values {
                        break false;
                    }
                    spans.push(span_at(arena.len(), v.len())?);
                    arena.extend_from_slice(v);
                }
                _ => break true,
            }
            self.merge.advance()?;
        };
        self.pending = !last;
        Ok(Some(GroupSlice {
            key,
            values: first..spans.len(),
            last,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::combine::U64Sum;
    use crate::kv::{run_from_pairs, RunBuilder, RunIter};
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    type Groups = Vec<(Vec<u8>, Vec<Vec<u8>>)>;

    /// Reference grouping: the borrowed merge's records folded by key.
    fn grouped<'a>(runs: impl IntoIterator<Item = &'a Run>) -> Groups {
        let mut out: Groups = Vec::new();
        for (k, v) in MergeIter::new(runs) {
            match out.last_mut() {
                Some((key, values)) if key == k => values.push(v.to_vec()),
                _ => out.push((k.to_vec(), vec![v.to_vec()])),
            }
        }
        out
    }

    /// The engine's path: `runs` streamed through a [`GroupedCursorMerge`]
    /// in slices of `max_values`, reassembled per key; checks the
    /// last-flag protocol (continuations keep their key, only a key's
    /// final slice may be short) on the way.
    fn grouped_by_cursors<'a>(
        runs: impl IntoIterator<Item = &'a Run>,
        max_values: usize,
    ) -> Groups {
        let cursors = runs
            .into_iter()
            .map(|r| MemCursor::new(r.clone()))
            .collect();
        let mut gm = GroupedCursorMerge::new(cursors);
        let (mut arena, mut spans) = (Vec::new(), Vec::new());
        let mut got: Groups = Vec::new();
        let mut prev_last = true;
        while let Some(s) = gm.next_slice(max_values, &mut arena, &mut spans).unwrap() {
            assert_eq!(s.values.end, spans.len(), "a slice's spans are the newest");
            let bytes = |(off, len): (u32, u32)| arena[off as usize..(off + len) as usize].to_vec();
            let values = spans[s.values.clone()].iter().map(|&r| bytes(r));
            if prev_last {
                got.push((bytes(s.key), values.collect()));
            } else {
                let cur = got.last_mut().unwrap();
                assert_eq!(cur.0, bytes(s.key), "continuation keeps its key");
                cur.1.extend(values);
            }
            if !s.last {
                assert_eq!(s.values.len(), max_values, "non-final slices are full");
            }
            prev_last = s.last;
        }
        let emitted: usize = got.iter().map(|(_, vs)| vs.len()).sum();
        assert_eq!(spans.len(), emitted, "one span per value, none per key");
        got
    }

    #[test]
    fn merge_interleaves_in_order() {
        let a = run_from_pairs([(b"a".as_slice(), b"1".as_slice()), (b"c", b"3")]);
        let b = run_from_pairs([(b"b".as_slice(), b"2".as_slice()), (b"d", b"4")]);
        let merged: Vec<(Vec<u8>, Vec<u8>)> = MergeIter::new([&a, &b])
            .map(|(k, v)| (k.to_vec(), v.to_vec()))
            .collect();
        let keys: Vec<&[u8]> = merged.iter().map(|(k, _)| k.as_slice()).collect();
        assert_eq!(keys, [b"a".as_slice(), b"b", b"c", b"d"]);
    }

    #[test]
    fn merge_of_empty_inputs_is_empty() {
        let runs: Vec<Run> = vec![RunBuilder::new().build(); 3];
        assert_eq!(MergeIter::new(runs.iter()).count(), 0);
        assert!(merge_runs(&runs).is_empty());
    }

    #[test]
    fn single_run_merge_shares_the_buffer() {
        let a = run_from_pairs([(b"a".as_slice(), b"1".as_slice()), (b"b", b"2")]);
        let empty = RunBuilder::new().build();
        let merged = merge_runs([&empty, &a, &empty]);
        // No byte copy: the merged run IS the single non-empty input.
        assert_eq!(merged.bytes().as_ptr(), a.bytes().as_ptr());
        assert_eq!(merged.records(), 2);
    }

    #[test]
    fn grouped_merge_collects_values_across_runs() {
        let a = run_from_pairs([(b"x".as_slice(), b"1".as_slice()), (b"y", b"2")]);
        let b = run_from_pairs([(b"x".as_slice(), b"3".as_slice())]);
        let groups = grouped_by_cursors([&a, &b], 16);
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0].0, b"x");
        assert_eq!(groups[0].1, vec![b"1".to_vec(), b"3".to_vec()]);
        assert_eq!(groups[1].0, b"y");
    }

    #[test]
    fn merge_runs_produces_sorted_run() {
        let a = run_from_pairs([(b"m".as_slice(), b"".as_slice()), (b"z", b"")]);
        let b = run_from_pairs([(b"a".as_slice(), b"".as_slice()), (b"m", b"")]);
        let merged = merge_runs(&[a, b]);
        assert!(merged.check_sorted());
        assert_eq!(merged.records(), 4);
    }

    #[test]
    fn cursor_merge_matches_merge_iter() {
        let runs = [
            run_from_pairs([(b"a".as_slice(), b"1".as_slice()), (b"m", b"2")]),
            run_from_pairs([(b"a".as_slice(), b"0".as_slice()), (b"z", b"9")]),
            RunBuilder::new().build(),
        ];
        let borrowed: Vec<(Vec<u8>, Vec<u8>)> = MergeIter::new(runs.iter())
            .map(|(k, v)| (k.to_vec(), v.to_vec()))
            .collect();
        assert_eq!(drain_owned(&runs), borrowed);
    }

    #[test]
    fn grouped_cursor_merge_slices_match_grouped_merge() {
        let runs = [
            run_from_pairs((0..40).map(|_| (b"hot".as_slice(), b"v".as_slice()))),
            run_from_pairs([(b"cold".as_slice(), b"1".as_slice()), (b"hot", b"v")]),
        ];
        // 41 "hot" values streamed in slices of 16: two full continuation
        // slices, then a short final one.
        assert_eq!(grouped_by_cursors(runs.iter(), 16), grouped(runs.iter()));
    }

    /// Reference model: the previous `BinaryHeap`-based merge, preserved
    /// here verbatim so the loser tree is checked against it
    /// record-for-record.
    mod heap_reference {
        use super::RunIter;
        use crate::kv::Run;
        use std::cmp::Ordering;
        use std::collections::BinaryHeap;

        pub struct HeapMerge<'a> {
            heap: BinaryHeap<Entry<'a>>,
        }

        struct Entry<'a> {
            key: &'a [u8],
            value: &'a [u8],
            src: usize,
            iter: RunIter<'a>,
        }

        impl PartialEq for Entry<'_> {
            fn eq(&self, other: &Self) -> bool {
                self.cmp(other) == Ordering::Equal
            }
        }
        impl Eq for Entry<'_> {}
        impl PartialOrd for Entry<'_> {
            fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
                Some(self.cmp(other))
            }
        }
        impl Ord for Entry<'_> {
            fn cmp(&self, other: &Self) -> Ordering {
                (other.key, other.value, other.src).cmp(&(self.key, self.value, self.src))
            }
        }

        impl<'a> HeapMerge<'a> {
            pub fn new<I: IntoIterator<Item = &'a Run>>(runs: I) -> Self {
                let mut heap = BinaryHeap::new();
                for (src, run) in runs.into_iter().enumerate() {
                    let mut iter = run.iter();
                    if let Some((key, value)) = iter.next() {
                        heap.push(Entry {
                            key,
                            value,
                            src,
                            iter,
                        });
                    }
                }
                HeapMerge { heap }
            }
        }

        impl<'a> Iterator for HeapMerge<'a> {
            type Item = (&'a [u8], &'a [u8]);
            fn next(&mut self) -> Option<Self::Item> {
                let mut top = self.heap.pop()?;
                let out = (top.key, top.value);
                if let Some((key, value)) = top.iter.next() {
                    top.key = key;
                    top.value = value;
                    self.heap.push(top);
                }
                Some(out)
            }
        }
    }

    fn runs_from(pair_lists: &[Vec<(Vec<u8>, Vec<u8>)>]) -> Vec<Run> {
        pair_lists
            .iter()
            .map(|pairs| {
                let mut b = RunBuilder::new();
                for (k, v) in pairs {
                    b.push(k, v);
                }
                b.build()
            })
            .collect()
    }

    /// Every record of the merge over owned cursors, one per run.
    fn drain_owned(runs: &[Run]) -> Vec<(Vec<u8>, Vec<u8>)> {
        let mut m = CursorMerge::new(runs.iter().map(|r| MemCursor::new(r.clone())).collect());
        let mut out = Vec::new();
        while let Some((k, v)) = m.peek() {
            out.push((k.to_vec(), v.to_vec()));
            m.advance().unwrap();
        }
        out
    }

    /// `0..=max_len` bytes crowding the [`SortHead`] boundaries: one fill
    /// byte from `{0x00, 0x01, 0xFF}` with up to two trailing bytes drawn
    /// again, so strings share long prefixes — zero padding, all-`0xFF`
    /// heads, and ties that run to the head's last byte and past it.
    fn boundary_bytes(max_len: usize) -> impl Strategy<Value = Vec<u8>> {
        let byte = || (0usize..3).prop_map(|i| [0x00u8, 0x01, 0xFF][i]);
        (
            byte(),
            0..max_len + 1,
            proptest::collection::vec(byte(), 0..3),
        )
            .prop_map(|(fill, len, tail)| {
                let mut bytes = vec![fill; len];
                let keep = len.saturating_sub(tail.len());
                bytes[keep..].copy_from_slice(&tail[..len - keep]);
                bytes
            })
    }

    /// Pair lists for up to 7 runs of up to 29 records: keys of 0–20
    /// bytes and values of 0–12 from [`boundary_bytes`], either side of
    /// the head's 16 and 8.
    fn boundary_runs() -> impl Strategy<Value = Vec<Vec<(Vec<u8>, Vec<u8>)>>> {
        proptest::collection::vec(
            proptest::collection::vec((boundary_bytes(20), boundary_bytes(12)), 0..30),
            0..8,
        )
    }

    /// Records on which both kernels' heads tie: keys sharing a 13-byte
    /// prefix, keys that differ only by trailing zero bytes (`a`, `a\0`),
    /// and equal keys with values longer than 8 bytes. The alphabet is
    /// small, so records repeat within and across runs.
    fn tie_record() -> impl Strategy<Value = (Vec<u8>, Vec<u8>)> {
        let tail = || 0u8..3;
        let key = prop_oneof![
            Just(Vec::new()),
            Just(b"a".to_vec()),
            Just(b"a\0".to_vec()),
            Just(b"a\0\0".to_vec()),
            tail().prop_map(|b| [b"shared-prefix".as_slice(), &[b]].concat()),
            tail().prop_map(|b| [b"shared-prefix\0".as_slice(), &[b]].concat()),
        ];
        let value = prop_oneof![
            Just(Vec::new()),
            Just(b"1".to_vec()),
            tail().prop_map(|b| [b"value-past-8-bytes".as_slice(), &[b]].concat()),
        ];
        (key, value)
    }

    /// Pair lists for a tier's worth of runs, empty ones among them — or
    /// one non-empty run among empty ones, which both kernels return by
    /// refcount clone.
    fn tier_runs() -> impl Strategy<Value = Vec<Vec<(Vec<u8>, Vec<u8>)>>> {
        let run = || proptest::collection::vec(tie_record(), 0..24);
        let lone = (
            proptest::collection::vec(tie_record(), 1..24),
            0..3usize,
            0..3usize,
        )
            .prop_map(|(run, before, after)| {
                let mut runs = vec![Vec::new(); before];
                runs.push(run);
                runs.extend(vec![Vec::new(); after]);
                runs
            });
        prop_oneof![proptest::collection::vec(run(), 0..TIER_FANIN + 2), lone,]
    }

    /// Keys for a fold: a few short ones, one that fills the head's 16
    /// bytes exactly, and longer ones that tie through it.
    fn folding_key() -> impl Strategy<Value = Vec<u8>> {
        prop_oneof![
            proptest::collection::vec(0u8..3, 0..3),
            Just(b"sixteen-byte-key".to_vec()),
            (0u8..3).prop_map(|b| [b"sixteen-byte-key".as_slice(), &[b]].concat()),
        ]
    }

    #[test]
    fn all_ones_record_beats_an_exhausted_cursor() {
        // The one live head whose prefixes equal the exhausted sentinel's.
        let ones = run_from_pairs([([0xFF; 16].as_slice(), [0xFF; 8].as_slice())]);
        let dry = run_from_pairs([(b"a".as_slice(), b"".as_slice())]);
        // The exhausted source has the lower index: a tie would go to it
        // and end the merge one record early.
        let mut tree = LoserTree::new(borrowed_cursors([&dry, &ones]));
        assert_eq!(tree.winner(), Some(0));
        tree.advance_winner().unwrap();
        assert!(tree.beats(1, 0) && !tree.beats(0, 1));
        assert_eq!(tree.winner(), Some(1));
        tree.advance_winner().unwrap();
        assert_eq!(tree.winner(), None);
        assert_eq!(MergeIter::new([&ones, &dry]).count(), 2);
    }

    #[test]
    fn spans_stop_at_the_4_gib_limit() {
        let max = u32::MAX as usize;
        assert_eq!(span_at(0, 0).unwrap(), (0, 0));
        assert_eq!(span_at(max - 8, 8).unwrap(), (u32::MAX - 8, 8));
        assert_eq!(span_at(max, 0).unwrap(), (u32::MAX, 0));
        for (arena_len, len) in [(max - 8, 9), (max, 1), (0, max + 1), (1, usize::MAX)] {
            let err = span_at(arena_len, len).unwrap_err();
            assert_eq!(
                err.kind(),
                io::ErrorKind::InvalidInput,
                "{arena_len} + {len}"
            );
        }
    }

    #[test]
    fn loser_tree_matches_heap_with_duplicates_and_empties() {
        let built = runs_from(&[
            vec![
                (b"a".to_vec(), b"1".to_vec()),
                (b"a".to_vec(), b"1".to_vec()),
            ],
            vec![],
            vec![
                (b"a".to_vec(), b"1".to_vec()),
                (b"b".to_vec(), b"2".to_vec()),
            ],
            vec![],
            vec![(b"a".to_vec(), b"0".to_vec())],
        ]);
        let tree: Vec<_> = MergeIter::new(built.iter()).collect();
        let heap: Vec<_> = heap_reference::HeapMerge::new(built.iter()).collect();
        assert_eq!(tree, heap);
    }

    proptest! {
        #[test]
        fn merge_equals_sorted_concat(
            runs in proptest::collection::vec(
                proptest::collection::vec(
                    (proptest::collection::vec(any::<u8>(), 0..8),
                     proptest::collection::vec(any::<u8>(), 0..8)), 0..40),
                0..6))
        {
            let built = runs_from(&runs);
            let merged: Vec<(Vec<u8>, Vec<u8>)> = MergeIter::new(built.iter())
                .map(|(k, v)| (k.to_vec(), v.to_vec()))
                .collect();
            let mut expect: Vec<(Vec<u8>, Vec<u8>)> =
                runs.into_iter().flatten().collect();
            expect.sort();
            prop_assert_eq!(merged, expect);
        }

        /// The sort head decides what the bytes would: the tree's
        /// `(key, value, source)` sequence is `sort()` on those triples,
        /// on inputs that tie through the head's last byte, pad with
        /// zeros, fill it with `0xFF` and overrun it into the fallback.
        #[test]
        fn head_order_is_byte_order(runs in boundary_runs()) {
            // Empty runs are dropped by the tree; drop them here so source
            // indices line up.
            let built: Vec<Run> =
                runs_from(&runs).into_iter().filter(|r| !r.is_empty()).collect();
            let mut expect: Vec<(Vec<u8>, Vec<u8>, usize)> = built
                .iter()
                .enumerate()
                .flat_map(|(src, r)| r.iter().map(move |(k, v)| (k.to_vec(), v.to_vec(), src)))
                .collect();
            expect.sort();
            let mut tree = LoserTree::new(borrowed_cursors(&built));
            let mut got = Vec::new();
            while let Some(w) = tree.winner() {
                let c = &tree.cursors[w];
                got.push((c.key().to_vec(), c.value().to_vec(), w));
                tree.advance_winner().unwrap();
            }
            prop_assert_eq!(got, expect);
        }

        /// Tentpole determinism contract: the loser tree emits the exact
        /// record sequence of the previous BinaryHeap merge — duplicate
        /// keys, duplicate records, and empty runs included — and
        /// [`merge_runs`] serializes that sequence byte-identically.
        #[test]
        fn loser_tree_equals_heap_record_for_record(runs in boundary_runs()) {
            let built = runs_from(&runs);
            let tree: Vec<(Vec<u8>, Vec<u8>)> = MergeIter::new(built.iter())
                .map(|(k, v)| (k.to_vec(), v.to_vec()))
                .collect();
            let heap: Vec<(Vec<u8>, Vec<u8>)> =
                heap_reference::HeapMerge::new(built.iter())
                    .map(|(k, v)| (k.to_vec(), v.to_vec()))
                    .collect();
            prop_assert_eq!(&tree, &heap);

            // Byte identity of the materialized merge vs. serializing the
            // heap's record sequence.
            let merged = merge_runs(built.iter());
            let mut expect_bytes = Vec::new();
            for (k, v) in &heap {
                gw_storage::varint::write_len(&mut expect_bytes, k.len());
                gw_storage::varint::write_len(&mut expect_bytes, v.len());
                expect_bytes.extend_from_slice(k);
                expect_bytes.extend_from_slice(v);
            }
            prop_assert_eq!(merged.bytes(), expect_bytes.as_slice());
        }

        /// The store's tier-0 sort writes [`merge_runs`]'s bytes, and a
        /// sort buffer left by one sort serves the next.
        #[test]
        fn sorted_runs_are_the_merged_bytes(runs in tier_runs()) {
            let built = runs_from(&runs);
            let merged = merge_runs(&built);
            let mut buf = SortBuf::default();
            let sorted = sort_runs(&built, &mut buf);
            prop_assert_eq!(sorted.bytes(), merged.bytes());
            prop_assert_eq!(sorted.records(), merged.records());
            let reversed = sort_runs(built.iter().rev(), &mut buf);
            prop_assert_eq!(reversed.bytes(), merged.bytes());
            let mut live = built.iter().filter(|r| !r.is_empty());
            if let (Some(lone), None) = (live.next(), live.next()) {
                prop_assert_eq!(sorted.bytes().as_ptr(), lone.bytes().as_ptr());
            }
            // Behind a prefix every key shares, which the heads skip.
            let prefixed: Vec<Vec<(Vec<u8>, Vec<u8>)>> = runs
                .iter()
                .map(|run| {
                    let key = |k: &Vec<u8>| [b"shared-by-all".as_slice(), k].concat();
                    run.iter().map(|(k, v)| (key(k), v.clone())).collect()
                })
                .collect();
            let built = runs_from(&prefixed);
            let (sorted, merged) = (sort_runs(&built, &mut buf), merge_runs(&built));
            prop_assert_eq!(sorted.bytes(), merged.bytes());
        }

        /// A fold writes each key once, with its values' sum, and the same
        /// bytes for any order of its runs; the folding grouped merge hands
        /// out the same sums, one value a key in one slice, at any slice
        /// size. Keys tie through the head's 16 bytes and run past them.
        #[test]
        fn folded_runs_are_each_keys_sum(
            runs in proptest::collection::vec(
                proptest::collection::vec((folding_key(), 0u64..1000), 0..24),
                0..TIER_FANIN + 2),
            max_values in 1usize..4)
        {
            let pairs: Vec<Vec<(Vec<u8>, Vec<u8>)>> = runs
                .iter()
                .map(|run| run.iter().map(|(k, n)| (k.clone(), n.to_le_bytes().to_vec())).collect())
                .collect();
            let built = runs_from(&pairs);
            let mut sums: BTreeMap<Vec<u8>, u64> = BTreeMap::new();
            for (k, n) in runs.iter().flatten() {
                *sums.entry(k.clone()).or_default() += n;
            }
            let expect: Vec<(Vec<u8>, u64)> = sums.into_iter().collect();
            let (folded, combined) = fold_runs(&built, &U64Sum);
            let got: Vec<(Vec<u8>, u64)> =
                folded.iter().map(|(k, v)| (k.to_vec(), U64Sum::read(v))).collect();
            prop_assert_eq!(&got, &expect);
            prop_assert_eq!(folded.records() + combined, built.iter().map(Run::records).sum::<usize>());
            let (reversed, _) = fold_runs(built.iter().rev(), &U64Sum);
            prop_assert_eq!(reversed.bytes(), folded.bytes());

            let cursors = built.iter().map(|r| MemCursor::new(r.clone())).collect();
            let mut gm = GroupedCursorMerge::folding(cursors, Arc::new(U64Sum));
            let (mut arena, mut spans) = (Vec::new(), Vec::new());
            let mut grouped = Vec::new();
            while let Some(s) = gm.next_slice(max_values, &mut arena, &mut spans).unwrap() {
                prop_assert!(s.last && s.values.len() == 1 && gm.at_key_start());
                let bytes = |(off, len): (u32, u32)| arena[off as usize..][..len as usize].to_vec();
                grouped.push((bytes(s.key), U64Sum::read(&bytes(spans[s.values.start]))));
            }
            prop_assert_eq!(grouped, expect);
        }

        /// The external cursor merge emits the exact record sequence of
        /// the borrowed merge for any mix of runs — the contract that
        /// lets spilled and cached data merge interchangeably.
        #[test]
        fn cursor_merge_equals_borrowed_merge(runs in boundary_runs()) {
            let built = runs_from(&runs);
            let borrowed: Vec<(Vec<u8>, Vec<u8>)> = MergeIter::new(built.iter())
                .map(|(k, v)| (k.to_vec(), v.to_vec()))
                .collect();
            prop_assert_eq!(drain_owned(&built), borrowed);
        }

        /// Streamed group slices reassemble to exactly the grouped merge:
        /// same keys in order (each exactly once), same per-key value
        /// lists, full slices everywhere except each key's final slice.
        #[test]
        fn grouped_cursor_slices_reassemble(
            pairs in proptest::collection::vec(
                (proptest::collection::vec(0u8..3, 0..3),
                 proptest::collection::vec(0u8..3, 0..3)), 0..120),
            max_values in 1usize..8)
        {
            let run = {
                let mut b = RunBuilder::new();
                for (k, v) in &pairs {
                    b.push(k, v);
                }
                b.build()
            };
            let got = grouped_by_cursors([&run], max_values);
            prop_assert_eq!(&got, &grouped([&run]));
            let total: usize = got.iter().map(|(_, vs)| vs.len()).sum();
            prop_assert_eq!(total, pairs.len());
            prop_assert!(got.windows(2).all(|w| w[0].0 < w[1].0));
        }
    }
}
