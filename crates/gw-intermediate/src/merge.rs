//! K-way merging of sorted runs, in memory or external.
//!
//! Used in three places, exactly as in the paper: merging cached runs
//! before a flush, continuously merging spilled runs to bound the file
//! count, and the reduce input reader's "one last merge operation" that
//! presents a consistent, key-grouped view of a partition's data.
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
//! Output order is `(key, value, source index)` — record-for-record
//! identical to the previous heap merge. Equal `(key, value)` records
//! are byte-identical regardless of which source they came from, so the
//! merged byte stream does not depend on how records were split across
//! runs and spills: the determinism contract survives spilling.

use crate::cursor::{MemCursor, RunCursor};
use crate::kv::Run;

/// The shared loser-tree core, generic over cursor sources.
///
/// `tree[0]` is the overall winner, `tree[1..k]` hold the losers of each
/// internal match; the leaf of source `s` is node `k + s`. Exhausted
/// (`done`) cursors are filtered at construction, and ties break by
/// source index, matching the original heap's `(key, value, src)` order.
pub(crate) struct LoserTree<C: RunCursor> {
    pub(crate) cursors: Vec<C>,
    tree: Vec<usize>,
}

impl<C: RunCursor> LoserTree<C> {
    pub(crate) fn new(cursors: Vec<C>) -> Self {
        let cursors: Vec<C> = cursors.into_iter().filter(|c| !c.done()).collect();
        let k = cursors.len();
        let mut t = LoserTree {
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
    #[inline]
    fn beats(&self, a: usize, b: usize) -> bool {
        let (ca, cb) = (&self.cursors[a], &self.cursors[b]);
        match (ca.done(), cb.done()) {
            (true, _) => false,
            (false, true) => true,
            // Values are only sliced when the keys tie.
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
    fn play(&mut self, node: usize) -> usize {
        let k = self.cursors.len();
        if node >= k {
            return node - k; // leaf: the source itself
        }
        let a = self.play(2 * node);
        let b = self.play(2 * node + 1);
        if self.beats(a, b) {
            self.tree[node] = b;
            a
        } else {
            self.tree[node] = a;
            b
        }
    }

    /// The winning source index, or `None` when all are exhausted.
    #[inline]
    pub(crate) fn winner(&self) -> Option<usize> {
        if self.cursors.is_empty() {
            return None;
        }
        let w = self.tree[0];
        if self.cursors[w].done() {
            None
        } else {
            Some(w)
        }
    }

    /// Advance the current winner's cursor and replay its leaf-to-root
    /// path. The only fallible step of a merge (spill cursors touch disk).
    pub(crate) fn advance_winner(&mut self) -> std::io::Result<()> {
        let s = self.tree[0];
        self.cursors[s].advance()?;
        let k = self.cursors.len();
        let mut winner = s;
        let mut t = (k + s) / 2;
        while t >= 1 {
            let other = self.tree[t];
            if self.beats(other, winner) {
                self.tree[t] = winner;
                winner = other;
            }
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

/// K-way merge over cursors — a lending view, since a source's buffer may
/// be refilled on `advance` (framed spills). Peek, copy what you need,
/// advance.
pub struct CursorMerge<C: RunCursor = Box<dyn RunCursor>> {
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
    pub fn peek(&self) -> Option<(&[u8], &[u8])> {
        let w = self.tree.winner()?;
        let c = &self.tree.cursors[w];
        Some((c.key(), c.value()))
    }

    /// View the smallest remaining record's full serialized slice.
    pub fn peek_rec(&self) -> Option<&[u8]> {
        let w = self.tree.winner()?;
        Some(self.tree.cursors[w].rec())
    }

    /// Step past the current record.
    pub fn advance(&mut self) -> std::io::Result<()> {
        if self.tree.winner().is_some() {
            self.tree.advance_winner()?;
        }
        Ok(())
    }
}

/// One key-group slice streamed out of a [`GroupedCursorMerge`]: the key
/// and value payloads were appended to the caller's arena, and the
/// ranges here point into it (`(offset, len)` pairs).
#[derive(Debug)]
pub struct GroupSlice {
    /// Key bytes in the arena.
    pub key: (u32, u32),
    /// Value byte ranges in the arena, in merge order.
    pub values: Vec<(u32, u32)>,
    /// `true` when this slice completes its key (no more values follow).
    pub last: bool,
}

/// Key-grouped, bounded-memory view over a k-way merge of owned
/// cursors: each distinct key comes out once with its values in sorted
/// order, but instead of collecting a key's full value list (which for a
/// hot key can exceed memory), values stream out in caller-sized slices
/// copied into a caller-owned arena. A key whose values span multiple
/// slices yields `last = false` until its final slice — exactly the
/// chunk-continuation contract the reduce pipeline's scratch-state
/// machinery expects.
pub struct GroupedCursorMerge<C: RunCursor = Box<dyn RunCursor>> {
    merge: CursorMerge<C>,
    /// Owned copy of the key mid-slicing (`None` = next slice starts a
    /// fresh key at the merge head).
    pending: Option<Vec<u8>>,
}

impl<C: RunCursor> GroupedCursorMerge<C> {
    /// Group the merge of `cursors` by key.
    pub fn new(cursors: Vec<C>) -> Self {
        GroupedCursorMerge {
            merge: CursorMerge::new(cursors),
            pending: None,
        }
    }

    /// `true` when the next slice starts a new key (the previous slice,
    /// if any, was its key's last).
    pub fn at_key_start(&self) -> bool {
        self.pending.is_none()
    }

    /// Stream the next slice of up to `max_values` values of one key into
    /// `arena`. Returns `None` when the merge is exhausted.
    pub fn next_slice(
        &mut self,
        max_values: usize,
        arena: &mut Vec<u8>,
    ) -> std::io::Result<Option<GroupSlice>> {
        let key: Vec<u8> = match self.pending.take() {
            Some(k) => k,
            None => match self.merge.peek() {
                Some((k, _)) => k.to_vec(),
                None => return Ok(None),
            },
        };
        assert!(
            arena.len() + key.len() <= u32::MAX as usize,
            "reduce chunk arena exceeds the 4 GiB range limit"
        );
        let key_off = arena.len() as u32;
        arena.extend_from_slice(&key);
        let mut values: Vec<(u32, u32)> = Vec::new();
        while values.len() < max_values {
            let matched = match self.merge.peek() {
                Some((k, v)) if k == key.as_slice() => {
                    assert!(
                        arena.len() + v.len() <= u32::MAX as usize,
                        "reduce chunk arena exceeds the 4 GiB range limit"
                    );
                    let off = arena.len() as u32;
                    arena.extend_from_slice(v);
                    values.push((off, v.len() as u32));
                    true
                }
                _ => false,
            };
            if !matched {
                break;
            }
            self.merge.advance()?;
        }
        let last = match self.merge.peek() {
            Some((k, _)) => k != key.as_slice(),
            None => true,
        };
        let slice = GroupSlice {
            key: (key_off, key.len() as u32),
            values,
            last,
        };
        if !last {
            self.pending = Some(key);
        }
        Ok(Some(slice))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kv::{run_from_pairs, RunBuilder, RunIter};
    use proptest::prelude::*;

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
        let cursors: Vec<Box<dyn RunCursor>> = runs
            .into_iter()
            .map(|r| Box::new(MemCursor::new(r.clone())) as Box<dyn RunCursor>)
            .collect();
        let mut gm = GroupedCursorMerge::new(cursors);
        let mut arena = Vec::new();
        let mut got: Groups = Vec::new();
        let mut prev_last = true;
        while let Some(s) = gm.next_slice(max_values, &mut arena).unwrap() {
            let bytes = |(off, len): (u32, u32)| arena[off as usize..(off + len) as usize].to_vec();
            let values = s.values.iter().map(|&r| bytes(r));
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
        let cursors: Vec<Box<dyn RunCursor>> = runs
            .iter()
            .map(|r| Box::new(MemCursor::new(r.clone())) as Box<dyn RunCursor>)
            .collect();
        let mut m = CursorMerge::new(cursors);
        let mut external = Vec::new();
        while let Some((k, v)) = m.peek() {
            external.push((k.to_vec(), v.to_vec()));
            m.advance().unwrap();
        }
        assert_eq!(external, borrowed);
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

        /// Tentpole determinism contract: the loser tree emits the exact
        /// record sequence of the previous BinaryHeap merge — duplicate
        /// keys, duplicate records, and empty runs included — and
        /// [`merge_runs`] serializes that sequence byte-identically.
        #[test]
        fn loser_tree_equals_heap_record_for_record(
            runs in proptest::collection::vec(
                proptest::collection::vec(
                    (proptest::collection::vec(0u8..5, 0..4),
                     proptest::collection::vec(0u8..5, 0..3)), 0..30),
                0..8))
        {
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

        /// The external cursor merge emits the exact record sequence of
        /// the borrowed merge for any mix of runs — the contract that
        /// lets spilled and cached data merge interchangeably.
        #[test]
        fn cursor_merge_equals_borrowed_merge(
            runs in proptest::collection::vec(
                proptest::collection::vec(
                    (proptest::collection::vec(0u8..5, 0..4),
                     proptest::collection::vec(0u8..5, 0..3)), 0..30),
                0..8))
        {
            let built = runs_from(&runs);
            let borrowed: Vec<(Vec<u8>, Vec<u8>)> = MergeIter::new(built.iter())
                .map(|(k, v)| (k.to_vec(), v.to_vec()))
                .collect();
            let cursors: Vec<Box<dyn RunCursor>> = built
                .iter()
                .map(|r| Box::new(MemCursor::new(r.clone())) as Box<dyn RunCursor>)
                .collect();
            let mut m = CursorMerge::new(cursors);
            let mut external = Vec::new();
            while let Some((k, v)) = m.peek() {
                external.push((k.to_vec(), v.to_vec()));
                m.advance().unwrap();
            }
            prop_assert_eq!(external, borrowed);
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
