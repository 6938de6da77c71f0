//! MSB radix over fixed-width sort heads.
//!
//! Every sort of records by key in the map pipeline — a [`crate::RunBuilder`]
//! building a run, a partition lane ordering its collector slots — sorts
//! [`SortRef`]s, not records: 16 bytes holding the key's *head* (eight key
//! bytes, zero-padded, read big-endian, after any prefix all the sorted keys
//! share — [`shared_prefix`]) and two `u32`s the caller uses to find the
//! record. A most-significant-byte-first radix pass buckets the
//! refs by head bytes without reading a record; it starts at the highest
//! byte in which the refs' heads differ, so a shared prefix costs one pass
//! over the heads, not one per byte. Buckets of at most 32 refs are
//! comparison-sorted on the head. Only refs whose heads are equal reach the
//! caller's `tie`, which reads the full bytes. This is the `SortKey` +
//! `fast_smart_radix_sort` shape of k-mer counters (SNIPPETS.md), with the
//! key prefix inline so that the sort streams over one array.
//!
//! ## Determinism contract
//!
//! A zero-padded head orders as the key bytes do whenever the heads differ:
//! a difference inside the first eight bytes orders both the same way, and a
//! key that is a prefix of another pads with zeros, the least byte. Heads
//! only tie for keys that agree on their first eight bytes or differ by
//! trailing zero bytes (`a` and `a\0`), and `tie` decides those. Skipping a
//! prefix every key shares changes none of this. The order
//! produced is therefore `(head, tie)` — for [`crate::RunBuilder`], whose
//! `tie` compares `(key, value)`, exactly `sort_unstable()` on owned pairs:
//! records equal in both key and value serialize identically, so run bytes
//! are byte-for-byte what a comparison sort emits — the shuffle
//! de-duplication of re-executed map tasks relies on this.

use std::cmp::Ordering;

use gw_storage::varint::RecRef;

/// Below this many refs a bucket is comparison-sorted; the radix machinery
/// only pays off on larger buckets.
const SMALL: usize = 32;

/// One record's place in a sort: its key's head and where the record is.
/// What `group` and `entry` mean is the sorter's business; the radix only
/// moves them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SortRef {
    /// Eight key bytes, zero-padded, big-endian ([`key_head`]), read past
    /// any prefix every key of the sort shares.
    pub head: u64,
    /// Which source the record lives in (a work-group, a shard).
    pub group: u32,
    /// Where in that source.
    pub entry: u32,
}

/// `key`'s first eight bytes, zero-padded, as a big-endian integer.
#[inline]
pub fn key_head(key: &[u8]) -> u64 {
    if let Some(head) = key.first_chunk::<8>() {
        return u64::from_be_bytes(*head);
    }
    let mut head = [0u8; 8];
    head[..key.len()].copy_from_slice(key);
    u64::from_be_bytes(head)
}

/// Bytes a [`SortBuf`] holds for each record it sorts: its ref, its
/// position and a ref's worth of scatter space (48).
pub(crate) const SORT_SPACE: usize =
    2 * std::mem::size_of::<SortRef>() + std::mem::size_of::<RecRef>();

/// The buffers one sort works in, reusable across sorts (a
/// [`crate::RunPool`] recycles them): the refs to sort, record positions
/// the refs may point at, and the radix's scatter space.
#[derive(Debug, Default)]
pub struct SortBuf {
    /// The refs to sort.
    pub refs: Vec<SortRef>,
    /// Record positions, for a sorter whose refs name records by index.
    pub recs: Vec<RecRef>,
    spare: Vec<SortRef>,
}

impl SortBuf {
    /// Sort `refs` by head, ordering refs with equal heads by `tie`, which
    /// is handed `recs` along with the two refs.
    pub fn sort_by(&mut self, mut tie: impl FnMut(&[RecRef], &SortRef, &SortRef) -> Ordering) {
        let SortBuf { refs, recs, spare } = self;
        if refs.len() <= 1 {
            return;
        }
        if spare.len() < refs.len() {
            spare.resize(refs.len(), SortRef::default());
        }
        sort_heads(refs, spare, &mut |a, b| tie(recs, a, b));
    }

    /// Sort `refs`, each naming record `recs[entry]` inside `arena(group)`,
    /// by `(key, value)` bytes — `sort_unstable()` on owned pairs. Heads are
    /// read past the prefix every key shares, so keys like `word00042`
    /// differ within their heads.
    pub fn sort_records<'a>(&mut self, arena: impl Fn(u32) -> &'a [u8]) {
        let SortBuf { refs, recs, .. } = self;
        let key = |r: &SortRef| recs[r.entry as usize].key(arena(r.group));
        let Some(first) = refs.first().map(key) else {
            return;
        };
        let skip = refs
            .iter()
            .fold(usize::MAX, |skip, r| shared_prefix(first, key(r), skip));
        for r in refs.iter_mut() {
            r.head = key_head(&key(r)[skip..]);
        }
        self.sort_headed(arena);
    }

    /// [`SortBuf::sort_records`] once every ref's head is set, read past
    /// the prefix all the keys share.
    pub(crate) fn sort_headed<'a>(&mut self, arena: impl Fn(u32) -> &'a [u8]) {
        self.sort_by(|recs, a, b| {
            let (x, y) = (&recs[a.entry as usize], &recs[b.entry as usize]);
            let (xa, ya) = (arena(a.group), arena(b.group));
            (x.key(xa), x.value(xa)).cmp(&(y.key(ya), y.value(ya)))
        });
    }

    /// Append the records `refs` name, in ref order, to `out`.
    pub fn write_records<'a>(&self, arena: impl Fn(u32) -> &'a [u8], out: &mut Vec<u8>) {
        for r in &self.refs {
            out.extend_from_slice(self.recs[r.entry as usize].rec(arena(r.group)));
        }
    }

    /// Make room for sorting `n` records, and no more than that: the
    /// [`SORT_SPACE`] a sort of `n` records is charged for.
    pub(crate) fn reserve_exact(&mut self, n: usize) {
        self.refs.reserve_exact(n.saturating_sub(self.refs.len()));
        self.recs.reserve_exact(n.saturating_sub(self.recs.len()));
        self.spare.reserve_exact(n.saturating_sub(self.spare.len()));
    }

    /// Empty `refs` and `recs`, keeping every capacity.
    pub fn clear(&mut self) {
        self.refs.clear();
        self.recs.clear();
    }
}

/// How many leading bytes `key` shares with `first`, at most `skip`.
/// Folded over a set of keys from `usize::MAX`, the prefix they all share:
/// heads read past it differ where the keys do.
pub fn shared_prefix(first: &[u8], key: &[u8], skip: usize) -> usize {
    let first = &first[..skip.min(first.len())];
    first.iter().zip(key).take_while(|(a, b)| a == b).count()
}

/// Recursive MSB pass over `refs`, `spare` at least as long.
fn sort_heads<F: FnMut(&SortRef, &SortRef) -> Ordering>(
    refs: &mut [SortRef],
    spare: &mut [SortRef],
    tie: &mut F,
) {
    if refs.len() <= SMALL {
        refs.sort_unstable_by(|a, b| a.head.cmp(&b.head).then_with(|| tie(a, b)));
        return;
    }
    // The highest byte in which any two heads differ; bytes above it are
    // a shared prefix no pass needs to look at.
    let first = refs[0].head;
    let differ = refs.iter().fold(0, |acc, r| acc | (r.head ^ first));
    if differ == 0 {
        refs.sort_unstable_by(|a, b| tie(a, b));
        return;
    }
    let shift = (63 - differ.leading_zeros()) / 8 * 8;
    let byte = |r: &SortRef| (r.head >> shift) as u8 as usize;
    let mut counts = [0usize; 256];
    for r in refs.iter() {
        counts[byte(r)] += 1;
    }
    let mut starts = [0usize; 256];
    let mut at = 0;
    for (start, &count) in starts.iter_mut().zip(&counts) {
        *start = at;
        at += count;
    }
    let mut cursors = starts;
    for r in refs.iter() {
        let b = byte(r);
        spare[cursors[b]] = *r;
        cursors[b] += 1;
    }
    refs.copy_from_slice(&spare[..refs.len()]);
    for (&start, &count) in starts.iter().zip(&counts) {
        if count > 1 {
            let bucket = start..start + count;
            sort_heads(&mut refs[bucket.clone()], &mut spare[bucket], tie);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kv::RunBuilder;
    use proptest::prelude::*;

    /// Reference model: owned pairs, `sort_unstable`, varint serialization.
    fn naive_run_bytes(pairs: &[(Vec<u8>, Vec<u8>)]) -> Vec<u8> {
        let mut sorted = pairs.to_vec();
        sorted.sort_unstable();
        let mut bytes = Vec::new();
        for (k, v) in &sorted {
            gw_storage::varint::write_len(&mut bytes, k.len());
            gw_storage::varint::write_len(&mut bytes, v.len());
            bytes.extend_from_slice(k);
            bytes.extend_from_slice(v);
        }
        bytes
    }

    fn build_bytes(pairs: &[(Vec<u8>, Vec<u8>)]) -> Vec<u8> {
        let mut b = RunBuilder::new();
        for (k, v) in pairs {
            b.push(k, v);
        }
        b.build().bytes().to_vec()
    }

    /// The sort-head radix alone, refs naming `pairs` by index, `tie` on
    /// `(key, value)`: the pairs in the order it leaves them.
    fn head_sorted(pairs: &[(Vec<u8>, Vec<u8>)]) -> Vec<(Vec<u8>, Vec<u8>)> {
        let mut buf = SortBuf::default();
        for (i, (k, _)) in pairs.iter().enumerate() {
            buf.refs.push(SortRef {
                head: key_head(k),
                group: 0,
                entry: i as u32,
            });
        }
        buf.sort_by(|_, a, b| pairs[a.entry as usize].cmp(&pairs[b.entry as usize]));
        buf.refs
            .iter()
            .map(|r| pairs[r.entry as usize].clone())
            .collect()
    }

    fn sorted(pairs: &[(Vec<u8>, Vec<u8>)]) -> Vec<(Vec<u8>, Vec<u8>)> {
        let mut pairs = pairs.to_vec();
        pairs.sort_unstable();
        pairs
    }

    #[test]
    fn heads_pad_with_zeros_and_read_big_endian() {
        assert_eq!(key_head(b""), 0);
        assert_eq!(key_head(b"a"), 0x61 << 56);
        assert_eq!(key_head(b"a"), key_head(b"a\0"));
        assert_eq!(key_head(b"abcdefghXYZ"), key_head(b"abcdefgh"));
        assert!(key_head(b"ab") < key_head(b"ab\x01"));
    }

    #[test]
    fn shared_prefix_keys_sort_correctly() {
        let prefix = vec![0xABu8; 300];
        let mut pairs: Vec<(Vec<u8>, Vec<u8>)> = (0..200u32)
            .map(|i| {
                let mut k = prefix.clone();
                k.extend_from_slice(&(i % 50).to_be_bytes());
                (k, i.to_le_bytes().to_vec())
            })
            .collect();
        pairs.reverse();
        assert_eq!(build_bytes(&pairs), naive_run_bytes(&pairs));
    }

    #[test]
    fn prefix_of_another_key_sorts_first() {
        let pairs: Vec<(Vec<u8>, Vec<u8>)> = vec![
            (b"abcd".to_vec(), b"1".to_vec()),
            (b"ab".to_vec(), b"2".to_vec()),
            (b"abc".to_vec(), b"3".to_vec()),
            (b"".to_vec(), b"4".to_vec()),
            (b"ab\0".to_vec(), b"5".to_vec()),
            (b"a".to_vec(), b"6".to_vec()),
            (b"a\0".to_vec(), b"7".to_vec()),
        ];
        assert_eq!(build_bytes(&pairs), naive_run_bytes(&pairs));
        assert_eq!(head_sorted(&pairs), sorted(&pairs));
    }

    /// Keys drawn from a few stems that tie through the whole head, that
    /// are shorter than the head with zero bytes inside (`a`, `a\0`), or
    /// empty, each with a short value that may repeat.
    fn tie_prone_pairs() -> impl Strategy<Value = Vec<(Vec<u8>, Vec<u8>)>> {
        let stem = prop_oneof![
            Just(Vec::new()),
            Just(b"a".to_vec()),
            Just(b"a\0".to_vec()),
            Just(b"a\0\0".to_vec()),
            Just(b"\0".to_vec()),
            Just(b"eightby8".to_vec()),
            Just(b"eightby\0".to_vec()),
        ];
        let tail = proptest::collection::vec(prop_oneof![Just(0u8), Just(1u8), Just(0xFFu8)], 0..3);
        let value = proptest::collection::vec(0u8..3, 0..3);
        proptest::collection::vec(
            (stem, tail, value).prop_map(|(mut k, t, v)| {
                k.extend_from_slice(&t);
                (k, v)
            }),
            0..300,
        )
    }

    proptest! {
        /// Radix run bytes are byte-identical to a `sort_unstable` over
        /// owned pairs, for arbitrary key/value sets (duplicates included).
        #[test]
        fn radix_bytes_equal_sort_unstable_bytes(
            pairs in proptest::collection::vec(
                (proptest::collection::vec(any::<u8>(), 0..12),
                 proptest::collection::vec(any::<u8>(), 0..10)), 0..300))
        {
            prop_assert_eq!(build_bytes(&pairs), naive_run_bytes(&pairs));
        }

        /// Low-entropy keys drive records through the large-bucket radix
        /// path and equal keys through the value tie-break.
        #[test]
        fn radix_bytes_equal_on_dense_duplicates(
            pairs in proptest::collection::vec(
                (proptest::collection::vec(0u8..3, 0..4),
                 proptest::collection::vec(0u8..3, 0..3)), 0..400))
        {
            prop_assert_eq!(build_bytes(&pairs), naive_run_bytes(&pairs));
        }

        /// The sort-head radix matches `sort_unstable` on `(key, value)`
        /// where the head cannot decide: keys that tie through all eight
        /// head bytes, keys shorter than the head holding zero bytes
        /// (`a` vs `a\0`), empty keys, and equal keys with different values.
        #[test]
        fn sort_heads_match_sort_unstable_where_heads_tie(pairs in tie_prone_pairs()) {
            prop_assert_eq!(head_sorted(&pairs), sorted(&pairs));
            prop_assert_eq!(build_bytes(&pairs), naive_run_bytes(&pairs));
            // Behind a shared prefix, which the builder's heads skip.
            let prefixed: Vec<(Vec<u8>, Vec<u8>)> = pairs
                .iter()
                .map(|(k, v)| ([b"word-wor".as_slice(), k].concat(), v.clone()))
                .collect();
            prop_assert_eq!(build_bytes(&prefixed), naive_run_bytes(&prefixed));
        }
    }
}
