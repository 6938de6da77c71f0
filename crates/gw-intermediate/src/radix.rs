//! MSB-radix sort over a flat record arena's offset index.
//!
//! The partitioning stage sorts each chunk's records by `(key, value)`
//! bytes. Instead of comparison-sorting owned `(Vec<u8>, Vec<u8>)` pairs,
//! records stay serialized in one flat arena (see [`crate::kv::RunBuilder`])
//! and only the compact offset index moves: an MSB (most-significant-byte
//! first) radix pass buckets the index by successive key bytes, falling back
//! to comparison sort below a small-bucket threshold. This is the flat-run
//! layout that k-mer pipelines (GGCAT's `fast_smart_radix_sort` over bucket
//! arenas) use for exactly this stage shape.
//!
//! ## Determinism contract
//!
//! The produced order is **identical** to `sort_unstable()` on owned
//! `(key, value)` pairs: keys compare bytewise, ties compare by value bytes.
//! Records equal in both key and value serialize identically, so run bytes
//! are byte-for-byte what the previous comparison sort emitted — the shuffle
//! de-duplication of re-executed map tasks relies on this.

use gw_storage::varint::RecRef;

/// Below this many entries a bucket is comparison-sorted; the radix
/// machinery only pays off on larger buckets.
const SMALL: usize = 32;

/// Sort `index` by `(key, value)` bytes of the records it references in
/// `arena`. `scratch` is scatter space, grown as needed and reusable across
/// calls (the run pool recycles it).
pub(crate) fn sort_index(arena: &[u8], index: &mut [RecRef], scratch: &mut Vec<RecRef>) {
    if index.len() <= 1 {
        return;
    }
    if scratch.len() < index.len() {
        scratch.resize(index.len(), RecRef::default());
    }
    sort_at(arena, index, 0, scratch);
}

/// Compare two records whose keys agree on the first `depth` bytes.
#[inline]
fn cmp_suffix(arena: &[u8], a: &RecRef, b: &RecRef, depth: usize) -> std::cmp::Ordering {
    (&a.key(arena)[depth..], a.value(arena)).cmp(&(&b.key(arena)[depth..], b.value(arena)))
}

/// Bucket of a record at `depth`: 0 for "key exhausted", `1 + byte` else.
#[inline]
fn bucket_of(arena: &[u8], r: &RecRef, depth: usize) -> usize {
    let key = r.key(arena);
    if key.len() <= depth {
        0
    } else {
        1 + key[depth] as usize
    }
}

/// Recursive MSB pass. Invariant: every key in `idx` shares its first
/// `depth` bytes.
fn sort_at(arena: &[u8], idx: &mut [RecRef], mut depth: usize, scratch: &mut Vec<RecRef>) {
    loop {
        if idx.len() <= SMALL {
            idx.sort_unstable_by(|a, b| cmp_suffix(arena, a, b, depth));
            return;
        }
        let mut counts = [0usize; 257];
        for r in idx.iter() {
            counts[bucket_of(arena, r, depth)] += 1;
        }
        // Long-common-prefix fast path: all records in one byte bucket means
        // no scatter is needed — advance a byte and loop (this also bounds
        // recursion depth on pathological shared-prefix keys).
        if let Some(only) = counts.iter().position(|&c| c == idx.len()) {
            if only == 0 {
                // Keys fully equal: order by value bytes.
                idx.sort_unstable_by(|a, b| a.value(arena).cmp(b.value(arena)));
                return;
            }
            depth += 1;
            continue;
        }
        let mut starts = [0usize; 257];
        let mut acc = 0usize;
        for (s, &c) in starts.iter_mut().zip(counts.iter()) {
            *s = acc;
            acc += c;
        }
        let mut cursors = starts;
        for r in idx.iter() {
            let b = bucket_of(arena, r, depth);
            scratch[cursors[b]] = *r;
            cursors[b] += 1;
        }
        idx.copy_from_slice(&scratch[..idx.len()]);
        // Bucket 0 holds records whose keys end here — equal keys, ordered
        // by value. The byte buckets recurse one key byte deeper.
        if counts[0] > 1 {
            idx[..counts[0]].sort_unstable_by(|a, b| a.value(arena).cmp(b.value(arena)));
        }
        for b in 1..257 {
            if counts[b] > 1 {
                let lo = starts[b];
                sort_at(arena, &mut idx[lo..lo + counts[b]], depth + 1, scratch);
            }
        }
        return;
    }
}

#[cfg(test)]
mod tests {
    use crate::kv::RunBuilder;
    use proptest::prelude::*;

    /// Reference model: the exact pre-arena implementation — owned pairs,
    /// `sort_unstable`, varint serialization.
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
        ];
        assert_eq!(build_bytes(&pairs), naive_run_bytes(&pairs));
    }

    proptest! {
        /// Tentpole determinism contract: radix index-sort output is
        /// byte-identical to the previous `sort_unstable` path for
        /// arbitrary key/value sets (duplicates included).
        #[test]
        fn radix_bytes_equal_sort_unstable_bytes(
            pairs in proptest::collection::vec(
                (proptest::collection::vec(any::<u8>(), 0..12),
                 proptest::collection::vec(any::<u8>(), 0..10)), 0..300))
        {
            prop_assert_eq!(build_bytes(&pairs), naive_run_bytes(&pairs));
        }

        /// Low-entropy keys drive records through the large-bucket radix
        /// path and the equal-key value sort.
        #[test]
        fn radix_bytes_equal_on_dense_duplicates(
            pairs in proptest::collection::vec(
                (proptest::collection::vec(0u8..3, 0..4),
                 proptest::collection::vec(0u8..3, 0..3)), 0..400))
        {
            prop_assert_eq!(build_bytes(&pairs), naive_run_bytes(&pairs));
        }
    }
}
