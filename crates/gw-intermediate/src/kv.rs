//! Sorted key/value runs — the unit of intermediate data.
//!
//! A [`Run`] is a byte buffer holding records `varint(klen) varint(vlen)
//! key value`, sorted by `(key, value)`. Runs are produced by the map
//! pipeline's partitioning stage (which sorts each chunk's output), cached,
//! spilled, shipped between nodes, and finally k-way merged for reduction.
//! Byte-wise key order is the job's sort order, as in Hadoop's raw
//! comparator fast path.
//!
//! Run bytes are [`Bytes`]-backed: cloning a run, caching it, retaining it
//! for shuffle recovery, and framing it onto the network all share one
//! refcounted arena slice instead of copying. [`RunBuilder`] accumulates
//! records in a single flat arena (records serialized at push time) with a
//! [`SortRef`] per record; `build` sorts the refs with the sort-head radix
//! in `radix` and gathers the records in one pass — no per-record
//! allocation, and the arena and sort buffers recycle through a
//! [`crate::pool::RunPool`].

use bytes::Bytes;
use gw_storage::varint::RecRef;

use crate::pool::RunPool;
use crate::radix::{SortBuf, SortRef};

/// A sorted, serialized run of key/value records.
///
/// Cheap to clone: the underlying buffer is refcounted ([`Bytes`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Run {
    bytes: Bytes,
    records: usize,
}

impl Run {
    /// Wrap raw bytes known to be a valid, sorted record stream.
    ///
    /// Used when receiving runs from the network; validity is checked in
    /// debug builds. Accepts `Vec<u8>` or [`Bytes`]; the latter is
    /// zero-copy.
    pub fn from_sorted_bytes(bytes: impl Into<Bytes>, records: usize) -> Self {
        let run = Run {
            bytes: bytes.into(),
            records,
        };
        debug_assert!(run.check_sorted(), "run bytes are not sorted");
        run
    }

    /// Serialized length in bytes.
    #[inline]
    pub fn len_bytes(&self) -> usize {
        self.bytes.len()
    }

    /// Number of records.
    #[inline]
    pub fn records(&self) -> usize {
        self.records
    }

    /// `true` when the run has no records.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.records == 0
    }

    /// The raw serialized bytes.
    #[inline]
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Consume into the shared byte buffer (zero-copy: the shuffle ships
    /// this slice as-is, and caching clones are refcounts).
    pub fn into_shared(self) -> Bytes {
        self.bytes
    }

    /// Iterate over `(key, value)` slices in sorted order.
    pub fn iter(&self) -> RunIter<'_> {
        RunIter { rest: &self.bytes }
    }

    /// Verify the sorted invariant (O(n), used in debug assertions/tests).
    pub fn check_sorted(&self) -> bool {
        let mut prev: Option<(&[u8], &[u8])> = None;
        let mut count = 0usize;
        for (k, v) in self.iter() {
            if let Some((pk, pv)) = prev {
                if (pk, pv) > (k, v) {
                    return false;
                }
            }
            prev = Some((k, v));
            count += 1;
        }
        count == self.records
    }
}

/// Borrowing iterator over a run's records.
#[derive(Debug, Clone)]
pub struct RunIter<'a> {
    rest: &'a [u8],
}

impl<'a> Iterator for RunIter<'a> {
    type Item = (&'a [u8], &'a [u8]);

    fn next(&mut self) -> Option<Self::Item> {
        if self.rest.is_empty() {
            return None;
        }
        let rec = RecRef::decode(self.rest, 0).expect("corrupt run: malformed record");
        let (key, value) = (rec.key(self.rest), rec.value(self.rest));
        self.rest = &self.rest[rec.end()..];
        Some((key, value))
    }
}

impl<'a> IntoIterator for &'a Run {
    type Item = (&'a [u8], &'a [u8]);
    type IntoIter = RunIter<'a>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// The recyclable guts of a [`RunBuilder`]: the flat record arena and
/// the sort buffers (each record's position and [`SortRef`]).
#[derive(Debug, Default)]
pub(crate) struct BuilderParts {
    pub(crate) arena: Vec<u8>,
    pub(crate) sort: SortBuf,
}

impl BuilderParts {
    /// Clear contents, keeping capacity for reuse.
    pub(crate) fn clear(&mut self) {
        self.arena.clear();
        self.sort.clear();
    }
}

/// Accumulates unsorted records in a flat arena, then sorts and gathers
/// them into a [`Run`].
///
/// Records are serialized once at `push`; `build` never re-encodes — it
/// sorts the refs ([`SortBuf::sort_records`]: radix on 8-byte heads,
/// full `(key, value)` bytes on a tie) and copies whole record slices in
/// ref order.
#[derive(Debug, Default)]
pub struct RunBuilder {
    parts: BuilderParts,
    pool: Option<std::sync::Arc<RunPool>>,
}

impl RunBuilder {
    /// Empty builder (unpooled; see [`RunPool::builder`] for the recycling
    /// path).
    pub fn new() -> Self {
        Self::default()
    }

    pub(crate) fn recycled(parts: BuilderParts, pool: std::sync::Arc<RunPool>) -> Self {
        RunBuilder {
            parts,
            pool: Some(pool),
        }
    }

    /// Add one record.
    pub fn push(&mut self, key: &[u8], value: &[u8]) {
        let sort = &mut self.parts.sort;
        let at = u32::try_from(sort.recs.len()).expect("a run holds under 4 Gi records");
        sort.recs
            .push(RecRef::write(&mut self.parts.arena, key, value));
        sort.refs.push(SortRef {
            head: 0,
            group: 0,
            entry: at,
        });
    }

    /// Number of buffered records.
    pub fn len(&self) -> usize {
        self.parts.sort.recs.len()
    }

    /// `true` when nothing was pushed.
    pub fn is_empty(&self) -> bool {
        self.parts.sort.recs.is_empty()
    }

    /// Sort by `(key, value)` and serialize. Byte-identical to sorting
    /// owned pairs with `sort_unstable` and serializing in order (the
    /// determinism contract shuffle de-duplication relies on).
    pub fn build(mut self) -> Run {
        let BuilderParts { arena, sort } = &mut self.parts;
        let arena = arena.as_slice();
        sort.sort_records(|_| arena);
        let mut bytes = Vec::with_capacity(arena.len());
        sort.write_records(|_| arena, &mut bytes);
        let records = sort.refs.len();
        // `self` drops here, recycling the arena and sort buffers.
        Run {
            bytes: Bytes::from(bytes),
            records,
        }
    }
}

impl Drop for RunBuilder {
    fn drop(&mut self) {
        if let Some(pool) = self.pool.take() {
            pool.release(std::mem::take(&mut self.parts));
        }
    }
}

/// Build a run directly from a record list (tests, generators).
pub fn run_from_pairs<'r>(pairs: impl IntoIterator<Item = (&'r [u8], &'r [u8])>) -> Run {
    let mut b = RunBuilder::new();
    for (k, v) in pairs {
        b.push(k, v);
    }
    b.build()
}

/// Test fixture for the stored-frame paths: one record per key in `keys`,
/// sorted decimal keys under pseudo-random 90-byte values (101 serialized
/// bytes each, the TeraGen shape) — a run no frame of which compresses.
#[cfg(test)]
pub(crate) fn noise_run(keys: std::ops::Range<usize>, rng: &mut rand::rngs::StdRng) -> Run {
    use rand::Rng;
    let pairs: Vec<(String, [u8; 90])> = keys
        .map(|i| {
            let mut value = [0u8; 90];
            rng.fill(&mut value[..]);
            (format!("key{i:06}"), value)
        })
        .collect();
    run_from_pairs(pairs.iter().map(|(k, v)| (k.as_bytes(), v.as_slice())))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn builder_sorts_records() {
        let run = run_from_pairs([
            (b"zebra".as_slice(), b"1".as_slice()),
            (b"apple".as_slice(), b"2".as_slice()),
            (b"mango".as_slice(), b"3".as_slice()),
            (b"apple".as_slice(), b"1".as_slice()),
        ]);
        let keys: Vec<&[u8]> = run.iter().map(|(k, _)| k).collect();
        assert_eq!(
            keys,
            vec![b"apple".as_slice(), b"apple", b"mango", b"zebra"]
        );
        // Duplicate keys sorted by value.
        let apples: Vec<&[u8]> = run
            .iter()
            .filter(|(k, _)| *k == b"apple")
            .map(|(_, v)| v)
            .collect();
        assert_eq!(apples, vec![b"1".as_slice(), b"2"]);
        assert!(run.check_sorted());
        assert_eq!(run.records(), 4);
    }

    #[test]
    fn empty_run_is_valid() {
        let run = RunBuilder::new().build();
        assert!(run.is_empty());
        assert!(run.check_sorted());
        assert_eq!(run.iter().count(), 0);
    }

    #[test]
    fn from_sorted_bytes_roundtrip() {
        let run = run_from_pairs([(b"a".as_slice(), b"x".as_slice()), (b"b", b"y")]);
        let rebuilt = Run::from_sorted_bytes(run.bytes().to_vec(), run.records());
        assert_eq!(rebuilt, run);
    }

    #[test]
    fn clone_shares_the_buffer() {
        let run = run_from_pairs([(b"a".as_slice(), b"x".as_slice()), (b"b", b"y")]);
        let dup = run.clone();
        // Bytes clones are refcounts over one allocation, not copies.
        assert_eq!(run.bytes().as_ptr(), dup.bytes().as_ptr());
        assert_eq!(run.into_shared().as_ptr(), dup.bytes().as_ptr());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "not sorted")]
    fn from_unsorted_bytes_panics_in_debug() {
        let a = run_from_pairs([(b"b".as_slice(), b"".as_slice())]);
        let b = run_from_pairs([(b"a".as_slice(), b"".as_slice())]);
        let mut bytes = a.bytes().to_vec();
        bytes.extend_from_slice(b.bytes());
        let _ = Run::from_sorted_bytes(bytes, 2);
    }

    proptest! {
        #[test]
        fn build_preserves_multiset(pairs in proptest::collection::vec(
            (proptest::collection::vec(any::<u8>(), 0..12),
             proptest::collection::vec(any::<u8>(), 0..24)), 0..100)) {
            let mut builder = RunBuilder::new();
            for (k, v) in &pairs {
                builder.push(k, v);
            }
            let run = builder.build();
            prop_assert!(run.check_sorted());
            let mut expect: Vec<(Vec<u8>, Vec<u8>)> = pairs.clone();
            expect.sort();
            let got: Vec<(Vec<u8>, Vec<u8>)> =
                run.iter().map(|(k, v)| (k.to_vec(), v.to_vec())).collect();
            prop_assert_eq!(got, expect);
        }
    }
}
