//! TeraSort (TS) — "one of the most data-intensive MapReduce applications
//! ... sorts a set of randomly generated 10-byte keys accompanied with
//! 90-byte values. However, TS requires the output of the job to be
//! totally ordered across all partitions."
//!
//! "In order to guarantee total order of the job's output, the input data
//! set is sampled in an attempt to estimate the spread of keys.
//! Consequently, the job's map function uses the sampled data to place
//! each key in the appropriate output partition. Furthermore, each
//! partition of keys is sorted independently by the framework ... TS does
//! not require a reduce function since its output is fully processed by
//! the end of the intermediate data shuffle."
//!
//! This app therefore overrides [`GwApp::partition`] with a sampled
//! range partitioner and sets `has_reduce = false`; the identity map plus
//! the framework's sort/merge machinery produce the sorted output.

use gw_core::{Emit, GwApp};

/// Sampled range partitioner: `boundaries[i]` is the smallest key of
/// partition `i + 1`. A lookup compares *heads*, each key's first 16 bytes
/// zero-padded and read big-endian, and reads bytes past them only when a
/// boundary's head ties the key's and one of the two is longer.
#[derive(Debug, Clone)]
pub struct RangePartitioner {
    boundaries: Vec<Vec<u8>>,
    /// `boundaries[i]`'s head.
    heads: Vec<u128>,
}

/// `key`'s first 16 bytes, zero-padded, as a big-endian integer: heads
/// that differ order as their keys do.
#[inline]
fn head(key: &[u8]) -> u128 {
    if let Some(head) = key.first_chunk::<16>() {
        return u128::from_be_bytes(*head);
    }
    let mut head = [0u8; 16];
    head[..key.len()].copy_from_slice(key);
    u128::from_be_bytes(head)
}

impl RangePartitioner {
    /// Build boundaries for `partitions` partitions from sampled keys.
    pub fn from_samples(mut samples: Vec<Vec<u8>>, partitions: u32) -> Self {
        assert!(partitions > 0);
        samples.sort();
        samples.dedup();
        let mut boundaries = Vec::with_capacity(partitions as usize - 1);
        if !samples.is_empty() {
            for p in 1..partitions as usize {
                let idx = p * samples.len() / partitions as usize;
                let b = samples[idx.min(samples.len() - 1)].clone();
                if boundaries.last() != Some(&b) {
                    boundaries.push(b);
                }
            }
        }
        let heads = boundaries.iter().map(|b| head(b)).collect();
        RangePartitioner { boundaries, heads }
    }

    /// Partition of `key`: number of boundaries ≤ key. A boundary whose
    /// head is below the key's is below the key. Those are counted, not
    /// searched for: on random keys every step of a binary search is a
    /// branch the CPU cannot predict, and the count has none. The count is
    /// linear in the boundaries: measured faster at 3 and about even at
    /// 255, it is unmeasured beyond. Of the boundaries whose heads tie the
    /// key's, equal zero-padded bytes up to 16, those ≤ key come first:
    /// when neither is longer, the shorter is a prefix of the other and
    /// sorts first, with no byte read; past that the keys are compared.
    #[inline]
    pub fn partition_of(&self, key: &[u8]) -> u32 {
        let k = head(key);
        let below = self.heads.iter().filter(|&&h| h < k).count();
        let ties = self.heads[below..]
            .iter()
            .zip(&self.boundaries[below..])
            .take_while(|&(&h, b)| {
                h == k
                    && match b.len().max(key.len()) {
                        ..=16 => b.len() <= key.len(),
                        _ => b.as_slice() <= key,
                    }
            })
            .count();
        (below + ties) as u32
    }

    /// Number of partitions this partitioner can address.
    pub fn partitions(&self) -> u32 {
        self.boundaries.len() as u32 + 1
    }
}

/// The TeraSort application.
pub struct TeraSort {
    partitioner: RangePartitioner,
}

impl TeraSort {
    /// Build TS from key samples for a `partitions`-way total order.
    pub fn new(samples: Vec<Vec<u8>>, partitions: u32) -> Self {
        TeraSort {
            partitioner: RangePartitioner::from_samples(samples, partitions),
        }
    }

    /// The underlying range partitioner.
    pub fn partitioner(&self) -> &RangePartitioner {
        &self.partitioner
    }
}

impl GwApp for TeraSort {
    fn name(&self) -> &'static str {
        "terasort"
    }

    /// Identity map: route the record to its range partition.
    fn map(&self, key: &[u8], value: &[u8], emit: &Emit<'_>) {
        emit.emit(key, value);
    }

    fn has_reduce(&self) -> bool {
        false
    }

    fn reduce(
        &self,
        _key: &[u8],
        _values: &[&[u8]],
        _state: &mut Vec<u8>,
        _last: bool,
        _emit: &Emit<'_>,
    ) {
        unreachable!("TeraSort has no reduce phase");
    }

    fn partition(&self, key: &[u8], num_partitions: u32) -> u32 {
        // Clamp defensively: a partitioner built for more ranges than the
        // job's partition count folds its tail ranges into the last one.
        self.partitioner.partition_of(key).min(num_partitions - 1)
    }
}

/// TeraValidate-style output validation: checks that the concatenation of
/// the partition files (in partition order) is totally ordered, contains
/// `expected` records, and computes an order-insensitive checksum of the
/// record contents to compare against the input's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ValidationReport {
    /// Records seen.
    pub records: usize,
    /// XOR-rotate checksum over all records (order-insensitive).
    pub checksum: u64,
    /// Whether the stream was totally ordered.
    pub ordered: bool,
}

/// Checksum one record (stable across record order).
fn record_checksum(key: &[u8], value: &[u8]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for &b in key.iter().chain(value) {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Validate a record stream (already in partition-file order).
pub fn validate<'r>(records: impl IntoIterator<Item = (&'r [u8], &'r [u8])>) -> ValidationReport {
    let mut count = 0usize;
    let mut checksum = 0u64;
    let mut ordered = true;
    let mut prev: Option<(Vec<u8>, Vec<u8>)> = None;
    for (k, v) in records {
        count += 1;
        checksum ^= record_checksum(k, v);
        if let Some((pk, pv)) = &prev {
            if (pk.as_slice(), pv.as_slice()) > (k, v) {
                ordered = false;
            }
        }
        prev = Some((k.to_vec(), v.to_vec()));
    }
    ValidationReport {
        records: count,
        checksum,
        ordered,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boundaries_split_the_key_space() {
        let samples: Vec<Vec<u8>> = (0u8..100).map(|i| vec![i]).collect();
        let rp = RangePartitioner::from_samples(samples, 4);
        assert_eq!(rp.partitions(), 4);
        assert_eq!(rp.partition_of(&[0]), 0);
        assert_eq!(rp.partition_of(&[99]), 3);
        // Monotone: p(a) ≤ p(b) when a ≤ b.
        let mut prev = 0;
        for i in 0u8..=255 {
            let p = rp.partition_of(&[i]);
            assert!(p >= prev);
            prev = p;
        }
    }

    #[test]
    fn partitions_respect_total_order() {
        let samples: Vec<Vec<u8>> = (0..1000u32).map(|i| i.to_be_bytes().to_vec()).collect();
        let rp = RangePartitioner::from_samples(samples, 8);
        // Any key in partition p sorts before any key in partition p+1's
        // boundary.
        for i in 0..1000u32 {
            let key = i.to_be_bytes();
            let p = rp.partition_of(&key);
            assert!(p < 8);
        }
    }

    #[test]
    fn empty_samples_degenerate_to_one_partition() {
        let rp = RangePartitioner::from_samples(Vec::new(), 4);
        assert_eq!(rp.partition_of(b"anything"), 0);
    }

    #[test]
    fn duplicate_samples_do_not_create_empty_ranges() {
        let samples = vec![vec![5u8]; 100];
        let rp = RangePartitioner::from_samples(samples, 4);
        // All boundaries collapse to one.
        assert!(rp.partitions() <= 2);
    }

    #[test]
    fn terasort_has_no_reduce() {
        let ts = TeraSort::new(vec![vec![10u8], vec![20]], 3);
        assert!(!ts.has_reduce());
        assert_eq!(ts.partition(&[0], 3), 0);
        assert_eq!(ts.partition(&[15], 3), 1);
        assert_eq!(ts.partition(&[200], 3), 2);
    }

    #[test]
    fn partition_clamps_to_job_partitions() {
        // Partitioner built for 3 ranges but the job only has 2: clamp.
        let ts = TeraSort::new(vec![vec![10u8], vec![20]], 3);
        assert_eq!(ts.partition(&[200], 2), 1);
    }

    #[test]
    fn validate_accepts_sorted_streams() {
        let records = [
            (b"a".as_slice(), b"1".as_slice()),
            (b"b", b"2"),
            (b"c", b"3"),
        ];
        let r = validate(records);
        assert!(r.ordered);
        assert_eq!(r.records, 3);
    }

    #[test]
    fn validate_flags_disorder_but_keeps_checksum() {
        let sorted = [(b"a".as_slice(), b"1".as_slice()), (b"b", b"2")];
        let unsorted = [(b"b".as_slice(), b"2".as_slice()), (b"a", b"1")];
        let rs = validate(sorted);
        let ru = validate(unsorted);
        assert!(rs.ordered);
        assert!(!ru.ordered);
        // Checksum is order-insensitive: same multiset, same checksum.
        assert_eq!(rs.checksum, ru.checksum);
    }

    #[test]
    fn validate_detects_corruption() {
        let a = validate([(b"a".as_slice(), b"1".as_slice())]);
        let b = validate([(b"a".as_slice(), b"2".as_slice())]);
        assert_ne!(a.checksum, b.checksum);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// Keys built to meet the head's edges: from a few stems of 0, 5,
        /// 16 and 20 bytes, each extended by 0–3 bytes drawn from
        /// `{0, 1, 0xff}`, so keys are empty, shorter and longer than 16
        /// bytes, share a 16-byte prefix with a boundary, or differ from
        /// one by trailing zeros only.
        fn key() -> impl Strategy<Value = Vec<u8>> {
            let stems: [&[u8]; 4] = [b"", b"mid-k", b"sixteen-byte-key", b"sixteen-byte-key-and"];
            (
                0..stems.len(),
                proptest::collection::vec(prop_oneof![Just(0u8), Just(1), Just(0xff)], 0..4),
            )
                .prop_map(move |(stem, tail)| [stems[stem], &tail[..]].concat())
        }

        proptest! {
            /// The head lookup finds the partition a slice `partition_point`
            /// over the boundaries finds, for keys drawn from the boundaries'
            /// own neighbourhood, each boundary itself among them.
            #[test]
            fn head_lookup_matches_slice_partition_point(
                samples in proptest::collection::vec(key(), 0..40),
                probes in proptest::collection::vec(key(), 0..40),
                partitions in 1u32..8)
            {
                let rp = RangePartitioner::from_samples(samples, partitions);
                let slices: Vec<&[u8]> = rp.boundaries.iter().map(Vec::as_slice).collect();
                for key in probes.iter().map(Vec::as_slice).chain(slices.iter().copied()) {
                    let expect = slices.partition_point(|b| *b <= key) as u32;
                    prop_assert!(rp.partition_of(key) == expect, "key {:?}", key);
                }
            }
        }
    }

    #[test]
    fn validate_empty_stream() {
        let r = validate(std::iter::empty::<(&[u8], &[u8])>());
        assert!(r.ordered);
        assert_eq!(r.records, 0);
        assert_eq!(r.checksum, 0);
    }
}
