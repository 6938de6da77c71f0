//! Hand-written single-purpose floors: the same three jobs as tight
//! loops on one thread, no framework. They are the denominator for the
//! engine's wall clock ("framework over floor", as in the Spark versus
//! MPI/OpenMP word-count comparison), and — run on a small sample
//! beside every timed job — the probe that tells how fast this machine
//! is at this kind of code at this moment.
//!
//! The benchmark owns this code, so the denominator cannot drift with
//! the repository it measures.

use std::collections::BTreeMap;
use std::hint::black_box;

/// Records as the generators make them: `(key, value)` byte pairs.
pub type Record = (Vec<u8>, Vec<u8>);

/// Count whitespace-separated words in an ordered map of owned keys —
/// the plain program one would write first. Returns the number of
/// distinct words. (A hash map over borrowed slices is faster, but as a
/// probe it swings more with machine state than the engine's job does;
/// this one tracks it.)
pub fn wordcount(records: &[Record]) -> usize {
    let mut counts: BTreeMap<Vec<u8>, u64> = BTreeMap::new();
    for (_, line) in records {
        for word in line.split(|b| b.is_ascii_whitespace()) {
            if !word.is_empty() {
                *counts.entry(word.to_vec()).or_insert(0) += 1;
            }
        }
    }
    black_box(&counts);
    counts.len()
}

/// Sort records by `(key, value)` and gather them into one output
/// buffer. Returns the bytes written.
pub fn terasort(records: &[Record]) -> usize {
    let mut order: Vec<&Record> = records.iter().collect();
    order.sort_unstable();
    let mut out = Vec::with_capacity(records.iter().map(|(k, v)| k.len() + v.len()).sum());
    for (k, v) in order {
        out.extend_from_slice(k);
        out.extend_from_slice(v);
    }
    black_box(&out);
    out.len()
}

/// One K-Means iteration: assign every point (little-endian `f32`
/// coordinates in the value) to its nearest of the `centers` (flattened
/// `k × dims`), then average each center's members. Returns the new
/// centers.
pub fn kmeans(records: &[Record], centers: &[f32], dims: usize) -> Vec<f32> {
    let k = centers.len() / dims;
    let mut sums = vec![0.0f32; k * dims];
    let mut members = vec![0u32; k];
    let mut point = vec![0.0f32; dims];
    for (_, value) in records {
        for (p, bytes) in point.iter_mut().zip(value.chunks_exact(4)) {
            *p = f32::from_le_bytes(bytes.try_into().expect("4-byte chunk"));
        }
        let mut nearest = 0;
        let mut nearest_d = f32::INFINITY;
        for (c, center) in centers.chunks_exact(dims).enumerate() {
            let d: f32 = point
                .iter()
                .zip(center)
                .map(|(p, q)| (p - q) * (p - q))
                .sum();
            if d < nearest_d {
                nearest_d = d;
                nearest = c;
            }
        }
        members[nearest] += 1;
        for (s, p) in sums[nearest * dims..][..dims].iter_mut().zip(&point) {
            *s += p;
        }
    }
    for (sum, n) in sums.chunks_exact_mut(dims).zip(&members) {
        for s in sum {
            *s /= (*n).max(1) as f32;
        }
    }
    sums
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(k: &str, v: &[u8]) -> Record {
        (k.as_bytes().to_vec(), v.to_vec())
    }

    #[test]
    fn wordcount_counts_distinct_words() {
        let records = [rec("0", b"a b  a"), rec("1", b"b c")];
        assert_eq!(wordcount(&records), 3);
    }

    #[test]
    fn terasort_gathers_every_byte() {
        let records = [rec("b", b"22"), rec("a", b"1")];
        assert_eq!(terasort(&records), 5);
    }

    #[test]
    fn kmeans_averages_members() {
        let value = |x: f32, y: f32| [x.to_le_bytes(), y.to_le_bytes()].concat();
        let records = [
            rec("0", &value(0.0, 0.0)),
            rec("1", &value(2.0, 0.0)),
            rec("2", &value(10.0, 10.0)),
        ];
        let centers = [1.0, 1.0, 9.0, 9.0];
        assert_eq!(kmeans(&records, &centers, 2), vec![1.0, 0.0, 10.0, 10.0]);
    }
}
