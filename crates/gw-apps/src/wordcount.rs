//! WordCount (WC) — "counts the frequency of word occurrences in a group
//! of input files. WC is commonly used in data mining."
//!
//! I/O-bound with moderate kernel work; its corpus "exhibits high
//! repetition of a smaller number of words beside a large number of sparse
//! words", which makes WC the paper's probe for hash-table contention vs.
//! simple output collection (Table II).

use std::sync::Arc;

use gw_core::{Combiner, Emit, GwApp};

use crate::codec::{dec_u64, enc_u64};

/// Sums little-endian `u64` counts in place.
pub struct CountSumCombiner;

impl Combiner for CountSumCombiner {
    fn combine(&self, _key: &[u8], acc: &mut Vec<u8>, value: &[u8]) {
        let sum = dec_u64(acc) + dec_u64(value);
        acc.copy_from_slice(&enc_u64(sum));
    }

    /// An integer sum: any grouping and order of a key's counts sums to
    /// the same bytes.
    fn order_free(&self) -> bool {
        true
    }
}

/// The WordCount application.
pub struct WordCount {
    use_combiner: bool,
}

impl WordCount {
    /// WC with the combiner enabled (the paper's configuration (i)).
    pub fn new() -> Self {
        WordCount { use_combiner: true }
    }

    /// WC without a combiner (configurations (ii)/(iii)).
    pub fn without_combiner() -> Self {
        WordCount {
            use_combiner: false,
        }
    }
}

impl Default for WordCount {
    fn default() -> Self {
        Self::new()
    }
}

/// Split a byte line into words (ASCII whitespace-separated, punctuation
/// trimmed), invoking `f` per word.
#[inline]
pub fn for_each_word(line: &[u8], mut f: impl FnMut(&[u8])) {
    for raw in line.split(|&b| b.is_ascii_whitespace()) {
        // Trim leading/trailing non-alphanumerics (wiki markup noise).
        let start = raw.iter().position(|b| b.is_ascii_alphanumeric());
        let Some(start) = start else { continue };
        let end = raw.iter().rposition(|b| b.is_ascii_alphanumeric()).unwrap() + 1;
        f(&raw[start..end]);
    }
}

impl GwApp for WordCount {
    fn name(&self) -> &'static str {
        "wordcount"
    }

    fn map(&self, _key: &[u8], value: &[u8], emit: &Emit<'_>) {
        for_each_word(value, |word| emit.emit(word, &enc_u64(1)));
    }

    fn combiner(&self) -> Option<Arc<dyn Combiner>> {
        self.use_combiner
            .then(|| Arc::new(CountSumCombiner) as Arc<dyn Combiner>)
    }

    fn reduce(
        &self,
        key: &[u8],
        values: &[&[u8]],
        state: &mut Vec<u8>,
        last: bool,
        emit: &Emit<'_>,
    ) {
        if state.is_empty() {
            state.extend_from_slice(&enc_u64(0));
        }
        let mut acc = dec_u64(state);
        for v in values {
            acc += dec_u64(v);
        }
        state.copy_from_slice(&enc_u64(acc));
        if last {
            emit.emit(key, &enc_u64(acc));
        }
    }

    /// Count summation is associative: enable parallel single-key
    /// reduction. Empty buffers act as zero (the engine's probe contract).
    fn merge_states(&self, acc: &mut Vec<u8>, other: &[u8]) -> bool {
        if other.is_empty() {
            return true;
        }
        if acc.is_empty() {
            acc.extend_from_slice(other);
            return true;
        }
        let sum = dec_u64(acc) + dec_u64(other);
        acc.copy_from_slice(&enc_u64(sum));
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gw_core::collect::{for_each_record, BufferPoolCollector, Collector as _};

    #[test]
    fn word_splitting_trims_markup() {
        let mut words = Vec::new();
        for_each_word(b"  [[Hello]], world!  ==heading== x", |w| {
            words.push(w.to_vec())
        });
        assert_eq!(
            words,
            vec![
                b"Hello".to_vec(),
                b"world".to_vec(),
                b"heading".to_vec(),
                b"x".to_vec()
            ]
        );
    }

    #[test]
    fn map_emits_one_per_word() {
        let app = WordCount::new();
        let c = BufferPoolCollector::new(4096, 1);
        app.map(b"0", b"a b a", &Emit::new(&c));
        let mut out = Vec::new();
        for_each_record(&c, &mut |k, v| out.push((k.to_vec(), dec_u64(v))));
        out.sort();
        assert_eq!(
            out,
            vec![(b"a".to_vec(), 1), (b"a".to_vec(), 1), (b"b".to_vec(), 1)]
        );
    }

    #[test]
    fn reduce_sums_across_chunks() {
        let app = WordCount::new();
        let c = BufferPoolCollector::new(4096, 1);
        let emit = Emit::new(&c);
        let mut state = Vec::new();
        let ones = [enc_u64(1); 3];
        let refs: Vec<&[u8]> = ones.iter().map(|v| v.as_slice()).collect();
        app.reduce(b"w", &refs, &mut state, false, &emit);
        assert_eq!(c.records(), 0, "must not emit before the last chunk");
        app.reduce(b"w", &refs[..2], &mut state, true, &emit);
        let mut out = Vec::new();
        for_each_record(&c, &mut |k, v| out.push((k.to_vec(), dec_u64(v))));
        assert_eq!(out, vec![(b"w".to_vec(), 5)]);
    }

    #[test]
    fn combiner_presence_follows_constructor() {
        assert!(WordCount::new().combiner().is_some());
        assert!(WordCount::without_combiner().combiner().is_none());
    }
}
