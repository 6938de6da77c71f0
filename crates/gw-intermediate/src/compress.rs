//! LZ77-style compression codec for intermediate data.
//!
//! The paper stores all cached and spilled partitions "in a serialized and
//! compressed form". This codec is implemented in-repo (no external
//! compression crates) with the classic fast-LZ recipe: greedy parsing with
//! a 4-byte-prefix hash table, emitting alternating literal-run / match
//! tokens. MapReduce intermediate data — sorted runs of repetitive keys —
//! compresses very well under this scheme because adjacent records share
//! long key prefixes.
//!
//! ## Format
//!
//! `varint(uncompressed_len)` followed by a token stream. Each token is
//! `varint(lit_len)` + `lit_len` literal bytes + `varint(match_len_code)` +
//! (`varint(offset)` when `match_len_code > 0`). `match_len_code` is
//! `match_len - MIN_MATCH + 1`; `0` means "no match" (only valid for the
//! final token). Offsets are distances back from the current position and
//! may be smaller than the match length (overlapping copy, RLE-style).

use gw_storage::varint;

/// Minimum useful match length.
const MIN_MATCH: usize = 4;
/// Hash-table size (power of two).
const HASH_BITS: u32 = 15;
const HASH_SIZE: usize = 1 << HASH_BITS;
/// Maximum back-reference distance.
const WINDOW: usize = 64 * 1024;

/// Errors from decompression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompressError {
    /// Input ended unexpectedly or contained invalid tokens.
    Corrupt(&'static str),
}

impl std::fmt::Display for CompressError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompressError::Corrupt(msg) => write!(f, "corrupt compressed data: {msg}"),
        }
    }
}

impl std::error::Error for CompressError {}

#[inline]
fn hash4(bytes: &[u8]) -> usize {
    let v = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
    (v.wrapping_mul(2654435761) >> (32 - HASH_BITS)) as usize
}

/// The encoder's match table, reusable across inputs without clearing:
/// `slots[h]` is the last position whose 4-byte prefix hashed to `h`,
/// biased by `base`. `base` moves past every input it has seen, so a slot
/// left by an earlier input (or never written: 0 < `base`) reads as a
/// position before the start of the current one and is never a candidate —
/// what [`compress_into`] emits depends on its input alone.
pub struct LzTable {
    slots: Vec<u32>,
    base: u32,
}

impl LzTable {
    /// An empty table (128 KiB).
    pub fn new() -> Self {
        LzTable {
            slots: vec![0; HASH_SIZE],
            base: 1,
        }
    }
}

impl Default for LzTable {
    fn default() -> Self {
        Self::new()
    }
}

/// Compress `input`; the result always round-trips through [`decompress`].
pub fn compress(input: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(input.len() / 2 + 16);
    compress_into(input, &mut LzTable::new(), &mut out);
    out
}

/// [`compress`] into a caller-owned buffer (cleared first) with a
/// caller-owned match table: a writer that encodes frame after frame pays
/// for neither per call. The bytes are those `compress` returns.
pub fn compress_into(input: &[u8], table: &mut LzTable, out: &mut Vec<u8>) {
    out.clear();
    varint::write_len(out, input.len());
    if input.is_empty() {
        return;
    }
    let n = input.len();
    // Biased positions `base + pos` must not wrap within one input, or a
    // stale slot could alias a live one: start over when they would. (An
    // input of 4 GiB or more wraps regardless; a slot is then only a hint
    // and the byte comparison below keeps the match true.)
    let span = u32::try_from(n).unwrap_or(u32::MAX);
    if table.base.checked_add(span).is_none() {
        table.slots.fill(0);
        table.base = 1;
    }
    let base = table.base;
    table.base = base.saturating_add(span);
    let slots = &mut table.slots[..];
    let mut pos = 0usize;
    let mut lit_start = 0usize;
    while pos + MIN_MATCH <= n {
        let h = hash4(&input[pos..]);
        let here = base.wrapping_add(pos as u32);
        let dist = here.wrapping_sub(slots[h]) as usize;
        slots[h] = here;
        let is_match = (1..=WINDOW.min(pos)).contains(&dist)
            && input[pos - dist..pos - dist + MIN_MATCH] == input[pos..pos + MIN_MATCH];
        if is_match {
            let candidate = pos - dist;
            // Extend the match as far as possible.
            let mut len = MIN_MATCH;
            while pos + len < n && input[candidate + len] == input[pos + len] {
                len += 1;
            }
            // Emit pending literals + this match.
            varint::write_len(out, pos - lit_start);
            out.extend_from_slice(&input[lit_start..pos]);
            varint::write_len(out, len - MIN_MATCH + 1);
            varint::write_len(out, dist);
            // Index a few positions inside the match to help later matches.
            let step = (len / 8).max(1);
            let mut p = pos + 1;
            while p + MIN_MATCH <= n && p < pos + len {
                slots[hash4(&input[p..])] = base.wrapping_add(p as u32);
                p += step;
            }
            pos += len;
            lit_start = pos;
        } else {
            pos += 1;
        }
    }
    // Trailing literals with the no-match terminator.
    varint::write_len(out, n - lit_start);
    out.extend_from_slice(&input[lit_start..]);
    varint::write_len(out, 0);
}

/// Decompress data produced by [`compress`].
///
/// Robust against arbitrary (adversarial) input: every length read from
/// the stream is validated against the declared output size and the
/// remaining input before any allocation or copy, so corrupt data yields
/// `Err`, never a panic or an attacker-chosen allocation. Work and memory
/// are bounded by the declared length — callers decoding *untrusted* data
/// should hold it against their own limit with [`decompress_into`].
pub fn decompress(data: &[u8]) -> Result<Vec<u8>, CompressError> {
    let (total, _) = varint::read_len(data).ok_or(CompressError::Corrupt("missing length"))?;
    let mut out = Vec::new();
    decompress_into(data, total, &mut out)?;
    Ok(out)
}

/// [`decompress`] into a caller-owned buffer (cleared first) for a caller
/// that knows the raw length: a stream declaring any other length is
/// rejected before a byte is copied.
pub fn decompress_into(
    data: &[u8],
    raw_len: usize,
    out: &mut Vec<u8>,
) -> Result<(), CompressError> {
    out.clear();
    let (total, mut at) = varint::read_len(data).ok_or(CompressError::Corrupt("missing length"))?;
    if total != raw_len {
        return Err(CompressError::Corrupt("declared length mismatch"));
    }
    // Cap the up-front reservation (a corrupt length cannot force a huge
    // allocation); growth beyond this is incremental.
    out.reserve(total.min(1 << 20));
    while out.len() < total {
        let (lit_len, n) = varint::read_len(&data[at..])
            .ok_or(CompressError::Corrupt("missing literal length"))?;
        at += n;
        if lit_len > data.len() - at {
            return Err(CompressError::Corrupt("truncated literals"));
        }
        if lit_len > total - out.len() {
            return Err(CompressError::Corrupt("literals overflow declared length"));
        }
        out.extend_from_slice(&data[at..at + lit_len]);
        at += lit_len;
        let (mcode, n) =
            varint::read_len(&data[at..]).ok_or(CompressError::Corrupt("missing match code"))?;
        at += n;
        if mcode == 0 {
            break;
        }
        let match_len = (mcode - 1)
            .checked_add(MIN_MATCH)
            .ok_or(CompressError::Corrupt("match length overflow"))?;
        if match_len > total - out.len() {
            return Err(CompressError::Corrupt("match overflows declared length"));
        }
        let (offset, n) =
            varint::read_len(&data[at..]).ok_or(CompressError::Corrupt("missing offset"))?;
        at += n;
        if offset == 0 || offset > out.len() {
            return Err(CompressError::Corrupt("offset out of range"));
        }
        let start = out.len() - offset;
        if offset >= match_len {
            out.extend_from_within(start..start + match_len);
        } else {
            // Overlapping copy: replicate byte by byte.
            for i in 0..match_len {
                let b = out[start + i];
                out.push(b);
            }
        }
    }
    if out.len() != total {
        return Err(CompressError::Corrupt("length mismatch"));
    }
    Ok(())
}

/// Compression ratio achieved on `input` (compressed/original; lower is
/// better). Returns 1.0 for empty input.
pub fn ratio(input: &[u8]) -> f64 {
    if input.is_empty() {
        return 1.0;
    }
    compress(input).len() as f64 / input.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_roundtrip() {
        let c = compress(&[]);
        assert_eq!(decompress(&c).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn short_incompressible_roundtrip() {
        let data = [1u8, 2, 3];
        assert_eq!(decompress(&compress(&data)).unwrap(), data);
    }

    #[test]
    fn repetitive_data_compresses_well() {
        let data: Vec<u8> = b"the quick brown fox ".repeat(200).to_vec();
        let c = compress(&data);
        assert!(
            c.len() < data.len() / 4,
            "expected >4x on repetitive text, got {} -> {}",
            data.len(),
            c.len()
        );
        assert_eq!(decompress(&c).unwrap(), data);
    }

    #[test]
    fn rle_overlapping_copy_roundtrip() {
        let data = vec![7u8; 10_000];
        let c = compress(&data);
        assert!(c.len() < 100);
        assert_eq!(decompress(&c).unwrap(), data);
    }

    #[test]
    fn sorted_kv_run_compresses() {
        // Simulate a sorted intermediate run: repeated word keys.
        let mut data = Vec::new();
        for word in ["alpha", "beta", "gamma"] {
            for i in 0..200 {
                data.extend_from_slice(word.as_bytes());
                data.extend_from_slice(&(i as u32).to_le_bytes());
            }
        }
        let c = compress(&data);
        // Greedy single-probe matching: expect a solid but not extreme
        // ratio on key-repetitive runs.
        assert!(
            c.len() < data.len() * 7 / 10,
            "expected <0.7 ratio, got {} -> {}",
            data.len(),
            c.len()
        );
        assert_eq!(decompress(&c).unwrap(), data);
    }

    #[test]
    fn corrupt_stream_is_rejected_not_panicking() {
        let data: Vec<u8> = b"hello hello hello hello hello".to_vec();
        let mut c = compress(&data);
        // Flip bytes throughout and require Err or correct output, no panic.
        for i in 0..c.len() {
            c[i] ^= 0xA5;
            let _ = decompress(&c);
            c[i] ^= 0xA5;
        }
        // Truncations must be rejected.
        for cut in 1..c.len() {
            let _ = decompress(&c[..cut]);
        }
    }

    #[test]
    fn declared_length_is_checked_before_anything_is_copied() {
        let data = b"hello hello hello hello hello".to_vec();
        let c = compress(&data);
        let mut out = b"stale".to_vec();
        for wrong in [0, data.len() - 1, data.len() + 1, usize::MAX] {
            let err = decompress_into(&c, wrong, &mut out).unwrap_err();
            assert_eq!(err, CompressError::Corrupt("declared length mismatch"));
            assert!(out.is_empty(), "nothing decoded, nothing left over");
        }
        decompress_into(&c, data.len(), &mut out).unwrap();
        assert_eq!(out, data);
    }

    #[test]
    fn table_starts_over_before_its_positions_wrap() {
        let data = b"the quick brown fox ".repeat(50);
        let mut table = LzTable::new();
        let mut out = Vec::new();
        compress_into(&data, &mut table, &mut out);
        // As if 4 GiB of input had gone by: every slot is live and the
        // next input's positions would run past u32::MAX.
        table.base = u32::MAX - 10;
        compress_into(&data, &mut table, &mut out);
        assert_eq!(out, compress(&data));
        assert_eq!(table.base as usize, 1 + data.len());
    }

    proptest! {
        /// One table and one pair of buffers across consecutive inputs of
        /// different sizes and compressibility give the bytes a fresh
        /// table gives: a slot left by an earlier input is never a match.
        #[test]
        fn reused_table_and_buffers_equal_fresh_ones(
            inputs in proptest::collection::vec(
                prop_oneof![
                    proptest::collection::vec(0u8..4, 0..3000),
                    proptest::collection::vec(any::<u8>(), 0..300),
                ],
                1..6,
            ))
        {
            let mut table = LzTable::new();
            let (mut packed, mut raw) = (Vec::new(), Vec::new());
            for input in &inputs {
                compress_into(input, &mut table, &mut packed);
                prop_assert_eq!(&packed, &compress(input));
                decompress_into(&packed, input.len(), &mut raw).unwrap();
                prop_assert_eq!(&raw, input);
                prop_assert_eq!(&decompress(&packed).unwrap(), input);
            }
        }

        #[test]
        fn roundtrip_arbitrary(data in proptest::collection::vec(any::<u8>(), 0..4096)) {
            prop_assert_eq!(decompress(&compress(&data)).unwrap(), data);
        }

        #[test]
        fn roundtrip_low_entropy(data in proptest::collection::vec(0u8..4, 0..8192)) {
            prop_assert_eq!(decompress(&compress(&data)).unwrap(), data);
        }

        /// Decompressing arbitrary garbage must never panic — it returns
        /// Err or (coincidentally) a valid buffer, bounded by the declared
        /// length.
        #[test]
        fn decompress_arbitrary_input_never_panics(
            data in proptest::collection::vec(any::<u8>(), 0..2048))
        {
            // Bound the declared output length (decompression work is
            // proportional to it by design); arbitrary *content* follows.
            if let Some((total, _)) = gw_storage::varint::read_len(&data) {
                prop_assume!(total <= 1 << 16);
            }
            if let Ok(out) = decompress(&data) {
                // If it parsed, the length header was honoured.
                let (total, _) = gw_storage::varint::read_len(&data).unwrap();
                prop_assert_eq!(out.len(), total);
            }
        }
    }
}
