//! LEB128-style variable-length integer encoding, and the record framing
//! built on it.
//!
//! Used by the SeqFile record format and by the intermediate-data
//! serialization: MapReduce intermediate data is dominated by short keys and
//! values, so length prefixes must be compact (1 byte for lengths < 128).
//! Both formats frame a record as `varint(klen) varint(vlen) key value`;
//! [`RecRef`] is that framing's one decoder.

/// Append `value` to `out` as a LEB128 varint. Returns bytes written.
#[inline]
pub fn write_u64(out: &mut Vec<u8>, mut value: u64) -> usize {
    let mut n = 0;
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        n += 1;
        if value == 0 {
            out.push(byte);
            return n;
        }
        out.push(byte | 0x80);
    }
}

/// Decode a varint from the front of `buf`. Returns `(value, bytes_read)`,
/// or `None` if the buffer is truncated or the varint overflows u64.
#[inline]
pub fn read_u64(buf: &[u8]) -> Option<(u64, usize)> {
    let mut value: u64 = 0;
    let mut shift = 0u32;
    for (i, &byte) in buf.iter().enumerate() {
        if shift >= 64 {
            return None; // overflow
        }
        let chunk = (byte & 0x7f) as u64;
        // Reject bits that would shift past 64 (canonical-range check).
        if shift == 63 && chunk > 1 {
            return None;
        }
        value |= chunk << shift;
        if byte & 0x80 == 0 {
            return Some((value, i + 1));
        }
        shift += 7;
    }
    None // truncated
}

/// Encoded size of `value` in bytes (1..=10).
#[inline]
pub fn size_u64(value: u64) -> usize {
    if value == 0 {
        return 1;
    }
    let bits = 64 - value.leading_zeros() as usize;
    bits.div_ceil(7)
}

/// Convenience: write a `usize` length.
#[inline]
pub fn write_len(out: &mut Vec<u8>, len: usize) -> usize {
    write_u64(out, len as u64)
}

/// Convenience: read a `usize` length.
#[inline]
pub fn read_len(buf: &[u8]) -> Option<(usize, usize)> {
    read_u64(buf).map(|(v, n)| (v as usize, n))
}

/// Position of one `varint(klen) varint(vlen) key value` record inside a
/// buffer — the framing shared by SeqFile blocks, sorted runs and spill
/// frames. [`RecRef::decode`] is the one place that
/// header is parsed; readers and merge cursors hold the result and slice
/// the buffer through it.
///
/// Kept at 16 bytes because run builders sort arrays of these, so a
/// record must end below 4 GiB from the start of the buffer it indexes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecRef {
    /// Offset of the key's first byte (the header ends here).
    koff: u32,
    klen: u32,
    vlen: u32,
    /// Header (two varints) length.
    hdr: u16,
}

impl RecRef {
    /// Decode the record whose header starts at `buf[off]`. `None` when a
    /// length varint is truncated or overflows, the payload runs past the
    /// end of `buf`, or the record ends beyond the 4 GiB this type
    /// addresses. Never panics, whatever the bytes.
    #[inline]
    pub fn decode(buf: &[u8], off: usize) -> Option<RecRef> {
        let rest = buf.get(off..)?;
        let (klen, n1) = read_len(rest)?;
        let (vlen, n2) = read_len(&rest[n1..])?;
        let hdr = n1 + n2;
        let total = hdr.checked_add(klen)?.checked_add(vlen)?;
        if total > rest.len() || off + total > u32::MAX as usize {
            return None;
        }
        Some(RecRef {
            koff: (off + hdr) as u32,
            klen: klen as u32,
            vlen: vlen as u32,
            hdr: hdr as u16,
        })
    }

    /// Append one record to `out` and return its position.
    ///
    /// # Panics
    /// Panics if the record would end beyond the 4 GiB this type addresses.
    #[inline]
    pub fn write(out: &mut Vec<u8>, key: &[u8], value: &[u8]) -> RecRef {
        let off = out.len();
        assert!(
            off + 20 + key.len() + value.len() <= u32::MAX as usize,
            "record buffer exceeds the 4 GiB index limit"
        );
        let hdr = write_len(out, key.len()) + write_len(out, value.len());
        out.extend_from_slice(key);
        out.extend_from_slice(value);
        RecRef {
            koff: (off + hdr) as u32,
            klen: key.len() as u32,
            vlen: value.len() as u32,
            hdr: hdr as u16,
        }
    }

    /// The record's key bytes within `buf`.
    #[inline]
    pub fn key<'a>(&self, buf: &'a [u8]) -> &'a [u8] {
        let start = self.koff as usize;
        &buf[start..start + self.klen as usize]
    }

    /// The record's value bytes within `buf`.
    #[inline]
    pub fn value<'a>(&self, buf: &'a [u8]) -> &'a [u8] {
        let start = self.koff as usize + self.klen as usize;
        &buf[start..start + self.vlen as usize]
    }

    /// The record's full serialized extent (header + payload) within
    /// `buf`, for gather-style copying without re-encoding.
    #[inline]
    pub fn rec<'a>(&self, buf: &'a [u8]) -> &'a [u8] {
        &buf[self.koff as usize - self.hdr as usize..self.end()]
    }

    /// Offset one past the record's last byte — where the next record's
    /// header starts. 0 for the default (empty) position.
    #[inline]
    pub fn end(&self) -> usize {
        self.koff as usize + self.klen as usize + self.vlen as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn known_encodings() {
        let mut out = Vec::new();
        write_u64(&mut out, 0);
        assert_eq!(out, [0]);
        out.clear();
        write_u64(&mut out, 127);
        assert_eq!(out, [127]);
        out.clear();
        write_u64(&mut out, 128);
        assert_eq!(out, [0x80, 0x01]);
        out.clear();
        write_u64(&mut out, 300);
        assert_eq!(out, [0xAC, 0x02]);
    }

    #[test]
    fn truncated_input_is_rejected() {
        assert_eq!(read_u64(&[]), None);
        assert_eq!(read_u64(&[0x80]), None);
        assert_eq!(read_u64(&[0x80, 0x80]), None);
    }

    #[test]
    fn oversized_varint_is_rejected() {
        // 11 continuation bytes can never be a valid u64.
        let bad = [0xFFu8; 11];
        assert_eq!(read_u64(&bad), None);
    }

    #[test]
    fn max_value_roundtrips() {
        let mut out = Vec::new();
        write_u64(&mut out, u64::MAX);
        assert_eq!(out.len(), 10);
        assert_eq!(read_u64(&out), Some((u64::MAX, 10)));
    }

    #[test]
    fn record_decode_handles_every_shape() {
        let long = vec![b'x'; 300];
        for (key, value) in [
            (b"".as_slice(), b"v".as_slice()),
            (b"k", b""),
            (b"", b""),
            (long.as_slice(), b"v"),
            (b"k", long.as_slice()),
            (long.as_slice(), long.as_slice()),
        ] {
            // A leading record keeps `off` non-zero.
            let mut buf = Vec::new();
            let at = RecRef::write(&mut buf, b"lead", b"in").end();
            let written = RecRef::write(&mut buf, key, value);
            let rec = RecRef::decode(&buf, at).expect("well-formed record");
            assert_eq!(rec, written);
            assert_eq!(rec.key(&buf), key);
            assert_eq!(rec.value(&buf), value);
            assert_eq!(rec.rec(&buf), &buf[at..]);
            assert_eq!(rec.end(), buf.len());
            // Multi-byte varints: lengths >= 128 take two header bytes each.
            let hdr = size_u64(key.len() as u64) + size_u64(value.len() as u64);
            assert_eq!(rec.rec(&buf).len(), hdr + key.len() + value.len());
            // Every proper prefix is malformed: it ends inside a varint or
            // short of `klen + vlen` payload bytes.
            for cut in at + 1..buf.len() {
                assert_eq!(RecRef::decode(&buf[..cut], at), None, "cut at {cut}");
            }
        }
    }

    #[test]
    fn record_decode_rejects_malformed_headers_without_panicking() {
        // Nothing to decode: at and past the end of the buffer.
        assert_eq!(RecRef::decode(&[], 0), None);
        assert_eq!(RecRef::decode(&[1, 0, b'k'], 3), None);
        assert_eq!(RecRef::decode(&[1, 0, b'k'], 9), None);
        // Header truncated inside the key-length varint, then inside the
        // value-length varint.
        assert_eq!(RecRef::decode(&[0x80], 0), None);
        assert_eq!(RecRef::decode(&[0x80, 0x80], 0), None);
        assert_eq!(RecRef::decode(&[1], 0), None);
        assert_eq!(RecRef::decode(&[1, 0x80], 0), None);
        // Payload shorter than klen + vlen.
        assert_eq!(RecRef::decode(&[2, 1, b'k', b'k'], 0), None);
        // Lengths whose sum overflows usize must not wrap into range.
        let mut huge = Vec::new();
        write_u64(&mut huge, u64::MAX);
        write_u64(&mut huge, u64::MAX);
        huge.extend_from_slice(b"payload");
        assert_eq!(RecRef::decode(&huge, 0), None);
        // An over-long varint is malformed, not a length.
        assert_eq!(RecRef::decode(&[0xFF; 12], 0), None);
    }

    proptest! {
        #[test]
        fn roundtrip(v in any::<u64>()) {
            let mut out = Vec::new();
            let written = write_u64(&mut out, v);
            prop_assert_eq!(written, out.len());
            prop_assert_eq!(written, size_u64(v));
            let (back, read) = read_u64(&out).unwrap();
            prop_assert_eq!(back, v);
            prop_assert_eq!(read, written);
        }

        #[test]
        fn roundtrip_with_trailing_garbage(v in any::<u64>(), tail in proptest::collection::vec(any::<u8>(), 0..16)) {
            let mut out = Vec::new();
            let written = write_u64(&mut out, v);
            out.extend_from_slice(&tail);
            let (back, read) = read_u64(&out).unwrap();
            prop_assert_eq!(back, v);
            prop_assert_eq!(read, written);
        }
    }
}
