//! SequenceFile-like record format.
//!
//! Job input and output are streams of key/value records. The format is a
//! compact binary framing — magic header, then `varint(klen) varint(vlen)
//! key value` per record — matching the role Hadoop's `SequenceFile` plays
//! in the paper's evaluation ("serialize input and output without the need
//! for text formatting").

use crate::varint::{self, RecRef};
use crate::StorageError;

/// A borrowed key/value record.
pub type RecordRef<'a> = (&'a [u8], &'a [u8]);

/// File magic for format identification and corruption detection.
pub const MAGIC: &[u8; 6] = b"GWSEQ1";

/// Streaming writer producing SeqFile bytes into an owned buffer.
#[derive(Debug)]
pub struct SeqWriter {
    buf: Vec<u8>,
    records: usize,
}

impl SeqWriter {
    /// Start a new file (writes the header).
    pub fn new() -> Self {
        let mut buf = Vec::with_capacity(4096);
        buf.extend_from_slice(MAGIC);
        SeqWriter { buf, records: 0 }
    }

    /// Append one key/value record.
    pub fn append(&mut self, key: &[u8], value: &[u8]) {
        varint::write_len(&mut self.buf, key.len());
        varint::write_len(&mut self.buf, value.len());
        self.buf.extend_from_slice(key);
        self.buf.extend_from_slice(value);
        self.records += 1;
    }

    /// Number of records appended so far.
    pub fn records(&self) -> usize {
        self.records
    }

    /// Bytes produced so far (including header).
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// `true` when no record has been appended.
    pub fn is_empty(&self) -> bool {
        self.records == 0
    }

    /// Finish and take the encoded bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

impl Default for SeqWriter {
    fn default() -> Self {
        Self::new()
    }
}

/// Zero-copy reader over SeqFile bytes.
#[derive(Debug)]
pub struct SeqReader<'a> {
    rest: &'a [u8],
}

impl<'a> SeqReader<'a> {
    /// Open a reader, validating the header.
    pub fn open(bytes: &'a [u8]) -> Result<Self, StorageError> {
        let rest = bytes
            .strip_prefix(MAGIC.as_slice())
            .ok_or_else(|| StorageError::Corrupt("bad SeqFile magic".into()))?;
        Ok(SeqReader { rest })
    }

    /// Open a reader over a mid-file region (no header expected). Used for
    /// input splits that start at a record boundary inside a file.
    pub fn open_raw(bytes: &'a [u8]) -> Self {
        SeqReader { rest: bytes }
    }

    /// Read the next record, or `None` at end of data.
    #[allow(clippy::should_implement_trait)] // fallible, borrowing iterator
    pub fn next(&mut self) -> Result<Option<RecordRef<'a>>, StorageError> {
        if self.rest.is_empty() {
            return Ok(None);
        }
        let rec = RecRef::decode(self.rest, 0)
            .ok_or_else(|| StorageError::Corrupt("truncated or malformed record".into()))?;
        let (key, value) = (rec.key(self.rest), rec.value(self.rest));
        self.rest = &self.rest[rec.end()..];
        Ok(Some((key, value)))
    }

    /// Remaining unread bytes.
    pub fn remaining(&self) -> usize {
        self.rest.len()
    }

    /// Collect all remaining records (convenience for tests and small files).
    pub fn read_all(mut self) -> Result<crate::KvVec, StorageError> {
        let mut out = Vec::new();
        while let Some((k, v)) = self.next()? {
            out.push((k.to_vec(), v.to_vec()));
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn roundtrip_basic() {
        let mut w = SeqWriter::new();
        w.append(b"alpha", b"1");
        w.append(b"", b"empty-key-ok");
        w.append(b"beta", b"");
        assert_eq!(w.records(), 3);
        let bytes = w.finish();
        let records = SeqReader::open(&bytes).unwrap().read_all().unwrap();
        assert_eq!(
            records,
            vec![
                (b"alpha".to_vec(), b"1".to_vec()),
                (b"".to_vec(), b"empty-key-ok".to_vec()),
                (b"beta".to_vec(), b"".to_vec()),
            ]
        );
    }

    #[test]
    fn bad_magic_is_rejected() {
        let err = SeqReader::open(b"NOTSEQ----").unwrap_err();
        assert!(matches!(err, StorageError::Corrupt(_)));
    }

    #[test]
    fn truncated_body_is_rejected() {
        let mut w = SeqWriter::new();
        w.append(b"key", b"value");
        let mut bytes = w.finish();
        bytes.truncate(bytes.len() - 2);
        let mut r = SeqReader::open(&bytes).unwrap();
        assert!(r.next().is_err());
    }

    #[test]
    fn empty_file_yields_no_records() {
        let bytes = SeqWriter::new().finish();
        let mut r = SeqReader::open(&bytes).unwrap();
        assert!(r.next().unwrap().is_none());
    }

    proptest! {
        #[test]
        fn roundtrip_arbitrary(records in proptest::collection::vec(
            (proptest::collection::vec(any::<u8>(), 0..64),
             proptest::collection::vec(any::<u8>(), 0..256)), 0..50)) {
            let mut w = SeqWriter::new();
            for (k, v) in &records {
                w.append(k, v);
            }
            let bytes = w.finish();
            let back = SeqReader::open(&bytes).unwrap().read_all().unwrap();
            prop_assert_eq!(back, records);
        }
    }
}
