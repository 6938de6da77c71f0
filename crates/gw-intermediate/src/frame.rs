//! Framed on-disk spill format: record-aligned frames, each independently
//! compressed and checksummed, plus a footer index.
//!
//! The whole-run-blob spills this replaces had to be read and
//! decompressed in full before a single record could be examined — peak
//! memory per spill equaled the spill's raw size. A framed spill decodes
//! incrementally: a reader holds exactly one frame's raw bytes (plus its
//! compressed image) at a time, so the external k-way merges in
//! [`crate::store`] run in `k × frame` memory regardless of partition
//! size (paper §III-B's larger-than-memory intermediate data).
//!
//! ## Layout
//!
//! ```text
//! file    := frame* index trailer
//! frame   := stored payload (per-frame LZ-compressed, or raw)
//! index   := frame_count × { stored_len u32 | raw_len u32 |
//!                            records u32   | checksum u64 }   (20 B LE)
//! trailer := frame_count u32 | flags u32 | raw_total u64 |
//!            records_total u64 | magic u64                    (32 B LE)
//! ```
//!
//! Frames are cut at record boundaries (a serialized record never spans
//! frames), so every frame is independently a valid sorted record slice.
//! `checksum` is FNV-1a 64 over the *stored* bytes: truncation, bit rot
//! and torn writes all surface as a typed [`std::io::ErrorKind::InvalidData`]
//! error instead of a debug assertion or a decoder panic.

use std::fs::File;
use std::io::{self, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::PathBuf;
use std::sync::Arc;

use crate::compress;
use crate::gauge::MemGauge;

/// `"GWFRAME1"` in LE byte order.
const MAGIC: u64 = u64::from_le_bytes(*b"GWFRAME1");
/// Per-frame index entry size in bytes.
const ENTRY_LEN: usize = 20;
/// Trailer size in bytes.
const TRAILER_LEN: usize = 32;
/// Trailer flag bit: frames are LZ-compressed.
const FLAG_COMPRESSED: u32 = 1;

/// Which spill-file operation a fault hook is probed before.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpillOp {
    /// Writing a frame to a spill file.
    Write,
    /// Reading (or opening) a spill file.
    Read,
}

/// Chaos hook probed before every spill-file I/O operation.
///
/// Implemented by `gw-chaos::FaultPlan`; unarmed stores never consult it.
/// Returning `true` injects an I/O failure at the probe site, which the
/// store surfaces as a poisoned-store [`std::io::Error`] instead of a
/// merger-thread panic.
pub trait SpillFaultHook: Send + Sync {
    /// `true` to inject a failure for this operation.
    fn spill_fault(&self, op: SpillOp) -> bool;
}

#[inline]
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn corrupt(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("corrupt spill: {msg}"))
}

fn injected(op: SpillOp) -> io::Error {
    io::Error::other(match op {
        SpillOp::Write => "injected spill write fault",
        SpillOp::Read => "injected spill read fault",
    })
}

/// One frame's index entry (offsets are derived cumulatively on read).
#[derive(Debug, Clone, Copy)]
pub(crate) struct FrameEntry {
    pub(crate) offset: u64,
    pub(crate) stored_len: u32,
    pub(crate) raw_len: u32,
    pub(crate) records: u32,
    pub(crate) checksum: u64,
}

/// Parsed footer of a framed spill.
#[derive(Debug)]
pub(crate) struct FrameIndex {
    pub(crate) entries: Vec<FrameEntry>,
    pub(crate) compressed: bool,
    pub(crate) records_total: u64,
}

/// Read and validate the footer index of a framed spill file.
pub(crate) fn read_index(file: &mut File) -> io::Result<FrameIndex> {
    let len = file.seek(SeekFrom::End(0))?;
    if (len as usize) < TRAILER_LEN {
        return Err(corrupt("file shorter than the trailer"));
    }
    let mut trailer = [0u8; TRAILER_LEN];
    file.seek(SeekFrom::End(-(TRAILER_LEN as i64)))?;
    file.read_exact(&mut trailer)?;
    let magic = u64::from_le_bytes(trailer[24..32].try_into().unwrap());
    if magic != MAGIC {
        return Err(corrupt("bad magic (truncated or not a framed spill)"));
    }
    let frame_count = u32::from_le_bytes(trailer[0..4].try_into().unwrap()) as usize;
    let flags = u32::from_le_bytes(trailer[4..8].try_into().unwrap());
    let raw_total = u64::from_le_bytes(trailer[8..16].try_into().unwrap());
    let records_total = u64::from_le_bytes(trailer[16..24].try_into().unwrap());
    let index_len = frame_count * ENTRY_LEN;
    let footer_len = (index_len + TRAILER_LEN) as u64;
    if len < footer_len {
        return Err(corrupt("frame index extends past start of file"));
    }
    file.seek(SeekFrom::End(-(footer_len as i64)))?;
    let mut raw_index = vec![0u8; index_len];
    file.read_exact(&mut raw_index)?;
    let mut entries = Vec::with_capacity(frame_count);
    let mut offset = 0u64;
    let (mut raw_sum, mut rec_sum) = (0u64, 0u64);
    for chunk in raw_index.chunks_exact(ENTRY_LEN) {
        let stored_len = u32::from_le_bytes(chunk[0..4].try_into().unwrap());
        let raw_len = u32::from_le_bytes(chunk[4..8].try_into().unwrap());
        let records = u32::from_le_bytes(chunk[8..12].try_into().unwrap());
        let checksum = u64::from_le_bytes(chunk[12..20].try_into().unwrap());
        entries.push(FrameEntry {
            offset,
            stored_len,
            raw_len,
            records,
            checksum,
        });
        offset += stored_len as u64;
        raw_sum += raw_len as u64;
        rec_sum += records as u64;
    }
    if offset != len - footer_len {
        return Err(corrupt("frame data region does not match the index"));
    }
    if raw_sum != raw_total || rec_sum != records_total {
        return Err(corrupt("trailer totals disagree with the frame index"));
    }
    Ok(FrameIndex {
        entries,
        compressed: flags & FLAG_COMPRESSED != 0,
        records_total,
    })
}

/// Read one frame into `out`, verifying its checksum and raw length.
/// `scratch` holds the stored (possibly compressed) image between calls.
pub(crate) fn read_frame(
    file: &mut File,
    entry: &FrameEntry,
    compressed: bool,
    scratch: &mut Vec<u8>,
    out: &mut Vec<u8>,
) -> io::Result<()> {
    scratch.resize(entry.stored_len as usize, 0);
    file.seek(SeekFrom::Start(entry.offset))?;
    file.read_exact(scratch)?;
    if fnv1a(scratch) != entry.checksum {
        return Err(corrupt("frame checksum mismatch"));
    }
    if compressed {
        *out =
            compress::decompress(scratch).map_err(|e| corrupt(&format!("frame payload: {e}")))?;
    } else {
        out.clear();
        out.extend_from_slice(scratch);
    }
    if out.len() != entry.raw_len as usize {
        return Err(corrupt("frame raw length mismatch"));
    }
    Ok(())
}

/// Totals of one finished spill file.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SpillStats {
    /// Uncompressed record bytes.
    pub(crate) raw_bytes: usize,
    /// Final on-disk file size (frames + footer).
    pub(crate) disk_bytes: usize,
    pub(crate) records: usize,
    pub(crate) frames: usize,
}

/// Streaming writer of a framed spill: records accumulate in a staging
/// buffer that is cut, compressed and flushed one frame at a time, so
/// writing a spill of any size holds ~one frame in memory.
pub(crate) struct FrameWriter {
    file: BufWriter<File>,
    frame_size: usize,
    compress: bool,
    cur: Vec<u8>,
    cur_records: u32,
    entries: Vec<FrameEntry>,
    offset: u64,
    raw_total: u64,
    records_total: u64,
    gauge: Option<Arc<MemGauge>>,
    charged: usize,
    hook: Option<Arc<dyn SpillFaultHook>>,
}

impl FrameWriter {
    pub(crate) fn create(
        path: PathBuf,
        frame_size: usize,
        compress: bool,
        gauge: Option<Arc<MemGauge>>,
        hook: Option<Arc<dyn SpillFaultHook>>,
    ) -> io::Result<Self> {
        let frame_size = frame_size.max(1 << 10);
        let file = BufWriter::new(File::create(&path)?);
        // Staging buffer plus (when compressing) the encoded image.
        let charged = if compress { 2 * frame_size } else { frame_size };
        if let Some(g) = &gauge {
            g.charge(charged);
        }
        Ok(FrameWriter {
            file,
            frame_size,
            compress,
            cur: Vec::with_capacity(frame_size + 1024),
            cur_records: 0,
            entries: Vec::new(),
            offset: 0,
            raw_total: 0,
            records_total: 0,
            gauge,
            charged,
            hook,
        })
    }

    /// Append one serialized record; cuts a frame when the staging buffer
    /// reaches the frame size.
    pub(crate) fn push(&mut self, rec: &[u8]) -> io::Result<()> {
        self.cur.extend_from_slice(rec);
        self.cur_records += 1;
        if self.cur.len() >= self.frame_size {
            self.cut()?;
        }
        Ok(())
    }

    fn cut(&mut self) -> io::Result<()> {
        if self.cur.is_empty() {
            return Ok(());
        }
        if let Some(h) = &self.hook {
            if h.spill_fault(SpillOp::Write) {
                return Err(injected(SpillOp::Write));
            }
        }
        let enc;
        let stored: &[u8] = if self.compress {
            enc = compress::compress(&self.cur);
            &enc
        } else {
            &self.cur
        };
        assert!(
            self.cur.len() <= u32::MAX as usize && stored.len() <= u32::MAX as usize,
            "frame exceeds the 4 GiB entry limit"
        );
        self.file.write_all(stored)?;
        self.entries.push(FrameEntry {
            offset: self.offset,
            stored_len: stored.len() as u32,
            raw_len: self.cur.len() as u32,
            records: self.cur_records,
            checksum: fnv1a(stored),
        });
        self.offset += stored.len() as u64;
        self.raw_total += self.cur.len() as u64;
        self.records_total += self.cur_records as u64;
        self.cur.clear();
        self.cur_records = 0;
        Ok(())
    }

    /// Flush the final frame, write the footer, and return the totals.
    pub(crate) fn finish(mut self) -> io::Result<SpillStats> {
        self.cut()?;
        let mut footer = Vec::with_capacity(self.entries.len() * ENTRY_LEN + TRAILER_LEN);
        for e in &self.entries {
            footer.extend_from_slice(&e.stored_len.to_le_bytes());
            footer.extend_from_slice(&e.raw_len.to_le_bytes());
            footer.extend_from_slice(&e.records.to_le_bytes());
            footer.extend_from_slice(&e.checksum.to_le_bytes());
        }
        footer.extend_from_slice(&(self.entries.len() as u32).to_le_bytes());
        footer.extend_from_slice(&if self.compress { FLAG_COMPRESSED } else { 0 }.to_le_bytes());
        footer.extend_from_slice(&self.raw_total.to_le_bytes());
        footer.extend_from_slice(&self.records_total.to_le_bytes());
        footer.extend_from_slice(&MAGIC.to_le_bytes());
        self.file.write_all(&footer)?;
        self.file.flush()?;
        Ok(SpillStats {
            raw_bytes: self.raw_total as usize,
            disk_bytes: self.offset as usize + footer.len(),
            records: self.records_total as usize,
            frames: self.entries.len(),
        })
    }
}

impl Drop for FrameWriter {
    fn drop(&mut self) {
        if let Some(g) = &self.gauge {
            g.discharge(self.charged);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> (crate::tempdir::TempDir, PathBuf) {
        let dir = crate::tempdir::TempDir::new("gw-frame-test").unwrap();
        let p = dir.file(name);
        (dir, p)
    }

    fn write_records(path: PathBuf, frame_size: usize, n: usize, compress: bool) -> SpillStats {
        let mut w = FrameWriter::create(path, frame_size, compress, None, None).unwrap();
        for i in 0..n {
            let mut rec = Vec::new();
            gw_storage::varint::write_len(&mut rec, 8);
            gw_storage::varint::write_len(&mut rec, 4);
            rec.extend_from_slice(format!("key{i:05}").as_bytes());
            rec.extend_from_slice(b"val1");
            w.push(&rec).unwrap();
        }
        w.finish().unwrap()
    }

    #[test]
    fn roundtrip_multi_frame() {
        let (_dir, path) = tmp("s.gw");
        let stats = write_records(path.clone(), 1 << 10, 500, true);
        assert!(stats.frames > 1, "want multiple frames, got {stats:?}");
        assert_eq!(stats.records, 500);
        let mut f = File::open(&path).unwrap();
        let idx = read_index(&mut f).unwrap();
        assert_eq!(idx.entries.len(), stats.frames);
        assert_eq!(idx.records_total as usize, 500);
        let (mut scratch, mut out) = (Vec::new(), Vec::new());
        let mut raw = Vec::new();
        for e in &idx.entries {
            read_frame(&mut f, e, idx.compressed, &mut scratch, &mut out).unwrap();
            raw.extend_from_slice(&out);
        }
        assert_eq!(raw.len(), stats.raw_bytes);
    }

    #[test]
    fn truncated_file_is_a_typed_error() {
        let (_dir, path) = tmp("t.gw");
        write_records(path.clone(), 1 << 10, 200, true);
        let full = std::fs::read(&path).unwrap();
        // Chop the tail: the footer (or part of it) is gone.
        std::fs::write(&path, &full[..full.len() / 2]).unwrap();
        let err = read_index(&mut File::open(&path).unwrap()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
    }

    #[test]
    fn flipped_payload_byte_fails_the_frame_checksum() {
        let (_dir, path) = tmp("c.gw");
        write_records(path.clone(), 1 << 10, 200, true);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[3] ^= 0xff; // inside the first frame's stored payload
        std::fs::write(&path, &bytes).unwrap();
        let mut f = File::open(&path).unwrap();
        let idx = read_index(&mut f).unwrap();
        let (mut scratch, mut out) = (Vec::new(), Vec::new());
        let err = read_frame(
            &mut f,
            &idx.entries[0],
            idx.compressed,
            &mut scratch,
            &mut out,
        )
        .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("checksum"), "{err}");
    }

    #[test]
    fn uncompressed_spills_roundtrip_too() {
        let (_dir, path) = tmp("u.gw");
        let stats = write_records(path.clone(), 1 << 10, 300, false);
        let mut f = File::open(&path).unwrap();
        let idx = read_index(&mut f).unwrap();
        assert!(!idx.compressed);
        assert_eq!(idx.records_total as usize, stats.records);
    }
}
