//! Framed on-disk spill format: record-aligned frames, each independently
//! checksummed and — where the data warrants it — compressed, plus a
//! footer index.
//!
//! The whole-run-blob spills this replaces had to be read and
//! decompressed in full before a single record could be examined — peak
//! memory per spill equaled the spill's raw size. A framed spill decodes
//! incrementally: a reader holds exactly one frame's raw bytes (plus its
//! compressed image, if it has one) at a time, so the external k-way
//! merges in [`crate::store`] run in `k × frame` memory regardless of
//! partition size (paper §III-B's larger-than-memory intermediate data).
//!
//! ## Layout
//!
//! ```text
//! file    := frame* index trailer
//! frame   := stored payload (LZ-compressed in a compressed file, the raw
//!            records in a stored one)
//! index   := frame_count × { stored_len u32 | raw_len u32 |
//!                            records u32   | checksum u64 }   (20 B LE)
//! trailer := frame_count u32 | flags u32 | raw_total u64 |
//!            records_total u64 | magic u64                    (32 B LE)
//! ```
//!
//! Frames are cut at record boundaries (a serialized record never spans
//! frames), so every frame is independently a valid sorted record slice.
//!
//! ## Stored or compressed, decided once per partition
//!
//! A writer is created with an `Encoding`. `Stored` writes every frame
//! raw, `Compressed` LZ-encodes every frame, and `Probe` encodes its first
//! frame and keeps compressing only if that frame shrank to at most 9/10 of
//! its raw length (`STORED_NUM`/`STORED_DEN`); otherwise that frame and
//! every later one is written raw. The trailer's `FLAG_COMPRESSED` bit
//! records the outcome, because a reader picks its decode path (and its
//! buffers) once at open. The store probes only with a partition's first
//! spill: the encoding that file settles on (`SpillStats::encoding`) is
//! the one every later flush and compaction of the partition writes with,
//! so the LZ parse is paid on one frame per partition, not one per file.
//! Sorted WordCount runs encode to a fifth of their size and keep
//! compressing; TeraGen records are random bytes, encode to 0.98 and would
//! pay an LZ parse on the way out and a decode on the way back for nothing.
//! A partition's spills are slices of one key range of one job, so its
//! first frame speaks for the rest. The decision is a function of that
//! frame's bytes, and `compress = false` means `Stored`: no frame is ever
//! encoded.
//!
//! ## Checksum
//!
//! `checksum` covers the *stored* bytes and is verified on every frame
//! read before anything is decoded: truncation, bit rot and torn writes
//! surface as a typed [`std::io::ErrorKind::InvalidData`] error instead of
//! a debug assertion or a decoder panic. It is word-wide — four
//! independent 64-bit xor-multiply-rotate lanes over 32-byte blocks, then
//! a byte tail, seeded with the length — because it is paid over every
//! spilled byte twice (write, read back) and a byte-serial hash is a
//! multiply latency per byte. Every step is a bijection of its lane's
//! state for a fixed input word and of the word for a fixed state, and so
//! are the fold of the lanes and the finish: corruption confined to one
//! aligned 8-byte word (or one tail byte) always changes the checksum.
//! Anything wider, and a change of length, escapes with probability 2⁻⁶⁴.
//! It detects accidents, not adversaries.

use std::fs::File;
use std::io::{self, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::PathBuf;
use std::sync::Arc;

use crate::compress::{self, LzTable};
use crate::gauge::MemGauge;

/// `"GWFRAME1"` in LE byte order.
const MAGIC: u64 = u64::from_le_bytes(*b"GWFRAME1");
/// Per-frame index entry size in bytes.
const ENTRY_LEN: usize = 20;
/// Trailer size in bytes.
const TRAILER_LEN: usize = 32;
/// Trailer flag bit: frames are LZ-compressed.
const FLAG_COMPRESSED: u32 = 1;
/// A probing writer keeps compressing only if its first frame encodes to
/// at most `STORED_NUM / STORED_DEN` of its raw length. LZ output this
/// close to its input is all literals: the bytes saved do not buy back the
/// parse.
const STORED_NUM: usize = 9;
const STORED_DEN: usize = 10;

/// How a [`FrameWriter`] encodes its frames (module doc, "Stored or
/// compressed, decided once per partition").
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub(crate) enum Encoding {
    /// Every frame raw.
    Stored,
    /// Every frame LZ-compressed.
    Compressed,
    /// The first frame decides between the other two.
    #[default]
    Probe,
}

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

/// Odd multipliers (the golden ratio and three xxHash64 primes), one per
/// lane so equal words in different lanes do not cancel.
const LANE_MUL: [u64; 4] = [
    0x9e37_79b9_7f4a_7c15,
    0xc2b2_ae3d_27d4_eb4f,
    0x1656_67b1_9e37_79f9,
    0x27d4_eb2f_1656_67c5,
];

/// One lane step; a bijection of `h` for fixed `w` and of `w` for fixed `h`.
#[inline(always)]
fn mix(h: u64, w: u64, mul: u64) -> u64 {
    (h ^ w).wrapping_mul(mul).rotate_left(29)
}

/// The per-frame checksum (module doc, "Checksum").
fn checksum(bytes: &[u8]) -> u64 {
    let mut lanes = LANE_MUL;
    let mut blocks = bytes.chunks_exact(32);
    for block in &mut blocks {
        for (i, lane) in lanes.iter_mut().enumerate() {
            let word: [u8; 8] = block[8 * i..8 * i + 8]
                .try_into()
                .expect("an 8-byte slice of a 32-byte block");
            *lane = mix(*lane, u64::from_le_bytes(word), LANE_MUL[i]);
        }
    }
    let mut h = bytes.len() as u64;
    for lane in lanes {
        h = mix(h, lane, LANE_MUL[0]);
    }
    for &b in blocks.remainder() {
        h = mix(h, b as u64, LANE_MUL[1]);
    }
    // Finish: spread the last steps' high bits down (xor-shifts and odd
    // multiplies are bijections too).
    h ^= h >> 32;
    h = h.wrapping_mul(LANE_MUL[2]);
    h ^ (h >> 29)
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

/// Read one frame's raw records into `out`, verifying its checksum and
/// raw length before anything is decoded. A stored frame is read straight
/// into `out`; a compressed one into `scratch` (untouched otherwise) and
/// decoded from there. Both buffers are the caller's to reuse.
pub(crate) fn read_frame(
    file: &mut File,
    entry: &FrameEntry,
    compressed: bool,
    scratch: &mut Vec<u8>,
    out: &mut Vec<u8>,
) -> io::Result<()> {
    let image = if compressed { &mut *scratch } else { &mut *out };
    image.resize(entry.stored_len as usize, 0);
    file.seek(SeekFrom::Start(entry.offset))?;
    file.read_exact(image)?;
    if checksum(image) != entry.checksum {
        return Err(corrupt("frame checksum mismatch"));
    }
    if compressed {
        compress::decompress_into(scratch, entry.raw_len as usize, out)
            .map_err(|e| corrupt(&format!("frame payload: {e}")))?;
    } else if entry.stored_len != entry.raw_len {
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
    /// What the file was written as: `Probe` only if it has no frame.
    pub(crate) encoding: Encoding,
}

/// What a compressing writer keeps between frames, so that no frame
/// allocates: the LZ match table and the encoded image.
struct Codec {
    table: LzTable,
    image: Vec<u8>,
}

/// Streaming writer of a framed spill: records accumulate in a staging
/// buffer that is cut, encoded and flushed one frame at a time, so
/// writing a spill of any size holds ~one frame in memory.
pub(crate) struct FrameWriter {
    file: BufWriter<File>,
    frame_size: usize,
    /// `Some` while frames are written compressed: unless the encoding is
    /// `Stored` from `create` or a probed first frame did not shrink.
    codec: Option<Codec>,
    /// `Probe` until the first frame is cut, then what it decided.
    encoding: Encoding,
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
        encoding: Encoding,
        gauge: Option<Arc<MemGauge>>,
        hook: Option<Arc<dyn SpillFaultHook>>,
    ) -> io::Result<Self> {
        let frame_size = frame_size.max(1 << 10);
        let file = BufWriter::new(File::create(&path)?);
        let compress = encoding != Encoding::Stored;
        let codec = compress.then(|| Codec {
            table: LzTable::new(),
            image: Vec::with_capacity(frame_size),
        });
        // The intermediate bytes resident here: the staging buffer plus,
        // while compressing, the encoded image. (The match table holds
        // positions, not data, and is not charged.)
        let charged = if compress { 2 * frame_size } else { frame_size };
        if let Some(g) = &gauge {
            g.charge(charged);
        }
        Ok(FrameWriter {
            file,
            frame_size,
            codec,
            encoding,
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
        if let Some(codec) = &mut self.codec {
            compress::compress_into(&self.cur, &mut codec.table, &mut codec.image);
            if self.encoding == Encoding::Probe {
                let shrank = codec.image.len() * STORED_DEN <= self.cur.len() * STORED_NUM;
                self.encoding = if shrank {
                    Encoding::Compressed
                } else {
                    Encoding::Stored
                };
            }
            if self.encoding == Encoding::Stored {
                // This file is stored: the encoded image goes, and its
                // half of the charge with it.
                self.codec = None;
                if let Some(g) = &self.gauge {
                    g.discharge(self.frame_size);
                }
                self.charged -= self.frame_size;
            }
        }
        let stored: &[u8] = match &self.codec {
            Some(codec) => &codec.image,
            None => &self.cur,
        };
        let too_long = |_| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                "spill frame exceeds the 4 GiB index entry limit",
            )
        };
        let stored_len = u32::try_from(stored.len()).map_err(too_long)?;
        let raw_len = u32::try_from(self.cur.len()).map_err(too_long)?;
        self.file.write_all(stored)?;
        self.entries.push(FrameEntry {
            offset: self.offset,
            stored_len,
            raw_len,
            records: self.cur_records,
            checksum: checksum(stored),
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
        let flags = if self.codec.is_some() {
            FLAG_COMPRESSED
        } else {
            0
        };
        footer.extend_from_slice(&flags.to_le_bytes());
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
            encoding: self.encoding,
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
    use proptest::prelude::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn tmp(name: &str) -> (crate::tempdir::TempDir, PathBuf) {
        let dir = crate::tempdir::TempDir::new("gw-frame-test").unwrap();
        let p = dir.file(name);
        (dir, p)
    }

    fn record(key: &[u8], value: &[u8]) -> Vec<u8> {
        let mut rec = Vec::new();
        gw_storage::varint::write_len(&mut rec, key.len());
        gw_storage::varint::write_len(&mut rec, value.len());
        rec.extend_from_slice(key);
        rec.extend_from_slice(value);
        rec
    }

    /// Record `i` of the compressible fixture: sorted keys, one value.
    fn text_record(i: usize) -> Vec<u8> {
        record(format!("key{i:05}").as_bytes(), b"val1")
    }

    /// A record of the incompressible fixture, TeraGen-shaped: a
    /// pseudo-random 10-byte key and 90-byte value.
    fn noise_record(rng: &mut StdRng) -> Vec<u8> {
        let mut bytes = [0u8; 100];
        rng.fill(&mut bytes[..]);
        record(&bytes[..10], &bytes[10..])
    }

    /// Write `records` through a writer charged to a fresh gauge; the
    /// writer's charge must be gone once it is.
    fn write_all(
        path: &std::path::Path,
        frame_size: usize,
        encoding: Encoding,
        records: &[Vec<u8>],
    ) -> SpillStats {
        let gauge = Arc::new(MemGauge::new());
        let mut w = FrameWriter::create(
            path.to_path_buf(),
            frame_size,
            encoding,
            Some(Arc::clone(&gauge)),
            None,
        )
        .unwrap();
        for rec in records {
            w.push(rec).unwrap();
        }
        let stats = w.finish().unwrap();
        assert!(gauge.peak() >= frame_size);
        assert_eq!(gauge.current(), 0, "a finished writer holds no charge");
        stats
    }

    fn write_records(path: PathBuf, frame_size: usize, n: usize, encoding: Encoding) -> SpillStats {
        let records: Vec<Vec<u8>> = (0..n).map(text_record).collect();
        write_all(&path, frame_size, encoding, &records)
    }

    fn noise_records(n: usize, seed: u64) -> Vec<Vec<u8>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| noise_record(&mut rng)).collect()
    }

    /// Every frame of the file, decoded and concatenated, and the index.
    fn read_all(path: &std::path::Path) -> (Vec<u8>, FrameIndex) {
        let mut f = File::open(path).unwrap();
        let idx = read_index(&mut f).unwrap();
        let (mut scratch, mut out) = (Vec::new(), Vec::new());
        let mut raw = Vec::new();
        for e in &idx.entries {
            read_frame(&mut f, e, idx.compressed, &mut scratch, &mut out).unwrap();
            raw.extend_from_slice(&out);
        }
        (raw, idx)
    }

    fn first_frame_error(path: &std::path::Path) -> io::Error {
        let mut f = File::open(path).unwrap();
        let idx = read_index(&mut f).unwrap();
        let (mut scratch, mut out) = (Vec::new(), Vec::new());
        read_frame(
            &mut f,
            &idx.entries[0],
            idx.compressed,
            &mut scratch,
            &mut out,
        )
        .unwrap_err()
    }

    #[test]
    fn roundtrip_multi_frame() {
        let (_dir, path) = tmp("s.gw");
        let stats = write_records(path.clone(), 1 << 10, 500, Encoding::Probe);
        assert!(stats.frames > 1, "want multiple frames, got {stats:?}");
        assert_eq!(stats.records, 500);
        let (raw, idx) = read_all(&path);
        assert_eq!(idx.entries.len(), stats.frames);
        assert_eq!(idx.records_total as usize, 500);
        assert_eq!(raw, (0..500).flat_map(text_record).collect::<Vec<u8>>());
        // Sorted text keeps compressing.
        assert!(idx.compressed);
        assert_eq!(stats.encoding, Encoding::Compressed);
        assert!(stats.disk_bytes < stats.raw_bytes, "{stats:?}");
    }

    #[test]
    fn incompressible_records_are_stored_raw_under_a_compressing_writer() {
        let (_dir, path) = tmp("n.gw");
        let records = noise_records(200, 1);
        let stats = write_all(&path, 1 << 10, Encoding::Probe, &records);
        assert!(stats.frames > 1, "{stats:?}");
        assert_eq!(stats.encoding, Encoding::Stored);
        assert_eq!(
            stats.disk_bytes,
            stats.raw_bytes + ENTRY_LEN * stats.frames + TRAILER_LEN,
            "stored frames are the raw records: {stats:?}"
        );
        let (raw, idx) = read_all(&path);
        assert!(!idx.compressed);
        assert_eq!(raw, records.concat());

        // Stored frames are verified like compressed ones.
        let full = std::fs::read(&path).unwrap();
        let mut flipped = full.clone();
        flipped[40] ^= 0x01; // inside the first frame's payload
        std::fs::write(&path, &flipped).unwrap();
        let err = first_frame_error(&path);
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("checksum"), "{err}");
        std::fs::write(&path, &full[..full.len() / 2]).unwrap();
        let err = read_index(&mut File::open(&path).unwrap()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
    }

    #[test]
    fn a_probed_first_frame_decides_for_the_whole_file() {
        let text: Vec<Vec<u8>> = (0..100).map(text_record).collect();
        let noise = noise_records(100, 2);
        let frames_of = |idx: &FrameIndex, compressed: bool| {
            idx.entries
                .iter()
                .filter(|e| (e.stored_len < e.raw_len) == compressed)
                .count()
        };

        // Compressible first, noise after: the file stays compressed, and
        // the noise frames are carried encoded (a little larger than raw).
        let (_dir, path) = tmp("tn.gw");
        let records = [text.clone(), noise.clone()].concat();
        write_all(&path, 1 << 10, Encoding::Probe, &records);
        let (raw, idx) = read_all(&path);
        assert!(idx.compressed);
        assert!(frames_of(&idx, false) > 0, "some frames did not shrink");
        assert_eq!(raw, records.concat());

        // Noise first: the file is stored, compressible frames included.
        let (_dir, path) = tmp("nt.gw");
        let records = [noise, text].concat();
        write_all(&path, 1 << 10, Encoding::Probe, &records);
        let (raw, idx) = read_all(&path);
        assert!(!idx.compressed);
        assert_eq!(frames_of(&idx, true), 0);
        assert_eq!(raw, records.concat());
    }

    #[test]
    fn a_decided_encoding_is_not_probed_again() {
        // A writer for a partition that compresses encodes every frame,
        // even noise a probe would have stored (and the text a stored
        // partition writes is never encoded: `uncompressed_spills…`).
        let (_dir, path) = tmp("cn.gw");
        let noise = noise_records(100, 3);
        let stats = write_all(&path, 1 << 10, Encoding::Compressed, &noise);
        assert_eq!(stats.encoding, Encoding::Compressed);
        let (raw, idx) = read_all(&path);
        assert!(idx.compressed);
        assert_eq!(raw, noise.concat());
    }

    #[test]
    fn truncated_file_is_a_typed_error() {
        let (_dir, path) = tmp("t.gw");
        write_records(path.clone(), 1 << 10, 200, Encoding::Probe);
        let full = std::fs::read(&path).unwrap();
        // Chop the tail: the footer (or part of it) is gone.
        std::fs::write(&path, &full[..full.len() / 2]).unwrap();
        let err = read_index(&mut File::open(&path).unwrap()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
    }

    #[test]
    fn flipped_payload_byte_fails_the_frame_checksum() {
        let (_dir, path) = tmp("c.gw");
        write_records(path.clone(), 1 << 10, 200, Encoding::Probe);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[3] ^= 0xff; // inside the first frame's stored payload
        std::fs::write(&path, &bytes).unwrap();
        let err = first_frame_error(&path);
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("checksum"), "{err}");
    }

    #[test]
    fn a_frame_whose_index_lies_about_its_raw_length_is_rejected() {
        for (name, encoding) in [("lz.gw", Encoding::Probe), ("raw.gw", Encoding::Stored)] {
            let (_dir, path) = tmp(name);
            let stats = write_records(path.clone(), 1 << 10, 200, encoding);
            // Add one to frame 0's raw_len and to the trailer's raw_total,
            // so the footer still adds up.
            let mut bytes = std::fs::read(&path).unwrap();
            let index_at = bytes.len() - TRAILER_LEN - stats.frames * ENTRY_LEN;
            bytes[index_at + 4] = bytes[index_at + 4].wrapping_add(1);
            let total_at = bytes.len() - TRAILER_LEN + 8;
            bytes[total_at] = bytes[total_at].wrapping_add(1);
            std::fs::write(&path, &bytes).unwrap();
            let err = first_frame_error(&path);
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert!(err.to_string().contains("length"), "{name}: {err}");
        }
    }

    #[test]
    fn uncompressed_spills_roundtrip_too() {
        let (_dir, path) = tmp("u.gw");
        let stats = write_records(path.clone(), 1 << 10, 300, Encoding::Stored);
        let (raw, idx) = read_all(&path);
        assert!(!idx.compressed);
        assert_eq!(stats.encoding, Encoding::Stored);
        assert_eq!(idx.records_total as usize, stats.records);
        assert_eq!(raw.len(), stats.raw_bytes);
    }

    proptest! {
        /// Lengths 0..=200 cover the empty frame, every tail length 0..=31
        /// and several full blocks.
        #[test]
        fn checksum_sees_every_byte_and_the_length(
            data in proptest::collection::vec(any::<u8>(), 0..201),
            at in any::<usize>(),
            flip in 1u8..=255,
        ) {
            let sum = checksum(&data);
            if !data.is_empty() {
                let mut flipped = data.clone();
                flipped[at % data.len()] ^= flip;
                prop_assert_ne!(checksum(&flipped), sum);
                prop_assert_ne!(checksum(&data[..data.len() - 1]), sum);
            }
            let mut longer = data.clone();
            longer.push(0);
            prop_assert_ne!(checksum(&longer), sum);
        }
    }
}
