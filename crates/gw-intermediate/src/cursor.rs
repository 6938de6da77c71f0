//! Sorted-record stream cursors: the abstraction that makes every merge
//! site external-merge-capable.
//!
//! A [`RunCursor`] is a positioned read head over one sorted record
//! stream: `key()`/`value()`/`rec()` view the current record,
//! `advance()` steps to the next (and is the only operation that can
//! fail, since it may touch disk). Two implementations cover the two
//! places intermediate data lives:
//!
//! * [`MemCursor`] — in-memory run bytes, owned (a refcounted [`Run`]) or
//!   borrowed, zero-copy either way;
//! * [`SpillCursor`] — a framed spill file (see [`crate::frame`]),
//!   streamed with exactly one decoded frame resident at a time.
//!
//! The loser-tree merges in [`crate::merge`] are generic over this
//! trait, so compaction and the reduce-input merge operate on any mix of
//! cached and spilled data in `k × frame` memory — never `k × run`. A
//! partition's reduce input is such a mix, so its cursors are the closed
//! [`PartCursor`] enum of the two: one concrete type under the merge, no
//! virtual call per comparison.

use std::fs::File;
use std::io;
use std::ops::Deref;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use gw_storage::varint::RecRef;

use crate::frame::{self, FrameIndex, SpillFaultHook, SpillOp};
use crate::gauge::MemGauge;
use crate::kv::Run;

/// A positioned cursor over one sorted stream of serialized records.
///
/// While `!done()`, the accessor methods view the current record; after
/// the last record `advance()` sets `done()` and the accessors return
/// empty slices. Borrows returned by the accessors are invalidated by
/// `advance()` (the underlying buffer may be refilled), which is why
/// this is a lending cursor and not an [`Iterator`].
pub trait RunCursor: Send {
    /// `true` once the stream is exhausted.
    fn done(&self) -> bool;
    /// Current record's key.
    fn key(&self) -> &[u8];
    /// Current record's value.
    fn value(&self) -> &[u8];
    /// Current record's full serialized extent (header + payload), for
    /// gather-style merging without re-encoding.
    fn rec(&self) -> &[u8];
    /// Step to the next record. Infallible for in-memory sources; a
    /// spill cursor may fail with a typed I/O or corruption error.
    fn advance(&mut self) -> io::Result<()>;
}

/// The record at `pos` of `buf`, or the typed error every cursor reports
/// for bytes that are not a record.
#[inline]
fn record_at(buf: &[u8], pos: usize) -> io::Result<RecRef> {
    RecRef::decode(buf, pos)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "corrupt run: malformed record"))
}

/// Cursor over in-memory run bytes: owned (`MemCursor<Bytes>`, a refcount
/// clone of a [`Run`]) for merges that outlive their runs, or borrowed
/// (`MemCursor<&[u8]>`) for merges over runs the caller keeps alive.
/// Zero-copy either way.
pub struct MemCursor<B = Bytes> {
    pub(crate) buf: B,
    /// Current record; the empty default position once `done`.
    pub(crate) cur: RecRef,
    done: bool,
}

impl MemCursor {
    /// Position a cursor at the run's first record.
    pub fn new(run: Run) -> Self {
        Self::over(run.into_shared())
    }
}

impl<B: Deref<Target = [u8]>> MemCursor<B> {
    /// Position a cursor at the first record of `buf`, which must hold a
    /// valid sorted record stream.
    pub(crate) fn over(buf: B) -> Self {
        let mut c = MemCursor {
            buf,
            cur: RecRef::default(),
            done: false,
        };
        c.step().expect("in-memory runs cannot fail to parse");
        c
    }

    fn step(&mut self) -> io::Result<()> {
        let pos = self.cur.end();
        if pos == self.buf.len() {
            self.done = true;
            self.cur = RecRef::default();
            return Ok(());
        }
        self.cur = record_at(&self.buf, pos)?;
        Ok(())
    }
}

impl<B: Deref<Target = [u8]> + Send> RunCursor for MemCursor<B> {
    fn done(&self) -> bool {
        self.done
    }
    fn key(&self) -> &[u8] {
        self.cur.key(&self.buf)
    }
    fn value(&self) -> &[u8] {
        self.cur.value(&self.buf)
    }
    fn rec(&self) -> &[u8] {
        self.cur.rec(&self.buf)
    }
    fn advance(&mut self) -> io::Result<()> {
        if self.done {
            return Ok(());
        }
        self.step()
    }
}

/// Cursor over a framed spill file, streaming frame by frame with one
/// frame's records resident — plus, over a compressed file, that frame's
/// stored image.
pub struct SpillCursor {
    file: File,
    index: FrameIndex,
    /// Next frame to load (frames `0..next_frame` are consumed).
    next_frame: usize,
    /// Raw records of the current frame; a stored frame is read straight
    /// into it. Reused across frames.
    buf: Vec<u8>,
    /// Compressed image of the current frame, reused across frames; stays
    /// empty over a stored file.
    scratch: Vec<u8>,
    /// Current record within `buf`; the empty default position at a
    /// fresh frame's start and once `done`.
    cur: RecRef,
    done: bool,
    gauge: Option<Arc<MemGauge>>,
    charged: usize,
    hook: Option<Arc<dyn SpillFaultHook>>,
    frames_read: Option<Arc<AtomicUsize>>,
}

impl SpillCursor {
    /// Open a framed spill and position at its first record. Validates
    /// the footer index up front; each frame's checksum is verified as
    /// it streams in.
    pub(crate) fn open(
        path: &Path,
        gauge: Option<Arc<MemGauge>>,
        hook: Option<Arc<dyn SpillFaultHook>>,
        frames_read: Option<Arc<AtomicUsize>>,
    ) -> io::Result<Self> {
        if let Some(h) = &hook {
            if h.spill_fault(SpillOp::Read) {
                return Err(io::Error::other("injected spill read fault"));
            }
        }
        let mut file = File::open(path)?;
        let index = frame::read_index(&mut file)?;
        let mut c = SpillCursor {
            file,
            index,
            next_frame: 0,
            buf: Vec::new(),
            scratch: Vec::new(),
            cur: RecRef::default(),
            done: false,
            gauge,
            charged: 0,
            hook,
            frames_read,
        };
        c.advance()?;
        Ok(c)
    }

    /// Total records in the spill (from the validated footer).
    pub fn records(&self) -> usize {
        self.index.records_total as usize
    }

    fn load_next_frame(&mut self) -> io::Result<()> {
        if let Some(h) = &self.hook {
            if h.spill_fault(SpillOp::Read) {
                return Err(io::Error::other("injected spill read fault"));
            }
        }
        let entry = self.index.entries[self.next_frame];
        self.next_frame += 1;
        frame::read_frame(
            &mut self.file,
            &entry,
            self.index.compressed,
            &mut self.scratch,
            &mut self.buf,
        )?;
        if let Some(g) = &self.gauge {
            g.discharge(self.charged);
            self.charged = self.buf.len() + self.scratch.len();
            g.charge(self.charged);
        }
        if let Some(c) = &self.frames_read {
            c.fetch_add(1, Ordering::Relaxed);
        }
        self.cur = RecRef::default();
        Ok(())
    }
}

impl RunCursor for SpillCursor {
    #[inline]
    fn done(&self) -> bool {
        self.done
    }
    #[inline]
    fn key(&self) -> &[u8] {
        self.cur.key(&self.buf)
    }
    #[inline]
    fn value(&self) -> &[u8] {
        self.cur.value(&self.buf)
    }
    #[inline]
    fn rec(&self) -> &[u8] {
        self.cur.rec(&self.buf)
    }
    fn advance(&mut self) -> io::Result<()> {
        if self.done {
            return Ok(());
        }
        while self.cur.end() == self.buf.len() {
            if self.next_frame == self.index.entries.len() {
                self.done = true;
                self.cur = RecRef::default();
                return Ok(());
            }
            self.load_next_frame()?;
        }
        self.cur = record_at(&self.buf, self.cur.end())?;
        Ok(())
    }
}

impl Drop for SpillCursor {
    fn drop(&mut self) {
        if let Some(g) = &self.gauge {
            g.discharge(self.charged);
        }
    }
}

/// One source of a partition's reduce input
/// ([`crate::IntermediateStore::partition_cursors`]): a run still cached
/// in memory or a spill file. The spill side is boxed so the enum stays
/// the size of the in-memory cursor the in-core merge walks.
pub enum PartCursor {
    /// A cached run, read where it sits.
    Mem(MemCursor),
    /// A framed spill file, one decoded frame resident.
    Spill(Box<SpillCursor>),
}

impl RunCursor for PartCursor {
    #[inline]
    fn done(&self) -> bool {
        match self {
            PartCursor::Mem(c) => c.done(),
            PartCursor::Spill(c) => c.done(),
        }
    }
    #[inline]
    fn key(&self) -> &[u8] {
        match self {
            PartCursor::Mem(c) => c.key(),
            PartCursor::Spill(c) => c.key(),
        }
    }
    #[inline]
    fn value(&self) -> &[u8] {
        match self {
            PartCursor::Mem(c) => c.value(),
            PartCursor::Spill(c) => c.value(),
        }
    }
    #[inline]
    fn rec(&self) -> &[u8] {
        match self {
            PartCursor::Mem(c) => c.rec(),
            PartCursor::Spill(c) => c.rec(),
        }
    }
    #[inline]
    fn advance(&mut self) -> io::Result<()> {
        match self {
            PartCursor::Mem(c) => c.advance(),
            PartCursor::Spill(c) => c.advance(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kv::run_from_pairs;

    fn sample_run(n: usize) -> Run {
        let pairs: Vec<(Vec<u8>, Vec<u8>)> = (0..n)
            .map(|i| {
                (
                    format!("k{i:05}").into_bytes(),
                    format!("v{i}").into_bytes(),
                )
            })
            .collect();
        run_from_pairs(pairs.iter().map(|(k, v)| (k.as_slice(), v.as_slice())))
    }

    #[test]
    fn mem_cursor_walks_every_record() {
        let run = sample_run(100);
        let mut c = MemCursor::new(run.clone());
        let mut got = Vec::new();
        while !c.done() {
            got.push((c.key().to_vec(), c.value().to_vec()));
            c.advance().unwrap();
        }
        let expect: Vec<_> = run.iter().map(|(k, v)| (k.to_vec(), v.to_vec())).collect();
        assert_eq!(got, expect);
        // Exhausted cursors stay exhausted and return empty views.
        c.advance().unwrap();
        assert!(c.done() && c.key().is_empty() && c.rec().is_empty());
    }

    /// Spill `run` through a probing writer at 1 KiB frames, stream it
    /// back, and return the cursor's peak charge.
    fn spill_and_stream(run: &Run) -> usize {
        let dir = crate::tempdir::TempDir::new("gw-cursor-test").unwrap();
        let path = dir.file("s.gw");
        let mut w =
            frame::FrameWriter::create(path.clone(), 1 << 10, frame::Encoding::Probe, None, None)
                .unwrap();
        let mut mc = MemCursor::new(run.clone());
        while !mc.done() {
            w.push(mc.rec()).unwrap();
            mc.advance().unwrap();
        }
        let stats = w.finish().unwrap();
        assert!(stats.frames > 1);

        let gauge = Arc::new(MemGauge::new());
        let mut c = SpillCursor::open(&path, Some(Arc::clone(&gauge)), None, None).unwrap();
        assert_eq!(c.records(), run.records());
        let mut got = Vec::new();
        while !c.done() {
            got.push((c.key().to_vec(), c.value().to_vec()));
            c.advance().unwrap();
        }
        let expect: Vec<_> = run.iter().map(|(k, v)| (k.to_vec(), v.to_vec())).collect();
        assert_eq!(got, expect);
        drop(c);
        assert_eq!(gauge.current(), 0, "drop discharges the cursor's buffers");
        gauge.peak()
    }

    #[test]
    fn spill_cursor_streams_identically_to_the_run() {
        let run = sample_run(500);
        let peak = spill_and_stream(&run);
        // One frame resident at a time: the gauge never saw more than the
        // decoded frame + its stored image, far below the run size.
        assert!(peak > 0);
        assert!(
            peak < run.len_bytes(),
            "peak {peak} should be below the {}-byte run",
            run.len_bytes()
        );
    }

    #[test]
    fn spill_cursor_over_stored_frames_charges_one_buffer() {
        // A frame is cut by the record that takes it to 1 KiB, so it holds
        // less than 1 KiB plus one 101-byte record — and a stored frame is
        // read into the record buffer with no second image beside it.
        use rand::{rngs::StdRng, SeedableRng};
        let run = crate::kv::noise_run(0..300, &mut StdRng::seed_from_u64(11));
        let peak = spill_and_stream(&run);
        assert!((1 << 10..(1 << 10) + 101).contains(&peak), "peak {peak}");
    }
}
