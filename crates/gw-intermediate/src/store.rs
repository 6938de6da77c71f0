//! Per-node intermediate-data store: partition cache, framed spill files,
//! and the background merger tasks.
//!
//! Reproduces paper §III-B:
//!
//! * "each node maintains an in-memory cache of Partitions which are merged
//!   and flushed to disk when their aggregate size exceeds a configurable
//!   threshold" — [`IntermediateStore::add_run`] + the flush tasks;
//! * "intermediate data Partitions produced by other cluster nodes are
//!   received and added to the in-memory cache" — the network receiver
//!   calls the same `add_run`;
//! * "Partitions residing on disk are continuously merged using multi-way
//!   merging so the number of intermediate data files is limited to a
//!   configurable count" — the compaction step of the merger tasks: a
//!   partition may hold M spill files, and one more makes its task merge
//!   the smallest F = `max(M / (2 × merger_threads) − 1, 2)` of them into
//!   one. N flushes of equal size then rewrite no byte while N ≤ M, and
//!   each byte at most once while N stays under ~M·F/2 — the ⌈log_M N⌉
//!   rounds of an M-way external merge, the last of which is the reduce's;
//! * "Glasswing can be configured to use multiple threads to speed-up both
//!   the merge and flush operations" — `merger_threads`;
//! * intermediate data is merged "on background threads" while the map
//!   runs — each partition's cache is kept in **tiers**: a run enters at
//!   tier 0, and when a tier holds `TIER_FANIN` (16) runs the partition's
//!   merger task merges its oldest ones in memory into one run of the
//!   next tier, so the reduce opens a few long runs, not hundreds;
//! * the **merge delay** metric — "the time dedicated to merging
//!   intermediate data after the completion of the map phase and before
//!   reduction starts" — the wait in [`IntermediateStore::finish_map`]
//!   for the tasks still in flight at map end: it stops new pre-merges,
//!   so at most one pre-merge batch per task, plus any flush and
//!   compaction, is left to wait for.
//!
//! Intermediate bytes leave memory by exactly one rule, `add_run`'s
//! `total > memory_budget / 2`: a flush takes the partition's whole cache,
//! every tier. Nothing is flushed at end of map: a job whose per-node
//! intermediate data never crosses that flush point never touches disk,
//! and the reduce input merge reads its tiers directly — the paper's "one last merge operation" (§III-C). A
//! pre-merge adds no combining: which runs share a batch is timing, and
//! merge order `(key, value, source)` makes the merged stream the same
//! for any grouping, where a combine result would not be.
//!
//! ## Out-of-core operation (DESIGN.md §3.10)
//!
//! Spills use the framed format of [`crate::frame`], so both the
//! continuous compaction here and the reduce-input merge downstream are
//! true **external k-way merges**: data streams cursor-to-cursor through
//! [`crate::cursor::SpillCursor`]s holding one decoded frame each, and a
//! flush streams cache runs straight into a framed spill writer without
//! materializing the merged run. Every resident intermediate byte —
//! cached runs, writer staging buffers, cursor frames — is charged to one
//! [`MemGauge`], whose high-water mark is exported as
//! [`StoreMetrics::peak_resident_bytes`]. Every store runs under a
//! `memory_budget`, its one spill setting: it derives the flush point, the
//! frame size, M and the compaction fan-in
//! ([`IntermediateConfig::with_memory_budget`]).
//! [`IntermediateStore::add_run`] applies backpressure so that peak stays
//! within a small constant of the budget no matter how large the partition
//! grows, and a pre-merge, whose output sits beside its inputs until it
//! ends, starts only when the gauge has room for that output. The reduce
//! merge holds M spill cursors of at most two frames each beside a cache of
//! about half the budget, and the compactions, which run beside a live
//! cache of up to the whole budget, share half as many cursors among the
//! merger threads, their writers included. A partition's first spill
//! decides whether all of its spills are stored or compressed
//! ([`crate::frame`], "Stored or compressed").
//!
//! Spill I/O failures on merger threads do not panic, and a panic there
//! is caught: the first of either **poisons** the store and surfaces
//! from [`IntermediateStore::finish_map`] /
//! [`IntermediateStore::partition_cursors`] as a typed
//! [`std::io::Error`] the engine maps to `EngineError::Io`.

use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::{Condvar, Mutex};

use crate::cursor::{MemCursor, PartCursor, RunCursor, SpillCursor};
use crate::frame::{self, Encoding, SpillFaultHook};
use crate::gauge::MemGauge;
use crate::kv::Run;
use crate::merge::{merge_runs, CursorMerge, TIER_FANIN};
use crate::tempdir::TempDir;
use crate::PartitionId;

/// Configuration of a node's intermediate store.
#[derive(Debug, Clone)]
pub struct IntermediateConfig {
    /// Number of partitions hosted by this node (the paper's `P`).
    pub num_partitions: u32,
    /// Background merger/flusher threads (the paper sets this equal to `P`
    /// in its Fig. 4 experiments).
    pub merger_threads: usize,
    /// Whether spills are stored compressed (the paper always compresses;
    /// disabling is useful for ablation).
    pub compress: bool,
    /// Bound on resident intermediate bytes, and the store's one spill
    /// setting: it derives the whole spill policy
    /// ([`IntermediateConfig::with_memory_budget`]).
    /// [`IntermediateStore::add_run`] blocks a producer whose run would
    /// take the gauge over it while merger tasks are in flight, and a
    /// pre-merge starts only with room for its output, keeping peak
    /// residency within ~1.5× the budget.
    pub memory_budget: usize,
}

impl Default for IntermediateConfig {
    fn default() -> Self {
        IntermediateConfig {
            num_partitions: 1,
            merger_threads: 1,
            compress: true,
            memory_budget: 64 << 20,
        }
    }
}

impl IntermediateConfig {
    /// Set the memory budget, from which the store derives its spill
    /// policy: the cache flushes at half the budget, frames are `budget /
    /// 64` (clamped to 1 KiB–1 MiB), and a partition may hold M = `budget
    /// / (2 × frame)` spill files, at least two — 32 at the derived frame
    /// — so the reduce merge's M cursors of at most two frames each fit in
    /// the other half. These keep [`StoreMetrics::peak_resident_bytes`] ≤
    /// ~1.5× `budget` from 12 KiB up: below it a compaction's two input
    /// cursors and its writer, two 1 KiB frames each, outgrow half the
    /// budget.
    pub fn with_memory_budget(mut self, budget: usize) -> Self {
        self.memory_budget = budget;
        self
    }

    /// The spill policy `memory_budget` derives (module doc and
    /// [`IntermediateConfig::with_memory_budget`]).
    fn limits(&self) -> Limits {
        let budget = self.memory_budget;
        let frame = (budget / 64).clamp(1 << 10, 1 << 20);
        let max_spill_files = (budget / (2 * frame)).max(2);
        let share = max_spill_files / (2 * self.merger_threads.max(1));
        Limits {
            flush_at: budget / 2,
            frame,
            max_spill_files,
            compaction_fanin: share.saturating_sub(1).max(2),
        }
    }
}

/// What a budget derives ([`IntermediateConfig::limits`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Limits {
    /// Aggregate cached bytes past which every partition flushes its whole
    /// cache — the only trigger.
    flush_at: usize,
    /// Target raw bytes per spill frame: the unit of incremental decode,
    /// and the granule the external merges hold in memory per source.
    frame: usize,
    /// Spill files a partition may hold (M) before its task compacts.
    max_spill_files: usize,
    /// Spill files one compaction merges, the smallest first.
    compaction_fanin: usize,
}

/// A spilled, framed, (optionally) compressed run on disk.
#[derive(Debug)]
struct SpillFile {
    path: PathBuf,
    raw_bytes: usize,
    records: usize,
    frames: usize,
}

#[derive(Debug)]
struct PartState {
    /// Cached runs by tier, oldest first: `tiers[t]` holds runs that `t`
    /// rounds of pre-merging made, [`TIER_FANIN`] runs of tier `t` into
    /// one of tier `t + 1`.
    tiers: Vec<Vec<Run>>,
    /// Bytes of every cached run, a running pre-merge's inputs included.
    cache_bytes: usize,
    spills: Vec<SpillFile>,
    /// A merger task is in flight for this partition.
    busy: bool,
    /// A flush was asked for: the task flushes before it pre-merges.
    flush_due: bool,
    /// How the partition's next spill is written: `Probe` until its first
    /// frame decides, then what that frame decided (`Stored` throughout
    /// when the store does not compress).
    encoding: Encoding,
}

#[derive(Debug, Default)]
struct Metrics {
    flushes: AtomicUsize,
    compactions: AtomicUsize,
    spilled_raw: AtomicUsize,
    spilled_disk: AtomicUsize,
    runs_added: AtomicUsize,
    records_added: AtomicUsize,
    bytes_added: AtomicUsize,
    merges: AtomicUsize,
    merge_fanin: AtomicUsize,
    frames_written: AtomicUsize,
    frames_read: Arc<AtomicUsize>,
}

/// Snapshot of store metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreMetrics {
    /// Cache→disk flush operations performed.
    pub flushes: usize,
    /// Disk compaction merges performed.
    pub compactions: usize,
    /// Uncompressed bytes spilled.
    pub spilled_raw: usize,
    /// On-disk (compressed, framed) bytes spilled.
    pub spilled_disk: usize,
    /// Runs added to the cache (local + received).
    pub runs_added: usize,
    /// Records across all added runs.
    pub records_added: usize,
    /// Serialized bytes across all added runs: the node's intermediate
    /// data, against which `spilled_raw` reads as a write amplification.
    pub bytes_added: usize,
    /// Background merges: cache flushes, compactions, and the in-memory
    /// tier merges made while the map runs. `flushes` and `compactions`
    /// count only the disk work among them.
    ///
    /// Kept as store metrics rather than trace counters on purpose: these
    /// merges run on merger threads whose scheduling is timing-dependent,
    /// so emitting them as events would break the logical-stream
    /// determinism contract.
    pub merges: usize,
    /// Total runs consumed across those merges, tier merges included
    /// (fan-in pressure).
    pub merge_fanin: usize,
    /// Spill frames written (flushes + compactions).
    pub frames_written: usize,
    /// Spill frames decoded (compactions + reduce-input cursors).
    pub frames_read: usize,
    /// High-water mark of resident intermediate bytes: cached runs +
    /// writer staging + open cursor frames. The out-of-core contract is
    /// stated against this figure (≤ ~1.5× `memory_budget`).
    pub peak_resident_bytes: usize,
}

struct Inner {
    cfg: IntermediateConfig,
    limits: Limits,
    dir: TempDir,
    parts: Vec<Mutex<PartState>>,
    cache_bytes: AtomicUsize,
    pending: AtomicUsize,
    /// Set by `finish_map`: no pre-merge starts after it.
    map_done: AtomicBool,
    quiesce_lock: Mutex<()>,
    quiesce_cv: Condvar,
    spill_seq: AtomicU64,
    metrics: Metrics,
    gauge: Arc<MemGauge>,
    /// First spill I/O error seen on a merger thread; sticky.
    poison: Mutex<Option<(io::ErrorKind, String)>>,
    /// Chaos hook probed before spill reads/writes (None when unarmed).
    hook: Mutex<Option<Arc<dyn SpillFaultHook>>>,
    /// Producers park here when over `memory_budget` (backpressure).
    bp_lock: Mutex<()>,
    bp_cv: Condvar,
}

impl Inner {
    fn task_done(&self) {
        if self.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
            let _g = self.quiesce_lock.lock();
            self.quiesce_cv.notify_all();
        }
    }

    fn wait_quiesce(&self) {
        let mut guard = self.quiesce_lock.lock();
        while self.pending.load(Ordering::Acquire) != 0 {
            self.quiesce_cv.wait(&mut guard);
        }
    }

    fn poison(&self, err: io::Error) {
        let mut p = self.poison.lock();
        if p.is_none() {
            *p = Some((err.kind(), err.to_string()));
        }
    }

    fn check_poison(&self) -> io::Result<()> {
        match &*self.poison.lock() {
            Some((kind, msg)) => Err(io::Error::new(*kind, msg.clone())),
            None => Ok(()),
        }
    }

    fn notify_backpressure(&self) {
        let _g = self.bp_lock.lock();
        self.bp_cv.notify_all();
    }

    fn spill_hook(&self) -> Option<Arc<dyn SpillFaultHook>> {
        self.hook.lock().clone()
    }

    fn new_spill_path(&self) -> PathBuf {
        let seq = self.spill_seq.fetch_add(1, Ordering::Relaxed);
        self.dir.file(&format!("spill-{seq}.gw"))
    }

    /// Open a streaming cursor over one of this store's spill files,
    /// charged to the gauge and counted in `frames_read`.
    fn open_spill(&self, spill: &SpillFile) -> io::Result<SpillCursor> {
        SpillCursor::open(
            &spill.path,
            Some(Arc::clone(&self.gauge)),
            self.spill_hook(),
            Some(Arc::clone(&self.metrics.frames_read)),
        )
    }

    /// Stream the k-way merge of `cursors` into one new framed spill of
    /// partition `idx` — the single writer behind both a cache flush
    /// (borrowed in-memory cursors) and a compaction (spill cursors) —
    /// written in the partition's encoding, which the partition's first
    /// spill settles. Peak memory is one decode buffer per spill cursor
    /// plus the writer's staging buffers; the merged run is never
    /// materialized. `None` when the merge was empty (no file is left
    /// behind).
    fn spill_merged<C: RunCursor>(
        &self,
        idx: usize,
        cursors: Vec<C>,
    ) -> io::Result<Option<SpillFile>> {
        self.metrics.merges.fetch_add(1, Ordering::Relaxed);
        self.metrics
            .merge_fanin
            .fetch_add(cursors.len(), Ordering::Relaxed);
        let path = self.new_spill_path();
        let encoding = self.parts[idx].lock().encoding;
        let mut w = frame::FrameWriter::create(
            path.clone(),
            self.limits.frame,
            encoding,
            Some(Arc::clone(&self.gauge)),
            self.spill_hook(),
        )?;
        let mut m = CursorMerge::new(cursors);
        while let Some(rec) = m.peek_rec() {
            w.push(rec)?;
            m.advance()?;
        }
        let stats = w.finish()?;
        if stats.records == 0 {
            let _ = std::fs::remove_file(&path);
            return Ok(None);
        }
        self.parts[idx].lock().encoding = stats.encoding;
        self.metrics
            .spilled_raw
            .fetch_add(stats.raw_bytes, Ordering::Relaxed);
        self.metrics
            .spilled_disk
            .fetch_add(stats.disk_bytes, Ordering::Relaxed);
        self.metrics
            .frames_written
            .fetch_add(stats.frames, Ordering::Relaxed);
        Ok(Some(SpillFile {
            path,
            raw_bytes: stats.raw_bytes,
            records: stats.records,
            frames: stats.frames,
        }))
    }

    /// A partition's merger task: flush the whole cache while a flush is
    /// due, else — until the map ends — pre-merge the oldest
    /// [`TIER_FANIN`] runs of the lowest full tier, and repeat. Clears the
    /// partition's `busy` flag under the lock that found neither to do, so
    /// a request made meanwhile is never lost (the error path is handled
    /// by [`Inner::run_merge_task`]).
    fn merge_partition(&self, p: PartitionId) -> io::Result<()> {
        let idx = p as usize;
        loop {
            let mut st = self.parts[idx].lock();
            if st.flush_due {
                let bytes = std::mem::take(&mut st.cache_bytes);
                self.cache_bytes.fetch_sub(bytes, Ordering::Relaxed);
                let runs: Vec<Run> = std::mem::take(&mut st.tiers)
                    .into_iter()
                    .flatten()
                    .collect();
                drop(st);
                self.flush_and_compact(idx, runs, bytes)?;
                // A request made while the flush ran is dropped, as it
                // always was: the next add past the flush point asks again.
                self.parts[idx].lock().flush_due = false;
            } else if let Some((tier, runs)) = self.take_full_tier(&mut st) {
                drop(st);
                self.pre_merge(idx, tier, runs);
            } else {
                st.busy = false;
                return Ok(());
            }
        }
    }

    /// The oldest [`TIER_FANIN`] runs of `st`'s lowest full tier, taken
    /// for a pre-merge — unless the map has ended, or the budget has no
    /// room for the merged copy beside them.
    fn take_full_tier(&self, st: &mut PartState) -> Option<(usize, Vec<Run>)> {
        if self.map_done.load(Ordering::Acquire) {
            return None;
        }
        let tier = st.tiers.iter().position(|t| t.len() >= TIER_FANIN)?;
        let bytes: usize = st.tiers[tier][..TIER_FANIN]
            .iter()
            .map(Run::len_bytes)
            .sum();
        if self.gauge.current() + bytes > self.cfg.memory_budget {
            return None;
        }
        Some((tier, st.tiers[tier].drain(..TIER_FANIN).collect()))
    }

    /// Merge `runs`, taken from partition `idx`'s tier `tier`, into one run
    /// of tier `tier + 1`. The partition's cached byte count stands: a
    /// merge moves records, it adds or drops none. The gauge carries both
    /// copies while the merge runs.
    fn pre_merge(&self, idx: usize, tier: usize, runs: Vec<Run>) {
        let bytes: usize = runs.iter().map(Run::len_bytes).sum();
        self.gauge.charge(bytes);
        self.metrics.merges.fetch_add(1, Ordering::Relaxed);
        self.metrics
            .merge_fanin
            .fetch_add(runs.len(), Ordering::Relaxed);
        let merged = merge_runs(&runs);
        drop(runs);
        self.gauge.discharge(bytes);
        let mut st = self.parts[idx].lock();
        if st.tiers.len() == tier + 1 {
            st.tiers.push(Vec::new());
        }
        st.tiers[tier + 1].push(merged);
    }

    /// Flush `runs`, the whole of partition `idx`'s cache (`bytes` of it),
    /// to one new spill, then, while the partition holds more than M
    /// files, merge its smallest `compaction_fanin` files — oldest first
    /// among equals — into one.
    fn flush_and_compact(&self, idx: usize, runs: Vec<Run>, bytes: usize) -> io::Result<()> {
        if !runs.is_empty() {
            let spilled = self.spill_merged(
                idx,
                runs.iter().map(|r| MemCursor::over(r.bytes())).collect(),
            );
            // The cached bytes leave memory whether or not the spill
            // succeeded — discharge before propagating so backpressured
            // producers wake either way.
            drop(runs);
            self.gauge.discharge(bytes);
            self.notify_backpressure();
            if let Some(spill) = spilled? {
                self.metrics.flushes.fetch_add(1, Ordering::Relaxed);
                self.parts[idx].lock().spills.push(spill);
            }
        }
        loop {
            let spills: Vec<SpillFile> = {
                let mut st = self.parts[idx].lock();
                if st.spills.len() <= self.limits.max_spill_files {
                    return Ok(());
                }
                // A stable sort: among equal sizes the older file first.
                st.spills.sort_by_key(|s| s.raw_bytes);
                st.spills.drain(..self.limits.compaction_fanin).collect()
            };
            let cursors = spills
                .iter()
                .map(|s| self.open_spill(s))
                .collect::<io::Result<Vec<_>>>()?;
            let merged = self.spill_merged(idx, cursors)?;
            for s in &spills {
                let _ = std::fs::remove_file(&s.path);
            }
            self.metrics.compactions.fetch_add(1, Ordering::Relaxed);
            self.parts[idx].lock().spills.extend(merged);
        }
    }

    /// Merger-thread entry point: poison the store instead of panicking.
    /// A panic below is caught and poisons like an error, and the thread
    /// lives on to run (and count down) the tasks queued behind this one —
    /// a merger that died would leave `pending` above zero for good, with
    /// `finish_map` and every backpressured producer waiting on it.
    fn run_merge_task(&self, p: PartitionId) {
        let outcome =
            catch_unwind(AssertUnwindSafe(|| self.merge_partition(p))).unwrap_or_else(|panic| {
                let msg = panic
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| panic.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string payload".into());
                Err(io::Error::other(format!("merger thread panicked: {msg}")))
            });
        if let Err(e) = outcome {
            self.poison(e);
            self.parts[p as usize].lock().busy = false;
            // Wake any producer parked on backpressure so it can observe
            // the poisoned state instead of waiting for a flush that will
            // never complete.
            self.notify_backpressure();
        }
    }
}

/// A merger task a [`MergerRunner`] starts: one merger's whole life.
pub type MergerTask = Box<dyn FnOnce() + Send>;

/// Waits for a task a [`MergerRunner`] started to return.
pub type MergerJoin = Box<dyn FnOnce() + Send + Sync>;

/// Starts merger `i` of a store on some thread; called once per merger
/// when the store is built.
pub type MergerRunner<'a> = &'a dyn Fn(usize, MergerTask) -> MergerJoin;

/// The per-node intermediate store.
pub struct IntermediateStore {
    inner: Arc<Inner>,
    task_tx: Option<Sender<PartitionId>>,
    workers: Vec<MergerJoin>,
}

impl IntermediateStore {
    /// Create a store whose `merger_threads` mergers each get a thread of
    /// their own, which ends with the store.
    pub fn new(cfg: IntermediateConfig) -> io::Result<Self> {
        Self::with_runner(cfg, &|i, task| {
            let handle = std::thread::Builder::new()
                .name(format!("gw-merger-{i}"))
                .spawn(task)
                .expect("spawn merger thread");
            Box::new(move || {
                let _ = handle.join();
            })
        })
    }

    /// Create a store whose mergers are started by `run` (the engine's
    /// resident runtime). Each merger serves tasks until the store is
    /// dropped, which waits for every merger to return.
    pub fn with_runner(cfg: IntermediateConfig, run: MergerRunner<'_>) -> io::Result<Self> {
        assert!(cfg.num_partitions > 0, "at least one partition");
        let dir = TempDir::new("gw-intermediate")?;
        let encoding = if cfg.compress {
            Encoding::Probe
        } else {
            Encoding::Stored
        };
        let parts = (0..cfg.num_partitions)
            .map(|_| {
                Mutex::new(PartState {
                    tiers: Vec::new(),
                    cache_bytes: 0,
                    spills: Vec::new(),
                    busy: false,
                    flush_due: false,
                    encoding,
                })
            })
            .collect();
        let threads = cfg.merger_threads.max(1);
        let inner = Arc::new(Inner {
            limits: cfg.limits(),
            cfg,
            dir,
            parts,
            cache_bytes: AtomicUsize::new(0),
            pending: AtomicUsize::new(0),
            map_done: AtomicBool::new(false),
            quiesce_lock: Mutex::new(()),
            quiesce_cv: Condvar::new(),
            spill_seq: AtomicU64::new(0),
            metrics: Metrics::default(),
            gauge: Arc::new(MemGauge::new()),
            poison: Mutex::new(None),
            hook: Mutex::new(None),
            bp_lock: Mutex::new(()),
            bp_cv: Condvar::new(),
        });
        let (tx, rx): (Sender<PartitionId>, Receiver<PartitionId>) = unbounded();
        let workers = (0..threads)
            .map(|i| {
                let inner = Arc::clone(&inner);
                let rx = rx.clone();
                run(
                    i,
                    Box::new(move || {
                        while let Ok(p) = rx.recv() {
                            inner.run_merge_task(p);
                            inner.task_done();
                        }
                    }),
                )
            })
            .collect();
        Ok(IntermediateStore {
            inner,
            task_tx: Some(tx),
            workers,
        })
    }

    /// The store's configuration.
    pub fn config(&self) -> &IntermediateConfig {
        &self.inner.cfg
    }

    /// Arm (or disarm, with `None`) a fault hook probed before every spill
    /// read/write — the chaos plane's injection site for spill-file I/O
    /// errors.
    pub fn arm_spill_faults(&self, hook: Option<Arc<dyn SpillFaultHook>>) {
        *self.inner.hook.lock() = hook;
    }

    /// Add a sorted run to partition `p`'s cache tier 0 (local map output
    /// or a partition received from another node). Triggers merge-and-flush
    /// when the aggregate cache exceeds the flush point, else a pre-merge
    /// when the tier is full. First blocks while the run would take
    /// resident bytes over the budget and merger tasks are in flight.
    pub fn add_run(&self, p: PartitionId, run: Run) {
        assert!(p < self.inner.cfg.num_partitions, "partition out of range");
        if run.is_empty() {
            return;
        }
        self.inner
            .metrics
            .runs_added
            .fetch_add(1, Ordering::Relaxed);
        self.inner
            .metrics
            .records_added
            .fetch_add(run.records(), Ordering::Relaxed);
        let bytes = run.len_bytes();
        self.inner
            .metrics
            .bytes_added
            .fetch_add(bytes, Ordering::Relaxed);
        // Backpressure: park while this run would take the gauge over
        // budget, until the flushes in flight make room for it. Bounded
        // waits keep this live across races with task completion and
        // poisoning.
        let over = || self.inner.gauge.current() + bytes > self.inner.cfg.memory_budget;
        if over() {
            let mut guard = self.inner.bp_lock.lock();
            while over()
                && self.inner.pending.load(Ordering::Acquire) > 0
                && self.inner.poison.lock().is_none()
            {
                self.inner
                    .bp_cv
                    .wait_for(&mut guard, Duration::from_millis(1));
            }
        }
        self.inner.gauge.charge(bytes);
        let (total, tier_full) = {
            let mut st = self.inner.parts[p as usize].lock();
            st.cache_bytes += bytes;
            if st.tiers.is_empty() {
                st.tiers.push(Vec::new());
            }
            st.tiers[0].push(run);
            // Counted under the partition lock: a flush that takes this run
            // subtracts its bytes under the same lock, so never before this.
            let total = self.inner.cache_bytes.fetch_add(bytes, Ordering::Relaxed) + bytes;
            (total, st.tiers[0].len() >= TIER_FANIN)
        };
        if total > self.inner.limits.flush_at {
            // The only flush trigger: every partition with cached data.
            for q in 0..self.inner.cfg.num_partitions {
                self.schedule(q, true);
            }
        } else if tier_full {
            self.schedule(p, false);
        }
    }

    /// Hand partition `p` to a merger thread — to flush its whole cache
    /// when `flush` (no request if the cache is empty), else to pre-merge
    /// its full tiers — unless a task for `p` is in flight, which takes the
    /// request up before it clears `busy`. Spills never need a task of
    /// their own: the one that wrote them compacted to the limit.
    fn schedule(&self, p: PartitionId, flush: bool) {
        let inner = &self.inner;
        {
            let mut st = inner.parts[p as usize].lock();
            if flush {
                if st.cache_bytes == 0 {
                    return;
                }
                st.flush_due = true;
            }
            if st.busy {
                return;
            }
            st.busy = true;
        }
        inner.pending.fetch_add(1, Ordering::AcqRel);
        if let Some(tx) = &self.task_tx {
            if tx.send(p).is_err() {
                // Workers gone (drop in progress): run inline.
                inner.run_merge_task(p);
                inner.task_done();
            }
        }
    }

    /// Signal that the map phase (including reception of all remote
    /// partitions) has completed: stop new pre-merges, wait for the tasks
    /// still in flight to drain — at most one pre-merge batch each, plus
    /// any flush and compaction — and return that wait, the **merge
    /// delay**. Nothing is flushed here — runs still cached stay cached, in
    /// whatever tiers they reached, and reach the reduce merge through
    /// [`IntermediateStore::partition_cursors`] — and nothing needs
    /// scheduling: a task compacts its partition down to M spill files
    /// before it clears `busy`.
    ///
    /// Surfaces any spill I/O error recorded by the merger threads — the
    /// poisoned-store replacement for their former panics.
    pub fn finish_map(&self) -> io::Result<Duration> {
        let start = Instant::now();
        self.inner.map_done.store(true, Ordering::Release);
        self.inner.wait_quiesce();
        self.inner.check_poison()?;
        Ok(start.elapsed())
    }

    /// Open streaming cursors over partition `p` for reduction: one
    /// [`SpillCursor`] per spill file (a single decoded frame resident
    /// each) plus a [`MemCursor`] per cached run of every tier — for a job
    /// that never crossed the flush point, the tiers are all there is.
    /// The reduce input reader performs the final k-way merge over these
    /// without ever materializing the partition.
    pub fn partition_cursors(&self, p: PartitionId) -> io::Result<Vec<PartCursor>> {
        self.inner.check_poison()?;
        let st = self.inner.parts[p as usize].lock();
        let cached = st.tiers.iter().flatten();
        let mut cursors = Vec::with_capacity(st.spills.len() + cached.clone().count());
        for s in &st.spills {
            cursors.push(PartCursor::Spill(Box::new(self.inner.open_spill(s)?)));
        }
        for r in cached {
            cursors.push(PartCursor::Mem(MemCursor::new(r.clone())));
        }
        Ok(cursors)
    }

    /// Number of spill files currently held by partition `p`.
    pub fn spill_count(&self, p: PartitionId) -> usize {
        self.inner.parts[p as usize].lock().spills.len()
    }

    /// Total frames across partition `p`'s spill files.
    pub fn frame_count(&self, p: PartitionId) -> usize {
        self.inner.parts[p as usize]
            .lock()
            .spills
            .iter()
            .map(|s| s.frames)
            .sum()
    }

    /// Total records across a partition's cache and spills.
    pub fn partition_records(&self, p: PartitionId) -> usize {
        let st = self.inner.parts[p as usize].lock();
        st.spills.iter().map(|s| s.records).sum::<usize>()
            + st.tiers.iter().flatten().map(Run::records).sum::<usize>()
    }

    #[cfg(test)]
    fn spill_paths(&self, p: PartitionId) -> Vec<PathBuf> {
        self.inner.parts[p as usize]
            .lock()
            .spills
            .iter()
            .map(|s| s.path.clone())
            .collect()
    }

    /// Metrics snapshot.
    pub fn metrics(&self) -> StoreMetrics {
        let m = &self.inner.metrics;
        StoreMetrics {
            flushes: m.flushes.load(Ordering::Relaxed),
            compactions: m.compactions.load(Ordering::Relaxed),
            spilled_raw: m.spilled_raw.load(Ordering::Relaxed),
            spilled_disk: m.spilled_disk.load(Ordering::Relaxed),
            runs_added: m.runs_added.load(Ordering::Relaxed),
            records_added: m.records_added.load(Ordering::Relaxed),
            bytes_added: m.bytes_added.load(Ordering::Relaxed),
            merges: m.merges.load(Ordering::Relaxed),
            merge_fanin: m.merge_fanin.load(Ordering::Relaxed),
            frames_written: m.frames_written.load(Ordering::Relaxed),
            frames_read: m.frames_read.load(Ordering::Relaxed),
            peak_resident_bytes: self.inner.gauge.peak(),
        }
    }
}

impl Drop for IntermediateStore {
    fn drop(&mut self) {
        self.task_tx = None; // close the channel
        for join in self.workers.drain(..) {
            join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::SpillOp;
    use crate::kv::run_from_pairs;
    use crate::merge::GroupedCursorMerge;
    use proptest::prelude::*;

    /// A 2 KiB budget: flush point 1 KiB, frame 1 KiB, M 2.
    fn cfg(parts: u32) -> IntermediateConfig {
        IntermediateConfig {
            num_partitions: parts,
            merger_threads: 2,
            compress: true,
            memory_budget: 2 << 10,
        }
    }

    #[test]
    fn a_budget_derives_the_whole_spill_policy() {
        let limits = |budget| {
            IntermediateConfig::default()
                .with_memory_budget(budget)
                .limits()
        };
        let derived = |flush_at, frame| Limits {
            flush_at,
            frame,
            max_spill_files: 32,
            compaction_fanin: 15,
        };
        // `ts_spill`'s 2 MiB per node, and the default.
        assert_eq!(limits(2 << 20), derived(1 << 20, 32 << 10));
        assert_eq!(limits(64 << 20), derived(32 << 20, 1 << 20));
        assert_eq!(IntermediateConfig::default().limits(), limits(64 << 20));
        // No floor: the flush point is half of any budget.
        assert_eq!(limits(1 << 10).flush_at, 1 << 9);
        assert_eq!(
            cfg(1).limits(),
            Limits {
                flush_at: 1 << 10,
                frame: 1 << 10,
                max_spill_files: 2,
                compaction_fanin: 2,
            }
        );
    }

    type Groups = Vec<(Vec<u8>, Vec<Vec<u8>>)>;

    /// Each distinct key of partition `p` with its values, read the way
    /// the reduce phase reads them: a grouped merge over the store's
    /// cursors.
    fn groups(store: &IntermediateStore, p: PartitionId) -> Groups {
        let mut merge = GroupedCursorMerge::new(store.partition_cursors(p).unwrap());
        let (mut arena, mut spans) = (Vec::new(), Vec::new());
        let mut groups = Vec::new();
        while let Some(s) = merge
            .next_slice(usize::MAX, &mut arena, &mut spans)
            .unwrap()
        {
            let bytes = |(off, len): (u32, u32)| arena[off as usize..][..len as usize].to_vec();
            let values = spans[s.values].iter().map(|&span| bytes(span)).collect();
            groups.push((bytes(s.key), values));
        }
        groups
    }

    /// `(key, value count)` per distinct key of partition `p`.
    fn key_groups(store: &IntermediateStore, p: PartitionId) -> Vec<(Vec<u8>, usize)> {
        groups(store, p)
            .into_iter()
            .map(|(k, vs)| (k, vs.len()))
            .collect()
    }

    /// `records` grouped by key, the reference for [`groups`].
    fn group_sorted(records: Vec<(Vec<u8>, Vec<u8>)>) -> Groups {
        let mut out: Groups = Vec::new();
        for (k, v) in records {
            match out.last_mut() {
                Some((key, values)) if *key == k => values.push(v),
                _ => out.push((k, vec![v])),
            }
        }
        out
    }

    /// Runs per tier of partition `p`'s cache, tier 0 first.
    fn tier_lens(store: &IntermediateStore, p: PartitionId) -> Vec<usize> {
        let st = store.inner.parts[p as usize].lock();
        st.tiers.iter().map(Vec::len).collect()
    }

    /// With no task in flight, each partition's `cache_bytes`, their
    /// aggregate and the gauge all equal the bytes the tiers hold.
    fn assert_cache_accounting(store: &IntermediateStore) {
        let mut total = 0;
        for (p, part) in store.inner.parts.iter().enumerate() {
            let st = part.lock();
            let held: usize = st.tiers.iter().flatten().map(Run::len_bytes).sum();
            assert_eq!(st.cache_bytes, held, "partition {p}");
            total += held;
        }
        assert_eq!(store.inner.cache_bytes.load(Ordering::Relaxed), total);
        assert_eq!(store.inner.gauge.current(), total);
    }

    fn word_run(words: &[&str]) -> Run {
        run_from_pairs(words.iter().map(|w| (w.as_bytes(), b"1".as_slice())))
    }

    /// Every record of `runs` in merge order — the reference a partition's
    /// cursors are checked against.
    fn sorted_records(runs: &[Run]) -> Vec<(Vec<u8>, Vec<u8>)> {
        let mut all: Vec<(Vec<u8>, Vec<u8>)> = runs
            .iter()
            .flat_map(|r| r.iter().map(|(k, v)| (k.to_vec(), v.to_vec())))
            .collect();
        all.sort();
        all
    }

    #[test]
    fn in_core_store_never_touches_disk() {
        let store = IntermediateStore::new(cfg(2)).unwrap();
        let runs = [word_run(&["m", "z", "a"]), word_run(&["b", "m", "q"])];
        for r in &runs {
            store.add_run(0, r.clone());
        }
        store.add_run(1, word_run(&["p1"]));
        let delay = store.finish_map().unwrap();
        assert!(delay < Duration::from_secs(1));
        assert_eq!(stream_partition(&store, 0), sorted_records(&runs));
        assert_eq!(store.partition_records(1), 1);
        let m = store.metrics();
        assert_eq!(
            (m.flushes, m.frames_written, m.spilled_raw, m.frames_read),
            (0, 0, 0, 0),
            "{m:?}"
        );
        assert_eq!((store.spill_count(0), store.spill_count(1)), (0, 0));
    }

    #[test]
    fn exceeding_threshold_triggers_spill() {
        let store = IntermediateStore::new(cfg(1)).unwrap();
        let big: Vec<String> = (0..200).map(|i| format!("word{i:05}")).collect();
        let refs: Vec<&str> = big.iter().map(|s| s.as_str()).collect();
        for _ in 0..4 {
            store.add_run(0, word_run(&refs));
        }
        store.finish_map().unwrap();
        let m = store.metrics();
        assert!(m.flushes >= 1, "expected at least one flush, got {m:?}");
        assert!(
            m.spilled_disk < m.spilled_raw,
            "compression should shrink spills"
        );
        assert!(m.frames_written >= 1);
        assert!(m.peak_resident_bytes > 0);
        assert_eq!(store.partition_records(0), 800);
    }

    #[test]
    fn spill_file_count_is_bounded() {
        let mut c = cfg(1);
        c.memory_budget = 2; // flush on every run; M 2
        let store = IntermediateStore::new(c).unwrap();
        for i in 0..20 {
            let w = format!("key{i:03}");
            store.add_run(0, word_run(&[w.as_str()]));
            // Drain after every run so each add produces its own spill and
            // the compaction path is exercised deterministically.
            store.inner.wait_quiesce();
        }
        store.finish_map().unwrap();
        assert!(
            store.spill_count(0) <= 2,
            "spill files must be compacted to the limit, got {}",
            store.spill_count(0)
        );
        assert!(store.metrics().compactions >= 1);
        assert_eq!(store.partition_records(0), 20);
    }

    #[test]
    fn partition_runs_merge_to_global_order() {
        let mut c = cfg(1);
        c.memory_budget = 128;
        let store = IntermediateStore::new(c).unwrap();
        store.add_run(0, word_run(&["m", "z", "a"]));
        store.add_run(0, word_run(&["b", "m", "q"]));
        store.add_run(0, word_run(&["a", "c"]));
        store.finish_map().unwrap();
        // "m" and "a" got two values each.
        assert_eq!(
            key_groups(&store, 0),
            vec![
                (b"a".to_vec(), 2),
                (b"b".to_vec(), 1),
                (b"c".to_vec(), 1),
                (b"m".to_vec(), 2),
                (b"q".to_vec(), 1),
                (b"z".to_vec(), 1)
            ]
        );
    }

    #[test]
    fn multiple_partitions_are_independent() {
        let store = IntermediateStore::new(cfg(4)).unwrap();
        for p in 0..4u32 {
            let w = format!("p{p}");
            store.add_run(p, word_run(&[w.as_str()]));
        }
        store.finish_map().unwrap();
        for p in 0..4u32 {
            assert_eq!(store.partition_records(p), 1);
            assert_eq!(
                key_groups(&store, p),
                vec![(format!("p{p}").into_bytes(), 1)]
            );
        }
    }

    #[test]
    fn empty_runs_are_ignored() {
        let store = IntermediateStore::new(cfg(1)).unwrap();
        store.add_run(0, Run::default());
        store.finish_map().unwrap();
        assert_eq!(store.metrics().runs_added, 0);
        assert_eq!(store.partition_records(0), 0);
    }

    #[test]
    #[should_panic(expected = "partition out of range")]
    fn out_of_range_partition_panics() {
        let store = IntermediateStore::new(cfg(1)).unwrap();
        store.add_run(5, word_run(&["x"]));
    }

    /// Four producer threads each adding `each` one-record runs, spread
    /// round-robin over the partitions; returns the store after
    /// `finish_map`. Halfway through, the first producer waits until a
    /// merger task has started a merge — by then its own adds alone have
    /// asked for one — so merges race the other three for certain.
    fn hammer(c: IntermediateConfig, each: usize) -> IntermediateStore {
        let parts = c.num_partitions as usize;
        let store = IntermediateStore::new(c).unwrap();
        std::thread::scope(|s| {
            for t in 0..4 {
                let store = &store;
                s.spawn(move || {
                    for i in 0..each {
                        if t == 0 && i == each / 2 {
                            while store.metrics().merges == 0 {
                                std::thread::yield_now();
                            }
                        }
                        let w = format!("t{t}-k{i:05}");
                        store.add_run((i % parts) as u32, word_run(&[w.as_str()]));
                    }
                });
            }
        });
        store.finish_map().unwrap();
        store
    }

    #[test]
    fn concurrent_producers_do_not_lose_records() {
        let mut c = cfg(2);
        c.memory_budget = 512;
        let store = hammer(c, 50);
        let total = store.partition_records(0) + store.partition_records(1);
        assert_eq!(total, 200);
    }

    #[test]
    fn flushes_racing_producers_keep_the_cache_count_exact() {
        // At a flush point of 1 every add crosses it, so flush tasks take the
        // cache while other producers are mid-`add_run`; the aggregate
        // count must never see a run subtracted before it was added (the
        // underflow panics in debug builds; in release it wraps and other
        // producers read a spurious threshold crossing until the add
        // lands). At ~40 one-record runs tier 0 can fill between flushes,
        // so pre-merges race the producers and the flushes; in core, the
        // merges that race the producers are all pre-merges.
        let run_bytes = word_run(&["t0-k00000"]).len_bytes();
        for budget in [2, 80 * run_bytes, usize::MAX] {
            let mut c = cfg(1);
            c.memory_budget = budget;
            c.compress = false;
            let store = hammer(c, 3000);
            assert_eq!(store.partition_records(0), 12_000);
            assert_cache_accounting(&store);
            let m = store.metrics();
            if budget == usize::MAX {
                assert!(m.merges > 0 && m.flushes == 0, "{m:?}");
            }
        }
    }

    /// Walk a partition's streaming cursors and collect every record.
    fn stream_partition(store: &IntermediateStore, p: PartitionId) -> Vec<(Vec<u8>, Vec<u8>)> {
        let mut m = CursorMerge::new(store.partition_cursors(p).unwrap());
        let mut out = Vec::new();
        while let Some((k, v)) = m.peek() {
            out.push((k.to_vec(), v.to_vec()));
            m.advance().unwrap();
        }
        out
    }

    /// 40 runs of 20 records whose key ranges overlap.
    fn overlapping_runs() -> Vec<Run> {
        (0..40)
            .map(|i| {
                let words: Vec<String> = (0..20)
                    .map(|j| format!("k{:03}-{i:02}", (i * 7 + j) % 50))
                    .collect();
                let refs: Vec<&str> = words.iter().map(|s| s.as_str()).collect();
                word_run(&refs)
            })
            .collect()
    }

    #[test]
    fn spilled_and_cached_runs_merge_to_the_in_memory_bytes() {
        let runs = overlapping_runs();
        let mut c = cfg(1);
        c.memory_budget = 2 * (runs[..21].iter().map(|r| r.len_bytes()).sum::<usize>() - 1);
        let store = IntermediateStore::new(c).unwrap();
        for r in &runs {
            store.add_run(0, r.clone());
            // Drain after every add: the 16th run's tier pre-merges before
            // the 21st tips the cache into one spill, and the flush takes
            // exactly those 21, so the other 19 (equal in size, so under
            // the flush point) stay cached — 16 of them pre-merged.
            store.inner.wait_quiesce();
        }
        store.finish_map().unwrap();
        assert_eq!(
            (store.spill_count(0), tier_lens(&store, 0)),
            (1, vec![3, 1])
        );
        assert_eq!(store.partition_cursors(0).unwrap().len(), 1 + 3 + 1);
        // One spill cursor and four in-memory ones under the same tree.
        let mut m = CursorMerge::new(store.partition_cursors(0).unwrap());
        let mut bytes = Vec::new();
        while let Some(rec) = m.peek_rec() {
            bytes.extend_from_slice(rec);
            m.advance().unwrap();
        }
        assert_eq!(bytes, crate::merge::merge_runs(&runs).bytes());
        assert!(store.metrics().frames_read > 0);
    }

    #[test]
    fn streaming_cursors_equal_materialized_runs() {
        let runs = overlapping_runs();
        let expect = sorted_records(&runs);
        assert_eq!(expect.len(), 800);
        let lens: Vec<usize> = runs.iter().map(|r| r.len_bytes()).collect();
        let total: usize = lens.iter().sum();

        // Cached-run flush: the 40th run tips the cache over the flush point,
        // which merges all 40 cached runs — by then two tier-1 runs of 16
        // and eight of tier 0 — into one spill through borrowed cursors.
        let mut c = cfg(1);
        c.memory_budget = 2 * (total - 1);
        let flushed = IntermediateStore::new(c).unwrap();
        for r in &runs {
            flushed.add_run(0, r.clone());
            flushed.inner.wait_quiesce();
        }
        flushed.finish_map().unwrap();
        let m = flushed.metrics();
        assert_eq!((m.flushes, m.compactions), (1, 0), "{m:?}");
        assert_eq!((m.merges, m.merge_fanin), (2 + 1, 2 * 16 + 10), "{m:?}");
        assert_eq!(m.spilled_raw, total, "{m:?}");
        assert_eq!(m.frames_written, flushed.frame_count(0), "{m:?}");
        assert_eq!(stream_partition(&flushed, 0), expect);
        assert_eq!(flushed.metrics().frames_read, m.frames_written);

        // Forced compaction: every run is flushed alone, and from the
        // third on the partition's two smallest spills are at once merged
        // through spill cursors — the same writer, fed other cursors.
        let mut c = cfg(1);
        c.memory_budget = 2; // spill every run; M 2
        let compacted = IntermediateStore::new(c).unwrap();
        for r in &runs {
            compacted.add_run(0, r.clone());
            // Drain so every add becomes its own spill, forcing compaction.
            compacted.inner.wait_quiesce();
        }
        compacted.finish_map().unwrap();
        let m = compacted.metrics();
        assert_eq!((m.flushes, m.compactions), (40, 38), "{m:?}");
        assert_eq!((m.merges, m.merge_fanin), (40 + 38, 40 + 2 * 38), "{m:?}");
        // Each flush writes its run; each compaction rewrites the two
        // smallest files.
        let (mut files, mut rewritten) = (Vec::new(), 0);
        for &len in &lens {
            files.push(len);
            if files.len() > 2 {
                files.sort_unstable();
                let merged: usize = files.drain(..2).sum();
                rewritten += merged;
                files.push(merged);
            }
        }
        assert_eq!(m.spilled_raw, total + rewritten, "{m:?}");
        assert_eq!(compacted.spill_count(0), 2);
        assert!(
            m.frames_written >= 40 + 38 - 2 + compacted.frame_count(0),
            "every write has at least one frame: {m:?}"
        );
        assert_eq!(stream_partition(&compacted, 0), expect);
        assert!(compacted.metrics().frames_read > m.frames_read);
    }

    #[test]
    fn full_tiers_pre_merge_to_one_stream_per_base_fanin_digit() {
        // 16² + 15 runs, drained after every add: tier 0 fills 16 times,
        // and its 16 tier-1 runs once, leaving 1 + 0 + 15 streams.
        let n = TIER_FANIN * TIER_FANIN + TIER_FANIN - 1;
        let runs: Vec<Run> = (0..n)
            .map(|i| {
                let (hot, own) = ("hot".to_string(), format!("k{:03}", i % 37));
                word_run(&[hot.as_str(), own.as_str()])
            })
            .collect();
        let mut c = cfg(1);
        c.memory_budget = usize::MAX;
        let store = IntermediateStore::new(c).unwrap();
        for r in &runs {
            store.add_run(0, r.clone());
            store.inner.wait_quiesce();
        }
        store.finish_map().unwrap();
        assert_eq!(tier_lens(&store, 0), vec![TIER_FANIN - 1, 0, 1]);
        assert_eq!(
            store.partition_cursors(0).unwrap().len(),
            1 + TIER_FANIN - 1
        );
        let m = store.metrics();
        assert_eq!((m.flushes, m.frames_written), (0, 0), "{m:?}");
        assert_eq!(
            (m.merges, m.merge_fanin),
            (TIER_FANIN + 1, (TIER_FANIN + 1) * TIER_FANIN),
            "{m:?}"
        );
        assert_eq!(store.partition_records(0), 2 * n);
        assert_eq!(stream_partition(&store, 0), sorted_records(&runs));
        assert_cache_accounting(&store);
    }

    #[test]
    fn a_flush_asked_for_while_the_task_is_busy_is_not_dropped() {
        let runs: Vec<Run> = (0..21)
            .map(|i| word_run(&[format!("k{i:02}").as_str()]))
            .collect();
        let mut c = cfg(1);
        c.memory_budget = 2 * runs[..20].iter().map(Run::len_bytes).sum::<usize>();
        let store = IntermediateStore::new(c).unwrap();
        // Stand in for a task between two pre-merge batches: the adds
        // fill tier 0 and cross the threshold, and schedule nothing.
        store.inner.parts[0].lock().busy = true;
        for r in &runs {
            store.add_run(0, r.clone());
        }
        assert_eq!(tier_lens(&store, 0), vec![21]);
        // The task looks for its next batch: the flush comes first, and
        // takes every tier.
        store.inner.merge_partition(0).unwrap();
        assert_eq!((store.spill_count(0), tier_lens(&store, 0)), (1, vec![]));
        assert!(!store.inner.parts[0].lock().busy);
        store.finish_map().unwrap();
        assert_eq!(stream_partition(&store, 0), sorted_records(&runs));
        assert_cache_accounting(&store);
    }

    #[test]
    fn no_pre_merge_starts_after_finish_map() {
        let mut c = cfg(1);
        c.memory_budget = usize::MAX;
        let store = IntermediateStore::new(c).unwrap();
        store.finish_map().unwrap();
        for i in 0..TIER_FANIN {
            store.add_run(0, word_run(&[format!("k{i}").as_str()]));
        }
        store.inner.wait_quiesce();
        assert_eq!(tier_lens(&store, 0), vec![TIER_FANIN]);
        assert_eq!(store.metrics().merges, 0);
    }

    /// A run per `(key, value)` list: key indices below 8 are one hot key,
    /// the rest 32 others; values are one of four bytes, so records repeat
    /// within and across runs.
    fn hot_key_run(pairs: &[(u8, u8)]) -> Run {
        let records: Vec<(Vec<u8>, [u8; 1])> = pairs
            .iter()
            .map(|&(k, v)| {
                let key = if k < 8 {
                    "hot".to_string()
                } else {
                    format!("k{k:02}")
                };
                (key.into_bytes(), [v])
            })
            .collect();
        run_from_pairs(records.iter().map(|(k, v)| (k.as_slice(), v.as_slice())))
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 48, ..Default::default() })]

        /// However producers race the merger threads — pre-merging tiers,
        /// flushing them, compacting spills — each partition reads back
        /// exactly its runs' records, grouped as the reduce groups them,
        /// and the cached byte counts close.
        #[test]
        fn pre_merged_and_spilled_partitions_read_back_their_records(
            pair_lists in proptest::collection::vec(
                proptest::collection::vec((0u8..40, 0u8..4), 0..12), 0..300),
            producers in 1usize..5,
            spills in any::<bool>(),
        ) {
            let runs: Vec<Run> = pair_lists.iter().map(|pairs| hot_key_run(pairs)).collect();
            let mut c = cfg(2);
            c.memory_budget = if spills { 4 << 10 } else { usize::MAX };
            let store = IntermediateStore::new(c).unwrap();
            std::thread::scope(|s| {
                for t in 0..producers {
                    let (store, runs) = (&store, &runs);
                    s.spawn(move || {
                        for (i, r) in runs.iter().enumerate().skip(t).step_by(producers) {
                            store.add_run((i % 2) as u32, r.clone());
                        }
                    });
                }
            });
            store.finish_map().unwrap();
            for p in 0..2u32 {
                let mine: Vec<Run> = runs.iter().skip(p as usize).step_by(2).cloned().collect();
                let expect = sorted_records(&mine);
                prop_assert_eq!(store.partition_records(p), expect.len());
                prop_assert_eq!(groups(&store, p), group_sorted(expect));
            }
            assert_cache_accounting(&store);
        }
    }

    /// Feed a store ≥ 4× its `budget` from `next_run` and hold it to the
    /// out-of-core contract; `compresses` says which kind of spill file the
    /// input must produce.
    fn assert_budget_bounds_peak(
        budget: usize,
        compresses: bool,
        mut next_run: impl FnMut(usize) -> Run,
    ) {
        let mut c = cfg(1).with_memory_budget(budget);
        c.merger_threads = 1;
        let store = IntermediateStore::new(c).unwrap();
        let (mut total, mut records, mut i) = (0usize, 0usize, 0usize);
        while total < 4 * budget {
            let run = next_run(i);
            total += run.len_bytes();
            records += run.records();
            store.add_run(0, run);
            i += 1;
        }
        store.finish_map().unwrap();
        let m = store.metrics();
        assert!(m.spilled_disk > 0, "{m:?}");
        assert_eq!(m.spilled_disk < m.spilled_raw, compresses, "{m:?}");
        assert!(
            m.peak_resident_bytes <= budget + budget / 2,
            "peak {} exceeds 1.5× budget {budget} ({m:?})",
            m.peak_resident_bytes
        );
        // The data all made it, and streams back in bounded memory.
        assert_eq!(store.partition_records(0), records);
        assert_eq!(stream_partition(&store, 0).len(), records);
        assert!(
            store.metrics().peak_resident_bytes <= budget + budget / 2,
            "streaming reduce input must stay within the budget too"
        );
        // Every writer and cursor is gone: what is still charged is what
        // is still cached.
        assert_eq!(
            store.inner.gauge.current(),
            store.inner.cache_bytes.load(Ordering::Relaxed)
        );
    }

    #[test]
    fn memory_budget_bounds_peak_residency() {
        use rand::{rngs::StdRng, SeedableRng};
        // At 64 KiB and at the smallest budget a job may set, 12 KiB:
        // runs of ~1/32 of the budget either way — sorted keys under a
        // one-byte value, whose spills compress, then records of 90
        // pseudo-random bytes, whose spills are stored.
        for budget in [64 << 10, 12 << 10] {
            let (keys, noise) = (budget >> 10, (budget / (3 << 10)).max(1));
            assert_budget_bounds_peak(budget, true, |i| {
                let words: Vec<String> = (0..keys)
                    .map(|j| format!("key{:06}", i * keys + j))
                    .collect();
                let refs: Vec<&str> = words.iter().map(|s| s.as_str()).collect();
                word_run(&refs)
            });
            let mut rng = StdRng::seed_from_u64(5);
            assert_budget_bounds_peak(budget, false, |i| {
                crate::kv::noise_run(i * noise..(i + 1) * noise, &mut rng)
            });
        }
    }

    /// A run of `n` records that overlaps every other run of the same `n`:
    /// key `j` of run `i` is `{j}-{i}`.
    fn interleaved_run(i: usize, n: usize) -> Run {
        let words: Vec<String> = (0..n).map(|j| format!("{j:05}-{i:03}")).collect();
        let refs: Vec<&str> = words.iter().map(|s| s.as_str()).collect();
        word_run(&refs)
    }

    /// The smallest `r` with `m^r ≥ n`: the rounds of an `m`-way external
    /// merge of `n` runs.
    fn ceil_log(m: usize, n: usize) -> u32 {
        (0..).find(|&r| m.pow(r) >= n).unwrap()
    }

    #[test]
    fn a_budgeted_store_within_its_fanin_writes_each_byte_once() {
        let budget = 64 << 10;
        let c = cfg(1).with_memory_budget(budget);
        let fanin = c.limits().max_spill_files;
        assert_eq!(fanin, 32, "budget / (2 × frame) at the derived frame");
        let store = IntermediateStore::new(c).unwrap();
        // Each run crosses the cache threshold alone, so each add is one
        // flush of exactly that run.
        let runs: Vec<Run> = (0..fanin).map(|i| interleaved_run(i, 2800)).collect();
        assert!(runs[0].len_bytes() > budget / 2);
        for r in &runs {
            store.add_run(0, r.clone());
            store.inner.wait_quiesce();
        }
        store.finish_map().unwrap();
        let m = store.metrics();
        assert_eq!((m.flushes, m.compactions), (fanin, 0), "{m:?}");
        assert_eq!(store.spill_count(0), fanin);
        assert_eq!(m.spilled_raw, m.bytes_added, "{m:?}");
        assert_eq!(stream_partition(&store, 0), sorted_records(&runs));
        assert_eq!(store.metrics().frames_read, m.frames_written);
    }

    #[test]
    fn past_its_fanin_a_budgeted_store_rewrites_each_byte_at_most_log_m_n_minus_one_times() {
        let budget = 64 << 10;
        let c = cfg(2).with_memory_budget(budget);
        let fanin = c.limits().max_spill_files;
        let store = IntermediateStore::new(c).unwrap();
        // ~3.6 KiB runs alternating partitions, from one producer racing
        // the two mergers: backpressure parks it while the gauge is over
        // budget, and each flush takes whatever its partition cached.
        let runs: Vec<Run> = (0..1200).map(|i| interleaved_run(i, 300)).collect();
        for (i, r) in runs.iter().enumerate() {
            store.add_run((i % 2) as u32, r.clone());
        }
        store.finish_map().unwrap();
        let m = store.metrics();
        assert!(m.flushes > 2 * fanin && m.compactions > 0, "{m:?}");
        assert!(
            m.peak_resident_bytes <= budget + budget / 2,
            "peak {} over 1.5× budget {budget} through finish_map ({m:?})",
            m.peak_resident_bytes
        );
        let flushed = m.bytes_added - store.inner.cache_bytes.load(Ordering::Relaxed);
        // Rounds for all the store's flushes: no fewer than a partition's.
        let rounds = ceil_log(fanin, m.flushes) as usize;
        assert!(
            m.spilled_raw <= rounds * flushed,
            "{} bytes flushed, {} written: more than {} rewrite(s) per byte ({m:?})",
            flushed,
            m.spilled_raw,
            rounds - 1
        );
        for p in 0..2u32 {
            assert!(store.spill_count(p) <= fanin, "partition {p}");
            let mine: Vec<Run> = runs.iter().skip(p as usize).step_by(2).cloned().collect();
            assert_eq!(stream_partition(&store, p), sorted_records(&mine));
        }
        let m = store.metrics();
        assert!(
            m.peak_resident_bytes <= budget + budget / 2,
            "peak {} over 1.5× budget {budget} through the reduce stream ({m:?})",
            m.peak_resident_bytes
        );
        assert_eq!(
            store.inner.gauge.current(),
            store.inner.cache_bytes.load(Ordering::Relaxed)
        );
    }

    /// Whether each of partition `p`'s spill files is compressed.
    fn compressed_files(store: &IntermediateStore, p: PartitionId) -> Vec<bool> {
        store
            .spill_paths(p)
            .iter()
            .map(|path| {
                let mut f = std::fs::File::open(path).unwrap();
                frame::read_index(&mut f).unwrap().compressed
            })
            .collect()
    }

    #[test]
    fn a_partitions_first_spill_decides_how_every_later_spill_is_written() {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(3);
        let text = |i: usize| interleaved_run(i, 200);
        // Partition 0 spills noise first, then text; partition 1 the
        // opposite. Every run crosses the threshold alone, and at two
        // files a partition compacts, so both flushes and compactions
        // write under the first spill's decision.
        let mut added: [Vec<Run>; 2] = Default::default();
        for compress in [true, false] {
            let mut c = cfg(2);
            c.compress = compress;
            let store = IntermediateStore::new(c).unwrap();
            for i in 0..6 {
                let noise = crate::kv::noise_run(i * 20..(i + 1) * 20, &mut rng);
                let (first, second) = if i == 0 {
                    (noise, text(i))
                } else {
                    (text(i), noise)
                };
                for (p, run) in [(0, first), (1, second)] {
                    added[p].push(run.clone());
                    store.add_run(p as u32, run);
                    store.inner.wait_quiesce();
                }
            }
            store.finish_map().unwrap();
            assert!(store.metrics().compactions >= 2, "{:?}", store.metrics());
            for (p, runs) in added.iter_mut().enumerate() {
                let want = compress && p == 1;
                let files = compressed_files(&store, p as u32);
                assert!(!files.is_empty());
                assert!(
                    files.iter().all(|&c| c == want),
                    "compress {compress}, partition {p}: {files:?}"
                );
                assert_eq!(
                    stream_partition(&store, p as u32),
                    sorted_records(&std::mem::take(runs))
                );
            }
        }
    }

    /// Fails every spill write from the `nth` probe on.
    struct FailWrites {
        after: u32,
        seen: AtomicUsize,
    }
    impl SpillFaultHook for FailWrites {
        fn spill_fault(&self, op: SpillOp) -> bool {
            op == SpillOp::Write && self.seen.fetch_add(1, Ordering::Relaxed) as u32 >= self.after
        }
    }

    #[test]
    fn spill_write_failure_poisons_instead_of_panicking() {
        let store = IntermediateStore::new(cfg(1)).unwrap();
        store.arm_spill_faults(Some(Arc::new(FailWrites {
            after: 0,
            seen: AtomicUsize::new(0),
        })));
        let words: Vec<String> = (0..400).map(|i| format!("w{i:05}")).collect();
        let refs: Vec<&str> = words.iter().map(|s| s.as_str()).collect();
        for _ in 0..4 {
            store.add_run(0, word_run(&refs));
        }
        let err = store.finish_map().unwrap_err();
        assert!(err.to_string().contains("injected"), "{err}");
        // The poison is sticky: later consumers see it too.
        assert!(store.partition_cursors(0).is_err());
    }

    /// Panics at the first spill write.
    struct PanicOnWrite;
    impl SpillFaultHook for PanicOnWrite {
        fn spill_fault(&self, op: SpillOp) -> bool {
            assert!(op != SpillOp::Write, "hook panic");
            false
        }
    }

    #[test]
    fn merger_panic_poisons_instead_of_hanging_finish_map() {
        let store = Arc::new(IntermediateStore::new(cfg(1)).unwrap());
        store.arm_spill_faults(Some(Arc::new(PanicOnWrite)));
        let words: Vec<String> = (0..400).map(|i| format!("w{i:05}")).collect();
        let refs: Vec<&str> = words.iter().map(|s| s.as_str()).collect();
        for _ in 0..4 {
            store.add_run(0, word_run(&refs));
        }
        // A merger that dies with its task uncounted leaves `finish_map`
        // waiting for good, so wait for it from here with a deadline.
        let (tx, rx) = std::sync::mpsc::channel();
        let waiter = {
            let store = Arc::clone(&store);
            std::thread::spawn(move || tx.send(store.finish_map()))
        };
        let finished = rx
            .recv_timeout(Duration::from_secs(20))
            .expect("finish_map hung after a merger-thread panic");
        waiter.join().unwrap().unwrap();
        let err = finished.unwrap_err();
        assert!(err.to_string().contains("panicked: hook panic"), "{err}");
        // The poison is sticky, the partition schedulable again, and no
        // task is left counted.
        assert!(store.partition_cursors(0).is_err());
        assert!(!store.inner.parts[0].lock().busy);
        assert_eq!(store.inner.pending.load(Ordering::Acquire), 0);
    }

    #[test]
    fn truncated_spill_surfaces_invalid_data() {
        let mut c = cfg(1);
        c.memory_budget = 2;
        let store = IntermediateStore::new(c).unwrap();
        let words: Vec<String> = (0..300).map(|i| format!("t{i:05}")).collect();
        let refs: Vec<&str> = words.iter().map(|s| s.as_str()).collect();
        store.add_run(0, word_run(&refs));
        store.finish_map().unwrap();
        let paths = store.spill_paths(0);
        assert!(!paths.is_empty());
        let bytes = std::fs::read(&paths[0]).unwrap();
        std::fs::write(&paths[0], &bytes[..bytes.len() / 2]).unwrap();
        let err = match store.partition_cursors(0) {
            Err(e) => e,
            Ok(_) => panic!("truncated spill must not open"),
        };
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
    }
}
