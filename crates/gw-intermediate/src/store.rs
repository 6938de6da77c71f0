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
//!   one, which rewrites a byte once a round of flushes ("Rewrites");
//! * "Glasswing can be configured to use multiple threads to speed-up both
//!   the merge and flush operations" — `merger_threads`;
//! * intermediate data is merged "on background threads" while the map
//!   runs — each partition's cache is kept in **tiers**: a run enters at
//!   tier 0, and when a tier holds `TIER_FANIN` (16) runs the partition's
//!   merger task makes its oldest ones, in memory, one run of the next
//!   tier, so the reduce opens a few long runs, not hundreds. A store
//!   given an order-free combiner ([`IntermediateStore::with_runner`])
//!   **folds**: at every tier the pre-merge is one loser-tree merge that
//!   copies a record whose key does not repeat and combines each run of
//!   equal keys into one record ([`crate::merge::fold_runs`]), so the
//!   cache holds each key once a run — about a third of WordCount's
//!   records — and the bytes a fold gives back leave the gauge and the
//!   cache count as it ends. Otherwise tier 0 is **sorted**
//!   ([`crate::merge::sort_runs`]): its runs are a few fresh chunks'
//!   records, which stay in cache, where the sort-head radix takes ~55 ns
//!   a TeraSort record and a 16-way loser tree ~105 (on WordCount's
//!   batches the tree is the faster, 60–75 against 97). Higher tiers are
//!   **merged**: they hold up to 16× the records, already in a few long
//!   sorted runs, and the tree needs no sort space (48 B a record, which
//!   a sorting step charges to the gauge beside the copy);
//! * the **merge delay** metric — "the time dedicated to merging
//!   intermediate data after the completion of the map phase and before
//!   reduction starts" — the wait in [`IntermediateStore::finish_map`]
//!   for the tasks still in flight at map end: it stops new pre-merges.
//!
//! Intermediate bytes leave memory by exactly one rule, `add_run`'s
//! `total > memory_budget / 2`: a flush takes the partition's whole cache,
//! every tier. Nothing is flushed at end of map, and the reduce merge
//! reads the tiers where they sit — the paper's "one last merge operation"
//! (§III-C). Without a combiner a pre-merge combines nothing, and merge
//! order `(key, value, source)` makes the merged stream the same for any
//! batching. A folding store's batching does show in its runs, but not
//! past the reduce merge: an order-free combiner gives a key's one value
//! the same bytes for any grouping, and
//! [`IntermediateStore::partition_groups`] folds what the pre-merges left
//! apart. Flushes and compactions never fold: what is spilled is what was
//! cached.
//!
//! ## Rewrites: once a round
//!
//! A byte is written by its flush, and again by each compaction that takes
//! its file. While a partition's flushes are of one size (each crosses the
//! flush point alone, as a one-partition store's do), fresh files are
//! smaller than compacted ones, and each compaction finds at least F − 1
//! fresh files: a compaction leaves M + 2 − F files, and the next comes
//! F − 1 flushes later. It merges F fresh files, or F − 1 and the smallest
//! compacted file, the oldest among equals. What it writes is no smaller
//! than the other compacted files, so it is taken again only after the
//! M + 1 − F files left beside it: once a **round** of G = (M + 2 − F)(F − 1)
//! flushes. The first compaction comes at flush M + 1, so over N flushes a
//! byte is written at most 1 + ⌈(N − M) / G⌉ times, once while N ≤ M. The
//! `checker` tests hold this to 4M flushes and find runs written that often.
//!
//! The growth is linear, not the ⌈log_M N⌉ of an M-way external merge
//! (Goodrich et al., arXiv:1101.1902): no rule of fan-in F keeps that past
//! F·M flushes. From M to M² flushes that allows one rewrite a byte, so
//! each compaction must merge files never rewritten, into a file no later
//! compaction may take; but N − M flushes need (N − M)/(F − 1)
//! compactions, and at most M such files fit in M. Flushes of unequal
//! sizes, as several partitions' are, may be merged sooner: at worst each
//! compaction takes the byte, 1 + ⌈(N − M)/(F − 1)⌉ writes.
//!
//! ## One state, one lock (DESIGN.md §3.10)
//!
//! Every decision (flush, pre-merge, compaction, park, wake, `finish_map`)
//! is a method of the private `StoreState`, which takes one event each,
//! is handed the gauge reading its room checks need, returns the merger's
//! next step, and takes no lock, reads no clock or atomic and does no I/O.
//! [`IntermediateStore`] holds it behind one mutex and two condvars (idle
//! mergers; parked producers and `finish_map`), and does all I/O outside
//! it: spills in the framed format of [`crate::frame`], and cursors that
//! hold a frame each. Cached runs, writer buffers and cursor frames are
//! charged to one [`MemGauge`], whose high-water mark is
//! [`StoreMetrics::peak_resident_bytes`]. The `checker` tests drive the
//! state through every event order of small stores. A spill I/O error or
//! a panic on a merger **poisons** the store, releases every waiter, and
//! surfaces from [`IntermediateStore::finish_map`] and
//! [`IntermediateStore::partition_cursors`] as an [`std::io::Error`].

use std::collections::VecDeque;
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex, MutexGuard};

use crate::combine::Combiner;
use crate::cursor::{MemCursor, PartCursor, RunCursor, SpillCursor};
use crate::frame::{self, Encoding, SpillFaultHook, SpillStats};
use crate::gauge::MemGauge;
use crate::kv::Run;
use crate::merge::{fold_runs, merge_runs, sort_runs, CursorMerge, GroupedCursorMerge, TIER_FANIN};
use crate::radix::{SortBuf, SORT_SPACE};
use crate::tempdir::TempDir;
use crate::PartitionId;

/// Configuration of a node's intermediate store.
#[derive(Debug, Clone)]
pub struct IntermediateConfig {
    /// Number of partitions hosted by this node (the paper's `P`).
    pub num_partitions: u32,
    /// Background merger/flusher threads (the paper sets this equal to `P`
    /// in its Fig. 4 experiments); at least one.
    pub merger_threads: usize,
    /// Whether spills are stored compressed (the paper always compresses;
    /// disabling is useful for ablation).
    pub compress: bool,
    /// Bound on resident intermediate bytes, and the store's one spill
    /// setting ([`IntermediateConfig::with_memory_budget`]): peak
    /// residency stays within ~1.5× of it.
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
    /// The smallest `memory_budget` a job of one or two mergers may set:
    /// [`IntermediateConfig::min_memory_budget`] of 2.
    pub const MIN_MEMORY_BUDGET: usize = 24 << 10;

    /// The smallest `memory_budget` a store of `mergers` merger threads
    /// may run under: 12 KiB a merger, and never under
    /// [`IntermediateConfig::MIN_MEMORY_BUDGET`]. Below 64 KiB a frame is
    /// 1 KiB, and each merger may hold a compaction's writer and two input
    /// cursors of two frames each (6 KiB) beside a full cache: their sum
    /// must fit in half the budget. The store's `checker` tests hold
    /// [`StoreMetrics::peak_resident_bytes`] within 1.5× of it over every
    /// event order they explore with one to three mergers, and find it
    /// broken 4 KiB below with two.
    pub fn min_memory_budget(mergers: usize) -> usize {
        (12 << 10) * mergers.max(2)
    }

    /// Set the memory budget, from which the store derives its spill
    /// policy: the cache flushes at half the budget, frames are `budget /
    /// 64` (clamped to 1 KiB–1 MiB), and a partition may hold M = `budget
    /// / (2 × frame)` spill files, at least two — 32 at the derived frame
    /// — so the reduce merge's M cursors of at most two frames each fit in
    /// the other half. These keep [`StoreMetrics::peak_resident_bytes`] ≤
    /// ~1.5× `budget` from [`IntermediateConfig::MIN_MEMORY_BUDGET`] up.
    /// A compaction merges F = `max(M / (2 × merger_threads) − 1, 2)`
    /// files, so over N flushes of one size a byte is written at most
    /// 1 + ⌈(N − M) / G⌉ times, G = (M + 2 − F)(F − 1) (module doc,
    /// "Rewrites").
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
        let share = max_spill_files / (2 * self.merger_threads);
        Limits {
            flush_at: budget / 2,
            frame,
            max_spill_files,
            compaction_fanin: share.saturating_sub(1).max(2),
        }
    }
}

/// What a budget derives ([`IntermediateConfig::limits`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
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

impl Limits {
    /// The most times the compaction rule writes a byte over `flushes`
    /// flushes of its partition, each of one size: once by its flush, and
    /// once a round of G = (M + 2 − F)(F − 1) flushes past the first M
    /// (module doc, "Rewrites").
    #[cfg(test)]
    fn max_writes(&self, flushes: usize) -> usize {
        let (m, f) = (self.max_spill_files, self.compaction_fanin);
        1 + flushes.saturating_sub(m).div_ceil((m + 2 - f) * (f - 1))
    }
}

/// Spill file `spill-{seq}.gw` of the store's directory, and its totals.
#[derive(Debug, Clone)]
struct SpillFile {
    seq: u64,
    stats: SpillStats,
}

/// What the state reads of a cached run (the checker caches stand-ins).
trait Cached: Default {
    fn len_bytes(&self) -> usize;
    fn records(&self) -> usize;
}

impl Cached for Run {
    fn len_bytes(&self) -> usize {
        Run::len_bytes(self)
    }

    fn records(&self) -> usize {
        Run::records(self)
    }
}

#[derive(Debug, Clone, Default)]
struct PartState<R> {
    /// Cached runs by tier, oldest first: `tiers[t]` holds runs that `t`
    /// rounds of pre-merging made, [`TIER_FANIN`] runs of tier `t` into
    /// one of tier `t + 1`.
    tiers: Vec<Vec<R>>,
    /// Bytes of every cached run, a running pre-merge's inputs included.
    cache_bytes: usize,
    spills: Vec<SpillFile>,
    /// A merger task for this partition is queued or running.
    busy: bool,
    /// A flush was asked for, maybe while the task flushed.
    flush_due: bool,
    /// How the partition's next spill is written: `Probe` until its first
    /// frame decides, then what that frame decided (`Stored` throughout
    /// when the store does not compress).
    encoding: Encoding,
}

/// Everything the store decides by (module doc, "One state, one lock").
#[derive(Clone, Default)]
struct StoreState<R> {
    limits: Limits,
    budget: usize,
    parts: Vec<PartState<R>>,
    /// Aggregate cached bytes: the flush trigger's operand.
    cache_bytes: usize,
    /// Partitions whose task waits for a merger, oldest first.
    ready: VecDeque<usize>,
    /// Tasks a merger is running.
    in_flight: usize,
    /// Parked producers and waiting `finish_map` callers.
    waiters: usize,
    /// Set by `finish_map`: no pre-merge starts after it.
    map_done: bool,
    /// Set when the store drops: mergers return once `ready` is empty.
    closed: bool,
    /// Pre-merges fold each key's records by an order-free combiner, at
    /// every tier and without a sort's space.
    folds: bool,
    /// First spill I/O error or merger panic; sticky.
    poison: Option<(io::ErrorKind, String)>,
    spill_seq: u64,
    /// Chaos hook probed before spill reads/writes (None when unarmed).
    hook: Option<Arc<dyn SpillFaultHook>>,
    /// The condvars the last event asks the wrapper to notify.
    wake_mergers: bool,
    wake_waiters: bool,
    /// All but `frames_read` and the peak, which cursors and gauge count.
    metrics: StoreMetrics,
}

/// A merger's next step on partition `part`, taken under the lock and run
/// outside it; a spill goes to file `seq`, written in `encoding`.
#[derive(Clone)]
struct Work<R> {
    part: usize,
    seq: u64,
    encoding: Encoding,
    hook: Option<Arc<dyn SpillFaultHook>>,
    step: Step<R>,
}

#[derive(Clone)]
enum Step<R> {
    /// Spill the partition's whole cache, and its bytes.
    Flush(Vec<R>, usize),
    /// Merge the oldest [`TIER_FANIN`] runs of a tier into one run of the
    /// next — in a folding store by a folding merge, else at tier 0 by a
    /// sort — holding these bytes on the gauge until it ends: the copy,
    /// and a sort's space ([`StoreState::full_tier`]).
    PreMerge(usize, Vec<R>, usize),
    /// Merge the partition's smallest spill files into one.
    Compact(Vec<SpillFile>),
}

/// What a step left: a spill (no file when it held no record), or a
/// pre-merged tier's run of the next tier, with the bytes and records its
/// fold took off its inputs'.
enum Done<R> {
    Spilled(SpillFile),
    PreMerged {
        tier: usize,
        run: R,
        freed: usize,
        combined: usize,
    },
}

impl<R: Cached> StoreState<R> {
    fn new(cfg: &IntermediateConfig, folds: bool) -> Self {
        let encoding = if cfg.compress {
            Encoding::Probe
        } else {
            Encoding::Stored
        };
        let part = || PartState {
            encoding,
            ..Default::default()
        };
        StoreState {
            limits: cfg.limits(),
            budget: cfg.memory_budget,
            parts: (0..cfg.num_partitions).map(|_| part()).collect(),
            folds,
            ..Default::default()
        }
    }

    /// A task is queued or running.
    fn working(&self) -> bool {
        !self.ready.is_empty() || self.in_flight > 0
    }

    /// Whether a producer must park before charging `bytes`: they would
    /// take the gauge over the budget, and a task can still make room.
    fn must_park(&self, bytes: usize, gauge: usize) -> bool {
        gauge + bytes > self.budget && self.working() && self.poison.is_none()
    }

    /// Whether `finish_map` may return.
    fn settled(&self) -> bool {
        !self.working() || self.poison.is_some()
    }

    fn check_poison(&self) -> io::Result<()> {
        match &self.poison {
            Some((kind, msg)) => Err(io::Error::new(*kind, msg.clone())),
            None => Ok(()),
        }
    }

    /// A run enters partition `p`'s tier 0, and the wrapper charges it —
    /// unless the store is poisoned, so the job fails: the run is dropped.
    /// Asks every partition with cached data for a flush when the
    /// aggregate cache passes the flush point, else `p` for a pre-merge
    /// when its tier 0 is full.
    fn add(&mut self, p: usize, run: R) -> bool {
        if self.poison.is_some() {
            return false;
        }
        let bytes = run.len_bytes();
        let part = &mut self.parts[p];
        part.cache_bytes += bytes;
        part.tiers.resize_with(part.tiers.len().max(1), Vec::new);
        part.tiers[0].push(run);
        let tier_full = part.tiers[0].len() >= TIER_FANIN;
        self.cache_bytes += bytes;
        if self.cache_bytes > self.limits.flush_at {
            for q in 0..self.parts.len() {
                self.schedule(q, true);
            }
        } else if tier_full {
            self.schedule(p, false);
        }
        true
    }

    /// Queue partition `p`'s task — to flush its whole cache when `flush`
    /// (no request if the cache is empty), else to pre-merge its full
    /// tiers — unless it is queued or running, which takes the request
    /// up before it ends.
    fn schedule(&mut self, p: usize, flush: bool) {
        let part = &mut self.parts[p];
        if flush && part.cache_bytes == 0 {
            return;
        }
        part.flush_due |= flush;
        if !part.busy {
            part.busy = true;
            self.ready.push_back(p);
            self.wake_mergers = true;
        }
    }

    /// A merger asks for the next step of the oldest queued task with one.
    fn take(&mut self, gauge: usize) -> Option<Work<R>> {
        while let Some(p) = self.ready.pop_front() {
            self.in_flight += 1;
            if let Some(work) = self.step(p, gauge) {
                return Some(work);
            }
        }
        None
    }

    /// A step of partition `p`'s task ended: record what it left, and
    /// return the task's next step.
    fn done(&mut self, p: usize, done: Done<R>, gauge: usize) -> Option<Work<R>> {
        self.wake_waiters |= self.waiters > 0;
        let part = &mut self.parts[p];
        match done {
            Done::Spilled(file) => {
                let (m, s) = (&mut self.metrics, &file.stats);
                part.encoding = s.encoding;
                if s.records > 0 {
                    m.spilled_raw += s.raw_bytes;
                    m.spilled_disk += s.disk_bytes;
                    m.frames_written += s.frames;
                    part.spills.push(file);
                }
            }
            Done::PreMerged {
                tier,
                run,
                freed,
                combined,
            } => {
                part.tiers
                    .resize_with(part.tiers.len().max(tier + 2), Vec::new);
                part.tiers[tier + 1].push(run);
                part.cache_bytes -= freed;
                self.cache_bytes -= freed;
                self.metrics.records_combined += combined;
            }
        }
        self.step(p, gauge)
    }

    /// A step of partition `p`'s task failed or panicked: poison the
    /// store, which ends every task at its next step.
    fn fail(&mut self, p: usize, err: io::Error) {
        self.poison.get_or_insert((err.kind(), err.to_string()));
        self.step(p, 0);
    }

    /// Partition `p`'s task's next step: compact while it holds more than
    /// M files, flush while a flush is due, else pre-merge a full tier;
    /// or end the task.
    fn step(&mut self, p: usize, gauge: usize) -> Option<Work<R>> {
        let (part, m) = (&mut self.parts[p], &mut self.metrics);
        let step = if self.poison.is_some() {
            None
        } else if part.spills.len() > self.limits.max_spill_files {
            // A stable sort: among equal sizes the older file first.
            part.spills.sort_by_key(|s| s.stats.raw_bytes);
            let files = part.spills.drain(..self.limits.compaction_fanin);
            m.compactions += 1;
            Some(Step::Compact(files.collect()))
        } else if std::mem::take(&mut part.flush_due) && part.cache_bytes > 0 {
            let bytes = std::mem::take(&mut part.cache_bytes);
            self.cache_bytes -= bytes;
            let runs = std::mem::take(&mut part.tiers).into_iter().flatten();
            m.flushes += 1;
            Some(Step::Flush(runs.collect(), bytes))
        } else {
            self.full_tier(p, gauge)
        };
        let Some(step) = step else {
            self.parts[p].busy = false;
            self.in_flight -= 1;
            self.wake_waiters |= self.waiters > 0;
            return None;
        };
        self.metrics.merges += 1;
        self.metrics.merge_fanin += match &step {
            Step::Flush(runs, _) | Step::PreMerge(_, runs, _) => runs.len(),
            Step::Compact(files) => files.len(),
        };
        let seq = self.spill_seq;
        self.spill_seq += u64::from(!matches!(step, Step::PreMerge(..)));
        let (encoding, hook) = (self.parts[p].encoding, self.hook.clone());
        Some(Work {
            part: p,
            seq,
            encoding,
            hook,
            step,
        })
    }

    /// The oldest runs of partition `p`'s lowest full tier, unless the map
    /// has ended or the budget has no room for what merging them holds:
    /// their merged copy (a fold's is no larger) and, at tier 0 of a store
    /// that does not fold, which sorts, [`SORT_SPACE`] bytes a record.
    fn full_tier(&mut self, p: usize, gauge: usize) -> Option<Step<R>> {
        let tiers = &mut self.parts[p].tiers;
        let tier = tiers.iter().position(|t| t.len() >= TIER_FANIN)?;
        let runs = &tiers[tier][..TIER_FANIN];
        let mut charge: usize = runs.iter().map(R::len_bytes).sum();
        if tier == 0 && !self.folds {
            charge += SORT_SPACE * runs.iter().map(R::records).sum::<usize>();
        }
        if self.map_done || gauge + charge > self.budget {
            return None;
        }
        let runs = tiers[tier].drain(..TIER_FANIN).collect();
        Some(Step::PreMerge(tier, runs, charge))
    }
}

/// Snapshot of store metrics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
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
    /// Records the store's merges folded away: in a store given an
    /// order-free combiner, the pre-merges' input records less those they
    /// wrote. Timing-dependent, as `merges` is.
    pub records_combined: usize,
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
    /// The order-free combiner the pre-merges fold by, in a folding store.
    fold: Option<Arc<dyn Combiner>>,
    dir: TempDir,
    state: Mutex<StoreState<Run>>,
    /// Mergers wait here for a queued task, or for the store to drop.
    idle: Condvar,
    /// Parked producers and `finish_map` wait here for a step to end.
    waiters: Condvar,
    gauge: Arc<MemGauge>,
    frames_read: Arc<AtomicUsize>,
}

impl Inner {
    /// Notify what the last event asked for.
    fn wake(&self, st: &mut StoreState<Run>) {
        if std::mem::take(&mut st.wake_mergers) {
            self.idle.notify_all();
        }
        if std::mem::take(&mut st.wake_waiters) {
            self.waiters.notify_all();
        }
    }

    /// Wait, counted among the state's waiters, for a step to end.
    fn wait(&self, st: &mut MutexGuard<'_, StoreState<Run>>) {
        st.waiters += 1;
        self.waiters.wait(st);
        st.waiters -= 1;
    }

    fn spill_path(&self, seq: u64) -> PathBuf {
        self.dir.file(&format!("spill-{seq}.gw"))
    }

    /// Open a streaming cursor over one of this store's spill files,
    /// charged to the gauge and counted in `frames_read`.
    fn open_spill(
        &self,
        seq: u64,
        hook: &Option<Arc<dyn SpillFaultHook>>,
    ) -> io::Result<SpillCursor> {
        let (gauge, read) = (Arc::clone(&self.gauge), Arc::clone(&self.frames_read));
        SpillCursor::open(&self.spill_path(seq), Some(gauge), hook.clone(), Some(read))
    }

    /// Stream the k-way merge of `cursors` (a flush's cached runs or a
    /// compaction's files) into `work`'s spill, never materializing the
    /// merged run. No file is left behind when the merge was empty.
    fn spill_merged<C: RunCursor>(
        &self,
        work: &Work<Run>,
        cursors: Vec<C>,
    ) -> io::Result<Done<Run>> {
        let path = self.spill_path(work.seq);
        let (frame, gauge, hook) = (
            self.cfg.limits().frame,
            Arc::clone(&self.gauge),
            work.hook.clone(),
        );
        let mut w =
            frame::FrameWriter::create(path.clone(), frame, work.encoding, Some(gauge), hook)?;
        let mut merge = CursorMerge::new(cursors);
        while let Some(rec) = merge.peek_rec() {
            w.push(rec)?;
            merge.advance()?;
        }
        let stats = w.finish()?;
        if stats.records == 0 {
            let _ = std::fs::remove_file(&path);
        }
        Ok(Done::Spilled(SpillFile {
            seq: work.seq,
            stats,
        }))
    }

    /// Run one step outside the lock. The cached bytes a flush took leave
    /// memory whether or not its spill succeeded.
    fn run(&self, work: Work<Run>) -> io::Result<Done<Run>> {
        match &work.step {
            Step::Flush(runs, bytes) => {
                let cursors = runs.iter().map(|r| MemCursor::over(r.bytes())).collect();
                let done = self.spill_merged(&work, cursors);
                self.gauge.discharge(*bytes);
                done
            }
            Step::PreMerge(tier, runs, charge) => {
                // A folding store merges every tier with the tree, which
                // writes each key once. Otherwise tier 0's runs are a few
                // chunks' worth, fresh from the map: sorted in cache, they
                // cost less than a 16-way tree. Higher tiers hold up to 16×
                // the records, in long sorted runs that the tree merges
                // without a sort's space. The sort's space is freed with
                // the step's charge, and the bytes a fold took off the
                // inputs with it.
                let (run, combined) = match (&self.fold, tier) {
                    (Some(combiner), _) => fold_runs(runs, combiner.as_ref()),
                    (None, 0) => (sort_runs(runs, &mut SortBuf::default()), 0),
                    (None, _) => (merge_runs(runs), 0),
                };
                let freed = runs.iter().map(Run::len_bytes).sum::<usize>() - run.len_bytes();
                self.gauge.discharge(charge + freed);
                Ok(Done::PreMerged {
                    tier: *tier,
                    run,
                    freed,
                    combined,
                })
            }
            Step::Compact(files) => {
                let cursors = files.iter().map(|s| self.open_spill(s.seq, &work.hook));
                let done = self.spill_merged(&work, cursors.collect::<io::Result<Vec<_>>>()?)?;
                for s in files {
                    let _ = std::fs::remove_file(self.spill_path(s.seq));
                }
                Ok(done)
            }
        }
    }

    /// One merger's life: take a step under the lock, run it outside and
    /// report it, until the store drops. A panic poisons like an error.
    fn serve(&self) {
        let mut st = self.state.lock();
        let mut next = None;
        loop {
            let work = next.take().or_else(|| st.take(self.gauge.current()));
            self.wake(&mut st);
            let Some(work) = work else {
                if st.closed {
                    return;
                }
                self.idle.wait(&mut st);
                continue;
            };
            if let Step::PreMerge(_, _, charge) = &work.step {
                self.gauge.charge(*charge);
            }
            let part = work.part;
            drop(st);
            let outcome = catch_unwind(AssertUnwindSafe(|| self.run(work)));
            st = self.state.lock();
            match outcome.unwrap_or_else(|panic| {
                let msg = panic
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| panic.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string payload".into());
                Err(io::Error::other(format!("merger thread panicked: {msg}")))
            }) {
                Ok(done) => next = st.done(part, done, self.gauge.current()),
                Err(e) => st.fail(part, e),
            }
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
    workers: Vec<MergerJoin>,
}

impl IntermediateStore {
    /// Create a store whose `merger_threads` mergers each get a thread of
    /// their own, which ends with the store.
    pub fn new(cfg: IntermediateConfig) -> io::Result<Self> {
        Self::with_runner(cfg, None, &own_thread)
    }

    /// Create a store whose mergers are started by `run` (the engine's
    /// resident runtime). Each merger serves tasks until the store is
    /// dropped, which waits for every merger to return. Given `fold`, an
    /// order-free combiner ([`Combiner::order_free`]), the store folds:
    /// its pre-merges write each key of a batch once, and
    /// [`IntermediateStore::partition_groups`] hands the reduce each key's
    /// values folded into one.
    pub fn with_runner(
        cfg: IntermediateConfig,
        fold: Option<Arc<dyn Combiner>>,
        run: MergerRunner<'_>,
    ) -> io::Result<Self> {
        assert!(cfg.num_partitions > 0, "at least one partition");
        assert!(cfg.merger_threads > 0, "at least one merger thread");
        assert!(
            fold.as_ref().is_none_or(|c| c.order_free()),
            "a store folds by an order-free combiner only"
        );
        let inner = Arc::new(Inner {
            dir: TempDir::new("gw-intermediate")?,
            state: Mutex::new(StoreState::new(&cfg, fold.is_some())),
            fold,
            cfg,
            idle: Condvar::new(),
            waiters: Condvar::new(),
            gauge: Arc::default(),
            frames_read: Arc::default(),
        });
        let workers = (0..inner.cfg.merger_threads)
            .map(|i| {
                let inner = Arc::clone(&inner);
                run(i, Box::new(move || inner.serve()))
            })
            .collect();
        Ok(IntermediateStore { inner, workers })
    }

    /// The store's configuration.
    pub fn config(&self) -> &IntermediateConfig {
        &self.inner.cfg
    }

    /// Arm (or disarm, with `None`) a fault hook probed before every spill
    /// read/write — the chaos plane's injection site for spill-file I/O
    /// errors.
    pub fn arm_spill_faults(&self, hook: Option<Arc<dyn SpillFaultHook>>) {
        self.inner.state.lock().hook = hook;
    }

    /// Add a sorted run to partition `p`'s cache tier 0 (local map output
    /// or a partition received from another node), after parking while it
    /// would take resident bytes over the budget and a merger task can
    /// make room; each step's end wakes the producer.
    pub fn add_run(&self, p: PartitionId, run: Run) {
        assert!(p < self.inner.cfg.num_partitions, "partition out of range");
        if run.is_empty() {
            return;
        }
        let (bytes, records) = (run.len_bytes(), run.records());
        let mut st = self.inner.state.lock();
        while st.must_park(bytes, self.inner.gauge.current()) {
            self.inner.wait(&mut st);
        }
        let m = &mut st.metrics;
        (m.runs_added, m.records_added, m.bytes_added) = (
            m.runs_added + 1,
            m.records_added + records,
            m.bytes_added + bytes,
        );
        if st.add(p as usize, run) {
            self.inner.gauge.charge(bytes);
        }
        self.inner.wake(&mut st);
    }

    /// Signal that the map phase (including reception of all remote
    /// partitions) has completed: stop new pre-merges, wait for the tasks
    /// still queued or running to end, and return that wait, the **merge
    /// delay**. Nothing is flushed here: runs still cached reach the
    /// reduce merge through [`IntermediateStore::partition_cursors`].
    /// Surfaces any spill I/O error or panic recorded by the mergers.
    pub fn finish_map(&self) -> io::Result<Duration> {
        let start = Instant::now();
        let mut st = self.inner.state.lock();
        st.map_done = true;
        while !st.settled() {
            self.inner.wait(&mut st);
        }
        st.check_poison()?;
        Ok(start.elapsed())
    }

    /// Open streaming cursors over partition `p` for the reduce's final
    /// k-way merge: one [`SpillCursor`] per spill file, opened outside the
    /// lock, and a [`MemCursor`] per cached run of every tier.
    pub fn partition_cursors(&self, p: PartitionId) -> io::Result<Vec<PartCursor>> {
        let (files, runs, hook) = {
            let st = self.inner.state.lock();
            st.check_poison()?;
            let part = &st.parts[p as usize];
            let files: Vec<u64> = part.spills.iter().map(|s| s.seq).collect();
            (files, part.tiers.concat(), st.hook.clone())
        };
        let spills = files.into_iter().map(|seq| {
            let cursor = self.inner.open_spill(seq, &hook)?;
            Ok(PartCursor::Spill(Box::new(cursor)))
        });
        let mems = runs
            .into_iter()
            .map(|r| Ok(PartCursor::Mem(MemCursor::new(r))));
        spills.chain(mems).collect()
    }

    /// Partition `p`'s cursors ([`IntermediateStore::partition_cursors`])
    /// grouped by key for the reduce, each key's values folded into one
    /// when the store folds.
    pub fn partition_groups(&self, p: PartitionId) -> io::Result<GroupedCursorMerge<PartCursor>> {
        let cursors = self.partition_cursors(p)?;
        Ok(match &self.inner.fold {
            Some(combiner) => GroupedCursorMerge::folding(cursors, Arc::clone(combiner)),
            None => GroupedCursorMerge::new(cursors),
        })
    }

    /// Number of spill files currently held by partition `p`.
    pub fn spill_count(&self, p: PartitionId) -> usize {
        self.inner.state.lock().parts[p as usize].spills.len()
    }

    /// Total frames across partition `p`'s spill files.
    pub fn frame_count(&self, p: PartitionId) -> usize {
        let st = self.inner.state.lock();
        st.parts[p as usize]
            .spills
            .iter()
            .map(|s| s.stats.frames)
            .sum()
    }

    /// Total records across a partition's cache and spills.
    pub fn partition_records(&self, p: PartitionId) -> usize {
        let st = self.inner.state.lock();
        let part = &st.parts[p as usize];
        part.spills.iter().map(|s| s.stats.records).sum::<usize>()
            + part.tiers.iter().flatten().map(Run::records).sum::<usize>()
    }

    /// Metrics snapshot.
    pub fn metrics(&self) -> StoreMetrics {
        StoreMetrics {
            frames_read: self.inner.frames_read.load(Ordering::Relaxed),
            peak_resident_bytes: self.inner.gauge.peak(),
            ..self.inner.state.lock().metrics
        }
    }
}

/// Start a merger on a thread of its own.
fn own_thread(i: usize, task: MergerTask) -> MergerJoin {
    let handle = std::thread::Builder::new()
        .name(format!("gw-merger-{i}"))
        .spawn(task)
        .expect("spawn merger thread");
    Box::new(move || {
        let _ = handle.join();
    })
}

impl Drop for IntermediateStore {
    fn drop(&mut self) {
        self.inner.state.lock().closed = true;
        self.inner.idle.notify_all();
        for join in self.workers.drain(..) {
            join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::combine::U64Sum;
    use crate::frame::SpillOp;
    use crate::kv::run_from_pairs;
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
        let mut merge = store.partition_groups(p).unwrap();
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
        let st = store.inner.state.lock();
        st.parts[p as usize].tiers.iter().map(Vec::len).collect()
    }

    /// Wait until no task is queued or running.
    fn quiesce(store: &IntermediateStore) {
        let mut st = store.inner.state.lock();
        while st.working() {
            store.inner.wait(&mut st);
        }
    }

    /// Partition `p`'s spill file paths.
    fn spill_paths(store: &IntermediateStore, p: PartitionId) -> Vec<PathBuf> {
        let st = store.inner.state.lock();
        let spills = &st.parts[p as usize].spills;
        spills
            .iter()
            .map(|s| store.inner.spill_path(s.seq))
            .collect()
    }

    /// With no task in flight, each partition's `cache_bytes`, their
    /// aggregate and the gauge all equal the bytes the tiers hold.
    fn assert_cache_accounting(store: &IntermediateStore) {
        let mut total = 0;
        let st = store.inner.state.lock();
        for (p, part) in st.parts.iter().enumerate() {
            let held: usize = part.tiers.iter().flatten().map(Run::len_bytes).sum();
            assert_eq!(part.cache_bytes, held, "partition {p}");
            total += held;
        }
        assert_eq!(st.cache_bytes, total);
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
            quiesce(&store);
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

    /// 40 runs of 20 records whose key ranges overlap. Values are
    /// TeraSort's 90 bytes, so a tier-0 sort's space (48 B a record) is
    /// half its runs' bytes and fits the budgets these tests set.
    fn overlapping_runs() -> Vec<Run> {
        let value = [b'v'; 90];
        (0..40)
            .map(|i| {
                let keys: Vec<String> = (0..20)
                    .map(|j| format!("k{:03}-{i:02}", (i * 7 + j) % 50))
                    .collect();
                run_from_pairs(keys.iter().map(|k| (k.as_bytes(), value.as_slice())))
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
            quiesce(&store);
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
            quiesce(&flushed);
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
            quiesce(&compacted);
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
        const F: usize = TIER_FANIN;
        // Runs drained after every add. 2·16 + 3: tier 0 fills twice,
        // leaving 3 + 2 streams (depth 1). 16² + 15: tier 0 fills 16
        // times, and its 16 tier-1 runs once, leaving 15 + 0 + 1 (depth 2).
        for (n, tiers) in [(2 * F + 3, vec![3, 2]), (F * F + F - 1, vec![F - 1, 0, 1])] {
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
                quiesce(&store);
            }
            store.finish_map().unwrap();
            assert_eq!(tier_lens(&store, 0), tiers);
            assert_eq!(
                store.partition_cursors(0).unwrap().len(),
                tiers.iter().sum::<usize>()
            );
            let m = store.metrics();
            assert_eq!((m.flushes, m.frames_written), (0, 0), "{m:?}");
            let pre_merges = n / F + n / (F * F);
            assert_eq!(
                (m.merges, m.merge_fanin),
                (pre_merges, pre_merges * F),
                "{m:?}"
            );
            assert_eq!(store.partition_records(0), 2 * n);
            // Sorted tier-0 batches and merged tier-1 ones read back as
            // the one merge of every run, byte for byte.
            let mut merge = CursorMerge::new(store.partition_cursors(0).unwrap());
            let mut bytes = Vec::new();
            while let Some(rec) = merge.peek_rec() {
                bytes.extend_from_slice(rec);
                merge.advance().unwrap();
            }
            assert_eq!(bytes, merge_runs(&runs).bytes(), "{n} runs");
            assert_cache_accounting(&store);
        }
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
        {
            let mut st = store.inner.state.lock();
            st.parts[0].busy = true;
            st.in_flight += 1;
        }
        for r in &runs {
            store.add_run(0, r.clone());
        }
        assert_eq!(tier_lens(&store, 0), vec![21]);
        // The task looks for its next batch: the flush comes first, and
        // takes every tier.
        let gauge = store.inner.gauge.current();
        let work = store.inner.state.lock().step(0, gauge).expect("a flush");
        let done = store.inner.run(work).unwrap();
        let next = store.inner.state.lock().done(0, done, gauge);
        assert!(next.is_none());
        assert_eq!((store.spill_count(0), tier_lens(&store, 0)), (1, vec![]));
        assert!(!store.inner.state.lock().parts[0].busy);
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
        quiesce(&store);
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

    /// A store that folds by [`U64Sum`].
    fn folding_store(c: IntermediateConfig) -> IntermediateStore {
        IntermediateStore::with_runner(c, Some(Arc::new(U64Sum)), &own_thread).unwrap()
    }

    /// A run of `(key index, count)` pairs, keyed as [`hot_key_run`]'s.
    fn count_run(pairs: &[(u8, u64)]) -> Run {
        let key = |k: u8| match k {
            0..8 => "hot".to_string(),
            _ => format!("k{k:02}"),
        };
        let records: Vec<(String, [u8; 8])> = pairs
            .iter()
            .map(|&(k, n)| (key(k), n.to_le_bytes()))
            .collect();
        run_from_pairs(records.iter().map(|(k, v)| (k.as_bytes(), v.as_slice())))
    }

    /// Each key of partition `p` and its value, read through the
    /// store's folding grouped merge, which hands out one value a key.
    fn folded_counts(store: &IntermediateStore, p: PartitionId) -> Vec<(Vec<u8>, u64)> {
        groups(store, p)
            .into_iter()
            .map(|(k, vs)| {
                assert_eq!(vs.len(), 1, "one value a key");
                (k, U64Sum::read(&vs[0]))
            })
            .collect()
    }

    #[test]
    fn a_folding_store_writes_each_key_once_a_pre_merge() {
        let mut c = cfg(1);
        c.memory_budget = usize::MAX;
        let store = folding_store(c);
        // Tier 0 fills 17 times: each fold leaves "hot" and one own key,
        // and the tier-1 fold of the first 16 leaves "hot" and 16.
        let runs: Vec<Run> = (0..17 * TIER_FANIN)
            .map(|i| count_run(&[(0, 1), (8 + (i / TIER_FANIN % 32) as u8, 2)]))
            .collect();
        for r in &runs {
            store.add_run(0, r.clone());
            quiesce(&store);
        }
        store.finish_map().unwrap();
        assert_eq!(tier_lens(&store, 0), vec![0, 1, 1]);
        let m = store.metrics();
        assert_eq!(store.partition_records(0), 17 + 2);
        assert_eq!(m.records_added, m.records_combined + 17 + 2, "{m:?}");
        assert_cache_accounting(&store);
        let mut expect = vec![(b"hot".to_vec(), 17 * TIER_FANIN as u64)];
        expect.extend(
            (0..17).map(|i| (format!("k{:02}", 8 + i).into_bytes(), 2 * TIER_FANIN as u64)),
        );
        expect.sort();
        assert_eq!(folded_counts(&store, 0), expect);
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 48, ..Default::default() })]

        /// However producers race the mergers of a store that folds by an
        /// order-free sum — in core, where every pre-merge folds, or
        /// spilling, where flushes and compactions do not — each partition
        /// reads back one value a key, its inputs' sum, and the records
        /// the folds took away are the ones missing.
        #[test]
        fn a_folding_store_reads_back_each_keys_sum(
            pair_lists in proptest::collection::vec(
                proptest::collection::vec((0u8..40, 0u64..1000), 1..12), 0..300),
            producers in 1usize..5,
            spills in any::<bool>(),
        ) {
            let runs: Vec<Run> = pair_lists.iter().map(|pairs| count_run(pairs)).collect();
            let mut c = cfg(2);
            c.memory_budget = if spills { 4 << 10 } else { usize::MAX };
            let store = folding_store(c);
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
            let mut held = 0;
            for p in 0..2u32 {
                let mut sums = std::collections::BTreeMap::new();
                for r in runs.iter().skip(p as usize).step_by(2) {
                    for (k, v) in r.iter() {
                        *sums.entry(k.to_vec()).or_insert(0) += U64Sum::read(v);
                    }
                }
                prop_assert_eq!(folded_counts(&store, p), sums.into_iter().collect::<Vec<_>>());
                held += store.partition_records(p);
            }
            let m = store.metrics();
            prop_assert_eq!(held + m.records_combined, m.records_added);
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
            store.inner.state.lock().cache_bytes
        );
    }

    #[test]
    fn memory_budget_bounds_peak_residency() {
        use rand::{rngs::StdRng, SeedableRng};
        // At 64 KiB and at the smallest budget a job may set:
        // runs of ~1/32 of the budget either way — sorted keys under a
        // one-byte value, whose spills compress, then records of 90
        // pseudo-random bytes, whose spills are stored.
        for budget in [64 << 10, IntermediateConfig::MIN_MEMORY_BUDGET] {
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
            quiesce(&store);
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
    fn past_its_fanin_a_budgeted_store_rewrites_each_byte_at_most_once_a_round() {
        let budget = 64 << 10;
        let c = cfg(2).with_memory_budget(budget);
        let limits = c.limits();
        let fanin = limits.max_spill_files;
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
        let flushed = m.bytes_added - store.inner.state.lock().cache_bytes;
        // Writes for all the store's flushes: no fewer than a partition's.
        let writes = limits.max_writes(m.flushes);
        assert!(
            m.spilled_raw <= writes * flushed,
            "{} bytes flushed, {} written: more than {} rewrite(s) per byte ({m:?})",
            flushed,
            m.spilled_raw,
            writes - 1
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
            store.inner.state.lock().cache_bytes
        );
    }

    /// Whether each of partition `p`'s spill files is compressed.
    fn compressed_files(store: &IntermediateStore, p: PartitionId) -> Vec<bool> {
        spill_paths(store, p)
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
                    quiesce(&store);
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
        let st = store.inner.state.lock();
        assert!(!st.parts[0].busy);
        assert!(!st.working());
    }

    /// Blocks the first spill write until the test sends on `release`.
    struct BlockFirstWrite {
        release: Mutex<Option<std::sync::mpsc::Receiver<()>>>,
    }
    impl SpillFaultHook for BlockFirstWrite {
        fn spill_fault(&self, op: SpillOp) -> bool {
            if op == SpillOp::Write {
                if let Some(release) = self.release.lock().take() {
                    release.recv().unwrap();
                }
            }
            false
        }
    }

    #[test]
    fn a_parked_producer_is_released_by_a_task_end_alone() {
        let store = Arc::new(IntermediateStore::new(cfg(1)).unwrap());
        let (release, blocked) = std::sync::mpsc::channel();
        store.arm_spill_faults(Some(Arc::new(BlockFirstWrite {
            release: Mutex::new(Some(blocked)),
        })));
        // Each run, just over 1 KiB, crosses the 1 KiB flush point alone,
        // and the first flush stalls in its first frame write, so the
        // second run parks on the 2 KiB budget with the flush in flight.
        let words: Vec<String> = (0..120).map(|i| format!("w{i:05}")).collect();
        let refs: Vec<&str> = words.iter().map(|s| s.as_str()).collect();
        let run = word_run(&refs);
        assert!(run.len_bytes() > 1 << 10, "{}", run.len_bytes());
        let (tx, rx) = std::sync::mpsc::channel();
        let producer = {
            let store = Arc::clone(&store);
            std::thread::spawn(move || {
                store.add_run(0, run.clone());
                store.add_run(0, run);
                tx.send(()).unwrap();
            })
        };
        while store.inner.state.lock().waiters == 0 {
            std::thread::yield_now();
        }
        assert!(rx.try_recv().is_err(), "the producer parks on the budget");
        release.send(()).unwrap();
        rx.recv_timeout(Duration::from_secs(20))
            .expect("the parked producer was not woken by the flush's end");
        producer.join().unwrap();
        store.finish_map().unwrap();
        assert_eq!(store.partition_records(0), 240);
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
        let paths = spill_paths(&store, 0);
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

/// Exhaustive exploration (`gw_check::explore`) of `StoreState` under
/// every order of the events a store sees: producers' adds and parks,
/// `finish_map`, each merger's steps, the gauge charges its writer and
/// cursors make outside the lock, a failed write, and the reduce's cursors.
#[cfg(test)]
mod checker {
    use super::*;
    use gw_check::{explore, Model};
    use std::cell::Cell;
    use std::collections::BTreeMap;
    use std::hash::{Hash, Hasher};

    /// A set of script runs, a bit each: a script holds at most 128.
    type RunSet = u128;

    /// A cached run's stand-in: the script runs it holds, and their bytes
    /// and records (a tier-0 pre-merge charges a sort's space by these).
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
    struct Mock {
        runs: RunSet,
        bytes: usize,
        records: usize,
    }

    impl Cached for Mock {
        fn len_bytes(&self) -> usize {
            self.bytes
        }

        fn records(&self) -> usize {
            self.records
        }
    }

    /// The store and the script the search covers.
    #[derive(Debug, Clone)]
    struct Bounds {
        budget: usize,
        parts: u32,
        mergers: usize,
        /// Whether the spilled data compresses: its first frame decides.
        compresses: bool,
        /// The runs, `(partition, bytes)`: producer `k` of `producers` adds
        /// runs `k`, `k + producers`, … in order.
        script: Vec<(usize, usize)>,
        /// Bytes a record of the script's runs: a run holds `bytes /
        /// record` records, one at least.
        record: usize,
        producers: usize,
        /// Spill steps that may fail.
        faults: u8,
        /// The store folds: its pre-merges charge no sort space, and each
        /// leaves a stand-in a third of its inputs' bytes and records.
        folds: bool,
        /// The gauge's highest reading the search has seen, for its label.
        peak: Cell<usize>,
    }

    /// A thread's wait on a condvar.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    enum Wait {
        Running,
        Waiting,
        /// Notified: it re-checks at its next event.
        Woken,
    }

    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    enum Event {
        /// Producer `k` adds its next run, or parks before it.
        Add(usize),
        /// Once every producer returned, `finish_map` is called, or
        /// re-checks.
        Finish,
        /// The merger asks for work.
        Take(usize),
        /// The merger's writer, and a compaction's cursors, charge the
        /// gauge.
        Open(usize),
        /// The merger's probing writer cuts its first frame, of data that
        /// does not compress, and sheds its image.
        Cut(usize),
        /// The merger's step ends, and it reports under the lock.
        End(usize),
        /// The merger's step fails instead.
        Fail(usize),
        /// The reduce opens partition `p`'s cursors, reads every frame and
        /// drops them.
        Reduce(usize),
    }

    #[derive(Clone)]
    struct Merger {
        work: Option<Work<Mock>>,
        /// Writer and cursor bytes on the gauge.
        charged: usize,
        opened: bool,
        cut: bool,
        wait: Wait,
    }

    #[derive(Clone)]
    struct World {
        st: StoreState<Mock>,
        gauge: usize,
        mergers: Vec<Merger>,
        /// Each producer's next script run and wait; the last entry is the
        /// thread that calls `finish_map`.
        threads: Vec<(usize, Wait)>,
        /// The script runs added so far.
        added: RunSet,
        /// `finish_map` returned.
        finished: bool,
        reduced: usize,
        /// What each spill file holds.
        files: BTreeMap<u64, RunSet>,
        /// Disk writes of each script run, and flushes per partition.
        writes: Vec<u8>,
        flushes: Vec<u8>,
        frames_written: usize,
        frames_read: usize,
        faults: u8,
    }

    fn held(runs: &[Mock]) -> RunSet {
        runs.iter().fold(0, |all, r| all | r.runs)
    }

    impl World {
        fn frame(&self) -> usize {
            self.st.limits.frame
        }

        /// What a spill cursor of partition `p` holds, as `SpillCursor`
        /// charges it: a frame's records and, over a compressed file, that
        /// frame's stored image.
        fn cursor_charge(&self, p: usize) -> usize {
            match self.st.parts[p].encoding {
                Encoding::Compressed => 2 * self.frame(),
                _ => self.frame(),
            }
        }

        /// Notify what the last event asked for, as the wrapper does.
        fn wake(&mut self) {
            if std::mem::take(&mut self.st.wake_waiters) {
                for t in &mut self.threads {
                    if t.1 == Wait::Waiting {
                        t.1 = Wait::Woken;
                    }
                }
            }
            let mergers = std::mem::take(&mut self.st.wake_mergers);
            for m in &mut self.mergers {
                if mergers && m.wait == Wait::Waiting {
                    m.wait = Wait::Woken;
                }
            }
        }
        /// Merger `i` goes on with `next`, or takes the next queued step
        /// in the same locked region, or waits; a pre-merge charges its
        /// copy and sort space there, as `Inner::serve` does.
        fn give(&mut self, i: usize, next: Option<Work<Mock>>) {
            let next = next.or_else(|| self.st.take(self.gauge));
            if let Some(Step::PreMerge(_, _, charge)) = next.as_ref().map(|w| &w.step) {
                self.gauge += charge;
            }
            let m = &mut self.mergers[i];
            m.wait = match next {
                Some(_) => Wait::Running,
                None => Wait::Waiting,
            };
            (m.work, m.charged, m.opened, m.cut) = (next, 0, false, false);
        }

        /// The spill file `seq` a flush or compaction wrote, `encoding` being
        /// what its partition's first frame decided.
        fn spill(
            &mut self,
            seq: u64,
            runs: RunSet,
            raw_bytes: usize,
            encoding: Encoding,
        ) -> Done<Mock> {
            let frames = raw_bytes.div_ceil(self.frame());
            self.frames_written += frames;
            self.files.insert(seq, runs);
            for (r, w) in self.writes.iter_mut().enumerate() {
                *w += (runs >> r & 1) as u8;
            }
            let stats = SpillStats {
                raw_bytes,
                disk_bytes: raw_bytes,
                records: runs.count_ones() as usize,
                frames,
                encoding,
            };
            Done::Spilled(SpillFile { seq, stats })
        }

        /// Thread `k`'s `add_run` (or, past the producers, `finish_map`),
        /// as the wrapper runs them: a woken waiter leaves the count, then
        /// re-checks.
        fn produce(&mut self, b: &Bounds, k: usize) {
            let (next, wait) = self.threads[k];
            if wait == Wait::Woken {
                self.st.waiters -= 1;
            }
            let parks = if k == b.producers {
                self.st.map_done = true;
                self.finished = self.st.settled();
                !self.finished
            } else {
                let (part, bytes) = b.script[next];
                let parks = self.st.must_park(bytes, self.gauge);
                if !parks {
                    let runs = 1 << next;
                    let records = (bytes / b.record).max(1);
                    if self.st.add(
                        part,
                        Mock {
                            runs,
                            bytes,
                            records,
                        },
                    ) {
                        self.gauge += bytes;
                    }
                    self.added |= runs;
                    self.threads[k].0 += b.producers;
                }
                parks
            };
            self.st.waiters += usize::from(parks);
            self.threads[k].1 = if parks { Wait::Waiting } else { Wait::Running };
        }

        /// Merger `i`'s step ends (`fails`, or writes what it read), and
        /// the merger reports it under the lock.
        fn end(&mut self, b: &Bounds, i: usize, fails: bool) {
            let m = &mut self.mergers[i];
            let work = m.work.take().expect("a step");
            self.gauge -= m.charged;
            let part = work.part;
            if fails {
                self.faults += 1;
                if let Step::Flush(_, bytes) = work.step {
                    self.gauge -= bytes;
                }
                self.st.fail(part, io::Error::other("injected"));
                return self.give(i, None);
            }
            let encoding = match work.encoding {
                Encoding::Probe if b.compresses => Encoding::Compressed,
                Encoding::Probe => Encoding::Stored,
                decided => decided,
            };
            let done = match work.step {
                Step::Flush(runs, bytes) => {
                    self.gauge -= bytes;
                    self.flushes[part] += 1;
                    self.spill(work.seq, held(&runs), bytes, encoding)
                }
                Step::Compact(files) => {
                    let mut runs = 0;
                    for f in &files {
                        runs |= self.files.remove(&f.seq).expect("a live file");
                        self.frames_read += f.stats.frames;
                    }
                    let raw = files.iter().map(|f| f.stats.raw_bytes).sum();
                    self.spill(work.seq, runs, raw, encoding)
                }
                Step::PreMerge(tier, runs, charge) => {
                    let (bytes, records) = runs
                        .iter()
                        .fold((0, 0), |(b, r), m| (b + m.bytes, r + m.records));
                    // A fold keeps a third, about what WordCount's keeps.
                    let kept = |n: usize| if b.folds { n.div_ceil(3) } else { n };
                    let run = Mock {
                        runs: held(&runs),
                        bytes: kept(bytes),
                        records: kept(records),
                    };
                    let freed = bytes - run.bytes;
                    self.gauge -= charge + freed;
                    Done::PreMerged {
                        tier,
                        run,
                        freed,
                        combined: records - run.records,
                    }
                }
            };
            let next = self.st.done(part, done, self.gauge);
            self.give(i, next);
        }

        /// Bytes the reduce's cursors over partition `p` hold at once.
        fn reduce_charge(&self, p: usize) -> usize {
            self.st.parts[p].spills.len() * self.cursor_charge(p)
        }

        /// The properties every state keeps, `peak` being the gauge's
        /// highest reading on the way in.
        fn check(&self, b: &Bounds, peak: usize) -> Result<(), String> {
            if 2 * peak > 3 * b.budget {
                return Err(format!("the gauge reads {peak} B, over 1.5× the budget"));
            }
            for (k, t) in self.threads.iter().enumerate() {
                if t.1 != Wait::Waiting {
                    continue;
                }
                let what = if k == b.producers {
                    "finish_map waits"
                } else {
                    "a producer stays parked"
                };
                if self.st.poison.is_some() {
                    return Err(format!("{what} after a poison"));
                }
                if !self.st.working() {
                    return Err(format!("{what} with nothing in flight"));
                }
            }
            if self.st.poison.is_some() {
                return Ok(());
            }
            // Every run added is held exactly once, by its own partition:
            // cached, spilled, or in a step.
            for p in 0..b.parts as usize {
                let part = &self.st.parts[p];
                let mut held: Vec<RunSet> = part.tiers.iter().flatten().map(|r| r.runs).collect();
                held.extend(part.spills.iter().map(|s| self.files[&s.seq]));
                for work in self.mergers.iter().filter_map(|m| m.work.as_ref()) {
                    match &work.step {
                        _ if work.part != p => {}
                        Step::Flush(runs, _) | Step::PreMerge(_, runs, _) => {
                            held.extend(runs.iter().map(|r| r.runs))
                        }
                        Step::Compact(files) => {
                            held.extend(files.iter().map(|f| self.files[&f.seq]))
                        }
                    }
                }
                let mut all: RunSet = 0;
                for runs in held {
                    if all & runs != 0 {
                        return Err(format!("partition {p} holds runs {:#b} twice", all & runs));
                    }
                    all |= runs;
                }
                let want = (0..b.script.len())
                    .filter(|&r| self.added >> r & 1 == 1 && b.script[r].0 == p)
                    .fold(0, |all, r| all | 1 << r);
                if all != want {
                    return Err(format!("partition {p} holds runs {all:#b}, not {want:#b}"));
                }
            }
            Ok(())
        }
    }

    /// What decides the future: spill files by their content, not by their
    /// sequence number.
    impl Hash for World {
        fn hash<H: Hasher>(&self, h: &mut H) {
            let file = |s: &SpillFile| (self.files.get(&s.seq), s.stats.raw_bytes);
            for part in &self.st.parts {
                part.tiers.hash(h);
                part.spills.iter().map(file).for_each(|f| f.hash(h));
                let flags = (part.busy, part.flush_due, part.encoding);
                (part.cache_bytes, flags).hash(h);
            }
            let st = &self.st;
            (st.cache_bytes, &st.ready, st.in_flight, st.waiters).hash(h);
            (st.map_done, st.poison.is_some()).hash(h);
            for m in &self.mergers {
                (m.charged, m.opened, m.cut, m.wait).hash(h);
                let Some(work) = &m.work else {
                    continue;
                };
                (work.part, work.encoding).hash(h);
                match &work.step {
                    Step::Flush(runs, _) => (1, runs).hash(h),
                    Step::PreMerge(tier, runs, _) => (2, tier, runs).hash(h),
                    Step::Compact(files) => files.iter().map(file).for_each(|f| f.hash(h)),
                }
            }
            let producer = (&self.threads, self.added, self.finished, self.reduced);
            (self.gauge, producer, &self.writes, self.faults).hash(h);
            (self.frames_written, self.frames_read).hash(h);
        }
    }

    impl Model for Bounds {
        type State = World;
        type Event = Event;

        fn start(&self) -> World {
            assert!(
                self.script.len() <= RunSet::BITS as usize,
                "a run set holds at most 128 runs"
            );
            let cfg = IntermediateConfig {
                num_partitions: self.parts,
                merger_threads: self.mergers,
                compress: true,
                memory_budget: self.budget,
            };
            let merger = Merger {
                work: None,
                charged: 0,
                opened: false,
                cut: false,
                wait: Wait::Running,
            };
            World {
                st: StoreState::new(&cfg, self.folds),
                gauge: 0,
                mergers: vec![merger; self.mergers],
                threads: (0..=self.producers).map(|k| (k, Wait::Running)).collect(),
                added: 0,
                finished: false,
                reduced: 0,
                files: BTreeMap::new(),
                writes: vec![0; self.script.len()],
                flushes: vec![0; self.parts as usize],
                frames_written: 0,
                frames_read: 0,
                faults: 0,
            }
        }

        fn events(&self, w: &World) -> Vec<Event> {
            let mut events = Vec::new();
            let n = self.producers;
            for (k, &(next, wait)) in w.threads[..n].iter().enumerate() {
                if next < self.script.len() && wait != Wait::Waiting {
                    events.push(Event::Add(k));
                }
            }
            let all_added = w.threads[..n].iter().all(|t| t.0 >= self.script.len());
            if all_added && !w.finished && w.threads[n].1 != Wait::Waiting {
                events.push(Event::Finish);
            }
            for (i, m) in w.mergers.iter().enumerate() {
                let Some(work) = &m.work else {
                    if m.wait != Wait::Waiting {
                        events.push(Event::Take(i));
                    }
                    continue;
                };
                if matches!(work.step, Step::PreMerge(..)) {
                    events.push(Event::End(i));
                } else if !m.opened {
                    events.push(Event::Open(i));
                } else {
                    if work.encoding == Encoding::Probe && !self.compresses && !m.cut {
                        events.push(Event::Cut(i));
                    }
                    events.push(Event::End(i));
                    if w.faults < self.faults {
                        events.push(Event::Fail(i));
                    }
                }
            }
            if w.finished && w.st.poison.is_none() && w.reduced < self.parts as usize {
                events.push(Event::Reduce(w.reduced));
            }
            events
        }

        fn apply(&self, w: &mut World, event: Event) -> Result<(), String> {
            // The reduce's cursors are charged only while it reads.
            let mut peak = 0;
            match event {
                Event::Add(k) => w.produce(self, k),
                Event::Finish => w.produce(self, self.producers),
                Event::Take(i) => w.give(i, None),
                Event::Open(i) => {
                    let work = w.mergers[i].work.as_ref().expect("a spill");
                    let cursors = match &work.step {
                        Step::Compact(files) => files.len() * w.cursor_charge(work.part),
                        _ => 0,
                    };
                    let writer = match work.encoding {
                        Encoding::Stored => w.frame(),
                        _ => 2 * w.frame(),
                    };
                    w.gauge += writer + cursors;
                    let m = &mut w.mergers[i];
                    (m.charged, m.opened) = (writer + cursors, true);
                }
                Event::Cut(i) => {
                    w.gauge -= w.frame();
                    let frame = w.frame();
                    let m = &mut w.mergers[i];
                    (m.charged, m.cut) = (m.charged - frame, true);
                }
                Event::End(i) => w.end(self, i, false),
                Event::Fail(i) => w.end(self, i, true),
                Event::Reduce(p) => {
                    for s in &w.st.parts[p].spills {
                        w.frames_read += s.stats.frames;
                    }
                    w.reduced += 1;
                    peak = w.reduce_charge(p);
                }
            }
            w.wake();
            peak += w.gauge;
            self.peak.set(self.peak.get().max(peak));
            w.check(self, peak)
        }

        /// The properties of a state no event changes.
        fn ends(&self, w: &World) -> Result<(), String> {
            if !w.finished {
                return Err("finish_map never returns".into());
            }
            if w.st.poison.is_some() {
                return Ok(());
            }
            if w.frames_written != w.frames_read {
                return Err(format!(
                    "{} frames written, {} read",
                    w.frames_written, w.frames_read
                ));
            }
            // The rewrite bound of the compaction rule (module doc).
            let limits = w.st.limits;
            for (r, &(p, _)) in self.script.iter().enumerate() {
                if usize::from(w.writes[r]) > limits.max_writes(w.flushes[p].into()) {
                    return Err(format!(
                        "run {r} was written {} times over {} flushes of partition {p}, {limits:?}",
                        w.writes[r], w.flushes[p]
                    ));
                }
            }
            Ok(())
        }

        fn label(&self) -> String {
            format!(
                "store checker {} KiB, {} partition(s), {} merger(s), {}{}, {} runs of {} B records from {} producer(s), {} fault(s), peak {:.2}× the budget",
                self.budget >> 10,
                self.parts,
                self.mergers,
                if self.compresses {
                    "compressing"
                } else {
                    "stored"
                },
                if self.folds { ", folding" } else { "" },
                self.script.len(),
                self.record,
                self.producers,
                self.faults,
                self.peak.get() as f64 / self.budget as f64,
            )
        }
    }

    /// Per partition, `M + 4` runs that each cross the flush point alone,
    /// so the partition compacts, then six runs of a sixth of the budget,
    /// which fill the cache while the last spills run.
    fn spilling(budget: usize, parts: u32, mergers: usize, compresses: bool) -> Bounds {
        let m = (IntermediateConfig::default().with_memory_budget(budget))
            .limits()
            .max_spill_files;
        let parts_ = parts as usize;
        let big = (0..(m + 4) * parts_).map(|i| (i % parts_, budget / 2 + 256));
        let small = (0..6).map(|i| (i % parts_, budget / 6));
        Bounds {
            compresses,
            ..store(budget, parts, mergers, big.chain(small).collect())
        }
    }

    /// `spilling`'s one-partition script, stored, with `n` runs that each
    /// cross the flush point alone.
    fn flushing(budget: usize, mergers: usize, n: usize) -> Bounds {
        let mut b = spilling(budget, 1, mergers, false);
        let (big, small) = b.script.split_at(b.script.len() - 6);
        b.script = [vec![big[0]; n], small.to_vec()].concat();
        b
    }

    /// A TeraSort record, header included: a sort's space is about half
    /// its run's bytes.
    const TERASORT_RECORD: usize = 102;

    /// One producer adds `script`'s runs of TeraSort records to a store
    /// whose spills compress.
    fn store(budget: usize, parts: u32, mergers: usize, script: Vec<(usize, usize)>) -> Bounds {
        Bounds {
            budget,
            parts,
            mergers,
            compresses: true,
            script,
            record: TERASORT_RECORD,
            producers: 1,
            faults: 0,
            folds: false,
            peak: Cell::default(),
        }
    }

    /// Partition 0's tier 0 fills twice below the flush point, so
    /// pre-merges race the adds, then `spills` runs that spill; with none,
    /// the last add queues a pre-merge that `finish_map` races.
    fn pre_merging(budget: usize, mergers: usize, spills: usize) -> Bounds {
        let small = (0..2 * TIER_FANIN).map(|_| (0, budget / 80));
        let big = (0..spills).map(|i| (i % 2, budget / 4));
        store(budget, 2, mergers, small.chain(big).collect())
    }

    /// Partition 1 crosses the flush point alone, and while its spill
    /// holds its bytes partition 0's tier 0 fills with 16-byte records
    /// (WordCount's), whose sort space is three times their bytes: the
    /// room check must count it.
    fn sorting(budget: usize, mergers: usize) -> Bounds {
        let big = std::iter::once((1, budget / 2 + 256));
        let small = (0..TIER_FANIN).map(|_| (0, budget / 80));
        Bounds {
            record: 16,
            ..store(budget, 2, mergers, big.chain(small).collect())
        }
    }

    /// `pre_merging`'s script of WordCount's 16-byte records in a folding
    /// store: its pre-merges charge no sort space, and each gives back two
    /// thirds of its inputs' bytes while the adds and spills go on.
    fn folding(budget: usize, mergers: usize) -> Bounds {
        Bounds {
            record: 16,
            folds: true,
            ..pre_merging(budget, mergers, 6)
        }
    }

    /// Every bound the budget floor is held to, each `below` bytes under
    /// the floor for its merger count.
    fn every_bound(below: usize) -> Vec<Bounds> {
        let budget = |mergers| IntermediateConfig::min_memory_budget(mergers) - below;
        let mut all = Vec::new();
        for (parts, mergers) in [(1, 1), (1, 2), (2, 1), (2, 2)] {
            for compresses in [false, true] {
                all.push(spilling(budget(mergers), parts, mergers, compresses));
            }
        }
        // Three mergers derive a smaller compaction fan-in and a higher
        // floor; a partition's task is one step at a time, so it takes
        // three partitions to run all three at once.
        for parts in [1, 2, 3] {
            all.push(spilling(budget(3), parts, 3, true));
        }
        // Two producers race each other's parks and wakes.
        all.push(Bounds {
            producers: 2,
            ..spilling(budget(2), 2, 2, true)
        });
        for mergers in [1, 2] {
            all.push(pre_merging(budget(mergers), mergers, 6));
            all.push(pre_merging(budget(mergers), mergers, 0));
            all.push(sorting(budget(mergers), mergers));
            all.push(folding(budget(mergers), mergers));
            all.push(Bounds {
                faults: 1,
                ..spilling(budget(mergers), 2, mergers, true)
            });
        }
        all
    }

    #[test]
    fn at_the_floor_every_event_order_keeps_every_property() {
        let mut all = every_bound(0);
        // A budget whose M is 32, as every budget from 64 KiB up derives.
        all.push(spilling(64 << 10, 1, 2, true));
        let states: usize = all
            .iter()
            .map(|b| explore(b).unwrap_or_else(|e| panic!("{e}")))
            .sum();
        println!("store checker: {states} states over {} bounds", all.len());
    }

    #[test]
    fn four_kib_below_the_floor_the_gauge_passes_one_and_a_half_budgets() {
        let broken: Vec<String> = every_bound(4 << 10)
            .iter()
            .filter_map(|b| explore(b).err())
            .collect();
        for why in &broken {
            println!("broken: {why}");
        }
        assert!(broken
            .iter()
            .any(|why| why.contains("over 1.5× the budget")));
    }

    /// Flushes of one size, past the M + 4 of `spilling`: the rewrite
    /// bound holds to 4M flushes at F 2 (two mergers, a round of M
    /// flushes) and F 5 (one merger, a round of 3M). It is tight: over
    /// each bound's 27, 37 and 49 flushes, run 0 is written 3, 4 and 5
    /// times at F 2, and 2, 2 and 3 times at F 5, which ⌈log_M N⌉ (2 at
    /// these N) does not allow past 2M flushes at F 2, nor at 4M at F 5.
    #[test]
    fn past_2m_flushes_a_byte_is_rewritten_once_a_round() {
        let budget = IntermediateConfig::MIN_MEMORY_BUDGET;
        let m = (IntermediateConfig::default().with_memory_budget(budget))
            .limits()
            .max_spill_files;
        let mut all = Vec::new();
        for mergers in [1, 2] {
            for n in [2 * m + 2, 3 * m, 4 * m] {
                all.push(flushing(budget, mergers, n));
            }
        }
        let states: usize = all
            .iter()
            .map(|b| explore(b).unwrap_or_else(|e| panic!("{e}")))
            .sum();
        println!(
            "store checker, rewrite bound: {states} states over {} bounds",
            all.len()
        );
    }
}
