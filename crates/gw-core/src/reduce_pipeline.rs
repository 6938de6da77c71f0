//! The 5-stage reduce pipeline (paper §III-C), as thin stage definitions
//! on the shared `gw-pipeline` executor: one stage graph per node per job,
//! whose source walks the node's partitions in global-partition order and
//! whose output stage writes a partition's file when its last chunk passes.
//!
//! ```text
//! MergeRead → Stage → Kernel → Retrieve → Output
//! ```
//!
//! The first stage "performs one last merge operation and supplies the
//! pipeline with a consistent view of the intermediate data": a k-way
//! loser-tree merge (`gw_intermediate::GroupedCursorMerge`, one
//! comparison per tree level per record) over streaming cursors — every
//! run of the partition's cache tiers plus one decoded frame per spill
//! file, both behind the one concrete `gw_intermediate::PartCursor` type —
//! grouped by key. The store pre-merged full tiers while the map ran (a
//! full tier 0 by a sort, whose fresh runs fit in cache; higher tiers
//! by the same loser tree, which needs no sort space), so the cached
//! runs are a few long ones (10 for 400 added), not one per map chunk
//! and partition lane. Merging them all once here instead was measured
//! slower: a ~195-way tree costs more per record than the 16-way
//! pre-merges and this 15-way merge together. The tree compares
//! fixed-width sort heads (a key's first 16 bytes, a value's first 8,
//! both lengths) and reads the records' bytes only for a tie that runs
//! past a head; full ties still
//! break by source index, so the order is `(key, value, source)` as ever,
//! and the bytes do not depend on which runs were pre-merged together.
//! The store flushes nothing at end of map, so an in-core job's tiers are
//! the whole input and no byte is read from disk; for a job that spilled
//! the merge is **external**, holding the cached remainder, `k` frames and
//! one in-flight chunk arena, never the partition (paper §III-B; DESIGN.md
//! §3.10). Between the tree and the kernel launch nothing is allocated
//! per key: a chunk is four buffers (key/value arena, value spans, groups,
//! work-item assignments) filled by the merge, and a launch adds one flat
//! list of value slices over the arena. As in the map
//! pipeline, all chunk handoff, the §III-D token interlock, fault
//! probing, timers and unwinding live in [`gw_pipeline`]; Stage and
//! Retrieve are slots of discrete-memory graphs only.
//!
//! Reduce-side fine-grained parallelism, exactly as the paper describes:
//!
//! * the pipeline "is capable of processing multiple keys concurrently" —
//!   each kernel launch carries up to `reduce_concurrent_keys` keys;
//! * "Glasswing provides the possibility to have each reduce kernel thread
//!   process multiple keys sequentially" (`reduce_keys_per_thread`) to
//!   amortise kernel-invocation overhead (Fig. 5);
//! * "If the number of values to be reduced for one key is too large for
//!   one kernel invocation, some state must be saved across kernel calls.
//!   Glasswing provides scratch buffers for each key to store such state"
//!   — value lists longer than `reduce_max_values_per_chunk` span several
//!   chunks, and the key's scratch buffer is carried between invocations.
//!   A continued slice closes its chunk, so only a chunk's last group
//!   leaves state and only the next chunk's first takes it: the kernel
//!   stage carries one `(key, state)` slot, not a map of keys.
//!
//! Jobs without a reduce function (TeraSort) run the same graph without
//! the Kernel slot and its Stage/Retrieve neighbours: the merge is plain,
//! not grouped, and its sorted stream leaves MergeRead cut into the output
//! file's blocks — "its output is fully processed by the end of the
//! intermediate data shuffle". Each block fills one of `B` recycled
//! arenas, pre-sized to `output_block_size` and a record's slack, so no
//! block grows by copying; Output copies the filled block once, into the
//! exact-size shared block the file store keeps as it is, and hands the
//! arena back.
//!
//! Every reduce stage runs **single-lane**, deliberately: the reduce
//! kernel carries per-key scratch state across the value chunks of one
//! key, so a key's chunks must arrive FIFO at a single kernel instance —
//! widened lanes would interleave a key's chunk sequence across
//! instances and tear that state. `JobConfig::lane_plan` therefore only
//! addresses the map pipeline (see DESIGN.md §3.9); reduce-side
//! parallelism comes from the per-key/per-chunk knobs above instead.

use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use gw_device::{Device, KernelFn, NdRange, WorkItemCtx};
use gw_intermediate::{CursorMerge, GroupSlice, GroupedCursorMerge, IntermediateStore, PartCursor};
use gw_pipeline::{
    run_task_with_retries, token_pool, LaneSource, PipelineBuilder, PipelineKind, PoolGet, PoolPut,
    Runtime, Stage, StageCtx,
};
use gw_storage::split::{FileStore, RecordBlock, RecordBlockBuilder};
use gw_storage::NodeId;
use gw_trace::{CounterId, StageId, Tracer};

use crate::api::{Emit, GwApp};
use crate::collect::{for_each_record, Collector, Slots};
use crate::config::JobConfig;
use crate::coordinator::{Coordinator, NodeChaos, ReduceTaskProbe};
use crate::map_pipeline::{output_bytes, pool_collector, ModeledTransfer};
use crate::EngineError;

/// What an output block arena holds beyond `output_block_size`: a block
/// is cut after the record that reaches the size, so it may run over by
/// up to one record; a longer record grows the arena, which keeps the
/// capacity.
const BLOCK_SLACK: usize = 64 << 10;

/// One key's slice of values within a reduce chunk, borrowed from the
/// chunk's arena and its launch's flat view list ([`ReduceChunk::views`]).
#[derive(Clone, Copy)]
struct Group<'r> {
    key: &'r [u8],
    values: &'r [&'r [u8]],
    /// Whether this is the key's final value chunk.
    last: bool,
}

/// One work-item assignment: `part` of `parts` cooperating on a group
/// (parts > 1 = the paper's parallel single-key reduction).
#[derive(Debug, Clone, Copy)]
struct Assignment {
    group: usize,
    part: usize,
    parts: usize,
}

/// A batch of up to `reduce_concurrent_keys` groups of one partition
/// travelling the graph, annotated with its kernel-output collector once
/// past the Kernel stage. Self-contained: key/value bytes live in the
/// chunk's own arena, so the pipeline holds at most B chunks of
/// intermediate data in memory. Every buffer here is per chunk — no key
/// has an allocation of its own. In a job without a reduce function a
/// chunk is instead one block of the output file: `records` merged
/// records in `arena`, one of the recycled block arenas, encoded as the
/// file stores them, and no groups.
#[derive(Default)]
struct ReduceChunk {
    arena: Vec<u8>,
    records: usize,
    /// Every value of the chunk as an `(offset, len)` span of `arena`,
    /// group after group in merge order.
    spans: Vec<(u32, u32)>,
    /// Arena-relative form of each [`Group`], as the merge handed it out:
    /// the key's span and the range of `spans` holding its values'.
    groups: Vec<GroupSlice>,
    assignments: Vec<Assignment>,
    collector: Option<Box<dyn Collector>>,
    /// On a partition's last chunk, the one whose filling met the end of
    /// the partition's merge (its only one, and empty, if the partition
    /// is): the global partition whose output file it completes.
    closes: Option<u32>,
}

impl ReduceChunk {
    /// The chunk's values as slices of the arena, one flat list in span
    /// order, for one kernel launch's [`Group`]s to borrow from.
    fn views(&self) -> Vec<&[u8]> {
        self.spans
            .iter()
            .map(|&(off, len)| &self.arena[off as usize..][..len as usize])
            .collect()
    }

    /// Borrowed view of group `g` over the arena and `views`.
    fn group<'a>(&'a self, views: &'a [&'a [u8]], g: usize) -> Group<'a> {
        let owned = &self.groups[g];
        Group {
            key: &self.arena[owned.key.0 as usize..][..owned.key.1 as usize],
            values: &views[owned.values.clone()],
            last: owned.last,
        }
    }
}

/// Outcome of a node's reduce phase. Apart from `elapsed`, which the phase
/// measures, it is a fold: [`crate::Cluster::run_scoped`] fills the counts
/// from the counters the stages emit on the job's trace, and the files
/// from the partitions the coordinator assigns the node.
#[derive(Debug, Clone, Default)]
pub struct ReducePhaseReport {
    /// Local partitions reduced.
    pub partitions: usize,
    /// Distinct keys processed.
    pub keys: usize,
    /// Output records written.
    pub records_out: usize,
    /// Kernel launches performed.
    pub launches: usize,
    /// Key-chunks reduced cooperatively by multiple work items (the
    /// paper's parallel single-key reduction).
    pub parallel_key_splits: usize,
    /// Reduce kernel launches that failed and were re-executed within the
    /// `max_task_retries` budget.
    pub tasks_retried: usize,
    /// Output files written (paths).
    pub output_files: Vec<String>,
    /// Wall-clock duration of the phase.
    pub elapsed: Duration,
}

/// A partition's external merge: grouped by key for the reduce kernel, or
/// plain for a job without a reduce function, whose output it is.
enum PartMerge {
    Grouped(GroupedCursorMerge<PartCursor>),
    Plain(CursorMerge<PartCursor>),
}

/// MergeRead stage: walk the node's partitions in global-partition order,
/// pulling key-group slices off each one's grouped external merge and
/// batching them into chunks, copying only the slice's bytes into the
/// chunk's arena. Oversized value lists arrive pre-sliced at
/// `reduce_max_values_per_chunk` from the merge itself, so nothing here
/// ever holds a whole key's value list. Off a plain merge a chunk is the
/// next output block's worth of records, in a recycled block arena.
struct ReduceMergeRead<'a> {
    phase: &'a ReducePhase<'a>,
    threads_per_key: usize,
    /// The block arenas, in a job without a reduce function.
    arenas: Option<PoolGet<Vec<u8>>>,
    /// The arena claimed for the next chunk.
    arena: Option<Vec<u8>>,
    /// Where the search for the node's next partition resumes.
    next_gp: u32,
    /// The open partition and its merge.
    open: Option<(u32, PartMerge)>,
}

impl ReduceMergeRead<'_> {
    /// The next chunk of partition `gp`'s `merge` — the partition's last if
    /// filling it met the merge's end, so possibly an empty one — and the
    /// keys it starts (its records, off a plain merge, which fills the
    /// claimed arena).
    fn fill(
        &mut self,
        gp: u32,
        merge: &mut PartMerge,
    ) -> Result<(ReduceChunk, usize), EngineError> {
        let cfg = self.phase.cfg;
        let mut chunk = ReduceChunk::default();
        let merge = match merge {
            PartMerge::Grouped(merge) => merge,
            PartMerge::Plain(merge) => {
                chunk.arena = self.arena.take().expect("claim() took a block arena");
                // Cut where `RecordBlockBuilder` rolls a block.
                while let Some(rec) = merge.peek_rec() {
                    chunk.arena.extend_from_slice(rec);
                    chunk.records += 1;
                    merge.advance().map_err(EngineError::Io)?;
                    if chunk.arena.len() >= cfg.output_block_size {
                        break;
                    }
                }
                chunk.closes = merge.peek_rec().is_none().then_some(gp);
                let records = chunk.records;
                return Ok((chunk, records));
            }
        };
        let mut keys = 0;
        loop {
            let fresh = merge.at_key_start();
            let Some(slice) = merge
                .next_slice(
                    cfg.reduce_max_values_per_chunk,
                    &mut chunk.arena,
                    &mut chunk.spans,
                )
                .map_err(EngineError::Io)?
            else {
                chunk.closes = Some(gp);
                break;
            };
            keys += usize::from(fresh);
            // Split large value chunks over cooperating work items when
            // the app supports it.
            let parts =
                if self.threads_per_key > 1 && slice.values.len() >= 2 * self.threads_per_key {
                    self.threads_per_key
                } else {
                    1
                };
            let group = chunk.groups.len();
            chunk
                .assignments
                .extend((0..parts).map(|part| Assignment { group, part, parts }));
            let last = slice.last;
            chunk.groups.push(slice);
            // A key's scratch state is only consistent across *launches*:
            // a continued (non-final) slice must close this chunk so its
            // successor lands in a later launch (otherwise two work items
            // could race on the key's state). Also close when full.
            if !last || chunk.groups.len() >= cfg.reduce_concurrent_keys {
                break;
            }
        }
        Ok((chunk, keys))
    }

    /// Whether a chunk is due: a partition is open, or the node owns
    /// another one, which becomes the next to open.
    fn due(&mut self) -> Result<bool, EngineError> {
        if self.open.is_some() {
            return Ok(true);
        }
        let ReducePhase {
            cfg,
            node,
            nodes,
            coordinator,
            ..
        } = self.phase;
        let Some(gp) = (self.next_gp..cfg.partitions_per_node * nodes)
            .find(|&gp| coordinator.owner_of(gp) == node.0)
        else {
            return Ok(false);
        };
        self.next_gp = gp + 1;
        if coordinator.aborted() {
            return Err(EngineError::NodeLost("job aborted during reduce".into()));
        }
        Ok(true)
    }
}

impl LaneSource<ReduceChunk, EngineError> for ReduceMergeRead<'_> {
    /// A chunk is due while a partition is open or another one is owned;
    /// opening its merge is production. A job without a reduce function
    /// takes the chunk's block arena here, so production waits for one.
    fn claim(&mut self, ctx: &mut StageCtx<'_>) -> Result<bool, EngineError> {
        if !self.due()? {
            return Ok(false);
        }
        if let Some(arenas) = &self.arenas {
            let Some(arena) = arenas.take() else {
                ctx.stop(); // pool closed: the output stage died
                return Ok(false);
            };
            self.arena = Some(arena);
        }
        Ok(true)
    }

    fn produce(&mut self, ctx: &mut StageCtx<'_>) -> Result<ReduceChunk, EngineError> {
        let (gp, mut merge) = match self.open.take() {
            Some(open) => open,
            None => {
                // The partition `claim` just found.
                let gp = self.next_gp - 1;
                // Streaming cursors: spilled runs stay on disk and decode
                // one frame at a time; cached runs are merged where they sit.
                let cursors = self.phase.intermediate.partition_cursors(gp)?;
                if self.phase.app.has_reduce() {
                    (gp, PartMerge::Grouped(GroupedCursorMerge::new(cursors)))
                } else {
                    (gp, PartMerge::Plain(CursorMerge::new(cursors)))
                }
            }
        };
        let (chunk, keys) = self.fill(gp, &mut merge)?;
        ctx.count(CounterId::ReduceKeys, keys);
        if chunk.closes.is_none() {
            self.open = Some((gp, merge));
        }
        Ok(chunk)
    }
}

/// Kernel stage: reduce the chunk's groups as an NDRange over work-item
/// assignments, with per-key scratch state across launches, cooperative
/// parallel single-key reduction, and §III-E task re-execution.
struct ReduceKernel<'a> {
    device: Arc<Device>,
    app: Arc<dyn GwApp>,
    cfg: &'a JobConfig,
    /// The scratch state carried between kernel invocations (device
    /// resident in real Glasswing), with its key. At most one key has
    /// one: a continued slice closes its chunk, so only a chunk's last
    /// group leaves state behind and only the next chunk's first group,
    /// the same key's continuation, takes it up.
    carry: Option<(Vec<u8>, Vec<u8>)>,
    collectors: PoolGet<Box<dyn Collector>>,
}

impl Stage<ReduceChunk, EngineError> for ReduceKernel<'_> {
    fn run_chunk(
        &mut self,
        mut chunk: ReduceChunk,
        ctx: &mut StageCtx<'_>,
    ) -> Result<Option<ReduceChunk>, EngineError> {
        if chunk.groups.is_empty() {
            return Ok(Some(chunk)); // an empty closing chunk: nothing to launch
        }
        let Some(mut collector) = self.collectors.take() else {
            ctx.stop(); // pool closed: the output stage died
            return Ok(None);
        };
        let views = chunk.views();
        let group = |g: usize| chunk.group(&views, g);
        let n_groups = chunk.groups.len();
        let retries = self.cfg.max_task_retries;
        // The carried state is the first group's: only that group's work
        // item takes it. The last group's leaves its state behind if its
        // key goes on. A failed attempt restores the snapshot and
        // re-executes (paper §III-E, extended to the reduce side).
        let incoming = Mutex::new(self.carry.take().map(|(key, state)| {
            debug_assert_eq!(key, group(0).key, "carried state of another key");
            state
        }));
        let outgoing: Mutex<Option<Vec<u8>>> = Mutex::new(None);
        let snapshot = if retries > 0 {
            incoming.lock().clone()
        } else {
            None
        };
        let first_state = |a: &Assignment| match a.group {
            0 => incoming.lock().take().unwrap_or_default(),
            _ => Vec::new(),
        };
        let coop_groups = chunk
            .assignments
            .iter()
            .filter(|a| a.parts > 1 && a.part == 0)
            .count();
        let kpt = self.cfg.reduce_keys_per_thread;
        let n_items = chunk.assignments.len().div_ceil(kpt);
        let range = NdRange::new(n_items.max(1), self.cfg.work_group.min(n_items.max(1)))
            .map_err(EngineError::Device)?;
        let assignments = &chunk.assignments;
        let (first_state, outgoing_ref) = (&first_state, &outgoing);
        let app = &self.app;
        let device = &self.device;
        let probe: &StageCtx<'_> = &*ctx;
        // The whole attempt — injected-fault probe, kernel launch,
        // cooperative-state merge and final emits — is one unwind scope,
        // so a failure anywhere rolls back as a unit.
        let attempt = run_task_with_retries(
            retries,
            &mut collector,
            |collector| {
                if probe.task_fault_fires() {
                    panic!("injected reduce-site fault");
                }
                let emit_target: &dyn Collector = collector.as_ref();
                // Per-(group, part) partial states for groups reduced
                // cooperatively.
                let partials: Vec<Mutex<Vec<Option<Vec<u8>>>>> =
                    (0..n_groups).map(|_| Mutex::new(Vec::new())).collect();
                for a in assignments {
                    if a.parts > 1 {
                        let mut slot = partials[a.group].lock();
                        if slot.is_empty() {
                            slot.resize(a.parts, None);
                        }
                    }
                }
                let partials = &partials;
                let kernel = KernelFn(move |wctx: &WorkItemCtx| {
                    emit_target.work_item(&mut |sink| {
                        let emit = Emit::to_sink(sink);
                        let lo = wctx.global_id() * kpt;
                        let hi = (lo + kpt).min(assignments.len());
                        for a in &assignments[lo..hi] {
                            let group = group(a.group);
                            if a.parts == 1 {
                                let mut state = first_state(a);
                                app.reduce(group.key, group.values, &mut state, group.last, &emit);
                                if !group.last {
                                    *outgoing_ref.lock() = Some(state);
                                }
                            } else {
                                // Cooperative partial reduction over this
                                // part's slice of the values; merging and the
                                // final emit happen after the launch.
                                let n = group.values.len();
                                let lo_v = a.part * n / a.parts;
                                let hi_v = (a.part + 1) * n / a.parts;
                                let mut state = if a.part == 0 {
                                    first_state(a)
                                } else {
                                    Vec::new()
                                };
                                app.reduce(
                                    group.key,
                                    &group.values[lo_v..hi_v],
                                    &mut state,
                                    false,
                                    &emit,
                                );
                                partials[a.group].lock()[a.part] = Some(state);
                            }
                        }
                    });
                });
                let stats = device.launch(range, &kernel);
                // Merge cooperative partial states and finish each
                // parallel group with one last=true call.
                emit_target.work_item(&mut |sink| {
                    let emit = Emit::to_sink(sink);
                    for (g, slots) in partials.iter().enumerate() {
                        let mut slots = slots.lock();
                        if slots.is_empty() {
                            continue;
                        }
                        let group = group(g);
                        let mut acc = slots[0].take().expect("part 0 state");
                        for slot in slots.iter_mut().skip(1) {
                            let other = slot.take().expect("partial state");
                            let merged = app.merge_states(&mut acc, &other);
                            debug_assert!(merged, "merge support changed mid-job");
                        }
                        if group.last {
                            app.reduce(group.key, &[], &mut acc, true, &emit);
                        } else {
                            *outgoing_ref.lock() = Some(acc);
                        }
                    }
                });
                stats
            },
            |collector| {
                // Discard the attempt's partial output, restore the
                // scratch state it consumed, and re-execute (paper
                // §III-E: "its partial output is discarded and its input
                // is rescheduled for processing").
                collector.reset();
                *incoming.lock() = snapshot.clone();
                *outgoing.lock() = None;
            },
        );
        let stats = match attempt {
            Ok((stats, retried)) => {
                ctx.count(CounterId::ReduceTasksRetried, retried);
                stats
            }
            Err(e) => {
                ctx.count(CounterId::ReduceTasksRetried, e.attempts - 1);
                return Err(EngineError::TaskFailed(format!(
                    "reduce kernel for chunk {} failed after {} attempt(s)",
                    ctx.seq(),
                    e.attempts
                )));
            }
        };
        ctx.count(CounterId::ReduceLaunches, 1);
        ctx.count(CounterId::ReduceParallelKeySplits, coop_groups);
        debug_assert!(incoming.lock().is_none(), "carried state left untaken");
        self.carry = outgoing
            .into_inner()
            .map(|state| (group(n_groups - 1).key.to_vec(), state));
        debug_assert!(
            self.carry.is_none() || chunk.closes.is_none(),
            "a partition's last chunk ends its last key"
        );
        let modeled = self.cfg.timing.pick(stats.wall, stats.modeled);
        ctx.add_time(stats.wall, modeled);
        chunk.collector = Some(collector);
        Ok(Some(chunk))
    }
}

/// Output stage (sink): append the records a chunk's kernel emitted to
/// the open partition's block builder, recycling collectors, and write
/// the partition's file when its last chunk passes. A chunk that met no
/// kernel is a finished block (or an empty closing chunk): "its output is
/// fully processed by the end of the intermediate data shuffle".
struct ReduceOutput<'a> {
    phase: &'a ReducePhase<'a>,
    builder: RecordBlockBuilder,
    /// The open partition's finished blocks, of a job without a kernel.
    blocks: Vec<RecordBlock>,
    collectors_back: PoolPut<Box<dyn Collector>>,
    /// Where block arenas go back to MergeRead, in a job without a kernel.
    arenas_back: Option<PoolPut<Vec<u8>>>,
}

impl Stage<ReduceChunk, EngineError> for ReduceOutput<'_> {
    fn run_chunk(
        &mut self,
        mut chunk: ReduceChunk,
        ctx: &mut StageCtx<'_>,
    ) -> Result<Option<ReduceChunk>, EngineError> {
        let t0 = Instant::now();
        let cfg = self.phase.cfg;
        let mut records = chunk.records;
        match chunk.collector.take() {
            Some(mut collector) => {
                for_each_record(collector.as_ref(), &mut |k, v| {
                    self.builder.append(k, v);
                    records += 1;
                });
                collector.reset();
                self.collectors_back.put(collector);
            }
            None => {
                if records > 0 {
                    self.blocks
                        .push((Arc::from(chunk.arena.as_slice()), records));
                }
                if let Some(back) = &self.arenas_back {
                    chunk.arena.clear();
                    back.put(chunk.arena);
                }
            }
        }
        ctx.count(CounterId::ReduceRecordsOut, records);
        if let Some(gp) = chunk.closes {
            let path = output_path(cfg, gp);
            let builder = RecordBlockBuilder::new(cfg.output_block_size);
            let mut blocks = std::mem::take(&mut self.blocks);
            blocks.extend(std::mem::replace(&mut self.builder, builder).finish());
            let sample = self.phase.store.write_blocks(
                &path,
                self.phase.node,
                blocks,
                cfg.output_replication,
            )?;
            let wall = t0.elapsed();
            ctx.add_time(wall, cfg.timing.pick(wall, wall + sample.modeled));
        }
        Ok(None)
    }
}

/// Everything a node needs to run its reduce phase.
pub struct ReducePhase<'a> {
    /// Job configuration.
    pub cfg: &'a JobConfig,
    /// This node.
    pub node: NodeId,
    /// Cluster size.
    pub nodes: u32,
    /// The runtime the phase's tasks run on, and the physical node they
    /// are keyed under.
    pub runtime: (&'a Runtime, u32),
    /// The application.
    pub app: Arc<dyn GwApp>,
    /// The node's compute device.
    pub device: Arc<Device>,
    /// Output storage.
    pub store: Arc<dyn FileStore>,
    /// The node's intermediate store (post merge phase).
    pub intermediate: Arc<IntermediateStore>,
    /// Split/partition coordinator: the reduce phase asks it which global
    /// partitions this node owns (adopted partitions included).
    pub coordinator: Arc<Coordinator>,
    /// Job-wide event tracer: chunk spans, token waits and stage counts
    /// land on this node's pipeline lanes.
    pub tracer: Arc<Tracer>,
    /// Fault-injection context.
    pub chaos: NodeChaos,
}

impl ReducePhase<'_> {
    /// Run reduction over every global partition this node owns, as one
    /// stage graph: a job without a reduce function runs it without the
    /// Kernel slot and its Stage/Retrieve neighbours.
    pub fn run(self) -> Result<ReducePhaseReport, EngineError> {
        let start = Instant::now();
        let cfg = self.cfg;
        let reduces = self.app.has_reduce();
        let unified = self.device.unified_memory();
        // Parallel single-key reduction is available only when the app
        // declares an associative state merge (probed with empty states,
        // which the contract requires to act as identities).
        let threads_per_key =
            if cfg.reduce_threads_per_key > 1 && self.app.merge_states(&mut Vec::new(), &[]) {
                cfg.reduce_threads_per_key
            } else {
                1
            };

        // The §III-D output buffer sets: B collectors recycled through the
        // pool (the input group circulates the chunks themselves, so the
        // executor's tokens are its only currency there). None without a
        // kernel to fill them.
        let max_work_items =
            (cfg.reduce_concurrent_keys * threads_per_key).div_ceil(cfg.reduce_keys_per_thread);
        let sets = if reduces { cfg.buffering.depth() } else { 0 };
        let (collectors, collectors_back) = token_pool((0..sets).map(|_| {
            Box::new(pool_collector(cfg, max_work_items, Slots::single())) as Box<dyn Collector>
        }));
        // Without a kernel, B block arenas instead, recycled from Output
        // back to MergeRead.
        let (arenas, arenas_back) = if reduces {
            (None, None)
        } else {
            let arena = || Vec::with_capacity(cfg.output_block_size + BLOCK_SLACK);
            let (get, put) = token_pool((0..cfg.buffering.depth()).map(|_| arena()));
            (Some(get), Some(put))
        };

        let merge_read: Box<dyn LaneSource<ReduceChunk, EngineError> + '_> =
            Box::new(ReduceMergeRead {
                phase: &self,
                threads_per_key,
                arenas,
                arena: None,
                next_gp: 0,
                open: None,
            });
        let mut pipeline = PipelineBuilder::new(PipelineKind::Reduce, cfg.buffering)
            .source_lanes(StageId::Input, vec![merge_read]);
        let transfer = |to_device, bytes: fn(&ReduceChunk) -> usize| ModeledTransfer {
            device: Arc::clone(&self.device),
            timing: cfg.timing,
            to_device,
            bytes,
        };
        if reduces {
            if !unified {
                // Exactly the chunk's key and value bytes.
                pipeline = pipeline.stage(StageId::Stage, transfer(true, |c| c.arena.len()));
            }
            pipeline = pipeline.stage(
                StageId::Kernel,
                ReduceKernel {
                    device: Arc::clone(&self.device),
                    app: Arc::clone(&self.app),
                    cfg,
                    carry: None,
                    collectors,
                },
            );
            if !unified {
                let bytes = |c: &ReduceChunk| output_bytes(&c.collector);
                pipeline = pipeline.stage(StageId::Retrieve, transfer(false, bytes));
            }
            pipeline = pipeline
                .interlock(StageId::Input, StageId::Kernel)
                .interlock(StageId::Kernel, StageId::Partition);
        }
        pipeline = pipeline
            .stage(
                StageId::Partition,
                ReduceOutput {
                    phase: &self,
                    builder: RecordBlockBuilder::new(cfg.output_block_size),
                    blocks: Vec::new(),
                    collectors_back,
                    arenas_back,
                },
            )
            .tracer(Arc::clone(&self.tracer), self.node.0)
            .runtime(self.runtime.0, self.runtime.1)
            .probe(ReduceTaskProbe::new(self.chaos.clone(), self.node));
        pipeline.run()?;
        Ok(ReducePhaseReport {
            elapsed: start.elapsed(),
            ..ReducePhaseReport::default()
        })
    }
}

/// The output file of global partition `gp`.
pub(crate) fn output_path(cfg: &JobConfig, gp: u32) -> String {
    format!("{}/part-r-{gp:05}", cfg.output)
}
