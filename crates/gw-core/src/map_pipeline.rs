//! The 5-stage map pipeline (paper §III-A), as thin stage definitions on
//! the shared `gw-pipeline` executor.
//!
//! ```text
//! Input → Stage → Kernel → Retrieve → Partition
//! ```
//!
//! This module contains only the per-stage logic: what it means to read a
//! split, stage it, launch the map kernel, charge the retrieval, and
//! partition the output. Channel wiring, the §III-D buffer-token
//! interlock (input group Input→Kernel, output group Kernel→Partition),
//! crash-site probing, dead/abort checking, timers and error unwinding
//! all live in [`gw_pipeline`]; the fault plane reaches the executor
//! through [`MapPipelineProbe`]. Stage and Retrieve are slots of
//! discrete-memory graphs only: on a unified-memory device "the input
//! stager is disabled" and the graph is Input → Kernel → Partition, on 3
//! threads, not 5.
//!
//! The Kernel stage launches the user's map function as an NDRange over
//! the chunk's records — "Glasswing processes each split in parallel,
//! exploiting the abundance of cores in modern compute devices. This
//! design decision places less stress on the file system ... since the
//! pipeline reads one input split at a time."
//!
//! The Partition stage runs `N = partition_threads` lanes (Fig. 4a). The
//! kernel's collector filed every record under its partition's slot as
//! it was emitted, and lanes own whole partitions: with `P ≥ N`
//! partitions, lane `p mod N` sorts and writes partition `p`'s one run of
//! the chunk; only lanes beyond `P` split a partition, into `⌊N/P⌋` runs
//! ([`Slots`]). Each lane pushes each run to its home node (in-memory
//! cache if local, network otherwise).
//!
//! ## Fault tolerance
//!
//! Every job runs the recovery protocol; its [`NodeChaos`] plan decides
//! only what fails. The executor probes the plan's crash site for this
//! node between chunks and checks the shared dead/abort flags, so an
//! injected crash (or a death declared by the coordinator) unwinds the
//! whole pipeline between chunks — a split is either fully processed (all
//! of its runs recorded in the coordinator's ledger and delivered, then
//! `complete_split`) or not at all. Each run is tagged `(partition,
//! block, lane)`, `lane` the partitioning worker that built it: a
//! re-executed split re-produces it byte-identically (DESIGN.md §3.4), so
//! receivers de-duplicate by tag, and a run that never arrived is re-made
//! by re-running its split. The input stage therefore claims splits
//! until every live node's shuffle is settled, not merely until the map
//! is complete.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use gw_device::{Device, DeviceBuffer, KernelFn, NdRange, WorkItemCtx, WorkerPool};
use gw_intermediate::{IntermediateStore, Run, RunPool};
use gw_net::{Endpoint, RunTag, ShuffleRun};
use gw_pipeline::{
    run_task_with_retries, token_pool, LaneSource, PipelineBuilder, PipelineKind, PoolGet, PoolPut,
    Role, Runtime, Stage, StageCtx,
};
use gw_storage::split::FileStore;
use gw_storage::varint::RecRef;
use gw_storage::{InputSplit, NodeId, StorageError};
use gw_trace::{CounterId, LaneId, Realm, StageId, Tracer};

use crate::api::{Emit, GwApp, Records};
use crate::cluster::runner;
use crate::collect::{BufferPoolCollector, Collector, CollectorKind, HashTableCollector, Slots};
use crate::config::{JobConfig, TimingMode};
use crate::coordinator::{Coordinator, MapPipelineProbe, NodeChaos, Route};
use crate::EngineError;

/// The one chunk type carried through the whole graph: a block read from
/// storage, progressively annotated with its staging buffer (discrete
/// memory only) and its kernel-output collector.
struct MapChunk {
    block_idx: usize,
    block: Arc<[u8]>,
    records: Vec<RecRef>,
    buffer: Option<DeviceBuffer>,
    collector: Option<Box<dyn Collector>>,
}

/// Outcome of a node's map phase. The counts are folds of the job's
/// trace ([`crate::Cluster::run_scoped`] fills them from the counters the
/// stages emit); the phase itself measures only the last three fields.
#[derive(Debug, Clone, Copy, Default)]
pub struct MapPhaseReport {
    /// Splits processed by this node.
    pub splits: usize,
    /// Input records mapped.
    pub records_in: usize,
    /// Intermediate records produced (post-combining).
    pub records_out: usize,
    /// Of the processed splits, how many were block-local.
    pub local_splits: usize,
    /// Sorted runs pushed to remote nodes.
    pub runs_remote: usize,
    /// Sorted runs added to the local cache.
    pub runs_local: usize,
    /// Map tasks that were discarded and re-executed (paper §III-E).
    pub tasks_retried: usize,
    /// Stage lanes the executor ran, one runtime task each: 3 on unified
    /// memory, 5 on discrete-memory devices (Stage and Retrieve), plus one
    /// per extra lane of every widened slot (`JobConfig::lane_plan`).
    pub stage_threads: usize,
    /// High-water mark of in-flight chunks across the §III-D token
    /// groups; never exceeds the buffering depth.
    pub max_in_flight: usize,
    /// Wall-clock duration of the whole map phase on this node.
    pub elapsed: Duration,
}

/// A buffer-pool collector for kernels of at most `work_items` work
/// items, filing records under `slots`: one shard per work-group, so that
/// the order records drain in is a function of the NDRange, and never
/// fewer than the partition lanes, so that every sub-slot has a shard.
pub(crate) fn pool_collector(
    cfg: &JobConfig,
    work_items: usize,
    slots: Slots,
) -> BufferPoolCollector {
    let groups = work_items.div_ceil(cfg.work_group);
    BufferPoolCollector::with_slots(
        cfg.collector_capacity,
        groups.max(slots.lanes()).max(8),
        slots,
    )
}

/// Build the map kernel's collector according to the job configuration:
/// records filed under their partition of `partitions`, by the
/// application's partition function, and one of the
/// `partition_threads` lanes.
pub(crate) fn make_collector(
    cfg: &JobConfig,
    app: &Arc<dyn GwApp>,
    partitions: u32,
) -> Box<dyn Collector> {
    let slots = {
        let app = Arc::clone(app);
        Slots::new(partitions, cfg.partition_threads, move |key| {
            app.partition(key, partitions)
        })
    };
    match cfg.collector {
        CollectorKind::BufferPool => Box::new(pool_collector(cfg, cfg.map_work_items, slots)),
        CollectorKind::HashTable => Box::new(HashTableCollector::with_slots(
            cfg.hash_buckets,
            app.combiner(),
            slots,
        )),
    }
}

/// Parse a raw record block into record positions.
fn parse_block(block: &[u8]) -> Result<Vec<RecRef>, EngineError> {
    let mut records = Vec::new();
    let mut off = 0;
    while off < block.len() {
        let rec = RecRef::decode(block, off)
            .ok_or_else(|| StorageError::Corrupt("truncated or malformed record".into()))?;
        off = rec.end();
        records.push(rec);
    }
    Ok(records)
}

/// Input stage: claim a split from the coordinator and read+parse it into
/// a chunk, pulling a staging buffer from the recycling pool on
/// discrete-memory devices.
///
/// Runs as a [`LaneSource`]: the *claim* (asking the coordinator for the
/// next split, plus taking a staging buffer, so production stays
/// interlocked behind the §III-D tokens) is serialized across lanes in
/// global sequence order — chunk seq `s` always carries the `s`-th split
/// the coordinator hands out, at every lane count. The expensive
/// *produce* (reading and parsing the split) overlaps across lanes,
/// which is exactly the vertical-scaling win when split reads gate the
/// pipeline. One instance per lane; instances share the coordinator,
/// store and buffer pool.
struct MapInput {
    store: Arc<dyn FileStore>,
    coordinator: Arc<Coordinator>,
    node: NodeId,
    timing: TimingMode,
    buffers: Option<PoolGet<DeviceBuffer>>,
    /// The split (and staging buffer) claimed for this lane's next
    /// [`LaneSource::produce`].
    pending: Option<(InputSplit, Option<DeviceBuffer>)>,
}

impl LaneSource<MapChunk, EngineError> for MapInput {
    /// Stays in the claim loop until every live node's shuffle is settled:
    /// until then a split may requeue, because its node died or a run it
    /// produced was lost, and this node may be the one to re-run it.
    fn claim(&mut self, ctx: &mut StageCtx<'_>) -> Result<bool, EngineError> {
        let split = loop {
            if ctx.should_stop() {
                return Ok(false);
            }
            let seen = self.coordinator.changes();
            if let Some(split) = self.coordinator.next_for(self.node) {
                break split;
            }
            if self.coordinator.all_live_satisfied() {
                return Ok(false);
            }
            self.coordinator.wait_for_change(seen);
        };
        let buffer = match &self.buffers {
            Some(pool) => match pool.take() {
                Some(buf) => Some(buf),
                None => {
                    ctx.stop(); // pool closed: a downstream stage died
                    return Ok(false);
                }
            },
            None => None,
        };
        self.pending = Some((split, buffer));
        Ok(true)
    }

    fn produce(&mut self, ctx: &mut StageCtx<'_>) -> Result<MapChunk, EngineError> {
        let (split, buffer) = self.pending.take().expect("claim() stashed a split");
        let t0 = Instant::now();
        let (block, sample) = self.store.read_split(&split, self.node)?;
        let records = parse_block(&block)?;
        let wall = t0.elapsed();
        ctx.add_time(wall, self.timing.pick(wall, wall + sample.modeled));
        ctx.count(CounterId::MapRecordsIn, records.len());
        ctx.count(
            CounterId::MapLocalSplits,
            split.is_local_to(self.node).into(),
        );
        Ok(MapChunk {
            block_idx: split.block,
            block,
            records,
            buffer,
            collector: None,
        })
    }
}

/// Stage (H2D): copy the chunk's block into its device buffer.
/// Discrete-memory graphs only.
struct MapStageH2D {
    device: Arc<Device>,
    timing: TimingMode,
}

impl Stage<MapChunk, EngineError> for MapStageH2D {
    fn run_chunk(
        &mut self,
        mut chunk: MapChunk,
        ctx: &mut StageCtx<'_>,
    ) -> Result<Option<MapChunk>, EngineError> {
        let buf = chunk
            .buffer
            .as_mut()
            .expect("discrete-memory chunk carries a staging buffer");
        let t0 = Instant::now();
        let stats = self.device.stage(&chunk.block, buf)?;
        let wall = t0.elapsed();
        ctx.add_time(wall, self.timing.pick(wall, stats.modeled));
        Ok(Some(chunk))
    }
}

/// Kernel stage: launch the user's map function over the chunk's records
/// into a pooled collector, with §III-E task re-execution. Recycles the
/// chunk's staging buffer once the launch is done with it.
struct MapKernel<'a> {
    device: Arc<Device>,
    app: Arc<dyn GwApp>,
    cfg: &'a JobConfig,
    coordinator: Arc<Coordinator>,
    node: NodeId,
    collectors: PoolGet<Box<dyn Collector>>,
    buffers_back: Option<PoolPut<DeviceBuffer>>,
}

impl Stage<MapChunk, EngineError> for MapKernel<'_> {
    fn run_chunk(
        &mut self,
        mut chunk: MapChunk,
        ctx: &mut StageCtx<'_>,
    ) -> Result<Option<MapChunk>, EngineError> {
        let Some(mut collector) = self.collectors.take() else {
            ctx.stop(); // pool closed: the partition stage died
            return Ok(None);
        };
        if self.coordinator.is_superseded(self.node, chunk.block_idx) {
            // Another attempt already completed this split (it was queued
            // here when a speculation race resolved): skip the launch. The
            // empty collector yields no runs downstream and the stale
            // `complete_split` is a no-op, so the skip cannot change
            // output bytes — it only saves the wasted kernel time.
            ctx.count(CounterId::SpecSuperseded, 1);
            if let (Some(buf), Some(put)) = (chunk.buffer.take(), &self.buffers_back) {
                put.put(buf);
            }
            chunk.collector = Some(collector);
            return Ok(Some(chunk));
        }
        let n_records = chunk.records.len();
        let bytes: &[u8] = match &chunk.buffer {
            Some(buf) => buf.bytes(),
            None => &chunk.block,
        };
        let work_items = self.cfg.map_work_items.min(n_records.max(1));
        let range = NdRange::new(work_items, self.cfg.work_group.min(work_items))
            .map_err(EngineError::Device)?;
        let (block, records) = (&chunk.block, &chunk.records);
        let app = &self.app;
        let device = &self.device;
        // Task execution with §III-E re-execution: a failed task's partial
        // output is discarded (collector reset, which also releases its
        // binding to the block) and the chunk re-executed. Each attempt
        // binds the collector to the block the kernel reads `bytes` from,
        // so output that is input can stay a span of it.
        let attempt = run_task_with_retries(
            self.cfg.max_task_retries,
            &mut collector,
            |collector| {
                collector.bind(block, bytes);
                let emit_target: &dyn Collector = collector.as_ref();
                let kernel = KernelFn(move |wctx: &WorkItemCtx| {
                    let (lo, hi) = wctx.my_items(n_records);
                    let mine = Records::new(bytes, &records[lo..hi]);
                    emit_target.work_item(&mut |sink| app.map_records(&mine, &Emit::to_sink(sink)));
                });
                device.launch(range, &kernel)
            },
            |collector| collector.reset(),
        );
        let stats = match attempt {
            Ok((stats, retried)) => {
                ctx.count(CounterId::MapTasksRetried, retried);
                stats
            }
            Err(e) => {
                ctx.count(CounterId::MapTasksRetried, e.attempts - 1);
                return Err(EngineError::TaskFailed(format!(
                    "map task for chunk {} failed after {} attempt(s)",
                    ctx.seq(),
                    e.attempts
                )));
            }
        };
        let modeled = self.cfg.timing.pick(stats.wall, stats.modeled);
        ctx.add_time(stats.wall, modeled);
        // Kernel is done with the input buffer: recycle it.
        if let (Some(buf), Some(put)) = (chunk.buffer.take(), &self.buffers_back) {
            put.put(buf);
        }
        chunk.collector = Some(collector);
        Ok(Some(chunk))
    }
}

/// A transfer stage with no host work of its own — kernel input and
/// output already live in host memory, since we execute on host threads:
/// it charges the device profile's modeled PCIe time for the bytes of the
/// chunk that would cross the link, at zero wall. The map pipeline's
/// Retrieve and the reduce pipeline's Stage and Retrieve are all this
/// stage, on discrete-memory graphs only.
pub(crate) struct ModeledTransfer<C> {
    pub(crate) device: Arc<Device>,
    pub(crate) timing: TimingMode,
    /// Host→device (`true`) or device→host.
    pub(crate) to_device: bool,
    /// The bytes of a chunk that cross the link.
    pub(crate) bytes: fn(&C) -> usize,
}

impl<C: Send> Stage<C, EngineError> for ModeledTransfer<C> {
    fn run_chunk(&mut self, chunk: C, ctx: &mut StageCtx<'_>) -> Result<Option<C>, EngineError> {
        let bytes = (self.bytes)(&chunk);
        let transfer = self.device.profile().transfer_time(bytes, self.to_device);
        ctx.add_time(Duration::ZERO, self.timing.pick(Duration::ZERO, transfer));
        Ok(Some(chunk))
    }
}

/// Bytes the kernel left in a chunk's output collector — what a Retrieve
/// stage moves; none for a chunk the kernel had nothing to launch on.
pub(crate) fn output_bytes(collector: &Option<Box<dyn Collector>>) -> usize {
    collector.as_ref().map_or(0, |c| c.bytes())
}

/// Partition stage (sink): on `N` lanes, each building the run of each
/// collector slot it owns, and pushing each run to its home node.
/// Recycles the collector when done.
struct MapPartition<'a> {
    endpoint: Arc<Endpoint<ShuffleRun>>,
    intermediate: Arc<IntermediateStore>,
    coordinator: Arc<Coordinator>,
    cfg: &'a JobConfig,
    node: NodeId,
    pool: &'a WorkerPool,
    run_pool: Arc<RunPool>,
    collectors_back: PoolPut<Box<dyn Collector>>,
}

/// What a chunk's partitioning workers delivered, tallied across them:
/// records, runs kept and runs shipped.
type Delivered = [AtomicUsize; 3];

impl MapPartition<'_> {
    /// Tally one finished run and hand it to the partition's current
    /// owner: the local store, or the owner's node over the network. The
    /// run is first entered in the ledger under `tag`, so a receiver can
    /// never lack a run the ledger does not know about; it is then
    /// admitted at most once locally, or pushed into the owner's inbox
    /// before this returns.
    fn deliver_run(&self, tag: RunTag, run: Run, [records, kept, shipped]: &Delivered) {
        records.fetch_add(run.records(), Ordering::Relaxed);
        match self.coordinator.route_run(self.node, tag) {
            Route::Keep => {
                kept.fetch_add(1, Ordering::Relaxed);
                self.intermediate.add_run(tag.partition, run);
            }
            Route::Discard => {}
            Route::Ship(owner) => {
                shipped.fetch_add(1, Ordering::Relaxed);
                // Zero-copy ship: `into_shared` is a refcount bump, and the
                // message frames the run's shared arena slice as-is.
                let msg = ShuffleRun {
                    tag,
                    records: run.records(),
                    bytes: run.into_shared(),
                };
                let wire = msg.wire_bytes();
                self.endpoint.send_data(owner, msg, wire);
            }
        }
    }
}

impl Stage<MapChunk, EngineError> for MapPartition<'_> {
    fn run_chunk(
        &mut self,
        mut chunk: MapChunk,
        ctx: &mut StageCtx<'_>,
    ) -> Result<Option<MapChunk>, EngineError> {
        let n_lanes = self.cfg.partition_threads;
        let block = chunk.block_idx as u32;
        let mut collector = chunk.collector.take().expect("kernel output collector");
        let delivered = Delivered::default();
        // Scope the kernel so its borrow of the collector ends before the
        // collector is reset and recycled.
        {
            let (this, delivered) = (&*self, &delivered);
            let collector: &dyn Collector = collector.as_ref();
            let kernel = KernelFn(move |ctx: &WorkItemCtx| {
                let lane = ctx.global_id();
                // Sort space from the recycling pool: its buffers carry
                // capacity from previous chunks.
                let mut buf = this.run_pool.sort_buf();
                collector.lane_runs(lane, &mut buf, &mut |partition, run| {
                    let tag = RunTag {
                        partition,
                        block,
                        lane: lane as u32,
                    };
                    this.deliver_run(tag, run, delivered);
                });
            });
            self.pool.run(
                NdRange::new(n_lanes, 1).map_err(EngineError::Device)?,
                &kernel,
            );
        }
        let [records, kept, shipped] = delivered.map(AtomicUsize::into_inner);
        ctx.count(CounterId::MapRecordsOut, records);
        ctx.count(CounterId::MapRunsLocal, kept);
        ctx.count(CounterId::MapRunsRemote, shipped);
        collector.reset();
        self.collectors_back.put(collector);
        // The split is now fully processed: every run is in the ledger and
        // in its owner's store or inbox.
        self.coordinator.complete_split(self.node, chunk.block_idx);
        Ok(None)
    }
}

/// Everything a node needs to run its map phase.
pub struct MapPhase<'a> {
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
    /// Job input storage.
    pub store: Arc<dyn FileStore>,
    /// Split coordinator (shared with all nodes).
    pub coordinator: Arc<Coordinator>,
    /// The node's intermediate store.
    pub intermediate: Arc<IntermediateStore>,
    /// The node's network endpoint (shared with its shuffle receiver).
    pub endpoint: Arc<Endpoint<ShuffleRun>>,
    /// Job-wide event tracer: chunk spans, token waits and stage counts
    /// land on this node's pipeline lanes.
    pub tracer: Arc<Tracer>,
    /// Fault-injection and recovery handle.
    pub chaos: NodeChaos,
}

impl MapPhase<'_> {
    /// Run the map phase to completion: until every live node's shuffle
    /// is settled ([`Coordinator::all_live_satisfied`]).
    ///
    /// An injected (or declared) node death unwinds the pipeline and
    /// returns [`EngineError::NodeLost`].
    pub fn run(self) -> Result<MapPhaseReport, EngineError> {
        let start = Instant::now();
        let b = self.cfg.buffering.depth();
        let unified = self.device.unified_memory();
        let total_partitions = self.cfg.partitions_per_node * self.nodes;

        // Partitioning worker pool: N lanes (orchestrator participates).
        let (runtime, host) = self.runtime;
        let partition_pool = WorkerPool::with_runner(
            self.cfg.partition_threads.saturating_sub(1),
            &runner(runtime, host, Role::Partition),
        );

        // Sort-space recycling: each partition lane's refs and scatter
        // space cycle through this pool so steady-state partitioning does
        // no per-record allocation (the first chunk's lanes warm it up).
        let run_pool = Arc::new(RunPool::new());

        // The §III-D buffer sets: B device staging buffers (discrete
        // memory only) and B output collectors, recycled through pools
        // sized to the executor's token-group depth.
        let (buffers, buffers_back) = if unified {
            (None, None)
        } else {
            let sets = self
                .device
                .alloc_pool(b, self.cfg.output_block_size.max(1 << 20))?;
            let (get, put) = token_pool(sets);
            (Some(get), Some(put))
        };
        let (collectors, collectors_back) =
            token_pool((0..b).map(|_| make_collector(self.cfg, &self.app, total_partitions)));

        // Widened stage slots (DESIGN.md §3.9): one stage instance per
        // lane. Instances share pools and the coordinator; the executor
        // gives each its own trace sub-lane, which carries its counts, so
        // the single-writer invariant holds per executor thread.
        let plan = self.cfg.lane_plan;
        let input_lanes: Vec<Box<dyn LaneSource<MapChunk, EngineError> + '_>> = (0..plan.input)
            .map(|_| {
                Box::new(MapInput {
                    store: Arc::clone(&self.store),
                    coordinator: Arc::clone(&self.coordinator),
                    node: self.node,
                    timing: self.cfg.timing,
                    buffers: buffers.clone(),
                    pending: None,
                }) as Box<dyn LaneSource<MapChunk, EngineError> + '_>
            })
            .collect();
        let kernel_lanes: Vec<Box<dyn Stage<MapChunk, EngineError> + '_>> = (0..plan.kernel)
            .map(|_| {
                Box::new(MapKernel {
                    device: Arc::clone(&self.device),
                    app: Arc::clone(&self.app),
                    cfg: self.cfg,
                    coordinator: Arc::clone(&self.coordinator),
                    node: self.node,
                    collectors: collectors.clone(),
                    buffers_back: buffers_back.clone(),
                }) as Box<dyn Stage<MapChunk, EngineError> + '_>
            })
            .collect();
        let partition_lanes: Vec<Box<dyn Stage<MapChunk, EngineError> + '_>> = (0..plan.partition)
            .map(|_| {
                Box::new(MapPartition {
                    endpoint: Arc::clone(&self.endpoint),
                    intermediate: Arc::clone(&self.intermediate),
                    coordinator: Arc::clone(&self.coordinator),
                    cfg: self.cfg,
                    node: self.node,
                    pool: &partition_pool,
                    run_pool: Arc::clone(&run_pool),
                    collectors_back: collectors_back.clone(),
                }) as Box<dyn Stage<MapChunk, EngineError> + '_>
            })
            .collect();
        // The lane instances hold the only live pool handles from here on:
        // a pool must close the moment its last holder dies, so a stage
        // blocked in `take()` wakes up and unwinds when its peer stage is
        // gone. Keeping the originals alive would mask that signal.
        drop(buffers);
        drop(buffers_back);
        drop(collectors);
        drop(collectors_back);

        let mut pipeline = PipelineBuilder::new(PipelineKind::Map, self.cfg.buffering)
            .source_lanes(StageId::Input, input_lanes);
        if !unified {
            pipeline = pipeline.stage(
                StageId::Stage,
                MapStageH2D {
                    device: Arc::clone(&self.device),
                    timing: self.cfg.timing,
                },
            );
        }
        pipeline = pipeline.stage_lanes(StageId::Kernel, kernel_lanes);
        if !unified {
            pipeline = pipeline.stage(
                StageId::Retrieve,
                ModeledTransfer {
                    device: Arc::clone(&self.device),
                    timing: self.cfg.timing,
                    to_device: false,
                    bytes: |c: &MapChunk| output_bytes(&c.collector),
                },
            );
        }
        pipeline = pipeline
            .stage_lanes(StageId::Partition, partition_lanes)
            .interlock(StageId::Input, StageId::Kernel)
            .interlock(StageId::Kernel, StageId::Partition)
            .tracer(Arc::clone(&self.tracer), self.node.0)
            .runtime(runtime, host)
            .probe(MapPipelineProbe {
                chaos: self.chaos.clone(),
                coordinator: Arc::clone(&self.coordinator),
                node: self.node,
                unified_memory: unified,
            });
        // A panicking stage fails the phase like an error does (the
        // executor has already killed the node), so the node still joins
        // its receiver and fails the job with a typed error.
        let stats = catch_unwind(AssertUnwindSafe(|| pipeline.run())).unwrap_or_else(|_| {
            Err(EngineError::TaskFailed(format!(
                "a map stage panicked on node {}",
                self.node
            )))
        });

        // Arena-reuse pressure for the advisor, as aggregate counters on
        // the job lane: per-acquire events would be interleaving-sensitive,
        // but the totals are a function of `(seed, JobConfig)` alone with
        // one partition lane (it takes and returns its sort space on one
        // thread in chunk order, at every buffering level).
        let job_lane = self.tracer.lane(LaneId {
            job: 0,
            node: self.node.0,
            realm: Realm::Job,
        });
        let acquired = run_pool.acquired() as u64;
        let reused = run_pool.reused() as u64;
        job_lane.count(CounterId::RunPoolHit, reused);
        job_lane.count(CounterId::RunPoolMiss, acquired.saturating_sub(reused));

        let stats = stats?;
        if self.chaos.is_dead() {
            return Err(EngineError::NodeLost(format!(
                "node {} crashed during its map phase",
                self.node
            )));
        }

        Ok(MapPhaseReport {
            stage_threads: stats.stage_threads,
            max_in_flight: stats.max_in_flight,
            elapsed: start.elapsed(),
            ..MapPhaseReport::default()
        })
    }
}
