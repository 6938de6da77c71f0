//! The adapter: every call into the repo's crates lives in this file.
//! Workloads, runner, replay, spans and report code never import
//! `glasswing::*` or `gw_*`, so an engine API change is fixed here only.
//!
//! Two surfaces: [`Engine`] drives whole jobs through `Cluster::run`
//! (the end-to-end numbers), and [`Replay`] exposes one unit of work
//! per layer on the same workload's records (the standalone ceilings).
//! Timing and repetition policy belong to the callers.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Duration;

use glasswing::apps::workloads::{self as gen, CorpusSpec, KmeansSpec, Records};
use glasswing::apps::{codec, reference, terasort, KMeans, TeraSort, WordCount};
use glasswing::core::collect::{
    for_each_record, BufferPoolCollector, Collector, HashTableCollector,
};
use glasswing::core::{
    Buffering, Cluster, CollectorKind, CounterId, Emit, GwApp, JobConfig, JobReport,
    MetricsSummary, PerfAnalysis, PipelineKind, StageId,
};
use glasswing::device::{Device, KernelFn, NdRange, WorkItemCtx};
use glasswing::intermediate::{
    compress, merge_runs, CursorMerge, IntermediateConfig, IntermediateStore, Run, RunBuilder,
    RunPool,
};
use glasswing::net::{Fabric, NetProfile};
use glasswing::storage::split::{FileStore, FileStoreExt};
use glasswing::storage::{Dfs, DfsConfig, IoModel, NodeId, SeqReader};
use gw_pipeline::{PipelineBuilder, Source, Stage, StageCtx};

use crate::floor;
use crate::report::Metric;
use crate::workloads::{App, Net, Workload, SPILL_BUDGET};

const INPUT: &str = "/bench/in";
const OUTPUT: &str = "/bench/out";

/// Blocks of the input the map-side replays run over (12 MB at 256 KiB
/// blocks): enough chunks for steady state, few enough to stay quick.
const SAMPLE_BLOCKS: usize = 48;

// ---------------------------------------------------------------------------
// Inputs and the reference answer
// ---------------------------------------------------------------------------

/// Generated input records. Only the generator holds these; the engine
/// sees them through the store.
pub struct Input {
    records: Records,
}

/// Generate the workload's input from `seed`.
pub fn generate(w: &Workload, seed: u64) -> Input {
    let records = match w.app {
        App::WordCount {
            lines,
            words_per_line,
            vocabulary,
            zipf_s,
        } => gen::text_corpus(&CorpusSpec {
            lines,
            words_per_line,
            vocabulary,
            zipf_s,
            seed,
        }),
        App::TeraSort { records, .. } => gen::teragen(records, seed),
        App::KMeans { .. } => gen::kmeans_points(&kmeans_spec(w, seed)),
    };
    Input { records }
}

fn kmeans_spec(w: &Workload, seed: u64) -> KmeansSpec {
    match w.app {
        App::KMeans {
            points,
            dims,
            centers,
        } => KmeansSpec {
            points,
            dims,
            centers,
            seed,
        },
        _ => unreachable!("not a K-Means workload"),
    }
}

fn kmeans_app(w: &Workload, seed: u64) -> KMeans {
    let spec = kmeans_spec(w, seed);
    KMeans::new(gen::kmeans_centers(&spec), spec.centers, spec.dims)
}

fn total_partitions(w: &Workload) -> u32 {
    w.partitions_per_node * w.nodes
}

fn build_app(w: &Workload, input: &Input, seed: u64) -> Arc<dyn GwApp> {
    match w.app {
        App::WordCount { .. } => Arc::new(WordCount::new()),
        App::TeraSort { samples, .. } => Arc::new(TeraSort::new(
            gen::sample_keys(&input.records, samples, seed),
            total_partitions(w),
        )),
        App::KMeans { .. } => Arc::new(kmeans_app(w, seed)),
    }
}

/// The workload's hand-written floor (`floor.rs`) with a small seeded
/// sample of the workload's kind of records: the speed probe run beside
/// every timed section.
pub struct Floor {
    app: App,
    sample: Records,
    /// K-Means only: the initial centers and their dimensionality.
    centers: Vec<f32>,
    dims: usize,
}

impl Floor {
    pub fn new(w: &Workload, seed: u64) -> Floor {
        let app = w.app.with_records(w.floor_sample);
        let (centers, dims) = match w.app {
            App::KMeans { dims, .. } => (gen::kmeans_centers(&kmeans_spec(w, seed)), dims),
            _ => (Vec::new(), 0),
        };
        Floor {
            app,
            sample: generate(&Workload { app, ..*w }, seed).records,
            centers,
            dims,
        }
    }

    /// Run the floor once over the sample.
    pub fn probe(&self) {
        self.over(&self.sample);
    }

    fn over(&self, records: &Records) {
        match self.app {
            App::WordCount { .. } => {
                black_box(floor::wordcount(records));
            }
            App::TeraSort { .. } => {
                black_box(floor::terasort(records));
            }
            App::KMeans { .. } => {
                black_box(floor::kmeans(records, &self.centers, self.dims));
            }
        }
    }
}

/// What a correct job must output, computed by the single-purpose
/// implementations in `gw_apps::reference` straight from the records.
pub enum Expected {
    WordCount(Vec<(Vec<u8>, u64)>),
    /// TeraValidate summary of the input: the output must be the same
    /// multiset, totally ordered.
    TeraSort {
        records: usize,
        checksum: u64,
    },
    KMeans(Vec<(u32, Vec<f32>)>),
}

/// Derive the expected answer from the input records.
pub fn expected(w: &Workload, input: &Input, seed: u64) -> Expected {
    match w.app {
        App::WordCount { .. } => Expected::WordCount(reference::wordcount(&input.records)),
        App::TeraSort { .. } => {
            let records = input.records.iter();
            let v = terasort::validate(records.map(|(k, v)| (k.as_slice(), v.as_slice())));
            Expected::TeraSort {
                records: v.records,
                checksum: v.checksum,
            }
        }
        App::KMeans { .. } => Expected::KMeans(reference::kmeans_iteration(
            &input.records,
            &kmeans_app(w, seed),
        )),
    }
}

// ---------------------------------------------------------------------------
// Whole jobs through the engine
// ---------------------------------------------------------------------------

fn dfs_config(w: &Workload) -> DfsConfig {
    let cfg = DfsConfig::new(w.nodes);
    match w.paced_io {
        None => cfg.free_io(),
        Some(p) => cfg.paced_io(IoModel {
            per_call_overhead: Duration::from_micros(p.per_call_overhead_us),
            local_bandwidth: p.local_bandwidth,
            remote_bandwidth: p.remote_bandwidth,
            copy_amplification: 1.0,
        }),
    }
}

fn load_input(w: &Workload, input: &Input, dfs: &Dfs) -> usize {
    dfs.write_records(
        INPUT,
        NodeId(0),
        w.block_size,
        3,
        input
            .records
            .iter()
            .map(|(k, v)| (k.as_slice(), v.as_slice())),
    )
    .expect("load input");
    dfs.file_len(INPUT).expect("input length")
}

fn job_config(w: &Workload) -> JobConfig {
    let mut cfg = JobConfig::new(INPUT, OUTPUT);
    cfg.output_replication = 1;
    cfg.device_threads = w.device_threads;
    cfg.partitions_per_node = w.partitions_per_node;
    cfg.memory_budget = w.memory_budget;
    if let Some(buckets) = w.hash_buckets {
        cfg.hash_buckets = buckets;
    }
    cfg
}

/// A loaded store, a cluster over it, and the job to submit.
pub struct Engine {
    dfs: Arc<Dfs>,
    cluster: Cluster,
    app: Arc<dyn GwApp>,
    cfg: JobConfig,
    input_bytes: usize,
}

/// One finished job. The report stays private to this file.
pub struct Job {
    report: JobReport,
}

impl Engine {
    /// Load the input into a fresh store and build the cluster.
    pub fn load(w: &Workload, input: &Input, seed: u64) -> Engine {
        let dfs = Arc::new(Dfs::new(dfs_config(w)));
        let input_bytes = load_input(w, input, &dfs);
        let net = match w.net {
            Net::Unlimited => NetProfile::unlimited(),
            Net::IpoibQdr => NetProfile::ipoib_qdr(),
        };
        Engine {
            cluster: Cluster::new(Arc::clone(&dfs) as Arc<dyn FileStore>, net),
            dfs,
            app: build_app(w, input, seed),
            cfg: job_config(w),
            input_bytes,
        }
    }

    pub fn input_mb(&self) -> f64 {
        self.input_bytes as f64 / 1e6
    }

    /// Submit the job and wait for its report.
    pub fn run_job(&self) -> Result<Job, String> {
        self.cluster
            .run(Arc::clone(&self.app), &self.cfg)
            .map(|report| Job { report })
            .map_err(|e| e.to_string())
    }

    /// Delete whatever the last job wrote (`Cluster::run` refuses to
    /// overwrite), including partial output of a failed job.
    pub fn clear_output(&self) {
        for path in self.dfs.list() {
            if path.starts_with(OUTPUT) {
                self.dfs.delete(&path);
            }
        }
    }

    /// Check the job's output against the reference answer.
    pub fn verify(&self, job: &Job, expected: &Expected) -> Result<(), String> {
        let mut blocks = Vec::new();
        for path in job.report.output_files() {
            for split in self.dfs.splits(&path).map_err(|e| e.to_string())? {
                let (bytes, _) = self
                    .dfs
                    .read_split(&split, NodeId(0))
                    .map_err(|e| e.to_string())?;
                blocks.push(bytes);
            }
        }
        let mut output: Vec<(&[u8], &[u8])> = Vec::new();
        for block in &blocks {
            let mut reader = SeqReader::open_raw(block);
            while let Some(rec) = reader.next().map_err(|e| e.to_string())? {
                output.push(rec);
            }
        }
        if output.len() != job.report.records_out() {
            return Err(format!(
                "report says {} output records, files hold {}",
                job.report.records_out(),
                output.len()
            ));
        }
        match expected {
            Expected::WordCount(want) => {
                let mut got: Vec<(&[u8], u64)> = output
                    .iter()
                    .map(|(k, v)| (*k, codec::dec_u64(v)))
                    .collect();
                got.sort_unstable();
                let same = got.len() == want.len()
                    && got.iter().zip(want).all(|(g, w)| g.0 == w.0 && g.1 == w.1);
                same.then_some(())
                    .ok_or_else(|| "word counts differ from the reference".to_string())
            }
            Expected::TeraSort { records, checksum } => {
                let v = terasort::validate(output.iter().copied());
                if !v.ordered {
                    Err("output is not totally ordered".into())
                } else if v.records != *records || v.checksum != *checksum {
                    Err(format!(
                        "output multiset differs: {} records (want {records}), checksum {:x} (want {checksum:x})",
                        v.records, v.checksum
                    ))
                } else {
                    Ok(())
                }
            }
            Expected::KMeans(want) => {
                if output.len() != want.len() {
                    return Err(format!(
                        "{} centers written, reference has {}",
                        output.len(),
                        want.len()
                    ));
                }
                for (k, v) in &output {
                    let c = codec::dec_key_u32(k);
                    let (_, center) = want
                        .iter()
                        .find(|(wc, _)| *wc == c)
                        .ok_or_else(|| format!("unexpected center {c}"))?;
                    // f32 summation order differs between the combiner
                    // tree and the sequential reference.
                    for (g, w) in codec::get_f32s(v).iter().zip(center) {
                        if (g - w).abs() >= 0.01 + w.abs() * 1e-4 {
                            return Err(format!("center {c}: {g} vs reference {w}"));
                        }
                    }
                }
                Ok(())
            }
        }
    }
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

impl Job {
    /// Per-layer numbers the job's own report already carries: realised
    /// phase and stage times, and the counts at each layer boundary.
    pub fn layer_metrics(&self) -> Vec<Metric> {
        let r = &self.report;
        let map = r.map_timers_total();
        let reduce = r.reduce_timers_total();
        let max_over_nodes = |f: &dyn Fn(&glasswing::core::NodeReport) -> Duration| {
            secs(r.nodes.iter().map(f).max().unwrap_or_default())
        };
        let sum = |f: &dyn Fn(&glasswing::core::NodeReport) -> usize| -> f64 {
            r.nodes.iter().map(f).sum::<usize>() as f64
        };
        let efficiencies: Vec<f64> = r
            .nodes
            .iter()
            .filter_map(|n| r.analysis.pipeline(n.node.0, PipelineKind::Map))
            .map(|p| p.efficiency())
            .collect();
        let pool_hit = r.metrics.counter_total(CounterId::RunPoolHit) as f64;
        let pool_miss = r.metrics.counter_total(CounterId::RunPoolMiss) as f64;
        let splits = sum(&|n| n.map.splits);
        let a = &r.analysis.anomalies;
        let rows = [
            ("job.map_phase_s", max_over_nodes(&|n| n.map.elapsed), "s"),
            ("job.merge_delay_s", secs(r.merge_delay()), "s"),
            (
                "job.reduce_phase_s",
                max_over_nodes(&|n| n.reduce.elapsed),
                "s",
            ),
            ("job.map.input_busy_s", secs(map.wall(StageId::Input)), "s"),
            (
                "job.map.kernel_busy_s",
                secs(map.wall(StageId::Kernel)),
                "s",
            ),
            (
                "job.map.partition_busy_s",
                secs(map.wall(StageId::Partition)),
                "s",
            ),
            (
                "job.reduce.merge_read_busy_s",
                secs(reduce.wall(StageId::Input)),
                "s",
            ),
            (
                "job.reduce.kernel_busy_s",
                secs(reduce.wall(StageId::Kernel)),
                "s",
            ),
            (
                "job.reduce.output_busy_s",
                secs(reduce.wall(StageId::Partition)),
                "s",
            ),
            (
                "job.map.efficiency",
                efficiencies.iter().sum::<f64>() / efficiencies.len().max(1) as f64,
                "ratio",
            ),
            ("job.token_wait_s", secs(r.metrics.token_wait_total()), "s"),
            (
                "job.critical.idle_s",
                r.analysis.critical_path.idle_ns as f64 / 1e9,
                "s",
            ),
            ("job.records_in", r.records_mapped() as f64, "count"),
            (
                "job.intermediate_records",
                sum(&|n| n.map.records_out),
                "count",
            ),
            ("job.records_out", r.records_out() as f64, "count"),
            (
                "job.splits_local_share",
                sum(&|n| n.map.local_splits) / splits.max(1.0),
                "share",
            ),
            (
                "job.shuffle_mb",
                r.metrics.counter_total(CounterId::ShuffleSendBytes) as f64 / 1e6,
                "MB",
            ),
            ("job.runs_remote", sum(&|n| n.map.runs_remote), "count"),
            (
                "job.spilled_raw_mb",
                sum(&|n| n.intermediate.spilled_raw) / 1e6,
                "MB",
            ),
            (
                "job.spilled_disk_mb",
                sum(&|n| n.intermediate.spilled_disk) / 1e6,
                "MB",
            ),
            (
                "job.compactions",
                sum(&|n| n.intermediate.compactions),
                "count",
            ),
            (
                "job.frames_written",
                sum(&|n| n.intermediate.frames_written),
                "count",
            ),
            (
                "job.frames_read",
                sum(&|n| n.intermediate.frames_read),
                "count",
            ),
            (
                "job.peak_resident_mb",
                r.nodes
                    .iter()
                    .map(|n| n.intermediate.peak_resident_bytes)
                    .max()
                    .unwrap_or(0) as f64
                    / 1e6,
                "MB",
            ),
            (
                "job.run_pool_hit_share",
                pool_hit / (pool_hit + pool_miss).max(1.0),
                "share",
            ),
            (
                "job.anomalies",
                (a.unclosed_spans + a.unaccounted_chunks + a.orphan_ends) as f64,
                "count",
            ),
        ];
        rows.into_iter()
            .map(|(name, value, unit)| Metric::new(name, value, unit))
            .collect()
    }

    /// Re-derive the trace analysis the engine computes inside every
    /// `Cluster::run` (the `trace.analysis_ms` cost).
    pub fn reanalyze(&self) {
        black_box(PerfAnalysis::from_trace(&self.report.trace));
        black_box(MetricsSummary::from_trace(&self.report.trace));
    }
}

// ---------------------------------------------------------------------------
// Layer replay: one unit of work per call
// ---------------------------------------------------------------------------

/// One input block with its record offsets, as the map kernel sees it.
struct Block {
    bytes: Arc<[u8]>,
    /// `(key offset, key len, value offset, value len)` per record.
    recs: Vec<[u32; 4]>,
}

impl Block {
    fn parse(bytes: Arc<[u8]>) -> Block {
        let base = bytes.as_ptr() as usize;
        let mut recs = Vec::new();
        let mut reader = SeqReader::open_raw(&bytes);
        while let Some((k, v)) = reader.next().expect("well-formed input block") {
            recs.push([
                (k.as_ptr() as usize - base) as u32,
                k.len() as u32,
                (v.as_ptr() as usize - base) as u32,
                v.len() as u32,
            ]);
        }
        Block { bytes, recs }
    }

    fn record(&self, r: &[u32; 4]) -> (&[u8], &[u8]) {
        let (ko, kl, vo, vl) = (r[0] as usize, r[1] as usize, r[2] as usize, r[3] as usize);
        (&self.bytes[ko..ko + kl], &self.bytes[vo..vo + vl])
    }
}

/// Everything the per-layer replays need, prepared once outside any
/// clock: the workload's records, a sample of its input blocks, the
/// collectors those blocks fill, and the sorted runs they produce.
pub struct Replay<'a> {
    w: &'a Workload,
    input: &'a Input,
    seed: u64,
    app: Arc<dyn GwApp>,
    floor: Floor,
    cfg: JobConfig,
    /// The loaded input, in the workload's own store configuration.
    dfs: Dfs,
    blocks: Vec<Block>,
    /// One filled collector per sample block (the kernel's output).
    filled: Vec<Box<dyn Collector>>,
    /// One sorted run per sample block (the partition stage's output).
    chunk_runs: Vec<Run>,
    /// The same intermediate records striped over eight sorted runs.
    merge_input: Vec<Run>,
    /// One merged run's bytes, for the codec.
    codec_raw: Vec<u8>,
    codec_packed: Vec<u8>,
}

fn make_collector(cfg: &JobConfig, app: &Arc<dyn GwApp>) -> Box<dyn Collector> {
    match cfg.collector {
        CollectorKind::BufferPool => Box::new(BufferPoolCollector::new(
            cfg.collector_capacity,
            cfg.partition_threads.max(8),
        )),
        CollectorKind::HashTable => {
            Box::new(HashTableCollector::new(cfg.hash_buckets, app.combiner()))
        }
    }
}

fn map_block(app: &dyn GwApp, block: &Block, recs: &[[u32; 4]], collector: &dyn Collector) {
    let emit = Emit::new(collector);
    for r in recs {
        let (k, v) = block.record(r);
        app.map(k, v, &emit);
    }
}

impl<'a> Replay<'a> {
    pub fn prepare(w: &'a Workload, input: &'a Input, seed: u64) -> Replay<'a> {
        let app = build_app(w, input, seed);
        let cfg = job_config(w);
        let dfs = Dfs::new(dfs_config(w));
        load_input(w, input, &dfs);
        let blocks: Vec<Block> = dfs
            .splits(INPUT)
            .expect("input splits")
            .iter()
            .take(SAMPLE_BLOCKS)
            .map(|s| Block::parse(dfs.read_split(s, NodeId(0)).expect("read split").0))
            .collect();
        let filled: Vec<Box<dyn Collector>> = blocks
            .iter()
            .map(|b| {
                let c = make_collector(&cfg, &app);
                map_block(app.as_ref(), b, &b.recs, c.as_ref());
                c
            })
            .collect();
        let chunk_runs: Vec<Run> = filled
            .iter()
            .map(|c| {
                let mut b = RunBuilder::new();
                for_each_record(c.as_ref(), &mut |k, v| b.push(k, v));
                b.build()
            })
            .collect();
        let mut stripes: Vec<RunBuilder> = (0..8).map(|_| RunBuilder::new()).collect();
        let mut i = 0usize;
        for c in &filled {
            for_each_record(c.as_ref(), &mut |k, v| {
                stripes[i % 8].push(k, v);
                i += 1;
            });
        }
        let merge_input: Vec<Run> = stripes.into_iter().map(RunBuilder::build).collect();
        let codec_raw = merge_runs(&chunk_runs[..chunk_runs.len().min(8)])
            .bytes()
            .to_vec();
        let codec_packed = compress::compress(&codec_raw);
        Replay {
            w,
            input,
            seed,
            app,
            floor: Floor::new(w, seed),
            cfg,
            dfs,
            blocks,
            filled,
            chunk_runs,
            merge_input,
            codec_raw,
            codec_packed,
        }
    }

    fn sample_records(&self) -> usize {
        self.blocks.iter().map(|b| b.recs.len()).sum()
    }

    // --- gw-storage ---

    /// `write_records` of the whole input into a fresh store. Returns bytes.
    pub fn storage_write(&self) -> usize {
        let fresh = Dfs::new(DfsConfig::new(self.w.nodes).free_io());
        load_input(self.w, self.input, &fresh)
    }

    /// `splits` + `read_split` of the whole input under the workload's
    /// I/O model (paced reads sleep). Returns bytes.
    pub fn storage_read(&self) -> usize {
        let mut bytes = 0;
        for split in self.dfs.splits(INPUT).expect("input splits") {
            bytes += black_box(self.dfs.read_split(&split, NodeId(0)).expect("read split"))
                .0
                .len();
        }
        bytes
    }

    /// `SeqReader` iteration over the sample blocks. Returns records.
    pub fn storage_parse(&self) -> usize {
        let mut n = 0;
        for b in &self.blocks {
            let mut reader = SeqReader::open_raw(&b.bytes);
            while let Some(rec) = reader.next().expect("well-formed block") {
                black_box(rec);
                n += 1;
            }
        }
        n
    }

    // --- gw-apps ---

    /// `GwApp::map` of the sample into the configured collector on one
    /// thread, one collector reset per block. Returns input records.
    pub fn apps_map(&self) -> usize {
        let mut collector = make_collector(&self.cfg, &self.app);
        for b in &self.blocks {
            map_block(self.app.as_ref(), b, &b.recs, collector.as_ref());
            black_box(collector.records());
            collector.reset();
        }
        self.sample_records()
    }

    /// The single-purpose reference over the whole input: the floor a
    /// framework-free implementation of the same job sets.
    pub fn apps_reference(&self) {
        match self.w.app {
            App::TeraSort { .. } => {
                black_box(reference::terasort(&self.input.records));
            }
            _ => {
                black_box(expected(self.w, self.input, self.seed));
            }
        }
    }

    /// The benchmark's own hand-written floor over the whole input.
    pub fn floor_full(&self) {
        self.floor.over(&self.input.records);
    }

    // --- gw-device ---

    fn device(&self) -> Device {
        Device::open_with_threads(self.cfg.device.clone(), self.cfg.device_threads)
    }

    /// `launches` empty kernels over `NdRange::new(64, 16)`.
    pub fn device_launch_empty(&self, launches: usize) {
        let device = self.device();
        let range = NdRange::new(64, 16).expect("valid range");
        let kernel = KernelFn(|ctx: &WorkItemCtx| {
            black_box(ctx.global_id());
        });
        for _ in 0..launches {
            device.launch(range, &kernel);
        }
    }

    /// The same map as [`Replay::apps_map`] through `Device::launch`
    /// with the job's NDRange and device threads. Returns input records.
    pub fn device_map(&self) -> usize {
        let device = self.device();
        let range =
            NdRange::new(self.cfg.map_work_items, self.cfg.work_group).expect("valid range");
        let mut collector = make_collector(&self.cfg, &self.app);
        for b in &self.blocks {
            {
                let (app, target) = (self.app.as_ref(), collector.as_ref());
                let kernel = KernelFn(move |ctx: &WorkItemCtx| {
                    let (lo, hi) = ctx.my_items(b.recs.len());
                    map_block(app, b, &b.recs[lo..hi], target);
                });
                device.launch(range, &kernel);
            }
            black_box(collector.records());
            collector.reset();
        }
        self.sample_records()
    }

    // --- gw-core ---

    /// `for_each_record` over the filled collectors. Returns records.
    pub fn core_drain(&self) -> usize {
        let mut n = 0;
        for c in &self.filled {
            for_each_record(c.as_ref(), &mut |k, v| {
                black_box((k, v));
                n += 1;
            });
        }
        n
    }

    /// The partition stage's work per chunk: `GwApp::partition`, push
    /// into pooled per-partition builders, build. Returns payload bytes.
    pub fn core_partition(&self) -> usize {
        let parts = total_partitions(self.w);
        let pool = Arc::new(RunPool::new());
        let mut bytes = 0;
        for c in &self.filled {
            let mut builders: Vec<RunBuilder> = (0..parts).map(|_| pool.builder()).collect();
            for_each_record(c.as_ref(), &mut |k, v| {
                bytes += k.len() + v.len();
                builders[self.app.partition(k, parts) as usize].push(k, v);
            });
            for b in builders {
                black_box(b.build());
            }
        }
        bytes
    }

    // --- gw-intermediate ---

    /// Re-sort every sample chunk's records (push + radix build).
    /// Returns records.
    pub fn intermediate_sort(&self) -> usize {
        let mut n = 0;
        for run in &self.chunk_runs {
            let mut b = RunBuilder::new();
            // Feed in reverse so the builder never sees sorted input.
            let recs: Vec<(&[u8], &[u8])> = run.iter().collect();
            for (k, v) in recs.iter().rev() {
                b.push(k, v);
            }
            n += black_box(b.build()).records();
        }
        n
    }

    /// 8-way `merge_runs`. Returns records.
    pub fn intermediate_merge8(&self) -> usize {
        black_box(merge_runs(&self.merge_input)).records()
    }

    /// Compress one merged run. Returns raw bytes.
    pub fn intermediate_compress(&self) -> usize {
        black_box(compress::compress(&self.codec_raw));
        self.codec_raw.len()
    }

    /// Decompress it again. Returns raw bytes.
    pub fn intermediate_decompress(&self) -> usize {
        black_box(compress::decompress(&self.codec_packed).expect("round trip"));
        self.codec_raw.len()
    }

    /// Compressed over raw size (1.0 means the codec bought nothing).
    pub fn compress_ratio(&self) -> f64 {
        self.codec_packed.len() as f64 / self.codec_raw.len().max(1) as f64
    }

    /// The store's whole path on the sample's runs: `add_run` each,
    /// `finish_map`, then drain `partition_cursors` through a
    /// `CursorMerge`. `budgeted` bounds resident bytes to the spill
    /// budget. Returns `(payload bytes, peak resident bytes)`.
    pub fn intermediate_store(&self, budgeted: bool) -> (usize, usize) {
        let mut cfg = IntermediateConfig {
            num_partitions: 1,
            merger_threads: self.cfg.merger_threads,
            compress: self.cfg.compress_intermediate,
            ..Default::default()
        };
        if budgeted {
            cfg = cfg.with_memory_budget(SPILL_BUDGET);
        }
        let store = IntermediateStore::new(cfg).expect("intermediate store");
        for run in &self.chunk_runs {
            store.add_run(0, run.clone());
        }
        store.finish_map().expect("finish_map");
        let mut merge = CursorMerge::new(store.partition_cursors(0).expect("partition cursors"));
        let mut bytes = 0;
        while let Some(rec) = merge.peek_rec() {
            bytes += rec.len();
            merge.advance().expect("cursor advance");
        }
        (bytes, store.metrics().peak_resident_bytes)
    }
}

// --- gw-net (independent of the workload's records) ---

/// `round_trips` 64-byte ping-pongs between two endpoints of an
/// unthrottled fabric.
pub fn net_ping_pong(round_trips: usize) {
    let mut fabric: Fabric<[u8; 64]> = Fabric::new(2, NetProfile::unlimited());
    let (a, b) = (fabric.endpoint(NodeId(0)), fabric.endpoint(NodeId(1)));
    std::thread::scope(|s| {
        s.spawn(move || {
            for _ in 0..round_trips {
                let env = b.recv().expect("ping");
                b.send(NodeId(0), env.payload, 64);
            }
        });
        for _ in 0..round_trips {
            a.send(NodeId(1), [7u8; 64], 64);
            black_box(a.recv().expect("pong"));
        }
    });
}

/// `messages` data sends of `size` bytes under the IPoIB profile, with
/// a receiver draining. Returns `(bytes sent, profile bandwidth)`.
pub fn net_send(messages: usize, size: usize) -> (usize, f64) {
    let profile = NetProfile::ipoib_qdr();
    let mut fabric: Fabric<Arc<[u8]>> = Fabric::new(2, profile);
    let (a, b) = (fabric.endpoint(NodeId(0)), fabric.endpoint(NodeId(1)));
    let payload: Arc<[u8]> = vec![0u8; size].into();
    std::thread::scope(|s| {
        s.spawn(move || {
            for _ in 0..messages {
                black_box(b.recv().expect("data message"));
            }
        });
        for _ in 0..messages {
            a.send_data(NodeId(1), Arc::clone(&payload), size);
        }
    });
    (messages * size, profile.bandwidth)
}

// --- gw-pipeline ---

struct Chunks {
    left: usize,
    delay: Duration,
}

impl Source<usize, String> for Chunks {
    fn next_chunk(&mut self, _ctx: &mut StageCtx<'_>) -> Result<Option<usize>, String> {
        if self.left == 0 {
            return Ok(None);
        }
        self.left -= 1;
        pause(self.delay);
        Ok(Some(self.left))
    }
}

struct Delay(Duration);

impl Stage<usize, String> for Delay {
    fn run_chunk(
        &mut self,
        chunk: usize,
        _ctx: &mut StageCtx<'_>,
    ) -> Result<Option<usize>, String> {
        pause(self.0);
        Ok(Some(chunk))
    }
}

fn pause(d: Duration) {
    if !d.is_zero() {
        std::thread::sleep(d);
    }
}

/// Run `chunks` through a three-stage graph wired like the map pipeline
/// (source, kernel slot, partition slot, the two §III-D token groups).
/// Each stage sleeps its entry of `stage_ms` per chunk; `depth` is the
/// buffering level (1 to 3); the middle slot runs `middle_lanes` lanes.
pub fn pipeline_run(chunks: usize, stage_ms: [u64; 3], depth: usize, middle_lanes: usize) {
    let [first, middle, last] = stage_ms.map(Duration::from_millis);
    let buffering = match depth {
        1 => Buffering::Single,
        2 => Buffering::Double,
        _ => Buffering::Triple,
    };
    let lanes: Vec<Box<dyn Stage<usize, String>>> = (0..middle_lanes)
        .map(|_| Box::new(Delay(middle)) as Box<dyn Stage<usize, String>>)
        .collect();
    let stats = PipelineBuilder::new(PipelineKind::Map, buffering)
        .source(
            StageId::Input,
            Chunks {
                left: chunks,
                delay: first,
            },
        )
        .stage_lanes(StageId::Kernel, lanes)
        .stage(StageId::Partition, Delay(last))
        .interlock(StageId::Input, StageId::Kernel)
        .interlock(StageId::Kernel, StageId::Partition)
        .run()
        .expect("synthetic pipeline");
    assert_eq!(stats.chunks, chunks);
}
