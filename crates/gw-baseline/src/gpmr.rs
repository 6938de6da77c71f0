//! GPMR-model baseline engine: the structure of GPMR (Stuart & Owens),
//! the CUDA cluster MapReduce the paper compares against on GPUs.
//!
//! * **GPU-only** — map and reduce run as kernels on a discrete-device
//!   profile.
//! * **No I/O/compute overlap** — "GPMR first reads all data, then starts
//!   its computation pipeline; its total time is the sum of computation
//!   and I/O" (behind paper Fig. 3(e), where Glasswing's pipelined
//!   max(I/O, compute) beats GPMR's I/O + compute by ≈1.5×).
//! * **In-core intermediate data** — "it is limited to processing data
//!   sets where intermediate data fits in host memory": a job over the
//!   budget fails with [`BaselineError::IntermediateOverflow`].
//! * Reads from the **local file system** with full replication, as in
//!   the paper's GPMR setup.

use std::sync::Arc;
use std::time::{Duration, Instant};

use gw_core::collect::{BufferPoolCollector, Collector};
use gw_core::{Emit, GwApp};
use gw_device::{Device, DeviceProfile, KernelFn, LaunchStats, NdRange, WorkItemCtx};
use gw_storage::seqfile::RecordRef;
use gw_storage::split::FileStore;
use gw_storage::{KvVec, NodeId};

use crate::shared::{self, on_threads};
use crate::{BaselineError, Result};

/// GPMR job configuration.
#[derive(Debug, Clone)]
pub struct GpmrConfig {
    /// Input path.
    pub input: String,
    /// Output directory.
    pub output: String,
    /// GPU device profile (GPMR has no CPU backend).
    pub device: DeviceProfile,
    /// Real host threads backing the device pool.
    pub device_threads: usize,
    /// Map kernel work items.
    pub map_work_items: usize,
    /// In-core intermediate data budget in bytes (host memory); jobs whose
    /// intermediate data exceed it fail.
    pub intermediate_budget: usize,
    /// Output block size.
    pub output_block_size: usize,
}

impl GpmrConfig {
    /// Defaults for a GTX 480 node.
    pub fn new(input: impl Into<String>, output: impl Into<String>) -> Self {
        GpmrConfig {
            input: input.into(),
            output: output.into(),
            device: DeviceProfile::gtx480(),
            device_threads: 2,
            map_work_items: 64,
            intermediate_budget: 1 << 30,
            output_block_size: 8 << 20,
        }
    }
}

/// Phase breakdown of a GPMR job. Phases are strictly serial:
/// `elapsed ≈ io_read + map_compute + exchange + reduce_compute + io_write`.
#[derive(Debug, Clone, Copy, Default)]
pub struct GpmrReport {
    /// Time reading all input up front (wall).
    pub io_read: Duration,
    /// Modeled input read time (storage model).
    pub io_read_modeled: Duration,
    /// Map kernel time (wall).
    pub map_compute: Duration,
    /// Map kernel time transformed by the device model.
    pub map_compute_modeled: Duration,
    /// In-memory exchange + sort time.
    pub exchange: Duration,
    /// Reduce kernel time (wall).
    pub reduce_compute: Duration,
    /// Reduce kernel modeled time.
    pub reduce_compute_modeled: Duration,
    /// Output write time.
    pub io_write: Duration,
    /// Total wall time.
    pub elapsed: Duration,
    /// Peak intermediate bytes held in core.
    pub intermediate_bytes: usize,
    /// Records processed.
    pub records_in: usize,
}

impl GpmrReport {
    /// The modeled total — I/O plus compute, no overlap.
    pub fn modeled_total(&self) -> Duration {
        self.io_read_modeled
            + self.map_compute_modeled
            + self.exchange
            + self.reduce_compute_modeled
            + self.io_write
    }
}

/// The GPMR-model cluster.
pub struct GpmrCluster {
    store: Arc<dyn FileStore>,
}

impl GpmrCluster {
    /// Create over a (local-FS-style) store.
    pub fn new(store: Arc<dyn FileStore>) -> Self {
        GpmrCluster { store }
    }

    /// Number of nodes.
    pub fn nodes(&self) -> u32 {
        self.store.cluster_size()
    }

    /// Execute a job. Every phase is a global barrier: read-all, map-all,
    /// exchange-all, reduce-all, write-all.
    pub fn run(&self, app: Arc<dyn GwApp>, cfg: &GpmrConfig) -> Result<GpmrReport> {
        let app = app.as_ref();
        let nodes = self.nodes();
        let job_start = Instant::now();
        let mut report = GpmrReport::default();

        // ---------------- Phase 1: read ALL input ----------------
        let t0 = Instant::now();
        let splits = self.store.splits(&cfg.input)?;
        // Static striping over nodes (GPMR's layout is fully replicated).
        let mut node_blocks: Vec<Vec<Arc<[u8]>>> = vec![Vec::new(); nodes as usize];
        let mut modeled_read = Duration::ZERO;
        for (i, split) in splits.iter().enumerate() {
            let node = NodeId((i % nodes as usize) as u32);
            let (block, sample) = self.store.read_split(split, node)?;
            modeled_read += sample.modeled;
            node_blocks[node.index()].push(block);
        }
        report.io_read = t0.elapsed();
        // Nodes read in parallel: modeled read divides over nodes.
        report.io_read_modeled = modeled_read / nodes;
        report.records_in = splits.iter().map(|s| s.records).sum();

        // ---------------- Phase 2: map kernels (all nodes) ----------------
        // One thread a node, taking its own blocks once. Per node: kernel
        // wall and modeled time, intermediate bytes, output by owning node.
        let mapped = on_threads(node_blocks.iter().map(Some), Option::take, |_, blocks| {
            let device = Device::open_with_threads(cfg.device.clone(), cfg.device_threads);
            let (mut wall, mut modeled) = (Duration::ZERO, Duration::ZERO);
            let out = BufferPoolCollector::new(64 << 20, 8);
            let map = |(k, v): &RecordRef<'_>, emit: &Emit<'_>| app.map(k, v, emit);
            for block in blocks {
                let records = shared::read_records(block)?;
                let stats = launch(cfg, &device, &records, &out, map);
                wall += stats.wall;
                modeled += stats.modeled;
            }
            let buckets = shared::partition(app, shared::collected(&out), nodes);
            Ok((wall, modeled, out.bytes(), buckets))
        })?;
        let mut all_buckets = Vec::with_capacity(mapped.len());
        for (wall, modeled, bytes, buckets) in mapped {
            report.map_compute = report.map_compute.max(wall);
            report.map_compute_modeled = report.map_compute_modeled.max(modeled);
            report.intermediate_bytes += bytes;
            all_buckets.push(buckets);
        }
        if report.intermediate_bytes > cfg.intermediate_budget {
            return Err(BaselineError::IntermediateOverflow {
                produced: report.intermediate_bytes,
                budget: cfg.intermediate_budget,
            });
        }

        // ---------------- Phase 3: exchange + sort ----------------
        let t2 = Instant::now();
        let exchanged = shared::merge(all_buckets, nodes);
        report.exchange = t2.elapsed();

        // ---------------- Phase 4: reduce kernels ----------------
        let mut outputs: Vec<KvVec> = Vec::with_capacity(nodes as usize);
        for part in exchanged {
            if !app.has_reduce() || part.is_empty() {
                outputs.push(part);
                continue;
            }
            let groups: Vec<_> = shared::key_groups(&part).collect();
            let out = BufferPoolCollector::new(16 << 20, 8);
            let device = Device::open_with_threads(cfg.device.clone(), cfg.device_threads);
            let reduce = |group: &&[_], emit: &Emit<'_>| shared::reduce_group(app, group, emit);
            let stats = launch(cfg, &device, &groups, &out, reduce);
            report.reduce_compute += stats.wall;
            report.reduce_compute_modeled += stats.modeled;
            // Work items emit concurrently: sort for a deterministic file.
            let mut records = shared::collected(&out);
            records.sort();
            outputs.push(records);
        }

        // ---------------- Phase 5: write output ----------------
        let t4 = Instant::now();
        for (p, out) in (0..).zip(&outputs) {
            let (node, size) = (NodeId(p % nodes), cfg.output_block_size);
            shared::write_partition(self.store.as_ref(), &cfg.output, p, node, out, size, 1)?;
        }
        report.io_write = t4.elapsed();
        report.elapsed = job_start.elapsed();
        Ok(report)
    }

    /// Read back job output in partition order.
    pub fn read_output(&self, cfg: &GpmrConfig) -> Result<KvVec> {
        shared::read_output(self.store.as_ref(), &cfg.output, self.nodes())
    }
}

/// Apply `f` to each of `items` in one launch of up to
/// `cfg.map_work_items` work items, emitting into `collector`.
fn launch<T: Sync>(
    cfg: &GpmrConfig,
    device: &Device,
    items: &[T],
    collector: &dyn Collector,
    f: impl Fn(&T, &Emit<'_>) + Sync,
) -> LaunchStats {
    let kernel = KernelFn(|ctx: &WorkItemCtx| {
        let emit = Emit::new(collector);
        let (lo, hi) = ctx.my_items(items.len());
        items[lo..hi].iter().for_each(|item| f(item, &emit));
    });
    let n = cfg.map_work_items.min(items.len()).max(1);
    device.launch(NdRange::new(n, n.min(64)).expect("valid range"), &kernel)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gw_apps::{reference, workloads, KMeans, WordCount};
    use gw_storage::split::FileStoreExt;
    use gw_storage::LocalFs;

    fn local_store_with(recs: &workloads::Records, nodes: u32) -> Arc<dyn FileStore> {
        let fs = LocalFs::new(nodes);
        fs.write_records(
            "/in",
            NodeId(0),
            2048,
            1,
            recs.iter().map(|(k, v)| (k.as_slice(), v.as_slice())),
        )
        .unwrap();
        Arc::new(fs)
    }

    #[test]
    fn gpmr_wordcount_matches_reference() {
        let spec = workloads::CorpusSpec {
            lines: 80,
            ..Default::default()
        };
        let recs = workloads::text_corpus(&spec);
        let cluster = GpmrCluster::new(local_store_with(&recs, 2));
        let cfg = GpmrConfig::new("/in", "/out");
        let report = cluster
            .run(Arc::new(WordCount::without_combiner()), &cfg)
            .unwrap();
        assert_eq!(report.records_in, 80);
        let mut out: Vec<(Vec<u8>, u64)> = cluster
            .read_output(&cfg)
            .unwrap()
            .into_iter()
            .map(|(k, v)| (k, u64::from_le_bytes(v.as_slice().try_into().unwrap())))
            .collect();
        out.sort();
        assert_eq!(out, reference::wordcount(&recs));
    }

    #[test]
    fn gpmr_kmeans_matches_reference() {
        let spec = workloads::KmeansSpec {
            points: 300,
            dims: 3,
            centers: 5,
            seed: 4,
        };
        let pts = workloads::kmeans_points(&spec);
        let centers = workloads::kmeans_centers(&spec);
        let cluster = GpmrCluster::new(local_store_with(&pts, 2));
        let cfg = GpmrConfig::new("/in", "/out");
        let app = Arc::new(KMeans::new(centers.clone(), 5, 3));
        cluster
            .run(Arc::clone(&app) as Arc<dyn GwApp>, &cfg)
            .unwrap();
        let out = cluster.read_output(&cfg).unwrap();
        let expect = reference::kmeans_iteration(&pts, &app);
        assert_eq!(out.len(), expect.len());
        for (k, v) in out {
            let c = u32::from_be_bytes(k.as_slice().try_into().unwrap());
            let got = gw_apps::codec::get_f32s(&v);
            let (_, want) = expect.iter().find(|(ec, _)| *ec == c).unwrap();
            for (g, w) in got.iter().zip(want) {
                assert!((g - w).abs() < 1e-3, "center {c}: {g} vs {w}");
            }
        }
    }

    #[test]
    fn intermediate_overflow_is_detected() {
        let spec = workloads::CorpusSpec {
            lines: 50,
            ..Default::default()
        };
        let recs = workloads::text_corpus(&spec);
        let cluster = GpmrCluster::new(local_store_with(&recs, 1));
        let mut cfg = GpmrConfig::new("/in", "/out-overflow");
        cfg.intermediate_budget = 16; // absurdly small
        let err = cluster
            .run(Arc::new(WordCount::without_combiner()), &cfg)
            .unwrap_err();
        assert!(matches!(err, BaselineError::IntermediateOverflow { .. }));
    }

    #[test]
    fn phases_are_serial() {
        let spec = workloads::CorpusSpec {
            lines: 40,
            ..Default::default()
        };
        let recs = workloads::text_corpus(&spec);
        let cluster = GpmrCluster::new(local_store_with(&recs, 1));
        let cfg = GpmrConfig::new("/in", "/out-serial");
        let r = cluster
            .run(Arc::new(WordCount::without_combiner()), &cfg)
            .unwrap();
        // Total is at least the sum of the measured serial phases (within
        // a small measurement tolerance).
        let sum = r.io_read + r.map_compute + r.exchange + r.reduce_compute + r.io_write;
        assert!(
            r.elapsed + Duration::from_millis(1) >= sum,
            "phases exceed total: {r:?}"
        );
        // Modeled total = I/O + compute (the Fig. 3(e) structure).
        assert!(r.modeled_total() >= r.io_read_modeled + r.map_compute_modeled);
    }
}
