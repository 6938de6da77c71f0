//! Hadoop-model baseline engine: Hadoop 1.x's execution structure around
//! the shared map and reduce steps.
//!
//! * **Slot waves** — each node runs `map_slots` map tasks at a time over
//!   the coordinator's split queue, each task's records one by one
//!   (coarse-grained parallelism only — the paper's core criticism:
//!   "existing MapReduce systems were designed primarily for
//!   coarse-grained parallelism and therefore fail to exploit current
//!   multi-core and many-core technologies").
//! * **Per-task startup** — a real delay per map and reduce task, standing
//!   in for JVM task launch.
//! * **Sort/spill at task end** — map output is combined (when the app has
//!   a combiner), partitioned and sorted only after the task's records.
//! * **Pull shuffle** — reducers fetch map-output fragments only after the
//!   *whole* map phase ("Hadoop pulls its intermediate data"), whereas
//!   Glasswing pushes during map; reduce tasks then run in slot waves.

use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use gw_core::{Coordinator, GwApp, SpeculationConfig};
use gw_storage::split::FileStore;
use gw_storage::{KvVec, NodeId};

use crate::shared::{self, on_threads};
use crate::Result;

/// Hadoop job configuration.
#[derive(Debug, Clone)]
pub struct HadoopConfig {
    /// Input path.
    pub input: String,
    /// Output directory.
    pub output: String,
    /// Concurrent map tasks per node.
    pub map_slots: usize,
    /// Reduce tasks per node (the global reduce count is `nodes × this`).
    pub reduces_per_node: u32,
    /// Modeled JVM/task startup cost, applied as a real delay per task.
    pub task_startup: Duration,
    /// Output replication factor.
    pub output_replication: usize,
    /// Output block size.
    pub output_block_size: usize,
}

impl HadoopConfig {
    /// Defaults mirroring a small tuned deployment.
    pub fn new(input: impl Into<String>, output: impl Into<String>) -> Self {
        HadoopConfig {
            input: input.into(),
            output: output.into(),
            map_slots: 2,
            reduces_per_node: 1,
            task_startup: Duration::ZERO,
            output_replication: 3,
            output_block_size: 8 << 20,
        }
    }
}

/// Phase timing breakdown of a Hadoop job.
#[derive(Debug, Clone, Copy, Default)]
pub struct HadoopReport {
    /// Map phase wall time (all waves).
    pub map_phase: Duration,
    /// Shuffle (pull + merge) wall time — starts after map completes.
    pub shuffle_phase: Duration,
    /// Reduce phase wall time.
    pub reduce_phase: Duration,
    /// Total job wall time.
    pub elapsed: Duration,
    /// Map tasks executed.
    pub map_tasks: usize,
    /// Reduce tasks executed.
    pub reduce_tasks: usize,
    /// Input records processed.
    pub records_in: usize,
    /// Output records written.
    pub records_out: usize,
}

/// The Hadoop-model cluster.
pub struct HadoopCluster {
    store: Arc<dyn FileStore>,
}

impl HadoopCluster {
    /// Create over a file store (node count comes from the store).
    pub fn new(store: Arc<dyn FileStore>) -> Self {
        HadoopCluster { store }
    }

    /// Number of nodes.
    pub fn nodes(&self) -> u32 {
        self.store.cluster_size()
    }

    /// Execute a job; returns the phase breakdown.
    pub fn run(&self, app: Arc<dyn GwApp>, cfg: &HadoopConfig) -> Result<HadoopReport> {
        let (app, store) = (app.as_ref(), self.store.as_ref());
        let nodes = self.nodes();
        let total_reduces = cfg.reduces_per_node * nodes;
        let job_start = Instant::now();

        // ---------------- Map phase: slot waves ----------------
        let splits = store.splits(&cfg.input)?;
        let n_splits = splits.len();
        // Only the split queue: no heartbeat is ever posted, or scanned.
        let task_queue = Coordinator::new(
            splits,
            nodes,
            total_reduces,
            Duration::MAX,
            None,
            SpeculationConfig::default(),
            None,
        );
        let map_start = Instant::now();
        let slots = (0..nodes).flat_map(|n| (0..cfg.map_slots).map(move |_| NodeId(n)));
        // Per map task: its records read, and its output as one sorted
        // fragment a reduce partition, persisted for the pull.
        let map_outputs = on_threads(
            slots,
            |node| task_queue.next_for(*node),
            |&node, split| {
                std::thread::sleep(cfg.task_startup);
                let (block, _) = store.read_split(&split, node)?;
                let (records, pairs) = shared::map_split(app, &block)?;
                // Task-end sort/spill: partition, then sort each fragment.
                let mut fragments = shared::partition(app, pairs, total_reduces);
                fragments.iter_mut().for_each(|f| f.sort());
                Ok((records, fragments))
            },
        )?;
        let map_phase = map_start.elapsed();
        let map_tasks = map_outputs.len();
        debug_assert_eq!(map_tasks, n_splits);
        let records_in = map_outputs.iter().map(|(records, _)| records).sum();

        // ---------------- Shuffle: pull after map ----------------
        let shuffle_start = Instant::now();
        let fragments = map_outputs.into_iter().map(|(_, fragments)| fragments);
        let reduce_inputs = shared::merge(fragments, total_reduces);
        let shuffle_phase = shuffle_start.elapsed();

        // ---------------- Reduce phase: slot waves ----------------
        let reduce_start = Instant::now();
        // Partitions taken in order, one reduce task each.
        let reduce_queue = Mutex::new((0..total_reduces).zip(reduce_inputs));
        let written = on_threads(
            (0..nodes).map(NodeId),
            |_| reduce_queue.lock().next(),
            |&node, (p, input)| {
                std::thread::sleep(cfg.task_startup);
                let out = shared::reduce(app, input);
                let (size, replication) = (cfg.output_block_size, cfg.output_replication);
                shared::write_partition(store, &cfg.output, p, node, &out, size, replication)?;
                Ok(out.len())
            },
        )?;
        let reduce_phase = reduce_start.elapsed();

        Ok(HadoopReport {
            map_phase,
            shuffle_phase,
            reduce_phase,
            elapsed: job_start.elapsed(),
            map_tasks,
            reduce_tasks: total_reduces as usize,
            records_in,
            records_out: written.into_iter().sum(),
        })
    }

    /// Read back the job output in partition order (tests/examples).
    pub fn read_output(&self, cfg: &HadoopConfig) -> Result<KvVec> {
        let partitions = cfg.reduces_per_node * self.nodes();
        shared::read_output(self.store.as_ref(), &cfg.output, partitions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BaselineError;
    use gw_apps::{reference, workloads, WordCount};
    use gw_core::EngineError;
    use gw_storage::split::FileStoreExt;
    use gw_storage::{Dfs, DfsConfig};

    fn store_with_corpus(nodes: u32) -> (Arc<dyn FileStore>, workloads::Records) {
        let spec = workloads::CorpusSpec {
            lines: 120,
            ..Default::default()
        };
        let recs = workloads::text_corpus(&spec);
        let dfs = Dfs::new(DfsConfig::new(nodes).free_io());
        dfs.write_records(
            "/in",
            NodeId(0),
            2048,
            3,
            recs.iter().map(|(k, v)| (k.as_slice(), v.as_slice())),
        )
        .unwrap();
        (Arc::new(dfs), recs)
    }

    #[test]
    fn hadoop_wordcount_matches_reference() {
        let (store, recs) = store_with_corpus(3);
        let cluster = HadoopCluster::new(store);
        let cfg = HadoopConfig::new("/in", "/out");
        let report = cluster.run(Arc::new(WordCount::new()), &cfg).unwrap();
        assert_eq!(report.records_in, 120);
        assert!(report.map_tasks > 1);
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
    fn hadoop_without_combiner_matches_too() {
        let (store, recs) = store_with_corpus(2);
        let cluster = HadoopCluster::new(store);
        let cfg = HadoopConfig::new("/in", "/out-nc");
        cluster
            .run(Arc::new(WordCount::without_combiner()), &cfg)
            .unwrap();
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
    fn a_second_run_into_the_same_output_fails_with_an_error() {
        let (store, _) = store_with_corpus(2);
        let cluster = HadoopCluster::new(store);
        let cfg = HadoopConfig::new("/in", "/out-twice");
        cluster.run(Arc::new(WordCount::new()), &cfg).unwrap();
        // The partition files exist: the reduce's write fails, and the
        // error comes back from `run` rather than panicking a reduce slot.
        let err = cluster.run(Arc::new(WordCount::new()), &cfg).unwrap_err();
        assert!(
            matches!(err, BaselineError::Engine(EngineError::Storage(_))),
            "{err}"
        );
    }

    #[test]
    fn task_startup_inflates_map_phase() {
        let (store, _) = store_with_corpus(1);
        let cluster = HadoopCluster::new(store);
        let mut cfg = HadoopConfig::new("/in", "/out-slow");
        cfg.map_slots = 1;
        cfg.task_startup = Duration::from_millis(5);
        let report = cluster.run(Arc::new(WordCount::new()), &cfg).unwrap();
        // Every task pays the startup cost sequentially in its slot.
        assert!(
            report.map_phase >= Duration::from_millis(5) * report.map_tasks as u32,
            "startup not charged: {report:?}"
        );
    }

    #[test]
    fn shuffle_happens_after_map_not_during() {
        // Structural property: the report's phases are disjoint and sum to
        // roughly the elapsed time (pull model = no overlap).
        let (store, _) = store_with_corpus(2);
        let cluster = HadoopCluster::new(store);
        let cfg = HadoopConfig::new("/in", "/out-p");
        let r = cluster.run(Arc::new(WordCount::new()), &cfg).unwrap();
        let sum = r.map_phase + r.shuffle_phase + r.reduce_phase;
        assert!(r.elapsed >= sum, "phases must be serial: {r:?}");
    }
}
