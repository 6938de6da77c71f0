//! Hadoop-model baseline engine.
//!
//! A faithful *model* of Hadoop 1.x execution running the same application
//! kernels as Glasswing:
//!
//! * **Slot waves** — each node runs `map_slots` concurrent map tasks;
//!   tasks within a slot are strictly sequential, and each record is
//!   processed sequentially inside its task (coarse-grained parallelism
//!   only — the paper's core criticism: "existing MapReduce systems were
//!   designed primarily for coarse-grained parallelism and therefore fail
//!   to exploit current multi-core and many-core technologies").
//! * **Per-task startup** — a configurable delay standing in for JVM
//!   task-launch cost.
//! * **Sort/spill at task end** — map output is buffered, combined (when
//!   the app provides a combiner), sorted and partitioned only after the
//!   task's records are done; no overlap with input reading.
//! * **Pull shuffle** — reducers fetch map-output fragments only after
//!   the *whole* map phase completes ("Hadoop pulls its intermediate
//!   data"), whereas Glasswing pushes during map.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use gw_core::collect::{for_each_record, BufferPoolCollector};
use gw_core::{Coordinator, Emit, EngineError, GwApp, SpeculationConfig};
use gw_storage::split::{FileStore, FileStoreExt, RecordBlockBuilder};
use gw_storage::{seqfile::SeqReader, NodeId};

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
    /// Use the application's combiner at map-task end, if it has one.
    pub use_combiner: bool,
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
            use_combiner: true,
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

/// Map-output fragment: one map task's records for one reduce partition.
type Fragment = Vec<(Vec<u8>, Vec<u8>)>;

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

    /// The underlying store.
    pub fn store(&self) -> &Arc<dyn FileStore> {
        &self.store
    }

    /// Execute a job; returns the phase breakdown.
    pub fn run(
        &self,
        app: Arc<dyn GwApp>,
        cfg: &HadoopConfig,
    ) -> Result<HadoopReport, EngineError> {
        let nodes = self.nodes();
        let total_reduces = cfg.reduces_per_node * nodes;
        let splits = self.store.splits(&cfg.input)?;
        let n_splits = splits.len();
        let job_start = Instant::now();

        // ---------------- Map phase: slot waves ----------------
        // map_outputs[task][partition] — persisted map output, fetched by
        // reducers in the shuffle (pull model).
        let map_outputs: Mutex<Vec<Vec<Fragment>>> = Mutex::new(Vec::new());
        let records_in = AtomicUsize::new(0);
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
        std::thread::scope(|scope| {
            for n in 0..nodes {
                for _slot in 0..cfg.map_slots {
                    let node = NodeId(n);
                    let app = Arc::clone(&app);
                    let store = Arc::clone(&self.store);
                    let task_queue = &task_queue;
                    let map_outputs = &map_outputs;
                    let records_in = &records_in;
                    scope.spawn(move || {
                        while let Some(split) = task_queue.next_for(node) {
                            if !cfg.task_startup.is_zero() {
                                std::thread::sleep(cfg.task_startup);
                            }
                            let (block, _) =
                                store.read_split(&split, node).expect("split read failed");
                            // Sequential record processing into a local
                            // collector — no fine-grained parallelism.
                            let collector = BufferPoolCollector::new(1 << 20, 1);
                            let emit = Emit::new(&collector);
                            let mut reader = SeqReader::open_raw(&block);
                            let mut count = 0usize;
                            while let Some((k, v)) = reader.next().expect("corrupt input") {
                                app.map(k, v, &emit);
                                count += 1;
                            }
                            records_in.fetch_add(count, Ordering::Relaxed);
                            // Task-end sort/spill: combine, sort, partition.
                            let mut pairs: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
                            for_each_record(&collector, &mut |k, v| {
                                pairs.push((k.to_vec(), v.to_vec()))
                            });
                            if cfg.use_combiner {
                                if let Some(combiner) = app.combiner() {
                                    let mut combined: HashMap<Vec<u8>, Vec<u8>> = HashMap::new();
                                    for (k, v) in pairs.drain(..) {
                                        match combined.entry(k) {
                                            std::collections::hash_map::Entry::Occupied(mut e) => {
                                                let key = e.key().clone();
                                                combiner.combine(&key, e.get_mut(), &v);
                                            }
                                            std::collections::hash_map::Entry::Vacant(e) => {
                                                e.insert(v);
                                            }
                                        }
                                    }
                                    pairs = combined.into_iter().collect();
                                }
                            }
                            let mut fragments: Vec<Fragment> =
                                vec![Vec::new(); total_reduces as usize];
                            for (k, v) in pairs {
                                let p = app.partition(&k, total_reduces);
                                fragments[p as usize].push((k, v));
                            }
                            for f in &mut fragments {
                                f.sort();
                            }
                            map_outputs.lock().push(fragments);
                        }
                    });
                }
            }
        });
        let map_phase = map_start.elapsed();
        let map_outputs = map_outputs.into_inner();
        let map_tasks = map_outputs.len();
        debug_assert_eq!(map_tasks, n_splits);

        // ---------------- Shuffle: pull after map ----------------
        let shuffle_start = Instant::now();
        let mut reduce_inputs: Vec<Vec<(Vec<u8>, Vec<u8>)>> =
            vec![Vec::new(); total_reduces as usize];
        for task in &map_outputs {
            for (p, frag) in task.iter().enumerate() {
                reduce_inputs[p].extend(frag.iter().cloned());
            }
        }
        // Merge-sort each reduce input (Hadoop's merge step).
        for input in &mut reduce_inputs {
            input.sort();
        }
        let shuffle_phase = shuffle_start.elapsed();

        // ---------------- Reduce phase: slot waves ----------------
        let reduce_start = Instant::now();
        let records_out = AtomicUsize::new(0);
        let reduce_queue: Mutex<Vec<u32>> = Mutex::new((0..total_reduces).rev().collect());
        let reduce_inputs = &reduce_inputs;
        std::thread::scope(|scope| {
            for n in 0..nodes {
                let node = NodeId(n);
                let app = Arc::clone(&app);
                let store = Arc::clone(&self.store);
                let reduce_queue = &reduce_queue;
                let records_out = &records_out;
                scope.spawn(move || {
                    loop {
                        let Some(p) = reduce_queue.lock().pop() else {
                            break;
                        };
                        if !cfg.task_startup.is_zero() {
                            std::thread::sleep(cfg.task_startup);
                        }
                        let input = &reduce_inputs[p as usize];
                        let collector = BufferPoolCollector::new(1 << 20, 1);
                        let emit = Emit::new(&collector);
                        let mut records = 0usize;
                        if app.has_reduce() {
                            let mut i = 0usize;
                            while i < input.len() {
                                let key = &input[i].0;
                                let mut j = i;
                                while j < input.len() && &input[j].0 == key {
                                    j += 1;
                                }
                                let values: Vec<&[u8]> =
                                    input[i..j].iter().map(|(_, v)| v.as_slice()).collect();
                                let mut state = Vec::new();
                                app.reduce(key, &values, &mut state, true, &emit);
                                i = j;
                            }
                            let mut builder = RecordBlockBuilder::new(cfg.output_block_size);
                            for_each_record(&collector, &mut |k, v| {
                                builder.append(k, v);
                                records += 1;
                            });
                            store
                                .write_blocks(
                                    &format!("{}/part-r-{p:05}", cfg.output),
                                    node,
                                    builder.finish(),
                                    cfg.output_replication,
                                )
                                .expect("output write failed");
                        } else {
                            // Shuffle-only job: write the sorted partition.
                            let mut builder = RecordBlockBuilder::new(cfg.output_block_size);
                            for (k, v) in input {
                                builder.append(k, v);
                                records += 1;
                            }
                            store
                                .write_blocks(
                                    &format!("{}/part-r-{p:05}", cfg.output),
                                    node,
                                    builder.finish(),
                                    cfg.output_replication,
                                )
                                .expect("output write failed");
                        }
                        records_out.fetch_add(records, Ordering::Relaxed);
                    }
                });
            }
        });
        let reduce_phase = reduce_start.elapsed();

        Ok(HadoopReport {
            map_phase,
            shuffle_phase,
            reduce_phase,
            elapsed: job_start.elapsed(),
            map_tasks,
            reduce_tasks: total_reduces as usize,
            records_in: records_in.load(Ordering::Relaxed),
            records_out: records_out.load(Ordering::Relaxed),
        })
    }

    /// Read back the job output sorted by partition (tests/examples).
    pub fn read_output(&self, cfg: &HadoopConfig) -> Result<gw_storage::KvVec, EngineError> {
        let mut paths = Vec::new();
        let nodes = self.nodes();
        for p in 0..cfg.reduces_per_node * nodes {
            let path = format!("{}/part-r-{p:05}", cfg.output);
            if self.store.exists(&path) {
                paths.push(path);
            }
        }
        paths.sort();
        let mut out = Vec::new();
        for p in paths {
            out.extend(self.store.read_all_records(&p, NodeId(0))?);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gw_apps::{reference, workloads, WordCount};
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
        let mut cfg = HadoopConfig::new("/in", "/out-nc");
        cfg.use_combiner = false;
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
