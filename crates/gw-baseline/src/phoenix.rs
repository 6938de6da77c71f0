//! Phoenix-model baseline engine.
//!
//! Phoenix (Ranger et al.) is the paper's representative of single-node,
//! CPU-only, in-core MapReduce: "Phoenix is an implementation of MapReduce
//! for symmetric multi-core systems. It manages task scheduling across
//! cores within a single machine. ... Both systems [Phoenix and
//! Tiled-MapReduce] use only a single node and do not exploit GPUs." Table
//! I additionally marks it as lacking out-of-core support.
//!
//! This model executes the same [`GwApp`] applications with Phoenix's
//! structure — a task queue over per-core worker threads, all input,
//! intermediate and output data resident in memory — and *enforces* the
//! constraints the paper's comparison rests on: single node only, in-core
//! only, CPU only. The constraints are checked, not assumed, so Table I
//! can be demonstrated by construction in tests.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use gw_core::collect::{for_each_record, BufferPoolCollector};
use gw_core::{Emit, EngineError, GwApp};
use gw_storage::split::FileStore;
use gw_storage::{seqfile::SeqReader, KvVec, NodeId};

/// Phoenix job configuration.
#[derive(Debug, Clone)]
pub struct PhoenixConfig {
    /// Input path.
    pub input: String,
    /// Worker threads (Phoenix spawns one per core).
    pub workers: usize,
    /// In-core memory budget in bytes for input + intermediate data; jobs
    /// beyond it fail (Phoenix has no out-of-core path).
    pub memory_budget: usize,
    /// Apply the app's combiner at task end.
    pub use_combiner: bool,
}

impl PhoenixConfig {
    /// Defaults for a small in-memory job.
    pub fn new(input: impl Into<String>) -> Self {
        PhoenixConfig {
            input: input.into(),
            workers: 2,
            memory_budget: 1 << 30,
            use_combiner: true,
        }
    }
}

/// Phoenix failure modes — the Table I feature gaps, surfaced as errors.
#[derive(Debug)]
pub enum PhoenixError {
    /// Phoenix runs on a single machine only.
    ClusterUnsupported {
        /// Nodes the store was configured with.
        nodes: u32,
    },
    /// The job's data exceeds the in-core budget.
    OutOfCore {
        /// Bytes the job needs resident.
        required: usize,
        /// The configured budget.
        budget: usize,
    },
    /// Underlying engine error.
    Engine(EngineError),
}

impl std::fmt::Display for PhoenixError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PhoenixError::ClusterUnsupported { nodes } => {
                write!(f, "phoenix runs on a single node, store has {nodes}")
            }
            PhoenixError::OutOfCore { required, budget } => write!(
                f,
                "phoenix is in-core only: needs {required} bytes, budget {budget}"
            ),
            PhoenixError::Engine(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for PhoenixError {}

impl From<gw_storage::StorageError> for PhoenixError {
    fn from(e: gw_storage::StorageError) -> Self {
        PhoenixError::Engine(EngineError::Storage(e))
    }
}

/// Phase breakdown of a Phoenix job.
#[derive(Debug, Clone, Default)]
pub struct PhoenixReport {
    /// Map phase (task queue over workers).
    pub map_phase: Duration,
    /// Merge/sort of the in-memory intermediate data.
    pub merge_phase: Duration,
    /// Reduce phase.
    pub reduce_phase: Duration,
    /// Total wall time.
    pub elapsed: Duration,
    /// Input records processed.
    pub records_in: usize,
    /// Output records (also the job output, held in memory).
    pub output: KvVec,
}

/// The Phoenix-model runtime.
pub struct PhoenixRuntime {
    store: Arc<dyn FileStore>,
}

impl PhoenixRuntime {
    /// Create over a store; the store must describe a single machine.
    pub fn new(store: Arc<dyn FileStore>) -> Self {
        PhoenixRuntime { store }
    }

    /// Execute a job entirely in memory on this machine.
    pub fn run(
        &self,
        app: Arc<dyn GwApp>,
        cfg: &PhoenixConfig,
    ) -> Result<PhoenixReport, PhoenixError> {
        // ---- Table I constraint: single node only ----
        let nodes = self.store.cluster_size();
        if nodes != 1 {
            return Err(PhoenixError::ClusterUnsupported { nodes });
        }
        let start = Instant::now();

        // ---- Load ALL input into memory (in-core model) ----
        let splits = self.store.splits(&cfg.input)?;
        let input_bytes: usize = splits.iter().map(|s| s.len).sum();
        if input_bytes > cfg.memory_budget {
            return Err(PhoenixError::OutOfCore {
                required: input_bytes,
                budget: cfg.memory_budget,
            });
        }
        let mut blocks = Vec::with_capacity(splits.len());
        for s in &splits {
            let (block, _) = self.store.read_split(s, NodeId(0))?;
            blocks.push(block);
        }

        // ---- Map phase: task queue over per-core workers ----
        let map_start = Instant::now();
        let next_task = AtomicUsize::new(0);
        let records_in = AtomicUsize::new(0);
        let intermediate_bytes = AtomicUsize::new(0);
        let task_outputs: Mutex<Vec<KvVec>> = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            for _ in 0..cfg.workers.max(1) {
                let app = Arc::clone(&app);
                let blocks = &blocks;
                let next_task = &next_task;
                let records_in = &records_in;
                let intermediate_bytes = &intermediate_bytes;
                let task_outputs = &task_outputs;
                scope.spawn(move || loop {
                    let t = next_task.fetch_add(1, Ordering::Relaxed);
                    if t >= blocks.len() {
                        break;
                    }
                    let collector = BufferPoolCollector::new(8 << 20, 1);
                    let emit = Emit::new(&collector);
                    let mut reader = SeqReader::open_raw(&blocks[t]);
                    let mut count = 0usize;
                    while let Some((k, v)) = reader.next().expect("corrupt input") {
                        app.map(k, v, &emit);
                        count += 1;
                    }
                    records_in.fetch_add(count, Ordering::Relaxed);
                    let mut pairs: KvVec = Vec::new();
                    for_each_record(&collector, &mut |k, v| pairs.push((k.to_vec(), v.to_vec())));
                    if cfg.use_combiner {
                        if let Some(combiner) = app.combiner() {
                            let mut combined: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
                            for (k, v) in pairs.drain(..) {
                                match combined.entry(k) {
                                    std::collections::btree_map::Entry::Occupied(mut e) => {
                                        let key = e.key().clone();
                                        combiner.combine(&key, e.get_mut(), &v);
                                    }
                                    std::collections::btree_map::Entry::Vacant(e) => {
                                        e.insert(v);
                                    }
                                }
                            }
                            pairs = combined.into_iter().collect();
                        }
                    }
                    intermediate_bytes.fetch_add(
                        pairs.iter().map(|(k, v)| k.len() + v.len()).sum::<usize>(),
                        Ordering::Relaxed,
                    );
                    task_outputs.lock().push(pairs);
                });
            }
        });
        let map_phase = map_start.elapsed();

        // ---- Table I constraint: intermediate data stays in core ----
        let required = input_bytes + intermediate_bytes.load(Ordering::Relaxed);
        if required > cfg.memory_budget {
            return Err(PhoenixError::OutOfCore {
                required,
                budget: cfg.memory_budget,
            });
        }

        // ---- Merge: sort/group the in-memory intermediate data ----
        let merge_start = Instant::now();
        let mut all: KvVec = task_outputs.into_inner().into_iter().flatten().collect();
        all.sort();
        let merge_phase = merge_start.elapsed();

        // ---- Reduce ----
        let reduce_start = Instant::now();
        let collector = BufferPoolCollector::new(8 << 20, 1);
        let emit = Emit::new(&collector);
        if app.has_reduce() {
            let mut i = 0usize;
            while i < all.len() {
                let key = all[i].0.clone();
                let mut j = i;
                while j < all.len() && all[j].0 == key {
                    j += 1;
                }
                let values: Vec<&[u8]> = all[i..j].iter().map(|(_, v)| v.as_slice()).collect();
                let mut state = Vec::new();
                app.reduce(&key, &values, &mut state, true, &emit);
                i = j;
            }
        } else {
            for (k, v) in &all {
                emit.emit(k, v);
            }
        }
        let mut output: KvVec = Vec::new();
        for_each_record(&collector, &mut |k, v| {
            output.push((k.to_vec(), v.to_vec()))
        });
        output.sort();
        let reduce_phase = reduce_start.elapsed();

        Ok(PhoenixReport {
            map_phase,
            merge_phase,
            reduce_phase,
            elapsed: start.elapsed(),
            records_in: records_in.load(Ordering::Relaxed),
            output,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gw_apps::{reference, workloads, WordCount};
    use gw_storage::split::FileStoreExt;
    use gw_storage::{Dfs, DfsConfig, LocalFs};

    fn single_node_store(recs: &workloads::Records) -> Arc<dyn FileStore> {
        let fs = LocalFs::new(1);
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
    fn phoenix_wordcount_matches_reference() {
        let spec = workloads::CorpusSpec {
            lines: 150,
            ..Default::default()
        };
        let recs = workloads::text_corpus(&spec);
        let phoenix = PhoenixRuntime::new(single_node_store(&recs));
        let report = phoenix
            .run(Arc::new(WordCount::new()), &PhoenixConfig::new("/in"))
            .unwrap();
        assert_eq!(report.records_in, 150);
        let got: Vec<(Vec<u8>, u64)> = report
            .output
            .into_iter()
            .map(|(k, v)| (k, u64::from_le_bytes(v.as_slice().try_into().unwrap())))
            .collect();
        assert_eq!(got, reference::wordcount(&recs));
    }

    #[test]
    fn phoenix_rejects_clusters() {
        let dfs = Dfs::new(DfsConfig::new(4).free_io());
        let phoenix = PhoenixRuntime::new(Arc::new(dfs));
        let err = phoenix
            .run(Arc::new(WordCount::new()), &PhoenixConfig::new("/in"))
            .unwrap_err();
        assert!(matches!(err, PhoenixError::ClusterUnsupported { nodes: 4 }));
    }

    #[test]
    fn phoenix_rejects_out_of_core_inputs() {
        let spec = workloads::CorpusSpec {
            lines: 200,
            ..Default::default()
        };
        let recs = workloads::text_corpus(&spec);
        let phoenix = PhoenixRuntime::new(single_node_store(&recs));
        let mut cfg = PhoenixConfig::new("/in");
        cfg.memory_budget = 64;
        let err = phoenix.run(Arc::new(WordCount::new()), &cfg).unwrap_err();
        assert!(matches!(err, PhoenixError::OutOfCore { .. }));
    }

    #[test]
    fn phases_are_reported() {
        let spec = workloads::CorpusSpec {
            lines: 60,
            ..Default::default()
        };
        let recs = workloads::text_corpus(&spec);
        let phoenix = PhoenixRuntime::new(single_node_store(&recs));
        let report = phoenix
            .run(Arc::new(WordCount::new()), &PhoenixConfig::new("/in"))
            .unwrap();
        assert!(report.elapsed >= report.map_phase);
        assert!(!report.output.is_empty());
    }
}
