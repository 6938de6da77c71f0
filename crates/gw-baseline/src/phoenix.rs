//! Phoenix-model baseline engine.
//!
//! Phoenix (Ranger et al.) is the paper's representative of single-node,
//! CPU-only, in-core MapReduce: "Phoenix is an implementation of MapReduce
//! for symmetric multi-core systems. It manages task scheduling across
//! cores within a single machine. ... Both systems [Phoenix and
//! Tiled-MapReduce] use only a single node and do not exploit GPUs."
//! The model runs the shared map and reduce steps over a task queue of
//! per-core worker threads, and *checks* Table I's constraints, so tests
//! can show them by construction: one node only, input plus intermediate
//! data within the in-core budget, output held in memory.

use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use gw_core::GwApp;
use gw_storage::split::FileStore;
use gw_storage::{KvVec, NodeId};

use crate::shared::{self, on_threads};
use crate::{BaselineError, Result};

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
}

impl PhoenixConfig {
    /// Defaults for a small in-memory job.
    pub fn new(input: impl Into<String>) -> Self {
        PhoenixConfig {
            input: input.into(),
            workers: 2,
            memory_budget: 1 << 30,
        }
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
    /// Output records (also the job output, held in memory), sorted.
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
    pub fn run(&self, app: Arc<dyn GwApp>, cfg: &PhoenixConfig) -> Result<PhoenixReport> {
        let app = app.as_ref();
        // ---- Table I constraint: single node only ----
        let nodes = self.store.cluster_size();
        if nodes != 1 {
            return Err(BaselineError::ClusterUnsupported { nodes });
        }
        let start = Instant::now();

        // ---- Load ALL input into memory (in-core model) ----
        let splits = self.store.splits(&cfg.input)?;
        let input_bytes: usize = splits.iter().map(|s| s.len).sum();
        let in_core = |required: usize| {
            let budget = cfg.memory_budget;
            (required <= budget)
                .then_some(())
                .ok_or(BaselineError::OutOfCore { required, budget })
        };
        in_core(input_bytes)?;
        let blocks = splits
            .iter()
            .map(|s| Ok(self.store.read_split(s, NodeId(0))?.0))
            .collect::<Result<Vec<_>>>()?;

        // ---- Map phase: task queue over per-core workers ----
        let map_start = Instant::now();
        let queue = Mutex::new(blocks.iter());
        let tasks = on_threads(
            0..cfg.workers.max(1),
            |_| queue.lock().next(),
            |_, block| shared::map_split(app, block),
        )?;
        let map_phase = map_start.elapsed();
        let records_in = tasks.iter().map(|(records, _)| records).sum();

        // ---- Table I constraint: intermediate data stays in core ----
        let intermediate_bytes: usize = (tasks.iter().flat_map(|(_, pairs)| pairs))
            .map(|(k, v)| k.len() + v.len())
            .sum();
        in_core(input_bytes + intermediate_bytes)?;

        // ---- Merge: sort/group the in-memory intermediate data ----
        let merge_start = Instant::now();
        let mut all: KvVec = tasks.into_iter().flat_map(|(_, pairs)| pairs).collect();
        all.sort();
        let merge_phase = merge_start.elapsed();

        // ---- Reduce ----
        let reduce_start = Instant::now();
        let mut output = shared::reduce(app, all);
        output.sort();
        let reduce_phase = reduce_start.elapsed();

        Ok(PhoenixReport {
            map_phase,
            merge_phase,
            reduce_phase,
            elapsed: start.elapsed(),
            records_in,
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
        assert!(matches!(
            err,
            BaselineError::ClusterUnsupported { nodes: 4 }
        ));
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
        assert!(matches!(err, BaselineError::OutOfCore { .. }));
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
