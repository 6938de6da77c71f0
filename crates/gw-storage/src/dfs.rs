//! HDFS-like distributed block store.
//!
//! Reproduces the pieces of HDFS that the paper's evaluation depends on:
//!
//! * namenode-style file→block metadata;
//! * **replication** (factor 3 by default, "which is common practice"; the
//!   TeraSort output uses factor 1, so replication is a per-write knob);
//! * **block placement**: first replica on the writing node, the rest
//!   spread deterministically across the cluster;
//! * **locality-aware reads**: a reader holding a replica pays local-disk
//!   cost, others pay the network path;
//! * the **JNI/Java overhead tax** of libhdfs via [`IoModel::hdfs`], which
//!   is what separates the HDFS and local-FS curves in paper Fig. 3(d,e).
//!
//! Block payloads are held in memory behind `Arc` (one physical copy no
//! matter the replication factor), which keeps multi-node in-process
//! clusters cheap while preserving all placement/locality bookkeeping.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;

use gw_trace::{CounterId, LaneId, MarkId, ReadClass, Realm, Tracer};

use crate::iomodel::{IoModel, IoSample};
use crate::split::{FileStore, InputSplit, RecordBlock, StorageFaultHook};
use crate::{NodeId, StorageError};

/// Configuration of a [`Dfs`] instance.
#[derive(Debug, Clone)]
pub struct DfsConfig {
    /// Number of cluster nodes.
    pub nodes: u32,
    /// Default replication factor (HDFS default 3).
    pub replication: usize,
    /// I/O timing model.
    pub io: IoModel,
    /// When `true`, reads *sleep* for their modeled duration, so real
    /// pipeline experiments feel storage latency (the blocks themselves
    /// live in memory). Used by the pipeline-analysis harnesses.
    pub pace_io: bool,
}

impl DfsConfig {
    /// HDFS-like defaults for an `n`-node cluster.
    pub fn new(nodes: u32) -> Self {
        DfsConfig {
            nodes,
            replication: 3,
            io: IoModel::hdfs(),
            pace_io: false,
        }
    }

    /// Use a zero-cost I/O model (correctness-only runs).
    pub fn free_io(mut self) -> Self {
        self.io = IoModel::free();
        self
    }

    /// Use `model` and make reads physically take their modeled time.
    pub fn paced_io(mut self, model: IoModel) -> Self {
        self.io = model;
        self.pace_io = true;
        self
    }
}

#[derive(Debug, Clone)]
struct BlockMeta {
    data: Arc<[u8]>,
    records: usize,
    replicas: Vec<NodeId>,
}

#[derive(Debug, Default)]
struct Namespace {
    files: HashMap<String, Vec<BlockMeta>>,
}

/// The distributed file system.
pub struct Dfs {
    cfg: DfsConfig,
    ns: RwLock<Namespace>,
    fault: RwLock<Option<Arc<dyn StorageFaultHook>>>,
    dead: RwLock<HashSet<NodeId>>,
    failovers: AtomicUsize,
    tracer: RwLock<Option<Arc<Tracer>>>,
}

impl Dfs {
    /// Create an empty DFS for the configured cluster.
    pub fn new(cfg: DfsConfig) -> Self {
        assert!(cfg.nodes > 0, "cluster must have at least one node");
        Dfs {
            cfg,
            ns: RwLock::new(Namespace::default()),
            fault: RwLock::new(None),
            dead: RwLock::new(HashSet::new()),
            failovers: AtomicUsize::new(0),
            tracer: RwLock::new(None),
        }
    }

    /// The configuration this DFS was created with.
    pub fn config(&self) -> &DfsConfig {
        &self.cfg
    }

    /// Choose replica nodes for block `block_idx` written by `writer`.
    ///
    /// First replica is the writer (HDFS's write-local rule); subsequent
    /// replicas walk the ring starting at an offset derived from the block
    /// index so that a multi-block file spreads over the cluster.
    fn place_replicas(&self, writer: NodeId, block_idx: usize, replication: usize) -> Vec<NodeId> {
        let n = self.cfg.nodes;
        let replication = replication.clamp(1, n as usize);
        let mut replicas = Vec::with_capacity(replication);
        replicas.push(writer);
        let mut candidate = (writer.0 as usize + 1 + block_idx) % n as usize;
        while replicas.len() < replication {
            let node = NodeId(candidate as u32);
            if !replicas.contains(&node) {
                replicas.push(node);
            }
            candidate = (candidate + 1) % n as usize;
        }
        replicas
    }

    /// List all file paths (sorted), for inspection and tests.
    pub fn list(&self) -> Vec<String> {
        let ns = self.ns.read();
        let mut paths: Vec<String> = ns.files.keys().cloned().collect();
        paths.sort();
        paths
    }

    /// Replica locations of every block of `path`.
    pub fn block_locations(&self, path: &str) -> Result<Vec<Vec<NodeId>>, StorageError> {
        let ns = self.ns.read();
        let blocks = ns
            .files
            .get(path)
            .ok_or_else(|| StorageError::NotFound(path.to_string()))?;
        Ok(blocks.iter().map(|b| b.replicas.clone()).collect())
    }
}

impl FileStore for Dfs {
    fn write_blocks(
        &self,
        path: &str,
        writer: NodeId,
        blocks: Vec<RecordBlock>,
        replication: usize,
    ) -> Result<IoSample, StorageError> {
        if writer.0 >= self.cfg.nodes {
            return Err(StorageError::UnknownNode(writer));
        }
        let mut metas = Vec::with_capacity(blocks.len());
        let mut modeled = std::time::Duration::ZERO;
        let mut bytes = 0usize;
        for (idx, (data, records)) in blocks.into_iter().enumerate() {
            let replicas = self.place_replicas(writer, idx, replication);
            // Writer pays the local write plus the replica pipeline: HDFS
            // streams the block through the replica chain, so the modeled
            // cost is one local write + (r-1) remote transfers.
            modeled += self.cfg.io.call_time(data.len(), true);
            for _ in 1..replicas.len() {
                modeled += self.cfg.io.call_time(data.len(), false);
            }
            bytes += data.len();
            metas.push(BlockMeta {
                data,
                records,
                replicas,
            });
        }
        let mut ns = self.ns.write();
        if ns.files.contains_key(path) {
            return Err(StorageError::AlreadyExists(path.to_string()));
        }
        ns.files.insert(path.to_string(), metas);
        Ok(IoSample {
            modeled,
            bytes,
            local: true,
        })
    }

    fn splits(&self, path: &str) -> Result<Vec<InputSplit>, StorageError> {
        let ns = self.ns.read();
        let blocks = ns
            .files
            .get(path)
            .ok_or_else(|| StorageError::NotFound(path.to_string()))?;
        Ok(blocks
            .iter()
            .enumerate()
            .map(|(i, b)| InputSplit {
                path: path.to_string(),
                block: i,
                len: b.data.len(),
                records: b.records,
                locations: b.replicas.clone(),
            })
            .collect())
    }

    fn read_split(
        &self,
        split: &InputSplit,
        reader: NodeId,
    ) -> Result<(Arc<[u8]>, IoSample), StorageError> {
        let ns = self.ns.read();
        let blocks = ns
            .files
            .get(&split.path)
            .ok_or_else(|| StorageError::NotFound(split.path.clone()))?;
        let block = blocks.get(split.block).ok_or_else(|| {
            StorageError::Corrupt(format!("no block {} in {}", split.block, split.path))
        })?;
        // Choose the serving replica: the reader's own copy first, then the
        // placement order — skipping dead nodes and chaos-faulted reads.
        let hook = self.fault.read().clone();
        let mut candidates: Vec<NodeId> = Vec::with_capacity(block.replicas.len());
        if block.replicas.contains(&reader) {
            candidates.push(reader);
        }
        candidates.extend(block.replicas.iter().copied().filter(|&r| r != reader));
        let mut skipped = 0usize;
        let mut source = None;
        {
            let dead = self.dead.read();
            for &cand in &candidates {
                if dead.contains(&cand) {
                    skipped += 1;
                    continue;
                }
                if let Some(h) = &hook {
                    if h.read_fault(&split.path, split.block, cand) {
                        skipped += 1;
                        continue;
                    }
                }
                source = Some(cand);
                break;
            }
        }
        let Some(source) = source else {
            return Err(StorageError::AllReplicasLost(format!(
                "{} block {}",
                split.path, split.block
            )));
        };
        if skipped > 0 {
            self.failovers.fetch_add(1, Ordering::Relaxed);
        }
        let local = source == reader;
        let sample = IoSample {
            modeled: self.cfg.io.call_time(block.data.len(), local),
            bytes: block.data.len(),
            local,
        };
        if let Some(t) = self.tracer.read().as_ref() {
            let class = if local {
                ReadClass::Local
            } else if skipped > 0 {
                ReadClass::RemoteFault
            } else {
                ReadClass::Remote
            };
            let lane = t.lane(LaneId {
                job: 0,
                node: reader.0,
                realm: Realm::Storage,
            });
            lane.instant(MarkId::DfsRead {
                block: split.block as u64,
                class,
            });
            lane.count(
                match class {
                    ReadClass::Local => CounterId::DfsReadLocal,
                    ReadClass::Remote => CounterId::DfsReadRemote,
                    ReadClass::RemoteFault => CounterId::DfsReadRemoteFault,
                },
                1,
            );
            lane.count(CounterId::DfsReadBytes, sample.bytes as u64);
        }
        let data = Arc::clone(&block.data);
        drop(ns); // do not hold the namespace lock while pacing
        if self.cfg.pace_io {
            std::thread::sleep(sample.modeled);
        }
        Ok((data, sample))
    }

    fn exists(&self, path: &str) -> bool {
        self.ns.read().files.contains_key(path)
    }

    fn delete(&self, path: &str) {
        self.ns.write().files.remove(path);
    }

    fn cluster_size(&self) -> u32 {
        self.cfg.nodes
    }

    fn arm_fault_hook(&self, hook: Option<Arc<dyn StorageFaultHook>>) {
        *self.fault.write() = hook;
    }

    fn arm_tracer(&self, tracer: Option<Arc<Tracer>>) {
        *self.tracer.write() = tracer;
    }

    fn mark_node_dead(&self, node: NodeId) {
        self.dead.write().insert(node);
    }

    fn fault_failovers(&self) -> usize {
        self.failovers.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::split::FileStoreExt;

    fn records(n: usize) -> Vec<(Vec<u8>, Vec<u8>)> {
        (0..n)
            .map(|i| {
                (
                    format!("k{i:04}").into_bytes(),
                    format!("v{i}").into_bytes(),
                )
            })
            .collect()
    }

    fn write_file(dfs: &Dfs, path: &str, n: usize, block_size: usize) {
        let recs = records(n);
        dfs.write_records(
            path,
            NodeId(0),
            block_size,
            dfs.config().replication,
            recs.iter().map(|(k, v)| (k.as_slice(), v.as_slice())),
        )
        .unwrap();
    }

    #[test]
    fn write_read_roundtrip() {
        let dfs = Dfs::new(DfsConfig::new(4));
        write_file(&dfs, "/in", 200, 256);
        let back = dfs.read_all_records("/in", NodeId(2)).unwrap();
        assert_eq!(back, records(200));
    }

    #[test]
    fn replication_is_respected_and_first_replica_is_writer() {
        let dfs = Dfs::new(DfsConfig::new(5));
        write_file(&dfs, "/in", 100, 128);
        let locs = dfs.block_locations("/in").unwrap();
        assert!(locs.len() > 1, "file should span several blocks");
        for block in &locs {
            assert_eq!(block.len(), 3);
            assert_eq!(block[0], NodeId(0));
            // Replicas are distinct.
            let mut uniq = block.clone();
            uniq.sort();
            uniq.dedup();
            assert_eq!(uniq.len(), 3);
        }
    }

    #[test]
    fn replication_clamps_to_cluster_size() {
        let dfs = Dfs::new(DfsConfig::new(2));
        write_file(&dfs, "/in", 50, 64);
        for block in dfs.block_locations("/in").unwrap() {
            assert_eq!(block.len(), 2);
        }
    }

    #[test]
    fn local_reads_are_cheaper_than_remote() {
        let dfs = Dfs::new(DfsConfig::new(8));
        write_file(&dfs, "/in", 400, 4096);
        let splits = dfs.splits("/in").unwrap();
        let split = &splits[0];
        let local_reader = split.locations[0];
        let remote_reader = (0..8)
            .map(NodeId)
            .find(|n| !split.locations.contains(n))
            .unwrap();
        let (_, local) = dfs.read_split(split, local_reader).unwrap();
        let (_, remote) = dfs.read_split(split, remote_reader).unwrap();
        assert!(local.local);
        assert!(!remote.local);
        // DAS-4: local software-RAID disk is slower per byte than IPoIB, so
        // we only assert the locality flag and byte accounting, not ordering.
        assert!(local.bytes > 0);
        assert_eq!(remote.bytes, local.bytes);
    }

    #[test]
    fn duplicate_create_fails() {
        let dfs = Dfs::new(DfsConfig::new(2));
        write_file(&dfs, "/in", 10, 64);
        let recs = records(10);
        let err = dfs
            .write_records(
                "/in",
                NodeId(1),
                64,
                1,
                recs.iter().map(|(k, v)| (k.as_slice(), v.as_slice())),
            )
            .unwrap_err();
        assert!(matches!(err, StorageError::AlreadyExists(_)));
    }

    #[test]
    fn delete_then_recreate() {
        let dfs = Dfs::new(DfsConfig::new(2));
        write_file(&dfs, "/in", 10, 64);
        dfs.delete("/in");
        assert!(!dfs.exists("/in"));
        write_file(&dfs, "/in", 10, 64);
        assert!(dfs.exists("/in"));
    }

    #[test]
    fn splits_report_record_counts() {
        let dfs = Dfs::new(DfsConfig::new(3));
        write_file(&dfs, "/in", 123, 256);
        let splits = dfs.splits("/in").unwrap();
        let total: usize = splits.iter().map(|s| s.records).sum();
        assert_eq!(total, 123);
    }

    #[test]
    fn paced_io_takes_real_time() {
        use crate::iomodel::IoModel;
        let slow = IoModel {
            per_call_overhead: std::time::Duration::from_millis(5),
            local_bandwidth: f64::INFINITY,
            remote_bandwidth: f64::INFINITY,
            copy_amplification: 1.0,
        };
        let dfs = Dfs::new(DfsConfig::new(1).paced_io(slow));
        write_file(&dfs, "/in", 50, 256);
        let splits = dfs.splits("/in").unwrap();
        let start = std::time::Instant::now();
        for s in &splits {
            dfs.read_split(s, NodeId(0)).unwrap();
        }
        let expect = std::time::Duration::from_millis(5) * splits.len() as u32;
        assert!(
            start.elapsed() >= expect.mul_f64(0.8),
            "paced reads must sleep their modeled time"
        );
    }

    #[test]
    fn unknown_writer_is_rejected() {
        let dfs = Dfs::new(DfsConfig::new(2));
        let err = dfs
            .write_blocks("/x", NodeId(9), vec![(Arc::from([0u8]), 1)], 1)
            .unwrap_err();
        assert!(matches!(err, StorageError::UnknownNode(_)));
    }

    #[test]
    fn read_fails_over_to_surviving_replica_when_node_dies() {
        let dfs = Dfs::new(DfsConfig::new(4));
        write_file(&dfs, "/in", 100, 256);
        let splits = dfs.splits("/in").unwrap();
        let split = &splits[0];
        // Kill the primary (writer) replica; a non-replica reader must be
        // served transparently by one of the survivors.
        dfs.mark_node_dead(split.locations[0]);
        let reader = (0..4)
            .map(NodeId)
            .find(|n| !split.locations.contains(n))
            .unwrap();
        let (data, sample) = dfs.read_split(split, reader).unwrap();
        assert!(!data.is_empty());
        assert!(!sample.local);
        assert!(dfs.fault_failovers() >= 1);
    }

    #[test]
    fn read_fails_over_past_a_chaos_fault() {
        struct FailPrimaryOnce(std::sync::atomic::AtomicBool);
        impl StorageFaultHook for FailPrimaryOnce {
            fn read_fault(&self, _path: &str, block: usize, _source: NodeId) -> bool {
                block == 0 && !self.0.swap(true, Ordering::Relaxed)
            }
        }
        let dfs = Dfs::new(DfsConfig::new(3));
        write_file(&dfs, "/in", 100, 256);
        dfs.arm_fault_hook(Some(Arc::new(FailPrimaryOnce(
            std::sync::atomic::AtomicBool::new(false),
        ))));
        let splits = dfs.splits("/in").unwrap();
        let reader = splits[0].locations[0];
        // The first replica attempt faults; the read still succeeds from
        // the next replica and the failover is counted.
        let (data, _) = dfs.read_split(&splits[0], reader).unwrap();
        assert!(!data.is_empty());
        assert_eq!(dfs.fault_failovers(), 1);
        // The fault was single-use: later reads are clean.
        dfs.read_split(&splits[0], reader).unwrap();
        assert_eq!(dfs.fault_failovers(), 1);
    }

    #[test]
    fn armed_tracer_classifies_reads() {
        let dfs = Dfs::new(DfsConfig::new(4));
        write_file(&dfs, "/in", 100, 256);
        let tracer = Arc::new(Tracer::new());
        dfs.arm_tracer(Some(Arc::clone(&tracer)));
        let splits = dfs.splits("/in").unwrap();
        let split = &splits[0];
        let local_reader = split.locations[0];
        let remote_reader = (0..4)
            .map(NodeId)
            .find(|n| !split.locations.contains(n))
            .unwrap();
        dfs.read_split(split, local_reader).unwrap();
        dfs.read_split(split, remote_reader).unwrap();
        // Kill the primary: the same remote reader now records a
        // remote-due-to-fault read.
        dfs.mark_node_dead(split.locations[0]);
        dfs.read_split(split, remote_reader).unwrap();
        let m = tracer.finish().metrics();
        assert_eq!(m.counter(local_reader.0, CounterId::DfsReadLocal), 1);
        assert_eq!(m.counter(remote_reader.0, CounterId::DfsReadRemote), 1);
        assert_eq!(m.counter(remote_reader.0, CounterId::DfsReadRemoteFault), 1);
        assert_eq!(
            m.counter(remote_reader.0, CounterId::DfsReadBytes),
            2 * split.len as u64
        );
    }

    #[test]
    fn losing_every_replica_is_a_typed_error() {
        let dfs = Dfs::new(DfsConfig::new(2));
        let recs = records(10);
        dfs.write_records(
            "/in",
            NodeId(0),
            64,
            1, // replication 1: a single death loses the block
            recs.iter().map(|(k, v)| (k.as_slice(), v.as_slice())),
        )
        .unwrap();
        let splits = dfs.splits("/in").unwrap();
        dfs.mark_node_dead(splits[0].locations[0]);
        let err = dfs.read_split(&splits[0], NodeId(1)).unwrap_err();
        assert!(
            matches!(err, StorageError::AllReplicasLost(_)),
            "got: {err}"
        );
    }
}
