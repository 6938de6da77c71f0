//! Input splits and the block-store abstraction shared by both storage
//! backends (DFS and local FS).
//!
//! A split corresponds to one storage block, cut at record boundaries so
//! every split is independently parseable — the role HDFS sync markers play
//! for Hadoop. Splits carry their preferred locations so the job
//! coordinator can implement Glasswing's locality-aware allocation
//! ("Glasswing's scheduler considers file affinity in its job allocation").

use std::sync::Arc;

use crate::iomodel::IoSample;
use crate::varint;
use crate::{NodeId, StorageError};

/// One unit of map input: a record-aligned block of a stored file.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct InputSplit {
    /// File path this split belongs to.
    pub path: String,
    /// Block index within the file.
    pub block: usize,
    /// Size of the block in bytes.
    pub len: usize,
    /// Number of records in the block.
    pub records: usize,
    /// Nodes holding a replica of the block (local-read candidates).
    pub locations: Vec<NodeId>,
}

impl InputSplit {
    /// Whether `node` can read this split locally.
    pub fn is_local_to(&self, node: NodeId) -> bool {
        self.locations.contains(&node)
    }
}

/// Chaos hook for injecting per-replica read faults. Armed on a store via
/// [`FileStore::arm_fault_hook`]; a `true` return fails the read attempt
/// from that replica, making the store fall over to the next one. Unarmed
/// stores never consult a hook.
pub trait StorageFaultHook: Send + Sync {
    /// Whether this read of `path`'s block `block`, about to be served by
    /// the replica on `source`, should fail.
    fn read_fault(&self, path: &str, block: usize, source: NodeId) -> bool;
}

/// One block of a record-blocked file: its bytes, shared, and its record
/// count.
pub type RecordBlock = (Arc<[u8]>, usize);

/// Common read interface over the storage backends.
pub trait FileStore: Send + Sync {
    /// Write a record-blocked file. `blocks` are raw record streams (no
    /// header) as produced by [`RecordBlockBuilder`], with their record
    /// counts; the store keeps each block's bytes as they are handed in,
    /// without copying them. `replication` is the number of replicas per
    /// block (clamped to the cluster size).
    fn write_blocks(
        &self,
        path: &str,
        writer: NodeId,
        blocks: Vec<RecordBlock>,
        replication: usize,
    ) -> Result<IoSample, StorageError>;

    /// Enumerate the splits of a file.
    fn splits(&self, path: &str) -> Result<Vec<InputSplit>, StorageError>;

    /// Read one split on behalf of `reader`, returning the block bytes and
    /// the modeled I/O cost.
    fn read_split(
        &self,
        split: &InputSplit,
        reader: NodeId,
    ) -> Result<(Arc<[u8]>, IoSample), StorageError>;

    /// Whether `path` exists.
    fn exists(&self, path: &str) -> bool;

    /// Remove a file. Removing a missing file is not an error.
    fn delete(&self, path: &str);

    /// Number of cluster nodes this store serves.
    fn cluster_size(&self) -> u32;

    /// Arm (`Some`) or disarm (`None`) a chaos read-fault hook. Stores
    /// without fault-injection support ignore this.
    fn arm_fault_hook(&self, _hook: Option<Arc<dyn StorageFaultHook>>) {}

    /// Arm (`Some`) or disarm (`None`) the observability tracer. Stores
    /// without instrumentation support ignore this.
    fn arm_tracer(&self, _tracer: Option<Arc<gw_trace::Tracer>>) {}

    /// Mark a node dead: its replicas stop serving reads and other
    /// replicas take over. Stores without replica bookkeeping ignore this.
    fn mark_node_dead(&self, _node: NodeId) {}

    /// Reads that skipped a dead or faulted replica and were served by a
    /// surviving one.
    fn fault_failovers(&self) -> usize {
        0
    }
}

/// Extension helpers available on every [`FileStore`].
pub trait FileStoreExt: FileStore {
    /// Write a full record set, cutting blocks at `block_size`.
    fn write_records<'r>(
        &self,
        path: &str,
        writer: NodeId,
        block_size: usize,
        replication: usize,
        records: impl IntoIterator<Item = (&'r [u8], &'r [u8])>,
    ) -> Result<IoSample, StorageError> {
        let mut builder = RecordBlockBuilder::new(block_size);
        for (k, v) in records {
            builder.append(k, v);
        }
        self.write_blocks(path, writer, builder.finish(), replication)
    }

    /// Read and decode every record of a file (tests / small files).
    fn read_all_records(&self, path: &str, reader: NodeId) -> Result<crate::KvVec, StorageError> {
        let mut out = Vec::new();
        for split in self.splits(path)? {
            let (bytes, _) = self.read_split(&split, reader)?;
            let mut r = crate::seqfile::SeqReader::open_raw(&bytes);
            while let Some((k, v)) = r.next()? {
                out.push((k.to_vec(), v.to_vec()));
            }
        }
        Ok(out)
    }

    /// Total bytes of a file across its blocks.
    fn file_len(&self, path: &str) -> Result<usize, StorageError> {
        Ok(self.splits(path)?.iter().map(|s| s.len).sum())
    }
}

impl<T: FileStore + ?Sized> FileStoreExt for T {}

/// Builds record-aligned blocks: appends records and rolls to a new block
/// when the current one reaches the target size.
#[derive(Debug)]
pub struct RecordBlockBuilder {
    block_size: usize,
    blocks: Vec<(Vec<u8>, usize)>,
    current: Vec<u8>,
    current_records: usize,
}

impl RecordBlockBuilder {
    /// Target `block_size` in bytes; a block may exceed it by one record.
    pub fn new(block_size: usize) -> Self {
        RecordBlockBuilder {
            block_size: block_size.max(1),
            blocks: Vec::new(),
            current: Vec::new(),
            current_records: 0,
        }
    }

    /// Append one record to the current block, rolling first if full.
    pub fn append(&mut self, key: &[u8], value: &[u8]) {
        varint::write_len(&mut self.current, key.len());
        varint::write_len(&mut self.current, value.len());
        self.current.extend_from_slice(key);
        self.current.extend_from_slice(value);
        self.current_records += 1;
        if self.current.len() >= self.block_size {
            self.roll();
        }
    }

    fn roll(&mut self) {
        if !self.current.is_empty() {
            let data = std::mem::take(&mut self.current);
            let records = std::mem::replace(&mut self.current_records, 0);
            self.blocks.push((data, records));
        }
    }

    /// Finish, returning `(block_bytes, record_count)` pairs, each block
    /// copied once into its exact size, ready for
    /// [`FileStore::write_blocks`].
    pub fn finish(mut self) -> Vec<RecordBlock> {
        self.roll();
        let blocks = self.blocks.into_iter();
        blocks.map(|(data, n)| (data.into(), n)).collect()
    }
}

/// Cut an existing raw record stream into record-aligned blocks.
pub fn split_blocks(bytes: &[u8], block_size: usize) -> Result<Vec<RecordBlock>, StorageError> {
    let mut builder = RecordBlockBuilder::new(block_size);
    let mut reader = crate::seqfile::SeqReader::open_raw(bytes);
    while let Some((k, v)) = reader.next()? {
        builder.append(k, v);
    }
    Ok(builder.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn record(i: usize) -> (Vec<u8>, Vec<u8>) {
        (format!("key{i}").into_bytes(), vec![i as u8; i % 17])
    }

    #[test]
    fn builder_respects_block_boundaries() {
        let mut b = RecordBlockBuilder::new(64);
        for i in 0..100 {
            let (k, v) = record(i);
            b.append(&k, &v);
        }
        let blocks = b.finish();
        assert!(blocks.len() > 1);
        // Every block except possibly the last reached the target size.
        for (data, records) in &blocks[..blocks.len() - 1] {
            assert!(data.len() >= 64);
            assert!(*records > 0);
        }
        // Each block decodes independently; total records preserved.
        let total: usize = blocks
            .iter()
            .map(|(data, _)| {
                crate::seqfile::SeqReader::open_raw(data)
                    .read_all()
                    .unwrap()
                    .len()
            })
            .sum();
        assert_eq!(total, 100);
    }

    #[test]
    fn split_blocks_matches_builder() {
        let mut raw = Vec::new();
        let mut b = RecordBlockBuilder::new(50);
        for i in 0..30 {
            let (k, v) = record(i);
            varint::write_len(&mut raw, k.len());
            varint::write_len(&mut raw, v.len());
            raw.extend_from_slice(&k);
            raw.extend_from_slice(&v);
            b.append(&k, &v);
        }
        let from_raw = split_blocks(&raw, 50).unwrap();
        let from_builder = b.finish();
        assert_eq!(from_raw, from_builder);
    }

    #[test]
    fn empty_builder_produces_no_blocks() {
        assert!(RecordBlockBuilder::new(64).finish().is_empty());
    }

    proptest! {
        #[test]
        fn blocks_preserve_record_stream(
            records in proptest::collection::vec(
                (proptest::collection::vec(any::<u8>(), 0..16),
                 proptest::collection::vec(any::<u8>(), 0..48)), 0..80),
            block_size in 1usize..512)
        {
            let mut b = RecordBlockBuilder::new(block_size);
            for (k, v) in &records {
                b.append(k, v);
            }
            let blocks = b.finish();
            let mut reassembled = Vec::new();
            for (data, count) in &blocks {
                let recs = crate::seqfile::SeqReader::open_raw(data).read_all().unwrap();
                prop_assert_eq!(recs.len(), *count);
                reassembled.extend(recs);
            }
            prop_assert_eq!(reassembled, records);
        }
    }
}
