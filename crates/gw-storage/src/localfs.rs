//! Per-node local file system backend.
//!
//! Models the GPMR comparison setup of the paper: "all files are fully
//! replicated on the local file system of each node", so every read is
//! local and pays only the local-FS model (no JNI tax, no network). A file
//! written through [`LocalFs`] is visible to *all* nodes as a local file;
//! block payloads are shared behind `Arc`, so full replication costs one
//! physical copy.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::RwLock;

use crate::iomodel::{IoModel, IoSample};
use crate::split::{FileStore, InputSplit, RecordBlock};
use crate::{NodeId, StorageError};

#[derive(Debug, Clone)]
struct LocalBlock {
    data: Arc<[u8]>,
    records: usize,
}

/// The local-FS backend: every file is present on every node.
pub struct LocalFs {
    nodes: u32,
    io: IoModel,
    files: RwLock<HashMap<String, Vec<LocalBlock>>>,
}

impl LocalFs {
    /// Create a local FS shared by `nodes` nodes with the default model.
    pub fn new(nodes: u32) -> Self {
        Self::with_model(nodes, IoModel::local_fs())
    }

    /// Create with an explicit I/O model.
    pub fn with_model(nodes: u32, io: IoModel) -> Self {
        assert!(nodes > 0, "cluster must have at least one node");
        LocalFs {
            nodes,
            io,
            files: RwLock::new(HashMap::new()),
        }
    }

    /// List all file paths (sorted).
    pub fn list(&self) -> Vec<String> {
        let files = self.files.read();
        let mut paths: Vec<String> = files.keys().cloned().collect();
        paths.sort();
        paths
    }
}

impl FileStore for LocalFs {
    fn write_blocks(
        &self,
        path: &str,
        writer: NodeId,
        blocks: Vec<RecordBlock>,
        _replication: usize,
    ) -> Result<IoSample, StorageError> {
        if writer.0 >= self.nodes {
            return Err(StorageError::UnknownNode(writer));
        }
        let mut modeled = std::time::Duration::ZERO;
        let mut bytes = 0usize;
        let blocks: Vec<LocalBlock> = blocks
            .into_iter()
            .map(|(data, records)| {
                modeled += self.io.call_time(data.len(), true);
                bytes += data.len();
                LocalBlock { data, records }
            })
            .collect();
        let mut files = self.files.write();
        if files.contains_key(path) {
            return Err(StorageError::AlreadyExists(path.to_string()));
        }
        files.insert(path.to_string(), blocks);
        Ok(IoSample {
            modeled,
            bytes,
            local: true,
        })
    }

    fn splits(&self, path: &str) -> Result<Vec<InputSplit>, StorageError> {
        let files = self.files.read();
        let blocks = files
            .get(path)
            .ok_or_else(|| StorageError::NotFound(path.to_string()))?;
        let everyone: Vec<NodeId> = (0..self.nodes).map(NodeId).collect();
        Ok(blocks
            .iter()
            .enumerate()
            .map(|(i, b)| InputSplit {
                path: path.to_string(),
                block: i,
                len: b.data.len(),
                records: b.records,
                locations: everyone.clone(),
            })
            .collect())
    }

    fn read_split(
        &self,
        split: &InputSplit,
        reader: NodeId,
    ) -> Result<(Arc<[u8]>, IoSample), StorageError> {
        if reader.0 >= self.nodes {
            return Err(StorageError::UnknownNode(reader));
        }
        let files = self.files.read();
        let blocks = files
            .get(&split.path)
            .ok_or_else(|| StorageError::NotFound(split.path.clone()))?;
        let block = blocks.get(split.block).ok_or_else(|| {
            StorageError::Corrupt(format!("no block {} in {}", split.block, split.path))
        })?;
        let sample = IoSample {
            modeled: self.io.call_time(block.data.len(), true),
            bytes: block.data.len(),
            local: true,
        };
        Ok((Arc::clone(&block.data), sample))
    }

    fn exists(&self, path: &str) -> bool {
        self.files.read().contains_key(path)
    }

    fn delete(&self, path: &str) {
        self.files.write().remove(path);
    }

    fn cluster_size(&self) -> u32 {
        self.nodes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::split::FileStoreExt;

    #[test]
    fn every_node_reads_locally() {
        let fs = LocalFs::new(4);
        let recs: Vec<(Vec<u8>, Vec<u8>)> =
            (0..50).map(|i| (vec![i as u8], vec![i as u8; 3])).collect();
        fs.write_records(
            "/data",
            NodeId(0),
            64,
            1,
            recs.iter().map(|(k, v)| (k.as_slice(), v.as_slice())),
        )
        .unwrap();
        for n in 0..4 {
            let splits = fs.splits("/data").unwrap();
            for s in &splits {
                assert!(s.is_local_to(NodeId(n)));
                let (_, sample) = fs.read_split(s, NodeId(n)).unwrap();
                assert!(sample.local);
            }
        }
    }

    #[test]
    fn localfs_read_is_cheaper_than_hdfs_read() {
        let local = LocalFs::new(1);
        let hdfs_model = IoModel::hdfs();
        let bytes = 1 << 20;
        let local_cost = IoModel::local_fs().call_time(bytes, true);
        let hdfs_cost = hdfs_model.call_time(bytes, true);
        assert!(hdfs_cost > local_cost);
        drop(local);
    }

    #[test]
    fn missing_file_errors() {
        let fs = LocalFs::new(2);
        assert!(matches!(
            fs.splits("/nope").unwrap_err(),
            StorageError::NotFound(_)
        ));
    }

    #[test]
    fn roundtrip_records() {
        let fs = LocalFs::new(2);
        let recs: Vec<(Vec<u8>, Vec<u8>)> = (0..123)
            .map(|i| (format!("{i}").into_bytes(), vec![0u8; i % 7]))
            .collect();
        fs.write_records(
            "/r",
            NodeId(1),
            100,
            1,
            recs.iter().map(|(k, v)| (k.as_slice(), v.as_slice())),
        )
        .unwrap();
        assert_eq!(fs.read_all_records("/r", NodeId(0)).unwrap(), recs);
    }
}
