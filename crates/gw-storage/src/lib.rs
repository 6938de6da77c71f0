//! Storage substrate for the Glasswing reproduction.
//!
//! The paper evaluates Glasswing against Hadoop with both frameworks reading
//! through **HDFS** (deployed over IP-over-InfiniBand, replication factor 3,
//! accessed via libhdfs/JNI) and, for the GPMR comparison and some GPU
//! experiments, through the nodes' **local file systems**. The measured gap
//! between the two (paper Fig. 3(d)/(e)) is attributed to HDFS overhead,
//! "the most important source being Java/native switches and data transfers
//! through JNI".
//!
//! This crate provides both backends:
//!
//! * [`dfs::Dfs`] — an HDFS-like distributed block store: a namenode-style
//!   metadata map, per-node block replicas, locality-aware reads, and an
//!   [`iomodel::IoModel`] that charges bandwidth plus a per-call overhead
//!   tax reproducing the JNI penalty.
//! * [`localfs::LocalFs`] — per-node private files with a cheaper model.
//! * [`seqfile`] — a SequenceFile-like length-prefixed record format, the
//!   serialization used for job input and output ("the Hadoop applications
//!   use Hadoop's SequenceFile API to efficiently serialize input and
//!   output").
//! * [`split`] — input splits with preferred (block-holding) nodes, feeding
//!   Glasswing's locality-aware job allocation.

pub mod dfs;
pub mod iomodel;
pub mod localfs;
pub mod seqfile;
pub mod split;
pub mod varint;

pub use dfs::{Dfs, DfsConfig};
pub use iomodel::{IoModel, IoSample};
pub use localfs::LocalFs;
pub use seqfile::{SeqReader, SeqWriter};
pub use split::{split_blocks, InputSplit, StorageFaultHook};

/// An owned key/value record list — the currency of job input/output.
pub type KvVec = Vec<(Vec<u8>, Vec<u8>)>;

/// Identifier of a cluster node. Node 0 is conventionally the master.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The node's index, for vector addressing.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "node{}", self.0)
    }
}

/// Errors from the storage layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// Path does not exist.
    NotFound(String),
    /// Path already exists and overwrite was not requested.
    AlreadyExists(String),
    /// A record or file was malformed.
    Corrupt(String),
    /// Operation referenced an unknown node.
    UnknownNode(NodeId),
    /// Every replica of a block is unreadable (its nodes are dead or its
    /// reads keep faulting), so the data is gone.
    AllReplicasLost(String),
}

impl std::fmt::Display for StorageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StorageError::NotFound(p) => write!(f, "not found: {p}"),
            StorageError::AlreadyExists(p) => write!(f, "already exists: {p}"),
            StorageError::Corrupt(msg) => write!(f, "corrupt data: {msg}"),
            StorageError::UnknownNode(n) => write!(f, "unknown node: {n}"),
            StorageError::AllReplicasLost(what) => {
                write!(f, "all replicas lost: {what}")
            }
        }
    }
}

impl std::error::Error for StorageError {}
