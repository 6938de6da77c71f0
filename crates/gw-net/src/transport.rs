//! The push-based shuffle's one message: a sorted run.
//!
//! Glasswing "pushes its intermediate data to the reducer node, whereas
//! Hadoop pulls" — as soon as the map pipeline's partitioning stage has
//! sorted a chunk's partition, it ships the run to the owning node, where a
//! receiver thread adds it to the intermediate cache *while the map phase
//! is still running*. The receiver itself lives in `gw-core`: it completes
//! on the coordinator's run ledger, and a run that never arrives is re-made
//! by re-running its split, not re-sent.

/// Identity of one sorted run in the shuffle, independent of the node
/// that produced it: a re-executed split re-produces each run
/// byte-identically under the same tag, which is what lets receivers
/// de-duplicate it and tell which runs a node still lacks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RunTag {
    /// Global partition the run belongs to.
    pub partition: u32,
    /// Input block the run was computed from.
    pub block: u32,
    /// The partitioning worker that built the run: its index in the
    /// chunk's partition NDRange.
    pub lane: u32,
}

/// A sorted run for one of the receiver's partitions (`tag.partition`).
#[derive(Debug)]
pub struct ShuffleRun {
    /// Recovery identity.
    pub tag: RunTag,
    /// Serialized sorted run bytes (refcounted; shipping a run shares the
    /// producer's arena rather than copying it).
    pub bytes: bytes::Bytes,
    /// Record count of the run.
    pub records: usize,
}

impl ShuffleRun {
    /// Wire size estimate used for throttling: the run, a 16-byte header
    /// and the 12-byte tag.
    pub fn wire_bytes(&self) -> usize {
        self.bytes.len() + 28
    }
}
