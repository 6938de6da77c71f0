//! Push-based shuffle protocol messages.
//!
//! Glasswing "pushes its intermediate data to the reducer node, whereas
//! Hadoop pulls" — as soon as the map pipeline's partitioning stage has
//! sorted a chunk's partition, it ships the run to the owning node, where a
//! receiver thread adds it to the intermediate cache *while the map phase
//! is still running*. The receiver itself lives in `gw-core`: it completes
//! on the coordinator's run ledger, not on a count of
//! [`ShuffleMsg::MapDone`] markers alone.

use gw_intermediate::PartitionId;

/// Identity of one sorted run in the shuffle, independent of the node
/// that produced it: a re-executed split re-produces each run
/// byte-identically under the same tag, which is what lets receivers
/// de-duplicate it and re-request runs lost to node crashes or message
/// drops.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RunTag {
    /// Global partition the run belongs to.
    pub partition: u32,
    /// Input block the run was computed from.
    pub block: u32,
    /// The partitioning worker that built the run: its index in the
    /// chunk's partition NDRange.
    pub lane: u32,
}

/// Messages of the shuffle protocol.
#[derive(Debug)]
pub enum ShuffleMsg {
    /// A sorted run for one of the receiver's partitions.
    Partition {
        /// Global partition id.
        partition: PartitionId,
        /// Serialized sorted run bytes (refcounted; shipping a run shares
        /// the producer's arena rather than copying it).
        bytes: bytes::Bytes,
        /// Record count of the run.
        records: usize,
        /// Recovery identity.
        tag: RunTag,
    },
    /// The sender has finished its map phase (no more partitions follow).
    MapDone,
    /// Recovery protocol: the sender is missing these runs and asks their
    /// producer to re-serve them from its retention buffer.
    Resend {
        /// Identities of the missing runs.
        ids: Vec<RunTag>,
    },
}

impl ShuffleMsg {
    /// Wire size estimate used for throttling.
    pub fn wire_bytes(&self) -> usize {
        match self {
            // A 16-byte header and the 12-byte tag.
            ShuffleMsg::Partition { bytes, .. } => bytes.len() + 28,
            ShuffleMsg::MapDone => 8,
            ShuffleMsg::Resend { ids } => 8 + 12 * ids.len(),
        }
    }
}
