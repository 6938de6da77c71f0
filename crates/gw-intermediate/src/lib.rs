//! Intermediate-data management for the Glasswing MapReduce engine.
//!
//! Paper §III-B: "each cluster node runs an independent group of threads to
//! manage intermediate data", with three components this crate implements:
//!
//! 1. an **in-memory cache** of partitions, merged and flushed to disk when
//!    their aggregate size exceeds half the node's memory budget — and, while
//!    the map runs, merged in memory tier by tier, so the reduce opens a
//!    few long runs;
//! 2. a **receiver path** adding partitions produced by other nodes;
//! 3. **continuous multi-way merging** of on-disk partitions so the number
//!    of intermediate files stays below a count the budget derives.
//!
//! "All intermediate data Partitions residing in the cache or disk are
//! stored in a serialized and compressed form" — see [`compress`] for the
//! in-repo LZ codec. The **merge delay** — "the time dedicated to merging
//! intermediate data after the completion of the map phase and before
//! reduction starts" — is measured by [`store::IntermediateStore`] and is
//! the metric of paper Fig. 4(b).

pub mod compress;
pub mod cursor;
pub mod frame;
pub mod gauge;
pub mod kv;
pub mod merge;
pub mod pool;
mod radix;
pub mod store;
pub mod tempdir;

pub use cursor::{MemCursor, PartCursor, RunCursor, SpillCursor};
pub use frame::{SpillFaultHook, SpillOp};
pub use gauge::MemGauge;
pub use kv::{Run, RunBuilder};
pub use merge::{merge_runs, sort_runs, CursorMerge, GroupSlice, GroupedCursorMerge, MergeIter};
pub use pool::{PooledSortBuf, RunPool};
pub use radix::{key_head, shared_prefix, SortBuf, SortRef};
pub use store::{
    IntermediateConfig, IntermediateStore, MergerJoin, MergerRunner, MergerTask, StoreMetrics,
};
pub use tempdir::TempDir;

/// Identifier of an intermediate-data partition (0..P per job).
pub type PartitionId = u32;
