//! Baseline MapReduce engines the paper compares Glasswing against. Each
//! runs the *same* [`gw_core::GwApp`] applications to the same output,
//! but with its original system's execution structure — which is what
//! makes it slower:
//!
//! * [`hadoop::HadoopCluster`] — Hadoop 1.x: slot waves of sequential
//!   tasks, per-task startup, sort/spill at task end, pull shuffle;
//! * [`gpmr::GpmrCluster`] — GPMR: GPU-only kernels, all input read before
//!   computing, in-core intermediate data only;
//! * [`phoenix::PhoenixRuntime`] — Phoenix: one machine, CPU worker
//!   threads, all data in memory.
//!
//! They share one core (map and combine a split, reduce a sorted
//! partition, write and read partition files, run tasks on threads) and
//! one error, [`BaselineError`].

pub mod gpmr;
pub mod hadoop;
pub mod phoenix;
mod shared;

use gw_core::EngineError;

pub use gpmr::{GpmrCluster, GpmrConfig, GpmrReport};
pub use hadoop::{HadoopCluster, HadoopConfig, HadoopReport};
pub use phoenix::{PhoenixConfig, PhoenixReport, PhoenixRuntime};

/// A baseline job's result.
pub type Result<T> = std::result::Result<T, BaselineError>;

/// Why a baseline job failed: a Table I feature gap the model enforces,
/// or an engine (storage, input) error.
#[derive(Debug)]
pub enum BaselineError {
    /// The model runs on a single machine only (Phoenix).
    ClusterUnsupported {
        /// Nodes the store was configured with.
        nodes: u32,
    },
    /// The job's input plus intermediate data exceed the in-core budget
    /// (Phoenix has no out-of-core path).
    OutOfCore {
        /// Bytes the job needs resident.
        required: usize,
        /// The configured budget.
        budget: usize,
    },
    /// Intermediate data exceeded the in-core budget (GPMR cannot spill).
    IntermediateOverflow {
        /// Bytes the job produced.
        produced: usize,
        /// The configured budget.
        budget: usize,
    },
    /// Underlying engine error: a storage failure or corrupt input.
    Engine(EngineError),
}

impl std::fmt::Display for BaselineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BaselineError::ClusterUnsupported { nodes } => {
                write!(f, "phoenix runs on a single node, store has {nodes}")
            }
            BaselineError::OutOfCore { required, budget } => write!(
                f,
                "phoenix is in-core only: needs {required} bytes, budget {budget}"
            ),
            BaselineError::IntermediateOverflow { produced, budget } => write!(
                f,
                "intermediate data ({produced} bytes) exceeds GPMR's in-core budget ({budget} bytes)"
            ),
            BaselineError::Engine(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for BaselineError {}

impl From<gw_storage::StorageError> for BaselineError {
    fn from(e: gw_storage::StorageError) -> Self {
        BaselineError::Engine(EngineError::Storage(e))
    }
}
