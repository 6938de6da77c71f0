//! The Glasswing engine — a MapReduce framework that scales *vertically*
//! (fine-grained, device-level parallelism via an OpenCL-like kernel model)
//! and *horizontally* (a pipelined, push-shuffle cluster runtime).
//!
//! Rust reproduction of the system described in:
//!
//! > Ismail El-Helw, Rutger Hofman, Henri E. Bal.
//! > *Scaling MapReduce Vertically and Horizontally.* SC 2014.
//!
//! ## Architecture (paper §III)
//!
//! A job has three phases. The **map phase** and the **reduce phase** are
//! both instantiations of the 5-stage Glasswing pipeline
//! ([`map_pipeline`], [`reduce_pipeline`]); the **merge phase** runs
//! concurrently with map, exchanging partitions between nodes
//! (`gw-net`) and merging them (`gw-intermediate`), and continues after map
//! completion until all data has arrived and been merged (the *merge
//! delay*).
//!
//! ```text
//! map:    Input → Stage → Kernel → Retrieve → Partition
//! reduce: MergeRead → Stage → Kernel → Retrieve → Output
//! ```
//!
//! Stages communicate through recycling buffer pools; the pool sizes are
//! the paper's single/double/triple **buffering levels** ([`config::Buffering`]).
//! Kernels execute on a compute [`gw_device::Device`]; for unified-memory
//! devices the Stage and Retrieve stages are disabled.
//!
//! Kernel output is harvested by one of two **collectors** (paper §III-F):
//! a shared buffer pool, or a hash table with optional in-kernel combiner,
//! both stored per work-group ([`collect`]).
//!
//! The [`cluster::Cluster`] runtime executes a job over `n` in-process
//! nodes, with a locality-aware split [`coordinator`], per-node stage
//! timers ([`TimerReport`], folded from the job's trace), and a
//! [`schedule`] model that converts per-chunk stage durations into
//! pipeline makespans (used to validate the pipeline and to model
//! accelerator timing).

#![forbid(unsafe_code)]

pub mod api;
pub mod cluster;
pub mod collect;
pub mod config;
pub mod coordinator;
pub mod hash;
pub mod map_pipeline;
pub mod reduce_pipeline;
pub mod schedule;

pub use api::{Combiner, Emit, GwApp, Records};
pub use cluster::{read_job_output, Cluster, JobReport, NodeReport, RunScope};
pub use collect::{BufferPoolCollector, Collector, CollectorKind, HashTableCollector, Slots};
pub use config::{Buffering, JobConfig, LanePlan, SpeculationConfig, TimingMode};
pub use coordinator::{Coordinator, SpeculationReport};
pub use schedule::{pipeline_makespan, ChunkTimes};

pub use gw_chaos::{CrashSite, FaultPlan};
pub use gw_pipeline::{JoinHandle, Role, RoleKey, Runtime};
pub use gw_storage::NodeId;
pub use gw_trace::json;
pub use gw_trace::{
    validate_json, Advice, Anomalies, CounterId, CriticalPath, Event, EventKind, Interference,
    JobActivity, JobOverlap, LaneId, LogicalKind, MarkId, MetricsSummary, NodePerf, OverlapMatrix,
    PerfAnalysis, PipelineKind, PipelinePerf, ReadClass, Realm, ServiceStats, SpanId, StageId,
    StagePerf, StageSample, Straggler, TimerReport, Trace, Tracer,
};

/// Errors surfaced by the engine.
#[derive(Debug)]
pub enum EngineError {
    /// Underlying storage failure.
    Storage(gw_storage::StorageError),
    /// Underlying device failure.
    Device(gw_device::DeviceError),
    /// I/O failure (spills).
    Io(std::io::Error),
    /// Invalid job configuration.
    Config(String),
    /// A task kept failing after exhausting its re-execution budget
    /// (paper §III-E: failed tasks are discarded and re-executed; the
    /// budget bounds deterministic failures).
    TaskFailed(String),
    /// A node died mid-job and its work could not be recovered onto the
    /// survivors (or, on the dead node's own thread, the local death
    /// itself — tolerated and accounted by the cluster runtime).
    NodeLost(String),
    /// The job exceeded its configured wall-clock deadline
    /// ([`JobConfig::job_deadline`]) and was aborted by the watchdog.
    JobTimeout(std::time::Duration),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Storage(e) => write!(f, "storage error: {e}"),
            EngineError::Device(e) => write!(f, "device error: {e}"),
            EngineError::Io(e) => write!(f, "io error: {e}"),
            EngineError::Config(msg) => write!(f, "config error: {msg}"),
            EngineError::TaskFailed(msg) => write!(f, "task failed: {msg}"),
            EngineError::NodeLost(msg) => write!(f, "node lost: {msg}"),
            EngineError::JobTimeout(d) => {
                write!(
                    f,
                    "job exceeded deadline of {:.3}s and was aborted",
                    d.as_secs_f64()
                )
            }
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Storage(e) => Some(e),
            EngineError::Device(e) => Some(e),
            EngineError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<gw_storage::StorageError> for EngineError {
    fn from(e: gw_storage::StorageError) -> Self {
        EngineError::Storage(e)
    }
}
impl From<gw_device::DeviceError> for EngineError {
    fn from(e: gw_device::DeviceError) -> Self {
        EngineError::Device(e)
    }
}
impl From<std::io::Error> for EngineError {
    fn from(e: std::io::Error) -> Self {
        EngineError::Io(e)
    }
}

#[cfg(test)]
mod error_tests {
    use super::*;
    use std::error::Error;

    #[test]
    fn fault_variants_display_their_cause() {
        let lost = EngineError::NodeLost("node 2 stopped heartbeating".into());
        assert_eq!(lost.to_string(), "node lost: node 2 stopped heartbeating");

        let timeout = EngineError::JobTimeout(std::time::Duration::from_millis(1500));
        let msg = timeout.to_string();
        assert!(msg.contains("deadline"), "{msg}");
        assert!(msg.contains("1.500"), "{msg}");
    }

    #[test]
    fn source_chains_to_the_underlying_layer() {
        let io = EngineError::Io(std::io::Error::other("disk gone"));
        assert!(io
            .source()
            .is_some_and(|s| s.to_string().contains("disk gone")));

        let storage = EngineError::Storage(gw_storage::StorageError::AllReplicasLost(
            "/wc/in block 3".into(),
        ));
        assert!(storage
            .source()
            .is_some_and(|s| s.to_string().contains("all replicas lost")));

        assert!(EngineError::Config("bad".into()).source().is_none());
        assert!(EngineError::NodeLost("n1".into()).source().is_none());
    }
}
