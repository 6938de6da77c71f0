//! Discrete-event cluster simulator for the Glasswing reproduction.
//!
//! The paper's horizontal-scalability experiments (Figs. 2 and 3) run five
//! applications on up to 64 DAS-4 nodes under three frameworks (Glasswing,
//! Hadoop, GPMR), on CPUs and GPUs, over HDFS and local file systems. This
//! crate simulates those experiments: a general discrete-event engine
//! ([`engine`]) with FIFO multi-server resources and counting semaphores,
//! plus per-framework job models that reproduce each system's execution
//! *structure*:
//!
//! * [`glasswing_model`] — the 5-stage pipeline with buffer interlocks,
//!   overlap of I/O/PCIe/kernel/partition, push shuffle during map,
//!   background merging (merge delay), and a pipelined reduce;
//! * [`hadoop_model`] — slot waves, per-task JVM startup, sequential
//!   in-task processing, pull shuffle strictly after map;
//! * [`gpmr_model`] — read-all then compute (no overlap), GPU-only,
//!   in-core intermediate data.
//!
//! Model parameters ([`params`]) are calibrated in two ways: device and
//! interconnect characteristics come from the published hardware specs
//! (`gw-device` profiles, GbE/IPoIB), and per-application service demands
//! (seconds per MB of input on the 16-thread Type-1 node) are set so the
//! single-node Glasswing-CPU times sit in the range the paper reports,
//! with every constant documented at its definition. The *shape* of the
//! output — who wins, by what factor, where curves cross — emerges from
//! the structural models, not from per-figure tuning.

pub mod engine;
pub mod glasswing_model;
pub mod gpmr_model;
pub mod hadoop_model;
pub mod params;
pub mod sweep;

pub use engine::{ResourceId, SemaphoreId, Sim};
pub use params::{AppParams, ClusterParams, DeviceClass, StorageKind};
pub use sweep::{simulate, FrameworkKind, SimResult};
