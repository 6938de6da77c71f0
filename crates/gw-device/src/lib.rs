//! OpenCL-like compute-device abstraction for the Glasswing MapReduce engine.
//!
//! Glasswing (El-Helw et al., SC 2014) executes user map/reduce functions as
//! OpenCL kernels on whatever compute device a node offers: multi-core CPUs,
//! discrete GPUs, or many-core accelerators such as the Xeon Phi. This crate
//! reproduces the *programming and execution model* of that layer without
//! requiring vendor SDKs:
//!
//! * [`Kernel`] + [`WorkItemCtx`] mirror an OpenCL NDRange kernel: a function
//!   body executed by `global_size` work items, grouped into work-groups.
//! * [`pool::WorkerPool`] is the in-process "compute device": a fixed set of
//!   threads that dynamically claim work-groups, like a GPU scheduler claims
//!   thread blocks.
//! * [`DeviceBuffer`] models device memory. A device with *unified memory*
//!   (the CPU) aliases host memory, so Glasswing's Stage/Retrieve pipeline
//!   stages are disabled for it; a discrete device requires explicit copies.
//! * [`DeviceProfile`] carries the published characteristics of the devices
//!   used in the paper's evaluation (dual quad-core Xeon nodes, GTX 480,
//!   K20m, Xeon Phi) so that simulated runs can transform *measured* host
//!   execution times into *modeled* device times, preserving the relative
//!   stage weights that drive the paper's pipeline analysis.
//!
//! Kernels always execute for real (on host threads), so application output
//! is always correct; only the reported timings are transformed for
//! non-host devices.

pub mod buffer;
pub mod device;
pub mod kernel;
pub mod ndrange;
pub mod pool;
pub mod profile;

pub use buffer::DeviceBuffer;
pub use device::{Device, LaunchStats, TransferStats};
pub use kernel::{current_group_id, Kernel, KernelFn, WorkItemCtx};
pub use ndrange::NdRange;
pub use pool::{Join, Runner, Task, WorkerPool};
pub use profile::{DeviceKind, DeviceProfile};

/// Errors produced by the device layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeviceError {
    /// Requested buffer exceeds the device's modeled memory capacity.
    OutOfDeviceMemory {
        /// Bytes requested by the allocation.
        requested: usize,
        /// Bytes still available on the device.
        available: usize,
    },
    /// NDRange was invalid (zero sizes, or local does not divide global).
    InvalidNdRange(String),
    /// A transfer referenced a buffer of mismatched length.
    TransferSizeMismatch {
        /// Length of the source region.
        src: usize,
        /// Length of the destination region.
        dst: usize,
    },
}

impl std::fmt::Display for DeviceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeviceError::OutOfDeviceMemory {
                requested,
                available,
            } => write!(
                f,
                "out of device memory: requested {requested} bytes, {available} available"
            ),
            DeviceError::InvalidNdRange(msg) => write!(f, "invalid NDRange: {msg}"),
            DeviceError::TransferSizeMismatch { src, dst } => {
                write!(
                    f,
                    "transfer size mismatch: src {src} bytes, dst {dst} bytes"
                )
            }
        }
    }
}

impl std::error::Error for DeviceError {}
