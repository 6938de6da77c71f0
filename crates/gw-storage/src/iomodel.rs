//! Storage I/O timing model.
//!
//! The paper's HDFS-vs-local-FS results hinge on two effects this model
//! captures:
//!
//! 1. **Per-call overhead** — every HDFS read crosses Java/native boundaries
//!    ("Java/native switches and data transfers through JNI"); the local FS
//!    pays only a syscall.
//! 2. **Bandwidth and locality** — replication factor 3 means "almost all
//!    file accesses are local", but remote block reads pay network
//!    bandwidth instead of disk bandwidth.

use std::time::Duration;

/// Timing parameters for one storage backend.
#[derive(Debug, Clone)]
pub struct IoModel {
    /// Fixed cost charged per read/write call (JNI tax for HDFS).
    pub per_call_overhead: Duration,
    /// Streaming bandwidth for local (on-node) data, bytes/second.
    pub local_bandwidth: f64,
    /// Streaming bandwidth for remote (off-node) data, bytes/second.
    pub remote_bandwidth: f64,
    /// Multiplier on byte-movement cost, modeling copy amplification
    /// (e.g. HDFS data passing through JNI buffers is copied extra times).
    pub copy_amplification: f64,
}

impl IoModel {
    /// HDFS-like model: high per-call overhead and copy amplification (JNI),
    /// software-RAID disk locally, IPoIB remotely.
    pub fn hdfs() -> Self {
        IoModel {
            per_call_overhead: Duration::from_micros(120),
            local_bandwidth: 140.0e6,
            remote_bandwidth: 400.0e6,
            copy_amplification: 1.8,
        }
    }

    /// Local-FS model: syscall-only overhead, raw disk bandwidth.
    pub fn local_fs() -> Self {
        IoModel {
            per_call_overhead: Duration::from_micros(4),
            local_bandwidth: 180.0e6,
            remote_bandwidth: 0.0, // local FS has no remote path
            copy_amplification: 1.0,
        }
    }

    /// A free model (zero cost) for correctness-only runs.
    pub fn free() -> Self {
        IoModel {
            per_call_overhead: Duration::ZERO,
            local_bandwidth: f64::INFINITY,
            remote_bandwidth: f64::INFINITY,
            copy_amplification: 1.0,
        }
    }

    /// Modeled duration for moving `bytes` in one call.
    pub fn call_time(&self, bytes: usize, local: bool) -> Duration {
        let bw = if local {
            self.local_bandwidth
        } else {
            self.remote_bandwidth
        };
        let stream = if bw.is_finite() && bw > 0.0 {
            Duration::from_secs_f64(bytes as f64 * self.copy_amplification / bw)
        } else {
            Duration::ZERO
        };
        self.per_call_overhead + stream
    }
}

/// One I/O operation's cost.
#[derive(Debug, Clone, Copy, Default)]
pub struct IoSample {
    /// Modeled duration of the operation.
    pub modeled: Duration,
    /// Bytes moved.
    pub bytes: usize,
    /// Whether the data was served from the local node.
    pub local: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hdfs_is_costlier_than_local_fs() {
        let hdfs = IoModel::hdfs();
        let local = IoModel::local_fs();
        let n = 1 << 20;
        assert!(hdfs.call_time(n, true) > local.call_time(n, true));
    }

    #[test]
    fn remote_read_is_costlier_when_network_is_slower() {
        let hdfs = IoModel::hdfs();
        // HDFS remote goes over IPoIB which is faster than local spinning
        // disk in the DAS-4 setup; just check both paths are finite and > 0.
        assert!(hdfs.call_time(1 << 20, false) > Duration::ZERO);
        assert!(hdfs.call_time(1 << 20, true) > Duration::ZERO);
    }

    #[test]
    fn free_model_is_zero_cost() {
        let free = IoModel::free();
        assert_eq!(free.call_time(1 << 30, true), Duration::ZERO);
        assert_eq!(free.call_time(1 << 30, false), Duration::ZERO);
    }
}
