//! The [`Device`] object: a compute device with its worker pool, memory
//! accounting, and transfer engines.
//!
//! This is the Glasswing middleware's view of an OpenCL device. The map and
//! reduce pipelines call [`Device::stage`] / [`Device::retrieve`] from their
//! Stage/Retrieve stages (disabled for unified memory) and
//! [`Device::launch`] from their Kernel stage. Every operation returns both
//! the *wall* duration (host execution) and the *modeled* duration (what
//! the profiled device would have taken), so instrumented experiments can
//! report either.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use crate::buffer::DeviceBuffer;
use crate::kernel::Kernel;
use crate::ndrange::NdRange;
use crate::pool::{Runner, WorkerPool};
use crate::profile::DeviceProfile;
use crate::DeviceError;

/// Timing result of one kernel launch.
#[derive(Debug, Clone, Copy)]
pub struct LaunchStats {
    /// Measured host-pool execution time.
    pub wall: Duration,
    /// Modeled device execution time (profile-transformed).
    pub modeled: Duration,
    /// Work items executed.
    pub work_items: usize,
}

/// Timing result of one stage/retrieve transfer.
#[derive(Debug, Clone, Copy)]
pub struct TransferStats {
    /// Measured host copy time (zero for unified memory — no copy happens).
    pub wall: Duration,
    /// Modeled PCIe transfer time.
    pub modeled: Duration,
    /// Bytes moved.
    pub bytes: usize,
}

/// A compute device: profile + worker pool + memory accounting.
pub struct Device {
    profile: DeviceProfile,
    pool: WorkerPool,
    allocated: AtomicUsize,
}

impl Device {
    /// Open a device described by `profile`, with a worker pool sized to
    /// the host (at most `profile.compute_units` threads).
    pub fn open(profile: DeviceProfile) -> Self {
        let host = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4);
        let threads = profile.compute_units.min(host);
        Self::open_with_threads(profile, threads)
    }

    /// Open a device with an explicit pool size. Pool size controls *real*
    /// parallelism; the profile controls *modeled* timing. The pool's
    /// workers get threads of their own, which end with the device.
    pub fn open_with_threads(profile: DeviceProfile, threads: usize) -> Self {
        Self::with_pool(profile, WorkerPool::new(threads.saturating_sub(1)))
    }

    /// As [`Device::open_with_threads`], with the pool's workers started
    /// by `run` (the engine's resident runtime).
    pub fn open_with_runner(profile: DeviceProfile, threads: usize, run: Runner<'_>) -> Self {
        Self::with_pool(
            profile,
            WorkerPool::with_runner(threads.saturating_sub(1), run),
        )
    }

    /// The calling thread participates in launches, so `pool` holds one
    /// fewer worker than the device's threads.
    fn with_pool(profile: DeviceProfile, pool: WorkerPool) -> Self {
        Device {
            profile,
            pool,
            allocated: AtomicUsize::new(0),
        }
    }

    /// The device's profile.
    pub fn profile(&self) -> &DeviceProfile {
        &self.profile
    }

    /// Whether Stage/Retrieve are no-ops for this device.
    pub fn unified_memory(&self) -> bool {
        self.profile.unified_memory
    }

    /// Execution lanes available during a launch (pool + caller).
    pub fn parallelism(&self) -> usize {
        self.pool.threads() + 1
    }

    /// Allocate a device buffer, enforcing the modeled memory capacity.
    pub fn alloc(&self, bytes: usize) -> Result<DeviceBuffer, DeviceError> {
        let mut cur = self.allocated.load(Ordering::Relaxed);
        loop {
            let available = self.profile.mem_capacity.saturating_sub(cur);
            if bytes > available {
                return Err(DeviceError::OutOfDeviceMemory {
                    requested: bytes,
                    available,
                });
            }
            match self.allocated.compare_exchange_weak(
                cur,
                cur + bytes,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return Ok(DeviceBuffer::with_capacity(bytes)),
                Err(actual) => cur = actual,
            }
        }
    }

    /// Allocate the §III-D buffer sets backing one pipeline token group:
    /// `count` equally-sized staging buffers, all-or-nothing against the
    /// modeled memory capacity.
    pub fn alloc_pool(&self, count: usize, bytes: usize) -> Result<Vec<DeviceBuffer>, DeviceError> {
        let mut pool = Vec::with_capacity(count);
        for _ in 0..count {
            match self.alloc(bytes) {
                Ok(buf) => pool.push(buf),
                Err(e) => {
                    for buf in pool {
                        self.free(buf);
                    }
                    return Err(e);
                }
            }
        }
        Ok(pool)
    }

    /// Release a buffer's device memory accounting.
    pub fn free(&self, buf: DeviceBuffer) {
        self.allocated.fetch_sub(buf.capacity(), Ordering::Relaxed);
        drop(buf);
    }

    /// Bytes currently allocated on the device.
    pub fn allocated_bytes(&self) -> usize {
        self.allocated.load(Ordering::Relaxed)
    }

    /// Stage host memory into a device buffer (the pipeline's second stage).
    ///
    /// For unified-memory devices this performs no copy and reports zero
    /// modeled time; callers should skip the stage entirely, but calling it
    /// is harmless and still fills the buffer for uniformity.
    pub fn stage(&self, host: &[u8], dev: &mut DeviceBuffer) -> Result<TransferStats, DeviceError> {
        if host.len() > dev.capacity() {
            return Err(DeviceError::TransferSizeMismatch {
                src: host.len(),
                dst: dev.capacity(),
            });
        }
        let start = Instant::now();
        dev.fill_from(host);
        let wall = start.elapsed();
        Ok(TransferStats {
            wall,
            modeled: self.profile.transfer_time(host.len(), true),
            bytes: host.len(),
        })
    }

    /// Retrieve a device buffer into host memory (the fourth stage).
    pub fn retrieve(
        &self,
        dev: &DeviceBuffer,
        host: &mut Vec<u8>,
    ) -> Result<TransferStats, DeviceError> {
        let start = Instant::now();
        host.clear();
        host.extend_from_slice(dev.bytes());
        let wall = start.elapsed();
        Ok(TransferStats {
            wall,
            modeled: self.profile.transfer_time(dev.len(), false),
            bytes: dev.len(),
        })
    }

    /// Launch a kernel over `range`, blocking until completion.
    pub fn launch(&self, range: NdRange, kernel: &dyn Kernel) -> LaunchStats {
        let start = Instant::now();
        self.pool.run(range, kernel);
        let wall = start.elapsed();
        LaunchStats {
            wall,
            modeled: self.profile.model_kernel_time(wall),
            work_items: range.global_size,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{KernelFn, WorkItemCtx};
    use std::sync::atomic::AtomicUsize;

    fn tiny_gpu() -> Device {
        let mut profile = DeviceProfile::gtx480();
        profile.mem_capacity = 1024;
        Device::open_with_threads(profile, 2)
    }

    #[test]
    fn alloc_respects_capacity() {
        let dev = tiny_gpu();
        let a = dev.alloc(600).unwrap();
        let err = dev.alloc(600).unwrap_err();
        assert!(matches!(err, DeviceError::OutOfDeviceMemory { .. }));
        dev.free(a);
        let _b = dev.alloc(600).unwrap();
    }

    #[test]
    fn alloc_pool_is_all_or_nothing() {
        let dev = tiny_gpu();
        let pool = dev.alloc_pool(2, 400).unwrap();
        assert_eq!(pool.len(), 2);
        assert_eq!(dev.allocated_bytes(), 800);
        // A pool that doesn't fit releases what it partially grabbed.
        let err = dev.alloc_pool(2, 200).unwrap_err();
        assert!(matches!(err, DeviceError::OutOfDeviceMemory { .. }));
        assert_eq!(dev.allocated_bytes(), 800);
    }

    #[test]
    fn stage_retrieve_roundtrip() {
        let dev = tiny_gpu();
        let mut buf = dev.alloc(128).unwrap();
        let payload: Vec<u8> = (0..100u8).collect();
        let s = dev.stage(&payload, &mut buf).unwrap();
        assert_eq!(s.bytes, 100);
        assert!(
            s.modeled > Duration::ZERO,
            "discrete device models transfer time"
        );
        let mut back = Vec::new();
        let r = dev.retrieve(&buf, &mut back).unwrap();
        assert_eq!(r.bytes, 100);
        assert_eq!(back, payload);
    }

    #[test]
    fn stage_too_large_fails() {
        let dev = tiny_gpu();
        let mut buf = dev.alloc(16).unwrap();
        let err = dev.stage(&[0u8; 32], &mut buf).unwrap_err();
        assert!(matches!(err, DeviceError::TransferSizeMismatch { .. }));
    }

    #[test]
    fn unified_memory_models_zero_transfer() {
        let dev = Device::open_with_threads(DeviceProfile::host(), 1);
        assert!(dev.unified_memory());
        let mut buf = dev.alloc(64).unwrap();
        let s = dev.stage(&[1, 2, 3], &mut buf).unwrap();
        assert_eq!(s.modeled, Duration::ZERO);
    }

    #[test]
    fn launch_counts_work_items() {
        let dev = tiny_gpu();
        let hits = AtomicUsize::new(0);
        let k = KernelFn(|_: &WorkItemCtx| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        let stats = dev.launch(NdRange::new(500, 32).unwrap(), &k);
        assert_eq!(stats.work_items, 500);
        assert_eq!(hits.load(Ordering::Relaxed), 500);
    }

    #[test]
    fn modeled_kernel_time_includes_launch_overhead() {
        let dev = tiny_gpu();
        let k = KernelFn(|_: &WorkItemCtx| {});
        let stats = dev.launch(NdRange::new(1, 1).unwrap(), &k);
        assert!(stats.modeled >= dev.profile().launch_overhead);
    }
}
