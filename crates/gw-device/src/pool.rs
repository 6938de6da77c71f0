//! The NDRange worker pool — the in-process "compute device".
//!
//! OpenCL runtimes schedule work-groups dynamically onto compute units; this
//! pool reproduces that model with a fixed set of host threads that claim
//! work-groups from a shared atomic counter. Dynamic claiming (rather than
//! static striping) matters for MapReduce kernels because record processing
//! cost is highly skewed (e.g. WordCount lines vary in length), and it is
//! exactly what makes Glasswing's fine-grained parallelism adapt to
//! "the distinct capabilities of a variety of compute devices".
//!
//! The calling thread participates in execution, so a pool of `n` threads
//! provides `n + 1` lanes during a launch and a pool is usable even with
//! zero background threads (useful for deterministic tests).
//!
//! Where the workers run is the caller's choice ([`WorkerPool::with_runner`]):
//! the engine runs them on its resident runtime, [`WorkerPool::new`] on
//! threads of their own.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::{Condvar, Mutex};

use crate::kernel::{GroupScope, Kernel, WorkItemCtx};
use crate::ndrange::NdRange;

/// A raw, lifetime-erased pointer to the kernel of an in-flight launch.
///
/// SAFETY: `WorkerPool::run` blocks until every work-group has executed, so
/// the pointee outlives all dereferences. The pointer is only dereferenced
/// by worker threads between job receipt and job completion.
struct KernelPtr(*const (dyn Kernel + 'static));

// SAFETY: `dyn Kernel` is `Sync`, so sharing the pointer across the pool's
// threads for the duration of the (blocking) launch is sound.
unsafe impl Send for KernelPtr {}
unsafe impl Sync for KernelPtr {}

/// One kernel launch in flight.
struct Job {
    kernel: KernelPtr,
    range: NdRange,
    /// Next work-group to claim.
    next_group: AtomicUsize,
    /// Work-groups fully executed so far.
    groups_done: AtomicUsize,
    /// Set if any work item panicked.
    panicked: AtomicBool,
    /// Completion signalling for the launching thread.
    done_lock: Mutex<bool>,
    done_cv: Condvar,
}

impl Job {
    /// Claim and execute work-groups until the job is exhausted.
    /// Returns `true` if this call completed the final group.
    fn work(&self) -> bool {
        let num_groups = self.range.num_groups();
        let mut finished_last = false;
        loop {
            let group = self.next_group.fetch_add(1, Ordering::Relaxed);
            if group >= num_groups {
                break;
            }
            let result = catch_unwind(AssertUnwindSafe(|| {
                let _group = GroupScope::enter(group);
                let (start, end) = self.range.group_span(group);
                for gid in start..end {
                    let ctx = WorkItemCtx::new(&self.range, group, gid);
                    // SAFETY: see `KernelPtr` — the launch is still blocked
                    // in `run`, so the kernel is alive.
                    unsafe { (*self.kernel.0).exec(&ctx) };
                }
            }));
            if result.is_err() {
                self.panicked.store(true, Ordering::Relaxed);
            }
            let done = self.groups_done.fetch_add(1, Ordering::AcqRel) + 1;
            if done == num_groups {
                let mut flag = self.done_lock.lock();
                *flag = true;
                self.done_cv.notify_all();
                finished_last = true;
            }
        }
        finished_last
    }

    fn wait(&self) {
        let mut flag = self.done_lock.lock();
        while !*flag {
            self.done_cv.wait(&mut flag);
        }
    }
}

/// A task a [`Runner`] starts: one pool worker's whole life.
pub type Task = Box<dyn FnOnce() + Send>;

/// Waits for a task a [`Runner`] started to return.
pub type Join = Box<dyn FnOnce() + Send + Sync>;

/// Starts worker `i` of a pool on some thread; called once per worker
/// when the pool is built.
pub type Runner<'a> = &'a dyn Fn(usize, Task) -> Join;

/// A fixed-size pool of worker threads executing NDRange kernel launches.
pub struct WorkerPool {
    tx: Sender<Arc<Job>>,
    workers: Vec<Join>,
    threads: usize,
}

impl WorkerPool {
    /// A pool with `threads` background workers, each on a thread of its
    /// own that ends with the pool.
    ///
    /// `threads == 0` is allowed: launches then run entirely on the calling
    /// thread, which is useful for deterministic unit tests.
    pub fn new(threads: usize) -> Self {
        Self::with_runner(threads, &|i, task| {
            let handle = std::thread::Builder::new()
                .name(format!("gw-compute-{i}"))
                .spawn(task)
                .expect("spawn compute worker");
            Box::new(move || {
                let _ = handle.join();
            })
        })
    }

    /// A pool with `threads` background workers started by `run`. Each
    /// worker serves launches until the pool is dropped, which waits for
    /// every worker to return.
    pub fn with_runner(threads: usize, run: Runner<'_>) -> Self {
        let (tx, rx): (Sender<Arc<Job>>, Receiver<Arc<Job>>) = unbounded();
        let workers = (0..threads)
            .map(|i| {
                let rx = rx.clone();
                run(
                    i,
                    Box::new(move || {
                        while let Ok(job) = rx.recv() {
                            job.work();
                        }
                    }),
                )
            })
            .collect();
        WorkerPool {
            tx,
            workers,
            threads,
        }
    }

    /// Number of background worker threads.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Execute `kernel` over `range`, blocking until all work items finish.
    ///
    /// The calling thread participates in execution. Panics in work items
    /// are caught on the workers and re-raised here, so a buggy kernel
    /// cannot take down pool threads.
    pub fn run(&self, range: NdRange, kernel: &dyn Kernel) {
        // SAFETY: we block on `job.wait()` below before returning, so the
        // erased borrow cannot outlive the kernel.
        let kernel_static: *const (dyn Kernel + 'static) = unsafe {
            std::mem::transmute::<*const dyn Kernel, *const (dyn Kernel + 'static)>(kernel)
        };
        let job = Arc::new(Job {
            kernel: KernelPtr(kernel_static),
            range,
            next_group: AtomicUsize::new(0),
            groups_done: AtomicUsize::new(0),
            panicked: AtomicBool::new(false),
            done_lock: Mutex::new(false),
            done_cv: Condvar::new(),
        });
        // Wake every worker: each will claim groups until exhaustion. Extra
        // wakeups are cheap (they find `next_group` past the end).
        for _ in 0..self.threads {
            // Ignore send failure: only possible if workers exited, in which
            // case the calling thread still executes the whole launch below.
            let _ = self.tx.send(Arc::clone(&job));
        }
        job.work();
        job.wait();
        if job.panicked.load(Ordering::Relaxed) {
            panic!("kernel work item panicked during launch");
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Close the channel; workers exit once in-flight jobs are drained.
        let (dead_tx, _) = unbounded();
        self.tx = dead_tx;
        for join in self.workers.drain(..) {
            join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{current_group_id, KernelFn};
    use std::sync::atomic::AtomicU64;

    #[test]
    fn executes_every_work_item_exactly_once() {
        let pool = WorkerPool::new(4);
        let n = 10_007; // prime, exercises the partial final group
        let hits: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
        let kernel = KernelFn(|ctx: &WorkItemCtx| {
            hits[ctx.global_id()].fetch_add(1, Ordering::Relaxed);
        });
        pool.run(NdRange::new(n, 64).unwrap(), &kernel);
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn zero_thread_pool_runs_on_caller() {
        let pool = WorkerPool::new(0);
        let sum = AtomicU64::new(0);
        let kernel = KernelFn(|ctx: &WorkItemCtx| {
            sum.fetch_add(ctx.global_id() as u64, Ordering::Relaxed);
        });
        pool.run(NdRange::new(100, 16).unwrap(), &kernel);
        assert_eq!(sum.load(Ordering::Relaxed), 99 * 100 / 2);
    }

    #[test]
    fn sequential_launches_reuse_pool() {
        let pool = WorkerPool::new(2);
        for round in 1..=5usize {
            let count = AtomicUsize::new(0);
            let kernel = KernelFn(|_ctx: &WorkItemCtx| {
                count.fetch_add(1, Ordering::Relaxed);
            });
            pool.run(NdRange::new(round * 100, 32).unwrap(), &kernel);
            assert_eq!(count.load(Ordering::Relaxed), round * 100);
        }
    }

    #[test]
    fn concurrent_launches_from_many_threads_are_isolated() {
        // A pool is shared by the map and compaction kernels (and by the
        // partitioning pool's caller): concurrent `run` calls must each
        // execute their own work items exactly once.
        let pool = std::sync::Arc::new(WorkerPool::new(3));
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let pool = std::sync::Arc::clone(&pool);
                std::thread::spawn(move || {
                    let count = AtomicUsize::new(0);
                    let kernel = KernelFn(|_: &WorkItemCtx| {
                        count.fetch_add(1, Ordering::Relaxed);
                    });
                    for round in 1..=10usize {
                        pool.run(NdRange::new(round * 50 + t, 16).unwrap(), &kernel);
                    }
                    count.load(Ordering::Relaxed)
                })
            })
            .collect();
        for (t, h) in handles.into_iter().enumerate() {
            let total = h.join().unwrap();
            let expect: usize = (1..=10).map(|r| r * 50 + t).sum();
            assert_eq!(total, expect, "thread {t}");
        }
    }

    #[test]
    fn ambient_group_id_matches_the_ctx_on_every_pool_size() {
        for threads in [0, 1, 3] {
            let pool = WorkerPool::new(threads);
            let items = AtomicUsize::new(0);
            let kernel = KernelFn(|ctx: &WorkItemCtx| {
                assert_eq!(current_group_id(), ctx.group_id());
                items.fetch_add(1, Ordering::Relaxed);
            });
            pool.run(NdRange::new(100, 16).unwrap(), &kernel);
            assert_eq!(items.load(Ordering::Relaxed), 100, "threads={threads}");
            assert_eq!(current_group_id(), 0, "back to 0 after run");
        }
    }

    #[test]
    fn ambient_group_id_is_restored_after_a_kernel_panic() {
        // Zero background threads: every group, the panicking last one
        // included, runs on this thread.
        let pool = WorkerPool::new(0);
        let bad = KernelFn(|ctx: &WorkItemCtx| {
            assert_eq!(current_group_id(), ctx.group_id());
            if ctx.group_id() == 3 {
                panic!("boom");
            }
        });
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run(NdRange::new(8, 2).unwrap(), &bad)
        }));
        assert!(caught.is_err());
        assert_eq!(current_group_id(), 0);
    }

    #[test]
    fn concurrent_launches_do_not_see_each_others_group_id() {
        // Two launches with different geometries share the pool's threads;
        // the barrier keeps both in flight at once. A work item must read
        // the group of *its* launch, whichever launch the thread served
        // before.
        let pool = std::sync::Arc::new(WorkerPool::new(3));
        let both_running = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            for local in [1usize, 5] {
                let (pool, both_running) = (&pool, &both_running);
                s.spawn(move || {
                    let kernel = KernelFn(|ctx: &WorkItemCtx| {
                        if ctx.global_id() == 0 {
                            both_running.wait();
                        }
                        assert_eq!(ctx.local_size(), local);
                        assert_eq!(current_group_id(), ctx.global_id() / local);
                    });
                    pool.run(NdRange::new(40, local).unwrap(), &kernel);
                    assert_eq!(current_group_id(), 0);
                });
            }
        });
    }

    #[test]
    #[should_panic(expected = "kernel work item panicked")]
    fn kernel_panic_propagates_to_caller() {
        let pool = WorkerPool::new(2);
        let kernel = KernelFn(|ctx: &WorkItemCtx| {
            if ctx.global_id() == 17 {
                panic!("boom");
            }
        });
        pool.run(NdRange::new(64, 8).unwrap(), &kernel);
    }

    #[test]
    fn pool_survives_kernel_panic() {
        let pool = WorkerPool::new(2);
        let bad = KernelFn(|_: &WorkItemCtx| panic!("boom"));
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run(NdRange::new(8, 2).unwrap(), &bad)
        }));
        assert!(caught.is_err());
        // The pool remains usable afterwards.
        let count = AtomicUsize::new(0);
        let good = KernelFn(|_: &WorkItemCtx| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        pool.run(NdRange::new(128, 16).unwrap(), &good);
        assert_eq!(count.load(Ordering::Relaxed), 128);
    }
}
