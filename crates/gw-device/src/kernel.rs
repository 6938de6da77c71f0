//! Kernel trait and per-work-item execution context.
//!
//! A [`Kernel`] corresponds to an OpenCL `__kernel` function: its `exec`
//! body runs once per work item. All data the kernel touches is captured in
//! the implementing struct (the OpenCL analogue of kernel arguments), which
//! must be `Sync` because work items run concurrently.

use std::cell::Cell;

use crate::ndrange::{partition_items, NdRange};

thread_local! {
    /// The work-group this thread is executing; 0 outside a launch.
    static GROUP_ID: Cell<usize> = const { Cell::new(0) };
}

/// The work-group the calling thread is executing right now —
/// `get_group_id(0)` for code a kernel calls without handing it the
/// [`WorkItemCtx`] (an output collector's `emit`). The pool runs a
/// group's work items back to back on one thread and publishes the id for
/// exactly that span, so inside a launch this equals
/// [`WorkItemCtx::group_id`]; outside one it is 0.
#[inline]
pub fn current_group_id() -> usize {
    GROUP_ID.with(Cell::get)
}

/// Publishes a work-group as [`current_group_id`] until dropped, then puts
/// the previous id back — also when a work item's panic unwinds through it.
pub(crate) struct GroupScope {
    outer: usize,
}

impl GroupScope {
    pub(crate) fn enter(group: usize) -> Self {
        GroupScope {
            outer: GROUP_ID.with(|id| id.replace(group)),
        }
    }
}

impl Drop for GroupScope {
    fn drop(&mut self) {
        GROUP_ID.with(|id| id.set(self.outer));
    }
}

/// Execution context handed to every work item, mirroring OpenCL's
/// `get_global_id` / `get_local_id` / `get_group_id` built-ins.
#[derive(Debug, Clone, Copy)]
pub struct WorkItemCtx {
    global_id: usize,
    global_size: usize,
    local_id: usize,
    local_size: usize,
    group_id: usize,
    num_groups: usize,
}

impl WorkItemCtx {
    pub(crate) fn new(range: &NdRange, group_id: usize, global_id: usize) -> Self {
        let (start, _) = range.group_span(group_id);
        WorkItemCtx {
            global_id,
            global_size: range.global_size,
            local_id: global_id - start,
            local_size: range.local_size,
            group_id,
            num_groups: range.num_groups(),
        }
    }

    /// Index of this work item within the whole launch (`get_global_id(0)`).
    #[inline]
    pub fn global_id(&self) -> usize {
        self.global_id
    }

    /// Total number of work items in the launch (`get_global_size(0)`).
    #[inline]
    pub fn global_size(&self) -> usize {
        self.global_size
    }

    /// Index of this work item within its work-group (`get_local_id(0)`).
    #[inline]
    pub fn local_id(&self) -> usize {
        self.local_id
    }

    /// Configured work-group size (`get_local_size(0)`).
    #[inline]
    pub fn local_size(&self) -> usize {
        self.local_size
    }

    /// Index of this work item's group (`get_group_id(0)`).
    #[inline]
    pub fn group_id(&self) -> usize {
        self.group_id
    }

    /// Number of work-groups in the launch (`get_num_groups(0)`).
    #[inline]
    pub fn num_groups(&self) -> usize {
        self.num_groups
    }

    /// The contiguous `[start, end)` slice of `n_items` records owned by
    /// this work item — the record-distribution idiom of Glasswing's
    /// middleware kernels.
    #[inline]
    pub fn my_items(&self, n_items: usize) -> (usize, usize) {
        partition_items(n_items, self.global_size, self.global_id)
    }
}

/// An NDRange kernel: `exec` runs once per work item.
pub trait Kernel: Sync {
    /// Kernel body for one work item.
    fn exec(&self, ctx: &WorkItemCtx);
}

/// Adapter turning a closure into a [`Kernel`].
pub struct KernelFn<F: Fn(&WorkItemCtx) + Sync>(pub F);

impl<F: Fn(&WorkItemCtx) + Sync> Kernel for KernelFn<F> {
    #[inline]
    fn exec(&self, ctx: &WorkItemCtx) {
        (self.0)(ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ctx_geometry_is_consistent() {
        let range = NdRange::new(10, 4).unwrap();
        let ctx = WorkItemCtx::new(&range, 2, 9);
        assert_eq!(ctx.global_id(), 9);
        assert_eq!(ctx.group_id(), 2);
        assert_eq!(ctx.local_id(), 1);
        assert_eq!(ctx.num_groups(), 3);
        assert_eq!(ctx.global_size(), 10);
    }

    #[test]
    fn my_items_partitions_records() {
        let range = NdRange::new(4, 2).unwrap();
        let ctx0 = WorkItemCtx::new(&range, 0, 0);
        let ctx3 = WorkItemCtx::new(&range, 1, 3);
        assert_eq!(ctx0.my_items(10), (0, 3));
        assert_eq!(ctx3.my_items(10), (8, 10));
    }
}
