//! The Glasswing stage-graph executor.
//!
//! Both Glasswing pipelines — map (`Input → Stage → Kernel → Retrieve →
//! Partition`, paper §III-A) and reduce (`MergeRead → Stage → Kernel →
//! Retrieve → Output`, §III-C) — are instantiations of the same shape: a
//! pulling source followed by a chain of bounded stages, overlapped by the
//! buffering-level interlock of §III-D. This crate owns that shape once:
//!
//! * [`Source`] / [`Stage`] — the per-stage logic (one `next_chunk` /
//!   `run_chunk` call per chunk plus lifecycle hooks), written without any
//!   channel wiring, crash probing or timer bookkeeping;
//! * [`PipelineBuilder`] — wires N stages through one-chunk handoff cells
//!   and circulates [`Buffering`]`::{Single,Double,Triple}` buffer tokens
//!   (`B` in-flight chunks per token group), every handoff decision one
//!   method of a state behind one lock; a stage that has nothing to do on a
//!   device (on unified memory "the input stager is disabled") is simply
//!   not added;
//! * the four cross-cutting concerns previously copy-pasted per stage:
//!   crash-site probing between chunks ([`PipelineProbe`]), dead/abort-flag
//!   checking, wall+modeled span accounting on the `gw-trace` lanes, and error
//!   unwinding that closes the whole graph;
//! * [`Runtime`] — the resident threads every engine task runs on, parked
//!   between jobs and keyed by `(physical node, role, lane)`;
//! * [`run_task_with_retries`] — the §III-E task re-execution loop
//!   ("if a task fails, its partial output is discarded and its input is
//!   rescheduled for processing") shared by both kernel stages.

pub mod executor;
pub mod runtime;

pub use executor::{
    run_task_with_retries, token_pool, LaneSource, PipelineBuilder, PipelineProbe, PipelineStats,
    PoolGet, PoolPut, RetryExhausted, Source, Stage, StageCtx,
};
pub use gw_trace::{PipelineKind, StageId};
pub use runtime::{JoinHandle, Role, RoleKey, Runtime, Scope, ScopedJoinHandle};

/// Pipeline buffering level (paper §III-D).
///
/// Each token group declared on a [`PipelineBuilder`] (the map pipeline's
/// *input group* Input→Kernel and *output group* Kernel→Partition) admits
/// this many chunks at a time. `Single` interlocks each group internally
/// (the two groups still overlap each other); `Triple` lets all five
/// stages run fully concurrently.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Buffering {
    /// One buffer set per group.
    Single,
    /// Two buffer sets per group (the paper's default configuration).
    Double,
    /// Three buffer sets per group.
    Triple,
}

impl Buffering {
    /// Number of buffer sets per group.
    #[inline]
    pub fn depth(self) -> usize {
        match self {
            Buffering::Single => 1,
            Buffering::Double => 2,
            Buffering::Triple => 3,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffering_depths() {
        assert_eq!(Buffering::Single.depth(), 1);
        assert_eq!(Buffering::Double.depth(), 2);
        assert_eq!(Buffering::Triple.depth(), 3);
    }
}
