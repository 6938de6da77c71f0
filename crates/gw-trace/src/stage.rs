//! Pipeline stage identity shared by the whole engine.
//!
//! These enums used to live in `gw-pipeline`; they moved here because
//! trace events address stages, and the trace plane sits *below* the
//! pipeline executor in the dependency graph. `gw-pipeline` re-exports
//! them so existing paths keep working.

/// Which of the two Glasswing pipelines a stage descriptor belongs to.
/// Purely a display concern: both pipelines share the five [`StageId`]
/// slots, but the first and last stages do different jobs on each side.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PipelineKind {
    /// Input → Stage → Kernel → Retrieve → Partition (paper §III-A).
    Map,
    /// MergeRead → Stage → Kernel → Retrieve → Output (paper §III-C).
    Reduce,
}

impl PipelineKind {
    /// Lowercase display name ("map" / "reduce").
    pub fn name(self) -> &'static str {
        match self {
            PipelineKind::Map => "map",
            PipelineKind::Reduce => "reduce",
        }
    }
}

/// The five pipeline stages. Map and reduce pipelines share the enum; use
/// [`StageId::name_in`] to display a stage under the right pipeline
/// vocabulary (reduce: `merge-read/stage/kernel/retrieve/output`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum StageId {
    /// Map: read input split / Reduce: final merge read.
    Input,
    /// Host→device staging (a slot of discrete-memory graphs only).
    Stage,
    /// Kernel execution.
    Kernel,
    /// Device→host retrieval (a slot of discrete-memory graphs only).
    Retrieve,
    /// Map: partition+sort+push / Reduce: output write.
    Partition,
}

impl StageId {
    /// All stages in pipeline order.
    pub const ALL: [StageId; 5] = [
        StageId::Input,
        StageId::Stage,
        StageId::Kernel,
        StageId::Retrieve,
        StageId::Partition,
    ];

    /// Stable index 0..5.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            StageId::Input => 0,
            StageId::Stage => 1,
            StageId::Kernel => 2,
            StageId::Retrieve => 3,
            StageId::Partition => 4,
        }
    }

    /// Display name under the map-pipeline vocabulary (the historical
    /// default; reduce dumps should prefer [`StageId::name_in`]).
    pub fn name(self) -> &'static str {
        self.name_in(PipelineKind::Map)
    }

    /// Display name under `kind`'s vocabulary.
    pub fn name_in(self, kind: PipelineKind) -> &'static str {
        match (kind, self) {
            (PipelineKind::Map, StageId::Input) => "input",
            (PipelineKind::Map, StageId::Partition) => "partition",
            (PipelineKind::Reduce, StageId::Input) => "merge-read",
            (PipelineKind::Reduce, StageId::Partition) => "output",
            (_, StageId::Stage) => "stage",
            (_, StageId::Kernel) => "kernel",
            (_, StageId::Retrieve) => "retrieve",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_pipeline_display_names() {
        assert_eq!(StageId::Input.name(), "input");
        assert_eq!(StageId::Input.name_in(PipelineKind::Reduce), "merge-read");
        assert_eq!(StageId::Partition.name_in(PipelineKind::Map), "partition");
        assert_eq!(StageId::Partition.name_in(PipelineKind::Reduce), "output");
        for mid in [StageId::Stage, StageId::Kernel, StageId::Retrieve] {
            assert_eq!(
                mid.name_in(PipelineKind::Map),
                mid.name_in(PipelineKind::Reduce)
            );
        }
    }

    #[test]
    fn stage_order_matches_index() {
        for w in StageId::ALL.windows(2) {
            assert!(w[0] < w[1]);
            assert!(w[0].index() < w[1].index());
        }
        assert!(PipelineKind::Map < PipelineKind::Reduce);
    }
}
