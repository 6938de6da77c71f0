//! Analytical pipeline-schedule model.
//!
//! Given the per-chunk duration of each of the five stages and a buffering
//! level, compute when each stage of each chunk runs and the resulting
//! makespan. This encodes the paper's interlock semantics (§III-D):
//!
//! * a stage processes one chunk at a time;
//! * stage `s` of chunk `c` starts after stage `s-1` of chunk `c`;
//! * with `B` input buffers, Input of chunk `c` must wait until Kernel has
//!   finished chunk `c-B` (which frees an input buffer);
//! * with `B` output buffers, Kernel of chunk `c` must wait until
//!   Partition has finished chunk `c-B` (frees an output buffer).
//!
//! Under single buffering each group serialises internally — "the map
//! elapsed time equals the sum of the input stage and the kernel stage" —
//! while under double/triple buffering "the total elapsed time is very
//! close to the kernel execution time, which is the dominant pipeline
//! stage".
//!
//! The recurrence itself lives in [`gw_trace::bounded_buffer_schedule`]
//! (the same function the bottleneck advisor replays traces through);
//! this module fixes its topology to the single-lane map pipeline and
//! speaks `Duration`. It is used to validate the real pipeline's measured
//! elapsed time and to replay measured chunk times under a different
//! device profile (Table III(b)'s GPU column).

use std::time::Duration;

use gw_trace::{bounded_buffer_schedule, StageId, MAP_TOKEN_GROUPS};

use crate::config::Buffering;

/// Per-chunk stage durations, in pipeline order
/// `[input, stage, kernel, retrieve, partition]`.
pub type ChunkTimes = [Duration; 5];

/// Completion schedule of a pipeline run.
#[derive(Debug, Clone)]
pub struct Schedule {
    /// `end[c][s]` = completion time of stage `s` for chunk `c`,
    /// measured from pipeline start.
    pub end: Vec<[Duration; 5]>,
}

impl Schedule {
    /// Total elapsed time (completion of the last chunk's last stage).
    pub fn makespan(&self) -> Duration {
        self.end
            .last()
            .map(|stages| stages[StageId::Partition.index()])
            .unwrap_or(Duration::ZERO)
    }
}

/// Compute the full schedule for `chunks` under buffering level
/// `buffering`: one lane per stage, the input group ending at Kernel and
/// the output group at Partition (the executor's interlock endpoints).
pub fn pipeline_schedule(chunks: &[ChunkTimes], buffering: Buffering) -> Schedule {
    let nanos: Vec<[u64; 5]> = chunks
        .iter()
        .map(|c| c.map(|d| d.as_nanos() as u64))
        .collect();
    let end = bounded_buffer_schedule(&nanos, &MAP_TOKEN_GROUPS, buffering.depth(), [1; 5]);
    Schedule {
        end: end
            .into_iter()
            .map(|stages| stages.map(Duration::from_nanos))
            .collect(),
    }
}

/// Makespan only.
pub fn pipeline_makespan(chunks: &[ChunkTimes], buffering: Buffering) -> Duration {
    pipeline_schedule(chunks, buffering).makespan()
}

/// Uniform chunks helper: `n` identical chunks.
pub fn uniform_chunks(n: usize, times: ChunkTimes) -> Vec<ChunkTimes> {
    vec![times; n]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    #[test]
    fn empty_pipeline_is_zero() {
        assert_eq!(pipeline_makespan(&[], Buffering::Double), Duration::ZERO);
    }

    #[test]
    fn single_chunk_is_sum_of_stages() {
        let t = [ms(1), ms(2), ms(3), ms(4), ms(5)];
        for b in [Buffering::Single, Buffering::Double, Buffering::Triple] {
            assert_eq!(pipeline_makespan(&[t], b), ms(15));
        }
    }

    #[test]
    fn double_buffering_converges_to_dominant_stage() {
        // Kernel dominates (paper Table II, configs (i)/(ii)): elapsed ≈
        // kernel total + pipeline fill/drain.
        let chunks = uniform_chunks(50, [ms(4), ms(0), ms(10), ms(0), ms(3)]);
        let makespan = pipeline_makespan(&chunks, Buffering::Double);
        let kernel_total = ms(10 * 50);
        let slack = makespan - kernel_total;
        assert!(
            slack <= ms(10),
            "pipeline should hide non-dominant stages; slack {slack:?}"
        );
    }

    #[test]
    fn single_buffering_serialises_input_group() {
        // Paper: "the map elapsed time equals the sum of the input stage
        // and the kernel stage" under single buffering (stage/retrieve
        // disabled, partition smaller).
        let chunks = uniform_chunks(40, [ms(5), ms(0), ms(8), ms(0), ms(2)]);
        let single = pipeline_makespan(&chunks, Buffering::Single);
        let expect = ms((5 + 8) * 40);
        let diff = single.abs_diff(expect);
        assert!(
            diff <= ms(13),
            "single buffering should cost input+kernel per chunk: got {single:?}, expect {expect:?}"
        );
    }

    #[test]
    fn more_buffering_never_hurts() {
        let chunks: Vec<ChunkTimes> = (0..30)
            .map(|i| {
                [
                    ms(3 + i % 5),
                    ms(1),
                    ms(6 + (i * 7) % 4),
                    ms(1),
                    ms(4 + i % 3),
                ]
            })
            .collect();
        let single = pipeline_makespan(&chunks, Buffering::Single);
        let double = pipeline_makespan(&chunks, Buffering::Double);
        let triple = pipeline_makespan(&chunks, Buffering::Triple);
        assert!(double <= single);
        assert!(triple <= double);
    }

    #[test]
    fn makespan_is_at_least_every_stage_total() {
        let chunks = uniform_chunks(20, [ms(2), ms(1), ms(5), ms(1), ms(7)]);
        let makespan = pipeline_makespan(&chunks, Buffering::Triple);
        for s in 0..5 {
            let total: Duration = chunks.iter().map(|c| c[s]).sum();
            assert!(makespan >= total, "stage {s} total exceeds makespan");
        }
    }

    #[test]
    fn input_and_output_groups_overlap_even_with_single_buffering() {
        // One input-group-heavy load and partition-heavy tail: with a
        // single buffer per group, partition of chunk c overlaps input of
        // chunk c+1 (the groups share no buffers).
        let chunks = uniform_chunks(30, [ms(5), ms(0), ms(5), ms(0), ms(10)]);
        let makespan = pipeline_makespan(&chunks, Buffering::Single);
        // Serial would be 20ms/chunk = 600ms; the steady-state period with
        // overlapping groups is 15ms/chunk (kernel waits for the previous
        // partition, which overlaps the next input) ⇒ ≈455ms.
        assert!(makespan < ms(500), "groups failed to overlap: {makespan:?}");
        assert!(
            makespan >= ms(440),
            "model changed unexpectedly: {makespan:?}"
        );
    }

    #[test]
    fn triple_buffering_enables_full_concurrency() {
        // All stages equal: with triple buffering the pipeline becomes a
        // clean systolic array; makespan ≈ (n + 4) * t.
        let t = ms(2);
        let chunks = uniform_chunks(50, [t; 5]);
        let makespan = pipeline_makespan(&chunks, Buffering::Triple);
        assert_eq!(makespan, ms(2 * (50 + 4)));
    }
}
