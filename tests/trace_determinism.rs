//! The observability plane's determinism contract (ISSUE: satellite 1).
//!
//! Events carry logical identity (chunk sequence numbers, typed marks,
//! counter deltas) separately from wall timing; `Trace::logical_events`
//! strips the timing. For a fixed `(seed, JobConfig)` the projected
//! stream must be identical
//!
//! * across repeated runs (scheduling noise, token contention and
//!   allocator behaviour must not leak into event identity), and
//! * across buffering levels B ∈ {1, 2, 3} — deeper buffering changes
//!   *when* stages wait, never *what* the pipeline does, because the
//!   executor brackets every token acquire in a wait span whether or not
//!   it blocks.
//!
//! The contract is per-lane ordering only: cross-lane interleaving is
//! undefined, which is why the projection walks lanes in canonical
//! `LaneId` order rather than by timestamp.

use std::sync::Arc;

use proptest::prelude::*;

use glasswing::apps::WordCount;
use glasswing::core::{LaneId, LogicalKind};
use glasswing::intermediate::IntermediateConfig;
use glasswing::prelude::*;

/// Deterministic pseudo-text: the seed fully determines every line, so
/// two runs over `input(seed, lines)` read byte-identical corpora.
fn input_lines(seed: u64, lines: usize) -> Vec<(Vec<u8>, Vec<u8>)> {
    let mut x = seed | 1;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    const WORDS: [&str; 8] = [
        "glasswing",
        "scales",
        "mapreduce",
        "vertically",
        "horizontally",
        "pipeline",
        "shuffle",
        "kernel",
    ];
    (0..lines)
        .map(|i| {
            let n = 1 + (next() % 6) as usize;
            let line = (0..n)
                .map(|_| WORDS[(next() % WORDS.len() as u64) as usize])
                .collect::<Vec<_>>()
                .join(" ");
            (format!("{i:04}").into_bytes(), line.into_bytes())
        })
        .collect()
}

fn job_config(buffering: Buffering) -> JobConfig {
    let mut cfg = JobConfig::new("/det/in", "/det/out");
    // Single node, one thread per pool: every lane keeps exactly one
    // writer, so per-lane emission order is program order.
    cfg.device_threads = 1;
    cfg.partition_threads = 1;
    cfg.buffering = buffering;
    cfg.collector_capacity = 1 << 16;
    cfg.memory_budget = Some(IntermediateConfig::MIN_MEMORY_BUDGET);
    cfg.output_replication = 1;
    cfg
}

/// Run the job and project the trace down to its logical event stream.
fn logical_run(records: &[(Vec<u8>, Vec<u8>)], buffering: Buffering) -> Vec<(LaneId, LogicalKind)> {
    logical_run_lanes(records, buffering, 1)
}

/// As [`logical_run`], with the map kernel slot widened to `kernel_lanes`
/// (DESIGN.md §3.9). The kernel slot is the one whose widening keeps the
/// full logical stream deterministic out of the box: every sub-lane is a
/// single-writer trace lane and chunk→lane assignment is round-robin by
/// sequence number. (Widened *input* lanes overlap DFS reads, which
/// interleaves `DfsRead` marks on the shared per-node storage lane in
/// wall order; widened *partition* lanes race run-pool reuse. Output
/// bytes and per-stage-lane chunk streams stay deterministic either way.)
fn logical_run_lanes(
    records: &[(Vec<u8>, Vec<u8>)],
    buffering: Buffering,
    kernel_lanes: usize,
) -> Vec<(LaneId, LogicalKind)> {
    let dfs = Arc::new(Dfs::new(DfsConfig::new(1).free_io()));
    dfs.write_records(
        "/det/in",
        NodeId(0),
        256,
        1,
        records.iter().map(|(k, v)| (k.as_slice(), v.as_slice())),
    )
    .unwrap();
    let cluster = Cluster::new(dfs, NetProfile::unlimited());
    let mut cfg = job_config(buffering);
    cfg.lane_plan.kernel = kernel_lanes;
    let report = cluster.run(Arc::new(WordCount::new()), &cfg).unwrap();
    assert!(report.trace.event_count() > 0, "armed tracer saw no events");
    report.trace.logical_events()
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 6,
        .. ProptestConfig::default()
    })]

    /// Three runs of the same `(seed, JobConfig)` produce identical
    /// logical event sequences, at every buffering level.
    #[test]
    fn repeated_runs_replay_the_same_logical_stream(
        seed in any::<u64>(),
        lines in 4usize..32,
    ) {
        let records = input_lines(seed, lines);
        for buffering in [Buffering::Single, Buffering::Double, Buffering::Triple] {
            let first = logical_run(&records, buffering);
            for _ in 0..2 {
                prop_assert_eq!(&logical_run(&records, buffering), &first);
            }
        }
    }

    /// The buffering level is invisible to event identity: B ∈ {1,2,3}
    /// replay the exact same logical stream (only wait *durations* move).
    #[test]
    fn buffering_level_does_not_change_the_logical_stream(
        seed in any::<u64>(),
        lines in 4usize..32,
    ) {
        let records = input_lines(seed, lines);
        let single = logical_run(&records, Buffering::Single);
        prop_assert_eq!(&logical_run(&records, Buffering::Double), &single);
        prop_assert_eq!(&logical_run(&records, Buffering::Triple), &single);
    }

    /// Multi-lane stages keep the contract (DESIGN.md §3.9): with the map
    /// kernel slot widened to 2 lanes, repeated runs of the same
    /// `(seed, JobConfig)` replay the same logical stream at every
    /// buffering level — the round-robin seq→lane assignment and the
    /// seq-ordered claim/admission turns leave nothing for the scheduler
    /// to reorder within any single-writer lane.
    #[test]
    fn multi_lane_kernel_replays_the_same_logical_stream(
        seed in any::<u64>(),
        lines in 4usize..32,
    ) {
        let records = input_lines(seed, lines);
        for buffering in [Buffering::Single, Buffering::Double, Buffering::Triple] {
            let first = logical_run_lanes(&records, buffering, 2);
            prop_assert_eq!(&logical_run_lanes(&records, buffering, 2), &first);
        }
    }
}

/// The widened kernel slot is visible in the trace exactly as specified:
/// a `StageLanes` mark on kernel sub-lane 0 announces the width, both
/// sub-lanes carry chunk spans, and even seqs land on lane 0 / odd seqs
/// on lane 1 (round-robin by sequence number).
#[test]
fn widened_kernel_slot_traces_sub_lanes_and_round_robin_assignment() {
    use glasswing::core::StageId;
    let records = input_lines(7, 24);
    let events = logical_run_lanes(&records, Buffering::Double, 2);
    let kernel_lane = |l: u32, id: &LaneId| match id.realm {
        glasswing::core::Realm::Pipeline { stage, lane, .. } => {
            stage == StageId::Kernel && lane == l
        }
        _ => false,
    };
    assert!(
        events.iter().any(|(id, kind)| kernel_lane(0, id)
            && matches!(
                kind,
                LogicalKind::Instant {
                    mark: glasswing::core::MarkId::StageLanes { lanes: 2, .. }
                }
            )),
        "missing StageLanes mark on kernel sub-lane 0"
    );
    for (id, kind) in &events {
        for lane in [0u32, 1] {
            if kernel_lane(lane, id) {
                if let LogicalKind::Begin {
                    span: glasswing::core::SpanId::Chunk { seq },
                } = kind
                {
                    assert_eq!(
                        (*seq % 2) as u32,
                        lane,
                        "chunk {seq} on kernel sub-lane {lane}"
                    );
                }
            }
        }
    }
    assert!(
        events.iter().any(|(id, kind)| kernel_lane(1, id)
            && matches!(
                kind,
                LogicalKind::Begin {
                    span: glasswing::core::SpanId::Chunk { .. }
                }
            )),
        "kernel sub-lane 1 carried no chunks"
    );
}
