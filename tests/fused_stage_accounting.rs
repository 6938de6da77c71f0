//! Regression test (ISSUE: satellite 3): fused pass-through stages must
//! not vanish from the books.
//!
//! On unified-memory devices the builder fuses the Stage (H2D) and
//! Retrieve (D2H) stages out of the graph. Before the observability
//! plane landed, the stage timers only ever heard from live stage
//! threads, so a fused graph reported **zero** chunks and zero time for
//! Stage and Retrieve while the identical workload with the stages live
//! reported real chunk counts — the two graphs disagreed about what the
//! pipeline did. Now the executor emits a `FusedPassage` event per chunk
//! on the fused stage's behalf and every fold of the trace (timers,
//! metrics rollup, analysis) counts it, so fused and unfused graphs
//! report the same chunk counts
//! and the same modeled totals (transfers model to zero on unified
//! memory either way). `JobConfig::disable_stage_fusion` exists to pin
//! exactly this equivalence.

use std::sync::Arc;

use glasswing::apps::{codec, WordCount};
use glasswing::core::{PipelineKind, StageId};
use glasswing::prelude::*;

const LINES: usize = 24;

fn run(disable_stage_fusion: bool) -> (JobReport, Vec<(Vec<u8>, u64)>) {
    let dfs = Arc::new(Dfs::new(DfsConfig::new(1).free_io()));
    dfs.write_records(
        "/fuse/in",
        NodeId(0),
        256,
        1,
        (0..LINES)
            .map(|i| {
                (
                    format!("{i:04}").into_bytes(),
                    format!("alpha beta gamma line{}", i % 5).into_bytes(),
                )
            })
            .collect::<Vec<_>>()
            .iter()
            .map(|(k, v)| (k.as_slice(), v.as_slice())),
    )
    .unwrap();
    let cluster = Cluster::new(dfs, NetProfile::unlimited());
    let mut cfg = JobConfig::new("/fuse/in", "/fuse/out");
    cfg.device_threads = 1;
    cfg.partition_threads = 1;
    cfg.output_replication = 1;
    cfg.timing = TimingMode::Modeled;
    cfg.disable_stage_fusion = disable_stage_fusion;
    let report = cluster.run(Arc::new(WordCount::new()), &cfg).unwrap();
    let mut out: Vec<(Vec<u8>, u64)> = read_job_output(cluster.store(), &report)
        .unwrap()
        .into_iter()
        .map(|(k, v)| (k, codec::dec_u64(&v)))
        .collect();
    out.sort();
    (report, out)
}

#[test]
fn fused_stages_report_the_same_chunk_counts_as_live_ones() {
    let (fused, _) = run(false);
    // The host profile is unified memory, so the default graph fuses
    // Stage and Retrieve: 3 map stage threads, not 5.
    assert_eq!(fused.nodes[0].map.stage_threads, 3);

    // The regression: fused stages must report every chunk that
    // notionally passed them, in both derived views.
    for kind in [PipelineKind::Map, PipelineKind::Reduce] {
        let kernel = fused.metrics.chunks(0, kind, StageId::Kernel);
        assert!(kernel > 0, "{kind:?} kernel saw no chunks");
        assert_eq!(
            fused.metrics.chunks(0, kind, StageId::Stage),
            kernel,
            "{kind:?} fused Stage lost chunks in the metrics rollup"
        );
        assert_eq!(
            fused.metrics.chunks(0, kind, StageId::Retrieve),
            kernel,
            "{kind:?} fused Retrieve lost chunks in the metrics rollup"
        );
    }
}

#[test]
fn fused_and_unfused_graphs_report_the_same_modeled_totals() {
    let (fused, out_fused) = run(false);
    let (unfused, out_unfused) = run(true);

    // Disabling fusion really ran the full 5-thread graph…
    assert_eq!(unfused.nodes[0].map.stage_threads, 5);
    // …and produced the identical job output.
    assert_eq!(out_fused, out_unfused);

    // Same chunk accounting either way.
    for kind in [PipelineKind::Map, PipelineKind::Reduce] {
        for stage in [StageId::Stage, StageId::Kernel, StageId::Retrieve] {
            assert_eq!(
                fused.metrics.chunks(0, kind, stage),
                unfused.metrics.chunks(0, kind, stage),
                "{kind:?}/{stage:?} chunk counts diverge between graphs"
            );
        }
    }

    // On unified memory a transfer models to zero whether the stage is
    // fused out or live, so the modeled Stage/Retrieve totals agree (and
    // are zero) in both graphs — the paper's "the input stager is
    // disabled" is free, not merely hidden.
    for stage in [StageId::Stage, StageId::Retrieve] {
        let f =
            fused.map_timers_total().modeled(stage) + fused.reduce_timers_total().modeled(stage);
        let u = unfused.map_timers_total().modeled(stage)
            + unfused.reduce_timers_total().modeled(stage);
        assert_eq!(f, u, "{stage:?} modeled totals diverge between graphs");
        assert_eq!(f, std::time::Duration::ZERO);
    }
}
