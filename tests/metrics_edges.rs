//! `MetricsSummary` edge cases (ISSUE 5: satellite 3): the rollup's
//! accessors must answer **zero** — never panic, never "absent" — for
//! anything the trace did not record. Three shapes exercise that:
//!
//! * an empty trace (no lanes at all),
//! * a zero-chunk job (valid input path, no records → no splits), and
//! * a single-node unified-memory run, whose graphs have no Stage or
//!   Retrieve slot: the analysis has no entry for them, and their chunk
//!   counts and timers read back as zero.
//!
//! Plus the reconciliation case: every report carried by `JobReport` is a
//! fold of the one trace, so `NodeReport` timers/samples,
//! `MetricsSummary` and `PerfAnalysis` must agree exactly at every
//! buffering level and lane count, on the 3-stage graph of a
//! unified-memory device and the 5-stage graph of a discrete one.

use std::sync::Arc;

use glasswing::apps::WordCount;
use glasswing::core::{Anomalies, CounterId, MetricsSummary, PipelineKind, StageId, Trace};
use glasswing::prelude::*;

#[test]
fn empty_trace_rolls_up_to_zeros() {
    let m = MetricsSummary::from_trace(&Trace::default());
    for kind in [PipelineKind::Map, PipelineKind::Reduce] {
        for stage in StageId::ALL {
            assert_eq!(m.chunks(0, kind, stage), 0);
            assert_eq!(m.chunks_total(kind, stage), 0);
        }
    }
    assert_eq!(m.counter(0, CounterId::DfsReadBytes), 0);
    assert_eq!(m.counter_total(CounterId::ShuffleSendMsgs), 0);
    assert_eq!(m.token_wait_total(), std::time::Duration::ZERO);
}

fn run_job(records: &[(Vec<u8>, Vec<u8>)]) -> JobReport {
    run_job_with(records, |_| {})
}

fn run_job_with(records: &[(Vec<u8>, Vec<u8>)], tune: impl FnOnce(&mut JobConfig)) -> JobReport {
    let dfs = Arc::new(Dfs::new(DfsConfig::new(1).free_io()));
    dfs.write_records(
        "/edge/in",
        NodeId(0),
        256,
        1,
        records.iter().map(|(k, v)| (k.as_slice(), v.as_slice())),
    )
    .unwrap();
    let cluster = Cluster::new(dfs, NetProfile::unlimited());
    let mut cfg = JobConfig::new("/edge/in", "/edge/out");
    cfg.device_threads = 1;
    cfg.partition_threads = 1;
    cfg.output_replication = 1;
    tune(&mut cfg);
    cluster.run(Arc::new(WordCount::new()), &cfg).unwrap()
}

#[test]
fn zero_chunk_job_reports_zero_chunks_not_absence() {
    let report = run_job(&[]);
    let m = &report.metrics;
    // No input records → the map pipeline saw no chunks, but every
    // accessor still answers (with zero) for every stage.
    for stage in StageId::ALL {
        assert_eq!(m.chunks(0, PipelineKind::Map, stage), 0, "{stage:?}");
    }
    // The analysis layer folds the same trace without panicking: the
    // pipelines still ran, but no stage accounted a single chunk, so the
    // advisor has no model.
    let a = &report.analysis;
    if let Some(p) = a.pipeline(0, PipelineKind::Map) {
        for s in &p.stages {
            assert_eq!(s.chunks, 0, "{:?}", s.stage);
            assert_eq!(s.service.count, 0, "{:?}", s.stage);
        }
    }
    assert_eq!(a.advice.bottleneck, None);
    assert!(a.to_report().contains("glasswing perf analysis"));
}

#[test]
fn unified_single_node_run_has_no_stage_or_retrieve_and_reads_them_as_zero() {
    let records: Vec<(Vec<u8>, Vec<u8>)> = (0..32)
        .map(|i| {
            (
                format!("{i:04}").into_bytes(),
                format!("alpha beta gamma delta{}", i % 7).into_bytes(),
            )
        })
        .collect();
    let report = run_job(&records);
    let m = &report.metrics;

    // The host profile is unified memory: Stage and Retrieve are not in
    // either graph — no analysis entry, and every accessor reads zero.
    let a = &report.analysis;
    for (kind, timers) in [
        (PipelineKind::Map, report.map_timers_total()),
        (PipelineKind::Reduce, report.reduce_timers_total()),
    ] {
        assert!(m.chunks(0, kind, StageId::Kernel) > 0, "{kind:?} kernel");
        let p = a.pipeline(0, kind).expect("pipeline present");
        for stage in [StageId::Stage, StageId::Retrieve] {
            assert!(p.stage(stage).is_none(), "{kind:?}/{stage:?}");
            assert_eq!(m.chunks(0, kind, stage), 0);
            assert_eq!(timers.wall(stage), std::time::Duration::ZERO);
            assert_eq!(timers.modeled(stage), std::time::Duration::ZERO);
        }
    }

    // The new arena counters are present (the job really built runs).
    assert!(m.counter(0, CounterId::RunPoolHit) + m.counter(0, CounterId::RunPoolMiss) > 0);
}

/// The stages of a unified-memory graph.
const UNIFIED_STAGES: [StageId; 3] = [StageId::Input, StageId::Kernel, StageId::Partition];

#[test]
fn timers_metrics_and_analysis_reconcile_per_stage() {
    let records: Vec<(Vec<u8>, Vec<u8>)> = (0..48)
        .map(|i| {
            (
                format!("{i:04}").into_bytes(),
                format!("alpha beta gamma delta{}", i % 7).into_bytes(),
            )
        })
        .collect();
    for buffering in [Buffering::Single, Buffering::Double, Buffering::Triple] {
        for kernel_lanes in [1, 2] {
            // Chunk counts of the stages both graphs have, per device.
            let mut shared_chunks = Vec::new();
            for (device, live) in [
                (DeviceProfile::host(), &UNIFIED_STAGES[..]),
                (DeviceProfile::gtx480(), &StageId::ALL[..]),
            ] {
                let what = format!("{buffering:?}/lanes={kernel_lanes}/{}", device.name);
                let report = run_job_with(&records, |cfg| {
                    cfg.buffering = buffering;
                    cfg.lane_plan.kernel = kernel_lanes;
                    cfg.device = device;
                    cfg.partitions_per_node = 3;
                });
                assert_eq!(
                    report.nodes[0].map.stage_threads,
                    live.len() + kernel_lanes - 1,
                    "{what}"
                );
                // A clean run has no anomaly: a source's end-of-input
                // probe is not a chunk.
                assert_eq!(report.analysis.anomalies, Anomalies::default(), "{what}");
                for n in &report.nodes {
                    for (kind, timers) in [
                        (PipelineKind::Map, &n.map_timers),
                        (PipelineKind::Reduce, &n.reduce_timers),
                    ] {
                        let p = report
                            .analysis
                            .pipeline(n.node.0, kind)
                            .expect("pipeline present");
                        assert_eq!(p.stages.len(), live.len(), "{what}: {kind:?} stages");
                        for &stage in live {
                            let sp = p.stage(stage).expect("every live stage is on the books");
                            assert_eq!(
                                report.metrics.chunks(n.node.0, kind, stage),
                                sp.chunks,
                                "{what}: {kind:?}/{stage:?} chunk counts"
                            );
                            assert!(sp.chunks > 0, "{what}: {kind:?}/{stage:?} saw no chunks");
                            assert_eq!(timers.wall(stage).as_nanos() as u64, sp.wall_ns);
                            assert_eq!(timers.modeled(stage).as_nanos() as u64, sp.modeled_ns);
                            // Chunk spans are all a stage accounts: the
                            // reduce output stage's file writes are part
                            // of the chunks that close a partition.
                            assert_eq!(sp.wall_ns, sp.service.total_ns);
                        }
                        shared_chunks
                            .push(UNIFIED_STAGES.map(|stage| p.stage(stage).unwrap().chunks));
                    }
                    // One sample row per map chunk, each stage's column
                    // summing to its timer total.
                    let map_chunks =
                        report
                            .metrics
                            .chunks(n.node.0, PipelineKind::Map, StageId::Input);
                    assert_eq!(
                        n.map_samples.len() as u64,
                        map_chunks,
                        "{what}: sample rows"
                    );
                    for stage in StageId::ALL {
                        let column: std::time::Duration = n
                            .map_samples
                            .iter()
                            .map(|row| row[stage.index()].wall)
                            .sum();
                        assert_eq!(
                            column,
                            n.map_timers.wall(stage),
                            "{what}: {stage:?} samples"
                        );
                    }
                }
            }
            // Map then reduce on the one node, once per device.
            assert_eq!(shared_chunks[..2], shared_chunks[2..], "{buffering:?}");
        }
    }
}
