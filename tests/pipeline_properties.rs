//! Structural properties of the pipeline and its analytical model.
//!
//! The schedule model (`gw_core::schedule`) encodes the paper's §III-D
//! interlock semantics; these tests check it against the *real* engine's
//! measured per-chunk samples, and check the engine-level behaviours the
//! paper's instrumentation sections rely on.

use std::sync::Arc;
use std::time::Duration;

use glasswing::apps::workloads::{self, CorpusSpec};
use glasswing::apps::{TeraSort, WordCount};
use glasswing::core::schedule::{pipeline_makespan, ChunkTimes};
use glasswing::core::{EventKind, MarkId, PipelineKind, Realm, StageId};
use glasswing::intermediate::IntermediateConfig;
use glasswing::prelude::*;

fn corpus_cluster(lines: usize, nodes: u32, block: usize) -> Cluster {
    let spec = CorpusSpec {
        lines,
        vocabulary: 500,
        ..Default::default()
    };
    let recs = workloads::text_corpus(&spec);
    let dfs = Arc::new(Dfs::new(DfsConfig::new(nodes).free_io()));
    dfs.write_records(
        "/in",
        NodeId(0),
        block,
        3,
        recs.iter().map(|(k, v)| (k.as_slice(), v.as_slice())),
    )
    .unwrap();
    Cluster::new(dfs, NetProfile::unlimited())
}

fn cfg() -> JobConfig {
    let mut cfg = JobConfig::new("/in", "/out");
    cfg.device_threads = 2;
    cfg.partition_threads = 2;
    cfg
}

/// §III-D on the real engine: every buffering level yields byte-identical
/// job output, and the executor's high-water mark of in-flight chunks per
/// token group never exceeds the buffering depth `B` — observed by the
/// interlock's own atomic gauge, not inferred from timing.
#[test]
fn buffering_levels_agree_byte_for_byte_and_respect_the_interlock() {
    let mut reference: Option<Vec<(Vec<u8>, Vec<u8>)>> = None;
    for (buffering, b) in [
        (Buffering::Single, 1),
        (Buffering::Double, 2),
        (Buffering::Triple, 3),
    ] {
        let cluster = corpus_cluster(600, 2, 2048);
        let mut c = cfg();
        c.buffering = buffering;
        let report = cluster.run(Arc::new(WordCount::new()), &c).unwrap();
        for n in &report.nodes {
            assert!(
                n.map.max_in_flight >= 1,
                "{buffering:?}: gauge never engaged"
            );
            assert!(
                n.map.max_in_flight <= b,
                "{buffering:?}: {} chunks in flight, interlock allows {b}",
                n.map.max_in_flight
            );
        }
        let out = read_job_output(cluster.store(), &report).unwrap();
        match &reference {
            None => reference = Some(out),
            Some(r) => assert_eq!(&out, r, "{buffering:?} output diverged from Single"),
        }
    }
}

/// The multi-lane determinism contract (DESIGN.md §3.9) on the real
/// engine: for every lane count × buffering level, job output is
/// byte-identical to the single-lane run — the sequence-ordered claim
/// turn plus the reorder at each slot exit make lane count invisible in
/// the bytes — and the §III-D interlock still bounds in-flight chunks by
/// `B` even when a widened slot has more lanes than tokens.
#[test]
fn lane_counts_agree_byte_for_byte_at_every_buffering_level() {
    let mut reference: Option<Vec<(Vec<u8>, Vec<u8>)>> = None;
    for lanes in [1usize, 2, 4] {
        for (buffering, b) in [
            (Buffering::Single, 1),
            (Buffering::Double, 2),
            (Buffering::Triple, 3),
        ] {
            let cluster = corpus_cluster(400, 2, 2048);
            let mut c = cfg();
            c.buffering = buffering;
            c.lane_plan = LanePlan {
                input: lanes,
                kernel: lanes,
                partition: lanes,
            };
            let report = cluster.run(Arc::new(WordCount::new()), &c).unwrap();
            for n in &report.nodes {
                assert!(
                    n.map.max_in_flight <= b,
                    "lanes={lanes} {buffering:?}: {} chunks in flight, interlock allows {b}",
                    n.map.max_in_flight
                );
                // Host profile, so no Stage/Retrieve: the three slots each
                // run `lanes` lanes.
                assert_eq!(n.map.stage_threads, 3 * lanes, "lanes={lanes}");
            }
            let out = read_job_output(cluster.store(), &report).unwrap();
            match &reference {
                None => reference = Some(out),
                Some(r) => assert_eq!(
                    &out, r,
                    "lanes={lanes} {buffering:?} output diverged from single-lane"
                ),
            }
        }
    }
}

/// Stage and Retrieve are slots of discrete-memory graphs only. On the
/// host CPU profile (unified memory) the map pipeline runs on exactly 3
/// stage threads and the trace has no lane, and no mark, naming either
/// slot; a discrete-memory profile runs all five with equal chunk counts
/// and writes the same bytes.
#[test]
fn unified_memory_fuses_stage_and_retrieve_out_of_the_graph() {
    let run = |device: DeviceProfile| {
        let cluster = corpus_cluster(300, 1, 2048);
        let mut c = cfg();
        c.device = device;
        let report = cluster.run(Arc::new(WordCount::new()), &c).unwrap();
        let out = read_job_output(cluster.store(), &report).unwrap();
        (report, out)
    };
    let transfer = |s: StageId| matches!(s, StageId::Stage | StageId::Retrieve);

    let (host, host_out) = run(DeviceProfile::host());
    assert_eq!(host.nodes[0].map.stage_threads, 3);
    for (lane, events) in &host.trace.lanes {
        if let Realm::Pipeline { stage, .. } = lane.realm {
            assert!(!transfer(stage), "host trace has a {stage:?} lane");
        }
        for ev in events {
            let named = match ev.kind {
                EventKind::Instant {
                    mark: MarkId::StageLanes { stage, .. },
                } => vec![stage],
                EventKind::Instant {
                    mark: MarkId::TokenGroup { first, last, .. },
                } => vec![first, last],
                _ => vec![],
            };
            assert!(!named.into_iter().any(transfer), "{:?}", ev.kind);
        }
    }
    for kind in [PipelineKind::Map, PipelineKind::Reduce] {
        let p = host.analysis.pipeline(0, kind).expect("pipeline present");
        assert_eq!(p.stages.len(), 3, "{kind:?}");
        assert!(p.stage(StageId::Stage).is_none() && p.stage(StageId::Retrieve).is_none());
    }

    let (gpu, gpu_out) = run(DeviceProfile::gtx480());
    assert_eq!(gpu.nodes[0].map.stage_threads, 5);
    let map = gpu.analysis.pipeline(0, PipelineKind::Map).unwrap();
    let chunks = StageId::ALL.map(|s| map.stage(s).expect("five live lanes").chunks);
    assert!(
        chunks[0] > 0 && chunks.iter().all(|c| *c == chunks[0]),
        "{chunks:?}"
    );
    assert_eq!(host_out, gpu_out);
}

/// The measured map-phase elapsed time must be consistent with replaying
/// the measured per-chunk stage durations through the schedule model: the
/// model's makespan is a lower bound (the real pipeline adds queueing and
/// thread-wakeup latency) and should not be wildly below it.
#[test]
fn schedule_model_replays_measured_chunks() {
    let cluster = corpus_cluster(600, 1, 2048);
    let mut c = cfg();
    c.buffering = Buffering::Double;
    let report = cluster.run(Arc::new(WordCount::new()), &c).unwrap();
    let node = &report.nodes[0];
    assert!(
        node.map_samples.len() >= 8,
        "need several chunks, got {}",
        node.map_samples.len()
    );
    let chunks: Vec<ChunkTimes> = node
        .map_samples
        .iter()
        .map(|s| [s[0].wall, s[1].wall, s[2].wall, s[3].wall, s[4].wall])
        .collect();
    let modeled = pipeline_makespan(&chunks, Buffering::Double);
    let measured = node.map.elapsed;
    assert!(
        measured >= modeled.mul_f64(0.8),
        "measured {measured:?} below modeled lower bound {modeled:?}"
    );
    // The model must also not be trivially small: it accounts for the
    // dominant stage at least.
    let kernel_total: Duration = chunks.iter().map(|c| c[2]).sum();
    assert!(modeled >= kernel_total);
}

/// Single buffering serialises the input group: the modeled makespan from
/// the same per-chunk durations is larger under Single than under Triple.
#[test]
fn buffering_ordering_holds_on_real_samples() {
    let cluster = corpus_cluster(600, 1, 2048);
    let report = cluster.run(Arc::new(WordCount::new()), &cfg()).unwrap();
    let chunks: Vec<ChunkTimes> = report.nodes[0]
        .map_samples
        .iter()
        .map(|s| [s[0].wall, s[1].wall, s[2].wall, s[3].wall, s[4].wall])
        .collect();
    let single = pipeline_makespan(&chunks, Buffering::Single);
    let double = pipeline_makespan(&chunks, Buffering::Double);
    let triple = pipeline_makespan(&chunks, Buffering::Triple);
    assert!(single >= double);
    assert!(double >= triple);
}

/// The collector choice changes where time is spent, as in Table II: the
/// simple buffer pool yields a faster kernel stage but (much) more
/// partitioning work than hash-table-with-combiner.
#[test]
fn collector_choice_shifts_stage_balance() {
    let run = |collector: CollectorKind, combiner: bool| {
        let cluster = corpus_cluster(800, 1, 2048);
        let mut c = cfg();
        c.collector = collector;
        let app: Arc<dyn GwApp> = if combiner {
            Arc::new(WordCount::new())
        } else {
            Arc::new(WordCount::without_combiner())
        };
        let report = cluster.run(app, &c).unwrap();
        let n = &report.nodes[0];
        (n.map_timers.wall(StageId::Partition), n.map.records_out)
    };
    let (_, records_combined) = run(CollectorKind::HashTable, true);
    let (_, records_simple) = run(CollectorKind::BufferPool, false);
    // The combiner must shrink intermediate volume dramatically on a
    // repetitive Zipf corpus.
    assert!(
        records_combined * 2 < records_simple,
        "combiner should cut intermediate records: {records_combined} vs {records_simple}"
    );
}

/// Merge delay is measured and bounded; spill counts follow the memory
/// budget (paper §III-B / Fig. 4(b) machinery).
#[test]
fn intermediate_machinery_reports_metrics() {
    let cluster = corpus_cluster(500, 2, 2048);
    let mut c = cfg();
    c.memory_budget = Some(IntermediateConfig::MIN_MEMORY_BUDGET); // force spills
    c.partitions_per_node = 2;
    c.merger_threads = 2;
    let report = cluster
        .run(Arc::new(WordCount::without_combiner()), &c)
        .unwrap();
    let spills: usize = report.nodes.iter().map(|n| n.intermediate.flushes).sum();
    assert!(spills > 0, "a tiny memory budget must force flushes");
    for n in &report.nodes {
        assert!(
            n.intermediate.spilled_disk <= n.intermediate.spilled_raw,
            "compression must not inflate spills"
        );
    }
    assert!(report.merge_delay() < Duration::from_secs(10));
}

/// Partition lanes own whole partitions: TeraSort on 2 nodes × 2
/// partitions per node builds one run per partition per split — `splits
/// × 4` runs, kept or shipped — at every `partition_threads` from 1 to 4,
/// and writes the same output files at each.
#[test]
fn the_run_count_follows_the_partitions_not_the_partition_lanes() {
    let tera = workloads::teragen(2000, 41);
    let samples = workloads::sample_keys(&tera, 100, 3);
    let run = |lanes: usize| {
        let dfs = Arc::new(Dfs::new(DfsConfig::new(2).free_io()));
        dfs.write_records(
            "/in",
            NodeId(0),
            16 << 10,
            2,
            tera.iter().map(|(k, v)| (k.as_slice(), v.as_slice())),
        )
        .unwrap();
        let cluster = Cluster::new(dfs, NetProfile::unlimited());
        let mut c = cfg();
        c.partitions_per_node = 2;
        c.partition_threads = lanes;
        c.output_replication = 1;
        let report = cluster
            .run(Arc::new(TeraSort::new(samples.clone(), 4)), &c)
            .unwrap();
        let runs: usize = report
            .nodes
            .iter()
            .map(|n| n.map.runs_local + n.map.runs_remote)
            .sum();
        let splits: usize = report.nodes.iter().map(|n| n.map.splits).sum();
        assert!(splits > 1);
        assert_eq!(runs, splits * 4, "partition_threads {lanes}");
        let store = cluster.store();
        let files: Vec<(String, Vec<u8>)> = report
            .output_files()
            .into_iter()
            .map(|path| {
                let mut bytes = Vec::new();
                for split in store.splits(&path).unwrap() {
                    bytes.extend_from_slice(&store.read_split(&split, NodeId(0)).unwrap().0);
                }
                (path, bytes)
            })
            .collect();
        files
    };
    let reference = run(1);
    assert_eq!(reference.len(), 4);
    for lanes in 2..=4 {
        assert!(
            run(lanes) == reference,
            "partition_threads {lanes}: output files differ from 1"
        );
    }
}

/// Locality-aware scheduling: with replication 3 on a small cluster,
/// virtually all splits are read locally.
#[test]
fn locality_aware_scheduling_reads_locally() {
    let cluster = corpus_cluster(400, 3, 2048);
    let report = cluster.run(Arc::new(WordCount::new()), &cfg()).unwrap();
    let local: usize = report.nodes.iter().map(|n| n.map.local_splits).sum();
    let total: usize = report.nodes.iter().map(|n| n.map.splits).sum();
    assert!(
        local * 10 >= total * 9,
        "expected ≥90% local reads, got {local}/{total}"
    );
}

/// The push shuffle delivers runs while the map phase is still active:
/// every pushed run reaches its owner's inbox before its split completes,
/// which the engine expresses as received-run counts equal to the pushed
/// ones.
#[test]
fn push_shuffle_moves_data_during_map() {
    let cluster = corpus_cluster(400, 4, 1024);
    let mut c = cfg();
    c.partitions_per_node = 1;
    let report = cluster.run(Arc::new(WordCount::new()), &c).unwrap();
    let received: usize = report.nodes.iter().map(|n| n.shuffle_runs_received).sum();
    let pushed: usize = report.nodes.iter().map(|n| n.map.runs_remote).sum();
    assert_eq!(received, pushed, "every pushed run must arrive");
    assert!(pushed > 0);
}

/// Reduce-side knobs: concurrent keys and keys-per-thread change launch
/// counts exactly as Fig. 5's x-axis describes — and never the output:
/// however the merge's span list is cut into slices and chunks, the
/// files are the same.
#[test]
fn reduce_launch_count_follows_concurrency_knobs() {
    let run = |concurrent_keys: usize, keys_per_thread: usize, max_values: usize| {
        let cluster = corpus_cluster(300, 1, 4096);
        let mut c = cfg();
        c.reduce_concurrent_keys = concurrent_keys;
        c.reduce_keys_per_thread = keys_per_thread;
        c.reduce_max_values_per_chunk = max_values;
        let report = cluster
            .run(Arc::new(WordCount::without_combiner()), &c)
            .unwrap();
        let out = read_job_output(cluster.store(), &report).unwrap();
        let reduce = &report.nodes[0].reduce;
        (reduce.launches, reduce.keys, out)
    };
    let (launches_small, keys, _) = run(8, 1, 4096);
    let (launches_large, keys2, reference) = run(256, 1, 4096);
    assert_eq!(keys, keys2);
    assert!(
        launches_small > launches_large,
        "fewer concurrent keys ⇒ more kernel launches ({launches_small} vs {launches_large})"
    );
    // Expected launch count ≈ ceil(keys / concurrent) per partition.
    assert!(launches_small >= keys / 8);

    // Without a combiner a key has one value per occurrence, so small
    // slices cut value lists mid-key and carry scratch state across
    // launches; one key per chunk puts every group first in its span list.
    for max_values in [1, 3, 4096] {
        for concurrent_keys in [1, 256] {
            let (launches, keys3, out) = run(concurrent_keys, 4, max_values);
            assert_eq!(keys3, keys, "{max_values} values × {concurrent_keys} keys");
            assert!(launches >= keys.div_ceil(concurrent_keys));
            assert_eq!(
                out, reference,
                "{max_values} values × {concurrent_keys} keys changed the output"
            );
        }
    }
}

/// The reduce phase is one stage graph per node per job (DESIGN.md §3.3),
/// read off the job's trace: over four partitions — one of them empty —
/// every reduce lane numbers its chunks densely from 0 and each §III-D
/// token group is declared once, where a graph per partition would restart
/// the numbering and declare each group four times; no chunk aborts, as
/// end of input is not a chunk. WordCount runs the graph with its kernel,
/// TeraSort without.
#[test]
fn reduce_phase_is_one_stage_graph_over_all_of_a_nodes_partitions() {
    use glasswing::core::{EventKind, MarkId, PipelineKind, Realm, SpanId};

    let corpus = workloads::text_corpus(&CorpusSpec {
        lines: 60,
        vocabulary: 5,
        ..Default::default()
    });
    let tera = workloads::teragen(300, 8);
    // Two samples make three key ranges: partition 3 gets no key.
    let terasort = TeraSort::new(workloads::sample_keys(&tera, 2, 1), 4);
    let apps: [(Arc<dyn GwApp>, &workloads::Records, usize); 2] = [
        (Arc::new(WordCount::new()), &corpus, 2),
        (Arc::new(terasort), &tera, 0),
    ];
    for (app, records, token_groups) in apps {
        let name = app.name();
        let mut reference: Option<Vec<glasswing::storage::KvVec>> = None;
        for buffering in [Buffering::Single, Buffering::Double, Buffering::Triple] {
            let dfs = Arc::new(Dfs::new(DfsConfig::new(1).free_io()));
            dfs.write_records(
                "/in",
                NodeId(0),
                1024,
                1,
                records.iter().map(|(k, v)| (k.as_slice(), v.as_slice())),
            )
            .unwrap();
            let cluster = Cluster::new(dfs, NetProfile::unlimited());
            let mut c = cfg();
            c.partitions_per_node = 4;
            c.output_replication = 1;
            c.buffering = buffering;
            // Several chunks a partition: one per key for WordCount's five
            // words, one per 2 KiB output block for TeraSort's 30 KiB.
            c.reduce_concurrent_keys = 1;
            c.output_block_size = 2048;
            let report = cluster.run(Arc::clone(&app), &c).unwrap();
            let what = format!("{name}/{buffering:?}");

            let files: Vec<glasswing::storage::KvVec> = (0..4)
                .map(|gp| {
                    let path = format!("/out/part-r-{gp:05}");
                    assert!(cluster.store().exists(&path), "{what}: {path} is missing");
                    cluster.store().read_all_records(&path, NodeId(0)).unwrap()
                })
                .collect();
            assert_eq!(report.nodes[0].reduce.partitions, 4, "{what}");
            assert_eq!(report.nodes[0].reduce.output_files.len(), 4, "{what}");
            assert!(
                files.iter().any(Vec::is_empty)
                    && files.iter().filter(|f| !f.is_empty()).count() > 1,
                "{what}: the input must leave a partition empty and fill several"
            );
            match &reference {
                None => reference = Some(files),
                Some(r) => assert_eq!(&files, r, "{what}: output diverged from Single"),
            }

            let (mut groups, mut lanes) = (0, 0);
            for (lane, events) in &report.trace.lanes {
                let Realm::Pipeline {
                    kind: PipelineKind::Reduce,
                    stage,
                    ..
                } = lane.realm
                else {
                    continue;
                };
                lanes += 1;
                let mut seqs = Vec::new();
                for ev in events {
                    match ev.kind {
                        EventKind::End {
                            span: SpanId::Chunk { seq },
                            accounted,
                            ..
                        } if accounted => seqs.push(seq),
                        EventKind::End {
                            span: SpanId::Chunk { seq },
                            ..
                        } => panic!("{what}: {stage:?} aborted chunk {seq}"),
                        EventKind::Instant {
                            mark: MarkId::TokenGroup { .. },
                        } => groups += 1,
                        _ => {}
                    }
                }
                assert!(
                    seqs.len() > 4,
                    "{what}: {stage:?} saw {} chunks",
                    seqs.len()
                );
                assert!(
                    seqs.iter().copied().eq(0..seqs.len() as u64),
                    "{what}: {stage:?} chunk seqs {seqs:?} are not dense from 0"
                );
            }
            assert_eq!(lanes, if app.has_reduce() { 3 } else { 2 }, "{what}");
            assert_eq!(groups, token_groups, "{what}: token groups declared");
        }
    }
}

/// Network accounting closes: the fabric's per-node byte counters match
/// the runs the engine actually pushed, and the shuffle volume is the
/// expected (n-1)/n share of the intermediate data.
#[test]
fn shuffle_volume_accounting_closes() {
    let spec = workloads::CorpusSpec {
        lines: 400,
        vocabulary: 500,
        ..Default::default()
    };
    let recs = workloads::text_corpus(&spec);
    let nodes = 4u32;
    let dfs = std::sync::Arc::new(Dfs::new(DfsConfig::new(nodes).free_io()));
    dfs.write_records(
        "/in",
        NodeId(0),
        2048,
        3,
        recs.iter().map(|(k, v)| (k.as_slice(), v.as_slice())),
    )
    .unwrap();
    let cluster = Cluster::new(dfs, NetProfile::unlimited());
    let mut c = cfg();
    c.collector = CollectorKind::BufferPool; // no combining: volume is exact
    let report = cluster
        .run(std::sync::Arc::new(WordCount::without_combiner()), &c)
        .unwrap();
    let pushed_remote: usize = report.nodes.iter().map(|n| n.map.runs_remote).sum();
    let received: usize = report.nodes.iter().map(|n| n.shuffle_runs_received).sum();
    assert_eq!(pushed_remote, received, "run conservation");
    // Every record lands in exactly one partition; totals must close.
    let produced: usize = report.nodes.iter().map(|n| n.map.records_out).sum();
    let stored: usize = report
        .nodes
        .iter()
        .map(|n| n.intermediate.records_added)
        .sum();
    assert_eq!(produced, stored, "record conservation through the shuffle");
    // With a uniform hash partitioner, the remote share approaches
    // (n-1)/n of all runs.
    let local: usize = report.nodes.iter().map(|n| n.map.runs_local).sum();
    let remote_share = pushed_remote as f64 / (pushed_remote + local) as f64;
    assert!(
        (remote_share - 0.75).abs() < 0.2,
        "remote share {remote_share:.2} far from (n-1)/n = 0.75"
    );
}
