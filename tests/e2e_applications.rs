//! End-to-end integration tests: every paper application executed on the
//! real Glasswing engine (multi-node, push shuffle, background merging,
//! pipelined reduce) and validated bit-for-bit (or within float tolerance)
//! against its sequential reference implementation.

use std::sync::Arc;

use glasswing::apps::workloads::{self, CorpusSpec, KmeansSpec, LogSpec, MatmulSpec};
use glasswing::apps::{codec, reference, KMeans, MatMul, PageviewCount, TeraSort, WordCount};
use glasswing::prelude::*;
use glasswing::storage::split::RecordBlockBuilder;

fn dfs_with(records: &workloads::Records, nodes: u32, block: usize) -> Arc<Dfs> {
    let dfs = Arc::new(Dfs::new(DfsConfig::new(nodes).free_io()));
    dfs.write_records(
        "/job/in",
        NodeId(0),
        block,
        3,
        records.iter().map(|(k, v)| (k.as_slice(), v.as_slice())),
    )
    .unwrap();
    dfs
}

fn small_cfg() -> JobConfig {
    let mut cfg = JobConfig::new("/job/in", "/job/out");
    cfg.device_threads = 2;
    cfg.partition_threads = 2;
    cfg.collector_capacity = 1 << 20;
    cfg.memory_budget = Some(1 << 19);
    cfg
}

fn run_job(cluster: &Cluster, app: Arc<dyn GwApp>, cfg: &JobConfig) -> Vec<(Vec<u8>, Vec<u8>)> {
    let report = cluster.run(app, cfg).unwrap();
    read_job_output(cluster.store(), &report).unwrap()
}

// ---------------------------------------------------------------------------
// WordCount
// ---------------------------------------------------------------------------

fn check_wordcount(nodes: u32, collector: CollectorKind, combiner: bool) {
    let spec = CorpusSpec {
        lines: 300,
        words_per_line: 10,
        vocabulary: 400,
        zipf_s: 1.05,
        seed: 99,
    };
    let recs = workloads::text_corpus(&spec);
    let cluster = Cluster::new(dfs_with(&recs, nodes, 4096), NetProfile::unlimited());
    let mut cfg = small_cfg();
    cfg.collector = collector;
    cfg.partitions_per_node = 2;
    let app: Arc<dyn GwApp> = if combiner {
        Arc::new(WordCount::new())
    } else {
        Arc::new(WordCount::without_combiner())
    };
    let mut out: Vec<(Vec<u8>, u64)> = run_job(&cluster, app, &cfg)
        .into_iter()
        .map(|(k, v)| (k, codec::dec_u64(&v)))
        .collect();
    out.sort();
    assert_eq!(out, reference::wordcount(&recs));
}

#[test]
fn wordcount_hash_table_with_combiner_4_nodes() {
    check_wordcount(4, CollectorKind::HashTable, true);
}

#[test]
fn wordcount_hash_table_without_combiner_2_nodes() {
    check_wordcount(2, CollectorKind::HashTable, false);
}

#[test]
fn wordcount_buffer_pool_3_nodes() {
    check_wordcount(3, CollectorKind::BufferPool, false);
}

// ---------------------------------------------------------------------------
// Pageview Count
// ---------------------------------------------------------------------------

#[test]
fn pageview_count_matches_reference() {
    let spec = LogSpec {
        entries: 600,
        hot_urls: 20,
        hot_fraction: 0.15,
        seed: 5,
    };
    let logs = workloads::web_logs(&spec);
    let cluster = Cluster::new(dfs_with(&logs, 3, 8192), NetProfile::unlimited());
    let mut cfg = small_cfg();
    cfg.partitions_per_node = 2;
    let mut out: Vec<(Vec<u8>, u64)> = run_job(&cluster, Arc::new(PageviewCount::new()), &cfg)
        .into_iter()
        .map(|(k, v)| (k, codec::dec_u64(&v)))
        .collect();
    out.sort();
    assert_eq!(out, reference::pageviews(&logs));
    // Sparse URL space: most keys unique.
    let total: u64 = out.iter().map(|(_, c)| c).sum();
    assert_eq!(total as usize, spec.entries);
}

// ---------------------------------------------------------------------------
// TeraSort
// ---------------------------------------------------------------------------

#[test]
fn terasort_produces_total_order_across_partitions() {
    let recs = workloads::teragen(1500, 77);
    let nodes = 4u32;
    let cluster = Cluster::new(dfs_with(&recs, nodes, 16 << 10), NetProfile::unlimited());
    let mut cfg = small_cfg();
    cfg.partitions_per_node = 2;
    cfg.output_replication = 1; // the paper's TS output configuration
    let total_partitions = cfg.partitions_per_node * nodes;
    let samples = workloads::sample_keys(&recs, 200, 3);
    let app = Arc::new(TeraSort::new(samples, total_partitions));
    let out = run_job(&cluster, app, &cfg);
    // Exactly the input multiset, globally sorted.
    assert_eq!(out.len(), recs.len());
    assert!(
        out.windows(2).all(|w| w[0] <= w[1]),
        "output must be totally ordered across partition files"
    );
    assert_eq!(out, reference::terasort(&recs));
}

#[test]
fn terasort_single_node_degenerates_gracefully() {
    let recs = workloads::teragen(200, 8);
    let cluster = Cluster::new(dfs_with(&recs, 1, 4 << 10), NetProfile::unlimited());
    let mut cfg = small_cfg();
    cfg.output_replication = 1;
    let app = Arc::new(TeraSort::new(workloads::sample_keys(&recs, 50, 1), 1));
    let out = run_job(&cluster, app, &cfg);
    assert_eq!(out, reference::terasort(&recs));
}

/// TeraSort at a 4 KiB `output_block_size`, so that every partition's
/// file is many blocks, each filled in a recycled arena: in core and under
/// a 2 MiB budget (which spills), on a unified and a discrete-memory
/// (K20m) profile, each file holds its partition's reference records, cut
/// into blocks where `RecordBlockBuilder` cuts them.
#[test]
fn terasort_many_output_blocks_match_the_reference_blocks() {
    let recs = workloads::teragen(24_000, 21);
    let reference = reference::terasort(&recs);
    let nodes = 2u32;
    let samples = workloads::sample_keys(&recs, 400, 5);
    for device in [DeviceProfile::host(), DeviceProfile::k20m()] {
        for budget in [None, Some(2 << 20)] {
            let what = format!("{}, budget {budget:?}", device.name);
            let mut cfg = small_cfg();
            cfg.device = device.clone();
            cfg.memory_budget = budget;
            cfg.partitions_per_node = 2;
            cfg.output_replication = 1;
            cfg.output_block_size = 4 << 10;
            let partitions = cfg.partitions_per_node * nodes;
            let app = Arc::new(TeraSort::new(samples.clone(), partitions));
            let cluster = Cluster::new(dfs_with(&recs, nodes, 64 << 10), NetProfile::unlimited());
            let report = cluster
                .run(Arc::clone(&app) as Arc<dyn GwApp>, &cfg)
                .unwrap();
            let spilled = report.nodes.iter().any(|n| n.intermediate.flushes > 0);
            assert_eq!(
                spilled,
                budget.is_some(),
                "{what}: spills only under the budget"
            );
            let files = report.output_files();
            assert_eq!(files.len(), partitions as usize, "{what}");
            let store = cluster.store();
            for (p, path) in (0..).zip(&files) {
                let mut builder = RecordBlockBuilder::new(cfg.output_block_size);
                for (k, v) in reference
                    .iter()
                    .filter(|(k, _)| app.partition(k, partitions) == p)
                {
                    builder.append(k, v);
                }
                let expect: Vec<(Vec<u8>, usize)> = builder
                    .finish()
                    .into_iter()
                    .map(|(block, records)| (block.to_vec(), records))
                    .collect();
                assert!(
                    expect.len() > 8,
                    "{what}: partition {p} is {} blocks",
                    expect.len()
                );
                let written: Vec<(Vec<u8>, usize)> = store
                    .splits(path)
                    .unwrap()
                    .iter()
                    .map(|split| {
                        (
                            store.read_split(split, NodeId(0)).unwrap().0.to_vec(),
                            split.records,
                        )
                    })
                    .collect();
                assert!(written == expect, "{what}: partition {p}'s blocks differ");
            }
        }
    }
}

// ---------------------------------------------------------------------------
// K-Means
// ---------------------------------------------------------------------------

fn check_kmeans(nodes: u32, combiner: bool) {
    let spec = KmeansSpec {
        points: 2000,
        dims: 4,
        centers: 12,
        seed: 31,
    };
    let pts = workloads::kmeans_points(&spec);
    let centers = workloads::kmeans_centers(&spec);
    let cluster = Cluster::new(dfs_with(&pts, nodes, 8 << 10), NetProfile::unlimited());
    let cfg = small_cfg();
    let app = KMeans::new(centers.clone(), spec.centers, spec.dims);
    let app = if combiner {
        app
    } else {
        app.without_combiner()
    };
    let app = Arc::new(app);
    let reference_app = KMeans::new(centers, spec.centers, spec.dims);
    let expect = reference::kmeans_iteration(&pts, &reference_app);

    assert_centers_close(&run_job(&cluster, app, &cfg), &expect);
}

/// K-Means output against the reference iteration, to f32 summation
/// tolerance.
fn assert_centers_close(out: &[(Vec<u8>, Vec<u8>)], expect: &[(u32, Vec<f32>)]) {
    assert_eq!(out.len(), expect.len(), "one record per non-empty center");
    for (k, v) in out {
        let c = codec::dec_key_u32(k);
        let got = codec::get_f32s(v);
        let (_, want) = expect
            .iter()
            .find(|(ec, _)| *ec == c)
            .unwrap_or_else(|| panic!("unexpected center {c}"));
        for (g, w) in got.iter().zip(want) {
            assert!(
                (g - w).abs() < 0.01 + w.abs() * 1e-4,
                "center {c}: {g} vs {w} (f32 summation tolerance exceeded)"
            );
        }
    }
}

#[test]
fn kmeans_with_combiner_matches_reference() {
    check_kmeans(3, true);
}

#[test]
fn kmeans_without_combiner_matches_reference() {
    check_kmeans(2, false);
}

// ---------------------------------------------------------------------------
// Matrix Multiply
// ---------------------------------------------------------------------------

fn check_matmul(nodes: u32, combiner: bool) {
    let spec = MatmulSpec {
        n: 32,
        tile: 8,
        seed: 17,
    };
    let w = workloads::matmul_workload(&spec);
    let cluster = Cluster::new(
        dfs_with(&w.records, nodes, 8 << 10),
        NetProfile::unlimited(),
    );
    let cfg = small_cfg();
    let app = MatMul::new(spec.tile);
    let app = if combiner {
        app
    } else {
        app.without_combiner()
    };
    let out = run_job(&cluster, Arc::new(app), &cfg);
    assert_eq!(
        out.len(),
        w.tiles * w.tiles,
        "one output record per result tile"
    );
    let got = reference::assemble_tiles(&out, spec.n, spec.tile);
    let expect = reference::matmul(&w.a, &w.b);
    let diff = reference::max_abs_diff(&got, &expect);
    assert!(diff < 1e-3, "max elementwise error {diff}");
}

#[test]
fn matmul_with_combiner_matches_reference() {
    check_matmul(2, true);
}

#[test]
fn matmul_without_combiner_matches_reference() {
    check_matmul(3, false);
}

// ---------------------------------------------------------------------------
// Cross-cutting engine behaviour on real apps
// ---------------------------------------------------------------------------

#[test]
fn throttled_network_does_not_change_results() {
    let spec = CorpusSpec {
        lines: 120,
        vocabulary: 100,
        ..Default::default()
    };
    let recs = workloads::text_corpus(&spec);
    // A slow (but not glacial) fabric: results must be identical.
    let cluster = Cluster::new(dfs_with(&recs, 2, 4096), NetProfile::slow_test(20.0e6));
    let mut out: Vec<(Vec<u8>, u64)> = run_job(&cluster, Arc::new(WordCount::new()), &small_cfg())
        .into_iter()
        .map(|(k, v)| (k, codec::dec_u64(&v)))
        .collect();
    out.sort();
    assert_eq!(out, reference::wordcount(&recs));
}

#[test]
fn simulated_gpu_cluster_matches_reference() {
    let spec = KmeansSpec {
        points: 800,
        dims: 3,
        centers: 6,
        seed: 13,
    };
    let pts = workloads::kmeans_points(&spec);
    let centers = workloads::kmeans_centers(&spec);
    let cluster = Cluster::new(dfs_with(&pts, 2, 8 << 10), NetProfile::unlimited());
    let mut cfg = small_cfg();
    cfg.device = DeviceProfile::gtx480();
    cfg.timing = TimingMode::Modeled;
    let app = Arc::new(KMeans::new(centers.clone(), spec.centers, spec.dims));
    let report = cluster.run(app, &cfg).unwrap();
    let out = read_job_output(cluster.store(), &report).unwrap();
    let expect = reference::kmeans_iteration(&pts, &KMeans::new(centers, spec.centers, spec.dims));
    assert_eq!(out.len(), expect.len());
    // GPU pipeline exercises Stage/Retrieve.
    let timers = report.map_timers_total();
    assert!(timers.modeled(glasswing::core::StageId::Stage) > std::time::Duration::ZERO);
}

/// Pre-merging cached runs while the map runs changes which runs the
/// reduce opens, never its bytes. Blocks are small enough that every
/// partition gets ≥ 16² runs, so tier-2 merges can happen. Every
/// `partition_threads` × buffering combination must write the bytes of
/// the app's reference and of a one-block job whose partitions never fill
/// tier 0. K-Means' combiner sums each chunk's points in f32, so its bytes
/// depend on the block size: its small-block jobs must agree with each
/// other, and with the reference to float tolerance.
#[test]
fn pre_merged_tiers_leave_every_apps_bytes_unchanged() {
    let corpus = workloads::text_corpus(&CorpusSpec {
        lines: 3000,
        words_per_line: 8,
        vocabulary: 300,
        zipf_s: 1.05,
        seed: 3,
    });
    let tera = workloads::teragen(4000, 5);
    let kspec = KmeansSpec {
        points: 3600,
        dims: 4,
        centers: 12,
        seed: 7,
    };
    let points = workloads::kmeans_points(&kspec);
    let kmeans = || KMeans::new(workloads::kmeans_centers(&kspec), kspec.centers, kspec.dims);
    let counts = |out: Vec<(Vec<u8>, Vec<u8>)>| {
        let mut out: Vec<(Vec<u8>, u64)> = out
            .into_iter()
            .map(|(k, v)| (k, codec::dec_u64(&v)))
            .collect();
        out.sort();
        out
    };
    let kmeans_expect = reference::kmeans_iteration(&points, &kmeans());
    type Check<'a> = Box<dyn Fn(&[(Vec<u8>, Vec<u8>)]) + 'a>;
    struct Case<'a> {
        name: &'a str,
        records: &'a workloads::Records,
        nodes: u32,
        block: usize,
        app: Arc<dyn GwApp>,
        check: Check<'a>,
        /// Whether the output bytes are independent of the block size.
        block_invariant: bool,
    }
    let wordcount = |name, app: Arc<dyn GwApp>| Case {
        name,
        records: &corpus,
        nodes: 1,
        block: 512,
        app,
        check: Box::new(|out| assert_eq!(counts(out.to_vec()), reference::wordcount(&corpus))),
        block_invariant: true,
    };
    let cases = [
        wordcount("wordcount", Arc::new(WordCount::new())),
        wordcount(
            "wordcount without combiner",
            Arc::new(WordCount::without_combiner()),
        ),
        Case {
            name: "terasort",
            records: &tera,
            nodes: 2,
            block: 1024,
            app: Arc::new(TeraSort::new(workloads::sample_keys(&tera, 100, 1), 4)),
            check: Box::new(|out| assert_eq!(out, reference::terasort(&tera).as_slice())),
            block_invariant: true,
        },
        Case {
            name: "kmeans",
            records: &points,
            nodes: 1,
            block: 256,
            app: Arc::new(kmeans()),
            check: Box::new(|out| assert_centers_close(out, &kmeans_expect)),
            block_invariant: false,
        },
    ];
    for case in cases {
        let Case {
            name,
            records,
            nodes,
            block,
            app,
            check,
            block_invariant,
        } = case;
        let mut cfg = small_cfg();
        cfg.partitions_per_node = 2;
        cfg.output_replication = 1;
        cfg.memory_budget = None; // in core: only pre-merges merge
        let run = |block: usize, cfg: &JobConfig| {
            let cluster = Cluster::new(dfs_with(records, nodes, block), NetProfile::unlimited());
            let report = cluster.run(Arc::clone(&app), cfg).unwrap();
            let out = read_job_output(cluster.store(), &report).unwrap();
            (report, out)
        };
        let (one_block, whole) = run(1 << 24, &cfg);
        for n in &one_block.nodes {
            assert_eq!(n.intermediate.merges, 0, "{name}: tier 0 filled");
        }
        check(&whole);
        // Tier-0 merges take 16 runs each, so more merges than that
        // bound allows took tier-1 runs and made tier-2 ones.
        let (mut reference, mut merges, mut tier0_merges) = (None, 0, 0);
        for partition_threads in [1, 2, 3] {
            for buffering in [Buffering::Single, Buffering::Double, Buffering::Triple] {
                let what = format!("{name}, {partition_threads} partition threads, {buffering:?}");
                cfg.partition_threads = partition_threads;
                cfg.buffering = buffering;
                let (report, out) = run(block, &cfg);
                for n in &report.nodes {
                    let runs = n.intermediate.runs_added;
                    assert!(runs >= 256 * 2, "{what}: {runs} runs on two partitions");
                    assert_eq!(n.intermediate.flushes, 0, "{what}");
                    merges += n.intermediate.merges;
                    tier0_merges += runs / 16;
                }
                if block_invariant {
                    assert_eq!(out, whole, "{what}: bytes differ from the one-block job");
                }
                match &reference {
                    None => {
                        check(&out);
                        reference = Some(out);
                    }
                    Some(r) => assert_eq!(&out, r, "{what}: bytes differ across the sweep"),
                }
            }
        }
        assert!(merges > tier0_merges, "{name}: no tier-2 merge in {merges}");
    }
}

#[test]
fn many_partitions_per_node_preserve_results() {
    let spec = CorpusSpec {
        lines: 150,
        vocabulary: 200,
        ..Default::default()
    };
    let recs = workloads::text_corpus(&spec);
    let cluster = Cluster::new(dfs_with(&recs, 2, 2048), NetProfile::unlimited());
    let mut cfg = small_cfg();
    cfg.partitions_per_node = 4;
    cfg.merger_threads = 4;
    let report = cluster.run(Arc::new(WordCount::new()), &cfg).unwrap();
    assert_eq!(report.output_files().len(), 8);
    let mut out: Vec<(Vec<u8>, u64)> = read_job_output(cluster.store(), &report)
        .unwrap()
        .into_iter()
        .map(|(k, v)| (k, codec::dec_u64(&v)))
        .collect();
    out.sort();
    assert_eq!(out, reference::wordcount(&recs));
}
