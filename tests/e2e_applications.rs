//! End-to-end integration tests: every paper application executed on the
//! real Glasswing engine (multi-node, push shuffle, background merging,
//! pipelined reduce) and validated bit-for-bit (or within float tolerance)
//! against its sequential reference implementation.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard};

use glasswing::apps::workloads::{self, CorpusSpec, KmeansSpec, LogSpec, MatmulSpec};
use glasswing::apps::{codec, reference, KMeans, MatMul, PageviewCount, TeraSort, WordCount};
use glasswing::core::{CounterId, LogicalKind, Records};
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

/// Held by each test whose jobs race the store's mergers against map end
/// over hundreds of 512-byte blocks: two of them side by side starve
/// each other's mergers, and the tier-2 merges one of them counts on may
/// not start before map end.
fn merger_race() -> MutexGuard<'static, ()> {
    static RACE: Mutex<()> = Mutex::new(());
    RACE.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
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
    let _alone = merger_race();
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
        /// Whether the app's combiner is order-free, so pre-merges fold.
        folds: bool,
    }
    let wordcount = |name, app: Arc<dyn GwApp>, folds| Case {
        name,
        records: &corpus,
        nodes: 1,
        block: 512,
        app,
        check: Box::new(|out| assert_eq!(counts(out.to_vec()), reference::wordcount(&corpus))),
        block_invariant: true,
        folds,
    };
    let cases = [
        wordcount("wordcount", Arc::new(WordCount::new()), true),
        wordcount(
            "wordcount without combiner",
            Arc::new(WordCount::without_combiner()),
            false,
        ),
        Case {
            name: "terasort",
            records: &tera,
            nodes: 2,
            block: 1024,
            app: Arc::new(TeraSort::new(workloads::sample_keys(&tera, 100, 1), 4)),
            check: Box::new(|out| assert_eq!(out, reference::terasort(&tera).as_slice())),
            block_invariant: true,
            folds: false,
        },
        Case {
            name: "kmeans",
            records: &points,
            nodes: 1,
            block: 256,
            app: Arc::new(kmeans()),
            check: Box::new(|out| assert_centers_close(out, &kmeans_expect)),
            block_invariant: false,
            folds: false,
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
            folds,
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
                    // Only an order-free combiner's pre-merges fold.
                    let combined = n.intermediate.records_combined;
                    assert_eq!(combined > 0, folds, "{what}: {combined} records combined");
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

/// WordCount, recording per key the longest value list its reduce is
/// handed.
struct LongestLists {
    wc: WordCount,
    longest: Mutex<BTreeMap<Vec<u8>, usize>>,
}

impl LongestLists {
    fn new(wc: WordCount) -> Self {
        LongestLists {
            wc,
            longest: Mutex::default(),
        }
    }
}

impl GwApp for LongestLists {
    fn name(&self) -> &'static str {
        self.wc.name()
    }

    fn map(&self, key: &[u8], value: &[u8], emit: &Emit<'_>) {
        self.wc.map(key, value, emit);
    }

    fn map_records(&self, records: &Records<'_>, emit: &Emit<'_>) {
        self.wc.map_records(records, emit);
    }

    fn combiner(&self) -> Option<Arc<dyn Combiner>> {
        self.wc.combiner()
    }

    fn reduce(
        &self,
        key: &[u8],
        values: &[&[u8]],
        state: &mut Vec<u8>,
        last: bool,
        emit: &Emit<'_>,
    ) {
        let mut longest = self.longest.lock().unwrap();
        let list = longest.entry(key.to_vec()).or_default();
        *list = (*list).max(values.len());
        drop(longest);
        self.wc.reduce(key, values, state, last, emit);
    }

    fn merge_states(&self, acc: &mut Vec<u8>, other: &[u8]) -> bool {
        self.wc.merge_states(acc, other)
    }
}

/// WordCount's combiner is order-free, so the store's pre-merges fold
/// whichever runs their mergers reach before map end and the reduce merge
/// folds the rest: the reduce is handed one value a key, at every
/// partition-thread count and buffering level, with a key's values split
/// over four work items where there are enough of them. Which runs were
/// pre-merged cannot show in the output, nor in the logical trace, which
/// three runs of each configuration replay. Without a combiner the lists
/// are the words' occurrences.
#[test]
fn an_order_free_combiner_hands_the_reduce_one_value_a_key() {
    let _alone = merger_race();
    let corpus = workloads::text_corpus(&CorpusSpec {
        lines: 3000,
        words_per_line: 8,
        vocabulary: 300,
        zipf_s: 1.05,
        seed: 3,
    });
    let expect = reference::wordcount(&corpus);
    let counts = |out: Vec<(Vec<u8>, Vec<u8>)>| {
        let mut out: Vec<(Vec<u8>, u64)> = out
            .into_iter()
            .map(|(k, v)| (k, codec::dec_u64(&v)))
            .collect();
        out.sort();
        out
    };
    let mut cfg = small_cfg();
    cfg.partitions_per_node = 2;
    cfg.output_replication = 1;
    cfg.memory_budget = None; // in core: tier 0 fills many times
    cfg.reduce_threads_per_key = 4;
    let run = |app: &Arc<LongestLists>, cfg: &JobConfig| {
        let cluster = Cluster::new(dfs_with(&corpus, 1, 512), NetProfile::unlimited());
        let report = cluster.run(Arc::clone(app) as Arc<dyn GwApp>, cfg).unwrap();
        let out = read_job_output(cluster.store(), &report).unwrap();
        assert_eq!(counts(out), expect);
        report
    };
    for partition_threads in [1, 2, 3] {
        for buffering in [Buffering::Single, Buffering::Double, Buffering::Triple] {
            let what = format!("{partition_threads} partition threads, {buffering:?}");
            cfg.partition_threads = partition_threads;
            cfg.buffering = buffering;
            let mut first = None;
            for _ in 0..3 {
                let app = Arc::new(LongestLists::new(WordCount::new()));
                let report = run(&app, &cfg);
                let longest = app.longest.lock().unwrap();
                assert_eq!(longest.len(), expect.len(), "{what}: a key was not reduced");
                for (key, &list) in longest.iter() {
                    assert_eq!(list, 1, "{what}: {:?}", String::from_utf8_lossy(key));
                }
                // Several partition lanes race for the run pool's sort
                // space, so only one lane's reuse totals are logical.
                let logical: Vec<_> = report
                    .trace
                    .logical_events()
                    .into_iter()
                    .filter(|(_, kind)| {
                        let pooled = matches!(
                            kind,
                            LogicalKind::Count {
                                counter: CounterId::RunPoolHit | CounterId::RunPoolMiss,
                                ..
                            }
                        );
                        partition_threads == 1 || !pooled
                    })
                    .collect();
                match &first {
                    None => first = Some(logical),
                    Some(f) => assert!(logical == *f, "{what}: the logical stream differs"),
                }
            }
        }
    }
    let app = Arc::new(LongestLists::new(WordCount::without_combiner()));
    run(&app, &cfg);
    let longest = app.longest.lock().unwrap().values().copied().max();
    assert!(longest > Some(1), "without a combiner: {longest:?}");
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
