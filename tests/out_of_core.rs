//! Out-of-core acceptance: jobs whose intermediate data is several times
//! the configured `memory_budget` must complete with bounded resident
//! memory and produce output byte-identical to the same job run fully
//! in-core.
//!
//! The contract (DESIGN.md §3.10): with `memory_budget = B`, peak
//! resident intermediate bytes — cached runs + spill-writer staging +
//! open cursor frames, the high-water mark reported in
//! `StoreMetrics::peak_resident_bytes` — stays ≤ 1.5×B, while the spill
//! volume proves the partition never fit in memory. The spill strategy
//! must be invisible in the output bytes, and so must what the frame codec
//! made of the data: TeraGen records do not compress and are written as
//! stored frames, WordCount's sorted text does and is not.

use std::sync::Arc;

use glasswing::apps::{workloads, WordCount};
use glasswing::prelude::*;

type Output = Vec<(Vec<u8>, Vec<u8>)>;

/// Per-node memory budget for the forced-spill runs.
const BUDGET: usize = 128 << 10;

fn dfs_with(records: &workloads::Records, nodes: u32, block: usize) -> Arc<Dfs> {
    let dfs = Arc::new(Dfs::new(DfsConfig::new(nodes).free_io()));
    dfs.write_records(
        "/ooc/in",
        NodeId(0),
        block,
        3,
        records.iter().map(|(k, v)| (k.as_slice(), v.as_slice())),
    )
    .unwrap();
    dfs
}

fn base_cfg() -> JobConfig {
    let mut cfg = JobConfig::new("/ooc/in", "/ooc/out");
    cfg.partition_threads = 2;
    cfg.partitions_per_node = 2;
    cfg.collector_capacity = 1 << 20;
    cfg
}

fn run(records: &workloads::Records, app: Arc<dyn GwApp>, cfg: &JobConfig) -> (JobReport, Output) {
    let cluster = Cluster::new(dfs_with(records, 2, 16 << 10), NetProfile::unlimited());
    let report = cluster.run(app, cfg).unwrap();
    let out = read_job_output(cluster.store(), &report).unwrap();
    (report, out)
}

/// Assert the out-of-core contract on every node of a budgeted run, and
/// that its spill files are stored raw (`stored`) or compressed.
fn assert_budget_held(report: &JobReport, stored: bool) {
    for n in &report.nodes {
        assert_eq!(
            n.intermediate.spilled_disk >= n.intermediate.spilled_raw,
            stored,
            "node {}: {} raw bytes went to disk as {} — spill files must be {}",
            n.node,
            n.intermediate.spilled_raw,
            n.intermediate.spilled_disk,
            if stored { "stored" } else { "compressed" }
        );
        assert!(
            n.intermediate.spilled_raw >= 4 * BUDGET,
            "node {}: only {} raw bytes spilled — the run never left core \
             (intermediate data must be ≥ 4× the {}B budget)",
            n.node,
            n.intermediate.spilled_raw,
            BUDGET
        );
        assert!(
            n.intermediate.spilled_disk > 0,
            "node {}: no framed spill bytes on disk",
            n.node
        );
        assert!(
            n.intermediate.frames_written > 0 && n.intermediate.frames_read > 0,
            "node {}: the framed path must be exercised in both directions",
            n.node
        );
        assert!(
            n.intermediate.peak_resident_bytes <= BUDGET + BUDGET / 2,
            "node {}: peak resident {}B exceeds 1.5× the {}B budget",
            n.node,
            n.intermediate.peak_resident_bytes,
            BUDGET
        );
    }
}

/// Assert the reference run really stayed in core: no node wrote or read
/// a single spill frame.
fn assert_stayed_in_core(report: &JobReport) {
    for n in &report.nodes {
        let m = &n.intermediate;
        assert_eq!(
            (m.spilled_raw, m.frames_written, m.frames_read),
            (0, 0, 0),
            "node {}: the in-core reference touched disk ({m:?})",
            n.node
        );
    }
}

#[test]
fn terasort_under_budget_matches_incore_byte_for_byte() {
    // Shuffle-only path: the reduce input is the passthrough CursorMerge
    // over streaming spill cursors plus the cached remainder. ~2 MiB of
    // 100-byte records per job, ~1 MiB per node — 8× the per-node budget.
    let recs = workloads::teragen(20_000, 42);
    let samples = workloads::sample_keys(&recs, 64, 1);
    let app: Arc<dyn GwApp> = Arc::new(glasswing::apps::TeraSort::new(samples, 4));

    // Reference: under the default threshold the whole partition stays
    // cached and the reduce merge reads the cached runs directly.
    let incore_cfg = base_cfg();
    let (incore_report, incore_out) = run(&recs, Arc::clone(&app), &incore_cfg);
    assert_stayed_in_core(&incore_report);

    let mut budget_cfg = base_cfg();
    budget_cfg.memory_budget = Some(BUDGET);
    let (budget_report, budget_out) = run(&recs, app, &budget_cfg);
    assert_budget_held(&budget_report, true);
    // Each partition holds up to budget / (2 × frame) spill files before
    // it compacts, so at ~8× the budget a node writes its intermediate
    // bytes about once.
    for n in &budget_report.nodes {
        let m = &n.intermediate;
        assert!(
            m.spilled_raw * 5 <= m.bytes_added * 6,
            "node {}: spilled {}B for {}B of intermediate data, over 1.2× ({m:?})",
            n.node,
            m.spilled_raw,
            m.bytes_added
        );
    }
    assert_eq!(
        budget_out, incore_out,
        "out-of-core terasort output diverged from the in-core run"
    );
}

#[test]
fn wordcount_reduce_under_budget_matches_incore_byte_for_byte() {
    // Grouped path: the 5-stage reduce pipeline fed by GroupedCursorMerge
    // slices. No combiner, so every word instance crosses the
    // intermediate layer.
    let spec = workloads::CorpusSpec {
        lines: 6_000,
        words_per_line: 12,
        vocabulary: 5_000,
        zipf_s: 1.05,
        seed: 7,
    };
    let recs = workloads::text_corpus(&spec);
    let app: Arc<dyn GwApp> = Arc::new(WordCount::without_combiner());

    let incore_cfg = base_cfg();
    let (incore_report, incore_out) = run(&recs, Arc::clone(&app), &incore_cfg);
    assert_stayed_in_core(&incore_report);

    let mut budget_cfg = base_cfg();
    budget_cfg.memory_budget = Some(BUDGET);
    let (budget_report, budget_out) = run(&recs, app, &budget_cfg);
    assert_budget_held(&budget_report, false);
    assert_eq!(
        budget_out, incore_out,
        "out-of-core wordcount output diverged from the in-core run"
    );
}

#[test]
fn budget_determinism_across_buffer_depths_and_lanes() {
    // The §III-D/§3.9 determinism matrix, restated with spilling forced
    // on: output bytes are invariant across B ∈ {1,2,3} and map-kernel
    // lane counts {1,2,4} even when every partition goes out of core.
    let recs = workloads::teragen(6_000, 9);
    let samples = workloads::sample_keys(&recs, 64, 1);
    let app: Arc<dyn GwApp> = Arc::new(glasswing::apps::TeraSort::new(samples, 4));
    let mut reference: Option<Output> = None;
    for buffering in [Buffering::Single, Buffering::Double, Buffering::Triple] {
        for lanes in [1usize, 2, 4] {
            let mut cfg = base_cfg();
            cfg.memory_budget = Some(32 << 10);
            cfg.buffering = buffering;
            cfg.lane_plan.kernel = lanes;
            let (report, out) = run(&recs, Arc::clone(&app), &cfg);
            let spilled: usize = report
                .nodes
                .iter()
                .map(|n| n.intermediate.spilled_disk)
                .sum();
            assert!(
                spilled > 0,
                "B={buffering:?} lanes={lanes}: nothing spilled"
            );
            match &reference {
                None => reference = Some(out),
                Some(r) => assert_eq!(
                    &out, r,
                    "B={buffering:?} lanes={lanes}: output depends on schedule"
                ),
            }
        }
    }
}
