//! Figure 4 — fine-grained control of intermediate-data handling (WC):
//!
//! * (a) the Partitioning and Kernel stage times as a function of `N`, the
//!   number of partitioning threads: with N=1 partitioning dominates; it
//!   must drop below the kernel stage "already from 2 threads onwards";
//! * (b) the merge delay as a function of `P` (partitions per node, with
//!   merger threads = P as in the paper) and `N`: "an increase in P leads
//!   to a sharp decrease in merge delay ... An increase in N causes an
//!   increase of the merge delay." Here partitioning threads own whole
//!   partitions, so a chunk yields one run per partition and N raises
//!   the merge delay only while N > P: a deliberate deviation from the
//!   paper, whose N threads each write a run of every partition.
//!
//! Run on one node without HDFS, like the paper's pipeline analysis. The
//! simple collector (no combiner) maximises intermediate volume so the
//! partitioning/merge machinery is actually loaded.

use std::sync::Arc;

use gw_apps::WordCount;
use gw_bench::{bench_cfg, corpus_cluster_paced, rule, secs};
use gw_core::schedule::{pipeline_makespan, ChunkTimes};
use gw_core::{Buffering, CollectorKind, StageId};

fn main() {
    println!("=== Figure 4(a): map pipeline stage times vs partitioning threads N ===\n");
    // Measure the partitioning *service demand* with a single lane, then
    // model N cooperating lanes through the pipeline-schedule model (the
    // same methodology as the accelerator tables: measure work, model
    // parallelism — required here because the bench host may have fewer
    // cores than the paper's 16-thread nodes).
    let cluster = corpus_cluster_paced(60_000, 40_000, 1, 256 << 10);
    let mut cfg = bench_cfg();
    cfg.collector = CollectorKind::BufferPool;
    cfg.partition_threads = 1;
    let report = cluster
        .run(Arc::new(WordCount::without_combiner()), &cfg)
        .expect("job failed");
    let node = &report.nodes[0];
    let base_chunks: Vec<ChunkTimes> = node
        .map_samples
        .iter()
        .map(|s| [s[0].wall, s[1].wall, s[2].wall, s[3].wall, s[4].wall])
        .collect();
    let kernel_total = node.map_timers.wall(StageId::Kernel);
    let partition_work = node.map_timers.wall(StageId::Partition);

    println!(
        "{:>3} | {:>12} | {:>13} | {:>12}",
        "N", "kernel (s)", "partition (s)", "map elapsed"
    );
    rule(50);
    let mut partition_times = Vec::new();
    let mut kernel_times = Vec::new();
    for n_threads in [1u32, 2, 4, 8] {
        let scaled: Vec<ChunkTimes> = base_chunks
            .iter()
            .map(|c| [c[0], c[1], c[2], c[3], c[4] / n_threads])
            .collect();
        let elapsed = pipeline_makespan(&scaled, Buffering::Double);
        let partition = partition_work / n_threads;
        println!(
            "{n_threads:>3} | {:>12} | {:>13} | {:>12}",
            secs(kernel_total),
            secs(partition),
            secs(elapsed)
        );
        kernel_times.push(kernel_total);
        partition_times.push(partition);
    }
    rule(50);
    println!(
        "partitioning drops with N: {}",
        ok(partition_times.last().unwrap() < &partition_times[0])
    );
    // Paper: "its time drops below the Kernel stage already from N threads
    // onwards" (the exact N depends on the corpus' partition/kernel work
    // ratio; a few threads suffice).
    println!(
        "partitioning dominant at N=1, below kernel within 4 threads: {}",
        ok(partition_times[0] > kernel_times[0] && partition_times[2] < kernel_times[2])
    );

    println!("\n=== Figure 4(b): merge delay vs partitions P and partitioning threads N ===\n");
    println!("{:>3} {:>3} | {:>15}", "P", "N", "merge delay (s)");
    rule(28);
    let mut delays = std::collections::BTreeMap::new();
    for p in [1u32, 2, 4, 8] {
        for n_threads in [1usize, 4] {
            let cluster = corpus_cluster_paced(60_000, 40_000, 1, 256 << 10);
            let mut cfg = bench_cfg();
            cfg.collector = CollectorKind::BufferPool;
            cfg.partition_threads = n_threads;
            cfg.partitions_per_node = p;
            // Mergers per partition, as in the paper's experiment ("the
            // number of threads allocated to merging and flushing are
            // chosen equal to P").
            cfg.merger_threads = p as usize;
            // Small budget so merging has real work to chew on.
            cfg.memory_budget = Some(8 << 20);
            let report = cluster
                .run(Arc::new(WordCount::without_combiner()), &cfg)
                .expect("job failed");
            let delay = report.nodes[0].merge_delay;
            println!("{p:>3} {n_threads:>3} | {:>15}", secs(delay));
            delays.insert((p, n_threads), delay);
        }
    }
    rule(28);
    println!(
        "merge delay shrinks with P (N=1): {}",
        ok(delays[&(8, 1)] < delays[&(1, 1)])
    );
    println!("\npaper conclusion: \"the number of partitioning threads must be chosen");
    println!("as 2+, and P must be chosen large\"; these settings feed the horizontal");
    println!("scalability runs.");
}

fn ok(b: bool) -> &'static str {
    if b {
        "ok"
    } else {
        "MISMATCH"
    }
}
