//! Table II — WC map-pipeline time breakdown (seconds) on one node.
//!
//! Columns, as in the paper:
//!   (i)   hash table + combiner, double buffering;
//!   (ii)  hash table, no combiner, double buffering;
//!   (iii) simple output collection (buffer pool), double buffering;
//!   (iv)  hash table + combiner, single buffering.
//!
//! Rows: Input, Kernel, Partitioning stage totals, the map elapsed time,
//! the merge delay, and the reduce time, each the median of `RUNS` runs of
//! the configuration, so a shape check compares medians, not one
//! wall-clock sample a side. The pipeline analysis runs on one
//! node without HDFS cost ("the pipeline analysis was performed on one
//! Type-1 node without HDFS"), on a scaled-down Zipf corpus.
//!
//! Shape targets: the hash table slows the kernel (bucket contention) but
//! shrinks partitioning; without the combiner, partitioning/merge/reduce
//! grow; with simple collection the kernel is fastest but partitioning
//! becomes the dominant stage and the elapsed time rises; under single
//! buffering the elapsed time approaches input+kernel (input group
//! serialised).

use std::sync::Arc;
use std::time::Duration;

use gw_apps::WordCount;
use gw_bench::{bench_cfg, corpus_cluster_paced, rule, secs};
use gw_core::{Buffering, CollectorKind, GwApp, StageId};

/// Runs of each configuration; every row is their median.
const RUNS: usize = 5;

struct Row {
    label: &'static str,
    values: Vec<Duration>,
}

/// The median of `samples`.
fn median(mut samples: Vec<Duration>) -> Duration {
    samples.sort();
    samples[samples.len() / 2]
}

fn main() {
    println!("=== Table II: WC map pipeline time breakdown (seconds, median of {RUNS} runs) ===\n");
    let configs: [(&str, CollectorKind, bool, Buffering); 4] = [
        (
            "hash+comb/dbl",
            CollectorKind::HashTable,
            true,
            Buffering::Double,
        ),
        (
            "hash/dbl",
            CollectorKind::HashTable,
            false,
            Buffering::Double,
        ),
        (
            "simple/dbl",
            CollectorKind::BufferPool,
            false,
            Buffering::Double,
        ),
        (
            "hash+comb/sgl",
            CollectorKind::HashTable,
            true,
            Buffering::Single,
        ),
    ];

    let mut rows = vec![
        Row {
            label: "Input",
            values: Vec::new(),
        },
        Row {
            label: "Kernel",
            values: Vec::new(),
        },
        Row {
            label: "Partitioning",
            values: Vec::new(),
        },
        Row {
            label: "Map elapsed",
            values: Vec::new(),
        },
        Row {
            label: "Merge delay",
            values: Vec::new(),
        },
        Row {
            label: "Reduce time",
            values: Vec::new(),
        },
    ];
    let mut records_out = Vec::new();

    for (_, collector, combiner, buffering) in &configs {
        let mut cfg = bench_cfg();
        cfg.collector = *collector;
        cfg.buffering = *buffering;
        cfg.partition_threads = 2;
        // Budget scaled with the corpus (as in fig4), so the no-combiner
        // columns spill and "Merge delay" measures background merging.
        cfg.memory_budget = Some(8 << 20);
        let app: Arc<dyn GwApp> = if *combiner {
            Arc::new(WordCount::new())
        } else {
            Arc::new(WordCount::without_combiner())
        };
        let (mut samples, mut records) = (vec![Vec::new(); rows.len()], 0);
        for _ in 0..RUNS {
            // Fresh cluster per run (identical corpus, seeded).
            let cluster = corpus_cluster_paced(60_000, 40_000, 1, 256 << 10);
            let report = cluster.run(Arc::clone(&app), &cfg).expect("job failed");
            let n = &report.nodes[0];
            let run = [
                n.map_timers.wall(StageId::Input),
                n.map_timers.wall(StageId::Kernel),
                n.map_timers.wall(StageId::Partition),
                n.map.elapsed,
                n.merge_delay,
                n.reduce.elapsed,
            ];
            for (sample, value) in samples.iter_mut().zip(run) {
                sample.push(value);
            }
            records = n.map.records_out; // a count: the same every run
        }
        records_out.push(records);
        for (row, sample) in rows.iter_mut().zip(samples) {
            row.values.push(median(sample));
        }
    }

    println!(
        "{:<14} | {:>13} | {:>13} | {:>13} | {:>13}",
        "", configs[0].0, configs[1].0, configs[2].0, configs[3].0
    );
    rule(76);
    for row in &rows {
        print!("{:<14} |", row.label);
        for v in &row.values {
            print!(" {:>13} |", secs(*v));
        }
        println!();
    }
    rule(76);
    print!("{:<14} |", "interm. recs");
    for r in &records_out {
        print!(" {r:>13} |");
    }
    println!();

    println!("\nshape checks:");
    let kernel = &rows[1].values;
    let partition = &rows[2].values;
    let elapsed = &rows[3].values;
    println!(
        "  simple-collection kernel faster than hash-table kernel: {}",
        ok(kernel[2] < kernel[1])
    );
    println!(
        "  combiner shrinks intermediate volume: {}",
        ok(records_out[0] < records_out[1] / 2)
    );
    println!(
        "  partitioning dominates under simple collection: {}",
        ok(partition[2] > kernel[2])
    );
    println!(
        "  elapsed ≈ dominant stage under double buffering (config i): {}",
        ok(elapsed[0] < rows[0].values[0] + kernel[0] + partition[0])
    );
    println!(
        "  single buffering elapsed ≥ double buffering elapsed: {}",
        ok(elapsed[3] >= elapsed[0])
    );
}

fn ok(b: bool) -> &'static str {
    if b {
        "ok"
    } else {
        "MISMATCH"
    }
}
