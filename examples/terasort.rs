//! TeraSort: totally-ordered distributed sort with a sampled range
//! partitioner and no reduce function — the output is fully processed by
//! the end of the intermediate-data shuffle (paper §IV-A1). Demonstrates
//! out-of-core intermediate handling: a small cache threshold forces
//! spill + compression + background compaction.
//!
//! ```sh
//! cargo run --release --example terasort
//! ```

use std::sync::Arc;

use glasswing::apps::workloads::{sample_keys, teragen};
use glasswing::apps::TeraSort;
use glasswing::prelude::*;

fn main() {
    let n_records = 50_000;
    let nodes = 4u32;
    let records = teragen(n_records, 4242);
    println!(
        "== TeraSort: {n_records} records ({} MB), {nodes} nodes ==\n",
        n_records * 100 / (1 << 20)
    );

    let dfs = Arc::new(Dfs::new(DfsConfig::new(nodes)));
    dfs.write_records(
        "/ts/in",
        NodeId(0),
        256 << 10,
        3,
        records.iter().map(|(k, v)| (k.as_slice(), v.as_slice())),
    )
    .expect("load input");

    let mut cfg = JobConfig::new("/ts/in", "/ts/out");
    cfg.partitions_per_node = 2;
    cfg.output_replication = 1; // the paper's TS output setting
    cfg.memory_budget = Some(2 << 20); // force out-of-core intermediate data
    cfg.merger_threads = 2;

    // Sample the input to estimate the key spread, as TeraSort does.
    let total_partitions = cfg.partitions_per_node * nodes;
    let samples = sample_keys(&records, 1000, 7);
    let app = Arc::new(TeraSort::new(samples, total_partitions));

    let cluster = Cluster::new(dfs, NetProfile::ipoib_qdr());
    let report = cluster.run(app, &cfg).expect("job");

    // Validate the total order across partition files.
    let out = read_job_output(cluster.store(), &report).expect("read output");
    assert_eq!(out.len(), records.len());
    assert!(
        out.windows(2).all(|w| w[0].0 <= w[1].0),
        "total order violated"
    );

    println!("output files (globally ordered):");
    for f in report.output_files() {
        println!("  {f}");
    }
    println!("\nintermediate data handling:");
    for n in &report.nodes {
        println!(
            "  node {}: {} runs cached, {} flushes, {} compactions, {} -> {} bytes spilled (compressed), merge delay {:?}",
            n.node.index(),
            n.intermediate.runs_added,
            n.intermediate.flushes,
            n.intermediate.compactions,
            n.intermediate.spilled_raw,
            n.intermediate.spilled_disk,
            n.merge_delay,
        );
    }
    println!("\nelapsed: {:?}", report.elapsed);
    println!(
        "total order across {} partitions: verified ✓",
        total_partitions
    );
}
