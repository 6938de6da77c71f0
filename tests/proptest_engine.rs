//! Property-based tests of the whole stack.
//!
//! The strongest invariant: a shuffle-only (TeraSort-style) job over an
//! arbitrary record set must output exactly the sorted input multiset —
//! exercising input splitting, the map pipeline, partitioning, the push
//! shuffle, compression, spilling, k-way merging and output writing in one
//! property.

use std::sync::Arc;

use proptest::prelude::*;

use glasswing::apps::workloads::sample_keys;
use glasswing::apps::{codec, TeraSort, WordCount};
use glasswing::intermediate::IntermediateConfig;
use glasswing::prelude::*;

fn write_input(records: &[(Vec<u8>, Vec<u8>)], nodes: u32, block: usize) -> Arc<Dfs> {
    let dfs = Arc::new(Dfs::new(DfsConfig::new(nodes).free_io()));
    dfs.write_records(
        "/p/in",
        NodeId(0),
        block,
        3,
        records.iter().map(|(k, v)| (k.as_slice(), v.as_slice())),
    )
    .unwrap();
    dfs
}

fn tiny_cfg() -> JobConfig {
    let mut cfg = JobConfig::new("/p/in", "/p/out");
    cfg.device_threads = 1;
    cfg.partition_threads = 1;
    cfg.collector_capacity = 1 << 16;
    cfg.memory_budget = Some(IntermediateConfig::MIN_MEMORY_BUDGET);
    cfg.output_replication = 1;
    cfg
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12,
        .. ProptestConfig::default()
    })]

    /// Shuffle-only jobs are a sorting identity over any record multiset.
    #[test]
    fn terasort_is_a_sorting_identity(
        records in proptest::collection::vec(
            (proptest::collection::vec(any::<u8>(), 1..12),
             proptest::collection::vec(any::<u8>(), 0..24)),
            1..120),
        nodes in 1u32..4,
        block in 64usize..1024,
    ) {
        let dfs = write_input(&records, nodes, block);
        let cluster = Cluster::new(dfs, NetProfile::unlimited());
        let mut cfg = tiny_cfg();
        cfg.partitions_per_node = 2;
        let samples = sample_keys(&records, 16.min(records.len()), 1);
        let app = Arc::new(TeraSort::new(samples, nodes * 2));
        let report = cluster.run(app, &cfg).unwrap();
        let out = read_job_output(cluster.store(), &report).unwrap();
        let mut expect = records.clone();
        expect.sort();
        prop_assert_eq!(out, expect);
    }

    /// Word counting over arbitrary ASCII lines matches a straightforward
    /// recount, for any cluster size and buffering level.
    #[test]
    fn wordcount_totals_are_exact(
        lines in proptest::collection::vec(
            proptest::collection::vec(
                prop_oneof![Just(b' '), 97u8..=102], 0..40),
            1..60),
        nodes in 1u32..4,
        buffering in 0usize..3,
    ) {
        let records: Vec<(Vec<u8>, Vec<u8>)> = lines
            .iter()
            .enumerate()
            .map(|(i, l)| (format!("{i:04}").into_bytes(), l.clone()))
            .collect();
        let dfs = write_input(&records, nodes, 256);
        let cluster = Cluster::new(dfs, NetProfile::unlimited());
        let mut cfg = tiny_cfg();
        cfg.buffering = [Buffering::Single, Buffering::Double, Buffering::Triple][buffering];
        let report = cluster.run(Arc::new(WordCount::new()), &cfg).unwrap();
        let mut got: Vec<(Vec<u8>, u64)> = read_job_output(cluster.store(), &report)
            .unwrap()
            .into_iter()
            .map(|(k, v)| (k, codec::dec_u64(&v)))
            .collect();
        got.sort();
        let expect = glasswing::apps::reference::wordcount(&records);
        prop_assert_eq!(got, expect);
    }
}
