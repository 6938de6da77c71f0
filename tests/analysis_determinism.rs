//! The analysis layer inherits the trace's determinism contract (ISSUE
//! 5 acceptance): `PerfAnalysis` is a pure fold of the trace, so its
//! *logical* projection — [`PerfAnalysis::determinism_digest`], which
//! renders chunk counts, token-wait counts, critical-path
//! gates, straggler ranking and anomaly counts but no timing — must be
//! byte-identical
//!
//! * across repeated runs of the same `(seed, JobConfig)`, and
//! * across buffering levels B ∈ {1, 2, 3}: deeper buffering moves wait
//!   *durations*, never what the pipeline did.
//!
//! Mirrors `tests/trace_determinism.rs`: same corpus generator, same
//! single-writer-per-lane config, one level up the stack.

use std::sync::Arc;

use proptest::prelude::*;

use glasswing::apps::WordCount;
use glasswing::intermediate::IntermediateConfig;
use glasswing::prelude::*;

/// Deterministic pseudo-text: the seed fully determines every line.
fn input_lines(seed: u64, lines: usize) -> Vec<(Vec<u8>, Vec<u8>)> {
    let mut x = seed | 1;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    const WORDS: [&str; 8] = [
        "glasswing",
        "scales",
        "mapreduce",
        "vertically",
        "horizontally",
        "pipeline",
        "shuffle",
        "kernel",
    ];
    (0..lines)
        .map(|i| {
            let n = 1 + (next() % 6) as usize;
            let line = (0..n)
                .map(|_| WORDS[(next() % WORDS.len() as u64) as usize])
                .collect::<Vec<_>>()
                .join(" ");
            (format!("{i:04}").into_bytes(), line.into_bytes())
        })
        .collect()
}

fn job_config(buffering: Buffering) -> JobConfig {
    let mut cfg = JobConfig::new("/det/in", "/det/out");
    cfg.device_threads = 1;
    cfg.partition_threads = 1;
    cfg.buffering = buffering;
    cfg.collector_capacity = 1 << 16;
    cfg.memory_budget = Some(IntermediateConfig::MIN_MEMORY_BUDGET);
    cfg.output_replication = 1;
    cfg
}

/// Run the job and fold the trace down to the analysis digest.
fn digest_run(records: &[(Vec<u8>, Vec<u8>)], buffering: Buffering) -> String {
    let dfs = Arc::new(Dfs::new(DfsConfig::new(1).free_io()));
    dfs.write_records(
        "/det/in",
        NodeId(0),
        256,
        1,
        records.iter().map(|(k, v)| (k.as_slice(), v.as_slice())),
    )
    .unwrap();
    let cluster = Cluster::new(dfs, NetProfile::unlimited());
    let report = cluster
        .run(Arc::new(WordCount::new()), &job_config(buffering))
        .unwrap();
    report.analysis.determinism_digest()
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 6,
        .. ProptestConfig::default()
    })]

    /// Three runs of the same `(seed, JobConfig)` fold to the same
    /// digest, at every buffering level.
    #[test]
    fn repeated_runs_fold_to_the_same_digest(
        seed in any::<u64>(),
        lines in 4usize..32,
    ) {
        let records = input_lines(seed, lines);
        for buffering in [Buffering::Single, Buffering::Double, Buffering::Triple] {
            let first = digest_run(&records, buffering);
            for _ in 0..2 {
                prop_assert_eq!(&digest_run(&records, buffering), &first);
            }
        }
    }

    /// The buffering level is invisible to the digest: B ∈ {1,2,3}
    /// report the same chunk counts, wait counts, gates and anomalies.
    #[test]
    fn buffering_level_does_not_change_the_digest(
        seed in any::<u64>(),
        lines in 4usize..32,
    ) {
        let records = input_lines(seed, lines);
        let single = digest_run(&records, Buffering::Single);
        prop_assert_eq!(&digest_run(&records, Buffering::Double), &single);
        prop_assert_eq!(&digest_run(&records, Buffering::Triple), &single);
    }
}
