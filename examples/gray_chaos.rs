//! Gray-failure chaos in action (DESIGN.md §3.8): seeded slowdowns,
//! transient stalls and flaky links degrade nodes without killing them,
//! and the speculation controller clones stragglers so a slow node stops
//! dictating the makespan.
//!
//! ```sh
//! cargo run --release --example gray_chaos [report.txt]
//! ```
//!
//! Runs a pinned-seed gray-fault sweep (override with
//! `GW_GRAY_SEEDS="a b c"`), verifying byte-identical output for every
//! seed, then a 4× single-node slowdown with speculation off and on. The
//! summary — including the speculation ledger — is printed and, when a
//! path is given, written there (CI uploads it as an artifact).

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

use glasswing::core::CounterId;
use glasswing::prelude::*;

const CORPUS: &str = "gray failures slow nodes down without killing them \
                      speculation clones the stragglers queued work";

fn make_cluster(nodes: u32) -> Cluster {
    let dfs = Arc::new(Dfs::new(DfsConfig::new(nodes).free_io()));
    // One record per DFS block: each map task is one map() call, so the
    // sleepy app's per-record cost is exactly the per-split service time.
    let lines: Vec<(Vec<u8>, Vec<u8>)> = (0..24)
        .map(|i| {
            (
                format!("line{i:03}").into_bytes(),
                CORPUS.as_bytes().to_vec(),
            )
        })
        .collect();
    dfs.write_records(
        "/gray/in",
        NodeId(0),
        120,
        3,
        lines.iter().map(|(k, v)| (k.as_slice(), v.as_slice())),
    )
    .unwrap();
    Cluster::new(dfs, NetProfile::unlimited())
}

fn cfg(speculation: bool) -> JobConfig {
    let mut cfg = JobConfig::new("/gray/in", "/gray/out");
    cfg.device_threads = 1;
    cfg.partitions_per_node = 2;
    cfg.node_timeout = Duration::from_millis(500);
    cfg.job_deadline = Some(Duration::from_secs(60));
    cfg.speculation = SpeculationConfig {
        enabled: speculation,
        threshold_pct: 100,
        min_runtime: Duration::from_millis(5),
        budget: 8,
        backoff: Duration::from_millis(1),
    };
    cfg
}

/// Wordcount with a 10ms per-record map cost, so the slowdown (and the
/// speculative rescue) dominate scheduler noise.
struct SleepyCount(WordCount);

impl GwApp for SleepyCount {
    fn name(&self) -> &'static str {
        "sleepy-count"
    }
    fn map(&self, key: &[u8], value: &[u8], emit: &Emit<'_>) {
        std::thread::sleep(Duration::from_millis(10));
        self.0.map(key, value, emit)
    }
    fn combiner(&self) -> Option<Arc<dyn Combiner>> {
        self.0.combiner()
    }
    fn reduce(
        &self,
        key: &[u8],
        values: &[&[u8]],
        state: &mut Vec<u8>,
        last: bool,
        emit: &Emit<'_>,
    ) {
        self.0.reduce(key, values, state, last, emit)
    }
    fn merge_states(&self, acc: &mut Vec<u8>, other: &[u8]) -> bool {
        self.0.merge_states(acc, other)
    }
}

fn main() {
    let nodes = 4u32;
    let mut out = String::new();

    // Fault-free reference bytes.
    let reference = {
        let cluster = make_cluster(nodes);
        let report = cluster
            .run(Arc::new(WordCount::new()), &cfg(false))
            .unwrap();
        read_job_output(cluster.store(), &report).unwrap()
    };

    // 1. Pinned-seed gray sweep: every seed must finish with zero nodes
    //    lost and byte-identical output.
    let seeds: Vec<u64> = std::env::var("GW_GRAY_SEEDS")
        .ok()
        .map(|s| s.split_whitespace().map(|t| t.parse().unwrap()).collect())
        .unwrap_or_else(|| (0..8).collect());
    writeln!(out, "gray-fault sweep ({} nodes)", nodes).unwrap();
    for &seed in &seeds {
        let plan = FaultPlan::gray_from_seed(seed, nodes);
        let schedule = plan.describe();
        let cluster = make_cluster(nodes).with_fault_plan(plan);
        let start = Instant::now();
        let report = cluster
            .run(Arc::new(WordCount::new()), &cfg(false))
            .unwrap_or_else(|e| panic!("seed {seed} ({schedule}): {e}"));
        let output = read_job_output(cluster.store(), &report).unwrap();
        assert_eq!(output, reference, "seed {seed} ({schedule}): diverged");
        assert_eq!(report.nodes_lost, 0, "seed {seed} ({schedule})");
        writeln!(
            out,
            "  seed {seed:2}  {:6.1}ms  slowdown-throttles={:3}  ok  [{schedule}]",
            start.elapsed().as_secs_f64() * 1e3,
            report.metrics.counter_total(CounterId::GraySlowdowns),
        )
        .unwrap();
    }

    // 2. Speculation vs baseline under a 4× single-node slowdown.
    let sleepy_reference = {
        let cluster = make_cluster(nodes);
        let report = cluster
            .run(Arc::new(SleepyCount(WordCount::new())), &cfg(false))
            .unwrap();
        read_job_output(cluster.store(), &report).unwrap()
    };
    writeln!(out, "\n4x slowdown on node 1 (sleepy wordcount)").unwrap();
    let mut timings = Vec::new();
    for speculation in [false, true] {
        let cluster = make_cluster(nodes).with_fault_plan(FaultPlan::empty().with_slowdown(1, 400));
        let start = Instant::now();
        let report = cluster
            .run(Arc::new(SleepyCount(WordCount::new())), &cfg(speculation))
            .unwrap();
        let elapsed = start.elapsed();
        let output = read_job_output(cluster.store(), &report).unwrap();
        assert_eq!(output, sleepy_reference, "slowdown run diverged");
        assert_eq!(report.nodes_lost, 0);
        let s = report.speculation;
        assert!(s.balanced(), "ledger out of balance: {s:?}");
        writeln!(
            out,
            "  speculation={:5}  {:6.1}ms  launched={} won={} cancelled={} failed={}",
            speculation,
            elapsed.as_secs_f64() * 1e3,
            s.launched,
            s.won,
            s.cancelled,
            s.failed,
        )
        .unwrap();
        timings.push(elapsed);
    }
    writeln!(
        out,
        "  makespan ratio (off/on): {:.2}x",
        timings[0].as_secs_f64() / timings[1].as_secs_f64()
    )
    .unwrap();

    print!("{out}");
    if let Some(path) = std::env::args().nth(1) {
        std::fs::write(&path, &out).unwrap();
        println!("\nreport written to {path}");
    }
}
