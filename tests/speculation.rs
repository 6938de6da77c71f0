//! Speculative re-execution of stragglers (DESIGN.md §3.8).
//!
//! The acceptance property: under an injected single-node gray slowdown,
//! a speculation-enabled run finishes faster than the identical
//! speculation-disabled run, while both produce output byte-identical to
//! the fault-free reference and the speculation ledger balances
//! (`launched == won + cancelled + failed`). Plus the two guard rails:
//! disabled planes must leave zero trace, and first-finisher-wins de-dup
//! must be idempotent under arbitrary attempt-arrival orders.

use std::sync::Arc;
use std::time::{Duration, Instant};

use glasswing::core::{Combiner, Coordinator, CounterId, LogicalKind, MarkId, Realm};
use glasswing::intermediate::kv::run_from_pairs;
use glasswing::intermediate::{IntermediateConfig, IntermediateStore};
use glasswing::net::RunTag;
use glasswing::prelude::*;
use proptest::prelude::*;

const NODES: u32 = 4;
const NUM_LINES: usize = 24;
const CORPUS: &str = "speculation hides stragglers by cloning their queued work";

/// One record per DFS block: every map task is one `map()` call, so the
/// per-record sleep below is exactly the per-split service time.
fn write_input(dfs: &Dfs) {
    let lines: Vec<(Vec<u8>, Vec<u8>)> = (0..NUM_LINES)
        .map(|i| {
            (
                format!("line{i:03}").into_bytes(),
                CORPUS.as_bytes().to_vec(),
            )
        })
        .collect();
    dfs.write_records(
        "/spec/in",
        NodeId(0),
        80,
        3,
        lines.iter().map(|(k, v)| (k.as_slice(), v.as_slice())),
    )
    .unwrap();
}

fn make_cluster() -> Cluster {
    let dfs = Arc::new(Dfs::new(DfsConfig::new(NODES).free_io()));
    write_input(&dfs);
    Cluster::new(dfs, NetProfile::unlimited())
}

/// Wordcount with a fixed per-record map cost, so task durations are
/// dominated by a knob the test controls rather than by scheduler noise.
struct SleepyCount {
    inner: WordCount,
    ms: u64,
}

impl SleepyCount {
    fn new(ms: u64) -> Self {
        SleepyCount {
            inner: WordCount::new(),
            ms,
        }
    }
}

impl GwApp for SleepyCount {
    fn name(&self) -> &'static str {
        "sleepy-count"
    }
    fn map(&self, key: &[u8], value: &[u8], emit: &Emit<'_>) {
        std::thread::sleep(Duration::from_millis(self.ms));
        self.inner.map(key, value, emit)
    }
    fn combiner(&self) -> Option<Arc<dyn Combiner>> {
        self.inner.combiner()
    }
    fn has_reduce(&self) -> bool {
        self.inner.has_reduce()
    }
    fn reduce(
        &self,
        key: &[u8],
        values: &[&[u8]],
        state: &mut Vec<u8>,
        last: bool,
        emit: &Emit<'_>,
    ) {
        self.inner.reduce(key, values, state, last, emit)
    }
    fn partition(&self, key: &[u8], num_partitions: u32) -> u32 {
        self.inner.partition(key, num_partitions)
    }
    fn merge_states(&self, acc: &mut Vec<u8>, other: &[u8]) -> bool {
        self.inner.merge_states(acc, other)
    }
}

fn spec_cfg(speculation: bool) -> JobConfig {
    let mut cfg = JobConfig::new("/spec/in", "/spec/out");
    cfg.device_threads = 1;
    cfg.partitions_per_node = 2;
    cfg.max_task_retries = 1;
    cfg.node_timeout = Duration::from_millis(500);
    cfg.job_deadline = Some(Duration::from_secs(60));
    cfg.speculation = SpeculationConfig {
        enabled: speculation,
        // Recorded durations are claim→complete ages (queue wait
        // included), so the threshold sits at the median itself: waiting
        // for 1.5× would let the straggler reach its queued split before
        // any clone finishes.
        threshold_pct: 100,
        min_runtime: Duration::from_millis(5),
        budget: 8,
        backoff: Duration::from_millis(1),
    };
    cfg
}

#[test]
fn speculation_beats_the_straggler_with_identical_bytes() {
    // Fault-free reference bytes (no plan, no speculation).
    let app = || Arc::new(SleepyCount::new(10));
    let reference = {
        let cluster = make_cluster();
        let report = cluster.run(app(), &spec_cfg(false)).unwrap();
        read_job_output(cluster.store(), &report).unwrap()
    };

    // A 4× slowdown on node 1: every one of its pipeline passages takes
    // 4× the wall time, so each of its ~40ms map tasks leaves queued
    // claims behind that healthy nodes can clone.
    let run = |speculation: bool| {
        let plan = Arc::new(FaultPlan::empty().with_slowdown(1, 400));
        let cluster = make_cluster().with_fault_plan(Arc::clone(&plan));
        let start = Instant::now();
        let report = cluster.run(app(), &spec_cfg(speculation)).unwrap();
        let elapsed = start.elapsed();
        assert_eq!(report.nodes_lost, 0, "a slow node must never be lost");
        let out = read_job_output(cluster.store(), &report).unwrap();
        assert_eq!(
            out, reference,
            "output under slowdown (speculation={speculation}) diverged"
        );
        assert_eq!(plan.unfired(), Vec::<&str>::new());
        (elapsed, report)
    };

    // Wall-clock comparison: retry a few times before declaring failure
    // so one unlucky scheduling interleave cannot flake the suite; the
    // correctness assertions above hold on every attempt.
    let mut last = None;
    for _ in 0..3 {
        let (off_elapsed, off_report) = run(false);
        let (on_elapsed, on_report) = run(true);
        assert_eq!(off_report.speculation, SpeculationReport::default());
        let s = on_report.speculation;
        assert!(
            s.balanced(),
            "speculation ledger must balance: {s:?} (launched != won + cancelled + failed)"
        );
        if s.launched >= 1 && on_elapsed < off_elapsed {
            return;
        }
        last = Some((off_elapsed, on_elapsed, s));
    }
    panic!("speculation never beat the straggler: {last:?}");
}

#[test]
fn disabled_planes_leave_zero_trace() {
    // Zero-cost guard: with chaos unarmed and speculation disabled, the
    // gray hooks and the speculation controller must be pure pass-through
    // — no chaos/coordinator lanes, no gray or speculation events, no
    // counters, an all-zero speculation ledger.
    let cluster = make_cluster();
    let report = cluster
        .run(Arc::new(WordCount::new()), &spec_cfg(false))
        .unwrap();

    for (lane, _) in &report.trace.lanes {
        assert!(
            !matches!(lane.realm, Realm::Chaos | Realm::Coordinator),
            "unarmed run created lane {lane:?}"
        );
    }
    for (lane, kind) in report.trace.logical_events() {
        match kind {
            LogicalKind::Instant { mark } => assert!(
                !matches!(
                    mark,
                    MarkId::FaultArmed { .. }
                        | MarkId::CrashFired { .. }
                        | MarkId::ReadFaultFired { .. }
                        | MarkId::NetFaultFired { .. }
                        | MarkId::TaskFaultFired
                        | MarkId::StallFired { .. }
                        | MarkId::SpecLaunched { .. }
                        | MarkId::SpecResolved { .. }
                ),
                "unarmed run emitted {mark:?} on {lane:?}"
            ),
            LogicalKind::Count { counter, .. } => assert!(
                !matches!(
                    counter,
                    CounterId::GraySlowdowns | CounterId::SpecSuperseded
                ),
                "unarmed run bumped {counter:?} on {lane:?}"
            ),
            _ => {}
        }
    }
    assert_eq!(report.metrics.counter_total(CounterId::GraySlowdowns), 0);
    assert_eq!(report.metrics.counter_total(CounterId::SpecSuperseded), 0);
    assert_eq!(report.speculation, SpeculationReport::default());
}

/// The run a given identity always carries, whoever produces it — clones
/// re-execute the same deterministic task, so their bytes are identical.
fn identity_run(block: u32, partition: u32) -> glasswing::intermediate::kv::Run {
    let key = format!("block{block:02}");
    let val = format!("p{partition}");
    run_from_pairs([(key.as_bytes(), val.as_bytes())])
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 64,
        .. ProptestConfig::default()
    })]

    /// First-finisher-wins de-dup is idempotent: however many duplicate
    /// attempts each run identity gets, and in whatever order they
    /// arrive, the receiver admits each identity exactly once and the
    /// reduce input is byte-identical.
    #[test]
    fn dedup_is_idempotent_under_arbitrary_arrival_orders(
        dups in proptest::collection::vec(1..=3usize, 8),
        order_keys in proptest::collection::vec(any::<u64>(), 24),
    ) {
        const PARTS: u32 = 2;
        // 8 identities × 1..=3 attempts each (as when a clone races its
        // primary): every attempt carries the same tag, whoever ran it.
        let mut msgs: Vec<(RunTag, glasswing::intermediate::kv::Run)> = Vec::new();
        for (i, &d) in dups.iter().enumerate() {
            let (block, partition) = (i as u32 / PARTS, i as u32 % PARTS);
            for _attempt in 0..d {
                let tag = RunTag {
                    partition,
                    block,
                    lane: 0,
                };
                msgs.push((tag, identity_run(block, partition)));
            }
        }
        // Arbitrary arrival order: argsort by the generated keys.
        let mut perm: Vec<usize> = (0..msgs.len()).collect();
        perm.sort_by_key(|&i| (order_keys[i % order_keys.len()], i));

        let store = IntermediateStore::new(IntermediateConfig {
            num_partitions: PARTS,
            ..Default::default()
        })
        .unwrap();
        // The permuted attempt stream under the receiver's admission
        // rule: a run enters the store iff the coordinator admits its
        // identity into the node's run set.
        let coordinator = Coordinator::new(
            Vec::new(),
            1,
            PARTS,
            Duration::MAX,
            None,
            SpeculationConfig::default(),
            None,
        );
        let mut admitted = 0;
        for &i in &perm {
            let (tag, run) = &msgs[i];
            if coordinator.admit(NodeId(0), *tag) {
                admitted += 1;
                store.add_run(tag.partition, run.clone());
            }
        }
        prop_assert_eq!(admitted, 8); // one admission per identity

        store.finish_map().expect("finish_map");
        // The reduce input is the k-way merge over the partition's runs;
        // compare it as the sorted record multiset, which the merge
        // reproduces bit-for-bit.
        for p in 0..PARTS {
            let mut merge = glasswing::intermediate::CursorMerge::new(
                store.partition_cursors(p).expect("partition_cursors"),
            );
            let mut got: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
            while let Some((k, v)) = merge.peek() {
                got.push((k.to_vec(), v.to_vec()));
                merge.advance().expect("merge advance");
            }
            got.sort();
            let mut want: Vec<(Vec<u8>, Vec<u8>)> = (0..4u32)
                .flat_map(|block| {
                    identity_run(block, p)
                        .iter()
                        .map(|(k, v)| (k.to_vec(), v.to_vec()))
                        .collect::<Vec<_>>()
                })
                .collect();
            want.sort();
            prop_assert_eq!(got, want); // reduce input for partition p diverged
        }
    }
}
