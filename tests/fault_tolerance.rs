//! Task-failure handling (paper §III-E).
//!
//! The original Glasswing "currently does not handle task failure", noting
//! that "the standard approach ... is re-execution: if a task fails, its
//! partial output is discarded and its input is rescheduled for
//! processing. Addition of this functionality would consist of bookkeeping
//! only". This reproduction implements that bookkeeping: map chunks whose
//! kernel fails are discarded (collector reset) and re-executed up to
//! `max_task_retries` times; exhausted budgets fail the job cleanly — on a
//! multi-node cluster a dying node must not hang its peers.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use glasswing::apps::codec::{dec_u64, enc_u64};
use glasswing::core::{EngineError, PipelineKind, StageId};
use glasswing::prelude::*;

/// Word count whose map panics the first `failures` times it sees the
/// poison marker, then behaves normally — a transient task fault.
struct FlakyWordCount {
    remaining_failures: AtomicUsize,
    poison: &'static [u8],
}

impl FlakyWordCount {
    fn new(failures: usize, poison: &'static [u8]) -> Self {
        FlakyWordCount {
            remaining_failures: AtomicUsize::new(failures),
            poison,
        }
    }
}

impl GwApp for FlakyWordCount {
    fn name(&self) -> &'static str {
        "flaky-wordcount"
    }

    fn map(&self, _key: &[u8], value: &[u8], emit: &Emit<'_>) {
        for word in value.split(|&b| b == b' ').filter(|w| !w.is_empty()) {
            if word == self.poison {
                let left = self.remaining_failures.load(Ordering::SeqCst);
                if left > 0
                    && self
                        .remaining_failures
                        .compare_exchange(left, left - 1, Ordering::SeqCst, Ordering::SeqCst)
                        .is_ok()
                {
                    panic!("injected transient map fault");
                }
            }
            emit.emit(word, &enc_u64(1));
        }
    }

    fn reduce(
        &self,
        key: &[u8],
        values: &[&[u8]],
        state: &mut Vec<u8>,
        last: bool,
        emit: &Emit<'_>,
    ) {
        if state.is_empty() {
            state.extend_from_slice(&enc_u64(0));
        }
        let mut acc = dec_u64(state);
        for v in values {
            acc += dec_u64(v);
        }
        state.copy_from_slice(&enc_u64(acc));
        if last {
            emit.emit(key, &enc_u64(acc));
        }
    }
}

/// Reducer that always panics — a deterministic reduce-side fault.
struct PoisonReduce;
impl GwApp for PoisonReduce {
    fn name(&self) -> &'static str {
        "poison-reduce"
    }
    fn map(&self, key: &[u8], value: &[u8], emit: &Emit<'_>) {
        emit.emit(key, value);
    }
    fn reduce(&self, _: &[u8], _: &[&[u8]], _: &mut Vec<u8>, _: bool, _: &Emit<'_>) {
        panic!("injected reduce fault");
    }
}

/// Word count whose reduce panics the first `failures` calls, then behaves
/// normally — a transient reduce-side fault.
struct FlakyReduce {
    remaining_failures: AtomicUsize,
}

impl FlakyReduce {
    fn new(failures: usize) -> Self {
        FlakyReduce {
            remaining_failures: AtomicUsize::new(failures),
        }
    }
}

impl GwApp for FlakyReduce {
    fn name(&self) -> &'static str {
        "flaky-reduce"
    }
    fn map(&self, _key: &[u8], value: &[u8], emit: &Emit<'_>) {
        for word in value.split(|&b| b == b' ').filter(|w| !w.is_empty()) {
            emit.emit(word, &enc_u64(1));
        }
    }
    fn reduce(
        &self,
        key: &[u8],
        values: &[&[u8]],
        state: &mut Vec<u8>,
        last: bool,
        emit: &Emit<'_>,
    ) {
        let left = self.remaining_failures.load(Ordering::SeqCst);
        if left > 0
            && self
                .remaining_failures
                .compare_exchange(left, left - 1, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
        {
            panic!("injected transient reduce fault");
        }
        if state.is_empty() {
            state.extend_from_slice(&enc_u64(0));
        }
        let mut acc = dec_u64(state);
        for v in values {
            acc += dec_u64(v);
        }
        state.copy_from_slice(&enc_u64(acc));
        if last {
            emit.emit(key, &enc_u64(acc));
        }
    }
}

fn cluster_with_lines(nodes: u32, lines: &[&str]) -> Cluster {
    let dfs = Arc::new(Dfs::new(DfsConfig::new(nodes).free_io()));
    let records: Vec<(Vec<u8>, Vec<u8>)> = lines
        .iter()
        .enumerate()
        .map(|(i, l)| (format!("{i:04}").into_bytes(), l.as_bytes().to_vec()))
        .collect();
    dfs.write_records(
        "/ft/in",
        NodeId(0),
        64,
        3,
        records.iter().map(|(k, v)| (k.as_slice(), v.as_slice())),
    )
    .unwrap();
    Cluster::new(dfs, NetProfile::unlimited())
}

fn cfg(retries: usize) -> JobConfig {
    let mut cfg = JobConfig::new("/ft/in", "/ft/out");
    cfg.device_threads = 1;
    cfg.partition_threads = 1;
    cfg.max_task_retries = retries;
    cfg
}

const LINES: &[&str] = &[
    "alpha beta gamma",
    "beta POISON beta",
    "gamma alpha alpha",
    "delta beta gamma",
];

#[test]
fn transient_map_fault_is_reexecuted_and_output_is_correct() {
    let cluster = cluster_with_lines(2, LINES);
    let app = Arc::new(FlakyWordCount::new(2, b"POISON"));
    let report = cluster.run(app, &cfg(3)).unwrap();
    let retried: usize = report.nodes.iter().map(|n| n.map.tasks_retried).sum();
    assert!(retried >= 1, "the fault must have triggered a re-execution");
    let mut out: Vec<(Vec<u8>, u64)> =
        glasswing::core::cluster::read_job_output(cluster.store(), &report)
            .unwrap()
            .into_iter()
            .map(|(k, v)| (k, dec_u64(&v)))
            .collect();
    out.sort();
    // Discard-and-reexecute must not duplicate the poisoned chunk's output.
    let beta = out.iter().find(|(k, _)| k == b"beta").unwrap().1;
    assert_eq!(
        beta, 4,
        "partial output of failed attempts must be discarded"
    );
    let alpha = out.iter().find(|(k, _)| k == b"alpha").unwrap().1;
    assert_eq!(alpha, 3);
    assert_eq!(out.iter().find(|(k, _)| k == b"POISON").unwrap().1, 1);
}

#[test]
fn exhausted_retry_budget_fails_the_job_cleanly() {
    let cluster = cluster_with_lines(1, LINES);
    // More injected failures than the retry budget allows.
    let app = Arc::new(FlakyWordCount::new(10, b"POISON"));
    let err = cluster.run(app, &cfg(1)).unwrap_err();
    assert!(matches!(err, EngineError::TaskFailed(_)), "got: {err}");
}

#[test]
fn map_fault_on_one_node_does_not_hang_the_cluster() {
    // 3 nodes; the fault fires on whichever node claims the poisoned
    // split. Unless the failing node aborts the job, the other two would
    // wait forever for a map phase that cannot complete.
    let cluster = cluster_with_lines(3, LINES);
    let app = Arc::new(FlakyWordCount::new(10, b"POISON"));
    let start = std::time::Instant::now();
    let err = cluster.run(app, &cfg(0)).unwrap_err();
    assert!(matches!(err, EngineError::TaskFailed(_)), "got: {err}");
    assert!(
        start.elapsed() < std::time::Duration::from_secs(30),
        "failure must propagate promptly, not deadlock"
    );
}

#[test]
fn zero_retries_matches_paper_behaviour() {
    // With the budget at 0 (the paper's unmodified system) a single
    // transient fault already kills the job.
    let cluster = cluster_with_lines(1, LINES);
    let app = Arc::new(FlakyWordCount::new(1, b"POISON"));
    let err = cluster.run(app, &cfg(0)).unwrap_err();
    assert!(matches!(err, EngineError::TaskFailed(_)));
}

#[test]
fn reduce_fault_fails_cleanly_with_zero_budget() {
    // The paper's unmodified behaviour: no reduce re-execution.
    let cluster = cluster_with_lines(2, LINES);
    let err = cluster.run(Arc::new(PoisonReduce), &cfg(0)).unwrap_err();
    assert!(matches!(err, EngineError::TaskFailed(_)), "got: {err}");
}

#[test]
fn deterministic_reduce_fault_exhausts_its_budget() {
    // A reducer that fails every attempt burns the whole budget, then
    // fails the job cleanly (no hang, no partial success).
    let cluster = cluster_with_lines(2, LINES);
    let err = cluster.run(Arc::new(PoisonReduce), &cfg(3)).unwrap_err();
    match err {
        EngineError::TaskFailed(msg) => {
            assert!(msg.contains("attempt"), "got: {msg}");
        }
        other => panic!("expected TaskFailed, got: {other}"),
    }
}

#[test]
fn transient_reduce_fault_is_reexecuted_and_output_is_correct() {
    let cluster = cluster_with_lines(2, LINES);
    let app = Arc::new(FlakyReduce::new(2));
    let mut job_cfg = cfg(3);
    // Force multi-chunk keys so retries must also restore cross-launch
    // scratch state, not just discard emitted records.
    job_cfg.reduce_max_values_per_chunk = 2;
    let report = cluster.run(app, &job_cfg).unwrap();
    let retried: usize = report.nodes.iter().map(|n| n.reduce.tasks_retried).sum();
    assert!(retried >= 1, "the fault must have triggered a re-execution");
    let mut out: Vec<(Vec<u8>, u64)> =
        glasswing::core::cluster::read_job_output(cluster.store(), &report)
            .unwrap()
            .into_iter()
            .map(|(k, v)| (k, dec_u64(&v)))
            .collect();
    out.sort();
    let count = |word: &[u8]| out.iter().find(|(k, _)| k == word).unwrap().1;
    assert_eq!(
        count(b"alpha"),
        3,
        "retried reduce must not lose or duplicate"
    );
    assert_eq!(count(b"beta"), 4);
    assert_eq!(count(b"gamma"), 3);
    assert_eq!(count(b"delta"), 1);
    assert_eq!(count(b"POISON"), 1);
}

/// Combiner-less word count whose reduce panics once: the first time it
/// continues a key from the state an earlier launch carried over.
struct ContinuationFault {
    armed: std::sync::atomic::AtomicBool,
}

impl GwApp for ContinuationFault {
    fn name(&self) -> &'static str {
        "continuation-fault"
    }
    fn map(&self, key: &[u8], value: &[u8], emit: &Emit<'_>) {
        WordCount::without_combiner().map(key, value, emit)
    }
    fn reduce(
        &self,
        key: &[u8],
        values: &[&[u8]],
        state: &mut Vec<u8>,
        last: bool,
        emit: &Emit<'_>,
    ) {
        if !state.is_empty() && self.armed.swap(false, Ordering::SeqCst) {
            panic!("injected fault on a carried state");
        }
        WordCount::without_combiner().reduce(key, values, state, last, emit)
    }
}

#[test]
fn retried_reduce_launches_restore_the_carried_state_byte_identically() {
    // Without a combiner a word has a value per occurrence, so slices of 1
    // or 3 values carry each key's state from launch to launch. The
    // reduce-site fault fails a node's first launch; the app's fault fails
    // a continuation, whose retry must start again from the carried state.
    let lines: Vec<String> = (0..120)
        .map(|i| format!("hot w{} hot x{} hot", i % 5, i % 3))
        .collect();
    let lines: Vec<&str> = lines.iter().map(String::as_str).collect();
    let run = |cluster: &Cluster, app: Arc<dyn GwApp>, cfg: &JobConfig| {
        let report = cluster.run(app, cfg).unwrap();
        let retried: usize = report.nodes.iter().map(|n| n.reduce.tasks_retried).sum();
        let out = glasswing::core::cluster::read_job_output(cluster.store(), &report).unwrap();
        (retried, out)
    };
    let (_, reference) = run(
        &cluster_with_lines(2, &lines),
        Arc::new(WordCount::without_combiner()),
        &cfg(0),
    );
    for max_values in [1, 3] {
        let mut job_cfg = cfg(1);
        job_cfg.reduce_max_values_per_chunk = max_values;
        let plan = Arc::new(FaultPlan::crash(1, CrashSite::Reduce, 0));
        let site = cluster_with_lines(2, &lines).with_fault_plan(Arc::clone(&plan));
        let app = Arc::new(ContinuationFault {
            armed: std::sync::atomic::AtomicBool::new(true),
        });
        for (what, cluster, app) in [
            (
                "reduce-site fault",
                site,
                Arc::new(WordCount::without_combiner()) as Arc<dyn GwApp>,
            ),
            ("continuation fault", cluster_with_lines(2, &lines), app),
        ] {
            let (retried, out) = run(&cluster, app, &job_cfg);
            assert_eq!(retried, 1, "{what} at {max_values} values");
            assert_eq!(out, reference, "{what} at {max_values} values");
        }
        assert_eq!(plan.unfired(), Vec::<&str>::new(), "{max_values} values");
    }
}

#[test]
fn exhausted_budget_surfaces_task_failure_before_any_deadline() {
    // A deterministic fault burns the whole re-execution budget on a
    // multi-node cluster. The job must surface `TaskFailed` on its own —
    // the watchdog deadline is armed purely as a hang detector and must
    // never be the thing that fires.
    let cluster = cluster_with_lines(2, LINES);
    let app = Arc::new(FlakyWordCount::new(100, b"POISON"));
    let mut job_cfg = cfg(2);
    job_cfg.job_deadline = Some(std::time::Duration::from_secs(30));
    let start = std::time::Instant::now();
    let err = cluster.run(app, &job_cfg).unwrap_err();
    match err {
        EngineError::TaskFailed(msg) => {
            assert!(
                msg.contains("attempt"),
                "the error must account for the exhausted budget, got: {msg}"
            );
        }
        EngineError::JobTimeout(_) => {
            panic!("retry exhaustion hung until the watchdog killed the job")
        }
        other => panic!("expected TaskFailed, got: {other}"),
    }
    assert!(
        start.elapsed() < std::time::Duration::from_secs(10),
        "exhaustion must fail fast, not crawl toward the deadline"
    );
}

#[test]
fn retried_tasks_keep_job_report_fault_accounting_consistent() {
    // A job that survives transient faults must report them — and only
    // them: the discarded attempts may not inflate the trace-derived
    // chunk accounting, since a retried chunk completes its stage once.
    let cluster = cluster_with_lines(2, LINES);
    let app = Arc::new(FlakyWordCount::new(2, b"POISON"));
    let report = cluster.run(app, &cfg(3)).unwrap();
    let retried: usize = report.nodes.iter().map(|n| n.map.tasks_retried).sum();
    assert!(retried >= 1, "the fault must be visible in the report");
    let splits: usize = report.nodes.iter().map(|n| n.map.splits).sum();
    assert_eq!(
        report
            .metrics
            .chunks_total(PipelineKind::Map, StageId::Kernel),
        splits as u64,
        "each split's chunk must be accounted exactly once despite retries"
    );
}

#[test]
fn retries_do_not_perturb_healthy_jobs() {
    let cluster = cluster_with_lines(2, LINES);
    let app = Arc::new(FlakyWordCount::new(0, b"POISON"));
    let report = cluster.run(app, &cfg(3)).unwrap();
    assert_eq!(
        report
            .nodes
            .iter()
            .map(|n| n.map.tasks_retried)
            .sum::<usize>(),
        0
    );
}

/// Word count whose partition function panics on its `nth` call — a bug
/// in the map side's host code, outside any retried kernel.
struct PanickingPartition {
    calls: AtomicUsize,
    nth: usize,
}

impl GwApp for PanickingPartition {
    fn name(&self) -> &'static str {
        "panicking-partition"
    }
    fn map(&self, key: &[u8], value: &[u8], emit: &Emit<'_>) {
        WordCount::new().map(key, value, emit)
    }
    fn reduce(
        &self,
        key: &[u8],
        values: &[&[u8]],
        state: &mut Vec<u8>,
        last: bool,
        emit: &Emit<'_>,
    ) {
        WordCount::new().reduce(key, values, state, last, emit)
    }
    fn partition(&self, key: &[u8], num_partitions: u32) -> u32 {
        if self.calls.fetch_add(1, Ordering::SeqCst) + 1 == self.nth {
            panic!("injected partition panic");
        }
        WordCount::new().partition(key, num_partitions)
    }
}

#[test]
fn a_panicking_map_stage_fails_the_job_without_stranding_its_peers() {
    // The panicking partition lane must kill its node, or the node's input
    // lane waits for a map completion that never comes; and the node's
    // failure must abort the job, or its peer waits out the node timeout
    // (far past the deadline here) before re-executing its splits.
    let lines: Vec<String> = (0..2000).map(|i| format!("w{i} x{} y{i}", i % 7)).collect();
    let lines: Vec<&str> = lines.iter().map(String::as_str).collect();
    let plan = Arc::new(FaultPlan::empty());
    let cluster = cluster_with_lines(2, &lines).with_fault_plan(Arc::clone(&plan));
    let app = Arc::new(PanickingPartition {
        calls: AtomicUsize::new(0),
        nth: 500,
    });
    let mut job_cfg = cfg(0);
    job_cfg.node_timeout = std::time::Duration::from_secs(60);
    job_cfg.job_deadline = Some(std::time::Duration::from_secs(10));
    let start = std::time::Instant::now();
    let err = cluster.run(app, &job_cfg).unwrap_err();
    assert!(matches!(err, EngineError::TaskFailed(_)), "got: {err}");
    assert!(
        start.elapsed() < std::time::Duration::from_secs(5),
        "took {:?}",
        start.elapsed()
    );
    assert_eq!(plan.unfired(), Vec::<&str>::new());
}

#[test]
fn a_malformed_kmeans_point_fails_its_map_task_not_the_answer() {
    use glasswing::apps::workloads::{self, KmeansSpec};

    // One 7-float point among 8-float points. Assigned by the coordinates
    // it has it would be a plausible, wrong member of some center, so the
    // map kernel must refuse it where it decodes it, in every build
    // profile (`cargo test --release` too): the chunk's partial output is
    // discarded and the job fails typed. Without that check an optimised
    // build assigns the point and stops only if a later stage happens to
    // add vectors of unequal length — with the buffer pool, in the reduce.
    let spec = KmeansSpec {
        points: 200,
        dims: 8,
        centers: 10,
        seed: 9,
    };
    let mut points = workloads::kmeans_points(&spec);
    points[137].1.truncate(7 * 4);
    for collector in [CollectorKind::HashTable, CollectorKind::BufferPool] {
        let dfs = Arc::new(Dfs::new(DfsConfig::new(1).free_io()));
        dfs.write_records(
            "/ft/in",
            NodeId(0),
            2 << 10,
            1,
            points.iter().map(|(k, v)| (k.as_slice(), v.as_slice())),
        )
        .unwrap();
        let cluster = Cluster::new(dfs, NetProfile::unlimited());
        let centers = workloads::kmeans_centers(&spec);
        let app = Arc::new(KMeans::new(centers, spec.centers, spec.dims));
        let mut cfg = cfg(1);
        cfg.collector = collector;
        match cluster.run(app, &cfg) {
            Err(EngineError::TaskFailed(msg)) => {
                assert!(msg.starts_with("map task"), "{collector:?}: {msg}")
            }
            other => panic!("{collector:?}: expected TaskFailed, got {other:?}"),
        }
    }
}
