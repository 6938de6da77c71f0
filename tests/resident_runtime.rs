//! The resident runtime: a warm cluster spawns no thread, and a failed
//! job leaves the cluster able to run the next one.
//!
//! A `Cluster` runs every job's tasks on one runtime whose threads park
//! between jobs under their role `(physical node, role, lane)`. So once a
//! job has run at the widest configuration, every later job — at that
//! configuration or any narrower one — must find each of its roles idle:
//! its trace counts no `ThreadsSpawned`, the process holds exactly the
//! threads it held before the job, and the output bytes are a fresh
//! cluster's.
//!
//! The tests here count the process's threads, so they take turns.

use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use glasswing::apps::workloads::{self, CorpusSpec, Records};
use glasswing::apps::{TeraSort, WordCount};
use glasswing::core::{CounterId, EngineError};
use glasswing::intermediate::{IntermediateConfig, SpillOp};
use glasswing::prelude::*;

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// Threads of this process, as the kernel lists them.
fn os_threads() -> usize {
    std::fs::read_dir("/proc/self/task").map_or(0, |d| d.count())
}

/// The process's thread count once it stops changing: the test that held
/// [`SERIAL`] before may still be ending its thread, and the harness
/// starting another test's. Neither happens again while this test holds
/// the lock — every other test of the binary waits on it.
fn quiet_threads() -> usize {
    let start = Instant::now();
    loop {
        let n = os_threads();
        std::thread::sleep(Duration::from_millis(50));
        if os_threads() == n || start.elapsed() > Duration::from_secs(5) {
            return n;
        }
    }
}

/// Wait (bounded) until the process holds `n` threads: a joined thread
/// can stay listed for a moment after its join returned.
fn settle_at(n: usize) {
    let start = Instant::now();
    while os_threads() != n && start.elapsed() < Duration::from_secs(5) {
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(os_threads(), n, "process threads did not settle");
}

/// Wait (bounded) until no task of `cluster` runs: the tasks a timed-out
/// job detached have unwound.
fn drain(cluster: &Cluster) {
    let start = Instant::now();
    while cluster.runtime().busy_threads() > 0 && start.elapsed() < Duration::from_secs(10) {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(
        cluster.runtime().busy_threads(),
        0,
        "detached tasks never ended"
    );
}

type Output = Vec<(Vec<u8>, Vec<u8>)>;

/// DFS block size: a few dozen splits, so every node of a job maps some.
const BLOCK: usize = 1024;

fn cluster_over(records: &Records, nodes: u32, block: usize) -> Cluster {
    let dfs = Arc::new(Dfs::new(DfsConfig::new(nodes).free_io()));
    dfs.write_records(
        "/rt/in",
        NodeId(0),
        block,
        2.min(nodes as usize),
        records.iter().map(|(k, v)| (k.as_slice(), v.as_slice())),
    )
    .unwrap();
    Cluster::new(dfs, NetProfile::unlimited())
}

/// Run a job, read its output back and delete it, so the cluster can run
/// the next job to the same path.
fn run(
    cluster: &Cluster,
    app: &Arc<dyn GwApp>,
    cfg: &JobConfig,
) -> Result<(JobReport, Output), EngineError> {
    let report = cluster.run(Arc::clone(app), cfg)?;
    let out = read_job_output(cluster.store(), &report)?;
    for path in report.output_files() {
        cluster.store().delete(&path);
    }
    Ok((report, out))
}

fn spawned(report: &JobReport) -> u64 {
    report.metrics.counter_total(CounterId::ThreadsSpawned)
}

fn corpus() -> Records {
    workloads::text_corpus(&CorpusSpec {
        lines: 400,
        words_per_line: 10,
        vocabulary: 300,
        zipf_s: 1.05,
        seed: 35,
    })
}

fn base_cfg() -> JobConfig {
    let mut cfg = JobConfig::new("/rt/in", "/rt/out");
    cfg.device_threads = 2;
    cfg.partitions_per_node = 2;
    cfg.collector_capacity = 1 << 20;
    cfg.memory_budget = Some(1 << 17);
    cfg.job_deadline = Some(Duration::from_secs(60));
    cfg
}

/// `partition_threads` × buffering × kernel lanes, widest first.
fn matrix() -> Vec<(usize, Buffering, usize)> {
    let mut m = Vec::new();
    for partition_threads in [3, 2, 1] {
        for buffering in [Buffering::Triple, Buffering::Double, Buffering::Single] {
            for kernel in [2, 1] {
                m.push((partition_threads, buffering, kernel));
            }
        }
    }
    m
}

fn warm_jobs_spawn_nothing(name: &str, records: &Records, nodes: u32, app: Arc<dyn GwApp>) {
    let _serial = serial();
    let base = quiet_threads();
    let warm = cluster_over(records, nodes, BLOCK);
    let mut resident = None;
    for (partition_threads, buffering, kernel) in matrix() {
        let at = format!(
            "{name}: partition_threads {partition_threads}, {buffering:?}, kernel lanes {kernel}"
        );
        let mut cfg = base_cfg();
        cfg.partition_threads = partition_threads;
        cfg.buffering = buffering;
        cfg.lane_plan.kernel = kernel;
        let (_, fresh) = run(&cluster_over(records, nodes, BLOCK), &app, &cfg).unwrap();
        // The fresh cluster is gone, and its threads with it.
        let before = base + warm.runtime().threads();
        settle_at(before);
        let (report, out) = run(&warm, &app, &cfg).unwrap();
        assert_eq!(
            out, fresh,
            "{at}: warm output differs from a fresh cluster's"
        );
        assert_eq!(
            warm.runtime().busy_threads(),
            0,
            "{at}: a task outlived its job"
        );
        match resident {
            None => {
                assert!(spawned(&report) > 0, "{at}: the first job found threads");
                resident = Some(warm.runtime().threads());
            }
            Some(threads) => {
                assert_eq!(spawned(&report), 0, "{at}: a warm job spawned threads");
                assert_eq!(warm.runtime().threads(), threads, "{at}");
                assert_eq!(
                    os_threads(),
                    before,
                    "{at}: the process gained or lost threads"
                );
            }
        }
    }
}

#[test]
fn warm_wordcount_jobs_spawn_no_thread() {
    warm_jobs_spawn_nothing("WordCount", &corpus(), 1, Arc::new(WordCount::new()));
}

#[test]
fn warm_wordcount_jobs_without_a_combiner_spawn_no_thread() {
    let app = Arc::new(WordCount::without_combiner());
    warm_jobs_spawn_nothing("WordCount without combiner", &corpus(), 1, app);
}

#[test]
fn warm_terasort_jobs_spawn_no_thread() {
    let records = workloads::teragen(1200, 35);
    let samples = workloads::sample_keys(&records, 100, 3);
    let app = Arc::new(TeraSort::new(samples, base_cfg().partitions_per_node * 2));
    warm_jobs_spawn_nothing("TeraSort", &records, 2, app);
}

/// A map that sleeps on every record, so no job of it meets a short
/// deadline.
struct SlowMap;

impl GwApp for SlowMap {
    fn name(&self) -> &'static str {
        "slow-map"
    }
    fn map(&self, key: &[u8], _value: &[u8], emit: &Emit<'_>) {
        std::thread::sleep(Duration::from_millis(25));
        emit.emit(key, b"1");
    }
    fn reduce(&self, key: &[u8], _: &[&[u8]], _: &mut Vec<u8>, last: bool, emit: &Emit<'_>) {
        if last {
            emit.emit(key, b"1");
        }
    }
}

/// A map kernel that always panics: the retry budget runs out.
struct PanickingMap;

impl GwApp for PanickingMap {
    fn name(&self) -> &'static str {
        "panicking-map"
    }
    fn map(&self, _: &[u8], _: &[u8], _: &Emit<'_>) {
        panic!("injected map panic");
    }
    fn reduce(&self, _: &[u8], _: &[&[u8]], _: &mut Vec<u8>, _: bool, _: &Emit<'_>) {}
}

/// Warm `cluster` up, arm it with `plan`, run `fail` and check its
/// outcome with `failed`, then run three clean WordCount jobs on the same
/// cluster. Each must write a fresh cluster's bytes, and the runtime must
/// never hold more threads than the warm job needed plus those the failed
/// job's detached tasks still held when it returned.
fn failing_cfg() -> JobConfig {
    // A failed job may leave some partition files behind.
    let mut cfg = base_cfg();
    cfg.output = "/rt/failed".into();
    cfg
}

fn survives(
    what: &str,
    nodes: u32,
    plan: Option<FaultPlan>,
    fail: impl FnOnce(&Cluster) -> Result<(JobReport, Output), EngineError>,
    failed: impl FnOnce(&Result<(JobReport, Output), EngineError>) -> bool,
) {
    let _serial = serial();
    let records = corpus();
    let app: Arc<dyn GwApp> = Arc::new(WordCount::new());
    let cfg = base_cfg();
    let (_, fresh) = run(&cluster_over(&records, nodes, BLOCK), &app, &cfg).unwrap();

    let mut cluster = cluster_over(&records, nodes, BLOCK);
    let (_, out) = run(&cluster, &app, &cfg).unwrap();
    assert_eq!(out, fresh, "{what}: warm-up");
    let warm = cluster.runtime().threads();
    if let Some(plan) = plan {
        cluster = cluster.with_fault_plan(plan);
    }
    assert_eq!(
        cluster.runtime().threads(),
        warm,
        "arming keeps the runtime"
    );

    let outcome = fail(&cluster);
    assert!(
        failed(&outcome),
        "{what}: unexpected outcome {:?}",
        outcome.err()
    );
    let held = cluster.runtime().busy_threads();
    for rerun in 1..=3 {
        let (report, out) = run(&cluster, &app, &cfg)
            .unwrap_or_else(|e| panic!("{what}: rerun {rerun} failed: {e}"));
        assert_eq!(
            out, fresh,
            "{what}: rerun {rerun} differs from a fresh cluster's"
        );
        assert!(spawned(&report) as usize <= held, "{what}: rerun {rerun}");
        let threads = cluster.runtime().threads();
        assert!(
            threads <= warm + held,
            "{what}: rerun {rerun} holds {threads} threads, warm {warm} + {held} detached"
        );
    }
    drain(&cluster);
}

#[test]
fn the_runtime_survives_a_job_timeout() {
    for nodes in [1, 2] {
        let what = format!("timeout on {nodes} node(s)");
        survives(
            &what,
            nodes,
            None,
            |cluster| {
                let mut cfg = failing_cfg();
                cfg.job_deadline = Some(Duration::from_millis(80));
                run(cluster, &(Arc::new(SlowMap) as Arc<dyn GwApp>), &cfg)
            },
            |r| matches!(r, Err(EngineError::JobTimeout(_))),
        );
    }
}

#[test]
fn the_runtime_survives_a_panicking_map_kernel() {
    survives(
        "map panic",
        2,
        None,
        |cluster| {
            let mut cfg = failing_cfg();
            cfg.max_task_retries = 1;
            run(cluster, &(Arc::new(PanickingMap) as Arc<dyn GwApp>), &cfg)
        },
        |r| matches!(r, Err(EngineError::TaskFailed(_))),
    );
}

#[test]
fn the_runtime_survives_a_poisoned_merger() {
    survives(
        "spill fault",
        2,
        Some(FaultPlan::empty().with_spill_fault(SpillOp::Write, 0)),
        |cluster| {
            let mut cfg = failing_cfg();
            cfg.memory_budget = Some(IntermediateConfig::MIN_MEMORY_BUDGET);
            run(
                cluster,
                &(Arc::new(WordCount::new()) as Arc<dyn GwApp>),
                &cfg,
            )
        },
        |r| matches!(r, Err(EngineError::Io(_))),
    );
}

#[test]
fn the_runtime_survives_a_node_crash() {
    survives(
        "node crash",
        3,
        Some(FaultPlan::crash(2, CrashSite::Kernel, 0)),
        |cluster| {
            let mut cfg = failing_cfg();
            cfg.node_timeout = Duration::from_millis(200);
            run(
                cluster,
                &(Arc::new(WordCount::new()) as Arc<dyn GwApp>),
                &cfg,
            )
        },
        |r| matches!(r, Ok((report, _)) if report.nodes_lost == 1),
    );
}
