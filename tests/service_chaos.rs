//! Chaos on the resident service: node deaths with multiple tenants
//! resident on the shared cluster.
//!
//! A service job's fault plan is scoped to its own run, but a *node
//! death* is physical — the dead machine is marked dead in the shared
//! store, so co-tenant jobs see its replicas vanish mid-read. The
//! battery pins the composed invariant: the armed job recovers onto its
//! surviving nodes, the innocent co-tenant fails over its reads, and
//! **both** finish byte-identical to solo fault-free references. Per-job
//! speculation ledgers must balance (`launched == won + cancelled +
//! failed`) even with two jobs speculating independently.

use std::sync::Arc;
use std::time::Duration;

use glasswing::apps::workloads::{web_logs, LogSpec};
use glasswing::apps::PageviewCount;
use glasswing::core::EngineError;
use glasswing::prelude::*;
use glasswing::service::{ServiceConfig, ServiceReport, TenantSpec};

const NODES: u32 = 4;
const SLOTS: u32 = 2;

fn log_spec(seed: u64) -> LogSpec {
    LogSpec {
        entries: 240,
        hot_urls: 16,
        hot_fraction: 0.2,
        seed,
    }
}

fn input_path(seed: u64) -> String {
    format!("/svc/in-{seed}")
}

fn write_inputs(dfs: &Dfs, seeds: &[u64]) {
    for &seed in seeds {
        let records = web_logs(&log_spec(seed));
        dfs.write_records(
            &input_path(seed),
            NodeId(0),
            400,
            3, // every block keeps replicas beyond any single dead node
            records.iter().map(|(k, v)| (k.as_slice(), v.as_slice())),
        )
        .unwrap();
    }
}

/// A 200 ms node timeout so a killed node's splits reschedule quickly,
/// and a watchdog backstop so nothing can hang.
fn chaos_cfg(seed: u64) -> JobConfig {
    let mut cfg = JobConfig::new(input_path(seed), "/ignored");
    cfg.device_threads = 1;
    cfg.partitions_per_node = 2;
    cfg.collector_capacity = 1 << 20;
    cfg.memory_budget = Some(1 << 17);
    cfg.max_task_retries = 1;
    cfg.node_timeout = Duration::from_millis(200);
    cfg.job_deadline = Some(Duration::from_secs(60));
    cfg
}

fn service_over(dfs: Arc<Dfs>) -> Service {
    let cfg = ServiceConfig {
        cache_capacity: 0, // chaos runs must all execute, never cache-hit
        tenants: vec![TenantSpec::new("armed", 1), TenantSpec::new("bystander", 1)],
        ..ServiceConfig::default()
    };
    Service::start(Arc::new(Cluster::new(dfs, NetProfile::unlimited())), cfg)
}

/// Solo fault-free reference on a dedicated SLOTS-node cluster.
fn solo_reference(seed: u64) -> Vec<(Vec<u8>, Vec<u8>)> {
    let dfs = Arc::new(Dfs::new(DfsConfig::new(SLOTS).free_io()));
    write_inputs(&dfs, &[seed]);
    let cluster = Cluster::new(dfs, NetProfile::unlimited());
    let mut cfg = chaos_cfg(seed);
    cfg.output = format!("/solo/out-{seed}");
    let report = cluster.run(Arc::new(PageviewCount::new()), &cfg).unwrap();
    read_job_output(cluster.store(), &report).unwrap()
}

fn submit(
    service: &Service,
    tenant: &str,
    seed: u64,
    plan: Option<Arc<FaultPlan>>,
    speculate: bool,
) -> glasswing::service::JobTicket {
    let mut cfg = chaos_cfg(seed);
    if speculate {
        cfg.speculation.enabled = true;
        cfg.speculation.min_runtime = Duration::from_millis(5);
        cfg.speculation.backoff = Duration::from_millis(5);
    }
    service
        .submit(JobSpec {
            tenant: tenant.into(),
            app: Arc::new(PageviewCount::new()),
            cfg,
            workload_seed: seed,
            slots: SLOTS,
            fault_plan: plan,
        })
        .expect("within admission bounds")
}

fn assert_ledger_balances(tag: &str, report: &ServiceReport) {
    let s = &report.report.speculation;
    assert_eq!(
        s.launched,
        s.won + s.cancelled + s.failed,
        "{tag}: speculation ledger out of balance: {s:?}"
    );
}

#[test]
fn node_kill_with_two_resident_jobs_recovers_both_byte_identical() {
    // Sweep style: kill virtual node 0 or 1 of the armed job at each
    // pipeline crash site. Ten schedules, each on a fresh service with
    // two jobs resident; both must match their solo fault-free bytes.
    let ref_armed = solo_reference(1);
    let ref_bystander = solo_reference(2);
    for site in [
        CrashSite::Read,
        CrashSite::Stage,
        CrashSite::Kernel,
        CrashSite::Retrieve,
        CrashSite::Shuffle,
    ] {
        for node in 0..SLOTS {
            let tag = format!("site {} node {node}", site.name());
            let dfs = Arc::new(Dfs::new(DfsConfig::new(NODES).free_io()));
            write_inputs(&dfs, &[1, 2]);
            let service = service_over(dfs);

            let plan = Arc::new(FaultPlan::crash(node, site, 1));
            let armed = submit(&service, "armed", 1, Some(Arc::clone(&plan)), false);
            let bystander = submit(&service, "bystander", 2, None, false);

            let ra = armed
                .wait()
                .unwrap_or_else(|e| panic!("{tag}: armed job did not recover: {e}"));
            let rb = bystander
                .wait()
                .unwrap_or_else(|e| panic!("{tag}: bystander job failed: {e}"));

            assert_eq!(
                ra.report.nodes_lost, 1,
                "{tag}: the armed job must lose exactly one node"
            );
            assert_eq!(
                rb.report.nodes_lost, 0,
                "{tag}: the bystander's own nodes all survive"
            );
            assert_eq!(
                *ra.output, ref_armed,
                "{tag}: armed job output diverged from its solo reference"
            );
            assert_eq!(
                *rb.output, ref_bystander,
                "{tag}: bystander output diverged — multi-tenancy leaked into bytes"
            );
            assert_ledger_balances(&tag, &ra);
            assert_ledger_balances(&tag, &rb);
            assert_eq!(
                plan.unfired(),
                Vec::<&str>::new(),
                "{tag}: the crash never fired"
            );
        }
    }
}

#[test]
fn seeded_sweep_with_a_bystander_is_correct_or_fails_cleanly() {
    // gw-chaos seeded schedules (crashes, stalls, net faults) against the
    // armed tenant, SLOTS-node scoped. The bystander must *always* finish
    // with reference bytes; the armed job either recovers byte-identical
    // or fails with a clean typed error — never a hang past the watchdog.
    let ref_armed = solo_reference(1);
    let ref_bystander = solo_reference(2);
    let (mut recovered, mut unfired) = (0usize, 0usize);
    let seeds: Vec<u64> = std::env::var("GW_CHAOS_SEEDS")
        .ok()
        .map(|s| s.split_whitespace().map(|t| t.parse().unwrap()).collect())
        .unwrap_or_else(|| (0..10).collect());
    for &seed in &seeds {
        let plan = Arc::new(FaultPlan::from_seed(seed, SLOTS));
        let schedule = plan.describe();
        let dfs = Arc::new(Dfs::new(DfsConfig::new(NODES).free_io()));
        write_inputs(&dfs, &[1, 2]);
        let service = service_over(dfs);

        let armed = submit(&service, "armed", 1, Some(Arc::clone(&plan)), false);
        let bystander = submit(&service, "bystander", 2, None, false);

        match armed.wait() {
            Ok(ra) => {
                assert_eq!(
                    *ra.output, ref_armed,
                    "seed {seed} ({schedule}): armed output diverged"
                );
                assert_ledger_balances(&format!("seed {seed} armed"), &ra);
                recovered += 1;
            }
            Err(ServiceError::Engine(EngineError::JobTimeout(_))) => {
                panic!("seed {seed} ({schedule}): armed job hung until the watchdog")
            }
            Err(ServiceError::Engine(_)) => {
                // Clean typed failure is acceptable; silence is not.
            }
            Err(other) => panic!("seed {seed} ({schedule}): unexpected error {other}"),
        }
        let rb = bystander
            .wait()
            .unwrap_or_else(|e| panic!("seed {seed} ({schedule}): bystander failed: {e}"));
        assert_eq!(
            *rb.output, ref_bystander,
            "seed {seed} ({schedule}): bystander output diverged"
        );
        assert_ledger_balances(&format!("seed {seed} bystander"), &rb);
        unfired += plan.unfired().len();
    }
    eprintln!(
        "{recovered}/{} seeds recovered, {unfired} armed faults never fired",
        seeds.len()
    );
    assert!(
        recovered * 2 >= seeds.len(),
        "only {recovered}/{} seeds recovered — service recovery too lossy",
        seeds.len()
    );
}

#[test]
fn speculating_tenants_keep_independent_balanced_ledgers() {
    // Both jobs speculate; one is also slowed by a gray fault so it
    // actually launches clones. Budgets and ledgers are per job: each
    // must balance on its own, and bytes never change.
    let ref_armed = solo_reference(1);
    let ref_bystander = solo_reference(2);
    let dfs = Arc::new(Dfs::new(DfsConfig::new(NODES).free_io()));
    write_inputs(&dfs, &[1, 2]);
    let service = service_over(dfs);

    let plan = Arc::new(FaultPlan::empty().with_slowdown(0, 400));
    let armed = submit(&service, "armed", 1, Some(Arc::clone(&plan)), true);
    let bystander = submit(&service, "bystander", 2, None, true);

    let ra = armed.wait().expect("gray faults never kill a job");
    let rb = bystander.wait().expect("unarmed job runs clean");
    assert_eq!(*ra.output, ref_armed);
    assert_eq!(*rb.output, ref_bystander);
    assert_ledger_balances("armed", &ra);
    assert_ledger_balances("bystander", &rb);
    assert_eq!(ra.report.nodes_lost, 0);
    assert_eq!(rb.report.nodes_lost, 0);
    assert!(
        rb.report.speculation.launched <= chaos_cfg(2).speculation.budget,
        "budget is per job, not per service"
    );
    assert_eq!(plan.unfired(), Vec::<&str>::new());
}
