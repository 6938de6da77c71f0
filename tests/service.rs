//! The resident-service determinism battery.
//!
//! The service's core promise: multi-tenancy is *invisible in the bytes*.
//! A job submitted to a shared, loaded cluster must produce output
//! byte-identical to the same job run solo on a dedicated cluster of the
//! same size, no matter how many co-tenants run concurrently, in what
//! order the jobs were submitted, or whether the result came from the
//! cache.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;

use glasswing::apps::workloads::{web_logs, LogSpec};
use glasswing::apps::PageviewCount;
use glasswing::core::CounterId;
use glasswing::prelude::*;
use glasswing::service::JobTicket;

/// Distinct pageview datasets in play, keyed by workload seed.
const CATALOG: u64 = 4;

fn log_spec(seed: u64) -> LogSpec {
    LogSpec {
        entries: 300,
        hot_urls: 20,
        hot_fraction: 0.2,
        seed,
    }
}

fn input_path(seed: u64) -> String {
    format!("/svc/in-{seed}")
}

/// A DFS preloaded with every catalog dataset.
fn make_store(nodes: u32) -> Arc<Dfs> {
    let dfs = Arc::new(Dfs::new(DfsConfig::new(nodes).free_io()));
    for seed in 0..CATALOG {
        let records = web_logs(&log_spec(seed));
        dfs.write_records(
            &input_path(seed),
            NodeId(0),
            600,
            2,
            records.iter().map(|(k, v)| (k.as_slice(), v.as_slice())),
        )
        .unwrap();
    }
    dfs
}

fn job_cfg(seed: u64) -> JobConfig {
    let mut cfg = JobConfig::new(input_path(seed), "/ignored");
    cfg.partitions_per_node = 2;
    cfg.collector_capacity = 1 << 20;
    cfg.memory_budget = Some(1 << 17);
    cfg
}

fn service_config() -> ServiceConfig {
    let mut cfg = ServiceConfig {
        max_queued: 64,
        tenants: vec![TenantSpec::new("alpha", 2), TenantSpec::new("beta", 1)],
        ..ServiceConfig::default()
    };
    for t in &mut cfg.tenants {
        t.max_queued = 32;
    }
    cfg
}

fn submit(service: &Service, tenant: &str, seed: u64, slots: u32) -> JobTicket {
    service
        .submit(JobSpec {
            tenant: tenant.into(),
            app: Arc::new(PageviewCount::new()),
            cfg: job_cfg(seed),
            workload_seed: seed,
            slots,
            fault_plan: None,
        })
        .expect("within admission bounds")
}

/// Output bytes of one job: the solo-reference comparison currency.
type Bytes = Vec<(Vec<u8>, Vec<u8>)>;

/// The solo reference: the same (seed, slots) job on a *dedicated*
/// fresh cluster of exactly `slots` nodes.
fn solo_reference(seed: u64, slots: u32) -> Bytes {
    let dfs = Arc::new(Dfs::new(DfsConfig::new(slots).free_io()));
    let records = web_logs(&log_spec(seed));
    dfs.write_records(
        &input_path(seed),
        NodeId(0),
        600,
        2,
        records.iter().map(|(k, v)| (k.as_slice(), v.as_slice())),
    )
    .unwrap();
    let cluster = Cluster::new(dfs, NetProfile::unlimited());
    let mut cfg = job_cfg(seed);
    cfg.output = format!("/solo/out-{seed}-{slots}");
    let report = cluster.run(Arc::new(PageviewCount::new()), &cfg).unwrap();
    read_job_output(cluster.store(), &report).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 6,
        .. ProptestConfig::default()
    })]

    /// N concurrent jobs in an arbitrary submission order, with arbitrary
    /// seeds, slot counts and tenants, all return bytes identical to
    /// their solo one-shot references — the jobs × arrival-order matrix.
    #[test]
    fn any_interleaving_matches_solo_references(
        draws in proptest::collection::vec((0u64..CATALOG, 1u32..3, any::<bool>()), 2..7),
        order_seed in any::<u64>(),
    ) {
        // Deterministic permutation of the submission order.
        let mut order: Vec<usize> = (0..draws.len()).collect();
        let mut state = order_seed | 1;
        for i in (1..order.len()).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            order.swap(i, (state >> 33) as usize % (i + 1));
        }

        let service = Service::start(
            Arc::new(Cluster::new(make_store(4), NetProfile::unlimited())),
            service_config(),
        );
        let mut tickets = Vec::new();
        for &i in &order {
            let (seed, slots, alpha) = draws[i];
            let tenant = if alpha { "alpha" } else { "beta" };
            tickets.push((i, submit(&service, tenant, seed, slots)));
        }
        let mut solo: HashMap<(u64, u32), Bytes> = HashMap::new();
        for (i, ticket) in tickets {
            let (seed, slots, _) = draws[i];
            let report = ticket.wait().expect("service job runs");
            let reference = solo
                .entry((seed, slots))
                .or_insert_with(|| solo_reference(seed, slots));
            prop_assert!(
                report.output.as_slice() == reference.as_slice(),
                "job {} (seed {}, {} slots) diverged from its solo reference",
                i, seed, slots
            );
        }
    }
}

#[test]
fn repeat_submissions_hit_the_cache_byte_identically_with_no_new_runs() {
    let service = Service::start(
        Arc::new(Cluster::new(make_store(4), NetProfile::unlimited())),
        service_config(),
    );
    let first = submit(&service, "alpha", 1, 2).wait().unwrap();
    assert!(!first.report.served_from_cache);
    let runs_before = service.counters().engine_runs;
    let mapped_before: usize = first.report.records_mapped();
    assert!(mapped_before > 0, "the priming run mapped records");

    // Same seed+slots from the *other* tenant: a cache hit.
    let second = submit(&service, "beta", 1, 2).wait().unwrap();
    assert!(
        second.report.served_from_cache,
        "repeat must be served from cache"
    );
    assert_eq!(second.output, first.output, "cache hits are byte-identical");
    assert_eq!(
        service.counters().engine_runs,
        runs_before,
        "a cache hit launches zero new engine runs (and so zero new map tasks)"
    );
    assert_eq!(service.counters().cache_hits, 1);

    // A different slot count is different work: miss, new engine run.
    let third = submit(&service, "beta", 1, 1).wait().unwrap();
    assert!(!third.report.served_from_cache);
    assert_eq!(service.counters().engine_runs, runs_before + 1);
}

#[test]
fn service_bytes_match_solo_even_under_concurrent_load() {
    let service = Service::start(
        Arc::new(Cluster::new(make_store(4), NetProfile::unlimited())),
        service_config(),
    );
    // Two 2-slot jobs resident at once on the 4-node cluster.
    let a = submit(&service, "alpha", 2, 2);
    let b = submit(&service, "beta", 3, 2);
    let ra = a.wait().unwrap();
    let rb = b.wait().unwrap();
    assert_eq!(*ra.output, solo_reference(2, 2));
    assert_eq!(*rb.output, solo_reference(3, 2));
    // Both ran (different seeds: no cache crosstalk).
    assert_eq!(service.counters().engine_runs, 2);
    assert!(ra.turnaround >= ra.queue_wait);
    assert!(rb.turnaround >= rb.queue_wait);

    // The first wave left a parked thread for every role of both node
    // pairs: a second wave (new seeds, so no cache hit) spawns none.
    let runtime = Arc::clone(service.cluster().runtime());
    let warm = runtime.threads();
    let c = submit(&service, "alpha", 0, 2);
    let d = submit(&service, "beta", 1, 2);
    for (ticket, seed) in [(c, 0), (d, 1)] {
        let r = ticket.wait().unwrap();
        assert_eq!(*r.output, solo_reference(seed, 2));
        let spawned = r.report.metrics.counter_total(CounterId::ThreadsSpawned);
        assert_eq!(spawned, 0, "seed {seed}: a warm submission spawned threads");
    }
    assert_eq!(service.counters().engine_runs, 4);
    assert_eq!(
        runtime.threads(),
        warm,
        "the service spawned a thread per job"
    );
}

#[test]
fn queue_wait_is_reported_for_jobs_that_had_to_wait() {
    // One-node cluster: the second job must queue behind the first.
    let dfs = Arc::new(Dfs::new(DfsConfig::new(1).free_io()));
    let records = web_logs(&log_spec(0));
    dfs.write_records(
        &input_path(0),
        NodeId(0),
        600,
        2,
        records.iter().map(|(k, v)| (k.as_slice(), v.as_slice())),
    )
    .unwrap();
    let service = Service::start(
        Arc::new(Cluster::new(dfs, NetProfile::unlimited())),
        service_config(),
    );
    let a = submit(&service, "alpha", 0, 1);
    let b = submit(&service, "beta", 0, 1);
    let ra = a.wait().unwrap();
    let rb = b.wait().unwrap();
    // Whichever dispatched second either waited or was served from the
    // first one's cached result.
    assert!(
        rb.report.served_from_cache
            || rb.queue_wait > Duration::ZERO
            || ra.queue_wait > Duration::ZERO,
        "a 1-node cluster cannot run two jobs at once"
    );
}
