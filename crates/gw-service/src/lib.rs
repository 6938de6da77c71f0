//! gw-service — the resident multi-tenant Glasswing job service.
//!
//! Everything below PR 8 runs *one job per cluster*: construct, run,
//! tear down. This crate turns the engine into a long-lived service the
//! way the paper's clusters were actually operated — many tenants, a
//! stream of submissions, shared nodes:
//!
//! - **Admission control** ([`Service::submit`]): bounded queues and
//!   per-tenant quotas; overload sheds with typed
//!   [`ServiceError::AdmissionRejected`] instead of blocking submitters.
//! - **Weighted-fair scheduling** ([`FairScheduler`]): tenants share the
//!   cluster's nodes under a slot model — virtual-time WFQ over
//!   slot-seconds with a starvation override, dispatching each job onto
//!   a node *subset* via [`gw_core::RunScope`]. A slot-owner ledger
//!   guarantees two concurrent jobs never double-book a node's lanes.
//! - **Result caching** ([`ResultCache`]): Glasswing's determinism
//!   contract (output bytes are a function of workload, config and node
//!   count) makes repeat submissions cacheable; hits are byte-identical
//!   and flagged with `JobReport::served_from_cache`.
//! - **Interference attribution**: all resident jobs trace into one
//!   service-lifetime [`gw_trace::Tracer`] on per-job lane realms;
//!   [`Service::interference`] reports pairwise wall-clock overlap and
//!   shared-node sets.
//!
//! ```no_run
//! # use std::sync::Arc;
//! # use gw_service::{Service, ServiceConfig, TenantSpec, JobSpec};
//! # fn demo(cluster: Arc<gw_core::Cluster>, app: Arc<dyn gw_core::GwApp>) {
//! let mut cfg = ServiceConfig::default();
//! cfg.tenants.push(TenantSpec::new("analytics", 2));
//! let service = Service::start(cluster, cfg);
//! let ticket = service
//!     .submit(JobSpec {
//!         tenant: "analytics".into(),
//!         app,
//!         cfg: gw_core::JobConfig::new("/logs/in", "/ignored"),
//!         workload_seed: 42,
//!         slots: 2,
//!         fault_plan: None,
//!     })
//!     .expect("admitted");
//! let report = ticket.wait().expect("job ran");
//! assert!(!report.report.served_from_cache);
//! # }
//! ```

pub mod cache;
pub mod error;
pub mod sched;
pub mod service;
pub mod telemetry;

pub use cache::{CacheKey, CachedResult, ResultCache};
pub use error::{RejectReason, ServiceError};
pub use sched::{Dispatch, FairScheduler, SchedConfig};
pub use service::{
    CounterSnapshot, JobSpec, JobTicket, Service, ServiceConfig, ServiceReport, TenantSpec,
};
pub use telemetry::{GaugeValues, ServiceTelemetry, TelemetryConfig};

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    use gw_core::{Cluster, Emit, GwApp, JobConfig};
    use gw_net::NetProfile;
    use gw_storage::split::FileStoreExt;
    use gw_storage::{Dfs, DfsConfig, NodeId};

    /// Word count without a combiner — small and shuffle-heavy.
    struct WordCount;
    impl GwApp for WordCount {
        fn name(&self) -> &'static str {
            "svc-wordcount"
        }
        fn map(&self, _key: &[u8], value: &[u8], emit: &Emit<'_>) {
            for word in value.split(|&b| b == b' ').filter(|w| !w.is_empty()) {
                emit.emit(word, &1u64.to_le_bytes());
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
                state.extend_from_slice(&0u64.to_le_bytes());
            }
            let mut acc = u64::from_le_bytes(state.as_slice().try_into().unwrap());
            for v in values {
                acc += u64::from_le_bytes((*v).try_into().unwrap());
            }
            state.copy_from_slice(&acc.to_le_bytes());
            if last {
                emit.emit(key, &acc.to_le_bytes());
            }
        }
    }

    /// Word count with a per-record delay — pins a node long enough for
    /// queue-state tests to observe jobs still waiting.
    struct SlowWordCount;
    impl GwApp for SlowWordCount {
        fn name(&self) -> &'static str {
            "svc-slow-wordcount"
        }
        fn map(&self, key: &[u8], value: &[u8], emit: &Emit<'_>) {
            std::thread::sleep(Duration::from_millis(5));
            WordCount.map(key, value, emit);
        }
        fn reduce(
            &self,
            key: &[u8],
            values: &[&[u8]],
            state: &mut Vec<u8>,
            last: bool,
            emit: &Emit<'_>,
        ) {
            WordCount.reduce(key, values, state, last, emit);
        }
    }

    fn make_cluster(nodes: u32) -> Arc<Cluster> {
        let dfs = Arc::new(Dfs::new(DfsConfig::new(nodes).free_io()));
        let lines: Vec<(Vec<u8>, Vec<u8>)> = (0..24)
            .map(|i| {
                (
                    format!("line{i}").into_bytes(),
                    b"to be or not to be that is the question".to_vec(),
                )
            })
            .collect();
        dfs.write_records(
            "/svc/in",
            NodeId(0),
            400,
            2,
            lines.iter().map(|(k, v)| (k.as_slice(), v.as_slice())),
        )
        .unwrap();
        Arc::new(Cluster::new(dfs, NetProfile::unlimited()))
    }

    fn job_cfg() -> JobConfig {
        let mut cfg = JobConfig::new("/svc/in", "/ignored");
        cfg.collector_capacity = 1 << 20;
        cfg.memory_budget = Some(1 << 17);
        cfg
    }

    fn svc_cfg() -> ServiceConfig {
        ServiceConfig {
            max_queued: 8,
            starvation_deadline: Duration::from_secs(30),
            cache_capacity: 8,
            tenants: vec![TenantSpec::new("a", 2), TenantSpec::new("b", 1)],
            telemetry: TelemetryConfig::default(),
        }
    }

    fn spec(tenant: &str, seed: u64, slots: u32) -> JobSpec {
        JobSpec {
            tenant: tenant.into(),
            app: Arc::new(WordCount),
            cfg: job_cfg(),
            workload_seed: seed,
            slots,
            fault_plan: None,
        }
    }

    #[test]
    fn admission_rejects_are_typed_and_immediate() {
        let service = Service::start(make_cluster(2), svc_cfg());
        let err = service.submit(spec("nobody", 1, 1)).unwrap_err();
        assert!(matches!(
            err,
            ServiceError::AdmissionRejected(RejectReason::UnknownTenant(_))
        ));
        let err = service.submit(spec("a", 1, 9)).unwrap_err();
        assert!(matches!(
            err,
            ServiceError::AdmissionRejected(RejectReason::SlotsUnsatisfiable {
                requested: 9,
                total: 2
            })
        ));
        assert_eq!(service.counters().rejected, 2);
        assert_eq!(service.counters().submitted, 0);
    }

    #[test]
    fn quotas_shed_load_without_blocking() {
        let mut cfg = svc_cfg();
        cfg.max_queued = 3;
        for t in &mut cfg.tenants {
            t.max_queued = 2;
        }
        // One-node cluster: the first job occupies it while the rest queue.
        let service = Service::start(make_cluster(1), cfg);
        let mut tickets = Vec::new();
        let mut rejected_tenant = 0;
        let mut rejected_global = 0;
        for (i, tenant) in ["a", "a", "a", "b", "b", "b"].iter().enumerate() {
            let mut s = spec(tenant, 100 + i as u64, 1);
            s.app = Arc::new(SlowWordCount);
            match service.submit(s) {
                Ok(t) => tickets.push(t),
                Err(ServiceError::AdmissionRejected(RejectReason::TenantQueueFull { .. })) => {
                    rejected_tenant += 1
                }
                Err(ServiceError::AdmissionRejected(RejectReason::QueueFull { .. })) => {
                    rejected_global += 1
                }
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        assert!(
            rejected_tenant + rejected_global > 0,
            "six submissions into bounds of 3 global / 2 per tenant must shed"
        );
        for t in tickets {
            t.wait().unwrap();
        }
    }

    #[test]
    fn concurrent_jobs_share_the_cluster_and_cache_serves_repeats() {
        let service = Service::start(make_cluster(4), svc_cfg());
        // Two 2-slot jobs with different seeds run concurrently.
        let t1 = service.submit(spec("a", 7, 2)).unwrap();
        let t2 = service.submit(spec("b", 8, 2)).unwrap();
        let r1 = t1.wait().unwrap();
        let r2 = t2.wait().unwrap();
        assert!(!r1.report.served_from_cache);
        assert!(!r2.report.served_from_cache);
        // Same input: identical bytes, from distinct engine runs.
        assert_eq!(r1.output, r2.output);
        assert_eq!(service.counters().engine_runs, 2);

        // Repeat of seed 7 (any tenant): served from cache, byte-identical,
        // zero new engine runs.
        let r3 = service.submit(spec("b", 7, 2)).unwrap().wait().unwrap();
        assert!(r3.report.served_from_cache);
        assert_eq!(r3.output, r1.output);
        assert_eq!(service.counters().engine_runs, 2);
        assert_eq!(service.counters().cache_hits, 1);

        // Same seed on a different slot count is different work.
        let r4 = service.submit(spec("b", 7, 1)).unwrap().wait().unwrap();
        assert!(!r4.report.served_from_cache);
        assert_eq!(service.counters().engine_runs, 3);

        // The service trace carries both resident jobs for attribution.
        let jobs = service.trace().jobs();
        assert!(jobs.len() >= 2, "expected ≥2 job realms, got {jobs:?}");
        let interference = service.interference();
        assert_eq!(interference.jobs.len(), jobs.len());
    }

    /// Satellite: the counter snapshot is one consistent cut, so the
    /// conservation invariants hold *exactly* at every observation point
    /// — mid-flight with jobs queued and running, and after drain.
    fn assert_conserved(c: &CounterSnapshot) {
        assert_eq!(
            c.submitted,
            c.completed + c.failed + c.in_flight + c.queued,
            "admitted jobs must be in exactly one state: {c:?}"
        );
        assert_eq!(
            c.rejected,
            c.rejected_queue_full
                + c.rejected_tenant_queue_full
                + c.rejected_unknown_tenant
                + c.rejected_slots_unsatisfiable,
            "by-reason rejections must sum to the total: {c:?}"
        );
    }

    #[test]
    fn counter_conservation_invariants_hold() {
        let mut cfg = svc_cfg();
        cfg.cache_capacity = 1; // force evictions across distinct seeds
        for t in &mut cfg.tenants {
            t.max_queued = 2;
        }
        let service = Service::start(make_cluster(1), cfg);
        assert_conserved(&service.counters());

        // Mix of outcomes: rejections of three kinds...
        let _ = service.submit(spec("nobody", 1, 1));
        let _ = service.submit(spec("a", 1, 9));
        let mut tickets = Vec::new();
        for i in 0..6u64 {
            let mut s = spec("a", 300 + i, 1);
            s.app = Arc::new(SlowWordCount);
            if let Ok(t) = service.submit(s) {
                tickets.push(t);
            }
        }
        // ...observed while jobs are queued and in flight.
        let mid = service.counters();
        assert_conserved(&mid);
        assert!(mid.rejected >= 3, "two typed + quota overflow: {mid:?}");
        assert_eq!(mid.rejected_unknown_tenant, 1);
        assert_eq!(mid.rejected_slots_unsatisfiable, 1);

        for t in tickets {
            t.wait().unwrap();
        }
        // A fresh seed then its immediate repeat: the second submission
        // is a guaranteed hit (capacity 1, nothing inserted between).
        service.submit(spec("b", 999, 1)).unwrap().wait().unwrap();
        let r = service.submit(spec("b", 999, 1)).unwrap().wait().unwrap();
        assert!(r.report.served_from_cache);
        service.submit(spec("b", 400, 1)).unwrap().wait().unwrap();
        let done = service.counters();
        assert_conserved(&done);
        assert_eq!(done.queued + done.in_flight, 0, "drained: {done:?}");
        assert!(done.cache_hits >= 1, "{done:?}");
        assert!(done.cache_misses > 0, "fresh seeds must miss: {done:?}");
        assert!(
            done.cache_evictions > 0,
            "capacity-1 cache under distinct seeds must evict: {done:?}"
        );
    }

    #[test]
    fn shutdown_fails_queued_jobs_and_joins_cleanly() {
        // One-node cluster and several queued jobs; drop the service
        // while they wait.
        let mut service = Service::start(make_cluster(1), svc_cfg());
        let tickets: Vec<_> = (0..4)
            .filter_map(|i| {
                let mut s = spec("a", 200 + i, 1);
                s.app = Arc::new(SlowWordCount);
                service.submit(s).ok()
            })
            .collect();
        service.shutdown();
        let mut shut = 0;
        for t in tickets {
            match t.wait() {
                Err(ServiceError::ShuttingDown) => shut += 1,
                Ok(_) => {}
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        assert!(shut > 0, "at least one queued job must observe shutdown");
        assert!(matches!(
            service.submit(spec("a", 1, 1)),
            Err(ServiceError::ShuttingDown)
        ));
    }
}
