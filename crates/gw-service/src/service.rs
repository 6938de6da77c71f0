//! The resident job service.
//!
//! A [`Service`] owns a shared [`Cluster`] for its whole lifetime and
//! accepts a *stream* of job submissions from named tenants. Three
//! planes compose:
//!
//! 1. **Admission** — [`Service::submit`] never blocks. Under the state
//!    lock it checks shutdown, tenant registration, slot satisfiability,
//!    the global queue bound and the per-tenant quota; any violation is a
//!    typed [`ServiceError::AdmissionRejected`] returned immediately.
//! 2. **Scheduling** — a dedicated scheduler thread drives the
//!    [`FairScheduler`] whenever slots free up or jobs arrive, allocating
//!    each dispatch a *node subset* of the shared cluster (the slot
//!    model: one slot = one node's full lane set). A slot-owner ledger
//!    asserts two concurrent jobs never double-book a node.
//! 3. **Execution** — each dispatched job runs as a task on the cluster's
//!    resident runtime, on the parked thread of its first node's job role
//!    (a warm service spawns no thread per submission), via
//!    [`Cluster::run_scoped`] with a unique service job id, its node
//!    subset, its own fault plan, and the service-lifetime tracer (so
//!    concurrent jobs land on one wall-clock axis for interference
//!    attribution — see [`Service::interference`]).
//!
//! Results flow back through a [`JobTicket`] (a one-shot channel), and
//! finished runs feed the [`ResultCache`]: a repeat submission with the
//! same `(workload seed, app, slots, config)` is served byte-identically
//! with `served_from_cache` set, without touching the engine.

use std::collections::HashMap;
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use crossbeam::channel::{bounded, Receiver, Sender};
use parking_lot::{Condvar, Mutex};

use gw_chaos::FaultPlan;
use gw_core::{read_job_output, Cluster, GwApp, JobConfig, JobReport, Role, RoleKey, RunScope};
use gw_storage::{KvVec, NodeId};
use gw_trace::{Interference, Trace, Tracer};

use crate::cache::{CacheKey, ResultCache};
use crate::error::{RejectReason, ServiceError};
use crate::sched::{FairScheduler, SchedConfig};
use crate::telemetry::{GaugeValues, ServiceTelemetry, TelemetryConfig};

/// How often the scheduler thread re-examines its queues even without a
/// wakeup (guards against missed notifies; the Condvar is the fast path).
const SCHED_TICK: Duration = Duration::from_millis(10);

/// One tenant's registration.
#[derive(Debug, Clone)]
pub struct TenantSpec {
    /// Tenant name (the submission key).
    pub name: String,
    /// Fair-share weight (≥ 1): slot-seconds under saturation are split
    /// proportionally to weights.
    pub weight: u32,
    /// Per-tenant bound on jobs queued (not yet dispatched).
    pub max_queued: usize,
}

impl TenantSpec {
    /// A tenant with `weight` and a queue quota of 8.
    pub fn new(name: &str, weight: u32) -> Self {
        TenantSpec {
            name: name.to_string(),
            weight,
            max_queued: 8,
        }
    }
}

/// Service tuning.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Global bound on jobs queued across all tenants.
    pub max_queued: usize,
    /// Queue age beyond which the fair order is overridden (see
    /// [`SchedConfig::starvation_deadline`]).
    pub starvation_deadline: Duration,
    /// Result-cache capacity in entries (0 disables caching).
    pub cache_capacity: usize,
    /// The tenants allowed to submit.
    pub tenants: Vec<TenantSpec>,
    /// Live telemetry plane tuning ([`TelemetryConfig::enabled`] gates
    /// the whole plane).
    pub telemetry: TelemetryConfig,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            max_queued: 64,
            starvation_deadline: Duration::from_secs(30),
            cache_capacity: 32,
            tenants: Vec::new(),
            telemetry: TelemetryConfig::default(),
        }
    }
}

/// One job submission.
pub struct JobSpec {
    /// Submitting tenant (must be registered in [`ServiceConfig`]).
    pub tenant: String,
    /// The application to run.
    pub app: Arc<dyn GwApp>,
    /// Engine configuration. The output path is rewritten by the service
    /// to a per-job path; everything else is the submitter's.
    pub cfg: JobConfig,
    /// Seed of the workload generator that produced the job's input —
    /// part of the result-cache key. Submitters reusing an input must
    /// reuse its seed; distinct inputs must declare distinct seeds.
    pub workload_seed: u64,
    /// Nodes the job wants (1 ≤ slots ≤ cluster nodes).
    pub slots: u32,
    /// Optional per-job fault schedule (chaos testing of resident jobs).
    pub fault_plan: Option<Arc<FaultPlan>>,
}

/// A finished job as seen by its submitter.
#[derive(Debug, Clone)]
pub struct ServiceReport {
    /// Service job id (1-based; id 0 is reserved for one-shot runs).
    pub job: u32,
    /// The tenant that submitted it.
    pub tenant: String,
    /// Full output records, ordered by global partition then in-file
    /// order — byte-identical to a dedicated `slots`-node cluster
    /// running the same submission.
    pub output: Arc<KvVec>,
    /// The engine report (`served_from_cache` set on cache hits).
    pub report: JobReport,
    /// Time from admission to dispatch.
    pub queue_wait: Duration,
    /// Time from admission to completion.
    pub turnaround: Duration,
}

/// A point-in-time copy of the service's monotone counts plus the
/// queue/cache state, all captured under the state lock — which makes the
/// conservation invariants *exact*, not racy approximations:
///
/// - `submitted == completed + failed + in_flight + queued`
///   (every admitted job is in exactly one of those states; rejected
///   submissions were never admitted, so they appear only in `rejected`);
/// - `rejected == rejected_queue_full + rejected_tenant_queue_full +
///   rejected_unknown_tenant + rejected_slots_unsatisfiable`.
///
/// Both are asserted by `counter_conservation_invariants_hold` in this
/// crate's tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterSnapshot {
    /// Submissions admitted (queued or served from cache).
    pub submitted: u64,
    /// Submissions rejected by admission control.
    pub rejected: u64,
    /// Rejections because the global queue bound was reached.
    pub rejected_queue_full: u64,
    /// Rejections because the tenant's own quota was reached.
    pub rejected_tenant_queue_full: u64,
    /// Rejections of unregistered tenants.
    pub rejected_unknown_tenant: u64,
    /// Rejections of never-schedulable slot requests.
    pub rejected_slots_unsatisfiable: u64,
    /// Submissions served from the result cache.
    pub cache_hits: u64,
    /// Result-cache lookups that missed.
    pub cache_misses: u64,
    /// Result-cache entries dropped by FIFO eviction.
    pub cache_evictions: u64,
    /// Engine runs actually launched.
    pub engine_runs: u64,
    /// Jobs completed successfully (including cache hits).
    pub completed: u64,
    /// Jobs that failed in the engine.
    pub failed: u64,
    /// Jobs dispatched to a worker and not yet completed or failed.
    pub in_flight: u64,
    /// Jobs admitted and still queued (not yet dispatched).
    pub queued: u64,
}

/// Handle to one admitted submission. [`JobTicket::wait`] blocks until
/// the job finishes (or the service shuts down under it).
pub struct JobTicket {
    /// The assigned service job id.
    pub job: u32,
    rx: Receiver<Result<ServiceReport, ServiceError>>,
}

impl std::fmt::Debug for JobTicket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobTicket").field("job", &self.job).finish()
    }
}

impl JobTicket {
    /// Block until the job's result is available.
    pub fn wait(self) -> Result<ServiceReport, ServiceError> {
        self.rx.recv().unwrap_or(Err(ServiceError::ShuttingDown))
    }
}

/// A job admitted but not yet dispatched.
struct Pending {
    app: Arc<dyn GwApp>,
    cfg: JobConfig,
    fault_plan: Option<Arc<FaultPlan>>,
    tenant: String,
    slots: u32,
    key: CacheKey,
    submitted_at: Instant,
    tx: Sender<Result<ServiceReport, ServiceError>>,
}

struct State {
    sched: FairScheduler,
    pending: HashMap<u32, Pending>,
    /// Which job currently owns each node of the shared cluster. The
    /// scheduler allocates only from `None` entries and asserts on
    /// release, so two jobs can never double-book a node's lanes.
    slot_owner: Vec<Option<u32>>,
    cache: ResultCache,
    next_job: u32,
    shutdown: bool,
    /// Running (or ended, not yet joined) job tasks, by job id.
    workers: Vec<(u32, gw_core::JoinHandle<()>)>,
    /// Jobs whose task has published its result and is about to return.
    ended: Vec<u32>,
    /// The monotone counts of [`CounterSnapshot`], its fields' namesakes;
    /// the cache counts its own hits.
    submitted: u64,
    rejected: u64,
    rejected_queue_full: u64,
    rejected_tenant_queue_full: u64,
    rejected_unknown_tenant: u64,
    rejected_slots_unsatisfiable: u64,
    engine_runs: u64,
    completed: u64,
    failed: u64,
}

struct Inner {
    state: Mutex<State>,
    cv: Condvar,
    epoch: Instant,
    max_queued: usize,
    tenant_quota: HashMap<String, usize>,
    telemetry: Option<Arc<ServiceTelemetry>>,
}

impl Inner {
    /// Gauge inputs for a telemetry pump, read under the state lock.
    fn gauge_values(&self, state: &State, total_slots: usize) -> GaugeValues {
        let mut owners: Vec<u32> = state.slot_owner.iter().filter_map(|o| *o).collect();
        owners.sort_unstable();
        owners.dedup();
        let (cache_hits, cache_misses) = state.cache.stats();
        GaugeValues {
            queued: state.sched.total_queued(),
            tenants: state.sched.tenant_stats(),
            slots_busy: state.slot_owner.iter().filter(|o| o.is_some()).count(),
            slots_total: total_slots,
            in_flight: owners.len(),
            cache_hits,
            cache_misses,
            cache_evictions: state.cache.evictions(),
            cache_entries: state.cache.len(),
        }
    }
}

/// The resident multi-tenant job service. See the module docs.
pub struct Service {
    cluster: Arc<Cluster>,
    tracer: Tracer,
    inner: Arc<Inner>,
    scheduler: Option<JoinHandle<()>>,
}

impl Service {
    /// Start a service over `cluster` with `cfg`'s tenants and bounds.
    /// The scheduler thread starts immediately.
    pub fn start(cluster: Arc<Cluster>, cfg: ServiceConfig) -> Self {
        let mut sched = FairScheduler::new(SchedConfig {
            starvation_deadline: cfg.starvation_deadline,
        });
        let mut tenant_quota = HashMap::new();
        for t in &cfg.tenants {
            sched.add_tenant(&t.name, t.weight);
            tenant_quota.insert(t.name.clone(), t.max_queued);
        }
        let telemetry = cfg
            .telemetry
            .enabled
            .then(|| ServiceTelemetry::new(cfg.telemetry.clone()));
        let inner = Arc::new(Inner {
            state: Mutex::new(State {
                sched,
                pending: HashMap::new(),
                slot_owner: vec![None; cluster.nodes() as usize],
                cache: ResultCache::new(cfg.cache_capacity),
                next_job: 1, // job 0 is the one-shot convention
                shutdown: false,
                workers: Vec::new(),
                ended: Vec::new(),
                submitted: 0,
                rejected: 0,
                rejected_queue_full: 0,
                rejected_tenant_queue_full: 0,
                rejected_unknown_tenant: 0,
                rejected_slots_unsatisfiable: 0,
                engine_runs: 0,
                completed: 0,
                failed: 0,
            }),
            cv: Condvar::new(),
            epoch: Instant::now(),
            max_queued: cfg.max_queued,
            tenant_quota,
            telemetry,
        });
        // With telemetry on, the service-lifetime tracer carries the
        // bridge as a live sink: every engine event (chunk span ends,
        // fabric/storage/chaos counters) feeds the registry as recorded.
        let tracer = match &inner.telemetry {
            Some(t) => Tracer::with_sink(Arc::clone(t.bridge()) as _),
            None => Tracer::new(),
        };
        let scheduler = {
            let inner = Arc::clone(&inner);
            let cluster = Arc::clone(&cluster);
            let tracer = tracer.clone();
            thread::Builder::new()
                .name("gw-svc-sched".into())
                .spawn(move || scheduler_loop(inner, cluster, tracer))
                .expect("spawn scheduler thread")
        };
        Service {
            cluster,
            tracer,
            inner,
            scheduler: Some(scheduler),
        }
    }

    /// Submit a job. Returns a ticket immediately: admission never
    /// blocks, and rejections are typed. Cache hits resolve the ticket
    /// before it is even returned.
    pub fn submit(&self, spec: JobSpec) -> Result<JobTicket, ServiceError> {
        let inner = &self.inner;
        let mut state = inner.state.lock();
        if state.shutdown {
            return Err(ServiceError::ShuttingDown);
        }
        let reject = |state: &mut State, r: RejectReason| {
            state.rejected += 1;
            *match &r {
                RejectReason::QueueFull { .. } => &mut state.rejected_queue_full,
                RejectReason::TenantQueueFull { .. } => &mut state.rejected_tenant_queue_full,
                RejectReason::UnknownTenant(_) => &mut state.rejected_unknown_tenant,
                RejectReason::SlotsUnsatisfiable { .. } => &mut state.rejected_slots_unsatisfiable,
            } += 1;
            if let Some(t) = &inner.telemetry {
                t.on_rejected(r.name());
            }
            Err(ServiceError::AdmissionRejected(r))
        };
        if !state.sched.has_tenant(&spec.tenant) {
            return reject(&mut state, RejectReason::UnknownTenant(spec.tenant));
        }
        let total = self.cluster.nodes();
        if spec.slots == 0 || spec.slots > total {
            return reject(
                &mut state,
                RejectReason::SlotsUnsatisfiable {
                    requested: spec.slots,
                    total,
                },
            );
        }
        if state.sched.total_queued() >= inner.max_queued {
            return reject(
                &mut state,
                RejectReason::QueueFull {
                    limit: inner.max_queued,
                },
            );
        }
        let quota = inner.tenant_quota[&spec.tenant];
        if state.sched.queued(&spec.tenant) >= quota {
            return reject(
                &mut state,
                RejectReason::TenantQueueFull {
                    tenant: spec.tenant,
                    limit: quota,
                },
            );
        }

        let job = state.next_job;
        state.next_job += 1;
        state.submitted += 1;
        if let Some(t) = &inner.telemetry {
            t.on_submitted(&spec.tenant);
        }
        let key = CacheKey::new(spec.workload_seed, spec.app.name(), spec.slots, &spec.cfg);
        let (tx, rx) = bounded(1);

        if let Some((output, report)) = state.cache.get(&key) {
            // Served from cache: resolve the ticket without queueing.
            state.completed += 1;
            if let Some(t) = &inner.telemetry {
                t.on_completed(job, &spec.tenant, Duration::ZERO);
            }
            let _ = tx.send(Ok(ServiceReport {
                job,
                tenant: spec.tenant,
                output,
                report,
                queue_wait: Duration::ZERO,
                turnaround: Duration::ZERO,
            }));
            return Ok(JobTicket { job, rx });
        }

        let now = inner.epoch.elapsed();
        state.sched.enqueue(&spec.tenant, job, spec.slots, now);
        state.pending.insert(
            job,
            Pending {
                app: spec.app,
                cfg: spec.cfg,
                fault_plan: spec.fault_plan,
                tenant: spec.tenant,
                slots: spec.slots,
                key,
                submitted_at: Instant::now(),
                tx,
            },
        );
        drop(state);
        inner.cv.notify_all();
        Ok(JobTicket { job, rx })
    }

    /// Point-in-time counters. Captured under the state lock, so the
    /// documented conservation invariants hold exactly on the returned
    /// snapshot (see [`CounterSnapshot`]).
    pub fn counters(&self) -> CounterSnapshot {
        let state = self.inner.state.lock();
        let mut owners: Vec<u32> = state.slot_owner.iter().filter_map(|o| *o).collect();
        owners.sort_unstable();
        owners.dedup();
        let (cache_hits, cache_misses) = state.cache.stats();
        CounterSnapshot {
            submitted: state.submitted,
            rejected: state.rejected,
            rejected_queue_full: state.rejected_queue_full,
            rejected_tenant_queue_full: state.rejected_tenant_queue_full,
            rejected_unknown_tenant: state.rejected_unknown_tenant,
            rejected_slots_unsatisfiable: state.rejected_slots_unsatisfiable,
            cache_hits,
            cache_misses,
            cache_evictions: state.cache.evictions(),
            engine_runs: state.engine_runs,
            completed: state.completed,
            failed: state.failed,
            in_flight: owners.len() as u64,
            queued: state.sched.total_queued() as u64,
        }
    }

    /// The live telemetry plane, if enabled in [`ServiceConfig`].
    pub fn telemetry(&self) -> Option<&Arc<ServiceTelemetry>> {
        self.inner.telemetry.as_ref()
    }

    /// Force a telemetry snapshot right now, bypassing the pump cadence
    /// (no-op returning `false` when telemetry is disabled). Lets tests
    /// drive the ring deterministically instead of sleeping.
    pub fn pump_telemetry_now(&self) -> bool {
        let Some(t) = &self.inner.telemetry else {
            return false;
        };
        let state = self.inner.state.lock();
        let g = self
            .inner
            .gauge_values(&state, self.cluster.nodes() as usize);
        t.pump(&g);
        true
    }

    /// The service-lifetime trace so far (all jobs, one wall-clock axis).
    pub fn trace(&self) -> Trace {
        self.tracer.finish()
    }

    /// Cross-tenant interference attribution over the service trace:
    /// per-job activity plus pairwise wall-clock overlap and shared-node
    /// sets.
    pub fn interference(&self) -> Interference {
        Interference::from_trace(&self.trace())
    }

    /// The shared cluster.
    pub fn cluster(&self) -> &Arc<Cluster> {
        &self.cluster
    }

    /// Stop accepting work, fail queued jobs with
    /// [`ServiceError::ShuttingDown`], and join all threads. Called by
    /// `Drop`; idempotent.
    pub fn shutdown(&mut self) {
        let workers = {
            let mut state = self.inner.state.lock();
            state.shutdown = true;
            for job in state.sched.drain() {
                if let Some(p) = state.pending.remove(&job) {
                    let _ = p.tx.send(Err(ServiceError::ShuttingDown));
                }
            }
            std::mem::take(&mut state.workers)
        };
        self.inner.cv.notify_all();
        if let Some(h) = self.scheduler.take() {
            let _ = h.join();
        }
        for (_, h) in workers {
            let _ = h.join();
        }
        // Workers that finished after the drain appended to the list again.
        let leftover = std::mem::take(&mut self.inner.state.lock().workers);
        for (_, h) in leftover {
            let _ = h.join();
        }
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The scheduler loop: dispatch while anything fits, then sleep until a
/// submit/completion wakeup (or the fallback tick).
fn scheduler_loop(inner: Arc<Inner>, cluster: Arc<Cluster>, tracer: Tracer) {
    loop {
        let mut state = inner.state.lock();
        if state.shutdown {
            return;
        }
        let now = inner.epoch.elapsed();
        let free = state.slot_owner.iter().filter(|o| o.is_none()).count() as u32;
        if let Some(d) = state.sched.next(now, free) {
            let pending = state
                .pending
                .remove(&d.job)
                .expect("dispatched job has a pending record");

            // Dispatch-time cache re-check: an identical job may have
            // completed while this one sat queued.
            if let Some((output, report)) = state.cache.get(&pending.key) {
                state.sched.complete(d.job, 0.0);
                state.completed += 1;
                let queue_wait = pending.submitted_at.elapsed();
                if let Some(t) = &inner.telemetry {
                    t.on_completed(d.job, &pending.tenant, queue_wait);
                }
                let _ = pending.tx.send(Ok(ServiceReport {
                    job: d.job,
                    tenant: pending.tenant,
                    output,
                    report,
                    queue_wait,
                    turnaround: queue_wait,
                }));
                continue;
            }

            // Allocate the node subset: first-fit ascending over free
            // slots. The ledger is the double-booking guard.
            let mut node_set = Vec::with_capacity(d.slots as usize);
            for (n, owner) in state.slot_owner.iter_mut().enumerate() {
                if owner.is_none() && node_set.len() < d.slots as usize {
                    *owner = Some(d.job);
                    node_set.push(NodeId(n as u32));
                }
            }
            assert_eq!(
                node_set.len(),
                d.slots as usize,
                "scheduler dispatched job {} without enough free slots",
                d.job
            );

            state.engine_runs += 1;
            if let Some(t) = &inner.telemetry {
                t.on_engine_run();
                // Register the virtual→physical node mapping before the
                // worker records its first event, so per-node series and
                // health findings name physical nodes.
                t.on_dispatch(d.job, &node_set, d.queued_for);
            }
            // Join the tasks of jobs that already ended (each has only its
            // return left), so a job dispatched onto their nodes finds
            // their threads idle instead of spawning another.
            for job in std::mem::take(&mut state.ended) {
                if let Some(i) = state.workers.iter().position(|(j, _)| *j == job) {
                    let _ = state.workers.swap_remove(i).1.join();
                }
            }
            let role = RoleKey::new(node_set[0].0, Role::Job, 0);
            let handle = {
                let inner = Arc::clone(&inner);
                let runs_on = Arc::clone(&cluster);
                let tracer = tracer.clone();
                let job = d.job;
                cluster.runtime().spawn(role, move || {
                    run_job(inner, runs_on, tracer, job, node_set, pending)
                })
            };
            state.workers.push((d.job, handle));
            continue;
        }
        // Nothing dispatchable: pump telemetry if the cadence is due,
        // then wait for a wakeup or the fallback tick. Pumping here (the
        // scheduler's idle edge) means snapshots track the service while
        // jobs run — the Condvar wakes this thread on every submit and
        // completion, and the tick bounds the gap in between.
        if let Some(t) = &inner.telemetry {
            if t.pump_due() {
                let g = inner.gauge_values(&state, cluster.nodes() as usize);
                t.pump(&g);
            }
        }
        inner.cv.wait_for(&mut state, SCHED_TICK);
    }
}

/// One worker: run the job on its node subset, publish the result, free
/// the slots, feed the cache.
fn run_job(
    inner: Arc<Inner>,
    cluster: Arc<Cluster>,
    tracer: Tracer,
    job: u32,
    node_set: Vec<NodeId>,
    pending: Pending,
) {
    let slots = pending.slots;
    let queue_wait = pending.submitted_at.elapsed();
    let started = Instant::now();

    let mut cfg = pending.cfg;
    cfg.output = format!("/svc/out/job-{job}");
    let mut scope = RunScope::for_job(job, node_set.clone());
    scope.fault_plan = pending.fault_plan;
    scope.tracer = Some(tracer);

    let result = cluster
        .run_scoped(pending.app, &cfg, scope)
        .and_then(|report| {
            let output = read_job_output(cluster.store(), &report)?;
            // The DFS namespace is shared and job output paths are reused
            // only after this delete, so drop the files eagerly.
            for path in report.output_files() {
                cluster.store().delete(&path);
            }
            Ok((output, report))
        });
    let elapsed = started.elapsed();

    let mut state = inner.state.lock();
    for n in &node_set {
        let owner = state.slot_owner[n.0 as usize].take();
        assert_eq!(
            owner,
            Some(job),
            "slot {} released by job {job} but owned by {owner:?}",
            n.0
        );
    }
    state
        .sched
        .complete(job, elapsed.as_secs_f64() * slots as f64);
    state.ended.push(job);
    match result {
        Ok((output, report)) => {
            let output = Arc::new(output);
            state
                .cache
                .insert(pending.key, Arc::clone(&output), Arc::new(report.clone()));
            state.completed += 1;
            if let Some(t) = &inner.telemetry {
                t.on_completed(job, &pending.tenant, queue_wait + elapsed);
            }
            let _ = pending.tx.send(Ok(ServiceReport {
                job,
                tenant: pending.tenant,
                output,
                report,
                queue_wait,
                turnaround: queue_wait + elapsed,
            }));
        }
        Err(e) => {
            state.failed += 1;
            if let Some(t) = &inner.telemetry {
                t.on_failed(job);
            }
            let _ = pending.tx.send(Err(ServiceError::Engine(e)));
        }
    }
    drop(state);
    inner.cv.notify_all();
}
