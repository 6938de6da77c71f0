//! The in-process cluster runtime.
//!
//! "Execution starts with launching the map phase and, concurrently, the
//! merge phase at each node. After the map phase completes, the merge
//! phase continues until it has received all data sent to it by map
//! pipeline instantiations at other nodes. After the merge phase
//! completes, the reduce phase is started."
//!
//! [`Cluster::run`] executes a job over `n` nodes, each a group of tasks
//! on the cluster's resident [`Runtime`]: the 5-stage map pipeline, the
//! shuffle receiver + intermediate mergers, then the 5-stage reduce
//! pipeline. The runtime's threads outlive the job and keep their role
//! `(physical node, role, lane)` from job to job, so a warm job spawns no
//! thread. A shared [`Coordinator`] hands out splits with locality
//! preference; a [`gw_net::Fabric`] carries the push-based shuffle.
//!
//! ## Fault tolerance
//!
//! Every job runs the recovery protocol; a [`FaultPlan`]
//! ([`Cluster::with_fault_plan`]) decides only what fails. Each node's
//! shuffle receiver heartbeats the coordinator on every tick, a staleness
//! scan declares silent nodes dead, the dead node's splits are
//! re-executed by the survivors (reading surviving DFS replicas), and its
//! partitions are adopted. A shuffle run that never reached its owner —
//! dropped, or sent to a node that then died — is re-made by re-running
//! the split that produced it; see DESIGN.md §3.5.
//! The master tolerates [`EngineError::NodeLost`] results as long as the
//! survivors cover every output partition; a node that fails any other
//! way aborts the job at once. [`JobConfig::job_deadline`] additionally
//! arms a master-side watchdog that aborts the job with
//! [`EngineError::JobTimeout`] when it expires, so no fault — injected or
//! real — can hang the caller.

use std::collections::HashSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::RecvTimeoutError;

use gw_chaos::FaultPlan;
use gw_device::{Device, Join, Task};
use gw_intermediate::{IntermediateConfig, IntermediateStore, Run};
use gw_net::{Fabric, NetProfile, ShuffleRun};
use gw_pipeline::{JoinHandle, Role, RoleKey, Runtime};
use gw_storage::split::{FileStore, FileStoreExt};
use gw_storage::NodeId;
use gw_trace::{
    CounterId, LaneId, MetricsSummary, PerfAnalysis, PipelineKind, Realm, StageId, StageSample,
    TimerReport, Trace, Tracer,
};

use crate::api::GwApp;
use crate::config::JobConfig;
use crate::coordinator::{Coordinator, NodeChaos, SpeculationReport};
use crate::map_pipeline::{MapPhase, MapPhaseReport};
use crate::reduce_pipeline::{output_path, ReducePhase, ReducePhaseReport};
use crate::EngineError;

/// Receiver poll tick: the longest a node's shuffle receiver blocks in
/// `recv` before it heartbeats, scans liveness and re-checks whether its
/// shuffle is complete. `JobConfig::node_timeout` must exceed it.
pub(crate) const RX_TICK: Duration = Duration::from_millis(2);

/// Per-node job outcome.
#[derive(Debug, Clone)]
pub struct NodeReport {
    /// The node.
    pub node: NodeId,
    /// Map-phase summary.
    pub map: MapPhaseReport,
    /// Map pipeline stage timers.
    pub map_timers: TimerReport,
    /// Per-chunk map stage samples (for schedule replay).
    pub map_samples: Vec<[StageSample; 5]>,
    /// Merge delay: time after map completion until the flush/compaction
    /// tasks still in flight drained (~0 for a job that stayed in core).
    pub merge_delay: Duration,
    /// Runs received from peers during the shuffle.
    pub shuffle_runs_received: usize,
    /// Reduce-phase summary.
    pub reduce: ReducePhaseReport,
    /// Reduce pipeline stage timers.
    pub reduce_timers: TimerReport,
    /// Intermediate-store metrics.
    pub intermediate: gw_intermediate::StoreMetrics,
}

/// Whole-job outcome.
#[derive(Debug, Clone)]
pub struct JobReport {
    /// Whether a service satisfied this submission from its result cache
    /// instead of executing it. Always `false` on reports produced by an
    /// engine run; a `gw-service` result cache sets it on cache hits.
    pub served_from_cache: bool,
    /// Wall-clock job duration (max across nodes, measured at the master).
    pub elapsed: Duration,
    /// Per-node reports of the surviving nodes, sorted by node id.
    pub nodes: Vec<NodeReport>,
    /// Nodes declared dead during the job (0 unless a fault plan was
    /// armed and a whole-node fault fired).
    pub nodes_lost: usize,
    /// Splits requeued and re-executed: because their node died, or
    /// because a shuffle run they produced was lost (dropped, or sent to
    /// a node that then died).
    pub splits_rescheduled: usize,
    /// DFS block reads that failed over to another replica because of a
    /// dead node or an injected read fault.
    pub blocks_read_remote_due_to_fault: usize,
    /// Speculative re-execution accounting (all zero unless
    /// `cfg.speculation.enabled`); `launched == won + cancelled + failed`
    /// at job end.
    pub speculation: SpeculationReport,
    /// Per-node/per-stage counter rollup derived from the trace.
    pub metrics: MetricsSummary,
    /// Post-hoc performance analysis derived from the trace: overlap
    /// accounting, critical path, stragglers and the bottleneck advisor
    /// (render with [`PerfAnalysis::to_report`]).
    pub analysis: PerfAnalysis,
    /// The job's full event trace (export with [`Trace::chrome_json`]).
    pub trace: Trace,
}

impl JobReport {
    /// Close the advisor loop: lane counts for a follow-up run, chosen
    /// from this run's advisor output (auto-lanes mode — start the next
    /// job with `cfg.with_auto_lanes(&report.analysis.advice)` or assign
    /// this plan to `cfg.lane_plan` directly).
    pub fn plan_lanes(&self) -> crate::config::LanePlan {
        crate::config::LanePlan::from_advice(&self.analysis.advice)
    }

    /// All output files across nodes, sorted by global partition.
    pub fn output_files(&self) -> Vec<String> {
        let mut files: Vec<String> = self
            .nodes
            .iter()
            .flat_map(|n| n.reduce.output_files.iter().cloned())
            .collect();
        files.sort();
        files
    }

    /// Aggregate map timers over all nodes.
    pub fn map_timers_total(&self) -> TimerReport {
        let mut total = TimerReport::default();
        for n in &self.nodes {
            total.merge(&n.map_timers);
        }
        total
    }

    /// Aggregate reduce timers over all nodes.
    pub fn reduce_timers_total(&self) -> TimerReport {
        let mut total = TimerReport::default();
        for n in &self.nodes {
            total.merge(&n.reduce_timers);
        }
        total
    }

    /// Maximum merge delay across nodes (the job's effective merge delay).
    pub fn merge_delay(&self) -> Duration {
        self.nodes
            .iter()
            .map(|n| n.merge_delay)
            .max()
            .unwrap_or(Duration::ZERO)
    }

    /// Total input records mapped across nodes.
    pub fn records_mapped(&self) -> usize {
        self.nodes.iter().map(|n| n.map.records_in).sum()
    }

    /// Total output records written across nodes.
    pub fn records_out(&self) -> usize {
        self.nodes.iter().map(|n| n.reduce.records_out).sum()
    }
}

/// An in-process Glasswing cluster.
pub struct Cluster {
    store: Arc<dyn FileStore>,
    net: NetProfile,
    fault_plan: Option<Arc<FaultPlan>>,
    runtime: Arc<Runtime>,
}

impl Cluster {
    /// Create a cluster over `store` (its `cluster_size` defines the node
    /// count) with network profile `net`.
    pub fn new(store: Arc<dyn FileStore>, net: NetProfile) -> Self {
        Cluster {
            store,
            net,
            fault_plan: None,
            runtime: Arc::default(),
        }
    }

    /// Arm a fault-injection plan for the next job. Plans are single-use:
    /// each [`Cluster::run`] consumes the armed schedule, so runs after
    /// the first execute fault-free. A node killed by the plan stays dead
    /// in the underlying store across later runs on this cluster, as a
    /// real crashed machine would.
    pub fn with_fault_plan(mut self, plan: impl Into<Arc<FaultPlan>>) -> Self {
        self.fault_plan = Some(plan.into());
        self
    }

    /// Number of nodes.
    pub fn nodes(&self) -> u32 {
        self.store.cluster_size()
    }

    /// The cluster's file store.
    pub fn store(&self) -> &Arc<dyn FileStore> {
        &self.store
    }

    /// The resident runtime every job's tasks run on; it lives as long as
    /// the cluster (and any task a timed-out job left behind).
    pub fn runtime(&self) -> &Arc<Runtime> {
        &self.runtime
    }

    /// Execute `app` under `cfg`, blocking until the job completes, fails
    /// with a typed error, or exceeds `cfg.job_deadline`.
    pub fn run(&self, app: Arc<dyn GwApp>, cfg: &JobConfig) -> Result<JobReport, EngineError> {
        let mut scope = RunScope::one_shot(self.nodes());
        scope.fault_plan = self.fault_plan.clone();
        self.run_scoped(app, cfg, scope)
    }

    /// Execute `app` under `cfg` within `scope`: on a subset of the
    /// store's nodes, stamped with a service job id, possibly sharing the
    /// store (and a service-lifetime tracer) with concurrent jobs. This
    /// is the coordinator/cluster lifetime split: the `Cluster` (store,
    /// network profile and runtime threads) is resident, while each call
    /// builds its own [`Coordinator`] and fabric and runs its node tasks on
    /// the runtime, so any number of jobs can be in flight against one
    /// cluster at once.
    ///
    /// The job runs in *virtual* node space `0..scope.node_set.len()`:
    /// partition ownership, the shuffle fabric and liveness all see a
    /// cluster of that size, while storage reads/writes are remapped onto
    /// the physical nodes of `scope.node_set`. Two concurrent scopes with
    /// disjoint node sets therefore never share a node's pipeline lanes.
    pub fn run_scoped(
        &self,
        app: Arc<dyn GwApp>,
        cfg: &JobConfig,
        scope: RunScope,
    ) -> Result<JobReport, EngineError> {
        cfg.validate().map_err(EngineError::Config)?;
        let nodes = scope.node_set.len() as u32;
        if nodes == 0 {
            return Err(EngineError::Config("empty node set".into()));
        }
        {
            let mut seen = HashSet::new();
            for &NodeId(p) in &scope.node_set {
                if p >= self.store.cluster_size() {
                    return Err(EngineError::Config(format!(
                        "node {p} outside the store's {} nodes",
                        self.store.cluster_size()
                    )));
                }
                if !seen.insert(p) {
                    return Err(EngineError::Config(format!("node {p} listed twice")));
                }
            }
        }
        let identity = nodes == self.store.cluster_size()
            && scope
                .node_set
                .iter()
                .enumerate()
                .all(|(i, n)| n.0 == i as u32);
        let store: Arc<dyn FileStore> = if identity {
            Arc::clone(&self.store)
        } else {
            Arc::new(ScopedStore {
                inner: Arc::clone(&self.store),
                node_set: scope.node_set.clone(),
            })
        };
        // No plan is an empty plan: it injects nothing.
        let fault_plan = scope
            .fault_plan
            .unwrap_or_else(|| Arc::new(FaultPlan::empty()));
        let total_partitions = cfg.partitions_per_node * nodes;
        let splits = store.splits(&cfg.input)?;

        // Arm the chaos hooks on the storage and network planes for the
        // duration of the job (the guard disarms storage on every exit).
        // The fabric and the fault plan are per-run, so they are armed in
        // every scope; the *store* is shared cluster state, so its global
        // hook and tracer are only armed when this run owns the store
        // exclusively (one-shot mode). Service jobs therefore trace no
        // storage lanes — their determinism is pinned on output bytes.
        let net_hook = Arc::clone(&fault_plan) as Arc<dyn gw_net::NetFaultHook>;
        let mut fabric: Fabric<ShuffleRun> =
            Fabric::with_fault_hook(nodes, self.net, Some(net_hook));
        if scope.exclusive_store {
            store.arm_fault_hook(Some(
                Arc::clone(&fault_plan) as Arc<dyn gw_storage::StorageFaultHook>
            ));
        }
        // Arm the observability plane for the duration of the job; the
        // guard disarms on every exit path. All lanes the run emits are
        // stamped with the scope's job id.
        let base_tracer = scope.tracer.clone().unwrap_or_default();
        let tracer = Arc::new(base_tracer.for_job(scope.job));
        fabric.arm_tracer(Some(Arc::clone(&tracer)));
        if scope.exclusive_store {
            store.arm_tracer(Some(Arc::clone(&tracer)));
        }
        fault_plan.arm_tracer(Some(Arc::clone(&tracer)));
        let coordinator = Arc::new(Coordinator::new(
            splits,
            nodes,
            total_partitions,
            cfg.node_timeout,
            Some(Arc::clone(&store)),
            cfg.speculation.clone(),
            Some(Arc::clone(&tracer)),
        ));
        let _disarm = DisarmOnDrop {
            store: scope.exclusive_store.then_some(&store),
            plan: &fault_plan,
        };
        let failovers_before = store.fault_failovers();

        // Threads born for this job, per node, from the runtime's tally on
        // the node's physical id: a job owns its nodes while it runs.
        let hosts: Vec<u32> = scope.node_set.iter().map(|n| n.0).collect();
        let spawned_before: Vec<u64> = hosts.iter().map(|&h| self.runtime.spawned_on(h)).collect();

        let start = Instant::now();
        let (res_tx, res_rx) =
            crossbeam::channel::unbounded::<(u32, Result<NodeReport, EngineError>)>();
        let mut handles = Vec::with_capacity(nodes as usize);
        for n in 0..nodes {
            let node = NodeId(n);
            let host = hosts[n as usize];
            let runtime = Arc::clone(&self.runtime);
            let endpoint = Arc::new(fabric.endpoint(node));
            let app = Arc::clone(&app);
            let store = Arc::clone(&store);
            let coordinator = Arc::clone(&coordinator);
            let cfg = cfg.clone();
            let chaos = NodeChaos {
                plan: Arc::clone(&fault_plan),
                dead: Arc::default(),
            };
            let tracer = Arc::clone(&tracer);
            let res_tx = res_tx.clone();
            let handle = self
                .runtime
                .spawn(RoleKey::new(host, Role::Node, 0), move || {
                    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        run_node(
                            node,
                            nodes,
                            (&runtime, host),
                            app,
                            store,
                            Arc::clone(&coordinator),
                            endpoint,
                            &cfg,
                            chaos,
                            tracer,
                        )
                    }))
                    .unwrap_or_else(|_| {
                        Err(EngineError::TaskFailed("node runtime panicked".into()))
                    });
                    // A node that fails other than by being lost fails the
                    // job: abort it now, rather than let the peers wait out
                    // `node_timeout` to re-execute this node's splits.
                    if matches!(&result, Err(e) if !matches!(e, EngineError::NodeLost(_))) {
                        coordinator.abort();
                    }
                    let _ = res_tx.send((n, result));
                });
            handles.push(handle);
        }
        drop(res_tx);

        // Collect node results; the watchdog bounds the whole job.
        let wall_deadline = cfg.job_deadline.map(|d| (start + d, d));
        let mut results: Vec<(u32, Result<NodeReport, EngineError>)> =
            Vec::with_capacity(nodes as usize);
        let mut timed_out = false;
        while results.len() < nodes as usize {
            match wall_deadline {
                Some((at, _)) => {
                    let left = at.saturating_duration_since(Instant::now());
                    if left.is_zero() {
                        timed_out = true;
                        break;
                    }
                    match res_rx.recv_timeout(left) {
                        Ok(r) => results.push(r),
                        Err(RecvTimeoutError::Timeout) => {
                            timed_out = true;
                            break;
                        }
                        Err(RecvTimeoutError::Disconnected) => break,
                    }
                }
                None => match res_rx.recv() {
                    Ok(r) => results.push(r),
                    Err(_) => break,
                },
            }
        }
        if timed_out {
            // Tell every wait loop to unwind, then *detach* the node
            // tasks: the caller gets its deadline honored even if some
            // task is stuck past any abort check. A detached task keeps
            // its runtime thread; the next job gets another one.
            coordinator.abort();
            drop(handles);
            return Err(EngineError::JobTimeout(wall_deadline.unwrap().1));
        }
        for h in handles {
            let _ = h.join();
        }
        let elapsed = start.elapsed();
        for (n, (&host, before)) in hosts.iter().zip(spawned_before).enumerate() {
            let spawned = self.runtime.spawned_on(host) - before;
            if spawned > 0 {
                let lane = tracer.lane(LaneId {
                    job: 0,
                    node: n as u32,
                    realm: Realm::Job,
                });
                lane.count(CounterId::ThreadsSpawned, spawned);
            }
        }
        results.sort_by_key(|(n, _)| *n);

        let mut reports = Vec::with_capacity(results.len());
        let mut lost_nodes_seen = 0usize;
        let mut first_err: Option<EngineError> = None;
        for (_, result) in results {
            match result {
                Ok(r) => reports.push(r),
                // Lost nodes are tolerated as long as the survivors cover
                // the whole output (checked below).
                Err(EngineError::NodeLost(_)) => lost_nodes_seen += 1,
                Err(e) => first_err = first_err.or(Some(e)),
            }
        }
        if let Some(e) = first_err {
            return Err(e);
        }
        // Ownership settles with the shuffle, before any reduce starts, so
        // a node whose reduce succeeded wrote the file of every partition
        // the coordinator assigns it (`ReduceMergeRead::claim` walks the
        // same predicate); a lost node's stay unwritten.
        for r in &mut reports {
            r.reduce.output_files = (0..total_partitions)
                .filter(|&gp| coordinator.owner_of(gp) == r.node.0)
                .map(|gp| output_path(cfg, gp))
                .collect();
            r.reduce.partitions = r.reduce.output_files.len();
        }
        let covered: usize = reports.iter().map(|r| r.reduce.output_files.len()).sum();
        if covered != total_partitions as usize {
            return Err(EngineError::NodeLost(format!(
                "unrecovered partitions: only {covered} of {total_partitions} written \
                 after losing {lost_nodes_seen} node(s)"
            )));
        }
        reports.sort_by_key(|r| r.node.0);
        let trace = tracer.finish_job(scope.job);
        let analysis = PerfAnalysis::from_trace(&trace);
        let metrics = trace.metrics();
        // Stage counts and timers are views of the same trace (node
        // threads leave them empty), so they agree with `metrics` and
        // `analysis` by construction.
        for r in &mut reports {
            let node = r.node.0;
            let count = |counter| metrics.counter(node, counter) as usize;
            r.map.splits = metrics.chunks(node, PipelineKind::Map, StageId::Input) as usize;
            r.map.records_in = count(CounterId::MapRecordsIn);
            r.map.local_splits = count(CounterId::MapLocalSplits);
            r.map.tasks_retried = count(CounterId::MapTasksRetried);
            r.map.records_out = count(CounterId::MapRecordsOut);
            r.map.runs_local = count(CounterId::MapRunsLocal);
            r.map.runs_remote = count(CounterId::MapRunsRemote);
            r.reduce.keys = count(CounterId::ReduceKeys);
            r.reduce.launches = count(CounterId::ReduceLaunches);
            r.reduce.parallel_key_splits = count(CounterId::ReduceParallelKeySplits);
            r.reduce.tasks_retried = count(CounterId::ReduceTasksRetried);
            r.reduce.records_out = count(CounterId::ReduceRecordsOut);
            if let Some(map) = analysis.pipeline(node, PipelineKind::Map) {
                r.map_timers = map.timers();
                r.map_samples = map.chunk_samples.clone();
            }
            if let Some(reduce) = analysis.pipeline(node, PipelineKind::Reduce) {
                r.reduce_timers = reduce.timers();
            }
        }
        Ok(JobReport {
            served_from_cache: false,
            elapsed,
            nodes: reports,
            nodes_lost: coordinator.nodes_lost(),
            splits_rescheduled: coordinator.splits_rescheduled(),
            blocks_read_remote_due_to_fault: store
                .fault_failovers()
                .saturating_sub(failovers_before),
            speculation: coordinator.speculation_report(),
            metrics,
            analysis,
            trace,
        })
    }
}

/// Where and as whom one [`Cluster::run_scoped`] call executes.
#[derive(Debug, Clone)]
pub struct RunScope {
    /// Service job id; stamps every trace lane the run emits. One-shot
    /// runs use 0.
    pub job: u32,
    /// Physical store nodes the job runs on; virtual node `i` of the job
    /// maps onto `node_set[i]`. Must be non-empty, duplicate-free and
    /// within the store's `cluster_size`.
    pub node_set: Vec<NodeId>,
    /// Fault-injection plan for this run (sites fire in this run's
    /// pipeline threads only).
    pub fault_plan: Option<Arc<FaultPlan>>,
    /// Service-lifetime tracer to record into ([`Tracer::for_job`] view
    /// is taken with `job`); `None` gives the run a private tracer.
    pub tracer: Option<Tracer>,
    /// Whether this run may arm the *shared* store's global chaos hook
    /// and tracer. True only when no other job can be resident (the
    /// one-shot path); concurrent scopes must leave it false or they
    /// would fight over cluster-global hook slots.
    pub exclusive_store: bool,
}

impl RunScope {
    /// The classic one-shot scope: job 0, every store node, exclusive.
    pub fn one_shot(nodes: u32) -> Self {
        RunScope {
            job: 0,
            node_set: (0..nodes).map(NodeId).collect(),
            fault_plan: None,
            tracer: None,
            exclusive_store: true,
        }
    }

    /// A service job scope: stamped `job`, confined to `node_set`,
    /// sharing the store (no global hook arming).
    pub fn for_job(job: u32, node_set: Vec<NodeId>) -> Self {
        RunScope {
            job,
            node_set,
            fault_plan: None,
            tracer: None,
            exclusive_store: false,
        }
    }
}

/// A virtual view of a shared [`FileStore`] confined to a node subset:
/// node id `i` of the view is physical node `node_set[i]` of the inner
/// store. Reads and writes translate the acting node (locality and
/// replica choice follow the physical node); split locations translate
/// back into virtual space, dropping replicas held outside the subset
/// (they stay readable, just never "local"). `mark_node_dead` translates
/// too, so a scoped job that loses virtual node `i` kills the right
/// physical machine — a real node death, visible to co-tenants, whose
/// reads fail over to surviving replicas.
struct ScopedStore {
    inner: Arc<dyn FileStore>,
    node_set: Vec<NodeId>,
}

impl ScopedStore {
    fn phys(&self, virt: NodeId) -> NodeId {
        self.node_set.get(virt.0 as usize).copied().unwrap_or(virt)
    }

    fn virt(&self, phys: NodeId) -> Option<NodeId> {
        self.node_set
            .iter()
            .position(|&n| n == phys)
            .map(|i| NodeId(i as u32))
    }
}

impl FileStore for ScopedStore {
    fn write_blocks(
        &self,
        path: &str,
        writer: NodeId,
        blocks: Vec<gw_storage::split::RecordBlock>,
        replication: usize,
    ) -> Result<gw_storage::IoSample, gw_storage::StorageError> {
        self.inner
            .write_blocks(path, self.phys(writer), blocks, replication)
    }

    fn splits(&self, path: &str) -> Result<Vec<gw_storage::InputSplit>, gw_storage::StorageError> {
        let mut splits = self.inner.splits(path)?;
        for s in &mut splits {
            s.locations = s
                .locations
                .iter()
                .filter_map(|&loc| self.virt(loc))
                .collect();
        }
        Ok(splits)
    }

    fn read_split(
        &self,
        split: &gw_storage::InputSplit,
        reader: NodeId,
    ) -> Result<(Arc<[u8]>, gw_storage::IoSample), gw_storage::StorageError> {
        self.inner.read_split(split, self.phys(reader))
    }

    fn exists(&self, path: &str) -> bool {
        self.inner.exists(path)
    }

    fn delete(&self, path: &str) {
        self.inner.delete(path)
    }

    fn cluster_size(&self) -> u32 {
        self.node_set.len() as u32
    }

    fn arm_fault_hook(&self, hook: Option<Arc<dyn gw_storage::StorageFaultHook>>) {
        self.inner.arm_fault_hook(hook)
    }

    fn arm_tracer(&self, tracer: Option<Arc<gw_trace::Tracer>>) {
        self.inner.arm_tracer(tracer)
    }

    fn mark_node_dead(&self, node: NodeId) {
        self.inner.mark_node_dead(self.phys(node))
    }

    fn fault_failovers(&self) -> usize {
        self.inner.fault_failovers()
    }
}

/// Disarms the store's chaos hook and every subsystem's tracer on every
/// exit path of [`Cluster::run_scoped`]. `store` is `None` for shared
/// (non-exclusive) scopes, which never armed the store's global slots.
struct DisarmOnDrop<'a> {
    store: Option<&'a Arc<dyn FileStore>>,
    plan: &'a FaultPlan,
}

impl Drop for DisarmOnDrop<'_> {
    fn drop(&mut self) {
        if let Some(store) = self.store {
            store.arm_fault_hook(None);
            store.arm_tracer(None);
        }
        self.plan.arm_tracer(None);
    }
}

/// The node's shuffle receiver; its task returns how many runs it
/// admitted from peers.
///
/// Tick loop over `recv_timeout`: posts the node's heartbeat, admits runs
/// with de-duplication (tagged runs from re-executed splits arrive at most
/// once), and interleaves liveness scans. Once the map is complete it
/// drains the inbox and lets the coordinator judge what the node still
/// lacks ([`Coordinator::settle_shuffle`]): nothing, and the node is
/// satisfied; otherwise the lost runs' splits are requeued and their
/// re-runs re-make them. The verdict is taken again on every tick rather
/// than latched, because a death unsettles every node. The thread exits
/// once every live node is satisfied. Beats stop then: no receiver scans
/// liveness any more, so a node may reduce for as long as its reduce
/// takes.
fn spawn_receiver(
    (runtime, host): (&Runtime, u32),
    endpoint: Arc<gw_net::Endpoint<ShuffleRun>>,
    intermediate: Arc<IntermediateStore>,
    coordinator: Arc<Coordinator>,
    node: NodeId,
    chaos: NodeChaos,
) -> JoinHandle<Result<usize, EngineError>> {
    runtime.spawn(RoleKey::new(host, Role::ShuffleRx, 0), move || {
        let mut runs = 0;
        // Admit a run into the store, and count it, unless an identical
        // run was already admitted.
        let mut admit = |run: ShuffleRun| {
            if coordinator.admit(node, run.tag) {
                runs += 1;
                intermediate.add_run(
                    run.tag.partition,
                    Run::from_sorted_bytes(run.bytes, run.records),
                );
            }
        };
        loop {
            coordinator.heartbeat(node, chaos.is_dead())?;
            match endpoint.recv_timeout(RX_TICK) {
                Ok(Some(env)) => admit(env.payload),
                Ok(None) => {
                    return Err(EngineError::TaskFailed(
                        "shuffle fabric disconnected".into(),
                    ));
                }
                Err(_timeout) => coordinator.scan_liveness(),
            }
            // Every run of a complete split is already in its owner's
            // inbox, so after this drain a run the node lacks is lost.
            if coordinator.map_complete() {
                while let Some(env) = endpoint.try_recv() {
                    admit(env.payload);
                }
                if coordinator.settle_shuffle(node) {
                    return Ok(runs);
                }
            }
        }
    })
}

/// One node's full job execution: map ∥ merge, then reduce.
#[allow(clippy::too_many_arguments)]
fn run_node(
    node: NodeId,
    nodes: u32,
    (runtime, host): (&Runtime, u32),
    app: Arc<dyn GwApp>,
    store: Arc<dyn FileStore>,
    coordinator: Arc<Coordinator>,
    endpoint: Arc<gw_net::Endpoint<ShuffleRun>>,
    cfg: &JobConfig,
    chaos: NodeChaos,
    tracer: Arc<Tracer>,
) -> Result<NodeReport, EngineError> {
    let device = Arc::new(Device::open_with_runner(
        cfg.device.clone(),
        cfg.device_threads,
        &runner(runtime, host, Role::Device),
    ));
    // Intermediate stores are indexed by *global* partition, so a node can
    // adopt a dead peer's partitions without re-indexing.
    let defaults = IntermediateConfig::default();
    let icfg = IntermediateConfig {
        num_partitions: cfg.partitions_per_node * nodes,
        merger_threads: cfg.merger_threads,
        compress: cfg.compress_intermediate,
        memory_budget: cfg.memory_budget.unwrap_or(defaults.memory_budget),
    };
    let intermediate = Arc::new(IntermediateStore::with_runner(
        icfg,
        &runner(runtime, host, Role::Merger),
    )?);
    // Spill-file I/O is a chaos fault site: probe the node's plan before
    // every frame write/read. The store dies with the job, so no disarm
    // guard is needed.
    intermediate.arm_spill_faults(Some(
        Arc::clone(&chaos.plan) as Arc<dyn gw_intermediate::SpillFaultHook>
    ));

    // Merge phase: receive peers' partitions concurrently with our map.
    let receiver = spawn_receiver(
        (runtime, host),
        Arc::clone(&endpoint),
        Arc::clone(&intermediate),
        Arc::clone(&coordinator),
        node,
        chaos.clone(),
    );
    let join_receiver = |receiver: JoinHandle<_>| {
        receiver
            .join()
            .unwrap_or_else(|_| Err(EngineError::TaskFailed("shuffle receiver panicked".into())))
    };

    // Map phase.
    let map_report = MapPhase {
        cfg,
        node,
        nodes,
        runtime: (runtime, host),
        app: Arc::clone(&app),
        device: Arc::clone(&device),
        store: Arc::clone(&store),
        coordinator: Arc::clone(&coordinator),
        intermediate: Arc::clone(&intermediate),
        endpoint: Arc::clone(&endpoint),
        tracer: Arc::clone(&tracer),
        chaos: chaos.clone(),
    }
    .run();
    let map_report = match map_report {
        Ok(r) => r,
        Err(e) => {
            // Halt our receiver: it would otherwise keep waiting on a map
            // phase this node will never finish.
            chaos.kill();
            let _ = join_receiver(receiver);
            return Err(e);
        }
    };

    // Wait for every peer's data, then let the mergers drain. Runs still
    // cached stay cached: the reduce merge reads them in place.
    let shuffle_runs_received = join_receiver(receiver)?;
    // A spill I/O error on a merger thread poisons the store and surfaces
    // here (and from `partition_cursors` in reduce) instead of panicking.
    let merge_delay = intermediate.finish_map()?;

    if coordinator.aborted() {
        return Err(EngineError::NodeLost("job aborted before reduce".into()));
    }

    // Reduce phase.
    let reduce_report = ReducePhase {
        cfg,
        node,
        nodes,
        runtime: (runtime, host),
        app,
        device,
        store,
        coordinator: Arc::clone(&coordinator),
        intermediate: Arc::clone(&intermediate),
        tracer,
        chaos,
    }
    .run()?;

    Ok(NodeReport {
        node,
        map: map_report,
        map_timers: TimerReport::default(),
        map_samples: Vec::new(),
        merge_delay,
        shuffle_runs_received,
        reduce: reduce_report,
        reduce_timers: TimerReport::default(),
        intermediate: intermediate.metrics(),
    })
}

/// A pool runner over `runtime`: worker `i` runs as lane `i` of `role` on
/// physical node `host`, and joining it waits for that task.
pub(crate) fn runner(
    runtime: &Runtime,
    host: u32,
    role: Role,
) -> impl Fn(usize, Task) -> Join + '_ {
    move |i, task| {
        let handle = runtime.spawn(RoleKey::new(host, role, i as u32), task);
        Box::new(move || {
            let _ = handle.join();
        })
    }
}

/// Read back a whole job's output, ordered by global partition then by the
/// in-file record order. Convenience for tests and examples.
pub fn read_job_output(
    store: &Arc<dyn FileStore>,
    report: &JobReport,
) -> Result<gw_storage::KvVec, EngineError> {
    let mut out = Vec::new();
    for path in report.output_files() {
        out.extend(store.read_all_records(&path, NodeId(0))?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{Combiner, Emit};
    use crate::collect::CollectorKind;
    use crate::config::Buffering;
    use gw_storage::{Dfs, DfsConfig};

    /// Word count with a sum combiner: the canonical Glasswing test app.
    struct WordCount;

    struct SumCombiner;
    impl Combiner for SumCombiner {
        fn combine(&self, _key: &[u8], acc: &mut Vec<u8>, value: &[u8]) {
            let a = u64::from_le_bytes(acc.as_slice().try_into().unwrap());
            let b = u64::from_le_bytes(value.try_into().unwrap());
            acc.copy_from_slice(&(a + b).to_le_bytes());
        }
    }

    impl GwApp for WordCount {
        fn name(&self) -> &'static str {
            "wordcount-test"
        }
        fn map(&self, _key: &[u8], value: &[u8], emit: &Emit<'_>) {
            for word in value.split(|&b| b == b' ').filter(|w| !w.is_empty()) {
                emit.emit(word, &1u64.to_le_bytes());
            }
        }
        fn combiner(&self) -> Option<Arc<dyn Combiner>> {
            Some(Arc::new(SumCombiner))
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

    const CORPUS: &str = "the quick brown fox jumps over the lazy dog \
                          the dog barks and the fox runs away over the hill";

    fn expected_counts() -> Vec<(Vec<u8>, u64)> {
        let mut counts = std::collections::BTreeMap::new();
        for _ in 0..NUM_LINES {
            for w in CORPUS.split_whitespace() {
                *counts.entry(w.as_bytes().to_vec()).or_insert(0u64) += 1;
            }
        }
        counts.into_iter().collect()
    }

    const NUM_LINES: usize = 40;

    fn make_cluster(nodes: u32) -> Cluster {
        let dfs = Arc::new(Dfs::new(DfsConfig::new(nodes).free_io()));
        let lines: Vec<(Vec<u8>, Vec<u8>)> = (0..NUM_LINES)
            .map(|i| (format!("line{i}").into_bytes(), CORPUS.as_bytes().to_vec()))
            .collect();
        dfs.write_records(
            "/wc/in",
            NodeId(0),
            600,
            3,
            lines.iter().map(|(k, v)| (k.as_slice(), v.as_slice())),
        )
        .unwrap();
        Cluster::new(dfs, NetProfile::unlimited())
    }

    fn check_output(cluster: &Cluster, report: &JobReport) {
        let mut out: Vec<(Vec<u8>, u64)> = read_job_output(cluster.store(), report)
            .unwrap()
            .into_iter()
            .map(|(k, v)| (k, u64::from_le_bytes(v.as_slice().try_into().unwrap())))
            .collect();
        out.sort();
        assert_eq!(out, expected_counts());
    }

    fn base_cfg() -> JobConfig {
        let mut cfg = JobConfig::new("/wc/in", "/wc/out");
        cfg.device_threads = 2;
        cfg.collector_capacity = 1 << 20;
        cfg.memory_budget = Some(1 << 17);
        cfg
    }

    #[test]
    fn wordcount_single_node() {
        let cluster = make_cluster(1);
        let report = cluster.run(Arc::new(WordCount), &base_cfg()).unwrap();
        assert_eq!(report.nodes.len(), 1);
        assert_eq!(report.records_mapped(), NUM_LINES);
        check_output(&cluster, &report);
    }

    #[test]
    fn wordcount_four_nodes_with_shuffle() {
        let cluster = make_cluster(4);
        let mut cfg = base_cfg();
        cfg.partitions_per_node = 2;
        let report = cluster.run(Arc::new(WordCount), &cfg).unwrap();
        assert_eq!(report.nodes.len(), 4);
        // The shuffle must actually move data between nodes.
        let received: usize = report.nodes.iter().map(|n| n.shuffle_runs_received).sum();
        assert!(received > 0, "expected cross-node partition traffic");
        // 4 nodes × 2 partitions = 8 output files.
        assert_eq!(report.output_files().len(), 8);
        check_output(&cluster, &report);
    }

    #[test]
    fn wordcount_buffer_pool_collector_matches() {
        let cluster = make_cluster(2);
        let mut cfg = base_cfg();
        cfg.collector = CollectorKind::BufferPool;
        let report = cluster.run(Arc::new(WordCount), &cfg).unwrap();
        check_output(&cluster, &report);
    }

    #[test]
    fn wordcount_all_buffering_levels_match() {
        for buffering in [Buffering::Single, Buffering::Double, Buffering::Triple] {
            let cluster = make_cluster(2);
            let mut cfg = base_cfg();
            cfg.buffering = buffering;
            let report = cluster.run(Arc::new(WordCount), &cfg).unwrap();
            check_output(&cluster, &report);
        }
    }

    #[test]
    fn wordcount_on_simulated_gpu_matches() {
        let cluster = make_cluster(2);
        let mut cfg = base_cfg();
        cfg.device = gw_device::DeviceProfile::gtx480();
        cfg.timing = crate::config::TimingMode::Modeled;
        let report = cluster.run(Arc::new(WordCount), &cfg).unwrap();
        check_output(&cluster, &report);
        // Stage/Retrieve are live on a discrete device.
        let timers = report.map_timers_total();
        assert!(timers.modeled(crate::StageId::Stage) > Duration::ZERO);
    }

    #[test]
    fn tiny_value_chunks_exercise_scratch_state() {
        let cluster = make_cluster(2);
        let mut cfg = base_cfg();
        // Force every multi-value key through several kernel invocations.
        cfg.reduce_max_values_per_chunk = 1;
        cfg.reduce_concurrent_keys = 3;
        cfg.reduce_keys_per_thread = 2;
        // Disable the combiner path so keys really have many values.
        cfg.collector = CollectorKind::BufferPool;
        let report = cluster.run(Arc::new(WordCount), &cfg).unwrap();
        check_output(&cluster, &report);
    }

    #[test]
    fn report_exposes_stage_timers_and_merge_delay() {
        let cluster = make_cluster(2);
        let report = cluster.run(Arc::new(WordCount), &base_cfg()).unwrap();
        let timers = report.map_timers_total();
        assert!(timers.wall(crate::StageId::Kernel) > Duration::ZERO);
        assert!(timers.wall(crate::StageId::Input) > Duration::ZERO);
        assert!(timers.wall(crate::StageId::Partition) > Duration::ZERO);
        // Merge delay is measured (may be tiny but must be recorded).
        assert!(report.merge_delay() < Duration::from_secs(5));
        assert!(report.nodes.iter().any(|n| n.map.splits > 0));
        for n in &report.nodes {
            // One sample per mapped split; a node that found the queue
            // already drained by its peer has none.
            assert_eq!(n.map_samples.len(), n.map.splits);
        }
    }

    #[test]
    fn missing_input_is_an_error() {
        let dfs: Arc<dyn FileStore> = Arc::new(Dfs::new(DfsConfig::new(1).free_io()));
        let cluster = Cluster::new(dfs, NetProfile::unlimited());
        let err = cluster.run(Arc::new(WordCount), &base_cfg()).unwrap_err();
        assert!(matches!(err, EngineError::Storage(_)));
    }

    #[test]
    fn invalid_config_is_rejected_before_running() {
        let cluster = make_cluster(1);
        let mut cfg = base_cfg();
        cfg.partitions_per_node = 0;
        let err = cluster.run(Arc::new(WordCount), &cfg).unwrap_err();
        assert!(matches!(err, EngineError::Config(_)));
    }

    #[test]
    fn unarmed_jobs_report_zero_fault_accounting() {
        let cluster = make_cluster(2);
        let report = cluster.run(Arc::new(WordCount), &base_cfg()).unwrap();
        assert_eq!(report.nodes_lost, 0);
        assert_eq!(report.splits_rescheduled, 0);
        assert_eq!(report.blocks_read_remote_due_to_fault, 0);
    }

    #[test]
    fn scoped_subset_run_matches_a_dedicated_cluster_of_the_same_size() {
        // A 2-slot job on physical nodes {2, 3} of a shared 4-node store
        // must produce byte-identical output to the same job on a
        // dedicated 2-node cluster: output bytes are a function of
        // (workload, JobConfig, node count), never of placement.
        let big = make_cluster(4);
        let tracer = Tracer::new();
        let mut scope = RunScope::for_job(7, vec![NodeId(2), NodeId(3)]);
        scope.tracer = Some(tracer.clone());
        let mut cfg = base_cfg();
        cfg.partitions_per_node = 2;
        let report = big.run_scoped(Arc::new(WordCount), &cfg, scope).unwrap();
        assert!(!report.served_from_cache);
        assert_eq!(report.nodes.len(), 2);
        assert_eq!(report.output_files().len(), 4);
        check_output(&big, &report);
        // Every lane the scoped run emitted is stamped with its job id,
        // both in the report's own trace and in the shared tracer.
        assert!(report.trace.event_count() > 0);
        assert!(report.trace.lanes.iter().all(|(id, _)| id.job == 7));
        assert_eq!(tracer.finish().jobs(), vec![7]);

        let small = make_cluster(2);
        let solo = small.run(Arc::new(WordCount), &cfg).unwrap();
        let scoped_out = read_job_output(big.store(), &report).unwrap();
        let solo_out = read_job_output(small.store(), &solo).unwrap();
        assert_eq!(scoped_out, solo_out);
    }

    #[test]
    fn scoped_run_rejects_bad_node_sets() {
        let cluster = make_cluster(2);
        let cfg = base_cfg();
        let err = cluster
            .run_scoped(Arc::new(WordCount), &cfg, RunScope::for_job(1, Vec::new()))
            .unwrap_err();
        assert!(matches!(err, EngineError::Config(_)));
        let err = cluster
            .run_scoped(
                Arc::new(WordCount),
                &cfg,
                RunScope::for_job(1, vec![NodeId(0), NodeId(5)]),
            )
            .unwrap_err();
        assert!(matches!(err, EngineError::Config(_)));
        let err = cluster
            .run_scoped(
                Arc::new(WordCount),
                &cfg,
                RunScope::for_job(1, vec![NodeId(1), NodeId(1)]),
            )
            .unwrap_err();
        assert!(matches!(err, EngineError::Config(_)));
    }
}
