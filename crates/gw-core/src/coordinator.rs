//! Locality-aware split coordination and whole-node fault recovery.
//!
//! "Glasswing's job coordinator is like Hadoop's: both use a dedicated
//! master node; Glasswing's scheduler considers file affinity in its job
//! allocation." Nodes pull splits from the shared coordinator; a node is
//! preferentially given a split whose block it holds locally, falling back
//! to remote splits only when no local work remains.
//!
//! Beyond the paper's task re-execution (§III-E), the coordinator carries
//! the cluster's liveness and recovery state, for every job:
//!
//! * **Liveness** — every node's shuffle receiver posts a heartbeat on
//!   each tick; a staleness scan declares a node dead once its last beat
//!   is older than `node_timeout`. A dead
//!   node's claimed *and completed* splits return to the queue for the
//!   survivors, each global partition it owned is adopted by the next
//!   live node on the ring, and every node's shuffle must settle again.
//! * **Run ledger** — the tag of every sorted run a map task produces is
//!   recorded *before* the run is sent, and sent before its split
//!   completes. So once the map is complete and a node has drained its
//!   inbox, a ledger run of its partitions that it has not admitted is
//!   lost, and [`Coordinator::settle_shuffle`] requeues the run's split:
//!   a lost run is re-made by re-execution, never re-sent.
//! * **Map end** — a node's input stage claims splits until every live
//!   node's shuffle is settled, so a requeued split always has a live
//!   claimant. It waits on [`Coordinator::wait_for_change`], which
//!   requeues, completions, settlements, deaths and aborts wake.
//! * **Fault accounting** — `nodes_lost` and `splits_rescheduled` feed the
//!   job report.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex, RwLock};

use gw_chaos::FaultPlan;
use gw_net::RunTag;
use gw_storage::split::FileStore;
use gw_storage::{InputSplit, NodeId};
use gw_trace::{LaneId, MarkId, Realm, Tracer};

use crate::config::SpeculationConfig;
use crate::hash::partition_owner;

/// Per-node shuffle recovery state: which runs this node has admitted into
/// its intermediate store, so a run re-made by a re-executed split enters
/// it at most once.
#[derive(Debug, Default)]
pub struct RecoveryState {
    received: Mutex<HashSet<RunTag>>,
}

impl RecoveryState {
    /// Fresh state for one node in one job.
    pub fn new() -> Self {
        RecoveryState::default()
    }

    /// Admit a run into the local store. Returns `false` if an identical
    /// run was already admitted (duplicate delivery or re-execution).
    pub fn admit(&self, tag: RunTag) -> bool {
        self.received.lock().insert(tag)
    }
}

/// Everything a node's pipelines need to participate in fault injection
/// and recovery. Every node carries one; a job run without a
/// [`FaultPlan`] carries an empty one, which injects nothing.
#[derive(Clone)]
pub struct NodeChaos {
    /// The job's fault schedule.
    pub plan: Arc<FaultPlan>,
    /// This node's shuffle recovery state.
    pub recovery: Arc<RecoveryState>,
    /// Set when this node has crashed (by injection or by being declared
    /// dead); every pipeline loop checks it and unwinds.
    pub dead: Arc<AtomicBool>,
}

impl NodeChaos {
    /// Whether this node has crashed.
    pub fn is_dead(&self) -> bool {
        self.dead.load(Ordering::Acquire)
    }

    /// Mark this node crashed.
    pub fn kill(&self) {
        self.dead.store(true, Ordering::Release);
    }
}

/// The map pipeline's hook into the fault plane: crash-site probing per
/// stage, the node's dead flag, and — on the input stage, which is the
/// point where a node commits to more work — the coordinator's own view
/// of this node's liveness and the job-wide abort flag.
///
/// A plan addresses five crash sites on every device: on a unified-memory
/// node, whose graph has no Stage or Retrieve slot, the Kernel thread asks
/// about Stage before its own site and the Partition thread about Retrieve.
pub struct MapPipelineProbe {
    pub(crate) chaos: NodeChaos,
    pub(crate) coordinator: Arc<Coordinator>,
    pub(crate) node: NodeId,
    pub(crate) unified_memory: bool,
}

impl gw_pipeline::PipelineProbe for MapPipelineProbe {
    fn should_abort(&self, stage: gw_pipeline::StageId) -> bool {
        self.chaos.is_dead()
            || (stage == gw_pipeline::StageId::Input
                && (self.coordinator.is_dead(self.node) || self.coordinator.aborted()))
    }

    fn crash_fires(&self, stage: gw_pipeline::StageId, lane: u32) -> bool {
        use gw_pipeline::StageId;
        let fires = |stage| {
            let site = gw_chaos::CrashSite::for_map_stage(stage);
            self.chaos.plan.crash_fires(self.node.0, site, lane)
        };
        let absent = match stage {
            StageId::Kernel => StageId::Stage,
            StageId::Partition => StageId::Retrieve,
            _ => return fires(stage),
        };
        (self.unified_memory && fires(absent)) || fires(stage)
    }

    fn kill(&self) {
        self.chaos.kill();
    }

    fn gray_delay(
        &self,
        stage: gw_pipeline::StageId,
        lane: u32,
        wall: Duration,
    ) -> Option<Duration> {
        self.chaos.plan.gray_delay(
            self.node.0,
            gw_chaos::CrashSite::for_map_stage(stage),
            lane,
            wall,
        )
    }
}

/// The reduce pipeline's hook into the fault plane. Reduce-site faults
/// are task-level panics recovered by the §III-E retry budget (a
/// whole-node reduce crash is unrecoverable — see DESIGN.md §3.5), so the
/// probe exposes only [`gw_pipeline::PipelineProbe::task_fault_fires`].
pub struct ReduceTaskProbe {
    chaos: NodeChaos,
    node: NodeId,
}

impl ReduceTaskProbe {
    /// Probe for `node`'s reduce pipelines.
    pub fn new(chaos: NodeChaos, node: NodeId) -> Self {
        ReduceTaskProbe { chaos, node }
    }
}

impl gw_pipeline::PipelineProbe for ReduceTaskProbe {
    fn should_abort(&self, _stage: gw_pipeline::StageId) -> bool {
        false
    }

    fn crash_fires(&self, _stage: gw_pipeline::StageId, _lane: u32) -> bool {
        false
    }

    fn kill(&self) {}

    fn task_fault_fires(&self) -> bool {
        self.chaos.plan.reduce_fault_fires(self.node.0)
    }

    fn gray_delay(
        &self,
        _stage: gw_pipeline::StageId,
        lane: u32,
        wall: Duration,
    ) -> Option<Duration> {
        // Gray faults on the reduce side all map to the Reduce site.
        self.chaos
            .plan
            .gray_delay(self.node.0, gw_chaos::CrashSite::Reduce, lane, wall)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SlotState {
    Pending,
    Claimed(u32),
    Complete(u32),
}

#[derive(Debug)]
struct Slot {
    split: InputSplit,
    state: SlotState,
    /// Node running a speculative clone of this split, racing the claimant.
    spec: Option<u32>,
    /// When the current claim was handed out (drives the straggler
    /// threshold).
    claimed_at: Option<Instant>,
}

/// Live state of the speculation controller (DESIGN.md §3.8): an idle node
/// that finds no pending split may instead clone the oldest outstanding
/// claim once it looks like a straggler. Clones race their primaries
/// first-finisher-wins; the run ledger and receiver de-dup make either
/// winner produce byte-identical output.
struct Speculation {
    cfg: SpeculationConfig,
    /// Completed-claim durations; the straggler threshold is a percentile
    /// of their median.
    durations: Mutex<Vec<Duration>>,
    last_launch: Mutex<Option<Instant>>,
    launched: AtomicUsize,
    won: AtomicUsize,
    cancelled: AtomicUsize,
    failed: AtomicUsize,
    tracer: RwLock<Option<Arc<Tracer>>>,
}

/// Final speculation accounting for the job report. Invariant at job end:
/// `launched == won + cancelled + failed`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpeculationReport {
    /// Speculative clones launched.
    pub launched: usize,
    /// Clones that finished before (or outlived) their primary.
    pub won: usize,
    /// Clones cancelled because the primary finished first.
    pub cancelled: usize,
    /// Clones lost because the speculating node died.
    pub failed: usize,
}

impl SpeculationReport {
    /// Whether every launched clone is accounted for.
    pub fn balanced(&self) -> bool {
        self.launched == self.won + self.cancelled + self.failed
    }
}

struct Liveness {
    /// Last heartbeat per node.
    beats: Vec<Instant>,
    /// Nodes declared dead.
    dead: HashSet<u32>,
    /// Nodes whose shuffle is settled: they hold every run of their
    /// partitions. A death clears it, since it moves partitions.
    satisfied: HashSet<u32>,
    /// Partition adoptions: global partition → live owner, for partitions
    /// whose hash owner died.
    owner_override: HashMap<u32, u32>,
}

impl Liveness {
    /// Current owner of global `partition` in an `nodes`-node job.
    fn owner(&self, partition: u32, nodes: u32) -> u32 {
        self.owner_override
            .get(&partition)
            .copied()
            .unwrap_or_else(|| partition_owner(partition, nodes))
    }

    /// Whether every live node's shuffle is settled.
    fn all_satisfied(&self, nodes: u32) -> bool {
        (0..nodes).all(|n| self.dead.contains(&n) || self.satisfied.contains(&n))
    }
}

struct Supervision {
    nodes: u32,
    total_partitions: u32,
    node_timeout: Duration,
    store: Option<Arc<dyn FileStore>>,
    live: Mutex<Liveness>,
    /// Tags of every run produced so far. Lock order: `ledger` before
    /// `live`, and both before a node's [`RecoveryState`].
    ledger: Mutex<HashSet<RunTag>>,
}

/// The longest a claim loop waits without a wakeup: time alone can make a
/// split claimable (a claim ages into a straggler), and a node's own kill
/// flag wakes nobody.
const CLAIM_WAIT: Duration = Duration::from_millis(2);

/// Shared split queue with locality preference and the cluster's
/// liveness/recovery state.
pub struct Coordinator {
    /// Lock order: `live` (supervision) before `slots`, and both before
    /// `changes`.
    slots: Mutex<Vec<Slot>>,
    total: usize,
    supervision: Supervision,
    speculation: Option<Speculation>,
    /// Count of the changes a waiting claim loop must look at, and the
    /// condvar [`Coordinator::wait_for_change`] sleeps on.
    changes: Mutex<u64>,
    changed: Condvar,
    has_overrides: AtomicBool,
    aborted: AtomicBool,
    nodes_lost: AtomicUsize,
    splits_rescheduled: AtomicUsize,
}

impl Coordinator {
    /// Create a coordinator over the splits of an `nodes`-node job with
    /// `total_partitions` global partitions, declaring a node dead once
    /// its last heartbeat is older than `node_timeout`. `store`, when
    /// given, is told about node deaths so DFS reads fail over to
    /// surviving replicas.
    pub fn new(
        splits: Vec<InputSplit>,
        nodes: u32,
        total_partitions: u32,
        node_timeout: Duration,
        store: Option<Arc<dyn FileStore>>,
    ) -> Self {
        let total = splits.len();
        Coordinator {
            slots: Mutex::new(
                splits
                    .into_iter()
                    .map(|split| Slot {
                        split,
                        state: SlotState::Pending,
                        spec: None,
                        claimed_at: None,
                    })
                    .collect(),
            ),
            total,
            supervision: Supervision {
                nodes,
                total_partitions,
                node_timeout,
                store,
                live: Mutex::new(Liveness {
                    beats: vec![Instant::now(); nodes as usize],
                    dead: HashSet::new(),
                    satisfied: HashSet::new(),
                    owner_override: HashMap::new(),
                }),
                ledger: Mutex::new(HashSet::new()),
            },
            speculation: None,
            changes: Mutex::new(0),
            changed: Condvar::new(),
            has_overrides: AtomicBool::new(false),
            aborted: AtomicBool::new(false),
            nodes_lost: AtomicUsize::new(0),
            splits_rescheduled: AtomicUsize::new(0),
        }
    }

    /// Arm the speculation controller (no-op when `cfg.enabled` is false).
    pub fn enable_speculation(&mut self, cfg: SpeculationConfig) {
        if !cfg.enabled {
            return;
        }
        self.speculation = Some(Speculation {
            cfg,
            durations: Mutex::new(Vec::new()),
            last_launch: Mutex::new(None),
            launched: AtomicUsize::new(0),
            won: AtomicUsize::new(0),
            cancelled: AtomicUsize::new(0),
            failed: AtomicUsize::new(0),
            tracer: RwLock::new(None),
        });
    }

    /// Arm (or disarm) the tracer the speculation controller emits
    /// `spec-launched` / `spec-resolved` marks to, on the speculating
    /// node's coordinator lane.
    pub fn arm_spec_tracer(&self, tracer: Option<Arc<Tracer>>) {
        if let Some(spec) = &self.speculation {
            *spec.tracer.write() = tracer;
        }
    }

    /// Total splits in the job.
    pub fn total(&self) -> usize {
        self.total
    }

    /// Splits not currently handed out (requeued splits count again).
    pub fn remaining(&self) -> usize {
        self.slots
            .lock()
            .iter()
            .filter(|s| s.state == SlotState::Pending)
            .count()
    }

    /// Claim the next split for `node`: local-first, then any. With
    /// speculation armed and no pending work left, a node may instead be
    /// handed a clone of a straggling claim (see
    /// [`Coordinator::enable_speculation`]).
    pub fn next_for(&self, node: NodeId) -> Option<InputSplit> {
        {
            let mut slots = self.slots.lock();
            let pending = |s: &Slot| s.state == SlotState::Pending;
            let idx = slots
                .iter()
                .position(|s| pending(s) && s.split.is_local_to(node))
                .or_else(|| slots.iter().position(pending));
            if let Some(idx) = idx {
                slots[idx].state = SlotState::Claimed(node.0);
                slots[idx].claimed_at = Some(Instant::now());
                slots[idx].spec = None;
                return Some(slots[idx].split.clone());
            }
            self.speculation.as_ref()?;
        }
        // Dead set gathered outside the slots lock (lock order: `live`
        // before `slots`); candidates re-checked under the lock.
        let dead = self.dead_nodes();
        let mut slots = self.slots.lock();
        self.speculate_locked(&mut slots, node, &dead)
    }

    /// Pick the oldest outstanding claim that crossed the straggler
    /// threshold and clone it for `node`. Caller holds the slots lock.
    fn speculate_locked(
        &self,
        slots: &mut [Slot],
        node: NodeId,
        dead: &HashSet<u32>,
    ) -> Option<InputSplit> {
        let spec = self.speculation.as_ref()?;
        if dead.contains(&node.0) || spec.launched.load(Ordering::Relaxed) >= spec.cfg.budget {
            return None;
        }
        if let Some(at) = *spec.last_launch.lock() {
            if at.elapsed() < spec.cfg.backoff {
                return None;
            }
        }
        // The threshold is a percentile of the median completed-claim
        // duration; with fewer than 3 completions there is no meaningful
        // baseline yet.
        let threshold = {
            let durs = spec.durations.lock();
            if durs.len() < 3 {
                return None;
            }
            let mut sorted = durs.clone();
            sorted.sort();
            (sorted[sorted.len() / 2] * spec.cfg.threshold_pct / 100).max(spec.cfg.min_runtime)
        };
        let idx = slots
            .iter()
            .enumerate()
            .filter(|(_, s)| match s.state {
                SlotState::Claimed(c) => {
                    c != node.0
                        && s.spec.is_none()
                        && !dead.contains(&c)
                        && s.claimed_at.is_some_and(|t| t.elapsed() > threshold)
                }
                _ => false,
            })
            .max_by_key(|(_, s)| s.claimed_at.map(|t| t.elapsed()))
            .map(|(i, _)| i)?;
        let slot = &mut slots[idx];
        slot.spec = Some(node.0);
        spec.launched.fetch_add(1, Ordering::Relaxed);
        *spec.last_launch.lock() = Some(Instant::now());
        if let Some(t) = spec.tracer.read().as_ref() {
            t.lane(spec_lane(node.0)).instant(MarkId::SpecLaunched {
                block: slot.split.block as u64,
            });
        }
        Some(slot.split.clone())
    }

    /// Count a speculation outcome and emit its `spec-resolved` mark on
    /// `node`'s coordinator lane.
    fn resolve_spec(&self, node: u32, block: usize, outcome: &'static str) {
        let Some(spec) = &self.speculation else {
            return;
        };
        match outcome {
            "won" => spec.won.fetch_add(1, Ordering::Relaxed),
            "cancelled" => spec.cancelled.fetch_add(1, Ordering::Relaxed),
            _ => spec.failed.fetch_add(1, Ordering::Relaxed),
        };
        if let Some(t) = spec.tracer.read().as_ref() {
            t.lane(spec_lane(node)).instant(MarkId::SpecResolved {
                block: block as u64,
                outcome,
            });
        }
    }

    /// Record that `node` fully processed the split for `block`: all its
    /// runs are recorded in the ledger and delivered. Resolves
    /// a speculation race first-finisher-wins. No-op if the claim was
    /// revoked in the meantime (the claimant was declared dead and the
    /// split requeued) or another attempt already completed the split.
    pub fn complete_split(&self, node: NodeId, block: usize) {
        let mut slots = self.slots.lock();
        let Some(slot) = slots.iter_mut().find(|s| {
            s.split.block == block
                && match s.state {
                    SlotState::Claimed(c) => c == node.0 || s.spec == Some(node.0),
                    _ => false,
                }
        }) else {
            return;
        };
        let age = slot.claimed_at.map(|t| t.elapsed());
        match slot.state {
            SlotState::Claimed(c) if c == node.0 => {
                // The primary finished first: cancel any outstanding clone.
                if let Some(s) = slot.spec.take() {
                    self.resolve_spec(s, block, "cancelled");
                }
            }
            _ => {
                // The clone beat a still-live primary.
                slot.spec = None;
                self.resolve_spec(node.0, block, "won");
            }
        }
        slot.state = SlotState::Complete(node.0);
        if let (Some(spec), Some(age)) = (&self.speculation, age) {
            spec.durations.lock().push(age);
        }
        drop(slots);
        self.wake();
    }

    /// Whether another attempt already completed the split for `block`:
    /// `node`'s in-flight work on it is waste and its kernel launch can be
    /// skipped (the run ledger and de-dup discard its output anyway).
    pub fn is_superseded(&self, node: NodeId, block: usize) -> bool {
        if self.speculation.is_none() {
            return false;
        }
        self.slots.lock().iter().any(|s| {
            s.split.block == block && matches!(s.state, SlotState::Complete(x) if x != node.0)
        })
    }

    /// Final speculation accounting for the job report.
    pub fn speculation_report(&self) -> SpeculationReport {
        match &self.speculation {
            Some(s) => SpeculationReport {
                launched: s.launched.load(Ordering::Relaxed),
                won: s.won.load(Ordering::Relaxed),
                cancelled: s.cancelled.load(Ordering::Relaxed),
                failed: s.failed.load(Ordering::Relaxed),
            },
            None => SpeculationReport::default(),
        }
    }

    /// Whether every split has been fully processed by a (still-credited)
    /// node. Reverts to `false` when a split requeues: its completer died,
    /// or a run it produced was lost.
    pub fn map_complete(&self) -> bool {
        self.slots
            .lock()
            .iter()
            .all(|s| matches!(s.state, SlotState::Complete(_)))
    }

    /// Post a liveness heartbeat for `node`.
    pub fn heartbeat(&self, node: NodeId) {
        self.supervision.live.lock().beats[node.0 as usize] = Instant::now();
    }

    /// Declare any node whose last heartbeat is older than `node_timeout`
    /// dead, requeueing its splits and adopting its partitions. Cheap when
    /// nothing changed; any wait loop may call it. Once every live node's
    /// shuffle is settled, membership is final and this declares nobody:
    /// the input stages have left their claim loops, so a split requeued
    /// then would have no claimant.
    pub fn scan_liveness(&self) {
        let sup = &self.supervision;
        let mut live = sup.live.lock();
        if live.all_satisfied(sup.nodes) {
            return;
        }
        let stale: Vec<u32> = (0..sup.nodes)
            .filter(|n| !live.dead.contains(n))
            .filter(|&n| live.beats[n as usize].elapsed() > sup.node_timeout)
            .collect();
        for node in stale {
            self.mark_dead_locked(sup, &mut live, node);
        }
    }

    fn mark_dead_locked(&self, sup: &Supervision, live: &mut Liveness, node: u32) {
        if !live.dead.insert(node) {
            return;
        }
        // The adopter of the dead node's partitions lacks their runs, and
        // requeued splits re-make runs: every node settles again.
        live.satisfied.clear();
        self.nodes_lost.fetch_add(1, Ordering::Relaxed);

        // Requeue everything the dead node claimed or completed: its local
        // shuffle state (runs it produced for itself, runs it received) is
        // gone, so its completed splits must be re-executed too.
        let requeued = {
            let mut slots = self.slots.lock();
            let mut n = 0;
            for slot in slots.iter_mut() {
                match slot.state {
                    SlotState::Claimed(x) if x == node => {
                        if let Some(s) = slot.spec.take() {
                            if !live.dead.contains(&s) {
                                // A live clone is mid-flight: promote it to
                                // primary instead of requeueing — it won
                                // the race against its dead primary.
                                slot.state = SlotState::Claimed(s);
                                slot.claimed_at = Some(Instant::now());
                                self.resolve_spec(s, slot.split.block, "won");
                                continue;
                            }
                        }
                        slot.state = SlotState::Pending;
                        slot.claimed_at = None;
                        n += 1;
                    }
                    SlotState::Complete(x) if x == node => {
                        slot.state = SlotState::Pending;
                        slot.spec = None;
                        slot.claimed_at = None;
                        n += 1;
                    }
                    SlotState::Claimed(_) if slot.spec == Some(node) => {
                        // The speculating node died; the primary races on
                        // alone.
                        slot.spec = None;
                        self.resolve_spec(node, slot.split.block, "failed");
                    }
                    _ => {}
                }
            }
            n
        };
        self.splits_rescheduled
            .fetch_add(requeued, Ordering::Relaxed);

        // Adopt the dead node's partitions onto the next live node on the
        // ring after it.
        let adopter = (1..sup.nodes)
            .map(|d| (node + d) % sup.nodes)
            .find(|cand| !live.dead.contains(cand));
        if let Some(adopter) = adopter {
            let mut adopted = false;
            for gp in 0..sup.total_partitions {
                if live.owner(gp, sup.nodes) == node {
                    live.owner_override.insert(gp, adopter);
                    adopted = true;
                }
            }
            if adopted {
                self.has_overrides.store(true, Ordering::Release);
            }
        }

        if let Some(store) = &sup.store {
            store.mark_node_dead(NodeId(node));
        }
        self.wake();
    }

    /// Whether `node` has been declared dead.
    pub fn is_dead(&self, node: NodeId) -> bool {
        self.supervision.live.lock().dead.contains(&node.0)
    }

    /// The set of nodes declared dead so far.
    pub fn dead_nodes(&self) -> HashSet<u32> {
        self.supervision.live.lock().dead.clone()
    }

    /// Current live owner of global `partition` (hash owner unless the
    /// partition was adopted after a death).
    pub fn owner_of(&self, partition: u32, nodes: u32) -> u32 {
        if !self.has_overrides.load(Ordering::Acquire) {
            return partition_owner(partition, nodes);
        }
        self.supervision.live.lock().owner(partition, nodes)
    }

    /// Ledger write: run `tag` has been produced (or re-produced). Called
    /// before the run is sent, so the ledger never misses a run a receiver
    /// might lack.
    pub fn record_run(&self, tag: RunTag) {
        self.supervision.ledger.lock().insert(tag);
    }

    /// Judge `node`'s shuffle. Call it only after seeing
    /// [`Coordinator::map_complete`] and then draining the node's inbox:
    /// a run is in the ledger before it is sent, and in its owner's inbox
    /// before its split completes, so a ledger run of `node`'s partitions
    /// that `received` has not admitted is lost. Owed nothing, `node` is
    /// satisfied and this returns `true`; otherwise the splits of the lost
    /// runs are requeued for re-execution. Returns `false`
    /// without a verdict when the map is no longer complete.
    pub fn settle_shuffle(&self, node: NodeId, received: &RecoveryState) -> bool {
        let sup = &self.supervision;
        let ledger = sup.ledger.lock();
        let mut live = sup.live.lock();
        if live.satisfied.contains(&node.0) {
            return true;
        }
        if !self.map_complete() {
            return false;
        }
        let lost: Vec<RunTag> = {
            let received = received.received.lock();
            ledger
                .iter()
                .filter(|tag| {
                    !received.contains(tag) && live.owner(tag.partition, sup.nodes) == node.0
                })
                .copied()
                .collect()
        };
        if lost.is_empty() {
            live.satisfied.insert(node.0);
            self.wake();
            return true;
        }
        self.requeue_lost(&lost);
        false
    }

    /// Re-make `lost` runs: every `Complete` split that produced one goes
    /// back to `Pending` for any live node to re-run, and counts as
    /// rescheduled. `Pending` and `Claimed` splits are left as they are —
    /// their next completion re-makes the runs anyway — so a repeated call
    /// changes nothing.
    fn requeue_lost(&self, lost: &[RunTag]) {
        let blocks: HashSet<usize> = lost.iter().map(|t| t.block as usize).collect();
        let mut requeued = 0;
        for slot in self.slots.lock().iter_mut() {
            if blocks.contains(&slot.split.block) && matches!(slot.state, SlotState::Complete(_)) {
                slot.state = SlotState::Pending;
                slot.claimed_at = None;
                requeued += 1;
            }
        }
        self.splits_rescheduled
            .fetch_add(requeued, Ordering::Relaxed);
        self.wake();
    }

    /// Whether every live node's shuffle is settled. Once it holds it
    /// holds for good ([`Coordinator::scan_liveness`] declares nobody
    /// dead after it), and the map phase ends.
    pub fn all_live_satisfied(&self) -> bool {
        self.supervision
            .live
            .lock()
            .all_satisfied(self.supervision.nodes)
    }

    /// Changes seen so far; hand it to [`Coordinator::wait_for_change`]
    /// after looking for work.
    pub fn changes(&self) -> u64 {
        *self.changes.lock()
    }

    /// Wait until something changed after `seen` — a requeue, completion,
    /// settlement, death or abort — or for at most 2 ms (`CLAIM_WAIT`).
    pub fn wait_for_change(&self, seen: u64) {
        let mut changes = self.changes.lock();
        if *changes == seen {
            self.changed.wait_for(&mut changes, CLAIM_WAIT);
        }
    }

    fn wake(&self) {
        *self.changes.lock() += 1;
        self.changed.notify_all();
    }

    /// Abort the job: every wait loop unwinds at its next check.
    pub fn abort(&self) {
        self.aborted.store(true, Ordering::Release);
        self.wake();
    }

    /// Whether the job has been aborted.
    pub fn aborted(&self) -> bool {
        self.aborted.load(Ordering::Acquire)
    }

    /// Nodes declared dead during the job.
    pub fn nodes_lost(&self) -> usize {
        self.nodes_lost.load(Ordering::Relaxed)
    }

    /// Splits requeued for re-execution: because their node died (claimed
    /// and completed), or because a run they produced was lost.
    pub fn splits_rescheduled(&self) -> usize {
        self.splits_rescheduled.load(Ordering::Relaxed)
    }
}

/// Node `node`'s coordinator lane (speculation marks land here).
fn spec_lane(node: u32) -> LaneId {
    LaneId {
        job: 0,
        node,
        realm: Realm::Coordinator,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gw_chaos::CrashSite;
    use gw_pipeline::StageId;

    /// A coordinator whose nodes are declared dead 5 ms after their last
    /// heartbeat.
    fn coordinator(nodes: u32, parts: u32, splits: Vec<InputSplit>) -> Coordinator {
        Coordinator::new(splits, nodes, parts, Duration::from_millis(5), None)
    }

    fn split(block: usize, locations: Vec<u32>) -> InputSplit {
        InputSplit {
            path: "/in".into(),
            block,
            len: 100,
            records: 10,
            locations: locations.into_iter().map(NodeId).collect(),
        }
    }

    #[test]
    fn prefers_local_splits() {
        let c = coordinator(
            2,
            2,
            vec![split(0, vec![1]), split(1, vec![0]), split(2, vec![1])],
        );
        let first = c.next_for(NodeId(0)).unwrap();
        assert_eq!(first.block, 1, "node 0 should get its local split first");
        assert_eq!(c.remaining(), 2);
    }

    #[test]
    fn falls_back_to_remote_work() {
        let c = coordinator(2, 2, vec![split(0, vec![1]), split(1, vec![1])]);
        assert!(c.next_for(NodeId(0)).is_some());
        assert!(c.next_for(NodeId(0)).is_some());
        assert!(c.next_for(NodeId(0)).is_none());
    }

    #[test]
    fn every_split_is_handed_out_exactly_once() {
        let c = coordinator(
            4,
            4,
            (0..20).map(|i| split(i, vec![(i % 4) as u32])).collect(),
        );
        let mut seen = Vec::new();
        let mut turn = 0u32;
        while let Some(s) = c.next_for(NodeId(turn % 4)) {
            seen.push(s.block);
            turn += 1;
        }
        seen.sort();
        assert_eq!(seen, (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn concurrent_claims_are_disjoint() {
        let c = std::sync::Arc::new(coordinator(
            4,
            4,
            (0..100).map(|i| split(i, vec![(i % 4) as u32])).collect(),
        ));
        let handles: Vec<_> = (0..4)
            .map(|n| {
                let c = std::sync::Arc::clone(&c);
                std::thread::spawn(move || {
                    let mut got = Vec::new();
                    while let Some(s) = c.next_for(NodeId(n)) {
                        got.push(s.block);
                    }
                    got
                })
            })
            .collect();
        let mut all: Vec<usize> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        all.sort();
        assert_eq!(all, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn dead_node_work_is_requeued_onto_survivors() {
        let c = coordinator(
            2,
            2,
            (0..4).map(|i| split(i, vec![(i % 2) as u32])).collect(),
        );
        // Node 1 claims two splits and completes one.
        let a = c.next_for(NodeId(1)).unwrap();
        let _b = c.next_for(NodeId(1)).unwrap();
        c.complete_split(NodeId(1), a.block);
        assert_eq!(c.remaining(), 2);

        // Node 1 stops heartbeating; node 0 stays alive.
        std::thread::sleep(Duration::from_millis(10));
        c.heartbeat(NodeId(0));
        c.scan_liveness();

        assert!(c.is_dead(NodeId(1)));
        assert!(!c.is_dead(NodeId(0)));
        assert_eq!(c.nodes_lost(), 1);
        // Both its splits — claimed AND completed — are pending again.
        assert_eq!(c.splits_rescheduled(), 2);
        assert_eq!(c.remaining(), 4);
        assert!(!c.map_complete());

        // The survivor can claim and finish everything.
        let mut done = 0;
        while let Some(s) = c.next_for(NodeId(0)) {
            c.complete_split(NodeId(0), s.block);
            done += 1;
        }
        assert_eq!(done, 4);
        assert!(c.map_complete());
        // Scanning again does not double-count the same death.
        c.heartbeat(NodeId(0));
        c.scan_liveness();
        assert_eq!(c.nodes_lost(), 1);
    }

    #[test]
    fn dead_nodes_partitions_are_adopted_by_the_ring() {
        let c = coordinator(4, 8, vec![split(0, vec![0])]);
        for n in 0..4 {
            assert_eq!(c.owner_of(n, 4), n, "hash owners before any death");
        }
        std::thread::sleep(Duration::from_millis(10));
        for n in [0u32, 2, 3] {
            c.heartbeat(NodeId(n));
        }
        c.scan_liveness();
        assert!(c.is_dead(NodeId(1)));
        // Node 1 owned global partitions 1 and 5; node 2 adopts both.
        assert_eq!(c.owner_of(1, 4), 2);
        assert_eq!(c.owner_of(5, 4), 2);
        // Other owners unchanged.
        assert_eq!(c.owner_of(0, 4), 0);
        assert_eq!(c.owner_of(2, 4), 2);
        assert_eq!(c.owner_of(7, 4), 3);
    }

    fn tag(partition: u32, block: u32, lane: u32) -> RunTag {
        RunTag {
            partition,
            block,
            lane,
        }
    }

    /// Claim and complete every split on `node`.
    fn map_everything(c: &Coordinator, node: u32) {
        while let Some(s) = c.next_for(NodeId(node)) {
            c.complete_split(NodeId(node), s.block);
        }
    }

    /// A node that lacks a ledger run of its partitions once the map is
    /// complete has that run's split requeued; each partitioning worker's
    /// run counts on its own, and a node holding them all is satisfied.
    #[test]
    fn settling_requeues_the_split_of_a_lost_run() {
        let c = coordinator(2, 2, vec![split(0, vec![0]), split(1, vec![1])]);
        let have = RecoveryState::new();
        // Block 0 built runs for both partitions, block 1 two workers' runs
        // for partition 0, which node 0 owns.
        for t in [tag(0, 0, 0), tag(1, 0, 0), tag(0, 1, 0), tag(0, 1, 1)] {
            c.record_run(t);
        }
        // No verdict while the map runs.
        assert!(!c.settle_shuffle(NodeId(0), &have));
        map_everything(&c, 0);
        assert!(have.admit(tag(0, 0, 0)) && have.admit(tag(0, 1, 0)));

        // Block 1's second worker's run is lost: block 1, and only it,
        // re-runs.
        assert!(!c.settle_shuffle(NodeId(0), &have));
        assert_eq!(c.splits_rescheduled(), 1);
        assert!(!c.map_complete());
        let again = c.next_for(NodeId(1)).unwrap();
        assert_eq!(again.block, 1);
        assert!(c.next_for(NodeId(1)).is_none());

        // The re-run re-makes the run under the same tag.
        c.record_run(tag(0, 1, 1));
        assert!(have.admit(tag(0, 1, 1)));
        c.complete_split(NodeId(1), again.block);
        assert!(c.settle_shuffle(NodeId(0), &have));
        assert!(!c.all_live_satisfied(), "node 1 has not settled");
        // Node 1 owns partition 1 and admitted block 0's run for it.
        let node1 = RecoveryState::new();
        assert!(node1.admit(tag(1, 0, 0)));
        assert!(c.settle_shuffle(NodeId(1), &node1));
        assert!(c.all_live_satisfied());
        assert_eq!(c.splits_rescheduled(), 1);
    }

    /// Only a `Complete` split goes back to the queue: a `Pending` or
    /// `Claimed` one re-makes its runs anyway, so requeueing is idempotent.
    #[test]
    fn requeueing_a_lost_run_moves_only_its_complete_split() {
        let c = coordinator(2, 2, (0..3).map(|i| split(i, vec![0])).collect());
        let done = c.next_for(NodeId(0)).unwrap();
        c.complete_split(NodeId(0), done.block);
        let claimed = c.next_for(NodeId(1)).unwrap();
        assert_eq!((done.block, claimed.block, c.remaining()), (0, 1, 1));

        // Lost runs of the claimed and the pending split change nothing.
        c.requeue_lost(&[tag(0, 1, 0), tag(1, 2, 0)]);
        c.requeue_lost(&[tag(0, 1, 0), tag(1, 2, 0)]);
        assert_eq!((c.splits_rescheduled(), c.remaining()), (0, 1));

        // Two lost runs of the complete split requeue it once; a second
        // call finds it pending.
        c.requeue_lost(&[tag(0, 0, 0), tag(1, 0, 0)]);
        c.requeue_lost(&[tag(0, 0, 0)]);
        assert_eq!((c.splits_rescheduled(), c.remaining()), (1, 2));

        // The claim was left alone: its completion still counts, and the
        // map is complete only once the requeued split re-runs too.
        c.complete_split(NodeId(1), claimed.block);
        assert!(!c.map_complete());
        map_everything(&c, 0);
        assert!(c.map_complete());
    }

    /// A node declared dead after its peers settled hands its partitions
    /// to one of them, which must then settle again: it lacks the runs of
    /// the partitions it adopted.
    #[test]
    fn a_death_unsettles_the_node_that_adopts_its_partitions() {
        let c = coordinator(3, 3, vec![split(0, vec![0])]);
        // Block 0 made a run for partition 2, which node 2 owns.
        c.record_run(tag(2, 0, 0));
        map_everything(&c, 0);
        let none = RecoveryState::new();
        assert!(c.settle_shuffle(NodeId(0), &none));
        assert!(c.settle_shuffle(NodeId(1), &none));
        assert!(!c.all_live_satisfied(), "node 2 has not settled");

        std::thread::sleep(Duration::from_millis(10));
        c.heartbeat(NodeId(0));
        c.heartbeat(NodeId(1));
        c.scan_liveness();
        assert!(c.is_dead(NodeId(2)));
        assert_eq!(c.owner_of(2, 3), 0, "node 0 adopts partition 2");
        assert!(!c.all_live_satisfied());

        // Node 0 lacks the adopted partition's run: its split re-runs.
        assert!(!c.settle_shuffle(NodeId(0), &none));
        assert_eq!(c.splits_rescheduled(), 1);
        assert!(!c.map_complete());
    }

    #[test]
    fn shuffle_satisfaction_ignores_the_dead() {
        let c = coordinator(3, 3, vec![split(0, vec![0])]);
        map_everything(&c, 0);
        let none = RecoveryState::new();
        assert!(!c.all_live_satisfied());
        assert!(c.settle_shuffle(NodeId(0), &none));
        assert!(c.settle_shuffle(NodeId(2), &none));
        assert!(!c.all_live_satisfied(), "node 1 not satisfied, not dead");
        std::thread::sleep(Duration::from_millis(10));
        c.heartbeat(NodeId(0));
        c.heartbeat(NodeId(2));
        c.scan_liveness();
        // The survivors settle again; the dead node never has to.
        assert!(!c.all_live_satisfied());
        assert!(c.settle_shuffle(NodeId(0), &none));
        assert!(c.settle_shuffle(NodeId(2), &none));
        assert!(c.all_live_satisfied());

        // Settled for good: nobody is declared dead any more.
        std::thread::sleep(Duration::from_millis(10));
        c.scan_liveness();
        assert_eq!(c.nodes_lost(), 1);
        assert!(c.all_live_satisfied());
    }

    /// Requeues, completions, settlements, deaths and aborts each wake a
    /// waiting claim loop; a wait on an unchanged count returns on its own.
    #[test]
    fn every_wakeup_source_bumps_the_change_count() {
        let c = coordinator(2, 2, vec![split(0, vec![0])]);
        let mut seen = c.changes();
        let mut bumped = |what: &str| {
            let now = c.changes();
            assert!(now > seen, "{what} woke nobody");
            seen = now;
        };
        let s = c.next_for(NodeId(0)).unwrap();
        c.complete_split(NodeId(0), s.block);
        bumped("completion");
        c.requeue_lost(&[tag(0, 0, 0)]);
        bumped("requeue");
        map_everything(&c, 0);
        bumped("re-run");
        assert!(c.settle_shuffle(NodeId(0), &RecoveryState::new()));
        bumped("settlement");
        std::thread::sleep(Duration::from_millis(10));
        c.heartbeat(NodeId(0));
        c.scan_liveness();
        bumped("death");
        c.abort();
        bumped("abort");
        c.wait_for_change(c.changes());
    }

    fn speculative(nodes: u32, splits: Vec<InputSplit>, budget: usize) -> Coordinator {
        let mut c = coordinator(nodes, nodes, splits);
        c.enable_speculation(SpeculationConfig {
            enabled: true,
            threshold_pct: 100,
            min_runtime: Duration::ZERO,
            budget,
            backoff: Duration::ZERO,
        });
        c
    }

    /// Node 0 completes three splits fast (establishing the median), node
    /// 1 sits on one claim long enough to cross the threshold.
    fn straggler_setup(budget: usize) -> (Coordinator, usize) {
        let c = speculative(2, (0..4).map(|i| split(i, vec![0])).collect(), budget);
        let straggling = c.next_for(NodeId(1)).unwrap().block;
        for _ in 0..3 {
            let s = c.next_for(NodeId(0)).unwrap();
            c.complete_split(NodeId(0), s.block);
        }
        std::thread::sleep(Duration::from_millis(2));
        (c, straggling)
    }

    #[test]
    fn idle_node_speculates_on_a_straggler() {
        let (c, straggling) = straggler_setup(4);
        let clone = c.next_for(NodeId(0)).unwrap();
        assert_eq!(clone.block, straggling);
        assert_eq!(c.speculation_report().launched, 1);
        // The same straggler is not cloned twice.
        assert!(c.next_for(NodeId(0)).is_none());
    }

    #[test]
    fn primary_finishing_first_cancels_the_clone() {
        let (c, straggling) = straggler_setup(4);
        let _clone = c.next_for(NodeId(0)).unwrap();
        c.complete_split(NodeId(1), straggling);
        // The clone's late completion is a stale no-op.
        c.complete_split(NodeId(0), straggling);
        let r = c.speculation_report();
        assert_eq!((r.launched, r.won, r.cancelled, r.failed), (1, 0, 1, 0));
        assert!(r.balanced());
        assert!(c.map_complete());
        assert!(c.is_superseded(NodeId(0), straggling));
        assert!(!c.is_superseded(NodeId(1), straggling));
    }

    #[test]
    fn clone_finishing_first_wins_the_race() {
        let (c, straggling) = straggler_setup(4);
        let _clone = c.next_for(NodeId(0)).unwrap();
        c.complete_split(NodeId(0), straggling);
        // The straggling primary's late completion is a stale no-op.
        c.complete_split(NodeId(1), straggling);
        let r = c.speculation_report();
        assert_eq!((r.launched, r.won, r.cancelled, r.failed), (1, 1, 0, 0));
        assert!(r.balanced());
        assert!(c.map_complete());
        assert!(c.is_superseded(NodeId(1), straggling));
    }

    #[test]
    fn clone_is_promoted_when_the_primary_dies() {
        let (c, straggling) = straggler_setup(4);
        let _clone = c.next_for(NodeId(0)).unwrap();
        std::thread::sleep(Duration::from_millis(10));
        c.heartbeat(NodeId(0));
        c.scan_liveness();
        assert!(c.is_dead(NodeId(1)));
        // The straggler is NOT requeued — the clone carries it.
        assert_eq!(c.remaining(), 0);
        assert_eq!(c.splits_rescheduled(), 0);
        c.complete_split(NodeId(0), straggling);
        let r = c.speculation_report();
        assert_eq!((r.launched, r.won, r.cancelled, r.failed), (1, 1, 0, 0));
        assert!(r.balanced());
        assert!(c.map_complete());
    }

    #[test]
    fn dead_speculator_counts_as_failed() {
        let (c, straggling) = straggler_setup(4);
        let _clone = c.next_for(NodeId(0)).unwrap();
        std::thread::sleep(Duration::from_millis(10));
        c.heartbeat(NodeId(1));
        c.scan_liveness();
        assert!(c.is_dead(NodeId(0)));
        // Node 0's own completed splits requeue; the straggler claim (node
        // 1's) survives with its clone gone.
        let r = c.speculation_report();
        assert_eq!((r.launched, r.won, r.cancelled, r.failed), (1, 0, 0, 1));
        assert!(r.balanced());
        c.complete_split(NodeId(1), straggling);
        assert!(!c.is_superseded(NodeId(1), straggling));
    }

    #[test]
    fn speculation_budget_is_enforced() {
        let c = speculative(3, (0..5).map(|i| split(i, vec![0])).collect(), 1);
        let a = c.next_for(NodeId(1)).unwrap().block;
        let b = c.next_for(NodeId(2)).unwrap().block;
        assert_ne!(a, b);
        for _ in 0..3 {
            let s = c.next_for(NodeId(0)).unwrap();
            c.complete_split(NodeId(0), s.block);
        }
        std::thread::sleep(Duration::from_millis(2));
        assert!(c.next_for(NodeId(0)).is_some(), "first clone within budget");
        assert!(c.next_for(NodeId(0)).is_none(), "budget of 1 exhausted");
        assert_eq!(c.speculation_report().launched, 1);
    }

    #[test]
    fn no_speculation_without_a_median_baseline() {
        let c = speculative(2, (0..2).map(|i| split(i, vec![0])).collect(), 4);
        let s = c.next_for(NodeId(1)).unwrap();
        let _ = s;
        let t = c.next_for(NodeId(0)).unwrap();
        c.complete_split(NodeId(0), t.block);
        std::thread::sleep(Duration::from_millis(2));
        // Only one completion recorded — below the 3-sample floor.
        assert!(c.next_for(NodeId(0)).is_none());
        assert_eq!(c.speculation_report().launched, 0);
    }

    #[test]
    fn a_fresh_coordinator_reports_no_faults() {
        let c = Coordinator::new(vec![split(0, vec![0])], 2, 2, Duration::from_secs(60), None);
        c.scan_liveness();
        assert!(!c.is_dead(NodeId(0)));
        assert_eq!(c.nodes_lost(), 0);
        assert_eq!(c.splits_rescheduled(), 0);
        assert!(!c.all_live_satisfied());
        assert_eq!(c.owner_of(5, 2), partition_owner(5, 2));
    }

    /// Node 1's map probe under `plan`.
    fn map_probe(plan: FaultPlan, unified_memory: bool) -> MapPipelineProbe {
        let chaos = NodeChaos {
            plan: Arc::new(plan),
            recovery: Arc::new(RecoveryState::new()),
            dead: Arc::new(AtomicBool::new(false)),
        };
        MapPipelineProbe {
            chaos,
            coordinator: Arc::new(coordinator(2, 2, Vec::new())),
            node: NodeId(1),
            unified_memory,
        }
    }

    /// The 0-based passage of `stage`'s thread on which the crash fires.
    fn fires_on(probe: &MapPipelineProbe, stage: StageId) -> Option<usize> {
        use gw_pipeline::PipelineProbe;
        (0..6).position(|_| probe.crash_fires(stage, 0))
    }

    /// Every site fires on exactly one thread of the graph, on the passage
    /// it was armed for: its own stage's, or — for Stage and Retrieve on a
    /// unified-memory node, whose graph lacks them — the next stage's.
    /// Kernel and Partition keep firing on their own third passage there,
    /// so asking about the absent site first costs their own site nothing.
    #[test]
    fn each_crash_site_fires_on_the_one_thread_that_passes_it() {
        for unified in [false, true] {
            for site in StageId::ALL {
                let front = match site {
                    StageId::Stage if unified => StageId::Kernel,
                    StageId::Retrieve if unified => StageId::Partition,
                    own => own,
                };
                let plan = FaultPlan::crash(1, CrashSite::for_map_stage(site), 2);
                let probe = map_probe(plan, unified);
                let absent = |s| unified && matches!(s, StageId::Stage | StageId::Retrieve);
                for thread in StageId::ALL {
                    if thread != front && !absent(thread) {
                        assert_eq!(fires_on(&probe, thread), None, "{site:?} on {thread:?}");
                    }
                }
                assert_eq!(fires_on(&probe, front), Some(2), "{site:?} on {front:?}");
            }
        }
    }
}
