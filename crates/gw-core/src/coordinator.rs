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
//!
//! All of it is one `CoordState` behind one lock. Its methods take the
//! time since the job epoch as `now` and never read a clock, so the
//! `checker` test module can drive them through every order of events.
//! [`Coordinator`] wraps it: it reads the clock, takes the lock, and once
//! the lock is released does what a state change asked of the world.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use gw_chaos::FaultPlan;
use gw_net::RunTag;
use gw_storage::split::FileStore;
use gw_storage::{InputSplit, NodeId};
use gw_trace::{LaneId, MarkId, Realm, Tracer};

use crate::config::SpeculationConfig;
use crate::hash::partition_owner;
use crate::EngineError;

/// Everything a node's pipelines need to participate in fault injection
/// and recovery. Every node carries one; a job run without a
/// [`FaultPlan`] carries an empty one, which injects nothing.
#[derive(Clone)]
pub struct NodeChaos {
    /// The job's fault schedule.
    pub plan: Arc<FaultPlan>,
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

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum SlotState {
    Pending,
    Claimed(u32),
    Complete(u32),
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Slot {
    split: InputSplit,
    state: SlotState,
    /// Node running a speculative clone of this split, racing the claimant.
    spec: Option<u32>,
    /// When the current claim was handed out (drives the straggler
    /// threshold).
    claimed_at: Option<Duration>,
}

/// Live state of the speculation controller (DESIGN.md §3.8): an idle node
/// that finds no pending split may instead clone the oldest outstanding
/// claim once it looks like a straggler. Clones race their primaries
/// first-finisher-wins; the run ledger and receiver de-dup make either
/// winner produce byte-identical output.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Speculation {
    cfg: SpeculationConfig,
    /// Completed-claim durations, sorted; the straggler threshold is a
    /// percentile of their median.
    durations: Vec<Duration>,
    last_launch: Option<Duration>,
    report: SpeculationReport,
}

/// Final speculation accounting for the job report. Invariant at job end:
/// `launched == won + cancelled + failed`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
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

/// Where [`Coordinator::route_run`] sends a freshly made run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Route {
    /// Into the local store: this node owns the partition and had not
    /// admitted the run yet.
    Keep,
    /// Nowhere: this node owns the partition and already holds the run.
    Discard,
    /// To the partition's owner.
    Ship(NodeId),
}

/// What a state change asks of the world once the lock is released.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
struct Outbox {
    /// Nodes newly declared dead: the store fails their reads over.
    dead: Vec<u32>,
    /// Speculation marks as `(node, block, outcome)`: no outcome for a
    /// launch.
    marks: Vec<(u32, usize, Option<&'static str>)>,
}

/// The coordinator's whole decision state: the split queue, the run
/// ledger, liveness and adoptions, every node's admitted runs,
/// speculation, and the fault counters.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct CoordState {
    nodes: u32,
    total_partitions: u32,
    node_timeout: Duration,
    slots: Vec<Slot>,
    /// Tags of every run produced so far.
    ledger: BTreeSet<RunTag>,
    /// Per node, the runs admitted into its intermediate store, so a run
    /// re-made by a re-executed split enters it at most once.
    admitted: Vec<BTreeSet<RunTag>>,
    /// Last heartbeat per node.
    beats: Vec<Duration>,
    /// Nodes declared dead.
    dead: Vec<bool>,
    /// Nodes whose shuffle is settled: they hold every run of their
    /// partitions. A death clears it, since it moves partitions.
    satisfied: Vec<bool>,
    /// Partition adoptions: global partition → live owner, for partitions
    /// whose hash owner died.
    adopted: BTreeMap<u32, u32>,
    spec: Option<Speculation>,
    aborted: bool,
    nodes_lost: usize,
    splits_rescheduled: usize,
    /// Count of the changes a waiting claim loop must look at.
    changes: u64,
    out: Outbox,
}

impl CoordState {
    fn new(
        splits: Vec<InputSplit>,
        nodes: u32,
        total_partitions: u32,
        node_timeout: Duration,
        speculation: SpeculationConfig,
    ) -> Self {
        let n = nodes as usize;
        CoordState {
            nodes,
            total_partitions,
            node_timeout,
            slots: splits
                .into_iter()
                .map(|split| Slot {
                    split,
                    state: SlotState::Pending,
                    spec: None,
                    claimed_at: None,
                })
                .collect(),
            ledger: BTreeSet::new(),
            admitted: vec![BTreeSet::new(); n],
            beats: vec![Duration::ZERO; n],
            dead: vec![false; n],
            satisfied: vec![false; n],
            adopted: BTreeMap::new(),
            spec: speculation.enabled.then(|| Speculation {
                cfg: speculation,
                durations: Vec::new(),
                last_launch: None,
                report: SpeculationReport::default(),
            }),
            aborted: false,
            nodes_lost: 0,
            splits_rescheduled: 0,
            changes: 0,
            out: Outbox::default(),
        }
    }

    fn wake(&mut self) {
        self.changes += 1;
    }

    /// Claim the next split for `node`: local-first, then any, then a
    /// clone of a straggling claim. A node declared dead claims nothing:
    /// its claims were requeued once, at the declaration, and a claim it
    /// took now would never be requeued again.
    fn claim(&mut self, node: u32, now: Duration) -> Option<InputSplit> {
        if self.dead[node as usize] {
            return None;
        }
        let pending = |s: &Slot| s.state == SlotState::Pending;
        let idx = self
            .slots
            .iter()
            .position(|s| pending(s) && s.split.is_local_to(NodeId(node)))
            .or_else(|| self.slots.iter().position(pending));
        let Some(idx) = idx else {
            return self.speculate(node, now);
        };
        let slot = &mut self.slots[idx];
        slot.state = SlotState::Claimed(node);
        slot.claimed_at = Some(now);
        slot.spec = None;
        Some(slot.split.clone())
    }

    /// Clone, for `node`, the oldest outstanding claim that crossed the
    /// straggler threshold.
    fn speculate(&mut self, node: u32, now: Duration) -> Option<InputSplit> {
        let spec = self.spec.as_mut()?;
        let backing_off = spec
            .last_launch
            .is_some_and(|at| now.saturating_sub(at) < spec.cfg.backoff);
        // The threshold is a percentile of the median completed-claim
        // duration; with fewer than 3 completions there is no meaningful
        // baseline yet.
        if spec.report.launched >= spec.cfg.budget || backing_off || spec.durations.len() < 3 {
            return None;
        }
        let median = spec.durations[spec.durations.len() / 2];
        let threshold = (median * spec.cfg.threshold_pct / 100).max(spec.cfg.min_runtime);
        let age = |s: &Slot| s.claimed_at.map(|t| now.saturating_sub(t));
        let dead = &self.dead;
        let slot = self
            .slots
            .iter_mut()
            .filter(|s| match s.state {
                SlotState::Claimed(c) => {
                    c != node
                        && s.spec.is_none()
                        && !dead[c as usize]
                        && age(s).is_some_and(|a| a > threshold)
                }
                _ => false,
            })
            .max_by_key(|s| age(s))?;
        slot.spec = Some(node);
        spec.report.launched += 1;
        spec.last_launch = Some(now);
        self.out.marks.push((node, slot.split.block, None));
        Some(slot.split.clone())
    }

    /// Count a speculation outcome on `node`'s coordinator lane.
    fn resolve(&mut self, node: u32, block: usize, outcome: &'static str) {
        let Some(spec) = &mut self.spec else {
            return;
        };
        match outcome {
            "won" => spec.report.won += 1,
            "cancelled" => spec.report.cancelled += 1,
            _ => spec.report.failed += 1,
        }
        self.out.marks.push((node, block, Some(outcome)));
    }

    /// `node` fully processed the split for `block`. Resolves a
    /// speculation race first-finisher-wins; a no-op if the claim was
    /// revoked meanwhile or another attempt already completed the split.
    fn complete(&mut self, node: u32, block: usize, now: Duration) {
        let Some(slot) = self.slots.iter_mut().find(|s| {
            s.split.block == block
                && match s.state {
                    SlotState::Claimed(c) => c == node || s.spec == Some(node),
                    _ => false,
                }
        }) else {
            return;
        };
        let age = slot.claimed_at.map(|t| now.saturating_sub(t));
        let primary = slot.state == SlotState::Claimed(node);
        let clone = slot.spec.take();
        slot.state = SlotState::Complete(node);
        match clone {
            // The primary finished first: cancel the outstanding clone.
            Some(s) if primary => self.resolve(s, block, "cancelled"),
            // The clone beat a still-live primary.
            Some(_) => self.resolve(node, block, "won"),
            None => {}
        }
        if let (Some(spec), Some(age)) = (&mut self.spec, age) {
            let at = spec.durations.partition_point(|&d| d <= age);
            spec.durations.insert(at, age);
        }
        self.wake();
    }

    fn superseded(&self, node: u32, block: usize) -> bool {
        self.spec.is_some()
            && self.slots.iter().any(|s| {
                s.split.block == block && matches!(s.state, SlotState::Complete(x) if x != node)
            })
    }

    fn map_complete(&self) -> bool {
        self.slots
            .iter()
            .all(|s| matches!(s.state, SlotState::Complete(_)))
    }

    /// Declare every node whose last beat is older than `node_timeout`
    /// dead. Once every live node's shuffle is settled, membership is
    /// final and this declares nobody: the input stages have left their
    /// claim loops, so a split requeued then would have no claimant.
    fn scan(&mut self, now: Duration) {
        if self.all_satisfied() {
            return;
        }
        for node in 0..self.nodes {
            let silent = now.saturating_sub(self.beats[node as usize]);
            if !self.dead[node as usize] && silent > self.node_timeout {
                self.mark_dead(node, now);
            }
        }
    }

    fn mark_dead(&mut self, node: u32, now: Duration) {
        if std::mem::replace(&mut self.dead[node as usize], true) {
            return;
        }
        // The adopter of the dead node's partitions lacks their runs, and
        // requeued splits re-make runs: every node settles again.
        self.satisfied.fill(false);
        self.nodes_lost += 1;

        // Requeue everything the dead node claimed or completed: its local
        // shuffle state (runs it produced for itself, runs it received) is
        // gone, so its completed splits must be re-executed too.
        for i in 0..self.slots.len() {
            let slot = &mut self.slots[i];
            let block = slot.split.block;
            match slot.state {
                SlotState::Claimed(x) if x == node => match slot.spec.take() {
                    // A live clone is mid-flight: promote it to primary
                    // instead of requeueing — it won the race against its
                    // dead primary.
                    Some(s) => {
                        slot.state = SlotState::Claimed(s);
                        slot.claimed_at = Some(now);
                        self.resolve(s, block, "won");
                    }
                    None => {
                        slot.state = SlotState::Pending;
                        slot.claimed_at = None;
                        self.splits_rescheduled += 1;
                    }
                },
                SlotState::Complete(x) if x == node => {
                    slot.state = SlotState::Pending;
                    slot.claimed_at = None;
                    self.splits_rescheduled += 1;
                }
                SlotState::Claimed(_) if slot.spec == Some(node) => {
                    // The speculating node died; the primary races on
                    // alone.
                    slot.spec = None;
                    self.resolve(node, block, "failed");
                }
                _ => {}
            }
        }

        // Adopt the dead node's partitions onto the next live node on the
        // ring after it.
        let adopter = (1..self.nodes)
            .map(|d| (node + d) % self.nodes)
            .find(|&cand| !self.dead[cand as usize]);
        if let Some(adopter) = adopter {
            for gp in 0..self.total_partitions {
                if self.owner(gp) == node {
                    self.adopted.insert(gp, adopter);
                }
            }
        }
        self.out.dead.push(node);
        self.wake();
    }

    fn owner(&self, partition: u32) -> u32 {
        self.adopted
            .get(&partition)
            .copied()
            .unwrap_or_else(|| partition_owner(partition, self.nodes))
    }

    /// Enter run `tag`, made on `node`, in the ledger and say where it
    /// goes.
    fn route(&mut self, node: u32, tag: RunTag) -> Route {
        self.ledger.insert(tag);
        match self.owner(tag.partition) {
            owner if owner != node => Route::Ship(NodeId(owner)),
            _ if self.admit(node, tag) => Route::Keep,
            _ => Route::Discard,
        }
    }

    fn admit(&mut self, node: u32, tag: RunTag) -> bool {
        self.admitted[node as usize].insert(tag)
    }

    /// Judge `node`'s shuffle (see [`Coordinator::settle_shuffle`]):
    /// `true` once it holds every ledger run of its partitions. Lost runs
    /// requeue their splits; no verdict while the map is incomplete.
    fn settle(&mut self, node: u32) -> bool {
        if self.satisfied[node as usize] {
            return true;
        }
        if !self.map_complete() {
            return false;
        }
        let held = &self.admitted[node as usize];
        let lost: BTreeSet<usize> = self
            .ledger
            .iter()
            .filter(|tag| !held.contains(tag) && self.owner(tag.partition) == node)
            .map(|tag| tag.block as usize)
            .collect();
        if lost.is_empty() {
            self.satisfied[node as usize] = true;
            self.wake();
            return true;
        }
        self.requeue(&lost);
        false
    }

    /// Re-make lost runs: every `Complete` split of `blocks` goes back to
    /// `Pending` for any live node to re-run, and counts as rescheduled.
    /// `Pending` and `Claimed` splits are left as they are — their next
    /// completion re-makes the runs anyway — so a repeated call changes
    /// nothing.
    fn requeue(&mut self, blocks: &BTreeSet<usize>) {
        for slot in &mut self.slots {
            if blocks.contains(&slot.split.block) && matches!(slot.state, SlotState::Complete(_)) {
                slot.state = SlotState::Pending;
                slot.claimed_at = None;
                self.splits_rescheduled += 1;
            }
        }
        self.wake();
    }

    fn all_satisfied(&self) -> bool {
        (0..self.nodes as usize).all(|n| self.dead[n] || self.satisfied[n])
    }
}

/// The longest a claim loop waits without a wakeup: time alone can make a
/// split claimable (a claim ages into a straggler), and a node's own kill
/// flag wakes nobody.
const CLAIM_WAIT: Duration = Duration::from_millis(2);

/// Shared split queue with locality preference and the cluster's
/// liveness/recovery state: one `CoordState` behind one lock.
pub struct Coordinator {
    state: Mutex<CoordState>,
    /// Notified after every change that bumped `CoordState::changes`.
    changed: Condvar,
    /// The job epoch: the instant of the first clock read.
    epoch: OnceLock<Instant>,
    store: Option<Arc<dyn FileStore>>,
    tracer: Option<Arc<Tracer>>,
}

impl Coordinator {
    /// Create a coordinator over the splits of an `nodes`-node job with
    /// `total_partitions` global partitions, declaring a node dead once
    /// its last heartbeat is older than `node_timeout`. `store`, when
    /// given, is told about node deaths so DFS reads fail over to
    /// surviving replicas. `speculation` arms the straggler controller
    /// when enabled, and `tracer` receives its `spec-launched` /
    /// `spec-resolved` marks on the speculating node's coordinator lane.
    pub fn new(
        splits: Vec<InputSplit>,
        nodes: u32,
        total_partitions: u32,
        node_timeout: Duration,
        store: Option<Arc<dyn FileStore>>,
        speculation: SpeculationConfig,
        tracer: Option<Arc<Tracer>>,
    ) -> Self {
        Coordinator {
            state: Mutex::new(CoordState::new(
                splits,
                nodes,
                total_partitions,
                node_timeout,
                speculation,
            )),
            changed: Condvar::new(),
            epoch: OnceLock::new(),
            store,
            tracer,
        }
    }

    /// Time since the job epoch: the coordinator's one clock read.
    fn now(&self) -> Duration {
        let now = Instant::now();
        now - *self.epoch.get_or_init(|| now)
    }

    /// Run one state method under the lock, then do what it asked: tell
    /// the store about deaths, emit speculation marks, wake claim loops.
    fn with<R>(&self, f: impl FnOnce(&mut CoordState, Duration) -> R) -> R {
        let (r, out, woke) = {
            let mut st = self.state.lock();
            let changes = st.changes;
            let r = f(&mut st, self.now());
            (r, std::mem::take(&mut st.out), st.changes != changes)
        };
        if let Some(store) = &self.store {
            for &node in &out.dead {
                store.mark_node_dead(NodeId(node));
            }
        }
        if let Some(t) = &self.tracer {
            for (node, block, outcome) in out.marks {
                let block = block as u64;
                t.lane(spec_lane(node)).instant(match outcome {
                    None => MarkId::SpecLaunched { block },
                    Some(outcome) => MarkId::SpecResolved { block, outcome },
                });
            }
        }
        if woke {
            self.changed.notify_all();
        }
        r
    }

    /// Claim the next split for `node`: local-first, then any. With
    /// speculation armed and no pending work left, a node may instead be
    /// handed a clone of a straggling claim. A node declared dead gets
    /// nothing.
    pub fn next_for(&self, node: NodeId) -> Option<InputSplit> {
        self.with(|st, now| st.claim(node.0, now))
    }

    /// Record that `node` fully processed the split for `block`: all its
    /// runs are recorded in the ledger and delivered. Resolves
    /// a speculation race first-finisher-wins. No-op if the claim was
    /// revoked in the meantime (the claimant was declared dead and the
    /// split requeued) or another attempt already completed the split.
    pub fn complete_split(&self, node: NodeId, block: usize) {
        self.with(|st, now| st.complete(node.0, block, now));
    }

    /// Whether another attempt already completed the split for `block`:
    /// `node`'s in-flight work on it is waste and its kernel launch can be
    /// skipped (the run ledger and de-dup discard its output anyway).
    pub fn is_superseded(&self, node: NodeId, block: usize) -> bool {
        self.state.lock().superseded(node.0, block)
    }

    /// Final speculation accounting for the job report.
    pub fn speculation_report(&self) -> SpeculationReport {
        let st = self.state.lock();
        st.spec.as_ref().map(|s| s.report).unwrap_or_default()
    }

    /// Whether every split has been fully processed by a (still-credited)
    /// node. Reverts to `false` when a split requeues: its completer died,
    /// or a run it produced was lost.
    pub fn map_complete(&self) -> bool {
        self.state.lock().map_complete()
    }

    /// Post a liveness heartbeat for `node`, and say whether it is still
    /// in the job: not `crashed` (its own kill flag), not declared dead,
    /// and the job not aborted.
    pub fn heartbeat(&self, node: NodeId, crashed: bool) -> Result<(), EngineError> {
        let mut st = self.state.lock();
        st.beats[node.0 as usize] = self.now();
        if crashed || st.dead[node.0 as usize] {
            Err(EngineError::NodeLost(format!(
                "node {node} lost during the shuffle"
            )))
        } else if st.aborted {
            Err(EngineError::NodeLost("job aborted".into()))
        } else {
            Ok(())
        }
    }

    /// Declare any node whose last heartbeat is older than `node_timeout`
    /// dead, requeueing its splits and adopting its partitions. Cheap when
    /// nothing changed; any wait loop may call it. Once every live node's
    /// shuffle is settled it declares nobody.
    pub fn scan_liveness(&self) {
        self.with(CoordState::scan);
    }

    /// Whether `node` has been declared dead.
    pub fn is_dead(&self, node: NodeId) -> bool {
        self.state.lock().dead[node.0 as usize]
    }

    /// Current live owner of global `partition` (hash owner unless the
    /// partition was adopted after a death).
    pub fn owner_of(&self, partition: u32) -> u32 {
        self.state.lock().owner(partition)
    }

    /// Enter run `tag`, made on `node`, in the ledger — before it is
    /// sent, so the ledger never misses a run a receiver might lack — and
    /// say where it goes: kept if `node` owns its partition and had not
    /// admitted it yet, discarded if it had, else shipped to the owner.
    pub(crate) fn route_run(&self, node: NodeId, tag: RunTag) -> Route {
        self.state.lock().route(node.0, tag)
    }

    /// Admit run `tag` into `node`'s store. Returns `false` if an
    /// identical run was already admitted (duplicate delivery or
    /// re-execution).
    pub fn admit(&self, node: NodeId, tag: RunTag) -> bool {
        self.state.lock().admit(node.0, tag)
    }

    /// Judge `node`'s shuffle, and return whether every live node's
    /// shuffle is now settled. Call it only after seeing
    /// [`Coordinator::map_complete`] and then draining the node's inbox:
    /// a run is in the ledger before it is sent, and in its owner's inbox
    /// before its split completes, so a ledger run of `node`'s partitions
    /// that it has not admitted is lost. Owed nothing, `node` is settled;
    /// otherwise the splits of the lost runs are requeued for
    /// re-execution. No verdict while the map is incomplete.
    pub fn settle_shuffle(&self, node: NodeId) -> bool {
        self.with(|st, _| st.settle(node.0) && st.all_satisfied())
    }

    /// Whether every live node's shuffle is settled. Once it holds it
    /// holds for good ([`Coordinator::scan_liveness`] declares nobody
    /// dead after it), and the map phase ends.
    pub fn all_live_satisfied(&self) -> bool {
        self.state.lock().all_satisfied()
    }

    /// Changes seen so far; hand it to [`Coordinator::wait_for_change`]
    /// after looking for work.
    pub fn changes(&self) -> u64 {
        self.state.lock().changes
    }

    /// Wait until something changed after `seen` — a requeue, completion,
    /// settlement, death or abort — or for at most 2 ms (`CLAIM_WAIT`).
    pub fn wait_for_change(&self, seen: u64) {
        let mut st = self.state.lock();
        if st.changes == seen {
            self.changed.wait_for(&mut st, CLAIM_WAIT);
        }
    }

    /// Abort the job: every wait loop unwinds at its next check.
    pub fn abort(&self) {
        self.with(|st, _| {
            st.aborted = true;
            st.wake();
        });
    }

    /// Whether the job has been aborted.
    pub fn aborted(&self) -> bool {
        self.state.lock().aborted
    }

    /// Nodes declared dead during the job.
    pub fn nodes_lost(&self) -> usize {
        self.state.lock().nodes_lost
    }

    /// Splits requeued for re-execution: because their node died (claimed
    /// and completed), or because a run they produced was lost.
    pub fn splits_rescheduled(&self) -> usize {
        self.state.lock().splits_rescheduled
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

    /// Nodes are declared dead 5 ms after their last heartbeat.
    const TIMEOUT: Duration = Duration::from_millis(5);
    /// Late enough that a node silent since the epoch is stale.
    const LATE: Duration = Duration::from_millis(10);

    fn state(nodes: u32, parts: u32, splits: Vec<InputSplit>) -> CoordState {
        CoordState::new(splits, nodes, parts, TIMEOUT, SpeculationConfig::default())
    }

    fn coordinator(nodes: u32, parts: u32, splits: Vec<InputSplit>) -> Coordinator {
        let spec = SpeculationConfig::default();
        Coordinator::new(splits, nodes, parts, TIMEOUT, None, spec, None)
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

    /// Splits nobody holds (requeued splits count again).
    fn pending(st: &CoordState) -> usize {
        st.slots
            .iter()
            .filter(|s| s.state == SlotState::Pending)
            .count()
    }

    /// `survivors` beat at `now` and a scan runs: every other node that
    /// has not beaten since the epoch is declared dead.
    fn silence_all_but(st: &mut CoordState, survivors: &[u32], now: Duration) {
        for &n in survivors {
            st.beats[n as usize] = now;
        }
        st.scan(now);
    }

    #[test]
    fn prefers_local_splits() {
        let mut st = state(
            2,
            2,
            vec![split(0, vec![1]), split(1, vec![0]), split(2, vec![1])],
        );
        let first = st.claim(0, Duration::ZERO).unwrap();
        assert_eq!(first.block, 1, "node 0 should get its local split first");
        assert_eq!(pending(&st), 2);
    }

    #[test]
    fn falls_back_to_remote_work() {
        let mut st = state(2, 2, vec![split(0, vec![1]), split(1, vec![1])]);
        assert!(st.claim(0, Duration::ZERO).is_some());
        assert!(st.claim(0, Duration::ZERO).is_some());
        assert!(st.claim(0, Duration::ZERO).is_none());
    }

    #[test]
    fn every_split_is_handed_out_exactly_once() {
        let mut st = state(
            4,
            4,
            (0..20).map(|i| split(i, vec![(i % 4) as u32])).collect(),
        );
        let mut seen = Vec::new();
        let mut turn = 0u32;
        while let Some(s) = st.claim(turn % 4, Duration::ZERO) {
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
        let mut st = state(
            2,
            2,
            (0..4).map(|i| split(i, vec![(i % 2) as u32])).collect(),
        );
        // Node 1 claims two splits and completes one.
        let a = st.claim(1, Duration::ZERO).unwrap();
        let _b = st.claim(1, Duration::ZERO).unwrap();
        st.complete(1, a.block, Duration::ZERO);
        assert_eq!(pending(&st), 2);

        // Node 1 stops heartbeating; node 0 stays alive.
        silence_all_but(&mut st, &[0], LATE);
        assert!(st.dead[1]);
        assert!(!st.dead[0]);
        assert_eq!(st.nodes_lost, 1);
        assert_eq!(st.out.dead, [1], "the store is told once");
        // Both its splits — claimed AND completed — are pending again.
        assert_eq!(st.splits_rescheduled, 2);
        assert_eq!(pending(&st), 4);
        assert!(!st.map_complete());

        // The survivor can claim and finish everything.
        let mut done = 0;
        while let Some(s) = st.claim(0, LATE) {
            st.complete(0, s.block, LATE);
            done += 1;
        }
        assert_eq!(done, 4);
        assert!(st.map_complete());
        // Scanning again does not double-count the same death.
        silence_all_but(&mut st, &[0], LATE * 2);
        assert_eq!(st.nodes_lost, 1);
    }

    /// A node's liveness check and its claim are two calls: a death
    /// declared between them requeues its splits once, so the claim must
    /// hand the dead node nothing, or its split would stay claimed by a
    /// node that never completes it and the map could never complete.
    #[test]
    fn a_node_declared_dead_claims_nothing() {
        let mut st = state(2, 2, (0..2).map(|i| split(i, vec![1])).collect());
        st.claim(1, Duration::ZERO).unwrap();
        silence_all_but(&mut st, &[0], LATE);
        assert_eq!(pending(&st), 2);
        assert!(st.claim(1, LATE).is_none(), "a dead node claimed a split");
        assert_eq!(pending(&st), 2);
        while let Some(s) = st.claim(0, LATE) {
            st.complete(0, s.block, LATE);
        }
        assert!(st.map_complete());
    }

    #[test]
    fn dead_nodes_partitions_are_adopted_by_the_ring() {
        let mut st = state(4, 8, vec![split(0, vec![0])]);
        for n in 0..4 {
            assert_eq!(st.owner(n), n, "hash owners before any death");
        }
        silence_all_but(&mut st, &[0, 2, 3], LATE);
        assert!(st.dead[1]);
        // Node 1 owned global partitions 1 and 5; node 2 adopts both.
        assert_eq!(st.owner(1), 2);
        assert_eq!(st.owner(5), 2);
        // Other owners unchanged.
        assert_eq!(st.owner(0), 0);
        assert_eq!(st.owner(2), 2);
        assert_eq!(st.owner(7), 3);
    }

    fn tag(partition: u32, block: u32, lane: u32) -> RunTag {
        RunTag {
            partition,
            block,
            lane,
        }
    }

    /// Claim and complete every split on `node`.
    fn map_everything(st: &mut CoordState, node: u32) {
        while let Some(s) = st.claim(node, Duration::ZERO) {
            st.complete(node, s.block, Duration::ZERO);
        }
    }

    /// A run made on `node` goes where its partition's owner is; the
    /// owner keeps it once.
    #[test]
    fn a_run_is_kept_by_its_owner_once_and_shipped_otherwise() {
        let mut st = state(2, 4, vec![split(0, vec![0])]);
        assert_eq!(st.route(0, tag(1, 0, 0)), Route::Ship(NodeId(1)));
        assert_eq!(st.route(0, tag(2, 0, 0)), Route::Keep);
        assert_eq!(st.route(0, tag(2, 0, 0)), Route::Discard);
        assert_eq!(st.ledger.len(), 2);
        assert!(st.admit(1, tag(1, 0, 0)) && !st.admit(1, tag(1, 0, 0)));
    }

    /// A node that lacks a ledger run of its partitions once the map is
    /// complete has that run's split requeued; each partitioning worker's
    /// run counts on its own, and a node holding them all is satisfied.
    #[test]
    fn settling_requeues_the_split_of_a_lost_run() {
        let mut st = state(2, 2, vec![split(0, vec![0]), split(1, vec![1])]);
        // Block 0 built runs for both partitions, block 1 two workers' runs
        // for partition 0, which node 0 owns.
        for t in [tag(0, 0, 0), tag(1, 0, 0), tag(0, 1, 0), tag(0, 1, 1)] {
            st.ledger.insert(t);
        }
        // No verdict while the map runs.
        assert!(!st.settle(0));
        map_everything(&mut st, 0);
        assert!(st.admit(0, tag(0, 0, 0)) && st.admit(0, tag(0, 1, 0)));

        // Block 1's second worker's run is lost: block 1, and only it,
        // re-runs.
        assert!(!st.settle(0));
        assert_eq!(st.splits_rescheduled, 1);
        assert!(!st.map_complete());
        let again = st.claim(1, Duration::ZERO).unwrap();
        assert_eq!(again.block, 1);
        assert!(st.claim(1, Duration::ZERO).is_none());

        // The re-run re-makes the run under the same tag.
        st.ledger.insert(tag(0, 1, 1));
        assert!(st.admit(0, tag(0, 1, 1)));
        st.complete(1, again.block, Duration::ZERO);
        assert!(st.settle(0));
        assert!(!st.all_satisfied(), "node 1 has not settled");
        // Node 1 owns partition 1 and admitted block 0's run for it.
        assert!(st.admit(1, tag(1, 0, 0)));
        assert!(st.settle(1));
        assert!(st.all_satisfied());
        assert_eq!(st.splits_rescheduled, 1);
    }

    /// Only a `Complete` split goes back to the queue: a `Pending` or
    /// `Claimed` one re-makes its runs anyway, so requeueing is idempotent.
    #[test]
    fn requeueing_a_lost_run_moves_only_its_complete_split() {
        let mut st = state(2, 2, (0..3).map(|i| split(i, vec![0])).collect());
        let done = st.claim(0, Duration::ZERO).unwrap();
        st.complete(0, done.block, Duration::ZERO);
        let claimed = st.claim(1, Duration::ZERO).unwrap();
        assert_eq!((done.block, claimed.block, pending(&st)), (0, 1, 1));

        // Lost runs of the claimed and the pending split change nothing.
        let blocks = |b: &[usize]| b.iter().copied().collect::<BTreeSet<_>>();
        st.requeue(&blocks(&[1, 2]));
        st.requeue(&blocks(&[1, 2]));
        assert_eq!((st.splits_rescheduled, pending(&st)), (0, 1));

        // The complete split requeues once; a second call finds it
        // pending.
        st.requeue(&blocks(&[0]));
        st.requeue(&blocks(&[0]));
        assert_eq!((st.splits_rescheduled, pending(&st)), (1, 2));

        // The claim was left alone: its completion still counts, and the
        // map is complete only once the requeued split re-runs too.
        st.complete(1, claimed.block, Duration::ZERO);
        assert!(!st.map_complete());
        map_everything(&mut st, 0);
        assert!(st.map_complete());
    }

    /// A node declared dead after its peers settled hands its partitions
    /// to one of them, which must then settle again: it lacks the runs of
    /// the partitions it adopted.
    #[test]
    fn a_death_unsettles_the_node_that_adopts_its_partitions() {
        let mut st = state(3, 3, vec![split(0, vec![0])]);
        // Block 0 made a run for partition 2, which node 2 owns.
        st.ledger.insert(tag(2, 0, 0));
        map_everything(&mut st, 0);
        assert!(st.settle(0));
        assert!(st.settle(1));
        assert!(!st.all_satisfied(), "node 2 has not settled");

        silence_all_but(&mut st, &[0, 1], LATE);
        assert!(st.dead[2]);
        assert_eq!(st.owner(2), 0, "node 0 adopts partition 2");
        assert!(!st.all_satisfied());

        // Node 0 lacks the adopted partition's run: its split re-runs.
        assert!(!st.settle(0));
        assert_eq!(st.splits_rescheduled, 1);
        assert!(!st.map_complete());
    }

    #[test]
    fn shuffle_satisfaction_ignores_the_dead() {
        let mut st = state(3, 3, vec![split(0, vec![0])]);
        map_everything(&mut st, 0);
        assert!(!st.all_satisfied());
        assert!(st.settle(0));
        assert!(st.settle(2));
        assert!(!st.all_satisfied(), "node 1 not satisfied, not dead");
        silence_all_but(&mut st, &[0, 2], LATE);
        // The survivors settle again; the dead node never has to.
        assert!(!st.all_satisfied());
        assert!(st.settle(0));
        assert!(st.settle(2));
        assert!(st.all_satisfied());

        // Settled for good: nobody is declared dead any more.
        st.scan(LATE * 10);
        assert_eq!(st.nodes_lost, 1);
        assert!(st.all_satisfied());
    }

    /// Requeues, completions, settlements, deaths and aborts each wake a
    /// waiting claim loop; a wait on an unchanged count returns on its own.
    #[test]
    fn every_wakeup_source_bumps_the_change_count() {
        let mut st = state(2, 2, vec![split(0, vec![0])]);
        let mut seen = st.changes;
        let mut bumped = |st: &CoordState, what: &str| {
            assert!(st.changes > seen, "{what} woke nobody");
            seen = st.changes;
        };
        map_everything(&mut st, 0);
        bumped(&st, "completion");
        st.requeue(&BTreeSet::from([0]));
        bumped(&st, "requeue");
        map_everything(&mut st, 0);
        bumped(&st, "re-run");
        assert!(st.settle(0));
        bumped(&st, "settlement");
        silence_all_but(&mut st, &[0], LATE);
        bumped(&st, "death");

        let c = coordinator(2, 2, vec![split(0, vec![0])]);
        let seen = c.changes();
        c.abort();
        assert!(c.changes() > seen, "abort woke nobody");
        c.wait_for_change(c.changes());
    }

    fn speculative(nodes: u32, splits: Vec<InputSplit>, budget: usize) -> CoordState {
        let spec = SpeculationConfig {
            enabled: true,
            threshold_pct: 100,
            min_runtime: Duration::ZERO,
            budget,
            backoff: Duration::ZERO,
        };
        CoordState::new(splits, nodes, nodes, TIMEOUT, spec)
    }

    /// Straggler age: any claim this old has outlived the instant claims
    /// of `straggler_setup`.
    const AGED: Duration = Duration::from_millis(2);

    /// Node 0 completes three splits instantly (establishing the median),
    /// node 1 sits on one claim until `AGED`.
    fn straggler_setup(budget: usize) -> (CoordState, usize) {
        let mut st = speculative(2, (0..4).map(|i| split(i, vec![0])).collect(), budget);
        let straggling = st.claim(1, Duration::ZERO).unwrap().block;
        for _ in 0..3 {
            let s = st.claim(0, Duration::ZERO).unwrap();
            st.complete(0, s.block, Duration::ZERO);
        }
        (st, straggling)
    }

    fn report(st: &CoordState) -> (usize, usize, usize, usize) {
        let r = st.spec.as_ref().unwrap().report;
        (r.launched, r.won, r.cancelled, r.failed)
    }

    #[test]
    fn idle_node_speculates_on_a_straggler() {
        let (mut st, straggling) = straggler_setup(4);
        assert!(st.claim(0, Duration::ZERO).is_none(), "not yet a straggler");
        let clone = st.claim(0, AGED).unwrap();
        assert_eq!(clone.block, straggling);
        assert_eq!(report(&st).0, 1);
        assert_eq!(st.out.marks, [(0, straggling, None)]);
        // The same straggler is not cloned twice.
        assert!(st.claim(0, AGED).is_none());
    }

    #[test]
    fn primary_finishing_first_cancels_the_clone() {
        let (mut st, straggling) = straggler_setup(4);
        let _clone = st.claim(0, AGED).unwrap();
        st.complete(1, straggling, AGED);
        // The clone's late completion is a stale no-op.
        st.complete(0, straggling, AGED);
        assert_eq!(report(&st), (1, 0, 1, 0));
        assert_eq!(st.out.marks[1], (0, straggling, Some("cancelled")));
        assert!(st.map_complete());
        assert!(st.superseded(0, straggling));
        assert!(!st.superseded(1, straggling));
    }

    #[test]
    fn clone_finishing_first_wins_the_race() {
        let (mut st, straggling) = straggler_setup(4);
        let _clone = st.claim(0, AGED).unwrap();
        st.complete(0, straggling, AGED);
        // The straggling primary's late completion is a stale no-op.
        st.complete(1, straggling, AGED);
        assert_eq!(report(&st), (1, 1, 0, 0));
        assert!(st.map_complete());
        assert!(st.superseded(1, straggling));
    }

    #[test]
    fn clone_is_promoted_when_the_primary_dies() {
        let (mut st, straggling) = straggler_setup(4);
        let _clone = st.claim(0, AGED).unwrap();
        silence_all_but(&mut st, &[0], LATE);
        assert!(st.dead[1]);
        // The straggler is NOT requeued — the clone carries it.
        assert_eq!(pending(&st), 0);
        assert_eq!(st.splits_rescheduled, 0);
        st.complete(0, straggling, LATE);
        assert_eq!(report(&st), (1, 1, 0, 0));
        assert!(st.map_complete());
    }

    #[test]
    fn dead_speculator_counts_as_failed() {
        let (mut st, straggling) = straggler_setup(4);
        let _clone = st.claim(0, AGED).unwrap();
        silence_all_but(&mut st, &[1], LATE);
        assert!(st.dead[0]);
        // Node 0's own completed splits requeue; the straggler claim (node
        // 1's) survives with its clone gone.
        assert_eq!(report(&st), (1, 0, 0, 1));
        st.complete(1, straggling, LATE);
        assert!(!st.superseded(1, straggling));
    }

    #[test]
    fn speculation_budget_is_enforced() {
        let mut st = speculative(3, (0..5).map(|i| split(i, vec![0])).collect(), 1);
        let a = st.claim(1, Duration::ZERO).unwrap().block;
        let b = st.claim(2, Duration::ZERO).unwrap().block;
        assert_ne!(a, b);
        map_everything(&mut st, 0);
        assert!(st.claim(0, AGED).is_some(), "first clone within budget");
        assert!(st.claim(0, AGED).is_none(), "budget of 1 exhausted");
        assert_eq!(report(&st).0, 1);
    }

    #[test]
    fn no_speculation_without_a_median_baseline() {
        let mut st = speculative(2, (0..2).map(|i| split(i, vec![0])).collect(), 4);
        st.claim(1, Duration::ZERO).unwrap();
        map_everything(&mut st, 0);
        // Only one completion recorded — below the 3-sample floor.
        assert!(st.claim(0, AGED).is_none());
        assert_eq!(report(&st).0, 0);
    }

    #[test]
    fn a_fresh_coordinator_reports_no_faults() {
        let spec = SpeculationConfig::default();
        let c = Coordinator::new(
            vec![split(0, vec![0])],
            2,
            2,
            Duration::from_secs(60),
            None,
            spec,
            None,
        );
        c.scan_liveness();
        assert!(!c.is_dead(NodeId(0)));
        assert!(c.heartbeat(NodeId(0), false).is_ok());
        assert_eq!(c.nodes_lost(), 0);
        assert_eq!(c.splits_rescheduled(), 0);
        assert!(!c.all_live_satisfied());
        assert_eq!(c.owner_of(5), partition_owner(5, 2));
        assert_eq!(c.speculation_report(), SpeculationReport::default());
    }

    /// Node 1's map probe under `plan`.
    fn map_probe(plan: FaultPlan, unified_memory: bool) -> MapPipelineProbe {
        let chaos = NodeChaos {
            plan: Arc::new(plan),
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

/// An exhaustive check of the recovery protocol: a breadth-first search,
/// with state hashing, over every order of the events a small job can
/// see, driving [`CoordState`] directly.
///
/// The model. Split `b` is local to node `b mod nodes` and makes one run
/// for each of partitions `b` and `b + 1` (mod `2 × nodes`). Each node has
/// an input lane that claims a split when it holds none, routes its runs
/// one at a time and then completes it (the first step skips a superseded
/// split); an inbox; and a receiver that, once the map is complete, drains
/// the inbox and asks for a verdict. Within bounds the
/// environment may:
/// * declare a node dead: time jumps past `node_timeout`, every other
///   running node beats, and a scan runs. A declaration can be a false
///   positive from a stall, so the node keeps acting until it notices;
/// * crash a node that holds work: it stops and loses its inbox, and only
///   a declaration recovers its work;
/// * drop a message from an inbox;
/// * let time tick, which ages a claim into a straggler.
///
/// A receiver's drain and its verdict are one step here. In the engine
/// they are two calls, and a run that lands between them only makes the
/// verdict requeue its split once more: a re-make that admission de-dups.
///
/// The properties:
/// * no split is claimed by, cloned by or credited to a node declared
///   dead;
/// * a node reduces only once it holds every ledger run of its
///   partitions;
/// * in every terminal state the job ends: every running node reduces,
///   no partition is owned by a dead node, each owner that did not crash
///   stored each ledger run of its partitions exactly once, and the
///   speculation ledger balances.
#[cfg(test)]
mod checker {
    use super::*;
    use std::collections::hash_map::DefaultHasher;
    use std::collections::{HashMap, VecDeque};
    use std::hash::{Hash, Hasher};

    const TIMEOUT: Duration = Duration::from_millis(10);
    const TICK: Duration = Duration::from_millis(1);

    /// The size of the job and of the faults the search covers.
    #[derive(Debug, Clone, Copy)]
    struct Bounds {
        nodes: u32,
        splits: usize,
        /// Nodes that may crash or be declared dead.
        deaths: usize,
        drops: u8,
        ticks: u8,
        speculation: bool,
    }

    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    enum Event {
        /// The node's input lane asks for a split.
        Claim(u32),
        /// The node routes the next run of its claimed split, or completes
        /// the split.
        Step(u32),
        /// The node's receiver, seeing the map complete, drains its inbox
        /// and asks for a verdict.
        Settle(u32),
        /// The node sees it was declared dead and stops.
        Notice(u32),
        /// The node crashes: it stops and its inbox is lost.
        Crash(u32),
        /// Time jumps past the timeout with the node silent; a scan runs.
        Declare(u32),
        /// A run in the node's inbox is lost.
        Drop(u32, RunTag),
        /// Time passes.
        Tick,
    }

    #[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
    struct Node {
        /// The claimed split's block, and the runs routed so far.
        work: Option<(usize, usize)>,
        inbox: BTreeSet<RunTag>,
        /// How often each run entered the node's store.
        stored: BTreeMap<RunTag, u8>,
        crashed: bool,
        /// Crashed, or noticed its death: the node does nothing more.
        stopped: bool,
        /// Its receiver saw every live node settled: it reduces.
        reducing: bool,
    }

    #[derive(Clone, PartialEq, Eq, Hash)]
    struct World {
        st: CoordState,
        now: Duration,
        nodes: Vec<Node>,
        drops: u8,
        ticks: u8,
    }

    fn runs(b: &Bounds, block: usize) -> [RunTag; 2] {
        [0, 1].map(|d| RunTag {
            partition: (block as u32 + d) % (2 * b.nodes),
            block: block as u32,
            lane: 0,
        })
    }

    impl World {
        fn new(b: &Bounds) -> Self {
            let splits = (0..b.splits)
                .map(|block| InputSplit {
                    path: String::new(),
                    block,
                    len: 0,
                    records: 0,
                    locations: vec![NodeId(block as u32 % b.nodes)],
                })
                .collect();
            let spec = SpeculationConfig {
                enabled: b.speculation,
                threshold_pct: 100,
                min_runtime: Duration::ZERO,
                budget: 1,
                backoff: Duration::ZERO,
            };
            World {
                st: CoordState::new(splits, b.nodes, 2 * b.nodes, TIMEOUT, spec),
                now: Duration::ZERO,
                nodes: vec![Node::default(); b.nodes as usize],
                drops: 0,
                ticks: 0,
            }
        }

        fn deaths(&self) -> usize {
            (0..self.nodes.len())
                .filter(|&n| self.st.dead[n] || self.nodes[n].crashed)
                .count()
        }

        fn events(&self, b: &Bounds) -> Vec<Event> {
            use Event::*;
            let settled = self.st.all_satisfied();
            let complete = self.st.map_complete();
            let deaths = self.deaths();
            let live = |m: usize| !self.st.dead[m] && !self.nodes[m].crashed;
            // Without a pending split or a clone left in the budget, a
            // claim hands out nothing.
            let claimable = self.st.slots.iter().any(|s| s.state == SlotState::Pending)
                || (self.st.spec.as_ref()).is_some_and(|s| s.report.launched < s.cfg.budget);
            let mut events = Vec::new();
            for (i, node) in self.nodes.iter().enumerate() {
                let n = i as u32;
                if !node.stopped {
                    if node.work.is_some() {
                        events.push(Step(n));
                    } else if claimable {
                        events.push(Claim(n));
                    }
                    if !node.reducing && complete {
                        events.push(Settle(n));
                    }
                    if !node.reducing && self.st.dead[i] {
                        events.push(Notice(n));
                    }
                    if !settled && node.work.is_some() && live(i) && deaths < b.deaths {
                        events.push(Crash(n));
                    }
                }
                let survivor = (0..self.nodes.len()).any(|m| m != i && live(m));
                if !settled && !self.st.dead[i] && survivor && (node.crashed || deaths < b.deaths) {
                    events.push(Declare(n));
                }
                if self.drops < b.drops {
                    events.extend(node.inbox.iter().map(|&tag| Drop(n, tag)));
                }
            }
            if self.ticks < b.ticks {
                events.push(Tick);
            }
            events
        }

        fn store(&mut self, node: u32, tag: RunTag) {
            *self.nodes[node as usize].stored.entry(tag).or_default() += 1;
        }

        /// A ledger run of a partition `node` owns that it has not stored.
        fn missing(&self, node: u32) -> Option<RunTag> {
            let stored = &self.nodes[node as usize].stored;
            self.st
                .ledger
                .iter()
                .find(|t| self.st.owner(t.partition) == node && !stored.contains_key(t))
                .copied()
        }

        fn apply(&mut self, b: &Bounds, event: Event) -> Result<(), String> {
            match event {
                Event::Claim(n) => {
                    let split = self.st.claim(n, self.now);
                    self.nodes[n as usize].work = split.map(|s| (s.block, 0));
                }
                Event::Step(n) => {
                    let (block, routed) = self.nodes[n as usize].work.expect("a claimed split");
                    let skip = routed == 0 && self.st.superseded(n, block);
                    match runs(b, block).get(routed) {
                        Some(&tag) if !skip => {
                            match self.st.route(n, tag) {
                                Route::Keep => self.store(n, tag),
                                Route::Discard => {}
                                Route::Ship(NodeId(owner)) => {
                                    let owner = &mut self.nodes[owner as usize];
                                    if !owner.stopped {
                                        owner.inbox.insert(tag);
                                    }
                                }
                            }
                            self.nodes[n as usize].work = Some((block, routed + 1));
                        }
                        _ => {
                            self.st.complete(n, block, self.now);
                            self.nodes[n as usize].work = None;
                        }
                    }
                }
                Event::Settle(n) => {
                    if self.st.map_complete() {
                        for tag in std::mem::take(&mut self.nodes[n as usize].inbox) {
                            if self.st.admit(n, tag) {
                                self.store(n, tag);
                            }
                        }
                        if self.st.settle(n) && self.st.all_satisfied() {
                            self.nodes[n as usize].reducing = true;
                            if let Some(tag) = self.missing(n) {
                                return Err(format!("node {n} reduces without run {tag:?}"));
                            }
                        }
                    }
                }
                Event::Notice(n) => {
                    // It owns no partition any more: what it holds is moot.
                    self.nodes[n as usize] = Node {
                        stopped: true,
                        ..Node::default()
                    };
                }
                Event::Crash(n) => {
                    let node = &mut self.nodes[n as usize];
                    (node.crashed, node.stopped, node.work) = (true, true, None);
                    node.inbox.clear();
                }
                Event::Declare(n) => {
                    self.now += TIMEOUT + TICK;
                    for m in 0..b.nodes {
                        if m != n && !self.nodes[m as usize].stopped {
                            self.st.beats[m as usize] = self.now;
                        }
                    }
                    self.st.scan(self.now);
                }
                Event::Drop(n, tag) => {
                    self.nodes[n as usize].inbox.remove(&tag);
                    self.drops += 1;
                }
                Event::Tick => {
                    self.now += TICK;
                    self.ticks += 1;
                }
            }
            // What the wrapper does with these, and the fault accounting,
            // decide nothing.
            self.st.out = Outbox::default();
            self.st.changes = 0;
            (self.st.nodes_lost, self.st.splits_rescheduled) = (0, 0);
            self.credits_only_the_living()
        }

        fn credits_only_the_living(&self) -> Result<(), String> {
            let dead = |n: &u32| self.st.dead[*n as usize];
            for slot in &self.st.slots {
                let holder = match slot.state {
                    SlotState::Claimed(n) | SlotState::Complete(n) => Some(n),
                    SlotState::Pending => None,
                };
                if holder.iter().chain(&slot.spec).any(dead) {
                    return Err(format!("block {} is held by a dead node", slot.split.block));
                }
            }
            Ok(())
        }

        /// The properties of a state no event changes.
        fn job_ends(&self, b: &Bounds) -> Result<(), String> {
            if let Some(n) = self.nodes.iter().position(|n| !n.stopped && !n.reducing) {
                return Err(format!("node {n} never settles"));
            }
            for partition in 0..2 * b.nodes {
                let owner = self.st.owner(partition);
                if self.st.dead[owner as usize] {
                    return Err(format!(
                        "partition {partition} is owned by dead node {owner}"
                    ));
                }
                // A node that crashes after it settled, while it still
                // drains a clone it lost, takes its partitions with it:
                // the job then fails with `NodeLost`, typed, not silent.
                if self.nodes[owner as usize].crashed {
                    continue;
                }
                let stored = &self.nodes[owner as usize].stored;
                for tag in self.st.ledger.iter().filter(|t| t.partition == partition) {
                    let times = stored.get(tag).copied().unwrap_or(0);
                    if times != 1 {
                        return Err(format!("node {owner} stored {tag:?} {times} times"));
                    }
                }
            }
            match &self.st.spec {
                Some(spec) if !spec.report.balanced() => Err(format!(
                    "speculation ledger {:?} does not balance",
                    spec.report
                )),
                _ => Ok(()),
            }
        }
    }

    fn fingerprint(w: &World) -> u64 {
        let mut h = DefaultHasher::new();
        w.hash(&mut h);
        h.finish()
    }

    /// Explore every state reachable within `b`, and panic with a
    /// shortest event trace to the first property violated.
    fn explore(b: Bounds) {
        let started = Instant::now();
        let start = World::new(&b);
        // Each state's parent and the event that led from it.
        let mut seen: HashMap<u64, Option<(u64, Event)>> = HashMap::new();
        seen.insert(fingerprint(&start), None);
        let mut frontier = VecDeque::from([start]);
        let fail = |seen: &HashMap<u64, Option<(u64, Event)>>,
                    mut at: u64,
                    last: Option<Event>,
                    why: String| {
            let mut trace: Vec<Event> = last.into_iter().collect();
            while let Some(Some((parent, event))) = seen.get(&at) {
                trace.push(*event);
                at = *parent;
            }
            trace.reverse();
            panic!(
                "{b:?}: {why}\nshortest trace ({} events): {trace:?}",
                trace.len()
            );
        };
        while let Some(world) = frontier.pop_front() {
            let here = fingerprint(&world);
            let mut terminal = true;
            for event in world.events(&b) {
                let mut next = world.clone();
                let verdict = next.apply(&b, event);
                if let Err(why) = verdict {
                    fail(&seen, here, Some(event), why);
                }
                let key = fingerprint(&next);
                if key == here {
                    continue;
                }
                terminal = false;
                if let std::collections::hash_map::Entry::Vacant(e) = seen.entry(key) {
                    e.insert(Some((here, event)));
                    frontier.push_back(next);
                }
            }
            if terminal {
                if let Err(why) = world.job_ends(&b) {
                    fail(&seen, here, None, why);
                }
            }
        }
        println!(
            "coordinator checker {b:?}: {} states in {:.2?}",
            seen.len(),
            started.elapsed()
        );
    }

    /// Two nodes: the death of either, after any step, and a lost run.
    #[test]
    fn two_nodes_a_death_and_a_drop() {
        explore(Bounds {
            nodes: 2,
            splits: 4,
            deaths: 1,
            drops: 1,
            ticks: 0,
            speculation: false,
        });
    }

    /// Two speculating nodes: a straggler is cloned once time ticks, and
    /// a death may strike the primary or the clone.
    #[test]
    fn two_nodes_speculating() {
        explore(Bounds {
            nodes: 2,
            splits: 4,
            deaths: 1,
            drops: 0,
            ticks: 1,
            speculation: true,
        });
    }

    /// Three nodes, two deaths: an adopter can die in its turn.
    #[test]
    fn three_nodes_two_deaths() {
        explore(Bounds {
            nodes: 3,
            splits: 2,
            deaths: 2,
            drops: 0,
            ticks: 0,
            speculation: false,
        });
    }

    /// Three nodes, a death and a lost run.
    #[test]
    fn three_nodes_a_death_and_a_drop() {
        explore(Bounds {
            nodes: 3,
            splits: 2,
            deaths: 1,
            drops: 1,
            ticks: 0,
            speculation: false,
        });
    }
}
